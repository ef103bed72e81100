#![warn(missing_docs)]
//! Data-dependence-graph IR for convergent scheduling.
//!
//! This crate provides the program representation consumed by every
//! scheduler in the workspace: instructions classified by operation class,
//! immutable data-dependence DAGs with precomputed topological order, the
//! graph analyses the paper's heuristics rely on (earliest/latest start
//! times, levels, critical paths), and
//! [`SchedulingUnit`], the unit of work handed to a scheduler (a basic
//! block, trace, superblock, or hyperblock in the paper's terminology).
//!
//! The convergent scheduling paper (Lee, Puppin, Swenson, Amarasinghe,
//! MICRO-35, 2002) treats the compiler front end as a producer of
//! dependence graphs annotated with *preplaced* instructions — memory
//! operations pinned to a specific cluster by congruence analysis, or
//! values live across region boundaries. This crate is exactly that
//! interface, rebuilt as a standalone library.
//!
//! # Example
//!
//! ```
//! use convergent_ir::{DagBuilder, Opcode};
//!
//! # fn main() -> Result<(), convergent_ir::IrError> {
//! let mut b = DagBuilder::new();
//! let a = b.instr(Opcode::Load);
//! let c = b.instr(Opcode::Load);
//! let m = b.instr(Opcode::IntMul);
//! b.edge(a, m)?;
//! b.edge(c, m)?;
//! let dag = b.build()?;
//! assert_eq!(dag.len(), 3);
//! assert_eq!(dag.preds(m).len(), 2);
//! # Ok(())
//! # }
//! ```

mod analysis;
mod dot;
mod error;
mod graph;
mod hash;
mod id;
mod instr;
mod partition;
mod program;
mod shape;
mod text;
mod unit;

pub use analysis::UNREACHABLE;
pub use analysis::{CriticalPath, TimeAnalysis};
pub use dot::to_dot;
pub use error::IrError;
pub use graph::{Dag, DagBuilder, Edge};
pub use hash::{IdHasher, IdMap, IdSet};
pub use id::{ClusterId, Cycle, InstrId};
pub use instr::{Instruction, OpClass, Opcode};
pub use partition::{
    assess, decompose_with, plan_regions, weakly_connected_components, CutAssessment, CutVerdict,
    Decomposition, RegionPlan, RegionPolicy, Shard, DEFAULT_REGION_SIZE,
};
pub use program::{CrossValue, Program, ProgramError};
pub use shape::ShapeStats;
pub use text::{parse_raw, parse_unit, to_text, RawUnit, TextError};
pub use unit::{RegionKind, SchedulingUnit};
