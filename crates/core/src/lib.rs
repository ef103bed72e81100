#![warn(missing_docs)]
#![allow(clippy::needless_range_loop)] // pass kernels index several parallel per-cluster arrays

//! Convergent scheduling — the MICRO-35 (2002) contribution.
//!
//! > "A convergent scheduler is composed of independent passes, each
//! > implementing a heuristic that addresses a particular problem or
//! > constraint. The passes share a simple, common interface that
//! > provides spatial and temporal preference for each instruction.
//! > Preferences are not absolute; instead, the interface allows a
//! > pass to express the confidence of its preferences."
//!
//! This crate implements that framework:
//!
//! * [`PreferenceMap`] — the shared `W[i, c, t]` weight matrix with the
//!   paper's invariants, marginals, and confidence measure.
//! * [`Pass`] / [`PassContext`] — the common interface between
//!   heuristics.
//! * [`passes`] — the full Section 4 collection: INITTIME, NOISE,
//!   PLACE, FIRST, PATH, COMM, PLACEPROP, LOAD, LEVEL, PATHPROP,
//!   EMPHCP.
//! * [`Sequence`] — compositions of passes, with the paper's Table 1
//!   configurations as presets ([`Sequence::raw`], [`Sequence::vliw`]).
//! * [`ConvergentScheduler`] — the driver: run a sequence, read off
//!   preferred clusters as the spatial assignment and preferred times
//!   as list-scheduling priorities, and record the per-pass
//!   convergence trace (Figures 7 and 9).
//!
//! # Quick example
//!
//! ```
//! use convergent_core::ConvergentScheduler;
//! use convergent_ir::{ClusterId, DagBuilder, Opcode};
//! use convergent_machine::Machine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // A banked load feeding an add, on a 4-cluster VLIW.
//! let mut b = DagBuilder::new();
//! let ld = b.preplaced_instr(Opcode::Load, ClusterId::new(2));
//! let ad = b.instr(Opcode::IntAlu);
//! b.edge(ld, ad)?;
//! let dag = b.build()?;
//! let machine = Machine::chorus_vliw(4);
//!
//! let outcome = ConvergentScheduler::vliw_default().schedule(&dag, &machine)?;
//! convergent_sim::validate(&dag, &machine, outcome.schedule())?;
//! // The preplacement heuristics pull the consumer to the load's bank.
//! assert_eq!(outcome.assignment().cluster(ad), ClusterId::new(2));
//! # Ok(())
//! # }
//! ```

pub mod contract;
mod driver;
pub mod parallel;
mod pass;
pub mod passes;
mod sequence;
pub mod telemetry;
mod weights;

pub use contract::{
    prove_pass, sequence_proof_counts, summarize_pass, summarize_sequence, verify_pass,
    verify_sequence,
};
pub use convergent_analysis::{
    ContractProof, Determinism, EffectOp, Interval, PassEffect, PassSummary, Verdict,
};
pub use convergent_ir::{assess, CutAssessment, CutVerdict};
pub use driver::{ConvergenceTrace, ConvergentScheduler, PassRecord, ScheduleOutcome, ShardInfo};
pub use pass::{Pass, PassContext, PassContract, PassScratch};
pub use sequence::Sequence;
pub use weights::{PreferenceMap, WeightOp};
