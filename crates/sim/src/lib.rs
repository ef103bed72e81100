#![warn(missing_docs)]
//! Space-time schedules, validation, and cycle-level evaluation.
//!
//! This crate is the "hardware" side of the reproduction: it defines
//! what a finished schedule looks like ([`SpaceTimeSchedule`]), checks
//! that a schedule is legal for a given machine ([`validate`]), and
//! evaluates its true cost including static-network link contention on
//! Raw-style meshes ([`evaluate`]).
//!
//! Keeping these concerns out of the schedulers means every scheduling
//! technique in the workspace — convergent, UAS, PCC, Rawcc-style —
//! is graded by exactly the same referee, which is what makes the
//! paper's comparisons meaningful.
//!
//! # Example
//!
//! ```
//! use convergent_ir::{Cycle, ClusterId, DagBuilder, Opcode};
//! use convergent_machine::Machine;
//! use convergent_sim::{Assignment, ScheduleBuilder, validate};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = DagBuilder::new();
//! let a = b.instr(Opcode::IntAlu);
//! let dag = b.build()?;
//! let machine = Machine::chorus_vliw(4);
//!
//! let mut sb = ScheduleBuilder::new(&dag);
//! sb.place(a, ClusterId::new(0), 0, Cycle::ZERO);
//! let schedule = sb.build(&machine)?;
//! validate(&dag, &machine, &schedule)?;
//! assert_eq!(schedule.makespan().get(), 1);
//! # Ok(())
//! # }
//! ```

mod assignment;
mod error;
mod evaluate;
mod ledger;
pub mod oracle;
mod pressure;
mod route;
mod schedule;
mod stitch;
mod validate;

pub use assignment::Assignment;
pub use error::{SimError, Violation};
pub use evaluate::{evaluate, EvalReport};
pub use ledger::{CycleSet, SlotLedger};
pub use oracle::{cross_check, resimulate, Divergence};
pub use pressure::{analyze_pressure, PressureReport};
pub use route::{route_hops, RouterReport};
pub use schedule::{CommOp, PlacedOp, ScheduleBuilder, SpaceTimeSchedule};
pub use stitch::{stitch, StitchReport};
pub use validate::validate;

use convergent_ir::{ClusterId, Dag, InstrId, Instruction};
use convergent_machine::Machine;

/// Effective latency of `instr` when executed on cluster `c`: the base
/// op-class latency, plus the machine's remote-memory penalty when a
/// preplaced memory operation executes away from its home bank (legal
/// only on machines with a soft memory model, e.g. Chorus).
#[must_use]
pub fn effective_latency(machine: &Machine, instr: &Instruction, c: ClusterId) -> u32 {
    let base = machine.latency_of(instr);
    if instr.opcode().is_memory() {
        if let (Some(home), Some(penalty)) = (instr.preplacement(), machine.memory().remote_penalty)
        {
            if home != c {
                return base + penalty;
            }
        }
    }
    base
}

/// [`effective_latency`] plus the *live-in* cost: on machines with a
/// data-home cluster (Chorus: "all the data are available in the first
/// cluster at the beginning of every scheduling unit"), a root
/// instruction executed on any other cluster must first fetch its
/// live-in operands across the interconnect, which we charge as one
/// inter-cluster transfer latency. This is the cost the FIRST
/// heuristic trades against parallelism.
#[must_use]
pub fn effective_latency_in(dag: &Dag, machine: &Machine, i: InstrId, c: ClusterId) -> u32 {
    let instr = dag.instr(i);
    let mut lat = effective_latency(machine, instr, c);
    if dag.preds(i).is_empty() && !instr.is_preplaced() {
        if let Some(home) = machine.data_home() {
            if home != c {
                lat += machine.comm_latency(home, c);
            }
        }
    }
    lat
}

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::Opcode;

    #[test]
    fn effective_latency_adds_remote_penalty() {
        let m = Machine::chorus_vliw(4);
        let home = ClusterId::new(2);
        let ld = Instruction::preplaced(Opcode::Load, home);
        assert_eq!(effective_latency(&m, &ld, home), 3);
        assert_eq!(effective_latency(&m, &ld, ClusterId::new(0)), 4);
        // Non-memory ops never pay the penalty.
        let add = Instruction::preplaced(Opcode::IntAlu, home);
        assert_eq!(effective_latency(&m, &add, ClusterId::new(0)), 1);
        // Unpinned memory ops never pay the penalty.
        let free = Instruction::new(Opcode::Load);
        assert_eq!(effective_latency(&m, &free, ClusterId::new(0)), 3);
    }

    #[test]
    fn raw_has_no_soft_penalty() {
        let m = Machine::raw(4);
        let ld = Instruction::preplaced(Opcode::Load, ClusterId::new(1));
        // On Raw, remote access is illegal, so effective latency is the
        // base latency everywhere; validation rejects wrong placement.
        assert_eq!(effective_latency(&m, &ld, ClusterId::new(0)), 3);
    }
}
