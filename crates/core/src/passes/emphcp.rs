//! EMPHCP — emphasize critical path distance.
//!
//! "This pass attempts to help the convergence of the time information
//! by emphasizing the level of each instruction. The level of an
//! instruction is a good time approximation because it is when the
//! instruction can be scheduled if a machine has infinite resources":
//!
//! ```text
//! ∀ (i, c):  W[i, level(i), c] ← 1.2 · W[i, level(i), c]
//! ```
//!
//! This is the only pass in the standard sequences that adjusts *only*
//! temporal preferences, so it is excluded from the convergence plots
//! (Figures 7 and 9).

use convergent_analysis::{EffectOp, Interval, PassEffect};

use crate::{Pass, PassContext};

/// The paper's emphasis of each instruction's level slot.
const FACTOR: f64 = 1.2;

/// The EMPHCP pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct EmphCp;

impl EmphCp {
    /// Creates the pass with the paper's factor of 1.2.
    #[must_use]
    pub fn new() -> Self {
        EmphCp
    }
}

impl Pass for EmphCp {
    fn name(&self) -> &'static str {
        "EMPHCP"
    }

    fn is_time_only(&self) -> bool {
        true
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let n_slots = ctx.weights.n_slots() as u32;
        for i in ctx.dag.ids() {
            let level = ctx.time.level(i);
            if level < n_slots {
                ctx.weights.scale_time(i, level, FACTOR);
            }
        }
    }

    fn effect(&self) -> PassEffect {
        // A constant boost of each instruction's level time row; the
        // same factor hits every cluster, so spatial marginals keep
        // their ratios.
        PassEffect::new(vec![EffectOp::ScaleTimes {
            factor: Interval::point(FACTOR),
        }])
        .time_only()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use convergent_ir::{ClusterId, Cycle, DagBuilder, Opcode};
    use convergent_machine::Machine;

    #[test]
    fn time_moves_toward_levels() {
        // Island with a wide window: after EMPHCP its preferred time
        // is its level (0).
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        let z = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        b.edge(y, z).unwrap();
        let island = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&EmphCp::new());
        rig.weights.assert_invariants(1e-9);
        assert_eq!(rig.weights.preferred_time(island), Cycle::ZERO);
        assert_eq!(rig.weights.preferred_time(y), Cycle::new(1));
    }

    #[test]
    fn spatial_preferences_untouched() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.weights.scale_cluster(x, ClusterId::new(2), 3.0);
        rig.weights.normalize_all();
        let conf_before = rig.weights.confidence(x);
        rig.run(&EmphCp::new());
        assert!((rig.weights.confidence(x) - conf_before).abs() < 1e-9);
        assert!(EmphCp::new().is_time_only());
    }
}
