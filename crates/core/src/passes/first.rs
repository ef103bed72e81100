//! FIRST — push to first cluster.
//!
//! "In our clustered VLIW infrastructure, an invariant is that all the
//! data are available in the first cluster at the beginning of every
//! scheduling unit. For this architecture, we want to give advantage
//! to a schedule utilizing more the first cluster, where data are
//! already available":
//!
//! ```text
//! ∀ (i, t):  W[i, t, 1] ← 1.2 · W[i, t, 1]
//! ```
//!
//! The pass is a no-op on machines without a data-home cluster (Raw).

use convergent_analysis::{EffectOp, Interval, PassEffect};

use crate::{Pass, PassContext};

/// The paper's boost of the data-home cluster.
const FACTOR: f64 = 1.2;

/// The FIRST pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct First;

impl First {
    /// Creates the pass with the paper's factor of 1.2.
    #[must_use]
    pub fn new() -> Self {
        First
    }
}

impl Pass for First {
    fn name(&self) -> &'static str {
        "FIRST"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let Some(home) = ctx.machine.data_home() else {
            return;
        };
        for i in ctx.dag.ids() {
            ctx.weights.scale_cluster(i, home, FACTOR);
        }
    }

    fn effect(&self) -> PassEffect {
        // A constant boost of the data-home cluster column (no-op on
        // machines without one).
        PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::point(FACTOR),
        }])
        .breaks_symmetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use convergent_ir::{ClusterId, DagBuilder, Opcode};
    use convergent_machine::Machine;

    #[test]
    fn vliw_gets_first_cluster_bias() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::chorus_vliw(4));
        rig.run(&First::new());
        rig.weights.assert_invariants(1e-9);
        assert_eq!(rig.weights.preferred_cluster(x), ClusterId::new(0));
        assert!((rig.weights.confidence(x) - 1.2).abs() < 1e-9);
    }

    #[test]
    fn raw_is_untouched() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.run(&First::new());
        assert!((rig.weights.confidence(x) - 1.0).abs() < 1e-9);
    }
}
