//! LOAD — load balance.
//!
//! "This pass performs load balancing across clusters. Each weight on
//! a cluster is divided by the total load on that cluster":
//!
//! ```text
//! ∀ (i, t, c):  W[i, t, c] ← W[i, t, c] / load(c)
//! ```
//!
//! The load of a cluster is the total expected weight currently
//! leaning on it: `Σ_i W[i]`'s normalized cluster marginal. Loads are
//! snapshotted before scaling so the pass is order-independent.

use convergent_analysis::{EffectOp, Interval, PassEffect};
use convergent_ir::ClusterId;

use crate::{Pass, PassContext};

/// The LOAD pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadBalance;

impl LoadBalance {
    /// Creates the pass.
    #[must_use]
    pub fn new() -> Self {
        LoadBalance
    }
}

impl Pass for LoadBalance {
    fn name(&self) -> &'static str {
        "LOAD"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let n_clusters = ctx.weights.n_clusters();
        let mut load = vec![f64::MIN_POSITIVE; n_clusters];
        for i in ctx.dag.ids() {
            let tot = ctx.weights.total(i).max(f64::MIN_POSITIVE);
            for c in 0..n_clusters {
                load[c] += ctx.weights.cluster_weight(i, ClusterId::new(c as u16)) / tot;
            }
        }
        for l in &mut load {
            *l = 1.0 / *l;
        }
        // One bulk row op per instruction: the total is re-summed once,
        // not once per cluster.
        for i in ctx.dag.ids() {
            ctx.weights.scale_clusters_row(i, &load);
        }
    }

    fn effect(&self) -> PassEffect {
        // `1 / load(c)` with loads floored at `f64::MIN_POSITIVE`:
        // data-dependent but always strictly positive and finite. The
        // same factor applies to every instruction's column `c`, so
        // the pass cannot break cluster-marginal ties by itself.
        PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::positive_finite(),
        }])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_machine::Machine;

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    #[test]
    fn overloaded_cluster_is_discounted() {
        // Three instructions lean hard on cluster 0; a fourth,
        // undecided one should tip away from it after LOAD.
        let mut b = DagBuilder::new();
        let pinned: Vec<_> = (0..3).map(|_| b.instr(Opcode::IntAlu)).collect();
        let free = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        for &p in &pinned {
            rig.weights.scale_cluster(p, c(0), 50.0);
        }
        rig.weights.normalize_all();
        rig.run(&LoadBalance::new());
        rig.weights.assert_invariants(1e-9);
        assert_eq!(rig.weights.preferred_cluster(free), c(1));
    }

    #[test]
    fn balanced_load_is_near_identity() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(x, c(0), 5.0);
        rig.weights.scale_cluster(y, c(1), 5.0);
        rig.weights.normalize_all();
        rig.run(&LoadBalance::new());
        // Symmetric loads: preferences survive.
        assert_eq!(rig.weights.preferred_cluster(x), c(0));
        assert_eq!(rig.weights.preferred_cluster(y), c(1));
    }

    #[test]
    fn strong_preference_survives_mild_imbalance() {
        // One instruction pinned ×100 on cluster 0, one mildly on 0.
        let mut b = DagBuilder::new();
        let pinned = b.instr(Opcode::IntAlu);
        let mild = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(pinned, c(0), 100.0);
        rig.weights.scale_cluster(mild, c(0), 1.2);
        rig.weights.normalize_all();
        rig.run(&LoadBalance::new());
        // The pinned one stays; the mild one flips to balance load.
        assert_eq!(rig.weights.preferred_cluster(pinned), c(0));
        assert_eq!(rig.weights.preferred_cluster(mild), c(1));
    }
}
