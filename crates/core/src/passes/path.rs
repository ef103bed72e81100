//! PATH — critical path strengthening.
//!
//! "This pass tries to keep all the instructions on a critical path in
//! the same cluster. If instructions in the paths have bias for a
//! particular cluster, the path is moved to that cluster. Otherwise
//! the least loaded cluster is selected. If different portions of the
//! paths have strong bias toward different clusters (e.g., when there
//! are two or more preplaced instructions on the path), the critical
//! path is broken in two or more pieces and kept locally close to the
//! relevant home clusters."
//!
//! ```text
//! ∀ (i ∈ CP, t):  W[i, t, cc(i)] ← 3 · W[i, t, cc(i)]
//! ```

use convergent_analysis::{EffectOp, Interval, PassEffect};
use convergent_ir::{ClusterId, CriticalPath, InstrId};

use crate::{Pass, PassContext};

/// The paper's boost of each critical-path instruction's cluster.
const FACTOR: f64 = 3.0;

/// Minimum top-to-second cluster-bias ratio for the path to follow its
/// own bias instead of the least-loaded cluster.
const BIAS_THRESHOLD: f64 = 1.05;

/// The PATH pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Path;

impl Path {
    /// Creates the pass with the paper's boost factor of 3.
    #[must_use]
    pub fn new() -> Self {
        Path
    }
}

impl Pass for Path {
    fn name(&self) -> &'static str {
        "PATH"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let cp = CriticalPath::extract(ctx.dag, ctx.time);
        let path = cp.instrs();
        if path.is_empty() {
            return;
        }

        // Break the path at preplaced instructions: each segment is
        // anchored by the preplaced instruction it contains (segment
        // boundaries fall midway between consecutive anchors).
        let anchors: Vec<(usize, ClusterId)> = path
            .iter()
            .enumerate()
            .filter_map(|(k, &i)| ctx.dag.instr(i).preplacement().map(|h| (k, h)))
            .filter(|(_, h)| h.index() < ctx.weights.n_clusters())
            .collect();

        if anchors.is_empty() {
            let cc = self.whole_path_cluster(ctx, path);
            for &i in path {
                self.boost(ctx, i, cc);
            }
            return;
        }

        // Midpoints between consecutive anchors split the path.
        for (k, &i) in path.iter().enumerate() {
            let cc = anchors
                .iter()
                .min_by_key(|(pos, _)| (pos.abs_diff(k), *pos))
                .map(|&(_, h)| h)
                .expect("anchors is non-empty");
            self.boost(ctx, i, cc);
        }
    }

    fn effect(&self) -> PassEffect {
        // A constant, feasibility-guarded boost of each critical-path
        // instruction's chosen cluster column.
        PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::point(FACTOR),
        }])
        .breaks_symmetry()
    }
}

impl Path {
    fn boost(&self, ctx: &mut PassContext<'_>, i: InstrId, cc: ClusterId) {
        if ctx.weights.cluster_feasible(i, cc) {
            ctx.weights.scale_cluster(i, cc, FACTOR);
        }
    }

    /// Chooses the cluster for an anchor-free path: the path's own
    /// bias when clear, otherwise the least loaded cluster.
    fn whole_path_cluster(&self, ctx: &PassContext<'_>, path: &[InstrId]) -> ClusterId {
        let n_clusters = ctx.weights.n_clusters();
        let mut bias = vec![0.0f64; n_clusters];
        for &i in path {
            let tot = ctx.weights.total(i).max(f64::MIN_POSITIVE);
            for c in 0..n_clusters {
                bias[c] += ctx.weights.cluster_weight(i, ClusterId::new(c as u16)) / tot;
            }
        }
        let mut order: Vec<usize> = (0..n_clusters).collect();
        order.sort_by(|&a, &b| bias[b].partial_cmp(&bias[a]).expect("weights are finite"));
        let top = order[0];
        let clear = n_clusters == 1
            || bias[order[1]] <= f64::MIN_POSITIVE
            || bias[top] / bias[order[1]] >= BIAS_THRESHOLD;
        if clear {
            return ClusterId::new(top as u16);
        }
        // Least loaded: smallest total expected weight across all
        // instructions.
        let mut load = vec![0.0f64; n_clusters];
        for i in ctx.dag.ids() {
            let tot = ctx.weights.total(i).max(f64::MIN_POSITIVE);
            for c in 0..n_clusters {
                load[c] += ctx.weights.cluster_weight(i, ClusterId::new(c as u16)) / tot;
            }
        }
        let least = (0..n_clusters)
            .min_by(|&a, &b| load[a].partial_cmp(&load[b]).expect("finite"))
            .expect("at least one cluster");
        ClusterId::new(least as u16)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use crate::passes::Place;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_machine::Machine;

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    #[test]
    fn path_follows_existing_bias() {
        // Chain x -> y -> z with x biased toward cluster 2.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        let z = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        b.edge(y, z).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.weights.scale_cluster(x, c(2), 10.0);
        rig.weights.normalize_all();
        rig.run(&Path::new());
        rig.weights.assert_invariants(1e-9);
        for i in [x, y, z] {
            assert_eq!(rig.weights.preferred_cluster(i), c(2), "{i}");
        }
    }

    #[test]
    fn unbiased_path_takes_least_loaded_cluster() {
        // Chain plus heavy off-path bias toward cluster 0 on an
        // island: the path should avoid cluster 0.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let island = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(island, c(0), 50.0);
        rig.weights.normalize_all();
        rig.run(&Path::new());
        assert_eq!(rig.weights.preferred_cluster(x), c(1));
        assert_eq!(rig.weights.preferred_cluster(y), c(1));
    }

    #[test]
    fn preplaced_anchors_split_the_path() {
        // ld@c0 -> a -> b -> st@c3 : first half pulls to 0, second to 3.
        let mut b = DagBuilder::new();
        let ld = b.preplaced_instr(Opcode::Load, c(0));
        let a1 = b.instr(Opcode::IntAlu);
        let a2 = b.instr(Opcode::IntAlu);
        let st = b.preplaced_instr(Opcode::Store, c(3));
        b.edge(ld, a1).unwrap();
        b.edge(a1, a2).unwrap();
        b.edge(a2, st).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.run(&Place::new());
        rig.run(&Path::new());
        rig.weights.assert_invariants(1e-9);
        assert_eq!(rig.weights.preferred_cluster(ld), c(0));
        assert_eq!(rig.weights.preferred_cluster(a1), c(0));
        assert_eq!(rig.weights.preferred_cluster(a2), c(3));
        assert_eq!(rig.weights.preferred_cluster(st), c(3));
    }

    #[test]
    fn two_component_graph_boosts_only_the_critical_component() {
        // A long FMul chain (the global critical path) next to a short
        // IntAlu chain in a separate weakly-connected component. PATH
        // must handle the disconnected component without leaking
        // sentinels: the off-path component's weights stay untouched.
        let mut b = DagBuilder::new();
        let m1 = b.instr(Opcode::FMul);
        let m2 = b.instr(Opcode::FMul);
        b.edge(m1, m2).unwrap();
        let a1 = b.instr(Opcode::IntAlu);
        let a2 = b.instr(Opcode::IntAlu);
        b.edge(a1, a2).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::chorus_vliw(2));
        rig.run(&Path::new());
        rig.weights.assert_invariants(1e-9);
        for i in [m1, m2] {
            assert!(rig.weights.confidence(i) > 1.0, "{i} is on the CP");
        }
        for i in [a1, a2] {
            assert!(
                (rig.weights.confidence(i) - 1.0).abs() < 1e-9,
                "{i} is off the CP"
            );
        }
    }

    #[test]
    fn off_path_instructions_untouched() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::FMul); // critical (7 cycles)
        let y = b.instr(Opcode::IntAlu); // slack
        let _ = y;
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::chorus_vliw(2));
        rig.run(&Path::new());
        // x boosted somewhere; y untouched (confidence 1).
        assert!(rig.weights.confidence(x) > 1.0);
        assert!((rig.weights.confidence(y) - 1.0).abs() < 1e-9);
    }
}
