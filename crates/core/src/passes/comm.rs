//! COMM — communication minimization.
//!
//! "This pass reduces communication load by increasing the weight for
//! an instruction to be in the same clusters where most of [its]
//! neighbors (successors and predecessors in the dependence graph)
//! are. This is done by summing the weights of all the neighbors in a
//! specific cluster, and using that to skew weights in the correct
//! direction."
//!
//! The paper's formula multiplies `W[i,t,c]` by `Σ_n W[n,t,c]` —
//! literally the neighbors' weight in the *same time slot*. Dependent
//! neighbors never share a time slot, so (as the prose says) we sum
//! each neighbor's weight "in a specific cluster", i.e. its cluster
//! marginal, and use that as the skew factor (plus a small floor so a
//! cluster no neighbor currently favours is dampened, not
//! obliterated). This interpretation is flagged in DESIGN.md.
//!
//! Two extras from the paper, the first always on, the second on by
//! default:
//!
//! * "a variant … that considers grand-parents and grand-children,
//!   and we usually run it together with COMM" — grand-neighbors
//!   contribute with half weight;
//! * "for each i: W[i, tᵢ, cᵢ] ← 2 · W[i, tᵢ, cᵢ]" — the preferred
//!   slot is reinforced, sharpening the map.
//!
//! # Snapshot, skew sweep, apply sweep
//!
//! [`Pass::run`] first snapshots every instruction's normalized
//! cluster marginals (into [`PassScratch::a`], reused across runs — no
//! steady-state allocation) and folds the neighbor/grand-neighbor sums
//! into an `n_instrs × n_clusters` skew matrix ([`PassScratch::b`]).
//! It then applies each row's skew via
//! [`PreferenceMap::comm_row`](crate::PreferenceMap::comm_row), which
//! fuses the preferred-slot reinforcement into the same row visit; the
//! fusion is state-identical to the historical two-loop form because
//! both the skew scaling and the reinforcement read-off touch only row
//! `i`. Skews read only the snapshot, so folding each row just before
//! applying it would give the same bits, but on 20k-instruction
//! regions it was measurably slower than two separate sweeps.

use convergent_analysis::{EffectOp, Interval, PassEffect};

use crate::{Pass, PassContext, PassScratch};

/// Floor added to neighbor skew factors so unvisited clusters are
/// dampened rather than zeroed (keeps the map recoverable, feature 3
/// of Section 2).
const SKEW_FLOOR: f64 = 0.05;

/// The COMM pass. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct Comm {
    reinforce_preferred: bool,
}

impl Comm {
    /// Creates the pass with preferred-slot reinforcement enabled, the
    /// configuration the paper runs.
    #[must_use]
    pub fn new() -> Self {
        Comm {
            reinforce_preferred: true,
        }
    }

    /// Enables or disables the `W[i,tᵢ,cᵢ] ← 2W[i,tᵢ,cᵢ]`
    /// reinforcement step.
    #[must_use]
    pub fn with_reinforcement(mut self, on: bool) -> Self {
        self.reinforce_preferred = on;
        self
    }
}

impl Default for Comm {
    fn default() -> Self {
        Comm::new()
    }
}

impl Pass for Comm {
    fn name(&self) -> &'static str {
        "COMM"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let (dag, weights) = (ctx.dag, &mut *ctx.weights);
        let PassScratch {
            a: marginal,
            b: skew,
            mark,
        } = &mut *ctx.scratch;
        let n_clusters = weights.n_clusters();
        let n_instrs = weights.n_instrs();
        // Snapshot normalized cluster marginals (one flat row-major
        // buffer rather than a Vec per instruction) so the pass result
        // does not depend on instruction iteration order. The buffer
        // is driver-owned scratch, reused run to run.
        marginal.clear();
        marginal.resize(n_instrs * n_clusters, 0.0);
        weights.cluster_marginals_into(marginal);

        // Fold neighbor (and half-weight grand-neighbor) marginals
        // into the skew matrix. `mark` is a stamp array standing in
        // for per-instruction hash sets when deduplicating
        // grand-neighbors: `mark[g] == i` ⇔ `g` was already counted
        // (as `i` itself, a direct neighbor, or an earlier
        // grand-neighbor) while processing instruction `i`. It is
        // re-filled with `u32::MAX` every run so stale stamps from a
        // previous run can never collide.
        skew.clear();
        skew.resize(n_instrs * n_clusters, SKEW_FLOOR);
        mark.clear();
        mark.resize(n_instrs, u32::MAX);
        for (i, row) in dag.ids().zip(skew.chunks_exact_mut(n_clusters)) {
            for n in dag.neighbors(i) {
                let nb = n.index() * n_clusters;
                for (rc, &mc) in row.iter_mut().zip(&marginal[nb..nb + n_clusters]) {
                    *rc += mc;
                }
            }
            let stamp = i.index() as u32;
            mark[i.index()] = stamp;
            for n in dag.neighbors(i) {
                mark[n.index()] = stamp;
            }
            for n in dag.neighbors(i) {
                for g in dag.neighbors(n) {
                    if mark[g.index()] != stamp {
                        mark[g.index()] = stamp;
                        let gb = g.index() * n_clusters;
                        for (rc, &mc) in row.iter_mut().zip(&marginal[gb..gb + n_clusters]) {
                            *rc += 0.5 * mc;
                        }
                    }
                }
            }
        }
        let reinforce = self.reinforce_preferred.then_some(2.0);
        for (i, row) in dag.ids().zip(skew.chunks_exact(n_clusters)) {
            weights.comm_row(i, row, reinforce);
        }
    }

    fn effect(&self) -> PassEffect {
        // Neighbor-marginal skews: floored at SKEW_FLOOR, bounded by
        // the (finite) neighbor count, so strictly positive and
        // finite. The optional reinforcement doubles one preferred
        // cell per row — on a fully uniform map the argmax tie-break
        // picks a cluster deterministically, which is what makes the
        // reinforced variant a symmetry breaker.
        let mut ops = vec![EffectOp::ScaleClusters {
            factor: Interval::new(SKEW_FLOOR, f64::MAX),
        }];
        if self.reinforce_preferred {
            ops.push(EffectOp::ScaleCells {
                factor: Interval::point(2.0),
            });
        }
        let eff = PassEffect::new(ops);
        if self.reinforce_preferred {
            eff.breaks_symmetry()
        } else {
            eff
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use convergent_ir::{ClusterId, DagBuilder, Opcode};
    use convergent_machine::Machine;

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    #[test]
    fn instruction_follows_its_neighbors() {
        // y's only neighbor x is strongly on cluster 1.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.weights.scale_cluster(x, c(1), 100.0);
        rig.weights.normalize_all();
        rig.run(&Comm::new());
        rig.weights.assert_invariants(1e-9);
        assert_eq!(rig.weights.preferred_cluster(y), c(1));
        assert!(rig.weights.confidence(y) > 2.0);
    }

    #[test]
    fn grand_neighbors_reach_two_hops() {
        // chain x -> m -> y; x pinned to cluster 2. y's one neighbor m
        // is uniform, so only the grand-neighbor x can pull y toward
        // cluster 2 in one COMM run.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let m = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, m).unwrap();
        b.edge(m, y).unwrap();
        let dag = b.build().unwrap();

        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.weights.scale_cluster(x, c(2), 100.0);
        rig.weights.normalize_all();
        let untouched = rig.weights.clone();
        rig.run(&Comm::new().with_reinforcement(false));
        let (after, before) = (
            rig.weights.cluster_weight(y, c(2)),
            untouched.cluster_weight(y, c(2)),
        );
        assert!(
            after > before,
            "the grand-neighbor must pull y toward cluster 2: {after} vs {before}"
        );
    }

    #[test]
    fn reinforcement_sharpens_preferred_slot() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(x, c(1), 3.0);
        rig.weights.normalize_all();
        let before = rig.weights.confidence(x);
        rig.run(&Comm::new());
        // An isolated instruction has no neighbors: only the
        // reinforcement step applies, and it must increase confidence.
        assert!(rig.weights.confidence(x) > before);
    }

    #[test]
    fn symmetric_inputs_stay_symmetric() {
        // Without reinforcement, an unbiased pair stays unbiased.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&Comm::new().with_reinforcement(false));
        rig.weights.assert_invariants(1e-9);
        assert!((rig.weights.confidence(x) - 1.0).abs() < 1e-9);
        assert!((rig.weights.confidence(y) - 1.0).abs() < 1e-9);
    }
}
