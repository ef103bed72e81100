//! NOISE — noise introduction.
//!
//! "This pass introduces a small amount of noise in the weight
//! distribution. The noise helps break symmetry and spreads
//! instructions around to facilitate scheduling for parallelism."
//!
//! The paper's formula adds `rand()/RAND_MAX` (a uniform value in the
//! unit interval) to every slot, which, with weights normalized to sum
//! to one, makes the noise the *dominant* component of the map until
//! later passes multiply their preferences in. That dominance is the
//! point: with an instruction's feasible window holding `k` cells, its
//! post-NOISE cluster marginals carry roughly `1/sqrt(12k)` relative
//! jitter, enough to overcome mild deterministic biases like FIRST's
//! 1.2 factor for a healthy fraction of instructions, which is how
//! work spreads off the first cluster. We reproduce the formula with
//! one refinement: noise is only added inside each instruction's
//! feasible window and clusters, so INITTIME's correctness squash
//! survives (documented in DESIGN.md).
//!
//! # Per-row draws
//!
//! RNG consumption is order-sensitive: the stream must be drawn in the
//! historical `(i ascending, feasible c ascending, t in lo..=hi)`
//! order or every schedule seeded before this refactor would change.
//! [`Pass::run`] therefore walks instructions in ascending order and,
//! per row, draws that row's `feasible_clusters × window_width` values
//! into one reusable row buffer
//! ([`PassScratch::a`](crate::PassScratch::a)) before handing it to
//! the bit-exact
//! [`PreferenceMap::noise_fill`](crate::PreferenceMap::noise_fill).
//! Working memory is one row: drawing the whole map's stream first
//! would need a buffer as large as the bands.

use convergent_analysis::{Determinism, EffectOp, Interval, PassEffect};
use convergent_ir::ClusterId;

use crate::{Pass, PassContext};

/// The paper's amplitude: the upper bound of the per-cell uniform
/// addition.
const AMPLITUDE: f64 = 1.0;

/// The NOISE pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct Noise;

impl Noise {
    /// Creates the pass with the paper's amplitude: uniform noise in
    /// `[0, 1]` per feasible cell (weights are normalized, so this
    /// dominates until later passes assert their preferences).
    #[must_use]
    pub fn new() -> Self {
        Noise
    }
}

impl Pass for Noise {
    fn name(&self) -> &'static str {
        "NOISE"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let draws = &mut ctx.scratch.a;
        for i in ctx.dag.ids() {
            let (lo, hi) = ctx.weights.window(i);
            let feasible = (0..ctx.weights.n_clusters())
                .filter(|&c| ctx.weights.cluster_feasible(i, ClusterId::new(c as u16)))
                .count();
            let cells = feasible * (hi - lo + 1) as usize;
            draws.clear();
            // Exact growth: the buffer lives for the whole pass, so it
            // stays at the widest row rather than up to twice that.
            draws.reserve_exact(cells);
            draws.extend((0..cells).map(|_| ctx.rng.next_f64()));
            ctx.weights.noise_fill(i, AMPLITUDE, draws);
        }
    }

    fn effect(&self) -> PassEffect {
        // Each feasible in-window cell gets `cur + amplitude·U(0,1)`:
        // an additive, support-preserving write bounded by a
        // normalized cell (≤ 1) plus the amplitude.
        PassEffect::new(vec![EffectOp::Absolute {
            in_window: true,
            value: Interval::new(0.0, 1.0 + AMPLITUDE),
            randomized: true,
            preserves_support: true,
        }])
        .with_determinism(Determinism::SeededRng)
        .reads_windows()
        .breaks_symmetry()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use crate::passes::InitTime;
    use convergent_ir::{DagBuilder, InstrId, Opcode};
    use convergent_machine::Machine;

    fn flat_dag(n: usize) -> convergent_ir::Dag {
        let mut b = DagBuilder::new();
        for _ in 0..n {
            b.instr(Opcode::IntAlu);
        }
        b.build().unwrap()
    }

    #[test]
    fn noise_breaks_cluster_symmetry() {
        let mut rig = Rig::new(flat_dag(8), Machine::raw(4));
        rig.run(&Noise::new());
        rig.weights.assert_invariants(1e-9);
        // At least one instruction must now prefer a non-zero cluster
        // (with all-uniform weights, ties all break to cluster 0).
        let prefs: Vec<ClusterId> = rig
            .dag
            .ids()
            .map(|i| rig.weights.preferred_cluster(i))
            .collect();
        assert!(prefs.iter().any(|&c| c != ClusterId::new(0)), "{prefs:?}");
    }

    #[test]
    fn noise_respects_feasibility() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&InitTime::new());
        rig.run(&Noise::new());
        rig.weights.assert_invariants(1e-9);
        // y's window is [1,1]; noise must not leak into slot 0.
        assert_eq!(rig.weights.time_weight(InstrId::new(1), 0), 0.0);
    }

    #[test]
    fn deterministic_under_same_seed() {
        let mut a = Rig::new(flat_dag(6), Machine::raw(4));
        let mut b = Rig::new(flat_dag(6), Machine::raw(4));
        a.run(&Noise::new());
        b.run(&Noise::new());
        for i in a.dag.ids() {
            assert_eq!(
                a.weights.preferred_cluster(i),
                b.weights.preferred_cluster(i)
            );
        }
    }
}
