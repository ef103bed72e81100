//! PATHPROP — path propagation.
//!
//! "This pass selects high confidence instructions and propagates
//! their convergent matrices along a path." Starting from each
//! confident instruction `ih`, the pass walks downward through
//! successors whose confidence is below `ih`'s, blending `ih`'s
//! preferences into each (`W_i ← 0.5·W_i + 0.5·W_ih`), then does the
//! same walking upward through predecessors.
//!
//! Following Section 3's note that the full three-dimensional linear
//! combination is too expensive and is only ever applied "on part of
//! the matrices, e.g., only along the space dimension", the blend here
//! combines *cluster marginals* and reshapes the target instruction's
//! map to match, preserving its own (feasibility-constrained) time
//! profile — blending raw time rows would leak weight outside the
//! walked instruction's INITTIME window.

use convergent_analysis::{EffectOp, Interval, PassEffect};
use convergent_ir::{ClusterId, InstrId};

use crate::{Pass, PassContext, PreferenceMap};

/// Confidence above which an instruction is a walk source ("the
/// confidence threshold t is an input parameter").
///
/// It sits above the ×3 confidence a bare PATH boost produces, so path
/// propagation spreads *externally grounded* decisions (preplacement
/// via PLACE/PLACEPROP, accumulated multi-pass agreement) rather than
/// blanketing the graph with a single heuristic's guess — on
/// preplacement-free graphs that blanketing would collapse everything
/// onto one cluster before LEVEL ever gets to distribute parallelism.
const THRESHOLD: f64 = 4.0;

/// Confidence below which an instruction counts as *undecided* and may
/// be overwritten by a walk. The paper's only gate is `confidence(i) <
/// confidence(ih)`, but that lets a feedback-amplified majority
/// steamroll every mild decision made by other heuristics (exactly the
/// irreversibility the framework exists to avoid); propagating only
/// into near-uniform targets keeps the pass to its stated job of
/// guiding the undecided.
const TARGET_THRESHOLD: f64 = 1.3;

/// The blend weight the walked instruction keeps (paper: 0.5).
const BLEND: f64 = 0.5;

/// The PATHPROP pass. See the module docs.
#[derive(Clone, Copy, Debug, Default)]
pub struct PathProp;

impl PathProp {
    /// Creates the pass with confidence threshold 4.0 and the paper's
    /// 50/50 blend.
    #[must_use]
    pub fn new() -> Self {
        PathProp
    }
}

impl Pass for PathProp {
    fn name(&self) -> &'static str {
        "PATHPROP"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let PassContext {
            dag,
            weights,
            scratch,
            ..
        } = ctx;
        // One confidence table for the run: a walk rewrites only the
        // row it steps onto, so refreshing that entry keeps it exact.
        let conf = &mut scratch.a;
        conf.clear();
        conf.extend(dag.ids().map(|i| weights.confidence(i)));
        let mut sources: Vec<(InstrId, f64)> = dag
            .ids()
            .map(|i| (i, conf[i.index()]))
            .filter(|&(_, c)| c > THRESHOLD)
            .collect();
        // Most confident first; walk each source down through
        // successors, then up through predecessors.
        sources.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("confidences comparable"));
        let n_clusters = weights.n_clusters();
        scratch.b.resize(2 * n_clusters, 0.0);
        let (src, target) = scratch.b.split_at_mut(n_clusters);
        for (ih, conf_h) in sources {
            marginal_into(weights, ih, src, |_, own| own);
            for down in [true, false] {
                let mut cur = ih;
                loop {
                    let step = if down { dag.succs(cur) } else { dag.preds(cur) };
                    // "find i | i ∈ successor(ih), confidence(i) <
                    // confidence(ih)" — we take the least confident,
                    // the one most in need of guidance.
                    let next = step
                        .iter()
                        .map(|&s| (s, conf[s.index()]))
                        .filter(|&(_, c)| c < conf_h && c < TARGET_THRESHOLD)
                        .min_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))
                        .map(|(s, _)| s);
                    let Some(s) = next else { break };
                    marginal_into(weights, s, target, |c, own| {
                        BLEND * own + (1.0 - BLEND) * src[c]
                    });
                    weights.set_cluster_marginal(s, target);
                    conf[s.index()] = weights.confidence(s);
                    cur = s;
                }
            }
        }
    }

    fn effect(&self) -> PassEffect {
        // `set_cluster_marginal` reshapes a walked row to a blend of
        // two normalized marginals — an in-window absolute write of a
        // value in [0, 1] that keeps `BLEND`·own > 0 of it, so a
        // positive cell stays positive.
        PassEffect::new(vec![EffectOp::Absolute {
            in_window: true,
            value: Interval::unit(),
            randomized: false,
            preserves_support: true,
        }])
        .reads_windows()
    }
}

/// Fills `out[c]` with `f(c, m_c)` for `i`'s normalized cluster
/// marginal `m`.
fn marginal_into(
    weights: &PreferenceMap,
    i: InstrId,
    out: &mut [f64],
    f: impl Fn(usize, f64) -> f64,
) {
    let tot = weights.total(i).max(f64::MIN_POSITIVE);
    for (c, o) in out.iter_mut().enumerate() {
        *o = f(c, weights.cluster_weight(i, ClusterId::new(c as u16)) / tot);
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
    fn confidence_flows_down_a_chain() {
        let mut b = DagBuilder::new();
        let head = b.instr(Opcode::IntAlu);
        let mid = b.instr(Opcode::IntAlu);
        let tail = b.instr(Opcode::IntAlu);
        b.edge(head, mid).unwrap();
        b.edge(mid, tail).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(head, c(1), 10.0);
        rig.weights.normalize_all();
        rig.run(&PathProp::new());
        rig.weights.assert_invariants(1e-9);
        // Both downstream instructions inherit the cluster-1 lean.
        assert_eq!(rig.weights.preferred_cluster(mid), c(1));
        assert_eq!(rig.weights.preferred_cluster(tail), c(1));
        assert!(rig.weights.confidence(mid) > 1.5);
    }

    #[test]
    fn confidence_flows_up_too() {
        let mut b = DagBuilder::new();
        let top = b.instr(Opcode::IntAlu);
        let bottom = b.instr(Opcode::IntAlu);
        b.edge(top, bottom).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(bottom, c(1), 10.0);
        rig.weights.normalize_all();
        rig.run(&PathProp::new());
        assert_eq!(rig.weights.preferred_cluster(top), c(1));
    }

    #[test]
    fn equally_confident_instructions_block_the_walk() {
        // Two independently pinned instructions: neither overwrites
        // the other (the walk only visits lower-confidence nodes).
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.weights.scale_cluster(x, c(0), 10.0);
        rig.weights.scale_cluster(y, c(1), 10.0);
        rig.weights.normalize_all();
        rig.run(&PathProp::new());
        assert_eq!(rig.weights.preferred_cluster(x), c(0));
        assert_eq!(rig.weights.preferred_cluster(y), c(1));
    }

    #[test]
    fn no_confident_sources_is_identity() {
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&PathProp::new());
        assert!((rig.weights.confidence(x) - 1.0).abs() < 1e-9);
        assert!((rig.weights.confidence(y) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn blend_preserves_time_window() {
        // The walked instruction's INITTIME window must survive.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        b.edge(x, y).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&crate::passes::InitTime::new());
        rig.weights.scale_cluster(x, c(1), 10.0);
        rig.weights.normalize_all();
        rig.run(&PathProp::new());
        rig.weights.assert_invariants(1e-9);
        // y's window is [1,1]; no weight may appear at t=0.
        assert_eq!(rig.weights.time_weight(y, 0), 0.0);
        assert_eq!(rig.weights.preferred_cluster(y), c(1));
    }
}
