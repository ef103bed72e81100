//! The reference PATHPROP pass: the live-confidence formulation the
//! production pass replaced, kept as a differential model.
//!
//! Every walk step recomputes each candidate's confidence from the map
//! and takes each marginal into a fresh `Vec`; the production pass
//! reads one confidence table per run and refreshes only the row a
//! blend rewrites. Under the same pre-state map both must leave every
//! cell bit for bit where the other does, with the same `WeightOp` log.
//!
//! Include it with `#[path = ".../support/reference_pathprop.rs"] mod
//! reference_pathprop;`.

use convergent_core::PassContext;
use convergent_ir::{ClusterId, InstrId};

/// Confidence above which an instruction is a walk source.
const THRESHOLD: f64 = 4.0;

/// Confidence below which an instruction may be overwritten by a walk.
const TARGET_THRESHOLD: f64 = 1.3;

/// The blend weight the walked instruction keeps.
const BLEND: f64 = 0.5;

#[derive(Clone, Copy)]
enum Direction {
    Down,
    Up,
}

/// PATHPROP with every confidence read live from the map.
pub fn run(ctx: &mut PassContext<'_>) {
    let mut sources: Vec<(InstrId, f64)> = ctx
        .dag
        .ids()
        .map(|i| (i, ctx.weights.confidence(i)))
        .filter(|&(_, conf)| conf > THRESHOLD)
        .collect();
    sources.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("confidences comparable"));
    for (ih, conf_h) in sources {
        let src_marginal = marginal(ctx, ih);
        walk(ctx, ih, conf_h, &src_marginal, Direction::Down);
        walk(ctx, ih, conf_h, &src_marginal, Direction::Up);
    }
}

fn marginal(ctx: &PassContext<'_>, i: InstrId) -> Vec<f64> {
    let tot = ctx.weights.total(i).max(f64::MIN_POSITIVE);
    (0..ctx.weights.n_clusters())
        .map(|c| ctx.weights.cluster_weight(i, ClusterId::new(c as u16)) / tot)
        .collect()
}

fn walk(ctx: &mut PassContext<'_>, ih: InstrId, conf_h: f64, src: &[f64], dir: Direction) {
    let mut cur = ih;
    loop {
        let next = {
            let step: &[InstrId] = match dir {
                Direction::Down => ctx.dag.succs(cur),
                Direction::Up => ctx.dag.preds(cur),
            };
            step.iter()
                .copied()
                .map(|s| (s, ctx.weights.confidence(s)))
                .filter(|&(_, conf)| conf < conf_h && conf < TARGET_THRESHOLD)
                .min_by(|a, b| a.1.partial_cmp(&b.1).expect("comparable"))
                .map(|(s, _)| s)
        };
        let Some(s) = next else { break };
        let cur_marginal = marginal(ctx, s);
        let target: Vec<f64> = cur_marginal
            .iter()
            .zip(src)
            .map(|(own, from)| BLEND * own + (1.0 - BLEND) * from)
            .collect();
        ctx.weights.set_cluster_marginal(s, &target);
        cur = s;
    }
}
