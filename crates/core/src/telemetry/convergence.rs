//! Per-pass convergence metrics computed from the preference map.
//!
//! The paper's Figures 7 and 9 plot only decision churn (the fraction
//! of instructions whose preferred cluster changed). These metrics
//! widen that view: how *confident* the map is, how spread out each
//! instruction's cluster preference still is (entropy over the cluster
//! marginals), and how well the preplacement constraints are already
//! honored — all computable in one sweep over the map after a pass,
//! and only when a sink asked for them.

use convergent_ir::{ClusterId, Dag, InstrId};

use crate::PreferenceMap;

/// Confidence ratios are capped here so the metric stays finite (the
/// map reports `f64::INFINITY` once a runner-up's weight underflows).
pub const CONFIDENCE_CAP: f64 = 1e6;

/// The map-derived metrics (confidence, entropy, coverage) are
/// averaged over at most this many rows per measurement, chosen by
/// deterministic stride sampling (exact below the cap). Every one of
/// them is a mean over instructions, so a stride sample estimates it
/// without bias toward any DAG layer; the cap makes the whole
/// per-pass measurement O(cap · C) instead of O(region), and the
/// stride is a pure function of the region size, so measurements stay
/// deterministic.
///
/// Why 32: at 256 every row of a sharder-sized region (≤ 2000
/// instructions) is sampled, and full telemetry cost 1.19–1.21× at
/// 200 instructions even with the O(C) entropy. At 32, paired
/// `compiletime` runs on a 2-vCPU Xeon put its median at 1.05× at 200
/// and 1.00–1.05× at 500–2000 (EXPERIMENTS.md, "Convergence metrics
/// from the cluster marginals").
pub const CONVERGENCE_SAMPLE_CAP: usize = 32;

/// One pass's convergence measurement; see [`measure`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ConvergenceMetrics {
    /// Mean per-instruction confidence (top-cluster weight over
    /// runner-up weight), capped at [`CONFIDENCE_CAP`] so the mean is
    /// always finite and JSON-representable. Averaged over the
    /// deterministic stride sample (see [`CONVERGENCE_SAMPLE_CAP`]).
    pub mean_confidence: f64,
    /// Fraction of instructions whose preferred cluster changed during
    /// the pass — the paper's churn, copied from the driver's scan.
    pub decision_churn: f64,
    /// Mean per-instruction Shannon entropy (nats) of the normalized
    /// cluster marginals `Σ_t W[i, c, t] / Σ W[i]` — the *spatial*
    /// spread the paper's Figures 7 and 9 track. A row uniform over
    /// `k` live clusters scores `ln k` whatever its window width; a
    /// converged row approaches zero. Averaged over the same stride
    /// sample (exact on smaller regions).
    pub cluster_entropy: f64,
    /// Fraction of sampled preplaced instructions whose preferred
    /// cluster already equals their home cluster (`1.0` when the
    /// sample holds nothing preplaced).
    pub preplacement_coverage: f64,
}

impl ConvergenceMetrics {
    /// Renders the metrics as a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.json_members())
    }

    /// The four `"name":value` members, comma-separated and without
    /// braces: the one rendering that [`ConvergenceMetrics::to_json`]
    /// and the Chrome trace's `convergence` track share.
    pub(crate) fn json_members(&self) -> String {
        format!(
            "\"mean_confidence\":{},\"decision_churn\":{},\"cluster_entropy\":{},\"preplacement_coverage\":{}",
            fmt_f64(self.mean_confidence),
            fmt_f64(self.decision_churn),
            fmt_f64(self.cluster_entropy),
            fmt_f64(self.preplacement_coverage),
        )
    }
}

/// JSON has no Infinity/NaN; the metrics are built to stay finite, but
/// guard anyway.
fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Computes the convergence metrics for the map's current state.
/// `decision_churn` is supplied by the caller (the driver already
/// maintains the changed-fraction scan). The map-derived metrics are
/// all means over instructions, so one deterministic stride sample of
/// at most [`CONVERGENCE_SAMPLE_CAP`] rows serves every term, each an
/// O(C) scan of the row's cluster marginals (exact below the cap).
#[must_use]
pub fn measure(dag: &Dag, weights: &PreferenceMap, decision_churn: f64) -> ConvergenceMetrics {
    let stride = dag.len().div_ceil(CONVERGENCE_SAMPLE_CAP).max(1);
    let mut conf_sum = 0.0;
    let mut entropy_sum = 0.0;
    let mut sampled = 0usize;
    let mut preplaced = 0usize;
    let mut covered = 0usize;
    for i in dag.ids().step_by(stride) {
        sampled += 1;
        conf_sum += weights.confidence(i).min(CONFIDENCE_CAP);
        entropy_sum += cluster_entropy(weights, i);
        if let Some(home) = dag.instr(i).preplacement() {
            preplaced += 1;
            if weights.preferred_cluster(i) == home {
                covered += 1;
            }
        }
    }
    let sampled = sampled.max(1) as f64;
    ConvergenceMetrics {
        mean_confidence: conf_sum / sampled,
        decision_churn,
        cluster_entropy: entropy_sum / sampled,
        preplacement_coverage: if preplaced == 0 {
            1.0
        } else {
            covered as f64 / preplaced as f64
        },
    }
}

/// Shannon entropy (nats) of `i`'s normalized cluster marginals; dead
/// clusters (and an all-zero row) contribute nothing.
fn cluster_entropy(weights: &PreferenceMap, i: InstrId) -> f64 {
    let total = weights.total(i);
    let h: f64 = (0..weights.n_clusters())
        .map(|c| weights.cluster_weight(i, ClusterId::new(c as u16)) / total)
        .filter(|&p| p > 0.0)
        .map(|p| -p * p.ln())
        .sum();
    h.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    fn independent(n: usize) -> Dag {
        let mut b = DagBuilder::new();
        for _ in 0..n {
            b.instr(Opcode::IntAlu);
        }
        b.build().unwrap()
    }

    #[test]
    fn uniform_rows_score_ln_clusters_at_any_window_width() {
        let dag = independent(3);
        let mut w = PreferenceMap::new(3, 4, 8);
        // Window widths 8 (the default), 3 and 1.
        w.set_window(InstrId::new(1), 2, 4);
        w.set_window(InstrId::new(2), 5, 5);
        let m = measure(&dag, &w, 0.0);
        assert!((m.mean_confidence - 1.0).abs() < 1e-9, "{m:?}");
        assert!((m.cluster_entropy - 4f64.ln()).abs() < 1e-12, "{m:?}");
        assert_eq!(m.preplacement_coverage, 1.0);
        assert_eq!(m.decision_churn, 0.0);
    }

    #[test]
    fn a_forbidden_cluster_drops_out_of_the_entropy() {
        let dag = independent(1);
        let mut w = PreferenceMap::new(1, 4, 8);
        w.forbid_cluster(InstrId::new(0), c(2));
        let m = measure(&dag, &w, 0.0);
        assert!((m.cluster_entropy - 3f64.ln()).abs() < 1e-12, "{m:?}");
    }

    /// One instruction homed on cluster 1 of 2, its weight on `pull`
    /// scaled by `factor`, measured with churn 0.25.
    fn homed(pull: u16, factor: f64) -> ConvergenceMetrics {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(1));
        let mut w = PreferenceMap::new(1, 2, 2);
        w.scale_cluster(InstrId::new(0), c(pull), factor);
        w.normalize(InstrId::new(0));
        measure(&b.build().unwrap(), &w, 0.25)
    }

    #[test]
    fn converged_row_has_near_zero_entropy_and_high_confidence() {
        let m = homed(1, 1e9);
        assert!(m.mean_confidence > 1e3, "{m:?}");
        assert!(m.mean_confidence <= CONFIDENCE_CAP);
        assert!(m.cluster_entropy < 1e-7, "{m:?}");
        assert_eq!(m.preplacement_coverage, 1.0);
        assert_eq!(m.decision_churn, 0.25);
    }

    #[test]
    fn coverage_counts_misplaced_homes() {
        assert_eq!(homed(0, 100.0).preplacement_coverage, 0.0);
    }

    #[test]
    fn json_is_flat_and_finite() {
        let m = ConvergenceMetrics {
            mean_confidence: 2.5,
            decision_churn: 0.125,
            cluster_entropy: 1.0,
            preplacement_coverage: 1.0,
        };
        let j = m.to_json();
        assert!(j.contains("\"mean_confidence\":2.5"));
        assert!(j.contains("\"decision_churn\":0.125"));
        assert!(j.contains("\"cluster_entropy\":1"));
        assert!(!j.contains("inf"));
    }
}
