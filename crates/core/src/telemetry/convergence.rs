//! Per-pass convergence metrics computed from the preference map.
//!
//! The paper's Figures 7 and 9 plot only decision churn (the fraction
//! of instructions whose preferred cluster changed). These metrics
//! widen that view: how *confident* the map is, how much probability
//! mass is still spread out (entropy), and how well the preplacement
//! constraints are already honored — all computable in one sweep over
//! the map after a pass, and only when a sink asked for them.

use convergent_ir::Dag;

use crate::PreferenceMap;

/// Confidence ratios are capped here so the metric stays finite (the
/// map reports `f64::INFINITY` once a runner-up's weight underflows).
pub const CONFIDENCE_CAP: f64 = 1e6;

/// The map-derived metrics (confidence, entropy, coverage) are
/// averaged over at most this many rows per measurement, chosen by
/// deterministic stride sampling (exact below the cap). Every one of
/// them is a mean over instructions, so a stride sample estimates it
/// without bias toward any DAG layer; the cap makes the whole
/// per-pass measurement O(cap) instead of O(region), which is what
/// holds enabled telemetry to a few percent of a pass's own work on
/// large regions. The stride is a pure function of the region size,
/// so measurements stay deterministic.
pub const CONVERGENCE_SAMPLE_CAP: usize = 256;

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
    /// `W[i, ·, ·]` distribution over the instruction's stored band.
    /// Uniform rows score high; converged rows approach zero. Averaged
    /// over the same stride sample (exact on smaller regions).
    pub preference_entropy: f64,
    /// Fraction of sampled preplaced instructions whose preferred
    /// cluster already equals their home cluster (`1.0` when the
    /// sample holds nothing preplaced).
    pub preplacement_coverage: f64,
}

impl ConvergenceMetrics {
    /// Renders the metrics as a flat JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        format!(
            "{{\"mean_confidence\":{},\"decision_churn\":{},\"preference_entropy\":{},\"preplacement_coverage\":{}}}",
            fmt_f64(self.mean_confidence),
            fmt_f64(self.decision_churn),
            fmt_f64(self.preference_entropy),
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
/// at most [`CONVERGENCE_SAMPLE_CAP`] rows serves every term —
/// confidence and coverage via O(C) cluster-marginal scans, entropy
/// via the bulk [`PreferenceMap::row_entropy`] kernel — keeping the
/// measurement O(cap) rows on any region size (exact below the cap).
#[must_use]
pub fn measure(dag: &Dag, weights: &PreferenceMap, decision_churn: f64) -> ConvergenceMetrics {
    let stride = dag.len().div_ceil(CONVERGENCE_SAMPLE_CAP).max(1);
    let mut conf_sum = 0.0;
    let mut entropy_sum = 0.0;
    let mut sampled = 0usize;
    let mut preplaced = 0usize;
    let mut covered = 0usize;
    for i in dag.ids() {
        if i.index() % stride != 0 {
            continue;
        }
        sampled += 1;
        conf_sum += weights.confidence(i).min(CONFIDENCE_CAP);
        entropy_sum += weights.row_entropy(i);
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
        preference_entropy: entropy_sum / sampled,
        preplacement_coverage: if preplaced == 0 {
            1.0
        } else {
            covered as f64 / preplaced as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{ClusterId, DagBuilder, InstrId, Opcode};

    #[test]
    fn uniform_map_has_high_entropy_and_unit_confidence() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let w = PreferenceMap::new(2, 4, 8);
        let m = measure(&dag, &w, 0.0);
        assert!((m.mean_confidence - 1.0).abs() < 1e-9, "{m:?}");
        // Uniform over 32 cells: entropy = ln 32.
        assert!(
            (m.preference_entropy - (32.0f64).ln()).abs() < 1e-9,
            "{m:?}"
        );
        assert_eq!(m.preplacement_coverage, 1.0);
        assert_eq!(m.decision_churn, 0.0);
    }

    #[test]
    fn converged_row_has_low_entropy_and_high_confidence() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, ClusterId::new(1));
        let dag = b.build().unwrap();
        let mut w = PreferenceMap::new(1, 2, 2);
        let i = InstrId::new(0);
        w.scale_cluster(i, ClusterId::new(1), 1e9);
        w.normalize(i);
        let m = measure(&dag, &w, 0.25);
        assert!(m.mean_confidence > 1e3, "{m:?}");
        assert!(m.mean_confidence <= CONFIDENCE_CAP);
        assert!(m.preference_entropy < (4.0f64).ln(), "{m:?}");
        assert_eq!(m.preplacement_coverage, 1.0);
        assert_eq!(m.decision_churn, 0.25);
    }

    #[test]
    fn coverage_counts_misplaced_homes() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, ClusterId::new(1));
        let dag = b.build().unwrap();
        let mut w = PreferenceMap::new(1, 2, 2);
        let i = InstrId::new(0);
        // Pull the preference away from the home cluster.
        w.scale_cluster(i, ClusterId::new(0), 100.0);
        w.normalize(i);
        let m = measure(&dag, &w, 0.0);
        assert_eq!(m.preplacement_coverage, 0.0);
    }

    #[test]
    fn json_is_flat_and_finite() {
        let m = ConvergenceMetrics {
            mean_confidence: 2.5,
            decision_churn: 0.125,
            preference_entropy: 1.0,
            preplacement_coverage: 1.0,
        };
        let j = m.to_json();
        assert!(j.contains("\"mean_confidence\":2.5"));
        assert!(j.contains("\"decision_churn\":0.125"));
        assert!(!j.contains("inf"));
    }
}
