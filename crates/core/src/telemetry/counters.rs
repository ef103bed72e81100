//! Hot-path counters: what the scheduler *did*, not how long it took.
//!
//! Two layers:
//!
//! * [`CounterTotals`] — a plain snapshot of every counter the
//!   telemetry layer knows about. Cheap to copy, diff, and merge;
//!   this is what sinks receive (batched once per span, never from
//!   inside a hot loop).
//! * [`MapCounters`] — the live accumulator owned by
//!   [`crate::PreferenceMap`], always on: each mutation bumps one
//!   `u64` through `&mut PreferenceMap`, and the scheduler's output
//!   never depends on the counts. Reads never count. Whether counts
//!   are emitted is the driver's choice (`SinkInterest::counters`).

/// A snapshot of every telemetry counter, batched per span.
///
/// Map-owned counters (weight ops, band events) are filled by
/// [`crate::PreferenceMap`]; harness-owned counters (boundary COMMs,
/// referee verdicts) are filled by the driver and the verification
/// tools. All fields are plain totals, so deltas and sums
/// are field-wise.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterTotals {
    /// `set` ops (includes the `add` read-modify-write path).
    pub set: u64,
    /// Per-cell `scale` ops.
    pub scale: u64,
    /// `scale_cluster` ops.
    pub scale_cluster: u64,
    /// `scale_time` ops.
    pub scale_time: u64,
    /// `set_window` ops.
    pub set_window: u64,
    /// `forbid_cluster` ops.
    pub forbid_cluster: u64,
    /// `normalize` ops (one per instruction per `normalize_all`).
    pub normalize: u64,
    /// `reset_uniform` ops.
    pub reset_uniform: u64,
    /// Bulk row-operation calls (`noise_fill`, `scale_clusters_row`) —
    /// one count per row visit, however many cells the visit touched.
    pub row_batch: u64,
    /// Always 0: the map keeps no argmax cache, so nothing counts
    /// hits. Outside [`CounterTotals::named`] and every exporter; kept
    /// only because the `schedbench` harness still reads it, and
    /// deleted with the next change that may touch `schedbench/`.
    pub argmax_hits: u64,
    /// Always 0, like [`CounterTotals::argmax_hits`], and deleted with
    /// it.
    pub argmax_misses: u64,
    /// Always 0: a band is its row's window and never grows. Outside
    /// [`CounterTotals::named`] and every exporter; kept only because
    /// the `schedbench` harness still reads it.
    pub band_growths: u64,
    /// Untouched rows densified into a band at their window.
    pub band_densifications: u64,
    /// Cross-shard transfers inserted by the stitch fix-up.
    pub boundary_comms: u64,
    /// Cut-governor verdicts: decomposition accepted for sharding.
    pub governor_accepts: u64,
    /// Cut-governor verdicts: degenerate cut, monolithic fallback.
    pub governor_rejects: u64,
    /// `validate()` verdicts: schedule accepted.
    pub validate_ok: u64,
    /// `validate()` verdicts: schedule rejected.
    pub validate_fail: u64,
    /// Oracle cross-checks that agreed with `evaluate()`.
    pub oracle_agree: u64,
    /// Oracle cross-checks that disagreed (or failed to replay).
    pub oracle_disagree: u64,
    /// Contract clauses the abstract interpreter proved for all
    /// inputs.
    pub contracts_proven: u64,
    /// Contract clauses the abstract interpreter could not decide
    /// (Unproven) or statically refuted.
    pub contracts_unproven: u64,
}

impl CounterTotals {
    /// Every counter as `(name, value)`, in a fixed order — the single
    /// source of truth for exporters.
    #[must_use]
    pub fn named(&self) -> [(&'static str, u64); 19] {
        [
            ("set", self.set),
            ("scale", self.scale),
            ("scale_cluster", self.scale_cluster),
            ("scale_time", self.scale_time),
            ("set_window", self.set_window),
            ("forbid_cluster", self.forbid_cluster),
            ("normalize", self.normalize),
            ("reset_uniform", self.reset_uniform),
            ("row_batch", self.row_batch),
            ("band_densifications", self.band_densifications),
            ("boundary_comms", self.boundary_comms),
            ("governor_accepts", self.governor_accepts),
            ("governor_rejects", self.governor_rejects),
            ("validate_ok", self.validate_ok),
            ("validate_fail", self.validate_fail),
            ("oracle_agree", self.oracle_agree),
            ("oracle_disagree", self.oracle_disagree),
            ("contracts_proven", self.contracts_proven),
            ("contracts_unproven", self.contracts_unproven),
        ]
    }

    /// Total weight operations of any kind (bulk row visits count
    /// once).
    #[must_use]
    pub fn weight_ops(&self) -> u64 {
        self.set
            + self.scale
            + self.scale_cluster
            + self.scale_time
            + self.set_window
            + self.forbid_cluster
            + self.normalize
            + self.reset_uniform
            + self.row_batch
    }

    /// `true` when every counter is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.named().iter().all(|&(_, v)| v == 0)
    }

    /// Field-wise `self - base` (saturating) — the per-span delta the
    /// driver emits.
    #[must_use]
    pub fn delta_since(&self, base: &CounterTotals) -> CounterTotals {
        self.zip_with(base, u64::saturating_sub)
    }

    /// Field-wise accumulate.
    pub fn merge(&mut self, other: &CounterTotals) {
        *self = self.zip_with(other, |a, b| a + b);
    }

    /// Renders the counters as a flat JSON object (all fields, fixed
    /// order), plus the derived `weight_ops` total.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (name, v) in self.named() {
            out.push_str(&format!("\"{name}\":{v},"));
        }
        out.push_str(&format!("\"weight_ops\":{}}}", self.weight_ops()));
        out
    }

    /// Applies `f` to each pair of matching fields.
    fn zip_with(&self, other: &CounterTotals, f: impl Fn(u64, u64) -> u64) -> CounterTotals {
        CounterTotals {
            set: f(self.set, other.set),
            scale: f(self.scale, other.scale),
            scale_cluster: f(self.scale_cluster, other.scale_cluster),
            scale_time: f(self.scale_time, other.scale_time),
            set_window: f(self.set_window, other.set_window),
            forbid_cluster: f(self.forbid_cluster, other.forbid_cluster),
            normalize: f(self.normalize, other.normalize),
            reset_uniform: f(self.reset_uniform, other.reset_uniform),
            row_batch: f(self.row_batch, other.row_batch),
            argmax_hits: f(self.argmax_hits, other.argmax_hits),
            argmax_misses: f(self.argmax_misses, other.argmax_misses),
            band_growths: f(self.band_growths, other.band_growths),
            band_densifications: f(self.band_densifications, other.band_densifications),
            boundary_comms: f(self.boundary_comms, other.boundary_comms),
            governor_accepts: f(self.governor_accepts, other.governor_accepts),
            governor_rejects: f(self.governor_rejects, other.governor_rejects),
            validate_ok: f(self.validate_ok, other.validate_ok),
            validate_fail: f(self.validate_fail, other.validate_fail),
            oracle_agree: f(self.oracle_agree, other.oracle_agree),
            oracle_disagree: f(self.oracle_disagree, other.oracle_disagree),
            contracts_proven: f(self.contracts_proven, other.contracts_proven),
            contracts_unproven: f(self.contracts_unproven, other.contracts_unproven),
        }
    }
}

/// The kind of weight operation being counted; see the matching
/// [`CounterTotals`] fields.
#[derive(Clone, Copy, Debug)]
pub(crate) enum OpKind {
    Set,
    Scale,
    ScaleCluster,
    ScaleTime,
    SetWindow,
    ForbidCluster,
    Normalize,
    ResetUniform,
    RowBatch,
}

/// The live counter block owned by [`crate::PreferenceMap`], always
/// on.
#[derive(Clone, Debug, Default)]
pub(crate) struct MapCounters {
    totals: CounterTotals,
}

impl MapCounters {
    /// Counts one weight operation.
    #[inline]
    pub(crate) fn op(&mut self, kind: OpKind) {
        let t = &mut self.totals;
        let field = match kind {
            OpKind::Set => &mut t.set,
            OpKind::Scale => &mut t.scale,
            OpKind::ScaleCluster => &mut t.scale_cluster,
            OpKind::ScaleTime => &mut t.scale_time,
            OpKind::SetWindow => &mut t.set_window,
            OpKind::ForbidCluster => &mut t.forbid_cluster,
            OpKind::Normalize => &mut t.normalize,
            OpKind::ResetUniform => &mut t.reset_uniform,
            OpKind::RowBatch => &mut t.row_batch,
        };
        *field += 1;
    }

    /// Counts one untouched row densified into a band.
    #[inline]
    pub(crate) fn densified(&mut self) {
        self.totals.band_densifications += 1;
    }

    /// Snapshot of the map-owned counters.
    pub(crate) fn totals(&self) -> CounterTotals {
        self.totals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_delta_and_merge_are_fieldwise() {
        let mut a = CounterTotals {
            set: 10,
            row_batch: 4,
            ..CounterTotals::default()
        };
        let b = CounterTotals {
            set: 3,
            row_batch: 1,
            band_densifications: 2,
            ..CounterTotals::default()
        };
        let d = a.delta_since(&b);
        assert_eq!(d.set, 7);
        assert_eq!(d.row_batch, 3);
        assert_eq!(d.band_densifications, 0); // saturating
        a.merge(&b);
        assert_eq!(a.set, 13);
        assert_eq!(a.band_densifications, 2);
        assert!(!a.is_zero());
        assert!(CounterTotals::default().is_zero());
    }

    #[test]
    fn weight_ops_sums_the_op_kinds() {
        let t = CounterTotals {
            set: 2,
            row_batch: 3,
            band_densifications: 7,
            ..CounterTotals::default()
        };
        assert_eq!(t.weight_ops(), 5);
    }

    #[test]
    fn json_lists_every_field() {
        let t = CounterTotals::default();
        let j = t.to_json();
        for (name, _) in t.named() {
            assert!(j.contains(&format!("\"{name}\":")), "{name} missing");
        }
        assert!(j.contains("\"weight_ops\":0"));
    }
}
