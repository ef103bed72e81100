//! Property tests for the preference map: the paper's Section 3
//! invariants must survive arbitrary sequences of the basic
//! operations.

use convergent_scheduling::core::PreferenceMap;
use convergent_scheduling::ir::{ClusterId, InstrId};
use proptest::prelude::*;

#[path = "../crates/core/tests/support/reference_map.rs"]
mod reference_map;

use reference_map::{assert_matches, ReferenceMap};

/// One basic operation on the map.
#[derive(Clone, Debug)]
enum Op {
    Scale {
        i: usize,
        c: usize,
        t: usize,
        f: f64,
    },
    ScaleCluster {
        i: usize,
        c: usize,
        f: f64,
    },
    ScaleTime {
        i: usize,
        t: usize,
        f: f64,
    },
    Add {
        i: usize,
        c: usize,
        t: usize,
        d: f64,
    },
    Normalize {
        i: usize,
    },
    SetMarginal {
        i: usize,
        target: Vec<f64>,
    },
}

fn op_strategy(n_instrs: usize, n_clusters: usize, n_slots: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_instrs, 0..n_clusters, 0..n_slots, 0.0f64..50.0).prop_map(|(i, c, t, f)| Op::Scale {
            i,
            c,
            t,
            f
        }),
        (0..n_instrs, 0..n_clusters, 0.0f64..50.0).prop_map(|(i, c, f)| Op::ScaleCluster {
            i,
            c,
            f
        }),
        (0..n_instrs, 0..n_slots, 0.0f64..50.0).prop_map(|(i, t, f)| Op::ScaleTime { i, t, f }),
        (0..n_instrs, 0..n_clusters, 0..n_slots, -1.0f64..1.0).prop_map(|(i, c, t, d)| Op::Add {
            i,
            c,
            t,
            d
        }),
        (0..n_instrs).prop_map(|i| Op::Normalize { i }),
        (
            0..n_instrs,
            proptest::collection::vec(0.0f64..1.0, n_clusters)
        )
            .prop_map(|(i, target)| Op::SetMarginal { i, target }),
    ]
}

/// Reference implementation with *eager* normalization and fresh
/// marginal scans — the semantics the lazy `PreferenceMap` must match.
/// Deliberately naive: dense tensor, O(C·T) everywhere.
struct EagerMap {
    n_clusters: usize,
    n_slots: usize,
    w: Vec<f64>,
    window: Vec<(u32, u32)>,
    cluster_ok: Vec<bool>,
}

const EPS: f64 = 1e-12;

impl EagerMap {
    fn new(n_instrs: usize, n_clusters: usize, n_slots: usize) -> Self {
        let per = 1.0 / (n_clusters * n_slots) as f64;
        EagerMap {
            n_clusters,
            n_slots,
            w: vec![per; n_instrs * n_clusters * n_slots],
            window: vec![(0, n_slots as u32 - 1); n_instrs],
            cluster_ok: vec![true; n_instrs * n_clusters],
        }
    }

    fn idx(&self, i: usize, c: usize, t: usize) -> usize {
        (i * self.n_clusters + c) * self.n_slots + t
    }

    fn get(&self, i: usize, c: usize, t: usize) -> f64 {
        self.w[self.idx(i, c, t)]
    }

    fn cluster_weight(&self, i: usize, c: usize) -> f64 {
        (0..self.n_slots).map(|t| self.get(i, c, t)).sum()
    }

    fn time_weight(&self, i: usize, t: usize) -> f64 {
        (0..self.n_clusters).map(|c| self.get(i, c, t)).sum()
    }

    fn total(&self, i: usize) -> f64 {
        (0..self.n_clusters)
            .map(|c| self.cluster_weight(i, c))
            .sum()
    }

    fn scale(&mut self, i: usize, c: usize, t: usize, f: f64) {
        let k = self.idx(i, c, t);
        self.w[k] *= f;
    }

    fn scale_cluster(&mut self, i: usize, c: usize, f: f64) {
        for t in 0..self.n_slots {
            self.scale(i, c, t, f);
        }
    }

    fn scale_time(&mut self, i: usize, t: usize, f: f64) {
        for c in 0..self.n_clusters {
            self.scale(i, c, t, f);
        }
    }

    fn add(&mut self, i: usize, c: usize, t: usize, d: f64) {
        let k = self.idx(i, c, t);
        self.w[k] = (self.w[k] + d).max(0.0);
    }

    fn set_window(&mut self, i: usize, lo: u32, hi: u32) {
        let (old_lo, old_hi) = self.window[i];
        let (lo, hi) = (lo.max(old_lo), hi.min(old_hi));
        assert!(lo <= hi);
        self.window[i] = (lo, hi);
        for t in 0..self.n_slots {
            if (t as u32) < lo || (t as u32) > hi {
                for c in 0..self.n_clusters {
                    let k = self.idx(i, c, t);
                    self.w[k] = 0.0;
                }
            }
        }
    }

    fn forbid_cluster(&mut self, i: usize, c: usize) {
        self.cluster_ok[i * self.n_clusters + c] = false;
        self.scale_cluster(i, c, 0.0);
    }

    fn reset_uniform(&mut self, i: usize) {
        let (lo, hi) = self.window[i];
        let feasible: Vec<usize> = (0..self.n_clusters)
            .filter(|&c| self.cluster_ok[i * self.n_clusters + c])
            .collect();
        let clusters = if feasible.is_empty() {
            (0..self.n_clusters).collect()
        } else {
            feasible
        };
        let slots = (hi - lo + 1) as usize;
        let per = 1.0 / (clusters.len() * slots) as f64;
        for c in 0..self.n_clusters {
            for t in 0..self.n_slots {
                let k = self.idx(i, c, t);
                let inside = (t as u32) >= lo && (t as u32) <= hi;
                self.w[k] = if inside && clusters.contains(&c) {
                    per
                } else {
                    0.0
                };
            }
        }
    }

    fn normalize(&mut self, i: usize) {
        let tot = self.total(i);
        if tot > EPS {
            for c in 0..self.n_clusters {
                for t in 0..self.n_slots {
                    let k = self.idx(i, c, t);
                    self.w[k] /= tot;
                }
            }
        } else {
            self.reset_uniform(i);
        }
    }

    fn set_cluster_marginal(&mut self, i: usize, target: &[f64]) {
        let masked: Vec<f64> = (0..self.n_clusters)
            .map(|c| {
                if self.cluster_ok[i * self.n_clusters + c] {
                    target[c].max(0.0)
                } else {
                    0.0
                }
            })
            .collect();
        let sum: f64 = masked.iter().sum();
        if sum <= EPS {
            return;
        }
        let (lo, hi) = self.window[i];
        let slots = (hi - lo + 1) as f64;
        for (c, m) in masked.iter().enumerate() {
            let want = m / sum;
            let cur = self.cluster_weight(i, c);
            if cur > EPS {
                self.scale_cluster(i, c, want / cur);
            } else if want > EPS {
                for t in lo..=hi {
                    let k = self.idx(i, c, t as usize);
                    self.w[k] = want / slots;
                }
            }
        }
        self.normalize(i);
    }
}

/// An operation for the lazy-vs-eager differential test: the full op
/// vocabulary, including windows, forbids, resets, and materialize.
#[derive(Clone, Debug)]
enum DiffOp {
    Scale {
        i: usize,
        c: usize,
        t: usize,
        f: f64,
    },
    ScaleCluster {
        i: usize,
        c: usize,
        f: f64,
    },
    ScaleTime {
        i: usize,
        t: usize,
        f: f64,
    },
    Add {
        i: usize,
        c: usize,
        t: usize,
        d: f64,
    },
    Set {
        i: usize,
        c: usize,
        t: usize,
        v: f64,
    },
    SetWindow {
        i: usize,
        lo: usize,
        len: usize,
    },
    Forbid {
        i: usize,
        c: usize,
    },
    Reset {
        i: usize,
    },
    Materialize {
        i: usize,
    },
    Normalize {
        i: usize,
    },
    NormalizeAll,
    SetMarginal {
        i: usize,
        target: Vec<f64>,
    },
}

/// Whether `op` would write a nonzero value outside its row's current
/// window (`window(i)`), which the map refuses by panicking. The
/// differential harnesses skip such ops, as they skip disjoint window
/// proposals.
fn writes_outside_window(op: &DiffOp, window: impl Fn(usize) -> (u32, u32)) -> bool {
    let (i, t, value) = match *op {
        DiffOp::Set { i, t, v, .. } => (i, t, v),
        // Outside the window the old cell is zero: `add` writes `d⁺`.
        DiffOp::Add { i, t, d, .. } => (i, t, d),
        _ => return false,
    };
    let (lo, hi) = window(i);
    value > 0.0 && !(lo..=hi).contains(&(t as u32))
}

fn diff_op_strategy(
    n_instrs: usize,
    n_clusters: usize,
    n_slots: usize,
) -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (0..n_instrs, 0..n_clusters, 0..n_slots, 0.0f64..50.0)
            .prop_map(|(i, c, t, f)| DiffOp::Scale { i, c, t, f }),
        (0..n_instrs, 0..n_clusters, 0.0f64..50.0).prop_map(|(i, c, f)| DiffOp::ScaleCluster {
            i,
            c,
            f
        }),
        (0..n_instrs, 0..n_slots, 0.0f64..50.0).prop_map(|(i, t, f)| DiffOp::ScaleTime { i, t, f }),
        (0..n_instrs, 0..n_clusters, 0..n_slots, -1.0f64..1.0)
            .prop_map(|(i, c, t, d)| DiffOp::Add { i, c, t, d }),
        (0..n_instrs, 0..n_clusters, 0..n_slots, 0.0f64..2.0)
            .prop_map(|(i, c, t, v)| DiffOp::Set { i, c, t, v }),
        (0..n_instrs, 0..n_slots, 0..n_slots).prop_map(|(i, lo, len)| DiffOp::SetWindow {
            i,
            lo,
            len
        }),
        (0..n_instrs, 0..n_clusters).prop_map(|(i, c)| DiffOp::Forbid { i, c }),
        (0..n_instrs).prop_map(|i| DiffOp::Reset { i }),
        (0..n_instrs).prop_map(|i| DiffOp::Materialize { i }),
        (0..n_instrs).prop_map(|i| DiffOp::Normalize { i }),
        (0..n_instrs).prop_map(|_| DiffOp::NormalizeAll),
        (
            0..n_instrs,
            proptest::collection::vec(0.0f64..1.0, n_clusters)
        )
            .prop_map(|(i, target)| DiffOp::SetMarginal { i, target }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn invariants_survive_arbitrary_operations(
        ops in proptest::collection::vec(op_strategy(4, 3, 5), 1..60)
    ) {
        let mut w = PreferenceMap::new(4, 3, 5);
        for op in ops {
            match op {
                Op::Scale { i, c, t, f } => {
                    w.scale(InstrId::new(i as u32), ClusterId::new(c as u16), t as u32, f);
                }
                Op::ScaleCluster { i, c, f } => {
                    w.scale_cluster(InstrId::new(i as u32), ClusterId::new(c as u16), f);
                }
                Op::ScaleTime { i, t, f } => {
                    w.scale_time(InstrId::new(i as u32), t as u32, f);
                }
                Op::Add { i, c, t, d } => {
                    w.add(InstrId::new(i as u32), ClusterId::new(c as u16), t as u32, d);
                }
                Op::Normalize { i } => w.normalize(InstrId::new(i as u32)),
                Op::SetMarginal { i, target } => {
                    w.set_cluster_marginal(InstrId::new(i as u32), &target);
                }
            }
        }
        // Normalization must always restore the paper's invariants.
        w.normalize_all();
        w.assert_invariants(1e-6);
    }

    #[test]
    fn preferred_cluster_matches_marginal_argmax(
        scales in proptest::collection::vec((0usize..3, 0usize..4, 0.1f64..20.0), 1..20)
    ) {
        let mut w = PreferenceMap::new(3, 4, 3);
        for (i, c, f) in scales {
            w.scale_cluster(InstrId::new(i as u32), ClusterId::new(c as u16), f);
        }
        for i in 0..3u32 {
            let pref = w.preferred_cluster(InstrId::new(i));
            let best = (0..4u16)
                .map(|c| w.cluster_weight(InstrId::new(i), ClusterId::new(c)))
                .fold(f64::MIN, f64::max);
            let got = w.cluster_weight(InstrId::new(i), pref);
            prop_assert!((got - best).abs() < 1e-9, "i{i}: {got} vs {best}");
        }
    }

    #[test]
    fn confidence_is_at_least_one(
        scales in proptest::collection::vec((0usize..2, 0usize..3, 0.1f64..20.0), 0..16)
    ) {
        let mut w = PreferenceMap::new(2, 3, 4);
        for (i, c, f) in scales {
            w.scale_cluster(InstrId::new(i as u32), ClusterId::new(c as u16), f);
        }
        for i in 0..2u32 {
            // Top ÷ runner-up is ≥ 1 by definition.
            prop_assert!(w.confidence(InstrId::new(i)) >= 1.0 - 1e-12);
        }
    }

    #[test]
    fn windows_are_never_resurrected(
        lo in 0u32..3,
        len in 0u32..3,
        ops in proptest::collection::vec((0usize..2, 0.0f64..10.0), 1..12)
    ) {
        let hi = lo + len;
        let mut w = PreferenceMap::new(1, 2, 8);
        let i = InstrId::new(0);
        w.set_window(i, lo, hi);
        for (c, f) in ops {
            w.scale_cluster(i, ClusterId::new(c as u16), f);
            w.normalize(i);
        }
        for t in 0..8u32 {
            if t < lo || t > hi {
                prop_assert_eq!(w.time_weight(i, t), 0.0, "slot {} leaked", t);
            }
        }
    }

    /// The heart of the lazy-normalization rework: under arbitrary op
    /// streams the lazy map must agree with an eagerly-normalized
    /// reference to 1e-9 — values, marginals, totals, windows, and the
    /// *value* of every argmax (argmax indices may differ only
    /// on sub-EPS ties, so they are compared by optimality, not id).
    #[test]
    fn lazy_map_matches_eager_reference(
        ops in proptest::collection::vec(diff_op_strategy(3, 3, 4), 1..80)
    ) {
        const N: usize = 3;
        const C: usize = 3;
        const T: usize = 4;
        let mut lazy = PreferenceMap::new(N, C, T);
        let mut eager = EagerMap::new(N, C, T);
        for op in ops {
            if writes_outside_window(&op, |i| eager.window[i]) {
                continue;
            }
            match op {
                DiffOp::Scale { i, c, t, f } => {
                    lazy.scale(InstrId::new(i as u32), ClusterId::new(c as u16), t as u32, f);
                    eager.scale(i, c, t, f);
                }
                DiffOp::ScaleCluster { i, c, f } => {
                    lazy.scale_cluster(InstrId::new(i as u32), ClusterId::new(c as u16), f);
                    eager.scale_cluster(i, c, f);
                }
                DiffOp::ScaleTime { i, t, f } => {
                    lazy.scale_time(InstrId::new(i as u32), t as u32, f);
                    eager.scale_time(i, t, f);
                }
                DiffOp::Add { i, c, t, d } => {
                    lazy.add(InstrId::new(i as u32), ClusterId::new(c as u16), t as u32, d);
                    eager.add(i, c, t, d);
                }
                DiffOp::Set { i, c, t, v } => {
                    lazy.set(InstrId::new(i as u32), ClusterId::new(c as u16), t as u32, v);
                    let k = eager.idx(i, c, t);
                    eager.w[k] = v;
                }
                DiffOp::SetWindow { i, lo, len } => {
                    let lo = lo as u32;
                    let hi = (lo + len as u32).min(T as u32 - 1);
                    // Skip proposals disjoint from the current window
                    // (both implementations would panic).
                    let (cur_lo, cur_hi) = eager.window[i];
                    if lo.max(cur_lo) <= hi.min(cur_hi) {
                        lazy.set_window(InstrId::new(i as u32), lo, hi);
                        eager.set_window(i, lo, hi);
                    }
                }
                DiffOp::Forbid { i, c } => {
                    lazy.forbid_cluster(InstrId::new(i as u32), ClusterId::new(c as u16));
                    eager.forbid_cluster(i, c);
                }
                DiffOp::Reset { i } => {
                    lazy.reset_uniform(InstrId::new(i as u32));
                    eager.reset_uniform(i);
                }
                DiffOp::Materialize { i } => {
                    // Eager has nothing pending: materialize is a pure
                    // no-op on the visible values.
                    lazy.materialize(InstrId::new(i as u32));
                }
                DiffOp::Normalize { i } => {
                    lazy.normalize(InstrId::new(i as u32));
                    eager.normalize(i);
                }
                DiffOp::NormalizeAll => {
                    lazy.normalize_all();
                    for i in 0..N {
                        eager.normalize(i);
                    }
                }
                DiffOp::SetMarginal { i, ref target } => {
                    lazy.set_cluster_marginal(InstrId::new(i as u32), target);
                    eager.set_cluster_marginal(i, target);
                }
            }
            // Full comparison after every op (the maps are tiny).
            for i in 0..N {
                let id = InstrId::new(i as u32);
                for c in 0..C {
                    let cid = ClusterId::new(c as u16);
                    for t in 0..T {
                        let a = lazy.get(id, cid, t as u32);
                        let b = eager.get(i, c, t);
                        prop_assert!((a - b).abs() < 1e-9,
                            "W[{i},{c},{t}]: lazy {a} vs eager {b} after {op:?}");
                    }
                    let (a, b) = (lazy.cluster_weight(id, cid), eager.cluster_weight(i, c));
                    prop_assert!((a - b).abs() < 1e-9,
                        "cluster[{i},{c}]: lazy {a} vs eager {b} after {op:?}");
                }
                for t in 0..T {
                    let (a, b) = (lazy.time_weight(id, t as u32), eager.time_weight(i, t));
                    prop_assert!((a - b).abs() < 1e-9,
                        "time[{i},{t}]: lazy {a} vs eager {b} after {op:?}");
                }
                let (a, b) = (lazy.total(id), eager.total(i));
                prop_assert!((a - b).abs() < 1e-9, "total[{i}]: {a} vs {b} after {op:?}");
                prop_assert_eq!(lazy.window(id), eager.window[i]);
                // The argmaxes must be value-optimal against the
                // eager marginals.
                let pref = lazy.cluster_weight(id, lazy.preferred_cluster(id));
                let best = (0..C).map(|c| eager.cluster_weight(i, c)).fold(f64::MIN, f64::max);
                prop_assert!((pref - best).abs() < 1e-9,
                    "preferred_cluster[{i}]: {pref} vs {best} after {op:?}");
                let tpref = lazy.time_weight(id, lazy.preferred_time(id).get());
                let tbest = (0..T).map(|t| eager.time_weight(i, t)).fold(f64::MIN, f64::max);
                prop_assert!((tpref - tbest).abs() < 1e-9,
                    "preferred_time[{i}]: {tpref} vs {tbest} after {op:?}");
            }
        }
    }

    /// The heart of the banded rework: the banded map must agree with
    /// the dense reference model **bit for bit** — weights, marginals,
    /// totals, windows, and every derived argmax quantity — under
    /// arbitrary op streams, including window shrinks (band
    /// compaction) and zero writes outside the window. Exact equality,
    /// not a tolerance:
    /// identical op sequences must produce identical schedules.
    #[test]
    fn banded_map_matches_dense_reference_exactly(
        ops in proptest::collection::vec(diff_op_strategy(3, 3, 8), 1..80)
    ) {
        check_against_reference(3, 3, 8, &ops);
    }
}

/// Applies each op to a recording banded map, replays the primitives
/// it logged onto the dense reference (`materialize` is not a logged
/// op, so it is mirrored directly), and compares the two bit for bit
/// after every op.
fn check_against_reference(n_instrs: usize, n_clusters: usize, n_slots: usize, ops: &[DiffOp]) {
    let mut banded = PreferenceMap::new(n_instrs, n_clusters, n_slots);
    let mut reference = ReferenceMap::new(n_instrs, n_clusters, n_slots);
    banded.record();
    for op in ops {
        let id = |i: usize| InstrId::new(i as u32);
        let cid = |c: usize| ClusterId::new(c as u16);
        if writes_outside_window(op, |i| banded.window(id(i))) {
            continue;
        }
        match *op {
            DiffOp::Scale { i, c, t, f } => banded.scale(id(i), cid(c), t as u32, f),
            DiffOp::ScaleCluster { i, c, f } => banded.scale_cluster(id(i), cid(c), f),
            DiffOp::ScaleTime { i, t, f } => banded.scale_time(id(i), t as u32, f),
            DiffOp::Add { i, c, t, d } => banded.add(id(i), cid(c), t as u32, d),
            DiffOp::Set { i, c, t, v } => banded.set(id(i), cid(c), t as u32, v),
            DiffOp::SetWindow { i, lo, len } => {
                let lo = lo as u32;
                let hi = (lo + len as u32).min(n_slots as u32 - 1);
                // Skip proposals disjoint from the current window
                // (both maps would panic).
                let (cur_lo, cur_hi) = banded.window(id(i));
                if lo.max(cur_lo) <= hi.min(cur_hi) {
                    banded.set_window(id(i), lo, hi);
                }
            }
            DiffOp::Forbid { i, c } => banded.forbid_cluster(id(i), cid(c)),
            DiffOp::Reset { i } => banded.reset_uniform(id(i)),
            DiffOp::Materialize { i } => {
                banded.materialize(id(i));
                reference.materialize(id(i));
            }
            DiffOp::Normalize { i } => banded.normalize(id(i)),
            DiffOp::NormalizeAll => banded.normalize_all(),
            DiffOp::SetMarginal { i, ref target } => banded.set_cluster_marginal(id(i), target),
        }
        let log = banded.take_recording();
        banded.record();
        reference.replay(&log);
        assert_matches(&format!("after {op:?}"), &banded, &reference);
        // The window must always cover every nonzero slot.
        for i in 0..n_instrs {
            let (lo, hi) = banded.window(id(i));
            for slot in 0..n_slots as u32 {
                if banded.time_weight(id(i), slot) != 0.0 {
                    assert!(
                        lo <= slot && slot <= hi,
                        "window [{lo},{hi}] misses live slot {slot} of i{i} after {op:?}"
                    );
                }
            }
        }
    }
}

/// A fixed sequence touching every op kind: a window shrink of a
/// densified band, a marginal reshape, a fold of every pending scale,
/// and a squash to zero that takes the `reset_uniform` path.
#[test]
fn banded_map_matches_dense_reference_on_a_fixed_sequence() {
    use DiffOp::*;
    let ops = [
        SetWindow {
            i: 0,
            lo: 2,
            len: 5,
        },
        ScaleCluster { i: 0, c: 1, f: 3.5 },
        NormalizeAll,
        ScaleTime {
            i: 0,
            t: 4,
            f: 0.25,
        },
        Forbid { i: 1, c: 0 },
        SetWindow {
            i: 0,
            lo: 3,
            len: 2,
        },
        Add {
            i: 2,
            c: 1,
            t: 11,
            d: 0.4,
        },
        SetMarginal {
            i: 2,
            target: vec![0.1, 0.2, 0.7],
        },
        Scale {
            i: 1,
            c: 2,
            t: 0,
            f: 9.0,
        },
        NormalizeAll,
        Materialize { i: 0 },
        Materialize { i: 1 },
        Materialize { i: 2 },
        ScaleCluster { i: 0, c: 1, f: 0.0 },
        ScaleCluster { i: 0, c: 0, f: 0.0 },
        ScaleCluster { i: 0, c: 2, f: 0.0 },
        NormalizeAll,
    ];
    check_against_reference(3, 3, 12, &ops);
}
