//! Property tests for the recording `PreferenceMap` proxy.
//!
//! Two guarantees make contract checking trustworthy:
//!
//! 1. **Transparency** — turning recording on must not change a
//!    single bit of the map's behaviour.
//! 2. **Fidelity** — replaying the captured [`WeightOp`] log onto a
//!    fresh map must reproduce the recorded map bit for bit, so the
//!    log is a complete account of what a pass did.
//!
//! These also run under `cargo miri test` (the `--miri` path of
//! `scripts/check.sh`) to catch undefined behaviour in the
//! logging hot path.

use convergent_core::{PreferenceMap, WeightOp};
use convergent_ir::{ClusterId, InstrId};
use proptest::prelude::*;

const N: usize = 3;
const C: usize = 3;
const T: usize = 5;

/// The public mutator vocabulary, compounds included: `Add` and
/// `SetMarginal` have no `WeightOp` of their own and must decompose
/// into recorded primitives.
#[derive(Clone, Debug)]
enum Op {
    Set {
        i: usize,
        c: usize,
        t: usize,
        v: f64,
    },
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
    Normalize {
        i: usize,
    },
    NormalizeAll,
    SetMarginal {
        i: usize,
        target: Vec<f64>,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..C, 0..T, 0.0f64..2.0).prop_map(|(i, c, t, v)| Op::Set { i, c, t, v }),
        (0..N, 0..C, 0..T, 0.0f64..50.0).prop_map(|(i, c, t, f)| Op::Scale { i, c, t, f }),
        (0..N, 0..C, 0.0f64..50.0).prop_map(|(i, c, f)| Op::ScaleCluster { i, c, f }),
        (0..N, 0..T, 0.0f64..50.0).prop_map(|(i, t, f)| Op::ScaleTime { i, t, f }),
        (0..N, 0..C, 0..T, -1.0f64..1.0).prop_map(|(i, c, t, d)| Op::Add { i, c, t, d }),
        (0..N, 0..T, 0..T).prop_map(|(i, lo, len)| Op::SetWindow { i, lo, len }),
        (0..N, 0..C).prop_map(|(i, c)| Op::Forbid { i, c }),
        (0..N).prop_map(|i| Op::Reset { i }),
        (0..N).prop_map(|i| Op::Normalize { i }),
        (0..N).prop_map(|_| Op::NormalizeAll),
        (0..N, proptest::collection::vec(0.0f64..1.0, C))
            .prop_map(|(i, target)| Op::SetMarginal { i, target }),
    ]
}

/// Applies `op`, skipping window proposals disjoint from the current
/// window and nonzero writes outside it (both panic by design).
fn apply(w: &mut PreferenceMap, op: &Op) {
    if let Op::Set { i, t, v: x, .. } | Op::Add { i, t, d: x, .. } = *op {
        // Outside the window the old cell is zero: `add` writes `d⁺`.
        let (lo, hi) = w.window(InstrId::new(i as u32));
        if x > 0.0 && !(lo..=hi).contains(&(t as u32)) {
            return;
        }
    }
    match *op {
        Op::Set { i, c, t, v } => w.set(
            InstrId::new(i as u32),
            ClusterId::new(c as u16),
            t as u32,
            v,
        ),
        Op::Scale { i, c, t, f } => {
            w.scale(
                InstrId::new(i as u32),
                ClusterId::new(c as u16),
                t as u32,
                f,
            );
        }
        Op::ScaleCluster { i, c, f } => {
            w.scale_cluster(InstrId::new(i as u32), ClusterId::new(c as u16), f);
        }
        Op::ScaleTime { i, t, f } => w.scale_time(InstrId::new(i as u32), t as u32, f),
        Op::Add { i, c, t, d } => {
            w.add(
                InstrId::new(i as u32),
                ClusterId::new(c as u16),
                t as u32,
                d,
            );
        }
        Op::SetWindow { i, lo, len } => {
            let lo = lo as u32;
            let hi = (lo + len as u32).min(T as u32 - 1);
            let (cur_lo, cur_hi) = w.window(InstrId::new(i as u32));
            if lo.max(cur_lo) <= hi.min(cur_hi) {
                w.set_window(InstrId::new(i as u32), lo, hi);
            }
        }
        Op::Forbid { i, c } => w.forbid_cluster(InstrId::new(i as u32), ClusterId::new(c as u16)),
        Op::Reset { i } => w.reset_uniform(InstrId::new(i as u32)),
        Op::Normalize { i } => w.normalize(InstrId::new(i as u32)),
        Op::NormalizeAll => w.normalize_all(),
        Op::SetMarginal { i, ref target } => {
            w.set_cluster_marginal(InstrId::new(i as u32), target);
        }
    }
}

/// Bitwise comparison of every observable quantity of two maps.
fn assert_identical(a: &PreferenceMap, b: &PreferenceMap) {
    for i in 0..N {
        let id = InstrId::new(i as u32);
        assert_eq!(a.window(id), b.window(id), "window[{i}]");
        for c in 0..C {
            let cid = ClusterId::new(c as u16);
            assert_eq!(a.cluster_feasible(id, cid), b.cluster_feasible(id, cid));
            for t in 0..T {
                assert_eq!(
                    a.get(id, cid, t as u32).to_bits(),
                    b.get(id, cid, t as u32).to_bits(),
                    "W[{i},{c},{t}]"
                );
            }
            assert_eq!(
                a.cluster_weight(id, cid).to_bits(),
                b.cluster_weight(id, cid).to_bits()
            );
        }
        for t in 0..T {
            assert_eq!(
                a.time_weight(id, t as u32).to_bits(),
                b.time_weight(id, t as u32).to_bits()
            );
        }
        assert_eq!(a.total(id).to_bits(), b.total(id).to_bits());
        assert_eq!(a.preferred_cluster(id), b.preferred_cluster(id));
        assert_eq!(a.preferred_time(id), b.preferred_time(id));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn recording_is_transparent(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let mut silent = PreferenceMap::new(N, C, T);
        let mut recorded = PreferenceMap::new(N, C, T);
        recorded.record();
        prop_assert!(recorded.is_recording());
        for op in &ops {
            apply(&mut silent, op);
            apply(&mut recorded, op);
        }
        assert_identical(&silent, &recorded);
        // Draining the log leaves the map intact and stops recording.
        let _ = recorded.take_recording();
        prop_assert!(!recorded.is_recording());
        assert_identical(&silent, &recorded);
    }

    #[test]
    fn replaying_the_log_reproduces_the_map(
        ops in proptest::collection::vec(op_strategy(), 1..50)
    ) {
        let mut live = PreferenceMap::new(N, C, T);
        live.record();
        for op in &ops {
            apply(&mut live, op);
        }
        let log: Vec<WeightOp> = live.take_recording();
        // Compound ops must have decomposed into primitives: the log
        // contains at least one entry per mutating op applied.
        prop_assert!(!log.is_empty());

        let mut replayed = PreferenceMap::new(N, C, T);
        for op in &log {
            op.apply(&mut replayed);
        }
        assert_identical(&live, &replayed);
    }
}
