//! Differential property tests for the bulk row kernels.
//!
//! Every bulk operation on the preference map documents itself as
//! *bit-exact* with a loop of per-cell (or per-cluster) primitives:
//! `noise_fill` with the historical per-cell NOISE loop,
//! `scale_clusters_row` with the per-cluster `scale_cluster` calls;
//! `comm_row` and `reinforce_preferred` are the map's decompositions
//! over those. This test drives random op sequences through three maps
//! at once —
//!
//! * the banded map, bulk calls (on the map itself, where COMM,
//!   PLACEPROP and NOISE call them),
//! * the banded map, per-cell reference loops (recorded),
//! * the dense reference model, replaying the per-cell map's recorded
//!   primitive ops,
//!
//! — and asserts all three agree bit for bit on every observable after
//! every op, and that both banded maps' `cluster_marginals_into`
//! prologue sweep matches its documented per-cell form computed on the
//! reference. A bulk kernel that reorders a floating-point
//! accumulation, skips a marginal update, or mishandles a band edge
//! diverges here.
//!
//! These also run under `cargo miri test` (the `--miri` path of
//! `scripts/check.sh`) to catch undefined behaviour in the
//! band-buffer hot paths; case counts shrink under miri to keep
//! that tractable.

use convergent_core::PreferenceMap;
use convergent_ir::{ClusterId, InstrId};
use proptest::prelude::*;

#[path = "support/reference_map.rs"]
mod reference_map;

use reference_map::{assert_matches, ReferenceMap};

const N: usize = 4;
const C: usize = 3;
const T: usize = 8;

const CASES: u32 = if cfg!(miri) { 8 } else { 64 };

/// One op of the differential vocabulary. Shape ops (`SetWindow`,
/// `Forbid`, `Set`, `Normalize`, …) mutate both banded maps
/// identically; the `*Row`/`Fill` ops are applied as a bulk call on one
/// and as the documented per-cell decomposition on the other.
#[derive(Clone, Debug)]
enum Op {
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
    Normalize {
        i: usize,
    },
    NormalizeAll,
    Materialize {
        i: usize,
    },
    ScaleClustersRow {
        i: usize,
        fs: Vec<f64>,
    },
    CommRow {
        i: usize,
        fs: Vec<f64>,
        reinforce: bool,
    },
    ReinforcePreferred {
        i: usize,
        f: f64,
    },
    NoiseFill {
        i: usize,
        amplitude: f64,
        seed: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..N, 0..C, 0..T, 0.0f64..2.0).prop_map(|(i, c, t, v)| Op::Set { i, c, t, v }),
        (0..N, 0..T, 0..T).prop_map(|(i, lo, len)| Op::SetWindow { i, lo, len }),
        (0..N, 0..C).prop_map(|(i, c)| Op::Forbid { i, c }),
        (0..N).prop_map(|i| Op::Normalize { i }),
        (0..N).prop_map(|_| Op::NormalizeAll),
        (0..N).prop_map(|i| Op::Materialize { i }),
        (0..N, proptest::collection::vec(0.0f64..5.0, C))
            .prop_map(|(i, fs)| Op::ScaleClustersRow { i, fs }),
        (
            0..N,
            proptest::collection::vec(0.0f64..5.0, C),
            any::<bool>()
        )
            .prop_map(|(i, fs, reinforce)| Op::CommRow { i, fs, reinforce }),
        (0..N, 0.5f64..4.0).prop_map(|(i, f)| Op::ReinforcePreferred { i, f }),
        (0..N, 0.0f64..2.0, any::<u64>()).prop_map(|(i, amplitude, seed)| Op::NoiseFill {
            i,
            amplitude,
            seed
        }),
    ]
}

/// Deterministic `[0, 1)` stream for noise draws: the draws must be
/// identical across the maps but their *count* depends on the
/// map's current window/feasibility state, so they cannot come from
/// the proptest strategy directly.
fn draws(seed: u64, count: usize) -> Vec<f64> {
    let mut state = seed;
    (0..count)
        .map(|_| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 * (1.0 / 9_007_199_254_740_992.0)
        })
        .collect()
}

/// `i`'s noise-draw count in `w`'s current state (the per-cell loop's
/// `feasible_clusters × window_width`).
fn noise_cells(w: &PreferenceMap, i: InstrId) -> usize {
    let (lo, hi) = w.window(i);
    let feasible = (0..C)
        .filter(|&c| w.cluster_feasible(i, ClusterId::new(c as u16)))
        .count();
    feasible * (hi - lo + 1) as usize
}

/// Applies the bulk form of `op`: one bulk call on the map.
fn apply_bulk(w: &mut PreferenceMap, op: &Op) {
    match *op {
        Op::ScaleClustersRow { i, ref fs } => w.scale_clusters_row(InstrId::new(i as u32), fs),
        Op::CommRow {
            i,
            ref fs,
            reinforce,
        } => w.comm_row(InstrId::new(i as u32), fs, reinforce.then_some(2.0)),
        Op::ReinforcePreferred { i, f } => w.reinforce_preferred(InstrId::new(i as u32), f),
        Op::NoiseFill { i, amplitude, seed } => {
            let id = InstrId::new(i as u32);
            let d = draws(seed, noise_cells(w, id));
            w.noise_fill(id, amplitude, &d);
        }
        _ => apply_shape(w, op),
    }
}

/// Applies `op` as the documented per-cell / per-cluster reference
/// loop, using only the primitive mutators.
fn apply_reference(w: &mut PreferenceMap, op: &Op) {
    match *op {
        Op::ScaleClustersRow { i, ref fs } => {
            let id = InstrId::new(i as u32);
            for (c, &f) in fs.iter().enumerate() {
                w.scale_cluster(id, ClusterId::new(c as u16), f);
            }
        }
        Op::CommRow {
            i,
            ref fs,
            reinforce,
        } => {
            let id = InstrId::new(i as u32);
            for (c, &f) in fs.iter().enumerate() {
                w.scale_cluster(id, ClusterId::new(c as u16), f);
            }
            if reinforce {
                let c = w.preferred_cluster(id);
                let t = w.preferred_time(id);
                w.scale(id, c, t.get(), 2.0);
            }
        }
        Op::ReinforcePreferred { i, f } => {
            let id = InstrId::new(i as u32);
            let c = w.preferred_cluster(id);
            let t = w.preferred_time(id);
            w.scale(id, c, t.get(), f);
        }
        Op::NoiseFill { i, amplitude, seed } => {
            let id = InstrId::new(i as u32);
            let d = draws(seed, noise_cells(w, id));
            let (lo, hi) = w.window(id);
            let mut k = 0usize;
            for c in 0..C {
                let cid = ClusterId::new(c as u16);
                if !w.cluster_feasible(id, cid) {
                    continue;
                }
                for t in lo..=hi {
                    w.add(id, cid, t, amplitude * d[k]);
                    k += 1;
                }
            }
            assert_eq!(k, d.len(), "one draw per feasible cell");
        }
        _ => apply_shape(w, op),
    }
}

/// Shape ops shared verbatim by the bulk and reference sides.
fn apply_shape(w: &mut PreferenceMap, op: &Op) {
    match *op {
        Op::Set { i, c, t, v } => {
            // A nonzero write outside the window panics by design.
            let (lo, hi) = w.window(InstrId::new(i as u32));
            if v == 0.0 || (lo..=hi).contains(&(t as u32)) {
                w.set(
                    InstrId::new(i as u32),
                    ClusterId::new(c as u16),
                    t as u32,
                    v,
                );
            }
        }
        Op::SetWindow { i, lo, len } => {
            let id = InstrId::new(i as u32);
            let lo = lo as u32;
            let hi = (lo + len as u32).min(T as u32 - 1);
            let (cur_lo, cur_hi) = w.window(id);
            if lo.max(cur_lo) <= hi.min(cur_hi) {
                w.set_window(id, lo, hi);
            }
        }
        Op::Forbid { i, c } => w.forbid_cluster(InstrId::new(i as u32), ClusterId::new(c as u16)),
        Op::Normalize { i } => w.normalize(InstrId::new(i as u32)),
        Op::NormalizeAll => w.normalize_all(),
        Op::Materialize { i } => w.materialize(InstrId::new(i as u32)),
        _ => unreachable!("bulk op routed to apply_shape"),
    }
}

/// `map`'s pass-prologue sweep must match its documented per-cell
/// form, computed on the reference: each marginal is
/// `cluster_weight / total.max(MIN_POSITIVE)`.
fn assert_sweeps_match(map: &PreferenceMap, reference: &ReferenceMap) {
    let mut marginals = vec![0.0; N * C];
    map.cluster_marginals_into(&mut marginals);
    let mut want_marginals = Vec::new();
    for i in (0..N as u32).map(InstrId::new) {
        let total = reference.total(i).max(f64::MIN_POSITIVE);
        let clusters = (0..C as u16).map(ClusterId::new);
        want_marginals.extend(clusters.map(|c| reference.cluster_weight(i, c) / total));
    }
    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&marginals),
        bits(&want_marginals),
        "cluster_marginals_into"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// The headline claim: bulk row kernels are bit-exact with the
    /// per-cell loops, and both are bit-exact with the dense
    /// reference throughout.
    #[test]
    fn bulk_matches_per_cell_and_reference(
        ops in proptest::collection::vec(op_strategy(), 1..40)
    ) {
        let mut bulk = PreferenceMap::new(N, C, T);
        let mut cell = PreferenceMap::new(N, C, T);
        let mut reference = ReferenceMap::new(N, C, T);
        cell.record();
        for op in &ops {
            apply_bulk(&mut bulk, op);
            apply_reference(&mut cell, op);
            // Materialize folds the scale without logging an op.
            if let Op::Materialize { i } = *op {
                reference.materialize(InstrId::new(i as u32));
            }
            let log = cell.take_recording();
            cell.record();
            reference.replay(&log);
            assert_matches(&format!("bulk vs reference after {op:?}"), &bulk, &reference);
            assert_matches(&format!("per-cell vs reference after {op:?}"), &cell, &reference);
            assert_sweeps_match(&bulk, &reference);
            assert_sweeps_match(&cell, &reference);
        }
        // The invariant checker expects a normalized map.
        bulk.normalize_all();
        bulk.assert_invariants(1e-7);
    }
}

/// `preferred_time` against the dense reference on adversarial rows:
/// a leader and a runner-up `gap` apart, with gaps on both sides of
/// the `EPS` tie band and of the scan's isolated-max margin, leaders
/// from below `EPS` to 1e6, pending scales from 1e-80 to 1e80, windows
/// starting at slot 0 and later, one-slot bands, and the leader at the
/// first, a middle and the last band slot.
#[test]
fn preferred_time_matches_reference_on_near_ties() {
    const EPS: f64 = 1e-12;
    let gaps = [0.0, 0.25, 0.5, 1.0, 1.5, 2.0, 3.9, 4.0, 4.1, 5.0, 8.0, 1e3].map(|g| g * EPS);
    let leaders = [0.5 * EPS, 3.0 * EPS, 5.0 * EPS, 0.3, 1e4, 1e6];
    // Factors that drive the pending scale to 1e-80 … 1e80 in steps a
    // `normalize` accepts (each keeps the visible total above `EPS`).
    let drives = [(1e8, 10), (1e8, 5), (1.0, 0), (1e-8, 5), (1e-8, 10)];
    let windows = [(0, 0), (0, 4), (0, 8), (3, 3), (3, 7), (2, 10), (11, 11)];
    let mut cases = 0usize;
    for (lo, hi) in windows {
        let mid = (lo + hi) / 2;
        for drive in drives {
            for (m, gap) in leaders.iter().flat_map(|&m| gaps.map(|g| (m, g))) {
                for lead in [lo, mid, hi] {
                    // `None`: no runner-up, every other slot at m / 4.
                    for runner in [Some(lo), Some(mid), Some(hi), None] {
                        if runner == Some(lead) && hi > lo {
                            continue;
                        }
                        let value = |t| match t {
                            t if t == lead => m,
                            t if Some(t) == runner => (m - gap).max(0.0),
                            _ => 0.25 * m,
                        };
                        let (map, reference) = near_tie_row((lo, hi), drive, value);
                        let i = InstrId::new(0);
                        assert_eq!(
                            map.preferred_time(i),
                            reference.preferred_time(i),
                            "window [{lo}, {hi}], scale drive {drive:?}, leader {m:e} at \
                             {lead}, runner-up {runner:?} gap {gap:e}"
                        );
                        cases += 1;
                    }
                }
            }
        }
    }
    assert!(cases > 5000, "{cases} cases");
}

/// One instruction on two clusters and 12 slots, windowed to `window`,
/// its pending scale driven by `rounds` of (scale every cluster by
/// `factor`, normalize), then cluster 0 set to `value(t)` and cluster 1
/// to zero on every window slot: the banded map and the dense
/// reference replaying its ops.
fn near_tie_row(
    (lo, hi): (u32, u32),
    (factor, rounds): (f64, u32),
    value: impl Fn(u32) -> f64,
) -> (PreferenceMap, ReferenceMap) {
    let i = InstrId::new(0);
    let (c0, c1) = (ClusterId::new(0), ClusterId::new(1));
    let mut map = PreferenceMap::new(1, 2, 12);
    let mut reference = ReferenceMap::new(1, 2, 12);
    map.record();
    map.set_window(i, lo, hi);
    for _ in 0..rounds {
        map.scale_cluster(i, c0, factor);
        map.scale_cluster(i, c1, factor);
        map.normalize(i);
    }
    for t in lo..=hi {
        map.set(i, c0, t, value(t));
        map.set(i, c1, t, 0.0);
    }
    reference.replay(&map.take_recording());
    (map, reference)
}
