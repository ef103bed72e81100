//! The dense reference model of the preference map: one
//! `n_clusters × n_slots` row per instruction, exactly the layout the
//! banded `PreferenceMap` compresses.
//!
//! It keeps the map's lazy scale factor and fold bounds (copied, not
//! shared), and its argmaxes are plain scans of the dense marginals, so
//! under the same primitive op sequence every cell, marginal, total and
//! argmax must match the banded map **bit for bit**. Differential tests drive it either with
//! per-cell calls or by replaying a recording map's [`WeightOp`] log,
//! then compare with [`assert_matches`].
//!
//! Include it with `#[path = ".../support/reference_map.rs"] mod
//! reference_map;` — it is shared by the core and root test suites.

#![allow(dead_code)]

use convergent_core::{PreferenceMap, WeightOp};
use convergent_ir::{ClusterId, Cycle, InstrId};

/// Weights below this are treated as zero (the map's `EPS`).
const EPS: f64 = 1e-12;
/// The map's fold bounds for the pending scale factor.
const SCALE_FOLD_MIN: f64 = 1e-90;
const SCALE_FOLD_MAX: f64 = 1e90;
/// Dense storage; the visible weight is `w[k] * scale[i]`, likewise
/// for the marginals and the total.
#[derive(Clone, Debug)]
pub struct ReferenceMap {
    n_clusters: usize,
    n_slots: usize,
    w: Vec<f64>,
    cluster_sum: Vec<f64>,
    time_sum: Vec<f64>,
    total: Vec<f64>,
    scale: Vec<f64>,
    window: Vec<(u32, u32)>,
    cluster_ok: Vec<bool>,
}

impl ReferenceMap {
    /// A uniform map, as `PreferenceMap::new` builds it.
    pub fn new(n_instrs: usize, n_clusters: usize, n_slots: usize) -> Self {
        let per = 1.0 / (n_clusters * n_slots) as f64;
        ReferenceMap {
            n_clusters,
            n_slots,
            w: vec![per; n_instrs * n_clusters * n_slots],
            cluster_sum: vec![per * n_slots as f64; n_instrs * n_clusters],
            time_sum: vec![per * n_clusters as f64; n_instrs * n_slots],
            total: vec![1.0; n_instrs],
            scale: vec![1.0; n_instrs],
            window: vec![(0, n_slots as u32 - 1); n_instrs],
            cluster_ok: vec![true; n_instrs * n_clusters],
        }
    }

    pub fn n_instrs(&self) -> usize {
        self.total.len()
    }

    /// Replays one primitive op.
    pub fn apply(&mut self, op: &WeightOp) {
        match *op {
            WeightOp::Set { i, c, t, value } => self.set(i, c, t, value),
            WeightOp::Scale { i, c, t, factor } => self.scale(i, c, t, factor),
            WeightOp::ScaleCluster { i, c, factor } => self.scale_cluster(i, c, factor),
            WeightOp::ScaleTime { i, t, factor } => self.scale_time(i, t, factor),
            WeightOp::SetWindow { i, lo, hi } => self.set_window(i, lo, hi),
            WeightOp::ForbidCluster { i, c } => self.forbid_cluster(i, c),
            WeightOp::Normalize { i } => self.normalize(i),
            WeightOp::ResetUniform { i } => self.reset_uniform(i),
        }
    }

    /// Replays a recorded log in order.
    pub fn replay(&mut self, ops: &[WeightOp]) {
        ops.iter().for_each(|op| self.apply(op));
    }

    fn idx(&self, i: InstrId, c: ClusterId, t: u32) -> usize {
        (i.index() * self.n_clusters + c.index()) * self.n_slots + t as usize
    }

    pub fn get(&self, i: InstrId, c: ClusterId, t: u32) -> f64 {
        self.w[self.idx(i, c, t)] * self.scale[i.index()]
    }

    pub fn set(&mut self, i: InstrId, c: ClusterId, t: u32, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "weights are ≥ 0");
        self.write_cell(i, c, t, value / self.scale[i.index()]);
    }

    /// `set(get + delta)` clamped at zero, as `PreferenceMap::add`.
    pub fn add(&mut self, i: InstrId, c: ClusterId, t: u32, delta: f64) {
        let cur = self.get(i, c, t);
        self.set(i, c, t, (cur + delta).max(0.0));
    }

    pub fn scale(&mut self, i: InstrId, c: ClusterId, t: u32, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        self.write_cell(i, c, t, self.w[self.idx(i, c, t)] * factor);
    }

    /// Stores raw value `raw` at one cell, delta-maintaining the
    /// marginals.
    fn write_cell(&mut self, i: InstrId, c: ClusterId, t: u32, raw: f64) {
        let (ii, k) = (i.index(), self.idx(i, c, t));
        let delta = raw - self.w[k];
        if delta == 0.0 {
            return;
        }
        self.w[k] = raw;
        self.cluster_sum[ii * self.n_clusters + c.index()] += delta;
        self.time_sum[ii * self.n_slots + t as usize] += delta;
        self.total[ii] += delta;
    }

    pub fn scale_cluster(&mut self, i: InstrId, c: ClusterId, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        let (ii, nc, ns) = (i.index(), self.n_clusters, self.n_slots);
        let base = (ii * nc + c.index()) * ns;
        let (mut new_sum, mut changed) = (0.0, false);
        for t in 0..ns {
            let (old, new) = (self.w[base + t], self.w[base + t] * factor);
            if new != old {
                self.w[base + t] = new;
                self.time_sum[ii * ns + t] += new - old;
                changed = true;
            }
            new_sum += new;
        }
        if !changed {
            return;
        }
        // Exact rebuild of the scaled marginal and the total.
        self.cluster_sum[ii * nc + c.index()] = new_sum;
        self.total[ii] = self.cluster_sum[ii * nc..(ii + 1) * nc].iter().sum();
    }

    pub fn scale_time(&mut self, i: InstrId, t: u32, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        let (ii, nc) = (i.index(), self.n_clusters);
        let old_sum = self.time_sum[ii * self.n_slots + t as usize];
        let (mut new_sum, mut changed) = (0.0, false);
        for c in 0..nc {
            let k = self.idx(i, ClusterId::new(c as u16), t);
            let (old, new) = (self.w[k], self.w[k] * factor);
            if new != old {
                self.w[k] = new;
                self.cluster_sum[ii * nc + c] += new - old;
                changed = true;
            }
            new_sum += new;
        }
        if !changed {
            return;
        }
        self.time_sum[ii * self.n_slots + t as usize] = new_sum;
        self.total[ii] += new_sum - old_sum;
    }

    /// Intersects the window with `[lo, hi]`, zeroing cells outside.
    pub fn set_window(&mut self, i: InstrId, lo: u32, hi: u32) {
        let (ii, nc, ns) = (i.index(), self.n_clusters, self.n_slots);
        let (old_lo, old_hi) = self.window[ii];
        let (lo, hi) = (lo.max(old_lo), hi.min(old_hi));
        assert!(lo <= hi, "window must be non-empty");
        self.window[ii] = (lo, hi);
        let mut any_removed = false;
        for t in (0..ns).filter(|&t| !(lo..=hi).contains(&(t as u32))) {
            for c in 0..nc {
                let k = (ii * nc + c) * ns + t;
                any_removed |= self.w[k] != 0.0;
                self.w[k] = 0.0;
            }
            self.time_sum[ii * ns + t] = 0.0;
        }
        if any_removed {
            // Rebuild the marginals from the surviving cells, in
            // ascending `t` order.
            for c in 0..nc {
                let base = (ii * nc + c) * ns;
                self.cluster_sum[ii * nc + c] =
                    self.w[base..base + ns].iter().fold(0.0, |sum, &v| sum + v);
            }
            self.total[ii] = self.cluster_sum[ii * nc..(ii + 1) * nc].iter().sum();
        }
    }

    pub fn window(&self, i: InstrId) -> (u32, u32) {
        self.window[i.index()]
    }

    pub fn forbid_cluster(&mut self, i: InstrId, c: ClusterId) {
        self.cluster_ok[i.index() * self.n_clusters + c.index()] = false;
        self.scale_cluster(i, c, 0.0);
    }

    pub fn cluster_feasible(&self, i: InstrId, c: ClusterId) -> bool {
        self.cluster_ok[i.index() * self.n_clusters + c.index()]
    }

    pub fn cluster_weight(&self, i: InstrId, c: ClusterId) -> f64 {
        self.cluster_sum[i.index() * self.n_clusters + c.index()] * self.scale[i.index()]
    }

    pub fn time_weight(&self, i: InstrId, t: u32) -> f64 {
        self.time_sum[i.index() * self.n_slots + t as usize] * self.scale[i.index()]
    }

    pub fn total(&self, i: InstrId) -> f64 {
        self.total[i.index()] * self.scale[i.index()]
    }

    /// The `(top, runner-up)` clusters; each scan breaks ties within
    /// `EPS` toward the lowest id.
    fn top2(&self, i: InstrId) -> (u16, Option<u16>) {
        let (ii, nc, s) = (i.index(), self.n_clusters, self.scale[i.index()]);
        let sums = &self.cluster_sum[ii * nc..(ii + 1) * nc];
        let mut best = 0usize;
        for c in 1..nc {
            if sums[c] * s > sums[best] * s + EPS {
                best = c;
            }
        }
        let mut second: Option<usize> = None;
        for (c, &v) in sums.iter().enumerate().filter(|&(c, _)| c != best) {
            match second {
                Some(b) if v * s <= sums[b] * s + EPS => {}
                _ => second = Some(c),
            }
        }
        (best as u16, second.map(|c| c as u16))
    }

    pub fn preferred_cluster(&self, i: InstrId) -> ClusterId {
        ClusterId::new(self.top2(i).0)
    }

    pub fn runnerup_cluster(&self, i: InstrId) -> Option<ClusterId> {
        self.top2(i).1.map(ClusterId::new)
    }

    pub fn preferred_time(&self, i: InstrId) -> Cycle {
        let (ii, ns, s) = (i.index(), self.n_slots, self.scale[i.index()]);
        let sums = &self.time_sum[ii * ns..(ii + 1) * ns];
        let mut best = 0usize;
        for t in 1..ns {
            if sums[t] * s > sums[best] * s + EPS {
                best = t;
            }
        }
        Cycle::new(best as u32)
    }

    pub fn confidence(&self, i: InstrId) -> f64 {
        let top = self.cluster_weight(i, self.preferred_cluster(i));
        match self.runnerup_cluster(i).map(|r| self.cluster_weight(i, r)) {
            Some(second) if second > EPS => top / second,
            _ => f64::INFINITY,
        }
    }

    /// O(1) renormalization via the scale factor, folding it in when it
    /// leaves the fold bounds; an all-zero row resets to uniform.
    pub fn normalize(&mut self, i: InstrId) {
        let ii = i.index();
        if self.total[ii] * self.scale[ii] > EPS {
            let inv = 1.0 / self.total[ii];
            self.scale[ii] = inv;
            if !(SCALE_FOLD_MIN..=SCALE_FOLD_MAX).contains(&inv) {
                self.materialize(i);
            }
        } else {
            self.reset_uniform(i);
        }
    }

    pub fn normalize_all(&mut self) {
        for i in 0..self.n_instrs() {
            self.normalize(InstrId::new(i as u32));
        }
    }

    /// Folds the pending scale into the stored row.
    pub fn materialize(&mut self, i: InstrId) {
        let (ii, nc, ns) = (i.index(), self.n_clusters, self.n_slots);
        let s = self.scale[ii];
        if s == 1.0 {
            return;
        }
        let w = &mut self.w[ii * nc * ns..(ii + 1) * nc * ns];
        let cs = &mut self.cluster_sum[ii * nc..(ii + 1) * nc];
        let ts = &mut self.time_sum[ii * ns..(ii + 1) * ns];
        for v in w.iter_mut().chain(cs).chain(ts) {
            *v *= s;
        }
        self.total[ii] *= s;
        self.scale[ii] = 1.0;
    }

    /// Uniform over the window and the feasible clusters (all clusters
    /// if none is feasible).
    pub fn reset_uniform(&mut self, i: InstrId) {
        let (ii, nc, ns) = (i.index(), self.n_clusters, self.n_slots);
        let (lo, hi) = self.window[ii];
        let ok = &self.cluster_ok[ii * nc..(ii + 1) * nc];
        let use_all = !ok.contains(&true);
        let n_live = if use_all {
            nc
        } else {
            ok.iter().filter(|&&b| b).count()
        };
        let slots = (hi - lo + 1) as usize;
        let per = 1.0 / (n_live * slots) as f64;
        self.w[ii * nc * ns..(ii + 1) * nc * ns].fill(0.0);
        for c in 0..nc {
            let live = use_all || self.cluster_ok[ii * nc + c];
            self.cluster_sum[ii * nc + c] = if live { per * slots as f64 } else { 0.0 };
            if live {
                let base = (ii * nc + c) * ns;
                self.w[base + lo as usize..=base + hi as usize].fill(per);
            }
        }
        for t in 0..ns {
            let inside = (lo..=hi).contains(&(t as u32));
            self.time_sum[ii * ns + t] = if inside { per * n_live as f64 } else { 0.0 };
        }
        self.total[ii] = 1.0;
        self.scale[ii] = 1.0;
    }
}

/// Asserts that `map` and `reference` agree bit for bit on every
/// window, feasibility bit, cell, marginal, total and argmax (cluster,
/// runner-up, time, confidence); `label` prefixes the failure message.
///
/// # Panics
///
/// On the first disagreement.
pub fn assert_matches(label: &str, map: &PreferenceMap, reference: &ReferenceMap) {
    // Evaluates `$e` with `$w` bound to each map in turn; floats are
    // compared by their bits.
    macro_rules! same {
        ($w:ident => $e:expr, $($what:tt)+) => {{
            let (a, b) = ({ let $w = map; $e }, { let $w = reference; $e });
            assert_eq!(a, b, "{label}: {} (map vs reference)", format_args!($($what)+));
        }};
    }
    assert_eq!(map.n_instrs(), reference.n_instrs(), "{label}: n_instrs");
    for k in 0..map.n_instrs() as u32 {
        let i = InstrId::new(k);
        same!(w => w.window(i), "window[{k}]");
        for c in (0..map.n_clusters() as u16).map(ClusterId::new) {
            same!(w => w.cluster_feasible(i, c), "feasible[{k},{c}]");
            for t in 0..map.n_slots() as u32 {
                same!(w => w.get(i, c, t).to_bits(), "W[{k},{c},{t}]");
            }
            same!(w => w.cluster_weight(i, c).to_bits(), "cluster_weight[{k},{c}]");
        }
        for t in 0..map.n_slots() as u32 {
            same!(w => w.time_weight(i, t).to_bits(), "time_weight[{k},{t}]");
        }
        same!(w => w.total(i).to_bits(), "total[{k}]");
        same!(w => w.preferred_cluster(i), "preferred_cluster[{k}]");
        same!(w => w.runnerup_cluster(i), "runnerup_cluster[{k}]");
        same!(w => w.preferred_time(i), "preferred_time[{k}]");
        same!(w => w.confidence(i).to_bits(), "confidence[{k}]");
    }
}
