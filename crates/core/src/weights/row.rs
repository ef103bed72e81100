//! The preference map's rows: banded storage and every per-row
//! operation.
//!
//! A row's band is its feasible window. A [`Row::Band`] stores exactly
//! the `n_clusters × width` cells of `window[r] = [lo, hi]`
//! (`width = hi − lo + 1`) and keeps no extent of its own. Reads
//! outside the window return exactly `0.0`; a nonzero absolute write
//! there panics (the `CS060` rule every builtin pass proves
//! statically), a zero one is a no-op; `set_window` shrinks the band
//! with the window.
//!
//! A row is [`Row::Untouched`] only until the first operation that
//! writes a cell or a feasibility flag: untouched, every cluster is
//! live and every cell of its window holds the map-wide `1/(C·n_slots)`,
//! so reads answer it in closed form, and `set_window` and `normalize`
//! keep it so. That first write densifies it at its window;
//! `reset_uniform` refills the band in place. Densifying later, not at
//! INITTIME's `set_window`, is measured: densifying every row there
//! made `paper-suites` about 4% slower end to end, at the same
//! densification count.
//!
//! Every per-row operation is written once, here, as a
//! [`PreferenceMap`] method taking a row index; the public entry points
//! in the parent module map an instruction id to its row and pass
//! through the one hook site. Each is **bit-exact** with a dense
//! `n_clusters × n_slots` row per instruction under identical op
//! histories — the *dense reference*, kept as the test model in
//! `crates/core/tests/support/reference_map.rs`: the dense row is zero
//! outside the window, `x + 0.0 == x` for the non-negative raw weights,
//! and all marginal summations here visit cells in the same order the
//! dense loops do, so skipping the zeros changes no partial sum.

use convergent_ir::ClusterId;

use super::{PreferenceMap, EPS, SCALE_FOLD_MAX, SCALE_FOLD_MIN};
use crate::telemetry::MapCounters;

/// One instruction's raw weights.
#[derive(Clone, Debug)]
pub(super) enum Row {
    /// No cell written since `PreferenceMap::new`: every cluster live
    /// and [`uniform_cell`] in every cell of the window.
    Untouched,
    /// The window's cluster-major cells — `(c, t)` at
    /// `c·width + (t − lo)` — followed by its `width` raw time
    /// marginals, in one allocation of `(n_clusters + 1) · width`.
    Band(Vec<f64>),
}

/// The raw cell of an untouched row on an `n_clusters × n_slots` map.
#[inline]
pub(super) fn uniform_cell(n_clusters: usize, n_slots: usize) -> f64 {
    1.0 / (n_clusters * n_slots) as f64
}

/// The number of slots in `window`.
#[inline(always)]
fn width((lo, hi): (u32, u32)) -> usize {
    (hi - lo + 1) as usize
}

/// A band buffer's cells and time marginals, split apart.
#[inline(always)]
fn split_mut(buf: &mut [f64], width: usize) -> (&mut [f64], &mut [f64]) {
    let n = buf.len() - width;
    buf.split_at_mut(n)
}

/// `row`'s band, densifying an untouched row at `window` first (cells
/// and time marginals keep the closed form's exact bits).
#[inline(always)]
fn densify<'r>(
    row: &'r mut Row,
    window: (u32, u32),
    n_clusters: usize,
    n_slots: usize,
    counters: &mut MapCounters,
) -> &'r mut Vec<f64> {
    let width = width(window);
    if let Row::Untouched = row {
        let per = uniform_cell(n_clusters, n_slots);
        // One allocation, each region written exactly once.
        let mut buf = Vec::with_capacity((n_clusters + 1) * width);
        buf.resize(n_clusters * width, per);
        buf.resize((n_clusters + 1) * width, per * n_clusters as f64);
        *row = Row::Band(buf);
        counters.densified();
    }
    match row {
        Row::Band(buf) => buf,
        Row::Untouched => unreachable!("densify leaves a band"),
    }
}

/// Shrinks a band from window `old` to the sub-window `new`, in place,
/// returning whether any discarded cell was nonzero.
fn shrink(buf: &mut Vec<f64>, n_clusters: usize, old: (u32, u32), new: (u32, u32)) -> bool {
    if old == new {
        return false;
    }
    let (bw, new_w) = (width(old), width(new));
    let shift = (new.0 - old.0) as usize;
    let any_removed = (0..n_clusters)
        .any(|c| (0..bw).any(|k| (k < shift || k >= shift + new_w) && buf[c * bw + k] != 0.0));
    // Compact ascending: region c's destination `c·new_w` never
    // overruns region c+1's source `(c+1)·bw + shift` (the time
    // marginals are region `n_clusters` of the shared buffer).
    for c in 0..=n_clusters {
        buf.copy_within(c * bw + shift..c * bw + shift + new_w, c * new_w);
    }
    buf.truncate((n_clusters + 1) * new_w);
    any_removed
}

/// The exact `preferred_time` scan of a band's time marginals `tsum`
/// starting at slot `lo`: slot 0 leads at first (its marginal if the
/// band starts there, else an exact zero), and a later slot takes over
/// only when `v·s > bestv·s + EPS`.
#[inline(always)]
fn band_chain(tsum: &[f64], lo: usize, s: f64, n_slots: usize) -> usize {
    let mut best = 0usize;
    let mut bestv = if lo == 0 { tsum[0] } else { 0.0 };
    for (k, &v) in tsum.iter().enumerate() {
        let t = lo + k;
        if t == 0 {
            continue;
        }
        if v * s > bestv * s + EPS {
            best = t;
            bestv = v;
        }
    }
    // Dense also scans the exactly-zero slots past the
    // band; they win only over a negative leader.
    let after = lo + tsum.len();
    if after < n_slots && 0.0 > bestv * s + EPS {
        best = after;
    }
    best
}

/// [`band_chain`]'s answer when one candidate clearly leads, else
/// `None`. The candidates are slot 0 (its marginal, or an exact zero
/// when the band starts later) and the band slots; `x_t` is the scaled
/// marginal `v_t·s`, computed exactly as the chain computes it.
///
/// Two branch-free passes: the maximum `m` of the `x_t` (exact, so
/// lane order does not matter), then the count of candidates with
/// `x_t ≥ m − margin`, `margin = 4·EPS + m·1e-14`, keeping the last
/// one. If exactly one candidate `t*` counts and `0 ≤ m < ∞`, the
/// chain ends on `t*`:
/// - every other candidate has `x < m − margin`, so while any of them
///   leads, `fl(x + EPS) < m` (the rounding in `fl(x + EPS)` and in
///   the margin itself is below `m·2⁻⁵²`, far inside `m·1e-14`, and
///   for `m = 0` the sum stays below `−3·EPS`): the chain takes `t*`
///   when it reaches it;
/// - after `t*`, no `x ≤ m ≤ fl(m + EPS)` takes over;
/// - `m ≥ 0` makes `fl(m + EPS) > 0`, so the zeros past the band
///   never take over either.
///
/// A NaN slot-0 marginal keeps `m` NaN and declines; a NaN band slot
/// is neither counted here nor ever taken by the chain.
#[inline(always)]
fn isolated_leader(tsum: &[f64], lo: usize, s: f64) -> Option<usize> {
    let slot0 = if lo == 0 { tsum[0] * s } else { 0.0 };
    // Four independent lanes break the dependency on one running max.
    let mut lanes = [slot0; 4];
    let chunks = tsum.chunks_exact(4);
    let tail = chunks.remainder();
    for c in chunks {
        for (m, &v) in lanes.iter_mut().zip(c) {
            let x = v * s;
            *m = if x > *m { x } else { *m };
        }
    }
    for &v in tail {
        let x = v * s;
        lanes[0] = if x > lanes[0] { x } else { lanes[0] };
    }
    let m = lanes[1..]
        .iter()
        .fold(lanes[0], |m, &x| if x > m { x } else { m });
    if !(0.0..f64::INFINITY).contains(&m) {
        return None;
    }
    let thr = m - (4.0 * EPS + m * 1e-14);
    let zero_counts = lo > 0 && 0.0 >= thr;
    let (mut n, mut at) = (usize::from(zero_counts), 0);
    for (k, &v) in tsum.iter().enumerate() {
        let hit = v * s >= thr;
        n += usize::from(hit);
        at = if hit { lo + k } else { at };
    }
    (n == 1).then_some(at)
}

/// The per-row reads.
impl PreferenceMap {
    /// Row `r`'s preferred time: a fresh scan under its pending scale
    /// `s`, computing exactly what the dense reference's full-slot scan
    /// would (see the comments inline). Ties go to the earliest slot.
    ///
    /// The exact scan over a band is [`band_chain`], one dependent
    /// compare chain. [`isolated_leader`] answers first, without the
    /// chain, and it is exact: it answers only when one candidate's
    /// scaled marginal `m` clears every other by more than
    /// `4·EPS + m·1e-14`, which covers the `EPS` tie band plus every
    /// rounding in the chain's `bestv·s + EPS`, and when `m ≥ 0`, so
    /// the exactly-zero slots past the band cannot take over. The chain
    /// must then end on that candidate; near ties it runs as before.
    /// Nothing is cached, so the answer depends only on the row. In
    /// debug builds both run and must agree, which makes every debug
    /// test run a differential.
    #[inline(always)]
    pub(super) fn top_time(&self, r: usize) -> u32 {
        let ((lo, hi), s, nc) = (self.window[r], self.scale[r], self.n_clusters);
        let Row::Band(buf) = &self.rows[r] else {
            // Equal positive marginals over the window: its first slot,
            // unless it only ties slot 0's exact zero.
            let v = uniform_cell(nc, self.n_slots) * nc as f64;
            return if lo > 0 && v * s > EPS { lo } else { 0 };
        };
        let tsum = &buf[nc * width((lo, hi))..];
        let lo = lo as usize;
        let best = match isolated_leader(tsum, lo, s) {
            Some(t) => {
                debug_assert_eq!(
                    t,
                    band_chain(tsum, lo, s, self.n_slots),
                    "isolated-max fast path"
                );
                t
            }
            None => band_chain(tsum, lo, s, self.n_slots),
        };
        best as u32
    }

    /// Whether row `r` is untouched or its band holds exactly
    /// `(n_clusters + 1) · width` cells for its window — the row
    /// invariant, checked after every op in debug builds.
    pub(super) fn band_fits_window(&self, r: usize) -> bool {
        match &self.rows[r] {
            Row::Untouched => true,
            Row::Band(buf) => buf.len() == (self.n_clusters + 1) * width(self.window[r]),
        }
    }

    /// Row `r`'s raw cluster marginals.
    #[inline]
    fn sums(&self, r: usize) -> &[f64] {
        &self.cluster_sum[r * self.n_clusters..(r + 1) * self.n_clusters]
    }

    /// The raw (unscaled) cell value — exactly what the dense reference
    /// holds at `(r, c, t)`.
    #[inline(always)]
    pub(super) fn raw(&self, r: usize, c: usize, t: usize) -> f64 {
        debug_assert!(c < self.n_clusters && t < self.n_slots);
        let (lo, hi) = self.window[r];
        if !(lo..=hi).contains(&(t as u32)) {
            return 0.0;
        }
        match &self.rows[r] {
            Row::Untouched => uniform_cell(self.n_clusters, self.n_slots),
            Row::Band(buf) => buf[c * width((lo, hi)) + (t - lo as usize)],
        }
    }

    /// The raw time marginal — exactly the dense reference's
    /// `time_sum[t]` (zero outside the window).
    #[inline]
    pub(super) fn raw_time(&self, r: usize, t: usize) -> f64 {
        let (lo, hi) = self.window[r];
        if !(lo..=hi).contains(&(t as u32)) {
            return 0.0;
        }
        let nc = self.n_clusters;
        match &self.rows[r] {
            Row::Untouched => uniform_cell(nc, self.n_slots) * nc as f64,
            Row::Band(buf) => buf[nc * width((lo, hi)) + (t - lo as usize)],
        }
    }

    /// Row `r`'s preferred cluster: one pass over the cluster
    /// marginals under the pending scale. A later cluster takes the
    /// lead only by more than `EPS`, so ties go to the lowest id.
    #[inline(always)]
    pub(super) fn top_cluster(&self, r: usize) -> usize {
        let (sums, s) = (self.sums(r), self.scale[r]);
        let mut best = 0;
        for c in 1..sums.len() {
            if sums[c] * s > sums[best] * s + EPS {
                best = c;
            }
        }
        best
    }

    /// Row `r`'s preferred cluster and the best of the rest (`None` on
    /// a one-cluster machine), whose ties within `EPS` also go to the
    /// lowest id.
    #[inline(always)]
    pub(super) fn top2(&self, r: usize) -> (usize, Option<usize>) {
        let (sums, s) = (self.sums(r), self.scale[r]);
        let best = self.top_cluster(r);
        let mut second: Option<usize> = None;
        for (c, &v) in sums.iter().enumerate() {
            if c == best {
                continue;
            }
            match second {
                Some(b) if v * s <= sums[b] * s + EPS => {}
                _ => second = Some(c),
            }
        }
        (best, second)
    }
}

/// The per-row mutations. None of these count or log; the hook site
/// (`PreferenceMap::mutate`, and `PreferenceMap::counted` for the bulk
/// operations, which log their per-cell decomposition instead) does.
/// Each body is always inlined into its public entry point.
impl PreferenceMap {
    /// Row `r`'s band, densified at its window if untouched.
    #[inline(always)]
    fn band_mut(&mut self, r: usize) -> &mut Vec<f64> {
        densify(
            &mut self.rows[r],
            self.window[r],
            self.n_clusters,
            self.n_slots,
            &mut self.counters,
        )
    }

    /// Stores raw value `raw` at in-window `(r, c, t)`, `delta` away
    /// from the old value.
    #[inline(always)]
    fn write_cell(&mut self, r: usize, c: usize, t: usize, raw: f64, delta: f64) {
        let (lo, hi) = self.window[r];
        let (width, off) = (width((lo, hi)), t - lo as usize);
        let (w, ts) = split_mut(self.band_mut(r), width);
        w[c * width + off] = raw;
        ts[off] += delta;
        self.cluster_sum[r * self.n_clusters + c] += delta;
        self.total[r] += delta;
    }

    #[inline(always)]
    pub(super) fn row_set(&mut self, r: usize, c: ClusterId, t: u32, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "weights are ≥ 0");
        let (lo, hi) = self.window[r];
        if !(lo..=hi).contains(&t) {
            assert!(
                value == 0.0,
                "write of {value} to W[i{r}, {c}, t{t}] outside the window [{lo}, {hi}]"
            );
            return; // the cell is already zero
        }
        let (c, t) = (c.index(), t as usize);
        let raw = value / self.scale[r];
        let delta = raw - self.raw(r, c, t);
        if delta != 0.0 {
            self.write_cell(r, c, t, raw, delta);
        }
    }

    #[inline(always)]
    pub(super) fn row_scale(&mut self, r: usize, c: ClusterId, t: u32, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        let (c, t) = (c.index(), t as usize);
        let old = self.raw(r, c, t);
        let new = old * factor;
        // `delta ≠ 0` implies the cell is nonzero, hence in the window.
        let delta = new - old;
        if delta != 0.0 {
            self.write_cell(r, c, t, new, delta);
        }
    }

    #[inline(always)]
    pub(super) fn row_scale_cluster(&mut self, r: usize, c: ClusterId, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        if self.scale_cluster_cells(r, c.index(), factor) {
            // Same exact-rebuild discipline as the dense reference:
            // re-sum the total from the marginals.
            let nc = self.n_clusters;
            self.total[r] = self.cluster_sum[r * nc..(r + 1) * nc].iter().sum();
        }
    }

    /// The cell half of `scale_cluster`: rescales cluster `c`'s cells,
    /// time marginals and cluster marginal. Leaves the total to the
    /// caller; returns whether anything changed.
    #[inline(always)]
    fn scale_cluster_cells(&mut self, r: usize, c: usize, factor: f64) -> bool {
        let width = width(self.window[r]);
        let (w, ts) = split_mut(self.band_mut(r), width);
        let mut new_sum = 0.0;
        let mut changed = false;
        for (cell, ts) in w[c * width..(c + 1) * width].iter_mut().zip(ts) {
            let old = *cell;
            let new = old * factor;
            if new != old {
                *cell = new;
                *ts += new - old;
                changed = true;
            }
            new_sum += new;
        }
        if changed {
            self.cluster_sum[r * self.n_clusters + c] = new_sum;
        }
        changed
    }

    /// Applies `scale_cluster(r, c, factors[c])` for every cluster in
    /// one sweep over the row — bit-exact with the per-cluster calls
    /// (the total re-sum is deferred to the end, where it recomputes
    /// the same pure function of the final marginals).
    #[inline(always)]
    pub(super) fn row_scale_clusters(&mut self, r: usize, factors: &[f64]) {
        let nc = self.n_clusters;
        assert_eq!(factors.len(), nc, "one factor per cluster");
        for &f in factors {
            assert!(f.is_finite() && f >= 0.0, "factors are ≥ 0");
        }
        let mut changed = false;
        for (c, &f) in factors.iter().enumerate() {
            // A unit factor leaves every cell unchanged; so does any
            // factor on a dead cluster (zero marginal ⇔ every cell
            // zero).
            if f != 1.0 && self.cluster_sum[r * nc + c] != 0.0 {
                changed |= self.scale_cluster_cells(r, c, f);
            }
        }
        if changed {
            self.total[r] = self.cluster_sum[r * nc..(r + 1) * nc].iter().sum();
        }
    }

    #[inline(always)]
    pub(super) fn row_scale_time(&mut self, r: usize, t: u32, factor: f64) {
        assert!(factor.is_finite() && factor >= 0.0, "factors are ≥ 0");
        debug_assert!((t as usize) < self.n_slots);
        let (lo, hi) = self.window[r];
        if !(lo..=hi).contains(&t) {
            return; // all cells at `t` are zero
        }
        let nc = self.n_clusters;
        let base = r * nc;
        let (width, off) = (width((lo, hi)), (t - lo) as usize);
        let buf = densify(
            &mut self.rows[r],
            (lo, hi),
            nc,
            self.n_slots,
            &mut self.counters,
        );
        let (w, ts) = split_mut(buf, width);
        let old_sum = ts[off];
        let mut new_sum = 0.0;
        let mut changed = false;
        for c in 0..nc {
            let old = w[c * width + off];
            let new = old * factor;
            if new != old {
                w[c * width + off] = new;
                self.cluster_sum[base + c] += new - old;
                changed = true;
            }
            new_sum += new;
        }
        if !changed {
            return;
        }
        ts[off] = new_sum;
        self.total[r] += new_sum - old_sum;
    }

    #[inline(always)]
    pub(super) fn row_set_window(&mut self, r: usize, lo: u32, hi: u32) {
        assert!(lo <= hi, "window must be non-empty");
        assert!((hi as usize) < self.n_slots, "window exceeds time slots");
        let old = self.window[r];
        let new = (lo.max(old.0), hi.min(old.1));
        assert!(new.0 <= new.1, "window must be non-empty");
        self.window[r] = new;
        let nc = self.n_clusters;
        let sums = &mut self.cluster_sum[r * nc..(r + 1) * nc];
        match &mut self.rows[r] {
            Row::Band(buf) => {
                if !shrink(buf, nc, old, new) {
                    return;
                }
                // Rebuild each cluster marginal from the surviving cells
                // in ascending `t` order, exactly as the dense reference
                // does (its zeroed out-of-window cells contribute
                // nothing bitwise).
                for (cs, cells) in sums.iter_mut().zip(buf.chunks_exact(width(new))) {
                    let mut sum = 0.0;
                    for &v in cells {
                        sum += v;
                    }
                    *cs = sum;
                }
            }
            // The row stays untouched over the new window.
            Row::Untouched => {
                if new == old {
                    return;
                }
                // Every cell is the same uniform value, so each
                // cluster's ascending rebuild is this one sum.
                let per = uniform_cell(nc, self.n_slots);
                let mut live = 0.0;
                for _ in 0..width(new) {
                    live += per;
                }
                sums.fill(live);
            }
        }
        self.total[r] = sums.iter().sum();
    }

    #[inline(always)]
    pub(super) fn row_forbid_cluster(&mut self, r: usize, c: ClusterId) {
        self.cluster_ok[r * self.n_clusters + c.index()] = false;
        self.row_scale_cluster(r, c, 0.0);
    }

    #[inline(always)]
    pub(super) fn row_normalize(&mut self, r: usize) {
        let tot = self.total[r] * self.scale[r];
        if tot > EPS {
            let inv = 1.0 / self.total[r];
            self.scale[r] = inv;
            if !(SCALE_FOLD_MIN..=SCALE_FOLD_MAX).contains(&inv) {
                self.row_materialize(r);
            }
        } else {
            self.row_reset_uniform(r);
        }
    }

    #[inline(always)]
    pub(super) fn row_materialize(&mut self, r: usize) {
        let s = self.scale[r];
        if s == 1.0 {
            return;
        }
        // Cells and time marginals share the buffer; one sweep scales
        // both, in the same per-element arithmetic.
        for v in self.band_mut(r).iter_mut() {
            *v *= s;
        }
        let nc = self.n_clusters;
        for cs in &mut self.cluster_sum[r * nc..(r + 1) * nc] {
            *cs *= s;
        }
        self.total[r] *= s;
        self.scale[r] = 1.0;
    }

    #[inline(always)]
    pub(super) fn row_reset_uniform(&mut self, r: usize) {
        let slots = width(self.window[r]);
        let nc = self.n_clusters;
        let ok = &self.cluster_ok[r * nc..(r + 1) * nc];
        let n_feasible = ok.iter().filter(|&&ok| ok).count();
        // A machine mismatch could leave no feasible cluster; fall back
        // to all clusters rather than a degenerate all-zero row.
        let use_all = n_feasible == 0;
        let n_live = if use_all { nc } else { n_feasible };
        let per = 1.0 / (n_live * slots) as f64;
        for (cs, &ok) in self.cluster_sum[r * nc..(r + 1) * nc].iter_mut().zip(ok) {
            *cs = if use_all || ok {
                per * slots as f64
            } else {
                0.0
            };
        }
        let buf = densify(
            &mut self.rows[r],
            self.window[r],
            nc,
            self.n_slots,
            &mut self.counters,
        );
        let (w, ts) = split_mut(buf, slots);
        let sums = &self.cluster_sum[r * nc..(r + 1) * nc];
        for (cells, &cs) in w.chunks_exact_mut(slots).zip(sums) {
            cells.fill(if cs != 0.0 { per } else { 0.0 });
        }
        ts.fill(per * n_live as f64);
        self.total[r] = 1.0;
        self.scale[r] = 1.0;
    }

    /// Adds `amplitude · draws[k]` to every feasible in-window cell of
    /// row `r`, visiting clusters ascending and slots `lo..=hi` within
    /// each — the exact order (and arithmetic) of the per-cell NOISE
    /// loop.
    #[inline(always)]
    pub(super) fn row_noise_fill(&mut self, r: usize, amplitude: f64, draws: &[f64]) {
        assert!(
            amplitude.is_finite() && amplitude >= 0.0,
            "amplitude must be ≥ 0"
        );
        let nc = self.n_clusters;
        let base = r * nc;
        let width = width(self.window[r]);
        let ok = &self.cluster_ok[base..base + nc];
        let n_feasible = ok.iter().filter(|&&ok| ok).count();
        assert_eq!(
            draws.len(),
            n_feasible * width,
            "one draw per feasible cell"
        );
        let s = self.scale[r];
        // Stream each feasible cluster's cells with the marginals in
        // locals (same accumulation order as the per-cell path, so the
        // sums keep their exact bits).
        let sums = &mut self.cluster_sum[base..base + nc];
        let buf = densify(
            &mut self.rows[r],
            self.window[r],
            nc,
            self.n_slots,
            &mut self.counters,
        );
        let (bcells, bts) = split_mut(buf, width);
        let mut feasible_draws = draws.chunks_exact(width);
        let mut tot = self.total[r];
        for (c, csum) in sums.iter_mut().enumerate() {
            if !ok[c] {
                continue;
            }
            let wrow = &mut bcells[c * width..(c + 1) * width];
            let dspan = feasible_draws.next().expect("one draw per feasible cell");
            for ((w, ts), &dr) in wrow.iter_mut().zip(bts.iter_mut()).zip(dspan) {
                let raw_cur = *w;
                let value = (raw_cur * s + amplitude * dr).max(0.0);
                assert!(value.is_finite() && value >= 0.0, "weights are ≥ 0");
                let raw = value / s;
                let d = raw - raw_cur;
                if d != 0.0 {
                    *w = raw;
                    *ts += d;
                    *csum += d;
                    tot += d;
                }
            }
        }
        self.total[r] = tot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn isolated_leader_engages_on_a_clear_maximum() {
        for lo in [0, 3] {
            // Nine slots: two full lanes of four and a tail of one.
            for at in [0, 4, 8] {
                let mut tsum = [0.1; 9];
                tsum[at] = 0.6;
                let want = lo + at;
                assert_eq!(
                    isolated_leader(&tsum, lo, 1.0),
                    Some(want),
                    "lo {lo}, at {at}"
                );
                assert_eq!(band_chain(&tsum, lo, 1.0, 16), want);
            }
        }
        // A lone slot past 0 leads the implicit zero by more than the
        // margin.
        assert_eq!(isolated_leader(&[1e-9], 5, 1.0), Some(5));
    }

    #[test]
    fn isolated_leader_declines_within_the_margin() {
        for gap in [0.0, EPS / 2.0, EPS, 2.0 * EPS, 4.0 * EPS] {
            for lo in [0, 3] {
                let tsum = [0.1, 0.5 - gap, 0.5, 0.1];
                assert_eq!(
                    isolated_leader(&tsum, lo, 1.0),
                    None,
                    "gap {gap:e}, lo {lo}"
                );
                // The chain still answers: a lead of more than `EPS`
                // takes over, a smaller one leaves the earlier slot.
                let want = lo + if gap > EPS { 2 } else { 1 };
                assert_eq!(band_chain(&tsum, lo, 1.0, 16), want);
            }
        }
        // Within the margin of the implicit slot-0 zero.
        assert_eq!(isolated_leader(&[2.0 * EPS], 5, 1.0), None);
        // A NaN slot-0 marginal declines rather than guess.
        assert_eq!(isolated_leader(&[f64::NAN, 0.5], 0, 1.0), None);
    }
}
