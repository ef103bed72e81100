//! The preference map's rows: banded storage and every per-row
//! operation.
//!
//! Each row is either [`Row::Uniform`] — a closed form for the state
//! every instruction starts in and returns to after `reset_uniform`,
//! costing O(1) storage — or a [`Band`]: `n_clusters × width` cells
//! anchored at `lo`. Reads outside the band return exactly `0.0`;
//! absolute writes outside it grow the band (with an amortized margin,
//! clamped to `[0, n_slots)`); `set_window` shrinks it.
//!
//! Every per-row operation is written once, here, as a
//! [`PreferenceMap`] method taking a row index; the public entry points
//! in the parent module map an instruction id to its row and pass
//! through the one hook site. Each is **bit-exact** with a dense
//! `n_clusters × n_slots` row per instruction under identical op
//! histories — the *dense reference*, kept as the test model in
//! `crates/core/tests/support/reference_map.rs`: the dense row is zero
//! outside the band, `x + 0.0 == x` for the non-negative raw weights,
//! and all marginal summations here visit cells in the same order the
//! dense loops do, so skipping the zeros changes no partial sum.

use convergent_ir::ClusterId;

use super::{PreferenceMap, EPS, SCALE_FOLD_MAX, SCALE_FOLD_MIN};
use crate::telemetry::BandStats;

/// A dense block of `n_clusters × width` raw cells anchored at `lo`.
///
/// Cells and the per-slot time marginals live in **one** allocation:
/// rows densify by the thousand under NOISE, so halving the malloc
/// traffic (and keeping each row's marginals on the same cache lines
/// as its cells) is a measurable win on the compile-time profile.
#[derive(Clone, Debug)]
pub(super) struct Band {
    lo: u32,
    /// Band width in slots; `buf` holds `(n_clusters + 1) · width`.
    width: u32,
    /// Cluster-major cells — `(c, t)` lives at `c·width + (t − lo)` —
    /// followed by the `width` raw time marginals for the band slots.
    buf: Vec<f64>,
}

impl Band {
    /// The band form of a uniform row with raw cells `per` on the live
    /// clusters (nonzero `sums`) and raw time marginals `tsum`,
    /// anchored at `window`.
    fn uniform(per: f64, tsum: f64, window: (u32, u32), sums: &[f64]) -> Band {
        let (lo, hi) = window;
        let width = (hi - lo + 1) as usize;
        // One allocation, one pass: each region is written exactly
        // once (no zero-prefill of cells that get overwritten).
        let mut buf = Vec::with_capacity((sums.len() + 1) * width);
        for &cs in sums {
            let n = buf.len() + width;
            buf.resize(n, if cs != 0.0 { per } else { 0.0 });
        }
        let n = buf.len() + width;
        buf.resize(n, tsum);
        Band {
            lo,
            width: width as u32,
            buf,
        }
    }

    #[inline]
    fn width(&self) -> usize {
        self.width as usize
    }

    #[inline]
    fn hi(&self) -> u32 {
        self.lo + self.width - 1
    }

    #[inline]
    fn contains(&self, t: u32) -> bool {
        t >= self.lo && t <= self.hi()
    }

    /// The `n_clusters · width` cluster-major cells.
    #[inline]
    fn w(&self) -> &[f64] {
        &self.buf[..self.buf.len() - self.width as usize]
    }

    /// The `width` raw time marginals.
    #[inline]
    fn tsum(&self) -> &[f64] {
        let n = self.buf.len() - self.width as usize;
        &self.buf[n..]
    }

    /// The raw time marginal of any slot (exact zero outside the band).
    fn raw_time(&self, t: usize) -> f64 {
        if self.contains(t as u32) {
            self.tsum()[t - self.lo as usize]
        } else {
            0.0
        }
    }

    /// Mutable cells and time marginals, split out of the shared
    /// buffer.
    #[inline]
    fn parts_mut(&mut self) -> (&mut [f64], &mut [f64]) {
        let n = self.buf.len() - self.width as usize;
        self.buf.split_at_mut(n)
    }

    /// Grows the band to cover slot `t`, padding new cells with exact
    /// zeros. The growing side gets a margin of the current width
    /// (clamped to `[0, n_slots)`) so `k` consecutive out-of-band
    /// writes reallocate O(log k) times, not k. Returns whether the
    /// band actually grew — the telemetry band-event counter keys off
    /// it.
    fn grow(&mut self, n_clusters: usize, n_slots: usize, t: usize) -> bool {
        let width = self.width();
        let cur_lo = self.lo as usize;
        let cur_hi = cur_lo + width - 1;
        if (cur_lo..=cur_hi).contains(&t) {
            return false;
        }
        let new_lo = if t < cur_lo {
            t.saturating_sub(width)
        } else {
            cur_lo
        };
        let new_hi = if t > cur_hi {
            (t + width).min(n_slots - 1)
        } else {
            cur_hi
        };
        let new_w = new_hi - new_lo + 1;
        let off = cur_lo - new_lo;
        let mut buf = vec![0.0; (n_clusters + 1) * new_w];
        // Region `n_clusters` is the time marginals.
        for c in 0..=n_clusters {
            buf[c * new_w + off..c * new_w + off + width]
                .copy_from_slice(&self.buf[c * width..(c + 1) * width]);
        }
        self.lo = new_lo as u32;
        self.width = new_w as u32;
        self.buf = buf;
        true
    }

    /// Shrinks the band to exactly `[lo, hi]` (which it always covers —
    /// densification anchors at the window and growth only widens), in
    /// place, returning whether any discarded cell was nonzero.
    fn shrink(&mut self, n_clusters: usize, lo: u32, hi: u32) -> bool {
        let bw = self.width();
        debug_assert!(self.lo <= lo && hi <= self.hi());
        if self.lo == lo && self.hi() == hi {
            return false;
        }
        let shift = (lo - self.lo) as usize;
        let new_w = (hi - lo + 1) as usize;
        let w = self.w();
        let any_removed = (0..n_clusters)
            .any(|c| (0..bw).any(|k| (k < shift || k >= shift + new_w) && w[c * bw + k] != 0.0));
        // Compact ascending: region c's destination `c·new_w` never
        // overruns region c+1's source `(c+1)·bw + shift` (the time
        // marginals are region `n_clusters` of the shared buffer).
        for c in 0..=n_clusters {
            self.buf
                .copy_within(c * bw + shift..c * bw + shift + new_w, c * new_w);
        }
        self.buf.truncate((n_clusters + 1) * new_w);
        self.lo = lo;
        self.width = new_w as u32;
        any_removed
    }
}

/// One instruction's raw weights.
#[derive(Clone, Debug)]
pub(super) enum Row {
    /// Every live cell inside the window holds `per`; the raw time
    /// marginal is `tsum` on every window slot and `0` elsewhere. A
    /// cluster is live iff its raw cluster marginal is nonzero
    /// (`cluster_ok` is *not* consulted: `forbid_cluster` flips the
    /// flag before squashing the weights, so the flag can be ahead of
    /// the cell state).
    Uniform {
        per: f64,
        tsum: f64,
    },
    Band(Band),
}

impl Row {
    /// Raw `f64` weight cells stored: one for a uniform row,
    /// `n_clusters × width` for a band.
    pub(super) fn stored_cells(&self) -> usize {
        match self {
            Row::Uniform { .. } => 1,
            Row::Band(b) => b.w().len(),
        }
    }
}

/// Converts a `Uniform` row into an equivalent `Band` anchored at the
/// window (cells and marginals keep their exact bits) and returns the
/// band; bands are returned as they are.
#[inline]
fn densify<'r>(
    row: &'r mut Row,
    window: (u32, u32),
    sums: &[f64],
    stats: &mut BandStats,
) -> &'r mut Band {
    if let Row::Uniform { per, tsum } = *row {
        *row = Row::Band(Band::uniform(per, tsum, window, sums));
        stats.densified();
    }
    match row {
        Row::Band(b) => b,
        Row::Uniform { .. } => unreachable!("densify leaves a band"),
    }
}

/// A fresh `preferred_time` scan of `row` under window `window` and
/// pending scale `s`, computing exactly what the dense reference's
/// full-slot scan would (see the comments inline). Ties go to the
/// earliest slot.
///
/// The exact scan over a band is [`band_chain`], one dependent
/// compare chain. [`isolated_leader`] answers first, without the
/// chain, and it is exact: it answers only when one candidate's scaled
/// marginal `m` clears every other by more than `4·EPS + m·1e-14`,
/// which covers the `EPS` tie band plus every rounding in the chain's
/// `bestv·s + EPS`, and when `m ≥ 0`, so the exactly-zero slots past
/// the band cannot take over. The chain must then end on that
/// candidate; near ties it runs as before. Nothing is cached, so the
/// answer depends only on the row. In debug builds both run and must
/// agree, which makes every debug test run a differential.
#[inline(always)]
pub(super) fn scan_top_time(row: &Row, window: (u32, u32), s: f64, n_slots: usize) -> u32 {
    let best = match row {
        Row::Uniform { tsum, .. } => {
            let (lo, hi) = window;
            let v = *tsum;
            if lo > 0 {
                // Slot 0 (zero) leads; the first window slot
                // takes over iff it clears the tie band, and
                // later window slots only tie it.
                if v * s > EPS {
                    lo as usize
                } else {
                    0
                }
            } else if (hi as usize) + 1 < n_slots && 0.0 > v * s + EPS {
                // A (numerically) negative marginal hands the
                // lead to the first exactly-zero slot past the
                // window, as the dense scan would.
                hi as usize + 1
            } else {
                0
            }
        }
        Row::Band(b) => match isolated_leader(b, s) {
            Some(t) => {
                debug_assert_eq!(t, band_chain(b, s, n_slots), "isolated-max fast path");
                t
            }
            None => band_chain(b, s, n_slots),
        },
    };
    best as u32
}

/// The exact `preferred_time` scan of a band: slot 0 leads at first
/// (its marginal if the band starts there, else an exact zero), and a
/// later slot takes over only when `v·s > bestv·s + EPS`.
#[inline(always)]
fn band_chain(b: &Band, s: f64, n_slots: usize) -> usize {
    let lo = b.lo as usize;
    let tsum = b.tsum();
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
    let after = lo + b.width();
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
fn isolated_leader(b: &Band, s: f64) -> Option<usize> {
    let lo = b.lo as usize;
    let tsum = b.tsum();
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
        match &self.rows[r] {
            Row::Uniform { per, .. } => {
                let (lo, hi) = self.window[r];
                if (t as u32) >= lo && (t as u32) <= hi && self.sums(r)[c] != 0.0 {
                    *per
                } else {
                    0.0
                }
            }
            Row::Band(b) if b.contains(t as u32) => b.w()[c * b.width() + (t - b.lo as usize)],
            Row::Band(_) => 0.0,
        }
    }

    /// The raw time marginal — exactly the dense reference's
    /// `time_sum[t]` (zero outside the band, proven by the band
    /// invariant).
    #[inline]
    pub(super) fn raw_time(&self, r: usize, t: usize) -> f64 {
        match &self.rows[r] {
            Row::Uniform { tsum, .. } => {
                let (lo, hi) = self.window[r];
                if (t as u32) >= lo && (t as u32) <= hi {
                    *tsum
                } else {
                    0.0
                }
            }
            Row::Band(b) => b.raw_time(t),
        }
    }

    /// The current band extent (equals the window for rows still in
    /// uniform closed form).
    pub(super) fn row_band(&self, r: usize) -> (u32, u32) {
        match &self.rows[r] {
            Row::Uniform { .. } => self.window[r],
            Row::Band(b) => (b.lo, b.hi()),
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

    /// Shannon entropy (nats) of row `r`'s normalized cell
    /// distribution, in one sweep of the stored band (uniform rows in
    /// closed form): with `w = raw·s`, `H = ln T − (s·Σ raw·ln raw +
    /// s·ln s·Σ raw) / T`, so the scale factor multiplies once per row
    /// instead of once per cell.
    pub(super) fn entropy(&self, r: usize) -> f64 {
        let s = self.scale[r];
        let total = self.total[r] * s;
        if total <= 0.0 {
            return 0.0;
        }
        let (raw_sum, raw_wlnw) = match &self.rows[r] {
            Row::Uniform { per, .. } => {
                let (lo, hi) = self.window[r];
                let width = f64::from(hi - lo + 1);
                let live = self.sums(r).iter().filter(|&&cs| cs != 0.0).count() as f64;
                let cells = live * width;
                if *per > 0.0 && cells > 0.0 {
                    (cells * per, cells * per * per.ln())
                } else {
                    (0.0, 0.0)
                }
            }
            Row::Band(b) => {
                let mut raw_sum = 0.0;
                let mut raw_wlnw = 0.0;
                for &raw in b.w() {
                    if raw > 0.0 {
                        raw_sum += raw;
                        raw_wlnw += raw * raw.ln();
                    }
                }
                (raw_sum, raw_wlnw)
            }
        };
        let sum_wlnw = s * raw_wlnw + s * s.ln() * raw_sum;
        (total.ln() - sum_wlnw / total).max(0.0)
    }
}

/// The per-row mutations. None of these count or log; the hook site
/// (`PreferenceMap::mutate`, and `PreferenceMap::counted` for the bulk
/// operations, which log their per-cell decomposition instead) does.
/// Each body is always inlined into its public entry point.
impl PreferenceMap {
    /// Stores raw value `raw` at `(r, c, t)`, `delta` away from the old
    /// value, growing the band if `t` lies outside it.
    #[inline(always)]
    fn write_cell(&mut self, r: usize, c: usize, t: usize, raw: f64, delta: f64) {
        let nc = self.n_clusters;
        let base = r * nc;
        let b = densify(
            &mut self.rows[r],
            self.window[r],
            &self.cluster_sum[base..base + nc],
            &mut self.stats,
        );
        if b.grow(nc, self.n_slots, t) {
            self.stats.grew();
        }
        let width = b.width();
        let off = t - b.lo as usize;
        let (w, ts) = b.parts_mut();
        w[c * width + off] = raw;
        ts[off] += delta;
        self.cluster_sum[base + c] += delta;
        self.total[r] += delta;
    }

    #[inline(always)]
    pub(super) fn row_set(&mut self, r: usize, c: ClusterId, t: u32, value: f64) {
        assert!(value.is_finite() && value >= 0.0, "weights are ≥ 0");
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
        // `delta ≠ 0` implies the cell is nonzero, hence in the band
        // (or in a live uniform window, which densify anchors over), so
        // the write never grows the band.
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
        let nc = self.n_clusters;
        let base = r * nc;
        if let Row::Uniform { per, tsum } = &mut self.rows[r] {
            if factor == 1.0 || *per == 0.0 || self.cluster_sum[base + c] == 0.0 {
                // The dense loop would find every cell unchanged.
                return false;
            }
            if factor == 0.0 {
                // The cluster goes dead; the row stays uniform. The
                // per-slot delta the dense loop applies is the same on
                // every window slot, so one shared marginal suffices.
                *tsum += 0.0 - *per;
                self.cluster_sum[base + c] = 0.0;
                return true;
            }
        }
        let b = densify(
            &mut self.rows[r],
            self.window[r],
            &self.cluster_sum[base..base + nc],
            &mut self.stats,
        );
        let bw = b.width();
        let (w, ts) = b.parts_mut();
        let mut new_sum = 0.0;
        let mut changed = false;
        for (cell, ts) in w[c * bw..(c + 1) * bw].iter_mut().zip(ts.iter_mut()) {
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
            self.cluster_sum[base + c] = new_sum;
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
        let tt = t as usize;
        debug_assert!(tt < self.n_slots);
        let nc = self.n_clusters;
        let base = r * nc;
        if let Row::Uniform { per, .. } = &self.rows[r] {
            let (lo, hi) = self.window[r];
            let any_live = self.cluster_sum[base..base + nc].iter().any(|&v| v != 0.0);
            if factor == 1.0 || *per == 0.0 || !any_live || (t < lo || t > hi) {
                return; // dense: every cell at `t` unchanged
            }
        }
        let b = densify(
            &mut self.rows[r],
            self.window[r],
            &self.cluster_sum[base..base + nc],
            &mut self.stats,
        );
        if !b.contains(t) {
            return; // all cells at `t` are zero
        }
        let width = b.width();
        let off = tt - b.lo as usize;
        let old_sum = b.tsum()[off];
        let mut new_sum = 0.0;
        let mut changed = false;
        let (w, ts) = b.parts_mut();
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
        let (old_lo, old_hi) = self.window[r];
        let lo = lo.max(old_lo);
        let hi = hi.min(old_hi);
        assert!(lo <= hi, "window must be non-empty");
        self.window[r] = (lo, hi);
        let nc = self.n_clusters;
        let sums = &mut self.cluster_sum[r * nc..(r + 1) * nc];
        let any_removed = match &mut self.rows[r] {
            Row::Uniform { per, .. } => {
                let removed_slots = (old_hi - old_lo) != (hi - lo);
                removed_slots && *per != 0.0 && sums.iter().any(|&v| v != 0.0)
            }
            Row::Band(b) => b.shrink(nc, lo, hi),
        };
        if !any_removed {
            return;
        }
        // Rebuild each cluster marginal from the surviving cells in
        // ascending `t` order, exactly as the dense reference does (its
        // zeroed out-of-window cells contribute nothing bitwise).
        match &self.rows[r] {
            Row::Uniform { per, .. } => {
                let mut live_sum = 0.0;
                for _ in lo..=hi {
                    live_sum += *per;
                }
                for cs in sums.iter_mut().filter(|cs| **cs != 0.0) {
                    *cs = live_sum;
                }
            }
            Row::Band(b) => {
                for (cs, cells) in sums.iter_mut().zip(b.w().chunks_exact(b.width())) {
                    let mut sum = 0.0;
                    for &v in cells {
                        sum += v;
                    }
                    *cs = sum;
                }
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
        match &mut self.rows[r] {
            Row::Uniform { per, tsum } => {
                *per *= s;
                *tsum *= s;
            }
            Row::Band(b) => {
                // Cells and time marginals share the buffer; one sweep
                // scales both, in the same per-element arithmetic.
                for v in &mut b.buf {
                    *v *= s;
                }
            }
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
        let (lo, hi) = self.window[r];
        let nc = self.n_clusters;
        let ok = &self.cluster_ok[r * nc..(r + 1) * nc];
        let n_feasible = ok.iter().filter(|&&ok| ok).count();
        // A machine mismatch could leave no feasible cluster; fall back
        // to all clusters rather than a degenerate all-zero row.
        let use_all = n_feasible == 0;
        let n_live = if use_all { nc } else { n_feasible };
        let slots = (hi - lo + 1) as usize;
        let per = 1.0 / (n_live * slots) as f64;
        for (cs, &ok) in self.cluster_sum[r * nc..(r + 1) * nc].iter_mut().zip(ok) {
            *cs = if use_all || ok {
                per * slots as f64
            } else {
                0.0
            };
        }
        // Back to the O(1) closed form — this also releases the band.
        self.rows[r] = Row::Uniform {
            per,
            tsum: per * n_live as f64,
        };
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
        let (lo, hi) = self.window[r];
        let width = (hi - lo + 1) as usize;
        let ok = &self.cluster_ok[base..base + nc];
        let n_feasible = ok.iter().filter(|&&ok| ok).count();
        assert_eq!(
            draws.len(),
            n_feasible * width,
            "one draw per feasible cell"
        );
        let s = self.scale[r];
        // Densify once up front: the first nonzero delta would force it
        // anyway (draws are almost never all zero), and paying it here
        // lets every cluster stream its full span with no per-cell
        // repr re-match. Visible values are unchanged by the
        // conversion, so the result stays bit-identical to the
        // per-cell loop's.
        let sums = &mut self.cluster_sum[base..base + nc];
        let b = densify(&mut self.rows[r], (lo, hi), sums, &mut self.stats);
        // The band always covers the window, so in-window writes never
        // grow it: stream straight over the flat cells with the
        // marginals in locals (same accumulation order as the per-cell
        // path, so the sums keep their exact bits).
        let bw = b.width();
        let lo_off = lo as usize - b.lo as usize;
        let hi_off = hi as usize - b.lo as usize;
        let (bcells, bts) = b.parts_mut();
        let mut feasible_draws = draws.chunks_exact(width);
        let mut tot = self.total[r];
        for (c, csum) in sums.iter_mut().enumerate() {
            if !ok[c] {
                continue;
            }
            let wrow = &mut bcells[c * bw + lo_off..=c * bw + hi_off];
            let btsum = &mut bts[lo_off..=hi_off];
            let dspan = feasible_draws.next().expect("one draw per feasible cell");
            for ((w, ts), &dr) in wrow.iter_mut().zip(btsum.iter_mut()).zip(dspan) {
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

    /// A one-cluster band at `lo` whose time marginals are `tsum`.
    fn band(lo: u32, tsum: &[f64]) -> Band {
        Band {
            lo,
            width: tsum.len() as u32,
            buf: [tsum, tsum].concat(),
        }
    }

    #[test]
    fn isolated_leader_engages_on_a_clear_maximum() {
        for lo in [0, 3] {
            // Nine slots: two full lanes of four and a tail of one.
            for at in [0, 4, 8] {
                let mut tsum = [0.1; 9];
                tsum[at] = 0.6;
                let b = band(lo, &tsum);
                let want = lo as usize + at;
                assert_eq!(isolated_leader(&b, 1.0), Some(want), "lo {lo}, at {at}");
                assert_eq!(band_chain(&b, 1.0, 16), want);
            }
        }
        // A lone slot past 0 leads the implicit zero by more than the
        // margin.
        assert_eq!(isolated_leader(&band(5, &[1e-9]), 1.0), Some(5));
    }

    #[test]
    fn isolated_leader_declines_within_the_margin() {
        for gap in [0.0, EPS / 2.0, EPS, 2.0 * EPS, 4.0 * EPS] {
            for lo in [0, 3] {
                let b = band(lo, &[0.1, 0.5 - gap, 0.5, 0.1]);
                assert_eq!(isolated_leader(&b, 1.0), None, "gap {gap:e}, lo {lo}");
                // The chain still answers: a lead of more than `EPS`
                // takes over, a smaller one leaves the earlier slot.
                let want = lo as usize + if gap > EPS { 2 } else { 1 };
                let row = Row::Band(b);
                assert_eq!(scan_top_time(&row, (lo, lo + 3), 1.0, 16) as usize, want);
            }
        }
        // Within the margin of the implicit slot-0 zero.
        assert_eq!(isolated_leader(&band(5, &[2.0 * EPS]), 1.0), None);
        // A NaN slot-0 marginal declines rather than guess.
        assert_eq!(isolated_leader(&band(0, &[f64::NAN, 0.5]), 1.0), None);
    }
}
