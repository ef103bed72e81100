//! The preference map — the paper's central data structure.
//!
//! Section 3 of the paper: preferences are "a three dimensional matrix
//! `W[i,c,t]`, where `i` spans over all instructions in the scheduling
//! unit, `c` spans over the clusters in the architecture, and `t` spans
//! over time", with "as many time slots as the critical-path length".
//! Two invariants are maintained:
//!
//! ```text
//! ∀ i,t,c : 0 ≤ W[i,t,c] ≤ 1
//! ∀ i     : Σ_{t,c} W[i,t,c] = 1
//! ```
//!
//! Passes talk to each other exclusively by reading and nudging these
//! weights; [`PreferenceMap`] provides the basic operations the paper
//! lists (scaling, normalization, per-dimension combination) plus the
//! derived quantities (`preferred_cluster`, `preferred_time`,
//! `runnerup_cluster`, `confidence`). Marginal sums over time and
//! clusters are maintained incrementally so the derived quantities are
//! cheap, as the paper prescribes: each is a fresh scan of one row's
//! C cluster marginals or its band of time marginals, so its answer
//! depends only on the map's state, never on which reads came before.
//!
//! # One row implementation
//!
//! [`PreferenceMap`] owns the per-instruction arrays (rows, marginals,
//! totals, scale factors, windows, feasibility flags) plus the
//! recording log and the always-on telemetry counters. Every per-row
//! operation is written once, in the private `row` module, as a map
//! method taking a row index; the public methods here take an
//! [`InstrId`]. Each primitive mutation passes one hook site,
//! `PreferenceMap::mutate`, which appends it to the recording log and
//! then counts it by op kind.
//!
//! # The banded representation
//!
//! The critical-path length grows with the unit, so a dense
//! `n_clusters × n_slots` row per instruction makes every whole-map
//! operation O(N·C·cp_len) ≈ O(N²·C). But after INITTIME each
//! instruction is confined to its feasible `[lo, hi]` window — a slack
//! band that is typically narrow and independent of the unit size; the
//! paper's INITTIME "squashes to zero all the weights outside this
//! range". The map therefore stores, per instruction, exactly the cells
//! of that window, its *band*:
//!
//! * reads outside the window return exactly `0.0`;
//! * a nonzero absolute write outside it panics (the `CS060` rule that
//!   every builtin pass proves statically), and a zero one is a no-op;
//! * [`PreferenceMap::set_window`] shrinks the band with the window;
//! * a row with no cell written yet is answered in closed form (every
//!   cluster live, `1/(C·n_slots)` in every cell of its window); the
//!   first write of a cell or feasibility flag densifies it at its
//!   window, and `reset_uniform` refills the band in place.
//!
//! Whole-map work (`normalize_all`, `reset_uniform`,
//! `set_cluster_marginal`, marginal maintenance, argmax scans,
//! `materialize`) drops to O(Σᵢ C·bandᵢ). Every operation is
//! **bit-for-bit identical** to a dense `n_clusters × n_slots` row
//! under the same op sequence: the dense layout lives on as the test
//! reference model (`crates/core/tests/support/reference_map.rs`), and
//! the differential tests assert exact `f64` equality against it,
//! including on the op streams of every builtin pass.
//!
//! # The lazy-scale invariant
//!
//! Normalization runs after *every* pass, so an eager implementation
//! rewrites the entire map O(N·C·T) times per schedule. The map
//! instead stores, per instruction, *raw* weights plus a scalar
//! `scale[i]`, with the invariant that the externally visible weight is
//! always
//!
//! ```text
//! W[i,c,t] = w_raw[i,c,t] · scale[i]
//! ```
//!
//! (and likewise for the cached marginals and total). Every read
//! multiplies by `scale[i]`; [`PreferenceMap::normalize`] then only has
//! to set `scale[i] = 1 / total_raw[i]` — O(1) — and
//! [`PreferenceMap::normalize_all`] is O(N) in the common
//! all-totals-positive case. Writes compose with the pending scale:
//! multiplicative operations (`scale`, `scale_cluster`, `scale_time`)
//! act on the raw values directly (they commute with the scalar), while
//! absolute writes (`set`, and `add` via `set`) divide the incoming
//! value by `scale[i]`. Raw magnitudes drift as passes multiply weight
//! in and out, so `normalize` folds the scalar back into the stored
//! row ([`PreferenceMap::materialize`]) whenever it leaves
//! `[SCALE_FOLD_MIN, SCALE_FOLD_MAX]`, keeping every quantity
//! comfortably inside `f64` range. `materialize` is also the escape
//! hatch for external readers that want plain eagerly-normalized rows.

mod row;

use convergent_ir::{ClusterId, Cycle, InstrId};

use row::Row;

use crate::telemetry::{CounterTotals, MapCounters, OpKind};

/// Weights below this threshold are treated as zero when normalizing,
/// and argmax scans treat values within it of the leader as ties.
pub(crate) const EPS: f64 = 1e-12;

/// Bounds on the pending scale factor; `normalize` folds the factor
/// into the stored row (`materialize`) when it leaves this range so
/// raw magnitudes never approach `f64` overflow/underflow.
pub(crate) const SCALE_FOLD_MIN: f64 = 1e-90;
/// See [`SCALE_FOLD_MIN`].
pub(crate) const SCALE_FOLD_MAX: f64 = 1e90;

/// The id of cluster index `c` (`PreferenceMap::new` bounds the
/// cluster count below `u16::MAX`).
fn cluster_id(c: usize) -> ClusterId {
    ClusterId::new(c as u16)
}

/// One state-changing [`PreferenceMap`] operation, as captured by the
/// recording proxy ([`PreferenceMap::record`]).
///
/// The log contains only *primitive* operations: compound entry points
/// ([`PreferenceMap::add`], [`PreferenceMap::set_cluster_marginal`])
/// decompose into the primitives they perform, so replaying a log with
/// [`WeightOp::apply`] onto an identically constructed map reproduces
/// the original bit for bit. The replay differentials and the
/// contract tests' recorder (the empirical reference the static
/// prover is checked against) use these logs to inspect pass behaviour
/// (window-respecting writes, determinism, preplacement monotonicity)
/// without instrumenting the passes themselves.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WeightOp {
    /// `set(i, c, t, value)` — an absolute write.
    Set {
        /// Instruction.
        i: InstrId,
        /// Cluster.
        c: ClusterId,
        /// Time slot.
        t: u32,
        /// The stored value.
        value: f64,
    },
    /// `scale(i, c, t, factor)`.
    Scale {
        /// Instruction.
        i: InstrId,
        /// Cluster.
        c: ClusterId,
        /// Time slot.
        t: u32,
        /// Multiplier.
        factor: f64,
    },
    /// `scale_cluster(i, c, factor)`.
    ScaleCluster {
        /// Instruction.
        i: InstrId,
        /// Cluster.
        c: ClusterId,
        /// Multiplier.
        factor: f64,
    },
    /// `scale_time(i, t, factor)`.
    ScaleTime {
        /// Instruction.
        i: InstrId,
        /// Time slot.
        t: u32,
        /// Multiplier.
        factor: f64,
    },
    /// `set_window(i, lo, hi)` — the *requested* window, before
    /// intersection with any previously recorded window.
    SetWindow {
        /// Instruction.
        i: InstrId,
        /// Requested first feasible slot.
        lo: u32,
        /// Requested last feasible slot.
        hi: u32,
    },
    /// `forbid_cluster(i, c)`.
    ForbidCluster {
        /// Instruction.
        i: InstrId,
        /// The forbidden cluster.
        c: ClusterId,
    },
    /// `normalize(i)`.
    Normalize {
        /// Instruction.
        i: InstrId,
    },
    /// `reset_uniform(i)`.
    ResetUniform {
        /// Instruction.
        i: InstrId,
    },
}

impl WeightOp {
    /// Replays this operation onto `map`.
    pub fn apply(&self, map: &mut PreferenceMap) {
        match *self {
            WeightOp::Set { i, c, t, value } => map.set(i, c, t, value),
            WeightOp::Scale { i, c, t, factor } => map.scale(i, c, t, factor),
            WeightOp::ScaleCluster { i, c, factor } => map.scale_cluster(i, c, factor),
            WeightOp::ScaleTime { i, t, factor } => map.scale_time(i, t, factor),
            WeightOp::SetWindow { i, lo, hi } => map.set_window(i, lo, hi),
            WeightOp::ForbidCluster { i, c } => map.forbid_cluster(i, c),
            WeightOp::Normalize { i } => map.normalize(i),
            WeightOp::ResetUniform { i } => map.reset_uniform(i),
        }
    }

    /// The instruction this operation touches.
    #[must_use]
    #[inline]
    pub fn instr(&self) -> InstrId {
        match *self {
            WeightOp::Set { i, .. }
            | WeightOp::Scale { i, .. }
            | WeightOp::ScaleCluster { i, .. }
            | WeightOp::ScaleTime { i, .. }
            | WeightOp::SetWindow { i, .. }
            | WeightOp::ForbidCluster { i, .. }
            | WeightOp::Normalize { i }
            | WeightOp::ResetUniform { i } => i,
        }
    }

    /// The telemetry counter this operation increments.
    #[inline]
    fn kind(&self) -> OpKind {
        match self {
            WeightOp::Set { .. } => OpKind::Set,
            WeightOp::Scale { .. } => OpKind::Scale,
            WeightOp::ScaleCluster { .. } => OpKind::ScaleCluster,
            WeightOp::ScaleTime { .. } => OpKind::ScaleTime,
            WeightOp::SetWindow { .. } => OpKind::SetWindow,
            WeightOp::ForbidCluster { .. } => OpKind::ForbidCluster,
            WeightOp::Normalize { .. } => OpKind::Normalize,
            WeightOp::ResetUniform { .. } => OpKind::ResetUniform,
        }
    }
}

/// An `instructions × clusters × time` preference map with banded
/// storage and lazy normalization (see the module docs).
///
/// # Example
///
/// ```
/// use convergent_core::PreferenceMap;
/// use convergent_ir::{ClusterId, InstrId};
///
/// let mut w = PreferenceMap::new(2, 4, 10);
/// let i = InstrId::new(0);
/// // Initially uniform: no preference, confidence 1.
/// assert_eq!(w.confidence(i), 1.0);
/// // Nudge instruction 0 toward cluster 2 and re-normalize.
/// w.scale_cluster(i, ClusterId::new(2), 5.0);
/// w.normalize(i);
/// assert_eq!(w.preferred_cluster(i), ClusterId::new(2));
/// assert!(w.confidence(i) > 1.0);
/// ```
#[derive(Clone, Debug)]
pub struct PreferenceMap {
    n_clusters: usize,
    n_slots: usize,
    rows: Vec<Row>,
    /// Raw cluster marginals, flat `n_instrs × n_clusters`.
    cluster_sum: Vec<f64>,
    total: Vec<f64>,
    /// Pending per-instruction normalization factor.
    scale: Vec<f64>,
    window: Vec<(u32, u32)>,
    /// Feasibility flags, flat `n_instrs × n_clusters`.
    cluster_ok: Vec<bool>,
    /// Reused by `set_cluster_marginal` to avoid per-call allocation.
    scratch: Vec<f64>,
    /// When present, every primitive mutation is appended here (the
    /// recording proxy; see [`PreferenceMap::record`]).
    log: Option<Vec<WeightOp>>,
    /// Telemetry hot-path counters, always on.
    counters: MapCounters,
}

impl PreferenceMap {
    /// Creates a map with uniform preferences.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero, or if `n_clusters` is
    /// `u16::MAX` or more.
    #[must_use]
    pub fn new(n_instrs: usize, n_clusters: usize, n_slots: usize) -> Self {
        assert!(n_instrs > 0, "need at least one instruction");
        assert!(n_clusters > 0, "need at least one cluster");
        assert!(n_slots > 0, "need at least one time slot");
        assert!(n_clusters < usize::from(u16::MAX), "too many clusters");
        let per = row::uniform_cell(n_clusters, n_slots);
        PreferenceMap {
            n_clusters,
            n_slots,
            rows: vec![Row::Untouched; n_instrs],
            cluster_sum: vec![per * n_slots as f64; n_instrs * n_clusters],
            total: vec![1.0; n_instrs],
            scale: vec![1.0; n_instrs],
            window: vec![(0, n_slots as u32 - 1); n_instrs],
            cluster_ok: vec![true; n_instrs * n_clusters],
            scratch: Vec::new(),
            log: None,
            counters: MapCounters::default(),
        }
    }

    /// Snapshot of the hot-path counters accumulated so far (weight
    /// ops by kind and band densifications); referee/boundary fields
    /// stay zero — the driver and harnesses own those. Counting never
    /// changes weights.
    #[must_use]
    pub fn counter_totals(&self) -> CounterTotals {
        self.counters.totals()
    }

    /// The one hook site of the primitive mutators: logs `op` while
    /// recording, then runs `body` (`op`'s row operation) on `op`'s
    /// row and counts it. Always inlined, like the row bodies it runs.
    #[inline(always)]
    fn mutate(&mut self, op: WeightOp, body: impl FnOnce(&mut Self, usize)) {
        if let Some(log) = &mut self.log {
            log.push(op);
        }
        self.counted(op.kind(), op.instr().index(), body);
    }

    /// Runs `body` on row `r` and counts it as one `kind` op. The bulk
    /// row operations enter here directly: they log their per-cell
    /// decomposition instead of a row op.
    #[inline(always)]
    fn counted(&mut self, kind: OpKind, r: usize, body: impl FnOnce(&mut Self, usize)) {
        body(self, r);
        self.counters.op(kind);
        debug_assert!(self.band_fits_window(r), "row {r}'s band is not its window");
    }

    /// Number of instructions.
    #[must_use]
    pub fn n_instrs(&self) -> usize {
        self.rows.len()
    }

    /// Number of clusters.
    #[must_use]
    pub fn n_clusters(&self) -> usize {
        self.n_clusters
    }

    /// Number of time slots (the critical-path length).
    #[must_use]
    pub fn n_slots(&self) -> usize {
        self.n_slots
    }

    /// The weight `W[i, c, t]`.
    #[must_use]
    pub fn get(&self, i: InstrId, c: ClusterId, t: u32) -> f64 {
        self.raw(i.index(), c.index(), t as usize) * self.scale[i.index()]
    }

    /// Sets `W[i, c, t]`, updating marginals. A zero written outside
    /// `i`'s window is a no-op.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or not finite, or nonzero with `t`
    /// outside `i`'s window.
    pub fn set(&mut self, i: InstrId, c: ClusterId, t: u32, value: f64) {
        self.mutate(WeightOp::Set { i, c, t, value }, |m, r| {
            m.row_set(r, c, t, value)
        });
    }

    /// Adds `delta` to `W[i, c, t]`, clamping at zero.
    ///
    /// # Panics
    ///
    /// Panics if the sum is nonzero with `t` outside `i`'s window.
    pub fn add(&mut self, i: InstrId, c: ClusterId, t: u32, delta: f64) {
        let cur = self.get(i, c, t);
        self.set(i, c, t, (cur + delta).max(0.0));
    }

    /// Multiplies `W[i, c, t]` by `factor` (≥ 0).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale(&mut self, i: InstrId, c: ClusterId, t: u32, factor: f64) {
        self.mutate(WeightOp::Scale { i, c, t, factor }, |m, r| {
            m.row_scale(r, c, t, factor)
        });
    }

    /// Multiplies every time slot of `(i, c)` by `factor` — O(band)
    /// on the banded layout.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale_cluster(&mut self, i: InstrId, c: ClusterId, factor: f64) {
        self.mutate(WeightOp::ScaleCluster { i, c, factor }, |m, r| {
            m.row_scale_cluster(r, c, factor)
        });
    }

    /// Multiplies every cluster's weight at time `t` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scale_time(&mut self, i: InstrId, t: u32, factor: f64) {
        self.mutate(WeightOp::ScaleTime { i, t, factor }, |m, r| {
            m.row_scale_time(r, t, factor)
        });
    }

    /// Restricts `i` to time slots `[lo, hi]`, zeroing all weight
    /// outside and *intersecting* the recorded window with any window
    /// set earlier — a feasibility constraint, once established, can
    /// only tighten. `i`'s band shrinks with the window.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, `hi` is out of range, or the intersection
    /// with the previously recorded window is empty.
    pub fn set_window(&mut self, i: InstrId, lo: u32, hi: u32) {
        self.mutate(WeightOp::SetWindow { i, lo, hi }, |m, r| {
            m.row_set_window(r, lo, hi)
        });
    }

    /// The feasible `[lo, hi]` window of `i`.
    #[must_use]
    pub fn window(&self, i: InstrId) -> (u32, u32) {
        self.window[i.index()]
    }

    /// Marks cluster `c` as unable to execute `i`, zeroing its weight.
    pub fn forbid_cluster(&mut self, i: InstrId, c: ClusterId) {
        self.mutate(WeightOp::ForbidCluster { i, c }, |m, r| {
            m.row_forbid_cluster(r, c)
        });
    }

    /// Returns `true` if cluster `c` may execute `i`.
    #[must_use]
    pub fn cluster_feasible(&self, i: InstrId, c: ClusterId) -> bool {
        self.cluster_ok[i.index() * self.n_clusters + c.index()]
    }

    /// The cluster marginal `Σ_t W[i, c, t]`.
    #[must_use]
    pub fn cluster_weight(&self, i: InstrId, c: ClusterId) -> f64 {
        self.cluster_sum[i.index() * self.n_clusters + c.index()] * self.scale[i.index()]
    }

    /// The time marginal `Σ_c W[i, c, t]`.
    #[must_use]
    pub fn time_weight(&self, i: InstrId, t: u32) -> f64 {
        self.raw_time(i.index(), t as usize) * self.scale[i.index()]
    }

    /// Total weight of `i` (1 when normalized).
    #[must_use]
    pub fn total(&self, i: InstrId) -> f64 {
        self.total[i.index()] * self.scale[i.index()]
    }

    /// Writes every instruction's normalized cluster marginal into
    /// `out` (row-major `n_instrs × n_clusters`) in one streaming
    /// sweep — bit-exact with filling each entry from
    /// `cluster_weight(i, c) / total(i).max(f64::MIN_POSITIVE)`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_instrs * n_clusters`.
    pub fn cluster_marginals_into(&self, out: &mut [f64]) {
        assert_eq!(
            out.len(),
            self.n_instrs() * self.n_clusters,
            "out must hold n_instrs x n_clusters marginals"
        );
        let nc = self.n_clusters;
        let rows = out
            .chunks_exact_mut(nc)
            .zip(self.cluster_sum.chunks_exact(nc));
        for ((row, sums), (&total, &s)) in rows.zip(self.total.iter().zip(&self.scale)) {
            let tot = (total * s).max(f64::MIN_POSITIVE);
            for (o, &cs) in row.iter_mut().zip(sums) {
                *o = cs * s / tot;
            }
        }
    }

    /// `argmax_c Σ_t W[i, c, t]` — the paper's `preferred_cluster`.
    /// Ties break toward the lowest cluster id.
    #[must_use]
    pub fn preferred_cluster(&self, i: InstrId) -> ClusterId {
        cluster_id(self.top_cluster(i.index()))
    }

    /// The second-best cluster, or `None` on single-cluster machines.
    #[must_use]
    pub fn runnerup_cluster(&self, i: InstrId) -> Option<ClusterId> {
        self.top2(i.index()).1.map(cluster_id)
    }

    /// `argmax_t Σ_c W[i, c, t]` — the paper's `preferred_time`.
    /// Ties break toward the earliest slot.
    #[must_use]
    pub fn preferred_time(&self, i: InstrId) -> Cycle {
        Cycle::new(self.top_time(i.index()))
    }

    /// The paper's confidence: the ratio of the top two cluster
    /// marginals. Returns `f64::INFINITY` when there is no runner-up
    /// or its weight is (numerically) zero.
    #[must_use]
    pub fn confidence(&self, i: InstrId) -> f64 {
        let (top, second) = self.top2(i.index());
        match second.map(|c| self.cluster_weight(i, cluster_id(c))) {
            Some(second) if second > EPS => self.cluster_weight(i, cluster_id(top)) / second,
            _ => f64::INFINITY,
        }
    }

    /// Renormalizes `i` so its weights sum to 1 — O(1): only the
    /// pending scale factor changes (see the module docs). If every
    /// weight was squashed to (numerical) zero, the distribution resets
    /// to uniform over the instruction's feasible window and clusters,
    /// so feasibility decisions survive aggressive scaling.
    pub fn normalize(&mut self, i: InstrId) {
        self.mutate(WeightOp::Normalize { i }, |m, r| m.row_normalize(r));
    }

    /// Folds `i`'s pending scale factor into its stored row, leaving
    /// every visible value unchanged and `scale[i] == 1`. Call this
    /// before handing raw rows to code that bypasses the accessors.
    pub fn materialize(&mut self, i: InstrId) {
        self.row_materialize(i.index());
    }

    /// Resets `i` to a uniform distribution over its feasible window
    /// and clusters, refilling its band in place.
    pub fn reset_uniform(&mut self, i: InstrId) {
        self.mutate(WeightOp::ResetUniform { i }, |m, r| m.row_reset_uniform(r));
    }

    /// Renormalizes every instruction — O(N) when every total is
    /// positive, since each `normalize` only updates the scale factor.
    pub fn normalize_all(&mut self) {
        for i in 0..self.n_instrs() {
            self.normalize(InstrId::new(i as u32));
        }
    }

    /// Reshapes `i`'s cluster marginal to `target` (one entry per
    /// cluster; will be normalized internally), preserving each
    /// cluster's time profile. Clusters whose current weight is zero
    /// but whose target is positive receive a uniform time profile
    /// over the feasible window. Infeasible clusters stay at zero.
    ///
    /// This is the paper's "linear combination … only along the space
    /// dimension", used by PATHPROP.
    ///
    /// # Panics
    ///
    /// Panics if `target.len() != n_clusters`.
    pub fn set_cluster_marginal(&mut self, i: InstrId, target: &[f64]) {
        let n_clusters = self.n_clusters();
        assert_eq!(target.len(), n_clusters, "one target per cluster");
        let mut masked = std::mem::take(&mut self.scratch);
        masked.clear();
        masked.extend((0..n_clusters).map(|c| {
            if self.cluster_feasible(i, ClusterId::new(c as u16)) {
                target[c].max(0.0)
            } else {
                0.0
            }
        }));
        let sum: f64 = masked.iter().sum();
        if sum <= EPS {
            self.scratch = masked;
            return; // nothing expressible: leave unchanged
        }
        let (lo, hi) = self.window(i);
        let slots = (hi - lo + 1) as f64;
        for c in 0..n_clusters {
            let cid = ClusterId::new(c as u16);
            let want = masked[c] / sum;
            let cur = self.cluster_weight(i, cid);
            if cur > EPS {
                self.scale_cluster(i, cid, want / cur);
            } else if want > EPS {
                for t in lo..=hi {
                    self.set(i, cid, t, want / slots);
                }
            }
        }
        self.normalize(i);
        self.scratch = masked;
    }

    /// Starts (or restarts) the recording proxy: every subsequent
    /// primitive mutation is appended to an internal [`WeightOp`] log
    /// until [`PreferenceMap::take_recording`] is called. Recording
    /// costs one branch per mutation when off and one `Vec` push when
    /// on; reads are never logged.
    pub fn record(&mut self) {
        self.log = Some(Vec::new());
    }

    /// Stops recording and returns the captured log (empty if
    /// [`PreferenceMap::record`] was never called).
    pub fn take_recording(&mut self) -> Vec<WeightOp> {
        self.log.take().unwrap_or_default()
    }

    /// `true` while the recording proxy is active.
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.log.is_some()
    }

    /// Checks both paper invariants to `tolerance`, plus the internal
    /// bookkeeping (marginals and total vs. the stored cells),
    /// reporting the first violation instead of panicking — the
    /// contract tests' recorder turns the message into a `CS062`
    /// diagnostic.
    ///
    /// # Errors
    ///
    /// Returns a description of the first broken invariant.
    pub fn check_invariants(&self, tolerance: f64) -> Result<(), String> {
        for i in 0..self.n_instrs() {
            let id = InstrId::new(i as u32);
            let mut sum = 0.0;
            for c in 0..self.n_clusters() {
                let mut csum = 0.0;
                for t in 0..self.n_slots() {
                    let v = self.get(id, ClusterId::new(c as u16), t as u32);
                    if !(0.0 - tolerance..=1.0 + tolerance).contains(&v) {
                        return Err(format!("W[i{i},c{c},t{t}] = {v} out of [0,1]"));
                    }
                    sum += v;
                    csum += v;
                }
                let cw = self.cluster_weight(id, ClusterId::new(c as u16));
                if (cw - csum).abs() > tolerance {
                    return Err(format!(
                        "cluster marginal {cw} != recomputed {csum} for i{i},c{c}"
                    ));
                }
            }
            for t in 0..self.n_slots() {
                let tsum: f64 = (0..self.n_clusters())
                    .map(|c| self.get(id, ClusterId::new(c as u16), t as u32))
                    .sum();
                let tw = self.time_weight(id, t as u32);
                if (tw - tsum).abs() > tolerance {
                    return Err(format!(
                        "time marginal {tw} != recomputed {tsum} for i{i},t{t}"
                    ));
                }
            }
            if (sum - 1.0).abs() > tolerance {
                return Err(format!("Σ W[i{i}] = {sum}, expected 1"));
            }
            // Marginal bookkeeping must agree with the stored cells.
            let tot = self.total(id);
            if (tot - sum).abs() > tolerance {
                return Err(format!("cached total {tot} != recomputed {sum} for i{i}"));
            }
        }
        Ok(())
    }

    /// Checks both paper invariants to `tolerance`, plus the internal
    /// bookkeeping (marginals and total vs. the stored cells); used by
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics (with context) if an invariant is broken.
    pub fn assert_invariants(&self, tolerance: f64) {
        if let Err(msg) = self.check_invariants(tolerance) {
            panic!("{msg}");
        }
    }

    // ---- bulk row operations ----
    //
    // Each bulk method is bit-exact with the per-cell decomposition its
    // doc comment names: same visiting order, same arithmetic. While the
    // recording proxy is active they *perform* the decomposition, so
    // logs stay replayable from primitive [`WeightOp`]s alone.

    /// Adds `amplitude · draws[k]` to every feasible in-window cell of
    /// `i`, visiting clusters in ascending order and time slots
    /// `lo..=hi` within each cluster — bit-exact with the per-cell
    /// NOISE loop (one `draws` entry per feasible cell, in that
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if `amplitude` is negative or not finite, or if
    /// `draws.len()` is not `feasible_clusters · window_width`.
    pub fn noise_fill(&mut self, i: InstrId, amplitude: f64, draws: &[f64]) {
        if self.log.is_none() {
            self.counted(OpKind::RowBatch, i.index(), |m, r| {
                m.row_noise_fill(r, amplitude, draws)
            });
            return;
        }
        let (lo, hi) = self.window(i);
        let mut k = 0usize;
        for c in 0..self.n_clusters() {
            let cid = ClusterId::new(c as u16);
            if !self.cluster_feasible(i, cid) {
                continue;
            }
            for t in lo..=hi {
                self.add(i, cid, t, amplitude * draws[k]);
                k += 1;
            }
        }
        assert_eq!(k, draws.len(), "one draw per feasible cell");
    }

    /// Applies `scale_cluster(i, c, factors[c])` for every cluster in
    /// one sweep over the row — bit-exact with the per-cluster
    /// [`PreferenceMap::scale_cluster`] calls.
    ///
    /// # Panics
    ///
    /// Panics if `factors.len() != n_clusters` or a factor is negative
    /// or not finite.
    pub fn scale_clusters_row(&mut self, i: InstrId, factors: &[f64]) {
        if self.log.is_none() {
            self.counted(OpKind::RowBatch, i.index(), |m, r| {
                m.row_scale_clusters(r, factors)
            });
            return;
        }
        assert_eq!(factors.len(), self.n_clusters(), "one factor per cluster");
        for (c, &f) in factors.iter().enumerate() {
            self.scale_cluster(i, ClusterId::new(c as u16), f);
        }
    }

    /// The paper's sharpening step `W[i, tᵢ, cᵢ] ← factor ·
    /// W[i, tᵢ, cᵢ]`: exactly `scale(i, preferred_cluster(i),
    /// preferred_time(i), factor)`, so a recording map logs a
    /// replayable primitive [`WeightOp::Scale`].
    pub fn reinforce_preferred(&mut self, i: InstrId, factor: f64) {
        let c = self.preferred_cluster(i);
        let t = self.preferred_time(i);
        self.scale(i, c, t.get(), factor);
    }

    /// One COMM row visit: [`PreferenceMap::scale_clusters_row`]
    /// followed — when `reinforce` is set — by
    /// [`PreferenceMap::reinforce_preferred`].
    pub fn comm_row(&mut self, i: InstrId, factors: &[f64], reinforce: Option<f64>) {
        self.scale_clusters_row(i, factors);
        if let Some(f) = reinforce {
            self.reinforce_preferred(i, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn i(k: u32) -> InstrId {
        InstrId::new(k)
    }

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    #[test]
    fn uniform_initialization() {
        let w = PreferenceMap::new(3, 4, 5);
        w.assert_invariants(1e-9);
        assert_eq!(w.get(i(0), c(0), 0), 1.0 / 20.0);
        assert_eq!(w.cluster_weight(i(1), c(2)), 0.25);
        assert_eq!(w.time_weight(i(2), 3), 0.2);
        assert_eq!(w.confidence(i(0)), 1.0);
        assert_eq!(w.preferred_cluster(i(0)), c(0)); // tie → lowest
        assert_eq!(w.preferred_time(i(0)), Cycle::ZERO);
    }

    #[test]
    fn scaling_updates_marginals() {
        let mut w = PreferenceMap::new(1, 2, 2);
        w.scale_cluster(i(0), c(1), 3.0);
        assert!((w.cluster_weight(i(0), c(1)) - 1.5).abs() < 1e-9);
        assert!((w.total(i(0)) - 2.0).abs() < 1e-9);
        assert_eq!(w.preferred_cluster(i(0)), c(1));
        w.normalize(i(0));
        w.assert_invariants(1e-9);
        assert!((w.cluster_weight(i(0), c(1)) - 0.75).abs() < 1e-9);
    }

    #[test]
    fn scale_time_updates_marginals() {
        let mut w = PreferenceMap::new(1, 2, 3);
        w.scale_time(i(0), 2, 4.0);
        assert!((w.time_weight(i(0), 2) - 4.0 / 3.0).abs() < 1e-9);
        assert_eq!(w.preferred_time(i(0)), Cycle::new(2));
        w.normalize(i(0));
        w.assert_invariants(1e-9);
    }

    #[test]
    fn window_squash_and_reset() {
        let mut w = PreferenceMap::new(1, 2, 10);
        w.set_window(i(0), 3, 5);
        w.normalize(i(0));
        w.assert_invariants(1e-9);
        assert_eq!(w.time_weight(i(0), 0), 0.0);
        assert!(w.time_weight(i(0), 4) > 0.0);
        assert_eq!(w.window(i(0)), (3, 5));
        // Squash everything; normalize must resurrect only the window.
        w.scale_cluster(i(0), c(0), 0.0);
        w.scale_cluster(i(0), c(1), 0.0);
        w.normalize(i(0));
        w.assert_invariants(1e-9);
        assert_eq!(w.time_weight(i(0), 2), 0.0);
        assert!(w.time_weight(i(0), 3) > 0.0);
    }

    #[test]
    fn repeated_windows_intersect() {
        let mut w = PreferenceMap::new(1, 2, 10);
        w.set_window(i(0), 2, 7);
        w.set_window(i(0), 4, 9);
        // Recorded window is the intersection, not the last call.
        assert_eq!(w.window(i(0)), (4, 7));
        w.normalize(i(0));
        w.assert_invariants(1e-9);
        assert_eq!(w.time_weight(i(0), 3), 0.0);
        assert_eq!(w.time_weight(i(0), 8), 0.0);
        assert!(w.time_weight(i(0), 5) > 0.0);
        // A zero-weight reset stays inside the intersection too.
        w.scale_cluster(i(0), c(0), 0.0);
        w.scale_cluster(i(0), c(1), 0.0);
        w.normalize(i(0));
        assert_eq!(w.time_weight(i(0), 2), 0.0);
        assert!(w.time_weight(i(0), 4) > 0.0);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn disjoint_window_intersection_panics() {
        let mut w = PreferenceMap::new(1, 1, 10);
        w.set_window(i(0), 0, 2);
        w.set_window(i(0), 5, 7);
    }

    #[test]
    fn forbidden_cluster_stays_dead() {
        let mut w = PreferenceMap::new(1, 3, 4);
        w.forbid_cluster(i(0), c(1));
        w.normalize(i(0));
        assert_eq!(w.cluster_weight(i(0), c(1)), 0.0);
        assert!(!w.cluster_feasible(i(0), c(1)));
        // Even a full reset keeps it dead.
        w.scale_cluster(i(0), c(0), 0.0);
        w.scale_cluster(i(0), c(2), 0.0);
        w.normalize(i(0));
        assert_eq!(w.cluster_weight(i(0), c(1)), 0.0);
        w.assert_invariants(1e-9);
    }

    #[test]
    fn confidence_ratio() {
        let mut w = PreferenceMap::new(1, 2, 1);
        // 0.8 vs 0.2 → confidence 4.
        w.set(i(0), c(0), 0, 0.8);
        w.set(i(0), c(1), 0, 0.2);
        assert!((w.confidence(i(0)) - 4.0).abs() < 1e-9);
        assert_eq!(w.runnerup_cluster(i(0)), Some(c(1)));
        // Zero runner-up → infinite confidence.
        w.set(i(0), c(1), 0, 0.0);
        assert!(w.confidence(i(0)).is_infinite());
    }

    #[test]
    fn single_cluster_confidence_is_infinite() {
        let w = PreferenceMap::new(1, 1, 4);
        assert!(w.confidence(i(0)).is_infinite());
        assert_eq!(w.runnerup_cluster(i(0)), None);
    }

    #[test]
    fn set_cluster_marginal_preserves_time_shape() {
        let mut w = PreferenceMap::new(1, 2, 2);
        // Give cluster 0 a skewed time profile: 0.4 at t0, 0.1 at t1.
        w.set(i(0), c(0), 0, 0.4);
        w.set(i(0), c(0), 1, 0.1);
        w.set(i(0), c(1), 0, 0.25);
        w.set(i(0), c(1), 1, 0.25);
        w.set_cluster_marginal(i(0), &[0.9, 0.1]);
        w.assert_invariants(1e-9);
        assert!((w.cluster_weight(i(0), c(0)) - 0.9).abs() < 1e-9);
        // Time shape inside cluster 0 unchanged: 4:1 ratio.
        let r = w.get(i(0), c(0), 0) / w.get(i(0), c(0), 1);
        assert!((r - 4.0).abs() < 1e-9);
    }

    #[test]
    fn set_cluster_marginal_revives_cluster_uniformly() {
        let mut w = PreferenceMap::new(1, 2, 4);
        w.set_window(i(0), 1, 2);
        w.scale_cluster(i(0), c(1), 0.0);
        w.normalize(i(0));
        assert_eq!(w.cluster_weight(i(0), c(1)), 0.0);
        w.set_cluster_marginal(i(0), &[0.5, 0.5]);
        w.assert_invariants(1e-9);
        assert!((w.cluster_weight(i(0), c(1)) - 0.5).abs() < 1e-9);
        // Revived uniformly inside the window only.
        assert_eq!(w.get(i(0), c(1), 0), 0.0);
        assert!(w.get(i(0), c(1), 1) > 0.0);
        assert_eq!(w.get(i(0), c(1), 3), 0.0);
    }

    #[test]
    fn set_cluster_marginal_respects_feasibility() {
        let mut w = PreferenceMap::new(1, 3, 2);
        w.forbid_cluster(i(0), c(2));
        w.normalize(i(0));
        w.set_cluster_marginal(i(0), &[0.2, 0.2, 0.6]);
        w.assert_invariants(1e-9);
        assert_eq!(w.cluster_weight(i(0), c(2)), 0.0);
        // Remaining mass split evenly between the feasible clusters.
        assert!((w.cluster_weight(i(0), c(0)) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn add_clamps_at_zero() {
        let mut w = PreferenceMap::new(1, 1, 1);
        w.add(i(0), c(0), 0, -5.0);
        assert_eq!(w.get(i(0), c(0), 0), 0.0);
        w.add(i(0), c(0), 0, 0.25);
        assert_eq!(w.get(i(0), c(0), 0), 0.25);
    }

    #[test]
    #[should_panic(expected = "window must be non-empty")]
    fn bad_window_panics() {
        let mut w = PreferenceMap::new(1, 1, 4);
        w.set_window(i(0), 3, 2);
    }

    #[test]
    #[should_panic(expected = "weights are ≥ 0")]
    fn negative_weight_panics() {
        let mut w = PreferenceMap::new(1, 1, 1);
        w.set(i(0), c(0), 0, -0.1);
    }

    #[test]
    fn normalize_all_is_idempotent() {
        let mut w = PreferenceMap::new(3, 2, 4);
        w.scale_cluster(i(1), c(0), 7.0);
        w.normalize_all();
        let snapshot = w.clone();
        w.normalize_all();
        for k in 0..3 {
            for cc in 0..2 {
                for t in 0..4 {
                    let a = snapshot.get(i(k), c(cc), t);
                    let b = w.get(i(k), c(cc), t);
                    assert!((a - b).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn normalize_is_o1_and_materialize_restores_raw() {
        let mut w = PreferenceMap::new(1, 2, 2);
        w.scale_cluster(i(0), c(1), 9.0);
        w.normalize(i(0));
        // Lazy: the visible values are normalized...
        w.assert_invariants(1e-12);
        let before: Vec<f64> = (0..2u16)
            .flat_map(|cc| (0..2u32).map(move |t| (cc, t)))
            .map(|(cc, t)| w.get(i(0), c(cc), t))
            .collect();
        // ...and materialize folds the factor in without changing them.
        w.materialize(i(0));
        let after: Vec<f64> = (0..2u16)
            .flat_map(|cc| (0..2u32).map(move |t| (cc, t)))
            .map(|(cc, t)| w.get(i(0), c(cc), t))
            .collect();
        assert_eq!(before, after);
        w.assert_invariants(1e-12);
        // After materialize the total is carried eagerly again.
        assert!((w.total(i(0)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn extreme_scaling_stays_finite_across_many_passes() {
        // Repeatedly multiply weight in (as PLACE's ×100 does) with a
        // normalize after every round, far past the point where a
        // naively accumulated raw total would overflow f64: the scale
        // guard must keep folding the factor back in.
        let mut w = PreferenceMap::new(1, 2, 2);
        for _ in 0..300 {
            w.scale_cluster(i(0), c(1), 100.0);
            w.scale_cluster(i(0), c(0), 100.0);
            w.normalize_all();
        }
        w.assert_invariants(1e-9);
        assert!(w.get(i(0), c(1), 0).is_finite());
        // Repeatedly squash a single cluster (forbid-like pressure);
        // normalize keeps redistributing onto the survivor.
        for _ in 0..300 {
            w.scale_cluster(i(0), c(1), 0.01);
            w.normalize_all();
        }
        w.assert_invariants(1e-9);
        assert_eq!(w.preferred_cluster(i(0)), c(0));
    }

    #[test]
    fn sustained_global_shrink_hits_the_fold_guard() {
        // Shrinking *everything* drives the raw total toward f64
        // underflow; the guard folds the scale in whenever it leaves
        // [1e-90, 1e90]. Visible cells, cluster marginals, and the
        // total stay exact because `scale_cluster` rebuilds them from
        // the cells; the time marginals are delta-maintained and may
        // drift under this pathological workload (as in an eager
        // implementation), so they are not checked here.
        let mut w = PreferenceMap::new(1, 2, 2);
        for _ in 0..300 {
            w.scale_cluster(i(0), c(0), 0.01);
            w.scale_cluster(i(0), c(1), 0.01);
            w.normalize_all();
        }
        let mut sum = 0.0;
        for cc in 0..2u16 {
            let mut csum = 0.0;
            for t in 0..2u32 {
                let v = w.get(i(0), c(cc), t);
                assert!(v.is_finite() && v >= 0.0);
                sum += v;
                csum += v;
            }
            assert!((w.cluster_weight(i(0), c(cc)) - csum).abs() < 1e-9);
        }
        assert!((sum - 1.0).abs() < 1e-9);
        assert!((w.total(i(0)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn argmax_tracks_writes() {
        let mut w = PreferenceMap::new(1, 4, 6);
        // Read before any write.
        assert_eq!(w.preferred_cluster(i(0)), c(0));
        assert_eq!(w.preferred_time(i(0)), Cycle::ZERO);
        // A write that changes the answers must be reflected.
        w.scale_cluster(i(0), c(2), 5.0);
        assert_eq!(w.preferred_cluster(i(0)), c(2));
        w.scale_time(i(0), 4, 5.0);
        assert_eq!(w.preferred_time(i(0)), Cycle::new(4));
        // Boosting the current leaders keeps them in the lead.
        w.scale_cluster(i(0), c(2), 2.0);
        w.scale_time(i(0), 4, 2.0);
        assert_eq!(w.preferred_cluster(i(0)), c(2));
        assert_eq!(w.preferred_time(i(0)), Cycle::new(4));
        // Normalization preserves the ordering.
        w.normalize_all();
        assert_eq!(w.preferred_cluster(i(0)), c(2));
        assert_eq!(w.preferred_time(i(0)), Cycle::new(4));
        // Runner-up and confidence come from the same scan.
        assert_ne!(w.runnerup_cluster(i(0)), Some(c(2)));
        assert!(w.confidence(i(0)) > 1.0);
        // A cell-level boost of another column updates the argmax.
        let big = w.total(i(0)) * 3.0;
        w.set(i(0), c(1), 1, big);
        assert_eq!(w.preferred_cluster(i(0)), c(1));
        assert_eq!(w.preferred_time(i(0)), Cycle::new(1));
        w.reset_uniform(i(0));
        assert_eq!(w.preferred_cluster(i(0)), c(0));
        assert_eq!(w.preferred_time(i(0)), Cycle::ZERO);
    }

    /// An answer depends on the map's state only, not on which reads
    /// came before: two clusters a relative 1e-9 apart sit inside the
    /// `EPS` tie band before `normalize` (marginals of order 1e-3) and
    /// outside it after, so a read before normalizing must not pin the
    /// pre-normalize tie-break.
    #[test]
    fn answers_do_not_depend_on_read_history() {
        let mut fresh = PreferenceMap::new(1, 2, 1);
        fresh.scale_cluster(i(0), c(0), 1e-3);
        fresh.scale_cluster(i(0), c(1), 1e-3 * (1.0 + 1e-9));
        let mut read_first = fresh.clone();
        assert_eq!(read_first.preferred_cluster(i(0)), c(0));
        for w in [&mut fresh, &mut read_first] {
            w.normalize(i(0));
            assert_eq!(w.preferred_cluster(i(0)), c(1));
            assert!(w.confidence(i(0)) >= 1.0, "{}", w.confidence(i(0)));
        }
    }

    // ---- banded-specific behavior ----

    #[test]
    fn untouched_rows_read_uniform_and_densify_once_at_their_window() {
        let mut w = PreferenceMap::new(2, 2, 8);
        let per = 1.0 / 16.0;
        for t in 0..8 {
            assert_eq!(w.get(i(0), c(1), t), per);
            assert_eq!(w.time_weight(i(0), t), 2.0 * per);
        }
        assert_eq!(w.preferred_time(i(0)), Cycle::ZERO);
        // A window and a normalize write no cell: row 0 stays
        // untouched, uniform over its window.
        w.set_window(i(0), 3, 5);
        w.normalize_all();
        assert_eq!(w.counter_totals().band_densifications, 0);
        assert_eq!(w.get(i(0), c(0), 2), 0.0);
        assert_eq!(w.get(i(0), c(0), 3), 1.0 / 6.0);
        assert_eq!(w.time_weight(i(0), 6), 0.0);
        assert_eq!(w.preferred_time(i(0)), Cycle::new(3));
        w.assert_invariants(1e-12);
        // The first cell write densifies it at that window, once.
        w.scale(i(0), c(0), 4, 2.0);
        assert_eq!(w.counter_totals().band_densifications, 1);
        assert_eq!(w.get(i(0), c(0), 3), 1.0 / 6.0);
        assert_eq!(w.get(i(0), c(0), 4), 2.0 / 6.0);
        assert_eq!(w.get(i(0), c(0), 6), 0.0);
        w.set_window(i(0), 4, 5);
        w.reset_uniform(i(0));
        assert_eq!(w.counter_totals().band_densifications, 1);
        // Row 1's first cell write densifies it at its full window.
        w.scale_time(i(1), 7, 2.0);
        assert_eq!(w.counter_totals().band_densifications, 2);
        assert_eq!(w.get(i(1), c(1), 7), 2.0 * per);
        assert_eq!(w.get(i(1), c(1), 0), per);
        w.normalize_all();
        w.assert_invariants(1e-12);
    }

    #[test]
    fn band_anchors_at_window_and_shrinks() {
        let mut w = PreferenceMap::new(1, 2, 100);
        w.set_window(i(0), 10, 19);
        w.scale(i(0), c(0), 12, 3.0);
        assert!((w.get(i(0), c(0), 12) - 0.015).abs() < 1e-15);
        // Window shrink compacts the band.
        w.set_window(i(0), 12, 15);
        assert_eq!(w.window(i(0)), (12, 15));
        w.normalize(i(0));
        w.assert_invariants(1e-9);
        assert_eq!(w.time_weight(i(0), 11), 0.0);
        assert!(w.time_weight(i(0), 12) > 0.0);
        assert!(w.time_weight(i(0), 15) > 0.0);
        assert_eq!(w.time_weight(i(0), 16), 0.0);
    }

    #[test]
    #[should_panic(expected = "outside the window [3, 5]")]
    fn nonzero_set_outside_the_window_panics() {
        let mut w = PreferenceMap::new(1, 2, 10);
        w.set_window(i(0), 3, 5);
        w.set(i(0), c(1), 6, 0.5);
    }

    #[test]
    #[should_panic(expected = "outside the window [3, 5]")]
    fn nonzero_add_outside_the_window_panics() {
        let mut w = PreferenceMap::new(1, 2, 10);
        w.set_window(i(0), 3, 5);
        w.add(i(0), c(0), 2, 0.25);
    }

    #[test]
    fn zero_write_outside_the_window_changes_nothing() {
        let mut w = PreferenceMap::new(1, 2, 10);
        w.set_window(i(0), 3, 5);
        w.scale(i(0), c(0), 4, 3.0);
        let before = w.clone();
        w.set(i(0), c(1), 7, 0.0);
        w.add(i(0), c(0), 0, -0.5);
        assert_maps_identical(&before, &w);
    }

    #[test]
    fn reset_uniform_refills_the_band_in_place() {
        let mut w = PreferenceMap::new(1, 2, 50);
        w.set_window(i(0), 5, 9);
        w.scale(i(0), c(0), 6, 4.0);
        w.reset_uniform(i(0));
        assert_eq!(w.window(i(0)), (5, 9));
        assert_eq!(w.counter_totals().band_densifications, 1);
        w.assert_invariants(1e-12);
        assert_eq!(w.get(i(0), c(0), 6), 1.0 / 10.0);
        assert_eq!(w.get(i(0), c(0), 4), 0.0);
    }

    /// Bitwise comparison of two maps across the full observable
    /// surface (windows, cells, marginals, totals, argmaxes).
    fn assert_maps_identical(a: &PreferenceMap, b: &PreferenceMap) {
        assert_eq!(a.n_instrs(), b.n_instrs());
        for k in 0..a.n_instrs() as u32 {
            let id = i(k);
            assert_eq!(a.window(id), b.window(id));
            assert_eq!(a.total(id).to_bits(), b.total(id).to_bits());
            for cc in 0..a.n_clusters() as u16 {
                assert_eq!(a.cluster_feasible(id, c(cc)), b.cluster_feasible(id, c(cc)));
                assert_eq!(
                    a.cluster_weight(id, c(cc)).to_bits(),
                    b.cluster_weight(id, c(cc)).to_bits()
                );
                for t in 0..a.n_slots() as u32 {
                    assert_eq!(
                        a.get(id, c(cc), t).to_bits(),
                        b.get(id, c(cc), t).to_bits(),
                        "cell ({k},{cc},{t})"
                    );
                }
            }
            for t in 0..a.n_slots() as u32 {
                assert_eq!(
                    a.time_weight(id, t).to_bits(),
                    b.time_weight(id, t).to_bits()
                );
            }
            assert_eq!(a.preferred_cluster(id), b.preferred_cluster(id));
            assert_eq!(a.preferred_time(id), b.preferred_time(id));
            assert_eq!(a.confidence(id).to_bits(), b.confidence(id).to_bits());
        }
    }

    /// Deterministic pin of the bulk-kernel exactness claim;
    /// `tests/row_kernels.rs` drives randomized sequences.
    #[test]
    fn bulk_row_ops_match_per_cell_bit_for_bit() {
        let fresh = || PreferenceMap::new(3, 3, 12);
        let mut bulk = fresh();
        let mut cell = fresh();
        // Shape some state first: windows, a forbidden cluster, a
        // densified band, a pending scale factor.
        for w in [&mut bulk, &mut cell] {
            w.set_window(i(0), 2, 7);
            w.forbid_cluster(i(1), c(0));
            w.scale(i(2), c(1), 4, 3.0);
            w.normalize_all();
        }
        let cf = [0.05, 1.0, 3.5];
        for k in 0..3u32 {
            bulk.scale_clusters_row(i(k), &cf);
            for (cc, &f) in cf.iter().enumerate() {
                cell.scale_cluster(i(k), c(cc as u16), f);
            }
        }
        assert_maps_identical(&bulk, &cell);

        // Noise fill over each row's feasible cells.
        for k in 0..3u32 {
            let (lo, hi) = bulk.window(i(k));
            let feas = (0..3u16)
                .filter(|&cc| bulk.cluster_feasible(i(k), c(cc)))
                .count();
            let n = feas * (hi - lo + 1) as usize;
            let draws: Vec<f64> = (0..n).map(|d| (d as f64 * 0.37) % 1.0).collect();
            bulk.noise_fill(i(k), 0.8, &draws);
            let mut d = 0usize;
            for cc in 0..3u16 {
                if !cell.cluster_feasible(i(k), c(cc)) {
                    continue;
                }
                for t in lo..=hi {
                    cell.add(i(k), c(cc), t, 0.8 * draws[d]);
                    d += 1;
                }
            }
        }
        assert_maps_identical(&bulk, &cell);
    }
}
