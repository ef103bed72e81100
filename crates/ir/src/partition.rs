//! Region decomposition for sharded scheduling.
//!
//! Convergent scheduling's passes are independent *across* weakly-
//! connected regions of a scheduling unit: no preference, dependence, or
//! placement information flows between instructions that share no path.
//! The driver is superlinear in region size, though, so beyond grouping
//! components this module also cuts *connected* regions down to a target
//! size ([`RegionPolicy::region_size`]): the largest oversize region is
//! chopped repeatedly into runs of the graph's global topological
//! levels until every region fits or no profitable chop remains.
//! Chopping every entry at *global* level boundaries keeps all cut
//! planes aligned with the graph's layer structure, so separate chops
//! share boundaries instead of inventing skewed local ones, which keeps
//! the stitched cross-edge bill low. The driver can then run the full
//! pass pipeline on every shard concurrently and stitch the per-shard
//! schedules back together (`convergent-sim`'s `stitch`).
//!
//! Whether a cut is worth stitching is the cut governor's call:
//! [`assess`] prices a decomposition and [`plan_regions`] is the one
//! governed search — decompose, assess, and coarsen the region target
//! while the cut is rejected for its cross edges — that both the
//! sharded driver and the `CS041` lint run.
//!
//! Two invariants matter to the callers:
//!
//! * **Connected graphs at or under the region target are never cut.**
//!   Sharding such a graph at any shard count returns one shard that is
//!   the input graph itself, which is what lets the driver promise
//!   byte-identical schedules for `--shards N` on small connected
//!   inputs. Larger connected graphs *are* cut, trading byte-identity
//!   for bounded region size; the cut governor guards the quality of
//!   that trade.
//! * **Cross-shard edges always point from an earlier shard to a later
//!   one.** The shard list is a topological order of the shard quotient
//!   graph, so the stitch phase can commit shards left to right and only
//!   ever look backwards for producers.

use crate::{Dag, DagBuilder, Edge, InstrId};

/// Default region-size target for [`decompose_with`], in instructions.
///
/// Tuned from the `compiletime` bench sweep: per-instruction throughput
/// is near its peak up to ~2000 instructions and falls superlinearly
/// past it (268k instrs/s at 2000 vs 75k at 100k on the 1-vCPU bench
/// host), so 2000 is the knee where cutting starts to pay.
pub const DEFAULT_REGION_SIZE: usize = 2000;

/// Hard cap on the number of regions a single decomposition may
/// produce, bounding pathological recursion on adversarial graphs.
const MAX_REGIONS: usize = 1024;

/// Fraction of an entry that a level chop must move out of its largest
/// piece to count as progress: the largest piece must hold at most
/// `7/8` of the entry, else the chop is rejected and the entry stays
/// whole.
const CUT_PROGRESS_NUM: usize = 7;
const CUT_PROGRESS_DEN: usize = 8;

/// Reusable scratch for the cut helpers: stamp arrays sized to the
/// graph make membership tests and flood fills O(1) per step with no
/// per-entry hashing or allocation — decompose stays near-linear even
/// when the recursion touches the same nodes several times.
struct Scratch {
    /// `mark[i] == stamp` iff node `i` belongs to the current entry.
    mark: Vec<u32>,
    /// `visit[i] == vstamp` iff the current flood fill reached `i`.
    visit: Vec<u32>,
    stamp: u32,
    vstamp: u32,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            mark: vec![0; n],
            visit: vec![0; n],
            stamp: 0,
            vstamp: 0,
        }
    }

    /// Marks `ids` as the current entry.
    fn set_entry(&mut self, ids: &[InstrId]) {
        self.stamp += 1;
        for &g in ids {
            self.mark[g.index()] = self.stamp;
        }
    }

    fn contains(&self, g: InstrId) -> bool {
        self.mark[g.index()] == self.stamp
    }
}

/// Controls how [`decompose_with`] splits a graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegionPolicy {
    /// Concurrency budget: the cap on bins that disconnected components
    /// are packed into. Recursive cuts of oversize regions may produce
    /// more shards than this — extra shards simply queue on the worker
    /// pool — but `max_shards <= 1` disables decomposition entirely.
    pub max_shards: usize,
    /// Target region size in instructions; regions larger than this are
    /// recursively cut while profitable cuts exist. `None` uses
    /// [`DEFAULT_REGION_SIZE`].
    pub region_size: Option<usize>,
}

impl RegionPolicy {
    /// Policy with the default region-size target.
    #[must_use]
    pub fn new(max_shards: usize) -> Self {
        Self {
            max_shards,
            region_size: None,
        }
    }

    /// Sets an explicit region-size target.
    #[must_use]
    pub fn with_region_size(mut self, region_size: usize) -> Self {
        self.region_size = Some(region_size);
        self
    }

    /// The effective region-size target (never zero).
    #[must_use]
    pub fn target_region_size(&self) -> usize {
        self.region_size.unwrap_or(DEFAULT_REGION_SIZE).max(1)
    }
}

/// One shard of a decomposed graph: an induced sub-DAG plus the mapping
/// from its dense local ids back to the original graph.
#[derive(Clone, Debug)]
pub struct Shard {
    dag: Dag,
    to_global: Vec<InstrId>,
}

impl Shard {
    /// The induced sub-DAG. Local ids are dense and id-ordered: local
    /// `k` is the `k`-th smallest global id in the shard.
    #[must_use]
    pub fn dag(&self) -> &Dag {
        &self.dag
    }

    /// Global ids in local-id order.
    #[must_use]
    pub fn to_global(&self) -> &[InstrId] {
        &self.to_global
    }

    /// Maps a local instruction id back to the original graph.
    ///
    /// # Panics
    ///
    /// Panics if `local` is out of range for this shard.
    #[must_use]
    pub fn global_id(&self, local: InstrId) -> InstrId {
        self.to_global[local.index()]
    }

    /// Number of instructions in this shard.
    #[must_use]
    pub fn len(&self) -> usize {
        self.to_global.len()
    }

    /// Always `false`: shards are built from nonempty id sets.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.to_global.is_empty()
    }
}

/// A complete decomposition of a graph into shards.
#[derive(Clone, Debug)]
pub struct Decomposition {
    shards: Vec<Shard>,
    shard_of: Vec<usize>,
    local_of: Vec<InstrId>,
    cross_edges: Vec<Edge>,
}

impl Decomposition {
    /// The shards, in stitch (topological) order.
    #[must_use]
    pub fn shards(&self) -> &[Shard] {
        &self.shards
    }

    /// Index of the shard containing global instruction `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the decomposed graph.
    #[must_use]
    pub fn shard_of(&self, i: InstrId) -> usize {
        self.shard_of[i.index()]
    }

    /// Local id of global instruction `i` within its shard.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range for the decomposed graph.
    #[must_use]
    pub fn local_id(&self, i: InstrId) -> InstrId {
        self.local_of[i.index()]
    }

    /// Edges (in global ids) whose endpoints live in different shards.
    /// The source's shard index is always strictly smaller than the
    /// destination's.
    #[must_use]
    pub fn cross_edges(&self) -> &[Edge] {
        &self.cross_edges
    }

    /// `true` if the graph was not split (one shard = the whole graph).
    #[must_use]
    pub fn is_trivial(&self) -> bool {
        self.shards.len() == 1
    }
}

/// Returns the weakly-connected components of `dag`.
///
/// Each component's ids are sorted ascending; components are ordered by
/// their smallest id. The union of the components is exactly the id set
/// of the graph.
#[must_use]
pub fn weakly_connected_components(dag: &Dag) -> Vec<Vec<InstrId>> {
    let n = dag.len();
    let mut comp = vec![usize::MAX; n];
    let mut components: Vec<Vec<InstrId>> = Vec::new();
    let mut stack = Vec::new();
    for start in dag.ids() {
        if comp[start.index()] != usize::MAX {
            continue;
        }
        let id = components.len();
        let mut members = Vec::new();
        comp[start.index()] = id;
        stack.push(start);
        while let Some(i) = stack.pop() {
            members.push(i);
            for nb in dag.neighbors(i) {
                if comp[nb.index()] == usize::MAX {
                    comp[nb.index()] = id;
                    stack.push(nb);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    // Seeding in id order already yields components ordered by their
    // minimum id; keep the invariant explicit regardless.
    components.sort_by_key(|c| c[0]);
    components
}

/// Splits `dag` into shards under `policy`.
///
/// The shard list is a topological order of the shard quotient graph:
/// every cross-shard edge points from an earlier shard to a later one.
///
/// * `max_shards <= 1`, or a connected graph at or under the region
///   target: one shard containing the whole graph, ids mapped
///   identically (sharded scheduling degenerates to the monolithic
///   path, byte-identically).
/// * Several components: components are bin-packed (largest first into
///   the lightest bin) into at most `max_shards` bins — more when the
///   total exceeds `max_shards` regions of the target size.
/// * Any region larger than the target — a big connected graph, a big
///   component — is recursively cut: a locally disconnected region is
///   packed by component, a connected one chopped into runs of
///   consecutive global topological levels of at most the target size
///   when the largest run holds at most 7/8 of the region. Regions
///   where the chop does not qualify stay whole ("no profitable cut").
#[must_use]
pub fn decompose_with(dag: &Dag, policy: &RegionPolicy) -> Decomposition {
    if policy.max_shards <= 1 {
        return assemble(dag, vec![dag.ids().collect()]);
    }
    let target = policy.target_region_size();
    let components = weakly_connected_components(dag);
    if components.len() == 1 && components[0].len() <= target {
        return assemble(dag, components);
    }
    let mut scratch = Scratch::new(dag.len());
    // Longest-path levels over the whole graph, shared by every level
    // chop below.
    let mut levels = vec![0u32; dag.len()];
    for &g in dag.topo_order() {
        let l = dag
            .preds(g)
            .iter()
            .map(|p| levels[p.index()] + 1)
            .max()
            .unwrap_or(0);
        levels[g.index()] = l;
    }

    // Entries are ordered groups; `free` entries are whole components
    // (no cross edges) that may be packed together at the end, the rest
    // are cut pieces that must keep their position in the sequence.
    struct Entry {
        ids: Vec<InstrId>,
        free: bool,
        tried: bool,
    }
    let mut entries: Vec<Entry> = components
        .into_iter()
        .map(|ids| Entry {
            ids,
            free: true,
            tried: false,
        })
        .collect();

    // Recursively cut the largest oversize entry until everything fits
    // the target or nothing profitable remains.
    while entries.len() < MAX_REGIONS {
        let Some(k) = entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.ids.len() > target && !e.tried)
            .max_by_key(|(k, e)| (e.ids.len(), usize::MAX - k))
            .map(|(k, _)| k)
        else {
            break;
        };
        match cut_entry(dag, &entries[k].ids, target, &levels, &mut scratch) {
            Some(pieces) if entries.len() + pieces.len() - 1 <= MAX_REGIONS => {
                // Replace the entry in place: pieces are internally
                // topologically ordered and inherit the entry's
                // position relative to everything else, so the global
                // quotient order stays topological.
                let tail: Vec<Entry> = entries.drain(k + 1..).collect();
                entries.pop();
                entries.extend(pieces.into_iter().map(|ids| Entry {
                    ids,
                    free: false,
                    tried: false,
                }));
                entries.extend(tail);
            }
            _ => entries[k].tried = true,
        }
    }

    // Pack the free components; cut pieces keep their order.
    let n_chain = entries.iter().filter(|e| !e.free).count();
    let free: Vec<Vec<InstrId>> = entries
        .iter()
        .filter(|e| e.free)
        .map(|e| e.ids.clone())
        .collect();
    let total_free: usize = free.iter().map(Vec::len).sum();
    let allowed = policy.max_shards.saturating_sub(n_chain).max(1);
    let bins = allowed.max(total_free.div_ceil(target));
    let mut groups = pack(free, bins);
    groups.extend(entries.into_iter().filter(|e| !e.free).map(|e| e.ids));
    assemble(dag, groups)
}

/// Reject when more than this fraction of all edges would cross
/// shards: `cross * CROSS_EDGE_DEN > total * CROSS_EDGE_NUM`.
const CROSS_EDGE_NUM: usize = 1;
const CROSS_EDGE_DEN: usize = 2;

/// Reject when the largest shard still holds more than 15/16 of the
/// instructions — the cut pays stitch overhead without bounding the
/// superlinear region.
const IMBALANCE_NUM: usize = 15;
const IMBALANCE_DEN: usize = 16;

/// The cut governor's verdict on one decomposition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CutVerdict {
    /// The projected cut is worth stitching.
    Accepted,
    /// Most dependence edges would cross shards; stitching would chase
    /// more cross-shard values than it schedules locally.
    RejectedCrossEdges,
    /// The largest shard still holds nearly the whole graph; cutting
    /// buys no region-size reduction.
    RejectedImbalance,
}

/// What the cut governor measured about a decomposition, plus its
/// verdict.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutAssessment {
    /// Number of shards in the decomposition.
    pub n_shards: usize,
    /// Instructions in the largest shard.
    pub largest_shard: usize,
    /// Dependence edges whose endpoints land in different shards.
    pub cross_edges: usize,
    /// Total dependence edges in the graph.
    pub total_edges: usize,
    /// The verdict.
    pub verdict: CutVerdict,
}

impl CutAssessment {
    /// `true` when the driver may take the sharded path.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.verdict == CutVerdict::Accepted
    }
}

/// The cut governor: projects the quality of `dec` before any
/// scheduling happens.
///
/// Cutting a *connected* graph gives up the byte-identity the driver
/// promises for monolithic runs, so the quality of the cut is guarded
/// instead. Pure component sharding (no cross edges) is always
/// accepted — it carries no stitch coupling. Connected-graph cuts are
/// rejected when degenerate: more than half of all edges crossing
/// shards, or the largest shard still holding more than 15/16 of the
/// graph.
#[must_use]
pub fn assess(dag: &Dag, dec: &Decomposition) -> CutAssessment {
    let n_shards = dec.shards().len();
    let largest_shard = dec.shards().iter().map(Shard::len).max().unwrap_or(0);
    let cross_edges = dec.cross_edges().len();
    let total_edges = dag.edge_count();
    let verdict = if cross_edges == 0 {
        CutVerdict::Accepted
    } else if largest_shard * IMBALANCE_DEN > dag.len() * IMBALANCE_NUM {
        CutVerdict::RejectedImbalance
    } else if cross_edges * CROSS_EDGE_DEN > total_edges * CROSS_EDGE_NUM {
        CutVerdict::RejectedCrossEdges
    } else {
        CutVerdict::Accepted
    };
    CutAssessment {
        n_shards,
        largest_shard,
        cross_edges,
        total_edges,
        verdict,
    }
}

/// The outcome of the governed cut search ([`plan_regions`]).
#[derive(Clone, Debug)]
pub struct RegionPlan {
    /// The last decomposition tried: the accepted cut, a trivial one
    /// when the decomposer found nothing to cut, or the last rejected
    /// cut.
    pub decomposition: Decomposition,
    /// The governor's assessment of the accepted cut, or of the last
    /// rejected one; `None` when no non-trivial cut was assessed.
    pub assessment: Option<CutAssessment>,
    /// Cuts the governor rejected along the way.
    pub rejects: u64,
}

impl RegionPlan {
    /// `true` when the search settled on a cut the governor accepts,
    /// so a sharded run schedules `decomposition` shard by shard;
    /// otherwise it falls back to one monolithic schedule.
    #[must_use]
    pub fn accepted(&self) -> bool {
        self.assessment.is_some_and(|a| a.accepted())
    }
}

/// The governed cut search: decomposes `dag` under `policy`, assesses
/// the cut, and coarsens while the governor rejects it.
///
/// A cut rejected for cross edges means the region target is finer
/// than the graph's layer width supports — pieces span too few
/// topological levels, so most dependence edges cross a boundary no
/// matter how the cut planes are aligned. Doubling the target widens
/// every piece (halving the cross fraction on layered graphs), so
/// either some coarser cut passes the governor or the decomposer stops
/// cutting and the search ends without an accepted cut, carrying the
/// last rejected assessment. Imbalance rejections never coarsen: a
/// larger target only makes the dominant shard bigger.
#[must_use]
pub fn plan_regions(dag: &Dag, policy: &RegionPolicy) -> RegionPlan {
    let mut target = policy.target_region_size();
    let mut rejects = 0u64;
    let mut last_rejected: Option<CutAssessment> = None;
    loop {
        let decomposition = decompose_with(dag, &policy.with_region_size(target));
        if decomposition.is_trivial() {
            return RegionPlan {
                decomposition,
                assessment: last_rejected,
                rejects,
            };
        }
        let a = assess(dag, &decomposition);
        if !a.accepted() {
            rejects += 1;
        }
        if a.accepted() || a.verdict != CutVerdict::RejectedCrossEdges || target >= dag.len() {
            return RegionPlan {
                decomposition,
                assessment: Some(a),
                rejects,
            };
        }
        last_rejected = Some(a);
        target = target.saturating_mul(2);
    }
}

/// Cuts one oversize entry (a weakly-connected-or-not ordered id group)
/// into at least two ordered pieces, or returns `None` when no
/// profitable cut exists.
///
/// Locally disconnected entries (possible for pieces of earlier cuts)
/// are packed by local component into enough bins to average the
/// target size; connected ones are chopped along the graph's global
/// topological levels ([`level_chop`]).
fn cut_entry(
    dag: &Dag,
    ids: &[InstrId],
    target: usize,
    levels: &[u32],
    scratch: &mut Scratch,
) -> Option<Vec<Vec<InstrId>>> {
    let comps = local_components(dag, ids, scratch);
    if comps.len() > 1 {
        return Some(pack(comps, ids.len().div_ceil(target).max(2)));
    }
    level_chop(ids, levels, target)
}

/// Weakly-connected components of the subgraph induced on `ids`; each
/// sorted ascending, ordered by minimum id.
fn local_components(dag: &Dag, ids: &[InstrId], scratch: &mut Scratch) -> Vec<Vec<InstrId>> {
    scratch.set_entry(ids);
    scratch.vstamp += 1;
    let vs = scratch.vstamp;
    let mut components: Vec<Vec<InstrId>> = Vec::new();
    let mut stack = Vec::new();
    for &start in ids {
        if scratch.visit[start.index()] == vs {
            continue;
        }
        let mut members = Vec::new();
        scratch.visit[start.index()] = vs;
        stack.push(start);
        while let Some(i) = stack.pop() {
            members.push(i);
            for nb in dag.neighbors(i) {
                if scratch.contains(nb) && scratch.visit[nb.index()] != vs {
                    scratch.visit[nb.index()] = vs;
                    stack.push(nb);
                }
            }
        }
        members.sort_unstable();
        components.push(members);
    }
    components.sort_by_key(|c| c[0]);
    components
}

/// Chops an entry into runs of consecutive *global* topological levels,
/// each holding at most `target` instructions (a single oversize level
/// stays whole — the level boundary is the finest legal cut plane).
///
/// Global longest-path levels strictly increase along every edge, so
/// pieces in ascending level order form a topological chain, and using
/// the same level scale for every entry keeps all chop planes aligned
/// with the graph's layer structure. Returns `None` when the chop makes
/// no progress: fewer than two pieces, or a piece still holding more
/// than 7/8 of the entry (e.g. a star, where one level dominates).
fn level_chop(ids: &[InstrId], levels: &[u32], target: usize) -> Option<Vec<Vec<InstrId>>> {
    if ids.len() < 2 {
        return None;
    }
    let mut sorted: Vec<InstrId> = ids.to_vec();
    sorted.sort_unstable_by_key(|&g| (levels[g.index()], g));
    let mut pieces: Vec<Vec<InstrId>> = Vec::new();
    let mut cur: Vec<InstrId> = Vec::new();
    let mut k = 0usize;
    while k < sorted.len() {
        let level = levels[sorted[k].index()];
        let mut j = k;
        while j < sorted.len() && levels[sorted[j].index()] == level {
            j += 1;
        }
        if !cur.is_empty() && cur.len() + (j - k) > target {
            pieces.push(std::mem::take(&mut cur));
        }
        cur.extend_from_slice(&sorted[k..j]);
        k = j;
    }
    if !cur.is_empty() {
        pieces.push(cur);
    }
    if pieces.len() < 2 {
        return None;
    }
    let largest = pieces.iter().map(Vec::len).max().unwrap_or(0);
    if largest * CUT_PROGRESS_DEN > ids.len() * CUT_PROGRESS_NUM {
        return None;
    }
    for piece in &mut pieces {
        piece.sort_unstable();
    }
    Some(pieces)
}

/// Bin-packs `groups` (disjoint, unordered id sets) into at most `bins`
/// bins by longest-processing-time: largest group first, into the
/// currently lightest bin, ties broken by bin index. Returned bins are
/// sorted ascending internally and ordered by their minimum id.
fn pack(mut groups: Vec<Vec<InstrId>>, bins: usize) -> Vec<Vec<InstrId>> {
    if groups.is_empty() {
        return Vec::new();
    }
    let bins = bins.min(groups.len());
    groups.sort_by_key(|g| (usize::MAX - g.len(), g[0]));
    let mut out: Vec<Vec<InstrId>> = vec![Vec::new(); bins];
    let mut weight = vec![0usize; bins];
    for g in groups {
        let lightest = (0..bins).min_by_key(|&b| (weight[b], b)).unwrap_or(0);
        weight[lightest] += g.len();
        out[lightest].extend(g);
    }
    for bin in &mut out {
        bin.sort_unstable();
    }
    out.sort_by_key(|b| b[0]);
    out
}

/// Builds the final [`Decomposition`] from ordered disjoint id groups
/// covering the graph.
fn assemble(dag: &Dag, groups: Vec<Vec<InstrId>>) -> Decomposition {
    let mut shard_of = vec![usize::MAX; dag.len()];
    let mut local_of = vec![InstrId::new(0); dag.len()];
    for (k, group) in groups.iter().enumerate() {
        for (local, &g) in group.iter().enumerate() {
            shard_of[g.index()] = k;
            local_of[g.index()] = InstrId::new(local as u32);
        }
    }
    debug_assert!(shard_of.iter().all(|&s| s != usize::MAX));

    let shards: Vec<Shard> = groups
        .into_iter()
        .map(|group| {
            let mut b = DagBuilder::with_capacity(group.len());
            for &g in &group {
                b.push(dag.instr(g).clone());
            }
            for &g in &group {
                for &s in dag.succs(g) {
                    if shard_of[s.index()] == shard_of[g.index()] {
                        b.edge(local_of[g.index()], local_of[s.index()])
                            .expect("induced edge endpoints exist");
                    }
                }
            }
            Shard {
                dag: b
                    .build()
                    .expect("induced subgraph of a DAG is a nonempty DAG"),
                to_global: group,
            }
        })
        .collect();

    let cross_edges: Vec<Edge> = dag
        .edges()
        .filter(|e| shard_of[e.src.index()] != shard_of[e.dst.index()])
        .collect();
    debug_assert!(cross_edges
        .iter()
        .all(|e| shard_of[e.src.index()] < shard_of[e.dst.index()]));

    Decomposition {
        shards,
        shard_of,
        local_of,
        cross_edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Opcode;

    /// `k` disjoint chains of length `len`.
    fn chains(k: usize, len: usize) -> Dag {
        let mut b = DagBuilder::new();
        for _ in 0..k {
            let mut prev = b.instr(Opcode::IntAlu);
            for _ in 1..len {
                let next = b.instr(Opcode::IntAlu);
                b.edge(prev, next).unwrap();
                prev = next;
            }
        }
        b.build().unwrap()
    }

    /// A diamond (single component).
    fn diamond() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::Load);
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntMul);
        let z = b.instr(Opcode::Store);
        b.edge(a, x).unwrap();
        b.edge(a, y).unwrap();
        b.edge(x, z).unwrap();
        b.edge(y, z).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn components_of_disjoint_chains() {
        let d = chains(3, 4);
        let comps = weakly_connected_components(&d);
        assert_eq!(comps.len(), 3);
        for (k, c) in comps.iter().enumerate() {
            let expect: Vec<InstrId> = (0..4).map(|i| InstrId::new((k * 4 + i) as u32)).collect();
            assert_eq!(c, &expect);
        }
    }

    #[test]
    fn connected_graph_is_one_component() {
        let comps = weakly_connected_components(&diamond());
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 4);
    }

    #[test]
    fn single_component_never_cut() {
        for shards in [1, 2, 8, 64] {
            let d = diamond();
            let dec = decompose_with(&d, &RegionPolicy::new(shards));
            assert!(dec.is_trivial(), "shards={shards}");
            assert_eq!(dec.shards()[0].len(), d.len());
            assert!(dec.cross_edges().is_empty());
            // Identity mapping.
            for i in d.ids() {
                assert_eq!(dec.shard_of(i), 0);
                assert_eq!(dec.local_id(i), i);
                assert_eq!(dec.shards()[0].global_id(i), i);
            }
        }
    }

    #[test]
    fn disjoint_components_have_no_cross_edges() {
        let d = chains(6, 5);
        let dec = decompose_with(&d, &RegionPolicy::new(3));
        assert_eq!(dec.shards().len(), 3);
        assert!(dec.cross_edges().is_empty());
        // Every instruction appears exactly once, mapped consistently.
        let mut seen = vec![false; d.len()];
        for (k, shard) in dec.shards().iter().enumerate() {
            for (local, &g) in shard.to_global().iter().enumerate() {
                assert!(!seen[g.index()]);
                seen[g.index()] = true;
                assert_eq!(dec.shard_of(g), k);
                assert_eq!(dec.local_id(g), InstrId::new(local as u32));
                assert_eq!(
                    shard.dag().instr(InstrId::new(local as u32)),
                    d.instr(g),
                    "instruction payloads survive induction"
                );
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn packing_balances_shard_sizes() {
        // 4 chains of 10 into 2 bins: 20/20.
        let d = chains(4, 10);
        let dec = decompose_with(&d, &RegionPolicy::new(2));
        assert_eq!(dec.shards().len(), 2);
        assert_eq!(dec.shards()[0].len(), 20);
        assert_eq!(dec.shards()[1].len(), 20);
    }

    #[test]
    fn more_shards_than_components_is_capped() {
        let d = chains(3, 2);
        let dec = decompose_with(&d, &RegionPolicy::new(16));
        assert_eq!(dec.shards().len(), 3);
    }

    #[test]
    fn induced_edges_survive() {
        let d = chains(2, 3);
        let dec = decompose_with(&d, &RegionPolicy::new(2));
        let total_edges: usize = dec.shards().iter().map(|s| s.dag().edge_count()).sum();
        assert_eq!(total_edges + dec.cross_edges().len(), d.edge_count());
        assert_eq!(total_edges, 4);
    }

    #[test]
    fn giant_without_room_stays_whole() {
        // A 9-chain plus dust, 2 shard slots and the default target: no
        // cut, just packing of the two components.
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 1..9 {
            let next = b.instr(Opcode::IntAlu);
            b.edge(prev, next).unwrap();
            prev = next;
        }
        let d1 = b.instr(Opcode::Load);
        let d2 = b.instr(Opcode::Store);
        b.edge(d1, d2).unwrap();
        let d = b.build().unwrap();
        let dec = decompose_with(&d, &RegionPolicy::new(2));
        assert_eq!(dec.shards().len(), 2);
        assert!(dec.cross_edges().is_empty());
    }

    #[test]
    fn max_shards_one_is_identity() {
        let d = chains(4, 3);
        let dec = decompose_with(&d, &RegionPolicy::new(1));
        assert!(dec.is_trivial());
        assert_eq!(dec.shards()[0].len(), d.len());
    }

    /// Asserts the true-partition invariants: every instruction in
    /// exactly one shard, every edge intra-shard or recorded as a
    /// forward cross edge.
    fn assert_partition(dag: &Dag, dec: &Decomposition) {
        let mut seen = vec![false; dag.len()];
        for (k, shard) in dec.shards().iter().enumerate() {
            for (local, &g) in shard.to_global().iter().enumerate() {
                assert!(!seen[g.index()], "{g:?} appears twice");
                seen[g.index()] = true;
                assert_eq!(dec.shard_of(g), k);
                assert_eq!(dec.local_id(g), InstrId::new(local as u32));
            }
        }
        assert!(seen.iter().all(|&s| s), "every instr is in some shard");
        let intra: usize = dec.shards().iter().map(|s| s.dag().edge_count()).sum();
        assert_eq!(intra + dec.cross_edges().len(), dag.edge_count());
        for e in dec.cross_edges() {
            assert!(dec.shard_of(e.src) < dec.shard_of(e.dst), "{e:?}");
        }
    }

    #[test]
    fn connected_chain_is_cut_to_target() {
        let d = chains(1, 100);
        let dec = decompose_with(&d, &RegionPolicy::new(8).with_region_size(25));
        assert!(!dec.is_trivial());
        assert!(dec.shards().len() >= 4);
        for s in dec.shards() {
            assert!(s.len() <= 25, "shard of {} exceeds target", s.len());
        }
        assert_partition(&d, &dec);
    }

    #[test]
    fn connected_graph_under_target_stays_whole() {
        let d = chains(1, 100);
        for shards in [2, 8, 64] {
            let dec = decompose_with(&d, &RegionPolicy::new(shards).with_region_size(100));
            assert!(dec.is_trivial(), "shards={shards}");
        }
        // The default target keeps every small connected graph whole.
        assert!(decompose_with(&d, &RegionPolicy::new(8)).is_trivial());
    }

    #[test]
    fn star_has_no_profitable_cut() {
        // A wide fan-in star: the leaves form one level holding 39 of
        // 40 instructions, so the level chop strands more than 7/8 of
        // the graph in one piece. No profitable cut exists, so the
        // graph stays whole despite exceeding the target.
        let mut b = DagBuilder::new();
        let sink = b.instr(Opcode::IntAlu);
        for _ in 0..39 {
            let leaf = b.instr(Opcode::Load);
            b.edge(leaf, sink).unwrap();
        }
        let d = b.build().unwrap();
        let dec = decompose_with(&d, &RegionPolicy::new(8).with_region_size(8));
        assert!(dec.is_trivial());
        assert!(dec.cross_edges().is_empty());
    }

    #[test]
    fn level_cut_splits_biconnected_layers() {
        // 10 layers of 4, complete bipartite between consecutive
        // layers: the level chop cuts between layers.
        let mut b = DagBuilder::new();
        let mut prev: Vec<InstrId> = (0..4).map(|_| b.instr(Opcode::IntAlu)).collect();
        for _ in 1..10 {
            let next: Vec<InstrId> = (0..4).map(|_| b.instr(Opcode::IntAlu)).collect();
            for &p in &prev {
                for &n in &next {
                    b.edge(p, n).unwrap();
                }
            }
            prev = next;
        }
        let d = b.build().unwrap();
        let dec = decompose_with(&d, &RegionPolicy::new(8).with_region_size(10));
        assert!(!dec.is_trivial());
        for s in dec.shards() {
            assert!(s.len() <= 10, "shard of {} exceeds target", s.len());
        }
        assert_partition(&d, &dec);
    }

    #[test]
    fn free_packing_exceeds_shard_budget_to_meet_target() {
        // 100 chains of 40 (4000 instrs) at max_shards=2 with a target
        // of 1000: the packer opens 4 bins rather than two 2000-instr
        // shards — max_shards is a concurrency budget, not a cap on
        // region count.
        let d = chains(100, 40);
        let dec = decompose_with(&d, &RegionPolicy::new(2).with_region_size(1000));
        assert_eq!(dec.shards().len(), 4);
        for s in dec.shards() {
            assert!(s.len() <= 1000);
        }
        assert_partition(&d, &dec);
    }

    #[test]
    fn recursive_cut_pieces_keep_quotient_order() {
        // Two long chains and some dust: both chains get cut
        // recursively; every cross edge must still point forward.
        let mut b = DagBuilder::new();
        for _ in 0..2 {
            let mut prev = b.instr(Opcode::IntAlu);
            for _ in 1..60 {
                let next = b.instr(Opcode::IntAlu);
                b.edge(prev, next).unwrap();
                prev = next;
            }
        }
        b.instr(Opcode::Load);
        let d = b.build().unwrap();
        let dec = decompose_with(&d, &RegionPolicy::new(8).with_region_size(16));
        assert!(dec.shards().len() > 2);
        for s in dec.shards() {
            assert!(s.len() <= 16, "shard of {} exceeds target", s.len());
        }
        assert_partition(&d, &dec);
    }

    #[test]
    fn component_sharding_is_always_accepted() {
        let d = chains(4, 2);
        let dec = decompose_with(&d, &RegionPolicy::new(4));
        assert_eq!(dec.shards().len(), 4);
        let a = assess(&d, &dec);
        assert_eq!(a.cross_edges, 0);
        assert!(a.accepted());
    }

    #[test]
    fn balanced_chain_cut_is_accepted() {
        let d = chains(1, 100);
        let plan = plan_regions(&d, &RegionPolicy::new(8).with_region_size(25));
        assert!(!plan.decomposition.is_trivial());
        assert!(plan.accepted(), "{:?}", plan.assessment);
        assert_eq!(plan.rejects, 0);
        let a = plan.assessment.expect("a non-trivial cut is assessed");
        assert_eq!(a, assess(&d, &plan.decomposition));
        assert!(a.cross_edges > 0);
    }

    #[test]
    fn mostly_crossing_cut_is_rejected() {
        // Two "shards" joined by more edges than live inside either:
        // the assessment must reject. The level chop puts the chain
        // below and the sinks above; the bipartite edges all cross.
        let mut b = DagBuilder::new();
        let mut left = Vec::new();
        let mut right = Vec::new();
        let mut lp = b.instr(Opcode::IntAlu);
        left.push(lp);
        for _ in 1..8 {
            let n = b.instr(Opcode::IntAlu);
            b.edge(lp, n).unwrap();
            lp = n;
            left.push(n);
        }
        for _ in 0..8 {
            right.push(b.instr(Opcode::IntAlu));
        }
        for &l in &left {
            for &r in &right {
                b.edge(l, r).unwrap();
            }
        }
        let d = b.build().unwrap();
        let dec = decompose_with(&d, &RegionPolicy::new(8).with_region_size(8));
        assert!(!dec.is_trivial());
        let a = assess(&d, &dec);
        assert_eq!(a.verdict, CutVerdict::RejectedCrossEdges, "{a:?}");
    }

    #[test]
    fn cross_edge_rejection_coarsens_the_target() {
        // The same chain-plus-sinks graph: the 8-instruction target is
        // rejected for its cross edges, the doubled target of 16 covers
        // the whole graph, so the search ends trivial and carries the
        // rejected assessment.
        let mut b = DagBuilder::new();
        let mut lp = b.instr(Opcode::IntAlu);
        let mut left = vec![lp];
        for _ in 1..8 {
            let n = b.instr(Opcode::IntAlu);
            b.edge(lp, n).unwrap();
            lp = n;
            left.push(n);
        }
        let right: Vec<InstrId> = (0..8).map(|_| b.instr(Opcode::IntAlu)).collect();
        for &l in &left {
            for &r in &right {
                b.edge(l, r).unwrap();
            }
        }
        let d = b.build().unwrap();
        let plan = plan_regions(&d, &RegionPolicy::new(8).with_region_size(8));
        assert!(plan.decomposition.is_trivial());
        assert!(!plan.accepted());
        assert_eq!(plan.rejects, 1);
        assert_eq!(
            plan.assessment.map(|a| a.verdict),
            Some(CutVerdict::RejectedCrossEdges)
        );
    }

    #[test]
    fn uncut_graphs_have_no_assessment() {
        let d = chains(1, 100);
        let plan = plan_regions(&d, &RegionPolicy::new(8));
        assert!(plan.decomposition.is_trivial());
        assert_eq!(plan.assessment, None);
        assert_eq!(plan.rejects, 0);
        assert!(!plan.accepted());
    }
}
