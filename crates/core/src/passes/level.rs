//! LEVEL — level distribution.
//!
//! "This pass distributes instructions at the same level across
//! clusters. … The primary goal is to distribute parallelism across
//! clusters. The second goal is to minimize potential communication.
//! To this end, the pass tries to distribute instructions that are far
//! apart, while keeping together instructions that are near each
//! other."
//!
//! Instructions in a band of `g` consecutive levels (the paper applies
//! it "every four levels on Raw" — four levels being roughly Raw's
//! minimum profitable parallelism granularity) are partitioned into
//! per-cluster *bins*. Bins are seeded with instructions already
//! confidently assigned (confidence > 2.0). The remaining instructions
//! are dealt out: instructions far (> `g`) from every bin — the
//! genuinely independent ones — are spread round-robin, each going to
//! the bin it is closest to (most isolated first when seeding an empty
//! bin); instructions near an existing bin simply join their closest
//! bin, keeping neighborhoods together. (The paper's pseudocode reads
//! `argmax{i ∈ Ig : distance(i, B)}` while naming the result
//! `iclosest`; we follow the name and the stated intent — nearest
//! wins — and flag the discrepancy here.) Distances to bins are kept
//! exact at band members and updated as instructions join (see
//! `BinDistances`).

use convergent_analysis::{EffectOp, Interval, PassEffect};
use convergent_ir::{ClusterId, Dag, InstrId, UNREACHABLE};

use crate::{Pass, PassContext};

/// The LEVEL pass. See the module docs.
#[derive(Clone, Copy, Debug)]
pub struct LevelDistribute {
    granularity: u32,
    confidence_threshold: f64,
    boost: f64,
}

impl LevelDistribute {
    /// Creates the pass with the paper's parameters: granularity 4,
    /// confidence threshold 2.0 (and a ×2 weight boost for the chosen
    /// bin).
    #[must_use]
    pub fn new() -> Self {
        LevelDistribute {
            granularity: 4,
            confidence_threshold: 2.0,
            boost: 2.0,
        }
    }

    /// Sets the level-band granularity `g`.
    ///
    /// # Panics
    ///
    /// Panics if `g` is zero.
    #[must_use]
    pub fn with_granularity(mut self, g: u32) -> Self {
        assert!(g > 0, "granularity must be positive");
        self.granularity = g;
        self
    }

    /// Sets the confidence threshold above which instructions seed
    /// bins.
    #[must_use]
    pub fn with_confidence_threshold(mut self, t: f64) -> Self {
        self.confidence_threshold = t;
        self
    }
}

impl Default for LevelDistribute {
    fn default() -> Self {
        LevelDistribute::new()
    }
}

impl Pass for LevelDistribute {
    fn name(&self) -> &'static str {
        "LEVEL"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        // Bucket once into bands of `g` consecutive levels, id order
        // within each band.
        let time = ctx.time;
        let band_of = |i: InstrId| time.level(i) / self.granularity;
        let mut order: Vec<InstrId> = ctx.dag.ids().collect();
        order.sort_unstable_by_key(|&i| (band_of(i), i));
        let mut near = BinDistances::new(ctx.dag, ctx.weights.n_clusters());
        let mut rr: usize = 0; // round-robin cursor persists across bands
        for band in order.chunk_by(|&a, &b| band_of(a) == band_of(b)) {
            self.distribute_band(ctx, band, &mut near, &mut rr);
        }
    }

    fn effect(&self) -> PassEffect {
        // A constant boost of each instruction's chosen bin cluster;
        // the round-robin deal assigns different clusters to tied
        // instructions, breaking symmetry.
        PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::point(self.boost),
        }])
        .breaks_symmetry()
    }
}

impl LevelDistribute {
    fn distribute_band(
        &self,
        ctx: &mut PassContext<'_>,
        band: &[InstrId],
        near: &mut BinDistances<'_>,
        rr: &mut usize,
    ) {
        let n_clusters = ctx.weights.n_clusters();
        let mut bins: Vec<Vec<InstrId>> = vec![Vec::new(); n_clusters];
        let mut il: Vec<InstrId> = Vec::new();
        for &i in band {
            if ctx.weights.confidence(i) > self.confidence_threshold {
                bins[ctx.weights.preferred_cluster(i).index()].push(i);
            } else {
                il.push(i);
            }
        }
        if il.is_empty() {
            return; // nothing to place, so no distance work
        }
        // A band spans `g` cycles, so a cluster can issue roughly
        // g × issue-width operations of it; past that, keeping
        // instructions "together" just serializes them. The cap also
        // never drops below an even share of the band, so distribution
        // degrades gracefully on oversubscribed machines. This
        // capacity is how the pass achieves its primary goal —
        // distributing parallelism — on graphs where every
        // instruction is graph-close to every other (e.g. fpppp).
        let fair_share = (band.len() * 3).div_ceil(2 * n_clusters); // even share + 50% slack
        let capacity: Vec<usize> = (0..n_clusters)
            .map(|c| {
                let width = ctx.machine.cluster(ClusterId::new(c as u16)).issue_width();
                (self.granularity as usize * width).max(fair_share)
            })
            .collect();
        near.seed(band, &bins);
        // Row `n_clusters` holds the distance to the nearest member of
        // any bin: an instruction's isolation.
        let any = n_clusters;
        let place = |ctx: &mut PassContext<'_>,
                     bins: &mut [Vec<InstrId>],
                     near: &mut BinDistances<'_>,
                     c: usize,
                     i: InstrId| {
            bins[c].push(i);
            near.join(c, [i]);
            // Boosting at once is safe: within a band the pass reads
            // only feasibility, which a boost cannot change.
            ctx.weights
                .scale_cluster(i, ClusterId::new(c as u16), self.boost);
        };
        let feasible = |ctx: &PassContext<'_>, i: InstrId, c: usize| {
            ctx.weights.cluster_feasible(i, ClusterId::new(c as u16))
        };

        let mut ig: Vec<InstrId> = Vec::new();
        let mut skips = 0usize;
        while !il.is_empty() {
            if skips > 2 * n_clusters {
                // Capacity and feasibility conflict for everything
                // left: place each on its closest feasible bin and
                // stop (guaranteed progress).
                for i in il.drain(..) {
                    let best = (0..n_clusters)
                        .filter(|&c| feasible(ctx, i, c))
                        .min_by_key(|&c| (near.get(c, i), c));
                    if let Some(c) = best {
                        place(ctx, &mut bins, near, c, i);
                    }
                }
                break;
            }
            // Ig: instructions farther than g from every nonempty bin.
            let unseeded = bins.iter().all(Vec::is_empty);
            ig.clear();
            ig.extend(
                il.iter()
                    .copied()
                    .filter(|&i| unseeded || near.get(any, i) > self.granularity),
            );

            if ig.is_empty() {
                // Everyone left is near an existing bin: join the
                // closest bin that still has capacity. Full bins lose
                // to any bin with space — including still-empty ones —
                // so oversubscribed neighborhoods spill outward
                // instead of serializing on one cluster.
                for i in il.drain(..) {
                    let best = (0..n_clusters)
                        .filter(|&c| feasible(ctx, i, c))
                        .min_by_key(|&c| {
                            let len = bins[c].len();
                            (len >= capacity[c], near.get(c, i), len, c)
                        });
                    if let Some(c) = best {
                        place(ctx, &mut bins, near, c, i);
                    }
                }
                break;
            }

            // Round-robin the bins; nearest Ig member joins (most
            // isolated seeds an empty bin). Full bins are skipped; if
            // every bin is full the capacity rule yields to progress.
            let b = *rr % n_clusters;
            *rr += 1;
            if bins[b].len() >= capacity[b]
                && bins
                    .iter()
                    .enumerate()
                    .any(|(c, bin)| bin.len() < capacity[c])
            {
                skips += 1;
                continue;
            }
            let candidates = ig.iter().copied().filter(|&i| feasible(ctx, i, b));
            let chosen = if bins[b].is_empty() {
                candidates.max_by_key(|&i| (near.get(any, i), std::cmp::Reverse(i)))
            } else {
                candidates.min_by_key(|&i| (near.get(b, i), i))
            };
            let Some(chosen) = chosen else {
                // This bin's cluster can't take anyone; move on.
                skips += 1;
                continue;
            };
            place(ctx, &mut bins, near, b, chosen);
            il.retain(|&i| i != chosen);
            skips = 0;
        }
    }
}

/// Undirected distances, in edges, from instructions to each bin of
/// the current band: row `c` holds the distance to the nearest member
/// of bin `c`, and the last row (the *any* row) the distance to the
/// nearest member of any bin ([`UNREACHABLE`] when none is connected).
///
/// Only band members are ever read, and only band members are exact.
/// Every other entry is an *overestimate*: at least the true distance.
/// Rows only shrink as members join, so each join is a level-by-level
/// BFS from the newcomers that expands only where it improves the row.
/// Overestimates do not hide a band member from it: distance to a set
/// is 1-Lipschitz along an edge, so if a newcomer `x` improves a band
/// member `b`, every vertex `u` on a shortest `x`–`b` path has
/// `row[u] ≥ dist(u) ≥ dist(b) − d(u, b) > d(x, b) − d(u, b) = d(x, u)`
/// (the first step is the overestimate bound, the strict one is
/// `row[b] = dist(b) > d(x, b)`), so the search reaches `b` through
/// improving vertices only, at depth `d(x, b)`.
///
/// The search stops before expanding depth `k` once every band member
/// of the row is reached and none is farther than `k + 1`: an
/// improvement from there on needs `d(x, b) ≥ k + 1 ≥ row[b]`, which
/// is no improvement. Vertices beyond the stop keep their old values,
/// which are at least the old distance and so at least the new one.
/// A band member in another component stays unreached, and so the
/// search then exhausts its own component.
///
/// The any row has no search of its own: every bin-row write is
/// mirrored into it as a running minimum. At a band member each bin
/// row's last write is its exact distance, so the mirror is the
/// minimum of the exact bin distances, the distance to the union.
#[derive(Debug)]
struct BinDistances<'a> {
    /// The graph, walked undirected through [`Dag::neighbors`].
    dag: &'a Dag,
    /// `(bins + 1) × n` distances, row-major; the any row is last.
    dist: Vec<u32>,
    /// `stamp[v] == band` exactly when `v` is in the current band.
    stamp: Vec<u32>,
    band: u32,
    /// Per bin row: the band members it has not reached.
    unreached: Vec<usize>,
    /// Per bin row: how many band members sit at each finite distance,
    /// with no trailing zeros once [`BinDistances::settled`] trims it.
    at: Vec<Vec<u32>>,
    queue: Vec<InstrId>,
}

impl<'a> BinDistances<'a> {
    /// One row per cluster plus the any-bin row, all unreachable.
    fn new(dag: &'a Dag, n_clusters: usize) -> Self {
        BinDistances {
            dag,
            dist: vec![UNREACHABLE; (n_clusters + 1) * dag.len()],
            stamp: vec![0; dag.len()],
            band: 0,
            unreached: vec![0; n_clusters],
            at: vec![Vec::new(); n_clusters],
            queue: Vec::new(),
        }
    }

    /// Distance from band member `i` to row `c`'s set (`c` = number of
    /// bins for the any row).
    fn get(&self, c: usize, i: InstrId) -> u32 {
        self.dist[c * self.dag.len() + i.index()]
    }

    /// Starts `band` with the seed `bins`: resets every row to them
    /// (and their union).
    fn seed(&mut self, band: &[InstrId], bins: &[Vec<InstrId>]) {
        self.band += 1;
        for &i in band {
            self.stamp[i.index()] = self.band;
        }
        self.dist.fill(UNREACHABLE);
        self.unreached.fill(band.len());
        for at in &mut self.at {
            at.clear();
        }
        for (c, bin) in bins.iter().enumerate() {
            self.join(c, bin.iter().copied());
        }
    }

    /// Adds `xs` to bin row `c`'s set: a multi-source BFS pruned to the
    /// vertices it brings closer, stopped once the band is settled.
    fn join(&mut self, c: usize, xs: impl IntoIterator<Item = InstrId>) {
        let (dag, n) = (self.dag, self.dag.len());
        self.queue.clear();
        for x in xs {
            if self.dist[c * n + x.index()] > 0 {
                self.lower(c, x, 0);
                self.queue.push(x);
            }
        }
        let (mut head, mut depth) = (0, 0);
        while head < self.queue.len() && !self.settled(c, depth) {
            let end = self.queue.len();
            for k in head..end {
                for v in dag.neighbors(self.queue[k]) {
                    if depth + 1 < self.dist[c * n + v.index()] {
                        self.lower(c, v, depth + 1);
                        self.queue.push(v);
                    }
                }
            }
            (head, depth) = (end, depth + 1);
        }
    }

    /// Sets `v`'s entry in bin row `c` to the smaller `d`, mirrors it
    /// into the any row, and keeps the row's band tallies.
    fn lower(&mut self, c: usize, v: InstrId, d: u32) {
        let (n, any) = (self.dag.len(), self.at.len());
        let old = std::mem::replace(&mut self.dist[c * n + v.index()], d);
        let mirror = &mut self.dist[any * n + v.index()];
        *mirror = (*mirror).min(d);
        if self.stamp[v.index()] == self.band {
            let at = &mut self.at[c];
            if old == UNREACHABLE {
                self.unreached[c] -= 1;
            } else {
                at[old as usize] -= 1;
            }
            if at.len() <= d as usize {
                at.resize(d as usize + 1, 0);
            }
            at[d as usize] += 1;
        }
    }

    /// Whether a search in bin row `c` may stop before expanding depth
    /// `depth`: every band member is reached and none is farther than
    /// `depth + 1`.
    fn settled(&mut self, c: usize, depth: u32) -> bool {
        let at = &mut self.at[c];
        while at.last() == Some(&0) {
            at.pop();
        }
        self.unreached[c] == 0 && at.len() <= depth as usize + 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::testutil::Rig;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_machine::Machine;

    fn c(k: u16) -> ClusterId {
        ClusterId::new(k)
    }

    #[test]
    fn independent_instructions_spread_out() {
        // Four disconnected instructions at level 0 on 4 tiles: LEVEL
        // must give each a distinct preferred cluster.
        let mut b = DagBuilder::new();
        let ids: Vec<_> = (0..4).map(|_| b.instr(Opcode::IntAlu)).collect();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(4));
        rig.run(&LevelDistribute::new());
        rig.weights.assert_invariants(1e-9);
        let mut prefs: Vec<u16> = ids
            .iter()
            .map(|&i| rig.weights.preferred_cluster(i).raw())
            .collect();
        prefs.sort_unstable();
        assert_eq!(prefs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn close_instructions_stay_together() {
        // Two tight pairs (siblings sharing a parent) and distance
        // > g between the pairs: each pair should land in one bin.
        let mut b = DagBuilder::new();
        // Pair A: parent at level 0 with two consumers.
        let pa = b.instr(Opcode::IntAlu);
        let a1 = b.instr(Opcode::IntAlu);
        let a2 = b.instr(Opcode::IntAlu);
        b.edge(pa, a1).unwrap();
        b.edge(pa, a2).unwrap();
        // Pair B: disconnected twin structure.
        let pb = b.instr(Opcode::IntAlu);
        let b1 = b.instr(Opcode::IntAlu);
        let b2 = b.instr(Opcode::IntAlu);
        b.edge(pb, b1).unwrap();
        b.edge(pb, b2).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        rig.run(&LevelDistribute::new().with_granularity(4));
        // Siblings a1/a2 are 2 apart (via parent), so whoever joins
        // second lands in the same bin as the first.
        assert_eq!(
            rig.weights.preferred_cluster(a1),
            rig.weights.preferred_cluster(a2)
        );
        assert_eq!(
            rig.weights.preferred_cluster(b1),
            rig.weights.preferred_cluster(b2)
        );
        // And the two pairs land apart.
        assert_ne!(
            rig.weights.preferred_cluster(a1),
            rig.weights.preferred_cluster(b1)
        );
    }

    #[test]
    fn confident_instructions_seed_bins() {
        let mut b = DagBuilder::new();
        let seed = b.instr(Opcode::IntAlu);
        let near = b.instr(Opcode::IntAlu);
        b.edge(seed, near).unwrap();
        let dag = b.build().unwrap();
        let mut rig = Rig::new(dag, Machine::raw(2));
        // Pin the seed on cluster 1 with high confidence.
        rig.weights.scale_cluster(seed, c(1), 10.0);
        rig.weights.normalize_all();
        rig.run(&LevelDistribute::new());
        // `near` (distance 1 ≤ g) joins the seeded bin.
        assert_eq!(rig.weights.preferred_cluster(near), c(1));
    }

    /// Exact multi-source undirected distances from `set`.
    fn full_bfs(dag: &Dag, set: &[InstrId]) -> Vec<u32> {
        let mut dist = vec![UNREACHABLE; dag.len()];
        let mut queue: Vec<InstrId> = set.to_vec();
        for &x in set {
            dist[x.index()] = 0;
        }
        let mut head = 0;
        while let Some(&u) = queue.get(head) {
            head += 1;
            for v in dag.neighbors(u) {
                if dist[v.index()] == UNREACHABLE {
                    dist[v.index()] = dist[u.index()] + 1;
                    queue.push(v);
                }
            }
        }
        dist
    }

    /// A chain of `len` instructions.
    fn chain(b: &mut DagBuilder, len: usize) -> Vec<InstrId> {
        let ids: Vec<InstrId> = (0..len).map(|_| b.instr(Opcode::IntAlu)).collect();
        for w in ids.windows(2) {
            b.edge(w[0], w[1]).unwrap();
        }
        ids
    }

    #[test]
    fn band_member_in_another_component_reads_unreachable() {
        let mut b = DagBuilder::new();
        let p = chain(&mut b, 6);
        let q = chain(&mut b, 2);
        let dag = b.build().unwrap();
        let mut near = BinDistances::new(&dag, 1);
        near.seed(&[p[0], p[2], q[1]], &[vec![p[0]]]);
        assert_eq!(near.get(0, p[2]), 2);
        assert_eq!(near.get(0, q[1]), UNREACHABLE);
        assert_eq!(near.get(1, q[1]), UNREACHABLE, "any row");
        // The unreached member keeps the search going: it exhausts
        // its own component.
        assert_eq!(near.get(0, p[5]), 5);
    }

    #[test]
    fn join_stops_once_the_band_is_settled() {
        let mut b = DagBuilder::new();
        let p = chain(&mut b, 8);
        let dag = b.build().unwrap();
        let mut near = BinDistances::new(&dag, 1);
        near.seed(&[p[0], p[2]], &[vec![p[0]]]);
        assert_eq!(near.get(0, p[2]), 2);
        // Depth 2 holds the farthest band member, so depth 2 is never
        // expanded: everything past it stays an overestimate.
        assert_eq!(near.get(0, p[3]), UNREACHABLE);
        assert_eq!(near.get(0, p[7]), UNREACHABLE);
    }

    #[test]
    fn join_crosses_a_vertex_left_at_an_overestimate() {
        // s — a1 — a2 — y and s — c1 — c2 — b, plus y — u — b: the
        // seed join from s settles y and b at 3 and stops before u
        // (true distance 4). Joining y must then reach b through u,
        // its only shortest path.
        let mut b = DagBuilder::new();
        let a = chain(&mut b, 4);
        let c = chain(&mut b, 3);
        let (s, y, bm) = (a[0], a[3], c[2]);
        b.edge(s, c[0]).unwrap();
        let u = b.instr(Opcode::IntAlu);
        b.edge(y, u).unwrap();
        b.edge(u, bm).unwrap();
        let dag = b.build().unwrap();
        let band = [y, bm];
        let mut near = BinDistances::new(&dag, 1);
        near.seed(&band, &[vec![s]]);
        assert_eq!((near.get(0, y), near.get(0, bm)), (3, 3));
        assert_eq!(near.get(0, u), UNREACHABLE, "u is left at an overestimate");
        near.join(0, [y]);
        assert_eq!(full_bfs(&dag, &[s, y])[bm.index()], 2);
        assert_eq!(near.get(0, bm), 2);
        assert_eq!(near.get(1, bm), 2, "any row");
    }

    #[test]
    fn band_rows_match_full_searches_after_every_join() {
        let n_bins = 3;
        for (family, seed) in [("layered", 1), ("series-parallel", 2), ("disconnected", 3)] {
            let unit = convergent_workloads::build_unit(family, 120, 4, seed);
            let dag = unit.dag();
            let time = convergent_ir::TimeAnalysis::compute(dag, |_| 1);
            let mut near = BinDistances::new(dag, n_bins);
            let mut ids: Vec<InstrId> = dag.ids().collect();
            ids.sort_by_key(|&i| (time.level(i) / 4, i));
            for band in ids.chunk_by(|&a, &b| time.level(a) / 4 == time.level(b) / 4) {
                // Seed two bins with a member each, then deal the rest
                // round-robin over all three.
                let mut bins: Vec<Vec<InstrId>> = vec![Vec::new(); n_bins];
                let (seeded, rest) = band.split_at(band.len().min(2));
                for (c, &i) in seeded.iter().enumerate() {
                    bins[c].push(i);
                }
                near.seed(band, &bins);
                let check = |near: &BinDistances<'_>, bins: &[Vec<InstrId>]| {
                    let exact: Vec<Vec<u32>> = bins.iter().map(|bin| full_bfs(dag, bin)).collect();
                    let union = full_bfs(dag, &bins.concat());
                    for &i in band {
                        for (c, row) in exact.iter().enumerate() {
                            assert_eq!(
                                near.get(c, i),
                                row[i.index()],
                                "{family}: bin {c} at {i:?}"
                            );
                        }
                        let min = (0..n_bins).map(|c| near.get(c, i)).min();
                        assert_eq!(Some(near.get(n_bins, i)), min, "{family}: any at {i:?}");
                        assert_eq!(
                            near.get(n_bins, i),
                            union[i.index()],
                            "{family}: any at {i:?}"
                        );
                    }
                };
                check(&near, &bins);
                for (k, &i) in rest.iter().enumerate() {
                    let c = k % n_bins;
                    bins[c].push(i);
                    near.join(c, [i]);
                    check(&near, &bins);
                }
            }
        }
    }

    #[test]
    fn granularity_zero_rejected() {
        assert!(std::panic::catch_unwind(|| LevelDistribute::new().with_granularity(0)).is_err());
    }
}
