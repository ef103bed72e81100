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
//! exactly and updated as instructions join (see `BinDistances`).

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
        near.seed(&bins);
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
            near.join(any, [i]);
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

/// Exact undirected distances, in edges, from every instruction to
/// each bin of the current band: row `c` holds the distance to the
/// nearest member of bin `c` ([`UNREACHABLE`] when none is connected).
///
/// Rows only shrink as members join, so each join is a BFS from the
/// newcomer that expands only where it improves the row. That is exact
/// because distance to a set is 1-Lipschitz along an edge: if the
/// newcomer `x` improves `v`, every vertex `u` on a shortest `x`–`v`
/// path has `row[u] ≥ row[v] − d(u, v) > d(x, v) − d(u, v) = d(x, u)`,
/// so the search reaches `v` through improving vertices only.
#[derive(Debug)]
struct BinDistances<'a> {
    /// The graph, walked undirected through [`Dag::neighbors`].
    dag: &'a Dag,
    /// `rows × n` distances, row-major.
    dist: Vec<u32>,
    queue: Vec<InstrId>,
}

impl<'a> BinDistances<'a> {
    /// One row per cluster plus the any-bin row, all unreachable.
    fn new(dag: &'a Dag, n_clusters: usize) -> Self {
        BinDistances {
            dag,
            dist: vec![UNREACHABLE; (n_clusters + 1) * dag.len()],
            queue: Vec::new(),
        }
    }

    /// Distance from `i` to row `c`'s set.
    fn get(&self, c: usize, i: InstrId) -> u32 {
        self.dist[c * self.dag.len() + i.index()]
    }

    /// Resets every row to the band's seed `bins` (and their union).
    fn seed(&mut self, bins: &[Vec<InstrId>]) {
        self.dist.fill(UNREACHABLE);
        for (c, bin) in bins.iter().enumerate() {
            self.join(c, bin.iter().copied());
        }
        self.join(bins.len(), bins.iter().flatten().copied());
    }

    /// Adds `xs` to row `c`'s set: a multi-source BFS pruned to the
    /// vertices it brings closer.
    fn join(&mut self, c: usize, xs: impl IntoIterator<Item = InstrId>) {
        let n = self.dag.len();
        let row = &mut self.dist[c * n..(c + 1) * n];
        self.queue.clear();
        for x in xs {
            if row[x.index()] > 0 {
                row[x.index()] = 0;
                self.queue.push(x);
            }
        }
        let mut head = 0;
        while let Some(&u) = self.queue.get(head) {
            head += 1;
            let d = row[u.index()] + 1;
            for v in self.dag.neighbors(u) {
                if d < row[v.index()] {
                    row[v.index()] = d;
                    self.queue.push(v);
                }
            }
        }
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

    #[test]
    fn granularity_zero_rejected() {
        assert!(std::panic::catch_unwind(|| LevelDistribute::new().with_granularity(0)).is_err());
    }
}
