//! Partial Component Clustering (PCC).
//!
//! Desoli (HP Labs technical report HPL-98-13) assigns clusters in
//! three steps:
//!
//! 1. **Partial components** — walk the dependence graph bottom-up,
//!    critical-path first, growing chains of instructions; component
//!    size is capped by a threshold θ.
//! 2. **Initial assignment** — components are placed on clusters by
//!    simple load-balancing and communication-affinity criteria.
//! 3. **Iterative descent** — repeatedly try moving a component to
//!    another cluster, keeping any move that shortens Desoli's
//!    *estimate* of the schedule length (dependence height with
//!    communication, against the busiest functional unit). The number
//!    of probes — components × clusters × rounds — is what makes PCC's
//!    compile time balloon in the paper's Figure 10, and we keep it
//!    exactly. Each probe is incremental: it recounts the two clusters
//!    the move touches and the height from the moved members' first
//!    topological position onward, and returns the same value as
//!    recomputing the estimate from scratch.
//!
//! As in the paper's comparison, preplacement is accounted for through
//! cost: on soft-memory machines (Chorus) the length estimate prices
//! remote accesses; on hard machines (Raw) components containing
//! preplaced instructions are pinned to the home cluster.

use convergent_ir::{ClusterId, Dag, InstrId, OpClass, TimeAnalysis};
use convergent_machine::Machine;
use convergent_sim::{Assignment, SpaceTimeSchedule};

use crate::list::check_assignment;
use crate::{ListScheduler, ScheduleError, Scheduler};

/// The component cap θ. Desoli notes the tradeoff: small θ → more
/// components → better assignments but longer compile times.
const THETA: usize = 12;

/// The PCC scheduler. See the module docs.
#[derive(Clone, Debug)]
pub struct PccScheduler {
    max_rounds: usize,
}

impl PccScheduler {
    /// Creates a PCC scheduler with the component cap θ = 12 and up to
    /// 4 descent rounds.
    #[must_use]
    pub fn new() -> Self {
        PccScheduler { max_rounds: 4 }
    }

    /// Sets the maximum number of iterative-descent rounds.
    #[must_use]
    pub fn with_max_rounds(mut self, rounds: usize) -> Self {
        self.max_rounds = rounds;
        self
    }

    /// Computes the cluster assignment (steps 1–3) without the final
    /// list-scheduling pass.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] for graphs that cannot be mapped to
    /// the machine (bad home clusters, inexecutable operations).
    pub fn assign(&self, dag: &Dag, machine: &Machine) -> Result<Assignment, ScheduleError> {
        self.assign_counting(dag, machine)
            .map(|(assignment, _)| assignment)
    }

    /// The number of length estimates (probes) the iterative descent
    /// of [`assign`](Self::assign) makes on `dag`: the algorithmic
    /// compile-time cost behind the paper's Figure 10.
    ///
    /// # Errors
    ///
    /// As [`assign`](Self::assign).
    #[doc(hidden)]
    pub fn descent_probes(&self, dag: &Dag, machine: &Machine) -> Result<u64, ScheduleError> {
        self.assign_counting(dag, machine).map(|(_, probes)| probes)
    }

    fn assign_counting(
        &self,
        dag: &Dag,
        machine: &Machine,
    ) -> Result<(Assignment, u64), ScheduleError> {
        crate::precondition::check_inputs(dag, machine)?;
        let components = build_components(dag, machine, THETA)?;
        let mut assignment = initial_assignment(dag, machine, &components);
        check_assignment(dag, machine, &assignment)?;
        let mut estimate = LengthEstimate::new(dag, machine, &assignment);
        let probes = self.descend(dag, machine, &components, &mut assignment, &mut estimate);
        Ok((assignment, probes))
    }

    /// Step 3: iterative descent on *estimated* schedule length —
    /// Desoli's algorithm "for estimating schedule lengths and
    /// communication costs" rather than a full scheduler run per probe.
    /// The estimate's misalignment with the real makespan is PCC's
    /// published weakness, while the sheer number of probes is its
    /// published compile-time cost (Figure 10). Returns that number.
    fn descend(
        &self,
        dag: &Dag,
        machine: &Machine,
        components: &[Component],
        assignment: &mut Assignment,
        estimate: &mut impl Estimate,
    ) -> u64 {
        let hard = machine.memory().preplacement_is_hard();
        let mut best = estimate.length();
        let mut probes = 0;
        for _ in 0..self.max_rounds {
            let mut improved = false;
            for comp in components {
                if hard && comp.home.is_some() {
                    continue; // pinned
                }
                let current = assignment.cluster(comp.members[0]);
                let mut best_move: Option<(ClusterId, u32)> = None;
                for c in machine.cluster_ids() {
                    if c == current {
                        continue;
                    }
                    if comp
                        .members
                        .iter()
                        .any(|&i| !machine.cluster_can_execute(c, dag.instr(i).class()))
                    {
                        continue;
                    }
                    probes += 1;
                    let m = estimate.probe(&comp.members, current, c);
                    if m < best && best_move.is_none_or(|(_, bm)| m < bm) {
                        best_move = Some((c, m));
                    }
                }
                if let Some((c, m)) = best_move {
                    estimate.commit(&comp.members, current, c);
                    for &i in &comp.members {
                        assignment.set(i, c);
                    }
                    best = m;
                    improved = true;
                }
            }
            if !improved {
                break;
            }
        }
        probes
    }
}

impl Default for PccScheduler {
    fn default() -> Self {
        PccScheduler::new()
    }
}

impl Scheduler for PccScheduler {
    fn name(&self) -> &str {
        "pcc"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> Result<SpaceTimeSchedule, ScheduleError> {
        let assignment = self.assign(dag, machine)?;
        ListScheduler::new().schedule_with_cp(dag, machine, &assignment)
    }
}

/// What the descent needs from a schedule-length estimate.
trait Estimate {
    /// The estimate for the current assignment.
    fn length(&self) -> u32;

    /// The estimate with the component `moved` (all on `from`, in id
    /// order) moved to `to`. The current assignment is left as it was.
    fn probe(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId) -> u32;

    /// Makes the move [`probe`](Self::probe) describes current.
    fn commit(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId);
}

/// Marks a moved instruction while its copy slots are re-counted.
const DETACHED: u32 = u32::MAX;

/// A cluster's resource load before copies: its busiest unit's count
/// and, when copies occupy transfer units, its least-loaded transfer
/// unit's count.
type Load = (u32, Option<u32>);

/// Desoli-style schedule-length estimate for an assignment: the larger
/// of (a) the dependence height where every cross-cluster edge pays
/// the transfer latency and remote memory ops pay their penalty, and
/// (b) the busiest cluster's resource bound (operations per capable
/// functional unit, counting inserted copies on transfer units).
///
/// It is kept up to date as the descent moves components. A move from
/// `from` to `to` can change only the unit counts of those two
/// clusters, the copy counts of the moved members' producers, and the
/// finish times from the moved members' first topological position
/// onward, so a probe recomputes just those and restores them. Within
/// that suffix only the moved members, their consumers and the
/// consumers of any time that changed are recomputed.
struct LengthEstimate<'a> {
    dag: &'a Dag,
    machine: &'a Machine,
    n_clusters: usize,
    /// Topological position of each instruction.
    pos: Vec<u32>,
    /// Predecessor and successor positions of each position.
    preds: Adjacency,
    succs: Adjacency,
    /// Cluster of each position.
    cluster: Vec<u32>,
    /// Finish time of each position under the current assignment.
    finish: Vec<u32>,
    /// `reach[q]`: the largest finish time before position `q`.
    reach: Vec<u32>,
    /// A probe's finish times: `finish` except at `changed`.
    work: Vec<u32>,
    changed: Vec<u32>,
    /// Positions whose finish time the running probe must recompute.
    stale: Vec<bool>,
    units: UnitTable,
    /// Each cluster's members and unit counts.
    loads: Vec<ClusterLoad>,
    /// Each cluster's distinct (producer, consumer cluster) copies.
    copies: Vec<u32>,
    /// Edges from each instruction into each cluster, when copies
    /// occupy transfer units (empty otherwise).
    out_edges: Vec<u32>,
    /// Unit counts of a probe's recount.
    per_fu: Vec<u32>,
}

impl<'a> LengthEstimate<'a> {
    fn new(dag: &'a Dag, machine: &'a Machine, assignment: &Assignment) -> Self {
        let n = dag.len();
        let n_clusters = machine.n_clusters();
        let order = dag.topo_order();
        let mut pos = vec![0u32; n];
        for (q, &i) in order.iter().enumerate() {
            pos[i.index()] = q as u32;
        }
        let preds = Adjacency::new(order, &pos, |i| dag.preds(i));
        let succs = Adjacency::new(order, &pos, |i| dag.succs(i));
        let cluster = order
            .iter()
            .map(|&i| assignment.cluster(i).index() as u32)
            .collect();
        let mut loads: Vec<ClusterLoad> = (0..n_clusters).map(|_| ClusterLoad::default()).collect();
        for i in dag.ids() {
            loads[assignment.cluster(i).index()].members.push(i);
        }
        let units = UnitTable::new(dag, machine);
        let mut out_edges = Vec::new();
        if units.transfer {
            out_edges = vec![0; n * n_clusters];
            for e in dag.edges() {
                out_edges[e.src.index() * n_clusters + assignment.cluster(e.dst).index()] += 1;
            }
        }
        let mut est = LengthEstimate {
            dag,
            machine,
            n_clusters,
            pos,
            preds,
            succs,
            cluster,
            finish: vec![0; n],
            reach: vec![0; n + 1],
            work: vec![0; n],
            changed: Vec::new(),
            stale: vec![true; n],
            units,
            loads,
            copies: vec![0; n_clusters],
            out_edges,
            per_fu: Vec::new(),
        };
        for c in 0..n_clusters {
            est.loads[c].recount(&est.units, c);
            if est.units.transfer {
                est.copies[c] = est.loads[c].members.iter().map(|&i| est.dests(i, c)).sum();
            }
        }
        est.height_after(&[], 0);
        est.settle(0);
        est
    }

    /// Distinct clusters other than `c` that `i`'s consumers occupy.
    fn dests(&self, i: InstrId, c: usize) -> u32 {
        let row = &self.out_edges[i.index() * self.n_clusters..][..self.n_clusters];
        row.iter()
            .enumerate()
            .filter(|&(u, &k)| u != c && k > 0)
            .count() as u32
    }

    /// Moves `moved` from `from` to `to` in the cluster map and the
    /// copy counts. Moved producers leave `from`'s count first, their
    /// consumers' edges are re-homed, then they join `to`'s count, so
    /// edges inside the component are counted once.
    fn relocate(&mut self, moved: &[InstrId], from: usize, to: usize) {
        if !self.units.transfer {
            for &m in moved {
                self.cluster[self.pos[m.index()] as usize] = to as u32;
            }
            return;
        }
        let nc = self.n_clusters;
        for &m in moved {
            self.copies[from] -= self.dests(m, from);
            self.cluster[self.pos[m.index()] as usize] = DETACHED;
        }
        for &m in moved {
            for &p in self.dag.preds(m) {
                let row = p.index() * nc;
                self.out_edges[row + from] -= 1;
                self.out_edges[row + to] += 1;
                let pc = self.cluster[self.pos[p.index()] as usize];
                if pc == DETACHED {
                    continue;
                }
                let pc = pc as usize;
                if self.out_edges[row + from] == 0 && from != pc {
                    self.copies[pc] -= 1;
                }
                if self.out_edges[row + to] == 1 && to != pc {
                    self.copies[pc] += 1;
                }
            }
        }
        for &m in moved {
            self.cluster[self.pos[m.index()] as usize] = to as u32;
            self.copies[to] += self.dests(m, to);
        }
    }

    /// Recomputes into `work` the finish times that moving `moved` can
    /// change — the moved members, their consumers (whose transfer
    /// latency changed), and the consumers of any time that changed —
    /// in topological order from `start`, the first moved member's
    /// position. Returns the height.
    fn height_after(&mut self, moved: &[InstrId], start: usize) -> u32 {
        for &m in moved {
            let q = self.pos[m.index()] as usize;
            self.stale[q] = true;
            for &s in self.succs.of(q) {
                self.stale[s as usize] = true;
            }
        }
        for q in start..self.work.len() {
            if !std::mem::take(&mut self.stale[q]) {
                continue;
            }
            let c = self.cluster[q] as usize;
            let to = ClusterId::new(c as u16);
            let ready = self
                .preds
                .of(q)
                .iter()
                .map(|&p| {
                    let p = p as usize;
                    let from = ClusterId::new(self.cluster[p] as u16);
                    self.work[p] + self.machine.comm_latency(from, to)
                })
                .max()
                .unwrap_or(0);
            // Computed here rather than tabled per position × cluster:
            // few positions are visited, and a table would raise PCC's
            // peak heap above the list scheduler's.
            let i = self.dag.topo_order()[q];
            let finish =
                ready + convergent_sim::effective_latency_in(self.dag, self.machine, i, to);
            if finish != self.work[q] {
                self.work[q] = finish;
                self.changed.push(q as u32);
                for &s in self.succs.of(q) {
                    self.stale[s as usize] = true;
                }
            }
        }
        let suffix = self.work[start..].iter().copied().max().unwrap_or(0);
        self.reach[start].max(suffix)
    }

    /// Makes the `changed` finish times committed; `start` is the
    /// first position that changed or earlier.
    fn settle(&mut self, start: usize) {
        for q in self.changed.drain(..) {
            self.finish[q as usize] = self.work[q as usize];
        }
        for q in start..self.finish.len() {
            self.reach[q + 1] = self.reach[q].max(self.finish[q]);
        }
    }

    /// The first topological position among `moved`.
    fn first_position(&self, moved: &[InstrId]) -> usize {
        moved
            .iter()
            .map(|m| self.pos[m.index()] as usize)
            .min()
            .unwrap_or(self.work.len())
    }

    /// The resource bound, with `touched` in place of the stored load
    /// for the clusters it names.
    fn bound(&self, touched: &[(usize, Load)]) -> u32 {
        (0..self.n_clusters)
            .map(|c| {
                let (busiest, transfer) = touched
                    .iter()
                    .find(|&&(k, _)| k == c)
                    .map_or(self.loads[c].load, |&(_, l)| l);
                busiest.max(transfer.map_or(0, |t| t + self.copies[c]))
            })
            .max()
            .unwrap_or(0)
    }
}

impl Estimate for LengthEstimate<'_> {
    fn length(&self) -> u32 {
        self.reach[self.work.len()].max(self.bound(&[]))
    }

    fn probe(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId) -> u32 {
        let (from, to) = (from.index(), to.index());
        self.relocate(moved, from, to);
        // Both recounts resume at the first member the move removes or
        // inserts; `moved` is in id order.
        let (cluster, pos) = (&self.cluster, &self.pos);
        let (src, k) = self.loads[from].resume_at(&self.units, from, moved[0]);
        let from_load = self.units.count(
            from,
            src,
            self.loads[from].members[k..]
                .iter()
                .copied()
                .filter(|i| cluster[pos[i.index()] as usize] == from as u32),
            &mut self.per_fu,
        );
        let (dst, k) = self.loads[to].resume_at(&self.units, to, moved[0]);
        let to_load = self.units.count(
            to,
            dst,
            merged(&self.loads[to].members[k..], moved),
            &mut self.per_fu,
        );
        let height = self.height_after(moved, self.first_position(moved));
        let length = height.max(self.bound(&[(from, from_load), (to, to_load)]));
        self.relocate(moved, to, from);
        for q in self.changed.drain(..) {
            self.work[q as usize] = self.finish[q as usize];
        }
        length
    }

    fn commit(&mut self, moved: &[InstrId], from: ClusterId, to: ClusterId) {
        let (from, to) = (from.index(), to.index());
        self.relocate(moved, from, to);
        let (cluster, pos) = (&self.cluster, &self.pos);
        let src = &mut self.loads[from];
        src.members
            .retain(|i| cluster[pos[i.index()] as usize] == from as u32);
        src.recount(&self.units, from);
        let dst = &mut self.loads[to];
        dst.members = merged(&dst.members, moved).collect();
        dst.recount(&self.units, to);
        let start = self.first_position(moved);
        self.height_after(moved, start);
        self.settle(start);
    }
}

/// Topological positions adjacent to each position, as CSR.
struct Adjacency {
    start: Vec<u32>,
    at: Vec<u32>,
}

impl Adjacency {
    fn new<'d>(order: &[InstrId], pos: &[u32], next: impl Fn(InstrId) -> &'d [InstrId]) -> Self {
        let mut start = Vec::with_capacity(order.len() + 1);
        let mut at = Vec::new();
        start.push(0);
        for &i in order {
            at.extend(next(i).iter().map(|j| pos[j.index()]));
            start.push(at.len() as u32);
        }
        Adjacency { start, at }
    }

    fn of(&self, q: usize) -> &[u32] {
        &self.at[self.start[q] as usize..self.start[q + 1] as usize]
    }
}

/// Which functional units of each cluster can run each operation.
struct UnitTable {
    /// Capable unit indices, ascending, for every cluster × [`OpClass`]
    /// cell in turn: cell `k`'s are `capable[start[k]..start[k + 1]]`.
    capable: Vec<usize>,
    start: Vec<u32>,
    /// Each cluster's issue width.
    width: Vec<usize>,
    /// Operation class of each instruction.
    class: Vec<OpClass>,
    /// Whether inserted copies occupy transfer units (machines whose
    /// values are not register-mapped).
    transfer: bool,
}

impl UnitTable {
    fn new(dag: &Dag, machine: &Machine) -> Self {
        let mut capable = Vec::new();
        let mut start = vec![0];
        let mut width = Vec::new();
        for c in machine.cluster_ids() {
            let cluster = machine.cluster(c);
            width.push(cluster.issue_width());
            for class in OpClass::ALL {
                capable.extend(
                    (0..cluster.issue_width()).filter(|&k| cluster.fus()[k].can_execute(class)),
                );
                start.push(capable.len() as u32);
            }
        }
        UnitTable {
            capable,
            start,
            width,
            class: dag.ids().map(|i| dag.instr(i).class()).collect(),
            transfer: !machine.comm().register_mapped,
        }
    }

    fn capable(&self, c: usize, class: OpClass) -> &[usize] {
        let k = c * OpClass::ALL.len() + class as usize;
        &self.capable[self.start[k] as usize..self.start[k + 1] as usize]
    }

    /// Charges `i` to its least-loaded capable unit of cluster `c`,
    /// lowest index on ties.
    fn charge(&self, c: usize, i: InstrId, per_fu: &mut [u32]) {
        if let Some(&k) = self
            .capable(c, self.class[i.index()])
            .iter()
            .min_by_key(|&&k| per_fu[k])
        {
            per_fu[k] += 1;
        }
    }

    /// Charges `ids` (in id order) to cluster `c`'s units, starting
    /// from the counts `start`, and returns the load.
    fn count(
        &self,
        c: usize,
        start: &[u32],
        ids: impl Iterator<Item = InstrId>,
        per_fu: &mut Vec<u32>,
    ) -> Load {
        per_fu.clear();
        per_fu.extend_from_slice(start);
        for i in ids {
            self.charge(c, i, per_fu);
        }
        self.load(c, per_fu)
    }

    fn load(&self, c: usize, per_fu: &[u32]) -> Load {
        let busiest = per_fu.iter().copied().max().unwrap_or(0);
        let transfer = if self.transfer {
            self.capable(c, OpClass::Copy)
                .iter()
                .map(|&k| per_fu[k])
                .min()
        } else {
            None
        };
        (busiest, transfer)
    }
}

/// One cluster's members and its greedy unit counts.
#[derive(Default)]
struct ClusterLoad {
    /// Instructions, in id order.
    members: Vec<InstrId>,
    /// Unit counts after each prefix of `members`, one issue width of
    /// counts apiece, so a recount can resume mid-list.
    prefix: Vec<u32>,
    load: Load,
}

impl ClusterLoad {
    /// Re-derives the prefix counts and load from `members`.
    fn recount(&mut self, units: &UnitTable, c: usize) {
        let w = units.width[c];
        self.prefix.clear();
        self.prefix.resize(w, 0);
        for (k, &i) in self.members.iter().enumerate() {
            self.prefix.extend_from_within(k * w..(k + 1) * w);
            units.charge(c, i, &mut self.prefix[(k + 1) * w..]);
        }
        self.load = units.load(c, &self.prefix[self.prefix.len() - w..]);
    }

    /// The counts before the first member at or after `id`, and that
    /// member's index.
    fn resume_at(&self, units: &UnitTable, c: usize, id: InstrId) -> (&[u32], usize) {
        let w = units.width[c];
        let k = self.members.partition_point(|&i| i < id);
        (&self.prefix[k * w..(k + 1) * w], k)
    }
}

/// Merges two id-ordered lists.
fn merged<'a>(a: &'a [InstrId], b: &'a [InstrId]) -> impl Iterator<Item = InstrId> + 'a {
    let (mut a, mut b) = (a.iter().copied().peekable(), b.iter().copied().peekable());
    std::iter::from_fn(move || match (a.peek(), b.peek()) {
        (Some(&x), Some(&y)) if y < x => b.next(),
        (Some(_), _) => a.next(),
        (None, _) => b.next(),
    })
}

/// A partial component: a chain-ish group of instructions assigned as
/// one unit.
#[derive(Clone, Debug)]
struct Component {
    /// In id order.
    members: Vec<InstrId>,
    home: Option<ClusterId>,
}

/// Step 1: grow components bottom-up, critical-path first, capped at θ.
fn build_components(
    dag: &Dag,
    machine: &Machine,
    theta: usize,
) -> Result<Vec<Component>, ScheduleError> {
    let time = TimeAnalysis::compute(dag, |i| machine.latency_of(i));
    // Bottom-up: consider instructions from the leaves, most critical
    // first (deepest finish = latest on the critical path).
    let mut order: Vec<InstrId> = dag.ids().collect();
    order.sort_by_key(|&i| {
        (
            std::cmp::Reverse(time.earliest_start(i) + time.latency(i)),
            time.slack(i),
            i,
        )
    });
    let mut comp_of: Vec<Option<usize>> = vec![None; dag.len()];
    let mut components: Vec<Component> = Vec::new();
    for seed in order {
        if comp_of[seed.index()].is_some() {
            continue;
        }
        let id = components.len();
        let mut comp = Component {
            members: vec![seed],
            home: dag.instr(seed).preplacement(),
        };
        comp_of[seed.index()] = Some(id);
        // Extend upward through the most critical unassigned
        // predecessor while the cap and home compatibility allow.
        let mut cur = seed;
        while comp.members.len() < theta {
            let next = dag
                .preds(cur)
                .iter()
                .copied()
                .filter(|&p| comp_of[p.index()].is_none())
                .filter(|&p| match (comp.home, dag.instr(p).preplacement()) {
                    (Some(h), Some(ph)) => h == ph,
                    _ => true,
                })
                .max_by_key(|&p| {
                    (
                        time.earliest_start(p) + time.latency(p),
                        std::cmp::Reverse(time.slack(p)),
                        std::cmp::Reverse(p),
                    )
                });
            let Some(p) = next else { break };
            comp_of[p.index()] = Some(id);
            comp.members.push(p);
            if comp.home.is_none() {
                comp.home = dag.instr(p).preplacement();
            }
            cur = p;
        }
        comp.members.sort_unstable();
        components.push(comp);
    }
    Ok(components)
}

/// Step 2: load/communication-balanced initial placement.
fn initial_assignment(dag: &Dag, machine: &Machine, components: &[Component]) -> Assignment {
    let n_clusters = machine.n_clusters();
    let mut assignment = Assignment::uniform(dag.len(), ClusterId::new(0));
    let mut assigned: Vec<bool> = vec![false; dag.len()];
    let mut load = vec![0usize; n_clusters];

    let mut order: Vec<usize> = (0..components.len()).collect();
    // Homed components first (their cluster is forced or strongly
    // preferred), then big ones.
    order.sort_by_key(|&k| {
        (
            components[k].home.is_none(),
            std::cmp::Reverse(components[k].members.len()),
            k,
        )
    });
    for k in order {
        let comp = &components[k];
        let chosen = match comp.home {
            Some(h) => h,
            None => {
                // Affinity: edges from this component to already
                // assigned instructions, per cluster.
                let mut aff = vec![0usize; n_clusters];
                let mut total = 0usize;
                for &i in &comp.members {
                    for n in dag.neighbors(i) {
                        if assigned[n.index()] {
                            aff[assignment.cluster(n).index()] += 1;
                            total += 1;
                        }
                    }
                }
                machine
                    .cluster_ids()
                    .filter(|&c| {
                        comp.members
                            .iter()
                            .all(|&i| machine.cluster_can_execute(c, dag.instr(i).class()))
                    })
                    .min_by_key(|&c| {
                        let cut = total - aff[c.index()];
                        (cut + load[c.index()], c)
                    })
                    .unwrap_or(ClusterId::new(0))
            }
        };
        for &i in &comp.members {
            assignment.set(i, chosen);
            assigned[i.index()] = true;
        }
        load[chosen.index()] += comp.members.len();
    }
    assignment
}

#[cfg(test)]
#[path = "../tests/support/reference_pcc.rs"]
mod reference_pcc;

#[cfg(test)]
mod tests {
    use super::reference_pcc::{checked_descent, estimate};
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_sim::validate;
    use convergent_workloads::{build_unit, raw_suite, vliw_suite, FAMILIES};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_estimate_matches_reference_on_every_probe(
            family in 0usize..FAMILIES.len(),
            size in 2usize..120,
            seed in any::<u64>(),
            machine in 0usize..4,
        ) {
            // Chorus at the paper's widths counts copies on transfer
            // units; Raw is register-mapped and pins homed components.
            let machine = match machine {
                0 => Machine::chorus_vliw(2),
                1 => Machine::chorus_vliw(4),
                2 => Machine::chorus_vliw(8),
                _ => Machine::raw(4),
            };
            let unit = build_unit(FAMILIES[family], size, machine.n_clusters() as u16, seed);
            checked_descent(unit.dag(), &machine);
        }
    }

    #[test]
    fn incremental_estimate_matches_reference_on_the_suites() {
        let (vliw, raw) = (Machine::chorus_vliw(4), Machine::raw(4));
        let mut probes = 0;
        for unit in vliw_suite(4) {
            probes += checked_descent(unit.dag(), &vliw);
        }
        for unit in raw_suite(4) {
            probes += checked_descent(unit.dag(), &raw);
        }
        assert!(probes > 0);
    }

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn components_respect_theta() {
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..19 {
            let nxt = b.instr(Opcode::IntAlu);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let comps = build_components(&dag, &m, 5).unwrap();
        assert!(comps.iter().all(|cm| cm.members.len() <= 5));
        let total: usize = comps.iter().map(|cm| cm.members.len()).sum();
        assert_eq!(total, 20);
    }

    #[test]
    fn chain_forms_one_component() {
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..4 {
            let nxt = b.instr(Opcode::IntAlu);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let comps = build_components(&dag, &m, 12).unwrap();
        assert_eq!(comps.len(), 1);
    }

    #[test]
    fn components_never_mix_homes() {
        let mut b = DagBuilder::new();
        let l0 = b.preplaced_instr(Opcode::Load, c(0));
        let l1 = b.preplaced_instr(Opcode::Load, c(1));
        let add = b.instr(Opcode::IntAlu);
        b.edge(l0, add).unwrap();
        b.edge(l1, add).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let comps = build_components(&dag, &m, 12).unwrap();
        for comp in &comps {
            let homes: std::collections::HashSet<_> = comp
                .members
                .iter()
                .filter_map(|&i| dag.instr(i).preplacement())
                .collect();
            assert!(homes.len() <= 1, "{comp:?}");
        }
    }

    #[test]
    fn schedules_validate_on_both_machines() {
        let mut b = DagBuilder::new();
        let mut leaves = Vec::new();
        for k in 0..4u16 {
            let ld = b.preplaced_instr(Opcode::Load, c(k));
            let m1 = b.instr(Opcode::IntMul);
            b.edge(ld, m1).unwrap();
            leaves.push(m1);
        }
        let s1 = b.instr(Opcode::IntAlu);
        let s2 = b.instr(Opcode::IntAlu);
        let s3 = b.instr(Opcode::IntAlu);
        b.edge(leaves[0], s1).unwrap();
        b.edge(leaves[1], s1).unwrap();
        b.edge(leaves[2], s2).unwrap();
        b.edge(leaves[3], s2).unwrap();
        b.edge(s1, s3).unwrap();
        b.edge(s2, s3).unwrap();
        let dag = b.build().unwrap();

        for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
            let s = PccScheduler::new().schedule(&dag, &m).unwrap();
            validate(&dag, &m, &s).unwrap();
            assert!(
                s.assignment().respects_preplacement(&dag) || !m.memory().preplacement_is_hard()
            );
        }
    }

    #[test]
    fn descent_never_worsens() {
        // Random-ish mesh of work; descent result must be <= initial.
        let mut b = DagBuilder::new();
        let mut ids = Vec::new();
        for k in 0..24 {
            let op = if k % 3 == 0 {
                Opcode::FMul
            } else {
                Opcode::IntAlu
            };
            ids.push(b.instr(op));
        }
        for k in 4..24 {
            b.edge(ids[k - 4], ids[k]).unwrap();
            if k % 5 == 0 {
                b.edge(ids[k - 3], ids[k]).unwrap();
            }
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let pcc = PccScheduler::new();
        let comps = build_components(&dag, &m, THETA).unwrap();
        let initial = initial_assignment(&dag, &m, &comps);
        let init_len = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &initial)
            .unwrap()
            .makespan();
        let final_len = pcc.schedule(&dag, &m).unwrap().makespan();
        assert!(final_len <= init_len);
    }

    #[test]
    fn estimate_tracks_height_and_resources() {
        // A pure chain: estimate equals the latency-weighted height.
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::FMul); // 7 cycles each
        for _ in 0..3 {
            let nxt = b.instr(Opcode::FMul);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let all0 = Assignment::uniform(dag.len(), c(0));
        assert_eq!(estimate(&dag, &m, &all0), 28);
        // Splitting the chain across clusters adds transfer latency to
        // the height estimate.
        let split = Assignment::from_vec(vec![c(0), c(1), c(0), c(1)]);
        assert_eq!(estimate(&dag, &m, &split), 31);
        // Wide independent work: the resource bound dominates when one
        // cluster holds everything (8 fmuls on one FPU = 8 slots).
        let mut b = DagBuilder::new();
        for _ in 0..8 {
            b.instr(Opcode::FMul);
        }
        let wide = b.build().unwrap();
        let all0 = Assignment::uniform(wide.len(), c(0));
        assert_eq!(estimate(&wide, &m, &all0), 8);
        // Balanced: resource bound halves (4 per FPU); the height is
        // one fmul plus the live-in fetch for roots off the data-home
        // cluster (7 + 1).
        let bal: Assignment = (0..8u16).map(|k| c(k % 2)).collect();
        assert_eq!(estimate(&wide, &m, &bal), 8);
    }

    #[test]
    fn estimate_counts_transfer_unit_occupancy() {
        // One producer on c0 feeding 6 consumers on c1: the producer
        // cluster's transfer unit carries one copy (deduped per
        // destination cluster), so the bound stays small; but with 6
        // distinct producers the copies pile onto the transfer unit.
        let mut b = DagBuilder::new();
        let producers: Vec<_> = (0..6).map(|_| b.instr(Opcode::IntAlu)).collect();
        let sink = b.instr(Opcode::IntAlu);
        for &p in &producers {
            b.edge(p, sink).unwrap();
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut asg = Assignment::uniform(dag.len(), c(0));
        asg.set(sink, c(1));
        // 6 copies on c0's transfer unit dominate the estimate's
        // resource bound.
        assert!(estimate(&dag, &m, &asg) >= 6);
    }

    #[test]
    fn descent_probe_counts_are_pinned() {
        // Figure 10's cost is the number of probes; the incremental
        // estimate makes each cheaper and must leave the count as the
        // from-scratch descent had it.
        let m = Machine::chorus_vliw(4);
        let want = [
            ("vvmul", 192),
            ("rbsorf", 150),
            ("yuv", 432),
            ("tomcatv", 924),
            ("mxm", 480),
            ("fir", 240),
            ("cholesky", 498),
        ];
        let got: Vec<(String, u64)> = vliw_suite(4)
            .iter()
            .map(|u| {
                let probes = PccScheduler::new().descent_probes(u.dag(), &m).unwrap();
                (u.name().to_owned(), probes)
            })
            .collect();
        let want: Vec<(String, u64)> = want.iter().map(|&(n, p)| (n.to_owned(), p)).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(PccScheduler::new().name(), "pcc");
    }
}
