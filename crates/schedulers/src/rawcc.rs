//! Rawcc-style space-time scheduling: the Table 2 baseline.
//!
//! Rawcc (Lee et al., ASPLOS 1998) leverages multiprocessor task-graph
//! techniques and assigns instructions in three steps:
//!
//! 1. **Clustering** — group instructions with little parallelism
//!    between them into *virtual clusters*, zeroing the communication
//!    cost inside a cluster (a dominant-sequence-clustering flavour:
//!    each instruction joins the predecessor cluster that minimizes its
//!    estimated start time, or starts a new cluster).
//! 2. **Merging** — reduce the number of virtual clusters to the
//!    machine's tile count, merging the two smallest by load, and
//!    never merging two clusters pinned to different homes.
//! 3. **Placement** — map virtual clusters to tiles: pinned clusters
//!    go to their home tile, the rest greedily minimize
//!    communication-weighted hop distance.
//!
//! Temporal scheduling is the shared [`ListScheduler`], as in Rawcc.

use convergent_ir::{ClusterId, Dag, InstrId};
use convergent_machine::Machine;
use convergent_sim::{Assignment, SpaceTimeSchedule};

use crate::list::check_assignment;
use crate::{ListScheduler, ScheduleError, Scheduler};

/// The Rawcc-style baseline scheduler. See the module docs.
#[derive(Clone, Debug, Default)]
pub struct RawccScheduler {
    _private: (),
}

impl RawccScheduler {
    /// Creates a Rawcc-style scheduler.
    #[must_use]
    pub fn new() -> Self {
        RawccScheduler::default()
    }

    /// Computes the three-step cluster assignment without the final
    /// list-scheduling pass.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError`] when the graph cannot be mapped to
    /// the machine.
    pub fn assign(&self, dag: &Dag, machine: &Machine) -> Result<Assignment, ScheduleError> {
        crate::precondition::check_inputs(dag, machine)?;
        let mut vcs = cluster_step(dag, machine)?;
        merge_step(machine, &mut vcs);
        let assignment = place_step(dag, machine, &vcs)?;
        check_assignment(dag, machine, &assignment)?;
        Ok(assignment)
    }
}

impl Scheduler for RawccScheduler {
    fn name(&self) -> &str {
        "rawcc"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> Result<SpaceTimeSchedule, ScheduleError> {
        let assignment = self.assign(dag, machine)?;
        ListScheduler::new().schedule_with_cp(dag, machine, &assignment)
    }
}

/// Virtual clusters under construction.
#[derive(Clone, Debug)]
struct VirtualClusters {
    /// Virtual-cluster id per instruction.
    of: Vec<usize>,
    /// Live cluster ids (merging tombstones the losers).
    alive: Vec<bool>,
    /// Home tile constraint per virtual cluster, if any.
    home: Vec<Option<ClusterId>>,
    /// Member count per virtual cluster.
    load: Vec<usize>,
}

impl VirtualClusters {
    fn n_alive(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

/// Step 1: DSC-flavoured clustering.
///
/// Joining a predecessor's cluster zeroes the communication cost but
/// serializes with that cluster's other work, so the start-time
/// estimate accounts for single-issue occupancy (`free[vc]`): a
/// cluster that is already busy at the instruction's data-ready time
/// is less attractive than paying for communication — this is what
/// lets clustering *discover* parallelism (DSC's core idea) instead of
/// greedily collapsing everything onto one tile.
fn cluster_step(dag: &Dag, machine: &Machine) -> Result<VirtualClusters, ScheduleError> {
    // Estimated communication cost between clusters (the clustering
    // abstraction: uniform cost, zero inside a cluster).
    let comm = machine.comm().latency_for_hops(1);
    let n = dag.len();
    let mut vc_of: Vec<usize> = vec![usize::MAX; n];
    let mut home: Vec<Option<ClusterId>> = Vec::new();
    let mut load: Vec<usize> = Vec::new();
    let mut est: Vec<u32> = vec![0; n];
    // Earliest issue slot still free on each virtual cluster, under a
    // one-op-per-cycle occupancy approximation.
    let mut free: Vec<u32> = Vec::new();

    for &i in dag.topo_order() {
        let instr = dag.instr(i);
        let my_home = instr.preplacement();
        let finish = |p: InstrId, est: &[u32]| est[p.index()] + machine.latency_of(dag.instr(p));
        // Start time if i joins virtual cluster vc: data arrival plus
        // waiting for the cluster's issue slot.
        let est_in = |vc: usize, est: &[u32], free: &[u32]| -> u32 {
            let data = dag
                .preds(i)
                .iter()
                .map(|&p| {
                    let cost = if vc_of[p.index()] == vc { 0 } else { comm };
                    finish(p, est) + cost
                })
                .max()
                .unwrap_or(0);
            data.max(free[vc])
        };
        let est_new: u32 = dag
            .preds(i)
            .iter()
            .map(|&p| finish(p, &est) + comm)
            .max()
            .unwrap_or(0);

        let compatible = |vc: usize| match (home[vc], my_home) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        };
        // Candidate clusters: those of predecessors (joining anything
        // else is never better than a fresh cluster).
        let mut cand: Vec<usize> = dag
            .preds(i)
            .iter()
            .map(|&p| vc_of[p.index()])
            .filter(|&vc| compatible(vc))
            .collect();
        cand.sort_unstable();
        cand.dedup();
        let best = cand
            .into_iter()
            .map(|vc| (est_in(vc, &est, &free), load[vc], vc))
            .min();
        match best {
            Some((e, _, vc)) if e <= est_new => {
                vc_of[i.index()] = vc;
                est[i.index()] = e;
                load[vc] += 1;
                free[vc] = e + 1;
                if home[vc].is_none() {
                    home[vc] = my_home;
                }
            }
            _ => {
                let vc = home.len();
                home.push(my_home);
                load.push(1);
                free.push(est_new + 1);
                vc_of[i.index()] = vc;
                est[i.index()] = est_new;
            }
        }
    }
    let alive = vec![true; home.len()];
    Ok(VirtualClusters {
        of: vc_of,
        alive,
        home,
        load,
    })
}

/// Tombstones `loser` and records `winner` as the cluster it merged
/// into; members are relabelled once, at the end of [`merge_step`].
fn merge_into(vcs: &mut VirtualClusters, merged: &mut [usize], winner: usize, loser: usize) {
    merged[loser] = winner;
    vcs.load[winner] += vcs.load[loser];
    vcs.load[loser] = 0;
    vcs.alive[loser] = false;
    if vcs.home[winner].is_none() {
        vcs.home[winner] = vcs.home[loser];
    }
}

/// Step 2: merge to at most the machine's cluster count.
fn merge_step(machine: &Machine, vcs: &mut VirtualClusters) {
    let target = machine.n_clusters();
    // The cluster each virtual cluster merged into (itself while
    // alive). A winner can lose a later merge, so members follow the
    // chain of winners to its live end.
    let mut merged: Vec<usize> = (0..vcs.home.len()).collect();
    // First merge clusters sharing the same home: on hard machines
    // they must coexist on one tile anyway.
    for c in machine.cluster_ids() {
        let mut homed: Vec<usize> = (0..vcs.home.len())
            .filter(|&vc| vcs.alive[vc] && vcs.home[vc] == Some(c))
            .collect();
        if let Some(&first) = homed.first() {
            for &other in &homed[1..] {
                merge_into(vcs, &mut merged, first, other);
            }
            homed.truncate(1);
        }
    }
    while vcs.n_alive() > target {
        // Rawcc's merging phase "reduces the number of clusters
        // through merging" driven by load balance: the two smallest
        // compatible clusters merge. (Communication between clusters
        // is placement's problem in Rawcc's phase ordering — this is
        // precisely the kind of early, locally-blind decision the
        // convergent-scheduling paper contrasts itself against.)
        let alive: Vec<usize> = (0..vcs.home.len()).filter(|&vc| vcs.alive[vc]).collect();
        let &small = alive
            .iter()
            .min_by_key(|&&vc| (vcs.load[vc], vc))
            .expect("n_alive > target >= 1");
        let partner = alive
            .iter()
            .copied()
            .filter(|&vc| vc != small)
            .filter(|&vc| match (vcs.home[vc], vcs.home[small]) {
                (Some(a), Some(b)) => a == b,
                _ => true,
            })
            .min_by_key(|&vc| (vcs.load[vc], vc));
        match partner {
            Some(p) => {
                // Keep the homed one as winner so the pin survives.
                if vcs.home[small].is_some() && vcs.home[p].is_none() {
                    merge_into(vcs, &mut merged, small, p);
                } else {
                    merge_into(vcs, &mut merged, p, small);
                }
            }
            None => break, // everything left is pinned apart
        }
    }
    // Resolve every chain to its live end (path halving), then
    // relabel each member once.
    for vc in 0..merged.len() {
        let mut end = vc;
        while merged[end] != end {
            merged[end] = merged[merged[end]];
            end = merged[end];
        }
        merged[vc] = end;
    }
    for slot in &mut vcs.of {
        *slot = merged[*slot];
    }
}

/// Step 3: map virtual clusters to physical clusters.
///
/// A machine with zero clusters has no legal placement for anything;
/// that is reported as [`ScheduleError::EmptyMachine`] rather than a
/// panic.
fn place_step(
    dag: &Dag,
    machine: &Machine,
    vcs: &VirtualClusters,
) -> Result<Assignment, ScheduleError> {
    let n_phys = machine.n_clusters();
    let alive: Vec<usize> = (0..vcs.home.len()).filter(|&vc| vcs.alive[vc]).collect();
    let mut phys_of: Vec<Option<ClusterId>> = vec![None; vcs.home.len()];
    let mut used = vec![false; n_phys];
    // Pinned clusters first.
    for &vc in &alive {
        if let Some(h) = vcs.home[vc] {
            phys_of[vc] = Some(h);
            used[h.index()] = true;
        }
    }
    // Others: heaviest first, minimizing hop-weighted affinity (edge
    // count, either direction) to the already placed. One edge pass per
    // cluster fills its affinity row; only live clusters have members,
    // so clearing their entries resets it.
    let mut rest: Vec<usize> = alive
        .iter()
        .copied()
        .filter(|&vc| phys_of[vc].is_none())
        .collect();
    rest.sort_by_key(|&vc| (std::cmp::Reverse(vcs.load[vc]), vc));
    let mut row: Vec<u32> = vec![0; vcs.home.len()];
    let mut placed: Vec<(ClusterId, u32)> = Vec::new();
    for vc in rest {
        for e in dag.edges() {
            let (x, y) = (vcs.of[e.src.index()], vcs.of[e.dst.index()]);
            if x == vc && y != vc {
                row[y] += 1;
            } else if y == vc && x != vc {
                row[x] += 1;
            }
        }
        placed.clear();
        for &other in &alive {
            if let Some(pc) = phys_of[other] {
                if row[other] > 0 {
                    placed.push((pc, row[other]));
                }
            }
            row[other] = 0;
        }
        let candidates: Vec<ClusterId> =
            machine.cluster_ids().filter(|c| !used[c.index()]).collect();
        let pool = if candidates.is_empty() {
            machine.cluster_ids().collect::<Vec<_>>()
        } else {
            candidates
        };
        let best = pool
            .into_iter()
            .min_by_key(|&c| {
                let cost: u32 = placed
                    .iter()
                    .map(|&(pc, edges)| edges * machine.hops(c, pc))
                    .sum();
                (cost, c)
            })
            .ok_or(ScheduleError::EmptyMachine)?;
        phys_of[vc] = Some(best);
        used[best.index()] = true;
    }
    Ok(dag
        .ids()
        .map(|i| phys_of[vcs.of[i.index()]].expect("all virtual clusters placed"))
        .collect())
}

#[cfg(test)]
#[path = "../tests/support/reference_rawcc.rs"]
mod reference_rawcc;

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_sim::validate;
    use convergent_workloads::{
        build_unit, fpppp_kernel, raw_suite, sha, vliw_suite, FppppParams, ShaParams, FAMILIES,
    };
    use proptest::prelude::*;

    /// Merges and places with the one-pass steps and with the reference
    /// steps, requiring the same virtual clusters and the same tiles.
    /// Returns the merged clusters.
    fn same_as_reference(dag: &Dag, m: &Machine) -> VirtualClusters {
        let mut vcs = cluster_step(dag, m).unwrap();
        let mut want = vcs.clone();
        merge_step(m, &mut vcs);
        reference_rawcc::merge_step(m, &mut want);
        assert_eq!(
            (&vcs.of, &vcs.alive, &vcs.home, &vcs.load),
            (&want.of, &want.alive, &want.home, &want.load),
            "merge on {}",
            m.name()
        );
        assert_eq!(
            place_step(dag, m, &vcs),
            reference_rawcc::place_step(dag, m, &vcs),
            "placement on {}",
            m.name()
        );
        vcs
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn one_pass_merge_and_placement_match_the_reference(
            family in 0usize..FAMILIES.len(),
            size in 2usize..150,
            seed in any::<u64>(),
            machine in 0usize..4,
        ) {
            let machine = match machine {
                0 => Machine::chorus_vliw(4),
                1 => Machine::raw(4),
                2 => Machine::raw(8),
                _ => Machine::raw(16),
            };
            let unit = build_unit(FAMILIES[family], size, machine.n_clusters() as u16, seed);
            if cluster_step(unit.dag(), &machine).is_ok() {
                same_as_reference(unit.dag(), &machine);
            }
        }
    }

    #[test]
    fn one_pass_merge_and_placement_match_the_reference_on_the_suites() {
        for (m, suite) in [
            (Machine::chorus_vliw(4), vliw_suite(4)),
            (Machine::raw(16), raw_suite(16)),
        ] {
            for unit in suite {
                same_as_reference(unit.dag(), &m);
            }
        }
    }

    #[test]
    fn merge_chains_relabel_to_the_last_winner() {
        // Ten singletons on two tiles. The first merges pair them up
        // (0 into 1, 2 into 3, ...); then cluster 1, holding 0, loses
        // to cluster 3: instruction 0 follows the chain 0 → 1 → 3.
        let mut b = DagBuilder::new();
        let ids: Vec<InstrId> = (0..10).map(|_| b.instr(Opcode::IntAlu)).collect();
        let dag = b.build().unwrap();
        let vcs = same_as_reference(&dag, &Machine::raw(2));
        assert_eq!(vcs.n_alive(), 2);
        assert_eq!(vcs.of[ids[0].index()], vcs.of[ids[3].index()]);
        assert!(vcs.alive[vcs.of[ids[0].index()]]);
    }

    #[test]
    fn unpinned_placement_matches_the_reference() {
        // fpppp and sha carry no preplacement, so every virtual cluster
        // is placed by hop-weighted affinity alone.
        for n in [4, 8, 16] {
            let m = Machine::raw(n);
            for unit in [fpppp_kernel(FppppParams::small()), sha(ShaParams::small())] {
                assert!(unit
                    .dag()
                    .ids()
                    .all(|i| unit.dag().instr(i).preplacement().is_none()));
                let vcs = same_as_reference(unit.dag(), &m);
                assert!(vcs.home.iter().all(Option::is_none));
            }
        }
    }

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn chain_collapses_to_one_cluster() {
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..7 {
            let nxt = b.instr(Opcode::IntAlu);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg = RawccScheduler::new().assign(&dag, &m).unwrap();
        assert_eq!(asg.cut_edges(&dag), 0);
    }

    #[test]
    fn independent_chains_get_separate_tiles() {
        let mut b = DagBuilder::new();
        for _ in 0..4 {
            let mut prev = b.instr(Opcode::IntAlu);
            for _ in 0..5 {
                let nxt = b.instr(Opcode::IntAlu);
                b.edge(prev, nxt).unwrap();
                prev = nxt;
            }
        }
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg = RawccScheduler::new().assign(&dag, &m).unwrap();
        let loads = asg.loads(4);
        assert_eq!(loads, vec![6, 6, 6, 6]);
        assert_eq!(asg.cut_edges(&dag), 0);
    }

    #[test]
    fn preplacement_pins_virtual_clusters() {
        let mut b = DagBuilder::new();
        let l0 = b.preplaced_instr(Opcode::Load, c(0));
        let l3 = b.preplaced_instr(Opcode::Load, c(3));
        let a0 = b.instr(Opcode::IntAlu);
        let a3 = b.instr(Opcode::IntAlu);
        b.edge(l0, a0).unwrap();
        b.edge(l3, a3).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg = RawccScheduler::new().assign(&dag, &m).unwrap();
        assert!(asg.respects_preplacement(&dag));
        // Dependents follow their producers' home tiles.
        assert_eq!(asg.cluster(a0), c(0));
        assert_eq!(asg.cluster(a3), c(3));
    }

    #[test]
    fn merging_reaches_machine_size() {
        // 10 independent instructions = 10 virtual clusters on a
        // 2-tile machine: merging must get down to <= 2.
        let mut b = DagBuilder::new();
        for _ in 0..10 {
            b.instr(Opcode::IntAlu);
        }
        let dag = b.build().unwrap();
        let m = Machine::raw(2);
        let asg = RawccScheduler::new().assign(&dag, &m).unwrap();
        let loads = asg.loads(2);
        assert_eq!(loads.iter().sum::<usize>(), 10);
        assert!(loads.iter().all(|&l| l > 0));
    }

    #[test]
    fn full_schedule_validates() {
        let mut b = DagBuilder::new();
        let mut sums = Vec::new();
        for k in 0..4u16 {
            let ld = b.preplaced_instr(Opcode::Load, c(k));
            let mu = b.instr(Opcode::FMul);
            b.edge(ld, mu).unwrap();
            sums.push(mu);
        }
        let s1 = b.instr(Opcode::FAdd);
        b.edge(sums[0], s1).unwrap();
        b.edge(sums[1], s1).unwrap();
        let s2 = b.instr(Opcode::FAdd);
        b.edge(sums[2], s2).unwrap();
        b.edge(sums[3], s2).unwrap();
        let s3 = b.instr(Opcode::FAdd);
        b.edge(s1, s3).unwrap();
        b.edge(s2, s3).unwrap();
        let dag = b.build().unwrap();
        for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
            let s = RawccScheduler::new().schedule(&dag, &m).unwrap();
            validate(&dag, &m, &s).unwrap();
        }
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(RawccScheduler::new().name(), "rawcc");
    }

    #[test]
    fn place_step_reports_empty_machine_instead_of_panicking() {
        // `Machine::new` rejects zero-cluster machines, so this guard
        // is unreachable through the public constructors — but the
        // placement loop itself must degrade to a structured error,
        // not an `expect`, if that invariant ever changes.
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::raw(1);
        // With a real machine the path succeeds; the error variant
        // itself renders meaningfully for callers that hit it through
        // future machine descriptions.
        assert!(RawccScheduler::new().assign(&dag, &m).is_ok());
        assert_eq!(
            ScheduleError::EmptyMachine.to_string(),
            "machine has no clusters"
        );
    }
}
