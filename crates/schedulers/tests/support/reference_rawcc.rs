//! The reference Rawcc merge and placement: the two steps as they were
//! before the one-pass rewrite, kept as written. Every merge relabels
//! all members of the loser, and placement scans the whole edge list
//! for each (candidate tile, placed cluster) pair. `src/rawcc.rs`
//! includes this file as a test-only child module and checks that the
//! rewritten steps produce the same virtual clusters and tiles.

use super::{Assignment, ClusterId, Dag, Machine, ScheduleError, VirtualClusters};

/// Edge counts between virtual clusters.
fn affinity(dag: &Dag, vcs: &VirtualClusters, a: usize, b: usize) -> usize {
    dag.edges()
        .filter(|e| {
            let (x, y) = (vcs.of[e.src.index()], vcs.of[e.dst.index()]);
            (x == a && y == b) || (x == b && y == a)
        })
        .count()
}

fn merge_into(vcs: &mut VirtualClusters, winner: usize, loser: usize) {
    for slot in &mut vcs.of {
        if *slot == loser {
            *slot = winner;
        }
    }
    vcs.load[winner] += vcs.load[loser];
    vcs.load[loser] = 0;
    vcs.alive[loser] = false;
    if vcs.home[winner].is_none() {
        vcs.home[winner] = vcs.home[loser];
    }
}

/// Step 2: merge to at most the machine's cluster count.
pub(super) fn merge_step(machine: &Machine, vcs: &mut VirtualClusters) {
    let target = machine.n_clusters();
    // First merge clusters sharing the same home: on hard machines
    // they must coexist on one tile anyway.
    for c in machine.cluster_ids() {
        let mut homed: Vec<usize> = (0..vcs.home.len())
            .filter(|&vc| vcs.alive[vc] && vcs.home[vc] == Some(c))
            .collect();
        if let Some(&first) = homed.first() {
            for &other in &homed[1..] {
                merge_into(vcs, first, other);
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
                    merge_into(vcs, small, p);
                } else {
                    merge_into(vcs, p, small);
                }
            }
            None => break, // everything left is pinned apart
        }
    }
}

/// Step 3: map virtual clusters to physical clusters.
///
/// A machine with zero clusters has no legal placement for anything;
/// that is reported as [`ScheduleError::EmptyMachine`] rather than a
/// panic.
pub(super) fn place_step(
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
    // Others: heaviest first, minimizing hop-weighted affinity to the
    // already placed.
    let mut rest: Vec<usize> = alive
        .iter()
        .copied()
        .filter(|&vc| phys_of[vc].is_none())
        .collect();
    rest.sort_by_key(|&vc| (std::cmp::Reverse(vcs.load[vc]), vc));
    for vc in rest {
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
                let cost: u32 = alive
                    .iter()
                    .filter_map(|&other| phys_of[other].map(|pc| (other, pc)))
                    .map(|(other, pc)| affinity(dag, vcs, vc, other) as u32 * machine.hops(c, pc))
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
