//! The reference UAS placement probe: `try_place` as it was before its
//! early exits, kept as written. It ranks every capable cluster,
//! recomputing each one's operand-arrival estimate inside the sort's
//! comparisons, before it looks at a single issue slot. `src/uas.rs`
//! includes this file as a test-only child module and runs the real
//! scheduling loop with this probe in place of the fast one.

use super::CommTracker;
use convergent_ir::{ClusterId, Dag, InstrId, OpClass};
use convergent_machine::Machine;
use convergent_sim::SlotLedger;

/// Attempts to place `i` at cycle `t` on the best cluster; commits
/// transfer reservations and returns `(cluster, fu)` on success.
#[allow(clippy::too_many_arguments)]
pub(super) fn try_place(
    dag: &Dag,
    machine: &Machine,
    i: InstrId,
    t: u32,
    hard: bool,
    resources: &mut SlotLedger,
    comms: &mut CommTracker,
    cluster_of: &[Option<ClusterId>],
    finish: &[u32],
    load: &[u32],
) -> Option<(ClusterId, usize)> {
    let instr = dag.instr(i);
    let home = instr.preplacement();

    // Candidate clusters in UAS priority order.
    let mut candidates: Vec<ClusterId> = machine
        .cluster_ids()
        .filter(|&c| machine.cluster_can_execute(c, instr.class()))
        .collect();
    if hard {
        if let Some(h) = home {
            candidates.retain(|&c| c == h);
        }
    }
    let est_ready = |c: ClusterId| -> u32 {
        dag.preds(i)
            .iter()
            .map(|&p| {
                let pc = cluster_of[p.index()].expect("preds scheduled before successors");
                if pc == c {
                    finish[p.index()]
                } else {
                    comms
                        .arrival(p, c)
                        .unwrap_or(finish[p.index()] + machine.comm_latency(pc, c))
                }
            })
            .max()
            .unwrap_or(0)
    };
    candidates.sort_by_key(|&c| {
        let home_rank = u32::from(home != Some(c));
        (home_rank, est_ready(c), load[c.index()], c)
    });

    'cluster: for c in candidates {
        let Some(fu) = resources.free_unit(c, instr.class(), t) else {
            continue;
        };
        // Check operand availability at c by cycle t, planning any
        // copies we would need to commit.
        let mut planned: Vec<(ClusterId, usize, u32, InstrId, ClusterId)> = Vec::new();
        for &p in dag.preds(i) {
            let pc = cluster_of[p.index()].expect("pred scheduled");
            if pc == c {
                if finish[p.index()] > t {
                    continue 'cluster;
                }
                continue;
            }
            if let Some(a) = comms.arrival(p, c) {
                if a <= t {
                    continue;
                }
                continue 'cluster;
            }
            let latency = machine.comm_latency(pc, c);
            if machine.comm().register_mapped {
                if finish[p.index()] + latency > t {
                    continue 'cluster;
                }
                // Commit-time record below; wires need no slot.
                planned.push((pc, usize::MAX, finish[p.index()], p, c));
            } else {
                // Need a transfer slot s in [finish(p), t - latency]:
                // the lowest free copy unit at the first cycle that has
                // one, skipping that cycle if this plan already took
                // the unit there.
                let Some(deadline) = t.checked_sub(latency) else {
                    continue 'cluster;
                };
                let mut from = finish[p.index()];
                loop {
                    let Some((tfu, s)) =
                        resources.earliest_slot(pc, OpClass::Copy, from, deadline, None)
                    else {
                        continue 'cluster;
                    };
                    if !planned
                        .iter()
                        .any(|&(qc, qfu, qs, ..)| (qc, qfu, qs) == (pc, tfu, s))
                    {
                        planned.push((pc, tfu, s, p, c));
                        break;
                    }
                    from = s + 1;
                }
            }
        }
        // Commit.
        for (pc, tfu, s, p, dest) in planned {
            if tfu == usize::MAX {
                let arrival = s + machine.comm_latency(pc, dest);
                comms.record(p, pc, dest, s, None, arrival);
            } else {
                resources.reserve(pc, tfu, s);
                let arrival = s + machine.comm_latency(pc, dest);
                comms.record(p, pc, dest, s, Some(tfu), arrival);
            }
        }
        return Some((c, fu));
    }
    None
}
