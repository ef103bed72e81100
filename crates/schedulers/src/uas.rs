//! Unified Assign-and-Schedule (UAS).
//!
//! Özer, Banerjia, and Conte (MICRO-31, 1998) integrate cluster
//! assignment into a cycle-driven list scheduler: each cycle, ready
//! operations are considered in critical-path priority order, and each
//! operation tries clusters in a priority order, settling on the first
//! cluster where its operands can arrive in time and an issue slot is
//! free. Decisions are final — the phase-ordering contrast to
//! convergent scheduling that the paper draws.
//!
//! Following Section 5 of the convergent-scheduling paper, our cluster
//! priority function is "the CPSC heuristic … modified to give the
//! highest priority to the home cluster of preplaced instructions":
//! home first, then clusters ordered by earliest operand arrival
//! (completion-driven), breaking ties toward lightly loaded clusters.

use convergent_ir::{ClusterId, Cycle, Dag, InstrId, OpClass};
use convergent_machine::Machine;
use convergent_sim::{effective_latency_in, ScheduleBuilder, SlotLedger, SpaceTimeSchedule};

use crate::list::{cycle_limit, CommTracker};
use crate::{cp_priorities, ScheduleError, Scheduler};

/// The UAS scheduler. See the module docs.
///
/// # Example
///
/// ```
/// use convergent_ir::{DagBuilder, Opcode};
/// use convergent_machine::Machine;
/// use convergent_schedulers::{Scheduler, UasScheduler};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let x = b.instr(Opcode::IntAlu);
/// let y = b.instr(Opcode::IntAlu);
/// b.edge(x, y)?;
/// let dag = b.build()?;
/// let schedule = UasScheduler::new().schedule(&dag, &Machine::chorus_vliw(4))?;
/// assert!(schedule.makespan().get() >= 2);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct UasScheduler {
    _private: (),
}

impl UasScheduler {
    /// Creates a UAS scheduler.
    #[must_use]
    pub fn new() -> Self {
        UasScheduler::default()
    }
}

impl Scheduler for UasScheduler {
    fn name(&self) -> &str {
        "uas"
    }

    fn schedule(&self, dag: &Dag, machine: &Machine) -> Result<SpaceTimeSchedule, ScheduleError> {
        let n = dag.len();
        let priorities = cp_priorities(dag, machine);
        let hard = machine.memory().preplacement_is_hard();

        crate::precondition::check_inputs(dag, machine)?;

        let mut resources = SlotLedger::new(machine);
        let mut comms = CommTracker::new();
        let mut cluster_of: Vec<Option<ClusterId>> = vec![None; n];
        let mut start: Vec<Option<u32>> = vec![None; n];
        let mut finish: Vec<u32> = vec![0; n];
        let mut fu_of: Vec<usize> = vec![0; n];
        let mut load: Vec<u32> = vec![0; machine.n_clusters()];
        let mut unsched_preds: Vec<usize> = dag.ids().map(|i| dag.preds(i).len()).collect();
        let mut pending: Vec<InstrId> = dag
            .ids()
            .filter(|&i| unsched_preds[i.index()] == 0)
            .collect();
        let mut n_placed = 0usize;
        let limit = cycle_limit(dag, machine);

        let mut t: u32 = 0;
        while n_placed < n {
            if t > limit {
                return Err(ScheduleError::NoProgress { cycle: t });
            }
            pending.sort_by_key(|&i| (priorities[i.index()], i));
            let mut k = 0;
            while k < pending.len() {
                let i = pending[k];
                match try_place(
                    dag,
                    machine,
                    i,
                    t,
                    hard,
                    &mut resources,
                    &mut comms,
                    &cluster_of,
                    &finish,
                    &load,
                ) {
                    Some((c, fu)) => {
                        resources.reserve(c, fu, t);
                        cluster_of[i.index()] = Some(c);
                        start[i.index()] = Some(t);
                        fu_of[i.index()] = fu;
                        finish[i.index()] = t + effective_latency_in(dag, machine, i, c);
                        load[c.index()] += 1;
                        n_placed += 1;
                        pending.swap_remove(k);
                        for &s in dag.succs(i) {
                            unsched_preds[s.index()] -= 1;
                            if unsched_preds[s.index()] == 0 {
                                pending.push(s);
                            }
                        }
                        pending.sort_by_key(|&i| (priorities[i.index()], i));
                        k = 0;
                    }
                    None => k += 1,
                }
            }
            t += 1;
        }

        let mut builder = ScheduleBuilder::new(dag);
        for i in dag.ids() {
            builder.place(
                i,
                cluster_of[i.index()].expect("placed"),
                fu_of[i.index()],
                Cycle::new(start[i.index()].expect("placed")),
            );
        }
        comms.emit_into(&mut builder);
        builder
            .build(machine)
            .map_err(|e| ScheduleError::ProducedInvalid(e.to_string()))
    }
}

/// Attempts to place `i` at cycle `t` on the best cluster; commits
/// transfer reservations and returns `(cluster, fu)` on success.
#[allow(clippy::too_many_arguments)]
fn try_place(
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

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_sim::validate;

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn parallel_work_spreads_across_clusters() {
        // 8 independent FMuls on 4 chorus clusters (1 FPU each): two
        // rounds of 4.
        let mut b = DagBuilder::new();
        for _ in 0..8 {
            b.instr(Opcode::FMul);
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let s = UasScheduler::new().schedule(&dag, &m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let loads = s.assignment().loads(4);
        assert_eq!(loads, vec![2, 2, 2, 2]);
        // 2 issue rounds of pipelined 7-cycle fmuls, plus the 1-cycle
        // live-in fetch for roots executing off the data-home cluster.
        assert!((8..=9).contains(&s.makespan().get()), "{}", s.makespan());
    }

    #[test]
    fn chain_stays_local() {
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..5 {
            let nxt = b.instr(Opcode::IntAlu);
            b.edge(prev, nxt).unwrap();
            prev = nxt;
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let s = UasScheduler::new().schedule(&dag, &m).unwrap();
        validate(&dag, &m, &s).unwrap();
        // Communication would only slow a pure chain; UAS keeps it on
        // one cluster and finishes in 6 cycles.
        assert_eq!(s.makespan().get(), 6);
        assert_eq!(s.comm_count(), 0);
    }

    #[test]
    fn preplaced_home_wins_on_vliw() {
        let mut b = DagBuilder::new();
        let ld = b.preplaced_instr(Opcode::Load, c(2));
        let ad = b.instr(Opcode::IntAlu);
        b.edge(ld, ad).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let s = UasScheduler::new().schedule(&dag, &m).unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.op(ld).cluster, c(2));
    }

    #[test]
    fn hard_preplacement_respected_on_raw() {
        let mut b = DagBuilder::new();
        let l0 = b.preplaced_instr(Opcode::Load, c(0));
        let l3 = b.preplaced_instr(Opcode::Load, c(3));
        let ad = b.instr(Opcode::IntAlu);
        b.edge(l0, ad).unwrap();
        b.edge(l3, ad).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let s = UasScheduler::new().schedule(&dag, &m).unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.op(l0).cluster, c(0));
        assert_eq!(s.op(l3).cluster, c(3));
    }

    #[test]
    fn cross_cluster_copies_fit_transfer_bandwidth() {
        // A producer feeding consumers on all other clusters exercises
        // multiple copies from one cluster.
        let mut b = DagBuilder::new();
        let p = b.instr(Opcode::IntAlu);
        let mut uses = Vec::new();
        for _ in 0..12 {
            let u = b.instr(Opcode::FMul);
            b.edge(p, u).unwrap();
            uses.push(u);
        }
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let s = UasScheduler::new().schedule(&dag, &m).unwrap();
        validate(&dag, &m, &s).unwrap();
    }

    #[test]
    fn bad_home_rejected() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(9));
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        assert!(matches!(
            UasScheduler::new().schedule(&dag, &m),
            Err(ScheduleError::BadHomeCluster { .. })
        ));
    }

    #[test]
    fn name_is_stable() {
        assert_eq!(UasScheduler::new().name(), "uas");
    }
}
