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
        schedule_with(dag, machine, try_place)
    }
}

/// A placement probe: [`try_place`]'s signature.
type Place = fn(
    &Dag,
    &Machine,
    InstrId,
    u32,
    bool,
    &mut SlotLedger,
    &mut CommTracker,
    &[Option<ClusterId>],
    &[u32],
    &[u32],
) -> Option<(ClusterId, usize)>;

/// The UAS cycle loop, asking `place` for each pending instruction's
/// cluster. The scheduler passes [`try_place`]; the tests also pass the
/// reference probe.
fn schedule_with(
    dag: &Dag,
    machine: &Machine,
    place: Place,
) -> Result<SpaceTimeSchedule, ScheduleError> {
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
            match place(
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
    let class = instr.class();
    let home = instr.preplacement();

    // A value is usable nowhere before its producer finishes (its own
    // cluster reads it at `finish`, a transfer starts no earlier), so
    // one predecessor still computing at `t` rules out every cluster.
    if dag.preds(i).iter().any(|&p| finish[p.index()] > t) {
        return None;
    }
    // Candidate clusters with a free unit for the class at `t`. A
    // cluster without one fails outright, so it never enters the
    // ranking; when no cluster has one, nothing is ranked at all.
    let mut candidates: Vec<(ClusterId, usize)> = machine
        .cluster_ids()
        .filter(|&c| machine.cluster_can_execute(c, class))
        .filter(|&c| !hard || home.is_none_or(|h| h == c))
        .filter_map(|c| resources.free_unit(c, class, t).map(|fu| (c, fu)))
        .collect();
    if candidates.is_empty() {
        return None;
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
    // UAS priority order; the key is unique per cluster, and caching
    // it runs each candidate's operand-arrival scan once.
    candidates.sort_by_cached_key(|&(c, _)| {
        let home_rank = u32::from(home != Some(c));
        (home_rank, est_ready(c), load[c.index()], c)
    });

    'cluster: for (c, fu) in candidates {
        // Check operand availability at c by cycle t, planning any
        // copies we would need to commit.
        let mut planned: Vec<(ClusterId, usize, u32, InstrId, ClusterId)> = Vec::new();
        for &p in dag.preds(i) {
            let pc = cluster_of[p.index()].expect("pred scheduled");
            if pc == c {
                continue; // finished by `t`, checked above
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
#[path = "../tests/support/reference_uas.rs"]
mod reference_uas;

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_sim::validate;
    use convergent_workloads::{build_unit, raw_suite, vliw_suite, FAMILIES};
    use proptest::prelude::*;

    /// The real loop with the fast probe and with the reference probe
    /// must produce the same result.
    fn same_as_reference(dag: &Dag, m: &Machine) -> Result<SpaceTimeSchedule, ScheduleError> {
        let got = UasScheduler::new().schedule(dag, m);
        assert_eq!(
            got,
            schedule_with(dag, m, reference_uas::try_place),
            "on {}",
            m.name()
        );
        got
    }

    /// Both probes on one hand-built state: `i` at cycle `t`, with the
    /// instructions of `placed` already on their clusters.
    fn probe_both(
        dag: &Dag,
        m: &Machine,
        i: InstrId,
        t: u32,
        resources: &SlotLedger,
        placed: &[(InstrId, ClusterId, u32)],
    ) -> Option<(ClusterId, usize)> {
        let mut cluster_of = vec![None; dag.len()];
        let mut finish = vec![0; dag.len()];
        let mut load = vec![0; m.n_clusters()];
        for &(p, c, f) in placed {
            cluster_of[p.index()] = Some(c);
            finish[p.index()] = f;
            load[c.index()] += 1;
        }
        let hard = m.memory().preplacement_is_hard();
        let probe = |place: Place| {
            let mut resources = resources.clone();
            let mut comms = CommTracker::new();
            place(
                dag,
                m,
                i,
                t,
                hard,
                &mut resources,
                &mut comms,
                &cluster_of,
                &finish,
                &load,
            )
        };
        let got = probe(try_place);
        assert_eq!(got, probe(reference_uas::try_place), "{i} at {t}");
        got
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn fast_probe_matches_the_reference(
            family in 0usize..FAMILIES.len(),
            size in 2usize..150,
            seed in any::<u64>(),
            machine in 0usize..4,
        ) {
            let machine = match machine {
                0 => Machine::chorus_vliw(2),
                1 => Machine::chorus_vliw(4),
                2 => Machine::raw(4),
                _ => Machine::raw(16),
            };
            let unit = build_unit(FAMILIES[family], size, machine.n_clusters() as u16, seed);
            same_as_reference(unit.dag(), &machine).ok();
        }
    }

    #[test]
    fn fast_probe_matches_the_reference_on_the_suites() {
        for (m, suite) in [
            (Machine::chorus_vliw(4), vliw_suite(4)),
            (Machine::raw(4), raw_suite(4)),
        ] {
            for unit in suite {
                same_as_reference(unit.dag(), &m).unwrap();
            }
        }
    }

    #[test]
    fn operand_in_flight_fails_every_cluster() {
        // The load finishes at 3; before that no cluster can start the
        // add, on the load's own cluster or across a transfer.
        let mut b = DagBuilder::new();
        let ld = b.instr(Opcode::Load);
        let ad = b.instr(Opcode::IntAlu);
        b.edge(ld, ad).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let resources = SlotLedger::new(&m);
        let placed = [(ld, c(1), 3)];
        for t in 0..3 {
            assert_eq!(probe_both(&dag, &m, ad, t, &resources, &placed), None);
        }
        assert_eq!(
            probe_both(&dag, &m, ad, 3, &resources, &placed),
            Some((c(1), 0))
        );
        let s = same_as_reference(&dag, &m).unwrap();
        assert_eq!(s.op(ad).start.get(), s.op(ld).finish().get());
    }

    #[test]
    fn class_exhausted_everywhere_fails_every_cluster() {
        // Every cluster's one FPU is taken at cycle 0: a fifth FMul
        // fails at 0 on all clusters and lands at 1.
        let mut b = DagBuilder::new();
        let f = b.instr(Opcode::FMul);
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(4);
        let mut resources = SlotLedger::new(&m);
        let fpu = resources.free_unit(c(0), OpClass::FMul, 0).unwrap();
        for k in 0..4 {
            resources.reserve(c(k), fpu, 0);
        }
        assert_eq!(probe_both(&dag, &m, f, 0, &resources, &[]), None);
        assert_eq!(
            probe_both(&dag, &m, f, 1, &resources, &[]),
            Some((c(0), fpu))
        );
        // Through the loop: 8 FMuls on 4 FPUs fill cycle 0, so the
        // next four hit the exhausted class there.
        let mut b = DagBuilder::new();
        for _ in 0..8 {
            b.instr(Opcode::FMul);
        }
        let dag = b.build().unwrap();
        let s = same_as_reference(&dag, &m).unwrap();
        assert_eq!(s.ops().iter().filter(|op| op.start.get() == 0).count(), 4);
    }

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
