//! The shared, resource-accurate list scheduler.
//!
//! Every assignment technique in the workspace (convergent scheduling,
//! PCC, Rawcc-style, BUG) delegates temporal scheduling to this engine,
//! mirroring the paper's setup where "both Chorus and Rawcc use the
//! spatial assignments given by the convergent scheduler" and a
//! conventional list scheduler orders instructions in time.
//!
//! Given a fixed instruction→cluster assignment and a priority vector,
//! the scheduler walks cycles forward, issuing ready instructions in
//! priority order onto free, capable functional units, and inserts the
//! communication each cross-cluster dependence needs:
//!
//! * on register-mapped machines (Raw) a route is injected the cycle
//!   the producer finishes, and the consumer may start after the
//!   network latency;
//! * on clustered VLIWs an explicit copy is placed on the earliest free
//!   transfer unit of the producer's cluster, and the consumer may
//!   start one cycle after the copy issues.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use convergent_ir::{ClusterId, Cycle, Dag, IdMap, InstrId, OpClass};
use convergent_machine::Machine;
use convergent_sim::{
    effective_latency_in, Assignment, ScheduleBuilder, SlotLedger, SpaceTimeSchedule,
};

use crate::ScheduleError;

/// The list scheduler's ready order, lowest first: (priority, urgency,
/// id). The id makes every key unique.
type ReadyKey = (u32, u32, InstrId);

/// Tracks inserted communication and cross-cluster value arrivals.
#[derive(Clone, Debug, Default)]
pub(crate) struct CommTracker {
    /// (producer, destination cluster) → first cycle the value is
    /// usable there.
    arrival: IdMap<(InstrId, usize), u32>,
    /// Recorded comm ops: (producer, from, to, start, fu).
    ops: Vec<(InstrId, ClusterId, ClusterId, u32, Option<usize>)>,
}

impl CommTracker {
    pub(crate) fn new() -> Self {
        CommTracker::default()
    }

    pub(crate) fn arrival(&self, producer: InstrId, to: ClusterId) -> Option<u32> {
        self.arrival.get(&(producer, to.index())).copied()
    }

    pub(crate) fn record(
        &mut self,
        producer: InstrId,
        from: ClusterId,
        to: ClusterId,
        start: u32,
        fu: Option<usize>,
        arrival: u32,
    ) {
        self.ops.push((producer, from, to, start, fu));
        let slot = self
            .arrival
            .entry((producer, to.index()))
            .or_insert(arrival);
        *slot = (*slot).min(arrival);
    }

    pub(crate) fn emit_into(&self, builder: &mut ScheduleBuilder<'_>) {
        for &(producer, from, to, start, fu) in &self.ops {
            builder.comm(producer, from, to, Cycle::new(start), fu);
        }
    }
}

/// Ensures the value of `producer` (already placed, finishing at
/// `finish` on `from`) reaches cluster `to`, inserting a transfer if
/// none exists. Returns the arrival cycle.
///
/// On a copy-based machine a cluster with no copy-capable unit cannot
/// source a transfer; that is a property of the machine description,
/// reported as [`ScheduleError::NoTransferUnit`] rather than a panic
/// (lint `CS052` rejects such machines up front, this is the backstop).
pub(crate) fn ensure_comm(
    machine: &Machine,
    resources: &mut SlotLedger,
    comms: &mut CommTracker,
    producer: InstrId,
    from: ClusterId,
    finish: u32,
    to: ClusterId,
) -> Result<u32, ScheduleError> {
    debug_assert_ne!(from, to);
    if let Some(a) = comms.arrival(producer, to) {
        return Ok(a);
    }
    let latency = machine.comm_latency(from, to);
    if machine.comm().register_mapped {
        let arrival = finish + latency;
        comms.record(producer, from, to, finish, None, arrival);
        Ok(arrival)
    } else {
        let (fu, start) = resources
            .earliest_slot(from, OpClass::Copy, finish, u32::MAX, None)
            .ok_or(ScheduleError::NoTransferUnit { cluster: from })?;
        resources.reserve(from, fu, start);
        let arrival = start + latency;
        comms.record(producer, from, to, start, Some(fu), arrival);
        Ok(arrival)
    }
}

/// Checks an externally supplied assignment for machine legality.
pub(crate) fn check_assignment(
    dag: &Dag,
    machine: &Machine,
    assignment: &Assignment,
) -> Result<(), ScheduleError> {
    if assignment.len() != dag.len() {
        return Err(ScheduleError::LengthMismatch {
            expected: dag.len(),
            actual: assignment.len(),
        });
    }
    let hard = machine.memory().preplacement_is_hard();
    for i in dag.ids() {
        let instr = dag.instr(i);
        if let Some(home) = instr.preplacement() {
            if home.index() >= machine.n_clusters() {
                return Err(ScheduleError::BadHomeCluster { instr: i, home });
            }
            if hard && assignment.cluster(i) != home {
                return Err(ScheduleError::PreplacementConflict {
                    instr: i,
                    home,
                    assigned: assignment.cluster(i),
                });
            }
        }
        if !machine.cluster_can_execute(assignment.cluster(i), instr.class()) {
            return Err(ScheduleError::NoCapableCluster(i));
        }
    }
    Ok(())
}

/// A conservative upper bound on schedule length, used as a
/// no-progress guard.
pub(crate) fn cycle_limit(dag: &Dag, machine: &Machine) -> u32 {
    let total_lat: u32 = dag.instrs().iter().map(|i| machine.latency_of(i) + 1).sum();
    let max_comm = machine
        .cluster_ids()
        .map(|c| machine.comm_latency(ClusterId::new(0), c))
        .max()
        .unwrap_or(0);
    total_lat + (dag.edge_count() as u32 + 1) * (max_comm + 1) + 64
}

/// The shared cycle-driven list scheduler.
///
/// # Example
///
/// ```
/// use convergent_ir::{ClusterId, DagBuilder, Opcode};
/// use convergent_machine::Machine;
/// use convergent_schedulers::ListScheduler;
/// use convergent_sim::Assignment;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = DagBuilder::new();
/// let a = b.instr(Opcode::Load);
/// let c = b.instr(Opcode::IntAlu);
/// b.edge(a, c)?;
/// let dag = b.build()?;
/// let machine = Machine::chorus_vliw(2);
/// let assignment = Assignment::uniform(dag.len(), ClusterId::new(0));
///
/// let schedule = ListScheduler::new().schedule_with_cp(&dag, &machine, &assignment)?;
/// assert_eq!(schedule.makespan().get(), 4); // load(3) then add(1)
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct ListScheduler {
    _private: (),
}

impl ListScheduler {
    /// Creates a list scheduler.
    #[must_use]
    pub fn new() -> Self {
        ListScheduler::default()
    }

    /// Schedules `dag` under a fixed `assignment`, ordering the ready
    /// list by `priorities` (lower value = scheduled earlier; ties
    /// break on instruction id).
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::LengthMismatch`] for wrong-sized
    /// inputs, [`ScheduleError::PreplacementConflict`] /
    /// [`ScheduleError::BadHomeCluster`] /
    /// [`ScheduleError::NoCapableCluster`] for illegal assignments, and
    /// [`ScheduleError::NoProgress`] if the internal guard trips.
    pub fn schedule(
        &self,
        dag: &Dag,
        machine: &Machine,
        assignment: &Assignment,
        priorities: &[u32],
    ) -> Result<SpaceTimeSchedule, ScheduleError> {
        if priorities.len() != dag.len() {
            return Err(ScheduleError::LengthMismatch {
                expected: dag.len(),
                actual: priorities.len(),
            });
        }
        check_assignment(dag, machine, assignment)?;

        // Secondary key: urgency (latest start). Caller priorities
        // rank first; among equals the zero-slack instruction goes
        // ahead of the relaxed one.
        let time = convergent_ir::TimeAnalysis::compute(dag, |i| machine.latency_of(i));
        let urgency: Vec<u32> = dag.ids().map(|i| time.latest_start(i)).collect();

        let n = dag.len();
        let mut resources = SlotLedger::new(machine);
        let mut comms = CommTracker::new();
        let mut start: Vec<Option<u32>> = vec![None; n];
        let mut finish: Vec<u32> = vec![0; n];
        let mut fu_of: Vec<usize> = vec![0; n];
        let mut unsched_preds: Vec<usize> = dag.ids().map(|i| dag.preds(i).len()).collect();

        // Whether an instruction can issue at cycle `t` depends only on
        // its (cluster, op class) pair and the reservations made so
        // far, and reservations only accumulate within a cycle — so one
        // witnessed `free_unit` failure rules the whole pair out for the
        // rest of the cycle. The ready set is therefore kept as one
        // min-heap on (priority, urgency, id) *per pair*, and each issue
        // decision takes the best heap top among the pairs not yet ruled
        // out. That reproduces exactly the historical
        // sort-after-every-issue scan ("always issue the best-ranked
        // eligible instruction") without ever touching the candidates
        // queued behind a blocked pair. The id is unique, so ordering
        // is total and the issue sequence — and with it every schedule
        // — is unchanged.
        //
        // The arbitration itself is a second, per-cycle min-heap `tops`
        // of (heap-top key, pair), built once per cycle from the
        // non-empty pairs. Invariant: every pair that is not blocked
        // and not empty has an entry holding its current top. Issuing
        // pushes the pair's new top, and a same-cycle release that
        // becomes the top of a non-blocked pair pushes itself, so the
        // invariant holds after every change. A popped entry whose pair
        // is blocked, or whose key is no longer that pair's top (keys
        // are unique), is stale and skipped; the first live entry is
        // the best eligible instruction.
        let n_classes = OpClass::ALL.len();
        let pair_of: Vec<usize> = dag
            .ids()
            .map(|i| {
                let class = dag.instr(i).class();
                let k = OpClass::ALL
                    .iter()
                    .position(|&c| c == class)
                    .expect("every class appears in OpClass::ALL");
                assignment.cluster(i).index() * n_classes + k
            })
            .collect();
        let n_pairs = machine.n_clusters() * n_classes;
        let mut ready: Vec<BinaryHeap<Reverse<ReadyKey>>> =
            (0..n_pairs).map(|_| BinaryHeap::new()).collect();
        for i in dag.ids().filter(|&i| unsched_preds[i.index()] == 0) {
            ready[pair_of[i.index()]].push(Reverse((priorities[i.index()], urgency[i.index()], i)));
        }
        // Instructions released with operands still in flight wait in a
        // bucket for their arrival cycle instead of churning through
        // the ready heaps every cycle in between.
        let mut arrivals: Vec<Vec<InstrId>> = Vec::new();
        let mut blocked: Vec<bool> = vec![false; n_pairs];
        let mut tops: BinaryHeap<Reverse<(ReadyKey, usize)>> = BinaryHeap::new();
        let mut n_placed = 0usize;
        let limit = cycle_limit(dag, machine);

        let mut t: u32 = 0;
        while n_placed < n {
            if t > limit {
                return Err(ScheduleError::NoProgress { cycle: t });
            }
            if let Some(bucket) = arrivals.get_mut(t as usize) {
                for i in bucket.drain(..) {
                    ready[pair_of[i.index()]].push(Reverse((
                        priorities[i.index()],
                        urgency[i.index()],
                        i,
                    )));
                }
            }
            blocked.fill(false);
            tops.clear();
            tops.extend(
                ready
                    .iter()
                    .enumerate()
                    .filter_map(|(p, h)| h.peek().map(|&Reverse(key)| Reverse((key, p)))),
            );
            // Issue as many ready instructions as resources allow.
            while let Some(Reverse((key, p))) = tops.pop() {
                if blocked[p] || ready[p].peek() != Some(&Reverse(key)) {
                    continue;
                }
                let (_, _, i) = key;
                let cluster = assignment.cluster(i);
                let class = dag.instr(i).class();
                match resources.free_unit(cluster, class, t) {
                    Some(fu) => {
                        ready[p].pop();
                        if let Some(&Reverse(next)) = ready[p].peek() {
                            tops.push(Reverse((next, p)));
                        }
                        resources.reserve(cluster, fu, t);
                        start[i.index()] = Some(t);
                        fu_of[i.index()] = fu;
                        finish[i.index()] = t + effective_latency_in(dag, machine, i, cluster);
                        n_placed += 1;
                        // Move the produced value toward every consumer
                        // cluster as soon as it exists (`ensure_comm`
                        // inserts one transfer per cluster and returns
                        // the recorded arrival for the others).
                        for &s in dag.succs(i) {
                            let sc = assignment.cluster(s);
                            if sc != cluster {
                                ensure_comm(
                                    machine,
                                    &mut resources,
                                    &mut comms,
                                    i,
                                    cluster,
                                    finish[i.index()],
                                    sc,
                                )?;
                            }
                        }
                        // Release consumers whose last producer this
                        // was. A zero-latency producer can release a
                        // consumer into the current cycle; entering its
                        // ready heap it contends in rank order with
                        // everything not yet issued, as before, and if
                        // it becomes its pair's top it enters `tops`.
                        // (A release into a blocked pair stays queued:
                        // it could not have issued this cycle anyway.)
                        for &s in dag.succs(i) {
                            unsched_preds[s.index()] -= 1;
                            if unsched_preds[s.index()] == 0 {
                                let sc = assignment.cluster(s);
                                let arrive = dag
                                    .preds(s)
                                    .iter()
                                    .map(|&pr| {
                                        let pc = assignment.cluster(pr);
                                        if pc == sc {
                                            finish[pr.index()]
                                        } else {
                                            comms
                                                .arrival(pr, sc)
                                                .expect("comm inserted when producer placed")
                                        }
                                    })
                                    .max()
                                    .unwrap_or(0);
                                if arrive > t {
                                    let slot = arrive as usize;
                                    if slot >= arrivals.len() {
                                        arrivals.resize_with(slot + 1, Vec::new);
                                    }
                                    arrivals[slot].push(s);
                                } else {
                                    let ps = pair_of[s.index()];
                                    let key = (priorities[s.index()], urgency[s.index()], s);
                                    ready[ps].push(Reverse(key));
                                    if !blocked[ps] && ready[ps].peek() == Some(&Reverse(key)) {
                                        tops.push(Reverse((key, ps)));
                                    }
                                }
                            }
                        }
                    }
                    None => blocked[p] = true,
                }
            }
            t += 1;
        }

        let mut builder = ScheduleBuilder::new(dag);
        for i in dag.ids() {
            builder.place(
                i,
                assignment.cluster(i),
                fu_of[i.index()],
                Cycle::new(start[i.index()].expect("all placed")),
            );
        }
        comms.emit_into(&mut builder);
        builder
            .build(machine)
            .map_err(|e| ScheduleError::ProducedInvalid(e.to_string()))
    }

    /// Schedules with classic critical-path priorities
    /// ([`crate::cp_priorities`]).
    ///
    /// # Errors
    ///
    /// Same as [`ListScheduler::schedule`].
    pub fn schedule_with_cp(
        &self,
        dag: &Dag,
        machine: &Machine,
        assignment: &Assignment,
    ) -> Result<SpaceTimeSchedule, ScheduleError> {
        let p = crate::cp_priorities(dag, machine);
        self.schedule(dag, machine, assignment, &p)
    }
}

#[cfg(test)]
#[path = "../tests/support/reference_list.rs"]
mod reference_list;

#[cfg(test)]
mod tests {
    use super::*;
    use convergent_ir::{DagBuilder, Opcode};
    use convergent_machine::LatencyTable;
    use convergent_rng::Rng;
    use convergent_sim::validate;
    use convergent_workloads::{build_unit, raw_suite, vliw_suite, FAMILIES};
    use proptest::prelude::*;

    /// Schedules with the incremental selection and with the reference
    /// full scan, and requires the same result.
    fn same_as_reference(
        dag: &Dag,
        m: &Machine,
        asg: &Assignment,
        priorities: &[u32],
    ) -> SpaceTimeSchedule {
        let got = ListScheduler::new().schedule(dag, m, asg, priorities);
        assert_eq!(
            got,
            reference_list::schedule(dag, m, asg, priorities),
            "on {}",
            m.name()
        );
        got.expect("schedules")
    }

    /// A machine whose integer ops take no cycles, so a producer can
    /// release its consumers into the cycle it issues in.
    fn zero_latency_alu(m: Machine) -> Machine {
        m.with_latencies(LatencyTable::r4000().with(OpClass::IntAlu, 0))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn incremental_selection_matches_the_full_scan(
            family in 0usize..FAMILIES.len(),
            size in 2usize..150,
            seed in any::<u64>(),
            machine in 0usize..6,
        ) {
            let machine = match machine {
                0 => Machine::chorus_vliw(2),
                1 => Machine::chorus_vliw(4),
                2 => zero_latency_alu(Machine::chorus_vliw(4)),
                3 => Machine::raw(4),
                4 => zero_latency_alu(Machine::raw(4)),
                _ => Machine::raw(16),
            };
            let unit = build_unit(FAMILIES[family], size, machine.n_clusters() as u16, seed);
            let dag = unit.dag();
            // A scattered assignment (homes kept) and coarse priorities,
            // so ties fall through to urgency and id.
            let mut rng = Rng::seed_from_u64(seed);
            let asg: Assignment = dag
                .ids()
                .map(|i| {
                    let k = rng.below(machine.n_clusters());
                    dag.instr(i).preplacement().unwrap_or(c(k as u16))
                })
                .collect();
            let priorities: Vec<u32> = dag.ids().map(|_| rng.below(8) as u32).collect();
            let got = ListScheduler::new().schedule(dag, &machine, &asg, &priorities);
            prop_assert_eq!(got, reference_list::schedule(dag, &machine, &asg, &priorities));
        }
    }

    #[test]
    fn incremental_selection_matches_the_full_scan_on_the_suites() {
        for (m, suite) in [
            (Machine::chorus_vliw(4), vliw_suite(4)),
            (Machine::raw(16), raw_suite(16)),
        ] {
            for unit in suite {
                let dag = unit.dag();
                let asg: Assignment = dag
                    .ids()
                    .map(|i| {
                        dag.instr(i)
                            .preplacement()
                            .unwrap_or(c((i.index() % m.n_clusters()) as u16))
                    })
                    .collect();
                same_as_reference(dag, &m, &asg, &crate::cp_priorities(dag, &m));
            }
        }
    }

    #[test]
    fn same_cycle_release_into_an_open_pair_issues_at_once() {
        // `a` takes no cycles; its consumer `b` is released into the
        // current cycle, becomes the top of the (cluster 0, int) pair
        // that still has a free unit, and issues beside `a`.
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = zero_latency_alu(Machine::chorus_vliw(1));
        let asg = Assignment::uniform(2, c(0));
        let s = same_as_reference(&dag, &m, &asg, &[0, 1]);
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.op(a).start.get(), 0);
        assert_eq!(s.op(d).start.get(), 0);
    }

    #[test]
    fn same_cycle_release_into_a_blocked_pair_waits() {
        // One FPU: `f2` fails at cycle 0 and blocks the (cluster 0,
        // fp) pair. The zero-latency `a` then releases `f3` into that
        // blocked pair; it must not issue at 0, and next cycle it
        // still ranks behind `f2`.
        let mut b = DagBuilder::new();
        let f1 = b.instr(Opcode::FMul);
        let f2 = b.instr(Opcode::FMul);
        let a = b.instr(Opcode::IntAlu);
        let f3 = b.instr(Opcode::FMul);
        b.edge(a, f3).unwrap();
        let dag = b.build().unwrap();
        let m = zero_latency_alu(Machine::chorus_vliw(1));
        let asg = Assignment::uniform(4, c(0));
        let s = same_as_reference(&dag, &m, &asg, &[0, 1, 2, 3]);
        validate(&dag, &m, &s).unwrap();
        let starts: Vec<u32> = [f1, f2, a, f3]
            .iter()
            .map(|&i| s.op(i).start.get())
            .collect();
        assert_eq!(starts, vec![0, 1, 0, 2]);
    }

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn serial_chain_on_one_cluster() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::Load);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let asg = Assignment::uniform(2, c(0));
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.makespan().get(), 4);
        assert_eq!(s.comm_count(), 0);
    }

    #[test]
    fn cross_cluster_copy_inserted_on_vliw() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let asg = Assignment::from_vec(vec![c(0), c(1)]);
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        // a: 0..1, copy at 1 arrives 2, d: 2..3.
        assert_eq!(s.makespan().get(), 3);
        assert_eq!(s.comm_count(), 1);
        assert_eq!(s.comms()[0].fu, Some(3)); // the transfer unit
    }

    #[test]
    fn raw_route_inserted() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg = Assignment::from_vec(vec![c(0), c(1)]);
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        // a: 0..1, route arrives 1+3=4, d: 4..5.
        assert_eq!(s.makespan().get(), 5);
        assert_eq!(s.comms()[0].fu, None);
    }

    #[test]
    fn one_copy_serves_multiple_consumers_on_one_cluster() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d1 = b.instr(Opcode::IntAlu);
        let d2 = b.instr(Opcode::IntAlu);
        b.edge(a, d1).unwrap();
        b.edge(a, d2).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let asg = Assignment::from_vec(vec![c(0), c(1), c(1)]);
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.comm_count(), 1);
    }

    #[test]
    fn priorities_order_contending_instructions() {
        // Two independent ops contend for the single int-alu... use Raw
        // single-issue so only one issues per cycle.
        let mut b = DagBuilder::new();
        let x = b.instr(Opcode::IntAlu);
        let y = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::raw(1);
        let asg = Assignment::uniform(2, c(0));
        // Favor y.
        let s = ListScheduler::new()
            .schedule(&dag, &m, &asg, &[5, 0])
            .unwrap();
        assert_eq!(s.op(y).start.get(), 0);
        assert_eq!(s.op(x).start.get(), 1);
        // Favor x.
        let s = ListScheduler::new()
            .schedule(&dag, &m, &asg, &[0, 5])
            .unwrap();
        assert_eq!(s.op(x).start.get(), 0);
        assert_eq!(s.op(y).start.get(), 1);
    }

    #[test]
    fn fu_capability_respected() {
        // FMul and IntAlu on a chorus cluster can co-issue (different
        // units); two FMuls cannot.
        let mut b = DagBuilder::new();
        let f1 = b.instr(Opcode::FMul);
        let f2 = b.instr(Opcode::FMul);
        let a = b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(1);
        let asg = Assignment::uniform(3, c(0));
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        let starts: Vec<u32> = [f1, f2, a].iter().map(|&i| s.op(i).start.get()).collect();
        assert_eq!(starts[2], 0); // int op co-issues
        assert_eq!(starts.iter().filter(|&&t| t == 0).count(), 2); // one fmul waits
    }

    #[test]
    fn hard_preplacement_conflict_rejected() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(1));
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg = Assignment::uniform(1, c(0));
        let err = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::PreplacementConflict { .. }));
    }

    #[test]
    fn bad_home_cluster_rejected() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(7));
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let asg = Assignment::uniform(1, c(0));
        let err = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap_err();
        assert!(matches!(err, ScheduleError::BadHomeCluster { .. }));
    }

    #[test]
    fn length_mismatch_rejected() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::raw(1);
        let asg = Assignment::uniform(2, c(0));
        assert!(matches!(
            ListScheduler::new().schedule_with_cp(&dag, &m, &asg),
            Err(ScheduleError::LengthMismatch { .. })
        ));
        let asg = Assignment::uniform(1, c(0));
        assert!(matches!(
            ListScheduler::new().schedule(&dag, &m, &asg, &[]),
            Err(ScheduleError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn wide_parallel_graph_saturates_machine() {
        // 8 independent int ops on 4 Raw tiles: 2 cycles.
        let mut b = DagBuilder::new();
        for _ in 0..8 {
            b.instr(Opcode::IntAlu);
        }
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let asg: Assignment = (0..8).map(|k| c(k % 4)).collect();
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.makespan().get(), 2);
    }

    #[test]
    fn remote_memory_pays_penalty_in_schedule() {
        let mut b = DagBuilder::new();
        let ld = b.preplaced_instr(Opcode::Load, c(1));
        let use_ = b.instr(Opcode::IntAlu);
        b.edge(ld, use_).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        // Both on cluster 0: load runs remotely (latency 4).
        let asg = Assignment::uniform(2, c(0));
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        validate(&dag, &m, &s).unwrap();
        assert_eq!(s.makespan().get(), 5);
        // Both on home cluster 1: local load (latency 3).
        let asg = Assignment::uniform(2, c(1));
        let s = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap();
        assert_eq!(s.makespan().get(), 4);
    }

    #[test]
    fn missing_transfer_unit_is_an_error_not_a_panic() {
        use convergent_machine::{Cluster, CommModel, FuKind, LatencyTable, MemoryModel, Topology};
        // Copy-based comm model, but no cluster owns a copy-capable
        // unit: a cross-cluster value has no way to travel. The list
        // scheduler must report this, not unwind.
        let m = Machine::new(
            "no-transfer",
            vec![
                Cluster::new(vec![FuKind::IntAlu, FuKind::IntAluMem]),
                Cluster::new(vec![FuKind::IntAlu, FuKind::IntAluMem]),
            ],
            Topology::PointToPoint,
            CommModel::vliw_transfer(),
            LatencyTable::r4000(),
            MemoryModel::chorus(),
        );
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let asg = Assignment::from_vec(vec![c(0), c(1)]);
        let err = ListScheduler::new()
            .schedule_with_cp(&dag, &m, &asg)
            .unwrap_err();
        assert_eq!(err, ScheduleError::NoTransferUnit { cluster: c(0) });
        assert!(err.to_string().contains("copy-capable"));
    }
}
