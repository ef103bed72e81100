//! The reference list scheduler: the cycle-driven engine as it was
//! before its per-cycle heap of pair tops, kept as written. Every
//! issue decision scans the tops of all `n_clusters × classes` ready
//! heaps for the best one. `src/list.rs` includes this file as a
//! test-only child module and checks that the incremental selection
//! makes exactly the choices this scan makes.

use std::collections::BinaryHeap;

use super::{check_assignment, cycle_limit, ensure_comm, CommTracker};
use crate::ScheduleError;
use convergent_ir::{Cycle, Dag, InstrId, OpClass};
use convergent_machine::Machine;
use convergent_sim::{
    effective_latency_in, Assignment, ScheduleBuilder, SlotLedger, SpaceTimeSchedule,
};

/// Schedules `dag` under `assignment` ordered by `priorities`, exactly
/// as `ListScheduler::schedule` did with the full per-decision scan.
pub(super) fn schedule(
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
    // min-heap on (priority, urgency, id) *per pair*: each issue
    // decision arbitrates across the heap tops of the pairs not yet
    // ruled out, which reproduces exactly the historical
    // sort-after-every-issue scan ("always issue the best-ranked
    // eligible instruction") without ever touching the candidates
    // queued behind a blocked pair. The id is unique, so ordering
    // is total and the issue sequence — and with it every schedule
    // — is unchanged.
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
    let mut ready: Vec<BinaryHeap<std::cmp::Reverse<(u32, u32, InstrId)>>> =
        (0..n_pairs).map(|_| BinaryHeap::new()).collect();
    for i in dag.ids().filter(|&i| unsched_preds[i.index()] == 0) {
        ready[pair_of[i.index()]].push(std::cmp::Reverse((
            priorities[i.index()],
            urgency[i.index()],
            i,
        )));
    }
    // Instructions released with operands still in flight wait in a
    // bucket for their arrival cycle instead of churning through
    // the ready heaps every cycle in between.
    let mut arrivals: Vec<Vec<InstrId>> = Vec::new();
    let mut blocked: Vec<bool> = vec![false; n_pairs];
    let mut n_placed = 0usize;
    let limit = cycle_limit(dag, machine);

    let mut t: u32 = 0;
    while n_placed < n {
        if t > limit {
            return Err(ScheduleError::NoProgress { cycle: t });
        }
        if let Some(bucket) = arrivals.get_mut(t as usize) {
            for i in bucket.drain(..) {
                ready[pair_of[i.index()]].push(std::cmp::Reverse((
                    priorities[i.index()],
                    urgency[i.index()],
                    i,
                )));
            }
        }
        blocked.fill(false);
        // Issue as many ready instructions as resources allow.
        loop {
            let mut best: Option<(usize, (u32, u32, InstrId))> = None;
            for (p, h) in ready.iter().enumerate() {
                if blocked[p] {
                    continue;
                }
                if let Some(&std::cmp::Reverse(key)) = h.peek() {
                    if best.is_none_or(|(_, b)| key < b) {
                        best = Some((p, key));
                    }
                }
            }
            let Some((p, (_, _, i))) = best else { break };
            let cluster = assignment.cluster(i);
            let class = dag.instr(i).class();
            match resources.free_unit(cluster, class, t) {
                Some(fu) => {
                    ready[p].pop();
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
                    // everything not yet issued, as before. (A
                    // release into a blocked pair stays queued: it
                    // could not have issued this cycle anyway.)
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
                                ready[pair_of[s.index()]].push(std::cmp::Reverse((
                                    priorities[s.index()],
                                    urgency[s.index()],
                                    s,
                                )));
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
