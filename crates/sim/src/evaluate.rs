//! Cycle-level execution of a schedule.
//!
//! [`evaluate`] re-executes a (validated) schedule with true machine
//! semantics: per-functional-unit in-order issue, data arrival through
//! explicit transfers, and — on mesh machines — dimension-ordered
//! routing with per-link contention. The scheduler's nominal cycle
//! numbers act as the *issue order*; the evaluator derives the real
//! timing, charging stalls wherever two routes fight over a wire.
//!
//! This mirrors how Raw executes compiler-generated code: the static
//! network follows the compiler's routes, and any optimism in the
//! schedule surfaces as extra cycles at run time rather than as
//! incorrect execution.
//!
//! Transfers form *chains*: a relayed value (A→B then B→C) departs
//! each hop only once it has actually arrived at that hop's source
//! cluster, matching what [`crate::validate`] accepts. A schedule
//! whose operations can never all issue (e.g. an unvalidated one with
//! a cross-cluster dependence and no transfer) is reported as
//! [`SimError::NoProgress`], not a panic.

use std::collections::hash_map::Entry;

use convergent_ir::{ClusterId, Cycle, Dag, IdMap, InstrId};
use convergent_machine::Machine;

use crate::route::{route_hops, Router, RouterReport};
use crate::{SimError, SpaceTimeSchedule};

/// What a schedule actually costs when executed.
#[derive(Clone, Debug, PartialEq)]
pub struct EvalReport {
    /// The scheduler's claimed makespan.
    pub nominal_makespan: Cycle,
    /// Execution time including network contention stalls.
    pub makespan: Cycle,
    /// Network behaviour (stalls, route count, link-cycles).
    pub network: RouterReport,
    /// Fraction of issue slots used over the execution
    /// (`issued ops / (total FUs × makespan)`).
    pub fu_utilization: f64,
    /// Number of cross-cluster transfers executed.
    pub comm_ops: usize,
}

/// Item kinds competing for an issue slot.
#[derive(Clone, Copy, Debug)]
enum Item {
    Instr(InstrId),
    Comm(usize),
}

/// Value movement through the network: per-cluster arrivals, wire
/// routes (injected exactly once, when their source cluster first
/// holds the value), and the contention ledger.
struct Net {
    router: Router,
    report: RouterReport,
    /// (producer, destination cluster) → first usable cycle there.
    arrival: IdMap<(InstrId, usize), u32>,
    injected: Vec<bool>,
    max_time: u32,
}

impl Net {
    fn new(schedule: &SpaceTimeSchedule) -> Self {
        Net {
            router: Router::new(),
            report: RouterReport::default(),
            arrival: IdMap::default(),
            injected: vec![false; schedule.comms().len()],
            max_time: 0,
        }
    }

    /// Injects every not-yet-injected wire route of `p` departing
    /// `cluster`, where the value becomes available at `avail`, and
    /// queues the resulting deliveries.
    fn inject_wires(
        &mut self,
        machine: &Machine,
        schedule: &SpaceTimeSchedule,
        p: InstrId,
        cluster: ClusterId,
        avail: u32,
        work: &mut Vec<(ClusterId, u32)>,
    ) {
        // Wire routes are the comms with no issue slot, visited in
        // insertion order through the schedule's producer index.
        for k in schedule.comm_indices_for(p).iter().map(|&k| k as usize) {
            let comm = &schedule.comms()[k];
            if comm.fu.is_some() || comm.from != cluster || self.injected[k] {
                continue;
            }
            self.injected[k] = true;
            let path = route_hops(machine, comm.from, comm.to);
            let inj = self.router.inject(&path, avail);
            self.report.stall_cycles += inj - avail;
            self.report.routes += 1;
            self.report.link_cycles += path.len().saturating_sub(1);
            work.push((comm.to, inj + comm.latency));
        }
    }

    /// Records deliveries of `p`'s value and chases any relay chains
    /// they unlock.
    fn drain(
        &mut self,
        machine: &Machine,
        schedule: &SpaceTimeSchedule,
        p: InstrId,
        mut work: Vec<(ClusterId, u32)>,
    ) {
        while let Some((cluster, arr)) = work.pop() {
            self.max_time = self.max_time.max(arr);
            let improved = match self.arrival.entry((p, cluster.index())) {
                Entry::Occupied(mut e) => {
                    if arr < *e.get() {
                        e.insert(arr);
                        true
                    } else {
                        false
                    }
                }
                Entry::Vacant(e) => {
                    e.insert(arr);
                    true
                }
            };
            if improved {
                self.inject_wires(machine, schedule, p, cluster, arr, &mut work);
            }
        }
    }

    /// Producer `p` finished at `fin` on `cluster`: launch its wire
    /// routes (and their relays).
    fn on_instr_finish(
        &mut self,
        machine: &Machine,
        schedule: &SpaceTimeSchedule,
        p: InstrId,
        cluster: ClusterId,
        fin: u32,
    ) {
        let mut work = Vec::new();
        self.inject_wires(machine, schedule, p, cluster, fin, &mut work);
        self.drain(machine, schedule, p, work);
    }

    /// An issue-slot transfer of `p`'s value lands on `to` at `arr`.
    fn on_comm_arrival(
        &mut self,
        machine: &Machine,
        schedule: &SpaceTimeSchedule,
        p: InstrId,
        to: ClusterId,
        arr: u32,
    ) {
        self.report.routes += 1;
        self.report.link_cycles += 1;
        self.drain(machine, schedule, p, vec![(to, arr)]);
    }
}

/// Executes `schedule` on `machine` and reports true cost.
///
/// # Errors
///
/// Returns [`SimError::NoProgress`] if the simulation stops making
/// progress, which only happens for schedules that do not pass
/// [`crate::validate`] (e.g. a cross-cluster dependence with no
/// transfer, or a transfer departing a cluster the value never
/// reaches). Validate first.
pub fn evaluate(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
) -> Result<EvalReport, SimError> {
    let n_clusters = machine.n_clusters();
    // Build per-(cluster, fu) issue queues ordered by nominal start.
    let mut queues: Vec<Vec<Vec<Item>>> = (0..n_clusters)
        .map(|c| {
            let width = machine
                .cluster(convergent_ir::ClusterId::new(c as u16))
                .issue_width();
            vec![Vec::new(); width]
        })
        .collect();
    let mut keyed: Vec<Vec<Vec<(u32, u8, u32)>>> = queues
        .iter()
        .map(|fus| fus.iter().map(|_| Vec::new()).collect())
        .collect();
    for op in schedule.ops() {
        queues[op.cluster.index()][op.fu].push(Item::Instr(op.instr));
        keyed[op.cluster.index()][op.fu].push((op.start.get(), 0, op.instr.raw()));
    }
    for (k, comm) in schedule.comms().iter().enumerate() {
        if let Some(fu) = comm.fu {
            queues[comm.from.index()][fu].push(Item::Comm(k));
            keyed[comm.from.index()][fu].push((comm.start.get(), 1, comm.producer.raw()));
        }
    }
    for c in 0..n_clusters {
        for f in 0..queues[c].len() {
            let mut order: Vec<usize> = (0..queues[c][f].len()).collect();
            order.sort_by_key(|&k| keyed[c][f][k]);
            queues[c][f] = order.iter().map(|&k| queues[c][f][k]).collect();
        }
    }

    let mut finish: Vec<Option<u32>> = vec![None; dag.len()];
    let mut net = Net::new(schedule);
    let mut heads: Vec<Vec<usize>> = queues
        .iter()
        .map(|fus| fus.iter().map(|_| 0usize).collect())
        .collect();
    let mut remaining: usize =
        dag.len() + schedule.comms().iter().filter(|c| c.fu.is_some()).count();
    let total_issue_slots: usize = remaining;
    let limit = schedule.makespan().get().saturating_mul(8) + 1024;

    let ready_instr = |i: InstrId,
                       cluster: usize,
                       t: u32,
                       finish: &[Option<u32>],
                       arrival: &IdMap<(InstrId, usize), u32>|
     -> bool {
        dag.preds(i).iter().all(|&p| {
            let p_op = schedule.op(p);
            if p_op.cluster.index() == cluster {
                finish[p.index()].is_some_and(|f| f <= t)
            } else {
                arrival.get(&(p, cluster)).is_some_and(|&a| a <= t)
            }
        })
    };

    let mut t: u32 = 0;
    while remaining > 0 {
        if t > limit {
            return Err(SimError::NoProgress {
                cycle: t,
                remaining,
            });
        }
        for c in 0..n_clusters {
            for f in 0..queues[c].len() {
                let h = heads[c][f];
                if h >= queues[c][f].len() {
                    continue;
                }
                match queues[c][f][h] {
                    Item::Instr(i) => {
                        if ready_instr(i, c, t, &finish, &net.arrival) {
                            let lat = schedule.op(i).latency;
                            let fin = t + lat;
                            finish[i.index()] = Some(fin);
                            net.max_time = net.max_time.max(fin);
                            heads[c][f] += 1;
                            remaining -= 1;
                            net.on_instr_finish(machine, schedule, i, schedule.op(i).cluster, fin);
                        }
                    }
                    Item::Comm(k) => {
                        let comm = &schedule.comms()[k];
                        let p = comm.producer;
                        // The transfer departs once the value is at its
                        // source cluster — the producer's own cluster,
                        // or (for a relay) wherever an earlier hop
                        // dropped it.
                        let src_ready = if comm.from == schedule.op(p).cluster {
                            finish[p.index()].is_some_and(|fp| fp <= t)
                        } else {
                            net.arrival
                                .get(&(p, comm.from.index()))
                                .is_some_and(|&a| a <= t)
                        };
                        if src_ready {
                            heads[c][f] += 1;
                            remaining -= 1;
                            net.on_comm_arrival(machine, schedule, p, comm.to, t + comm.latency);
                        }
                    }
                }
            }
        }
        t += 1;
    }

    let makespan = net.max_time.max(1);
    let total_fus: usize = (0..n_clusters)
        .map(|c| {
            machine
                .cluster(convergent_ir::ClusterId::new(c as u16))
                .issue_width()
        })
        .sum();
    Ok(EvalReport {
        nominal_makespan: schedule.makespan(),
        makespan: Cycle::new(makespan),
        network: net.report,
        fu_utilization: total_issue_slots as f64 / (total_fus as f64 * f64::from(makespan)),
        comm_ops: schedule.comm_count(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, ScheduleBuilder};
    use convergent_ir::{ClusterId, DagBuilder, Opcode};

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    fn i(k: u32) -> InstrId {
        InstrId::new(k)
    }

    #[test]
    fn simple_chain_matches_nominal() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.place(d, c(0), 0, Cycle::new(1));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.makespan, Cycle::new(2));
        assert_eq!(r.nominal_makespan, Cycle::new(2));
        assert_eq!(r.network.stall_cycles, 0);
        assert_eq!(r.comm_ops, 0);
    }

    #[test]
    fn vliw_transfer_executes() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.comm(a, c(0), c(1), Cycle::new(1), Some(3));
        sb.place(d, c(1), 0, Cycle::new(2));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.makespan, Cycle::new(3));
        assert_eq!(r.comm_ops, 1);
        assert_eq!(r.network.routes, 1);
    }

    #[test]
    fn raw_route_without_contention() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.comm(a, c(0), c(1), Cycle::new(1), None);
        sb.place(d, c(1), 0, Cycle::new(4));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.makespan, Cycle::new(5)); // consumer 4..5
        assert_eq!(r.network.stall_cycles, 0);
    }

    #[test]
    fn contention_stalls_surface_in_makespan() {
        // Routes A: tile0 -> tile2 and B: tile1 -> tile2 share the mesh
        // link (1,0)->(2,0). A's producer (IntAlu, finish 1) injects at
        // cycle 1 and uses the shared link at cycle 3; B's producer
        // (IntMul, finish 2) injects at cycle 2 and wants the same link
        // at cycle 3 -> one stall.
        let mut b = DagBuilder::new();
        let p0 = b.instr(Opcode::IntAlu);
        let p1 = b.instr(Opcode::IntMul);
        let u0 = b.instr(Opcode::IntAlu);
        let u1 = b.instr(Opcode::IntAlu);
        b.edge(p0, u0).unwrap();
        b.edge(p1, u1).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(16); // 4x4 row: tiles 0,1,2,3
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(p0, c(0), 0, Cycle::ZERO);
        sb.place(p1, c(1), 0, Cycle::ZERO);
        // A: 2 hops, latency 4, nominal arrival 1 + 4 = 5.
        sb.comm(p0, c(0), c(2), Cycle::new(1), None);
        // B: 1 hop, latency 3, nominal arrival 2 + 3 = 5.
        sb.comm(p1, c(1), c(2), Cycle::new(2), None);
        sb.place(u0, c(2), 0, Cycle::new(5));
        sb.place(u1, c(2), 0, Cycle::new(6));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.network.stall_cycles, 1);
        // B's value arrives at 6 instead of 5, so u1 issues at 6.
        assert_eq!(r.makespan, Cycle::new(7));
        assert_eq!(r.network.routes, 2);
    }

    #[test]
    fn utilization_is_sane() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::raw(1);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        let s = sb.build(&m).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert!((r.fu_utilization - 1.0).abs() < 1e-9);
    }

    #[test]
    fn unvalidated_deadlock_is_a_structured_error() {
        // Cross-cluster dependence with no transfer: the consumer can
        // never issue, which used to be an assert! panic.
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.place(d, c(1), 0, Cycle::new(9));
        let s = sb.build(&m).unwrap();
        assert!(validate(&dag, &m, &s).is_err());
        match evaluate(&dag, &m, &s) {
            Err(SimError::NoProgress { remaining, .. }) => assert_eq!(remaining, 1),
            other => panic!("expected NoProgress, got {other:?}"),
        }
    }

    #[test]
    fn relayed_transfer_waits_for_the_first_hop() {
        // A on cluster 0, consumer on cluster 2, value relayed through
        // cluster 1: the second copy may depart only after the first
        // arrives, and the evaluator must execute the chain.
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(3);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        // finish 1; hop 1 departs at 1, arrives c1 at 2; hop 2 departs
        // at 2 from c1, arrives c2 at 3.
        sb.comm(a, c(0), c(1), Cycle::new(1), Some(3));
        sb.comm(a, c(1), c(2), Cycle::new(2), Some(3));
        sb.place(d, c(2), 0, Cycle::new(3));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.makespan, Cycle::new(4)); // d runs 3..4
        assert_eq!(r.network.routes, 2);
    }

    #[test]
    fn relayed_wire_route_waits_for_the_first_hop() {
        // Same relay shape on a mesh: the 1→2 route may inject only
        // once the 0→1 route has delivered the value to tile 1.
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        // finish 1; 0→1 injects at 1, arrives 4; 1→2 injects at 4,
        // arrives 4 + latency(1→2).
        sb.comm(a, c(0), c(1), Cycle::new(1), None);
        sb.comm(a, c(1), c(2), Cycle::new(4), None);
        let lat = m.comm_latency(c(1), c(2));
        sb.place(d, c(2), 0, Cycle::new(4 + lat));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = evaluate(&dag, &m, &s).unwrap();
        assert_eq!(r.network.routes, 2);
        assert_eq!(r.makespan, Cycle::new(4 + lat + 1));
    }
}
