//! Differential schedule oracle: an independent re-simulation of a
//! [`SpaceTimeSchedule`] used to cross-check [`crate::evaluate`].
//!
//! [`resimulate`] derives makespan, contention stalls, and link
//! occupancy from the schedule alone, just like `evaluate` — but with a
//! completely different execution strategy. Where `evaluate` is
//! cycle-driven (scan every functional unit every cycle), the oracle is
//! *event-driven*: each functional unit sleeps until something that
//! could unblock its queue head actually happens — a producer
//! finishing, a value arriving, or its own next issue opportunity. The
//! oracle also carries its own link-occupancy ledger and its own
//! dimension-ordered path walk rather than reusing
//! [`crate::route_hops`], so a bug in either simulator's traversal,
//! readiness, or contention logic shows up as a disagreement instead
//! of being silently shared.
//!
//! [`cross_check`] runs both simulators and diffs their reports
//! field by field; the fuzz harness (`crates/bench/src/bin/fuzz.rs`)
//! drives it over randomized schedules from every scheduler in the
//! workspace.
//!
//! # Why the two simulators must agree exactly
//!
//! Both implement the same contract: nominal cycle numbers define the
//! per-FU *issue order* only; execution is as-soon-as-possible under
//! data arrival, one issue per FU per cycle, and earliest-feasible-slot
//! wormhole routing. Within a cycle, units are scanned in ascending
//! `(cluster, fu)` order and a value delivered by an earlier unit is
//! visible to a later unit in the same cycle. The oracle reproduces
//! that visibility rule in its wake-up times, so every quantity in
//! [`EvalReport`] — including stall cycles, which depend on the global
//! order routes are injected — must match bit for bit.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::fmt;

use convergent_ir::{Cycle, Dag, InstrId};
use convergent_machine::{Machine, Topology};

use crate::route::RouterReport;
use crate::{evaluate, EvalReport, SimError, SpaceTimeSchedule};

/// One field on which the two simulators disagree.
#[derive(Clone, Debug, PartialEq)]
pub struct Divergence {
    /// Which quantity diverged.
    pub field: &'static str,
    /// What [`crate::evaluate`] reported.
    pub evaluate: String,
    /// What [`resimulate`] reported.
    pub oracle: String,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "simulators disagree on {}: evaluate says {}, oracle says {}",
            self.field, self.evaluate, self.oracle
        )
    }
}

impl std::error::Error for Divergence {}

/// Runs both simulators on `schedule` and diffs their reports.
///
/// Returns the agreed outcome — `Ok(report)` when the schedule
/// executes, `Err(SimError)` when both simulators got stuck on the
/// same number of operations (possible only for unvalidated
/// schedules).
///
/// # Errors
///
/// Returns [`Divergence`] describing the first differing field when the
/// two simulators disagree. Any divergence is a bug in one of them.
#[allow(clippy::result_large_err)]
pub fn cross_check(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
) -> Result<Result<EvalReport, SimError>, Divergence> {
    let ev = evaluate(dag, machine, schedule);
    let or = resimulate(dag, machine, schedule);
    match (ev, or) {
        (Ok(e), Ok(o)) => {
            let diff = |field: &'static str, a: &dyn fmt::Debug, b: &dyn fmt::Debug| Divergence {
                field,
                evaluate: format!("{a:?}"),
                oracle: format!("{b:?}"),
            };
            if e.makespan != o.makespan {
                return Err(diff("makespan", &e.makespan, &o.makespan));
            }
            if e.network.stall_cycles != o.network.stall_cycles {
                return Err(diff(
                    "stall_cycles",
                    &e.network.stall_cycles,
                    &o.network.stall_cycles,
                ));
            }
            if e.network.routes != o.network.routes {
                return Err(diff("routes", &e.network.routes, &o.network.routes));
            }
            if e.network.link_cycles != o.network.link_cycles {
                return Err(diff(
                    "link_cycles",
                    &e.network.link_cycles,
                    &o.network.link_cycles,
                ));
            }
            if e.comm_ops != o.comm_ops {
                return Err(diff("comm_ops", &e.comm_ops, &o.comm_ops));
            }
            if e.nominal_makespan != o.nominal_makespan {
                return Err(diff(
                    "nominal_makespan",
                    &e.nominal_makespan,
                    &o.nominal_makespan,
                ));
            }
            if e.fu_utilization.to_bits() != o.fu_utilization.to_bits() {
                return Err(diff("fu_utilization", &e.fu_utilization, &o.fu_utilization));
            }
            Ok(Ok(e))
        }
        (
            Err(SimError::NoProgress {
                remaining: re,
                cycle,
            }),
            Err(SimError::NoProgress { remaining: ro, .. }),
        ) => {
            // The give-up cycle is an artifact of each strategy's
            // watchdog; only the set of stuck operations is meaningful.
            if re == ro {
                Ok(Err(SimError::NoProgress {
                    cycle,
                    remaining: re,
                }))
            } else {
                Err(Divergence {
                    field: "stuck ops",
                    evaluate: re.to_string(),
                    oracle: ro.to_string(),
                })
            }
        }
        (e, o) => Err(Divergence {
            field: "outcome",
            evaluate: format!("{e:?}"),
            oracle: format!("{o:?}"),
        }),
    }
}

/// A directed occupancy-ledger edge between two tile coordinates.
type Seg = ((u16, u16), (u16, u16));

/// Something a sleeping functional unit may be waiting on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Key {
    /// Producer finishing on its own cluster.
    Fin(InstrId),
    /// Producer's value arriving on a cluster (by index).
    Arr(InstrId, usize),
}

/// Work queued on one functional unit, in nominal issue order.
#[derive(Clone, Copy, Debug)]
enum Slot {
    Instr(InstrId),
    Comm(usize),
}

struct FuQueue {
    items: Vec<Slot>,
    head: usize,
    /// Earliest pending attempt, for event dedup: an event popped at a
    /// different time than this is stale and skipped.
    scheduled: Option<u32>,
}

struct Oracle<'a> {
    dag: &'a Dag,
    machine: &'a Machine,
    schedule: &'a SpaceTimeSchedule,
    fus: Vec<Vec<FuQueue>>,
    heap: BinaryHeap<Reverse<(u32, usize, usize)>>,
    waiters: HashMap<Key, Vec<(usize, usize)>>,
    finish: Vec<Option<u32>>,
    arrival: HashMap<(InstrId, usize), u32>,
    /// Occupied (segment, cycle) slots — the oracle's own ledger.
    busy: HashSet<(Seg, u32)>,
    wire_of: Vec<Vec<usize>>,
    injected: Vec<bool>,
    report: RouterReport,
    max_time: u32,
    remaining: usize,
}

/// Re-executes `schedule` event-by-event and reports true cost.
///
/// Produces the same [`EvalReport`] as [`crate::evaluate`] for any
/// schedule — that equality is the differential invariant the fuzz
/// harness checks.
///
/// # Errors
///
/// Returns [`SimError::NoProgress`] when the event queue drains with
/// operations still blocked, which only happens for schedules that do
/// not pass [`crate::validate`].
pub fn resimulate(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
) -> Result<EvalReport, SimError> {
    let n_clusters = machine.n_clusters();
    let mut fus: Vec<Vec<FuQueue>> = (0..n_clusters)
        .map(|c| {
            let width = machine
                .cluster(convergent_ir::ClusterId::new(c as u16))
                .issue_width();
            (0..width)
                .map(|_| FuQueue {
                    items: Vec::new(),
                    head: 0,
                    scheduled: None,
                })
                .collect()
        })
        .collect();
    // Nominal issue order per unit: by (start, instr-before-comm, id).
    type KeyedSlots = Vec<Vec<Vec<((u32, u8, u32), Slot)>>>;
    let mut keyed: KeyedSlots = fus
        .iter()
        .map(|row| row.iter().map(|_| Vec::new()).collect())
        .collect();
    for op in schedule.ops() {
        keyed[op.cluster.index()][op.fu]
            .push(((op.start.get(), 0, op.instr.raw()), Slot::Instr(op.instr)));
    }
    for (k, comm) in schedule.comms().iter().enumerate() {
        if let Some(fu) = comm.fu {
            keyed[comm.from.index()][fu]
                .push(((comm.start.get(), 1, comm.producer.raw()), Slot::Comm(k)));
        }
    }
    for (c, row) in keyed.into_iter().enumerate() {
        for (f, mut cell) in row.into_iter().enumerate() {
            cell.sort_by_key(|&(key, _)| key);
            fus[c][f].items = cell.into_iter().map(|(_, slot)| slot).collect();
        }
    }

    let mut wire_of: Vec<Vec<usize>> = vec![Vec::new(); dag.len()];
    for (k, comm) in schedule.comms().iter().enumerate() {
        if comm.fu.is_none() {
            wire_of[comm.producer.index()].push(k);
        }
    }

    let remaining = dag.len() + schedule.comms().iter().filter(|c| c.fu.is_some()).count();
    let total_issue_slots = remaining;
    let mut o = Oracle {
        dag,
        machine,
        schedule,
        fus,
        heap: BinaryHeap::new(),
        waiters: HashMap::new(),
        finish: vec![None; dag.len()],
        arrival: HashMap::new(),
        busy: HashSet::new(),
        injected: vec![false; schedule.comms().len()],
        wire_of,
        report: RouterReport::default(),
        max_time: 0,
        remaining,
    };
    for c in 0..n_clusters {
        for f in 0..o.fus[c].len() {
            o.push_attempt(0, c, f);
        }
    }

    let mut last_t = 0;
    while let Some(Reverse((t, c, f))) = o.heap.pop() {
        if o.fus[c][f].scheduled != Some(t) {
            continue; // superseded by an earlier wake-up
        }
        o.fus[c][f].scheduled = None;
        last_t = t;
        o.attempt(t, c, f);
    }
    if o.remaining > 0 {
        return Err(SimError::NoProgress {
            cycle: last_t,
            remaining: o.remaining,
        });
    }

    let makespan = o.max_time.max(1);
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
        network: o.report,
        fu_utilization: total_issue_slots as f64 / (total_fus as f64 * f64::from(makespan)),
        comm_ops: schedule.comm_count(),
    })
}

impl Oracle<'_> {
    /// Schedules an issue attempt for unit `(c, f)` at time `t`,
    /// coalescing with any attempt already pending at `t` or earlier.
    fn push_attempt(&mut self, t: u32, c: usize, f: usize) {
        let fu = &mut self.fus[c][f];
        if fu.head >= fu.items.len() {
            return;
        }
        match fu.scheduled {
            Some(s) if s <= t => {}
            _ => {
                fu.scheduled = Some(t);
                self.heap.push(Reverse((t, c, f)));
            }
        }
    }

    /// Registers unit `(c, f)` to be woken when `key` changes.
    /// Registrations persist — stale wake-ups only cost a spurious
    /// attempt, while a missed wake-up would stall the simulation.
    fn wait_on(&mut self, key: Key, c: usize, f: usize) {
        let list = self.waiters.entry(key).or_default();
        if !list.contains(&(c, f)) {
            list.push((c, f));
        }
    }

    /// Wakes everything waiting on `key`, which now has value `v`.
    ///
    /// The wake time reproduces `evaluate`'s intra-cycle visibility:
    /// the event fired while unit `(cc, fc)` issued at cycle `tc`, so a
    /// value usable at or before `tc` reaches units later in the
    /// `(cluster, fu)` scan the same cycle and everyone else at
    /// `tc + 1`.
    fn wake(&mut self, key: Key, v: u32, tc: u32, cc: usize, fc: usize) {
        let Some(list) = self.waiters.get(&key) else {
            return;
        };
        for (c, f) in list.clone() {
            let w = if v > tc {
                v
            } else if (c, f) > (cc, fc) {
                tc
            } else {
                tc + 1
            };
            self.push_attempt(w, c, f);
        }
    }

    /// Tries to issue the queue head of unit `(c, f)` at cycle `t`;
    /// on failure, arranges to be re-attempted no later than the first
    /// cycle it could succeed.
    fn attempt(&mut self, t: u32, c: usize, f: usize) {
        let fu = &self.fus[c][f];
        let Some(&slot) = fu.items.get(fu.head) else {
            return;
        };
        // Collect every unmet requirement: the latest known satisfy
        // time (retry then), or a subscription if not yet knowable.
        let mut retry: Option<u32> = None;
        let mut need = |avail: Option<u32>, key: Key, waits: &mut Vec<Key>| match avail {
            Some(v) if v <= t => {}
            Some(v) => {
                retry = Some(retry.map_or(v, |r: u32| r.max(v)));
                // Arrivals can still improve below v; finishes cannot.
                if matches!(key, Key::Arr(..)) {
                    waits.push(key);
                }
            }
            None => waits.push(key),
        };
        let mut waits: Vec<Key> = Vec::new();
        match slot {
            Slot::Instr(i) => {
                for &p in self.dag.preds(i) {
                    if self.schedule.op(p).cluster.index() == c {
                        need(self.finish[p.index()], Key::Fin(p), &mut waits);
                    } else {
                        need(
                            self.arrival.get(&(p, c)).copied(),
                            Key::Arr(p, c),
                            &mut waits,
                        );
                    }
                }
            }
            Slot::Comm(k) => {
                let comm = &self.schedule.comms()[k];
                let p = comm.producer;
                if comm.from == self.schedule.op(p).cluster {
                    need(self.finish[p.index()], Key::Fin(p), &mut waits);
                } else {
                    need(
                        self.arrival.get(&(p, comm.from.index())).copied(),
                        Key::Arr(p, comm.from.index()),
                        &mut waits,
                    );
                }
            }
        }
        if retry.is_none() && waits.is_empty() {
            self.issue(slot, t, c, f);
            return;
        }
        for key in waits {
            self.wait_on(key, c, f);
        }
        if let Some(m) = retry {
            self.push_attempt(m.max(t + 1), c, f);
        }
    }

    fn issue(&mut self, slot: Slot, t: u32, c: usize, f: usize) {
        self.fus[c][f].head += 1;
        self.remaining -= 1;
        self.push_attempt(t + 1, c, f);
        match slot {
            Slot::Instr(i) => {
                let fin = t + self.schedule.op(i).latency;
                self.finish[i.index()] = Some(fin);
                self.max_time = self.max_time.max(fin);
                self.wake(Key::Fin(i), fin, t, c, f);
                let home = self.schedule.op(i).cluster.index();
                let mut work = Vec::new();
                self.launch_wires(i, home, fin, &mut work);
                self.drain(i, work, t, c, f);
            }
            Slot::Comm(k) => {
                let comm = &self.schedule.comms()[k];
                self.report.routes += 1;
                self.report.link_cycles += 1;
                let seed = vec![(comm.to.index(), t + comm.latency)];
                self.drain(comm.producer, seed, t, c, f);
            }
        }
    }

    /// Records deliveries of `p`'s value, waking consumers and chasing
    /// relay chains, exactly mirroring `evaluate`'s propagation order.
    fn drain(&mut self, p: InstrId, mut work: Vec<(usize, u32)>, tc: u32, cc: usize, fc: usize) {
        while let Some((cluster, arr)) = work.pop() {
            self.max_time = self.max_time.max(arr);
            let improved = match self.arrival.get(&(p, cluster)) {
                Some(&old) => arr < old,
                None => true,
            };
            if improved {
                self.arrival.insert((p, cluster), arr);
                self.wake(Key::Arr(p, cluster), arr, tc, cc, fc);
                self.launch_wires(p, cluster, arr, &mut work);
            }
        }
    }

    /// Injects every not-yet-injected wire route of `p` departing
    /// `cluster`, where the value becomes available at `avail`.
    fn launch_wires(
        &mut self,
        p: InstrId,
        cluster: usize,
        avail: u32,
        work: &mut Vec<(usize, u32)>,
    ) {
        let ks: Vec<usize> = self.wire_of[p.index()]
            .iter()
            .copied()
            .filter(|&k| !self.injected[k] && self.schedule.comms()[k].from.index() == cluster)
            .collect();
        for k in ks {
            self.injected[k] = true;
            let comm = &self.schedule.comms()[k];
            let path = self.walk(comm.from, comm.to);
            let inj = self.claim(&path, avail);
            self.report.stall_cycles += inj - avail;
            self.report.routes += 1;
            self.report.link_cycles += path.len().saturating_sub(1);
            work.push((comm.to.index(), inj + comm.latency));
        }
    }

    /// The oracle's own dimension-ordered path: injection self-segment,
    /// then X hops, then Y hops (single segment on bus topologies).
    fn walk(&self, from: convergent_ir::ClusterId, to: convergent_ir::ClusterId) -> Vec<Seg> {
        if from == to {
            return Vec::new();
        }
        let topo = self.machine.topology();
        let (fx, fy) = topo.coords(from);
        let (tx, ty) = topo.coords(to);
        match topo {
            Topology::Mesh { .. } => {
                let mut segs = vec![((fx, fy), (fx, fy))];
                let step = |a: u16, b: u16| if b > a { a + 1 } else { a - 1 };
                let (mut x, mut y) = (fx, fy);
                while x != tx {
                    let nx = step(x, tx);
                    segs.push(((x, y), (nx, y)));
                    x = nx;
                }
                while y != ty {
                    let ny = step(y, ty);
                    segs.push(((x, y), (x, ny)));
                    y = ny;
                }
                segs
            }
            Topology::PointToPoint => vec![((fx, fy), (tx, ty))],
        }
    }

    /// Claims the earliest start `>= ready` at which segment `k` of the
    /// path is free at cycle `start + k` — the oracle's own wormhole
    /// contention rule.
    fn claim(&mut self, path: &[Seg], ready: u32) -> u32 {
        if path.is_empty() {
            return ready;
        }
        let mut s = ready;
        loop {
            let free = path
                .iter()
                .enumerate()
                .all(|(k, seg)| !self.busy.contains(&(*seg, s + k as u32)));
            if free {
                break;
            }
            s += 1;
        }
        for (k, seg) in path.iter().enumerate() {
            self.busy.insert((*seg, s + k as u32));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, ScheduleBuilder};
    use convergent_ir::{ClusterId, DagBuilder, Opcode};

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    #[test]
    fn oracle_matches_evaluate_on_contention() {
        // Same scenario as evaluate's contention test: two routes fight
        // over the (1,0)->(2,0) link, one stall.
        let mut b = DagBuilder::new();
        let p0 = b.instr(Opcode::IntAlu);
        let p1 = b.instr(Opcode::IntMul);
        let u0 = b.instr(Opcode::IntAlu);
        let u1 = b.instr(Opcode::IntAlu);
        b.edge(p0, u0).unwrap();
        b.edge(p1, u1).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::raw(16);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(p0, c(0), 0, Cycle::ZERO);
        sb.place(p1, c(1), 0, Cycle::ZERO);
        sb.comm(p0, c(0), c(2), Cycle::new(1), None);
        sb.comm(p1, c(1), c(2), Cycle::new(2), None);
        sb.place(u0, c(2), 0, Cycle::new(5));
        sb.place(u1, c(2), 0, Cycle::new(6));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = resimulate(&dag, &m, &s).unwrap();
        assert_eq!(r.network.stall_cycles, 1);
        assert_eq!(r.makespan, Cycle::new(7));
        let agreed = cross_check(&dag, &m, &s).unwrap().unwrap();
        assert_eq!(agreed, r);
    }

    #[test]
    fn oracle_reports_no_progress_on_deadlock() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.place(d, c(1), 0, Cycle::new(9)); // no transfer
        let s = sb.build(&m).unwrap();
        match resimulate(&dag, &m, &s) {
            Err(SimError::NoProgress { remaining, .. }) => assert_eq!(remaining, 1),
            other => panic!("expected NoProgress, got {other:?}"),
        }
        // Both referees get stuck on the same op, so the cross-check
        // agrees on the failure.
        assert!(cross_check(&dag, &m, &s).unwrap().is_err());
    }

    #[test]
    fn oracle_follows_relay_chains() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let d = b.instr(Opcode::IntAlu);
        b.edge(a, d).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(3);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(a, c(0), 0, Cycle::ZERO);
        sb.comm(a, c(0), c(1), Cycle::new(1), Some(3));
        sb.comm(a, c(1), c(2), Cycle::new(2), Some(3));
        sb.place(d, c(2), 0, Cycle::new(3));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        let r = resimulate(&dag, &m, &s).unwrap();
        assert_eq!(r.makespan, Cycle::new(4));
        assert!(cross_check(&dag, &m, &s).unwrap().is_ok());
    }

    #[test]
    fn divergence_display_names_the_field() {
        let d = Divergence {
            field: "makespan",
            evaluate: "t5".into(),
            oracle: "t6".into(),
        };
        let s = d.to_string();
        assert!(s.contains("makespan") && s.contains("t5") && s.contains("t6"));
    }
}
