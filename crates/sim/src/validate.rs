//! Schedule legality checking.
//!
//! [`validate`] is the single referee used by every test and experiment
//! in the workspace: a schedule that passes is executable on the target
//! machine — all dependences are satisfied through time and space, no
//! issue slot is double-booked, and every hard placement constraint is
//! honored.

use convergent_ir::{Cycle, Dag, IdMap, InstrId};
use convergent_machine::Machine;

use crate::schedule::comm_range_violations;
use crate::{SimError, SpaceTimeSchedule, Violation};

/// Checks `schedule` against `dag` and `machine`.
///
/// # Errors
///
/// Returns [`SimError::SizeMismatch`] if the schedule covers a
/// different number of instructions than the graph, and
/// [`SimError::Invalid`] with the full list of [`Violation`]s if any
/// rule is broken. A schedule whose op list is not a bijection with
/// `dag.ids()` (a duplicated, missing, or misindexed instruction) is
/// rejected immediately with [`Violation::DuplicateOrMissingInstr`],
/// since every later check relies on by-id lookup. So is one that
/// names a cluster `machine` lacks or a producer `dag` lacks (a
/// schedule built for another machine or graph), with
/// [`Violation::UnknownCluster`] / [`Violation::UnknownProducer`].
pub fn validate(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
) -> Result<(), SimError> {
    if schedule.ops().len() != dag.len() {
        return Err(SimError::SizeMismatch {
            expected: dag.len(),
            actual: schedule.ops().len(),
        });
    }
    let bijection_breaks = check_bijection(dag, schedule);
    if !bijection_breaks.is_empty() {
        return Err(SimError::Invalid(bijection_breaks));
    }
    let range_breaks = check_ranges(dag, machine, schedule);
    if !range_breaks.is_empty() {
        return Err(SimError::Invalid(range_breaks));
    }
    let mut violations = Vec::new();

    check_placements(dag, machine, schedule, &mut violations);
    check_resources(machine, schedule, &mut violations);
    check_dependences(dag, machine, schedule, &mut violations);

    if violations.is_empty() {
        Ok(())
    } else {
        Err(SimError::Invalid(violations))
    }
}

/// The op list must cover each instruction of the graph exactly once,
/// with instruction `k` stored in slot `k` (the invariant
/// [`SpaceTimeSchedule::op`] lookups depend on). An equal-length
/// schedule that duplicates one instruction and drops another — or
/// permutes the slots — is caught here, not by the size check.
fn check_bijection(dag: &Dag, schedule: &SpaceTimeSchedule) -> Vec<Violation> {
    let mut count = vec![0usize; dag.len()];
    let mut bad = std::collections::BTreeSet::new();
    for (slot, op) in schedule.ops().iter().enumerate() {
        if op.instr.index() >= dag.len() {
            bad.insert(op.instr);
            continue;
        }
        count[op.instr.index()] += 1;
        if op.instr.index() != slot {
            bad.insert(op.instr);
        }
    }
    for (k, &c) in count.iter().enumerate() {
        if c != 1 {
            bad.insert(InstrId::new(k as u32));
        }
    }
    bad.into_iter()
        .map(|instr| Violation::DuplicateOrMissingInstr { instr })
        .collect()
}

/// Every cluster and producer id must be in range before any check
/// indexes by it; [`crate::ScheduleBuilder::build`] enforces the same
/// for its own machine and graph.
fn check_ranges(dag: &Dag, machine: &Machine, schedule: &SpaceTimeSchedule) -> Vec<Violation> {
    let n_clusters = machine.n_clusters();
    let mut bad = Vec::new();
    for op in schedule.ops() {
        if op.cluster.index() >= n_clusters {
            bad.push(Violation::UnknownCluster {
                instr: op.instr,
                cluster: op.cluster,
            });
        }
    }
    for c in schedule.comms() {
        comm_range_violations(dag.len(), n_clusters, c.producer, c.from, c.to, &mut bad);
    }
    bad
}

fn check_placements(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
    violations: &mut Vec<Violation>,
) {
    let hard = machine.memory().preplacement_is_hard();
    for op in schedule.ops() {
        let instr = dag.instr(op.instr);
        if op.fu >= machine.cluster(op.cluster).issue_width() {
            violations.push(Violation::BadFuIndex {
                instr: op.instr,
                fu: op.fu,
            });
            continue;
        }
        if !machine.cluster(op.cluster).fus()[op.fu].can_execute(instr.class()) {
            violations.push(Violation::IncapableCluster {
                instr: op.instr,
                cluster: op.cluster,
            });
        }
        if hard {
            if let Some(home) = instr.preplacement() {
                if home != op.cluster {
                    violations.push(Violation::PreplacementViolated {
                        instr: op.instr,
                        home,
                        actual: op.cluster,
                    });
                }
            }
        }
    }
}

fn check_resources(
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
    violations: &mut Vec<Violation>,
) {
    let mut slots: IdMap<(usize, usize, Cycle), u32> = IdMap::default();
    for op in schedule.ops() {
        if op.fu < machine.cluster(op.cluster).issue_width() {
            *slots
                .entry((op.cluster.index(), op.fu, op.start))
                .or_insert(0) += 1;
        }
    }
    for comm in schedule.comms() {
        if let Some(fu) = comm.fu {
            if fu < machine.cluster(comm.from).issue_width() {
                *slots
                    .entry((comm.from.index(), fu, comm.start))
                    .or_insert(0) += 1;
            } else {
                violations.push(Violation::BadFuIndex {
                    instr: comm.producer,
                    fu,
                });
            }
        }
    }
    let mut conflicts: Vec<_> = slots
        .into_iter()
        .filter(|&(_, count)| count > 1)
        .map(|((cluster, fu, cycle), _)| Violation::ResourceConflict {
            cluster: convergent_ir::ClusterId::new(cluster as u16),
            fu,
            cycle,
        })
        .collect();
    conflicts.sort_by_key(|v| match v {
        Violation::ResourceConflict { cluster, fu, cycle } => (*cycle, cluster.index(), *fu),
        _ => unreachable!(),
    });
    violations.extend(conflicts);
}

/// Dependence and transfer checks, in O(N + E + Σ per-producer comm
/// fixed-point work): each producer's comms are read through the
/// schedule's producer index, never by scanning every comm.
///
/// Violations come out in a fixed order: each producer's comm
/// violations, producers in order of their first comm in
/// [`SpaceTimeSchedule::comms`], then edge violations in
/// `dag.edges()` order.
fn check_dependences(
    dag: &Dag,
    machine: &Machine,
    schedule: &SpaceTimeSchedule,
    violations: &mut Vec<Violation>,
) {
    // One row of per-cluster arrival slots for each producer that has
    // comms, computed once and shared by every outgoing edge. Producers
    // without comms get no row: the common same-cluster case reads the
    // producer's finish directly.
    let n_clusters = machine.n_clusters();
    let mut row_of = vec![NO_ROW; dag.len()];
    let mut arrivals: Vec<Option<Cycle>> = Vec::new();
    for comm in schedule.comms() {
        let p = comm.producer;
        if row_of[p.index()] == NO_ROW {
            let row = arrivals.len();
            row_of[p.index()] = row;
            arrivals.resize(row + n_clusters, None);
            value_arrivals(schedule, p, &mut arrivals[row..], violations);
        }
    }

    for e in dag.edges() {
        let p = schedule.op(e.src);
        let u = schedule.op(e.dst);
        let available = if p.cluster == u.cluster {
            Some(p.finish())
        } else {
            match row_of[e.src.index()] {
                NO_ROW => None,
                row => arrivals[row + u.cluster.index()],
            }
        };
        match available {
            Some(avail) => {
                if u.start < avail {
                    violations.push(Violation::DependenceViolated {
                        producer: e.src,
                        consumer: e.dst,
                        available: avail,
                        start: u.start,
                    });
                }
            }
            None => violations.push(Violation::MissingComm {
                producer: e.src,
                consumer: e.dst,
            }),
        }
    }
}

/// `row_of` marker for a producer with no comms.
const NO_ROW: usize = usize::MAX;

/// Fills `avail` (one slot per cluster, all empty on entry) with the
/// earliest arrival of `producer`'s value on every cluster it reaches,
/// following chains of comm ops (a relay A→B then B→C is legal when
/// each hop departs no earlier than the value's arrival at its source
/// cluster). Transfers that depart before the value is present are
/// reported as [`Violation::CommTooEarly`] and ignored; transfers
/// departing a cluster the value never reaches at all are reported as
/// [`Violation::CommUnsourced`]. Both in the producer's comm order.
fn value_arrivals(
    schedule: &SpaceTimeSchedule,
    producer: InstrId,
    avail: &mut [Option<Cycle>],
    violations: &mut Vec<Violation>,
) {
    let op = schedule.op(producer);
    avail[op.cluster.index()] = Some(op.finish());
    // Least fixed point: a comm contributes its arrival iff it departs
    // at or after the value's (final) availability at its source.
    // Availabilities only decrease as more legal comms are folded in,
    // which can only legalize more comms, so iterate to stability.
    loop {
        let mut changed = false;
        for comm in schedule.comms_for(producer) {
            let Some(src) = avail[comm.from.index()] else {
                continue;
            };
            if comm.start < src {
                continue;
            }
            let arrival = comm.arrival();
            let slot = &mut avail[comm.to.index()];
            if slot.is_none_or(|a| arrival < a) {
                *slot = Some(arrival);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for comm in schedule.comms_for(producer) {
        match avail[comm.from.index()] {
            Some(src) => {
                if comm.start < src {
                    violations.push(Violation::CommTooEarly {
                        producer,
                        start: comm.start,
                        ready: src,
                    });
                }
            }
            None => violations.push(Violation::CommUnsourced {
                producer,
                from: comm.from,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ScheduleBuilder;
    use convergent_ir::{ClusterId, DagBuilder, Opcode};

    fn chain() -> Dag {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let c = b.instr(Opcode::IntAlu);
        b.edge(a, c).unwrap();
        b.build().unwrap()
    }

    fn c(i: u16) -> ClusterId {
        ClusterId::new(i)
    }

    fn i(k: u32) -> InstrId {
        InstrId::new(k)
    }

    #[test]
    fn valid_same_cluster_schedule() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::new(1));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
    }

    #[test]
    fn dependence_violation_detected() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 1, Cycle::ZERO); // too early
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => assert!(matches!(v[0], Violation::DependenceViolated { .. })),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_comm_detected() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(1), 0, Cycle::new(10));
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invalid(ref v) if matches!(v[0], Violation::MissingComm { .. })
        ));
    }

    #[test]
    fn comm_makes_cross_cluster_legal() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        // value ready at 1; copy at 1 on transfer unit (fu 3); arrives 2.
        sb.comm(i(0), c(0), c(1), Cycle::new(1), Some(3));
        sb.place(i(1), c(1), 0, Cycle::new(2));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
    }

    #[test]
    fn comm_too_early_detected() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(1), Cycle::ZERO, Some(3)); // value not ready
        sb.place(i(1), c(1), 0, Cycle::new(5));
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert!(v
                    .iter()
                    .any(|x| matches!(x, Violation::CommTooEarly { .. })));
                assert!(v.iter().any(|x| matches!(x, Violation::MissingComm { .. })));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn resource_conflict_detected() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::ZERO); // same fu, same cycle
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invalid(ref v) if matches!(v[0], Violation::ResourceConflict { .. })
        ));
    }

    #[test]
    fn incapable_fu_detected() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::FMul);
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(1);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO); // fu 0 is int-alu, not fpu
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invalid(ref v) if matches!(v[0], Violation::IncapableCluster { .. })
        ));
    }

    #[test]
    fn hard_preplacement_enforced_on_raw() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(1));
        let dag = b.build().unwrap();
        let m = Machine::raw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invalid(ref v) if matches!(v[0], Violation::PreplacementViolated { .. })
        ));
    }

    #[test]
    fn soft_preplacement_allowed_on_vliw() {
        let mut b = DagBuilder::new();
        b.preplaced_instr(Opcode::Load, c(1));
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 1, Cycle::ZERO); // fu 1 = int-alu/mem
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap(); // legal, just slower
        assert_eq!(s.op(i(0)).latency, 4);
    }

    #[test]
    fn bad_fu_index_detected() {
        let mut b = DagBuilder::new();
        b.instr(Opcode::IntAlu);
        let dag = b.build().unwrap();
        let m = Machine::raw(1); // single-issue: only fu 0
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 5, Cycle::ZERO);
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        assert!(matches!(
            err,
            SimError::Invalid(ref v) if matches!(v[0], Violation::BadFuIndex { .. })
        ));
    }

    #[test]
    fn duplicated_and_dropped_instr_detected() {
        // Equal-length op list that schedules i0 twice and i1 never:
        // passes the size check, must fail the bijection check.
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::new(1));
        let good = sb.build(&m).unwrap();
        let mut ops = good.ops().to_vec();
        ops[1] = ops[0];
        let s = crate::SpaceTimeSchedule::from_parts(ops, vec![], good.makespan());
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert_eq!(
                    v,
                    vec![
                        Violation::DuplicateOrMissingInstr { instr: i(0) },
                        Violation::DuplicateOrMissingInstr { instr: i(1) },
                    ]
                );
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn permuted_op_slots_detected() {
        // Both instructions present but stored in swapped slots, which
        // would silently corrupt every by-id lookup.
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::new(1));
        let good = sb.build(&m).unwrap();
        let mut ops = good.ops().to_vec();
        ops.swap(0, 1);
        let s = crate::SpaceTimeSchedule::from_parts(ops, vec![], good.makespan());
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert_eq!(v.len(), 2);
                assert!(v
                    .iter()
                    .all(|x| matches!(x, Violation::DuplicateOrMissingInstr { .. })));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn out_of_range_instr_id_detected() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::new(1));
        let good = sb.build(&m).unwrap();
        let mut ops = good.ops().to_vec();
        ops[1].instr = i(7); // beyond the graph
        let s = crate::SpaceTimeSchedule::from_parts(ops, vec![], good.makespan());
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert!(v.contains(&Violation::DuplicateOrMissingInstr { instr: i(7) }));
                assert!(v.contains(&Violation::DuplicateOrMissingInstr { instr: i(1) }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relay_chain_is_legal_and_unsourced_comm_rejected() {
        // A legal relay c0 -> c1 -> c2 must validate; rerouting the
        // second hop to depart a cluster the value never visits must
        // produce CommUnsourced.
        let dag = chain();
        let m = Machine::chorus_vliw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(1), Cycle::new(1), Some(3));
        sb.comm(i(0), c(1), c(2), Cycle::new(2), Some(3));
        sb.place(i(1), c(2), 0, Cycle::new(3));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();

        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(1), Cycle::new(1), Some(3));
        sb.comm(i(0), c(3), c(2), Cycle::new(2), Some(3)); // c3 never holds it
        sb.place(i(1), c(2), 0, Cycle::new(3));
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert!(v.contains(&Violation::CommUnsourced {
                    producer: i(0),
                    from: c(3),
                }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn relay_hop_departing_too_early_detected() {
        // The second hop leaves c1 before the first hop has arrived.
        let dag = chain();
        let m = Machine::chorus_vliw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(1), Cycle::new(1), Some(3));
        sb.comm(i(0), c(1), c(2), Cycle::new(1), Some(2)); // arrives c1 at 2
        sb.place(i(1), c(2), 0, Cycle::new(5));
        let s = sb.build(&m).unwrap();
        let err = validate(&dag, &m, &s).unwrap_err();
        match err {
            SimError::Invalid(v) => {
                assert!(v.contains(&Violation::CommTooEarly {
                    producer: i(0),
                    start: Cycle::new(1),
                    ready: Cycle::new(2),
                }));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn raw_register_mapped_comm() {
        let dag = chain();
        let m = Machine::raw(4);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        // finish at 1, route 0 -> 1 injected at 1, arrives 1 + 3 = 4.
        sb.comm(i(0), c(0), c(1), Cycle::new(1), None);
        sb.place(i(1), c(1), 0, Cycle::new(4));
        let s = sb.build(&m).unwrap();
        validate(&dag, &m, &s).unwrap();
        // One cycle earlier must fail.
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(1), Cycle::new(1), None);
        sb.place(i(1), c(1), 0, Cycle::new(3));
        let s = sb.build(&m).unwrap();
        assert!(validate(&dag, &m, &s).is_err());
    }

    #[test]
    fn schedule_for_another_machine_is_rejected_not_panicking() {
        // Built for four clusters, checked against two: the op on c3
        // and both ends of the c2 -> c3 relay are out of range.
        let dag = chain();
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.comm(i(0), c(0), c(2), Cycle::new(1), Some(3));
        sb.comm(i(0), c(2), c(3), Cycle::new(2), Some(3));
        sb.place(i(1), c(3), 0, Cycle::new(3));
        let s = sb.build(&Machine::chorus_vliw(4)).unwrap();
        let unknown = |instr: u32, cluster: u16| Violation::UnknownCluster {
            instr: i(instr),
            cluster: c(cluster),
        };
        assert_eq!(
            validate(&dag, &Machine::chorus_vliw(2), &s),
            Err(SimError::Invalid(vec![
                unknown(1, 3),
                unknown(0, 2),
                unknown(0, 2),
                unknown(0, 3),
            ]))
        );
    }

    #[test]
    fn comm_for_unknown_producer_is_rejected_not_panicking() {
        let dag = chain();
        let m = Machine::chorus_vliw(2);
        let mut sb = ScheduleBuilder::new(&dag);
        sb.place(i(0), c(0), 0, Cycle::ZERO);
        sb.place(i(1), c(0), 0, Cycle::new(1));
        let good = sb.build(&m).unwrap();
        let stray = crate::CommOp {
            producer: i(9),
            from: c(0),
            to: c(1),
            start: Cycle::new(1),
            latency: 1,
            fu: None,
        };
        let s =
            crate::SpaceTimeSchedule::from_parts(good.ops().to_vec(), vec![stray], good.makespan());
        assert_eq!(
            validate(&dag, &m, &s),
            Err(SimError::Invalid(vec![Violation::UnknownProducer {
                producer: i(9)
            }]))
        );
    }
}
