//! Stitching per-shard schedules into one global schedule.
//!
//! The sharded driver (`convergent-core`) schedules every shard of a
//! [`Decomposition`] independently, each against cycle 0 of an empty
//! machine. This module merges those per-shard [`SpaceTimeSchedule`]s
//! into one schedule for the original graph:
//!
//! 1. Shards are committed in decomposition order. Each shard is
//!    shifted forward by a per-shard offset `δ` chosen so that (a) no
//!    operation lands on a `(cluster, fu, cycle)` issue slot an earlier
//!    shard already claimed, and (b) every cross-shard dependence is
//!    satisfied.
//! 2. A *boundary COMM fix-up* inserts the transfers that carry values
//!    across shard boundaries — the shard schedulers never saw those
//!    edges. Availability is tracked per `(value, cluster)` in every
//!    direction the value has already travelled: the producer's placed
//!    cluster, every cluster a shard-internal COMM forwarded it to, and
//!    the destinations of boundary transfers inserted earlier (so later
//!    consumers can relay from those instead of going back to the
//!    producer). Each new transfer departs whichever known location
//!    arrives earliest at the consumer, is deduplicated per
//!    `(producer, destination cluster)`, and on copy-based machines
//!    occupies the earliest free copy-capable slot; if no slot meets
//!    the consumer's deadline, `δ` is raised until one does. A
//!    location with no copy-capable unit is skipped in favour of the
//!    next-best one, so stitching only fails when *no* cluster holding
//!    the value can send it.
//!
//! Shifting a shard uniformly preserves its internal dependences and
//! resource shape, and rebuilding against the *global* graph can only
//! shrink effective latencies (a shard-local root with cross-shard
//! predecessors loses its live-in charge), so the merged schedule
//! passes [`crate::validate`] whenever the shard schedules did.

use convergent_ir::{ClusterId, Cycle, Dag, Decomposition, Edge, IdMap, IdSet, InstrId, OpClass};
use convergent_machine::Machine;

use crate::{effective_latency_in, ScheduleBuilder, SimError, SlotLedger, SpaceTimeSchedule};

/// Result of stitching: the merged schedule plus how the shards were
/// placed in time.
#[derive(Clone, Debug)]
pub struct StitchReport {
    /// The merged, globally-valid schedule.
    pub schedule: SpaceTimeSchedule,
    /// Cycle offset applied to each shard, in shard order.
    pub offsets: Vec<u32>,
    /// Number of cross-shard transfers inserted by the boundary fix-up.
    pub boundary_comms: usize,
}

/// Merges per-shard schedules into one schedule for `dag`.
///
/// `parts[k]` must be a schedule for `decomposition.shards()[k].dag()`
/// on the same `machine`.
///
/// # Errors
///
/// Returns [`SimError::NoTransferUnit`] if a boundary transfer must
/// depart a cluster with no copy-capable unit on a copy-based machine,
/// and propagates [`ScheduleBuilder::build`] errors.
///
/// # Panics
///
/// Panics if `parts` does not have exactly one schedule per shard.
pub fn stitch(
    dag: &Dag,
    machine: &Machine,
    decomposition: &Decomposition,
    parts: &[SpaceTimeSchedule],
) -> Result<StitchReport, SimError> {
    let shards = decomposition.shards();
    assert_eq!(parts.len(), shards.len(), "one schedule per shard required");

    /// Records that `g` is available on cluster `c` at cycle `t`,
    /// min-merging with any earlier arrival.
    fn note_avail(
        avail: &mut IdMap<(InstrId, u16), u32>,
        locs: &mut IdMap<InstrId, Vec<u16>>,
        g: InstrId,
        c: u16,
        t: u32,
    ) {
        use std::collections::hash_map::Entry;
        match avail.entry((g, c)) {
            Entry::Occupied(mut e) => {
                if t < *e.get() {
                    e.insert(t);
                }
            }
            Entry::Vacant(e) => {
                e.insert(t);
                locs.entry(g).or_default().push(c);
            }
        }
    }

    // Incoming cross edges per destination shard.
    let mut incoming: Vec<Vec<Edge>> = vec![Vec::new(); shards.len()];
    for &e in decomposition.cross_edges() {
        incoming[decomposition.shard_of(e.dst)].push(e);
    }
    // Producers whose value crosses a shard boundary. This set and
    // the `avail`/`locs` tables below (and their per-round trials) are
    // keyed by ids and only probed, never iterated, so their hasher
    // cannot change the stitched schedule.
    let cross_sources: IdSet<InstrId> = decomposition.cross_edges().iter().map(|e| e.src).collect();
    let register_mapped = machine.comm().register_mapped;

    // Committed issue slots, and value availability of cross-shard
    // producers per cluster. `locs` lists every cluster a value is
    // known to reach (sorted, for deterministic scans); the cycle it
    // arrives there lives in `avail`.
    let mut committed = SlotLedger::new(machine);
    // Per-round overlays, reused across shards (see the search below).
    let mut round = SlotLedger::new(machine);
    let mut claim = SlotLedger::new(machine);
    let mut avail: IdMap<(InstrId, u16), u32> = IdMap::default();
    let mut locs: IdMap<InstrId, Vec<u16>> = IdMap::default();

    let mut builder = ScheduleBuilder::new(dag);
    let mut offsets = Vec::with_capacity(shards.len());
    let mut boundary_comms = 0usize;

    for (k, shard) in shards.iter().enumerate() {
        let part = &parts[k];
        // Plan the tightest deadlines first so the dedup by
        // (producer, destination cluster) serves them.
        incoming[k].sort_by_key(|e| {
            let local = decomposition.local_id(e.dst);
            (part.op(local).start, e.dst, e.src)
        });

        // The shard's own issue cells `(cluster, unit, cycle)`, before
        // the shift. Each must clear the last committed slot of its
        // unit: the resource lower bound.
        let cells = || {
            let (ops, comms) = (part.ops().iter(), part.comms().iter());
            ops.map(|op| (op.cluster, op.fu, op.start.get()))
                .chain(comms.filter_map(|c| Some((c.from, c.fu?, c.start.get()))))
        };
        let mut delta = cells()
            .map(|(c, fu, t)| committed.unit(c, fu).end().saturating_sub(t))
            .max()
            .unwrap_or(0);
        // Dependence lower bound: the earliest any cross-shard value
        // could reach its consumer's cluster from its best known
        // location.
        for e in &incoming[k] {
            let op = part.op(decomposition.local_id(e.dst));
            let need = locs[&e.src]
                .iter()
                .map(|&c| {
                    let loc = ClusterId::new(c);
                    avail[&(e.src, c)] + machine.comm_latency(loc, op.cluster)
                })
                .min()
                .expect("cross-shard producer committed before its consumers");
            delta = delta.max(need.saturating_sub(op.start.get()));
        }

        // Plan boundary transfers, raising `delta` until every deadline
        // is met. Each round plans the whole shard and accumulates the
        // *worst* deadline shortfall, which is a sound lower bound on
        // the required rise (it is measured against committed slots
        // only, never the shard's own cells, which shift with `delta`).
        // When the shard's own dense head is the blocker the shortfall
        // degenerates to 1, so a linear search would replan the whole
        // shard once per cycle of the final gap; instead the search
        // gallops (doubling the step while infeasible) and then binary
        // searches the untested range, committing the smallest `delta`
        // a round proves feasible — logarithmic replans in the gap with
        // the same fixpoint a cycle-by-cycle crawl reaches.
        let mut lo_bound = delta;
        let mut gallop: u32 = 0;
        let mut refine_hi: Option<u32> = None;
        // Two per-round occupancy overlays on top of `committed`:
        // `round` holds the shard's own cells (shifted by the round's
        // `delta`) plus transfers placed this round — what a real
        // placement must avoid, and what the shard commits. `claim`
        // holds placed plus *projected* transfers only: misses measure
        // their shortfall against committed slots and this round's
        // claims, never the shard's own cells (those shift with
        // `delta`, so counting them would overshoot the rise by the
        // length of the shard's packed prefix), and each miss claims a
        // distinct slot so the round's shortfall prices copy-lane
        // bandwidth, not just the first free hole.
        'place: loop {
            round.clear();
            claim.clear();
            for (c, fu, t) in cells() {
                round.reserve(c, fu, t + delta);
            }
            let mut new_comms: Vec<(InstrId, ClusterId, ClusterId, u32, Option<usize>)> =
                Vec::new();
            let mut trial_avail: IdMap<(InstrId, u16), u32> = IdMap::default();
            let mut trial_locs: IdMap<InstrId, Vec<u16>> = IdMap::default();
            let mut shortfall: u32 = 0;
            for e in &incoming[k] {
                let op = part.op(decomposition.local_id(e.dst));
                let c_w = op.cluster;
                let deadline = op.start.get() + delta;
                let known = avail
                    .get(&(e.src, c_w.raw()))
                    .or_else(|| trial_avail.get(&(e.src, c_w.raw())));
                if let Some(&t) = known {
                    shortfall = shortfall.max(t.saturating_sub(deadline));
                    continue;
                }
                // Source the transfer from whichever known location —
                // committed or planned this round — reaches `c_w`
                // first (ties broken by cluster id).
                let mut sources: Vec<(u32, u16, u32)> = locs
                    .get(&e.src)
                    .into_iter()
                    .flatten()
                    .map(|&c| (avail[&(e.src, c)], c))
                    .chain(
                        trial_locs
                            .get(&e.src)
                            .into_iter()
                            .flatten()
                            .map(|&c| (trial_avail[&(e.src, c)], c)),
                    )
                    .map(|(t, c)| (t + machine.comm_latency(ClusterId::new(c), c_w), c, t))
                    .collect();
                sources.sort_unstable();
                let first = *sources
                    .first()
                    .expect("cross-shard producer committed before its consumers");
                // Copy-based transfers must depart a cluster with a
                // copy-capable lane; fall back past locations that
                // have none.
                let (_, c_u_raw, ready) = if register_mapped {
                    first
                } else {
                    *sources
                        .iter()
                        .find(|&&(_, c, _)| {
                            machine.cluster_can_execute(ClusterId::new(c), OpClass::Copy)
                        })
                        .ok_or(SimError::NoTransferUnit {
                            cluster: ClusterId::new(first.1),
                        })?
                };
                let c_u = ClusterId::new(c_u_raw);
                let lat = machine.comm_latency(c_u, c_w);
                if register_mapped {
                    // Register-mapped networks: the transfer occupies
                    // no issue slot; inject as soon as the value is
                    // produced.
                    let arrival = ready + lat;
                    shortfall = shortfall.max(arrival.saturating_sub(deadline));
                    new_comms.push((e.src, c_u, c_w, ready, None));
                    trial_avail.insert((e.src, c_w.raw()), arrival);
                    trial_locs.entry(e.src).or_default().push(c_w.raw());
                } else {
                    // Earliest free copy slot no later than the
                    // deadline; scanning past it is pointless, the
                    // transfer would miss anyway.
                    let found = deadline.checked_sub(lat).and_then(|lim| {
                        committed.earliest_slot(c_u, OpClass::Copy, ready, lim, Some(&round))
                    });
                    if let Some((fu, t)) = found {
                        round.reserve(c_u, fu, t);
                        claim.reserve(c_u, fu, t);
                        new_comms.push((e.src, c_u, c_w, t, Some(fu)));
                        trial_avail.insert((e.src, c_w.raw()), t + lat);
                        trial_locs.entry(e.src).or_default().push(c_w.raw());
                    } else {
                        // No slot meets the deadline this round:
                        // project the transfer onto the earliest slot
                        // free of committed cells and of this round's
                        // other claims, and let the resulting shortfall
                        // drive the search. A miss whose projection
                        // already meets the deadline (pure own-cell
                        // interference) still forces a rise of one, so
                        // every round makes progress.
                        let (fu2, t2) = committed
                            .earliest_slot(c_u, OpClass::Copy, ready, u32::MAX, Some(&claim))
                            .expect("an unbounded slot scan lands past the last committed slot");
                        claim.reserve(c_u, fu2, t2);
                        shortfall = shortfall.max((t2 + lat).saturating_sub(deadline).max(1));
                        trial_avail.insert((e.src, c_w.raw()), t2 + lat);
                        trial_locs.entry(e.src).or_default().push(c_w.raw());
                    }
                }
            }
            if shortfall > 0 {
                lo_bound = lo_bound.max(delta + shortfall);
                delta = match refine_hi {
                    // Mid-point infeasible: halve the untested range,
                    // or fall back to the known-feasible top when the
                    // lower bound catches up to it.
                    Some(hi) if lo_bound >= hi => {
                        refine_hi = None;
                        hi
                    }
                    Some(hi) => lo_bound + (hi - lo_bound) / 2,
                    None => {
                        gallop = gallop.saturating_mul(2).max(1);
                        lo_bound + (gallop - 1)
                    }
                };
                continue 'place;
            }
            if delta > lo_bound {
                // Feasible, but the gallop may have overshot the
                // smallest workable offset: binary-search down to it.
                refine_hi = Some(delta);
                delta = lo_bound + (delta - lo_bound) / 2;
                continue 'place;
            }

            // Commit the shard at this offset.
            committed.absorb(&round);
            for op in part.ops() {
                let g = shard.global_id(op.instr);
                builder.place(g, op.cluster, op.fu, Cycle::new(op.start.get() + delta));
                if cross_sources.contains(&g) {
                    let finish =
                        op.start.get() + delta + effective_latency_in(dag, machine, g, op.cluster);
                    note_avail(&mut avail, &mut locs, g, op.cluster.raw(), finish);
                }
            }
            for comm in part.comms() {
                let g = shard.global_id(comm.producer);
                builder.comm(
                    g,
                    comm.from,
                    comm.to,
                    Cycle::new(comm.start.get() + delta),
                    comm.fu,
                );
                if cross_sources.contains(&g) {
                    let arrival = comm.start.get() + delta + comm.latency;
                    note_avail(&mut avail, &mut locs, g, comm.to.raw(), arrival);
                }
            }
            for (producer, from, to, start, fu) in new_comms {
                builder.comm(producer, from, to, Cycle::new(start), fu);
                boundary_comms += 1;
                let arrival = start + machine.comm_latency(from, to);
                note_avail(&mut avail, &mut locs, producer, to.raw(), arrival);
            }
            offsets.push(delta);
            break;
        }
    }

    let schedule = builder.build(machine)?;
    Ok(StitchReport {
        schedule,
        offsets,
        boundary_comms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate;
    use convergent_ir::{decompose_with, DagBuilder, Opcode, RegionPolicy};

    /// Schedules a shard the dumbest legal way: everything on cluster 0
    /// back to back (single-cluster, no comms).
    fn serial_schedule(dag: &Dag, machine: &Machine) -> SpaceTimeSchedule {
        let mut sb = ScheduleBuilder::new(dag);
        let mut t = 0u32;
        for &i in dag.topo_order() {
            let c = ClusterId::new(0);
            let class = dag.instr(i).class();
            let fu = machine
                .cluster(c)
                .fus()
                .iter()
                .position(|f| f.can_execute(class))
                .expect("cluster 0 executes everything in these tests");
            sb.place(i, c, fu, Cycle::new(t));
            t += effective_latency_in(dag, machine, i, c).max(1);
        }
        sb.build(machine).unwrap()
    }

    fn two_chains() -> Dag {
        let mut b = DagBuilder::new();
        for _ in 0..2 {
            let a = b.instr(Opcode::IntAlu);
            let c = b.instr(Opcode::IntAlu);
            b.edge(a, c).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn disjoint_shards_stitch_and_validate() {
        let dag = two_chains();
        let m = Machine::chorus_vliw(2);
        let dec = decompose_with(&dag, &RegionPolicy::new(2));
        assert_eq!(dec.shards().len(), 2);
        let parts: Vec<SpaceTimeSchedule> = dec
            .shards()
            .iter()
            .map(|s| serial_schedule(s.dag(), &m))
            .collect();
        let report = stitch(&dag, &m, &dec, &parts).unwrap();
        validate(&dag, &m, &report.schedule).unwrap();
        assert_eq!(report.offsets.len(), 2);
        assert_eq!(report.offsets[0], 0);
        // Both shards used the same lane, so the second is pushed past
        // the first.
        assert!(report.offsets[1] > 0);
        assert_eq!(report.boundary_comms, 0);
    }

    #[test]
    fn cross_shard_edges_get_boundary_comms_on_vliw() {
        // A 9-chain plus dust under a 4-instruction region target: the
        // level chop cuts the chain into {0..3}, {4..7}, {8}, so the
        // decomposition produces cross edges.
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 1..9 {
            let next = b.instr(Opcode::IntAlu);
            b.edge(prev, next).unwrap();
            prev = next;
        }
        let d1 = b.instr(Opcode::Load);
        let d2 = b.instr(Opcode::Store);
        b.edge(d1, d2).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let dec = decompose_with(&dag, &RegionPolicy::new(8).with_region_size(4));
        assert!(!dec.cross_edges().is_empty());
        let parts: Vec<SpaceTimeSchedule> = dec
            .shards()
            .iter()
            .map(|s| serial_schedule(s.dag(), &m))
            .collect();
        let report = stitch(&dag, &m, &dec, &parts).unwrap();
        validate(&dag, &m, &report.schedule).unwrap();
        // All shard pieces run on cluster 0, so cross-shard values
        // never change cluster: the fix-up only needs time offsets.
        assert_eq!(report.boundary_comms, 0);
    }

    #[test]
    fn boundary_comm_inserted_when_consumer_moves_cluster() {
        // A 7-chain level-chopped into {0..3} and {4..6}; schedule the
        // second piece on cluster 1 to force a transfer.
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 1..7 {
            let next = b.instr(Opcode::IntAlu);
            b.edge(prev, next).unwrap();
            prev = next;
        }
        let d1 = b.instr(Opcode::Load);
        let d2 = b.instr(Opcode::Store);
        b.edge(d1, d2).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let dec = decompose_with(&dag, &RegionPolicy::new(8).with_region_size(4));
        assert!(dec.shards().len() >= 3);
        assert!(!dec.cross_edges().is_empty());
        let last_chain_shard = decomposition_last_chain(&dec);
        let parts: Vec<SpaceTimeSchedule> = dec
            .shards()
            .iter()
            .enumerate()
            .map(|(k, s)| {
                if k == last_chain_shard {
                    // Everything on cluster 1.
                    let mut sb = ScheduleBuilder::new(s.dag());
                    let mut t = 0u32;
                    for &i in s.dag().topo_order() {
                        let c = ClusterId::new(1);
                        sb.place(i, c, 0, Cycle::new(t));
                        t += effective_latency_in(s.dag(), &m, i, c).max(1);
                    }
                    sb.build(&m).unwrap()
                } else {
                    serial_schedule(s.dag(), &m)
                }
            })
            .collect();
        let report = stitch(&dag, &m, &dec, &parts).unwrap();
        validate(&dag, &m, &report.schedule).unwrap();
        assert!(report.boundary_comms >= 1);
        // The inserted transfer occupies a copy-capable slot.
        let inserted = report
            .schedule
            .comms()
            .iter()
            .find(|c| c.to == ClusterId::new(1))
            .expect("a transfer into cluster 1 exists");
        let fu = inserted.fu.expect("vliw transfers occupy a slot");
        assert!(m.cluster(inserted.from).fus()[fu].can_execute(OpClass::Copy));
    }

    /// Index of the shard holding the chain's final instruction (the
    /// last piece of the level chop).
    fn decomposition_last_chain(dec: &Decomposition) -> usize {
        let mut best = (0, InstrId::new(0));
        for (k, s) in dec.shards().iter().enumerate() {
            for &g in s.to_global() {
                // The chain occupies ids 0..7; the dust 7..9.
                if g.index() < 7 && g >= best.1 {
                    best = (k, g);
                }
            }
        }
        best.0
    }

    #[test]
    fn boundary_transfer_relays_from_nearest_known_location() {
        // A line mesh where multi-hop latency is superadditive (1 to a
        // neighbour, +4 per extra hop): going 0 → 2 directly costs 5,
        // but hopping through a value already copied to tile 1 costs
        // 1 + 1. The fix-up must depart tile 1, not the producer's
        // tile 0.
        use convergent_machine::{Cluster, CommModel, LatencyTable, MemoryModel, Topology};
        let m = Machine::new(
            "relay-line-3",
            (0..3).map(|_| Cluster::raw_tile()).collect(),
            Topology::Mesh {
                width: 3,
                height: 1,
            },
            CommModel {
                base_latency: 1,
                per_hop: 4,
                register_mapped: true,
            },
            LatencyTable::r4000(),
            MemoryModel::raw(),
        );
        // A 9-chain plus dust under a 4-instruction region target, so
        // the level chop cuts the chain.
        let mut b = DagBuilder::new();
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 1..9 {
            let next = b.instr(Opcode::IntAlu);
            b.edge(prev, next).unwrap();
            prev = next;
        }
        let d1 = b.instr(Opcode::Load);
        let d2 = b.instr(Opcode::Store);
        b.edge(d1, d2).unwrap();
        let dag = b.build().unwrap();
        let dec = decompose_with(&dag, &RegionPolicy::new(8).with_region_size(4));
        // The chain is chopped into pieces {0..3}, {4..7}, {8}. Route
        // the last cross edge 7 → 8.
        let cross = *dec
            .cross_edges()
            .iter()
            .max_by_key(|e| e.dst)
            .expect("the chain cut produces cross edges");
        let k_src = dec.shard_of(cross.src);
        let k_dst = dec.shard_of(cross.dst);
        let parts: Vec<SpaceTimeSchedule> = dec
            .shards()
            .iter()
            .enumerate()
            .map(|(k, s)| {
                let cluster = if k == k_dst {
                    ClusterId::new(2)
                } else {
                    ClusterId::new(0)
                };
                let mut sb = ScheduleBuilder::new(s.dag());
                let mut t = 0u32;
                for &i in s.dag().topo_order() {
                    sb.place(i, cluster, 0, Cycle::new(t));
                    let finish = t + effective_latency_in(s.dag(), &m, i, cluster);
                    if k == k_src && s.global_id(i) == cross.src {
                        // Shard-internal copy: the boundary value also
                        // reaches tile 1 right after it is produced.
                        sb.comm(i, cluster, ClusterId::new(1), Cycle::new(finish), None);
                    }
                    t += (finish - t).max(1);
                }
                sb.build(&m).unwrap()
            })
            .collect();
        let report = stitch(&dag, &m, &dec, &parts).unwrap();
        validate(&dag, &m, &report.schedule).unwrap();
        assert_eq!(report.boundary_comms, 1);
        let inserted = report
            .schedule
            .comms()
            .iter()
            .find(|c| c.to == ClusterId::new(2))
            .expect("a transfer into tile 2 exists");
        assert_eq!(
            inserted.from,
            ClusterId::new(1),
            "relay beats the direct hop"
        );
    }

    #[test]
    fn register_mapped_machines_use_free_transfers() {
        let mut b = DagBuilder::new();
        // Two preplaced chains on different tiles plus a cross link
        // after the cut... simpler: two components, then check raw
        // stitching validates.
        for tile in 0..2u16 {
            let a = b.preplaced_instr(Opcode::Load, ClusterId::new(tile));
            let c = b.preplaced_instr(Opcode::Store, ClusterId::new(tile));
            b.edge(a, c).unwrap();
        }
        let dag = b.build().unwrap();
        let m = Machine::raw(2);
        let dec = decompose_with(&dag, &RegionPolicy::new(2));
        let parts: Vec<SpaceTimeSchedule> = dec
            .shards()
            .iter()
            .map(|s| {
                let mut sb = ScheduleBuilder::new(s.dag());
                let mut t = 0u32;
                for &i in s.dag().topo_order() {
                    let c = s.dag().instr(i).preplacement().unwrap();
                    sb.place(i, c, 0, Cycle::new(t));
                    t += effective_latency_in(s.dag(), &m, i, c).max(1);
                }
                sb.build(&m).unwrap()
            })
            .collect();
        let report = stitch(&dag, &m, &dec, &parts).unwrap();
        validate(&dag, &m, &report.schedule).unwrap();
    }

    #[test]
    fn trivial_decomposition_preserves_the_part() {
        let mut b = DagBuilder::new();
        let a = b.instr(Opcode::IntAlu);
        let c = b.instr(Opcode::IntAlu);
        b.edge(a, c).unwrap();
        let dag = b.build().unwrap();
        let m = Machine::chorus_vliw(2);
        let dec = decompose_with(&dag, &RegionPolicy::new(4));
        assert!(dec.is_trivial());
        let part = serial_schedule(dec.shards()[0].dag(), &m);
        let report = stitch(&dag, &m, &dec, std::slice::from_ref(&part)).unwrap();
        assert_eq!(report.schedule, part);
        assert_eq!(report.offsets, vec![0]);
    }
}
