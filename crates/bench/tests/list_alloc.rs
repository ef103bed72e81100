//! The list scheduler's working memory is linear in the graph and the
//! machine: per-instruction state, one ready heap per (cluster,
//! operation class), per-unit occupancy bitmaps, and one comm-arrival
//! entry per (producer, destination cluster) pair that actually
//! carries a value. A table indexed by every (instruction, cluster)
//! pair would be N·C whatever the graph needs: 5 GB of `u32`s at
//! 65 000 clusters for a 20 000-instruction region.
//!
//! The test binary counts live heap bytes with the benchmark's own
//! counting allocator, so this file holds exactly one test: a second
//! one running in parallel would pollute the peak.

#[path = "../../../schedbench/src/heap.rs"]
mod heap;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use convergent_ir::ClusterId;
use convergent_machine::Machine;
use convergent_schedulers::ListScheduler;
use convergent_sim::Assignment;
use convergent_workloads::{layered, LayeredParams};

#[test]
fn list_scheduler_peak_heap_is_linear_in_instructions_edges_and_clusters() {
    let unit = layered(LayeredParams::new(2000, 1).with_width(64));
    let dag = unit.dag();
    let machine = Machine::chorus_vliw(256);
    // Round robin puts nearly every edge across clusters, so the run
    // inserts a comm for almost every (producer, consumer cluster).
    let c = machine.n_clusters();
    let assignment: Assignment = dag
        .ids()
        .map(|i| ClusterId::new((i.index() % c) as u16))
        .collect();
    let priorities: Vec<u32> = dag.ids().map(|i| i.index() as u32).collect();

    let base = heap::reset_peak();
    let schedule = ListScheduler::new()
        .schedule(dag, &machine, &assignment, &priorities)
        .unwrap();
    let peak = heap::peak_since(base);
    convergent_sim::validate(dag, &machine, &schedule).unwrap();
    let comms = schedule.comms().len();
    assert!(
        comms > dag.len(),
        "only {comms} comms: too few to load the table"
    );

    // The run peaks at about 147 bytes per instruction, edge and
    // cluster here (N = 2000, E = 3795, C = 256). One `u32` per
    // (instruction, cluster) pair would add 4·N·C = 2 MB, about 340
    // bytes per unit, and break the bound.
    let (n, e) = (dag.len(), dag.edge_count());
    let bound = 192 * (n + e + c);
    assert!(
        peak <= bound,
        "the list scheduler peaked at {peak} live bytes; bound 192 × (N + E + C) = {bound}"
    );
}
