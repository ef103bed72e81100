//! UAS's working memory is linear in the graph and the machine:
//! per-instruction state, the pending list, one candidate list of
//! clusters per placement attempt, per-unit occupancy bitmaps, and one
//! comm-arrival entry per (producer, destination cluster) pair that
//! actually carries a value. A table indexed by every (instruction,
//! cluster) pair would be N·C whatever the graph needs: 5 GB of `u32`s
//! at 65 000 clusters for a 20 000-instruction region.
//!
//! The test binary counts live heap bytes with the benchmark's own
//! counting allocator, so this file holds exactly one test: a second
//! one running in parallel would pollute the peak.

#[path = "../../../schedbench/src/heap.rs"]
mod heap;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use convergent_machine::Machine;
use convergent_schedulers::{Scheduler, UasScheduler};
use convergent_workloads::{layered, LayeredParams};

#[test]
fn uas_peak_heap_is_linear_in_instructions_edges_and_clusters() {
    // Small enough for a debug build: UAS tries every cluster for
    // every pending instruction each cycle.
    let unit = layered(LayeredParams::new(500, 1).with_width(32));
    let dag = unit.dag();
    let machine = Machine::chorus_vliw(256);

    let base = heap::reset_peak();
    let schedule = UasScheduler::new().schedule(dag, &machine).unwrap();
    let peak = heap::peak_since(base);
    convergent_sim::validate(dag, &machine, &schedule).unwrap();

    assert!(
        schedule.comm_count() > dag.len() / 2,
        "only {} comms: too few to load the arrival table",
        schedule.comm_count()
    );

    // The run peaks at about 78 bytes per instruction, edge and
    // cluster here (N = 500, C = 256, 336 comms). One `u32` per
    // (instruction, cluster) pair would add 4·N·C = 512 KB, about 310
    // bytes per unit, and break the bound.
    let (n, e, c) = (dag.len(), dag.edge_count(), machine.n_clusters());
    let bound = 128 * (n + e + c);
    assert!(
        peak <= bound,
        "UAS peaked at {peak} live bytes; bound 128 × (N + E + C) = {bound}"
    );
}
