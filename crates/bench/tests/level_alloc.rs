//! LEVEL's working memory is linear in the graph: one distance row per
//! cluster plus the any-bin row, and a queue; its searches walk the
//! graph's own adjacency. A distance row per source instruction would
//! be O(N²) on wide graphs.
//!
//! The test binary counts live heap bytes with the benchmark's own
//! counting allocator, so this file holds exactly one test: a second
//! one running in parallel would pollute the peak.

#[path = "../../../schedbench/src/heap.rs"]
mod heap;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use convergent_core::passes::LevelDistribute;
use convergent_core::{Pass, PassContext, PassScratch, PreferenceMap, Sequence};
use convergent_ir::TimeAnalysis;
use convergent_machine::Machine;
use convergent_rng::Rng;
use convergent_workloads::{layered, LayeredParams};

#[test]
fn level_peak_heap_is_linear_in_clusters_times_instructions() {
    let n = 3000;
    let unit = layered(
        LayeredParams::new(n, 1)
            .with_width(n / 125)
            .with_preplacement(0.5, 16),
    );
    let (dag, machine) = (unit.dag(), Machine::raw(16));
    let time = TimeAnalysis::compute(dag, |i| machine.latency_of(i));
    let slots = time.critical_path_length().max(1) as usize;
    let mut weights = PreferenceMap::new(dag.len(), machine.n_clusters(), slots);
    let mut rng = Rng::seed_from_u64(1);
    let mut scratch = PassScratch::default();
    let mut ctx = PassContext {
        dag,
        machine: &machine,
        time: &time,
        rng: &mut rng,
        weights: &mut weights,
        scratch: &mut scratch,
    };
    // The Raw sequence up to LEVEL, so every row's storage exists and
    // the peak below is LEVEL's own.
    let sequence = Sequence::raw();
    for pass in sequence.passes().iter().take_while(|p| p.name() != "LEVEL") {
        pass.run(&mut ctx);
        ctx.weights.normalize_all();
    }

    let base = heap::reset_peak();
    LevelDistribute::new().run(&mut ctx);
    let peak = heap::peak_since(base);

    let words = machine.n_clusters() * dag.len() + dag.len() + 2 * dag.edge_count();
    let bound = 2 * words * std::mem::size_of::<u32>();
    assert!(
        peak <= bound,
        "LEVEL peaked at {peak} live bytes; bound 2 × (C·N + N + 2E) × 4 = {bound}"
    );
}
