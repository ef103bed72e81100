//! Reading a `.cdag` holds memory linear in the graph: the
//! instructions, the edge list and its duplicate check while the text
//! is read, then one shared adjacency array with per-node offsets and
//! the topological order. One heap `Vec` of successors and one of
//! predecessors per instruction would cost two headers and two small
//! blocks per node on top.
//!
//! The test binary counts live heap bytes with the benchmark's own
//! counting allocator, so this file holds exactly one test: a second
//! one running in parallel would pollute the peak.

#[path = "../../../schedbench/src/heap.rs"]
mod heap;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

use convergent_ir::{parse_unit, to_text};
use convergent_workloads::{layered, LayeredParams};

#[test]
fn parse_peak_heap_is_linear_in_instructions_and_edges() {
    let n = 3000;
    let unit = layered(
        LayeredParams::new(n, 1)
            .with_width(n / 125)
            .with_preplacement(0.5, 16),
    );
    let text = to_text(&unit);

    let base = heap::reset_peak();
    let parsed = parse_unit(&text).expect("serializer output parses");
    let peak = heap::peak_since(base);
    assert_eq!(parsed.dag().edge_count(), unit.dag().edge_count());

    // The read peaks at about 4.2 words per instruction and edge here
    // (N = 3000, E = 5635). Per-node successor and predecessor `Vec`s
    // read about 8.0 and break the bound.
    let words = parsed.dag().len() + parsed.dag().edge_count();
    let bound = 6 * words * std::mem::size_of::<u64>();
    assert!(
        peak <= bound,
        "parse_unit peaked at {peak} live bytes; bound 6 × (N + E) × 8 = {bound}"
    );
}
