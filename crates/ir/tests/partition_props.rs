//! Property tests for `decompose_with`: whatever the graph family and
//! region policy, the decomposition is a *true partition* — every
//! instruction lands in exactly one shard with consistent local/global
//! id maps, the cross-edge list is exactly the set of edges whose
//! endpoints land in different shards, every cross edge points from an
//! earlier shard to a later one (the quotient order is topological),
//! and every other edge survives inside exactly one shard's local DAG.
//!
//! The generator sweeps four families — chains (connected and deep, so
//! the level chop cuts them), interleaved strided chains (several
//! weakly-connected components), fan-out stars (one hub level and one
//! wide level, which the chop cannot balance), and loose dust — each
//! salted with random extra forward edges, under shard budgets from
//! trivial to generous and region-size targets small enough to force
//! recursive cuts on almost every case.

use convergent_ir::{decompose_with, Dag, DagBuilder, InstrId, Opcode, RegionPolicy};
use proptest::prelude::*;

const CASES: u32 = if cfg!(miri) { 8 } else { 96 };
const MAX_LEN: usize = 60;

/// Builds one graph from fixed-size random material.
fn build(family: u8, n: usize, extra: &[(usize, usize)]) -> Dag {
    let mut b = DagBuilder::with_capacity(n);
    let ids: Vec<InstrId> = (0..n)
        .map(|k| {
            b.instr(match k % 7 {
                0 => Opcode::Load,
                3 => Opcode::Store,
                5 => Opcode::FMul,
                _ => Opcode::IntAlu,
            })
        })
        .collect();
    match family % 4 {
        // Chain backbone: connected, one instruction per level.
        0 => {
            for k in 1..n {
                b.edge(ids[k - 1], ids[k]).expect("fresh ids");
            }
        }
        // Three interleaved strided chains: 3 components for n > 3.
        1 => {
            for k in 3..n {
                b.edge(ids[k - 3], ids[k]).expect("fresh ids");
            }
        }
        // Fan-out star: one hub feeding everything.
        2 => {
            for k in 1..n {
                b.edge(ids[0], ids[k]).expect("fresh ids");
            }
        }
        // Dust: no backbone, only the random extras below.
        _ => {}
    }
    for &(a, z) in extra {
        let (a, z) = (a % n, z % n);
        if a < z {
            let _ = b.edge_dedup(ids[a], ids[z]);
        }
    }
    b.build().expect("edges point forward")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn decompose_is_a_true_partition(
        family in 0..4u8,
        n in 1usize..MAX_LEN,
        extra in proptest::collection::vec((0usize..MAX_LEN, 0usize..MAX_LEN), 0..MAX_LEN),
        max_shards in 1usize..10,
        region_size in 1usize..24,
    ) {
        let dag = build(family, n, &extra);
        let policy = RegionPolicy::new(max_shards).with_region_size(region_size);
        let dec = decompose_with(&dag, &policy);

        // Every instruction lands in exactly one shard, and the
        // local/global id maps agree in both directions.
        let mut seen = vec![0usize; dag.len()];
        for (k, shard) in dec.shards().iter().enumerate() {
            prop_assert_eq!(shard.dag().len(), shard.len());
            prop_assert!(!shard.is_empty(), "shard {} is empty", k);
            for (local, &global) in shard.to_global().iter().enumerate() {
                seen[global.index()] += 1;
                prop_assert_eq!(dec.shard_of(global), k);
                prop_assert_eq!(dec.local_id(global).index(), local);
                prop_assert_eq!(
                    shard.global_id(InstrId::new(u32::try_from(local).unwrap())),
                    global
                );
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1), "coverage counts {:?}", seen);
        if max_shards <= 1 {
            prop_assert!(dec.is_trivial(), "max_shards=1 must not decompose");
        }

        // The cross-edge list is exactly the set of edges between
        // shards, each pointing from an earlier shard to a later one;
        // all remaining edges survive inside their shard's local DAG.
        let mut cross = 0usize;
        for e in dag.edges() {
            let (a, z) = (dec.shard_of(e.src), dec.shard_of(e.dst));
            if a == z {
                continue;
            }
            cross += 1;
            prop_assert!(
                a < z,
                "cross edge {} -> {} goes backward across shards {} -> {}",
                e.src, e.dst, a, z
            );
            prop_assert!(
                dec.cross_edges().contains(&e),
                "edge {} -> {} crosses shards but is missing from cross_edges()",
                e.src, e.dst
            );
        }
        prop_assert_eq!(cross, dec.cross_edges().len());
        let internal: usize = dec.shards().iter().map(|s| s.dag().edge_count()).sum();
        prop_assert_eq!(internal + cross, dag.edge_count());
    }
}
