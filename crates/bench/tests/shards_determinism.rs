//! The `--shards` contract, end to end, over every builtin workload:
//!
//! * `--shards 1` is always the monolithic driver — byte-identical
//!   schedules, no shard metadata.
//! * Single-component graphs at or under the region-size target are
//!   never cut (every builtin suite unit fits the default target of
//!   2000 instructions), so any shard budget stays byte-identical too.
//! * On multi-component graphs the sharded pipeline must produce a
//!   schedule the shared referee accepts ([`convergent_sim::validate`]
//!   plus the cycle-level oracle cross-check), with shard metadata
//!   that accounts for every instruction, and a makespan within a
//!   pinned factor of the monolithic schedule (shards stack pieces in
//!   time rather than interleaving them; 3x holds with wide margin on
//!   every builtin workload, keeping the stitch honest without pinning
//!   exact cycle counts).
//! * Forcing recursive cuts on *connected* graphs with a tiny
//!   `--region-size` must keep the same referee guarantees, and when
//!   the cut governor rejects a degenerate cut the fall-back schedule
//!   must be byte-identical to the monolithic one.
//! * The governed cut search settles on pinned shard sizes and
//!   cross-edge counts for the benchmark's sharded layered graphs.

use convergent_bench::cases::splitmix64;
use convergent_core::ConvergentScheduler;
use convergent_ir::{plan_regions, weakly_connected_components, RegionPolicy};
use convergent_machine::Machine;
use convergent_sim::{cross_check, validate};
use convergent_workloads::{layered, raw_suite, vliw_suite, LayeredParams};

const MAKESPAN_RATIO_LIMIT: f64 = 3.0;

fn check_suite(machine: &Machine, units: Vec<convergent_ir::SchedulingUnit>) {
    for unit in units {
        let dag = unit.dag();
        let connected = weakly_connected_components(dag).len() == 1;
        let reference = ConvergentScheduler::vliw_default()
            .schedule(dag, machine)
            .unwrap_or_else(|e| panic!("{}: {e}", unit.name()));
        for shards in [1usize, 2, 8] {
            let sharded = ConvergentScheduler::vliw_default()
                .with_shards(shards)
                .schedule(dag, machine)
                .unwrap_or_else(|e| panic!("{} shards={shards}: {e}", unit.name()));
            if shards == 1 || connected {
                assert_eq!(
                    reference.schedule(),
                    sharded.schedule(),
                    "{} diverged at shards={shards}",
                    unit.name()
                );
                assert!(sharded.shard_info().is_none());
                continue;
            }
            // Multi-component: equivalent quality, proven by the
            // shared referee rather than byte equality.
            validate(dag, machine, sharded.schedule())
                .unwrap_or_else(|e| panic!("{} shards={shards}: {e}", unit.name()));
            cross_check(dag, machine, sharded.schedule())
                .unwrap_or_else(|d| panic!("{} shards={shards} cross-check: {d}", unit.name()))
                .unwrap_or_else(|e| panic!("{} shards={shards} oracle sim: {e}", unit.name()));
            let info = sharded
                .shard_info()
                .expect("multi-component graph decomposes");
            assert_eq!(
                info.shard_sizes.iter().sum::<usize>(),
                dag.len(),
                "{} shards={shards}",
                unit.name()
            );
            let ratio = f64::from(sharded.schedule().makespan().get())
                / f64::from(reference.schedule().makespan().get().max(1));
            assert!(
                ratio <= MAKESPAN_RATIO_LIMIT,
                "{} shards={shards}: sharded makespan {} vs monolithic {} (ratio {ratio:.2})",
                unit.name(),
                sharded.schedule().makespan(),
                reference.schedule().makespan()
            );
        }
    }
}

#[test]
fn vliw_suite_honors_the_shards_contract() {
    let machine = Machine::chorus_vliw(4);
    check_suite(&machine, vliw_suite(4));
}

#[test]
fn raw_suite_honors_the_shards_contract() {
    let machine = Machine::raw(4);
    check_suite(&machine, raw_suite(4));
}

#[test]
fn connected_workloads_recursively_shard_and_validate() {
    // Force recursive cuts on every connected suite unit by shrinking
    // the region target to a quarter of the unit. Two legal outcomes
    // per unit: the governor accepts the cut (schedule must pass the
    // shared referee with a bounded makespan and fully-accounted shard
    // metadata) or rejects it (schedule must be byte-identical to the
    // monolithic one). Both paths must occur across the suites, so the
    // test cannot silently degenerate into all-fallback.
    let mut accepted = 0usize;
    let mut rejected = 0usize;
    for (machine, units) in [
        (Machine::raw(4), raw_suite(4)),
        (Machine::chorus_vliw(4), vliw_suite(4)),
    ] {
        for unit in units {
            let dag = unit.dag();
            if weakly_connected_components(dag).len() != 1 || dag.len() < 16 {
                continue;
            }
            let reference = ConvergentScheduler::vliw_default()
                .schedule(dag, &machine)
                .unwrap_or_else(|e| panic!("{}: {e}", unit.name()));
            let region = (dag.len() / 4).max(4);
            let sharded = ConvergentScheduler::vliw_default()
                .with_shards(8)
                .with_region_size(region)
                .schedule(dag, &machine)
                .unwrap_or_else(|e| panic!("{} region={region}: {e}", unit.name()));
            match sharded.shard_info() {
                Some(info) => {
                    accepted += 1;
                    assert!(info.shard_sizes.len() > 1, "{}", unit.name());
                    assert_eq!(
                        info.shard_sizes.iter().sum::<usize>(),
                        dag.len(),
                        "{}",
                        unit.name()
                    );
                    assert!(
                        info.cross_edges > 0,
                        "{}: a connected cut crosses",
                        unit.name()
                    );
                    validate(dag, &machine, sharded.schedule())
                        .unwrap_or_else(|e| panic!("{} region={region}: {e}", unit.name()));
                    cross_check(dag, &machine, sharded.schedule())
                        .unwrap_or_else(|d| panic!("{} cross-check: {d}", unit.name()))
                        .unwrap_or_else(|e| panic!("{} oracle sim: {e}", unit.name()));
                    let ratio = f64::from(sharded.schedule().makespan().get())
                        / f64::from(reference.schedule().makespan().get().max(1));
                    assert!(
                        ratio <= MAKESPAN_RATIO_LIMIT,
                        "{} region={region}: sharded makespan {} vs monolithic {} (ratio {ratio:.2})",
                        unit.name(),
                        sharded.schedule().makespan(),
                        reference.schedule().makespan()
                    );
                }
                None => {
                    rejected += 1;
                    let verdict = sharded
                        .governor()
                        .unwrap_or_else(|| panic!("{}: fallback without a verdict", unit.name()));
                    assert!(!verdict.accepted(), "{}", unit.name());
                    assert_eq!(
                        reference.schedule(),
                        sharded.schedule(),
                        "{}: governor fallback must be byte-identical",
                        unit.name()
                    );
                }
            }
        }
    }
    assert!(accepted > 0, "no suite unit took the recursive-cut path");
    assert!(
        rejected > 0,
        "no suite unit exercised the governor fallback"
    );
}

#[test]
fn disconnected_workloads_shard_and_validate() {
    // The adversarial `disconnected` family is the shard scheduler's
    // home turf: every unit splits, so the stitch path and boundary
    // bookkeeping run on every case.
    for machine in [Machine::raw(4), Machine::chorus_vliw(4)] {
        for (k, n, seed) in [(2, 30, 1), (5, 64, 7), (8, 100, 21)] {
            let unit = convergent_workloads::disconnected(k, n, seed);
            let dag = unit.dag();
            for shards in [2usize, 4, 16] {
                let out = ConvergentScheduler::vliw_default()
                    .with_shards(shards)
                    .schedule(dag, &machine)
                    .unwrap_or_else(|e| panic!("{} shards={shards}: {e}", unit.name()));
                validate(dag, &machine, out.schedule())
                    .unwrap_or_else(|e| panic!("{} shards={shards}: {e}", unit.name()));
                cross_check(dag, &machine, out.schedule())
                    .unwrap_or_else(|d| panic!("{} shards={shards} cross-check: {d}", unit.name()))
                    .unwrap_or_else(|e| panic!("{} shards={shards} oracle sim: {e}", unit.name()));
                let info = out.shard_info().expect("disconnected units decompose");
                assert_eq!(info.shard_sizes.iter().sum::<usize>(), dag.len());
                assert!(info.shard_sizes.len() <= shards.min(k));
            }
        }
    }
}

#[test]
fn benchmark_layered_cuts_are_pinned() {
    // The four `layered-20k-sharded` graphs of benchmark seed 1, built
    // as the benchmark builds them, cut by the search the sharded
    // driver runs under its 8-shard budget. Decomposition only: no
    // scheduling, so this stays cheap in a debug build.
    let expected: [(&[usize], usize); 4] = [
        (
            &[
                24, 1925, 1911, 1790, 1923, 1931, 1938, 1846, 1884, 1859, 1898, 1071,
            ],
            4721,
        ),
        (
            &[
                85, 1972, 1913, 1932, 1899, 1894, 1978, 1933, 1974, 1958, 1956, 506,
            ],
            5293,
        ),
        (
            &[
                9, 1853, 1925, 1800, 1827, 1966, 1814, 1987, 1925, 1881, 1951, 1062,
            ],
            5019,
        ),
        (
            &[
                40, 1993, 1812, 1826, 1963, 1958, 1913, 1849, 1980, 1966, 1873, 827,
            ],
            5314,
        ),
    ];
    let mut state = 1u64;
    for (k, (sizes, cross)) in expected.into_iter().enumerate() {
        let seed = splitmix64(&mut state);
        let graph = layered(
            LayeredParams::new(20_000, seed)
                .with_width(160)
                .with_preplacement(0.5, 4),
        );
        let plan = plan_regions(graph.dag(), &RegionPolicy::new(8));
        assert!(plan.accepted(), "graph {k}: {:?}", plan.assessment);
        assert_eq!(plan.rejects, 0, "graph {k}");
        let got: Vec<usize> = plan
            .decomposition
            .shards()
            .iter()
            .map(convergent_ir::Shard::len)
            .collect();
        assert_eq!(got, sizes, "graph {k} shard sizes");
        assert_eq!(
            plan.decomposition.cross_edges().len(),
            cross,
            "graph {k} cross edges"
        );
    }
}
