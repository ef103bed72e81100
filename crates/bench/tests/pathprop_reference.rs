//! PATHPROP against its reference model.
//!
//! The production pass reads one confidence table per run and
//! refreshes only the row each blend rewrites; the reference in
//! `crates/core/tests/support/reference_pathprop.rs` recomputes every
//! confidence live from the map. From the same pre-state map — the Raw
//! sequence run up to each of its three PATHPROP runs — both must emit
//! the same `WeightOp` log and leave every cell bit for bit equal, on
//! the Raw suite at raw4 and raw16 and on the fuzz families.

#[path = "../../core/tests/support/reference_pathprop.rs"]
mod reference_pathprop;

use convergent_bench::cases::{build_unit, FAMILIES};
use convergent_core::{PassContext, PassScratch, PreferenceMap, Sequence, WeightOp};
use convergent_ir::{ClusterId, Dag, TimeAnalysis};
use convergent_machine::Machine;
use convergent_rng::Rng;
use convergent_workloads::raw_suite;
use proptest::prelude::*;

/// Runs `pass` on a recording copy of `pre`; returns the log and the
/// normalized map.
fn run_on(
    dag: &Dag,
    machine: &Machine,
    time: &TimeAnalysis,
    pre: &PreferenceMap,
    pass: impl FnOnce(&mut PassContext<'_>),
) -> (Vec<WeightOp>, PreferenceMap) {
    let mut weights = pre.clone();
    let mut rng = Rng::seed_from_u64(0);
    let mut scratch = PassScratch::default();
    weights.record();
    pass(&mut PassContext {
        dag,
        machine,
        time,
        rng: &mut rng,
        weights: &mut weights,
        scratch: &mut scratch,
    });
    let log = weights.take_recording();
    weights.normalize_all();
    (log, weights)
}

/// Runs the Raw sequence on `dag`, checking production PATHPROP against
/// the reference before each PATHPROP run; returns how many weight ops
/// the PATHPROP runs recorded.
fn check(label: &str, dag: &Dag, machine: &Machine) -> usize {
    let time = TimeAnalysis::compute(dag, |i| machine.latency_of(i));
    let slots = time.critical_path_length().max(1) as usize;
    let mut weights = PreferenceMap::new(dag.len(), machine.n_clusters(), slots);
    let mut ops = 0;
    for (k, pass) in Sequence::raw().passes().iter().enumerate() {
        if pass.name() != "PATHPROP" {
            weights = run_on(dag, machine, &time, &weights, |ctx| pass.run(ctx)).1;
            continue;
        }
        let what = format!("{label} on {} at pass {k}", machine.name());
        let (log, got) = run_on(dag, machine, &time, &weights, |ctx| pass.run(ctx));
        let (ref_log, want) = run_on(dag, machine, &time, &weights, reference_pathprop::run);
        assert_eq!(log, ref_log, "{what}: op logs differ");
        for i in dag.ids() {
            for c in (0..machine.n_clusters() as u16).map(ClusterId::new) {
                for s in 0..got.n_slots() as u32 {
                    assert_eq!(
                        got.get(i, c, s).to_bits(),
                        want.get(i, c, s).to_bits(),
                        "{what}: cell ({i:?}, {c:?}, {s})"
                    );
                }
            }
        }
        ops += log.len();
        weights = got;
    }
    ops
}

#[test]
fn pathprop_matches_reference_on_the_raw_suite() {
    let mut ops = 0;
    for tiles in [4, 16] {
        let machine = Machine::raw(tiles);
        for unit in raw_suite(tiles) {
            ops += check(unit.name(), unit.dag(), &machine);
        }
    }
    // The walks ran, so the differential compared blends, not no-ops.
    assert!(ops > 0, "no PATHPROP run wrote the map");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn pathprop_matches_reference_on_fuzz_families(
        family in 0usize..FAMILIES.len(),
        size in 2usize..160,
        seed in any::<u64>(),
        tiles in 0usize..3,
    ) {
        let tiles = [2, 4, 16][tiles];
        let unit = build_unit(FAMILIES[family], size, tiles, seed);
        let label = format!("{} size {size} seed {seed}", FAMILIES[family]);
        check(&label, unit.dag(), &Machine::raw(tiles));
    }
}
