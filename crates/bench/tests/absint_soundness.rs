//! Soundness of the abstract contract prover over the fuzz stream.
//!
//! The abstract interpreter claims its `Proven` verdicts hold *for all
//! inputs*, and `csched` verifies contracts on that claim alone. This
//! test confronts the claim with the same deterministic graph stream
//! the differential fuzzer sweeps: for 500 seed-0 cases, every pass of
//! the machine-matched builtin sequence is (a) proven in full by the
//! prover and (b) re-checked *empirically* on the actual generated
//! graph by the recording reference in `contract_probes`. A single
//! disagreement — a statically proven clause that produces a `CS06x`
//! diagnostic on a real graph — fails the test.
//!
//! Plain `#[test]`, seed-pinned: no proptest shrinking is needed
//! because the stream itself is replayable (`fuzz --seed 0`).

#[path = "../../core/tests/support/contract_probes.rs"]
mod contract_probes;

use contract_probes::check_on_probe;
use convergent_bench::cases::{case_stream, MACHINES};
use convergent_core::{prove_pass, ConvergentScheduler, Sequence};

const SEED: u64 = 0;
const BUDGET: usize = 500;

#[test]
fn proven_clauses_hold_empirically_over_the_fuzz_stream() {
    let cases = case_stream(SEED, BUDGET, None, None, MACHINES);
    assert_eq!(cases.len(), BUDGET);
    let mut graphs = 0usize;
    let mut disagreements: Vec<String> = Vec::new();
    for case in &cases {
        let (machine, unit) = case.instantiate();
        // The same sequence the fuzzer's convergent scheduler runs
        // (`ConvergentScheduler::for_machine`).
        let (_, seq) = Sequence::for_machine(&machine);
        graphs += 1;
        for pass in seq.passes() {
            let (proof, static_diags) = prove_pass(pass.as_ref());
            assert!(
                proof.all_proven() && static_diags.is_empty(),
                "builtin pass {} must prove statically: {proof:?} {static_diags:?}",
                pass.name()
            );
            let label = format!("case{}-{}", case.id, case.family);
            for d in check_on_probe(pass.as_ref(), &machine, &label, unit.dag()) {
                disagreements.push(format!(
                    "case {} ({} on {}): pass {}: {d}",
                    case.id,
                    case.family,
                    case.machine_spec,
                    pass.name()
                ));
            }
        }
    }
    assert_eq!(graphs, BUDGET);
    assert!(
        disagreements.is_empty(),
        "{} statically proven clause(s) violated empirically:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
    // Sanity: the scheduler type the fuzzer builds really uses these
    // sequences (a rename would silently decouple this test).
    let _ = (
        ConvergentScheduler::raw_default(),
        ConvergentScheduler::vliw_tuned(),
    );
}
