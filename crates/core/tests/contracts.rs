//! Contract-checker integration tests: every builtin sequence
//! verifies clean, and a deliberately misbehaving pass fixture exists
//! for each `CS060`–`CS063` code. The fixtures have no effect summary,
//! so production verification reports them `CS064` (unproven); the
//! support recorder, which runs them, catches what each one does, and
//! the preference map itself refuses the `CS060` write.

#[path = "support/contract_probes.rs"]
mod contract_probes;

use std::sync::atomic::{AtomicUsize, Ordering};

use contract_probes::check_on_probes;
use convergent_analysis::Code;
use convergent_core::contract::{verify_pass, verify_sequence};
use convergent_core::{Pass, PassContext, Sequence};
use convergent_ir::{ClusterId, InstrId};
use convergent_machine::Machine;

fn codes(diags: &[convergent_analysis::Diagnostic]) -> Vec<Code> {
    diags.iter().map(|d| d.code).collect()
}

/// Production verification of an opaque pass: one `CS064` per claimed
/// clause, and never a `CS060`–`CS063` finding (the pass is not run).
fn assert_unproven(pass: &dyn Pass) {
    let diags = verify_pass(pass);
    assert_eq!(codes(&diags), vec![Code::ContractUnproven; 4], "{diags:?}");
}

#[test]
fn builtin_sequences_verify_clean_everywhere() {
    for machine in [
        Machine::raw(4),
        Machine::raw(16),
        Machine::chorus_vliw(2),
        Machine::chorus_vliw(4),
        Machine::single_cluster(),
    ] {
        for seq in [Sequence::raw(), Sequence::vliw(), Sequence::vliw_tuned()] {
            let diags = verify_sequence(&seq, &machine);
            assert!(
                diags.is_empty(),
                "{:?} on {}: {diags:?}",
                seq.names(),
                machine.name()
            );
        }
    }
}

/// Writes positive weight one slot past an instruction's feasible
/// window — the CS060 violation, which the map refuses with a panic.
struct OutOfWindowPass;

impl Pass for OutOfWindowPass {
    fn name(&self) -> &'static str {
        "BADWINDOW"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let n_slots = ctx.weights.n_slots() as u32;
        for i in ctx.dag.ids() {
            let (_, hi) = ctx.weights.window(i);
            if hi + 1 < n_slots {
                ctx.weights.set(i, ClusterId::new(0), hi + 1, 0.5);
                return;
            }
        }
    }
}

#[test]
fn out_of_window_write_is_unproven_and_panics() {
    assert_unproven(&OutOfWindowPass);
    let run = std::panic::catch_unwind(|| check_on_probes(&OutOfWindowPass, &Machine::raw(4)));
    let msg = run.expect_err("running the pass must panic");
    let msg = msg.downcast_ref::<String>().expect("a formatted message");
    assert!(msg.contains("outside the window"), "{msg}");
}

/// Scales by a process-global counter, so two identically seeded runs
/// diverge — the CS061 violation.
struct NondetPass;

static TICKS: AtomicUsize = AtomicUsize::new(0);

impl Pass for NondetPass {
    fn name(&self) -> &'static str {
        "NONDET"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let tick = TICKS.fetch_add(1, Ordering::Relaxed);
        ctx.weights
            .scale_cluster(InstrId::new(0), ClusterId::new(0), 1.5 + tick as f64);
    }
}

#[test]
fn hidden_state_is_flagged_cs061() {
    let diags = check_on_probes(&NondetPass, &Machine::raw(4));
    assert!(
        codes(&diags).contains(&Code::NondeterministicPass),
        "{diags:?}"
    );
    assert_unproven(&NondetPass);
}

/// Plants two `1e308` weights on one materialized instruction so the
/// stored total overflows to infinity and the post-pass normalization
/// collapses the row to zero — the CS062 violation. (Without the
/// `materialize`, the lazy scale factor keeps the stored row finite
/// and normalization survives the overflow.)
struct OverflowPass;

impl Pass for OverflowPass {
    fn name(&self) -> &'static str {
        "OVERFLOW"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        let i = InstrId::new(0);
        let (lo, _) = ctx.weights.window(i);
        ctx.weights.materialize(i);
        ctx.weights.set(i, ClusterId::new(0), lo, 1e308);
        ctx.weights.set(i, ClusterId::new(1), lo, 1e308);
    }
}

#[test]
fn broken_normalization_is_flagged_cs062() {
    let diags = check_on_probes(&OverflowPass, &Machine::raw(4));
    assert!(
        codes(&diags).contains(&Code::BrokenNormalization),
        "{diags:?}"
    );
    assert_unproven(&OverflowPass);
}

/// Forbids the home cluster of the first preplaced instruction it
/// sees — the CS063 violation.
struct ForbidHomePass;

impl Pass for ForbidHomePass {
    fn name(&self) -> &'static str {
        "FORBIDHOME"
    }

    fn run(&self, ctx: &mut PassContext<'_>) {
        for i in ctx.dag.ids() {
            if let Some(home) = ctx.dag.instr(i).preplacement() {
                ctx.weights.forbid_cluster(i, home);
                return;
            }
        }
    }
}

#[test]
fn demoting_a_preplacement_is_flagged_cs063() {
    let diags = check_on_probes(&ForbidHomePass, &Machine::raw(4));
    assert!(
        codes(&diags).contains(&Code::PreplacementDemoted),
        "{diags:?}"
    );
    assert_unproven(&ForbidHomePass);
}

#[test]
fn verify_sequence_dedups_repeated_offenders() {
    // The same unproven pass three times yields each distinct finding
    // once (one per clause), not three times.
    let seq = Sequence::new()
        .with(ForbidHomePass)
        .with(ForbidHomePass)
        .with(ForbidHomePass);
    let diags = verify_sequence(&seq, &Machine::raw(4));
    assert_eq!(codes(&diags), vec![Code::ContractUnproven; 4], "{diags:?}");
}

#[test]
fn static_proofs_agree_with_probes_for_builtins() {
    // Soundness on the probe graphs themselves: everything the prover
    // waves through must also pass the recorded run.
    for (seq, machine) in [
        (Sequence::raw(), Machine::raw(4)),
        (Sequence::vliw_tuned(), Machine::chorus_vliw(4)),
    ] {
        for pass in seq.passes() {
            let diags = check_on_probes(pass.as_ref(), &machine);
            assert!(diags.is_empty(), "{}: {diags:?}", pass.name());
        }
    }
}
