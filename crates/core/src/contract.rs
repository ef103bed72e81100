//! Pass-contract verification from effect summaries.
//!
//! A [`crate::Pass`] declares a [`crate::PassContract`]; this module checks
//! the declaration statically. The pass's [`crate::Pass::effect`]
//! summary is fed to the abstract interpreter
//! ([`convergent_analysis::prove_contract`]), which tries to decide
//! each clause *for all inputs*, without constructing a scheduler or
//! running the pass:
//!
//! - a clause it proves needs nothing further;
//! - a clause the summary itself violates is rejected with its
//!   `CS060`–`CS063` code (`RefutedStatic`);
//! - a clause the summary is too coarse (or absent: the default
//!   opaque summary) to decide is reported as a `CS064`
//!   `ContractUnproven` warning.
//!
//! Either way a contract problem is flagged at `csched lint` /
//! `csched analyze` time — as a structured `CS06x` diagnostic — rather
//! than surfacing later as a fuzz counterexample or a wrong schedule.
//! Every builtin pass carries an exact effect summary, so the builtin
//! sequences verify with every clause proven; a third-party pass
//! proves its contract by overriding [`crate::Pass::effect`].

use std::collections::HashSet;

use convergent_analysis::{prove_contract, Code, ContractProof, Diagnostic, PassSummary, Verdict};
use convergent_machine::Machine;

use crate::{Pass, Sequence};

/// Bundles a pass's name, claimed contract, and effect summary into
/// the [`PassSummary`] the abstract interpreter consumes.
#[must_use]
pub fn summarize_pass(pass: &dyn Pass) -> PassSummary {
    PassSummary::new(pass.name(), pass.contract(), pass.effect())
}

/// Summarizes every pass of `seq`, in order — the input shape for
/// [`convergent_analysis::analyze_pipeline`] and `csched analyze`.
#[must_use]
pub fn summarize_sequence(seq: &Sequence) -> Vec<PassSummary> {
    seq.passes()
        .iter()
        .map(|p| summarize_pass(p.as_ref()))
        .collect()
}

/// Per-clause verdicts for `pass` plus one diagnostic per statically
/// refuted clause.
#[must_use]
pub fn prove_pass(pass: &dyn Pass) -> (ContractProof, Vec<Diagnostic>) {
    prove_contract(&summarize_pass(pass))
}

/// Static proof totals for a whole sequence: `(proven, unproven)`
/// clause counts, where `unproven` counts every clause that was *not*
/// proven (undecided and statically refuted alike). Feeds the
/// `contracts_proven` / `contracts_unproven` telemetry counters.
#[must_use]
pub fn sequence_proof_counts(seq: &Sequence) -> (u64, u64) {
    let mut proven = 0u64;
    let mut unproven = 0u64;
    for pass in seq.passes() {
        let (proof, _) = prove_pass(pass.as_ref());
        let (p, u, r) = proof.counts();
        proven += p as u64;
        unproven += (u + r) as u64;
    }
    (proven, unproven)
}

/// Verifies `pass` against its declared [`crate::PassContract`] from its
/// effect summary alone: one `CS060`–`CS063` diagnostic per refuted
/// clause and one `CS064` warning per clause the summary cannot
/// decide. The pass is never run.
#[must_use]
pub fn verify_pass(pass: &dyn Pass) -> Vec<Diagnostic> {
    let (proof, mut diags) = prove_pass(pass);
    let name = pass.name();
    for (clause, verdict) in proof.clauses() {
        if verdict == Verdict::Unproven {
            diags.push(Diagnostic::new(
                Code::ContractUnproven,
                vec![],
                format!("pass {name} claims {clause}, which its effect summary cannot prove"),
            ));
        }
    }
    diags
}

/// Verifies every pass of `seq`, deduplicating identical findings
/// from repeated pass instances (the builtin sequences run PATHPROP
/// several times). The proofs hold on every machine, so `_machine`
/// does not change the result.
#[must_use]
pub fn verify_sequence(seq: &Sequence, _machine: &Machine) -> Vec<Diagnostic> {
    let mut seen: HashSet<(Code, String)> = HashSet::new();
    let mut out = Vec::new();
    for pass in seq.passes() {
        for d in verify_pass(pass.as_ref()) {
            if seen.insert((d.code, d.message.clone())) {
                out.push(d);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PassContext;

    #[test]
    fn builtin_sequences_honor_their_contracts() {
        for (seq, machine) in [
            (Sequence::raw(), Machine::raw(4)),
            (Sequence::raw(), Machine::raw(16)),
            (Sequence::vliw(), Machine::chorus_vliw(4)),
            (Sequence::vliw_tuned(), Machine::chorus_vliw(4)),
            (Sequence::vliw(), Machine::single_cluster()),
        ] {
            let diags = verify_sequence(&seq, &machine);
            assert!(
                diags.is_empty(),
                "{} on {}: {diags:?}",
                seq.names().join(","),
                machine.name()
            );
        }
    }

    #[test]
    fn every_builtin_pass_proves_statically() {
        // The acceptance bar for the builtin roster: every clause is
        // proven, none is left undecided or refuted.
        for seq in [Sequence::raw(), Sequence::vliw(), Sequence::vliw_tuned()] {
            for pass in seq.passes() {
                let (proof, diags) = prove_pass(pass.as_ref());
                assert!(proof.all_proven(), "{}: {proof:?} {diags:?}", pass.name());
                assert!(diags.is_empty(), "{}: {diags:?}", pass.name());
            }
            let (proven, unproven) = sequence_proof_counts(&seq);
            assert_eq!(proven, 5 * seq.len() as u64);
            assert_eq!(unproven, 0);
        }
    }

    #[test]
    fn opaque_pass_is_reported_unproven() {
        // A pass with the default opaque effect() is never run: each
        // clause it claims comes back as one CS064 warning.
        struct Honest;
        impl Pass for Honest {
            fn name(&self) -> &'static str {
                "HONEST"
            }
            fn run(&self, _ctx: &mut PassContext<'_>) {
                unreachable!("verification must not run the pass");
            }
        }
        let (proof, _) = prove_pass(&Honest);
        assert!(!proof.all_proven(), "opaque must not auto-prove");
        let diags = verify_pass(&Honest);
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert!(diags.iter().all(|d| d.code == Code::ContractUnproven));
        assert_eq!(diags[0].severity, convergent_analysis::Severity::Warning);
    }

    #[test]
    fn statically_refuted_pass_is_rejected_without_probes() {
        // An effect summary that *declares* an out-of-window absolute
        // write is rejected by the prover alone; run() is never
        // invoked (it would panic).
        struct Broken;
        impl Pass for Broken {
            fn name(&self) -> &'static str {
                "BROKEN-PROBE"
            }
            fn run(&self, _ctx: &mut PassContext<'_>) {
                unreachable!("statically refuted pass must not be run");
            }
            fn effect(&self) -> convergent_analysis::PassEffect {
                use convergent_analysis::{EffectOp, Interval, PassEffect};
                PassEffect::new(vec![EffectOp::Absolute {
                    in_window: false,
                    value: Interval::new(0.0, 1.0),
                    randomized: false,
                    preserves_support: true,
                }])
            }
        }
        let diags = verify_pass(&Broken);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].code, Code::OutOfWindowWrite);
        assert!(diags[0].message.contains("statically"));
    }
}
