//! Static analysis for convergent scheduling inputs.
//!
//! The schedulers in this workspace trust that the dependence graph,
//! the machine model, and each convergent pass are well-formed; before
//! this crate, a cyclic DAG or an infeasible preplacement was only
//! caught — if at all — deep inside `evaluate()` or by the fuzz
//! shrinker. `convergent-analysis` checks the `(DAG, machine)` half of
//! that triple *statically*, without running a scheduler, and reports
//! problems as structured [`Diagnostic`]s under a stable `CSxxx`
//! [`Code`] catalogue (see `docs/DIAGNOSTICS.md` at the workspace
//! root).
//!
//! The third leg of the triple — the pass sequence — is covered by two
//! cooperating layers. The [`absint`] module proves each pass's
//! declared contract *for all inputs* from its effect summary
//! ([`prove_contract`]) and runs a whole-sequence dataflow analysis
//! ([`analyze_pipeline`]) that emits the `CS07x` pipeline codes.
//! `convergent_core::contract` turns the verdicts into the `CS06x`
//! codes defined here: a refuted clause is its `CS060`–`CS063` code,
//! and a clause the summary is too coarse to decide (an
//! [`Verdict::Unproven`] clause) is `CS064`. The `csched lint` and
//! `csched analyze` subcommands compose all the layers.
//!
//! Entry points:
//!
//! * [`lint_raw`] — lint a parsed-but-unvalidated [`RawUnit`]
//!   (cycles with a witness path, dangling/self/duplicate edges, …).
//! * [`lint_dag`] — lint a validated [`Dag`] against a [`Machine`]
//!   (feasible windows, preplacement, op-class coverage, latency
//!   table, dead code, register pressure).
//! * [`lint_unit`] — convenience wrapper over [`lint_dag`] for a
//!   [`SchedulingUnit`].
//!
//! [`RawUnit`]: convergent_ir::RawUnit
//! [`Dag`]: convergent_ir::Dag
//! [`Machine`]: convergent_machine::Machine
//! [`SchedulingUnit`]: convergent_ir::SchedulingUnit

#![warn(missing_docs)]

pub mod absint;
mod codes;
mod diag;
mod facts;
mod lint;

pub use absint::{
    analyze_pipeline, prove_contract, AbsRow, ContractClaims, ContractProof, Determinism, EffectOp,
    Interval, NormStatus, PassEffect, PassSummary, Verdict, WindowFact,
};
pub use codes::Code;
pub use diag::{escape_json, Diagnostic, LintReport, Severity};
pub use facts::GraphFacts;
pub use lint::{lint_dag, lint_raw, lint_unit, LintOptions};
