//! Acceptance gate: the fuzzer's generated graphs are lint-clean.
//!
//! The convergent-analysis linter must produce **zero diagnostics** —
//! not even notes — on every graph of the seed-0 fuzz stream, across
//! all machine presets the stream draws. The fuzz binary enforces the
//! same invariant at sweep time (any diagnostic is reported under the
//! pseudo-scheduler `lint`); this test pins it in `cargo test` where
//! regressions in either the generators or the linter show up without
//! running a sweep.

use convergent_analysis::{lint_unit, LintOptions};
use convergent_bench::cases::case_stream;
use convergent_bench::parallel::default_jobs;
use convergent_core::parallel::run_cells;

#[test]
fn two_thousand_seed0_fuzz_graphs_lint_clean() {
    let cases = case_stream(0, 2000, None, None, convergent_bench::cases::MACHINES);
    let reports = run_cells(&cases, default_jobs(), |case| {
        let (machine, unit) = case.instantiate();
        let report = lint_unit(&unit, &machine, LintOptions::default());
        if report.is_empty() {
            None
        } else {
            let rendered: Vec<String> = report
                .diagnostics()
                .iter()
                .map(ToString::to_string)
                .collect();
            Some(format!(
                "case {} ({} size {} on {}): {}",
                case.id,
                case.family,
                case.size,
                case.machine_spec,
                rendered.join("; ")
            ))
        }
    });
    let dirty: Vec<String> = reports.into_iter().flatten().collect();
    assert!(
        dirty.is_empty(),
        "{} of 2000 generated graphs produced diagnostics:\n{}",
        dirty.len(),
        dirty.join("\n")
    );
}
