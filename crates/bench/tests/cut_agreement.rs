//! The `CS041` lint and the sharded driver run the same governed cut
//! search, so the lint's "sharded runs will fall back to a monolithic
//! schedule" holds exactly when the driver does fall back.

use convergent_analysis::{lint_dag, Code, LintOptions};
use convergent_core::{ConvergentScheduler, CutVerdict};
use convergent_machine::Machine;
use convergent_workloads::{layered, LayeredParams};

#[test]
fn lint_and_driver_agree_on_a_coarsened_cut() {
    // A wide layered graph: its first cut at the 2000-instruction
    // target is rejected for cross edges, and the doubled target is
    // accepted, so the driver shards it and the lint must stay quiet.
    let machine = Machine::chorus_vliw(4);
    let graph = layered(LayeredParams::new(8000, 7).with_width(1000));
    let out = ConvergentScheduler::vliw_default()
        .with_shards(8)
        .schedule(graph.dag(), &machine)
        .expect("schedules");
    assert!(out.shard_info().is_some(), "the driver shards the graph");
    assert_eq!(
        out.governor().map(|a| a.verdict),
        Some(CutVerdict::Accepted)
    );
    let report = lint_dag(graph.dag(), &machine, LintOptions::pedantic());
    assert!(
        report
            .diagnostics()
            .iter()
            .all(|d| d.code != Code::DegenerateRegionCut),
        "{report:?}"
    );
}
