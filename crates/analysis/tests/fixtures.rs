//! One fixture per diagnostic code: each triggers exactly the code it
//! is named after (the graph-and-machine codes and the `CS07x`
//! pipeline-dataflow codes; the `CS06x` pass-contract codes have
//! their fixtures in `convergent-core`).

use convergent_analysis::{
    analyze_pipeline, lint_dag, lint_raw, Code, ContractClaims, Determinism, EffectOp, Interval,
    LintOptions, PassEffect, PassSummary, Severity,
};
use convergent_ir::{parse_raw, ClusterId, Dag, DagBuilder, Opcode};
use convergent_machine::{
    Cluster, CommModel, FuKind, LatencyTable, Machine, MemoryModel, Topology,
};

/// Asserts the report contains `code` and nothing else.
fn assert_only(report: &convergent_analysis::LintReport, code: Code) {
    let codes: Vec<Code> = report.diagnostics().iter().map(|d| d.code).collect();
    assert_eq!(codes, vec![code], "report: {report:?}");
}

fn lint_text(text: &str, machine: &Machine) -> convergent_analysis::LintReport {
    lint_raw(&parse_raw(text).unwrap(), machine, LintOptions::default())
}

#[test]
fn cs001_cycle_with_witness_path() {
    let report = lint_text("i add\ni add\ni add\ne 0 1\ne 1 2\ne 2 0", &Machine::raw(4));
    assert_only(&report, Code::Cycle);
    let d = &report.diagnostics()[0];
    assert_eq!(d.severity, Severity::Error);
    let w = d.witness.as_deref().unwrap();
    // A closed path: starts and ends at the same instruction.
    assert_eq!(w, "i0 -> i1 -> i2 -> i0");
    assert_eq!(d.instrs.len(), 4);
}

#[test]
fn cs002_dangling_edge() {
    let report = lint_text("i add\ne 0 7", &Machine::raw(4));
    assert_only(&report, Code::DanglingEdge);
    // Witness points at the source line of the bad edge.
    assert_eq!(report.diagnostics()[0].witness.as_deref(), Some("line 2"));
}

#[test]
fn cs003_self_edge() {
    let report = lint_text("i add\ne 0 0", &Machine::raw(4));
    assert_only(&report, Code::SelfEdge);
}

#[test]
fn cs004_duplicate_edge() {
    let report = lint_text("i add\ni add\ne 0 1\ne 0 1", &Machine::raw(4));
    assert_only(&report, Code::DuplicateEdge);
}

#[test]
fn cs005_empty_graph() {
    let report = lint_text("unit nothing", &Machine::raw(4));
    assert_only(&report, Code::EmptyGraph);
}

#[test]
fn cs010_infeasible_window_from_latency_overflow() {
    let mut b = DagBuilder::new();
    let a = b.instr(Opcode::IntAlu);
    let c = b.instr(Opcode::IntAlu);
    b.edge(a, c).unwrap();
    let dag = b.build().unwrap();
    let m = Machine::raw(1)
        .with_latencies(LatencyTable::r4000().with(convergent_ir::OpClass::IntAlu, u32::MAX));
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::InfeasibleWindow);
    assert!(report.diagnostics()[0].witness.is_some());
}

#[test]
fn cs011_bad_home_cluster() {
    let report = lint_text("i lw @9\n", &Machine::raw(4));
    assert_only(&report, Code::BadHomeCluster);
    assert_eq!(report.diagnostics()[0].severity, Severity::Error);
}

/// A two-cluster point-to-point machine where cluster 1 has no FPU.
fn lopsided_vliw(memory: MemoryModel) -> Machine {
    Machine::new(
        "lopsided",
        vec![
            Cluster::new(vec![FuKind::IntAluMem, FuKind::Fpu, FuKind::Transfer]),
            Cluster::new(vec![FuKind::IntAluMem, FuKind::Transfer]),
        ],
        Topology::PointToPoint,
        CommModel::vliw_transfer(),
        LatencyTable::r4000(),
        memory,
    )
}

#[test]
fn cs012_incapable_home_hard_is_error() {
    let mut b = DagBuilder::new();
    b.preplaced_instr(Opcode::FMul, ClusterId::new(1));
    let dag = b.build().unwrap();
    let m = lopsided_vliw(MemoryModel::raw());
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::IncapableHome);
    assert_eq!(report.diagnostics()[0].severity, Severity::Error);
}

#[test]
fn cs012_incapable_home_soft_is_warning() {
    let mut b = DagBuilder::new();
    b.preplaced_instr(Opcode::FMul, ClusterId::new(1));
    let dag = b.build().unwrap();
    let m = lopsided_vliw(MemoryModel::chorus());
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::IncapableHome);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs013_tight_preplaced_pair_is_pedantic_note() {
    // Two adjacent memory ops pinned to opposite corners of a 4x4
    // mesh: 6 hops of communication, zero slack on the edge.
    let text = "i lw @0\ni sw @15\ne 0 1";
    let m = Machine::raw(16);
    assert!(lint_text(text, &m).is_empty(), "default lint stays quiet");
    let report = lint_raw(&parse_raw(text).unwrap(), &m, LintOptions::pedantic());
    assert_only(&report, Code::TightPreplacedPair);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
}

#[test]
fn cs020_uncoverable_class() {
    // `send` needs a Universal unit; a chorus VLIW has none.
    let report = lint_text("i fmul\ni send\ne 0 1", &Machine::chorus_vliw(4));
    // Send is also a communication pseudo-op, so CS021 fires too —
    // check CS020 is present with error severity.
    let d = report
        .diagnostics()
        .iter()
        .find(|d| d.code == Code::UncoverableClass)
        .expect("CS020 expected");
    assert_eq!(d.severity, Severity::Error);
}

#[test]
fn cs021_comm_op_in_input() {
    // On a Raw machine every tile is Universal, so a `copy` is
    // coverable — only the pseudo-op warning fires.
    let report = lint_text("i add\ni copy\ne 0 1", &Machine::raw(4));
    assert_only(&report, Code::CommOpInInput);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs030_dead_value_is_pedantic_note() {
    let text = "i lw\ni fmul\ni sw\ne 0 1\ne 0 2";
    let m = Machine::raw(4);
    assert!(lint_text(text, &m).is_empty(), "default lint stays quiet");
    let report = lint_raw(&parse_raw(text).unwrap(), &m, LintOptions::pedantic());
    assert_only(&report, Code::DeadValue);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
}

#[test]
fn cs031_pressure_over_registers_is_pedantic_note() {
    // 40 producers feeding one consumer on a 1-tile machine with 32
    // registers.
    let mut b = DagBuilder::new();
    let sink = b.instr(Opcode::Store);
    for _ in 0..40 {
        let p = b.instr(Opcode::Load);
        b.edge(p, sink).unwrap();
    }
    let dag = b.build().unwrap();
    let m = Machine::raw(1);
    assert!(lint_dag(&dag, &m, LintOptions::default()).is_empty());
    let report = lint_dag(&dag, &m, LintOptions::pedantic());
    assert_only(&report, Code::PressureOverRegisters);
}

#[test]
fn cs040_degenerate_shard_structure_is_pedantic_note() {
    // A 12-instruction chain ending in a store (the giant component)
    // plus a small load/load/store triangle: 2 components, the larger
    // holding 12 of 15 instructions > 3/4.
    let mut b = DagBuilder::new();
    let mut prev = b.instr(Opcode::IntAlu);
    for k in 0..11 {
        let n = if k == 10 {
            b.instr(Opcode::Store)
        } else {
            b.instr(Opcode::IntAlu)
        };
        b.edge(prev, n).unwrap();
        prev = n;
    }
    let s0 = b.instr(Opcode::Load);
    let s1 = b.instr(Opcode::Load);
    let sink = b.instr(Opcode::Store);
    b.edge(s0, sink).unwrap();
    b.edge(s1, sink).unwrap();
    let dag = b.build().unwrap();
    let m = Machine::raw(4);
    assert!(
        lint_dag(&dag, &m, LintOptions::default()).is_empty(),
        "default lint stays quiet"
    );
    let report = lint_dag(&dag, &m, LintOptions::pedantic());
    assert_only(&report, Code::DegenerateShardStructure);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
}

#[test]
fn cs040_silent_on_balanced_components_and_connected_graphs() {
    // Two equal chains: components exist but neither dominates.
    let mut b = DagBuilder::new();
    for _ in 0..2 {
        let mut prev = b.instr(Opcode::IntAlu);
        for _ in 0..4 {
            let n = b.instr(Opcode::IntAlu);
            b.edge(prev, n).unwrap();
            prev = n;
        }
    }
    let dag = b.build().unwrap();
    let report = lint_dag(&dag, &Machine::raw(4), LintOptions::pedantic());
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn cs041_degenerate_region_cut_is_pedantic_note() {
    // A complete bipartite layer (16 loads each feeding 2040 stores):
    // larger than the default region target, and its only level chop
    // is hopelessly unbalanced — the decomposer finds no profitable
    // cut, so a sharded run falls back to a monolithic schedule.
    let mut b = DagBuilder::new();
    let sources: Vec<_> = (0..16).map(|_| b.instr(Opcode::Load)).collect();
    for _ in 0..2040 {
        let sink = b.instr(Opcode::Store);
        for &src in &sources {
            b.edge(src, sink).unwrap();
        }
    }
    let dag = b.build().unwrap();
    let m = Machine::raw(4);
    assert!(
        lint_dag(&dag, &m, LintOptions::default()).is_empty(),
        "default lint stays quiet"
    );
    let report = lint_dag(&dag, &m, LintOptions::pedantic());
    assert_only(&report, Code::DegenerateRegionCut);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
}

/// A load, `n - 2` ALU ops and a store in one dependence chain.
fn load_store_chain(n: usize) -> Dag {
    let mut b = DagBuilder::new();
    let mut prev = b.instr(Opcode::Load);
    for k in 1..n {
        let next = if k == n - 1 {
            b.instr(Opcode::Store)
        } else {
            b.instr(Opcode::IntAlu)
        };
        b.edge(prev, next).unwrap();
        prev = next;
    }
    b.build().unwrap()
}

#[test]
fn cs041_silent_when_the_cut_is_acceptable() {
    // A 4200-instruction chain is over the region target and level-
    // chops cleanly into 2000 + 2000 + 200 (balanced enough, two cross
    // edges): the governor accepts, so the lint stays quiet.
    let dag = load_store_chain(4200);
    let report = lint_dag(&dag, &Machine::raw(4), LintOptions::pedantic());
    assert!(report.is_empty(), "{report:?}");
}

#[test]
fn cs041_notes_a_chain_just_over_the_region_target() {
    // A 2100-instruction chain level-chops into 2000 + 100, and a
    // piece above 7/8 of the region is no progress, so the chain stays
    // whole and a sharded run schedules it monolithically. Chains from
    // 2001 to 2285 instructions all behave this way.
    let dag = load_store_chain(2100);
    let m = Machine::raw(4);
    assert!(
        lint_dag(&dag, &m, LintOptions::default()).is_empty(),
        "default lint stays quiet"
    );
    let report = lint_dag(&dag, &m, LintOptions::pedantic());
    assert_only(&report, Code::DegenerateRegionCut);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
    assert!(
        report.diagnostics()[0]
            .message
            .contains("0 of 2099 edges crossing, largest region 2100"),
        "{report:?}"
    );
}

#[test]
fn cs050_zero_latency() {
    let mut b = DagBuilder::new();
    b.instr(Opcode::FMul);
    let dag = b.build().unwrap();
    let m = Machine::chorus_vliw(2)
        .with_latencies(LatencyTable::r4000().with(convergent_ir::OpClass::FMul, 0));
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::ZeroLatency);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs051_comm_latency_mismatch() {
    let mut b = DagBuilder::new();
    b.instr(Opcode::IntAlu);
    let dag = b.build().unwrap();
    // Charging cycles for register-mapped network ports contradicts
    // the Raw comm model.
    let m =
        Machine::raw(2).with_latencies(LatencyTable::r4000().with(convergent_ir::OpClass::Send, 1));
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::CommLatencyMismatch);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs052_missing_transfer_unit() {
    let mut b = DagBuilder::new();
    b.instr(Opcode::IntAlu);
    let dag = b.build().unwrap();
    // Copy-based comm model, but cluster 1 cannot source a transfer.
    let m = Machine::new(
        "no-transfer",
        vec![
            Cluster::new(vec![FuKind::IntAluMem, FuKind::Transfer]),
            Cluster::new(vec![FuKind::IntAluMem]),
        ],
        Topology::PointToPoint,
        CommModel::vliw_transfer(),
        LatencyTable::r4000(),
        MemoryModel::chorus(),
    );
    let report = lint_dag(&dag, &m, LintOptions::default());
    assert_only(&report, Code::MissingTransferUnit);
    assert_eq!(report.diagnostics()[0].severity, Severity::Error);
    // Register-mapped machines never need transfer units.
    assert!(lint_dag(&dag, &Machine::raw(2), LintOptions::default()).is_empty());
}

// --- CS07x: pipeline dataflow over pass-effect summaries ---------------
//
// These drive `analyze_pipeline` with synthetic summaries shaped like
// the builtin passes (a window-establishing TIME pass, a seeded noise
// pass, a deterministic cluster bias) so each fixture isolates one
// ordering or redundancy hazard.

fn summary(name: &str, eff: PassEffect) -> PassSummary {
    PassSummary::new(name, ContractClaims::default(), eff)
}

fn time_pass() -> PassSummary {
    summary(
        "INITTIME",
        PassEffect::new(vec![EffectOp::EstablishWindows]),
    )
}

fn noise_pass() -> PassSummary {
    summary(
        "NOISE",
        PassEffect::new(vec![EffectOp::Absolute {
            in_window: true,
            value: Interval::new(0.0, 2.0),
            randomized: true,
            preserves_support: true,
        }])
        .with_determinism(Determinism::SeededRng)
        .reads_windows()
        .breaks_symmetry(),
    )
}

fn bias_pass() -> PassSummary {
    summary(
        "FIRST",
        PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::point(1.2),
        }])
        .breaks_symmetry(),
    )
}

#[test]
fn cs070_windows_read_before_established() {
    let report = analyze_pipeline(&[noise_pass(), time_pass(), bias_pass()], 4);
    assert_only(&report, Code::WindowsReadBeforeEstablished);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
    // The fixed ordering is clean.
    assert!(analyze_pipeline(&[time_pass(), noise_pass(), bias_pass()], 4).is_empty());
}

#[test]
fn cs071_dead_pass() {
    // A second INITTIME only re-establishes windows the first already
    // established.
    let report = analyze_pipeline(&[time_pass(), time_pass(), bias_pass()], 4);
    assert_only(&report, Code::DeadPass);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs072_redundant_normalization() {
    let trailing_norm = summary(
        "FIRST-NORM",
        PassEffect::new(vec![
            EffectOp::ScaleClusters {
                factor: Interval::point(1.2),
            },
            EffectOp::Normalize,
        ])
        .breaks_symmetry(),
    );
    let report = analyze_pipeline(&[time_pass(), trailing_norm], 4);
    assert_only(&report, Code::RedundantNormalization);
    assert_eq!(report.diagnostics()[0].severity, Severity::Note);
}

#[test]
fn cs073_noise_after_bias() {
    let report = analyze_pipeline(&[time_pass(), bias_pass(), noise_pass()], 4);
    assert_only(&report, Code::NoiseAfterBias);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
}

#[test]
fn cs074_undecidable_confidence() {
    // Window establishment plus a pure time-axis emphasis: nothing
    // ever distinguishes one cluster from another.
    let emph = summary(
        "EMPHCP",
        PassEffect::new(vec![EffectOp::ScaleTimes {
            factor: Interval::point(1.2),
        }])
        .time_only(),
    );
    let report = analyze_pipeline(&[time_pass(), emph], 4);
    assert_only(&report, Code::UndecidableConfidence);
    assert_eq!(report.diagnostics()[0].severity, Severity::Warning);
    // An opaque pass might break symmetry, so no claim is made.
    let opaque = summary("?", PassEffect::opaque());
    assert!(analyze_pipeline(&[time_pass(), opaque], 4).is_empty());
}

#[test]
fn presets_lint_clean() {
    // The text-format example from the README lints clean on both
    // machine families, including pedantic mode.
    let text = "unit dot4\ni lw @0\ni lw @1\ni fmul\ni sw @0\ne 0 2\ne 1 2\ne 2 3";
    for m in [Machine::raw(4), Machine::chorus_vliw(4)] {
        for opts in [LintOptions::default(), LintOptions::pedantic()] {
            let report = lint_raw(&parse_raw(text).unwrap(), &m, opts);
            assert!(report.is_empty(), "{}: {report:?}", m.name());
        }
    }
}

#[test]
fn diagnostics_catalogue_documents_every_code() {
    // docs/DIAGNOSTICS.md is the user-facing contract for the stable
    // code ids: adding a code without documenting it fails here.
    let doc = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../docs/DIAGNOSTICS.md"
    ))
    .expect("docs/DIAGNOSTICS.md exists at the workspace root");
    for code in Code::ALL {
        assert!(
            doc.contains(&format!("## {code} ")),
            "docs/DIAGNOSTICS.md lacks a section for {code}"
        );
    }
}
