//! The empirical contract check: run a pass with the recording
//! `PreferenceMap` enabled and inspect the captured [`WeightOp`] log.
//!
//! This is the reference the static prover (`prove_pass`) is tested
//! against. A clause the abstract interpreter proves for all inputs
//! must never produce a `CS06x` diagnostic here, on the two tiny probe
//! graphs of [`probes`] or on any generated graph; and the opaque
//! misbehaving fixtures, which the prover cannot decide, are caught
//! here by what they actually do. The window clause (`CS060`) needs no
//! log scan: the map itself panics on a nonzero write outside a
//! window.
//!
//! Include it with `#[path = ".../support/contract_probes.rs"] mod
//! contract_probes;` — it is shared by the core contract tests and the
//! bench soundness suite.

#![allow(dead_code)]

use convergent_analysis::{Code, Diagnostic};
use convergent_core::passes::InitTime;
use convergent_core::{Pass, PassContext, PassContract, PassScratch, PreferenceMap, WeightOp};
use convergent_ir::{ClusterId, Dag, DagBuilder, Opcode, TimeAnalysis};
use convergent_machine::Machine;
use convergent_rng::Rng;

/// Seed for the pass under test; fixed so two recorded runs are
/// comparable bit for bit.
const PROBE_SEED: u64 = 0x5EED_CA11;

/// Tolerance for the post-run invariant check — looser than the unit
/// tests' `1e-9` since a whole pass may legitimately accumulate a few
/// ulps of drift across marginals.
const INVARIANT_TOL: f64 = 1e-6;

/// One recorded execution of a pass on a probe.
struct RecordedRun {
    /// The primitive operations the pass performed.
    log: Vec<WeightOp>,
    /// The map after the pass ran and the driver normalized.
    weights: PreferenceMap,
}

/// The probe graphs: `(name, dag)` pairs valid on any machine with at
/// least one cluster. They are deliberately tiny (a latency-diverse
/// chain and a preplaced diamond): not adversarial workloads, but the
/// operations every heuristic performs — windows, preplacement,
/// cross-cluster tension, and slack.
pub fn probes(machine: &Machine) -> Vec<(&'static str, Dag)> {
    // A latency-diverse chain: tight single-slot windows.
    let mut b = DagBuilder::new();
    let ld = b.instr(Opcode::Load);
    let ad = b.instr(Opcode::IntAlu);
    let fm = b.instr(Opcode::FMul);
    let st = b.instr(Opcode::Store);
    b.edge(ld, ad).unwrap();
    b.edge(ad, fm).unwrap();
    b.edge(fm, st).unwrap();
    let chain = b.build().unwrap();

    // A diamond with memory ops preplaced on two different banks plus
    // a slack-rich side chain — exercises preplacement handling and
    // non-trivial windows.
    let other = ClusterId::new((1 % machine.n_clusters()) as u16);
    let mut b = DagBuilder::new();
    let l0 = b.preplaced_instr(Opcode::Load, ClusterId::new(0));
    let l1 = b.preplaced_instr(Opcode::Load, other);
    let fm = b.instr(Opcode::FMul);
    let st = b.preplaced_instr(Opcode::Store, ClusterId::new(0));
    let side = b.instr(Opcode::IntAlu);
    b.edge(l0, fm).unwrap();
    b.edge(l1, fm).unwrap();
    b.edge(fm, st).unwrap();
    b.edge(l0, side).unwrap();
    b.edge(side, st).unwrap();
    let diamond = b.build().unwrap();

    vec![("chain", chain), ("preplaced-diamond", diamond)]
}

/// Runs `pass` once on `(dag, machine)` with recording enabled,
/// mirroring the driver: INITTIME first (for passes that expect
/// established windows), normalization afterwards.
fn run_recorded(
    pass: &dyn Pass,
    contract: &PassContract,
    dag: &Dag,
    machine: &Machine,
) -> RecordedRun {
    let time = TimeAnalysis::compute(dag, |i| machine.latency_of(i));
    let slots = time.critical_path_length().max(1) as usize;
    let mut weights = PreferenceMap::new(dag.len(), machine.n_clusters(), slots);
    let mut scratch = PassScratch::default();
    if !contract.establishes_windows {
        let mut rng = Rng::seed_from_u64(PROBE_SEED);
        let mut ctx = PassContext {
            dag,
            machine,
            time: &time,
            rng: &mut rng,
            weights: &mut weights,
            scratch: &mut scratch,
        };
        InitTime::new().run(&mut ctx);
        weights.normalize_all();
    }
    weights.record();
    let mut rng = Rng::seed_from_u64(PROBE_SEED);
    let mut ctx = PassContext {
        dag,
        machine,
        time: &time,
        rng: &mut rng,
        weights: &mut weights,
        scratch: &mut scratch,
    };
    pass.run(&mut ctx);
    let log = weights.take_recording();
    weights.normalize_all();
    RecordedRun { log, weights }
}

/// Checks every clause `pass` claims on every probe graph.
pub fn check_on_probes(pass: &dyn Pass, machine: &Machine) -> Vec<Diagnostic> {
    probes(machine)
        .iter()
        .flat_map(|(probe, dag)| check_on_probe(pass, machine, probe, dag))
        .collect()
}

/// Checks every clause `pass` claims on one graph, labelled `probe`:
/// one `CS061`–`CS063` diagnostic per violated clause (a `CS060`
/// violation panics inside the run).
pub fn check_on_probe(
    pass: &dyn Pass,
    machine: &Machine,
    probe: &str,
    dag: &Dag,
) -> Vec<Diagnostic> {
    let contract = pass.contract();
    let name = pass.name();
    let mut diags = Vec::new();
    let run = run_recorded(pass, &contract, dag, machine);

    if contract.preplacement_monotone {
        for op in &run.log {
            let (i, c, what) = match *op {
                WeightOp::ForbidCluster { i, c } => (i, c, format!("forbid_cluster({i}, {c})")),
                WeightOp::ScaleCluster { i, c, factor: 0.0 } => {
                    (i, c, format!("scale_cluster({i}, {c}, 0)"))
                }
                _ => continue,
            };
            let instr = dag.instr(i);
            if instr.preplacement() == Some(c) && machine.cluster_can_execute(c, instr.class()) {
                diags.push(
                    Diagnostic::new(
                        Code::PreplacementDemoted,
                        vec![i],
                        format!(
                            "pass {name} zeroed the home cluster {c} of preplaced {i} on probe `{probe}`"
                        ),
                    )
                    .with_witness(what),
                );
                break;
            }
        }
    }

    if contract.normalization_preserving {
        if let Err(msg) = run.weights.check_invariants(INVARIANT_TOL) {
            diags.push(Diagnostic::new(
                Code::BrokenNormalization,
                vec![],
                format!("pass {name} broke preference-map invariants on probe `{probe}`: {msg}"),
            ));
        }
    }

    if contract.deterministic {
        let rerun = run_recorded(pass, &contract, dag, machine);
        if rerun.log != run.log {
            diags.push(Diagnostic::new(
                Code::NondeterministicPass,
                vec![],
                format!(
                    "pass {name} produced a different operation log on an identical re-run (same seed) on probe `{probe}`"
                ),
            ));
        }
    }
    diags
}
