//! Cross-scheduler differential fuzzer.
//!
//! Sweeps deterministic pseudo-random and adversarial dependence
//! graphs across machine presets and all five schedulers, holding
//! every produced schedule to the full referee pair:
//!
//! 1. the schedule must pass `validate()`;
//! 2. the cycle-driven evaluator and the event-driven oracle must
//!    execute it and agree on every reported quantity
//!    (`convergent_sim::cross_check`);
//! 3. nothing may panic.
//!
//! A scheduler may *reject* a graph for a legitimate structural reason
//! (no capable cluster, out-of-range home bank, a lint error surfaced
//! by its precondition hook); anything else — an invalid schedule, a
//! simulator disagreement, a panic — is a bug. Every generated graph
//! is also held to the static linter *before* any scheduler sees it:
//! the generators promise lint-clean output (under `--deny warnings`
//! strictness), so any diagnostic is reported as a failure of the
//! pseudo-scheduler `lint`. The first failure per scheduler is
//! greedily shrunk to a minimal graph — re-linting at every shrink
//! step so the repro stays schedulable by `csched verify` — and dumped
//! as a replayable `.cdag`:
//!
//! ```text
//! cargo run --release -p convergent-bench --bin fuzz -- \
//!     [--seed N] [--budget N] [--jobs N] [--dump-dir PATH] \
//!     [--family NAME] [--size N] [--machines a,b,c] [--lint-only] \
//!     [--trace FILE]
//! csched verify <dump-dir>/<repro>.cdag --machine <spec> --scheduler <name>
//! ```
//!
//! The whole sweep is deterministic for a given `--seed`/`--budget`,
//! independent of `--jobs`. `--family`, `--size`, and `--machines` pin
//! or restrict the corresponding case dimension — the targeted mode
//! the check scripts use to drive one large deep-chain unit through
//! every scheduler (exercising the preference map's band re-anchoring
//! end to end) without paying for a full random sweep. `--lint-only`
//! skips the schedulers entirely and just lints the case stream — the
//! cheap smoke the check scripts run over hundreds of graphs.
//!
//! `--trace FILE` additionally replays the first few cases through the
//! convergent driver with telemetry on and writes one Perfetto-loadable
//! Chrome trace (all replays on a shared timeline) — a quick look at
//! what the driver actually did on fuzzer-shaped inputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use convergent_analysis::{lint_unit, LintOptions};
use convergent_bench::cases::{case_stream, machine_from_spec, Case, FAMILIES, MACHINES};
use convergent_bench::parallel::{default_jobs, jobs_from_args};
use convergent_core::parallel::run_cells;
use convergent_core::telemetry::{chrome_trace, TelemetryBuffer};
use convergent_core::{sequence_proof_counts, verify_sequence, ConvergentScheduler, Sequence};
use convergent_ir::{to_text, ClusterId, Dag, DagBuilder, Instruction, Opcode, SchedulingUnit};
use convergent_machine::Machine;
use convergent_schedulers::{
    BugScheduler, PccScheduler, RawccScheduler, ScheduleError, Scheduler, UasScheduler,
};
use convergent_sim::{cross_check, validate};

const SCHEDULERS: &[&str] = &["convergent", "uas", "pcc", "rawcc", "bug"];

/// How many cases `--trace` replays through the instrumented
/// convergent driver (rejected cases still advance the timeline but
/// do not count).
const TRACE_CASES: usize = 3;

/// Pseudo-scheduler name under which lint findings on *generated*
/// graphs are reported. Not a real scheduler: lint failures mean the
/// graph generator broke its lint-clean promise, so there is nothing
/// to shrink against a scheduler and the graph is dumped as-is.
const LINT_STAGE: &str = "lint";

fn make_scheduler(name: &str, machine: &Machine) -> Box<dyn Scheduler> {
    match name {
        "convergent" => {
            if machine.comm().register_mapped {
                Box::new(ConvergentScheduler::raw_default())
            } else {
                Box::new(ConvergentScheduler::vliw_tuned())
            }
        }
        "uas" => Box::new(UasScheduler::new()),
        // Capped rounds keep the sweep fast without changing what the
        // referees check.
        "pcc" => Box::new(PccScheduler::new().with_max_rounds(2)),
        "rawcc" => Box::new(RawccScheduler::new()),
        "bug" => Box::new(BugScheduler::new()),
        other => unreachable!("unknown scheduler {other}"),
    }
}

/// What went wrong for one scheduler (or the lint stage) on one case.
struct Failure {
    case_id: usize,
    family: &'static str,
    machine_spec: &'static str,
    scheduler: &'static str,
    message: String,
}

struct CaseOutcome {
    schedules: usize,
    rejects: usize,
    failures: Vec<Failure>,
}

/// A structural rejection is a legitimate answer; anything else the
/// scheduler reports is a bug in the scheduler itself. `Lint` counts:
/// a precondition hook refusing malformed input is the designed
/// behaviour (and generated graphs never trip it — the lint stage in
/// [`run_case`] would have flagged them first).
fn is_legit_reject(e: &ScheduleError) -> bool {
    matches!(
        e,
        ScheduleError::NoCapableCluster(_)
            | ScheduleError::BadHomeCluster { .. }
            | ScheduleError::PreplacementConflict { .. }
            | ScheduleError::LengthMismatch { .. }
            | ScheduleError::Lint { .. }
    )
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        format!("panic: {s}")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        format!("panic: {s}")
    } else {
        "panic: <non-string payload>".to_string()
    }
}

/// Runs one scheduler through the full referee pair on one graph.
/// Returns `Ok(true)` when a schedule was produced and agreed on,
/// `Ok(false)` for a legitimate rejection, `Err(message)` for a bug.
fn check_one(unit: &SchedulingUnit, machine: &Machine, scheduler: &str) -> Result<bool, String> {
    let result = catch_unwind(AssertUnwindSafe(|| {
        let sched = make_scheduler(scheduler, machine);
        let schedule = match sched.schedule(unit.dag(), machine) {
            Ok(s) => s,
            Err(e) if is_legit_reject(&e) => return Ok(false),
            Err(e) => return Err(format!("scheduler error: {e}")),
        };
        if let Err(e) = validate(unit.dag(), machine, &schedule) {
            return Err(format!("validation: {e}"));
        }
        match cross_check(unit.dag(), machine, &schedule) {
            Ok(Ok(_)) => Ok(true),
            Ok(Err(e)) => Err(format!("simulation: {e}")),
            Err(d) => Err(format!("cross-check: {d}")),
        }
    }));
    match result {
        Ok(r) => r,
        Err(payload) => Err(panic_message(&*payload)),
    }
}

fn run_case(case: &Case, lint_only: bool) -> CaseOutcome {
    let (machine, unit) = case.instantiate();
    let mut out = CaseOutcome {
        schedules: 0,
        rejects: 0,
        failures: Vec::new(),
    };
    // Lint stage first: generated graphs must be spotless, warnings
    // included. A diagnostic here is a generator bug, not a scheduler
    // bug, so the schedulers are skipped for this case.
    let report = lint_unit(&unit, &machine, LintOptions::default());
    if !report.is_clean(true) {
        let rendered: Vec<String> = report
            .diagnostics()
            .iter()
            .map(ToString::to_string)
            .collect();
        out.failures.push(Failure {
            case_id: case.id,
            family: case.family,
            machine_spec: case.machine_spec,
            scheduler: LINT_STAGE,
            message: rendered.join("; "),
        });
        return out;
    }
    if lint_only {
        return out;
    }
    for &scheduler in SCHEDULERS {
        match check_one(&unit, &machine, scheduler) {
            Ok(true) => out.schedules += 1,
            Ok(false) => out.rejects += 1,
            Err(message) => out.failures.push(Failure {
                case_id: case.id,
                family: case.family,
                machine_spec: case.machine_spec,
                scheduler,
                message,
            }),
        }
    }
    out
}

// ---------------------------------------------------------------------
// Shrinking: greedily delete instructions and edges while the failure
// reproduces, then dump the minimal graph as a replayable .cdag.
// ---------------------------------------------------------------------

/// A dependence graph as plain data the shrinker can edit.
#[derive(Clone)]
struct DagSpec {
    instrs: Vec<(Opcode, Option<ClusterId>)>,
    edges: Vec<(usize, usize)>,
}

impl DagSpec {
    fn of(dag: &Dag) -> Self {
        DagSpec {
            instrs: dag
                .instrs()
                .iter()
                .map(|i| (i.opcode(), i.preplacement()))
                .collect(),
            edges: dag
                .edges()
                .map(|e| (e.src.index(), e.dst.index()))
                .collect(),
        }
    }

    fn build(&self) -> Option<Dag> {
        if self.instrs.is_empty() {
            return None;
        }
        let mut b = DagBuilder::with_capacity(self.instrs.len());
        let ids: Vec<_> = self
            .instrs
            .iter()
            .map(|&(op, home)| match home {
                Some(h) => b.push(Instruction::preplaced(op, h)),
                None => b.push(Instruction::new(op)),
            })
            .collect();
        for &(s, d) in &self.edges {
            b.edge(ids[s], ids[d]).ok()?;
        }
        b.build().ok()
    }

    /// The spec with instruction `k` (and its incident edges) removed,
    /// remaining instructions renumbered.
    fn without_instr(&self, k: usize) -> DagSpec {
        let mut instrs = self.instrs.clone();
        instrs.remove(k);
        let shift = |x: usize| if x > k { x - 1 } else { x };
        let edges = self
            .edges
            .iter()
            .filter(|&&(s, d)| s != k && d != k)
            .map(|&(s, d)| (shift(s), shift(d)))
            .collect();
        DagSpec { instrs, edges }
    }

    fn without_edge(&self, k: usize) -> DagSpec {
        let mut edges = self.edges.clone();
        edges.remove(k);
        DagSpec {
            instrs: self.instrs.clone(),
            edges,
        }
    }
}

/// Does this graph still make `scheduler` fail the referee pair?
///
/// Every candidate is re-linted before it may be accepted: a shrunk
/// repro must stay lint-error-free, or `csched verify` on the dumped
/// `.cdag` would refuse to schedule it and the repro would not replay
/// the scheduler bug it documents.
fn still_fails(spec: &DagSpec, machine: &Machine, scheduler: &str) -> Option<String> {
    let dag = spec.build()?;
    let unit = SchedulingUnit::new("shrink", dag);
    if !lint_unit(&unit, machine, LintOptions::default()).is_clean(false) {
        return None;
    }
    check_one(&unit, machine, scheduler).err()
}

/// Greedy minimization: repeatedly drop any single instruction or
/// edge whose removal preserves the failure, until nothing can go.
fn shrink(unit: &SchedulingUnit, machine: &Machine, scheduler: &str) -> (DagSpec, String) {
    let mut spec = DagSpec::of(unit.dag());
    let mut message =
        still_fails(&spec, machine, scheduler).expect("shrink starts from a reproduced failure");
    loop {
        let mut progressed = false;
        let mut k = 0;
        while k < spec.instrs.len() {
            let candidate = spec.without_instr(k);
            if let Some(m) = still_fails(&candidate, machine, scheduler) {
                spec = candidate;
                message = m;
                progressed = true;
            } else {
                k += 1;
            }
        }
        let mut k = 0;
        while k < spec.edges.len() {
            let candidate = spec.without_edge(k);
            if let Some(m) = still_fails(&candidate, machine, scheduler) {
                spec = candidate;
                message = m;
                progressed = true;
            } else {
                k += 1;
            }
        }
        if !progressed {
            return (spec, message);
        }
    }
}

/// `--trace`: replays the first [`TRACE_CASES`] schedulable cases
/// through the convergent driver with full telemetry, one buffer per
/// replay, rendered as one Chrome-trace timeline with the replays laid
/// end to end.
/// Legitimate rejections just skip ahead; the sweep proper has already
/// held these cases to the referees.
fn write_trace(cases: &[Case], path: &str) {
    let mut runs = Vec::new();
    let mut traced = 0usize;
    for case in cases {
        if traced == TRACE_CASES {
            break;
        }
        let (machine, unit) = case.instantiate();
        let sched = if machine.comm().register_mapped {
            ConvergentScheduler::raw_default()
        } else {
            ConvergentScheduler::vliw_tuned()
        };
        let mut buf = TelemetryBuffer::new();
        if sched
            .schedule_with_sink(unit.dag(), &machine, &mut buf)
            .is_ok()
        {
            traced += 1;
        }
        runs.push(buf);
    }
    std::fs::write(path, chrome_trace(&runs)).expect("write chrome trace");
    let events: usize = runs.iter().map(|run| run.events().len()).sum();
    println!("fuzz: traced {traced} convergent run(s) to {path} ({events} events)");
}

/// Verify the convergent sequences the sweep will exercise — from
/// their effect summaries, without running a pass — before a single
/// case is generated. A contract finding here taints every downstream
/// schedule, so the sweep refuses to start.
fn verify_convergent_sequences(machines: &[&'static str]) {
    let mut checked: Vec<&'static str> = Vec::new();
    for spec in machines {
        let machine = machine_from_spec(spec);
        let name = if machine.comm().register_mapped {
            "raw"
        } else {
            "vliw-tuned"
        };
        if checked.contains(&name) {
            continue;
        }
        checked.push(name);
        let seq = if machine.comm().register_mapped {
            Sequence::raw()
        } else {
            Sequence::vliw_tuned()
        };
        let (proven, unproven) = sequence_proof_counts(&seq);
        let diags = verify_sequence(&seq, &machine);
        if diags.is_empty() {
            println!(
                "fuzz: sequence {name} contracts hold on {spec}: \
                 {proven} clause(s) proven statically, {unproven} unproven"
            );
        } else {
            eprintln!("fuzz: sequence {name} violates its contracts on {spec}:");
            for d in &diags {
                eprintln!("  {d}");
            }
            std::process::exit(1);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let jobs = jobs_from_args(&mut args, default_jobs());
    let mut seed = 0u64;
    let mut budget = 500usize;
    let mut dump_dir = "target/fuzz-repros".to_string();
    let mut family: Option<&'static str> = None;
    let mut size: Option<usize> = None;
    let mut machines: Vec<&'static str> = MACHINES.to_vec();
    let mut lint_only = false;
    let mut trace_path: Option<String> = None;
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--seed" => {
                k += 1;
                seed = args[k].parse().expect("--seed takes an integer");
            }
            "--budget" => {
                k += 1;
                budget = args[k].parse().expect("--budget takes an integer");
            }
            "--dump-dir" => {
                k += 1;
                dump_dir = args[k].clone();
            }
            "--family" => {
                k += 1;
                let want = args[k].clone();
                family = Some(
                    FAMILIES
                        .iter()
                        .copied()
                        .find(|f| *f == want)
                        .unwrap_or_else(|| {
                            eprintln!("fuzz: unknown family '{want}' (families: {FAMILIES:?})");
                            std::process::exit(2);
                        }),
                );
            }
            "--size" => {
                k += 1;
                size = Some(args[k].parse().expect("--size takes an integer"));
            }
            "--machines" => {
                k += 1;
                machines = args[k]
                    .split(',')
                    .map(|want| {
                        MACHINES
                            .iter()
                            .copied()
                            .find(|m| *m == want.trim())
                            .unwrap_or_else(|| {
                                eprintln!(
                                    "fuzz: unknown machine '{want}' (use rawN/vliwN presets)"
                                );
                                std::process::exit(2);
                            })
                    })
                    .collect();
            }
            "--lint-only" => lint_only = true,
            "--trace" => {
                k += 1;
                trace_path = Some(args.get(k).cloned().unwrap_or_else(|| {
                    eprintln!("fuzz: --trace takes a file path");
                    std::process::exit(2);
                }));
            }
            other => {
                eprintln!("fuzz: unknown option '{other}'");
                eprintln!(
                    "usage: fuzz [--seed N] [--budget N] [--jobs N] [--dump-dir PATH] \
                     [--family NAME] [--size N] [--machines a,b,c] [--lint-only] \
                     [--trace FILE]"
                );
                std::process::exit(2);
            }
        }
        k += 1;
    }

    if !lint_only {
        verify_convergent_sequences(&machines);
    }

    let cases = case_stream(seed, budget, family, size, &machines);

    // Panics are caught and reported as failures; silence the default
    // hook's backtrace spew so the summary stays readable.
    std::panic::set_hook(Box::new(|_| {}));
    let outcomes = run_cells(&cases, jobs, |c| run_case(c, lint_only));
    let _ = std::panic::take_hook();

    let schedules: usize = outcomes.iter().map(|o| o.schedules).sum();
    let rejects: usize = outcomes.iter().map(|o| o.rejects).sum();
    let failures: Vec<&Failure> = outcomes.iter().flat_map(|o| &o.failures).collect();
    if lint_only {
        println!(
            "fuzz --lint-only: {budget} cases (seed {seed}), {} linted clean, {} lint failures",
            budget - failures.len(),
            failures.len()
        );
    } else {
        println!(
            "fuzz: {budget} cases (seed {seed}), {schedules} schedules cross-checked, \
             {rejects} legitimate rejects, {} failures",
            failures.len()
        );
    }

    if let Some(path) = &trace_path {
        write_trace(&cases, path);
    }

    if failures.is_empty() {
        return;
    }
    for f in &failures {
        println!(
            "  case {:>4} {:<18} {:<7} {:<11} {}",
            f.case_id, f.family, f.machine_spec, f.scheduler, f.message
        );
    }

    // Shrink and dump the first failure per scheduler.
    std::fs::create_dir_all(&dump_dir).expect("create dump dir");
    let mut dumped: Vec<&str> = Vec::new();
    for f in &failures {
        if dumped.contains(&f.scheduler) {
            continue;
        }
        dumped.push(f.scheduler);
        let case = &cases[f.case_id];
        let (machine, unit) = case.instantiate();
        if f.scheduler == LINT_STAGE {
            // A generator broke its lint-clean promise; there is no
            // scheduler bug to shrink against, so dump the graph
            // as-is for `csched lint` to dissect.
            let name = format!("lint-{}-case{}", f.machine_spec, f.case_id);
            let path = format!("{dump_dir}/{name}.cdag");
            std::fs::write(&path, to_text(&unit)).expect("write lint repro");
            println!(
                "  repro: csched lint {path} --machine {} --deny warnings",
                f.machine_spec
            );
            continue;
        }
        let (spec, message) = shrink(&unit, &machine, f.scheduler);
        let dag = spec.build().expect("shrunk spec still builds");
        let name = format!("repro-{}-{}-case{}", f.scheduler, f.machine_spec, f.case_id);
        let shrunk = SchedulingUnit::new(name.clone(), dag);
        let path = format!("{dump_dir}/{name}.cdag");
        std::fs::write(&path, to_text(&shrunk)).expect("write repro");
        println!(
            "  shrunk case {} to {} instrs / {} edges ({message})",
            f.case_id,
            spec.instrs.len(),
            spec.edges.len()
        );
        println!(
            "  repro: csched verify {path} --machine {} --scheduler {}",
            f.machine_spec, f.scheduler
        );
    }
    std::process::exit(1);
}
