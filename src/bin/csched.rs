//! `csched` — schedule a dependence graph from the command line.
//!
//! ```text
//! csched <input.cdag | --workload NAME> [options]
//! csched verify <input.cdag | --workload NAME> [options]
//! csched lint <input.cdag | --workload NAME | --all-workloads> [options]
//! csched analyze [--sequence raw|vliw|vliw-tuned] [options]
//! csched trace-check <trace.json> [--machine rawN|vliwN]
//!
//! options:
//!   --machine raw<N> | vliw<N>    target machine        (default vliw4)
//!   --scheduler convergent|uas|pcc|rawcc|bug            (default convergent)
//!   --workload NAME               use a built-in benchmark instead of a file
//!   --list-workloads              print the built-in benchmark names
//!   --dump                        print the input graph as .cdag and exit
//!   --dot                         print the input graph as Graphviz DOT and exit
//!   --pressure                    also report register pressure
//!   --profile                     print per-pass wall-clock breakdown
//!                                 (convergent scheduler only)
//!   --trace FILE                  write a Chrome trace-event JSON of the
//!                                 run (convergent scheduler only; load in
//!                                 Perfetto / chrome://tracing)
//!   --shards N                    schedule graph regions concurrently
//!                                 (convergent only; identity when the
//!                                 graph fits one region)
//!   --region-size N               target instructions per region when
//!                                 sharding (convergent only; default
//!                                 tuned from the compile-time bench)
//!   --verbose                     print per-instruction placement
//! ```
//!
//! Examples:
//!
//! ```text
//! csched --workload mxm --machine raw16 --scheduler convergent
//! csched mygraph.cdag --machine vliw4 --scheduler uas --pressure
//! csched --workload sha --dump > sha.cdag
//! ```
//!
//! The `verify` subcommand replays a graph (typically a `.cdag` repro
//! dumped by the fuzz harness) through one scheduler — or all of them
//! when `--scheduler` is omitted — validating each schedule and
//! cross-checking the cycle-driven evaluator against the event-driven
//! oracle:
//!
//! ```text
//! csched verify repro.cdag --machine raw4
//! csched verify --workload fir --machine vliw8 --scheduler pcc
//! csched verify --workload mxm --json
//! ```
//!
//! With `--json`, `verify` emits a machine-readable run report
//! instead: lint diagnostics, per-scheduler referee results, and — for
//! the convergent scheduler — the run's telemetry (hot-path counter
//! totals and per-pass convergence metrics).
//!
//! `verify` lints its input first: a malformed `.cdag` (cycle,
//! dangling edge, impossible preplacement, …) is reported as `CSxxx`
//! diagnostics naming the offending instructions, before any
//! scheduler runs.
//!
//! The `lint` subcommand runs the static analyzer alone — no
//! scheduling — over a `.cdag` file, one workload, or every builtin
//! workload, and also verifies the machine-matched pass sequence
//! against its declared contracts:
//!
//! ```text
//! csched lint repro.cdag --machine raw4
//! csched lint --all-workloads --machine vliw4 --deny warnings
//! csched lint --workload mxm --json
//! ```
//!
//! Lint-specific options:
//!
//! ```text
//!   --all-workloads     lint every builtin workload
//!   --json              machine-readable report on stdout; also embeds
//!                       a convergent-run telemetry snapshot (counter
//!                       totals + convergence metrics) per clean target
//!   --deny warnings     exit nonzero on warnings, not just errors
//!   --pedantic          enable the advisory analyses (CS013/CS030/CS031)
//!   --region-size N     judge shardability (CS041) against this region
//!                       target instead of the scheduler default
//! ```
//!
//! The `analyze` subcommand runs the abstract pass-effect interpreter
//! over pass *sequences* — no input graph and no scheduler run at all.
//! Each pass's declared effect summary is symbolically executed to
//! prove (or statically refute) its contract clauses, and the whole
//! pipeline is checked for dataflow smells (`CS07x`: windows read
//! before established, dead passes, redundant trailing normalization,
//! noise after deterministic bias, undecidable confidence):
//!
//! ```text
//! csched analyze --machine raw4
//! csched analyze --sequence vliw-tuned --deny warnings
//! csched analyze --sequence raw --sequence vliw --json
//! ```
//!
//! Analyze-specific options:
//!
//! ```text
//!   --sequence NAME       analyze a builtin sequence (raw, vliw,
//!                         vliw-tuned; repeatable). Default: the
//!                         machine-matched sequence
//!   --json                machine-readable report on stdout
//!   --deny warnings       exit nonzero on warnings, not just errors
//!   --with-broken-probe   append a deliberately broken probe pass
//!                         (out-of-window absolute write) — exercises
//!                         the static refutation path end to end
//! ```
//!
//! The `trace-check` subcommand validates a `--trace` output file:
//! well-formed Chrome trace-event JSON, nondecreasing timestamps, and
//! a span for every pass of the machine-matched sequence.

use std::process::ExitCode;

use convergent_scheduling::analysis::{
    analyze_pipeline, escape_json, lint_raw, lint_unit, prove_contract, ContractClaims, EffectOp,
    Interval, LintOptions, LintReport, PassEffect, PassSummary, Severity, Verdict,
};
use convergent_scheduling::core::telemetry::{
    chrome_trace, validate_chrome_trace, CounterTotals, SinkInterest, TelemetryBuffer,
    TelemetrySink,
};
use convergent_scheduling::core::{contract, ConvergentScheduler, CutVerdict, Sequence};
use convergent_scheduling::ir::Dag;
use convergent_scheduling::ir::{parse_raw, parse_unit, to_dot, to_text, SchedulingUnit};
use convergent_scheduling::machine::Machine;
use convergent_scheduling::schedulers::{
    BugScheduler, PccScheduler, RawccScheduler, Scheduler, UasScheduler,
};
use convergent_scheduling::sim::{analyze_pressure, cross_check, evaluate, validate};
use convergent_scheduling::workloads as wl;

struct Options {
    input: Option<String>,
    workload: Option<String>,
    machine: String,
    scheduler: String,
    shards: usize,
    region_size: Option<usize>,
    dump: bool,
    dot: bool,
    pressure: bool,
    profile: bool,
    trace: Option<String>,
    json: bool,
    verbose: bool,
}

fn usage() -> &'static str {
    "usage: csched [verify|lint|analyze|trace-check] <input.cdag | --workload NAME> [--machine rawN|vliwN] \
     [--scheduler convergent|uas|pcc|rawcc|bug] [--shards N] [--region-size N] [--dump] [--dot] [--pressure] \
     [--profile] [--trace FILE] [--verbose] [--list-workloads]\n\
     verify also: [--json]\n\
     lint only: [--all-workloads] [--json] [--deny warnings] [--pedantic] [--region-size N]\n\
     analyze: csched analyze [--machine rawN|vliwN] [--sequence raw|vliw|vliw-tuned] [--json] \
     [--deny warnings] [--with-broken-probe]\n\
     trace-check: csched trace-check <trace.json> [--machine rawN|vliwN]"
}

const WORKLOADS: &[&str] = &[
    "cholesky",
    "tomcatv",
    "vpenta",
    "mxm",
    "fpppp-kernel",
    "sha",
    "swim",
    "jacobi",
    "life",
    "vvmul",
    "rbsorf",
    "yuv",
    "fir",
];

fn builtin_workload(name: &str, banks: u16) -> Option<SchedulingUnit> {
    Some(match name {
        "cholesky" => wl::cholesky(wl::CholeskyParams::for_banks(banks)),
        "tomcatv" => wl::tomcatv(wl::StencilParams::for_banks(banks)),
        "vpenta" => wl::vpenta(wl::VpentaParams::for_banks(banks)),
        "mxm" => wl::mxm(wl::MxmParams::for_banks(banks)),
        "fpppp-kernel" => wl::fpppp_kernel(wl::FppppParams::small()),
        "sha" => wl::sha(wl::ShaParams::small()),
        "swim" => wl::swim(wl::StencilParams::for_banks(banks)),
        "jacobi" => wl::jacobi(wl::StencilParams::for_banks(banks)),
        "life" => wl::life(wl::StencilParams::for_banks(banks)),
        "vvmul" => wl::vvmul(wl::VvmulParams::for_banks(banks)),
        "rbsorf" => wl::rbsorf(wl::StencilParams::for_banks(banks)),
        "yuv" => wl::yuv(wl::YuvParams::for_banks(banks)),
        "fir" => wl::fir(wl::FirParams::for_banks(banks)),
        _ => return None,
    })
}

/// Parses a `rawN`/`vliwN` machine spec. `N` must lie in
/// `1..u16::MAX`: the machine constructors need at least one cluster
/// and the preference map reserves `u16::MAX` as its no-cluster
/// sentinel, so anything else is a usage error, not a panic.
fn parse_machine(spec: &str) -> Result<Machine, String> {
    let (make, n): (fn(u16) -> Machine, _) = match spec.strip_prefix("raw") {
        Some(n) => (Machine::raw, Some(n)),
        None => (Machine::chorus_vliw, spec.strip_prefix("vliw")),
    };
    n.and_then(|n| n.parse().ok())
        .filter(|n| (1..u16::MAX).contains(n))
        .map(make)
        .ok_or_else(|| format!("unknown machine '{spec}' (use rawN or vliwN, 1 <= N < 65535)"))
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        input: None,
        workload: None,
        machine: "vliw4".to_string(),
        scheduler: "convergent".to_string(),
        shards: 1,
        region_size: None,
        dump: false,
        dot: false,
        pressure: false,
        profile: false,
        trace: None,
        json: false,
        verbose: false,
    };
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--machine" => {
                k += 1;
                opts.machine = args.get(k).ok_or("--machine takes a value")?.clone();
            }
            "--scheduler" => {
                k += 1;
                opts.scheduler = args.get(k).ok_or("--scheduler takes a value")?.clone();
            }
            "--workload" => {
                k += 1;
                opts.workload = Some(args.get(k).ok_or("--workload takes a value")?.clone());
            }
            "--shards" => {
                k += 1;
                opts.shards = args
                    .get(k)
                    .ok_or("--shards takes a value")?
                    .parse()
                    .map_err(|_| "--shards takes a positive integer".to_string())?;
                if opts.shards == 0 {
                    return Err("--shards takes a positive integer".to_string());
                }
            }
            "--region-size" => {
                k += 1;
                let n: usize = args
                    .get(k)
                    .ok_or("--region-size takes a value")?
                    .parse()
                    .map_err(|_| "--region-size takes a positive integer".to_string())?;
                if n == 0 {
                    return Err("--region-size takes a positive integer".to_string());
                }
                opts.region_size = Some(n);
            }
            "--list-workloads" => {
                for w in WORKLOADS {
                    println!("{w}");
                }
                std::process::exit(0);
            }
            "--dump" => opts.dump = true,
            "--dot" => opts.dot = true,
            "--pressure" => opts.pressure = true,
            "--profile" => opts.profile = true,
            "--trace" => {
                k += 1;
                opts.trace = Some(args.get(k).ok_or("--trace takes a file path")?.clone());
            }
            "--json" => opts.json = true,
            "--verbose" => opts.verbose = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => opts.input = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
        k += 1;
    }
    if opts.input.is_none() && opts.workload.is_none() {
        return Err("need an input file or --workload".to_string());
    }
    Ok(opts)
}

fn make_scheduler(
    name: &str,
    machine: &Machine,
    shards: usize,
    region_size: Option<usize>,
) -> Result<Box<dyn Scheduler>, String> {
    if shards > 1 && name != "convergent" {
        return Err(format!(
            "--shards applies to the convergent scheduler only (got '{name}')"
        ));
    }
    if region_size.is_some() && name != "convergent" {
        return Err(format!(
            "--region-size applies to the convergent scheduler only (got '{name}')"
        ));
    }
    Ok(match name {
        "convergent" => Box::new(convergent_driver(machine, shards, region_size)),
        "uas" => Box::new(UasScheduler::new()),
        "pcc" => Box::new(PccScheduler::new()),
        "rawcc" => Box::new(RawccScheduler::new()),
        "bug" => Box::new(BugScheduler::new()),
        other => return Err(format!("unknown scheduler '{other}'")),
    })
}

/// The machine-matched concrete convergent driver — the `--profile` /
/// `--trace` / telemetry paths need the real type, not `dyn
/// Scheduler`.
fn convergent_driver(
    machine: &Machine,
    shards: usize,
    region_size: Option<usize>,
) -> ConvergentScheduler {
    let s = if machine.comm().register_mapped {
        ConvergentScheduler::raw_default()
    } else {
        ConvergentScheduler::vliw_tuned()
    };
    let s = s.with_shards(shards);
    match region_size {
        Some(n) => s.with_region_size(n),
        None => s,
    }
}

/// Renders a captured telemetry buffer as the `"telemetry"` JSON
/// object the `--json` reports embed: counter totals and per-pass
/// convergence metrics.
fn telemetry_to_json(buf: &TelemetryBuffer) -> String {
    let totals = buf.counter_total();
    let convergence: Vec<String> = buf
        .convergence_entries()
        .map(|(path, m)| {
            format!(
                "{{\"pass\":\"{}\",\"metrics\":{}}}",
                escape_json(path),
                m.to_json()
            )
        })
        .collect();
    format!(
        "{{\"counters\":{},\"convergence\":[{}]}}",
        totals.to_json(),
        convergence.join(",")
    )
}

/// Runs the convergent driver over `dag` with a full-interest buffer
/// and returns the rendered telemetry JSON, or `null` when scheduling
/// fails (the caller reports the failure through its own channel).
fn convergent_telemetry_json(dag: &Dag, machine: &Machine) -> String {
    let mut buf = TelemetryBuffer::new();
    match convergent_driver(machine, 1, None).schedule_with_sink(dag, machine, &mut buf) {
        Ok(_) => telemetry_to_json(&buf),
        Err(_) => "null".to_string(),
    }
}

fn resolve_unit(opts: &Options, machine: &Machine) -> Result<SchedulingUnit, String> {
    match (&opts.workload, &opts.input) {
        (Some(w), _) => builtin_workload(w, machine.n_clusters() as u16)
            .ok_or_else(|| format!("unknown workload '{w}' (try --list-workloads)")),
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            parse_unit(&text).map_err(|e| format!("parsing {path}: {e}"))
        }
        (None, None) => unreachable!("checked in parse_args"),
    }
}

struct LintArgs {
    input: Option<String>,
    workloads: Vec<String>,
    machine: String,
    json: bool,
    deny_warnings: bool,
    pedantic: bool,
    region_size: Option<usize>,
}

fn parse_lint_args(args: &[String]) -> Result<LintArgs, String> {
    let mut opts = LintArgs {
        input: None,
        workloads: Vec::new(),
        machine: "vliw4".to_string(),
        json: false,
        deny_warnings: false,
        pedantic: false,
        region_size: None,
    };
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--machine" => {
                k += 1;
                opts.machine = args.get(k).ok_or("--machine takes a value")?.clone();
            }
            "--workload" => {
                k += 1;
                opts.workloads
                    .push(args.get(k).ok_or("--workload takes a value")?.clone());
            }
            "--all-workloads" => {
                opts.workloads = WORKLOADS.iter().map(ToString::to_string).collect();
            }
            "--json" => opts.json = true,
            "--deny" => {
                k += 1;
                match args.get(k).map(String::as_str) {
                    Some("warnings") => opts.deny_warnings = true,
                    other => {
                        return Err(format!(
                            "--deny takes 'warnings', got {}",
                            other.unwrap_or("nothing")
                        ))
                    }
                }
            }
            "--pedantic" => opts.pedantic = true,
            "--region-size" => {
                k += 1;
                let n: usize = args
                    .get(k)
                    .ok_or("--region-size takes a value")?
                    .parse()
                    .map_err(|_| "--region-size takes a positive integer".to_string())?;
                if n == 0 {
                    return Err("--region-size takes a positive integer".to_string());
                }
                opts.region_size = Some(n);
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => opts.input = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
        k += 1;
    }
    if opts.input.is_none() && opts.workloads.is_empty() {
        return Err("need an input file, --workload, or --all-workloads".to_string());
    }
    Ok(opts)
}

/// `csched lint`: run the static analyzer over the requested inputs
/// and verify the machine-matched pass sequence against its declared
/// contracts, without scheduling anything.
fn run_lint(args: &[String]) -> Result<(), String> {
    let opts = parse_lint_args(args)?;
    let machine = parse_machine(&opts.machine)?;
    let mut lint_opts = if opts.pedantic {
        LintOptions::pedantic()
    } else {
        LintOptions::default()
    };
    if let Some(rs) = opts.region_size {
        // The shardability analyses must judge cuts against the
        // region target the scheduler will actually run with.
        lint_opts = lint_opts.with_region_size(rs);
    }

    let mut targets: Vec<(String, LintReport, Option<SchedulingUnit>)> = Vec::new();
    if let Some(path) = &opts.input {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let raw = parse_raw(&text).map_err(|e| format!("parsing {path}: {e}"))?;
        let report = lint_raw(&raw, &machine, lint_opts);
        let unit = (opts.json && report.errors().next().is_none())
            .then(|| raw.build())
            .and_then(Result::ok);
        targets.push((raw.name().to_string(), report, unit));
    }
    for w in &opts.workloads {
        let unit = builtin_workload(w, machine.n_clusters() as u16)
            .ok_or_else(|| format!("unknown workload '{w}' (try --list-workloads)"))?;
        let report = lint_unit(&unit, &machine, lint_opts);
        targets.push((w.clone(), report, opts.json.then_some(unit)));
    }

    // The sequence `csched` would run on this machine must honor the
    // pass contracts, or its diagnostics-over-panics guarantee is void.
    let sequence = if machine.comm().register_mapped {
        Sequence::raw()
    } else {
        Sequence::vliw_tuned()
    };
    let contract_diags = contract::verify_sequence(&sequence, &machine);

    if opts.json {
        let contracts: Vec<String> = contract_diags.iter().map(|d| d.to_json()).collect();
        let targets_json: Vec<String> = targets
            .iter()
            .map(|(name, report, unit)| {
                // The JSON run report also carries a telemetry snapshot
                // from one convergent run of each lint-clean target:
                // counter totals plus per-pass convergence metrics.
                let telemetry = unit.as_ref().map_or_else(
                    || "null".to_string(),
                    |u| convergent_telemetry_json(u.dag(), &machine),
                );
                format!(
                    "{{\"name\":\"{}\",\"diagnostics\":{},\"telemetry\":{telemetry}}}",
                    escape_json(name),
                    report.to_json()
                )
            })
            .collect();
        println!(
            "{{\"machine\":\"{}\",\"contracts\":[{}],\"targets\":[{}]}}",
            escape_json(machine.name()),
            contracts.join(","),
            targets_json.join(",")
        );
    } else {
        if contract_diags.is_empty() {
            println!(
                "machine {machine}: {} passes honor their contracts",
                sequence.len()
            );
        } else {
            println!("machine {machine}: pass contract violations:");
            for d in &contract_diags {
                println!("  {d}");
            }
        }
        for (name, report, _) in &targets {
            let (errors, warnings, notes) = report.counts();
            if report.is_empty() {
                println!("{name}: clean");
            } else {
                println!("{name}: {errors} error(s), {warnings} warning(s), {notes} note(s)");
                for d in report.diagnostics() {
                    println!("  {d}");
                }
            }
        }
    }

    // One exit-code rule for lint and analyze alike: nonzero iff any
    // diagnostic — target or contract — reaches the denied severity
    // (errors always; warnings too under `--deny warnings`; notes
    // never). Contract findings get the same threshold rather than
    // being unconditionally fatal.
    let threshold = deny_threshold(opts.deny_warnings);
    let dirty = targets
        .iter()
        .filter(|(_, r, _)| !r.is_clean(opts.deny_warnings))
        .count();
    let contract_dirty = contract_diags
        .iter()
        .filter(|d| d.severity >= threshold)
        .count();
    if dirty > 0 || contract_dirty > 0 {
        // Findings are the tool working as intended, not a usage
        // error: report and exit without the usage banner.
        eprintln!(
            "csched: lint failed: {dirty} of {} target(s) dirty, {contract_dirty} contract violation(s)",
            targets.len(),
        );
        std::process::exit(1);
    }
    Ok(())
}

/// The severity at which findings start failing the run.
fn deny_threshold(deny_warnings: bool) -> Severity {
    if deny_warnings {
        Severity::Warning
    } else {
        Severity::Error
    }
}

struct AnalyzeArgs {
    machine: String,
    sequences: Vec<String>,
    json: bool,
    deny_warnings: bool,
    with_broken_probe: bool,
}

fn parse_analyze_args(args: &[String]) -> Result<AnalyzeArgs, String> {
    let mut opts = AnalyzeArgs {
        machine: "vliw4".to_string(),
        sequences: Vec::new(),
        json: false,
        deny_warnings: false,
        with_broken_probe: false,
    };
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--machine" => {
                k += 1;
                opts.machine = args.get(k).ok_or("--machine takes a value")?.clone();
            }
            "--sequence" => {
                k += 1;
                opts.sequences
                    .push(args.get(k).ok_or("--sequence takes a value")?.clone());
            }
            "--json" => opts.json = true,
            "--deny" => {
                k += 1;
                match args.get(k).map(String::as_str) {
                    Some("warnings") => opts.deny_warnings = true,
                    other => {
                        return Err(format!(
                            "--deny takes 'warnings', got {}",
                            other.unwrap_or("nothing")
                        ))
                    }
                }
            }
            "--with-broken-probe" => opts.with_broken_probe = true,
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other => return Err(format!("unknown option '{other}'")),
        }
        k += 1;
    }
    Ok(opts)
}

fn builtin_sequence(name: &str) -> Option<Sequence> {
    Some(match name {
        "raw" => Sequence::raw(),
        "vliw" => Sequence::vliw(),
        "vliw-tuned" => Sequence::vliw_tuned(),
        _ => return None,
    })
}

/// A deliberately broken probe pass summary: an absolute write that
/// escapes the feasible window. The abstract interpreter must refute
/// `window_respecting` (`CS060`) without constructing a scheduler.
fn broken_probe_summary() -> PassSummary {
    PassSummary::new(
        "BROKEN-PROBE",
        ContractClaims::default(),
        PassEffect::new(vec![EffectOp::Absolute {
            in_window: false,
            value: Interval::new(0.0, 1.0),
            randomized: false,
            preserves_support: true,
        }]),
    )
}

fn verdict_str(v: Verdict) -> &'static str {
    match v {
        Verdict::Proven => "proven",
        Verdict::Unproven => "unproven",
        Verdict::RefutedStatic => "refuted",
    }
}

/// `csched analyze`: symbolically execute pass sequences through the
/// abstract interpreter — per-pass contract proofs plus pipeline
/// dataflow lints (`CS07x`) — without ever running a scheduler.
fn run_analyze(args: &[String]) -> Result<(), String> {
    let opts = parse_analyze_args(args)?;
    let machine = parse_machine(&opts.machine)?;
    let seq_names: Vec<String> = if opts.sequences.is_empty() {
        // The sequence `csched` would actually run on this machine.
        let name = if machine.comm().register_mapped {
            "raw"
        } else {
            "vliw-tuned"
        };
        vec![name.to_string()]
    } else {
        opts.sequences.clone()
    };

    let mut dirty = 0usize;
    let mut seq_json: Vec<String> = Vec::new();
    for name in &seq_names {
        let seq = builtin_sequence(name)
            .ok_or_else(|| format!("unknown sequence '{name}' (use raw, vliw, or vliw-tuned)"))?;
        let mut summaries = contract::summarize_sequence(&seq);
        if opts.with_broken_probe {
            summaries.push(broken_probe_summary());
        }

        let mut report = LintReport::new();
        let mut proven = 0usize;
        let mut unproven = 0usize;
        let mut refuted = 0usize;
        let mut pass_json: Vec<String> = Vec::new();
        let mut pass_lines: Vec<String> = Vec::new();
        for s in &summaries {
            let (proof, diags) = prove_contract(s);
            let (p, u, r) = proof.counts();
            proven += p;
            unproven += u;
            refuted += r;
            if opts.json {
                let clauses: Vec<String> = proof
                    .clauses()
                    .iter()
                    .map(|&(clause, v)| format!("\"{clause}\":\"{}\"", verdict_str(v)))
                    .collect();
                pass_json.push(format!(
                    "{{\"name\":\"{}\",\"clauses\":{{{}}}}}",
                    escape_json(&s.name),
                    clauses.join(",")
                ));
            } else if !proof.all_proven() {
                let fallbacks: Vec<String> = proof
                    .clauses()
                    .iter()
                    .filter(|&&(_, v)| v != Verdict::Proven)
                    .map(|&(clause, v)| format!("{clause}: {}", verdict_str(v)))
                    .collect();
                pass_lines.push(format!("  {}: {}", s.name, fallbacks.join(", ")));
            }
            for d in diags {
                report.push(d);
            }
        }
        report.merge(analyze_pipeline(&summaries, machine.n_clusters()));

        if opts.json {
            seq_json.push(format!(
                "{{\"sequence\":\"{}\",\"passes\":[{}],\"clauses\":{{\"proven\":{proven},\"unproven\":{unproven},\"refuted\":{refuted}}},\"diagnostics\":{}}}",
                escape_json(name),
                pass_json.join(","),
                report.to_json()
            ));
        } else {
            println!(
                "sequence {name} ({} passes): {proven} clause(s) proven, {unproven} unproven, {refuted} refuted",
                summaries.len()
            );
            for line in &pass_lines {
                println!("{line}");
            }
            for d in report.diagnostics() {
                println!("  {d}");
            }
        }
        if !report.is_clean(opts.deny_warnings) {
            dirty += 1;
        }
    }
    if opts.json {
        println!(
            "{{\"machine\":\"{}\",\"sequences\":[{}]}}",
            escape_json(machine.name()),
            seq_json.join(",")
        );
    }
    if dirty > 0 {
        eprintln!(
            "csched: analyze failed: {dirty} of {} sequence(s) dirty",
            seq_names.len()
        );
        std::process::exit(1);
    }
    Ok(())
}

/// `csched verify`: lint the input, then replay it through the
/// schedulers and hold every schedule to the full referee pair —
/// validation plus the evaluator/oracle cross-check the fuzz harness
/// relies on.
fn run_verify(args: &[String]) -> Result<(), String> {
    let explicit_scheduler = args.iter().any(|a| a == "--scheduler");
    let opts = parse_args(args)?;
    if opts.trace.is_some() {
        return Err("--trace applies to the schedule command, not verify".to_string());
    }
    let machine = parse_machine(&opts.machine)?;

    // Lint before scheduling: a malformed repro gets structured
    // diagnostics naming its instructions, not a scheduler panic.
    let (unit, report) = match (&opts.workload, &opts.input) {
        (Some(w), _) => {
            let unit = builtin_workload(w, machine.n_clusters() as u16)
                .ok_or_else(|| format!("unknown workload '{w}' (try --list-workloads)"))?;
            let report = lint_unit(&unit, &machine, LintOptions::default());
            (Some(unit), report)
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
            let raw = parse_raw(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            let report = lint_raw(&raw, &machine, LintOptions::default());
            let unit = if report.errors().next().is_none() {
                Some(raw.build().map_err(|e| format!("building {path}: {e}"))?)
            } else {
                None
            };
            (unit, report)
        }
        (None, None) => unreachable!("checked in parse_args"),
    };
    if !opts.json {
        for d in report.diagnostics() {
            println!("lint: {d}");
        }
    }
    let Some(unit) = unit else {
        let (errors, _, _) = report.counts();
        return Err(format!(
            "input failed lint with {errors} error(s); not scheduling"
        ));
    };

    let names: Vec<String> = if explicit_scheduler {
        vec![opts.scheduler.clone()]
    } else {
        ["convergent", "uas", "pcc", "rawcc", "bug"]
            .iter()
            .map(ToString::to_string)
            .collect()
    };
    if !opts.json {
        println!(
            "{}: {} instrs, {} edges, machine {machine}",
            unit.name(),
            unit.dag().len(),
            unit.dag().edge_count()
        );
    }
    let mut failures = 0usize;
    let mut targets_json: Vec<String> = Vec::new();
    for name in &names {
        // The convergent driver runs through the telemetry entry point
        // so the JSON report can embed counter totals and per-pass
        // convergence metrics; the referee verdicts join the totals.
        let mut buf = (opts.json && name == "convergent").then(TelemetryBuffer::new);
        let scheduled = if let Some(buf) = buf.as_mut() {
            convergent_driver(&machine, 1, None)
                .schedule_with_sink(unit.dag(), &machine, buf)
                .map(|out| out.into_schedule())
        } else {
            make_scheduler(name, &machine, 1, None)?.schedule(unit.dag(), &machine)
        };
        let mut verdicts = CounterTotals::default();
        let mut cycles: Option<(u32, u32, u32)> = None;
        let outcome: Result<(), String> = match scheduled {
            Err(e) => Err(format!("scheduling: {e}")),
            Ok(schedule) => match validate(unit.dag(), &machine, &schedule) {
                Err(e) => {
                    verdicts.validate_fail = 1;
                    Err(format!("validation: {e}"))
                }
                Ok(()) => {
                    verdicts.validate_ok = 1;
                    match cross_check(unit.dag(), &machine, &schedule) {
                        Ok(Ok(report)) => {
                            verdicts.oracle_agree = 1;
                            cycles = Some((
                                report.makespan.get(),
                                report.nominal_makespan.get(),
                                report.network.stall_cycles,
                            ));
                            Ok(())
                        }
                        Ok(Err(e)) => {
                            verdicts.oracle_disagree = 1;
                            Err(format!("simulation: {e}"))
                        }
                        Err(d) => {
                            verdicts.oracle_disagree = 1;
                            Err(format!("cross-check: {d}"))
                        }
                    }
                }
            },
        };
        if opts.json {
            let telemetry = buf.map_or_else(
                || "null".to_string(),
                |mut buf| {
                    buf.counters("<referee>", &verdicts);
                    telemetry_to_json(&buf)
                },
            );
            let (status, error) = match &outcome {
                Ok(()) => ("ok".to_string(), "null".to_string()),
                Err(e) => ("fail".to_string(), format!("\"{}\"", escape_json(e))),
            };
            let cycles_json = cycles.map_or_else(
                || "null".to_string(),
                |(c, n, s)| format!("{{\"cycles\":{c},\"nominal\":{n},\"stall_cycles\":{s}}}"),
            );
            targets_json.push(format!(
                "{{\"scheduler\":\"{}\",\"status\":\"{status}\",\"error\":{error},\"result\":{cycles_json},\"telemetry\":{telemetry}}}",
                escape_json(name)
            ));
        } else {
            match (&outcome, cycles) {
                (Ok(()), Some((c, n, s))) => println!(
                    "{name:<12} ok: {c} cycles (nominal {n}), {s} stalls, simulators agree"
                ),
                (Err(e), _) => println!("{name:<12} FAIL {e}"),
                (Ok(()), None) => unreachable!("ok outcome always has a report"),
            }
        }
        if outcome.is_err() {
            failures += 1;
        }
    }
    if opts.json {
        let lint_json: Vec<String> = report.diagnostics().iter().map(|d| d.to_json()).collect();
        println!(
            "{{\"name\":\"{}\",\"machine\":\"{}\",\"instrs\":{},\"edges\":{},\"lint\":[{}],\"targets\":[{}]}}",
            escape_json(unit.name()),
            escape_json(machine.name()),
            unit.dag().len(),
            unit.dag().edge_count(),
            lint_json.join(","),
            targets_json.join(",")
        );
    }
    if failures > 0 {
        return Err(format!("{failures} of {} schedulers failed", names.len()));
    }
    Ok(())
}

/// `csched trace-check`: validate a `--trace` output file — parses as
/// Chrome trace-event JSON, timestamps nondecreasing, and every pass
/// of the machine-matched sequence has a span.
fn run_trace_check(args: &[String]) -> Result<(), String> {
    let mut file: Option<String> = None;
    let mut machine_spec = "vliw4".to_string();
    let mut k = 0;
    while k < args.len() {
        match args[k].as_str() {
            "--machine" => {
                k += 1;
                machine_spec = args.get(k).ok_or("--machine takes a value")?.clone();
            }
            "--help" | "-h" => {
                println!("{}", usage());
                std::process::exit(0);
            }
            other if !other.starts_with('-') => file = Some(other.to_string()),
            other => return Err(format!("unknown option '{other}'")),
        }
        k += 1;
    }
    let file = file.ok_or("trace-check needs a trace file")?;
    let machine = parse_machine(&machine_spec)?;
    let text = std::fs::read_to_string(&file).map_err(|e| format!("reading {file}: {e}"))?;
    let stats = validate_chrome_trace(&text).map_err(|e| format!("{file}: {e}"))?;
    let sequence = if machine.comm().register_mapped {
        Sequence::raw()
    } else {
        Sequence::vliw_tuned()
    };
    let missing: std::collections::BTreeSet<&str> = sequence
        .names()
        .into_iter()
        .filter(|n| !stats.span_names.contains(*n))
        .collect();
    if !missing.is_empty() {
        return Err(format!(
            "{file}: trace names no span for pass(es) {missing:?} of the {machine} sequence"
        ));
    }
    println!(
        "{file}: ok — {} events ({} spans, {} counter samples), all {} passes named",
        stats.total_events,
        stats.span_events,
        stats.counter_events,
        sequence.len()
    );
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "verify") {
        return run_verify(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "lint") {
        return run_lint(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "analyze") {
        return run_analyze(&args[1..]);
    }
    if args.first().is_some_and(|a| a == "trace-check") {
        return run_trace_check(&args[1..]);
    }
    let opts = parse_args(&args)?;

    let machine = parse_machine(&opts.machine)?;

    let unit = resolve_unit(&opts, &machine)?;

    if opts.dump {
        print!("{}", to_text(&unit));
        return Ok(());
    }
    if opts.dot {
        print!("{}", to_dot(unit.dag(), unit.name()));
        return Ok(());
    }

    if opts.json {
        return Err("--json applies to the verify and lint subcommands".to_string());
    }
    let scheduler = make_scheduler(&opts.scheduler, &machine, opts.shards, opts.region_size)?;

    let (schedule, mut telemetry, shard_note) = if opts.profile || opts.trace.is_some() {
        if opts.scheduler != "convergent" {
            return Err(
                "--profile/--trace are only supported for --scheduler convergent".to_string(),
            );
        }
        // Re-build the concrete driver: `Scheduler` has no telemetry
        // entry point, and only the convergent pipeline has passes.
        // `--profile` and `--trace` render the one recorded run; the
        // trace wants every event family, the profile only spans.
        let sched = convergent_driver(&machine, opts.shards, opts.region_size);
        let mut buf = TelemetryBuffer::with_interest(if opts.trace.is_some() {
            SinkInterest::all()
        } else {
            SinkInterest::spans_only()
        });
        let out = sched
            .schedule_with_sink(unit.dag(), &machine, &mut buf)
            .map_err(|e| format!("scheduling failed: {e}"))?;
        let shard_note = match (out.shard_info(), out.governor()) {
            (Some(info), _) => Some(format!(
                "{} regions (sizes {:?}), {} boundary comm(s), {} cross edge(s), \
                 stitch {:.2}x critical path",
                info.shard_sizes.len(),
                info.shard_sizes,
                info.boundary_comms,
                info.cross_edges,
                info.stitch_ratio()
            )),
            (None, Some(a)) => Some(format!(
                "monolithic (governor rejected the cut: {}, {}/{} cross edges, \
                 largest region {} of {})",
                match a.verdict {
                    CutVerdict::RejectedCrossEdges => "cross-edge fraction",
                    CutVerdict::RejectedImbalance => "imbalance",
                    CutVerdict::Accepted => "accepted",
                },
                a.cross_edges,
                a.total_edges,
                a.largest_shard,
                unit.dag().len()
            )),
            (None, None) => None,
        };
        (out.into_schedule(), Some(buf), shard_note)
    } else {
        let schedule = scheduler
            .schedule(unit.dag(), &machine)
            .map_err(|e| format!("scheduling failed: {e}"))?;
        (schedule, None, None)
    };
    validate(unit.dag(), &machine, &schedule)
        .map_err(|e| format!("produced schedule failed validation: {e}"))?;
    let report =
        evaluate(unit.dag(), &machine, &schedule).map_err(|e| format!("simulation failed: {e}"))?;

    let trace_note = if let (Some(buf), Some(path)) = (telemetry.as_mut(), opts.trace.as_ref()) {
        // The referee ran after the traced region; record its verdict
        // as a counter sample after `<run>`, which stamps it at the
        // trace's end, then write the file.
        buf.counters(
            "<run>",
            &CounterTotals {
                validate_ok: 1,
                ..CounterTotals::default()
            },
        );
        std::fs::write(path, chrome_trace(std::slice::from_ref(buf)))
            .map_err(|e| format!("writing {path}: {e}"))?;
        Some(format!("{path} ({} events)", buf.events().len()))
    } else {
        None
    };

    println!("{unit}");
    println!("machine:    {machine}");
    println!("scheduler:  {}", scheduler.name());
    if let Some(note) = &shard_note {
        println!("shards:     {note}");
    }
    println!(
        "cycles:     {} (nominal {})",
        report.makespan.get(),
        report.nominal_makespan
    );
    println!(
        "comm:       {} transfers, {} link-cycles, {} stall cycles",
        report.comm_ops, report.network.link_cycles, report.network.stall_cycles
    );
    println!("issue use:  {:.1}%", report.fu_utilization * 100.0);
    if let Some(note) = &trace_note {
        println!("trace:      {note}");
    }
    if opts.pressure {
        let p = analyze_pressure(unit.dag(), &machine, &schedule);
        println!(
            "registers:  peak {} of {}, {} spills",
            p.max_peak(),
            machine.registers_per_cluster(),
            p.total_spills()
        );
    }
    if let Some(buf) = telemetry.as_ref().filter(|_| opts.profile) {
        println!();
        print!("{}", buf.profile_table());
    }
    if opts.verbose {
        println!();
        for i in unit.dag().ids() {
            let op = schedule.op(i);
            println!(
                "  {i:>5} {:<8} {} @ {}",
                unit.dag().instr(i).opcode().to_string(),
                op.cluster,
                op.start
            );
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("csched: {msg}");
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, parse_machine};

    #[test]
    fn parse_machine_accepts_presets() {
        assert_eq!(parse_machine("raw4").map(|m| m.n_clusters()), Ok(4));
        assert_eq!(parse_machine("vliw1").map(|m| m.n_clusters()), Ok(1));
    }

    #[test]
    fn parse_machine_rejects_degenerate_cluster_counts() {
        for spec in [
            "raw0",
            "vliw0",
            "raw65535",
            "vliw65535",
            "vliw70000",
            "vliw",
            "cell4",
        ] {
            assert!(parse_machine(spec).is_err(), "{spec} must be a usage error");
        }
    }

    #[test]
    fn parse_args_rejects_threads_as_unknown_option() {
        let args: Vec<String> = ["--workload", "fir", "--threads", "2"]
            .iter()
            .map(|a| (*a).to_string())
            .collect();
        match parse_args(&args) {
            Err(msg) => assert_eq!(msg, "unknown option '--threads'"),
            Ok(_) => panic!("--threads must be a usage error"),
        }
    }
}
