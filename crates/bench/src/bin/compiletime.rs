//! Compile-time throughput of the convergent scheduler itself: how
//! many instructions per second the full pass pipeline (weights,
//! passes, normalization, final list schedule) sustains at several
//! region sizes — the paper's Figure 10 claim, extended to 100k
//! instructions. Companion to figure10, but focused on the convergent
//! scheduler and machine-readable: results land in
//! `BENCH_compiletime.json`, including a per-pass wall-clock breakdown
//! of the best repetition, the quartiles of all repetitions (the
//! spread) and host metadata (cpu model, core count) so rows are
//! comparable across machines.
//!
//! ```text
//! cargo run --release -p convergent-bench --bin compiletime
//! cargo run --release -p convergent-bench --bin compiletime -- \
//!     --sizes 200,2000 --budget-secs 0.5 --no-out --max-ratio 4.0
//! cargo run --release -p convergent-bench --bin compiletime -- \
//!     --components 8 --shards 8 --sizes 50000
//! ```
//!
//! The workload is a layered random DAG whose layer width scales with
//! the instruction count (`width = max(8, n/125)`, overridable with
//! `--width`), keeping graph depth — and with it the number of time
//! slots and the feasible-window span — roughly constant across sizes.
//! A fixed width would make the cell count per instruction grow
//! linearly in `n` (depth ∝ n ⇒ slack ∝ n), which measures the
//! workload's shape rather than the scheduler, and puts 100k
//! instructions out of reach of any implementation (~4·10⁹ weight
//! cells). Real scheduling regions grow wide, not kilodeep.
//!
//! `--components K` switches the workload to a disjoint union of `K`
//! layered graphs (distinct seeds, sizes split evenly); `--shards N`
//! lets the driver schedule regions concurrently and stitch the
//! results — since the decomposer cuts connected graphs recursively,
//! this also engages on the default single-component workload.
//! `--region-size N` overrides the decomposer's target region size.
//! When shard metadata is produced it lands in the JSON rows
//! (`shard_sizes`, `boundary_comms`) and every sharded schedule is
//! re-validated outside the timed region. Every row also records
//! `shards_effective` — the region count the decomposer actually
//! produced (1 when the cut was refused or trivial). `--shards` caps
//! concurrency, not the region count, so the only warning (on stderr)
//! is for a sharded run (`--shards` > 1) that fell back to one
//! region.
//!
//! Measurements run serially (never through the parallel harness) so
//! each row gets an unloaded machine. Every size is repeated
//! until a fixed wall-clock budget (`--budget-secs`, default 2 s) is
//! spent, so `best_seconds` is equally converged across rows instead
//! of drifting with size; the measured rep count is recorded per row.
//!
//! Any other argument is a usage error (exit 2, nothing measured or
//! written); `--help` prints the flag list.
//!
//! `--max-ratio R` turns the run into a scaling guard: it exits
//! nonzero if throughput at the smallest size exceeds throughput at
//! the largest by more than `R×` — the superlinear-collapse symptom
//! the banded preference map and the bulk row kernels exist to
//! prevent.
//!
//! Each size also runs a second, equally-budgeted loop of
//! fully-instrumented reps through the telemetry layer: the hot-path
//! counter totals and measured overhead (best instrumented rep over
//! best uninstrumented rep, with its spread: instrumented p25 over
//! plain p25, and the same at p75) land in the table and the JSON
//! rows, and `--trace FILE` writes a Chrome trace (all sizes on one
//! timeline) loadable in Perfetto.

use std::time::Instant;

use convergent_core::telemetry::{chrome_trace, CounterTotals, SinkInterest, TelemetryBuffer};
use convergent_core::ConvergentScheduler;
use convergent_ir::{DagBuilder, SchedulingUnit};
use convergent_machine::Machine;
use convergent_workloads::{layered, LayeredParams};

struct Row {
    n: usize,
    width: usize,
    best: f64,
    /// 25th, 50th and 75th percentile seconds over all timed reps.
    quartiles: [f64; 3],
    ips: f64,
    reps: u32,
    /// The spans of the best rep; `per_pass_seconds` is its profile.
    spans: TelemetryBuffer,
    shard_sizes: Option<Vec<usize>>,
    boundary_comms: Option<usize>,
    /// Regions the decomposer actually produced (1 = monolithic).
    shards_effective: usize,
    /// Hot-path counter totals from one fully-instrumented rep.
    counters: CounterTotals,
    /// Best wall-clock seconds over the instrumented rep loop; the
    /// ratio against `best` is the measured telemetry overhead.
    telemetry_secs: f64,
    /// The instrumented loop's p25 and p75 seconds over the plain
    /// loop's: the overhead's spread.
    telemetry_spread: [f64; 2],
}

/// The 25th, 50th and 75th percentile of `times` (sorted in place).
fn quartiles(times: &mut [f64]) -> [f64; 3] {
    times.sort_by(f64::total_cmp);
    [1, 2, 3].map(|q| times[(times.len() - 1) * q / 4])
}

/// Layer width for an `n`-instruction sweep point: proportional so
/// depth stays near 125 levels at every size (see module docs).
fn auto_width(n: usize) -> usize {
    (n / 125).max(8)
}

/// The sweep workload at one size: a single layered DAG, or — with
/// `--components K` — a disjoint union of `K` layered DAGs with
/// distinct seeds and near-equal sizes, each kept at the same target
/// depth so the union measures the decomposer and stitch rather than
/// a change in graph shape.
fn build_workload(
    n: usize,
    components: usize,
    forced_width: Option<usize>,
) -> (SchedulingUnit, usize) {
    if components <= 1 {
        let width = forced_width.unwrap_or_else(|| auto_width(n));
        let unit = layered(
            LayeredParams::new(n, 0xF16)
                .with_width(width)
                .with_preplacement(0.5, 4),
        );
        return (unit, width);
    }
    let components = components.min(n);
    let mut b = DagBuilder::with_capacity(n);
    let mut row_width = 0usize;
    for c in 0..components {
        let size = n / components + usize::from(c < n % components);
        let width = forced_width.unwrap_or_else(|| auto_width(size));
        row_width = row_width.max(width);
        let unit = layered(
            LayeredParams::new(size, 0xF16 + c as u64)
                .with_width(width)
                .with_preplacement(0.5, 4),
        );
        let dag = unit.dag();
        let ids: Vec<_> = dag.instrs().iter().map(|i| b.push(i.clone())).collect();
        for i in dag.ids() {
            for &s in dag.succs(i) {
                b.edge(ids[i.index()], ids[s.index()]).expect("fresh ids");
            }
        }
    }
    let unit = SchedulingUnit::new(
        format!("layered-union-{components}x{n}"),
        b.build().expect("union of DAGs is a DAG"),
    );
    (unit, row_width)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1).map(|m| m.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Flags that take a value.
const VALUE_FLAGS: [&str; 9] = [
    "--sizes",
    "--budget-secs",
    "--max-ratio",
    "--shards",
    "--components",
    "--region-size",
    "--width",
    "--out",
    "--trace",
];

/// Flags that stand alone.
const SWITCHES: [&str; 2] = ["--no-out", "--profile"];

const USAGE: &str = "\
usage: compiletime [--sizes N,N,...] [--budget-secs S] [--max-ratio R]
                   [--shards N] [--components K] [--region-size N]
                   [--width N]
                   [--out FILE | --no-out] [--trace FILE] [--profile]";

/// Checks every argument against the known flags before any work
/// starts: `--help` prints the usage and exits 0; an unknown argument,
/// or a value flag with no value, prints it to stderr and exits 2.
fn check_args(args: &[String]) {
    let mut rest = args.iter().skip(1).map(String::as_str);
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            println!("{USAGE}");
            std::process::exit(0);
        }
        let ok = if VALUE_FLAGS.contains(&arg) {
            rest.next().is_some()
        } else {
            SWITCHES.contains(&arg)
        };
        if !ok {
            eprintln!("compiletime: unknown argument or missing value: `{arg}`\n{USAGE}");
            std::process::exit(2);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    check_args(&args);
    let flag_val = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|k| args.get(k + 1))
            .cloned()
    };
    let out_path = flag_val("--out").unwrap_or_else(|| "BENCH_compiletime.json".to_string());
    let no_out = args.iter().any(|a| a == "--no-out");
    let show_profile = args.iter().any(|a| a == "--profile");
    let trace_path = flag_val("--trace");
    let budget_secs: f64 = flag_val("--budget-secs")
        .map(|v| v.parse().expect("--budget-secs takes seconds"))
        .unwrap_or(2.0);
    let max_ratio: Option<f64> =
        flag_val("--max-ratio").map(|v| v.parse().expect("--max-ratio takes a number"));
    let shards: usize = flag_val("--shards")
        .map(|v| v.parse().expect("--shards takes a positive integer"))
        .unwrap_or(1);
    assert!(shards > 0, "--shards takes a positive integer");
    let components: usize = flag_val("--components")
        .map(|v| v.parse().expect("--components takes a positive integer"))
        .unwrap_or(1);
    assert!(components > 0, "--components takes a positive integer");
    let region_size: Option<usize> = flag_val("--region-size")
        .map(|v| v.parse().expect("--region-size takes a positive integer"));
    assert!(
        region_size != Some(0),
        "--region-size takes a positive integer"
    );
    let forced_width: Option<usize> =
        flag_val("--width").map(|v| v.parse().expect("--width takes a positive integer"));
    let sizes: Vec<usize> = flag_val("--sizes")
        .map(|v| {
            v.split(',')
                .map(|s| s.trim().parse().expect("--sizes takes a comma list"))
                .collect()
        })
        .unwrap_or_else(|| vec![200, 500, 1000, 2000, 5000, 10000, 50000, 100000]);

    let machine = Machine::chorus_vliw(4);
    let make_sched = || {
        let s = ConvergentScheduler::vliw_default().with_shards(shards);
        match region_size {
            Some(n) => s.with_region_size(n),
            None => s,
        }
    };
    println!(
        "{:>8}{:>8}{:>12}{:>16}{:>8}{:>12}{:>10}{:>14}",
        "instrs", "width", "best (s)", "instrs/sec", "reps", "weight ops", "tel ovh", "ovh p25/p75"
    );
    let mut rows: Vec<Row> = Vec::new();
    // The first instrumented rep of each size, for `--trace`.
    let mut traced: Vec<TelemetryBuffer> = Vec::new();
    for &n in &sizes {
        let (unit, width) = build_workload(n, components, forced_width);
        let mut best = f64::INFINITY;
        let mut best_spans = TelemetryBuffer::default();
        let mut shard_sizes = None;
        let mut boundary_comms = None;
        let mut reps = 0u32;
        let mut times = Vec::new();
        let clock = Instant::now();
        // At least one rep, then keep going until the budget is spent.
        while reps == 0 || clock.elapsed().as_secs_f64() < budget_secs {
            let sched = make_sched();
            let mut spans = TelemetryBuffer::with_interest(SinkInterest::spans_only());
            let start = Instant::now();
            let out = sched
                .schedule_with_sink(unit.dag(), &machine, &mut spans)
                .expect("convergent schedules");
            let secs = start.elapsed().as_secs_f64();
            assert!(out.schedule().makespan().get() > 0);
            times.push(secs);
            if secs < best {
                best = secs;
                best_spans = spans;
                shard_sizes = out.shard_info().map(|i| i.shard_sizes.clone());
                boundary_comms = out.shard_info().map(|i| i.boundary_comms);
            }
            if reps == 0 && shards > 1 {
                // Hold sharded schedules to the referee once, outside
                // the timed region.
                convergent_sim::validate(unit.dag(), &machine, out.schedule())
                    .expect("sharded schedule validates");
            }
            reps += 1;
        }
        // A second, equally-budgeted loop of fully-instrumented reps:
        // best-of-N against best-of-N is the honest overhead ratio (a
        // single rep against the min of thousands mostly measures
        // run-to-run noise). Counter totals come from the first rep —
        // they are deterministic, so every rep agrees — and only that
        // rep joins the trace, keeping the shared timeline one run per
        // size.
        let (counters, mut tel_times) = {
            let mut counters = CounterTotals::default();
            let mut tel_times = Vec::new();
            let clock = Instant::now();
            while tel_times.is_empty() || clock.elapsed().as_secs_f64() < budget_secs {
                let sched = make_sched();
                let mut buf = TelemetryBuffer::new();
                let start = Instant::now();
                sched
                    .schedule_with_sink(unit.dag(), &machine, &mut buf)
                    .expect("instrumented convergent schedules");
                let secs = start.elapsed().as_secs_f64();
                if tel_times.is_empty() {
                    counters = buf.counter_total();
                    if trace_path.is_some() {
                        traced.push(buf);
                    }
                }
                tel_times.push(secs);
            }
            (counters, tel_times)
        };
        let telemetry_secs = tel_times.iter().copied().fold(f64::INFINITY, f64::min);
        let plain = quartiles(&mut times);
        let instrumented = quartiles(&mut tel_times);
        let telemetry_spread = [instrumented[0] / plain[0], instrumented[2] / plain[2]];
        let shards_effective = shard_sizes.as_ref().map_or(1, Vec::len);
        if shards > 1 && shards_effective == 1 {
            eprintln!(
                "warning: {n} instrs: requested --shards {shards} but the run fell back \
                 to one region"
            );
        }
        let ips = n as f64 / best;
        let overhead = telemetry_secs / best;
        let [lo, hi] = telemetry_spread;
        println!(
            "{n:>8}{width:>8}{best:>12.4}{ips:>16.0}{reps:>8}{:>12}{overhead:>9.2}x{:>14}",
            counters.weight_ops(),
            format!("{lo:.2}/{hi:.2}x")
        );
        if let Some(sizes) = &shard_sizes {
            println!(
                "          sharded into {} region(s) {:?}, {} boundary comm(s)",
                sizes.len(),
                sizes,
                boundary_comms.unwrap_or(0)
            );
        }
        if show_profile {
            println!("{}", best_spans.profile_table());
        }
        rows.push(Row {
            n,
            width,
            best,
            quartiles: plain,
            ips,
            reps,
            spans: best_spans,
            shard_sizes,
            boundary_comms,
            shards_effective,
            counters,
            telemetry_secs,
            telemetry_spread,
        });
    }

    if let Some(path) = &trace_path {
        std::fs::write(path, chrome_trace(&traced)).expect("write chrome trace");
        let events: usize = traced.iter().map(|run| run.events().len()).sum();
        println!("wrote {path} ({events} events)");
    }

    if !no_out {
        let host_cpus = std::thread::available_parallelism().map_or(1, usize::from);
        let mut json = String::from("{\n  \"experiment\": \"compiletime\",\n");
        json.push_str("  \"scheduler\": \"convergent vliw_default\",\n");
        json.push_str("  \"machine\": \"chorus_vliw(4)\",\n");
        let width_desc =
            forced_width.map_or_else(|| "max(8, n/125)".to_string(), |w| w.to_string());
        if components > 1 {
            json.push_str(&format!(
                "  \"workload\": \"disjoint union of {components} layered(seeds 0xF16.., width {width_desc}, preplace 0.5 over 4 banks)\",\n"
            ));
        } else {
            json.push_str(&format!(
                "  \"workload\": \"layered(seed 0xF16, width {width_desc}, preplace 0.5 over 4 banks)\",\n"
            ));
        }
        json.push_str(&format!("  \"components\": {components},\n"));
        json.push_str(&format!("  \"shards\": {shards},\n"));
        json.push_str(&format!(
            "  \"region_size\": {},\n",
            region_size.map_or_else(|| "null".to_string(), |n| n.to_string())
        ));
        json.push_str(&format!("  \"host_cpus\": {host_cpus},\n"));
        json.push_str(&format!("  \"host_cpu_model\": \"{}\",\n", cpu_model()));
        json.push_str(&format!(
            "  \"host_os\": \"{} {}\",\n",
            std::env::consts::OS,
            std::env::consts::ARCH
        ));
        json.push_str(&format!(
            "  \"budget_secs\": {budget_secs},\n  \"rows\": [\n"
        ));
        for (k, row) in rows.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"instrs\": {}, \"width\": {}, \"best_seconds\": {:.6}, \"p25_seconds\": {:.6}, \"median_seconds\": {:.6}, \"p75_seconds\": {:.6}, \"instrs_per_sec\": {:.1}, \"reps\": {}, \"per_pass_seconds\": {{",
                row.n, row.width, row.best, row.quartiles[0], row.quartiles[1], row.quartiles[2], row.ips, row.reps
            ));
            let spans: Vec<String> = row
                .spans
                .profile()
                .into_iter()
                .map(|(name, secs, _)| format!("\"{name}\": {secs:.6}"))
                .collect();
            json.push_str(&spans.join(", "));
            json.push('}');
            json.push_str(&format!(", \"shards_effective\": {}", row.shards_effective));
            if let Some(sizes) = &row.shard_sizes {
                let sizes: Vec<String> = sizes.iter().map(ToString::to_string).collect();
                json.push_str(&format!(
                    ", \"shard_sizes\": [{}], \"boundary_comms\": {}",
                    sizes.join(", "),
                    row.boundary_comms.unwrap_or(0)
                ));
            }
            json.push_str(&format!(
                ", \"counters\": {}, \"telemetry_overhead\": {:.4}, \"telemetry_overhead_p25\": {:.4}, \"telemetry_overhead_p75\": {:.4}",
                row.counters.to_json(),
                row.telemetry_secs / row.best,
                row.telemetry_spread[0],
                row.telemetry_spread[1]
            ));
            json.push_str(&format!(
                "}}{}\n",
                if k + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str("  ]\n}\n");
        std::fs::write(&out_path, json).expect("write results json");
        println!();
        println!("wrote {out_path}");
    }

    if let Some(ratio) = max_ratio {
        let small = rows.iter().min_by_key(|r| r.n).expect("at least one size");
        let large = rows.iter().max_by_key(|r| r.n).expect("at least one size");
        let measured = small.ips / large.ips;
        println!(
            "scaling: {} instrs/s at {} vs {} at {} — ratio {measured:.2} (limit {ratio:.2})",
            small.ips.round(),
            small.n,
            large.ips.round(),
            large.n
        );
        if measured > ratio {
            eprintln!(
                "FAIL: throughput collapses {measured:.2}x from {} to {} instrs (limit {ratio:.2}x)",
                small.n, large.n
            );
            std::process::exit(1);
        }
    }
}
