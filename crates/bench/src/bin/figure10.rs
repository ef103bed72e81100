//! Figure 10: compile-time scalability — scheduling time vs input
//! size for PCC, UAS, and convergent scheduling on the Chorus VLIW,
//! including time spent in the list scheduler (as the paper measures).
//!
//! The paper sweeps scheduling regions up to ~2000 instructions and
//! finds convergent and UAS scale comparably while PCC blows up: its
//! iterative descent estimates the schedule length once per component
//! × other cluster × round. Beside the seconds, the `pcc probes`
//! column counts those estimates, the cost that does not depend on how
//! fast one probe is.
//!
//! ```text
//! cargo run --release -p convergent-bench --bin figure10
//! cargo run --release -p convergent-bench --bin figure10 -- --jobs 4
//! ```
//!
//! Rows run serially by default so per-row wall-clock numbers are not
//! perturbed by sibling rows competing for cores; `--jobs N` opts into
//! the parallel harness (row *ordering* is preserved either way, but
//! timings then reflect a loaded machine).

use std::time::Instant;

use convergent_bench::parallel::jobs_from_args;
use convergent_core::parallel::run_cells;
use convergent_core::ConvergentScheduler;
use convergent_machine::Machine;
use convergent_schedulers::{PccScheduler, Scheduler, UasScheduler};
use convergent_workloads::{layered, LayeredParams};

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let jobs = jobs_from_args(&mut args, 1);
    let machine = Machine::chorus_vliw(4);
    let sizes = [50usize, 100, 200, 400, 800, 1200, 1600, 2000];
    println!(
        "{:>8}{:>14}{:>12}{:>14}{:>14}",
        "instrs", "pcc (s)", "pcc probes", "uas (s)", "conv (s)"
    );
    let rows: Vec<(usize, f64, u64, f64, f64)> = run_cells(&sizes, jobs, |&n| {
        let unit = layered(
            LayeredParams::new(n, 0xF16)
                .with_width(8)
                .with_preplacement(0.5, 4),
        );
        let pcc = time(|| {
            PccScheduler::new()
                .schedule(unit.dag(), &machine)
                .expect("pcc schedules")
                .makespan()
        });
        let probes = PccScheduler::new()
            .descent_probes(unit.dag(), &machine)
            .expect("pcc assigns");
        let uas = time(|| {
            UasScheduler::new()
                .schedule(unit.dag(), &machine)
                .expect("uas schedules")
                .makespan()
        });
        let conv = time(|| {
            Scheduler::schedule(&ConvergentScheduler::vliw_default(), unit.dag(), &machine)
                .expect("convergent schedules")
                .makespan()
        });
        (n, pcc, probes, uas, conv)
    });
    for (n, pcc, probes, uas, conv) in rows {
        println!("{n:>8}{pcc:>14.4}{probes:>12}{uas:>14.4}{conv:>14.4}");
    }
    println!();
    println!("(paper: convergent and UAS take about the same time; both scale");
    println!(" considerably better than PCC)");
}

fn time<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    let _ = f();
    start.elapsed().as_secs_f64()
}
