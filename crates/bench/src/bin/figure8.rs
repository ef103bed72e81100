//! Figure 8: PCC vs UAS vs convergent scheduling on a four-cluster
//! VLIW. Speedup is relative to a single-cluster machine.
//!
//! The convergent scheduler uses the sequence re-tuned for this
//! workspace's cost model (`Sequence::vliw_tuned`); pass `--table1b`
//! to run the paper's verbatim Table 1(b) sequence instead.
//!
//! ```text
//! cargo run --release -p convergent-bench --bin figure8
//! cargo run --release -p convergent-bench --bin figure8 -- --jobs 4
//! ```

use convergent_bench::parallel::{default_jobs, jobs_from_args};
use convergent_bench::{geomean, print_row, speedup};
use convergent_core::parallel::run_cells;
use convergent_core::ConvergentScheduler;
use convergent_machine::Machine;
use convergent_schedulers::{PccScheduler, UasScheduler};
use convergent_workloads::vliw_suite;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let jobs = jobs_from_args(&mut args, default_jobs());
    let table1b = args.iter().any(|a| a == "--table1b");
    let machine = Machine::chorus_vliw(4);
    let suite = vliw_suite(4);
    print_row("benchmark", &["pcc", "uas", "convergent"].map(String::from));
    // One cell per unit; every cell builds its own schedulers so the
    // fan-out stays deterministic (see core::parallel).
    let results: Vec<(f64, f64, f64)> = run_cells(&suite, jobs, |unit| {
        let pcc = speedup(&PccScheduler::new(), unit, &machine)
            .unwrap_or_else(|e| panic!("pcc on {}: {e}", unit.name()));
        let uas = speedup(&UasScheduler::new(), unit, &machine)
            .unwrap_or_else(|e| panic!("uas on {}: {e}", unit.name()));
        let conv_sched = if table1b {
            ConvergentScheduler::vliw_default()
        } else {
            ConvergentScheduler::vliw_tuned()
        };
        let conv = speedup(&conv_sched, unit, &machine)
            .unwrap_or_else(|e| panic!("convergent on {}: {e}", unit.name()));
        (pcc, uas, conv)
    });
    let mut pcc_all = Vec::new();
    let mut uas_all = Vec::new();
    let mut conv_all = Vec::new();
    for (unit, &(pcc, uas, conv)) in suite.iter().zip(&results) {
        pcc_all.push(pcc);
        uas_all.push(uas);
        conv_all.push(conv);
        print_row(
            unit.name(),
            &[
                format!("{pcc:.2}"),
                format!("{uas:.2}"),
                format!("{conv:.2}"),
            ],
        );
    }
    println!();
    print_row(
        "geomean",
        &[
            format!("{:.2}", geomean(&pcc_all)),
            format!("{:.2}", geomean(&uas_all)),
            format!("{:.2}", geomean(&conv_all)),
        ],
    );
    println!();
    println!(
        "convergent vs UAS: {:+.1}%  (paper: +14%)",
        (geomean(&conv_all) / geomean(&uas_all) - 1.0) * 100.0
    );
    println!(
        "convergent vs PCC: {:+.1}%  (paper: +28%)",
        (geomean(&conv_all) / geomean(&pcc_all) - 1.0) * 100.0
    );
}
