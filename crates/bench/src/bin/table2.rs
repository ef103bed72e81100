//! Table 2 / Figure 6: Rawcc-baseline vs convergent scheduling on
//! Raw machines of 2–16 tiles. Speedups are relative to the same
//! graph executed on one tile.
//!
//! ```text
//! cargo run --release -p convergent-bench --bin table2
//! cargo run --release -p convergent-bench --bin table2 -- --tiles 16
//! cargo run --release -p convergent-bench --bin table2 -- --jobs 4
//! ```

use convergent_bench::parallel::{default_jobs, jobs_from_args};
use convergent_bench::{geomean, print_row, speedup};
use convergent_core::parallel::run_cells;
use convergent_core::ConvergentScheduler;
use convergent_machine::Machine;
use convergent_schedulers::{RawccScheduler, Scheduler};
use convergent_workloads::raw_suite;

fn main() {
    let mut args: Vec<String> = std::env::args().collect();
    let jobs = jobs_from_args(&mut args, default_jobs());
    let tile_configs: Vec<u16> = match args.iter().position(|a| a == "--tiles") {
        Some(k) => vec![args
            .get(k + 1)
            .and_then(|v| v.parse().ok())
            .expect("--tiles takes a number")],
        None => vec![2, 4, 8, 16],
    };

    println!("Table 2: Rawcc speedup vs Convergent speedup (relative to one tile)");
    println!();
    let header: Vec<String> = tile_configs
        .iter()
        .map(|t| format!("base/{t}"))
        .chain(tile_configs.iter().map(|t| format!("conv/{t}")))
        .collect();
    print_row("benchmark", &header);

    let bench_names: Vec<String> = raw_suite(4).iter().map(|u| u.name().to_string()).collect();

    // One cell per benchmark × tile count; each cell builds its own
    // scheduler, so the fan-out is deterministic (see core::parallel).
    let cells: Vec<(String, u16)> = bench_names
        .iter()
        .flat_map(|name| tile_configs.iter().map(move |&t| (name.clone(), t)))
        .collect();
    let results: Vec<(f64, f64)> = run_cells(&cells, jobs, |(name, tiles)| {
        let unit = raw_suite(*tiles)
            .into_iter()
            .find(|u| u.name() == name)
            .expect("suite roster is fixed");
        let machine = Machine::raw(*tiles);
        let base = speedup(&RawccScheduler::new(), &unit, &machine)
            .unwrap_or_else(|e| panic!("rawcc on {name}/{tiles}: {e}"));
        let conv = speedup(&ConvergentScheduler::raw_default(), &unit, &machine)
            .unwrap_or_else(|e| panic!("convergent on {name}/{tiles}: {e}"));
        (base, conv)
    });

    let mut base_all: Vec<Vec<f64>> = vec![Vec::new(); tile_configs.len()];
    let mut conv_all: Vec<Vec<f64>> = vec![Vec::new(); tile_configs.len()];
    for (row, name) in bench_names.iter().enumerate() {
        let mut cells_out = Vec::new();
        let row_results = &results[row * tile_configs.len()..(row + 1) * tile_configs.len()];
        for (k, &(base, conv)) in row_results.iter().enumerate() {
            base_all[k].push(base);
            conv_all[k].push(conv);
        }
        for &(base, _) in row_results {
            cells_out.push(format!("{base:.2}"));
        }
        for &(_, conv) in row_results {
            cells_out.push(format!("{conv:.2}"));
        }
        print_row(name, &cells_out);
    }

    println!();
    let mut cells_out = Vec::new();
    for col in &base_all {
        cells_out.push(format!("{:.2}", geomean(col)));
    }
    for col in &conv_all {
        cells_out.push(format!("{:.2}", geomean(col)));
    }
    print_row("geomean", &cells_out);

    println!();
    for (k, &tiles) in tile_configs.iter().enumerate() {
        let improvement = (geomean(&conv_all[k]) / geomean(&base_all[k]) - 1.0) * 100.0;
        println!("convergent vs rawcc @ {tiles:>2} tiles: {improvement:+.1}%  (paper @16: +21%)");
    }
    // Figure 6 is the 16-tile column of this table as a bar chart.
    let _ = Scheduler::name(&RawccScheduler::new());
}
