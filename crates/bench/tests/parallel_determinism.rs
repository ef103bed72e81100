//! The parallel harness contract, end to end: running real experiment
//! cells (full convergent schedules with fixed seeds) through
//! `run_cells` must produce bit-identical results for every job count.

use convergent_bench::speedup;
use convergent_core::parallel::{run_cells, run_indexed};
use convergent_core::ConvergentScheduler;
use convergent_ir::SchedulingUnit;
use convergent_machine::Machine;
use convergent_workloads::{jacobi, mxm, sha, MxmParams, ShaParams, StencilParams};

fn kernels() -> Vec<SchedulingUnit> {
    vec![
        mxm(MxmParams::for_banks(2)),
        jacobi(StencilParams::for_banks(2)),
        sha(ShaParams { rounds: 4 }),
    ]
}

#[test]
fn experiment_cells_are_bitwise_deterministic_across_job_counts() {
    let machine = Machine::raw(2);
    let units = kernels();
    let eval = |unit: &SchedulingUnit| {
        speedup(&ConvergentScheduler::raw_default(), unit, &machine)
            .unwrap_or_else(|e| panic!("{}: {e}", unit.name()))
    };
    let serial: Vec<u64> = run_cells(&units, 1, eval)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    for jobs in [2, 3, 8] {
        let parallel: Vec<u64> = run_cells(&units, jobs, eval)
            .iter()
            .map(|v| v.to_bits())
            .collect();
        assert_eq!(serial, parallel, "jobs={jobs} diverged from serial");
    }
}

#[test]
fn repeated_parallel_runs_are_stable() {
    let machine = Machine::raw(2);
    let units = kernels();
    let eval = |unit: &SchedulingUnit| {
        speedup(&ConvergentScheduler::raw_default(), unit, &machine).expect("schedules")
    };
    let first: Vec<u64> = run_cells(&units, 4, eval)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let second: Vec<u64> = run_cells(&units, 4, eval)
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(first, second);
}

#[test]
fn index_fanout_preserves_order_under_load() {
    // Uneven per-cell work so threads finish out of order; the result
    // vector must still be in input order.
    let out = run_indexed(64, 8, |k| {
        let mut acc = k as u64;
        for _ in 0..(64 - k) * 1000 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        (k, acc)
    });
    let serial = run_indexed(64, 1, |k| {
        let mut acc = k as u64;
        for _ in 0..(64 - k) * 1000 {
            acc = acc.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
        }
        (k, acc)
    });
    assert_eq!(out, serial);
}
