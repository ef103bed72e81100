//! Dependency-free parallel fan-out for the experiment binaries.
//!
//! Every experiment is a grid of independent cells (unit × machine ×
//! scheduler), each of which runs a full convergent schedule — easily
//! seconds of work on the larger sweeps. [`run_cells`] fans a list of
//! such cells out over [`std::thread::scope`] worker threads and
//! returns the results **in input order**, so an experiment's output
//! is byte-identical whether it ran on one thread or sixteen: the
//! cells themselves are deterministic (fixed seeds, no shared mutable
//! state) and the ordering is restored by slot, not by completion.
//!
//! The schedulers are *not* shared across threads (a pass sequence
//! holds `Box<dyn Pass>`; a [`convergent_core::PreferenceMap`] is
//! `Sync` but each run builds its own): each cell closure constructs
//! its own scheduler from plain configuration, which is also what
//! keeps the per-cell work deterministic.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of worker threads to use by default: the machine's available
/// parallelism, capped by the number of jobs.
#[must_use]
pub fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Parses a `--jobs N` argument out of `args` (mutating it) and
/// returns the requested worker count, `default` if absent.
///
/// # Panics
///
/// Panics with a usage message if `--jobs` is present without a valid
/// positive integer.
pub fn jobs_from_args(args: &mut Vec<String>, default: usize) -> usize {
    if let Some(pos) = args.iter().position(|a| a == "--jobs") {
        let value = args
            .get(pos + 1)
            .and_then(|v| v.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| panic!("--jobs requires a positive integer"));
        args.drain(pos..=pos + 1);
        value
    } else {
        default
    }
}

/// Runs `f` over `0..n_cells` on up to `jobs` worker threads and
/// returns the results in index order.
///
/// `f` must be a pure function of its index (up to benign
/// non-determinism like wall-clock timing embedded in the result):
/// cells are claimed by an atomic counter, so *which thread* runs a
/// cell is scheduling-dependent, but the returned `Vec` is always
/// `[f(0), f(1), …, f(n_cells-1)]`.
///
/// With `jobs <= 1` or fewer than two cells the closure runs inline on
/// the caller's thread — no threads, no overhead, same results.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn run_indexed<T, F>(n_cells: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let workers = jobs.min(n_cells);
    if workers <= 1 {
        return (0..n_cells).map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_cells).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let k = next.fetch_add(1, Ordering::Relaxed);
                if k >= n_cells {
                    break;
                }
                let result = f(k);
                *slots[k].lock().unwrap() = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every cell is filled once the scope joins")
        })
        .collect()
}

/// [`run_indexed`] over an explicit list of inputs: returns
/// `[f(&cells[0]), f(&cells[1]), …]` in input order.
pub fn run_cells<C, T, F>(cells: &[C], jobs: usize, f: F) -> Vec<T>
where
    C: Sync,
    T: Send,
    F: Fn(&C) -> T + Sync,
{
    run_indexed(cells.len(), jobs, |k| f(&cells[k]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_input_order() {
        let cells: Vec<usize> = (0..100).collect();
        let out = run_cells(&cells, 8, |&c| c * 3);
        assert_eq!(out, (0..100).map(|c| c * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_matches_serial() {
        // The determinism contract: any job count gives the serial
        // answer, element for element.
        let serial = run_indexed(37, 1, |k| (k, k * k + 7));
        for jobs in [2, 3, 8, 64] {
            assert_eq!(run_indexed(37, jobs, |k| (k, k * k + 7)), serial);
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        assert_eq!(run_indexed(0, 8, |k| k), Vec::<usize>::new());
        assert_eq!(run_indexed(1, 8, |k| k + 1), vec![1]);
    }

    #[test]
    fn jobs_arg_parsing() {
        let mut args = vec!["--tiles".to_string(), "8".to_string()];
        assert_eq!(jobs_from_args(&mut args, 4), 4);
        assert_eq!(args.len(), 2);
        let mut args = vec![
            "--jobs".to_string(),
            "3".to_string(),
            "--tiles".to_string(),
            "8".to_string(),
        ];
        assert_eq!(jobs_from_args(&mut args, 4), 3);
        assert_eq!(args, vec!["--tiles".to_string(), "8".to_string()]);
    }

    #[test]
    #[should_panic(expected = "--jobs requires a positive integer")]
    fn bad_jobs_arg_panics() {
        let mut args = vec!["--jobs".to_string(), "zero".to_string()];
        jobs_from_args(&mut args, 4);
    }

    #[test]
    fn work_heavier_than_threads_still_completes() {
        // More cells than workers exercises the work-stealing loop.
        let out = run_indexed(1000, 4, |k| k % 7);
        assert_eq!(out.len(), 1000);
        assert!(out.iter().enumerate().all(|(k, &v)| v == k % 7));
    }
}
