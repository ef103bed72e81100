//! `--jobs` handling for the experiment binaries.
//!
//! Every experiment is a grid of independent cells (unit × machine ×
//! scheduler), each of which runs a full convergent schedule — easily
//! seconds of work on the larger sweeps. The binaries fan them out with
//! [`convergent_core::parallel::run_cells`], which returns results in
//! input order, so an experiment's output is byte-identical whatever
//! `--jobs` says.
//!
//! The schedulers are *not* shared across threads (a pass sequence
//! holds `Box<dyn Pass>`; a [`convergent_core::PreferenceMap`] is
//! `Sync` but each run builds its own): each cell closure constructs
//! its own scheduler from plain configuration, which is also what
//! keeps the per-cell work deterministic.

/// Number of worker threads to use by default: the machine's available
/// parallelism.
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
