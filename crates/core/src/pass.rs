//! The pass interface.
//!
//! "All phases in the convergent scheduler share a common interface.
//! The input or output to each phase is a collection of spatial and
//! temporal preferences of instructions. A phase operates by analyzing
//! the current preferences and modifying them." — Section 1.
//!
//! A [`Pass`] sees the world through [`PassContext`]: the dependence
//! graph, the machine, precomputed timing analysis, a deterministic
//! RNG (for NOISE), and the mutable [`PreferenceMap`].
//! Passes must not assume anything about which passes ran before them;
//! that independence is the framework's point.

use convergent_analysis::PassEffect;
use convergent_ir::{Dag, TimeAnalysis};
use convergent_machine::Machine;
use convergent_rng::Rng;

use crate::PreferenceMap;

/// Everything a pass may look at or change.
#[derive(Debug)]
pub struct PassContext<'a> {
    /// The dependence graph being scheduled.
    pub dag: &'a Dag,
    /// The target machine.
    pub machine: &'a Machine,
    /// Latency-weighted timing analysis of `dag` on `machine`.
    pub time: &'a TimeAnalysis,
    /// Deterministic randomness: the driver's seeded SplitMix64
    /// stream.
    pub rng: &'a mut Rng,
    /// The shared preference map.
    pub weights: &'a mut PreferenceMap,
    /// Reusable driver-owned buffers (see [`PassScratch`]).
    pub scratch: &'a mut PassScratch,
}

/// Reusable buffers owned by the driver and threaded through
/// [`PassContext::scratch`], so steady-state pass execution allocates
/// nothing per run. Contents are unspecified between runs — fill
/// before reading.
#[derive(Clone, Debug, Default)]
pub struct PassScratch {
    /// COMM's marginal snapshot, NOISE's draw row, PLACEPROP's factor
    /// row, PATHPROP's confidence table.
    pub a: Vec<f64>,
    /// COMM's skew matrix, PATHPROP's source marginal and blend row.
    pub b: Vec<f64>,
    /// COMM's grand-neighbor dedup stamps.
    pub mark: Vec<u32>,
}

/// The behavioural contract a pass declares, checked statically by
/// [`crate::contract::verify_pass`] from the pass's [`Pass::effect`]
/// summary; see [`ContractClaims`](convergent_analysis::ContractClaims)
/// for the clauses and their defaults.
pub use convergent_analysis::ContractClaims as PassContract;

/// One convergent-scheduling heuristic.
///
/// Implementations read and nudge `ctx.weights`; the driver normalizes
/// after every pass ("we run normalization at the end of every pass to
/// ensure the invariants"), so passes may scale weights freely.
///
/// # Example
///
/// A custom pass that biases even-numbered instructions toward
/// cluster 0:
///
/// ```
/// use convergent_core::{Pass, PassContext};
/// use convergent_ir::ClusterId;
///
/// struct EvenToZero;
///
/// impl Pass for EvenToZero {
///     fn name(&self) -> &'static str {
///         "even-to-zero"
///     }
///     fn run(&self, ctx: &mut PassContext<'_>) {
///         for i in ctx.dag.ids() {
///             if i.raw() % 2 == 0 {
///                 ctx.weights.scale_cluster(i, ClusterId::new(0), 2.0);
///             }
///         }
///     }
/// }
/// ```
///
/// Passes are `Send + Sync`: pass structs are immutable configuration
/// (all mutable state lives in [`PassContext`]), which is what lets
/// the shard workers of a sharded run share one
/// [`Sequence`](crate::Sequence).
pub trait Pass: Send + Sync {
    /// Short upper-case name matching the paper ("INITTIME", "NOISE",
    /// ...); used in convergence traces and reports.
    fn name(&self) -> &'static str;

    /// Returns `true` if this pass only adjusts temporal preferences.
    /// The paper's convergence plots (Figures 7 and 9) exclude such
    /// passes.
    fn is_time_only(&self) -> bool {
        false
    }

    /// Reads and nudges the preference map.
    fn run(&self, ctx: &mut PassContext<'_>);

    /// The behavioural contract this pass claims to honor; checked by
    /// `csched lint` through [`crate::contract::verify_pass`]. The
    /// default claims the full baseline contract, which every pass in
    /// [`crate::passes`] except INITTIME satisfies as-is.
    fn contract(&self) -> PassContract {
        PassContract::default()
    }

    /// The pass's abstract effect summary: an over-approximation of
    /// every `WeightOp` shape it can emit, phrased in the
    /// `convergent_analysis::absint` domain. The contract verifier
    /// tries to *prove* each [`Pass::contract`] clause from this
    /// summary for all inputs. The default — an opaque summary —
    /// proves nothing, so every claimed clause of a pass that keeps it
    /// is reported unproven (`CS064`).
    fn effect(&self) -> PassEffect {
        PassEffect::opaque()
    }
}
