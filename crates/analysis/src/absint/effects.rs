//! Pass effect summaries and the per-pass contract prover.
//!
//! A [`PassEffect`] is a pass author's machine-checkable statement of
//! everything the pass can do to the preference map, phrased in the
//! abstract domain: each [`EffectOp`] over-approximates one family of
//! `WeightOp`s the pass may emit, with data-dependent magnitudes
//! widened to [`Interval`]s. [`prove_contract`] then decides each
//! clause of the declared [`ContractClaims`] by symbolic execution:
//!
//! * **window_respecting** — holds unless some absolute write can land
//!   outside a window with nonzero weight (scales cannot create weight
//!   where there is none: `0 · x = 0`).
//! * **preplacement_monotone** — holds when no op can take a positive
//!   home-cluster cell to zero: no unconditional `Forbid`, every scale
//!   factor strictly positive, every absolute write support-preserving.
//! * **normalization_preserving** — holds when every written value and
//!   factor is finite and non-negative, so the driver's normalization
//!   restores the invariants.
//! * **deterministic** — holds when the pass draws only on the graph
//!   and the seeded RNG.
//! * **establishes_windows** — holds when the summary contains an
//!   `EstablishWindows` op.
//!
//! Each rule answers [`Verdict::Proven`], [`Verdict::Unproven`] (the
//! summary is too coarse to decide), or [`Verdict::RefutedStatic`]
//! (the summary itself violates the claim, so the pass is rejected
//! without running it).

use crate::absint::domain::Interval;
use crate::{Code, Diagnostic};

/// Where a pass's behaviour draws from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Determinism {
    /// Only the graph, machine, and current map — replayable.
    PureGraph,
    /// Additionally consumes the driver-seeded RNG — replayable for a
    /// fixed seed.
    SeededRng,
    /// Reads clocks, ambient state, or other unseeded inputs.
    External,
}

/// One abstract operation family a pass may perform.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum EffectOp {
    /// Establishes feasibility windows and squashes weight outside
    /// them (INITTIME's `set_window`).
    EstablishWindows,
    /// An absolute write (`set`/`add`) of a value in `value`.
    Absolute {
        /// Every such write targets a cell inside the instruction's
        /// feasible window.
        in_window: bool,
        /// Range of the written value.
        value: Interval,
        /// The written value consumes RNG draws.
        randomized: bool,
        /// The write never takes a positive cell to zero (e.g. an
        /// additive nudge, or a blend keeping a fraction of the old
        /// value).
        preserves_support: bool,
    },
    /// Scales whole cluster columns by a factor in `factor`.
    ScaleClusters {
        /// Range of the multiplicative factor.
        factor: Interval,
    },
    /// Scales individual `(c, t)` cells by a factor in `factor`.
    ScaleCells {
        /// Range of the multiplicative factor.
        factor: Interval,
    },
    /// Scales whole time rows by a factor in `factor`.
    ScaleTimes {
        /// Range of the multiplicative factor.
        factor: Interval,
    },
    /// Zeroes a cluster column outright.
    Forbid {
        /// The pass only forbids clusters that cannot execute the
        /// instruction (never a capable preplacement home).
        only_incapable: bool,
    },
    /// Explicitly renormalizes rows (the driver does this after every
    /// pass anyway).
    Normalize,
}

/// The full effect summary of one pass.
#[derive(Clone, Debug, PartialEq)]
pub struct PassEffect {
    /// Every operation family the pass can emit, in program order.
    pub ops: Vec<EffectOp>,
    /// What the behaviour depends on.
    pub determinism: Determinism,
    /// The pass reads current feasibility windows (to guard writes or
    /// choose targets).
    pub reads_windows: bool,
    /// The pass can make cluster marginals differ on a fully uniform
    /// map (break argmax ties away from cluster 0).
    pub breaks_symmetry: bool,
    /// The pass adjusts only temporal preferences.
    pub time_only: bool,
    /// No summary is available; every clause is [`Verdict::Unproven`].
    pub opaque: bool,
}

impl PassEffect {
    /// The absent summary: nothing is known, every claimed contract
    /// clause is unproven.
    #[must_use]
    pub fn opaque() -> Self {
        PassEffect {
            ops: Vec::new(),
            determinism: Determinism::PureGraph,
            reads_windows: false,
            breaks_symmetry: false,
            time_only: false,
            opaque: true,
        }
    }

    /// A summary with the given ops, deterministic from the graph
    /// alone, with the remaining facts defaulted off.
    #[must_use]
    pub fn new(ops: Vec<EffectOp>) -> Self {
        PassEffect {
            ops,
            determinism: Determinism::PureGraph,
            reads_windows: false,
            breaks_symmetry: false,
            time_only: false,
            opaque: false,
        }
    }

    /// Sets the determinism class.
    #[must_use]
    pub fn with_determinism(mut self, d: Determinism) -> Self {
        self.determinism = d;
        self
    }

    /// Marks the pass as reading feasibility windows.
    #[must_use]
    pub fn reads_windows(mut self) -> Self {
        self.reads_windows = true;
        self
    }

    /// Marks the pass as able to break cluster symmetry.
    #[must_use]
    pub fn breaks_symmetry(mut self) -> Self {
        self.breaks_symmetry = true;
        self
    }

    /// Marks the pass as time-only.
    #[must_use]
    pub fn time_only(mut self) -> Self {
        self.time_only = true;
        self
    }
}

/// The behavioural contract a pass declares — the five clauses
/// [`prove_contract`] checks against the pass's effect summary: proved
/// clauses pass, refuted ones are reported as their `CS06x` code, and
/// clauses the summary cannot decide as `CS064`. `convergent_core`
/// re-exports it as `PassContract`.
///
/// Every field defaults to the framework's baseline expectations
/// (`ContractClaims::default()`); a pass relaxes a clause only where it
/// intentionally does not honor it — INITTIME, which creates the
/// feasibility windows in the first place, sets
/// [`ContractClaims::establishes_windows`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContractClaims {
    /// This pass *establishes* feasibility (windows and executable
    /// clusters) rather than working inside it; the window-respecting
    /// check is skipped. Only INITTIME sets this.
    pub establishes_windows: bool,
    /// Absolute writes (`set`/`add`) land inside the instruction's
    /// feasible window. Multiplicative operations cannot violate
    /// feasibility (zero times anything is zero), so only absolute
    /// writes are checked. Violations are `CS060`.
    pub window_respecting: bool,
    /// Identical inputs and an identically seeded RNG produce the
    /// bit-identical operation log. Violations are `CS061`.
    pub deterministic: bool,
    /// The preference-map invariants (`W ∈ [0,1]`, `Σ W[i] = 1`,
    /// consistent marginals) hold after the pass runs and the driver
    /// normalizes. Violations are `CS062`.
    pub normalization_preserving: bool,
    /// The pass never forbids (or zero-scales) the home cluster of a
    /// preplaced instruction that its home can execute. Violations
    /// are `CS063`.
    pub preplacement_monotone: bool,
}

impl Default for ContractClaims {
    fn default() -> Self {
        ContractClaims {
            establishes_windows: false,
            window_respecting: true,
            deterministic: true,
            normalization_preserving: true,
            preplacement_monotone: true,
        }
    }
}

/// The outcome of trying to prove one contract clause.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The clause holds for all inputs.
    Proven,
    /// The summary is too coarse (or absent) to decide; the clause is
    /// reported unverified (`CS064`).
    Unproven,
    /// The summary itself violates the clause; the pass is rejected
    /// without running anything.
    RefutedStatic,
}

/// Per-clause verdicts for one pass.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ContractProof {
    /// Verdict for `window_respecting`.
    pub window_respecting: Verdict,
    /// Verdict for `preplacement_monotone`.
    pub preplacement_monotone: Verdict,
    /// Verdict for `normalization_preserving`.
    pub normalization_preserving: Verdict,
    /// Verdict for `deterministic`.
    pub deterministic: Verdict,
    /// Verdict for `establishes_windows`.
    pub establishes_windows: Verdict,
}

impl ContractProof {
    /// The five verdicts as `(clause name, verdict)` pairs.
    #[must_use]
    pub fn clauses(&self) -> [(&'static str, Verdict); 5] {
        [
            ("window_respecting", self.window_respecting),
            ("preplacement_monotone", self.preplacement_monotone),
            ("normalization_preserving", self.normalization_preserving),
            ("deterministic", self.deterministic),
            ("establishes_windows", self.establishes_windows),
        ]
    }

    /// `true` when every clause is [`Verdict::Proven`].
    #[must_use]
    pub fn all_proven(&self) -> bool {
        self.clauses().iter().all(|&(_, v)| v == Verdict::Proven)
    }

    /// `(proven, unproven, refuted)` clause counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize) {
        let mut c = (0, 0, 0);
        for (_, v) in self.clauses() {
            match v {
                Verdict::Proven => c.0 += 1,
                Verdict::Unproven => c.1 += 1,
                Verdict::RefutedStatic => c.2 += 1,
            }
        }
        c
    }
}

/// One pass of a sequence, as the analyzer sees it: its name, the
/// contract it claims, and its effect summary.
#[derive(Clone, Debug, PartialEq)]
pub struct PassSummary {
    /// The pass's display name ("INITTIME", "NOISE", ...).
    pub name: String,
    /// The contract the pass claims.
    pub claims: ContractClaims,
    /// The declared effect summary.
    pub effect: PassEffect,
}

impl PassSummary {
    /// Bundles a name, claims, and effect.
    #[must_use]
    pub fn new(name: impl Into<String>, claims: ContractClaims, effect: PassEffect) -> Self {
        PassSummary {
            name: name.into(),
            claims,
            effect,
        }
    }
}

/// Attempts to prove every claimed contract clause of `pass` from its
/// effect summary alone. Returns the per-clause verdicts plus one
/// diagnostic per statically refuted clause; an unclaimed clause is
/// vacuously [`Verdict::Proven`].
#[must_use]
pub fn prove_contract(pass: &PassSummary) -> (ContractProof, Vec<Diagnostic>) {
    let claims = &pass.claims;
    let eff = &pass.effect;
    let mut diags = Vec::new();

    let window_respecting = if !claims.window_respecting || claims.establishes_windows {
        // Either unclaimed, or the pass defines feasibility itself and
        // the clause is checked against the windows it creates.
        Verdict::Proven
    } else if eff.opaque {
        Verdict::Unproven
    } else {
        let escapes = eff.ops.iter().any(|op| {
            matches!(
                op,
                EffectOp::Absolute {
                    in_window: false,
                    value,
                    ..
                } if value.hi > 0.0
            )
        });
        if escapes {
            diags.push(Diagnostic::new(
                Code::OutOfWindowWrite,
                vec![],
                format!(
                    "pass {} declares an absolute write outside feasible windows; \
                     window_respecting is statically refuted",
                    pass.name
                ),
            ));
            Verdict::RefutedStatic
        } else {
            Verdict::Proven
        }
    };

    let preplacement_monotone = if !claims.preplacement_monotone {
        Verdict::Proven
    } else if eff.opaque {
        Verdict::Unproven
    } else {
        let mut verdict = Verdict::Proven;
        for op in &eff.ops {
            match op {
                EffectOp::Forbid {
                    only_incapable: false,
                } => {
                    diags.push(Diagnostic::new(
                        Code::PreplacementDemoted,
                        vec![],
                        format!(
                            "pass {} declares an unconditional cluster forbid; \
                             preplacement_monotone is statically refuted",
                            pass.name
                        ),
                    ));
                    verdict = Verdict::RefutedStatic;
                    break;
                }
                EffectOp::ScaleClusters { factor }
                | EffectOp::ScaleCells { factor }
                | EffectOp::ScaleTimes { factor }
                    if !factor.is_positive() =>
                {
                    // A zero factor could zero the home cluster, but
                    // only refutes if it actually targets one — too
                    // coarse to decide statically.
                    verdict = Verdict::Unproven;
                }
                EffectOp::Absolute {
                    preserves_support: false,
                    ..
                } => {
                    verdict = Verdict::Unproven;
                }
                _ => {}
            }
        }
        verdict
    };

    let normalization_preserving = if !claims.normalization_preserving {
        Verdict::Proven
    } else if eff.opaque {
        Verdict::Unproven
    } else {
        let mut verdict = Verdict::Proven;
        for op in &eff.ops {
            let bad = match op {
                EffectOp::Absolute { value, .. } => !value.is_finite() || !value.is_nonneg(),
                EffectOp::ScaleClusters { factor }
                | EffectOp::ScaleCells { factor }
                | EffectOp::ScaleTimes { factor } => !factor.is_finite() || !factor.is_nonneg(),
                EffectOp::EstablishWindows | EffectOp::Forbid { .. } | EffectOp::Normalize => false,
            };
            if bad {
                diags.push(Diagnostic::new(
                    Code::BrokenNormalization,
                    vec![],
                    format!(
                        "pass {} declares a non-finite or negative write; \
                         normalization_preserving is statically refuted",
                        pass.name
                    ),
                ));
                verdict = Verdict::RefutedStatic;
                break;
            }
        }
        verdict
    };

    let deterministic = if !claims.deterministic {
        Verdict::Proven
    } else if eff.opaque {
        Verdict::Unproven
    } else {
        match eff.determinism {
            Determinism::PureGraph | Determinism::SeededRng => Verdict::Proven,
            Determinism::External => {
                diags.push(Diagnostic::new(
                    Code::NondeterministicPass,
                    vec![],
                    format!(
                        "pass {} declares unseeded external inputs; \
                         deterministic is statically refuted",
                        pass.name
                    ),
                ));
                Verdict::RefutedStatic
            }
        }
    };

    let establishes_windows = if !claims.establishes_windows {
        Verdict::Proven
    } else if eff.opaque {
        Verdict::Unproven
    } else if eff.ops.contains(&EffectOp::EstablishWindows) {
        Verdict::Proven
    } else {
        // Claimed but absent from the summary: the summary may simply
        // be incomplete, so this is never a static refutation.
        Verdict::Unproven
    };

    (
        ContractProof {
            window_respecting,
            preplacement_monotone,
            normalization_preserving,
            deterministic,
            establishes_windows,
        },
        diags,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(effect: PassEffect) -> PassSummary {
        PassSummary::new("TEST", ContractClaims::default(), effect)
    }

    #[test]
    fn opaque_effect_is_fully_unproven_except_vacuous() {
        let (proof, diags) = prove_contract(&summary(PassEffect::opaque()));
        assert!(diags.is_empty());
        assert_eq!(proof.window_respecting, Verdict::Unproven);
        assert_eq!(proof.deterministic, Verdict::Unproven);
        // establishes_windows unclaimed -> vacuously proven.
        assert_eq!(proof.establishes_windows, Verdict::Proven);
    }

    #[test]
    fn clean_scale_pass_is_fully_proven() {
        let eff = PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::point(1.2),
        }]);
        let (proof, diags) = prove_contract(&summary(eff));
        assert!(diags.is_empty());
        assert!(proof.all_proven(), "{proof:?}");
    }

    #[test]
    fn out_of_window_write_is_statically_refuted() {
        let eff = PassEffect::new(vec![EffectOp::Absolute {
            in_window: false,
            value: Interval::point(0.9),
            randomized: false,
            preserves_support: true,
        }]);
        let (proof, diags) = prove_contract(&summary(eff));
        assert_eq!(proof.window_respecting, Verdict::RefutedStatic);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code, Code::OutOfWindowWrite);
        assert!(diags[0].message.contains("statically"));
    }

    #[test]
    fn zero_valued_out_of_window_write_is_harmless() {
        let eff = PassEffect::new(vec![EffectOp::Absolute {
            in_window: false,
            value: Interval::point(0.0),
            randomized: false,
            preserves_support: true,
        }]);
        let (proof, _) = prove_contract(&summary(eff));
        assert_eq!(proof.window_respecting, Verdict::Proven);
    }

    #[test]
    fn unconditional_forbid_refutes_monotone() {
        let eff = PassEffect::new(vec![EffectOp::Forbid {
            only_incapable: false,
        }]);
        let (proof, diags) = prove_contract(&summary(eff));
        assert_eq!(proof.preplacement_monotone, Verdict::RefutedStatic);
        assert_eq!(diags[0].code, Code::PreplacementDemoted);
    }

    #[test]
    fn zero_factor_scale_is_unproven_not_refuted() {
        let eff = PassEffect::new(vec![EffectOp::ScaleClusters {
            factor: Interval::new(0.0, 1.0),
        }]);
        let (proof, diags) = prove_contract(&summary(eff));
        assert_eq!(proof.preplacement_monotone, Verdict::Unproven);
        assert!(diags.is_empty());
    }

    #[test]
    fn infinite_factor_refutes_normalization() {
        let eff = PassEffect::new(vec![EffectOp::ScaleTimes {
            factor: Interval::new(1.0, f64::INFINITY),
        }]);
        let (proof, diags) = prove_contract(&summary(eff));
        assert_eq!(proof.normalization_preserving, Verdict::RefutedStatic);
        assert_eq!(diags[0].code, Code::BrokenNormalization);
    }

    #[test]
    fn external_determinism_is_refuted() {
        let eff = PassEffect::new(vec![]).with_determinism(Determinism::External);
        let (proof, diags) = prove_contract(&summary(eff));
        assert_eq!(proof.deterministic, Verdict::RefutedStatic);
        assert_eq!(diags[0].code, Code::NondeterministicPass);
    }

    #[test]
    fn claimed_windows_without_op_is_unproven() {
        let claims = ContractClaims {
            establishes_windows: true,
            ..ContractClaims::default()
        };
        let pass = PassSummary::new("T", claims, PassEffect::new(vec![]));
        let (proof, diags) = prove_contract(&pass);
        assert_eq!(proof.establishes_windows, Verdict::Unproven);
        assert!(diags.is_empty());
        let pass = PassSummary::new(
            "T",
            claims,
            PassEffect::new(vec![EffectOp::EstablishWindows]),
        );
        let (proof, _) = prove_contract(&pass);
        assert_eq!(proof.establishes_windows, Verdict::Proven);
    }

    #[test]
    fn proof_counts_add_up() {
        let (proof, _) = prove_contract(&summary(PassEffect::opaque()));
        let (p, u, r) = proof.counts();
        assert_eq!(p + u + r, 5);
        assert_eq!(r, 0);
    }
}
