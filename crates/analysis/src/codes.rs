//! The stable `CSxxx` diagnostic-code catalogue.

use std::fmt;

use crate::Severity;

/// A stable diagnostic code.
///
/// Codes are grouped by decade: `CS00x` graph structure, `CS01x`
/// timing and preplacement feasibility, `CS02x` op-class coverage,
/// `CS03x` advisory graph hygiene, `CS04x` component structure and
/// shardability, `CS05x` machine-model consistency, `CS06x` pass
/// contracts, `CS07x` pipeline dataflow (ordering and redundancy
/// hazards in a pass sequence). The string ids are append-only: a
/// code is never renumbered or reused, so tooling may match on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Code {
    /// `CS001`: the dependence graph contains a cycle.
    Cycle,
    /// `CS002`: an edge endpoint references a nonexistent instruction.
    DanglingEdge,
    /// `CS003`: an instruction depends on itself.
    SelfEdge,
    /// `CS004`: the same dependence edge is listed twice.
    DuplicateEdge,
    /// `CS005`: the scheduling unit has no instructions.
    EmptyGraph,
    /// `CS010`: an instruction's feasible window is infeasible — its
    /// ASAP/ALAP times cannot be represented in cycle arithmetic
    /// (overflow) or contradict each other.
    InfeasibleWindow,
    /// `CS011`: a preplacement names a cluster the machine does not
    /// have.
    BadHomeCluster,
    /// `CS012`: a preplaced instruction's home cluster cannot execute
    /// its operation class — a contradictory preplacement.
    IncapableHome,
    /// `CS013`: two hard-preplaced instructions on a dependence edge
    /// sit further apart than the edge's slack allows; the nominal
    /// critical path is unachievable.
    TightPreplacedPair,
    /// `CS020`: no cluster in the machine can execute an instruction's
    /// operation class.
    UncoverableClass,
    /// `CS021`: the input graph contains a communication pseudo-op
    /// (`copy`/`send`/`recv`) that only schedulers may insert.
    CommOpInInput,
    /// `CS030`: a side-effect-free instruction has no consumers (dead
    /// value).
    DeadValue,
    /// `CS031`: the static register-pressure lower bound exceeds the
    /// machine's total register count.
    PressureOverRegisters,
    /// `CS040`: the graph splits into several weakly-connected
    /// components but one giant component holds more than 3/4 of the
    /// instructions; packing components cannot balance the shards, so
    /// region sharding has to level-chop the giant.
    DegenerateShardStructure,
    /// `CS041`: the graph exceeds the region-size target but the
    /// governed cut search the sharded driver runs
    /// (`convergent_ir::plan_regions`, target doubling included)
    /// accepts no cut — every cut tried is degenerate, mostly
    /// cross-shard edges or one shard holding nearly the whole graph —
    /// so sharded scheduling will fall back to a monolithic schedule.
    DegenerateRegionCut,
    /// `CS050`: the latency table reports zero latency for a
    /// non-communication operation class used by the graph.
    ZeroLatency,
    /// `CS051`: nonzero `Send`/`Recv` latency on a register-mapped
    /// machine, where network ports piggyback on producer/consumer
    /// instructions.
    CommLatencyMismatch,
    /// `CS052`: a cluster on a copy-based machine has no copy-capable
    /// functional unit, so it can never source a cross-cluster
    /// transfer.
    MissingTransferUnit,
    /// `CS060`: a pass performed an absolute weight write outside an
    /// instruction's feasible window.
    OutOfWindowWrite,
    /// `CS061`: a pass produced different writes on identical inputs
    /// with the same seed.
    NondeterministicPass,
    /// `CS062`: the preference map violated its normalization
    /// invariants after a pass ran.
    BrokenNormalization,
    /// `CS063`: a pass forbade (or zeroed) the home cluster of a
    /// preplaced instruction.
    PreplacementDemoted,
    /// `CS064`: a pass claims a contract clause that its effect
    /// summary cannot decide (the default opaque summary decides
    /// none), so the clause is unverified.
    ContractUnproven,
    /// `CS070`: a pass reads or writes inside feasibility windows
    /// before any pass in the sequence establishes them.
    WindowsReadBeforeEstablished,
    /// `CS071`: a pass whose entire effect is dead at its position —
    /// a repeated window-establishing pass, or a cluster-only scaling
    /// pass on a single-cluster target.
    DeadPass,
    /// `CS072`: a pass ends with an explicit normalization of a map
    /// the driver normalizes anyway after every pass.
    RedundantNormalization,
    /// `CS073`: a randomized (noise) pass runs after a deterministic
    /// symmetry-breaking pass, eroding the bias the earlier pass
    /// established.
    NoiseAfterBias,
    /// `CS074`: no pass in the sequence can break cluster symmetry on
    /// a multi-cluster target, so preferences never reach decidable
    /// confidence.
    UndecidableConfidence,
}

impl Code {
    /// Every code, in catalogue order — used to generate and test the
    /// `docs/DIAGNOSTICS.md` catalogue.
    pub const ALL: [Code; 28] = [
        Code::Cycle,
        Code::DanglingEdge,
        Code::SelfEdge,
        Code::DuplicateEdge,
        Code::EmptyGraph,
        Code::InfeasibleWindow,
        Code::BadHomeCluster,
        Code::IncapableHome,
        Code::TightPreplacedPair,
        Code::UncoverableClass,
        Code::CommOpInInput,
        Code::DeadValue,
        Code::PressureOverRegisters,
        Code::DegenerateShardStructure,
        Code::DegenerateRegionCut,
        Code::ZeroLatency,
        Code::CommLatencyMismatch,
        Code::MissingTransferUnit,
        Code::OutOfWindowWrite,
        Code::NondeterministicPass,
        Code::BrokenNormalization,
        Code::PreplacementDemoted,
        Code::ContractUnproven,
        Code::WindowsReadBeforeEstablished,
        Code::DeadPass,
        Code::RedundantNormalization,
        Code::NoiseAfterBias,
        Code::UndecidableConfidence,
    ];

    /// The stable string id, e.g. `"CS001"`.
    #[must_use]
    pub const fn id(self) -> &'static str {
        match self {
            Code::Cycle => "CS001",
            Code::DanglingEdge => "CS002",
            Code::SelfEdge => "CS003",
            Code::DuplicateEdge => "CS004",
            Code::EmptyGraph => "CS005",
            Code::InfeasibleWindow => "CS010",
            Code::BadHomeCluster => "CS011",
            Code::IncapableHome => "CS012",
            Code::TightPreplacedPair => "CS013",
            Code::UncoverableClass => "CS020",
            Code::CommOpInInput => "CS021",
            Code::DeadValue => "CS030",
            Code::PressureOverRegisters => "CS031",
            Code::DegenerateShardStructure => "CS040",
            Code::DegenerateRegionCut => "CS041",
            Code::ZeroLatency => "CS050",
            Code::CommLatencyMismatch => "CS051",
            Code::MissingTransferUnit => "CS052",
            Code::OutOfWindowWrite => "CS060",
            Code::NondeterministicPass => "CS061",
            Code::BrokenNormalization => "CS062",
            Code::PreplacementDemoted => "CS063",
            Code::ContractUnproven => "CS064",
            Code::WindowsReadBeforeEstablished => "CS070",
            Code::DeadPass => "CS071",
            Code::RedundantNormalization => "CS072",
            Code::NoiseAfterBias => "CS073",
            Code::UndecidableConfidence => "CS074",
        }
    }

    /// The severity a diagnostic with this code carries by default.
    ///
    /// `CS012` is the one context-dependent code: contradictory
    /// preplacement is an [`Severity::Error`] on machines where
    /// preplacement is a hard constraint and a [`Severity::Warning`]
    /// otherwise; this returns the hard-machine severity.
    #[must_use]
    pub const fn default_severity(self) -> Severity {
        match self {
            Code::Cycle
            | Code::DanglingEdge
            | Code::SelfEdge
            | Code::DuplicateEdge
            | Code::EmptyGraph
            | Code::InfeasibleWindow
            | Code::BadHomeCluster
            | Code::IncapableHome
            | Code::UncoverableClass
            | Code::OutOfWindowWrite
            | Code::NondeterministicPass
            | Code::BrokenNormalization
            | Code::PreplacementDemoted
            | Code::MissingTransferUnit => Severity::Error,
            Code::CommOpInInput
            | Code::ZeroLatency
            | Code::CommLatencyMismatch
            | Code::ContractUnproven
            | Code::WindowsReadBeforeEstablished
            | Code::DeadPass
            | Code::NoiseAfterBias
            | Code::UndecidableConfidence => Severity::Warning,
            Code::TightPreplacedPair
            | Code::DeadValue
            | Code::PressureOverRegisters
            | Code::DegenerateShardStructure
            | Code::DegenerateRegionCut
            | Code::RedundantNormalization => Severity::Note,
        }
    }

    /// One-line human summary of what the code means.
    #[must_use]
    pub const fn summary(self) -> &'static str {
        match self {
            Code::Cycle => "dependence graph contains a cycle",
            Code::DanglingEdge => "edge endpoint references a nonexistent instruction",
            Code::SelfEdge => "instruction depends on itself",
            Code::DuplicateEdge => "duplicate dependence edge",
            Code::EmptyGraph => "scheduling unit has no instructions",
            Code::InfeasibleWindow => "infeasible ASAP/ALAP window (cycle-arithmetic overflow)",
            Code::BadHomeCluster => "preplacement names a nonexistent cluster",
            Code::IncapableHome => "preplaced home cluster cannot execute the instruction",
            Code::TightPreplacedPair => "preplaced pair further apart than edge slack allows",
            Code::UncoverableClass => "no cluster can execute the operation class",
            Code::CommOpInInput => "communication pseudo-op in input graph",
            Code::DeadValue => "side-effect-free instruction has no consumers",
            Code::PressureOverRegisters => {
                "register-pressure lower bound exceeds machine registers"
            }
            Code::DegenerateShardStructure => {
                "one giant weakly-connected component dominates the graph"
            }
            Code::DegenerateRegionCut => {
                "oversize graph has no cut the region governor would accept"
            }
            Code::ZeroLatency => "zero latency for a non-communication class",
            Code::CommLatencyMismatch => "nonzero send/recv latency on a register-mapped machine",
            Code::MissingTransferUnit => "cluster on a copy-based machine lacks a transfer unit",
            Code::OutOfWindowWrite => "pass wrote outside a feasible window",
            Code::NondeterministicPass => "pass is nondeterministic for a fixed seed",
            Code::BrokenNormalization => "pass broke preference-map normalization invariants",
            Code::PreplacementDemoted => "pass forbade a preplaced instruction's home cluster",
            Code::ContractUnproven => "pass contract clause unproven by its effect summary",
            Code::WindowsReadBeforeEstablished => {
                "pass uses feasibility windows before any pass establishes them"
            }
            Code::DeadPass => "pass has no effect at its position in the sequence",
            Code::RedundantNormalization => "explicit normalization is redundant with the driver's",
            Code::NoiseAfterBias => "randomized pass runs after a deterministic bias pass",
            Code::UndecidableConfidence => "no pass in the sequence can break cluster symmetry",
        }
    }
}

impl fmt::Display for Code {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique_and_stable() {
        let mut ids: Vec<&str> = Code::ALL.iter().map(|c| c.id()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), Code::ALL.len());
        assert_eq!(Code::Cycle.id(), "CS001");
        assert_eq!(Code::PreplacementDemoted.id(), "CS063");
        assert_eq!(Code::ContractUnproven.id(), "CS064");
        assert_eq!(Code::WindowsReadBeforeEstablished.id(), "CS070");
        assert_eq!(Code::UndecidableConfidence.id(), "CS074");
    }

    #[test]
    fn display_matches_id() {
        for c in Code::ALL {
            assert_eq!(c.to_string(), c.id());
        }
    }
}
