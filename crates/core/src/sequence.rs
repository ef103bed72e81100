//! Pass sequences, including the paper's Table 1 configurations.

use std::fmt;

use convergent_machine::Machine;

use crate::passes::{
    Comm, EmphCp, First, InitTime, LevelDistribute, LoadBalance, Noise, Path, PathProp, Place,
    PlaceProp,
};
use crate::Pass;

/// An ordered composition of passes.
///
/// "There are no restrictions on the order or the number of times
/// each heuristic is applied" — a sequence is simply the list the
/// driver runs, and the same pass type may appear many times.
///
/// # Example
///
/// ```
/// use convergent_core::passes::{Comm, InitTime, LoadBalance};
/// use convergent_core::Sequence;
///
/// let seq = Sequence::new()
///     .with(InitTime::new())
///     .with(Comm::new())
///     .with(LoadBalance::new())
///     .with(Comm::new()); // applying a pass twice is fine
/// assert_eq!(seq.names(), ["INITTIME", "COMM", "LOAD", "COMM"]);
/// ```
#[derive(Default)]
pub struct Sequence {
    passes: Vec<Box<dyn Pass>>,
}

impl Sequence {
    /// Creates an empty sequence.
    #[must_use]
    pub fn new() -> Self {
        Sequence::default()
    }

    /// Appends a pass (builder style).
    #[must_use]
    pub fn with(mut self, pass: impl Pass + 'static) -> Self {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl Pass + 'static) {
        self.passes.push(Box::new(pass));
    }

    /// Number of passes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.passes.len()
    }

    /// Returns `true` if the sequence has no passes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.passes.is_empty()
    }

    /// The pass names, in order.
    #[must_use]
    pub fn names(&self) -> Vec<&'static str> {
        self.passes.iter().map(|p| p.name()).collect()
    }

    /// The passes, in order.
    #[must_use]
    pub fn passes(&self) -> &[Box<dyn Pass>] {
        &self.passes
    }

    /// Table 1(a): the sequence used for the Raw machine.
    ///
    /// INITTIME, PLACEPROP, LOAD, PLACE, PATH, PATHPROP, LEVEL,
    /// PATHPROP, COMM, PATHPROP, EMPHCP.
    #[must_use]
    pub fn raw() -> Self {
        Sequence::new()
            .with(InitTime::new())
            .with(PlaceProp::new())
            .with(LoadBalance::new())
            .with(Place::new())
            .with(Path::new())
            .with(PathProp::new())
            .with(LevelDistribute::new())
            .with(PathProp::new())
            .with(Comm::new())
            .with(PathProp::new())
            .with(EmphCp::new())
    }

    /// Table 1(b): the sequence used for the Chorus clustered VLIW.
    ///
    /// INITTIME, NOISE, FIRST, PATH, COMM, PLACE, PLACEPROP, COMM,
    /// EMPHCP.
    #[must_use]
    pub fn vliw() -> Self {
        Sequence::new()
            .with(InitTime::new())
            .with(Noise::new())
            .with(First::new())
            .with(Path::new())
            .with(Comm::new())
            .with(Place::new())
            .with(PlaceProp::new())
            .with(Comm::new())
            .with(EmphCp::new())
    }

    /// The VLIW sequence re-tuned by trial and error for this
    /// workspace's cost model, exactly as the paper tunes its own
    /// ("the set of heuristics we use, the weights used in the
    /// heuristics, and the order in which the heuristics are run
    /// \[are\] selected by trial-and-error").
    ///
    /// Relative to Table 1(b): the intermediate COMM applications skip
    /// the preferred-slot reinforcement (which hardened premature
    /// majorities in our cost model), and LOAD interleaves with COMM
    /// so communication minimization cannot pile work onto the
    /// data-home cluster unchecked.
    #[must_use]
    pub fn vliw_tuned() -> Self {
        Sequence::new()
            .with(InitTime::new())
            .with(Noise::new())
            .with(First::new())
            .with(Path::new())
            .with(Comm::new().with_reinforcement(false))
            .with(Place::new())
            .with(PlaceProp::new())
            .with(LoadBalance::new())
            .with(Comm::new().with_reinforcement(false))
            .with(LoadBalance::new())
            .with(Comm::new())
            .with(EmphCp::new())
    }

    /// The sequence shipped for `machine`, with the name `csched
    /// analyze --sequence` knows it by: Table 1(a) (`"raw"`) on
    /// register-mapped machines, [`Sequence::vliw_tuned`]
    /// (`"vliw-tuned"`) on copy-based ones.
    ///
    /// ```
    /// use convergent_core::Sequence;
    /// use convergent_machine::Machine;
    ///
    /// let (name, seq) = Sequence::for_machine(&Machine::raw(4));
    /// assert_eq!((name, seq.names()), ("raw", Sequence::raw().names()));
    /// assert_eq!(Sequence::for_machine(&Machine::chorus_vliw(4)).0, "vliw-tuned");
    /// ```
    #[must_use]
    pub fn for_machine(machine: &Machine) -> (&'static str, Self) {
        if machine.comm().register_mapped {
            ("raw", Sequence::raw())
        } else {
            ("vliw-tuned", Sequence::vliw_tuned())
        }
    }
}

impl fmt::Debug for Sequence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Sequence")
            .field("passes", &self.names())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_sequence_matches_table_1a() {
        assert_eq!(
            Sequence::raw().names(),
            [
                "INITTIME",
                "PLACEPROP",
                "LOAD",
                "PLACE",
                "PATH",
                "PATHPROP",
                "LEVEL",
                "PATHPROP",
                "COMM",
                "PATHPROP",
                "EMPHCP"
            ]
        );
    }

    #[test]
    fn vliw_sequence_matches_table_1b() {
        assert_eq!(
            Sequence::vliw().names(),
            [
                "INITTIME",
                "NOISE",
                "FIRST",
                "PATH",
                "COMM",
                "PLACE",
                "PLACEPROP",
                "COMM",
                "EMPHCP"
            ]
        );
    }

    #[test]
    fn vliw_tuned_keeps_the_table_roster_plus_load() {
        let names = Sequence::vliw_tuned().names();
        assert_eq!(names.first(), Some(&"INITTIME"));
        assert_eq!(names.last(), Some(&"EMPHCP"));
        // Same heuristic families as Table 1(b), plus LOAD.
        for required in [
            "NOISE",
            "FIRST",
            "PATH",
            "COMM",
            "PLACE",
            "PLACEPROP",
            "LOAD",
        ] {
            assert!(names.contains(&required), "{required} missing: {names:?}");
        }
    }

    #[test]
    fn sequences_are_composable() {
        let mut s = Sequence::new();
        assert!(s.is_empty());
        s.push(InitTime::new());
        s.push(Comm::new());
        assert_eq!(s.len(), 2);
        assert_eq!(
            format!("{s:?}"),
            r#"Sequence { passes: ["INITTIME", "COMM"] }"#
        );
    }
}
