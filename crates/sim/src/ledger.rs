//! Issue-slot occupancy: the cycles each functional unit (or network
//! link) is busy, and when it is next free.
//!
//! The list scheduler, UAS, stitch and the Raw router all answer "when
//! is this unit next free?" with [`CycleSet::first_free`], which tests
//! 64 cycles per word. The referees ([`crate::validate`] and
//! [`crate::oracle`]) keep their own occupancy tables, so a fault here
//! cannot hide itself from them.

use convergent_ir::{ClusterId, OpClass};
use convergent_machine::{FuKind, Machine};

/// A growable bitmap over cycle numbers: the busy cycles of one unit.
/// Cycles past the last word are free.
#[derive(Clone, Debug, Default)]
pub struct CycleSet {
    words: Vec<u64>,
}

impl CycleSet {
    /// Whether cycle `t` is in the set.
    #[must_use]
    pub fn contains(&self, t: u32) -> bool {
        self.word(t as usize / 64) >> (t % 64) & 1 == 1
    }

    /// Inserts `t`, returning whether it was newly added.
    pub fn insert(&mut self, t: u32) -> bool {
        let w = t as usize / 64;
        if w >= self.words.len() {
            self.words.resize(w + 1, 0);
        }
        let bit = 1u64 << (t % 64);
        let had = self.words[w] & bit != 0;
        self.words[w] |= bit;
        !had
    }

    /// One past the last cycle in the set (0 when it is empty).
    #[must_use]
    pub fn end(&self) -> u32 {
        self.words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |w| (w as u32) * 64 + 64 - self.words[w].leading_zeros())
    }

    /// The first cycle in `from..=limit` that is in neither this set
    /// nor `overlay`, or `None` if every cycle there is busy. With
    /// `limit == u32::MAX` the scan always lands, at the latest just
    /// past the longer set's last word.
    #[must_use]
    pub fn first_free(&self, from: u32, limit: u32, overlay: Option<&CycleSet>) -> Option<u32> {
        let busy = |w: usize| self.word(w) | overlay.map_or(0, |o| o.word(w));
        let last = limit as usize / 64;
        let mut w = from as usize / 64;
        let mut free = !busy(w) & (!0u64 << (from % 64));
        while free == 0 {
            w += 1;
            if w > last {
                return None;
            }
            free = !busy(w);
        }
        let t = w as u64 * 64 + u64::from(free.trailing_zeros());
        u32::try_from(t).ok().filter(|&t| t <= limit)
    }

    fn word(&self, w: usize) -> u64 {
        self.words.get(w).copied().unwrap_or(0)
    }
}

/// The issue-slot occupancy of every functional unit of a machine: one
/// [`CycleSet`] per (cluster, unit).
#[derive(Clone, Debug)]
pub struct SlotLedger {
    /// Cluster `c`'s units, each with its kind, are
    /// `units[first[c]..first[c + 1]]`.
    first: Vec<usize>,
    units: Vec<(FuKind, CycleSet)>,
}

impl SlotLedger {
    /// An empty ledger for `machine`'s units (no cycle storage until a
    /// slot is reserved).
    #[must_use]
    pub fn new(machine: &Machine) -> Self {
        let mut first = vec![0];
        let mut units = Vec::new();
        for c in machine.cluster_ids() {
            let fus = machine.cluster(c).fus();
            units.extend(fus.iter().map(|&kind| (kind, CycleSet::default())));
            first.push(units.len());
        }
        SlotLedger { first, units }
    }

    /// The busy cycles of unit `fu` of `cluster`.
    #[must_use]
    pub fn unit(&self, cluster: ClusterId, fu: usize) -> &CycleSet {
        &self.units[self.first[cluster.index()] + fu].1
    }

    /// Marks unit `fu` of `cluster` busy at cycle `t`.
    pub fn reserve(&mut self, cluster: ClusterId, fu: usize, t: u32) {
        let inserted = self.units[self.first[cluster.index()] + fu].1.insert(t);
        debug_assert!(inserted, "double-booked {cluster} fu{fu} at {t}");
    }

    /// Adds every slot `other` (a ledger of the same machine) holds.
    pub fn absorb(&mut self, other: &SlotLedger) {
        debug_assert_eq!(self.first, other.first, "ledgers of different machines");
        for ((_, mine), (_, theirs)) in self.units.iter_mut().zip(&other.units) {
            if mine.words.len() < theirs.words.len() {
                mine.words.resize(theirs.words.len(), 0);
            }
            for (a, b) in mine.words.iter_mut().zip(&theirs.words) {
                *a |= b;
            }
        }
    }

    /// Frees every slot, keeping the storage.
    pub fn clear(&mut self) {
        for (_, busy) in &mut self.units {
            busy.words.clear();
        }
    }

    /// The lowest-numbered unit of `cluster` that can execute `class`
    /// and is free at cycle `t` (VLIW clusters list the most
    /// specialised units first).
    #[must_use]
    pub fn free_unit(&self, cluster: ClusterId, class: OpClass, t: u32) -> Option<usize> {
        self.capable(cluster, class)
            .find(|(_, busy)| !busy.contains(t))
            .map(|(fu, _)| fu)
    }

    /// The earliest `(unit, cycle)` with `from <= cycle <= limit` at
    /// which `class` can issue on `cluster`, a slot being busy if this
    /// ledger or `overlay` holds it: the minimum over the capable units
    /// of each one's first free cycle, ties to the lowest unit index,
    /// which is [`SlotLedger::free_unit`] at the first cycle that has
    /// one. `None` if no capable unit is free in the window.
    #[must_use]
    pub fn earliest_slot(
        &self,
        cluster: ClusterId,
        class: OpClass,
        from: u32,
        mut limit: u32,
        overlay: Option<&SlotLedger>,
    ) -> Option<(usize, u32)> {
        let mut best = None;
        for (fu, busy) in self.capable(cluster, class) {
            let theirs = overlay.map(|o| o.unit(cluster, fu));
            if let Some(t) = busy.first_free(from, limit, theirs) {
                best = Some((fu, t));
                if t == from {
                    break;
                }
                // A later unit must beat `t` strictly to win the tie.
                limit = t - 1;
            }
        }
        best
    }

    /// The units of `cluster` that can execute `class`, in index order,
    /// with their busy cycles.
    fn capable(
        &self,
        cluster: ClusterId,
        class: OpClass,
    ) -> impl Iterator<Item = (usize, &CycleSet)> {
        let c = cluster.index();
        self.units[self.first[c]..self.first[c + 1]]
            .iter()
            .enumerate()
            .filter(move |(_, (kind, _))| kind.can_execute(class))
            .map(|(fu, (_, busy))| (fu, busy))
    }
}
