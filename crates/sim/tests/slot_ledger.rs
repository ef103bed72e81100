//! The shared first-free scan against a cycle-by-cycle reference.
//!
//! [`CycleSet::first_free`] tests 64 cycles per word; the reference
//! below tests one cycle at a time against a plain `HashSet`. Random
//! sets mix long busy runs (which cross word boundaries) with scattered
//! cycles, and every case probes the word edges (`from` at 63, 64, 65),
//! `from` past the last word, and limits just below, at and above the
//! answer, with and without an overlay set.
//! [`SlotLedger::earliest_slot`] is checked the same way against
//! [`SlotLedger::free_unit`] at each successive cycle, the rule the list
//! scheduler's old per-cycle probe applied.

use std::collections::HashSet;

use convergent_ir::{ClusterId, OpClass};
use convergent_machine::Machine;
use convergent_sim::{CycleSet, SlotLedger};
use proptest::prelude::*;

const CASES: u32 = 256;

/// Busy runs `(start, len)` plus scattered busy cycles.
fn cycles(runs: &[(u32, u32)], bits: &[u32]) -> HashSet<u32> {
    runs.iter()
        .flat_map(|&(s, len)| s..s + len)
        .chain(bits.iter().copied())
        .collect()
}

fn set_of(busy: &HashSet<u32>) -> CycleSet {
    let mut set = CycleSet::default();
    for &t in busy {
        assert!(set.insert(t), "{t} inserted twice");
    }
    set
}

/// The first cycle in `from..=limit` in neither set, one cycle at a
/// time. Cycles past both sets are free, so the scan ends there.
fn reference(a: &HashSet<u32>, b: &HashSet<u32>, from: u32, limit: u32) -> Option<u32> {
    let mut t = from;
    while t <= limit {
        if !a.contains(&t) && !b.contains(&t) {
            return Some(t);
        }
        t += 1;
    }
    None
}

/// Checks `first_free` from `from` at limits around the reference
/// answer.
fn check(a: &HashSet<u32>, b: &HashSet<u32>, from: u32) {
    let (set_a, set_b) = (set_of(a), set_of(b));
    let empty = HashSet::new();
    for (overlay, b_ref) in [(None, &empty), (Some(&set_b), b)] {
        let answer = reference(a, b_ref, from, u32::MAX).expect("finite sets leave a free cycle");
        let mut limits = vec![answer, answer + 1, answer + 64, u32::MAX, from];
        limits.extend(answer.checked_sub(1));
        limits.extend(from.checked_sub(1));
        for limit in limits {
            assert_eq!(
                set_a.first_free(from, limit, overlay),
                reference(a, b_ref, from, limit),
                "from {from}, limit {limit}, overlay {}",
                overlay.is_some()
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn first_free_matches_a_cycle_by_cycle_scan(
        runs_a in proptest::collection::vec((0u32..300, 1u32..150), 0..5),
        bits_a in proptest::collection::vec(0u32..400, 0..80),
        runs_b in proptest::collection::vec((0u32..300, 1u32..150), 0..4),
        bits_b in proptest::collection::vec(0u32..400, 0..80),
        from in 0u32..500,
    ) {
        let a = cycles(&runs_a, &bits_a);
        let b = cycles(&runs_b, &bits_b);
        let set_a = set_of(&a);
        prop_assert_eq!(set_a.end(), a.iter().max().map_or(0, |&t| t + 1));
        for t in 0..500 {
            prop_assert_eq!(set_a.contains(t), a.contains(&t));
        }
        // The word edges, word-aligned starts, and `from` past the
        // last word of both sets.
        let past = a.iter().chain(&b).max().map_or(0, |&t| t + 1);
        for from in [from, 0, 1, 63, 64, 65, 127, 128, 129, past, past + 63, past + 64, 1000] {
            check(&a, &b, from);
        }
    }

    #[test]
    fn earliest_slot_matches_free_unit_cycle_by_cycle(
        taken in proptest::collection::vec((0usize..4, 0u32..200), 0..400),
        class in 0usize..OpClass::ALL.len(),
        from in 0u32..220,
        limit in 0u32..260,
    ) {
        let machine = Machine::chorus_vliw(1);
        let c = ClusterId::new(0);
        let class = OpClass::ALL[class];
        let mut ledger = SlotLedger::new(&machine);
        let mut overlay = SlotLedger::new(&machine);
        for (k, &(fu, t)) in taken.iter().enumerate() {
            if ledger.unit(c, fu).contains(t) || overlay.unit(c, fu).contains(t) {
                continue;
            }
            let target = if k % 3 == 0 { &mut overlay } else { &mut ledger };
            target.reserve(c, fu, t);
        }
        // Per cycle: the lowest capable unit free in both ledgers.
        let free_in_both = |t: u32| {
            machine.cluster(c).fus().iter().enumerate().position(|(fu, kind)| {
                kind.can_execute(class)
                    && !ledger.unit(c, fu).contains(t)
                    && !overlay.unit(c, fu).contains(t)
            })
        };
        let want = (from..=limit).find_map(|t| free_in_both(t).map(|fu| (fu, t)));
        prop_assert_eq!(
            ledger.earliest_slot(c, class, from, limit, Some(&overlay)),
            want
        );
        let alone = (from..=limit).find_map(|t| ledger.free_unit(c, class, t).map(|fu| (fu, t)));
        prop_assert_eq!(ledger.earliest_slot(c, class, from, limit, None), alone);
    }
}

#[test]
fn empty_sets_are_free_everywhere() {
    let empty = CycleSet::default();
    assert_eq!(empty.end(), 0);
    for from in [0, 63, 64, 65, 1 << 20] {
        assert_eq!(empty.first_free(from, u32::MAX, None), Some(from));
        assert_eq!(empty.first_free(from, from, Some(&empty)), Some(from));
    }
    assert_eq!(empty.first_free(10, 9, None), None);
    assert_eq!(empty.first_free(u32::MAX, u32::MAX, None), Some(u32::MAX));
}
