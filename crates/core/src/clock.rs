//! Virtual-time scheduling: step whichever session is earliest.
//!
//! `Fleet::step_round` advances every session one frame per round, which is
//! simple and bit-stable but lets tenants with very different frame times
//! drift apart in *simulated* time — after enough rounds a slow tenant's
//! far-future resource frontiers start queueing a fast tenant that is still
//! simulating an earlier window (the DESIGN.md §7 artifact). A
//! [`FleetClock`] fixes this the way any discrete-event simulator would:
//! it keeps every runnable session in a binary-heap event queue keyed on
//! the session's virtual clock (its `last_display_end`) and always hands
//! out the globally-earliest one, so all tenants advance through the same
//! simulated time window together. [`crate::churn::ChurnFleet`] steps this
//! way: joins and leaves happen *at a virtual time*, which only means
//! something when the fleet has a coherent global frontier, and a closed
//! roster that must stay synchronized is a churn fleet with an empty trace.
//!
//! Entries invalidate lazily (the standard trick for heaps without
//! decrease-key): rescheduling or removing a slot bumps its epoch, and
//! stale heap entries are skipped on pop. Ties break on the lowest slot
//! index, so stepping order — and therefore every downstream schedule and
//! RNG draw — is fully deterministic.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// How a [`crate::fleet::Fleet`] advances its sessions through simulated
/// time. Round-robin is its only mode; virtual-time stepping is
/// [`crate::churn::ChurnFleet`]'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SteppingPolicy {
    /// One frame per session per round, in session-index order — the
    /// original engine, bit-pinned by the `fig_fleet` goldens.
    #[default]
    RoundRobin,
}

/// One heap entry: a slot runnable at a virtual time. Ordered as a
/// *min*-heap (earliest time first, ties to the lowest slot) by inverting
/// the comparison, so it can sit in `std`'s max-oriented [`BinaryHeap`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    at_ms: f64,
    slot: usize,
    epoch: u64,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Inverted: larger = earlier time, then lower slot index.
        other
            .at_ms
            .total_cmp(&self.at_ms)
            .then_with(|| other.slot.cmp(&self.slot))
    }
}

/// A binary-heap event queue over session slots keyed on virtual time.
///
/// Each slot holds at most one *valid* entry; [`FleetClock::schedule`]
/// supersedes any previous entry for the slot and [`FleetClock::remove`]
/// withdraws it (both by epoch-bumping — stale heap entries are discarded
/// on [`FleetClock::pop`]).
#[derive(Debug, Clone, Default)]
pub struct FleetClock {
    heap: BinaryHeap<Entry>,
    /// Current epoch per slot; heap entries with an older epoch are stale.
    epochs: Vec<u64>,
    /// Whether the slot's current epoch has a live heap entry.
    scheduled: Vec<bool>,
}

impl FleetClock {
    /// An empty clock.
    #[must_use]
    pub fn new() -> Self {
        FleetClock::default()
    }

    /// Schedules (or reschedules) `slot` as runnable at virtual time
    /// `at_ms`, superseding any previous entry for the slot.
    ///
    /// # Panics
    ///
    /// Panics if `at_ms` is not finite.
    pub fn schedule(&mut self, slot: usize, at_ms: f64) {
        assert!(at_ms.is_finite(), "virtual time must be finite");
        if slot >= self.epochs.len() {
            self.epochs.resize(slot + 1, 0);
            self.scheduled.resize(slot + 1, false);
        }
        self.epochs[slot] += 1;
        self.scheduled[slot] = true;
        self.heap.push(Entry {
            at_ms,
            slot,
            epoch: self.epochs[slot],
        });
    }

    /// Withdraws `slot`'s entry, if any (a session leaving or finishing its
    /// frame budget).
    pub fn remove(&mut self, slot: usize) {
        if slot < self.epochs.len() {
            self.epochs[slot] += 1;
            self.scheduled[slot] = false;
        }
    }

    /// Whether `slot` currently has a live entry.
    #[must_use]
    pub fn contains(&self, slot: usize) -> bool {
        slot < self.scheduled.len() && self.scheduled[slot]
    }

    /// Pops the earliest runnable slot and its virtual time; `None` when
    /// the queue is empty.
    pub fn pop(&mut self) -> Option<(usize, f64)> {
        while let Some(e) = self.heap.pop() {
            if self.epochs[e.slot] == e.epoch {
                self.scheduled[e.slot] = false;
                return Some((e.slot, e.at_ms));
            }
        }
        None
    }

    /// The earliest runnable slot and its virtual time without popping it.
    #[must_use]
    pub fn peek(&mut self) -> Option<(usize, f64)> {
        while let Some(e) = self.heap.peek() {
            if self.epochs[e.slot] == e.epoch {
                return Some((e.slot, e.at_ms));
            }
            self.heap.pop();
        }
        None
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.scheduled.iter().filter(|s| **s).count()
    }

    /// Whether no slot is runnable.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_slot_tiebreak() {
        let mut c = FleetClock::new();
        c.schedule(2, 5.0);
        c.schedule(0, 3.0);
        c.schedule(1, 3.0);
        assert_eq!(c.len(), 3);
        assert_eq!(c.pop(), Some((0, 3.0)), "ties break to the lowest slot");
        assert_eq!(c.pop(), Some((1, 3.0)));
        assert_eq!(c.pop(), Some((2, 5.0)));
        assert_eq!(c.pop(), None);
        assert!(c.is_empty());
    }

    #[test]
    fn reschedule_supersedes_the_old_entry() {
        let mut c = FleetClock::new();
        c.schedule(0, 10.0);
        c.schedule(1, 1.0);
        c.schedule(0, 0.5);
        assert_eq!(c.pop(), Some((0, 0.5)));
        assert_eq!(c.pop(), Some((1, 1.0)));
        assert_eq!(c.pop(), None, "the stale 10 ms entry must be discarded");
    }

    #[test]
    fn remove_withdraws_a_slot() {
        let mut c = FleetClock::new();
        c.schedule(0, 1.0);
        c.schedule(1, 2.0);
        assert!(c.contains(0));
        c.remove(0);
        assert!(!c.contains(0));
        assert_eq!(c.len(), 1);
        assert_eq!(c.peek(), Some((1, 2.0)));
        assert_eq!(c.pop(), Some((1, 2.0)));
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn removing_an_unknown_slot_is_a_noop() {
        let mut c = FleetClock::new();
        c.remove(7);
        assert!(c.is_empty());
        c.schedule(7, 1.0);
        assert_eq!(c.pop(), Some((7, 1.0)));
    }

    #[test]
    fn peek_matches_pop() {
        let mut c = FleetClock::new();
        c.schedule(3, 4.0);
        c.schedule(1, 9.0);
        assert_eq!(c.peek(), Some((3, 4.0)));
        assert_eq!(c.pop(), Some((3, 4.0)));
        assert_eq!(c.peek(), Some((1, 9.0)));
    }
}
