//! The event calendar: a cancellable priority queue of timestamped events.
//!
//! Properties the simulator relies on:
//!
//! * events pop in non-decreasing time order;
//! * events scheduled for the *same* time pop in FIFO (insertion) order, so
//!   runs are deterministic regardless of the queue's internals;
//! * any pending event can be cancelled in O(1) via its [`EventHandle`]
//!   (used for the process-manager abort timers of §7.3, which are
//!   cancelled when the task completes on time).
//!
//! Each pending entry is one `u128` key that orders exactly as
//! `(time, seq)` does: the time mapped to an order-preserving `u64` by
//! [`crate::time::order_key`] in the high half, the sequence number and
//! the payload's slot in the low half. Ordering entries is then one
//! integer comparison. The keys live in two levels: a short ascending run
//! holding the earliest entries, popped by advancing a cursor, and a
//! binary min-heap holding the rest. Every entry in the run is earlier
//! than every entry in the heap, so the run's first entry is the
//! calendar's earliest, and the run is refilled from the heap when it
//! empties. A calendar of a few dozen pending events never leaves
//! the run; a large one costs O(log n) per operation, like a plain heap.
//!
//! Cancellation bookkeeping is a slab of per-slot states indexed directly
//! by the slot number carried in both the handle and the key — no hashing
//! on the hot path. Freed slots go on a free list, so the slab is bounded
//! by the maximum number of *concurrently* pending events and the
//! steady-state schedule/pop cycle allocates nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{order_key, SimTime};

/// Marks a slab slot as free: no live handle can match it, because
/// sequence numbers are issued counting up from zero.
const SEQ_FREE: u64 = u64::MAX;

/// Bits of a key's low half that hold the slot; the sequence number takes
/// the other 40.
const SLOT_BITS: u32 = 24;

/// Sequence numbers must fit in the key's low half above the slot.
const SEQ_LIMIT: u64 = 1 << (64 - SLOT_BITS);

/// Slot numbers must fit in [`SLOT_BITS`].
const SLOT_LIMIT: usize = 1 << SLOT_BITS;

/// Most entries the sorted run holds.
const RUN_CAP: usize = 64;

/// Length the run's vector may reach, popped prefix included, before the
/// prefix is reclaimed.
const RUN_SPAN: usize = 2 * RUN_CAP;

/// An opaque handle to a scheduled event, used for cancellation.
///
/// Handles are only meaningful for the calendar that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    /// Index into the calendar's slot slab.
    slot: u32,
    /// Unique sequence number; acts as the slot's generation stamp so a
    /// stale handle (whose slot has been freed or reused) never matches.
    seq: u64,
}

impl EventHandle {
    /// The raw sequence number (for diagnostics).
    pub fn id(self) -> u64 {
        self.seq
    }
}

/// Inverts [`order_key`] on a key's high half; a time scheduled as
/// `-0.0` comes back as `+0.0`, which it equals.
#[inline]
fn key_time(key: u128) -> SimTime {
    let key = (key >> 64) as u64;
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    SimTime::new(f64::from_bits(bits))
}

/// Packs an entry into one key ordered as `(time, seq)`; `slot` only
/// rides along, since `seq` is unique.
#[inline]
fn pack(time: SimTime, seq: u64, slot: u32) -> u128 {
    (u128::from(order_key(time.value())) << 64) | u128::from(seq << SLOT_BITS | u64::from(slot))
}

/// The slot an entry's payload lives in.
#[inline]
fn key_slot(key: u128) -> usize {
    (key as u64 & ((1 << SLOT_BITS) - 1)) as usize
}

/// Per-slot state: the event payload plus cancellation bookkeeping. `seq`
/// is the generation stamp of the occupying entry ([`SEQ_FREE`] when the
/// slot is on the free list); a cancelled slot (its key is a
/// not-yet-purged tombstone) has `event == None` — the payload is dropped
/// eagerly at cancellation.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// A cancellable event calendar.
///
/// ```
/// use sda_simcore::event::Calendar;
/// use sda_simcore::SimTime;
///
/// let mut cal = Calendar::new();
/// let _a = cal.schedule(SimTime::from(2.0), "second");
/// let b = cal.schedule(SimTime::from(1.0), "first");
/// cal.cancel(b);
/// let (t, e) = cal.pop().unwrap();
/// assert_eq!((t, e), (SimTime::from(2.0), "second"));
/// assert!(cal.pop().is_none());
/// ```
pub struct Calendar<E> {
    /// The earliest keys in ascending order, `run[head..]`: at most
    /// [`RUN_CAP`], each earlier than every key in `heap`. `run[..head]`
    /// has been popped already.
    run: Vec<u128>,
    /// Index of the run's earliest key, the next to pop.
    head: usize,
    /// Every later key.
    heap: BinaryHeap<Reverse<u128>>,
    next_seq: u64,
    /// Slot slab: one entry per key (live or tombstoned), reused via
    /// `free`. Direct indexing replaces the hash-set lookups a lazy-
    /// deletion calendar otherwise pays on every schedule/cancel/pop.
    slots: Vec<Slot<E>>,
    /// Freed slot indices awaiting reuse.
    free: Vec<u32>,
    /// Number of live (scheduled, neither popped nor cancelled) events.
    live: usize,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Calendar<E> {
        Calendar {
            // Full size at once: growing it mid-run would copy it.
            run: Vec::with_capacity(RUN_SPAN),
            head: 0,
            heap: BinaryHeap::new(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Schedules `event` at absolute time `time`; returns a handle that can
    /// cancel it while it is still pending.
    ///
    /// # Panics
    ///
    /// Panics after 2^40 events, or with 2^24 events pending at once: the
    /// key has no room for larger sequence or slot numbers.
    pub fn schedule(&mut self, time: SimTime, event: E) -> EventHandle {
        let seq = self.next_seq;
        assert!(seq < SEQ_LIMIT, "calendar sequence numbers exhausted");
        self.next_seq += 1;
        let state = Slot {
            seq,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = state;
                slot
            }
            None => {
                assert!(self.slots.len() < SLOT_LIMIT, "too many pending events");
                self.slots.push(state);
                (self.slots.len() - 1) as u32
            }
        };
        self.insert(pack(time, seq, slot));
        self.live += 1;
        EventHandle { slot, seq }
    }

    /// Files a newly scheduled `key` in the run if it precedes the heap,
    /// else in the heap.
    fn insert(&mut self, key: u128) {
        if let Some(&Reverse(first)) = self.heap.peek() {
            if key > first {
                self.heap.push(Reverse(key));
                return;
            }
        }
        // The keys in the run that precede `key`. Every pending key has a
        // smaller sequence number than a new one, so a key of equal time
        // precedes it too and comparing the times alone is exact. A
        // branch-free count beats a binary search at this length.
        let time = (key >> 64) as u64;
        let mut at = self.head
            + self.run[self.head..]
                .iter()
                .filter(|&&k| (k >> 64) as u64 <= time)
                .count();
        if self.run.len() - self.head == RUN_CAP {
            if at == self.run.len() {
                // Later than the whole full run, earlier than the heap:
                // the heap's new first key.
                self.heap.push(Reverse(key));
                return;
            }
            // The full run's latest key becomes the heap's first.
            let last = self.run.pop().expect("the run is full");
            self.heap.push(Reverse(last));
        } else if self.run.len() == RUN_SPAN {
            self.run.drain(..self.head);
            at -= self.head;
            self.head = 0;
        }
        self.run.insert(at, key);
    }

    /// The earliest key, live or tombstoned, refilling the run from the
    /// heap if it is empty.
    fn front(&mut self) -> Option<u128> {
        if self.head == self.run.len() {
            self.run.clear();
            self.head = 0;
            while self.run.len() < RUN_CAP {
                match self.heap.pop() {
                    Some(Reverse(key)) => self.run.push(key),
                    None => break,
                }
            }
        }
        self.run.get(self.head).copied()
    }

    /// Whether the key's event is still pending (not a cancelled
    /// tombstone).
    #[inline]
    fn is_live(&self, key: u128) -> bool {
        self.slots[key_slot(key)].event.is_some()
    }

    /// Removes the front key and frees its slot, returning its event, or
    /// `None` for a tombstone. Call after [`Calendar::front`] found one.
    fn take_front(&mut self) -> Option<E> {
        let slot = key_slot(self.run[self.head]);
        self.head += 1;
        let event = self.slots[slot].event.take();
        self.slots[slot].seq = SEQ_FREE;
        self.free.push(slot as u32);
        if event.is_some() {
            self.live -= 1;
        }
        event
    }

    /// Cancels a pending event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to pop). Returns `false` — with no other effect — if the event
    /// already popped, was already cancelled, or was never issued by this
    /// calendar; cancellation is safe to use best-effort (e.g. a timer
    /// cancelling *itself* from within its own handler is a no-op). Stale
    /// handles are caught by the generation stamp: a freed or reused slot
    /// no longer carries the handle's sequence number.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        match self.slots.get_mut(handle.slot as usize) {
            Some(state) if state.seq == handle.seq && state.event.is_some() => {
                state.event = None;
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest non-cancelled event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let key = self.front()?;
            if let Some(event) = self.take_front() {
                return Some((key_time(key), event));
            }
        }
    }

    /// Removes and returns the earliest non-cancelled event, provided its
    /// time does not exceed `limit`; later events stay scheduled.
    ///
    /// Finds the front once for both the bounds check and the removal —
    /// the engine's run loop calls this once per event.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = order_key(limit.value());
        loop {
            let key = self.front()?;
            if (key >> 64) as u64 > limit && self.is_live(key) {
                return None;
            }
            if let Some(event) = self.take_front() {
                return Some((key_time(key), event));
            }
        }
    }

    /// Number of live (non-cancelled) pending events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<E> Default for Calendar<E> {
    fn default() -> Calendar<E> {
        Calendar::new()
    }
}

impl<E> std::fmt::Debug for Calendar<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Calendar")
            .field("live", &self.live)
            .field(
                "tombstones",
                &(self.run.len() - self.head + self.heap.len() - self.live),
            )
            .field("next_seq", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: f64) -> SimTime {
        SimTime::from(v)
    }

    #[test]
    fn pops_in_time_order() {
        let mut cal = Calendar::new();
        cal.schedule(t(3.0), 'c');
        cal.schedule(t(1.0), 'a');
        cal.schedule(t(2.0), 'b');
        assert_eq!(cal.pop(), Some((t(1.0), 'a')));
        assert_eq!(cal.pop(), Some((t(2.0), 'b')));
        assert_eq!(cal.pop(), Some((t(3.0), 'c')));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut cal = Calendar::new();
        for i in 0..100 {
            cal.schedule(t(5.0), i);
        }
        for i in 0..100 {
            assert_eq!(cal.pop(), Some((t(5.0), i)));
        }
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut cal = Calendar::new();
        let h = cal.schedule(t(1.0), "x");
        cal.schedule(t(2.0), "y");
        assert!(cal.cancel(h));
        assert_eq!(cal.pop(), Some((t(2.0), "y")));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn cancel_after_pop_is_a_noop() {
        // Regression: a handler cancelling the very event it is processing
        // (e.g. an abort routine cancelling the timer that invoked it)
        // must not poison the calendar's bookkeeping.
        let mut cal = Calendar::new();
        let h = cal.schedule(t(1.0), "fires");
        cal.schedule(t(2.0), "later");
        assert_eq!(cal.pop(), Some((t(1.0), "fires")));
        assert!(!cal.cancel(h), "already popped");
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((t(2.0), "later")));
        assert_eq!(cal.len(), 0);
        assert!(cal.is_empty());
    }

    #[test]
    fn cancel_twice_returns_false() {
        let mut cal = Calendar::new();
        let h = cal.schedule(t(1.0), ());
        assert!(cal.cancel(h));
        assert!(!cal.cancel(h));
    }

    #[test]
    fn cancel_unknown_handle_is_false() {
        let mut cal: Calendar<()> = Calendar::new();
        assert!(!cal.cancel(EventHandle { slot: 42, seq: 42 }));
    }

    #[test]
    fn cancel_with_stale_handle_after_slot_reuse_is_false() {
        // The handle's generation stamp must not match a slot that has
        // been freed and handed to a later event.
        let mut cal = Calendar::new();
        let old = cal.schedule(t(1.0), "first");
        assert_eq!(cal.pop(), Some((t(1.0), "first")));
        let fresh = cal.schedule(t(2.0), "second"); // reuses the slot
        assert!(!cal.cancel(old), "stale handle must not hit the new event");
        assert_eq!(cal.len(), 1);
        assert!(cal.cancel(fresh));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn slot_slab_is_bounded_by_concurrent_events() {
        // Cycling many events through a calendar with few pending at a
        // time must not grow the slab (steady state is allocation-free).
        let mut cal = Calendar::new();
        for round in 0..1000 {
            let a = cal.schedule(t(round as f64), round);
            cal.schedule(t(round as f64 + 0.5), round);
            cal.cancel(a);
            cal.pop();
        }
        while cal.pop().is_some() {}
        assert!(cal.slots.len() <= 4, "slab grew past peak concurrency");
    }

    #[test]
    fn pop_before_respects_the_limit_and_skips_cancelled() {
        let mut cal = Calendar::new();
        let h = cal.schedule(t(1.0), 1);
        cal.schedule(t(2.0), 2);
        cal.schedule(t(5.0), 5);
        cal.cancel(h);
        assert_eq!(cal.pop_before(t(3.0)), Some((t(2.0), 2)));
        assert_eq!(cal.pop_before(t(3.0)), None, "5 is past the limit");
        assert_eq!(cal.len(), 1, "the later event stays scheduled");
        assert_eq!(cal.pop_before(t(5.0)), Some((t(5.0), 5)), "limit inclusive");
        assert_eq!(cal.pop_before(t(9.0)), None);
    }

    #[test]
    fn len_accounts_for_cancellations() {
        let mut cal = Calendar::new();
        let h1 = cal.schedule(t(1.0), 1);
        cal.schedule(t(2.0), 2);
        assert_eq!(cal.len(), 2);
        assert!(!cal.is_empty());
        cal.cancel(h1);
        assert_eq!(cal.len(), 1);
        cal.pop();
        assert_eq!(cal.len(), 0);
        assert!(cal.is_empty());
    }

    #[test]
    fn interleaved_schedule_pop_cancel() {
        let mut cal = Calendar::new();
        let mut popped = Vec::new();
        let h5 = cal.schedule(t(5.0), 5);
        cal.schedule(t(1.0), 1);
        popped.push(cal.pop().unwrap().1);
        cal.schedule(t(3.0), 3);
        cal.cancel(h5);
        cal.schedule(t(4.0), 4);
        while let Some((_, e)) = cal.pop() {
            popped.push(e);
        }
        assert_eq!(popped, vec![1, 3, 4]);
    }
}
