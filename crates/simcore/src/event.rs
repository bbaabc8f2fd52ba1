//! The event calendar: a cancellable priority queue of timestamped events.
//!
//! Properties the simulator relies on:
//!
//! * events pop in non-decreasing time order;
//! * events scheduled for the *same* time pop in FIFO (insertion) order, so
//!   runs are deterministic regardless of the queue's internals;
//! * any pending event can be cancelled, or removed and returned, in O(1)
//!   via its [`EventHandle`] (used for the process-manager abort timers of
//!   §7.3, which are cancelled when the task completes on time).
//!
//! The calendar is also every node's ready queue: `sda_sched::ReadyQueue`
//! files each waiting task at its policy's rank in place of a time.
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
//! An empty calendar, and so an empty ready queue, allocates nothing;
//! the first schedule gives the run its full 2 KB buffer of 128 keys,
//! which it keeps for the calendar's lifetime.
//!
//! Payloads live in a slab of slots indexed directly by the slot number
//! carried in both the handle and the key — no hashing on the hot path.
//! Each slot is stamped with the sequence number of the entry it holds,
//! and a key is live exactly while its slot still carries the key's
//! sequence number. Popping or removing an entry frees its slot at once,
//! so the slab is bounded by the peak number of *live* entries and the
//! steady-state schedule/pop cycle allocates nothing. A removed entry's
//! key stays behind and is skipped when it reaches the front; before the
//! heap would grow, stale keys that outnumber the live ones are purged,
//! so they never make the calendar allocate either.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::time::{order_key, SimTime};

/// Marks a slab slot as free: no key or handle can match it, because
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

/// Keys the run's buffer holds, popped prefix included; once it is full,
/// the prefix is reclaimed.
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

/// The sequence number an entry was scheduled with.
#[inline]
fn key_seq(key: u128) -> u64 {
    key as u64 >> SLOT_BITS
}

/// One slab slot: the sequence number of the entry it holds and that
/// entry's payload, or [`SEQ_FREE`] and `None` while on the free list.
struct Slot<E> {
    seq: u64,
    event: Option<E>,
}

/// Whether the key's event is still pending: its slot has not been
/// freed, or reused by a later entry, since the key was issued.
#[inline]
fn is_live<E>(slots: &[Slot<E>], key: u128) -> bool {
    slots[key_slot(key)].seq == key_seq(key)
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
    /// Slot slab: one entry per live event, reused via `free`. Direct
    /// indexing replaces the hash-set lookups a lazy-deletion calendar
    /// otherwise pays on every schedule/cancel/pop.
    slots: Vec<Slot<E>>,
    /// Freed slot indices awaiting reuse.
    free: Vec<u32>,
    /// Number of live (scheduled, neither popped nor removed) events.
    live: usize,
}

impl<E> Calendar<E> {
    /// Creates an empty calendar.
    pub fn new() -> Calendar<E> {
        Calendar {
            run: Vec::new(),
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
        // Stale keys must not make the heap grow: when it is full and they
        // outnumber the live ones, they are purged first (the run's popped
        // prefix is stale too). Each purge drops over half of the keys, so
        // its cost is amortised O(1) per key.
        let keys = self.run.len() - self.head + self.heap.len();
        if self.heap.len() == self.heap.capacity() && keys > 2 * self.live {
            let slots = &self.slots;
            self.run.retain(|&key| is_live(slots, key));
            self.head = 0;
            self.heap.retain(|&Reverse(key)| is_live(slots, key));
        }
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
        } else if self.run.len() == self.run.capacity() {
            // Out of room: reclaim the popped prefix. A new calendar's run
            // has no buffer yet and takes its full size here, at once,
            // since growing it mid-run would copy it.
            self.run.drain(..self.head);
            at -= self.head;
            self.head = 0;
            self.run.reserve_exact(RUN_SPAN - self.run.len());
        }
        self.run.insert(at, key);
    }

    /// The earliest key, live or stale, refilling the run from the heap if
    /// it is empty.
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

    /// Takes a live slot's event and puts the slot on the free list.
    fn release(&mut self, slot: usize) -> E {
        let state = &mut self.slots[slot];
        state.seq = SEQ_FREE;
        self.free.push(slot as u32);
        self.live -= 1;
        state.event.take().expect("a live slot holds its event")
    }

    /// Cancels a pending event: [`Calendar::remove`], dropping the event.
    ///
    /// Returns `true` if the event was still pending (and is now guaranteed
    /// never to pop). Returns `false` — with no other effect — if the event
    /// already popped, was already cancelled, or was never issued by this
    /// calendar; cancellation is safe to use best-effort (e.g. a timer
    /// cancelling *itself* from within its own handler is a no-op).
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.remove(handle).is_some()
    }

    /// Removes a pending event and returns it, or returns `None` if the
    /// event already popped or was removed, or was never issued by this
    /// calendar. Stale handles are caught by the generation stamp: a
    /// freed or reused slot no longer carries the handle's sequence
    /// number.
    pub fn remove(&mut self, handle: EventHandle) -> Option<E> {
        let slot = handle.slot as usize;
        if self.slots.get(slot)?.seq != handle.seq {
            return None;
        }
        Some(self.release(slot))
    }

    /// Removes and returns the first pending event that satisfies `pred`,
    /// scanning in slab order. O(slab size); the order is deterministic
    /// but unrelated to time, so use a predicate that matches at most one
    /// event.
    pub fn remove_where<F>(&mut self, mut pred: F) -> Option<E>
    where
        F: FnMut(&E) -> bool,
    {
        let slot = self
            .slots
            .iter()
            .position(|state| state.event.as_ref().is_some_and(&mut pred))?;
        Some(self.release(slot))
    }

    /// Removes and returns the earliest pending event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        loop {
            let key = self.front()?;
            self.head += 1;
            if is_live(&self.slots, key) {
                return Some((key_time(key), self.release(key_slot(key))));
            }
        }
    }

    /// Removes and returns the earliest pending event, provided its time
    /// does not exceed `limit`; later events stay scheduled.
    ///
    /// Finds the front once for both the bounds check and the removal —
    /// the engine's run loop calls this once per event.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let limit = order_key(limit.value());
        loop {
            let key = self.front()?;
            let live = is_live(&self.slots, key);
            if live && (key >> 64) as u64 > limit {
                return None;
            }
            self.head += 1;
            if live {
                return Some((key_time(key), self.release(key_slot(key))));
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

    #[test]
    fn cancelled_far_timers_free_their_slots_at_once() {
        // A cancel frees its slot even though the cancelled key, far in
        // the future, never reaches the front: the slab stays bounded by
        // the live events, and the stale keys are purged before the heap
        // would grow.
        let mut cal = Calendar::new();
        cal.schedule(t(1.0), 0);
        for i in 0..10_000 {
            let timer = cal.schedule(t(1e9 + f64::from(i)), i);
            assert!(cal.cancel(timer));
        }
        assert!(cal.slots.len() <= 2, "slab grew to {}", cal.slots.len());
        assert_eq!(cal.heap.capacity(), 0, "stale keys are purged, not heaped");
        assert_eq!(cal.len(), 1);
        assert_eq!(cal.pop(), Some((t(1.0), 0)));
        assert_eq!(cal.pop(), None);
    }

    #[test]
    fn an_empty_calendar_allocates_nothing() {
        let mut cal = Calendar::new();
        assert_eq!(cal.run.capacity(), 0);
        cal.schedule(t(1.0), 'a');
        assert_eq!(cal.run.capacity(), RUN_SPAN, "the run is sized once");
        assert_eq!(cal.pop(), Some((t(1.0), 'a')));
        assert_eq!(cal.run.capacity(), RUN_SPAN, "and kept once empty");
    }

    #[test]
    fn remove_returns_the_payload_once() {
        let mut cal = Calendar::new();
        let a = cal.schedule(t(1.0), "a");
        let b = cal.schedule(t(2.0), "b");
        assert_eq!(cal.remove(b), Some("b"));
        assert_eq!(cal.remove(b), None, "already removed");
        assert_eq!(cal.pop(), Some((t(1.0), "a")));
        assert_eq!(cal.remove(a), None, "already popped");
        assert!(cal.is_empty());
    }

    #[test]
    fn remove_where_takes_the_first_match_in_slab_order() {
        let mut cal = Calendar::new();
        for i in 0..5 {
            cal.schedule(t(f64::from(5 - i)), i);
        }
        assert_eq!(cal.remove_where(|&e| e % 2 == 1), Some(1));
        assert_eq!(cal.remove_where(|&e| e == 9), None);
        assert_eq!(cal.len(), 4);
        let rest: Vec<i32> = std::iter::from_fn(|| cal.pop().map(|(_, e)| e)).collect();
        assert_eq!(rest, vec![4, 3, 2, 0]);
    }
}
