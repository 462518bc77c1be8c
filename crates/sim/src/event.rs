//! Deterministic event queue.
//!
//! The queue orders events by their firing time; events scheduled for the
//! same instant fire in the order they were scheduled (FIFO). This tie-break
//! rule is what makes simulation runs bit-for-bit reproducible: a plain
//! binary heap over `(Instant, payload)` would pop equal-time events in an
//! unspecified order.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::Instant;

/// Handle to a scheduled event, usable for cancellation.
///
/// It names the queue slot the event occupies and the event's sequence
/// number; it matches only while that event is still pending.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventHandle {
    slot: u32,
    seq: u64,
}

/// Marks a free slot (no live event has this sequence number).
const FREE: u64 = u64::MAX;

/// A heap entry: the ordering key of a pending event and the slot that
/// holds its payload. It is 24 bytes whatever the payload, so a sift moves
/// no payload.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Key {
    at: Instant,
    seq: u64,
    slot: u32,
}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties,
        // the first-scheduled) entry surfaces first.
        other.at.cmp(&self.at).then_with(|| other.seq.cmp(&self.seq))
    }
}

/// One slot of the table: the sequence number of the pending event that
/// occupies it (or [`FREE`]) and that event's payload.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A time-ordered queue of events with payloads of type `E`.
///
/// The heap orders keys only; every pending event's payload sits in a
/// slot, next to the event's sequence number. Popping the event moves the
/// payload out and cancelling it drops the payload at once; either frees
/// the slot for reuse, so the slot table is as large as the most events
/// ever pending at once. A cancelled event's key stays in the heap until
/// it reaches the top, where it is recognised as stale (its slot no
/// longer holds its sequence number) and dropped.
///
/// # Examples
///
/// ```
/// use umtslab_sim::event::EventQueue;
/// use umtslab_sim::time::Instant;
///
/// let mut q = EventQueue::new();
/// q.schedule(Instant::from_millis(5), "second");
/// q.schedule(Instant::from_millis(1), "first");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!((t, e), (Instant::from_millis(1), "first"));
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Key>,
    next_seq: u64,
    slots: Vec<Slot<E>>,
    /// Free slots, reused before the table grows.
    free: Vec<u32>,
    live: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Schedules `payload` to fire at `at`. Returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    pub fn schedule(&mut self, at: Instant, payload: E) -> EventHandle {
        let seq = self.next_seq;
        self.next_seq += 1;
        let occupied = Slot { seq, payload: Some(payload) };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = occupied;
                slot
            }
            None => {
                self.slots.push(occupied);
                u32::try_from(self.slots.len() - 1).expect("under 2^32 pending events")
            }
        };
        self.heap.push(Key { at, seq, slot });
        self.live += 1;
        EventHandle { slot, seq }
    }

    /// Cancels a previously scheduled event and drops its payload.
    /// Returns `true` if the event was still pending (it will never be
    /// popped), `false` if it had already fired or been cancelled.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        if self.slots.get(handle.slot as usize).map(|s| s.seq) != Some(handle.seq) {
            return false;
        }
        drop(self.release(handle.slot));
        true
    }

    /// The firing time of the next pending event, if any.
    pub fn peek_time(&mut self) -> Option<Instant> {
        self.skip_cancelled();
        self.heap.peek().map(|k| k.at)
    }

    /// Pops the next pending event, moving its payload out of its slot.
    pub fn pop(&mut self) -> Option<(Instant, E)> {
        self.skip_cancelled();
        let key = self.heap.pop()?;
        Some((key.at, self.release(key.slot)))
    }

    /// Number of pending (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Frees an occupied slot and returns its payload.
    fn release(&mut self, slot: u32) -> E {
        let s = &mut self.slots[slot as usize];
        s.seq = FREE;
        let payload = s.payload.take().expect("an occupied slot holds its payload");
        self.free.push(slot);
        self.live -= 1;
        payload
    }

    /// Drops stale (cancelled) keys from the top of the heap. Their slots
    /// were freed when they were cancelled.
    fn skip_cancelled(&mut self) {
        while let Some(top) = self.heap.peek() {
            if self.slots[top.slot as usize].seq == top.seq {
                break;
            }
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Instant;

    fn t(ms: u64) -> Instant {
        Instant::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), 3);
        q.schedule(t(10), 1);
        q.schedule(t(20), 2);
        assert_eq!(q.pop(), Some((t(10), 1)));
        assert_eq!(q.pop(), Some((t(20), 2)));
        assert_eq!(q.pop(), Some((t(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_prevents_pop() {
        let mut q = EventQueue::new();
        let h1 = q.schedule(t(1), "a");
        let _h2 = q.schedule(t(2), "b");
        assert!(q.cancel(h1));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(2), "b")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_after_fire_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        assert_eq!(q.pop(), Some((t(1), "a")));
        assert!(!q.cancel(h));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_noop() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        assert!(q.cancel(h));
        assert!(!q.cancel(h));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn cancel_bogus_handle_is_noop() {
        let mut q: EventQueue<&str> = EventQueue::new();
        assert!(!q.cancel(EventHandle { slot: 42, seq: 42 }));
        // A handle naming a live slot with another sequence number does
        // not match.
        let h = q.schedule(t(1), "a");
        assert!(!q.cancel(EventHandle { slot: h.slot, seq: h.seq + 1 }));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), "a");
        q.schedule(t(2), "b");
        q.cancel(h);
        assert_eq!(q.peek_time(), Some(t(2)));
    }

    #[test]
    fn len_tracks_schedule_pop_cancel() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let h = q.schedule(t(1), 1);
        q.schedule(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(h);
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn tables_stay_bounded_over_a_million_cycles() {
        // A hold model: at most 64 events pending, every op pops one and
        // schedules one, and every third op also cancels one.
        const DEPTH: usize = 64;
        let mut q = EventQueue::new();
        let mut pending = Vec::new();
        // Cancelled entries still in the heap, keyed like the heap orders
        // them: (at, schedule index).
        let mut stale: Vec<(Instant, u64)> = Vec::new();
        let mut next = 0u64;
        let mut schedule = |q: &mut EventQueue<u64>, now: Instant, pending: &mut Vec<_>| {
            let at = now + crate::time::Duration::from_micros(1 + next * 7_919 % 1_000);
            pending.push((q.schedule(at, next), at, next));
            next += 1;
        };
        for _ in 0..DEPTH {
            schedule(&mut q, Instant::ZERO, &mut pending);
        }
        for i in 0..1_000_000u64 {
            let (now, fired) = q.pop().expect("the hold model keeps events pending");
            pending.retain(|&(_, _, idx)| idx != fired);
            stale.retain(|&key| key > (now, fired));
            if i % 3 == 0 && !pending.is_empty() {
                let (h, at, idx) = pending.swap_remove((i as usize * 31) % pending.len());
                assert!(q.cancel(h));
                assert!(!q.cancel(h), "a cancelled handle no longer matches");
                stale.push((at, idx));
            }
            while q.len() < DEPTH {
                schedule(&mut q, now, &mut pending);
            }
            assert!(q.slots.len() <= DEPTH, "slot table grew to {}", q.slots.len());
            let payloads = q.slots.iter().filter(|s| s.payload.is_some()).count();
            assert_eq!(payloads, q.len(), "only pending events hold a payload");
            assert_eq!(q.slots.len(), q.len() + q.free.len());
            assert!(
                q.heap.len() <= DEPTH + stale.len(),
                "heap {} stale {}",
                q.heap.len(),
                stale.len()
            );
        }
        assert_eq!(q.len(), DEPTH);
        assert_eq!(q.slots.len() - q.free.len(), DEPTH);
    }

    /// A payload that counts its drops.
    struct Counted(std::rc::Rc<std::cell::Cell<u32>>);

    impl Drop for Counted {
        fn drop(&mut self) {
            self.0.set(self.0.get() + 1);
        }
    }

    #[test]
    fn cancel_drops_the_payload_at_once() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), Counted(drops.clone()));
        q.schedule(t(2), Counted(drops.clone()));
        assert!(q.cancel(h));
        // The cancelled key is still in the heap; its payload is not.
        assert_eq!(drops.get(), 1);
        assert_eq!(q.heap.len(), 2);
        assert!(!q.cancel(h));
        assert_eq!(drops.get(), 1, "a second cancel drops nothing");
    }

    #[test]
    fn pop_moves_the_payload_out() {
        let drops = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut q = EventQueue::new();
        let h = q.schedule(t(1), Counted(drops.clone()));
        q.schedule(t(2), Counted(drops.clone()));
        let (_, first) = q.pop().expect("pending");
        assert_eq!(drops.get(), 0, "popping drops nothing");
        assert!(!q.cancel(h), "a popped event cannot be cancelled");
        assert_eq!(drops.get(), 0);
        drop(first);
        assert_eq!(drops.get(), 1);
        let (_, second) = q.pop().expect("pending");
        assert_eq!(drops.get(), 1);
        drop(second);
        assert_eq!(drops.get(), 2);
        assert!(q.slots.iter().all(|s| s.payload.is_none()));
    }

    #[test]
    fn heap_entries_are_keys_of_24_bytes() {
        assert_eq!(std::mem::size_of::<Key>(), 24);
    }
}
