//! Simulation time, delay models, and the deterministic event queue.
//!
//! [`EventQueue`] pops in exact `(time, insertion order)` order at O(1) per
//! event for everything due within 64 ticks of the last pop, which is where
//! the CST simulator's link delays, dwell times and gossip timers land:
//!
//! - **Bucket/heap split.** A 64-slot timing wheel holds events due in
//!   `[cursor, cursor + 64)`, one tick per bucket, where the cursor is the
//!   time of the last pop. Later events (netem latencies in µs, long timer
//!   intervals, scheduled corruptions) go to a far `BinaryHeap` and cost
//!   what a heap costs.
//! - **Tie rule.** On equal times the heap pops first. A heap entry for
//!   tick t was pushed while the cursor was at most t − 64; the cursor only
//!   grows, so every bucket entry for t came later and has a larger
//!   sequence number.
//! - **Slab.** The 64 bucket FIFOs are intrusive lists in one shared slab
//!   with a free list, so their memory is the peak count of near events
//!   rather than 64 separately grown buffers.
//!
//! `snapshot`/`from_snapshot` are independent of the split: a snapshot is
//! the pending `(at, seq, kind)` list in pop order, and a restored queue
//! starts its cursor at 0.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::RngExt;

/// Simulation time in abstract ticks (think microseconds).
pub type Time = u64;

/// Link-delay model for one message transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayModel {
    /// Every transmission takes exactly this many ticks.
    Fixed(Time),
    /// Uniformly random delay in `[min, max]` (inclusive), sampled per
    /// transmission from the simulator's seeded RNG.
    Uniform {
        /// Minimum delay.
        min: Time,
        /// Maximum delay (inclusive).
        max: Time,
    },
}

impl DelayModel {
    /// Sample a delay. Delays are clamped to at least 1 tick so a message
    /// is never delivered at its send instant (the transient period of
    /// Theorem 3 always has positive length).
    pub fn sample(&self, rng: &mut StdRng) -> Time {
        match *self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => {
                let (lo, hi) = if min <= max { (min, max) } else { (max, min) };
                rng.random_range(lo..=hi).max(1)
            }
        }
    }

    /// An upper bound on the sampled delay (used for queue-capacity hints).
    pub fn max_delay(&self) -> Time {
        match *self {
            DelayModel::Fixed(d) => d.max(1),
            DelayModel::Uniform { min, max } => min.max(max).max(1),
        }
    }
}

/// A scheduled simulator event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// The message in flight on directed link `link` arrives.
    Arrival {
        /// Directed link index.
        link: usize,
    },
    /// Node `node`'s periodic retransmission timer fires.
    Timer {
        /// Node index.
        node: usize,
    },
    /// A scheduled transient fault overwrites node `node`'s local state.
    Corruption {
        /// Node index.
        node: usize,
    },
    /// Node `node` performs its deferred rule execution (models critical-
    /// section dwell time between receiving a state and acting on it).
    Execute {
        /// Node index.
        node: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Entry {
    at: Time,
    seq: u64,
    kind: EventKind,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Ticks covered by the wheel: an event due less than this far after the
/// cursor goes into a bucket, anything later into the far heap.
const WHEEL: u64 = 64;
/// End-of-list marker in the slab.
const NIL: u32 = u32::MAX;

/// One bucket entry in the shared slab; `next` links the bucket's FIFO (or
/// the free list). The time is not stored: the bucket fixes it.
#[derive(Debug, Clone, Copy)]
struct Slot {
    seq: u64,
    kind: EventKind,
    next: u32,
}

/// A deterministic event queue: events pop in `(time, insertion order)`
/// order, so two runs with the same seed replay identically.
///
/// A 64-tick timing wheel in front of a far heap (see the module docs for
/// the split, the tie rule and the slab). Because the wheel spans exactly
/// 64 ticks from the cursor, each bucket holds a single tick, and the
/// occupancy mask rotated by the cursor finds the earliest one in O(1).
#[derive(Debug)]
pub struct EventQueue {
    slab: Vec<Slot>,
    /// Head of the free-slot list in `slab`.
    free: u32,
    /// `(head, tail)` slab indices of each bucket's FIFO.
    buckets: [(u32, u32); WHEEL as usize],
    /// Bit `b` set iff bucket `b` is non-empty.
    occupied: u64,
    /// Entries in the buckets.
    near: usize,
    far: BinaryHeap<Reverse<Entry>>,
    cursor: Time,
    seq: u64,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: NIL,
            buckets: [(NIL, NIL); WHEEL as usize],
            occupied: 0,
            near: 0,
            far: BinaryHeap::new(),
            cursor: 0,
            seq: 0,
        }
    }
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `kind` at absolute time `at`.
    pub fn push(&mut self, at: Time, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.insert(Entry { at, seq, kind });
    }

    fn insert(&mut self, entry: Entry) {
        // Events before the cursor (never scheduled by the simulator, but
        // allowed) fall through to the heap, which still pops them first.
        if entry.at < self.cursor || entry.at - self.cursor >= WHEEL {
            self.far.push(Reverse(entry));
            return;
        }
        let slot = Slot { seq: entry.seq, kind: entry.kind, next: NIL };
        let idx = if self.free == NIL {
            self.slab.push(slot);
            u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 near events")
        } else {
            let idx = self.free;
            self.free = self.slab[idx as usize].next;
            self.slab[idx as usize] = slot;
            idx
        };
        let b = (entry.at % WHEEL) as usize;
        match self.buckets[b] {
            (NIL, _) => {
                self.buckets[b] = (idx, idx);
                self.occupied |= 1 << b;
            }
            (_, tail) => {
                self.slab[tail as usize].next = idx;
                self.buckets[b].1 = idx;
            }
        }
        self.near += 1;
    }

    /// Tick of the earliest non-empty bucket.
    fn near_time(&self) -> Option<Time> {
        (self.occupied != 0).then(|| {
            let offset = self.occupied.rotate_right((self.cursor % WHEEL) as u32).trailing_zeros();
            self.cursor + Time::from(offset)
        })
    }

    /// The tick bucket `b` holds: the one in `[cursor, cursor + 64)` that is
    /// `b` modulo 64.
    fn bucket_time(&self, b: usize) -> Time {
        self.cursor + (b as Time + WHEEL - self.cursor % WHEEL) % WHEEL
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, EventKind)> {
        let near = self.near_time();
        let from_far = match (near, self.far.peek()) {
            (None, None) => return None,
            (Some(t), Some(Reverse(f))) => f.at <= t,
            (near, _) => near.is_none(),
        };
        let entry = if from_far {
            self.far.pop().expect("peeked").0
        } else {
            let at = near.expect("checked");
            let b = (at % WHEEL) as usize;
            let idx = self.buckets[b].0;
            let slot = self.slab[idx as usize];
            if slot.next == NIL {
                self.buckets[b] = (NIL, NIL);
                self.occupied &= !(1 << b);
            } else {
                self.buckets[b].0 = slot.next;
            }
            self.slab[idx as usize].next = self.free;
            self.free = idx;
            self.near -= 1;
            Entry { at, seq: slot.seq, kind: slot.kind }
        };
        self.cursor = self.cursor.max(entry.at);
        Some((entry.at, entry.kind))
    }

    /// Earliest scheduled time without popping.
    pub fn peek_time(&self) -> Option<Time> {
        let far = self.far.peek().map(|Reverse(e)| e.at);
        match (self.near_time(), far) {
            (Some(n), Some(f)) => Some(n.min(f)),
            (n, f) => n.or(f),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.near + self.far.len()
    }

    /// True iff nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pending entries as `(at, seq, kind)` sorted in pop order, plus the
    /// next insertion sequence number. Used by cluster checkpointing: a
    /// queue rebuilt from this snapshot pops identically to the original,
    /// including ties.
    pub fn snapshot(&self) -> (Vec<(Time, u64, EventKind)>, u64) {
        let mut entries = Vec::with_capacity(self.len());
        for (b, &(mut idx, _)) in self.buckets.iter().enumerate() {
            let at = self.bucket_time(b);
            while idx != NIL {
                let Slot { seq, kind, next } = self.slab[idx as usize];
                entries.push((at, seq, kind));
                idx = next;
            }
        }
        entries.extend(self.far.iter().map(|Reverse(e)| (e.at, e.seq, e.kind)));
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        (entries, self.seq)
    }

    /// Rebuild a queue from [`EventQueue::snapshot`] output. `next_seq`
    /// must be greater than every restored entry's sequence number so that
    /// post-restore pushes keep losing ties to checkpointed events, exactly
    /// as they would have in the original run. The rebuilt queue's cursor
    /// is 0.
    pub fn from_snapshot(mut entries: Vec<(Time, u64, EventKind)>, next_seq: u64) -> Self {
        // Bucket FIFOs must receive each tick's entries in `seq` order.
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        let mut queue = EventQueue { seq: next_seq, ..EventQueue::default() };
        for (at, seq, kind) in entries {
            queue.insert(Entry { at, seq, kind });
        }
        queue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn fixed_delay_is_at_least_one() {
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(DelayModel::Fixed(0).sample(&mut rng), 1);
        assert_eq!(DelayModel::Fixed(9).sample(&mut rng), 9);
        assert_eq!(DelayModel::Fixed(0).max_delay(), 1);
    }

    #[test]
    fn uniform_delay_stays_in_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = DelayModel::Uniform { min: 3, max: 9 };
        for _ in 0..200 {
            let d = m.sample(&mut rng);
            assert!((3..=9).contains(&d));
        }
        assert_eq!(m.max_delay(), 9);
    }

    #[test]
    fn uniform_delay_tolerates_swapped_bounds() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = DelayModel::Uniform { min: 9, max: 3 };
        for _ in 0..50 {
            assert!((3..=9).contains(&m.sample(&mut rng)));
        }
    }

    #[test]
    fn queue_pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5, EventKind::Timer { node: 0 });
        q.push(1, EventKind::Arrival { link: 2 });
        q.push(3, EventKind::Timer { node: 1 });
        assert_eq!(q.peek_time(), Some(1));
        assert_eq!(q.pop(), Some((1, EventKind::Arrival { link: 2 })));
        assert_eq!(q.pop(), Some((3, EventKind::Timer { node: 1 })));
        assert_eq!(q.pop(), Some((5, EventKind::Timer { node: 0 })));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.push(7, EventKind::Timer { node: 0 });
        q.push(7, EventKind::Timer { node: 1 });
        q.push(7, EventKind::Arrival { link: 0 });
        assert_eq!(q.pop(), Some((7, EventKind::Timer { node: 0 })));
        assert_eq!(q.pop(), Some((7, EventKind::Timer { node: 1 })));
        assert_eq!(q.pop(), Some((7, EventKind::Arrival { link: 0 })));
    }

    #[test]
    fn len_and_is_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1, EventKind::Timer { node: 0 });
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }
}
