//! Differential property test for `EventQueue`: the timing wheel with its
//! far heap must behave exactly like a plain binary heap ordered by
//! `(time, insertion sequence)`, op for op, including across a
//! `snapshot()` → `from_snapshot()` round trip.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use proptest::prelude::*;

use ssr_mpnet::{EventKind, EventQueue, Time};

/// `EventKind` as an orderable `(discriminant, index)` pair.
type Code = (u8, usize);

fn code(kind: EventKind) -> Code {
    match kind {
        EventKind::Arrival { link } => (0, link),
        EventKind::Timer { node } => (1, node),
        EventKind::Corruption { node } => (2, node),
        EventKind::Execute { node } => (3, node),
    }
}

fn kind((disc, idx): Code) -> EventKind {
    match disc {
        0 => EventKind::Arrival { link: idx },
        1 => EventKind::Timer { node: idx },
        2 => EventKind::Corruption { node: idx },
        _ => EventKind::Execute { node: idx },
    }
}

/// The queue semantics the wheel must reproduce.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(Time, u64, Code)>>,
    seq: u64,
}

impl Reference {
    fn push(&mut self, at: Time, kind: EventKind) {
        self.heap.push(Reverse((at, self.seq, code(kind))));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(Time, EventKind)> {
        self.heap.pop().map(|Reverse((at, _, k))| (at, kind(k)))
    }

    fn snapshot(&self) -> (Vec<(Time, u64, EventKind)>, u64) {
        let mut entries: Vec<_> =
            self.heap.iter().map(|&Reverse((at, seq, k))| (at, seq, kind(k))).collect();
        entries.sort_unstable_by_key(|&(at, seq, _)| (at, seq));
        (entries, self.seq)
    }
}

/// Where a push lands, relative to the time of the last pop.
#[derive(Debug, Clone)]
enum When {
    /// Inside the wheel: 0..=63 ticks ahead.
    Near(Time),
    /// Exactly one wheel width ahead, the first far tick.
    Edge,
    /// Beyond the wheel: 65..=10^6 ticks ahead.
    Far(Time),
    /// One of a few fixed ticks, so pushes made from far away and from
    /// close by pile up on the same tick.
    Tie(usize),
    /// Before the last pop (the simulator never does this, the API allows it).
    Past(Time),
}

#[derive(Debug, Clone)]
enum Op {
    Push(When, Code),
    Pop,
    Restore,
}

/// Absolute ticks the `Tie` pushes share.
const TIE_TICKS: [Time; 4] = [70, 130, 131, 400];

/// One operation, drawn with weights: push 12/24 (near 4, edge 1, far 2,
/// tie 4, past 1), pop 10/24, restore 2/24.
fn op() -> impl Strategy<Value = Op> {
    (0..24u32, 0..=1_000_000u64, 0..4u8, 0..16usize).prop_map(|(pick, r, disc, idx)| {
        let when = match pick {
            0..=3 => When::Near(r % 64),
            4 => When::Edge,
            5..=6 => When::Far(65 + r % (1_000_000 - 64)),
            7..=10 => When::Tie(r as usize % TIE_TICKS.len()),
            11 => When::Past(1 + r % 100),
            12..=21 => return Op::Pop,
            _ => return Op::Restore,
        };
        Op::Push(when, (disc, idx))
    })
}

fn assert_same(queue: &EventQueue, reference: &Reference) {
    assert_eq!(queue.peek_time(), reference.heap.peek().map(|Reverse(e)| e.0));
    assert_eq!(queue.len(), reference.heap.len());
    assert_eq!(queue.is_empty(), reference.heap.is_empty());
    assert_eq!(queue.snapshot(), reference.snapshot());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every interleaving of pushes, pops and snapshot round trips pops the
    /// same sequence as the reference heap, with equal `peek_time`, `len`,
    /// `is_empty` and `snapshot` after every operation.
    #[test]
    fn wheel_matches_a_binary_heap(ops in proptest::collection::vec(op(), 1..600)) {
        let mut queue = EventQueue::new();
        let mut reference = Reference::default();
        let mut last_pop: Time = 0;
        for op in ops {
            match op {
                Op::Push(when, k) => {
                    let at = match when {
                        When::Near(d) => last_pop + d,
                        When::Edge => last_pop + 64,
                        When::Far(d) => last_pop + d,
                        When::Tie(i) => TIE_TICKS[i].max(last_pop),
                        When::Past(d) => last_pop.saturating_sub(d),
                    };
                    queue.push(at, kind(k));
                    reference.push(at, kind(k));
                }
                Op::Pop => {
                    let got = queue.pop();
                    prop_assert_eq!(got, reference.pop());
                    if let Some((at, _)) = got {
                        last_pop = last_pop.max(at);
                    }
                }
                Op::Restore => {
                    // The rebuilt queue's cursor restarts at 0 while later
                    // pushes keep landing after the last pop, as in a
                    // restored simulation.
                    let (entries, next_seq) = queue.snapshot();
                    queue = EventQueue::from_snapshot(entries, next_seq);
                }
            }
            assert_same(&queue, &reference);
        }
        while let Some(got) = queue.pop() {
            prop_assert_eq!(Some(got), reference.pop());
            assert_same(&queue, &reference);
        }
        prop_assert!(reference.heap.is_empty());
    }
}
