//! Priority-queue fixture: a `BinaryHeap` over a key-only manual `Ord`
//! — the classic discrete-event queue idiom. Must stay clean under every
//! rule: ordered collections are sanctioned (D1 targets hash maps, not
//! heaps) and a total, integer-keyed `Ord` needs no `partial_cmp`
//! unwrapping (F1) nor any other panic path (P1).
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A queued event ordered by `(due, class, ord)` only; the payload is
/// deliberately excluded from the ordering.
pub struct Event {
    /// Delivery time.
    pub due: u64,
    /// Tie-break class at equal times.
    pub class: u8,
    /// Final tie-break: unique sequence number.
    pub ord: u64,
    /// Payload; never compared.
    pub payload: Vec<u8>,
}

impl Event {
    fn key(&self) -> (u64, u8, u64) {
        (self.due, self.class, self.ord)
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key().cmp(&other.key())
    }
}

/// Drains events in `(due, class, ord)` order via a min-heap.
pub fn drain_in_order(events: Vec<Event>) -> Vec<(u64, u8, u64)> {
    let mut heap: BinaryHeap<Reverse<Event>> = events.into_iter().map(Reverse).collect();
    let mut out = Vec::with_capacity(heap.len());
    while let Some(Reverse(ev)) = heap.pop() {
        out.push(ev.key());
    }
    out
}
