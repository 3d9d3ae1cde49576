//! The lossy, delaying, duplicating channel between outboxes and
//! delivery.
//!
//! [`Channel`] queues every delivery in the bucket of the round it is
//! due: `buckets[r % len]` holds the deliveries due at round `r`, in
//! send order. Sends happen in time order, so send order *is* the
//! delivery order and no sequence key is needed. Delays are bounded by
//! the plan's [`DelayModel::max_delay`], so `max_delay + 2` buckets
//! cover every round a queued delivery can be due at (the round being
//! delivered plus the next `max_delay + 1`).
//!
//! Every offered message passes the [`FaultPlan`]'s per-link loss draw,
//! an optional duplication draw, and a delay draw per copy; all come
//! from one seeded splitmix64 stream, so a channel trace is a pure
//! function of `(plan, offer sequence)`. With a
//! [`FaultPlan::is_reliable`] plan the channel makes **zero** random
//! draws and every send lands in the next round's bucket — exactly the
//! reliable [`Simulator`](crate::Simulator)'s one-round buffer.

use crate::fault::{DelayModel, FaultPlan, FaultRng};
use crate::snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
use crate::{Envelope, FaultStats};
use anr_trace::{TraceValue, Tracer};
use std::collections::BTreeMap;

/// One queued `from → to` delivery.
#[derive(Debug, Clone, PartialEq)]
struct Delivery<M> {
    from: usize,
    to: usize,
    msg: M,
}

impl<M: Persist> Persist for Delivery<M> {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.from.persist(w);
        self.to.persist(w);
        self.msg.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(Delivery {
            from: usize::restore(r)?,
            to: usize::restore(r)?,
            msg: M::restore(r)?,
        })
    }
}

/// Live CONGEST accounting: one payload-size probe per offer, counters
/// rolled at every round boundary. Observation only — attaching it
/// never changes the run.
pub(crate) struct Accounting<M> {
    /// Protocol-supplied conservative payload size, in bits.
    bits_of: fn(&M) -> u32,
    pub(crate) peak_payload_bits: u32,
    pub(crate) peak_round_msgs: u64,
    pub(crate) cur_round_msgs: u64,
    pub(crate) total_msgs: u64,
}

impl<M> Accounting<M> {
    pub(crate) fn new(bits_of: fn(&M) -> u32) -> Self {
        Accounting {
            bits_of,
            peak_payload_bits: 0,
            peak_round_msgs: 0,
            cur_round_msgs: 0,
            total_msgs: 0,
        }
    }

    fn record(&mut self, msg: &M, copies: u64) {
        self.peak_payload_bits = self.peak_payload_bits.max((self.bits_of)(msg));
        self.cur_round_msgs += copies;
        self.total_msgs += copies;
    }
}

/// Seeded fault-injecting message channel over per-round buckets.
pub(crate) struct Channel<M> {
    pub(crate) plan: FaultPlan,
    pub(crate) rng: FaultRng,
    /// `buckets[r % len]`: deliveries due at round `r`, in send order.
    buckets: Vec<Vec<Delivery<M>>>,
    /// Deliveries queued across all buckets.
    pub(crate) pending: usize,
    /// The channel's share of the run accounting: sends, deliveries,
    /// drops, duplicates and delays (churn counts stay zero here).
    pub(crate) stats: FaultStats,
    pub(crate) accounting: Option<Accounting<M>>,
    pub(crate) tracer: Tracer,
}

impl<M: Clone> Channel<M> {
    /// An empty channel misbehaving per `plan`.
    pub(crate) fn new(plan: FaultPlan) -> Self {
        let rng = FaultRng::new(plan.seed);
        // The delivered round plus every round a send made during it
        // can be due at.
        let buckets = (0..plan.delay.max_delay() + 2)
            .map(|_| Vec::new())
            .collect();
        Channel {
            plan,
            rng,
            buckets,
            pending: 0,
            stats: FaultStats::default(),
            accounting: None,
            tracer: Tracer::disabled(),
        }
    }

    fn slot(&self, round: u64) -> usize {
        (round % self.buckets.len() as u64) as usize
    }

    /// Offers one `from → to` send made with arrival base `base` (the
    /// round after the sending round). The message may be lost,
    /// duplicated and delayed; surviving copies are queued in the
    /// bucket of round `base + delay`.
    pub(crate) fn offer(&mut self, from: usize, to: usize, msg: M, base: u64) {
        let p = self.plan.loss_on(from, to);
        if p > 0.0 && self.rng.unit() < p {
            // A lost message still crossed the link: it counts against
            // the CONGEST budget just like a delivered one.
            if let Some(acc) = &mut self.accounting {
                acc.record(&msg, 1);
            }
            self.stats.dropped_loss += 1;
            if self.tracer.is_enabled() {
                self.tracer.event(
                    "msg_drop",
                    &[
                        ("from", TraceValue::U64(from as u64)),
                        ("to", TraceValue::U64(to as u64)),
                        ("reason", TraceValue::Str("loss".to_string())),
                    ],
                );
            }
            return;
        }
        let duplicate = self.plan.duplication > 0.0 && self.rng.unit() < self.plan.duplication;
        if let Some(acc) = &mut self.accounting {
            acc.record(&msg, if duplicate { 2 } else { 1 });
        }
        if duplicate {
            self.stats.duplicated += 1;
            self.enqueue(from, to, msg.clone(), base);
        }
        self.enqueue(from, to, msg, base);
    }

    /// Draws one copy's delay and queues it.
    fn enqueue(&mut self, from: usize, to: usize, msg: M, base: u64) {
        let delay = match self.plan.delay {
            DelayModel::None => 0,
            DelayModel::Fixed(k) => k,
            DelayModel::Uniform { min, max } if min == max => min,
            DelayModel::Uniform { min, max } => self.rng.uniform_usize(min, max),
        };
        if delay > 0 {
            self.stats.delayed += 1;
        }
        let slot = self.slot(base + delay as u64);
        self.buckets[slot].push(Delivery { from, to, msg });
        self.pending += 1;
        self.stats.sent += 1;
        if self.tracer.is_enabled() {
            self.tracer.event(
                "msg_send",
                &[
                    ("from", TraceValue::U64(from as u64)),
                    ("to", TraceValue::U64(to as u64)),
                    ("delay", TraceValue::U64(delay as u64)),
                ],
            );
        }
    }

    /// Hands every delivery due at `round` to `arrive`, in send order.
    /// Deliveries addressed to a robot marked crashed are dropped and
    /// counted instead. Returns how many deliveries the bucket held.
    pub(crate) fn deliver(
        &mut self,
        round: u64,
        crashed: &[bool],
        mut arrive: impl FnMut(usize, Envelope<M>),
    ) -> usize {
        let slot = self.slot(round);
        let mut bucket = std::mem::take(&mut self.buckets[slot]);
        let count = bucket.len();
        self.pending -= count;
        let mut crash_drops: BTreeMap<usize, u64> = BTreeMap::new();
        for Delivery { from, to, msg } in bucket.drain(..) {
            if crashed[to] {
                self.stats.dropped_crash += 1;
                if self.tracer.is_enabled() {
                    *crash_drops.entry(to).or_insert(0) += 1;
                }
            } else {
                self.stats.delivered += 1;
                arrive(to, Envelope { from, msg });
            }
        }
        // Hand the emptied bucket back so its allocation is reused.
        self.buckets[slot] = bucket;
        for (to, count) in crash_drops {
            self.tracer.event(
                "msg_drop",
                &[
                    ("to", TraceValue::U64(to as u64)),
                    ("count", TraceValue::U64(count)),
                    ("reason", TraceValue::Str("crash".to_string())),
                ],
            );
        }
        count
    }

    /// The earliest round at or after `now` with a delivery due.
    pub(crate) fn next_due(&self, now: u64) -> Option<u64> {
        if self.pending == 0 {
            return None;
        }
        (now..now + self.buckets.len() as u64).find(|&r| !self.buckets[self.slot(r)].is_empty())
    }

    /// Robots with at least one delivery queued towards them, sorted.
    pub(crate) fn pending_recipients(&self) -> Vec<usize> {
        let mut pending: Vec<usize> = self.buckets.iter().flatten().map(|d| d.to).collect();
        pending.sort_unstable();
        pending.dedup();
        pending
    }

    /// Closes the accounting round: the per-round send counter rolls
    /// into the peak.
    pub(crate) fn roll_round(&mut self) {
        if let Some(acc) = &mut self.accounting {
            acc.peak_round_msgs = acc.peak_round_msgs.max(acc.cur_round_msgs);
            acc.cur_round_msgs = 0;
        }
    }
}

impl<M: Clone + Persist> Channel<M> {
    /// Writes the queued deliveries: the bucket count, then the buckets
    /// of rounds `now, now + 1, …` in that order, each in send order.
    pub(crate) fn persist_queue(&self, now: u64, w: &mut SnapshotWriter) {
        w.put_u64(self.buckets.len() as u64);
        for round in now..now + self.buckets.len() as u64 {
            self.buckets[self.slot(round)].persist(w);
        }
    }

    /// Reads back what [`persist_queue`](Self::persist_queue) wrote.
    /// Returns `false` when the bucket count disagrees with the plan's
    /// delay bound or a delivery names a robot outside `0..n`.
    pub(crate) fn restore_queue(
        &mut self,
        now: u64,
        n: usize,
        r: &mut SnapshotReader<'_>,
    ) -> Result<bool, PersistError> {
        if u64::restore(r)? != self.buckets.len() as u64 {
            return Ok(false);
        }
        for round in now..now + self.buckets.len() as u64 {
            let bucket = Vec::<Delivery<M>>::restore(r)?;
            if bucket.iter().any(|d| d.from >= n || d.to >= n) {
                return Ok(false);
            }
            self.pending += bucket.len();
            let slot = self.slot(round);
            self.buckets[slot] = bucket;
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Delivers round `round` to `n` robots, none crashed.
    fn inboxes(ch: &mut Channel<u32>, round: u64, n: usize) -> Vec<Vec<Envelope<u32>>> {
        let mut out = vec![Vec::new(); n];
        ch.deliver(round, &vec![false; n], |to, env| out[to].push(env));
        out
    }

    #[test]
    fn reliable_channel_is_a_one_round_buffer() {
        let mut ch: Channel<u32> = Channel::new(FaultPlan::reliable(1));
        assert_eq!(ch.buckets.len(), 2);
        ch.offer(0, 1, 10, 1);
        ch.offer(2, 1, 20, 1);
        ch.offer(1, 0, 30, 1);
        assert_eq!(ch.next_due(1), Some(1));
        assert_eq!(ch.pending_recipients(), vec![0, 1]);
        let inboxes = inboxes(&mut ch, 1, 3);
        assert_eq!(inboxes[1].len(), 2);
        assert_eq!(inboxes[1][0].from, 0);
        assert_eq!(inboxes[1][1].from, 2);
        assert_eq!(inboxes[0][0].msg, 30);
        assert_eq!(ch.next_due(2), None);
        assert_eq!(ch.stats.sent, 3);
        assert_eq!(ch.stats.dropped_loss, 0);
    }

    #[test]
    fn fixed_delay_postpones_delivery() {
        let plan = FaultPlan::reliable(1).with_delay(DelayModel::Fixed(2));
        let mut ch: Channel<u32> = Channel::new(plan);
        ch.offer(0, 1, 5, 1);
        // Two rounds of nothing, then the message.
        assert_eq!(ch.next_due(1), Some(3));
        assert!(inboxes(&mut ch, 1, 2)[1].is_empty());
        assert!(inboxes(&mut ch, 2, 2)[1].is_empty());
        assert_eq!(inboxes(&mut ch, 3, 2)[1].len(), 1);
        assert_eq!(ch.stats.delayed, 1);
    }

    #[test]
    fn crashed_recipient_drops_at_delivery() {
        let mut ch: Channel<u32> = Channel::new(FaultPlan::reliable(1));
        ch.offer(0, 1, 5, 1);
        let delivered = ch.deliver(1, &[false, true], |_, _| panic!("crashed robot received"));
        assert_eq!(delivered, 1);
        assert_eq!(ch.stats.dropped_crash, 1);
        assert_eq!(ch.stats.delivered, 0);
    }

    #[test]
    fn loss_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let plan = FaultPlan::reliable(seed).with_loss(0.5);
            let mut ch: Channel<u32> = Channel::new(plan);
            for i in 0..100 {
                ch.offer(0, 1, i, 1);
            }
            ch.stats
        };
        assert_eq!(run(7), run(7));
        let s = run(7);
        assert!(s.dropped_loss > 20 && s.dropped_loss < 80);
        assert_eq!(s.sent + s.dropped_loss, 100);
    }

    #[test]
    fn duplication_creates_extra_copies() {
        let plan = FaultPlan::reliable(3).with_duplication(0.5);
        let mut ch: Channel<u32> = Channel::new(plan);
        for i in 0..100 {
            ch.offer(0, 1, i, 1);
        }
        let s = ch.stats;
        assert!(s.duplicated > 20 && s.duplicated < 80);
        assert_eq!(s.sent, 100 + s.duplicated);
    }

    #[test]
    fn uniform_delay_reorders() {
        let plan = FaultPlan::reliable(11).with_delay(DelayModel::Uniform { min: 0, max: 3 });
        let mut ch: Channel<u32> = Channel::new(plan);
        for i in 0..20 {
            ch.offer(0, 1, i, 1);
        }
        let mut arrival: Vec<u32> = Vec::new();
        for round in 1..6 {
            arrival.extend(inboxes(&mut ch, round, 2)[1].iter().map(|e| e.msg));
        }
        assert_eq!(arrival.len(), 20, "all messages eventually arrive");
        let mut sorted = arrival.clone();
        sorted.sort_unstable();
        assert_ne!(arrival, sorted, "uniform delay should reorder (seed 11)");
    }

    #[test]
    fn per_link_override_applies() {
        // Global loss stays 0; only link {0, 1} is overridden to 95%.
        let plan = FaultPlan::reliable(5).with_link_loss(0, 1, 0.95);
        let mut ch: Channel<u32> = Channel::new(plan);
        for i in 0..100 {
            ch.offer(0, 1, i, 1); // lossy link
            ch.offer(0, 2, i, 1); // clean link
        }
        let s = ch.stats;
        assert!(s.dropped_loss > 70, "95% loss link should drop most");
        // The clean link delivered everything: sent >= 100.
        assert!(s.sent >= 100);
    }
}
