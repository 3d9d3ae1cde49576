//! The fault-injecting event engine.
//!
//! [`EventSim`] runs the same [`Node`] protocols as the reliable
//! [`Simulator`](crate::Simulator), but routes every send through a
//! seeded [`FaultPlan`]: messages may be lost, delayed, duplicated, and
//! robots may crash and recover on a schedule. It only executes rounds
//! in which something is due, and in those rounds it only steps the
//! robots that have something to do.
//!
//! Semantics per round `r`:
//!
//! 1. churn events scheduled for round `r` take effect (a robot crashed
//!    at round `r` neither receives nor steps in round `r`);
//! 2. deliveries due at `r` arrive in send order (those addressed to
//!    crashed robots are dropped);
//! 3. every woken live robot's `on_round` runs, in index order; its
//!    sends enter the channel.
//!
//! Crashed robots keep their protocol state and resume at a scheduled
//! recovery; messages already in flight towards a robot are dropped
//! only if it is still crashed at arrival time.
//!
//! ## Queues
//!
//! * **Deliveries** sit in per-round buckets (see `channel.rs`), in send
//!   order, which is the delivery order.
//! * **Churn** is read through a cursor over the round-sorted plan
//!   (ties keep plan order).
//! * **Wakeups** are a list of the robots to step at the next round to
//!   execute. A robot is woken by a delivery, by a recovery, or because
//!   it was not [`idle`](Node::idle) after its last step.
//!
//! ## Why dormancy is behavior-preserving
//!
//! The [`Node::idle`] contract says an idle node's `on_round` with an
//! empty inbox changes no state, sends nothing, and draws no randomness
//! — so skipping it is unobservable. Nodes that keep the default
//! (`false`) are stepped every round, exactly like the reliable
//! simulator; idle nodes are woken only by a delivery. That turns
//! `Θ(n)` per round into `Θ(active)` per round, and rounds with nothing
//! due cost nothing at all.
//!
//! Under a [`FaultPlan::is_reliable`] plan the engine reproduces the
//! reliable [`Simulator`](crate::Simulator) exactly: same rounds, same
//! message counts, same delivery order, same final node states (pinned
//! by the property tests).

use crate::channel::{Accounting, Channel};
use crate::fault::{ChurnEvent, ChurnKind, FaultPlan};
use crate::topology::Topology;
use crate::{Envelope, Node, Outbox, SimError, BROADCAST};
use anr_trace::{TraceValue, Tracer};

/// Accounting for a fault-injected run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Rounds executed (not counting `on_start`).
    pub rounds: usize,
    /// Messages accepted into the channel (after loss; duplicates count).
    pub sent: usize,
    /// Messages handed to a live robot's inbox.
    pub delivered: usize,
    /// Messages dropped by the loss model.
    pub dropped_loss: usize,
    /// Messages dropped because the recipient was crashed at arrival.
    pub dropped_crash: usize,
    /// Extra copies created by the duplication model.
    pub duplicated: usize,
    /// Deliveries that suffered a non-zero delay.
    pub delayed: usize,
    /// Crash events applied.
    pub crashes: usize,
    /// Recovery events applied.
    pub recoveries: usize,
}

/// CONGEST-model accounting observed during a run, as reported by
/// [`EventSim::model_observation`].
///
/// These are the runtime counterparts of the static declarations in
/// `lint.models.toml`: the robust runners assert `peak_payload_bits` ≤
/// the protocol's declared `bits` budget, and the distsim bench records
/// the whole observation next to the static bound so CI can cross-check
/// them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ModelObservation {
    /// Largest payload (in bits, per the protocol's size function)
    /// offered over any single link in the run.
    pub peak_payload_bits: u32,
    /// Most messages offered to the fault model in any single round.
    pub peak_round_msgs: u64,
    /// Total messages offered across the run (including loss-dropped
    /// and duplicated copies).
    pub total_msgs: u64,
    /// Rounds of simulated time elapsed when the observation was read.
    pub rounds: u64,
}

/// Deterministic fault-injecting event simulator.
///
/// State is struct-of-arrays: nodes, crash flags, wake flags and
/// inboxes are parallel vectors indexed by robot.
pub struct EventSim<N: Node, T: Topology> {
    topology: T,
    pub(crate) nodes: Vec<N>,
    pub(crate) crashed: Vec<bool>,
    /// Churn events sorted by round (stable, so plan order breaks ties).
    churn: Vec<ChurnEvent>,
    /// Churn events applied so far.
    pub(crate) churn_cursor: usize,
    pub(crate) channel: Channel<N::Msg>,
    /// Robots to step at round `now`; ascending at round boundaries.
    pub(crate) wake: Vec<usize>,
    /// `queued[u]` ⇔ `u` is in `wake`.
    pub(crate) queued: Vec<bool>,
    /// The robots being stepped this round (reused allocation).
    stepping: Vec<usize>,
    /// Per-robot inboxes, filled and drained within a round.
    inboxes: Vec<Vec<Envelope<N::Msg>>>,
    /// Drained inbox allocations, reused by the next round's
    /// recipients (so memory follows the active set, not `n`).
    spare: Vec<Vec<Envelope<N::Msg>>>,
    /// Next round to execute == rounds completed so far.
    pub(crate) now: u64,
    pub(crate) started: bool,
    pub(crate) crashes: usize,
    pub(crate) recoveries: usize,
    pub(crate) tracer: Tracer,
}

impl<N: Node, T: Topology> std::fmt::Debug for EventSim<N, T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventSim")
            .field("robots", &self.nodes.len())
            .field("now", &self.now)
            .field("pending_msgs", &self.channel.pending)
            .field("woken", &self.wake.len())
            .field("started", &self.started)
            .finish_non_exhaustive()
    }
}

impl<N: Node, T: Topology> EventSim<N, T> {
    /// Creates an event simulator over `nodes` connected by `topology`,
    /// misbehaving per `plan`.
    ///
    /// # Errors
    ///
    /// [`SimError::TopologyMismatch`] when `nodes` and `topology`
    /// disagree on the robot count, or
    /// [`SimError::InvalidFaultPlan`] when the plan references robots
    /// outside the topology.
    pub fn new(nodes: Vec<N>, topology: T, plan: FaultPlan) -> Result<Self, SimError> {
        if nodes.len() != topology.len() {
            return Err(SimError::TopologyMismatch {
                nodes: nodes.len(),
                adjacency: topology.len(),
            });
        }
        plan.validate(nodes.len())?;
        let churn = sorted_churn(&plan);
        Ok(Self::from_parts(
            topology,
            nodes,
            churn,
            Channel::new(plan),
            Tracer::disabled(),
        ))
    }

    /// A simulator at round 0, not yet started; `restore` overwrites
    /// the dynamic state afterwards.
    pub(crate) fn from_parts(
        topology: T,
        nodes: Vec<N>,
        churn: Vec<ChurnEvent>,
        channel: Channel<N::Msg>,
        tracer: Tracer,
    ) -> Self {
        let n = nodes.len();
        EventSim {
            topology,
            nodes,
            crashed: vec![false; n],
            churn,
            churn_cursor: 0,
            channel,
            wake: Vec::new(),
            queued: vec![false; n],
            stepping: Vec::new(),
            inboxes: (0..n).map(|_| Vec::new()).collect(),
            spare: Vec::new(),
            now: 0,
            started: false,
            crashes: 0,
            recoveries: 0,
            tracer,
        }
    }

    /// Attaches a tracer: the engine then emits `msg_send` / `msg_drop`
    /// / `msg_deliver` and `robot_crash` / `robot_recover` events, plus
    /// an `events_executed` counter (churn events, deliveries and robot
    /// steps) and a `queue_depth` histogram sample (queued deliveries
    /// plus woken robots) per executed round. Tracing is observation
    /// only — the run is bit-identical with or without it.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &Tracer) -> Self {
        self.tracer = tracer.clone();
        self.channel.tracer = tracer.clone();
        self
    }

    /// Attaches CONGEST accounting: `bits_of` is the protocol's
    /// conservative per-payload size function (matching the static
    /// bound anr-lint rule M1 computes). Every offered message — drops
    /// and duplicate copies included — is measured, and per-round send
    /// counters are rolled at each round boundary. Like tracing, this
    /// is observation only: the run is bit-identical with or without
    /// it.
    #[must_use]
    pub fn with_accounting(mut self, bits_of: fn(&N::Msg) -> u32) -> Self {
        self.channel.accounting = Some(Accounting::new(bits_of));
        self
    }

    /// The accounting observed so far, when
    /// [`with_accounting`](EventSim::with_accounting) was attached.
    /// `rounds` reflects the current simulated time.
    pub fn model_observation(&self) -> Option<ModelObservation> {
        self.channel
            .accounting
            .as_ref()
            .map(|acc| ModelObservation {
                peak_payload_bits: acc.peak_payload_bits,
                peak_round_msgs: acc.peak_round_msgs.max(acc.cur_round_msgs),
                total_msgs: acc.total_msgs,
                rounds: self.now,
            })
    }

    /// Read access to the nodes.
    #[inline]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the nodes.
    #[inline]
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// Consumes the simulator, returning the nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }

    /// The topology (mutable: lazy topologies cache rows on query).
    #[inline]
    pub fn topology_mut(&mut self) -> &mut T {
        &mut self.topology
    }

    /// Is robot `i` currently crashed?
    pub fn is_crashed(&self, i: usize) -> bool {
        self.crashed[i]
    }

    /// Rounds completed so far.
    pub fn rounds(&self) -> usize {
        self.now as usize
    }

    /// Accounting so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            rounds: self.now as usize,
            crashes: self.crashes,
            recoveries: self.recoveries,
            ..self.channel.stats
        }
    }

    /// Are any deliveries queued for this or a future round?
    pub fn has_messages_in_flight(&self) -> bool {
        self.channel.pending > 0
    }

    /// Robots with deliveries queued towards them, sorted ascending —
    /// the payload of [`SimError::NotQuiescent`].
    pub fn pending_recipients(&self) -> Vec<usize> {
        self.channel.pending_recipients()
    }

    /// Queues `u` for stepping at the round being (or next) executed,
    /// unless it is queued already.
    fn wake(&mut self, u: usize) {
        if !self.queued[u] {
            self.queued[u] = true;
            self.wake.push(u);
        }
    }

    /// Commits a node's outbox: broadcasts expand over the neighbor row
    /// in order, unicast destinations are validated against the
    /// topology. `base` is the round the sends arrive at without delay.
    fn commit_outbox(
        &mut self,
        from: usize,
        mut out: Outbox<N::Msg>,
        base: u64,
    ) -> Result<(), SimError> {
        for (to, msg) in out.take_queued() {
            if to == BROADCAST {
                for &nbr in self.topology.neighbors(from) {
                    self.channel.offer(from, nbr, msg.clone(), base);
                }
            } else {
                if !self.topology.has_link(from, to) {
                    return Err(SimError::NotANeighbor { from, to });
                }
                self.channel.offer(from, to, msg, base);
            }
        }
        Ok(())
    }

    /// Applies the churn events scheduled up to and including `round`;
    /// returns how many. A recovery on a non-idle node wakes it.
    fn apply_churn(&mut self, round: u64) -> u64 {
        let mut applied = 0;
        while let Some(&ev) = self.churn.get(self.churn_cursor) {
            if ev.round as u64 > round {
                break;
            }
            self.churn_cursor += 1;
            applied += 1;
            let (name, now_crashed) = match ev.kind {
                ChurnKind::Crash => ("robot_crash", true),
                ChurnKind::Recover => ("robot_recover", false),
            };
            // Churn is idempotent: crashing a crashed robot (or
            // recovering a live one) changes nothing.
            if self.crashed[ev.robot] == now_crashed {
                continue;
            }
            self.crashed[ev.robot] = now_crashed;
            if now_crashed {
                self.crashes += 1;
            } else {
                self.recoveries += 1;
                if !self.nodes[ev.robot].idle() {
                    self.wake(ev.robot);
                }
            }
            if self.tracer.is_enabled() {
                self.tracer.event(
                    name,
                    &[
                        ("round", TraceValue::U64(round)),
                        ("robot", TraceValue::U64(ev.robot as u64)),
                    ],
                );
            }
        }
        applied
    }

    /// Runs `on_start` on every robot live at round 0 (idempotent).
    /// Robots crashed by a round-0 churn event never start.
    ///
    /// # Errors
    ///
    /// Send-validation errors ([`SimError::NotANeighbor`]).
    pub fn start(&mut self) -> Result<(), SimError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        self.apply_churn(0);
        for i in 0..self.nodes.len() {
            if self.crashed[i] {
                continue;
            }
            let mut out = Outbox::new();
            self.nodes[i].on_start(&mut out);
            // `on_start` sends arrive at round `delay`.
            self.commit_outbox(i, out, 0)?;
        }
        for i in 0..self.nodes.len() {
            if !self.crashed[i] && !self.nodes[i].idle() {
                self.wake(i);
            }
        }
        // `on_start` sends form their own accounting "round".
        self.channel.roll_round();
        Ok(())
    }

    /// Executes round `t` (the earliest round with something due):
    /// churn, then deliveries, then the `on_round` phase for woken
    /// robots in index order.
    fn execute_round(&mut self, t: u64) -> Result<(), SimError> {
        if self.tracer.is_enabled() {
            let depth = self.channel.pending + self.wake.len();
            self.tracer.hist_record("queue_depth", depth as f64);
        }
        let mut executed = self.apply_churn(t);
        let (inboxes, spare) = (&mut self.inboxes, &mut self.spare);
        let (queued, wake) = (&mut self.queued, &mut self.wake);
        executed += self.channel.deliver(t, &self.crashed, |to, env| {
            if inboxes[to].capacity() == 0 {
                inboxes[to] = spare.pop().unwrap_or_default();
            }
            inboxes[to].push(env);
            if !queued[to] {
                queued[to] = true;
                wake.push(to);
            }
        }) as u64;
        // The carried-over wakeups are ascending; recoveries and
        // deliveries appended theirs after them.
        std::mem::swap(&mut self.wake, &mut self.stepping);
        self.stepping.sort_unstable();
        executed += self.stepping.len() as u64;
        if self.tracer.is_enabled() {
            self.tracer.counter_add("events_executed", executed);
            for &u in &self.stepping {
                if !self.inboxes[u].is_empty() {
                    self.tracer.event(
                        "msg_deliver",
                        &[
                            ("to", TraceValue::U64(u as u64)),
                            ("count", TraceValue::U64(self.inboxes[u].len() as u64)),
                        ],
                    );
                }
            }
        }
        for k in 0..self.stepping.len() {
            let u = self.stepping[k];
            self.queued[u] = false;
            if self.crashed[u] {
                continue;
            }
            let mut inbox = std::mem::take(&mut self.inboxes[u]);
            let mut out = Outbox::new();
            self.nodes[u].on_round(t as usize, &inbox, &mut out);
            if inbox.capacity() > 0 {
                inbox.clear();
                self.spare.push(inbox);
            }
            self.commit_outbox(u, out, t + 1)?;
            if !self.nodes[u].idle() {
                self.wake(u);
            }
        }
        self.stepping.clear();
        self.channel.roll_round();
        self.now = t + 1;
        Ok(())
    }

    /// Earliest round with something due: a woken robot, a churn
    /// event, or a delivery.
    fn next_due(&self) -> Option<u64> {
        let woken = (!self.wake.is_empty()).then_some(self.now);
        let churn = self.churn.get(self.churn_cursor).map(|ev| ev.round as u64);
        let delivery = self.channel.next_due(self.now);
        [woken, churn, delivery].into_iter().flatten().min()
    }

    /// Advances exactly `k` rounds of simulated time. Rounds with
    /// nothing due complete in O(1); rounds with something due execute
    /// it.
    ///
    /// # Errors
    ///
    /// Send-validation errors ([`SimError::NotANeighbor`]).
    pub fn run_rounds(&mut self, k: usize) -> Result<FaultStats, SimError> {
        self.start()?;
        let target = self.now + k as u64;
        while let Some(due) = self.next_due() {
            if due >= target {
                break;
            }
            self.execute_round(due)?;
        }
        self.now = target;
        Ok(self.stats())
    }

    /// Runs until no deliveries are queued.
    ///
    /// Suitable for protocols that are quiescent-by-messages (flooding,
    /// tokens). Protocols with retransmission timers should use
    /// [`run_until`](Self::run_until) instead: a timer waiting to fire
    /// holds no message in flight, so this method would stop early.
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] (with the pending recipients) when
    /// `max_rounds` is exceeded, plus any send-validation error.
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> Result<FaultStats, SimError> {
        self.start()?;
        let horizon = self.now + max_rounds as u64;
        while self.channel.pending > 0 {
            match self.next_due() {
                Some(due) if due < horizon => self.execute_round(due)?,
                _ => {
                    self.now = horizon;
                    return Err(SimError::NotQuiescent {
                        max_rounds,
                        pending: self.pending_recipients(),
                    });
                }
            }
        }
        Ok(self.stats())
    }

    /// Runs until `done(nodes)` is true, for at most `max_rounds`
    /// *total* rounds (an absolute cap, not a budget from now).
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] (with the pending recipients) when
    /// the round cap is reached before convergence, plus any
    /// send-validation error.
    pub fn run_until<F>(&mut self, max_rounds: usize, done: F) -> Result<FaultStats, SimError>
    where
        F: Fn(&[N]) -> bool,
    {
        self.start()?;
        let horizon = max_rounds as u64;
        loop {
            if done(&self.nodes) {
                return Ok(self.stats());
            }
            match self.next_due() {
                Some(due) if due < horizon && self.now < horizon => self.execute_round(due)?,
                _ => {
                    // Rounds with nothing due are no-ops under the idle
                    // contract; jump straight to the horizon.
                    self.now = self.now.max(horizon);
                    return Err(SimError::NotQuiescent {
                        max_rounds,
                        pending: self.pending_recipients(),
                    });
                }
            }
        }
    }
}

/// The plan's churn schedule sorted by round (stable: plan order breaks
/// ties).
pub(crate) fn sorted_churn(plan: &FaultPlan) -> Vec<ChurnEvent> {
    let mut churn = plan.churn.clone();
    churn.sort_by_key(|ev| ev.round);
    churn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::DelayModel;
    use crate::topology::ExplicitTopology;
    use crate::{Envelope, Simulator};

    /// Floods the minimum ID (leader election); counts received.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct MinId {
        id: usize,
        min_seen: usize,
        received: usize,
    }

    impl Node for MinId {
        type Msg = usize;
        fn on_start(&mut self, out: &mut Outbox<usize>) {
            out.broadcast(self.id);
        }
        fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
            self.received += inbox.len();
            for env in inbox {
                if env.msg < self.min_seen {
                    self.min_seen = env.msg;
                    out.broadcast(env.msg);
                }
            }
        }
    }

    fn minid_nodes(n: usize) -> Vec<MinId> {
        (0..n)
            .map(|id| MinId {
                id,
                min_seen: id,
                received: 0,
            })
            .collect()
    }

    fn ring(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    fn sim<N: Node>(
        nodes: Vec<N>,
        adjacency: Vec<Vec<usize>>,
        plan: FaultPlan,
    ) -> EventSim<N, ExplicitTopology> {
        let topology = ExplicitTopology::new(adjacency).unwrap();
        EventSim::new(nodes, topology, plan).unwrap()
    }

    #[test]
    fn reliable_plan_matches_simulator_exactly() {
        let n = 9;
        let mut reliable = Simulator::new(minid_nodes(n), ring(n)).unwrap();
        let rel_stats = reliable.run_until_quiet(50).unwrap();

        let mut faulty = sim(minid_nodes(n), ring(n), FaultPlan::reliable(123));
        let f_stats = faulty.run_until_quiet(50).unwrap();

        assert_eq!(f_stats.rounds, rel_stats.rounds);
        assert_eq!(f_stats.sent, rel_stats.messages);
        assert_eq!(f_stats.delivered, rel_stats.messages);
        assert_eq!(f_stats.dropped_loss + f_stats.dropped_crash, 0);
        assert_eq!(faulty.into_nodes(), reliable.into_nodes());
    }

    #[test]
    fn loss_degrades_but_replays_identically() {
        let n = 12;
        let plan = FaultPlan::reliable(7).with_loss(0.4);
        let run = |plan: FaultPlan| {
            let mut sim = sim(minid_nodes(n), ring(n), plan);
            let stats = sim.run_until_quiet(100).unwrap();
            (stats, sim.into_nodes())
        };
        let (s1, n1) = run(plan.clone());
        let (s2, n2) = run(plan);
        assert_eq!(s1, s2);
        assert_eq!(n1, n2);
        assert!(s1.dropped_loss > 0);
    }

    #[test]
    fn crashed_robot_is_silent_and_recovers() {
        // Path 0-1-2; robot 1 crashes at round 0 and recovers at round 5:
        // the min-ID flood cannot cross until recovery.
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let plan = FaultPlan::reliable(0).with_crash(0, 1).with_recovery(5, 1);
        let mut sim = sim(minid_nodes(3), adj, plan);
        sim.run_rounds(4).unwrap();
        assert!(sim.is_crashed(1));
        assert_eq!(sim.nodes()[2].min_seen, 2, "flood blocked by the crash");

        // After recovery robot 1 still holds its pre-crash state but it
        // missed the original broadcasts; nothing new flows on its own.
        sim.run_rounds(4).unwrap();
        assert!(!sim.is_crashed(1));
        assert_eq!(sim.nodes()[1].min_seen, 1, "recovery keeps the state");
        let stats = sim.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.recoveries, 1);
        assert!(stats.dropped_crash > 0, "round-0 broadcasts to 1 dropped");
    }

    #[test]
    fn round_zero_crash_suppresses_on_start() {
        let plan = FaultPlan::reliable(0).with_crash(0, 0);
        let mut sim = sim(minid_nodes(3), ring(3), plan);
        let stats = sim.run_until_quiet(20).unwrap();
        // Robot 0 sent nothing; the others broadcast normally.
        assert!(stats.sent < 6 * 3);
        assert_eq!(sim.nodes()[0].received, 0);
    }

    #[test]
    fn fixed_delay_stretches_convergence() {
        let n = 8;
        let reliable_rounds = sim(minid_nodes(n), ring(n), FaultPlan::reliable(0))
            .run_until_quiet(100)
            .unwrap()
            .rounds;
        let plan = FaultPlan::reliable(0).with_delay(DelayModel::Fixed(2));
        let delayed_rounds = sim(minid_nodes(n), ring(n), plan)
            .run_until_quiet(100)
            .unwrap()
            .rounds;
        assert!(
            delayed_rounds > reliable_rounds,
            "delay {delayed_rounds} vs reliable {reliable_rounds}"
        );
    }

    #[test]
    fn duplication_inflates_delivery_only() {
        let n = 8;
        let plan = FaultPlan::reliable(3).with_duplication(0.5);
        let mut sim = sim(minid_nodes(n), ring(n), plan);
        let stats = sim.run_until_quiet(100).unwrap();
        assert!(stats.duplicated > 0);
        assert_eq!(stats.delivered, stats.sent);
        // Duplicates never corrupt the outcome: still elects min ID 0.
        assert!(sim.nodes().iter().all(|nd| nd.min_seen == 0));
    }

    #[test]
    fn run_until_predicate_and_cap() {
        let n = 6;
        let mut s = sim(minid_nodes(n), ring(n), FaultPlan::reliable(0));
        let stats = s
            .run_until(50, |nodes| nodes.iter().all(|nd| nd.min_seen == 0))
            .unwrap();
        assert!(stats.rounds <= n);

        // An impossible predicate reports the cap with pending info.
        let mut s = sim(minid_nodes(n), ring(n), FaultPlan::reliable(0));
        match s.run_until(3, |_| false) {
            Err(SimError::NotQuiescent { max_rounds: 3, .. }) => {}
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
        assert_eq!(s.rounds(), 3, "the cap is absolute");
    }

    #[test]
    fn traced_run_is_observation_only() {
        let n = 9;
        let plan = FaultPlan::reliable(7)
            .with_loss(0.3)
            .with_crash(1, 2)
            .with_recovery(4, 2);
        let run = |tracer: Option<&Tracer>| {
            let mut s = sim(minid_nodes(n), ring(n), plan.clone());
            if let Some(t) = tracer {
                s = s.with_tracer(t);
            }
            let stats = s.run_rounds(10).unwrap();
            (stats, s.into_nodes())
        };
        let (s_plain, n_plain) = run(None);
        let tracer = Tracer::ring(65_536);
        let (s_traced, n_traced) = run(Some(&tracer));
        assert_eq!(s_plain, s_traced, "tracing must not perturb the run");
        assert_eq!(n_plain, n_traced);

        let events = tracer.events();
        let count = |name: &str| events.iter().filter(|e| e.name == name).count();
        assert_eq!(count("msg_send"), s_traced.sent);
        assert_eq!(count("robot_crash"), 1);
        assert_eq!(count("robot_recover"), 1);
        let loss_drops = events
            .iter()
            .filter(|e| {
                e.name == "msg_drop"
                    && matches!(e.fields.last(),
                        Some(("reason", TraceValue::Str(s))) if s == "loss")
            })
            .count();
        assert_eq!(loss_drops, s_traced.dropped_loss);
    }

    #[test]
    fn invalid_plan_rejected() {
        let plan = FaultPlan::reliable(0).with_crash(0, 99);
        let topology = ExplicitTopology::new(ring(3)).unwrap();
        assert!(matches!(
            EventSim::new(minid_nodes(3), topology, plan),
            Err(SimError::InvalidFaultPlan { .. })
        ));
    }

    #[test]
    fn not_a_neighbor_still_enforced() {
        struct Bad;
        impl Node for Bad {
            type Msg = ();
            fn on_start(&mut self, out: &mut Outbox<()>) {
                out.send(2, ());
            }
            fn on_round(&mut self, _: usize, _: &[Envelope<()>], _: &mut Outbox<()>) {}
        }
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut s = sim(vec![Bad, Bad, Bad], adj, FaultPlan::reliable(0));
        assert!(matches!(
            s.start(),
            Err(SimError::NotANeighbor { from: 0, to: 2 })
        ));
    }
}
