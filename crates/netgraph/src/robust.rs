//! Loss-tolerant variants of the paper's distributed protocols.
//!
//! The protocols in [`crate::protocols`] assume the idealized
//! synchronous network of Sec. III: every message sent is delivered one
//! round later. This module wraps each of them in the standard
//! end-to-end machinery real swarms use — **per-link acknowledgements
//! with timeout retransmission**, plus an initiator-level **timeout
//! restart** for the boundary token — so they survive the lossy,
//! delaying, duplicating, churning networks modeled by
//! [`anr_distsim::FaultPlan`]:
//!
//! * [`RobustFloodNode`] — ack/retransmit value flooding; converges to
//!   the same per-robot sums as [`crate::protocols::FloodNode`] on the
//!   reliable network.
//! * [`RobustHopFieldNode`] — ack/retransmit multi-source BFS; converges
//!   to the same hop field as [`crate::protocols::HopFieldNode`].
//! * [`RobustBoundaryLoopNode`] — the boundary-sizing token with per-hop
//!   acks and an initiator restart timer; converges to the same
//!   (index, loop size) labels as [`crate::protocols::BoundaryLoopNode`].
//!
//! All three are *idempotent at the receiver* (duplicates are re-acked
//! but change no state), which is what makes retransmission and
//! duplication safe.
//!
//! Because a pending retransmission holds no message in flight, these
//! protocols are **not** quiescent-by-messages: run them with
//! [`EventSim::run_until`] and the convergence predicates provided by
//! the runner functions, not `run_until_quiet`.
//!
//! Each protocol has one runner ([`run_robust_flood_sum`],
//! [`run_robust_hop_field`], [`run_robust_boundary_loop`]). Every run
//! carries CONGEST accounting: the runner measures each offered payload
//! with the protocol's size function and fails with
//! [`SimError::ModelBudgetExceeded`] if one outgrows the static budget
//! declared in `lint.models.toml` (`R*_MSG_BITS` below).

use anr_distsim::snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
use anr_distsim::{
    Envelope, EventSim, ExplicitTopology, FaultPlan, FaultStats, ModelObservation, Node, Outbox,
    SimError,
};

/// Retransmission policy shared by the robust protocols.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetransmitConfig {
    /// Rounds to wait for an ack before resending.
    pub interval: usize,
    /// Resends per message before giving up on that neighbor.
    pub max_retries: usize,
}

impl Default for RetransmitConfig {
    fn default() -> Self {
        RetransmitConfig {
            interval: 4,
            max_retries: 12,
        }
    }
}

/// One un-acknowledged send awaiting retransmission.
#[derive(Debug, Clone, PartialEq)]
struct PendingSend<M> {
    to: usize,
    msg: M,
    resend_at: usize,
    retries: usize,
}

/// Drives the shared retransmit loop: resends due entries, drops
/// entries that exhausted their retries. Returns sends to make.
fn tick_retransmits<M: Clone>(
    pending: &mut Vec<PendingSend<M>>,
    round: usize,
    cfg: &RetransmitConfig,
    out: &mut Outbox<M>,
) {
    pending.retain_mut(|entry| {
        if round >= entry.resend_at {
            if entry.retries >= cfg.max_retries {
                return false; // give up on this neighbor
            }
            entry.retries += 1;
            entry.resend_at = round + cfg.interval;
            out.send(entry.to, entry.msg.clone());
        }
        true
    });
}

// ---------------------------------------------------------------------
// Ack/retransmit value flooding
// ---------------------------------------------------------------------

/// Message of the robust flooding protocol.
///
/// Wire fields are `u32`, not `usize`: robot IDs are bounded by the
/// robot count (n < 2^32 everywhere in this repo), and fixed-width
/// payloads are what keeps the protocol inside its CONGEST bit budget
/// (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, PartialEq)]
pub enum RFloodMsg {
    /// A `(robot id, value)` record being disseminated.
    Data {
        /// Robot the record originates from.
        origin: u32,
        /// That robot's value.
        value: f64,
    },
    /// Acknowledges receipt of the record originating at `origin`.
    Ack {
        /// Origin of the acknowledged record.
        origin: u32,
    },
}

/// Static per-message payload bound of [`RFloodMsg`] in bits: an 8-bit
/// variant tag plus `Data { origin: u32, value: f64 }`. Must match the
/// `bits` budget declared for `RobustFloodNode` in `lint.models.toml`
/// (anr-lint rule M1 proves the type fits; the runner asserts the
/// observed payloads stay under it).
pub const RFLOOD_MSG_BITS: u32 = 104;

/// Serialized size of one [`RFloodMsg`] payload: 8-bit tag + fields.
fn rflood_bits(msg: &RFloodMsg) -> u32 {
    match msg {
        RFloodMsg::Data { .. } => 8 + 32 + 64,
        RFloodMsg::Ack { .. } => 8 + 32,
    }
}

/// Loss-tolerant [`FloodNode`](crate::protocols::FloodNode): every
/// record is sent per-neighbor and retransmitted until acknowledged (or
/// retries are exhausted).
#[derive(Debug, Clone, PartialEq)]
pub struct RobustFloodNode {
    /// This node's ID.
    pub id: usize,
    /// All values learned so far, indexed by robot ID.
    pub known: Vec<Option<f64>>,
    cfg: RetransmitConfig,
    pending: Vec<PendingSend<RFloodMsg>>,
    neighbors: Vec<usize>,
}

impl RobustFloodNode {
    /// Creates a participant for a network of `n` robots; `neighbors`
    /// are this node's topology neighbors (acks are per-link).
    pub fn new(
        id: usize,
        value: f64,
        n: usize,
        neighbors: Vec<usize>,
        cfg: RetransmitConfig,
    ) -> Self {
        let mut known = vec![None; n];
        known[id] = Some(value);
        RobustFloodNode {
            id,
            known,
            cfg,
            pending: Vec::new(),
            neighbors,
        }
    }

    /// Sum of all known values.
    pub fn sum(&self) -> f64 {
        self.known.iter().flatten().sum()
    }

    /// Does this node know every robot's value?
    pub fn is_complete(&self) -> bool {
        self.known.iter().all(Option::is_some)
    }

    /// No more retransmissions outstanding?
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    fn queue_record(
        &mut self,
        origin: usize,
        value: f64,
        except: Option<usize>,
        out: &mut Outbox<RFloodMsg>,
    ) {
        for k in 0..self.neighbors.len() {
            let nbr = self.neighbors[k];
            if Some(nbr) == except {
                continue;
            }
            let msg = RFloodMsg::Data {
                origin: origin as u32,
                value,
            };
            out.send(nbr, msg.clone());
            self.pending.push(PendingSend {
                to: nbr,
                msg,
                resend_at: self.cfg.interval,
                retries: 0,
            });
        }
    }
}

impl Node for RobustFloodNode {
    type Msg = RFloodMsg;

    fn on_start(&mut self, out: &mut Outbox<RFloodMsg>) {
        // The constructor seeds `known[id]`; a node somehow without an
        // own value has nothing to flood.
        let Some(value) = self.known[self.id] else {
            return;
        };
        let origin = self.id;
        self.queue_record(origin, value, None, out);
    }

    fn on_round(
        &mut self,
        round: usize,
        inbox: &[Envelope<RFloodMsg>],
        out: &mut Outbox<RFloodMsg>,
    ) {
        for env in inbox {
            match env.msg {
                RFloodMsg::Data { origin, value } => {
                    // Always ack — duplicates mean a lost ack.
                    out.send(env.from, RFloodMsg::Ack { origin });
                    let origin = origin as usize;
                    if self.known[origin].is_none() {
                        self.known[origin] = Some(value);
                        self.queue_record(origin, value, Some(env.from), out);
                        // Fix up resend times queued during on_round:
                        // they count from the current round.
                        for entry in &mut self.pending {
                            if entry.resend_at < round + self.cfg.interval {
                                entry.resend_at = round + self.cfg.interval;
                            }
                        }
                    }
                }
                RFloodMsg::Ack { origin } => {
                    self.pending.retain(|e| {
                        !(e.to == env.from
                            && matches!(e.msg, RFloodMsg::Data { origin: o, .. } if o == origin))
                    });
                }
            }
        }
        tick_retransmits(&mut self.pending, round, &self.cfg, out);
    }

    /// With no pending retransmissions, a round with an empty inbox
    /// changes no state and sends nothing, so the node need not be
    /// woken until a message arrives.
    fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Outcome of a robust protocol run.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustRunOutcome<T> {
    /// The per-robot protocol results.
    pub results: T,
    /// Fault-engine accounting (rounds, messages, drops, churn).
    pub stats: FaultStats,
    /// CONGEST accounting: peak payload bits (at most the protocol's
    /// static budget), peak per-round sends, totals.
    pub observation: ModelObservation,
}

/// Runs `nodes` over `adjacency` under `plan` until every node is
/// `settled`, then drains the in-flight tail (stray acks, duplicates),
/// all within `max_rounds`. Accounting measures every offer with
/// `bits_of`.
fn run_accounted<N: Node>(
    nodes: Vec<N>,
    adjacency: Vec<Vec<usize>>,
    plan: FaultPlan,
    max_rounds: usize,
    settled: fn(&N) -> bool,
    bits_of: fn(&N::Msg) -> u32,
) -> Result<(Vec<N>, FaultStats, ModelObservation), SimError> {
    let topology = ExplicitTopology::new(adjacency)?;
    let mut sim = EventSim::new(nodes, topology, plan)?.with_accounting(bits_of);
    let stats = sim.run_until(max_rounds, |nodes| nodes.iter().all(settled))?;
    let stats = sim.run_until_quiet(max_rounds.saturating_sub(stats.rounds))?;
    let observation = sim.model_observation().unwrap_or_default();
    Ok((sim.into_nodes(), stats, observation))
}

/// Fails when the observed peak payload outgrows the static CONGEST
/// budget `lint.models.toml` declares for `protocol` — the runtime side
/// of anr-lint rule M1.
fn check_budget(
    protocol: &'static str,
    observation: ModelObservation,
    bound_bits: u32,
) -> Result<ModelObservation, SimError> {
    if observation.peak_payload_bits > bound_bits {
        return Err(SimError::ModelBudgetExceeded {
            protocol,
            observed_bits: observation.peak_payload_bits,
            bound_bits,
        });
    }
    Ok(observation)
}

/// Runs ack/retransmit flooding of `values` over `adjacency` under
/// `plan`; returns each robot's learned sum.
///
/// Convergence means every *live* robot learned every value it can
/// reach and no retransmissions remain outstanding. Robots crashed at
/// the end are reported with whatever they knew when they crashed.
///
/// # Errors
///
/// Propagates engine errors; [`SimError::NotQuiescent`] when the
/// protocol does not converge within `max_rounds` (e.g. loss so heavy
/// that retries are exhausted); [`SimError::ModelBudgetExceeded`] if an
/// observed payload outgrows [`RFLOOD_MSG_BITS`].
pub fn run_robust_flood_sum(
    values: &[f64],
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    cfg: RetransmitConfig,
    max_rounds: usize,
) -> Result<RobustRunOutcome<Vec<f64>>, SimError> {
    let n = values.len();
    let nodes: Vec<RobustFloodNode> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| RobustFloodNode::new(i, v, n, adjacency[i].clone(), cfg))
        .collect();
    let (nodes, stats, observation) = run_accounted(
        nodes,
        adjacency.to_vec(),
        plan,
        max_rounds,
        RobustFloodNode::is_settled,
        rflood_bits,
    )?;
    let observation = check_budget("RobustFloodNode", observation, RFLOOD_MSG_BITS)?;
    Ok(RobustRunOutcome {
        results: nodes.iter().map(RobustFloodNode::sum).collect(),
        stats,
        observation,
    })
}

// ---------------------------------------------------------------------
// Ack/retransmit multi-source hop field
// ---------------------------------------------------------------------

/// Message of the robust hop-field protocol.
///
/// Hop distances ride the wire as `u32` (bounded by the robot count,
/// n < 2^32) so the payload has a provable fixed width — see
/// `lint.models.toml`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RHopMsg {
    /// "Your distance to a source is at most this."
    Dist(u32),
    /// Acknowledges a [`RHopMsg::Dist`] carrying this value.
    DistAck(u32),
}

/// Static per-message payload bound of [`RHopMsg`] in bits: an 8-bit
/// variant tag plus `Dist(u32)`. Must match `lint.models.toml`.
pub const RHOP_MSG_BITS: u32 = 40;

/// Serialized size of one [`RHopMsg`] payload: 8-bit tag + fields.
fn rhop_bits(msg: &RHopMsg) -> u32 {
    match msg {
        RHopMsg::Dist(_) | RHopMsg::DistAck(_) => 8 + 32,
    }
}

/// Loss-tolerant [`HopFieldNode`](crate::protocols::HopFieldNode):
/// distance improvements are sent per-neighbor with ack/retransmit.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustHopFieldNode {
    /// Whether this node is a source (hop 0).
    pub is_source: bool,
    /// Learned hop distance to the nearest source.
    pub hops: Option<usize>,
    cfg: RetransmitConfig,
    pending: Vec<PendingSend<RHopMsg>>,
    neighbors: Vec<usize>,
}

impl RobustHopFieldNode {
    /// Creates a participant with the given topology neighbors.
    pub fn new(is_source: bool, neighbors: Vec<usize>, cfg: RetransmitConfig) -> Self {
        RobustHopFieldNode {
            is_source,
            hops: None,
            cfg,
            pending: Vec::new(),
            neighbors,
        }
    }

    /// No more retransmissions outstanding?
    pub fn is_settled(&self) -> bool {
        self.pending.is_empty()
    }

    fn propagate(&mut self, base_round: usize, except: Option<usize>, out: &mut Outbox<RHopMsg>) {
        // Callers set `hops` before propagating; with no distance yet
        // there is nothing to announce.
        let Some(hops) = self.hops else {
            return;
        };
        let d = (hops + 1) as u32;
        for k in 0..self.neighbors.len() {
            let nbr = self.neighbors[k];
            if Some(nbr) == except {
                continue;
            }
            // Replace any stale pending towards this neighbor: only the
            // newest (smallest) distance matters.
            self.pending.retain(|e| e.to != nbr);
            out.send(nbr, RHopMsg::Dist(d));
            self.pending.push(PendingSend {
                to: nbr,
                msg: RHopMsg::Dist(d),
                resend_at: base_round + self.cfg.interval,
                retries: 0,
            });
        }
    }
}

impl Node for RobustHopFieldNode {
    type Msg = RHopMsg;

    fn on_start(&mut self, out: &mut Outbox<RHopMsg>) {
        if self.is_source {
            self.hops = Some(0);
            self.propagate(0, None, out);
        }
    }

    fn on_round(&mut self, round: usize, inbox: &[Envelope<RHopMsg>], out: &mut Outbox<RHopMsg>) {
        for env in inbox {
            match env.msg {
                RHopMsg::Dist(d) => {
                    out.send(env.from, RHopMsg::DistAck(d));
                    if self.hops.is_none_or(|h| (d as usize) < h) {
                        self.hops = Some(d as usize);
                        self.propagate(round, Some(env.from), out);
                    }
                }
                RHopMsg::DistAck(d) => {
                    self.pending
                        .retain(|e| !(e.to == env.from && e.msg == RHopMsg::Dist(d)));
                }
            }
        }
        tick_retransmits(&mut self.pending, round, &self.cfg, out);
    }

    /// Idle exactly when no retransmission is pending (see
    /// [`RobustFloodNode`]'s `idle`).
    fn idle(&self) -> bool {
        self.pending.is_empty()
    }
}

/// Runs the ack/retransmit hop field; `None` entries mark robots that
/// never heard from any source (isolated, or cut off by churn).
///
/// # Errors
///
/// Propagates engine errors; [`SimError::NotQuiescent`] when the
/// protocol does not settle within `max_rounds`;
/// [`SimError::ModelBudgetExceeded`] if an observed payload outgrows
/// [`RHOP_MSG_BITS`].
pub fn run_robust_hop_field(
    sources: &[bool],
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    cfg: RetransmitConfig,
    max_rounds: usize,
) -> Result<RobustRunOutcome<Vec<Option<usize>>>, SimError> {
    let nodes: Vec<RobustHopFieldNode> = sources
        .iter()
        .enumerate()
        .map(|(i, &is_source)| RobustHopFieldNode::new(is_source, adjacency[i].clone(), cfg))
        .collect();
    let (nodes, stats, observation) = run_accounted(
        nodes,
        adjacency.to_vec(),
        plan,
        max_rounds,
        RobustHopFieldNode::is_settled,
        rhop_bits,
    )?;
    let observation = check_budget("RobustHopFieldNode", observation, RHOP_MSG_BITS)?;
    Ok(RobustRunOutcome {
        results: nodes.into_iter().map(|nd| nd.hops).collect(),
        stats,
        observation,
    })
}

// ---------------------------------------------------------------------
// Boundary token with per-hop acks and initiator restart
// ---------------------------------------------------------------------

/// Message of the robust boundary-loop protocol.
///
/// Wire fields are `u32`: vertex IDs, hop counts, and restart attempts
/// are all bounded by the robot count (n < 2^32) or the restart cap, so
/// fixed-width payloads keep the protocol inside its CONGEST bit budget
/// (`lint.models.toml`, rule M1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RLoopMsg {
    /// Hop-counting token: (initiator, hops so far, launch attempt).
    Token {
        /// Initiating boundary vertex.
        initiator: u32,
        /// Hops travelled when this message was sent.
        hops: u32,
        /// Restart attempt this token belongs to.
        attempt: u32,
    },
    /// Per-hop ack of a token with this (hops, attempt).
    TokenAck {
        /// Acknowledged hop count.
        hops: u32,
        /// Acknowledged attempt.
        attempt: u32,
    },
    /// Loop-size announcement travelling the loop once more.
    Size {
        /// The loop length.
        size: u32,
        /// Attempt the size flood belongs to.
        attempt: u32,
    },
    /// Per-hop ack of a size announcement.
    SizeAck {
        /// Acknowledged attempt.
        attempt: u32,
    },
}

/// Static per-message payload bound of [`RLoopMsg`] in bits: an 8-bit
/// variant tag plus `Token { initiator, hops, attempt: u32 }`. Must
/// match `lint.models.toml`.
pub const RLOOP_MSG_BITS: u32 = 104;

/// Serialized size of one [`RLoopMsg`] payload: 8-bit tag + fields.
fn rloop_bits(msg: &RLoopMsg) -> u32 {
    match msg {
        RLoopMsg::Token { .. } => 8 + 32 + 32 + 32,
        RLoopMsg::TokenAck { .. } => 8 + 32 + 32,
        RLoopMsg::Size { .. } => 8 + 32 + 32,
        RLoopMsg::SizeAck { .. } => 8 + 32,
    }
}

/// Loss-tolerant [`BoundaryLoopNode`](crate::protocols::BoundaryLoopNode):
/// the hop-counting token is acknowledged hop-by-hop and retransmitted;
/// the initiator additionally restarts the whole token (with a fresh
/// attempt number) if it does not return within `restart_after` rounds
/// — the backstop for a token that died when a hop exhausted its
/// retries or a robot crashed mid-loop.
#[derive(Debug, Clone, PartialEq)]
pub struct RobustBoundaryLoopNode {
    /// This node's ID (simulator index).
    pub id: usize,
    /// Whether this node launches the token.
    pub is_initiator: bool,
    /// Successor on the boundary loop.
    pub next: usize,
    /// Learned position along the loop (initiator = 0).
    pub index: Option<usize>,
    /// Learned loop size.
    pub loop_size: Option<usize>,
    cfg: RetransmitConfig,
    /// Rounds the initiator waits for its token before restarting.
    restart_after: usize,
    /// Restart attempts the initiator may make.
    max_attempts: usize,
    attempt: usize,
    /// Attempt for which this node already forwarded the token.
    token_done_attempt: Option<usize>,
    /// Attempt for which this node already forwarded the size.
    size_done_attempt: Option<usize>,
    /// True on the initiator once its own token returned.
    token_returned: bool,
    /// True on the initiator once the size announcement returned.
    size_returned: bool,
    launched_at: usize,
    pending: Vec<PendingSend<RLoopMsg>>,
}

impl RobustBoundaryLoopNode {
    /// Creates a participant.
    ///
    /// `restart_after` is the initiator's token timeout in rounds (a
    /// generous bound is `(loop length + 2) × (interval + 1)`);
    /// `max_attempts` bounds restarts.
    pub fn new(
        id: usize,
        is_initiator: bool,
        next: usize,
        cfg: RetransmitConfig,
        restart_after: usize,
        max_attempts: usize,
    ) -> Self {
        RobustBoundaryLoopNode {
            id,
            is_initiator,
            next,
            index: None,
            loop_size: None,
            cfg,
            restart_after,
            max_attempts,
            attempt: 0,
            token_done_attempt: None,
            size_done_attempt: None,
            token_returned: false,
            size_returned: false,
            launched_at: 0,
            pending: Vec::new(),
        }
    }

    /// Has this node learned everything and stopped transmitting?
    pub fn is_settled(&self) -> bool {
        self.index.is_some() && self.loop_size.is_some() && self.pending.is_empty()
    }

    fn send_tracked(
        &mut self,
        to: usize,
        msg: RLoopMsg,
        base_round: usize,
        out: &mut Outbox<RLoopMsg>,
    ) {
        out.send(to, msg);
        self.pending.push(PendingSend {
            to,
            msg,
            resend_at: base_round + self.cfg.interval,
            retries: 0,
        });
    }

    fn launch_token(&mut self, round: usize, out: &mut Outbox<RLoopMsg>) {
        self.launched_at = round;
        // Drop any stale token pending from the previous attempt.
        let next = self.next;
        self.pending
            .retain(|e| !matches!(e.msg, RLoopMsg::Token { .. }) || e.to != next);
        self.send_tracked(
            self.next,
            RLoopMsg::Token {
                initiator: self.id as u32,
                hops: 1,
                attempt: self.attempt as u32,
            },
            round,
            out,
        );
    }
}

impl Node for RobustBoundaryLoopNode {
    type Msg = RLoopMsg;

    fn on_start(&mut self, out: &mut Outbox<RLoopMsg>) {
        if self.is_initiator {
            self.index = Some(0);
            self.launch_token(0, out);
        }
    }

    fn on_round(&mut self, round: usize, inbox: &[Envelope<RLoopMsg>], out: &mut Outbox<RLoopMsg>) {
        for env in inbox {
            match env.msg {
                RLoopMsg::Token {
                    initiator,
                    hops,
                    attempt,
                } => {
                    // Ack every token copy — a duplicate means the ack
                    // was lost or the predecessor retransmitted.
                    out.send(env.from, RLoopMsg::TokenAck { hops, attempt });
                    if initiator as usize == self.id {
                        // Our token came home: the loop has `hops` nodes.
                        if attempt as usize == self.attempt && !self.token_returned {
                            self.token_returned = true;
                            self.loop_size = Some(hops as usize);
                            self.size_done_attempt = Some(attempt as usize);
                            self.send_tracked(
                                self.next,
                                RLoopMsg::Size {
                                    size: hops,
                                    attempt,
                                },
                                round,
                                out,
                            );
                        }
                    } else if self
                        .token_done_attempt
                        .is_none_or(|done| attempt as usize > done)
                    {
                        self.attempt = attempt as usize;
                        self.token_done_attempt = Some(attempt as usize);
                        self.index = Some(hops as usize);
                        self.send_tracked(
                            self.next,
                            RLoopMsg::Token {
                                initiator,
                                hops: hops + 1,
                                attempt,
                            },
                            round,
                            out,
                        );
                    }
                }
                RLoopMsg::TokenAck { hops, attempt } => {
                    self.pending.retain(|e| {
                        !(e.to == env.from
                            && matches!(
                                e.msg,
                                RLoopMsg::Token { hops: h, attempt: a, .. }
                                    if h == hops && a == attempt
                            ))
                    });
                }
                RLoopMsg::Size { size, attempt } => {
                    out.send(env.from, RLoopMsg::SizeAck { attempt });
                    if self.is_initiator {
                        // The announcement survived the whole loop.
                        self.size_returned = true;
                        self.pending
                            .retain(|e| !matches!(e.msg, RLoopMsg::Size { .. }));
                    } else {
                        self.loop_size = Some(size as usize);
                        // Forward (again, if need be): a re-flooded size
                        // must pass through nodes that already know it.
                        if self
                            .size_done_attempt
                            .is_none_or(|done| attempt as usize > done)
                            || !self
                                .pending
                                .iter()
                                .any(|e| matches!(e.msg, RLoopMsg::Size { .. }))
                        {
                            self.size_done_attempt = Some(attempt as usize);
                            self.pending
                                .retain(|e| !matches!(e.msg, RLoopMsg::Size { .. }));
                            self.send_tracked(
                                self.next,
                                RLoopMsg::Size { size, attempt },
                                round,
                                out,
                            );
                        }
                    }
                }
                RLoopMsg::SizeAck { attempt } => {
                    self.pending.retain(|e| {
                        !(e.to == env.from
                            && matches!(e.msg, RLoopMsg::Size { attempt: a, .. } if a == attempt))
                    });
                }
            }
        }
        // Initiator restart timer: the token vanished somewhere.
        if self.is_initiator
            && !self.token_returned
            && round >= self.launched_at + self.restart_after
            && self.attempt + 1 < self.max_attempts
        {
            self.attempt += 1;
            self.launch_token(round, out);
        }
        tick_retransmits(&mut self.pending, round, &self.cfg, out);
    }

    /// Beyond an empty retransmit queue, the initiator is only idle
    /// once its restart timer can never fire again: the token came
    /// home, or every restart attempt has been spent.
    fn idle(&self) -> bool {
        self.pending.is_empty()
            && (!self.is_initiator || self.token_returned || self.attempt + 1 >= self.max_attempts)
    }
}

/// Runs the robust boundary-loop protocol over a cyclic order of
/// boundary-vertex IDs (the smallest ID initiates, as in the paper).
/// Returns `(index, loop size)` per vertex in `ids` order.
///
/// # Errors
///
/// Propagates engine errors; [`SimError::NotQuiescent`] when the loop
/// is not labeled within `max_rounds`;
/// [`SimError::ModelBudgetExceeded`] if an observed payload outgrows
/// [`RLOOP_MSG_BITS`].
///
/// # Panics
///
/// Panics when `ids.len() < 3`.
pub fn run_robust_boundary_loop(
    ids: &[usize],
    plan: FaultPlan,
    cfg: RetransmitConfig,
    max_rounds: usize,
) -> Result<RobustRunOutcome<Vec<(usize, usize)>>, SimError> {
    let n = ids.len();
    assert!(n >= 3, "a boundary loop needs at least 3 vertices");
    let initiator_pos = ids
        .iter()
        .enumerate()
        .min_by_key(|&(_, &id)| id)
        .map(|(i, _)| i)
        .unwrap_or(0);
    let restart_after = (n + 2) * (cfg.interval + 1);
    let nodes: Vec<RobustBoundaryLoopNode> = (0..n)
        .map(|i| {
            RobustBoundaryLoopNode::new(i, i == initiator_pos, (i + 1) % n, cfg, restart_after, 16)
        })
        .collect();
    let adjacency: Vec<Vec<usize>> = (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect();
    let (nodes, stats, observation) = run_accounted(
        nodes,
        adjacency,
        plan,
        max_rounds,
        RobustBoundaryLoopNode::is_settled,
        rloop_bits,
    )?;
    let observation = check_budget("RobustBoundaryLoopNode", observation, RLOOP_MSG_BITS)?;
    // A vertex the token never reached (round cap under heavy faults)
    // has no index/size to harvest — typed error, not a panic.
    let unfinished: Vec<usize> = nodes
        .iter()
        .enumerate()
        .filter(|(_, nd)| nd.index.is_none() || nd.loop_size.is_none())
        .map(|(i, _)| i)
        .collect();
    if !unfinished.is_empty() {
        return Err(SimError::NotQuiescent {
            max_rounds,
            pending: unfinished,
        });
    }
    Ok(RobustRunOutcome {
        results: nodes
            .into_iter()
            .map(|nd| (nd.index.unwrap_or(0), nd.loop_size.unwrap_or(0)))
            .collect(),
        stats,
        observation,
    })
}

// ---------------------------------------------------------------------
// Checkpoint support: byte-stable Persist impls
// ---------------------------------------------------------------------
//
// The event engine snapshots node state mid-run. The robust
// nodes keep their retransmit queues private, so the codecs live here.
// Encodings follow the snapshot module's rules: fields in declaration
// order, enum tags in declaration order.

impl Persist for RetransmitConfig {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.interval.persist(w);
        self.max_retries.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RetransmitConfig {
            interval: usize::restore(r)?,
            max_retries: usize::restore(r)?,
        })
    }
}

impl<M: Persist> Persist for PendingSend<M> {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.to.persist(w);
        self.msg.persist(w);
        self.resend_at.persist(w);
        self.retries.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(PendingSend {
            to: usize::restore(r)?,
            msg: M::restore(r)?,
            resend_at: usize::restore(r)?,
            retries: usize::restore(r)?,
        })
    }
}

impl Persist for RFloodMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RFloodMsg::Data { origin, value } => {
                w.put_u8(0);
                origin.persist(w);
                value.persist(w);
            }
            RFloodMsg::Ack { origin } => {
                w.put_u8(1);
                origin.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RFloodMsg::Data {
                origin: u32::restore(r)?,
                value: f64::restore(r)?,
            }),
            1 => Ok(RFloodMsg::Ack {
                origin: u32::restore(r)?,
            }),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RFloodMsg",
            }),
        }
    }
}

impl Persist for RHopMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RHopMsg::Dist(d) => {
                w.put_u8(0);
                d.persist(w);
            }
            RHopMsg::DistAck(d) => {
                w.put_u8(1);
                d.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RHopMsg::Dist(u32::restore(r)?)),
            1 => Ok(RHopMsg::DistAck(u32::restore(r)?)),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RHopMsg",
            }),
        }
    }
}

impl Persist for RLoopMsg {
    fn persist(&self, w: &mut SnapshotWriter) {
        match *self {
            RLoopMsg::Token {
                initiator,
                hops,
                attempt,
            } => {
                w.put_u8(0);
                initiator.persist(w);
                hops.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::TokenAck { hops, attempt } => {
                w.put_u8(1);
                hops.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::Size { size, attempt } => {
                w.put_u8(2);
                size.persist(w);
                attempt.persist(w);
            }
            RLoopMsg::SizeAck { attempt } => {
                w.put_u8(3);
                attempt.persist(w);
            }
        }
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        match r.get_u8()? {
            0 => Ok(RLoopMsg::Token {
                initiator: u32::restore(r)?,
                hops: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            1 => Ok(RLoopMsg::TokenAck {
                hops: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            2 => Ok(RLoopMsg::Size {
                size: u32::restore(r)?,
                attempt: u32::restore(r)?,
            }),
            3 => Ok(RLoopMsg::SizeAck {
                attempt: u32::restore(r)?,
            }),
            tag => Err(PersistError::BadTag {
                tag,
                context: "RLoopMsg",
            }),
        }
    }
}

impl Persist for RobustFloodNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.id.persist(w);
        self.known.persist(w);
        self.cfg.persist(w);
        self.pending.persist(w);
        self.neighbors.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustFloodNode {
            id: usize::restore(r)?,
            known: Vec::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            pending: Vec::restore(r)?,
            neighbors: Vec::restore(r)?,
        })
    }
}

impl Persist for RobustHopFieldNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.is_source.persist(w);
        self.hops.persist(w);
        self.cfg.persist(w);
        self.pending.persist(w);
        self.neighbors.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustHopFieldNode {
            is_source: bool::restore(r)?,
            hops: Option::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            pending: Vec::restore(r)?,
            neighbors: Vec::restore(r)?,
        })
    }
}

impl Persist for RobustBoundaryLoopNode {
    fn persist(&self, w: &mut SnapshotWriter) {
        self.id.persist(w);
        self.is_initiator.persist(w);
        self.next.persist(w);
        self.index.persist(w);
        self.loop_size.persist(w);
        self.cfg.persist(w);
        self.restart_after.persist(w);
        self.max_attempts.persist(w);
        self.attempt.persist(w);
        self.token_done_attempt.persist(w);
        self.size_done_attempt.persist(w);
        self.token_returned.persist(w);
        self.size_returned.persist(w);
        self.launched_at.persist(w);
        self.pending.persist(w);
    }
    fn restore(r: &mut SnapshotReader<'_>) -> Result<Self, PersistError> {
        Ok(RobustBoundaryLoopNode {
            id: usize::restore(r)?,
            is_initiator: bool::restore(r)?,
            next: usize::restore(r)?,
            index: Option::restore(r)?,
            loop_size: Option::restore(r)?,
            cfg: RetransmitConfig::restore(r)?,
            restart_after: usize::restore(r)?,
            max_attempts: usize::restore(r)?,
            attempt: usize::restore(r)?,
            token_done_attempt: Option::restore(r)?,
            size_done_attempt: Option::restore(r)?,
            token_returned: bool::restore(r)?,
            size_returned: bool::restore(r)?,
            launched_at: usize::restore(r)?,
            pending: Vec::restore(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocols::{run_boundary_loop, run_flood_sum, run_hop_field};
    use crate::UnitDiskGraph;
    use anr_distsim::DelayModel;
    use anr_geom::Point;

    fn grid_graph(cols: usize, rows: usize) -> UnitDiskGraph {
        let pts: Vec<Point> = (0..cols * rows)
            .map(|i| Point::new((i % cols) as f64 * 60.0, (i / cols) as f64 * 60.0))
            .collect();
        UnitDiskGraph::new(&pts, 80.0)
    }

    fn nasty_plan(seed: u64) -> FaultPlan {
        FaultPlan::reliable(seed)
            .with_loss(0.3)
            .with_delay(DelayModel::Uniform { min: 0, max: 2 })
            .with_duplication(0.1)
    }

    #[test]
    fn robust_flood_matches_reference_on_reliable_network() {
        let g = grid_graph(4, 3);
        let values: Vec<f64> = (0..12).map(|i| i as f64).collect();
        let reference = run_flood_sum(&values, g.adjacency()).unwrap();
        let robust = run_robust_flood_sum(
            &values,
            g.adjacency(),
            FaultPlan::reliable(0),
            RetransmitConfig::default(),
            400,
        )
        .unwrap();
        assert_eq!(robust.results, reference);
    }

    #[test]
    fn robust_flood_survives_loss_delay_duplication() {
        let g = grid_graph(4, 3);
        let values: Vec<f64> = (0..12).map(|i| (i * i) as f64).collect();
        let reference = run_flood_sum(&values, g.adjacency()).unwrap();
        for seed in [1, 2, 3] {
            let robust = run_robust_flood_sum(
                &values,
                g.adjacency(),
                nasty_plan(seed),
                RetransmitConfig::default(),
                2000,
            )
            .unwrap();
            assert_eq!(robust.results, reference, "seed {seed}");
            assert!(robust.stats.dropped_loss > 0, "plan actually dropped");
        }
    }

    #[test]
    fn robust_flood_overhead_is_positive_under_loss() {
        let g = grid_graph(4, 3);
        let values = vec![1.0; 12];
        let reliable = run_robust_flood_sum(
            &values,
            g.adjacency(),
            FaultPlan::reliable(0),
            RetransmitConfig::default(),
            400,
        )
        .unwrap();
        let lossy = run_robust_flood_sum(
            &values,
            g.adjacency(),
            nasty_plan(7),
            RetransmitConfig::default(),
            2000,
        )
        .unwrap();
        assert!(
            lossy.stats.sent > reliable.stats.sent,
            "retransmissions cost messages: {} vs {}",
            lossy.stats.sent,
            reliable.stats.sent
        );
        assert!(lossy.stats.rounds >= reliable.stats.rounds);
    }

    #[test]
    fn robust_hop_field_matches_centralized_bfs_under_faults() {
        let g = grid_graph(4, 4);
        let sources: Vec<bool> = (0..16).map(|i| i == 0 || i == 15).collect();
        let expect = g.multi_source_hops(&[0, 15]);
        let reference = run_hop_field(&sources, g.adjacency()).unwrap();
        assert_eq!(reference, expect);
        for seed in [4, 5, 6] {
            let robust = run_robust_hop_field(
                &sources,
                g.adjacency(),
                nasty_plan(seed),
                RetransmitConfig::default(),
                2000,
            )
            .unwrap();
            assert_eq!(robust.results, expect, "seed {seed}");
        }
    }

    #[test]
    fn robust_hop_field_sees_crash_as_isolation() {
        // Path 0-1-2-3; source at 0; robot 1 crashes immediately: 2 and
        // 3 can never hear from the source.
        let adj = vec![vec![1], vec![0, 2], vec![1, 3], vec![2]];
        let sources = vec![true, false, false, false];
        let plan = FaultPlan::reliable(0).with_crash(0, 1);
        let robust =
            run_robust_hop_field(&sources, &adj, plan, RetransmitConfig::default(), 500).unwrap();
        assert_eq!(robust.results[0], Some(0));
        assert_eq!(robust.results[2], None, "cut off by the crash");
        assert_eq!(robust.results[3], None);
    }

    #[test]
    fn robust_boundary_loop_matches_reference() {
        let ids = vec![12, 5, 40, 3, 9, 77, 21];
        let reference = run_boundary_loop(&ids).unwrap();
        let robust = run_robust_boundary_loop(
            &ids,
            FaultPlan::reliable(0),
            RetransmitConfig::default(),
            800,
        )
        .unwrap();
        assert_eq!(robust.results, reference);
    }

    #[test]
    fn robust_boundary_loop_survives_loss() {
        let ids: Vec<usize> = (0..10).map(|i| (i * 7 + 3) % 101).collect();
        let reference = run_boundary_loop(&ids).unwrap();
        for seed in [8, 9] {
            let robust = run_robust_boundary_loop(
                &ids,
                FaultPlan::reliable(seed).with_loss(0.25),
                RetransmitConfig::default(),
                4000,
            )
            .unwrap();
            assert_eq!(robust.results, reference, "seed {seed}");
            assert!(robust.stats.dropped_loss > 0);
        }
    }

    #[test]
    fn node_persist_round_trips_mid_run() {
        use anr_distsim::Simulator;
        // Freeze a flooding run mid-protocol and check the codec
        // reproduces the exact in-flight node state (retransmit queues
        // included).
        let g = grid_graph(3, 3);
        let values: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let nodes: Vec<RobustFloodNode> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                RobustFloodNode::new(
                    i,
                    v,
                    9,
                    g.adjacency()[i].clone(),
                    RetransmitConfig::default(),
                )
            })
            .collect();
        let mut sim = Simulator::new(nodes, g.adjacency().to_vec()).unwrap();
        sim.start().unwrap();
        sim.step_round().unwrap();
        for node in sim.nodes() {
            let mut w = SnapshotWriter::new();
            node.persist(&mut w);
            let bytes = w.into_bytes();
            let mut r = SnapshotReader::new(&bytes);
            let back = RobustFloodNode::restore(&mut r).unwrap();
            assert_eq!(&back, node);
            assert_eq!(r.remaining(), 0);
        }
        // Boundary-loop node with a live retransmit queue.
        let mut bl = RobustBoundaryLoopNode::new(0, true, 1, RetransmitConfig::default(), 30, 4);
        let mut out = Outbox::default();
        bl.on_start(&mut out);
        let mut w = SnapshotWriter::new();
        bl.persist(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(RobustBoundaryLoopNode::restore(&mut r).unwrap(), bl);
    }

    #[test]
    fn idle_predicates_match_settledness() {
        // A fresh non-initiator loop node is idle (nothing pending, no
        // timer); a fresh initiator is not (its restart timer is armed
        // after launch).
        let cfg = RetransmitConfig::default();
        let follower = RobustBoundaryLoopNode::new(1, false, 2, cfg, 30, 4);
        assert!(follower.idle());
        let mut initiator = RobustBoundaryLoopNode::new(0, true, 1, cfg, 30, 4);
        let mut out = Outbox::default();
        initiator.on_start(&mut out);
        assert!(!initiator.idle());
        // Flood/hop nodes: idle exactly when the retransmit queue is
        // empty.
        let flood = RobustFloodNode::new(0, 1.0, 3, vec![1], cfg);
        assert!(!flood.is_settled() || flood.idle());
        let hop = RobustHopFieldNode::new(false, vec![1], cfg);
        assert!(hop.idle());
    }

    #[test]
    fn robust_runs_are_deterministic() {
        let g = grid_graph(3, 3);
        let values: Vec<f64> = (0..9).map(|i| i as f64 * 0.5).collect();
        let run = || {
            run_robust_flood_sum(
                &values,
                g.adjacency(),
                nasty_plan(42),
                RetransmitConfig::default(),
                2000,
            )
            .unwrap()
        };
        let a = run();
        let b = run();
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.results, b.results);
    }
}
