//! # anr-distsim — round-based message-passing simulators
//!
//! The ICDCS 2016 optimal-marching paper specifies its algorithms at the
//! message level: boundary vertices pass a hop-counting token around the
//! boundary loop, robots flood their stable-link ratios, isolated
//! subgroups are discovered by packets initiated at boundary vertices
//! (Sec. III-B, III-D-1). This crate is the substrate those protocols run
//! on. It has two engines over one [`Node`] trait:
//!
//! * [`Simulator`] — the paper's ideal network: synchronous rounds,
//!   every message sent is delivered the next round, every node is
//!   stepped every round. [`Simulator::run_until_quiet`] runs until no
//!   messages are in flight and reports round/message accounting.
//! * [`EventSim`] — the fault-injecting event engine: a seeded
//!   [`FaultPlan`] loses, delays and duplicates messages and crashes and
//!   recovers robots; only rounds with something due execute, and only
//!   woken robots step (see [`Node::idle`]). Topologies are pluggable
//!   ([`ExplicitTopology`], the lazy [`GridTopology`]), runs can be
//!   checkpointed ([`EventSim::save`], `anr-distsim-ckpt/3`) and carry
//!   CONGEST accounting ([`EventSim::with_accounting`]). Under a
//!   reliable plan it reproduces [`Simulator`] exactly.
//!
//! In both engines a node may only send to its topology neighbors
//! (enforced), and a node's sends are delivered in send order.
//!
//! ## Example: min-ID flooding (leader election)
//!
//! ```
//! use anr_distsim::{Envelope, Node, Outbox, Simulator};
//!
//! struct MinId { id: usize, min_seen: usize }
//!
//! impl Node for MinId {
//!     type Msg = usize;
//!     fn on_start(&mut self, out: &mut Outbox<usize>) {
//!         out.broadcast(self.id);
//!     }
//!     fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
//!         for env in inbox {
//!             if env.msg < self.min_seen {
//!                 self.min_seen = env.msg;
//!                 out.broadcast(env.msg);
//!             }
//!         }
//!     }
//! }
//!
//! // A path graph 0 - 1 - 2.
//! let nodes = (0..3).map(|id| MinId { id, min_seen: id }).collect();
//! let mut sim = Simulator::new(nodes, vec![vec![1], vec![0, 2], vec![1]])?;
//! let stats = sim.run_until_quiet(100)?;
//! assert!(stats.rounds <= 4);
//! assert!(sim.nodes().iter().all(|n| n.min_seen == 0));
//! # Ok::<(), anr_distsim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(unreachable_pub)]
#![warn(missing_docs)]

mod channel;
pub mod ckpt;
pub mod fault;
pub mod harness;
pub mod snapshot;
pub mod topology;

pub use ckpt::{CkptError, CKPT_MAGIC};
pub use fault::{ChurnEvent, ChurnKind, DelayModel, FaultPlan};
pub use harness::{EventSim, FaultStats, ModelObservation};
pub use snapshot::{Persist, PersistError, SnapshotReader, SnapshotWriter};
pub use topology::{ExplicitTopology, GridTopology, Topology};

use std::error::Error;
use std::fmt;

/// A received message together with its sender.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope<M> {
    /// Index of the sending node.
    pub from: usize,
    /// The message payload.
    pub msg: M,
}

/// Outgoing-message buffer handed to a node during its turn.
///
/// Sends are addressed by node index and validated against the topology
/// when the round is committed.
#[derive(Debug)]
pub struct Outbox<M> {
    /// (to, msg) pairs; `usize::MAX` destination means broadcast.
    queued: Vec<(usize, M)>,
}

/// Destination marker for a broadcast to all neighbors.
///
/// Queued sends carrying this destination are expanded over the
/// sender's adjacency row (in neighbor order) when the outbox is
/// committed.
const BROADCAST: usize = usize::MAX;

impl<M> Default for Outbox<M> {
    fn default() -> Self {
        Outbox::new()
    }
}

impl<M> Outbox<M> {
    /// An empty outbox.
    pub fn new() -> Self {
        Outbox { queued: Vec::new() }
    }

    /// Queues a message to the neighbor with index `to`.
    ///
    /// Sending to a non-neighbor is detected when the round commits and
    /// fails the simulation with [`SimError::NotANeighbor`].
    pub fn send(&mut self, to: usize, msg: M) {
        self.queued.push((to, msg));
    }

    /// Queues a copy of `msg` to every neighbor.
    pub fn broadcast(&mut self, msg: M)
    where
        M: Clone,
    {
        self.queued.push((BROADCAST, msg));
    }

    /// Number of queued sends (a broadcast counts once here).
    pub fn len(&self) -> usize {
        self.queued.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.queued.is_empty()
    }

    /// Drains the queued sends; a [`BROADCAST`] destination must be
    /// expanded over the sender's neighbor row by the engine.
    fn take_queued(&mut self) -> Vec<(usize, M)> {
        std::mem::take(&mut self.queued)
    }
}

/// A protocol participant.
///
/// Nodes are identified by their index in the simulator's node vector;
/// the topology's adjacency list uses the same indices.
pub trait Node {
    /// Message type exchanged by this protocol.
    type Msg: Clone;

    /// Called once before round 0; initial sends go to `out`.
    fn on_start(&mut self, out: &mut Outbox<Self::Msg>);

    /// Called every round with the messages delivered this round.
    ///
    /// `inbox` is empty for nodes that received nothing; such nodes are
    /// still stepped so timeouts can be modeled with the round counter.
    fn on_round(
        &mut self,
        round: usize,
        inbox: &[Envelope<Self::Msg>],
        out: &mut Outbox<Self::Msg>,
    );

    /// Dormancy certificate for the [`EventSim`] engine. Returning
    /// `true` promises that, until a message arrives, `on_round` with
    /// an empty inbox would change no state, send nothing, and draw no
    /// randomness — so the engine may skip those calls entirely.
    ///
    /// The default `false` is always safe: the node is stepped every
    /// round. The reliable [`Simulator`] steps every node regardless.
    fn idle(&self) -> bool {
        false
    }
}

/// Accounting for a finished simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimStats {
    /// Number of rounds executed (not counting `on_start`).
    pub rounds: usize,
    /// Total messages delivered (a broadcast to k neighbors counts k).
    pub messages: usize,
}

/// Errors raised by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// Adjacency list length does not match the node count.
    TopologyMismatch {
        /// Number of nodes supplied.
        nodes: usize,
        /// Length of the adjacency list.
        adjacency: usize,
    },
    /// The adjacency list references a node that does not exist.
    BadNeighborIndex {
        /// Node whose adjacency row is invalid.
        node: usize,
        /// The out-of-range neighbor index.
        neighbor: usize,
    },
    /// The adjacency list is not symmetric (undirected graph required).
    AsymmetricTopology {
        /// Edge present as (from, to) but not (to, from).
        from: usize,
        /// See `from`.
        to: usize,
    },
    /// A node tried to send to a non-neighbor.
    NotANeighbor {
        /// The sending node.
        from: usize,
        /// The invalid destination.
        to: usize,
    },
    /// `run_until_quiet` hit its round limit with messages still flowing.
    NotQuiescent {
        /// The round limit that was exceeded.
        max_rounds: usize,
        /// Nodes that still had messages in flight towards them when the
        /// limit was hit — the first place to look when debugging a
        /// protocol that fails to terminate (especially under faults).
        pending: Vec<usize>,
    },
    /// A [`fault::FaultPlan`] is inconsistent with the simulation.
    InvalidFaultPlan {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A protocol run observed a message payload larger than the
    /// static CONGEST bit budget declared for it in `lint.models.toml`
    /// — the runtime side of the anr-lint M1/M3 cross-check.
    ModelBudgetExceeded {
        /// The protocol (its `Node` impl self type).
        protocol: &'static str,
        /// Largest payload observed, in bits.
        observed_bits: u32,
        /// The declared static budget, in bits.
        bound_bits: u32,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::TopologyMismatch { nodes, adjacency } => {
                write!(f, "adjacency list has {adjacency} rows for {nodes} nodes")
            }
            SimError::BadNeighborIndex { node, neighbor } => {
                write!(f, "node {node} lists non-existent neighbor {neighbor}")
            }
            SimError::AsymmetricTopology { from, to } => {
                write!(f, "edge ({from}, {to}) present but ({to}, {from}) missing")
            }
            SimError::NotANeighbor { from, to } => {
                write!(f, "node {from} sent to non-neighbor {to}")
            }
            SimError::NotQuiescent {
                max_rounds,
                pending,
            } => {
                write!(
                    f,
                    "protocol still active after {max_rounds} rounds \
                     ({} node(s) with messages in flight: {:?})",
                    pending.len(),
                    pending
                )
            }
            SimError::InvalidFaultPlan { reason } => {
                write!(f, "invalid fault plan: {reason}")
            }
            SimError::ModelBudgetExceeded {
                protocol,
                observed_bits,
                bound_bits,
            } => {
                write!(
                    f,
                    "{protocol} sent a {observed_bits}-bit payload, exceeding its                      declared {bound_bits}-bit CONGEST budget (lint.models.toml)"
                )
            }
        }
    }
}

impl Error for SimError {}

/// Deterministic synchronous network simulator.
///
/// See the [crate-level documentation](crate) for an example.
#[derive(Debug)]
pub struct Simulator<N: Node> {
    nodes: Vec<N>,
    adjacency: Vec<Vec<usize>>,
    /// Messages in flight, to be delivered next round: per-recipient inboxes.
    in_flight: Vec<Vec<Envelope<N::Msg>>>,
    stats: SimStats,
    started: bool,
}

impl<N: Node> Simulator<N> {
    /// Creates a simulator over `nodes` connected by `adjacency`.
    ///
    /// # Errors
    ///
    /// * [`SimError::TopologyMismatch`] — row count ≠ node count.
    /// * [`SimError::BadNeighborIndex`] — neighbor index out of range.
    /// * [`SimError::AsymmetricTopology`] — directed edge without reverse.
    pub fn new(nodes: Vec<N>, adjacency: Vec<Vec<usize>>) -> Result<Self, SimError> {
        if nodes.len() != adjacency.len() {
            return Err(SimError::TopologyMismatch {
                nodes: nodes.len(),
                adjacency: adjacency.len(),
            });
        }
        for (u, nbrs) in adjacency.iter().enumerate() {
            for &v in nbrs {
                if v >= nodes.len() {
                    return Err(SimError::BadNeighborIndex {
                        node: u,
                        neighbor: v,
                    });
                }
                if !adjacency[v].contains(&u) {
                    return Err(SimError::AsymmetricTopology { from: u, to: v });
                }
            }
        }
        let n = nodes.len();
        Ok(Simulator {
            nodes,
            adjacency,
            in_flight: vec![Vec::new(); n],
            stats: SimStats::default(),
            started: false,
        })
    }

    /// Read access to the nodes (inspect protocol state after a run).
    #[inline]
    pub fn nodes(&self) -> &[N] {
        &self.nodes
    }

    /// Mutable access to the nodes.
    #[inline]
    pub fn nodes_mut(&mut self) -> &mut [N] {
        &mut self.nodes
    }

    /// The communication topology.
    #[inline]
    pub fn adjacency(&self) -> &[Vec<usize>] {
        &self.adjacency
    }

    /// Accounting so far.
    #[inline]
    pub fn stats(&self) -> SimStats {
        self.stats
    }

    /// Are any messages waiting to be delivered?
    pub fn has_messages_in_flight(&self) -> bool {
        self.in_flight.iter().any(|ib| !ib.is_empty())
    }

    /// Nodes with at least one message in flight towards them.
    pub fn pending_recipients(&self) -> Vec<usize> {
        self.in_flight
            .iter()
            .enumerate()
            .filter(|(_, ib)| !ib.is_empty())
            .map(|(i, _)| i)
            .collect()
    }

    fn commit_outbox(&mut self, from: usize, out: Outbox<N::Msg>) -> Result<(), SimError> {
        for (to, msg) in out.queued {
            if to == BROADCAST {
                for &nbr in &self.adjacency[from] {
                    self.in_flight[nbr].push(Envelope {
                        from,
                        msg: msg.clone(),
                    });
                    self.stats.messages += 1;
                }
            } else {
                if !self.adjacency[from].contains(&to) {
                    return Err(SimError::NotANeighbor { from, to });
                }
                self.in_flight[to].push(Envelope { from, msg });
                self.stats.messages += 1;
            }
        }
        Ok(())
    }

    /// Runs `on_start` on every node (idempotent: only the first call
    /// has an effect).
    pub fn start(&mut self) -> Result<(), SimError> {
        if self.started {
            return Ok(());
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            let mut out = Outbox::new();
            self.nodes[i].on_start(&mut out);
            self.commit_outbox(i, out)?;
        }
        Ok(())
    }

    /// Executes one synchronous round: delivers all in-flight messages
    /// and steps every node. Returns the number of messages delivered.
    pub fn step_round(&mut self) -> Result<usize, SimError> {
        self.start()?;
        let round = self.stats.rounds;
        let inboxes: Vec<Vec<Envelope<N::Msg>>> =
            self.in_flight.iter_mut().map(std::mem::take).collect();
        let delivered = inboxes.iter().map(Vec::len).sum();
        for (i, inbox) in inboxes.iter().enumerate() {
            let mut out = Outbox::new();
            self.nodes[i].on_round(round, inbox, &mut out);
            self.commit_outbox(i, out)?;
        }
        self.stats.rounds += 1;
        Ok(delivered)
    }

    /// Runs rounds until no messages are in flight.
    ///
    /// # Errors
    ///
    /// [`SimError::NotQuiescent`] when `max_rounds` is exceeded, plus any
    /// send-validation error.
    pub fn run_until_quiet(&mut self, max_rounds: usize) -> Result<SimStats, SimError> {
        self.start()?;
        let mut rounds_left = max_rounds;
        while self.has_messages_in_flight() {
            if rounds_left == 0 {
                return Err(SimError::NotQuiescent {
                    max_rounds,
                    pending: self.pending_recipients(),
                });
            }
            self.step_round()?;
            rounds_left -= 1;
        }
        Ok(self.stats)
    }

    /// Consumes the simulator, returning the nodes.
    pub fn into_nodes(self) -> Vec<N> {
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every node floods a token once; counts received tokens.
    struct Counter {
        received: usize,
    }

    impl Node for Counter {
        type Msg = ();
        fn on_start(&mut self, out: &mut Outbox<()>) {
            out.broadcast(());
        }
        fn on_round(&mut self, _round: usize, inbox: &[Envelope<()>], _out: &mut Outbox<()>) {
            self.received += inbox.len();
        }
    }

    fn ring(n: usize) -> Vec<Vec<usize>> {
        (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
    }

    #[test]
    fn broadcast_reaches_all_neighbors() {
        let nodes = (0..5).map(|_| Counter { received: 0 }).collect();
        let mut sim = Simulator::new(nodes, ring(5)).unwrap();
        let stats = sim.run_until_quiet(10).unwrap();
        assert_eq!(stats.messages, 10); // 5 broadcasts × 2 neighbors
        for n in sim.nodes() {
            assert_eq!(n.received, 2);
        }
    }

    #[test]
    fn rejects_topology_mismatch() {
        let nodes = vec![Counter { received: 0 }];
        assert!(matches!(
            Simulator::new(nodes, vec![vec![], vec![]]),
            Err(SimError::TopologyMismatch { .. })
        ));
    }

    #[test]
    fn rejects_bad_neighbor() {
        let nodes = vec![Counter { received: 0 }, Counter { received: 0 }];
        assert!(matches!(
            Simulator::new(nodes, vec![vec![5], vec![0]]),
            Err(SimError::BadNeighborIndex {
                node: 0,
                neighbor: 5
            })
        ));
    }

    #[test]
    fn rejects_asymmetric_topology() {
        let nodes = vec![Counter { received: 0 }, Counter { received: 0 }];
        assert!(matches!(
            Simulator::new(nodes, vec![vec![1], vec![]]),
            Err(SimError::AsymmetricTopology { from: 0, to: 1 })
        ));
    }

    /// Sends a single message to an explicit non-neighbor.
    struct BadSender;
    impl Node for BadSender {
        type Msg = ();
        fn on_start(&mut self, out: &mut Outbox<()>) {
            out.send(2, ());
        }
        fn on_round(&mut self, _: usize, _: &[Envelope<()>], _: &mut Outbox<()>) {}
    }

    #[test]
    fn rejects_send_to_non_neighbor() {
        // Path 0-1-2: node 0 tries to skip to node 2.
        let nodes = vec![BadSender, BadSender, BadSender];
        let adj = vec![vec![1], vec![0, 2], vec![1]];
        let mut sim = Simulator::new(nodes, adj).unwrap();
        assert!(matches!(
            sim.start(),
            Err(SimError::NotANeighbor { from: 0, to: 2 })
        ));
    }

    /// Ping-pong forever: never quiescent.
    struct PingPong;
    impl Node for PingPong {
        type Msg = u32;
        fn on_start(&mut self, out: &mut Outbox<u32>) {
            out.broadcast(0);
        }
        fn on_round(&mut self, _round: usize, inbox: &[Envelope<u32>], out: &mut Outbox<u32>) {
            for env in inbox {
                out.send(env.from, env.msg + 1);
            }
        }
    }

    #[test]
    fn non_quiescent_protocol_hits_limit() {
        let nodes = vec![PingPong, PingPong];
        let mut sim = Simulator::new(nodes, vec![vec![1], vec![0]]).unwrap();
        match sim.run_until_quiet(50) {
            Err(SimError::NotQuiescent {
                max_rounds,
                pending,
            }) => {
                assert_eq!(max_rounds, 50);
                // Both ping-pong nodes still have a message inbound.
                assert_eq!(pending, vec![0, 1]);
            }
            other => panic!("expected NotQuiescent, got {other:?}"),
        }
        assert_eq!(sim.stats().rounds, 50);
    }

    /// Hop counter: measures BFS distance from node 0.
    struct Hop {
        dist: Option<usize>,
    }
    impl Node for Hop {
        type Msg = usize;
        fn on_start(&mut self, out: &mut Outbox<usize>) {
            if self.dist == Some(0) {
                out.broadcast(1);
            }
        }
        fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
            for env in inbox {
                if self.dist.is_none() || env.msg < self.dist.unwrap() {
                    self.dist = Some(env.msg);
                    out.broadcast(env.msg + 1);
                }
            }
        }
    }

    #[test]
    fn hop_count_field_matches_bfs() {
        // Path of 6 nodes.
        let n = 6;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        let nodes = (0..n)
            .map(|i| Hop {
                dist: if i == 0 { Some(0) } else { None },
            })
            .collect();
        let mut sim = Simulator::new(nodes, adj).unwrap();
        let stats = sim.run_until_quiet(20).unwrap();
        for (i, node) in sim.nodes().iter().enumerate() {
            assert_eq!(node.dist, Some(i));
        }
        assert!(stats.rounds <= n + 1);
    }

    #[test]
    fn step_round_counts_delivered() {
        let nodes = (0..3).map(|_| Counter { received: 0 }).collect();
        let mut sim = Simulator::new(nodes, ring(3)).unwrap();
        sim.start().unwrap();
        let delivered = sim.step_round().unwrap();
        assert_eq!(delivered, 6);
        assert!(!sim.has_messages_in_flight());
    }

    #[test]
    fn start_is_idempotent() {
        let nodes = (0..3).map(|_| Counter { received: 0 }).collect();
        let mut sim = Simulator::new(nodes, ring(3)).unwrap();
        sim.start().unwrap();
        sim.start().unwrap();
        let stats = sim.run_until_quiet(10).unwrap();
        assert_eq!(stats.messages, 6); // not doubled
    }

    #[test]
    fn lossless_by_default() {
        let nodes = (0..4).map(|_| Counter { received: 0 }).collect();
        let mut sim = Simulator::new(nodes, ring(4)).unwrap();
        let stats = sim.run_until_quiet(10).unwrap();
        assert_eq!(stats.messages, 8);
        assert!(sim.nodes().iter().all(|n| n.received == 2));
    }

    /// The fault-injecting engine over a prebuilt adjacency.
    fn event_sim<N: Node>(
        nodes: Vec<N>,
        adj: Vec<Vec<usize>>,
        plan: FaultPlan,
    ) -> EventSim<N, ExplicitTopology> {
        EventSim::new(nodes, ExplicitTopology::new(adj).unwrap(), plan).unwrap()
    }

    #[test]
    fn loss_model_drops_deterministically() {
        let run = |seed: u64| -> FaultStats {
            let nodes = (0..8).map(|_| Counter { received: 0 }).collect();
            let plan = FaultPlan::reliable(seed).with_loss(0.5);
            event_sim(nodes, ring(8), plan).run_until_quiet(10).unwrap()
        };
        let a = run(1);
        let b = run(1);
        assert_eq!(a, b, "same seed must reproduce the same drops");
        assert!(
            a.dropped_loss > 0,
            "p=0.5 over 16 messages should drop some"
        );
        assert_eq!(a.sent + a.dropped_loss, 16);
        // A different seed gives a different (but valid) trace.
        let c = run(2);
        assert_eq!(c.sent + c.dropped_loss, 16);
    }

    #[test]
    fn hop_field_degrades_gracefully_under_loss() {
        // BFS flooding over a line with loss: nodes may end up with a
        // larger (or no) distance, never a smaller one.
        let n = 8;
        let adj: Vec<Vec<usize>> = (0..n)
            .map(|i| {
                let mut v = Vec::new();
                if i > 0 {
                    v.push(i - 1);
                }
                if i + 1 < n {
                    v.push(i + 1);
                }
                v
            })
            .collect();
        let nodes: Vec<Hop> = (0..n)
            .map(|i| Hop {
                dist: if i == 0 { Some(0) } else { None },
            })
            .collect();
        let mut sim = event_sim(nodes, adj, FaultPlan::reliable(99).with_loss(0.3));
        sim.run_until_quiet(50).unwrap();
        for (i, node) in sim.nodes().iter().enumerate() {
            if let Some(d) = node.dist {
                assert!(d >= i, "node {i} learned impossible distance {d}");
            }
        }
    }

    #[test]
    fn into_nodes_returns_state() {
        let nodes = (0..2).map(|_| Counter { received: 0 }).collect();
        let mut sim = Simulator::new(nodes, vec![vec![1], vec![0]]).unwrap();
        sim.run_until_quiet(5).unwrap();
        let nodes = sim.into_nodes();
        assert_eq!(nodes.len(), 2);
        assert_eq!(nodes[0].received, 1);
    }
}
