//! Property tests for the message-passing simulators: delivery
//! accounting, loss statistics, deterministic replay, and the
//! event engine ≡ reliable simulator equivalence under a zero-fault
//! plan.

use anr_distsim::{
    Envelope, EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, Outbox, Simulator,
};
use proptest::prelude::*;

/// Node that broadcasts once and counts what it receives.
struct OneShot {
    received: usize,
}

impl Node for OneShot {
    type Msg = u32;
    fn on_start(&mut self, out: &mut Outbox<u32>) {
        out.broadcast(7);
    }
    fn on_round(&mut self, _round: usize, inbox: &[Envelope<u32>], _out: &mut Outbox<u32>) {
        self.received += inbox.len();
    }
}

fn ring(n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
}

/// Gossip node whose state captures the *exact* delivery trace: every
/// received envelope in order. Any divergence in scheduling between two
/// runs shows up as a state difference.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Gossip {
    id: usize,
    min_seen: usize,
    trace: Vec<(usize, usize)>,
}

impl Node for Gossip {
    type Msg = usize;
    fn on_start(&mut self, out: &mut Outbox<usize>) {
        out.broadcast(self.id);
    }
    fn on_round(&mut self, _round: usize, inbox: &[Envelope<usize>], out: &mut Outbox<usize>) {
        for env in inbox {
            self.trace.push((env.from, env.msg));
            if env.msg < self.min_seen {
                self.min_seen = env.msg;
                out.broadcast(env.msg);
            }
        }
    }
}

fn gossip_nodes(n: usize) -> Vec<Gossip> {
    (0..n)
        .map(|id| Gossip {
            id,
            min_seen: id,
            trace: Vec::new(),
        })
        .collect()
}

/// A path `0-1-…-(n-1)` plus `extra` seeded chords: always connected,
/// shape varies with the seed.
fn random_connected(n: usize, extra: usize, seed: u64) -> Vec<Vec<usize>> {
    let mut adj: Vec<Vec<usize>> = (0..n)
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
    let mut state = seed ^ 0x9E3779B97F4A7C15;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    for _ in 0..extra {
        let u = (next() % n as u64) as usize;
        let v = (next() % n as u64) as usize;
        if u != v && !adj[u].contains(&v) {
            adj[u].push(v);
            adj[v].push(u);
        }
    }
    adj
}

/// One-shot broadcasts on a ring, on the event engine under `loss`.
fn run(n: usize, loss: f64, seed: u64) -> (FaultStats, Vec<usize>) {
    let nodes = (0..n).map(|_| OneShot { received: 0 }).collect();
    let topology = ExplicitTopology::new(ring(n)).unwrap();
    let plan = FaultPlan::reliable(seed).with_loss(loss);
    let mut sim = EventSim::new(nodes, topology, plan).unwrap();
    let stats = sim.run_until_quiet(10).unwrap();
    let received = sim.into_nodes().into_iter().map(|nd| nd.received).collect();
    (stats, received)
}

proptest! {
    #[test]
    fn delivered_plus_dropped_is_total(n in 3usize..40, loss in 0.0..0.9f64, seed in 0u64..1000) {
        let (stats, received) = run(n, loss, seed);
        // Each node broadcasts once to 2 neighbors.
        prop_assert_eq!(stats.sent + stats.dropped_loss, 2 * n);
        prop_assert_eq!(stats.delivered, stats.sent);
        let total_received: usize = received.iter().sum();
        prop_assert_eq!(total_received, stats.delivered);
    }

    #[test]
    fn lossless_delivers_everything(n in 3usize..40) {
        let (stats, received) = run(n, 0.0, 0);
        prop_assert_eq!(stats.dropped_loss, 0);
        prop_assert!(received.iter().all(|&r| r == 2));
    }

    #[test]
    fn replay_is_deterministic(n in 3usize..30, loss in 0.1..0.9f64, seed in 0u64..1000) {
        let a = run(n, loss, seed);
        let b = run(n, loss, seed);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.1, b.1);
    }

    #[test]
    fn zero_fault_plan_is_bit_identical_to_reliable_simulator(
        n in 3usize..32,
        extra_edges in 0usize..12,
        topo_seed in 0u64..1000,
        plan_seed in 0u64..1000,
    ) {
        // Random connected topology: a path plus seeded chords.
        let adj = random_connected(n, extra_edges, topo_seed);

        let mut reliable = Simulator::new(gossip_nodes(n), adj.clone()).unwrap();
        let rel_stats = reliable.run_until_quiet(4 * n + 8).unwrap();

        // The zero-fault plan must reproduce the trace exactly,
        // regardless of its seed (no random draws may be consumed).
        let topology = ExplicitTopology::new(adj).unwrap();
        let mut faulty =
            EventSim::new(gossip_nodes(n), topology, FaultPlan::reliable(plan_seed)).unwrap();
        let f_stats = faulty.run_until_quiet(4 * n + 8).unwrap();

        prop_assert_eq!(f_stats.rounds, rel_stats.rounds, "round counts differ");
        prop_assert_eq!(f_stats.sent, rel_stats.messages, "sent counts differ");
        prop_assert_eq!(f_stats.delivered, rel_stats.messages, "delivered counts differ");
        prop_assert_eq!(f_stats.dropped_loss, 0);
        prop_assert_eq!(f_stats.dropped_crash, 0);
        prop_assert_eq!(f_stats.duplicated, 0);
        prop_assert_eq!(f_stats.delayed, 0);
        prop_assert_eq!(faulty.into_nodes(), reliable.into_nodes(), "final states differ");
    }

    #[test]
    fn loss_rate_tracks_probability(loss in 0.1..0.9f64, seed in 0u64..50) {
        // Large sample: 400 deliveries; the empirical rate should land
        // within ±0.15 of the configured probability.
        let (stats, _) = run(200, loss, seed);
        let rate = stats.dropped_loss as f64 / (stats.sent + stats.dropped_loss) as f64;
        prop_assert!((rate - loss).abs() < 0.15, "rate {} vs p {}", rate, loss);
    }
}
