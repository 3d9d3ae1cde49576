//! Runtime CONGEST accounting: the dynamic half of the anr-lint M-rule
//! cross-check.
//!
//! The static side (rule M1) proves each protocol's message *type*
//! fits the bit budget declared in `lint.models.toml`; these tests pin
//! the runtime side: the robust runners observe every payload the
//! fault model is offered, the observation stays inside the same
//! static budget, and attaching accounting never changes a run.

use anr_distsim::{EventSim, ExplicitTopology, FaultPlan, FaultStats, Node, Outbox, SimError};
use anr_geom::Point;
use anr_netgraph::robust::{
    run_robust_boundary_loop, run_robust_flood_sum, run_robust_hop_field, RetransmitConfig,
    RobustBoundaryLoopNode, RobustFloodNode, RobustHopFieldNode, RFLOOD_MSG_BITS, RHOP_MSG_BITS,
    RLOOP_MSG_BITS,
};
use anr_netgraph::UnitDiskGraph;

/// The runners' settle-then-drain run on an engine *without*
/// accounting: the baseline that proves accounting is observation only.
fn unaccounted<N: Node>(
    nodes: Vec<N>,
    adjacency: Vec<Vec<usize>>,
    plan: FaultPlan,
    max_rounds: usize,
    settled: fn(&N) -> bool,
) -> (Vec<N>, FaultStats) {
    let topology = ExplicitTopology::new(adjacency).unwrap();
    let mut sim = EventSim::new(nodes, topology, plan).unwrap();
    let stats = sim
        .run_until(max_rounds, |ns| ns.iter().all(settled))
        .unwrap();
    let stats = sim
        .run_until_quiet(max_rounds.saturating_sub(stats.rounds))
        .unwrap();
    assert!(sim.model_observation().is_none());
    (sim.into_nodes(), stats)
}

fn lattice_adjacency(cols: usize, rows: usize) -> Vec<Vec<usize>> {
    let pts: Vec<Point> = (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * 55.0, (i / cols) as f64 * 55.0))
        .collect();
    UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec()
}

#[test]
fn flood_observation_stays_inside_static_budget() {
    let adjacency = lattice_adjacency(4, 4);
    let values: Vec<f64> = (0..16).map(|i| i as f64).collect();
    let plan = FaultPlan::reliable(7).with_loss(0.1);
    let cfg = RetransmitConfig::default();
    let outcome = run_robust_flood_sum(&values, &adjacency, plan.clone(), cfg, 500).unwrap();
    let obs = outcome.observation;
    // The biggest flood payload is a Data record: exactly the static
    // bound; nothing may exceed it.
    assert_eq!(obs.peak_payload_bits, RFLOOD_MSG_BITS);
    assert!(obs.peak_round_msgs > 0);
    assert_eq!(
        obs.total_msgs as usize,
        outcome.stats.sent + outcome.stats.dropped_loss
    );
    assert!(obs.rounds as usize >= outcome.stats.rounds);
    // Accounting is observation only: an unaccounted engine sees the
    // exact same run.
    let nodes = (0..16)
        .map(|i| RobustFloodNode::new(i, values[i], 16, adjacency[i].clone(), cfg))
        .collect();
    let (nodes, stats) = unaccounted(nodes, adjacency, plan, 500, RobustFloodNode::is_settled);
    let sums: Vec<f64> = nodes.iter().map(RobustFloodNode::sum).collect();
    assert_eq!(sums, outcome.results);
    assert_eq!(stats, outcome.stats);
}

#[test]
fn hop_field_observation_stays_inside_static_budget() {
    let adjacency = lattice_adjacency(5, 3);
    let sources: Vec<bool> = (0..15).map(|i| i == 0).collect();
    let plan = FaultPlan::reliable(11);
    let cfg = RetransmitConfig::default();
    let outcome = run_robust_hop_field(&sources, &adjacency, plan.clone(), cfg, 500).unwrap();
    let obs = outcome.observation;
    assert!(obs.peak_payload_bits > 0 && obs.peak_payload_bits <= RHOP_MSG_BITS);
    assert_eq!(obs.total_msgs as usize, outcome.stats.sent);
    let nodes = (0..15)
        .map(|i| RobustHopFieldNode::new(sources[i], adjacency[i].clone(), cfg))
        .collect();
    let (nodes, stats) = unaccounted(nodes, adjacency, plan, 500, RobustHopFieldNode::is_settled);
    let hops: Vec<Option<usize>> = nodes.into_iter().map(|nd| nd.hops).collect();
    assert_eq!(hops, outcome.results);
    assert_eq!(stats, outcome.stats);
}

#[test]
fn boundary_loop_observation_stays_inside_static_budget() {
    let ids: Vec<usize> = (0..8).collect();
    let plan = FaultPlan::reliable(3);
    let cfg = RetransmitConfig::default();
    let outcome = run_robust_boundary_loop(&ids, plan.clone(), cfg, 2000).unwrap();
    let obs = outcome.observation;
    assert!(obs.peak_payload_bits > 0 && obs.peak_payload_bits <= RLOOP_MSG_BITS);
    assert!(obs.peak_round_msgs > 0 && obs.total_msgs >= obs.peak_round_msgs);
    // Nodes and ring exactly as the runner builds them (ID 0 initiates).
    let restart_after = (8 + 2) * (cfg.interval + 1);
    let nodes = (0..8)
        .map(|i| RobustBoundaryLoopNode::new(i, i == 0, (i + 1) % 8, cfg, restart_after, 16))
        .collect();
    let ring = (0..8).map(|i| vec![(i + 7) % 8, (i + 1) % 8]).collect();
    let (nodes, stats) = unaccounted(nodes, ring, plan, 2000, RobustBoundaryLoopNode::is_settled);
    let labels: Vec<(usize, usize)> = nodes
        .iter()
        .map(|nd| (nd.index.unwrap_or(0), nd.loop_size.unwrap_or(0)))
        .collect();
    assert_eq!(labels, outcome.results);
    assert_eq!(stats, outcome.stats);
}

/// A chatty test node: broadcasts one fixed-size message per round
/// forever (bounded by the harness round cap).
#[derive(Debug, Clone, PartialEq)]
struct Chatty {
    rounds_left: usize,
}

impl Node for Chatty {
    type Msg = u64;

    fn on_start(&mut self, out: &mut Outbox<u64>) {
        out.broadcast(1);
    }

    fn on_round(
        &mut self,
        _round: usize,
        _inbox: &[anr_distsim::Envelope<u64>],
        out: &mut Outbox<u64>,
    ) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            out.broadcast(2);
        }
    }

    fn idle(&self) -> bool {
        self.rounds_left == 0
    }
}

fn chatty_sim(bits_of: fn(&u64) -> u32) -> EventSim<Chatty, ExplicitTopology> {
    let nodes = vec![Chatty { rounds_left: 3 }, Chatty { rounds_left: 3 }];
    let topology = ExplicitTopology::new(vec![vec![1], vec![0]]).unwrap();
    EventSim::new(nodes, topology, FaultPlan::reliable(1))
        .unwrap()
        .with_accounting(bits_of)
}

#[test]
fn engine_accounting_counts_offers_and_rolls_rounds() {
    let mut sim = chatty_sim(|_| 64);
    sim.run_until_quiet(64).unwrap();
    let obs = sim.model_observation().unwrap();
    assert_eq!(obs.peak_payload_bits, 64);
    // Two nodes, one broadcast each to one neighbor, per active round.
    assert_eq!(obs.peak_round_msgs, 2);
    // on_start round + 4 active rounds (3 timed sends + replying to
    // the last delivery is idle, so: 2 starts + 2×3 timed = 8).
    assert_eq!(obs.total_msgs, 8);
}

#[test]
fn engine_without_accounting_reports_none() {
    let nodes = vec![Chatty { rounds_left: 1 }];
    let topology = ExplicitTopology::new(vec![vec![]]).unwrap();
    let mut sim = EventSim::new(nodes, topology, FaultPlan::reliable(1)).unwrap();
    sim.run_until_quiet(8).unwrap();
    assert!(sim.model_observation().is_none());
}

#[test]
fn budget_violation_is_a_typed_error_with_context() {
    // The error the robust runners raise when observation outgrows
    // the static bound; constructed directly since the real protocols
    // (by design, and as proven by lint rule M1) cannot trip it.
    let err = SimError::ModelBudgetExceeded {
        protocol: "RobustFloodNode",
        observed_bits: 136,
        bound_bits: RFLOOD_MSG_BITS,
    };
    let text = err.to_string();
    assert!(text.contains("RobustFloodNode"), "{text}");
    assert!(text.contains("136"), "{text}");
    assert!(text.contains("104"), "{text}");
    assert!(text.contains("lint.models.toml"), "{text}");
}
