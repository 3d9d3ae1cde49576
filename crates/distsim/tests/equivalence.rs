//! Event engine ≡ the retired synchronous fault harness, pinned
//! bit-for-bit.
//!
//! The fault-injected protocols used to run on a round-stepping
//! synchronous harness that stepped every robot every round. Before it
//! was deleted, its outputs over this matrix were recorded as golden
//! digests: the robust flood, hop field and boundary loop under
//! reliable, lossy, delaying, duplicating and churning plans; run to
//! convergence, stepped one round at a time, and stopped at round caps.
//! Per run the table holds the outcome (`ok` or the error text, which
//! carries the cap and the sorted pending list), every [`FaultStats`]
//! field, and an FNV-1a digest of the final node states (their
//! checkpoint encoding). The event engine must reproduce every row.

use anr_distsim::snapshot::{Persist, SnapshotWriter};
use anr_distsim::{
    DelayModel, EventSim, ExplicitTopology, FaultPlan, FaultStats, GridTopology, Node, SimError,
};
use anr_geom::Point;
use anr_netgraph::robust::{
    run_robust_boundary_loop, run_robust_flood_sum, run_robust_hop_field, RetransmitConfig,
    RobustBoundaryLoopNode, RobustFloodNode, RobustHopFieldNode,
};
use anr_netgraph::UnitDiskGraph;

/// `(run, outcome, [rounds, sent, delivered, dropped_loss,
/// dropped_crash, duplicated, delayed, crashes, recoveries], node
/// digest)`, as the synchronous harness produced them.
#[rustfmt::skip]
const GOLDEN: &[(&str, &str, [usize; 9], u64)] = &[
    ("flood/reliable/7", "ok", [7, 5424, 5424, 0, 0, 0, 0, 0, 0], 0x47007a8fb97ce69d),
    ("flood/nasty/1", "ok", [69, 5330, 5330, 2093, 0, 506, 3601, 0, 0], 0xc11bfa46c416cb26),
    ("flood/nasty/2", "ok", [63, 5254, 5254, 2049, 0, 414, 3524, 0, 0], 0xc11bfa46c416cb26),
    ("flood/nasty/3", "ok", [57, 5271, 5271, 2013, 0, 455, 3523, 0, 0], 0xc11bfa46c416cb26),
    ("flood/nasty/42", "ok", [54, 5314, 5314, 2030, 0, 506, 3542, 0, 0], 0xc11bfa46c416cb26),
    ("flood/nasty/99", "ok", [60, 5325, 5325, 2062, 0, 469, 3548, 0, 0], 0xc11bfa46c416cb26),
    ("flood/churn/11", "ok", [51, 1707, 1672, 643, 35, 154, 1116, 1, 1], 0xeb9dbbdfb55df70e),
    ("hop/reliable/5", "ok", [4, 156, 156, 0, 0, 0, 0, 0, 0], 0xa4aedfe276142d50),
    ("hop/churn/5", "ok", [24, 203, 193, 36, 10, 0, 0, 2, 2], 0xa4aedfe276142d50),
    ("hop/churn/17", "ok", [24, 204, 190, 36, 14, 0, 0, 2, 2], 0xa4aedfe276142d50),
    ("hop/nasty/1", "ok", [45, 336, 333, 132, 3, 39, 225, 1, 1], 0xa4aedfe276142d50),
    ("hop/nasty/2", "ok", [41, 299, 296, 132, 3, 24, 195, 1, 1], 0xa4aedfe276142d50),
    ("loop/reliable/3", "ok", [17, 32, 32, 0, 0, 0, 0, 0, 0], 0x116efd946a68360d),
    ("loop/loss/3", "ok", [49, 49, 49, 14, 0, 0, 0, 0, 0], 0x116efd946a68360d),
    ("loop/loss/21", "ok", [50, 39, 39, 15, 0, 0, 0, 0, 0], 0x116efd946a68360d),
    ("loop/nasty/4", "ok", [65, 71, 71, 27, 0, 7, 54, 1, 1], 0x116efd946a68360d),
    ("stepwise/flood/11", "ok", [40, 1697, 1659, 639, 35, 151, 1109, 1, 1], 0x75ae7882756cdc17),
    ("stepwise/hop/5", "ok", [40, 203, 193, 36, 10, 0, 0, 2, 2], 0xd8c9ccdfa3ab24de),
    ("stepwise/loop/3", "ok", [60, 45, 44, 28, 1, 4, 30, 1, 1], 0x5b996a856c570ba2),
    ("quiet-cap/flood/31", "protocol still active after 2 rounds (9 node(s) with messages in flight: [0, 1, 2, 3, 4, 5, 6, 7, 8])", [2, 40, 0, 0, 0, 0, 40, 0, 0], 0xb02beef65558afcf),
    ("quiet-cap/hop/8", "protocol still active after 6 rounds (8 node(s) with messages in flight: [1, 2, 6, 7, 8, 12, 13, 14])", [6, 24, 4, 5, 0, 4, 24, 0, 0], 0x8ee8c349c67c3ae3),
    ("until-cap/flood/13", "protocol still active after 2 rounds (4 node(s) with messages in flight: [0, 2, 3, 5])", [3, 204, 188, 0, 0, 0, 0, 0, 0], 0x196716575a094311),
    ("until-cap/loop/21", "protocol still active after 9 rounds (2 node(s) with messages in flight: [0, 4])", [9, 6, 4, 5, 0, 0, 0, 0, 0], 0x30a75ac41b1ee2e6),
];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(bytes: &[u8], mut hash: u64) -> u64 {
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn stats_row(s: &FaultStats) -> [usize; 9] {
    [
        s.rounds,
        s.sent,
        s.delivered,
        s.dropped_loss,
        s.dropped_crash,
        s.duplicated,
        s.delayed,
        s.crashes,
        s.recoveries,
    ]
}

fn node_digest<N: Persist>(nodes: &[N]) -> u64 {
    let mut w = SnapshotWriter::new();
    for n in nodes {
        n.persist(&mut w);
    }
    fnv(w.as_bytes(), FNV_OFFSET)
}

/// Asserts one run against its golden row.
fn check(run: &str, outcome: &Result<FaultStats, SimError>, stats: &FaultStats, digest: u64) {
    let &(_, want_outcome, want_stats, want_digest) = GOLDEN
        .iter()
        .find(|row| row.0 == run)
        .unwrap_or_else(|| panic!("no golden row for {run}"));
    let outcome = match outcome {
        Ok(_) => "ok".to_string(),
        Err(e) => e.to_string(),
    };
    assert_eq!(outcome, want_outcome, "{run}: outcome");
    assert_eq!(stats_row(stats), want_stats, "{run}: stats");
    assert_eq!(digest, want_digest, "{run}: node digest {digest:#018x}");
}

fn engine<N: Node>(
    nodes: Vec<N>,
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
) -> EventSim<N, ExplicitTopology> {
    let topology = ExplicitTopology::new(adjacency.to_vec()).expect("topology");
    EventSim::new(nodes, topology, plan).expect("construction")
}

/// The robust runners' shape: run until settled, then drain the tail.
fn settle_then_drain<N: Node + Persist>(
    run: &str,
    nodes: Vec<N>,
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    max_rounds: usize,
    settled: fn(&N) -> bool,
) -> FaultStats {
    let mut sim = engine(nodes, adjacency, plan);
    let outcome = match sim.run_until(max_rounds, |ns| ns.iter().all(settled)) {
        Ok(st) => sim.run_until_quiet(max_rounds.saturating_sub(st.rounds)),
        err => err,
    };
    check(run, &outcome, &sim.stats(), node_digest(sim.nodes()));
    sim.stats()
}

/// Single-round steps, folding every step's stats and node digest.
fn stepwise<N: Node + Persist>(
    run: &str,
    nodes: Vec<N>,
    adjacency: &[Vec<usize>],
    plan: FaultPlan,
    steps: usize,
) {
    let mut sim = engine(nodes, adjacency, plan);
    let mut hash = FNV_OFFSET;
    for _ in 0..steps {
        let stats = sim.run_rounds(1).expect("step");
        for v in stats_row(&stats) {
            hash = fnv(&(v as u64).to_le_bytes(), hash);
        }
        hash = fnv(&node_digest(sim.nodes()).to_le_bytes(), hash);
    }
    check(run, &Ok(sim.stats()), &sim.stats(), hash);
}

fn lattice(cols: usize, rows: usize, pitch: f64) -> Vec<Point> {
    (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * pitch, (i / cols) as f64 * pitch))
        .collect()
}

fn lattice_adjacency(cols: usize, rows: usize) -> Vec<Vec<usize>> {
    let pts = lattice(cols, rows, 55.0);
    UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec()
}

fn ring(n: usize) -> Vec<Vec<usize>> {
    (0..n).map(|i| vec![(i + n - 1) % n, (i + 1) % n]).collect()
}

fn nasty_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.3)
        .with_delay(DelayModel::Uniform { min: 0, max: 2 })
        .with_duplication(0.1)
}

fn churn_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.15)
        .with_crash(3, 7)
        .with_recovery(12, 7)
        .with_crash(0, 4)
        .with_recovery(9, 4)
}

fn flood_nodes(adjacency: &[Vec<usize>], values: &[f64]) -> Vec<RobustFloodNode> {
    let n = values.len();
    values
        .iter()
        .enumerate()
        .map(|(i, &v)| {
            RobustFloodNode::new(i, v, n, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect()
}

fn hop_nodes(adjacency: &[Vec<usize>], sources: &[bool]) -> Vec<RobustHopFieldNode> {
    sources
        .iter()
        .enumerate()
        .map(|(i, &s)| {
            RobustHopFieldNode::new(s, adjacency[i].clone(), RetransmitConfig::default())
        })
        .collect()
}

/// Boundary-loop nodes exactly as [`run_robust_boundary_loop`] builds
/// them.
fn loop_nodes(ids: &[usize]) -> Vec<RobustBoundaryLoopNode> {
    let n = ids.len();
    let cfg = RetransmitConfig::default();
    let initiator = (0..n).min_by_key(|&i| ids[i]).unwrap_or(0);
    let restart_after = (n + 2) * (cfg.interval + 1);
    (0..n)
        .map(|i| {
            RobustBoundaryLoopNode::new(i, i == initiator, (i + 1) % n, cfg, restart_after, 16)
        })
        .collect()
}

const LOOP_IDS: [usize; 8] = [9, 4, 11, 2, 7, 5, 13, 8];

#[test]
fn flood_sum_matches_sync_under_reliable_plan() {
    let adjacency = lattice_adjacency(6, 4);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64 * 1.5 + 1.0).collect();
    let plan = FaultPlan::reliable(7);
    let stats = settle_then_drain(
        "flood/reliable/7",
        flood_nodes(&adjacency, &values),
        &adjacency,
        plan.clone(),
        400,
        RobustFloodNode::is_settled,
    );
    // The runner takes the same path.
    let runner = run_robust_flood_sum(&values, &adjacency, plan, RetransmitConfig::default(), 400)
        .expect("runner converges");
    assert_eq!(runner.stats, stats);
}

#[test]
fn flood_sum_matches_sync_under_nasty_plan_across_seeds() {
    let adjacency = lattice_adjacency(5, 4);
    let values: Vec<f64> = (0..adjacency.len())
        .map(|i| (i * i) as f64 * 0.25)
        .collect();
    for seed in [1u64, 2, 3, 42, 99] {
        let stats = settle_then_drain(
            &format!("flood/nasty/{seed}"),
            flood_nodes(&adjacency, &values),
            &adjacency,
            nasty_plan(seed),
            2000,
            RobustFloodNode::is_settled,
        );
        let runner = run_robust_flood_sum(
            &values,
            &adjacency,
            nasty_plan(seed),
            RetransmitConfig::default(),
            2000,
        )
        .expect("runner converges");
        assert_eq!(runner.stats, stats, "runner, seed {seed}");
    }
    let adjacency = lattice_adjacency(4, 3);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    settle_then_drain(
        "flood/churn/11",
        flood_nodes(&adjacency, &values),
        &adjacency,
        nasty_plan(11).with_crash(4, 2).with_recovery(10, 2),
        2000,
        RobustFloodNode::is_settled,
    );
}

#[test]
fn hop_field_matches_sync_under_churn() {
    let adjacency = lattice_adjacency(6, 3);
    let n = adjacency.len();
    let sources: Vec<bool> = (0..n).map(|i| i == 0 || i == n - 1).collect();
    let cfg = RetransmitConfig::default();
    settle_then_drain(
        "hop/reliable/5",
        hop_nodes(&adjacency, &sources),
        &adjacency,
        FaultPlan::reliable(5),
        2000,
        RobustHopFieldNode::is_settled,
    );
    for seed in [5u64, 17] {
        let stats = settle_then_drain(
            &format!("hop/churn/{seed}"),
            hop_nodes(&adjacency, &sources),
            &adjacency,
            churn_plan(seed),
            2000,
            RobustHopFieldNode::is_settled,
        );
        let runner = run_robust_hop_field(&sources, &adjacency, churn_plan(seed), cfg, 2000)
            .expect("runner converges");
        assert_eq!(runner.stats, stats, "runner, seed {seed}");
    }
    for seed in [1u64, 2] {
        settle_then_drain(
            &format!("hop/nasty/{seed}"),
            hop_nodes(&adjacency, &sources),
            &adjacency,
            nasty_plan(seed).with_crash(2, 5).with_recovery(8, 5),
            2000,
            RobustHopFieldNode::is_settled,
        );
    }
}

#[test]
fn boundary_loop_matches_sync_under_loss() {
    let ring8 = ring(LOOP_IDS.len());
    let cfg = RetransmitConfig::default();
    settle_then_drain(
        "loop/reliable/3",
        loop_nodes(&LOOP_IDS),
        &ring8,
        FaultPlan::reliable(3),
        4000,
        RobustBoundaryLoopNode::is_settled,
    );
    for seed in [3u64, 21] {
        let plan = FaultPlan::reliable(seed).with_loss(0.2);
        let stats = settle_then_drain(
            &format!("loop/loss/{seed}"),
            loop_nodes(&LOOP_IDS),
            &ring8,
            plan.clone(),
            4000,
            RobustBoundaryLoopNode::is_settled,
        );
        let runner =
            run_robust_boundary_loop(&LOOP_IDS, plan, cfg, 4000).expect("runner converges");
        assert_eq!(runner.stats, stats, "runner, seed {seed}");
    }
    settle_then_drain(
        "loop/nasty/4",
        loop_nodes(&LOOP_IDS),
        &ring8,
        nasty_plan(4).with_crash(6, 3).with_recovery(20, 3),
        4000,
        RobustBoundaryLoopNode::is_settled,
    );
}

/// Step-level equivalence: every single-round step's statistics and
/// node states are folded into the digest, so the engine matches the
/// harness after every round, not just at the end.
#[test]
fn stepwise_states_match_sync() {
    let adjacency = lattice_adjacency(4, 3);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    stepwise(
        "stepwise/flood/11",
        flood_nodes(&adjacency, &values),
        &adjacency,
        nasty_plan(11).with_crash(4, 2).with_recovery(10, 2),
        40,
    );
    let adjacency = lattice_adjacency(6, 3);
    let n = adjacency.len();
    let sources: Vec<bool> = (0..n).map(|i| i == 0 || i == n - 1).collect();
    stepwise(
        "stepwise/hop/5",
        hop_nodes(&adjacency, &sources),
        &adjacency,
        churn_plan(5),
        40,
    );
    stepwise(
        "stepwise/loop/3",
        loop_nodes(&LOOP_IDS),
        &ring(LOOP_IDS.len()),
        nasty_plan(3).with_crash(0, 5).with_recovery(7, 5),
        60,
    );
}

/// The lazy grid topology and a prebuilt adjacency drive identical
/// runs, and the lazy one resolves only the rows it touches at most
/// once each.
#[test]
fn grid_topology_matches_explicit() {
    let pts = lattice(6, 4, 55.0);
    let adjacency = UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec();
    let n = pts.len();
    let values: Vec<f64> = (0..n).map(|i| i as f64 * 2.0).collect();
    let plan = nasty_plan(23);

    let mut sim_a = engine(flood_nodes(&adjacency, &values), &adjacency, plan.clone());
    let stats_a = sim_a
        .run_until(2000, |nodes| nodes.iter().all(RobustFloodNode::is_settled))
        .expect("explicit run");

    let topo_b = GridTopology::new(&pts, 80.0);
    let mut sim_b = EventSim::new(flood_nodes(&adjacency, &values), topo_b, plan).expect("grid");
    let stats_b = sim_b
        .run_until(2000, |nodes| nodes.iter().all(RobustFloodNode::is_settled))
        .expect("grid run");

    assert_eq!(stats_a, stats_b);
    assert_eq!(sim_a.nodes(), sim_b.nodes());
    assert!(sim_b.topology_mut().resolved_rows() <= n);
}

/// `NotQuiescent` parity: with deliveries still delayed past a short
/// quiet budget, the engine fails with the harness's cap, its sorted
/// pending-recipient list, and its elapsed rounds.
#[test]
fn not_quiescent_reports_match_sync() {
    let adjacency = lattice_adjacency(3, 3);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    let plan = FaultPlan::reliable(31).with_delay(DelayModel::Fixed(5));
    let mut sim = engine(flood_nodes(&adjacency, &values), &adjacency, plan);
    let outcome = sim.run_until_quiet(2);
    check(
        "quiet-cap/flood/31",
        &outcome,
        &sim.stats(),
        node_digest(sim.nodes()),
    );

    let adjacency = lattice_adjacency(6, 3);
    let sources: Vec<bool> = (0..adjacency.len()).map(|i| i == 0).collect();
    let plan = nasty_plan(8).with_delay(DelayModel::Fixed(3));
    let mut sim = engine(hop_nodes(&adjacency, &sources), &adjacency, plan);
    let outcome = sim.run_until_quiet(6);
    check(
        "quiet-cap/hop/8",
        &outcome,
        &sim.stats(),
        node_digest(sim.nodes()),
    );
}

/// `run_until` uses an absolute round cap, as the harness did: a cap
/// already behind the clock fails at once, and a cap reached before
/// convergence reports the pending recipients.
#[test]
fn run_until_cap_is_absolute_in_both_engines() {
    let adjacency = lattice_adjacency(3, 2);
    let values: Vec<f64> = (0..adjacency.len()).map(|i| i as f64).collect();
    let mut sim = engine(
        flood_nodes(&adjacency, &values),
        &adjacency,
        FaultPlan::reliable(13),
    );
    sim.run_rounds(3).expect("warmup");
    let outcome = sim.run_until(2, |_| false);
    check(
        "until-cap/flood/13",
        &outcome,
        &sim.stats(),
        node_digest(sim.nodes()),
    );

    let mut sim = engine(
        loop_nodes(&LOOP_IDS),
        &ring(LOOP_IDS.len()),
        FaultPlan::reliable(21).with_loss(0.2),
    );
    let outcome = sim.run_until(9, |ns| ns.iter().all(RobustBoundaryLoopNode::is_settled));
    check(
        "until-cap/loop/21",
        &outcome,
        &sim.stats(),
        node_digest(sim.nodes()),
    );
}
