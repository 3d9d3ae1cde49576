//! Tracing through the event engine: tracing is **observation only** —
//! a traced run is bit-identical to an untraced one — and the emitted
//! stream is pinned against the engine's own statistics.

use anr_distsim::{DelayModel, EventSim, ExplicitTopology, FaultPlan, FaultStats};
use anr_geom::Point;
use anr_netgraph::robust::{RetransmitConfig, RobustFloodNode};
use anr_netgraph::UnitDiskGraph;
use anr_trace::{TraceKind, TraceValue, Tracer};

fn lattice_adjacency(cols: usize, rows: usize) -> Vec<Vec<usize>> {
    let pts: Vec<Point> = (0..cols * rows)
        .map(|i| Point::new((i % cols) as f64 * 55.0, (i / cols) as f64 * 55.0))
        .collect();
    UnitDiskGraph::new(&pts, 80.0).adjacency().to_vec()
}

fn nasty_plan(seed: u64) -> FaultPlan {
    FaultPlan::reliable(seed)
        .with_loss(0.3)
        .with_delay(DelayModel::Uniform { min: 0, max: 2 })
        .with_duplication(0.1)
        .with_crash(4, 2)
        .with_recovery(11, 2)
}

/// Runs flooding for `rounds` rounds, optionally traced; returns the
/// stats, final nodes, and a snapshot for byte-level comparison.
fn run(tracer: Option<&Tracer>) -> (FaultStats, Vec<RobustFloodNode>, Vec<u8>) {
    let adjacency = lattice_adjacency(4, 3);
    let n = adjacency.len();
    let nodes: Vec<RobustFloodNode> = (0..n)
        .map(|i| {
            RobustFloodNode::new(
                i,
                i as f64 + 0.5,
                n,
                adjacency[i].clone(),
                RetransmitConfig::default(),
            )
        })
        .collect();
    let topology = ExplicitTopology::new(adjacency).expect("topology");
    let mut sim = EventSim::new(nodes, topology, nasty_plan(29)).expect("construction");
    if let Some(t) = tracer {
        sim = sim.with_tracer(t);
    }
    sim.run_rounds(30).expect("run");
    let stats = sim.stats();
    let bytes = sim.save();
    (stats, sim.into_nodes(), bytes)
}

#[test]
fn traced_run_is_observation_only() {
    let (s_plain, n_plain, b_plain) = run(None);
    let tracer = Tracer::ring(65_536);
    let (s_traced, n_traced, b_traced) = run(Some(&tracer));
    assert_eq!(s_plain, s_traced, "stats must not depend on tracing");
    assert_eq!(n_plain, n_traced, "node state must not depend on tracing");
    assert_eq!(
        b_plain, b_traced,
        "snapshot bytes must not depend on tracing"
    );
}

#[test]
fn trace_stream_matches_engine_statistics() {
    let tracer = Tracer::ring(65_536);
    let (stats, _, _) = run(Some(&tracer));
    let events = tracer.events();
    let count = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == TraceKind::Event && e.name == name)
            .count()
    };

    // Channel events: one msg_send per accepted copy, one msg_drop(reason=loss) per
    // lost offer, one msg_deliver per (round, recipient) carrying the
    // inbox size.
    assert_eq!(count("msg_send"), stats.sent);
    let losses = events
        .iter()
        .filter(|e| e.kind == TraceKind::Event && e.name == "msg_drop")
        .filter(|e| {
            matches!(
                e.fields.last(),
                Some(&("reason", TraceValue::Str(ref r))) if r == "loss"
            )
        })
        .count();
    assert_eq!(losses, stats.dropped_loss);
    let delivered: u64 = events
        .iter()
        .filter(|e| e.kind == TraceKind::Event && e.name == "msg_deliver")
        .map(|e| match e.fields[1] {
            ("count", TraceValue::U64(c)) => c,
            ref f => panic!("unexpected msg_deliver field {f:?}"),
        })
        .sum();
    assert_eq!(delivered as usize, stats.delivered);
    assert_eq!(count("robot_crash"), stats.crashes);
    assert_eq!(count("robot_recover"), stats.recoveries);
}

#[test]
fn engine_emits_queue_depth_histogram_and_event_counter() {
    let tracer = Tracer::ring(65_536);
    let (stats, _, _) = run(Some(&tracer));
    // Every delivery, churn event and robot step is an executed event.
    let executed = tracer.counter("events_executed");
    assert!(
        executed
            >= (stats.delivered + stats.dropped_crash + stats.crashes + stats.recoveries) as u64,
        "{executed} executed events for {stats:?}"
    );
    let hist = tracer.hist("queue_depth").expect("queue_depth samples");
    assert!(hist.count > 0, "one sample per executed round");
    assert!(
        hist.count <= stats.rounds as u64,
        "never more samples than rounds ({} > {})",
        hist.count,
        stats.rounds
    );
    assert!(hist.max >= hist.min && hist.min >= 0.0);
}

#[test]
fn checkpoint_spans_are_recorded() {
    let tracer = Tracer::ring(65_536);
    let (_, _, bytes) = run(Some(&tracer));
    let has_span = |name: &str| {
        tracer
            .events()
            .iter()
            .any(|e| e.kind == TraceKind::SpanEnd && e.name == name)
    };
    assert!(has_span("ckpt_write"), "save() must open a ckpt_write span");
    assert_eq!(tracer.counter("ckpt_bytes"), bytes.len() as u64);

    let topology = ExplicitTopology::new(lattice_adjacency(4, 3)).expect("topology");
    let restored =
        EventSim::<RobustFloodNode, _>::restore_traced(&bytes, topology, &tracer).expect("restore");
    assert!(
        has_span("ckpt_restore"),
        "restore_traced() must open a ckpt_restore span"
    );
    assert_eq!(restored.save(), bytes, "restored state is byte-identical");
}
