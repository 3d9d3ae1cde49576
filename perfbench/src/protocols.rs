//! The `protocols` workload: the fault sweep, the distributed objective
//! and the distributed harmonic map, driven through their public entry
//! points. A pass runs none of the march pipeline.

use crate::march::constant_density;
use crate::reference::PROTOCOLS;
use crate::stats::{
    add, digest, op, repeated_setup, report_layers, report_passes, run_passes, Layers, Spans,
    SplitMix,
};
use crate::{Options, Outcome};
use anr_distsim::FaultPlan;
use anr_geom::Point;
use anr_harmonic::{distributed_harmonic_map, fill_holes, FilledMesh};
use anr_march::{
    distributed_objective, distributed_objective_under_faults, march, optimal_coverage_positions,
    run_fault_sweep, FaultSweepReport, MarchConfig, MarchProblem, Method, SweepConfig,
    SweepProtocols,
};
use anr_netgraph::extract_triangulation;
use anr_scenarios::{build_scenario, ScenarioParams};

/// Robots of the flooding sweep, the objective and the harmonic map.
const SMALL_ROBOTS: usize = 144;
/// Robots of the hop-field-only sweep, at the paper's density.
const LARGE_ROBOTS: usize = 10_000;
/// Per-delivery loss of the faulty objective run.
const OBJECTIVE_LOSS: f64 = 0.1;
/// Seed variants with recorded reference outputs; every run cycles
/// through all of them.
const VARIANTS: u64 = 8;

/// Inputs shared by every pass.
struct Setup {
    range: f64,
    small: Vec<Point>,
    targets: Vec<Point>,
    filled: FilledMesh,
    large: Vec<Point>,
}

fn setup() -> Result<Setup, String> {
    let params = ScenarioParams {
        robots: SMALL_ROBOTS,
        separation_ranges: 10.0,
        ..Default::default()
    };
    let s = build_scenario(1, &params).map_err(|e| e.to_string())?;
    let problem = MarchProblem::with_lattice_deployment(s.m1, s.m2, s.robots, s.range)
        .map_err(|e| e.to_string())?;
    let plan = march(&problem, Method::MaxStableLinks, &MarchConfig::default())
        .map_err(|e| e.to_string())?;
    let mesh =
        extract_triangulation(&problem.positions, problem.range).map_err(|e| e.to_string())?;
    let filled = fill_holes(&mesh).map_err(|e| e.to_string())?;
    let (m1, _, _) = constant_density(1, LARGE_ROBOTS)?;
    let large = optimal_coverage_positions(&m1, LARGE_ROBOTS).ok_or("cannot deploy 10^4 robots")?;
    Ok(Setup {
        range: problem.range,
        small: problem.positions,
        targets: plan.mapped,
        filled,
        large,
    })
}

/// The seeds of one variant.
struct Seeds {
    variant: usize,
    sweep: u64,
    faults: u64,
}

fn seeds(variant: u64) -> Seeds {
    let mut rng = SplitMix::new(variant);
    Seeds {
        variant: variant as usize,
        sweep: rng.next_u64(),
        faults: rng.next_u64(),
    }
}

fn sweep_config(seed: u64, flooding: bool, hop_field: bool) -> SweepConfig {
    SweepConfig {
        seed,
        protocols: SweepProtocols {
            flooding,
            hop_field,
        },
        ..Default::default()
    }
}

fn same(what: &str, observed: u64, expected: u64) -> bool {
    if observed != expected {
        eprintln!("mismatch: {what} digest {observed:#018x}, expected {expected:#018x}");
    }
    observed == expected
}

fn failed(what: &str, e: impl std::fmt::Display) -> bool {
    eprintln!("{what} failed: {e}");
    false
}

/// What one pass produced, for the trace-mode cross-checks and counters.
#[derive(Default)]
struct Produced {
    sweeps: Vec<FaultSweepReport>,
    objective_msgs: usize,
    harmonic_rounds: usize,
}

/// The four protocol runs, each checked against the reference. With
/// `spans`, every call runs inside a span. Appends each run's seconds to
/// `per_kind` and returns the pass seconds.
fn pass(
    s: &Setup,
    seeds: &Seeds,
    out: &mut Outcome,
    per_kind: &mut [Vec<f64>; 4],
    mut spans: Option<&mut Spans>,
    produced: &mut Produced,
) -> f64 {
    let expect = &PROTOCOLS;
    let v = seeds.variant;

    // (1) Flooding + hop-field sweep over the default 12-cell grid.
    let (sweep, t1) = op(spans.as_deref_mut(), "run_fault_sweep", || {
        run_fault_sweep(&s.small, s.range, &sweep_config(seeds.sweep, true, true))
    });
    out.record(match &sweep {
        Ok(r) => same(
            "sweep (144)",
            digest(r.to_json().as_bytes()),
            expect.sweep_small[v],
        ),
        Err(e) => failed("sweep (144)", e),
    });

    // (2) Hop-field-only sweep at 10^4 robots.
    let (hop, t2) = op(spans.as_deref_mut(), "run_fault_sweep.large", || {
        run_fault_sweep(&s.large, s.range, &sweep_config(seeds.sweep, false, true))
    });
    out.record(match &hop {
        Ok(r) => same(
            "hop sweep (10^4)",
            digest(r.to_json().as_bytes()),
            expect.hop_large[v],
        ),
        Err(e) => failed("hop sweep (10^4)", e),
    });
    produced.sweeps.extend(sweep.into_iter().chain(hop));

    // (3) Objective agreement, reliable and under loss.
    let (reliable, t3a) = op(spans.as_deref_mut(), "distributed_objective", || {
        distributed_objective(&s.small, &s.targets, s.range)
    });
    let plan = FaultPlan::reliable(seeds.faults).with_loss(OBJECTIVE_LOSS);
    let (lossy, t3b) = op(
        spans.as_deref_mut(),
        "distributed_objective_under_faults",
        || distributed_objective_under_faults(&s.small, &s.targets, s.range, plan),
    );
    out.record(match (&reliable, &lossy) {
        (Ok(r), Ok(f)) => {
            produced.objective_msgs += r.messages + f.stats.sent;
            let r_digest = digest(
                format!(
                    "{} {} {} {}",
                    r.stable_link_ratio.to_bits(),
                    r.total_distance.to_bits(),
                    r.rounds,
                    r.messages
                )
                .as_bytes(),
            );
            let st = &f.stats;
            let f_digest = digest(
                format!(
                    "{} {} {} {} {} {} {} {}",
                    f.agreement,
                    f.stable_link_ratio.to_bits(),
                    f.total_distance.to_bits(),
                    f.rounds,
                    st.sent,
                    st.delivered,
                    st.dropped_loss,
                    st.rounds
                )
                .as_bytes(),
            );
            same("objective", r_digest, expect.objective)
                & same("objective under loss", f_digest, expect.objective_lossy[v])
        }
        (Err(e), _) => failed("objective", e),
        (_, Err(e)) => failed("objective under loss", e),
    });

    // (4) Distributed harmonic map of the filled triangulation.
    let (map, t4) = op(spans, "distributed_harmonic_map", || {
        distributed_harmonic_map(s.filled.mesh(), &Default::default())
    });
    out.record(match &map {
        Ok(m) => {
            produced.harmonic_rounds += m.rounds;
            let mut bytes = format!("{} {}", m.rounds, m.messages).into_bytes();
            for p in m.map.positions() {
                bytes.extend_from_slice(&p.x.to_bits().to_le_bytes());
                bytes.extend_from_slice(&p.y.to_bits().to_le_bytes());
            }
            same("distributed harmonic map", digest(&bytes), expect.harmonic)
        }
        Err(e) => failed("distributed harmonic map", e),
    });

    for (times, t) in per_kind.iter_mut().zip([t1, t2, t3a + t3b, t4]) {
        times.push(t);
    }
    t1 + t2 + t3a + t3b + t4
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup, setup_s) = repeated_setup(setup)?;
    let mut rng = SplitMix::new(opts.seed);
    let mut cycle: Vec<u64> = Vec::new();
    let mut out = Outcome::default();
    let mut per_kind: [Vec<f64>; 4] = Default::default();
    let mut pass_s = Vec::new();
    let mut samples = Vec::new();
    let mut traced_s = Vec::new();
    let mut last_spans = Spans::new();
    run_passes(opts.run_for, |k| {
        // Each run of eight passes covers every seed variant once, in an
        // order drawn from `--seed`, so a run's work does not hinge on one
        // variant's fault pattern.
        if cycle.is_empty() {
            cycle = (0..VARIANTS).collect();
            rng.shuffle(&mut cycle);
        }
        let seeds = seeds(cycle.pop().expect("the cycle was refilled above"));
        let plain = |out: &mut Outcome, per_kind: &mut [Vec<f64>; 4]| {
            pass(
                &setup,
                &seeds,
                out,
                per_kind,
                None,
                &mut Produced::default(),
            )
        };
        if !opts.trace {
            pass_s.push(plain(&mut out, &mut per_kind));
            return;
        }
        // Alternate which side runs first so neither always runs cold.
        if k % 2 == 0 {
            pass_s.push(plain(&mut out, &mut per_kind));
        }
        let mut spans = Spans::new();
        let mut traced = Produced::default();
        traced_s.push(pass(
            &setup,
            &seeds,
            &mut out,
            &mut per_kind,
            Some(&mut spans),
            &mut traced,
        ));
        if k % 2 == 1 {
            pass_s.push(plain(&mut out, &mut per_kind));
        }
        out.record(split_sweeps(&setup, &seeds, &traced, &mut spans));
        samples.push(layers(&spans, &traced));
        last_spans = spans;
    });
    if opts.trace {
        last_spans.print_table();
        report_layers(&mut out, &samples, &pass_s, &traced_s);
    } else {
        out.metric("setup_s", setup_s);
        report_passes(&mut out, &pass_s, &per_kind);
    }
    Ok(out)
}

/// Re-runs the 144-robot sweep one protocol at a time (for the flooding
/// and hop-field times) and checks each grid against the combined run.
fn split_sweeps(s: &Setup, seeds: &Seeds, traced: &Produced, spans: &mut Spans) -> bool {
    let Some(combined) = traced.sweeps.first() else {
        return false;
    };
    let flood = spans.call("run_fault_sweep.flooding", || {
        run_fault_sweep(&s.small, s.range, &sweep_config(seeds.sweep, true, false))
    });
    let hop = spans.call("run_fault_sweep.hop_field", || {
        run_fault_sweep(&s.small, s.range, &sweep_config(seeds.sweep, false, true))
    });
    match (flood, hop) {
        (Ok(f), Ok(h)) => {
            let split: Vec<_> = f.protocols.into_iter().chain(h.protocols).collect();
            let ok = split == combined.protocols;
            if !ok {
                eprintln!("mismatch: one-protocol sweeps differ from the combined sweep");
            }
            ok
        }
        (Err(e), _) | (_, Err(e)) => failed("one-protocol sweep", e),
    }
}

fn layers(spans: &Spans, produced: &Produced) -> Layers {
    let mut l = Layers::new();
    add(
        &mut l,
        "core.fault_sweep_flood_ms",
        spans.total_ms("run_fault_sweep.flooding"),
    );
    add(
        &mut l,
        "core.fault_sweep_hop_ms",
        spans.total_ms("run_fault_sweep.hop_field"),
    );
    add(
        &mut l,
        "core.fault_sweep_hop_ms",
        spans.total_ms("run_fault_sweep.large"),
    );
    let cells = produced
        .sweeps
        .iter()
        .flat_map(|r| &r.protocols)
        .flat_map(|g| &g.cells);
    let (mut n, mut converged, mut sent, mut rounds) = (0usize, 0usize, 0usize, 0usize);
    for c in cells {
        n += 1;
        converged += usize::from(c.converged);
        sent += c.sent;
        rounds += c.rounds;
    }
    let sweep_s =
        (spans.total_ms("run_fault_sweep") + spans.total_ms("run_fault_sweep.large")) / 1e3;
    add(&mut l, "distsim.msgs_sent", sent as f64);
    add(&mut l, "distsim.msgs_per_s", sent as f64 / sweep_s);
    add(&mut l, "distsim.rounds", rounds as f64);
    add(
        &mut l,
        "distsim.cells_converged_frac",
        converged as f64 / n.max(1) as f64,
    );
    add(
        &mut l,
        "core.objective_ms",
        spans.total_ms("distributed_objective")
            + spans.total_ms("distributed_objective_under_faults"),
    );
    add(
        &mut l,
        "core.objective_msgs",
        produced.objective_msgs as f64,
    );
    add(
        &mut l,
        "harmonic.distributed_ms",
        spans.total_ms("distributed_harmonic_map"),
    );
    add(
        &mut l,
        "harmonic.distributed_rounds",
        produced.harmonic_rounds as f64,
    );
    l
}
