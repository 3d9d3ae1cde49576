//! The pipeline bench reports exactly the spans the march opens.
//!
//! The stage rows of `anr bench` are a fold of `march_traced`'s own span
//! tree, so the expected rows are derived from a trace of the same
//! march, never from a hand-kept list; and the row set (paths and work
//! counters) must not depend on the worker count.

use anr_bench::{run_pipeline_bench, scenario_problem_sized, BenchOptions, PipelineBenchReport};
use anr_march::{march_traced, MarchConfig, Method};
use anr_trace::{TraceKind, Tracer};
use std::collections::{BTreeMap, BTreeSet};

fn smoke_report() -> PipelineBenchReport {
    run_pipeline_bench(&BenchOptions {
        smoke: true,
        repeats: 1,
        scale_tier: false,
    })
    .unwrap()
}

/// Every span path below `march` in one traced smoke march.
fn traced_paths() -> BTreeSet<String> {
    let problem = scenario_problem_sized(1, 10.0, 144).unwrap();
    let tracer = Tracer::ring(1 << 17);
    march_traced(
        &problem,
        Method::MaxStableLinks,
        &MarchConfig::default(),
        &tracer,
    )
    .unwrap();
    assert_eq!(tracer.dropped(), 0);
    let mut paths: BTreeMap<u64, String> = BTreeMap::new();
    let mut root = 0;
    for e in tracer.events() {
        if e.kind != TraceKind::SpanStart {
            continue;
        }
        if e.name == "march" && e.parent == 0 {
            root = e.span;
            continue;
        }
        let path = match paths.get(&e.parent) {
            Some(parent) => format!("{parent}/{}", e.name),
            None if e.parent == root => e.name.to_string(),
            None => continue,
        };
        paths.insert(e.span, path);
    }
    paths.into_values().collect()
}

#[test]
fn every_march_span_is_a_report_row() {
    let expected = traced_paths();
    if !Tracer::ring(1).is_enabled() {
        return; // anr-trace `off`: no spans, no rows.
    }
    assert!(expected.len() > 1, "{expected:?}");
    let report = smoke_report();
    let rows: BTreeSet<String> = report.scenarios[0]
        .stages
        .iter()
        .map(|r| r.path.clone())
        .collect();
    assert_eq!(rows, expected);
    let json = report.to_json();
    for path in &expected {
        assert!(
            json.contains(&format!("\"stage\": \"{path}\"")),
            "{path} not serialized"
        );
    }
}

#[test]
fn stage_rows_are_identical_at_1_and_4_workers() {
    let rows_at = |workers: &str| {
        std::env::set_var("ANR_WORKERS", workers);
        let report = smoke_report();
        std::env::remove_var("ANR_WORKERS");
        assert_eq!(report.workers.to_string(), workers);
        report.scenarios[0]
            .stages
            .iter()
            .map(|r| (r.path.clone(), r.calls(), r.counters.clone()))
            .collect::<Vec<_>>()
    };
    let serial = rows_at("1");
    assert_eq!(serial, rows_at("4"));
    if Tracer::ring(1).is_enabled() {
        assert!(
            serial.iter().any(|(_, _, counters)| !counters.is_empty()),
            "no work counters: {serial:?}"
        );
    }
}
