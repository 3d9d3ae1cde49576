//! Folding a wall-clock trace into a per-span-path table.
//!
//! [`crate::Tracer::fold_spans`] turns the spans under a root into one
//! [`SpanRow`] per path (`triangulate`, `harmonic_m2/foi_mesh`,
//! `metrics/audit.certify`): the wall duration of every call, plus the
//! counters emitted directly inside those spans. Bench reports are
//! built from these rows, so a trace and a bench report of the same run
//! agree by construction.

use crate::{TraceEvent, TraceKind, TraceValue};
use std::collections::BTreeMap;
use std::fmt;

/// Why a trace could not be folded into span rows.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FoldError {
    /// The tracer keeps no wall-clock durations
    /// ([`crate::TraceConfig::wall_clock`] is off).
    NoWallClock,
    /// The ring buffer evicted events, so some spans lost their start or
    /// end records.
    Dropped {
        /// Events evicted.
        events: u64,
    },
    /// A span at or below the root was opened but never closed.
    Unclosed {
        /// The span's name.
        name: &'static str,
        /// The span's id.
        span: u64,
    },
}

impl fmt::Display for FoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FoldError::NoWallClock => write!(f, "trace has no wall-clock span durations"),
            FoldError::Dropped { events } => {
                write!(
                    f,
                    "trace ring dropped {events} events; enlarge its capacity"
                )
            }
            FoldError::Unclosed { name, span } => {
                write!(f, "span `{name}` (id {span}) never ended")
            }
        }
    }
}

impl std::error::Error for FoldError {}

/// Every span at one path below a root, folded.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// The root's own name for the root row; below it, the span names
    /// from the root's child down, joined by `/`.
    pub path: String,
    /// Wall time of each call, milliseconds, ascending.
    durations_ms: Vec<f64>,
    /// Counter deltas emitted while one of these spans was the
    /// innermost open span, summed over all calls.
    pub counters: BTreeMap<&'static str, u64>,
}

impl SpanRow {
    /// A row of `path` with the given per-call wall times (any order)
    /// and no counters.
    #[must_use]
    pub fn new(path: impl Into<String>, mut durations_ms: Vec<f64>) -> SpanRow {
        durations_ms.sort_by(f64::total_cmp);
        SpanRow {
            path: path.into(),
            durations_ms,
            counters: BTreeMap::new(),
        }
    }

    /// Wall time of each call, milliseconds, ascending.
    #[must_use]
    pub fn durations_ms(&self) -> &[f64] {
        &self.durations_ms
    }

    /// Spans folded into this row.
    #[must_use]
    pub fn calls(&self) -> usize {
        self.durations_ms.len()
    }

    /// Fastest call, milliseconds.
    #[must_use]
    pub fn min_ms(&self) -> f64 {
        self.durations_ms.first().copied().unwrap_or(0.0)
    }

    /// Median call (mean of the middle two for an even count),
    /// milliseconds.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        let d = &self.durations_ms;
        match d.len() {
            0 => 0.0,
            n if n % 2 == 1 => d[n / 2],
            n => (d[n / 2 - 1] + d[n / 2]) / 2.0,
        }
    }

    /// Slowest call, milliseconds.
    #[must_use]
    pub fn max_ms(&self) -> f64 {
        self.durations_ms.last().copied().unwrap_or(0.0)
    }
}

fn u64_field(ev: &TraceEvent, key: &str) -> Option<u64> {
    ev.fields.iter().find_map(|(k, v)| match v {
        TraceValue::U64(x) if *k == key => Some(*x),
        _ => None,
    })
}

/// Folds `events` (oldest first) into rows under every span named
/// `root`. Rows come in the order their paths first opened, so the root
/// row is first whenever a root span was seen.
pub(crate) fn fold<'a>(
    events: impl Iterator<Item = &'a TraceEvent>,
    root: &str,
) -> Result<Vec<SpanRow>, FoldError> {
    let mut rows: Vec<SpanRow> = Vec::new();
    // Spans open at or below a root: id → (row, name, is a root span).
    let mut open: BTreeMap<u64, (usize, &'static str, bool)> = BTreeMap::new();
    for ev in events {
        match ev.kind {
            TraceKind::SpanStart => {
                let (path, is_root) = match open.get(&ev.parent) {
                    Some(&(_, _, true)) => (ev.name.to_string(), false),
                    Some(&(row, _, false)) => (format!("{}/{}", rows[row].path, ev.name), false),
                    None if ev.name == root => (root.to_string(), true),
                    None => continue,
                };
                let row = match rows.iter().position(|r| r.path == path) {
                    Some(row) => row,
                    None => {
                        rows.push(SpanRow::new(path, Vec::new()));
                        rows.len() - 1
                    }
                };
                open.insert(ev.span, (row, ev.name, is_root));
            }
            TraceKind::SpanEnd => {
                let Some((row, _, _)) = open.remove(&ev.span) else {
                    continue;
                };
                let Some(ns) = u64_field(ev, "dur_ns") else {
                    return Err(FoldError::NoWallClock);
                };
                rows[row].durations_ms.push(ns as f64 / 1e6);
            }
            TraceKind::Counter => {
                let Some(&(row, _, _)) = open.get(&ev.span) else {
                    continue;
                };
                *rows[row].counters.entry(ev.name).or_insert(0) +=
                    u64_field(ev, "delta").unwrap_or(0);
            }
            TraceKind::Event | TraceKind::Hist => {}
        }
    }
    if let Some((&span, &(_, name, _))) = open.iter().next() {
        return Err(FoldError::Unclosed { name, span });
    }
    for row in &mut rows {
        row.durations_ms.sort_by(f64::total_cmp);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn paths(rows: &[SpanRow]) -> Vec<&str> {
        rows.iter().map(|r| r.path.as_str()).collect()
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn nested_spans_fold_into_slash_paths() {
        let t = Tracer::wall(64);
        {
            let _outside = t.span("setup");
        }
        {
            let _root = t.span("march");
            {
                let _a = t.span("harmonic_m2");
                let _b = t.span("foi_mesh");
            }
            let _m = t.span("metrics");
            let _c = t.span("audit.certify");
        }
        let rows = t.fold_spans("march").unwrap();
        assert_eq!(
            paths(&rows),
            [
                "march",
                "harmonic_m2",
                "harmonic_m2/foi_mesh",
                "metrics",
                "metrics/audit.certify"
            ]
        );
        assert!(rows.iter().all(|r| r.calls() == 1));
        assert!(rows[0].min_ms() >= rows[1].max_ms());
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn repeated_roots_give_one_call_each() {
        let t = Tracer::wall(256);
        for _ in 0..5 {
            let _root = t.span("march");
            let _s = t.span("lloyd");
        }
        let rows = t.fold_spans("march").unwrap();
        assert_eq!(paths(&rows), ["march", "lloyd"]);
        for row in &rows {
            assert_eq!(row.calls(), 5);
            assert!(row.min_ms() <= row.median_ms() && row.median_ms() <= row.max_ms());
            assert!(row.durations_ms.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn counters_attach_to_the_innermost_span() {
        let t = Tracer::wall(64);
        t.counter_add("outside", 1);
        for _ in 0..2 {
            let _root = t.span("march");
            t.counter_add("top", 1);
            let _m = t.span("metrics");
            {
                let _c = t.span("audit.certify");
                t.counter_add("audit.tree_builds", 3);
            }
            t.counter_add("after", 2);
        }
        let rows = t.fold_spans("march").unwrap();
        let row = |p: &str| rows.iter().find(|r| r.path == p).unwrap();
        assert_eq!(row("march").counters, BTreeMap::from([("top", 2)]));
        assert_eq!(row("metrics").counters, BTreeMap::from([("after", 4)]));
        assert_eq!(
            row("metrics/audit.certify").counters,
            BTreeMap::from([("audit.tree_builds", 6)])
        );
    }

    #[test]
    fn disabled_tracer_folds_to_no_rows() {
        let t = Tracer::disabled();
        {
            let _root = t.span("march");
        }
        assert_eq!(t.fold_spans("march"), Ok(Vec::new()));
    }

    #[test]
    #[cfg(feature = "off")]
    fn off_tracer_folds_to_no_rows() {
        let t = Tracer::wall(64);
        {
            let _root = t.span("march");
        }
        assert_eq!(t.fold_spans("march"), Ok(Vec::new()));
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn dropped_events_are_an_error() {
        let t = Tracer::wall(3);
        {
            let _root = t.span("march");
            t.event("a", &[]);
            t.event("b", &[]);
        }
        assert_eq!(t.fold_spans("march"), Err(FoldError::Dropped { events: 1 }));
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn unclosed_spans_are_an_error() {
        let t = Tracer::wall(64);
        let root = t.span("march");
        let _open = t.span("lloyd");
        assert_eq!(
            t.fold_spans("march"),
            Err(FoldError::Unclosed {
                name: "march",
                span: root.id()
            })
        );
    }

    #[test]
    #[cfg(not(feature = "off"))]
    fn logical_clock_traces_are_an_error() {
        let t = Tracer::ring(64);
        {
            let _root = t.span("march");
        }
        assert_eq!(t.fold_spans("march"), Err(FoldError::NoWallClock));
    }
}
