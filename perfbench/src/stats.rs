//! Timing helpers: medians, repeated set-up, the pass loop, in-memory
//! spans, and the seeded generator the workloads draw their inputs from.

use crate::Outcome;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Median of `values` (mean of the middle two for an even count).
pub(crate) fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Reports `pass_s` and the slowest and fastest operation kind's median
/// (`slow_op_ms`, `fast_op_ms`) from per-pass and per-kind seconds.
pub(crate) fn report_passes(out: &mut Outcome, pass_s: &[f64], per_kind: &[Vec<f64>]) {
    eprintln!("pass seconds: {pass_s:.3?}");
    let medians: Vec<f64> = per_kind
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| median(t))
        .collect();
    let samples: Vec<usize> = per_kind.iter().map(Vec::len).collect();
    eprintln!(
        "operation kind medians (ms): {:.3?} over {samples:?} samples",
        medians.iter().map(|m| 1e3 * m).collect::<Vec<_>>()
    );
    out.metric("pass_s", median(pass_s));
    out.metric(
        "slow_op_ms",
        1e3 * medians.iter().copied().fold(f64::NAN, f64::max),
    );
    out.metric(
        "fast_op_ms",
        1e3 * medians.iter().copied().fold(f64::NAN, f64::min),
    );
}

/// Seconds elapsed since `start`.
pub(crate) fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` and returns its result with the wall seconds it took.
pub(crate) fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, secs(start))
}

/// Sets up [`SETUP_REPEATS`] times; returns the last set-up and the
/// median seconds.
pub(crate) fn repeated_setup<T, E>(mut setup: impl FnMut() -> Result<T, E>) -> Result<(T, f64), E> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (built, t) = timed(&mut setup);
        last = Some(built?);
        times.push(t);
    }
    let built = last.expect("SETUP_REPEATS is at least 1");
    Ok((built, median(&times)))
}

/// Fewest passes a run makes, so that a median never rests on one or two
/// passes when a pass is slow.
const MIN_PASSES: usize = 3;

/// Calls `pass(k)` for k = 0, 1, … until `run_for` has elapsed and at
/// least [`MIN_PASSES`] passes have run.
pub(crate) fn run_passes(run_for: Duration, mut pass: impl FnMut(usize)) {
    let start = Instant::now();
    let mut k = 0;
    while k < MIN_PASSES || start.elapsed() < run_for {
        pass(k);
        k += 1;
    }
}

/// Splitmix64: the workload input generator.
pub(crate) struct SplitMix(u64);

impl SplitMix {
    pub(crate) fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `0..n` (`n > 0`).
    pub(crate) fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a 64 over `bytes` — the digest the reference table stores.
pub(crate) fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Per-layer values of one pass, keyed by metric name.
pub(crate) type Layers = BTreeMap<&'static str, f64>;

/// Adds `value` to the per-layer metric `name`.
pub(crate) fn add(layers: &mut Layers, name: &'static str, value: f64) {
    *layers.entry(name).or_insert(0.0) += value;
}

/// Reports the median over passes of every per-layer metric, plus
/// `trace.overhead_frac` from the untraced and traced pass seconds.
pub(crate) fn report_layers(
    out: &mut Outcome,
    samples: &[Layers],
    plain_s: &[f64],
    traced_s: &[f64],
) {
    let mut names: Vec<&'static str> = samples.iter().flat_map(|l| l.keys().copied()).collect();
    names.sort_unstable();
    names.dedup();
    for name in names {
        let values: Vec<f64> = samples
            .iter()
            .filter_map(|l| l.get(name).copied())
            .collect();
        out.metric(name, median(&values));
    }
    out.metric(
        "trace.overhead_frac",
        median(traced_s) / median(plain_s) - 1.0,
    );
}

/// Times `f`, inside a span called `name` when `spans` is given.
pub(crate) fn op<T>(
    spans: Option<&mut Spans>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    match spans {
        Some(sp) => {
            sp.enter(name);
            let r = timed(f);
            sp.exit();
            r
        }
        None => timed(f),
    }
}

/// One recorded span: a call into a crate, timed from outside.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Duration,
    end: Duration,
}

/// In-memory span recorder. Spans are kept until the run ends and then
/// folded into per-name totals; nothing is written while timing.
pub(crate) struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub(crate) fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span; close it with [`Spans::exit`].
    pub(crate) fn enter(&mut self, name: &'static str) {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start: now,
            end: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    pub(crate) fn exit(&mut self) {
        let now = self.origin.elapsed();
        if let Some(i) = self.open.pop() {
            self.spans[i].end = now;
        }
    }

    /// Runs `f` inside a span called `name`.
    pub(crate) fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Milliseconds spent inside spans called `name`.
    pub(crate) fn total_ms(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end - s.start).as_secs_f64() * 1e3)
            .sum()
    }

    /// Prints the inclusive/self-time table of every span name.
    pub(crate) fn print_table(&self) {
        let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
        let mut child_ms = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ms[p] += (s.end - s.start).as_secs_f64() * 1e3;
            }
        }
        for (s, child) in self.spans.iter().zip(&child_ms) {
            let ms = (s.end - s.start).as_secs_f64() * 1e3;
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += ms;
            row.2 += ms - child;
        }
        eprintln!(
            "  {:<36} {:>6} {:>12} {:>12}",
            "span", "calls", "incl_ms", "self_ms"
        );
        for (name, (calls, incl, own)) in rows {
            eprintln!("  {name:<36} {calls:>6} {incl:>12.3} {own:>12.3}");
        }
    }
}
