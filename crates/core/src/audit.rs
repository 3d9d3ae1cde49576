//! Continuous-time invariant audit: exact link stability and global
//! connectivity over piecewise-linear motion (Definitions 1 and 2).
//!
//! The paper's definitions quantify over **every instant** `t ∈ [0, T]`.
//! For synchronized piecewise-linear motion the squared inter-robot
//! distance on one linear piece is a convex quadratic in the time
//! parameter,
//!
//! ```text
//! d²(τ) = ‖u + τ·w‖² = ‖w‖² τ² + 2(u·w) τ + ‖u‖²,
//! ```
//!
//! (`u` the relative position at the piece start, `w` the relative
//! displacement over the piece), so no sampling is ever needed. By
//! convexity, **a pair within range at rows `r` and `r + k` is within
//! range over the whole span between them**. The audit certifies with
//! that fact first and sweeps exactly only where it cannot:
//!
//! 1. **Lifetimes.** Every link in range at a row gets a *lifetime*: the
//!    number of following rows it stays in range at (`dx² + dy² ≤ r²`),
//!    hence the number of following pieces it stays up over. Robots'
//!    motion is measured in the *deviation frame* — each piece's mean
//!    displacement over all robots subtracted, since inter-robot
//!    distances ignore the common drift — and a per-robot deviation
//!    prefix bounds how fast a pair's distance can change, so a steady
//!    link gallops over whole runs of rows in `O(log)`.
//! 2. **Certificate.** Kruskal over those links, longest lifetime first,
//!    builds a maximum-bottleneck spanning tree. If it spans the swarm,
//!    every piece up to its shortest edge lifetime is connected at every
//!    instant: no roots, no events. The tree is rebuilt at the row where
//!    it expires; a marching swarm's tree typically lasts the whole
//!    timeline. A piece is certifiable iff the links in range at both of
//!    its rows span the swarm, whatever the tree, so later builds walk
//!    lifetimes only a bounded horizon ahead, and after repeated failed
//!    builds short runs of pieces go straight to the fallback.
//! 3. **`L`.** The links at row 0 are the initial links, and a link is
//!    preserved iff its lifetime reaches the last row, so `L` falls out of
//!    the first build. Only the broken links are walked exactly, for
//!    their first out-of-range interval (crossing roots) and maximum
//!    distance (attained at a row, by convexity).
//! 4. **Fallback.** A piece no spanning tree certifies is swept exactly.
//!    Candidate pairs come from a grid with a per-robot reach (how far the
//!    robot deviates over the piece), so one detouring robot does not
//!    widen the cutoff for every pair. The unit-disk edge set changes
//!    only at the roots of `d²(τ) = r²`, so one check instant inside each
//!    open interval between consecutive roots certifies the piece (at a
//!    root the edge set is a superset of both one-sided limits, because
//!    `d ≤ r` is closed, and a supergraph of a connected graph is
//!    connected). The checks run as an offline dynamic-connectivity
//!    divide-and-conquer over a rollback union-find.
//!
//! Lifetimes, violation walks and fallback pieces fan out over
//! [`anr_par`] and merge back in input order, so every result is
//! byte-identical at any worker count.
//!
//! [`audit_piecewise`] runs both checks over an explicit breakpoint
//! timeline; [`audit_trajectories`] derives that timeline from a
//! [`TrajectorySet`]'s own polyline waypoints. Violations are reported
//! with the offending link, the exact out-of-range interval, and the
//! maximum distance reached, and are mirrored as `anr-trace` events.

use crate::metrics::MetricsError;
use crate::trajectory::TrajectorySet;
use anr_geom::Point;
use anr_netgraph::{RollbackUnionFind, UnionFind, UnitDiskGraph};
use anr_trace::{TraceValue, Tracer};

/// An initial link that left communication range during the transition.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkViolation {
    /// The offending link `(i, j)`, `i < j`.
    pub link: (usize, usize),
    /// First maximal normalized-time interval during which the pair was
    /// out of range (exact roots of `d²(s) = r²`, not samples).
    pub interval: (f64, f64),
    /// Maximum distance the pair reached over the whole transition.
    pub max_distance: f64,
}

/// Result of a continuous-time audit.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Number of robots audited.
    pub robots: usize,
    /// Links of the initial unit-disk graph (denominator of `L`).
    pub initial_links: usize,
    /// Initial links within range at **every** instant.
    pub preserved_links: usize,
    /// Exact total stable link ratio `L` (1.0 when there are no links).
    pub stable_link_ratio: f64,
    /// 1 when the network was connected at every instant, else 0.
    pub global_connectivity: u8,
    /// Every broken initial link, with its exact violation interval.
    pub violations: Vec<LinkViolation>,
    /// Maximal normalized-time intervals during which the network was
    /// disconnected (empty iff `global_connectivity == 1`).
    pub disconnected_intervals: Vec<(f64, f64)>,
    /// Linear motion pieces audited (timeline rows − 1).
    pub pieces: usize,
    /// Pieces a spanning tree of links in range throughout certified
    /// connected, without the exact sweep.
    pub certified_pieces: usize,
    /// Connectivity checks performed: one per spanning-tree build, plus
    /// one per check instant of the exact fallback sweep (an open
    /// interval between consecutive range-crossing events of an
    /// uncertified piece). 1 for a single-row timeline.
    pub connectivity_checks: usize,
}

impl AuditReport {
    /// True when both invariants held: `C = 1` and no link violations.
    #[must_use]
    pub fn certified(&self) -> bool {
        self.global_connectivity == 1 && self.violations.is_empty()
    }
}

/// Audits a [`TrajectorySet`] continuously over `s ∈ [0, 1]`.
///
/// The breakpoint timeline is the union of every polyline's waypoint
/// instants, so each piece is exactly linear and the audit is exact.
///
/// # Errors
///
/// [`MetricsError`] on empty sets, non-positive range, or non-finite
/// positions.
pub fn audit_trajectories(
    set: &TrajectorySet,
    range: f64,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    let times = set.breakpoints();
    let rows: Vec<Vec<Point>> = times.iter().map(|&s| set.positions_at(s)).collect();
    audit_piecewise(&rows, &times, range, tracer)
}

/// Audits an explicit piecewise-linear timeline: `rows[k]` holds every
/// robot's position at normalized time `times[k]`, and every robot moves
/// **linearly** between consecutive rows (rows must therefore include
/// every trajectory breakpoint — see
/// [`TrajectorySet::breakpoints`]).
///
/// Emits `audit_violation` / `audit_disconnect` trace events and a
/// final `audit_summary` event, plus the phase spans described at
/// [`audit_piecewise_with_workers`].
///
/// Worker count: [`anr_par::default_workers`]. The result is
/// byte-identical at any worker count (see
/// [`audit_piecewise_with_workers`]).
///
/// # Errors
///
/// [`MetricsError`] on an empty or ragged timeline, mismatched or
/// non-monotonic `times`, non-positive `range`, or non-finite positions.
pub fn audit_piecewise(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    audit_piecewise_with_workers(rows, times, range, 0, tracer)
}

/// [`audit_piecewise`] with an explicit worker count (0 = auto).
///
/// Parallel fan-out happens over link chunks (lifetimes and violation
/// walks) and over uncertified pieces (the exact sweep). Each is merged
/// back in deterministic input order, so the report (and every trace
/// record) is byte-identical whatever `workers` is.
///
/// Each phase runs in a span carrying its work counters:
/// `audit.layout`; `audit.certify` (`audit.links_walked`,
/// `audit.tree_builds`, `audit.certified_pieces`); `audit.violations`
/// (`audit.broken_links`); `audit.fallback` (`audit.fallback_pieces`,
/// `audit.fallback_events`).
///
/// # Errors
///
/// See [`audit_piecewise`].
pub fn audit_piecewise_with_workers(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
    tracer: &Tracer,
) -> Result<AuditReport, MetricsError> {
    audit_traced(rows, times, range, workers, tracer, tracer)
}

/// The audit, with its report events (`audit_violation`,
/// `audit_disconnect`, `audit_summary`) sent to `log` and its phase
/// spans and work counters to `spans`.
pub(crate) fn audit_traced(
    rows: &[Vec<Point>],
    times: &[f64],
    range: f64,
    workers: usize,
    log: &Tracer,
    spans: &Tracer,
) -> Result<AuditReport, MetricsError> {
    validate(rows, times, range)?;
    let n = rows[0].len();

    let initial = UnitDiskGraph::new(&rows[0], range);
    let links = initial.links();
    let initial_links = links.len();

    let pieces = rows.len() - 1;

    if pieces == 0 {
        let t0 = times[0];
        // Single instant: connectivity of the one row, no motion.
        let mut disconnected_intervals = Vec::new();
        if !initial.is_connected() {
            disconnected_intervals.push((t0, t0));
            log.event(
                "audit_disconnect",
                &[("s_lo", TraceValue::F64(t0)), ("s_hi", TraceValue::F64(t0))],
            );
        }
        let stable_link_ratio = 1.0;
        let report = AuditReport {
            robots: n,
            initial_links,
            preserved_links: initial_links,
            stable_link_ratio,
            global_connectivity: u8::from(disconnected_intervals.is_empty()),
            violations: Vec::new(),
            disconnected_intervals,
            pieces: 0,
            certified_pieces: 0,
            connectivity_checks: 1,
        };
        trace_summary(log, &report);
        return Ok(report);
    }

    let layout = {
        let _s = spans.span("audit.layout");
        Layout::new(rows, times, range)
    };

    let cert = {
        let _s = spans.span("audit.certify");
        let cert = certify(&layout, &links, workers);
        spans.counter_add("audit.links_walked", cert.links_walked as u64);
        spans.counter_add("audit.tree_builds", cert.builds as u64);
        spans.counter_add(
            "audit.certified_pieces",
            (pieces - cert.uncertified.len()) as u64,
        );
        cert
    };

    // A link is preserved iff its lifetime from row 0 reaches the last
    // row; only the broken ones are walked exactly, in link order.
    let violations: Vec<LinkViolation> = {
        let _s = spans.span("audit.violations");
        let broken: Vec<(usize, usize)> = links
            .iter()
            .zip(&cert.initial_lifetimes)
            .filter(|&(_, &life)| life < pieces)
            .map(|(&link, _)| link)
            .collect();
        spans.counter_add("audit.broken_links", broken.len() as u64);
        anr_par::par_chunks(&broken, 256, workers, |chunk| {
            chunk
                .iter()
                .map(|&(i, j)| layout.violation(i, j))
                .collect::<Vec<_>>()
        })
        .concat()
    };

    let sweeps = {
        let _s = spans.span("audit.fallback");
        let sweeps = anr_par::par_map(&cert.uncertified, workers, |&k| layout.sweep_piece(k));
        spans.counter_add("audit.fallback_pieces", sweeps.len() as u64);
        spans.counter_add(
            "audit.fallback_events",
            sweeps.iter().map(|s| s.events).sum::<usize>() as u64,
        );
        sweeps
    };
    let mut disconnected_intervals: Vec<(f64, f64)> = Vec::new();
    for &iv in sweeps.iter().flat_map(|s| &s.disconnected) {
        merge_interval(&mut disconnected_intervals, iv);
    }
    for &(lo, hi) in &disconnected_intervals {
        log.event(
            "audit_disconnect",
            &[("s_lo", TraceValue::F64(lo)), ("s_hi", TraceValue::F64(hi))],
        );
    }
    for v in &violations {
        log.event(
            "audit_violation",
            &[
                ("i", TraceValue::U64(v.link.0 as u64)),
                ("j", TraceValue::U64(v.link.1 as u64)),
                ("s_lo", TraceValue::F64(v.interval.0)),
                ("s_hi", TraceValue::F64(v.interval.1)),
                ("max_distance", TraceValue::F64(v.max_distance)),
            ],
        );
    }

    let preserved_links = initial_links - violations.len();
    let stable_link_ratio = if initial_links == 0 {
        1.0
    } else {
        preserved_links as f64 / initial_links as f64
    };
    let report = AuditReport {
        robots: n,
        initial_links,
        preserved_links,
        stable_link_ratio,
        global_connectivity: u8::from(disconnected_intervals.is_empty()),
        violations,
        disconnected_intervals,
        pieces,
        certified_pieces: pieces - cert.uncertified.len(),
        connectivity_checks: cert.builds + sweeps.iter().map(|s| s.checks).sum::<usize>(),
    };
    trace_summary(log, &report);
    Ok(report)
}

fn trace_summary(tracer: &Tracer, report: &AuditReport) {
    tracer.event(
        "audit_summary",
        &[
            ("robots", TraceValue::U64(report.robots as u64)),
            (
                "initial_links",
                TraceValue::U64(report.initial_links as u64),
            ),
            (
                "violations",
                TraceValue::U64(report.violations.len() as u64),
            ),
            (
                "stable_link_ratio",
                TraceValue::F64(report.stable_link_ratio),
            ),
            (
                "global_connectivity",
                TraceValue::U64(u64::from(report.global_connectivity)),
            ),
            (
                "certified_pieces",
                TraceValue::U64(report.certified_pieces as u64),
            ),
            (
                "connectivity_checks",
                TraceValue::U64(report.connectivity_checks as u64),
            ),
        ],
    );
}

/// What the spanning-tree certificate settled.
struct Certificate {
    /// Lifetime from row 0 of each initial link, in link order.
    initial_lifetimes: Vec<usize>,
    /// Pieces no spanning tree certified, ascending.
    uncertified: Vec<usize>,
    /// Spanning-tree builds (one per row a build started at).
    builds: usize,
    /// Links whose lifetime was walked, summed over builds.
    links_walked: usize,
}

/// Certifies pieces with maximum-lifetime spanning trees. A build at row
/// `r` takes the links in range there, walks their lifetimes and runs
/// Kruskal; a spanning tree whose shortest edge lifetime is `k ≥ 1`
/// certifies pieces `r .. r + k`, and the next build starts at `r + k`.
/// Otherwise piece `r` is left to the exact sweep.
///
/// Piece `r` is certifiable iff the links in range at both its rows span
/// the swarm, so a walk only needs to reach as far as the tree can be
/// used. The first build walks whole lifetimes (`L` needs them); later
/// ones stop after twice the previous tree's lifetime, or after one row
/// following a failed build. Consecutive failures send a doubling run of
/// pieces (at most `MAX_SKIP`) straight to the exact sweep: in a
/// disconnected stretch a build costs more than the sweep it would
/// spare.
fn certify(layout: &Layout, initial_links: &[(usize, usize)], workers: usize) -> Certificate {
    /// Longest run of pieces a failed build hands to the exact sweep.
    const MAX_SKIP: usize = 16;
    let pieces = layout.nrows - 1;
    let mut horizon = pieces;
    let mut skip = 1;
    let no_reach = vec![0.0; layout.n];
    let mut cert = Certificate {
        initial_lifetimes: Vec::new(),
        uncertified: Vec::new(),
        builds: 0,
        links_walked: 0,
    };
    let mut r = 0;
    while r < pieces {
        let row_links = if r == 0 {
            initial_links.to_vec()
        } else {
            let mut v = Vec::new();
            for_each_pair_within(&layout.rows[r], &no_reach, layout.range, &mut |i, j| {
                v.push((i, j))
            });
            v
        };
        let until = r + horizon.min(pieces - r);
        let lifetimes = anr_par::par_chunks(&row_links, 2048, workers, |chunk| {
            chunk
                .iter()
                .map(|&(i, j)| layout.lifetime(i, j, r, until))
                .collect::<Vec<_>>()
        })
        .concat();
        cert.builds += 1;
        cert.links_walked += row_links.len();
        match bottleneck(layout.n, &row_links, &lifetimes, until - r) {
            Some(k) if k > 0 => {
                r += k;
                horizon = 2 * k;
                skip = 1;
            }
            _ => {
                let end = (r + skip).min(pieces);
                cert.uncertified.extend(r..end);
                r = end;
                horizon = 1;
                skip = (2 * skip).min(MAX_SKIP);
            }
        }
        if cert.builds == 1 {
            cert.initial_lifetimes = lifetimes;
        }
    }
    cert
}

/// Kruskal over `links`, longest `lifetimes` first: the smallest edge
/// lifetime of a maximum-bottleneck spanning tree (the same for every
/// such tree, so ties need no order), or `None` when the links do not
/// connect all `n` robots. Fewer than two robots are spanned by the
/// empty tree, which lasts the whole walked `horizon`.
fn bottleneck(
    n: usize,
    links: &[(usize, usize)],
    lifetimes: &[usize],
    horizon: usize,
) -> Option<usize> {
    let mut uf = UnionFind::new(n);
    if uf.num_sets() <= 1 {
        return Some(horizon);
    }
    let mut order: Vec<(usize, usize, usize)> = links
        .iter()
        .zip(lifetimes)
        .map(|(&(i, j), &life)| (life, i, j))
        .collect();
    order.sort_unstable_by_key(|&(life, _, _)| std::cmp::Reverse(life));
    order
        .into_iter()
        .find(|&(_, i, j)| uf.union(i, j) && uf.num_sets() == 1)
        .map(|(life, _, _)| life)
}

/// One uncertified piece's exact sweep.
struct PieceSweep {
    /// Check instants examined (open intervals between events).
    checks: usize,
    /// Distinct range-crossing events strictly inside the piece.
    events: usize,
    /// Disconnected open intervals, in time order.
    disconnected: Vec<(f64, f64)>,
}

/// A timeline plus a robot-major copy (`arr[i * nrows + r]`) of its
/// positions and deviation prefix, so a pair's walk down the rows reads
/// contiguous stripes.
struct Layout<'a> {
    rows: &'a [Vec<Point>],
    pos: Vec<Point>,
    times: &'a [f64],
    n: usize,
    nrows: usize,
    range: f64,
    r2: f64,
    /// Deviation prefix: the distance a robot moved relative to the
    /// swarm's mean motion, up to each row. A pair's distance changes by
    /// at most the sum of its two robots' deviations.
    cum: Vec<f64>,
    /// The swarm's mean displacement on each piece.
    mean: Vec<(f64, f64)>,
}

impl<'a> Layout<'a> {
    fn new(rows: &'a [Vec<Point>], times: &'a [f64], range: f64) -> Self {
        let (n, nrows) = (rows[0].len(), rows.len());
        let inv_n = 1.0 / n as f64;
        let mean: Vec<(f64, f64)> = rows
            .windows(2)
            .map(|w| {
                let (mut sx, mut sy) = (0.0f64, 0.0f64);
                for (p, q) in w[0].iter().zip(&w[1]) {
                    sx += q.x - p.x;
                    sy += q.y - p.y;
                }
                (sx * inv_n, sy * inv_n)
            })
            .collect();
        // Blocked transpose: a few robots at a time, so every row is read
        // in short contiguous runs and every stripe is written in order.
        const BLOCK: usize = 8;
        let mut pos = vec![Point::ORIGIN; n * nrows];
        let mut cum = vec![0.0f64; n * nrows];
        for i0 in (0..n).step_by(BLOCK) {
            let i1 = (i0 + BLOCK).min(n);
            for (r, row) in rows.iter().enumerate() {
                for (i, &p) in (i0..i1).zip(&row[i0..i1]) {
                    let at = i * nrows + r;
                    pos[at] = p;
                    if r > 0 {
                        let (mx, my) = mean[r - 1];
                        let prev = pos[at - 1];
                        let (dx, dy) = (p.x - prev.x - mx, p.y - prev.y - my);
                        cum[at] = cum[at - 1] + (dx * dx + dy * dy).sqrt();
                    }
                }
            }
        }
        Layout {
            rows,
            pos,
            times,
            n,
            nrows,
            range,
            r2: range * range,
            cum,
            mean,
        }
    }

    /// Relative position of robots `i` and `j` at row `r`.
    #[inline]
    fn rel(&self, i: usize, j: usize, r: usize) -> (f64, f64) {
        let (p, q) = (self.pos[i * self.nrows + r], self.pos[j * self.nrows + r]);
        (p.x - q.x, p.y - q.y)
    }

    /// How far the pair's distance at row `r` is from the range circle,
    /// less a small relative margin so a rounding wobble in the bound can
    /// never skip over a genuine grazing crossing.
    #[inline]
    fn gap(&self, (dx, dy): (f64, f64)) -> f64 {
        let dist = (dx * dx + dy * dy).sqrt();
        (dist - self.range).abs() - 1e-9 * (dist + self.range)
    }

    /// The farthest row `q` in `r..=last` up to which the pair's combined
    /// deviation since row `r` stays below `gap` (gallop, then bisect —
    /// the bound is monotone). Its distance cannot cross the range circle
    /// on the rows between.
    fn safe_until(&self, i: usize, j: usize, r: usize, gap: f64, last: usize) -> usize {
        let (bi, bj) = (i * self.nrows, j * self.nrows);
        let dev = |q: usize| self.cum[bi + q] + self.cum[bj + q];
        let c0 = dev(r);
        let within = |q: usize| dev(q) - c0 < gap;
        if r == last || !within(r + 1) {
            return r;
        }
        let mut q = r + 1;
        let mut step = 1usize;
        while q + step <= last && within(q + step) {
            q += step;
            step *= 2;
        }
        let mut hi = (q + step).min(last);
        while q < hi {
            let m = q + (hi - q).div_ceil(2);
            if within(m) {
                q = m;
            } else {
                hi = m - 1;
            }
        }
        q
    }

    /// Lifetime of link `(i, j)`, in range at row `r`: how many of the
    /// following rows up to `until` it stays in range at, consecutively.
    fn lifetime(&self, i: usize, j: usize, r: usize, until: usize) -> usize {
        let mut q = r;
        while q < until {
            let far = self.safe_until(i, j, q, self.gap(self.rel(i, j, q)), until);
            if far > q {
                q = far;
                continue;
            }
            let (dx, dy) = self.rel(i, j, q + 1);
            if dx * dx + dy * dy > self.r2 {
                break;
            }
            q += 1;
        }
        q - r
    }

    /// The exact violation record of initial link `(i, j)`, known to
    /// leave range: its in-range spans from the crossing roots, piece by
    /// piece (skipping runs it provably stays inside), give the first
    /// out-of-range interval; `d` is convex per piece, so the maximum
    /// over the rows is the exact maximum over all time.
    fn violation(&self, i: usize, j: usize) -> LinkViolation {
        let npieces = self.nrows - 1;
        let (t0, t1) = (self.times[0], self.times[npieces]);
        let mut spans: Vec<(f64, f64)> = Vec::new();
        let mut prev_in = true;
        let mut open = Some(t0);
        let mut r = 0usize;
        while r < npieces {
            let (ux, uy) = self.rel(i, j, r);
            let skip = self.safe_until(i, j, r, self.gap((ux, uy)), npieces);
            if skip > r {
                r = skip;
                continue;
            }
            let (vx, vy) = self.rel(i, j, r + 1);
            let iv = in_range_interval((ux, uy), (vx - ux, vy - uy), self.r2);
            let piece_lo = self.times[r];
            let span_w = self.times[r + 1] - piece_lo;
            // A status flip exactly at the row instant has no interior root.
            let in_start = matches!(iv, Some((lo, _)) if lo == 0.0);
            if in_start != prev_in {
                if prev_in {
                    spans.push((open.take().unwrap_or(piece_lo), piece_lo));
                } else {
                    open = Some(piece_lo);
                }
            }
            match iv {
                None => prev_in = false,
                Some((lo, hi)) => {
                    if lo > 0.0 {
                        open = Some(piece_lo + lo * span_w);
                    }
                    if hi < 1.0 {
                        spans.push((open.take().unwrap_or(piece_lo), piece_lo + hi * span_w));
                        prev_in = false;
                    } else {
                        prev_in = true;
                    }
                }
            }
            r += 1;
        }
        if let Some(s0) = open {
            spans.push((s0, t1));
        }
        let mut m = 0.0f64;
        for r in 0..self.nrows {
            let (dx, dy) = self.rel(i, j, r);
            m = m.max(dx * dx + dy * dy);
        }
        LinkViolation {
            link: (i, j),
            interval: first_out_from_spans(&spans, t0, t1),
            max_distance: m.sqrt(),
        }
    }

    /// The exact sweep of piece `k`: every pair that can come within
    /// range, its in-range interval from the roots, and one connectivity
    /// check per open interval between consecutive roots.
    fn sweep_piece(&self, k: usize) -> PieceSweep {
        let (piece_lo, piece_hi) = (self.times[k], self.times[k + 1]);
        let span_w = piece_hi - piece_lo;
        let (mx, my) = self.mean[k];
        // A robot's reach: its deviation from the mean motion over the
        // piece, plus a margin against rounding in the cutoff.
        let (start, end) = (&self.rows[k], &self.rows[k + 1]);
        let reach: Vec<f64> = start
            .iter()
            .zip(end)
            .map(|(p, q)| {
                let (dx, dy) = (q.x - p.x - mx, q.y - p.y - my);
                (dx * dx + dy * dy).sqrt() + 1e-9 * self.range
            })
            .collect();
        let mut events: Vec<f64> = Vec::new();
        let mut spans: Vec<(u32, u32, f64, f64)> = Vec::new();
        for_each_pair_within(start, &reach, self.range, &mut |i, j| {
            let (ux, uy) = self.rel(i, j, k);
            let (vx, vy) = self.rel(i, j, k + 1);
            if let Some((lo, hi)) = in_range_interval((ux, uy), (vx - ux, vy - uy), self.r2) {
                let mut at = |tau: f64, bound: f64| {
                    if tau > 0.0 && tau < 1.0 {
                        let e = piece_lo + tau * span_w;
                        events.push(e);
                        e
                    } else {
                        bound
                    }
                };
                let s_lo = at(lo, piece_lo);
                let s_hi = at(hi, piece_hi);
                spans.push((i as u32, j as u32, s_lo, s_hi));
            }
        });
        events.retain(|&e| e > piece_lo && e < piece_hi);
        events.sort_by(f64::total_cmp);
        events.dedup_by(|x, y| (*x - *y).abs() < 1e-12);

        let bound = |b: usize| -> f64 {
            match b {
                0 => piece_lo,
                b if b > events.len() => piece_hi,
                b => events[b - 1],
            }
        };
        let mids: Vec<f64> = (0..=events.len())
            .map(|b| 0.5 * (bound(b) + bound(b + 1)))
            .collect();
        let leaf_spans: Vec<(u32, u32, u32, u32)> = spans
            .iter()
            .filter_map(|&(i, j, elo, ehi)| {
                let a = mids.partition_point(|&m| m < elo);
                let b = mids.partition_point(|&m| m <= ehi);
                (a < b).then(|| (i, j, a as u32, (b - 1) as u32))
            })
            .collect();
        let mut bad = Vec::new();
        let mut uf = RollbackUnionFind::new(self.n);
        disconnected_leaves(0, mids.len() - 1, &leaf_spans, &mut uf, &mut bad);
        let mut disconnected = Vec::new();
        for b in bad {
            merge_interval(&mut disconnected, (bound(b), bound(b + 1)));
        }
        PieceSweep {
            checks: mids.len(),
            events: events.len(),
            disconnected,
        }
    }
}

/// The closed sub-interval of piece-local time `τ ∈ [0, 1]` on which a
/// pair at relative position `u` at the piece start, displaced by `w`
/// over the piece, is within range: `d²(τ) ≤ r²` holds between the
/// roots of the convex quadratic. `None` when it never is.
fn in_range_interval((ux, uy): (f64, f64), (wx, wy): (f64, f64), r2: f64) -> Option<(f64, f64)> {
    let (qa, qb, qc) = (wx * wx + wy * wy, ux * wx + uy * wy, ux * ux + uy * uy - r2);
    let disc = qb * qb - qa * qc;
    if qa <= 0.0 || disc <= 0.0 {
        return (qc <= 0.0).then_some((0.0, 1.0));
    }
    let sq = disc.sqrt();
    let (root1, root2) = ((-qb - sq) / qa, (-qb + sq) / qa);
    let (lo, hi) = (root1.max(0.0), root2.min(1.0));
    (root2 > 0.0 && root1 < 1.0 && hi > lo).then_some((lo, hi))
}

/// First maximal out-of-range interval of a link given its in-range
/// spans over `[t0, t1]` (time-sorted): the complement's first run,
/// with in-range gaps ≤ 1e-12 bridged. Degenerate `(t0, t0)` when the
/// link only grazes out of range at isolated instants.
fn first_out_from_spans(in_spans: &[(f64, f64)], t0: f64, t1: f64) -> (f64, f64) {
    let mut outs: Vec<(f64, f64)> = Vec::new();
    let mut cursor = t0;
    for &(lo, hi) in in_spans {
        if lo > cursor {
            outs.push((cursor, lo));
        }
        cursor = cursor.max(hi);
    }
    if cursor < t1 {
        outs.push((cursor, t1));
    }
    let mut it = outs.into_iter();
    let Some((start, mut end)) = it.next() else {
        return (t0, t0);
    };
    for (lo, hi) in it {
        if lo <= end + 1e-12 {
            end = end.max(hi);
        } else {
            break;
        }
    }
    (start, end)
}

fn validate(rows: &[Vec<Point>], times: &[f64], range: f64) -> Result<(), MetricsError> {
    if range.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
        return Err(MetricsError::NonPositiveRange { range });
    }
    if rows.is_empty() {
        return Err(MetricsError::EmptyTimeline);
    }
    if times.len() != rows.len() {
        return Err(MetricsError::LengthMismatch {
            expected: rows.len(),
            got: times.len(),
        });
    }
    let n = rows[0].len();
    for (k, row) in rows.iter().enumerate() {
        if row.len() != n {
            return Err(MetricsError::RaggedTimeline {
                row: k,
                got: row.len(),
                expected: n,
            });
        }
        if let Some(robot) = row.iter().position(|p| !p.is_finite()) {
            return Err(MetricsError::NonFinitePosition { row: k, robot });
        }
    }
    if let Some(idx) = times
        .windows(2)
        .position(|w| w[1].partial_cmp(&w[0]) != Some(std::cmp::Ordering::Greater))
    {
        return Err(MetricsError::NonMonotonicTimes { index: idx + 1 });
    }
    if times.iter().any(|t| !t.is_finite()) {
        return Err(MetricsError::NonMonotonicTimes { index: 0 });
    }
    Ok(())
}

/// Calls `f(i, j)` (with `i < j`) exactly once for every pair of points
/// with `‖pᵢ − pⱼ‖ ≤ range + reach[i] + reach[j]`, in a deterministic
/// order. Uniform grid (points sorted by cell) with cells sized for the
/// median reach; each pair is found from its robot with the larger
/// `(reach, index)`, whose search square of half-width `range + 2·reach`
/// covers it, so one far-reaching robot widens only its own search.
/// `O(n log n + pairs)` instead of `O(n²)` while reaches stay bounded.
fn for_each_pair_within(
    points: &[Point],
    reach: &[f64],
    range: f64,
    f: &mut impl FnMut(usize, usize),
) {
    if points.len() < 2 {
        return;
    }
    let mut sorted = reach.to_vec();
    let mid = sorted.len() / 2;
    let (_, &mut median, _) = sorted.select_nth_unstable_by(mid, f64::total_cmp);
    let cell = range + 2.0 * median;
    let inv = 1.0 / cell;
    let key = |p: Point| ((p.x * inv).floor() as i64, (p.y * inv).floor() as i64);
    let mut cells: Vec<((i64, i64), u32)> = points
        .iter()
        .enumerate()
        .map(|(k, &p)| (key(p), k as u32))
        .collect();
    cells.sort_unstable();
    let (x_min, x_max) = (cells[0].0 .0, cells[cells.len() - 1].0 .0);
    for (i, &p) in points.iter().enumerate() {
        let (cx, cy) = key(p);
        let span = range + 2.0 * reach[i];
        let ext = if span <= cell {
            1
        } else {
            (span * inv).ceil() as i64
        };
        let (ylo, yhi) = (cy.saturating_sub(ext), cy.saturating_add(ext));
        for x in cx.saturating_sub(ext).max(x_min)..=cx.saturating_add(ext).min(x_max) {
            let from = cells.partition_point(|&(c, _)| c < (x, ylo));
            for &(_, j) in cells[from..].iter().take_while(|&&(c, _)| c <= (x, yhi)) {
                let j = j as usize;
                if reach[j] < reach[i] || (reach[j] == reach[i] && j < i) {
                    let cutoff = range + reach[i] + reach[j];
                    if p.distance_sq(points[j]) <= cutoff * cutoff {
                        f(j.min(i), j.max(i));
                    }
                }
            }
        }
    }
}

/// Offline dynamic connectivity over the interval axis `[k_lo, k_hi]`:
/// an edge whose interval run covers the whole node is unioned once
/// here; the rest are handed to whichever children they overlap. Each
/// leaf is one open interval between consecutive edge-set change
/// events — its index is pushed to `out` when the graph there is
/// disconnected. Leaves are visited left to right, so `out` stays
/// sorted. Unions are rolled back on exit, so each edge costs
/// `O(log E)` unions overall instead of one scan per interval.
fn disconnected_leaves(
    k_lo: usize,
    k_hi: usize,
    spans: &[(u32, u32, u32, u32)],
    uf: &mut RollbackUnionFind,
    out: &mut Vec<usize>,
) {
    let mark = uf.checkpoint();
    if k_lo == k_hi {
        for &(i, j, _, _) in spans {
            uf.union(i as usize, j as usize);
        }
        if uf.num_sets() != 1 {
            out.push(k_lo);
        }
        uf.rollback(mark);
        return;
    }
    let mid = k_lo + (k_hi - k_lo) / 2;
    let mut left = Vec::new();
    let mut right = Vec::new();
    for &(i, j, a, b) in spans {
        if a as usize <= k_lo && k_hi <= b as usize {
            uf.union(i as usize, j as usize);
        } else {
            if a as usize <= mid {
                left.push((i, j, a, b));
            }
            if b as usize > mid {
                right.push((i, j, a, b));
            }
        }
    }
    // Covering edges alone connect the graph ⇒ every leaf below is
    // connected; prune the subtree.
    if uf.num_sets() == 1 {
        uf.rollback(mark);
        return;
    }
    disconnected_leaves(k_lo, mid, &left, uf, out);
    disconnected_leaves(mid + 1, k_hi, &right, uf, out);
    uf.rollback(mark);
}

/// Appends `iv` to `list`, merging with the previous interval when they
/// touch (intervals arrive in increasing order).
fn merge_interval(list: &mut Vec<(f64, f64)>, iv: (f64, f64)) {
    if let Some(last) = list.last_mut() {
        if iv.0 <= last.1 + 1e-12 {
            last.1 = last.1.max(iv.1);
            return;
        }
    }
    list.push(iv);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trajectory::Polyline;

    fn p(x: f64, y: f64) -> Point {
        Point::new(x, y)
    }

    #[test]
    fn pair_grid_reports_exactly_the_pairs_within_reach() {
        // Deterministic scatter; the grid must report every pair within
        // `range + reach_i + reach_j`, nothing farther, and never repeat
        // one — with uniform, spread and one far-reaching outlier reach.
        let mut seed = 0xdead_beef_u64;
        let mut next = move || {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            (seed >> 33) as f64 / (1u64 << 31) as f64
        };
        let pts: Vec<Point> = (0..200)
            .map(|_| p(next() * 900.0 - 450.0, next() * 900.0 - 450.0))
            .collect();
        let spread: Vec<f64> = (0..pts.len()).map(|_| next() * 30.0).collect();
        let mut outlier = vec![0.0; pts.len()];
        outlier[17] = 600.0;
        for range in [40.0, 120.0, 2000.0] {
            for reach in [&vec![0.0; pts.len()], &spread, &outlier] {
                let mut got: Vec<(usize, usize)> = Vec::new();
                for_each_pair_within(&pts, reach, range, &mut |i, j| {
                    assert!(i < j);
                    got.push((i, j));
                });
                got.sort_unstable();
                let mut want = Vec::new();
                for i in 0..pts.len() {
                    for j in (i + 1)..pts.len() {
                        if pts[i].distance(pts[j]) <= range + reach[i] + reach[j] {
                            want.push((i, j));
                        }
                    }
                }
                assert_eq!(got, want, "range {range}");
            }
        }
    }

    /// Rigid motion is certified by one spanning-tree build, with no
    /// exact sweep at all.
    #[test]
    fn rigid_motion_is_certified_by_one_tree() {
        let n = 70;
        let polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let x = i as f64 * 50.0;
                Polyline::new(vec![p(x, 0.0), p(x + 150.0, 90.0), p(x + 300.0, 40.0)])
            })
            .collect();
        let set = TrajectorySet::new(polys);
        let times = set.sample_times_with_breakpoints(20);
        let rows = set.sample_at(&times);
        let r = audit_piecewise(&rows, &times, 80.0, &Tracer::disabled()).unwrap();
        assert!(r.certified());
        assert_eq!(r.certified_pieces, r.pieces);
        assert_eq!(r.connectivity_checks, 1);
    }

    /// Two stationary 34-robot chains 140 apart, bridged by two relays
    /// handing over on the middle one of three pieces: rows 0–1 hold the
    /// `start` relay positions, rows 2–3 the `end` ones.
    fn relay_handover(start: [Point; 2], end: [Point; 2]) -> Vec<Vec<Point>> {
        let row = |relays: [Point; 2]| -> Vec<Point> {
            let mut v: Vec<Point> = (0..34).map(|k| p(-50.0 * k as f64, 0.0)).collect();
            v.extend((0..34).map(|k| p(140.0 + 50.0 * k as f64, 0.0)));
            v.extend(relays);
            v
        };
        vec![row(start), row(start), row(end), row(end)]
    }

    /// Each relay bridges the chains on only part of the middle piece,
    /// so no spanning tree of links stays up over it: the exact sweep
    /// must settle that piece. Rising relays overlap (connected
    /// throughout); sliding relays do not (partition mid-piece).
    #[test]
    fn uncertifiable_piece_falls_back_to_the_exact_sweep() {
        let times = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0];
        let rising = relay_handover(
            [p(70.0, 0.0), p(70.0, -45.0)],
            [p(70.0, 45.0), p(70.0, 0.0)],
        );
        let r = audit_piecewise(&rising, &times, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 1);
        assert_eq!((r.pieces, r.certified_pieces), (3, 2));
        // Relay 1 leaves both chains.
        assert_eq!(r.violations.len(), 2);

        let sliding = relay_handover(
            [p(70.0, 10.0), p(-70.0, 10.0)],
            [p(210.0, 10.0), p(70.0, 10.0)],
        );
        let r = audit_piecewise(&sliding, &times, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert_eq!((r.pieces, r.certified_pieces), (3, 2));
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        assert!(times[1] < lo && lo < hi && hi < times[2], "({lo}, {hi})");
    }

    /// A long disconnected stretch: a second chain approaches from far
    /// away and docks 40 m above the first, then everything rests. The
    /// approach pieces cannot be certified (several failed builds in a
    /// row hand whole runs to the exact sweep), the resting ones can, and
    /// the partition must end exactly where the chains first come into
    /// range.
    #[test]
    fn long_disconnected_stretch_is_swept_exactly() {
        let chain = |y: f64| -> Vec<Point> {
            let mut v: Vec<Point> = (0..35).map(|k| p(-50.0 * k as f64, 0.0)).collect();
            v.extend((0..35).map(|k| p(-50.0 * k as f64, y)));
            v
        };
        let (approach, rest) = (30, 10);
        let rows: Vec<Vec<Point>> = (0..=approach + rest)
            .map(|k| chain(1040.0 - 1000.0 * (k.min(approach) as f64 / approach as f64)))
            .collect();
        let times: Vec<f64> = (0..rows.len())
            .map(|k| k as f64 / (rows.len() - 1) as f64)
            .collect();
        let r = audit_piecewise(&rows, &times, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert!(r.certified_pieces > 0 && r.certified_pieces < r.pieces);
        // In range once y ≤ 80: 1040 − 1000·s = 80 ⇒ s = 0.96 of the
        // approach, which spans the first 30 of 40 pieces.
        let docked = 0.96 * approach as f64 / (approach + rest) as f64;
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        assert_eq!(lo, 0.0);
        assert!((hi - docked).abs() < 1e-9, "hi = {hi}, expected {docked}");
    }

    /// The phase spans and work counters are part of the deterministic
    /// trace: byte-identical at every worker count.
    #[test]
    fn phase_trace_is_identical_across_workers() {
        let rows = relay_handover(
            [p(70.0, 10.0), p(-70.0, 10.0)],
            [p(210.0, 10.0), p(70.0, 10.0)],
        );
        let times = [0.0, 1.0 / 3.0, 2.0 / 3.0, 1.0];
        let trace = |workers: usize| -> Vec<String> {
            let tracer = Tracer::ring(1024);
            audit_piecewise_with_workers(&rows, &times, 80.0, workers, &tracer).unwrap();
            tracer.events().iter().map(anr_trace::jsonl_line).collect()
        };
        let serial = trace(1);
        for name in ["audit.certify", "audit.fallback_events", "audit_disconnect"] {
            assert!(
                serial.iter().any(|line| line.contains(name)),
                "missing {name}"
            );
        }
        for workers in [2, 8] {
            assert_eq!(trace(workers), serial, "workers = {workers} diverged");
        }
    }

    /// A rigidly translating 70-robot chain certifies, and an endpoint
    /// robot detouring out of range mid-piece is caught as both a
    /// violation and a disconnect.
    #[test]
    fn grid_path_large_swarm_audits_exactly() {
        let n = 70;
        let mut polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let x = i as f64 * 50.0;
                Polyline::new(vec![p(x, 0.0), p(x + 300.0, 40.0)])
            })
            .collect();
        let set = TrajectorySet::new(polys.clone());
        let r = audit_trajectories(&set, 80.0, &Tracer::disabled()).unwrap();
        assert!(r.certified(), "rigid translation must certify");
        assert_eq!(r.initial_links, n - 1);

        // Robot 0 detours far below the chain before rejoining: its only
        // link breaks and it disconnects, invisible at the endpoints.
        polys[0] = Polyline::new(vec![p(0.0, 0.0), p(150.0, -200.0), p(300.0, 40.0)]);
        let set = TrajectorySet::new(polys);
        let r = audit_trajectories(&set, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert!(!r.violations.is_empty());
        assert!(!r.disconnected_intervals.is_empty());
    }

    #[test]
    fn stationary_pair_certifies() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::stationary(p(50.0, 0.0)),
        ]);
        let r = audit_trajectories(&set, 80.0, &Tracer::disabled()).unwrap();
        assert!(r.certified());
        assert_eq!(r.initial_links, 1);
        assert_eq!(r.preserved_links, 1);
        assert_eq!(r.stable_link_ratio, 1.0);
    }

    /// The regression scenario from the issue: a link that is within
    /// range at **all 11 default sample instants** but bows out of range
    /// between samples. Sampled metrics call it stable; the exact
    /// auditor must not.
    #[test]
    fn link_breaking_between_samples_is_caught() {
        // Robot A parked at the origin; robot B runs x: 76 → 80.2 → 72.4
        // (total arclength 12, so the 80.2 peak sits at s = 4.2/12 =
        // 0.35, strictly between the s = 0.3 and s = 0.4 samples).
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
        ]);
        let range = 80.0;

        // Sanity: the default 10-interval sampling sees nothing wrong.
        for k in 0..=10 {
            let s = k as f64 / 10.0;
            let rowa = set.positions_at(s);
            assert!(
                rowa[0].distance(rowa[1]) <= range,
                "sample {k} already out of range — scenario miscalibrated"
            );
        }

        let r = audit_trajectories(&set, range, &Tracer::disabled()).unwrap();
        assert!(!r.certified());
        assert_eq!(r.violations.len(), 1);
        let v = &r.violations[0];
        assert_eq!(v.link, (0, 1));
        assert!((v.max_distance - 80.2).abs() < 1e-9);
        // Exact interval: |76 + 12s| = 80 ⇒ s = 1/3; on the way back
        // |80.2 − 12(s − 0.35)·(7.8/0.65)/…| — endpoints from the roots.
        assert!(
            v.interval.0 > 0.3 && v.interval.0 < 0.35,
            "{:?}",
            v.interval
        );
        assert!(
            v.interval.1 > 0.35 && v.interval.1 < 0.4,
            "{:?}",
            v.interval
        );
        assert!((set.positions_at(v.interval.0)[1].x - 80.0).abs() < 1e-9);
        assert!((set.positions_at(v.interval.1)[1].x - 80.0).abs() < 1e-9);
        // L reflects the broken link exactly.
        assert_eq!(r.preserved_links, 0);
        assert_eq!(r.stable_link_ratio, 0.0);
    }

    #[test]
    fn transient_partition_between_rows_is_caught() {
        // Bridge handover: A and B are 140 apart (never linked). Relay
        // R1 starts between them and slides past B; relay R2 slides in
        // from beyond A to take over the bridge. Both row instants are
        // connected (R1 bridges at s = 0, R2 at s = 1), but mid-piece
        // each relay is within range of only its own side, so the
        // network splits into {A, R2} | {B, R1} — a partition no
        // row-instant check can see.
        let rows = vec![
            vec![p(0.0, 0.0), p(140.0, 0.0), p(70.0, 10.0), p(-70.0, 10.0)],
            vec![p(0.0, 0.0), p(140.0, 0.0), p(210.0, 10.0), p(70.0, 10.0)],
        ];
        for row in &rows {
            assert!(
                UnitDiskGraph::new(row, 80.0).is_connected(),
                "row instants must look fine — scenario miscalibrated"
            );
        }
        let times = vec![0.0, 1.0];
        let r = audit_piecewise(&rows, &times, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (lo, hi) = r.disconnected_intervals[0];
        // A–R1 breaks at 70 + 140τ = √6300 ⇒ τ ≈ 0.067; B–R2 restores
        // the bridge symmetrically at τ ≈ 0.933.
        let tau = (6300.0f64.sqrt() - 70.0) / 140.0;
        assert!((lo - tau).abs() < 1e-9, "lo = {lo}, expected {tau}");
        assert!((hi - (1.0 - tau)).abs() < 1e-9, "hi = {hi}");
        // Initial links: A–R1, A–R2, B–R1; only A–R1 breaks.
        assert_eq!(r.initial_links, 3);
        assert_eq!(r.preserved_links, 2);
        assert!((r.stable_link_ratio - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn rigid_translation_certifies_exactly() {
        let from = [p(0.0, 0.0), p(60.0, 0.0), p(30.0, 50.0)];
        let to: Vec<Point> = from.iter().map(|q| p(q.x + 900.0, q.y + 40.0)).collect();
        let set = TrajectorySet::straight(&from, &to, &[]);
        let r = audit_trajectories(&set, 80.0, &Tracer::disabled()).unwrap();
        assert!(r.certified());
        assert_eq!(r.stable_link_ratio, 1.0);
    }

    #[test]
    fn violation_events_are_traced() {
        let set = TrajectorySet::new(vec![
            Polyline::stationary(p(0.0, 0.0)),
            Polyline::new(vec![p(76.0, 0.0), p(80.2, 0.0), p(72.4, 0.0)]),
        ]);
        let tracer = Tracer::ring(256);
        let r = audit_trajectories(&set, 80.0, &tracer).unwrap();
        assert!(!r.certified());
        let events = tracer.events();
        assert!(events.iter().any(|e| e.name == "audit_violation"));
        let summary = events.iter().find(|e| e.name == "audit_summary").unwrap();
        assert!(summary
            .fields
            .iter()
            .any(|(k, v)| *k == "violations" && *v == TraceValue::U64(1)));
    }

    #[test]
    fn bad_input_is_an_error_not_a_panic() {
        let row = vec![p(0.0, 0.0)];
        assert!(matches!(
            audit_piecewise(std::slice::from_ref(&row), &[0.0], 0.0, &Tracer::disabled()),
            Err(MetricsError::NonPositiveRange { .. })
        ));
        assert!(matches!(
            audit_piecewise(&[], &[], 80.0, &Tracer::disabled()),
            Err(MetricsError::EmptyTimeline)
        ));
        assert!(matches!(
            audit_piecewise(
                &[row.clone(), vec![]],
                &[0.0, 1.0],
                80.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::RaggedTimeline { row: 1, .. })
        ));
        assert!(matches!(
            audit_piecewise(
                &[row.clone(), row.clone()],
                &[0.0],
                80.0,
                &Tracer::disabled()
            ),
            Err(MetricsError::LengthMismatch { .. })
        ));
        assert!(matches!(
            audit_piecewise(&[row.clone(), row], &[0.5, 0.5], 80.0, &Tracer::disabled()),
            Err(MetricsError::NonMonotonicTimes { .. })
        ));
    }

    #[test]
    fn single_row_connectivity() {
        let connected = vec![p(0.0, 0.0), p(50.0, 0.0)];
        let r = audit_piecewise(&[connected], &[0.0], 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 1);
        let split = vec![p(0.0, 0.0), p(500.0, 0.0)];
        let r = audit_piecewise(&[split], &[0.0], 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.disconnected_intervals, vec![(0.0, 0.0)]);
    }

    /// The parallel fan-out must be byte-identical at every worker
    /// count: same violations, same intervals, same counts.
    #[test]
    fn workers_do_not_change_the_report() {
        // A 80-robot chain with several detouring robots, many pieces.
        let n = 80;
        let polys: Vec<Polyline> = (0..n)
            .map(|i| {
                let x = i as f64 * 50.0;
                if i % 11 == 3 {
                    Polyline::new(vec![
                        p(x, 0.0),
                        p(x + 90.0, -160.0),
                        p(x + 180.0, 30.0),
                        p(x + 300.0, 40.0),
                    ])
                } else {
                    Polyline::new(vec![p(x, 0.0), p(x + 150.0, 20.0), p(x + 300.0, 40.0)])
                }
            })
            .collect();
        let set = TrajectorySet::new(polys);
        let times = set.sample_times_with_breakpoints(40);
        let rows = set.sample_at(&times);
        let reference =
            audit_piecewise_with_workers(&rows, &times, 80.0, 1, &Tracer::disabled()).unwrap();
        for workers in [2, 3, 8] {
            let r = audit_piecewise_with_workers(&rows, &times, 80.0, workers, &Tracer::disabled())
                .unwrap();
            assert_eq!(r, reference, "workers = {workers} diverged");
        }
    }

    /// A status flip exactly at a row instant (the peak of a detour
    /// touching the range circle at a breakpoint) must still be audited
    /// exactly.
    #[test]
    fn exact_breakpoint_crossing_is_an_event() {
        // B sits exactly at range 80 at its middle waypoint, then moves
        // out to 90 before coming back: out-of-range strictly between
        // the middle rows.
        let rows = vec![
            vec![p(0.0, 0.0), p(70.0, 0.0)],
            vec![p(0.0, 0.0), p(80.0, 0.0)],
            vec![p(0.0, 0.0), p(90.0, 0.0)],
            vec![p(0.0, 0.0), p(80.0, 0.0)],
            vec![p(0.0, 0.0), p(70.0, 0.0)],
        ];
        let times = vec![0.0, 0.25, 0.5, 0.75, 1.0];
        let r = audit_piecewise(&rows, &times, 80.0, &Tracer::disabled()).unwrap();
        assert_eq!(r.global_connectivity, 0);
        assert_eq!(r.violations.len(), 1);
        let (lo, hi) = r.violations[0].interval;
        assert!((lo - 0.25).abs() < 1e-12, "lo = {lo}");
        assert!((hi - 0.75).abs() < 1e-12, "hi = {hi}");
        assert_eq!(r.disconnected_intervals.len(), 1);
        let (dlo, dhi) = r.disconnected_intervals[0];
        assert!((dlo - 0.25).abs() < 1e-12 && (dhi - 0.75).abs() < 1e-12);
    }
}
