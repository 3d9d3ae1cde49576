//! Load generator for the plan server (`anr bench --serve`).
//!
//! [`run_serve_bench`] binds a real [`PlanServer`], drives it with
//! hundreds of concurrent client connections, and reports latency
//! percentiles and throughput for a **cold** phase (every request a
//! distinct content address, forcing a fresh march) and a **hot** phase
//! (the same requests again, all cache hits). A separate burst against
//! a deliberately tiny server exercises the admission path and counts
//! explicit `Busy` refusals.
//!
//! Every thread comes from `anr-par` (the serve crate's worker pool and
//! this module's client fan-out alike), and every timing comes from
//! wall-clocked `anr-trace` spans — the same clock the pipeline bench
//! uses. The result serializes as `BENCH_serve.json`, schema
//! `anr-bench-serve/1`.

use crate::BenchError;
use anr_serve::{fnv1a64, request_plan, PlanReply, PlanRequest, PlanServer, ServeConfig};
use anr_trace::Tracer;

/// What to throw at the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeBenchOptions {
    /// Smoke mode: fewer clients and requests — fast enough for CI.
    pub smoke: bool,
    /// Concurrent client connections (`0` = mode default: 64 smoke,
    /// 500 full).
    pub concurrency: usize,
    /// Requests per phase (`0` = mode default: 64 smoke, 500 full).
    pub requests: usize,
}

impl ServeBenchOptions {
    fn resolved(&self) -> (usize, usize) {
        let default = if self.smoke { 64 } else { 500 };
        let concurrency = if self.concurrency == 0 {
            default
        } else {
            self.concurrency
        };
        let requests = if self.requests == 0 {
            default
        } else {
            self.requests
        };
        (concurrency, requests)
    }
}

/// Latency/throughput summary of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseStats {
    /// Requests completed.
    pub requests: usize,
    /// Median client-observed latency, milliseconds (queueing
    /// included).
    pub p50_ms: f64,
    /// 99th-percentile latency, milliseconds.
    pub p99_ms: f64,
    /// Mean latency, milliseconds.
    pub mean_ms: f64,
    /// Completed requests per second of phase wall time.
    pub throughput_rps: f64,
}

/// The admission burst against a one-worker, one-slot server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusyBurst {
    /// Simultaneous clients in the burst.
    pub clients: usize,
    /// Clients answered with an explicit `Busy` frame.
    pub busy_replies: usize,
    /// Clients that got a full plan.
    pub served: usize,
}

/// Everything one serve-bench run measured.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeBenchReport {
    /// Was this a smoke run?
    pub smoke: bool,
    /// Concurrent client connections per phase.
    pub concurrency: usize,
    /// Requests per phase.
    pub requests: usize,
    /// Worker threads of the benched server.
    pub server_workers: usize,
    /// Cold phase: distinct content addresses, every request marches.
    pub cold: PhaseStats,
    /// Hot phase: the same requests, all served from cache.
    pub hot: PhaseStats,
    /// `cold.p50_ms / hot.p50_ms`.
    pub hit_speedup_p50: f64,
    /// Did every hot reply byte-match its cold counterpart?
    pub hit_bytes_identical: bool,
    /// The admission burst.
    pub busy: BusyBurst,
    /// The benched server's own accounting at shutdown.
    pub server: anr_serve::ServeStats,
}

/// What one of the two top-level bench roles produced.
enum RoleOut {
    Server(Box<anr_serve::ServeReport>),
    Load(Box<Result<LoadOut, BenchError>>),
}

struct LoadOut {
    cold: PhaseStats,
    hot: PhaseStats,
    hit_bytes_identical: bool,
}

/// The request fired as client `i` of a phase: cheap march settings so
/// hundreds of cold marches stay tractable, a distinct seed per index
/// (the seed is an opaque cache-key discriminator), scenarios rotating
/// across the bundled seven (smoke pins scenario 1).
fn bench_request(i: usize, smoke: bool) -> PlanRequest {
    let scenario = if smoke { 1 } else { 1 + (i % 7) as u8 };
    PlanRequest {
        seed: 1_000 + i as u64,
        time_samples: 6,
        refine_coverage: false,
        ..PlanRequest::scenario(scenario)
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

/// Stats of one phase from its request latencies (ascending) and its
/// wall time.
fn phase_stats(requests: usize, sorted: &[f64], phase_ms: f64) -> Result<PhaseStats, BenchError> {
    if sorted.len() != requests {
        return Err(BenchError::Serve(format!(
            "phase recorded {} latency spans, expected {requests}",
            sorted.len()
        )));
    }
    let mean = sorted.iter().sum::<f64>() / sorted.len() as f64;
    Ok(PhaseStats {
        requests,
        p50_ms: percentile(sorted, 0.50),
        p99_ms: percentile(sorted, 0.99),
        mean_ms: mean,
        throughput_rps: if phase_ms > 0.0 {
            requests as f64 * 1000.0 / phase_ms
        } else {
            0.0
        },
    })
}

/// Fires `requests` requests at the server with `concurrency` client
/// workers, timing each under the span `span_name` and the whole phase
/// under `phase_name`. Returns the FNV hash of every reply's raw bytes,
/// indexed by request.
fn run_phase(
    port: u16,
    opts: &ServeBenchOptions,
    concurrency: usize,
    requests: usize,
    tracer: &Tracer,
    span_name: &'static str,
    phase_name: &'static str,
) -> Result<Vec<u64>, BenchError> {
    let indices: Vec<usize> = (0..requests).collect();
    let replies = {
        let _phase = tracer.span(phase_name);
        anr_par::par_map(&indices, concurrency, |&i| {
            // Ramp the connection storm: hundreds of simultaneous SYNs
            // overflow the listener's accept backlog (std pins it at
            // 128) and the kernel's retransmission backoff would then
            // dominate every latency. The stagger happens *before* the
            // request span starts, so it never counts as latency.
            let stagger_us = (i % concurrency) as u64 * 250;
            if stagger_us > 0 {
                std::thread::sleep(std::time::Duration::from_micros(stagger_us));
            }
            let req = bench_request(i, opts.smoke);
            let _span = tracer.span(span_name);
            request_plan(port, &req)
        })
    };
    let mut hashes = Vec::with_capacity(requests);
    for (i, reply) in replies.into_iter().enumerate() {
        match reply {
            Ok(PlanReply::Plan(resp)) => hashes.push(fnv1a64(&resp.raw)),
            Ok(PlanReply::Busy) => {
                return Err(BenchError::Serve(format!(
                    "{phase_name} request {i} refused Busy — queue sized below concurrency?"
                )));
            }
            Ok(PlanReply::ServerError { code, message }) => {
                return Err(BenchError::Serve(format!(
                    "{phase_name} request {i} failed with server error {code}: {message}"
                )));
            }
            Err(e) => {
                return Err(BenchError::Serve(format!(
                    "{phase_name} request {i} failed: {e}"
                )));
            }
        }
    }
    Ok(hashes)
}

/// Wall time of every `name` span, milliseconds, ascending.
fn span_ms(tracer: &Tracer, name: &'static str) -> Result<Vec<f64>, BenchError> {
    let rows = tracer.fold_spans(name)?;
    Ok(rows
        .first()
        .map(|r| r.durations_ms().to_vec())
        .unwrap_or_default())
}

fn single_phase_ms(tracer: &Tracer, name: &'static str) -> Result<f64, BenchError> {
    let durations = span_ms(tracer, name)?;
    match durations.as_slice() {
        [ms] => Ok(*ms),
        other => Err(BenchError::Serve(format!(
            "expected one `{name}` span, found {}",
            other.len()
        ))),
    }
}

fn run_load(
    server: &PlanServer,
    opts: &ServeBenchOptions,
    concurrency: usize,
    requests: usize,
    tracer: &Tracer,
) -> Result<LoadOut, BenchError> {
    let port = server.port();

    // Cold: every request a distinct content address → a fresh march.
    let cold_hashes = run_phase(
        port,
        opts,
        concurrency,
        requests,
        tracer,
        "serve_cold",
        "serve_cold_phase",
    )?;

    // Hot: the same requests again — all cache hits, byte-identical.
    let hot_hashes = run_phase(
        port,
        opts,
        concurrency,
        requests,
        tracer,
        "serve_hot",
        "serve_hot_phase",
    )?;
    let hit_bytes_identical = cold_hashes == hot_hashes;

    let cold = phase_stats(
        requests,
        &span_ms(tracer, "serve_cold")?,
        single_phase_ms(tracer, "serve_cold_phase")?,
    )?;
    let hot = phase_stats(
        requests,
        &span_ms(tracer, "serve_hot")?,
        single_phase_ms(tracer, "serve_hot_phase")?,
    )?;

    Ok(LoadOut {
        cold,
        hot,
        hit_bytes_identical,
    })
}

/// The two concurrent top-level roles of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Server,
    Load,
}

/// Hammers a deliberately tiny server (one worker, one queue slot) with
/// a simultaneous burst so admission control must refuse some clients.
fn run_busy_burst(smoke: bool) -> Result<BusyBurst, BenchError> {
    let clients = 8usize;
    let config = ServeConfig {
        workers: 1,
        queue_capacity: 1,
        max_requests: clients as u64,
        ..ServeConfig::default()
    };
    let server = PlanServer::bind(&config).map_err(|e| BenchError::Serve(e.to_string()))?;
    let tracer = Tracer::disabled();
    let roles = [Role::Server, Role::Load];
    // Slow requests (full time sampling and Lloyd refinement) keep the
    // single worker occupied long enough that the burst piles up at
    // admission. `max_requests = clients` ends the server by itself
    // once every burst connection has been accepted, so the Load role
    // never needs to know when to stop it.
    let outs = anr_par::par_map(&roles, roles.len(), |role| match role {
        Role::Server => {
            let report = server.serve(&tracer);
            Ok((Some(report), None))
        }
        Role::Load => {
            let indices: Vec<usize> = (0..clients).collect();
            let replies = anr_par::par_map(&indices, clients, |&i| {
                let req = PlanRequest {
                    seed: 77_000 + i as u64,
                    ..PlanRequest::scenario(if smoke { 1 } else { 4 })
                };
                request_plan(server.port(), &req)
            });
            let mut busy_replies = 0usize;
            let mut served = 0usize;
            for reply in replies {
                match reply {
                    Ok(PlanReply::Busy) => busy_replies += 1,
                    Ok(PlanReply::Plan(_)) => served += 1,
                    Ok(PlanReply::ServerError { code, message }) => {
                        return Err(BenchError::Serve(format!(
                            "busy burst got server error {code}: {message}"
                        )));
                    }
                    Err(e) => {
                        return Err(BenchError::Serve(format!("busy burst client failed: {e}")));
                    }
                }
            }
            Ok((None, Some((busy_replies, served))))
        }
    });
    let mut busy_replies = 0;
    let mut served = 0;
    for out in outs {
        if let (_, Some((b, s))) = out? {
            busy_replies = b;
            served = s;
        }
    }
    Ok(BusyBurst {
        clients,
        busy_replies,
        served,
    })
}

/// Runs the serve benchmark: bind a server, drive the cold and hot
/// phases, burst the admission path, and collate the report.
///
/// # Errors
///
/// [`BenchError::Serve`] when the server cannot bind, a client observes
/// a protocol violation, or a phase loses latency spans.
pub fn run_serve_bench(opts: &ServeBenchOptions) -> Result<ServeBenchReport, BenchError> {
    let (concurrency, requests) = opts.resolved();
    let server_workers = anr_par::default_workers();
    let config = ServeConfig {
        workers: server_workers,
        // Admission must not interfere with the latency phases: the
        // queue holds every in-flight client, so `Busy` can only come
        // from the dedicated burst below.
        queue_capacity: concurrency + 64,
        // The hot phase is only all-hits if the cold phase's entire
        // working set stays resident: the bundled scenarios produce
        // ~0.5 MiB replies, so hundreds of distinct requests overflow
        // the default budget and evictions silently turn "hot" into a
        // re-march (byte-identical, but no speedup to measure).
        cache_bytes: 2 << 30,
        ..ServeConfig::default()
    };
    let server = PlanServer::bind(&config).map_err(|e| BenchError::Serve(e.to_string()))?;
    let tracer = Tracer::wall(1 << 17);

    let roles = [Role::Server, Role::Load];
    let outs = anr_par::par_map(&roles, roles.len(), |role| match role {
        Role::Server => RoleOut::Server(Box::new(server.serve(&tracer))),
        Role::Load => {
            let out = run_load(&server, opts, concurrency, requests, &tracer);
            server.stop();
            RoleOut::Load(Box::new(out))
        }
    });

    let mut server_report = None;
    let mut load_out = None;
    for out in outs {
        match out {
            RoleOut::Server(r) => server_report = Some(*r),
            RoleOut::Load(l) => load_out = Some(*l),
        }
    }
    let (Some(server_report), Some(load)) = (server_report, load_out) else {
        return Err(BenchError::Serve(
            "bench roles did not both report".to_string(),
        ));
    };
    let load = load?;

    let busy = run_busy_burst(opts.smoke)?;

    Ok(ServeBenchReport {
        smoke: opts.smoke,
        concurrency,
        requests,
        server_workers: server_report.workers,
        cold: load.cold,
        hot: load.hot,
        hit_speedup_p50: if load.hot.p50_ms > 0.0 {
            load.cold.p50_ms / load.hot.p50_ms
        } else {
            0.0
        },
        hit_bytes_identical: load.hit_bytes_identical,
        busy,
        server: server_report.stats,
    })
}

fn json_ms(x: f64) -> String {
    format!("{x:.3}")
}

impl ServeBenchReport {
    /// Serializes the report as a self-contained JSON document
    /// (schema `anr-bench-serve/1`).
    #[must_use]
    pub fn to_json(&self) -> String {
        let phase = |p: &PhaseStats| {
            format!(
                "{{\"requests\": {}, \"p50_ms\": {}, \"p99_ms\": {}, \"mean_ms\": {}, \
                 \"throughput_rps\": {:.1}}}",
                p.requests,
                json_ms(p.p50_ms),
                json_ms(p.p99_ms),
                json_ms(p.mean_ms),
                p.throughput_rps,
            )
        };
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"schema\": \"anr-bench-serve/1\",\n");
        s.push_str(&format!("  \"smoke\": {},\n", self.smoke));
        s.push_str(&format!("  \"concurrency\": {},\n", self.concurrency));
        s.push_str(&format!("  \"requests\": {},\n", self.requests));
        s.push_str(&format!("  \"server_workers\": {},\n", self.server_workers));
        s.push_str(&format!("  \"cold\": {},\n", phase(&self.cold)));
        s.push_str(&format!("  \"hot\": {},\n", phase(&self.hot)));
        s.push_str(&format!(
            "  \"hit_speedup_p50\": {:.1},\n",
            self.hit_speedup_p50
        ));
        s.push_str(&format!(
            "  \"hit_bytes_identical\": {},\n",
            self.hit_bytes_identical
        ));
        s.push_str(&format!(
            "  \"busy\": {{\"clients\": {}, \"busy_replies\": {}, \"served\": {}}},\n",
            self.busy.clients, self.busy.busy_replies, self.busy.served,
        ));
        let sv = &self.server;
        s.push_str(&format!(
            "  \"server\": {{\"accepted\": {}, \"served\": {}, \"busy\": {}, \
             \"protocol_errors\": {}, \"plan_errors\": {}, \"io_errors\": {}, \
             \"worker_panics\": {}, \"cache_hits\": {}, \"cache_misses\": {}, \
             \"cache_collisions\": {}, \"cache_evictions\": {}}}\n",
            sv.accepted,
            sv.served,
            sv.busy,
            sv.protocol_errors,
            sv.plan_errors,
            sv.io_errors,
            sv.worker_panics,
            sv.cache.hits,
            sv.cache.misses,
            sv.cache.collisions,
            sv.cache.evictions,
        ));
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_endpoints() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 1.0), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn tiny_serve_bench_round_trips() {
        // A miniature full run: enough to exercise both phases, the
        // cache, and the busy burst without CI-scale load.
        let report = run_serve_bench(&ServeBenchOptions {
            smoke: true,
            concurrency: 4,
            requests: 8,
        })
        .unwrap();
        assert_eq!(report.cold.requests, 8);
        assert_eq!(report.hot.requests, 8);
        assert!(report.hit_bytes_identical);
        assert_eq!(report.server.worker_panics, 0);
        assert_eq!(report.server.cache.hits, 8);
        assert_eq!(report.server.cache.misses, 8);
        assert!(report.busy.busy_replies + report.busy.served == report.busy.clients);
        assert!(report.busy.busy_replies >= 1, "burst never saw Busy");
        let json = report.to_json();
        for key in [
            "\"schema\": \"anr-bench-serve/1\"",
            "\"cold\"",
            "\"hot\"",
            "\"hit_speedup_p50\"",
            "\"hit_bytes_identical\": true",
            "\"busy_replies\"",
            "\"worker_panics\": 0",
        ] {
            assert!(json.contains(key), "missing {key} in:\n{json}");
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
