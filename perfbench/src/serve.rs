//! The `serve-mix` workload: a closed loop of plan requests against a
//! localhost `PlanServer`, mostly cache hits.

use crate::reference::{MarchRef, SERVE};
use crate::stats::{
    add, median, repeated_setup, report_layers, report_passes, run_passes, secs, Layers, Spans,
    SplitMix,
};
use crate::{Options, Outcome};
use anr_serve::{request_plan, PlanReply, PlanRequest, PlanServer, ServeConfig, ServeStats};
use anr_trace::Tracer;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Client connections of the closed loop (one request in flight each).
const CLIENTS: usize = 2;
/// Distinct request seeds per scenario: the pool has 7 × 6 addresses.
const SEEDS_PER_SCENARIO: usize = 6;
/// Requests per pass, each pass against a fresh server (cold cache).
const STREAM_LEN: usize = 1000;

/// The seeded request pool and the order a pass sends it in.
struct Setup {
    pool: Vec<(PlanRequest, &'static MarchRef)>,
    stream: Vec<usize>,
}

/// Checks a reply's header against the scenario's recorded plan.
fn header_ok(reply: &anr_serve::PlanResponse, expect: &MarchRef) -> bool {
    let h = &reply.header;
    let ok = h.global_connectivity == 1
        && h.preserved_links as usize == expect.preserved_links
        && h.initial_links as usize == expect.initial_links
        && (h.total_distance - expect.total_distance).abs() <= 1e-9 * expect.total_distance.abs();
    if !ok {
        eprintln!(
            "mismatch: sc{} reply C={} preserved={} initial={} D={:?}",
            expect.scenario,
            h.global_connectivity,
            h.preserved_links,
            h.initial_links,
            h.total_distance
        );
    }
    ok
}

fn bind() -> Result<PlanServer, String> {
    PlanServer::bind(&ServeConfig::default()).map_err(|e| e.to_string())
}

/// Builds the pool and stream from `seed`, then warms the server path
/// with one cold request per scenario (checked like any other reply).
fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = SplitMix::new(seed);
    let mut pool = Vec::new();
    for expect in &SERVE {
        for _ in 0..SEEDS_PER_SCENARIO {
            let req = PlanRequest {
                seed: rng.next_u64(),
                ..PlanRequest::scenario(expect.scenario)
            };
            pool.push((req, expect));
        }
    }
    // Every address at least once, the rest drawn uniformly.
    let mut stream: Vec<usize> = (0..pool.len()).collect();
    while stream.len() < STREAM_LEN {
        stream.push(rng.below(pool.len()));
    }
    rng.shuffle(&mut stream);

    let warm: Vec<usize> = (0..SERVE.len()).collect();
    let server = bind()?;
    let results = drive(&server, &warm, |k| {
        let expect = &SERVE[k];
        let req = PlanRequest {
            seed: u64::MAX - k as u64,
            ..PlanRequest::scenario(expect.scenario)
        };
        match request_plan(server.port(), &req) {
            Ok(PlanReply::Plan(r)) => header_ok(&r, expect),
            _ => false,
        }
    });
    if results.iter().any(|r| !r.ok) {
        return Err("warm-up request failed".into());
    }
    Ok(Setup { pool, stream })
}

/// One request's outcome, as its client saw it.
struct Sent {
    position: usize,
    seconds: f64,
    ok: bool,
}

/// Serves `server` while `CLIENTS` closed-loop clients call `request`
/// on the stream positions `0..items.len()` in order; stops the server
/// when the last client is done.
fn drive(
    server: &PlanServer,
    items: &[usize],
    request: impl Fn(usize) -> bool + Sync,
) -> Vec<Sent> {
    let next = AtomicUsize::new(0);
    let running = AtomicUsize::new(CLIENTS);
    let roles: Vec<usize> = (0..=CLIENTS).collect();
    let per_role = anr_par::par_map(&roles, roles.len(), |&role| {
        let mut sent = Vec::new();
        if role == CLIENTS {
            server.serve(&Tracer::disabled());
            return sent;
        }
        loop {
            let position = next.fetch_add(1, Ordering::Relaxed);
            let Some(&item) = items.get(position) else {
                break;
            };
            let start = Instant::now();
            let ok = request(item);
            sent.push(Sent {
                position,
                seconds: secs(start),
                ok,
            });
        }
        if running.fetch_sub(1, Ordering::AcqRel) == 1 {
            server.stop();
        }
        sent
    });
    let mut all: Vec<Sent> = per_role.into_iter().flatten().collect();
    all.sort_by_key(|s| s.position);
    all
}

/// Replies seen so far, by pool index: the first reply to an address
/// comes from a cold cache, and every later reply must equal it.
type Seen = Mutex<Vec<Option<Vec<u8>>>>;

/// What one pass measured.
struct PassResult {
    seconds: f64,
    sent: Vec<Sent>,
    stats: ServeStats,
}

fn pass(s: &Setup, seen: &Seen) -> Result<PassResult, String> {
    let server = bind()?;
    let start = Instant::now();
    let sent = drive(&server, &s.stream, |i| {
        let (req, expect) = &s.pool[i];
        let Ok(PlanReply::Plan(reply)) = request_plan(server.port(), req) else {
            return false;
        };
        let mut seen = seen
            .lock()
            .expect("no client panics holding the reply table");
        match &seen[i] {
            Some(cold) => *cold == reply.raw,
            None => {
                let ok = header_ok(&reply, expect);
                seen[i] = Some(reply.raw);
                ok
            }
        }
    });
    let seconds = secs(start);
    Ok(PassResult {
        seconds,
        sent,
        stats: server.stats(),
    })
}

/// Splits a pass's latencies into misses (first request of an address
/// in the pass, which found a cold cache) and hits.
fn split(s: &Setup, sent: &[Sent]) -> (Vec<f64>, Vec<f64>) {
    let mut first = vec![true; s.pool.len()];
    let (mut misses, mut hits) = (Vec::new(), Vec::new());
    for r in sent {
        let i = s.stream[r.position];
        if std::mem::replace(&mut first[i], false) {
            misses.push(r.seconds);
        } else {
            hits.push(r.seconds);
        }
    }
    (misses, hits)
}

pub(crate) fn run(opts: &Options) -> Result<Outcome, String> {
    let (setup, setup_s) = repeated_setup(|| setup(opts.seed))?;
    let seen: Seen = Mutex::new(vec![None; setup.pool.len()]);
    let mut out = Outcome::default();
    let mut pass_s = Vec::new();
    let mut per_kind: [Vec<f64>; 2] = Default::default();
    let mut samples = Vec::new();
    let mut traced_s = Vec::new();
    let mut last_spans = Spans::new();
    let mut error = None;
    let mut one = |traced: bool, out: &mut Outcome| {
        let mut spans = Spans::new();
        let result = if traced {
            spans.call("serve_pass", || pass(&setup, &seen))
        } else {
            pass(&setup, &seen)
        };
        let r = match result {
            Ok(r) => r,
            Err(e) => return error = Some(e),
        };
        for sent in &r.sent {
            out.record(sent.ok);
        }
        let (misses, hits) = split(&setup, &r.sent);
        if traced {
            traced_s.push(r.seconds);
            samples.push(layers(&r, &misses, &hits, &seen));
            last_spans = spans;
        } else {
            pass_s.push(r.seconds);
            per_kind[0].extend(misses);
            per_kind[1].extend(hits);
        }
    };
    run_passes(opts.run_for, |k| {
        if !opts.trace {
            one(false, &mut out);
        } else {
            // Alternate which side runs first so neither always runs cold.
            one(k % 2 == 0, &mut out);
            one(k % 2 == 1, &mut out);
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    if opts.trace {
        last_spans.print_table();
        report_layers(&mut out, &samples, &pass_s, &traced_s);
    } else {
        out.metric("setup_s", setup_s);
        report_passes(&mut out, &pass_s, &per_kind);
    }
    Ok(out)
}

fn layers(r: &PassResult, misses: &[f64], hits: &[f64], seen: &Seen) -> Layers {
    let sizes: Vec<f64> = seen
        .lock()
        .expect("the clients have finished")
        .iter()
        .flatten()
        .map(|reply| reply.len() as f64)
        .collect();
    let mut l = Layers::new();
    let st = &r.stats;
    add(&mut l, "serve.hit_p50_ms", 1e3 * median(hits));
    add(&mut l, "serve.miss_p50_ms", 1e3 * median(misses));
    add(&mut l, "serve.reply_bytes", median(&sizes));
    add(&mut l, "serve.cache_hits", st.cache.hits as f64);
    add(&mut l, "serve.cache_misses", st.cache.misses as f64);
    add(&mut l, "serve.cache_evictions", st.cache.evictions as f64);
    add(&mut l, "serve.busy", st.busy as f64);
    add(
        &mut l,
        "serve.errors",
        (st.protocol_errors + st.plan_errors + st.io_errors + st.worker_panics) as f64,
    );
    l
}
