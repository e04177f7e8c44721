//! The service workload: a closed loop over one keep-alive connection
//! against an in-process `gatherd` server (one simulation worker, a
//! small handler pool).
//!
//! Every cycle of [`CYCLE`] requests mixes `POST /run` hits on a primed
//! working set, `POST /run` misses on fresh seeds, and `GET /result`;
//! every [`METRICS_EVERY`]-th cycle also scrapes `GET /metrics`. Misses
//! run `paper` on `skyline` chains, a family whose chain changes with the
//! seed, so every miss simulates a genuinely new input.
//!
//! The mix is an assumption, not a recorded trace: nothing in the
//! repository logs how clients call `gatherd`. The run therefore reports
//! the share of the loop's wall time each kind of request takes, so a
//! reader can tell which path `ops_per_s` responds to.

use crate::client::{Conn, Reply};
use crate::report::{peak_rss_mib, seconds_list, Report};
use crate::spans::Tracer;
use crate::stats::{median, percentile};
use bench::campaign::json::Json;
use bench::campaign::{spec_hash, CampaignRow};
use bench::scenario::{run_scenario, ScenarioSpec};
use bench::wire::{spec_from_json, spec_to_json};
use gatherd::{Config, ResultCache, Server, ServerHandle};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use workloads::{Family, SplitMix64};

/// Requests per cycle, and the slots that are not cache hits.
const CYCLE: usize = 20;
const MISS_SLOTS: [usize; 3] = [0, 7, 14];
const RESULT_SLOTS: [usize; 2] = [5, 15];
/// One `GET /metrics` (in place of a hit) every this many cycles.
const METRICS_EVERY: usize = 50;
/// Cycles per rate window; rates are the median over windows.
const WINDOW_CYCLES: usize = 25;
/// Set-ups (server boots) per run; `setup_s` is their median.
const SETUPS: usize = 9;
const MISS_FAMILY: Family = Family::Skyline;
const MISS_N: usize = 96;
/// `peak_rss_mib` is read after this many timed requests. Every miss
/// adds a row to the server's cache, so a peak read at the end of the run
/// would grow with throughput; a fixed request count fixes the work.
const RSS_AFTER_REQUESTS: u64 = 20_000;

/// One primed working-set entry.
struct Entry {
    body: Vec<u8>,
    path_result: String,
    /// Exact bytes every hit (and `GET /result`) must return.
    hit_body: Vec<u8>,
}

/// A server booted, primed and checked.
struct Booted {
    handle: ServerHandle,
    conn: Conn,
    dir: PathBuf,
    working: Vec<Entry>,
    wall: Duration,
    rounds: u64,
    robot_rounds: u64,
    merged: u64,
    runs_started: u64,
    runs_merged: u64,
}

/// A seed the wire format carries exactly (JSON numbers are exact up
/// to 2^53).
fn wire_seed(rng: &mut SplitMix64) -> u64 {
    rng.next_u64() >> 11
}

fn working_set(seed: u64) -> Vec<ScenarioSpec> {
    let mut rng = SplitMix64::new(seed ^ 0x5e41_1ce0);
    let mut specs = Vec::new();
    for _ in 0..2 {
        for size in [64, 128] {
            for fam in Family::ALL {
                specs.push(ScenarioSpec::paper(fam, size, wire_seed(&mut rng)));
            }
        }
    }
    specs
}

/// Rows agree on every field except wall time.
fn same_row(mut got: CampaignRow, want: &CampaignRow) -> bool {
    got.wall_us = want.wall_us;
    got == *want
}

fn reply_row(body: &[u8]) -> Result<(CampaignRow, bool), String> {
    let text = std::str::from_utf8(body).map_err(|_| "non-utf8 body".to_string())?;
    let doc = Json::parse(text).map_err(|e| format!("bad JSON reply: {e}"))?;
    let row = doc
        .get("result")
        .ok_or("reply without result")
        .and_then(|r| CampaignRow::from_json(r).map_err(|_| "bad result row"))?;
    let cached = matches!(doc.get("cached"), Some(Json::Bool(true)));
    Ok((row, cached))
}

fn expect(reply: &Reply, verdict: &str) -> Result<(), String> {
    if reply.status != 200 || reply.cache.as_deref() != Some(verdict) {
        return Err(format!(
            "status {} verdict {:?}, expected 200 {verdict}",
            reply.status, reply.cache
        ));
    }
    Ok(())
}

/// Boot a fresh server in `dir`, prime the working set and check every
/// primed row against an in-process run of the same spec. The server is
/// shut down again if priming fails.
fn boot(dir: PathBuf, specs: &[ScenarioSpec]) -> Result<Booted, String> {
    let t0 = Instant::now();
    let _ = std::fs::remove_dir_all(&dir);
    let handle = Server::spawn(Config {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        handlers: 2,
        queue: 64,
        dir: dir.clone(),
    })
    .map_err(|e| format!("boot gatherd: {e}"))?;
    let conn = Conn::connect(&handle.addr()).map_err(|e| format!("connect: {e}"))?;
    let mut b = Booted {
        handle,
        conn,
        dir,
        working: Vec::with_capacity(specs.len()),
        wall: Duration::ZERO,
        rounds: 0,
        robot_rounds: 0,
        merged: 0,
        runs_started: 0,
        runs_merged: 0,
    };
    match prime(&mut b, specs) {
        Ok(()) => {
            b.wall = t0.elapsed();
            Ok(b)
        }
        Err(e) => {
            shutdown(b);
            Err(e)
        }
    }
}

fn prime(b: &mut Booted, specs: &[ScenarioSpec]) -> Result<(), String> {
    for spec in specs {
        let result = run_scenario(spec);
        let want = CampaignRow::from_result(&result);
        let rounds = result.outcome.rounds();
        b.rounds += rounds;
        b.robot_rounds += result.n as u64 * rounds;
        b.merged += result.merges_total as u64;
        if let Some(stats) = &result.stats {
            b.runs_started += stats.started_total();
            b.runs_merged += stats.stopped_merged;
        }
        let body = spec_to_json(spec).to_compact().into_bytes();
        let hash = spec_hash(spec);
        let path_result = format!("/result/{hash}");
        let io = |e: std::io::Error| format!("priming {spec:?}: {e}");
        let miss = b.conn.request("POST", "/run", &body).map_err(io)?;
        expect(&miss, "miss")?;
        let (row, cached) = reply_row(&miss.body)?;
        if cached || !same_row(row, &want) || !result.is_gathered() {
            return Err(format!("priming {spec:?}: row differs from in-process run"));
        }
        let hit = b.conn.request("POST", "/run", &body).map_err(io)?;
        expect(&hit, "hit")?;
        let (row, cached) = reply_row(&hit.body)?;
        if !cached || !same_row(row, &want) {
            return Err(format!("priming {spec:?}: hit row differs"));
        }
        let get = b.conn.request("GET", &path_result, &[]).map_err(io)?;
        expect(&get, "hit")?;
        if get.body != hit.body {
            return Err(format!("priming {spec:?}: GET /result differs from hit"));
        }
        b.working.push(Entry {
            body,
            path_result,
            hit_body: hit.body,
        });
    }
    Ok(())
}

/// One further set-up for `setup_s`: boot, prime and check a server in
/// `dir`, then shut it down; returns its set-up time in s.
fn timed_boot(dir: PathBuf, specs: &[ScenarioSpec]) -> Result<f64, String> {
    let b = boot(dir, specs)?;
    let wall = b.wall.as_secs_f64();
    shutdown(b);
    Ok(wall)
}

fn shutdown(b: Booted) {
    let Booted {
        handle, conn, dir, ..
    } = b;
    // Close our keep-alive connection first: its handler would otherwise
    // sit in a read until the idle timeout and hold up the drain.
    drop(conn);
    let _ = handle.shutdown();
    let _ = std::fs::remove_dir_all(dir);
}

/// What the closed loop saw.
#[derive(Default)]
struct Loop {
    requests: u64,
    /// Latencies of untraced cycles.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Hit latencies of traced cycles.
    traced_hit_ms: Vec<f64>,
    /// Miss replies, checked after the loop: (spec, body, window).
    misses: Vec<(ScenarioSpec, Vec<u8>, usize)>,
    /// Per rate window: (requests / wall s, Σ miss latency s).
    windows: Vec<(f64, f64)>,
    /// Client-side spans of hits, in µs: send, wait, read.
    client_us: [Vec<f64>; 3],
    /// In-process calls on the hit bodies, in µs: decode, hash, get,
    /// row JSON.
    inproc_us: [Vec<f64>; 4],
    /// Peak RSS after [`RSS_AFTER_REQUESTS`] requests (or at the end).
    rss_mib: f64,
    /// Wall time of untraced cycles, and the part of it spent in each
    /// kind of request (hit, miss, result, metrics), in s.
    untraced_wall_s: f64,
    kind_s: [f64; 4],
}

/// One request of the mix.
enum Req {
    /// `POST /run` on a fresh spec (its body).
    Miss(Vec<u8>),
    Metrics,
    /// `GET /result` of a working-set entry.
    Result(usize),
    /// `POST /run` of a working-set entry.
    Hit(usize),
}

impl Req {
    /// Index into [`Loop::kind_s`]: hit, miss, result, metrics.
    fn kind(&self) -> usize {
        match self {
            Req::Hit(_) => 0,
            Req::Miss(_) => 1,
            Req::Result(_) => 2,
            Req::Metrics => 3,
        }
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn closed_loop(
    b: &mut Booted,
    seconds: f64,
    rng: &mut SplitMix64,
    miss_rng: &mut SplitMix64,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
    mut between_windows: impl FnMut(u64),
) -> Loop {
    let mut l = Loop::default();
    let mut cycle_no = 0;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut window_start = Instant::now();
    let (mut window_reqs, mut window_miss_s) = (0u64, 0.0);
    let mut cycles_in_window = 0;
    while Instant::now() < deadline || l.windows.is_empty() {
        cycle_no += 1;
        // With a tracer, odd cycles are traced and even ones not, so the
        // two sides see the same host conditions.
        let mut tracer = tracer.as_deref_mut().filter(|_| cycle_no % 2 == 1);
        let cycle_start = Instant::now();
        for slot in 0..CYCLE {
            let req = if MISS_SLOTS.contains(&slot) {
                let spec = ScenarioSpec::paper(MISS_FAMILY, MISS_N, wire_seed(miss_rng));
                l.misses.push((spec, Vec::new(), l.windows.len()));
                Req::Miss(spec_to_json(&spec).to_compact().into_bytes())
            } else if slot == 10 && cycle_no % METRICS_EVERY == 0 {
                Req::Metrics
            } else {
                let i = rng.below(b.working.len() as u64) as usize;
                if RESULT_SLOTS.contains(&slot) {
                    Req::Result(i)
                } else {
                    Req::Hit(i)
                }
            };
            let (method, path, body): (&str, &str, &[u8]) = match &req {
                Req::Miss(body) => ("POST", "/run", body),
                Req::Metrics => ("GET", "/metrics", &[]),
                Req::Result(i) => ("GET", &b.working[*i].path_result, &[]),
                Req::Hit(i) => ("POST", "/run", &b.working[*i].body),
            };
            report.attempted += 1;
            l.requests += 1;
            window_reqs += 1;
            if l.requests == RSS_AFTER_REQUESTS {
                l.rss_mib = peak_rss_mib();
            }
            let reply = match b.conn.request(method, path, body) {
                Ok(r) => r,
                Err(e) => {
                    report.fail(format!("{method} {path}: {e}"));
                    // The connection is unusable after a framing error.
                    match Conn::connect(&b.handle.addr()) {
                        Ok(c) => b.conn = c,
                        Err(_) => return l,
                    }
                    continue;
                }
            };
            let ms = reply.latency().as_secs_f64() * 1e3;
            if tracer.is_none() {
                l.kind_s[req.kind()] += ms / 1e3;
            }
            if let Some(tracer) = tracer.as_deref_mut() {
                tracer.span("client.request", reply.started, reply.done);
                tracer.span("client.send", reply.started, reply.sent);
                tracer.span("client.wait", reply.sent, reply.first_byte);
                tracer.span("client.read", reply.first_byte, reply.done);
                tracer.flush();
            }
            match req {
                Req::Miss(_) => {
                    if tracer.is_none() {
                        l.miss_ms.push(ms);
                    }
                    window_miss_s += ms / 1e3;
                    // A failed miss is counted here; its empty body keeps
                    // it out of the row check.
                    match expect(&reply, "miss") {
                        Ok(()) => l.misses.last_mut().expect("pushed above").1 = reply.body,
                        Err(e) => report.fail(format!("miss: {e}")),
                    }
                }
                Req::Metrics => {
                    if reply.status != 200 || !reply.body.starts_with(b"gatherd_") {
                        report.fail(format!("GET /metrics: status {}", reply.status));
                    }
                }
                Req::Result(i) | Req::Hit(i) => {
                    let e = &b.working[i];
                    if let Err(err) = expect(&reply, "hit") {
                        report.fail(format!("{method} {path}: {err}"));
                    } else if reply.body != e.hit_body {
                        report.fail(format!("{method} {path}: body differs from primed row"));
                    }
                    if matches!(req, Req::Hit(_)) {
                        if tracer.is_none() {
                            l.hit_ms.push(ms);
                        }
                        if let Some(tracer) = tracer.as_deref_mut() {
                            l.traced_hit_ms.push(ms);
                            l.client_us[0].push(us(reply.sent - reply.started));
                            l.client_us[1].push(us(reply.first_byte - reply.sent));
                            l.client_us[2].push(us(reply.done - reply.first_byte));
                            inproc_calls(b, i, tracer, &mut l.inproc_us);
                        }
                    }
                }
            }
        }
        if tracer.is_none() {
            l.untraced_wall_s += cycle_start.elapsed().as_secs_f64();
        }
        cycles_in_window += 1;
        if cycles_in_window == WINDOW_CYCLES {
            let wall = window_start.elapsed().as_secs_f64();
            l.windows.push((window_reqs as f64 / wall, window_miss_s));
            between_windows(l.requests);
            window_start = Instant::now();
            (window_reqs, window_miss_s, cycles_in_window) = (0, 0.0, 0);
        }
    }
    if l.rss_mib == 0.0 {
        l.rss_mib = peak_rss_mib();
    }
    l
}

/// The hit path's layers, called in-process on the same request body:
/// decode, hash, cache lookup, row serialization.
fn inproc_calls(b: &Booted, entry: usize, tracer: &mut Tracer, out: &mut [Vec<f64>; 4]) {
    let text = std::str::from_utf8(&b.working[entry].body).expect("request bodies are JSON text");
    let (spec, d) = tracer.time("wire.decode", || {
        Json::parse(text)
            .map_err(|e| e.to_string())
            .and_then(|v| spec_from_json(&v))
    });
    out[0].push(us(d));
    let Ok(spec) = spec else { return };
    let (hash, d) = tracer.time("campaign.spec_hash", || spec_hash(&spec));
    out[1].push(us(d));
    let (row, d) = tracer.time("cache.get", || b.handle.state().cache().get(&hash));
    out[2].push(us(d));
    if let Some(row) = row {
        let (json, d) = tracer.time("campaign.row_json", || row.to_store_json().to_compact());
        std::hint::black_box(json);
        out[3].push(us(d));
    }
    tracer.flush();
}

/// Check every miss reply against an in-process run of its spec; returns
/// each miss's robot·rounds by window and the in-process op times (µs).
fn check_misses(
    l: &Loop,
    mut tracer: Option<&mut Tracer>,
    report: &mut Report,
) -> (Vec<f64>, Vec<(String, CampaignRow)>, Vec<f64>) {
    let mut rr_by_window = vec![0.0; l.windows.len() + 1];
    let mut rows = Vec::new();
    let mut op_us = Vec::new();
    for (spec, body, window) in &l.misses {
        if body.is_empty() {
            continue; // the request itself failed and was counted
        }
        let t0 = Instant::now();
        let result = run_scenario(spec);
        let t1 = Instant::now();
        if let Some(tracer) = tracer.as_deref_mut() {
            tracer.span("bench.run_scenario", t0, t1);
            tracer.flush();
            op_us.push(us(t1 - t0));
        }
        let want = CampaignRow::from_result(&result);
        match reply_row(body) {
            Ok((row, false)) if same_row(row.clone(), &want) && result.is_gathered() => {
                rr_by_window[*window] += (row.n_actual as u64 * row.rounds) as f64;
                rows.push((spec_hash(spec), row));
            }
            Ok(_) => report.fail(format!("miss {spec:?}: row differs from in-process run")),
            Err(e) => report.fail(format!("miss {spec:?}: {e}")),
        }
    }
    (rr_by_window, rows, op_us)
}

fn metrics_json(b: &mut Booted) -> Result<Json, String> {
    let reply = b
        .conn
        .request("GET", "/metrics?json", &[])
        .map_err(|e| format!("GET /metrics?json: {e}"))?;
    let text = String::from_utf8(reply.body).map_err(|_| "non-utf8 metrics".to_string())?;
    Json::parse(&text).map_err(|e| format!("metrics JSON: {e}"))
}

pub fn run(
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
) -> Result<(Report, Option<Tracer>), String> {
    let mut report = Report::default();
    let specs = working_set(seed);
    let pid = std::process::id();

    let mut b = boot(out.join(format!("gatherd-{pid}-0")), &specs)?;
    let measured = measure(&mut b, &specs, seed, seconds, trace, out, &mut report);
    shutdown(b);
    measured.map(|tracer| (report, tracer))
}

/// The timed loop(s) and checks on a booted, primed server.
fn measure(
    b: &mut Booted,
    specs: &[ScenarioSpec],
    seed: u64,
    seconds: f64,
    trace: bool,
    out: &Path,
    report: &mut Report,
) -> Result<Option<Tracer>, String> {
    let pid = std::process::id();
    let mut rng = SplitMix64::new(seed.rotate_left(29) ^ 0x41c0_ffee);
    let mut miss_rng = SplitMix64::new(seed.rotate_left(7) ^ 0x3155_0000);
    let mut tracer = Tracer::new();
    // The other set-ups run between rate windows, spread over the run, so
    // they sample the host over the whole run as the loop does: back to
    // back they all fell into one slow or fast stretch of it. Their time
    // is kept out of the windows, and they start after `peak_rss_mib` is
    // read, so a second server's memory stays out of it. Any not yet run
    // when the loop ends run after it.
    let extra_dir = |i: usize| out.join(format!("gatherd-{pid}-{i}"));
    let interval = Duration::from_secs_f64(seconds / SETUPS as f64);
    let mut next_boot = Instant::now() + interval;
    let mut boots = Vec::with_capacity(SETUPS - 1);
    let l = closed_loop(
        b,
        seconds,
        &mut rng,
        &mut miss_rng,
        trace.then_some(&mut tracer),
        report,
        |requests| {
            if boots.len() < SETUPS - 1
                && requests >= RSS_AFTER_REQUESTS
                && Instant::now() >= next_boot
            {
                boots.push(timed_boot(extra_dir(boots.len() + 1), specs));
                next_boot += interval;
            }
        },
    );
    while boots.len() < SETUPS - 1 {
        boots.push(timed_boot(extra_dir(boots.len() + 1), specs));
    }
    let mut walls = vec![b.wall.as_secs_f64()];
    for wall in boots {
        walls.push(wall?);
    }
    let (rr_by_window, rows, op_us) = check_misses(&l, trace.then_some(&mut tracer), report);

    let hit50 = percentile(&l.hit_ms, 0.5)?;
    let hit95 = percentile(&l.hit_ms, 0.95)?;
    let req_rates: Vec<f64> = l.windows.iter().map(|w| w.0).collect();
    let rr_rates: Vec<f64> = l
        .windows
        .iter()
        .zip(&rr_by_window)
        .map(|(w, rr)| rr / w.1)
        .collect();
    let hits = format!("over {} cache hits", hit50.samples);
    report.set_pct("op_p50_ms", hit50.value, hits.clone());
    report.set_pct("op_p95_ms", hit95.value, hits);
    report.set("ops_per_s", median(&req_rates));
    report.set("robot_rounds_per_s", median(&rr_rates));
    report.set_pct(
        "setup_s",
        median(&walls),
        format!("median of {SETUPS} set-ups: {}", seconds_list(&walls)),
    );
    let misses = format!("over {} cache misses", l.miss_ms.len());
    report.set_pct(
        "client.miss_p50_ms",
        percentile(&l.miss_ms, 0.5)?.value,
        misses.clone(),
    );
    report.set_pct(
        "client.miss_p95_ms",
        percentile(&l.miss_ms, 0.95)?.value,
        misses,
    );
    report.notes.push(format!(
        "service-mix: {} requests ({} untraced hits, {} untraced misses) in {} windows of {} \
         requests",
        l.requests,
        l.hit_ms.len(),
        l.miss_ms.len(),
        l.windows.len(),
        WINDOW_CYCLES * CYCLE
    ));
    let shares = l
        .kind_s
        .map(|s| s / l.untraced_wall_s.max(f64::MIN_POSITIVE));
    report.notes.push(format!(
        "share of untraced loop wall time: hits {:.1}%, misses {:.1}%, GET /result {:.1}%, \
         GET /metrics {:.2}%, client bookkeeping {:.1}%",
        shares[0] * 100.0,
        shares[1] * 100.0,
        shares[2] * 100.0,
        shares[3] * 100.0,
        (1.0 - shares.iter().sum::<f64>()) * 100.0
    ));
    report.set("service.hit_wall_share", shares[0]);
    report.set("service.miss_wall_share", shares[1]);
    report.set("service.result_wall_share", shares[2]);
    report.set_pct(
        "peak_rss_mib",
        l.rss_mib,
        format!("after set-up and {RSS_AFTER_REQUESTS} requests"),
    );
    if !trace {
        return Ok(None);
    }

    for (i, name) in ["client.send_us", "client.wait_us", "client.read_us"]
        .into_iter()
        .enumerate()
    {
        report.set(name, percentile(&l.client_us[i], 0.5)?.value);
    }
    for (i, name) in [
        "wire.decode_us",
        "campaign.spec_hash_us",
        "cache.get_us",
        "campaign.row_json_us",
    ]
    .into_iter()
    .enumerate()
    {
        report.set(name, percentile(&l.inproc_us[i], 0.5)?.value);
    }
    report.set("bench.run_scenario_us", percentile(&op_us, 0.5)?.value);

    // ResultCache::insert_or_get on a scratch cache, with the miss rows.
    let scratch = out.join(format!("insert-{pid}"));
    let _ = std::fs::remove_dir_all(&scratch);
    let cache = ResultCache::open(&scratch).map_err(|e| format!("scratch cache: {e}"))?;
    let mut insert_us = Vec::with_capacity(rows.len());
    for (hash, row) in rows {
        let (_, d) = tracer.time("cache.insert", || cache.insert_or_get(&hash, row));
        tracer.flush();
        insert_us.push(us(d));
    }
    drop(cache);
    let _ = std::fs::remove_dir_all(&scratch);
    report.set("cache.insert_us", percentile(&insert_us, 0.5)?.value);

    let m = metrics_json(b)?;
    let hist = |name: &str, key: &str| {
        m.get("histograms")
            .and_then(|h| h.get(name))
            .and_then(|h| h.get(key))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    let counter = |name: &str| {
        m.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
            .unwrap_or(0) as f64
    };
    report.set(
        "gatherd.request_us.run_hit.p50",
        hist("request_us_run_hit", "p50_us"),
    );
    report.set(
        "gatherd.request_us.run_miss.p50",
        hist("request_us_run_miss", "p50_us"),
    );
    report.set("gatherd.queue_wait_us.p50", hist("queue_wait_us", "p50_us"));
    report.set(
        "gatherd.run_duration_us.p50",
        hist("run_duration_us", "p50_us"),
    );
    let lats = b.handle.state().latencies().registry();
    report.set(
        "gatherd.queue_wait_us.p95",
        lats.histogram("queue_wait_us").quantile(0.95) as f64,
    );
    report.set("gatherd.hits", counter("cache_hits"));
    report.set("gatherd.misses", counter("cache_misses"));
    let rejected = counter("rejected");
    report.set("gatherd.rejected", rejected);
    if rejected > 0.0 {
        report
            .problems
            .push(format!("{rejected} requests rejected with 429"));
    }
    report.set("engine.rounds", b.rounds as f64);
    report.set("engine.robot_rounds", b.robot_rounds as f64);
    report.set("engine.merged_robots", b.merged as f64);
    report.set(
        "core.run_merge_ratio",
        b.runs_merged as f64 / b.runs_started.max(1) as f64,
    );
    let traced50 = percentile(&l.traced_hit_ms, 0.5)?;
    let overhead = (traced50.value / hit50.value - 1.0) * 100.0;
    report.set("trace.overhead_pct", overhead);
    report.set("trace.untraced_op_p50_ms", hit50.value);
    report.set("trace.traced_op_p50_ms", traced50.value);
    report.notes.push(format!(
        "tracing overhead: {overhead:+.1}% on the cache-hit p50 ({:.4} ms untraced, \
         {:.4} ms traced)",
        hit50.value, traced50.value
    ));
    Ok(Some(tracer))
}
