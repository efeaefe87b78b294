//! `serve-mix`: the resident service end to end, driven in-process by
//! closed-loop clients.
//!
//! Every pass goes through the real `mdx_serve::Server` (queue, worker
//! pool, cache, engine, serialization, line writer). The traced pass is
//! the same server with span collection on: its own per-request spans
//! are read back from its span log, and the engine layers of its rows are
//! replayed through [`layers::layered_row`].

use crate::expected::{self, Recorded};
use crate::gen::{self, Slot};
use crate::layers::{self, Clock, EngineTotals};
use crate::report::{median, percentile, tail, timed_setups, walls_note, Outcome};
use crate::Args;
use mdx_campaign::{run_scenario, run_scenario_instrumented, ObsOptions, Scenario};
use mdx_obs::{Span, SpanUnit, DEFAULT_FLIGHT_CAPACITY};
use mdx_serve::{
    Request, Response, ServeConfig, Server, Service, SharedWriter, DEFAULT_CACHE_CAPACITY,
};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Where the traced pass's server writes its span log.
const SERVER_SPAN_LOG: &str = "perfbench/out/serve-mix.server.spans.jsonl";

/// The server's request traces as read back from its span log.
type ServerTraces = Result<Vec<Vec<Span>>, String>;

/// A writer that hands each complete line to a channel: the client's end
/// of the connection.
struct LineSink {
    buf: Vec<u8>,
    tx: Sender<String>,
}

impl Write for LineSink {
    fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
        self.buf.extend_from_slice(bytes);
        while let Some(pos) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line[..line.len() - 1]).into_owned();
            // A client that has gone away no longer needs the line.
            let _ = self.tx.send(text);
        }
        Ok(bytes.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One answered request.
struct Reply {
    idx: usize,
    latency_ms: f64,
    line: String,
}

fn config() -> ServeConfig {
    ServeConfig {
        workers: gen::SERVE_WORKERS,
        cache_capacity: DEFAULT_CACHE_CAPACITY,
        ..ServeConfig::default()
    }
}

fn simple(cmd: &str, id: usize) -> String {
    let req = Request {
        cmd: cmd.to_string(),
        id: Some(id as u64),
        ..Request::default()
    };
    serde_json::to_string(&req).expect("request serializes")
}

/// One closed-loop client: takes the next unsent slot of the shared list,
/// sends it, and waits for the reply before taking another. Sharing one
/// cursor keeps the clients busy until the list is done, whatever the
/// seed puts where.
fn client(
    cursor: &AtomicUsize,
    slots: &[Slot],
    send: &dyn Fn(String),
    rx: &Receiver<String>,
) -> Vec<Reply> {
    let mut replies = Vec::new();
    // Digest of this client's latest freshly simulated deadlock row. Its
    // post-mortem was stored before the reply was written, and only a
    // handful of rows can have failed since, far fewer than the store
    // keeps (`MAX_POSTMORTEMS`).
    let mut fresh_deadlock: Option<String> = None;
    loop {
        let idx = cursor.fetch_add(1, Ordering::Relaxed);
        if idx >= slots.len() {
            break;
        }
        let line = match &slots[idx] {
            Slot::Request(req) => serde_json::to_string(req).expect("request serializes"),
            Slot::Malformed(line) => line.to_string(),
            Slot::PostmortemOrStats => match fresh_deadlock.clone() {
                Some(digest) => serde_json::to_string(&Request {
                    cmd: "postmortem".to_string(),
                    id: Some(idx as u64),
                    digest: Some(digest),
                    ..Request::default()
                })
                .expect("request serializes"),
                None => simple("stats", idx),
            },
        };
        let t = Instant::now();
        send(line);
        let reply = rx.recv().expect("every request gets a reply");
        let latency_ms = t.elapsed().as_secs_f64() * 1e3;
        if reply.contains("\"outcome\":\"deadlock\"") && reply.contains("\"cached\":false") {
            fresh_deadlock = serde_json::from_str::<Response>(&reply)
                .ok()
                .and_then(|r| r.row)
                .map(|row| row.digest)
                .or(fresh_deadlock);
        }
        replies.push(Reply {
            idx,
            latency_ms,
            line: reply,
        });
    }
    replies
}

/// Runs every client against `server` to completion; replies come back
/// in list order.
fn drive(slots: &[Slot], server: &Server) -> Vec<Reply> {
    let cursor = AtomicUsize::new(0);
    let cursor = &cursor;
    let mut all: Vec<Reply> = std::thread::scope(|sc| {
        let handles: Vec<_> = (0..gen::serve_clients())
            .map(|_| {
                sc.spawn(move || {
                    let (tx, rx) = mpsc::channel();
                    let sink: Box<dyn Write + Send> = Box::new(LineSink {
                        buf: Vec::new(),
                        tx,
                    });
                    let writer: SharedWriter = Arc::new(Mutex::new(sink));
                    let send = |line: String| server.submit(line, writer.clone());
                    client(cursor, slots, &send, &rx)
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    all.sort_by_key(|r| r.idx);
    all
}

/// What the checks and metrics need from one pass.
#[derive(Default)]
struct Checked {
    /// Row digests (and `error` for malformed lines) in list order.
    fold: Vec<String>,
    rows: u64,
    hits: u64,
    cycles: u64,
    flit_hops: u64,
    latencies_ms: Vec<f64>,
    /// Latencies of rows served from the cache and of rows simulated
    /// afresh.
    hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
    /// Distinct row tokens with their digest, first-seen order.
    tokens: Vec<(String, String)>,
    /// Replies by response kind.
    kinds: BTreeMap<String, u64>,
}

/// Checks every reply: malformed lines and only they are errors, and every
/// row of a token is byte-identical to the first row seen for it.
fn check_replies(out: &mut Outcome, slots: &[Slot], replies: &[Reply]) -> Checked {
    let mut c = Checked::default();
    let mut seen: BTreeMap<String, String> = BTreeMap::new();
    for r in replies {
        c.latencies_ms.push(r.latency_ms);
        let malformed = matches!(slots[r.idx], Slot::Malformed(_));
        let resp = match serde_json::from_str::<Response>(&r.line) {
            Ok(resp) => resp,
            Err(e) => {
                out.check(false, || {
                    format!("request {}: unparseable reply: {e}", r.idx)
                });
                continue;
            }
        };
        *c.kinds.entry(resp.kind.clone()).or_insert(0) += 1;
        out.check(resp.is_error() == malformed, || {
            format!(
                "request {}: malformed={malformed} but reply kind `{}` ({:?})",
                r.idx, resp.kind, resp.error
            )
        });
        if malformed {
            c.fold.push("error".to_string());
        }
        let Some(row) = resp.row else { continue };
        let bytes = serde_json::to_string(&row).expect("row serializes");
        c.rows += 1;
        if resp.cached == Some(true) {
            c.hits += 1;
            c.hit_ms.push(r.latency_ms);
        } else {
            c.miss_ms.push(r.latency_ms);
            c.cycles += row.stats.cycles;
            c.flit_hops += row.stats.flit_hops;
        }
        match seen.get(&row.token) {
            Some(first) => out.check(*first == bytes, || {
                format!(
                    "request {}: row differs from the first row of its token",
                    r.idx
                )
            }),
            None => {
                c.tokens.push((row.token.clone(), row.digest.clone()));
                seen.insert(row.token.clone(), bytes);
            }
        }
        c.fold.push(row.digest);
    }
    c
}

/// The serve mix's set-up: generating the request list and starting a
/// fresh service and worker pool. The pools are stopped outside the
/// timing.
fn set_up(seed: u64, times: &mut Vec<f64>) {
    let stop = |(_, server): (Vec<Slot>, Server)| server.shutdown();
    let last = timed_setups(
        times,
        || {
            let slots = gen::serve_requests(seed);
            let server = Server::new(Arc::new(Service::new(&config())), gen::SERVE_WORKERS);
            (slots, server)
        },
        stop,
    );
    stop(last);
}

/// One pass through a fresh server with an empty cache: wall time,
/// replies, and the service (for its counters).
fn server_pass(slots: &[Slot], cfg: &ServeConfig) -> (f64, Vec<Reply>, Arc<Service>) {
    let service = Arc::new(Service::new(cfg));
    let server = Server::new(service.clone(), gen::SERVE_WORKERS);
    let t = Instant::now();
    let replies = drive(slots, &server);
    let wall = t.elapsed().as_secs_f64();
    server.shutdown();
    (wall, replies, service)
}

/// The traced pass: the same server with every request's spans kept and
/// logged. Returns the pass wall time, the replies and the server's own
/// request traces, read back from its span log.
fn traced_pass(slots: &[Slot]) -> (f64, Vec<Reply>, ServerTraces) {
    let cfg = ServeConfig {
        span_sample: Some(1.0),
        span_log: Some(PathBuf::from(SERVER_SPAN_LOG)),
        ..config()
    };
    let (wall, replies, _) = server_pass(slots, &cfg);
    (wall, replies, server_traces(Path::new(SERVER_SPAN_LOG)))
}

/// The server's request traces from its span log, with each wall-clock
/// span renamed `<layer>.<what>` for the per-layer totals. The run span's
/// engine phases are engine and workload time; the `handle` span of a
/// `metrics` request is the registry snapshot. The cycle-domain epoch
/// spans are left out: they are not host time.
fn server_traces(log: &Path) -> ServerTraces {
    let text = std::fs::read_to_string(log).map_err(|e| format!("{}: {e}", log.display()))?;
    let spans = mdx_obs::parse_span_log(&text).map_err(|e| e.to_string())?;
    let traces = mdx_obs::group_traces(spans)
        .into_iter()
        .map(|trace| {
            let verb = trace
                .iter()
                .find(|s| s.parent.is_none())
                .and_then(|s| s.attr("verb"))
                .unwrap_or("")
                .to_string();
            trace
                .into_iter()
                .filter(|s| s.unit == SpanUnit::Micros)
                .map(|mut s| {
                    s.name = match s.name.as_str() {
                        "cache" => "serve.cache_get".to_string(),
                        "source" => "workloads.source".to_string(),
                        "step" => "sim.step".to_string(),
                        "probe" => "sim.probe".to_string(),
                        "handle" if verb == "metrics" => "metrics.snapshot".to_string(),
                        other => format!("serve.{other}"),
                    };
                    s
                })
                .collect()
        })
        .collect();
    Ok(traces)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setup_times = Vec::new();
    set_up(args.seed, &mut setup_times);
    let slots = gen::serve_requests(args.seed);
    let mut walls = Vec::new();
    let mut passes: Vec<Checked> = Vec::new();
    let mut service = None;
    let mut traced_passes = Vec::new();
    // Traced passes alternate with untraced ones.
    while passes.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (wall, replies, svc) = server_pass(&slots, &config());
        walls.push(wall);
        set_up(args.seed, &mut setup_times);
        passes.push(check_replies(&mut out, &slots, &replies));
        service = Some(svc);
        if args.trace {
            crate::alloc::enable();
            let (wall, replies, traces) = traced_pass(&slots);
            let checked = check_replies(&mut out, &slots, &replies);
            traced_passes.push((wall, checked, traces));
        }
    }
    let first = &passes[0];
    for p in &passes[1..] {
        out.check(p.fold == first.fold, || {
            "row digests changed between passes".to_string()
        });
    }
    let rec = expected::lookup("serve-mix", args.seed);
    let digest = expected::check_digest(&mut out, rec.as_ref(), &first.fold);
    out.note(expected::record_line(
        "serve-mix",
        args.seed,
        &Recorded {
            digest,
            ..Recorded::default()
        },
    ));
    let stats = service.expect("at least one pass").stats();
    out.note(format!(
        "serve-mix seed {}: {} requests per pass, {} rows ({} cache hits), {} passes, \
         {} clients, {} workers; last pass: {} lookups, {} evictions; replies by kind {:?}",
        args.seed,
        gen::SERVE_REQUESTS,
        first.rows,
        first.hits,
        passes.len(),
        gen::serve_clients(),
        gen::SERVE_WORKERS,
        stats.cache_hits + stats.cache_misses,
        stats.cache_evictions,
        first.kinds
    ));
    let lat: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.latencies_ms.iter().copied())
        .collect();
    if args.trace {
        let lookups = stats.cache_hits + stats.cache_misses;
        out.set("serve.cache_lookups", lookups as f64);
        out.set(
            "serve.cache_hit_ratio",
            stats.cache_hits as f64 / lookups.max(1) as f64,
        );
        out.set("serve.cache_evictions", stats.cache_evictions as f64);
        let mean = |pick: fn(&Checked) -> &Vec<f64>| {
            let xs: Vec<f64> = passes
                .iter()
                .flat_map(|p| pick(p).iter().copied())
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let (hit_ms, miss_ms) = (mean(|p| &p.hit_ms), mean(|p| &p.miss_ms));
        out.set("serve.hit_latency_ms", hit_ms);
        out.set("serve.miss_latency_ms", miss_ms);
        out.note(hit_ratio_note(first, &lat, median(&walls), hit_ms, miss_ms));
        // Every line that parses as a request opens a trace on the
        // traced server.
        let parsed = slots
            .iter()
            .filter(|s| match s {
                Slot::Malformed(line) => serde_json::from_str::<Request>(line).is_ok(),
                _ => true,
            })
            .count();
        return traced(&walls, first, traced_passes, parsed, out);
    }

    let (p99, label) = tail(&lat);
    let per_pass = |f: &dyn Fn(&Checked, f64) -> f64| {
        median(
            &passes
                .iter()
                .zip(&walls)
                .map(|(p, w)| f(p, *w))
                .collect::<Vec<_>>(),
        )
    };
    out.set("setup_s", median(&setup_times));
    out.note(walls_note(&walls));
    out.set("wall_s", median(&walls));
    out.set("scenarios_per_s", per_pass(&|p, w| p.rows as f64 / w));
    out.set(
        "req_per_s",
        per_pass(&|_, w| gen::SERVE_REQUESTS as f64 / w),
    );
    out.set("req_p50_ms", percentile(&lat, 50.0));
    out.set("req_p99_ms", p99);
    out.set("sim_cycles_per_s", per_pass(&|p, w| p.cycles as f64 / w));
    out.set("flit_hops_per_s", per_pass(&|p, w| p.flit_hops as f64 / w));
    out.set("peak_rss_mb", crate::alloc::peak_rss_mb());
    let q: Vec<String> = [10.0, 25.0, 50.0, 60.0, 75.0, 90.0]
        .iter()
        .map(|p| format!("p{p}={:.3}", percentile(&lat, *p)))
        .collect();
    out.note(format!(
        "latency from submit to a fully read reply line (ms: {}); req_p99_ms is the {label}",
        q.join(" ")
    ));
    out
}

/// How `req_per_s` moves with the cache-hit ratio. Each closed-loop
/// client has one request outstanding, so requests per second are the
/// client count over the mean time a client spends per request: the
/// reply latency plus the client's own turnaround. Rows are split into
/// hits and misses at their measured mean latencies; the other requests
/// (verbs, errors) and the turnaround keep their measured cost. The note
/// gives the rate this model predicts at several row hit ratios; at the
/// measured ratio it is the measured rate.
fn hit_ratio_note(first: &Checked, lat: &[f64], wall: f64, hit_ms: f64, miss_ms: f64) -> String {
    let n = gen::SERVE_REQUESTS as f64;
    let rows = first.rows as f64;
    let clients = gen::serve_clients() as f64;
    let mean_ms = lat.iter().sum::<f64>() / lat.len().max(1) as f64;
    let turnaround_ms = clients * wall * 1e3 / n - mean_ms;
    let h = first.hits as f64 / rows.max(1.0);
    let row_ms = |h: f64| h * hit_ms + (1.0 - h) * miss_ms;
    let other_ms = (mean_ms * n - rows * row_ms(h)) / (n - rows).max(1.0);
    let at = |h: f64| {
        let ms = (rows * row_ms(h) + (n - rows) * other_ms) / n + turnaround_ms;
        clients * 1e3 / ms
    };
    let table: Vec<String> = [0.25, 0.5, h, 0.75, 0.9]
        .iter()
        .map(|h| format!("{h:.2}: {:.0}", at(*h)))
        .collect();
    format!(
        "hit ratio of rows {h:.3}; mean latency hit {hit_ms:.3} ms, miss {miss_ms:.3} ms; \
         modelled req_per_s by row hit ratio ({})",
        table.join(", ")
    )
}

fn traced(
    plain_walls: &[f64],
    plain: &Checked,
    passes: Vec<(f64, Checked, ServerTraces)>,
    parsed: usize,
    mut out: Outcome,
) -> Outcome {
    for (_, checked, _) in &passes {
        out.check(checked.fold == plain.fold, || {
            "traced row digests differ from untraced row digests".to_string()
        });
    }
    let traced_walls: Vec<f64> = passes.iter().map(|p| p.0).collect();
    let (plain_wall, wall) = (median(plain_walls), median(&traced_walls));
    out.set("trace.overhead_share", wall / plain_wall - 1.0);
    let (_, checked, served) = passes.into_iter().last().expect("one traced pass");
    let served = match served {
        Ok(traces) => traces,
        Err(e) => {
            out.check(false, || format!("server span log unreadable: {e}"));
            Vec::new()
        }
    };
    out.check(served.len() == parsed, || {
        format!(
            "server logged {} request traces, expected {parsed}",
            served.len()
        )
    });
    let totals = layers::SpanTotals::of(&served);
    for name in ["handle", "run", "serialize", "cache_get"] {
        out.set(
            &format!("serve.{name}_s"),
            totals.total(&format!("serve.{name}")),
        );
    }
    let waits = layers::durations(&served, "serve.queue");
    out.set("serve.queue_wait_s.p50", percentile(&waits, 50.0));
    out.set("serve.queue_wait_s.p99", percentile(&waits, 99.0));
    out.set("serve.requests", served.len() as f64);
    out.set("metrics.snapshot_s", totals.total("metrics.snapshot"));
    let serve_self = |layer: &str| totals.self_by_layer.get(layer).copied().unwrap_or(0.0);
    let (serve_self_s, metrics_self_s) = (serve_self("serve"), serve_self("metrics"));

    // The engine layers of the pass's rows: every distinct row once,
    // layer by layer, plus the same row through the campaign entry point
    // with and without the always-on flight recorder.
    let clock = Clock(Instant::now());
    let distinct: Vec<(usize, String, String)> = checked
        .tokens
        .iter()
        .enumerate()
        .map(|(i, (tok, dig))| (i, tok.clone(), dig.clone()))
        .collect();
    let rows: Vec<_> = distinct
        .into_par_iter()
        .map(|(i, token, digest)| {
            let s = Scenario::from_token(&token).expect("served tokens decode");
            let layered = layers::layered_row(&s, format!("replay-{i}"), clock);
            let t = Instant::now();
            let on = run_scenario_instrumented(
                &s,
                &ObsOptions {
                    flight: Some(DEFAULT_FLIGHT_CAPACITY),
                    ..ObsOptions::default()
                },
            );
            let t_on = t.elapsed().as_secs_f64();
            let t = Instant::now();
            let off = run_scenario(&s);
            let t_off = t.elapsed().as_secs_f64();
            let same = on.is_ok() && off.is_ok();
            (s.scheme, digest, layered, t_on - t_off, same)
        })
        .collect();
    let mut engine = EngineTotals::default();
    let mut flight_s = 0.0;
    let mut replays = Vec::new();
    for (scheme, digest, layered, extra, same) in rows {
        flight_s += extra;
        let ok = same && layered.as_ref().is_ok_and(|l| l.digest == digest);
        out.check(ok, || {
            format!("replayed row {digest} differs from the served row")
        });
        if let Ok(l) = layered {
            engine.add(&scheme, &l);
            replays.push(l.spans);
        }
    }
    out.set("obs.flight_s", flight_s);
    out.set("obs.flight_rows", engine.rows as f64);
    layers::layer_metrics(&mut out, &replays, &engine);
    // The serve and metrics layers are only in the server's traces; the
    // engine layers come from the replays alone, so no row counts twice.
    out.set("serve.self_s", serve_self_s);
    out.set("metrics.self_s", metrics_self_s);
    let mut traces = served;
    traces.extend(replays);
    out.set(
        "trace.spans",
        traces.iter().map(Vec::len).sum::<usize>() as f64,
    );
    match layers::write_traces(&traces, "serve-mix") {
        Ok(paths) => out.note(format!("spans written to {paths}")),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    out.note(format!(
        "traced pass {wall:.3} s vs untraced {plain_wall:.3} s (medians of {}); \
         {} distinct rows replayed layer by layer",
        traced_walls.len(),
        engine.rows
    ));
    out.note(
        "serve.parse_s and serve.cache_put_s are absent: the server opens a request's \
         trace after parsing it, so parse time sits inside serve.queue_wait_s, and it \
         stores a row after closing the run span, so the cache put sits inside \
         serve.serialize_s",
    );
    out
}
