//! `sweep-faults`: the paper's certification sweep on a 4x4x4 machine.

use crate::expected;
use crate::gen;
use crate::layers::{self, Clock, EngineTotals};
use crate::report::{
    median, median_per_piece, percentile, tail, timed_setups, walls_note, Outcome,
};
use crate::Args;
use mdx_campaign::{run_campaign, run_scenario, CampaignResult, Scenario};
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

/// What one untraced pass produced.
struct Pass {
    wall: f64,
    digests: Vec<String>,
    skipped: usize,
    deadlocks: BTreeMap<String, u64>,
    /// Per row: false when it breaks the paper's claim (an `sr2201` row
    /// that deadlocked).
    paper_ok: Vec<bool>,
    cycles: u64,
    flit_hops: u64,
}

/// Takes the sweep's set-up samples and returns the scenario list.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Vec<Scenario> {
    timed_setups(times, || gen::sweep_scenarios(seed), drop)
}

fn pass(scenarios: &[Scenario]) -> Pass {
    let input = scenarios.to_vec();
    let t = Instant::now();
    let res: CampaignResult = run_campaign(input);
    let wall = t.elapsed().as_secs_f64();
    let mut deadlocks = BTreeMap::new();
    for r in res.deadlocks() {
        *deadlocks.entry(r.scenario.scheme.clone()).or_insert(0) += 1;
    }
    Pass {
        wall,
        digests: res.reports.iter().map(|r| r.digest.clone()).collect(),
        skipped: res.skipped.len(),
        deadlocks,
        paper_ok: res
            .reports
            .iter()
            .map(|r| r.scenario.scheme != "sr2201" || !r.is_deadlock())
            .collect(),
        cycles: res.reports.iter().map(|r| r.stats.cycles).sum(),
        flit_hops: res.reports.iter().map(|r| r.stats.flit_hops).sum(),
    }
}

/// Checks the first pass against the paper's claim on every row (D-XB =
/// S-XB never deadlocks under a single fault) and the recorded digest and
/// deadlock counts, then every later pass against the first, row by row.
fn check_passes(out: &mut Outcome, args: &Args, passes: &[Pass]) {
    let p = &passes[0];
    for (i, ok) in p.paper_ok.iter().enumerate() {
        out.check(*ok, || {
            format!("paper claim broken: sr2201 row {i} deadlocked")
        });
    }
    let rec = expected::lookup("sweep-faults", args.seed);
    let digest = expected::check_digest(out, rec.as_ref(), &p.digests);
    out.note(expected::record_line(
        "sweep-faults",
        args.seed,
        &expected::Recorded {
            digest,
            deadlocks: p.deadlocks.clone(),
        },
    ));
    if let Some(rec) = rec {
        for scheme in gen::SWEEP_SCHEMES {
            let got = p.deadlocks.get(scheme).copied().unwrap_or(0);
            let want = rec.deadlocks.get(scheme).copied().unwrap_or(0);
            out.check(got == want, || {
                format!("{scheme}: {got} deadlock row(s), recorded {want}")
            });
        }
    }
    for later in &passes[1..] {
        for (i, d) in later.digests.iter().enumerate() {
            out.check(p.digests.get(i) == Some(d), || {
                format!("row {i} digest changed between passes")
            });
        }
    }
}

/// One serial pass: every row through `run_scenario`, the campaign
/// runner's per-row entry point, in turn on this thread. Returns each
/// row's time (every scenario, so every pass has the same pieces) and the
/// digests of the rows that ran (unconfigurable rows are skipped, as the
/// runner skips them).
fn serial_pass(scenarios: &[Scenario]) -> (Vec<f64>, Vec<String>) {
    let mut times = Vec::with_capacity(scenarios.len());
    let mut digests = Vec::with_capacity(scenarios.len());
    for s in scenarios {
        let t = Instant::now();
        let row = run_scenario(s);
        times.push(t.elapsed().as_secs_f64());
        if let Ok(row) = row {
            digests.push(row.digest);
        }
    }
    (times, digests)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setup_times = Vec::new();
    let scenarios = set_up(args.seed, &mut setup_times);

    if args.trace {
        return traced(args, &scenarios, out);
    }

    // The whole sweep through `run_campaign` first: its rows are checked
    // against the paper's claim and the recorded values, and it warms the
    // caches and the allocator before anything is timed.
    let campaign = pass(&scenarios);
    set_up(args.seed, &mut setup_times);
    // Then serial passes until the time is up. Each row is timed alone,
    // so a burst of load from another tenant spoils only the rows it
    // overlaps, and each row's median time over the passes is kept.
    let mut serial = Vec::new();
    while serial.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (times, digests) = serial_pass(&scenarios);
        out.check(digests == campaign.digests, || {
            "serial row digests differ from the campaign runner's".to_string()
        });
        serial.push(times);
        set_up(args.seed, &mut setup_times);
    }
    check_passes(&mut out, args, std::slice::from_ref(&campaign));

    let per_piece = median_per_piece(&serial);
    let wall: f64 = per_piece.iter().sum();
    let rows = campaign.digests.len() as f64;
    let lat_ms: Vec<f64> = per_piece.iter().map(|s| s * 1e3).collect();
    let (p99, p99_label) = tail(&lat_ms);
    out.set("setup_s", median(&setup_times));
    out.set("wall_s", wall);
    out.set("scenarios_per_s", rows / wall);
    out.set("req_per_s", rows / wall);
    out.set("req_p50_ms", percentile(&lat_ms, 50.0));
    out.set("req_p99_ms", p99);
    out.set("sim_cycles_per_s", campaign.cycles as f64 / wall);
    out.set("flit_hops_per_s", campaign.flit_hops as f64 / wall);
    out.set("peak_rss_mb", crate::alloc::peak_rss_mb());
    let serial_walls: Vec<f64> = serial.iter().map(|t| t.iter().sum()).collect();
    out.note(format!(
        "sweep-faults seed {}: {rows} rows ({} skipped as unconfigurable); run_campaign pass \
         {:.3} s on {} threads, then {} serial passes",
        args.seed,
        campaign.skipped,
        campaign.wall,
        crate::threads(),
        serial.len(),
    ));
    out.note(walls_note(&serial_walls));
    out.note(format!("deadlock rows by scheme: {:?}", campaign.deadlocks));
    out.note(format!(
        "wall_s is the serial sweep, each row at its median over the serial passes; \
         a request is one row; req_p99_ms is the {p99_label}"
    ));
    out
}

/// One traced pass: the enumeration and every row layer by layer, fanned
/// out on the rayon shim exactly as `run_campaign` fans out.
struct TracedPass {
    wall: f64,
    digests: Vec<String>,
    traces: Vec<Vec<mdx_obs::Span>>,
    engine: EngineTotals,
}

fn traced_pass(seed: u64) -> TracedPass {
    let clock = Clock(Instant::now());
    let t = Instant::now();
    let enumerated = gen::sweep_scenarios(seed);
    let mut setup = mdx_obs::TraceBuilder::new("setup");
    setup.add(
        None,
        "campaign.enumerate",
        clock.us(t),
        clock.now(),
        mdx_obs::SpanUnit::Micros,
    );

    let t = Instant::now();
    let indexed: Vec<(usize, Scenario)> = enumerated.into_iter().enumerate().collect();
    let rows: Vec<(String, Result<layers::LayeredRow, String>)> = indexed
        .into_par_iter()
        .map(|(i, s)| {
            (
                s.scheme.clone(),
                layers::layered_row(&s, format!("row-{i}"), clock),
            )
        })
        .collect();
    let wall = t.elapsed().as_secs_f64();

    let mut p = TracedPass {
        wall,
        digests: Vec::new(),
        traces: vec![setup.finish()],
        engine: EngineTotals::default(),
    };
    // Unconfigurable rows are skipped, as the campaign runner skips them.
    for (scheme, row) in rows {
        if let Ok(row) = row {
            p.engine.add(&scheme, &row);
            p.digests.push(row.digest);
            p.traces.push(row.spans);
        }
    }
    p
}

/// Untraced and traced passes alternate until the time is up; the layer
/// metrics come from the last traced pass.
fn traced(args: &Args, scenarios: &[Scenario], mut out: Outcome) -> Outcome {
    let start = Instant::now();
    let mut plains = Vec::new();
    let mut traced_walls = Vec::new();
    let mut last = None;
    while last.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let plain = pass(scenarios);
        crate::alloc::enable();
        let tr = traced_pass(args.seed);
        out.check(tr.digests == plain.digests, || {
            "traced digests differ from untraced digests".to_string()
        });
        plains.push(plain);
        traced_walls.push(tr.wall);
        last = Some(tr);
    }
    check_passes(&mut out, args, &plains);
    let plain_walls: Vec<f64> = plains.iter().map(|p| p.wall).collect();
    let tr = last.expect("one traced pass");
    layers::layer_metrics(&mut out, &tr.traces, &tr.engine);
    let row_sum: f64 = layers::durations(&tr.traces, "campaign.row").iter().sum();
    let threads = crate::threads() as f64;
    out.set(
        "campaign.parallel_efficiency",
        row_sum / (threads * tr.wall),
    );
    let (plain, traced) = (median(&plain_walls), median(&traced_walls));
    out.set("trace.overhead_share", traced / plain - 1.0);
    match layers::write_traces(&tr.traces, "sweep-faults") {
        Ok(paths) => out.note(format!("spans written to {paths}")),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    out.note(format!(
        "traced pass {traced:.3} s vs untraced {plain:.3} s (medians of {}) over {} rows on {threads} threads",
        traced_walls.len(),
        tr.digests.len()
    ));
    out
}
