//! `stream-2048`: one open-loop `sr2201` stream on the paper's full
//! 16 x 16 x 8 machine.

use crate::expected::{self, Recorded};
use crate::gen;
use crate::layers::{self, Clock, EngineTotals};
use crate::report::{
    median, median_per_piece, percentile, tail, timed_setups, walls_note, Outcome,
};
use crate::Args;
use mdx_campaign::{run_scenario, Scenario, Workload};
use mdx_core::registry::build_scheme_for;
use mdx_obs::{SpanUnit, TraceBuilder};
use mdx_sim::{PhaseEnd, Simulator};
use mdx_workloads::StreamSpec;
use std::time::Instant;

/// Builds the stream scenario from the seed, optionally recording the
/// parse and topology build as spans of a `setup` trace.
fn setup(seed: u64, trace: Option<(&mut TraceBuilder, Clock)>) -> Scenario {
    let t0 = Instant::now();
    let spec = StreamSpec::parse(&gen::stream_spec_text(seed)).expect("stream spec parses");
    let horizon = spec.horizon;
    let mut scenario = Scenario::new(
        gen::STREAM_SHAPE.to_vec(),
        "sr2201",
        Workload::Stream { spec },
        seed,
    );
    // As `campaign serve` does for specs: the horizon is the cycle budget.
    scenario.max_cycles = horizon;
    let t1 = Instant::now();
    // Building the 2048-PE topology once validates the shape up front.
    scenario.network().expect("stream shape builds");
    if let Some((t, clock)) = trace {
        t.add(
            None,
            "workloads.parse",
            clock.us(t0),
            clock.us(t1),
            SpanUnit::Micros,
        );
        t.add(
            None,
            "topology.build",
            clock.us(t1),
            clock.now(),
            SpanUnit::Micros,
        );
    }
    scenario
}

/// Takes the stream's set-up samples and returns the scenario.
fn set_up(seed: u64, times: &mut Vec<f64>) -> Scenario {
    timed_setups(times, || setup(seed, None), drop)
}

struct Pass {
    wall: f64,
    digest: String,
    outcome: String,
    cycles: u64,
    flit_hops: u64,
    idle_ticks: u64,
}

fn pass(s: &Scenario) -> Pass {
    let t = Instant::now();
    let row = run_scenario(s).expect("stream scenario runs");
    let wall = t.elapsed().as_secs_f64();
    Pass {
        wall,
        digest: row.digest,
        outcome: row.outcome,
        cycles: row.stats.cycles,
        flit_hops: row.stats.flit_hops,
        idle_ticks: row.profile.map_or(0, |p| p.idle_ticks),
    }
}

fn check_pass(out: &mut Outcome, p: &Pass, first: &Pass) {
    out.check(p.outcome == "completed", || {
        format!("stream ended `{}`, not `completed`", p.outcome)
    });
    out.check(p.digest == first.digest, || {
        "stream digest changed between passes".to_string()
    });
}

/// Simulated cycles per timed slice of a sliced pass: about 1,100 slices
/// a run, so the slice latency has a p99 with ten slices beyond it.
const SLICE_CYCLES: u64 = 2;

/// One pass built as `run_scenario` builds an uninstrumented row, then
/// driven through the engine's public phase API (`prepare`,
/// `run_phase(stop_at)`, `finalize`) in slices of [`SLICE_CYCLES`].
/// Returns the time of each piece (the build, then each slice; the last
/// slice includes collecting the result and its digest) and the digest.
fn sliced_pass(s: &Scenario) -> (Vec<f64>, String) {
    let mut pieces = Vec::new();
    let mut t = Instant::now();
    let mut lap = |pieces: &mut Vec<f64>| {
        let now = Instant::now();
        pieces.push((now - t).as_secs_f64());
        t = now;
    };
    let shape = s.shape_obj().expect("stream shape is valid");
    let faults = s.fault_set().expect("stream fault set is valid");
    let net = s.network().expect("stream shape builds");
    let scheme = build_scheme_for(&s.scheme, &net, &faults).expect("sr2201 builds");
    let specs = s.specs(&shape, &faults);
    let source = s
        .stream_source(&shape, &faults)
        .expect("stream source builds");
    let mut sim = Simulator::new(net.graph().clone(), scheme, s.sim_config());
    for &spec in &specs {
        sim.schedule(spec);
    }
    if let Some(source) = source {
        sim.set_traffic_source(Box::new(source));
    }
    sim.prepare();
    lap(&mut pieces);
    let end = loop {
        match sim.run_phase(Some(sim.now() + SLICE_CYCLES), false) {
            PhaseEnd::ReachedCycle => lap(&mut pieces),
            end => break end,
        }
    };
    let digest = layers::digest_of(&sim.finalize(end));
    lap(&mut pieces);
    (pieces, digest)
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut setup_times = Vec::new();
    let scenario = set_up(args.seed, &mut setup_times);

    // The program's own entry point runs first: its row is checked and
    // recorded, every later pass must reproduce its digest, and it warms
    // the caches and the allocator before anything is timed.
    let reference = pass(&scenario);
    check_pass(&mut out, &reference, &reference);
    let rec = expected::lookup("stream-2048", args.seed);
    let digests = [reference.digest.clone()];
    let digest = expected::check_digest(&mut out, rec.as_ref(), &digests);
    out.note(expected::record_line(
        "stream-2048",
        args.seed,
        &Recorded {
            digest,
            ..Recorded::default()
        },
    ));
    out.note(format!(
        "stream-2048 seed {}: {} cycles, {} flit-hops, {} idle ticks; run_scenario pass {:.3} s",
        args.seed, reference.cycles, reference.flit_hops, reference.idle_ticks, reference.wall
    ));
    set_up(args.seed, &mut setup_times);

    if args.trace {
        return traced(args, &scenario, start, reference, out);
    }

    // Then sliced passes until the time is up. Each slice is timed alone,
    // so a burst of load from another tenant spoils only the slices it
    // overlaps, and each slice's median time over the passes is kept.
    let mut sliced = Vec::new();
    while sliced.len() < 3 || start.elapsed().as_secs_f64() < args.seconds {
        let (pieces, digest) = sliced_pass(&scenario);
        out.check(digest == reference.digest, || {
            "sliced pass digest differs from run_scenario's".to_string()
        });
        sliced.push(pieces);
        set_up(args.seed, &mut setup_times);
    }
    let per_piece = median_per_piece(&sliced);
    let wall: f64 = per_piece.iter().sum();
    let slice_ms: Vec<f64> = per_piece[1..].iter().map(|s| s * 1e3).collect();
    let (p99, label) = tail(&slice_ms);
    out.set("setup_s", median(&setup_times));
    out.set("wall_s", wall);
    out.set("scenarios_per_s", 1.0 / wall);
    out.set("req_per_s", slice_ms.len() as f64 / wall);
    out.set("req_p50_ms", percentile(&slice_ms, 50.0));
    out.set("req_p99_ms", p99);
    out.set("sim_cycles_per_s", reference.cycles as f64 / wall);
    out.set("flit_hops_per_s", reference.flit_hops as f64 / wall);
    out.set("peak_rss_mb", crate::alloc::peak_rss_mb());
    let walls: Vec<f64> = sliced.iter().map(|p| p.iter().sum()).collect();
    out.note(walls_note(&walls));
    out.note(format!(
        "wall_s is the run, the build and each {SLICE_CYCLES}-cycle slice at its median over \
         {} sliced passes; a request is one slice; req_p99_ms is the {label}",
        sliced.len()
    ));
    out
}

/// Untraced `run_scenario` passes alternate with traced layer-by-layer
/// runs until the time is up; the layer metrics come from the last
/// traced run (only it is kept: a 2048-PE result is big).
fn traced(
    args: &Args,
    scenario: &Scenario,
    start: Instant,
    reference: Pass,
    mut out: Outcome,
) -> Outcome {
    let mut walls = Vec::new();
    let mut traced = Traced::default();
    while traced.last.is_none() || start.elapsed().as_secs_f64() < args.seconds {
        let p = pass(scenario);
        check_pass(&mut out, &p, &reference);
        walls.push(p.wall);
        let run = traced_run(args.seed);
        traced.walls.push(run.wall);
        traced.digests.push(run.row.digest.clone());
        traced.last = Some(run);
    }
    report_traced(&walls, &reference.digest, traced, out)
}

#[derive(Default)]
struct Traced {
    walls: Vec<f64>,
    digests: Vec<String>,
    last: Option<TracedRun>,
}

struct TracedRun {
    wall: f64,
    row: layers::LayeredRow,
    setup: Vec<mdx_obs::Span>,
}

fn traced_run(seed: u64) -> TracedRun {
    crate::alloc::enable();
    let clock = Clock(Instant::now());
    let mut setup_trace = TraceBuilder::new("setup");
    let scenario = setup(seed, Some((&mut setup_trace, clock)));
    let t = Instant::now();
    let row = layers::layered_row(&scenario, "stream".to_string(), clock)
        .expect("stream scenario runs layer by layer");
    TracedRun {
        wall: t.elapsed().as_secs_f64(),
        row,
        setup: setup_trace.finish(),
    }
}

fn report_traced(plain_walls: &[f64], digest: &str, tr: Traced, mut out: Outcome) -> Outcome {
    for d in &tr.digests {
        out.check(d == digest, || {
            "traced digest differs from untraced digest".to_string()
        });
    }
    let traced_walls = tr.walls;
    let last = tr.last.expect("one traced run");
    let mut engine = EngineTotals::default();
    engine.add("sr2201", &last.row);
    let traces = vec![last.setup, last.row.spans];
    layers::layer_metrics(&mut out, &traces, &engine);
    let (plain, traced) = (median(plain_walls), median(&traced_walls));
    out.set("trace.overhead_share", traced / plain - 1.0);
    match layers::write_traces(&traces, "stream-2048") {
        Ok(paths) => out.note(format!("spans written to {paths}")),
        Err(e) => out.note(format!("spans not written: {e}")),
    }
    out.note(format!(
        "traced run {traced:.3} s vs untraced {plain:.3} s (medians of {})",
        traced_walls.len()
    ));
    out
}
