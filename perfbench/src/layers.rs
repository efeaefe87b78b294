//! The traced row pipeline and the per-layer aggregation of its spans.
//!
//! [`layered_row`] runs one scenario through the same public calls that
//! `mdx_campaign::run_scenario` makes, one layer at a time, and records a
//! span around each call with `mdx_obs::TraceBuilder`. Span names are
//! `<layer>.<what>`; the layer is the crate the call enters.

use crate::alloc;
use mdx_campaign::Scenario;
use mdx_core::registry::build_scheme_for;
use mdx_obs::{Span, SpanCollector, SpanUnit, TraceBuilder};
use mdx_reconfig::{drive_reconfig, ReconfigReport};
use mdx_serve::fnv1a64;
use mdx_sim::{SimResult, Simulator};
use std::collections::BTreeMap;
use std::time::Instant;

/// Wall-clock zero shared by every span of a run, in microseconds.
#[derive(Clone, Copy)]
pub struct Clock(pub Instant);

impl Clock {
    pub fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.0).as_micros() as u64
    }

    pub fn now(&self) -> u64 {
        self.us(Instant::now())
    }
}

/// One row run layer by layer.
pub struct LayeredRow {
    pub digest: String,
    pub result: SimResult,
    pub reconfig: Option<ReconfigReport>,
    /// Allocations and bytes requested inside the engine run, on the
    /// running thread.
    pub allocs: (u64, u64),
    pub spans: Vec<Span>,
}

/// The campaign replay digest: FNV-1a over the serialized engine result.
pub fn digest_of(result: &SimResult) -> String {
    let json = serde_json::to_string(result).expect("sim result serializes");
    format!("{:016x}", fnv1a64(json.as_bytes()))
}

/// Runs `s` layer by layer under trace `trace`. `Err` carries the reason
/// the scenario cannot run (the campaign runner skips those rows too).
pub fn layered_row(s: &Scenario, trace: String, clock: Clock) -> Result<LayeredRow, String> {
    let mut t = TraceBuilder::new(trace);
    let start = clock.now();
    let root = t.add(None, "campaign.row", start, start, SpanUnit::Micros);
    let mut at = start;
    // Closes a child of `parent` from the previous boundary to now.
    let span = |t: &mut TraceBuilder, at: &mut u64, parent: u64, name: &str| {
        let end = clock.now();
        let id = t.add(Some(parent), name, *at, end, SpanUnit::Micros);
        *at = end;
        id
    };

    let shape = s.shape_obj().map_err(|e| e.to_string())?;
    let faults = s.fault_set().map_err(|e| e.to_string())?;
    let net = s.network().map_err(|e| e.to_string())?;
    span(&mut t, &mut at, root, "topology.build");

    let scheme = build_scheme_for(&s.scheme, &net, &faults).map_err(|e| e.to_string())?;
    span(&mut t, &mut at, root, "scheme.build");

    let specs = s.specs(&shape, &faults);
    let source = s
        .stream_source(&shape, &faults)
        .map_err(|e| e.to_string())?;
    span(&mut t, &mut at, root, "workloads.specs");

    let mut sim = Simulator::new(net.graph().clone(), scheme, s.sim_config());
    sim.set_phase_timing(true);
    for &spec in &specs {
        sim.schedule(spec);
    }
    if let Some(source) = source {
        sim.set_traffic_source(Box::new(source));
    }
    span(&mut t, &mut at, root, "sim.build");

    let run_start = at;
    let a0 = alloc::thread_counts();
    let (result, reconfig, run_name) = match s.effective_reconfig() {
        Some(spec) => {
            let mdx = net
                .as_mdx()
                .ok_or("live reconfiguration requires the mdx topology")?;
            let out = drive_reconfig(&mut sim, mdx, &s.scheme, &faults, &spec)
                .map_err(|e| e.to_string())?;
            (out.result, Some(out.report), "reconfig.drive")
        }
        None => (sim.run(), None, "sim.run"),
    };
    let a1 = alloc::thread_counts();
    let run = span(&mut t, &mut at, root, run_name);
    let run_end = at;
    // The engine's own phase split, laid end to end inside the run span:
    // pulling the traffic source is workload-layer time, stepping and
    // probing are engine time.
    if let Some(split) = result.profile.as_ref().and_then(|p| p.phases) {
        let mut p = run_start;
        for (name, secs) in [
            ("workloads.source", split.source_s),
            ("sim.step", split.step_s),
            ("sim.probe", split.probe_s),
        ] {
            let end = (p + (secs * 1e6) as u64).min(run_end);
            t.add(Some(run), name, p, end, SpanUnit::Micros);
            p = end;
        }
    }

    let digest = digest_of(&result);
    span(&mut t, &mut at, root, "campaign.digest");
    t.set_end(root, at);
    t.attr(root, "token", s.token());
    t.attr(root, "digest", digest.clone());
    Ok(LayeredRow {
        digest,
        result,
        reconfig,
        allocs: (a1.0 - a0.0, a1.1 - a0.1),
        spans: t.finish(),
    })
}

/// Sums over a set of traces: total seconds per span name and self
/// seconds per layer (span time minus the part its children cover).
#[derive(Default)]
pub struct SpanTotals {
    pub by_name: BTreeMap<String, f64>,
    pub self_by_layer: BTreeMap<String, f64>,
    pub spans: usize,
}

impl SpanTotals {
    pub fn of(traces: &[Vec<Span>]) -> SpanTotals {
        let mut out = SpanTotals::default();
        for trace in traces {
            for s in trace {
                out.spans += 1;
                let d = s.duration() as f64 / 1e6;
                *out.by_name.entry(s.name.clone()).or_default() += d;
                let layer = s.name.split('.').next().unwrap_or("").to_string();
                let children: Vec<(u64, u64)> = trace
                    .iter()
                    .filter(|c| c.parent == Some(s.id))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .collect();
                let own = s.duration().saturating_sub(covered(children));
                *out.self_by_layer.entry(layer).or_default() += own as f64 / 1e6;
            }
        }
        out
    }

    pub fn total(&self, name: &str) -> f64 {
        self.by_name.get(name).copied().unwrap_or(0.0)
    }
}

/// Span durations (seconds) of every span named `name`.
pub fn durations(traces: &[Vec<Span>], name: &str) -> Vec<f64> {
    traces
        .iter()
        .flatten()
        .filter(|s| s.name == name)
        .map(|s| s.duration() as f64 / 1e6)
        .collect()
}

/// Length of the union of half-open intervals.
fn covered(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.retain(|(a, b)| b > a);
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Writes the traces through the repository's own span sinks: the
/// collector's JSONL span log and the Perfetto exporter.
pub fn write_traces(traces: &[Vec<Span>], stem: &str) -> std::io::Result<String> {
    let dir = std::path::Path::new("perfbench/out");
    let log = dir.join(format!("{stem}.spans.jsonl"));
    let perfetto = dir.join(format!("{stem}.perfetto.json"));
    // The log is written as traces are offered; the ring keeps only one.
    let collector = SpanCollector::new(1.0).with_capacity(1).with_log(&log)?;
    for t in traces {
        collector.offer(t.clone());
    }
    std::fs::write(&perfetto, mdx_obs::spans_to_perfetto(traces))?;
    Ok(format!("{} and {}", log.display(), perfetto.display()))
}

/// Engine counters summed over rows.
#[derive(Default)]
pub struct EngineTotals {
    pub rows: u64,
    pub cycles: u64,
    pub ticks: u64,
    pub idle_ticks: u64,
    pub jumped_cycles: u64,
    pub flit_hops: u64,
    pub events: u64,
    pub step_s: f64,
    pub allocs: u64,
    pub alloc_bytes: u64,
    pub epochs: u64,
    pub deadlocks: BTreeMap<String, u64>,
}

impl EngineTotals {
    pub fn add(&mut self, scheme: &str, row: &LayeredRow) {
        let r = &row.result;
        self.rows += 1;
        self.cycles += r.stats.cycles;
        self.flit_hops += r.stats.flit_hops;
        if let Some(p) = &r.profile {
            self.ticks += p.ticks();
            self.idle_ticks += p.idle_ticks();
            self.jumped_cycles += p.jumped_cycles;
            self.events += p.events;
            self.step_s += p.phases.map_or(0.0, |ph| ph.step_s);
        }
        self.allocs += row.allocs.0;
        self.alloc_bytes += row.allocs.1;
        self.epochs += row.reconfig.as_ref().map_or(0, |rc| rc.epochs.len() as u64);
        if r.outcome.is_deadlock() {
            *self.deadlocks.entry(scheme.to_string()).or_default() += 1;
        }
    }
}

/// The per-layer metrics every traced workload reports from its layered
/// rows and their spans.
pub fn layer_metrics(
    out: &mut crate::report::Outcome,
    traces: &[Vec<Span>],
    engine: &EngineTotals,
) {
    let totals = SpanTotals::of(traces);
    let rows = durations(traces, "campaign.row");
    out.set("campaign.row_s.p50", crate::report::percentile(&rows, 50.0));
    out.set("campaign.row_s.p99", crate::report::percentile(&rows, 99.0));
    out.set("campaign.enumerate_s", totals.total("campaign.enumerate"));
    out.set("campaign.digest_s", totals.total("campaign.digest"));
    out.set("topology.build_s", totals.total("topology.build"));
    out.set("scheme.build_s", totals.total("scheme.build"));
    out.set("workloads.specs_s", totals.total("workloads.specs"));
    out.set("workloads.source_s", totals.total("workloads.source"));
    let run_s = totals.total("sim.run") + totals.total("reconfig.drive");
    out.set("sim.run_s", run_s);
    out.set("sim.step_s", engine.step_s);
    if engine.flit_hops > 0 {
        out.set("sim.ns_per_flit_hop", run_s * 1e9 / engine.flit_hops as f64);
    }
    out.set("reconfig.drive_s", totals.total("reconfig.drive"));
    out.set("reconfig.epochs", engine.epochs as f64);
    for (name, v) in [
        ("sim.rows", engine.rows),
        ("sim.cycles", engine.cycles),
        ("sim.ticks", engine.ticks),
        ("sim.idle_ticks", engine.idle_ticks),
        ("sim.jumped_cycles", engine.jumped_cycles),
        ("sim.flit_hops", engine.flit_hops),
        ("sim.events", engine.events),
        ("sim.allocs", engine.allocs),
        ("sim.alloc_bytes", engine.alloc_bytes),
    ] {
        out.set(name, v as f64);
    }
    if engine.cycles > 0 {
        out.set(
            "sim.allocs_per_cycle",
            engine.allocs as f64 / engine.cycles as f64,
        );
    }
    for scheme in crate::gen::SWEEP_SCHEMES {
        let n = engine.deadlocks.get(scheme).copied().unwrap_or(0);
        out.set(&format!("sim.deadlock_rows.{scheme}"), n as f64);
    }
    for (layer, secs) in &totals.self_by_layer {
        out.set(&format!("{layer}.self_s"), *secs);
    }
    out.set("trace.spans", totals.spans as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_merges_overlaps() {
        assert_eq!(covered(vec![(0, 5), (3, 8), (10, 12), (12, 12)]), 10);
        assert_eq!(covered(vec![]), 0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = TraceBuilder::new("x");
        let root = t.add(None, "campaign.row", 0, 100, SpanUnit::Micros);
        t.add(Some(root), "sim.run", 10, 70, SpanUnit::Micros);
        t.add(Some(root), "campaign.digest", 70, 80, SpanUnit::Micros);
        let totals = SpanTotals::of(&[t.finish()]);
        assert!((totals.self_by_layer["campaign"] - 40e-6).abs() < 1e-12);
        assert!((totals.self_by_layer["sim"] - 60e-6).abs() < 1e-12);
    }
}
