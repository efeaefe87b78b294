//! Metric catalogue, order statistics, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Set-up samples taken before the first pass and again after every
/// pass; `setup_s` is the median of all of them. Spreading them over the
/// run keeps the CPU's speed at one moment from deciding the whole figure.
pub const SETUP_SAMPLES_PER_PASS: usize = 2;
/// Shortest time one set-up sample covers. A sample repeats the set-up
/// until this much time has passed and reports the mean set-up time, so
/// a set-up of a few milliseconds is not timed alone against scheduler
/// noise.
pub const SETUP_SAMPLE_S: f64 = 0.05;

/// Takes [`SETUP_SAMPLES_PER_PASS`] set-up samples, pushing the mean
/// set-up time of each onto `times`, and returns the last thing set up.
/// Only `set_up` is timed. Each earlier result goes to `tear_down` before
/// the next set-up, so at most two are alive at once and the peak memory
/// does not grow with the number of repeats.
pub fn timed_setups<T>(
    times: &mut Vec<f64>,
    mut set_up: impl FnMut() -> T,
    mut tear_down: impl FnMut(T),
) -> T {
    let mut last: Option<T> = None;
    for _ in 0..SETUP_SAMPLES_PER_PASS {
        let (mut spent, mut reps) = (0.0, 0u32);
        let sample = Instant::now();
        while reps == 0 || sample.elapsed().as_secs_f64() < SETUP_SAMPLE_S {
            let t = Instant::now();
            let made = set_up();
            spent += t.elapsed().as_secs_f64();
            reps += 1;
            if let Some(old) = last.replace(made) {
                tear_down(old);
            }
        }
        times.push(spent / f64::from(reps));
    }
    last.expect("set up at least once")
}

/// End-to-end metrics (`--trace 0`), printed for every workload.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("scenarios_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("req_p50_ms", "ms"),
    ("req_p99_ms", "ms"),
    ("sim_cycles_per_s", "1/s"),
    ("flit_hops_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), printed for every workload; a layer
/// a workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 53] = [
    ("campaign.enumerate_s", "s"),
    ("campaign.row_s.p50", "s"),
    ("campaign.row_s.p99", "s"),
    ("campaign.parallel_efficiency", "share"),
    ("campaign.digest_s", "s"),
    ("campaign.self_s", "s"),
    ("topology.build_s", "s"),
    ("topology.self_s", "s"),
    ("scheme.build_s", "s"),
    ("scheme.self_s", "s"),
    ("workloads.specs_s", "s"),
    ("workloads.source_s", "s"),
    ("workloads.self_s", "s"),
    ("sim.run_s", "s"),
    ("sim.step_s", "s"),
    ("sim.ns_per_flit_hop", "ns"),
    ("sim.self_s", "s"),
    ("sim.cycles", "count"),
    ("sim.ticks", "count"),
    ("sim.idle_ticks", "count"),
    ("sim.jumped_cycles", "count"),
    ("sim.flit_hops", "count"),
    ("sim.events", "count"),
    ("sim.allocs", "count"),
    ("sim.alloc_bytes", "bytes"),
    ("sim.allocs_per_cycle", "count"),
    ("sim.rows", "count"),
    ("sim.deadlock_rows.sr2201", "count"),
    ("sim.deadlock_rows.separate-dxb", "count"),
    ("sim.deadlock_rows.naive-broadcast", "count"),
    ("sim.deadlock_rows.o1turn", "count"),
    ("reconfig.drive_s", "s"),
    ("reconfig.epochs", "count"),
    ("reconfig.self_s", "s"),
    ("obs.flight_s", "s"),
    ("obs.flight_rows", "count"),
    ("serve.handle_s", "s"),
    ("serve.run_s", "s"),
    ("serve.serialize_s", "s"),
    ("serve.cache_get_s", "s"),
    ("serve.queue_wait_s.p50", "s"),
    ("serve.queue_wait_s.p99", "s"),
    ("serve.self_s", "s"),
    ("serve.requests", "count"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.cache_lookups", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.hit_latency_ms", "ms"),
    ("serve.miss_latency_ms", "ms"),
    ("metrics.snapshot_s", "s"),
    ("metrics.self_s", "s"),
    ("trace.overhead_share", "share"),
    ("trace.spans", "count"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Items attempted (rows, passes or requests, plus whole-workload
    /// checks).
    pub attempted: u64,
    /// Items whose output failed a check.
    pub failed: u64,
    /// Check failures, one line each.
    pub problems: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &str, value: f64) {
        self.metrics.insert(name.to_string(), value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Counts one checked item; a failing one is recorded with `why`.
    pub fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why());
            }
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// The result line: every metric of the requested catalogue, in
    /// catalogue order. End-to-end metrics must all have been measured;
    /// per-layer ones a workload does not reach read 0.
    pub fn result_line(&self, traced: bool) -> String {
        let catalogue: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        let fields: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let v = match self.metrics.get(*name) {
                    Some(v) => *v,
                    None if traced => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                let v = if v.is_finite() { v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            fields.join(", ")
        )
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize;
    v[rank.min(v.len()) - 1]
}

/// The tail latency to report: p99 when at least ten samples lie beyond
/// it (1,000 samples or more), otherwise the maximum. Returns the value and
/// a label naming what it is.
pub fn tail(xs: &[f64]) -> (f64, String) {
    let n = xs.len();
    if n >= 1000 {
        (percentile(xs, 99.0), format!("p99 of {n}"))
    } else {
        let max = xs.iter().copied().fold(0.0, f64::max);
        (
            max,
            format!("max of {n} (too few samples for a p99 with ten beyond it)"),
        )
    }
}

/// Each piece's median time over the passes. `passes[p][i]` is the time
/// piece `i` (a row, or a slice of a run) took in pass `p`; every pass
/// has the same pieces, as the inputs are the same.
///
/// The work of a piece is the same in every pass, and a shared host only
/// ever adds time to it: another tenant's burst slows the pieces it
/// overlaps. Taking the median per piece, not per pass, keeps a burst
/// shorter than a pass from spoiling the whole pass. The median, not the
/// fastest time, because the fastest of a few timings falls as passes
/// are added, so it would move with the number of passes a run fits in.
pub fn median_per_piece(passes: &[Vec<f64>]) -> Vec<f64> {
    let pieces = passes[0].len();
    assert!(
        passes.iter().all(|p| p.len() == pieces),
        "passes split into different pieces"
    );
    (0..pieces)
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// A note listing every pass's wall time, so run-to-run drift can be told
/// from pass-to-pass noise.
pub fn walls_note(walls: &[f64]) -> String {
    let w: Vec<String> = walls.iter().map(|w| format!("{w:.3}")).collect();
    format!("pass wall times (s): {}", w.join(" "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_are_well_formed_and_unique() {
        let ok = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(ok(name), "bad metric name {name}");
            assert!(seen.insert(*name), "duplicate metric name {name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "bad unit {unit}");
        }
    }

    #[test]
    fn benchmark_json_lists_exactly_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let doc: serde::value::Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<(String, String)> {
            let list = doc
                .as_map()
                .and_then(|m| m.iter().find(|(k, _)| k == key))
                .and_then(|(_, v)| v.as_seq())
                .expect("metric list");
            list.iter()
                .map(|m| {
                    let m = m.as_map().expect("metric object");
                    let get = |k: &str| {
                        m.iter()
                            .find(|(kk, _)| kk == k)
                            .and_then(|(_, v)| v.as_str())
                            .expect("string field")
                            .to_string()
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let own = |c: &[(&str, &str)]| -> Vec<(String, String)> {
            c.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end"), own(&END_TO_END));
        assert_eq!(names("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn median_per_piece_takes_each_pieces_median_pass() {
        let passes = vec![
            vec![3.0, 1.0, 5.0],
            vec![2.0, 4.0, 6.0],
            vec![9.0, 9.0, 0.5],
        ];
        assert_eq!(median_per_piece(&passes), vec![3.0, 4.0, 5.0]);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(tail(&xs).0, 1980.0);
        let few: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&few).0, 11.0);
    }
}
