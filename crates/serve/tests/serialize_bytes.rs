//! The serializer streams JSON straight from `Serialize::serialize`. These
//! tests hold it to the bytes of the tree path: render the value into the
//! `Value` data model (`to_value`), then print that tree with the
//! tree-walking writer the shim used before it streamed, kept below as the
//! oracle. Every replay digest is an FNV hash of these bytes, so any
//! difference is a digest change.

use mdx_campaign::{run_scenario_instrumented, ObsOptions, Scenario, ScenarioReport, Workload};
use mdx_core::registry::build_scheme_for;
use mdx_health::Status;
use mdx_obs::{SpanUnit, TraceBuilder};
use mdx_serve::{Request, Response, ServeStats};
use mdx_sim::{SimOutcome, Simulator};
use mdx_workloads::StreamSpec;
use serde::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

// ---- oracle: the tree-walking writer -------------------------------------

fn oracle(v: &Value, indent: Option<usize>) -> String {
    let mut out = String::new();
    write_value(&mut out, v, indent, 0);
    out
}

fn write_indent(out: &mut String, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.push('\n');
        for _ in 0..width * level {
            out.push(' ');
        }
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0C}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_f64(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 1e15 {
        out.push_str(&format!("{v:.1}"));
    } else {
        out.push_str(&format!("{v}"));
    }
}

fn write_value(out: &mut String, v: &Value, indent: Option<usize>, level: usize) {
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(n) => out.push_str(&n.to_string()),
        Value::U64(n) => out.push_str(&n.to_string()),
        Value::F64(f) => write_f64(out, *f),
        Value::Str(s) => write_escaped(out, s),
        Value::Seq(items) => {
            if items.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            write_indent(out, indent, level);
            out.push(']');
        }
        Value::Map(entries) => {
            if entries.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, item)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_indent(out, indent, level + 1);
                write_escaped(out, k);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(out, item, indent, level + 1);
            }
            write_indent(out, indent, level);
            out.push('}');
        }
    }
}

/// Streams `x` compact and pretty and checks both against the oracle;
/// returns the compact text.
fn same_bytes<T: Serialize + ?Sized>(what: &str, x: &T) -> String {
    let tree = serde_json::to_value(x).unwrap();
    let compact = serde_json::to_string(x).unwrap();
    assert_eq!(compact, oracle(&tree, None), "{what}: compact");
    let pretty = serde_json::to_string_pretty(x).unwrap();
    assert_eq!(pretty, oracle(&tree, Some(2)), "{what}: pretty");
    // A `Value` streams back into the same tree (compared as text, since
    // NaN is not equal to itself).
    let again = serde_json::to_value(&tree).unwrap();
    assert_eq!(oracle(&again, None), compact, "{what}: tree");
    compact
}

// ---- simulator and campaign rows -----------------------------------------

/// Fig. 9 on the 12-PE Fig. 2 machine: three simultaneous broadcasts
/// under the naive scheme close a cyclic wait.
fn fig9_naive_storm() -> Scenario {
    let storm = Workload::BroadcastStorm {
        sources: vec![0, 4, 8],
        flits: 16,
    };
    Scenario::new(vec![4, 3], "naive-broadcast", storm, 1)
}

/// A stream whose storm lines fail and repair a crossbar mid-run.
fn storm_stream() -> Scenario {
    let spec = StreamSpec::parse(
        "seed 17\nflits 6\nphase 0..600 uniform rate=0.04\n\
         storm 200 xbar:0:1\nstorm 420 repair xbar:0:1\nhorizon 1200\n",
    )
    .unwrap();
    let mut s = Scenario::new(vec![4, 4], "sr2201", Workload::Stream { spec }, 23);
    s.max_cycles = s.stream_spec().unwrap().horizon;
    s
}

fn every_instrument() -> ObsOptions {
    ObsOptions {
        metrics: true,
        flight: Some(mdx_obs::DEFAULT_FLIGHT_CAPACITY),
        attribution: true,
        latencies: true,
        windows: Some(100),
        ..ObsOptions::default()
    }
}

fn row(s: &Scenario) -> ScenarioReport {
    run_scenario_instrumented(s, &every_instrument()).unwrap().0
}

#[test]
fn deadlocked_sim_result_streams_the_tree_bytes() {
    let s = fig9_naive_storm();
    let shape = s.shape_obj().unwrap();
    let faults = s.fault_set().unwrap();
    let net = s.network().unwrap();
    let scheme = build_scheme_for(&s.scheme, &net, &faults).unwrap();
    let mut cfg = s.sim_config();
    cfg.record_routes = true;
    let mut sim = Simulator::new(net.graph().clone(), scheme, cfg);
    for spec in s.specs(&shape, &faults) {
        sim.schedule(spec);
    }
    let r = sim.run();
    assert!(matches!(r.outcome, SimOutcome::Deadlock(_)));
    assert!(!r.route_names.is_empty());
    same_bytes("deadlocked SimResult", &r);
}

#[test]
fn scenario_rows_stream_the_tree_bytes() {
    let dead = row(&fig9_naive_storm());
    assert!(dead.postmortem.is_some() && dead.attribution.is_some());
    let live = row(&storm_stream());
    assert!(live.reconfig.is_some() && live.attribution.is_some() && live.stream.is_some());
    for (what, r) in [("deadlock row", &dead), ("reconfig row", &live)] {
        same_bytes(what, r);
        same_bytes(what, &r.scenario);
        same_bytes(what, &Response::row(Some(4), false, r.clone()));
    }
    let pm = dead.postmortem.clone().unwrap();
    same_bytes("postmortem response", &Response::postmortem(None, pm));
}

#[test]
fn protocol_values_stream_the_tree_bytes() {
    same_bytes("run request", &Request::run("MDX1.abc").with_id(7));
    let full = Request {
        cmd: "spec".into(),
        id: Some(u64::MAX),
        token: Some("MDX1.x".into()),
        spec: Some("phase 0..100 uniform rate=0.02\nhorizon 200\n".into()),
        shape: Some(vec![4, 4, 2]),
        scheme: Some("sr2201".into()),
        seed: Some(0),
        windows: Some(50),
        force: true,
        digest: Some("b8f1ed4723ec3e8d".into()),
        trace: Some("t-\u{1}\"é".into()),
    };
    let text = same_bytes("full request", &full);
    assert_eq!(serde_json::from_str::<Request>(&text).unwrap(), full);

    let reg = mdx_metrics::Registry::new();
    reg.counter("mdx_requests_total", "requests").inc();
    reg.histogram("mdx_latency_seconds", "latency", &[0.001, 0.01])
        .observe(0.005);
    let mut spans = TraceBuilder::new("trace-1");
    let root = spans.add(None, "request", 0, 40, SpanUnit::Micros);
    spans.add(Some(root), "run", 5, 30, SpanUnit::Micros);
    spans.attr(root, "verb", "run");
    let spans = spans.finish();
    same_bytes("spans", &spans);
    let responses = [
        Response::error(Some(3), "bad token: \"MDX1.\"\n"),
        Response::stats(None, ServeStats::default()),
        Response::metrics(Some(1), reg.snapshot().to_value()),
        Response::ok(None).with_trace(Some("t".into())),
        Response::health(Some(2), serde::to_value(&[Status::Pass, Status::Breach]))
            .with_verdict(Some("warn".into())),
    ];
    for r in &responses {
        same_bytes("response", r);
    }
}

// ---- std containers, scalars and derive shapes ---------------------------

#[derive(Serialize, Deserialize, Debug, PartialEq)]
enum Shape {
    Unit,
    One(u8),
    Pair(i32, String),
    Named { x: f64, tag: Option<String> },
}

#[derive(Serialize)]
struct Empty {}

#[derive(Serialize)]
struct Marker;

#[derive(Serialize)]
struct Wrapper(Vec<u64>);

#[derive(Serialize)]
struct Triple(i8, Option<bool>, ());

#[derive(Serialize)]
struct Everything {
    shapes: Vec<Shape>,
    empty: Empty,
    marker: Marker,
    wrapper: Wrapper,
    triple: Triple,
    nothing: Option<u32>,
    none_vec: Vec<Option<u8>>,
    empty_vec: Vec<u8>,
    char: char,
}

#[test]
fn std_containers_stream_the_tree_bytes() {
    let mut hm: HashMap<String, Vec<u32>> = HashMap::new();
    for i in 0..40u32 {
        hm.insert(format!("k{i}"), (0..i % 4).collect());
    }
    let hs: HashSet<(u8, String)> = (0..30u8).map(|i| (i % 7, format!("s{i}"))).collect();
    let bt: BTreeMap<u64, Option<f64>> = (0..10u64)
        .map(|i| (i * 1_000_000_007, (i % 3 != 0).then_some(i as f64 / 3.0)))
        .collect();
    same_bytes("HashMap", &hm);
    same_bytes("HashSet", &hs);
    same_bytes("BTreeMap", &bt);
    same_bytes("empty HashMap", &HashMap::<u8, u8>::new());
    // Hash order never shows: equal maps built in another order agree.
    let mut rebuilt: HashMap<String, Vec<u32>> = HashMap::with_capacity(1000);
    let mut entries: Vec<_> = hm.clone().into_iter().collect();
    entries.sort();
    rebuilt.extend(entries.into_iter().rev());
    assert_eq!(
        serde_json::to_string(&hm).unwrap(),
        serde_json::to_string(&rebuilt).unwrap()
    );
}

#[test]
fn scalars_stream_the_tree_bytes() {
    let floats = vec![
        f64::NAN,
        0.0,
        -0.0,
        1e15,
        -1e15,
        1e15 - 1.0,
        3.0,
        0.1,
        1e300,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::from(1.5f32),
    ];
    let text = same_bytes("floats", &floats);
    let expected = format!(
        "[null,0.0,-0.0,1000000000000000,-1000000000000000,999999999999999.0,\
         3.0,0.1,1{},null,null,1.5]",
        "0".repeat(300)
    );
    assert_eq!(text, expected);
    let ints: (i64, u64, i8, usize) = (i64::MIN, u64::MAX, -1, 0);
    assert_eq!(
        same_bytes("integers", &ints),
        "[-9223372036854775808,18446744073709551615,-1,0]"
    );
    let text = "ctl \u{0}\u{1}\u{1f}\u{7f} \u{8}\u{c}\n\r\t \"q\" \\ é 中 😀";
    assert_eq!(
        same_bytes("control and non-ASCII text", text),
        "\"ctl \\u0000\\u0001\\u001f\u{7f} \\b\\f\\n\\r\\t \\\"q\\\" \\\\ é 中 😀\""
    );
    same_bytes("bools", &[true, false]);
    same_bytes("unit", &());
}

#[test]
fn derive_shapes_stream_the_tree_bytes() {
    let all = Everything {
        shapes: vec![
            Shape::Unit,
            Shape::One(9),
            Shape::Pair(-4, "p".into()),
            Shape::Named { x: 2.0, tag: None },
            Shape::Named {
                x: 0.25,
                tag: Some("t".into()),
            },
        ],
        empty: Empty {},
        marker: Marker,
        wrapper: Wrapper(vec![]),
        triple: Triple(-1, None, ()),
        nothing: None,
        none_vec: vec![None, Some(1)],
        empty_vec: Vec::new(),
        char: 'ß',
    };
    let text = same_bytes("derive shapes", &all);
    assert!(
        text.starts_with(
            "{\"shapes\":[\"Unit\",{\"One\":9},{\"Pair\":[-4,\"p\"]},\
             {\"Named\":{\"x\":2.0,\"tag\":null}}"
        ),
        "{text}"
    );
    assert!(
        text.contains("\"empty\":{},\"marker\":null,\"wrapper\":[]"),
        "{text}"
    );
    let back: Vec<Shape> =
        serde_json::from_str(&serde_json::to_string(&all.shapes).unwrap()).unwrap();
    assert_eq!(back, all.shapes);
}
