//! The engine's frozen-state fast-forward is exact: rows that spend most
//! of their cycles frozen (a deadlock waiting out the watchdog, a drain
//! going quiet, a stream between arrivals) keep the replay digest, the
//! deadlock cycle, the serialized engine profile and the stall-probe
//! cycles that the cycle-by-cycle loop produced. The pinned values below
//! were recorded with that loop, before the fast-forward existed; the one
//! deliberate difference is noted at the storm stream.

use mdx_campaign::{
    run_scenario, run_scenario_instrumented, ObsOptions, RowProfile, Scenario, ScenarioReport,
    Workload,
};
use mdx_core::registry::build_scheme_for;
use mdx_sim::{SimOutcome, Simulator};
use mdx_workloads::StreamSpec;

/// Fig. 9 on the 12-PE Fig. 2 machine: three simultaneous broadcasts
/// under the naive scheme close a cyclic wait.
fn fig9_naive_storm() -> Scenario {
    let storm = Workload::BroadcastStorm {
        sources: vec![0, 4, 8],
        flits: 16,
    };
    Scenario::new(vec![4, 3], "naive-broadcast", storm, 1)
}

/// An `o1turn` row: the engine's two-lane path, with a dead PE.
const O1TURN_TOKEN: &str = "MDX1.eyJzaGFwZSI6WzQsNF0sInNjaGVtZSI6Im8xdHVybiIsImZhdWx0cyI6W3siUGUiOjN9XSwid29ya2xvYWQiOnsiTWl4ZWQiOnsicGF0dGVybiI6IlRyYW5zcG9zZSIsInJhdGUiOjAuMDUsInBhY2tldF9mbGl0cyI6OCwid2luZG93IjoxMDAsImJyb2FkY2FzdF9yYXRlIjowLjB9fSwic2VlZCI6NDIsImJ1ZmZlcl9mbGl0cyI6MiwibWF4X2N5Y2xlcyI6NTAwMDB9";

/// A live-reconfiguration stream: each storm line runs the epoch
/// protocol, whose drain phases end on the drain-quiet deadline.
const STORM_SPEC: &str = "\
seed 17
flits 6
phase 0..600 uniform rate=0.04
storm 200 xbar:0:1
storm 420 repair xbar:0:1
horizon 1200
";

fn storm_stream() -> Scenario {
    let spec = StreamSpec::parse(STORM_SPEC).expect("spec parses");
    let mut s = Scenario::new(vec![4, 4], "sr2201", Workload::Stream { spec }, 23);
    s.max_cycles = s.stream_spec().unwrap().horizon;
    s
}

/// Cycle the Fig. 9 row's watchdog confirms the deadlock.
const FIG9_AT: u64 = 1033;

fn profile_json(row: &ScenarioReport) -> String {
    let p: &RowProfile = row.profile.as_ref().expect("fresh rows carry a profile");
    serde_json::to_string(p).expect("profile serializes")
}

fn detected_at(row: &ScenarioReport) -> Option<u64> {
    row.deadlock.as_ref().map(|d| d.detected_at)
}

#[test]
fn fig9_naive_deadlock_row_is_unchanged() {
    let row = run_scenario(&fig9_naive_storm()).expect("row runs");
    assert_eq!(row.outcome, "deadlock");
    assert_eq!(row.digest, "b8f1ed4723ec3e8d");
    assert_eq!(detected_at(&row), Some(FIG9_AT));
    assert_eq!(
        profile_json(&row),
        r#"{"cycles":1033,"ticks":1034,"idle_ticks":1024,"idle_tick_fraction":0.9903288201160542,"events_per_cycle":0.1887705711519845,"occupancy":[0,0,0,1034,0,0,0,0,0,0]}"#
    );
}

#[test]
fn deadlocking_row_steps_far_fewer_cycles_than_it_ticks() {
    let s = fig9_naive_storm();
    let shape = s.shape_obj().unwrap();
    let faults = s.fault_set().unwrap();
    let net = s.network().unwrap();
    let scheme = build_scheme_for(&s.scheme, &net, &faults).unwrap();
    let mut sim = Simulator::new(net.graph().clone(), scheme, s.sim_config());
    for spec in s.specs(&shape, &faults) {
        sim.schedule(spec);
    }
    let r = sim.run();
    assert!(matches!(r.outcome, SimOutcome::Deadlock(_)));
    let p = r.profile.expect("engine runs carry a profile");
    // The watchdog countdown (1024 frozen cycles) is skipped, not stepped.
    assert_eq!(p.ticks(), r.stats.cycles + 1);
    assert!(p.jumped_cycles >= 1000, "jumped {}", p.jumped_cycles);
    assert!(
        p.steps * 4 < p.ticks(),
        "steps {} ticks {}",
        p.steps,
        p.ticks()
    );
}

#[test]
fn o1turn_two_lane_row_is_unchanged() {
    let s = Scenario::from_token(O1TURN_TOKEN).expect("token parses");
    let row = run_scenario(&s).expect("row runs");
    assert_eq!(row.digest, "2147b46042990192");
    assert_eq!(detected_at(&row), None);
    assert_eq!(
        profile_json(&row),
        r#"{"cycles":122,"ticks":122,"idle_ticks":2,"idle_tick_fraction":0.01639344262295082,"events_per_cycle":22.57377049180328,"occupancy":[3,7,3,11,51,47,0,0,0,0]}"#
    );
}

#[test]
fn live_reconfiguration_stream_is_unchanged() {
    let row = run_scenario(&storm_stream()).expect("row runs");
    let reconfig = row
        .reconfig
        .as_ref()
        .expect("storm lines drive the epoch protocol");
    let reconfig = serde_json::to_string(reconfig).unwrap();
    assert_eq!(row.digest, "686596d9e2300b2a");
    // One open-loop gap: the old empty-network jump credited it one tick
    // the loop never ran (617 ticks, 66 idle, 69 in bucket 0).
    assert_eq!(
        profile_json(&row),
        r#"{"cycles":616,"ticks":616,"idle_ticks":65,"idle_tick_fraction":0.10551948051948051,"events_per_cycle":20.780844155844157,"occupancy":[68,11,11,38,114,256,116,2,0,0]}"#
    );
    assert_eq!(
        reconfig,
        r#"{"policy":"reinject","epochs":[{"epoch":1,"event_at":200,"events":["inject X1-XB @ 200"],"victims":2,"rerouted":0,"reinjected":2,"abandoned":0,"detect_cycles":8,"drain_cycles":12,"reprogram_cycles":32,"resumed_at":252,"disconnected_pairs":0},{"epoch":2,"event_at":420,"events":["repair X1-XB @ 420"],"victims":0,"rerouted":0,"reinjected":0,"abandoned":0,"detect_cycles":8,"drain_cycles":12,"reprogram_cycles":32,"resumed_at":472,"disconnected_pairs":0}],"transition":{"snapshots":79,"mixed_edges":0,"max_epochs_coexisting":1,"single_epoch_cycles":0,"violations":[]},"victims_total":2,"reinjected_total":2,"recovered":2,"lost":0}"#
    );
}

#[test]
fn stall_probe_fires_on_the_same_cycles() {
    let opts = ObsOptions {
        stall_probe: Some(50),
        ..ObsOptions::default()
    };
    let (row, telemetry) = run_scenario_instrumented(&fig9_naive_storm(), &opts).expect("row runs");
    let stall = telemetry.stall.expect("stall probe attached");
    let samples = serde_json::to_string(&stall.samples).unwrap();
    assert_eq!(row.digest, "b8f1ed4723ec3e8d");
    // One sample per multiple of 50 up to 1000, each at its own cycle.
    assert_eq!(
        samples,
        r#"[{"now":0,"waiting":0,"longest_chain":0,"has_cycle":false,"max_wait":0},{"now":50,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":46},{"now":100,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":96},{"now":150,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":146},{"now":200,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":196},{"now":250,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":246},{"now":300,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":296},{"now":350,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":346},{"now":400,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":396},{"now":450,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":446},{"now":500,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":496},{"now":550,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":546},{"now":600,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":596},{"now":650,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":646},{"now":700,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":696},{"now":750,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":746},{"now":800,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":796},{"now":850,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":846},{"now":900,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":896},{"now":950,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":946},{"now":1000,"waiting":18,"longest_chain":3,"has_cycle":true,"max_wait":996}]"#
    );
    assert_eq!(stall.deadlock_at, Some(FIG9_AT));
}
