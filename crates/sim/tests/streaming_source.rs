//! The streaming seam: a [`TrafficSource`]-fed run is bit-identical to the
//! same schedule handed over up front, and idle gaps between arrivals
//! fast-forward instead of stepping cycle by cycle, one tick per cycle.

use mdx_core::{Header, Sr2201Routing};
use mdx_fault::FaultSet;
use mdx_sim::{InjectSpec, ScheduleSource, SimConfig, SimOutcome, Simulator};
use mdx_topology::{MdCrossbar, Shape};
use std::sync::Arc;

fn fig2_net() -> Arc<MdCrossbar> {
    Arc::new(MdCrossbar::build(Shape::fig2()))
}

fn sim(net: &Arc<MdCrossbar>, cfg: SimConfig) -> Simulator {
    let scheme = Arc::new(Sr2201Routing::new(net.clone(), &FaultSet::none()).unwrap());
    Simulator::new(net.graph().clone(), scheme, cfg)
}

fn unicast(net: &MdCrossbar, src: usize, dst: usize, flits: usize, at: u64) -> InjectSpec {
    let shape = net.shape();
    InjectSpec {
        src_pe: src,
        header: Header::unicast(shape.coord_of(src), shape.coord_of(dst)),
        flits,
        inject_at: at,
    }
}

/// A contended, staggered schedule: several sources, overlapping windows,
/// same-cycle ties — everything arbitration order is sensitive to.
fn staggered_schedule(net: &MdCrossbar) -> Vec<InjectSpec> {
    let n = net.shape().num_pes();
    let mut specs = Vec::new();
    for i in 0..n {
        specs.push(unicast(net, i, (i + 5) % n, 6, (i as u64 % 4) * 3));
        specs.push(unicast(net, i, (i + n / 2) % n, 4, 20 + (i as u64 % 7)));
    }
    specs
}

#[test]
fn source_run_is_bit_identical_to_batch_run() {
    let net = fig2_net();
    // Time-sorted so both paths number packets identically: the source
    // assigns ids at pull time (arrival order), the batch path at
    // schedule() time. Same-cycle ties keep their relative order (both
    // sorts are stable), so arbitration tie-breaks line up exactly.
    let mut specs = staggered_schedule(&net);
    specs.sort_by_key(|s| s.inject_at);

    let mut batch = sim(&net, SimConfig::default());
    for &s in &specs {
        batch.schedule(s);
    }
    let batch_result = batch.run();

    let mut streamed = sim(&net, SimConfig::default());
    streamed.set_traffic_source(Box::new(ScheduleSource::new(specs.clone())));
    let stream_result = streamed.run();

    assert_eq!(batch_result.outcome, SimOutcome::Completed);
    assert_eq!(batch_result, stream_result);
    assert_eq!(streamed.source_offered(), specs.len());
}

#[test]
fn idle_gaps_fast_forward_to_the_next_arrival() {
    let net = fig2_net();
    // Two bursts separated by a dead window far longer than the watchdog.
    let mut specs = vec![unicast(&net, 0, 11, 5, 0)];
    specs.push(unicast(&net, 3, 8, 5, 50_000));

    let mut s = sim(&net, SimConfig::default());
    s.set_traffic_source(Box::new(ScheduleSource::new(specs)));
    let r = s.run();

    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.stats.delivered, 2);
    // The clock really crossed the gap (no early watchdog stall)...
    assert!(r.stats.cycles >= 50_000, "cycles {}", r.stats.cycles);
    // ...and the second packet kept its scheduled injection instant.
    assert_eq!(r.packets[1].injected_at, 50_000);
    // The self-profile sees the gap for what it is: almost all of this
    // run's ticks were idle (fast-forwarded), which is exactly the
    // headroom an event-driven engine core would reclaim.
    let prof = r.profile.expect("engine runs always carry a profile");
    assert!(
        prof.jumped_cycles >= 45_000,
        "jumped {}",
        prof.jumped_cycles
    );
    assert!(
        prof.idle_tick_fraction() > 0.9,
        "idle fraction {}",
        prof.idle_tick_fraction()
    );
    // Every cycle is one tick, stepped or skipped, never both.
    assert_eq!(prof.ticks(), r.stats.cycles);
    // Occupancy histogram covers every tick.
    assert_eq!(prof.occupancy.iter().sum::<u64>(), prof.ticks());
    assert!(prof.events > 0);
    // Phase timing was not requested.
    assert!(prof.phases.is_none());
}

#[test]
fn phase_timing_splits_the_run_loop_wall_clock() {
    let net = fig2_net();
    let mut s = sim(&net, SimConfig::default());
    for &spec in &staggered_schedule(&net) {
        s.schedule(spec);
    }
    s.set_phase_timing(true);
    let r = s.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    let prof = r.profile.expect("profile is always populated");
    let phases = prof.phases.expect("phase timing was enabled");
    // The step loop dominates; every component is non-negative and the
    // split stays within the total run-loop wall clock.
    assert!(phases.step_s > 0.0);
    assert!(phases.source_s >= 0.0 && phases.probe_s >= 0.0);
    assert!(phases.source_s + phases.step_s + phases.probe_s <= prof.wall_s + 1e-3);
}

#[test]
fn exhausted_source_with_no_schedule_completes_empty() {
    let net = fig2_net();
    let mut s = sim(&net, SimConfig::default());
    s.set_traffic_source(Box::new(ScheduleSource::new(Vec::new())));
    let r = s.run();
    assert_eq!(r.outcome, SimOutcome::Completed);
    assert_eq!(r.packets.len(), 0);
}
