//! End-to-end precedence tests: the process manager must never submit a
//! serial successor before its predecessor completes, verified against
//! the live simulator through the trace facility and [`Replay`].

use sda::prelude::*;
use sda::sim::trace::{Replay, RingBufferSink, SlotState, TraceRecord};
use sda::sim::{Simulation, TraceEvent};
use sda::simcore::Engine;

/// Runs `cfg` to `horizon` and replays its trace, calling `on_submit`
/// with each submission's time, leaf, virtual deadline and the state of
/// its global task just after it. Returns the number of submissions.
fn replayed_submissions(
    cfg: SimConfig,
    seed: u64,
    horizon: f64,
    mut on_submit: impl FnMut(f64, usize, f64, &SlotState),
) -> usize {
    let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
    let mut replay = Replay::new(cfg.nodes, cfg.scheduler);
    let mut sim = Simulation::new(cfg, seed).expect("valid config");
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(horizon));
    let mut submissions = 0;
    for record in handle.records() {
        if let Err(violation) = replay.apply(&record) {
            panic!("{violation}");
        }
        let TraceRecord {
            time,
            event:
                TraceEvent::SubtaskSubmitted {
                    slot,
                    leaf,
                    virtual_deadline,
                    ..
                },
        } = record
        else {
            continue;
        };
        let task = replay.slot(slot).expect("a submission's task is live");
        on_submit(time.value(), leaf, virtual_deadline.value(), task);
        submissions += 1;
    }
    assert_eq!(replay.live_slots(), sim.active_globals());
    submissions
}

#[test]
fn serial_stages_submit_only_after_predecessors_complete() {
    // Pure 4-stage pipelines: leaf k of a global may only be submitted
    // after leaf k-1's node finished serving it. We check the weaker but
    // sufficient property observable from the trace: submissions of one
    // global's leaves are strictly ordered by leaf index.
    let cfg = SimConfig {
        shape: GlobalShape::Spec(sda::model::TaskSpec::pipeline(4)),
        global_slack: sda::simcore::dist::Uniform::new(5.0, 20.0),
        duration: 3_000.0,
        warmup: 0.0,
        ..SimConfig::baseline()
    }
    .with_strategy(SdaStrategy::eqf_ud());
    let mut checked = 0;
    replayed_submissions(cfg, 7, 3_000.0, |_, leaf, _, task| {
        let leaves: Vec<usize> = task.submitted.iter().map(|&(leaf, _)| leaf).collect();
        assert_eq!(
            leaves,
            (0..=leaf).collect::<Vec<_>>(),
            "pipeline leaves must release in order"
        );
        checked += usize::from(leaf > 0);
    });
    assert!(checked > 500, "exercised {checked} stage transitions");
}

#[test]
fn parallel_subtasks_all_submit_at_arrival() {
    // Baseline shape: all 4 subtasks are submitted at the instant the
    // global arrives (no precedence among parallel siblings).
    let cfg = SimConfig {
        duration: 1_000.0,
        warmup: 0.0,
        ..SimConfig::baseline()
    };
    let submissions = replayed_submissions(cfg, 8, 1_000.0, |t, _, _, task| {
        assert_eq!(
            t,
            task.arrival.value(),
            "parallel subtasks submit at arrival"
        );
    });
    assert!(submissions > 400);
}

#[test]
fn virtual_deadlines_in_trace_match_strategy() {
    // Under UD-DIV1 on the baseline shape, every submitted virtual
    // deadline must be arrival + window/4.
    let cfg = SimConfig {
        duration: 500.0,
        warmup: 0.0,
        ..SimConfig::baseline()
    }
    .with_strategy(SdaStrategy::ud_div1());
    let checked = replayed_submissions(cfg, 9, 500.0, |_, _, virtual_deadline, task| {
        let (ar, dl) = (task.arrival.value(), task.deadline.value());
        let expect = ar + (dl - ar) / 4.0;
        assert!(
            (virtual_deadline - expect).abs() < 1e-9,
            "DIV-1 deadline mismatch: got {virtual_deadline} expected {expect}"
        );
    });
    assert!(checked > 200);
}
