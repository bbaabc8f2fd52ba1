//! Follow one global task's journey through the system, event by event.
//!
//! Attaches a trace sink to the simulator, picks the first global task
//! that arrives, and prints its full lifecycle: decomposition, per-node
//! submission with virtual deadlines, each stage's service start and
//! completion with node and time, and the task's finish — the process
//! manager's work made visible. `Replay` folds the trace and tells which
//! stage each served job belongs to.
//!
//! Run with: `cargo run --release --example trace_journey`

use sda::prelude::*;
use sda::sim::trace::{Owner, Replay, RingBufferSink};
use sda::sim::{Simulation, TraceEvent};
use sda::simcore::Engine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = SimConfig {
        duration: 500.0,
        warmup: 0.0,
        ..SimConfig::section8() // the Figure 14 trading pipeline
    }
    .with_strategy(SdaStrategy::eqf_div1());

    let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
    let mut sim = Simulation::new(cfg.clone(), 2024)?;
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(500.0));

    // Replay the trace, following the first global task that arrives
    // (its slot and end-to-end deadline) until it finishes.
    let mut replay = Replay::new(cfg.nodes, cfg.scheduler);
    let mut followed = None;
    for record in handle.records() {
        replay.apply(&record)?;
        let t = record.time.value();
        let Some((slot, deadline)) = followed else {
            if let TraceEvent::GlobalArrived {
                slot,
                leaves,
                deadline,
            } = record.event
            {
                followed = Some((slot, deadline));
                println!(
                    "following global task in slot {slot}: {leaves} subtasks, deadline {deadline:.2}\n"
                );
                println!("t={t:7.2}  task arrives; process manager decomposes the deadline");
            }
            continue;
        };
        match record.event {
            TraceEvent::SubtaskSubmitted {
                slot: s,
                leaf,
                node,
                virtual_deadline,
            } if s == slot => {
                println!(
                    "t={t:7.2}  stage subtask #{leaf} -> node {node}, virtual deadline {:.2} \
                     ({:.2} before the real one)",
                    virtual_deadline.value(),
                    deadline - virtual_deadline
                );
            }
            TraceEvent::ServiceStarted { node, job }
            | TraceEvent::ServiceCompleted { node, job }
            | TraceEvent::Preempted { node, job } => {
                let Some(leaf) = stage(&replay, slot, job) else {
                    continue;
                };
                let what = match record.event {
                    TraceEvent::ServiceStarted { .. } => "starts service",
                    TraceEvent::ServiceCompleted { .. } => "completes",
                    _ => "is preempted",
                };
                println!("t={t:7.2}  stage subtask #{leaf} {what} at node {node}");
            }
            TraceEvent::GlobalFinished { slot: s, missed } if s == slot => {
                println!(
                    "t={t:7.2}  task {} (end-to-end deadline was {deadline:.2})",
                    if missed {
                        "MISSED its deadline"
                    } else {
                        "completed on time"
                    }
                );
                break;
            }
            _ => {}
        }
    }
    println!(
        "\nEach serial stage is assigned on-line from the *actual* completion\n\
         time of its predecessor (EQF), and each parallel fan-out divides its\n\
         stage window by the number of subtasks (DIV-1)."
    );
    Ok(())
}

/// The leaf of the global task in `slot` that job `job` serves, if any.
fn stage(replay: &Replay, slot: usize, job: u64) -> Option<usize> {
    match replay.job(job)?.owner {
        Owner::Subtask { slot: s, leaf } if s == slot => Some(leaf),
        _ => None,
    }
}
