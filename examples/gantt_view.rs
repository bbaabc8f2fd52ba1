//! Visualize node schedules as ASCII Gantt charts: the same workload
//! under UD and under GF, side by side.
//!
//! Under GF, subtasks (which arrive in bursts of 4) cut ahead of queued
//! locals, so the lanes show global work clustering right after each
//! global arrival instead of being interleaved by EDF order.
//!
//! Run with: `cargo run --release --example gantt_view`

use sda::experiments::gantt::render_gantt;
use sda::prelude::*;
use sda::sched::Policy;
use sda::sim::trace::{RingBufferSink, TraceRecord};
use sda::sim::Simulation;
use sda::simcore::Engine;

fn traced(strategy: SdaStrategy, seed: u64) -> Vec<TraceRecord> {
    let cfg = SimConfig {
        load: 0.8, // busy enough that queueing order matters
        duration: 120.0,
        warmup: 0.0,
        ..SimConfig::baseline()
    }
    .with_strategy(strategy);
    let (sink, handle) = RingBufferSink::with_handle(usize::MAX);
    let mut sim = Simulation::new(cfg, seed).expect("valid config");
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(120.0));
    handle.records()
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seed = 11;
    let gf = SdaStrategy {
        ssp: SspStrategy::Ud,
        psp: PspStrategy::gf(),
    };
    println!("== UD: subtasks queue by their (inherited) global deadlines ==");
    let trace = traced(SdaStrategy::ud_ud(), seed);
    print!("{}", render_gantt(&trace, 6, Policy::Edf, 40.0, 100.0, 96)?);
    println!("\n== GF: subtasks always cut ahead of waiting locals ==");
    let trace = traced(gf, seed);
    print!("{}", render_gantt(&trace, 6, Policy::Edf, 40.0, 100.0, 96)?);
    println!(
        "\nSame seed, same workload: only the queueing order differs. Busy\n\
         cells show the serving job id mod 10; '|' marks a within-cell\n\
         service change."
    );
    Ok(())
}
