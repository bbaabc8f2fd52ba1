//! The two discrete-event workloads, `fig5_baseline` and
//! `sec8_eqf_faults`: single-threaded replications driven straight
//! through `Simulation::new`, `prime` and `Engine::run_until`.
//!
//! A replication is set up (construction, `prime`, and the run through
//! the warm-up, where pools and tables fill) and then runs its measured
//! window as [`SLICES`] equal slices of simulated time, each one timed.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sda_core::{DecompTemplate, Decomposition, Release};
use sda_model::TaskSpec;
use sda_sched::{QueuedTask, ReadyQueue};
use sda_sim::{
    AbortPolicy, CountingSink, CrashPolicy, Ev, FaultConfig, GlobalShape, Metrics, Runner,
    SimConfig, Simulation, StopRule,
};
use sda_simcore::rng::Rng;
use sda_simcore::stats::NodeStats;
use sda_simcore::{Engine, Model, SimTime};

use crate::report::{nproc, peak_rss_mb};
use crate::shadow::{ShadowQueues, ShadowSink};
use crate::{median, quantile, ratio, replication_seed, Args, Reference, Run};

/// Simulated time of one replication: the paper's run length (§5).
pub const HORIZON: f64 = 1_000_000.0;
/// Tasks arriving earlier are not counted; the run up to here is set-up.
pub const WARMUP: f64 = 20_000.0;
/// Equal slices of the measured window, each timed on its own.
pub const SLICES: u32 = 500;
/// Rounds per untraced run at the least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 3;
/// Timed rounds of each microbenchmark (after one untimed round).
const ROUNDS: usize = 7;

/// The event kinds, as the per-layer `sim.handle.<kind>` metrics name
/// them, in `Ev` declaration order.
pub const KINDS: [&str; 9] = [
    "local_arrival",
    "global_arrival",
    "service_complete",
    "pm_abort_local",
    "pm_abort_global",
    "in_service_deadline",
    "node_crash",
    "node_recover",
    "comm_release",
];

fn kind_of(event: &Ev) -> usize {
    match event {
        Ev::LocalArrival { .. } => 0,
        Ev::GlobalArrival => 1,
        Ev::ServiceComplete { .. } => 2,
        Ev::PmAbortLocal { .. } => 3,
        Ev::PmAbortGlobal { .. } => 4,
        Ev::InServiceDeadline { .. } => 5,
        Ev::NodeCrash { .. } => 6,
        Ev::NodeRecover { .. } => 7,
        Ev::CommRelease { .. } => 8,
    }
}

/// The configuration a workload hands the program.
///
/// # Errors
///
/// Returns a message for a name that is not a discrete-event workload.
pub fn config(workload: &str) -> Result<SimConfig, String> {
    match workload {
        // Table 1: k = 6, load 0.5, 4-way parallel globals, UD-UD, EDF,
        // no abortion, no faults.
        "fig5_baseline" => Ok(SimConfig {
            duration: HORIZON,
            warmup: WARMUP,
            ..SimConfig::baseline()
        }),
        // Figure 14's five-stage pipeline (11 leaves) under EQF-DIV1 at
        // load 0.7, with process-manager abortion and every fault class.
        "sec8_eqf_faults" => Ok(SimConfig {
            load: 0.7,
            strategy: sda_core::SdaStrategy::eqf_div1(),
            abort: AbortPolicy::ProcessManager,
            fault: FaultConfig {
                mttf: 500.0,
                mttr: 25.0,
                crash_policy: CrashPolicy::RequeueSubtask,
                straggler_prob: 0.05,
                straggler_factor: 4.0,
                comm_delay_prob: 0.10,
                comm_delay_mean: 0.5,
            },
            duration: HORIZON,
            warmup: WARMUP,
            ..SimConfig::section8()
        }),
        other => Err(format!("{other} is not a discrete-event workload")),
    }
}

/// A replication's fingerprint: its event count and its integer outcome
/// counts. Float statistics are left out, so a change that reorders a
/// float summation still matches.
pub fn fingerprint(events: u64, m: &Metrics) -> String {
    let mut out = format!(
        "events={events},local={}/{},subtask={}/{}",
        m.local_md.missed(),
        m.local_md.total(),
        m.subtask_md.missed(),
        m.subtask_md.total()
    );
    for (n, counter) in &m.global_md {
        out.push_str(&format!(
            ",global{n}={}/{}",
            counter.missed(),
            counter.total()
        ));
    }
    out.push_str(&format!(
        ",aborted={}/{},crashes={},requeues={},stragglers={},comm_delays={}",
        m.aborted_locals,
        m.aborted_globals,
        m.node_crashes,
        m.crash_requeues,
        m.straggler_inflations,
        m.comm_delays
    ));
    out
}

/// The fingerprint of one replication run by the program's own
/// [`Runner`].
pub fn runner_fingerprint(cfg: &SimConfig, seed: u64) -> String {
    let multi = Runner::new(cfg.clone())
        .with_seeds(vec![seed])
        .jobs(1)
        .stop(StopRule::FixedReps(1))
        .execute()
        .expect("benchmark configurations validate");
    let run = &multi.runs()[0];
    fingerprint(run.events, &run.metrics)
}

fn simulation(cfg: &SimConfig, seed: u64) -> Simulation {
    Simulation::new(cfg.clone(), seed).expect("benchmark configurations validate")
}

fn slice_end(cfg: &SimConfig, i: u32) -> SimTime {
    if i == SLICES {
        SimTime::from(cfg.duration)
    } else {
        SimTime::from(cfg.warmup + (cfg.duration - cfg.warmup) * f64::from(i) / f64::from(SLICES))
    }
}

/// Runs the measured window slice by slice, appending each slice's
/// (events, wall time); returns the window's totals.
fn run_window<M: Model<Event = Ev>>(
    engine: &mut Engine<Ev>,
    model: &mut M,
    cfg: &SimConfig,
    slices: &mut Vec<(u64, Duration)>,
) -> (u64, Duration) {
    let (mut events, mut wall) = (0, Duration::ZERO);
    for i in 1..=SLICES {
        let start = Instant::now();
        let n = engine.run_until(model, slice_end(cfg, i));
        let took = start.elapsed();
        events += n;
        wall += took;
        slices.push((n, took));
    }
    (events, wall)
}

/// One untraced replication.
struct Pass {
    setup: Duration,
    total: Duration,
    events: u64,
    wall: Duration,
    fingerprint: String,
}

fn untraced_pass(cfg: &SimConfig, seed: u64, slices: &mut Vec<(u64, Duration)>) -> Pass {
    let start = Instant::now();
    let mut sim = simulation(cfg, seed);
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.warmup));
    let setup = start.elapsed();
    let (events, wall) = run_window(&mut engine, &mut sim, cfg, slices);
    let total = start.elapsed();
    Pass {
        setup,
        total,
        events,
        wall,
        fingerprint: fingerprint(engine.events_processed(), sim.metrics()),
    }
}

/// The untraced run: rounds of replications of the same seed until
/// `--seconds` have passed, every replication checked against the
/// expected fingerprint.
///
/// A round runs one replication per processor at once, each on its own
/// thread, as the program's runner runs them. Each figure is the mean
/// over a round's copies, which hold the same events slice by slice, and
/// the run reports its median over rounds. A lone thread stays on one
/// processor for a whole run, and on a shared host one processor can run
/// at two thirds the speed of the other for minutes; the mean over copies
/// keeps that from deciding a run's figures.
///
/// # Errors
///
/// Returns a message for a name that is not a discrete-event workload.
pub fn measure(args: &Args, reference: &Reference) -> Result<Run, String> {
    let cfg = config(&args.workload)?;
    let seed = replication_seed(args.seed);
    let expected = reference.expected(&args.workload, &seed.to_string());
    let copies = nproc();
    let mut run = Run::new();
    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut rounds, mut events) = (0, 0);
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let passes: Vec<(Pass, Vec<(u64, Duration)>)> = std::thread::scope(|scope| {
            let threads: Vec<_> = (0..copies)
                .map(|_| {
                    scope.spawn(|| {
                        let mut slices = Vec::with_capacity(SLICES as usize);
                        (untraced_pass(&cfg, seed, &mut slices), slices)
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("a replication thread panicked"))
                .collect()
        });
        for (copy, (pass, _)) in passes.iter().enumerate() {
            run.check(pass.fingerprint == expected, || {
                format!(
                    "round {rounds}, copy {copy}: fingerprint {} differs from {expected}",
                    pass.fingerprint
                )
            });
        }
        let mean = |value: &dyn Fn(&Pass, &[(u64, Duration)]) -> f64| {
            passes.iter().map(|(p, s)| value(p, s)).sum::<f64>() / copies as f64
        };
        let slice_s: Vec<(u64, f64)> = (0..SLICES as usize)
            .map(|i| (passes[0].1[i].0, mean(&|_, s| s[i].1.as_secs_f64())))
            .collect();
        let ns_per_event: Vec<f64> = slice_s
            .iter()
            .filter(|(n, _)| *n > 0)
            .map(|(n, secs)| secs * 1e9 / *n as f64)
            .collect();
        let slice_ms: Vec<f64> = slice_s.iter().map(|(_, secs)| secs * 1e3).collect();
        for (name, value) in [
            (
                "events_per_sec",
                mean(&|p, _| ratio(p.events as f64, p.wall.as_secs_f64())),
            ),
            ("ns_per_event_p50", quantile(&ns_per_event, 0.5)),
            ("ns_per_event_p90", quantile(&ns_per_event, 0.9)),
            ("campaign_s", mean(&|p, _| p.total.as_secs_f64())),
            ("op_ms_p50", quantile(&slice_ms, 0.5)),
            ("setup_s", mean(&|p, _| p.setup.as_secs_f64())),
        ] {
            per_round.entry(name).or_default().push(value);
        }
        rounds += 1;
        events += passes[0].0.events;
    }
    for (name, values) in &per_round {
        run.set(*name, median(values));
    }
    run.set("peak_rss_mb", peak_rss_mb());
    run.fact("replication_seed", seed);
    run.fact("jobs", copies);
    run.fact("horizon", HORIZON);
    run.fact("warmup", WARMUP);
    run.fact("rounds", rounds);
    run.fact("slices_per_replication", SLICES);
    run.fact("window_events_per_copy", events);
    Ok(run)
}

/// The simulation with every `handle` call timed from outside, by event
/// kind, plus the calendar depth seen at each event.
struct Timed {
    sim: Simulation,
    count: [u64; KINDS.len()],
    ns: [u64; KINDS.len()],
    pending_sum: u64,
    pending_max: usize,
    /// Time between one handler's return and the next one's call within
    /// a slice: the engine's own work, measured independently of the
    /// wall-minus-handlers definition.
    gap_ns: u64,
    last_exit: Option<Instant>,
}

impl Model for Timed {
    type Event = Ev;

    fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
        let enter = Instant::now();
        if let Some(exit) = self.last_exit {
            self.gap_ns += (enter - exit).as_nanos() as u64;
        }
        let pending = engine.events_pending();
        self.pending_sum += pending as u64;
        self.pending_max = self.pending_max.max(pending);
        let kind = kind_of(&event);
        self.sim.handle(engine, event);
        let exit = Instant::now();
        self.count[kind] += 1;
        self.ns[kind] += (exit - enter).as_nanos() as u64;
        self.last_exit = Some(exit);
    }
}

/// The traced run: one untraced replication as the base, one with every
/// handler timed (and heap allocations counted), one with a
/// `CountingSink`, one with the shadow queues, and microbenchmarks of
/// the decomposition walk, the EDF queue and the queue-length statistic.
///
/// # Errors
///
/// Returns a message for a name that is not a discrete-event workload.
pub fn trace(args: &Args, reference: &Reference, allocations: fn() -> u64) -> Result<Run, String> {
    let cfg = config(&args.workload)?;
    let seed = replication_seed(args.seed);
    let expected = reference.expected(&args.workload, &seed.to_string());
    let mut run = Run::new();
    let check = |run: &mut Run, label: &str, got: String| {
        run.check(got == expected, || {
            format!("{label} replication: fingerprint {got} differs from {expected}")
        })
    };

    let mut slices = Vec::with_capacity(SLICES as usize);
    let base = untraced_pass(&cfg, seed, &mut slices);
    check(&mut run, "untraced", base.fingerprint.clone());
    let base_ns = base.wall.as_nanos() as f64;

    // Every handler timed; the allocation counter brackets the window.
    let mut sim = simulation(&cfg, seed);
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.warmup));
    let mut timed = Timed {
        sim,
        count: [0; KINDS.len()],
        ns: [0; KINDS.len()],
        pending_sum: 0,
        pending_max: 0,
        gap_ns: 0,
        last_exit: None,
    };
    let before = allocations();
    let mut wall = Duration::ZERO;
    for i in 1..=SLICES {
        timed.last_exit = None;
        let start = Instant::now();
        engine.run_until(&mut timed, slice_end(&cfg, i));
        wall += start.elapsed();
    }
    let allocs = allocations() - before;
    check(
        &mut run,
        "traced",
        fingerprint(engine.events_processed(), timed.sim.metrics()),
    );
    let events: u64 = timed.count.iter().sum();
    let handler_ns: u64 = timed.ns.iter().sum();
    let wall_ns = wall.as_nanos() as f64;
    run.set(
        "simcore.engine.self_ns_per_event",
        ratio(wall_ns - handler_ns as f64, events as f64),
    );
    run.set(
        "simcore.engine.pending_mean",
        ratio(timed.pending_sum as f64, events as f64),
    );
    run.set("simcore.engine.pending_max", timed.pending_max as f64);
    run.set("simcore.engine.events", events as f64);
    let accounted = ratio((timed.gap_ns + handler_ns) as f64, wall_ns);
    run.set("simcore.engine.accounted_share", accounted);
    run.check((0.95..=1.0).contains(&accounted), || {
        format!("engine self time plus handler time covers {accounted} of the traced wall")
    });
    for (k, kind) in KINDS.iter().enumerate() {
        run.set(format!("sim.handle.{kind}.count"), timed.count[k] as f64);
        run.set(
            format!("sim.handle.{kind}.ns_mean"),
            ratio(timed.ns[k] as f64, timed.count[k] as f64),
        );
    }
    run.set("sim.alloc.steady", allocs as f64);
    run.set("trace.overhead", ratio(wall_ns, base_ns));
    run.set(
        "trace.untraced_events_per_sec",
        ratio(base.events as f64, base.wall.as_secs_f64()),
    );
    run.set(
        "trace.traced_events_per_sec",
        ratio(events as f64, wall.as_secs_f64()),
    );
    let metrics = timed.sim.metrics();
    run.set("sim.fault.node_crashes", metrics.node_crashes as f64);
    run.set(
        "sim.fault.straggler_inflations",
        metrics.straggler_inflations as f64,
    );
    run.set("sim.fault.comm_delays", metrics.comm_delays as f64);
    let walks = timed.count[kind_of(&Ev::GlobalArrival)];

    // A CountingSink attached: its cost, and the queue traffic it counts.
    let (sink, counts) = CountingSink::with_handle();
    let mut sim = simulation(&cfg, seed);
    sim.set_sink(Box::new(sink));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.warmup));
    let before = counts.counts();
    slices.clear();
    let (_, sink_wall) = run_window(&mut engine, &mut sim, &cfg, &mut slices);
    let after = counts.counts();
    check(
        &mut run,
        "counted",
        fingerprint(engine.events_processed(), sim.metrics()),
    );
    let delta = |kind: &str| (after.get(kind) - before.get(kind)) as f64;
    run.set(
        "sim.trace.overhead",
        ratio(sink_wall.as_nanos() as f64, base_ns),
    );
    run.set(
        "sched.queue.pushes",
        delta("local_arrived") + delta("subtask_submitted"),
    );
    run.set("sched.queue.dispatches", delta("service_started"));

    let (depth_mean, depth_max) = queue_depths(&cfg, seed, &mut run, &check);
    run.set("sched.queue.depth_mean", depth_mean);
    run.set("sched.queue.depth_max", depth_max as f64);

    let (walk_ns, walk_samples) = decompose_walk_ns(&cfg, seed);
    run.set("core.decompose.walk_ns", walk_ns);
    run.set("core.decompose.walks", walks as f64);
    run.set("core.decompose.walk_samples", walk_samples as f64);
    let (at_mean, mean_samples) = push_pop_ns(&cfg, depth_mean.round() as usize, seed);
    let (at_max, max_samples) = push_pop_ns(&cfg, depth_max, seed);
    run.set("sched.queue.push_pop_ns", at_mean);
    run.set("sched.queue.push_pop_ns_at_max", at_max);
    run.set(
        "sched.queue.push_pop_samples",
        (mean_samples + max_samples) as f64,
    );
    let (observe_ns, observe_samples) = observe_queue_ns();
    run.set("simcore.stats.observe_queue_ns", observe_ns);
    run.set(
        "simcore.stats.observe_queue_samples",
        observe_samples as f64,
    );
    // Every event refreshes every node's statistic: k calls per event.
    run.set(
        "simcore.stats.refresh_share",
        ratio(observe_ns * cfg.nodes as f64 * base.events as f64, base_ns),
    );

    run.fact("replication_seed", seed);
    run.fact("jobs", 1);
    run.fact("horizon", HORIZON);
    run.fact("warmup", WARMUP);
    run.fact("window_events", events);
    run.fact("untraced_window_s", base.wall.as_secs_f64());
    run.fact("traced_window_s", wall.as_secs_f64());
    run.fact("counted_window_s", sink_wall.as_secs_f64());
    run.fact("microbenchmark_rounds", ROUNDS);
    Ok(run)
}

/// Mean and largest ready-queue depth: the mean from the program's own
/// per-node statistics, the largest from the shadow queues, which must
/// reproduce the program's per-node means.
fn queue_depths(
    cfg: &SimConfig,
    seed: u64,
    run: &mut Run,
    check: &dyn Fn(&mut Run, &str, String),
) -> (f64, usize) {
    let shadow = Arc::new(Mutex::new(ShadowQueues::new(
        cfg.nodes,
        cfg.warmup,
        cfg.fault.crash_policy,
    )));
    let mut sim = simulation(cfg, seed);
    sim.set_sink(Box::new(ShadowSink(Arc::clone(&shadow))));
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.duration));
    check(
        run,
        "shadowed",
        fingerprint(engine.events_processed(), sim.metrics()),
    );
    let (_, node_stats) = sim.into_results();
    let horizon = SimTime::from(cfg.duration);
    let program: Vec<f64> = node_stats
        .iter()
        .map(|s| s.mean_queue_len(horizon))
        .collect();
    let shadow = shadow.lock().expect("shadow queues are never poisoned");
    let rebuilt = shadow.mean_depths(cfg.duration);
    let agree = shadow.consistent()
        && program
            .iter()
            .zip(&rebuilt)
            .all(|(a, b)| (a - b).abs() <= 1e-9 * a.abs().max(1.0));
    run.check(agree, || {
        format!("shadow queue depths {rebuilt:?} differ from the program's {program:?}")
    });
    (
        program.iter().sum::<f64>() / program.len() as f64,
        shadow.max_depth(),
    )
}

/// Times `op` in rounds of `batch` calls; returns the median ns per call
/// and the number of calls timed.
fn per_call_ns(batch: u64, mut op: impl FnMut()) -> (f64, u64) {
    let mut per_call = Vec::with_capacity(ROUNDS);
    for round in 0..=ROUNDS {
        let start = Instant::now();
        for _ in 0..batch {
            op();
        }
        if round > 0 {
            per_call.push(start.elapsed().as_nanos() as f64 / batch as f64);
        }
    }
    (median(&per_call), batch * ROUNDS as u64)
}

/// One full decomposition walk per call for the workload's task graph
/// and strategy: `reset_from`, `start_into`, then `complete_leaf_into`
/// for every leaf in release order.
fn decompose_walk_ns(cfg: &SimConfig, seed: u64) -> (f64, u64) {
    let spec = match &cfg.shape {
        GlobalShape::ParallelFixed { n } => TaskSpec::parallel_simple(*n),
        GlobalShape::ParallelUniform { hi, .. } => TaskSpec::parallel_simple(*hi),
        GlobalShape::Spec(spec) => spec.clone(),
    };
    let template = Arc::new(DecompTemplate::new(&spec));
    let mut rng = Rng::seed_from(seed);
    let pex: Vec<f64> = (0..template.leaf_count())
        .map(|_| 0.5 + rng.next_f64())
        .collect();
    let slack = 2.0 * pex.iter().sum::<f64>();
    let strategy = cfg.strategy;
    let mut decomp = Decomposition::from_template(Arc::clone(&template), &pex);
    let mut released: Vec<Release> = Vec::with_capacity(pex.len());
    let mut next: Vec<Release> = Vec::with_capacity(pex.len());
    let mut now = 0.0;
    per_call_ns(20_000, || {
        decomp.reset_from(&template, &pex);
        now += 1.0;
        let arrival = SimTime::from(now);
        decomp.start_into(arrival, arrival + slack, &strategy, &mut released);
        let mut i = 0;
        while i < released.len() {
            let leaf = released[i].leaf;
            i += 1;
            decomp.complete_leaf_into(leaf, arrival + i as f64, &strategy, &mut next);
            released.extend_from_slice(&next);
        }
        black_box(&decomp);
    })
}

/// One EDF push and pop per call on a queue holding `depth` tasks, the
/// way a node enqueues (keyed by job id) and dispatches.
fn push_pop_ns(cfg: &SimConfig, depth: usize, seed: u64) -> (f64, u64) {
    let mut rng = Rng::seed_from(seed);
    let offsets: Vec<f64> = (0..1024).map(|_| 1.25 + 3.75 * rng.next_f64()).collect();
    let mut queue: ReadyQueue<u64> = ReadyQueue::new(cfg.scheduler);
    let mut key = 0u64;
    let mut now = 0.0;
    let mut push = |queue: &mut ReadyQueue<u64>| {
        now += 0.25;
        let deadline = SimTime::from(now + offsets[key as usize % offsets.len()]);
        queue.push_keyed(key, QueuedTask::new(deadline, 1.0, key));
        key += 1;
    };
    for _ in 0..depth {
        push(&mut queue);
    }
    per_call_ns(200_000, || {
        push(&mut queue);
        black_box(queue.pop());
    })
}

/// One `NodeStats::observe_queue` call, the per-node refresh the
/// simulation makes after every event.
fn observe_queue_ns() -> (f64, u64) {
    let mut stats = NodeStats::new(SimTime::ZERO);
    let mut i = 0u64;
    per_call_ns(2_000_000, || {
        i += 1;
        stats.observe_queue(SimTime::from(i as f64 * 0.25), (i & 3) as f64);
        black_box(&stats);
    })
}
