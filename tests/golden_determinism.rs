//! Golden-file determinism pins for the hot-path rework: the pooled,
//! template-based arrival path must produce **byte-identical** output to
//! the allocating implementation it replaced. The fixtures under
//! `tests/golden/` were generated from the pre-rework build; this test
//! re-runs the same small configurations and compares the rendered
//! `stats.json` and the replication-0 trace JSONL byte for byte.
//!
//! The two fault cases and the SJF/LLF cases under `UD-GF` pin the paths
//! the first fixtures never reach (preemption, crash requeues and crash
//! aborts, stragglers, delayed hand-offs, and ranks other than the
//! deadline); they also record each replication's integer counters.
//!
//! Every traced case also replays its trace through
//! `sda::sim::trace::Replay`, which rejects any record the modelled
//! system cannot produce (a dispatch out of EDF order, a start on a down
//! node, a task finishing twice, ...).
//!
//! `response_quantiles.txt` pins the response-time histograms of the
//! same six cases: every percentile of every replication and of the
//! pooled metrics, as exact `f64` bits.
//!
//! Throughput numbers (wall-clock derived) are deliberately excluded:
//! they are nondeterministic even between two runs of the same binary.
//! Everything simulation-derived is compared exactly.
//!
//! To regenerate after an *intentional* output-format change:
//!
//! ```text
//! SDA_REGEN_GOLDEN=1 cargo test --test golden_determinism
//! ```

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use sda::prelude::*;
use sda::sched::Policy;
use sda::sim::trace::{parse_jsonl, JsonlSink, Replay, SharedSink};
use sda::sim::{CrashPolicy, FaultConfig, Simulation};
use sda::simcore::Engine;

/// A writer handing every byte to a shared buffer, so the test can read
/// what the sink wrote after the runner consumed it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Executes `case` with a JSONL trace on replication 0, checks the trace
/// with [`check_replay`], and returns the run set and the trace bytes.
fn run_traced(case: (SimConfig, u64)) -> (MultiRun, String) {
    let cfg = case.0.clone();
    let buf = SharedBuf::default();
    let sink = SharedSink::new(Box::new(JsonlSink::new(buf.clone())));
    let multi = case_runner(case)
        .trace(sink)
        .execute()
        .expect("golden configs validate");
    let bytes = buf.0.lock().unwrap().clone();
    let trace = String::from_utf8(bytes).expect("utf-8 jsonl");
    check_replay(&cfg, multi.runs()[0].seed, &trace);
    (multi, trace)
}

/// Replays replication 0's trace, which must hold only records the
/// modelled system can produce (see [`Replay`]), and checks that the
/// globals it leaves live are the simulator's in-flight globals at the
/// horizon.
fn check_replay(cfg: &SimConfig, seed: u64, trace: &str) {
    let records = parse_jsonl(trace).unwrap_or_else(|err| panic!("{err}"));
    let mut replay = Replay::new(cfg.nodes, cfg.scheduler);
    for record in &records {
        if let Err(violation) = replay.apply(record) {
            panic!("{violation}");
        }
    }
    let mut sim = Simulation::new(cfg.clone(), seed).expect("golden configs validate");
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(cfg.duration));
    assert_eq!(replay.live_slots(), sim.active_globals());
}

/// The runner every case runs under, exactly as the CLI would: 3
/// replications on 2 worker threads.
fn case_runner((cfg, seed): (SimConfig, u64)) -> Runner {
    Runner::new(cfg)
        .seed(seed)
        .jobs(2)
        .stop(StopRule::FixedReps(3))
}

/// Runs a case with a trace on replication 0 and returns
/// (deterministic stats.json bytes, trace JSONL bytes).
fn run_case(case: (SimConfig, u64)) -> (String, String) {
    let (multi, trace) = run_traced(case);
    (multi.stats().to_json(), trace)
}

/// The Figure-5 shape with the paper's winning strategy and
/// process-manager abortion: exercises parallel decomposition, pooled
/// slots, placement, and the PM teardown path.
fn baseline_case() -> (SimConfig, u64) {
    let cfg = SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        strategy: SdaStrategy::eqf_div1(),
        abort: AbortPolicy::ProcessManager,
        ..SimConfig::baseline()
    };
    (cfg, 777)
}

/// The §8 serial-parallel shape (Figure 14 task graph) with
/// local-scheduler abortion and resubmission: exercises serial-stage
/// activation (EQF prefix sums), in-service deadline timers, and the
/// resubmission path.
fn section8_case() -> (SimConfig, u64) {
    let cfg = SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        strategy: SdaStrategy::eqf_div1(),
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline,
        },
        ..SimConfig::section8()
    };
    (cfg, 4242)
}

/// The integer counters of every replication, one line each: the event
/// count and the abort, preemption and fault tallies the stats report
/// does not carry.
fn counters_text(multi: &MultiRun) -> String {
    let mut out = String::new();
    for run in multi.runs() {
        let m = &run.metrics;
        out.push_str(&format!(
            "seed={} events={} aborted_locals={} aborted_globals={} \
             local_scheduler_aborts={} resubmissions={} preemptions={} \
             node_crashes={} crash_aborts={} crash_requeues={} \
             straggler_inflations={} comm_delays={}\n",
            run.seed,
            run.events,
            m.aborted_locals,
            m.aborted_globals,
            m.local_scheduler_aborts,
            m.resubmissions,
            m.preemptions,
            m.node_crashes,
            m.crash_aborts,
            m.crash_requeues,
            m.straggler_inflations,
            m.comm_delays
        ));
    }
    out
}

/// Like [`run_case`], plus the per-replication counters.
fn run_counted_case(case: (SimConfig, u64)) -> (String, String, String) {
    let (multi, trace) = run_traced(case);
    (multi.stats().to_json(), trace, counters_text(&multi))
}

/// The Figure 14 pipeline under preemptive EDF, local-scheduler abortion
/// with resubmission, and every fault class with crashed subtasks
/// requeued: pins preemption, dispatch-time and in-service aborts,
/// resubmission, crash requeues, stragglers and delayed hand-offs.
fn preemptive_faults_case() -> (SimConfig, u64) {
    let cfg = SimConfig {
        load: 0.7,
        duration: 600.0,
        warmup: 50.0,
        strategy: SdaStrategy::eqf_div1(),
        preemptive: true,
        abort: AbortPolicy::LocalScheduler {
            resubmit: ResubmitPolicy::OnceWithRealDeadline,
        },
        fault: FaultConfig {
            mttf: 200.0,
            mttr: 15.0,
            crash_policy: CrashPolicy::RequeueSubtask,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.10,
            comm_delay_mean: 0.5,
        },
        ..SimConfig::section8()
    };
    (cfg, 1212)
}

/// The Figure 14 pipeline under process-manager abortion and every fault
/// class with crashed work aborted (`CrashPolicy::AbortTask`, the default
/// policy): pins crash aborts of locals and subtasks, the teardown of
/// their globals, and the queued work an outage kills.
fn abort_task_faults_case() -> (SimConfig, u64) {
    let cfg = SimConfig {
        load: 0.7,
        duration: 600.0,
        warmup: 50.0,
        strategy: SdaStrategy::eqf_div1(),
        abort: AbortPolicy::ProcessManager,
        fault: FaultConfig {
            mttf: 200.0,
            mttr: 15.0,
            crash_policy: CrashPolicy::AbortTask,
            straggler_prob: 0.05,
            straggler_factor: 4.0,
            comm_delay_prob: 0.10,
            comm_delay_mean: 0.5,
        },
        ..SimConfig::section8()
    };
    (cfg, 3434)
}

/// The parallel baseline under `UD-GF` with service estimates off by up
/// to a factor of 2, served by `policy`: SJF ranks by the noisy estimate,
/// LLF by the GF-shifted (negative) virtual deadline minus it.
fn ranked_gf_case(policy: Policy) -> (SimConfig, u64) {
    let cfg = SimConfig {
        load: 0.7,
        duration: 600.0,
        warmup: 50.0,
        strategy: SdaStrategy {
            ssp: SspStrategy::Ud,
            psp: PspStrategy::gf(),
        },
        scheduler: policy,
        estimation: EstimationModel::UniformFactor { max_factor: 2.0 },
        ..SimConfig::baseline()
    };
    (cfg, 5150)
}

fn fixture(name: &str) -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn check_or_regen(name: &str, actual: &str) {
    let path = fixture(name);
    if std::env::var_os("SDA_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("mkdir tests/golden");
        std::fs::write(&path, actual).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {} ({e}); see module docs", path.display()));
    assert_eq!(
        expected, actual,
        "{name} drifted from the golden fixture: same seed must produce \
         byte-identical output (regenerate only for intentional format changes)"
    );
}

#[test]
fn baseline_stats_and_trace_match_golden() {
    let (stats, trace) = run_case(baseline_case());
    assert!(!trace.is_empty(), "the run must actually trace");
    check_or_regen("baseline_stats.json", &stats);
    check_or_regen("baseline_trace.jsonl", &trace);
}

#[test]
fn section8_stats_and_trace_match_golden() {
    let (stats, trace) = run_case(section8_case());
    assert!(!trace.is_empty(), "the run must actually trace");
    check_or_regen("section8_stats.json", &stats);
    check_or_regen("section8_trace.jsonl", &trace);
}

/// Whether `trace` holds at least one record of kind `event`.
fn traces(trace: &str, event: &str) -> bool {
    trace.contains(&format!("\"event\":\"{event}\""))
}

#[test]
fn preemptive_faults_stats_trace_and_counters_match_golden() {
    let (stats, trace, counters) = run_counted_case(preemptive_faults_case());
    for event in ["preempted", "node_crashed", "node_recovered"] {
        assert!(traces(&trace, event), "the case must trace {event}");
    }
    let first = format!("{}\n", counters.lines().next().expect("a replication"));
    for counter in [
        " local_scheduler_aborts=0 ",
        " resubmissions=0 ",
        " crash_requeues=0 ",
        " straggler_inflations=0 ",
        " comm_delays=0\n",
    ] {
        assert!(
            !first.contains(counter),
            "replication 0 must not have{counter}"
        );
    }
    check_or_regen("preemptive_faults_stats.json", &stats);
    check_or_regen("preemptive_faults_trace.jsonl", &trace);
    check_or_regen("preemptive_faults_counters.txt", &counters);
}

#[test]
fn abort_task_faults_stats_trace_and_counters_match_golden() {
    let (stats, trace, counters) = run_counted_case(abort_task_faults_case());
    assert!(
        traces(&trace, "node_crashed"),
        "the case must trace node_crashed"
    );
    let first = format!("{}\n", counters.lines().next().expect("a replication"));
    for counter in [
        " crash_aborts=0 ",
        " aborted_locals=0 ",
        " aborted_globals=0 ",
    ] {
        assert!(
            !first.contains(counter),
            "replication 0 must not have{counter}"
        );
    }
    check_or_regen("abort_task_faults_stats.json", &stats);
    check_or_regen("abort_task_faults_trace.jsonl", &trace);
    check_or_regen("abort_task_faults_counters.txt", &counters);
}

#[test]
fn sjf_and_llf_under_gf_stats_trace_and_counters_match_golden() {
    for (policy, name) in [(Policy::Sjf, "sjf_gf"), (Policy::Llf, "llf_gf")] {
        let (stats, trace, counters) = run_counted_case(ranked_gf_case(policy));
        assert!(
            trace.contains("\"virtual_deadline\":-"),
            "{name}: GF must present negative virtual deadlines"
        );
        check_or_regen(&format!("{name}_stats.json"), &stats);
        check_or_regen(&format!("{name}_trace.jsonl"), &trace);
        check_or_regen(&format!("{name}_counters.txt"), &counters);
    }
}

/// Every response-time quantile the histograms can answer, bit for bit:
/// for each replication and for the pooled metrics, the local and
/// global observation counts and `quantile(k / 100)` for k = 1..=100 as
/// `f64` hex bits. The stats reports carry no quantiles, so this is the
/// pin on the histograms themselves.
fn quantiles_text(name: &str, multi: &MultiRun) -> String {
    let mut out = String::new();
    let pooled = multi.pooled_metrics();
    let runs = multi
        .runs()
        .iter()
        .map(|run| (format!("seed={}", run.seed), &run.metrics));
    for (label, m) in runs.chain([("pooled".to_string(), &pooled)]) {
        for (class, hist) in [
            ("local", &m.local_response_hist),
            ("global", &m.global_response_hist),
        ] {
            out.push_str(&format!("{name} {label} {class} count={}", hist.count()));
            for k in 1..=100 {
                out.push_str(&format!(
                    " {:016x}",
                    hist.quantile(f64::from(k) / 100.0).to_bits()
                ));
            }
            out.push('\n');
        }
    }
    out
}

#[test]
fn response_quantiles_match_golden() {
    let cases = [
        ("baseline", baseline_case()),
        ("section8", section8_case()),
        ("preemptive_faults", preemptive_faults_case()),
        ("abort_task_faults", abort_task_faults_case()),
        ("sjf_gf", ranked_gf_case(Policy::Sjf)),
        ("llf_gf", ranked_gf_case(Policy::Llf)),
    ];
    let mut text = String::new();
    for (name, case) in cases {
        let multi = case_runner(case)
            .execute()
            .expect("golden configs validate");
        text.push_str(&quantiles_text(name, &multi));
    }
    check_or_regen("response_quantiles.txt", &text);
}

/// A short Table 1 configuration for the stopping-rule cases.
fn short() -> SimConfig {
    SimConfig {
        duration: 1_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

/// An adaptive point whose target is met only after several rounds of
/// extra replications beyond the explicit floor (the replication count
/// is the `samples` field of every metric).
fn ci_width_case(jobs: usize) -> String {
    let multi = Runner::new(short().with_load(0.7))
        .seed(31)
        .jobs(jobs)
        .stop(StopRule::CiWidth {
            target: 0.12,
            min_reps: 3,
            max_reps: 20,
        })
        .execute()
        .expect("golden configs validate");
    assert!(
        multi.runs().len() >= 7,
        "the case must need at least two extra rounds (3 -> 5 -> 7), ran {}",
        multi.runs().len()
    );
    multi.stats().to_json()
}

#[test]
fn ci_width_stats_match_golden_at_any_jobs_level() {
    for jobs in [1, 4] {
        check_or_regen("ci_width_stats.json", &ci_width_case(jobs));
    }
}

#[test]
fn explicit_seed_list_stats_match_golden() {
    let multi = Runner::new(short().with_strategy(SdaStrategy::ud_div1()))
        .with_seeds(vec![11, 22, 33])
        .jobs(2)
        .stop(StopRule::FixedReps(3))
        .execute()
        .expect("golden configs validate");
    let seeds: Vec<u64> = multi.runs().iter().map(|r| r.seed).collect();
    assert_eq!(seeds, [11, 22, 33], "explicit seeds run in list order");
    check_or_regen("with_seeds_stats.json", &multi.stats().to_json());
}
