//! Result records: metric values, the correctness oracle's tallies, and
//! the provenance of the machine and build that produced them.

use std::collections::BTreeMap;

use crate::Args;

/// The end-to-end metrics and their units, in `BENCHMARK.json` order.
/// Every untraced run reports all of them.
const END_TO_END: [(&str, &str); 7] = [
    ("events_per_sec", "1/s"),
    ("ns_per_event_p50", "ns"),
    ("ns_per_event_p90", "ns"),
    ("campaign_s", "s"),
    ("op_ms_p50", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// The per-layer metrics and their units, in `BENCHMARK.json` order.
/// Every traced run reports all of them, with 0 for layers its workload
/// does not reach.
fn per_layer() -> Vec<(String, &'static str)> {
    let named = |list: &[(&str, &'static str)]| -> Vec<(String, &'static str)> {
        list.iter().map(|(n, u)| (n.to_string(), *u)).collect()
    };
    let mut out = named(&[
        ("simcore.engine.self_ns_per_event", "ns"),
        ("simcore.engine.pending_mean", "count"),
        ("simcore.engine.pending_max", "count"),
        ("simcore.engine.events", "count"),
        ("simcore.engine.accounted_share", "ratio"),
    ]);
    for kind in crate::des::KINDS {
        out.push((format!("sim.handle.{kind}.count"), "count"));
        out.push((format!("sim.handle.{kind}.ns_mean"), "ns"));
    }
    out.extend(named(&[
        ("core.decompose.walk_ns", "ns"),
        ("core.decompose.walks", "count"),
        ("core.decompose.walk_samples", "count"),
        ("sched.queue.depth_mean", "count"),
        ("sched.queue.depth_max", "count"),
        ("sched.queue.push_pop_ns", "ns"),
        ("sched.queue.push_pop_ns_at_max", "ns"),
        ("sched.queue.push_pop_samples", "count"),
        ("sched.queue.pushes", "count"),
        ("sched.queue.dispatches", "count"),
        ("simcore.stats.observe_queue_ns", "ns"),
        ("simcore.stats.observe_queue_samples", "count"),
        ("simcore.stats.refresh_share", "ratio"),
        ("simcore.stats.report_us", "us"),
        ("sim.fault.node_crashes", "count"),
        ("sim.fault.straggler_inflations", "count"),
        ("sim.fault.comm_delays", "count"),
        ("sim.alloc.steady", "count"),
        ("sim.trace.overhead", "ratio"),
        ("trace.overhead", "ratio"),
        ("trace.untraced_events_per_sec", "1/s"),
        ("trace.traced_events_per_sec", "1/s"),
        ("sim.sweep.points", "count"),
        ("sim.sweep.unique", "count"),
        ("sim.sweep.dedup_ratio", "ratio"),
        ("sim.sweep.units", "count"),
        ("sim.sweep.busy_s", "s"),
        ("sim.sweep.idle_s", "s"),
        ("sim.sweep.parallel_efficiency", "ratio"),
        ("sim.cache.hits_memory", "count"),
        ("sim.cache.hits_disk", "count"),
        ("sim.cache.misses", "count"),
        ("sim.cache.errors", "count"),
        ("sim.cache.files", "count"),
        ("sim.cache.parse_us", "us"),
        ("sim.cache.serialize_us", "us"),
        ("sim.cache.bytes", "bytes"),
    ]));
    for group in crate::campaign::GROUPS {
        out.push((format!("experiments.{group}_s"), "s"));
    }
    out
}

/// The `q`-quantile of `values`, interpolating linearly between order
/// statistics (as `statistics.quantiles(..., method="inclusive")` does);
/// 0 for no values.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`; 0 for no values.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `num / den`, or 0 when there is no base to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one benchmark run: metrics, checks, and the facts
/// (sample counts, run lengths) its provenance line records.
#[derive(Debug, Default)]
pub struct Run {
    attempted: u64,
    failed: u64,
    metrics: BTreeMap<String, f64>,
    facts: Vec<(String, String)>,
}

impl Run {
    /// An empty run.
    pub fn new() -> Run {
        Run::default()
    }

    /// Counts one checked output; a failed check is described on stderr.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: check failed: {}", what());
        }
    }

    /// Checks that failed.
    pub fn failed(&self) -> u64 {
        self.failed
    }

    /// Records a metric value.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value, which JSON cannot carry.
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        let name = name.into();
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.metrics.insert(name, value);
    }

    /// Records a fact for the provenance line.
    pub fn fact(&mut self, key: &str, value: impl std::fmt::Display) {
        self.facts.push((key.to_string(), value.to_string()));
    }

    /// The result record: one JSON object with every end-to-end metric
    /// (untraced) or every per-layer metric (traced).
    ///
    /// # Panics
    ///
    /// Panics if a recorded metric is not declared, or an untraced run
    /// missed an end-to-end metric: both are bugs in this benchmark.
    pub fn result_line(&self, trace: bool) -> String {
        let declared: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END
                .iter()
                .map(|(n, u)| (n.to_string(), *u))
                .collect()
        };
        for name in self.metrics.keys() {
            assert!(
                declared.iter().any(|(n, _)| n == name),
                "metric {name} is not declared"
            );
        }
        let body: Vec<String> = declared
            .iter()
            .map(|(name, unit)| {
                let value = match self.metrics.get(name) {
                    Some(value) => *value,
                    None => {
                        assert!(trace, "end-to-end metric {name} was not measured");
                        0.0
                    }
                };
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            body.join(", ")
        )
    }

    /// The provenance line: what ran, on which machine and build, and
    /// how many samples back each figure.
    pub fn provenance(&self, args: &Args) -> String {
        let mut fields = vec![
            ("workload".to_string(), json_str(&args.workload)),
            ("seed".to_string(), args.seed.to_string()),
            ("seconds".to_string(), args.seconds.to_string()),
            ("trace".to_string(), args.trace.to_string()),
            ("nproc".to_string(), nproc().to_string()),
            ("cpu_model".to_string(), json_str(&cpu_model())),
            ("rustc".to_string(), json_str(env!("PERFBENCH_RUSTC"))),
            ("git_rev".to_string(), json_str(&git_rev())),
        ];
        fields.extend(self.facts.iter().map(|(k, v)| (k.clone(), json_str(v))));
        let body: Vec<String> = fields
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{\"provenance\": {{{}}}}}", body.join(", "))
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => {}
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Worker threads the machine offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out in the working directory, read from `.git`
/// directly; "unavailable" outside a git checkout.
fn git_rev() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let rev = read(".git/HEAD").and_then(|head| match head.trim().strip_prefix("ref: ") {
        None => Some(head.trim().to_string()),
        Some(name) => read(&format!(".git/{name}"))
            .map(|rev| rev.trim().to_string())
            .or_else(|| {
                read(".git/packed-refs")?.lines().find_map(|line| {
                    let (rev, refname) = line.split_once(' ')?;
                    (refname == name).then(|| rev.to_string())
                })
            }),
    });
    rev.unwrap_or_else(|| "unavailable".to_string())
}

/// The process's peak resident set, in MB (10^6 bytes).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kib = line.strip_prefix("VmHWM:")?.trim().strip_suffix("kB")?;
                kib.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kib| kib * 1024.0 / 1e6)
}
