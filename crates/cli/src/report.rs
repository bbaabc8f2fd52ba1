//! Rendering run results as a human-readable report.

use sda_sim::{MultiRun, SimConfig};
use sda_simcore::SimTime;

/// Renders a replication set as a multi-line report: configuration
/// summary, per-class miss rates with confidence intervals, missed work,
/// response-time statistics, and overload-management counters.
pub fn render_report(cfg: &SimConfig, multi: &MultiRun) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let runs = multi.runs();
    let _ = writeln!(
        out,
        "config: k={} load={} frac_local={} strategy={} scheduler={}{}",
        cfg.nodes,
        cfg.load,
        cfg.frac_local,
        cfg.strategy,
        cfg.scheduler,
        if cfg.preemptive { " (preemptive)" } else { "" },
    );
    let _ = writeln!(
        out,
        "runs:   {} x {} time units (warmup {}), seeds {:?}",
        runs.len(),
        cfg.duration,
        cfg.warmup,
        runs.iter().map(|r| r.seed).collect::<Vec<_>>(),
    );
    let pooled = multi.pooled_metrics();
    let _ = writeln!(
        out,
        "tasks:  {} locals, {} globals ({} events total)",
        pooled.local_count(),
        pooled.global_count(),
        runs.iter().map(|r| r.events).sum::<u64>(),
    );
    let _ = writeln!(out, "\nmissed deadlines (mean ± 95% CI):");
    let _ = writeln!(out, "  MD_local    {}", multi.md_local());
    let _ = writeln!(out, "  MD_subtask  {}", multi.md_subtask());
    let _ = writeln!(out, "  MD_global   {}", multi.md_global());
    let classes: Vec<u32> = pooled.global_md.keys().copied().collect();
    if classes.len() > 1 {
        for n in classes {
            let _ = writeln!(out, "    n={n:<2}      {}", multi.md_global_n(n));
        }
    }
    let _ = writeln!(out, "  missed work {}", multi.missed_work());
    let _ = writeln!(out, "\nresponse times (pooled):");
    let _ = writeln!(
        out,
        "  local  mean {:.3}  p50 {:.3}  p99 {:.3}",
        pooled.local_response.mean(),
        pooled.local_response_quantile(0.50),
        pooled.local_response_quantile(0.99),
    );
    let _ = writeln!(
        out,
        "  global mean {:.3}  p50 {:.3}  p99 {:.3}",
        pooled.global_response.mean(),
        pooled.global_response_quantile(0.50),
        pooled.global_response_quantile(0.99),
    );
    if pooled.local_tardiness.count() + pooled.global_tardiness.count() > 0 {
        let _ = writeln!(
            out,
            "  tardiness of late completions: local mean {:.3}, global mean {:.3}",
            pooled.local_tardiness.mean(),
            pooled.global_tardiness.mean(),
        );
    }
    let _ = writeln!(out, "\nsystem:");
    let _ = writeln!(out, "  utilization {}", multi.utilization());
    let mean_q: f64 = runs
        .iter()
        .map(|r| {
            let span = SimTime::from(r.duration);
            let total = r
                .node_stats
                .iter()
                .map(|s| s.mean_queue_len(span))
                .sum::<f64>();
            total / r.node_stats.len().max(1) as f64
        })
        .sum::<f64>()
        / runs.len() as f64;
    let _ = writeln!(out, "  mean queue length {mean_q:.3}");
    if pooled.aborted_locals + pooled.aborted_globals > 0 {
        let _ = writeln!(
            out,
            "  aborted: {} locals, {} globals ({} local-scheduler aborts, {} resubmissions)",
            pooled.aborted_locals,
            pooled.aborted_globals,
            pooled.local_scheduler_aborts,
            pooled.resubmissions,
        );
    }
    if pooled.preemptions > 0 {
        let _ = writeln!(out, "  preemptions: {}", pooled.preemptions);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_sim::{Runner, StopRule};

    fn two_reps(cfg: &SimConfig, seed: u64) -> sda_sim::MultiRun {
        Runner::new(cfg.clone())
            .seed(seed)
            .stop(StopRule::FixedReps(2))
            .execute()
            .unwrap()
    }

    #[test]
    fn report_contains_the_key_sections() {
        let cfg = SimConfig::baseline().with_duration(5_000.0);
        let multi = two_reps(&cfg, 1);
        let report = render_report(&cfg, &multi);
        for needle in [
            "config:",
            "MD_local",
            "MD_subtask",
            "MD_global",
            "missed work",
            "response times",
            "utilization",
            "mean queue length",
        ] {
            assert!(report.contains(needle), "missing {needle}:\n{report}");
        }
        // Baseline is single-class: no per-n breakdown lines.
        assert!(!report.contains("n=4 "));
    }

    #[test]
    fn report_breaks_down_heterogeneous_classes() {
        let cfg = SimConfig {
            shape: sda_sim::GlobalShape::ParallelUniform { lo: 2, hi: 6 },
            duration: 5_000.0,
            ..SimConfig::baseline()
        };
        let multi = two_reps(&cfg, 2);
        let report = render_report(&cfg, &multi);
        for n in 2..=6 {
            assert!(report.contains(&format!("n={n}")), "missing n={n}");
        }
    }

    #[test]
    fn report_shows_abort_counters_when_active() {
        let cfg = SimConfig {
            abort: sda_sim::AbortPolicy::ProcessManager,
            load: 0.8,
            duration: 5_000.0,
            ..SimConfig::baseline()
        };
        let multi = two_reps(&cfg, 3);
        let report = render_report(&cfg, &multi);
        assert!(report.contains("aborted:"));
        // Under PM abortion nothing *completes* late (the timer fires at
        // the deadline), so the tardiness line must be absent.
        assert!(!report.contains("tardiness"));
    }

    #[test]
    fn report_shows_tardiness_without_abortion() {
        let cfg = SimConfig {
            load: 0.7,
            duration: 5_000.0,
            ..SimConfig::baseline()
        };
        let multi = two_reps(&cfg, 4);
        let report = render_report(&cfg, &multi);
        assert!(report.contains("tardiness"));
        assert!(!report.contains("aborted:"));
    }
}
