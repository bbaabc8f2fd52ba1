//! Queueing-theoretic sanity checks: with a single node, only local tasks
//! (`frac_local = 1`), and a deadline-blind FCFS scheduler, the simulator
//! is an M/M/1 queue, for which everything is known in closed form.

use sda::prelude::*;

/// Single-replication run through the [`Runner`], with the replication's
/// seed given explicitly.
fn run(cfg: &SimConfig, seed: u64) -> Result<RunResult, sda::sim::SweepError> {
    Ok(Runner::new(cfg.clone())
        .with_seeds(vec![seed])
        .stop(StopRule::FixedReps(1))
        .execute()?
        .runs()[0]
        .clone())
}

use sda::sched::Policy;

fn mm1_cfg(load: f64) -> SimConfig {
    SimConfig {
        nodes: 1,
        frac_local: 1.0,
        scheduler: Policy::Fcfs,
        duration: 400_000.0,
        warmup: 4_000.0,
        ..SimConfig::baseline()
    }
    .with_load(load)
}

#[test]
fn mm1_mean_response_time_matches_theory() {
    for load in [0.3, 0.5, 0.7] {
        let r = run(&mm1_cfg(load), 11).expect("valid config");
        let theory = sda::core::analysis::mm1::mean_response(load);
        let measured = r.metrics.local_response.mean();
        let rel = (measured - theory).abs() / theory;
        assert!(
            rel < 0.05,
            "load {load}: E[T] measured {measured:.3} vs theory {theory:.3}"
        );
    }
}

#[test]
fn mm1_response_median_matches_exponential_sojourn() {
    // FCFS M/M/1 sojourn time is Exp(mu - lambda): the median is
    // ln(2)/(1 - rho). Exercises the response-time histogram quantiles.
    let load = 0.5;
    let r = run(&mm1_cfg(load), 15).expect("valid config");
    let theory = 2.0_f64.ln() / (1.0 - load);
    let measured = r.metrics.local_response_quantile(0.5);
    assert!(
        (measured - theory).abs() < 0.15,
        "median measured {measured:.3} vs theory {theory:.3}"
    );
}

#[test]
fn mm1_utilization_equals_load() {
    for load in [0.2, 0.6, 0.9] {
        let r = run(&mm1_cfg(load), 12).expect("valid config");
        assert!(
            (r.utilization() - load).abs() < 0.03,
            "load {load}: utilization {}",
            r.utilization()
        );
    }
}

#[test]
fn mm1_miss_rate_matches_waiting_time_tail() {
    // A task with service x and slack s has deadline ar + x + s and
    // finishes at ar + W + x (W = FCFS waiting time), so it misses iff
    // W > s — its own service time cancels. The closed form lives in
    // sda::core::analysis::mm1.
    let load = 0.5;
    let r = run(&mm1_cfg(load), 13).expect("valid config");
    let p_miss = sda::core::analysis::mm1::miss_probability_uniform_slack(load, 1.25, 5.0);
    let measured = r.metrics.md_local();
    assert!(
        (measured - p_miss).abs() < 0.01,
        "MD measured {measured:.4} vs theory {p_miss:.4}"
    );
}

#[test]
fn edf_beats_fcfs_on_miss_rate_at_equal_load() {
    // EDF is deadline-cognizant; at the same load it must miss fewer
    // deadlines than FCFS (this is why the paper's nodes run EDF).
    let fcfs = run(&mm1_cfg(0.7), 14).expect("valid config");
    let edf_cfg = SimConfig {
        scheduler: Policy::Edf,
        ..mm1_cfg(0.7)
    };
    let edf = run(&edf_cfg, 14).expect("valid config");
    assert!(
        edf.metrics.md_local() < fcfs.metrics.md_local(),
        "EDF {} vs FCFS {}",
        edf.metrics.md_local(),
        fcfs.metrics.md_local()
    );
}
