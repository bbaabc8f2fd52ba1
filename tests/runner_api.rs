//! Integration tests of the public `Runner` API through the `sda`
//! facade: the builder, the determinism guarantee across `jobs`, the
//! CI-driven stopping rule, and the documented `stats.json` schema.

use sda::prelude::*;

fn quick() -> SimConfig {
    SimConfig {
        duration: 3_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

#[test]
fn facade_exposes_runner_at_the_root() {
    // `sda::Runner` (not just the prelude) — the documented entry point.
    let multi = sda::Runner::new(quick())
        .seed(9)
        .stop(sda::StopRule::FixedReps(2))
        .execute()
        .expect("baseline validates");
    assert_eq!(multi.runs().len(), 2);
}

#[test]
fn runner_is_deterministic_across_jobs_via_facade() {
    let run = |jobs| {
        Runner::new(quick())
            .seed(31)
            .jobs(jobs)
            .stop(StopRule::FixedReps(6))
            .execute()
            .expect("baseline validates")
    };
    let seq = run(1);
    let par = run(8);
    assert_eq!(seq.runs().len(), par.runs().len());
    for (a, b) in seq.runs().iter().zip(par.runs()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.metrics.md_global().to_bits(),
            b.metrics.md_global().to_bits(),
            "jobs must not change results (seed {})",
            a.seed
        );
    }
}

#[test]
fn ci_width_rule_respects_min_and_max_reps() {
    // A loose target converges at the floor; a hopeless target stops
    // at the cap.
    let loose = Runner::new(quick())
        .seed(11)
        .stop(StopRule::CiWidth {
            target: 100.0,
            min_reps: 3,
            max_reps: 10,
        })
        .execute()
        .expect("baseline validates");
    assert_eq!(loose.runs().len(), 3);

    let hopeless = Runner::new(quick())
        .seed(11)
        .stop(StopRule::CiWidth {
            target: 1e-12,
            min_reps: 2,
            max_reps: 4,
        })
        .execute()
        .expect("baseline validates");
    assert_eq!(hopeless.runs().len(), 4);
}

/// Pulls `"field": <token>` out of a flat JSON object without a JSON
/// parser (the workspace is dependency-free by design).
fn field<'a>(json: &'a str, name: &str) -> Option<&'a str> {
    let key = format!("\"{name}\":");
    let start = json.find(&key)? + key.len();
    let rest = json[start..].trim_start();
    let end = rest.find([',', '}', '\n']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

#[test]
fn stats_json_matches_the_documented_schema() {
    let multi = Runner::new(quick())
        .seed(17)
        .stop(StopRule::FixedReps(4))
        .execute()
        .expect("baseline validates");
    let json = multi.stats().to_json();

    // Top-level: one object per tracked metric.
    for metric in [
        "md_local",
        "md_subtask",
        "md_global",
        "missed_work",
        "utilization",
    ] {
        let obj_start = json
            .find(&format!("\"{metric}\":"))
            .unwrap_or_else(|| panic!("metric {metric} missing from stats.json"));
        let obj = &json[obj_start..];
        // Every documented field is present in each metric object.
        for f in [
            "mean",
            "stddev",
            "stderr",
            "min",
            "max",
            "samples",
            "confidence_interval_95",
            "ci_width_ratio",
        ] {
            assert!(
                obj.contains(&format!("\"{f}\":")),
                "field {f} missing for metric {metric}"
            );
        }
    }

    // Spot-check values: samples is the replication count, the CI is a
    // two-element array bracketing the mean.
    let md = &json[json.find("\"md_global\":").unwrap()..];
    assert_eq!(field(md, "samples"), Some("4"));
    let mean: f64 = field(md, "mean").unwrap().parse().unwrap();
    let ci_start =
        md.find("\"confidence_interval_95\": [").unwrap() + "\"confidence_interval_95\": [".len();
    let ci = &md[ci_start..ci_start + md[ci_start..].find(']').unwrap()];
    let (lo, hi) = ci.split_once(',').expect("two-element CI array");
    let lo: f64 = lo.trim().parse().unwrap();
    let hi: f64 = hi.trim().parse().unwrap();
    assert!(
        lo <= mean && mean <= hi,
        "CI [{lo}, {hi}] must bracket {mean}"
    );
}

#[test]
fn explicit_seed_lists_agree_with_derived_seeds() {
    // `with_seeds` over `derive_seed(b, 0..n)` must reproduce the
    // derived-seed schedule exactly — the common-random-numbers workflow
    // is just the default spelled out.
    let seeds = (0..3).map(|i| sda::simcore::rng::derive_seed(23, i));
    let explicit = Runner::new(quick())
        .with_seeds(seeds.collect())
        .stop(StopRule::FixedReps(3))
        .execute()
        .expect("baseline validates");
    let derived = Runner::new(quick())
        .seed(23)
        .stop(StopRule::FixedReps(3))
        .execute()
        .expect("baseline validates");
    assert_eq!(explicit.runs().len(), derived.runs().len());
    for (a, b) in explicit.runs().iter().zip(derived.runs()) {
        assert_eq!(a.seed, b.seed);
        assert_eq!(
            a.metrics.md_global().to_bits(),
            b.metrics.md_global().to_bits()
        );
    }
}

#[test]
fn stats_json_carries_per_node_statistics() {
    let multi = Runner::new(quick())
        .seed(41)
        .stop(StopRule::FixedReps(2))
        .execute()
        .expect("baseline validates");
    let json = multi.stats().to_json();
    assert!(json.contains("\"per_node\":"), "per_node array missing");
    for f in ["\"node\":", "\"utilization\":", "\"mean_queue_len\":"] {
        assert!(json.contains(f), "per-node field {f} missing");
    }
    assert_eq!(multi.stats().per_node().len(), quick().nodes);
}
