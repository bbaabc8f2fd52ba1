//! End-to-end tests of the `sda` binary, driving it as a subprocess.

use std::process::Command;

fn sda(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_sda"))
        .args(args)
        .output()
        .expect("binary runs")
}

#[test]
fn help_prints_usage() {
    let out = sda(&["help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("sda run"));
    assert!(text.contains("sda compare"));
    assert!(text.contains("decompose"));
}

#[test]
fn help_config_lists_keys() {
    let out = sda(&["help", "config"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for key in ["frac_local", "strategy", "abort", "service_shape"] {
        assert!(text.contains(key), "missing {key}");
    }
    // The fault-injection pointer names the registry artifact, which is
    // how `repro` runs it.
    assert!(text.contains("repro --only f1_faults"), "{text}");
    assert!(!text.contains("repro faults"), "{text}");
}

#[test]
fn run_with_overrides_produces_a_report() {
    let out = sda(&[
        "run",
        "duration=3000",
        "warmup=50",
        "load=0.5",
        "--reps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MD_global"));
    assert!(text.contains("utilization"));
}

#[test]
fn run_from_config_file() {
    let dir = std::env::temp_dir().join("sda-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("baseline.conf");
    std::fs::write(
        &path,
        "load = 0.4\nstrategy = UD-DIV1\nduration = 2000\nwarmup = 20\n",
    )
    .unwrap();
    let out = sda(&["run", path.to_str().unwrap()]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("load=0.4"));
    assert!(text.contains("UD-DIV1"));
}

#[test]
fn compare_lists_each_strategy() {
    let out = sda(&[
        "compare",
        "duration=2000",
        "warmup=20",
        "UD-UD",
        "UD-GF",
        "--reps",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("UD-UD"));
    assert!(text.contains("UD-GF"));
}

#[test]
fn sweep_emits_one_row_per_value() {
    let out = sda(&[
        "sweep",
        "load=0.2..0.6:0.2",
        "duration=2000",
        "warmup=20",
        "--reps",
        "1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // Header + 3 data rows.
    assert_eq!(text.lines().count(), 4, "{text}");
}

#[test]
fn decompose_prints_virtual_deadlines() {
    let out = sda(&[
        "decompose",
        "[a [b || c] d]",
        "12",
        "EQF-DIV1",
        "--pex",
        "1,2,2,1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("T1 released"));
    assert!(text.contains("virtual deadline"));
    // Last stage carries the real deadline.
    assert!(text.contains("12.000"));

    // Figure 13: SDA(X, D) on the Figure 1 task graph, each subtask
    // running exactly its pex.
    let out = sda(&[
        "decompose",
        "[T1 [T2 || [T3 T4 T5]] [T6 || T7] T8]",
        "16",
        "EQF-DIV1",
        "--pex",
        "1,2,0.5,0.5,0.5,1,1.5,1",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let schedule: Vec<&str> = text.lines().filter(|l| l.starts_with("t =")).collect();
    assert_eq!(
        schedule,
        [
            "t =   0.000   T1 released, virtual deadline 2.909",
            "t =   1.000   T2 released, virtual deadline 4.333",
            "t =   1.000   T3 released, virtual deadline 2.111",
            "t =   3.000   T4 released, virtual deadline 3.667",
            "t =   3.500   T5 released, virtual deadline 4.333",
            "t =   4.000   T6 released, virtual deadline 7.600",
            "t =   4.000   T7 released, virtual deadline 7.600",
            "t =   5.500   T8 released, virtual deadline 16.000",
            "t =   6.500   complete (assuming each subtask runs exactly its pex)",
        ],
        "{text}"
    );
}

#[test]
fn bad_input_fails_with_a_message() {
    let out = sda(&["run", "load=2.0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("load"), "{err}");

    let out = sda(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown command"));

    let out = sda(&["decompose", "[a ||]", "5", "UD-UD"]);
    assert!(!out.status.success());
}

#[test]
fn deeply_nested_spec_is_a_usage_error_not_an_abort() {
    let spec = format!("{}T1{}", "[".repeat(50_000), "]".repeat(50_000));
    let out = sda(&["decompose", &spec, "16", "EQF-DIV1"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("nested deeper than"), "{err}");
}

#[test]
fn decompose_rejects_non_finite_deadlines_and_bad_pex_as_usage_errors() {
    let pex = |list| ["decompose", "[a b]", "4", "EQF-DIV1", "--pex", list];
    for (args, needle) in [
        (&["decompose", "[a b]", "NaN", "EQF-DIV1"][..], "NaN"),
        (
            &["decompose", "[a b]", "inf", "EQF-DIV1", "--pex", "0,1"],
            "inf",
        ),
        (&pex("-1,1"), "-1"),
        (&pex("NaN,1"), "NaN"),
        (&pex("inf,1"), "inf"),
        // Finite values whose sums overflow.
        (&pex("1e308,1e308"), "1e308,1e308"),
        (
            &[
                "decompose",
                "[a [b || c]]",
                "-1e308",
                "EQF-DIV1",
                "--pex",
                "0,1.7e308,1",
            ],
            "-1e308",
        ),
    ] {
        let out = sda(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
    }
}

#[test]
fn usage_errors_exit_2_and_name_the_setting() {
    let dir = std::env::temp_dir().join("sda-cli-badconf-test");
    std::fs::create_dir_all(&dir).unwrap();
    for (name, text, needle) in [
        (
            "truncated.conf",
            "fault_straggler = 0.05\n",
            "fault_straggler",
        ),
        ("crash.conf", "fault_crash = explode\n", "fault_crash"),
        ("mttf.conf", "fault_mttf = -3\nduration = 1000\n", "mttf"),
        ("syntax.conf", "load 0.5\n", "line 1"),
    ] {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        let out = sda(&["run", path.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{name}: usage errors exit 2");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{name}: {err}");
    }
    // Bad flag values take the same path.
    let out = sda(&["run", "--seed", "soon"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("seed"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn non_finite_horizons_and_rates_are_usage_errors() {
    for (setting, needle) in [
        ("duration=nan", "horizon"),
        ("duration=inf", "horizon"),
        ("warmup=nan", "horizon"),
        ("mu_local=nan", "service rates"),
        ("mu_subtask=nan", "service rates"),
        ("mu_local=inf", "service rates"),
        // Finite rates whose mean service time 1/μ is infinite.
        ("mu_local=1e-320", "mu_local = 1e-320"),
        ("mu_subtask=1e-320", "mu_subtask = 1e-320"),
        // A class-mean prediction that is not a finite, non-negative time.
        ("estimation=mean:NaN", "ClassMean"),
        ("estimation=mean:-1", "ClassMean"),
    ] {
        let out = sda(&["run", setting, "--reps", "1"]);
        assert_eq!(out.status.code(), Some(2), "{setting}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(needle), "{setting}: {err}");
        assert!(!err.contains("panicked"), "{setting}: {err}");
    }
    // A rate whose mean is finite until a node's speed divides it.
    let out = sda(&[
        "run",
        "mu_subtask=1e-300",
        "speeds=1e-10,1,1,1,1,1",
        "--reps",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mu_subtask = 1e-300"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

#[test]
fn runaway_configurations_are_usage_errors() {
    // Each passes every per-field check, but its rates or crash cycles
    // are so fast that a short run would never end.
    for settings in [
        &["mu_local=1e308"][..],
        &["mu_subtask=1e300"],
        &["speeds=1e300,1e300,1e300,1e300,1e300,1e300"],
        &["fault_mttf=1e-300", "fault_mttr=1e-300"],
    ] {
        let mut args = vec!["run", "duration=200", "warmup=1"];
        args.extend(settings);
        let out = sda(&args);
        assert_eq!(out.status.code(), Some(2), "{settings:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("would process") && err.contains("events"),
            "{err}"
        );
        assert!(!err.contains("panicked"), "{settings:?}: {err}");
    }
}

#[test]
fn non_positive_ci_targets_are_usage_errors() {
    for target in ["0", "-1", "NaN"] {
        let out = sda(&["run", "duration=200", "warmup=1", "--ci-target", target]);
        assert_eq!(out.status.code(), Some(2), "{target}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("CI width target must be positive"), "{err}");
        assert!(!err.contains("panicked"), "{target}: {err}");
    }
}

#[test]
fn faulty_run_produces_a_report() {
    let out = sda(&[
        "run",
        "duration=3000",
        "warmup=50",
        "fault_mttf=400",
        "fault_mttr=20",
        "fault_crash=requeue",
        "fault_straggler=0.05,4",
        "fault_comm=0.05,0.5",
        "--reps",
        "2",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("MD_global"));
}

#[test]
fn trace_out_writes_jobs_invariant_jsonl() {
    let dir = std::env::temp_dir().join("sda-cli-trace-test");
    std::fs::create_dir_all(&dir).unwrap();
    let seq = dir.join("trace-seq.jsonl");
    let par = dir.join("trace-par.jsonl");
    for (path, jobs) in [(&seq, "1"), (&par, "4")] {
        let out = sda(&[
            "run",
            "duration=500",
            "warmup=0",
            "--seed",
            "5",
            "--reps",
            "3",
            "--jobs",
            jobs,
            "--trace-out",
            path.to_str().unwrap(),
        ]);
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert!(String::from_utf8_lossy(&out.stderr).contains("trace written"));
    }
    let a = std::fs::read(&seq).unwrap();
    let b = std::fs::read(&par).unwrap();
    assert!(!a.is_empty(), "trace file has content");
    assert_eq!(a, b, "trace bytes must not depend on --jobs");
    // Every line is a structured record the trace parser accepts.
    let text = String::from_utf8(a).unwrap();
    let records = sda_sim::parse_jsonl(&text).unwrap_or_else(|err| panic!("{err}"));
    assert!(records.iter().any(|r| r.event.kind() == "service_started"));
}

#[test]
fn trace_out_is_run_only() {
    let out = sda(&[
        "compare",
        "duration=500",
        "warmup=0",
        "UD-UD",
        "--reps",
        "1",
        "--trace-out",
        "unused.jsonl",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("only supported by `sda run`"));
}

#[test]
fn foreign_histogram_shape_in_the_cache_is_recomputed() {
    let dir = std::env::temp_dir().join(format!("sda-cli-hist-shape-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let args = [
        "run",
        "duration=2000",
        "warmup=100",
        "--cache-dir",
        dir.to_str().unwrap(),
    ];
    let cold = sda(&args);
    assert!(cold.status.success());
    assert!(String::from_utf8_lossy(&cold.stderr).contains(", 1 simulated"));
    // Give the entry's first local histogram 400 bins instead of 800:
    // its first 400 bins stay, the rest move to the overflow bin, so the
    // line still adds up and only its shape is foreign.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|x| x == "sdacache"))
        .expect("a cache entry");
    let text = std::fs::read_to_string(&entry).unwrap();
    let line = text
        .lines()
        .find(|l| l.starts_with("local_hist "))
        .expect("a histogram line");
    let t: Vec<&str> = line.split(' ').collect();
    let bins: Vec<u64> = t[5..].iter().map(|b| b.parse().unwrap()).collect();
    let (kept, cut) = bins.split_at(bins.len().min(400));
    let overflow = t[3].parse::<u64>().unwrap() + cut.iter().sum::<u64>();
    let used = kept.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    let mut foreign = format!("local_hist {} 400 {overflow} {}", t[1], t[4]);
    for bin in &kept[..used] {
        foreign.push_str(&format!(" {bin}"));
    }
    std::fs::write(&entry, text.replacen(line, &foreign, 1)).unwrap();

    let replay = sda(&args);
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let log = String::from_utf8_lossy(&replay.stderr);
    assert!(
        log.contains(", 1 simulated; 1 cache errors (read 0, write 0, verify 1)"),
        "{log}"
    );
    assert_eq!(replay.stdout, cold.stdout, "the recomputed report");
    let _ = std::fs::remove_dir_all(&dir);
}
