//! The `sda` command-line tool.
//!
//! ```text
//! sda run [CONFIG] [key=value ...] [OPTIONS]
//!     Run a simulation and print a report. CONFIG is an optional
//!     config file (see `sda help config`); key=value pairs override it.
//!
//! sda compare [CONFIG] STRATEGY [STRATEGY ...] [OPTIONS]
//!     Run the same workload under several strategies (common random
//!     numbers) and print a side-by-side miss-rate table.
//!
//! Shared options: --seed N, --reps N, --jobs N (worker threads,
//! 0 = auto), --ci-target R (adaptive stopping on the 95% CI width
//! ratio; --reps becomes the floor, --max-reps the cap),
//! --stats-out PATH (write per-metric statistics as stats.json), and
//! --cache-dir DIR (memoize completed points on disk).
//! `run` additionally takes --trace-out PATH: write replication 0's
//! structured event trace as JSONL, byte-identical at any --jobs level.
//!
//! sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]
//!     Decompose an end-to-end deadline over a serial-parallel task
//!     graph (bracket notation) and print each stage's virtual deadline.
//!
//! sda help [config]
//! ```

use std::path::Path;
use std::process::ExitCode;

use std::sync::Arc;

use sda_cli::{render_report, CliError};
use sda_core::Decomposition;
use sda_model::parse_spec;
use sda_sim::trace::{JsonlSink, SharedSink};
use sda_sim::{parse_strategy, MultiRun, PointCache, SimConfig, StopRule, Sweep, SweepPoint};
use sda_simcore::SimTime;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => cmd_run(&args[1..]),
        Some("compare") => cmd_compare(&args[1..]),
        Some("sweep") => cmd_sweep(&args[1..]),
        Some("decompose") => cmd_decompose(&args[1..]).map_err(CliError::from),
        Some("help") | None => {
            print_help(args.get(1).map(String::as_str));
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?} (try `sda help`)").into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(error) => {
            eprintln!("error: {error}");
            // Exit 2 for usage/configuration errors, matching `repro`
            // (every such path names a flag, key, or argument), and 1
            // for a failed replication.
            ExitCode::from(error.exit_code())
        }
    }
}

/// The replication options shared by `run`, `compare`, and `sweep`.
#[derive(Debug, Clone)]
struct RunOptions {
    /// Base seed of the derived replication-seed stream.
    seed: u64,
    /// Replications per point (the floor when `--ci-target` is set).
    reps: usize,
    /// Worker threads per point (0 = the machine's parallelism).
    jobs: usize,
    /// Adaptive stopping: target 95% CI width ratio.
    ci_target: Option<f64>,
    /// Replication cap under `--ci-target`.
    max_reps: usize,
    /// Where to write the per-metric `stats.json`, if anywhere.
    stats_out: Option<String>,
    /// Where to write the replication-0 JSONL trace, if anywhere.
    trace_out: Option<String>,
    /// On-disk result cache directory; completed points are memoized
    /// there and replayed on later invocations.
    cache_dir: Option<String>,
}

impl RunOptions {
    /// Runs one point per configuration as a single sweep, returning the
    /// results in order. A trace records replication 0 of the first
    /// point (bytes independent of `--jobs`) and bypasses the cache.
    fn execute(&self, cfgs: Vec<SimConfig>) -> Result<Vec<Arc<MultiRun>>, CliError> {
        let stop = match self.ci_target {
            Some(target) => StopRule::CiWidth {
                target,
                min_reps: self.reps,
                max_reps: self.max_reps,
            },
            None => StopRule::FixedReps(self.reps),
        };
        let mut points: Vec<SweepPoint> = cfgs
            .into_iter()
            .map(|cfg| SweepPoint::new(cfg, self.seed).stop(stop))
            .collect();
        if let (Some(path), Some(first)) = (&self.trace_out, points.first_mut()) {
            let file = std::fs::File::create(path)
                .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
            let sink = JsonlSink::new(std::io::BufWriter::new(file));
            first.trace = Some(SharedSink::new(Box::new(sink)));
        }
        let mut sweep = Sweep::new().points(points).jobs(self.jobs);
        let cache = match (&self.cache_dir, &self.trace_out) {
            (Some(dir), None) => {
                Some(Arc::new(PointCache::with_dir(dir).map_err(|e| {
                    format!("cannot open cache dir {dir:?}: {e}")
                })?))
            }
            _ => None,
        };
        if let Some(cache) = &cache {
            sweep = sweep.cache(Arc::clone(cache));
        }
        let results = sweep.execute()?;
        if let Some(cache) = &cache {
            eprintln!("{}", cache.report());
        }
        if let Some(path) = &self.trace_out {
            eprintln!("trace written to {path}");
        }
        Ok(results)
    }
}

/// Writes a `stats.json` document, reporting where it went.
fn write_stats(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, format!("{json}\n"))
        .map_err(|e| format!("cannot write stats to {path:?}: {e}"))?;
    eprintln!("stats written to {path}");
    Ok(())
}

/// Shared option scanning: extracts the replication options, leaving the
/// positional arguments.
fn split_options(args: &[String]) -> Result<(Vec<&String>, RunOptions), String> {
    let mut opts = RunOptions {
        seed: 42,
        reps: 2,
        jobs: 0,
        ci_target: None,
        max_reps: 64,
        stats_out: None,
        trace_out: None,
        cache_dir: None,
    };
    let mut positional = Vec::new();
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--seed" => {
                let v = iter.next().ok_or("--seed needs a value")?;
                opts.seed = v.parse().map_err(|_| format!("bad seed {v:?}"))?;
            }
            // --reps and --max-reps: under --ci-target the sweep clamps 0 up, so reject it here.
            "--reps" => {
                let v = iter.next().ok_or("--reps needs a value")?;
                opts.reps = v.parse().map_err(|_| format!("bad reps {v:?}"))?;
                if opts.reps == 0 {
                    return Err("reps must be at least 1".into());
                }
            }
            "--jobs" => {
                let v = iter.next().ok_or("--jobs needs a value")?;
                opts.jobs = v.parse().map_err(|_| format!("bad jobs {v:?}"))?;
            }
            "--ci-target" => {
                let v = iter.next().ok_or("--ci-target needs a value")?;
                opts.ci_target = Some(v.parse().map_err(|_| format!("bad ci target {v:?}"))?);
            }
            "--max-reps" => {
                let v = iter.next().ok_or("--max-reps needs a value")?;
                opts.max_reps = v.parse().map_err(|_| format!("bad max reps {v:?}"))?;
                if opts.max_reps == 0 {
                    return Err("max reps must be at least 1".into());
                }
            }
            "--stats-out" => {
                let v = iter.next().ok_or("--stats-out needs a value")?;
                opts.stats_out = Some(v.clone());
            }
            "--trace-out" => {
                let v = iter.next().ok_or("--trace-out needs a value")?;
                opts.trace_out = Some(v.clone());
            }
            "--cache-dir" => {
                let v = iter.next().ok_or("--cache-dir needs a directory")?;
                opts.cache_dir = Some(v.clone());
            }
            _ => positional.push(arg),
        }
    }
    Ok((positional, opts))
}

/// Builds a configuration from an optional leading config-file path and
/// `key=value` overrides.
fn build_config<'a>(positional: &[&'a String]) -> Result<(SimConfig, Vec<&'a String>), String> {
    let mut cfg = SimConfig::baseline();
    let mut rest = positional;
    if let Some(first) = positional.first() {
        if !first.contains('=') && Path::new(first).exists() {
            let text =
                std::fs::read_to_string(first).map_err(|e| format!("cannot read config: {e}"))?;
            cfg = SimConfig::from_text(&text)?;
            rest = &positional[1..];
        }
    }
    let mut leftovers = Vec::new();
    for arg in rest {
        if let Some((key, value)) = arg.split_once('=') {
            cfg.set(key, value)?;
        } else {
            leftovers.push(*arg);
        }
    }
    Ok((cfg, leftovers))
}

fn cmd_run(args: &[String]) -> Result<(), CliError> {
    let (positional, opts) = split_options(args)?;
    let (cfg, leftovers) = build_config(&positional)?;
    if let Some(extra) = leftovers.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }
    cfg.validate().map_err(|e| e.to_string())?;
    let multi = opts.execute(vec![cfg.clone()])?.remove(0);
    print!("{}", render_report(&cfg, &multi));
    if let Some(path) = &opts.stats_out {
        write_stats(path, &multi.stats().to_json())?;
    }
    Ok(())
}

fn cmd_compare(args: &[String]) -> Result<(), CliError> {
    let (positional, opts) = split_options(args)?;
    let (base, strategy_args) = build_config(&positional)?;
    if strategy_args.is_empty() {
        return Err("compare needs at least one strategy label (e.g. UD-UD EQF-DIV1)".into());
    }
    base.validate().map_err(|e| e.to_string())?;
    let mut rows = Vec::new();
    for label in strategy_args {
        let strategy = parse_strategy(label)?;
        let label = strategy.label();
        rows.push((label.clone(), label, base.clone().with_strategy(strategy)));
    }
    run_table(&opts, "strategy", 12, rows)
}

/// Runs one point per `(shown, stats key, config)` row as a single sweep,
/// prints the miss-rate table, and writes the keyed `stats.json` if
/// asked (the shared body of `compare` and `sweep`).
fn run_table(
    opts: &RunOptions,
    title: &str,
    width: usize,
    rows: Vec<(String, String, SimConfig)>,
) -> Result<(), CliError> {
    if opts.trace_out.is_some() {
        return Err("--trace-out is only supported by `sda run`".into());
    }
    let (labels, cfgs): (Vec<_>, Vec<_>) = rows
        .into_iter()
        .map(|(shown, key, cfg)| ((shown, key), cfg))
        .unzip();
    let results = opts.execute(cfgs)?;
    println!(
        "{title:<width$} {:>16} {:>16} {:>16}",
        "MD_local", "MD_global", "missed work"
    );
    let mut stats_entries = Vec::new();
    for ((shown, key), multi) in labels.into_iter().zip(&results) {
        println!(
            "{shown:<width$} {:>16} {:>16} {:>16}",
            format!("{}", multi.md_local()),
            format!("{}", multi.md_global()),
            format!("{}", multi.missed_work()),
        );
        if opts.stats_out.is_some() {
            stats_entries.push((key, multi.stats().to_json()));
        }
    }
    if let Some(path) = &opts.stats_out {
        write_stats(path, &keyed_stats(&stats_entries))?;
    }
    Ok(())
}

/// Renders labelled run-point records as one JSON object (the
/// `compare`/`sweep` form of `stats.json`).
fn keyed_stats(entries: &[(String, String)]) -> String {
    let mut out = String::from("{\n");
    for (i, (label, json)) in entries.iter().enumerate() {
        let indented = json.replace('\n', "\n  ");
        out.push_str(&format!("  {label:?}: {indented}"));
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push('}');
    out
}

/// Parses a sweep spec `key=LO..HI:STEP` into (key, values).
fn parse_sweep_spec(text: &str) -> Result<(String, Vec<f64>), String> {
    let (key, range) = text
        .split_once('=')
        .ok_or_else(|| format!("sweep spec {text:?} must look like key=LO..HI:STEP"))?;
    let (span, step) = range
        .split_once(':')
        .ok_or_else(|| format!("sweep range {range:?} must look like LO..HI:STEP"))?;
    let (lo, hi) = span
        .split_once("..")
        .ok_or_else(|| format!("sweep span {span:?} must look like LO..HI"))?;
    let lo: f64 = lo.trim().parse().map_err(|_| format!("bad LO {lo:?}"))?;
    let hi: f64 = hi.trim().parse().map_err(|_| format!("bad HI {hi:?}"))?;
    let step: f64 = step
        .trim()
        .parse()
        .map_err(|_| format!("bad STEP {step:?}"))?;
    if !(step > 0.0 && hi >= lo) {
        return Err(format!("invalid sweep [{lo}, {hi}] step {step}"));
    }
    // Step on a decimal grid instead of accumulating `v += step`, which
    // drifts (0.1 + 0.1 + 0.1 = 0.30000000000000004) and would give each
    // drifted value its own cache key and stats.json label.
    let scale = 10f64.powi(decimals(lo).max(decimals(step)));
    let (lo_scaled, step_scaled) = ((lo * scale).round(), (step * scale).round());
    let values = (0u32..)
        .map(|i| (lo_scaled + f64::from(i) * step_scaled) / scale)
        .take_while(|v| *v <= hi + 1e-9)
        .collect();
    Ok((key.trim().to_string(), values))
}

/// Digits after the decimal point in the shortest decimal form of `x`.
fn decimals(x: f64) -> i32 {
    format!("{x}")
        .split_once('.')
        .map_or(0, |(_, fraction)| fraction.len() as i32)
}

fn cmd_sweep(args: &[String]) -> Result<(), CliError> {
    let (positional, opts) = split_options(args)?;
    let Some((&spec_arg, rest)) = positional.split_first() else {
        return Err("usage: sda sweep key=LO..HI:STEP [CONFIG] [key=value ...]".into());
    };
    let (key, values) = parse_sweep_spec(spec_arg)?;
    let (base, leftovers) = build_config(rest)?;
    if let Some(extra) = leftovers.first() {
        return Err(format!("unexpected argument {extra:?}").into());
    }
    let mut rows = Vec::new();
    for value in values {
        let mut cfg = base.clone();
        cfg.set(&key, &format!("{value}"))?;
        cfg.validate().map_err(|e| e.to_string())?;
        rows.push((format!("{value:.3}"), format!("{key}={value}"), cfg));
    }
    run_table(&opts, &key, 10, rows)
}

fn cmd_decompose(args: &[String]) -> Result<(), String> {
    let (positional, _) = split_options(args)?;
    let mut pex_arg: Option<&String> = None;
    let mut plain = Vec::new();
    let mut iter = positional.into_iter();
    while let Some(arg) = iter.next() {
        if arg == "--pex" {
            pex_arg = Some(iter.next().ok_or("--pex needs a value")?);
        } else {
            plain.push(arg);
        }
    }
    let [spec_text, deadline_text, strategy_text] = plain.as_slice() else {
        return Err("usage: sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]".into());
    };
    let spec = parse_spec(spec_text).map_err(|e| e.to_string())?;
    let deadline: f64 = deadline_text
        .parse()
        .ok()
        .filter(|deadline: &f64| deadline.is_finite())
        .ok_or_else(|| format!("bad deadline {deadline_text:?}: must be a finite number"))?;
    let strategy = parse_strategy(strategy_text)?;
    let leaves = spec.simple_count();
    let pex: Vec<f64> = match pex_arg {
        Some(text) => {
            let parsed: Result<Vec<f64>, _> =
                text.split(',').map(|p| p.trim().parse::<f64>()).collect();
            let parsed = parsed.map_err(|_| format!("bad pex list {text:?}"))?;
            if let Some(bad) = parsed.iter().find(|p| !(p.is_finite() && **p >= 0.0)) {
                return Err(format!(
                    "bad pex {bad} in {text:?}: predicted execution times must be finite and non-negative"
                ));
            }
            if parsed.len() != leaves {
                return Err(format!(
                    "pex list has {} entries, the graph has {leaves} subtasks",
                    parsed.len()
                ));
            }
            parsed
        }
        None => vec![1.0; leaves],
    };
    // Finite inputs whose sums overflow would reach the strategies as an
    // infinite slack, which EQF turns into NaN.
    let total: f64 = pex.iter().sum();
    if !(deadline - total).is_finite() {
        let pex_text = pex_arg.map_or("", String::as_str);
        return Err(format!(
            "deadline {deadline_text:?} minus the total {total:?} of pex {pex_text:?} overflows"
        ));
    }

    println!("task graph: {spec}");
    println!("strategy:   {strategy}, end-to-end deadline {deadline}\n");
    let mut decomp = Decomposition::new(&spec, pex.clone());
    let mut pending = decomp.start(SimTime::ZERO, SimTime::from(deadline), &strategy);
    let mut now = 0.0f64;
    while !pending.is_empty() {
        pending.sort_by_key(|r| r.leaf);
        for r in &pending {
            println!(
                "t = {now:7.3}   T{} released, virtual deadline {:.3}",
                r.leaf + 1,
                r.deadline.value()
            );
        }
        let batch = std::mem::take(&mut pending);
        let finish = now + batch.iter().map(|r| pex[r.leaf]).fold(0.0, f64::max);
        for r in batch {
            pending.extend(decomp.complete_leaf(r.leaf, SimTime::from(finish), &strategy));
        }
        now = finish;
    }
    println!("t = {now:7.3}   complete (assuming each subtask runs exactly its pex)");
    Ok(())
}

fn print_help(topic: Option<&str>) {
    if topic == Some("config") {
        println!(
            "config file format: one `key = value` per line, `#` comments; a\n\
             `key=value` argument overrides the file. Fault injection is off by\n\
             default (see also `repro --only f1_faults`).\n\
             keys:"
        );
        print!("{}", SimConfig::key_help());
        return;
    }
    println!(
        "sda — subtask deadline assignment simulator (Kao & Garcia-Molina, ICDCS 1994)\n\n\
         usage:\n\
         \x20 sda run [CONFIG] [key=value ...] [OPTIONS]\n\
         \x20 sda compare [CONFIG] [key=value ...] STRATEGY... [OPTIONS]\n\
         \x20 sda sweep key=LO..HI:STEP [CONFIG] [key=value ...] [OPTIONS]\n\
         \x20 sda decompose SPEC DEADLINE STRATEGY [--pex P1,P2,...]\n\
         \x20 sda help [config]\n\n\
         options (run/compare/sweep):\n\
         \x20 --seed N       base seed of the replication stream (default 42)\n\
         \x20 --reps N       replications per point (default 2; the floor with --ci-target)\n\
         \x20 --jobs N       worker threads (default 0 = all cores)\n\
         \x20 --ci-target R  add replications until each MD metric's 95% CI\n\
         \x20                width ratio is <= R (capped by --max-reps)\n\
         \x20 --max-reps N   replication cap under --ci-target (default 64)\n\
         \x20 --stats-out F  write per-metric statistics to F as stats.json\n\
         \x20 --trace-out F  (run only) write replication 0's event trace to F\n\
         \x20                as JSONL; the bytes do not depend on --jobs\n\
         \x20 --cache-dir D  memoize completed points in D and replay them on\n\
         \x20                later invocations (bypassed when --trace-out is set)\n\n\
         examples:\n\
         \x20 sda run load=0.7 strategy=UD-DIV1 --jobs 8 --stats-out stats.json\n\
         \x20 sda run load=0.7 duration=2000 --trace-out trace.jsonl\n\
         \x20 sda compare load=0.5 UD-UD UD-DIV1 UD-GF EQF-DIV1\n\
         \x20 sda sweep load=0.1..0.9:0.2 strategy=UD-GF --ci-target 0.1\n\
         \x20 sda decompose \"[a [b || c] d]\" 12 EQF-DIV1 --pex 1,2,2,1"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn split_options_extracts_seed_and_reps() {
        let args = strings(&["load=0.5", "--seed", "7", "UD-UD", "--reps", "3"]);
        let (positional, opts) = split_options(&args).unwrap();
        assert_eq!(opts.seed, 7);
        assert_eq!(opts.reps, 3);
        assert_eq!(positional.len(), 2);
    }

    #[test]
    fn split_options_defaults() {
        let (positional, opts) = split_options(&[]).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.seed, 42);
        assert_eq!(opts.reps, 2);
        assert_eq!(opts.jobs, 0);
        assert_eq!(opts.ci_target, None);
        assert_eq!(opts.max_reps, 64);
        assert_eq!(opts.stats_out, None);
        assert_eq!(opts.trace_out, None);
        assert!(split_options(&strings(&["--seed"])).is_err());
        assert!(split_options(&strings(&["--reps", "0"])).is_err());
    }

    #[test]
    fn split_options_parallel_flags() {
        let args = strings(&[
            "--jobs",
            "4",
            "--ci-target",
            "0.1",
            "--max-reps",
            "16",
            "--stats-out",
            "out.json",
            "--trace-out",
            "trace.jsonl",
        ]);
        let (positional, opts) = split_options(&args).unwrap();
        assert!(positional.is_empty());
        assert_eq!(opts.jobs, 4);
        assert_eq!(opts.ci_target, Some(0.1));
        assert_eq!(opts.max_reps, 16);
        assert_eq!(opts.stats_out.as_deref(), Some("out.json"));
        assert_eq!(opts.trace_out.as_deref(), Some("trace.jsonl"));
        // A target that parses but is not positive is the sweep's to
        // reject (the `non_positive_ci_targets_are_usage_errors` CLI test).
        assert!(split_options(&strings(&["--ci-target", "soon"])).is_err());
        assert!(split_options(&strings(&["--max-reps", "0"])).is_err());
        assert!(split_options(&strings(&["--stats-out"])).is_err());
        assert!(split_options(&strings(&["--trace-out"])).is_err());
    }

    #[test]
    fn split_options_cache_flags() {
        let (_, opts) = split_options(&strings(&["--cache-dir", "pts"])).unwrap();
        assert_eq!(opts.cache_dir.as_deref(), Some("pts"));
        assert!(split_options(&strings(&["--cache-dir"])).is_err());
    }

    #[test]
    fn cached_run_matches_a_fresh_one() {
        let dir = std::env::temp_dir().join(format!("sda-cli-cache-{}", std::process::id()));
        let cfg = SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        };
        let (_, fresh) = split_options(&strings(&["--jobs", "1"])).unwrap();
        let cached = RunOptions {
            cache_dir: Some(dir.display().to_string()),
            ..fresh.clone()
        };
        let stats = |opts: &RunOptions| {
            opts.execute(vec![cfg.clone()]).unwrap()[0]
                .stats()
                .to_json()
        };
        let want = stats(&fresh);
        let cold = stats(&cached);
        let warm = stats(&cached);
        assert_eq!(want, cold);
        assert_eq!(want, warm);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn keyed_stats_nests_run_points() {
        let entries = vec![
            ("UD-UD".to_string(), "{}".to_string()),
            ("UD-DIV1".to_string(), "{}".to_string()),
        ];
        let json = keyed_stats(&entries);
        assert!(json.contains("\"UD-UD\": {}"));
        assert!(json.contains("\"UD-DIV1\": {}"));
        assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
    }

    #[test]
    fn run_options_execute_honors_ci_target() {
        let cfg = SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        };
        let args = strings(&["--seed", "1", "--jobs", "2", "--ci-target", "100"]);
        let (_, opts) = split_options(&args).unwrap();
        let results = opts.execute(vec![cfg]).unwrap();
        assert_eq!(
            results[0].runs().len(),
            2,
            "loose target stops at the floor"
        );
    }

    #[test]
    fn build_config_applies_overrides() {
        let args = strings(&["load=0.7", "strategy=UD-GF", "leftover"]);
        let refs: Vec<&String> = args.iter().collect();
        let (cfg, leftovers) = build_config(&refs).unwrap();
        assert_eq!(cfg.load, 0.7);
        assert_eq!(cfg.strategy.psp.label(), "GF");
        assert_eq!(leftovers.len(), 1);
        assert_eq!(leftovers[0], "leftover");
    }

    #[test]
    fn sweep_spec_parses() {
        let (key, values) = parse_sweep_spec("load=0.1..0.5:0.2").unwrap();
        assert_eq!(key, "load");
        assert_eq!(values.len(), 3);
        assert!((values[0] - 0.1).abs() < 1e-12);
        assert!((values[2] - 0.5).abs() < 1e-12);
        assert!(parse_sweep_spec("load=0.1..0.5").is_err());
        assert!(parse_sweep_spec("load").is_err());
        assert!(parse_sweep_spec("load=0.5..0.1:0.1").is_err());
        assert!(parse_sweep_spec("load=0.1..0.5:0").is_err());
    }

    #[test]
    fn sweep_spec_values_do_not_drift() {
        let (_, values) = parse_sweep_spec("load=0.1..0.9:0.1").unwrap();
        assert_eq!(values.len(), 9);
        for (i, value) in values.iter().enumerate() {
            assert_eq!(format!("{value}"), format!("0.{}", i + 1));
        }
        let (_, values) = parse_sweep_spec("x=1..2:0.25").unwrap();
        assert_eq!(values, [1.0, 1.25, 1.5, 1.75, 2.0]);
    }
}
