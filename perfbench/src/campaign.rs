//! The `quick_campaign` workload: the full quick-scale reproduction
//! (`experiments::repro::artifacts`) run under `run::with_exec` at
//! jobs = nproc over an on-disk point cache, first cold into a fresh
//! directory and then as repeated warm replays, each from a fresh `Exec`
//! on that directory so every replay reads and parses from disk.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sda_experiments::repro::artifacts;
use sda_experiments::run::{with_exec, Exec};
use sda_experiments::{
    ablations, checkpoints, claims, extensions, faults, figures, tables, Scale, Table,
};
use sda_sim::cache::{parse_multi_run, serialize_multi_run};
use sda_sim::CacheReport;

use crate::report::{nproc, peak_rss_mb};
use crate::{median, quantile, ratio, Args, Reference, Run, WorkDir};

/// The artifact groups the traced run times, in `artifacts` order.
pub const GROUPS: [&str; 7] = [
    "tables",
    "figures",
    "checkpoints",
    "ablations",
    "extensions",
    "faults",
    "claims",
];

/// Rounds per untraced run at the least. A round is one cold pass into a
/// fresh cache directory and then a batch of warm replays from it, so a
/// spell of load from outside the process falls on both kinds alike.
const MIN_ROUNDS: usize = 3;
/// Warm replays per round: with at least three rounds, `op_ms_p50` is the
/// median of 300 or more replays.
const REPLAY_BATCH: usize = 100;
/// Set-ups timed before each warm replay: `setup_s` is the median of
/// these batch means, since one set-up takes microseconds. A set-up opens
/// an `Exec` over the filled cache directory, which is what a replay pays
/// before its first lookup; creating a fresh directory instead would time
/// the file system, whose latency varies tenfold from run to run.
const SETUP_BATCH: usize = 100;
/// Rounds of the per-point codec timings in the traced run.
const CODEC_ROUNDS: usize = 5;

fn render(artifacts: &[(&str, Table)]) -> String {
    let mut out = String::new();
    for (name, table) in artifacts {
        out.push_str(name);
        out.push('\n');
        out.push_str(&table.to_csv());
    }
    out
}

/// The campaign's fingerprint: an FNV-1a digest and the length of the
/// rendered artifact set.
fn digest(rendered: &str) -> String {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in rendered.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0100_0000_01b3);
    }
    format!("fnv1a64={hash:016x},bytes={}", rendered.len())
}

fn exec_over(dir: &Path, jobs: usize) -> Result<Exec, String> {
    Exec::sweep_with_dir(dir)
        .map(|exec| exec.with_jobs(jobs))
        .map_err(|e| format!("creating cache directory {}: {e}", dir.display()))
}

/// One pass over the whole artifact set: cold on an empty cache
/// directory, warm on a filled one.
struct Pass {
    secs: f64,
    rendered: String,
    cache: CacheReport,
}

fn pass(dir: &Path, jobs: usize) -> Result<Pass, String> {
    let exec = exec_over(dir, jobs)?;
    let start = Instant::now();
    let rendered = catch_unwind(AssertUnwindSafe(|| {
        with_exec(exec.clone(), || render(&artifacts(Scale::Quick)))
    }))
    .map_err(|_| "the campaign panicked (a failed sweep point)".to_string())?;
    Ok(Pass {
        secs: start.elapsed().as_secs_f64(),
        rendered,
        cache: exec.cache_report().expect("a sweep exec has a cache"),
    })
}

/// The render digest of one cold pass, for recording the reference.
///
/// # Errors
///
/// Returns a message if the work directory cannot be made or the
/// campaign panics.
pub fn fingerprint() -> Result<String, String> {
    let work = WorkDir::create("quick_campaign-fingerprint")?;
    Ok(digest(&pass(&work.path().join("cold"), nproc())?.rendered))
}

/// One warm replay on one copy: its mean set-up time, its wall time, and
/// the cache report of a replay that differs from the cold render.
struct Replay {
    setup_s: f64,
    secs: f64,
    differs: Option<String>,
}

fn warm_replay(dir: &Path, jobs: usize, cold: &str) -> Result<Replay, String> {
    let begun = Instant::now();
    for _ in 0..SETUP_BATCH {
        black_box(exec_over(dir, jobs)?);
    }
    let setup_s = begun.elapsed().as_secs_f64() / SETUP_BATCH as f64;
    let warm = pass(dir, jobs)?;
    let ok = warm.rendered == cold && warm.cache.misses == 0 && warm.cache.errors() == 0;
    Ok(Replay {
        setup_s,
        secs: warm.secs,
        differs: (!ok).then(|| warm.cache.to_string()),
    })
}

/// A batch of warm replays, run as one copy per processor at once: each
/// copy on its own thread for the whole batch, every copy starting each
/// replay together. Returns the replays of each copy.
///
/// A replay reads every point on the calling thread, and a lone thread
/// stays on one processor, which on a shared host can run at two thirds
/// the speed of the other for minutes; a single replay's time then falls
/// in one of two modes, and its median flips between them from run to
/// run. The mean over copies keeps to one mode. A thread per replay would
/// start each replay on an allocator arena trimmed by the last one and
/// fault its pages in again, about 2,500 page faults a replay, whose cost
/// on a shared host varies with the host's load.
fn warm_batch(dir: &Path, jobs: usize, cold: &str) -> Result<Vec<Vec<Replay>>, String> {
    let copies = nproc();
    let together = Barrier::new(copies);
    std::thread::scope(|scope| {
        let threads: Vec<_> = (0..copies)
            .map(|_| {
                scope.spawn(|| {
                    // Every copy takes part in every replay, even after a
                    // failed one, so that none waits at the barrier alone.
                    (0..REPLAY_BATCH)
                        .map(|_| {
                            together.wait();
                            warm_replay(dir, jobs, cold)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| {
                t.join()
                    .expect("a replay thread panicked")
                    .into_iter()
                    .collect()
            })
            .collect()
    })
}

/// The untraced run: rounds of a cold pass and a batch of warm replays
/// until `--seconds` have passed. The cold-pass figures are medians over
/// rounds; the replay and set-up medians are taken over every replay of
/// the run.
///
/// # Errors
///
/// Returns a message if a cache directory cannot be made or the campaign
/// panics.
pub fn measure(args: &Args, reference: &Reference) -> Result<Run, String> {
    let expected = reference.expected("quick_campaign", "*");
    let work = WorkDir::create("quick_campaign")?;
    let jobs = nproc();
    let mut run = Run::new();
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let mut per_round: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut setups, mut replay_ms, mut events) = (Vec::new(), Vec::new(), 0);
    let mut first_render: Option<String> = None;
    let mut rounds = 0;
    while rounds < MIN_ROUNDS || Instant::now() < deadline {
        let dir = work.path().join(format!("round-{rounds}"));
        let cold = pass(&dir, jobs)?;
        let got = digest(&cold.rendered);
        run.check(got == expected && cold.cache.errors() == 0, || {
            format!("cold render {got} (expected {expected}); {}", cold.cache)
        });
        let first = first_render.get_or_insert_with(|| cold.rendered.clone());
        run.check(*first == cold.rendered, || {
            format!("cold render of round {rounds} differs from the first")
        });
        let scan = scan(&dir, &mut run)?;
        events = scan.events;

        let batch = warm_batch(&dir, jobs, &cold.rendered)?;
        let copies = batch.len() as f64;
        for n in 0..REPLAY_BATCH {
            let (mut setup_s, mut secs) = (0.0, 0.0);
            for (copy, replays) in batch.iter().enumerate() {
                let replay = &replays[n];
                run.check(replay.differs.is_none(), || {
                    format!(
                        "warm replay {n}, copy {copy} of round {rounds} differs from the \
                         cold render; {}",
                        replay.differs.as_deref().unwrap_or_default()
                    )
                });
                setup_s += replay.setup_s / copies;
                secs += replay.secs / copies;
            }
            setups.push(setup_s);
            replay_ms.push(secs * 1e3);
        }
        let _ = std::fs::remove_dir_all(&dir);

        for (name, value) in [
            ("campaign_s", cold.secs),
            ("events_per_sec", ratio(events as f64, cold.secs)),
            ("ns_per_event_p50", quantile(&scan.unit_ns, 0.5)),
            ("ns_per_event_p90", quantile(&scan.unit_ns, 0.9)),
        ] {
            per_round.entry(name).or_default().push(value);
        }
        rounds += 1;
    }
    for (name, values) in &per_round {
        run.set(*name, median(values));
    }
    run.set("op_ms_p50", median(&replay_ms));
    run.set("setup_s", median(&setups));
    run.set("peak_rss_mb", peak_rss_mb());
    run.fact("jobs", jobs);
    run.fact("rounds", rounds);
    run.fact("warm_replays_per_round", REPLAY_BATCH);
    run.fact("setups", SETUP_BATCH * setups.len());
    run.fact("events_per_cold_pass", events);
    Ok(run)
}

/// What the stored points say about the cold pass that wrote them.
#[derive(Debug, Default)]
struct Scan {
    /// (preimage, file text) of every stored point.
    files: Vec<(String, String)>,
    events: u64,
    units: u64,
    /// Σ `wall_secs` of the simulated replications.
    busy_s: f64,
    bytes: u64,
    /// Host ns per event of each simulated replication.
    unit_ns: Vec<f64>,
}

/// The canonical preimage a cache file records about itself.
fn preimage_of(text: &str) -> Option<String> {
    let mut lines = text.lines().skip(1);
    let count: usize = lines.next()?.strip_prefix("preimage ")?.parse().ok()?;
    let mut preimage = String::new();
    for _ in 0..count {
        preimage.push_str(lines.next()?);
        preimage.push('\n');
    }
    Some(preimage)
}

/// Reads every stored point back, checking that each decodes and
/// re-encodes to the same bytes.
fn scan(dir: &Path, run: &mut Run) -> Result<Scan, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("listing {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|path| path.extension().is_some_and(|ext| ext == "sdacache"))
        .collect();
    paths.sort();
    let mut scan = Scan::default();
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        scan.bytes += text.len() as u64;
        let decoded = preimage_of(&text)
            .and_then(|preimage| parse_multi_run(&text, &preimage).map(|multi| (preimage, multi)));
        let Some((preimage, multi)) = decoded else {
            run.check(false, || format!("{} does not decode", path.display()));
            continue;
        };
        run.check(serialize_multi_run(&preimage, &multi) == text, || {
            format!("{} does not re-encode to the same bytes", path.display())
        });
        for unit in multi.runs() {
            scan.events += unit.events;
            scan.units += 1;
            scan.busy_s += unit.wall_secs;
            if unit.events > 0 {
                scan.unit_ns.push(unit.wall_secs * 1e9 / unit.events as f64);
            }
        }
        scan.files.push((preimage, text));
    }
    Ok(scan)
}

/// The artifact set of `artifacts`, built by calling each public
/// artifact function in the same order, with the wall time of each
/// group.
fn timed_groups() -> (Vec<(&'static str, f64)>, String) {
    let scale = Scale::Quick;
    let mut out: Vec<(&'static str, Table)> = Vec::new();
    let mut groups = Vec::new();

    let start = Instant::now();
    out.push(("table1", tables::table1()));
    out.push(("table2", tables::table2()));
    groups.push(("tables", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    for (name, fig) in [
        ("fig5", figures::fig5 as fn(Scale) -> figures::FigureResult),
        ("fig6", figures::fig6),
        ("fig7", figures::fig7),
        ("fig9", figures::fig9),
        ("fig10", figures::fig10),
        ("fig11", figures::fig11),
        ("fig12", figures::fig12),
        ("fig15", figures::fig15),
    ] {
        out.push((name, fig(scale).table));
    }
    groups.push(("figures", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    out.push(("checkpoints", checkpoints::run(scale).0));
    groups.push(("checkpoints", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    for (name, ablation) in [
        (
            "a1_local_abort",
            ablations::local_abort as fn(Scale) -> Table,
        ),
        ("a2_sched", ablations::sched_policies),
        ("a3_ssp", ablations::ssp_family),
        ("a4_pex_error", ablations::pex_error),
        ("a5_gf_delta", ablations::gf_delta),
        ("a6_heterogeneous", ablations::heterogeneous_nodes),
        ("a7_preemption", ablations::preemption),
        ("a8_service_shape", ablations::service_shapes),
        ("a9_placement", ablations::placement),
        ("a10_burstiness", ablations::burstiness),
    ] {
        out.push((name, ablation(scale)));
    }
    groups.push(("ablations", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    out.push(("e1_stages", extensions::stage_sweep(scale).0));
    out.push(("e2_slack", extensions::slack_sweep(scale).0));
    groups.push(("extensions", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    out.push(("f1_faults", faults::mttf_sweep(scale).0));
    groups.push(("faults", start.elapsed().as_secs_f64()));

    let start = Instant::now();
    out.push(("claims", claims::render(&claims::validate(scale))));
    groups.push(("claims", start.elapsed().as_secs_f64()));

    (groups, render(&out))
}

/// Mean per-point cost, in µs, of decoding a stored point, encoding it
/// again, and rendering its `stats.json` report.
fn codec_us(files: &[(String, String)]) -> (f64, f64, f64) {
    let (mut parse, mut serialize, mut report) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    for _ in 0..CODEC_ROUNDS {
        for (preimage, text) in files {
            let start = Instant::now();
            let multi = parse_multi_run(black_box(text), preimage).expect("scanned points decode");
            parse += start.elapsed();
            let start = Instant::now();
            black_box(serialize_multi_run(preimage, &multi));
            serialize += start.elapsed();
            let start = Instant::now();
            black_box(multi.stats().to_json());
            report += start.elapsed();
        }
    }
    let samples = (files.len() * CODEC_ROUNDS) as f64;
    let per_point_us = |total: Duration| ratio(total.as_secs_f64() * 1e6, samples);
    (
        per_point_us(parse),
        per_point_us(serialize),
        per_point_us(report),
    )
}

/// The traced run: one untraced cold pass as the base, one cold pass
/// with every artifact group timed, one warm replay of it, and timings
/// of the cache codec and the statistics report on the stored points.
///
/// # Errors
///
/// Returns a message if a cache directory cannot be made or the campaign
/// panics.
pub fn trace(_args: &Args, reference: &Reference) -> Result<Run, String> {
    let expected = reference.expected("quick_campaign", "*");
    let work = WorkDir::create("quick_campaign-traced")?;
    let jobs = nproc();
    let mut run = Run::new();

    let base = pass(&work.path().join("base"), jobs)?;
    let got = digest(&base.rendered);
    run.check(got == expected, || {
        format!("untraced cold render {got} (expected {expected})")
    });

    let dir = work.path().join("traced");
    let exec = exec_over(&dir, jobs)?;
    let start = Instant::now();
    let (groups, rendered) =
        catch_unwind(AssertUnwindSafe(|| with_exec(exec.clone(), timed_groups)))
            .map_err(|_| "the campaign panicked (a failed sweep point)".to_string())?;
    let traced_s = start.elapsed().as_secs_f64();
    let cold = exec.cache_report().expect("a sweep exec has a cache");
    let got = digest(&rendered);
    run.check(got == expected && cold.errors() == 0, || {
        format!("traced cold render {got} (expected {expected}); {cold}")
    });
    for (group, secs) in groups {
        run.set(format!("experiments.{group}_s"), secs);
    }

    let warm = pass(&dir, jobs)?;
    run.check(
        warm.rendered == rendered && warm.cache.misses == 0 && warm.cache.errors() == 0,
        || format!("warm replay differs from the cold render; {}", warm.cache),
    );

    let scan = scan(&dir, &mut run)?;
    let capacity_s = traced_s * jobs as f64;
    run.set("sim.sweep.points", cold.points() as f64);
    run.set("sim.sweep.unique", cold.misses as f64);
    run.set(
        "sim.sweep.dedup_ratio",
        ratio(cold.misses as f64, cold.points() as f64),
    );
    run.set("sim.sweep.units", scan.units as f64);
    run.set("sim.sweep.busy_s", scan.busy_s);
    run.set("sim.sweep.idle_s", capacity_s - scan.busy_s);
    run.set(
        "sim.sweep.parallel_efficiency",
        ratio(scan.busy_s, capacity_s),
    );
    run.set("sim.cache.hits_memory", cold.hits_memory as f64);
    run.set("sim.cache.hits_disk", warm.cache.hits_disk as f64);
    run.set("sim.cache.misses", cold.misses as f64);
    run.set(
        "sim.cache.errors",
        (cold.errors() + warm.cache.errors()) as f64,
    );
    run.set("sim.cache.files", scan.files.len() as f64);
    run.set("sim.cache.bytes", scan.bytes as f64);
    let (parse_us, serialize_us, report_us) = codec_us(&scan.files);
    run.set("sim.cache.parse_us", parse_us);
    run.set("sim.cache.serialize_us", serialize_us);
    run.set("simcore.stats.report_us", report_us);
    run.set("trace.overhead", ratio(traced_s, base.secs));
    run.set(
        "trace.untraced_events_per_sec",
        ratio(scan.events as f64, base.secs),
    );
    run.set(
        "trace.traced_events_per_sec",
        ratio(scan.events as f64, traced_s),
    );

    run.fact("jobs", jobs);
    run.fact("codec_rounds", CODEC_ROUNDS);
    run.fact("untraced_campaign_s", base.secs);
    run.fact("traced_campaign_s", traced_s);
    run.fact("events", scan.events);
    Ok(run)
}
