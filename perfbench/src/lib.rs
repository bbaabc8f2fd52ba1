//! The repository benchmark.
//!
//! Three workloads drive the simulator through its public entry points
//! only: [`des`] runs single replications straight through
//! `Simulation::new`, `prime` and `Engine::run_until`, and [`campaign`]
//! runs the quick reproduction through `experiments::repro::artifacts`
//! under `run::with_exec`. An untraced run (`--trace 0`) reports the
//! end-to-end metrics. A traced run (`--trace 1`, the `perfbench-traced`
//! binary) times calls into each layer from outside the program and
//! reports the per-layer metrics. Every run checks the program's outputs
//! against the fingerprints in `reference.txt`, which `--record` writes.
//!
//! `README.md` in this directory describes the workloads, every metric,
//! and which end-to-end metric each per-layer metric should move.

pub mod alloc;
pub mod campaign;
pub mod des;
mod report;
mod shadow;

use std::path::{Path, PathBuf};

pub use report::{median, quantile, ratio, Run};

const USAGE: &str = "usage: perfbench --workload NAME --seed N [--seconds S] [--trace 0|1] \
                     [--reference FILE]\n       perfbench --record";

/// The workloads, as `BENCHMARK.json` names them.
pub const WORKLOADS: [&str; 3] = ["fig5_baseline", "sec8_eqf_faults", "quick_campaign"];

/// The seed that claims are made on.
pub const DEFAULT_SEED: u64 = 1;
/// The seed that claims are checked again on, never used while a change
/// is written.
pub const HELD_OUT_SEED: u64 = 9001;
/// Replication seeds `0..POOL` have recorded fingerprints.
pub const POOL: u64 = 16;

/// The replication seed a benchmark seed runs. The held-out seed runs as
/// itself; every other seed folds onto the pool, so that any seed has a
/// recorded fingerprint to check against.
pub fn replication_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        seed
    } else {
        seed % POOL
    }
}

/// The recorded fingerprints, compiled in so a run needs no file but
/// its own binary.
const BUILT_IN_REFERENCE: &str = include_str!("../reference.txt");

/// The parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Which workload to run.
    pub workload: String,
    /// The workload seed: the same seed gives the same inputs.
    pub seed: u64,
    /// How long the run measures, in seconds.
    pub seconds: f64,
    /// A per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Fingerprints to check against instead of the built-in ones.
    pub reference: Option<PathBuf>,
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// Returns a message naming the offending argument.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut reference = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                seed = Some(v.parse::<u64>().map_err(|e| format!("--seed {v}: {e}"))?);
            }
            "--seconds" => {
                let v = value()?;
                seconds = v
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {v}: {e}"))?;
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            "--reference" => reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unrecognized argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {}",
            WORKLOADS.join(", ")
        ));
    }
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        reference,
    })
}

/// Recorded fingerprints: one `<workload> <seed> <fingerprint>` line per
/// entry, with `*` as the seed of the seed-independent campaign render.
#[derive(Debug, Default)]
pub struct Reference {
    entries: Vec<(String, String, String)>,
}

impl Reference {
    /// Parses the reference text.
    ///
    /// # Errors
    ///
    /// Returns the number of the first malformed line.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let mut entries = Vec::new();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            match line.split_whitespace().collect::<Vec<_>>().as_slice() {
                [workload, seed, fingerprint] => entries.push((
                    workload.to_string(),
                    seed.to_string(),
                    fingerprint.to_string(),
                )),
                _ => {
                    return Err(format!(
                        "reference line {}: expected `<workload> <seed> <fingerprint>`",
                        i + 1
                    ))
                }
            }
        }
        Ok(Reference { entries })
    }

    /// The fingerprint recorded for `workload` under `seed`. Without one
    /// it is a text no run produces, so that every check fails.
    pub fn expected(&self, workload: &str, seed: &str) -> String {
        self.entries
            .iter()
            .find(|(w, s, _)| w == workload && s == seed)
            .map_or_else(
                || format!("(no fingerprint recorded for {workload} seed {seed})"),
                |(_, _, fingerprint)| fingerprint.clone(),
            )
    }
}

fn load_reference(args: &Args) -> Result<Reference, String> {
    match &args.reference {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("reading {}: {e}", path.display()))?;
            Reference::parse(&text)
        }
        None => Reference::parse(BUILT_IN_REFERENCE),
    }
}

/// A scratch directory under `.perfbench-work/` in the working
/// directory, removed when dropped.
#[derive(Debug)]
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// Creates an empty directory named after `label` and this process.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory.
    pub fn create(label: &str) -> Result<WorkDir, String> {
        let path = Path::new(".perfbench-work").join(format!("{label}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("creating {}: {e}", path.display()))?;
        Ok(WorkDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Succeeds only once no other run is using the parent.
        let _ = std::fs::remove_dir(".perfbench-work");
    }
}

/// Runs the benchmark binary: parses the command line, runs the
/// workload, prints the provenance line and then the result record, and
/// returns the exit code (0 when every check passed). `allocations` is
/// the traced binary's allocation counter.
pub fn main_entry(allocations: Option<fn() -> u64>) -> i32 {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv == ["--record"] {
        return match record() {
            Ok(()) => 0,
            Err(err) => {
                eprintln!("perfbench: {err}");
                1
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            return 2;
        }
    };
    let reference = match load_reference(&args) {
        Ok(reference) => reference,
        Err(err) => {
            eprintln!("perfbench: {err}");
            return 2;
        }
    };
    let run = match (args.workload.as_str(), args.trace, allocations) {
        ("quick_campaign", false, _) => campaign::measure(&args, &reference),
        ("quick_campaign", true, _) => campaign::trace(&args, &reference),
        (_, false, _) => des::measure(&args, &reference),
        (_, true, Some(allocations)) => des::trace(&args, &reference, allocations),
        (_, true, None) => Err("--trace 1 needs the perfbench-traced binary".to_string()),
    };
    match run {
        Ok(run) => {
            println!("{}", run.provenance(&args));
            println!("{}", run.result_line(args.trace));
            i32::from(run.failed() > 0)
        }
        Err(err) => {
            eprintln!("perfbench: {err}");
            1
        }
    }
}

/// Prints the reference: the fingerprint of every pool seed and of the
/// held-out seed for each discrete-event workload, computed by the
/// program's own `Runner`, and the render digest of the quick campaign.
fn record() -> Result<(), String> {
    println!(
        "# Correctness oracle of the benchmark: `<workload> <seed> <fingerprint>`.\n\
         # A discrete-event fingerprint is the replication's event count and\n\
         # integer outcome counts; the campaign's is a digest of its rendered\n\
         # artifact set, which does not depend on the seed. Seeds 0..{POOL} are\n\
         # the pool every benchmark seed folds onto; {DEFAULT_SEED} is the default seed\n\
         # and {HELD_OUT_SEED} the held-out seed. Written by\n\
         # `python3 perfbench/run.py --record > perfbench/reference.txt`;\n\
         # re-record only for a change that is meant to alter simulation results."
    );
    for workload in &WORKLOADS[..2] {
        let cfg = des::config(workload)?;
        for seed in (0..POOL).chain([HELD_OUT_SEED]) {
            println!("{workload} {seed} {}", des::runner_fingerprint(&cfg, seed));
        }
    }
    println!("quick_campaign * {}", campaign::fingerprint()?);
    Ok(())
}
