//! The text form of a [`SimConfig`]: one `key = value` setting per line,
//! `#` comments, blank lines ignored. It is the `sda` tool's config-file
//! format and the syntax of its `key=value` overrides, and
//! [`SimConfig::to_text`] writes it as the configuration part of every
//! cache key (see [`crate::cache::canonical_point`]).
//!
//! [`KEYS`] lists every key with the syntax of its value, in the order
//! [`SimConfig::to_text`] writes them; [`SimConfig::set`] reads the same
//! keys, and the round-trip property in `tests/cache_key.rs` holds each
//! writer to its reader. Every enum's spellings live in one [`Spelled`]
//! table that both directions read: any spelling parses (ignoring ASCII
//! case), and the first spelling of a value is the one written.
//!
//! The writers append to a `String` without `core::fmt`: a warm replay
//! writes one text per point. Floats are written as `{:?}` writes them
//! ([`push_f64`]), the shortest decimal that reads back as the same
//! value, so [`SimConfig::from_text`] of [`SimConfig::to_text`] returns
//! the configuration it was written from.

use std::fmt::Write as _;
use std::str::FromStr;

use sda_core::{EstimationModel, PspStrategy, SdaStrategy, SspStrategy, DEFAULT_GF_DELTA};
use sda_model::{parse_spec, TaskSpec};
use sda_sched::Policy;
use sda_simcore::dist::Uniform;

use super::{AbortPolicy, Burst, GlobalShape, Placement, ResubmitPolicy, ServiceShape, SimConfig};
use crate::fault::CrashPolicy;

impl SimConfig {
    /// Reads the text form on top of [`SimConfig::baseline`]: each
    /// setting overrides its fields, and a key set twice keeps its last
    /// value.
    ///
    /// # Errors
    ///
    /// Returns the first error, naming its line or its key.
    pub fn from_text(text: &str) -> Result<SimConfig, String> {
        let mut cfg = SimConfig::baseline();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`, got {raw:?}", i + 1))?;
            cfg.set(key, value)?;
        }
        Ok(cfg)
    }

    /// Applies one `key = value` setting; [`SimConfig::key_help`] lists
    /// the keys.
    ///
    /// # Errors
    ///
    /// Returns a message naming an unknown key, or naming the key and the
    /// problem of a malformed value.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), String> {
        let (key, v) = (key.trim(), value.trim());
        let fault = &mut self.fault;
        let read = match key {
            "nodes" => num(v).map(|x| self.nodes = x),
            "load" => num(v).map(|x| self.load = x),
            "frac_local" => num(v).map(|x| self.frac_local = x),
            "mu_local" => num(v).map(|x| self.mu_local = x),
            "mu_subtask" => num(v).map(|x| self.mu_subtask = x),
            "slack" => parse_range(v).map(|x| self.local_slack = x),
            "global_slack" => parse_range(v).map(|x| self.global_slack = x),
            "shape" => parse_shape(v).map(|x| self.shape = x),
            "strategy" => parse_strategy(v).map(|x| self.strategy = x),
            "scheduler" => read_spelled(v).map(|x| self.scheduler = x),
            "preemptive" => read_spelled(v).map(|x| self.preemptive = x),
            "speeds" => parse_speeds(v).map(|x| self.node_speeds = x),
            "service_shape" => read_spelled(v).map(|x| self.service_shape = x),
            "placement" => read_spelled(v).map(|x| self.placement = x),
            "burst" => parse_burst(v).map(|x| self.burst = x),
            "abort" => read_spelled(v).map(|x| self.abort = x),
            "estimation" => parse_estimation(v).map(|x| self.estimation = x),
            "fault_mttf" => num(v).map(|x| fault.mttf = x),
            "fault_mttr" => num(v).map(|x| fault.mttr = x),
            "fault_crash" => read_spelled(v).map(|x| fault.crash_policy = x),
            "fault_straggler" => pair(v, "PROB,FACTOR")
                .map(|(p, f)| (fault.straggler_prob, fault.straggler_factor) = (p, f)),
            "fault_comm" => pair(v, "PROB,MEAN")
                .map(|(p, m)| (fault.comm_delay_prob, fault.comm_delay_mean) = (p, m)),
            "duration" => num(v).map(|x| self.duration = x),
            "warmup" => num(v).map(|x| self.warmup = x),
            _ => return Err(format!("unknown setting {key:?}")),
        };
        read.map_err(|message| format!("bad value for {key}: {message}"))
    }

    /// Writes every field as one `key=value` line, in a fixed order.
    /// [`SimConfig::from_text`] reads it back to an equal configuration
    /// whenever [`SimConfig::validate`] accepts this one, except that a
    /// bracket-spec shape's one-child parallel composition reads back as
    /// a one-stage serial one: the bracket notation writes both as `[T1]`.
    pub fn to_text(&self) -> String {
        let mut out = String::with_capacity(512);
        self.write_text(&mut out);
        out
    }

    /// Appends [`SimConfig::to_text`] to `out`: the keys of [`KEYS`] in
    /// its order, each value in the syntax its reader parses.
    pub(crate) fn write_text(&self, out: &mut String) {
        let fault = &self.fault;
        out.push_str("nodes=");
        push_u64(out, self.nodes as u64);
        line_f64(out, "load=", self.load);
        line_f64(out, "frac_local=", self.frac_local);
        line_f64(out, "mu_local=", self.mu_local);
        line_f64(out, "mu_subtask=", self.mu_subtask);
        for (key, range) in [
            ("\nslack=", &self.local_slack),
            ("\nglobal_slack=", &self.global_slack),
        ] {
            out.push_str(key);
            push_f64(out, range.lo());
            out.push_str("..");
            push_f64(out, range.hi());
        }
        out.push_str("\nshape=");
        push_shape(out, &self.shape);
        out.push_str("\nstrategy=");
        push_strategy(out, &self.strategy);
        line_spelled(out, "scheduler=", self.scheduler);
        line_spelled(out, "preemptive=", self.preemptive);
        out.push_str("\nspeeds=");
        for (i, &speed) in self.node_speeds.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_f64(out, speed);
        }
        line_spelled(out, "service_shape=", self.service_shape);
        line_spelled(out, "placement=", self.placement);
        out.push_str("\nburst=");
        match &self.burst {
            None => out.push_str("none"),
            Some(burst) => {
                push_f64(out, burst.period);
                push_pair(out, burst.on_fraction);
                push_pair(out, burst.boost);
            }
        }
        line_spelled(out, "abort=", self.abort);
        out.push_str("\nestimation=");
        push_estimation(out, &self.estimation);
        line_f64(out, "fault_mttf=", fault.mttf);
        line_f64(out, "fault_mttr=", fault.mttr);
        line_spelled(out, "fault_crash=", fault.crash_policy);
        line_f64(out, "fault_straggler=", fault.straggler_prob);
        push_pair(out, fault.straggler_factor);
        line_f64(out, "fault_comm=", fault.comm_delay_prob);
        push_pair(out, fault.comm_delay_mean);
        line_f64(out, "duration=", self.duration);
        line_f64(out, "warmup=", self.warmup);
        out.push('\n');
    }

    /// One line per key, in the order [`SimConfig::to_text`] writes
    /// them: the key, the syntax of its value, and what it sets.
    pub fn key_help() -> String {
        let mut out = String::new();
        for (key, syntax, about) in KEYS {
            let mut left = format!("{key} = {syntax}");
            // Formatting into a `String` cannot fail. A long syntax gets
            // a line of its own.
            if left.chars().count() > 34 {
                let _ = writeln!(out, "  {left}");
                left.clear();
            }
            let _ = writeln!(out, "  {left:<34} {about}");
        }
        out
    }
}

/// Every key, in the order [`SimConfig::to_text`] writes them, with the
/// syntax of its value and what it sets. An enum's syntax lists the
/// spellings of its [`Spelled`] table.
#[rustfmt::skip]
const KEYS: [(&str, &str, &str); 24] = [
    ("nodes", "N", "node count k"),
    ("load", "X", "offered load, in [0, 1)"),
    ("frac_local", "X", "share of the load from local tasks, in [0, 1]"),
    ("mu_local", "RATE", "service rate of local tasks"),
    ("mu_subtask", "RATE", "service rate of simple subtasks"),
    ("slack", "LO..HI", "local slack, uniform on [LO, HI]"),
    ("global_slack", "LO..HI", "global slack, uniform on [LO, HI]"),
    ("shape", "parallel:N|uniform:LO-HI|spec:[...]|figure14", "global task graph"),
    ("strategy", "(UD|ED|EQS|EQF)-(UD|DIVx|GF|GFΔ)", "x, Δ > 0, e.g. EQF-DIV1, UD-GF1000 (GF: Δ = 1e9)"),
    ("scheduler", "edf|fcfs|sjf|llf", "local scheduling policy"),
    ("preemptive", "true|false|yes|no|1|0", "preemptive-resume EDF nodes"),
    ("speeds", "S1,S2,...", "per-node speed factors (empty: all 1)"),
    ("service_shape", "exponential|deterministic|uniform|exp|constant", "service-time distribution"),
    ("placement", "random|least-loaded|random-distinct|jsq", "how subtasks pick their nodes"),
    ("burst", "none|PERIOD,ON_FRACTION,BOOST", "ON/OFF arrival bursts"),
    ("abort", "none|pm|local|local-drop|process-manager", "overload management"),
    ("estimation", "exact|factor:F|bias:F|mean:M", "how pex predicts execution times"),
    ("fault_mttf", "T", "mean time to node failure (0 = never)"),
    ("fault_mttr", "T", "mean time to repair"),
    ("fault_crash", "abort|requeue", "fate of the work on a crashed node"),
    ("fault_straggler", "PROB,FACTOR", "inflate service times by FACTOR"),
    ("fault_comm", "PROB,MEAN", "delay serial hand-offs by Exp(MEAN)"),
    ("duration", "T", "simulated time per replication"),
    ("warmup", "T", "tasks arriving before T are not counted"),
];

/// A value with a fixed set of spellings: every spelling parses, and
/// the first spelling of a value is the one written.
trait Spelled: Copy + PartialEq + 'static {
    const SPELLINGS: &'static [(&'static str, Self)];
}

/// Implements [`Spelled`] for each type from its `spelling => value`
/// pairs.
macro_rules! spelled {
    ($($ty:ty { $($name:literal => $value:expr),+ $(,)? })+) => {$(
        impl Spelled for $ty {
            const SPELLINGS: &'static [(&'static str, $ty)] = &[$(($name, $value)),+];
        }
    )+};
}

spelled! {
    Policy { "edf" => Policy::Edf, "fcfs" => Policy::Fcfs, "sjf" => Policy::Sjf, "llf" => Policy::Llf }
    bool { "true" => true, "false" => false, "yes" => true, "no" => false, "1" => true, "0" => false }
    ServiceShape {
        "exponential" => ServiceShape::Exponential,
        "deterministic" => ServiceShape::Deterministic,
        "uniform" => ServiceShape::UniformSpread,
        "exp" => ServiceShape::Exponential,
        "constant" => ServiceShape::Deterministic,
    }
    Placement {
        "random" => Placement::RandomDistinct,
        "least-loaded" => Placement::LeastLoaded,
        "random-distinct" => Placement::RandomDistinct,
        "jsq" => Placement::LeastLoaded,
    }
    AbortPolicy {
        "none" => AbortPolicy::None,
        "pm" => AbortPolicy::ProcessManager,
        "local" => AbortPolicy::LocalScheduler { resubmit: ResubmitPolicy::OnceWithRealDeadline },
        "local-drop" => AbortPolicy::LocalScheduler { resubmit: ResubmitPolicy::Never },
        "process-manager" => AbortPolicy::ProcessManager,
    }
    CrashPolicy { "abort" => CrashPolicy::AbortTask, "requeue" => CrashPolicy::RequeueSubtask }
    SspStrategy {
        "UD" => SspStrategy::Ud,
        "ED" => SspStrategy::Ed,
        "EQS" => SspStrategy::Eqs,
        "EQF" => SspStrategy::Eqf,
    }
}

/// Parses any spelling of a `T`, ignoring ASCII case.
fn read_spelled<T: Spelled>(text: &str) -> Result<T, String> {
    let spellings = T::SPELLINGS.iter();
    match spellings
        .clone()
        .find(|(name, _)| name.eq_ignore_ascii_case(text))
    {
        Some(&(_, value)) => Ok(value),
        None => {
            let names: Vec<&str> = spellings.map(|&(name, _)| name).collect();
            Err(format!("expected {}, got {text:?}", names.join("|")))
        }
    }
}

/// Appends the written spelling of `value`.
fn push_spelled<T: Spelled>(out: &mut String, value: T) {
    let (name, _) = T::SPELLINGS
        .iter()
        .find(|&&(_, spelled)| spelled == value)
        .expect("every value has a spelling");
    out.push_str(name);
}

fn num<T: FromStr>(text: &str) -> Result<T, String> {
    text.trim()
        .parse()
        .map_err(|_| format!("not a number: {text:?}"))
}

/// Parses a two-number comma pair such as `0.05,4`.
fn pair(text: &str, shape: &str) -> Result<(f64, f64), String> {
    let (a, b) = text
        .split_once(',')
        .ok_or_else(|| format!("expected `{shape}`, got {text:?}"))?;
    Ok((num(a)?, num(b)?))
}

/// Parses comma-separated node speeds; none means every node at speed 1.
fn parse_speeds(text: &str) -> Result<Vec<f64>, String> {
    if text.is_empty() {
        return Ok(Vec::new());
    }
    text.split(',').map(num).collect()
}

/// Parses a uniform range like `1.25..5`.
fn parse_range(text: &str) -> Result<Uniform, String> {
    let (lo, hi) = text
        .split_once("..")
        .ok_or_else(|| format!("range {text:?} must look like LO..HI"))?;
    let lo: f64 = lo.trim().parse().map_err(|_| format!("bad LO {lo:?}"))?;
    let hi: f64 = hi.trim().parse().map_err(|_| format!("bad HI {hi:?}"))?;
    if !(lo.is_finite() && hi.is_finite() && lo <= hi) {
        return Err(format!("invalid range [{lo}, {hi}]"));
    }
    Ok(Uniform::new(lo, hi))
}

/// Parses a global-task shape: `parallel:N`, `uniform:LO-HI` (the
/// parallel count drawn per task), `spec:[...]` (any serial-parallel
/// graph in the paper's bracket notation) or `figure14` (§8's
/// pipeline).
fn parse_shape(text: &str) -> Result<GlobalShape, String> {
    if text.eq_ignore_ascii_case("figure14") {
        return Ok(GlobalShape::figure14());
    }
    if let Some(n) = text.strip_prefix("parallel:") {
        return num(n).map(|n| GlobalShape::ParallelFixed { n });
    }
    if let Some(range) = text.strip_prefix("uniform:") {
        let (lo, hi) = range
            .split_once('-')
            .ok_or_else(|| format!("uniform shape needs LO-HI, got {range:?}"))?;
        let (lo, hi) = (num(lo)?, num(hi)?);
        return Ok(GlobalShape::ParallelUniform { lo, hi });
    }
    if let Some(spec_text) = text.strip_prefix("spec:") {
        let spec = parse_spec(spec_text).map_err(|e| format!("bad spec: {e}"))?;
        return Ok(GlobalShape::Spec(spec));
    }
    Err(format!(
        "unknown shape {text:?} (parallel:N, uniform:LO-HI, spec:[...], figure14)"
    ))
}

/// Parses a combined strategy label like `UD-UD`, `EQF-DIV1`, `UD-GF`
/// or `EQS-DIV2.5`: an SSP name, a dash, a PSP name.
///
/// SSP names: `UD`, `ED`, `EQS`, `EQF`. PSP names: `UD`; `DIVx` or
/// `DIV-x` with a positive factor `x`; `GF`, whose Δ is
/// [`DEFAULT_GF_DELTA`]; `GFΔ` with a positive shift `Δ`.
///
/// # Errors
///
/// Returns a message describing the malformed part.
pub fn parse_strategy(text: &str) -> Result<SdaStrategy, String> {
    let text = text.trim();
    let (ssp_text, psp_text) = text
        .split_once('-')
        .ok_or_else(|| format!("strategy {text:?} must look like SSP-PSP, e.g. EQF-DIV1"))?;
    let ssp = read_spelled(ssp_text).map_err(|e| format!("unknown SSP strategy: {e}"))?;
    let psp_upper = psp_text.to_ascii_uppercase();
    let positive = |digits: &str, what: &str| match num(digits)? {
        x if x > 0.0 && f64::is_finite(x) => Ok(x),
        x => Err(format!("{what} must be positive, got {x}")),
    };
    let psp = if psp_upper == "UD" {
        PspStrategy::Ud
    } else if psp_upper == "GF" {
        PspStrategy::gf()
    } else if let Some(delta) = psp_upper.strip_prefix("GF") {
        let delta = positive(delta, "GF delta")?;
        PspStrategy::Gf { delta }
    } else if let Some(x) = psp_upper
        .strip_prefix("DIV-")
        .or_else(|| psp_upper.strip_prefix("DIV"))
    {
        PspStrategy::div(positive(x, "DIV factor")?)
    } else {
        return Err(format!(
            "unknown PSP strategy {psp_text:?} (UD, DIVx, GF, GFΔ)"
        ));
    };
    Ok(SdaStrategy { ssp, psp })
}

/// Parses `none` or `PERIOD,ON_FRACTION,BOOST`.
fn parse_burst(text: &str) -> Result<Option<Burst>, String> {
    if text.eq_ignore_ascii_case("none") {
        return Ok(None);
    }
    let parts: Vec<&str> = text.split(',').collect();
    let [period, on_fraction, boost] = parts[..] else {
        return Err(format!(
            "expected `none` or `PERIOD,ON_FRACTION,BOOST`, got {text:?}"
        ));
    };
    let burst = Burst {
        period: num(period)?,
        on_fraction: num(on_fraction)?,
        boost: num(boost)?,
    };
    burst.validate()?;
    Ok(Some(burst))
}

/// Parses an estimation model: `exact`, `factor:F` (log-uniform error up
/// to F×, F ≥ 1), `bias:F` (F > 0), or `mean:M` (class mean only).
fn parse_estimation(text: &str) -> Result<EstimationModel, String> {
    if text.eq_ignore_ascii_case("exact") {
        return Ok(EstimationModel::Exact);
    }
    let unknown = || format!("unknown estimation model {text:?} (exact, factor:F, bias:F, mean:M)");
    let (model, x) = text.split_once(':').ok_or_else(unknown)?;
    let x: f64 = x.trim().parse().map_err(|_| format!("bad {model} {x:?}"))?;
    match model {
        "factor" if x.is_finite() && x >= 1.0 => Ok(EstimationModel::uniform_factor(x)),
        "factor" => Err(format!("factor must be >= 1, got {x}")),
        "bias" if x.is_finite() && x > 0.0 => Ok(EstimationModel::bias(x)),
        "bias" => Err(format!("bias must be positive, got {x}")),
        "mean" => Ok(EstimationModel::ClassMean { mean: x }),
        _ => Err(unknown()),
    }
}

/// Appends `n` in decimal, as `{}` writes it.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    // Most histogram bins are single digits, most of them 0.
    if n < 10 {
        out.push(char::from(b'0' + n as u8));
        return;
    }
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

/// Appends `x` exactly as `{:?}` writes it: the shortest decimal that
/// reads back as `x`.
///
/// Configuration floats are short decimals (`0.5`, `20000.0`), so for
/// finite `x` in `[1e-4, 1e15)` — where `{:?}` never uses an exponent —
/// this takes the smallest `d ≤ 8` for which `n = round(x·10^d)` is below
/// 2^50 and `n / 10^d == x`, and prints `n` with `d` fractional digits.
/// Both `n` and `10^d` are exact in an `f64`, so the quotient is the
/// correctly rounded value of the decimal, which therefore reads back as
/// `x`; no shorter decimal does, or a smaller `d` would have matched.
/// Positive zero, the value of every idle fault rate, is `0.0`. Any other
/// `x` goes through `{:?}`.
pub(crate) fn push_f64(out: &mut String, x: f64) {
    const POW10: [f64; 9] = [1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8];
    const LIMIT: f64 = (1u64 << 50) as f64;
    if x.to_bits() == 0 {
        out.push_str("0.0");
        return;
    }
    if (1e-4..1e15).contains(&x) {
        for (d, &scale) in POW10.iter().enumerate() {
            let n = (x * scale).round();
            if n >= LIMIT {
                break;
            }
            if n / scale == x {
                push_fixed(out, n as u64, d as u32);
                return;
            }
        }
    }
    // Formatting into a `String` cannot fail.
    let _ = write!(out, "{x:?}");
}

/// Appends `n / 10^d` with exactly `d` fractional digits (`.0` when
/// `d = 0`).
fn push_fixed(out: &mut String, n: u64, d: u32) {
    let scale = 10u64.pow(d);
    push_u64(out, n / scale);
    out.push('.');
    if d == 0 {
        out.push('0');
        return;
    }
    let frac = n % scale;
    let mut place = scale / 10;
    while place > 0 {
        out.push(char::from(b'0' + (frac / place % 10) as u8));
        place /= 10;
    }
}

/// Ends the line before, and appends `key` and `x`.
fn line_f64(out: &mut String, key: &str, x: f64) {
    out.push('\n');
    out.push_str(key);
    push_f64(out, x);
}

/// Ends the line before, and appends `key` and the spelling of `value`.
fn line_spelled<T: Spelled>(out: &mut String, key: &str, value: T) {
    out.push('\n');
    out.push_str(key);
    push_spelled(out, value);
}

/// Appends `,x`: the second number of a pair.
fn push_pair(out: &mut String, x: f64) {
    out.push(',');
    push_f64(out, x);
}

fn push_shape(out: &mut String, shape: &GlobalShape) {
    match shape {
        GlobalShape::ParallelFixed { n } => {
            out.push_str("parallel:");
            push_u64(out, *n as u64);
        }
        GlobalShape::ParallelUniform { lo, hi } => {
            out.push_str("uniform:");
            push_u64(out, *lo as u64);
            out.push('-');
            push_u64(out, *hi as u64);
        }
        GlobalShape::Spec(spec) => {
            out.push_str("spec:");
            push_spec(out, spec, &mut 0);
        }
    }
}

/// Appends `spec` in the bracket notation its `Display` writes, numbering
/// the simple subtasks `T1, T2, …` depth first from `*next_leaf + 1`.
fn push_spec(out: &mut String, spec: &TaskSpec, next_leaf: &mut u64) {
    let (children, separator) = match spec {
        TaskSpec::Simple => {
            *next_leaf += 1;
            out.push('T');
            push_u64(out, *next_leaf);
            return;
        }
        TaskSpec::Serial(children) => (children, " "),
        TaskSpec::Parallel(children) => (children, " || "),
    };
    out.push('[');
    for (i, child) in children.iter().enumerate() {
        if i > 0 {
            out.push_str(separator);
        }
        push_spec(out, child, next_leaf);
    }
    out.push(']');
}

/// Appends the label [`parse_strategy`] reads back to `strategy`: the
/// exact DIV factor, and GF's Δ unless it is the default.
fn push_strategy(out: &mut String, strategy: &SdaStrategy) {
    push_spelled(out, strategy.ssp);
    match strategy.psp {
        PspStrategy::Ud => out.push_str("-UD"),
        PspStrategy::DivX { x } => {
            out.push_str("-DIV");
            push_f64(out, x);
        }
        PspStrategy::Gf { delta } => {
            out.push_str("-GF");
            if delta != DEFAULT_GF_DELTA {
                push_f64(out, delta);
            }
        }
    }
}

fn push_estimation(out: &mut String, estimation: &EstimationModel) {
    let (name, x) = match *estimation {
        EstimationModel::Exact => return out.push_str("exact"),
        EstimationModel::UniformFactor { max_factor } => ("factor:", max_factor),
        EstimationModel::Bias { factor } => ("bias:", factor),
        EstimationModel::ClassMean { mean } => ("mean:", mean),
    };
    out.push_str(name);
    push_f64(out, x);
}
