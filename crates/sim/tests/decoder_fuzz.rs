//! No-panic fuzz of the text decoders a user feeds: the configuration
//! text form (`SimConfig::from_text`, then `SimConfig::validate` on what
//! it accepts) and the bracket task notation (`parse_spec`). Inputs are
//! random lines and token strings over each format's own vocabulary
//! (every key, keyword, separator and number spelling, including NaN,
//! infinities, signs, overflow, subnormals, the floats on each side of
//! every bound, and stray characters), so most of them get deep into the
//! value parsers. Any input may be rejected; none may panic, and every
//! accepted configuration small enough to run quickly runs one
//! replication to its end.

use sda_model::parse_spec;
use sda_sim::{SimConfig, StopRule, Sweep, SweepPoint};

/// SplitMix64: a small deterministic generator.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const KEYS: &[&str] = &[
    "nodes",
    "load",
    "frac_local",
    "mu_local",
    "mu_subtask",
    "slack",
    "global_slack",
    "shape",
    "strategy",
    "scheduler",
    "preemptive",
    "speeds",
    "service_shape",
    "placement",
    "burst",
    "abort",
    "estimation",
    "duration",
    "warmup",
    "fault_mttf",
    "fault_mttr",
    "fault_crash",
    "fault_straggler",
    "fault_comm",
    "Load",
    "",
    "unknown",
];

/// Number spellings, with the edge floats: subnormals, signed zeros and
/// extremes, and the neighbours of 0 and 1, which bound every rate,
/// probability, fraction, load and multiplier.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "16",
    "0.5",
    "-1",
    "-0",
    "1e308",
    "-1e308",
    "1e309",
    "-1e309",
    "1e-320",
    "5e-324",
    "-5e-324",
    "0.9999999999999999",
    "1.0000000000000002",
    "1e10",
    "NaN",
    "nan",
    "inf",
    "-inf",
    "+3",
    "007",
    "18446744073709551616",
    "99999999999999999999999",
    "0x10",
    "1.5.2",
    "",
];

const WORDS: &[&str] = &[
    "none",
    "edf",
    "fcfs",
    "sjf",
    "LLF",
    "true",
    "no",
    "exp",
    "constant",
    "uniform",
    "random",
    "jsq",
    "abort",
    "requeue",
    "pm",
    "local",
    "local-drop",
    "exact",
    "factor:",
    "bias:",
    "mean:",
    "UD-UD",
    "EQF-DIV",
    "EQS-DIV-",
    "ED-GF",
    "UD-",
    "figure14",
    "parallel:",
    "uniform:",
    "spec:",
];

const SEPARATORS: &[&str] = &["..", ",", ":", "-", " ", "=", "#", "\t", "x", "é", "\u{0}"];

const SPEC_TOKENS: &[&str] = &[
    "[", "]", " ", "||", "|", "T1", "x", "\t", "\n", "[[", "]]", "é", "#", "",
];

/// One random value over the configuration vocabulary.
fn value(rng: &mut Rng) -> String {
    let mut out = String::new();
    for _ in 0..=rng.below(5) {
        match rng.below(4) {
            0 | 1 => out.push_str(rng.pick(NUMBERS)),
            2 => out.push_str(rng.pick(WORDS)),
            _ => out.push_str(rng.pick(SEPARATORS)),
        }
    }
    if rng.below(8) == 0 {
        out.push_str(&spec(rng));
    }
    out
}

/// One random string over the bracket notation's tokens.
fn spec(rng: &mut Rng) -> String {
    (0..rng.below(24)).map(|_| rng.pick(SPEC_TOKENS)).collect()
}

#[test]
fn config_text_never_panics() {
    let mut rng = Rng(1);
    let (mut accepted, mut ran) = (0, 0);
    for _ in 0..100_000 {
        // Half the inputs start from a short horizon, so that enough
        // accepted configurations are small enough to run.
        let mut text = match rng.below(2) {
            0 => format!("duration = {}\nwarmup = 0\n", rng.pick(NUMBERS)),
            _ => String::new(),
        };
        for _ in 0..=rng.below(4) {
            match rng.below(10) {
                0 => text.push_str(&value(&mut rng)),
                1 => text.push_str("# comment"),
                _ => {
                    let key = rng.pick(KEYS);
                    let value = value(&mut rng);
                    text.push_str(&format!("{key} = {value}"));
                }
            }
            text.push('\n');
        }
        let Ok(cfg) = SimConfig::from_text(&text) else {
            continue;
        };
        if cfg.validate().is_err() {
            continue;
        }
        accepted += 1;
        if cfg.expected_events() <= 100_000.0 {
            let point = SweepPoint::new(cfg, 5).stop(StopRule::FixedReps(1));
            if let Err(error) = Sweep::new().point(point).jobs(1).execute() {
                panic!("{error} on\n{text}");
            }
            ran += 1;
        }
    }
    assert!(accepted > 0, "some random settings are valid");
    assert!(ran > 0, "some valid settings are small enough to run");
}

#[test]
fn bracket_specs_never_panic() {
    let mut rng = Rng(2);
    let mut accepted = 0;
    for _ in 0..100_000 {
        let text = spec(&mut rng);
        if let Ok(spec) = parse_spec(&text) {
            accepted += usize::from(spec.validate().is_ok());
        }
    }
    assert!(accepted > 0, "some random specs are valid");
}
