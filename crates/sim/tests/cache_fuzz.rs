//! Mutation fuzz of the point-cache decoder. Real payloads — the
//! committed format-pin entries and a fresh multi-class, fault-on run —
//! are truncated, bit-flipped, have tokens and lines deleted or
//! duplicated, have floats replaced by NaN, infinite and zero bits, and
//! are paired with foreign preimages. `parse_multi_run` must never
//! panic, and it may accept a mutant only if `serialize_multi_run` gives
//! the mutant back byte for byte: the decoder reads canonical encodings
//! only.

use std::path::PathBuf;
use std::sync::Arc;

use sda_sim::cache::{canonical_point, parse_multi_run, point_key_of, serialize_multi_run};
use sda_sim::{FaultConfig, GlobalShape, PointCache, SimConfig, StopRule, Sweep, SweepPoint};

/// A payload to mutate, with the preimage it was written for.
struct Payload {
    preimage: String,
    text: String,
}

fn quick_cfg() -> SimConfig {
    SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

fn fixture(seed: u64, stop: StopRule) -> Payload {
    let preimage = canonical_point(&quick_cfg(), seed, &stop, 2, 64);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cache-v2")
        .join(format!("{}.sdacache", point_key_of(&preimage)));
    let text = std::fs::read_to_string(&path).expect("fixture present");
    Payload { preimage, text }
}

/// A point whose payload has several `global_md` classes and nonzero
/// fault counters.
fn multi_class() -> Payload {
    let cfg = SimConfig {
        duration: 1_500.0,
        warmup: 50.0,
        shape: GlobalShape::ParallelUniform { lo: 2, hi: 4 },
        fault: FaultConfig {
            mttf: 400.0,
            mttr: 20.0,
            straggler_prob: 0.05,
            straggler_factor: 3.0,
            comm_delay_prob: 0.1,
            comm_delay_mean: 0.5,
            ..FaultConfig::disabled()
        },
        ..SimConfig::baseline().with_load(0.6)
    };
    let stop = StopRule::FixedReps(2);
    let multi = Sweep::new()
        .point(SweepPoint::new(cfg.clone(), 17).stop(stop))
        .jobs(1)
        .execute()
        .unwrap()
        .remove(0);
    assert!(multi.runs()[0].metrics.global_md.len() >= 2);
    let preimage = canonical_point(&cfg, 17, &stop, 2, 64);
    let text = serialize_multi_run(&preimage, &multi);
    Payload { preimage, text }
}

fn payloads() -> Vec<Payload> {
    vec![
        fixture(42, StopRule::FixedReps(2)),
        fixture(3, StopRule::BatchMeans { batch_size: 64 }),
        multi_class(),
    ]
}

/// Decodes `mutant`; returns whether it was accepted, after checking
/// that an accepted mutant is the canonical encoding of what it decoded
/// to.
fn accepts(mutant: &str, preimage: &str) -> bool {
    let Some(multi) = parse_multi_run(mutant, preimage) else {
        return false;
    };
    assert!(
        serialize_multi_run(preimage, &multi) == mutant,
        "accepted a non-canonical encoding:\n{mutant}"
    );
    true
}

/// SplitMix64: a small deterministic generator for mutation sites.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The text with line `index` replaced by `with` (no lines when `None`).
fn replace_line(text: &str, index: usize, with: Option<&str>) -> String {
    let mut out = String::with_capacity(text.len() + 64);
    for (i, line) in text.lines().enumerate() {
        if i != index {
            out.push_str(line);
            out.push('\n');
        } else if let Some(with) = with {
            out.push_str(with);
            out.push('\n');
        }
    }
    out
}

#[test]
fn payloads_round_trip_unmutated() {
    for p in payloads() {
        assert!(accepts(&p.text, &p.preimage));
    }
}

#[test]
fn truncations_never_decode() {
    let mut rng = Rng(1);
    for p in payloads() {
        let mut cuts: Vec<usize> = p.text.match_indices('\n').map(|(i, _)| i).collect();
        cuts.extend(cuts.clone().into_iter().map(|i| i + 1));
        cuts.extend((0..200).map(|_| rng.below(p.text.len())));
        for cut in cuts.into_iter().filter(|&cut| cut < p.text.len()) {
            assert!(!accepts(&p.text[..cut], &p.preimage), "cut at {cut}");
        }
    }
}

#[test]
fn single_byte_flips_never_panic() {
    let mut rng = Rng(2);
    for p in payloads() {
        for _ in 0..1_500 {
            let mut bytes = p.text.clone().into_bytes();
            let at = rng.below(bytes.len());
            // Stay within ASCII so the mutant is still a `&str`.
            bytes[at] = if rng.below(2) == 0 {
                bytes[at] ^ (1 << rng.below(7))
            } else {
                rng.below(128) as u8
            };
            accepts(&String::from_utf8(bytes).unwrap(), &p.preimage);
        }
    }
}

#[test]
fn deleted_and_duplicated_lines_and_tokens_never_panic() {
    let mut rng = Rng(3);
    for p in payloads() {
        for (index, line) in p.text.lines().enumerate() {
            assert!(!accepts(&replace_line(&p.text, index, None), &p.preimage));
            let doubled = format!("{line}\n{line}");
            assert!(!accepts(
                &replace_line(&p.text, index, Some(&doubled)),
                &p.preimage
            ));
            let tokens: Vec<&str> = line.split(' ').collect();
            // Every token of the short lines; a sample of histogram bins.
            let sites: Vec<usize> = if tokens.len() <= 32 {
                (0..tokens.len()).collect()
            } else {
                (0..8)
                    .chain((0..8).map(|_| rng.below(tokens.len())))
                    .collect()
            };
            for k in sites {
                let mut fewer = tokens.clone();
                fewer.remove(k);
                let mut more = tokens.clone();
                more.insert(k, tokens[k]);
                for mutated in [fewer, more] {
                    accepts(
                        &replace_line(&p.text, index, Some(&mutated.join(" "))),
                        &p.preimage,
                    );
                }
            }
        }
    }
}

#[test]
fn special_float_bits_never_panic() {
    const SPECIALS: [&str; 7] = [
        "7ff8000000000000", // NaN
        "fff8000000000001", // negative NaN with a payload
        "7ff0000000000000", // +inf
        "fff0000000000000", // -inf
        "0000000000000000", // +0
        "8000000000000000", // -0
        "0000000000000001", // smallest subnormal
    ];
    let is_float = |t: &str| t.len() == 16 && t.bytes().all(|b| b.is_ascii_hexdigit());
    let mut accepted = 0;
    for p in payloads() {
        for (index, line) in p.text.lines().enumerate() {
            let tokens: Vec<&str> = line.split(' ').collect();
            for k in (0..tokens.len()).filter(|&k| is_float(tokens[k])) {
                for special in SPECIALS {
                    let mut mutated = tokens.clone();
                    mutated[k] = special;
                    let mutant = replace_line(&p.text, index, Some(&mutated.join(" ")));
                    accepted += usize::from(accepts(&mutant, &p.preimage));
                }
            }
        }
    }
    assert!(accepted > 0, "plain accumulator floats take any bits");
}

#[test]
fn foreign_preimages_never_decode() {
    let all = payloads();
    for a in &all {
        for b in &all {
            if a.preimage == b.preimage {
                continue;
            }
            assert!(!accepts(&a.text, &b.preimage));
            // Splice b's preimage into a's payload: it is then a valid
            // entry for b, and never for a.
            let spliced = a.text.replacen(&a.preimage, &b.preimage, 1);
            assert!(!accepts(&spliced, &a.preimage));
            if a.preimage.lines().count() == b.preimage.lines().count() {
                assert!(accepts(&spliced, &b.preimage));
            }
        }
    }
}

/// The payload with the first line tagged `tag` edited by `edit`.
fn edit_line(p: &Payload, tag: &str, edit: impl Fn(&mut Vec<String>)) -> String {
    let index = p
        .text
        .lines()
        .position(|line| line.split(' ').next() == Some(tag))
        .expect("tag present");
    let line = p.text.lines().nth(index).unwrap();
    let mut tokens: Vec<String> = line.split(' ').map(str::to_string).collect();
    edit(&mut tokens);
    replace_line(&p.text, index, Some(&tokens.join(" ")))
}

#[test]
fn values_the_results_cannot_hold_are_rejected() {
    let p = fixture(42, StopRule::FixedReps(2));
    let nan = "7ff8000000000000";
    let rejected = [
        // NaN simulated times: a node's `last_time` and `start`, and the
        // run's duration.
        edit_line(&p, "node", |t| t[6] = nan.into()),
        edit_line(&p, "node", |t| t[8] = nan.into()),
        edit_line(&p, "run", |t| t[3] = nan.into()),
        // Histogram bin widths that are zero, negative, infinite or NaN.
        edit_line(&p, "local_hist", |t| t[1] = "0000000000000000".into()),
        edit_line(&p, "local_hist", |t| t[1] = "bfd0000000000000".into()),
        edit_line(&p, "local_hist", |t| t[1] = "7ff0000000000000".into()),
        edit_line(&p, "global_hist", |t| t[1] = nan.into()),
        // Bins whose sum overflows a u64 and, wrapped, equals the count.
        edit_line(&p, "local_hist", |t| {
            let (count, first): (u64, u64) = (t[3].parse().unwrap(), t[4].parse().unwrap());
            t[3] = (count - first - 1).to_string();
            t[4] = u64::MAX.to_string();
        }),
        // A miss counter with more misses than outcomes.
        edit_line(&p, "local_md", |t| t[1] = (u64::MAX - 1).to_string()),
        // No runs at all.
        format!("{}runs 0\n", &p.text[..=p.text.find("\nruns 2\n").unwrap()]),
        // Counts too large for the text, or for a u64.
        p.text.replacen("\nruns 2\n", "\nruns 4000000000\n", 1),
        p.text
            .replacen("\nruns 2\n", "\nruns 18446744073709551616\n", 1),
        p.text
            .replacen("\nnodes 6\n", "\nnodes 18446744073709551615\n", 1),
    ];
    for (i, mutant) in rejected.iter().enumerate() {
        assert_ne!(*mutant, p.text, "mutant {i} changed nothing");
        assert!(!accepts(mutant, &p.preimage), "mutant {i} was accepted");
    }
}

#[test]
fn non_canonical_spellings_are_rejected() {
    let p = fixture(42, StopRule::FixedReps(2));
    let rejected = [
        p.text.replacen("\nruns 2\n", "\nruns +2\n", 1),
        p.text.replacen("\nruns 2\n", "\nruns 02\n", 1),
        p.text.replacen("\nruns 2\n", "\nruns  2\n", 1),
        p.text.replacen("\nruns 2\n", "\nruns 2 \n", 1),
        p.text.replacen("\nruns 2\n", "\nruns\t2\n", 1),
        p.text.replacen("\nruns 2\n", "\nruns 2\r\n", 1),
        edit_line(&p, "missed_work", |t| t[1] = t[1].to_uppercase()),
        edit_line(&p, "missed_work", |t| t[1].insert(0, '0')),
        edit_line(&p, "missed_work", |t| {
            t[1].remove(0);
        }),
        format!("{}\n", p.text),
        format!("{}run", p.text),
        p.text[..p.text.len() - 1].to_string(),
    ];
    for (i, mutant) in rejected.iter().enumerate() {
        assert_ne!(*mutant, p.text, "mutant {i} changed nothing");
        assert!(!accepts(mutant, &p.preimage), "mutant {i} was accepted");
    }
    // Class counters must be in strictly ascending class order.
    let q = multi_class();
    let swapped = edit_line(&q, "global_md", |t| {
        let (first, second) = (t[2..5].to_vec(), t[5..8].to_vec());
        t.splice(2..8, second.into_iter().chain(first));
    });
    let repeated = edit_line(&q, "global_md", |t| t[5] = t[2].clone());
    assert!(!accepts(&swapped, &q.preimage));
    assert!(!accepts(&repeated, &q.preimage));
}

#[test]
fn corrupted_entry_is_recomputed_not_a_panic() {
    let dir = std::env::temp_dir().join(format!("sda-cache-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let p = fixture(42, StopRule::FixedReps(2));
    let path = dir.join(format!("{}.sdacache", point_key_of(&p.preimage)));
    std::fs::write(
        &path,
        edit_line(&p, "node", |t| t[6] = "7ff8000000000000".into()),
    )
    .unwrap();
    let cache = Arc::new(PointCache::with_dir(&dir).unwrap());
    let point = SweepPoint::new(quick_cfg(), 42).stop(StopRule::FixedReps(2));
    let replayed = Sweep::new()
        .point(point.clone())
        .cache(Arc::clone(&cache))
        .execute()
        .unwrap()
        .remove(0);
    let report = cache.report();
    assert_eq!((report.misses, report.verify_errors), (1, 1));
    let fresh = Sweep::new().point(point).execute().unwrap().remove(0);
    assert_eq!(replayed.stats().to_json(), fresh.stats().to_json());
    // The recomputed point overwrote the corrupted entry.
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(parse_multi_run(&text, &p.preimage).is_some());
    let _ = std::fs::remove_dir_all(&dir);
}
