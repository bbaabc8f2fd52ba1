//! Mutation fuzz of the point-cache decoder. Real payloads — the
//! committed format-pin entries and a fresh multi-class, fault-on run —
//! are truncated, bit-flipped, have tokens and lines deleted or
//! duplicated, have floats replaced by NaN, infinite and zero bits, and
//! are paired with foreign preimages. `parse_multi_run` must never
//! panic, and it may accept a mutant only if `serialize_multi_run` gives
//! the mutant back byte for byte: the decoder reads canonical encodings
//! only. Histogram lines get targeted mutants too, because the decoder
//! reads their bins four at a time where it can, and a differential test
//! of random bin vectors pins that path to the one-field path. A
//! histogram must also have the exact shape the simulator records into:
//! any other bin width or bin count, or bins that are not a used prefix,
//! reads as a miss rather than as a result that cannot be pooled.

use std::path::PathBuf;
use std::sync::Arc;

use sda_sim::cache::{canonical_point, parse_multi_run, point_key_of, serialize_multi_run};
use sda_sim::{
    FaultConfig, GlobalShape, MultiRun, PointCache, SimConfig, StopRule, Sweep, SweepPoint,
};
use sda_simcore::stats::Histogram;

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
    let preimage = canonical_point(&quick_cfg(), seed, &stop);
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/cache-v5")
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
    let preimage = canonical_point(&cfg, 17, &stop);
    let text = serialize_multi_run(&preimage, &multi);
    Payload { preimage, text }
}

fn payloads() -> Vec<Payload> {
    vec![
        fixture(42, StopRule::FixedReps(2)),
        fixture(
            3,
            StopRule::CiWidth {
                target: 0.5,
                min_reps: 2,
                max_reps: 64,
            },
        ),
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
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
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
            let (count, first): (u64, u64) = (t[4].parse().unwrap(), t[5].parse().unwrap());
            t[4] = (count - first - 1).to_string();
            t[5] = u64::MAX.to_string();
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

/// The first run's local histogram bins and overflow of `p`.
fn local_hist_parts(p: &Payload) -> (Vec<u64>, u64) {
    let multi = parse_multi_run(&p.text, &p.preimage).expect("payload decodes");
    let (_, _, bins, overflow, _) = multi.runs()[0].metrics.local_response_hist.to_parts();
    (bins.to_vec(), overflow)
}

#[test]
fn foreign_histogram_shapes_are_rejected() {
    let p = fixture(42, StopRule::FixedReps(2));
    let (bins, overflow) = local_hist_parts(&p);
    assert!(bins.len() > 2 && bins.len() < 400, "a short used prefix");
    let count = overflow + bins.iter().sum::<u64>();
    // Every count below is consistent with its bins, so only the shape
    // can reject the line.
    let mut past_len = bins.clone();
    past_len.resize(801, 0);
    past_len.push(1);
    let mut trailing_zero = bins.clone();
    trailing_zero.push(0);
    let rejected = [
        // A bin width of 0.5 instead of 0.25, and the next float up.
        edit_line(&p, "local_hist", |t| t[1] = "3fe0000000000000".into()),
        edit_line(&p, "local_hist", |t| t[1] = "3fd0000000000001".into()),
        // Bin counts other than 800: the prefix still fits in 400.
        edit_line(&p, "local_hist", |t| t[2] = "400".into()),
        edit_line(&p, "global_hist", |t| t[2] = "801".into()),
        edit_line(&p, "local_hist", |t| t[2] = u64::MAX.to_string()),
        edit_line(&p, "local_hist", |t| t[2] = "18446744073709551616".into()),
        // A prefix longer than its 800 bins, and one ending in a zero bin.
        with_hist(&p, overflow, count + 1, &spelled(&past_len)),
        with_hist(&p, overflow, count, &spelled(&trailing_zero)),
        with_hist(&p, overflow, overflow, &spelled(&[0])),
    ];
    for (i, mutant) in rejected.iter().enumerate() {
        assert_ne!(*mutant, p.text, "mutant {i} changed nothing");
        assert!(!accepts(mutant, &p.preimage), "mutant {i} was accepted");
    }
    // The same bins under the right shape decode.
    assert_eq!(
        decoded_bins(
            &with_hist(&p, overflow, count, &spelled(&bins)),
            &p.preimage
        ),
        Some(bins)
    );
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

/// The payload with the first run's `local_hist` overflow, count and bin
/// fields replaced; the bins are spelled as given.
fn with_hist(p: &Payload, overflow: u64, count: u64, bins: &[String]) -> String {
    edit_line(p, "local_hist", |t| {
        t.truncate(3);
        t.push(overflow.to_string());
        t.push(count.to_string());
        t.extend(bins.iter().cloned());
    })
}

/// The first run's local histogram bins of `mutant`, if it is accepted.
fn decoded_bins(mutant: &str, preimage: &str) -> Option<Vec<u64>> {
    accepts(mutant, preimage).then(|| {
        let multi = parse_multi_run(mutant, preimage).expect("accepted");
        multi.runs()[0]
            .metrics
            .local_response_hist
            .to_parts()
            .2
            .to_vec()
    })
}

/// Six four-bin groups of single-digit bins, one of them all zeros, so
/// every group is read by the bulk paths unless a mutant breaks it.
const GROUPS: [u64; 24] = [
    1, 2, 3, 4, 5, 6, 7, 8, 9, 0, 0, 0, 0, 0, 0, 0, 3, 1, 4, 1, 5, 9, 2, 6,
];

fn spelled(bins: &[u64]) -> Vec<String> {
    bins.iter().map(u64::to_string).collect()
}

#[test]
fn multi_digit_bins_decode_in_every_group_position() {
    let p = fixture(42, StopRule::FixedReps(2));
    for at in 0..GROUPS.len() {
        for wide in [10, 17, 99, 123_456_789_012] {
            let mut bins = GROUPS;
            bins[at] = wide;
            let text = with_hist(&p, 0, bins.iter().sum(), &spelled(&bins));
            assert_eq!(
                decoded_bins(&text, &p.preimage).as_deref(),
                Some(&bins[..]),
                "{wide} at bin {at}"
            );
        }
    }
}

#[test]
fn a_digit_right_after_a_group_extends_its_last_bin() {
    let p = fixture(42, StopRule::FixedReps(2));
    for group in 0..GROUPS.len() / 4 {
        let last = 4 * group + 3;
        let mut spelling = spelled(&GROUPS);
        spelling[last].push('5');
        let mut bins = GROUPS;
        bins[last] = 10 * bins[last] + 5;
        let text = with_hist(&p, 0, bins.iter().sum(), &spelling);
        // `05` is not canonical; any other digit makes a two-digit bin.
        let expected = (GROUPS[last] != 0).then_some(&bins[..]);
        assert_eq!(
            decoded_bins(&text, &p.preimage).as_deref(),
            expected,
            "group {group}"
        );
    }
}

#[test]
fn leading_zeros_inside_a_group_are_rejected() {
    let p = fixture(42, StopRule::FixedReps(2));
    let count = GROUPS.iter().sum();
    for at in 0..GROUPS.len() {
        for zeros in ["0", "00"] {
            let mut spelling = spelled(&GROUPS);
            spelling[at].insert_str(0, zeros);
            let text = with_hist(&p, 0, count, &spelling);
            assert!(!accepts(&text, &p.preimage), "{} at bin {at}", spelling[at]);
        }
    }
}

#[test]
fn groups_cut_by_a_line_end_or_the_text_end() {
    let p = fixture(42, StopRule::FixedReps(2));
    for cut in 0..=GROUPS.len() {
        // A line that ends inside a group is a shorter histogram, unless
        // its last bin is a zero one.
        let (kept, moved) = GROUPS.split_at(cut);
        let text = with_hist(&p, 0, kept.iter().sum(), &spelled(kept));
        let expected = (kept.last() != Some(&0)).then_some(kept);
        assert_eq!(decoded_bins(&text, &p.preimage).as_deref(), expected);
        if moved.is_empty() {
            continue;
        }
        // The rest of the bins on a line of their own is no line at all.
        let mut spelling = spelled(kept);
        spelling.push(format!("\n{}", moved[0]));
        spelling.extend(spelled(&moved[1..]));
        let split = with_hist(&p, 0, GROUPS.iter().sum(), &spelling);
        assert!(!accepts(&split, &p.preimage), "split after bin {cut}");
        // So is a text that ends inside the line.
        let whole = with_hist(&p, 0, GROUPS.iter().sum(), &spelled(&GROUPS));
        let start = whole.find("\nlocal_hist ").expect("histogram line") + 1;
        let field_end = start + whole[start..].match_indices(' ').nth(4 + cut).unwrap().0;
        for end in [field_end, field_end + 1, field_end + 2] {
            assert!(!accepts(&whole[..end], &p.preimage), "text cut at {end}");
        }
    }
}

#[test]
fn bulk_bins_summing_past_u64_max_are_rejected() {
    let p = fixture(42, StopRule::FixedReps(2));
    let sum: u64 = GROUPS.iter().sum();
    // Exactly `u64::MAX` adds up.
    let full = with_hist(&p, u64::MAX - sum, u64::MAX, &spelled(&GROUPS));
    assert_eq!(
        decoded_bins(&full, &p.preimage).as_deref(),
        Some(&GROUPS[..])
    );
    // One more wraps: whatever the wrapped sum, the line is rejected.
    for wrapped in [sum - 1, 0, u64::MAX] {
        let text = with_hist(&p, u64::MAX - sum + 1, wrapped, &spelled(&GROUPS));
        assert!(!accepts(&text, &p.preimage), "count {wrapped}");
    }
}

/// A random used prefix of bins: runs of zeros, single digits, and
/// multi-digit bins of up to twelve digits, ending in a non-zero bin.
fn random_bins(rng: &mut Rng, len: usize) -> Vec<u64> {
    let mut bins = Vec::with_capacity(len);
    while bins.len() < len {
        let room = len - bins.len();
        match rng.below(4) {
            0 => bins.extend(std::iter::repeat_n(0, 1 + rng.below(room.min(12)))),
            1 | 2 => bins.push(rng.next() % 10),
            _ => bins.push(10 + rng.next() % 10u64.pow(1 + rng.below(12) as u32)),
        }
    }
    if let Some(last @ 0) = bins.last_mut() {
        *last = 1 + rng.next() % 9;
    }
    bins
}

/// `p`'s payload re-encoded with the first run's local histogram holding
/// `bins`.
fn encode_with_bins(p: &Payload, base: &MultiRun, bins: Vec<u64>, overflow: u64) -> String {
    let mut runs = base.runs().to_vec();
    let count = overflow + bins.iter().sum::<u64>();
    runs[0].metrics.local_response_hist = Histogram::from_parts(0.25, 800, bins, overflow, count);
    let multi = MultiRun::from_parts(runs);
    serialize_multi_run(&p.preimage, &multi)
}

/// `text` with its first `local_hist` line edited at one random byte of
/// its bins, and its count set to what the bins' tokens add up to when
/// they all read as numbers, so that most mutants fail only on their
/// spelling.
fn mutate_bins(rng: &mut Rng, text: &str) -> String {
    let start = text.find("\nlocal_hist ").expect("histogram line") + 1;
    let end = start + text[start..].find('\n').expect("line end");
    let mut tokens: Vec<String> = text[start..end].split(' ').map(str::to_string).collect();
    let mut bins = tokens.split_off(5).join(" ").into_bytes();
    const BYTES: &[u8] = b"0123456789 \nx+";
    let byte = BYTES[rng.below(BYTES.len())];
    let at = rng.below(bins.len() + 1);
    match rng.below(3) {
        0 if at < bins.len() => bins[at] = byte,
        1 if at < bins.len() => {
            bins.remove(at);
        }
        _ => bins.insert(at, byte),
    }
    let bins = String::from_utf8(bins).expect("ASCII");
    let sum = bins
        .split(' ')
        .map(|t| t.parse::<u64>().ok())
        .try_fold(tokens[3].parse::<u64>().unwrap(), |sum, bin| {
            sum.checked_add(bin?)
        });
    if let Some(sum) = sum {
        tokens[4] = sum.to_string();
    }
    format!(
        "{}{} {bins}{}",
        &text[..start],
        tokens[..5].join(" "),
        &text[end..]
    )
}

#[test]
fn random_bin_vectors_round_trip_and_accepted_mutants_are_canonical() {
    let p = fixture(42, StopRule::FixedReps(2));
    let base = parse_multi_run(&p.text, &p.preimage).expect("fixture decodes");
    let mut rng = Rng(4);
    let mut accepted = 0;
    for len in 0..=64 {
        for _ in 0..4 {
            let bins = random_bins(&mut rng, len);
            let overflow = rng.next() % 1_000;
            let text = encode_with_bins(&p, &base, bins.clone(), overflow);
            assert_eq!(decoded_bins(&text, &p.preimage), Some(bins), "length {len}");
            for _ in 0..16 {
                let mutant = mutate_bins(&mut rng, &text);
                accepted += usize::from(accepts(&mutant, &p.preimage));
            }
        }
    }
    assert!(
        accepted > 0,
        "some mutants with a re-derived count are canonical"
    );
}
