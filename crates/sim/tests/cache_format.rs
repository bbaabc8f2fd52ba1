//! Format pins for the on-disk point cache: entries written by an
//! earlier build of the cache codec, committed under
//! `tests/fixtures/cache-v5/` (one file per point, named by its key).
//! Each must still decode, re-encode to the same bytes, and hit when a
//! cache is opened over that directory — so cache directories written
//! before a codec change keep hitting after it.
//!
//! `tests/fixtures/cache-v4/`, `cache-v3/` and `cache-v2/` hold entries
//! as schemas 4, 3 and 2 wrote them: the same fixed-count point, and an
//! adaptive point (v4) or a batch-means point of a stop rule that no
//! longer exists (v3, v2). Schema 5 never reads them: their keys are not
//! the current ones, and a stale file found under a current key fails
//! verification instead of hitting. The v5 entries carry the v4 entries'
//! payloads byte for byte: schema 5 changed only the preimage, the
//! configuration's text form.

use std::path::PathBuf;

use sda_sim::cache::{
    canonical_point, parse_multi_run, point_key_of, serialize_multi_run, CACHE_SCHEMA_VERSION,
};
use sda_sim::runner::StopRule;
use sda_sim::{PointCache, SimConfig};

fn fixture_dir(schema: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(schema)
}

/// The quick baseline configuration the fixtures were simulated with.
fn quick_cfg() -> SimConfig {
    SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    }
}

/// The pinned points: `(base seed, stop rule, key)`. The fixed-count
/// key is the one `known_key_pins_cross_process_stability` pins.
fn pinned_points() -> [(u64, StopRule, &'static str); 2] {
    [
        (
            42,
            StopRule::FixedReps(2),
            "4c36f800781c38b19857946e6f5a2b90",
        ),
        (
            3,
            StopRule::CiWidth {
                target: 0.5,
                min_reps: 2,
                max_reps: 64,
            },
            "ca6e0ab54f1cb23105d4b5989e6c6e98",
        ),
    ]
}

#[test]
fn committed_entries_decode_and_reencode_byte_for_byte() {
    assert_eq!(CACHE_SCHEMA_VERSION, 5);
    for (seed, stop, key) in pinned_points() {
        let preimage = canonical_point(&quick_cfg(), seed, &stop);
        assert_eq!(point_key_of(&preimage), key, "key drifted for {stop:?}");
        let path = fixture_dir("cache-v5").join(format!("{key}.sdacache"));
        let text = std::fs::read_to_string(&path).expect("fixture present");
        let multi = parse_multi_run(&text, &preimage).expect("fixture decodes");
        assert!(
            serialize_multi_run(&preimage, &multi) == text,
            "{} does not re-encode to the same bytes",
            path.display()
        );
    }
}

#[test]
fn committed_directory_serves_disk_hits() {
    let cache = PointCache::with_dir(fixture_dir("cache-v5")).expect("fixture dir opens");
    for (seed, stop, key) in pinned_points() {
        let preimage = canonical_point(&quick_cfg(), seed, &stop);
        assert!(
            cache.lookup(key.to_string(), preimage).is_ok(),
            "{key} misses"
        );
    }
    let report = cache.report();
    assert_eq!(
        (report.hits_disk, report.misses, report.errors()),
        (2, 0, 0)
    );
}

/// The stale fixture directories and the keys their schemas filed the
/// fixed-count point and the adaptive (v4) or batch-means point under;
/// each stale entry stands in for the [`pinned_points`] entry at its
/// position.
const STALE: [(&str, [&str; 2]); 3] = [
    (
        "cache-v2",
        [
            "e02b39b0339bbac90e578a5e78895be2",
            "b7b0598d256e2a2cfbd4bd128edee251",
        ],
    ),
    (
        "cache-v3",
        [
            "84ef8ff2d58a24626993341bd69af249",
            "300ace1938b16bd1837a48867b9ba0ac",
        ],
    ),
    (
        "cache-v4",
        [
            "04e422d4861b80b36486be121572ac1c",
            "d998ee8433876def271b245b43aa0af4",
        ],
    ),
];

#[test]
fn stale_directories_miss_without_errors() {
    for (schema, _) in STALE {
        let cache = PointCache::with_dir(fixture_dir(schema)).expect("fixture dir opens");
        for (seed, stop, key) in pinned_points() {
            let preimage = canonical_point(&quick_cfg(), seed, &stop);
            assert!(
                cache.lookup(key.to_string(), preimage).is_err(),
                "{schema}: {key} hits"
            );
        }
        let report = cache.report();
        assert_eq!(
            (report.hits_disk, report.misses, report.errors()),
            (0, 2, 0),
            "{schema}"
        );
    }
}

#[test]
fn stale_entry_under_a_current_key_fails_verification() {
    let dir = std::env::temp_dir().join(format!("sda-cache-stale-{}", std::process::id()));
    for (schema, stale_keys) in STALE {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        for ((seed, stop, key), stale_key) in pinned_points().into_iter().zip(stale_keys) {
            std::fs::copy(
                fixture_dir(schema).join(format!("{stale_key}.sdacache")),
                dir.join(format!("{key}.sdacache")),
            )
            .expect("copy the stale entry");
            let cache = PointCache::with_dir(&dir).unwrap();
            let preimage = canonical_point(&quick_cfg(), seed, &stop);
            assert!(
                cache.lookup(key.to_string(), preimage).is_err(),
                "{schema}: {key} hits"
            );
            let report = cache.report();
            assert_eq!(
                (report.hits_disk, report.misses, report.verify_errors),
                (0, 1, 1),
                "{schema}"
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
