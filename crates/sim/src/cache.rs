//! Content-addressed result cache for experiment data points.
//!
//! A *point* is `(SimConfig, base seed, stop rule)`; its result is a
//! [`MultiRun`]. Because the simulator is deterministic — replication
//! `i` of base seed `b` always runs with `derive_seed(b, i)` — a point's
//! result is a pure function of the point itself, so results can be
//! memoized by content address:
//!
//! * **key** = a stable 128-bit hash of the point's *canonical text*
//!   ([`canonical_point`]): [`CACHE_SCHEMA_VERSION`], the configuration's
//!   text form ([`SimConfig::to_text`]), the base seed, and the stop rule
//!   (with the adaptive rule's replication bounds);
//! * **value** = the serialized [`MultiRun`], with every `f64` stored as
//!   its exact bit pattern so a reloaded result is bit-identical to the
//!   simulated one.
//!
//! [`PointCache`] layers an in-memory map (deduplicating repeated points
//! within one process, e.g. the same baseline curve appearing in two
//! figures) over an optional on-disk directory (making `repro`
//! incremental across invocations). Each cache file also stores the full
//! canonical preimage; a lookup whose stored preimage does not match is
//! treated as a miss, so a (cosmically unlikely) hash collision or a
//! truncated file degrades to recomputation, never to a wrong result.
//!
//! # Invalidation
//!
//! Keys change whenever any simulated parameter changes, and whenever
//! [`CACHE_SCHEMA_VERSION`] is bumped. Bump the version when simulation
//! semantics change (event ordering, RNG draws, metric definitions) even
//! though the configuration type did not: stale entries then miss
//! naturally and are recomputed. Nothing is ever deleted; a cache
//! directory can be wiped at any time.

use std::collections::{BTreeMap, HashMap};
use std::fs::File;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use sda_simcore::stats::{Histogram, MissCounter, NodeStats, TimeWeighted, WeightedMiss, Welford};
use sda_simcore::SimTime;

use crate::config::text::{push_f64, push_u64};
use crate::config::SimConfig;
use crate::fault::FaultConfig;
use crate::metrics::{response_histogram, Metrics};
use crate::runner::{MultiRun, RunResult, StopRule};

/// Version of both the canonical point text and the on-disk value
/// format. Part of every key: bumping it invalidates all prior entries.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

// ---------------------------------------------------------------------
// Canonical serialization and stable hashing
// ---------------------------------------------------------------------

/// Appends the 16 lowercase hex digits of `x`, as `{x:016x}` writes them.
fn push_hex16(out: &mut String, x: u64) {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    for shift in (0..16).rev() {
        out.push(char::from(DIGITS[(x >> (4 * shift)) as usize & 0xF]));
    }
}

/// The canonical text of a full data point: the schema version, the
/// configuration's text form ([`SimConfig::to_text`], one `key=value`
/// line per setting, with a disabled fault layer written as the
/// default), the base seed, and the stop rule. The adaptive rule writes
/// its replication bounds as the sweep reads them, clamped, because
/// they shape the result.
pub fn canonical_point(cfg: &SimConfig, seed: u64, stop: &StopRule) -> String {
    // A disk hit keeps this buffer in the memory layer: 512 bytes hold
    // every quick-campaign preimage (400-468 bytes) without growing.
    let mut out = String::with_capacity(512);
    out.push_str("schema=");
    push_u64(&mut out, u64::from(CACHE_SCHEMA_VERSION));
    out.push('\n');
    if cfg.fault.any_enabled() || cfg.fault == FaultConfig::disabled() {
        cfg.write_text(&mut out);
    } else {
        // Every disabled fault configuration simulates identically (no
        // fault stream is ever drawn), so they all share one key.
        let cfg = SimConfig {
            fault: FaultConfig::disabled(),
            ..cfg.clone()
        };
        cfg.write_text(&mut out);
    }
    out.push_str("seed=");
    push_u64(&mut out, seed);
    match stop {
        StopRule::FixedReps(n) => {
            out.push_str("\nstop=fixed:");
            push_u64(&mut out, *n as u64);
        }
        StopRule::CiWidth { target, .. } => {
            let (min_reps, max_reps) = stop.rep_bounds();
            out.push_str("\nstop=ci:target=");
            push_f64(&mut out, *target);
            out.push_str(",min=");
            push_u64(&mut out, min_reps as u64);
            out.push_str(",max=");
            push_u64(&mut out, max_reps as u64);
        }
    }
    out.push('\n');
    out
}

/// The stable 128-bit content address of a canonical point text,
/// rendered as 32 hex digits. Two independent 64-bit FNV-1a lanes (the
/// standard offset basis and a salted one), hashed in one pass over the
/// text, make accidental collisions negligible; the stored preimage makes
/// even a real collision safe (it reads back as a miss).
///
/// This hash is implemented here — not with `std`'s `DefaultHasher` —
/// because the key must be stable across processes, platforms, and Rust
/// releases; `DefaultHasher` guarantees none of those.
pub fn point_key_of(canonical: &str) -> String {
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let (mut lo, mut hi) = (0xCBF2_9CE4_8422_2325_u64, 0x6C62_272E_07BB_0142_u64);
    for &byte in canonical.as_bytes() {
        lo = (lo ^ u64::from(byte)).wrapping_mul(PRIME);
        hi = (hi ^ u64::from(byte)).wrapping_mul(PRIME);
    }
    let mut key = String::with_capacity(32);
    push_hex16(&mut key, hi);
    push_hex16(&mut key, lo);
    key
}

// ---------------------------------------------------------------------
// MultiRun (de)serialization
// ---------------------------------------------------------------------
//
// A cache file is a sequence of lines, each a tag followed by
// space-separated fields and a `\n`: integers in decimal, floats as the
// 16 lowercase hex digits of their bits. `Encoder` writes it and
// `Cursor` reads it back, method for method, so the two halves below
// mirror each other line for line.

/// Appends cache file lines to one `String`, with no temporaries.
struct Encoder {
    out: String,
}

impl Encoder {
    /// Starts a line with its tag.
    fn tag(&mut self, tag: &str) -> &mut Encoder {
        self.out.push_str(tag);
        self
    }

    /// Appends ` N` in decimal.
    fn u64(&mut self, x: u64) -> &mut Encoder {
        self.out.push(' ');
        push_u64(&mut self.out, x);
        self
    }

    /// Appends ` X`: the 16 lowercase hex digits of `x`'s bits.
    fn f64(&mut self, x: f64) -> &mut Encoder {
        self.out.push(' ');
        push_hex16(&mut self.out, x.to_bits());
        self
    }

    fn miss(&mut self, counter: &MissCounter) -> &mut Encoder {
        self.u64(counter.missed()).u64(counter.total())
    }

    fn welford(&mut self, w: &Welford) -> &mut Encoder {
        let (count, mean, m2, min, max) = w.to_parts();
        self.u64(count).f64(mean).f64(m2).f64(min).f64(max)
    }

    fn hist(&mut self, h: &Histogram) -> &mut Encoder {
        let (bin_width, len, bins, overflow, count) = h.to_parts();
        self.f64(bin_width).u64(len as u64).u64(overflow).u64(count);
        for &bin in bins {
            self.u64(bin);
        }
        self
    }

    /// Ends the line.
    fn end(&mut self) {
        self.out.push('\n');
    }
}

/// Serializes a [`MultiRun`] (with its canonical preimage) into the
/// cache file text. Every float is stored as its exact bit pattern.
pub fn serialize_multi_run(preimage: &str, multi: &MultiRun) -> String {
    let mut e = Encoder {
        out: String::with_capacity(preimage.len() + 64 + 5_120 * multi.runs().len()),
    };
    e.tag("sda-point-cache")
        .u64(u64::from(CACHE_SCHEMA_VERSION))
        .end();
    e.tag("preimage").u64(preimage.lines().count() as u64).end();
    e.out.push_str(preimage);
    e.tag("payload").end();
    e.tag("runs").u64(multi.runs().len() as u64).end();
    for run in multi.runs() {
        let m = &run.metrics;
        e.tag("run")
            .u64(run.seed)
            .u64(run.events)
            .f64(run.duration)
            .f64(run.wall_secs)
            .end();
        e.tag("local_md").miss(&m.local_md).end();
        e.tag("subtask_md").miss(&m.subtask_md).end();
        e.tag("global_md").u64(m.global_md.len() as u64);
        for (&n, counter) in &m.global_md {
            e.u64(u64::from(n)).miss(counter);
        }
        e.end();
        e.tag("missed_work")
            .f64(m.missed_work.missed_amount())
            .f64(m.missed_work.total())
            .end();
        e.tag("local_response").welford(&m.local_response).end();
        e.tag("global_response").welford(&m.global_response).end();
        e.tag("local_tardiness").welford(&m.local_tardiness).end();
        e.tag("global_tardiness").welford(&m.global_tardiness).end();
        e.tag("local_hist").hist(&m.local_response_hist).end();
        e.tag("global_hist").hist(&m.global_response_hist).end();
        e.tag("counters")
            .u64(m.aborted_locals)
            .u64(m.aborted_globals)
            .u64(m.local_scheduler_aborts)
            .u64(m.resubmissions)
            .u64(m.preemptions)
            .end();
        e.tag("fault_counters")
            .u64(m.node_crashes)
            .u64(m.crash_aborts)
            .u64(m.crash_requeues)
            .u64(m.straggler_inflations)
            .u64(m.comm_delays)
            .end();
        e.tag("nodes").u64(run.node_stats.len() as u64).end();
        for node in &run.node_stats {
            let (area, last_time, last_value, start) = node.queue_stats().to_parts();
            e.tag("node")
                .f64(node.busy())
                .u64(node.served())
                .miss(node.local_counter())
                .f64(area)
                .f64(last_time.value())
                .f64(last_value)
                .f64(start.value())
                .end();
        }
    }
    e.out
}

/// A forward cursor over cache file text, decoding it in one pass. Each
/// accessor consumes exactly the canonical encoding of its value and
/// returns `None` on anything else, so malformed input reads as a miss.
/// (Call arguments, tuple, array and struct fields evaluate left to
/// right, so `(c.u64()?, c.f64()?)` reads two fields in line order.)
struct Cursor<'a> {
    rest: &'a [u8],
}

impl Cursor<'_> {
    /// Consumes `literal` exactly.
    fn eat(&mut self, literal: &str) -> Option<()> {
        self.rest = self.rest.strip_prefix(literal.as_bytes())?;
        Some(())
    }

    /// Reads one line: its tag, the fields `fields` consumes, and the
    /// line end.
    fn line<T>(&mut self, tag: &str, fields: impl FnOnce(&mut Self) -> Option<T>) -> Option<T> {
        self.eat(tag)?;
        let value = fields(self)?;
        self.eat("\n")?;
        Some(value)
    }

    /// Reads a `tag N` line announcing `N` items to follow. A count the
    /// rest of the text could not hold is rejected before anything is
    /// allocated for it.
    fn count(&mut self, tag: &str) -> Option<usize> {
        let n = self.line(tag, Self::u64)?;
        usize::try_from(n).ok().filter(|&n| n <= self.rest.len())
    }

    /// ` N`: a decimal `u64` with no sign and no leading zeros. A `0` is
    /// a whole field: of `05` the `5` is left over, and the next read
    /// rejects it, since every field starts with a space and every line
    /// ends with `\n`.
    fn u64(&mut self) -> Option<u64> {
        let [b' ', first @ b'0'..=b'9', ref rest @ ..] = *self.rest else {
            return None;
        };
        let (mut value, mut rest) = (u64::from(first - b'0'), rest);
        if value != 0 {
            while let [d @ b'0'..=b'9', ref tail @ ..] = *rest {
                value = value.checked_mul(10)?.checked_add(u64::from(d - b'0'))?;
                rest = tail;
            }
        }
        self.rest = rest;
        Some(value)
    }

    /// ` X`: an `f64` as exactly 16 lowercase hex digits of its bits.
    fn f64(&mut self) -> Option<f64> {
        let (high, rest) = self.rest.strip_prefix(b" ")?.split_first_chunk::<8>()?;
        let (low, rest) = rest.split_first_chunk::<8>()?;
        let bits = (u64::from(hex8(*high)?) << 32) | u64::from(hex8(*low)?);
        self.rest = rest;
        Some(f64::from_bits(bits))
    }

    /// An `f64` field holding a simulated time, which cannot be NaN.
    fn time(&mut self) -> Option<SimTime> {
        let t = self.f64()?;
        (!t.is_nan()).then(|| SimTime::from(t))
    }

    fn u64s<const N: usize>(&mut self) -> Option<[u64; N]> {
        let mut values = [0; N];
        for value in &mut values {
            *value = self.u64()?;
        }
        Some(values)
    }

    /// ` missed total`, with `missed <= total`.
    fn miss(&mut self) -> Option<MissCounter> {
        let (missed, total) = (self.u64()?, self.u64()?);
        (missed <= total).then(|| MissCounter::from_parts(missed, total))
    }

    /// ` K n₁ missed₁ total₁ …`: the per-class global miss counters, in
    /// strictly ascending class order (the order a map iterates in).
    fn classes(&mut self) -> Option<BTreeMap<u32, MissCounter>> {
        let count = self.u64()?;
        let mut classes = BTreeMap::new();
        for _ in 0..count {
            let n = u32::try_from(self.u64()?).ok()?;
            if classes.last_key_value().is_some_and(|(&last, _)| n <= last) {
                return None;
            }
            classes.insert(n, self.miss()?);
        }
        Some(classes)
    }

    fn welford(&mut self) -> Option<Welford> {
        Some(Welford::from_parts(
            self.u64()?,
            self.f64()?,
            self.f64()?,
            self.f64()?,
            self.f64()?,
        ))
    }

    /// ` width len overflow count bin…`: a response-time histogram in the
    /// exact shape [`Metrics`] records into (its bin width, bit for bit,
    /// and its bin count `len`), holding its used prefix: at most `len`
    /// bins, the last of them non-zero. The bins and the overflow must
    /// sum (without overflowing) to the count, checked as the bins are
    /// read. Any other shape would read as a result whose replications
    /// cannot be pooled.
    ///
    /// The bins run to the line end, and each takes at least two bytes,
    /// so the vector is sized once from the line's length (capped at
    /// `len`). Most bins are a single digit, so the bins are read eight
    /// bytes, four fields, at a time where they can be: a group of four
    /// ` d` fields is decoded at once when the byte after it starts
    /// another field or ends the line. Any other field is read alone by
    /// [`Cursor::u64`], so both paths accept the same encodings.
    fn hist(&mut self) -> Option<Histogram> {
        let (bin_width, len, overflow, count) =
            (self.f64()?, self.u64()?, self.u64()?, self.u64()?);
        let (shape_width, shape_len, ..) = response_histogram().to_parts();
        if bin_width.to_bits() != shape_width.to_bits() || len != shape_len as u64 {
            return None;
        }
        let (line, after) = self.rest.split_at(line_len(self.rest));
        let mut bins = Vec::with_capacity((line.len() / 2).min(shape_len));
        let mut sum = overflow;
        let mut fields = Cursor { rest: line };
        while !fields.rest.is_empty() {
            if let Some((group, tail)) = fields.rest.split_first_chunk::<8>() {
                if let (Some(digits), None | Some(b' ')) = (single_digits(*group), tail.first()) {
                    sum = sum.checked_add(digits.iter().sum())?;
                    bins.extend_from_slice(&digits);
                    fields.rest = tail;
                    continue;
                }
            }
            let bin = fields.u64()?;
            sum = sum.checked_add(bin)?;
            bins.push(bin);
        }
        self.rest = after;
        (sum == count && bins.len() <= shape_len && bins.last() != Some(&0))
            .then(|| Histogram::from_parts(bin_width, shape_len, bins, overflow, count))
    }

    /// ` busy served missed total area last_time last_value start`.
    fn node(&mut self) -> Option<NodeStats> {
        let (busy, served, local) = (self.f64()?, self.u64()?, self.miss()?);
        let queue = TimeWeighted::from_parts(self.f64()?, self.time()?, self.f64()?, self.time()?);
        Some(NodeStats::from_parts(busy, served, local, queue))
    }

    /// One serialized run, from its `run` line through its last `node`.
    fn run(&mut self) -> Option<RunResult> {
        let (seed, events, duration, wall_secs) =
            self.line("run", |c| Some((c.u64()?, c.u64()?, c.time()?, c.f64()?)))?;
        let local_md = self.line("local_md", Self::miss)?;
        let subtask_md = self.line("subtask_md", Self::miss)?;
        let global_md = self.line("global_md", Self::classes)?;
        let missed_work = self.line("missed_work", |c| {
            Some(WeightedMiss::from_parts(c.f64()?, c.f64()?))
        })?;
        let local_response = self.line("local_response", Self::welford)?;
        let global_response = self.line("global_response", Self::welford)?;
        let local_tardiness = self.line("local_tardiness", Self::welford)?;
        let global_tardiness = self.line("global_tardiness", Self::welford)?;
        let local_response_hist = self.line("local_hist", Self::hist)?;
        let global_response_hist = self.line("global_hist", Self::hist)?;
        let [aborted_locals, aborted_globals, local_scheduler_aborts, resubmissions, preemptions] =
            self.line("counters", Self::u64s)?;
        let [node_crashes, crash_aborts, crash_requeues, straggler_inflations, comm_delays] =
            self.line("fault_counters", Self::u64s)?;
        let nodes = self.count("nodes")?;
        let mut node_stats = Vec::with_capacity(nodes);
        for _ in 0..nodes {
            node_stats.push(self.line("node", Self::node)?);
        }
        Some(RunResult {
            metrics: Metrics {
                local_md,
                subtask_md,
                global_md,
                missed_work,
                local_response,
                global_response,
                local_response_hist,
                global_response_hist,
                local_tardiness,
                global_tardiness,
                aborted_locals,
                aborted_globals,
                local_scheduler_aborts,
                resubmissions,
                preemptions,
                node_crashes,
                crash_aborts,
                crash_requeues,
                straggler_inflations,
                comm_delays,
            },
            events,
            node_stats,
            duration: duration.value(),
            seed,
            wall_secs,
        })
    }
}

// Word-at-a-time helpers for `Cursor`: each tests and decodes eight
// bytes as the lanes of one `u64`, with no branch per byte.

/// Ones in the low bit of each byte lane.
const BYTE_LANES: u64 = 0x0101_0101_0101_0101;

/// The length of the line `text` starts: the bytes before its first `\n`,
/// or all of them.
fn line_len(text: &[u8]) -> usize {
    let (words, tail) = text.as_chunks::<8>();
    for (i, &word) in words.iter().enumerate() {
        // A lane is zero exactly where the byte is `\n`; the lowest lane
        // this flags is the first zero lane (a borrow only flags lanes
        // above a zero one).
        let x = u64::from_le_bytes(word) ^ (u64::from(b'\n') * BYTE_LANES);
        let zero = x.wrapping_sub(BYTE_LANES) & !x & (0x80 * BYTE_LANES);
        if zero != 0 {
            return 8 * i + zero.trailing_zeros() as usize / 8;
        }
    }
    let len = 8 * words.len();
    len + tail.iter().position(|&b| b == b'\n').unwrap_or(tail.len())
}

/// The value of eight lowercase hex digits, or `None` if the bytes are
/// anything else. A digit's nibble is its low four bits, plus 9 for a
/// letter (bit 6 set); the digits are valid exactly when those nibbles
/// are below 16 and encode back to the input, `0x30 + n` below ten and
/// `0x57 + n` above.
fn hex8(digits: [u8; 8]) -> Option<u32> {
    let word = u64::from_be_bytes(digits);
    let nibbles = (word & (0x0F * BYTE_LANES)) + ((word >> 6) & BYTE_LANES) * 9;
    let letters = ((nibbles + 0x06 * BYTE_LANES) >> 4) & BYTE_LANES;
    let encoded = nibbles + 0x30 * BYTE_LANES + letters * 0x27;
    if encoded != word || nibbles & (0xF0 * BYTE_LANES) != 0 {
        return None;
    }
    // Pack the eight nibbles, most significant first: pairs into bytes,
    // bytes into 16-bit halves, halves into the result.
    let bytes = (nibbles | (nibbles >> 4)) & 0x00FF_00FF_00FF_00FF;
    let halves = (bytes | (bytes >> 8)) & 0x0000_FFFF_0000_FFFF;
    Some((halves | (halves >> 16)) as u32)
}

/// The values of four ` d` fields packed in eight bytes, or `None` if the
/// bytes are anything else. The fields are the 16-bit lanes of one word:
/// the low byte of each must be a space and the high byte a digit,
/// `0x30..=0x39`, that is, a high nibble of 3 and a low nibble that does
/// not carry past 15 when 6 is added.
fn single_digits(group: [u8; 8]) -> Option<[u64; 4]> {
    const LANES: u64 = 0x0001_0001_0001_0001;
    let word = u64::from_le_bytes(group);
    let digits = (word >> 8) & (0xFF * LANES);
    let values = digits & (0x0F * LANES);
    let valid = word & (0xFF * LANES) == 0x20 * LANES
        && digits & (0xF0 * LANES) == 0x30 * LANES
        && (values + 0x06 * LANES) & (0x10 * LANES) == 0;
    valid.then_some([
        values & 0xF,
        (values >> 16) & 0xF,
        (values >> 32) & 0xF,
        values >> 48,
    ])
}

/// Parses a cache file back into a [`MultiRun`], verifying that the
/// stored preimage matches `expected_preimage` exactly. Returns `None` —
/// a cache miss — on any format mismatch, version skew, or preimage
/// disagreement (hash collision or corruption).
///
/// Only the canonical encoding is accepted — the exact bytes
/// [`serialize_multi_run`] writes for the decoded value: single spaces,
/// exact field counts, integers without sign or leading zeros, floats
/// as 16 lowercase hex digits, classes in ascending order, nothing after
/// the last line. Values the result types cannot hold (a NaN time, a
/// histogram that does not add up) are rejected too, so no input makes
/// the decoder panic.
pub fn parse_multi_run(text: &str, expected_preimage: &str) -> Option<MultiRun> {
    decode(text.as_bytes(), expected_preimage)
}

/// [`parse_multi_run`] over the raw bytes of a cache file. Any byte
/// outside the canonical encoding, a non-UTF-8 one included, reads as a
/// miss, so a disk hit needs no UTF-8 check before it.
fn decode(bytes: &[u8], expected_preimage: &str) -> Option<MultiRun> {
    let mut c = Cursor { rest: bytes };
    if c.line("sda-point-cache", Cursor::u64)? != u64::from(CACHE_SCHEMA_VERSION)
        || c.line("preimage", Cursor::u64)? != expected_preimage.lines().count() as u64
    {
        return None;
    }
    c.eat(expected_preimage)?;
    c.eat("payload\n")?;
    let count = c.count("runs")?;
    if count == 0 {
        return None;
    }
    let mut runs = Vec::with_capacity(count);
    for _ in 0..count {
        runs.push(c.run()?);
    }
    c.rest.is_empty().then(|| MultiRun::from_parts(runs))
}

// ---------------------------------------------------------------------
// The cache proper
// ---------------------------------------------------------------------

/// Hit/miss accounting of a [`PointCache`], as reported by `repro` and
/// asserted by the CI cache-smoke job.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheReport {
    /// Points resolved from the in-memory map (including points
    /// deduplicated within a single sweep).
    pub hits_memory: u64,
    /// Points resolved from the on-disk store.
    pub hits_disk: u64,
    /// Points that had to be simulated.
    pub misses: u64,
    /// Cache files that existed but could not be read (IO errors other
    /// than the file being absent). Each one degraded to recomputation.
    pub read_errors: u64,
    /// Computed results that could not be persisted to disk. The result
    /// itself is unaffected; the next invocation recomputes the point.
    pub write_errors: u64,
    /// Cache files that were read but failed verification (version skew,
    /// truncation, corruption, or preimage mismatch). Each one was
    /// treated as a miss.
    pub verify_errors: u64,
}

impl CacheReport {
    /// Total points resolved without simulation.
    pub fn hits(&self) -> u64 {
        self.hits_memory + self.hits_disk
    }

    /// Total points that went through the cache.
    pub fn points(&self) -> u64 {
        self.hits() + self.misses
    }

    /// Total IO/verification errors the cache degraded around.
    pub fn errors(&self) -> u64 {
        self.read_errors + self.write_errors + self.verify_errors
    }
}

impl std::fmt::Display for CacheReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // No lookups at all reads as a 100% hit rate.
        let hit_rate = if self.points() == 0 {
            1.0
        } else {
            self.hits() as f64 / self.points() as f64
        };
        write!(
            f,
            "cache: {}/{} points hit ({:.1}% — memory {}, disk {}), {} simulated",
            self.hits(),
            self.points(),
            100.0 * hit_rate,
            self.hits_memory,
            self.hits_disk,
            self.misses
        )?;
        if self.errors() > 0 {
            write!(
                f,
                "; {} cache errors (read {}, write {}, verify {})",
                self.errors(),
                self.read_errors,
                self.write_errors,
                self.verify_errors
            )?;
        }
        Ok(())
    }
}

/// A memoization layer for sweep points: an in-memory map, optionally
/// backed by an on-disk content-addressed store.
///
/// Thread-safe; share one handle (via [`Arc`]) across sweeps to
/// deduplicate identical points campaign-wide. Results are held and
/// handed out as `Arc<MultiRun>`, so a hit shares the stored result
/// instead of copying it.
#[derive(Debug)]
pub struct PointCache {
    dir: Option<PathBuf>,
    /// key → (preimage, result); the preimage is kept so even a memory
    /// hit verifies the full canonical text, not just its hash.
    memory: Mutex<HashMap<String, (String, Arc<MultiRun>)>>,
    /// The path and bytes buffers every disk read reuses.
    read_buffers: Mutex<ReadBuffers>,
    hits_memory: AtomicU64,
    hits_disk: AtomicU64,
    misses: AtomicU64,
    read_errors: AtomicU64,
    write_errors: AtomicU64,
    verify_errors: AtomicU64,
}

/// The buffers of a disk read, kept across lookups so that a disk hit
/// allocates nothing for the entry's path or its bytes.
#[derive(Debug, Default)]
struct ReadBuffers {
    path: PathBuf,
    /// Holds the last entry read in its first bytes; sized by the largest
    /// entry read so far.
    bytes: Vec<u8>,
}

/// Sets `path` to the file of `key` under `dir`, in `path`'s allocation.
fn entry_path(path: &mut PathBuf, dir: &Path, key: &str) {
    let text = path.as_mut_os_string();
    text.clear();
    text.push(dir);
    path.push(key);
    path.as_mut_os_string().push(".sdacache");
}

/// Reads the file at `path` into the front of `bytes` and returns its
/// length: one open, reads until end of file, one close. Unlike
/// `fs::read`, it asks for no metadata, and it grows `bytes` a page at a
/// time only when a file fills it.
fn read_entry(path: &Path, bytes: &mut Vec<u8>) -> io::Result<usize> {
    const PAGE: usize = 4096;
    let mut file = File::open(path)?;
    let mut len = 0;
    loop {
        if len == bytes.len() {
            bytes.resize(len + PAGE, 0);
        }
        match file.read(&mut bytes[len..]) {
            Ok(0) => return Ok(len),
            Ok(n) => len += n,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
}

/// Counts one degraded cache operation, warning on stderr the first time
/// each category fires (per cache handle) so a sick cache directory is
/// visible without flooding the log once per point.
fn count_error(counter: &AtomicU64, what: &str, detail: &dyn std::fmt::Display) {
    if counter.fetch_add(1, Ordering::Relaxed) == 0 {
        eprintln!("warning: cache {what} ({detail}); recomputing affected points");
    }
}

impl PointCache {
    /// An in-memory cache: deduplicates within the process, persists
    /// nothing.
    pub fn in_memory() -> PointCache {
        PointCache {
            dir: None,
            memory: Mutex::new(HashMap::new()),
            read_buffers: Mutex::default(),
            hits_memory: AtomicU64::new(0),
            hits_disk: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            verify_errors: AtomicU64::new(0),
        }
    }

    /// A cache persisted under `dir` (created, with its parents, if
    /// absent), with the same in-memory layer in front. An existing
    /// directory costs one `stat`.
    ///
    /// # Errors
    ///
    /// Returns the error from creating the directory, which is also what
    /// a `dir` naming a file gets.
    pub fn with_dir(dir: impl Into<PathBuf>) -> io::Result<PointCache> {
        let dir = dir.into();
        if !dir.is_dir() {
            std::fs::create_dir_all(&dir)?;
        }
        Ok(PointCache {
            dir: Some(dir),
            ..PointCache::in_memory()
        })
    }

    fn file_of(&self, key: &str) -> Option<PathBuf> {
        self.dir.as_ref().map(|dir| {
            let mut path = PathBuf::new();
            entry_path(&mut path, dir, key);
            path
        })
    }

    /// Looks up a point, counting a memory hit, a disk hit, or a miss.
    /// A disk hit is promoted into the memory layer, which keeps `key`
    /// and `preimage` as they are handed in; a miss hands them back.
    ///
    /// A disk read goes into buffers the cache reuses, and the bytes are
    /// decoded where they lie: a file that is not valid UTF-8 is corrupt,
    /// a verify error, like any other byte outside the encoding.
    ///
    /// # Errors
    ///
    /// A miss returns `(key, preimage)`, so the caller can file the
    /// point's result under them.
    pub fn lookup(&self, key: String, preimage: String) -> Result<Arc<MultiRun>, (String, String)> {
        if let Some((stored, found)) = self.memory.lock().expect("cache map").get(&key) {
            if *stored == preimage {
                self.hits_memory.fetch_add(1, Ordering::Relaxed);
                return Ok(Arc::clone(found));
            }
        }
        if let Some(dir) = &self.dir {
            let mut buffers = self.read_buffers.lock().expect("read buffers");
            let ReadBuffers { path, bytes } = &mut *buffers;
            entry_path(path, dir, &key);
            match read_entry(path, bytes) {
                Ok(len) => {
                    if let Some(multi) = decode(&bytes[..len], &preimage) {
                        self.hits_disk.fetch_add(1, Ordering::Relaxed);
                        let multi = Arc::new(multi);
                        self.memory
                            .lock()
                            .expect("cache map")
                            .insert(key, (preimage, Arc::clone(&multi)));
                        return Ok(multi);
                    }
                    // The file exists but is not a valid entry for this
                    // point: corruption, truncation, schema skew, or a
                    // hash collision. All degrade to a recomputation.
                    count_error(
                        &self.verify_errors,
                        "entry failed verification",
                        &path.display(),
                    );
                }
                Err(err) if err.kind() == io::ErrorKind::NotFound => {}
                Err(err) => {
                    count_error(
                        &self.read_errors,
                        "read failed",
                        &format_args!("{}: {err}", path.display()),
                    );
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        Err((key, preimage))
    }

    /// Counts a point resolved by sharing another identical point's
    /// result within one sweep (a memory-level hit that never reached
    /// [`PointCache::lookup`]).
    pub(crate) fn record_shared_hit(&self) {
        self.hits_memory.fetch_add(1, Ordering::Relaxed);
    }

    /// Stores a computed result under `key`, in memory and (when
    /// persistent) on disk via an atomic write-then-rename. A disk error
    /// never fails the caller — a cache that cannot write degrades to
    /// recomputing — but it is counted in [`PointCache::report`] and
    /// warned about once.
    pub fn store(&self, key: &str, preimage: &str, multi: &Arc<MultiRun>) {
        self.memory
            .lock()
            .expect("cache map")
            .insert(key.to_string(), (preimage.to_string(), Arc::clone(multi)));
        if let Some(path) = self.file_of(key) {
            let text = serialize_multi_run(preimage, multi);
            let tmp = path.with_extension(format!("tmp{}", std::process::id()));
            let written = std::fs::File::create(&tmp)
                .and_then(|mut file| file.write_all(text.as_bytes()))
                .and_then(|()| std::fs::rename(&tmp, &path));
            if let Err(err) = written {
                let _ = std::fs::remove_file(&tmp);
                count_error(
                    &self.write_errors,
                    "write failed",
                    &format_args!("{}: {err}", path.display()),
                );
            }
        }
    }

    /// The hit/miss accounting so far.
    pub fn report(&self) -> CacheReport {
        CacheReport {
            hits_memory: self.hits_memory.load(Ordering::Relaxed),
            hits_disk: self.hits_disk.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
            verify_errors: self.verify_errors.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 2_000.0,
            warmup: 100.0,
            ..SimConfig::baseline()
        }
    }

    /// The value of `digits` as lowercase hex, decoded one byte at a time.
    fn hex_reference(digits: &[u8]) -> Option<u32> {
        digits.iter().try_fold(0, |acc, &d| {
            let nibble = match d {
                b'0'..=b'9' => d - b'0',
                b'a'..=b'f' => d - b'a' + 10,
                _ => return None,
            };
            Some((acc << 4) | u32::from(nibble))
        })
    }

    #[test]
    fn word_helpers_match_a_byte_at_a_time_reference() {
        // Every byte value in every position of each helper's input.
        for at in 0..8 {
            for byte in 0..=u8::MAX {
                let mut hex = *b"09afe5c3";
                hex[at] = byte;
                assert_eq!(hex8(hex), hex_reference(&hex), "{hex:?}");

                let mut group = *b" 7 0 9 1";
                group[at] = byte;
                let fields = [1, 3, 5, 7].map(|i| (group[i - 1], group[i]));
                let expected = fields
                    .iter()
                    .all(|&(space, d)| space == b' ' && d.is_ascii_digit())
                    .then(|| fields.map(|(_, d)| u64::from(d - b'0')));
                assert_eq!(single_digits(group), expected, "{group:?}");
            }
        }
        for len in 0..40 {
            for at in 0..=len {
                let mut text = vec![b'x'; len];
                if at < len {
                    text[at] = b'\n';
                }
                assert_eq!(line_len(&text), at);
            }
        }
    }

    #[test]
    fn canonical_text_is_stable_and_injective() {
        let a = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2));
        let b = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2));
        assert_eq!(a, b);
        let other = canonical_point(&quick_cfg().with_load(0.6), 7, &StopRule::FixedReps(2));
        assert_ne!(a, other);
        let other_seed = canonical_point(&quick_cfg(), 8, &StopRule::FixedReps(2));
        assert_ne!(a, other_seed);
    }

    #[test]
    fn fixed_reps_key_ignores_adaptive_bounds() {
        // A fixed-count rule carries no bounds to write; an adaptive
        // rule's bounds are part of its key.
        let ci = |max_reps| StopRule::CiWidth {
            target: 0.1,
            min_reps: 2,
            max_reps,
        };
        let ca = canonical_point(&quick_cfg(), 7, &ci(64));
        let cb = canonical_point(&quick_cfg(), 7, &ci(8));
        assert_ne!(ca, cb, "adaptive bounds do shape a CI-width point");
    }

    #[test]
    fn known_key_pins_cross_process_stability() {
        // The exact key of the quick baseline point. If this assertion
        // ever fails, the canonical format changed — bump
        // CACHE_SCHEMA_VERSION so old caches are invalidated rather than
        // silently missed or (worse) wrongly hit.
        let key = point_key_of(&canonical_point(&quick_cfg(), 42, &StopRule::FixedReps(2)));
        assert_eq!(key, "4c36f800781c38b19857946e6f5a2b90");
    }

    #[test]
    fn multi_run_round_trips_bit_identically() {
        let multi = crate::Runner::new(quick_cfg())
            .seed(11)
            .jobs(1)
            .stop(StopRule::FixedReps(2))
            .execute()
            .unwrap();
        let preimage = canonical_point(&quick_cfg(), 11, &StopRule::FixedReps(2));
        let text = serialize_multi_run(&preimage, &multi);
        let back = parse_multi_run(&text, &preimage).expect("round-trip parses");
        assert_eq!(back.stats().to_json(), multi.stats().to_json());
        for (a, b) in multi.runs().iter().zip(back.runs()) {
            assert_eq!(a.seed, b.seed);
            assert_eq!(a.events, b.events);
            assert_eq!(a.wall_secs.to_bits(), b.wall_secs.to_bits());
            assert_eq!(
                a.metrics.md_global().to_bits(),
                b.metrics.md_global().to_bits()
            );
            assert_eq!(
                a.metrics.local_response_quantile(0.99).to_bits(),
                b.metrics.local_response_quantile(0.99).to_bits()
            );
            let span = SimTime::from(a.duration);
            for (x, y) in a.node_stats.iter().zip(&b.node_stats) {
                assert_eq!(
                    x.mean_queue_len(span).to_bits(),
                    y.mean_queue_len(span).to_bits()
                );
            }
        }
        assert!(
            parse_multi_run(&text, "tampered").is_none(),
            "preimage mismatch must read as a miss"
        );
    }

    #[test]
    fn disk_cache_round_trips_and_counts() {
        let dir = std::env::temp_dir().join(format!("sda-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = quick_cfg();
        let preimage = canonical_point(&cfg, 5, &StopRule::FixedReps(2));
        let key = point_key_of(&preimage);
        {
            let cache = PointCache::with_dir(&dir).unwrap();
            assert!(cache.lookup(key.clone(), preimage.clone()).is_err());
            let multi = Arc::new(
                crate::Runner::new(cfg.clone())
                    .seed(5)
                    .stop(StopRule::FixedReps(2))
                    .execute()
                    .unwrap(),
            );
            cache.store(&key, &preimage, &multi);
            assert!(
                cache.lookup(key.clone(), preimage.clone()).is_ok(),
                "memory hit"
            );
            assert_eq!(
                cache.report(),
                CacheReport {
                    hits_memory: 1,
                    hits_disk: 0,
                    misses: 1,
                    ..CacheReport::default()
                }
            );
        }
        // A fresh handle over the same directory: a disk hit.
        let cache = PointCache::with_dir(&dir).unwrap();
        let found = cache
            .lookup(key.clone(), preimage.clone())
            .expect("disk hit");
        assert_eq!(found.runs().len(), 2);
        assert_eq!(cache.report().hits_disk, 1);
        // A different preimage under the same key must miss, and the
        // disagreement is surfaced as a verification error.
        assert!(cache.lookup(key.clone(), "other-point".into()).is_err());
        assert_eq!(cache.report().verify_errors, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Runs the quick baseline point once, for seeding error-path tests.
    fn quick_multi(seed: u64) -> MultiRun {
        crate::Runner::new(quick_cfg())
            .seed(seed)
            .stop(StopRule::FixedReps(2))
            .execute()
            .unwrap()
    }

    #[test]
    fn unwritable_dir_counts_write_error_and_still_serves_memory() {
        let dir = std::env::temp_dir().join(format!("sda-cache-wtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::with_dir(&dir).unwrap();
        let preimage = canonical_point(&quick_cfg(), 5, &StopRule::FixedReps(2));
        let key = point_key_of(&preimage);
        let multi = Arc::new(quick_multi(5));
        // Yank the directory out from under the cache: the tmp-file
        // creation inside store() now fails.
        std::fs::remove_dir_all(&dir).unwrap();
        cache.store(&key, &preimage, &multi);
        assert_eq!(cache.report().write_errors, 1, "store failure is counted");
        // The in-memory layer still holds the result.
        assert!(
            cache.lookup(key.clone(), preimage.clone()).is_ok(),
            "memory unaffected"
        );
        assert_eq!(cache.report().hits_memory, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_and_unreadable_entries_count_errors_and_miss() {
        let dir = std::env::temp_dir().join(format!("sda-cache-rtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::with_dir(&dir).unwrap();
        let preimage = canonical_point(&quick_cfg(), 6, &StopRule::FixedReps(2));
        let key = point_key_of(&preimage);
        let path = cache.file_of(&key).unwrap();
        // A corrupted payload parses to a miss and counts a verify error.
        std::fs::write(&path, "sda-point-cache garbage\n").unwrap();
        assert!(cache.lookup(key.clone(), preimage.clone()).is_err());
        let report = cache.report();
        assert_eq!((report.verify_errors, report.misses), (1, 1));
        // An entry that cannot be read at all (here: the path is a
        // directory) counts a read error and still degrades to a miss.
        std::fs::remove_file(&path).unwrap();
        std::fs::create_dir(&path).unwrap();
        assert!(cache.lookup(key.clone(), preimage.clone()).is_err());
        let report = cache.report();
        assert_eq!((report.read_errors, report.misses), (1, 2));
        assert_eq!(report.errors(), 2);
        assert!(
            format!("{report}").contains("2 cache errors (read 1, write 0, verify 1)"),
            "errors appear in the display line: {report}"
        );
        // An absent file is an ordinary miss, not an error.
        std::fs::remove_dir(&path).unwrap();
        assert!(cache.lookup(key.clone(), preimage.clone()).is_err());
        assert_eq!(cache.report().errors(), 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_non_utf8_byte_is_a_verify_error_not_a_read_error() {
        let dir = std::env::temp_dir().join(format!("sda-cache-utest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = PointCache::with_dir(&dir).unwrap();
        let preimage = canonical_point(&quick_cfg(), 7, &StopRule::FixedReps(2));
        let key = point_key_of(&preimage);
        let mut bytes = serialize_multi_run(&preimage, &quick_multi(7)).into_bytes();
        let path = cache.file_of(&key).unwrap();
        std::fs::write(&path, &bytes).unwrap();
        assert!(
            cache.lookup(key.clone(), preimage.clone()).is_ok(),
            "the intact entry hits"
        );
        // A fresh handle, so the lookup reaches the disk again.
        let cache = PointCache::with_dir(&dir).unwrap();
        let at = bytes.len() / 2;
        bytes[at] = 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        assert!(cache.lookup(key.clone(), preimage.clone()).is_err());
        let report = cache.report();
        assert_eq!(
            (report.verify_errors, report.read_errors, report.misses),
            (1, 0, 1)
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn with_dir_creates_missing_parents_and_rejects_a_file() {
        let root = std::env::temp_dir().join(format!("sda-cache-dtest-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let nested = root.join("a").join("b");
        PointCache::with_dir(&nested).unwrap();
        assert!(nested.is_dir(), "a missing nested directory is created");
        // An existing directory opens as it is.
        PointCache::with_dir(&nested).unwrap();
        let file = root.join("file");
        std::fs::write(&file, "not a directory").unwrap();
        assert!(PointCache::with_dir(&file).is_err());
        assert!(PointCache::with_dir(file.join("below")).is_err());
        let _ = std::fs::remove_dir_all(&root);
    }
}
