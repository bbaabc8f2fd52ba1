//! Pins the allocations of two hot paths: after warmup, the
//! arrival→dispatch→completion loop performs **zero** heap allocations
//! (tracing off), and a point-cache disk hit allocates only the decoded
//! result.
//!
//! This test binary installs a counting global allocator; it is the only
//! target that does, so every other build keeps the plain system
//! allocator. It counts only the allocations of the thread inside
//! [`counted`], so tests running beside each other, and the test
//! harness, do not disturb each other's counts. Both paths are
//! single-threaded and deterministic, so each count is deterministic
//! too: a test either always passes or always fails for a given build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::Path;

use sda_sim::cache::{canonical_point, point_key_of};
use sda_sim::runner::StopRule;
use sda_sim::{PointCache, SimConfig, Simulation};
use sda_simcore::{Engine, SimTime};

thread_local! {
    /// This thread's `[allocations, deallocations, bytes]` while it runs
    /// inside [`counted`], `None` otherwise. A const-initialized `Cell`
    /// of plain values needs no allocation and no destructor, so the
    /// allocator can read it at any time.
    static COUNTS: Cell<Option<[u64; 3]>> = const { Cell::new(None) };
}

/// Adds to this thread's counters, if it is counting.
fn count(allocations: u64, deallocations: u64, bytes: u64) {
    COUNTS.with(|counts| {
        if let Some([a, d, b]) = counts.get() {
            counts.set(Some([a + allocations, d + deallocations, b + bytes]));
        }
    });
}

/// A [`GlobalAlloc`] that forwards to [`System`] while counting
/// allocations (reallocations included), deallocations and requested
/// bytes.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counters are
// thread-local cells that never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(1, 0, layout.size() as u64);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(0, 1, 0);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(1, 0, new_size as u64);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f`, returning its value and the `[allocations, deallocations,
/// bytes]` this thread made inside it.
fn counted<T>(f: impl FnOnce() -> T) -> (T, [u64; 3]) {
    COUNTS.with(|counts| counts.set(Some([0; 3])));
    let value = f();
    let counts = COUNTS.with(|counts| counts.take()).expect("counting");
    (value, counts)
}

#[test]
fn arrival_cycle_is_allocation_free_after_warmup() {
    // The default Figure-5 workload: 6 nodes, parallel-4 globals,
    // exponential service, EDF. Long enough warmup that every pool,
    // queue, calendar, and hash table has reached its steady-state
    // capacity before the measured window opens.
    let cfg = SimConfig {
        duration: 50_000.0,
        ..SimConfig::baseline()
    };
    let mut sim = Simulation::new(cfg, 1).expect("baseline config is valid");
    let mut engine = Engine::new();
    sim.prime(&mut engine);
    engine.run_until(&mut sim, SimTime::from(40_000.0));
    let warm_events = engine.events_processed();

    let (_, [allocations, deallocations, bytes]) =
        counted(|| engine.run_until(&mut sim, SimTime::from(50_000.0)));

    let events = engine.events_processed() - warm_events;
    assert!(
        events > 10_000,
        "the window must actually exercise the loop"
    );
    assert_eq!(
        allocations, 0,
        "steady-state event loop must not allocate (processed {events} events, \
         allocated {allocations} times / {bytes} bytes)"
    );
    assert_eq!(deallocations, 0, "nor free");
}

#[test]
fn a_disk_hit_allocates_only_the_decoded_result() {
    // The committed schema-5 entries of the quick baseline point.
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/cache-v5");
    let cfg = SimConfig {
        duration: 2_000.0,
        warmup: 100.0,
        ..SimConfig::baseline()
    };
    let point = |seed, stop| {
        let preimage = canonical_point(&cfg, seed, &stop);
        (point_key_of(&preimage), preimage)
    };
    let cache = PointCache::with_dir(&dir).expect("fixture dir opens");
    // The larger entry first: it sizes the read buffer, and its memory
    // entry gives the map room for the next.
    let (key, preimage) = point(
        3,
        StopRule::CiWidth {
            target: 0.5,
            min_reps: 2,
            max_reps: 64,
        },
    );
    assert!(
        cache.lookup(key, preimage).is_ok(),
        "the first entry misses"
    );
    let (key, preimage) = point(42, StopRule::FixedReps(2));
    let (found, [allocations, deallocations, bytes]) = counted(|| cache.lookup(key, preimage));
    let runs = found.expect("a disk hit").runs().len();
    assert_eq!((runs, cache.report().hits_disk), (2, 2));
    // The decoded result: its runs vector and, per run, the class map
    // and the node vector, and the two histograms' bins. Then its `Arc`.
    // The memory layer files it under the key and preimage it was
    // handed, and the path and the file bytes reuse the cache's read
    // buffers.
    let expected = 1 + 4 * runs as u64 + 1;
    assert_eq!(
        (allocations, deallocations),
        (expected, 0),
        "a disk hit allocated {allocations} times / {deallocations} frees / {bytes} bytes"
    );
}
