//! Pins the tentpole claim of the hot-path work: after warmup, the
//! arrival→dispatch→completion loop performs **zero** heap allocations
//! (tracing off).
//!
//! This test binary installs a counting global allocator; it is the only
//! target that does, so every other build keeps the plain system
//! allocator. The simulation is single-threaded and deterministic, so
//! the allocation count over a fixed seed and horizon is deterministic
//! too: this test either always passes or always fails for a given
//! build.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use sda_sim::{SimConfig, Simulation};
use sda_simcore::{Engine, SimTime};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] that forwards to [`System`] while counting
/// allocations (reallocations included), deallocations and requested
/// bytes.
struct CountingAlloc;

// SAFETY: defers entirely to the system allocator; the counters are
// plain relaxed atomics and never allocate.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(layout.size() as u64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        BYTES.fetch_add(new_size as u64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// The counters `(allocations, deallocations, bytes)` since process start.
fn snapshot() -> [u64; 3] {
    [&ALLOCATIONS, &DEALLOCATIONS, &BYTES].map(|c| c.load(Ordering::Relaxed))
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

    let before = snapshot();
    engine.run_until(&mut sim, SimTime::from(50_000.0));
    let after = snapshot();
    let [allocations, deallocations, bytes] = [0, 1, 2].map(|i| after[i] - before[i]);

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
