//! # sda-bench — criterion benchmarks
//!
//! Micro-benches (`engine`, `scheduler`, `strategies`) time the hot paths
//! of the simulation substrate — event calendar churn, EDF queue
//! operations, deadline-assignment arithmetic, SDA decomposition walks —
//! and `runner` times a fixed replication budget at several `jobs`
//! levels. The campaign benchmark is the `quick_campaign` workload of
//! the separate `perfbench` package.
//!
//! Shared helpers live here.

use sda_sim::{RunResult, Runner, SimConfig, StopRule};

#[cfg(feature = "alloc-count")]
pub mod alloc_count {
    //! Heap-allocation counting for the throughput harness.
    //!
    //! A thin wrapper around the system allocator that tallies every
    //! allocation, deallocation, and allocated byte. Install it with
    //! `#[global_allocator]` in a binary or test built with the
    //! `alloc-count` feature, then diff [`snapshot`]s around the region
    //! of interest. This is how the "allocation-free steady state" claim
    //! is asserted rather than eyeballed: the simulation is
    //! single-threaded and deterministic, so the allocation count over a
    //! fixed seed and horizon is itself deterministic.

    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static DEALLOCATIONS: AtomicU64 = AtomicU64::new(0);
    static BYTES: AtomicU64 = AtomicU64::new(0);

    /// A [`GlobalAlloc`] that forwards to [`System`] while counting.
    #[derive(Debug, Default)]
    pub struct CountingAlloc;

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

    /// A point-in-time reading of the allocation counters.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct AllocSnapshot {
        /// Allocations (including reallocations) since process start.
        pub allocations: u64,
        /// Deallocations since process start.
        pub deallocations: u64,
        /// Bytes requested since process start.
        pub bytes: u64,
    }

    impl AllocSnapshot {
        /// The counter deltas between `earlier` and `self`.
        pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
            AllocSnapshot {
                allocations: self.allocations - earlier.allocations,
                deallocations: self.deallocations - earlier.deallocations,
                bytes: self.bytes - earlier.bytes,
            }
        }
    }

    /// Reads the counters (totals since process start).
    pub fn snapshot() -> AllocSnapshot {
        AllocSnapshot {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            deallocations: DEALLOCATIONS.load(Ordering::Relaxed),
            bytes: BYTES.load(Ordering::Relaxed),
        }
    }
}

/// A single-point simulation run sized for benchmarking (one seed,
/// 10,000 time units), used by the per-figure point benches.
///
/// # Panics
///
/// Panics if the configuration is invalid.
pub fn bench_run(cfg: &SimConfig) -> RunResult {
    let cfg = SimConfig {
        duration: 10_000.0,
        warmup: 100.0,
        ..cfg.clone()
    };
    Runner::new(cfg)
        .with_seeds(vec![1])
        .jobs(1)
        .stop(StopRule::FixedReps(1))
        .execute()
        .expect("bench config must be valid")
        .runs()[0]
        .clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_run_is_sized_down() {
        let r = bench_run(&SimConfig::baseline());
        assert!(r.events > 10_000);
        assert_eq!(r.duration, 10_000.0);
    }
}
