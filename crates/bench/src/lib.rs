//! # sda-bench — criterion benchmarks
//!
//! Micro-benches (`engine`, `scheduler`, `strategies`) time the hot paths
//! of the simulation substrate — event calendar churn, EDF queue
//! operations, deadline-assignment arithmetic, SDA decomposition walks.
//! The end-to-end benchmark is the separate `perfbench` package.
//!
//! The `steady_state_alloc` test installs a counting global allocator
//! and asserts that the warmed-up event loop performs no heap
//! allocation.
