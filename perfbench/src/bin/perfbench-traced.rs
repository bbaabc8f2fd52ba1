//! Traced benchmark runs (`--trace 1`): the per-layer metrics. The
//! counting allocator lives only in this binary, so untraced runs pay
//! nothing for it.

#[global_allocator]
static ALLOC: perfbench::alloc::CountingAlloc = perfbench::alloc::CountingAlloc;

fn main() {
    std::process::exit(perfbench::main_entry(Some(perfbench::alloc::allocations)));
}
