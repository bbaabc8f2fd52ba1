//! Untraced benchmark runs (`--trace 0`): the end-to-end metrics.

fn main() {
    std::process::exit(perfbench::main_entry(None));
}
