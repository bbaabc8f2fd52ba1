//! The trace-determinism contract, end to end: a [`sda::Runner`] with a
//! JSONL sink attached produces **byte-identical** trace output for a
//! fixed seed at any `jobs` level, because the sink observes replication
//! 0 only and replication seeds are derived, not scheduled.

use std::io::Write;
use std::sync::{Arc, Mutex};

use sda::prelude::*;
use sda::sim::parse_jsonl;
use sda::sim::trace::{JsonlSink, SharedSink};

/// A writer handing every byte to a shared buffer, so the test can read
/// what the sink wrote after the runner consumed it.
#[derive(Clone, Default)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_jsonl(jobs: usize) -> String {
    let cfg = SimConfig {
        duration: 1_000.0,
        warmup: 50.0,
        ..SimConfig::baseline()
    };
    let buf = SharedBuf::default();
    let sink = SharedSink::new(Box::new(JsonlSink::new(buf.clone())));
    Runner::new(cfg)
        .seed(77)
        .jobs(jobs)
        .stop(StopRule::FixedReps(4))
        .trace(sink)
        .execute()
        .expect("baseline validates");
    let bytes = buf.0.lock().unwrap().clone();
    String::from_utf8(bytes).expect("utf-8 jsonl")
}

#[test]
fn jsonl_trace_is_byte_identical_across_jobs() {
    let seq = traced_jsonl(1);
    let par = traced_jsonl(4);
    assert!(!seq.is_empty(), "a 1000-time-unit run traces events");
    assert_eq!(seq, par, "trace bytes must not depend on the jobs level");

    // And the bytes are a well-formed structured trace: every line
    // round-trips through the parser.
    let records = parse_jsonl(&seq).unwrap_or_else(|err| panic!("{err}"));
    assert!(records.windows(2).all(|w| w[0].time <= w[1].time));
}
