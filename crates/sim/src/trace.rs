//! Structured observability: trace events, the [`TraceSink`] trait, the
//! stock sinks (bounded ring buffer, JSONL writer, counting, shared), and
//! [`Replay`], which folds a run's records back into node and task state
//! and rejects the first record the model cannot produce.
//!
//! The simulator emits a [`TraceEvent`] at every observable lifecycle
//! step. A sink decides what to do with it — collect it, count it, write
//! it out — without the model knowing or caring. Tracing never perturbs
//! a run: the same seed produces the same event sequence with any sink
//! attached, including none.
//!
//! ```
//! use sda_sim::{RingBufferSink, Simulation, SimConfig};
//! use sda_simcore::{Engine, SimTime};
//! let (sink, handle) = RingBufferSink::with_handle(10_000);
//! let mut sim = Simulation::new(SimConfig::baseline(), 1).unwrap();
//! sim.set_sink(Box::new(sink));
//! let mut engine = Engine::new();
//! sim.prime(&mut engine);
//! engine.run_until(&mut sim, SimTime::from(50.0));
//! assert!(!handle.records().is_empty());
//! ```

use std::collections::VecDeque;
use std::io::Write;
use std::sync::{Arc, Mutex};

use sda_simcore::SimTime;

mod replay;

pub use replay::{Job, NodeState, Owner, Replay, SlotState, Violation};

/// A trace record emitted by the simulator when tracing is enabled
/// ([`crate::Simulation::set_sink`]): the observable lifecycle of tasks
/// and servers, for debugging and visualization.
///
/// Slot numbers identify global tasks *while they are alive*; slots are
/// recycled after completion/abortion.
///
/// Job ids are handed out in announcement order, from 0: a
/// `LocalArrived` record carries its id, and each `SubtaskSubmitted` (a
/// first submission or a resubmission after a local-scheduler abort)
/// takes the next one. So a reader that counts announcements from the
/// start of a run knows which job every `ServiceStarted` names, as
/// [`Replay`] does. `SubtaskSubmitted` has no `job` field for that
/// reason: the benchmark package (`perfbench/src/shadow.rs`) destructures
/// the variant without `..`, and a new field would stop it compiling.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A local task arrived at a node.
    LocalArrived {
        /// Destination node.
        node: usize,
        /// Job id.
        job: u64,
        /// Its (real) deadline.
        deadline: SimTime,
    },
    /// A global task arrived and was decomposed.
    GlobalArrived {
        /// Slot in the active-global table.
        slot: usize,
        /// Number of simple subtasks.
        leaves: usize,
        /// End-to-end deadline.
        deadline: SimTime,
    },
    /// A subtask became executable and was submitted to its node.
    SubtaskSubmitted {
        /// Owning global slot.
        slot: usize,
        /// Leaf index (depth-first order).
        leaf: usize,
        /// Execution node.
        node: usize,
        /// The virtual deadline it was submitted with.
        virtual_deadline: SimTime,
    },
    /// A node started serving a job.
    ServiceStarted {
        /// The node.
        node: usize,
        /// Job id.
        job: u64,
    },
    /// A node finished serving a job.
    ServiceCompleted {
        /// The node.
        node: usize,
        /// Job id.
        job: u64,
    },
    /// The job in service was preempted (preemptive-EDF extension).
    Preempted {
        /// The node.
        node: usize,
        /// Job id.
        job: u64,
    },
    /// A local task finished or was aborted.
    LocalFinished {
        /// Job id.
        job: u64,
        /// Whether it missed its deadline (aborted counts as missed).
        missed: bool,
    },
    /// A global task finished or was aborted.
    GlobalFinished {
        /// Its slot (now recycled).
        slot: usize,
        /// Whether it missed its deadline (aborted counts as missed).
        missed: bool,
    },
    /// Fault injection: a node crashed.
    NodeCrashed {
        /// The crashed node.
        node: usize,
    },
    /// Fault injection: a crashed node came back up.
    NodeRecovered {
        /// The recovered node.
        node: usize,
    },
}

impl TraceEvent {
    /// The snake_case name of this event kind, as used in the JSONL
    /// encoding's `"event"` field.
    pub fn kind(&self) -> &'static str {
        Self::KINDS[self.kind_index()]
    }

    /// All event-kind names, in declaration order (the [`CountingSink`]
    /// report order).
    pub const KINDS: [&'static str; 10] = [
        "local_arrived",
        "global_arrived",
        "subtask_submitted",
        "service_started",
        "service_completed",
        "preempted",
        "local_finished",
        "global_finished",
        "node_crashed",
        "node_recovered",
    ];

    fn kind_index(&self) -> usize {
        match self {
            TraceEvent::LocalArrived { .. } => 0,
            TraceEvent::GlobalArrived { .. } => 1,
            TraceEvent::SubtaskSubmitted { .. } => 2,
            TraceEvent::ServiceStarted { .. } => 3,
            TraceEvent::ServiceCompleted { .. } => 4,
            TraceEvent::Preempted { .. } => 5,
            TraceEvent::LocalFinished { .. } => 6,
            TraceEvent::GlobalFinished { .. } => 7,
            TraceEvent::NodeCrashed { .. } => 8,
            TraceEvent::NodeRecovered { .. } => 9,
        }
    }
}

/// One timestamped trace event — what a sink receives and what the JSONL
/// encoding round-trips.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceRecord {
    /// When the event happened.
    pub time: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl TraceRecord {
    /// Creates a record.
    pub fn new(time: SimTime, event: TraceEvent) -> TraceRecord {
        TraceRecord { time, event }
    }

    /// Encodes the record as one JSONL line (no trailing newline).
    ///
    /// Numbers use Rust's shortest round-trip `f64` formatting, so the
    /// encoding is deterministic and [`TraceRecord::from_json`] inverts
    /// it exactly.
    pub fn to_json(&self) -> String {
        let t = self.time.value();
        let kind = self.event.kind();
        match self.event {
            TraceEvent::LocalArrived {
                node,
                job,
                deadline,
            } => format!(
                "{{\"t\":{t},\"event\":\"{kind}\",\"node\":{node},\"job\":{job},\"deadline\":{}}}",
                deadline.value()
            ),
            TraceEvent::GlobalArrived {
                slot,
                leaves,
                deadline,
            } => format!(
                "{{\"t\":{t},\"event\":\"{kind}\",\"slot\":{slot},\"leaves\":{leaves},\"deadline\":{}}}",
                deadline.value()
            ),
            TraceEvent::SubtaskSubmitted {
                slot,
                leaf,
                node,
                virtual_deadline,
            } => format!(
                "{{\"t\":{t},\"event\":\"{kind}\",\"slot\":{slot},\"leaf\":{leaf},\"node\":{node},\"virtual_deadline\":{}}}",
                virtual_deadline.value()
            ),
            TraceEvent::ServiceStarted { node, job }
            | TraceEvent::ServiceCompleted { node, job }
            | TraceEvent::Preempted { node, job } => {
                format!("{{\"t\":{t},\"event\":\"{kind}\",\"node\":{node},\"job\":{job}}}")
            }
            TraceEvent::LocalFinished { job, missed } => {
                format!("{{\"t\":{t},\"event\":\"{kind}\",\"job\":{job},\"missed\":{missed}}}")
            }
            TraceEvent::GlobalFinished { slot, missed } => {
                format!("{{\"t\":{t},\"event\":\"{kind}\",\"slot\":{slot},\"missed\":{missed}}}")
            }
            TraceEvent::NodeCrashed { node } | TraceEvent::NodeRecovered { node } => {
                format!("{{\"t\":{t},\"event\":\"{kind}\",\"node\":{node}}}")
            }
        }
    }

    /// Decodes one JSONL line produced by [`TraceRecord::to_json`].
    ///
    /// Strict: accepts a line only if the decoded record re-encodes to
    /// exactly that line, so anything [`TraceRecord::to_json`] cannot
    /// have written (missing braces, a duplicated key, trailing text, a
    /// number such as `1e0` or `NaN`) returns `None`, as do unknown
    /// event kinds.
    pub fn from_json(line: &str) -> Option<TraceRecord> {
        let time = SimTime::from(json_f64(line, "t")?);
        let kind = json_str(line, "event")?;
        let event = match kind {
            "local_arrived" => TraceEvent::LocalArrived {
                node: json_u64(line, "node")? as usize,
                job: json_u64(line, "job")?,
                deadline: SimTime::from(json_f64(line, "deadline")?),
            },
            "global_arrived" => TraceEvent::GlobalArrived {
                slot: json_u64(line, "slot")? as usize,
                leaves: json_u64(line, "leaves")? as usize,
                deadline: SimTime::from(json_f64(line, "deadline")?),
            },
            "subtask_submitted" => TraceEvent::SubtaskSubmitted {
                slot: json_u64(line, "slot")? as usize,
                leaf: json_u64(line, "leaf")? as usize,
                node: json_u64(line, "node")? as usize,
                virtual_deadline: SimTime::from(json_f64(line, "virtual_deadline")?),
            },
            "service_started" => TraceEvent::ServiceStarted {
                node: json_u64(line, "node")? as usize,
                job: json_u64(line, "job")?,
            },
            "service_completed" => TraceEvent::ServiceCompleted {
                node: json_u64(line, "node")? as usize,
                job: json_u64(line, "job")?,
            },
            "preempted" => TraceEvent::Preempted {
                node: json_u64(line, "node")? as usize,
                job: json_u64(line, "job")?,
            },
            "local_finished" => TraceEvent::LocalFinished {
                job: json_u64(line, "job")?,
                missed: json_bool(line, "missed")?,
            },
            "global_finished" => TraceEvent::GlobalFinished {
                slot: json_u64(line, "slot")? as usize,
                missed: json_bool(line, "missed")?,
            },
            "node_crashed" => TraceEvent::NodeCrashed {
                node: json_u64(line, "node")? as usize,
            },
            "node_recovered" => TraceEvent::NodeRecovered {
                node: json_u64(line, "node")? as usize,
            },
            _ => return None,
        };
        let record = TraceRecord { time, event };
        (record.to_json() == line).then_some(record)
    }
}

/// Parses a whole JSONL document (one record per line, blank lines
/// skipped) back into records.
///
/// # Errors
///
/// Names the first line [`TraceRecord::from_json`] cannot decode, by its
/// 1-based number and its text.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceRecord>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            TraceRecord::from_json(line)
                .ok_or_else(|| format!("line {}: not a trace record: {line:?}", i + 1))
        })
        .collect()
}

/// The raw text of field `key` in a flat JSON object: everything between
/// the colon and the next comma/closing brace (or closing quote for
/// strings).
fn json_raw<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let start = line.find(&needle)? + needle.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        let end = stripped.find('"')?;
        Some(&stripped[..end])
    } else {
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Some(rest[..end].trim())
    }
}

/// A number field. `NaN` is rejected here: [`SimTime`] panics on it, and
/// [`TraceRecord::to_json`] never writes it.
fn json_f64(line: &str, key: &str) -> Option<f64> {
    json_raw(line, key)?
        .parse()
        .ok()
        .filter(|value: &f64| !value.is_nan())
}

fn json_u64(line: &str, key: &str) -> Option<u64> {
    json_raw(line, key)?.parse().ok()
}

fn json_str<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    json_raw(line, key)
}

fn json_bool(line: &str, key: &str) -> Option<bool> {
    match json_raw(line, key)? {
        "true" => Some(true),
        "false" => Some(false),
        _ => None,
    }
}

/// A consumer of trace events.
///
/// Implemented by the stock sinks below, and blanket-implemented for any
/// `FnMut(SimTime, &TraceEvent) + Send` closure, so quick ad-hoc
/// collectors stay a one-liner:
///
/// ```
/// use sda_sim::{Simulation, SimConfig, TraceEvent};
/// use sda_simcore::SimTime;
/// let mut sim = Simulation::new(SimConfig::baseline(), 1).unwrap();
/// sim.set_sink(Box::new(|now: SimTime, ev: &TraceEvent| {
///     let _ = (now, ev);
/// }));
/// ```
pub trait TraceSink: Send {
    /// Receives one event at simulation time `now`.
    fn record(&mut self, now: SimTime, event: &TraceEvent);

    /// Flushes any buffered output (no-op for in-memory sinks).
    fn flush(&mut self) {}
}

impl<F: FnMut(SimTime, &TraceEvent) + Send> TraceSink for F {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        self(now, event);
    }
}

/// A bounded in-memory buffer of the most recent records, shared with a
/// [`RingBufferHandle`] that outlives the simulation.
#[derive(Debug)]
pub struct RingBufferSink {
    capacity: usize,
    buf: Arc<Mutex<VecDeque<TraceRecord>>>,
}

/// Reader half of a [`RingBufferSink`].
#[derive(Debug, Clone)]
pub struct RingBufferHandle {
    buf: Arc<Mutex<VecDeque<TraceRecord>>>,
}

impl RingBufferSink {
    /// Creates a sink holding at most `capacity` records (oldest evicted
    /// first) plus the handle to read them back.
    ///
    /// The backing deque is pre-allocated up front, but clamped to 4096
    /// records: callers often size the ring generously "just in case"
    /// (e.g. `with_handle(1_000_000)` for a short probe run), and a full
    /// eager reservation would pay for the worst case on every
    /// construction. Beyond the clamp, the deque grows on demand toward
    /// `capacity`, which [`TraceSink::record`] still enforces exactly.
    pub fn with_handle(capacity: usize) -> (RingBufferSink, RingBufferHandle) {
        assert!(capacity > 0, "ring buffer needs capacity");
        let buf = Arc::new(Mutex::new(VecDeque::with_capacity(capacity.min(4096))));
        let handle = RingBufferHandle {
            buf: Arc::clone(&buf),
        };
        (RingBufferSink { capacity, buf }, handle)
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        let mut buf = self.buf.lock().expect("ring buffer lock");
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(TraceRecord::new(now, *event));
    }
}

impl RingBufferHandle {
    /// The buffered records, oldest first.
    pub fn records(&self) -> Vec<TraceRecord> {
        self.buf
            .lock()
            .expect("ring buffer lock")
            .iter()
            .copied()
            .collect()
    }

    /// Number of records currently buffered.
    pub fn len(&self) -> usize {
        self.buf.lock().expect("ring buffer lock").len()
    }

    /// Whether nothing has been recorded (or everything was evicted).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A sink that writes each record as one JSONL line to `w`.
///
/// Wrap the writer in a [`std::io::BufWriter`] for file output, and call
/// [`TraceSink::flush`] (or drop the simulation) when done.
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    w: W,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Creates a JSONL sink over `w`.
    pub fn new(w: W) -> JsonlSink<W> {
        JsonlSink { w }
    }

    /// Consumes the sink, returning the writer.
    pub fn into_inner(self) -> W {
        self.w
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        let line = TraceRecord::new(now, *event).to_json();
        writeln!(self.w, "{line}").expect("trace write");
    }

    fn flush(&mut self) {
        self.w.flush().expect("trace flush");
    }
}

/// Per-kind event counts observed by a [`CountingSink`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceCounts {
    counts: [u64; 10],
}

impl TraceCounts {
    /// The count of one event kind (see [`TraceEvent::KINDS`] for names).
    pub fn get(&self, kind: &str) -> u64 {
        TraceEvent::KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| self.counts[i])
    }

    /// Total events of all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// `(kind, count)` pairs in declaration order.
    pub fn entries(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        TraceEvent::KINDS.into_iter().zip(self.counts)
    }
}

/// A sink that only counts events per kind — cheap always-on telemetry.
#[derive(Debug)]
pub struct CountingSink {
    counts: Arc<Mutex<TraceCounts>>,
}

/// Reader half of a [`CountingSink`].
#[derive(Debug, Clone)]
pub struct CountingHandle {
    counts: Arc<Mutex<TraceCounts>>,
}

impl CountingSink {
    /// Creates a counting sink plus the handle to read the tallies.
    pub fn with_handle() -> (CountingSink, CountingHandle) {
        let counts = Arc::new(Mutex::new(TraceCounts::default()));
        let handle = CountingHandle {
            counts: Arc::clone(&counts),
        };
        (CountingSink { counts }, handle)
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, _now: SimTime, event: &TraceEvent) {
        self.counts.lock().expect("counter lock").counts[event.kind_index()] += 1;
    }
}

impl CountingHandle {
    /// A snapshot of the counts so far.
    pub fn counts(&self) -> TraceCounts {
        *self.counts.lock().expect("counter lock")
    }
}

/// A cloneable, thread-safe handle around a sink, for passing one sink
/// into machinery that takes ownership (e.g. [`crate::Runner`]) while
/// keeping a handle to flush or read it afterwards.
#[derive(Clone)]
pub struct SharedSink {
    inner: Arc<Mutex<Box<dyn TraceSink>>>,
}

impl SharedSink {
    /// Wraps `sink` for shared access.
    pub fn new(sink: Box<dyn TraceSink>) -> SharedSink {
        SharedSink {
            inner: Arc::new(Mutex::new(sink)),
        }
    }
}

impl std::fmt::Debug for SharedSink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedSink").finish_non_exhaustive()
    }
}

impl TraceSink for SharedSink {
    fn record(&mut self, now: SimTime, event: &TraceEvent) {
        self.inner
            .lock()
            .expect("shared sink lock")
            .record(now, event);
    }

    fn flush(&mut self) {
        self.inner.lock().expect("shared sink lock").flush();
    }
}
