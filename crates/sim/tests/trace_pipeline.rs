//! Trace pipeline tests: JSONL round-trips and the sink zoo.

use sda_sim::trace::{
    parse_jsonl, CountingSink, JsonlSink, RingBufferSink, SharedSink, TraceEvent, TraceRecord,
    TraceSink,
};
use sda_simcore::SimTime;

fn samples() -> Vec<TraceRecord> {
    let t = SimTime::from;
    vec![
        TraceRecord::new(
            t(0.125),
            TraceEvent::LocalArrived {
                node: 3,
                job: 17,
                deadline: t(4.5),
            },
        ),
        TraceRecord::new(
            t(1.0),
            TraceEvent::GlobalArrived {
                slot: 0,
                leaves: 4,
                deadline: t(9.25),
            },
        ),
        TraceRecord::new(
            t(1.0),
            TraceEvent::SubtaskSubmitted {
                slot: 0,
                leaf: 2,
                node: 5,
                virtual_deadline: t(3.0) - 1e9, // GF-style negative deadline
            },
        ),
        TraceRecord::new(t(2.5), TraceEvent::ServiceStarted { node: 1, job: 9 }),
        TraceRecord::new(t(3.5), TraceEvent::ServiceCompleted { node: 1, job: 9 }),
        TraceRecord::new(t(4.0), TraceEvent::Preempted { node: 0, job: 2 }),
        TraceRecord::new(
            t(5.0),
            TraceEvent::LocalFinished {
                job: 17,
                missed: true,
            },
        ),
        TraceRecord::new(
            t(6.0),
            TraceEvent::GlobalFinished {
                slot: 0,
                missed: false,
            },
        ),
        TraceRecord::new(t(7.5), TraceEvent::NodeCrashed { node: 2 }),
        TraceRecord::new(t(8.0), TraceEvent::NodeRecovered { node: 2 }),
    ]
}

#[test]
fn jsonl_round_trips_every_event_kind() {
    for rec in samples() {
        let line = rec.to_json();
        let back =
            TraceRecord::from_json(&line).unwrap_or_else(|| panic!("unparsable line: {line}"));
        assert_eq!(back, rec, "line: {line}");
    }
}

#[test]
fn jsonl_lines_are_flat_json_objects() {
    for rec in samples() {
        let line = rec.to_json();
        assert!(line.starts_with('{') && line.ends_with('}'));
        assert!(line.contains(&format!("\"event\":\"{}\"", rec.event.kind())));
        assert!(!line.contains('\n'));
    }
}

#[test]
fn parse_jsonl_skips_blank_lines_and_names_the_first_bad_one() {
    let mut doc = String::new();
    for rec in samples() {
        doc.push_str(&rec.to_json());
        doc.push_str("\n \n");
    }
    assert_eq!(parse_jsonl(&doc), Ok(samples()));

    // Every sample line is followed by a blank one, so the next line is
    // number 2 * samples + 1.
    let bad_line = 2 * samples().len() + 1;
    let garbage = "not json at all";
    let unknown = "{\"t\":1.0,\"event\":\"who_knows\"}";
    // Each row below breaks one of these canonical lines in one way.
    let crashed = "{\"t\":1.5,\"event\":\"node_crashed\",\"node\":2}";
    let arrived = "{\"t\":1.5,\"event\":\"local_arrived\",\"node\":3,\"job\":17,\"deadline\":4.5}";
    let submitted = "{\"t\":1.5,\"event\":\"subtask_submitted\",\"slot\":0,\"leaf\":2,\"node\":5,\"virtual_deadline\":3}";
    for line in [crashed, arrived, submitted] {
        assert_eq!(
            parse_jsonl(line).map(|records| records.len()),
            Ok(1),
            "{line}"
        );
    }
    let no_braces = &crashed[1..crashed.len() - 1];
    let duplicated_key = crashed.replace('}', ",\"node\":3}");
    let trailing_text = format!("{crashed} x");
    let non_canonical = crashed.replace("1.5", "1e0");
    let nan_time = crashed.replace("1.5", "NaN");
    let nan_deadline = arrived.replace("4.5", "NaN");
    let nan_virtual_deadline = submitted.replace(":3}", ":NaN}");
    for (bad, more) in [
        (garbage, unknown),
        (unknown, garbage),
        (no_braces, garbage),
        (&duplicated_key, garbage),
        (&trailing_text, garbage),
        (&non_canonical, garbage),
        (&nan_time, garbage),
        (&nan_deadline, garbage),
        (&nan_virtual_deadline, garbage),
    ] {
        let err = parse_jsonl(&format!("{doc}{bad}\n{more}\n")).expect_err(bad);
        assert!(err.starts_with(&format!("line {bad_line}: ")), "{err}");
        assert!(err.contains(&format!("{bad:?}")), "{err}");
    }
}

#[test]
fn kinds_cover_every_variant() {
    let seen: Vec<&str> = samples().iter().map(|r| r.event.kind()).collect();
    assert_eq!(seen, TraceEvent::KINDS.to_vec());
}

#[test]
fn ring_buffer_keeps_the_most_recent() {
    let (mut sink, handle) = RingBufferSink::with_handle(3);
    for i in 0..10u64 {
        sink.record(
            SimTime::from(i as f64),
            &TraceEvent::ServiceStarted { node: 0, job: i },
        );
    }
    let records = handle.records();
    assert_eq!(handle.len(), 3);
    assert!(!handle.is_empty());
    let jobs: Vec<u64> = records
        .iter()
        .map(|r| match r.event {
            TraceEvent::ServiceStarted { job, .. } => job,
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(jobs, vec![7, 8, 9], "oldest evicted first");
}

#[test]
fn ring_buffer_never_exceeds_capacity() {
    // Exercise capacities on both sides of the 4096 pre-allocation
    // clamp: the eager reservation is an optimization detail only —
    // eviction must enforce the requested capacity exactly either way.
    for capacity in [1usize, 5, 4096, 5000] {
        let (mut sink, handle) = RingBufferSink::with_handle(capacity);
        let writes = capacity + capacity / 2 + 3;
        for i in 0..writes as u64 {
            sink.record(
                SimTime::from(i as f64),
                &TraceEvent::ServiceStarted { node: 0, job: i },
            );
            assert!(
                handle.len() <= capacity,
                "ring exceeded capacity {capacity} after {i} writes"
            );
        }
        assert_eq!(handle.len(), capacity, "full ring sits exactly at capacity");
        let records = handle.records();
        let first = match records.first().expect("non-empty").event {
            TraceEvent::ServiceStarted { job, .. } => job,
            _ => unreachable!(),
        };
        assert_eq!(
            first,
            (writes - capacity) as u64,
            "the survivors are the most recent {capacity} records"
        );
    }
}

#[test]
fn counting_sink_tallies_kinds() {
    let (mut sink, handle) = CountingSink::with_handle();
    for rec in samples() {
        sink.record(rec.time, &rec.event);
    }
    sink.record(
        SimTime::from(7.0),
        &TraceEvent::ServiceStarted { node: 2, job: 1 },
    );
    let counts = handle.counts();
    assert_eq!(counts.get("service_started"), 2);
    assert_eq!(counts.get("preempted"), 1);
    assert_eq!(counts.get("no_such_kind"), 0);
    assert_eq!(counts.total(), 11);
    assert_eq!(counts.entries().count(), 10);
}

#[test]
fn jsonl_sink_writes_parseable_lines() {
    let mut sink = JsonlSink::new(Vec::new());
    for rec in samples() {
        sink.record(rec.time, &rec.event);
    }
    sink.flush();
    let text = String::from_utf8(sink.into_inner()).unwrap();
    assert_eq!(text.lines().count(), samples().len());
    assert_eq!(parse_jsonl(&text), Ok(samples()));
}

#[test]
fn shared_sink_forwards_and_survives_clone() {
    let (count, handle) = CountingSink::with_handle();
    let mut shared = SharedSink::new(Box::new(count));
    let mut clone = shared.clone();
    shared.record(
        SimTime::from(1.0),
        &TraceEvent::ServiceStarted { node: 0, job: 1 },
    );
    clone.record(
        SimTime::from(2.0),
        &TraceEvent::ServiceCompleted { node: 0, job: 1 },
    );
    clone.flush();
    assert_eq!(handle.counts().total(), 2);
}

#[test]
fn closures_are_sinks() {
    let mut hits = 0usize;
    {
        let mut sink: Box<dyn TraceSink> = Box::new(|_: SimTime, _: &TraceEvent| {});
        sink.record(
            SimTime::from(0.0),
            &TraceEvent::ServiceStarted { node: 0, job: 0 },
        );
    }
    let counter = std::sync::Arc::new(std::sync::Mutex::new(0usize));
    {
        let c = std::sync::Arc::clone(&counter);
        let mut sink: Box<dyn TraceSink> =
            Box::new(move |_: SimTime, _: &TraceEvent| *c.lock().unwrap() += 1);
        for rec in samples() {
            sink.record(rec.time, &rec.event);
        }
    }
    hits += *counter.lock().unwrap();
    assert_eq!(hits, 10);
}
