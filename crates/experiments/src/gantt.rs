//! ASCII Gantt rendering of simulator traces: one lane per node, busy
//! intervals labelled by job id — makes scheduling decisions (EDF order,
//! GF queue-cutting, preemption) directly visible.

use sda_sched::Policy;
use sda_sim::trace::{Replay, Violation};
use sda_sim::TraceRecord;

/// One service burst on a node.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Burst {
    node: usize,
    job: u64,
    start: f64,
    end: f64,
}

/// The service bursts of a run's trace, read off each node's server as
/// [`Replay`] folds the records: a burst opens when a job enters service
/// and closes when the server frees or takes another job (a completion,
/// a preemption, an abort or a crash). Bursts still open at the end of
/// the trace close at `horizon`.
fn bursts(
    records: &[TraceRecord],
    nodes: usize,
    scheduler: Policy,
    horizon: f64,
) -> Result<Vec<Burst>, Violation> {
    let mut replay = Replay::new(nodes, scheduler);
    let mut open: Vec<Option<(u64, f64)>> = vec![None; nodes];
    let mut out = Vec::new();
    let mut close = |node, (job, start), end| {
        out.push(Burst {
            node,
            job,
            start,
            end,
        })
    };
    for record in records {
        replay.apply(record)?;
        let t = record.time.value();
        for (node, burst) in open.iter_mut().enumerate() {
            let serving = replay.node(node).serving;
            if burst.map(|(job, _)| job) != serving {
                if let Some(ended) = burst.take() {
                    close(node, ended, t);
                }
                *burst = serving.map(|job| (job, t));
            }
        }
    }
    for (node, burst) in open.into_iter().enumerate() {
        if let Some(ended) = burst {
            close(node, ended, horizon);
        }
    }
    Ok(out)
}

/// Renders the window `[t0, t1]` of a run's trace, on `nodes` nodes
/// served by `scheduler`, as an ASCII Gantt chart with `width` columns.
/// Each busy cell shows the serving job's id modulo 10; a cell where
/// service changes mid-cell shows `|` as a boundary mark.
///
/// ```
/// use sda_experiments::gantt::render_gantt;
/// use sda_sched::Policy;
/// use sda_sim::{TraceEvent, TraceRecord};
/// use sda_simcore::SimTime;
///
/// let at = |t: f64, event| TraceRecord::new(SimTime::from(t), event);
/// let trace = vec![
///     at(0.0, TraceEvent::LocalArrived { node: 0, job: 0, deadline: SimTime::from(6.0) }),
///     at(0.0, TraceEvent::ServiceStarted { node: 0, job: 0 }),
///     at(4.0, TraceEvent::ServiceCompleted { node: 0, job: 0 }),
///     at(4.0, TraceEvent::LocalFinished { job: 0, missed: false }),
/// ];
/// let lanes = render_gantt(&trace, 1, Policy::Edf, 0.0, 8.0, 16).unwrap();
/// assert!(lanes.contains("node0 |000000000"));
/// ```
///
/// # Errors
///
/// Returns the first record that [`Replay`] rejects: `records` must be
/// a whole run's trace, from its start.
///
/// # Panics
///
/// Panics unless `t0 < t1`, `nodes > 0`, and `width >= 10`.
pub fn render_gantt(
    records: &[TraceRecord],
    nodes: usize,
    scheduler: Policy,
    t0: f64,
    t1: f64,
    width: usize,
) -> Result<String, Violation> {
    assert!(t0 < t1, "empty time window");
    assert!(nodes > 0 && width >= 10, "degenerate gantt shape");
    let bursts = bursts(records, nodes, scheduler, t1)?;
    let mut lanes = vec![vec![' '; width]; nodes];
    let to_col = |t: f64| -> isize { ((t - t0) / (t1 - t0) * width as f64).floor() as isize };
    for b in &bursts {
        if b.end <= t0 || b.start >= t1 {
            continue;
        }
        let glyph = char::from_digit((b.job % 10) as u32, 10).expect("mod 10 digit");
        let c0 = to_col(b.start.max(t0)).clamp(0, width as isize - 1) as usize;
        let c1 = to_col(b.end.min(t1)).clamp(0, width as isize - 1) as usize;
        for cell in &mut lanes[b.node][c0..=c1] {
            *cell = if *cell == ' ' { glyph } else { '|' };
        }
    }
    let mut out = String::new();
    out.push_str(&format!(
        "time {t0:.1} .. {t1:.1} ({width} columns, busy cells show job id mod 10)\n"
    ));
    for (i, lane) in lanes.iter().enumerate() {
        out.push_str(&format!("node{i} |{}|\n", lane.iter().collect::<String>()));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sda_sim::TraceEvent as T;
    use sda_simcore::SimTime;

    fn ev(t: f64, e: T) -> TraceRecord {
        TraceRecord::new(SimTime::from(t), e)
    }

    fn local(t: f64, node: usize, job: u64, deadline: f64) -> TraceRecord {
        let deadline = SimTime::from(deadline);
        ev(
            t,
            T::LocalArrived {
                node,
                job,
                deadline,
            },
        )
    }

    /// `(job, start, end)` of every burst.
    fn spans(trace: &[TraceRecord], nodes: usize, horizon: f64) -> Vec<(u64, f64, f64)> {
        let bursts = bursts(trace, nodes, Policy::Edf, horizon).expect("a possible trace");
        bursts.iter().map(|b| (b.job, b.start, b.end)).collect()
    }

    #[test]
    fn bursts_pair_starts_with_completions() {
        let trace = vec![
            local(1.0, 0, 0, 9.0),
            ev(1.0, T::ServiceStarted { node: 0, job: 0 }),
            local(2.0, 0, 1, 9.0),
            ev(3.0, T::ServiceCompleted { node: 0, job: 0 }),
            ev(
                3.0,
                T::LocalFinished {
                    job: 0,
                    missed: false,
                },
            ),
            ev(3.0, T::ServiceStarted { node: 0, job: 1 }),
            ev(5.0, T::ServiceCompleted { node: 0, job: 1 }),
            ev(
                5.0,
                T::LocalFinished {
                    job: 1,
                    missed: false,
                },
            ),
        ];
        assert_eq!(spans(&trace, 2, 10.0), [(0, 1.0, 3.0), (1, 3.0, 5.0)]);
    }

    #[test]
    fn preemption_closes_a_burst() {
        let trace = vec![
            local(0.0, 1, 0, 9.0),
            ev(0.0, T::ServiceStarted { node: 1, job: 0 }),
            local(2.0, 1, 1, 4.0),
            ev(2.0, T::Preempted { node: 1, job: 0 }),
            ev(2.0, T::ServiceStarted { node: 1, job: 1 }),
        ];
        // The open burst closes at the horizon.
        assert_eq!(spans(&trace, 2, 6.0), [(0, 0.0, 2.0), (1, 2.0, 6.0)]);
    }

    #[test]
    fn aborts_and_crashes_close_bursts() {
        let subtask = T::SubtaskSubmitted {
            slot: 0,
            leaf: 0,
            node: 0,
            virtual_deadline: SimTime::from(7.0),
        };
        let trace = vec![
            local(0.0, 0, 0, 4.0),
            ev(0.0, T::ServiceStarted { node: 0, job: 0 }),
            // Aborted in service at its deadline: no completion record.
            ev(
                4.0,
                T::LocalFinished {
                    job: 0,
                    missed: true,
                },
            ),
            ev(
                4.0,
                T::GlobalArrived {
                    slot: 0,
                    leaves: 1,
                    deadline: SimTime::from(8.0),
                },
            ),
            ev(4.0, subtask),
            ev(4.0, T::ServiceStarted { node: 0, job: 1 }),
            // A crash interrupts the subtask; it is requeued and resumes.
            ev(5.0, T::NodeCrashed { node: 0 }),
            ev(6.0, T::NodeRecovered { node: 0 }),
            ev(6.0, T::ServiceStarted { node: 0, job: 1 }),
            // Its task is torn down mid-service.
            ev(
                7.0,
                T::GlobalFinished {
                    slot: 0,
                    missed: true,
                },
            ),
        ];
        assert_eq!(
            spans(&trace, 1, 8.0),
            [(0, 0.0, 4.0), (1, 4.0, 5.0), (1, 6.0, 7.0)]
        );
    }

    #[test]
    fn an_impossible_trace_is_rejected() {
        let trace = vec![ev(1.0, T::ServiceStarted { node: 0, job: 7 })];
        let violation = render_gantt(&trace, 1, Policy::Edf, 0.0, 8.0, 16).unwrap_err();
        assert_eq!(violation.reason, "job 7 is not waiting at node 0");
    }

    #[test]
    fn render_produces_one_lane_per_node() {
        let trace = vec![
            local(0.0, 0, 0, 9.0),
            ev(0.0, T::ServiceStarted { node: 0, job: 0 }),
            local(2.0, 1, 1, 9.0),
            ev(2.0, T::ServiceStarted { node: 1, job: 1 }),
            ev(5.0, T::ServiceCompleted { node: 0, job: 0 }),
            ev(
                5.0,
                T::LocalFinished {
                    job: 0,
                    missed: false,
                },
            ),
            ev(8.0, T::ServiceCompleted { node: 1, job: 1 }),
            ev(
                8.0,
                T::LocalFinished {
                    job: 1,
                    missed: false,
                },
            ),
        ];
        let gantt = render_gantt(&trace, 2, Policy::Edf, 0.0, 10.0, 20).unwrap();
        let lines: Vec<&str> = gantt.lines().collect();
        assert_eq!(lines.len(), 3);
        // Node 0 serves job 0 for the first half, then idles.
        assert_eq!(lines[1], "node0 |00000000000         |");
        assert_eq!(lines[2], "node1 |    1111111111111   |");
    }

    #[test]
    fn window_clips_bursts() {
        let trace = vec![
            local(0.0, 0, 0, 200.0),
            ev(0.0, T::ServiceStarted { node: 0, job: 0 }),
            ev(100.0, T::ServiceCompleted { node: 0, job: 0 }),
            ev(
                100.0,
                T::LocalFinished {
                    job: 0,
                    missed: false,
                },
            ),
        ];
        let gantt = render_gantt(&trace, 1, Policy::Edf, 40.0, 60.0, 10).unwrap();
        // Fully busy window.
        assert!(gantt.lines().nth(1).unwrap().contains("0000000000"));
    }

    #[test]
    #[should_panic(expected = "empty time window")]
    fn inverted_window_panics() {
        let _ = render_gantt(&[], 1, Policy::Edf, 5.0, 5.0, 20);
    }
}
