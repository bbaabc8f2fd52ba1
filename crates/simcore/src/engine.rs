//! The simulation engine: clock + calendar + run loop.

use crate::event::{Calendar, EventHandle};
use crate::time::SimTime;

/// A discrete-event model driven by an [`Engine`].
///
/// The model owns all mutable simulation state; the engine owns the clock
/// and the calendar. On every event the engine advances the clock and hands
/// the event to [`Model::handle`], which may schedule or cancel further
/// events through the engine it is given.
pub trait Model {
    /// The event alphabet of this model.
    type Event;

    /// Processes one event. The current time is `engine.now()`.
    fn handle(&mut self, engine: &mut Engine<Self::Event>, event: Self::Event);
}

/// The discrete-event simulation engine.
///
/// See the [crate-level documentation](crate) for a complete example.
#[derive(Debug)]
pub struct Engine<E> {
    calendar: Calendar<E>,
    now: SimTime,
    processed: u64,
}

impl<E> Engine<E> {
    /// Creates an engine with the clock at [`SimTime::ZERO`] and an empty
    /// calendar.
    pub fn new() -> Engine<E> {
        Engine {
            calendar: Calendar::new(),
            now: SimTime::ZERO,
            processed: 0,
        }
    }

    /// The current simulation time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.processed
    }

    /// Number of events currently pending in the calendar.
    pub fn events_pending(&self) -> usize {
        self.calendar.len()
    }

    /// Schedules `event` at the absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) -> EventHandle {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now = {}, requested = {}",
            self.now,
            at
        );
        self.calendar.schedule(at, event)
    }

    /// Schedules `event` after a non-negative `delay` from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or NaN.
    pub fn schedule_after(&mut self, delay: f64, event: E) -> EventHandle {
        assert!(delay >= 0.0, "delay must be non-negative, got {delay}");
        self.calendar.schedule(self.now + delay, event)
    }

    /// Cancels a pending event. Returns `true` if it was still pending.
    pub fn cancel(&mut self, handle: EventHandle) -> bool {
        self.calendar.cancel(handle)
    }

    /// Runs the model until the calendar drains or the clock would pass
    /// `until`, whichever comes first. Events scheduled exactly at `until`
    /// are still processed.
    ///
    /// Returns the number of events processed by this call.
    pub fn run_until<M>(&mut self, model: &mut M, until: SimTime) -> u64
    where
        M: Model<Event = E>,
    {
        let before = self.processed;
        self.run_bounded(model, until, u64::MAX);
        self.processed - before
    }

    /// [`Engine::run_until`], stopping once this call has processed `limit`
    /// events, so a model that keeps scheduling work (even at one instant,
    /// where the clock never moves) cannot run forever. Returns `false` if
    /// it stopped at the bound, with the clock at the last event processed.
    pub fn run_bounded<M>(&mut self, model: &mut M, until: SimTime, limit: u64) -> bool
    where
        M: Model<Event = E>,
    {
        let stop = self.processed.saturating_add(limit);
        if self.processed == stop {
            return false;
        }
        // Popping in the loop condition hands the event to `handle` uncopied.
        while let Some((time, event)) = self.calendar.pop_before(until) {
            debug_assert!(time >= self.now, "calendar returned an event in the past");
            self.now = time;
            self.processed += 1;
            model.handle(self, event);
            if self.processed == stop {
                return false;
            }
        }
        // Leave the clock at `until`, never moving it backwards, so
        // time-weighted statistics can close their windows.
        if until > self.now && until.is_finite() {
            self.now = until;
        }
        true
    }
}

impl<E> Default for Engine<E> {
    fn default() -> Engine<E> {
        Engine::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq)]
    enum Ev {
        Ping(u32),
        Stop,
    }

    #[derive(Default)]
    struct Recorder {
        seen: Vec<(f64, u32)>,
        stopped: bool,
    }

    impl Model for Recorder {
        type Event = Ev;
        fn handle(&mut self, engine: &mut Engine<Ev>, event: Ev) {
            match event {
                Ev::Ping(n) => {
                    self.seen.push((engine.now().value(), n));
                    if n < 3 {
                        engine.schedule_after(1.0, Ev::Ping(n + 1));
                    }
                }
                Ev::Stop => self.stopped = true,
            }
        }
    }

    #[test]
    fn run_until_chains_events() {
        let mut engine = Engine::new();
        let mut model = Recorder::default();
        engine.schedule(SimTime::from(0.5), Ev::Ping(1));
        let n = engine.run_until(&mut model, SimTime::INFINITY);
        assert_eq!(n, 3);
        assert_eq!(model.seen, vec![(0.5, 1), (1.5, 2), (2.5, 3)]);
        assert_eq!(engine.events_processed(), 3);
    }

    #[test]
    fn run_until_stops_at_horizon_and_advances_clock() {
        let mut engine = Engine::new();
        let mut model = Recorder::default();
        engine.schedule(SimTime::from(0.5), Ev::Ping(1));
        let n = engine.run_until(&mut model, SimTime::from(1.6));
        assert_eq!(n, 2); // pings at 0.5 and 1.5; the 2.5 ping is beyond
        assert_eq!(engine.now(), SimTime::from(1.6));
        assert_eq!(engine.events_pending(), 1);
    }

    #[test]
    fn run_until_processes_events_exactly_at_horizon() {
        let mut engine = Engine::new();
        let mut model = Recorder::default();
        engine.schedule(SimTime::from(2.0), Ev::Stop);
        engine.run_until(&mut model, SimTime::from(2.0));
        assert!(model.stopped);
    }

    #[test]
    fn run_bounded_stops_a_model_stuck_at_one_instant() {
        struct Livelock;
        impl Model for Livelock {
            type Event = ();
            fn handle(&mut self, engine: &mut Engine<()>, _: ()) {
                engine.schedule_after(0.0, ());
            }
        }
        let mut engine = Engine::new();
        engine.schedule(SimTime::from(1.0), ());
        let until = SimTime::from(10.0);
        assert!(!engine.run_bounded(&mut Livelock, until, 1_000));
        assert_eq!(engine.events_processed(), 1_000);
        assert_eq!(engine.now(), SimTime::from(1.0));
        assert!(engine.now() < until);
        // The bound counts this call's events only.
        assert!(!engine.run_bounded(&mut Livelock, until, 5));
        assert_eq!(engine.events_processed(), 1_005);
    }

    #[test]
    fn run_bounded_within_its_bound_matches_run_until() {
        let mut bounded = Engine::new();
        let mut model = Recorder::default();
        bounded.schedule(SimTime::from(0.5), Ev::Ping(1));
        assert!(bounded.run_bounded(&mut model, SimTime::from(1.6), 3));
        assert_eq!(model.seen, vec![(0.5, 1), (1.5, 2)]);
        assert_eq!(bounded.now(), SimTime::from(1.6));
        // Two events due and a bound of two: the bound is reached first.
        let mut tight = Engine::new();
        tight.schedule(SimTime::from(0.5), Ev::Ping(1));
        assert!(!tight.run_bounded(&mut Recorder::default(), SimTime::from(1.6), 2));
        assert_eq!(tight.now(), SimTime::from(1.5));
    }

    #[test]
    fn cancelled_events_do_not_fire() {
        let mut engine = Engine::new();
        let mut model = Recorder::default();
        let h = engine.schedule(SimTime::from(1.0), Ev::Stop);
        assert!(engine.cancel(h));
        engine.run_until(&mut model, SimTime::INFINITY);
        assert!(!model.stopped);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, engine: &mut Engine<()>, _: ()) {
                let past = engine.now() - 1.0;
                engine.schedule(past, ());
            }
        }
        let mut engine = Engine::new();
        engine.schedule(SimTime::from(5.0), ());
        engine.run_until(&mut Bad, SimTime::INFINITY);
    }

    #[test]
    #[should_panic(expected = "delay must be non-negative")]
    fn negative_delay_panics() {
        let mut engine: Engine<()> = Engine::new();
        engine.schedule_after(-0.1, ());
    }

    #[test]
    fn empty_engine_runs_zero_events() {
        let mut engine: Engine<Ev> = Engine::new();
        let mut model = Recorder::default();
        assert_eq!(engine.run_until(&mut model, SimTime::from(100.0)), 0);
        assert_eq!(engine.now(), SimTime::from(100.0));
    }

    #[test]
    fn simultaneous_events_fire_in_schedule_order() {
        struct Order(Vec<u32>);
        impl Model for Order {
            type Event = u32;
            fn handle(&mut self, _: &mut Engine<u32>, e: u32) {
                self.0.push(e);
            }
        }
        let mut engine = Engine::new();
        let mut model = Order(Vec::new());
        for i in 0..50 {
            engine.schedule(SimTime::from(1.0), i);
        }
        engine.run_until(&mut model, SimTime::INFINITY);
        assert_eq!(model.0, (0..50).collect::<Vec<_>>());
    }
}
