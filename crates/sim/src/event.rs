//! Deterministic event queue and event loop.

use crate::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A time-ordered queue of events with FIFO tie-breaking.
///
/// Events scheduled for the same instant are delivered in insertion order,
/// which keeps every simulation fully deterministic for a given seed — a
/// prerequisite for the paper's methodology of replaying one scenario file
/// under several routing schemes.
///
/// # Example
///
/// ```
/// use drt_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_secs(2), "late");
/// q.push(SimTime::from_secs(1), "early");
/// q.push(SimTime::from_secs(1), "early-second");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1), "early-second")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2), "late")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    seq: u64,
}

#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for min-heap semantics.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `event` at the absolute instant `at`.
    pub fn push(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    /// Removes and returns the earliest event, or `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Iterates the pending events in **unspecified** order (the heap's
    /// internal layout). Callers that need a canonical view — such as a
    /// model checker fingerprinting the queue — must sort or combine the
    /// items order-independently.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.heap.iter().map(|e| (e.at, &e.event))
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Scheduling handle passed to event handlers while the [`Simulator`] loop
/// holds the queue.
#[derive(Debug)]
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
    stopped: &'a mut bool,
}

impl<E> Scheduler<'_, E> {
    /// The current simulation instant.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past (before the current instant): the
    /// event loop never travels backward.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        self.queue.push(at, event);
    }

    /// Stops the event loop after the current handler returns; remaining
    /// events stay in the queue.
    pub fn stop(&mut self) {
        *self.stopped = true;
    }
}

/// A minimal deterministic event loop.
///
/// The experiments in `drt-experiments` drive most simulations directly off
/// an [`EventQueue`], but `Simulator` packages the common loop for examples
/// and tests.
///
/// # Example
///
/// ```
/// use drt_sim::{Simulator, SimDuration, SimTime};
///
/// #[derive(Debug)]
/// enum Ev { Tick(u32) }
///
/// let mut sim = Simulator::new();
/// sim.schedule_at(SimTime::ZERO, Ev::Tick(0));
/// let mut ticks = 0;
/// sim.run(|sched, ev| {
///     let Ev::Tick(n) = ev;
///     ticks += 1;
///     if n < 9 {
///         sched.schedule_in(SimDuration::from_secs(1), Ev::Tick(n + 1));
///     }
/// });
/// assert_eq!(ticks, 10);
/// ```
#[derive(Debug)]
pub struct Simulator<E> {
    queue: EventQueue<E>,
    now: SimTime,
}

impl<E> Simulator<E> {
    /// Creates a simulator at time zero with an empty queue.
    pub fn new() -> Self {
        Simulator {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
        }
    }

    /// The current simulation instant (the timestamp of the last delivered
    /// event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules an event at an absolute instant before the loop starts.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at, event);
    }

    /// Runs the loop to completion (or until [`Scheduler::stop`] is
    /// called), delivering each event to `handler`.
    pub fn run(&mut self, mut handler: impl FnMut(&mut Scheduler<'_, E>, E)) {
        while self.step(&mut handler) {}
    }

    /// Delivers exactly one event to `handler`. Returns `false` when the
    /// loop should end: the queue is empty, or the handler called
    /// [`Scheduler::stop`]. Gives external drivers — such as a model
    /// checker asserting invariants between events — full control of the
    /// loop.
    pub fn step(&mut self, mut handler: impl FnMut(&mut Scheduler<'_, E>, E)) -> bool {
        let Some((at, event)) = self.queue.pop() else {
            return false;
        };
        debug_assert!(at >= self.now, "event queue went backward");
        self.now = at;
        let mut stopped = false;
        let mut sched = Scheduler {
            now: at,
            queue: &mut self.queue,
            stopped: &mut stopped,
        };
        handler(&mut sched, event);
        !stopped
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Iterates the pending events in **unspecified** order (see
    /// [`EventQueue::iter`]).
    pub fn pending_events(&self) -> impl Iterator<Item = (SimTime, &E)> {
        self.queue.iter()
    }
}

impl<E> Default for Simulator<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_within_same_instant() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_secs(1), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), i)));
        }
    }

    #[test]
    fn time_ordering() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), 'c');
        q.push(SimTime::from_secs(1), 'a');
        q.push(SimTime::from_secs(2), 'b');
        let order: Vec<(SimTime, char)> = std::iter::from_fn(|| q.pop()).collect();
        let at = SimTime::from_secs;
        assert_eq!(order, vec![(at(1), 'a'), (at(2), 'b'), (at(3), 'c')]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn simulator_advances_time() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(5), ());
        let mut seen = SimTime::ZERO;
        sim.run(|sched, ()| seen = sched.now());
        assert_eq!(seen, SimTime::from_secs(5));
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }

    #[test]
    fn stop_halts_loop() {
        let mut sim = Simulator::new();
        for i in 0..10u32 {
            sim.schedule_at(SimTime::from_secs(i as u64), i);
        }
        let mut count = 0;
        sim.run(|sched, i| {
            count += 1;
            if i == 4 {
                sched.stop();
            }
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn step_delivers_one_event_at_a_time() {
        let mut sim = Simulator::new();
        for i in 0..3u32 {
            sim.schedule_at(SimTime::from_secs(i as u64), i);
        }
        let mut seen = Vec::new();
        while sim.step(|_, i| seen.push(i)) {}
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(sim.pending(), 0);
        // An empty queue steps to false without invoking the handler.
        assert!(!sim.step(|_, _| panic!("no event to deliver")));
    }

    #[test]
    fn step_respects_stop() {
        let mut sim = Simulator::new();
        for i in 0..3u32 {
            sim.schedule_at(SimTime::from_secs(i as u64), i);
        }
        // The stopping event is delivered, then the loop reports done while
        // later events stay queued.
        assert!(!sim.step(|sched, _| sched.stop()));
        assert_eq!(sim.pending(), 2);
    }

    #[test]
    fn pending_events_expose_queue_contents() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(2), 20u32);
        sim.schedule_at(SimTime::from_secs(1), 10u32);
        let mut pending: Vec<(SimTime, u32)> =
            sim.pending_events().map(|(at, &e)| (at, e)).collect();
        pending.sort();
        assert_eq!(
            pending,
            vec![(SimTime::from_secs(1), 10), (SimTime::from_secs(2), 20)]
        );
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_past_panics() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::from_secs(10), ());
        sim.run(|sched, ()| {
            sched.schedule_at(SimTime::from_secs(1), ());
        });
    }

    #[test]
    fn handler_driven_cascade() {
        let mut sim = Simulator::new();
        sim.schedule_at(SimTime::ZERO, 0u32);
        let mut total = 0;
        sim.run(|sched, n| {
            total += n;
            if n < 5 {
                sched.schedule_in(SimDuration::from_secs(1), n + 1);
            }
        });
        assert_eq!(total, 15);
        assert_eq!(sim.now(), SimTime::from_secs(5));
    }
}
