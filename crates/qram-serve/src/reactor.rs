//! A hand-rolled discrete-event reactor core.
//!
//! The serving layer runs in *virtual circuit-layer time*: arrivals,
//! dispatches, and completions are instants in [`Layers`], not wall-clock
//! time, so the reactor is a time-ordered event queue rather than an OS
//! event loop (the vendored tree has no tokio — and needs none: the
//! hardware clock being simulated is the QRAM's layer counter).
//!
//! [`EventQueue`] pops events in non-decreasing time order; events pushed
//! at the same instant pop in push order (FIFO tie-break), which is what
//! makes the reactor's schedules deterministic and lets the fleet pin
//! its timings bit-for-bit against the analytic schedulers in
//! `qram-sched`.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use qram_metrics::Layers;

/// A payload scheduled at a virtual instant. Reverse-ordered so the
/// max-heap pops the earliest time first; `seq` breaks ties FIFO.
#[derive(Debug)]
struct Entry<T> {
    time: f64,
    seq: u64,
    payload: T,
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on both keys: the heap's max is the earliest event,
        // and among ties the lowest sequence number (push order).
        other
            .time
            .partial_cmp(&self.time)
            .expect("event times are finite")
            .then(other.seq.cmp(&self.seq))
    }
}

/// A time-ordered event queue over virtual [`Layers`] time.
///
/// # Examples
///
/// ```
/// use qram_metrics::Layers;
/// use qram_serve::EventQueue;
///
/// let mut q = EventQueue::new();
/// q.push(Layers::new(10.0), "completion");
/// q.push(Layers::new(2.5), "arrival");
/// q.push(Layers::new(10.0), "poll");
/// assert_eq!(q.pop(), Some((Layers::new(2.5), "arrival")));
/// // Same-instant events pop in push order.
/// assert_eq!(q.pop(), Some((Layers::new(10.0), "completion")));
/// assert_eq!(q.pop(), Some((Layers::new(10.0), "poll")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Debug)]
pub struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    seq: u64,
}

impl<T> EventQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }

    /// Schedules `payload` at virtual instant `time`.
    pub fn push(&mut self, time: Layers, payload: T) {
        let entry = Entry {
            time: time.get(),
            seq: self.seq,
            payload,
        };
        self.seq += 1;
        self.heap.push(entry);
    }

    /// Removes and returns the earliest event (FIFO among ties).
    pub fn pop(&mut self) -> Option<(Layers, T)> {
        self.heap.pop().map(|e| (Layers::new(e.time), e.payload))
    }

    /// The instant of the next event, if any.
    #[must_use]
    pub fn peek_time(&self) -> Option<Layers> {
        self.heap.peek().map(|e| Layers::new(e.time))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, id) in [(5.0, 'c'), (1.0, 'a'), (3.0, 'b'), (8.0, 'd')] {
            q.push(Layers::new(t), id);
        }
        let order: Vec<char> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, vec!['a', 'b', 'c', 'd']);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for id in 0..100 {
            q.push(Layers::new(7.0), id);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, id)| id).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(Layers::new(4.0), ());
        q.push(Layers::new(2.0), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(Layers::new(2.0)));
        assert_eq!(q.pop().unwrap().0, Layers::new(2.0));
        assert_eq!(q.peek_time(), Some(Layers::new(4.0)));
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Layers::new(10.0), "late");
        q.push(Layers::new(1.0), "early");
        assert_eq!(q.pop().unwrap().1, "early");
        q.push(Layers::new(5.0), "mid");
        assert_eq!(q.pop().unwrap().1, "mid");
        assert_eq!(q.pop().unwrap().1, "late");
    }
}
