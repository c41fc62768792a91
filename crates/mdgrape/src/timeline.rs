//! Resource timelines: the discrete-event substrate of the simulator.
//!
//! Each hardware module is a [`Resource`] that serves one activity at a
//! time. Scheduling an activity at `ready` time starts it at
//! `max(ready, busy_until)` — exactly the semantics of a module draining
//! a queue of work items — and records a labelled [`Span`] for the time
//! charts. Barriers across nodes are expressed by taking the max end time
//! of the participating spans (the hardware's synchronisation points, e.g.
//! "the GCU operation must be synchronized between nodes", §V.B).

/// Simulation time in microseconds.
pub type Time = f64;

/// One recorded activity interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub start: Time,
    pub end: Time,
    pub label: String,
}

/// A serially reusable hardware module with an activity log.
#[derive(Clone, Debug)]
pub struct Resource {
    pub name: String,
    busy_until: Time,
    pub spans: Vec<Span>,
}

impl Resource {
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            busy_until: 0.0,
            spans: Vec::new(),
        }
    }

    /// Schedule an activity that becomes ready at `ready` and takes
    /// `duration`; returns its (start, end).
    pub fn schedule(
        &mut self,
        ready: Time,
        duration: Time,
        label: impl Into<String>,
    ) -> (Time, Time) {
        let start = ready.max(self.busy_until);
        let end = start + duration.max(0.0);
        self.busy_until = end;
        self.spans.push(Span {
            start,
            end,
            label: label.into(),
        });
        (start, end)
    }

    /// Clear the activity log and rewind to t = 0, keeping the span
    /// capacity — lets one resource be reused across simulated steps
    /// without reallocating.
    pub fn reset(&mut self) {
        self.busy_until = 0.0;
        self.spans.clear();
    }

    /// Total busy time.
    pub fn busy_total(&self) -> Time {
        self.spans.iter().map(|s| s.end - s.start).sum()
    }
}

/// Maximum of a set of completion times — a barrier.
pub fn barrier(times: impl IntoIterator<Item = Time>) -> Time {
    times.into_iter().fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_serialises_activities() {
        let mut r = Resource::new("LRU");
        let (s1, e1) = r.schedule(0.0, 5.0, "CA");
        assert_eq!((s1, e1), (0.0, 5.0));
        // Ready earlier than free → starts when free.
        let (s2, e2) = r.schedule(2.0, 3.0, "BI");
        assert_eq!((s2, e2), (5.0, 8.0));
        // Ready later than free → starts when ready.
        let (s3, _) = r.schedule(20.0, 1.0, "CA2");
        assert_eq!(s3, 20.0);
        assert_eq!(r.busy_total(), 9.0);
        assert_eq!(r.busy_until, 21.0);
    }

    #[test]
    fn zero_and_negative_durations_clamped() {
        let mut r = Resource::new("x");
        let (s, e) = r.schedule(1.0, -3.0, "odd");
        assert_eq!(s, e);
    }

    #[test]
    fn barrier_takes_max() {
        assert_eq!(barrier([1.0, 5.0, 3.0]), 5.0);
        assert_eq!(barrier(Vec::<f64>::new()), 0.0);
    }

    #[test]
    fn spans_keep_labels() {
        let mut r = Resource::new("GCU");
        r.schedule(0.0, 1.5, "restriction");
        r.schedule(0.0, 6.0, "convolution");
        assert_eq!(r.spans[0].label, "restriction");
        assert_eq!(r.spans[1].start, 1.5);
    }
}
