//! Execution tracing for debugging simulations.
//!
//! Enable with [`Simulation::enable_trace`]; the engine then records
//! every dispatched event into a bounded ring buffer and keeps per-kind
//! counters. Reading the trace after (or during) a run answers "what
//! actually happened" questions — which node received what and when —
//! without instrumenting protocol code.
//!
//! ```
//! use decent_sim::prelude::*;
//! use decent_sim::trace::EventTag;
//!
//! struct Silent;
//! impl Node for Silent {
//!     type Msg = ();
//!     fn on_message(&mut self, _: NodeId, _: (), _: &mut Context<'_, ()>) {}
//! }
//!
//! let mut sim: Simulation<Silent> = Simulation::new(1, ConstantLatency::from_millis(10.0));
//! let a = sim.add_node(Silent);
//! let b = sim.add_node(Silent);
//! sim.enable_trace(16);
//! sim.run_until(SimTime::from_secs(1.0));
//! sim.invoke(a, |_, ctx| ctx.send(b, ()));
//! sim.run_until(SimTime::from_secs(2.0));
//! assert_eq!(sim.trace().unwrap().count(EventTag::Deliver), 1);
//! ```
//!
//! [`Simulation::enable_trace`]: crate::engine::Simulation::enable_trace

use std::collections::VecDeque;
use std::fmt;

use crate::engine::NodeId;
use crate::time::SimTime;

/// The kind of a dispatched event.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum EventTag {
    /// A message delivery.
    Deliver,
    /// A timer firing.
    Timer,
    /// A node coming online.
    Start,
    /// A node going offline.
    Stop,
}

impl EventTag {
    /// All tags, in counter order.
    pub const ALL: [EventTag; 4] = [
        EventTag::Deliver,
        EventTag::Timer,
        EventTag::Start,
        EventTag::Stop,
    ];

    pub(crate) fn index(self) -> usize {
        match self {
            EventTag::Deliver => 0,
            EventTag::Timer => 1,
            EventTag::Start => 2,
            EventTag::Stop => 3,
        }
    }
}

/// One traced event.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EventRecord {
    /// When it was dispatched.
    pub time: SimTime,
    /// The node it targeted.
    pub node: NodeId,
    /// What kind of event it was.
    pub kind: EventTag,
}

/// A bounded trace of dispatched events plus lifetime counters.
#[derive(Clone, Debug, Default)]
pub struct Trace {
    ring: VecDeque<EventRecord>,
    capacity: usize,
    counts: [u64; 4],
}

impl Trace {
    /// Creates a trace keeping the most recent `capacity` events.
    pub fn new(capacity: usize) -> Self {
        Trace {
            ring: VecDeque::with_capacity(capacity.min(4096)),
            capacity,
            counts: [0; 4],
        }
    }

    /// Records one event (engine-internal).
    pub(crate) fn record(&mut self, time: SimTime, node: NodeId, kind: EventTag) {
        self.counts[kind.index()] += 1;
        if self.capacity == 0 {
            return;
        }
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(EventRecord { time, node, kind });
    }

    /// The retained (most recent) events, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &EventRecord> {
        self.ring.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Returns true if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Lifetime count of events of `kind` (not limited by capacity).
    pub fn count(&self, kind: EventTag) -> u64 {
        self.counts[kind.index()]
    }

    /// Lifetime count across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }
}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "trace: {} events (deliver {}, timer {}, start {}, stop {})",
            self.total(),
            self.counts[0],
            self.counts[1],
            self.counts[2],
            self.counts[3]
        )?;
        for r in &self.ring {
            writeln!(f, "  {} node={} {:?}", r.time, r.node, r.kind)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_counts_are_not() {
        let mut t = Trace::new(3);
        for i in 0..10 {
            t.record(SimTime::from_secs(i as f64), i, EventTag::Deliver);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.count(EventTag::Deliver), 10);
        let first = t.records().next().unwrap();
        assert_eq!(first.node, 7, "oldest retained is event 7");
    }

    #[test]
    fn zero_capacity_keeps_only_counters() {
        let mut t = Trace::new(0);
        t.record(SimTime::ZERO, 1, EventTag::Timer);
        assert!(t.is_empty());
        assert_eq!(t.count(EventTag::Timer), 1);
        assert_eq!(t.total(), 1);
    }

    #[test]
    fn display_is_nonempty() {
        let mut t = Trace::new(2);
        t.record(SimTime::ZERO, 0, EventTag::Start);
        let s = t.to_string();
        assert!(s.contains("start 1"));
        assert!(s.contains("Start"));
    }
}
