//! Structured event log stamped by the virtual clock.
//!
//! The span trace ([`crate::trace`]) is a run's timeline: every kernel,
//! copy, gather and iteration is a span there, with its start and length.
//! The event log holds what no span states — occurrences and decisions:
//! when Eq (3) moved the static/on-demand boundary and on what evidence,
//! when the allocator's high-water mark rose, where UVM's faults and
//! evictions clustered. A planner decision that a span cannot express is a
//! new variant here, never a second record of a transfer. Timestamps are
//! plain `u64` nanoseconds supplied by the caller from the simulated clock
//! (`ascetic-sim`'s `SimTime`), so the log is bit-deterministic.
//!
//! The log is bounded: past `capacity` events it counts drops instead of
//! growing (a UVM run can fault millions of times).

use crate::json;

/// Default bound on retained events (65 536 ≈ a few MB worst case).
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// One observable occurrence in a run that no span states.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// A UVM page fault (miss serviced by migration).
    UvmFault {
        /// Virtual page index that faulted.
        page: u64,
        /// Fault service latency in virtual nanoseconds.
        dur_ns: u64,
    },
    /// A UVM page eviction.
    UvmEvict {
        /// Number of pages evicted by this event.
        pages: u64,
    },
    /// An Eq (3) adaptive re-partition of the static/on-demand boundary.
    Repartition {
        /// Iteration at which the boundary moved.
        iter: u32,
        /// New static-region size in bytes.
        static_bytes: u64,
        /// The evidence that fired it: share of all accessed bytes the
        /// static region served since it last changed size, parts per
        /// million ...
        static_share_ppm: u32,
        /// ... against the share of the dataset it held (the rule fires
        /// below half of it), parts per million ...
        region_share_ppm: u32,
        /// ... and the bytes by which this iteration's on-demand volume
        /// overflowed the on-demand region.
        overflow_bytes: u64,
    },
    /// The device allocator's high-water mark rose.
    HighWater {
        /// New peak allocation in bytes.
        bytes: u64,
    },
}

impl Event {
    /// Machine-readable event kind (stable across releases).
    pub fn kind(&self) -> &'static str {
        match self {
            Event::UvmFault { .. } => "uvm_fault",
            Event::UvmEvict { .. } => "uvm_evict",
            Event::Repartition { .. } => "repartition",
            Event::HighWater { .. } => "high_water",
        }
    }
}

/// An [`Event`] plus its virtual-clock timestamp.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TimedEvent {
    /// Virtual-clock instant in nanoseconds.
    pub t_ns: u64,
    /// What happened.
    pub event: Event,
}

impl TimedEvent {
    /// Write this event's members into `o`: `t_ns`, `kind`, then the
    /// kind's fields — one object of the summary JSON's `events` array.
    pub fn json_into(&self, o: &mut json::Object<'_>) {
        o.num("t_ns", self.t_ns).str("kind", self.event.kind());
        match self.event {
            Event::UvmFault { page, dur_ns } => o.num("page", page).num("dur_ns", dur_ns),
            Event::UvmEvict { pages } => o.num("pages", pages),
            Event::Repartition {
                iter,
                static_bytes,
                static_share_ppm,
                region_share_ppm,
                overflow_bytes,
            } => o
                .num("iter", iter)
                .num("static_bytes", static_bytes)
                .num("static_share_ppm", static_share_ppm)
                .num("region_share_ppm", region_share_ppm)
                .num("overflow_bytes", overflow_bytes),
            Event::HighWater { bytes } => o.num("bytes", bytes),
        };
    }
}

/// A bounded, append-only log of [`TimedEvent`]s.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    capacity: usize,
    events: Vec<TimedEvent>,
    dropped: u64,
    first_drop_at: Option<u64>,
}

impl EventLog {
    /// An empty log retaining at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        EventLog {
            capacity,
            events: Vec::new(),
            dropped: 0,
            first_drop_at: None,
        }
    }

    /// Append `event` at instant `t_ns`, or count a drop if full.
    pub fn record(&mut self, t_ns: u64, event: Event) {
        if self.events.len() < self.capacity {
            self.events.push(TimedEvent { t_ns, event });
        } else {
            if self.dropped == 0 {
                self.first_drop_at = Some(t_ns);
            }
            self.dropped += 1;
        }
    }

    /// Retained events, in record order.
    pub fn events(&self) -> &[TimedEvent] {
        &self.events
    }

    /// Iterate over retained events.
    pub fn iter(&self) -> impl Iterator<Item = &TimedEvent> {
        self.events.iter()
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events discarded after the log filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Virtual-clock instant of the *first* dropped event, if any were
    /// dropped. A report that shows `events_dropped > 0` can point at the
    /// moment the log went blind instead of just admitting data loss.
    pub fn first_drop_at(&self) -> Option<u64> {
        self.first_drop_at
    }

    /// Retention bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_until_capacity_then_counts_drops() {
        let mut log = EventLog::new(2);
        log.record(1, Event::HighWater { bytes: 10 });
        log.record(2, Event::HighWater { bytes: 20 });
        assert_eq!(log.first_drop_at(), None);
        log.record(3, Event::HighWater { bytes: 30 });
        log.record(7, Event::HighWater { bytes: 40 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        // The clock of the *first* drop is pinned, not the latest.
        assert_eq!(log.first_drop_at(), Some(3));
    }

    #[test]
    fn each_kind_renders_one_pinned_object() {
        let mut log = EventLog::new(16);
        log.record(0, Event::HighWater { bytes: 4096 });
        log.record(
            10,
            Event::Repartition {
                iter: 2,
                static_bytes: 99,
                static_share_ppm: 10_000,
                region_share_ppm: 80_000,
                overflow_bytes: 100,
            },
        );
        log.record(
            12,
            Event::UvmFault {
                page: 7,
                dur_ns: 11,
            },
        );
        log.record(14, Event::UvmEvict { pages: 3 });
        let lines: Vec<String> = log
            .iter()
            .map(|e| {
                let mut line = String::new();
                json::object(&mut line, |o| e.json_into(o));
                line
            })
            .collect();
        assert_eq!(
            lines,
            [
                "{\"t_ns\":0,\"kind\":\"high_water\",\"bytes\":4096}",
                "{\"t_ns\":10,\"kind\":\"repartition\",\"iter\":2,\"static_bytes\":99,\
                 \"static_share_ppm\":10000,\"region_share_ppm\":80000,\"overflow_bytes\":100}",
                "{\"t_ns\":12,\"kind\":\"uvm_fault\",\"page\":7,\"dur_ns\":11}",
                "{\"t_ns\":14,\"kind\":\"uvm_evict\",\"pages\":3}",
            ]
        );
        for line in &lines {
            json::validate(line).expect("each event object is valid JSON");
        }
    }
}
