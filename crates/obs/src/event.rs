//! Structured event log stamped by the virtual clock.
//!
//! Events are the *sequence* view the registry's totals cannot give:
//! which iteration a re-partition happened in, how fault storms cluster,
//! when the allocator's high-water mark moved. Timestamps are plain `u64`
//! nanoseconds supplied by the caller from the simulated clock
//! (`ascetic-sim`'s `SimTime`), so the log is bit-deterministic.
//!
//! The log is bounded: past `capacity` events it counts drops instead of
//! growing (a UVM run can fault millions of times).

use crate::json;

/// Default bound on retained events (65 536 ≈ a few MB worst case).
pub const DEFAULT_EVENT_CAPACITY: usize = 65_536;

/// Direction of a DMA transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum XferDir {
    /// Host to device.
    H2d,
    /// Device to host.
    D2h,
}

impl XferDir {
    fn as_str(self) -> &'static str {
        match self {
            XferDir::H2d => "h2d",
            XferDir::D2h => "d2h",
        }
    }
}

/// One observable occurrence in a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Event {
    /// An iteration of the vertex program began.
    IterStart {
        /// Zero-based iteration index.
        iter: u32,
    },
    /// An iteration finished.
    IterEnd {
        /// Zero-based iteration index.
        iter: u32,
    },
    /// A compute kernel was launched.
    Kernel {
        /// Kernel label (e.g. `"bfs_static"`).
        label: String,
        /// Edges traversed by the launch.
        edges: u64,
        /// Modeled duration in virtual nanoseconds.
        dur_ns: u64,
    },
    /// A DMA copy over PCIe.
    Dma {
        /// Transfer direction.
        dir: XferDir,
        /// Bytes moved.
        bytes: u64,
        /// Modeled duration in virtual nanoseconds.
        dur_ns: u64,
    },
    /// A compressed DMA copy: delta–varint payload over the link, decoded
    /// on the compute engine.
    CompressedDma {
        /// Decoded payload bytes.
        raw_bytes: u64,
        /// Encoded bytes actually on the link.
        wire_bytes: u64,
        /// Modeled copy duration in virtual nanoseconds.
        dur_ns: u64,
        /// Modeled decompression duration in virtual nanoseconds.
        decompress_ns: u64,
    },
    /// A speculative chunk refresh issued on the prefetch copy stream
    /// (cross-iteration pipeline; distinct from reactive `Dma`).
    PrefetchDma {
        /// Chunk shipped ahead of demand.
        chunk: u64,
        /// Bytes moved.
        bytes: u64,
        /// Modeled duration in virtual nanoseconds.
        dur_ns: u64,
    },
    /// An on-demand gather of frontier-reachable edge chunks.
    Gather {
        /// Bytes gathered.
        bytes: u64,
        /// Modeled duration in virtual nanoseconds.
        dur_ns: u64,
    },
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
    /// The one-time prestore fill of the static region.
    Prestore {
        /// Bytes prestored.
        bytes: u64,
        /// Modeled duration in virtual nanoseconds.
        dur_ns: u64,
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
            Event::IterStart { .. } => "iter_start",
            Event::IterEnd { .. } => "iter_end",
            Event::Kernel { .. } => "kernel",
            Event::Dma { .. } => "dma",
            Event::CompressedDma { .. } => "compressed_dma",
            Event::PrefetchDma { .. } => "prefetch_dma",
            Event::Gather { .. } => "gather",
            Event::UvmFault { .. } => "uvm_fault",
            Event::UvmEvict { .. } => "uvm_evict",
            Event::Repartition { .. } => "repartition",
            Event::Prestore { .. } => "prestore",
            Event::HighWater { .. } => "high_water",
        }
    }

    fn fields_into(&self, out: &mut String) {
        match self {
            Event::IterStart { iter } | Event::IterEnd { iter } => {
                out.push_str(&format!(",\"iter\":{iter}"));
            }
            Event::Kernel {
                label,
                edges,
                dur_ns,
            } => {
                out.push_str(",\"label\":");
                json::string_into(label, out);
                out.push_str(&format!(",\"edges\":{edges},\"dur_ns\":{dur_ns}"));
            }
            Event::Dma { dir, bytes, dur_ns } => {
                out.push_str(&format!(
                    ",\"dir\":\"{}\",\"bytes\":{bytes},\"dur_ns\":{dur_ns}",
                    dir.as_str()
                ));
            }
            Event::CompressedDma {
                raw_bytes,
                wire_bytes,
                dur_ns,
                decompress_ns,
            } => {
                out.push_str(&format!(
                    ",\"raw_bytes\":{raw_bytes},\"wire_bytes\":{wire_bytes},\
                     \"dur_ns\":{dur_ns},\"decompress_ns\":{decompress_ns}"
                ));
            }
            Event::PrefetchDma {
                chunk,
                bytes,
                dur_ns,
            } => {
                out.push_str(&format!(
                    ",\"chunk\":{chunk},\"bytes\":{bytes},\"dur_ns\":{dur_ns}"
                ));
            }
            Event::Gather { bytes, dur_ns } => {
                out.push_str(&format!(",\"bytes\":{bytes},\"dur_ns\":{dur_ns}"));
            }
            Event::UvmFault { page, dur_ns } => {
                out.push_str(&format!(",\"page\":{page},\"dur_ns\":{dur_ns}"));
            }
            Event::UvmEvict { pages } => {
                out.push_str(&format!(",\"pages\":{pages}"));
            }
            Event::Repartition {
                iter,
                static_bytes,
                static_share_ppm,
                region_share_ppm,
                overflow_bytes,
            } => {
                out.push_str(&format!(
                    ",\"iter\":{iter},\"static_bytes\":{static_bytes},\
                     \"static_share_ppm\":{static_share_ppm},\
                     \"region_share_ppm\":{region_share_ppm},\
                     \"overflow_bytes\":{overflow_bytes}"
                ));
            }
            Event::Prestore { bytes, dur_ns } => {
                out.push_str(&format!(",\"bytes\":{bytes},\"dur_ns\":{dur_ns}"));
            }
            Event::HighWater { bytes } => {
                out.push_str(&format!(",\"bytes\":{bytes}"));
            }
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
    /// Render as one JSON object:
    /// `{"t_ns":N,"kind":"...",...fields}`.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        self.json_into(&mut out);
        out
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"t_ns\":{},\"kind\":\"{}\"",
            self.t_ns,
            self.event.kind()
        ));
        self.event.fields_into(out);
        out.push('}');
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

    /// Render the retained events as JSONL, one event object per line
    /// (callers prepend their own meta line and append the snapshot).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.events.len() * 64);
        for e in &self.events {
            e.json_into(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_until_capacity_then_counts_drops() {
        let mut log = EventLog::new(2);
        log.record(1, Event::IterStart { iter: 0 });
        log.record(2, Event::IterEnd { iter: 0 });
        assert_eq!(log.first_drop_at(), None);
        log.record(3, Event::IterStart { iter: 1 });
        log.record(7, Event::IterEnd { iter: 1 });
        assert_eq!(log.len(), 2);
        assert_eq!(log.dropped(), 2);
        // The clock of the *first* drop is pinned, not the latest.
        assert_eq!(log.first_drop_at(), Some(3));
    }

    #[test]
    fn jsonl_lines_validate_and_roundtrip_kinds() {
        let mut log = EventLog::new(16);
        log.record(
            0,
            Event::Prestore {
                bytes: 10,
                dur_ns: 5,
            },
        );
        log.record(
            5,
            Event::Kernel {
                label: "bfs \"q\"\n".into(),
                edges: 3,
                dur_ns: 7,
            },
        );
        log.record(
            9,
            Event::Dma {
                dir: XferDir::H2d,
                bytes: 4096,
                dur_ns: 11,
            },
        );
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
            Event::CompressedDma {
                raw_bytes: 4096,
                wire_bytes: 1024,
                dur_ns: 11,
                decompress_ns: 3,
            },
        );
        log.record(
            14,
            Event::PrefetchDma {
                chunk: 7,
                bytes: 2048,
                dur_ns: 6,
            },
        );
        let jsonl = log.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        for line in &lines {
            crate::json::validate(line).expect("each JSONL line is valid JSON");
        }
        assert!(lines[1].contains("\"kind\":\"kernel\""));
        assert!(lines[1].contains("bfs \\\"q\\\"\\n"));
        assert!(lines[2].contains("\"dir\":\"h2d\""));
        assert!(lines[4].contains("\"kind\":\"compressed_dma\""));
        assert!(lines[4].contains("\"wire_bytes\":1024"));
        assert!(lines[5].contains("\"kind\":\"prefetch_dma\""));
        assert!(lines[5].contains("\"chunk\":7"));
    }
}
