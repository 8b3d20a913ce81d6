#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-obs — unified telemetry
//!
//! The paper's entire argument is observational: Tables 4/5 and Figures 7–10
//! are byte counters and time breakdowns. This crate is the one place those
//! signals are collected, so every system (Ascetic and the baselines) emits
//! a *comparable* stream and every experiment reads the same names:
//!
//! * [`registry`] — one [`Registry`] of named counters, gauges and
//!   log2-bucketed [`Histogram`]s with labels (system/algo/dataset), merge
//!   and diff support, and deterministic (sorted) export ordering.
//! * [`event`] — a structured [`EventLog`] stamped by the **virtual clock**
//!   of what no span states (Eq (3) re-partitions, allocator high-water
//!   marks, UVM faults and evictions) with bounded capacity; each event
//!   writes itself into a JSON object ([`TimedEvent::json_into`]).
//! * [`trace`] — a hierarchical [`SpanTracer`] over named tracks (one per
//!   copy stream, compute engine, serve job) frozen into an immutable
//!   [`Trace`] with one Chrome/Perfetto export, read back by its one reader,
//!   plus busy/idle/overlap queries — the Fig-8 breakdown as an artifact.
//! * [`json`] — the one place JSON syntax lives: a streaming object/array
//!   writer every export goes through, one parser every reader goes
//!   through, and one wording of the faults the JSONL record files share
//!   (no serde; the whole workspace stays dependency-free).
//!
//! Determinism: nothing here reads wall-clock time. Timestamps are supplied
//! by the caller from the simulated clock (`ascetic-sim`), so two runs of
//! the same workload produce byte-identical snapshots and event streams.

pub mod event;
pub mod json;
pub mod registry;
pub mod trace;

pub use event::{Event, EventLog, TimedEvent, DEFAULT_EVENT_CAPACITY};
pub use registry::{Histogram, MetricValue, MetricsSnapshot, Obs, Registry, NUM_BUCKETS};
pub use trace::{SpanTracer, Trace, TracedSpan, TrackId, CAT_WAIT};
