#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-core — the Ascetic framework
//!
//! The paper's contribution: GPU memory is split into a **Static Region**
//! that pins graph chunks across iterations (exploiting the very long reuse
//! distances of iterative graph analytics) and an **On-demand Region** that
//! receives exactly the active edges the static region does not cover,
//! gathered by the CPU-side On-demand Engine — with the static-region
//! compute overlapped against the gather + transfer (Figure 5). After the
//! prestore only two rules change the region — the Eq (3) re-partition and
//! next-frontier prefetch; the paper's reactive chunk-replacement server
//! (Figure 6) was measured and removed (`DESIGN.md` §19).
//!
//! Module map (paper reference in parentheses):
//!
//! * [`config`] — framework configuration: K, fill policy, overlap toggle,
//!   adaptive re-partitioning (§4.1 defaults).
//! * [`ratio`] — the partition-ratio math: Equations (1)–(3) (§3.3), Eq (3)
//!   judged on whole-run evidence.
//! * [`maps`] — `ActiveBitmap`/`StaticBitmap` → `StaticMap`/`OndemandMap`
//!   dataflow and node-list generation (Figure 4).
//! * [`static_region`] — the chunk-slotted static region store and its
//!   vertex-residency bitmap (§3.1, §3.4).
//! * [`ondemand`] — the On-demand Engine: multi-threaded CPU gather into a
//!   compact Subway-style subgraph, batched to the region capacity (§3.1).
//! * [`prefetch`] — cross-iteration prefetch, one `Prefetcher`: the
//!   per-chunk access history (hit scoring, victim recency), next-frontier
//!   chunk demand, benefit ranking, and the speculative refresh pipeline
//!   on the second copy stream.
//! * [`session`] — the Manager: per-iteration orchestration with overlap
//!   (Figure 5) over the simulated device, reusable across multiple
//!   algorithm runs (the paper's prestore-amortization point, §4.3).
//! * [`fleet`] — multi-device sharded execution: owner-computes over
//!   edge-balanced shards with cross-device frontier exchange on the
//!   `ascetic-sim` interconnect, byte-identical to single-device.
//! * [`repair`] — the incremental repair engine: after a mutation batch is
//!   delta-patched into the session, re-converge program state from an
//!   affected-vertex frontier (or a warm restart) instead of recomputing
//!   cold — bit-identical to a full recompute by construction.
//! * [`engine`] — the one-shot `OutOfCoreSystem` wrapper and report
//!   assembly shared with the baselines.
//! * [`report`] — run reports: time breakdown (Tsr, Tfilling, Ttransfer,
//!   Tondemand — Figure 10), transfer volumes (Table 5), idle accounting.
//! * [`system`] — the `OutOfCoreSystem` trait shared with the baselines.

pub mod codec;
pub mod config;
pub mod engine;
pub mod fleet;
mod graph_ref;
pub mod maps;
pub mod ondemand;
pub mod prefetch;
pub mod ratio;
pub mod repair;
pub mod report;
pub mod session;
pub mod static_region;
pub mod system;

pub use config::{
    AsceticConfig, CompressionMode, ConfigError, DirectionMode, FillPolicy, MIN_CHUNK_BYTES,
};
pub use engine::AsceticSystem;
pub use fleet::{run_fleet, FleetConfig, FleetRunReport};
pub use prefetch::{PrefetchMode, PrefetchOp};
pub use repair::{repair_session, RepairMode, RepairOutcome};
pub use report::{
    utilization_from_trace, Breakdown, IterReport, IterUtilization, RunReport,
    RUN_REPORT_SCHEMA_VERSION,
};
pub use session::{AsceticSession, PatchApply};
pub use system::{OutOfCoreSystem, PrepareError};
