//! `ascetic-serve`: a multi-query serving layer over the Ascetic engine.
//!
//! Out-of-memory graph systems are usually benchmarked one run at a time,
//! but a deployed device serves a *queue*: many tenants, mixed algorithms,
//! arrivals spread over time. This crate models that workload on the
//! repo's virtual-clock simulator and shows where cross-*query* data
//! efficiency comes from — the same residency argument Ascetic makes
//! across iterations, lifted across jobs:
//!
//! - **admission control** ([`server`]) — jobs are checked against the
//!   device arena via [`ascetic_core::OutOfCoreSystem::prepare`] before
//!   they queue; inadmissible ones are rejected with the prepare error,
//!   not crashed on.
//! - **shared-residency scheduling** ([`policy`]) — the
//!   [`Policy::ResidencyAffinity`] policy prefers the waiting job whose
//!   chunk demand best overlaps what is already on-device, so the warmed
//!   static region and prefetch history carry from job to job instead of
//!   being torn down and re-prestored.
//! - **query batching** ([`server`], via `ascetic_algos::batch`) —
//!   compatible single-source BFS/SSSP jobs fold into one multi-source
//!   pass; per-lane answers are exact, so a batched job's output is
//!   byte-identical to running it alone.
//! - **traces** ([`trace`]) — workloads come from a JSONL trace file or
//!   the deterministic synthetic generator; reports ([`report`]) carry
//!   per-job outcomes plus serve-level metrics through `ascetic-obs`.
//! - **streaming mutations** ([`server::serve_mutating`]) — traces may
//!   interleave edge insert/delete records; when a batch's serve-clock
//!   instant passes, each device's live session is delta-patched in place
//!   (resident chunks rewritten, access history carried) instead of being torn
//!   down and re-prestored, and later jobs answer over the mutated graph.
//!
//! Everything runs on integer virtual time: a (trace, policy, config)
//! triple produces a byte-identical [`ServeReport`] regardless of host
//! thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod job;
pub mod policy;
pub mod report;
pub mod server;
pub mod trace;

pub use job::{Algo, Job};
pub use policy::{Policy, ALL_POLICIES};
pub use report::{JobReport, LatencyBreakdown, LatencyPercentiles, RejectedJob, ServeReport};
pub use server::{serve, serve_mutating, ServeConfig, ServeError};
pub use trace::{
    parse_trace_mutating, synthetic_mixed, synthetic_mutations, MutatingTrace, TraceError,
    TraceErrorKind, TraceMutation, MAX_SUBMIT_NS,
};
