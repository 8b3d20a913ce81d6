#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-mutate — streaming graph mutations with incremental recompute
//!
//! The paper's static/on-demand split assumes the graph is frozen; this
//! crate relaxes that. Edge insert/delete batches are patched into the
//! live session's own packed CSR (resident device chunks rewritten in
//! place, not re-prestored) and the converged program state is *repaired*
//! — re-run from an affected-vertex frontier — instead of recomputed
//! cold. The hard oracle throughout: the patched-and-repaired result is
//! **bit-identical** to a full recompute on the mutated graph.
//!
//! Module map:
//!
//! * [`ingest`] — JSONL mutation batches with line-accurate parse errors,
//!   in the same format family as the serve job traces.
//! * [`churn`] — deterministic synthetic insert/delete streams whose
//!   deletes always name live edges (for benches, CI and proptests).
//! * [`driver`] — the patch → repair → (optionally) verify loop over an
//!   `ascetic_core::AsceticSession` that patches its own graph, plus
//!   every-epoch materialization for oracles.
//!
//! The pieces underneath live where their data lives: the in-place batch
//! routine in `ascetic-graph` (`Csr::apply`), the session's patch and
//! device splice in `ascetic-core` (`AsceticSession::apply_batch`), the repair engine in
//! `ascetic-core` (`repair`), and the per-program invalidate-then-settle
//! passes in `ascetic-algos` (`incremental` + `VertexProgram::repair`).

pub mod churn;
pub mod driver;
pub mod ingest;

pub use churn::synthetic_churn;
pub use driver::{materialize, run_with_mutations, BatchOutcome, Epochs, MutationRun};
pub use ingest::{parse_mutations, MutateError, MutateErrorKind};
