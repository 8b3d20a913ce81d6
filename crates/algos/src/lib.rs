#![deny(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-algos — the operator core and its algorithm programs
//!
//! The paper evaluates four push-based vertex-centric algorithms: BFS, SSSP,
//! CC and PageRank ("We choose the push-based vertex-centric programming
//! model... We use a vertex-centric model in the framework and keep all
//! vertices in the GPU memory"). This crate factors that model Gunrock-style
//! into a small set of composable operators so every engine feature is
//! implemented once and inherited by all workloads:
//!
//! * [`traits`] — the [`VertexProgram`] abstraction: per-edge/per-vertex
//!   *functors* (push/pull advance, compute, retain, phase transition) over
//!   an [`EdgeSlice`] whose payload may live in any device region, plus a
//!   [`Capabilities`] descriptor engines consult instead of probing
//!   default-method hooks.
//! * [`ops`] — the advance / filter / compute operators every runtime
//!   (session, fleet, serve, baselines, the in-memory oracle) drives.
//! * [`registry`] — the one list of shipped algorithms ([`Algo::ALL`]) with
//!   parse/display and per-algo metadata; CLI, bench and serve dispatch
//!   through it, so adding a program is a one-file change.
//! * [`bfs`] / [`sssp`] / [`cc`] / [`pr`] — the paper's four programs. PR is
//!   the residual ("delta") formulation, which is what gives the paper's
//!   decaying-but-high active ratios (Table 1: 25–29 %).
//! * [`batch`] — multi-source BFS / SSSP with per-lane distances (serve
//!   batching).
//! * [`lp`] / [`betweenness`] — label-propagation community detection and
//!   Brandes betweenness centrality (the first multi-phase program), each a
//!   ~100-line program on the operator core.
//! * [`incremental`] — repair plans for streaming mutations: programs that
//!   declare [`Capabilities::incremental`] patch converged state in place
//!   after an edge batch and re-run the operators from an affected-vertex
//!   frontier (the `ascetic-mutate` half that lives with the algorithms).
//! * [`mod@reference`] — simple sequential oracles (queue BFS, Bellman–Ford,
//!   union–find, power iteration, Jacobi LP, f64 Brandes) used by tests to
//!   verify every system.
//! * [`inmemory`] — a memory-unconstrained runner used as the semantic
//!   oracle and to measure per-iteration active-edge ratios (Table 1).

pub mod batch;
pub mod betweenness;
pub mod bfs;
pub mod cc;
pub mod incremental;
pub mod inmemory;
pub mod lp;
pub mod ops;
pub mod pr;
pub mod reference;
pub mod registry;
pub mod sssp;
pub mod traits;

pub use batch::{MsBfsDistances, MsSsspDistances, MAX_BATCH_LANES};
pub use betweenness::Betweenness;
pub use bfs::Bfs;
pub use cc::Cc;
pub use incremental::RepairPlan;
pub use inmemory::{run_in_memory, run_in_memory_from, InMemoryResult, IterationLog};
pub use lp::LabelPropagation;
pub use pr::PageRank;
pub use registry::{Algo, AnyProgram, ProgramOpts};
pub use sssp::Sssp;
pub use traits::{AlgoError, AlgoOutput, Capabilities, EdgeSlice, VertexProgram};
