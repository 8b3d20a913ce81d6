#![warn(missing_docs)]
#![forbid(unsafe_code)]

//! # ascetic-graph — graph substrate
//!
//! Everything about graph *data* for the Ascetic reproduction:
//!
//! * [`csr`] — the Compressed Sparse Row representation all systems share
//!   (the paper: "The graph is presented in the CSR format").
//! * [`builder`] — edge-list → CSR construction (sorting, deduplication,
//!   symmetrization for undirected graphs, weight attachment for SSSP).
//! * [`edgelist`] — text and binary edge-list IO.
//! * [`generators`] — R-MAT, power-law social graphs and locality-heavy web
//!   graphs, used as scaled stand-ins for the paper's datasets (Table 3).
//! * [`chunks`] — the 16 KiB edge-chunk geometry the static region manages
//!   (paper §3.4: "we divide the graph dataset into 16KB chunks").
//! * [`partition`] — contiguous vertex-range edge partitions for the PT
//!   baseline (GraphReduce-style).
//! * [`patch`] — streaming edge mutations: [`Csr::apply`] patches a packed
//!   CSR in place, one pass per insert/delete batch (the `ascetic-mutate`
//!   substrate).
//! * [`compress`] — delta–varint adjacency compression (transfer-volume
//!   ablation substrate).
//! * [`stats`] — degree statistics and distribution summaries.
//! * [`datasets`] — the scaled dataset catalog mirroring Table 3.

pub mod builder;
pub mod chunks;
pub mod compress;
pub mod csr;
pub mod datasets;
pub mod edgelist;
pub mod generators;
pub mod partition;
pub mod patch;
pub mod stats;
pub mod types;

pub use builder::GraphBuilder;
pub use chunks::{ChunkGeometry, GraphChunks};
pub use csr::Csr;
pub use datasets::{Dataset, DatasetId};
pub use patch::{GraphPatch, Mutation, PatchError};
pub use types::{EdgeCount, VertexId, Weight, INF_DIST};
