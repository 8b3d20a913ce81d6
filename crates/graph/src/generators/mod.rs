//! Synthetic graph generators.
//!
//! The paper evaluates on four real-world graphs (friendster-konect,
//! friendster-snap, gsh-2015-host, uk-2007-04) plus R-MAT synthetics. The
//! real datasets are multi-billion-edge downloads we cannot ship, so the
//! dataset catalog ([`crate::datasets`]) instantiates scaled stand-ins from
//! these generators, matching each dataset's *structural class*:
//!
//! * [`rmat`] — the R-MAT recursive-matrix generator the paper itself uses
//!   for its scaling study (Figure 11, "RMAT-rand").
//! * [`social`] — Chung–Lu power-law graphs for the two Friendster social
//!   networks (undirected, heavy-tailed degrees, little locality).
//! * [`web`] — host-locality directed graphs for the two web crawls
//!   (directed, strong intra-host locality, power-law host popularity).
//! * [`uniform`] — Erdős–Rényi style uniform graphs (tests and ablations).
//!
//! All generators are deterministic given a seed.

pub mod alias;
pub mod rmat;
pub mod social;
pub mod uniform;
pub mod web;

pub use rmat::{rmat_graph, RmatConfig};
pub use social::{social_graph, SocialConfig};
pub use uniform::uniform_graph;
pub use web::{web_graph, WebConfig};

/// Deterministic xorshift64* — the one generator the synthetic workloads
/// over a graph (serve job traces, mutation churn) draw from, so their
/// streams are reproducible across machines and thread counts. `state`
/// must be nonzero.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}
