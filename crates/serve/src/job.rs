//! Jobs: what a tenant submits to the serving layer.
//!
//! Job kinds are [`Algo`] values straight from the algorithm registry —
//! the serve layer keeps no private algorithm list. Which kinds fold into
//! multi-source batches ([`ascetic_algos::Capabilities::batchable`]) and
//! which a configuration rules out are registry metadata; a job that
//! cannot run is rejected per-job at admission with a reason, never
//! mid-run.

pub use ascetic_algos::Algo;
use ascetic_graph::VertexId;

/// One queued query: an algorithm, its parameters and its arrival time on
/// the serve clock, plus an optional latency deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Job {
    /// Caller-chosen identifier (unique within a trace).
    pub id: u32,
    /// Algorithm to run.
    pub kind: Algo,
    /// Source vertex for single-source kinds (`None` otherwise).
    pub source: Option<VertexId>,
    /// Arrival time on the serve virtual clock, ns.
    pub submit_ns: u64,
    /// Optional completion deadline, ns on the serve clock.
    pub deadline_ns: Option<u64>,
}
