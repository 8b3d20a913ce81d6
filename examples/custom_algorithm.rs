//! Extending Ascetic with a custom vertex program.
//!
//! ```text
//! cargo run --release --example custom_algorithm
//! ```
//!
//! Implements **single-source widest path** (SSWP: maximize the minimum
//! edge weight along a path — a classic network-capacity query) as a
//! [`VertexProgram`], and runs it out-of-core under Ascetic. Nothing in
//! the framework is BFS/PR-specific: any push-style monotone program works,
//! including over partial edge delivery.

use std::sync::atomic::{AtomicU32, Ordering};

use ascetic::algos::{AlgoOutput, Capabilities, EdgeSlice, VertexProgram};
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::{web_graph, WebConfig};
use ascetic::graph::{Csr, VertexId};
use ascetic::par::{atomic_max_u32, AtomicBitmap, Bitmap};
use ascetic::sim::DeviceConfig;

/// Single-source widest path: `width(v)` = the best over all paths s→v of
/// the smallest edge weight on the path. Pushes are monotone max-of-min,
/// so partial/duplicated edge delivery is harmless — exactly the contract
/// Ascetic's split regions need.
struct WidestPath {
    source: VertexId,
}

struct WpState {
    width: Vec<AtomicU32>,
    frozen: Vec<AtomicU32>,
}

impl VertexProgram for WidestPath {
    type State = WpState;

    fn name(&self) -> &'static str {
        "SSWP"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::new().with_weights()
    }

    fn new_state(&self, g: &Csr) -> WpState {
        let width: Vec<AtomicU32> = (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect();
        width[self.source as usize].store(u32::MAX, Ordering::Relaxed);
        WpState {
            width,
            frozen: (0..g.num_vertices()).map(|_| AtomicU32::new(0)).collect(),
        }
    }

    fn initial_frontier(&self, g: &Csr) -> Bitmap {
        let mut b = Bitmap::new(g.num_vertices());
        b.set(self.source as usize);
        b
    }

    fn compute(&self, _iter: u32, active: &Bitmap, state: &WpState) {
        for v in active.iter_ones() {
            state.frozen[v].store(state.width[v].load(Ordering::Relaxed), Ordering::Relaxed);
        }
    }

    fn advance_push(
        &self,
        _lane: usize,
        src: VertexId,
        edges: EdgeSlice<'_>,
        state: &WpState,
        next: &AtomicBitmap,
    ) {
        let w = state.frozen[src as usize].load(Ordering::Relaxed);
        edges.for_each_edge(|t, ew| {
            let cand = w.min(ew);
            if atomic_max_u32(&state.width[t as usize], cand) {
                next.set(t as usize);
            }
        });
    }

    fn output(&self, state: &WpState) -> AlgoOutput {
        AlgoOutput::Labels(
            state
                .width
                .iter()
                .map(|w| w.load(Ordering::Relaxed))
                .collect(),
        )
    }
}

/// Straightforward in-memory reference (Bellman–Ford style fixpoint).
fn sswp_reference(g: &Csr, source: VertexId) -> Vec<u32> {
    let n = g.num_vertices();
    let mut width = vec![0u32; n];
    width[source as usize] = u32::MAX;
    loop {
        let mut changed = false;
        for v in 0..n as VertexId {
            let w = width[v as usize];
            if w == 0 {
                continue;
            }
            for (&t, &ew) in g.neighbors(v).iter().zip(g.edge_weights(v)) {
                let cand = w.min(ew);
                if cand > width[t as usize] {
                    width[t as usize] = cand;
                    changed = true;
                }
            }
        }
        if !changed {
            return width;
        }
    }
}

fn main() {
    println!("building weighted web graph ...");
    let g = weighted_variant(&web_graph(&WebConfig::new(60_000, 900_000, 11)));
    println!(
        "graph: {} vertices, {} weighted edges ({:.1} MB)",
        g.num_vertices(),
        g.num_edges(),
        g.edge_bytes() as f64 / 1e6
    );

    let mem = g.num_vertices() as u64 * 24 + g.edge_bytes() / 3;
    let system = AsceticSystem::new(AsceticConfig::new(DeviceConfig::p100(mem)));
    println!(
        "device memory: {:.1} MB (~33% of the dataset)",
        mem as f64 / 1e6
    );

    let source = 0;
    let report = system.run(&g, &WidestPath { source });
    println!(
        "\nSSWP finished: {} iterations, {:.2} ms simulated, {:.2} MB transferred",
        report.iterations,
        report.sim_time_ns as f64 / 1e6,
        report.xfer.total_bytes() as f64 / 1e6
    );

    print!("verifying against in-memory fixpoint ... ");
    let expect = sswp_reference(&g, source);
    assert_eq!(report.output, AlgoOutput::Labels(expect));
    println!("ok ✓");

    if let AlgoOutput::Labels(widths) = &report.output {
        let reachable = widths.iter().filter(|&&w| w > 0).count();
        let best = widths
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != source as usize)
            .max_by_key(|&(_, w)| w)
            .unwrap();
        println!(
            "{} vertices reachable; widest pipe from {} reaches vertex {} at width {}",
            reachable, source, best.0, best.1
        );
    }
}
