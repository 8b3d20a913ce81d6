//! The partition-based baseline ("PT", GraphReduce-style).
//!
//! The graph's edge array is statically divided into contiguous
//! vertex-range partitions sized to the device's edge budget. Every
//! iteration, each partition containing at least one active vertex is
//! shipped to the device *in full* and a kernel processes the active
//! vertices inside it — the Figure 1 swap pattern. There is no
//! overlap: transfer and compute chain strictly (classic double-buffering
//! is deliberately absent, matching the paper's PT results where data
//! transfer dominates by 10–200×).
//!
//! The frontier loop is [`ascetic_algos::ops::Drive`] and the device /
//! iteration / report frame is `crate::frame` (`DESIGN.md` §18); what is
//! left here is PT's data movement: which partitions ship, in what slices.

use ascetic_algos::ops::{Drive, NextFrontier};
use ascetic_algos::{EdgeSlice, VertexProgram};
use ascetic_graph::partition::partition_by_bytes;
use ascetic_graph::Csr;
use ascetic_par::parallel_for_work;
use ascetic_sim::DeviceConfig;

use ascetic_core::report::RunReport;
use ascetic_core::system::{OutOfCoreSystem, PrepareError};

use crate::frame::{check_edge_room, Frame};

/// The PT baseline system.
#[derive(Clone, PartialEq)]
pub struct PtSystem {
    /// Device configuration.
    pub device: DeviceConfig,
    /// Record engine spans on the report's `span_trace`.
    pub tracing: bool,
}

impl PtSystem {
    /// A PT instance on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        PtSystem {
            device,
            tracing: false,
        }
    }

    /// Enable span-trace recording.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }
}

impl OutOfCoreSystem for PtSystem {
    fn name(&self) -> &'static str {
        "PT"
    }

    fn prepare(&self, g: &Csr) -> Result<(), PrepareError> {
        check_edge_room(g, &self.device)
    }

    fn run<P: VertexProgram>(&self, g: &Csr, prog: &P) -> RunReport {
        assert_eq!(g.is_weighted(), prog.capabilities().weights);
        let mut frame = Frame::new(self.device, self.tracing, g);
        let buffer = frame.edge_buffer(g);
        let parts = partition_by_bytes(g, buffer.len_bytes());
        let buffer_words = buffer.len;
        let wpe = g.words_per_edge();

        let state = prog.new_state(g);
        let mut active = prog.initial_frontier(g);
        let mut next = NextFrontier::new(g.num_vertices());

        let mut drive = Drive::new(prog, g, &state);
        while drive.begin(&mut active).is_some() {
            let iter_start = frame.gpu.sync();
            let (gpu, breakdown) = (&mut frame.gpu, &mut frame.ledger.breakdown);
            let next_bits = next.writer();
            let mut payload = 0u64;
            let mut active_vertices = 0u64;
            let mut active_edges = 0u64;

            for p in &parts {
                let nodes: Vec<u32> = (p.vertices.start..p.vertices.end)
                    .filter(|&v| active.get(v as usize))
                    .collect();
                if nodes.is_empty() {
                    continue;
                }
                active_vertices += nodes.len() as u64;
                let edges: u64 = nodes.iter().map(|&v| g.degree(v)).sum();
                active_edges += edges;

                // Stream the partition payload through the buffer, possibly
                // in several slices for an oversized partition.
                let mut shipped = 0u64; // words already shipped of this partition
                let part_words = (p.num_edges() as usize) * wpe;
                while (shipped as usize) < part_words || part_words == 0 {
                    let len = (part_words - shipped as usize).min(buffer_words) / wpe * wpe;
                    if len == 0 {
                        break;
                    }
                    let edge_lo = p.edges.start + shipped / wpe as u64;
                    let edge_hi = edge_lo + (len / wpe) as u64;
                    let dst = buffer.slice(0, len);
                    // strict chain: transfer waits for the previous compute;
                    // the slice's words are copied straight into the buffer
                    let ready = gpu.timeline.now();
                    let t_span = gpu.h2d_fill_at(dst, 0, ready, |window| {
                        g.copy_edge_words(edge_lo..edge_hi, window)
                    });
                    breakdown.transfer_ns += t_span.duration();
                    payload += dst.len_bytes();

                    // GraphReduce-style kernel: the partition is processed
                    // in its entirety (every resident edge is scanned; the
                    // vertex-centric kernel has no compact frontier), which
                    // is the compute-side inefficiency of partition-based
                    // systems. Only active vertices produce pushes.
                    let slice_edges: u64 = edge_hi - edge_lo;
                    let slice_nodes: Vec<u32> = nodes
                        .iter()
                        .copied()
                        .filter(|&v| overlap_len(g.edge_range(v), edge_lo..edge_hi) > 0)
                        .collect();
                    let k_span = gpu.kernel_at(
                        slice_edges,
                        (p.vertices.end - p.vertices.start) as u64,
                        t_span.end,
                    );
                    breakdown.ondemand_compute_ns += k_span.duration();
                    if !slice_nodes.is_empty() {
                        let mem = &gpu.mem;
                        let weighted = g.is_weighted();
                        let slice_active_edges: u64 = slice_nodes
                            .iter()
                            .map(|&v| overlap_len(g.edge_range(v), edge_lo..edge_hi))
                            .sum();
                        parallel_for_work(slice_nodes.len(), slice_active_edges, |lane, i| {
                            let v = slice_nodes[i];
                            let er = g.edge_range(v);
                            let lo = er.start.max(edge_lo);
                            let hi = er.end.min(edge_hi);
                            let off = (lo - edge_lo) as usize * wpe;
                            let len_w = (hi - lo) as usize * wpe;
                            let words = &mem.words(dst)[off..off + len_w];
                            prog.advance_push(
                                lane,
                                v,
                                EdgeSlice::new(words, weighted),
                                &state,
                                next_bits,
                            );
                        });
                    }
                    shipped += len as u64;
                    if part_words == 0 {
                        break;
                    }
                }
            }

            frame.close(iter_start, active_vertices, active_edges, payload);
            drive.end(&mut active, &mut next);
        }
        frame.finish("PT", prog, &state)
    }
}

fn overlap_len(a: std::ops::Range<u64>, b: std::ops::Range<u64>) -> u64 {
    a.end.min(b.end).saturating_sub(a.start.max(b.start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, PageRank, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};

    fn small_device(g: &Csr) -> DeviceConfig {
        DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5)
    }

    #[test]
    fn bfs_matches_oracle() {
        let g = rmat_graph(&RmatConfig::new(10, 20_000, 5).undirected(true));
        let rep = PtSystem::new(small_device(&g)).run(&g, &Bfs::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Bfs::new(0)).output);
    }

    #[test]
    fn cc_matches_oracle() {
        let g = uniform_graph(2_000, 14_000, true, 2);
        let rep = PtSystem::new(small_device(&g)).run(&g, &Cc::new());
        assert_eq!(rep.output, run_in_memory(&g, &Cc::new()).output);
    }

    #[test]
    fn sssp_matches_oracle() {
        let g = weighted_variant(&uniform_graph(1_500, 10_000, false, 3));
        let rep = PtSystem::new(small_device(&g)).run(&g, &Sssp::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Sssp::new(0)).output);
    }

    #[test]
    fn pr_matches_oracle() {
        let g = uniform_graph(1_500, 12_000, false, 4);
        let rep = PtSystem::new(small_device(&g)).run(&g, &PageRank::new());
        assert_eq!(rep.output, run_in_memory(&g, &PageRank::new()).output);
    }

    #[test]
    fn transfers_amplify_hugely() {
        // PT ships whole partitions for sparse frontiers: the volume must
        // exceed the dataset by a wide margin (paper Table 5: 10-200x).
        let g = uniform_graph(3_000, 24_000, false, 5);
        let rep = PtSystem::new(small_device(&g)).run(&g, &PageRank::new());
        assert!(
            rep.xfer.h2d_bytes > 5 * g.edge_bytes(),
            "amplification: {} vs dataset {}",
            rep.xfer.h2d_bytes,
            g.edge_bytes()
        );
    }

    #[test]
    fn gpu_mostly_idle() {
        let g = uniform_graph(2_000, 16_000, false, 6);
        let rep = PtSystem::new(small_device(&g)).run(&g, &Bfs::new(0));
        assert!(
            rep.gpu_idle_fraction() > 0.5,
            "idle {}",
            rep.gpu_idle_fraction()
        );
    }

    #[test]
    fn oversized_partition_streams_in_slices() {
        // one mega-hub vertex whose adjacency exceeds the device budget
        let mut b = ascetic_graph::GraphBuilder::new(30_000);
        for t in 1..30_000u32 {
            b.add_edge(0, t);
        }
        b.add_edge(1, 0);
        let g = b.build();
        // ~120 KB of edges; give the device ~24 KB of edge room
        let dev = DeviceConfig::p100(30_000 * 24 + 24 * 1024);
        let rep = PtSystem::new(dev).run(&g, &Bfs::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Bfs::new(0)).output);
    }
}
