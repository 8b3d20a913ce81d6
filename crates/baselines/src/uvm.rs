//! The Unified Virtual Memory baseline (paper §4.4).
//!
//! Edges stay in host memory behind a UVM mapping; the GPU kernel touches
//! them directly and the driver migrates 64 KiB pages on demand with LRU
//! residency. The paper's analysis identifies three costs this module
//! reproduces: (1) page-granularity amplification of sparse accesses,
//! (2) LRU thrashing because the cross-iteration reuse distance exceeds
//! device memory, and (3) per-fault servicing overhead stalling the
//! kernel.
//!
//! Fault time is charged on the COMPUTE engine (a faulting kernel stalls);
//! migrated bytes are accounted as H2D traffic.
//!
//! The frontier loop is [`ascetic_algos::ops::Drive`], the device /
//! iteration / report frame is `crate::frame`, and the host execution is
//! the in-memory oracle's [`ops::advance_frontier`] — the mapping *is* host
//! memory (`DESIGN.md` §18). What is left here is UVM's data movement: the
//! page walk and what its faults cost.

use ascetic_algos::ops::{self, Drive, NextFrontier};
use ascetic_algos::VertexProgram;
use ascetic_graph::Csr;
use ascetic_obs::Event;
use ascetic_sim::{AccessTracer, DeviceConfig, SimTime, Uvm, Xfer};

use ascetic_core::report::RunReport;
use ascetic_core::system::{check_vertex_fit, edge_budget_bytes, OutOfCoreSystem, PrepareError};

use crate::frame::Frame;

/// The UVM baseline system.
#[derive(Clone, PartialEq)]
pub struct UvmSystem {
    /// Device configuration.
    pub device: DeviceConfig,
    /// Record engine spans on the report's `span_trace`.
    pub tracing: bool,
}

impl UvmSystem {
    /// Demand-paging UVM on the given device.
    pub fn new(device: DeviceConfig) -> Self {
        UvmSystem {
            device,
            tracing: false,
        }
    }

    /// Enable span-trace recording.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.tracing = on;
        self
    }

    /// Run with an access tracer attached (used to regenerate Figure 2's
    /// chunk-access patterns). `trace_chunk_bytes` sets the chunk
    /// granularity of the trace.
    pub fn run_traced<P: VertexProgram>(
        &self,
        g: &Csr,
        prog: &P,
        tracer: &mut AccessTracer,
        trace_chunk_bytes: u64,
    ) -> RunReport {
        self.run_inner(g, prog, Some((tracer, trace_chunk_bytes)))
    }

    fn run_inner<P: VertexProgram>(
        &self,
        g: &Csr,
        prog: &P,
        mut trace: Option<(&mut AccessTracer, u64)>,
    ) -> RunReport {
        assert_eq!(g.is_weighted(), prog.capabilities().weights);
        let mut frame = Frame::new(self.device, self.tracing, g);
        let mut uvm = Uvm::new(self.device.uvm, edge_budget_bytes(&frame.gpu));
        let bpe = g.bytes_per_edge() as u64;

        let state = prog.new_state(g);
        let mut active = prog.initial_frontier(g);
        let mut next = NextFrontier::new(g.num_vertices());
        let mut nodes = Vec::new();

        let mut drive = Drive::new(prog, g, &state);
        while let Some(iter) = drive.begin(&mut active) {
            let iter_start = frame.gpu.sync();
            let (gpu, breakdown) = (&mut frame.gpu, &mut frame.ledger.breakdown);
            // Execute on host data first (the UVM mapping *is* host memory,
            // so this is the in-memory oracle's advance); what follows
            // charges the page traffic those reads would have cost.
            let active_edges =
                ops::advance_frontier(prog, g, &active, &state, next.writer(), &mut nodes);
            let migrated_before = uvm.stats.migrated_bytes;
            let faults_before = uvm.stats.faults;
            let evictions_before = uvm.stats.evictions;

            // Page traffic: walk active vertices in id order (the GPU's
            // thread blocks sweep the frontier array, producing the
            // near-sequential chunk scan of Figure 2).
            let mut fault_ns = 0u64;
            let mut cursor_ns = 0u64; // approximate intra-iteration timestamps
            for &v in &nodes {
                let er = g.edge_range(v);
                if er.is_empty() {
                    continue;
                }
                let first_page = er.start * bpe / uvm.page_bytes();
                let last_page = (er.end * bpe - 1) / uvm.page_bytes();
                for p in first_page..=last_page {
                    let faults_b = uvm.stats.faults;
                    let evicts_b = uvm.stats.evictions;
                    let ns = uvm.touch(p);
                    fault_ns += ns;
                    if uvm.stats.faults > faults_b {
                        gpu.obs.registry.observe("uvm.fault_ns", ns);
                        gpu.obs.record(
                            iter_start.0 + fault_ns,
                            Event::UvmFault {
                                page: p,
                                dur_ns: ns,
                            },
                        );
                    }
                    if uvm.stats.evictions > evicts_b {
                        gpu.obs.record(
                            iter_start.0 + fault_ns,
                            Event::UvmEvict {
                                pages: uvm.stats.evictions - evicts_b,
                            },
                        );
                    }
                    if let Some((tracer, cb)) = trace.as_mut() {
                        let chunk = (p * uvm.page_bytes() / *cb) as u32;
                        tracer.record(SimTime(iter_start.0 + cursor_ns), chunk, iter, 1);
                        cursor_ns += gpu.config.kernel.edge_fs / 1_000_000 + 1;
                    }
                }
                cursor_ns += 1;
            }
            // Kernel with its fault stalls: one DMA per fault.
            let k_span = gpu.kernel_at(active_edges, nodes.len() as u64, iter_start);
            breakdown.ondemand_compute_ns += k_span.duration();
            let migrated = uvm.stats.migrated_bytes - migrated_before;
            let class = Xfer::UvmMigration {
                faults: uvm.stats.faults - faults_before,
                stall_ns: fault_ns,
            };
            let (stall, _) = gpu.ship_at(class, migrated, None, k_span.end);
            breakdown.transfer_ns += stall.duration();
            gpu.obs
                .registry
                .counter_add("uvm.faults", uvm.stats.faults - faults_before);
            gpu.obs
                .registry
                .counter_add("uvm.evictions", uvm.stats.evictions - evictions_before);

            frame.close(iter_start, nodes.len() as u64, active_edges, migrated);
            drive.end(&mut active, &mut next);
        }
        frame.finish("UVM", prog, &state)
    }
}

impl OutOfCoreSystem for UvmSystem {
    fn name(&self) -> &'static str {
        "UVM"
    }

    fn prepare(&self, g: &Csr) -> Result<(), PrepareError> {
        check_vertex_fit(g, self.device.mem_bytes).map(drop)
    }

    fn run<P: VertexProgram>(&self, g: &Csr, prog: &P) -> RunReport {
        self.run_inner(g, prog, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, PageRank, Sssp};
    use ascetic_graph::datasets::weighted_variant;
    use ascetic_graph::generators::{rmat_graph, uniform_graph, RmatConfig};

    fn small_device(g: &Csr) -> DeviceConfig {
        let mut d = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        // scale the page size down with the scaled graphs (64 KiB pages on
        // a ~100 KB dataset would hold everything in a couple of pages)
        d.uvm.page_bytes = 1024;
        d
    }

    #[test]
    fn bfs_matches_oracle() {
        let g = rmat_graph(&RmatConfig::new(10, 20_000, 5).undirected(true));
        let rep = UvmSystem::new(small_device(&g)).run(&g, &Bfs::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Bfs::new(0)).output);
    }

    #[test]
    fn cc_matches_oracle() {
        let g = uniform_graph(2_000, 14_000, true, 2);
        let rep = UvmSystem::new(small_device(&g)).run(&g, &Cc::new());
        assert_eq!(rep.output, run_in_memory(&g, &Cc::new()).output);
    }

    #[test]
    fn sssp_matches_oracle() {
        let g = weighted_variant(&uniform_graph(1_500, 10_000, false, 3));
        let rep = UvmSystem::new(small_device(&g)).run(&g, &Sssp::new(0));
        assert_eq!(rep.output, run_in_memory(&g, &Sssp::new(0)).output);
    }

    #[test]
    fn pr_matches_oracle() {
        let g = uniform_graph(1_500, 12_000, false, 4);
        let rep = UvmSystem::new(small_device(&g)).run(&g, &PageRank::new());
        assert_eq!(rep.output, run_in_memory(&g, &PageRank::new()).output);
    }

    #[test]
    fn page_amplification_on_sparse_frontiers() {
        // BFS frontiers are sparse, but whole pages migrate: traffic per
        // iteration far exceeds the active edge bytes (the paper's §2/§4.4
        // point about UVM).
        let g = uniform_graph(3_000, 24_000, false, 5);
        let rep = UvmSystem::new(small_device(&g)).run(&g, &PageRank::new());
        let active_bytes: u64 = rep.per_iter.iter().map(|i| i.active_edges * 4).sum();
        assert!(
            rep.xfer.h2d_bytes > active_bytes,
            "page granularity must amplify traffic: {} vs {}",
            rep.xfer.h2d_bytes,
            active_bytes
        );
    }

    #[test]
    fn thrashing_when_oversubscribed() {
        // PR touches nearly all pages every iteration with reuse distance
        // > capacity: migrations per iteration approach the dataset size.
        let g = uniform_graph(3_000, 24_000, false, 6);
        let rep = UvmSystem::new(small_device(&g)).run(&g, &PageRank::new());
        let early = &rep.per_iter[1]; // iteration 1: still nearly all active
        assert!(
            early.payload_bytes * 2 > g.edge_bytes(),
            "LRU must thrash: migrated {} of {}",
            early.payload_bytes,
            g.edge_bytes()
        );
    }

    #[test]
    fn fault_counters_and_events_track_paging() {
        let g = uniform_graph(2_000, 16_000, false, 9);
        let rep = UvmSystem::new(small_device(&g)).run(&g, &PageRank::new());
        let faults = rep.metrics.counter("uvm.faults").expect("faults counted");
        let evictions = rep
            .metrics
            .counter("uvm.evictions")
            .expect("evictions counted");
        assert!(faults > 0, "oversubscribed PR must fault");
        assert!(evictions > 0, "oversubscribed PR must evict");
        // one DMA op per fault: the counter agrees with the xfer stats
        assert_eq!(faults, rep.xfer.h2d_ops);
        let h = rep.metrics.histogram("uvm.fault_ns").expect("fault hist");
        assert_eq!(h.count(), faults, "one sample per fault");
        assert!(rep.events.iter().any(|e| e.event.kind() == "uvm_fault"));
        assert!(rep.events.iter().any(|e| e.event.kind() == "uvm_evict"));
        assert_eq!(rep.metrics.label("system"), Some("UVM"));
    }

    #[test]
    fn tracer_records_sequential_scan() {
        let g = uniform_graph(2_000, 16_000, false, 8);
        let mut tracer = AccessTracer::new(64, 1);
        let chunk_bytes = (g.edge_bytes() / 64).max(1);
        let rep = UvmSystem::new(small_device(&g)).run_traced(
            &g,
            &PageRank::new(),
            &mut tracer,
            chunk_bytes,
        );
        assert!(rep.iterations > 1);
        // every chunk is touched (roughly uniform access, Figure 2d-f)
        let touched = tracer.counts().iter().filter(|&&c| c > 0).count();
        assert!(touched > 48, "touched {touched}/64 chunks");
    }
}
