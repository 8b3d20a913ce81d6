//! Per-layer probes: each times calls into one layer's public functions,
//! under a benchmark-owned span, on the workload's own inputs.
//!
//! None of this is on the end-to-end path. A probe answers "what does this
//! layer cost on this workload's data", so that a change to one layer can
//! be found where it happened (see README.md for which end-to-end metric
//! each probe is expected to move).

use std::hint::black_box;

use ascetic_algos::{ops, ProgramOpts, VertexProgram};
use ascetic_baselines::SubwaySystem;
use ascetic_core::maps::DataMaps;
use ascetic_core::ondemand::{gather, plan_batches};
use ascetic_core::ratio::static_share;
use ascetic_core::static_region::StaticRegion;
use ascetic_core::system::{edge_budget_bytes, reserve_vertex_arrays};
use ascetic_core::{AsceticConfig, OutOfCoreSystem};
use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::compress::{decode_ranges, encode_ranges};
use ascetic_graph::{Csr, GraphChunks, VertexId};
use ascetic_mutate::run_with_mutations;
use ascetic_par::Bitmap;
use ascetic_sim::{Gpu, SimTime};

use crate::spans::Spans;
use crate::spec::Metrics;
use crate::workloads::{base_cfg, h2d_wire_bytes, mutation_batches, sessions, Inputs, Workload};

const MB: f64 = 1e6;

/// `graph.*` beyond set-up: CSC mirror, chunking and the delta–varint codec
/// over every chunk of the workload's unweighted graph.
pub fn graph(inputs: &Inputs, spans: &mut Spans, m: &mut Metrics) {
    let g = &inputs.graph;
    let chunk_bytes = base_cfg(inputs.workload).chunk_bytes;
    spans.scope("graph.transpose", |_| black_box(g.transpose()));
    m.set("graph.transpose_s", spans.total_s("graph.transpose"));
    let chunks = spans.scope("graph.chunks_build", |_| GraphChunks::build(g, chunk_bytes));
    m.set("graph.chunks_build_s", spans.total_s("graph.chunks_build"));

    let geo = chunks.csr_geo;
    let entries: Vec<_> = (0..geo.num_chunks() as ChunkId)
        .map(|c| ascetic_core::codec::chunk_entries(g, &geo, c))
        .collect();
    let mut encoded: Vec<Vec<u8>> = Vec::with_capacity(entries.len());
    spans.scope("graph.encode_ranges", |_| {
        for e in &entries {
            let mut buf = Vec::new();
            encode_ranges(g, e, &mut buf);
            encoded.push(buf);
        }
    });
    let srcs: Vec<Vec<VertexId>> = entries
        .iter()
        .map(|es| es.iter().map(|e| e.0).collect())
        .collect();
    let decoded_edges: usize = spans.scope("graph.decode_ranges", |_| {
        srcs.iter()
            .zip(&encoded)
            .map(|(s, buf)| {
                let lists = decode_ranges(s, buf).expect("a stream this harness just encoded");
                lists.iter().map(Vec::len).sum::<usize>()
            })
            .sum()
    });
    assert_eq!(
        decoded_edges as u64,
        g.num_edges(),
        "codec round trip lost edges"
    );
    let raw = g.edge_bytes() as f64;
    let wire: usize = encoded.iter().map(Vec::len).sum();
    m.set(
        "graph.encode_mb_per_s",
        raw / MB / spans.total_s("graph.encode_ranges"),
    );
    m.set(
        "graph.decode_mb_per_s",
        raw / MB / spans.total_s("graph.decode_ranges"),
    );
    m.set("graph.compress_ratio", raw / wire as f64);
}

/// `par.*` micro-costs: one dispatch of a small parallel loop, and a scan
/// of a 1 %-dense vertex bitmap (the shape of a sparse frontier).
pub fn par(inputs: &Inputs, spans: &mut Spans, m: &mut Metrics) {
    const DISPATCHES: u32 = 2_000;
    spans.scope("par.parallel_for", |_| {
        for _ in 0..DISPATCHES {
            ascetic_par::parallel_for(1024, |i| {
                black_box(i);
            });
        }
    });
    m.set(
        "par.dispatch_ns",
        spans.total_s("par.parallel_for") * 1e9 / DISPATCHES as f64,
    );

    let n = inputs.graph.num_vertices();
    let mut bitmap = Bitmap::new(n);
    (0..n).step_by(100).for_each(|v| bitmap.set(v));
    const SCANS: u32 = 200;
    spans.scope("par.bitmap_to_indices", |_| {
        for _ in 0..SCANS {
            black_box(black_box(&bitmap).to_indices());
        }
    });
    let words = bitmap.words().len() as f64;
    m.set(
        "par.bitmap_scan_ns_per_word",
        spans.total_s("par.bitmap_to_indices") * 1e9 / (SCANS as f64 * words),
    );
}

/// `sim.timeline_ops_per_s`: the run's DMA and kernel counts replayed
/// through a bare device — the cost of the timeline bookkeeping alone.
pub fn sim_timeline(
    w: Workload,
    dma_ops: u64,
    kernel_launches: u64,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let mut gpu = Gpu::new(base_cfg(w).device);
    let payload = [0u32; 256];
    let buf = gpu.alloc(payload.len()).expect("1 KiB fits any device");
    let per_pass = (dma_ops + kernel_launches).max(1);
    // replay the mix often enough for the clock to resolve it
    let total = per_pass * 500_000u64.div_ceil(per_pass);
    spans.scope("sim.timeline_replay", |_| {
        let mut t = SimTime::ZERO;
        for i in 0..total {
            // interleave the two kinds in the run's proportion
            let i = i % per_pass;
            let span = if (i * dma_ops) / per_pass != ((i + 1) * dma_ops) / per_pass {
                gpu.h2d_at(buf, &payload, t)
            } else {
                gpu.kernel_at(1_000, 100, t)
            };
            t = span.end;
        }
        black_box(gpu.sync());
    });
    m.set(
        "sim.timeline_ops_per_s",
        total as f64 / spans.total_s("sim.timeline_replay"),
    );
}

/// The device split a session would prestore for `g`, rebuilt from the
/// public pieces: returns the static region (filled per `cfg.fill`) and
/// the on-demand capacity in words.
fn static_split(cfg: &AsceticConfig, g: &Csr) -> (StaticRegion, usize) {
    let mut gpu = Gpu::new(cfg.device);
    reserve_vertex_arrays(&mut gpu, g);
    let m_edge = edge_budget_bytes(&gpu);
    let geo = ChunkGeometry::with_chunk_bytes(g, cfg.chunk_bytes);
    let full_cover = (geo.num_chunks() * cfg.chunk_bytes) as u64;
    let share = static_share(cfg.k, g.edge_bytes(), m_edge);
    let mut target = (share * m_edge as f64) as u64;
    if target >= g.edge_bytes() && full_cover <= m_edge {
        target = full_cover;
    }
    if target < full_cover {
        target = target.min(m_edge - cfg.chunk_bytes as u64);
    }
    let mut region = StaticRegion::new(&mut gpu, g, geo, target);
    let plan = region.plan_fill(cfg.fill, region.slots());
    region.fill(&mut gpu, g, &plan);
    (region, gpu.mem.available())
}

/// `core.datamaps_s`, `core.gather_*`: drive the operators from the harness
/// (`ops::advance_all`, as the in-memory oracle does) and, on every
/// iteration's frontier, time the session's two host-side steps against
/// the prestored static bitmap — `DataMaps::generate`, then
/// `plan_batches` + `gather` over the on-demand nodes.
pub fn core_replay(inputs: &Inputs, spans: &mut Spans, m: &mut Metrics) {
    let mut gathered_bytes = 0u64;
    let mut replay =
        |cfg: &AsceticConfig, g: &Csr, progs: &[ascetic_algos::AnyProgram], spans: &mut Spans| {
            let (region, od_words) = static_split(cfg, g);
            for prog in progs {
                let state = prog.new_state(g);
                let mut active = prog.initial_frontier(g);
                let (mut iter, mut phase) = (0u32, 0u32);
                while iter < prog.max_iterations() {
                    if active.is_all_zero() {
                        match ops::phase_transition(prog, phase, g, &state) {
                            Some(f) => {
                                active = f;
                                phase += 1;
                            }
                            None => break,
                        }
                    }
                    let maps = spans.scope("core.datamaps_generate", |_| {
                        DataMaps::generate(g, &active, region.vertex_bitmap())
                    });
                    spans.scope("core.gather", |_| {
                        for entries in plan_batches(g, &maps.ondemand_nodes, od_words) {
                            gathered_bytes += black_box(gather(g, entries)).payload_bytes();
                        }
                    });
                    active = ops::advance_all(prog, g, iter, &active, &state).0;
                    iter += 1;
                }
            }
        };
    match inputs.workload {
        w @ Workload::ServeChurn => {
            // the jobs' programs on the base epoch, one device's view
            for weighted in [false, true] {
                let progs: Vec<_> = inputs
                    .jobs
                    .iter()
                    .filter(|j| j.kind.weighted() == weighted)
                    .map(|j| {
                        j.kind
                            .program(&ProgramOpts::from_source(j.source.unwrap_or(0)))
                    })
                    .collect();
                replay(&base_cfg(w), inputs.graph_for(weighted), &progs, spans);
            }
        }
        w => {
            for (si, spec) in sessions(w).iter().enumerate() {
                let progs: Vec<_> = inputs
                    .plan
                    .iter()
                    .filter(|op| op.session == si)
                    .map(|op| op.algo.program(&ProgramOpts::from_source(op.source)))
                    .collect();
                replay(&spec.cfg, inputs.graph_for(spec.weighted), &progs, spans);
            }
        }
    }
    let gather_s = spans.total_s("core.gather");
    m.set("core.datamaps_s", spans.total_s("core.datamaps_generate"));
    m.set("core.gather_s", gather_s);
    m.set(
        "core.gather_mb_per_s",
        gathered_bytes as f64 / MB / gather_s,
    );
}

/// `baselines.*`: Subway on the same inputs, each run cold (Subway keeps no
/// state between runs), sharing the session's compression mode.
pub fn subway(inputs: &Inputs, ascetic_sim_ns: u64, spans: &mut Spans, m: &mut Metrics) {
    let specs = sessions(inputs.workload);
    let (mut sim_ns, mut wire) = (0u64, 0u64);
    for op in &inputs.plan {
        let spec = &specs[op.session];
        let sys = SubwaySystem::new(spec.cfg.device).with_compression(spec.cfg.compression);
        let prog = op.algo.program(&ProgramOpts::from_source(op.source));
        let r = spans.scope("baselines.subway_run", |_| {
            sys.run(inputs.graph_for(spec.weighted), &prog)
        });
        sim_ns += r.sim_time_ns;
        wire += h2d_wire_bytes(&r);
    }
    m.set("baselines.subway_sim_ms", sim_ns as f64 / 1e6);
    m.set("baselines.subway_wire_mb", wire as f64 / MB);
    m.set(
        "baselines.subway_wall_s",
        spans.total_s("baselines.subway_run"),
    );
    m.set(
        "baselines.speedup_vs_subway",
        sim_ns as f64 / ascetic_sim_ns as f64,
    );
}

/// `mutate.repair_*`: the first BFS job's program converged on the base
/// graph, then walked through every mutation batch with patch + repair
/// (`run_with_mutations`, verification off).
pub fn mutate_repair(inputs: &Inputs, spans: &mut Spans, m: &mut Metrics) {
    let (_, batches) = mutation_batches(&inputs.mutations, false);
    let source = inputs
        .jobs
        .iter()
        .find_map(|j| {
            (j.kind == ascetic_algos::Algo::Bfs)
                .then_some(j.source)
                .flatten()
        })
        .unwrap_or(0);
    let run = spans
        .scope("mutate.run_with_mutations", |_| {
            run_with_mutations(
                base_cfg(inputs.workload),
                &inputs.graph,
                &ascetic_algos::Bfs::new(source),
                &batches,
                false,
            )
        })
        .expect("generated mutations are in range");
    m.set(
        "mutate.repair_s",
        spans.total_s("mutate.run_with_mutations"),
    );
    let repair_ns: u64 = run.batches.iter().map(|b| b.patch_ns + b.repair_ns).sum();
    m.set("mutate.repair_sim_ms", repair_ns as f64 / 1e6);
}
