//! Reproducibility guarantees: simulated results must be bit-identical
//! across repeated runs and across host thread counts (the virtual clock
//! and the fixed-point/monotone algorithms make this possible).

use ascetic::algos::{Bfs, Cc, PageRank, Sssp};
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem, RunReport};
use ascetic::graph::datasets::{Dataset, DatasetId};
use ascetic::par::set_num_threads;
use ascetic::sim::DeviceConfig;

const SCALE: u64 = 30_000;

fn run_fk<P: ascetic::algos::VertexProgram>(prog: &P, weighted: bool) -> RunReport {
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = if weighted {
        ds.weighted()
    } else {
        ds.graph.clone()
    };
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(1024)).run(&g, prog)
}

fn assert_identical(a: &RunReport, b: &RunReport) {
    assert_eq!(a.output, b.output, "outputs differ");
    assert_eq!(a.iterations, b.iterations, "iteration counts differ");
    assert_eq!(a.sim_time_ns, b.sim_time_ns, "simulated times differ");
    assert_eq!(a.xfer, b.xfer, "transfer stats differ");
    assert_eq!(a.kernels, b.kernels, "kernel stats differ");
    assert_eq!(a.prestore_bytes, b.prestore_bytes);
    assert_eq!(a.refresh_bytes, b.refresh_bytes);
}

#[test]
fn repeated_runs_are_bit_identical() {
    let a = run_fk(&PageRank::new(), false);
    let b = run_fk(&PageRank::new(), false);
    assert_identical(&a, &b);
}

#[test]
fn thread_count_does_not_change_results() {
    // Simulated time comes from the cost model, not the wall clock; the
    // algorithms are monotone/fixed-point — so 1 host thread and many host
    // threads must agree exactly.
    set_num_threads(1);
    let serial_bfs = run_fk(&Bfs::new(0), false);
    let serial_pr = run_fk(&PageRank::new(), false);
    let serial_cc = run_fk(&Cc::new(), false);
    let serial_sssp = run_fk(&Sssp::new(0), true);
    set_num_threads(8);
    let par_bfs = run_fk(&Bfs::new(0), false);
    let par_pr = run_fk(&PageRank::new(), false);
    let par_cc = run_fk(&Cc::new(), false);
    let par_sssp = run_fk(&Sssp::new(0), true);
    set_num_threads(0);
    assert_identical(&serial_bfs, &par_bfs);
    assert_identical(&serial_pr, &par_pr);
    assert_identical(&serial_cc, &par_cc);
    assert_identical(&serial_sssp, &par_sssp);
}

/// Satellite of the persistent-pool PR: the pool swap must not perturb a
/// single bit of any system's results at any host thread count — including
/// the full metrics snapshot, not just the output vector.
#[test]
fn thread_sweep_is_bit_identical_for_all_systems_on_rmat() {
    use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
    use ascetic::graph::generators::{rmat_graph, RmatConfig};
    use ascetic::graph::Csr;

    let g = rmat_graph(&RmatConfig::new(11, 80_000, 42));
    // Undersized device so every system actually exercises its
    // out-of-core machinery (gather, staging, eviction) on the pool.
    let dev = |g: &Csr| DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    assert!(
        dev(&g).mem_bytes < g.edge_bytes(),
        "graph must oversubscribe"
    );
    let src = (0..g.num_vertices() as u32)
        .max_by_key(|&v| (g.degree(v), std::cmp::Reverse(v)))
        .unwrap();

    let run_suite = |threads: usize| -> Vec<RunReport> {
        set_num_threads(threads);
        let asc = AsceticSystem::new(AsceticConfig::new(dev(&g)).with_chunk_bytes(1024));
        let sw = SubwaySystem::new(dev(&g));
        let pt = PtSystem::new(dev(&g));
        let uv = UvmSystem::new(dev(&g));
        vec![
            asc.run(&g, &PageRank::new()),
            asc.run(&g, &Bfs::new(src)),
            sw.run(&g, &PageRank::new()),
            sw.run(&g, &Bfs::new(src)),
            pt.run(&g, &PageRank::new()),
            pt.run(&g, &Bfs::new(src)),
            uv.run(&g, &PageRank::new()),
            uv.run(&g, &Bfs::new(src)),
        ]
    };

    let base = run_suite(1);
    for threads in [2, 8] {
        let sweep = run_suite(threads);
        for (a, b) in base.iter().zip(&sweep) {
            assert_identical(a, b);
            assert_eq!(
                a.metrics, b.metrics,
                "{}/{} metrics must not depend on host threads ({} vs 1)",
                a.system, a.algorithm, threads
            );
        }
    }
    set_num_threads(0);
}

/// Satellite of the compressed-transfer PR: the delta–varint encode runs
/// on the worker pool (parallel length pre-pass + disjoint encode
/// windows), and the adaptive crossover reads engine frontiers — neither
/// may let the host thread count leak into a single bit of the report,
/// under any `CompressionMode`. The device has a fast decompressor and a
/// quarter of the P100's link bandwidth, so the wire-form rule really
/// ships on-demand payloads encoded and the encoded chain is pinned too.
#[test]
fn compression_modes_are_bit_identical_across_thread_counts() {
    use ascetic::baselines::SubwaySystem;
    use ascetic::core::CompressionMode;
    use ascetic::graph::generators::{rmat_graph, RmatConfig};
    use ascetic::sim::DecompressModel;

    let g = rmat_graph(&RmatConfig::new(11, 80_000, 42));
    let mut dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    dev.decompress = DecompressModel {
        bandwidth_bps: 200_000_000_000,
        launch_ns: 1_000,
    };
    dev.pcie.bandwidth_bps /= 4;
    let modes = [CompressionMode::Off, CompressionMode::Adaptive];

    let run_suite = |threads: usize| -> Vec<RunReport> {
        set_num_threads(threads);
        modes
            .iter()
            .flat_map(|&mode| {
                let asc = AsceticSystem::new(
                    AsceticConfig::new(dev)
                        .with_chunk_bytes(1024)
                        .with_compression(mode),
                );
                let sw = SubwaySystem::new(dev).with_compression(mode);
                [
                    asc.run(&g, &PageRank::new()),
                    asc.run(&g, &Bfs::new(0)),
                    sw.run(&g, &PageRank::new()),
                ]
            })
            .collect()
    };

    let base = run_suite(1);
    for r in &base[3..] {
        assert!(
            r.metrics.counter("compress.transfers") > Some(0),
            "{}/{}: no on-demand payload shipped encoded",
            r.system,
            r.algorithm
        );
    }
    for threads in [2, 8] {
        let sweep = run_suite(threads);
        for (a, b) in base.iter().zip(&sweep) {
            assert_identical(a, b);
            assert_eq!(a.prestore_wire_bytes, b.prestore_wire_bytes);
            assert_eq!(
                a.metrics, b.metrics,
                "{}/{} metrics must not depend on host threads ({} vs 1)",
                a.system, a.algorithm, threads
            );
        }
    }
    set_num_threads(0);
}

/// Satellite of the prefetch-pipeline PR: the cross-iteration prefetch
/// planner runs on the single orchestration thread over deterministic
/// inputs (frontier bitmap, hotness table, cached encode sizes), and the
/// second copy stream arbitrates the link in issue order — so every
/// prefetch mode, combined with every compression mode, must be
/// bit-identical at every host thread count, including the speculative
/// byte accounting.
#[test]
fn prefetch_modes_are_bit_identical_across_thread_counts() {
    use ascetic::core::{CompressionMode, PrefetchMode};
    use ascetic::graph::generators::{rmat_graph, RmatConfig};

    let g = rmat_graph(&RmatConfig::new(11, 80_000, 42));
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    let prefetch_modes = [PrefetchMode::Off, PrefetchMode::NextFrontier];
    let compression_modes = [CompressionMode::Off, CompressionMode::Adaptive];

    let run_suite = |threads: usize| -> Vec<RunReport> {
        set_num_threads(threads);
        let mut reports = Vec::new();
        for &pf in &prefetch_modes {
            for &cm in &compression_modes {
                let asc = AsceticSystem::new(
                    AsceticConfig::new(dev)
                        .with_chunk_bytes(1024)
                        .with_compression(cm)
                        .with_prefetch(pf),
                );
                reports.push(asc.run(&g, &Bfs::new(0)));
                reports.push(asc.run(&g, &PageRank::new()));
            }
        }
        reports
    };

    let base = run_suite(1);
    for threads in [2, 8] {
        let sweep = run_suite(threads);
        for (a, b) in base.iter().zip(&sweep) {
            assert_identical(a, b);
            assert_eq!(a.prefetch_bytes, b.prefetch_bytes);
            assert_eq!(a.prefetch_ops, b.prefetch_ops);
            assert_eq!(a.prefetch_hits, b.prefetch_hits);
            assert_eq!(a.prefetch_wasted_bytes, b.prefetch_wasted_bytes);
            assert_eq!(
                a.metrics, b.metrics,
                "{}/{} metrics must not depend on host threads ({} vs 1)",
                a.system, a.algorithm, threads
            );
        }
    }
    set_num_threads(0);
}

/// Prefetch is a pure timing optimization: whatever it speculates, the
/// algorithm answer must equal the `--prefetch off` answer exactly.
#[test]
fn prefetch_never_changes_algorithm_results() {
    use ascetic::core::PrefetchMode;

    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    let wg = ds.weighted();
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    let cfg = |pf: PrefetchMode| {
        AsceticSystem::new(
            AsceticConfig::new(dev)
                .with_chunk_bytes(1024)
                .with_prefetch(pf),
        )
    };
    let off = cfg(PrefetchMode::Off);
    let on = cfg(PrefetchMode::NextFrontier);
    assert_eq!(
        off.run(&g, &Bfs::new(0)).output,
        on.run(&g, &Bfs::new(0)).output
    );
    assert_eq!(
        off.run(&g, &PageRank::new()).output,
        on.run(&g, &PageRank::new()).output
    );
    assert_eq!(
        off.run(&g, &Cc::new()).output,
        on.run(&g, &Cc::new()).output
    );
    assert_eq!(
        off.run(&wg, &Sssp::new(0)).output,
        on.run(&wg, &Sssp::new(0)).output
    );
}

/// Satellite of the span-tracer PR: all span emission happens on the
/// single orchestration thread at virtual-clock timestamps, so the
/// exported `trace.json` must be byte-identical across host thread
/// counts — for one run of every system.
#[test]
fn span_traces_are_byte_identical_across_thread_counts() {
    use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
    use ascetic::core::RUN_REPORT_SCHEMA_VERSION;
    use ascetic::graph::generators::{rmat_graph, RmatConfig};

    let g = rmat_graph(&RmatConfig::new(11, 80_000, 42));
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);

    let run_suite = |threads: usize| -> Vec<String> {
        set_num_threads(threads);
        let asc = AsceticSystem::new(
            AsceticConfig::new(dev)
                .with_chunk_bytes(1024)
                .with_tracing(true),
        );
        let sw = SubwaySystem::new(dev).with_tracing(true);
        let pt = PtSystem::new(dev).with_tracing(true);
        let uv = UvmSystem::new(dev).with_tracing(true);
        [
            asc.run(&g, &Bfs::new(0)),
            sw.run(&g, &Bfs::new(0)),
            pt.run(&g, &Bfs::new(0)),
            uv.run(&g, &Bfs::new(0)),
        ]
        .iter()
        .map(|r| {
            let trace = r
                .span_trace
                .as_ref()
                .unwrap_or_else(|| panic!("{} ran with tracing", r.system));
            assert!(!trace.spans().is_empty(), "{} trace is empty", r.system);
            assert_eq!(trace.check_nesting(), Ok(()), "{} mis-nests", r.system);
            format!(
                "{}\n{}",
                trace.to_perfetto_json(RUN_REPORT_SCHEMA_VERSION),
                trace.to_jsonl(RUN_REPORT_SCHEMA_VERSION)
            )
        })
        .collect()
    };

    let base = run_suite(1);
    for threads in [2, 8] {
        let sweep = run_suite(threads);
        assert_eq!(
            base, sweep,
            "trace bytes must not depend on host threads ({threads} vs 1)"
        );
    }
    set_num_threads(0);
}

/// Tentpole of the fleet PR: sharded multi-device execution is a pure
/// timing model. Every algorithm's answer must be byte-identical across
/// fleet sizes {1, 2, 4}, and the whole fleet report — answer, makespan,
/// exchange volume, per-device reports, and the merged per-device span
/// trace — must be byte-identical across host thread counts {1, 8}.
#[test]
fn fleet_runs_are_bit_identical_across_devices_and_threads() {
    use ascetic::core::{run_fleet, FleetConfig, FleetRunReport, RUN_REPORT_SCHEMA_VERSION};

    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    let wg = ds.weighted();
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    let cfg = AsceticConfig::new(dev)
        .with_chunk_bytes(1024)
        .with_tracing(true);

    let run_suite = |threads: usize| -> Vec<FleetRunReport> {
        set_num_threads(threads);
        let mut reports = Vec::new();
        for devices in [1usize, 2, 4] {
            let fc = FleetConfig::nvlink(devices);
            reports.push(run_fleet(cfg, fc, &g, &Bfs::new(0)));
            reports.push(run_fleet(cfg, fc, &g, &Cc::new()));
            reports.push(run_fleet(cfg, fc, &g, &PageRank::new()));
            reports.push(run_fleet(cfg, fc, &wg, &Sssp::new(0)));
        }
        reports
    };

    let base = run_suite(1);
    // sharding may not change any answer: every device count agrees with
    // the single-device run, algorithm by algorithm
    for chunk in base.chunks(4).skip(1) {
        for (single, fleet) in base[..4].iter().zip(chunk) {
            assert_eq!(
                single.output, fleet.output,
                "{} devices changed an answer",
                fleet.devices
            );
        }
    }
    let trace_bytes = |r: &FleetRunReport| -> String {
        let t = r.span_trace.as_ref().expect("fleet ran with tracing");
        assert!(!t.spans().is_empty());
        assert_eq!(t.check_nesting(), Ok(()), "the merged fleet trace nests");
        format!(
            "{}\n{}",
            t.to_perfetto_json(RUN_REPORT_SCHEMA_VERSION),
            t.to_jsonl(RUN_REPORT_SCHEMA_VERSION)
        )
    };
    let sweep = run_suite(8);
    for (a, b) in base.iter().zip(&sweep) {
        assert_eq!(a.devices, b.devices);
        assert_eq!(a.output, b.output, "outputs depend on host threads");
        assert_eq!(a.iterations, b.iterations);
        assert_eq!(
            a.makespan_ns, b.makespan_ns,
            "makespan depends on host threads"
        );
        assert_eq!(a.exchange_bytes, b.exchange_bytes);
        for (ad, bd) in a.per_device.iter().zip(&b.per_device) {
            assert_identical(ad, bd);
        }
        assert_eq!(
            trace_bytes(a),
            trace_bytes(b),
            "fleet trace bytes must not depend on host threads ({} devices)",
            a.devices
        );
    }
    set_num_threads(0);
}

/// Tentpole of the direction PR: pull/adaptive traversal is a pure
/// data-movement decision. Outputs must be byte-identical across
/// {push, pull, adaptive} × {1, 2, 8} host threads on one device, and
/// across {1, 2, 4} devices under adaptive — the direction heuristic is
/// evaluated on the orchestration thread from deterministic inputs, so
/// the whole report (times, transfer stats, metrics) pins too.
#[test]
fn direction_modes_are_bit_identical_across_threads_and_devices() {
    use ascetic::core::{run_fleet, DirectionMode, FleetConfig, FleetRunReport};

    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let g = ds.graph.clone();
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    let cfg = |m: DirectionMode| {
        AsceticConfig::new(dev)
            .with_chunk_bytes(1024)
            .with_direction(m)
    };
    let modes = [
        DirectionMode::Push,
        DirectionMode::Pull,
        DirectionMode::Adaptive,
    ];

    let run_suite = |threads: usize| -> Vec<RunReport> {
        set_num_threads(threads);
        let mut reports = Vec::new();
        for m in modes {
            let asc = AsceticSystem::new(cfg(m));
            reports.push(asc.run(&g, &Bfs::new(0)));
            reports.push(asc.run(&g, &Cc::new()));
            reports.push(asc.run(&g, &PageRank::new()));
        }
        reports
    };
    let base = run_suite(1);
    // direction never changes an answer: pull and adaptive agree with push
    for chunk in base.chunks(3).skip(1) {
        for (push, other) in base[..3].iter().zip(chunk) {
            assert_eq!(
                push.output, other.output,
                "direction changed the {} answer",
                other.algorithm
            );
        }
    }
    for threads in [2, 8] {
        let sweep = run_suite(threads);
        for (a, b) in base.iter().zip(&sweep) {
            assert_identical(a, b);
            assert_eq!(
                a.metrics, b.metrics,
                "{}/{} metrics must not depend on host threads ({} vs 1)",
                a.system, a.algorithm, threads
            );
        }
    }

    // adaptive across fleet sizes: every device count answers like push
    let fleet_suite = |threads: usize| -> Vec<FleetRunReport> {
        set_num_threads(threads);
        [1usize, 2, 4]
            .iter()
            .map(|&d| {
                run_fleet(
                    cfg(DirectionMode::Adaptive),
                    FleetConfig::nvlink(d),
                    &g,
                    &Bfs::new(0),
                )
            })
            .collect()
    };
    let fleet_base = fleet_suite(1);
    for r in &fleet_base {
        assert_eq!(
            r.output, base[0].output,
            "{} devices under adaptive changed the BFS answer",
            r.devices
        );
    }
    for (a, b) in fleet_base.iter().zip(&fleet_suite(8)) {
        assert_eq!(a.output, b.output, "fleet outputs depend on host threads");
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.exchange_bytes, b.exchange_bytes);
    }
    set_num_threads(0);
}

/// Pinned: on the standard bench graph the adaptive policy must actually
/// take the pull path on the dense mid-phase — at least one pull
/// iteration, strictly fewer steady-state wire bytes than push-only, and
/// the exact push answer.
#[test]
fn adaptive_switches_on_the_dense_mid_phase_of_the_bench_graph() {
    use ascetic::core::DirectionMode;

    let g = Dataset::build(DatasetId::Fk, SCALE).graph.clone();
    let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() / 2);
    let run = |m: DirectionMode| {
        AsceticSystem::new(
            AsceticConfig::new(dev)
                .with_chunk_bytes(1024)
                .with_direction(m),
        )
        .run(&g, &Bfs::new(0))
    };
    let push = run(DirectionMode::Push);
    let adaptive = run(DirectionMode::Adaptive);
    assert_eq!(push.output, adaptive.output, "adaptive changed the answer");
    assert!(
        push.per_iter.iter().all(|i| !i.pull),
        "push-only run reported pull iterations"
    );
    let pulls = adaptive.per_iter.iter().filter(|i| i.pull).count();
    assert!(pulls >= 1, "adaptive never switched to pull on fk@{SCALE}");
    assert!(
        adaptive.steady_wire_bytes() < push.steady_wire_bytes(),
        "adaptive must strictly reduce wire bytes ({} vs {})",
        adaptive.steady_wire_bytes(),
        push.steady_wire_bytes()
    );
}

#[test]
fn dataset_builds_are_reproducible() {
    let a = Dataset::build(DatasetId::Gs, SCALE);
    let b = Dataset::build(DatasetId::Gs, SCALE);
    assert_eq!(a.graph, b.graph);
    assert_eq!(a.weighted(), b.weighted());
}
