//! Cross-crate observability invariants: every system's `RunReport` carries
//! the same canonical metric names (zeros included) beside whatever its
//! device counted, the scalars derived at report time are exported once,
//! and both the snapshot and the event stream are bit-deterministic. (The
//! report's scalar fields are *read off* the snapshot, so "field == metric"
//! holds by construction and is not asserted here.)

use ascetic::algos::{Bfs, PageRank};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::report::RunReport;
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem, PrefetchMode};
use ascetic::graph::datasets::{Dataset, DatasetId, PAPER_GPU_MEM_BYTES};
use ascetic::obs::Event;
use ascetic::sim::DeviceConfig;

const SCALE: u64 = 8_000;

fn env() -> (Dataset, DeviceConfig, usize) {
    let ds = Dataset::build(DatasetId::Fk, SCALE);
    let mut dev = DeviceConfig::p100(PAPER_GPU_MEM_BYTES / SCALE);
    dev.uvm.page_bytes = 8192;
    (ds, dev, 8192)
}

/// The names every report's snapshot carries, whatever the system did.
const CANONICAL: [&str; 25] = [
    "xfer.h2d_bytes",
    "xfer.h2d_wire_bytes",
    "xfer.h2d_ops",
    "xfer.d2h_bytes",
    "xfer.d2h_ops",
    "kernel.launches",
    "kernel.edges",
    "kernel.vertices",
    "kernel.time_ns",
    "prestore.bytes",
    "prestore.wire_bytes",
    "refresh.bytes",
    "refresh.wire_bytes",
    "prefetch.bytes",
    "prefetch.ops",
    "prefetch.hits",
    "prefetch.waste_bytes",
    "events.dropped",
    "iterations",
    "iterations.both_regions",
    "repartitions",
    "sim_time_ns",
    "gpu.idle_ns",
    "payload.peak_bytes",
    "payload.avg_bytes",
];

/// Every system exports one name set: what its device counted plus the
/// canonical scalars, declared at zero where no operation bumped them.
fn assert_snapshot_matches(rep: &RunReport) {
    let m = &rep.metrics;
    let sys = rep.system;
    for name in CANONICAL {
        assert!(
            m.counter(name).or(m.gauge(name)).is_some(),
            "{sys}: {name} is not declared"
        );
    }
    // the histogram and the counters of a kernel launch are separate
    // stores of one fact
    let kernel_ns = m.histogram("kernel.ns").expect("every system launches");
    assert_eq!(kernel_ns.count(), rep.kernels.launches, "{sys}");
    assert_eq!(kernel_ns.sum(), rep.kernels.time_ns, "{sys}");
    // derived at report time, exported once
    assert_eq!(
        m.counter("iterations"),
        Some(rep.iterations as u64),
        "{sys}"
    );
    assert_eq!(m.gauge("sim_time_ns"), Some(rep.sim_time_ns), "{sys}");
    assert_eq!(m.gauge("gpu.idle_ns"), Some(rep.gpu_idle_ns), "{sys}");
    assert_eq!(m.label("system"), Some(rep.system), "{sys}");
    assert_eq!(m.label("algo"), Some(rep.algorithm), "{sys}");
}

#[test]
fn snapshot_equals_xferstats_on_every_system() {
    let (ds, dev, chunk) = env();
    let g = &ds.graph;
    assert_snapshot_matches(
        &AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(chunk)).run(g, &Bfs::new(0)),
    );
    assert_snapshot_matches(&SubwaySystem::new(dev).run(g, &Bfs::new(0)));
    assert_snapshot_matches(&PtSystem::new(dev).run(g, &Bfs::new(0)));
    assert_snapshot_matches(&UvmSystem::new(dev).run(g, &PageRank::new()));
}

#[test]
fn snapshot_and_events_are_bit_deterministic() {
    let (ds, dev, chunk) = env();
    let g = &ds.graph;
    let cfg = AsceticConfig::new(dev)
        .with_chunk_bytes(chunk)
        .with_events(true);
    let a = AsceticSystem::new(cfg).run(g, &PageRank::new());
    let b = AsceticSystem::new(cfg).run(g, &PageRank::new());
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    assert_eq!(a.metrics.to_csv(), b.metrics.to_csv());
    let (ea, eb) = (a.events.expect("events on"), b.events.expect("events on"));
    assert_eq!(ea.to_jsonl(), eb.to_jsonl());
    assert!(!ea.is_empty(), "an Ascetic run must produce events");
    assert_eq!(ea.dropped(), 0, "capacity must cover a small run");
}

#[test]
fn event_stream_is_clock_ordered_and_valid_json() {
    let (ds, dev, chunk) = env();
    let g = &ds.graph;
    let rep = AsceticSystem::new(
        AsceticConfig::new(dev)
            .with_chunk_bytes(chunk)
            .with_events(true),
    )
    .run(g, &Bfs::new(0));
    let events = rep.events.expect("events on");
    for line in events.to_jsonl().lines() {
        ascetic::obs::json::validate(line).unwrap_or_else(|e| panic!("bad JSON {e}: {line}"));
    }
    // Virtual-clock stamps never exceed the run's makespan.
    assert!(events.iter().all(|e| e.t_ns <= rep.sim_time_ns));
    // One iter_start / iter_end pair per iteration.
    let starts = events
        .iter()
        .filter(|e| e.event.kind() == "iter_start")
        .count();
    assert_eq!(starts as u32, rep.iterations);
}

/// A prefetch is one DMA on the prefetch stream, and its event says when
/// that DMA started — not when the iteration's prefetch window opened,
/// which would stamp every op of a window at one instant.
#[test]
fn region_op_events_carry_their_dmas_start_time() {
    let (ds, dev, chunk) = env();
    let cfg = AsceticConfig::new(dev)
        .with_chunk_bytes(chunk)
        .with_prefetch(PrefetchMode::NextFrontier)
        .with_events(true)
        .with_tracing(true);
    let rep = AsceticSystem::new(cfg).run(&ds.graph, &Bfs::new(0));
    let trace = rep.span_trace.as_ref().expect("tracing on");
    let stream = trace
        .track_index("PCIe copy stream 1")
        .expect("the prefetch stream's track");
    let events = rep.events.as_ref().expect("events on");
    let stamps: Vec<(u64, u64, u64)> = events
        .iter()
        .filter_map(|e| match e.event {
            Event::PrefetchDma { chunk, bytes, .. } => Some((e.t_ns, chunk, bytes)),
            _ => None,
        })
        .collect();
    assert!(stamps.len() > 1, "the run must issue several");
    for (t_ns, chunk, bytes) in &stamps {
        let name = format!("prefetch chunk {chunk} ({bytes}B)");
        assert!(
            trace
                .track_spans(stream)
                .any(|s| s.start_ns == *t_ns && s.name == name),
            "no `{name}` span starts at {t_ns}"
        );
    }
    // the stream is FIFO, so no two ops share a stamp
    assert!(
        stamps.windows(2).all(|w| w[0].0 < w[1].0),
        "stamps must strictly increase"
    );
}

#[test]
fn summary_json_embeds_the_snapshot() {
    let (ds, dev, chunk) = env();
    let g = &ds.graph;
    let rep =
        AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(chunk)).run(g, &Bfs::new(0));
    let json = rep.summary_json();
    ascetic::obs::json::validate(&json).expect("summary_json is valid JSON");
    assert!(json.contains("\"metrics\":"));
    assert!(json.contains(&format!("\"sim_time_ns\":{}", rep.sim_time_ns)));
    let csv = rep.summary_csv();
    assert!(csv.starts_with(&RunReport::summary_csv_header()));
    assert_eq!(csv.lines().count(), 2);
}
