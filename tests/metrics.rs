//! Cross-crate observability invariants: every system's `RunReport` carries
//! the same canonical metric names (zeros included) beside whatever its
//! device counted, the scalars derived at report time are exported once,
//! and both the snapshot and the event stream are bit-deterministic. (The
//! report's scalar fields are *read off* the snapshot, so "field == metric"
//! holds by construction and is not asserted here.)

use ascetic::algos::{Bfs, PageRank};
use ascetic::baselines::{PtSystem, SubwaySystem, UvmSystem};
use ascetic::core::report::RunReport;
use ascetic::core::{AsceticConfig, AsceticSystem, OutOfCoreSystem};
use ascetic::graph::datasets::{Dataset, DatasetId, PAPER_GPU_MEM_BYTES};
use ascetic::obs::json::{self, Value};
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
    let cfg = AsceticConfig::new(dev).with_chunk_bytes(chunk);
    let a = AsceticSystem::new(cfg).run(g, &PageRank::new());
    let b = AsceticSystem::new(cfg).run(g, &PageRank::new());
    assert_eq!(a.metrics.to_json(), b.metrics.to_json());
    let (ea, eb) = (a.events, b.events);
    assert_eq!(ea.events(), eb.events());
    assert!(!ea.is_empty(), "an Ascetic run must produce events");
    assert_eq!(ea.dropped(), 0, "capacity must cover a small run");
}

/// The event log holds what no span states: whatever a system records,
/// every retained event is one of these kinds.
const EVENT_KINDS: [&str; 4] = ["repartition", "high_water", "uvm_fault", "uvm_evict"];

#[test]
fn event_stream_is_clock_ordered_and_valid_json() {
    let (ds, dev, chunk) = env();
    let g = &ds.graph;
    let ascetic =
        AsceticSystem::new(AsceticConfig::new(dev).with_chunk_bytes(chunk)).run(g, &Bfs::new(0));
    let uvm = UvmSystem::new(dev).run(g, &Bfs::new(0));
    for rep in [ascetic, uvm] {
        let sys = rep.system;
        let summary = json::parse(&rep.summary_json()).expect("summary_json parses");
        let Some(Value::Arr(written)) = summary.get("events") else {
            panic!("{sys}: the summary has no events array");
        };
        let events = rep.events;
        assert!(!events.is_empty(), "{sys}");
        assert_eq!(written.len(), events.len(), "{sys}");
        for (w, e) in written.iter().zip(events.iter()) {
            assert_eq!(
                w.get("t_ns").and_then(Value::as_u64),
                Some(e.t_ns),
                "{sys}: {w}"
            );
            assert_eq!(
                w.get("kind").and_then(Value::as_str),
                Some(e.event.kind()),
                "{sys}: {w}"
            );
        }
        // Virtual-clock stamps are ordered and never exceed the makespan.
        let stamps: Vec<u64> = events.iter().map(|e| e.t_ns).collect();
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]), "{sys}");
        assert!(stamps.iter().all(|&t| t <= rep.sim_time_ns), "{sys}");
        for e in events.iter() {
            assert!(EVENT_KINDS.contains(&e.event.kind()), "{sys}: {e:?}");
        }
    }
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
}
