//! Multi-device sharded execution.
//!
//! One [`AsceticSession`] drives one simulated device. This module runs a
//! single algorithm across N devices: the graph is edge-balanced into
//! shards ([`ascetic_graph::partition::partition_even_edges`]), each device
//! owns one shard as a masked CSR in the *global* vertex-id space, and the
//! round loop — the shared [`ops::Drive`], whose body steps every shard's
//! `AsceticSession::step_iteration` — follows each closed round with a
//! cross-device **frontier exchange** arbitrated by the [`Interconnect`]:
//!
//! * **owner-computes** — a vertex's full out-edge list lives in exactly
//!   one shard, so each device processes `active ∧ owned` and the union of
//!   shard steps performs exactly the single-device iteration's updates.
//!   Vertex state (distances, labels, residuals) is replicated; because
//!   every push update is commutative, the final output is byte-identical
//!   to the single-device run, regardless of device count or host
//!   threading.
//! * **frontier exchange** — at the iteration boundary device `i` ships
//!   its owned slice of the freshly-written next frontier to every peer
//!   ([`ascetic_algos::Capabilities::payload_bytes`] per vertex), over NVLink
//!   peer links when the fabric has them or staged through host memory
//!   otherwise. The round then closes with a BSP barrier at the last
//!   transfer's end, stamped onto every device timeline so per-device
//!   traces stay aligned. The exchange reads the frontier `Drive::end`
//!   just closed: at a phase boundary that is empty, nothing ships, and
//!   the barrier still runs.
//!
//! Everything the paper gives one device — static region, wire-size cache,
//! compression crossover, cross-iteration prefetch — runs per-device,
//! unchanged, over that device's shard.

use ascetic_algos::ops::{self, NextFrontier};
use ascetic_algos::{AlgoOutput, VertexProgram};
use ascetic_graph::partition::{partition_even_edges, shard_csr};
use ascetic_graph::Csr;
use ascetic_obs::Trace;
use ascetic_par::Bitmap;
use ascetic_sim::{Interconnect, InterconnectConfig, InterconnectStats};

use crate::config::AsceticConfig;
use crate::report::RunReport;
use crate::session::AsceticSession;

/// How a [`run_fleet`] call maps onto devices and wires.
#[derive(Clone, Copy, Debug)]
pub struct FleetConfig {
    /// Devices requested. The partitioner may produce fewer shards than
    /// this on tiny graphs; surplus devices then idle.
    pub devices: usize,
    /// Fabric joining the devices.
    pub interconnect: InterconnectConfig,
}

impl FleetConfig {
    /// `devices` devices on the default (PCIe-staged) fabric.
    pub fn pcie(devices: usize) -> Self {
        FleetConfig {
            devices,
            interconnect: InterconnectConfig::pcie(),
        }
    }

    /// `devices` devices joined by NVLink-class peer links.
    pub fn nvlink(devices: usize) -> Self {
        FleetConfig {
            devices,
            interconnect: InterconnectConfig::nvlink(),
        }
    }
}

/// Result of a sharded run: the single-device-identical output plus the
/// fleet-level timing and exchange accounting, and every device's own
/// [`RunReport`].
#[derive(Clone, Debug)]
pub struct FleetRunReport {
    /// Devices that actually held a shard (≤ the requested count).
    pub devices: usize,
    /// Rounds until the global frontier drained.
    pub iterations: u32,
    /// Fleet makespan: the last device's clock when its report closed,
    /// ns. All devices share the BSP barrier, so this is also every
    /// active device's final clock.
    pub makespan_ns: u64,
    /// Frontier-exchange payload shipped between devices, bytes.
    pub exchange_bytes: u64,
    /// Interconnect counters (peer vs host-staged split).
    pub interconnect: InterconnectStats,
    /// Final output — byte-identical to the single-device run.
    pub output: AlgoOutput,
    /// Per-device run reports (prestore, transfers, prefetch, breakdown).
    pub per_device: Vec<RunReport>,
    /// Merged span trace with per-device `dev{i}/…` tracks, when the
    /// config had tracing enabled.
    pub span_trace: Option<Trace>,
}

impl FleetRunReport {
    fn from_single(report: RunReport) -> FleetRunReport {
        FleetRunReport {
            devices: 1,
            iterations: report.iterations,
            makespan_ns: report.sim_time_ns,
            exchange_bytes: 0,
            interconnect: InterconnectStats::default(),
            output: report.output.clone(),
            span_trace: report.span_trace.clone(),
            per_device: vec![report],
        }
    }
}

/// Run `prog` over `g` sharded across `fleet.devices` devices, each
/// configured by `cfg`. With one device this is exactly
/// [`AsceticSession::run`] — same clocks, same counters — and with N it
/// is the owner-computes round loop described at the module level.
pub fn run_fleet<P: VertexProgram>(
    cfg: AsceticConfig,
    fleet: FleetConfig,
    g: &Csr,
    prog: &P,
) -> FleetRunReport {
    assert!(fleet.devices > 0, "a fleet needs at least one device");
    assert_eq!(
        g.is_weighted(),
        prog.capabilities().weights,
        "graph weighting must match the program"
    );
    let shards = partition_even_edges(g, fleet.devices);
    if fleet.devices == 1 || shards.len() == 1 {
        let report = AsceticSession::new(cfg, g).run(prog);
        return FleetRunReport::from_single(report);
    }

    let n = g.num_vertices();
    let shard_graphs: Vec<Csr> = shards.iter().map(|p| shard_csr(g, p)).collect();
    let owned: Vec<Bitmap> = shards
        .iter()
        .map(|p| {
            let mut b = Bitmap::new(n);
            for v in p.vertices.clone() {
                b.set(v as usize);
            }
            b
        })
        .collect();
    let mut sessions: Vec<AsceticSession> = shard_graphs
        .iter()
        .map(|sg| AsceticSession::new(cfg, sg))
        .collect();
    let mut ctxs: Vec<_> = sessions.iter_mut().map(|s| s.begin_run()).collect();
    let mut ic = Interconnect::new(fleet.interconnect, sessions.len());
    let payload = prog.capabilities().payload_bytes;

    // Shared replicated vertex state, initialized from the full graph so
    // global facts (PR degrees, initial residuals) are correct on every
    // device.
    let state = prog.new_state(g);
    let mut active = prog.initial_frontier(g);
    let mut next = NextFrontier::new(n);
    let mut exchange_bytes = 0u64;
    // State is replicated, so the driver loop — compute, the multi-phase
    // handshake — runs once on the global view, and a later phase's
    // frontier shards exactly like the initial one.
    let mut drive = ops::Drive::new(prog, g, &state);
    while let Some(round) = drive.begin(&mut active) {
        // Owner-computes: every shard steps every round (a device with an
        // empty local frontier still opens/closes its iteration span) so
        // per-device iteration counts and the BSP barrier stay aligned.
        for (s, session) in sessions.iter_mut().enumerate() {
            let local = active.and(&owned[s]);
            session.step_iteration(prog, &mut ctxs[s], &local, &state, &mut next);
        }
        // (`active` is empty at a phase boundary: nothing ships below, the
        // barrier still runs)
        drive.end(&mut active, &mut next);

        // Frontier exchange: device i broadcasts its owned slice of the
        // next frontier to every peer. Sends issue in (src, dst) order on
        // the fabric; the round closes at the last delivery.
        let ready: Vec<u64> = sessions.iter_mut().map(|s| s.clock_ns()).collect();
        let bytes: Vec<u64> = owned
            .iter()
            .map(|o| active.and(o).count_ones() as u64 * payload)
            .collect();
        let mut windows: Vec<Option<(u64, u64)>> = vec![None; sessions.len()];
        let mut barrier = ready.iter().copied().max().unwrap_or(0);
        for src in 0..sessions.len() {
            for dst in 0..sessions.len() {
                if src == dst || bytes[src] == 0 {
                    continue;
                }
                let (start, end) = ic.transfer(src, dst, bytes[src], ready[src]);
                let w = windows[src].get_or_insert((start, end));
                w.0 = w.0.min(start);
                w.1 = w.1.max(end);
                barrier = barrier.max(end);
            }
        }
        for (s, session) in sessions.iter_mut().enumerate() {
            let sent = bytes[s] * (windows.len() as u64 - 1);
            let window = windows[s].unwrap_or((ready[s], ready[s]));
            session.fleet_exchange(round, sent, window, barrier);
            exchange_bytes += sent;
        }
    }

    let per_device: Vec<RunReport> = sessions
        .iter_mut()
        .zip(ctxs)
        .map(|(s, ctx)| s.finish_run(prog, &state, ctx))
        .collect();
    let makespan_ns = per_device.iter().map(|r| r.sim_time_ns).max().unwrap_or(0);
    let span_trace = if cfg.tracing {
        let mut merged = Trace::default();
        for (i, r) in per_device.iter().enumerate() {
            if let Some(t) = &r.span_trace {
                merged.merge_prefixed(t, &format!("dev{i}/"));
            }
        }
        Some(merged)
    } else {
        None
    };
    FleetRunReport {
        devices: per_device.len(),
        iterations: drive.iterations(),
        makespan_ns,
        exchange_bytes,
        interconnect: ic.stats(),
        output: prog.output(&state),
        per_device,
        span_trace,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_algos::inmemory::run_in_memory;
    use ascetic_algos::{Bfs, Cc, PageRank, Sssp};
    use ascetic_graph::generators::{uniform_graph, web_graph, WebConfig};
    use ascetic_sim::DeviceConfig;

    fn cfg_for(g: &Csr) -> AsceticConfig {
        let dev = DeviceConfig::p100(g.num_vertices() as u64 * 24 + g.edge_bytes() * 2 / 5);
        AsceticConfig::new(dev).with_chunk_bytes(1024)
    }

    #[test]
    fn fleet_outputs_match_single_device_for_every_algorithm() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 7));
        let wg = {
            use ascetic_graph::datasets::{Dataset, DatasetId};
            Dataset::build(DatasetId::Fk, 6_000).weighted()
        };
        for devices in [2, 4] {
            for fleet in [FleetConfig::pcie(devices), FleetConfig::nvlink(devices)] {
                let solo = AsceticSession::new(cfg_for(&g), &g).run(&Bfs::new(0));
                let r = run_fleet(cfg_for(&g), fleet, &g, &Bfs::new(0));
                assert_eq!(r.output, solo.output, "BFS @ {devices} devices");
                assert_eq!(r.output, run_in_memory(&g, &Bfs::new(0)).output);
                assert_eq!(r.devices, devices);
                assert!(r.exchange_bytes > 0, "multi-hop BFS must exchange");
                assert_eq!(r.interconnect.total_bytes(), r.exchange_bytes);

                let cc = run_fleet(cfg_for(&g), fleet, &g, &Cc::new());
                assert_eq!(cc.output, run_in_memory(&g, &Cc::new()).output);
                let pr = run_fleet(cfg_for(&g), fleet, &g, &PageRank::new());
                assert_eq!(pr.output, run_in_memory(&g, &PageRank::new()).output);
                let sssp = run_fleet(cfg_for(&wg), fleet, &wg, &Sssp::new(0));
                assert_eq!(sssp.output, run_in_memory(&wg, &Sssp::new(0)).output);
            }
        }
    }

    #[test]
    fn one_device_fleet_is_exactly_the_session_run() {
        let g = uniform_graph(2_000, 16_000, false, 40);
        let solo = AsceticSession::new(cfg_for(&g), &g).run(&PageRank::new());
        let r = run_fleet(cfg_for(&g), FleetConfig::pcie(1), &g, &PageRank::new());
        assert_eq!(r.devices, 1);
        assert_eq!(r.output, solo.output);
        assert_eq!(r.makespan_ns, solo.sim_time_ns);
        assert_eq!(r.per_device[0].xfer, solo.xfer);
        assert_eq!(r.exchange_bytes, 0);
    }

    #[test]
    fn fleet_runs_are_deterministic_and_barrier_aligned() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 7));
        let run = || run_fleet(cfg_for(&g), FleetConfig::nvlink(4), &g, &Bfs::new(0));
        let a = run();
        let b = run();
        assert_eq!(a.makespan_ns, b.makespan_ns);
        assert_eq!(a.exchange_bytes, b.exchange_bytes);
        assert_eq!(a.output, b.output);
        // the BSP barrier aligns every active device's final clock
        for r in &a.per_device {
            assert_eq!(r.sim_time_ns, a.makespan_ns);
            assert_eq!(r.iterations, a.iterations);
        }
    }

    #[test]
    fn nvlink_never_loses_to_staging() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 7));
        let staged = run_fleet(cfg_for(&g), FleetConfig::pcie(4), &g, &Bfs::new(0));
        let peer = run_fleet(cfg_for(&g), FleetConfig::nvlink(4), &g, &Bfs::new(0));
        assert_eq!(staged.output, peer.output);
        assert!(peer.makespan_ns <= staged.makespan_ns);
        assert_eq!(staged.interconnect.peer_bytes, 0);
        assert_eq!(peer.interconnect.staged_bytes, 0);
    }

    #[test]
    fn fleet_trace_has_per_device_tracks() {
        let g = web_graph(&WebConfig::new(3_000, 40_000, 7));
        let cfg = cfg_for(&g).with_tracing(true);
        let r = run_fleet(cfg, FleetConfig::nvlink(2), &g, &Bfs::new(0));
        let trace = r.span_trace.as_ref().expect("tracing armed");
        for d in 0..2 {
            let t = trace
                .track_index(&format!("dev{d}/{}", crate::session::SESSION_TRACK))
                .unwrap_or_else(|| panic!("dev{d} session track missing"));
            assert!(trace.track_spans(t).count() > 0);
            assert!(
                trace
                    .track_spans(t)
                    .any(|s| s.name.starts_with("frontier exchange"))
                    || trace
                        .tracks()
                        .iter()
                        .any(|n| n.starts_with(&format!("dev{d}/"))),
            );
        }
        // exchange spans are stamped on each sending device's copy track
        assert!(
            trace
                .spans()
                .iter()
                .any(|s| s.name.starts_with("frontier exchange")),
            "exchange windows must appear in the merged trace"
        );
        assert!(trace.horizon_ns() <= r.makespan_ns);
    }
}
