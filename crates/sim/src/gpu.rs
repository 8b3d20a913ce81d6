//! The assembled simulated GPU.
//!
//! [`Gpu`] bundles the arena, the timeline and the telemetry registry — the
//! one place a transfer or a kernel is counted — behind the operations
//! every system needs:
//!
//! * `h2d_at` / `h2d_fill_at` — copy host words into a device allocation,
//!   charging the PCIe model on the COPY engine,
//! * `kernel_at` — charge a kernel of given edge/vertex work on the COMPUTE
//!   engine,
//! * `gather_at` — charge a host-side gather on the CPU engine,
//! * `alloc` — arena management (a bump allocator: nothing is freed).
//!
//! Systems pass every operation an explicit ready-time to express
//! dependency structure (and hence overlap); a ready-time of
//! [`Gpu::elapsed`] chains after "everything so far" (a full barrier),
//! which is how the non-overlapping baselines behave.

use crate::device::{DeviceConfig, KernelModel};
use crate::memory::{DevPtr, DeviceMemory, OutOfDeviceMemory};
use crate::time::SimTime;
use crate::timeline::{CopyStream, Engine, Span, Timeline};
use ascetic_obs::{Event, Obs, DEFAULT_EVENT_CAPACITY};

/// A simulated GPU with its host-side engines.
///
/// ```
/// use ascetic_sim::{DeviceConfig, Gpu, SimTime};
/// let mut gpu = Gpu::new(DeviceConfig::p100(1 << 20));
/// let buf = gpu.alloc(4).unwrap();
/// // a kernel and a copy issued with the same ready-time overlap
/// let k = gpu.kernel_at(1_000_000, 0, SimTime::ZERO);
/// let c = gpu.h2d_at(buf, &[1, 2, 3, 4], SimTime::ZERO);
/// assert_eq!(k.start, c.start);
/// assert_eq!(gpu.mem.words(buf), &[1, 2, 3, 4]); // data really moved
/// assert_eq!(gpu.obs.registry.counter("xfer.h2d_bytes"), Some(16)); // and was accounted
/// ```
pub struct Gpu {
    /// Static configuration / cost models.
    pub config: DeviceConfig,
    /// Device-memory arena.
    pub mem: DeviceMemory,
    /// Engine timeline.
    pub timeline: Timeline,
    /// Telemetry bundle: the live metric registry — where every transfer
    /// and kernel is counted, once — plus an optional event log (armed by
    /// [`Gpu::armed`]; off by default).
    pub obs: Obs,
    /// Lazily-minted second copy stream for speculative transfers.
    prefetch_stream: Option<CopyStream>,
}

/// What the bytes of a transfer *are*. [`Gpu::ship_at`] reads the stream,
/// the span labels and the counters off the class, so a caller never books
/// a byte or touches the copy engine itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Xfer {
    /// An on-demand payload (a gather batch, or any plain H2D copy).
    OnDemand {
        /// Bytes riding the same DMA op — the batch's subgraph index:
        /// booked raw, not timed.
        rider: u64,
    },
    /// A speculative refresh on the prefetch stream. Always raw: decoding
    /// would steal the compute engine the pipeline is trying to keep busy.
    Prefetch {
        /// The chunk shipped.
        chunk: u64,
    },
    /// The bulk static-region fill (reported as prestore).
    Prestore,
    /// A mutation batch's delta stream.
    MutationDelta,
    /// A cross-device frontier exchange: the interconnect fixed the window
    /// the copy engine is held for.
    FleetExchange {
        /// Fleet round the exchange closes.
        round: u32,
        /// The window's length, ns.
        dur_ns: u64,
    },
    /// A UVM iteration's page migrations, stalling the faulting kernel.
    UvmMigration {
        /// Page faults serviced (one DMA each).
        faults: u64,
        /// Total fault-servicing stall, ns.
        stall_ns: u64,
    },
}

impl Xfer {
    /// What the class's span labels open with.
    fn stem(self) -> &'static str {
        match self {
            Xfer::OnDemand { .. } => "H2D",
            Xfer::Prefetch { .. } => "prefetch",
            Xfer::Prestore => "prestore",
            Xfer::MutationDelta => "mutation delta",
            Xfer::FleetExchange { .. } => "frontier exchange",
            Xfer::UvmMigration { .. } => "UVM fault stalls",
        }
    }
}

impl Gpu {
    /// A fresh device armed as a run asked: span tracing on the timeline
    /// when `tracing`, a [`DEFAULT_EVENT_CAPACITY`] event log when
    /// `events`. Both stay armed when a report takes what they recorded.
    pub fn armed(config: DeviceConfig, tracing: bool, events: bool) -> Self {
        let mut g = Self::new(config);
        if tracing {
            g.timeline.enable_tracing();
        }
        if events {
            g.obs.enable_events(DEFAULT_EVENT_CAPACITY);
        }
        g
    }

    /// A fresh device with the given configuration.
    pub fn new(config: DeviceConfig) -> Self {
        Gpu {
            mem: DeviceMemory::new(config.mem_words()),
            timeline: Timeline::new(),
            obs: Obs::new(),
            prefetch_stream: None,
            config,
        }
    }

    /// The dedicated prefetch copy stream, minted on first use. Operations
    /// issued through it ([`Xfer::Prefetch`]) queue FIFO among themselves
    /// but share the one physical link with the default stream (see
    /// [`crate::timeline::CopyStream`]).
    pub fn stream(&mut self) -> CopyStream {
        match self.prefetch_stream {
            Some(s) => s,
            None => {
                let s = self.timeline.add_copy_stream();
                self.prefetch_stream = Some(s);
                s
            }
        }
    }

    /// The one link-charge site: schedule a transfer of `bytes` of payload
    /// ready at `ready` and book it. `wire = None` ships the bytes as they
    /// are; `Some(wire)` ships the encoded form and chains the
    /// decompression launch on the compute engine. What the bytes *are* —
    /// `class` — decides the stream, the span labels and the counters
    /// (`DESIGN.md` §21 has the table); the data plane is the caller's.
    /// Returns the `(copy, decompress)` spans — the second empty at
    /// `copy.end` for a raw transfer — so the payload is usable at
    /// `decompress.end` either way.
    pub fn ship_at(
        &mut self,
        class: Xfer,
        bytes: u64,
        wire: Option<u64>,
        ready: SimTime,
    ) -> (Span, Span) {
        let on_link = wire.unwrap_or(bytes);
        let stem = class.stem();
        let label = || match (class, wire) {
            (Xfer::Prefetch { chunk }, _) => format!("{stem} chunk {chunk} ({bytes}B)"),
            (Xfer::FleetExchange { round, .. }, _) => format!("{stem} {bytes}B (round {round})"),
            (Xfer::UvmMigration { stall_ns, .. }, _) => format!("{stem} {stall_ns}ns"),
            (_, Some(wire)) => format!("{stem} {wire}B (compressed, {bytes}B raw)"),
            (_, None) => format!("{stem} {bytes}B"),
        };
        let link_ns = self.config.pcie.transfer_ns(on_link);
        let copy = match class {
            Xfer::Prefetch { .. } => {
                let stream = self.stream();
                self.timeline.schedule_copy(stream, ready, link_ns, label)
            }
            Xfer::FleetExchange { dur_ns, .. } => {
                self.timeline
                    .schedule_labeled(Engine::Copy, ready, dur_ns, label)
            }
            // a faulting kernel stalls: the migrations' time is charged on
            // the compute engine, not the link
            Xfer::UvmMigration { stall_ns, .. } => {
                self.timeline
                    .schedule_labeled(Engine::Compute, ready, stall_ns, label)
            }
            _ => self
                .timeline
                .schedule_labeled(Engine::Copy, ready, link_ns, label),
        };
        let decode = if wire.is_some() {
            let dec_ns = self.config.decompress.decompress_ns(bytes);
            // only the on-demand chain's launch is its own category; the
            // prestore's decode renders as the kernel it stands in for
            // (pinned by the trace goldens)
            let on_demand = matches!(class, Xfer::OnDemand { .. });
            let cat = if on_demand { "decode" } else { "kernel" };
            self.timeline
                .schedule_as(Engine::Compute, cat, copy.end, dec_ns, || {
                    if on_demand {
                        format!("decompress {bytes}B")
                    } else {
                        format!("{stem} decompress {bytes}B")
                    }
                })
        } else {
            Span {
                start: copy.end,
                end: copy.end,
            }
        };

        // What this class of byte feeds: the steady `xfer.*` columns
        // (payload, link, ops) when it is steady traffic, and its own
        // counters and histograms.
        let reg = &mut self.obs.registry;
        let steady = match class {
            Xfer::OnDemand { rider } => {
                reg.observe("h2d.op_bytes", bytes);
                if let Some(wire) = wire {
                    reg.observe("h2d.op_wire_bytes", wire);
                }
                Some((bytes + rider, on_link + rider, 1))
            }
            Xfer::Prefetch { .. } => {
                reg.counter_add("prefetch.bytes", bytes);
                reg.counter_add("prefetch.ops", 1);
                reg.observe("h2d.op_bytes", bytes);
                Some((bytes, bytes, 1))
            }
            // prestore traffic rides its own report lines
            Xfer::Prestore => {
                reg.counter_add("prestore.bytes", bytes);
                reg.counter_add("prestore.wire_bytes", on_link);
                None
            }
            Xfer::MutationDelta => Some((bytes, bytes, 1)),
            Xfer::FleetExchange { .. } => None,
            // fault-ordered page migrations are not link-rate DMAs (their
            // time is the stall above), but every migrated byte crossed the
            // link raw: payload = wire, one op per fault
            Xfer::UvmMigration { faults, .. } => Some((bytes, bytes, faults)),
        };
        if let Some((payload, link, ops)) = steady {
            reg.counter_add("xfer.h2d_bytes", payload);
            reg.counter_add("xfer.h2d_wire_bytes", link);
            reg.counter_add("xfer.h2d_ops", ops);
        }
        (copy, decode)
    }

    /// Allocate device words, advancing the allocator high-water telemetry
    /// when the peak rises.
    pub fn alloc(&mut self, words: usize) -> Result<DevPtr, OutOfDeviceMemory> {
        let before = self.mem.high_water();
        let ptr = self.mem.alloc(words)?;
        if self.mem.high_water() > before {
            let bytes = self.mem.high_water() as u64 * 4;
            self.obs.registry.gauge_max("mem.high_water_bytes", bytes);
            let now = self.timeline.now().0;
            self.obs.record(now, Event::HighWater { bytes });
        }
        Ok(ptr)
    }

    /// H2D copy of `src` into `dst`, ready at `ready`. Copies the payload
    /// and charges `pcie.transfer_ns` on the COPY engine.
    pub fn h2d_at(&mut self, dst: DevPtr, src: &[u32], ready: SimTime) -> Span {
        self.h2d_fill_at(dst, 0, ready, |window| window.copy_from_slice(src))
    }

    /// [`Gpu::h2d_at`] for a payload produced in place: `fill` writes the
    /// whole of `dst`'s device window (the on-demand gather copies rows
    /// from the host CSR straight into it, with no staging buffer), and
    /// the transfer is charged exactly as if those words had been copied
    /// from a host slice — same bytes, op count and span. The data
    /// plane may take the shortcut; the charge never does. `rider` bytes
    /// (a gather batch's subgraph index) ride the same DMA op: booked raw,
    /// not timed.
    pub fn h2d_fill_at(
        &mut self,
        dst: DevPtr,
        rider: u64,
        ready: SimTime,
        fill: impl FnOnce(&mut [u32]),
    ) -> Span {
        fill(self.mem.words_mut(dst));
        let class = Xfer::OnDemand { rider };
        self.ship_at(class, dst.len_bytes(), None, ready).0
    }

    /// Compressed H2D copy: ship `encoded` over the link, then decode on
    /// the compute engine — `decode` writes the decoded words over the
    /// whole of `dst`'s window. Returns `(copy, decompress)` spans; the
    /// payload is usable at `decompress.end`.
    ///
    /// The encoded bytes really land in `dst`'s word window first (a true
    /// byte copy of the wire payload), then the decoded words overwrite
    /// them — modelling an in-place decompression kernel. Only the encoded
    /// size is charged on the COPY engine; the decode cost is charged on
    /// the COMPUTE engine starting when the copy completes. `rider` as in
    /// [`Gpu::h2d_fill_at`].
    pub fn h2d_compressed_at(
        &mut self,
        dst: DevPtr,
        encoded: &[u8],
        rider: u64,
        ready: SimTime,
        decode: impl FnOnce(&mut [u32]),
    ) -> (Span, Span) {
        // Land the encoded stream in the destination window. The wire-form
        // rule ships a payload encoded only when that is shorter than raw,
        // so the stream fits the window it is decoded in.
        let window = self.mem.words_mut(dst);
        debug_assert!(encoded.len() as u64 <= dst.len_bytes());
        for (w, chunk) in window.iter_mut().zip(encoded.chunks(4)) {
            let mut b = [0u8; 4];
            b[..chunk.len()].copy_from_slice(chunk);
            *w = u32::from_le_bytes(b);
        }
        decode(window);
        let (class, wire) = (Xfer::OnDemand { rider }, encoded.len() as u64);
        self.ship_at(class, dst.len_bytes(), Some(wire), ready)
    }

    /// Charge a kernel of `edges`/`vertices` work on the COMPUTE engine,
    /// ready at `ready`. The caller runs the actual computation on host
    /// threads; this records its simulated cost.
    pub fn kernel_at(&mut self, edges: u64, vertices: u64, ready: SimTime) -> Span {
        self.charge_kernel(self.config.kernel, "", edges, vertices, ready)
    }

    /// Charge a pull-direction (gather) kernel of `edges`/`vertices` work
    /// on the COMPUTE engine, ready at `ready`. Identical accounting to
    /// [`Gpu::kernel_at`] but costed with the pull kernel model — gather
    /// kernels pay more per in-edge for their scattered parent reads.
    pub fn pull_kernel_at(&mut self, edges: u64, vertices: u64, ready: SimTime) -> Span {
        self.charge_kernel(self.config.pull_kernel, "pull ", edges, vertices, ready)
    }

    fn charge_kernel(
        &mut self,
        model: KernelModel,
        pull: &str,
        edges: u64,
        vertices: u64,
        ready: SimTime,
    ) -> Span {
        let dur = model.kernel_ns(edges, vertices);
        let reg = &mut self.obs.registry;
        reg.counter_add("kernel.launches", 1);
        reg.counter_add("kernel.edges", edges);
        reg.counter_add("kernel.vertices", vertices);
        reg.counter_add("kernel.time_ns", dur);
        reg.observe("kernel.ns", dur);
        self.timeline
            .schedule_labeled(Engine::Compute, ready, dur, || {
                format!("{pull}kernel e={edges} v={vertices}")
            })
    }

    /// Charge a host gather of `bytes` over `vertices` adjacency lists on
    /// the CPU engine, ready at `ready`.
    pub fn gather_at(&mut self, bytes: u64, vertices: u64, ready: SimTime) -> Span {
        let dur = self.config.gather.gather_ns(bytes, vertices);
        self.obs.registry.observe("gather.ns", dur);
        self.timeline.schedule_labeled(Engine::Cpu, ready, dur, || {
            format!("gather {bytes}B / {vertices} vertices")
        })
    }

    /// End-of-iteration barrier; returns the iteration finish time.
    pub fn sync(&mut self) -> SimTime {
        self.timeline.sync_all()
    }

    /// Total simulated run time so far.
    pub fn elapsed(&self) -> SimTime {
        self.timeline.now()
    }

    /// Snapshot of the device arena's occupancy in bytes.
    pub fn occupancy(&self) -> crate::memory::ArenaOccupancy {
        self.mem.occupancy()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_gpu() -> Gpu {
        Gpu::new(DeviceConfig::p100(4096)) // 1024 words
    }

    /// What the device has counted under `name` so far.
    fn counted(g: &Gpu, name: &str) -> u64 {
        g.obs.registry.counter(name).unwrap_or(0)
    }

    #[test]
    fn h2d_moves_real_data_and_charges_time() {
        let mut g = small_gpu();
        let p = g.alloc(4).unwrap();
        let s = g.h2d_at(p, &[7, 8, 9, 10], g.elapsed());
        assert_eq!(g.mem.words(p), &[7, 8, 9, 10]);
        assert_eq!(counted(&g, "xfer.h2d_bytes"), 16);
        assert_eq!(counted(&g, "xfer.h2d_ops"), 1);
        assert!(s.duration() >= g.config.pcie.latency_ns);
    }

    #[test]
    fn h2d_fill_charges_exactly_like_a_slice_copy() {
        let (mut a, mut b) = (small_gpu(), small_gpu());
        let (pa, pb) = (a.alloc(4).unwrap(), b.alloc(4).unwrap());
        let sa = a.h2d_at(pa, &[7, 8, 9, 10], SimTime(5));
        let sb = b.h2d_fill_at(pb, 0, SimTime(5), |w| w.copy_from_slice(&[7, 8, 9, 10]));
        assert_eq!(sa, sb);
        assert_eq!(a.mem.words(pa), b.mem.words(pb));
        assert_eq!(a.obs.registry.snapshot(), b.obs.registry.snapshot());
    }

    #[test]
    fn kernel_accounting() {
        let mut g = small_gpu();
        let s = g.kernel_at(1000, 10, SimTime::ZERO);
        assert_eq!(counted(&g, "kernel.launches"), 1);
        assert_eq!(counted(&g, "kernel.edges"), 1000);
        assert_eq!(counted(&g, "kernel.time_ns"), s.duration());
    }

    #[test]
    fn pull_kernel_accounting_uses_its_own_model() {
        let mut g = small_gpu();
        let s = g.pull_kernel_at(1000, 10, SimTime::ZERO);
        assert_eq!(counted(&g, "kernel.launches"), 1);
        assert_eq!(counted(&g, "kernel.edges"), 1000);
        assert_eq!(counted(&g, "kernel.time_ns"), s.duration());
        assert_eq!(s.duration(), g.config.pull_kernel.kernel_ns(1000, 10));
        assert!(s.duration() > g.config.kernel.kernel_ns(1000, 10));
    }

    #[test]
    fn copy_compute_overlap() {
        let mut g = small_gpu();
        let p = g.alloc(1000).unwrap();
        let data = vec![0u32; 1000];
        // Issue a kernel and a copy with the same ready time: they overlap.
        let k = g.kernel_at(10_000_000, 0, SimTime::ZERO); // ~2.5 ms
        let c = g.h2d_at(p, &data, SimTime::ZERO);
        assert_eq!(k.start, c.start);
        assert_eq!(g.elapsed(), k.end.max(c.end));
        assert!(g.elapsed() < SimTime(k.duration() + c.duration()));
    }

    #[test]
    fn sequential_dependencies_serialize() {
        let mut g = small_gpu();
        let p = g.alloc(256).unwrap();
        let data = vec![1u32; 256];
        let gth = g.gather_at(1024, 256, SimTime::ZERO);
        let cp = g.h2d_at(p, &data, gth.end);
        let k = g.kernel_at(256, 256, cp.end);
        assert!(gth.end <= cp.start);
        assert!(cp.end <= k.start);
        let idle = g.timeline.idle_ns(Engine::Compute);
        assert_eq!(idle, g.elapsed().0 - k.duration());
    }

    #[test]
    fn obs_histograms_track_xfer_counters() {
        let mut g = small_gpu();
        let p = g.alloc(8).unwrap();
        g.h2d_at(p, &[0; 8], g.elapsed());
        g.h2d_at(p, &[1; 8], g.elapsed());
        let snap = g.obs.registry.snapshot();
        let h2d = snap.histogram("h2d.op_bytes").unwrap();
        assert_eq!(h2d.count(), counted(&g, "xfer.h2d_ops"));
        assert_eq!(h2d.sum(), counted(&g, "xfer.h2d_bytes"));
    }

    #[test]
    fn compressed_h2d_charges_wire_bytes_and_decompress_time() {
        let mut g = small_gpu();
        let p = g.alloc(8).unwrap();
        let decoded = [1u32, 2, 3, 4, 5, 6, 7, 8]; // 32 raw bytes
        let encoded = [9u8; 10]; // 10 wire bytes
        let (copy, dec) = g.h2d_compressed_at(p, &encoded, 0, SimTime::ZERO, |window| {
            // the wire bytes landed first, then the decoder overwrites them
            assert_eq!(window[0], u32::from_le_bytes([9; 4]));
            window.copy_from_slice(&decoded);
        });
        // payload accounting: logical bytes stay raw, wire bytes shrink
        assert_eq!(counted(&g, "xfer.h2d_bytes"), 32);
        assert_eq!(counted(&g, "xfer.h2d_wire_bytes"), 10);
        assert_eq!(counted(&g, "xfer.h2d_ops"), 1);
        // the link was charged for the encoded size only
        assert_eq!(copy.duration(), g.config.pcie.transfer_ns(10));
        // decompression runs on the compute engine after the copy
        assert_eq!(dec.duration(), g.config.decompress.decompress_ns(32));
        assert!(dec.start >= copy.end);
        // the decoded payload is what ends up in device memory
        assert_eq!(g.mem.words(p), &decoded);
    }

    #[test]
    fn compressed_h2d_mixes_with_raw_in_wire_totals() {
        let mut g = small_gpu();
        let p = g.alloc(8).unwrap();
        g.h2d_at(p, &[0; 8], g.elapsed()); // raw: 32 payload == 32 wire
        let t = g.elapsed();
        g.h2d_compressed_at(p, &[0; 12], 0, t, |window| window.fill(0));
        assert_eq!(counted(&g, "xfer.h2d_bytes"), 64);
        assert_eq!(counted(&g, "xfer.h2d_wire_bytes"), 44);
        // op_bytes histogram still tracks logical payload exactly
        let snap = g.obs.registry.snapshot();
        let h = snap.histogram("h2d.op_bytes").unwrap();
        assert_eq!(h.count(), counted(&g, "xfer.h2d_ops"));
        assert_eq!(h.sum(), counted(&g, "xfer.h2d_bytes"));
    }

    #[test]
    fn obs_events_record_high_water() {
        let mut g = small_gpu();
        g.obs.enable_events(64);
        let p = g.alloc(8).unwrap();
        g.h2d_at(p, &[0; 8], g.elapsed());
        let events = g.obs.events().unwrap();
        let kinds: Vec<&str> = events.iter().map(|e| e.event.kind()).collect();
        assert_eq!(kinds, ["high_water"], "a copy is a span, not an event");
        assert_eq!(
            g.obs.registry.snapshot().gauge("mem.high_water_bytes"),
            Some(32)
        );
    }

    #[test]
    fn obs_events_off_by_default() {
        let mut g = small_gpu();
        let p = g.alloc(8).unwrap();
        g.h2d_at(p, &[0; 8], g.elapsed());
        assert!(g.obs.events().is_none());
    }

    #[test]
    fn prefetch_dma_accounts_on_the_second_stream() {
        let mut g = small_gpu();
        let s1 = g.stream();
        assert_eq!(g.stream(), s1, "stream is minted once");
        let (span, _) = g.ship_at(Xfer::Prefetch { chunk: 3 }, 4096, None, SimTime::ZERO);
        assert_eq!(span.duration(), g.config.pcie.transfer_ns(4096));
        assert_eq!(counted(&g, "xfer.h2d_bytes"), 4096);
        assert_eq!(counted(&g, "xfer.h2d_wire_bytes"), 4096);
        assert_eq!(counted(&g, "prefetch.bytes"), 4096);
        assert_eq!(counted(&g, "xfer.h2d_ops"), 1);
        assert_eq!(g.timeline.stream_busy_ns(s1), span.duration());
    }

    #[test]
    fn prefetch_shares_the_link_with_ondemand_copies() {
        let mut g = small_gpu();
        let p = g.alloc(256).unwrap();
        let c = g.h2d_at(p, &[0u32; 256], SimTime::ZERO);
        let (pf, _) = g.ship_at(Xfer::Prefetch { chunk: 0 }, 1024, None, SimTime::ZERO);
        assert_eq!(pf.start, c.end, "one wire: prefetch waits for the DMA");
        assert_eq!(
            counted(&g, "xfer.h2d_bytes") - counted(&g, "prefetch.bytes"),
            1024
        );
    }

    #[test]
    fn sync_sets_iteration_boundary() {
        let mut g = small_gpu();
        g.kernel_at(100, 0, SimTime::ZERO);
        let t = g.sync();
        let k2 = g.kernel_at(100, 0, SimTime::ZERO);
        assert!(k2.start >= t);
    }
}
