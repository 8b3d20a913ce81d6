//! The compressed transfer path: the wire-form rule and its accounting.
//!
//! Every eligible H2D edge payload — on-demand gather batches and the
//! prestore fill (prefetches always ship raw) — can ship either raw 4-byte
//! targets or the delta–varint stream from
//! [`ascetic_graph::compress::encode_ranges`]. Encoding pays a
//! decompression kernel on the compute engine, so it only wins when the
//! decoded payload is there before the raw one could be used —
//! [`encoded_wins`], the one rule every transfer site asks (`DESIGN.md`
//! §21).
//!
//! Deciding needs the encoded size *before* encoding. The estimate comes
//! from per-chunk encoded sizes cached across iterations in the
//! [`HotnessTable`]: the first time a chunk is priced, its clipped vertex
//! ranges are really encoded (into a scratch-arena buffer) and the size is
//! cached; afterwards a transfer touching the chunk is priced at the
//! cached ratio. Everything here is integer math over deterministic
//! encodes, so the decisions — and hence the simulated timeline — are
//! bit-identical at every host thread count.
//!
//! [`ship_batch`] puts a gather batch on the link either way (Ascetic's
//! push and pull iterations, the Subway baseline); the `compress.*`
//! accounting lives here once.

use ascetic_graph::chunks::{ChunkGeometry, ChunkId};
use ascetic_graph::compress::{encode_ranges, EncodeEntry};
use ascetic_graph::Csr;
use ascetic_obs::Registry;
use ascetic_par::with_scratch;
use ascetic_sim::{DecompressModel, DevPtr, Engine, Gpu, PcieModel, SimTime};

use crate::config::CompressionMode;
use crate::hotness::HotnessTable;
use crate::ondemand::{Batch, GatherEntry};

/// The pure link crossover: copying the encoded bytes plus decoding them
/// beats copying raw. It is [`encoded_wins`] on a copy engine that is the
/// bottleneck — the compute engine frees up no later than the encoded copy
/// lands — and it is implied whenever the encoded chain finishes before
/// the raw copy would; no transfer site asks it directly.
#[inline]
pub fn compress_wins(pcie: &PcieModel, dec: &DecompressModel, raw: u64, wire: u64) -> bool {
    pcie.transfer_ns(wire) + dec.decompress_ns(raw) < pcie.transfer_ns(raw)
}

/// Where a transfer ready at `ready` would stand on each path, given the
/// current engine frontiers: when the encoded chain's decompression would
/// finish, when the raw copy would, and when the compute engine frees up.
fn chain_times(gpu: &Gpu, ready: SimTime, raw: u64, wire: u64) -> (u64, u64, u64) {
    let pcie = gpu.config.pcie;
    let copy_start = ready.max(gpu.timeline.engine_free_at(Engine::Copy)).0;
    let compute_free = gpu.timeline.engine_free_at(Engine::Compute).0;
    let decoded_at = (copy_start + pcie.transfer_ns(wire)).max(compute_free)
        + gpu.config.decompress.decompress_ns(raw);
    (decoded_at, copy_start + pcie.transfer_ns(raw), compute_free)
}

/// The one wire-form rule: ship encoded iff the decoded payload would be
/// on the device before the raw one could be used, given the current
/// engine frontiers. A payload a kernel waits on (a gather batch) is
/// usable no earlier than the compute engine frees up, so queueing the
/// decode behind a busy engine is free until then; a payload nothing waits
/// on (the prestore) must simply land first, or the decompression launch
/// could grow the critical path for no latency gain.
pub fn encoded_wins(gpu: &Gpu, ready: SimTime, raw: u64, wire: u64, kernel_waits: bool) -> bool {
    let (decoded_at, raw_at, compute_free) = chain_times(gpu, ready, raw, wire);
    let usable_raw = if kernel_waits {
        raw_at.max(compute_free)
    } else {
        raw_at
    };
    decoded_at < usable_raw
}

/// Whether `mode` lets `g`'s payloads ship encoded at all — resolved once
/// per session; an eligible transfer then ships encoded iff
/// [`encoded_wins`] says so. Weighted payloads interleave 4-byte weights
/// with targets and always ship raw: the delta–varint codec covers
/// unweighted adjacency only.
pub fn eligible(mode: CompressionMode, g: &Csr) -> bool {
    mode != CompressionMode::Off && !g.is_weighted()
}

/// Account one compression decision on an eligible payload of `raw`
/// bytes: shipped as `Some(wire)` encoded bytes, or declined.
fn count_decision(reg: &mut Registry, raw: u64, shipped: Option<u64>) {
    match shipped {
        Some(wire) => {
            reg.counter_add("compress.transfers", 1);
            reg.counter_add("compress.raw_bytes", raw);
            reg.counter_add("compress.wire_bytes", wire);
            reg.observe("compress.ratio_x100", raw * 100 / wire.max(1));
        }
        None => reg.counter_add("compress.declined", 1),
    }
}

/// Encoder buffers a run recycles across batches (zero steady-state
/// allocation once they reach their high-water capacity).
#[derive(Debug, Default)]
pub struct EncodeScratch {
    buf: Vec<u8>,
    entries: Vec<EncodeEntry>,
}

/// Ship one gather batch of `src` rows into `dst`, usable from `ready`:
/// the payload raw or encoded, plus its subgraph index (always raw, riding
/// the same DMA op). Returns `(transfer_ns, payload_at)` — the
/// link-plus-decode time charged and when a kernel may read `dst`.
///
/// When `encode` is set (the payload is [`eligible`]), given an `estimate`
/// of the encoded size, the wire-form rule is asked about it first and the
/// batch really encoded only if that looks promising; either way the rule
/// then sees the actual size — a bad estimate must not ship a loser.
#[allow(clippy::too_many_arguments)]
pub fn ship_batch(
    gpu: &mut Gpu,
    src: &Csr,
    batch: Batch<'_>,
    dst: DevPtr,
    ready: SimTime,
    encode: bool,
    scratch: &mut EncodeScratch,
    estimate: Option<impl FnOnce() -> u64>,
) -> (u64, SimTime) {
    let (raw, index) = (batch.payload_bytes(), batch.index_bytes());
    let gather_rows = |window: &mut [u32]| batch.gather_into(src, window);
    if encode && raw > 0 {
        if estimate.is_none_or(|est| encoded_wins(gpu, ready, raw, est(), true)) {
            scratch.entries.clear();
            scratch
                .entries
                .extend(batch.entries.iter().map(|e| (e.vertex, e.edges.clone())));
            scratch.buf.clear();
            let wire = encode_ranges(src, &scratch.entries, &mut scratch.buf) as u64;
            if encoded_wins(gpu, ready, raw, wire, true) {
                let (copy, dec) =
                    gpu.h2d_compressed_at(dst, &scratch.buf, index, ready, gather_rows);
                count_decision(&mut gpu.obs.registry, raw, Some(wire));
                return (copy.duration() + dec.duration(), dec.end);
            }
        }
        count_decision(&mut gpu.obs.registry, raw, None);
    }
    let span = gpu.h2d_fill_at(dst, index, ready, gather_rows);
    (span.duration(), span.end)
}

/// The `(vertex, clipped edge range)` entries covering chunk `c` — the
/// same clipping the static region applies when it classifies vertices
/// against chunk boundaries.
pub fn chunk_entries(g: &Csr, geo: &ChunkGeometry, c: ChunkId) -> Vec<EncodeEntry> {
    let cr = geo.edge_range(c);
    let n = g.num_vertices();
    let offsets = g.offsets();
    let mut entries = Vec::new();
    // first vertex whose edge range extends past cr.start
    let mut v = offsets[1..=n].partition_point(|&o| o <= cr.start);
    while v < n && offsets[v] < cr.end {
        let r = offsets[v].max(cr.start)..offsets[v + 1].min(cr.end);
        if !r.is_empty() {
            entries.push((v as u32, r));
        }
        v += 1;
    }
    entries
}

/// Encoded size of chunk `c`'s payload: cached in the hotness table, or
/// measured now by really encoding the chunk (and then cached).
pub fn chunk_wire_bytes(g: &Csr, geo: &ChunkGeometry, c: ChunkId, hot: &mut HotnessTable) -> u64 {
    if let Some(b) = hot.cached_wire_bytes(c) {
        return b;
    }
    let entries = chunk_entries(g, geo, c);
    let bytes = with_scratch(|s| {
        let mut buf = s.take_u8();
        let n = encode_ranges(g, &entries, &mut buf) as u64;
        s.put_u8(buf);
        n
    })
    .max(1);
    hot.cache_wire_bytes(c, bytes);
    bytes
}

/// Estimate the encoded size of a gather batch by pricing each entry's
/// edge-range pieces at the cached ratio of the chunk containing them.
/// Chunks not yet priced are measured (and cached) on the spot.
pub fn estimate_batch_wire(
    g: &Csr,
    geo: &ChunkGeometry,
    hot: &mut HotnessTable,
    entries: &[GatherEntry],
) -> u64 {
    let mut est: u128 = 0;
    for e in entries {
        let mut r = e.edges.clone();
        while !r.is_empty() {
            let c = geo.chunk_of_edge(r.start);
            let cr = geo.edge_range(c);
            let piece_end = r.end.min(cr.end);
            let piece_raw = (piece_end - r.start) * 4;
            let chunk_raw = (cr.end - cr.start) * 4;
            let chunk_wire = chunk_wire_bytes(g, geo, c, hot);
            est += (piece_raw as u128 * chunk_wire as u128).div_ceil(chunk_raw.max(1) as u128);
            r.start = piece_end;
        }
    }
    (est as u64).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ascetic_graph::compress::encoded_len;
    use ascetic_graph::generators::{uniform_graph, web_graph, WebConfig};
    use ascetic_sim::{DecompressModel, DeviceConfig, PcieModel};

    impl EncodeScratch {
        /// Allocated capacity across both buffers (recycling tests).
        pub(crate) fn capacity(&self) -> usize {
            self.buf.capacity() + self.entries.capacity()
        }
    }

    #[test]
    fn crossover_favors_big_well_compressed_transfers() {
        let cfg = DeviceConfig::p100(1 << 30);
        // bulk at 3x ratio: wins
        assert!(compress_wins(
            &cfg.pcie,
            &cfg.decompress,
            64 << 20,
            (64 << 20) / 3
        ));
        // bulk at 1.2x ratio: loses (social-graph territory)
        assert!(!compress_wins(
            &cfg.pcie,
            &cfg.decompress,
            64 << 20,
            (64 << 20) * 5 / 6
        ));
        // a 16 KiB chunk refresh loses even at 3x — launch overhead
        assert!(!compress_wins(
            &cfg.pcie,
            &cfg.decompress,
            16 << 10,
            (16 << 10) / 3
        ));
        // equal sizes must never "win"
        assert!(!compress_wins(&cfg.pcie, &cfg.decompress, 1 << 20, 1 << 20));
    }

    /// The two decompressor calibrations the suite runs: the P100's, and
    /// the fast one the unit tests use to make small payloads cross over.
    fn models() -> [(PcieModel, DecompressModel); 2] {
        let p100 = DeviceConfig::p100(1 << 30);
        let fast = DecompressModel {
            bandwidth_bps: 200_000_000_000,
            launch_ns: 1_000,
        };
        [(p100.pcie, p100.decompress), (p100.pcie, fast)]
    }

    /// `(decoded_at, raw_at)` for a transfer whose copy starts at `cs` with
    /// the compute engine free at `cf` — `session::chain_times`, spelled
    /// over explicit frontiers.
    fn chain(
        p: &PcieModel,
        d: &DecompressModel,
        cs: u64,
        cf: u64,
        raw: u64,
        wire: u64,
    ) -> (u64, u64) {
        let decoded_at = (cs + p.transfer_ns(wire)).max(cf) + d.decompress_ns(raw);
        (decoded_at, cs + p.transfer_ns(raw))
    }

    proptest::proptest! {
        /// (i) While the compute engine frees up no later than the encoded
        /// copy lands (`cf ≤ cs + t(wire)`: Subway's strictly chained
        /// phases, the prestore on idle engines), the chain-aware rule for
        /// a payload a kernel waits on *is* the pure link crossover.
        #[test]
        fn chain_rule_is_the_crossover_while_compute_is_not_the_bottleneck(
            cs in 0u64..4_000_000,
            lead in 0u64..4_000_000,
            raw in 1u64..(64 << 20),
            ratio_x1000 in 1u64..2_000,
        ) {
            let wire = (raw * ratio_x1000 / 1000).max(1);
            for (p, d) in models() {
                let cf = (cs + p.transfer_ns(wire)).saturating_sub(lead);
                let (decoded_at, raw_at) = chain(&p, &d, cs, cf, raw, wire);
                let chain_wins = decoded_at < raw_at.max(cf);
                proptest::prop_assert_eq!(chain_wins, compress_wins(&p, &d, raw, wire));
            }
        }

        /// (ii) An encoded chain that finishes before the raw copy would
        /// has already won the link crossover, whatever the frontiers: the
        /// refresh rule's `compress_wins &&` conjunct is redundant.
        #[test]
        fn finishing_before_the_raw_copy_implies_the_crossover(
            cs in 0u64..4_000_000,
            cf in 0u64..8_000_000,
            raw in 1u64..(64 << 20),
            ratio_x1000 in 1u64..2_000,
        ) {
            let wire = (raw * ratio_x1000 / 1000).max(1);
            for (p, d) in models() {
                let (decoded_at, raw_at) = chain(&p, &d, cs, cf, raw, wire);
                let chunk_dma_rule = compress_wins(&p, &d, raw, wire) && decoded_at < raw_at;
                proptest::prop_assert_eq!(chunk_dma_rule, decoded_at < raw_at);
            }
        }
    }

    proptest::proptest! {
        /// Over a device's engine frontiers the one rule is, arm by arm,
        /// each rule it replaced: the chain-aware comparison for a payload
        /// a kernel waits on, crossover-and-lands-first for one nothing
        /// waits on.
        #[test]
        fn the_one_rule_is_each_rule_it_replaced(
            link_free in 0u64..4_000_000,
            ready in 0u64..4_000_000,
            cf in 0u64..8_000_000,
            raw in 1u64..(64 << 20),
            ratio_x1000 in 1u64..2_000,
        ) {
            let wire = (raw * ratio_x1000 / 1000).max(1);
            for (p, d) in models() {
                let mut cfg = DeviceConfig::p100(4096);
                (cfg.pcie, cfg.decompress) = (p, d);
                let mut gpu = Gpu::new(cfg);
                gpu.timeline
                    .schedule_labeled(Engine::Copy, SimTime::ZERO, link_free, String::new);
                gpu.timeline
                    .schedule_labeled(Engine::Compute, SimTime::ZERO, cf, String::new);
                let (decoded_at, raw_at) = chain(&p, &d, ready.max(link_free), cf, raw, wire);
                let waited = encoded_wins(&gpu, SimTime(ready), raw, wire, true);
                proptest::prop_assert_eq!(waited, decoded_at < raw_at.max(cf));
                let unwaited = encoded_wins(&gpu, SimTime(ready), raw, wire, false);
                let refresh_rule = compress_wins(&p, &d, raw, wire) && decoded_at < raw_at;
                proptest::prop_assert_eq!(unwaited, refresh_rule);
            }
        }

        /// The rule is the only way a payload ships encoded, and it never
        /// picks a wire form at least as long as the raw one:
        /// `encoded_wins ⇒ wire < raw`, whether a kernel waits on the
        /// payload or not (so an encoded stream fits the window it lands in).
        #[test]
        fn the_rule_only_ships_shorter_payloads_encoded(
            link_free in 0u64..4_000_000,
            ready in 0u64..4_000_000,
            cf in 0u64..8_000_000,
            raw in 1u64..(64 << 20),
            ratio_x1000 in 1u64..2_000,
        ) {
            let wire = (raw * ratio_x1000 / 1000).max(1);
            for (p, d) in models() {
                let mut cfg = DeviceConfig::p100(4096);
                (cfg.pcie, cfg.decompress) = (p, d);
                let mut gpu = Gpu::new(cfg);
                gpu.timeline
                    .schedule_labeled(Engine::Copy, SimTime::ZERO, link_free, String::new);
                gpu.timeline
                    .schedule_labeled(Engine::Compute, SimTime::ZERO, cf, String::new);
                for kernel_waits in [true, false] {
                    if encoded_wins(&gpu, SimTime(ready), raw, wire, kernel_waits) {
                        proptest::prop_assert!(wire < raw, "{wire} >= {raw} shipped encoded");
                    }
                }
            }
        }
    }

    #[test]
    fn chunk_entries_cover_each_chunk_exactly() {
        let g = uniform_graph(300, 3_000, false, 5);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 256);
        let mut covered = 0u64;
        for c in 0..geo.num_chunks() as ChunkId {
            let cr = geo.edge_range(c);
            let entries = chunk_entries(&g, &geo, c);
            let sum: u64 = entries.iter().map(|e| e.1.end - e.1.start).sum();
            assert_eq!(sum, cr.end - cr.start, "chunk {c}");
            for e in &entries {
                assert!(e.1.start >= cr.start && e.1.end <= cr.end);
                assert!(g.edge_range(e.0).start <= e.1.start);
                assert!(g.edge_range(e.0).end >= e.1.end);
            }
            covered += sum;
        }
        assert_eq!(covered, g.num_edges());
    }

    #[test]
    fn chunk_wire_bytes_is_cached_and_matches_encode() {
        let g = uniform_graph(200, 2_000, false, 9);
        let geo = ChunkGeometry::with_chunk_bytes(&g, 512);
        let mut hot = HotnessTable::new(geo.num_chunks());
        let w0 = chunk_wire_bytes(&g, &geo, 0, &mut hot);
        assert_eq!(hot.cached_wire_bytes(0), Some(w0));
        // second call must come from the cache and agree
        assert_eq!(chunk_wire_bytes(&g, &geo, 0, &mut hot), w0);
        // against a direct per-entry length computation
        let expect: u64 = chunk_entries(&g, &geo, 0)
            .iter()
            .map(|e| encoded_len(e.0, &g.targets()[e.1.start as usize..e.1.end as usize]) as u64)
            .sum();
        assert_eq!(w0, expect.max(1));
    }

    #[test]
    fn batch_estimate_tracks_actual_encoding_on_web_locality() {
        let g = web_graph(&WebConfig::new(5_000, 50_000, 3));
        let geo = ChunkGeometry::with_chunk_bytes(&g, 1024);
        let mut hot = HotnessTable::new(geo.num_chunks());
        let entries: Vec<GatherEntry> = (0..2_000u32)
            .filter(|&v| !g.edge_range(v).is_empty())
            .map(|v| GatherEntry {
                vertex: v,
                edges: g.edge_range(v),
            })
            .collect();
        let est = estimate_batch_wire(&g, &geo, &mut hot, &entries);
        let enc: Vec<EncodeEntry> = entries
            .iter()
            .map(|e| (e.vertex, e.edges.clone()))
            .collect();
        let mut buf = Vec::new();
        let actual = encode_ranges(&g, &enc, &mut buf) as u64;
        let raw: u64 = entries.iter().map(|e| e.num_edges() * 4).sum();
        assert!(actual < raw, "web locality must compress");
        // the chunk-ratio estimate should land within 2x of the truth
        assert!(
            est >= actual / 2 && est <= actual * 2,
            "est {est} vs {actual}"
        );
    }
}
