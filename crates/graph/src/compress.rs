//! Delta–varint compression of adjacency lists.
//!
//! Out-of-core systems are bandwidth-bound, so compressing edge payloads
//! before they cross PCIe is a classic lever (the WebGraph framework the
//! paper's UK/GS datasets come from is itself a compressed format). This
//! module provides the standard scheme: per adjacency list, sort targets,
//! delta-encode (first value zig-zag against the source id, subsequent
//! values as gaps) and write LEB128 varints.
//!
//! The scheme feeds the live compressed transfer path: [`encode_ranges`]
//! is a streaming encoder over `(vertex, edge-subrange)` entries — the
//! exact shape of an on-demand gather batch or a static-region chunk —
//! that appends into a caller-supplied buffer (typically one taken from an
//! `ascetic-par` scratch arena, so the steady state allocates nothing).
//! Large entry lists are encoded in parallel on the persistent pool: an
//! exact length pre-pass ([`encoded_len`]) measures each worker's span of
//! entries, then workers fill disjoint windows of the output, so the byte
//! stream is bit-identical at every thread count. That pre-pass alone is
//! [`encoded_ranges_len`]: a payload is priced by it and encoded only if
//! it ships encoded. A whole graph's projection is `encode_ranges` over
//! every vertex's full edge range.

use std::ops::Range;

use crate::csr::Csr;
use crate::types::VertexId;
use ascetic_par::{parallel_parts, parallel_ranges, with_scratch};

/// Entry lists at or below this size are measured and encoded serially —
/// parallel dispatch overhead dwarfs the work.
pub const SERIAL_ENCODE_ENTRIES: usize = 64;

/// Zig-zag encode a signed value into an unsigned one.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Zig-zag decode.
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a LEB128 varint.
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Read a LEB128 varint; returns `(value, bytes_consumed)` or `None` on
/// truncated/overlong input.
#[inline]
pub fn read_varint(buf: &[u8]) -> Option<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for (i, &b) in buf.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Some((v, i + 1));
        }
        shift += 7;
    }
    None
}

/// Encode the adjacency list of `src` into `out`; returns the encoded
/// byte length. Format: `degree, zigzag(first - src), gap, gap...`. A
/// sorted list is the compact case; an unsorted one (a patched row, whose
/// inserts append at the row's end) still round-trips, each backward gap
/// wrapping to a ten-byte varint.
pub fn encode_adjacency(src: VertexId, targets: &[VertexId], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    write_varint(out, targets.len() as u64);
    let mut prev: i64 = src as i64;
    for (i, &t) in targets.iter().enumerate() {
        if i == 0 {
            write_varint(out, zigzag(t as i64 - prev));
        } else {
            write_varint(out, (t as i64 - prev) as u64);
        }
        prev = t as i64;
    }
    out.len() - start
}

/// Decode one adjacency list; returns `(targets, bytes_consumed)`.
pub fn decode_adjacency(src: VertexId, buf: &[u8]) -> Option<(Vec<VertexId>, usize)> {
    let (deg, mut pos) = read_varint(buf)?;
    // Every target costs at least one byte, so a degree claiming more
    // targets than there are bytes left is corrupt — reject it before
    // trusting it as an allocation size.
    if deg > (buf.len() - pos) as u64 {
        return None;
    }
    let mut targets = Vec::with_capacity(deg as usize);
    let mut prev: i64 = src as i64;
    for i in 0..deg {
        let (raw, used) = read_varint(&buf[pos..])?;
        pos += used;
        let t = if i == 0 {
            prev + unzigzag(raw)
        } else {
            prev + raw as i64
        };
        if t < 0 || t > u32::MAX as i64 {
            return None;
        }
        targets.push(t as VertexId);
        prev = t;
    }
    Some((targets, pos))
}

/// Byte length of `v` as a LEB128 varint, without writing it.
#[inline]
fn varint_len(v: u64) -> usize {
    (63 - (v | 1).leading_zeros() as usize) / 7 + 1
}

/// Exact encoded byte length of one adjacency segment — the length
/// pre-pass that lets [`encode_ranges`] place every entry before any
/// bytes are written.
pub fn encoded_len(src: VertexId, targets: &[VertexId]) -> usize {
    let mut n = varint_len(targets.len() as u64);
    let mut prev: i64 = src as i64;
    for (i, &t) in targets.iter().enumerate() {
        let v = if i == 0 {
            zigzag(t as i64 - prev)
        } else {
            (t as i64 - prev) as u64
        };
        n += varint_len(v);
        prev = t as i64;
    }
    n
}

/// One streaming-encode request: a source vertex plus an absolute edge
/// sub-range into the CSR edge array (the same shape as a gather entry or
/// a chunk's clipped vertex span).
pub type EncodeEntry = (VertexId, std::ops::Range<u64>);

/// Exact byte length of `entries`' segments over the edge array `all`.
fn segments_len(all: &[VertexId], entries: &[EncodeEntry]) -> usize {
    entries
        .iter()
        .map(|e| encoded_len(e.0, &all[e.1.start as usize..e.1.end as usize]))
        .sum()
}

/// The parallel length pre-pass of [`encode_ranges`] (lists above
/// [`SERIAL_ENCODE_ENTRIES`]): `entries` split into per-worker spans, each
/// measured on the persistent pool with the exact byte length of its
/// segments.
fn worker_spans(all: &[VertexId], entries: &[EncodeEntry]) -> Vec<(Range<usize>, usize)> {
    parallel_ranges(entries.len(), |_, r| {
        let bytes = segments_len(all, &entries[r.clone()]);
        (r, bytes)
    })
}

/// The byte count [`encode_ranges`] would append for `entries`, computed
/// without writing a byte — what a caller prices a payload with before
/// deciding whether to encode it at all. It reads targets only, so it
/// never refuses a weighted graph; [`encode_ranges`] does.
pub fn encoded_ranges_len(g: &Csr, entries: &[EncodeEntry]) -> usize {
    let all = g.targets();
    if entries.len() <= SERIAL_ENCODE_ENTRIES {
        return segments_len(all, entries);
    }
    worker_spans(all, entries)
        .iter()
        .map(|(_, bytes)| bytes)
        .sum()
}

/// Encode the target sub-ranges of `entries` as a concatenated
/// delta–varint stream appended to `out`; returns the bytes appended.
///
/// Each segment is self-contained (`degree, zigzag(first − src), gap...`),
/// so a partial adjacency list delivered by one entry decodes without the
/// rest of the list. Large entry lists run the length pre-pass
/// ([`encoded_ranges_len`]'s) and the encode itself on the persistent pool,
/// each worker filling a disjoint window of `out` through its thread-local
/// scratch arena; the resulting bytes are identical at every host thread
/// count.
///
/// # Panics
/// Panics if `g` is weighted — weights would ride along uncompressed, so
/// weighted payloads take the raw path.
pub fn encode_ranges(g: &Csr, entries: &[EncodeEntry], out: &mut Vec<u8>) -> usize {
    assert!(!g.is_weighted(), "compression covers unweighted payloads");
    let all = g.targets();
    let seg = |e: &EncodeEntry| &all[e.1.start as usize..e.1.end as usize];
    let start = out.len();

    if entries.len() <= SERIAL_ENCODE_ENTRIES {
        for e in entries {
            encode_adjacency(e.0, seg(e), out);
        }
        return out.len() - start;
    }

    // Pass 1: each worker span's exact byte length.
    let spans = worker_spans(all, entries);
    let total: usize = spans.iter().map(|(_, bytes)| bytes).sum();

    // Pass 2: encode each span's entries into its disjoint byte window.
    out.resize(start + total, 0);
    let mut parts: Vec<(&mut [u8], &[EncodeEntry])> = Vec::with_capacity(spans.len());
    let mut rest: &mut [u8] = &mut out[start..];
    for (r, bytes) in spans {
        let (mine, tail) = std::mem::take(&mut rest).split_at_mut(bytes);
        rest = tail;
        parts.push((mine, &entries[r]));
    }
    parallel_parts(parts, |_, (mine, es)| {
        with_scratch(|scratch| {
            let mut buf = scratch.take_u8();
            let mut w = 0usize;
            for e in es {
                buf.clear();
                encode_adjacency(e.0, seg(e), &mut buf);
                mine[w..w + buf.len()].copy_from_slice(&buf);
                w += buf.len();
            }
            debug_assert_eq!(w, mine.len(), "length pre-pass must be exact");
            scratch.put_u8(buf);
        });
    });
    total
}

/// Decode a stream produced by [`encode_ranges`]; `srcs` lists the source
/// vertex of each segment in order. Returns per-segment target lists, or
/// `None` if the stream is corrupt or its length does not match.
pub fn decode_ranges(srcs: &[VertexId], buf: &[u8]) -> Option<Vec<Vec<VertexId>>> {
    let mut out = Vec::with_capacity(srcs.len());
    let mut pos = 0usize;
    for &s in srcs {
        let (targets, used) = decode_adjacency(s, &buf[pos..])?;
        pos += used;
        out.push(targets);
    }
    (pos == buf.len()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{social_graph, uniform_graph, web_graph, SocialConfig, WebConfig};

    /// Every vertex's whole adjacency list, in vertex order.
    fn whole_graph(g: &Csr) -> Vec<EncodeEntry> {
        (0..g.num_vertices() as VertexId)
            .map(|v| (v, g.edge_range(v)))
            .collect()
    }

    /// Raw over encoded bytes of `g`'s whole edge payload.
    fn ratio(g: &Csr) -> f64 {
        let n = encode_ranges(g, &whole_graph(g), &mut Vec::new());
        g.edge_bytes() as f64 / n.max(1) as f64
    }

    #[test]
    fn varint_roundtrip() {
        let mut buf = Vec::new();
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            buf.clear();
            write_varint(&mut buf, v);
            let (got, used) = read_varint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(used, buf.len());
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = Vec::new();
        write_varint(&mut buf, 1_000_000);
        buf.pop();
        assert!(read_varint(&buf).is_none());
        assert!(read_varint(&[]).is_none());
    }

    #[test]
    fn zigzag_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 7, 1_000_000] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn adjacency_roundtrip() {
        let mut buf = Vec::new();
        let targets = [3u32, 10, 11, 500, 10_000];
        let n = encode_adjacency(100, &targets, &mut buf);
        assert_eq!(n, buf.len());
        let (got, used) = decode_adjacency(100, &buf).unwrap();
        assert_eq!(got, targets);
        assert_eq!(used, buf.len());
    }

    #[test]
    fn unsorted_adjacency_roundtrips_at_its_priced_length() {
        let mut buf = Vec::new();
        let targets = [10u32, 500, 3, 11, 0];
        let n = encode_adjacency(100, &targets, &mut buf);
        assert_eq!(n, encoded_len(100, &targets));
        assert_eq!(decode_adjacency(100, &buf), Some((targets.to_vec(), n)));
    }

    #[test]
    fn empty_adjacency() {
        let mut buf = Vec::new();
        encode_adjacency(5, &[], &mut buf);
        let (got, used) = decode_adjacency(5, &buf).unwrap();
        assert!(got.is_empty());
        assert_eq!(used, buf.len());
    }

    #[test]
    fn whole_graph_roundtrip() {
        let g = uniform_graph(500, 5_000, false, 3);
        let entries = whole_graph(&g);
        let mut bytes = Vec::new();
        encode_ranges(&g, &entries, &mut bytes);
        let srcs: Vec<VertexId> = entries.iter().map(|e| e.0).collect();
        let lists = decode_ranges(&srcs, &bytes).unwrap();
        for (v, targets) in lists.iter().enumerate() {
            assert_eq!(&targets[..], g.neighbors(v as VertexId), "vertex {v}");
        }
    }

    #[test]
    fn locality_compresses_better_than_random() {
        // web graphs have tiny gaps (host locality) -> much better ratio
        let web = web_graph(&WebConfig::new(20_000, 160_000, 1));
        let soc = social_graph(&SocialConfig::new(20_000, 80_000, 1));
        let (rw, rs) = (ratio(&web), ratio(&soc));
        assert!(rw > 2.0, "web ratio {rw:.2}");
        assert!(rw > rs, "web {rw:.2} should beat social {rs:.2}");
    }

    #[test]
    fn encoded_len_matches_actual_encoding() {
        let g = uniform_graph(400, 4_000, false, 5);
        let mut buf = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            buf.clear();
            encode_adjacency(v, g.neighbors(v), &mut buf);
            assert_eq!(encoded_len(v, g.neighbors(v)), buf.len(), "vertex {v}");
        }
    }

    #[test]
    fn encode_ranges_matches_serial_per_entry_encoding() {
        let g = uniform_graph(2_000, 30_000, false, 11);
        // Split every vertex's list into sub-ranges so partial delivery is
        // exercised, and use enough entries to cross the parallel path.
        let mut entries: Vec<EncodeEntry> = Vec::new();
        for v in 0..g.num_vertices() as u32 {
            let r = g.edge_range(v);
            if r.is_empty() {
                entries.push((v, r));
            } else {
                let mid = r.start + (r.end - r.start) / 2;
                entries.push((v, r.start..mid));
                entries.push((v, mid..r.end));
            }
        }
        assert!(entries.len() > SERIAL_ENCODE_ENTRIES);
        let mut stream = Vec::new();
        let n = encode_ranges(&g, &entries, &mut stream);
        assert_eq!(n, stream.len());

        let mut expect = Vec::new();
        let all = g.targets();
        for e in &entries {
            encode_adjacency(e.0, &all[e.1.start as usize..e.1.end as usize], &mut expect);
        }
        assert_eq!(stream, expect, "parallel stitch must match serial order");

        let srcs: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let decoded = decode_ranges(&srcs, &stream).unwrap();
        for (e, targets) in entries.iter().zip(&decoded) {
            assert_eq!(
                &targets[..],
                &all[e.1.start as usize..e.1.end as usize],
                "segment for vertex {}",
                e.0
            );
        }
    }

    #[test]
    fn encode_ranges_appends_to_existing_buffer() {
        let g = uniform_graph(50, 300, false, 2);
        let entries: Vec<EncodeEntry> = vec![(0, g.edge_range(0)), (1, g.edge_range(1))];
        let mut buf = vec![0xAAu8; 7];
        let n = encode_ranges(&g, &entries, &mut buf);
        assert_eq!(buf.len(), 7 + n);
        assert!(buf[..7].iter().all(|&b| b == 0xAA), "prefix untouched");
    }

    #[test]
    fn decode_rejects_degree_larger_than_buffer() {
        // degree header claims 2^40 targets with no payload behind it;
        // the decoder must bail out instead of reserving that much.
        let mut buf = Vec::new();
        write_varint(&mut buf, 1u64 << 40);
        assert!(decode_adjacency(0, &buf).is_none());
    }

    #[test]
    fn compression_never_explodes() {
        // worst case per edge: 5 varint bytes + degree header; sanity-bound it
        let g = uniform_graph(1_000, 8_000, false, 9);
        assert!(ratio(&g) > 0.5);
    }
}
