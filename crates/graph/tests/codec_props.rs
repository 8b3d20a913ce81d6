//! Property tests for the delta–varint adjacency codec: round-trips over
//! adversarial CSR shapes (empty lists, one max-degree hub, duplicate
//! neighbors, vertex ids at the top of the u32 range) and decode of
//! corrupt byte streams, which must fail cleanly — never panic, never
//! over-allocate.

use proptest::prelude::*;

use ascetic_graph::compress::{
    decode_adjacency, decode_ranges, encode_adjacency, encode_ranges, encoded_len,
    encoded_ranges_len, read_varint, write_varint, EncodeEntry, SERIAL_ENCODE_ENTRIES,
};
use ascetic_graph::generators::uniform_graph;
use ascetic_graph::Csr;

/// A sorted (duplicates allowed) adjacency list with ids spanning the
/// full u32 range, including u32::MAX.
fn arb_targets(max_len: usize) -> impl Strategy<Value = Vec<u32>> {
    prop::collection::vec(
        prop_oneof![any::<u32>(), Just(0u32), Just(u32::MAX)],
        0..max_len,
    )
    .prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// A small CSR built from per-vertex degree picks: some vertices empty,
/// some with duplicate neighbors (sorted, non-strictly monotone).
fn arb_csr() -> impl Strategy<Value = Csr> {
    (2usize..40, proptest::collection::vec(any::<u16>(), 0..200)).prop_map(|(n, picks)| {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, p) in picks.iter().enumerate() {
            // Cluster edges on a few hubs so empty lists and duplicates
            // both show up at every size.
            let v = (*p as usize) % n;
            adj[v].push((*p as u32 * 7 + i as u32) % n as u32);
            if p % 3 == 0 {
                let dup = *adj[v].last().unwrap();
                adj[v].push(dup);
            }
        }
        let mut offsets = vec![0u64];
        let mut targets = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            targets.extend_from_slice(list);
            offsets.push(targets.len() as u64);
        }
        Csr::from_parts(offsets, targets, None)
    })
}

proptest! {
    /// LEB128 round-trips every u64 and reports its exact length.
    #[test]
    fn varint_round_trips(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let (back, used) = read_varint(&buf).expect("own encoding decodes");
        prop_assert_eq!(back, v);
        prop_assert_eq!(used, buf.len());
    }

    /// One adjacency list round-trips for any source vertex and any
    /// sorted target list — including empty lists, duplicate targets,
    /// and ids equal to u32::MAX — and `encoded_len` is exact.
    #[test]
    fn adjacency_round_trips(src in any::<u32>(), targets in arb_targets(64)) {
        let mut buf = Vec::new();
        let written = encode_adjacency(src, &targets, &mut buf);
        prop_assert_eq!(written, buf.len());
        prop_assert_eq!(written, encoded_len(src, &targets));
        let (back, used) = decode_adjacency(src, &buf).expect("own encoding decodes");
        prop_assert_eq!(back, targets);
        prop_assert_eq!(used, buf.len());
    }

    /// A single hub holding every edge of the graph — the max-degree
    /// shape that stresses the degree varint and the gap stream.
    #[test]
    fn max_degree_hub_round_trips(src in any::<u32>(), deg in 1usize..5_000) {
        let targets: Vec<u32> = (0..deg as u32).map(|i| i.saturating_mul(3)).collect();
        let mut buf = Vec::new();
        encode_adjacency(src, &targets, &mut buf);
        let (back, used) = decode_adjacency(src, &buf).expect("hub decodes");
        prop_assert_eq!(back, targets);
        prop_assert_eq!(used, buf.len());
    }

    /// Whole-graph streaming encode/decode round-trips on arbitrary CSRs
    /// (empty adjacency lists included), and the serial/parallel encoder
    /// agrees with per-list encoding.
    #[test]
    fn csr_stream_round_trips(g in arb_csr()) {
        let entries: Vec<EncodeEntry> = (0..g.num_vertices() as u32)
            .map(|v| (v, g.edge_range(v)))
            .collect();
        let mut stream = Vec::new();
        let written = encode_ranges(&g, &entries, &mut stream);
        prop_assert_eq!(written, stream.len());
        prop_assert_eq!(encoded_ranges_len(&g, &entries), written);

        let mut reference = Vec::new();
        for e in &entries {
            let seg = &g.targets()[e.1.start as usize..e.1.end as usize];
            encode_adjacency(e.0, seg, &mut reference);
        }
        prop_assert_eq!(&stream, &reference, "streaming encode must match per-list encode");

        let srcs: Vec<u32> = entries.iter().map(|e| e.0).collect();
        let lists = decode_ranges(&srcs, &stream).expect("own stream decodes");
        for (e, list) in entries.iter().zip(&lists) {
            let seg = &g.targets()[e.1.start as usize..e.1.end as usize];
            prop_assert_eq!(list.as_slice(), seg);
        }
    }

    /// Arbitrary bytes never panic the decoder: it returns `Some` only
    /// when the stream is well-formed, `None` otherwise.
    #[test]
    fn random_bytes_never_panic(src in any::<u32>(), bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        if let Some((targets, used)) = decode_adjacency(src, &bytes) {
            prop_assert!(used <= bytes.len());
            prop_assert!(targets.len() <= bytes.len(), "degree bounded by stream length");
        }
    }

    /// Flipping one byte of a valid stream either still decodes to some
    /// list or is rejected — it must never panic or read out of bounds.
    #[test]
    fn corrupted_stream_fails_cleanly(
        src in any::<u32>(),
        targets in arb_targets(32),
        flip_at in any::<usize>(),
        flip_mask in any::<u8>(),
    ) {
        let mut buf = Vec::new();
        encode_adjacency(src, &targets, &mut buf);
        if buf.is_empty() {
            return Ok(());
        }
        let idx = flip_at % buf.len();
        buf[idx] ^= flip_mask | 1;
        if let Some((_, used)) = decode_adjacency(src, &buf) {
            prop_assert!(used <= buf.len());
        }
    }

    /// Truncating a valid stream is always rejected by `decode_ranges`
    /// (the byte count no longer matches), without panicking.
    #[test]
    fn truncated_stream_is_rejected(src in any::<u32>(), targets in arb_targets(32), cut in 1usize..64) {
        let mut buf = Vec::new();
        encode_adjacency(src, &targets, &mut buf);
        if buf.len() <= 1 {
            return Ok(());
        }
        let cut = cut.min(buf.len() - 1);
        buf.truncate(buf.len() - cut);
        prop_assert!(decode_ranges(&[src], &buf).is_none(), "short stream must be rejected");
    }
}

/// The length-only pass prices exactly what [`encode_ranges`] appends, on
/// entry lists at and on both sides of the serial cutoff (half-rows, so
/// partial adjacency lists are priced too), serial and on a 2-thread pool.
#[test]
fn length_pass_equals_encoded_bytes_around_the_serial_cutoff() {
    let g = uniform_graph(3_000, 40_000, false, 13);
    let mut halves: Vec<EncodeEntry> = Vec::new();
    for v in 0..g.num_vertices() as u32 {
        let r = g.edge_range(v);
        let mid = r.start + (r.end - r.start) / 2;
        halves.extend([(v, r.start..mid), (v, mid..r.end)]);
    }
    let cut = SERIAL_ENCODE_ENTRIES;
    for threads in [1, 2] {
        ascetic_par::set_num_threads(threads);
        for len in [0, 1, cut - 1, cut, cut + 1, 4 * cut + 3, halves.len()] {
            // start mid-list so the first entry is not vertex 0's
            let entries = &halves[halves.len() - len..];
            let mut out = vec![0xAA; 5];
            let written = encode_ranges(&g, entries, &mut out);
            assert_eq!(written, out.len() - 5, "{len} entries at {threads} threads");
            assert_eq!(
                encoded_ranges_len(&g, entries),
                written,
                "{len} entries at {threads} threads"
            );
        }
    }
    ascetic_par::set_num_threads(0);
}

/// A degree varint claiming more targets than the buffer holds is
/// rejected before any allocation is sized from it.
#[test]
fn huge_degree_claim_is_rejected() {
    let mut buf = Vec::new();
    write_varint(&mut buf, u64::MAX);
    assert!(decode_adjacency(0, &buf).is_none());
    let mut buf = Vec::new();
    write_varint(&mut buf, 1 << 40);
    buf.push(0);
    assert!(decode_adjacency(0, &buf).is_none());
}

/// An overlong varint (more than ten continuation bytes) is rejected.
#[test]
fn overlong_varint_is_rejected() {
    let buf = [0x80u8; 16];
    assert!(read_varint(&buf).is_none());
}
