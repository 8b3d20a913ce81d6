//! Byte pins of mutation batches. Every case is a base graph plus a batch
//! stream replayed through `mutate::materialize`; each epoch's packed CSR
//! (offsets + targets + weights) and each field of every `GraphPatch` a
//! reader consumes — `inserts`, `deletes`, `missing_deletes`, `touched`,
//! `first_dirty_edge` — are folded into one FNV per column. The values
//! were harvested on the chunked, slack-padded patch store; the packed
//! in-place batch routine that replaced it must reproduce them byte for
//! byte, including the exact dirty mark (a batch's ops are priced in the
//! coordinates of the edge array as it stands when each op lands).
//!
//! `ASCETIC_PRINT_GOLDENS=1 cargo test --test patch_golden -- --nocapture`
//! prints a fresh table.

use ascetic::graph::datasets::weighted_variant;
use ascetic::graph::generators::uniform_graph;
use ascetic::graph::{Csr, GraphBuilder, GraphPatch, Mutation, VertexId, Weight};
use ascetic::mutate::{materialize, synthetic_churn};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

fn fnv_csr(h: &mut u64, g: &Csr) {
    for &o in g.offsets() {
        fnv(h, &o.to_le_bytes());
    }
    for &t in g.targets() {
        fnv(h, &t.to_le_bytes());
    }
    for &w in g.weights().unwrap_or(&[]) {
        fnv(h, &w.to_le_bytes());
    }
}

fn fnv_edges(h: &mut u64, edges: &[(VertexId, VertexId, Option<Weight>)]) {
    fnv(h, &(edges.len() as u64).to_le_bytes());
    for &(s, d, w) in edges {
        fnv(h, &s.to_le_bytes());
        fnv(h, &d.to_le_bytes());
        match w {
            Some(w) => {
                fnv(h, &[1]);
                fnv(h, &w.to_le_bytes());
            }
            None => fnv(h, &[0]),
        }
    }
}

/// One FNV per column: every epoch's CSR, then the five read fields of
/// every patch, in stream order.
fn fingerprints(versions: &[Csr], patches: &[GraphPatch]) -> [u64; 6] {
    let mut h = [FNV_OFFSET; 6];
    for g in versions {
        fnv_csr(&mut h[0], g);
    }
    for p in patches {
        fnv_edges(&mut h[1], &p.inserts);
        fnv_edges(&mut h[2], &p.deletes);
        fnv(&mut h[3], &p.missing_deletes.to_le_bytes());
        fnv(&mut h[4], &(p.touched.len() as u64).to_le_bytes());
        for &v in &p.touched {
            fnv(&mut h[4], &v.to_le_bytes());
        }
        fnv(&mut h[5], &p.first_dirty_edge.to_le_bytes());
    }
    h
}

/// 64 vertices, parallel edges kept: hub 0 points at every vertex below 48
/// three times over, rows 1..48 hold a self-loop and two copies of an edge
/// a few ids on, and 48..64 are isolated. Weights number the edges.
fn quirky(weighted: bool) -> Csr {
    let mut b = GraphBuilder::new(64).dedup(false);
    let mut k = 0;
    let mut add = |b: &mut GraphBuilder, s: VertexId, d: VertexId| {
        k += 1;
        if weighted {
            b.add_weighted_edge(s, d, k);
        } else {
            b.add_edge(s, d);
        }
    };
    for round in 0..3 {
        for t in 0..48 {
            add(&mut b, 0, (t * 7 + round) % 48);
        }
    }
    for v in 1..48 {
        add(&mut b, v, v);
        add(&mut b, v, (v + 5) % 48);
        add(&mut b, v, (v + 5) % 48);
        add(&mut b, v, (v * 3) % 48);
    }
    b.build()
}

fn ins(src: VertexId, dst: VertexId, weighted: bool) -> Mutation {
    Mutation::Insert {
        src,
        dst,
        weight: weighted.then_some(src * 3 + dst % 7 + 1),
    }
}

fn del(src: VertexId, dst: VertexId) -> Mutation {
    Mutation::Delete { src, dst }
}

/// Every pinned case, labelled, in table order: `(name, base, batches)`.
fn cases() -> Vec<(String, Csr, Vec<Vec<Mutation>>)> {
    let mut out = Vec::new();
    for weighted in [false, true] {
        let tag = if weighted { "weighted" } else { "unweighted" };
        let uniform = uniform_graph(300, 2_400, false, 7);
        let uniform = if weighted {
            weighted_variant(&uniform)
        } else {
            uniform
        };
        let q = quirky(weighted);
        let w = weighted;
        let (u0, u1) = (5, uniform.neighbors(5)[0]);
        let (u2, u3) = (200, uniform.neighbors(200)[1]);
        let mut case = |name: &str, base: &Csr, batches: Vec<Vec<Mutation>>| {
            out.push((format!("{name} {tag}"), base.clone(), batches));
        };
        case(
            "insert then delete in one batch",
            &uniform,
            vec![vec![
                ins(250, 9, w),
                ins(250, 9, w),
                ins(17, 4, w),
                del(250, 9),
                ins(250, 9, w),
                ins(3, 299, w),
            ]],
        );
        case(
            "delete then insert in one batch",
            &uniform,
            vec![vec![
                del(u2, u3),
                ins(u2, u3, w),
                ins(u2, u3, w),
                del(u0, u1),
                ins(u1, u0, w),
                ins(u0, u1, w),
            ]],
        );
        case(
            "parallel edges",
            &q,
            vec![
                vec![del(7, 12), ins(7, 12, w), ins(7, 12, w), del(9, 14)],
                vec![ins(9, 14, w), del(7, 12), ins(40, 45, w), del(40, 45)],
            ],
        );
        case(
            "self-loops",
            &q,
            vec![vec![
                ins(50, 50, w),
                del(3, 3),
                ins(3, 3, w),
                del(50, 50),
                ins(60, 60, w),
                del(47, 47),
            ]],
        );
        case(
            "hub row",
            &q,
            vec![
                (0..48)
                    .map(|t| match t % 4 {
                        0 => del(0, t),
                        1 => ins(0, t, w),
                        2 => ins(0, 47 - t, w),
                        _ => del(0, (t * 5) % 48),
                    })
                    .collect(),
                vec![ins(30, 1, w), del(0, 2), ins(0, 63, w), del(1, 1)],
            ],
        );
        case(
            "empty batch",
            &uniform,
            vec![vec![], vec![ins(1, 2, w)], vec![]],
        );
        case(
            "missing deletes",
            &uniform,
            vec![vec![
                del(7, 7),
                del(299, 0),
                ins(42, 43, w),
                del(42, 43),
                del(42, 43),
                del(u0, u1),
                del(u0, u1),
            ]],
        );
        // later rows first, then an early row shrinks under them: the
        // dirty mark is priced where each op lands, not where it started
        case(
            "ops out of row order",
            &uniform,
            vec![vec![
                ins(290, 1, w),
                del(u2, u3),
                del(u0, u1),
                ins(120, 6, w),
                ins(u0, 8, w),
                del(1, uniform.neighbors(1)[0]),
            ]],
        );
        let five = (uniform.num_edges() / 20) as usize;
        case(
            "5%-of-edges batch",
            &uniform,
            synthetic_churn(&uniform, 1, five, 11),
        );
        let small = uniform_graph(120, 700, false, 13);
        let small = if weighted {
            weighted_variant(&small)
        } else {
            small
        };
        case(
            "100 synthetic_churn batches",
            &small,
            synthetic_churn(&small, 100, 25, 17),
        );
    }
    out
}

/// Pinned fingerprints, in [`cases`] order: versions, inserts, deletes,
/// missing deletes, touched, first dirty edge.
const PINS: &[(&str, [u64; 6])] = &[
    (
        "insert then delete in one batch unweighted",
        [
            0x249b1ed117050ebc,
            0xe2b5571257b5b54b,
            0xa7f3bf6a0240b5fd,
            0xa8c7f832281a39c5,
            0xc395bfdbc95cfb62,
            0xaa745007bf41ab84,
        ],
    ),
    (
        "delete then insert in one batch unweighted",
        [
            0xf236e112f0824207,
            0xd0ff105237a7611b,
            0x78ca808bcb096b1c,
            0xa8c7f832281a39c5,
            0x47ad49173536d748,
            0xc1454f5921ab46ad,
        ],
    ),
    (
        "parallel edges unweighted",
        [
            0x9b73188454debd04,
            0xb42807e0fe4d34a7,
            0x4f66c9b83420d0c3,
            0x88201fb960ff6465,
            0x92956ec5af4142d2,
            0xf3369ea9a26ebe66,
        ],
    ),
    (
        "self-loops unweighted",
        [
            0xf7535a7ad340a651,
            0xc192094081463072,
            0xffec0fd45ba07422,
            0xa8c7f832281a39c5,
            0xc534934cc86913d3,
            0x0dae2590a62e3d5d,
        ],
    ),
    (
        "hub row unweighted",
        [
            0x00378a2a1b475c30,
            0xd06219f31c8277b5,
            0x22af9571c1cd46a3,
            0x88201fb960ff6465,
            0xaff47fa199f68516,
            0x4a2a91a74b20d023,
        ],
    ),
    (
        "empty batch unweighted",
        [
            0xbe4d19e3f9490085,
            0x21e2a8d5edd30485,
            0x81d23fd7003c2305,
            0x81d23fd7003c2305,
            0x204c45e6ffad40c4,
            0x83c06ce0bc2fac25,
        ],
    ),
    (
        "missing deletes unweighted",
        [
            0xbc75e8cff891c778,
            0x4bfd512e8e1631af,
            0x5c063ba9a2699578,
            0xc7c2bf3b330983e6,
            0x40e1f861932b19ef,
            0xc1454f5921ab46ad,
        ],
    ),
    (
        "ops out of row order unweighted",
        [
            0xe68f2faeb9156f2d,
            0x3884328f75ff7ee3,
            0xc69a552f7b75eb5c,
            0xa8c7f832281a39c5,
            0xdecfb953517bf0f7,
            0x4bd7a317074c5b62,
        ],
    ),
    (
        "5%-of-edges batch unweighted",
        [
            0xe2218026b42eb86e,
            0x3062d6cc15ba9179,
            0x45431830986c0478,
            0xa8c7f832281a39c5,
            0xe29b2d786d706140,
            0xaa745007bf41ab84,
        ],
    ),
    (
        "100 synthetic_churn batches unweighted",
        [
            0x49cada39853b0e99,
            0x0576bfd3a26bdecf,
            0x65d58d2a3cd8befb,
            0x14d5bceae7b5b1a5,
            0x81fa48b54820d6d9,
            0xb629fc538d9e63ef,
        ],
    ),
    (
        "insert then delete in one batch weighted",
        [
            0xe490c35a8339f568,
            0xacc070d05d880b4c,
            0x6ad06b712cad00c5,
            0xa8c7f832281a39c5,
            0xc395bfdbc95cfb62,
            0xaa745007bf41ab84,
        ],
    ),
    (
        "delete then insert in one batch weighted",
        [
            0xbb127dac0f1714a1,
            0x30db9cbad2766f7e,
            0xe8c92fa1a3e49fb1,
            0xa8c7f832281a39c5,
            0x47ad49173536d748,
            0xc1454f5921ab46ad,
        ],
    ),
    (
        "parallel edges weighted",
        [
            0x8065bee4f12f77ca,
            0xabe8192651632ce1,
            0xac164bd04cea2d33,
            0x88201fb960ff6465,
            0x92956ec5af4142d2,
            0xf3369ea9a26ebe66,
        ],
    ),
    (
        "self-loops weighted",
        [
            0xfe97e8ce97922ff2,
            0x2888cac7e7bf13b1,
            0x34a66fa39c9fbd48,
            0xa8c7f832281a39c5,
            0xc534934cc86913d3,
            0x0dae2590a62e3d5d,
        ],
    ),
    (
        "hub row weighted",
        [
            0xceaa45c2cc7ede05,
            0x00c84d0f5b4ac276,
            0x2a64cb0628624d34,
            0x88201fb960ff6465,
            0xaff47fa199f68516,
            0x4a2a91a74b20d023,
        ],
    ),
    (
        "empty batch weighted",
        [
            0x7a27f43e8184e465,
            0x0ca708f5b29257f4,
            0x81d23fd7003c2305,
            0x81d23fd7003c2305,
            0x204c45e6ffad40c4,
            0x83c06ce0bc2fac25,
        ],
    ),
    (
        "missing deletes weighted",
        [
            0x25689f2242c6695d,
            0x0a6c4522421bf53c,
            0xf42b834ce4e9eb98,
            0xc7c2bf3b330983e6,
            0x40e1f861932b19ef,
            0xc1454f5921ab46ad,
        ],
    ),
    (
        "ops out of row order weighted",
        [
            0xa769535c0d9f1262,
            0xc9cdb63bcdf37b3e,
            0x38b985dc2b3a0d46,
            0xa8c7f832281a39c5,
            0xdecfb953517bf0f7,
            0x4bd7a317074c5b62,
        ],
    ),
    (
        "5%-of-edges batch weighted",
        [
            0x3199edc23de7bce2,
            0x5c6b03509fc55727,
            0xedba3ee6eae135b7,
            0xa8c7f832281a39c5,
            0x646a25435613ff41,
            0x7979a1b9cc1f91b4,
        ],
    ),
    (
        "100 synthetic_churn batches weighted",
        [
            0xb8ed604d27beedc6,
            0xae47af4a7d019def,
            0x0088bd5b571d56e1,
            0x14d5bceae7b5b1a5,
            0xa1dccf1a840092b0,
            0xcfb578305f19d945,
        ],
    ),
];

#[test]
fn every_batch_stream_matches_its_pins() {
    let got: Vec<(String, [u64; 6])> = cases()
        .into_iter()
        .map(|(name, base, batches)| {
            let epochs = materialize(&base, &batches).expect("every case is well-formed");
            assert_eq!(epochs.versions.len(), batches.len() + 1, "{name}");
            for g in &epochs.versions {
                g.validate().expect("every epoch is a valid CSR");
            }
            (name, fingerprints(&epochs.versions, &epochs.patches))
        })
        .collect();
    if std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some() {
        println!("const PINS: &[(&str, [u64; 6])] = &[");
        for (name, h) in &got {
            let cols: Vec<String> = h.iter().map(|x| format!("{x:#018x}")).collect();
            println!("    ({name:?}, [{}]),", cols.join(", "));
        }
        println!("];");
    }
    let names: Vec<&str> = got.iter().map(|(n, _)| n.as_str()).collect();
    let pinned: Vec<&str> = PINS.iter().map(|p| p.0).collect();
    assert_eq!(names, pinned, "the table lists every case once, in order");
    for ((name, h), (_, pin)) in got.iter().zip(PINS) {
        assert_eq!(h, pin, "{name}");
    }
}
