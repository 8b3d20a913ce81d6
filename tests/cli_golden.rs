//! The `ascetic` binary's whole observable output, pinned: for every
//! subcommand and every `run` path (four systems, the in-memory oracle, a
//! 2-device fleet, streaming mutations), exit code plus FNV hashes of
//! stdout, stderr and every file the invocation writes. Harvested on the
//! commit before the CLI became one flag table and one resolve step; a
//! rewrite of `src/bin/ascetic.rs` must reproduce every row byte for byte.
//! (Row 9, `run … --system uvm`, was re-harvested when UVM stopped printing
//! an `on the wire: 0.00 MB … (compressed)` line for bytes it shipped raw.
//! Row 7 ran Subway with `--compression always` until that mode was
//! removed; it now runs `--compression adaptive`. Row 12, `--metrics-out
//! m.jsonl`, was re-harvested when the event log stopped restating spans:
//! the file keeps its meta line, its three high-water events and its
//! snapshot, and stderr counts 3 events, not 156 — stderr
//! `0xb107ef7e0b069d8c` → `0x846998faa4f0a6bb`, file `0x0b9e4f42805d5119`
//! → `0xd246e67b72c0a336`. The `--summary csv` and `--summary md` rows
//! went with those renderings; no other row moved. When the Perfetto array
//! became the one span-trace format, rows 13, 16 and 31 (every
//! `--trace-out`) were re-harvested: stderr's hint names one format, and
//! the file carries a nested span's depth (row 16's `fleet.jsonl`, then the
//! compact form, became `fleet.json`). Rows 32 and 33 summarize that file:
//! only their `trace:` path line moved. When the summary JSON became a
//! run's one machine-readable record, carrying the event log and one
//! object per iteration, `--metrics-out` and `--iter-csv` went: row 11's
//! stdout moved `0x551351fd2679b849` → `0x353c28cd7862cc4f`; row 12 drops
//! `--metrics-out m.jsonl` (stdout `0x769036b41bf7d8c3` →
//! `0x33c4e6b6b6ec48be`, stderr `0x846998faa4f0a6bb` →
//! `0x6442e526170be9ce`, no file); row 13 drops `--iter-csv it.csv`
//! (stderr `0x48fadbf7ba6998f2` → `0x3132b53724373dfe`, files
//! `0xf0581bdc3b189526` → `0x7263f094cb48712e`, `one.json`'s bytes
//! unchanged). A text edge list that cannot hold every vertex became an
//! error: row 2, `-o w.txt`, exits 1 and writes nothing (stderr
//! `0x1358f42a8d904c6b` → `0xbd732cb297feb13e`); its `w.beg` twin went
//! in as row 3, so every later row moved down one (the numbers above
//! are the old ones), and `info` / `run --algo sssp` read it, on 1024
//! vertices, not the text's 1009 (stdout `0xd42971b9c7b1a125` →
//! `0x81a5131089729a4c` and `0xe29bdaf704de5772` → `0xf629b0e932882499`).)
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test cli_golden -- --nocapture`
//! prints a fresh table.)
//!
//! Rows run in order in one scratch directory (relative paths keep the
//! echoed file names machine-independent): later rows read files earlier
//! rows wrote (`g.beg`, `w.beg`, `fleet.json`).

use std::path::PathBuf;
use std::process::Command;

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

const MUTS: &str = r#"{"op": "insert", "src": 1, "dst": 90, "batch": 0}
{"op": "insert", "src": 90, "dst": 7, "batch": 0}
{"op": "delete", "src": 1, "dst": 90, "batch": 1}
"#;

const WEIGHTED_MUTS: &str = r#"{"op": "insert", "src": 1, "dst": 90, "weight": 3, "batch": 0}
{"op": "delete", "src": 1, "dst": 90, "batch": 1}
"#;

const TRACE: &str = r#"{"id": 0, "algo": "bfs", "source": 3, "submit_ns": 0}
{"id": 1, "algo": "sssp", "source": 5, "submit_ns": 0}
{"mutate": "insert", "src": 3, "dst": 41, "at": 1}
{"id": 2, "algo": "cc", "submit_ns": 2}
{"id": 3, "algo": "bfs", "source": 9, "submit_ns": 2}
"#;

/// `(arguments, files the invocation writes)`.
type Row = (&'static str, &'static [&'static str]);

const ROWS: &[Row] = &[
    (
        "generate --kind uniform --vertices 4000 --edges 30000 --seed 5 -o g.beg",
        &["g.beg"],
    ),
    (
        "generate --kind rmat --vertices 1000 --edges 8000 --undirected --weighted -o w.txt",
        &[],
    ),
    (
        "generate --kind rmat --vertices 1000 --edges 8000 --undirected --weighted -o w.beg",
        &["w.beg"],
    ),
    ("info g.beg", &[]),
    ("info w.beg", &[]),
    ("run fk@30000 --algo bfs --mem-frac 0.4", &[]),
    (
        "run fk@30000 --algo bfs --mem-frac 0.4 --system subway",
        &[],
    ),
    (
        "run fk@30000 --algo cc --mem-frac 0.4 --system subway --compression adaptive",
        &[],
    ),
    ("run fk@30000 --algo bfs --mem-frac 0.4 --system pt", &[]),
    ("run fk@30000 --algo bfs --mem-frac 0.4 --system uvm", &[]),
    (
        "run fk@30000 --algo bfs --mem-frac 0.4 --system memory",
        &[],
    ),
    ("run gs@50000 --algo pr --summary json", &[]),
    (
        "run gs@50000 --algo bfs --mem-frac 0.4 --summary json",
        &[],
    ),
    (
        "run gs@50000 --algo cc --mem-frac 0.4 --trace-out one.json",
        &["one.json"],
    ),
    (
        "run g.beg --algo bfs --source 7 --mem 200000 --k-param 0.2 --static-ratio 0.5 \
         --chunk 1024 --fill rear --no-overlap --no-adaptive --compression adaptive \
         --prefetch next-frontier --direction adaptive",
        &[],
    ),
    ("run w.beg --algo sssp --source 2 --mem-frac 0.5", &[]),
    (
        "run fk@30000 --algo bfs --mem-frac 0.4 --devices 2 --fabric nvlink --trace-out fleet.json",
        &["fleet.json"],
    ),
    ("run fk@30000 --algo bc --source 7 --devices 2", &[]),
    (
        "run gs@50000 --algo bfs --mem-frac 0.4 --mutations muts.jsonl --verify",
        &[],
    ),
    ("run gs@50000 --algo sssp --mem-frac 0.4", &[]),
    (
        "run gs@50000 --algo sssp --mem-frac 0.4 --system subway",
        &[],
    ),
    (
        "run gs@50000 --algo sssp --mem-frac 0.4 --system memory",
        &[],
    ),
    (
        "run gs@50000 --algo sssp --mem-frac 0.4 --devices 2 --fabric nvlink",
        &[],
    ),
    (
        "run gs@50000 --algo sssp --mem-frac 0.4 --mutations wmuts.jsonl --verify",
        &[],
    ),
    (
        "pipeline fk@30000 --algos bfs,cc,pr,lp --mem-frac 0.4 --source 3",
        &[],
    ),
    ("compare gs@50000 --algo cc --mem-frac 0.4", &[]),
    (
        "compare gs@50000 --algo sssp --mem-frac 0.4 --source 4",
        &[],
    ),
    (
        "compare fk@30000 --algo bfs --compression adaptive --direction adaptive --chunk 2048",
        &[],
    ),
    (
        "serve gs@50000 --synthetic 8 --mutations 4 --mem-frac 0.4 --summary json",
        &[],
    ),
    (
        "serve gs@50000 --synthetic 8 --mutations 4 --mem-frac 0.4 --summary text",
        &[],
    ),
    (
        "serve gs@50000 --synthetic 6 --seed 3 --spacing-ns 200000 --policy fifo --direction adaptive",
        &[],
    ),
    (
        "serve gs@50000 --trace trace.jsonl --policy sjf --no-batching --devices 2 --fabric nvlink \
         --mem-frac 0.4 --trace-out serve.json",
        &["serve.json"],
    ),
    ("trace summarize fleet.json --top 5", &[]),
    ("trace summarize fleet.json", &[]),
];

/// `(exit code, fnv(stdout), fnv(stderr), fnv(written files, in order))`,
/// harvested on the parent of the flag-table rewrite.
#[rustfmt::skip]
const GOLDEN: &[(i32, u64, u64, u64)] = &[
    (0, 0xcbf29ce484222325, 0x10f81dd1c1106e38, 0xe8e68e760c790f5e),
    (1, 0xcbf29ce484222325, 0xbd732cb297feb13e, 0xcbf29ce484222325),
    (0, 0xcbf29ce484222325, 0xde021722bad87c55, 0x1a0f8796c5ba8848),
    (0, 0xde446325d9c96285, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0x81a5131089729a4c, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xa295bd584956f7a4, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xbf3edbb064924296, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xf561a9eae4dcf69a, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x2b3740777a882397, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xeea4ff0886dd9a4e, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xcdc106f8a57362c6, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x353c28cd7862cc4f, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x33c4e6b6b6ec48be, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xc3f7df02b4130f07, 0x3132b53724373dfe, 0x7263f094cb48712e),
    (0, 0xfde14071d9641c98, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xf629b0e932882499, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0x56ceb87bea0a7549, 0x18e2dc2bafb3c5e2, 0x1e46c8d02498d1ed),
    (0, 0xdd519d941daf2d81, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x13aeeb0e1d3194ca, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xab8cb631091bf7a2, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x52355138f9bd2612, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x3eed5db4c8d0465b, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xc6321377320332ec, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xa6afdb6f8ff38868, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x342db7c9d38c80c6, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x075d923027e8dca1, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x9cd6ed98c08f27c4, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x9a7da431c150c425, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xcafe03e7cb70d843, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xc58016ba623cc321, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x7efbe2bc3dbe715b, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x28144e647825fae4, 0x49d569e28b360580, 0x165e53a0c43ecf72),
    (0, 0x31edaf4e84a7fea2, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0x2baa35635461c205, 0xcbf29ce484222325, 0xcbf29ce484222325),
];

#[test]
fn every_invocation_reproduces_the_pre_table_bytes() {
    let harvest = std::env::var_os("ASCETIC_PRINT_GOLDENS").is_some();
    let dir: PathBuf =
        std::env::temp_dir().join(format!("ascetic-cli-golden-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("muts.jsonl"), MUTS).unwrap();
    std::fs::write(dir.join("wmuts.jsonl"), WEIGHTED_MUTS).unwrap();
    std::fs::write(dir.join("trace.jsonl"), TRACE).unwrap();
    if !harvest {
        assert_eq!(GOLDEN.len(), ROWS.len(), "one golden per row");
    }
    for (i, (args, files)) in ROWS.iter().enumerate() {
        let out = Command::new(env!("CARGO_BIN_EXE_ascetic"))
            .args(args.split_whitespace())
            .current_dir(&dir)
            .output()
            .expect("the binary runs");
        let written: Vec<u8> = files
            .iter()
            .flat_map(|f| std::fs::read(dir.join(f)).unwrap_or_else(|e| panic!("{args}: {f}: {e}")))
            .collect();
        let got = (
            out.status.code().expect("no signal"),
            fnv(&out.stdout),
            fnv(&out.stderr),
            fnv(&written),
        );
        if harvest {
            println!(
                "    ({}, {:#018x}, {:#018x}, {:#018x}),",
                got.0, got.1, got.2, got.3
            );
        } else {
            assert_eq!(
                got,
                GOLDEN[i],
                "`ascetic {args}` drifted (exit, stdout, stderr, files)\nstdout:\n{}\nstderr:\n{}",
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            );
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// README's flag reference is `ascetic --help`, verbatim.
#[test]
fn readme_carries_the_generated_help() {
    let out = Command::new(env!("CARGO_BIN_EXE_ascetic"))
        .arg("--help")
        .output()
        .expect("the binary runs");
    assert!(out.status.success());
    let help = String::from_utf8(out.stdout).unwrap();
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    assert!(
        readme.contains(help.trim_end()),
        "README.md's flag reference is stale: paste `ascetic --help` into it"
    );
}
