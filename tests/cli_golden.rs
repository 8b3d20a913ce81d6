//! The `ascetic` binary's whole observable output, pinned: for every
//! subcommand and every `run` path (four systems, the in-memory oracle, a
//! 2-device fleet, streaming mutations), exit code plus FNV hashes of
//! stdout, stderr and every file the invocation writes. Harvested on the
//! commit before the CLI became one flag table and one resolve step; a
//! rewrite of `src/bin/ascetic.rs` must reproduce every row byte for byte.
//! (Row 9, `run … --system uvm`, was re-harvested when UVM stopped printing
//! an `on the wire: 0.00 MB … (compressed)` line for bytes it shipped raw.
//! Row 7 ran Subway with `--compression always` until that mode was
//! removed; it now runs `--compression adaptive`. Row 14, `--metrics-out
//! m.jsonl`, was re-harvested when the event log stopped restating spans:
//! the file keeps its meta line, its three high-water events and its
//! snapshot, and stderr counts 3 events, not 156 — stderr
//! `0xb107ef7e0b069d8c` → `0x846998faa4f0a6bb`, file `0x0b9e4f42805d5119`
//! → `0xd246e67b72c0a336`.)
//! (`ASCETIC_PRINT_GOLDENS=1 cargo test --test cli_golden -- --nocapture`
//! prints a fresh table.)
//!
//! Rows run in order in one scratch directory (relative paths keep the
//! echoed file names machine-independent): later rows read files earlier
//! rows wrote (`g.beg`, `w.txt`, `fleet.jsonl`). No `--pool-metrics` row —
//! that output is wall-clock.

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
        &["w.txt"],
    ),
    ("info g.beg", &[]),
    ("info w.txt", &[]),
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
    ("run gs@50000 --algo pr --summary csv", &[]),
    ("run gs@50000 --algo pr --summary md", &[]),
    (
        "run gs@50000 --algo bfs --mem-frac 0.4 --summary json --metrics-out m.jsonl",
        &["m.jsonl"],
    ),
    (
        "run gs@50000 --algo cc --mem-frac 0.4 --iter-csv it.csv --trace-out one.json",
        &["it.csv", "one.json"],
    ),
    (
        "run g.beg --algo bfs --source 7 --mem 200000 --k-param 0.2 --static-ratio 0.5 \
         --chunk 1024 --fill rear --no-overlap --no-adaptive --compression adaptive \
         --prefetch next-frontier --direction adaptive",
        &[],
    ),
    ("run w.txt --algo sssp --source 2 --mem-frac 0.5", &[]),
    (
        "run fk@30000 --algo bfs --mem-frac 0.4 --devices 2 --fabric nvlink --trace-out fleet.jsonl",
        &["fleet.jsonl"],
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
    ("trace summarize fleet.jsonl --top 5", &[]),
    ("trace summarize fleet.jsonl", &[]),
];

/// `(exit code, fnv(stdout), fnv(stderr), fnv(written files, in order))`,
/// harvested on the parent of the flag-table rewrite.
#[rustfmt::skip]
const GOLDEN: &[(i32, u64, u64, u64)] = &[
    (0, 0xcbf29ce484222325, 0x10f81dd1c1106e38, 0xe8e68e760c790f5e),
    (0, 0xcbf29ce484222325, 0x1358f42a8d904c6b, 0x87dbfe871772d5ae),
    (0, 0xde446325d9c96285, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xd42971b9c7b1a125, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xa295bd584956f7a4, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xbf3edbb064924296, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xf561a9eae4dcf69a, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x2b3740777a882397, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xeea4ff0886dd9a4e, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0xcdc106f8a57362c6, 0x8bf55dc2a1e0d81e, 0xcbf29ce484222325),
    (0, 0x551351fd2679b849, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x158d50a4d3953eb6, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0xf8830e0aa38580c7, 0x6442e526170be9ce, 0xcbf29ce484222325),
    (0, 0x769036b41bf7d8c3, 0x846998faa4f0a6bb, 0xd246e67b72c0a336),
    (0, 0xc3f7df02b4130f07, 0x81a63e1c9aba8b21, 0x7866edad3e23cd67),
    (0, 0xfde14071d9641c98, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xe29bdaf704de5772, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0x56ceb87bea0a7549, 0x89c396f725ada243, 0x48350862f09b809c),
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
    (0, 0x28144e647825fae4, 0x851c319910b72f3b, 0x3aa9a4a602a32a62),
    (0, 0x97b803be9075928e, 0xcbf29ce484222325, 0xcbf29ce484222325),
    (0, 0xa73d40d145180ea9, 0xcbf29ce484222325, 0xcbf29ce484222325),
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
