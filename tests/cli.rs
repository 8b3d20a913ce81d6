//! End-to-end tests of the `ascetic` command-line tool: generate a graph,
//! inspect it, run algorithms under each system, and drive a session
//! pipeline — all through the real binary.

use ascetic::obs::json;
use std::path::PathBuf;
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ascetic"))
}

fn tmpfile(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("ascetic-cli-test-{}-{name}", std::process::id()));
    p
}

#[test]
fn generate_info_run_roundtrip() {
    let path = tmpfile("g.beg");
    let out = bin()
        .args([
            "generate",
            "--kind",
            "web",
            "--vertices",
            "20000",
            "--edges",
            "150000",
            "--seed",
            "5",
            "-o",
        ])
        .arg(&path)
        .output()
        .expect("generate runs");
    assert!(
        out.status.success(),
        "generate failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    let out = bin().arg("info").arg(&path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("vertices:     20000"), "info output:\n{text}");
    assert!(text.contains("degree histogram"));

    for system in ["ascetic", "subway", "pt", "uvm", "memory"] {
        let out = bin()
            .arg("run")
            .arg(&path)
            .args(["--algo", "bfs", "--system", system, "--mem-frac", "0.4"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "run --system {system} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn run_builtin_dataset_with_trace_and_csv() {
    let trace = tmpfile("trace.json");
    let csv = tmpfile("iters.csv");
    let out = bin()
        .args(["run", "fk@20000", "--algo", "pr", "--mem-frac", "0.4"])
        .arg("--trace-out")
        .arg(&trace)
        .arg("--iter-csv")
        .arg(&csv)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("simulated time"), "{text}");
    assert!(text.contains("activity/iter"), "{text}");

    let trace_json = std::fs::read_to_string(&trace).expect("trace written");
    assert!(trace_json.starts_with('[') && trace_json.trim_end().ends_with(']'));
    assert!(trace_json.contains("GPU compute engine"));

    let csv_text = std::fs::read_to_string(&csv).expect("csv written");
    assert!(csv_text.starts_with("iteration,active_vertices"));
    assert!(csv_text.lines().count() > 2);
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&csv).ok();
}

#[test]
fn metrics_out_writes_deterministic_jsonl() {
    let run = |name: &str| {
        let path = tmpfile(name);
        let out = bin()
            .args(["run", "gs@20000", "--algo", "bfs", "--mem-frac", "0.4"])
            .args(["--summary", "json"])
            .arg("--metrics-out")
            .arg(&path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = String::from_utf8_lossy(&out.stdout).into_owned();
        let jsonl = std::fs::read_to_string(&path).expect("metrics written");
        std::fs::remove_file(&path).ok();
        (summary, jsonl)
    };
    let (summary, jsonl) = run("m1.jsonl");

    // The --summary json output is one parseable object embedding the snapshot.
    json::validate(summary.trim()).expect("summary json parses");
    assert!(summary.contains("\"metrics\":"), "{summary}");

    // Every JSONL line parses; the stream is meta, then the events the meta
    // line counts, then metrics.
    let lines: Vec<&str> = jsonl.lines().collect();
    assert!(lines.len() > 2, "meta + events + metrics expected");
    for line in &lines {
        json::validate(line).unwrap_or_else(|e| panic!("bad line {e}: {line}"));
    }
    assert!(lines[0].starts_with("{\"kind\":\"meta\""), "{}", lines[0]);
    let field = |line: &str, key: &str| {
        let value = json::parse(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let value = value.get(key).cloned();
        value.unwrap_or_else(|| panic!("no {key} in {line}"))
    };
    let events = &lines[1..lines.len() - 1];
    let count = field(lines[0], "events").as_u64();
    assert_eq!(count, Some(events.len() as u64));
    for line in events {
        let kind = field(line, "kind");
        let kind = kind.as_str().expect("kind is a string");
        let known = ["repartition", "high_water", "uvm_fault", "uvm_evict"];
        assert!(known.contains(&kind), "{line}");
    }
    let last = lines[lines.len() - 1];
    assert!(last.starts_with("{\"kind\":\"metrics\""), "{last}");
    assert!(last.contains("xfer.h2d_bytes"), "{last}");

    // Bit-deterministic: a second identical invocation produces identical bytes.
    let (summary2, jsonl2) = run("m2.jsonl");
    assert_eq!(summary, summary2);
    assert_eq!(jsonl, jsonl2);
}

#[test]
fn summary_formats_render() {
    // a run is written once for people (text) and once for programs (json)
    for fmt in ["csv", "md", "xml"] {
        let out = bin()
            .args(["run", "gs@20000", "--algo", "bfs", "--summary", fmt])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--summary {fmt}: {stderr}");
        assert!(stderr.contains("text|json"), "--summary {fmt}: {stderr}");
    }
}

#[test]
fn trace_out_roundtrips_through_summarize() {
    let jsonl = tmpfile("spans.jsonl");
    let json = tmpfile("spans.json");
    for path in [&jsonl, &json] {
        let out = bin()
            .args(["run", "gs@20000", "--algo", "bfs", "--mem-frac", "0.4"])
            .arg("--trace-out")
            .arg(path)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }

    // The .json flavour is the Chrome/Perfetto array.
    let perfetto = std::fs::read_to_string(&json).expect("perfetto trace written");
    assert!(perfetto.starts_with('[') && perfetto.trim_end().ends_with(']'));
    assert!(perfetto.contains("GPU compute engine"), "{perfetto}");
    assert!(perfetto.contains("\"schema_version\":3"), "{perfetto}");

    // The .jsonl flavour round-trips through the parser and the
    // summarize subcommand.
    let text = std::fs::read_to_string(&jsonl).expect("jsonl trace written");
    let (trace, ver) = ascetic::obs::Trace::from_jsonl(&text).expect("jsonl parses");
    assert_eq!(ver, ascetic::core::RUN_REPORT_SCHEMA_VERSION);
    assert!(!trace.spans().is_empty());

    let out = bin()
        .args(["trace", "summarize"])
        .arg(&jsonl)
        .args(["--top", "5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout);
    assert!(summary.contains("schema version: 3"), "{summary}");
    assert!(summary.contains("GPU compute engine"), "{summary}");
    assert!(summary.contains("PCIe copy stream"), "{summary}");
    assert!(summary.contains("top 5 longest spans"), "{summary}");

    // summarize refuses the Perfetto flavour (it reads the compact form)
    let out = bin()
        .args(["trace", "summarize"])
        .arg(&json)
        .output()
        .unwrap();
    assert!(!out.status.success(), "perfetto json is not summarizable");

    std::fs::remove_file(&jsonl).ok();
    std::fs::remove_file(&json).ok();
}

#[test]
fn serve_reports_latency_and_writes_trace() {
    let trace = tmpfile("serve-spans.json");
    let out = bin()
        .args(["serve", "gs@20000", "--synthetic", "4", "--mem-frac", "0.4"])
        .arg("--trace-out")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("latency p50/p90/p99 ns:"), "{text}");
    let json = std::fs::read_to_string(&trace).expect("serve trace written");
    assert!(json.contains("scheduler"), "{json}");
    assert!(json.contains("job 0"), "{json}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn pipeline_amortizes() {
    let out = bin()
        .args([
            "pipeline",
            "fk@20000",
            "--algos",
            "bfs,cc,pr",
            "--mem-frac",
            "0.4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.contains("3 runs over one prestored static region"),
        "{text}"
    );
}

#[test]
fn compare_agrees() {
    let out = bin()
        .args(["compare", "gs@20000", "--algo", "cc", "--mem-frac", "0.4"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("all systems agree"), "{text}");
}

#[test]
fn run_with_mutations_repairs_and_verifies() {
    let muts = tmpfile("muts.jsonl");
    std::fs::write(
        &muts,
        r#"{"op": "insert", "src": 1, "dst": 90, "batch": 0}
{"op": "insert", "src": 90, "dst": 7, "batch": 0}
{"op": "delete", "src": 1, "dst": 90, "batch": 1}
"#,
    )
    .unwrap();
    let out = bin()
        .args(["run", "gs@20000", "--algo", "bfs", "--mem-frac", "0.4"])
        .arg("--mutations")
        .arg(&muts)
        .arg("--verify")
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("streaming mutations"), "{text}");
    assert!(
        text.contains("every repaired output matches its cold recompute"),
        "{text}"
    );
    // two batches, both shown with a verify verdict
    assert_eq!(text.matches(" ok").count(), 2, "{text}");
    std::fs::remove_file(&muts).ok();
}

#[test]
fn malformed_mutations_fail_with_the_line_number() {
    let muts = tmpfile("bad-muts.jsonl");
    std::fs::write(
        &muts,
        "{\"op\": \"insert\", \"src\": 1, \"dst\": 2}\n{\"op\": \"sever\", \"src\": 3, \"dst\": 4}\n",
    )
    .unwrap();
    let out = bin()
        .args(["run", "gs@20000", "--algo", "bfs", "--mem-frac", "0.4"])
        .arg("--mutations")
        .arg(&muts)
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("mutation line 2"), "{err}");
    assert!(err.contains("unknown op \"sever\""), "{err}");
    std::fs::remove_file(&muts).ok();
}

#[test]
fn serve_applies_trace_mutations_to_live_sessions() {
    let trace = tmpfile("mutating-trace.jsonl");
    std::fs::write(
        &trace,
        r#"{"id": 0, "algo": "bfs", "source": 3, "submit_ns": 0}
{"mutate": "insert", "src": 3, "dst": 41, "at": 1}
{"id": 1, "algo": "bfs", "source": 3, "submit_ns": 2}
"#,
    )
    .unwrap();
    let out = bin()
        .args(["serve", "gs@20000", "--mem-frac", "0.4", "--no-batching"])
        .arg("--trace")
        .arg(&trace)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("1 mutation batches"), "{text}");
    std::fs::remove_file(&trace).ok();
}

#[test]
fn bad_arguments_fail_cleanly() {
    let out = bin().args(["run", "fk@1000"]).output().unwrap(); // missing --algo
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("missing --algo"));

    let out = bin().args(["frobnicate"]).output().unwrap();
    assert!(!out.status.success());

    let out = bin()
        .args(["run", "nosuchfile.beg", "--algo", "bfs"])
        .output()
        .unwrap();
    assert!(!out.status.success());
}

#[test]
fn oversized_chunk_is_rejected_with_a_typed_error_not_a_panic() {
    let path = tmpfile("small.beg");
    let out = bin()
        .args(["generate", "--kind", "uniform", "--vertices", "4000"])
        .args(["--edges", "30000", "--seed", "5", "-o"])
        .arg(&path)
        .output()
        .unwrap();
    assert!(out.status.success());
    // 40 % of ~120 KB of edges cannot hold two 64 KiB chunks
    // one device, a fleet (shards keep the global vertex count, so the same
    // budget) and the session-building pipeline subcommand
    for args in [
        &["run", "--algo", "bfs"][..],
        &["run", "--algo", "bfs", "--devices", "2"][..],
        &["pipeline", "--algos", "bfs,cc"][..],
    ] {
        let out = bin()
            .arg(args[0])
            .arg(&path)
            .args(&args[1..])
            .args(["--mem-frac", "0.4", "--chunk", "65536"])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "must exit nonzero: {stderr}");
        assert!(!stderr.contains("panicked"), "{stderr}");
        assert!(
            stderr.contains("edge budget 47992 B below two 65536-byte chunks"),
            "{stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}
