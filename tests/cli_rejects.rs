//! An input the command does not read is an error, not a silent default:
//! every invocation below used to exit 0 on something other than what was
//! asked for (or panic), and must now exit 1 with a message naming the
//! offending flag or value. The parser's own rules (made-up, repeated and
//! foreign flags, surplus positionals, for every subcommand) are
//! table-driven unit tests in `src/bin/ascetic.rs`; this file drives the
//! real binary through the paths that choose what a flag means.

use std::process::Command;

use ascetic::core::{CompressionMode, DirectionMode, FillPolicy, PrefetchMode};
use ascetic::serve::{Policy, ALL_POLICIES};

const G: &str = "gs@50000"; // 1373 vertices

/// Run `ascetic ARGS`, demand exit code 1 and no panic, return stderr.
fn rejected(args: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_ascetic"))
        .args(args.split_whitespace())
        .current_dir(std::env::temp_dir())
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(1), "`ascetic {args}`: {stderr}");
    assert!(!stderr.contains("panicked"), "`ascetic {args}`: {stderr}");
    stderr
}

fn accepted(args: &str) {
    let out = Command::new(env!("CARGO_BIN_EXE_ascetic"))
        .args(args.split_whitespace())
        .output()
        .expect("the binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "`ascetic {args}`: {stderr}");
}

#[test]
fn a_typo_or_a_foreign_flag_cannot_run_the_default() {
    let err = rejected(&format!(
        "run {G} --algo bfs --compresion always --no-such-flag 3"
    ));
    assert!(
        err.contains("--compresion") && err.contains("`ascetic run`"),
        "{err}"
    );
    let err = rejected(&format!("run {G} --algo bfs --policy sjf"));
    assert!(
        err.contains("--policy") && err.contains("`ascetic run`"),
        "{err}"
    );
    let err = rejected(&format!("run {G} fk@30000 --algo bfs"));
    assert!(err.contains("'fk@30000'"), "{err}");
    let err = rejected(&format!("run {G} --algo bfs --algo cc"));
    assert!(err.contains("--algo given twice"), "{err}");
    let err = rejected(&format!("serve {G} --synthetic 4 --polcy sjf"));
    assert!(
        err.contains("--polcy") && err.contains("`ascetic serve`"),
        "{err}"
    );
    let err = rejected(&format!("compare {G} --algo cc --trace-out x.json"));
    assert!(err.contains("--trace-out"), "{err}");
    let err = rejected("generate --kind web --vertices 10 --edges 20 --out g.beg");
    assert!(err.contains("--out"), "{err}");
    let err = rejected(&format!("run {G} --algo bfs --compression zstd"));
    assert!(
        err.contains("--compression zstd") && err.contains("off|adaptive"),
        "{err}"
    );
    // host wall-clock telemetry lives in the benchmark harness, not the CLI
    let err = rejected(&format!("run {G} --algo bfs --pool-metrics"));
    assert!(
        err.contains("--pool-metrics") && err.contains("`ascetic run`"),
        "{err}"
    );
    // lazy fill was removed with the reactive replacement server
    let err = rejected(&format!("run {G} --algo bfs --fill lazy"));
    assert!(
        err.contains("'lazy' is not one of front|rear|random"),
        "{err}"
    );
}

#[test]
fn a_degenerate_graph_size_is_an_error_not_a_panic() {
    for kind in ["social", "web", "uniform"] {
        for n in [0, 1] {
            let err = rejected(&format!(
                "generate --kind {kind} --vertices {n} --edges 10 -o g.beg"
            ));
            assert!(err.contains(&format!("--vertices {n}")), "{err}");
        }
    }
    // the smallest graph of every kind is generated (a two- or three-page
    // web graph has as many hosts as pages)
    let tiny = std::env::temp_dir().join(format!("ascetic-tiny-{}.beg", std::process::id()));
    for kind in ["social", "web", "uniform", "rmat"] {
        for n in [2, 3] {
            let out = tiny.display();
            accepted(&format!(
                "generate --kind {kind} --vertices {n} --edges 10 -o {out}"
            ));
        }
    }
    std::fs::remove_file(tiny).ok();
    for cmd in [
        "run gs@0 --algo bfs",
        "info gs@0",
        "serve gs@0 --synthetic 4",
    ] {
        let err = rejected(cmd);
        assert!(err.contains("'gs@0'"), "{cmd}: {err}");
    }
}

#[test]
fn a_graph_with_no_vertices_is_an_error_naming_the_file_not_a_panic() {
    let dir = std::env::temp_dir();
    let stem = format!("ascetic-empty-{}", std::process::id());
    let (empty, jobs) = (
        dir.join(format!("{stem}.txt")),
        dir.join(format!("{stem}.jsonl")),
    );
    std::fs::write(&empty, "").unwrap();
    std::fs::write(&jobs, "{\"id\": 0, \"algo\": \"pr\"}\n").unwrap();
    let (g, jobs_path) = (empty.to_str().unwrap(), jobs.to_str().unwrap());
    let paths = [
        format!("serve {g} --synthetic 3 --mem 100000"),
        format!("serve {g} --trace {jobs_path} --mem 100000"),
        format!("run {g} --algo pr"),
        format!("run {g} --algo cc"),
        format!("run {g} --algo lp"),
    ];
    for path in &paths {
        let err = rejected(path);
        assert!(
            err.contains(&format!("{g}: the graph has no vertices")),
            "{path}: {err}"
        );
        assert!(!err.contains("--source"), "{path}: {err}");
    }
    std::fs::remove_file(empty).ok();
    std::fs::remove_file(jobs).ok();
}

/// `trace summarize` reads only a well-formed, well-nested Perfetto file:
/// a span past the end of the clock, two overlapping siblings and the
/// line-per-span form older builds wrote each end in a message.
#[test]
fn a_hostile_span_trace_is_an_error_not_a_panic_or_a_wrapped_clock() {
    let head = concat!(
        r#"[{"name":"ascetic_schema","ph":"M","pid":1,"tid":0,"args":{"schema_version":3}},"#,
        r#"{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"t"}}"#,
    );
    let span = |ts: &str, dur: &str| {
        format!(r#",{{"name":"s","cat":"c","ph":"X","pid":1,"tid":1,"ts":{ts},"dur":{dur}}}"#)
    };
    let cases = [
        (
            format!("{head}{}]", span("18446744073709551.615", "0.001")),
            "trace event 2: ends past 2^64 - 1 ns",
        ),
        (
            format!("{head}{}{}]", span("0", "10"), span("5", "1")),
            "overlaps its sibling",
        ),
        (
            "{\"schema_version\":3,\"tracks\":[\"t\"],\"spans\":0}\n".to_string(),
            "expected the JSON array of events --trace-out writes",
        ),
    ];
    let path = std::env::temp_dir().join(format!("ascetic-hostile-{}.json", std::process::id()));
    for (text, want) in cases {
        std::fs::write(&path, &text).unwrap();
        let err = rejected(&format!("trace summarize {}", path.display()));
        assert!(err.contains(want), "{text}: {err}");
    }
    std::fs::remove_file(path).ok();
}

#[test]
fn an_out_of_range_source_is_an_error_on_every_path_not_a_panic() {
    let muts = std::env::temp_dir().join(format!("ascetic-rejects-{}.jsonl", std::process::id()));
    std::fs::write(&muts, "{\"op\": \"insert\", \"src\": 1, \"dst\": 2}\n").unwrap();
    let muts = muts.to_str().unwrap();
    let paths = [
        format!("run {G} --algo bfs"),
        format!("run {G} --algo bfs --system subway"),
        format!("run {G} --algo bfs --system pt"),
        format!("run {G} --algo bfs --system uvm"),
        format!("run {G} --algo sssp --system memory"),
        format!("run {G} --algo bc --devices 2"),
        format!("run {G} --algo bfs --mutations {muts}"),
        format!("pipeline {G} --algos bfs,cc"),
        format!("compare {G} --algo bfs"),
    ];
    for path in &paths {
        let err = rejected(&format!("{path} --source 99999999"));
        assert!(
            err.contains("--source 99999999") && err.contains("1373-vertex"),
            "{path}: {err}"
        );
        // the first vertex id past the end, too
        rejected(&format!("{path} --source 1373"));
    }
    std::fs::remove_file(muts).ok();
}

#[test]
fn a_flag_the_chosen_path_cannot_honour_is_rejected() {
    let muts = std::env::temp_dir().join(format!("ascetic-paths-{}.jsonl", std::process::id()));
    std::fs::write(&muts, "{\"op\": \"insert\", \"src\": 1, \"dst\": 2}\n").unwrap();
    let muts = muts.to_str().unwrap();
    let report = [
        "--summary json",
        "--metrics-out m.jsonl",
        "--iter-csv i.csv",
    ];
    let knobs = [
        "--k-param 0.2",
        "--static-ratio 0.5",
        "--chunk 1024",
        "--fill rear",
        "--no-overlap",
        "--no-adaptive",
        "--prefetch next-frontier",
        "--direction adaptive",
    ];
    let name = |flag: &str| flag.split(' ').next().unwrap().to_string();
    // the fleet prints one fixed table and writes only --trace-out
    for flag in report {
        let err = rejected(&format!("run {G} --algo bfs --devices 2 {flag}"));
        assert!(
            err.contains(&name(flag)) && err.contains("--devices"),
            "{err}"
        );
    }
    // so does the mutation stream, which does not trace either
    for flag in report.iter().chain(&["--trace-out t.json"]) {
        let err = rejected(&format!("run {G} --algo bfs --mutations {muts} {flag}"));
        assert!(
            err.contains(&name(flag)) && err.contains("--mutations"),
            "{err}"
        );
    }
    // the baselines and the oracle have none of Ascetic's knobs ...
    for system in ["subway", "pt", "uvm", "memory"] {
        for flag in knobs {
            let err = rejected(&format!("run {G} --algo bfs --system {system} {flag}"));
            let path = format!("--system {system}");
            assert!(err.contains(&name(flag)) && err.contains(&path), "{err}");
        }
    }
    // ... and only Subway has a compressed path
    for system in ["pt", "uvm", "memory"] {
        let err = rejected(&format!(
            "run {G} --algo bfs --system {system} --compression adaptive"
        ));
        assert!(
            err.contains("--compression") && err.contains(system),
            "{err}"
        );
    }
    accepted(&format!(
        "run {G} --algo bfs --system subway --compression adaptive"
    ));
    // compare applies each knob to the systems that have it
    accepted(&format!(
        "compare {G} --algo bfs --chunk 1024 --compression adaptive"
    ));
    // the oracle writes no report; sessions are what shard and mutate
    for flag in report.iter().chain(&["--trace-out t.json"]) {
        let err = rejected(&format!("run {G} --algo bfs --system memory {flag}"));
        assert!(err.contains(&name(flag)), "{err}");
    }
    for flag in ["--devices 2".to_string(), format!("--mutations {muts}")] {
        let err = rejected(&format!("run {G} --algo bfs --system pt {flag}"));
        assert!(
            err.contains(&name(&flag)) && err.contains("--system pt"),
            "{err}"
        );
    }
    let err = rejected(&format!("run {G} --algo bfs --verify"));
    assert!(
        err.contains("--verify") && err.contains("--mutations"),
        "{err}"
    );
    let err = rejected(&format!("run {G} --algo bfs --mem 100000 --mem-frac 0.4"));
    assert!(err.contains("--mem-frac"), "{err}");
    // no mode forces every payload encoded: the wire-form rule decides
    let err = rejected(&format!("run {G} --algo sssp --compression always"));
    assert!(err.contains("'always' is not one of off|adaptive"), "{err}");
    // a web graph is directed, a social one undirected, whatever is asked
    let err = rejected("generate --kind web --vertices 10 --edges 20 --undirected -o x.beg");
    assert!(err.contains("--undirected") && err.contains("web"), "{err}");
    // a trace file carries its own schedule
    let err = rejected(&format!("serve {G} --trace {muts} --seed 3"));
    assert!(err.contains("--seed") && err.contains("--trace"), "{err}");
    // no fleet has zero devices, and no arrival runs the serve clock over
    for args in [
        "run {G} --algo bfs --devices 0",
        "serve {G} --synthetic 2 --devices 0",
    ] {
        let err = rejected(&args.replace("{G}", G));
        assert!(err.contains("--devices must be at least 1"), "{err}");
    }
    let err = rejected(&format!(
        "serve {G} --synthetic 3 --spacing-ns 18446744073709551615"
    ));
    assert!(err.contains("--spacing-ns 18446744073709551615"), "{err}");
    let err = rejected(&format!(
        "serve {G} --synthetic 1 --mutations 7 --spacing-ns 4611686018427387904"
    ));
    assert!(err.contains("--spacing-ns 4611686018427387904"), "{err}");
    std::fs::remove_file(muts).ok();
}

/// The five mode enums parse themselves: `FromStr` inverts `Display`, and
/// the error of anything else lists the choices.
#[test]
fn modes_round_trip_and_their_errors_list_the_choices() {
    fn check<T>(all: &[T], choices: &str)
    where
        T: std::str::FromStr<Err = String> + std::fmt::Display + PartialEq + std::fmt::Debug,
    {
        for m in all {
            assert_eq!(m.to_string().parse::<T>().as_ref(), Ok(m));
        }
        let shown: Vec<String> = all.iter().map(|m| m.to_string()).collect();
        assert_eq!(shown.join("|"), choices);
        let err = "no-such-mode".parse::<T>().unwrap_err();
        assert!(
            err.contains("no-such-mode") && err.contains(choices),
            "{err}"
        );
    }
    use CompressionMode as C;
    use DirectionMode as D;
    use FillPolicy as F;
    check(&[C::Off, C::Adaptive], "off|adaptive");
    check(&[D::Push, D::Pull, D::Adaptive], "push|pull|adaptive");
    check(
        &[PrefetchMode::Off, PrefetchMode::NextFrontier],
        "off|next-frontier",
    );
    check(
        &[F::Front, F::Rear, F::Random { seed: 7 }],
        "front|rear|random",
    );
    check(&ALL_POLICIES, "fifo|sjf|residency");
    let _: Policy = "residency".parse().unwrap();
}

/// A reader that went away is not a failure (`ascetic run … | head`): the
/// report goes to a pipe whose read end closed before the binary started,
/// and every command ends quietly with exit 0, never `panicked`.
#[test]
fn a_closed_stdout_ends_quietly_with_exit_0() {
    for args in [
        "--help".to_string(),
        format!("info {G}"),
        format!("run {G} --algo bfs"),
        format!("run {G} --algo cc --summary json"),
        format!("compare {G} --algo bfs"),
    ] {
        let (reader, writer) = std::io::pipe().expect("a pipe");
        drop(reader);
        let out = Command::new(env!("CARGO_BIN_EXE_ascetic"))
            .args(args.split_whitespace())
            .stdout(writer)
            .output()
            .expect("the binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "`ascetic {args}`: {stderr}");
        assert!(!stderr.contains("panicked"), "`ascetic {args}`: {stderr}");
        assert!(!stderr.contains("error"), "`ascetic {args}`: {stderr}");
    }
}
