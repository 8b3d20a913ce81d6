//! Replays every experiment at smoke scale against the bytes harvested
//! from the 30 binaries the driver replaced (`tests/golden/README.md`).

use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_ascetic-bench");

fn repo_file(rel: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn listed_ids() -> BTreeSet<String> {
    let out = Command::new(BIN)
        .arg("--list")
        .output()
        .expect("run --list");
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf-8");
    let first_word = |l: &str| l.split_whitespace().next().expect("id").to_string();
    text.lines().map(first_word).collect()
}

fn replay(id: &str, golden: &Path) {
    let work = std::env::temp_dir().join(format!("ascetic-golden-{}-{id}", std::process::id()));
    std::fs::create_dir_all(&work).expect("scratch dir");
    let out = Command::new(BIN)
        .args([id, "--smoke"])
        .current_dir(&work)
        .env("ASCETIC_RESULTS", "out")
        .env_remove("ASCETIC_SCALE")
        .env_remove("ASCETIC_TRACE")
        .output()
        .expect("run ascetic-bench");
    assert!(
        out.status.success(),
        "{id} --smoke exited {:?} (checks are never fatal under --smoke):\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    // the checks block is the driver's; everything before it is the bin's
    let tables = stdout.split("\n#### checks\n").next().expect("non-empty");
    let mut files: Vec<PathBuf> = std::fs::read_dir(golden)
        .expect("golden dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    files.sort();
    for file in files {
        let name = file.file_name().expect("file").to_str().expect("utf-8");
        let want = std::fs::read_to_string(&file).expect("golden file");
        let got = match name {
            "stdout.txt" => tables.to_string(),
            _ => std::fs::read_to_string(work.join("out").join(name))
                .unwrap_or_else(|e| panic!("{id} did not write {name}: {e}")),
        };
        assert!(
            got == want,
            "{id}: {name} differs from the golden\n--- got\n{got}\n--- want\n{want}"
        );
    }
    std::fs::remove_dir_all(&work).ok();
}

#[test]
fn every_experiment_reproduces_its_harvested_bytes_at_smoke_scale() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let dirs = std::fs::read_dir(&root).expect("golden root");
    let golden: BTreeSet<String> = dirs
        .map(|e| e.expect("dir entry"))
        .filter(|e| e.path().is_dir())
        .map(|e| e.file_name().into_string().expect("utf-8"))
        .collect();
    assert_eq!(
        golden,
        listed_ids(),
        "one golden directory per experiment id"
    );
    // two at a time: the experiments are single processes of their own
    let ids: Vec<&String> = golden.iter().collect();
    std::thread::scope(|s| {
        for half in ids.chunks(ids.len().div_ceil(2)) {
            let root = &root;
            s.spawn(move || half.iter().for_each(|id| replay(id, &root.join(id))));
        }
    });
}
/// The ids EXPERIMENTS.md documents: a section or bullet that opens with
/// `` `some_id` `` (lowercase, digits, underscores — not a path, a flag or
/// a code fence).
fn documented_ids(doc: &str) -> BTreeSet<String> {
    let id_shaped = |w: &&str| {
        let ok = |c: char| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_';
        !w.is_empty() && w.chars().all(ok)
    };
    doc.lines()
        .map(|l| l.strip_prefix("* ").unwrap_or(l))
        .filter_map(|l| l.strip_prefix('`')?.split('`').next())
        .filter(id_shaped)
        .map(str::to_string)
        .collect()
}

#[test]
fn the_experiment_table_is_what_the_docs_and_ci_name() {
    let ids = listed_ids();
    assert!(
        !ids.contains("ablation_compression"),
        "folded into `mechanisms`"
    );
    let documented = documented_ids(&repo_file("EXPERIMENTS.md"));
    assert_eq!(
        documented, ids,
        "EXPERIMENTS.md sections vs `ascetic-bench --list`"
    );

    // CI builds the one binary and calls it by id, and only by ids that exist
    let ci = repo_file(".github/workflows/ci.yml");
    assert!(
        !ci.contains("-p ascetic-bench --bin"),
        "CI still builds a per-experiment binary"
    );
    let calls = ci.lines().filter_map(|l| l.split("/ascetic-bench ").nth(1));
    let called: BTreeSet<String> = calls
        .filter_map(|rest| rest.split_whitespace().next())
        .map(str::to_string)
        .collect();
    // ... and smoke-runs exactly the experiments that write a BENCH_*.json
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let writes_bench = |id: &&String| {
        let files = std::fs::read_dir(root.join(id.as_str())).expect("golden dir");
        files.map(|e| e.expect("dir entry").file_name()).any(|f| {
            let f = f.to_str().expect("utf-8");
            f.starts_with("BENCH_") && f.ends_with(".json")
        })
    };
    let benches: BTreeSet<String> = ids.iter().filter(writes_bench).cloned().collect();
    assert_eq!(
        called, benches,
        "CI smoke-runs vs the experiments whose golden holds a BENCH_*.json"
    );
}
