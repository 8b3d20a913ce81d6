//! `benchmark run`: every workload in its own pair of child processes
//! (end-to-end, then per-layer), collected into one results file.
//!
//! A child per measurement gives each workload a clean worker pool and its
//! own `VmHWM`. Children inherit this process's environment, which `main`
//! has already scrubbed of every `ASCETIC_*` variable. The only files
//! written are under `results/` beside the harness (plus `--out`).

use std::process::{Command, ExitCode, Stdio};

use crate::json::{self, Value};
use crate::measure;
use crate::spec::WORKLOADS;
use crate::workloads::Workload;

/// `run_seconds` of BENCHMARK.json: what `run` measures for by default.
pub const DEFAULT_SECONDS: f64 = 15.0;

/// What one child printed, parsed.
struct Child {
    /// The result object (the driver's last line).
    result: Value,
    /// The `detail` line: `virt_fp` and the spreads of the medians.
    detail: Value,
}

fn spawn(w: Workload, seed: u64, seconds: f64, trace: bool) -> Result<Child, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    if !out.status.success() {
        print!("{text}");
        return Err(format!(
            "{} (trace {}) exited with {}",
            w.name(),
            trace as u8,
            out.status
        ));
    }
    let result = lines.pop().ok_or("a child printed nothing")?;
    let detail = lines
        .pop()
        .and_then(|l| l.strip_prefix("detail "))
        .ok_or("a child printed no detail line")?;
    for l in lines {
        println!("{l}");
    }
    Ok(Child {
        result: json::parse(result)?,
        detail: json::parse(detail)?,
    })
}

/// A child's metrics as `{name: {value, unit[, samples, iqr]}}`.
fn metrics_with_spreads(child: &Child) -> Value {
    let metrics = child
        .result
        .get("metrics")
        .and_then(Value::as_object)
        .unwrap_or(&[]);
    Value::Obj(
        metrics
            .iter()
            .map(|(name, m)| {
                let mut members = m.as_object().unwrap_or(&[]).to_vec();
                if let Some(s) = child.detail.get("spreads").and_then(|s| s.get(name)) {
                    members.extend(s.as_object().unwrap_or(&[]).iter().cloned());
                }
                (name.clone(), Value::Obj(members))
            })
            .collect(),
    )
}

pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let (mut seed, mut seconds, mut out_path) = (1u64, DEFAULT_SECONDS, None);
    let mut chosen: Vec<Workload> = Vec::new();
    for (flag, value) in crate::flags(args)? {
        match flag {
            "--seed" => seed = crate::parse(flag, value)?,
            "--seconds" => seconds = crate::parse(flag, value)?,
            "--workload" => chosen.push(crate::workload(value)?),
            "--out" => out_path = Some(std::path::PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if chosen.is_empty() {
        chosen = Workload::ALL.to_vec();
    }

    let mut all_correct = true;
    let mut workloads = Vec::new();
    for w in chosen {
        let why = WORKLOADS
            .iter()
            .find(|x| x.0 == w.name())
            .expect("declared")
            .1;
        println!("\n## {}: {why}", w.name());
        let e2e = spawn(w, seed, seconds, false)?;
        let layers = spawn(w, seed, seconds, true)?;
        let correct = [&e2e, &layers]
            .iter()
            .all(|c| c.result.get("correct").and_then(Value::as_bool) == Some(true));
        all_correct &= correct;
        let copy = |c: &Child, key: &str| c.result.get(key).cloned().unwrap_or(Value::Null);
        workloads.push(Value::Obj(vec![
            ("name".into(), Value::Str(w.name().into())),
            ("correct".into(), Value::Bool(correct)),
            ("attempted".into(), copy(&e2e, "attempted")),
            ("failed".into(), copy(&e2e, "failed")),
            ("per_layer_failed".into(), copy(&layers, "failed")),
            (
                "virt_fp".into(),
                e2e.detail.get("virt_fp").cloned().unwrap_or(Value::Null),
            ),
            ("end_to_end".into(), metrics_with_spreads(&e2e)),
            ("per_layer".into(), metrics_with_spreads(&layers)),
        ]));
    }

    let doc = Value::Obj(vec![
        ("schema".into(), Value::Num(1.0)),
        ("seed".into(), Value::Num(seed as f64)),
        ("seconds".into(), Value::Num(seconds)),
        ("threads".into(), Value::Num(measure::threads() as f64)),
        (
            "cores".into(),
            Value::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("workloads".into(), Value::Arr(workloads)),
    ]);
    let mut text = String::new();
    doc.write(&mut text);
    text.push('\n');

    let dir = measure::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let default_path = dir.join(format!("seed{seed}.json"));
    for path in std::iter::once(&default_path).chain(&out_path) {
        std::fs::write(path, &text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nwrote {}", path.display());
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
