//! Two-clock, per-layer benchmark of the Ascetic reproduction.
//!
//! ```text
//! benchmark --workload W --seed N --seconds S --trace 0|1   one measurement (the driver's form)
//! benchmark run [--seed N] [--seconds S] [--workload W]... [--out FILE]
//! benchmark compare BASE.json NEW.json
//! ```
//!
//! See README.md for the metric tables and how the layers are expected to
//! move the end-to-end numbers.

mod compare;
mod json;
mod layers;
mod measure;
mod runner;
mod spans;
mod spec;
mod stats;
mod workloads;

use std::process::ExitCode;

use measure::{Args, Outcome};
use workloads::Workload;

const USAGE: &str = "usage:
  benchmark --workload W --seed N --seconds S --trace 0|1
  benchmark run [--seed N] [--seconds S] [--workload W]... [--out FILE]
  benchmark compare BASE.json NEW.json
workloads: pr-social bfs-web modes-social serve-churn";

/// `--flag value` pairs, in order.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [flag, value] if flag.starts_with("--") => Ok((flag.as_str(), value.as_str())),
            _ => Err(format!("expected `--flag value`, got {pair:?}")),
        })
        .collect()
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?}"))
}

fn workload(value: &str) -> Result<Workload, String> {
    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))
}

fn measure_args(args: &[String]) -> Result<Args, String> {
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => w = Some(workload(value)?),
            "--seed" => seed = Some(parse::<u64>(flag, value)?),
            "--seconds" => seconds = Some(parse::<f64>(flag, value)?),
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("{f} is required");
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, not {seconds}"));
    }
    Ok(Args {
        workload: w.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// Print one measurement: every metric by name with its unit, then the
/// `detail` line the `run` subcommand reads, then — last — the result
/// object the driver reads.
fn print_outcome(args: &Args, o: &Outcome) {
    println!(
        "# {} seed={} seconds={} trace={} threads={} cores={}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace as u8,
        measure::threads(),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    for (m, v) in &o.metrics {
        let spread = o
            .spreads
            .iter()
            .find(|s| s.0 == m.name)
            .map_or(String::new(), |s| {
                format!("  (median of {}, IQR {:.4})", s.1, s.2)
            });
        println!("{:<32} {:>16.6} {}{}", m.name, v, m.unit, spread);
    }
    println!("{:<32} {:016x}", "virt_fp", o.virt_fp);
    println!("{:<32} {:016x}", "inputs_fp", o.inputs_fp);
    println!(
        "{:<32} {} attempted, {} failed",
        "ops", o.attempted, o.failed
    );
    for n in &o.notes {
        println!("note: {n}");
    }

    let mut detail = format!("detail {{\"virt_fp\":\"{:016x}\",\"spreads\":{{", o.virt_fp);
    for (i, (name, samples, iqr)) in o.spreads.iter().enumerate() {
        if i > 0 {
            detail.push(',');
        }
        detail.push_str(&format!(
            "\"{name}\":{{\"samples\":{samples},\"iqr\":{}}}",
            json::number(*iqr)
        ));
    }
    detail.push_str("}}");
    println!("{detail}");

    let mut line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        o.failed == 0,
        o.attempted,
        o.failed
    );
    for (i, (m, v)) in o.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        line.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name,
            json::number(*v),
            m.unit
        ));
    }
    line.push_str("}}");
    println!("{line}");
}

fn real_main() -> Result<ExitCode, String> {
    // Hermetic: `ASCETIC_POOL` silently switches ascetic-par to spawn
    // dispatch and the bench crate reads more `ASCETIC_*` knobs. Nothing
    // has spawned a thread yet, so editing the environment is sound.
    let stray: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("ASCETIC_"))
        .collect();
    for k in stray {
        std::env::remove_var(k);
    }

    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => runner::run(&args[1..]),
        Some("compare") => match &args[1..] {
            [base, new] => compare::run(base, new),
            _ => Err("compare takes two result files".into()),
        },
        Some(flag) if flag.starts_with("--") => {
            let args = measure_args(&args)?;
            let outcome = measure::run(&args)?;
            print_outcome(&args, &outcome);
            Ok(ExitCode::SUCCESS)
        }
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    real_main().unwrap_or_else(|e| {
        eprintln!("benchmark: {e}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_form_parses_in_any_order() {
        let a = measure_args(&strings(&[
            "--trace",
            "1",
            "--seconds",
            "10",
            "--workload",
            "bfs-web",
            "--seed",
            "42",
        ]))
        .unwrap();
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::BfsWeb, 42, 10.0, true)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            &["--workload", "pr-social", "--seed", "1", "--seconds", "10"][..],
            &[
                "--workload",
                "nope",
                "--seed",
                "1",
                "--seconds",
                "10",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "pr-social",
                "--seed",
                "-1",
                "--seconds",
                "10",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "pr-social",
                "--seed",
                "1",
                "--seconds",
                "0",
                "--trace",
                "0",
            ],
            &[
                "--workload",
                "pr-social",
                "--seed",
                "1",
                "--seconds",
                "10",
                "--trace",
                "2",
            ],
            &["--workload", "pr-social", "--seed"],
            &["--wat", "1"],
        ] {
            assert!(measure_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }
}
