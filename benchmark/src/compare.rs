//! `benchmark compare BASE.json NEW.json`: one row per (workload,
//! end-to-end metric) with base, new, their ratio and a verdict.
//!
//! The verdicts follow the choosing-metrics rule: a metric whose
//! run-to-run spread is wider than its bound is *unresolved*, not
//! unchanged. Two files of one seed are held to the tight same-seed
//! bounds; files of different seeds to the wide ones of BENCHMARK.json.
//! The exit code is non-zero on any regressed row, on a higher
//! failed/attempted share, and (with a different code) on unresolved rows,
//! so the same command serves as the two-sets acceptance check.

use std::process::ExitCode;

use crate::json::{self, Value};
use crate::spec::{Better, MetricSpec, END_TO_END};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    Unchanged,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a row: the reported value and the IQR of the samples behind
/// it (0 for a value that is not a median, such as a virtual-clock total).
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub iqr: f64,
}

/// Judge `new` against `base` for a metric with regression bound `bound`.
pub fn verdict(better: Better, bound: f64, base: Side, new: Side) -> Verdict {
    let spread = (base.iqr / base.value).max(new.iqr / new.value);
    if spread > bound {
        return Verdict::Unresolved;
    }
    // how much worse `new` is, as a share of base (negative = better)
    let worse = match better {
        Better::Lower => (new.value - base.value) / base.value,
        Better::Higher => (base.value - new.value) / base.value,
    };
    if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

fn side(workload: &Value, metric: &str) -> Option<Side> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Side {
        value: m.get("value")?.as_f64()?,
        iqr: m.get("iqr").and_then(Value::as_f64).unwrap_or(0.0),
    })
}

fn failed_share(workload: &Value) -> Option<f64> {
    let failed = workload.get("failed")?.as_f64()?;
    let attempted = workload.get("attempted")?.as_f64()?;
    Some(failed / attempted.max(1.0))
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn workloads(doc: &Value) -> &[Value] {
    doc.get("workloads")
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// Compare two parsed result files; returns the report text and the worst
/// thing found (`Unchanged` when every row is unchanged or improved).
pub fn compare(
    base: &Value,
    new: &Value,
    table: &[MetricSpec],
) -> Result<(String, Verdict), String> {
    let mut out = format!(
        "{:<13} {:<12} {:>14} {:>14} {:>8}  {:<6} verdict\n",
        "workload", "metric", "base", "new", "new/base", "bound"
    );
    let mut worst = Verdict::Unchanged;
    let mut rows = 0;
    let same_seed = base.get("seed").is_some() && base.get("seed") == new.get("seed");
    for b in workloads(base) {
        let name = b
            .get("name")
            .and_then(Value::as_str)
            .ok_or("a workload has no name")?;
        let Some(n) = workloads(new)
            .iter()
            .find(|w| w.get("name").and_then(Value::as_str) == Some(name))
        else {
            continue; // a one-workload run compares what it has
        };
        for m in table {
            let (Some(bs), Some(ns)) = (side(b, m.name), side(n, m.name)) else {
                return Err(format!("{name}: {} is missing from a file", m.name));
            };
            let bound = if same_seed {
                m.same_seed_bound
            } else {
                m.bound
            }
            .expect("end-to-end metrics carry bounds");
            let v = verdict(m.better, bound, bs, ns);
            out.push_str(&format!(
                "{name:<13} {:<12} {:>14.6} {:>14.6} {:>8.4}  {:<6} {}\n",
                m.name,
                bs.value,
                ns.value,
                ns.value / bs.value,
                format!("{}%", bound * 100.0),
                v.as_str()
            ));
            rows += 1;
            if v == Verdict::Regressed || (v == Verdict::Unresolved && worst != Verdict::Regressed)
            {
                worst = v;
            }
        }
        let same_fp = b.get("virt_fp").is_some() && b.get("virt_fp") == n.get("virt_fp");
        out.push_str(&format!(
            "{name:<13} virt_fp      {}\n",
            match (same_fp, same_seed) {
                (true, _) => "every simulated statistic identical",
                (false, true) => "CHANGED: the simulated results differ (same seed)",
                (false, false) => "differs (different seeds, as it must)",
            }
        ));
        let (bf, nf) = (failed_share(b), failed_share(n));
        if nf > bf {
            out.push_str(&format!(
                "{name:<13} failed/ops   {:.4} -> {:.4}  regressed\n",
                bf.unwrap_or(0.0),
                nf.unwrap_or(0.0)
            ));
            worst = Verdict::Regressed;
        }
    }
    if rows == 0 {
        return Err("the two files share no workload".into());
    }
    Ok((out, worst))
}

pub fn run(base_path: &str, new_path: &str) -> Result<ExitCode, String> {
    let (base, new) = (load(base_path)?, load(new_path)?);
    let (report, worst) = compare(&base, &new, END_TO_END)?;
    print!("{report}");
    Ok(match worst {
        Verdict::Regressed => ExitCode::from(1),
        Verdict::Unresolved => ExitCode::from(3),
        _ => ExitCode::SUCCESS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(value: f64, iqr: f64) -> Side {
        Side { value, iqr }
    }

    #[test]
    fn verdicts_on_hand_made_inputs() {
        use Better::{Higher, Lower};
        use Verdict::*;
        // lower is better, 5 % bound
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.0), s(1.04, 0.0)), Unchanged);
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.0), s(1.06, 0.0)), Regressed);
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.0), s(0.94, 0.0)), Improved);
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.0), s(0.96, 0.0)), Unchanged);
        // higher is better: the same numbers read the other way
        assert_eq!(verdict(Higher, 0.05, s(2.0, 0.0), s(1.8, 0.0)), Regressed);
        assert_eq!(verdict(Higher, 0.05, s(2.0, 0.0), s(2.2, 0.0)), Improved);
        assert_eq!(verdict(Higher, 0.05, s(2.0, 0.0), s(2.05, 0.0)), Unchanged);
        // either side's spread wider than the bound: cannot tell
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.06), s(1.5, 0.0)), Unresolved);
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.0), s(1.0, 0.07)), Unresolved);
        assert_eq!(verdict(Lower, 0.05, s(1.0, 0.04), s(1.0, 0.04)), Unchanged);
        // exact metrics (IQR 0) with identical values
        assert_eq!(verdict(Lower, 0.25, s(48.8, 0.0), s(48.8, 0.0)), Unchanged);
    }

    fn file(seed: u32, wall: f64, iqr: f64, sim: f64, failed: u32, fp: &str) -> Value {
        json::parse(&format!(
            r#"{{"seed":{seed},"workloads":[{{"name":"w","attempted":10,"failed":{failed},"virt_fp":"{fp}",
               "end_to_end":{{"wall_s":{{"value":{wall},"unit":"s","samples":9,"iqr":{iqr}}},
                              "sim_ms":{{"value":{sim},"unit":"ms"}}}}}}]}}"#
        ))
        .unwrap()
    }

    const TABLE: &[MetricSpec] = &[
        MetricSpec {
            name: "wall_s",
            unit: "s",
            better: Better::Lower,
            bound: Some(0.25),
            same_seed_bound: Some(0.05),
        },
        MetricSpec {
            name: "sim_ms",
            unit: "ms",
            better: Better::Lower,
            bound: Some(0.25),
            same_seed_bound: Some(0.005),
        },
    ];

    #[test]
    fn files_compare_row_by_row() {
        let base = file(1, 1.0, 0.01, 50.0, 0, "aa");
        let (text, worst) = compare(&base, &file(1, 1.01, 0.01, 50.0, 0, "aa"), TABLE).unwrap();
        assert_eq!(worst, Verdict::Unchanged);
        assert!(text.contains("every simulated statistic identical"));
        assert_eq!(text.matches("unchanged").count(), 2);

        let (text, worst) = compare(&base, &file(1, 0.8, 0.01, 51.0, 0, "bb"), TABLE).unwrap();
        assert_eq!(
            worst,
            Verdict::Regressed,
            "sim_ms moved 2 % against a 0.5 % bound"
        );
        assert!(
            text.contains("improved") && text.contains("regressed") && text.contains("CHANGED")
        );

        let (_, worst) = compare(&base, &file(1, 1.0, 0.2, 50.0, 0, "aa"), TABLE).unwrap();
        assert_eq!(worst, Verdict::Unresolved);

        let (text, worst) = compare(&base, &file(1, 1.0, 0.01, 50.0, 1, "aa"), TABLE).unwrap();
        assert_eq!(worst, Verdict::Regressed, "more failed operations");
        assert!(text.contains("failed/ops"));

        // another seed: other inputs, so the wide bounds apply
        let (text, worst) = compare(&base, &file(2, 1.1, 0.01, 55.0, 0, "cc"), TABLE).unwrap();
        assert_eq!(worst, Verdict::Unchanged);
        assert!(text.contains("different seeds"));
    }

    #[test]
    fn files_that_cannot_be_compared_are_errors() {
        let base = file(1, 1.0, 0.01, 50.0, 0, "aa");
        let other = json::parse(r#"{"seed":1,"workloads":[{"name":"x"}]}"#).unwrap();
        assert!(compare(&base, &other, TABLE).is_err());
        let partial =
            json::parse(r#"{"seed":1,"workloads":[{"name":"w","end_to_end":{}}]}"#).unwrap();
        assert!(compare(&base, &partial, TABLE).is_err());
    }
}
