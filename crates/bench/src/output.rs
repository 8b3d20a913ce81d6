//! The one emission path: markdown to stdout, `<experiment>.csv` under
//! `$ASCETIC_RESULTS`, `BENCH_<name>.json` beside it (or in the current
//! directory), and acceptance checks as data.

use crate::fmt::{Sheet, Table};
use ascetic_obs::json::{self, Layout, Object};
use std::path::PathBuf;

pub use ascetic_core::RUN_REPORT_SCHEMA_VERSION as SCHEMA_VERSION;

/// The schema generation this crate's emitters were written against.
///
/// When [`ascetic_core::RUN_REPORT_SCHEMA_VERSION`] moves, every
/// `BENCH_*.json` layout must be revisited and the committed artifacts
/// regenerated. Keeping a local copy that [`bench_json`] checks makes a
/// stale bench crate fail fast in debug/test builds instead of silently
/// stamping the new version onto an old layout.
pub const EMITTED_SCHEMA_VERSION: u32 = 3;

/// A whole `BENCH_*.json` document, written by `obs::json` in its house
/// layout ([`Layout::House`]: top-level fields one per line, their items
/// one per line, everything deeper inline): the [`SCHEMA_VERSION`] stamp
/// and bench identity first, so downstream parsers can branch on layout
/// before touching bench-specific fields, then the members `body` writes.
pub fn bench_json(bench: &str, smoke: bool, body: impl FnOnce(&mut Object<'_>)) -> String {
    debug_assert_eq!(
        SCHEMA_VERSION, EMITTED_SCHEMA_VERSION,
        "RUN_REPORT_SCHEMA_VERSION moved ({SCHEMA_VERSION}) but the bench emitters still \
         target {EMITTED_SCHEMA_VERSION}; revisit the BENCH_*.json layouts and regenerate \
         the committed artifacts before bumping EMITTED_SCHEMA_VERSION"
    );
    let mut doc = String::new();
    json::object_in(Layout::House, 0, &mut doc, |o| {
        o.num("schema_version", SCHEMA_VERSION)
            .str("bench", bench)
            .num("smoke", smoke);
        body(o);
    });
    doc.push('\n');
    doc
}

/// `<ASCETIC_RESULTS>/<file>` (directory created on demand) when the
/// variable is set.
pub fn output_path(file: &str) -> Option<PathBuf> {
    let dir = std::env::var("ASCETIC_RESULTS")
        .ok()
        .filter(|d| !d.is_empty())?;
    std::fs::create_dir_all(&dir).expect("create $ASCETIC_RESULTS dir");
    Some(PathBuf::from(dir).join(file))
}

/// Write `content` as `<ASCETIC_RESULTS>/<file>` when the variable is set.
pub fn write_csv(file: &str, content: &str) -> Option<PathBuf> {
    let path = output_path(file)?;
    std::fs::write(&path, content).expect("write CSV under $ASCETIC_RESULTS");
    eprintln!("wrote {}", path.display());
    Some(path)
}

/// Write a [`bench_json`] document as `BENCH_<bench>.json` — under
/// `$ASCETIC_RESULTS`, else in the current directory — and say where.
pub fn write_json(bench: &str, smoke: bool, body: impl FnOnce(&mut Object<'_>)) {
    let file = format!("BENCH_{bench}.json");
    let path = output_path(&file).unwrap_or_else(|| PathBuf::from(file));
    std::fs::write(&path, bench_json(bench, smoke, body)).expect("write BENCH json");
    println!("wrote {}", path.display());
}

/// Print `sheet`'s markdown and write its CSV as `<name>.csv`.
pub fn emit(name: &str, sheet: &Sheet) {
    println!("{}", sheet.to_markdown());
    write_csv(&format!("{name}.csv"), &sheet.to_csv());
}

/// [`emit`] for experiments whose terminal table is a pivot of the CSV
/// rather than a rendering of the same rows.
pub fn emit_pivot(name: &str, display: &Table, raw: &Table) {
    println!("\n{}", display.to_markdown());
    write_csv(&format!("{name}.csv"), &raw.to_csv());
}

/// One acceptance check, as data: printed with the experiment's results,
/// fatal only at full scale and only after every output is written.
#[derive(Clone, Debug)]
pub struct Check {
    /// The experiment that made it.
    pub experiment: &'static str,
    /// What must hold.
    pub name: String,
    /// What was measured.
    pub measured: String,
    /// The bound it was held against.
    pub bound: String,
    /// Whether it held.
    pub ok: bool,
}

/// The `#### checks` block printed after an experiment's own output.
pub fn checks_markdown(checks: &[Check]) -> String {
    let mut t = Table::new(vec!["check", "measured", "bound", "ok"]);
    for c in checks {
        let ok = if c.ok { "ok" } else { "FAILED" };
        t.row(vec![c.name.as_str(), &c.measured, &c.bound, ok]);
    }
    format!("\n#### checks\n\n{}", t.to_markdown())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fmt::text;

    #[test]
    fn bench_json_stamps_the_schema_and_breaks_lines_one_level_deep() {
        let doc = bench_json("some_bench", false, |o| {
            o.num("scale", 7).array("cells", |a| {
                a.object(|c| {
                    c.object("a", |a| {
                        a.num("b", 1);
                    });
                });
            });
            o.object("totals", |t| {
                t.num("ok", true).num("n", 2);
            });
        });
        let want = format!(
            "{{\n  \"schema_version\": {EMITTED_SCHEMA_VERSION},\n  \"bench\": \"some_bench\",\n  \
             \"smoke\": false,\n  \"scale\": 7,\n  \"cells\": [\n    {{\"a\": {{\"b\": 1}}}}\n  ],\n  \
             \"totals\": {{\n    \"ok\": true,\n    \"n\": 2\n  }}\n}}\n"
        );
        assert_eq!(doc, want);
    }

    #[test]
    fn csv_is_named_after_the_experiment_and_needs_the_results_dir() {
        // Serial by construction: this is the only test in the crate that
        // touches ASCETIC_RESULTS.
        std::env::remove_var("ASCETIC_RESULTS");
        assert!(write_csv("some_bench.csv", "a,b\n").is_none());
        assert!(output_path("BENCH_x.json").is_none());

        let dir = std::env::temp_dir().join(format!("ascetic-output-{}", std::process::id()));
        std::env::set_var("ASCETIC_RESULTS", &dir);
        let mut s = Sheet::new(&[("A", "a"), ("", "b")]);
        s.row(vec![text(1), text(2)]);
        let path = write_csv("some_bench.csv", &s.to_csv()).expect("env set, should write");
        std::env::remove_var("ASCETIC_RESULTS");
        assert_eq!(path, dir.join("some_bench.csv"));
        assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
        std::fs::remove_dir_all(&dir).ok();
    }
}
