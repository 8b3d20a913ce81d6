//! Table formatting and small statistics helpers.

/// Geometric mean of positive values (the paper's Table 4/5 GEOMEAN rows).
pub fn geomean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "geomean of nothing");
    assert!(xs.iter().all(|&x| x > 0.0), "geomean needs positive values");
    let log_sum: f64 = xs.iter().map(|x| x.ln()).sum();
    (log_sum / xs.len() as f64).exp()
}

/// A simple markdown table builder.
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Table {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header width).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Render as aligned markdown.
    pub fn to_markdown(&self) -> String {
        let cols = self.header.len();
        let mut width = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            width[i] = h.len();
        }
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                width[i] = width[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], width: &[usize]| -> String {
            let body: Vec<String> = cells
                .iter()
                .zip(width)
                .map(|(c, w)| format!("{c:<w$}"))
                .collect();
            format!("| {} |\n", body.join(" | "))
        };
        out.push_str(&fmt_row(&self.header, &width));
        let sep: Vec<String> = width.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("|-{}-|\n", sep.join("-|-")));
        for r in &self.rows {
            out.push_str(&fmt_row(r, &width));
        }
        out
    }

    /// Render as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        out
    }
}

/// One rendered value: humanised for the terminal table, full precision
/// for the CSV.
#[derive(Clone, Debug)]
pub struct Val {
    md: String,
    raw: String,
}

/// A value that reads the same in both renderings.
pub fn text(s: impl ToString) -> Val {
    val(s.to_string(), s)
}

/// A value with separate terminal and CSV renderings.
pub fn val(md: impl Into<String>, raw: impl ToString) -> Val {
    Val {
        md: md.into(),
        raw: raw.to_string(),
    }
}

/// `x` with `md_prec` decimals and a unit on the terminal, `raw_prec`
/// bare decimals in the CSV.
pub fn num(x: f64, md_prec: usize, unit: &str, raw_prec: usize) -> Val {
    val(format!("{x:.md_prec$}{unit}"), format!("{x:.raw_prec$}"))
}

/// Seconds: `0.1234s` on the terminal, microsecond precision in the CSV.
pub fn secs(x: f64) -> Val {
    num(x, 4, "s", 6)
}

/// One result set whose columns are declared once and rendered twice: as
/// markdown (one table, or one per [`Sheet::section`]) and as one CSV. A
/// column is `(markdown header, csv header)`; an empty header leaves the
/// column out of that rendering, and a section's table also leaves out
/// the columns none of its rows has a markdown value for.
pub struct Sheet {
    cols: Vec<(&'static str, &'static str)>,
    rows: Vec<(bool, Vec<Val>)>,
    sections: Vec<(String, usize)>,
}

impl Sheet {
    /// Sheet with the given `(markdown, csv)` column headers.
    pub fn new(cols: &[(&'static str, &'static str)]) -> Sheet {
        Sheet {
            cols: cols.to_vec(),
            rows: Vec::new(),
            sections: Vec::new(),
        }
    }

    /// Append a row: one value per column.
    pub fn row(&mut self, vals: Vec<Val>) {
        assert_eq!(vals.len(), self.cols.len(), "row width mismatch");
        self.rows.push((false, vals));
    }

    /// Append a row the CSV does not carry (the paper's GEOMEAN lines, a
    /// reference row): one value per *markdown* column.
    pub fn md_row(&mut self, cells: Vec<Val>) {
        self.rows.push((true, cells));
    }

    /// Start a new markdown table titled `### title` at the next row; the
    /// CSV stays one table.
    pub fn section(&mut self, title: impl Into<String>) {
        self.sections.push((title.into(), self.rows.len()));
    }

    fn md_table(&self, rows: &[(bool, Vec<Val>)]) -> Table {
        let filled = |i: usize| rows.iter().any(|(md, r)| *md || !r[i].md.is_empty());
        let keep: Vec<usize> = (0..self.cols.len())
            .filter(|&i| !self.cols[i].0.is_empty() && (self.sections.is_empty() || filled(i)))
            .collect();
        let mut t = Table::new(keep.iter().map(|&i| self.cols[i].0).collect());
        for (md_only, r) in rows {
            t.row(match md_only {
                true => r.iter().map(|v| v.md.clone()).collect(),
                false => keep.iter().map(|&i| r[i].md.clone()).collect(),
            });
        }
        t
    }

    /// Exactly what the terminal shows: a blank line and the table, or a
    /// blank line, heading and table per section.
    pub fn to_markdown(&self) -> String {
        if self.sections.is_empty() {
            return format!("\n{}", self.md_table(&self.rows).to_markdown());
        }
        let ends = self.sections.iter().skip(1).map(|s| s.1);
        let ends = ends.chain([self.rows.len()]);
        let parts = self.sections.iter().zip(ends).map(|((title, start), end)| {
            let t = self.md_table(&self.rows[*start..end]);
            format!("\n### {title}\n\n{}", t.to_markdown())
        });
        parts.collect::<Vec<_>>().join("\n")
    }

    /// The full-precision table behind `<experiment>.csv`.
    pub fn to_csv(&self) -> String {
        let keep = |(_, csv): &(&str, &str)| !csv.is_empty();
        let mut t = Table::new(self.cols.iter().filter(|c| keep(c)).map(|c| c.1).collect());
        for (_, r) in self.rows.iter().filter(|(md_only, _)| !md_only) {
            let cells = r.iter().zip(&self.cols).filter(|(_, c)| keep(c));
            t.row(cells.map(|(v, _)| v.raw.clone()).collect());
        }
        t.to_csv()
    }
}

/// Human-readable byte count.
pub fn human_bytes(b: u64) -> String {
    const UNITS: [&str; 5] = ["B", "KB", "MB", "GB", "TB"];
    let mut v = b as f64;
    let mut u = 0;
    while v >= 1024.0 && u < UNITS.len() - 1 {
        v /= 1024.0;
        u += 1;
    }
    if u == 0 {
        format!("{b}B")
    } else {
        format!("{v:.2}{}", UNITS[u])
    }
}

/// Seconds with adaptive precision.
pub fn human_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3}s")
    } else if s >= 1e-3 {
        format!("{:.3}ms", s * 1e3)
    } else {
        format!("{:.1}us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_matches_hand_computation() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert!((geomean(&[1.0, 10.0, 100.0]) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geomean_rejects_zero() {
        geomean(&[1.0, 0.0]);
    }

    #[test]
    fn table_renders_markdown_and_csv() {
        let mut t = Table::new(vec!["a", "bb"]);
        t.row(vec!["1", "2"]);
        t.row(vec!["333", "4"]);
        let md = t.to_markdown();
        assert!(md.contains("| a   | bb |"));
        assert!(md.lines().count() == 4);
        let csv = t.to_csv();
        assert_eq!(csv, "a,bb\n1,2\n333,4\n");
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn table_checks_row_width() {
        let mut t = Table::new(vec!["a"]);
        t.row(vec!["1", "2"]);
    }

    #[test]
    fn humanized_units() {
        assert_eq!(human_bytes(512), "512B");
        assert_eq!(human_bytes(2048), "2.00KB");
        assert_eq!(human_bytes(3 * 1024 * 1024), "3.00MB");
        assert_eq!(human_secs(2.5), "2.500s");
        assert_eq!(human_secs(0.0025), "2.500ms");
        assert_eq!(human_secs(2.5e-6), "2.5us");
    }
}
