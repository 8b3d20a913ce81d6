//! JSONL mutation batches: parsing with line-accurate errors, in the same
//! format family as `ascetic-serve`'s job traces.
//!
//! One mutation per line, a flat JSON object:
//!
//! ```text
//! {"op": "insert", "src": 1, "dst": 2, "weight": 5, "batch": 0}
//! {"op": "delete", "src": 7, "dst": 3, "batch": 1}
//! ```
//!
//! `op`, `src` and `dst` are required. `weight` is required on inserts
//! into a weighted graph, rejected on inserts into an unweighted one, and
//! always rejected on deletes (a delete removes *every* parallel edge).
//! `batch` (default: the previous line's batch, starting at 0) groups
//! consecutive lines into atomic batches and must be non-decreasing — a
//! mutation stream is applied in order, so a line cannot belong to a batch
//! that was already sealed. Blank lines and `#` comments are skipped.
//! Errors carry the 1-based line number, matching the serve trace parser:
//! every variant names the offending field and value so the CLI can print
//! an actionable message and exit nonzero.

use ascetic_graph::Mutation;
use ascetic_obs::json;

/// What went wrong on a mutation line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateErrorKind {
    /// The line is not a flat JSON object (`{"key": value, ...}`).
    Syntax(String),
    /// A required field is absent.
    MissingField(&'static str),
    /// A field holds a value of the wrong type or out of range.
    BadValue {
        /// Field name.
        field: &'static str,
        /// The offending raw text.
        value: String,
    },
    /// `op` is neither `insert` nor `delete`.
    UnknownOp(String),
    /// `weight` given where the graph (or the op) takes none.
    UnexpectedWeight(&'static str),
    /// Insert into a weighted graph without a `weight`.
    MissingWeight,
    /// `batch` went backwards relative to an earlier line.
    BatchOutOfOrder {
        /// The offending batch id.
        batch: u64,
        /// The batch id already in progress.
        prev: u64,
    },
    /// An endpoint is out of range for the graph being mutated.
    EndpointOutOfRange {
        /// The offending vertex id.
        vertex: u32,
        /// Vertices in the graph.
        num_vertices: usize,
    },
}

/// A malformed mutation line (1-based `line`), styled after
/// `ascetic_serve::TraceError`: one sentence naming the field, the value
/// and the rule it broke.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutateError {
    /// 1-based line number in the mutation file.
    pub line: usize,
    /// What was wrong with it.
    pub kind: MutateErrorKind,
}

impl std::fmt::Display for MutateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "mutation line {}: ", self.line)?;
        match &self.kind {
            MutateErrorKind::Syntax(what) => {
                write!(f, "{what} (expected a flat JSON object per line)")
            }
            MutateErrorKind::MissingField(field) => {
                write!(f, "missing required field \"{field}\"")
            }
            MutateErrorKind::BadValue { field, value } => {
                write!(f, "field \"{field}\" has invalid value {value}")
            }
            MutateErrorKind::UnknownOp(op) => {
                write!(f, "unknown op \"{op}\" (expected \"insert\" or \"delete\")")
            }
            MutateErrorKind::UnexpectedWeight(why) => {
                write!(f, "\"weight\" given but {why}")
            }
            MutateErrorKind::MissingWeight => {
                write!(f, "insert into a weighted graph requires a \"weight\"")
            }
            MutateErrorKind::BatchOutOfOrder { batch, prev } => {
                write!(
                    f,
                    "batch {batch} after batch {prev} (batch ids must be non-decreasing)"
                )
            }
            MutateErrorKind::EndpointOutOfRange {
                vertex,
                num_vertices,
            } => write!(
                f,
                "vertex {vertex} out of range for a graph with {num_vertices} vertices"
            ),
        }
    }
}

impl std::error::Error for MutateError {}

fn bad_value(field: &'static str, value: &str) -> MutateErrorKind {
    MutateErrorKind::BadValue {
        field,
        value: value.to_string(),
    }
}

fn parse_u64(value: &str, field: &'static str) -> Result<u64, MutateErrorKind> {
    value.parse().map_err(|_| bad_value(field, value))
}

fn parse_u32(value: &str, field: &'static str) -> Result<u32, MutateErrorKind> {
    u32::try_from(parse_u64(value, field)?).map_err(|_| bad_value(field, value))
}

fn parse_string<'a>(value: &'a str, field: &'static str) -> Result<&'a str, MutateErrorKind> {
    json::unquote(value).ok_or_else(|| bad_value(field, value))
}

/// One line, typed but not yet grouped.
struct Record {
    mutation: Mutation,
    batch: Option<u64>,
}

fn parse_line(line: &str, weighted: Option<bool>) -> Result<Record, MutateErrorKind> {
    // a mutation line is a flat record, not a document
    let fields = json::split_fields(line).map_err(MutateErrorKind::Syntax)?;
    let mut op = None;
    let mut src = None;
    let mut dst = None;
    let mut weight = None;
    let mut batch = None;
    for (key, value) in fields {
        match key {
            "op" => op = Some(parse_string(value, "op")?),
            "src" => src = Some(parse_u32(value, "src")?),
            "dst" => dst = Some(parse_u32(value, "dst")?),
            "weight" => weight = Some(parse_u32(value, "weight")?),
            "batch" => batch = Some(parse_u64(value, "batch")?),
            other => {
                return Err(MutateErrorKind::Syntax(format!(
                    "unknown field \"{other}\""
                )));
            }
        }
    }
    let op = op.ok_or(MutateErrorKind::MissingField("op"))?;
    let src = src.ok_or(MutateErrorKind::MissingField("src"))?;
    let dst = dst.ok_or(MutateErrorKind::MissingField("dst"))?;
    let mutation = match op {
        "insert" => {
            match weighted {
                Some(true) if weight.is_none() => return Err(MutateErrorKind::MissingWeight),
                Some(false) if weight.is_some() => {
                    return Err(MutateErrorKind::UnexpectedWeight("the graph is unweighted"))
                }
                _ => {}
            }
            Mutation::Insert { src, dst, weight }
        }
        "delete" => {
            if weight.is_some() {
                return Err(MutateErrorKind::UnexpectedWeight(
                    "a delete removes every parallel edge regardless of weight",
                ));
            }
            Mutation::Delete { src, dst }
        }
        other => return Err(MutateErrorKind::UnknownOp(other.into())),
    };
    Ok(Record { mutation, batch })
}

/// Parse a JSONL mutation stream into ordered batches. `num_vertices`,
/// when known, bounds both endpoints; `weighted`, when known, enforces the
/// weight rules at parse time (otherwise `PatchableCsr::apply` still
/// enforces them at patch time).
pub fn parse_mutations(
    text: &str,
    num_vertices: Option<usize>,
    weighted: Option<bool>,
) -> Result<Vec<Vec<Mutation>>, MutateError> {
    let mut batches: Vec<Vec<Mutation>> = Vec::new();
    let mut current_batch = 0u64;
    for (i, line) in text.lines().enumerate() {
        let lineno = i + 1;
        let at = |kind| MutateError { line: lineno, kind };
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let rec = parse_line(trimmed, weighted).map_err(at)?;
        let batch = rec.batch.unwrap_or(current_batch);
        if batch < current_batch {
            return Err(at(MutateErrorKind::BatchOutOfOrder {
                batch,
                prev: current_batch,
            }));
        }
        if let Some(n) = num_vertices {
            let (src, dst) = match rec.mutation {
                Mutation::Insert { src, dst, .. } => (src, dst),
                Mutation::Delete { src, dst } => (src, dst),
            };
            for v in [src, dst] {
                if v as usize >= n {
                    return Err(at(MutateErrorKind::EndpointOutOfRange {
                        vertex: v,
                        num_vertices: n,
                    }));
                }
            }
        }
        if batch > current_batch || batches.is_empty() {
            current_batch = batch;
            batches.push(Vec::new());
        }
        batches.last_mut().expect("just ensured").push(rec.mutation);
    }
    Ok(batches)
}

/// Serialize batches back to the JSONL mutation format (inverse of
/// [`parse_mutations`]; used by the bench and CI to persist generated
/// churn).
pub fn to_jsonl(batches: &[Vec<Mutation>]) -> String {
    let mut out = String::new();
    for (b, batch) in batches.iter().enumerate() {
        for m in batch {
            match *m {
                Mutation::Insert { src, dst, weight } => {
                    out.push_str(&format!(
                        "{{\"op\": \"insert\", \"src\": {src}, \"dst\": {dst}"
                    ));
                    if let Some(w) = weight {
                        out.push_str(&format!(", \"weight\": {w}"));
                    }
                }
                Mutation::Delete { src, dst } => {
                    out.push_str(&format!(
                        "{{\"op\": \"delete\", \"src\": {src}, \"dst\": {dst}"
                    ));
                }
            }
            out.push_str(&format!(", \"batch\": {b}}}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_lines_into_batches() {
        let text = "# churn\n\
                    {\"op\": \"insert\", \"src\": 1, \"dst\": 2, \"weight\": 5, \"batch\": 0}\n\
                    \n\
                    {\"op\": \"delete\", \"src\": 7, \"dst\": 3}\n\
                    {\"op\": \"insert\", \"src\": 0, \"dst\": 4, \"weight\": 1, \"batch\": 2}\n";
        let batches = parse_mutations(text, Some(10), Some(true)).unwrap();
        assert_eq!(
            batches,
            vec![
                vec![
                    Mutation::Insert {
                        src: 1,
                        dst: 2,
                        weight: Some(5)
                    },
                    Mutation::Delete { src: 7, dst: 3 },
                ],
                vec![Mutation::Insert {
                    src: 0,
                    dst: 4,
                    weight: Some(1)
                }],
            ],
            "batch 1 is empty so only two batches materialize"
        );
    }

    #[test]
    fn errors_carry_the_line_number() {
        let text = "{\"op\": \"insert\", \"src\": 0, \"dst\": 1}\nnot json\n";
        let err = parse_mutations(text, None, None).unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().starts_with("mutation line 2: "));

        let err = parse_mutations("{\"op\": \"upsert\", \"src\": 0, \"dst\": 1}\n", None, None)
            .unwrap_err();
        assert_eq!(err.kind, MutateErrorKind::UnknownOp("upsert".into()));
        assert!(err.to_string().contains("unknown op"));
    }

    #[test]
    fn field_rules_are_enforced() {
        let missing =
            parse_mutations("{\"op\": \"insert\", \"dst\": 1}\n", None, None).unwrap_err();
        assert_eq!(missing.kind, MutateErrorKind::MissingField("src"));

        let unweighted = parse_mutations(
            "{\"op\": \"insert\", \"src\": 0, \"dst\": 1, \"weight\": 3}\n",
            None,
            Some(false),
        )
        .unwrap_err();
        assert!(matches!(
            unweighted.kind,
            MutateErrorKind::UnexpectedWeight(_)
        ));

        let weightless = parse_mutations(
            "{\"op\": \"insert\", \"src\": 0, \"dst\": 1}\n",
            None,
            Some(true),
        )
        .unwrap_err();
        assert_eq!(weightless.kind, MutateErrorKind::MissingWeight);

        let weighted_delete = parse_mutations(
            "{\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"weight\": 3}\n",
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            weighted_delete.kind,
            MutateErrorKind::UnexpectedWeight(_)
        ));

        let oob = parse_mutations(
            "{\"op\": \"delete\", \"src\": 0, \"dst\": 9}\n",
            Some(5),
            None,
        )
        .unwrap_err();
        assert_eq!(
            oob.kind,
            MutateErrorKind::EndpointOutOfRange {
                vertex: 9,
                num_vertices: 5
            }
        );

        let backwards = parse_mutations(
            "{\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"batch\": 3}\n\
             {\"op\": \"delete\", \"src\": 0, \"dst\": 1, \"batch\": 1}\n",
            None,
            None,
        )
        .unwrap_err();
        assert_eq!(backwards.line, 2);
        assert_eq!(
            backwards.kind,
            MutateErrorKind::BatchOutOfOrder { batch: 1, prev: 3 }
        );

        let bad = parse_mutations(
            "{\"op\": \"delete\", \"src\": -4, \"dst\": 1}\n",
            None,
            None,
        )
        .unwrap_err();
        assert!(matches!(
            bad.kind,
            MutateErrorKind::BadValue { field: "src", .. }
        ));
    }

    #[test]
    fn jsonl_round_trips() {
        let batches = vec![
            vec![
                Mutation::Insert {
                    src: 3,
                    dst: 4,
                    weight: None,
                },
                Mutation::Delete { src: 1, dst: 0 },
            ],
            vec![Mutation::Insert {
                src: 0,
                dst: 2,
                weight: None,
            }],
        ];
        let text = to_jsonl(&batches);
        let back = parse_mutations(&text, Some(5), Some(false)).unwrap();
        assert_eq!(batches, back);
    }
}
