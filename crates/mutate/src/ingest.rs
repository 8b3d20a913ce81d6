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
//! This is the record `ascetic-serve`'s mutating traces interleave with
//! their jobs — one parser, [`ascetic_obs::json::EdgeRecord`], reads both,
//! so `mutate` / `at` are accepted for `op` / `batch`.
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
use ascetic_obs::json::{self, EdgeRecord, RecordError};

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

impl From<RecordError> for MutateErrorKind {
    fn from(e: RecordError) -> Self {
        match e {
            RecordError::Syntax(what) => MutateErrorKind::Syntax(what),
            RecordError::MissingField(field) => MutateErrorKind::MissingField(field),
            RecordError::BadValue { field, value } => MutateErrorKind::BadValue { field, value },
            RecordError::UnknownOp(op) => MutateErrorKind::UnknownOp(op),
            RecordError::WeightOnDelete => MutateErrorKind::UnexpectedWeight(
                "a delete removes every parallel edge regardless of weight",
            ),
        }
    }
}

/// Parse a JSONL mutation stream into ordered batches. `num_vertices`,
/// when known, bounds both endpoints; `weighted`, when known, enforces the
/// weight rules at parse time (otherwise `Csr::check_batch` still
/// enforces them before anything is patched).
pub fn parse_mutations(
    text: &str,
    num_vertices: Option<usize>,
    weighted: Option<bool>,
) -> Result<Vec<Vec<Mutation>>, MutateError> {
    let mut batches: Vec<Vec<Mutation>> = Vec::new();
    let mut current_batch = 0u64;
    for (line, fields) in json::records(text) {
        let at = |kind| MutateError { line, kind };
        let parsed = fields.and_then(|fields| EdgeRecord::parse(&fields));
        let rec = parsed.map_err(|e| at(e.into()))?;
        let EdgeRecord {
            src, dst, weight, ..
        } = rec;
        let mutation = match (rec.insert, weighted, weight) {
            (false, ..) => Mutation::Delete { src, dst },
            (true, Some(true), None) => return Err(at(MutateErrorKind::MissingWeight)),
            (true, Some(false), Some(_)) => {
                let why = "the graph is unweighted";
                return Err(at(MutateErrorKind::UnexpectedWeight(why)));
            }
            (true, ..) => Mutation::Insert { src, dst, weight },
        };
        let batch = rec.stamp.unwrap_or(current_batch);
        if batch < current_batch {
            return Err(at(MutateErrorKind::BatchOutOfOrder {
                batch,
                prev: current_batch,
            }));
        }
        if let Some(n) = num_vertices {
            if let Some(vertex) = rec.endpoint_beyond(n) {
                return Err(at(MutateErrorKind::EndpointOutOfRange {
                    vertex,
                    num_vertices: n,
                }));
            }
        }
        if batch > current_batch || batches.is_empty() {
            current_batch = batch;
            batches.push(Vec::new());
        }
        batches.last_mut().expect("just ensured").push(mutation);
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
