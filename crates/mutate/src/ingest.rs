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
//! an actionable message and exit nonzero. Each line is read by
//! `obs::json`'s one parser; the faults both files share are one
//! [`RecordError`], worded once, and only the graph's weight rules and
//! the batch order are this file's own.

use ascetic_graph::Mutation;
use ascetic_obs::json::{self, EdgeRecord, RecordError};

/// What went wrong on a mutation line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MutateErrorKind {
    /// A fault every record file shares (syntax, a missing or bad field,
    /// an unknown op, a weighted delete, an endpoint past the graph),
    /// worded by [`RecordError`].
    Record(RecordError),
    /// `weight` given on an insert into an unweighted graph.
    UnexpectedWeight,
    /// Insert into a weighted graph without a `weight`.
    MissingWeight,
    /// `batch` went backwards relative to an earlier line.
    BatchOutOfOrder {
        /// The offending batch id.
        batch: u64,
        /// The batch id already in progress.
        prev: u64,
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
            MutateErrorKind::Record(e) => write!(f, "{e}"),
            MutateErrorKind::UnexpectedWeight => {
                write!(f, "\"weight\" given but the graph is unweighted")
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
        }
    }
}

impl std::error::Error for MutateError {}

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
        let parsed = fields.and_then(|fields| EdgeRecord::parse(&fields, num_vertices));
        let rec = parsed.map_err(|e| at(MutateErrorKind::Record(e)))?;
        let EdgeRecord {
            src, dst, weight, ..
        } = rec;
        let mutation = match (rec.insert, weighted, weight) {
            (false, ..) => Mutation::Delete { src, dst },
            (true, Some(true), None) => return Err(at(MutateErrorKind::MissingWeight)),
            (true, Some(false), Some(_)) => return Err(at(MutateErrorKind::UnexpectedWeight)),
            (true, ..) => Mutation::Insert { src, dst, weight },
        };
        let batch = rec.stamp.unwrap_or(current_batch);
        if batch < current_batch {
            return Err(at(MutateErrorKind::BatchOutOfOrder {
                batch,
                prev: current_batch,
            }));
        }
        if batch > current_batch || batches.is_empty() {
            current_batch = batch;
            batches.push(Vec::new());
        }
        batches.last_mut().expect("just ensured").push(mutation);
    }
    Ok(batches)
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
        let op = "upsert".into();
        let kind = MutateErrorKind::Record(RecordError::UnknownOp { key: "op", op });
        assert_eq!(err.kind, kind);
        assert!(err.to_string().contains("unknown op"));
    }

    #[test]
    fn field_rules_are_enforced() {
        let missing =
            parse_mutations("{\"op\": \"insert\", \"dst\": 1}\n", None, None).unwrap_err();
        let kind = MutateErrorKind::Record(RecordError::MissingField("src"));
        assert_eq!(missing.kind, kind);

        let unweighted = parse_mutations(
            "{\"op\": \"insert\", \"src\": 0, \"dst\": 1, \"weight\": 3}\n",
            None,
            Some(false),
        )
        .unwrap_err();
        assert_eq!(unweighted.kind, MutateErrorKind::UnexpectedWeight);

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
        let kind = MutateErrorKind::Record(RecordError::WeightOnDelete);
        assert_eq!(weighted_delete.kind, kind);

        let oob = parse_mutations(
            "{\"op\": \"delete\", \"src\": 0, \"dst\": 9}\n",
            Some(5),
            None,
        )
        .unwrap_err();
        let kind = RecordError::EndpointOutOfRange {
            vertex: 9,
            num_vertices: 5,
        };
        assert_eq!(oob.kind, MutateErrorKind::Record(kind));

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
            MutateErrorKind::Record(RecordError::BadValue { field: "src", .. })
        ));
    }
}
