//! The CQMS data model: queries as first-class managed objects.
//!
//! "A query is the primary data type in a CQMS" (§4.1). A [`QueryRecord`]
//! bundles everything the paper's data-model discussion calls for: the raw
//! text, the canonical parse tree, extracted syntactic features, runtime
//! features, a semantic output summary, session membership, annotations,
//! access control and maintenance state.

use crate::features::{self, SyntacticFeatures};
use relstore::Catalog;
use sqlparse::ast::Statement;
use sqlparse::EditOp;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident, $inner:ty) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
        pub struct $name(pub $inner);

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}", self.0)
            }
        }
    };
}

id_type!(
    /// Identifier of a logged query (dense, assigned by the Query Storage).
    QueryId,
    u64
);
id_type!(
    /// Identifier of a CQMS user.
    UserId,
    u32
);
id_type!(
    /// Identifier of a query session (a tree of related queries, §4.1).
    SessionId,
    u64
);
id_type!(
    /// Identifier of a collaboration group (§2.4 access control).
    GroupId,
    u32
);

/// Who may see a logged query (paper §2.4: "restrict knowledge transfer to
/// only group members collaborating with each other").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Visibility {
    /// Only the author.
    Private,
    /// The author's named group.
    Group(GroupId),
    /// Everyone.
    Public,
}

/// Runtime features captured by the profiler (§4.1: "result cardinality,
/// execution time, and the query execution plan").
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RuntimeFeatures {
    /// Execution time in microseconds.
    pub elapsed_us: u64,
    /// Number of rows the query returned.
    pub cardinality: u64,
    /// Rows the executor touched while answering.
    pub rows_scanned: u64,
    /// The execution plan, rendered as one line.
    pub plan: String,
    /// Logical (catalog-clock) time of execution; compared against schema
    /// change timestamps by Query Maintenance (§4.4).
    pub logical_time: u64,
    /// Whether execution succeeded.
    pub success: bool,
    /// The error text when `success == false`.
    pub error: Option<String>,
}

/// Semantic output summary (§4.1 "Profiling query results"). Cell values are
/// stored in rendered form; query-by-data matches against them.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputSummary {
    /// Not captured (profiling depth below `Full`, or failed execution).
    None,
    /// The complete output (small results / expensive queries).
    Full {
        /// Output column names.
        columns: Vec<String>,
        /// Every output row, cells rendered as text.
        rows: Vec<Vec<String>>,
    },
    /// A reservoir sample of a larger output.
    Sample {
        /// Output column names.
        columns: Vec<String>,
        /// The sampled rows, cells rendered as text.
        rows: Vec<Vec<String>>,
        /// Cardinality of the full output the sample was drawn from.
        total_rows: u64,
    },
}

impl OutputSummary {
    /// Number of rows physically stored (0 for [`OutputSummary::None`]).
    pub fn row_count_stored(&self) -> usize {
        match self {
            OutputSummary::None => 0,
            OutputSummary::Full { rows, .. } | OutputSummary::Sample { rows, .. } => rows.len(),
        }
    }

    /// Is this summary exhaustive (query-by-data can trust exclusions)?
    pub fn is_exhaustive(&self) -> bool {
        matches!(self, OutputSummary::Full { .. })
    }

    /// Does any stored cell equal `needle` (case-insensitive)?
    pub fn contains_value(&self, needle: &str) -> bool {
        let rows = match self {
            OutputSummary::None => return false,
            OutputSummary::Full { rows, .. } | OutputSummary::Sample { rows, .. } => rows,
        };
        rows.iter()
            .any(|r| r.iter().any(|c| c.eq_ignore_ascii_case(needle)))
    }
}

/// A free-text annotation on a whole query or a fragment of it (§2.1).
#[derive(Debug, Clone, PartialEq)]
pub struct Annotation {
    /// Who wrote it.
    pub author: UserId,
    /// Trace-time seconds.
    pub at: u64,
    /// The annotation body.
    pub text: String,
    /// When set, the annotation targets this exact fragment of the SQL text
    /// (e.g. an outer-join clause the author wants to explain).
    pub fragment: Option<String>,
}

/// Maintenance status of a stored query (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub enum Validity {
    /// Healthy: searchable, recommendable, re-executable.
    Valid,
    /// Possibly broken by schema evolution; kept but flagged.
    Flagged {
        /// Why maintenance flagged it.
        reason: String,
        /// Trace-time seconds of the flip.
        at: u64,
    },
    /// Automatically repaired; original text preserved.
    Repaired {
        /// The pre-repair SQL text.
        original_sql: String,
        /// Trace-time seconds of the repair.
        at: u64,
    },
    /// Confirmed broken and irreparable.
    Obsolete {
        /// Why it can no longer run.
        reason: String,
        /// Trace-time seconds of the verdict.
        at: u64,
    },
    /// Deleted by its owner or an administrator (tombstoned).
    Deleted,
}

impl Validity {
    /// Does this status keep the query in the live working set?
    pub fn is_usable(&self) -> bool {
        matches!(self, Validity::Valid | Validity::Repaired { .. })
    }
}

/// Relationship between two queries in the session graph (§4.1 lists
/// "temporal relations, modification relations and investigation relations").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `to` evolved from `from` within a session (Fig. 2 edges).
    Evolution,
    /// `to` investigates the output of `from`.
    Investigation,
}

/// One edge of the session graph, stored as a normalised edge relation.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionEdge {
    /// The earlier query.
    pub from: QueryId,
    /// The query related to it.
    pub to: QueryId,
    /// Kind of relationship.
    pub kind: EdgeKind,
    /// The parse-tree diff labels shown on Fig. 2 edges.
    pub edits: Vec<EditOp>,
}

/// A fully profiled, logged query.
#[derive(Debug, Clone)]
pub struct QueryRecord {
    /// Dense storage-assigned identifier.
    pub id: QueryId,
    /// The analyst who issued it.
    pub user: UserId,
    /// Trace-time seconds (wall-clock stand-in).
    pub ts: u64,
    /// The SQL exactly as typed.
    pub raw_sql: String,
    /// Parsed statement (None when the text failed to parse — the log still
    /// records the attempt; §2.3 correction mode needs those too).
    pub statement: Option<Statement>,
    /// The canonicalised re-print of `statement` (raw text when unparsed).
    pub canonical_sql: String,
    /// Fingerprint of the canonicalised statement.
    pub structure_fp: u64,
    /// Fingerprint of the constant-stripped template (popularity key).
    pub template_fp: u64,
    /// Extracted syntactic features (the Fig. 1 relations' source).
    pub features: SyntacticFeatures,
    /// Captured runtime features.
    pub runtime: RuntimeFeatures,
    /// Semantic output summary.
    pub summary: OutputSummary,
    /// Session this query belongs to.
    pub session: SessionId,
    /// Who may see it.
    pub visibility: Visibility,
    /// Attached free-text annotations, oldest first.
    pub annotations: Vec<Annotation>,
    /// Maintenance status.
    pub validity: Validity,
    /// Maintained quality score in [0, 1] (§4.4).
    pub quality: f64,
}

impl QueryRecord {
    /// Re-derive, in place, everything that is a function of `raw_sql`:
    /// its parse, the canonical text, both fingerprints and the syntactic
    /// features, resolved against `catalog` when one is given — the
    /// rewrite path of WAL replay and maintenance repair alike. Features
    /// come first: the scan-heavy reads are sensitive to where a record's
    /// feature strings land on the heap, and ingest allocates in this
    /// order too.
    pub fn derive(&mut self, statement: Option<Statement>, catalog: Option<&Catalog>) {
        self.features = statement
            .as_ref()
            .map(|stmt| features::extract(stmt, catalog))
            .unwrap_or_default();
        self.set_statement(statement);
    }

    /// The statement, its canonical text and fingerprints — the part of
    /// [`QueryRecord::derive`] every record constructor shares.
    pub(crate) fn set_statement(&mut self, statement: Option<Statement>) {
        (self.canonical_sql, self.structure_fp, self.template_fp) = match &statement {
            Some(stmt) => (
                sqlparse::to_sql(&sqlparse::canonicalize(stmt)),
                sqlparse::structure_fingerprint(stmt),
                sqlparse::template_fingerprint(stmt),
            ),
            None => (self.raw_sql.clone(), 0, 0),
        };
        self.statement = statement;
    }

    /// Is this record alive and usable for search/recommendation?
    pub fn is_live(&self) -> bool {
        self.validity.is_usable()
    }

    /// The SQL to show/re-execute (repaired text when applicable).
    pub fn effective_sql(&self) -> &str {
        &self.raw_sql
    }

    /// One-line annotation digest for panel display (Fig. 3 right column).
    pub fn annotation_digest(&self) -> String {
        match self.annotations.first() {
            Some(a) => {
                let mut t = a.text.clone();
                if t.len() > 40 {
                    t.truncate(37);
                    t.push_str("...");
                }
                t
            }
            None => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_display() {
        assert_eq!(QueryId(7).to_string(), "7");
        assert_eq!(SessionId(3).to_string(), "3");
    }

    #[test]
    fn validity_usability() {
        assert!(Validity::Valid.is_usable());
        assert!(Validity::Repaired {
            original_sql: "x".into(),
            at: 0
        }
        .is_usable());
        assert!(!Validity::Obsolete {
            reason: "r".into(),
            at: 0
        }
        .is_usable());
        assert!(!Validity::Deleted.is_usable());
    }

    #[test]
    fn summary_containment() {
        let s = OutputSummary::Full {
            columns: vec!["lake".into()],
            rows: vec![vec!["Lake Washington".into()], vec!["Green Lake".into()]],
        };
        assert!(s.contains_value("lake washington"));
        assert!(!s.contains_value("Lake Union"));
        assert!(s.is_exhaustive());
        assert_eq!(s.row_count_stored(), 2);
        assert!(!OutputSummary::None.contains_value("x"));
    }
}
