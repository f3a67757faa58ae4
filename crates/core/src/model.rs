//! The CQMS data model: queries as first-class managed objects.
//!
//! "A query is the primary data type in a CQMS" (§4.1). A [`QueryRecord`]
//! bundles everything the paper's data-model discussion calls for: the raw
//! text, extracted syntactic features, runtime features, a semantic output
//! summary, session membership, annotations, access control and
//! maintenance state. The parse tree is derived from the text when a
//! reader needs it; the record's similarity signature keeps its flattened
//! tree and folded SELECT.

use crate::features::FeatureRows;
use std::fmt;
use std::sync::Arc;

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

/// Semantic output summary (§4.1 "Profiling query results"): the whole
/// output when it is small relative to the query's cost, otherwise a
/// reservoir sample of it. Cell values are stored in rendered form, as
/// one [`Cells`] block per summary; query-by-data and output distance
/// read them. Summaries are never persisted: a reopened store has none.
#[derive(Debug, Clone, PartialEq)]
pub enum OutputSummary {
    /// Not captured (profiling depth below `Full`, or failed execution).
    None,
    /// The complete output (small results / expensive queries).
    Full {
        /// Output column names.
        columns: Vec<String>,
        /// Every output row, cells rendered as text.
        rows: Cells,
    },
    /// A reservoir sample of a larger output.
    Sample {
        /// Output column names.
        columns: Vec<String>,
        /// The sampled rows, cells rendered as text.
        rows: Cells,
        /// Cardinality of the full output the sample was drawn from.
        total_rows: u64,
    },
}

impl OutputSummary {
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

/// Rows of text cells in one block: every cell's text back to back in
/// one `Box<str>` and the end offset of each cell. Every row has the
/// same number of cells (a summary's column count), so rows need no
/// offsets of their own. A summary's rows cost two allocations however
/// many rows and cells it holds, where a `Vec<Vec<String>>` costs one
/// per cell and one per row.
///
/// Read it like the nested vectors it replaces: [`Cells::iter`] yields
/// one [`CellRow`] per row, and a row's [`CellRow::iter`] yields its
/// cells as `&str`. Collect nested iterables of strings into one
/// ([`FromIterator`]), or push cells as they are rendered
/// ([`Cells::builder`]).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Cells {
    text: Box<str>,
    /// Byte offset in `text` where each cell ends; a cell starts where
    /// the one before it ends.
    cell_ends: Box<[u32]>,
    /// Cells per row.
    width: u32,
    /// Number of rows (rows of width 0 still count).
    len: u32,
}

impl Cells {
    /// An empty builder.
    pub fn builder() -> CellsBuilder {
        CellsBuilder::default()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Are there no rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows, in order.
    pub fn iter(&self) -> impl Iterator<Item = CellRow<'_>> + '_ {
        let width = self.width as usize;
        (0..self.len()).map(move |r| CellRow {
            cells: self,
            first: r * width,
            end: (r + 1) * width,
        })
    }

    /// The text of cell `c`, counted over all rows.
    fn cell(&self, c: usize) -> &str {
        let start = if c == 0 {
            0
        } else {
            self.cell_ends[c - 1] as usize
        };
        &self.text[start..self.cell_ends[c] as usize]
    }
}

impl<R> FromIterator<R> for Cells
where
    R: IntoIterator,
    R::Item: AsRef<str>,
{
    /// Collect rows of cells; panics if two rows differ in width.
    fn from_iter<I: IntoIterator<Item = R>>(rows: I) -> Cells {
        let mut b = Cells::builder();
        for row in rows {
            for cell in row {
                b.text().push_str(cell.as_ref());
                b.end_cell();
            }
            b.end_row();
        }
        b.finish()
    }
}

/// One row of a [`Cells`] block.
#[derive(Debug, Clone, Copy)]
pub struct CellRow<'a> {
    cells: &'a Cells,
    /// The row's cells are `first..end`, counted over all rows.
    first: usize,
    end: usize,
}

impl<'a> CellRow<'a> {
    /// The cells, in column order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &'a str> + 'a {
        let cells = self.cells;
        (self.first..self.end).map(move |c| cells.cell(c))
    }

    /// The cells joined by `sep`, as `[String]::join` would join them.
    pub fn join(&self, sep: &str) -> String {
        let mut out = String::new();
        for (i, cell) in self.iter().enumerate() {
            if i > 0 {
                out.push_str(sep);
            }
            out.push_str(cell);
        }
        out
    }
}

/// Builds a [`Cells`] block one cell at a time: write a cell's text
/// into [`CellsBuilder::text`], close it with
/// [`CellsBuilder::end_cell`], and close each row with
/// [`CellsBuilder::end_row`]. The first row sets the block's width.
#[derive(Debug, Default)]
pub struct CellsBuilder {
    text: String,
    cell_ends: Vec<u32>,
    width: u32,
    len: u32,
}

impl CellsBuilder {
    /// The text buffer the open cell is written to.
    pub fn text(&mut self) -> &mut String {
        &mut self.text
    }

    /// Close the open cell: the text written since the last close.
    pub fn end_cell(&mut self) {
        let end = u32::try_from(self.text.len()).expect("a summary's text fits in 4 GiB");
        self.cell_ends.push(end);
    }

    /// Close the open row: the cells closed since the last row. Panics
    /// if it is not as wide as the first row.
    pub fn end_row(&mut self) {
        let cells = u32::try_from(self.cell_ends.len()).expect("a summary has under 2³² cells");
        if self.len == 0 {
            self.width = cells;
        }
        assert_eq!(
            cells,
            self.width * (self.len + 1),
            "every row of a cell block has the first row's width"
        );
        self.len += 1;
    }

    /// The finished block, each part allocated at its exact size.
    pub fn finish(self) -> Cells {
        Cells {
            text: self.text.into_boxed_str(),
            cell_ends: self.cell_ends.into_boxed_slice(),
            width: self.width,
            len: self.len,
        }
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
/// An evolution edge's Fig. 2 labels are derived from its two ends'
/// current statements ([`crate::storage::QueryStorage::edge_edits`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionEdge {
    /// The earlier query.
    pub from: QueryId,
    /// The query related to it.
    pub to: QueryId,
    /// Kind of relationship.
    pub kind: EdgeKind,
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
    /// The SQL exactly as typed (or as maintenance repaired it); its
    /// `Queries.qText` cell shares it. Text that failed to parse is
    /// logged too — §2.3 correction mode needs those attempts.
    pub raw_sql: Arc<str>,
    /// Fingerprint of the constant-stripped template (popularity key).
    pub template_fp: u64,
    /// The query's rows of the Figure 1 feature relations: its extracted
    /// syntactic features, held once. Only the storage's `insert`,
    /// `reindex`, `delete` and session moves rewrite them.
    pub features: Arc<FeatureRows>,
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
    /// Is this record alive and usable for search/recommendation?
    pub fn is_live(&self) -> bool {
        self.validity.is_usable()
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
            rows: [["Lake Washington"], ["Green Lake"]].into_iter().collect(),
        };
        assert!(s.contains_value("lake washington"));
        assert!(!s.contains_value("Lake Union"));
        assert!(s.is_exhaustive());
        assert!(!OutputSummary::None.contains_value("x"));
    }

    #[test]
    fn cells_read_back_like_the_nested_rows() {
        let nested: Vec<Vec<&str>> =
            vec![vec!["a", "", "ccc"], vec!["", "é", ""], vec!["x", "y", "z"]];
        let cells: Cells = nested.iter().collect();
        assert_eq!(cells.len(), nested.len());
        let back: Vec<Vec<&str>> = cells.iter().map(|r| r.iter().collect()).collect();
        assert_eq!(back, nested);
        for (row, want) in cells.iter().zip(&nested) {
            assert_eq!(row.join("\u{1}"), want.join("\u{1}"));
        }
        assert!(Cells::default().is_empty());
        assert_eq!(cells, nested.iter().collect::<Cells>());
        // Rows without cells still count as rows.
        let empty_rows: Cells = [[""; 0], [""; 0]].into_iter().collect();
        assert_eq!(empty_rows.len(), 2);
        assert!(empty_rows.iter().all(|r| r.join(",").is_empty()));
    }

    #[test]
    #[should_panic(expected = "first row's width")]
    fn cells_reject_ragged_rows() {
        let _: Cells = [vec!["a", "b"], vec!["c"]].into_iter().collect();
    }
}
