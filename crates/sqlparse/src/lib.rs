//! # sqlparse — SQL frontend substrate for the CQMS
//!
//! A from-scratch SQL lexer, parser, printer and analysis toolkit covering the
//! dialect used throughout *"A Case for A Collaborative Query Management
//! System"* (Khoussainova et al., CIDR 2009): `SELECT` with comma- and
//! explicit joins, nested subqueries (`IN`, `EXISTS`, scalar), aggregates,
//! `GROUP BY` / `HAVING` / `ORDER BY` / `LIMIT`, plus the DDL/DML statements
//! (`CREATE TABLE`, `INSERT`, `UPDATE`, `DELETE`) required by the embedded
//! relational engine underneath the CQMS.
//!
//! Beyond parsing, this crate provides the query-analysis primitives the CQMS
//! paper calls for:
//!
//! * [`canon`] — canonicalisation (case folding, alias normalisation,
//!   constant stripping) so that structurally identical queries compare equal
//!   (paper §4.3: *"parse tree similarity, perhaps after removing the
//!   constants from the tree"*).
//! * [`fingerprint`] — stable 64-bit structure/template hashes.
//! * [`diff`] — a parse-tree differ producing the typed edit operations that
//!   label session-graph edges in the paper's Figure 2 (`+WaterSalinity`,
//!   `'temp < 22' → 'temp < 18'`, …).
//! * [`visit`] — an AST walker used by the CQMS feature extractor.
//! * [`tree`] — labeled parse trees and the exact Zhang–Shasha tree edit
//!   distance ([`ted`] over trees flattened once into [`FlatTree`]s).

pub mod ast;
pub mod canon;
pub mod diff;
pub mod error;
pub mod fingerprint;
pub mod lexer;
pub mod parser;
pub mod printer;
pub mod token;
pub mod tree;
pub mod visit;

pub use ast::{
    BinaryOp, ColumnRef, CreateTableStatement, DataType, DeleteStatement, Expr, InsertStatement,
    JoinKind, Literal, OrderByItem, SelectItem, SelectStatement, Statement, TableRef, UnaryOp,
    UpdateStatement,
};
pub use canon::{canonicalize, strip_constants};
pub use diff::{
    diff_selects, diff_statements, edit_distance_lower_bound, summarize_edits, EditOp,
    SelectProfile,
};
pub use error::{ParseError, Span};
pub use fingerprint::{structure_fingerprint, template_fingerprint};
pub use lexer::Lexer;
pub use parser::{parse_expression, parse_statement, parse_statements, Parser};
pub use printer::to_sql;
pub use token::{Keyword, Token, TokenKind};
pub use tree::{
    normalized_from_ted, normalized_ted, normalized_tree_distance, normalized_tree_lower_bound,
    statement_tree, ted, tree_edit_distance, tree_edit_lower_bound, FlatTree, TreeNode, TreeShape,
};

/// Parse a single SQL statement from text.
///
/// Convenience wrapper over [`parser::parse_statement`].
///
/// ```
/// let stmt = sqlparse::parse("SELECT temp FROM WaterTemp WHERE temp < 18").unwrap();
/// assert!(matches!(stmt, sqlparse::Statement::Select(_)));
/// ```
pub fn parse(sql: &str) -> Result<Statement, ParseError> {
    parser::parse_statement(sql)
}
