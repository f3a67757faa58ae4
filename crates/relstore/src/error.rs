//! Engine error type.

use sqlparse::ParseError;
use std::fmt;

/// Errors produced by the relational engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// The SQL text failed to parse.
    Parse(ParseError),
    /// A referenced table does not exist.
    UnknownTable(String),
    /// A referenced column does not exist (table context in `.0`).
    UnknownColumn { column: String, context: String },
    /// A column reference matches more than one table in scope.
    AmbiguousColumn(String),
    /// A table/column already exists.
    AlreadyExists(String),
    /// Type mismatch at runtime or on insert.
    TypeError(String),
    /// Statement shape not supported by the executor.
    Unsupported(String),
    /// Arity mismatch on INSERT.
    ArityMismatch { expected: usize, got: usize },
    /// Division by zero or similar arithmetic failure.
    Arithmetic(String),
    /// A scalar subquery returned more than one row/column.
    SubqueryShape(String),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::Parse(e) => write!(f, "{e}"),
            EngineError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            EngineError::UnknownColumn { column, context } => {
                write!(f, "unknown column `{column}` in {context}")
            }
            EngineError::AmbiguousColumn(c) => write!(f, "ambiguous column `{c}`"),
            EngineError::AlreadyExists(n) => write!(f, "`{n}` already exists"),
            EngineError::TypeError(m) => write!(f, "type error: {m}"),
            EngineError::Unsupported(m) => write!(f, "unsupported: {m}"),
            EngineError::ArityMismatch { expected, got } => {
                write!(f, "expected {expected} values, got {got}")
            }
            EngineError::Arithmetic(m) => write!(f, "arithmetic error: {m}"),
            EngineError::SubqueryShape(m) => write!(f, "subquery shape: {m}"),
        }
    }
}

impl std::error::Error for EngineError {}

impl From<ParseError> for EngineError {
    fn from(e: ParseError) -> Self {
        EngineError::Parse(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            EngineError::UnknownTable("t".into()).to_string(),
            "unknown table `t`"
        );
        assert!(EngineError::UnknownColumn {
            column: "c".into(),
            context: "SELECT".into()
        }
        .to_string()
        .contains("`c`"));
    }
}
