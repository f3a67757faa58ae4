//! Typed abstract syntax tree for the CQMS SQL dialect.
//!
//! The tree is owned and cheap to clone for the query-log sizes the CQMS
//! manages (queries are short programs, not documents). All analysis passes
//! (feature extraction, canonicalisation, diffing, fingerprinting) operate on
//! this representation.

use std::fmt;

/// Any SQL statement accepted by the dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    Select(SelectStatement),
    Insert(InsertStatement),
    CreateTable(CreateTableStatement),
    Update(UpdateStatement),
    Delete(DeleteStatement),
    /// `DROP TABLE name`
    DropTable(String),
    /// `ALTER TABLE t RENAME COLUMN a TO b`
    AlterRenameColumn {
        table: String,
        from: String,
        to: String,
    },
    /// `ALTER TABLE t DROP COLUMN a`
    AlterDropColumn {
        table: String,
        column: String,
    },
    /// `ALTER TABLE t ADD COLUMN a <type>`
    AlterAddColumn {
        table: String,
        column: String,
        data_type: DataType,
    },
    /// `ALTER TABLE t RENAME TO u`
    AlterRenameTable {
        table: String,
        to: String,
    },
}

impl Statement {
    /// Return the inner SELECT if this is a query statement.
    pub fn as_select(&self) -> Option<&SelectStatement> {
        match self {
            Statement::Select(s) => Some(s),
            _ => None,
        }
    }
}

/// A `SELECT` statement (possibly a subquery).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SelectStatement {
    pub distinct: bool,
    pub projection: Vec<SelectItem>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderByItem>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
}

/// One item of the projection list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`
    Wildcard,
    /// `alias.*`
    QualifiedWildcard(String),
    /// An expression with optional alias.
    Expr { expr: Expr, alias: Option<String> },
}

/// A table in the FROM clause, possibly followed by explicit joins.
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    pub name: String,
    pub alias: Option<String>,
    /// Explicit `JOIN`s chained onto this factor.
    pub joins: Vec<JoinClause>,
}

impl TableRef {
    pub fn named(name: impl Into<String>) -> Self {
        TableRef {
            name: name.into(),
            alias: None,
            joins: Vec::new(),
        }
    }

    /// The name this table is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// An explicit join clause (`JOIN t ON cond`).
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    pub kind: JoinKind,
    pub table: String,
    pub alias: Option<String>,
    /// `None` only for CROSS JOIN.
    pub on: Option<Expr>,
}

impl JoinClause {
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.table)
    }
}

/// Join flavors supported by the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JoinKind {
    Inner,
    LeftOuter,
    RightOuter,
    FullOuter,
    Cross,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "JOIN",
            JoinKind::LeftOuter => "LEFT OUTER JOIN",
            JoinKind::RightOuter => "RIGHT OUTER JOIN",
            JoinKind::FullOuter => "FULL OUTER JOIN",
            JoinKind::Cross => "CROSS JOIN",
        };
        f.write_str(s)
    }
}

/// `ORDER BY` item.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderByItem {
    pub expr: Expr,
    pub desc: bool,
}

/// A possibly-qualified column reference.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Table name or alias qualifier (`S` in `S.loc_x`).
    pub qualifier: Option<String>,
    pub name: String,
}

impl ColumnRef {
    pub fn bare(name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: None,
            name: name.into(),
        }
    }

    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> Self {
        ColumnRef {
            qualifier: Some(qualifier.into()),
            name: name.into(),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Literal values.
#[derive(Debug, Clone, PartialEq)]
pub enum Literal {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
    Null,
    /// `?` — produced by constant stripping; also accepted when parsing.
    Placeholder,
}

impl Literal {
    /// True for literals that carry a data constant (stripped by templating).
    pub fn is_constant(&self) -> bool {
        matches!(
            self,
            Literal::Int(_) | Literal::Float(_) | Literal::Str(_) | Literal::Bool(_)
        )
    }
}

/// Binary operators in increasing precedence groups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Or,
    And,
    Eq,
    NotEq,
    Lt,
    LtEq,
    Gt,
    GtEq,
    Plus,
    Minus,
    Mul,
    Div,
    Mod,
    Concat,
}

impl BinaryOp {
    /// Canonical SQL spelling.
    pub fn as_str(&self) -> &'static str {
        match self {
            BinaryOp::Or => "OR",
            BinaryOp::And => "AND",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::Plus => "+",
            BinaryOp::Minus => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
        }
    }

    /// Parser precedence (higher binds tighter).
    pub fn precedence(&self) -> u8 {
        match self {
            BinaryOp::Or => 1,
            BinaryOp::And => 2,
            BinaryOp::Eq
            | BinaryOp::NotEq
            | BinaryOp::Lt
            | BinaryOp::LtEq
            | BinaryOp::Gt
            | BinaryOp::GtEq => 4,
            BinaryOp::Plus | BinaryOp::Minus | BinaryOp::Concat => 5,
            BinaryOp::Mul | BinaryOp::Div | BinaryOp::Mod => 6,
        }
    }

    /// Is this a comparison operator (the predicate `op` of the paper's
    /// `Predicates(qid, attrName, relName, op, const)` relation)?
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    Not,
    Neg,
    Plus,
}

impl UnaryOp {
    pub fn as_str(&self) -> &'static str {
        match self {
            UnaryOp::Not => "NOT",
            UnaryOp::Neg => "-",
            UnaryOp::Plus => "+",
        }
    }
}

/// Scalar expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Column(ColumnRef),
    Literal(Literal),
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
    },
    Binary {
        left: Box<Expr>,
        op: BinaryOp,
        right: Box<Expr>,
    },
    /// Function call, e.g. `COUNT(*)`, `AVG(temp)`, `LOWER(city)`.
    Function {
        name: String,
        args: Vec<Expr>,
        distinct: bool,
        /// `COUNT(*)` has `star = true` and empty `args`.
        star: bool,
    },
    InList {
        expr: Box<Expr>,
        list: Vec<Expr>,
        negated: bool,
    },
    InSubquery {
        expr: Box<Expr>,
        subquery: Box<SelectStatement>,
        negated: bool,
    },
    Between {
        expr: Box<Expr>,
        low: Box<Expr>,
        high: Box<Expr>,
        negated: bool,
    },
    Like {
        expr: Box<Expr>,
        pattern: Box<Expr>,
        negated: bool,
    },
    IsNull {
        expr: Box<Expr>,
        negated: bool,
    },
    Exists {
        subquery: Box<SelectStatement>,
        negated: bool,
    },
    /// Scalar subquery: `(SELECT …)` used as a value.
    ScalarSubquery(Box<SelectStatement>),
    Case {
        /// `CASE operand WHEN … ` — operand is optional (searched CASE).
        operand: Option<Box<Expr>>,
        branches: Vec<(Expr, Expr)>,
        else_branch: Option<Box<Expr>>,
    },
}

impl Expr {
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(ColumnRef::bare(name))
    }

    pub fn float(v: f64) -> Expr {
        Expr::Literal(Literal::Float(v))
    }

    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Literal::Str(v.into()))
    }

    pub fn binary(left: Expr, op: BinaryOp, right: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(left),
            op,
            right: Box::new(right),
        }
    }

    pub fn and(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::And, right)
    }

    pub fn or(left: Expr, right: Expr) -> Expr {
        Expr::binary(left, BinaryOp::Or, right)
    }

    /// Split a predicate into its top-level AND conjuncts.
    ///
    /// `a AND (b OR c) AND d` → `[a, b OR c, d]`. Used by the feature
    /// extractor, the tree differ (Fig. 2 edge labels are per-conjunct), and
    /// the executor's join-condition extraction.
    pub fn conjuncts(&self) -> Vec<&Expr> {
        let mut out = Vec::new();
        fn walk<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
            match e {
                Expr::Binary {
                    left,
                    op: BinaryOp::And,
                    right,
                } => {
                    walk(left, out);
                    walk(right, out);
                }
                other => out.push(other),
            }
        }
        walk(self, &mut out);
        out
    }

    /// Rebuild a predicate from conjuncts (inverse of [`Expr::conjuncts`]).
    /// Returns `None` for an empty list.
    pub fn from_conjuncts(mut parts: Vec<Expr>) -> Option<Expr> {
        let first = if parts.is_empty() {
            return None;
        } else {
            parts.remove(0)
        };
        Some(parts.into_iter().fold(first, Expr::and))
    }

    /// Does this expression (transitively) contain a subquery?
    pub fn contains_subquery(&self) -> bool {
        match self {
            Expr::InSubquery { .. } | Expr::Exists { .. } | Expr::ScalarSubquery(_) => true,
            Expr::Column(_) | Expr::Literal(_) => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.contains_subquery(),
            Expr::Binary { left, right, .. } => {
                left.contains_subquery() || right.contains_subquery()
            }
            Expr::Function { args, .. } => args.iter().any(Expr::contains_subquery),
            Expr::InList { expr, list, .. } => {
                expr.contains_subquery() || list.iter().any(Expr::contains_subquery)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_subquery() || low.contains_subquery() || high.contains_subquery(),
            Expr::Like { expr, pattern, .. } => {
                expr.contains_subquery() || pattern.contains_subquery()
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                operand.as_deref().is_some_and(Expr::contains_subquery)
                    || branches
                        .iter()
                        .any(|(w, t)| w.contains_subquery() || t.contains_subquery())
                    || else_branch.as_deref().is_some_and(Expr::contains_subquery)
            }
        }
    }
}

/// `INSERT INTO t [(cols)] VALUES (...), (...)`
#[derive(Debug, Clone, PartialEq)]
pub struct InsertStatement {
    pub table: String,
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Expr>>,
}

/// `CREATE TABLE t (col type, ...)`
#[derive(Debug, Clone, PartialEq)]
pub struct CreateTableStatement {
    pub name: String,
    pub columns: Vec<(String, DataType)>,
}

/// `UPDATE t SET a = e, ... [WHERE ...]`
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateStatement {
    pub table: String,
    pub assignments: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
}

/// `DELETE FROM t [WHERE ...]`
#[derive(Debug, Clone, PartialEq)]
pub struct DeleteStatement {
    pub table: String,
    pub where_clause: Option<Expr>,
}

/// Column data types of the dialect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    Int,
    Float,
    Text,
    Bool,
}

impl DataType {
    pub fn as_str(&self) -> &'static str {
        match self {
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Text => "TEXT",
            DataType::Bool => "BOOLEAN",
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_flatten_nested_ands() {
        let e = Expr::and(
            Expr::and(Expr::col("a"), Expr::or(Expr::col("b"), Expr::col("c"))),
            Expr::col("d"),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &Expr::col("a"));
        assert_eq!(parts[2], &Expr::col("d"));
    }

    #[test]
    fn conjuncts_roundtrip() {
        let e = Expr::and(Expr::and(Expr::col("a"), Expr::col("b")), Expr::col("c"));
        let parts: Vec<Expr> = e.conjuncts().into_iter().cloned().collect();
        let back = Expr::from_conjuncts(parts).unwrap();
        assert_eq!(back.conjuncts(), e.conjuncts());
    }

    #[test]
    fn from_conjuncts_empty_is_none() {
        assert_eq!(Expr::from_conjuncts(vec![]), None);
    }

    #[test]
    fn contains_subquery_deep() {
        let sub = SelectStatement {
            projection: vec![SelectItem::Wildcard],
            from: vec![TableRef::named("t")],
            ..Default::default()
        };
        let e = Expr::and(
            Expr::col("a"),
            Expr::InSubquery {
                expr: Box::new(Expr::col("b")),
                subquery: Box::new(sub),
                negated: false,
            },
        );
        assert!(e.contains_subquery());
        assert!(!Expr::col("a").contains_subquery());
    }

    #[test]
    fn binding_name_prefers_alias() {
        let mut t = TableRef::named("WaterSalinity");
        assert_eq!(t.binding_name(), "WaterSalinity");
        t.alias = Some("S".into());
        assert_eq!(t.binding_name(), "S");
    }

    #[test]
    fn comparison_ops() {
        assert!(BinaryOp::Lt.is_comparison());
        assert!(!BinaryOp::Plus.is_comparison());
        assert!(BinaryOp::And.precedence() < BinaryOp::Eq.precedence());
        assert!(BinaryOp::Plus.precedence() < BinaryOp::Mul.precedence());
    }
}
