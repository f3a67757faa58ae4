//! Query executor: a plan tree over borrowed rows.
//!
//! `plan_select` turns one SELECT into a small tree, built bottom-up by
//! wrapping each operator around its source:
//!
//! ```text
//! Scan -> Join -> … -> Filter                 (Node: tuples of borrowed rows)
//!   -> Project | Aggregate -> Distinct -> Sort -> Limit   (Plan: output rows)
//! ```
//!
//! 1. **Scans and push-down** — every FROM factor is a [`Scan`]. WHERE
//!    conjuncts touching that factor alone are checked during its scan: a
//!    `col = literal` conjunct is compared against the row in place, any
//!    other is a compiled filter, and neither is evaluated again. A
//!    conjunct is never pushed into a factor that an outer join
//!    NULL-extends.
//! 2. **Joins** — left-deep in FROM order. Equality conjuncts (from an
//!    `ON` clause, or from WHERE for comma joins) become hash-join keys;
//!    otherwise the step is a nested loop (a cartesian product for CROSS
//!    JOIN). Output order: probe tuples in order, each one's matches in
//!    build-side insertion order, a RIGHT/FULL join's unmatched rows last.
//! 3. **Filter** — the WHERE conjuncts no scan or join consumed.
//! 4. **Aggregate / Project** — hash aggregation with COUNT/SUM/AVG/MIN/MAX
//!    (+DISTINCT), HAVING and aggregate ORDER BY keys; or projection.
//! 5. **Distinct, Sort, Limit/Offset.**
//!
//! The join pipeline passes [`Tuple`]s: one `&Row` per factor, borrowed
//! from the catalog's `Arc<Row>`s. A cell is cloned only into a projected
//! output row. Every run reports [`ExecStats`]: base rows scanned and the
//! plan rendered from the tree — the "runtime features" the CQMS Query
//! Profiler logs (§4.1).

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{
    eval_all, literal_value, AggKind, AggSpec, Binding, CompiledExpr, Compiler, EvalCtx, Outer,
    Scope, Tuple,
};
use crate::table::Row;
use crate::value::{row_key, Key, Value};
use sqlparse::ast::*;
use sqlparse::printer::expr_to_sql;
use sqlparse::visit::{walk_expr, Visitor};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::Hash;

/// Execution statistics for one SELECT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Base-table rows read (before any filtering).
    pub rows_scanned: u64,
    /// Human-readable plan description, e.g. `Scan(queries) ->
    /// Scan(datasources +1f) -> HashJoin(datasources on 1 keys) ->
    /// Project(1)`.
    pub plan: String,
}

/// A fully-evaluated SELECT result.
pub struct SelectOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub stats: ExecStats,
}

/// Plan and run a top-level SELECT.
pub fn run_select(catalog: &Catalog, stmt: &SelectStatement) -> Result<SelectOutput, EngineError> {
    let planned = plan_select(catalog, stmt, None)?;
    let rows = planned.plan.run(catalog, &Outer::Root)?;
    Ok(SelectOutput {
        columns: planned.columns,
        rows,
        stats: ExecStats {
            rows_scanned: planned.rows_scanned,
            plan: planned.plan.to_string(),
        },
    })
}

/// Resolve the FROM clause of `stmt` into bindings, one per factor.
pub fn bindings_for(
    catalog: &Catalog,
    stmt: &SelectStatement,
) -> Result<Vec<Binding>, EngineError> {
    let binding = |name: &str, binding_name: &str| -> Result<Binding, EngineError> {
        let table = catalog.table(name)?;
        Ok(Binding {
            binding: binding_name.to_ascii_lowercase(),
            table: name.to_ascii_lowercase(),
            columns: table
                .schema
                .columns
                .iter()
                .map(|c| c.name.to_ascii_lowercase())
                .collect(),
        })
    };
    let mut bindings = Vec::new();
    for t in &stmt.from {
        bindings.push(binding(&t.name, t.binding_name())?);
        for j in &t.joins {
            bindings.push(binding(&j.table, j.binding_name())?);
        }
    }
    Ok(bindings)
}

// ---------------------------------------------------------------------
// The plan tree
// ---------------------------------------------------------------------

/// A FROM factor's scan with the WHERE conjuncts pushed down to it.
pub struct Scan {
    /// Lower-cased table name.
    table: String,
    /// The `col = literal` conjuncts, compared in place.
    equals: Vec<(usize, Value)>,
    /// The remaining pushed-down conjuncts, compiled against the factor
    /// alone.
    filters: Vec<CompiledExpr>,
    /// How many WHERE conjuncts were pushed down (all of the above).
    pushed: usize,
}

/// Operators that yield tuples of borrowed rows.
pub enum Node {
    Scan(Scan),
    /// Joins the tuples of `left` with the rows of `right`. `keys` pairs a
    /// `(factor, column)` of the left tuple with a column of the right row.
    Join {
        left: Box<Node>,
        right: Scan,
        kind: JoinKind,
        keys: Vec<((usize, usize), usize)>,
        residual: Vec<CompiledExpr>,
    },
    Filter {
        source: Box<Node>,
        predicates: Vec<CompiledExpr>,
    },
}

/// Where an ORDER BY key of a projection comes from.
pub enum OrderKey {
    /// The projected column at this position (an alias reference).
    Projected(usize),
    Expr(CompiledExpr),
}

/// Hash aggregation: groups, aggregate slots, HAVING, and the projected
/// expressions and ORDER BY keys evaluated per group.
pub struct Aggregate {
    source: Node,
    /// Factors per tuple (the width of an empty scalar group's NULL tuple).
    width: usize,
    group: Vec<CompiledExpr>,
    aggs: Vec<AggSpec>,
    having: Option<CompiledExpr>,
    items: Vec<CompiledExpr>,
    order: Vec<CompiledExpr>,
}

/// Operators that yield output rows, each with its ORDER BY keys.
pub enum Plan {
    /// A FROM-less SELECT: one row of expressions.
    Const(Vec<CompiledExpr>),
    Project {
        source: Box<Node>,
        items: Vec<CompiledExpr>,
        order: Vec<OrderKey>,
    },
    Aggregate(Box<Aggregate>),
    Distinct(Box<Plan>),
    Sort {
        source: Box<Plan>,
        descs: Vec<bool>,
    },
    Limit {
        source: Box<Plan>,
        offset: Option<u64>,
        limit: Option<u64>,
    },
}

impl fmt::Display for Scan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Scan({}", self.table)?;
        if self.pushed > 0 {
            write!(f, " +{}f", self.pushed)?;
        }
        f.write_str(")")
    }
}

impl fmt::Display for Node {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Node::Scan(scan) => write!(f, "{scan}"),
            Node::Join {
                left,
                right,
                kind,
                keys,
                ..
            } => {
                write!(f, "{left} -> {right} -> ")?;
                match (kind, keys.len()) {
                    (JoinKind::Cross, _) => write!(f, "CrossJoin({})", right.table),
                    (_, 0) => write!(f, "NestedLoopJoin({})", right.table),
                    (_, n) => write!(f, "HashJoin({} on {n} keys)", right.table),
                }
            }
            Node::Filter { source, predicates } => {
                write!(f, "{source} -> Filter({})", predicates.len())
            }
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::Const(_) => f.write_str("Const"),
            Plan::Project { source, items, .. } => {
                write!(f, "{source} -> Project({})", items.len())
            }
            Plan::Aggregate(a) => write!(
                f,
                "{} -> Group({} keys, {} aggs)",
                a.source,
                a.group.len(),
                a.aggs.len()
            ),
            Plan::Distinct(source) => write!(f, "{source} -> Distinct"),
            Plan::Sort { source, .. } => write!(f, "{source} -> Sort"),
            Plan::Limit {
                source,
                limit: Some(n),
                ..
            } => write!(f, "{source} -> Limit({n})"),
            Plan::Limit { source, .. } => write!(f, "{source}"),
        }
    }
}

// ---------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------

/// A planned SELECT.
pub(crate) struct Planned {
    pub(crate) plan: Plan,
    pub(crate) columns: Vec<String>,
    /// Base-table rows its scans read.
    pub(crate) rows_scanned: u64,
    /// How many scopes above its own the statement reads: a subquery
    /// planned under `parent` is correlated when this is nonzero.
    pub(crate) depth: usize,
}

/// Plan a SELECT whose enclosing query (if any) has scope `parent`.
pub(crate) fn plan_select(
    catalog: &Catalog,
    stmt: &SelectStatement,
    parent: Option<&Scope<'_>>,
) -> Result<Planned, EngineError> {
    let mut planner = Planner {
        catalog,
        parent,
        depth: 0,
        rows_scanned: 0,
    };
    let (plan, columns) = planner.select(stmt)?;
    Ok(Planned {
        plan,
        columns,
        rows_scanned: planner.rows_scanned,
        depth: planner.depth,
    })
}

struct Planner<'c, 'p> {
    catalog: &'c Catalog,
    parent: Option<&'p Scope<'p>>,
    depth: usize,
    rows_scanned: u64,
}

impl Planner<'_, '_> {
    fn compile(&mut self, scope: &Scope<'_>, e: &Expr) -> Result<CompiledExpr, EngineError> {
        let mut c = Compiler::new(scope, self.catalog);
        let compiled = c.compile(e)?;
        self.depth = self.depth.max(c.depth);
        Ok(compiled)
    }

    fn compile_agg(
        &mut self,
        scope: &Scope<'_>,
        e: &Expr,
        aggs: &mut Vec<AggSpec>,
    ) -> Result<CompiledExpr, EngineError> {
        let mut c = Compiler::with_aggregates(scope, self.catalog, aggs);
        let compiled = c.compile(e)?;
        self.depth = self.depth.max(c.depth);
        Ok(compiled)
    }

    fn select(&mut self, stmt: &SelectStatement) -> Result<(Plan, Vec<String>), EngineError> {
        if stmt.from.is_empty() {
            return self.fromless(stmt);
        }
        let bindings = bindings_for(self.catalog, stmt)?;
        let scope = Scope {
            bindings: &bindings,
            parent: self.parent,
        };
        // Factors in join order: how each joins the ones before it (`None`
        // for the first and for comma joins) and its ON clause.
        let factors: Vec<(Option<JoinKind>, Option<&Expr>)> = stmt
            .from
            .iter()
            .flat_map(|t| {
                std::iter::once((None, None))
                    .chain(t.joins.iter().map(|j| (Some(j.kind), j.on.as_ref())))
            })
            .collect();
        let conjuncts: Vec<&Expr> = stmt
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts())
            .unwrap_or_default();
        let mut consumed = vec![false; conjuncts.len()];
        // A LEFT or FULL join NULL-extends its own factor, a RIGHT or FULL
        // join every factor before it: no WHERE conjunct on such a factor
        // may be applied before that join.
        let extended_later = |i: usize| {
            let later = &factors[i + 1..];
            later
                .iter()
                .any(|(k, _)| matches!(k, Some(JoinKind::RightOuter | JoinKind::FullOuter)))
        };
        let push_down = |i: usize, consumed: &mut [bool]| {
            let outer = matches!(
                factors[i].0,
                Some(JoinKind::LeftOuter | JoinKind::RightOuter | JoinKind::FullOuter)
            );
            let mut pushed = Vec::new();
            if outer || extended_later(i) {
                return pushed;
            }
            for (c, done) in conjuncts.iter().zip(consumed) {
                if !*done && references_only(c, &bindings[i]) {
                    *done = true;
                    pushed.push(*c);
                }
            }
            pushed
        };

        let first = push_down(0, &mut consumed);
        let mut node = Node::Scan(self.scan(&bindings[0], &first)?);
        for (i, &(kind, on)) in factors.iter().enumerate().skip(1) {
            let (acc, b) = (&bindings[..i], &bindings[i]);
            let pushed = push_down(i, &mut consumed);
            let right = self.scan(b, &pushed)?;
            let joined = Scope {
                bindings: &bindings[..=i],
                parent: self.parent,
            };
            let mut keys = Vec::new();
            let mut residual = Vec::new();
            for c in on.map(Expr::conjuncts).unwrap_or_default() {
                match join_key_of(c, acc, b) {
                    Some(key) => keys.push(key),
                    None => residual.push(self.compile(&joined, c)?),
                }
            }
            if kind.is_none() && !extended_later(i) {
                // Comma join: claim the WHERE equi-conjuncts it can hash on.
                for (c, done) in conjuncts.iter().zip(&mut consumed) {
                    if let Some(key) = join_key_of(c, acc, b).filter(|_| !*done) {
                        keys.push(key);
                        *done = true;
                    }
                }
            }
            node = Node::Join {
                left: Box::new(node),
                right,
                kind: kind.unwrap_or(JoinKind::Inner),
                keys,
                residual,
            };
        }

        let mut predicates = Vec::new();
        for (c, _) in conjuncts.iter().zip(&consumed).filter(|(_, done)| !**done) {
            predicates.push(self.compile(&scope, c)?);
        }
        if !predicates.is_empty() {
            node = Node::Filter {
                source: Box::new(node),
                predicates,
            };
        }

        let needs_group = !stmt.group_by.is_empty()
            || stmt.having.is_some()
            || projection_has_aggregate(stmt)
            || order_by_has_aggregate(stmt);
        let (mut plan, columns) = if needs_group {
            self.aggregate(&scope, stmt, node)?
        } else {
            self.project(&scope, stmt, node)?
        };
        if stmt.distinct {
            plan = Plan::Distinct(Box::new(plan));
        }
        if !stmt.order_by.is_empty() {
            plan = Plan::Sort {
                source: Box::new(plan),
                descs: stmt.order_by.iter().map(|o| o.desc).collect(),
            };
        }
        if stmt.limit.is_some() || stmt.offset.is_some() {
            plan = Plan::Limit {
                source: Box::new(plan),
                offset: stmt.offset,
                limit: stmt.limit,
            };
        }
        Ok((plan, columns))
    }

    /// SELECT without FROM (e.g. `SELECT 1 + 1`).
    fn fromless(&mut self, stmt: &SelectStatement) -> Result<(Plan, Vec<String>), EngineError> {
        let scope = Scope {
            bindings: &[],
            parent: self.parent,
        };
        let mut columns = Vec::new();
        let mut items = Vec::new();
        for item in &stmt.projection {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(EngineError::Unsupported(
                    "wildcard requires a FROM clause".into(),
                ));
            };
            items.push(self.compile(&scope, expr)?);
            columns.push(output_name(expr, alias));
        }
        Ok((Plan::Const(items), columns))
    }

    /// Factor `b`'s scan, checking the WHERE conjuncts `pushed` to it.
    fn scan(&mut self, b: &Binding, pushed: &[&Expr]) -> Result<Scan, EngineError> {
        let table = self.catalog.table(&b.table)?;
        self.rows_scanned += table.len() as u64;
        let local = Scope {
            bindings: std::slice::from_ref(b),
            parent: self.parent,
        };
        let mut equals = Vec::new();
        let mut filters = Vec::new();
        for c in pushed {
            match as_col_eq_literal(c, b) {
                Some(eq) => equals.push(eq),
                None => filters.push(self.compile(&local, c)?),
            }
        }
        Ok(Scan {
            table: b.table.clone(),
            equals,
            filters,
            pushed: pushed.len(),
        })
    }

    fn project(
        &mut self,
        scope: &Scope<'_>,
        stmt: &SelectStatement,
        source: Node,
    ) -> Result<(Plan, Vec<String>), EngineError> {
        let mut columns: Vec<String> = Vec::new();
        let mut items: Vec<CompiledExpr> = Vec::new();
        let mut alias_to_pos: HashMap<String, usize> = HashMap::new();
        for item in &stmt.projection {
            let expanded: Vec<(usize, &Binding)> = match item {
                SelectItem::Wildcard => scope.bindings.iter().enumerate().collect(),
                SelectItem::QualifiedWildcard(q) => {
                    let ql = q.to_ascii_lowercase();
                    let found = scope
                        .bindings
                        .iter()
                        .enumerate()
                        .find(|(_, b)| b.binding == ql);
                    vec![found.ok_or_else(|| EngineError::UnknownTable(q.clone()))?]
                }
                SelectItem::Expr { expr, alias } => {
                    let compiled = self.compile(scope, expr)?;
                    if let Some(a) = alias {
                        alias_to_pos.insert(a.to_ascii_lowercase(), items.len());
                    }
                    columns.push(output_name(expr, alias));
                    items.push(compiled);
                    continue;
                }
            };
            for (factor, b) in expanded {
                for (column, name) in b.columns.iter().enumerate() {
                    columns.push(name.clone());
                    items.push(CompiledExpr::Col {
                        level: 0,
                        factor,
                        column,
                    });
                }
            }
        }
        // ORDER BY keys: projection aliases first, then scope columns.
        let mut order = Vec::with_capacity(stmt.order_by.len());
        for o in &stmt.order_by {
            let alias = match &o.expr {
                Expr::Column(c) if c.qualifier.is_none() => {
                    alias_to_pos.get(&c.name.to_ascii_lowercase())
                }
                _ => None,
            };
            order.push(match alias {
                Some(&pos) => OrderKey::Projected(pos),
                None => OrderKey::Expr(self.compile(scope, &o.expr)?),
            });
        }
        let plan = Plan::Project {
            source: Box::new(source),
            items,
            order,
        };
        Ok((plan, columns))
    }

    fn aggregate(
        &mut self,
        scope: &Scope<'_>,
        stmt: &SelectStatement,
        source: Node,
    ) -> Result<(Plan, Vec<String>), EngineError> {
        let mut aggs = Vec::new();
        let group = stmt
            .group_by
            .iter()
            .map(|g| self.compile(scope, g))
            .collect::<Result<_, _>>()?;
        let mut columns = Vec::new();
        let mut items = Vec::new();
        for item in &stmt.projection {
            let SelectItem::Expr { expr, alias } = item else {
                return Err(EngineError::Unsupported(
                    "wildcard projection cannot be combined with GROUP BY/aggregates".into(),
                ));
            };
            items.push(self.compile_agg(scope, expr, &mut aggs)?);
            columns.push(output_name(expr, alias));
        }
        let having = match &stmt.having {
            Some(h) => Some(self.compile_agg(scope, h, &mut aggs)?),
            None => None,
        };
        let mut order = Vec::with_capacity(stmt.order_by.len());
        for o in &stmt.order_by {
            // An alias names a projected expression: compile that instead.
            let aliased = match &o.expr {
                Expr::Column(c) if c.qualifier.is_none() => {
                    stmt.projection.iter().find_map(|p| match p {
                        SelectItem::Expr {
                            expr,
                            alias: Some(a),
                        } if a.eq_ignore_ascii_case(&c.name) => Some(expr),
                        _ => None,
                    })
                }
                _ => None,
            };
            order.push(self.compile_agg(scope, aliased.unwrap_or(&o.expr), &mut aggs)?);
        }
        let plan = Plan::Aggregate(Box::new(Aggregate {
            source,
            width: scope.bindings.len(),
            group,
            aggs,
            having,
            items,
            order,
        }));
        Ok((plan, columns))
    }
}

fn output_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column(c) => c.name.clone(),
        other => expr_to_sql(other),
    }
}

fn projection_has_aggregate(stmt: &SelectStatement) -> bool {
    stmt.projection.iter().any(|item| match item {
        SelectItem::Expr { expr, .. } => expr_has_aggregate(expr),
        _ => false,
    })
}

fn order_by_has_aggregate(stmt: &SelectStatement) -> bool {
    stmt.order_by.iter().any(|o| expr_has_aggregate(&o.expr))
}

fn expr_has_aggregate(e: &Expr) -> bool {
    match e {
        Expr::Function { name, star, .. } => AggKind::from_name(name, *star).is_some(),
        Expr::Column(_) | Expr::Literal(_) => false,
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr_has_aggregate(expr),
        Expr::Binary { left, right, .. } => expr_has_aggregate(left) || expr_has_aggregate(right),
        Expr::InList { expr, list, .. } => {
            expr_has_aggregate(expr) || list.iter().any(expr_has_aggregate)
        }
        Expr::InSubquery { expr, .. } => expr_has_aggregate(expr),
        Expr::Between {
            expr, low, high, ..
        } => expr_has_aggregate(expr) || expr_has_aggregate(low) || expr_has_aggregate(high),
        Expr::Like { expr, pattern, .. } => expr_has_aggregate(expr) || expr_has_aggregate(pattern),
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => false,
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            operand.as_deref().is_some_and(expr_has_aggregate)
                || branches
                    .iter()
                    .any(|(w, t)| expr_has_aggregate(w) || expr_has_aggregate(t))
                || else_branch.as_deref().is_some_and(expr_has_aggregate)
        }
    }
}

/// Does conjunct `c` reference only binding `b` (and no subqueries, no outer
/// columns)? Such predicates can be pushed down to the factor scan.
fn references_only(c: &Expr, b: &Binding) -> bool {
    struct Only<'b>(&'b Binding, bool, bool);
    impl Visitor for Only<'_> {
        fn visit_column(&mut self, col: &ColumnRef, _depth: usize) {
            let Only(b, only, any) = self;
            *any = true;
            *only &= match &col.qualifier {
                Some(q) => q.eq_ignore_ascii_case(&b.binding),
                None => b.columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name)),
            };
        }
    }
    if c.contains_subquery() {
        return false;
    }
    let mut v = Only(b, true, false);
    walk_expr(&mut v, c, 0);
    v.1 && v.2
}

/// If `c` equates a column of `acc` with a column of `b`, its hash-join
/// key: the `(factor, column)` in `acc` and the column of `b`.
fn join_key_of(c: &Expr, acc: &[Binding], b: &Binding) -> Option<((usize, usize), usize)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = c
    else {
        return None;
    };
    let (Expr::Column(l), Expr::Column(r)) = (&**left, &**right) else {
        return None;
    };
    let b = std::slice::from_ref(b);
    let key = |a, x| Some((column_of(a, acc)?, column_of(x, b)?.1));
    key(l, r).or_else(|| key(r, l))
}

/// `(factor, column)` of `col` among `bindings` (first match).
fn column_of(col: &ColumnRef, bindings: &[Binding]) -> Option<(usize, usize)> {
    bindings.iter().enumerate().find_map(|(factor, b)| {
        if col
            .qualifier
            .as_ref()
            .is_some_and(|q| !q.eq_ignore_ascii_case(&b.binding))
        {
            return None;
        }
        let column = b
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&col.name))?;
        Some((factor, column))
    })
}

/// If `c` is `col = <literal>` (either orientation) on binding `b`, return
/// the column's position and the literal's value.
fn as_col_eq_literal(c: &Expr, b: &Binding) -> Option<(usize, Value)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = c
    else {
        return None;
    };
    let (col, lit) = match (&**left, &**right) {
        (Expr::Column(col), Expr::Literal(l)) | (Expr::Literal(l), Expr::Column(col))
            if l.is_constant() =>
        {
            (col, l)
        }
        _ => return None,
    };
    let (_, column) = column_of(col, std::slice::from_ref(b))?;
    Some((column, literal_value(lit)?))
}

// ---------------------------------------------------------------------
// Running the tree
// ---------------------------------------------------------------------

/// Output rows paired with their ORDER BY keys.
type KeyedRows = Vec<(Vec<Value>, Row)>;

/// Tuples of one width, stored flat.
struct Tuples<'r> {
    width: usize,
    slots: Vec<Option<&'r Row>>,
}

impl<'r> Tuples<'r> {
    fn iter(&self) -> std::slice::ChunksExact<'_, Option<&'r Row>> {
        self.slots.chunks_exact(self.width)
    }
}

/// Do all `predicates` hold (exactly TRUE) under `ctx`?
fn all(predicates: &[CompiledExpr], ctx: &EvalCtx<'_>) -> Result<bool, EngineError> {
    for p in predicates {
        if !p.eval_predicate(ctx)? {
            return Ok(false);
        }
    }
    Ok(true)
}

impl Scan {
    /// The rows of the table that pass every pushed-down conjunct.
    fn rows<'a>(&self, ctx: &EvalCtx<'a>) -> Result<Vec<&'a Row>, EngineError> {
        let table = ctx.catalog.table(&self.table)?;
        let mut out = Vec::new();
        for row in &table.rows {
            let equal = self
                .equals
                .iter()
                .all(|(c, v)| row[*c].sql_eq(v) == Some(true));
            if equal && all(&self.filters, &ctx.at(&[Some(row)]))? {
                out.push(&**row);
            }
        }
        Ok(out)
    }
}

impl Node {
    fn tuples<'a>(&self, ctx: &EvalCtx<'a>) -> Result<Tuples<'a>, EngineError> {
        match self {
            Node::Scan(scan) => Ok(Tuples {
                width: 1,
                slots: scan.rows(ctx)?.into_iter().map(Some).collect(),
            }),
            Node::Join {
                left,
                right,
                kind,
                keys,
                residual,
            } => {
                let left = left.tuples(ctx)?;
                let rows = right.rows(ctx)?;
                let mut join = Joiner {
                    ctx,
                    rows: &rows,
                    residual,
                    kind: *kind,
                    out: Tuples {
                        width: left.width + 1,
                        slots: Vec::new(),
                    },
                    right_matched: match kind {
                        JoinKind::RightOuter | JoinKind::FullOuter => vec![false; rows.len()],
                        _ => Vec::new(),
                    },
                };
                match keys.as_slice() {
                    [] => {
                        for t in left.iter() {
                            join.probe(t, 0..rows.len())?;
                        }
                    }
                    &[((f, c), rc)] => join.hash(
                        &left,
                        |t| join_key(t[f].map(|row| &row[c])),
                        |row| join_key(Some(&row[rc])),
                    )?,
                    keys => join.hash(
                        &left,
                        |t| {
                            let cells = keys.iter().map(|&((f, c), _)| t[f].map(|row| &row[c]));
                            cells.map(join_key).collect::<Option<Vec<Key>>>()
                        },
                        |row| {
                            let cells = keys.iter().map(|&(_, rc)| Some(&row[rc]));
                            cells.map(join_key).collect::<Option<Vec<Key>>>()
                        },
                    )?,
                }
                Ok(join.finish(left.width))
            }
            Node::Filter { source, predicates } => {
                let tuples = source.tuples(ctx)?;
                let mut kept = Vec::new();
                for t in tuples.iter() {
                    if all(predicates, &ctx.at(t))? {
                        kept.extend_from_slice(t);
                    }
                }
                Ok(Tuples {
                    slots: kept,
                    ..tuples
                })
            }
        }
    }
}

/// A join key cell's hash key; NULL (or a NULL-extended factor) never
/// joins.
fn join_key(cell: Option<&Value>) -> Option<Key> {
    cell.filter(|v| !v.is_null()).map(Value::group_key)
}

/// One join step's output under construction.
struct Joiner<'j, 'a> {
    ctx: &'j EvalCtx<'a>,
    rows: &'j [&'a Row],
    residual: &'j [CompiledExpr],
    kind: JoinKind,
    out: Tuples<'a>,
    /// Which right rows matched (RIGHT/FULL joins only).
    right_matched: Vec<bool>,
}

impl<'a> Joiner<'_, 'a> {
    /// Emit `left` joined with each candidate right row the residual
    /// accepts, or NULL-extended if none does and the join keeps it.
    fn probe(
        &mut self,
        left: &Tuple<'a>,
        candidates: impl Iterator<Item = usize>,
    ) -> Result<(), EngineError> {
        let mut matched = false;
        for ri in candidates {
            let start = self.out.slots.len();
            self.out.slots.extend_from_slice(left);
            self.out.slots.push(Some(self.rows[ri]));
            if all(self.residual, &self.ctx.at(&self.out.slots[start..]))? {
                matched = true;
                if let Some(m) = self.right_matched.get_mut(ri) {
                    *m = true;
                }
            } else {
                self.out.slots.truncate(start);
            }
        }
        if !matched && matches!(self.kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
            self.out.slots.extend_from_slice(left);
            self.out.slots.push(None);
        }
        Ok(())
    }

    /// Hash join: build over the right rows (chained in insertion order),
    /// probe with each left tuple.
    fn hash<K: Hash + Eq>(
        &mut self,
        left: &Tuples<'a>,
        left_key: impl Fn(&Tuple<'a>) -> Option<K>,
        right_key: impl Fn(&Row) -> Option<K>,
    ) -> Result<(), EngineError> {
        let mut chains = HashMap::with_capacity(self.rows.len());
        let mut next: Vec<Option<usize>> = vec![None; self.rows.len()];
        for (i, row) in self.rows.iter().enumerate() {
            let Some(key) = right_key(row) else { continue };
            match chains.entry(key) {
                Entry::Occupied(mut e) => {
                    let (_, last) = e.get_mut();
                    next[*last] = Some(i);
                    *last = i;
                }
                Entry::Vacant(e) => {
                    e.insert((i, i));
                }
            }
        }
        for t in left.iter() {
            let first = left_key(t)
                .and_then(|k| chains.get(&k))
                .map(|&(first, _)| first);
            self.probe(t, std::iter::successors(first, |&i| next[i]))?;
        }
        Ok(())
    }

    /// Append a RIGHT/FULL join's unmatched right rows, NULL-extended.
    fn finish(mut self, left_width: usize) -> Tuples<'a> {
        for (ri, _) in self.right_matched.iter().enumerate().filter(|(_, m)| !**m) {
            let slots = &mut self.out.slots;
            slots.extend(std::iter::repeat_n(None, left_width));
            slots.push(Some(self.rows[ri]));
        }
        self.out
    }
}

impl Plan {
    /// Run the plan; `outer` holds the enclosing tuples of a correlated
    /// subquery.
    pub(crate) fn run(
        &self,
        catalog: &Catalog,
        outer: &Outer<'_>,
    ) -> Result<Vec<Row>, EngineError> {
        let rows = self.keyed(&EvalCtx::new(catalog, outer))?;
        Ok(rows.into_iter().map(|(_, row)| row).collect())
    }

    fn keyed(&self, ctx: &EvalCtx<'_>) -> Result<KeyedRows, EngineError> {
        Ok(match self {
            Plan::Const(items) => {
                vec![(Vec::new(), eval_all(items, ctx)?)]
            }
            Plan::Project {
                source,
                items,
                order,
            } => {
                let tuples = source.tuples(ctx)?;
                let mut out = Vec::with_capacity(tuples.slots.len() / tuples.width);
                for t in tuples.iter() {
                    let cx = ctx.at(t);
                    let row = eval_all(items, &cx)?;
                    let mut keys = Vec::with_capacity(order.len());
                    for k in order {
                        keys.push(match k {
                            OrderKey::Projected(p) => row[*p].clone(),
                            OrderKey::Expr(e) => e.eval(&cx)?,
                        });
                    }
                    out.push((keys, row));
                }
                out
            }
            Plan::Aggregate(a) => a.run(ctx)?,
            Plan::Distinct(source) => {
                let mut rows = source.keyed(ctx)?;
                let mut seen = HashSet::with_capacity(rows.len());
                rows.retain(|(_, row)| seen.insert(row_key(row)));
                rows
            }
            Plan::Sort { source, descs } => {
                let mut rows = source.keyed(ctx)?;
                rows.sort_by(|(ka, _), (kb, _)| {
                    let keys = ka.iter().zip(kb).zip(descs);
                    let mut ords = keys.map(|((a, b), &desc)| {
                        let ord = a.total_cmp(b);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    });
                    ords.find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                });
                rows
            }
            Plan::Limit {
                source,
                offset,
                limit,
            } => {
                let mut rows = source.keyed(ctx)?;
                if let Some(offset) = offset {
                    rows.drain(..(*offset as usize).min(rows.len()));
                }
                if let Some(limit) = limit {
                    rows.truncate(*limit as usize);
                }
                rows
            }
        })
    }
}

// ---------------------------------------------------------------------
// Grouping / aggregation
// ---------------------------------------------------------------------

/// Accumulator for one aggregate slot within one group.
enum AggState {
    Count(i64),
    Sum {
        sum_f: f64,
        any_float: bool,
        sum_i: i64,
        seen: bool,
    },
    Avg {
        sum: f64,
        n: i64,
    },
    MinMax {
        best: Option<Value>,
        is_min: bool,
    },
}

impl AggState {
    fn new(kind: AggKind) -> AggState {
        match kind {
            AggKind::Count | AggKind::CountStar => AggState::Count(0),
            AggKind::Sum => AggState::Sum {
                sum_f: 0.0,
                any_float: false,
                sum_i: 0,
                seen: false,
            },
            AggKind::Avg => AggState::Avg { sum: 0.0, n: 0 },
            AggKind::Min => AggState::MinMax {
                best: None,
                is_min: true,
            },
            AggKind::Max => AggState::MinMax {
                best: None,
                is_min: false,
            },
        }
    }

    fn update(&mut self, v: Option<&Value>) -> Result<(), EngineError> {
        match (self, v) {
            // COUNT(*) gets no argument (count every row); COUNT(x) skips NULLs.
            (AggState::Count(n), v) => *n += i64::from(v.is_none_or(|v| !v.is_null())),
            (_, None | Some(Value::Null)) => {}
            (
                AggState::Sum {
                    sum_f, sum_i, seen, ..
                },
                Some(Value::Int(i)),
            ) => {
                *sum_i += i;
                *sum_f += *i as f64;
                *seen = true;
            }
            (
                AggState::Sum {
                    sum_f,
                    any_float,
                    seen,
                    ..
                },
                Some(Value::Float(f)),
            ) => {
                *sum_f += f;
                *any_float = true;
                *seen = true;
            }
            (AggState::Sum { .. }, Some(other)) => {
                return Err(EngineError::TypeError(format!(
                    "SUM over non-numeric {other:?}"
                )))
            }
            (AggState::Avg { sum, n }, Some(val)) => {
                let f = val.as_f64().ok_or_else(|| {
                    EngineError::TypeError(format!("AVG over non-numeric {val:?}"))
                })?;
                *sum += f;
                *n += 1;
            }
            (AggState::MinMax { best, is_min }, Some(val)) => {
                let better = best.as_ref().is_none_or(|b| {
                    let ord = val.total_cmp(b);
                    if *is_min {
                        ord.is_lt()
                    } else {
                        ord.is_gt()
                    }
                });
                if better {
                    *best = Some(val.clone());
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum { seen: false, .. } | AggState::Avg { n: 0, .. } => Value::Null,
            AggState::Sum {
                sum_f,
                any_float: true,
                ..
            } => Value::Float(sum_f),
            AggState::Sum { sum_i, .. } => Value::Int(sum_i),
            AggState::Avg { sum, n } => Value::Float(sum / n as f64),
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
        }
    }
}

/// One group: its first input tuple (none for the empty scalar group)
/// and its accumulators.
struct Group {
    rep: Option<usize>,
    states: Vec<AggState>,
    distinct_seen: Vec<Option<HashSet<Key>>>,
}

impl Aggregate {
    fn group(&self, rep: Option<usize>) -> Group {
        Group {
            rep,
            states: self.aggs.iter().map(|a| AggState::new(a.kind)).collect(),
            distinct_seen: self
                .aggs
                .iter()
                .map(|a| a.distinct.then(HashSet::new))
                .collect(),
        }
    }

    /// Output rows in the order their groups first appear.
    fn run(&self, ctx: &EvalCtx<'_>) -> Result<KeyedRows, EngineError> {
        let tuples = self.source.tuples(ctx)?;
        let mut index: HashMap<Vec<Key>, usize> = HashMap::new();
        let mut groups: Vec<Group> = Vec::new();
        for (ti, t) in tuples.iter().enumerate() {
            let cx = ctx.at(t);
            let mut key = Vec::with_capacity(self.group.len());
            for g in &self.group {
                key.push(g.value(&cx)?.group_key());
            }
            let gi = *index.entry(key).or_insert_with(|| {
                groups.push(self.group(Some(ti)));
                groups.len() - 1
            });
            let group = &mut groups[gi];
            for (i, spec) in self.aggs.iter().enumerate() {
                let arg = match &spec.arg {
                    None => None,
                    Some(a) => Some(a.value(&cx)?),
                };
                if let (Some(seen), Some(v)) = (&mut group.distinct_seen[i], &arg) {
                    if !v.is_null() && !seen.insert(v.group_key()) {
                        continue; // duplicate under DISTINCT
                    }
                }
                group.states[i].update(arg.as_deref())?;
            }
        }
        // A scalar aggregate over zero rows still yields one output row.
        if self.group.is_empty() && groups.is_empty() {
            groups.push(self.group(None));
        }

        let nulls = vec![None; self.width];
        let mut out = Vec::with_capacity(groups.len());
        for group in groups {
            let agg_values: Vec<Value> = group.states.into_iter().map(AggState::finish).collect();
            let w = tuples.width;
            let rep = group
                .rep
                .map_or(&nulls[..], |i| &tuples.slots[i * w..(i + 1) * w]);
            let cx = EvalCtx {
                agg_values: Some(&agg_values),
                ..ctx.at(rep)
            };
            if let Some(h) = &self.having {
                if !h.eval_predicate(&cx)? {
                    continue;
                }
            }
            out.push((eval_all(&self.order, &cx)?, eval_all(&self.items, &cx)?));
        }
        Ok(out)
    }
}
