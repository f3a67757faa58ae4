//! Query executor.
//!
//! The executor plans and runs one SELECT at a time, directly from the AST:
//!
//! 1. **FROM resolution** — every table factor becomes a [`Binding`]; the
//!    joined relation is built left-to-right. Equality conjuncts (from
//!    explicit `ON` clauses or from the WHERE clause for comma joins) turn
//!    the step into a *hash join*; otherwise it degrades to a filtered
//!    cartesian product.
//! 2. **Predicate pushdown** — WHERE conjuncts touching a single table are
//!    applied during that table's scan; an equality conjunct against a
//!    literal uses a hash index when one exists.
//! 3. **Grouping/aggregation** — hash aggregation with COUNT/SUM/AVG/MIN/MAX
//!    (+DISTINCT), HAVING, and aggregate references in ORDER BY.
//! 4. **DISTINCT, ORDER BY, LIMIT/OFFSET.**
//!
//! Every run reports [`ExecStats`]: base rows scanned and a plan string —
//! these become the "runtime features" the CQMS Query Profiler logs (§4.1).

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::expr::{AggKind, AggSpec, Binding, CompiledExpr, Compiler, EvalCtx, Scope};
use crate::index::IndexAccess;
use crate::table::Row;
use crate::value::{row_key, Key, Value};
use sqlparse::ast::*;
use sqlparse::printer::expr_to_sql;
use std::collections::{HashMap, HashSet};

/// Execution statistics for one SELECT.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecStats {
    /// Base-table rows read (before any filtering).
    pub rows_scanned: u64,
    /// Human-readable plan description, e.g.
    /// `Scan(attributes idx[attrname]) -> HashJoin(attributes) -> Filter(2)`.
    pub plan: String,
}

/// A fully-evaluated SELECT result.
pub struct SelectOutput {
    pub columns: Vec<String>,
    pub rows: Vec<Row>,
    pub stats: ExecStats,
}

/// Run a top-level SELECT.
pub fn run_select(
    catalog: &Catalog,
    stmt: &SelectStatement,
    indexes: Option<&mut dyn IndexAccess>,
) -> Result<SelectOutput, EngineError> {
    run_select_inner(catalog, stmt, &[], &[], indexes)
}

/// Run a (possibly correlated) subquery: `outer` carries the binding chain of
/// the enclosing scopes (outermost first) and `env` the matching row stack.
pub fn run_subquery(
    catalog: &Catalog,
    stmt: &SelectStatement,
    outer: &[Vec<Binding>],
    env: &[&[Value]],
) -> Result<Vec<Row>, EngineError> {
    Ok(run_select_inner(catalog, stmt, outer, env, None)?.rows)
}

/// Resolve the FROM clause of `stmt` into bindings with row offsets.
pub fn bindings_for(
    catalog: &Catalog,
    stmt: &SelectStatement,
) -> Result<Vec<Binding>, EngineError> {
    let mut bindings = Vec::new();
    let mut offset = 0usize;
    let push = |name: &str,
                binding_name: &str,
                bindings: &mut Vec<Binding>,
                offset: &mut usize|
     -> Result<(), EngineError> {
        let table = catalog.table(name)?;
        let columns: Vec<String> = table
            .schema
            .columns
            .iter()
            .map(|c| c.name.to_ascii_lowercase())
            .collect();
        let arity = columns.len();
        bindings.push(Binding {
            binding: binding_name.to_ascii_lowercase(),
            table: name.to_ascii_lowercase(),
            columns,
            offset: *offset,
        });
        *offset += arity;
        Ok(())
    };
    for t in &stmt.from {
        push(&t.name, t.binding_name(), &mut bindings, &mut offset)?;
        for j in &t.joins {
            push(&j.table, j.binding_name(), &mut bindings, &mut offset)?;
        }
    }
    Ok(bindings)
}

/// One factor to join, in FROM order.
struct Factor<'a> {
    binding_idx: usize,
    join_kind: Option<JoinKind>,
    on: Option<&'a Expr>,
}

fn run_select_inner(
    catalog: &Catalog,
    stmt: &SelectStatement,
    outer: &[Vec<Binding>],
    env: &[&[Value]],
    mut indexes: Option<&mut dyn IndexAccess>,
) -> Result<SelectOutput, EngineError> {
    if stmt.from.is_empty() {
        return run_fromless(catalog, stmt, outer, env);
    }
    let bindings = bindings_for(catalog, stmt)?;

    // Build the scope chain: outer scopes first, then this SELECT's scope.
    let chains: Vec<Vec<Binding>> = outer.to_vec();
    let scope = build_scope_chain(&chains, bindings.clone());

    // Collect the factor list in join order.
    let mut factors = Vec::new();
    {
        let mut idx = 0usize;
        for t in &stmt.from {
            factors.push(Factor {
                binding_idx: idx,
                join_kind: None,
                on: None,
            });
            idx += 1;
            for j in &t.joins {
                factors.push(Factor {
                    binding_idx: idx,
                    join_kind: Some(j.kind),
                    on: j.on.as_ref(),
                });
                idx += 1;
            }
        }
    }

    // Split WHERE into conjuncts and classify.
    let conjuncts: Vec<&Expr> = stmt
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts())
        .unwrap_or_default();
    let mut consumed = vec![false; conjuncts.len()];

    let mut plan_steps: Vec<String> = Vec::new();
    let mut rows_scanned = 0u64;

    // --- Stage 1: join pipeline -------------------------------------------------
    let mut acc_rows: Vec<Row> = Vec::new();
    let mut acc_bindings: Vec<Binding> = Vec::new();

    for (fi, factor) in factors.iter().enumerate() {
        let b = &bindings[factor.binding_idx];
        let table = catalog.table(&b.table)?;
        rows_scanned += table.len() as u64;

        // Single-table pushdown predicates for this factor (comma joins pull
        // them from WHERE; they also apply inside INNER joins).
        let outer_join = matches!(
            factor.join_kind,
            Some(JoinKind::LeftOuter) | Some(JoinKind::RightOuter) | Some(JoinKind::FullOuter)
        );
        let mut pushed: Vec<usize> = Vec::new();
        if !outer_join {
            for (ci, c) in conjuncts.iter().enumerate() {
                if !consumed[ci] && references_only(c, b, &scope) {
                    pushed.push(ci);
                }
            }
        }

        // The `col = literal` pushdown conjuncts narrow the scan: through a
        // declared index on one of them, else by checking them against the
        // table's rows in place — either way only the rows they admit are
        // copied out.
        let probes: Vec<(usize, String, Value)> = pushed
            .iter()
            .filter_map(|&ci| as_col_eq_literal(conjuncts[ci], b))
            .map(|(col_name, lit)| {
                let col_idx = b.columns.iter().position(|c| c == &col_name).unwrap();
                (col_idx, col_name, literal_value(&lit))
            })
            .collect();
        let mut index_note = String::new();
        let mut indexed: Option<Vec<Row>> = None;
        if let Some(idxs) = indexes.as_mut() {
            for (col_idx, col_name, val) in &probes {
                if let Some(idx) = idxs.prepared(&b.table, col_name, table, *col_idx) {
                    let hits = idx.lookup(val).iter();
                    indexed = Some(hits.map(|&pos| Row::clone(&table.rows[pos])).collect());
                    index_note = format!(" idx[{col_name}]");
                    break;
                }
            }
        }
        let base_rows: Vec<Row> = indexed.unwrap_or_else(|| {
            let admits = |r: &Row| probes.iter().all(|(i, _, v)| r[*i].sql_eq(v) == Some(true));
            let admitted = table.rows.iter().filter(|r| admits(r));
            admitted.map(|r| Row::clone(r)).collect()
        });

        // Apply remaining pushdown filters on the factor alone.
        let filtered: Vec<Row> = if pushed.is_empty() {
            base_rows
        } else {
            // Compile pushdown predicates against a factor-local scope so the
            // offsets match the standalone row.
            let mut local = b.clone();
            local.offset = 0;
            let local_scope = build_scope_chain(&chains, vec![local]);
            let compiled: Vec<CompiledExpr> = local_scope.with(|sc| {
                pushed
                    .iter()
                    .map(|&ci| Compiler::new(sc, catalog).compile(conjuncts[ci]))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            let mut out = Vec::new();
            'row: for row in base_rows {
                let mut ctx = EvalCtx::new(catalog, &row);
                ctx.env = env
                    .iter()
                    .copied()
                    .chain(std::iter::once(&row[..]))
                    .collect();
                for ce in &compiled {
                    if !ce.eval_predicate(&ctx)? {
                        continue 'row;
                    }
                }
                out.push(row);
            }
            for &ci in &pushed {
                consumed[ci] = true;
            }
            out
        };
        let scan_note = format!(
            "Scan({}{}{})",
            b.table,
            index_note,
            if pushed.is_empty() {
                String::new()
            } else {
                format!(" +{}f", pushed.len())
            }
        );

        if fi == 0 {
            acc_rows = filtered;
            acc_bindings.push(b.clone());
            plan_steps.push(scan_note);
            continue;
        }

        // Determine the join condition for this step.
        let kind = factor.join_kind.unwrap_or(JoinKind::Inner);
        let mut join_conjuncts: Vec<&Expr> = Vec::new();
        if let Some(on) = factor.on {
            join_conjuncts.extend(on.conjuncts());
        }
        if factor.join_kind.is_none() {
            // Comma join: claim applicable WHERE equi-conjuncts now.
            for (ci, c) in conjuncts.iter().enumerate() {
                if !consumed[ci] && is_equi_between(c, &acc_bindings, b) {
                    join_conjuncts.push(c);
                    consumed[ci] = true;
                }
            }
        }

        let (joined, note) = join_step(
            catalog,
            &chains,
            env,
            &acc_bindings,
            acc_rows,
            b,
            filtered,
            kind,
            &join_conjuncts,
        )?;
        plan_steps.push(format!("{scan_note} -> {note}"));
        acc_rows = joined;
        acc_bindings.push(b.clone());
    }

    // --- Stage 2: residual WHERE -------------------------------------------------
    let residual: Vec<&Expr> = conjuncts
        .iter()
        .enumerate()
        .filter(|(ci, _)| !consumed[*ci])
        .map(|(_, c)| *c)
        .collect();
    if !residual.is_empty() {
        let compiled: Vec<CompiledExpr> = scope.with(|sc| {
            residual
                .iter()
                .map(|c| Compiler::new(sc, catalog).compile(c))
                .collect::<Result<Vec<_>, _>>()
        })?;
        let mut out = Vec::with_capacity(acc_rows.len());
        'row: for row in acc_rows {
            let mut ctx = EvalCtx::new(catalog, &row);
            ctx.env = env
                .iter()
                .copied()
                .chain(std::iter::once(&row[..]))
                .collect();
            for ce in &compiled {
                if !ce.eval_predicate(&ctx)? {
                    continue 'row;
                }
            }
            out.push(row);
        }
        acc_rows = out;
        plan_steps.push(format!("Filter({})", residual.len()));
    }

    // --- Stage 3: grouping / projection -------------------------------------------
    let needs_group = !stmt.group_by.is_empty()
        || stmt.having.is_some()
        || projection_has_aggregate(stmt)
        || order_by_has_aggregate(stmt);

    let (columns, mut out_rows) = if needs_group {
        let r = run_grouped(catalog, stmt, &scope, env, acc_rows, &mut plan_steps)?;
        (r.0, r.1)
    } else {
        run_projection(catalog, stmt, &scope, env, acc_rows, &mut plan_steps)?
    };

    // --- Stage 4: DISTINCT --------------------------------------------------------
    if stmt.distinct {
        let mut seen: HashSet<Vec<Key>> = HashSet::with_capacity(out_rows.len());
        out_rows.retain(|kr| seen.insert(row_key(&kr.1)));
        plan_steps.push("Distinct".into());
    }

    // --- Stage 5: ORDER BY / LIMIT -------------------------------------------------
    if !stmt.order_by.is_empty() {
        let descs: Vec<bool> = stmt.order_by.iter().map(|o| o.desc).collect();
        out_rows.sort_by(|(ka, _), (kb, _)| {
            for (i, (a, b)) in ka.iter().zip(kb.iter()).enumerate() {
                let ord = a.total_cmp(b);
                let ord = if descs[i] { ord.reverse() } else { ord };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        plan_steps.push("Sort".into());
    }

    let mut rows: Vec<Row> = out_rows.into_iter().map(|(_, r)| r).collect();
    if let Some(offset) = stmt.offset {
        let n = (offset as usize).min(rows.len());
        rows.drain(..n);
    }
    if let Some(limit) = stmt.limit {
        rows.truncate(limit as usize);
        plan_steps.push(format!("Limit({limit})"));
    }

    Ok(SelectOutput {
        columns,
        rows,
        stats: ExecStats {
            rows_scanned,
            plan: plan_steps.join(" -> "),
        },
    })
}

/// Rows paired with their ORDER BY keys.
type KeyedRows = Vec<(Vec<Value>, Row)>;

/// SELECT without FROM (e.g. `SELECT 1 + 1`).
fn run_fromless(
    catalog: &Catalog,
    stmt: &SelectStatement,
    outer: &[Vec<Binding>],
    env: &[&[Value]],
) -> Result<SelectOutput, EngineError> {
    let chains: Vec<Vec<Binding>> = outer.to_vec();
    let scope = build_scope_chain(&chains, Vec::new());
    let mut columns = Vec::new();
    let mut row = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Expr { expr, alias } => {
                let ce = scope.with(|sc| Compiler::new(sc, catalog).compile(expr))?;
                let empty: Row = Vec::new();
                let mut ctx = EvalCtx::new(catalog, &empty);
                ctx.env = env
                    .iter()
                    .copied()
                    .chain(std::iter::once(&empty[..]))
                    .collect();
                row.push(ce.eval(&ctx)?);
                columns.push(output_name(expr, alias));
            }
            _ => {
                return Err(EngineError::Unsupported(
                    "wildcard requires a FROM clause".into(),
                ))
            }
        }
    }
    Ok(SelectOutput {
        columns,
        rows: vec![row],
        stats: ExecStats {
            rows_scanned: 0,
            plan: "Const".into(),
        },
    })
}

/// Build a `Scope` chain from owned binding vectors. The chain is rebuilt on
/// each call (cheap: bindings are small) to sidestep self-referential
/// lifetimes.
fn build_scope_chain(outer: &[Vec<Binding>], current: Vec<Binding>) -> OwnedScope {
    OwnedScope {
        chain: outer.to_vec(),
        current,
    }
}

/// An owned scope chain that can hand out a borrowed `Scope` view.
struct OwnedScope {
    chain: Vec<Vec<Binding>>,
    current: Vec<Binding>,
}

impl OwnedScope {
    /// Run `f` with the borrowed `Scope` chain assembled on the stack.
    fn with<R>(&self, f: impl for<'s, 't> FnOnce(&'s Scope<'t>) -> R) -> R {
        fn rec<R, F: for<'s, 't> FnOnce(&'s Scope<'t>) -> R>(
            chain: &[Vec<Binding>],
            parent: Option<&Scope<'_>>,
            current: &[Binding],
            f: F,
        ) -> R {
            match chain.split_first() {
                None => {
                    let scope = Scope {
                        bindings: current.to_vec(),
                        parent,
                    };
                    f(&scope)
                }
                Some((first, rest)) => {
                    let scope = Scope {
                        bindings: first.clone(),
                        parent,
                    };
                    rec(rest, Some(&scope), current, f)
                }
            }
        }
        rec(&self.chain, None, &self.current, f)
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

// ---------------------------------------------------------------------
// Join machinery
// ---------------------------------------------------------------------

/// Does conjunct `c` reference only binding `b` (and no subqueries, no outer
/// columns)? Such predicates can be pushed down to the factor scan.
fn references_only(c: &Expr, b: &Binding, _scope: &OwnedScope) -> bool {
    if c.contains_subquery() {
        return false;
    }
    let mut only = true;
    let mut any = false;
    collect_columns(c, &mut |col| {
        any = true;
        match &col.qualifier {
            Some(q) => {
                if !q.eq_ignore_ascii_case(&b.binding) {
                    only = false;
                }
            }
            None => {
                if !b
                    .columns
                    .iter()
                    .any(|cc| cc.eq_ignore_ascii_case(&col.name))
                {
                    only = false;
                }
            }
        }
    });
    only && any
}

/// Is `c` an equality between a column of the accumulated bindings and a
/// column of the new binding?
fn is_equi_between(c: &Expr, acc: &[Binding], b: &Binding) -> bool {
    equi_key_columns(c, acc, b).is_some()
}

/// For an equi-join conjunct, return (left column ref, right column ref)
/// where left resolves in `acc` and right in `b`.
fn equi_key_columns<'e>(
    c: &'e Expr,
    acc: &[Binding],
    b: &Binding,
) -> Option<(&'e ColumnRef, &'e ColumnRef)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = c
    else {
        return None;
    };
    let (Expr::Column(cl), Expr::Column(cr)) = (&**left, &**right) else {
        return None;
    };
    let in_acc = |col: &ColumnRef| resolves_in(col, acc);
    let in_b = |col: &ColumnRef| resolves_in(col, std::slice::from_ref(b));
    if in_acc(cl) && in_b(cr) {
        Some((cl, cr))
    } else if in_acc(cr) && in_b(cl) {
        Some((cr, cl))
    } else {
        None
    }
}

fn resolves_in(col: &ColumnRef, bindings: &[Binding]) -> bool {
    bindings.iter().any(|b| {
        let qual_ok = match &col.qualifier {
            Some(q) => q.eq_ignore_ascii_case(&b.binding),
            None => true,
        };
        qual_ok && b.columns.iter().any(|c| c.eq_ignore_ascii_case(&col.name))
    })
}

fn collect_columns(e: &Expr, f: &mut impl FnMut(&ColumnRef)) {
    match e {
        Expr::Column(c) => f(c),
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => collect_columns(expr, f),
        Expr::Binary { left, right, .. } => {
            collect_columns(left, f);
            collect_columns(right, f);
        }
        Expr::Function { args, .. } => {
            for a in args {
                collect_columns(a, f);
            }
        }
        Expr::InList { expr, list, .. } => {
            collect_columns(expr, f);
            for i in list {
                collect_columns(i, f);
            }
        }
        Expr::InSubquery { expr, .. } => collect_columns(expr, f),
        Expr::Between {
            expr, low, high, ..
        } => {
            collect_columns(expr, f);
            collect_columns(low, f);
            collect_columns(high, f);
        }
        Expr::Like { expr, pattern, .. } => {
            collect_columns(expr, f);
            collect_columns(pattern, f);
        }
        Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(op) = operand {
                collect_columns(op, f);
            }
            for (w, t) in branches {
                collect_columns(w, f);
                collect_columns(t, f);
            }
            if let Some(el) = else_branch {
                collect_columns(el, f);
            }
        }
    }
}

/// Column offset of `col` within the row of `bindings` (first match).
fn offset_in(col: &ColumnRef, bindings: &[Binding]) -> Option<usize> {
    for b in bindings {
        if let Some(q) = &col.qualifier {
            if !q.eq_ignore_ascii_case(&b.binding) {
                continue;
            }
        }
        if let Some(i) = b
            .columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(&col.name))
        {
            return Some(b.offset + i);
        }
    }
    None
}

/// Execute one join step, returning joined rows and a plan note.
#[allow(clippy::too_many_arguments)]
fn join_step(
    catalog: &Catalog,
    chains: &[Vec<Binding>],
    env: &[&[Value]],
    acc_bindings: &[Binding],
    acc_rows: Vec<Row>,
    right_binding: &Binding,
    right_rows: Vec<Row>,
    kind: JoinKind,
    join_conjuncts: &[&Expr],
) -> Result<(Vec<Row>, String), EngineError> {
    let right_arity = right_binding.arity();
    let acc_width: usize = acc_bindings.iter().map(Binding::arity).sum();

    // Partition conjuncts into hashable equi keys vs residual conditions.
    let mut left_keys: Vec<usize> = Vec::new();
    let mut right_keys: Vec<usize> = Vec::new();
    let mut residual: Vec<&Expr> = Vec::new();
    for c in join_conjuncts {
        if let Some((lcol, rcol)) = equi_key_columns(c, acc_bindings, right_binding) {
            if let (Some(lo), Some(ro)) = (
                offset_in(lcol, acc_bindings),
                offset_in(rcol, std::slice::from_ref(right_binding))
                    .map(|o| o - right_binding.offset),
            ) {
                left_keys.push(lo);
                right_keys.push(ro);
                continue;
            }
        }
        residual.push(c);
    }

    // Compile residual conditions against the combined scope.
    let combined: Vec<Binding> = acc_bindings
        .iter()
        .cloned()
        .chain(std::iter::once({
            let mut rb = right_binding.clone();
            rb.offset = acc_width;
            rb
        }))
        .collect();
    let owned = build_scope_chain(chains, combined);
    let compiled_residual: Vec<CompiledExpr> = owned.with(|scope| {
        residual
            .iter()
            .map(|c| Compiler::new(scope, catalog).compile(c))
            .collect::<Result<Vec<_>, _>>()
    })?;

    let eval_residual = |row: &Row| -> Result<bool, EngineError> {
        let mut ctx = EvalCtx::new(catalog, row);
        ctx.env = env
            .iter()
            .copied()
            .chain(std::iter::once(&row[..]))
            .collect();
        for ce in &compiled_residual {
            if !ce.eval_predicate(&ctx)? {
                return Ok(false);
            }
        }
        Ok(true)
    };

    let use_hash = !left_keys.is_empty() && kind != JoinKind::Cross;
    let mut out: Vec<Row> = Vec::new();
    let note;

    if use_hash {
        // Build hash table over the right side.
        let mut table: HashMap<Vec<Key>, Vec<usize>> = HashMap::with_capacity(right_rows.len());
        for (i, r) in right_rows.iter().enumerate() {
            let key: Vec<Key> = right_keys.iter().map(|&k| r[k].group_key()).collect();
            if right_keys.iter().any(|&k| r[k].is_null()) {
                continue; // NULL keys never join
            }
            table.entry(key).or_default().push(i);
        }
        let mut right_matched = vec![false; right_rows.len()];
        for lrow in &acc_rows {
            let mut matched = false;
            if !left_keys.iter().any(|&k| lrow[k].is_null()) {
                let key: Vec<Key> = left_keys.iter().map(|&k| lrow[k].group_key()).collect();
                if let Some(cands) = table.get(&key) {
                    for &ri in cands {
                        let mut row = lrow.clone();
                        row.extend(right_rows[ri].iter().cloned());
                        if eval_residual(&row)? {
                            right_matched[ri] = true;
                            matched = true;
                            out.push(row);
                        }
                    }
                }
            }
            if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_arity));
                out.push(row);
            }
        }
        if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            for (ri, r) in right_rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut row: Row = std::iter::repeat_n(Value::Null, acc_width).collect();
                    row.extend(r.iter().cloned());
                    out.push(row);
                }
            }
        }
        note = format!(
            "HashJoin({} on {} keys)",
            right_binding.table,
            left_keys.len()
        );
    } else {
        // Nested loop (also the CROSS JOIN path).
        let mut right_matched = vec![false; right_rows.len()];
        for lrow in &acc_rows {
            let mut matched = false;
            for (ri, rrow) in right_rows.iter().enumerate() {
                let mut row = lrow.clone();
                row.extend(rrow.iter().cloned());
                if eval_residual(&row)? {
                    matched = true;
                    right_matched[ri] = true;
                    out.push(row);
                }
            }
            if !matched && matches!(kind, JoinKind::LeftOuter | JoinKind::FullOuter) {
                let mut row = lrow.clone();
                row.extend(std::iter::repeat_n(Value::Null, right_arity));
                out.push(row);
            }
        }
        if matches!(kind, JoinKind::RightOuter | JoinKind::FullOuter) {
            for (ri, r) in right_rows.iter().enumerate() {
                if !right_matched[ri] {
                    let mut row: Row = std::iter::repeat_n(Value::Null, acc_width).collect();
                    row.extend(r.iter().cloned());
                    out.push(row);
                }
            }
        }
        note = if kind == JoinKind::Cross {
            format!("CrossJoin({})", right_binding.table)
        } else {
            format!("NestedLoopJoin({})", right_binding.table)
        };
    }

    Ok((out, note))
}

// ---------------------------------------------------------------------
// Projection (non-grouped)
// ---------------------------------------------------------------------

fn output_name(expr: &Expr, alias: &Option<String>) -> String {
    if let Some(a) = alias {
        return a.clone();
    }
    match expr {
        Expr::Column(c) => c.name.clone(),
        other => expr_to_sql(other),
    }
}

fn run_projection(
    catalog: &Catalog,
    stmt: &SelectStatement,
    scope: &OwnedScope,
    env: &[&[Value]],
    input: Vec<Row>,
    plan_steps: &mut Vec<String>,
) -> Result<(Vec<String>, KeyedRows), EngineError> {
    // Expand the projection into (name, source) pairs.
    enum Source {
        Offset(usize),
        Expr(CompiledExpr),
    }
    let mut columns: Vec<String> = Vec::new();
    let mut sources: Vec<Source> = Vec::new();
    let mut alias_to_pos: HashMap<String, usize> = HashMap::new();

    scope.with(|sc| -> Result<(), EngineError> {
        let current = &sc.bindings;
        for item in &stmt.projection {
            match item {
                SelectItem::Wildcard => {
                    for b in current {
                        for (i, cname) in b.columns.iter().enumerate() {
                            columns.push(cname.clone());
                            sources.push(Source::Offset(b.offset + i));
                        }
                    }
                }
                SelectItem::QualifiedWildcard(q) => {
                    let ql = q.to_ascii_lowercase();
                    let b = current
                        .iter()
                        .find(|b| b.binding == ql)
                        .ok_or_else(|| EngineError::UnknownTable(q.clone()))?;
                    for (i, cname) in b.columns.iter().enumerate() {
                        columns.push(cname.clone());
                        sources.push(Source::Offset(b.offset + i));
                    }
                }
                SelectItem::Expr { expr, alias } => {
                    let mut c = Compiler::new(sc, catalog);
                    let ce = c.compile(expr)?;
                    let name = output_name(expr, alias);
                    if let Some(a) = alias {
                        alias_to_pos.insert(a.to_ascii_lowercase(), sources.len());
                    }
                    columns.push(name);
                    sources.push(Source::Expr(ce));
                }
            }
        }
        Ok(())
    })?;

    // ORDER BY keys: projection aliases first, then scope columns.
    enum OrderSource {
        Projected(usize),
        Expr(CompiledExpr),
    }
    let order_sources: Vec<OrderSource> = scope.with(|sc| {
        stmt.order_by
            .iter()
            .map(|o| {
                if let Expr::Column(c) = &o.expr {
                    if c.qualifier.is_none() {
                        if let Some(&pos) = alias_to_pos.get(&c.name.to_ascii_lowercase()) {
                            return Ok(OrderSource::Projected(pos));
                        }
                    }
                }
                let mut comp = Compiler::new(sc, catalog);
                Ok(OrderSource::Expr(comp.compile(&o.expr)?))
            })
            .collect::<Result<Vec<_>, EngineError>>()
    })?;

    let mut out: KeyedRows = Vec::with_capacity(input.len());
    for row in input {
        let mut ctx = EvalCtx::new(catalog, &row);
        ctx.env = env
            .iter()
            .copied()
            .chain(std::iter::once(&row[..]))
            .collect();
        let mut projected: Row = Vec::with_capacity(sources.len());
        for s in &sources {
            projected.push(match s {
                Source::Offset(o) => row[*o].clone(),
                Source::Expr(ce) => ce.eval(&ctx)?,
            });
        }
        let mut keys: Vec<Value> = Vec::with_capacity(order_sources.len());
        for os in &order_sources {
            keys.push(match os {
                OrderSource::Projected(p) => projected[*p].clone(),
                OrderSource::Expr(ce) => ce.eval(&ctx)?,
            });
        }
        out.push((keys, projected));
    }
    plan_steps.push(format!("Project({})", columns.len()));
    Ok((columns, out))
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
        match self {
            AggState::Count(n) => {
                // COUNT(*) gets None-arg (count every row); COUNT(x) skips NULLs.
                match v {
                    None => *n += 1,
                    Some(val) if !val.is_null() => *n += 1,
                    _ => {}
                }
            }
            AggState::Sum {
                sum_f,
                any_float,
                sum_i,
                seen,
            } => {
                if let Some(val) = v {
                    match val {
                        Value::Null => {}
                        Value::Int(i) => {
                            *sum_i += i;
                            *sum_f += *i as f64;
                            *seen = true;
                        }
                        Value::Float(f) => {
                            *sum_f += f;
                            *any_float = true;
                            *seen = true;
                        }
                        other => {
                            return Err(EngineError::TypeError(format!(
                                "SUM over non-numeric {other:?}"
                            )))
                        }
                    }
                }
            }
            AggState::Avg { sum, n } => {
                if let Some(val) = v {
                    if let Some(f) = val.as_f64() {
                        *sum += f;
                        *n += 1;
                    } else if !val.is_null() {
                        return Err(EngineError::TypeError(format!(
                            "AVG over non-numeric {val:?}"
                        )));
                    }
                }
            }
            AggState::MinMax { best, is_min } => {
                if let Some(val) = v {
                    if val.is_null() {
                        return Ok(());
                    }
                    match best {
                        None => *best = Some(val.clone()),
                        Some(b) => {
                            let ord = val.total_cmp(b);
                            let better = if *is_min {
                                ord == std::cmp::Ordering::Less
                            } else {
                                ord == std::cmp::Ordering::Greater
                            };
                            if better {
                                *best = Some(val.clone());
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    fn finish(self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(n),
            AggState::Sum {
                sum_f,
                any_float,
                sum_i,
                seen,
            } => {
                if !seen {
                    Value::Null
                } else if any_float {
                    Value::Float(sum_f)
                } else {
                    Value::Int(sum_i)
                }
            }
            AggState::Avg { sum, n } => {
                if n == 0 {
                    Value::Null
                } else {
                    Value::Float(sum / n as f64)
                }
            }
            AggState::MinMax { best, .. } => best.unwrap_or(Value::Null),
        }
    }
}

fn run_grouped(
    catalog: &Catalog,
    stmt: &SelectStatement,
    scope: &OwnedScope,
    env: &[&[Value]],
    input: Vec<Row>,
    plan_steps: &mut Vec<String>,
) -> Result<(Vec<String>, KeyedRows), EngineError> {
    struct Compiled {
        group_exprs: Vec<CompiledExpr>,
        aggs: Vec<AggSpec>,
        proj: Vec<(String, CompiledExpr)>,
        having: Option<CompiledExpr>,
        order: Vec<CompiledExpr>,
    }

    let compiled: Compiled = scope.with(|sc| -> Result<Compiled, EngineError> {
        let mut aggs: Vec<AggSpec> = Vec::new();
        let group_exprs = stmt
            .group_by
            .iter()
            .map(|g| Compiler::new(sc, catalog).compile(g))
            .collect::<Result<Vec<_>, _>>()?;
        let mut proj = Vec::new();
        for item in &stmt.projection {
            match item {
                SelectItem::Expr { expr, alias } => {
                    let mut c = Compiler::with_aggregates(sc, catalog, &mut aggs);
                    let ce = c.compile(expr)?;
                    proj.push((output_name(expr, alias), ce));
                }
                _ => {
                    return Err(EngineError::Unsupported(
                        "wildcard projection cannot be combined with GROUP BY/aggregates".into(),
                    ))
                }
            }
        }
        let having = match &stmt.having {
            Some(h) => {
                let mut c = Compiler::with_aggregates(sc, catalog, &mut aggs);
                Some(c.compile(h)?)
            }
            None => None,
        };
        let order = stmt
            .order_by
            .iter()
            .map(|o| {
                // Aliases refer to projected expressions; check them first.
                if let Expr::Column(cr) = &o.expr {
                    if cr.qualifier.is_none() {
                        if let Some(pos) = stmt.projection.iter().position(|p| {
                            matches!(p, SelectItem::Expr { alias: Some(a), .. }
                                if a.eq_ignore_ascii_case(&cr.name))
                        }) {
                            // Re-compile the aliased projection expression.
                            if let SelectItem::Expr { expr, .. } = &stmt.projection[pos] {
                                let mut c = Compiler::with_aggregates(sc, catalog, &mut aggs);
                                return c.compile(expr);
                            }
                        }
                    }
                }
                let mut c = Compiler::with_aggregates(sc, catalog, &mut aggs);
                c.compile(&o.expr)
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Compiled {
            group_exprs,
            aggs,
            proj,
            having,
            order,
        })
    })?;

    // Accumulate groups.
    struct Group {
        rep_row: Row,
        states: Vec<AggState>,
        distinct_seen: Vec<Option<HashSet<Key>>>,
    }
    let mut groups: HashMap<Vec<Key>, Group> = HashMap::new();
    let scalar_query = stmt.group_by.is_empty();
    let width: usize = scope.with(|sc| sc.width());

    for row in input {
        let mut ctx = EvalCtx::new(catalog, &row);
        ctx.env = env
            .iter()
            .copied()
            .chain(std::iter::once(&row[..]))
            .collect();
        let key: Vec<Key> = compiled
            .group_exprs
            .iter()
            .map(|g| g.eval(&ctx).map(|v| v.group_key()))
            .collect::<Result<_, _>>()?;
        let group = groups.entry(key).or_insert_with(|| Group {
            rep_row: row.clone(),
            states: compiled
                .aggs
                .iter()
                .map(|a| AggState::new(a.kind))
                .collect(),
            distinct_seen: compiled
                .aggs
                .iter()
                .map(|a| {
                    if a.distinct {
                        Some(HashSet::new())
                    } else {
                        None
                    }
                })
                .collect(),
        });
        for (i, spec) in compiled.aggs.iter().enumerate() {
            let arg_val = match &spec.arg {
                None => None,
                Some(a) => Some(a.eval(&ctx)?),
            };
            if let (Some(seen), Some(v)) = (&mut group.distinct_seen[i], &arg_val) {
                if !v.is_null() && !seen.insert(v.group_key()) {
                    continue; // duplicate under DISTINCT
                }
            }
            group.states[i].update(arg_val.as_ref())?;
        }
    }

    // A scalar aggregate over zero rows still yields one output row.
    if scalar_query && groups.is_empty() {
        groups.insert(
            Vec::new(),
            Group {
                rep_row: std::iter::repeat_n(Value::Null, width).collect(),
                states: compiled
                    .aggs
                    .iter()
                    .map(|a| AggState::new(a.kind))
                    .collect(),
                distinct_seen: compiled.aggs.iter().map(|_| None).collect(),
            },
        );
    }

    let columns: Vec<String> = compiled.proj.iter().map(|(n, _)| n.clone()).collect();
    let mut out: KeyedRows = Vec::with_capacity(groups.len());
    for (_, group) in groups {
        let agg_values: Vec<Value> = group.states.into_iter().map(AggState::finish).collect();
        let rep = group.rep_row;
        let mut ctx = EvalCtx::new(catalog, &rep);
        ctx.env = env
            .iter()
            .copied()
            .chain(std::iter::once(&rep[..]))
            .collect();
        ctx.agg_values = Some(&agg_values);
        if let Some(h) = &compiled.having {
            if !h.eval_predicate(&ctx)? {
                continue;
            }
        }
        let mut prow: Row = Vec::with_capacity(compiled.proj.len());
        for (_, ce) in &compiled.proj {
            prow.push(ce.eval(&ctx)?);
        }
        let mut keys: Vec<Value> = Vec::with_capacity(compiled.order.len());
        for oe in &compiled.order {
            keys.push(oe.eval(&ctx)?);
        }
        out.push((keys, prow));
    }
    plan_steps.push(format!(
        "Group({} keys, {} aggs)",
        compiled.group_exprs.len(),
        compiled.aggs.len()
    ));
    Ok((columns, out))
}

// ---------------------------------------------------------------------
// small helpers
// ---------------------------------------------------------------------

/// If `c` is `col = <literal>` (either orientation) on binding `b`, return
/// the lower-cased column name and the literal.
fn as_col_eq_literal(c: &Expr, b: &Binding) -> Option<(String, Literal)> {
    let Expr::Binary {
        left,
        op: BinaryOp::Eq,
        right,
    } = c
    else {
        return None;
    };
    let (col, lit) = match (&**left, &**right) {
        (Expr::Column(col), Expr::Literal(l)) if l.is_constant() => (col, l),
        (Expr::Literal(l), Expr::Column(col)) if l.is_constant() => (col, l),
        _ => return None,
    };
    if let Some(q) = &col.qualifier {
        if !q.eq_ignore_ascii_case(&b.binding) {
            return None;
        }
    }
    let name = col.name.to_ascii_lowercase();
    if b.columns.iter().any(|c| c == &name) {
        Some((name, lit.clone()))
    } else {
        None
    }
}

fn literal_value(l: &Literal) -> Value {
    match l {
        Literal::Int(i) => Value::Int(*i),
        Literal::Float(f) => Value::Float(*f),
        Literal::Str(s) => Value::from(s.as_str()),
        Literal::Bool(b) => Value::Bool(*b),
        Literal::Null | Literal::Placeholder => Value::Null,
    }
}
