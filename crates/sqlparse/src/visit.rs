//! AST walker used by feature extraction, canonicalisation and repair.
//!
//! Two facilities:
//!
//! * [`Visitor`] — read-only traversal with callbacks for the nodes the CQMS
//!   cares about (table references, column references, comparison predicates,
//!   subqueries).
//! * [`rewrite_columns`] / [`rewrite_tables`] — in-place identifier rewrites
//!   used by the Query Maintenance component to repair queries after schema
//!   evolution (paper §4.4).

use crate::ast::*;

/// Read-only visitor. Implement the callbacks you need; defaults are no-ops.
pub trait Visitor {
    /// Called for each table in FROM (including explicit joins) of every
    /// (sub)query. `depth` is 0 for the top-level query.
    fn visit_table(&mut self, _name: &str, _alias: Option<&str>, _depth: usize) {}

    /// Called for every column reference in any clause.
    fn visit_column(&mut self, _col: &ColumnRef, _depth: usize) {}

    /// Called for every comparison predicate `col op literal`.
    fn visit_comparison(&mut self, _col: &ColumnRef, _op: BinaryOp, _lit: &Literal, _depth: usize) {
    }

    /// Called when entering a subquery.
    fn enter_subquery(&mut self, _depth: usize) {}
}

/// Walk a full statement.
pub fn walk_statement<V: Visitor>(v: &mut V, stmt: &Statement) {
    match stmt {
        Statement::Select(s) => walk_select(v, s, 0),
        Statement::Insert(i) => {
            v.visit_table(&i.table, None, 0);
            for row in &i.rows {
                for e in row {
                    walk_expr(v, e, 0);
                }
            }
        }
        Statement::CreateTable(c) => v.visit_table(&c.name, None, 0),
        Statement::Update(u) => {
            v.visit_table(&u.table, None, 0);
            for (_, e) in &u.assignments {
                walk_expr(v, e, 0);
            }
            if let Some(w) = &u.where_clause {
                walk_expr(v, w, 0);
            }
        }
        Statement::Delete(d) => {
            v.visit_table(&d.table, None, 0);
            if let Some(w) = &d.where_clause {
                walk_expr(v, w, 0);
            }
        }
        Statement::DropTable(t) => v.visit_table(t, None, 0),
        Statement::AlterRenameColumn { table, .. }
        | Statement::AlterDropColumn { table, .. }
        | Statement::AlterAddColumn { table, .. }
        | Statement::AlterRenameTable { table, .. } => v.visit_table(table, None, 0),
    }
}

/// Walk a SELECT at the given subquery depth.
pub fn walk_select<V: Visitor>(v: &mut V, s: &SelectStatement, depth: usize) {
    for t in &s.from {
        v.visit_table(&t.name, t.alias.as_deref(), depth);
        for j in &t.joins {
            v.visit_table(&j.table, j.alias.as_deref(), depth);
            if let Some(on) = &j.on {
                walk_expr(v, on, depth);
            }
        }
    }
    for item in &s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr(v, expr, depth);
        }
    }
    if let Some(w) = &s.where_clause {
        walk_expr(v, w, depth);
    }
    for e in &s.group_by {
        walk_expr(v, e, depth);
    }
    if let Some(h) = &s.having {
        walk_expr(v, h, depth);
    }
    for o in &s.order_by {
        walk_expr(v, &o.expr, depth);
    }
}

/// Walk an expression at the given subquery depth.
pub fn walk_expr<V: Visitor>(v: &mut V, e: &Expr, depth: usize) {
    match e {
        Expr::Column(c) => v.visit_column(c, depth),
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } => walk_expr(v, expr, depth),
        Expr::Binary { left, op, right } => {
            // Surface `col op literal` (either orientation) as a comparison.
            if op.is_comparison() {
                match (&**left, &**right) {
                    (Expr::Column(c), Expr::Literal(l)) => v.visit_comparison(c, *op, l, depth),
                    (Expr::Literal(l), Expr::Column(c)) => {
                        v.visit_comparison(c, flip_comparison(*op), l, depth)
                    }
                    _ => {}
                }
            }
            walk_expr(v, left, depth);
            walk_expr(v, right, depth);
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr(v, a, depth);
            }
        }
        Expr::InList { expr, list, .. } => {
            walk_expr(v, expr, depth);
            for item in list {
                walk_expr(v, item, depth);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr(v, expr, depth);
            v.enter_subquery(depth + 1);
            walk_select(v, subquery, depth + 1);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            walk_expr(v, expr, depth);
            walk_expr(v, low, depth);
            walk_expr(v, high, depth);
        }
        Expr::Like { expr, pattern, .. } => {
            walk_expr(v, expr, depth);
            walk_expr(v, pattern, depth);
        }
        Expr::IsNull { expr, .. } => walk_expr(v, expr, depth),
        Expr::Exists { subquery, .. } => {
            v.enter_subquery(depth + 1);
            walk_select(v, subquery, depth + 1);
        }
        Expr::ScalarSubquery(sub) => {
            v.enter_subquery(depth + 1);
            walk_select(v, sub, depth + 1);
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(op) = operand {
                walk_expr(v, op, depth);
            }
            for (w, t) in branches {
                walk_expr(v, w, depth);
                walk_expr(v, t, depth);
            }
            if let Some(e) = else_branch {
                walk_expr(v, e, depth);
            }
        }
    }
}

/// Mirror a comparison across its operands (`5 < x` ⇒ `x > 5`).
pub fn flip_comparison(op: BinaryOp) -> BinaryOp {
    match op {
        BinaryOp::Lt => BinaryOp::Gt,
        BinaryOp::LtEq => BinaryOp::GtEq,
        BinaryOp::Gt => BinaryOp::Lt,
        BinaryOp::GtEq => BinaryOp::LtEq,
        other => other,
    }
}

// ---------------------------------------------------------------------
// Rewriters (used by Query Maintenance repair, §4.4)
// ---------------------------------------------------------------------

/// Rename every reference to column `old` of table `table` (matched through
/// aliases) to `new`, across all clauses and subqueries. Returns the number
/// of references rewritten.
pub fn rewrite_columns(s: &mut SelectStatement, table: &str, old: &str, new: &str) -> usize {
    let mut n = 0;
    rewrite_select(s, &mut |col, scope| {
        if !col.name.eq_ignore_ascii_case(old) {
            return;
        }
        let refers_to_table = match &col.qualifier {
            Some(q) => scope.iter().any(|(name, binding)| {
                name.eq_ignore_ascii_case(table) && q.eq_ignore_ascii_case(binding)
            }),
            // Unqualified: rewrite if the table is in scope at all. This can
            // over-approximate for ambiguous names; the maintenance engine
            // re-validates by compiling against the current schema.
            None => scope
                .iter()
                .any(|(name, _)| name.eq_ignore_ascii_case(table)),
        };
        if refers_to_table {
            col.name = new.to_string();
            n += 1;
        }
    });
    n
}

/// Rename every FROM-clause reference to `old` to `new`. Aliases are kept, so
/// qualified column references keep working. Returns count of renames.
pub fn rewrite_tables(s: &mut SelectStatement, old: &str, new: &str) -> usize {
    let mut n = 0;
    fn walk(s: &mut SelectStatement, old: &str, new: &str, n: &mut usize) {
        for t in &mut s.from {
            if t.name.eq_ignore_ascii_case(old) {
                // Preserve how columns referenced this table: if it had no
                // alias, unqualified/qualified-by-name refs must keep
                // resolving, so alias it to the old name.
                if t.alias.is_none() {
                    t.alias = Some(t.name.clone());
                }
                t.name = new.to_string();
                *n += 1;
            }
            for j in &mut t.joins {
                if j.table.eq_ignore_ascii_case(old) {
                    if j.alias.is_none() {
                        j.alias = Some(j.table.clone());
                    }
                    j.table = new.to_string();
                    *n += 1;
                }
            }
        }
        visit_subqueries_mut(s, &mut |sub| walk(sub, old, new, n));
    }
    walk(s, old, new, &mut n);
    n
}

/// Apply `f` to every column reference in the statement, passing the table
/// scope (name, binding-name) visible at that point.
fn rewrite_select(
    s: &mut SelectStatement,
    f: &mut impl FnMut(&mut ColumnRef, &[(String, String)]),
) {
    let scope: Vec<(String, String)> = s
        .from
        .iter()
        .flat_map(|t| {
            std::iter::once((t.name.clone(), t.binding_name().to_string())).chain(
                t.joins
                    .iter()
                    .map(|j| (j.table.clone(), j.binding_name().to_string())),
            )
        })
        .collect();

    fn rewrite_expr(
        e: &mut Expr,
        scope: &[(String, String)],
        f: &mut impl FnMut(&mut ColumnRef, &[(String, String)]),
    ) {
        match e {
            Expr::Column(c) => f(c, scope),
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => rewrite_expr(expr, scope, f),
            Expr::Binary { left, right, .. } => {
                rewrite_expr(left, scope, f);
                rewrite_expr(right, scope, f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    rewrite_expr(a, scope, f);
                }
            }
            Expr::InList { expr, list, .. } => {
                rewrite_expr(expr, scope, f);
                for i in list {
                    rewrite_expr(i, scope, f);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                rewrite_expr(expr, scope, f);
                rewrite_select(subquery, f);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                rewrite_expr(expr, scope, f);
                rewrite_expr(low, scope, f);
                rewrite_expr(high, scope, f);
            }
            Expr::Like { expr, pattern, .. } => {
                rewrite_expr(expr, scope, f);
                rewrite_expr(pattern, scope, f);
            }
            Expr::Exists { subquery, .. } => rewrite_select(subquery, f),
            Expr::ScalarSubquery(sub) => rewrite_select(sub, f),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    rewrite_expr(op, scope, f);
                }
                for (w, t) in branches {
                    rewrite_expr(w, scope, f);
                    rewrite_expr(t, scope, f);
                }
                if let Some(e) = else_branch {
                    rewrite_expr(e, scope, f);
                }
            }
        }
    }

    for item in &mut s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            rewrite_expr(expr, &scope, f);
        }
    }
    let mut on_exprs: Vec<&mut Expr> = Vec::new();
    for t in &mut s.from {
        for j in &mut t.joins {
            if let Some(on) = &mut j.on {
                on_exprs.push(on);
            }
        }
    }
    for on in on_exprs {
        rewrite_expr(on, &scope, f);
    }
    if let Some(w) = &mut s.where_clause {
        rewrite_expr(w, &scope, f);
    }
    for e in &mut s.group_by {
        rewrite_expr(e, &scope, f);
    }
    if let Some(h) = &mut s.having {
        rewrite_expr(h, &scope, f);
    }
    for o in &mut s.order_by {
        rewrite_expr(&mut o.expr, &scope, f);
    }
}

/// Apply `f` to each direct subquery of `s`, in whichever clause it sits
/// (projection, join `ON`, WHERE, GROUP BY, HAVING, ORDER BY). `f` recurses
/// itself when it wants the nested levels too.
fn visit_subqueries_mut(s: &mut SelectStatement, f: &mut impl FnMut(&mut SelectStatement)) {
    fn in_expr(e: &mut Expr, f: &mut impl FnMut(&mut SelectStatement)) {
        match e {
            Expr::InSubquery { subquery, expr, .. } => {
                in_expr(expr, f);
                f(subquery);
            }
            Expr::Exists { subquery, .. } => f(subquery),
            Expr::ScalarSubquery(sub) => f(sub),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => in_expr(expr, f),
            Expr::Binary { left, right, .. } => {
                in_expr(left, f);
                in_expr(right, f);
            }
            Expr::Function { args, .. } => {
                for a in args {
                    in_expr(a, f);
                }
            }
            Expr::InList { expr, list, .. } => {
                in_expr(expr, f);
                for i in list {
                    in_expr(i, f);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                in_expr(expr, f);
                in_expr(low, f);
                in_expr(high, f);
            }
            Expr::Like { expr, pattern, .. } => {
                in_expr(expr, f);
                in_expr(pattern, f);
            }
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    in_expr(op, f);
                }
                for (w, t) in branches {
                    in_expr(w, f);
                    in_expr(t, f);
                }
                if let Some(e) = else_branch {
                    in_expr(e, f);
                }
            }
            Expr::Column(_) | Expr::Literal(_) => {}
        }
    }
    for item in &mut s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            in_expr(expr, f);
        }
    }
    for on in s
        .from
        .iter_mut()
        .flat_map(|t| &mut t.joins)
        .filter_map(|j| j.on.as_mut())
    {
        in_expr(on, f);
    }
    if let Some(w) = &mut s.where_clause {
        in_expr(w, f);
    }
    for e in &mut s.group_by {
        in_expr(e, f);
    }
    if let Some(h) = &mut s.having {
        in_expr(h, f);
    }
    for o in &mut s.order_by {
        in_expr(&mut o.expr, f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;
    use crate::printer::to_sql;

    #[derive(Default)]
    struct Collector {
        tables: Vec<(String, usize)>,
        columns: Vec<String>,
        comparisons: Vec<String>,
        subqueries: usize,
    }

    impl Visitor for Collector {
        fn visit_table(&mut self, name: &str, _alias: Option<&str>, depth: usize) {
            self.tables.push((name.to_string(), depth));
        }
        fn visit_column(&mut self, col: &ColumnRef, _depth: usize) {
            self.columns.push(col.to_string());
        }
        fn visit_comparison(&mut self, col: &ColumnRef, op: BinaryOp, lit: &Literal, _d: usize) {
            self.comparisons.push(format!("{col} {op} {lit:?}"));
        }
        fn enter_subquery(&mut self, _depth: usize) {
            self.subqueries += 1;
        }
    }

    fn collect(sql: &str) -> Collector {
        let stmt = parse_statement(sql).unwrap();
        let mut c = Collector::default();
        walk_statement(&mut c, &stmt);
        c
    }

    #[test]
    fn collects_tables_at_depths() {
        let c = collect(
            "SELECT * FROM a, b WHERE x IN (SELECT y FROM c WHERE EXISTS (SELECT * FROM d))",
        );
        assert_eq!(
            c.tables,
            vec![
                ("a".to_string(), 0),
                ("b".to_string(), 0),
                ("c".to_string(), 1),
                ("d".to_string(), 2)
            ]
        );
        assert_eq!(c.subqueries, 2);
    }

    #[test]
    fn collects_comparisons_both_orientations() {
        let c = collect("SELECT * FROM t WHERE temp < 18 AND 5 <= depth");
        assert_eq!(c.comparisons.len(), 2);
        assert!(c.comparisons[0].starts_with("temp <"));
        // `5 <= depth` is surfaced as `depth >= 5`.
        assert!(c.comparisons[1].starts_with("depth >="));
    }

    #[test]
    fn collects_join_on_columns() {
        let c = collect("SELECT * FROM a JOIN b ON a.x = b.y");
        assert!(c.columns.contains(&"a.x".to_string()));
        assert!(c.columns.contains(&"b.y".to_string()));
    }

    #[test]
    fn rewrite_column_qualified_by_alias() {
        let mut s = match parse_statement(
            "SELECT S.temp FROM WaterTemp S WHERE S.temp < 18 ORDER BY S.temp",
        )
        .unwrap()
        {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let n = rewrite_columns(&mut s, "WaterTemp", "temp", "temperature");
        assert_eq!(n, 3);
        let sql = to_sql(&Statement::Select(s));
        assert!(!sql.contains("temp <"), "{sql}");
        assert!(sql.contains("S.temperature"), "{sql}");
    }

    #[test]
    fn rewrite_column_skips_other_tables() {
        let mut s = match parse_statement(
            "SELECT S.temp, L.temp FROM WaterTemp S, AirTemp L WHERE S.temp < 18",
        )
        .unwrap()
        {
            Statement::Select(s) => s,
            _ => unreachable!(),
        };
        let n = rewrite_columns(&mut s, "AirTemp", "temp", "air_temp");
        assert_eq!(n, 1);
        let sql = to_sql(&Statement::Select(s));
        assert!(sql.contains("L.air_temp"), "{sql}");
        assert!(sql.contains("S.temp"), "{sql}");
    }

    #[test]
    fn rewrite_table_keeps_bindings() {
        let mut s =
            match parse_statement("SELECT WaterTemp.temp FROM WaterTemp WHERE temp < 9").unwrap() {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
        let n = rewrite_tables(&mut s, "WaterTemp", "LakeTemp");
        assert_eq!(n, 1);
        let sql = to_sql(&Statement::Select(s));
        // New table name with the old name as alias keeps references valid.
        assert!(sql.contains("LakeTemp AS WaterTemp"), "{sql}");
    }

    #[test]
    fn rewrite_table_in_subquery() {
        let mut s =
            match parse_statement("SELECT * FROM t WHERE x IN (SELECT y FROM old_t)").unwrap() {
                Statement::Select(s) => s,
                _ => unreachable!(),
            };
        let n = rewrite_tables(&mut s, "old_t", "new_t");
        assert_eq!(n, 1);
        assert!(to_sql(&Statement::Select(s)).contains("new_t"));
    }
}
