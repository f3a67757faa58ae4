//! Query canonicalisation.
//!
//! The paper (§4.3) proposes comparing queries via *"parse tree similarity,
//! perhaps after removing the constants from the tree"*. This module provides
//! the two normalisation passes behind that idea:
//!
//! * [`canonicalize`] — case-folds identifiers/function names and normalises
//!   table aliases to positional names (`t1`, `t2`, …), so that queries that
//!   differ only in capitalisation or alias choice become structurally equal.
//! * [`strip_constants`] — additionally replaces every data constant with a
//!   `?` placeholder, producing the query *template* used for clustering and
//!   popularity counting.

use crate::ast::*;
use std::collections::HashMap;

/// Canonicalize a statement: lowercase identifiers, uppercase function
/// names (via the printer), positional table aliases.
pub fn canonicalize(stmt: &Statement) -> Statement {
    let mut out = stmt.clone();
    match &mut out {
        Statement::Select(s) => canonicalize_select(s),
        Statement::Insert(i) => {
            i.table = fold(&i.table);
            for c in &mut i.columns {
                *c = fold(c);
            }
        }
        Statement::CreateTable(c) => {
            c.name = fold(&c.name);
            for (name, _) in &mut c.columns {
                *name = fold(name);
            }
        }
        Statement::Update(u) => {
            u.table = fold(&u.table);
            for (c, e) in &mut u.assignments {
                *c = fold(c);
                fold_expr(e);
            }
            if let Some(w) = &mut u.where_clause {
                fold_expr(w);
            }
        }
        Statement::Delete(d) => {
            d.table = fold(&d.table);
            if let Some(w) = &mut d.where_clause {
                fold_expr(w);
            }
        }
        Statement::DropTable(t) => *t = fold(t),
        Statement::AlterRenameColumn { table, from, to } => {
            *table = fold(table);
            *from = fold(from);
            *to = fold(to);
        }
        Statement::AlterDropColumn { table, column } => {
            *table = fold(table);
            *column = fold(column);
        }
        Statement::AlterAddColumn { table, column, .. } => {
            *table = fold(table);
            *column = fold(column);
        }
        Statement::AlterRenameTable { table, to } => {
            *table = fold(table);
            *to = fold(to);
        }
    }
    out
}

/// Canonicalize and strip constants, producing the query template.
pub fn strip_constants(stmt: &Statement) -> Statement {
    let mut out = canonicalize(stmt);
    if let Statement::Select(s) = &mut out {
        strip_select(s);
    }
    out
}

fn fold(s: &str) -> String {
    s.to_ascii_lowercase()
}

/// Case-fold identifiers inside an expression (no alias mapping); used for
/// the DML statements that have no FROM-clause aliases.
fn fold_expr(e: &mut Expr) {
    let no_alias_map = |q: &mut Option<String>| {
        if let Some(qq) = q {
            *qq = qq.to_ascii_lowercase();
        }
    };
    fn walk(e: &mut Expr, map_q: &impl Fn(&mut Option<String>)) {
        match e {
            Expr::Column(c) => {
                c.name = c.name.to_ascii_lowercase();
                map_q(&mut c.qualifier);
            }
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk(expr, map_q),
            Expr::Binary { left, right, .. } => {
                walk(left, map_q);
                walk(right, map_q);
            }
            Expr::Function { name, args, .. } => {
                *name = name.to_ascii_uppercase();
                for a in args {
                    walk(a, map_q);
                }
            }
            Expr::InList { expr, list, .. } => {
                walk(expr, map_q);
                for i in list {
                    walk(i, map_q);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                walk(expr, map_q);
                canonicalize_select(subquery);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                walk(expr, map_q);
                walk(low, map_q);
                walk(high, map_q);
            }
            Expr::Like { expr, pattern, .. } => {
                walk(expr, map_q);
                walk(pattern, map_q);
            }
            Expr::Exists { subquery, .. } => canonicalize_select(subquery),
            Expr::ScalarSubquery(sub) => canonicalize_select(sub),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    walk(op, map_q);
                }
                for (w, t) in branches {
                    walk(w, map_q);
                    walk(t, map_q);
                }
                if let Some(el) = else_branch {
                    walk(el, map_q);
                }
            }
        }
    }
    walk(e, &no_alias_map);
}

/// Canonicalize a SELECT in place (recursing into subqueries).
pub(crate) fn canonicalize_select(s: &mut SelectStatement) {
    // Build the alias map: every table binding becomes `t<i>`.
    let mut alias_map: HashMap<String, String> = HashMap::new();
    let mut counter = 0usize;
    for t in &mut s.from {
        counter += 1;
        let new_alias = format!("t{counter}");
        alias_map.insert(fold(t.binding_name()), new_alias.clone());
        // Table name itself also resolves columns when unaliased.
        alias_map
            .entry(fold(&t.name))
            .or_insert_with(|| new_alias.clone());
        t.name = fold(&t.name);
        t.alias = Some(new_alias);
        for j in &mut t.joins {
            counter += 1;
            let ja = format!("t{counter}");
            alias_map.insert(fold(j.binding_name()), ja.clone());
            alias_map
                .entry(fold(&j.table))
                .or_insert_with(|| ja.clone());
            j.table = fold(&j.table);
            j.alias = Some(ja);
        }
    }

    let map_qualifier = |q: &mut Option<String>| {
        if let Some(qq) = q {
            let folded = fold(qq);
            if let Some(new) = alias_map.get(&folded) {
                *q = Some(new.clone());
            } else {
                *q = Some(folded);
            }
        }
    };

    fn canon_expr(e: &mut Expr, map_q: &impl Fn(&mut Option<String>)) {
        match e {
            Expr::Column(c) => {
                c.name = c.name.to_ascii_lowercase();
                map_q(&mut c.qualifier);
            }
            Expr::Literal(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => canon_expr(expr, map_q),
            Expr::Binary { left, right, .. } => {
                canon_expr(left, map_q);
                canon_expr(right, map_q);
            }
            Expr::Function { name, args, .. } => {
                *name = name.to_ascii_uppercase();
                for a in args {
                    canon_expr(a, map_q);
                }
            }
            Expr::InList { expr, list, .. } => {
                canon_expr(expr, map_q);
                for i in list {
                    canon_expr(i, map_q);
                }
            }
            Expr::InSubquery { expr, subquery, .. } => {
                canon_expr(expr, map_q);
                canonicalize_select(subquery);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                canon_expr(expr, map_q);
                canon_expr(low, map_q);
                canon_expr(high, map_q);
            }
            Expr::Like { expr, pattern, .. } => {
                canon_expr(expr, map_q);
                canon_expr(pattern, map_q);
            }
            Expr::Exists { subquery, .. } => canonicalize_select(subquery),
            Expr::ScalarSubquery(sub) => canonicalize_select(sub),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    canon_expr(op, map_q);
                }
                for (w, t) in branches {
                    canon_expr(w, map_q);
                    canon_expr(t, map_q);
                }
                if let Some(el) = else_branch {
                    canon_expr(el, map_q);
                }
            }
        }
    }

    for item in &mut s.projection {
        match item {
            SelectItem::Wildcard => {}
            SelectItem::QualifiedWildcard(q) => {
                let folded = fold(q);
                if let Some(new) = alias_map.get(&folded) {
                    *q = new.clone();
                } else {
                    *q = folded;
                }
            }
            SelectItem::Expr { expr, alias } => {
                canon_expr(expr, &map_qualifier);
                if let Some(a) = alias {
                    *a = fold(a);
                }
            }
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
        canon_expr(on, &map_qualifier);
    }
    if let Some(w) = &mut s.where_clause {
        canon_expr(w, &map_qualifier);
    }
    for e in &mut s.group_by {
        canon_expr(e, &map_qualifier);
    }
    if let Some(h) = &mut s.having {
        canon_expr(h, &map_qualifier);
    }
    for o in &mut s.order_by {
        canon_expr(&mut o.expr, &map_qualifier);
    }
}

/// Replace all data constants in a SELECT with placeholders, in place.
pub(crate) fn strip_select(s: &mut SelectStatement) {
    fn strip_expr(e: &mut Expr) {
        match e {
            Expr::Literal(l) => {
                if l.is_constant() {
                    *l = Literal::Placeholder;
                }
            }
            Expr::Column(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => strip_expr(expr),
            Expr::Binary { left, right, .. } => {
                strip_expr(left);
                strip_expr(right);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(strip_expr),
            Expr::InList { expr, list, .. } => {
                strip_expr(expr);
                list.iter_mut().for_each(strip_expr);
            }
            Expr::InSubquery { expr, subquery, .. } => {
                strip_expr(expr);
                strip_select(subquery);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                strip_expr(expr);
                strip_expr(low);
                strip_expr(high);
            }
            Expr::Like { expr, pattern, .. } => {
                strip_expr(expr);
                strip_expr(pattern);
            }
            Expr::Exists { subquery, .. } => strip_select(subquery),
            Expr::ScalarSubquery(sub) => strip_select(sub),
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    strip_expr(op);
                }
                for (w, t) in branches {
                    strip_expr(w);
                    strip_expr(t);
                }
                if let Some(el) = else_branch {
                    strip_expr(el);
                }
            }
        }
    }
    for item in &mut s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            strip_expr(expr);
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
        strip_expr(on);
    }
    if let Some(w) = &mut s.where_clause {
        strip_expr(w);
    }
    for e in &mut s.group_by {
        strip_expr(e);
    }
    if let Some(h) = &mut s.having {
        strip_expr(h);
    }
    for o in &mut s.order_by {
        strip_expr(&mut o.expr);
    }
    // LIMIT/OFFSET values are part of the template (they change semantics
    // more than a predicate constant does), so they are kept.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn canon(sql: &str) -> Statement {
        canonicalize(&parse_statement(sql).unwrap())
    }

    fn template(sql: &str) -> Statement {
        strip_constants(&parse_statement(sql).unwrap())
    }

    #[test]
    fn case_insensitive_equality() {
        assert_eq!(
            canon("SELECT Temp FROM WaterTemp WHERE TEMP < 18"),
            canon("select temp from watertemp where temp < 18")
        );
    }

    #[test]
    fn alias_normalisation() {
        assert_eq!(
            canon("SELECT S.temp FROM WaterTemp S WHERE S.temp < 18"),
            canon("SELECT W.temp FROM WaterTemp W WHERE W.temp < 18")
        );
        // Qualification via the table's own name also normalises.
        assert_eq!(
            canon("SELECT WaterTemp.temp FROM WaterTemp"),
            canon("SELECT X.temp FROM WaterTemp X")
        );
    }

    #[test]
    fn alias_normalisation_does_not_conflate_tables() {
        assert_ne!(canon("SELECT a.x FROM a, b"), canon("SELECT b.x FROM a, b"));
    }

    #[test]
    fn templates_equal_across_constants() {
        assert_eq!(
            template("SELECT * FROM t WHERE temp < 18"),
            template("SELECT * FROM t WHERE temp < 22")
        );
        assert_eq!(
            template("SELECT * FROM t WHERE city = 'Seattle'"),
            template("SELECT * FROM t WHERE city = 'Olympia'")
        );
    }

    #[test]
    fn templates_distinguish_structure() {
        assert_ne!(
            template("SELECT * FROM t WHERE temp < 18"),
            template("SELECT * FROM t WHERE temp > 18")
        );
        assert_ne!(
            template("SELECT * FROM t WHERE temp < 18"),
            template("SELECT * FROM t WHERE depth < 18")
        );
    }

    #[test]
    fn strip_keeps_limit() {
        let t = template("SELECT * FROM t WHERE a = 1 LIMIT 5");
        match t {
            Statement::Select(s) => assert_eq!(s.limit, Some(5)),
            _ => unreachable!(),
        }
    }

    #[test]
    fn canonical_output_reparses() {
        let sql = "SELECT S.temp, AVG(t.x) FROM WaterTemp S JOIN Other t ON S.id = t.id \
                   WHERE S.temp < 18 GROUP BY S.temp ORDER BY S.temp";
        let c = canon(sql);
        let printed = crate::printer::to_sql(&c);
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(canonicalize(&reparsed), c);
    }

    #[test]
    fn subquery_aliases_are_scoped() {
        let a = canon("SELECT * FROM a WHERE x IN (SELECT y FROM b B WHERE B.z = 1)");
        let b = canon("SELECT * FROM a WHERE x IN (SELECT y FROM b C WHERE C.z = 1)");
        assert_eq!(a, b);
    }

    #[test]
    fn placeholder_survives_roundtrip() {
        let t = template("SELECT * FROM t WHERE a = 5");
        let printed = crate::printer::to_sql(&t);
        assert!(printed.contains('?'), "{printed}");
        let reparsed = parse_statement(&printed).unwrap();
        assert_eq!(strip_constants(&reparsed), t);
    }
}
