//! Parse-tree diff: the edit operations between two queries.
//!
//! Figure 2 of the paper visualises a query session as a chain of nodes whose
//! edges show *the difference between consecutive queries* — the user "added
//! the WaterSalinity relation to the FROM clause, tried different conditions
//! on temp, picked `temp < 18`, and added two more predicates". This module
//! computes exactly those typed edits. Figure 3's "Diff" column (`-1 col,
//! -1 pred`) is the aggregated summary of the same edits.
//!
//! Diffing operates on case-folded (but not alias-renamed) statements, so the
//! produced labels read like the user's own SQL.

use crate::ast::*;
use crate::printer::expr_to_sql;
use std::collections::HashMap;
use std::fmt;

/// One typed edit between two queries.
#[derive(Debug, Clone, PartialEq)]
pub enum EditOp {
    /// A relation was added to FROM.
    AddTable(String),
    /// A relation was removed from FROM.
    RemoveTable(String),
    /// A projection item was added (rendered form).
    AddProjection(String),
    /// A projection item was removed.
    RemoveProjection(String),
    /// A WHERE conjunct was added (rendered form).
    AddPredicate(String),
    /// A WHERE conjunct was removed.
    RemovePredicate(String),
    /// A predicate whose structure is unchanged but whose constant(s)
    /// changed, e.g. `temp < 22` → `temp < 18`.
    ChangeConstant {
        /// The predicate's previous rendering.
        from: String,
        /// The predicate's new rendering.
        to: String,
    },
    /// A GROUP BY key was added.
    AddGroupBy(String),
    /// A GROUP BY key was removed.
    RemoveGroupBy(String),
    /// An ORDER BY key was added (`expr [DESC]`).
    AddOrderBy(String),
    /// An ORDER BY key was removed.
    RemoveOrderBy(String),
    /// LIMIT changed (None = no limit).
    ChangeLimit {
        /// Previous limit.
        from: Option<u64>,
        /// New limit.
        to: Option<u64>,
    },
    /// DISTINCT was switched on (`true`) or off.
    ToggleDistinct(bool),
    /// The two statements are not both SELECTs (or differ beyond SELECT
    /// structure); carries a coarse description.
    Replaced(String),
}

impl EditOp {
    /// Short label for session-graph edges (Fig. 2 style).
    pub fn label(&self) -> String {
        match self {
            EditOp::AddTable(t) => format!("+{t}"),
            EditOp::RemoveTable(t) => format!("-{t}"),
            EditOp::AddProjection(p) => format!("+col {p}"),
            EditOp::RemoveProjection(p) => format!("-col {p}"),
            EditOp::AddPredicate(p) => format!("+'{p}'"),
            EditOp::RemovePredicate(p) => format!("-'{p}'"),
            EditOp::ChangeConstant { from, to } => format!("'{from}' \u{2192} '{to}'"),
            EditOp::AddGroupBy(g) => format!("+group {g}"),
            EditOp::RemoveGroupBy(g) => format!("-group {g}"),
            EditOp::AddOrderBy(o) => format!("+order {o}"),
            EditOp::RemoveOrderBy(o) => format!("-order {o}"),
            EditOp::ChangeLimit { to: Some(n), .. } => format!("limit {n}"),
            EditOp::ChangeLimit { to: None, .. } => "-limit".to_string(),
            EditOp::ToggleDistinct(true) => "+distinct".to_string(),
            EditOp::ToggleDistinct(false) => "-distinct".to_string(),
            EditOp::Replaced(d) => d.clone(),
        }
    }

    /// Category key used by the edit-pattern miner.
    pub fn kind(&self) -> &'static str {
        match self {
            EditOp::AddTable(_) => "add_table",
            EditOp::RemoveTable(_) => "remove_table",
            EditOp::AddProjection(_) => "add_projection",
            EditOp::RemoveProjection(_) => "remove_projection",
            EditOp::AddPredicate(_) => "add_predicate",
            EditOp::RemovePredicate(_) => "remove_predicate",
            EditOp::ChangeConstant { .. } => "change_constant",
            EditOp::AddGroupBy(_) => "add_group_by",
            EditOp::RemoveGroupBy(_) => "remove_group_by",
            EditOp::AddOrderBy(_) => "add_order_by",
            EditOp::RemoveOrderBy(_) => "remove_order_by",
            EditOp::ChangeLimit { .. } => "change_limit",
            EditOp::ToggleDistinct(_) => "toggle_distinct",
            EditOp::Replaced(_) => "replaced",
        }
    }
}

impl fmt::Display for EditOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Diff two statements. Non-SELECT pairs produce a single [`EditOp::Replaced`].
pub fn diff_statements(a: &Statement, b: &Statement) -> Vec<EditOp> {
    match (a, b) {
        (Statement::Select(sa), Statement::Select(sb)) => diff_selects(sa, sb),
        _ if a == b => Vec::new(),
        _ => vec![EditOp::Replaced("different statement kind".into())],
    }
}

/// Diff two SELECT statements into typed edits.
pub fn diff_selects(a: &SelectStatement, b: &SelectStatement) -> Vec<EditOp> {
    diff_selects_folded(&fold_select(a), &fold_select(b))
}

/// [`diff_selects`] over statements already passed through
/// [`fold_for_diff`]. Folding is idempotent, so this produces the exact
/// same edits as `diff_selects` on the originals — callers that keep a
/// folded copy (a similarity signature) diff it without folding again.
pub fn diff_selects_folded(a: &SelectStatement, b: &SelectStatement) -> Vec<EditOp> {
    let mut edits = Vec::new();

    // Tables (FROM + explicit joins), multiset diff by name.
    let ta = table_multiset(a);
    let tb = table_multiset(b);
    for (name, &ca) in &ta {
        let cb = tb.get(name).copied().unwrap_or(0);
        for _ in cb..ca {
            edits.push(EditOp::RemoveTable(name.clone()));
        }
    }
    for (name, &cb) in &tb {
        let ca = ta.get(name).copied().unwrap_or(0);
        for _ in ca..cb {
            edits.push(EditOp::AddTable(name.clone()));
        }
    }

    // Projections: set diff over printed items.
    let pa = projection_set(a);
    let pb = projection_set(b);
    for p in pa.iter().filter(|p| !pb.contains(*p)) {
        edits.push(EditOp::RemoveProjection(p.clone()));
    }
    for p in pb.iter().filter(|p| !pa.contains(*p)) {
        edits.push(EditOp::AddProjection(p.clone()));
    }

    // Predicates: conjunct diff with constant-change pairing.
    let ca = conjunct_list(a);
    let cb = conjunct_list(b);
    let removed: Vec<&Expr> = ca
        .iter()
        .filter(|e| !cb.iter().any(|f| f == *e))
        .copied()
        .collect();
    let added: Vec<&Expr> = cb
        .iter()
        .filter(|e| !ca.iter().any(|f| f == *e))
        .copied()
        .collect();
    // Pair removed/added conjuncts whose templates match → ChangeConstant.
    let mut used_added = vec![false; added.len()];
    for r in &removed {
        let r_tpl = conjunct_template(r);
        let mut matched = false;
        for (i, aconj) in added.iter().enumerate() {
            if used_added[i] {
                continue;
            }
            if conjunct_template(aconj) == r_tpl {
                edits.push(EditOp::ChangeConstant {
                    from: expr_to_sql(r),
                    to: expr_to_sql(aconj),
                });
                used_added[i] = true;
                matched = true;
                break;
            }
        }
        if !matched {
            edits.push(EditOp::RemovePredicate(expr_to_sql(r)));
        }
    }
    for (i, aconj) in added.iter().enumerate() {
        if !used_added[i] {
            edits.push(EditOp::AddPredicate(expr_to_sql(aconj)));
        }
    }

    // GROUP BY.
    let ga: Vec<String> = a.group_by.iter().map(expr_to_sql).collect();
    let gb: Vec<String> = b.group_by.iter().map(expr_to_sql).collect();
    for g in ga.iter().filter(|g| !gb.contains(g)) {
        edits.push(EditOp::RemoveGroupBy(g.clone()));
    }
    for g in gb.iter().filter(|g| !ga.contains(g)) {
        edits.push(EditOp::AddGroupBy(g.clone()));
    }

    // ORDER BY (direction is part of the key).
    let oa: Vec<String> = a.order_by.iter().map(order_key).collect();
    let ob: Vec<String> = b.order_by.iter().map(order_key).collect();
    for o in oa.iter().filter(|o| !ob.contains(o)) {
        edits.push(EditOp::RemoveOrderBy(o.clone()));
    }
    for o in ob.iter().filter(|o| !oa.contains(o)) {
        edits.push(EditOp::AddOrderBy(o.clone()));
    }

    if a.limit != b.limit {
        edits.push(EditOp::ChangeLimit {
            from: a.limit,
            to: b.limit,
        });
    }
    if a.distinct != b.distinct {
        edits.push(EditOp::ToggleDistinct(b.distinct));
    }

    edits
}

/// Distance between two SELECTs measured as number of edits, normalised to
/// [0, 1] by the total number of structural elements. This is the
/// "parse-tree similarity" building block of §4.3.
pub fn edit_distance_normalized(a: &SelectStatement, b: &SelectStatement) -> f64 {
    let edits = diff_selects(a, b).len() as f64;
    let size = (select_size(a) + select_size(b)) as f64;
    if size == 0.0 {
        return 0.0;
    }
    (edits / size).min(1.0)
}

/// [`edit_distance_normalized`] over pre-`fold_select`ed statements —
/// float-for-float the same value (folding changes neither the edit list
/// nor [`select_size`]), without the two per-pair statement clones.
pub fn edit_distance_normalized_folded(a: &SelectStatement, b: &SelectStatement) -> f64 {
    let edits = diff_selects_folded(a, b).len() as f64;
    let size = (select_size(a) + select_size(b)) as f64;
    if size == 0.0 {
        return 0.0;
    }
    (edits / size).min(1.0)
}

/// Case-fold identifiers the way the differ does (aliases kept), exposed
/// so ingest-time signature building can cache the folded statement.
pub fn fold_for_diff(s: &SelectStatement) -> SelectStatement {
    fold_select(s)
}

/// Count of structural elements in a SELECT (tables + projections +
/// conjuncts + group/order items + limit/distinct flags).
pub fn select_size(s: &SelectStatement) -> usize {
    let tables: usize = s.from.iter().map(|t| 1 + t.joins.len()).sum();
    let conjuncts = s
        .where_clause
        .as_ref()
        .map(|w| w.conjuncts().len())
        .unwrap_or(0);
    tables
        + s.projection.len().max(1)
        + conjuncts
        + s.group_by.len()
        + s.order_by.len()
        + usize::from(s.limit.is_some())
        + usize::from(s.distinct)
}

/// Aggregate edits into the Fig. 3 "Diff" column, e.g. `-1 col, -1 pred`.
/// Returns `"none"` when the list is empty.
pub fn summarize_edits(edits: &[EditOp]) -> String {
    if edits.is_empty() {
        return "none".to_string();
    }
    let mut cols = 0i64;
    let mut preds = 0i64;
    let mut tables = 0i64;
    let mut consts = 0usize;
    let mut other = 0usize;
    for e in edits {
        match e {
            EditOp::AddProjection(_) => cols += 1,
            EditOp::RemoveProjection(_) => cols -= 1,
            EditOp::AddPredicate(_) => preds += 1,
            EditOp::RemovePredicate(_) => preds -= 1,
            EditOp::AddTable(_) => tables += 1,
            EditOp::RemoveTable(_) => tables -= 1,
            EditOp::ChangeConstant { .. } => consts += 1,
            _ => other += 1,
        }
    }
    let mut parts = Vec::new();
    if tables != 0 {
        parts.push(format!("{tables:+} tbl"));
    }
    if cols != 0 {
        parts.push(format!("{cols:+} col"));
    }
    if preds != 0 {
        parts.push(format!("{preds:+} pred"));
    }
    if consts > 0 {
        parts.push(format!("~{consts} const"));
    }
    if other > 0 {
        parts.push(format!("{other} other"));
    }
    if parts.is_empty() {
        "none".to_string()
    } else {
        parts.join(", ")
    }
}

// ---------------------------------------------------------------------
// Diff profiles — cheap lower bound on the edit distance
// ---------------------------------------------------------------------

/// Precomputed multiset profile of one (folded) SELECT: the per-record data
/// behind [`edit_distance_lower_bound`], the O(profile-size) screen that
/// rejects a pair before [`diff_selects`] runs. Built once per query at
/// ingest; every clause is reduced to sorted FNV hashes of exactly the
/// strings [`diff_selects`] compares, so the bound tracks the true diff
/// term by term.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectProfile {
    /// [`select_size`] of the statement (the normalisation denominator).
    pub size: u32,
    /// Table-name hashes, one per FROM/join occurrence, sorted (multiset).
    pub tables: Vec<u64>,
    /// Printed-projection-item hashes, sorted (multiset).
    pub projections: Vec<u64>,
    /// `(printed conjunct hash, conjunct-template hash)` per WHERE
    /// conjunct, sorted by the printed hash.
    pub conjuncts: Vec<(u64, u64)>,
    /// The same conjuncts as `(template hash, printed hash)`, sorted —
    /// lets the bound walk template groups without allocating.
    pub conjuncts_by_template: Vec<(u64, u64)>,
    /// Printed GROUP BY key hashes, sorted.
    pub group_by: Vec<u64>,
    /// ORDER BY key hashes (direction folded in), sorted.
    pub order_by: Vec<u64>,
    pub limit: Option<u64>,
    pub distinct: bool,
}

impl SelectProfile {
    /// Build the profile of `s` (folds identifiers exactly like
    /// [`diff_selects`] before hashing).
    pub fn build(s: &SelectStatement) -> SelectProfile {
        Self::of_folded(&fold_select(s))
    }

    /// Build from an already-folded statement (shares the fold with the
    /// cached folded statement the signature keeps for exact diffs).
    pub fn of_folded(s: &SelectStatement) -> SelectProfile {
        let h = |x: &str| crate::fingerprint::fnv1a(x.as_bytes());
        let mut tables: Vec<u64> = Vec::new();
        for t in &s.from {
            tables.push(h(&t.name));
            for j in &t.joins {
                tables.push(h(&j.table));
            }
        }
        tables.sort_unstable();
        let mut projections: Vec<u64> = projection_set(s).iter().map(|p| h(p)).collect();
        projections.sort_unstable();
        let mut conjuncts: Vec<(u64, u64)> = conjunct_list(s)
            .iter()
            .map(|e| (h(&expr_to_sql(e)), h(&conjunct_template(e))))
            .collect();
        conjuncts.sort_unstable();
        let mut conjuncts_by_template: Vec<(u64, u64)> =
            conjuncts.iter().map(|&(full, tpl)| (tpl, full)).collect();
        conjuncts_by_template.sort_unstable();
        let mut group_by: Vec<u64> = s.group_by.iter().map(|e| h(&expr_to_sql(e))).collect();
        group_by.sort_unstable();
        let mut order_by: Vec<u64> = s.order_by.iter().map(|o| h(&order_key(o))).collect();
        order_by.sort_unstable();
        SelectProfile {
            size: select_size(s) as u32,
            tables,
            projections,
            conjuncts,
            conjuncts_by_template,
            group_by,
            order_by,
            limit: s.limit,
            distinct: s.distinct,
        }
    }
}

/// Lower bound on [`edit_distance_normalized`] computed from two profiles —
/// no AST walk, no cloning, just sorted-hash merges. Sound: every term
/// undercounts (or matches) the edits [`diff_selects`] emits for that
/// clause, and hash collisions can only make two clauses look *more* equal.
///
/// * tables — the multiset L1 gap is exactly the Add/RemoveTable count;
/// * projections / GROUP BY / ORDER BY — occurrences whose printed form is
///   absent from the other side, matching the diff's `contains` semantics;
/// * conjuncts — removed/added occurrences by printed hash, then the
///   constant-change pairing is credited at its maximum: the diff emits at
///   least `Σ_template max(removed_t, added_t)` predicate edits;
/// * limit / distinct — exact.
pub fn edit_distance_lower_bound(a: &SelectProfile, b: &SelectProfile) -> f64 {
    let edits = multiset_l1(&a.tables, &b.tables)
        + one_sided(&a.projections, &b.projections)
        + conjunct_edit_bound(a, b)
        + one_sided(&a.group_by, &b.group_by)
        + one_sided(&a.order_by, &b.order_by)
        + usize::from(a.limit != b.limit)
        + usize::from(a.distinct != b.distinct);
    let size = (a.size + b.size) as f64;
    if size == 0.0 {
        return 0.0;
    }
    (edits as f64 / size).min(1.0)
}

/// Σ over distinct values of |count_a − count_b| (sorted multisets).
fn multiset_l1(a: &[u64], b: &[u64]) -> usize {
    let mut l1 = 0usize;
    let (mut i, mut j) = (0, 0);
    while i < a.len() || j < b.len() {
        let run = |s: &[u64], k: usize| {
            let v = s[k];
            let mut e = k;
            while e < s.len() && s[e] == v {
                e += 1;
            }
            (v, e)
        };
        match (i < a.len(), j < b.len()) {
            (true, false) => {
                l1 += a.len() - i;
                break;
            }
            (false, true) => {
                l1 += b.len() - j;
                break;
            }
            _ => {
                let (va, ea) = run(a, i);
                let (vb, eb) = run(b, j);
                match va.cmp(&vb) {
                    std::cmp::Ordering::Less => {
                        l1 += ea - i;
                        i = ea;
                    }
                    std::cmp::Ordering::Greater => {
                        l1 += eb - j;
                        j = eb;
                    }
                    std::cmp::Ordering::Equal => {
                        l1 += (ea - i).abs_diff(eb - j);
                        i = ea;
                        j = eb;
                    }
                }
            }
        }
    }
    l1
}

/// Occurrences on either side whose value does not appear on the other at
/// all — the diff's per-occurrence `contains` semantics for projections,
/// GROUP BY and ORDER BY.
fn one_sided(a: &[u64], b: &[u64]) -> usize {
    let count = |x: &[u64], y: &[u64]| x.iter().filter(|v| y.binary_search(v).is_err()).count();
    count(a, b) + count(b, a)
}

/// Lower bound on the WHERE-conjunct edits: removed/added occurrences by
/// printed hash, minus the best-case ChangeConstant pairing — i.e.
/// `Σ_template max(removed_t, added_t)`. Allocation-free: walks the two
/// template-sorted orders in lockstep, checking printed-hash membership
/// against the other side's printed-sorted order.
fn conjunct_edit_bound(a: &SelectProfile, b: &SelectProfile) -> usize {
    let (ta, tb) = (&a.conjuncts_by_template, &b.conjuncts_by_template);
    if ta.is_empty() && tb.is_empty() {
        return 0;
    }
    let absent =
        |full: u64, other: &[(u64, u64)]| other.binary_search_by_key(&full, |p| p.0).is_err();
    let (mut i, mut j, mut edits) = (0usize, 0usize, 0usize);
    while i < ta.len() || j < tb.len() {
        let t = match (ta.get(i), tb.get(j)) {
            (Some(&(x, _)), Some(&(y, _))) => x.min(y),
            (Some(&(x, _)), None) => x,
            (None, Some(&(y, _))) => y,
            (None, None) => unreachable!(),
        };
        let (mut removed, mut added) = (0usize, 0usize);
        while i < ta.len() && ta[i].0 == t {
            if absent(ta[i].1, &b.conjuncts) {
                removed += 1;
            }
            i += 1;
        }
        while j < tb.len() && tb[j].0 == t {
            if absent(tb[j].1, &a.conjuncts) {
                added += 1;
            }
            j += 1;
        }
        edits += removed.max(added);
    }
    edits
}

// ---------------------------------------------------------------------
// helpers
// ---------------------------------------------------------------------

/// Case-fold identifiers without renaming aliases, so labels keep the user's
/// alias names while `Temp`/`temp` compare equal.
fn fold_select(s: &SelectStatement) -> SelectStatement {
    // Reuse canonicalize's folding via a cheap route: lowercase idents only.
    let mut out = s.clone();
    fold_in_place(&mut out);
    out
}

fn fold_in_place(s: &mut SelectStatement) {
    for t in &mut s.from {
        t.name = t.name.to_ascii_lowercase();
        if let Some(a) = &mut t.alias {
            *a = a.to_ascii_lowercase();
        }
        for j in &mut t.joins {
            j.table = j.table.to_ascii_lowercase();
            if let Some(a) = &mut j.alias {
                *a = a.to_ascii_lowercase();
            }
            if let Some(on) = &mut j.on {
                fold_expr(on);
            }
        }
    }
    for item in &mut s.projection {
        match item {
            SelectItem::QualifiedWildcard(q) => *q = q.to_ascii_lowercase(),
            SelectItem::Expr { expr, alias } => {
                fold_expr(expr);
                if let Some(a) = alias {
                    *a = a.to_ascii_lowercase();
                }
            }
            SelectItem::Wildcard => {}
        }
    }
    if let Some(w) = &mut s.where_clause {
        fold_expr(w);
    }
    for e in &mut s.group_by {
        fold_expr(e);
    }
    if let Some(h) = &mut s.having {
        fold_expr(h);
    }
    for o in &mut s.order_by {
        fold_expr(&mut o.expr);
    }
}

fn fold_expr(e: &mut Expr) {
    match e {
        Expr::Column(c) => {
            c.name = c.name.to_ascii_lowercase();
            if let Some(q) = &mut c.qualifier {
                *q = q.to_ascii_lowercase();
            }
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => fold_expr(expr),
        Expr::Binary { left, right, .. } => {
            fold_expr(left);
            fold_expr(right);
        }
        Expr::Function { name, args, .. } => {
            *name = name.to_ascii_uppercase();
            for a in args {
                fold_expr(a);
            }
        }
        Expr::InList { expr, list, .. } => {
            fold_expr(expr);
            for i in list {
                fold_expr(i);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            fold_expr(expr);
            fold_in_place(subquery);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            fold_expr(expr);
            fold_expr(low);
            fold_expr(high);
        }
        Expr::Like { expr, pattern, .. } => {
            fold_expr(expr);
            fold_expr(pattern);
        }
        Expr::Exists { subquery, .. } => fold_in_place(subquery),
        Expr::ScalarSubquery(sub) => fold_in_place(sub),
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(op) = operand {
                fold_expr(op);
            }
            for (w, t) in branches {
                fold_expr(w);
                fold_expr(t);
            }
            if let Some(el) = else_branch {
                fold_expr(el);
            }
        }
    }
}

fn table_multiset(s: &SelectStatement) -> HashMap<String, usize> {
    let mut m = HashMap::new();
    for t in &s.from {
        *m.entry(t.name.clone()).or_insert(0) += 1;
        for j in &t.joins {
            *m.entry(j.table.clone()).or_insert(0) += 1;
        }
    }
    m
}

fn projection_set(s: &SelectStatement) -> Vec<String> {
    s.projection
        .iter()
        .map(|item| match item {
            SelectItem::Wildcard => "*".to_string(),
            SelectItem::QualifiedWildcard(q) => format!("{q}.*"),
            SelectItem::Expr { expr, alias } => match alias {
                Some(a) => format!("{} AS {a}", expr_to_sql(expr)),
                None => expr_to_sql(expr),
            },
        })
        .collect()
}

fn conjunct_list(s: &SelectStatement) -> Vec<&Expr> {
    s.where_clause
        .as_ref()
        .map(|w| w.conjuncts())
        .unwrap_or_default()
}

/// Template of one conjunct: constants replaced by `?`, printed.
fn conjunct_template(e: &Expr) -> String {
    let mut c = e.clone();
    fn strip(e: &mut Expr) {
        match e {
            Expr::Literal(l) if l.is_constant() => *l = Literal::Placeholder,
            Expr::Literal(_) | Expr::Column(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => strip(expr),
            Expr::Binary { left, right, .. } => {
                strip(left);
                strip(right);
            }
            Expr::Function { args, .. } => args.iter_mut().for_each(strip),
            Expr::InList { expr, list, .. } => {
                strip(expr);
                list.iter_mut().for_each(strip);
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                strip(expr);
                strip(low);
                strip(high);
            }
            Expr::Like { expr, pattern, .. } => {
                strip(expr);
                strip(pattern);
            }
            // Subqueries participate as-is: changing a subquery is a
            // structural change, not a constant change.
            Expr::InSubquery { expr, .. } => strip(expr),
            Expr::Exists { .. } | Expr::ScalarSubquery(_) => {}
            Expr::Case {
                operand,
                branches,
                else_branch,
            } => {
                if let Some(op) = operand {
                    strip(op);
                }
                for (w, t) in branches {
                    strip(w);
                    strip(t);
                }
                if let Some(el) = else_branch {
                    strip(el);
                }
            }
        }
    }
    strip(&mut c);
    expr_to_sql(&c)
}

fn order_key(o: &OrderByItem) -> String {
    if o.desc {
        format!("{} DESC", expr_to_sql(&o.expr))
    } else {
        expr_to_sql(&o.expr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_statement;

    fn sel(sql: &str) -> SelectStatement {
        match parse_statement(sql).unwrap() {
            Statement::Select(s) => s,
            _ => unreachable!(),
        }
    }

    fn d(a: &str, b: &str) -> Vec<EditOp> {
        diff_selects(&sel(a), &sel(b))
    }

    #[test]
    fn figure2_add_table() {
        // First edge of Figure 2: "+WaterSalinity".
        let edits = d(
            "SELECT * FROM WaterTemp",
            "SELECT * FROM WaterTemp, WaterSalinity",
        );
        assert_eq!(edits, vec![EditOp::AddTable("watersalinity".into())]);
        assert_eq!(edits[0].label(), "+watersalinity");
    }

    #[test]
    fn figure2_constant_change() {
        // Middle edges of Figure 2: trying different conditions on temp.
        let edits = d(
            "SELECT * FROM WaterTemp WHERE temp < 22",
            "SELECT * FROM WaterTemp WHERE temp < 18",
        );
        assert_eq!(
            edits,
            vec![EditOp::ChangeConstant {
                from: "temp < 22".into(),
                to: "temp < 18".into()
            }]
        );
        assert_eq!(edits[0].label(), "'temp < 22' \u{2192} 'temp < 18'");
    }

    #[test]
    fn figure2_add_two_predicates() {
        // Last edge of Figure 2: added `S.loc_x = …` and `S.loc_y = …`.
        let edits = d(
            "SELECT * FROM WaterSalinity S, WaterTemp T WHERE T.temp < 18",
            "SELECT * FROM WaterSalinity S, WaterTemp T \
             WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
        );
        assert_eq!(edits.len(), 2);
        assert!(edits.iter().all(|e| matches!(e, EditOp::AddPredicate(_))));
    }

    #[test]
    fn operator_change_is_not_constant_change() {
        let edits = d(
            "SELECT * FROM t WHERE temp < 18",
            "SELECT * FROM t WHERE temp > 18",
        );
        assert_eq!(edits.len(), 2);
        assert!(matches!(edits[0], EditOp::RemovePredicate(_)));
        assert!(matches!(edits[1], EditOp::AddPredicate(_)));
    }

    #[test]
    fn projection_changes() {
        let edits = d("SELECT temp, salinity FROM t", "SELECT temp FROM t");
        assert_eq!(edits, vec![EditOp::RemoveProjection("salinity".into())]);
    }

    #[test]
    fn identical_queries_no_edits() {
        assert!(d("SELECT * FROM t WHERE a = 1", "select * from T where A = 1").is_empty());
    }

    #[test]
    fn group_order_limit_distinct() {
        let edits = d(
            "SELECT lake FROM t",
            "SELECT DISTINCT lake FROM t GROUP BY lake ORDER BY lake DESC LIMIT 5",
        );
        let kinds: Vec<_> = edits.iter().map(|e| e.kind()).collect();
        assert!(kinds.contains(&"add_group_by"));
        assert!(kinds.contains(&"add_order_by"));
        assert!(kinds.contains(&"change_limit"));
        assert!(kinds.contains(&"toggle_distinct"));
    }

    #[test]
    fn self_join_multiset() {
        let edits = d(
            "SELECT * FROM Attributes A1",
            "SELECT * FROM Attributes A1, Attributes A2",
        );
        assert_eq!(edits, vec![EditOp::AddTable("attributes".into())]);
    }

    #[test]
    fn summary_matches_figure3() {
        // Figure 3 shows "-1 col" and "-1 col, -1 pred" for the two
        // recommended queries.
        let edits = vec![EditOp::RemoveProjection("x".into())];
        assert_eq!(summarize_edits(&edits), "-1 col");
        let edits = vec![
            EditOp::RemoveProjection("x".into()),
            EditOp::RemovePredicate("p".into()),
        ];
        assert_eq!(summarize_edits(&edits), "-1 col, -1 pred");
        assert_eq!(summarize_edits(&[]), "none");
    }

    #[test]
    fn normalized_distance_bounds() {
        let a = sel("SELECT * FROM a WHERE x = 1");
        let b = sel("SELECT * FROM b, c, d WHERE y = 2 AND z = 3");
        let dist = edit_distance_normalized(&a, &b);
        assert!(dist > 0.0 && dist <= 1.0);
        assert_eq!(edit_distance_normalized(&a, &a), 0.0);
    }

    #[test]
    fn profile_bound_never_exceeds_true_distance() {
        let pool = [
            "SELECT * FROM t",
            "SELECT * FROM t WHERE x < 1",
            "SELECT * FROM t WHERE x < 2",
            "SELECT a, b FROM t",
            "SELECT a FROM t, u WHERE t.x = u.y AND a < 5",
            "SELECT DISTINCT lake FROM WaterTemp GROUP BY lake ORDER BY lake DESC LIMIT 5",
            "SELECT * FROM Attributes A1, Attributes A2 WHERE A1.qid = A2.qid",
            "SELECT x, y, z FROM b, c, d WHERE y = 2 AND z = 3 ORDER BY z",
            "SELECT temp FROM WaterTemp WHERE temp < 18 AND month = 7",
        ];
        let sels: Vec<SelectStatement> = pool.iter().map(|q| sel(q)).collect();
        let profiles: Vec<SelectProfile> = sels.iter().map(SelectProfile::build).collect();
        for i in 0..sels.len() {
            for j in 0..sels.len() {
                let true_d = edit_distance_normalized(&sels[i], &sels[j]);
                let lb = edit_distance_lower_bound(&profiles[i], &profiles[j]);
                assert!(
                    lb <= true_d + 1e-12,
                    "pool pair ({i}, {j}): bound {lb} > distance {true_d}"
                );
                if i == j {
                    assert_eq!(lb, 0.0);
                }
            }
        }
    }

    #[test]
    fn profile_bound_is_tight_on_simple_edits() {
        // Pure structural edits (no constant pairing) are counted exactly.
        let a = sel("SELECT a FROM t");
        let b = sel("SELECT a, b FROM t, u ORDER BY a");
        let lb = edit_distance_lower_bound(&SelectProfile::build(&a), &SelectProfile::build(&b));
        assert!((lb - edit_distance_normalized(&a, &b)).abs() < 1e-12);
        // A constant change is credited as exactly one edit.
        let a = sel("SELECT * FROM t WHERE x < 1");
        let b = sel("SELECT * FROM t WHERE x < 2");
        let lb = edit_distance_lower_bound(&SelectProfile::build(&a), &SelectProfile::build(&b));
        assert!((lb - edit_distance_normalized(&a, &b)).abs() < 1e-12);
    }

    #[test]
    fn replaced_for_mixed_statements() {
        let a = parse_statement("SELECT * FROM t").unwrap();
        let b = parse_statement("DELETE FROM t").unwrap();
        assert_eq!(
            diff_statements(&a, &b),
            vec![EditOp::Replaced("different statement kind".into())]
        );
        assert!(diff_statements(&b, &b).is_empty());
    }
}
