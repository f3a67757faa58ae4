//! Syntactic feature extraction — the "query-by-feature" data model.
//!
//! Figure 1 of the paper defines the feature relations
//! `Queries(qid, qText)`, `DataSources(qid, relName)`,
//! `Attributes(qid, attrName, relName)` and
//! `Predicates(qid, attrName, relName, op, const)`. This module extracts
//! those features from a parsed statement (resolving aliases and, when a
//! catalog is available, unqualified column names) and materialises them into
//! real `relstore` tables that the Meta-query Executor runs SQL against.

use relstore::{Catalog, Engine, Value};
use sqlparse::ast::*;
use sqlparse::printer::expr_to_sql;
use sqlparse::visit::{self, Visitor};
use std::collections::HashMap;

/// One extracted comparison predicate (`relName.attrName op const`).
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateFeature {
    /// Resolved relation name (lower-cased; empty when unresolvable).
    pub table: String,
    /// Attribute name (lower-cased).
    pub column: String,
    /// `<`, `<=`, `=`, `<>`, `>`, `>=`.
    pub op: String,
    /// Rendered constant (`18`, `'Lake Washington'`).
    pub constant: String,
}

/// The syntactic (and structural) features of one query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyntacticFeatures {
    /// Referenced relations, lower-cased, deduplicated, sorted.
    pub tables: Vec<String>,
    /// Referenced attributes as (relName, attrName), resolved through
    /// aliases/schema; deduplicated, sorted.
    pub attributes: Vec<(String, String)>,
    /// Comparison predicates against constants.
    pub predicates: Vec<PredicateFeature>,
    /// Rendered projection items.
    pub projections: Vec<String>,
    /// Rendered GROUP BY items.
    pub group_by: Vec<String>,
    /// Rendered ORDER BY items.
    pub order_by: Vec<String>,
    /// Number of join pairs (tables − 1 per query block, summed).
    pub num_joins: usize,
    /// Does any block nest a subquery?
    pub has_subquery: bool,
    /// Does the projection aggregate?
    pub has_aggregate: bool,
    /// LIMIT value, when present.
    pub limit: Option<u64>,
}

impl SyntacticFeatures {
    /// Mining item vocabulary: `table:<rel>`, `attr:<rel>.<col>`,
    /// `pred:<rel>.<col><op>` (constants stripped — §4.3).
    pub fn items(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in &self.tables {
            out.push(format!("table:{t}"));
        }
        for (t, a) in &self.attributes {
            if t.is_empty() {
                out.push(format!("attr:{a}"));
            } else {
                out.push(format!("attr:{t}.{a}"));
            }
        }
        for p in &self.predicates {
            if p.table.is_empty() {
                out.push(format!("pred:{}{}", p.column, p.op));
            } else {
                out.push(format!("pred:{}.{}{}", p.table, p.column, p.op));
            }
        }
        out.sort();
        out.dedup();
        out
    }
}

struct Extractor<'c> {
    catalog: Option<&'c Catalog>,
    /// binding (lower) → table (lower), per depth level (0 = outer).
    alias_stack: Vec<HashMap<String, String>>,
    features: SyntacticFeatures,
}

impl<'c> Extractor<'c> {
    /// Resolve a column's table through the alias maps, falling back to the
    /// catalog schema lookup for unqualified names.
    fn resolve(&self, col: &ColumnRef) -> (String, String) {
        let name = col.name.to_ascii_lowercase();
        if let Some(q) = &col.qualifier {
            let q = q.to_ascii_lowercase();
            for level in self.alias_stack.iter().rev() {
                if let Some(t) = level.get(&q) {
                    return (t.clone(), name);
                }
            }
            // Qualifier that is not an alias: assume it names the table.
            return (q, name);
        }
        // Unqualified: find a unique in-scope table carrying this column.
        if let Some(catalog) = self.catalog {
            for level in self.alias_stack.iter().rev() {
                let mut hits: Vec<&String> = Vec::new();
                for t in level.values() {
                    if let Ok(table) = catalog.table(t) {
                        if table.schema.column_index(&name).is_some() {
                            hits.push(t);
                        }
                    }
                }
                hits.sort();
                hits.dedup();
                if hits.len() == 1 {
                    return (hits[0].clone(), name);
                }
                if !hits.is_empty() {
                    break; // ambiguous — give up on resolution
                }
            }
        }
        // Single-table scope resolves trivially even without a catalog.
        for level in self.alias_stack.iter().rev() {
            let mut tables: Vec<&String> = level.values().collect();
            tables.sort();
            tables.dedup();
            if tables.len() == 1 {
                return (tables[0].clone(), name);
            }
        }
        (String::new(), name)
    }
}

impl<'c> Visitor for Extractor<'c> {
    fn visit_table(&mut self, name: &str, _alias: Option<&str>, _depth: usize) {
        self.features.tables.push(name.to_ascii_lowercase());
    }

    fn visit_column(&mut self, col: &ColumnRef, _depth: usize) {
        let (t, a) = self.resolve(col);
        self.features.attributes.push((t, a));
    }

    fn visit_comparison(&mut self, col: &ColumnRef, op: BinaryOp, lit: &Literal, _depth: usize) {
        let (t, a) = self.resolve(col);
        self.features.predicates.push(PredicateFeature {
            table: t,
            column: a,
            op: op.as_str().to_string(),
            constant: render_literal(lit),
        });
    }

    fn enter_subquery(&mut self, _depth: usize) {
        self.features.has_subquery = true;
    }
}

fn render_literal(l: &Literal) -> String {
    match l {
        Literal::Int(i) => i.to_string(),
        Literal::Float(f) => format!("{f}"),
        Literal::Str(s) => format!("'{s}'"),
        Literal::Bool(b) => if *b { "TRUE" } else { "FALSE" }.to_string(),
        Literal::Null => "NULL".to_string(),
        Literal::Placeholder => "?".to_string(),
    }
}

/// Build the alias map for one SELECT level.
fn level_aliases(s: &SelectStatement) -> HashMap<String, String> {
    let mut m = HashMap::new();
    for t in &s.from {
        m.insert(
            t.binding_name().to_ascii_lowercase(),
            t.name.to_ascii_lowercase(),
        );
        m.insert(t.name.to_ascii_lowercase(), t.name.to_ascii_lowercase());
        for j in &t.joins {
            m.insert(
                j.binding_name().to_ascii_lowercase(),
                j.table.to_ascii_lowercase(),
            );
            m.insert(j.table.to_ascii_lowercase(), j.table.to_ascii_lowercase());
        }
    }
    m
}

/// Extract features from a statement. A catalog improves resolution of
/// unqualified columns in multi-table queries.
pub fn extract(stmt: &Statement, catalog: Option<&Catalog>) -> SyntacticFeatures {
    let mut ex = Extractor {
        catalog,
        alias_stack: Vec::new(),
        features: SyntacticFeatures::default(),
    };
    // Pre-push alias maps for nested selects as we walk. The generic walker
    // has no enter/leave select hooks, so walk manually at the top level.
    if let Statement::Select(s) = stmt {
        walk_select_features(&mut ex, s);
        ex.features.projections = s
            .projection
            .iter()
            .map(|item| match item {
                SelectItem::Wildcard => "*".to_string(),
                SelectItem::QualifiedWildcard(q) => format!("{}.*", q.to_ascii_lowercase()),
                SelectItem::Expr { expr, alias } => {
                    let base = expr_to_sql(expr).to_ascii_lowercase();
                    match alias {
                        Some(a) => format!("{base} as {}", a.to_ascii_lowercase()),
                        None => base,
                    }
                }
            })
            .collect();
        ex.features.group_by = s
            .group_by
            .iter()
            .map(|e| expr_to_sql(e).to_ascii_lowercase())
            .collect();
        ex.features.order_by = s
            .order_by
            .iter()
            .map(|o| {
                let mut t = expr_to_sql(&o.expr).to_ascii_lowercase();
                if o.desc {
                    t.push_str(" desc");
                }
                t
            })
            .collect();
        ex.features.limit = s.limit;
        ex.features.has_aggregate = has_aggregate(s);
    } else {
        visit::walk_statement(&mut ex, stmt);
    }

    let f = &mut ex.features;
    let raw_table_count = f.tables.len();
    f.tables.sort();
    f.tables.dedup();
    f.attributes.sort();
    f.attributes.dedup();
    f.num_joins = raw_table_count.saturating_sub(1);
    f.attributes.retain(|(_, a)| !a.is_empty());
    ex.features
}

fn walk_select_features(ex: &mut Extractor<'_>, s: &SelectStatement) {
    ex.alias_stack.push(level_aliases(s));
    for t in &s.from {
        ex.visit_table(&t.name, t.alias.as_deref(), ex.alias_stack.len() - 1);
        for j in &t.joins {
            ex.visit_table(&j.table, j.alias.as_deref(), ex.alias_stack.len() - 1);
            if let Some(on) = &j.on {
                walk_expr_features(ex, on);
            }
        }
    }
    for item in &s.projection {
        if let SelectItem::Expr { expr, .. } = item {
            walk_expr_features(ex, expr);
        }
    }
    if let Some(w) = &s.where_clause {
        walk_expr_features(ex, w);
    }
    for g in &s.group_by {
        walk_expr_features(ex, g);
    }
    if let Some(h) = &s.having {
        walk_expr_features(ex, h);
    }
    for o in &s.order_by {
        walk_expr_features(ex, &o.expr);
    }
    ex.alias_stack.pop();
}

fn walk_expr_features(ex: &mut Extractor<'_>, e: &Expr) {
    match e {
        Expr::Column(c) => {
            let depth = ex.alias_stack.len() - 1;
            ex.visit_column(c, depth);
        }
        Expr::Literal(_) => {}
        Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk_expr_features(ex, expr),
        Expr::Binary { left, op, right } => {
            if op.is_comparison() {
                match (&**left, &**right) {
                    (Expr::Column(c), Expr::Literal(l)) => {
                        ex.visit_comparison(c, *op, l, 0);
                    }
                    (Expr::Literal(l), Expr::Column(c)) => {
                        ex.visit_comparison(c, visit::flip_comparison(*op), l, 0);
                    }
                    _ => {}
                }
            }
            walk_expr_features(ex, left);
            walk_expr_features(ex, right);
        }
        Expr::Function { args, .. } => {
            for a in args {
                walk_expr_features(ex, a);
            }
        }
        Expr::InList { expr, list, .. } => {
            walk_expr_features(ex, expr);
            for i in list {
                walk_expr_features(ex, i);
            }
        }
        Expr::InSubquery { expr, subquery, .. } => {
            walk_expr_features(ex, expr);
            ex.enter_subquery(0);
            walk_select_features(ex, subquery);
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            // BETWEEN surfaces as two range predicates.
            if let (Expr::Column(c), Expr::Literal(lo)) = (&**expr, &**low) {
                ex.visit_comparison(c, BinaryOp::GtEq, lo, 0);
            }
            if let (Expr::Column(c), Expr::Literal(hi)) = (&**expr, &**high) {
                ex.visit_comparison(c, BinaryOp::LtEq, hi, 0);
            }
            walk_expr_features(ex, expr);
            walk_expr_features(ex, low);
            walk_expr_features(ex, high);
        }
        Expr::Like { expr, pattern, .. } => {
            if let (Expr::Column(c), Expr::Literal(p)) = (&**expr, &**pattern) {
                let (t, a) = ex.resolve(c);
                ex.features.predicates.push(PredicateFeature {
                    table: t,
                    column: a,
                    op: "LIKE".to_string(),
                    constant: render_literal(p),
                });
            }
            walk_expr_features(ex, expr);
            walk_expr_features(ex, pattern);
        }
        Expr::Exists { subquery, .. } => {
            ex.enter_subquery(0);
            walk_select_features(ex, subquery);
        }
        Expr::ScalarSubquery(sub) => {
            ex.enter_subquery(0);
            walk_select_features(ex, sub);
        }
        Expr::Case {
            operand,
            branches,
            else_branch,
        } => {
            if let Some(op) = operand {
                walk_expr_features(ex, op);
            }
            for (w, t) in branches {
                walk_expr_features(ex, w);
                walk_expr_features(ex, t);
            }
            if let Some(el) = else_branch {
                walk_expr_features(ex, el);
            }
        }
    }
}

fn has_aggregate(s: &SelectStatement) -> bool {
    fn in_expr(e: &Expr) -> bool {
        match e {
            Expr::Function {
                name, star, args, ..
            } => relstore::expr_is_aggregate(name, *star) || args.iter().any(in_expr),
            Expr::Binary { left, right, .. } => in_expr(left) || in_expr(right),
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => in_expr(expr),
            _ => false,
        }
    }
    s.projection.iter().any(|i| match i {
        SelectItem::Expr { expr, .. } => in_expr(expr),
        _ => false,
    }) || s.having.is_some()
        || !s.group_by.is_empty()
}

// ---------------------------------------------------------------------
// Feature relations (Figure 1)
// ---------------------------------------------------------------------

/// DDL for the Figure 1 feature relations plus the runtime-metadata relation.
pub const FEATURE_DDL: [&str; 5] = [
    "CREATE TABLE Queries (qid INT, qText TEXT)",
    "CREATE TABLE DataSources (qid INT, relName TEXT)",
    "CREATE TABLE Attributes (qid INT, attrName TEXT, relName TEXT)",
    "CREATE TABLE Predicates (qid INT, attrName TEXT, relName TEXT, op TEXT, const TEXT)",
    "CREATE TABLE QueryMeta (qid INT, author INT, ts INT, sessionId INT, elapsedUs INT, cardinality INT, success BOOLEAN)",
];

/// The five feature relations, every one keyed by `qid` in column 0.
const FEATURE_TABLES: [&str; 5] = [
    "Queries",
    "DataSources",
    "Attributes",
    "Predicates",
    "QueryMeta",
];

/// Create the feature relations (and their indexes) on a fresh engine.
pub fn create_feature_relations(engine: &mut Engine) {
    for ddl in FEATURE_DDL {
        engine.execute(ddl).expect("feature relation DDL");
    }
    for (t, c) in [
        ("Queries", "qid"),
        ("DataSources", "qid"),
        ("DataSources", "relName"),
        ("Attributes", "qid"),
        ("Attributes", "attrName"),
        ("Attributes", "relName"),
        ("Predicates", "qid"),
        ("Predicates", "attrName"),
        ("QueryMeta", "qid"),
    ] {
        engine.create_index(t, c).expect("feature index");
    }
}

/// Context rows for [`insert_features`].
pub struct FeatureRowMeta {
    /// Query id the rows describe.
    pub qid: u64,
    /// Issuing user id.
    pub author: u32,
    /// Trace-time seconds.
    pub ts: u64,
    /// Session id.
    pub session: u64,
    /// Execution time in microseconds.
    pub elapsed_us: u64,
    /// Result row count.
    pub cardinality: u64,
    /// Whether execution succeeded.
    pub success: bool,
}

/// Insert one query's features into the feature relations.
pub fn insert_features(
    engine: &mut Engine,
    meta: &FeatureRowMeta,
    text: &str,
    f: &SyntacticFeatures,
) {
    let qid = Value::Int(meta.qid as i64);
    engine
        .catalog
        .table_mut("Queries")
        .unwrap()
        .insert(vec![qid.clone(), Value::from(text)])
        .unwrap();
    for t in &f.tables {
        engine
            .catalog
            .table_mut("DataSources")
            .unwrap()
            .insert(vec![qid.clone(), Value::from(t.as_str())])
            .unwrap();
    }
    for (t, a) in &f.attributes {
        engine
            .catalog
            .table_mut("Attributes")
            .unwrap()
            .insert(vec![
                qid.clone(),
                Value::from(a.as_str()),
                Value::from(t.as_str()),
            ])
            .unwrap();
    }
    for p in &f.predicates {
        engine
            .catalog
            .table_mut("Predicates")
            .unwrap()
            .insert(vec![
                qid.clone(),
                Value::from(p.column.as_str()),
                Value::from(p.table.as_str()),
                Value::from(p.op.as_str()),
                Value::from(p.constant.as_str()),
            ])
            .unwrap();
    }
    engine
        .catalog
        .table_mut("QueryMeta")
        .unwrap()
        .insert(vec![
            qid,
            Value::Int(meta.author as i64),
            Value::Int(meta.ts as i64),
            Value::Int(meta.session as i64),
            Value::Int(meta.elapsed_us as i64),
            Value::Int(meta.cardinality as i64),
            Value::Bool(meta.success),
        ])
        .unwrap();
    // Keep index freshness lazy: relstore invalidates on DML automatically
    // only through Engine::execute; direct table inserts require an explicit
    // invalidation.
    for t in FEATURE_TABLES {
        engine.invalidate_indexes(t);
    }
}

/// Remove a query's rows from all feature relations (owner deletion, §2.4).
pub fn delete_features(engine: &mut Engine, qid: u64) {
    let qid = Value::Int(qid as i64);
    for t in FEATURE_TABLES {
        let table = engine.catalog.table_mut(t).expect("feature relation");
        table.delete_where(|row| row[0] == qid);
        engine.invalidate_indexes(t);
    }
}

/// Point `QueryMeta.sessionId` of every qid in `sessions` at its new
/// session (the miner's offline refinement, §4.3), in one pass.
pub fn set_sessions(engine: &mut Engine, sessions: &HashMap<u64, u64>) {
    let table = engine.catalog.table_mut("QueryMeta").expect("QueryMeta");
    let col = table.schema.column_index("sessionId").expect("sessionId");
    for row in &mut table.rows {
        let new = row[0].as_i64().and_then(|qid| sessions.get(&(qid as u64)));
        if let Some(&session) = new {
            row[col] = Value::Int(session as i64);
        }
    }
    engine.invalidate_indexes("QueryMeta");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn features(sql: &str) -> SyntacticFeatures {
        extract(&sqlparse::parse(sql).unwrap(), None)
    }

    #[test]
    fn extracts_figure1_features() {
        // The motivating query behind Figure 1: correlate salinity and temp.
        let f = features(
            "SELECT * FROM WaterSalinity S, WaterTemp T \
             WHERE S.salinity > 0.2 AND T.temp < 18 AND S.loc_x = T.loc_x",
        );
        assert_eq!(f.tables, vec!["watersalinity", "watertemp"]);
        assert!(f
            .attributes
            .contains(&("watersalinity".into(), "salinity".into())));
        assert!(f.attributes.contains(&("watertemp".into(), "temp".into())));
        let pred_keys: Vec<String> = f
            .predicates
            .iter()
            .map(|p| format!("{}.{}{}{}", p.table, p.column, p.op, p.constant))
            .collect();
        assert!(pred_keys.contains(&"watersalinity.salinity>0.2".to_string()));
        assert!(pred_keys.contains(&"watertemp.temp<18".to_string()));
        assert_eq!(f.num_joins, 1);
        assert!(!f.has_subquery);
    }

    #[test]
    fn resolves_unqualified_single_table() {
        let f = features("SELECT temp FROM WaterTemp WHERE temp < 18");
        assert_eq!(f.attributes, vec![("watertemp".into(), "temp".into())]);
        assert_eq!(f.predicates[0].table, "watertemp");
    }

    #[test]
    fn between_becomes_two_predicates() {
        let f = features("SELECT * FROM t WHERE x BETWEEN 1 AND 5");
        assert_eq!(f.predicates.len(), 2);
        assert_eq!(f.predicates[0].op, ">=");
        assert_eq!(f.predicates[1].op, "<=");
    }

    #[test]
    fn like_predicate_extracted() {
        let f = features("SELECT * FROM t WHERE name LIKE '%lake%'");
        assert_eq!(f.predicates[0].op, "LIKE");
        assert_eq!(f.predicates[0].constant, "'%lake%'");
    }

    #[test]
    fn subquery_features_included() {
        let f = features(
            "SELECT city FROM CityLocations WHERE city IN \
             (SELECT city FROM Cities WHERE state = 'WA')",
        );
        assert!(f.has_subquery);
        assert!(f.tables.contains(&"cities".to_string()));
        assert!(f
            .predicates
            .iter()
            .any(|p| p.table == "cities" && p.column == "state"));
    }

    #[test]
    fn aggregates_and_clauses() {
        let f = features(
            "SELECT lake, COUNT(*) FROM WaterTemp GROUP BY lake \
             HAVING COUNT(*) > 3 ORDER BY lake DESC LIMIT 10",
        );
        assert!(f.has_aggregate);
        assert_eq!(f.group_by, vec!["lake"]);
        assert_eq!(f.order_by, vec!["lake desc"]);
        assert_eq!(f.limit, Some(10));
    }

    #[test]
    fn items_vocabulary() {
        let f = features("SELECT * FROM WaterTemp T WHERE T.temp < 18");
        let items = f.items();
        assert!(items.contains(&"table:watertemp".to_string()));
        assert!(items.contains(&"attr:watertemp.temp".to_string()));
        assert!(items.contains(&"pred:watertemp.temp<".to_string()));
    }

    #[test]
    fn feature_relations_roundtrip() {
        let mut e = Engine::new();
        create_feature_relations(&mut e);
        let f = features("SELECT * FROM WaterSalinity WHERE salinity > 0.2");
        insert_features(
            &mut e,
            &FeatureRowMeta {
                qid: 1,
                author: 42,
                ts: 100,
                session: 7,
                elapsed_us: 1234,
                cardinality: 10,
                success: true,
            },
            "SELECT * FROM WaterSalinity WHERE salinity > 0.2",
            &f,
        );
        let r = e
            .execute("SELECT qid FROM DataSources WHERE relName = 'watersalinity'")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        let r = e
            .execute("SELECT const FROM Predicates WHERE attrName = 'salinity'")
            .unwrap();
        assert_eq!(r.rows[0][0].render(), "0.2");
        delete_features(&mut e, 1);
        let r = e.execute("SELECT * FROM Queries").unwrap();
        assert!(r.rows.is_empty());
    }
}
