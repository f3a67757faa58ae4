//! Syntactic feature extraction — the "query-by-feature" data model.
//!
//! Figure 1 of the paper defines the feature relations
//! `Queries(qid, qText)`, `DataSources(qid, relName)`,
//! `Attributes(qid, attrName, relName)` and
//! `Predicates(qid, attrName, relName, op, const)`. This module extracts
//! those features from a parsed statement (resolving aliases and, when a
//! catalog is available, unqualified column names) into a temporary
//! [`SyntacticFeatures`], and builds each query's rows of those relations
//! from it ([`FeatureRows`]). The rows are what a logged query keeps:
//! every reader of its features reads them, and the Meta-query Executor
//! assembles them into `relstore` tables to run SQL against.

use crate::model::QueryRecord;
use cqms_cow::CowSet;
use relstore::{Catalog, Row, Value};
use sqlparse::ast::*;
use sqlparse::printer::expr_to_sql;
use sqlparse::visit::{self, Visitor};
use std::collections::HashMap;
use std::sync::{Arc, LazyLock};

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

/// The Figure 1 features of one query, as [`extract`] finds them: a
/// temporary that [`FeatureRows::of`] turns into the rows a record keeps.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SyntacticFeatures {
    /// Referenced relations, lower-cased, deduplicated, sorted.
    pub tables: Vec<String>,
    /// Referenced attributes as (relName, attrName), resolved through
    /// aliases/schema; deduplicated, sorted.
    pub attributes: Vec<(String, String)>,
    /// Comparison predicates against constants.
    pub predicates: Vec<PredicateFeature>,
    /// Does any block nest a subquery ([`has_subquery`])?
    pub has_subquery: bool,
}

struct Extractor<'c> {
    catalog: Option<&'c Catalog>,
    /// binding (lower) → table (lower), per depth level (0 = outer).
    alias_stack: Vec<HashMap<String, String>>,
    found: SyntacticFeatures,
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
        self.found.tables.push(name.to_ascii_lowercase());
    }

    fn visit_column(&mut self, col: &ColumnRef, _depth: usize) {
        let (t, a) = self.resolve(col);
        self.found.attributes.push((t, a));
    }

    fn visit_comparison(&mut self, col: &ColumnRef, op: BinaryOp, lit: &Literal, _depth: usize) {
        let (t, a) = self.resolve(col);
        self.found.predicates.push(PredicateFeature {
            table: t,
            column: a,
            op: op.as_str().to_string(),
            constant: render_literal(lit),
        });
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
        found: SyntacticFeatures::default(),
    };
    // Pre-push alias maps for nested selects as we walk. The generic walker
    // has no enter/leave select hooks, so walk manually at the top level.
    if let Statement::Select(s) = stmt {
        walk_select_features(&mut ex, s);
    } else {
        visit::walk_statement(&mut ex, stmt);
    }

    let f = &mut ex.found;
    f.tables.sort();
    f.tables.dedup();
    f.attributes.sort();
    f.attributes.dedup();
    f.attributes.retain(|(_, a)| !a.is_empty());
    f.has_subquery = has_subquery(stmt);
    ex.found
}

/// Does any block of `stmt` nest a subquery?
pub fn has_subquery(stmt: &Statement) -> bool {
    let mut nested = Nested(false);
    visit::walk_statement(&mut nested, stmt);
    nested.0
}

/// Does any block of a SELECT nest a subquery?
pub fn select_has_subquery(s: &SelectStatement) -> bool {
    let mut nested = Nested(false);
    visit::walk_select(&mut nested, s, 0);
    nested.0
}

/// A visitor that notes whether it entered a subquery.
struct Nested(bool);

impl Visitor for Nested {
    fn enter_subquery(&mut self, _depth: usize) {
        self.0 = true;
    }
}

/// The rendered, lower-cased projection items of a SELECT (`*`, `t.*`,
/// `expr` or `expr as alias`). Identifier case does not matter, so a
/// signature's folded copy answers as the statement would.
pub fn projections(s: &SelectStatement) -> Vec<String> {
    s.projection
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
        .collect()
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
                ex.found.predicates.push(PredicateFeature {
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
            walk_select_features(ex, subquery);
        }
        Expr::ScalarSubquery(sub) => {
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

/// Does a SELECT aggregate (an aggregate call in its projection, a
/// GROUP BY or a HAVING)? Identifier case does not matter, so a
/// signature's folded copy answers as the statement would.
pub fn has_aggregate(s: &SelectStatement) -> bool {
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

/// The Figure 1 feature relations plus the runtime-metadata relation, each
/// with its typed columns; every one is keyed by `qid` in column 0.
pub const FEATURE_RELATIONS: [(&str, &[(&str, DataType)]); 5] = [
    (
        "Queries",
        &[("qid", DataType::Int), ("qText", DataType::Text)],
    ),
    (
        "DataSources",
        &[("qid", DataType::Int), ("relName", DataType::Text)],
    ),
    (
        "Attributes",
        &[
            ("qid", DataType::Int),
            ("attrName", DataType::Text),
            ("relName", DataType::Text),
        ],
    ),
    (
        "Predicates",
        &[
            ("qid", DataType::Int),
            ("attrName", DataType::Text),
            ("relName", DataType::Text),
            ("op", DataType::Text),
            ("const", DataType::Text),
        ],
    ),
    (
        "QueryMeta",
        &[
            ("qid", DataType::Int),
            ("author", DataType::Int),
            ("ts", DataType::Int),
            ("sessionId", DataType::Int),
            ("elapsedUs", DataType::Int),
            ("cardinality", DataType::Int),
            ("success", DataType::Bool),
        ],
    ),
];

/// Positions of the relations in [`FEATURE_RELATIONS`] that rows are
/// read or rebuilt by.
const DATA_SOURCES: usize = 1;
const ATTRIBUTES: usize = 2;
const PREDICATES: usize = 3;
const QUERY_META: usize = 4;

/// The text a feature row holds in `cell` (every cell past `qid` in the
/// three relations completion counts is text).
fn text_cell(row: &Row, cell: usize) -> &Arc<str> {
    match &row[cell] {
        Value::Text(s) => s,
        other => unreachable!("feature cell {cell} holds {other:?}, not text"),
    }
}

/// The distinct table, attribute and operator names of a store's feature
/// rows, each held once: [`FeatureRows::of`] takes those cells from
/// here, so a name costs one allocation per store however many rows
/// carry it. It holds every distinct name the log has used,
/// the unknown tables and columns of failed queries too (those are
/// logged as well), and it is never shrunk: a deleted record's names
/// stay. Persistent ([`CowSet`]), so a storage clone shares it by
/// pointer.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary(CowSet<Arc<str>>);

impl Vocabulary {
    /// The one shared copy of `s`, allocated on first sight.
    pub fn name(&mut self, s: &str) -> Arc<str> {
        if let Some(shared) = self.0.get_by(s) {
            return Arc::clone(shared);
        }
        let name: Arc<str> = Arc::from(s);
        self.0.insert(Arc::clone(&name));
        name
    }
}

/// One logged query's rows in the feature relations, indexed like
/// [`FEATURE_RELATIONS`]: what its record keeps of its syntactic
/// features. Rows sit behind `Arc`, so showing them to a SQL meta-query
/// copies pointers, never cells.
#[derive(Debug, Clone)]
pub struct FeatureRows([Vec<Arc<Row>>; 5]);

impl FeatureRows {
    /// Build the rows of `record` from `features`. `qText` is the
    /// record's own text (the same `Arc`); relName, attrName and op
    /// cells are `vocabulary`'s one copy of each name, and only the
    /// predicate constants are the record's own.
    pub fn of(
        record: &QueryRecord,
        features: &SyntacticFeatures,
        vocabulary: &mut Vocabulary,
    ) -> FeatureRows {
        let qid = || Value::Int(record.id.0 as i64);
        let row = |cells: Vec<Value>| Arc::new(cells);
        let f = features;
        let mut name = |s: &str| Value::Text(vocabulary.name(s));
        let tables = (f.tables.iter())
            .map(|t| row(vec![qid(), name(t)]))
            .collect();
        let attributes = (f.attributes.iter())
            .map(|(t, a)| row(vec![qid(), name(a), name(t)]))
            .collect();
        let predicates = (f.predicates.iter())
            .map(|p| {
                row(vec![
                    qid(),
                    name(&p.column),
                    name(&p.table),
                    name(&p.op),
                    Value::from(p.constant.as_str()),
                ])
            })
            .collect();
        FeatureRows([
            vec![row(vec![qid(), Value::Text(Arc::clone(&record.raw_sql))])],
            tables,
            attributes,
            predicates,
            vec![meta_row(record)],
        ])
    }

    /// The rows of a tombstone: none in any relation. One shared value.
    pub fn empty() -> Arc<FeatureRows> {
        static EMPTY: LazyLock<Arc<FeatureRows>> =
            LazyLock::new(|| Arc::new(FeatureRows(Default::default())));
        Arc::clone(&EMPTY)
    }

    /// The query's rows in relation `i` of [`FEATURE_RELATIONS`].
    pub fn relation(&self, i: usize) -> &[Arc<Row>] {
        &self.0[i]
    }

    /// `DataSources.relName` per row: the extracted tables, in order.
    pub fn tables(&self) -> impl Iterator<Item = &Arc<str>> {
        self.0[DATA_SOURCES].iter().map(|r| text_cell(r, 1))
    }

    /// `(relName, attrName)` per `Attributes` row: the extracted
    /// attributes, in order.
    pub fn attributes(&self) -> impl Iterator<Item = (&Arc<str>, &Arc<str>)> {
        self.0[ATTRIBUTES]
            .iter()
            .map(|r| (text_cell(r, 2), text_cell(r, 1)))
    }

    /// `[relName, attrName, op, const]` per `Predicates` row: the
    /// extracted predicates as `[table, column, op, constant]`, in order.
    pub fn predicates(&self) -> impl Iterator<Item = [&Arc<str>; 4]> {
        self.0[PREDICATES].iter().map(|r| {
            [
                text_cell(r, 2),
                text_cell(r, 1),
                text_cell(r, 3),
                text_cell(r, 4),
            ]
        })
    }

    /// Mining item vocabulary: `table:<rel>`, `attr:<rel>.<col>`,
    /// `pred:<rel>.<col><op>` (constants stripped — §4.3), sorted and
    /// deduplicated.
    pub fn items(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in self.tables() {
            out.push(format!("table:{t}"));
        }
        for (t, a) in self.attributes() {
            if t.is_empty() {
                out.push(format!("attr:{a}"));
            } else {
                out.push(format!("attr:{t}.{a}"));
            }
        }
        for [t, c, op, _] in self.predicates() {
            if t.is_empty() {
                out.push(format!("pred:{c}{op}"));
            } else {
                out.push(format!("pred:{t}.{c}{op}"));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    /// These rows with the `QueryMeta` row rebuilt from `record`, whose
    /// runtime was refreshed; every other row stays shared, and a
    /// tombstone's rows stay empty.
    pub fn with_meta(&self, record: &QueryRecord) -> FeatureRows {
        let mut out = self.clone();
        for row in &mut out.0[QUERY_META] {
            *row = meta_row(record);
        }
        out
    }
}

/// The `QueryMeta` row of `record`.
fn meta_row(record: &QueryRecord) -> Arc<Row> {
    Arc::new(vec![
        Value::Int(record.id.0 as i64),
        Value::Int(record.user.0 as i64),
        Value::Int(record.ts as i64),
        Value::Int(record.session.0 as i64),
        Value::Int(record.runtime.elapsed_us as i64),
        Value::Int(record.runtime.cardinality as i64),
        Value::Bool(record.runtime.success),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SessionId;

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
        let stmt = sqlparse::parse(
            "SELECT lake, COUNT(*) AS n, T.* FROM WaterTemp T GROUP BY lake \
             HAVING COUNT(*) > 3 ORDER BY lake DESC LIMIT 10",
        )
        .unwrap();
        let select = stmt.as_select().unwrap();
        assert!(has_aggregate(select));
        assert_eq!(projections(select), ["lake", "count(*) as n", "t.*"]);
        // The folded copy a signature keeps answers alike.
        let folded = sqlparse::diff::fold_for_diff(select);
        assert!(has_aggregate(&folded));
        assert_eq!(projections(&folded), projections(select));
        let plain = sqlparse::parse("SELECT * FROM WaterTemp").unwrap();
        assert!(!has_aggregate(plain.as_select().unwrap()));
        assert_eq!(projections(plain.as_select().unwrap()), ["*"]);
    }

    #[test]
    fn items_vocabulary() {
        let sql = "SELECT * FROM WaterTemp T WHERE T.temp < 18";
        let record = crate::storage::make_record(
            crate::model::QueryId(0),
            crate::model::UserId(1),
            0,
            sql,
            sqlparse::parse(sql).ok(),
            features(sql),
            Default::default(),
            crate::model::OutputSummary::None,
            SessionId(0),
            crate::model::Visibility::Public,
        );
        let rows = FeatureRows::of(&record, &record.extracted, &mut Vocabulary::default());
        assert_eq!(
            rows.items(),
            [
                "attr:watertemp.temp",
                "pred:watertemp.temp<",
                "table:watertemp"
            ]
        );
    }

    #[test]
    fn feature_rows_carry_every_relation() {
        let sql = "SELECT * FROM WaterSalinity WHERE salinity > 0.2";
        let record = crate::storage::make_record(
            crate::model::QueryId(1),
            crate::model::UserId(42),
            100,
            sql,
            sqlparse::parse(sql).ok(),
            features(sql),
            crate::model::RuntimeFeatures {
                elapsed_us: 1234,
                cardinality: 10,
                success: true,
                ..Default::default()
            },
            crate::model::OutputSummary::None,
            SessionId(7),
            crate::model::Visibility::Public,
        );
        let mut vocabulary = Vocabulary::default();
        let rows = &FeatureRows::of(&record, &record.extracted, &mut vocabulary);
        let rendered = |i: usize| -> Vec<Vec<String>> {
            rows.relation(i)
                .iter()
                .map(|r| r.iter().map(Value::render).collect())
                .collect()
        };
        assert_eq!(rendered(0), [["1", sql]]);
        assert_eq!(rendered(1), [["1", "watersalinity"]]);
        assert_eq!(rendered(2), [["1", "salinity", "watersalinity"]]);
        assert_eq!(
            rendered(3),
            [["1", "salinity", "watersalinity", ">", "0.2"]]
        );
        assert_eq!(rendered(4), [["1", "42", "100", "7", "1234", "10", "TRUE"]]);
        // `qText` is the record's text itself.
        assert!(
            matches!(&rows.relation(0)[0][1], Value::Text(t) if Arc::ptr_eq(t, &record.raw_sql))
        );
        // Every row fits its relation's schema as built.
        for (i, (name, cols)) in FEATURE_RELATIONS.iter().enumerate() {
            let mut t = relstore::Table::new(relstore::TableSchema::build(name, cols));
            for r in rows.relation(i) {
                t.insert(Row::clone(r)).unwrap();
                assert_eq!(t.rows.last().unwrap(), r, "{name} row coerced on insert");
            }
        }
        // A session move rewrites the QueryMeta row alone.
        let mut moved_record = record.record.clone();
        moved_record.session = SessionId(9);
        let moved = rows.with_meta(&moved_record);
        assert_eq!(moved.relation(4)[0][3], Value::Int(9));
        assert_eq!(rows.relation(4)[0][3], Value::Int(7));
        assert!(Arc::ptr_eq(&moved.relation(0)[0], &rows.relation(0)[0]));
        assert!(Arc::ptr_eq(&moved.relation(3)[0], &rows.relation(3)[0]));
        // Names come from the vocabulary, allocated once; the constant
        // is each row's own.
        let again = FeatureRows::of(&record, &features(sql), &mut vocabulary);
        let [t, a, op, c] = again.predicates().next().unwrap();
        let [t0, a0, op0, c0] = rows.predicates().next().unwrap();
        assert!(Arc::ptr_eq(t, t0) && Arc::ptr_eq(a, a0) && Arc::ptr_eq(op, op0));
        assert!(!Arc::ptr_eq(c, c0));
        assert!(Arc::ptr_eq(again.tables().next().unwrap(), t0));
        // A tombstone's rows are empty and shared.
        assert!((0..FEATURE_RELATIONS.len()).all(|i| FeatureRows::empty().relation(i).is_empty()));
        assert!(Arc::ptr_eq(&FeatureRows::empty(), &FeatureRows::empty()));
    }
}
