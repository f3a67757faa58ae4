//! Context-aware query completion (§2.3).
//!
//! "Assume that the most popular table to include in the FROM clause is
//! CityLocations. However, for queries that also include WaterSalinity, the
//! most popular is WaterTemp. Thus, if the user has already included
//! WaterSalinity, the system should suggest WaterTemp over CityLocations."
//!
//! The engine inspects the partial SQL's token stream to decide *what* is
//! being completed (a table in FROM, an attribute in SELECT/WHERE, a
//! predicate), then ranks candidates by association-rule confidence given
//! the tables already present, falling back to global popularity.
//!
//! The statistics come from counts the Query Storage keeps at write time
//! over its live records (`QueryStorage::completion_counts`), so
//! collecting them costs the keys in scope and never walks the log. Debug builds check each
//! collection against a scan of the live records.

use crate::config::CqmsConfig;
use crate::miner::assoc::{suggest_from_counts, ContextCounts};
use crate::storage::QueryStorage;
use sqlparse::{Keyword, Lexer, TokenKind};
use std::collections::{HashMap, HashSet};

/// A predicate shape: (table, column, operator).
pub type PredicateKey = (String, String, String);
/// Popularity of one predicate shape: (count, constant → count).
pub type PredicateStats = (u32, HashMap<String, u32>);

/// The catalog names completion needs, detached from the live
/// [`relstore::Engine`] so a [`crate::snapshot::ReadSnapshot`] can answer
/// completions without touching the engine (or any lock).
#[derive(Debug, Clone, Default)]
pub struct CatalogView {
    /// Known relation names (lower → display form).
    pub tables: HashMap<String, String>,
    /// relation (lower) → its columns (display form).
    pub columns: HashMap<String, Vec<String>>,
}

impl CatalogView {
    /// Snapshot an engine's catalog names.
    pub fn of(engine: &relstore::Engine) -> Self {
        let mut view = CatalogView::default();
        for name in engine.catalog.table_names() {
            let lower = name.to_ascii_lowercase();
            if let Ok(t) = engine.catalog.table(&name) {
                view.columns.insert(
                    lower.clone(),
                    t.schema.columns.iter().map(|c| c.name.clone()).collect(),
                );
            }
            view.tables.insert(lower, name);
        }
        view
    }
}

/// Summable inputs behind one completion probe, counted over one Query
/// Storage's live records (copied out of its maintained counters). A
/// sharded deployment
/// [`CompletionStats::merge`]s its shards' stats and scores the totals
/// once, which reproduces a single instance holding every shard's log
/// bit-for-bit (see [`suggest_from_counts`] for the rule part of that
/// argument — the popularity parts are plain sums); one instance is the
/// one-shard case.
#[derive(Debug, Clone, Default)]
pub struct CompletionStats {
    /// Association context counts for `table:`-prefixed consequents
    /// (filled for FROM-clause probes with at least one table present).
    pub rule_counts: ContextCounts,
    /// table (lower) → live-query use count.
    pub table_pop: HashMap<String, u32>,
    /// (table, attribute) → use count over in-scope tables.
    pub attr_pop: HashMap<(String, String), u32>,
    /// predicate shape → (count, constant → count) over in-scope tables.
    pub pred_pop: HashMap<PredicateKey, PredicateStats>,
}

impl CompletionStats {
    /// Sum another shard's stats into this one.
    pub fn merge(&mut self, other: &CompletionStats) {
        self.rule_counts.merge(&other.rule_counts);
        for (k, v) in &other.table_pop {
            *self.table_pop.entry(k.clone()).or_insert(0) += v;
        }
        for (k, v) in &other.attr_pop {
            *self.attr_pop.entry(k.clone()).or_insert(0) += v;
        }
        for (k, (c, consts)) in &other.pred_pop {
            let entry = self
                .pred_pop
                .entry(k.clone())
                .or_insert((0, HashMap::new()));
            entry.0 += c;
            for (constant, n) in consts {
                *entry.1.entry(constant.clone()).or_insert(0) += n;
            }
        }
    }
}

/// What the cursor is positioned to complete.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompletionContext {
    /// Completing a relation name (FROM clause).
    Table,
    /// Completing an attribute (SELECT / GROUP BY / ORDER BY).
    Attribute,
    /// Completing a predicate (WHERE / HAVING).
    Predicate,
    /// Start of a statement.
    Statement,
}

/// One completion suggestion.
#[derive(Debug, Clone, PartialEq)]
pub struct Suggestion {
    /// Text to insert (`WaterTemp`, `temp < 18`, …).
    pub text: String,
    /// Relative score in [0, 1] (confidence or normalised popularity).
    pub score: f64,
    /// Explanation shown in the client ("83% of queries with WaterSalinity
    /// also use WaterTemp").
    pub why: String,
}

/// The completion engine: a view over the storage's feature statistics.
pub struct CompletionEngine<'a> {
    storage: &'a QueryStorage,
    config: &'a CqmsConfig,
    catalog: &'a CatalogView,
}

impl<'a> CompletionEngine<'a> {
    /// Bind a completion engine over the storage and catalog names.
    pub fn new(
        storage: &'a QueryStorage,
        config: &'a CqmsConfig,
        catalog: &'a CatalogView,
    ) -> Self {
        CompletionEngine {
            storage,
            config,
            catalog,
        }
    }

    /// Detect the completion context and current token prefix from partial
    /// SQL (the text left of the cursor).
    pub fn detect_context(partial: &str) -> (CompletionContext, String, Vec<String>) {
        let tokens = match Lexer::tokenize(partial) {
            Ok(t) => t,
            Err(_) => return (CompletionContext::Statement, String::new(), Vec::new()),
        };
        // Current prefix: a trailing identifier with no whitespace after it.
        let trailing_ws = partial
            .chars()
            .last()
            .map(|c| c.is_whitespace() || c == ',' || c == '(')
            .unwrap_or(true);
        let mut prefix = String::new();
        let mut effective: Vec<&TokenKind> = tokens
            .iter()
            .map(|t| &t.kind)
            .filter(|k| **k != TokenKind::Eof)
            .collect();
        if !trailing_ws {
            if let Some(TokenKind::Ident(last)) = effective.last().copied() {
                prefix = last.clone();
                effective.pop();
            }
        }
        // Tables already present (identifiers following FROM up to WHERE/etc.)
        let mut tables = Vec::new();
        let mut in_from = false;
        for k in &effective {
            match k {
                TokenKind::Keyword(Keyword::From) => in_from = true,
                TokenKind::Keyword(Keyword::Where)
                | TokenKind::Keyword(Keyword::Group)
                | TokenKind::Keyword(Keyword::Order)
                | TokenKind::Keyword(Keyword::Having)
                | TokenKind::Keyword(Keyword::Limit) => in_from = false,
                TokenKind::Ident(name) if in_from => {
                    tables.push(name.to_ascii_lowercase());
                }
                _ => {}
            }
        }
        // Context = clause of the last structural keyword.
        let mut ctx = CompletionContext::Statement;
        for k in &effective {
            match k {
                TokenKind::Keyword(Keyword::Select) => ctx = CompletionContext::Attribute,
                TokenKind::Keyword(Keyword::From) | TokenKind::Keyword(Keyword::Join) => {
                    ctx = CompletionContext::Table
                }
                TokenKind::Keyword(Keyword::Where) | TokenKind::Keyword(Keyword::Having) => {
                    ctx = CompletionContext::Predicate
                }
                TokenKind::Keyword(Keyword::Group) | TokenKind::Keyword(Keyword::Order) => {
                    ctx = CompletionContext::Attribute
                }
                _ => {}
            }
        }
        (ctx, prefix, tables)
    }

    /// Collect the summable statistics this probe needs from *this*
    /// storage (one shard's contribution; only the maps the probe's
    /// context consults are filled). Reads the storage's counters only:
    /// O(keys in scope), never O(log).
    pub fn collect_stats(&self, partial: &str) -> CompletionStats {
        let (ctx, _prefix, tables) = Self::detect_context(partial);
        let mut stats = CompletionStats::default();
        match ctx {
            CompletionContext::Table => {
                stats.rule_counts = self.collect_rule_counts(&tables);
                stats.table_pop = self.collect_table_pop();
            }
            CompletionContext::Attribute => stats.attr_pop = self.collect_attr_pop(&tables),
            CompletionContext::Predicate => stats.pred_pop = self.collect_pred_pop(&tables),
            CompletionContext::Statement => {}
        }
        stats
    }

    /// Top-k suggestions for the partial SQL, scored from the (possibly
    /// cross-shard merged) statistics [`CompletionEngine::collect_stats`]
    /// gathered for it.
    pub fn suggest_with_stats(
        &self,
        partial: &str,
        k: usize,
        stats: &CompletionStats,
    ) -> Vec<Suggestion> {
        let (ctx, prefix, tables) = Self::detect_context(partial);
        match ctx {
            CompletionContext::Table => {
                let rule_hits = suggest_from_counts(
                    &stats.rule_counts,
                    self.config.assoc_min_support,
                    self.config.assoc_min_confidence,
                );
                self.score_tables(&tables, &prefix, k, &rule_hits, &stats.table_pop)
            }
            CompletionContext::Attribute => {
                self.score_attributes(&tables, &prefix, k, &stats.attr_pop)
            }
            CompletionContext::Predicate => self.score_predicates(&prefix, k, &stats.pred_pop),
            CompletionContext::Statement => Self::statement_start(),
        }
    }

    fn statement_start() -> Vec<Suggestion> {
        vec![Suggestion {
            text: "SELECT".to_string(),
            score: 1.0,
            why: "start a query".to_string(),
        }]
    }

    /// Association context counts for the tables already typed: each
    /// distinct live table list is added once, weighted by how many live
    /// records have it (a list without a typed table adds nothing).
    fn collect_rule_counts(&self, present: &[String]) -> ContextCounts {
        let context: HashSet<String> = present.iter().map(|t| format!("table:{t}")).collect();
        let items = |tables: &mut dyn Iterator<Item = &str>| -> Vec<String> {
            tables.map(|t| format!("table:{t}")).collect()
        };
        let mut counts = ContextCounts::default();
        for (tables, n) in self.storage.completion_counts().table_sets() {
            // A list holding no typed table adds nothing: skip building it.
            if !tables.iter().any(|t| present.iter().any(|p| p == &**t)) {
                continue;
            }
            let items = items(&mut tables.iter().map(|t| &**t));
            counts.add_n(&items, &context, "table:", u64::from(n));
        }
        debug_assert_eq!(counts, {
            let mut scan = ContextCounts::default();
            for r in self.storage.iter_live() {
                let items = items(&mut r.features.tables.iter().map(String::as_str));
                scan.add_n(&items, &context, "table:", 1);
            }
            scan
        });
        counts
    }

    /// Global table popularity: pop(t) is the summed count of the live
    /// table lists that contain t (a list holds each table once).
    fn collect_table_pop(&self) -> HashMap<String, u32> {
        let mut counted: HashMap<&str, u32> = HashMap::new();
        for (tables, n) in self.storage.completion_counts().table_sets() {
            for t in tables {
                *counted.entry(t).or_insert(0) += n;
            }
        }
        let pop: HashMap<String, u32> = counted
            .into_iter()
            .map(|(t, n)| (t.to_string(), n))
            .collect();
        debug_assert_eq!(pop, {
            let mut scan: HashMap<String, u32> = HashMap::new();
            for t in self.storage.iter_live().flat_map(|r| &r.features.tables) {
                *scan.entry(t.clone()).or_insert(0) += 1;
            }
            scan
        });
        pop
    }

    /// Table suggestions: association rules first (context-aware), then
    /// global popularity, then catalog order.
    fn score_tables(
        &self,
        present: &[String],
        prefix: &str,
        k: usize,
        rule_hits: &[(String, f64)],
        pop: &HashMap<String, u32>,
    ) -> Vec<Suggestion> {
        let prefix_l = prefix.to_ascii_lowercase();
        let mut out: Vec<Suggestion> = Vec::new();
        let mut suggested: HashSet<String> = HashSet::new();

        // 1. Context-aware: rules whose antecedents hold.
        for (item, conf) in rule_hits {
            let t = item.trim_start_matches("table:").to_string();
            if !t.starts_with(&prefix_l) || present.contains(&t) {
                continue;
            }
            if suggested.insert(t.clone()) {
                let display = self.display_table(&t);
                out.push(Suggestion {
                    text: display,
                    score: conf.min(1.0),
                    why: format!(
                        "{:.0}% of queries with {} also use it",
                        conf * 100.0,
                        present.join(", ")
                    ),
                });
            }
        }

        // 2. Global popularity from the log.
        let max_pop = pop.values().copied().max().unwrap_or(1) as f64;
        let mut by_pop: Vec<(String, u32)> = pop.iter().map(|(t, c)| (t.clone(), *c)).collect();
        by_pop.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        for (t, count) in by_pop {
            if out.len() >= k {
                break;
            }
            if !t.starts_with(&prefix_l) || present.contains(&t) || suggested.contains(&t) {
                continue;
            }
            suggested.insert(t.clone());
            let display = self.display_table(&t);
            out.push(Suggestion {
                text: display,
                // Popularity scores sit below rule confidences by design.
                score: 0.49 * count as f64 / max_pop,
                why: format!("used by {count} logged queries"),
            });
        }

        // 3. Catalog fallback (fresh deployments with an empty log).
        if out.len() < k {
            let mut names: Vec<&String> = self.catalog.tables.keys().collect();
            names.sort();
            for t in names {
                if out.len() >= k {
                    break;
                }
                if !t.starts_with(&prefix_l) || present.contains(t) || suggested.contains(t) {
                    continue;
                }
                out.push(Suggestion {
                    text: self.display_table(t),
                    score: 0.05,
                    why: "in the catalog".to_string(),
                });
            }
        }

        out.truncate(k);
        out
    }

    /// (table, attribute) use counts over in-scope tables (every table
    /// when none is typed), read from the storage's counters.
    fn collect_attr_pop(&self, present: &[String]) -> HashMap<(String, String), u32> {
        let in_scope = |t: &str| present.is_empty() || present.iter().any(|p| p == t);
        let pop: HashMap<(String, String), u32> = self
            .storage
            .completion_counts()
            .attrs()
            .filter(|((t, _), _)| in_scope(t))
            .map(|((t, a), n)| ((t.to_string(), a.to_string()), n))
            .collect();
        debug_assert_eq!(pop, {
            let mut scan: HashMap<(String, String), u32> = HashMap::new();
            for r in self.storage.iter_live() {
                for (t, a) in &r.features.attributes {
                    if in_scope(t) {
                        *scan.entry((t.clone(), a.clone())).or_insert(0) += 1;
                    }
                }
            }
            scan
        });
        pop
    }

    /// Attribute suggestions for the in-scope tables, popularity-ranked.
    fn score_attributes(
        &self,
        present: &[String],
        prefix: &str,
        k: usize,
        pop: &HashMap<(String, String), u32>,
    ) -> Vec<Suggestion> {
        let prefix_l = prefix.to_ascii_lowercase();
        let max_pop = pop.values().copied().max().unwrap_or(1) as f64;
        let mut by_pop: Vec<((String, String), u32)> =
            pop.iter().map(|(ta, c)| (ta.clone(), *c)).collect();
        by_pop.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for ((t, a), count) in by_pop {
            if out.len() >= k {
                break;
            }
            if !a.starts_with(&prefix_l) || !seen.insert(a.clone()) {
                continue;
            }
            out.push(Suggestion {
                text: a.clone(),
                score: count as f64 / max_pop,
                why: format!("popular on {t} ({count} uses)"),
            });
        }
        // Catalog fallback.
        if out.len() < k {
            for t in present {
                if let Some(cols) = self.catalog.columns.get(t) {
                    for c in cols {
                        if out.len() >= k {
                            break;
                        }
                        let cl = c.to_ascii_lowercase();
                        if cl.starts_with(&prefix_l) && seen.insert(cl) {
                            out.push(Suggestion {
                                text: c.clone(),
                                score: 0.05,
                                why: format!("column of {t}"),
                            });
                        }
                    }
                }
            }
        }
        out
    }

    /// Predicate-shape stats over in-scope tables, read from the storage's
    /// counters. A predicate whose table did not resolve (empty) is always
    /// in scope.
    fn collect_pred_pop(&self, present: &[String]) -> HashMap<PredicateKey, PredicateStats> {
        let in_scope =
            |t: &str| t.is_empty() || present.is_empty() || present.iter().any(|p| p == t);
        let pop: HashMap<PredicateKey, PredicateStats> = self
            .storage
            .completion_counts()
            .preds()
            .filter(|((t, ..), _)| in_scope(t))
            .map(|((t, c, op), shape)| {
                let constants = shape
                    .constants
                    .iter()
                    .map(|(constant, &n)| (constant.to_string(), n))
                    .collect();
                (
                    (t.to_string(), c.to_string(), op.to_string()),
                    (shape.count, constants),
                )
            })
            .collect();
        debug_assert_eq!(pop, {
            let mut scan: HashMap<PredicateKey, PredicateStats> = HashMap::new();
            for r in self.storage.iter_live() {
                for p in r.features.predicates.iter().filter(|p| in_scope(&p.table)) {
                    let entry = scan
                        .entry((p.table.clone(), p.column.clone(), p.op.clone()))
                        .or_insert((0, HashMap::new()));
                    entry.0 += 1;
                    *entry.1.entry(p.constant.clone()).or_insert(0) += 1;
                }
            }
            scan
        });
        pop
    }

    /// Predicate suggestions: popular predicates on in-scope tables with
    /// their most common constants (§2.3 "suggest predicates in the WHERE
    /// clause … and even complete subclauses").
    fn score_predicates(
        &self,
        prefix: &str,
        k: usize,
        pop: &HashMap<PredicateKey, PredicateStats>,
    ) -> Vec<Suggestion> {
        let prefix_l = prefix.to_ascii_lowercase();
        let max_pop = pop.values().map(|(c, _)| *c).max().unwrap_or(1) as f64;
        let mut list: Vec<(&PredicateKey, &PredicateStats)> = pop.iter().collect();
        list.sort_by(|a, b| b.1 .0.cmp(&a.1 .0).then_with(|| a.0.cmp(b.0)));
        let mut out = Vec::new();
        for ((_t, col, op), (count, consts)) in list {
            if out.len() >= k {
                break;
            }
            if !col.starts_with(&prefix_l) {
                continue;
            }
            let best_const = consts
                .iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(c, _)| c.clone())
                .unwrap_or_default();
            out.push(Suggestion {
                text: format!("{col} {op} {best_const}"),
                score: *count as f64 / max_pop,
                why: format!("{count} logged queries filter on it"),
            });
        }
        out
    }

    fn display_table(&self, lower: &str) -> String {
        self.catalog
            .tables
            .get(lower)
            .cloned()
            .unwrap_or_else(|| lower.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;

    /// Probe through the engine's one scoring entry, on its own stats.
    fn complete(ce: &CompletionEngine<'_>, partial: &str, k: usize) -> Vec<Suggestion> {
        ce.suggest_with_stats(partial, k, &ce.collect_stats(partial))
    }

    fn seeded() -> (QueryStorage, CatalogView) {
        let mut engine = relstore::Engine::new();
        workload::Domain::Lakes.setup(&mut engine, 10, 1);
        let mut st = QueryStorage::new();
        // The paper's §2.3 scenario: CityLocations is the most popular table
        // overall, but WaterSalinity co-occurs with WaterTemp.
        let mut sqls: Vec<String> = Vec::new();
        for i in 0..10 {
            sqls.push(format!("SELECT city FROM CityLocations WHERE pop > {i}"));
        }
        for _ in 0..6 {
            sqls.push(
                "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x \
                 AND T.temp < 18"
                    .to_string(),
            );
        }
        sqls.push("SELECT * FROM WaterSalinity WHERE salinity > 0.3".to_string());
        for (i, sql) in sqls.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            st.insert(make_record(
                QueryId(i as u64),
                UserId(1),
                100 + i as u64,
                sql,
                Some(stmt),
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(i as u64),
                Visibility::Public,
            ));
        }
        (st, CatalogView::of(&engine))
    }

    #[test]
    fn context_detection() {
        let (ctx, prefix, tables) =
            CompletionEngine::detect_context("SELECT * FROM WaterSalinity, Wat");
        assert_eq!(ctx, CompletionContext::Table);
        assert_eq!(prefix, "Wat");
        assert_eq!(tables, vec!["watersalinity"]);

        let (ctx, _, tables) = CompletionEngine::detect_context("SELECT * FROM WaterTemp WHERE te");
        assert_eq!(ctx, CompletionContext::Predicate);
        assert_eq!(tables, vec!["watertemp"]);

        let (ctx, ..) = CompletionEngine::detect_context("SELECT ");
        assert_eq!(ctx, CompletionContext::Attribute);

        let (ctx, ..) = CompletionEngine::detect_context("");
        assert_eq!(ctx, CompletionContext::Statement);
    }

    #[test]
    fn paper_scenario_watertemp_over_citylocations() {
        let (st, view) = seeded();
        let cfg = CqmsConfig::default();
        let ce = CompletionEngine::new(&st, &cfg, &view);
        // No context: CityLocations is most popular.
        let plain = complete(&ce, "SELECT * FROM ", 3);
        assert_eq!(plain[0].text, "CityLocations", "{plain:?}");
        // With WaterSalinity present: WaterTemp must win.
        let ctx = complete(&ce, "SELECT * FROM WaterSalinity, ", 3);
        assert_eq!(ctx[0].text, "WaterTemp", "{ctx:?}");
        assert!(ctx[0].score > 0.5);
        assert!(ctx[0].why.contains("watersalinity"));
    }

    #[test]
    fn prefix_filters_suggestions() {
        let (st, view) = seeded();
        let cfg = CqmsConfig::default();
        let ce = CompletionEngine::new(&st, &cfg, &view);
        let hits = complete(&ce, "SELECT * FROM Water", 5);
        assert!(!hits.is_empty());
        assert!(hits.iter().all(|s| s.text.starts_with("Water")));
    }

    #[test]
    fn full_pipeline_from_partial_sql() {
        let (st, view) = seeded();
        let cfg = CqmsConfig::default();
        let ce = CompletionEngine::new(&st, &cfg, &view);
        let hits = complete(&ce, "SELECT * FROM WaterSalinity, ", 3);
        assert_eq!(hits[0].text, "WaterTemp");
    }

    #[test]
    fn attribute_suggestions_ranked_by_use() {
        let (st, view) = seeded();
        let cfg = CqmsConfig::default();
        let ce = CompletionEngine::new(&st, &cfg, &view);
        let hits = complete(&ce, "SELECT * FROM CityLocations ORDER BY ", 5);
        assert!(!hits.is_empty());
        // `pop` and `city` are the logged attributes of CityLocations.
        assert!(hits.iter().any(|s| s.text == "pop"));
        assert!(hits.iter().any(|s| s.text == "city"));
    }

    #[test]
    fn predicate_suggestions_include_popular_constant() {
        let (st, view) = seeded();
        let cfg = CqmsConfig::default();
        let ce = CompletionEngine::new(&st, &cfg, &view);
        let hits = complete(&ce, "SELECT * FROM WaterTemp WHERE ", 5);
        assert!(hits.iter().any(|s| s.text == "temp < 18"), "{hits:?}");
    }

    #[test]
    fn empty_log_falls_back_to_catalog() {
        let mut engine = relstore::Engine::new();
        workload::Domain::Lakes.setup(&mut engine, 5, 1);
        let st = QueryStorage::new();
        let cfg = CqmsConfig::default();
        let view = CatalogView::of(&engine);
        let ce = CompletionEngine::new(&st, &cfg, &view);
        let hits = complete(&ce, "SELECT * FROM ", 10);
        assert!(hits.iter().any(|s| s.text == "WaterTemp"));
        let attrs = complete(&ce, "SELECT * FROM WaterTemp ORDER BY ", 10);
        assert!(attrs.iter().any(|s| s.text == "temp"));
    }
}
