//! Automated query correction (§2.3).
//!
//! "Like a spell checker, while a user types a query, the CQMS suggests
//! corrections to relation and attribute names but also changes to entire
//! query clauses. For instance, if a predicate causes a query to return the
//! empty set, the CQMS could suggest similar, previously issued predicates
//! that return a non-empty set."

use crate::storage::QueryStorage;
use sqlparse::ast::*;
use sqlparse::printer::expr_to_sql;
use std::collections::HashMap;

/// A spell-check style identifier correction.
#[derive(Debug, Clone, PartialEq)]
pub struct Correction {
    /// The misspelled identifier as typed.
    pub wrong: String,
    /// The suggested replacement (catalog spelling).
    pub suggestion: String,
    /// Levenshtein distance (1 is a near-certain typo).
    pub distance: usize,
    /// `"table"` or `"column"`.
    pub kind: &'static str,
}

/// A repair for an empty-result query.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairSuggestion {
    /// Human-readable description of the change.
    pub description: String,
    /// The repaired SQL, verified to return rows.
    pub sql: String,
    /// Cardinality of the repaired query's result.
    pub resulting_rows: u64,
}

/// Correction engine over a data engine's catalog and the query log.
pub struct CorrectionEngine<'a> {
    /// The query logs consulted for repairs: one per shard.
    pub logs: Vec<&'a QueryStorage>,
}

impl<'a> CorrectionEngine<'a> {
    /// Bind a correction engine over one storage.
    pub fn new(storage: &'a QueryStorage) -> Self {
        Self::over(vec![storage])
    }

    /// Bind a correction engine over several shards' logs; repairs draw
    /// popular constants from all of them.
    pub fn over(logs: Vec<&'a QueryStorage>) -> Self {
        CorrectionEngine { logs }
    }

    /// Spell-check relation and attribute names of `sql` against the
    /// catalog. Returns corrections for identifiers that do not resolve.
    pub fn check_identifiers(&self, engine: &relstore::Engine, sql: &str) -> Vec<Correction> {
        let Ok(stmt) = sqlparse::parse(sql) else {
            return Vec::new();
        };
        let feats = crate::features::extract(&stmt, Some(&engine.catalog));
        let mut out = Vec::new();

        let tables = engine.catalog.table_names();
        let tables_lower: Vec<String> = tables.iter().map(|t| t.to_ascii_lowercase()).collect();
        for t in &feats.tables {
            if tables_lower.contains(t) {
                continue;
            }
            if let Some((best, d)) = nearest(t, tables.iter().map(String::as_str)) {
                if d <= 2 {
                    out.push(Correction {
                        wrong: t.clone(),
                        suggestion: best.to_string(),
                        distance: d,
                        kind: "table",
                    });
                }
            }
        }

        // Columns: validate each referenced attribute against its resolved
        // table (or any in-query table when unresolved).
        for (t, a) in &feats.attributes {
            let candidates: Vec<String> = if !t.is_empty() && tables_lower.contains(t) {
                engine
                    .catalog
                    .table(t)
                    .map(|tb| tb.schema.column_names())
                    .unwrap_or_default()
            } else {
                feats
                    .tables
                    .iter()
                    .filter_map(|ft| engine.catalog.table(ft).ok())
                    .flat_map(|tb| tb.schema.column_names())
                    .collect()
            };
            if candidates.is_empty() {
                continue;
            }
            let lower: Vec<String> = candidates.iter().map(|c| c.to_ascii_lowercase()).collect();
            if lower.contains(a) {
                continue;
            }
            if let Some((best, d)) = nearest(a, candidates.iter().map(String::as_str)) {
                if d <= 2 {
                    out.push(Correction {
                        wrong: a.clone(),
                        suggestion: best.to_string(),
                        distance: d,
                        kind: "column",
                    });
                }
            }
        }
        out.sort_by(|a, b| {
            a.distance
                .cmp(&b.distance)
                .then_with(|| a.wrong.cmp(&b.wrong))
        });
        out.dedup();
        out
    }

    /// Repair an empty-result SELECT (§2.3): try dropping each conjunct and
    /// replacing predicate constants with popular constants from the log;
    /// keep candidates that actually return rows (verified by execution).
    pub fn repair_empty_result(
        &self,
        engine: &relstore::Engine,
        sql: &str,
        max_suggestions: usize,
    ) -> Vec<RepairSuggestion> {
        let Ok(Statement::Select(base)) = sqlparse::parse(sql) else {
            return Vec::new();
        };
        // Only meaningful when the query indeed returns nothing.
        match engine.query_statement(&Statement::Select(base.clone())) {
            Ok(r) if r.rows.is_empty() => {}
            _ => return Vec::new(),
        }
        let conjuncts: Vec<Expr> = base
            .where_clause
            .as_ref()
            .map(|w| w.conjuncts().into_iter().cloned().collect())
            .unwrap_or_default();
        let mut candidates: Vec<(String, SelectStatement)> = Vec::new();

        // (a) Drop one conjunct at a time.
        for i in 0..conjuncts.len() {
            let mut rest = conjuncts.clone();
            let dropped = rest.remove(i);
            let mut cand = base.clone();
            cand.where_clause = Expr::from_conjuncts(rest);
            candidates.push((format!("drop predicate '{}'", expr_to_sql(&dropped)), cand));
        }

        // (b) Replace the constant of each comparison conjunct with popular
        // constants from the log for the same (column, op).
        let popular = self.popular_constants();
        for (i, c) in conjuncts.iter().enumerate() {
            let Expr::Binary { left, op, right } = c else {
                continue;
            };
            if !op.is_comparison() {
                continue;
            }
            let (col, _lit) = match (&**left, &**right) {
                (Expr::Column(col), Expr::Literal(l)) if l.is_constant() => (col, l),
                _ => continue,
            };
            let key = (col.name.to_ascii_lowercase(), op.as_str().to_string());
            if let Some(consts) = popular.get(&key) {
                for replacement in consts.iter().take(3) {
                    if let Ok(lit_expr) = sqlparse::parse_expression(replacement) {
                        let mut new_conj = conjuncts.clone();
                        new_conj[i] = Expr::Binary {
                            left: left.clone(),
                            op: *op,
                            right: Box::new(lit_expr),
                        };
                        let mut cand = base.clone();
                        cand.where_clause = Expr::from_conjuncts(new_conj);
                        candidates.push((
                            format!(
                                "replace '{}' with '{} {} {}'",
                                expr_to_sql(c),
                                col,
                                op.as_str(),
                                replacement
                            ),
                            cand,
                        ));
                    }
                }
            }
        }

        // Verify: keep candidates that return rows.
        let mut out = Vec::new();
        for (description, cand) in candidates {
            if out.len() >= max_suggestions {
                break;
            }
            let stmt = Statement::Select(cand);
            if let Ok(r) = engine.query_statement(&stmt) {
                if !r.rows.is_empty() {
                    out.push(RepairSuggestion {
                        description,
                        sql: sqlparse::to_sql(&stmt),
                        resulting_rows: r.rows.len() as u64,
                    });
                }
            }
        }
        out
    }

    /// (column, op) → constants by popularity, summed over every log's
    /// maintained predicate counts (all tables' shapes of that column).
    fn popular_constants(&self) -> HashMap<(String, String), Vec<String>> {
        let mut counts: HashMap<(String, String), HashMap<String, u32>> = HashMap::new();
        for log in &self.logs {
            for ((_table, column, op), shape) in log.completion_counts().preds() {
                let slot = counts
                    .entry((column.to_string(), op.to_string()))
                    .or_default();
                for (constant, &n) in shape.constants.iter() {
                    *slot.entry(constant.to_string()).or_insert(0) += n;
                }
            }
        }
        debug_assert_eq!(counts, {
            let mut scan: HashMap<(String, String), HashMap<String, u32>> = HashMap::new();
            for r in self.logs.iter().flat_map(|log| log.iter_live()) {
                for [_, column, op, constant] in r.features.predicates() {
                    *scan
                        .entry((column.to_string(), op.to_string()))
                        .or_default()
                        .entry(constant.to_string())
                        .or_insert(0) += 1;
                }
            }
            scan
        });
        counts
            .into_iter()
            .map(|(k, v)| {
                let mut list: Vec<(String, u32)> = v.into_iter().collect();
                list.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
                (k, list.into_iter().map(|(c, _)| c).collect())
            })
            .collect()
    }
}

/// Levenshtein distance (iterative two-row DP).
pub fn levenshtein(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_ascii_lowercase().chars().collect();
    let b: Vec<char> = b.to_ascii_lowercase().chars().collect();
    if a.is_empty() {
        return b.len();
    }
    if b.is_empty() {
        return a.len();
    }
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let cost = usize::from(ca != cb);
            cur[j + 1] = (prev[j + 1] + 1).min(cur[j] + 1).min(prev[j] + cost);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// The nearest candidate by Levenshtein distance.
fn nearest<'x>(
    target: &str,
    candidates: impl Iterator<Item = &'x str>,
) -> Option<(&'x str, usize)> {
    candidates
        .map(|c| (c, levenshtein(target, c)))
        .min_by_key(|(c, d)| (*d, c.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;

    fn engine() -> relstore::Engine {
        let mut e = relstore::Engine::new();
        workload::Domain::Lakes.setup(&mut e, 100, 1);
        e
    }

    fn storage_with(sqls: &[&str]) -> QueryStorage {
        let mut st = QueryStorage::new();
        for (i, sql) in sqls.iter().enumerate() {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            st.insert(make_record(
                QueryId(i as u64),
                UserId(1),
                100,
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
        st
    }

    #[test]
    fn levenshtein_basics() {
        assert_eq!(levenshtein("watertemp", "watertemp"), 0);
        assert_eq!(levenshtein("watertmep", "watertemp"), 2); // transposition = 2 edits
        assert_eq!(levenshtein("watertem", "watertemp"), 1);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("WaterTemp", "watertemp"), 0); // case-blind
    }

    #[test]
    fn corrects_misspelled_table() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        let cs = ce.check_identifiers(&en, "SELECT * FROM WatrTemp");
        assert_eq!(cs.len(), 1);
        assert_eq!(cs[0].suggestion, "WaterTemp");
        assert_eq!(cs[0].kind, "table");
        assert_eq!(cs[0].distance, 1);
    }

    #[test]
    fn corrects_misspelled_column() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        let cs = ce.check_identifiers(&en, "SELECT tmep FROM WaterTemp");
        assert!(
            cs.iter()
                .any(|c| c.suggestion == "temp" && c.kind == "column"),
            "{cs:?}"
        );
    }

    #[test]
    fn correct_queries_produce_no_corrections() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        assert!(ce
            .check_identifiers(&en, "SELECT temp FROM WaterTemp WHERE lake = 'x'")
            .is_empty());
    }

    #[test]
    fn wildly_wrong_names_not_matched() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        let cs = ce.check_identifiers(&en, "SELECT * FROM CompletelyUnrelated");
        assert!(cs.is_empty(), "{cs:?}");
    }

    #[test]
    fn repairs_empty_result_by_dropping_predicate() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        // temp < -100 is unsatisfiable in the data.
        let fixes = ce.repair_empty_result(
            &en,
            "SELECT * FROM WaterTemp WHERE temp < -100 AND lake = 'Lake Washington'",
            5,
        );
        assert!(!fixes.is_empty());
        assert!(fixes.iter().all(|f| f.resulting_rows > 0));
        assert!(fixes[0].description.contains("drop predicate"));
    }

    #[test]
    fn repairs_with_popular_constants_from_log() {
        let en = engine();
        // The log knows that `temp < 18` is a popular, satisfiable choice.
        let st = storage_with(&[
            "SELECT * FROM WaterTemp WHERE temp < 18",
            "SELECT * FROM WaterTemp WHERE temp < 18",
            "SELECT * FROM WaterTemp WHERE temp < 20",
        ]);
        let ce = CorrectionEngine::new(&st);
        let fixes = ce.repair_empty_result(&en, "SELECT * FROM WaterTemp WHERE temp < -5", 10);
        assert!(
            fixes.iter().any(|f| f.description.contains("18")),
            "{fixes:?}"
        );
    }

    #[test]
    fn non_empty_queries_are_left_alone() {
        let en = engine();
        let st = storage_with(&[]);
        let ce = CorrectionEngine::new(&st);
        let fixes = ce.repair_empty_result(&en, "SELECT * FROM WaterTemp", 5);
        assert!(fixes.is_empty());
    }
}
