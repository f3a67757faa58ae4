//! The Query Maintenance component (Figure 4, §4.4).
//!
//! Three duties:
//!
//! 1. **Schema-evolution scan** — find stored queries invalidated by DDL
//!    ("comparing the timestamp of a query with that of the last schema
//!    modification on any input relation"), *repair* them automatically when
//!    the change was a rename (AST rewrite + re-validation), flag or
//!    obsolete them otherwise;
//! 2. **Statistics refresh** — re-execute stored queries' runtime statistics
//!    only when the underlying data distribution drifted ("re-execute
//!    queries only when there is reason to believe their statistics have
//!    significantly changed"), popularity-first, under a budget. A
//!    re-execution also refreshes the stored output summary — through
//!    [`crate::storage::QueryStorage::refresh_summary`] (→ `reindex` → a
//!    scheduled registry rebuild), never by mutating the record in place,
//!    so the signature output screens can't silently go stale;
//! 3. **Quality scoring** — maintain each query's quality measure used by
//!    the ranking functions.

use crate::config::{CqmsConfig, ProfilingDepth};
use crate::error::CqmsError;
use crate::model::*;
use crate::storage::QueryStorage;
use relstore::{Engine, SchemaChangeKind, TableStats};
use sqlparse::ast::Statement;
use std::collections::HashMap;

/// Outcome of one maintenance scan.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct MaintenanceReport {
    /// Queries examined (live queries with parsed statements).
    pub examined: usize,
    /// Queries whose input tables changed after they ran.
    pub affected: usize,
    /// Successfully repaired (rename rewrites that re-validate).
    pub repaired: Vec<QueryId>,
    /// Flagged as possibly broken (still failing validation).
    pub flagged: Vec<QueryId>,
    /// Confirmed irreparable (e.g. a dropped table).
    pub obsolete: Vec<QueryId>,
}

/// Scan for schema-invalidated queries and repair what is repairable.
pub fn scan_schema_changes(
    storage: &mut QueryStorage,
    engine: &Engine,
) -> Result<MaintenanceReport, CqmsError> {
    let mut report = MaintenanceReport::default();
    let ids: Vec<QueryId> = storage
        .iter()
        .filter(|r| r.is_live() && r.statement.is_some())
        .map(|r| r.id)
        .collect();

    for id in ids {
        report.examined += 1;
        let (mut stmt, logical_time, tables) = {
            let r = storage.get(id)?;
            (
                r.statement.clone().unwrap(),
                r.runtime.logical_time,
                r.features.tables.clone(),
            )
        };

        // Gather changes to any input relation after the query ran. Renames
        // chain (a table renamed twice), so follow the log in order.
        let mut relevant: Vec<(u64, String, SchemaChangeKind)> = Vec::new();
        let mut names = tables.clone();
        for change in engine.catalog.changes() {
            if change.at <= logical_time {
                continue;
            }
            let cl = change.table.to_ascii_lowercase();
            if names.contains(&cl) {
                relevant.push((change.at, cl.clone(), change.kind.clone()));
                if let SchemaChangeKind::RenamedTable { to } = &change.kind {
                    names.push(to.to_ascii_lowercase());
                }
            }
        }
        if relevant.is_empty() {
            continue;
        }
        report.affected += 1;

        // Apply rename repairs in log order.
        let mut hopeless = false;
        for (_, table, kind) in &relevant {
            match kind {
                SchemaChangeKind::RenamedColumn { from, to } => {
                    if let Statement::Select(s) = &mut stmt {
                        sqlparse::visit::rewrite_columns(s, table, from, to);
                    }
                }
                SchemaChangeKind::RenamedTable { to } => {
                    if let Statement::Select(s) = &mut stmt {
                        sqlparse::visit::rewrite_tables(s, table, to);
                    }
                }
                SchemaChangeKind::DroppedTable => hopeless = true,
                SchemaChangeKind::DroppedColumn { .. }
                | SchemaChangeKind::AddedColumn { .. }
                | SchemaChangeKind::CreatedTable => {}
            }
        }

        let at = engine.catalog.now();
        if hopeless {
            storage.set_validity(
                id,
                Validity::Obsolete {
                    reason: "input relation was dropped".into(),
                    at,
                },
            )?;
            report.obsolete.push(id);
            continue;
        }

        // Re-validate the (possibly rewritten) statement.
        match engine.validates(&stmt) {
            Ok(()) => {
                let new_sql = sqlparse::to_sql(&stmt);
                let original = {
                    let r = storage.get_mut(id)?;
                    if new_sql != r.raw_sql {
                        let original = std::mem::replace(&mut r.raw_sql, new_sql);
                        let old_tfp = r.template_fp;
                        r.derive(Some(stmt), Some(&engine.catalog));
                        Some((original, old_tfp, r.template_fp))
                    } else {
                        None
                    }
                };
                if let Some((original_sql, old_tfp, new_tfp)) = original {
                    // Popularity follows the query to its new template.
                    storage.retemplate(old_tfp, new_tfp);
                    storage.set_validity(id, Validity::Repaired { original_sql, at })?;
                    storage.reindex(id)?;
                    report.repaired.push(id);
                }
                // Still valid untouched: a benign change (e.g. ADD COLUMN).
            }
            Err(e) => {
                storage.set_validity(
                    id,
                    Validity::Flagged {
                        reason: e.to_string(),
                        at,
                    },
                )?;
                report.flagged.push(id);
            }
        }
    }
    Ok(report)
}

/// Outcome of one statistics-refresh epoch.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct RefreshReport {
    /// Tables whose statistics drifted beyond the threshold.
    pub drifted_tables: Vec<String>,
    /// Queries the naïve policy would re-execute (all touching any table).
    pub naive_rerun_count: usize,
    /// Queries actually re-executed under the drift-triggered policy.
    pub refreshed: Vec<QueryId>,
    /// Queries skipped due to the per-epoch budget.
    pub skipped_over_budget: usize,
}

/// Drift-triggered statistics refresh (§4.4). `baseline` carries the table
/// statistics captured at the previous epoch; it is updated in place.
pub fn refresh_statistics(
    storage: &mut QueryStorage,
    engine: &mut Engine,
    baseline: &mut HashMap<String, TableStats>,
    config: &CqmsConfig,
) -> Result<RefreshReport, CqmsError> {
    let mut report = RefreshReport::default();

    // 1. Which tables drifted?
    let mut drifted: Vec<String> = Vec::new();
    for name in engine.catalog.table_names() {
        let lower = name.to_ascii_lowercase();
        let current = engine.table_stats(&name)?;
        match baseline.get(&lower) {
            Some(prev) => {
                let d = prev.drift(&current);
                if d > config.refresh_drift_threshold {
                    drifted.push(lower.clone());
                }
            }
            None => {
                // First sighting: baseline it, no refresh needed.
            }
        }
        baseline.insert(lower, current);
    }
    report.drifted_tables = drifted.clone();

    // 2. Candidate queries: live, successful, touching a drifted table.
    let mut candidates: Vec<(u32, QueryId)> = Vec::new();
    for r in storage.iter() {
        if !r.is_live() || r.statement.is_none() {
            continue;
        }
        let touches_any = !r.features.tables.is_empty();
        if touches_any {
            report.naive_rerun_count += 1;
        }
        if r.features.tables.iter().any(|t| drifted.contains(t)) {
            candidates.push((storage.popularity(r.template_fp), r.id));
        }
    }
    // Popularity-first ("update the statistics more frequently for popular
    // or important queries").
    candidates.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));

    // 3. Re-execute under budget.
    for (i, (_, id)) in candidates.iter().enumerate() {
        if i >= config.refresh_budget {
            report.skipped_over_budget = candidates.len() - i;
            break;
        }
        let stmt = storage.get(*id)?.statement.clone().unwrap();
        if let Ok(res) = engine.execute_statement(&stmt) {
            {
                let r = storage.get_mut(*id)?;
                r.runtime.elapsed_us = res.metrics.elapsed.as_micros() as u64;
                r.runtime.cardinality = res.metrics.cardinality;
                r.runtime.rows_scanned = res.metrics.rows_scanned;
                r.runtime.plan = res.metrics.plan.clone();
                r.runtime.logical_time = res.metrics.logical_time;
            }
            // The drifted data also drifted the stored output: refresh
            // the summary through `refresh_summary` (→ reindex → the
            // registry schedules a background rebuild), never in place —
            // the signature's output row/cell hashes must follow it.
            let summary = match config.profiling_depth {
                ProfilingDepth::Full if !res.columns.is_empty() => {
                    crate::profiler::summarize_output(config, &res)
                }
                _ => OutputSummary::None,
            };
            if storage.get(*id)?.summary != summary {
                storage.refresh_summary(*id, summary)?;
            }
        }
        report.refreshed.push(*id);
    }
    Ok(report)
}

/// Recompute quality scores (§4.4: "quality can be defined in terms of query
/// efficiency, query simplicity, source tables' quality, etc.").
///
/// Components (weights in parentheses):
/// * success (0.35) — failed queries are poor recommendations;
/// * efficiency (0.2) — inverse latency percentile among live queries;
/// * simplicity (0.2) — smaller parse trees score higher;
/// * documentation (0.15) — annotated queries are worth more;
/// * freshness (0.1) — unflagged validity.
pub fn recompute_quality(storage: &mut QueryStorage) {
    let basis = latency_basis(storage);
    recompute_quality_with(storage, &basis);
}

/// The efficiency percentile's basis: sorted elapsed times of every
/// live, successful query in `storage`. A sharded deployment
/// concatenates (and re-sorts) the shards' bases and passes the merged
/// vector to [`recompute_quality_with`], so maintained quality is
/// placement-independent — each record lands on the same global
/// percentile a single instance would compute.
pub fn latency_basis(storage: &QueryStorage) -> Vec<u64> {
    let mut latencies: Vec<u64> = storage
        .iter()
        .filter(|r| r.is_live() && r.runtime.success)
        .map(|r| r.runtime.elapsed_us)
        .collect();
    latencies.sort_unstable();
    latencies
}

/// [`recompute_quality`] with an externally supplied (sorted) latency
/// basis — the corpus-wide statistic the efficiency term ranks against.
pub fn recompute_quality_with(storage: &mut QueryStorage, latencies: &[u64]) {
    let pct = |v: u64| -> f64 {
        if latencies.is_empty() {
            return 0.5;
        }
        let pos = latencies.partition_point(|&x| x <= v);
        pos as f64 / latencies.len() as f64
    };

    let ids: Vec<QueryId> = storage.iter().map(|r| r.id).collect();
    for id in ids {
        let r = storage.get_mut(id).unwrap();
        let success = if r.runtime.success { 1.0 } else { 0.0 };
        let efficiency = 1.0 - pct(r.runtime.elapsed_us);
        let size = r
            .statement
            .as_ref()
            .and_then(|s| s.as_select().map(sqlparse::diff::select_size))
            .unwrap_or(20);
        let simplicity = 1.0 / (1.0 + size as f64 / 10.0);
        let documented = if r.annotations.is_empty() { 0.0 } else { 1.0 };
        let fresh = match r.validity {
            Validity::Valid | Validity::Repaired { .. } => 1.0,
            _ => 0.0,
        };
        r.quality =
            0.35 * success + 0.2 * efficiency + 0.2 * simplicity + 0.15 * documented + 0.1 * fresh;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::storage::make_record;
    use workload::Domain;

    fn engine() -> Engine {
        let mut e = Engine::new();
        Domain::Lakes.setup(&mut e, 50, 1);
        e
    }

    fn log_query(storage: &mut QueryStorage, engine: &mut Engine, sql: &str) -> QueryId {
        let stmt = sqlparse::parse(sql).unwrap();
        let res = engine.execute_statement(&stmt).unwrap();
        let feats = extract(&stmt, Some(&engine.catalog));
        let id = QueryId(storage.len() as u64);
        storage.insert(make_record(
            id,
            UserId(1),
            100,
            sql,
            Some(stmt),
            feats,
            RuntimeFeatures {
                elapsed_us: res.metrics.elapsed.as_micros() as u64,
                cardinality: res.metrics.cardinality,
                rows_scanned: res.metrics.rows_scanned,
                plan: res.metrics.plan,
                logical_time: res.metrics.logical_time,
                success: true,
                error: None,
            },
            OutputSummary::None,
            SessionId(id.0),
            Visibility::Public,
        ));
        id
    }

    #[test]
    fn rename_column_is_repaired() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let id = log_query(
            &mut st,
            &mut en,
            "SELECT temp FROM WaterTemp WHERE temp < 18",
        );
        en.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
            .unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.affected, 1);
        assert_eq!(report.repaired, vec![id]);
        let r = st.get(id).unwrap();
        assert!(matches!(r.validity, Validity::Repaired { .. }));
        assert!(r.raw_sql.contains("temperature"), "{}", r.raw_sql);
        // Repaired query actually runs.
        assert!(en.execute(&r.raw_sql).is_ok());
        // The feature rows were rebuilt.
        let hits = crate::metaquery::MetaQueryExecutor::new(
            &st,
            &crate::admin::Directory::new(),
            &crate::config::CqmsConfig::default(),
        )
        .by_feature_sql(
            UserId(1),
            "SELECT qid FROM Attributes WHERE attrName = 'temperature'",
        )
        .unwrap();
        assert_eq!(hits.rows.len(), 1);
    }

    #[test]
    fn rename_table_is_repaired() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let id = log_query(&mut st, &mut en, "SELECT temp FROM WaterTemp");
        en.execute("ALTER TABLE WaterTemp RENAME TO LakeTemp")
            .unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.repaired, vec![id]);
        let r = st.get(id).unwrap();
        assert!(r.raw_sql.contains("LakeTemp"), "{}", r.raw_sql);
        assert!(en.execute(&r.raw_sql).is_ok());
        // Popularity followed the query to its new template.
        assert_eq!(st.popularity(r.template_fp), 1);
    }

    #[test]
    fn dropped_column_flags_query() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let id = log_query(&mut st, &mut en, "SELECT month FROM WaterTemp");
        en.execute("ALTER TABLE WaterTemp DROP COLUMN month")
            .unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.flagged, vec![id]);
        assert!(matches!(
            st.get(id).unwrap().validity,
            Validity::Flagged { .. }
        ));
    }

    #[test]
    fn dropped_table_obsoletes_query() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let id = log_query(&mut st, &mut en, "SELECT * FROM Lakes");
        en.execute("DROP TABLE Lakes").unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.obsolete, vec![id]);
        assert!(!st.get(id).unwrap().is_live());
    }

    #[test]
    fn unaffected_queries_untouched() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let id = log_query(&mut st, &mut en, "SELECT * FROM Lakes");
        // Change to an unrelated table.
        en.execute("ALTER TABLE WaterTemp RENAME COLUMN month TO mon")
            .unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.affected, 0);
        assert_eq!(st.get(id).unwrap().validity, Validity::Valid);
        // ADD COLUMN is benign for existing queries.
        en.execute("ALTER TABLE Lakes ADD COLUMN volume FLOAT")
            .unwrap();
        let report = scan_schema_changes(&mut st, &en).unwrap();
        assert_eq!(report.affected, 1);
        assert!(report.repaired.is_empty() && report.flagged.is_empty());
        assert_eq!(st.get(id).unwrap().validity, Validity::Valid);
    }

    #[test]
    fn drift_triggered_refresh_only_affected_tables() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let q_temp = log_query(&mut st, &mut en, "SELECT * FROM WaterTemp WHERE temp < 18");
        let _q_lakes = log_query(&mut st, &mut en, "SELECT * FROM Lakes");
        let cfg = CqmsConfig::default();
        let mut baseline = HashMap::new();
        // Epoch 0: establish baselines, nothing drifts.
        let r0 = refresh_statistics(&mut st, &mut en, &mut baseline, &cfg).unwrap();
        assert!(r0.drifted_tables.is_empty());
        assert!(r0.refreshed.is_empty());
        // Massive shift in WaterTemp only.
        en.execute("UPDATE WaterTemp SET temp = temp + 1000")
            .unwrap();
        let r1 = refresh_statistics(&mut st, &mut en, &mut baseline, &cfg).unwrap();
        assert_eq!(r1.drifted_tables, vec!["watertemp"]);
        assert_eq!(r1.refreshed, vec![q_temp]);
        assert!(r1.naive_rerun_count >= 2, "naive would rerun everything");
    }

    #[test]
    fn refresh_respects_budget() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        for i in 0..6 {
            log_query(
                &mut st,
                &mut en,
                &format!("SELECT * FROM WaterTemp WHERE temp < {}", 10 + i),
            );
        }
        let cfg = CqmsConfig {
            refresh_budget: 3,
            ..CqmsConfig::default()
        };
        let mut baseline = HashMap::new();
        refresh_statistics(&mut st, &mut en, &mut baseline, &cfg).unwrap();
        en.execute("UPDATE WaterTemp SET temp = temp * 100")
            .unwrap();
        let r = refresh_statistics(&mut st, &mut en, &mut baseline, &cfg).unwrap();
        assert_eq!(r.refreshed.len(), 3);
        assert_eq!(r.skipped_over_budget, 3);
    }

    #[test]
    fn quality_scoring_orders_sensibly() {
        let mut en = engine();
        let mut st = QueryStorage::new();
        let good = log_query(
            &mut st,
            &mut en,
            "SELECT temp FROM WaterTemp WHERE temp < 18",
        );
        st.annotate(
            good,
            Annotation {
                author: UserId(1),
                at: 1,
                text: "docs".into(),
                fragment: None,
            },
        )
        .unwrap();
        // A failed query.
        let bad_stmt = sqlparse::parse("SELECT * FROM NoTable").unwrap();
        let bad = QueryId(st.len() as u64);
        st.insert(make_record(
            bad,
            UserId(1),
            100,
            "SELECT * FROM NoTable",
            Some(bad_stmt),
            Default::default(),
            RuntimeFeatures {
                success: false,
                ..Default::default()
            },
            OutputSummary::None,
            SessionId(99),
            Visibility::Public,
        ));
        recompute_quality(&mut st);
        let qg = st.get(good).unwrap().quality;
        let qb = st.get(bad).unwrap().quality;
        assert!(qg > qb, "{qg} vs {qb}");
        assert!((0.0..=1.0).contains(&qg));
    }

    #[test]
    fn merged_latency_basis_reproduces_unsharded_quality() {
        // Two shards holding a striped partition of one corpus: quality
        // recomputed with the merged basis must equal the single-store
        // answer record for record, while each shard's *local* basis
        // ranks the same latencies differently.
        let timed = |id: u64, sql: &str, us: u64| {
            let stmt = sqlparse::parse(sql).unwrap();
            let feats = extract(&stmt, None);
            make_record(
                QueryId(id),
                UserId(1),
                100 + id,
                sql,
                Some(stmt),
                feats,
                RuntimeFeatures {
                    success: true,
                    elapsed_us: us,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(id),
                Visibility::Public,
            )
        };
        let specs = [
            ("SELECT * FROM WaterTemp WHERE temp < 18", 100),
            ("SELECT * FROM Lakes", 900),
            ("SELECT * FROM WaterSalinity", 250),
            ("SELECT * FROM CityLocations", 700),
            ("SELECT temp FROM WaterTemp", 400),
            ("SELECT lake FROM Lakes WHERE area > 10", 50),
        ];
        let mut whole = QueryStorage::new();
        let mut shards = [QueryStorage::new(), QueryStorage::new()];
        for (i, (sql, us)) in specs.iter().enumerate() {
            whole.insert(timed(i as u64, sql, *us));
            shards[i % 2].insert(timed((i / 2) as u64, sql, *us));
        }
        recompute_quality(&mut whole);
        let basis: Vec<u64> = {
            let mut b: Vec<u64> = shards.iter().flat_map(latency_basis).collect();
            b.sort_unstable();
            b
        };
        assert_eq!(basis, latency_basis(&whole));
        for st in &mut shards {
            recompute_quality_with(st, &basis);
        }
        for (i, _) in specs.iter().enumerate() {
            let global = whole.get(QueryId(i as u64)).unwrap().quality;
            let local = shards[i % 2].get(QueryId((i / 2) as u64)).unwrap().quality;
            assert_eq!(global.to_bits(), local.to_bits(), "record {i} diverged");
        }
        // The local basis really would have skewed the percentile.
        let mut skewed = shards[0].clone();
        let own = latency_basis(&skewed);
        recompute_quality_with(&mut skewed, &own);
        assert!(
            (0..3).any(|i| {
                skewed.get(QueryId(i)).unwrap().quality.to_bits()
                    != shards[0].get(QueryId(i)).unwrap().quality.to_bits()
            }),
            "local basis unexpectedly matched the merged one"
        );
    }
}
