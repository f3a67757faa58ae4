//! The Query Profiler (Figure 4, §4.1).
//!
//! Sits in front of the DBMS on the Traditional Interaction path: it forwards
//! each SQL statement to the engine, then logs the query — raw text,
//! extracted features, runtime statistics, an adaptive output summary — into
//! the Query Storage. It also assigns queries to sessions *online* (gap +
//! similarity heuristic) and fires the §2.1 annotation-request trigger for
//! hard-to-reuse queries.

use crate::config::{CqmsConfig, ProfilingDepth};
use crate::error::CqmsError;
use crate::features::{self, SyntacticFeatures};
use crate::model::*;
use crate::storage::{make_record, QueryStorage};
use relstore::stats::Reservoir;
use relstore::{Engine, QueryResult, Value};

/// Outcome of profiling one statement.
#[derive(Debug)]
pub struct ProfiledQuery {
    /// Id assigned to the logged record.
    pub id: QueryId,
    /// The engine result (present when execution succeeded).
    pub result: Option<QueryResult>,
    /// The engine error (present when execution failed; the query is logged
    /// either way — failed attempts matter to the correction engine, §2.3).
    pub error: Option<relstore::EngineError>,
    /// §2.1: the CQMS "occasionally even requests query annotations … for
    /// queries that are difficult to re-use without proper documentation".
    pub annotation_requested: bool,
    /// True when this query started a new session.
    pub new_session: bool,
}

/// The profiler. Stateless: each user's session cursor is the user's
/// latest record in the Query Storage, so it survives restarts and follows
/// the miner's session renumbering; storage and engine are passed per call
/// so the server can coordinate borrows.
#[derive(Default)]
pub struct Profiler;

impl Profiler {
    /// A profiler.
    pub fn new() -> Self {
        Profiler
    }

    /// Profile and execute one statement on behalf of `user` at trace time
    /// `ts` (seconds). This is the Traditional Interaction entry point.
    // The argument list mirrors the paper's Figure 4 wiring (config, storage,
    // engine, plus the per-query inputs); bundling them into a context struct
    // would add indirection for the single `Cqms::run_query_at` caller.
    #[allow(clippy::too_many_arguments)]
    pub fn profile(
        &mut self,
        config: &CqmsConfig,
        storage: &mut QueryStorage,
        engine: &mut Engine,
        user: UserId,
        visibility: Visibility,
        sql: &str,
        ts: u64,
    ) -> Result<ProfiledQuery, CqmsError> {
        let id = QueryId(storage.len() as u64);

        // 1. Parse. A parse failure is still logged (success = false).
        let statement = sqlparse::parse(sql).ok();

        // 2. Execute through the DBMS.
        let (result, error, runtime) = match &statement {
            Some(stmt) => match engine.execute_statement(stmt) {
                Ok(r) => {
                    let rt = RuntimeFeatures {
                        elapsed_us: r.metrics.elapsed.as_micros() as u64,
                        cardinality: r.metrics.cardinality,
                        rows_scanned: r.metrics.rows_scanned,
                        plan: r.metrics.plan.clone(),
                        logical_time: r.metrics.logical_time,
                        success: true,
                        error: None,
                    };
                    (Some(r), None, rt)
                }
                Err(e) => (
                    None,
                    Some(e.clone()),
                    RuntimeFeatures {
                        logical_time: engine.catalog.now(),
                        success: false,
                        error: Some(e.to_string()),
                        ..Default::default()
                    },
                ),
            },
            None => (
                None,
                None,
                RuntimeFeatures {
                    logical_time: engine.catalog.now(),
                    success: false,
                    error: Some("parse error".to_string()),
                    ..Default::default()
                },
            ),
        };

        // 3. Feature extraction (depth ≥ Features).
        let feats = match (&statement, config.profiling_depth) {
            (Some(stmt), ProfilingDepth::Features | ProfilingDepth::Full) => {
                features::extract(stmt, Some(&engine.catalog))
            }
            _ => SyntacticFeatures::default(),
        };

        // 4. Adaptive output summarisation (§4.1, depth = Full).
        let summary = match (&result, config.profiling_depth) {
            (Some(r), ProfilingDepth::Full) if !r.columns.is_empty() => summarize_output(config, r),
            _ => OutputSummary::None,
        };

        // 5. Online session assignment.
        let (session, new_session, prev) = self.assign_session(config, storage, user, ts, &feats);

        // 6. Annotation-request trigger (§2.1).
        let annotation_requested = feats.tables.len() >= config.annotate_table_threshold
            || (config.annotate_on_subquery && feats.has_subquery);

        // 7. Log the record + session edge.
        let record = make_record(
            id, user, ts, sql, statement, feats, runtime, summary, session, visibility,
        );
        storage.insert(record);
        if let Some(prev_id) = prev {
            if let Some(edits) = storage.statement_edits(prev_id, id) {
                storage.add_edge(SessionEdge {
                    from: prev_id,
                    to: id,
                    kind: EdgeKind::Evolution,
                    edits,
                });
            }
        }

        Ok(ProfiledQuery {
            id,
            result,
            error,
            annotation_requested,
            new_session,
        })
    }

    /// Online session heuristic: continue the session of the user's latest
    /// logged query when the idle gap is small; beyond the gap, only a
    /// strong feature overlap (same analysis resumed) keeps it alive.
    fn assign_session(
        &self,
        config: &CqmsConfig,
        storage: &mut QueryStorage,
        user: UserId,
        ts: u64,
        feats: &SyntacticFeatures,
    ) -> (SessionId, bool, Option<QueryId>) {
        let continued = storage.latest_of(user).and_then(|prev| {
            let gap = ts.checked_sub(prev.ts)?;
            // Gap exceeded: check similarity against the previous query
            // before breaking the session.
            let resumed = gap <= config.session_idle_gap_secs
                || (gap <= 3 * config.session_idle_gap_secs
                    && table_overlap(&prev.features, feats)
                        >= 1.0 - config.session_similarity_threshold);
            resumed.then_some((prev.session, prev.id))
        });
        match continued {
            Some((session, prev)) => (session, false, Some(prev)),
            None => (storage.new_session(), true, None),
        }
    }
}

/// Table-set Jaccard similarity between two feature sets.
fn table_overlap(a: &SyntacticFeatures, b: &SyntacticFeatures) -> f64 {
    use std::collections::HashSet;
    let sa: HashSet<&String> = a.tables.iter().collect();
    let sb: HashSet<&String> = b.tables.iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = (sa.len() + sb.len()) as f64 - inter;
    inter / union
}

/// §4.1's adaptive rule: store the full output when it is small relative to
/// how expensive the query was; otherwise store a deterministic reservoir
/// sample. Shared with the maintenance statistics refresh, whose summary
/// updates flow through `QueryStorage::refresh_summary`.
pub(crate) fn summarize_output(config: &CqmsConfig, r: &QueryResult) -> OutputSummary {
    let budget = config.full_output_budget(r.metrics.elapsed.as_micros() as u64);
    let columns = r.columns.clone();
    if (r.rows.len() as u64) <= budget {
        OutputSummary::Full {
            columns,
            rows: r
                .rows
                .iter()
                .map(|row| row.iter().map(Value::render).collect())
                .collect(),
        }
    } else {
        // Reservoir-sample row *indices* to avoid cloning the whole result
        // (the overhead matters: this path runs on every large query).
        let mut res = Reservoir::new(config.output_sample_size, config.seed);
        for i in 0..r.rows.len() {
            res.offer(vec![Value::Int(i as i64)]);
        }
        OutputSummary::Sample {
            columns,
            rows: res
                .into_items()
                .iter()
                .map(|idx| {
                    let i = idx[0].as_i64().unwrap() as usize;
                    r.rows[i].iter().map(Value::render).collect()
                })
                .collect(),
            total_rows: r.rows.len() as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Domain;

    fn setup() -> (CqmsConfig, QueryStorage, Engine, Profiler) {
        let mut engine = Engine::new();
        Domain::Lakes.setup(&mut engine, 100, 3);
        (
            CqmsConfig::default(),
            QueryStorage::new(),
            engine,
            Profiler::new(),
        )
    }

    #[test]
    fn profiles_successful_query() {
        let (cfg, mut st, mut en, mut p) = setup();
        let out = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
                100,
            )
            .unwrap();
        assert!(out.result.is_some());
        assert!(out.new_session);
        let rec = st.get(out.id).unwrap();
        assert!(rec.runtime.success);
        assert!(rec.runtime.cardinality > 0);
        assert!(!rec.runtime.plan.is_empty());
        assert!(rec.features.tables.contains(&"watertemp".to_string()));
        assert!(matches!(
            rec.summary,
            OutputSummary::Full { .. } | OutputSummary::Sample { .. }
        ));
    }

    #[test]
    fn failed_queries_are_still_logged() {
        let (cfg, mut st, mut en, mut p) = setup();
        let out = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM NoSuchTable",
                100,
            )
            .unwrap();
        assert!(out.result.is_none());
        assert!(out.error.is_some());
        let rec = st.get(out.id).unwrap();
        assert!(!rec.runtime.success);
        // Unparseable text also logs.
        let out = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELEC nonsense",
                110,
            )
            .unwrap();
        let rec = st.get(out.id).unwrap();
        assert!(rec.statement.is_none());
        assert_eq!(st.len(), 2);
    }

    #[test]
    fn sessions_follow_gaps() {
        let (cfg, mut st, mut en, mut p) = setup();
        let q = "SELECT * FROM WaterTemp WHERE temp < 18";
        let a = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                q,
                100,
            )
            .unwrap();
        let b = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                q,
                200,
            )
            .unwrap();
        // Large gap + different tables → new session.
        let c = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM CityLocations",
                200 + 10 * cfg.session_idle_gap_secs,
            )
            .unwrap();
        let sa = st.get(a.id).unwrap().session;
        let sb = st.get(b.id).unwrap().session;
        let sc = st.get(c.id).unwrap().session;
        assert_eq!(sa, sb);
        assert_ne!(sa, sc);
        assert!(!b.new_session);
        assert!(c.new_session);
    }

    #[test]
    fn moderate_gap_same_tables_continues_session() {
        let (cfg, mut st, mut en, mut p) = setup();
        let a = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp WHERE temp < 18",
                100,
            )
            .unwrap();
        // Gap between 1× and 3× the idle threshold, identical table set.
        let b = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp WHERE temp < 12",
                100 + 2 * cfg.session_idle_gap_secs,
            )
            .unwrap();
        assert_eq!(st.get(a.id).unwrap().session, st.get(b.id).unwrap().session);
    }

    #[test]
    fn users_have_independent_sessions() {
        let (cfg, mut st, mut en, mut p) = setup();
        let q = "SELECT * FROM WaterTemp";
        let a = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                q,
                100,
            )
            .unwrap();
        let b = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(2),
                Visibility::Public,
                q,
                101,
            )
            .unwrap();
        assert_ne!(st.get(a.id).unwrap().session, st.get(b.id).unwrap().session);
    }

    #[test]
    fn session_edges_carry_fig2_edits() {
        let (cfg, mut st, mut en, mut p) = setup();
        p.profile(
            &cfg,
            &mut st,
            &mut en,
            UserId(1),
            Visibility::Public,
            "SELECT * FROM WaterTemp WHERE temp < 22",
            100,
        )
        .unwrap();
        p.profile(
            &cfg,
            &mut st,
            &mut en,
            UserId(1),
            Visibility::Public,
            "SELECT * FROM WaterTemp WHERE temp < 18",
            150,
        )
        .unwrap();
        let edges = st.edges();
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].edits.len(), 1);
        let label = edges[0].edits[0].label();
        assert!(label.contains("22") && label.contains("18"), "{label}");
    }

    #[test]
    fn annotation_trigger_follows_config() {
        let (cfg, mut st, mut en, mut p) = setup();
        let simple = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp",
                100,
            )
            .unwrap();
        assert!(!simple.annotation_requested);
        let three_tables = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L \
                 WHERE S.loc_x = T.loc_x AND T.loc_x = L.loc_x",
                110,
            )
            .unwrap();
        assert!(three_tables.annotation_requested);
        let nested = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp WHERE lake IN (SELECT lake FROM Lakes)",
                120,
            )
            .unwrap();
        assert!(nested.annotation_requested);
    }

    #[test]
    fn output_summary_is_adaptive() {
        let (mut cfg, mut st, mut en, mut p) = setup();
        cfg.full_output_min_rows = 5;
        cfg.full_output_rows_per_ms = 0.0; // force the row-count rule
        cfg.output_sample_size = 4;
        // Small output → Full.
        let small = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT DISTINCT lake FROM WaterTemp",
                100,
            )
            .unwrap();
        assert!(matches!(
            st.get(small.id).unwrap().summary,
            OutputSummary::Full { .. }
        ));
        // Large output (100 rows > 5) → Sample of 4.
        let large = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp",
                110,
            )
            .unwrap();
        match &st.get(large.id).unwrap().summary {
            OutputSummary::Sample {
                rows, total_rows, ..
            } => {
                assert_eq!(rows.len(), 4);
                assert_eq!(*total_rows, 100);
            }
            other => panic!("expected sample, got {other:?}"),
        }
    }

    #[test]
    fn text_only_depth_skips_features_and_summary() {
        let (mut cfg, mut st, mut en, mut p) = setup();
        cfg.profiling_depth = ProfilingDepth::Text;
        let out = p
            .profile(
                &cfg,
                &mut st,
                &mut en,
                UserId(1),
                Visibility::Public,
                "SELECT * FROM WaterTemp WHERE temp < 18",
                100,
            )
            .unwrap();
        let rec = st.get(out.id).unwrap();
        assert!(rec.features.tables.is_empty());
        assert_eq!(rec.summary, OutputSummary::None);
        // Raw text search still works.
        assert!(!st.trigram_index().search("temp < 18").is_empty());
    }
}
