//! Figure-exact integration tests: each conceptual figure of the paper is
//! reproduced behaviourally on the real stack.

use cqms::engine::metaquery::FIGURE1_META_QUERY;
use cqms::engine::model::*;
use cqms::engine::{Cqms, CqmsConfig};
use relstore::Engine;
use std::collections::HashMap;
use workload::querygen::figure2_session;
use workload::{Domain, Trace, TraceConfig};

fn lakes_cqms() -> (Cqms, UserId) {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 200, 7);
    let mut cqms = Cqms::new(engine, CqmsConfig::default());
    let user = cqms.register_user("nodira");
    (cqms, user)
}

/// Figure 1: "find all queries that correlate water salinity with water
/// temperature data" — the verbatim meta-query over the feature relations.
#[test]
fn figure1_meta_query_full_stack() {
    let (mut cqms, user) = lakes_cqms();
    // Log three queries; only the first correlates salinity with temp.
    let correlating = cqms
        .run_query(
            user,
            "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
             WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
        )
        .unwrap();
    cqms.run_query(user, "SELECT temp FROM WaterTemp WHERE temp < 18")
        .unwrap();
    cqms.run_query(user, "SELECT salinity FROM WaterSalinity")
        .unwrap();

    let result = cqms
        .capture_snapshot(0)
        .search_feature_sql(user, FIGURE1_META_QUERY)
        .unwrap();
    assert_eq!(result.rows.len(), 1, "{:?}", result.rows);
    assert_eq!(result.rows[0][0].as_i64().unwrap() as u64, correlating.id.0);
    // The qText column carries the original SQL.
    assert!(result.rows[0][1].render().contains("WaterSalinity"));
}

/// §2.2: the system auto-generates the Figure 1 meta-query from the paper's
/// partial query `SELECT FROM WaterSalinity, WaterTemperature`.
#[test]
fn figure1_auto_generation_from_partial_query() {
    let (mut cqms, user) = lakes_cqms();
    cqms.run_query(
        user,
        "SELECT * FROM WaterSalinity, WaterTemp WHERE WaterSalinity.loc_x = WaterTemp.loc_x",
    )
    .unwrap();
    cqms.run_query(user, "SELECT * FROM Lakes").unwrap();

    let meta_sql = cqms
        .capture_snapshot(0)
        .generate_feature_query("SELECT FROM WaterSalinity, WaterTemp")
        .unwrap();
    // Shape: Queries joined with DataSources per table.
    assert!(meta_sql.contains("Queries Q"));
    assert!(meta_sql.contains("DataSources"));
    assert!(meta_sql.contains("'watersalinity'"));
    let result = cqms
        .capture_snapshot(0)
        .search_feature_sql(user, &meta_sql)
        .unwrap();
    assert_eq!(result.rows.len(), 1);
}

/// Figure 2: the six-query session, its edge labels, and the rendered window.
#[test]
fn figure2_session_window_full_stack() {
    let (mut cqms, user) = lakes_cqms();
    // 02:30 through 02:35, one query per minute, exactly like the figure.
    for (i, sql) in figure2_session().iter().enumerate() {
        let out = cqms
            .run_query_at(user, sql, 2 * 3600 + 30 * 60 + 60 * i as u64)
            .unwrap();
        assert!(out.error.is_none(), "{sql}");
    }
    let session = cqms.storage.get(QueryId(0)).unwrap().session;
    // All six queries share the session.
    assert_eq!(cqms.storage.queries_in_session(session).len(), 6);

    let window = cqms
        .capture_snapshot(0)
        .render_session(user, session)
        .unwrap();
    // Time strip.
    assert!(window.contains("02:30 - 02:35"), "{window}");
    // The figure's signature edge labels.
    assert!(window.contains("+watersalinity"), "{window}");
    assert!(
        window.contains("'watertemp.temp < 22' \u{2192} 'watertemp.temp < 10'"),
        "{window}"
    );
    assert!(
        window.contains("'watertemp.temp < 10' \u{2192} 'watertemp.temp < 18'"),
        "{window}"
    );
    // Final edge adds CityLocations and the two loc predicates.
    assert!(window.contains("+citylocations"), "{window}");
    assert!(window.contains("loc_x"), "{window}");
}

/// Figure 3: completions while typing, plus the Similar Queries panel with
/// score / diff / annotation columns.
#[test]
fn figure3_assisted_interaction_full_stack() {
    let (mut cqms, user) = lakes_cqms();
    cqms.config.assoc_min_support = 3;
    // Build history: CityLocations popular overall, but WaterSalinity pairs
    // with WaterTemp (the §2.3 setup).
    for i in 0..8 {
        cqms.run_query(
            user,
            &format!("SELECT city FROM CityLocations WHERE pop > {i}"),
        )
        .unwrap();
    }
    for _ in 0..5 {
        cqms.run_query(
            user,
            "SELECT * FROM WaterSalinity S, WaterTemp T \
             WHERE S.loc_x = T.loc_x AND T.temp < 18",
        )
        .unwrap();
    }
    let annotated = cqms
        .run_query(
            user,
            "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L \
             WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
        )
        .unwrap();
    // Complex query → the profiler requests an annotation (§2.1).
    assert!(annotated.annotation_requested);
    cqms.annotate(
        user,
        annotated.id,
        "find temp and salinity of Seattle lakes",
        None,
    )
    .unwrap();

    // Completion: with WaterSalinity in FROM, WaterTemp beats CityLocations.
    let suggestions = cqms
        .capture_snapshot(0)
        .complete(user, "SELECT * FROM WaterSalinity, ", 3);
    assert_eq!(suggestions[0].text, "WaterTemp", "{suggestions:?}");

    // Panel: composing the figure's query surfaces the annotated join as the
    // top recommendation, with diff "none" for the exact-match template.
    let rows = cqms
        .capture_snapshot(0)
        .recommend(
            user,
            "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L \
             WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y",
            3,
        )
        .unwrap();
    assert_eq!(rows[0].diff, "none");
    assert!(rows[0].annotation.contains("Seattle lakes"));
    assert!(rows[0].score_pct > rows[2].score_pct);

    let panel = cqms::engine::viz::render_panel(&rows);
    assert!(panel.contains("Score"), "{panel}");
    assert!(panel.contains("%]"), "{panel}");

    // Hold-out completion on a generated log of every domain: replay the
    // first three quarters of the sessions, then type each later
    // multi-table FROM without its last table. The held-back table must
    // rank first at the domain's floor, and at least as often as the most
    // popular table not yet typed does.
    for (domain, floor) in [
        (Domain::Lakes, 0.7),
        (Domain::SkySurvey, 0.95),
        (Domain::WebLog, 0.95),
    ] {
        let trace = Trace::generate(
            TraceConfig::new(domain)
                .with_sessions(40)
                .with_users(4)
                .with_scale(150),
        );
        let cut = trace.queries.iter().map(|q| q.session).max().unwrap_or(0) * 3 / 4;
        let mut cqms = Cqms::new(trace.build_engine(), CqmsConfig::default());
        let user = cqms.register_user("u");
        let (logged, held_out): (Vec<_>, Vec<_>) =
            trace.queries.iter().partition(|q| q.session < cut);
        for q in logged {
            cqms.run_query_at(user, &q.sql, q.ts).unwrap();
        }
        let mut popularity: HashMap<&str, usize> = HashMap::new();
        for r in cqms.storage.iter_live() {
            for t in r.features.tables() {
                *popularity.entry(t).or_default() += 1;
            }
        }
        let snap = cqms.capture_snapshot(0);
        let (mut cases, mut hits, mut popular_hits) = (0usize, 0usize, 0usize);
        for q in held_out {
            let Ok(sqlparse::Statement::Select(select)) = sqlparse::parse(&q.sql) else {
                continue;
            };
            let tables: Vec<String> = select
                .from
                .iter()
                .map(|t| t.name.to_ascii_lowercase())
                .collect();
            let Some((target, typed)) = tables.split_last().filter(|(_, t)| !t.is_empty()) else {
                continue;
            };
            cases += 1;
            let partial = format!("SELECT * FROM {}, ", typed.join(", "));
            let first = snap.complete(user, &partial, 5).into_iter().next();
            hits += usize::from(first.is_some_and(|s| s.text.eq_ignore_ascii_case(target)));
            let most_popular = popularity
                .iter()
                .filter(|(t, _)| !typed.iter().any(|typed| typed == *t))
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)));
            popular_hits += usize::from(most_popular.is_some_and(|(t, _)| t == target));
        }
        let hit_rate = hits as f64 / cases.max(1) as f64;
        assert!(cases > 0, "{domain:?}: no held-out multi-table query");
        assert!(
            hit_rate >= floor && hits >= popular_hits,
            "{domain:?}: {hits} of {cases} held-back tables ranked first \
             (popularity alone: {popular_hits})"
        );
    }
}

/// §2.2 query-by-data on real output summaries: "all queries whose output
/// includes Lake Washington but not Lake Union … all matching queries
/// specify temp < 18".
#[test]
fn query_by_data_full_stack() {
    let (mut cqms, user) = lakes_cqms();
    // Force full output summaries for determinism.
    cqms.config.full_output_max_rows = 10_000;
    cqms.config.full_output_min_rows = 10_000;
    cqms.run_query(user, "SELECT DISTINCT lake FROM WaterTemp WHERE temp < 18")
        .unwrap();
    cqms.run_query(user, "SELECT DISTINCT lake FROM WaterTemp WHERE temp < 25")
        .unwrap();
    cqms.run_query(user, "SELECT DISTINCT lake FROM WaterTemp WHERE temp > 19")
        .unwrap();

    let hits = cqms
        .capture_snapshot(0)
        .search_by_data(user, &["Lake Washington"], &["Lake Union"]);
    assert!(!hits.is_empty());
    for id in &hits {
        let sql = &cqms.storage.get(*id).unwrap().raw_sql;
        assert!(sql.contains("temp < 18"), "unexpected match: {sql}");
    }
}

/// §4.1 adaptive output summarisation across the profiler, on the paper's
/// two anchor points (scaled to trace time).
#[test]
fn adaptive_summarisation_full_stack() {
    let (mut cqms, user) = lakes_cqms();
    cqms.config.full_output_min_rows = 5;
    cqms.config.full_output_rows_per_ms = 1.0;
    cqms.config.output_sample_size = 8;
    // Tiny result → stored fully regardless of speed.
    let small = cqms
        .run_query(user, "SELECT DISTINCT lake FROM WaterTemp")
        .unwrap();
    assert!(matches!(
        cqms.storage.get(small.id).unwrap().summary,
        OutputSummary::Full { .. }
    ));
    // Big result from a fast query → sampled.
    let big = cqms.run_query(user, "SELECT * FROM WaterTemp").unwrap();
    match &cqms.storage.get(big.id).unwrap().summary {
        OutputSummary::Sample {
            rows, total_rows, ..
        } => {
            assert_eq!(rows.len(), 8);
            assert_eq!(*total_rows, 200);
        }
        other => panic!("expected sample, got {other:?}"),
    }
}
