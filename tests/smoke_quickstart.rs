//! Workspace smoke test: the `examples/quickstart.rs` path as a regular
//! `#[test]` — build an engine, log queries through the profiler, then
//! exercise each interaction mode once, including a Figure 1 meta-query.
//! CI runs this on every push; the example itself is only compiled.

use cqms::engine::metaquery::FIGURE1_META_QUERY;
use cqms::engine::model::QueryId;
use cqms::engine::similarity::DistanceKind;
use cqms::engine::{Cqms, CqmsConfig};
use relstore::Engine;
use workload::Domain;

#[test]
fn quickstart_path_end_to_end() {
    // 1. Underlying DBMS with the paper's "lakes" schema.
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 300, 42);

    // 2. CQMS on top, with thresholds low enough for a short demo log.
    let config = CqmsConfig {
        assoc_min_support: 2,
        ..CqmsConfig::default()
    };
    let mut cqms = Cqms::new(engine, config);
    let alice = cqms.register_user("alice");

    // 3. Traditional mode: every statement executes and is logged.
    let demo_queries = [
        "SELECT lake, temp FROM WaterTemp WHERE temp < 22",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
         WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
         WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 15",
        "SELECT city FROM CityLocations WHERE pop > 100000",
    ];
    for sql in demo_queries {
        let out = cqms.run_query(alice, sql).expect("query should run");
        assert!(out.result.is_some(), "execution failed for {sql}");
    }
    assert_eq!(cqms.storage.live_count(), demo_queries.len());

    cqms.annotate(
        alice,
        QueryId(2),
        "correlate salinity with temperature across Seattle lakes",
        None,
    )
    .unwrap();

    // 4. Search & browse mode: the annotated join queries are findable.
    let hits = cqms
        .capture_snapshot(0)
        .search_keyword(alice, "salinity", 5);
    assert!(!hits.is_empty(), "keyword search found nothing");

    // The Figure 1 meta-query runs over the feature relations.
    let meta = cqms
        .capture_snapshot(0)
        .search_feature_sql(alice, FIGURE1_META_QUERY)
        .unwrap();
    assert!(
        !meta.columns.is_empty(),
        "meta-query returned no result shape"
    );

    // Session rendering (Figure 2 style) produces a non-empty window.
    let session = cqms.storage.get(QueryId(0)).unwrap().session;
    assert!(!cqms
        .capture_snapshot(0)
        .render_session(alice, session)
        .unwrap()
        .is_empty());

    // 5. Assisted mode: completion respects context, recommendations render.
    let suggestions = cqms
        .capture_snapshot(0)
        .complete(alice, "SELECT * FROM WaterSalinity, ", 3);
    assert!(suggestions.len() <= 3);
    let panel = cqms
        .capture_snapshot(0)
        .render_recommendations(alice, "SELECT temp FROM WaterTemp WHERE temp < 20", 3)
        .unwrap();
    assert!(!panel.is_empty());

    // 6. Background components run to completion; rules are a read.
    cqms.run_miner_epoch();
    assert!(
        !cqms.capture_snapshot(0).association_rules(alice).is_empty(),
        "miner produced no rules"
    );
    cqms.run_maintenance().unwrap();
    let (ids, clustering) = cqms.capture_snapshot(0).cluster_queries(alice, 2);
    assert_eq!(ids.len(), demo_queries.len());
    assert_eq!(
        clustering.medoids.len(),
        2,
        "clustering read produced no clusters"
    );

    // 7. kNN similarity meta-query returns ranked neighbours.
    let near = cqms
        .capture_snapshot(0)
        .similar_queries(
            alice,
            "SELECT lake FROM WaterTemp WHERE temp < 15",
            2,
            DistanceKind::Combined,
        )
        .unwrap();
    assert!(!near.is_empty(), "no similar queries found");
    for pair in near.windows(2) {
        assert!(pair[0].score >= pair[1].score, "kNN scores not ranked");
    }
}
