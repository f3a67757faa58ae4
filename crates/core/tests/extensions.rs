//! Tests for the extension features: session clustering (§4.3),
//! investigation edges (§4.1) and the exact tree-edit distance metric.

use cqms_core::model::*;
use cqms_core::similarity::DistanceKind;
use cqms_core::{Cqms, CqmsConfig};
use relstore::Engine;
use workload::Domain;

fn lakes_cqms() -> (Cqms, UserId) {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 100, 21);
    let mut c = Cqms::new(engine, CqmsConfig::default());
    let u = c.register_user("u");
    (c, u)
}

#[test]
fn session_clustering_groups_topical_sessions() {
    let (mut c, u) = lakes_cqms();
    // Three sessions about temperatures, three about city geography,
    // separated by large time gaps.
    let mut ts = 0u64;
    for s in 0..6 {
        ts += 10_000;
        let sqls: Vec<String> = if s % 2 == 0 {
            (0..3)
                .map(|i| format!("SELECT * FROM WaterTemp WHERE temp < {}", 10 + i))
                .collect()
        } else {
            (0..3)
                .map(|i| format!("SELECT city FROM CityLocations WHERE pop > {}", 1000 * i))
                .collect()
        };
        for sql in sqls {
            ts += 30;
            c.run_query_at(u, &sql, ts).unwrap();
        }
    }
    assert_eq!(c.storage.session_ids().len(), 6);
    let (sessions, clustering) = c.capture_snapshot(0).cluster_sessions(u, 2);
    assert_eq!(sessions.len(), 6);
    // Sessions 0,2,4 (temps) must share a cluster; 1,3,5 (cities) the other.
    let label = |i: usize| clustering.assignment[i];
    assert_eq!(label(0), label(2));
    assert_eq!(label(2), label(4));
    assert_eq!(label(1), label(3));
    assert_eq!(label(3), label(5));
    assert_ne!(label(0), label(1));
}

#[test]
fn investigation_edges_recorded_and_rendered() {
    let (mut c, u) = lakes_cqms();
    let first = c
        .run_query_at(u, "SELECT lake, temp FROM WaterTemp WHERE temp < 18", 100)
        .unwrap();
    let second = c
        .run_query_at(
            u,
            "SELECT * FROM WaterTemp WHERE lake = 'Lake Washington'",
            160,
        )
        .unwrap();
    c.mark_investigation(u, first.id, second.id).unwrap();
    let kinds: Vec<EdgeKind> = c.storage.edges().iter().map(|e| e.kind).collect();
    assert!(kinds.contains(&EdgeKind::Investigation));
    assert!(kinds.contains(&EdgeKind::Evolution));
    let session = c.storage.get(first.id).unwrap().session;
    let window = c.capture_snapshot(0).render_session(u, session).unwrap();
    assert!(window.contains("(investigates q0)"), "{window}");
}

#[test]
fn investigation_requires_visibility() {
    let (mut c, _u) = lakes_cqms();
    let alice = c.register_user("alice");
    let eve = c.register_user("eve");
    let a = c.run_query(alice, "SELECT * FROM Lakes").unwrap();
    c.set_visibility(alice, a.id, Visibility::Private).unwrap();
    let b = c.run_query(eve, "SELECT * FROM CityLocations").unwrap();
    assert!(c.mark_investigation(eve, a.id, b.id).is_err());
    assert!(c.mark_investigation(alice, a.id, a.id).is_ok());
}

#[test]
fn tree_edit_metric_in_knn() {
    let (mut c, u) = lakes_cqms();
    c.run_query(u, "SELECT * FROM WaterTemp WHERE temp < 18")
        .unwrap();
    c.run_query(u, "SELECT * FROM WaterTemp WHERE temp < 22")
        .unwrap();
    c.run_query(u, "SELECT city, COUNT(*) FROM CityLocations GROUP BY city")
        .unwrap();
    let hits = c
        .capture_snapshot(0)
        .similar_queries(
            u,
            "SELECT * FROM WaterTemp WHERE temp < 99",
            3,
            DistanceKind::TreeEdit,
        )
        .unwrap();
    // The two constant-variant queries are perfect template matches.
    assert!(hits[0].score > 0.999);
    assert!(hits[1].score > 0.999);
    assert!(hits[2].score < 0.9);
}

#[test]
fn tree_edit_and_diff_metrics_agree_on_ordering() {
    let (mut c, u) = lakes_cqms();
    c.run_query(u, "SELECT * FROM WaterTemp WHERE temp < 20")
        .unwrap();
    c.run_query(
        u,
        "SELECT lake FROM WaterTemp, Lakes WHERE WaterTemp.lake = Lakes.lake",
    )
    .unwrap();
    c.run_query(u, "SELECT city FROM CityLocations").unwrap();
    let probe = "SELECT * FROM WaterTemp WHERE temp < 5";
    let cheap = c
        .capture_snapshot(0)
        .similar_queries(u, probe, 3, DistanceKind::ParseTree)
        .unwrap();
    let exact = c
        .capture_snapshot(0)
        .similar_queries(u, probe, 3, DistanceKind::TreeEdit)
        .unwrap();
    // Both rank the constant-variant first and the unrelated query last.
    assert_eq!(cheap[0].id, exact[0].id);
    assert_eq!(cheap[2].id, exact[2].id);
}
