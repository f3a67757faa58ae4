//! End-to-end integration: full generated traces replayed through the CQMS
//! across all three domains, exercising every Figure 4 component together.

use cqms::engine::model::{QueryId, UserId};
use cqms::engine::similarity::DistanceKind;
use cqms::engine::{Cqms, CqmsConfig};
use workload::{Domain, Trace, TraceConfig};

fn replay(domain: Domain, sessions: u32) -> (Cqms, Trace, Vec<UserId>) {
    replay_with(domain, sessions, CqmsConfig::default())
}

fn replay_with(domain: Domain, sessions: u32, config: CqmsConfig) -> (Cqms, Trace, Vec<UserId>) {
    let trace = Trace::generate(
        TraceConfig::new(domain)
            .with_sessions(sessions)
            .with_users(4)
            .with_scale(150),
    );
    let engine = trace.build_engine();
    let mut cqms = Cqms::new(engine, config);
    let users: Vec<UserId> = (0..4)
        .map(|i| cqms.register_user(&format!("user-{i}")))
        .collect();
    for q in &trace.queries {
        let user = users[q.user as usize % users.len()];
        let out = cqms
            .run_query_at(user, &q.sql, q.ts)
            .expect("profiling never hard-fails");
        assert!(
            out.error.is_none(),
            "generated query failed: {}\n{:?}",
            q.sql,
            out.error
        );
    }
    (cqms, trace, users)
}

#[test]
fn all_domains_replay_cleanly() {
    for domain in Domain::all() {
        let (cqms, trace, _) = replay(domain, 10);
        assert_eq!(cqms.storage.live_count(), trace.queries.len());
        // Every record carries runtime features.
        for r in cqms.storage.iter_live() {
            assert!(r.runtime.success);
            assert!(!r.runtime.plan.is_empty());
        }
    }
}

/// The sessions stored as each query was logged, across idle gaps,
/// against the trace's planted sessions; and the rule re-applied to the
/// stored log (`segment_log`) reproduces them.
#[test]
fn online_sessions_approximate_ground_truth() {
    use cqms::engine::miner::sessions::{segment_log, segmentation_quality};
    // (gap seconds, boundary F1 floor, pairwise F1 floor).
    for (gap, boundary_f1, pairwise_f1) in [(120, 0.85, 0.9), (600, 0.95, 0.95), (1800, 0.95, 0.95)]
    {
        let config = CqmsConfig {
            session_idle_gap_secs: gap,
            ..CqmsConfig::default()
        };
        let (cqms, trace, users) = replay_with(Domain::Lakes, 25, config.clone());
        // Build the per-user orderings and truth map.
        let mut order: std::collections::HashMap<UserId, Vec<QueryId>> = Default::default();
        let mut truth: std::collections::HashMap<QueryId, u64> = Default::default();
        for (i, q) in trace.queries.iter().enumerate() {
            let id = QueryId(i as u64);
            let user = users[q.user as usize % users.len()];
            order.entry(user).or_default().push(id);
            truth.insert(id, q.session as u64);
        }
        let order: Vec<(UserId, Vec<QueryId>)> = order.into_iter().collect();
        let stored: std::collections::HashMap<QueryId, cqms::engine::model::SessionId> =
            cqms.storage.iter().map(|r| (r.id, r.session)).collect();
        let q = segmentation_quality(&order, &truth, &stored);
        assert!(
            q.boundary_f1 >= boundary_f1 && q.pairwise_f1 >= pairwise_f1,
            "stored sessions at a {gap} s gap: {q:?}"
        );
        assert_eq!(segment_log(&cqms.storage, &config), stored, "{gap} s gap");
    }
}

#[test]
fn miner_rediscovers_planted_rules() {
    for domain in Domain::all() {
        let (cqms, trace, users) = replay(domain, 40);
        let rules = cqms.capture_snapshot(0).association_rules(users[0]);
        for planted in &trace.rules {
            let rule = rules.iter().find(|r| {
                r.antecedent == vec![planted.antecedent.clone()]
                    && r.consequent == planted.consequent
            });
            let Some(rule) = rule else {
                panic!(
                    "{domain:?}: planted rule {} => {} not mined",
                    planted.antecedent, planted.consequent
                );
            };
            // Mined confidence should be near the planted probability.
            assert!(
                (rule.confidence - planted.probability).abs() < 0.25,
                "{domain:?}: confidence {} far from planted {}",
                rule.confidence,
                planted.probability
            );
        }
    }
}

#[test]
fn clustering_recovers_topics() {
    // Per log size in sessions: (k, purity floor, ARI floor). Lakes plants
    // three topics; they intentionally share tables (CityLocations appears
    // in two topics, WaterTemp in two), which bounds achievable purity
    // below 1, and k = 2 must merge two of them.
    let grid = [
        (30, &[(3, 0.7, 0.3)][..]),
        (60, &[(2, 0.8, 0.65), (3, 0.95, 0.95), (5, 0.95, 0.9)]),
        (200, &[(2, 0.7, 0.5), (3, 0.95, 0.95), (5, 0.95, 0.85)]),
    ];
    for (sessions, ks) in grid {
        let (cqms, trace, users) = replay(Domain::Lakes, sessions);
        let snap = cqms.capture_snapshot(0);
        for &(k, purity_floor, ari_floor) in ks {
            let (ids, clustering) = snap.cluster_queries(users[0], k);
            assert_eq!(ids.len(), cqms.storage.live_count());
            let truth: Vec<u64> = ids
                .iter()
                .map(|id| trace.queries[id.0 as usize].topic as u64)
                .collect();
            let purity = cqms::engine::miner::cluster::purity(&clustering.assignment, &truth);
            let ari =
                cqms::engine::miner::cluster::adjusted_rand_index(&clustering.assignment, &truth);
            let at = format!("{} queries, k = {k}", ids.len());
            assert!(
                purity > purity_floor,
                "{at}: cluster purity too low: {purity}"
            );
            assert!(ari > ari_floor, "{at}: ARI too low: {ari}");
        }
    }
}

#[test]
fn search_modes_agree_on_an_easy_target() {
    let (cqms, _, users) = replay(Domain::Lakes, 20);
    let u = users[0];
    // Find queries mentioning WaterSalinity through four different paths.
    let kw: std::collections::HashSet<u64> = cqms
        .capture_snapshot(0)
        .search_keyword(u, "watersalinity", 500)
        .into_iter()
        .map(|h| h.id.0)
        .collect();
    let sub: std::collections::HashSet<u64> = cqms
        .capture_snapshot(0)
        .search_substring(u, "WaterSalinity")
        .into_iter()
        .map(|id| id.0)
        .collect();
    let tree: std::collections::HashSet<u64> = cqms
        .capture_snapshot(0)
        .search_parse_tree(
            u,
            &cqms::engine::metaquery::TreePattern {
                tables_all: vec!["watersalinity".into()],
                ..Default::default()
            },
        )
        .into_iter()
        .map(|id| id.0)
        .collect();
    let feat: std::collections::HashSet<u64> = cqms
        .capture_snapshot(0)
        .search_feature_sql(
            u,
            "SELECT qid FROM DataSources WHERE relName = 'WaterSalinity'",
        )
        .unwrap()
        .rows
        .iter()
        .map(|r| r[0].as_i64().unwrap() as u64)
        .collect();
    assert!(!tree.is_empty());
    // Tree and feature search are definitionally identical.
    assert_eq!(tree, feat);
    // Substring finds at least those (plus possible textual mentions).
    assert!(tree.is_subset(&sub));
    // Keyword search (tokenised) covers them too.
    assert!(tree.is_subset(&kw));
}

#[test]
fn knn_metrics_all_return_and_agree_on_self_similarity() {
    let (cqms, trace, users) = replay(Domain::Lakes, 15);
    let u = users[0];
    let probe = &trace.queries[0].sql;
    for metric in [
        DistanceKind::Features,
        DistanceKind::ParseTree,
        DistanceKind::Output,
        DistanceKind::Combined,
    ] {
        let hits = cqms
            .capture_snapshot(0)
            .similar_queries(u, probe, 5, metric)
            .unwrap();
        assert!(!hits.is_empty(), "{metric:?} returned nothing");
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score, "{metric:?} not sorted");
        }
    }
    // The identical SQL is a perfect feature/tree match.
    let hits = cqms
        .capture_snapshot(0)
        .similar_queries(u, probe, 1, DistanceKind::ParseTree)
        .unwrap();
    assert!(hits[0].score > 0.999, "{}", hits[0].score);
}

#[test]
fn recommendation_panel_well_formed_across_domains() {
    for domain in Domain::all() {
        let (cqms, trace, users) = replay(domain, 12);
        let seed_sql = &trace.queries[trace.queries.len() / 2].sql;
        let rows = cqms
            .capture_snapshot(0)
            .recommend(users[0], seed_sql, 5)
            .unwrap();
        assert!(!rows.is_empty(), "{domain:?}: no recommendations");
        for w in rows.windows(2) {
            assert!(w[0].score_pct >= w[1].score_pct);
        }
        for r in &rows {
            assert!(r.score_pct <= 100);
            assert!(!r.sql.is_empty());
            assert!(!r.diff.is_empty());
        }
    }
}

#[test]
fn snapshot_roundtrip_preserves_search() {
    let (cqms, _, _) = replay(Domain::WebLog, 10);
    let mut buf = Vec::new();
    cqms.storage.snapshot(&mut buf).unwrap();
    let restored = cqms::engine::storage::QueryStorage::load(&buf[..]).unwrap();
    assert_eq!(restored.len(), cqms.storage.len());
    // Text search works identically on the restored storage.
    let before = cqms.storage.trigram_index().search("PageViews");
    let after = restored.trigram_index().search("PageViews");
    assert_eq!(before, after);
}

#[test]
fn tutorial_generated_for_every_domain() {
    for domain in Domain::all() {
        let (mut cqms, _, users) = replay(domain, 8);
        cqms.run_miner_epoch();
        let text = cqms.tutorial(users[0], 2);
        assert!(text.contains("# Dataset tutorial"));
        for topic in domain.topics() {
            for table in topic.tables.iter().take(1) {
                assert!(
                    text.contains(&format!("`{table}`")),
                    "{domain:?} tutorial missing {table}"
                );
            }
        }
    }
}
