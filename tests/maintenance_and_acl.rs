//! Integration tests for the Administrative Interaction Mode (§2.4) and the
//! Query Maintenance component (§4.4) through the full server API, including
//! failure injection.

use cqms::engine::model::*;
use cqms::engine::{Cqms, CqmsConfig, CqmsError};
use relstore::Engine;
use workload::{Domain, Trace, TraceConfig};

fn lakes_cqms() -> Cqms {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 100, 11);
    Cqms::new(engine, CqmsConfig::default())
}

#[test]
fn group_isolation_spans_every_search_mode() {
    let mut c = lakes_cqms();
    let _admin = c.register_user("admin");
    let alice = c.register_user("alice");
    let eve = c.register_user("eve");
    let lab = c.create_group("lab");
    c.join_group(alice, lab).unwrap();

    let out = c
        .run_query(
            alice,
            "SELECT salinity FROM WaterSalinity WHERE salinity > 0.4",
        )
        .unwrap();
    let id = out.id;

    // Keyword, substring, tree, feature-SQL, by-data, knn: all empty for eve.
    let snap = c.capture_snapshot(0);
    assert!(snap.search_keyword(eve, "salinity", 10).is_empty());
    assert!(snap.search_substring(eve, "salinity > 0.4").is_empty());
    let tree = cqms::engine::metaquery::TreePattern {
        tables_all: vec!["watersalinity".into()],
        ..Default::default()
    };
    assert!(snap.search_parse_tree(eve, &tree).is_empty());
    let feat = snap
        .search_feature_sql(eve, "SELECT qid FROM Queries")
        .unwrap();
    assert!(feat.rows.is_empty());
    assert!(snap
        .similar_queries(
            eve,
            "SELECT salinity FROM WaterSalinity",
            5,
            cqms::engine::similarity::DistanceKind::Features
        )
        .unwrap()
        .is_empty());
    // Browsing discloses neither the query nor its session.
    let session = c.storage.get(id).unwrap().session;
    assert!(snap.render_session(eve, session).is_err());
    let summary = snap.render_log_summary(eve, 10);
    assert!(!summary.contains("SELECT salinity"), "{summary}");
    assert!(summary.contains("0 queries in 0 sessions"), "{summary}");
    // But alice sees her query everywhere.
    assert_eq!(snap.search_substring(alice, "salinity > 0.4"), vec![id]);
    assert!(snap
        .render_session(alice, session)
        .unwrap()
        .contains("salinity > 0.4"));
    assert!(snap
        .render_log_summary(alice, 10)
        .contains("SELECT salinity"));

    // Eve cannot tamper.
    assert!(matches!(
        c.set_visibility(eve, id, Visibility::Public),
        Err(CqmsError::NotAuthorized { .. })
    ));
    assert!(matches!(
        c.delete_query(eve, id),
        Err(CqmsError::NotAuthorized { .. })
    ));
    assert!(c.annotate(eve, id, "x", None).is_err());
}

#[test]
fn deletion_is_global_and_idempotent() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    let out = c.run_query(u, "SELECT * FROM Lakes").unwrap();
    c.delete_query(u, out.id).unwrap();
    assert!(c
        .capture_snapshot(0)
        .search_keyword(u, "lakes", 10)
        .is_empty());
    assert_eq!(c.storage.live_count(), 0);
    // Deleting again is fine (tombstone stays).
    c.delete_query(u, out.id).unwrap();
    // And the id still resolves for audit.
    assert_eq!(c.storage.get(out.id).unwrap().validity, Validity::Deleted);
    // Its text is gone from its session window.
    let next = c.run_query(u, "SELECT area FROM Lakes").unwrap();
    let session = c.storage.get(out.id).unwrap().session;
    assert_eq!(c.storage.get(next.id).unwrap().session, session);
    let window = c.capture_snapshot(0).render_session(u, session).unwrap();
    assert!(window.contains("SELECT area FROM Lakes"), "{window}");
    assert!(!window.contains("SELECT * FROM Lakes"), "{window}");
}

#[test]
fn chained_schema_evolution_repairs_transitively() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    let out = c
        .run_query(u, "SELECT temp FROM WaterTemp WHERE temp < 18")
        .unwrap();
    // Rename the column, then the table.
    c.data
        .execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
        .unwrap();
    c.data
        .execute("ALTER TABLE WaterTemp RENAME TO LakeTemperatures")
        .unwrap();
    let (schema, _) = c.run_maintenance().unwrap();
    assert_eq!(schema.repaired, vec![out.id]);
    let repaired = c.storage.get(out.id).unwrap().raw_sql.to_string();
    assert!(repaired.contains("LakeTemperatures"), "{repaired}");
    assert!(repaired.contains("temperature"), "{repaired}");
    // The repaired query executes.
    assert!(c.data.execute(&repaired).is_ok());
    // Original text preserved for audit.
    match &c.storage.get(out.id).unwrap().validity {
        Validity::Repaired { original_sql, .. } => {
            assert!(original_sql.contains("WaterTemp"));
        }
        other => panic!("{other:?}"),
    }

    // Each kind of schema change over a generated log: it affects logged
    // queries, renames repair some, and every repaired query executes.
    let trace = Trace::generate(
        TraceConfig::new(Domain::Lakes)
            .with_sessions(40)
            .with_users(4)
            .with_scale(100),
    );
    let changes: [(&[&str], bool); 5] = [
        (
            &["ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature"],
            true,
        ),
        (&["ALTER TABLE WaterSalinity RENAME TO Salinity"], true),
        (&["ALTER TABLE WaterTemp DROP COLUMN month"], false),
        (&["DROP TABLE Lakes"], false),
        (
            &[
                "ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature",
                "ALTER TABLE WaterTemp RENAME TO LakeTemps",
            ],
            true,
        ),
    ];
    for (ddls, renames) in changes {
        let mut c = Cqms::new(trace.build_engine(), CqmsConfig::default());
        let u = c.register_user("u");
        for q in &trace.queries {
            c.run_query_at(u, &q.sql, q.ts).unwrap();
        }
        for ddl in ddls {
            c.data.execute(ddl).unwrap();
        }
        let (schema, _) = c.run_maintenance().unwrap();
        assert!(schema.affected > 0, "{ddls:?} affected no logged query");
        assert_eq!(!schema.repaired.is_empty(), renames, "{ddls:?}: {schema:?}");
        for id in &schema.repaired {
            let sql = c.storage.get(*id).unwrap().raw_sql.to_string();
            assert!(c.data.execute(&sql).is_ok(), "{ddls:?} broke {sql}");
        }
    }
}

#[test]
fn obsolete_queries_leave_search_results() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    c.run_query(u, "SELECT * FROM Lakes WHERE area > 100")
        .unwrap();
    assert_eq!(
        c.capture_snapshot(0).search_keyword(u, "lakes", 10).len(),
        1
    );
    c.data.execute("DROP TABLE Lakes").unwrap();
    let (schema, _) = c.run_maintenance().unwrap();
    assert_eq!(schema.obsolete.len(), 1);
    // Obsolete queries no longer surface in recommendations or search.
    assert!(c
        .capture_snapshot(0)
        .similar_queries(
            u,
            "SELECT * FROM Lakes",
            5,
            cqms::engine::similarity::DistanceKind::Features
        )
        .unwrap()
        .is_empty());
}

#[test]
fn flagged_query_recovers_after_schema_restored() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    let out = c.run_query(u, "SELECT month FROM WaterTemp").unwrap();
    c.data
        .execute("ALTER TABLE WaterTemp DROP COLUMN month")
        .unwrap();
    let (schema, _) = c.run_maintenance().unwrap();
    assert_eq!(schema.flagged, vec![out.id]);
    // Admin restores the column; the next scan does not re-flag, and
    // re-execution works again.
    c.data
        .execute("ALTER TABLE WaterTemp ADD COLUMN month INT")
        .unwrap();
    let sql = c.storage.get(out.id).unwrap().raw_sql.to_string();
    assert!(c.data.execute(&sql).is_ok());
}

#[test]
fn failed_and_unparseable_queries_are_quarantined_but_logged() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    let bad = c.run_query(u, "SELECT * FROM NoSuchTable").unwrap();
    assert!(bad.error.is_some());
    let garbage = c.run_query(u, "SELEC FROM nonsense !!!").unwrap();
    assert!(garbage.result.is_none());
    let ok = c.run_query(u, "SELECT * FROM Lakes").unwrap();
    assert!(ok.error.is_none());
    assert_eq!(c.storage.len(), 3);
    // Failed queries don't crash mining or maintenance.
    c.run_miner_epoch();
    c.run_maintenance().unwrap();
    // Quality reflects failure.
    let qb = c.storage.get(bad.id).unwrap().quality;
    let qo = c.storage.get(ok.id).unwrap().quality;
    assert!(qo > qb);
}

#[test]
fn refresh_policy_beats_naive_on_cost() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    for i in 0..10 {
        c.run_query(
            u,
            &format!("SELECT * FROM WaterTemp WHERE temp < {}", 10 + i),
        )
        .unwrap();
        c.run_query(u, &format!("SELECT * FROM Lakes WHERE area > {}", 100 * i))
            .unwrap();
    }
    // Baseline epoch.
    c.run_maintenance().unwrap();
    // Drift only WaterTemp.
    c.data
        .execute("UPDATE WaterTemp SET temp = temp + 500")
        .unwrap();
    let (_, refresh) = c.run_maintenance().unwrap();
    assert_eq!(refresh.drifted_tables, vec!["watertemp"]);
    // Drift-triggered refresh re-ran only the WaterTemp queries.
    assert_eq!(refresh.refreshed.len(), 10);
    assert_eq!(refresh.naive_rerun_count, 20);
}

#[test]
fn empty_log_operations_are_safe() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    let snap = c.capture_snapshot(0);
    assert!(snap.search_keyword(u, "anything", 5).is_empty());
    assert!(snap.search_substring(u, "anything").is_empty());
    assert!(snap
        .recommend(u, "SELECT * FROM Lakes", 5)
        .unwrap()
        .is_empty());
    c.run_miner_epoch();
    assert!(c.capture_snapshot(0).association_rules(u).is_empty());
    let (schema, refresh) = c.run_maintenance().unwrap();
    assert_eq!(schema.examined, 0);
    assert!(refresh.refreshed.is_empty());
    // Completion falls back to the catalog.
    let sugg = c.capture_snapshot(0).complete(u, "SELECT * FROM ", 5);
    assert!(!sugg.is_empty());
}

/// Feature-SQL meta-queries are shown the feature relations *restricted
/// to what the viewer may see*: whatever the statement projects, aliases,
/// aggregates, joins or nests, a private query contributes nothing.
/// `run` is one deployment's `search_feature_sql`; the owner's answers
/// prove each probe would have shown the leak.
fn assert_feature_sql_hides_private(
    run: &dyn Fn(UserId, &str) -> relstore::QueryResult,
    owner: UserId,
    viewer: UserId,
) {
    const MARKER: &str = "3.14159";
    let cells = |user: UserId, sql: &str| -> Vec<String> {
        run(user, sql)
            .rows
            .iter()
            .flat_map(|row| row.iter().map(|v| v.render()))
            .collect()
    };
    // Probes whose output carries the private query's text or constant.
    for sql in [
        "SELECT qid, qText FROM Queries",
        "SELECT qText FROM Queries",
        "SELECT Q.qid AS id, Q.qText FROM Queries Q",
        "SELECT MAX(const) FROM Predicates WHERE attrName = 'temp'",
        "SELECT P.const FROM Queries Q, Predicates P WHERE Q.qid = P.qid",
        "SELECT P.const FROM Queries Q JOIN Predicates P ON Q.qid = P.qid",
        "SELECT Q.qText FROM Predicates P LEFT OUTER JOIN Queries Q ON P.qid = Q.qid",
        "SELECT P.const FROM QueryMeta M RIGHT OUTER JOIN Predicates P \
         ON M.qid = P.qid AND M.success = FALSE",
        "SELECT Q.qText, P.const FROM Queries Q FULL OUTER JOIN Predicates P \
         ON Q.qid = P.qid AND P.op = '='",
        "SELECT qText FROM Queries WHERE qid IN \
         (SELECT qid FROM Predicates WHERE attrName = 'temp')",
        "SELECT D.relName, (SELECT MAX(P.const) FROM Predicates P WHERE P.qid = D.qid) \
         FROM DataSources D",
    ] {
        let seen = cells(viewer, sql);
        assert!(
            !seen.iter().any(|c| c.contains(MARKER)),
            "{sql} leaked to the viewer: {seen:?}"
        );
        assert!(
            cells(owner, sql).iter().any(|c| c.contains(MARKER)),
            "{sql} does not show the marker even to its owner"
        );
    }
    // Probes that count: the owner counts one query more than the viewer
    // (sharded deployments answer one row per shard — sum them).
    for sql in [
        "SELECT COUNT(*) FROM Queries",
        "SELECT COUNT(*) FROM DataSources WHERE relName = 'watertemp'",
        "SELECT COUNT(DISTINCT A.qid) FROM Attributes A WHERE EXISTS \
         (SELECT 1 FROM Predicates P WHERE P.qid = A.qid AND P.attrName = 'temp')",
        "SELECT COUNT(DISTINCT M.qid) FROM QueryMeta M JOIN Queries Q ON M.qid = Q.qid",
    ] {
        let total = |user: UserId| -> i64 {
            cells(user, sql)
                .iter()
                .map(|c| c.parse::<i64>().unwrap())
                .sum()
        };
        assert_eq!(total(owner), total(viewer) + 1, "{sql}");
    }
}

const PRIVATE_SQL: &str = "SELECT lake FROM WaterTemp WHERE temp < 3.14159";
const PUBLIC_SQL: &str = "SELECT lake FROM WaterTemp WHERE temp < 20";

#[test]
fn private_queries_do_not_leak_through_feature_sql() {
    let mut c = lakes_cqms();
    let _admin = c.register_user("admin");
    let a = c.register_user("a");
    let b = c.register_user("b");
    let id = c.run_query(a, PRIVATE_SQL).unwrap().id;
    c.set_visibility(a, id, Visibility::Private).unwrap();
    c.run_query(b, PUBLIC_SQL).unwrap();
    // The other search modes already hide it.
    assert!(c
        .capture_snapshot(0)
        .search_substring(b, "3.14159")
        .is_empty());
    let snap = c.capture_snapshot(0);
    assert_feature_sql_hides_private(&|u, sql| snap.search_feature_sql(u, sql).unwrap(), a, b);
}

#[test]
fn private_queries_do_not_leak_through_a_service_or_across_shards() {
    use cqms::engine::{CqmsService, ShardedCqms};

    let svc = CqmsService::new(lakes_cqms());
    let _admin = svc.register_user("admin");
    let (a, b) = (svc.register_user("a"), svc.register_user("b"));
    let id = svc.run_query(a, PRIVATE_SQL).unwrap().id;
    svc.set_visibility(a, id, Visibility::Private).unwrap();
    svc.run_query(b, PUBLIC_SQL).unwrap();
    assert_feature_sql_hides_private(&|u, sql| svc.search_feature_sql(u, sql).unwrap(), a, b);

    let sharded = ShardedCqms::new(
        || {
            let mut engine = Engine::new();
            Domain::Lakes.setup(&mut engine, 100, 11);
            engine
        },
        CqmsConfig {
            shards: 3,
            ..CqmsConfig::default()
        },
    );
    let _admin = sharded.register_user("admin");
    let (a, b) = (sharded.register_user("a"), sharded.register_user("b"));
    let id = sharded.run_query(a, PRIVATE_SQL).unwrap().id;
    sharded.set_visibility(a, id, Visibility::Private).unwrap();
    sharded.run_query(b, PUBLIC_SQL).unwrap();
    assert_feature_sql_hides_private(&|u, sql| sharded.search_feature_sql(u, sql).unwrap(), a, b);
}

/// Repair's popular constants come from every shard's log: a 2-shard
/// deployment whose only history sits on shard 1 suggests what one shard
/// holding the same history does.
#[test]
fn sharded_repair_uses_every_shards_log() {
    use cqms::engine::ShardedCqms;

    let deploy = |shards| {
        ShardedCqms::new(
            || {
                let mut engine = Engine::new();
                Domain::Lakes.setup(&mut engine, 100, 11);
                engine
            },
            CqmsConfig {
                shards,
                ..CqmsConfig::default()
            },
        )
    };
    let (two, one) = (deploy(2), deploy(1));
    let mut on_shard_1 = Vec::new();
    for i in 0..8 {
        let name = format!("u{i}");
        let user = two.register_user(&name);
        assert_eq!(one.register_user(&name), user);
        if two.shard_of(user) == 1 && on_shard_1.len() < 2 {
            on_shard_1.push(user);
        }
    }
    assert_eq!(on_shard_1.len(), 2);
    for deployment in [&two, &one] {
        for &user in &on_shard_1 {
            for _ in 0..3 {
                deployment
                    .run_query(user, "SELECT * FROM WaterTemp WHERE temp < 12")
                    .unwrap();
            }
        }
    }
    let repair =
        |d: &ShardedCqms| d.repair_empty_result("SELECT * FROM WaterTemp WHERE temp < -900", 5);
    let single = repair(&one);
    assert!(
        single.iter().any(|s| s.description.contains("temp < 12")),
        "{single:?}"
    );
    assert_eq!(repair(&two), single);
}

/// The tutorial is a scoped read: its query count, its template
/// popularity, its exemplars and its edit-pattern section come from what
/// the reader may see.
#[test]
fn private_queries_do_not_leak_through_the_tutorial() {
    let mut c = lakes_cqms();
    let _admin = c.register_user("admin");
    let alice = c.register_user("alice");
    let bob = c.register_user("bob");
    for sql in [
        "SELECT city FROM CityLocations WHERE pop > 123457",
        "SELECT city FROM CityLocations WHERE pop > 123458",
    ] {
        let id = c.run_query(alice, sql).unwrap().id;
        c.set_visibility(alice, id, Visibility::Private).unwrap();
    }
    c.run_query(bob, "SELECT city FROM CityLocations WHERE pop > 5")
        .unwrap();

    let bobs = c.tutorial(bob, 3);
    assert!(!bobs.contains("12345"), "{bobs}");
    assert!(bobs.contains("Derived from 1 logged queries"), "{bobs}");
    assert!(bobs.contains("used by 1 logged queries"), "{bobs}");
    assert!(!bobs.contains("How analyses typically evolve"), "{bobs}");

    let alices = c.tutorial(alice, 3);
    assert!(alices.contains("pop > 123457"), "{alices}");
    assert!(alices.contains("Derived from 3 logged queries"), "{alices}");
    assert!(alices.contains("used by 3 logged queries"), "{alices}");
    assert!(alices.contains("change_constant"), "{alices}");
}

/// Every item of every rule, for asserting what a rule set names.
fn rule_items(rules: &[cqms::engine::miner::assoc::AssocRule]) -> Vec<&str> {
    (rules.iter())
        .flat_map(|r| r.antecedent.iter().chain([&r.consequent]))
        .map(String::as_str)
        .collect()
}

/// Mined rules are a scoped read: a private query's items reach only the
/// readers who may see it, in one CQMS and across shards.
#[test]
fn private_queries_do_not_leak_through_rules() {
    use cqms::engine::ShardedCqms;

    let sharded = ShardedCqms::new(
        || {
            let mut engine = Engine::new();
            Domain::Lakes.setup(&mut engine, 100, 11);
            engine
        },
        CqmsConfig {
            shards: 2,
            ..CqmsConfig::default()
        },
    );
    let mut c = lakes_cqms();
    let [_admin, alice, bob] = ["admin", "alice", "bob"].map(|name| {
        let user = c.register_user(name);
        assert_eq!(sharded.register_user(name), user);
        user
    });
    for i in 0..6 {
        let private = format!(
            "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < {i}"
        );
        let public = format!("SELECT city FROM CityLocations WHERE pop > {i}");
        let id = c.run_query(alice, &private).unwrap().id;
        c.set_visibility(alice, id, Visibility::Private).unwrap();
        c.run_query(bob, &public).unwrap();
        let id = sharded.run_query(alice, &private).unwrap().id;
        sharded
            .set_visibility(alice, id, Visibility::Private)
            .unwrap();
        sharded.run_query(bob, &public).unwrap();
    }
    c.run_miner_epoch();
    sharded.run_miner_epoch();
    let snap = c.capture_snapshot(0);
    for rules in [snap.association_rules(bob), sharded.association_rules(bob)] {
        let items = rule_items(&rules);
        assert!(items.contains(&"table:citylocations"), "{rules:?}");
        assert!(!items.iter().any(|i| i.contains("water")), "{rules:?}");
    }
    for rules in [
        snap.association_rules(alice),
        sharded.association_rules(alice),
    ] {
        assert!(rule_items(&rules).contains(&"table:watertemp"), "{rules:?}");
    }
}

/// A rename repaired by maintenance rewrites logged queries without
/// changing how many there are; the rules follow the rewrite.
#[test]
fn rules_follow_a_maintenance_rewrite() {
    let mut c = lakes_cqms();
    let u = c.register_user("u");
    for i in 0..6 {
        c.run_query(
            u,
            &format!(
                "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < {i}"
            ),
        )
        .unwrap();
    }
    c.run_miner_epoch();
    let rules = c.capture_snapshot(0).association_rules(u);
    assert!(rule_items(&rules).contains(&"table:watertemp"), "{rules:?}");

    let counts = (c.storage.len(), c.storage.live_count());
    c.data
        .execute("ALTER TABLE WaterTemp RENAME TO LakeTemperatures")
        .unwrap();
    let (schema, _) = c.run_maintenance().unwrap();
    assert_eq!(schema.repaired.len(), 6, "{schema:?}");
    assert_eq!((c.storage.len(), c.storage.live_count()), counts);
    c.run_miner_epoch();
    let rules = c.capture_snapshot(0).association_rules(u);
    let items = rule_items(&rules);
    assert!(items.contains(&"table:laketemperatures"), "{rules:?}");
    assert!(!items.contains(&"table:watertemp"), "{rules:?}");
}
