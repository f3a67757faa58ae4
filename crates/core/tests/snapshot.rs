//! PR 10 acceptance: lock-free [`ReadSnapshot`] correctness.
//!
//! * `snapshot_reads_match_live_state` — a freshly cloned snapshot's
//!   keyword / substring / feature-SQL / kNN / completion / recommendation
//!   / query-clustering answers are
//!   bit-identical to the quiesced store's lock-retained oracle at every
//!   checkpoint of a generated workload, and a snapshot *held across*
//!   further churn (ingests, tombstones, ACL flips, index rebuilds, miner
//!   epochs) keeps returning exactly its capture-time answers.
//! * `pinned_readers_survive_three_generations` — reader threads pinned to
//!   one old snapshot keep getting byte-stable answers while the write
//!   path publishes three index-rebuild generations under them.
//! * `publish_points_bump_one_epoch` — every write-path publish point
//!   (write, rebuild publish, miner epoch, `try_replace` promotion) bumps
//!   the snapshot epoch so readers can never observe mixed
//!   promoted-index/stale-popularity state.

use cqms_core::assist::completion::{CatalogView, CompletionEngine};
use cqms_core::assist::recommend::recommend_panel;
use cqms_core::metaquery::{MetaQueryExecutor, ScoredHit};
use cqms_core::miner::cluster::{kmedoids, ClusteringResult};
use cqms_core::model::{GroupId, OutputSummary, QueryId, SessionId, UserId, Visibility};
use cqms_core::similarity::{self, DistanceKind};
use cqms_core::storage::make_record;
use cqms_core::{Cqms, CqmsConfig, CqmsService, ShardedCqms};
use proptest::prelude::*;
use relstore::Engine;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::Duration;
use workload::Domain;

const USERS: u32 = 3;
const KEYWORD_PROBE: &str = "watertemp temp salinity lakes month";
const KNN_PROBE: &str = "SELECT * FROM WaterTemp WHERE temp < 18";
/// A TreeEdit probe whose `zz`/`nowhere`/`qq` labels the store never
/// interned: they take the probe signature's sentinel ids.
const UNSEEN_TREE_PROBE: &str = "SELECT zz FROM nowhere WHERE qq > 1";
const COMPLETE_PROBE: &str = "SELECT * FROM WaterTemp, ";
const SEED_SQL: &str = "SELECT * FROM WaterTemp WHERE temp < 18";
/// The Figure 1 meta-query as generated for the paper's partial query
/// `SELECT FROM WaterSalinity, WaterTemp`, and a count over one relation.
const FEATURE_JOIN: &str = "SELECT Q.qid, Q.qText FROM Queries Q, DataSources D1, DataSources D2 \
     WHERE Q.qid = D1.qid AND D1.relName = 'WaterSalinity' \
     AND Q.qid = D2.qid AND D2.relName = 'WaterTemp' ORDER BY Q.qid";
const FEATURE_COUNT: &str = "SELECT COUNT(*) FROM DataSources";

fn engine() -> Engine {
    let mut e = Engine::new();
    Domain::Lakes.setup(&mut e, 30, 3);
    e
}

fn service() -> (CqmsService, Vec<UserId>) {
    let config = CqmsConfig {
        wal_fsync: false,
        // Low enough that a 24-op trace mines table rules for completion.
        assoc_min_support: 2,
        ..CqmsConfig::default()
    };
    let svc = CqmsService::new(Cqms::new(engine(), config));
    let users = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();
    (svc, users)
}

/// One step of the generated workload.
#[derive(Debug, Clone)]
enum Op {
    Run { user: u32, sql: String },
    Delete { nth: usize },
    Hide { nth: usize, vis: Visibility },
    Rebuild,
    Maintain,
    MinerEpoch,
}

fn sql_strategy() -> impl Strategy<Value = String> {
    let table = prop_oneof![
        Just("WaterTemp"),
        Just("WaterSalinity"),
        Just("CityLocations"),
        Just("Lakes"),
        // Joins give table-context completion co-occurrences to count.
        Just("WaterSalinity, WaterTemp"),
        Just("WaterTemp, Lakes"),
    ];
    let col = prop_oneof![
        Just("temp"),
        Just("salinity"),
        Just("pop"),
        Just("area"),
        Just("month"),
    ];
    let op = prop_oneof![Just("<"), Just(">"), Just("="), Just("<=")];
    (table, proptest::option::of((col, op, -50i64..50))).prop_map(|(t, pred)| {
        let mut sql = format!("SELECT * FROM {t}");
        if let Some((c, o, k)) = pred {
            sql.push_str(&format!(" WHERE {c} {o} {k}"));
        }
        sql
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..USERS, sql_strategy()).prop_map(|(user, sql)| Op::Run { user, sql }),
        2 => (0usize..64).prop_map(|nth| Op::Delete { nth }),
        2 => (
            0usize..64,
            prop_oneof![
                Just(Visibility::Public),
                Just(Visibility::Private),
                (0u32..2).prop_map(|g| Visibility::Group(GroupId(g))),
            ]
        )
            .prop_map(|(nth, vis)| Op::Hide { nth, vis }),
        1 => Just(Op::Rebuild),
        1 => Just(Op::Maintain),
        1 => Just(Op::MinerEpoch),
    ]
}

fn apply(
    svc: &CqmsService,
    users: &[UserId],
    issued: &mut Vec<(UserId, QueryId)>,
    op: &Op,
    ts: u64,
) {
    match op {
        Op::Run { user, sql } => {
            let out = svc
                .run_query_at(users[*user as usize], sql, ts)
                .expect("profiling never hard-fails");
            issued.push((users[*user as usize], out.id));
        }
        Op::Delete { nth } if !issued.is_empty() => {
            let (owner, id) = issued[nth % issued.len()];
            let _ = svc.delete_query(owner, id);
        }
        Op::Hide { nth, vis } if !issued.is_empty() => {
            let (owner, id) = issued[nth % issued.len()];
            let _ = svc.set_visibility(owner, id, *vis);
        }
        Op::Rebuild => {
            svc.write(|c| c.storage.schedule_index_rebuild());
            svc.rebuild_indexes();
        }
        Op::Maintain => {
            svc.run_maintenance().expect("maintenance");
        }
        Op::MinerEpoch => {
            let report = svc.run_miner_epoch();
            assert!(report.wal_flush_error.is_none());
        }
        _ => {}
    }
}

/// Everything one snapshot answers for one viewer, byte-comparable.
#[derive(Debug, Clone, PartialEq)]
struct Answers {
    live: usize,
    now: u64,
    generation: u64,
    keyword: Vec<(QueryId, u64)>,
    substring: Vec<QueryId>,
    /// The [`FEATURE_JOIN`] rows, then the [`FEATURE_COUNT`] row.
    feature_sql: Vec<Vec<String>>,
    knn: Vec<(QueryId, u64)>,
    /// TreeEdit kNN of [`UNSEEN_TREE_PROBE`]; the oracle is the
    /// record-based [`similarity::tree_edit_distance`] over every shown
    /// record.
    unseen_tree_knn: Vec<(QueryId, u64)>,
    complete: Vec<(String, u64, String)>,
    recommend: Vec<(u8, String, String, String)>,
    /// `cluster_queries(viewer, 2)`: ids, assignment, medoids, cost bits.
    clusters: (Vec<QueryId>, Vec<usize>, Vec<usize>, u64),
}

fn clusters(ids: Vec<QueryId>, c: ClusteringResult) -> (Vec<QueryId>, Vec<usize>, Vec<usize>, u64) {
    (ids, c.assignment, c.medoids, c.cost.to_bits())
}

fn bits(hits: Vec<ScoredHit>) -> Vec<(QueryId, u64)> {
    hits.into_iter()
        .map(|h| (h.id, h.score.to_bits()))
        .collect()
}

fn snapshot_answers(snap: &cqms_core::ReadSnapshot, viewer: UserId) -> Answers {
    Answers {
        live: snap.live_count(),
        now: snap.now(),
        generation: snap.index_generation(),
        keyword: bits(snap.search_keyword(viewer, KEYWORD_PROBE, 64)),
        substring: snap.search_substring(viewer, "WaterTemp"),
        feature_sql: [FEATURE_JOIN, FEATURE_COUNT]
            .iter()
            .flat_map(|sql| snap.search_feature_sql(viewer, sql).expect("runs").rows)
            .map(|row| row.iter().map(relstore::Value::render).collect())
            .collect(),
        knn: bits(
            snap.similar_queries(viewer, KNN_PROBE, 64, DistanceKind::Combined)
                .expect("probe parses"),
        ),
        unseen_tree_knn: bits(
            snap.similar_queries(viewer, UNSEEN_TREE_PROBE, 64, DistanceKind::TreeEdit)
                .expect("probe parses"),
        ),
        complete: snap
            .complete(viewer, COMPLETE_PROBE, 8)
            .into_iter()
            .map(|s| (s.text, s.score.to_bits(), s.why))
            .collect(),
        recommend: snap
            .recommend(viewer, SEED_SQL, 5)
            .expect("seed parses")
            .into_iter()
            .map(|r| (r.score_pct, r.sql, r.diff, r.annotation))
            .collect(),
        clusters: {
            let (ids, clustering) = snap.cluster_queries(viewer, 2);
            clusters(ids, clustering)
        },
    }
}

/// The same answers computed under the service's read lock, straight off
/// the **live, un-cloned** `c.storage` through the engine-level entry
/// points the snapshot methods are built from — the oracle a fresh
/// snapshot (a COW clone) must match exactly while the store is quiesced.
/// Going through `capture_snapshot` here would compare a clone with a
/// clone. The feature-SQL answers come from a plain scan of the records,
/// not from SQL; the clustering from a matrix of record-based feature
/// distances, with no signature and no bloom screen.
fn live_answers(svc: &CqmsService, viewer: UserId) -> Answers {
    svc.read(|c| {
        let mq = MetaQueryExecutor::new(&c.storage, &c.directory, &c.config);
        let catalog = CatalogView::of(&c.data);
        let completion = CompletionEngine::new(&c.storage, &c.config, &catalog);
        let shown: Vec<_> = (c.storage.iter())
            .filter(|r| r.is_live() && c.directory.can_see(viewer, r))
            .collect();
        let reads = |r: &cqms_core::model::QueryRecord, table: &str| {
            r.features.tables.iter().any(|t| t == table)
        };
        let mut feature_sql: Vec<Vec<String>> = shown
            .iter()
            .filter(|r| reads(r, "watersalinity") && reads(r, "watertemp"))
            .map(|r| vec![r.id.0.to_string(), r.raw_sql.clone()])
            .collect();
        let sources: usize = shown.iter().map(|r| r.features.tables.len()).sum();
        feature_sql.push(vec![sources.to_string()]);
        let dist: Vec<Vec<f64>> = (shown.iter())
            .map(|a| {
                (shown.iter())
                    .map(|b| similarity::feature_distance(a, b, &c.config))
                    .collect()
            })
            .collect();
        let clustering = kmedoids(&dist, 2, c.config.cluster_max_iters, c.config.seed);
        let unseen = make_record(
            QueryId(u64::MAX),
            viewer,
            0,
            UNSEEN_TREE_PROBE,
            sqlparse::parse(UNSEEN_TREE_PROBE).ok(),
            Default::default(),
            Default::default(),
            OutputSummary::None,
            SessionId(u64::MAX),
            Visibility::Private,
        );
        let mut unseen_tree_knn: Vec<ScoredHit> = (shown.iter())
            .map(|r| ScoredHit {
                id: r.id,
                score: 1.0 - similarity::tree_edit_distance(&unseen, r),
            })
            .collect();
        unseen_tree_knn.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.id.cmp(&b.id)));
        unseen_tree_knn.truncate(64);
        Answers {
            live: c.storage.live_count(),
            now: c.now(),
            generation: c.storage.index_generation(),
            keyword: bits(mq.keyword(viewer, KEYWORD_PROBE, 64)),
            substring: mq.substring(viewer, "WaterTemp"),
            feature_sql,
            knn: bits(
                mq.knn_sql(viewer, KNN_PROBE, 64, DistanceKind::Combined)
                    .expect("probe parses"),
            ),
            unseen_tree_knn: bits(unseen_tree_knn),
            complete: completion
                .suggest_with_stats(COMPLETE_PROBE, 8, &completion.collect_stats(COMPLETE_PROBE))
                .into_iter()
                .map(|s| (s.text, s.score.to_bits(), s.why))
                .collect(),
            recommend: recommend_panel(&c.storage, &c.directory, &c.config, viewer, SEED_SQL, 5)
                .expect("seed parses")
                .into_iter()
                .map(|r| (r.score_pct, r.sql, r.diff, r.annotation))
                .collect(),
            clusters: clusters(shown.iter().map(|r| r.id).collect(), clustering),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant: a just-cloned snapshot equals the quiesced
    /// live store bit for bit, and a snapshot held across arbitrary
    /// further churn — tombstones, ACL flips, rebuild races, miner
    /// epochs — keeps answering exactly as it did at capture.
    #[test]
    fn snapshot_reads_match_live_state(
        before in proptest::collection::vec(op_strategy(), 1..24),
        after in proptest::collection::vec(op_strategy(), 1..24),
    ) {
        let (svc, users) = service();
        let mut issued = Vec::new();
        for (i, op) in before.iter().enumerate() {
            apply(&svc, &users, &mut issued, op, 1_000 + i as u64 * 60);
        }

        // Freshly published snapshot == quiesced live oracle, per viewer.
        let snap = svc.snapshot();
        let mut pinned = Vec::new();
        for &viewer in &users {
            let got = snapshot_answers(&snap, viewer);
            let want = live_answers(&svc, viewer);
            prop_assert_eq!(&got, &want, "fresh snapshot diverged for viewer {}", viewer);
            pinned.push(got);
        }
        let epoch0 = snap.epoch();

        // Churn underneath the held snapshot.
        for (i, op) in after.iter().enumerate() {
            apply(&svc, &users, &mut issued, op, 100_000 + i as u64 * 60);
        }

        // The held snapshot is frozen at capture time...
        for (&viewer, want) in users.iter().zip(&pinned) {
            let again = snapshot_answers(&snap, viewer);
            prop_assert_eq!(&again, want, "held snapshot drifted for viewer {}", viewer);
        }
        prop_assert_eq!(snap.epoch(), epoch0);

        // ...while a re-clone sees the new state exactly.
        let fresh = svc.snapshot();
        prop_assert!(fresh.epoch() > epoch0, "churn published no snapshot");
        for &viewer in &users {
            prop_assert_eq!(
                snapshot_answers(&fresh, viewer),
                live_answers(&svc, viewer),
                "re-cloned snapshot diverged for viewer {}", viewer
            );
        }
    }
}

/// Readers pinned to one old snapshot stay byte-stable while the write
/// path publishes three index-rebuild generations (plus writer churn and
/// miner epochs) underneath them.
#[test]
fn pinned_readers_survive_three_generations() {
    let (svc, users) = service();
    for i in 0..40u64 {
        svc.run_query_at(
            users[(i % USERS as u64) as usize],
            &format!("SELECT * FROM WaterTemp WHERE temp < {}", i % 25),
            1_000 + i * 60,
        )
        .expect("seed write");
    }

    let pinned = svc.snapshot();
    let baseline: Vec<Answers> = users
        .iter()
        .map(|&u| snapshot_answers(&pinned, u))
        .collect();
    let gen0 = pinned.index_generation();
    let epoch0 = pinned.epoch();

    let stop = Arc::new(AtomicBool::new(false));
    let readers: Vec<_> = users
        .iter()
        .enumerate()
        .map(|(r, &viewer)| {
            let snap = Arc::clone(&pinned);
            let want = baseline[r].clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut iterations = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    assert_eq!(
                        snapshot_answers(&snap, viewer),
                        want,
                        "pinned reader {r} saw the snapshot change"
                    );
                    iterations += 1;
                }
                iterations
            })
        })
        .collect();

    // Three full generations under the pinned readers.
    let mut last_epoch = epoch0;
    for gen in 0..3u64 {
        for i in 0..20u64 {
            let ts = 200_000 + gen * 10_000 + i * 60;
            svc.run_query_at(
                users[(i % USERS as u64) as usize],
                &format!("SELECT * FROM WaterSalinity WHERE salinity < {}", i % 25),
                ts,
            )
            .expect("churn write");
        }
        svc.write(|c| c.storage.schedule_index_rebuild());
        assert!(svc.rebuild_indexes(), "generation {gen} did not publish");
        svc.run_miner_epoch();
        let now = svc.snapshot();
        assert!(
            now.epoch() > last_epoch,
            "generation {gen} published no snapshot epoch"
        );
        assert_eq!(now.index_generation(), gen0 + gen + 1);
        last_epoch = now.epoch();
    }

    stop.store(true, Ordering::Relaxed);
    for r in readers {
        let iterations = r.join().expect("pinned reader panicked");
        assert!(iterations > 0, "reader never completed a pass");
    }

    // The pinned snapshot still serves generation gen0, untouched.
    assert_eq!(pinned.index_generation(), gen0);
    assert_eq!(pinned.epoch(), epoch0);
    for (r, &viewer) in users.iter().enumerate() {
        assert_eq!(
            snapshot_answers(&pinned, viewer),
            baseline[r],
            "pinned snapshot drifted after the stress"
        );
    }
}

/// Every write-path publish point bumps exactly one snapshot epoch, and
/// `try_replace` swaps the whole view in one bump — a reader either keeps
/// the full pre-promotion snapshot or clones the full post-promotion one,
/// never a mix of the two.
#[test]
fn publish_points_bump_one_epoch() {
    let (svc, users) = service();
    let u = users[0];

    let e0 = svc.snapshot().epoch();
    svc.run_query_at(u, "SELECT * FROM WaterTemp WHERE temp < 10", 1_000)
        .expect("write");
    let e1 = svc.snapshot().epoch();
    assert_eq!(e1, e0 + 1, "one write, one epoch");

    svc.write(|c| c.storage.schedule_index_rebuild());
    let e2 = svc.snapshot().epoch();
    svc.rebuild_indexes();
    let e3 = svc.snapshot().epoch();
    assert_eq!(e3, e2 + 1, "one rebuild publish, one epoch");

    svc.run_miner_epoch();
    let e4 = svc.snapshot().epoch();
    assert_eq!(e4, e3 + 1, "one miner epoch, one epoch");

    // try_replace: the old snapshot stays coherent, the new slot serves
    // the replacement's indexes AND popularity in the same epoch.
    let old = svc.snapshot();
    let old_live = old.live_count();
    let replacement = {
        let config = CqmsConfig {
            wal_fsync: false,
            ..CqmsConfig::default()
        };
        let mut c = Cqms::new(engine(), config);
        let ru = c.register_user("user-0");
        for i in 0..5u64 {
            c.run_query_at(ru, "SELECT * FROM Lakes", 5_000 + i * 60)
                .expect("replacement write");
        }
        c
    };
    let replaced = svc.try_replace(replacement);
    assert!(replaced.is_ok(), "uncontended replace");
    let promoted = svc.snapshot();
    assert_eq!(promoted.epoch(), e4 + 1, "one promotion, one epoch");
    assert_eq!(
        promoted.live_count(),
        5,
        "promoted view serves the replacement"
    );
    assert!(
        !promoted.template_histogram().is_empty(),
        "promoted popularity tables came from the replacement, not the placeholder"
    );
    assert_eq!(
        old.live_count(),
        old_live,
        "pinned pre-promotion view intact"
    );
}

/// The service's three lock-retained reads (they need the live data
/// engine) still work after snapshots took over every other read.
#[test]
fn lock_retained_reads_still_serve() {
    let (svc, users) = service();
    let u = users[0];
    svc.run_query_at(u, "SELECT * FROM WaterTemp WHERE temp < 10", 1_000)
        .expect("write");
    assert!(!svc
        .check_identifiers("SELECT temp FROM WatrTemp")
        .is_empty());
    // No relaxation is a valid answer; serving it is the point.
    let _ = svc.repair_empty_result("SELECT * FROM WaterTemp WHERE temp < -900", 3);
    assert!(svc
        .search_by_data_reexecuting(u, &["no such cell"], &[])
        .is_empty());
}

/// Feature-SQL is a snapshot read: a service's and a sharded deployment's
/// both return while a writer sits on every store lock.
#[test]
fn feature_sql_does_not_wait_for_the_store_lock() {
    const SQL: &str = "SELECT qid FROM DataSources WHERE relName = 'watertemp'";
    let (svc, users) = service();
    let u = users[0];
    svc.run_query_at(u, "SELECT * FROM WaterTemp WHERE temp < 10", 1_000)
        .expect("write");
    let sharded = ShardedCqms::new(
        engine,
        CqmsConfig {
            shards: 2,
            wal_fsync: false,
            ..CqmsConfig::default()
        },
    );
    let su = sharded.register_user("user-0");
    sharded
        .run_query(su, "SELECT * FROM WaterTemp WHERE temp < 10")
        .expect("write");

    let locks: Vec<_> = std::iter::once(&svc)
        .chain(sharded.shards())
        .map(CqmsService::shared)
        .collect();
    let (held_tx, held_rx) = channel();
    let (release_tx, release_rx) = channel::<()>();
    let writer = std::thread::spawn(move || {
        let _guards: Vec<_> = locks.iter().map(|l| l.write()).collect();
        held_tx.send(()).expect("test thread waits");
        let _ = release_rx.recv(); // until the sender drops
    });
    held_rx.recv().expect("writer took the locks");

    let (done_tx, done_rx) = channel();
    let reader = std::thread::spawn(move || {
        let one = svc.search_feature_sql(u, SQL).expect("runs").rows.len();
        let merged = sharded
            .search_feature_sql(su, SQL)
            .expect("runs")
            .rows
            .len();
        let _ = done_tx.send((one, merged));
    });
    let answered = done_rx.recv_timeout(Duration::from_secs(20));
    drop(release_tx);
    writer.join().expect("writer");
    reader.join().expect("reader");
    assert_eq!(
        answered.expect("feature-SQL waited for a store lock"),
        (1, 1)
    );
}

/// A publish copies what the write touched, never the index head: with a
/// snapshot held after *every* write, the first record's parse tree is
/// referenced by its signature and once per copy of the head entry chunk
/// it sits in — copies that stop once a later chunk takes the appends —
/// not once per held snapshot.
#[test]
fn held_snapshots_share_the_index_head() {
    let mut c = Cqms::new(engine(), CqmsConfig::default());
    let u = c.register_user("user-0");
    let tables = ["WaterTemp", "WaterSalinity", "CityLocations", "Lakes"];
    let mut held = Vec::new();
    for i in 0..1_000u64 {
        let sql = format!("SELECT * FROM {} WHERE 1 < {i}", tables[i as usize % 4]);
        c.run_query_at(u, &sql, 1_000 + i * 30).expect("write");
        held.push(c.capture_snapshot(i));
    }
    let first = held[0]
        .storage()
        .signature(QueryId(0))
        .and_then(|sig| sig.tree.as_ref())
        .expect("record 0 parsed");
    assert!(
        Arc::strong_count(first) <= cqms_cow::CHUNK + 3,
        "{} references for {} held snapshots",
        Arc::strong_count(first),
        held.len()
    );
    // Feature rows likewise: a held snapshot shares record 0's through its
    // slot, and nothing copies the rows themselves.
    let rows = held[0].storage().feature_rows()[0]
        .as_ref()
        .expect("record 0 is live");
    assert!(
        Arc::strong_count(rows) <= cqms_cow::CHUNK + 3,
        "{} references for {} held snapshots",
        Arc::strong_count(rows),
        held.len()
    );
    assert_eq!(Arc::strong_count(&rows.relation(0)[0]), 1);
    // Each one still serves its own capture-time state.
    assert_eq!(held[0].live_count(), 1);
    assert_eq!(held[499].live_count(), 500);
    assert_eq!(held[499].search_substring(u, "1 < 499").len(), 1);
    assert!(held[499].search_substring(u, "1 < 500").is_empty());
}

/// The cached catalog names follow the data engine, which callers change
/// directly through the public `data` field — DDL, or a wholesale swap.
#[test]
fn snapshot_catalog_follows_the_data_engine() {
    let mut c = Cqms::new(engine(), CqmsConfig::default());
    let u = c.register_user("user-0");
    let offers = |c: &Cqms, table: &str| {
        c.capture_snapshot(0)
            .complete(u, "SELECT * FROM ", 50)
            .iter()
            .any(|s| s.text.eq_ignore_ascii_case(table))
    };
    assert!(offers(&c, "Lakes") && !offers(&c, "Glaciers"));
    c.data
        .execute("CREATE TABLE Glaciers (name TEXT, area FLOAT)")
        .expect("ddl");
    assert!(offers(&c, "Glaciers"), "DDL through `data` invalidates");
    c.data.execute("DROP TABLE Glaciers").expect("ddl");
    assert!(!offers(&c, "Glaciers"));
    c.data = Engine::new();
    assert!(!offers(&c, "Lakes"), "a swapped-in engine invalidates");
}
