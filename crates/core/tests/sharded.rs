//! Property-based equivalence of the sharded deployment against the
//! unsharded path (PR 7 acceptance): for generator-driven workloads of
//! ingests, tombstones, visibility flips, maintenance repairs and index
//! rebuilds, every cross-shard merged read — keyword TF-IDF, kNN,
//! substring — must return the *same results with the same scores* as one
//! unsharded [`CqmsService`] fed the identical trace.
//!
//! Global ids intentionally differ (the sharded deployment stripes them),
//! so equality is checked on what ids denote: the multiset of
//! `(score bits, issuing user, raw SQL)` per viewer. Scores must match
//! **bit for bit** — keyword scoring uses summed global corpus statistics
//! and kNN distances depend only on record content, so there is no
//! tolerance to hide behind.

use cqms_core::model::{GroupId, QueryId, UserId, Visibility};
use cqms_core::shard::{ShardState, ShardedCqms};
use cqms_core::similarity::DistanceKind;
use cqms_core::{Cqms, CqmsConfig, CqmsService};
use proptest::prelude::*;
use relstore::Engine;
use std::sync::atomic::{AtomicUsize, Ordering};
use workload::{Domain, Trace, TraceConfig};

const USERS: u32 = 4;

fn engine() -> Engine {
    let mut e = Engine::new();
    Domain::Lakes.setup(&mut e, 30, 3);
    e
}

fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
        // Quality's efficiency term ranks *measured* execution latency —
        // the same issued query times differently run to run, so any
        // blend of it can never be bit-compared across two deployments.
        // Zero its rank weight (folding it into recency) to pin the
        // deterministic terms: similarity, global popularity, recency.
        rank_recency: CqmsConfig::default().rank_recency + CqmsConfig::default().rank_quality,
        rank_quality: 0.0,
        // Low enough that a 40-op trace mines table rules for completion.
        assoc_min_support: 2,
        ..CqmsConfig::default()
    }
}

/// One step of the generated workload, applied identically to both
/// deployments. Indices address the n-th *issued* query (mod count), so
/// the same logical record is targeted on both sides even though their id
/// spaces differ.
#[derive(Debug, Clone)]
enum Op {
    Run { user: u32, sql: String },
    Delete { nth: usize },
    Hide { nth: usize, vis: Visibility },
    Rebuild,
    Maintain,
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
    ]
}

/// Owner + id of every issued query, in issue order — the shared index
/// space `Delete`/`Hide` address into.
type Issued = Vec<(UserId, QueryId)>;

fn apply_unsharded(svc: &CqmsService, users: &[UserId], issued: &mut Issued, op: &Op, ts: u64) {
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
        _ => {}
    }
}

fn apply_sharded(s: &ShardedCqms, users: &[UserId], issued: &mut Issued, op: &Op, ts: u64) {
    match op {
        Op::Run { user, sql } => {
            let out = s
                .run_query_at(users[*user as usize], sql, ts)
                .expect("profiling never hard-fails");
            issued.push((users[*user as usize], out.id));
        }
        Op::Delete { nth } if !issued.is_empty() => {
            let (owner, id) = issued[nth % issued.len()];
            let _ = s.delete_query(owner, id);
        }
        Op::Hide { nth, vis } if !issued.is_empty() => {
            let (owner, id) = issued[nth % issued.len()];
            let _ = s.set_visibility(owner, id, *vis);
        }
        Op::Rebuild => {
            for shard in s.shards() {
                shard.write(|c| c.storage.schedule_index_rebuild());
            }
            s.rebuild_indexes();
        }
        Op::Maintain => {
            s.run_maintenance().expect("maintenance");
        }
        _ => {}
    }
}

/// What a hit *denotes*, independent of either deployment's id space.
/// Scores are compared as raw bits: merged sharded scoring must be
/// exactly the unsharded computation, not merely close.
type Denoted = Vec<(u64, u32, String)>;

fn denote_unsharded(svc: &CqmsService, hits: &[(QueryId, f64)]) -> Denoted {
    let mut out: Denoted = hits
        .iter()
        .map(|(id, score)| {
            svc.read(|c| {
                let r = c.storage.get(*id).expect("hit resolves");
                (score.to_bits(), r.user.0, r.raw_sql.clone())
            })
        })
        .collect();
    out.sort();
    out
}

fn denote_sharded(s: &ShardedCqms, hits: &[(QueryId, f64)]) -> Denoted {
    let mut out: Denoted = hits
        .iter()
        .map(|(id, score)| {
            let (shard, local) = s.locate(*id);
            s.shards()[shard].read(|c| {
                let r = c.storage.get(local).expect("hit resolves");
                (score.to_bits(), r.user.0, r.raw_sql.clone())
            })
        })
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline equivalence: under any generated interleaving of
    /// ingests, tombstones, ACL flips, maintenance and rebuilds, sharded
    /// keyword / kNN / substring reads match the unsharded path exactly,
    /// for every viewer.
    #[test]
    fn sharded_reads_match_unsharded(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        shards in 2usize..=4,
    ) {
        let unsharded = CqmsService::new(Cqms::new(engine(), config(1)));
        let sharded = ShardedCqms::new(engine, config(shards));
        let u_users: Vec<UserId> =
            (0..USERS).map(|i| unsharded.register_user(&format!("user-{i}"))).collect();
        let s_users: Vec<UserId> =
            (0..USERS).map(|i| sharded.register_user(&format!("user-{i}"))).collect();
        prop_assert_eq!(&u_users, &s_users, "broadcast directories agree");
        for (g, u) in [(GroupId(0), u_users[0]), (GroupId(1), u_users[1])] {
            let ug = unsharded.create_group(&format!("g{}", g.0));
            let sg = sharded.create_group(&format!("g{}", g.0));
            prop_assert_eq!(ug, sg);
            unsharded.join_group(u, ug).unwrap();
            sharded.join_group(u, sg).unwrap();
        }

        let mut u_issued = Issued::new();
        let mut s_issued = Issued::new();
        for (i, op) in ops.iter().enumerate() {
            let ts = 1_000 + i as u64 * 60;
            apply_unsharded(&unsharded, &u_users, &mut u_issued, op, ts);
            apply_sharded(&sharded, &s_users, &mut s_issued, op, ts);
        }
        prop_assert_eq!(u_issued.len(), s_issued.len());
        prop_assert_eq!(unsharded.snapshot().live_count(), sharded.live_count());

        let knn_probe = "SELECT * FROM WaterTemp WHERE temp < 18";
        for &viewer in &u_users {
            // Keyword TF-IDF, k past every possible hit: the whole visible
            // ranking must agree.
            let uk: Vec<(QueryId, f64)> = unsharded
                .snapshot()
                .search_keyword(viewer, "watertemp temp salinity lakes month", 64)
                .into_iter().map(|h| (h.id, h.score)).collect();
            let sk: Vec<(QueryId, f64)> = sharded
                .search_keyword(viewer, "watertemp temp salinity lakes month", 64)
                .into_iter().map(|h| (h.id, h.score)).collect();
            prop_assert_eq!(
                denote_unsharded(&unsharded, &uk),
                denote_sharded(&sharded, &sk),
                "keyword diverged for viewer {}", viewer
            );
            // And truncated top-k: the merged score *sequence* is the
            // unsharded one (contents may differ only on ties at the cut).
            let u3: Vec<u64> = unsharded
                .snapshot()
                .search_keyword(viewer, "watertemp temp", 3)
                .iter().map(|h| h.score.to_bits()).collect();
            let s3: Vec<u64> = sharded
                .search_keyword(viewer, "watertemp temp", 3)
                .iter().map(|h| h.score.to_bits()).collect();
            prop_assert_eq!(u3, s3, "top-3 keyword scores diverged");

            // kNN over feature and combined metrics.
            for metric in [DistanceKind::Features, DistanceKind::Combined] {
                let un: Vec<(QueryId, f64)> = unsharded
                    .snapshot()
                    .similar_queries(viewer, knn_probe, 64, metric)
                    .unwrap().into_iter().map(|h| (h.id, h.score)).collect();
                let sn: Vec<(QueryId, f64)> = sharded
                    .similar_queries(viewer, knn_probe, 64, metric)
                    .unwrap().into_iter().map(|h| (h.id, h.score)).collect();
                prop_assert_eq!(
                    denote_unsharded(&unsharded, &un),
                    denote_sharded(&sharded, &sn),
                    "{:?} kNN diverged for viewer {}", metric, viewer
                );
                let u3: Vec<u64> = unsharded
                    .snapshot()
                    .similar_queries(viewer, knn_probe, 3, metric)
                    .unwrap().iter().map(|h| h.score.to_bits()).collect();
                let s3: Vec<u64> = sharded
                    .similar_queries(viewer, knn_probe, 3, metric)
                    .unwrap().iter().map(|h| h.score.to_bits()).collect();
                prop_assert_eq!(u3, s3, "top-3 {:?} scores diverged", metric);
            }

            // Substring (exact membership; scoreless).
            let us: Vec<(QueryId, f64)> = unsharded
                .snapshot()
                .search_substring(viewer, "WaterTemp")
                .into_iter().map(|id| (id, 0.0)).collect();
            let ss: Vec<(QueryId, f64)> = sharded
                .search_substring(viewer, "WaterTemp")
                .into_iter().map(|id| (id, 0.0)).collect();
            prop_assert_eq!(
                denote_unsharded(&unsharded, &us),
                denote_sharded(&sharded, &ss),
                "substring diverged for viewer {}", viewer
            );

            // Completion (PR 10): merged global statistics must reproduce
            // the unsharded scoring exactly — full suggestion sequences,
            // score bits included.
            for probe in [
                "SELECT * FROM WaterTemp, ",
                "SELECT * FROM WaterTemp WHERE ",
                "SELECT ",
            ] {
                let uc: Vec<(String, u64, String)> = unsharded
                    .snapshot()
                    .complete(viewer, probe, 8)
                    .into_iter().map(|s| (s.text, s.score.to_bits(), s.why)).collect();
                let sc: Vec<(String, u64, String)> = sharded
                    .complete(viewer, probe, 8)
                    .into_iter().map(|s| (s.text, s.score.to_bits(), s.why)).collect();
                prop_assert_eq!(uc, sc, "completion diverged on {:?} for viewer {}", probe, viewer);
            }

            // Recommendation (PR 10): the merged panel must carry the same
            // rows as the unsharded one — same score percentages in the
            // same order, same SQL/diff/annotation multiset. k is chosen
            // so the 3k candidate pool covers every possible hit: at the
            // pool boundary, kNN-score ties may cut differently across the
            // two id spaces (exactly the documented top-k tie caveat), but
            // with no cut the panels must agree row for row. Ids differ by
            // striping, so the row multiset is compared sorted.
            let ur = unsharded.snapshot().recommend(viewer, knn_probe, 16).expect("seed parses");
            let sr = sharded.recommend(viewer, knn_probe, 16).expect("seed parses");
            let upcts: Vec<u8> = ur.iter().map(|r| r.score_pct).collect();
            let spcts: Vec<u8> = sr.iter().map(|r| r.score_pct).collect();
            prop_assert_eq!(upcts, spcts, "panel score sequence diverged for viewer {}", viewer);
            let mut urows: Vec<(u8, String, String, String)> = ur
                .into_iter().map(|r| (r.score_pct, r.sql, r.diff, r.annotation)).collect();
            let mut srows: Vec<(u8, String, String, String)> = sr
                .into_iter().map(|r| (r.score_pct, r.sql, r.diff, r.annotation)).collect();
            urows.sort();
            srows.sort();
            prop_assert_eq!(urows, srows, "panel rows diverged for viewer {}", viewer);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each merged read has one body behind its plain and `_deadline`
    /// entry points: with a budget no shard can miss, the deadlined call
    /// reports nothing lagging and returns the plain call's value bit for
    /// bit — whether the probes run inline (plain) or on workers
    /// (deadline), over 1, 2 and 5 shards.
    #[test]
    fn generous_deadline_reads_equal_plain_reads(
        ops in proptest::collection::vec(op_strategy(), 1..32),
    ) {
        let budget = std::time::Duration::from_secs(60);
        let knn_probe = "SELECT * FROM WaterTemp WHERE temp < 18";
        for shards in [1usize, 2, 5] {
            let sharded = ShardedCqms::new(engine, config(shards));
            let users: Vec<UserId> =
                (0..USERS).map(|i| sharded.register_user(&format!("user-{i}"))).collect();
            for (g, u) in [(0u32, users[0]), (1, users[1])] {
                let group = sharded.create_group(&format!("g{g}"));
                sharded.join_group(u, group).unwrap();
            }
            let mut issued = Issued::new();
            for (i, op) in ops.iter().enumerate() {
                apply_sharded(&sharded, &users, &mut issued, op, 1_000 + i as u64 * 60);
            }
            for &viewer in &users {
                let bits = |hits: &[cqms_core::metaquery::ScoredHit]| -> Vec<(QueryId, u64)> {
                    hits.iter().map(|h| (h.id, h.score.to_bits())).collect()
                };
                let plain = sharded.search_keyword(viewer, "watertemp temp salinity", 8);
                let timed = sharded.search_keyword_deadline(viewer, "watertemp temp salinity", 8, budget);
                prop_assert!(!timed.partial && timed.lagging_shards.is_empty());
                prop_assert_eq!(bits(&timed.value), bits(&plain), "keyword, {} shards", shards);

                let plain = sharded.search_substring(viewer, "WaterTemp");
                let timed = sharded.search_substring_deadline(viewer, "WaterTemp", budget);
                prop_assert!(!timed.partial && timed.lagging_shards.is_empty());
                prop_assert_eq!(timed.value, plain, "substring, {} shards", shards);

                for metric in [DistanceKind::Features, DistanceKind::Combined] {
                    let plain = sharded.similar_queries(viewer, knn_probe, 8, metric).unwrap();
                    let timed = sharded
                        .similar_queries_deadline(viewer, knn_probe, 8, metric, budget)
                        .unwrap();
                    prop_assert!(!timed.partial && timed.lagging_shards.is_empty());
                    prop_assert_eq!(bits(&timed.value), bits(&plain), "{:?} kNN, {} shards", metric, shards);
                }
            }
        }
    }
}

/// Two analysts, `lo < hi` by id, interleave in-gap queries with `hi`
/// going first — so the profiler numbers `hi`'s session before `lo`'s and
/// the miner epoch, which segments user by user, swaps the two numbers.
/// `hi`'s next in-gap query must follow `hi`'s own queries to their new
/// session number: everyone in its session is `hi`.
fn session_after_epoch(
    (lo, hi): (UserId, UserId),
    run: &dyn Fn(UserId, &str, u64) -> QueryId,
    epoch: &dyn Fn(),
    session_users: &dyn Fn(QueryId) -> Vec<UserId>,
) {
    assert!(lo < hi);
    for i in 0..6u64 {
        run(
            hi,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 20,
        );
        run(
            lo,
            &format!("SELECT * FROM Lakes WHERE area > {i}"),
            1_010 + i * 20,
        );
    }
    epoch();
    let next = run(hi, "SELECT * FROM WaterTemp WHERE temp < 99", 1_130);
    assert_eq!(
        session_users(next),
        vec![hi; 7],
        "session of {hi}'s next query"
    );
}

fn users_in_session_of(c: &Cqms, id: QueryId) -> Vec<UserId> {
    let session = c.storage.get(id).expect("issued").session;
    let members = c.storage.queries_in_session(session);
    members
        .iter()
        .map(|m| c.storage.get(*m).unwrap().user)
        .collect()
}

/// The session cursor is read from the log, so it follows the miner's
/// renumbering — on a bare `Cqms`, a service and a sharded deployment.
#[test]
fn next_query_after_an_epoch_joins_its_own_users_session() {
    let cqms = std::cell::RefCell::new(Cqms::new(engine(), config(1)));
    let pair = {
        let mut c = cqms.borrow_mut();
        (c.register_user("lo"), c.register_user("hi"))
    };
    session_after_epoch(
        pair,
        &|u, sql, ts| cqms.borrow_mut().run_query_at(u, sql, ts).unwrap().id,
        &|| drop(cqms.borrow_mut().run_miner_epoch()),
        &|id| users_in_session_of(&cqms.borrow(), id),
    );

    let svc = CqmsService::new(Cqms::new(engine(), config(1)));
    session_after_epoch(
        (svc.register_user("lo"), svc.register_user("hi")),
        &|u, sql, ts| svc.run_query_at(u, sql, ts).unwrap().id,
        &|| drop(svc.run_miner_epoch()),
        &|id| svc.read(|c| users_in_session_of(c, id)),
    );

    // Sessions are shard-local: take two of four users that share a shard.
    let sharded = ShardedCqms::new(engine, config(3));
    let users: Vec<UserId> = (0..4)
        .map(|i| sharded.register_user(&format!("user-{i}")))
        .collect();
    let pair = users
        .iter()
        .flat_map(|&lo| users.iter().map(move |&hi| (lo, hi)))
        .find(|&(lo, hi)| lo < hi && sharded.shard_of(lo) == sharded.shard_of(hi))
        .expect("four users over three shards");
    session_after_epoch(
        pair,
        &|u, sql, ts| sharded.run_query_at(u, sql, ts).unwrap().id,
        &|| drop(sharded.run_miner_epoch()),
        &|id| {
            let (shard, local) = sharded.locate(id);
            sharded.shards()[shard].read(|c| users_in_session_of(c, local))
        },
    );
}

/// Sharded feature-SQL globalises exactly the output columns that are bare
/// `qid` references — unaliased, aliased or from a wildcard — and never an
/// aggregate, whatever its alias.
#[test]
fn feature_sql_remaps_qid_references_not_qid_names() {
    let sharded = ShardedCqms::new(engine, config(2));
    let users: Vec<UserId> = (0..4)
        .map(|i| sharded.register_user(&format!("user-{i}")))
        .collect();
    let user = *users
        .iter()
        .find(|&&u| sharded.shard_of(u) == 1)
        .expect("four users over two shards");
    let mut acked: Vec<i64> = (0..8u64)
        .map(|i| {
            let sql = format!("SELECT * FROM WaterTemp WHERE temp < {i}");
            let out = sharded.run_query_at(user, &sql, 1_000 + i * 60).unwrap();
            out.id.0 as i64
        })
        .collect();
    acked.sort();
    let first_column = |sql: &str| -> Vec<i64> {
        let r = sharded.search_feature_sql(user, sql).unwrap();
        let mut values: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
        values.sort();
        values
    };
    for sql in [
        "SELECT Q.qid FROM Queries Q",
        "SELECT Q.qid AS id FROM Queries Q",
        "SELECT * FROM Queries Q",
    ] {
        assert_eq!(first_column(sql), acked, "{sql}");
    }
    // Aggregates stay per shard: the shards' counts sum to the live count.
    let counts = first_column("SELECT COUNT(*) AS qid FROM Queries Q");
    assert_eq!(counts.iter().sum::<i64>(), sharded.live_count() as i64);
}

/// The 14-byte `FROM <table…>` slice of a statement: the substring needle
/// an analyst types to find earlier queries over a table.
fn from_needle(sql: &str) -> &str {
    let start = sql.find(" FROM ").map_or(0, |p| p + 1);
    &sql[start..(start + 14).min(sql.len())]
}

/// Sharded substring search over a generated log equals a brute-force
/// filter of the visible live records' text, after a delete, a flip to
/// private and a maintenance pass that rewrites (and so re-indexes)
/// records, for the flipped record's owner and for another user.
#[test]
fn substring_search_matches_brute_force_over_the_log() {
    let trace = Trace::generate(TraceConfig::new(Domain::Lakes).with_sessions(16));
    let sharded = ShardedCqms::new(engine, config(2));
    // Burn `UserId(0)`, the implicit admin who sees everything, so every
    // trace user is a plain user.
    sharded.register_user("root");
    let users: Vec<UserId> = (0..trace.config.users)
        .map(|i| sharded.register_user(&format!("user-{i}")))
        .collect();
    let issued: Issued = trace
        .queries
        .iter()
        .map(|q| {
            let user = users[q.user as usize];
            (user, sharded.run_query_at(user, &q.sql, q.ts).unwrap().id)
        })
        .collect();

    let (owner, private) = issued[7];
    sharded
        .set_visibility(owner, private, Visibility::Private)
        .unwrap();
    let (deleter, deleted) = *issued
        .iter()
        .find(|(_, id)| *id != private)
        .expect("a second query");
    sharded.delete_query(deleter, deleted).unwrap();
    for shard in sharded.shards() {
        shard.write(|c| {
            c.data
                .execute("ALTER TABLE WaterTemp RENAME TO LakeTemperatures")
                .unwrap()
        });
    }
    let repaired: usize = sharded
        .run_maintenance()
        .unwrap()
        .iter()
        .map(|(schema, _)| schema.repaired.len())
        .sum();
    assert!(repaired > 0, "the rename rewrote no logged query");

    // (global id, owner, visibility, text) of every live record.
    let mut live: Vec<(QueryId, UserId, Visibility, String)> = Vec::new();
    for (i, shard) in sharded.shards().iter().enumerate() {
        shard.read(|c| {
            live.extend(c.storage.iter_live().map(|r| {
                let id = sharded.globalize(i, r.id);
                (id, r.user, r.visibility, r.raw_sql.clone())
            }))
        });
    }
    let mut needles: Vec<&str> = trace
        .queries
        .iter()
        .map(|q| from_needle(&q.sql))
        .chain(live.iter().map(|(.., sql)| from_needle(sql)))
        .collect();
    needles.sort_unstable();
    needles.dedup();
    assert!(needles.contains(&"FROM WaterTemp") && needles.contains(&"FROM LakeTempe"));

    let other = *users.iter().find(|&&u| u != owner).expect("two users");
    for viewer in [owner, other] {
        for needle in &needles {
            let lower = needle.to_lowercase();
            let mut want: Vec<QueryId> = live
                .iter()
                .filter(|(_, user, vis, sql)| {
                    (*user == viewer || *vis == Visibility::Public)
                        && sql.to_lowercase().contains(&lower)
                })
                .map(|(id, ..)| *id)
                .collect();
            want.sort_unstable();
            assert_eq!(
                sharded.search_substring(viewer, needle),
                want,
                "{needle:?} for {viewer}"
            );
        }
    }
}

/// Unique scratch directory per proptest case (cases share one process).
fn case_dir(tag: &str) -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cqms-sharded-{tag}-{}-{n}", std::process::id()))
}

/// Make `shard-{i}` unopenable without destroying its durable state:
/// the directory moves aside and a regular file squats on its name.
fn break_shard_dir(dir: &std::path::Path, shard: usize) {
    let shard_dir = dir.join(format!("shard-{shard}"));
    let bak = dir.join(format!("shard-{shard}.bak"));
    std::fs::rename(&shard_dir, &bak).expect("stash shard dir");
    std::fs::write(&shard_dir, b"disk fault").expect("plant squatter");
}

/// Undo [`break_shard_dir`]: the original directory returns intact.
fn fix_shard_dir(dir: &std::path::Path, shard: usize) {
    let shard_dir = dir.join(format!("shard-{shard}"));
    let bak = dir.join(format!("shard-{shard}.bak"));
    std::fs::remove_file(&shard_dir).expect("evict squatter");
    std::fs::rename(&bak, &shard_dir).expect("restore shard dir");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Degraded-open × repair interleavings (PR 9 acceptance): corrupt
    /// any non-empty subset of a 3-shard durable deployment's
    /// directories, open degraded, then heal the directories. A repair
    /// epoch while they are broken promotes nothing; one epoch after
    /// they are fixed promotes *exactly* the broken set, un-fences
    /// writes, and the healed deployment's keyword / kNN / substring
    /// reads converge to an unsharded oracle fed the identical trace.
    #[test]
    fn degraded_open_then_repair_converges_to_oracle(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        mask in 1usize..8,
    ) {
        const SHARDS: usize = 3;
        let dir = case_dir("repair");
        let _ = std::fs::remove_dir_all(&dir);
        let broken: Vec<usize> = (0..SHARDS).filter(|i| mask & (1 << i) != 0).collect();

        let durable_config = CqmsConfig {
            wal_fsync: false,
            open_degraded: true,
            repair_interval_ms: 0, // manual epochs: the test is the clock
            ..config(SHARDS)
        };
        // Feed the trace to a durable sharded deployment and an unsharded
        // RAM oracle in lockstep, then close the durable one cleanly.
        // Recovered shards rebuild with an *empty* directory (user/group
        // registration is deliberately not WAL-logged; callers re-register
        // after reopen, as the durability tests do). Burn `UserId(0)` — the
        // implicit admin — on a sentinel in both deployments so every trace
        // user is a plain user and the oracle's visibility semantics match
        // a directory-less recovered shard: Public readable by anyone,
        // Private owner-only, Group unreadable (nobody is a member).
        let unsharded = CqmsService::new(Cqms::new(engine(), config(1)));
        unsharded.register_user("root");
        let u_users: Vec<UserId> =
            (0..USERS).map(|i| unsharded.register_user(&format!("user-{i}"))).collect();
        let mut u_issued = Issued::new();
        let mut s_issued = Issued::new();
        {
            let sharded = ShardedCqms::open(engine, durable_config.clone(), &dir)
                .expect("healthy open");
            sharded.register_user("root");
            let s_users: Vec<UserId> =
                (0..USERS).map(|i| sharded.register_user(&format!("user-{i}"))).collect();
            prop_assert_eq!(&u_users, &s_users);
            for (i, op) in ops.iter().enumerate() {
                let ts = 1_000 + i as u64 * 60;
                apply_unsharded(&unsharded, &u_users, &mut u_issued, op, ts);
                apply_sharded(&sharded, &s_users, &mut s_issued, op, ts);
            }
            sharded.shutdown();
        }

        for &b in &broken {
            break_shard_dir(&dir, b);
        }
        let sharded = ShardedCqms::open(engine, durable_config, &dir)
            .expect("degraded open");
        prop_assert_eq!(sharded.degraded_shards(), broken.clone());
        // Directories still broken: an epoch attempts but promotes nothing.
        prop_assert_eq!(sharded.run_repair_epoch(), Vec::<usize>::new());
        prop_assert_eq!(sharded.degraded_shards(), broken.clone());

        for &b in &broken {
            fix_shard_dir(&dir, b);
        }
        // One epoch after the fix promotes exactly the broken set.
        prop_assert_eq!(sharded.run_repair_epoch(), broken.clone());
        prop_assert_eq!(sharded.degraded_shards(), Vec::<usize>::new());
        for h in sharded.health() {
            prop_assert_eq!(h.state, ShardState::Serving);
            if broken.contains(&h.shard) {
                prop_assert!(h.repair_attempts >= 1, "attempts recorded");
                prop_assert!(sharded.shard_recovery()[h.shard].is_ok());
            }
        }
        prop_assert_eq!(unsharded.snapshot().live_count(), sharded.live_count());

        // Writes are un-fenced everywhere: land one per user (covers every
        // formerly broken shard), mirrored into the oracle.
        let ts0 = 1_000 + ops.len() as u64 * 60;
        for (i, &u) in u_users.iter().enumerate() {
            let ts = ts0 + i as u64 * 60;
            let sql = "SELECT * FROM WaterTemp WHERE temp < 18";
            unsharded.run_query_at(u, sql, ts).expect("oracle write");
            sharded.run_query_at(u, sql, ts).expect("healed shard accepts writes");
        }


        // Read convergence, every viewer: keyword / kNN / substring.
        for &viewer in &u_users {
            let uk: Vec<(QueryId, f64)> = unsharded
                .snapshot()
                .search_keyword(viewer, "watertemp temp salinity lakes month", 64)
                .into_iter().map(|h| (h.id, h.score)).collect();
            let sk: Vec<(QueryId, f64)> = sharded
                .search_keyword(viewer, "watertemp temp salinity lakes month", 64)
                .into_iter().map(|h| (h.id, h.score)).collect();
            prop_assert_eq!(
                denote_unsharded(&unsharded, &uk),
                denote_sharded(&sharded, &sk),
                "keyword diverged for viewer {}", viewer
            );
            let un: Vec<(QueryId, f64)> = unsharded
                .snapshot()
                .similar_queries(viewer, "SELECT * FROM Lakes", 64, DistanceKind::Features)
                .unwrap().into_iter().map(|h| (h.id, h.score)).collect();
            let sn: Vec<(QueryId, f64)> = sharded
                .similar_queries(viewer, "SELECT * FROM Lakes", 64, DistanceKind::Features)
                .unwrap().into_iter().map(|h| (h.id, h.score)).collect();
            prop_assert_eq!(
                denote_unsharded(&unsharded, &un),
                denote_sharded(&sharded, &sn),
                "kNN diverged for viewer {}", viewer
            );
            let us: Vec<(QueryId, f64)> = unsharded
                .snapshot()
                .search_substring(viewer, "WaterTemp")
                .into_iter().map(|id| (id, 0.0)).collect();
            let ss: Vec<(QueryId, f64)> = sharded
                .search_substring(viewer, "WaterTemp")
                .into_iter().map(|id| (id, 0.0)).collect();
            prop_assert_eq!(
                denote_unsharded(&unsharded, &us),
                denote_sharded(&sharded, &ss),
                "substring diverged for viewer {}", viewer
            );
        }
        sharded.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
