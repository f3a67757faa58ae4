//! Concurrency stress tests for the service layer: N writer + M reader
//! threads over one `CqmsService`, checked for *determinism* against a
//! single-threaded replay of the same trace.
//!
//! Writer threads ingest disjoint per-user partitions of a generated trace
//! (`Trace::replay_concurrent`), so whatever way the OS interleaves them,
//! the per-user ingestion order — the thing online session assignment and
//! the popularity table depend on — is fixed. The final state must match a
//! sequential replay on every order-independent axis: query count, live
//! count, the full template-popularity table, and the exact multiset of
//! logged SQL (no lost records).

use cqms::engine::model::UserId;
use cqms::engine::service::{CqmsService, IngestItem};
use cqms::engine::storage::NewRecord;
use cqms::engine::{Cqms, CqmsConfig};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use workload::{Domain, Trace, TraceConfig};

const USERS: u32 = 6;

fn test_trace() -> Trace {
    Trace::generate(
        TraceConfig::new(Domain::Lakes)
            .with_sessions(30)
            .with_users(USERS)
            .with_scale(120),
    )
}

/// Order-independent fingerprint of a CQMS's final state.
#[derive(Debug, PartialEq)]
struct StateDigest {
    total: usize,
    live: usize,
    popularity: Vec<(u64, u32)>,
    /// Per-user live query counts.
    per_user: BTreeMap<u32, usize>,
    /// Sorted multiset of logged SQL.
    sqls: Vec<String>,
}

fn digest(cqms: &Cqms) -> StateDigest {
    let mut per_user = BTreeMap::new();
    let mut sqls = Vec::new();
    for r in cqms.storage.iter() {
        *per_user.entry(r.user.0).or_insert(0) += 1;
        sqls.push(r.raw_sql.to_string());
    }
    sqls.sort();
    StateDigest {
        total: cqms.storage.len(),
        live: cqms.storage.live_count(),
        popularity: cqms.storage.template_histogram(),
        per_user,
        sqls,
    }
}

/// Replay the whole trace on one thread — the ground truth.
fn sequential_digest(trace: &Trace) -> StateDigest {
    let mut cqms = Cqms::new(trace.build_engine(), CqmsConfig::default());
    let users: Vec<UserId> = (0..USERS)
        .map(|i| cqms.register_user(&format!("user-{i}")))
        .collect();
    for q in &trace.queries {
        cqms.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
            .expect("profiling never hard-fails");
    }
    digest(&cqms)
}

/// Replay the trace through `writers` concurrent ingest threads while
/// `readers` threads hammer the read path, then digest the final state.
fn concurrent_digest(trace: &Trace, writers: usize, readers: usize) -> StateDigest {
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let users: Vec<UserId> = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();

    let done = AtomicBool::new(false);
    let read_ops = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Readers: exercise completion + every search mode during the
        // writes; they must never panic, never observe torn state, and
        // their results must stay well-formed.
        for r in 0..readers {
            let svc = svc.clone();
            let user = users[r % users.len()];
            let done = &done;
            let read_ops = &read_ops;
            s.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    match i % 4 {
                        0 => {
                            let hits = svc.snapshot().search_keyword(user, "watertemp", 5);
                            assert!(hits.len() <= 5);
                        }
                        1 => {
                            let sugg = svc.snapshot().complete(user, "SELECT * FROM ", 5);
                            assert!(sugg.len() <= 5);
                        }
                        2 => {
                            let live_before = svc.snapshot().live_count();
                            let live_after = svc.snapshot().live_count();
                            assert!(live_after >= live_before, "live count went backwards");
                        }
                        _ => {
                            let res = svc
                                .search_feature_sql(user, "SELECT qid FROM Queries")
                                .expect("meta-query read path failed");
                            assert_eq!(res.rows.len() as u64, res.metrics.cardinality);
                        }
                    }
                    read_ops.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        // Writers: deterministic per-thread schedule over the trace.
        let counts = trace.replay_concurrent(writers, |_thread, q| {
            svc.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
                .expect("profiling never hard-fails");
        });
        assert_eq!(counts.iter().sum::<usize>(), trace.queries.len());
        done.store(true, Ordering::Relaxed);
    });
    assert!(read_ops.load(Ordering::Relaxed) > 0, "readers never ran");

    svc.read(digest)
}

#[test]
fn concurrent_replay_matches_single_threaded() {
    let trace = test_trace();
    let expected = sequential_digest(&trace);
    assert_eq!(expected.total, trace.queries.len(), "seed trace ingested");

    // Two independent concurrent runs: both must land on the sequential
    // state — determinism, not just absence of crashes.
    for run in 0..2 {
        let got = concurrent_digest(&trace, 4, 2);
        assert_eq!(
            got.total, expected.total,
            "run {run}: lost or duplicated records"
        );
        assert_eq!(got.live, expected.live, "run {run}: live count diverged");
        assert_eq!(
            got.popularity, expected.popularity,
            "run {run}: popularity table diverged"
        );
        assert_eq!(
            got.per_user, expected.per_user,
            "run {run}: per-user counts diverged"
        );
        assert_eq!(got.sqls, expected.sqls, "run {run}: logged SQL diverged");
    }
}

#[test]
fn many_writers_few_readers_and_vice_versa() {
    let trace = test_trace();
    let expected = sequential_digest(&trace);
    let writer_heavy = concurrent_digest(&trace, 8, 1);
    assert_eq!(writer_heavy, expected);
    let reader_heavy = concurrent_digest(&trace, 2, 6);
    assert_eq!(reader_heavy, expected);
}

#[test]
fn batched_ingestion_reaches_the_same_state() {
    let trace = test_trace();
    let expected = sequential_digest(&trace);

    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let users: Vec<UserId> = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();
    // Ingest in batches of 16 (one write-lock acquisition each).
    for chunk in trace.queries.chunks(16) {
        let batch: Vec<IngestItem> = chunk
            .iter()
            .map(|q| IngestItem::at(users[q.user as usize % users.len()], q.sql.clone(), q.ts))
            .collect();
        let results = svc.ingest_batch(&batch);
        assert!(results.iter().all(|r| r.is_ok()));
    }
    assert_eq!(svc.read(digest), expected);
}

#[test]
fn miner_survives_a_client_panicking_under_the_write_lock() {
    let trace = test_trace();
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let user = svc.register_user("survivor");
    for i in 0..6 {
        svc.run_query(
            user,
            &format!(
                "SELECT * FROM WaterSalinity S, WaterTemp T \
                 WHERE S.loc_x = T.loc_x AND T.temp < {i}"
            ),
        )
        .unwrap();
    }

    // A client dies mid-write while holding the lock. The locks follow
    // parking_lot semantics (no poisoning), so the service — and a miner
    // started afterwards — must keep working. Silence the expected panic's
    // default backtrace to keep test output readable.
    let shared = svc.shared();
    let prev_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _guard = shared.write();
        panic!("client died mid-write");
    }));
    std::panic::set_hook(prev_hook);
    assert!(result.is_err(), "the simulated crash must have panicked");

    // Reads, writes and mining all still work on the "poisoned" lock.
    assert_eq!(svc.snapshot().live_count(), 6);
    svc.run_query(user, "SELECT * FROM Lakes").unwrap();
    let generation = svc.snapshot().index_generation();
    svc.write(|c| c.storage.schedule_index_rebuild());
    assert!(svc.start_miner(std::time::Duration::from_millis(5)));
    std::thread::sleep(std::time::Duration::from_millis(40));
    let epochs = svc.shutdown().expect("miner was running");
    assert!(epochs >= 1, "miner made no progress after the panic");
    assert!(svc.snapshot().index_generation() > generation);
}

#[test]
fn shutdown_while_caller_holds_a_guard_does_not_deadlock() {
    let trace = test_trace();
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let user = svc.register_user("u");
    svc.run_query(user, "SELECT * FROM WaterTemp WHERE temp < 18")
        .unwrap();
    assert!(svc.start_miner(std::time::Duration::from_secs(3600)));
    // Stopping while this thread holds a read guard: the miner's final
    // epoch needs the write lock, which can never be granted — shutdown
    // must give up on the epoch and return instead of deadlocking.
    let shared = svc.shared();
    let guard = shared.read();
    let epochs = svc.shutdown().expect("miner was running");
    drop(guard);
    assert_eq!(epochs, 0, "final epoch must be skipped, not deadlock");

    // Same hazard on the *periodic* path: with a short interval the miner
    // is mid-epoch-retry (not parked on the stop channel) when we stop it
    // while holding a guard. The bounded try-write must let it observe the
    // stop signal and exit rather than wait on the lock forever.
    let guard = shared.read();
    assert!(svc.start_miner(std::time::Duration::from_millis(5)));
    std::thread::sleep(std::time::Duration::from_millis(30));
    let epochs = svc.shutdown().expect("miner was running");
    drop(guard);
    assert_eq!(epochs, 0, "no epoch can run under a held guard");
}

#[test]
fn dropping_the_miner_handle_joins_and_runs_a_final_epoch() {
    use cqms::engine::server::spawn_background_miner;
    use parking_lot::RwLock;
    use std::sync::Arc;

    let trace = test_trace();
    let shared = Arc::new(RwLock::new(Cqms::new(
        trace.build_engine(),
        CqmsConfig::default(),
    )));
    let generation = {
        let mut guard = shared.write();
        let u = guard.register_user("u");
        for i in 0..6 {
            guard
                .run_query(
                    u,
                    &format!(
                        "SELECT * FROM WaterSalinity S, WaterTemp T \
                         WHERE S.loc_x = T.loc_x AND T.temp < {i}"
                    ),
                )
                .unwrap();
        }
        guard.storage.schedule_index_rebuild();
        guard.storage.index_generation()
    };
    {
        // Interval far beyond the test: only the shutdown epoch can run.
        let _miner = spawn_background_miner(
            shared.clone(),
            std::time::Duration::from_secs(3600),
            cqms::engine::faults::global_plan(),
            None,
        );
        // Dropping the handle here must join the thread (not detach it)...
    }
    // ...and the final epoch's rebuild must be visible immediately.
    assert!(shared.read().storage.index_generation() > generation);
}

#[test]
fn background_miner_shutdown_after_concurrent_ingest() {
    let trace = test_trace();
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let users: Vec<UserId> = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();
    // Long interval: only the final shutdown epoch can run, so an index
    // generation published afterwards was built by it — over queries that
    // were ingested concurrently while the miner thread was alive.
    assert!(svc.start_miner(std::time::Duration::from_secs(3600)));
    trace.replay_concurrent(4, |_t, q| {
        svc.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
            .expect("profiling never hard-fails");
    });
    let generation = svc.snapshot().index_generation();
    svc.write(|c| c.storage.schedule_index_rebuild());
    let epochs = svc.shutdown().expect("miner was running");
    assert!(epochs >= 1);
    let snap = svc.snapshot();
    assert!(
        snap.index_generation() > generation,
        "final epoch results not visible"
    );
    assert_eq!(snap.storage().len(), trace.queries.len());
}

/// Readers racing a background generation rebuild: TreeEdit/ParseTree
/// kNN probes run continuously while one thread forces double-buffered
/// rebuilds (build under the read lock, publish under a brief write
/// lock) and a writer keeps ingesting. Probes must never panic, never
/// return more than k hits, and never observe a torn generation; after
/// the dust settles, the registry-served top-k must equal brute force
/// and the generation counter must have advanced monotonically.
#[test]
fn readers_race_background_rebuilds() {
    use cqms::engine::metaquery::ScoredHit;
    use cqms::engine::similarity::{self, DistanceKind};

    let trace = test_trace();
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let users: Vec<UserId> = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();
    // Seed log + first sealed generation.
    for q in trace.queries.iter().take(120) {
        svc.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
            .expect("profiling never hard-fails");
    }
    svc.write(|c| c.storage.schedule_index_rebuild());
    assert!(svc.rebuild_indexes());
    let gen0 = svc.snapshot().index_generation();
    assert!(gen0 >= 1);

    const PROBE: &str = "SELECT * FROM WaterTemp WHERE temp < 18";
    let done = AtomicBool::new(false);
    let probes = AtomicUsize::new(0);
    let rebuilds = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Readers: tree-metric kNN, the paths that used to pay the
        // stop-the-world lazy build.
        for r in 0..3usize {
            let svc = svc.clone();
            let user = users[r % users.len()];
            let (done, probes) = (&done, &probes);
            s.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let metric = if i.is_multiple_of(2) {
                        DistanceKind::TreeEdit
                    } else {
                        DistanceKind::ParseTree
                    };
                    let hits = svc
                        .snapshot()
                        .similar_queries(user, PROBE, 5, metric)
                        .expect("probe failed mid-rebuild");
                    assert!(hits.len() <= 5);
                    probes.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        // Rebuilder: force + publish generations as fast as it can.
        {
            let svc = svc.clone();
            let (done, rebuilds) = (&done, &rebuilds);
            s.spawn(move || {
                let mut last = svc.snapshot().index_generation();
                while !done.load(Ordering::Relaxed) {
                    svc.write(|c| c.storage.schedule_index_rebuild());
                    if svc.rebuild_indexes() {
                        rebuilds.fetch_add(1, Ordering::Relaxed);
                    }
                    let now = svc.snapshot().index_generation();
                    assert!(now >= last, "generation went backwards");
                    last = now;
                }
            });
        }
        // Writer: the delta the publishes must replay.
        let svc2 = svc.clone();
        let writer_user = users[0];
        let done = &done;
        let queries: Vec<String> = trace
            .queries
            .iter()
            .skip(120)
            .take(150)
            .map(|q| q.sql.clone())
            .collect();
        s.spawn(move || {
            for sql in queries {
                let _ = svc2.run_query(writer_user, &sql);
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert!(probes.load(Ordering::Relaxed) > 0, "readers never probed");
    assert!(rebuilds.load(Ordering::Relaxed) > 0, "no rebuild raced");
    assert!(svc.snapshot().index_generation() > gen0);

    // Steady state: registry-served kNN equals brute force, so every
    // mid-build insert was replayed and every swap was clean.
    svc.read(|c| {
        let probe = NewRecord::probe(users[0], PROBE).unwrap();
        let psig = c.storage.probe_signature(&probe);
        for metric in [DistanceKind::TreeEdit, DistanceKind::ParseTree] {
            let got = c
                .capture_snapshot(0)
                .similar_queries(users[0], PROBE, 5, metric)
                .expect("probe");
            let mut want: Vec<ScoredHit> = c
                .storage
                .iter_live()
                .map(|r| ScoredHit {
                    id: r.id,
                    score: 1.0
                        - similarity::distance_with(
                            &probe,
                            &psig,
                            r,
                            c.storage.signature(r.id).unwrap(),
                            metric,
                            &c.config,
                        ),
                })
                .collect();
            want.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap()
                    .then_with(|| a.id.cmp(&b.id))
            });
            want.truncate(5);
            assert_eq!(got, want, "{metric:?} diverged after racing rebuilds");
        }
    });
}

/// The background miner executes scheduled rebuilds: a reindex only
/// *requests* one, probes keep the old generation, and the next epoch
/// (here the final shutdown epoch) publishes exactly one swap.
#[test]
fn miner_epoch_executes_scheduled_rebuild() {
    let trace = test_trace();
    let svc = CqmsService::new(Cqms::new(trace.build_engine(), CqmsConfig::default()));
    let users: Vec<UserId> = (0..USERS)
        .map(|i| svc.register_user(&format!("user-{i}")))
        .collect();
    for q in trace.queries.iter().take(40) {
        svc.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
            .expect("profiling never hard-fails");
    }
    let gen0 = svc.snapshot().index_generation();
    svc.write(|c| {
        c.storage.schedule_index_rebuild();
    });
    assert_eq!(
        svc.snapshot().index_generation(),
        gen0,
        "scheduling does not rebuild"
    );
    // Long interval: the only epoch is the shutdown epoch.
    assert!(svc.start_miner(std::time::Duration::from_secs(3600)));
    svc.shutdown().expect("miner was running");
    assert_eq!(
        svc.snapshot().index_generation(),
        gen0 + 1,
        "one swap per rebuild"
    );
    assert!(!svc.read(|c| c.storage.index_rebuild_pending()));
}

// ---------------------------------------------------------------------
// Sharded deployments: writer storms spread over independent shard
// locks, merged reads racing them.
// ---------------------------------------------------------------------

/// Digest a sharded deployment by folding every shard's state — the same
/// order-independent axes `digest` uses for one service.
fn sharded_digest(s: &cqms::engine::ShardedCqms) -> StateDigest {
    let mut per_user = BTreeMap::new();
    let mut sqls = Vec::new();
    let mut popularity: BTreeMap<u64, u32> = BTreeMap::new();
    let mut total = 0usize;
    for shard in s.shards() {
        shard.read(|c| {
            for r in c.storage.iter() {
                *per_user.entry(r.user.0).or_insert(0) += 1;
                sqls.push(r.raw_sql.to_string());
            }
            for (fp, n) in c.storage.template_histogram() {
                *popularity.entry(fp).or_insert(0) += n;
            }
            total += c.storage.len();
        });
    }
    sqls.sort();
    StateDigest {
        total,
        live: s.live_count(),
        popularity: popularity.into_iter().collect(),
        per_user,
        sqls,
    }
}

/// An 8-writer storm over a sharded deployment — writers on different
/// shards never contend — with readers hammering the *merged* read path
/// throughout, must land on exactly the single-threaded unsharded state
/// (ids aside: the stripe is the sharded deployment's id space).
///
/// Uses the default config, so CI's `CQMS_SHARDS` lever controls the
/// shard count exercised here.
#[test]
fn sharded_concurrent_replay_matches_single_threaded() {
    use cqms::engine::ShardedCqms;

    let trace = test_trace();
    let expected = sequential_digest(&trace);

    let s = ShardedCqms::new(|| trace.build_engine(), CqmsConfig::default());
    assert!(s.shard_count() >= 1);
    let users: Vec<UserId> = (0..USERS)
        .map(|i| s.register_user(&format!("user-{i}")))
        .collect();

    let done = AtomicBool::new(false);
    let read_ops = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for r in 0..3usize {
            let s = s.clone();
            let user = users[r % users.len()];
            let done = &done;
            let read_ops = &read_ops;
            scope.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    match i % 4 {
                        0 => {
                            let hits = s.search_keyword(user, "watertemp", 5);
                            assert!(hits.len() <= 5);
                            // The merge discipline holds mid-storm:
                            // (score desc, id asc), never torn.
                            for w in hits.windows(2) {
                                assert!(
                                    w[0].score > w[1].score
                                        || (w[0].score == w[1].score && w[0].id < w[1].id),
                                    "merged ordering violated: {hits:?}"
                                );
                            }
                        }
                        1 => {
                            let hits = s
                                .similar_queries(
                                    user,
                                    "SELECT * FROM WaterTemp WHERE temp < 18",
                                    5,
                                    cqms::engine::similarity::DistanceKind::Features,
                                )
                                .expect("merged kNN failed mid-storm");
                            assert!(hits.len() <= 5);
                        }
                        2 => {
                            let live_before = s.live_count();
                            let live_after = s.live_count();
                            assert!(live_after >= live_before, "live count went backwards");
                        }
                        _ => {
                            let res = s
                                .search_feature_sql(user, "SELECT qid FROM Queries")
                                .expect("merged meta-query failed");
                            assert!(res.columns.iter().any(|c| c == "qid"));
                        }
                    }
                    read_ops.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }

        let counts = trace.replay_concurrent(8, |_thread, q| {
            s.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
                .expect("profiling never hard-fails");
        });
        assert_eq!(counts.iter().sum::<usize>(), trace.queries.len());
        done.store(true, Ordering::Relaxed);
    });
    assert!(read_ops.load(Ordering::Relaxed) > 0, "readers never ran");

    let got = sharded_digest(&s);
    assert_eq!(got, expected, "sharded storm diverged from sequential");
}

/// Merged kNN racing per-shard generation rebuilds and a writer: the
/// k-way merge must stay exact while every shard is swapping index
/// generations underneath it. Afterwards, the merged registry-served
/// top-k must equal a global brute-force scan — proof that no mid-merge
/// rebuild tore a shard's contribution.
#[test]
fn sharded_readers_race_per_shard_rebuilds() {
    use cqms::engine::metaquery::ScoredHit;
    use cqms::engine::similarity::{self, DistanceKind};
    use cqms::engine::ShardedCqms;

    let trace = test_trace();
    let config = CqmsConfig {
        shards: 4,
        ..CqmsConfig::default()
    };
    let s = ShardedCqms::new(|| trace.build_engine(), config);
    let users: Vec<UserId> = (0..USERS)
        .map(|i| s.register_user(&format!("user-{i}")))
        .collect();
    for q in trace.queries.iter().take(120) {
        s.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts)
            .expect("profiling never hard-fails");
    }
    for shard in s.shards() {
        shard.write(|c| c.storage.schedule_index_rebuild());
    }
    assert_eq!(s.rebuild_indexes(), 4, "every shard sealed a generation");

    const PROBE: &str = "SELECT * FROM WaterTemp WHERE temp < 18";
    let done = AtomicBool::new(false);
    let probes = AtomicUsize::new(0);
    let rebuilds = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for r in 0..3usize {
            let s = s.clone();
            let user = users[r % users.len()];
            let (done, probes) = (&done, &probes);
            scope.spawn(move || {
                let mut i = 0usize;
                while !done.load(Ordering::Relaxed) {
                    let metric = if i.is_multiple_of(2) {
                        DistanceKind::TreeEdit
                    } else {
                        DistanceKind::ParseTree
                    };
                    let hits = s
                        .similar_queries(user, PROBE, 5, metric)
                        .expect("merged probe failed mid-rebuild");
                    assert!(hits.len() <= 5);
                    probes.fetch_add(1, Ordering::Relaxed);
                    i += 1;
                }
            });
        }
        {
            let s = s.clone();
            let (done, rebuilds) = (&done, &rebuilds);
            scope.spawn(move || {
                while !done.load(Ordering::Relaxed) {
                    for shard in s.shards() {
                        shard.write(|c| c.storage.schedule_index_rebuild());
                    }
                    rebuilds.fetch_add(s.rebuild_indexes(), Ordering::Relaxed);
                }
            });
        }
        let s2 = s.clone();
        let done = &done;
        let users = &users;
        let queries: Vec<(u32, String)> = trace
            .queries
            .iter()
            .skip(120)
            .take(150)
            .map(|q| (q.user, q.sql.clone()))
            .collect();
        scope.spawn(move || {
            for (u, sql) in queries {
                let _ = s2.run_query(users[u as usize % users.len()], &sql);
            }
            done.store(true, Ordering::Relaxed);
        });
    });
    assert!(probes.load(Ordering::Relaxed) > 0, "readers never probed");
    assert!(rebuilds.load(Ordering::Relaxed) > 0, "no rebuild raced");

    // Exactness after the dust settles: merged top-k == global brute force.
    let viewer = users[0];
    for metric in [DistanceKind::TreeEdit, DistanceKind::ParseTree] {
        let got = s.similar_queries(viewer, PROBE, 5, metric).expect("probe");
        let mut want: Vec<ScoredHit> = Vec::new();
        for (i, shard) in s.shards().iter().enumerate() {
            shard.read(|c| {
                let probe = NewRecord::probe(viewer, PROBE).unwrap();
                let psig = c.storage.probe_signature(&probe);
                for r in c.storage.iter_live() {
                    want.push(ScoredHit {
                        id: s.globalize(i, r.id),
                        score: 1.0
                            - similarity::distance_with(
                                &probe,
                                &psig,
                                r,
                                c.storage.signature(r.id).unwrap(),
                                metric,
                                &c.config,
                            ),
                    });
                }
            });
        }
        want.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then_with(|| a.id.cmp(&b.id))
        });
        want.truncate(5);
        assert_eq!(
            got, want,
            "{metric:?} merged kNN diverged after racing rebuilds"
        );
    }
}
