//! E10 — concurrent read throughput of the service layer.
//!
//! The paper's online components must answer interactive requests from many
//! analysts at once while background work proceeds (§4, Fig. 4). This bench
//! measures the read path of `CqmsService` — completion, keyword search and
//! SQL meta-query search — at 1/2/4/8 reader threads with one continuous
//! writer ingesting in the background.
//!
//! Each measured closure performs a *fixed total* of `READ_OPS` operations
//! split evenly across the reader threads, so scaling shows up directly as
//! falling mean time (4 readers ≥ 2× the 1-reader ops/sec means the
//! 4-reader mean is ≤ half the 1-reader mean). Every reader count gets a
//! fresh service + writer so the log size at measurement time is identical
//! across configurations.
//!
//! PR 7 adds the sharded axes: `writers_sharded/{1,4,8}` (a fixed batch
//! of writes fanned over 8 threads against N independently write-locked
//! shards) and `sharded_read/{idle,storm8}` (merged cross-shard reads
//! with and without an 8-writer storm).
//!
//! PR 8 adds the overload axes: `overload/uncontended` vs `overload/shed`
//! (the same fixed quota of *admitted* writes, alone vs racing a 4-thread
//! storm against a depth-2 admission gate — fast-fail shedding keeps the
//! admitted latency close) and `overload/deadline` (a budgeted cross-shard
//! read against an injected 50 ms slow shard: the deadline, not the slow
//! shard, bounds the caller).
//!
//! PR 10 adds the snapshot axes: `snapshot_read/{idle,writer_storm,
//! rebuild_storm}` — reads served from the published one-`Arc`
//! `ReadSnapshot` while nothing, a writer storm or a rebuild storm runs.

use cqms_bench::logged_cqms;
use cqms_core::model::UserId;
use cqms_core::service::CqmsService;
use cqms_core::shard::ShardedCqms;
use cqms_core::CqmsConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use workload::{Domain, Trace, TraceConfig};

/// Total read operations per measured iteration (divisible by 1, 2, 4, 8).
const READ_OPS: usize = 120;

/// One reader's share of the snapshot-served rotation (completion,
/// keyword and substring search). Each op clones the published snapshot
/// under a momentary slot lock and scores lock-free.
fn snapshot_read_ops(svc: &CqmsService, user: UserId, ops: usize) {
    for i in 0..ops {
        let snap = svc.snapshot();
        match i % 3 {
            0 => {
                std::hint::black_box(snap.complete(user, "SELECT * FROM WaterSalinity, ", 5));
            }
            1 => {
                std::hint::black_box(snap.search_keyword(user, "temp", 10));
            }
            _ => {
                std::hint::black_box(snap.search_substring(user, "watertemp"));
            }
        }
    }
}

/// One reader's share of the workload: a fixed rotation over the three
/// online read paths.
fn read_ops(svc: &CqmsService, user: UserId, ops: usize) {
    for i in 0..ops {
        match i % 3 {
            0 => {
                std::hint::black_box(svc.snapshot().complete(
                    user,
                    "SELECT * FROM WaterSalinity, ",
                    5,
                ));
            }
            1 => {
                std::hint::black_box(svc.snapshot().search_keyword(user, "temp", 10));
            }
            _ => {
                std::hint::black_box(
                    svc.search_feature_sql(
                        user,
                        "SELECT qid FROM DataSources WHERE relName = 'watertemp'",
                    )
                    .unwrap(),
                );
            }
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e10_concurrency");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2));

    for readers in [1usize, 2, 4, 8] {
        // Fresh state per configuration: same initial log size for every
        // reader count, unpolluted by the previous writer.
        let lc = logged_cqms(Domain::Lakes, 1500, 0xE10);
        let users = lc.users.clone();
        let svc = CqmsService::new(lc.cqms);
        let user = users[0];

        // One writer ingesting continuously while readers are measured.
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let svc = svc.clone();
            let stop = stop.clone();
            let writer_user = users[1];
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let sql = format!("SELECT * FROM WaterTemp WHERE temp < {}", i % 30);
                    let _ = svc.run_query(writer_user, &sql);
                    i += 1;
                    std::thread::sleep(Duration::from_millis(2));
                }
                i
            })
        };

        let per_thread = READ_OPS / readers;
        group.bench_function(BenchmarkId::new("readers", readers), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..readers {
                        let svc = svc.clone();
                        s.spawn(move || read_ops(&svc, user, per_thread));
                    }
                });
            })
        });

        stop.store(true, Ordering::Relaxed);
        let written = writer.join().expect("writer thread panicked");
        assert!(written > 0, "writer never ran");
    }

    // Reader-threads-during-rebuild config: the same fixed read batch,
    // but instead of a writer, a background thread continuously forces
    // double-buffered index rebuilds (schedule → build under the read
    // lock → publish swap). Readers keep serving the published
    // generation; the gap to the plain `readers` axis is the cost of
    // racing a rebuild instead of stopping the world for one.
    for readers in [1usize, 4] {
        let lc = logged_cqms(Domain::Lakes, 1500, 0xE10);
        let users = lc.users.clone();
        let svc = CqmsService::new(lc.cqms);
        let user = users[0];

        let stop = Arc::new(AtomicBool::new(false));
        let rebuilder = {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rebuilds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    svc.write(|c| c.storage.schedule_index_rebuild());
                    if svc.rebuild_indexes() {
                        rebuilds += 1;
                    }
                }
                rebuilds
            })
        };

        let per_thread = READ_OPS / readers;
        group.bench_function(BenchmarkId::new("readers_rebuild", readers), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..readers {
                        let svc = svc.clone();
                        s.spawn(move || read_ops(&svc, user, per_thread));
                    }
                });
            })
        });

        stop.store(true, Ordering::Relaxed);
        let rebuilds = rebuilder.join().expect("rebuilder thread panicked");
        assert!(rebuilds > 0, "rebuilder never published a generation");
    }

    // Sharded write throughput (PR 7): the same fixed batch of writes,
    // fanned over 8 writer threads, against 1/4/8 shards. With one shard
    // every writer serialises on the single write lock; with N shards
    // only same-shard writers contend, so the mean should fall roughly
    // with the shard count until routing collisions dominate.
    const WRITE_OPS: usize = 96;
    const WRITERS: usize = 8;
    for shards in [1usize, 4, 8] {
        let (s, _) = sharded_logged(shards);
        // Pick writer users that spread evenly over the shards (writer t
        // on shard t % N), so the axis measures lock contention, not
        // routing luck at a tiny user count.
        let mut writer_users: Vec<UserId> = Vec::with_capacity(WRITERS);
        let mut candidate = 0usize;
        while writer_users.len() < WRITERS {
            let u = s.register_user(&format!("writer-{candidate}"));
            candidate += 1;
            if s.shard_of(u) == writer_users.len() % shards {
                writer_users.push(u);
            }
        }
        let per_thread = WRITE_OPS / WRITERS;
        group.bench_function(BenchmarkId::new("writers_sharded", shards), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for (t, &u) in writer_users.iter().enumerate() {
                        let s = s.clone();
                        scope.spawn(move || {
                            for i in 0..per_thread {
                                let sql = format!(
                                    "SELECT * FROM WaterTemp WHERE temp < {}",
                                    (t * per_thread + i) % 30
                                );
                                std::hint::black_box(s.run_query(u, &sql).unwrap());
                            }
                        });
                    }
                });
            })
        });
    }

    // Sharded read latency, idle vs under an 8-writer storm: with writes
    // spread across 8 independently-locked shards and the per-shard read
    // path epoch-based, a full writer storm should cost readers well
    // under 2× the idle figure. Each iteration is self-contained — the
    // read batch races 8 writers pushing a *fixed* quota of churned
    // writes (insert + tombstone of the previous one), so the log stays
    // near its seeded size and every sample measures the same workload
    // instead of an ever-growing store.
    const STORM_WRITES: usize = 12;
    for (label, storm_writers) in [("idle", 0usize), ("storm8", 8)] {
        let (s, users) = sharded_logged(8);
        let user = users[0];
        let writer_users: Vec<UserId> = (0..storm_writers)
            .map(|w| s.register_user(&format!("storm-{w}")))
            .collect();

        group.bench_function(BenchmarkId::new("sharded_read", label), |b| {
            b.iter(|| {
                std::thread::scope(|scope| {
                    for (w, &u) in writer_users.iter().enumerate() {
                        let s = s.clone();
                        scope.spawn(move || {
                            let mut prev = None;
                            for i in 0..STORM_WRITES {
                                let sql = format!(
                                    "SELECT * FROM WaterTemp WHERE temp < {}",
                                    (w * STORM_WRITES + i) % 30
                                );
                                if let Ok(out) = s.run_query(u, &sql) {
                                    if let Some(old) = prev.replace(out.id) {
                                        let _ = s.delete_query(u, old);
                                    }
                                }
                            }
                        });
                    }
                    sharded_read_ops(&s, user, READ_OPS);
                });
            })
        });
    }

    // Overload axes (PR 8). Both writer axes measure the *same* fixed
    // quota of admitted writes by one victim thread — `uncontended` alone,
    // `shed` while a 4-thread storm hammers a depth-2 admission gate. A
    // shed request fails fast with a retry hint instead of queueing on the
    // write lock, so the victim's admitted latency under 4× overload
    // should stay within ~2× of the uncontended figure (the PR 8
    // acceptance bound; BENCH_pr8.json anchors both axes).
    const ADMITTED_OPS: usize = 48;
    let run_admitted = |svc: &CqmsService, user: UserId, ops: usize| {
        for i in 0..ops {
            let sql = format!("SELECT * FROM WaterTemp WHERE temp < {}", i % 30);
            loop {
                match svc.run_query(user, &sql) {
                    Ok(out) => {
                        std::hint::black_box(out);
                        break;
                    }
                    // Overloaded: a shed is a cheap fast-fail, so the
                    // retry costs a scheduler yield, not a queue wait;
                    // the retry loop IS the measured admitted latency.
                    Err(_) => std::thread::yield_now(),
                }
            }
        }
    };
    for (label, storm_threads) in [("uncontended", 0usize), ("shed", 4)] {
        let lc = logged_cqms(Domain::Lakes, 1500, 0xE10);
        let users = lc.users.clone();
        let mut cqms = lc.cqms;
        cqms.config.ingest_queue_depth = 2;
        let svc = CqmsService::new(cqms);
        let victim = users[0];

        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..storm_threads)
            .map(|h| {
                let svc = svc.clone();
                let stop = stop.clone();
                let u = users[1 + h];
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    let mut shed = 0u64;
                    while !stop.load(Ordering::Relaxed) {
                        let sql = format!("SELECT * FROM WaterTemp WHERE temp < {}", i % 30);
                        if svc.run_query(u, &sql).is_err() {
                            shed += 1;
                        }
                        // Paced offered load: each storm thread offers up
                        // to ~1000 req/s whether shed or admitted, so the
                        // axis measures gate behavior, not a CPU-spin
                        // denial of service on small runners.
                        std::thread::sleep(Duration::from_millis(1));
                        i += 1;
                    }
                    shed
                })
            })
            .collect();

        group.bench_function(BenchmarkId::new("overload", label), |b| {
            b.iter(|| run_admitted(&svc, victim, ADMITTED_OPS))
        });

        stop.store(true, Ordering::Relaxed);
        let shed: u64 = hammers
            .into_iter()
            .map(|h| h.join().expect("hammer thread panicked"))
            .sum();
        if storm_threads > 0 {
            assert!(shed > 0, "the storm never tripped the gate");
        }
    }

    // Deadline axis: a budgeted cross-shard keyword read against a
    // 4-shard deployment where one shard is injected to answer 50 ms
    // late. The 20 ms budget — not the slow shard — bounds each call;
    // compare with `sharded_read/idle` for the undeadlined figure.
    {
        use cqms_core::faults::{self, FaultAction};
        let (s, users) = sharded_logged(4);
        let user = users[0];
        let plan = s.shards()[3].fault_plan();
        plan.arm(
            faults::SHARD_READ,
            FaultAction::Delay(Duration::from_millis(50)),
            None,
        );
        group.bench_function(BenchmarkId::new("overload", "deadline"), |b| {
            b.iter(|| {
                std::hint::black_box(s.search_keyword_deadline(
                    user,
                    "temp",
                    10,
                    Duration::from_millis(20),
                ))
            })
        });
        plan.disarm_all();
    }

    // Snapshot reads (PR 10): a fixed batch of snapshot-served ops
    // (completion + keyword + substring), 4 reader threads, under three
    // conditions — idle, an 8-writer storm, and a rebuild storm
    // (continuously forced generation rebuilds). A reader clones the
    // published Arc and never touches the store lock, so the storms cost
    // it only the CPU they take.
    const SNAP_READERS: usize = 4;
    for (label, storm_writers, rebuild) in [
        ("idle", 0usize, false),
        ("writer_storm", 8, false),
        ("rebuild_storm", 0, true),
    ] {
        let lc = logged_cqms(Domain::Lakes, 1500, 0xE10);
        let users = lc.users.clone();
        let svc = CqmsService::new(lc.cqms);
        let user = users[0];

        let stop = Arc::new(AtomicBool::new(false));
        let writers: Vec<_> = (0..storm_writers)
            .map(|w| {
                let svc = svc.clone();
                let stop = stop.clone();
                let u = users[1 + w % (users.len() - 1)];
                std::thread::spawn(move || {
                    let mut i = 0u64;
                    let mut prev = None;
                    while !stop.load(Ordering::Relaxed) {
                        let sql = format!(
                            "SELECT * FROM WaterTemp WHERE temp < {}",
                            (w as u64 * 97 + i) % 30
                        );
                        // Churned writes (insert + tombstone of the
                        // previous one) keep the log near its seeded
                        // size across samples.
                        if let Ok(out) = svc.run_query(u, &sql) {
                            if let Some(old) = prev.replace(out.id) {
                                let _ = svc.delete_query(u, old);
                            }
                        }
                        std::thread::sleep(Duration::from_millis(1));
                        i += 1;
                    }
                    i
                })
            })
            .collect();
        let rebuilder = rebuild.then(|| {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rebuilds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    svc.write(|c| c.storage.schedule_index_rebuild());
                    if svc.rebuild_indexes() {
                        rebuilds += 1;
                    }
                }
                rebuilds
            })
        });

        let per_thread = READ_OPS / SNAP_READERS;
        group.bench_function(BenchmarkId::new("snapshot_read", label), |b| {
            b.iter(|| {
                std::thread::scope(|s| {
                    for _ in 0..SNAP_READERS {
                        let svc = svc.clone();
                        s.spawn(move || snapshot_read_ops(&svc, user, per_thread));
                    }
                });
            })
        });

        stop.store(true, Ordering::Relaxed);
        for w in writers {
            w.join().expect("storm writer panicked");
        }
        if let Some(r) = rebuilder {
            let rebuilds = r.join().expect("rebuilder thread panicked");
            assert!(rebuilds > 0, "rebuilder never published a generation");
        }
    }
    group.finish();
}

/// Build a sharded deployment replaying the same 1500-query trace the
/// unsharded axes use (`logged_cqms(Domain::Lakes, 1500, 0xE10)`).
fn sharded_logged(shards: usize) -> (ShardedCqms, Vec<UserId>) {
    let trace = Trace::generate(
        TraceConfig::new(Domain::Lakes)
            .with_sessions(300)
            .with_users(6)
            .with_scale(300)
            .with_seed(0xE10),
    );
    let config = CqmsConfig {
        shards,
        ..CqmsConfig::default()
    };
    let s = ShardedCqms::new(|| trace.build_engine(), config);
    let users: Vec<UserId> = (0..6)
        .map(|i| s.register_user(&format!("user-{i}")))
        .collect();
    for q in &trace.queries {
        let _ = s.run_query_at(users[q.user as usize % users.len()], &q.sql, q.ts);
    }
    (s, users)
}

/// The cross-shard mirror of [`read_ops`]: the same rotation over the
/// three online read paths, served by k-way merges.
fn sharded_read_ops(s: &ShardedCqms, user: UserId, ops: usize) {
    for i in 0..ops {
        match i % 3 {
            0 => {
                std::hint::black_box(s.complete(user, "SELECT * FROM WaterSalinity, ", 5));
            }
            1 => {
                std::hint::black_box(s.search_keyword(user, "temp", 10));
            }
            _ => {
                std::hint::black_box(
                    s.search_feature_sql(
                        user,
                        "SELECT qid FROM DataSources WHERE relName = 'watertemp'",
                    )
                    .unwrap(),
                );
            }
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
