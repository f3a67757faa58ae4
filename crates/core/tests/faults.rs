//! Chaos suite: the robustness promises of PR 8 under injected faults.
//!
//! Every test here drives a *deterministic* failpoint from
//! `cqms_core::faults` — a WAL device that errors, a shard that answers
//! slowly, a miner epoch that panics — and pins the contract the system
//! keeps while degraded:
//!
//! * **Durability acknowledgement**: an `Ok` from the ingest path is a
//!   durability promise; a shed or flush-failed slot is *never* one. The
//!   oracle is `MemLog::recover()` — the storage a crash right now would
//!   leave behind.
//! * **Admission**: the depth gate sheds fast (while the write lock is
//!   still held by someone else) and the per-user token bucket starves
//!   only the heavy user, never neighbors.
//! * **Deadline reads**: a slow shard costs its hits, not the caller's
//!   latency — and the partial answer is provably consistent with the
//!   full (and unsharded) answer.
//! * **Self-healing**: the background miner survives an injected epoch
//!   panic; transient WAL sync/snapshot faults are retried away; a
//!   corrupt shard directory degrades one shard, not the deployment.

use cqms_core::faults::{self, FaultAction, FaultPlan};
use cqms_core::model::*;
use cqms_core::similarity::DistanceKind;
use cqms_core::wal::{MemSink, WalWriter};
use cqms_core::{Cqms, CqmsConfig, CqmsError, CqmsService, FaultySink, IngestItem, ShardedCqms};
use relstore::Engine;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::Domain;

fn engine() -> Engine {
    let mut e = Engine::new();
    Domain::Lakes.setup(&mut e, 60, 3);
    e
}

fn ram_config() -> CqmsConfig {
    CqmsConfig {
        wal_fsync: false,
        ..CqmsConfig::default()
    }
}

/// A RAM service whose WAL is an in-memory sink behind a [`FaultySink`]:
/// returns the service, the plan that faults the *sink*, and the shared
/// log handle (`log.lock().recover()` = what a crash now would recover).
fn faulty_wal_service(
    config: CqmsConfig,
) -> (
    CqmsService,
    Arc<FaultPlan>,
    Arc<parking_lot::Mutex<cqms_core::wal::MemLog>>,
) {
    let (sink, log) = MemSink::new();
    let plan = Arc::new(FaultPlan::new());
    let mut cqms = Cqms::new(engine(), config);
    cqms.storage.attach_wal(WalWriter::new(
        Box::new(FaultySink::new(Box::new(sink), plan.clone())),
        1,
    ));
    (CqmsService::new(cqms), plan, log)
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cqms-faults-{tag}-{}", std::process::id()))
}

// ---------------------------------------------------------------------
// Durability acknowledgement under WAL faults
// ---------------------------------------------------------------------

/// A failing WAL sync rejects the whole batch — and nothing the batch
/// wrote is durable. Once the device recovers, the next batch is
/// acknowledged and durable. (An earlier *unacknowledged* batch may also
/// become durable then: `Ok` promises durability, `Err` promises
/// nothing either way.)
#[test]
fn wal_sync_failure_rejects_batch_and_nothing_rejected_is_promised() {
    let (svc, plan, log) = faulty_wal_service(ram_config());
    let user = svc.register_user("alice");

    plan.arm(faults::WAL_SYNC, FaultAction::Fail, None);
    let batch: Vec<IngestItem> = (0..2)
        .map(|i| {
            IngestItem::at(
                user,
                format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
        })
        .collect();
    let acks = svc.ingest_batch(&batch);
    assert!(
        acks.iter().all(|a| a.is_err()),
        "flush failure must reject every slot: {acks:?}"
    );
    let (crashed, _) = log.lock().recover().expect("recover");
    assert_eq!(crashed.len(), 0, "nothing rejected may be durable yet");

    // Device heals: the next batch is acknowledged and durable.
    plan.disarm_all();
    let batch2: Vec<IngestItem> = (0..2)
        .map(|i| {
            IngestItem::at(
                user,
                format!("SELECT salinity FROM WaterSalinity WHERE salinity > {i}"),
                2_000 + i * 60,
            )
        })
        .collect();
    let acks2 = svc.ingest_batch(&batch2);
    assert!(acks2.iter().all(|a| a.is_ok()), "{acks2:?}");
    let (recovered, report) = log.lock().recover().expect("recover");
    assert_eq!(report.frames_failed, 0);
    // The healed sync also lands the first batch's already-appended
    // frames: un-acked writes MAY become durable — they're simply never
    // promised. All four records exist both live and durably.
    assert_eq!(recovered.len(), 4);
    assert_eq!(svc.snapshot().live_count(), 4);
}

/// **Pins the documented `ingest_batch` partial-failure semantics**: a
/// rate-shed slot gets `Overloaded`, is never executed and never becomes
/// durable; admitted slots in the *same* batch are acknowledged and
/// flushed as usual.
#[test]
fn overloaded_slot_is_never_durable_admitted_slots_flush() {
    let config = CqmsConfig {
        // A one-token bucket that effectively never refills: the second
        // item from the same user in one batch must be shed.
        user_rate_limit: 1e-9,
        user_rate_burst: 1.0,
        ..ram_config()
    };
    let (svc, _plan, log) = faulty_wal_service(config);
    let alice = svc.register_user("alice");
    let bob = svc.register_user("bob");

    let batch = vec![
        IngestItem::at(alice, "SELECT * FROM Lakes", 1_000),
        IngestItem::at(alice, "SELECT * FROM CityLocations", 1_060),
        IngestItem::at(bob, "SELECT salinity FROM WaterSalinity", 1_120),
    ];
    let acks = svc.ingest_batch(&batch);
    assert!(acks[0].is_ok(), "alice's first item is admitted: {acks:?}");
    match &acks[1] {
        Err(CqmsError::Overloaded { retry_after_ms }) => {
            assert!(*retry_after_ms > 0, "shed slots carry a retry hint")
        }
        other => panic!("second alice item must be rate-shed, got {other:?}"),
    }
    assert!(acks[2].is_ok(), "bob is a different bucket: {acks:?}");

    // The durability oracle: admitted slots are on disk, the shed slot
    // is nowhere — not merely unacknowledged but never executed.
    let (recovered, _) = log.lock().recover().expect("recover");
    let durable: Vec<&str> = recovered.iter().map(|r| &*r.raw_sql).collect();
    assert!(durable.contains(&"SELECT * FROM Lakes"));
    assert!(durable.contains(&"SELECT salinity FROM WaterSalinity"));
    assert!(
        !durable.contains(&"SELECT * FROM CityLocations"),
        "an Overloaded slot must never reach the log"
    );
    assert_eq!(
        svc.snapshot().live_count(),
        2,
        "the shed slot never executed"
    );
}

// ---------------------------------------------------------------------
// Admission: token-bucket starvation and depth-gate shedding
// ---------------------------------------------------------------------

/// A heavy user drains *their* bucket and starves; a neighbor sharing the
/// same service keeps being admitted.
#[test]
fn token_bucket_starves_heavy_user_not_neighbors() {
    let config = CqmsConfig {
        user_rate_limit: 0.5,
        user_rate_burst: 2.0,
        ..ram_config()
    };
    let svc = CqmsService::new(Cqms::new(engine(), config));
    let alice = svc.register_user("alice");
    let bob = svc.register_user("bob");

    assert!(svc.run_query(alice, "SELECT * FROM Lakes").is_ok());
    assert!(svc.run_query(alice, "SELECT * FROM CityLocations").is_ok());
    // Burst spent; at 0.5 tokens/s the third immediate request sheds.
    match svc.run_query(alice, "SELECT * FROM WaterTemp") {
        Err(CqmsError::Overloaded { retry_after_ms }) => {
            // One token at 0.5/s is ~2 s away; the hint must say so
            // (allowing for the sliver refilled since the burst).
            assert!(
                (1..=2_000).contains(&retry_after_ms),
                "retry hint {retry_after_ms} ms"
            );
        }
        other => panic!("heavy user must be rate-shed, got {other:?}"),
    }
    // The neighbor is untouched by alice's starvation.
    assert!(svc
        .run_query(bob, "SELECT salinity FROM WaterSalinity")
        .is_ok());
    let stats = svc.admission().stats();
    assert_eq!(stats.shed_rate_limited, 1);
    assert_eq!(stats.admitted, 3);
}

/// With the write lock held elsewhere and the gate at depth 2, exactly
/// two writers queue on the lock and every other writer is shed *while
/// the lock is still held* — the fast-fail the paper's interactive
/// clients need (a shed completion keystroke retries; it must not hang).
#[test]
fn depth_gate_sheds_fast_while_writer_holds_lock() {
    let config = CqmsConfig {
        ingest_queue_depth: 2,
        ..ram_config()
    };
    let svc = CqmsService::new(Cqms::new(engine(), config));
    let user = svc.register_user("alice");

    let shared = svc.shared();
    let guard = shared.write(); // the "stuck writer"
    let (tx, rx) = std::sync::mpsc::channel();
    for t in 0..8 {
        let svc = svc.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let res = svc.run_query(user, &format!("SELECT * FROM Lakes WHERE area > {t}"));
            let _ = tx.send(res);
        });
    }
    drop(tx);

    // All six sheds must happen while the guard is still held — that IS
    // the fast-fail property. Two threads sit admitted on the lock.
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.admission().stats().shed_overload < 6 {
        assert!(
            Instant::now() < deadline,
            "sheds never happened: {:?}",
            svc.admission().stats()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    drop(guard); // unstick the two admitted writers

    let results: Vec<_> = rx.iter().collect();
    assert_eq!(results.len(), 8);
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let shed = results
        .iter()
        .filter(|r| matches!(r, Err(CqmsError::Overloaded { .. })))
        .count();
    assert_eq!((ok, shed), (2, 6), "depth 2 admits exactly two");
    let stats = svc.admission().stats();
    assert!(stats.max_in_flight <= 2, "gate depth held: {stats:?}");
    assert_eq!(stats.in_flight, 0, "permits returned on completion");
}

// ---------------------------------------------------------------------
// Deadline reads against an injected slow shard
// ---------------------------------------------------------------------

/// A 3-shard deployment with a deterministic workload spread over every
/// shard, plus an unsharded reference fed the identical sequence. Returns
/// `(sharded, unsharded, map global-id → unsharded-id, a query user)`.
fn sharded_fixture() -> (ShardedCqms, CqmsService, HashMap<QueryId, QueryId>, UserId) {
    let config = CqmsConfig {
        shards: 3,
        ..ram_config()
    };
    let s = ShardedCqms::new(engine, config);
    let reference = CqmsService::new(Cqms::new(engine(), ram_config()));

    let users: Vec<UserId> = (0..6)
        .map(|i| s.register_user(&format!("user{i}")))
        .collect();
    let ref_users: Vec<UserId> = (0..6)
        .map(|i| reference.register_user(&format!("user{i}")))
        .collect();
    let mut covered = [false; 3];
    for &u in &users {
        covered[s.shard_of(u)] = true;
    }
    assert!(covered.iter().all(|&c| c), "6 users cover all 3 shards");

    let sqls = [
        "SELECT lake, temp FROM WaterTemp WHERE temp < 5",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 11",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 17",
        "SELECT lake FROM WaterTemp WHERE month = 3",
        "SELECT salinity FROM WaterSalinity WHERE salinity > 2",
        "SELECT * FROM Lakes",
        "SELECT city, pop FROM CityLocations WHERE pop > 1000",
        "SELECT temp FROM WaterTemp WHERE month = 8",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 23",
    ];
    let mut map = HashMap::new();
    for (i, sql) in sqls.iter().enumerate() {
        let (u, ru) = (users[i % 6], ref_users[i % 6]);
        let ts = 1_000 + i as u64 * 60;
        let gid = s.run_query_at(u, sql, ts).expect("sharded ingest").id;
        let rid = reference.run_query_at(ru, sql, ts).expect("ref ingest").id;
        map.insert(gid, rid);
    }
    for i in 0..3 {
        assert!(
            s.shards()[i].snapshot().live_count() > 0,
            "shard {i} nonempty"
        );
    }
    (s, reference, map, users[0])
}

/// **Acceptance test (deadline reads)**: with one shard injected to
/// answer slowly, a deadline kNN returns within the budget; the value is
/// an exact answer over the responsive shards — specifically, the full
/// merged top-k restricted to answering shards is a *prefix* of it, and
/// the full merge itself matches the unsharded oracle score-for-score.
#[test]
fn knn_deadline_partial_is_exact_prefix_of_full_answer() {
    let (s, reference, map, user) = sharded_fixture();
    let seed = "SELECT lake, temp FROM WaterTemp WHERE temp < 12";
    let k = 6;

    // The undeadlined sharded merge equals the unsharded oracle.
    let full = s
        .similar_queries(user, seed, k, DistanceKind::Features)
        .expect("full merge");
    let oracle = reference
        .snapshot()
        .similar_queries(UserId(0), seed, k, DistanceKind::Features)
        .expect("oracle");
    assert_eq!(full.len(), oracle.len());
    for (f, o) in full.iter().zip(&oracle) {
        assert_eq!(f.score.to_bits(), o.score.to_bits(), "score-exact merge");
        assert_eq!(map[&f.id], o.id, "same record at the same rank");
    }

    // Generous budget, no faults: bit-identical to the undeadlined call.
    let whole = s
        .similar_queries_deadline(
            user,
            seed,
            k,
            DistanceKind::Features,
            Duration::from_secs(10),
        )
        .expect("deadline read");
    assert!(!whole.partial);
    assert!(whole.lagging_shards.is_empty());
    assert_eq!(whole.value, full);

    // Inject: shard 2 answers reads 800 ms late; budget is 150 ms.
    let slow = 2usize;
    let plan = s.shards()[slow].fault_plan();
    plan.arm(
        faults::SHARD_READ,
        FaultAction::Delay(Duration::from_millis(800)),
        None,
    );
    let t0 = Instant::now();
    let partial = s
        .similar_queries_deadline(
            user,
            seed,
            k,
            DistanceKind::Features,
            Duration::from_millis(150),
        )
        .expect("deadline read");
    let elapsed = t0.elapsed();
    plan.disarm_all();

    assert!(
        elapsed < Duration::from_millis(650),
        "deadline bounded the call ({elapsed:?}); the slow shard sleeps 800 ms"
    );
    assert!(partial.partial);
    assert_eq!(partial.lagging_shards, vec![slow]);
    assert!(
        partial.value.iter().all(|h| s.locate(h.id).0 != slow),
        "no hit may come from the lagging shard"
    );
    // Exactness: the full top-k with the lagging shard's hits removed is
    // a prefix of the partial value (the partial then pulls up next-best
    // hits from the answering shards).
    let expect_prefix: Vec<_> = full.iter().filter(|h| s.locate(h.id).0 != slow).collect();
    assert!(partial.value.len() >= expect_prefix.len());
    for (p, e) in partial.value.iter().zip(&expect_prefix) {
        assert_eq!(p.id, e.id, "prefix property violated");
        assert_eq!(p.score.to_bits(), e.score.to_bits());
    }
}

/// Substring deadline reads: the partial value is *exactly* the full
/// answer minus the lagging shard's ids (no cross-shard scoring at all).
#[test]
fn substring_deadline_partial_equals_full_minus_lagging() {
    let (s, _reference, _map, user) = sharded_fixture();
    let full = s.search_substring(user, "WaterTemp");
    assert!(!full.is_empty());

    let slow = 1usize;
    let plan = s.shards()[slow].fault_plan();
    plan.arm(
        faults::SHARD_READ,
        FaultAction::Delay(Duration::from_millis(800)),
        None,
    );
    let t0 = Instant::now();
    let partial = s.search_substring_deadline(user, "WaterTemp", Duration::from_millis(150));
    let elapsed = t0.elapsed();
    plan.disarm_all();

    assert!(elapsed < Duration::from_millis(650), "bounded: {elapsed:?}");
    assert!(partial.partial);
    assert_eq!(partial.lagging_shards, vec![slow]);
    let expect: Vec<QueryId> = full
        .iter()
        .copied()
        .filter(|&id| s.locate(id).0 != slow)
        .collect();
    assert_eq!(partial.value, expect, "exact set minus the lagging shard");

    // Healed: the deadline call converges back to the full answer.
    let whole = s.search_substring_deadline(user, "WaterTemp", Duration::from_secs(10));
    assert!(!whole.partial);
    assert_eq!(whole.value, full);
}

/// Keyword deadline reads: with no lagging shard the two-pass protocol is
/// bit-identical to the undeadlined call; with a lagging shard the
/// answer covers only responsive shards (the documented weaker-IDF
/// guarantee) and still returns within budget.
#[test]
fn keyword_deadline_generous_budget_matches_undeadlined() {
    let (s, _reference, _map, user) = sharded_fixture();
    let full = s.search_keyword(user, "temp lake", 8);
    assert!(!full.is_empty());

    let whole = s.search_keyword_deadline(user, "temp lake", 8, Duration::from_secs(10));
    assert!(!whole.partial);
    assert!(whole.lagging_shards.is_empty());
    assert_eq!(whole.value, full, "two passes, same corpus, same bits");

    let slow = 0usize;
    let plan = s.shards()[slow].fault_plan();
    plan.arm(
        faults::SHARD_READ,
        FaultAction::Delay(Duration::from_millis(800)),
        None,
    );
    let t0 = Instant::now();
    let partial = s.search_keyword_deadline(user, "temp lake", 8, Duration::from_millis(150));
    let elapsed = t0.elapsed();
    plan.disarm_all();

    assert!(elapsed < Duration::from_millis(650), "bounded: {elapsed:?}");
    assert!(partial.partial);
    assert!(partial.lagging_shards.contains(&slow));
    assert!(
        partial.value.iter().all(|h| s.locate(h.id).0 != slow),
        "lagging shard contributes nothing"
    );
}

// ---------------------------------------------------------------------
// Self-healing: miner panics and transient write faults
// ---------------------------------------------------------------------

/// An injected panic inside a miner epoch must not kill the background
/// miner thread (or poison anything): the loop catches it, counts the
/// epoch as skipped, and later epochs run normally.
#[test]
fn miner_survives_injected_epoch_panic() {
    let svc = CqmsService::new(Cqms::new(engine(), ram_config()));
    let user = svc.register_user("alice");
    for i in 0..4u64 {
        svc.run_query_at(
            user,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 60,
        )
        .expect("ingest");
    }
    svc.fault_plan()
        .arm(faults::MINER_EPOCH, FaultAction::Panic, Some(1));
    assert!(svc.start_miner(Duration::from_millis(5)));
    let deadline = Instant::now() + Duration::from_secs(30);
    while svc.fault_plan().fired(faults::MINER_EPOCH) < 1 {
        assert!(Instant::now() < deadline, "panic failpoint never fired");
        std::thread::sleep(Duration::from_millis(2));
    }
    // The miner is still alive after the panic: stop joins the thread and
    // its graceful final epoch (now unarmed) completes.
    let epochs = svc
        .stop_miner()
        .expect("miner thread survived the injected panic");
    assert!(epochs >= 1, "post-panic epochs ran: {epochs}");
    // And the service still works end to end.
    assert!(svc.run_query(user, "SELECT * FROM Lakes").is_ok());
}

/// A transient WAL sync fault during the miner's post-epoch flush is
/// retried with backoff and never surfaces: two injected failures with a
/// three-attempt budget yield a clean report recording the two retries.
#[test]
fn miner_epoch_retries_transient_wal_sync_failure() {
    let (svc, plan, log) = faulty_wal_service(ram_config());
    let user = svc.register_user("alice");
    for i in 0..3u64 {
        svc.run_query_at(
            user,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 60,
        )
        .expect("ingest");
    }
    plan.arm(faults::WAL_SYNC, FaultAction::Fail, Some(2));
    let report = svc.run_miner_epoch();
    assert!(
        report.wal_flush_error.is_none(),
        "transient fault retried away: {:?}",
        report.wal_flush_error
    );
    assert_eq!(report.wal_flush_retries, 2, "both failures were absorbed");
    assert_eq!(plan.fired(faults::WAL_SYNC), 2);
    // Everything the epoch logged is durable after the healed flush.
    let (recovered, _) = log.lock().recover().expect("recover");
    assert_eq!(recovered.len(), 3);
}

/// A transient snapshot-write fault is likewise retried: `force_snapshot`
/// succeeds through one injected failure and the snapshot is durable.
#[test]
fn force_snapshot_retries_transient_write_failure() {
    let (sink, log) = MemSink::new();
    let plan = Arc::new(FaultPlan::new());
    let mut cqms = Cqms::new(engine(), ram_config());
    cqms.storage.attach_wal(WalWriter::new(
        Box::new(FaultySink::new(Box::new(sink), plan.clone())),
        1,
    ));
    let user = cqms.register_user("alice");
    for i in 0..3u64 {
        cqms.run_query_at(
            user,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 60,
        )
        .expect("ingest");
    }
    cqms.wal_flush().expect("flush");

    plan.arm(faults::SNAPSHOT_WRITE, FaultAction::Fail, Some(1));
    assert!(cqms
        .force_snapshot()
        .expect("snapshot retried through fault"));
    assert_eq!(plan.fired(faults::SNAPSHOT_WRITE), 1);
    // The snapshot is the durable state of record now.
    let (recovered, report) = log.lock().recover().expect("recover");
    assert!(report.snapshot_lsn > 0, "recovery starts from the snapshot");
    assert_eq!(recovered.len(), 3);
}

// ---------------------------------------------------------------------
// Degraded open: one corrupt shard directory
// ---------------------------------------------------------------------

/// **Pins the degraded-open contract**: a corrupt shard directory fails
/// the whole open with a per-shard error by default; with
/// `open_degraded` the healthy shards come up, the corrupt shard is
/// reported, reads serve the surviving data, and writes routed to the
/// dead shard bounce with `ShardUnavailable`.
#[test]
fn degraded_open_isolates_corrupt_shard() {
    let dir = temp_dir("degraded");
    let _ = std::fs::remove_dir_all(&dir);
    let config = CqmsConfig {
        shards: 2,
        ..CqmsConfig::default()
    };
    // Seed a healthy 2-shard deployment with a record on each shard.
    let mut user_on: Vec<Option<(String, UserId)>> = vec![None, None];
    {
        let s = ShardedCqms::open(engine, config.clone(), &dir).expect("seed open");
        for i in 0..6 {
            let name = format!("user{i}");
            let u = s.register_user(&name);
            let shard = s.shard_of(u);
            if user_on[shard].is_none() {
                user_on[shard] = Some((name, u));
            }
        }
        let (_, u0) = user_on[0].clone().expect("a user on shard 0");
        let (_, u1) = user_on[1].clone().expect("a user on shard 1");
        s.run_query(u0, "SELECT * FROM Lakes")
            .expect("shard-0 write");
        s.run_query(u1, "SELECT salinity FROM WaterSalinity")
            .expect("shard-1 write");
        s.shutdown();
    }

    // Corrupt shard 1: its WAL directory becomes a regular file.
    let shard1 = dir.join("shard-1");
    std::fs::remove_dir_all(&shard1).expect("remove shard dir");
    std::fs::write(&shard1, b"not a directory").expect("plant corruption");

    // Default: the open fails loudly, naming the shard.
    match ShardedCqms::open(engine, config.clone(), &dir) {
        Err(CqmsError::ShardOpen { shard, .. }) => assert_eq!(shard, 1),
        Err(other) => panic!("corrupt shard must name itself, got {other:?}"),
        Ok(_) => panic!("corrupt shard must fail the open by default"),
    }

    // Opted in: healthy shards come up read-serving; the corrupt shard is
    // reported and write-fenced.
    let degraded_config = CqmsConfig {
        open_degraded: true,
        ..config
    };
    let s = ShardedCqms::open(engine, degraded_config, &dir).expect("degraded open");
    assert_eq!(s.degraded_shards(), vec![1]);
    assert!(s.shard_recovery()[0].is_ok());
    assert!(s.shard_recovery()[1].is_err());
    assert_eq!(s.live_count(), 1, "shard 0's record survived");

    // Same registration order ⇒ same user ids ⇒ same routing.
    let mut u0 = None;
    let mut u1 = None;
    for i in 0..6 {
        let u = s.register_user(&format!("user{i}"));
        match s.shard_of(u) {
            0 if u0.is_none() => u0 = Some(u),
            1 if u1.is_none() => u1 = Some(u),
            _ => {}
        }
    }
    let (u0, u1) = (u0.unwrap(), u1.unwrap());
    // Reads serve the surviving shard's data.
    assert_eq!(s.search_substring(u0, "Lakes").len(), 1);
    // Writes: healthy shard accepts, degraded shard bounces.
    assert!(s.run_query(u0, "SELECT * FROM CityLocations").is_ok());
    match s.run_query(u1, "SELECT * FROM Lakes") {
        Err(CqmsError::ShardUnavailable { shard }) => assert_eq!(shard, 1),
        other => panic!("degraded shard must fence writes, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Override storm: bulk repair forces a publish
// ---------------------------------------------------------------------

/// A reindex storm (bulk `REINDEX` repair, §2.4) may not let the override
/// log grow without bound: at `OVERRIDE_PUBLISH_THRESHOLD` the storm pays
/// for an inline rebuild + publish, so outstanding overrides stay below
/// the bound no matter how many repairs arrive.
#[test]
fn override_storm_forces_inline_publish() {
    const BOUND: usize = cqms_core::indexreg::OVERRIDE_PUBLISH_THRESHOLD;
    let storm = 2 * BOUND as u64 + 32;
    let mut cqms = Cqms::new(engine(), ram_config());
    let user = cqms.register_user("alice");
    for i in 0..storm {
        cqms.run_query_at(
            user,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 60,
        )
        .expect("ingest");
    }
    let gen0 = cqms.storage.index_generation();
    for i in 0..storm {
        let sql = cqms.storage.get(QueryId(i)).unwrap().raw_sql.clone();
        let stmt = sqlparse::parse(&sql).ok();
        (cqms.storage)
            .reindex(QueryId(i), &sql, stmt.as_ref(), Some(&cqms.data.catalog))
            .expect("repair");
        assert!(
            cqms.storage.indexes().override_count() < BOUND,
            "override log bounded at the threshold (repair {i})"
        );
    }
    // 2·BOUND + 32 repairs ⇒ two forced publishes, 32 left over.
    assert_eq!(cqms.storage.indexes().override_count(), 32);
    assert!(
        cqms.storage.index_generation() >= gen0 + 2,
        "each forced publish advanced the generation"
    );
}

// ---------------------------------------------------------------------
// Shard repair supervisor (PR 9)
// ---------------------------------------------------------------------

/// Stash a shard directory behind `.bak` and plant a squatter file in its
/// place — an unrepairable-until-fixed disk fault that keeps the data.
fn stash_shard_dir(dir: &std::path::Path, shard: usize) {
    let shard_dir = dir.join(format!("shard-{shard}"));
    let bak = dir.join(format!("shard-{shard}.bak"));
    std::fs::rename(&shard_dir, &bak).expect("stash shard dir");
    std::fs::write(&shard_dir, b"disk fault").expect("plant squatter");
}

/// Undo [`stash_shard_dir`]: the original directory returns intact.
fn restore_shard_dir(dir: &std::path::Path, shard: usize) {
    let shard_dir = dir.join(format!("shard-{shard}"));
    let bak = dir.join(format!("shard-{shard}.bak"));
    std::fs::remove_file(&shard_dir).expect("evict squatter");
    std::fs::rename(&bak, &shard_dir).expect("restore shard dir");
}

/// Seed a 2-shard durable deployment with one record on each shard and
/// return a user routed to each.
fn seed_two_shards(dir: &std::path::Path, config: &CqmsConfig) -> (String, String) {
    let s = ShardedCqms::open(engine, config.clone(), dir).expect("seed open");
    let mut names: Vec<Option<String>> = vec![None, None];
    for i in 0..6 {
        let name = format!("user{i}");
        let u = s.register_user(&name);
        let shard = s.shard_of(u);
        if names[shard].is_none() {
            s.run_query(u, "SELECT * FROM Lakes").expect("seed write");
            names[shard] = Some(name);
        }
    }
    s.shutdown();
    (names[0].clone().unwrap(), names[1].clone().unwrap())
}

/// Re-register the seed users (same order ⇒ same ids) and return the one
/// routed to `shard`.
fn user_on_shard(s: &ShardedCqms, shard: usize) -> UserId {
    for i in 0..6 {
        let u = s.register_user(&format!("user{i}"));
        if s.shard_of(u) == shard {
            return u;
        }
    }
    panic!("no user routed to shard {shard}");
}

/// **Pins the tentpole contract**: the background supervisor re-attempts
/// a degraded shard on its own clock and, once the directory heals,
/// promotes it back to serving — writes un-fenced, data recovered —
/// while the healthy shard never stops serving.
#[test]
fn background_supervisor_promotes_healed_shard() {
    let dir = temp_dir("repair-auto");
    let _ = std::fs::remove_dir_all(&dir);
    let config = CqmsConfig {
        shards: 2,
        open_degraded: true,
        repair_interval_ms: 20,
        ..CqmsConfig::default()
    };
    seed_two_shards(&dir, &config);
    stash_shard_dir(&dir, 1);

    let s = ShardedCqms::open(engine, config, &dir).expect("degraded open");
    assert_eq!(s.degraded_shards(), vec![1]);
    assert!(
        s.repair_running(),
        "a degraded durable open auto-starts the supervisor"
    );
    // The healthy shard serves while the supervisor spins on the fault.
    let u0 = user_on_shard(&s, 0);
    assert!(s.run_query(u0, "SELECT * FROM CityLocations").is_ok());

    restore_shard_dir(&dir, 1);
    let deadline = Instant::now() + Duration::from_secs(5);
    while !s.degraded_shards().is_empty() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        s.degraded_shards(),
        Vec::<usize>::new(),
        "supervisor promoted"
    );
    assert!(
        s.shard_recovery()[1].is_ok(),
        "latest outcome is the recovery"
    );
    assert!(
        s.health()[1].repair_attempts >= 1,
        "attempts were recorded along the way"
    );
    // Un-fenced: the healed shard accepts writes again, and its seed
    // record survived the round trip.
    let u1 = user_on_shard(&s, 1);
    assert!(s.run_query(u1, "SELECT * FROM WaterSalinity").is_ok());
    assert!(
        s.search_substring(u1, "Lakes").len() >= 2,
        "both seed records"
    );
    s.shutdown();
    assert!(!s.repair_running(), "shutdown stops the supervisor");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `repair.attempt` failpoint fails attempts before any I/O: with a
/// budget of 2 on the shard's own plan, two manual epochs burn the budget
/// (each recording its error), and the third promotes.
#[test]
fn repair_attempt_failpoint_defers_promotion() {
    let dir = temp_dir("repair-failpoint");
    let _ = std::fs::remove_dir_all(&dir);
    let config = CqmsConfig {
        shards: 2,
        open_degraded: true,
        repair_interval_ms: 0, // manual epochs only
        ..CqmsConfig::default()
    };
    seed_two_shards(&dir, &config);
    stash_shard_dir(&dir, 1);
    let s = ShardedCqms::open(engine, config, &dir).expect("degraded open");
    assert!(!s.repair_running(), "interval 0 means manual mode");
    restore_shard_dir(&dir, 1); // the directory is fine; only the failpoint bites
    s.shards()[1]
        .fault_plan()
        .arm(faults::REPAIR_ATTEMPT, FaultAction::Fail, Some(2));

    assert_eq!(s.run_repair_epoch(), Vec::<usize>::new());
    let err = s.shard_recovery()[1].clone().unwrap_err();
    assert!(
        err.to_string().contains("repair attempt 1"),
        "failures are recorded per attempt: {err}"
    );
    assert_eq!(s.run_repair_epoch(), Vec::<usize>::new());
    assert_eq!(s.run_repair_epoch(), vec![1], "third attempt goes through");
    assert_eq!(s.health()[1].repair_attempts, 3);
    assert!(s.shard_recovery()[1].is_ok());
    s.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `repair_max_attempts` bounds the retry budget: once exhausted the
/// shard stays fenced — even after the directory heals — and reports
/// `Degraded` until a restart.
#[test]
fn repair_budget_exhaustion_keeps_shard_fenced() {
    use cqms_core::shard::ShardState;

    let dir = temp_dir("repair-budget");
    let _ = std::fs::remove_dir_all(&dir);
    let config = CqmsConfig {
        shards: 2,
        open_degraded: true,
        repair_interval_ms: 0,
        repair_max_attempts: 2,
        ..CqmsConfig::default()
    };
    seed_two_shards(&dir, &config);
    stash_shard_dir(&dir, 1);
    let s = ShardedCqms::open(engine, config, &dir).expect("degraded open");

    // Two attempts against the still-broken directory burn the budget.
    assert_eq!(s.run_repair_epoch(), Vec::<usize>::new());
    assert_eq!(s.run_repair_epoch(), Vec::<usize>::new());
    assert_eq!(s.health()[1].repair_attempts, 2);

    // Healing the disk now is too late for this process lifetime.
    restore_shard_dir(&dir, 1);
    assert_eq!(s.run_repair_epoch(), Vec::<usize>::new(), "budget is spent");
    assert_eq!(s.degraded_shards(), vec![1]);
    assert_eq!(s.health()[1].state, ShardState::Degraded);
    let u1 = user_on_shard(&s, 1);
    match s.run_query(u1, "SELECT * FROM Lakes") {
        Err(CqmsError::ShardUnavailable { shard }) => assert_eq!(shard, 1),
        other => panic!("exhausted shard must stay fenced, got {other:?}"),
    }
    s.shutdown();

    // A restart gets a fresh budget: the healed directory comes back.
    let config = CqmsConfig {
        shards: 2,
        open_degraded: true,
        repair_interval_ms: 0,
        repair_max_attempts: 2,
        ..CqmsConfig::default()
    };
    let s = ShardedCqms::open(engine, config, &dir).expect("healed open");
    assert_eq!(s.degraded_shards(), Vec::<usize>::new());
    s.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `wal.quarantine` failpoint fails the quarantine move itself: an
/// open that *needs* to quarantine propagates the error instead of
/// silently dropping evidence; once the failpoint clears, the open
/// succeeds and the loss is reported.
#[test]
fn wal_quarantine_failpoint_fails_open() {
    let dir = temp_dir("repair-quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let user = cqms.register_user("alice");
        for i in 0..5u64 {
            cqms.run_query_at(
                user,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
            .unwrap();
        }
        cqms.wal_flush().unwrap();
    }
    // Wound a mid-log frame so the next open must quarantine the segment.
    let (_, seg) = cqms_core::wal::list_segments(&dir).unwrap().remove(0);
    let mut bytes = std::fs::read(&seg).unwrap();
    // Find the second frame via the [len][crc][body] framing.
    let len0 = u32::from_le_bytes(bytes[0..4].try_into().unwrap()) as usize;
    let off = 8 + len0;
    let len1 = u32::from_le_bytes(bytes[off..off + 4].try_into().unwrap()) as usize;
    bytes[off + 8 + len1 / 2] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    faults::global_plan().arm(faults::WAL_QUARANTINE, FaultAction::Fail, Some(1));
    let err = match Cqms::open(engine(), CqmsConfig::default(), &dir) {
        Err(e) => e,
        Ok(_) => panic!("a failed quarantine move must fail the open"),
    };
    assert!(
        err.to_string().contains("injected"),
        "the failpoint is the cause: {err}"
    );
    faults::global_plan().disarm(faults::WAL_QUARANTINE);

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert!(report.lossy(), "the mid-log loss is reported");
    assert!(
        dir.join("quarantine").join("MANIFEST.txt").is_file(),
        "evidence lands once the device cooperates"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
