//! Crash-injection tests for the write-ahead log (`cqms_core::wal`).
//!
//! The headline test spawns *this very test binary* as a child process,
//! lets it ingest acknowledged batches through the full service stack,
//! and then kills it with `std::process::abort()` — no destructors, no
//! clean shutdown, exactly the crash the WAL exists for. The parent then
//! reopens the directory and proves that every acknowledged record
//! survived, by comparing the recovered storage against a RAM-only
//! reference fed the same workload.
//!
//! Alongside it: torn-tail truncation at the `Cqms::open` level,
//! snapshot + log-tail recovery, and a mid-batch crash simulated through
//! the in-memory sink (only the synced prefix replays).

use cqms_core::model::*;
use cqms_core::storage::QueryStorage;
use cqms_core::wal::{self, MemSink, WalWriter};
use cqms_core::{Cqms, CqmsConfig, CqmsService, IngestItem};
use relstore::Engine;
use std::path::PathBuf;
use std::process::Command;
use workload::Domain;

// ---------------------------------------------------------------------
// Shared fixtures: both child and parent must build the *same* world.
// ---------------------------------------------------------------------

fn engine() -> Engine {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 120, 7);
    engine
}

/// The deterministic workload the child ingests before dying: four
/// acknowledged batches with explicit trace times (so sessions, edges and
/// the clock recover identically on replay). The two joins over
/// *unqualified* columns only resolve `temp` to `watertemp` through the
/// catalog, so their features recover intact only if replay sees the
/// same catalog live ingest did.
fn crash_batches(user: UserId) -> Vec<Vec<IngestItem>> {
    let sqls: [&str; 14] = [
        "SELECT * FROM Lakes",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
        "SELECT lake, temp FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND temp < 18",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 15",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 15 LIMIT 10",
        "SELECT salinity FROM WaterSalinity",
        "SELECT salinity FROM WaterSalinity WHERE salinity > 3",
        "SELECT * FROM CityLocations",
        "SELECT city, pop FROM CityLocations WHERE pop > 50000",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x",
        "SELECT * FROM WaterTemp WHERE month = 7",
        "SELECT * FROM WaterTemp WHERE month = 8",
        "not even close to valid sql",
        "SELECT salinity FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND temp < 15",
    ];
    sqls.chunks(4)
        .enumerate()
        .map(|(b, chunk)| {
            chunk
                .iter()
                .enumerate()
                .map(|(i, sql)| IngestItem::at(user, *sql, 1_000 + (b * 4 + i) as u64 * 60))
                .collect()
        })
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-{tag}-{}", std::process::id()))
}

/// Field-by-field equivalence of a recovered storage against a reference.
fn assert_storage_equiv(recovered: &QueryStorage, reference: &QueryStorage) {
    assert_eq!(recovered.len(), reference.len(), "record count");
    assert_eq!(recovered.live_count(), reference.live_count(), "live count");
    assert_eq!(
        recovered.template_histogram(),
        reference.template_histogram(),
        "popularity histogram"
    );
    assert_eq!(recovered.max_popularity(), reference.max_popularity());
    for want in reference.iter() {
        let got = recovered.get(want.id).expect("recovered record");
        assert_eq!(got.raw_sql, want.raw_sql, "{}", want.id);
        assert_eq!(got.user, want.user, "{}", want.id);
        assert_eq!(got.ts, want.ts, "{}", want.id);
        assert_eq!(got.session, want.session, "{}", want.id);
        assert_eq!(got.visibility, want.visibility, "{}", want.id);
        assert_eq!(got.validity, want.validity, "{}", want.id);
        assert_eq!(got.template_fp, want.template_fp, "{}", want.id);
        assert_eq!(got.structure_fp, want.structure_fp, "{}", want.id);
        assert_eq!(got.canonical_sql, want.canonical_sql, "{}", want.id);
        assert_eq!(got.features, want.features, "{}", want.id);
        assert_eq!(got.annotations.len(), want.annotations.len(), "{}", want.id);
        for (a, b) in got.annotations.iter().zip(&want.annotations) {
            assert_eq!(a.text, b.text);
            assert_eq!(a.author, b.author);
            assert_eq!(a.at, b.at);
        }
    }
    assert_eq!(recovered.edges().len(), reference.edges().len(), "edges");
    for (a, b) in recovered.edges().iter().zip(reference.edges()) {
        assert_eq!(a.from, b.from);
        assert_eq!(a.to, b.to);
        assert_eq!(a.kind, b.kind);
    }
}

// ---------------------------------------------------------------------
// The child half of the crash test. A no-op in normal runs; when the
// parent re-invokes this binary with the env vars set, it ingests the
// workload through the full service stack and aborts without unwinding.
// ---------------------------------------------------------------------

#[test]
fn crash_child() {
    let Ok(dir) = std::env::var("CQMS_CRASH_DIR") else {
        return;
    };
    if std::env::var("CQMS_CRASH_CHILD").is_err() {
        return;
    }
    let cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).expect("child open");
    let svc = CqmsService::new(cqms);
    let user = svc.register_user("alice");
    for batch in crash_batches(user) {
        let acks = svc.ingest_batch(&batch);
        // The profiler logs even unparseable text (the paper's "log
        // everything" stance), so every slot must be acknowledged — and
        // every acknowledged slot must survive the abort below.
        for (ack, item) in acks.iter().zip(&batch) {
            assert!(
                ack.is_ok(),
                "unacknowledged ingest for {:?}: {ack:?}",
                item.sql
            );
        }
    }
    // Printed only after every batch was durably acknowledged; the parent
    // requires this marker before it trusts the crash.
    println!("CHILD-ACKED");
    std::process::abort();
}

/// **Acceptance test**: a process kill (abort, not clean shutdown) after
/// an acknowledged `ingest_batch` loses zero acknowledged records on
/// reopen.
#[test]
fn acknowledged_batches_survive_process_abort() {
    let dir = temp_dir("crash");
    let _ = std::fs::remove_dir_all(&dir);
    let exe = std::env::current_exe().expect("current test binary");
    let out = Command::new(&exe)
        .args(["--exact", "crash_child", "--nocapture", "--test-threads=1"])
        .env("CQMS_CRASH_DIR", &dir)
        .env("CQMS_CRASH_CHILD", "1")
        .output()
        .expect("spawn crash child");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("CHILD-ACKED"),
        "child never reached the acknowledged state:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(
        !out.status.success(),
        "child must die by abort, not exit cleanly"
    );

    // Reopen the aborted directory: replay resurrects every acknowledged
    // record (the final unflushed buffer died with the process, but every
    // Ok the child saw had already been flushed).
    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).expect("reopen after abort");
    let report = recovered.recovery().expect("recovery report").clone();
    assert_eq!(report.frames_failed, 0, "healthy log replays cleanly");
    assert!(report.frames_replayed > 0, "the log was not empty");

    // Reference: the same workload into a RAM-only CQMS.
    let mut reference = Cqms::new(engine(), CqmsConfig::default());
    let user = reference.register_user("alice");
    for batch in crash_batches(user) {
        for item in &batch {
            let _ = reference.run_query_at(item.user, &item.sql, item.ts.unwrap());
        }
    }
    assert_storage_equiv(&recovered.storage, &reference.storage);
    assert_eq!(recovered.now(), reference.now(), "clock recovered");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Torn tails and snapshots at the Cqms::open level.
// ---------------------------------------------------------------------

/// Garbage appended to the newest segment (a torn final write) is
/// detected by checksum, truncated — physically — and never poisons the
/// records before it.
#[test]
fn torn_wal_tail_is_truncated_on_reopen() {
    let dir = temp_dir("torn");
    let _ = std::fs::remove_dir_all(&dir);
    {
        let cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let svc = CqmsService::new(cqms);
        let user = svc.register_user("alice");
        svc.run_query(user, "SELECT * FROM Lakes").unwrap();
        svc.run_query(user, "SELECT lake, temp FROM WaterTemp WHERE temp < 10")
            .unwrap();
    }
    // Tear the tail: an implausible length prefix mid-frame.
    let (_, seg) = wal::list_segments(&dir)
        .unwrap()
        .pop()
        .expect("one live segment");
    let mut bytes = std::fs::read(&seg).unwrap();
    let clean_len = bytes.len();
    bytes.extend_from_slice(&[0xAB; 13]);
    std::fs::write(&seg, &bytes).unwrap();

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert_eq!(report.torn_bytes_truncated, 13);
    assert_eq!(report.frames_failed, 0);
    assert_eq!(
        recovered.storage.len(),
        2,
        "records before the tear survive"
    );
    assert_eq!(
        std::fs::metadata(&seg).unwrap().len(),
        clean_len as u64,
        "truncation is physical, not just logical"
    );
    drop(recovered);

    // A third open sees a clean log — and new writes go to the repaired
    // tail without colliding with old LSNs.
    let again = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    assert_eq!(again.recovery().unwrap().torn_bytes_truncated, 0);
    assert_eq!(again.storage.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Recovery composes the newest snapshot with the log tail behind it:
/// records before the horizon come from the snapshot, records after it
/// from replay — and both routes rebuild exactly the record live ingest
/// built, derived state included.
#[test]
fn snapshot_plus_log_tail_recovers_everything() {
    let dir = temp_dir("snap");
    let _ = std::fs::remove_dir_all(&dir);
    let mut reference = Cqms::new(engine(), CqmsConfig::default());
    {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let user = cqms.register_user("alice");
        assert_eq!(reference.register_user("alice"), user);
        for (b, batch) in crash_batches(user).iter().enumerate() {
            if b == 2 {
                // Two batches behind the snapshot, two in the log tail.
                cqms.wal_flush().unwrap();
                assert!(cqms.force_snapshot().unwrap(), "snapshot written");
            }
            for item in batch {
                let _ = cqms.run_query_at(item.user, &item.sql, item.ts.unwrap());
                let _ = reference.run_query_at(item.user, &item.sql, item.ts.unwrap());
            }
        }
        cqms.wal_flush().unwrap();
    }
    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert!(
        report.snapshot_lsn > 0,
        "recovery started from the snapshot"
    );
    assert_eq!(report.snapshot_records, 8);
    assert!(report.frames_replayed >= 6, "the tail replayed");
    assert_eq!(report.frames_failed, 0);
    assert_storage_equiv(&recovered.storage, &reference.storage);
    // Snapshotting pruned covered segments: the directory holds exactly
    // one snapshot plus the post-snapshot segment(s).
    assert_eq!(wal::list_snapshots(&dir).unwrap().len(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Each analyst's session cursor is read from the log, so it survives a
/// restart: the first in-gap query after `Cqms::open` continues the
/// pre-crash session and gets its Evolution edge, and a run interrupted by
/// a crash ends in the same store as an uninterrupted one.
#[test]
fn first_query_after_reopen_continues_the_session() {
    let dir = temp_dir("continuity");
    let _ = std::fs::remove_dir_all(&dir);
    let mut reference = Cqms::new(engine(), CqmsConfig::default());
    let user = reference.register_user("alice");
    let batches = crash_batches(user);
    {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        assert_eq!(cqms.register_user("alice"), user);
        for item in batches[..2].iter().flatten() {
            let _ = cqms.run_query_at(item.user, &item.sql, item.ts.unwrap());
        }
        cqms.wal_flush().unwrap();
    }
    let mut reopened = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    assert_eq!(reopened.register_user("alice"), user);
    let edges_before = reopened.storage.edges().len();
    let resumed = &batches[2][0];
    let out = reopened
        .run_query_at(resumed.user, &resumed.sql, resumed.ts.unwrap())
        .unwrap();
    assert!(!out.new_session, "an in-gap query continues the session");
    let previous = QueryId(out.id.0 - 1);
    assert_eq!(
        reopened.storage.get(out.id).unwrap().session,
        reopened.storage.get(previous).unwrap().session
    );
    let edge = reopened.storage.edges().last().expect("an edge");
    assert_eq!(reopened.storage.edges().len(), edges_before + 1);
    assert_eq!(
        (edge.from, edge.to, edge.kind),
        (previous, out.id, EdgeKind::Evolution)
    );

    for item in batches[2..].iter().flatten().skip(1) {
        let _ = reopened.run_query_at(item.user, &item.sql, item.ts.unwrap());
    }
    for item in batches.iter().flatten() {
        let _ = reference.run_query_at(item.user, &item.sql, item.ts.unwrap());
    }
    assert_storage_equiv(&reopened.storage, &reference.storage);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Completion and mined rules count the live log only, so a running
/// instance that tombstoned a third of its log answers exactly like the
/// same directory reopened.
#[test]
fn deleted_queries_leave_rules_and_completion_like_a_reopen() {
    const PROBE: &str = "SELECT * FROM WaterSalinity, ";
    let dir = temp_dir("live-rules");
    let _ = std::fs::remove_dir_all(&dir);
    let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let user = cqms.register_user("alice");
    let mut ids = Vec::new();
    for i in 0..30u64 {
        let sql = match i % 3 {
            0 => "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x",
            1 => "SELECT * FROM WaterSalinity S, CityLocations C WHERE S.loc_x = C.loc_x",
            _ => "SELECT * FROM Lakes",
        };
        ids.push(cqms.run_query_at(user, sql, 1_000 + i * 60).unwrap().id);
    }
    // The deleted third is every WaterSalinity ⋈ WaterTemp query.
    for id in ids.iter().step_by(3) {
        cqms.delete_query(user, *id).unwrap();
    }
    cqms.run_miner_epoch();
    cqms.wal_flush().unwrap();
    let running = (
        cqms.capture_snapshot(0).complete(user, PROBE, 8),
        cqms.capture_snapshot(0).association_rules().to_vec(),
    );
    assert_eq!(running.0[0].text, "CityLocations", "{:?}", running.0);
    assert!(!running.1.is_empty());
    drop(cqms);

    let mut reopened = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    reopened.run_miner_epoch();
    assert_eq!(
        reopened.capture_snapshot(0).complete(user, PROBE, 8),
        running.0
    );
    assert_eq!(reopened.capture_snapshot(0).association_rules(), running.1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Mid-batch crash via the in-memory sink: storage-level equivalence.
// ---------------------------------------------------------------------

/// A crash between flush points loses exactly the unflushed suffix: the
/// recovered storage equals a reference fed only the synced operations —
/// across inserts, edges, annotations, validity flips, visibility
/// changes, deletes and a reindex.
#[test]
fn mid_batch_crash_replays_only_synced_operations() {
    use cqms_core::features::extract;
    use cqms_core::storage::make_record;

    let mk = |id: u64, sql: &str, ts: u64| {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        make_record(
            QueryId(id),
            UserId(0),
            ts,
            sql,
            stmt,
            feats,
            RuntimeFeatures {
                elapsed_us: 100 + ts,
                cardinality: ts % 13,
                success: true,
                ..Default::default()
            },
            OutputSummary::None,
            SessionId(ts / 600),
            Visibility::Public,
        )
    };
    let sqls = [
        "SELECT * FROM Lakes",
        "SELECT lake FROM WaterTemp WHERE temp < 4",
        "SELECT salinity FROM WaterSalinity",
        "SELECT * FROM CityLocations WHERE pop > 10",
        "SELECT * FROM WaterTemp WHERE month = 2",
    ];

    // Phase 1 (synced): inserts, an edge, an annotation, a validity flip,
    // a visibility change — then flush.
    let (sink, log) = MemSink::new();
    let mut st = QueryStorage::new();
    st.attach_wal(WalWriter::new(Box::new(sink), 1));
    for (i, sql) in sqls.iter().enumerate() {
        st.insert(mk(i as u64, sql, 1_000 + i as u64 * 60));
    }
    st.add_edge(SessionEdge {
        from: QueryId(0),
        to: QueryId(1),
        kind: EdgeKind::Evolution,
        edits: Vec::new(),
    });
    st.annotate(
        QueryId(2),
        Annotation {
            author: UserId(0),
            at: 1_300,
            text: "salinity baseline".into(),
            fragment: Some("WaterSalinity".into()),
        },
    )
    .unwrap();
    st.set_validity(
        QueryId(3),
        Validity::Flagged {
            reason: "schema drift".into(),
            at: 1_400,
        },
    )
    .unwrap();
    st.set_visibility(QueryId(4), Visibility::Private).unwrap();
    st.wal_flush().unwrap();

    // Reference = the *live* state at the flush point, captured through
    // the (independently tested) snapshot path — so the comparison below
    // checks log replay against live state, not replay against itself.
    let reference = {
        let mut buf = Vec::new();
        st.snapshot(&mut buf).unwrap();
        QueryStorage::load(&buf[..]).unwrap()
    };

    // Phase 2 (never synced): more mutations that will die with the
    // "process".
    st.insert(mk(5, "SELECT * FROM WaterTemp WHERE month = 3", 2_000));
    st.delete(QueryId(0)).unwrap();
    st.reindex(QueryId(1)).unwrap();
    st.annotate(
        QueryId(2),
        Annotation {
            author: UserId(0),
            at: 2_100,
            text: "lost note".into(),
            fragment: None,
        },
    )
    .unwrap();
    // No flush: simulate the crash by recovering from durable state.
    let (recovered, report) = log.lock().recover().unwrap();
    assert_eq!(report.frames_failed, 0);
    assert_storage_equiv(&recovered, &reference);
    assert_eq!(recovered.len(), 5, "the unsynced insert is gone");
    assert!(
        recovered.get(QueryId(0)).unwrap().is_live(),
        "unsynced delete is gone"
    );
    assert_eq!(recovered.get(QueryId(2)).unwrap().annotations.len(), 1);
}

// ---------------------------------------------------------------------
// Orphaned (written-but-unmarked) snapshots: the phase-3-giveup path.
// ---------------------------------------------------------------------

/// A previous snapshot cycle may have written + fsynced the snapshot file
/// and then failed to mark it (the write lock never came free within the
/// bounded grace period). Recovery must prefer that orphan anyway: the
/// snapshot provides every record up to its horizon and replay skips
/// frames with lsn ≤ horizon, so nothing is double-applied.
#[test]
fn recovery_prefers_orphaned_unmarked_snapshot() {
    let dir = temp_dir("orphan-recover");
    let _ = std::fs::remove_dir_all(&dir);
    let (reference_len, reference_now, horizon) = {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let user = cqms.register_user("alice");
        for i in 0..6u64 {
            cqms.run_query_at(
                user,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
            .unwrap();
        }
        cqms.wal_flush().unwrap();
        // Simulate the giveup: write + fsync the snapshot file exactly the
        // way phase 2 does, but never mark it — no rotation, no pruning.
        let snap_dir = cqms.storage.wal_snapshot_dir().expect("durable dir");
        let horizon = cqms.storage.wal_last_lsn().unwrap();
        let mut body = Vec::new();
        cqms.storage.snapshot(&mut body).unwrap();
        wal::write_snapshot_file(&snap_dir, horizon, &body, true).unwrap();
        (cqms.storage.len(), cqms.now(), horizon)
    };

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert_eq!(
        report.snapshot_lsn, horizon,
        "recovery starts from the orphaned snapshot"
    );
    assert_eq!(report.frames_failed, 0);
    assert_eq!(recovered.storage.len(), reference_len);
    assert_eq!(recovered.now(), reference_now, "clock recovered");
    // The pre-horizon frames are still in the (unrotated) log, so they
    // were offered to replay — and skipped, not double-applied.
    assert_eq!(recovered.storage.live_count(), reference_len);
    let _ = std::fs::remove_dir_all(&dir);
}

/// The *reuse* half of the fix: when the next snapshot cycle comes due at
/// the same horizon, the already-fsynced orphan is adopted as-is (same
/// inode — the file is not serialised and written again) and only the
/// cheap phase-3 mark runs.
#[test]
#[cfg(unix)]
fn orphaned_snapshot_is_reused_not_rewritten() {
    use std::os::unix::fs::MetadataExt;
    use std::time::Duration;

    let dir = temp_dir("orphan-reuse");
    let _ = std::fs::remove_dir_all(&dir);
    // Snapshots never come due on their own until we lower the threshold.
    let config = CqmsConfig {
        snapshot_every_ops: u64::MAX,
        ..CqmsConfig::default()
    };
    let cqms = Cqms::open(engine(), config, &dir).unwrap();
    let svc = CqmsService::new(cqms);
    let user = svc.register_user("alice");
    for i in 0..6u64 {
        svc.run_query_at(
            user,
            &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
            1_000 + i * 60,
        )
        .unwrap();
    }
    // Settle the miner once so the next epoch re-logs nothing and the
    // horizon stays put.
    let report = svc.run_miner_epoch();
    assert!(report.wal_flush_error.is_none());

    // Fabricate the orphan at the current horizon, exactly as a crashed
    // phase 3 would leave it.
    let (snap_dir, horizon) = svc.read(|c| {
        (
            c.storage.wal_snapshot_dir().expect("durable dir"),
            c.storage.wal_last_lsn().unwrap(),
        )
    });
    let body = svc.read(|c| {
        let mut b = Vec::new();
        c.storage.snapshot(&mut b).unwrap();
        b
    });
    wal::write_snapshot_file(&snap_dir, horizon, &body, true).unwrap();
    let snaps = wal::list_snapshots(&snap_dir).unwrap();
    let orphan = snaps
        .iter()
        .find(|(h, _)| *h == horizon)
        .map(|(_, p)| p.clone())
        .expect("orphan written");
    let orphan_ino = std::fs::metadata(&orphan).unwrap().ino();

    // Make a snapshot due and let the background path run one cycle.
    svc.write(|c| c.config.snapshot_every_ops = 1);
    assert!(svc.read(Cqms::wal_snapshot_due), "snapshot is due");
    assert!(svc.start_miner(Duration::from_millis(1)));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    while svc.read(Cqms::wal_snapshot_due) {
        assert!(
            std::time::Instant::now() < deadline,
            "background snapshot never marked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    svc.stop_miner();

    // The orphan was adopted: same path, same inode — never rewritten.
    let meta = std::fs::metadata(&orphan).expect("snapshot survived the mark");
    assert_eq!(
        meta.ino(),
        orphan_ino,
        "snapshot file was rewritten instead of reused"
    );
    // And it is now the marked snapshot of record: a reopen starts there.
    drop(svc);
    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    assert_eq!(recovered.recovery().unwrap().snapshot_lsn, horizon);
    assert_eq!(recovered.storage.len(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Sharded durability: each shard recovers its own WAL directory.
// ---------------------------------------------------------------------

/// A sharded deployment persists one WAL directory per shard; reopening
/// recovers every shard and resumes the global clock past all of them.
#[test]
fn sharded_deployment_recovers_every_shard() {
    use cqms_core::ShardedCqms;

    let dir = temp_dir("sharded");
    let _ = std::fs::remove_dir_all(&dir);
    let config = CqmsConfig {
        shards: 3,
        ..CqmsConfig::default()
    };
    let mut expect: Vec<(QueryId, String)> = Vec::new();
    {
        let s = ShardedCqms::open(engine, config.clone(), &dir).unwrap();
        let users: Vec<UserId> = (0..6)
            .map(|i| s.register_user(&format!("user{i}")))
            .collect();
        for (i, &u) in users.iter().enumerate() {
            let sql = format!("SELECT lake, temp FROM WaterTemp WHERE temp < {}", 10 + i);
            let id = s.run_query(u, &sql).unwrap().id;
            expect.push((id, sql));
        }
        assert_eq!(s.now(), 6 * 30);
        s.shutdown();
    }
    for i in 0..3 {
        assert!(
            dir.join(format!("shard-{i}")).is_dir(),
            "shard {i} has its own WAL directory"
        );
    }
    let s = ShardedCqms::open(engine, config, &dir).unwrap();
    assert_eq!(s.live_count(), 6, "every shard recovered its records");
    assert_eq!(s.now(), 6 * 30, "global clock resumed past all shards");
    for (id, sql) in expect {
        let (shard, local) = s.locate(id);
        let got = s.shards()[shard].read(|c| c.storage.get(local).unwrap().raw_sql.clone());
        assert_eq!(got, sql, "{id} recovered on shard {shard}");
    }
    // And the recovered deployment keeps working.
    let u = s.register_user("late");
    let id = s.run_query(u, "SELECT * FROM Lakes").unwrap().id;
    assert_eq!(s.live_count(), 7);
    s.delete_query(u, id).unwrap();
    assert_eq!(s.live_count(), 6);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Byte offset, length and LSN of every frame in a segment, walked off
/// the `[len][crc][body]` framing — lets a test wound one frame precisely.
fn frame_offsets(bytes: &[u8]) -> Vec<(usize, usize, u64)> {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while bytes.len() - pos >= 8 {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if bytes.len() - pos - 8 < len {
            break;
        }
        let lsn = u64::from_le_bytes(bytes[pos + 8..pos + 16].try_into().unwrap());
        out.push((pos, 8 + len, lsn));
        pos += 8 + len;
    }
    out
}

fn sorted_sqls(storage: &QueryStorage) -> Vec<String> {
    let mut out: Vec<String> = (0..storage.len())
        .map(|q| storage.get(QueryId(q as u64)).unwrap().raw_sql.clone())
        .collect();
    out.sort();
    out
}

/// Mid-log corruption *under* a snapshot horizon is fully salvageable:
/// the wrecked frames were only ever offered to replay to be skipped, so
/// recovery loses nothing — it quarantines the damaged segment for
/// forensics and replays the post-horizon tail as if nothing happened.
#[test]
fn midlog_corruption_under_snapshot_horizon_salvages_without_loss() {
    let dir = temp_dir("salvage-covered");
    let _ = std::fs::remove_dir_all(&dir);
    let reference = {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let user = cqms.register_user("alice");
        for i in 0..6u64 {
            cqms.run_query_at(
                user,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
            .unwrap();
        }
        cqms.wal_flush().unwrap();
        // Snapshot covering everything written so far...
        let snap_dir = cqms.storage.wal_snapshot_dir().expect("durable dir");
        let horizon = cqms.storage.wal_last_lsn().unwrap();
        let mut body = Vec::new();
        cqms.storage.snapshot(&mut body).unwrap();
        wal::write_snapshot_file(&snap_dir, horizon, &body, true).unwrap();
        // ...then two more queries past the horizon.
        for i in 6..8u64 {
            cqms.run_query_at(
                user,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
            .unwrap();
        }
        cqms.wal_flush().unwrap();
        sorted_sqls(&cqms.storage)
    };

    // Wound the second frame — comfortably below the horizon.
    let (_, seg) = wal::list_segments(&dir).unwrap().remove(0);
    let mut bytes = std::fs::read(&seg).unwrap();
    let frames = frame_offsets(&bytes);
    assert!(frames.len() >= 4, "several frames to choose from");
    let (off, len, _) = frames[1];
    bytes[off + len / 2] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert_eq!(report.frames_lost, 0, "covered corruption costs nothing");
    assert!(report.bytes_quarantined > 0, "the wound is on the books");
    assert!(report.frames_skipped > 0, "pre-horizon frames were skipped");
    assert_eq!(
        sorted_sqls(&recovered.storage),
        reference,
        "full state back"
    );
    assert!(
        dir.join("quarantine").join("MANIFEST.txt").is_file(),
        "quarantined segment is documented"
    );
    drop(recovered);

    // Convergence: the next open finds a clean directory.
    let again = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = again.recovery().unwrap();
    assert_eq!(report.frames_lost, 0);
    assert_eq!(report.bytes_quarantined, 0);
    assert_eq!(report.torn_bytes_truncated, 0);
    assert_eq!(sorted_sqls(&again.storage), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Mid-log corruption with *no* covering snapshot breaks LSN continuity:
/// later frames decode but cannot be safely applied. Recovery must report
/// the loss precisely (`frames_lost` / `bytes_quarantined`, not the
/// benign `torn_bytes_truncated`), preserve the evidence under
/// `quarantine/`, and leave a working store.
#[test]
fn midlog_corruption_without_snapshot_reports_lost_frames() {
    let dir = temp_dir("salvage-lost");
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

    let (_, seg) = wal::list_segments(&dir).unwrap().remove(0);
    let mut bytes = std::fs::read(&seg).unwrap();
    let frames = frame_offsets(&bytes);
    assert!(frames.len() >= 3);
    let (off, len, _) = frames[1];
    bytes[off + len / 2] ^= 0xFF;
    std::fs::write(&seg, &bytes).unwrap();

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap().clone();
    assert!(report.frames_lost > 0, "unreachable frames are counted");
    assert!(report.bytes_quarantined > 0);
    assert_eq!(
        report.torn_bytes_truncated, 0,
        "mid-log damage is not a benign torn tail"
    );
    assert!(report.lossy());
    assert!(
        format!("{report}").contains("lost"),
        "the report says so out loud: {report}"
    );
    let manifest = std::fs::read_to_string(dir.join("quarantine").join("MANIFEST.txt")).unwrap();
    assert!(
        manifest.contains("mid-log"),
        "manifest names the cause: {manifest}"
    );
    drop(recovered);

    // The store re-anchored: a second open is clean and writable.
    let cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = cqms.recovery().unwrap();
    assert_eq!(
        report.frames_lost, 0,
        "loss is reported once, not re-reported"
    );
    assert_eq!(report.bytes_quarantined, 0);
    let svc = CqmsService::new(cqms);
    let user = svc.register_user("bob");
    svc.run_query(user, "SELECT * FROM Lakes").unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A corrupted snapshot fails its CRC, is quarantined, and recovery falls
/// back to full log replay — no state is lost because the segments are
/// still whole.
#[test]
fn corrupt_snapshot_is_quarantined_and_log_replay_covers() {
    let dir = temp_dir("salvage-snap");
    let _ = std::fs::remove_dir_all(&dir);
    let reference = {
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
        let snap_dir = cqms.storage.wal_snapshot_dir().expect("durable dir");
        let horizon = cqms.storage.wal_last_lsn().unwrap();
        let mut body = Vec::new();
        cqms.storage.snapshot(&mut body).unwrap();
        wal::write_snapshot_file(&snap_dir, horizon, &body, true).unwrap();
        sorted_sqls(&cqms.storage)
    };

    // Flip one byte in the middle of the snapshot: the CRC trailer turns
    // would-be silent corruption into a detected failure.
    let (_, snap) = wal::list_snapshots(&dir).unwrap().remove(0);
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&snap, &bytes).unwrap();

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert_eq!(
        report.snapshot_lsn, 0,
        "rejected snapshot is not replayed from"
    );
    assert!(
        report.bytes_quarantined > 0,
        "rejected snapshot is accounted"
    );
    assert_eq!(report.frames_lost, 0);
    assert_eq!(
        sorted_sqls(&recovered.storage),
        reference,
        "log replay covers"
    );
    assert!(
        dir.join("quarantine").join("MANIFEST.txt").is_file(),
        "snapshot preserved for forensics"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A snapshot cut off exactly where its CRC trailer begins — a clean
/// boundary, nothing torn — is as corrupt as any other: it is rejected
/// and quarantined, and log replay covers, instead of the remains
/// loading as a shorter store.
#[test]
fn snapshot_truncated_at_its_trailer_is_quarantined() {
    let dir = temp_dir("salvage-cut");
    let _ = std::fs::remove_dir_all(&dir);
    let reference = {
        let mut cqms = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
        let user = cqms.register_user("alice");
        for i in 0..4u64 {
            cqms.run_query_at(
                user,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                1_000 + i * 60,
            )
            .unwrap();
        }
        cqms.wal_flush().unwrap();
        let snap_dir = cqms.storage.wal_snapshot_dir().expect("durable dir");
        let horizon = cqms.storage.wal_last_lsn().unwrap();
        let mut body = Vec::new();
        cqms.storage.snapshot(&mut body).unwrap();
        wal::write_snapshot_file(&snap_dir, horizon, &body, true).unwrap();
        sorted_sqls(&cqms.storage)
    };

    // Strip the 24-byte trailer.
    let (_, snap) = wal::list_snapshots(&dir).unwrap().remove(0);
    let bytes = std::fs::read(&snap).unwrap();
    std::fs::write(&snap, &bytes[..bytes.len() - 24]).unwrap();

    let recovered = Cqms::open(engine(), CqmsConfig::default(), &dir).unwrap();
    let report = recovered.recovery().unwrap();
    assert_eq!(report.snapshot_lsn, 0, "trailer-less snapshot is not used");
    assert_eq!(report.bytes_quarantined, bytes.len() - 24);
    assert_eq!(report.frames_failed, 0);
    assert_eq!(sorted_sqls(&recovered.storage), reference);
    let manifest = std::fs::read_to_string(dir.join("quarantine").join("MANIFEST.txt")).unwrap();
    assert!(manifest.contains("trailer"), "{manifest}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// An intact snapshot in the retired v1 text format is not corruption:
/// open fails naming the format and leaves the file where it is, rather
/// than quarantining it and answering with an empty store.
#[test]
fn v1_text_snapshot_fails_the_open() {
    let dir = temp_dir("v1-snap");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let body = b"cqms-snapshot v1\n[records]\n[annotations]\n[edges]\n";
    wal::write_snapshot_file(&dir, 3, body, false).unwrap();

    let err = Cqms::open(engine(), CqmsConfig::default(), &dir)
        .err()
        .expect("v1 snapshot refused");
    assert!(
        matches!(&err, cqms_core::CqmsError::Snapshot(m) if m.contains("cqms-snapshot v1")),
        "{err}"
    );
    assert_eq!(wal::list_snapshots(&dir).unwrap().len(), 1, "left in place");
    assert!(!dir.join("quarantine").exists());
    let _ = std::fs::remove_dir_all(&dir);
}
