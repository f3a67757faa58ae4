//! Durability tour: open a CQMS over an on-disk write-ahead log, ingest
//! acknowledged work, "crash", and recover every acknowledged query.
//!
//! Run with: `cargo run --example durability`
//!
//! The "crash" here is honest: `Cqms` has no shutdown hook — nothing is
//! written when it is dropped. Anything not yet flushed to the log dies
//! with the process, exactly as it would under `kill -9`; everything the
//! service acknowledged was flushed first and must come back. (For the
//! real `abort()`-based kill, see `crates/core/tests/durability.rs`.)

use cqms::engine::{Cqms, CqmsConfig, CqmsService, IngestItem};
use relstore::Engine;
use workload::Domain;

fn lakes_engine() -> Engine {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 300, 42);
    engine
}

fn main() {
    let dir = std::env::temp_dir().join(format!("cqms-durability-demo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // 1. Open (not `new`): the directory holds the write-ahead log and
    //    periodic snapshots. A fresh directory starts an empty log.
    let cqms = Cqms::open(lakes_engine(), CqmsConfig::default(), &dir).expect("open");
    println!("== Opened fresh durable CQMS at {} ==", dir.display());
    println!("  {}", cqms.recovery().expect("report"));

    // 2. Ingest through the service layer. `ingest_batch` flushes the log
    //    once per batch before returning: every Ok below is a durability
    //    acknowledgement, not just an in-memory success.
    let svc = CqmsService::new(cqms);
    let alice = svc.register_user("alice");
    let batch: Vec<IngestItem> = [
        "SELECT lake, temp FROM WaterTemp WHERE temp < 22",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
         WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 18",
        "SELECT city FROM CityLocations WHERE pop > 100000",
        "SELECT * FROM Lakes",
    ]
    .iter()
    .enumerate()
    .map(|(i, sql)| IngestItem::at(alice, *sql, 1_000 + i as u64 * 60))
    .collect();
    let acks = svc.ingest_batch(&batch);
    println!("\n== Ingested one batch of {} queries ==", acks.len());
    assert!(acks.iter().all(|r| r.is_ok()), "batch acknowledged");
    svc.annotate(
        alice,
        acks[2].as_ref().copied().unwrap(),
        "correlate salinity with temperature",
        None,
    )
    .expect("annotation acknowledged");
    println!(
        "  {} live queries, annotation attached",
        svc.snapshot().live_count()
    );

    // 3. Crash. Dropping the service writes nothing — this is the kill.
    drop(svc);
    println!("\n== Process 'crashed' (dropped with no shutdown path) ==");

    // 4. Reopen the same directory: the log replays on top of the newest
    //    snapshot (none yet), and the report says exactly what happened.
    let cqms = Cqms::open(lakes_engine(), CqmsConfig::default(), &dir).expect("reopen");
    println!("  {}", cqms.recovery().expect("report"));
    assert_eq!(cqms.storage.len(), 5, "every acknowledged query survived");
    let note = &cqms
        .storage
        .get(cqms::engine::model::QueryId(2))
        .unwrap()
        .annotations[0];
    println!("  recovered annotation: {:?}", note.text);

    // 5. Snapshots bound replay time. Normally the miner epoch writes one
    //    off the hot path once `snapshot_every_ops` mutations accumulate;
    //    operators can force one explicitly:
    let mut cqms = cqms;
    assert!(cqms.force_snapshot().expect("snapshot"), "snapshot written");
    drop(cqms);
    let cqms = Cqms::open(lakes_engine(), CqmsConfig::default(), &dir).expect("third open");
    let report = cqms.recovery().expect("report");
    println!("\n== Reopened from the forced snapshot ==");
    println!("  {}", report);
    assert_eq!(
        report.snapshot_records, 5,
        "state now loads from the snapshot"
    );
    assert_eq!(report.frames_replayed, 0, "nothing left to replay");

    let _ = std::fs::remove_dir_all(&dir);
    println!("\nDone: acknowledged work survived the crash; snapshots keep recovery O(tail).");
}
