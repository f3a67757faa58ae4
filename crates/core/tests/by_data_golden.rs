//! Golden digests of stored output summaries and query-by-data (paper
//! §4.1 "Profiling query results", §2.2 search by data).
//!
//! Each domain's generated query log is ingested into three deployments:
//! a RAM `Cqms`, a 2-shard `ShardedCqms`, and a durable `Cqms` reopened
//! from its write-ahead log. Before probing, every deployment deletes one
//! query, makes another private, flags a third, and runs a maintenance
//! pass after an `ALTER TABLE … RENAME TO`, so the tombstone, validity,
//! visibility and summary-refresh paths all run.
//!
//! Two digests are pinned per (deployment, domain):
//!
//! * every live record's summary as `(kind, columns, rows as cell
//!   strings, total_rows)`, in id order (shard by shard when sharded);
//! * `search_by_data(viewer, include, exclude)` for [`PROBES`] probes
//!   whose values are cells picked deterministically from the RAM
//!   deployment's stored summaries.
//!
//! Summaries are not persisted, so the reopened deployment stores none
//! and its by-data answers are empty: the digests pin that too. The
//! adaptive rule is held at its row floor (`full_output_rows_per_ms` =
//! 0), so whether a summary is full or sampled never depends on the
//! measured run time.

use cqms_core::model::{OutputSummary, QueryId, UserId, Validity, Visibility};
use cqms_core::shard::ShardedCqms;
use cqms_core::storage::QueryStorage;
use cqms_core::{Cqms, CqmsConfig};
use relstore::Engine;
use std::collections::HashSet;
use std::path::PathBuf;
use workload::{Domain, Trace, TraceConfig};

/// Rows per base table of every data tier.
const SCALE: usize = 30;

/// By-data probes per deployment.
const PROBES: usize = 30;

/// `[summaries, by-data answers]` per deployment.
struct Golden {
    ram: [u64; 2],
    sharded: [u64; 2],
    reopened: [u64; 2],
}

const LAKES: Golden = Golden {
    ram: [0x4a4ae447c73466e1, 0xbe5044f9d49d5c46],
    sharded: [0x84d94fc2121c15fb, 0x3a70ca1ce6f1b86a],
    reopened: [0xefbb294f0afa8e7f, 0x98b1abd472432b75],
};
const SKY: Golden = Golden {
    ram: [0xbf03a0dd921a5d7c, 0x13606360d2d0e15c],
    sharded: [0x9fcd5604fb27959c, 0x67fc4d5236f6d69b],
    reopened: [0x3fcd86695f12a6e5, 0x98b1abd472432b75],
};
const WEBLOG: Golden = Golden {
    ram: [0x1332c35bb1fcb2ac, 0x5d9dd4b676f0233d],
    sharded: [0x382ff974db478847, 0xcc7bc4c27c8bf67b],
    reopened: [0xefbb294f0afa8e7f, 0x98b1abd472432b75],
};

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// One summary's cells, row by row, or `None` when none is stored.
fn summary_rows(s: &OutputSummary) -> Option<Vec<Vec<String>>> {
    match s {
        OutputSummary::None => None,
        OutputSummary::Full { rows, .. } | OutputSummary::Sample { rows, .. } => Some(
            rows.iter()
                .map(|r| r.iter().map(|c| c.to_string()).collect())
                .collect(),
        ),
    }
}

/// Fold one storage's live summaries into `h`, tagged with `shard`.
fn summaries_digest(h: u64, shard: usize, storage: &QueryStorage) -> u64 {
    storage.iter_live().fold(h, |h, r| {
        let (kind, columns, total) = match &r.summary {
            OutputSummary::None => ("none", &[][..], None),
            OutputSummary::Full { columns, .. } => ("full", &columns[..], None),
            OutputSummary::Sample {
                columns,
                total_rows,
                ..
            } => ("sample", &columns[..], Some(*total_rows)),
        };
        let head = format!(
            "{shard}|{}|{kind}|{}|{total:?}\n",
            r.id.0,
            columns.join("\u{1}")
        );
        let rows = summary_rows(&r.summary).unwrap_or_default();
        rows.iter().fold(fnv(head.as_bytes(), h), |h, row| {
            fnv(format!("{}\n", row.join("\u{1}")).as_bytes(), h)
        })
    })
}

/// One by-data probe: values every hit must contain, values it must not.
struct Probe {
    include: Vec<String>,
    exclude: Vec<String>,
}

/// [`PROBES`] probes cut from the distinct cells of `storage`'s live
/// summaries (in id order): evenly spaced picks, every third probe with
/// a second required value, every third with an excluded one, and every
/// fifth value upper-cased (matching is case-insensitive).
fn probes(storage: &QueryStorage) -> Vec<Probe> {
    let mut seen = HashSet::new();
    let cells: Vec<String> = storage
        .iter_live()
        .filter_map(|r| summary_rows(&r.summary))
        .flatten()
        .flatten()
        .filter(|c| seen.insert(c.clone()))
        .collect();
    assert!(cells.len() >= 2 * PROBES, "too few stored cells to probe");
    let pick = |i: usize| {
        let c = &cells[(i * 7919) % cells.len()];
        if i.is_multiple_of(5) {
            c.to_ascii_uppercase()
        } else {
            c.clone()
        }
    };
    (0..PROBES)
        .map(|i| match i % 3 {
            0 => Probe {
                include: vec![pick(i)],
                exclude: vec![],
            },
            1 => Probe {
                include: vec![pick(i), pick(i + PROBES)],
                exclude: vec![],
            },
            _ => Probe {
                include: vec![pick(i)],
                exclude: vec![pick(i + PROBES)],
            },
        })
        .collect()
}

/// Digest every probe's hits, as `search` answers them.
fn by_data_digest(probes: &[Probe], search: impl Fn(&[&str], &[&str]) -> Vec<QueryId>) -> u64 {
    probes.iter().fold(FNV_SEED, |h, p| {
        let include: Vec<&str> = p.include.iter().map(String::as_str).collect();
        let exclude: Vec<&str> = p.exclude.iter().map(String::as_str).collect();
        let hits = search(&include, &exclude);
        let line: Vec<String> = hits.iter().map(|id| id.0.to_string()).collect();
        fnv(format!("{}\n", line.join(",")).as_bytes(), h)
    })
}

fn check(what: &str, got: [u64; 2], golden: &[u64; 2]) {
    assert_eq!(
        got, *golden,
        "{what}: [summaries, by-data] digests moved; computed [0x{:016x}, 0x{:016x}]",
        got[0], got[1]
    );
}

fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
        full_output_rows_per_ms: 0.0,
        ..CqmsConfig::default()
    }
}

fn trace(domain: Domain) -> Trace {
    Trace::generate(TraceConfig::new(domain).with_scale(SCALE))
}

/// The rename each domain's maintenance pass repairs the log after.
fn rename(domain: Domain) -> &'static str {
    match domain {
        Domain::Lakes => "ALTER TABLE WaterTemp RENAME TO LakeTemperatures",
        Domain::SkySurvey => "ALTER TABLE SpecObj RENAME TO Spectra",
        Domain::WebLog => "ALTER TABLE Searches RENAME TO SearchLog",
    }
}

fn flagged() -> Validity {
    Validity::Flagged {
        reason: "pinned churn".into(),
        at: 1,
    }
}

/// The trace's queries as `(issuer, id)`, in issue order.
type Issued = Vec<(UserId, QueryId)>;

/// Ingest the trace into a single-node CQMS, then churn it.
fn ingest_and_churn(cqms: &mut Cqms, trace: &Trace) -> Issued {
    cqms.register_user("root");
    let users: Vec<UserId> = (0..trace.config.users)
        .map(|i| cqms.register_user(&format!("user-{i}")))
        .collect();
    let issued: Issued = trace
        .queries
        .iter()
        .map(|q| {
            let user = users[q.user as usize];
            (user, cqms.run_query_at(user, &q.sql, q.ts).unwrap().id)
        })
        .collect();
    let (owner, deleted) = issued[3];
    cqms.delete_query(owner, deleted).unwrap();
    let (owner, private) = issued[7];
    cqms.set_visibility(owner, private, Visibility::Private)
        .unwrap();
    cqms.storage.set_validity(issued[11].1, flagged()).unwrap();
    cqms.data.execute(rename(trace.config.domain)).unwrap();
    let (schema, _) = cqms.run_maintenance().unwrap();
    assert!(!schema.repaired.is_empty(), "the rename rewrote no query");
    issued
}

/// A single-node CQMS's two digests, read through one snapshot.
fn digest_single(cqms: &Cqms, probes: &[Probe], viewer: UserId) -> [u64; 2] {
    let snap = cqms.capture_snapshot(0);
    [
        summaries_digest(FNV_SEED, 0, snap.storage()),
        by_data_digest(probes, |inc, exc| snap.search_by_data(viewer, inc, exc)),
    ]
}

/// The RAM deployment's digests, and the probes cut from its summaries.
fn ram(trace: &Trace) -> ([u64; 2], Vec<Probe>) {
    let mut cqms = Cqms::new(trace.build_engine(), config(1));
    let issued = ingest_and_churn(&mut cqms, trace);
    let probes = probes(&cqms.storage);
    (digest_single(&cqms, &probes, issued[0].0), probes)
}

fn sharded(trace: &Trace, probes: &[Probe]) -> [u64; 2] {
    let sharded = ShardedCqms::new(|| trace.build_engine(), config(2));
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
    let (owner, deleted) = issued[3];
    sharded.delete_query(owner, deleted).unwrap();
    let (owner, private) = issued[7];
    sharded
        .set_visibility(owner, private, Visibility::Private)
        .unwrap();
    let (shard, local) = sharded.locate(issued[11].1);
    sharded.shards()[shard]
        .write(|c| c.storage.set_validity(local, flagged()))
        .unwrap();
    for shard in sharded.shards() {
        shard.write(|c| c.data.execute(rename(trace.config.domain)).unwrap());
    }
    let repaired: usize = sharded
        .run_maintenance()
        .unwrap()
        .iter()
        .map(|(schema, _)| schema.repaired.len())
        .sum();
    assert!(repaired > 0, "the rename rewrote no query");
    let viewer = issued[0].0;
    let summaries = (sharded.shards().iter().enumerate()).fold(FNV_SEED, |h, (i, s)| {
        summaries_digest(h, i, s.snapshot().storage())
    });
    let by_data = by_data_digest(probes, |inc, exc| {
        sharded.search_by_data(viewer, inc, exc, false)
    });
    sharded.shutdown();
    [summaries, by_data]
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-by-data-{tag}-{}", std::process::id()))
}

fn durable(trace: &Trace, probes: &[Probe]) -> [u64; 2] {
    let dir = temp_dir(&format!("{:?}", trace.config.domain));
    let _ = std::fs::remove_dir_all(&dir);
    let issued = {
        let mut cqms = Cqms::open(trace.build_engine(), config(1), &dir).unwrap();
        let issued = ingest_and_churn(&mut cqms, trace);
        cqms.wal_flush().unwrap();
        issued
    };
    let mut engine: Engine = trace.build_engine();
    engine.execute(rename(trace.config.domain)).unwrap();
    let reopened = Cqms::open(engine, config(1), &dir).unwrap();
    let digests = digest_single(&reopened, probes, issued[0].0);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    digests
}

fn check_domain(domain: Domain, golden: &Golden) {
    let trace = trace(domain);
    let (ram, probes) = ram(&trace);
    check(&format!("{domain:?} RAM"), ram, &golden.ram);
    check(
        &format!("{domain:?} 2 shards"),
        sharded(&trace, &probes),
        &golden.sharded,
    );
    check(
        &format!("{domain:?} reopened"),
        durable(&trace, &probes),
        &golden.reopened,
    );
}

#[test]
fn lakes_summaries_and_by_data_are_pinned() {
    check_domain(Domain::Lakes, &LAKES);
}

#[test]
fn skysurvey_summaries_and_by_data_are_pinned() {
    check_domain(Domain::SkySurvey, &SKY);
}

#[test]
fn weblog_summaries_and_by_data_are_pinned() {
    check_domain(Domain::WebLog, &WEBLOG);
}
