//! Golden digests of context-aware completion (paper §2.3).
//!
//! Each domain's generated query log is ingested into three deployments:
//! a RAM `Cqms`, a 2-shard `ShardedCqms`, and a durable `Cqms` reopened
//! from its write-ahead log. Before probing, every deployment deletes one
//! query, makes another private, and runs a maintenance pass after an
//! `ALTER TABLE … RENAME TO`, so the tombstone, validity and reindex
//! paths all run.
//!
//! The probes are cut from every logged query: after `FROM `, after the
//! first `, ` that follows it, after `WHERE `, and the query's head with
//! ` ORDER BY ` appended, plus `SELECT `. Each probe's suggestions are
//! reduced to a digest of `(text, score bits, why)`. The digests are
//! pinned in chunks of at most [`CHUNK`] probes, so a mismatch names the
//! range of probes that moved, and all three deployments must give the
//! pinned digests.

use cqms_core::assist::completion::Suggestion;
use cqms_core::model::{QueryId, UserId, Visibility};
use cqms_core::shard::ShardedCqms;
use cqms_core::{Cqms, CqmsConfig};
use relstore::Engine;
use std::path::PathBuf;
use workload::{Domain, Trace, TraceConfig};

/// Probes per pinned digest.
const CHUNK: usize = 100;

/// Rows per base table of every data tier.
const SCALE: usize = 30;

/// Suggestions per probe.
const K: usize = 5;

const LAKES: &[u64] = &[0xc566cab876d9f6e3, 0x6d0f578efd84de96, 0x143deb5a7008c8c5];
const SKY: &[u64] = &[0x713035b044b7f887, 0x2a545c17ef4955c0];
const WEBLOG: &[u64] = &[0xe08039a9127370c8, 0x891cf34f2f390d99];

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

fn digest(suggestions: &[Suggestion]) -> u64 {
    suggestions.iter().fold(FNV_SEED, |h, s| {
        let text = format!("{}|{:016x}|{}\n", s.text, s.score.to_bits(), s.why);
        fnv(text.as_bytes(), h)
    })
}

/// Compare per-probe digests against the pinned chunk digests.
fn check(what: &str, digests: &[u64], golden: &[u64]) {
    let chunks: Vec<u64> = digests
        .chunks(CHUNK)
        .map(|c| c.iter().fold(FNV_SEED, |h, d| fnv(&d.to_le_bytes(), h)))
        .collect();
    let moved: Vec<String> = chunks
        .iter()
        .enumerate()
        .filter(|(i, d)| golden.get(*i) != Some(*d))
        .map(|(i, _)| format!("{}..{}", i * CHUNK, ((i + 1) * CHUNK).min(digests.len())))
        .collect();
    let listed: Vec<String> = chunks.iter().map(|d| format!("0x{d:016x}")).collect();
    assert!(
        moved.is_empty() && golden.len() == chunks.len(),
        "{what}: {} probes, suggestions moved in probes {moved:?}; \
         computed chunk digests: [{}]",
        digests.len(),
        listed.join(", ")
    );
}

fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
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

/// The probes cut from the trace's queries, sorted and deduplicated.
fn probes(trace: &Trace) -> Vec<String> {
    let mut out = vec!["SELECT ".to_string()];
    for q in &trace.queries {
        let sql = q.sql.as_str();
        if let Some(p) = sql.find("FROM ") {
            let from = p + "FROM ".len();
            out.push(sql[..from].to_string());
            if let Some(c) = sql[from..].find(", ") {
                out.push(sql[..from + c + 2].to_string());
            }
        }
        if let Some(p) = sql.find("WHERE ") {
            out.push(sql[..p + "WHERE ".len()].to_string());
        }
        let head = sql.find(" ORDER BY ").map_or(sql, |p| &sql[..p]);
        out.push(format!("{head} ORDER BY "));
    }
    out.sort();
    out.dedup();
    out
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
    cqms.data.execute(rename(trace.config.domain)).unwrap();
    let (schema, _) = cqms.run_maintenance().unwrap();
    assert!(!schema.repaired.is_empty(), "the rename rewrote no query");
    issued
}

fn probe_digests(trace: &Trace, complete: impl Fn(&str) -> Vec<Suggestion>) -> Vec<u64> {
    probes(trace).iter().map(|p| digest(&complete(p))).collect()
}

fn ram(trace: &Trace) -> Vec<u64> {
    let mut cqms = Cqms::new(trace.build_engine(), config(1));
    let issued = ingest_and_churn(&mut cqms, trace);
    let snap = cqms.capture_snapshot(0);
    probe_digests(trace, |p| snap.complete(issued[0].0, p, K))
}

fn sharded(trace: &Trace) -> Vec<u64> {
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
    probe_digests(trace, |p| sharded.complete(issued[0].0, p, K))
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-completion-{tag}-{}", std::process::id()))
}

fn durable(trace: &Trace) -> Vec<u64> {
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
    let snap = reopened.capture_snapshot(0);
    let digests = probe_digests(trace, |p| snap.complete(issued[0].0, p, K));
    std::fs::remove_dir_all(&dir).ok();
    digests
}

fn check_domain(domain: Domain, golden: &[u64]) {
    let trace = trace(domain);
    check(&format!("{domain:?} RAM"), &ram(&trace), golden);
    check(&format!("{domain:?} 2 shards"), &sharded(&trace), golden);
    check(&format!("{domain:?} reopened"), &durable(&trace), golden);
}

#[test]
fn lakes_completions_are_pinned() {
    check_domain(Domain::Lakes, LAKES);
}

#[test]
fn skysurvey_completions_are_pinned() {
    check_domain(Domain::SkySurvey, SKY);
}

#[test]
fn weblog_completions_are_pinned() {
    check_domain(Domain::WebLog, WEBLOG);
}
