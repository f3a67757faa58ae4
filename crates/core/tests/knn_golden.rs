//! Golden digests of kNN similarity search and the "Similar Queries"
//! recommendation panel (paper §2.3, Figure 3).
//!
//! Each domain's generated query log is ingested into three deployments:
//! a RAM `Cqms`, a 2-shard `ShardedCqms`, and a durable `Cqms` reopened
//! from its write-ahead log. Before probing, every deployment deletes one
//! query, makes another private, flags a third, and runs a maintenance
//! pass after an `ALTER TABLE … RENAME TO`, so the tombstone, validity,
//! visibility and reindex paths all run.
//!
//! Every logged query's SQL is a probe: through `similar_queries` with
//! the `Features` and `Combined` metrics (k = 10), digested as
//! `(id, score bits)`, and through `recommend` (k = 5), digested as
//! `(id, score_pct, diff, annotation)`. The probes run twice: once while
//! the maintenance pass's reindex overrides are outstanding, and once
//! more after the index rebuild retires them. One digest per phase is
//! pinned for each (deployment, domain); ids differ between deployments,
//! so tied hits may order differently and each deployment has its own.

use cqms_core::assist::recommend::PanelRow;
use cqms_core::metaquery::ScoredHit;
use cqms_core::model::{QueryId, UserId, Validity, Visibility};
use cqms_core::shard::ShardedCqms;
use cqms_core::similarity::DistanceKind;
use cqms_core::{Cqms, CqmsConfig, CqmsError, ReadSnapshot};
use relstore::Engine;
use std::path::PathBuf;
use workload::{Domain, Trace, TraceConfig};

/// Rows per base table of every data tier.
const SCALE: usize = 30;

/// Neighbours per kNN probe.
const KNN_K: usize = 10;

/// Rows per recommendation panel.
const PANEL_K: usize = 5;

/// `[overrides outstanding, after the rebuild]` per deployment.
struct Golden {
    ram: [u64; 2],
    sharded: [u64; 2],
    reopened: [u64; 2],
}

const LAKES: Golden = Golden {
    ram: [0x07e7a4a580457e58, 0x07e7a4a580457e58],
    sharded: [0xdcc0fd9689c77707, 0xdcc0fd9689c77707],
    reopened: [0x07e7a4a580457e58, 0x07e7a4a580457e58],
};
const SKY: Golden = Golden {
    ram: [0x44cd1b88928f97cb, 0x44cd1b88928f97cb],
    sharded: [0xe506da752ae3fac6, 0xe506da752ae3fac6],
    reopened: [0x44cd1b88928f97cb, 0x44cd1b88928f97cb],
};
const WEBLOG: Golden = Golden {
    ram: [0xcd1e074929a8ed3a, 0xcd1e074929a8ed3a],
    sharded: [0xb4f2e93fe3645ebe, 0xb4f2e93fe3645ebe],
    reopened: [0xcd1e074929a8ed3a, 0xcd1e074929a8ed3a],
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

fn hits_digest(h: u64, hits: Result<Vec<ScoredHit>, CqmsError>) -> u64 {
    match hits {
        Ok(hits) => hits.iter().fold(fnv(b"hits\n", h), |h, hit| {
            let line = format!("{}|{:016x}\n", hit.id.0, hit.score.to_bits());
            fnv(line.as_bytes(), h)
        }),
        Err(_) => fnv(b"error\n", h),
    }
}

fn panel_digest(h: u64, rows: Result<Vec<PanelRow>, CqmsError>) -> u64 {
    match rows {
        Ok(rows) => rows.iter().fold(fnv(b"panel\n", h), |h, r| {
            let line = format!("{}|{}|{}|{}\n", r.id.0, r.score_pct, r.diff, r.annotation);
            fnv(line.as_bytes(), h)
        }),
        Err(_) => fnv(b"error\n", h),
    }
}

/// The reads one phase digests, over one deployment.
trait Probed {
    fn similar(&self, sql: &str, metric: DistanceKind) -> Result<Vec<ScoredHit>, CqmsError>;
    fn panel(&self, sql: &str) -> Result<Vec<PanelRow>, CqmsError>;
}

/// A snapshot probed on behalf of one viewer.
struct Viewed<'a>(&'a ReadSnapshot, UserId);

impl Probed for Viewed<'_> {
    fn similar(&self, sql: &str, metric: DistanceKind) -> Result<Vec<ScoredHit>, CqmsError> {
        self.0.similar_queries(self.1, sql, KNN_K, metric)
    }
    fn panel(&self, sql: &str) -> Result<Vec<PanelRow>, CqmsError> {
        self.0.recommend(self.1, sql, PANEL_K)
    }
}

impl Probed for (&ShardedCqms, UserId) {
    fn similar(&self, sql: &str, metric: DistanceKind) -> Result<Vec<ScoredHit>, CqmsError> {
        self.0.similar_queries(self.1, sql, KNN_K, metric)
    }
    fn panel(&self, sql: &str) -> Result<Vec<PanelRow>, CqmsError> {
        self.0.recommend(self.1, sql, PANEL_K)
    }
}

/// One phase's digest: every probe's two kNN answers and its panel.
fn phase_digest(trace: &Trace, probed: &dyn Probed) -> u64 {
    probes(trace).iter().fold(FNV_SEED, |h, sql| {
        let h = hits_digest(h, probed.similar(sql, DistanceKind::Features));
        let h = hits_digest(h, probed.similar(sql, DistanceKind::Combined));
        panel_digest(h, probed.panel(sql))
    })
}

fn check(what: &str, got: [u64; 2], golden: [u64; 2]) {
    assert_eq!(
        got, golden,
        "{what}: [overrides outstanding, rebuilt] digests moved; computed \
         [0x{:016x}, 0x{:016x}]",
        got[0], got[1]
    );
}

/// Maintained quality ranks each query's measured wall-clock latency,
/// so a pinned panel gives its weight to similarity instead.
fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
        rank_similarity: 0.7,
        rank_quality: 0.0,
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

/// Every logged query's SQL, sorted and deduplicated.
fn probes(trace: &Trace) -> Vec<String> {
    let mut out: Vec<String> = trace.queries.iter().map(|q| q.sql.clone()).collect();
    out.sort();
    out.dedup();
    out
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

/// Probe a single-node CQMS, rebuild its indexes, probe again.
fn probe_single(cqms: &mut Cqms, trace: &Trace, viewer: UserId) -> [u64; 2] {
    assert!(cqms.storage.indexes().override_count() > 0);
    let outstanding = phase_digest(trace, &Viewed(&cqms.capture_snapshot(0), viewer));
    cqms.storage.run_index_maintenance();
    let rebuilt = phase_digest(trace, &Viewed(&cqms.capture_snapshot(0), viewer));
    [outstanding, rebuilt]
}

fn ram(trace: &Trace) -> [u64; 2] {
    let mut cqms = Cqms::new(trace.build_engine(), config(1));
    let issued = ingest_and_churn(&mut cqms, trace);
    probe_single(&mut cqms, trace, issued[0].0)
}

fn sharded(trace: &Trace) -> [u64; 2] {
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
    let outstanding = phase_digest(trace, &(&sharded, viewer));
    sharded.rebuild_indexes();
    let rebuilt = phase_digest(trace, &(&sharded, viewer));
    sharded.shutdown();
    [outstanding, rebuilt]
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-knn-{tag}-{}", std::process::id()))
}

fn durable(trace: &Trace) -> [u64; 2] {
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
    let mut reopened = Cqms::open(engine, config(1), &dir).unwrap();
    let digests = probe_single(&mut reopened, trace, issued[0].0);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    digests
}

fn check_domain(domain: Domain, golden: &Golden) {
    let trace = trace(domain);
    check(&format!("{domain:?} RAM"), ram(&trace), golden.ram);
    check(
        &format!("{domain:?} 2 shards"),
        sharded(&trace),
        golden.sharded,
    );
    check(
        &format!("{domain:?} reopened"),
        durable(&trace),
        golden.reopened,
    );
}

#[test]
fn lakes_knn_and_panels_are_pinned() {
    check_domain(Domain::Lakes, &LAKES);
}

#[test]
fn skysurvey_knn_and_panels_are_pinned() {
    check_domain(Domain::SkySurvey, &SKY);
}

#[test]
fn weblog_knn_and_panels_are_pinned() {
    check_domain(Domain::WebLog, &WEBLOG);
}
