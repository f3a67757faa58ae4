//! Golden digests of every logged query's Figure 1 features and of the
//! reads built on them: query-by-parse-tree (§2.2) and the association
//! rules (§4.3).
//!
//! Each domain's generated query log, plus two nested queries, is
//! ingested into three deployments, as in `knn_golden.rs`: a RAM
//! `Cqms`, a 2-shard `ShardedCqms`, and a durable `Cqms` reopened from
//! its write-ahead log. Before reading, every deployment deletes one
//! query, makes another private, flags a third, and runs a maintenance
//! pass after an `ALTER TABLE … RENAME TO`, so the tombstone,
//! visibility, validity and reindex paths all run.
//!
//! The digest covers, per deployment and domain:
//! * every live record's mining items, tables, attributes and
//!   predicates, in storage order;
//! * `search_parse_tree` for each of [`patterns`], for every viewer;
//! * `association_rules` for every viewer.

use cqms_core::metaquery::TreePattern;
use cqms_core::model::{QueryId, QueryRecord, UserId, Validity, Visibility};
use cqms_core::shard::ShardedCqms;
use cqms_core::{Cqms, CqmsConfig};
use relstore::Engine;
use std::fmt::Write as _;
use std::path::PathBuf;
use workload::{Domain, Trace, TraceConfig};

/// Rows per base table of every data tier.
const SCALE: usize = 30;

/// One digest per deployment.
struct Golden {
    ram: u64,
    sharded: u64,
    reopened: u64,
}

const LAKES: Golden = Golden {
    ram: 0x0fecc31390ff6127,
    sharded: 0xd12b5e051f0f6b2f,
    reopened: 0xf1f0f93ce91a6b38,
};
const SKY: Golden = Golden {
    ram: 0x8f1adf455d2d95fd,
    sharded: 0x46e11a051ac1a104,
    reopened: 0x7b7dec20dffcb0e6,
};
const WEBLOG: Golden = Golden {
    ram: 0x5e0a874920b8fb82,
    sharded: 0xd28bbe6fa7796917,
    reopened: 0x583656520d87cfa8,
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

/// One record's features as a line: its id, mining items, tables,
/// `table.attribute`s and `table.column op constant` predicates.
fn features_line(record: &QueryRecord) -> String {
    let f = &record.features;
    let mut line = format!("{}|{}|", record.id.0, f.items().join(","));
    for t in f.tables() {
        write!(line, "{t},").unwrap();
    }
    line.push('|');
    for (t, a) in f.attributes() {
        write!(line, "{t}.{a},").unwrap();
    }
    line.push('|');
    for [t, c, op, constant] in f.predicates() {
        write!(line, "{t}.{c} {op} {constant},").unwrap();
    }
    line.push('\n');
    line
}

/// The reads the digest takes for one viewer, over one deployment.
trait Read {
    fn parse_tree(&self, viewer: UserId, pattern: &TreePattern) -> Vec<QueryId>;
    fn rules(&self, viewer: UserId) -> String;
}

impl Read for Cqms {
    fn parse_tree(&self, viewer: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.capture_snapshot(0).search_parse_tree(viewer, pattern)
    }
    fn rules(&self, viewer: UserId) -> String {
        format!("{:?}", self.capture_snapshot(0).association_rules(viewer))
    }
}

impl Read for ShardedCqms {
    fn parse_tree(&self, viewer: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.search_parse_tree(viewer, pattern)
    }
    fn rules(&self, viewer: UserId) -> String {
        format!("{:?}", self.association_rules(viewer))
    }
}

/// The parse-tree patterns: the reference model's four, then ones that
/// ask for a renamed table, for (or against) a subquery, and for a `*`
/// projection.
fn patterns() -> Vec<TreePattern> {
    vec![
        TreePattern {
            tables_all: vec!["WaterTemp".into()],
            ..TreePattern::default()
        },
        TreePattern {
            tables_any: vec!["lakes".into(), "LakeTemperatures".into()],
            min_tables: Some(2),
            ..TreePattern::default()
        },
        TreePattern {
            predicate_on: Some(("WaterTemp".into(), "temp".into(), Some("<".into()))),
            ..TreePattern::default()
        },
        TreePattern {
            projects: vec!["month".into()],
            has_aggregate: Some(false),
            ..TreePattern::default()
        },
        TreePattern {
            tables_any: vec![
                "LakeTemperatures".into(),
                "Spectra".into(),
                "SearchLog".into(),
            ],
            ..TreePattern::default()
        },
        TreePattern {
            has_subquery: Some(true),
            ..TreePattern::default()
        },
        TreePattern {
            has_subquery: Some(false),
            ..TreePattern::default()
        },
        TreePattern {
            projects: vec!["*".into()],
            ..TreePattern::default()
        },
    ]
}

/// Fold the per-viewer reads into `h`.
fn reads_digest(mut h: u64, read: &dyn Read, viewers: &[UserId]) -> u64 {
    let patterns = patterns();
    for &viewer in viewers {
        for (i, pattern) in patterns.iter().enumerate() {
            let ids: Vec<u64> = read
                .parse_tree(viewer, pattern)
                .iter()
                .map(|id| id.0)
                .collect();
            h = fnv(format!("{viewer}|tree {i}|{ids:?}\n").as_bytes(), h);
        }
        h = fnv(
            format!("{viewer}|rules|{}\n", read.rules(viewer)).as_bytes(),
            h,
        );
    }
    h
}

fn records_digest<'a>(h: u64, records: impl Iterator<Item = &'a QueryRecord>) -> u64 {
    records.fold(h, |h, r| fnv(features_line(r).as_bytes(), h))
}

fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
        assoc_min_support: 2,
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

/// Nested queries logged after the trace (whose generator writes
/// none), so the subquery pattern has something to find.
fn nested(domain: Domain) -> [&'static str; 2] {
    match domain {
        Domain::Lakes => [
            "SELECT lake, area FROM Lakes WHERE lake IN \
             (SELECT lake FROM WaterTemp WHERE temp < 18)",
            "SELECT city FROM CityLocations C WHERE EXISTS \
             (SELECT * FROM WaterTemp T WHERE T.loc_x = C.loc_x AND T.temp > 20)",
        ],
        Domain::SkySurvey => [
            "SELECT objid, ra FROM PhotoObj WHERE objid IN \
             (SELECT objid FROM SpecObj WHERE redshift > 0.5)",
            "SELECT objid FROM Neighbors WHERE distance < \
             (SELECT MAX(redshift) FROM SpecObj WHERE class = 'QSO')",
        ],
        Domain::WebLog => [
            "SELECT country FROM Users WHERE user_id IN \
             (SELECT user_id FROM Searches WHERE clicks > 2)",
            "SELECT url FROM PageViews P WHERE EXISTS \
             (SELECT * FROM Searches S WHERE S.user_id = P.user_id)",
        ],
    }
}

/// The trace's queries, then [`nested`]'s, as `(user index, sql, ts)`.
fn queries(trace: &Trace) -> Vec<(usize, &str, u64)> {
    let last = trace.queries.last().map_or(0, |q| q.ts);
    let mut out: Vec<(usize, &str, u64)> = trace
        .queries
        .iter()
        .map(|q| (q.user as usize, q.sql.as_str(), q.ts))
        .collect();
    for (i, sql) in nested(trace.config.domain).into_iter().enumerate() {
        out.push((i, sql, last + 1 + i as u64));
    }
    out
}

fn flagged() -> Validity {
    Validity::Flagged {
        reason: "pinned churn".into(),
        at: 1,
    }
}

/// The registered users (root first) and the logged queries as
/// `(issuer, id)`, in issue order.
type Issued = (Vec<UserId>, Vec<(UserId, QueryId)>);

/// Ingest the trace into a single-node CQMS, then churn it.
fn ingest_and_churn(cqms: &mut Cqms, trace: &Trace) -> Issued {
    let mut viewers = vec![cqms.register_user("root")];
    viewers.extend((0..trace.config.users).map(|i| cqms.register_user(&format!("user-{i}"))));
    let issued: Vec<(UserId, QueryId)> = queries(trace)
        .into_iter()
        .map(|(user, sql, ts)| {
            let user = viewers[user + 1];
            (user, cqms.run_query_at(user, sql, ts).unwrap().id)
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
    (viewers, issued)
}

fn single_digest(cqms: &Cqms, viewers: &[UserId]) -> u64 {
    let h = records_digest(FNV_SEED, cqms.storage.iter_live());
    reads_digest(h, cqms, viewers)
}

fn ram(trace: &Trace) -> u64 {
    let mut cqms = Cqms::new(trace.build_engine(), config(1));
    let (viewers, _) = ingest_and_churn(&mut cqms, trace);
    single_digest(&cqms, &viewers)
}

fn sharded(trace: &Trace) -> u64 {
    let sharded = ShardedCqms::new(|| trace.build_engine(), config(2));
    let mut viewers = vec![sharded.register_user("root")];
    viewers.extend((0..trace.config.users).map(|i| sharded.register_user(&format!("user-{i}"))));
    let issued: Vec<(UserId, QueryId)> = queries(trace)
        .into_iter()
        .map(|(user, sql, ts)| {
            let user = viewers[user + 1];
            (user, sharded.run_query_at(user, sql, ts).unwrap().id)
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
    let mut h = FNV_SEED;
    for (i, shard) in sharded.shards().iter().enumerate() {
        h = fnv(format!("shard {i}\n").as_bytes(), h);
        h = shard.read(|c| records_digest(h, c.storage.iter_live()));
    }
    let h = reads_digest(h, &sharded, &viewers);
    sharded.shutdown();
    h
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-features-{tag}-{}", std::process::id()))
}

fn durable(trace: &Trace) -> u64 {
    let dir = temp_dir(&format!("{:?}", trace.config.domain));
    let _ = std::fs::remove_dir_all(&dir);
    let viewers = {
        let mut cqms = Cqms::open(trace.build_engine(), config(1), &dir).unwrap();
        let (viewers, _) = ingest_and_churn(&mut cqms, trace);
        cqms.wal_flush().unwrap();
        viewers
    };
    let mut engine: Engine = trace.build_engine();
    engine.execute(rename(trace.config.domain)).unwrap();
    let reopened = Cqms::open(engine, config(1), &dir).unwrap();
    let digest = single_digest(&reopened, &viewers);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    digest
}

fn check_domain(domain: Domain, golden: &Golden) {
    let trace = trace(domain);
    let got = [ram(&trace), sharded(&trace), durable(&trace)];
    let want = [golden.ram, golden.sharded, golden.reopened];
    assert_eq!(
        got, want,
        "{domain:?} [RAM, 2 shards, reopened] feature digests moved; computed \
         [0x{:016x}, 0x{:016x}, 0x{:016x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn lakes_features_and_their_reads_are_pinned() {
    check_domain(Domain::Lakes, &LAKES);
}

#[test]
fn skysurvey_features_and_their_reads_are_pinned() {
    check_domain(Domain::SkySurvey, &SKY);
}

#[test]
fn weblog_features_and_their_reads_are_pinned() {
    check_domain(Domain::WebLog, &WEBLOG);
}
