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
//! `(id, score_pct, diff, annotation)`; and, in a second digest, through
//! `similar_queries` with the `TreeEdit` and `ParseTree` metrics (k = 10).
//! The probes run twice: once while the maintenance pass's reindex
//! overrides are outstanding, and once more after the index rebuild
//! retires them. Both digests of each phase are pinned for each
//! (deployment, domain); ids differ between deployments, so tied hits may
//! order differently and each deployment has its own.
//!
//! A third digest pins the session graph's Figure 2 labels: every
//! session's `render_session` window and the `EditPatternMiner`'s edit
//! counts, for every viewer.

use cqms_core::assist::recommend::PanelRow;
use cqms_core::metaquery::ScoredHit;
use cqms_core::miner::editpatterns::EditPatternMiner;
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

/// `[overrides outstanding, after the rebuild]` per deployment, for one
/// of the two digests.
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

/// The `TreeEdit` + `ParseTree` digests.
const LAKES_TREES: Golden = Golden {
    ram: [0xb9c8965bd8f573a3, 0xb9c8965bd8f573a3],
    sharded: [0x3906bc4503496c71, 0x3906bc4503496c71],
    reopened: [0xb9c8965bd8f573a3, 0xb9c8965bd8f573a3],
};
const SKY_TREES: Golden = Golden {
    ram: [0xb1269c88f36ee980, 0xb1269c88f36ee980],
    sharded: [0x78f60aa062d085bf, 0x78f60aa062d085bf],
    reopened: [0xb1269c88f36ee980, 0xb1269c88f36ee980],
};
const WEBLOG_TREES: Golden = Golden {
    ram: [0x2b4998d4076211af, 0x2b4998d4076211af],
    sharded: [0x2fce902af71dcdb7, 0x2fce902af71dcdb7],
    reopened: [0x2b4998d4076211af, 0x2b4998d4076211af],
};

/// The session-window and edit-pattern digest of each deployment.
struct Sessions {
    ram: u64,
    sharded: u64,
    reopened: u64,
}

const LAKES_SESSIONS: Sessions = Sessions {
    ram: 0xe811b0701782e9cf,
    sharded: 0xa314562de242de8d,
    reopened: 0xc9c3b8fc237695c8,
};
const SKY_SESSIONS: Sessions = Sessions {
    ram: 0x792d21c97633d4bf,
    sharded: 0x6de9ae15b5f25204,
    reopened: 0x6f6784477fc5e565,
};
const WEBLOG_SESSIONS: Sessions = Sessions {
    ram: 0xe3276193e6bf3937,
    sharded: 0x6ebcff3358f603bf,
    reopened: 0xb48ad2d6ce24bf7e,
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

/// One phase's two digests: every probe's `Features` and `Combined`
/// answers and its panel; every probe's `TreeEdit` and `ParseTree`
/// answers.
fn phase_digest(trace: &Trace, probed: &dyn Probed) -> [u64; 2] {
    let probes = probes(trace);
    let classes = probes.iter().fold(FNV_SEED, |h, sql| {
        let h = hits_digest(h, probed.similar(sql, DistanceKind::Features));
        let h = hits_digest(h, probed.similar(sql, DistanceKind::Combined));
        panel_digest(h, probed.panel(sql))
    });
    let trees = probes.iter().fold(FNV_SEED, |h, sql| {
        let h = hits_digest(h, probed.similar(sql, DistanceKind::TreeEdit));
        hits_digest(h, probed.similar(sql, DistanceKind::ParseTree))
    });
    [classes, trees]
}

/// A deployment's `[overrides outstanding, rebuilt]` phase digests.
type Phases = [[u64; 2]; 2];

/// Fold every session window of `snap` and its mined edit counts, as
/// each of `viewers` sees them, into `h`.
fn sessions_digest(mut h: u64, snap: &ReadSnapshot, viewers: &[UserId]) -> u64 {
    for &viewer in viewers {
        for session in snap.storage().session_ids() {
            let window = snap
                .render_session(viewer, session)
                .unwrap_or_else(|_| "hidden\n".into());
            h = fnv(format!("{viewer}|{session}\n{window}").as_bytes(), h);
        }
        let edits = EditPatternMiner::mine(&snap.view(viewer)).top_edits(usize::MAX);
        h = fnv(format!("{viewer}|edits|{edits:?}\n").as_bytes(), h);
    }
    h
}

fn check(what: &str, got: Phases, golden: [&[u64; 2]; 2]) {
    for (digest, name) in ["classes", "trees"].iter().enumerate() {
        let got = [got[0][digest], got[1][digest]];
        assert_eq!(
            got, *golden[digest],
            "{what} {name}: [overrides outstanding, rebuilt] digests moved; \
             computed [0x{:016x}, 0x{:016x}]",
            got[0], got[1]
        );
    }
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

/// Ingest the trace into a single-node CQMS, then churn it. Returns the
/// registered users (root first) and the issued queries.
fn ingest_and_churn(cqms: &mut Cqms, trace: &Trace) -> (Vec<UserId>, Issued) {
    let mut viewers = vec![cqms.register_user("root")];
    viewers.extend((0..trace.config.users).map(|i| cqms.register_user(&format!("user-{i}"))));
    let issued: Issued = trace
        .queries
        .iter()
        .map(|q| {
            let user = viewers[q.user as usize + 1];
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
    (viewers, issued)
}

/// Probe a single-node CQMS, rebuild its indexes, probe again.
fn probe_single(cqms: &mut Cqms, trace: &Trace, viewer: UserId) -> Phases {
    assert!(cqms.storage.indexes().override_count() > 0);
    let outstanding = phase_digest(trace, &Viewed(&cqms.capture_snapshot(0), viewer));
    cqms.storage.run_index_maintenance();
    let rebuilt = phase_digest(trace, &Viewed(&cqms.capture_snapshot(0), viewer));
    [outstanding, rebuilt]
}

fn ram(trace: &Trace) -> (Phases, u64) {
    let mut cqms = Cqms::new(trace.build_engine(), config(1));
    let (viewers, issued) = ingest_and_churn(&mut cqms, trace);
    let phases = probe_single(&mut cqms, trace, issued[0].0);
    (
        phases,
        sessions_digest(FNV_SEED, &cqms.capture_snapshot(0), &viewers),
    )
}

fn sharded(trace: &Trace) -> (Phases, u64) {
    let sharded = ShardedCqms::new(|| trace.build_engine(), config(2));
    let mut viewers = vec![sharded.register_user("root")];
    viewers.extend((0..trace.config.users).map(|i| sharded.register_user(&format!("user-{i}"))));
    let issued: Issued = trace
        .queries
        .iter()
        .map(|q| {
            let user = viewers[q.user as usize + 1];
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
    let mut sessions = FNV_SEED;
    for (i, shard) in sharded.shards().iter().enumerate() {
        sessions = fnv(format!("shard {i}\n").as_bytes(), sessions);
        sessions = shard.read(|c| sessions_digest(sessions, &c.capture_snapshot(0), &viewers));
    }
    sharded.shutdown();
    ([outstanding, rebuilt], sessions)
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("cqms-knn-{tag}-{}", std::process::id()))
}

fn durable(trace: &Trace) -> (Phases, u64) {
    let dir = temp_dir(&format!("{:?}", trace.config.domain));
    let _ = std::fs::remove_dir_all(&dir);
    let (viewers, issued) = {
        let mut cqms = Cqms::open(trace.build_engine(), config(1), &dir).unwrap();
        let churned = ingest_and_churn(&mut cqms, trace);
        cqms.wal_flush().unwrap();
        churned
    };
    let mut engine: Engine = trace.build_engine();
    engine.execute(rename(trace.config.domain)).unwrap();
    let mut reopened = Cqms::open(engine, config(1), &dir).unwrap();
    let digests = probe_single(&mut reopened, trace, issued[0].0);
    let sessions = sessions_digest(FNV_SEED, &reopened.capture_snapshot(0), &viewers);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    (digests, sessions)
}

fn check_domain(domain: Domain, golden: &Golden, trees: &Golden, sessions: &Sessions) {
    let trace = trace(domain);
    let (ram, ram_sessions) = ram(&trace);
    check(&format!("{domain:?} RAM"), ram, [&golden.ram, &trees.ram]);
    let (two, two_sessions) = sharded(&trace);
    check(
        &format!("{domain:?} 2 shards"),
        two,
        [&golden.sharded, &trees.sharded],
    );
    let (reopened, reopened_sessions) = durable(&trace);
    check(
        &format!("{domain:?} reopened"),
        reopened,
        [&golden.reopened, &trees.reopened],
    );
    let got = [ram_sessions, two_sessions, reopened_sessions];
    let want = [sessions.ram, sessions.sharded, sessions.reopened];
    assert_eq!(
        got, want,
        "{domain:?} [RAM, 2 shards, reopened] session digests moved; computed \
         [0x{:016x}, 0x{:016x}, 0x{:016x}]",
        got[0], got[1], got[2]
    );
}

#[test]
fn lakes_knn_and_panels_are_pinned() {
    check_domain(Domain::Lakes, &LAKES, &LAKES_TREES, &LAKES_SESSIONS);
}

#[test]
fn skysurvey_knn_and_panels_are_pinned() {
    check_domain(Domain::SkySurvey, &SKY, &SKY_TREES, &SKY_SESSIONS);
}

#[test]
fn weblog_knn_and_panels_are_pinned() {
    check_domain(Domain::WebLog, &WEBLOG, &WEBLOG_TREES, &WEBLOG_SESSIONS);
}

/// An evolution edge's labels come from its two ends' current
/// statements, so a rename repair relabels it the same way live and
/// after a reopen from a WAL snapshot (which re-logs every query with
/// its repaired SQL, then the edges).
#[test]
fn session_labels_agree_live_and_reopened_after_a_rename() {
    let trace = trace(Domain::Lakes);
    let dir = temp_dir("labels");
    let _ = std::fs::remove_dir_all(&dir);
    let sqls = [
        "SELECT * FROM Lakes",
        "SELECT * FROM Lakes, WaterTemp",
        "SELECT * FROM Lakes, WaterTemp WHERE temp < 18",
    ];
    let (user, session, live) = {
        let mut cqms = Cqms::open(trace.build_engine(), config(1), &dir).unwrap();
        let user = cqms.register_user("analyst");
        let ids: Vec<QueryId> = (sqls.iter().enumerate())
            .map(|(i, sql)| cqms.run_query_at(user, sql, 100 + i as u64).unwrap().id)
            .collect();
        let session = cqms.storage.get(ids[0]).unwrap().session;
        assert_eq!(cqms.storage.queries_in_session(session), ids);
        cqms.data.execute(rename(Domain::Lakes)).unwrap();
        let (schema, _) = cqms.run_maintenance().unwrap();
        assert_eq!(schema.repaired, ids[1..]);
        assert!(cqms.force_snapshot().unwrap(), "snapshot written");
        let live = cqms
            .capture_snapshot(0)
            .render_session(user, session)
            .unwrap();
        (user, session, live)
    };
    let mut engine: Engine = trace.build_engine();
    engine.execute(rename(Domain::Lakes)).unwrap();
    let reopened = Cqms::open(engine, config(1), &dir).unwrap();
    let window = reopened.capture_snapshot(0).render_session(user, session);
    drop(reopened);
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(window.unwrap(), live);
    assert!(live.contains("+laketemperatures"), "{live}");
}
