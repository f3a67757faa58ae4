//! One round: open the crash image, replay the fixed op list closed-loop
//! on one client thread timing every call, run the round-end miner epoch,
//! drop the service. Identical ops on identical state every round.

use crate::deploy::{self, Image};
use crate::digest::Fnv;
use crate::layers::Probe;
use crate::ops::{AdminOp, Inputs, Kind, Op};
use crate::stats::{median, quantile, tail_quantile};
use cqms_core::metaquery::TreePattern;
use cqms_core::model::UserId;
use cqms_core::server::MinerReport;
use cqms_core::similarity::DistanceKind;
use cqms_core::{CqmsError, IngestItem, QueryId, RecoveryReport, ShardedCqms, Visibility};
use std::path::Path;
use std::time::Instant;
use workload::Trace;

pub const KNN_K: usize = 10;
pub const SUGGEST_K: usize = 5;

/// What a call returned, reduced to what the checks and the digest need.
pub enum Answer {
    /// Ids acked for the ingested items, in input order.
    Acked(Vec<Result<QueryId, CqmsError>>),
    /// An admin write or a miner epoch.
    Done(Result<(), CqmsError>),
    /// An exact id set (substring search): deterministic, digested.
    Ids(Vec<QueryId>),
    /// A ranked read: only its length is kept (scores depend on measured
    /// `elapsed_us`, so neither they nor tie orders are digested).
    Hits(Result<usize, CqmsError>),
}

/// The deployment a round runs against.
pub struct Deployment<'a> {
    pub inputs: &'a Inputs,
    pub svc: &'a ShardedCqms,
    pub users: &'a [UserId],
    pub image: &'a Image,
}

impl Deployment<'_> {
    /// Issue `op` and time exactly the service call: arguments are built
    /// before the clock starts, the answer is reduced after it stops.
    pub fn call(&self, op: &Op) -> (Answer, Instant, Instant) {
        let svc = self.svc;
        let user = |u: &u32| self.users[*u as usize];
        macro_rules! timed {
            ($call:expr) => {{
                let start = Instant::now();
                let out = std::hint::black_box($call);
                (out, start, Instant::now())
            }};
        }
        match op {
            Op::RunQuery(item) => {
                let u = user(&item.user);
                let (out, s, e) = timed!(svc.run_query_at(u, &item.sql, item.ts));
                (Answer::Acked(vec![out.map(|p| p.id)]), s, e)
            }
            Op::IngestBatch(items) => {
                let batch: Vec<IngestItem> = items
                    .iter()
                    .map(|i| deploy::ingest_item(self.users, i))
                    .collect();
                let (out, s, e) = timed!(svc.ingest_batch(&batch));
                (Answer::Acked(out), s, e)
            }
            Op::Admin { op, target } => {
                let id = self.image.ids[*target];
                let owner = user(&self.inputs.preload[*target].user);
                let (out, s, e) = match op {
                    AdminOp::Annotate => {
                        timed!(svc.annotate(owner, id, "checked against the 2009 survey", None))
                    }
                    AdminOp::MakePrivate => {
                        timed!(svc.set_visibility(owner, id, Visibility::Private))
                    }
                    AdminOp::Delete => timed!(svc.delete_query(owner, id)),
                };
                (Answer::Done(out), s, e)
            }
            Op::Complete { user: u, prefix } => {
                let (out, s, e) = timed!(svc.complete(user(u), prefix, SUGGEST_K));
                (Answer::Hits(Ok(out.len())), s, e)
            }
            Op::Keyword { user: u, query } => {
                let (out, s, e) = timed!(svc.search_keyword(user(u), query, KNN_K));
                (Answer::Hits(Ok(out.len())), s, e)
            }
            Op::Substring { user: u, needle } => {
                let (out, s, e) = timed!(svc.search_substring(user(u), needle));
                (Answer::Ids(out), s, e)
            }
            Op::Knn { user: u, sql, kind } => {
                let metric = distance_of(*kind);
                let (out, s, e) = timed!(svc.similar_queries(user(u), sql, KNN_K, metric));
                (Answer::Hits(out.map(|h| h.len())), s, e)
            }
            Op::Recommend { user: u, sql } => {
                let (out, s, e) = timed!(svc.recommend(user(u), sql, SUGGEST_K));
                (Answer::Hits(out.map(|r| r.len())), s, e)
            }
            Op::FeatureSql { user: u, sql } => {
                let (out, s, e) = timed!(svc.search_feature_sql(user(u), sql));
                (Answer::Hits(out.map(|r| r.rows.len())), s, e)
            }
            Op::MinerEpoch => {
                let (out, s, e) = timed!(svc.run_miner_epoch());
                (Answer::Done(epoch_result(&out)), s, e)
            }
        }
    }
}

pub fn distance_of(kind: Kind) -> DistanceKind {
    match kind {
        Kind::KnnFeatures => DistanceKind::Features,
        Kind::KnnTree => DistanceKind::TreeEdit,
        Kind::KnnParseTree => DistanceKind::ParseTree,
        other => panic!("{other:?} is not a kNN kind"),
    }
}

fn epoch_result(reports: &[MinerReport]) -> Result<(), CqmsError> {
    match reports.iter().find_map(|r| r.wal_flush_error.clone()) {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// Everything one round measured.
#[derive(Default)]
pub struct RoundStats {
    /// Seconds each call took, aligned with the op list.
    pub op_secs: Vec<f64>,
    pub recover_s: f64,
    pub miner_epoch_s: f64,
    pub calib_us: f64,
    pub bytes_added: u64,
    pub acked_sql_bytes: u64,
    pub acked_writes: u64,
    pub attempted: u64,
    pub failed: u64,
    pub inserts: u64,
    pub deletes: u64,
    pub digest: u64,
    pub first_failure: Option<String>,
    pub recovery: Vec<RecoveryReport>,
    pub epoch_reports: Vec<MinerReport>,
    /// A fixed sample of acked inserts `(owner, id, sql)` for the reopen
    /// check.
    pub acked_sample: Vec<(UserId, QueryId, String)>,
}

impl RoundStats {
    pub fn wal_bytes_per_user_byte(&self) -> f64 {
        self.bytes_added as f64 / self.acked_sql_bytes.max(1) as f64
    }

    fn fail(&mut self, n: u64, why: impl FnOnce() -> String) {
        self.failed += n;
        if self.first_failure.is_none() {
            self.first_failure = Some(why());
        }
    }

    /// Fold one answered call into the counters and the digest.
    fn absorb(&mut self, op: &Op, answer: Answer, secs: f64, users: &[UserId], digest: &mut Fnv) {
        let kind = op.kind();
        self.op_secs.push(secs);
        match answer {
            Answer::Acked(results) => {
                let items = match op {
                    Op::RunQuery(item) => std::slice::from_ref(item),
                    Op::IngestBatch(items) => items.as_slice(),
                    _ => unreachable!("only ingests are acked with ids"),
                };
                self.attempted += items.len() as u64;
                for (item, res) in items.iter().zip(results) {
                    match res {
                        Ok(id) => {
                            digest.u64(id.0);
                            self.acked_sql_bytes += item.sql.len() as u64;
                            self.acked_writes += 1;
                            if self.inserts.is_multiple_of(97) {
                                self.acked_sample.push((
                                    users[item.user as usize],
                                    id,
                                    item.sql.clone(),
                                ));
                            }
                            self.inserts += 1;
                        }
                        Err(e) => self.fail(1, || format!("{}: {e}", kind.name())),
                    }
                }
            }
            Answer::Done(res) => {
                self.attempted += 1;
                match res {
                    Ok(()) if kind == Kind::Admin => {
                        self.acked_writes += 1;
                        if matches!(
                            op,
                            Op::Admin {
                                op: AdminOp::Delete,
                                ..
                            }
                        ) {
                            self.deletes += 1;
                        }
                    }
                    Ok(()) => {}
                    Err(e) => self.fail(1, || format!("{}: {e}", kind.name())),
                }
            }
            Answer::Ids(ids) => {
                self.attempted += 1;
                digest.u64(ids.len() as u64);
                ids.iter().for_each(|id| digest.u64(id.0));
            }
            Answer::Hits(res) => {
                self.attempted += 1;
                if let Err(e) = res {
                    self.fail(1, || format!("{}: {e}", kind.name()));
                }
            }
        }
    }
}

/// Per call, the fastest of the rounds' timings. Every round makes the
/// same call on the same state, so a call's timings differ only by what
/// the machine did to them, and on a shared box that is one-sided: bursts
/// of interference make calls slower, nothing makes them faster. The
/// minimum over rounds is the estimate least moved by a burst.
pub fn floor_over_rounds(rounds: &[RoundStats]) -> Vec<f64> {
    let n = rounds.first().map_or(0, |r| r.op_secs.len());
    (0..n)
        .map(|i| {
            rounds
                .iter()
                .map(|r| r.op_secs[i])
                .fold(f64::INFINITY, f64::min)
        })
        .collect()
}

/// The latency profile of one pass over `ops` at `secs` per call.
pub struct Profile {
    /// Σ call seconds: closed loop, so this is the timed section.
    pub timed_s: f64,
    pub write_s: f64,
    pub read_s: f64,
    /// One sample per acked write in ms (a batch contributes its call time
    /// ÷ items, once per item).
    pub write_ms: Vec<f64>,
    pub read_ms: Vec<f64>,
}

impl Profile {
    pub fn of(ops: &[Op], secs: &[f64]) -> Profile {
        let mut p = Profile {
            timed_s: secs.iter().sum(),
            write_s: 0.0,
            read_s: 0.0,
            write_ms: Vec::new(),
            read_ms: Vec::new(),
        };
        for (op, &s) in ops.iter().zip(secs) {
            let writes = op.writes();
            if writes > 0 {
                p.write_s += s;
                p.write_ms
                    .extend(std::iter::repeat_n(s * 1e3 / writes as f64, writes));
            } else if op.kind().is_read() {
                p.read_s += s;
                p.read_ms.push(s * 1e3);
            }
        }
        p
    }

    pub fn write_p50_ms(&self) -> f64 {
        median(&self.write_ms)
    }
    pub fn write_tail_ms(&self) -> f64 {
        quantile(&self.write_ms, tail_quantile(self.write_ms.len()))
    }
    pub fn read_p50_ms(&self) -> f64 {
        median(&self.read_ms)
    }
    pub fn read_tail_ms(&self) -> f64 {
        quantile(&self.read_ms, tail_quantile(self.read_ms.len()))
    }
}

/// A fixed FNV pass over 1 MiB: a drift sentinel for the machine, timed at
/// every round start.
pub fn machine_calibration_us() -> f64 {
    let buf: Vec<u8> = (0..1 << 20).map(|i| (i * 31 + 7) as u8).collect();
    let t = Instant::now();
    let mut h = Fnv::default();
    h.bytes(std::hint::black_box(&buf));
    std::hint::black_box(h.finish());
    t.elapsed().as_secs_f64() * 1e6
}

/// What every round of a run starts from.
pub struct Stage<'a> {
    /// The pool's trace: schema and data for the engines.
    pub pool: &'a Trace,
    pub inputs: &'a Inputs,
    /// The pristine crash image and what building it acked.
    pub image_dir: &'a Path,
    pub image: &'a Image,
    /// Where rounds copy the image to (`main/`) and rigs live (`rig-*/`).
    pub scratch: &'a Path,
}

/// Run round number `round` of `ops` against a fresh copy of the image.
/// With a `probe`, spans are recorded and the sampled ops are re-fed to
/// the layer rigs. `with_epoch` is false only for the warm-up.
pub fn run_round(
    stage: &Stage,
    ops: &[Op],
    round: usize,
    with_epoch: bool,
    mut probe: Option<&mut Probe>,
) -> Result<RoundStats, String> {
    let Stage {
        pool: trace,
        inputs,
        image_dir,
        image,
        scratch,
    } = *stage;
    let main = scratch.join("main");
    deploy::copy_dir(image_dir, &main).map_err(|e| format!("copy image: {e}"))?;
    if let Some(p) = probe.as_deref_mut() {
        p.begin_round(trace, image_dir, scratch, round)?;
    }
    let mut stats = RoundStats {
        calib_us: machine_calibration_us(),
        ..RoundStats::default()
    };
    let (svc, users, open_s) = deploy::open(trace, &main).map_err(|e| format!("open: {e}"))?;
    stats.recover_s = open_s;
    stats.recovery = svc
        .shard_recovery()
        .into_iter()
        .collect::<Result<_, _>>()
        .map_err(|e| format!("shard recovery: {e}"))?;
    let bytes_before = deploy::dir_bytes(&main).map_err(|e| e.to_string())?;

    let dep = Deployment {
        inputs,
        svc: &svc,
        users: &users,
        image,
    };
    let mut digest = Fnv::default();
    for (i, op) in ops.iter().enumerate() {
        let (answer, start, end) = dep.call(op);
        let secs = (end - start).as_secs_f64();
        if let Some(p) = probe.as_deref_mut() {
            p.after_op(&dep, i, op, &answer, start, end);
        }
        stats.absorb(op, answer, secs, &users, &mut digest);
    }
    stats.bytes_added = deploy::dir_bytes(&main)
        .map_err(|e| e.to_string())?
        .saturating_sub(bytes_before);

    if let Some(p) = probe.as_deref_mut() {
        p.before_epoch(&dep, ops);
    }
    if with_epoch {
        let t = Instant::now();
        let reports = svc.run_miner_epoch();
        stats.miner_epoch_s = t.elapsed().as_secs_f64();
        if let Err(e) = epoch_result(&reports) {
            stats.fail(1, || format!("round-end epoch: {e}"));
        }
        stats.epoch_reports = reports;
    }
    if let Some(p) = probe {
        p.end_round();
    }

    // Deterministic answers beyond the replay's own: structural and exact
    // text search over a fixed sample, folded into the digest (untimed).
    for (owner, _, sql) in stats.acked_sample.iter().take(4) {
        let tables = crate::ops::tables_of(sql);
        let pattern = TreePattern {
            tables_all: tables.iter().take(1).map(|t| (*t).to_string()).collect(),
            ..TreePattern::default()
        };
        for id in svc.search_parse_tree(*owner, &pattern) {
            digest.u64(id.0);
        }
    }
    stats.digest = digest.finish();
    drop(svc); // crash again: the next round starts from the pristine image
    Ok(stats)
}

/// After the first timed round: reopen what the round left on disk and
/// check that exactly the acked state is there.
pub fn verify_reopen(
    trace: &Trace,
    scratch: &Path,
    preloaded: usize,
    stats: &RoundStats,
) -> Result<(), String> {
    let (svc, _, _) =
        deploy::open(trace, &scratch.join("main")).map_err(|e| format!("reopen: {e}"))?;
    let want = preloaded as u64 + stats.inserts - stats.deletes;
    let live = svc.live_count() as u64;
    if live != want {
        return Err(format!(
            "reopen: live_count {live}, expected {want} = {preloaded} preloaded + {} acked - {} deleted",
            stats.inserts, stats.deletes
        ));
    }
    for (owner, id, sql) in &stats.acked_sample {
        if !svc.search_substring(*owner, sql).contains(id) {
            return Err(format!("reopen: acked query {id} not found by its text"));
        }
    }
    Ok(())
}
