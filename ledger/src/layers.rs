//! The traced run's layer probes: spans around public functions of each
//! layer, called from here — the program under test is not changed.
//!
//! The replayed op gets a real span. For one op in eight, the same input
//! is then re-fed to *rigs*: side instances opened from a copy of shard 0
//! of the same crash image, one per layer boundary —
//!
//! ```text
//! op.run_query (ShardedCqms, the real call)
//! ├ shard.route               shard_of + globalize + locate
//! └ service.run_query_at      CqmsService over a durable Cqms
//!   ├ cqms.durable_write      Cqms::run_query_at, WAL attached
//!   │ └ server.run_query      Cqms::run_query_at, WAL detached
//!   │   └ profiler.profile    Profiler::profile on bare storage + engine
//!   │     ├ sqlparse.parse
//!   │     ├ relstore.execute
//!   │     └ features.extract
//!   ├ wal.flush               Cqms::wal_flush (flush to the OS, no fsync)
//!   ├ snapshot.capture        Cqms::capture_snapshot
//!   └ admission.admit
//! ```
//!
//! — so each layer's cost is the difference between neighbouring spans
//! (`trace::Tracer` calls that self time). Sampled reads get one
//! `snapshot.pin` + one per-shard `ReadSnapshot` call per shard as
//! children; what is left of the op is the cross-shard merge.

use crate::deploy;
use crate::ops::{self, Item, Kind, Op};
use crate::round::{distance_of, Answer, Deployment, KNN_K, SUGGEST_K};
use crate::stats::median;
use crate::trace::{SpanId, Tracer};
use cqms_core::miner::assoc::RuleMiner;
use cqms_core::miner::{cluster, sessions};
use cqms_core::model::UserId;
use cqms_core::profiler::Profiler;
use cqms_core::storage::QueryStorage;
use cqms_core::{features, similarity, wal, Cqms, CqmsConfig, CqmsService, Visibility};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use workload::Trace;

/// One op in eight *of each kind* is re-fed to the rigs, starting with the
/// kind's first, so every kind a round issues is sampled at least once.
pub const SAMPLE_EVERY: usize = 8;
/// Calls per read kind the workload's own mix lacks, made after the timed
/// section so every layer metric exists on every workload.
const PROBE_CALLS: usize = 8;

struct Rigs {
    cfg: CqmsConfig,
    users: Vec<UserId>,
    profiler: Profiler,
    /// Bare storage + engine for `Profiler::profile` (its own profiler is
    /// unused).
    bare: Cqms,
    ram: Cqms,
    durable: Cqms,
    fsync: Cqms,
    service: CqmsService,
}

pub struct Probe {
    pub tracer: Tracer,
    /// This round's samples per layer metric.
    round_samples: BTreeMap<&'static str, Vec<f64>>,
    /// One value per traced round per layer metric (the round's median).
    pub per_round: BTreeMap<&'static str, Vec<f64>>,
    rigs: Option<Rigs>,
    round: usize,
    /// Hits returned by tree-metric kNN calls this round.
    tree_results: u64,
    /// Calls of each kind seen this round.
    seen: BTreeMap<Kind, usize>,
}

fn op_metric(kind: Kind) -> Option<&'static str> {
    Some(match kind {
        Kind::Complete => "op.complete_us",
        Kind::Keyword => "op.keyword_us",
        Kind::Substring => "op.substring_us",
        Kind::KnnFeatures => "op.knn_features_us",
        Kind::KnnTree => "op.knn_tree_us",
        Kind::KnnParseTree => "op.knn_parsetree_us",
        Kind::Recommend => "op.recommend_us",
        Kind::FeatureSql => "op.feature_sql_us",
        _ => return None,
    })
}

fn merge_metric(kind: Kind) -> Option<&'static str> {
    Some(match kind {
        Kind::Complete => "shard.merge_self_us.complete",
        Kind::Keyword => "shard.merge_self_us.keyword",
        Kind::KnnFeatures | Kind::KnnTree | Kind::KnnParseTree => "shard.merge_self_us.knn",
        Kind::Recommend => "shard.merge_self_us.recommend",
        _ => return None,
    })
}

impl Probe {
    pub fn new() -> Self {
        Probe {
            tracer: Tracer::new(),
            round_samples: BTreeMap::new(),
            per_round: BTreeMap::new(),
            rigs: None,
            round: 0,
            tree_results: 0,
            seen: BTreeMap::new(),
        }
    }

    fn sample(&mut self, metric: &'static str, value: f64) {
        self.round_samples.entry(metric).or_default().push(value);
    }

    fn op_id(&self, index: usize) -> u64 {
        self.round as u64 * 1_000_000 + index as u64
    }

    /// Open the five rigs from copies of the image's shard 0, timing the
    /// first open and a standalone load of its snapshot to split recovery
    /// into snapshot load and frame replay.
    pub fn begin_round(
        &mut self,
        trace: &Trace,
        image_dir: &Path,
        scratch: &Path,
        round: usize,
    ) -> Result<(), String> {
        self.round = round;
        self.tree_results = 0;
        self.seen.clear();
        let shard0 = image_dir.join("shard-0");
        let id = self.op_id(999_000);
        let cfg = deploy::pinned_config();
        let open_rig = |this: &mut Probe, name: &str, cfg: &CqmsConfig| {
            let dir = scratch.join(name);
            deploy::copy_dir(&shard0, &dir).map_err(|e| format!("copy {name}: {e}"))?;
            let engine = trace.build_engine();
            let (out, _, us) = this.tracer.time("rig.open", None, id, || {
                Cqms::open(engine, cfg.clone(), &dir)
            });
            let mut cqms = out.map_err(|e| format!("open {name}: {e}"))?;
            // Same names in the same order: every rig hands out the ids
            // the main deployment does.
            let users = deploy::register_users(|n| cqms.register_user(n));
            Ok::<_, String>((cqms, users, us))
        };

        let (durable, users, open_us) = open_rig(self, "rig-durable", &cfg)?;
        let report = durable.recovery().cloned().unwrap_or_default();
        // A pure-WAL image has no snapshot: its whole open is replay.
        let load_us = self
            .time_snapshot_load(&shard0, id)
            .map_or(0.0, |(us, _)| us);
        self.sample(
            "wal.replay_us_per_frame",
            (open_us - load_us).max(0.0) / report.frames_replayed.max(1) as f64,
        );

        let (mut bare, _, _) = open_rig(self, "rig-bare", &cfg)?;
        bare.storage.detach_wal();
        let (mut ram, _, _) = open_rig(self, "rig-ram", &cfg)?;
        ram.storage.detach_wal();
        let fsync_cfg = CqmsConfig {
            wal_fsync: true,
            ..cfg.clone()
        };
        let (fsync, _, _) = open_rig(self, "rig-fsync", &fsync_cfg)?;
        let (service, _, _) = open_rig(self, "rig-service", &cfg)?;
        self.rigs = Some(Rigs {
            users,
            cfg,
            profiler: Profiler::new(),
            bare,
            ram,
            durable,
            fsync,
            service: CqmsService::new(service),
        });
        Ok(())
    }

    /// Time a standalone load of the newest snapshot in `dir`: µs and
    /// records loaded, or `None` when there is no loadable snapshot.
    fn time_snapshot_load(&mut self, dir: &Path, id: u64) -> Option<(f64, usize)> {
        let (_, path) = wal::list_snapshots(dir).ok()?.pop()?;
        let (loaded, _, us) = self.tracer.time("wal.snapshot_load", None, id, || {
            let (_, body) = wal::read_snapshot_file(&path).ok()?;
            QueryStorage::load(&body[..]).ok()
        });
        Some((us, loaded?.len()))
    }

    /// Record the op's span; for the sampled ops, feed the rigs.
    pub fn after_op(
        &mut self,
        dep: &Deployment,
        index: usize,
        op: &Op,
        answer: &Answer,
        start: Instant,
        end: Instant,
    ) {
        let kind = op.kind();
        let id = self.op_id(index);
        let (span, op_us) = self.tracer.record(kind.name(), None, id, start, end);
        if let Some(metric) = op_metric(kind) {
            self.sample(metric, op_us);
        }
        if let (Kind::KnnTree | Kind::KnnParseTree, Answer::Hits(Ok(n))) = (kind, answer) {
            self.tree_results += *n as u64;
        }
        let seen = self.seen.entry(kind).or_default();
        let sampled = seen.is_multiple_of(SAMPLE_EVERY);
        *seen += 1;
        if !sampled {
            return;
        }
        match op {
            Op::RunQuery(item) => {
                self.probe_route(dep, item, span, id);
                self.probe_write(std::slice::from_ref(item), span, id);
            }
            Op::IngestBatch(items) => {
                self.probe_route(dep, &items[0], span, id);
                self.probe_write(items, span, id);
            }
            _ if kind.is_read() => self.probe_read(dep, op, span, op_us, id),
            _ => {}
        }
    }

    /// What `ShardedCqms` itself adds to a routed write: the user hash and
    /// the id stripe, timed directly (a difference between the real call
    /// and a rig would drown these nanoseconds in the instances' noise).
    fn probe_route(&mut self, dep: &Deployment, item: &Item, op_span: SpanId, id: u64) {
        let user = dep.users[item.user as usize];
        let (_, _, us) = self.tracer.time("shard.route", Some(op_span), id, || {
            let shard = dep.svc.shard_of(std::hint::black_box(user));
            let global = dep
                .svc
                .globalize(shard, cqms_core::QueryId(item.origin as u64));
            std::hint::black_box(dep.svc.locate(global))
        });
        self.sample("shard.route_self_us", us);
    }

    /// Re-feed `items` down the rig chain. Every sample is per item, so a
    /// batch of 64 and a single write are comparable.
    fn probe_write(&mut self, items: &[Item], op_span: SpanId, id: u64) {
        let mut rigs = self
            .rigs
            .take()
            .expect("rigs are open during a traced round");
        let n = items.len() as f64;
        let user = |item: &Item| rigs.users[item.user as usize];
        let t = &mut self.tracer;

        let batch: Vec<cqms_core::IngestItem> = items
            .iter()
            .map(|i| deploy::ingest_item(&rigs.users, i))
            .collect();
        let (_, svc_span, svc_us) = t.time("service.run_query_at", Some(op_span), id, || {
            if let [item] = items {
                let _ = rigs.service.run_query_at(user(item), &item.sql, item.ts);
            } else {
                let _ = rigs.service.ingest_batch(&batch);
            }
        });
        let (_, dur_span, dur_us) = t.time("cqms.durable_write", Some(svc_span), id, || {
            for item in items {
                let _ = rigs.durable.run_query_at(user(item), &item.sql, item.ts);
            }
        });
        let (_, _, flush_us) = t.time("wal.flush", Some(svc_span), id, || {
            let _ = rigs.durable.wal_flush();
        });
        let (_, ram_span, ram_us) = t.time("server.run_query", Some(dur_span), id, || {
            for item in items {
                let _ = rigs.ram.run_query_at(user(item), &item.sql, item.ts);
            }
        });
        let (_, prof_span, prof_us) = t.time("profiler.profile", Some(ram_span), id, || {
            for item in items {
                let _ = rigs.profiler.profile(
                    &rigs.cfg,
                    &mut rigs.bare.storage,
                    &mut rigs.bare.data,
                    user(item),
                    Visibility::Public,
                    &item.sql,
                    item.ts,
                );
            }
        });
        let (stmts, _, parse_us) = t.time("sqlparse.parse", Some(prof_span), id, || {
            items
                .iter()
                .filter_map(|i| sqlparse::parse(&i.sql).ok())
                .collect::<Vec<_>>()
        });
        let (scanned, _, exec_us) = t.time("relstore.execute", Some(prof_span), id, || {
            items
                .iter()
                .filter_map(|i| rigs.ram.data.query(&i.sql).ok())
                .map(|r| r.metrics.rows_scanned)
                .sum::<u64>()
        });
        let (_, _, extract_us) = t.time("features.extract", Some(prof_span), id, || {
            for stmt in &stmts {
                std::hint::black_box(features::extract(stmt, Some(&rigs.ram.data.catalog)));
            }
        });
        // One publish per service call, whatever the batch size.
        let (_, _, capture_us) = t.time("snapshot.capture", Some(svc_span), id, || {
            std::hint::black_box(rigs.durable.capture_snapshot(0));
        });
        let (_, _, admit_us) = t.time("admission.admit", Some(svc_span), id, || {
            drop(rigs.service.admission().admit_user(user(&items[0])));
        });
        // The same frames on a rig that fsyncs: only its flush is timed.
        for item in items {
            let _ = rigs.fsync.run_query_at(user(item), &item.sql, item.ts);
        }
        let (_, _, fsync_flush_us) = t.time("wal.flush_fsync", None, id, || {
            let _ = rigs.fsync.wal_flush();
        });
        self.rigs = Some(rigs);

        let per_item = |us: f64| us.max(0.0) / n;
        self.sample("sqlparse.parse_us", per_item(parse_us));
        self.sample("relstore.execute_us", per_item(exec_us));
        self.sample("relstore.rows_scanned_per_query", scanned as f64 / n);
        self.sample("features.extract_us", per_item(extract_us));
        self.sample("profiler.profile_us", per_item(prof_us));
        self.sample("server.run_query_us", per_item(ram_us));
        self.sample("wal.append_flush_us", per_item(dur_us - ram_us + flush_us));
        // Per flush, not per item: what one fsync adds to one ack.
        self.sample("wal.fsync_us", fsync_flush_us - flush_us);
        self.sample("snapshot.capture_us", capture_us);
        self.sample("admission.admit_us", admit_us);
        self.sample(
            "service.write_self_us",
            per_item(svc_us - dur_us - flush_us - capture_us),
        );
    }

    /// Pin each shard's snapshot and make the per-shard call the sharded
    /// read fans out to; the remainder of the op is the merge.
    fn probe_read(&mut self, dep: &Deployment, op: &Op, op_span: SpanId, op_us: f64, id: u64) {
        let mut shards_us = 0.0;
        for shard in dep.svc.shards() {
            let (snap, _, pin_us) = self
                .tracer
                .time("snapshot.pin", Some(op_span), id, || shard.snapshot());
            self.sample("snapshot.pin_us", pin_us);
            let u = |u: &u32| dep.users[*u as usize];
            let (_, _, us) = self
                .tracer
                .time("shard.read", Some(op_span), id, || match op {
                    Op::Complete { user, prefix } => {
                        snap.complete(u(user), prefix, SUGGEST_K).len()
                    }
                    Op::Keyword { user, query } => snap.search_keyword(u(user), query, KNN_K).len(),
                    Op::Substring { user, needle } => snap.search_substring(u(user), needle).len(),
                    Op::Knn { user, sql, kind } => snap
                        .similar_queries(u(user), sql, KNN_K, distance_of(*kind))
                        .map_or(0, |h| h.len()),
                    Op::Recommend { user, sql } => snap
                        .recommend(u(user), sql, SUGGEST_K)
                        .map_or(0, |r| r.len()),
                    Op::FeatureSql { user, sql } => shard
                        .search_feature_sql(u(user), sql)
                        .map_or(0, |r| r.rows.len()),
                    _ => 0,
                });
            shards_us += pin_us + us;
        }
        if let Some(metric) = merge_metric(op.kind()) {
            self.sample(metric, (op_us - shards_us).max(0.0));
        }
    }

    /// After the timed section, before the round-end epoch: make the read
    /// kinds the mix lacks, and read the index counters.
    pub fn before_epoch(&mut self, dep: &Deployment, ops: &[Op]) {
        let mut n = 0usize;
        for kind in Kind::READS {
            if ops.iter().any(|o| o.kind() == kind) {
                continue;
            }
            for j in 0..PROBE_CALLS {
                let q = &dep.inputs.preload[(n * 131) % dep.inputs.preload.len()];
                let op = ops::read_op(kind, q.user, &q.sql, j);
                let (answer, start, end) = dep.call(&op);
                self.after_op(dep, 900_000 + n, &op, &answer, start, end);
                n += 1;
            }
        }
        let mut head = 0usize;
        let (mut hits, mut exact) = (0u64, 0u64);
        for shard in dep.svc.shards() {
            let snap = shard.snapshot();
            head += snap.storage().cow_head_len();
            let stats = snap.storage().metric_stats();
            for m in [&stats.tree_edit, &stats.parse_tree] {
                hits += m.bound_hits.load(std::sync::atomic::Ordering::Relaxed);
                exact += m.exact_evals.load(std::sync::atomic::Ordering::Relaxed);
            }
        }
        self.sample("storage.cow_head_len", head as f64);
        self.sample(
            "metricindex.exact_per_result",
            exact as f64 / self.tree_results.max(1) as f64,
        );
        self.sample(
            "metricindex.bound_hit_rate",
            hits as f64 / (hits + exact).max(1) as f64,
        );
    }

    /// After the round-end epoch: time the miner's parts one by one on the
    /// durable rig (one shard's worth of log), then fold the round.
    pub fn end_round(&mut self) {
        let mut rigs = self
            .rigs
            .take()
            .expect("rigs are open during a traced round");
        let id = self.op_id(999_001);
        let cqms = &mut rigs.durable;
        let cfg = cqms.config.clone();
        let t = &mut self.tracer;
        let mut miner = RuleMiner::new();
        for rec in cqms.storage.iter_live() {
            let items = rec.features.items();
            if !items.is_empty() {
                miner.add_transaction(items);
            }
        }
        let (_, _, assoc_us) = t.time("miner.assoc", None, id, || {
            std::hint::black_box(miner.mine(cfg.assoc_min_support, cfg.assoc_min_confidence));
        });
        // The epoch's clustering step, from public parts: the pairwise
        // signature distances, then k-medoids with k = √(n/2).
        let (_, _, cluster_us) = t.time("miner.cluster", None, id, || {
            let sigs: Vec<_> = cqms
                .storage
                .iter_live()
                .filter_map(|r| cqms.storage.signature(r.id))
                .collect();
            let n = sigs.len();
            let mut dist = vec![vec![0.0f64; n]; n];
            for i in 0..n {
                for j in (i + 1)..n {
                    let d = similarity::feature_distance_sig(sigs[i], sigs[j], &cfg);
                    dist[i][j] = d;
                    dist[j][i] = d;
                }
            }
            let k = (((n as f64) / 2.0).sqrt().round() as usize).max(2);
            std::hint::black_box(cluster::kmedoids(&dist, k, cfg.cluster_max_iters, cfg.seed));
        });
        let (_, _, sessions_us) = t.time("miner.sessions", None, id, || {
            std::hint::black_box(sessions::segment_log(&cqms.storage, &cfg));
        });
        let (_, _, rebuild_us) = t.time("miner.index_rebuild", None, id, || {
            cqms.storage.schedule_index_rebuild();
            cqms.storage.run_index_maintenance()
        });
        let (_, _, snapshot_us) =
            t.time("miner.snapshot_write", None, id, || cqms.force_snapshot());
        // Load back the snapshot just written: per-record load cost on a
        // file every workload has at this point.
        let written = cqms.storage.wal_snapshot_dir();
        if let Some((us, records)) = written.and_then(|dir| self.time_snapshot_load(&dir, id)) {
            self.sample(
                "wal.snapshot_load_us_per_record",
                us / records.max(1) as f64,
            );
        }
        self.sample("miner.assoc_us", assoc_us);
        self.sample("miner.cluster_us", cluster_us);
        self.sample("miner.sessions_us", sessions_us);
        self.sample("miner.index_rebuild_us", rebuild_us);
        self.sample("miner.snapshot_write_us", snapshot_us);
        drop(rigs);

        for (metric, samples) in std::mem::take(&mut self.round_samples) {
            self.per_round
                .entry(metric)
                .or_default()
                .push(median(&samples));
        }
    }
}
