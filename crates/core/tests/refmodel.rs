//! A brute-force reference model of the CQMS services, and the
//! property tests that hold the optimised paths to it.
//!
//! [`RefModel`] is built from a deployment's live records and answers by
//! naive counting and scanning over them, with none of the counters,
//! classes or indexes the product keeps. For completion (paper §2.3),
//! [`RefModel::complete_stats`] counts each completion context's
//! statistics record by record, and [`RefModel::complete`] scores them
//! with the product's own `suggest_with_stats`, so a mismatch is a
//! collection bug, never a scoring one. For kNN similarity search
//! (§4.2), [`RefModel::similar`] scores every visible live record with
//! the record-based `similarity::distance` and keeps the best k.

use cqms_core::admin::Directory;
use cqms_core::assist::completion::{
    CatalogView, CompletionContext, CompletionEngine, CompletionStats, Suggestion,
};
use cqms_core::features::SyntacticFeatures;
use cqms_core::metaquery::ScoredHit;
use cqms_core::miner::assoc::ContextCounts;
use cqms_core::model::{
    OutputSummary, QueryId, QueryRecord, SessionId, UserId, Validity, Visibility,
};
use cqms_core::service::IngestItem;
use cqms_core::shard::ShardedCqms;
use cqms_core::similarity::{self, DistanceKind};
use cqms_core::storage::{make_record, QueryStorage};
use cqms_core::{CqmsConfig, CqmsError};
use proptest::prelude::*;
use relstore::Engine;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The naive model: the live records under their global ids, the
/// directory, the catalog names and the configuration.
struct RefModel {
    live: Vec<(QueryId, QueryRecord)>,
    directory: Directory,
    catalog: CatalogView,
    config: CqmsConfig,
}

impl RefModel {
    /// The model of a sharded deployment: every shard's live records.
    fn of(sharded: &ShardedCqms, config: &CqmsConfig) -> RefModel {
        let mut live = Vec::new();
        let mut directory = Directory::default();
        let mut catalog = CatalogView::default();
        for (i, shard) in sharded.shards().iter().enumerate() {
            shard.read(|c| {
                live.extend(
                    c.storage
                        .iter_live()
                        .map(|r| (sharded.globalize(i, r.id), r.clone())),
                );
                directory = c.directory.clone();
                catalog = CatalogView::of(&c.data);
            });
        }
        RefModel {
            live,
            directory,
            catalog,
            config: config.clone(),
        }
    }

    fn features(&self) -> impl Iterator<Item = &SyntacticFeatures> {
        self.live.iter().map(|(_, r)| &r.features)
    }

    /// The `k` visible live records nearest to `sql` under `metric`,
    /// scored record by record, best first (ties by ascending id).
    fn similar(
        &self,
        viewer: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
    ) -> Result<Vec<ScoredHit>, CqmsError> {
        let stmt = sqlparse::parse(sql)?;
        let features = cqms_core::features::extract(&stmt, None);
        let probe = make_record(
            QueryId(u64::MAX),
            viewer,
            0,
            sql,
            Some(stmt),
            features,
            Default::default(),
            OutputSummary::None,
            SessionId(u64::MAX),
            Visibility::Private,
        );
        let mut hits: Vec<ScoredHit> = self
            .live
            .iter()
            .filter(|(_, r)| self.directory.can_see(viewer, r))
            .map(|(id, r)| ScoredHit {
                id: *id,
                score: 1.0 - similarity::distance(&probe, r, metric, &self.config),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        hits.truncate(k);
        Ok(hits)
    }

    /// The statistics behind one completion probe, counted record by
    /// record.
    fn complete_stats(&self, partial: &str) -> CompletionStats {
        let (ctx, _, present) = CompletionEngine::detect_context(partial);
        let in_scope = |t: &String| present.is_empty() || present.contains(t);
        let mut stats = CompletionStats::default();
        match ctx {
            CompletionContext::Table => {
                let context: HashSet<String> =
                    present.iter().map(|t| format!("table:{t}")).collect();
                for f in self.features() {
                    let items: Vec<String> =
                        f.tables.iter().map(|t| format!("table:{t}")).collect();
                    stats.rule_counts.add_n(&items, &context, "table:", 1);
                    for t in &f.tables {
                        *stats.table_pop.entry(t.clone()).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Attribute => {
                for f in self.features() {
                    for (t, a) in f.attributes.iter().filter(|(t, _)| in_scope(t)) {
                        *stats.attr_pop.entry((t.clone(), a.clone())).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Predicate => {
                for f in self.features() {
                    for p in &f.predicates {
                        if !p.table.is_empty() && !in_scope(&p.table) {
                            continue;
                        }
                        let key = (p.table.clone(), p.column.clone(), p.op.clone());
                        let entry = stats.pred_pop.entry(key).or_insert((0, HashMap::new()));
                        entry.0 += 1;
                        *entry.1.entry(p.constant.clone()).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Statement => {}
        }
        stats
    }

    /// Top-k completions: the product's scoring over the naive counts.
    fn complete(&self, partial: &str, k: usize) -> Vec<Suggestion> {
        let empty = QueryStorage::new();
        CompletionEngine::new(&empty, &self.config, &self.catalog).suggest_with_stats(
            partial,
            k,
            &self.complete_stats(partial),
        )
    }
}

/// `CompletionStats` field by field (it has no `PartialEq` of its own).
type StatsView = (
    ContextCounts,
    HashMap<String, u32>,
    HashMap<(String, String), u32>,
    HashMap<(String, String, String), (u32, HashMap<String, u32>)>,
);

fn view(stats: CompletionStats) -> StatsView {
    (
        stats.rule_counts,
        stats.table_pop,
        stats.attr_pop,
        stats.pred_pop,
    )
}

/// A completion as compared: text, score bits, reason.
fn denote(suggestions: Vec<Suggestion>) -> Vec<(String, u64, String)> {
    suggestions
        .into_iter()
        .map(|s| (s.text, s.score.to_bits(), s.why))
        .collect()
}

const USERS: u32 = 3;
const TABLES: [&str; 5] = [
    "WaterTemp",
    "LakeTemperatures",
    "WaterSalinity",
    "CityLocations",
    "Lakes",
];
const RENAMED: &str = "ALTER TABLE WaterTemp RENAME TO LakeTemperatures";
const RENAMED_BACK: &str = "ALTER TABLE LakeTemperatures RENAME TO WaterTemp";

/// Every completion context the model checks: a statement start, FROM
/// with no, one and two tables typed, and attribute and predicate
/// positions with and without a table in scope.
fn probes() -> Vec<String> {
    let mut out: Vec<String> = ["", "SELECT ", "SELECT * FROM ", "SELECT * WHERE "]
        .map(String::from)
        .to_vec();
    for (i, t) in TABLES.iter().enumerate() {
        out.push(format!("SELECT * FROM {t}, "));
        out.push(format!("SELECT * FROM {t} ORDER BY "));
        out.push(format!("SELECT * FROM {t} WHERE "));
        for u in &TABLES[i + 1..] {
            out.push(format!("SELECT * FROM {t}, {u}, "));
        }
    }
    out
}

/// The kNN probes the model checks: logged templates, a join, a
/// predicate on no table's column, and a table the log never saw.
const KNN_PROBES: [&str; 6] = [
    "SELECT * FROM WaterTemp WHERE temp < 2",
    "SELECT lake, month FROM WaterSalinity, WaterTemp",
    "SELECT lake FROM LakeTemperatures, Lakes, CityLocations WHERE pop > 1",
    "SELECT * FROM Lakes WHERE depth = 0",
    "SELECT lake FROM CityLocations WHERE area > 3",
    "SELECT name FROM Rivers",
];

/// Neighbours per kNN probe.
const KNN_K: usize = 6;

/// The Lakes data tier, with the table rename applied when `renamed`.
fn engine(renamed: bool) -> Engine {
    let mut e = Engine::new();
    workload::Domain::Lakes.setup(&mut e, 10, 3);
    if renamed {
        e.execute(RENAMED).unwrap();
    }
    e
}

fn config(shards: usize) -> CqmsConfig {
    CqmsConfig {
        shards,
        wal_fsync: false,
        assoc_min_support: 2,
        ..CqmsConfig::default()
    }
}

/// Unique scratch directory per proptest case (cases share one process).
fn case_dir() -> std::path::PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("cqms-refmodel-{}-{n}", std::process::id()))
}

/// One step of a generated trace. `nth` addresses the n-th issued query
/// (mod count).
#[derive(Debug, Clone)]
enum Op {
    Run { user: u32, sql: String },
    Batch { items: Vec<(u32, String)> },
    Delete { nth: usize },
    SetValidity { nth: usize, live: bool },
    MakePrivate { nth: usize },
    RenameAndMaintain,
    Maintain,
    RebuildIndexes,
    Reopen { snapshot: bool },
}

fn sql_strategy() -> impl Strategy<Value = String> {
    let from = prop_oneof![
        Just("WaterTemp"),
        Just("LakeTemperatures"),
        Just("WaterSalinity"),
        Just("CityLocations"),
        Just("Lakes"),
        Just("WaterSalinity, WaterTemp"),
        Just("WaterTemp, Lakes"),
        Just("LakeTemperatures, Lakes, CityLocations"),
        Just("WaterSalinity, WaterTemp, Lakes"),
    ];
    // `depth` is no table's column: its predicate's table stays empty.
    let col = prop_oneof![
        Just("temp"),
        Just("salinity"),
        Just("pop"),
        Just("area"),
        Just("month"),
        Just("depth"),
    ];
    let op = prop_oneof![Just("<"), Just(">"), Just("=")];
    let select = prop_oneof![Just("*"), Just("lake"), Just("lake, month")];
    (select, from, proptest::option::of((col, op, 0i64..4))).prop_map(|(s, f, pred)| {
        let mut sql = format!("SELECT {s} FROM {f}");
        if let Some((c, o, k)) = pred {
            sql.push_str(&format!(" WHERE {c} {o} {k}"));
        }
        sql
    })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..USERS, sql_strategy()).prop_map(|(user, sql)| Op::Run { user, sql }),
        2 => proptest::collection::vec((0..USERS, sql_strategy()), 1..5)
            .prop_map(|items| Op::Batch { items }),
        2 => (0usize..64).prop_map(|nth| Op::Delete { nth }),
        3 => (0usize..64, any::<bool>()).prop_map(|(nth, live)| Op::SetValidity { nth, live }),
        1 => (0usize..64).prop_map(|nth| Op::MakePrivate { nth }),
        1 => Just(Op::RenameAndMaintain),
        1 => Just(Op::Maintain),
        1 => Just(Op::RebuildIndexes),
        1 => any::<bool>().prop_map(|snapshot| Op::Reopen { snapshot }),
    ]
}

/// A durable sharded deployment and what the trace has done to it.
struct Harness {
    sharded: ShardedCqms,
    config: CqmsConfig,
    dir: std::path::PathBuf,
    users: Vec<UserId>,
    /// Owner and id of every issued query, in issue order.
    issued: Vec<(UserId, QueryId)>,
    renamed: bool,
}

impl Harness {
    fn open(
        config: CqmsConfig,
        dir: std::path::PathBuf,
        renamed: bool,
    ) -> (ShardedCqms, Vec<UserId>) {
        let sharded = ShardedCqms::open(move || engine(renamed), config, &dir).unwrap();
        // Principals are not persisted: re-register in the same order.
        let users = (0..USERS)
            .map(|i| sharded.register_user(&format!("user-{i}")))
            .collect();
        (sharded, users)
    }

    fn new(shards: usize) -> Harness {
        let dir = case_dir();
        let _ = std::fs::remove_dir_all(&dir);
        let config = config(shards);
        let (sharded, users) = Harness::open(config.clone(), dir.clone(), false);
        Harness {
            sharded,
            config,
            dir,
            users,
            issued: Vec::new(),
            renamed: false,
        }
    }

    fn apply(&mut self, op: &Op, ts: u64) {
        let s = &self.sharded;
        let nth = |n: usize| self.issued[n % self.issued.len()];
        match op {
            Op::Run { user, sql } => {
                let user = self.users[*user as usize];
                let id = s.run_query_at(user, sql, ts).unwrap().id;
                self.issued.push((user, id));
            }
            Op::Batch { items } => {
                let items: Vec<IngestItem> = items
                    .iter()
                    .map(|(u, sql)| IngestItem {
                        user: self.users[*u as usize],
                        sql: sql.clone(),
                        ts: Some(ts),
                    })
                    .collect();
                for (item, id) in items.iter().zip(s.ingest_batch(&items)) {
                    self.issued.push((item.user, id.unwrap()));
                }
            }
            Op::Delete { .. } | Op::SetValidity { .. } | Op::MakePrivate { .. }
                if self.issued.is_empty() => {}
            Op::Delete { nth: n } => {
                let (owner, id) = nth(*n);
                s.delete_query(owner, id).unwrap();
            }
            Op::SetValidity { nth: n, live } => {
                let (_, id) = nth(*n);
                let (shard, local) = s.locate(id);
                let validity = if *live {
                    Validity::Valid
                } else {
                    Validity::Flagged {
                        reason: "generated".into(),
                        at: ts,
                    }
                };
                // A tombstone refuses the change; that is the contract.
                let _ = s.shards()[shard].write(|c| c.storage.set_validity(local, validity));
            }
            Op::MakePrivate { nth: n } => {
                let (owner, id) = nth(*n);
                // A tombstone refuses the change; that is the contract.
                let _ = s.set_visibility(owner, id, Visibility::Private);
            }
            Op::RenameAndMaintain => {
                let sql = if self.renamed { RENAMED_BACK } else { RENAMED };
                for shard in s.shards() {
                    shard.write(|c| c.data.execute(sql).unwrap());
                }
                self.renamed = !self.renamed;
                s.run_maintenance().unwrap();
            }
            Op::Maintain => {
                s.run_maintenance().unwrap();
            }
            Op::RebuildIndexes => {
                s.rebuild_indexes();
            }
            Op::Reopen { snapshot } => {
                if *snapshot {
                    for shard in s.shards() {
                        shard.write(|c| c.force_snapshot()).unwrap();
                    }
                }
                s.shutdown();
                // Close the deployment before its directory is reopened.
                drop(std::mem::replace(
                    &mut self.sharded,
                    ShardedCqms::new(Engine::new, config(1)),
                ));
                let (sharded, users) =
                    Harness::open(self.config.clone(), self.dir.clone(), self.renamed);
                self.sharded = sharded;
                self.users = users;
            }
        }
    }

    /// Every probe's merged statistics and top-k, and every kNN probe's
    /// neighbours for two viewers, against the model.
    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        let model = RefModel::of(&self.sharded, &self.config);
        for sql in KNN_PROBES {
            for &viewer in &self.users[..2] {
                for metric in [DistanceKind::Features, DistanceKind::Combined] {
                    let got = self.sharded.similar_queries(viewer, sql, KNN_K, metric);
                    prop_assert_eq!(
                        got.unwrap(),
                        model.similar(viewer, sql, KNN_K, metric).unwrap(),
                        "{:?} neighbours of {:?} for {:?} after step {}",
                        metric,
                        sql,
                        viewer,
                        step
                    );
                }
            }
        }
        for probe in probes() {
            let mut merged = CompletionStats::default();
            for shard in self.sharded.shards() {
                merged.merge(&shard.snapshot().completion_stats(&probe));
            }
            prop_assert_eq!(
                view(merged),
                view(model.complete_stats(&probe)),
                "stats of {:?} after step {}",
                probe,
                step
            );
            prop_assert_eq!(
                denote(self.sharded.complete(self.users[0], &probe, 8)),
                denote(model.complete(&probe, 8)),
                "completions of {:?} after step {}",
                probe,
                step
            );
        }
        Ok(())
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        self.sharded.shutdown();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Completion's statistics equal naive counting over the live records,
    /// and `Features` / `Combined` kNN equal a record-by-record scan of
    /// the visible ones, after every step of a random trace (ingests,
    /// batches, deletes, validity and visibility flips, rename repairs,
    /// maintenance passes, index rebuilds, WAL and snapshot reopens), on
    /// one shard and on two.
    #[test]
    fn completion_matches_refmodel(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        shards in 1usize..=2,
    ) {
        let mut h = Harness::new(shards);
        for (i, op) in ops.iter().enumerate() {
            h.apply(op, 1_000 + i as u64 * 60);
            h.check(i)?;
        }
    }
}
