//! A brute-force reference model of the CQMS services, and the
//! property tests that hold the optimised paths to it.
//!
//! [`RefModel`] is built from a deployment's live records and answers by
//! naive counting over their features, with none of the counters,
//! posting lists or indexes the product keeps. It starts with completion
//! (paper §2.3): [`RefModel::complete_stats`] counts each completion
//! context's statistics record by record, and [`RefModel::complete`]
//! scores them with the product's own `suggest_with_stats`, so a mismatch
//! is a collection bug, never a scoring one.

use cqms_core::assist::completion::{
    CatalogView, CompletionContext, CompletionEngine, CompletionStats, Suggestion,
};
use cqms_core::features::SyntacticFeatures;
use cqms_core::miner::assoc::ContextCounts;
use cqms_core::model::{QueryId, UserId, Validity};
use cqms_core::service::IngestItem;
use cqms_core::shard::ShardedCqms;
use cqms_core::storage::QueryStorage;
use cqms_core::CqmsConfig;
use proptest::prelude::*;
use relstore::Engine;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The naive model: the live records' features, the catalog names and
/// the configuration completion scores with.
struct RefModel {
    live: Vec<SyntacticFeatures>,
    catalog: CatalogView,
    config: CqmsConfig,
}

impl RefModel {
    /// The model of a sharded deployment: every shard's live records.
    fn of(sharded: &ShardedCqms, config: &CqmsConfig) -> RefModel {
        let mut live = Vec::new();
        let mut catalog = CatalogView::default();
        for shard in sharded.shards() {
            shard.read(|c| {
                live.extend(c.storage.iter_live().map(|r| r.features.clone()));
                catalog = CatalogView::of(&c.data);
            });
        }
        RefModel {
            live,
            catalog,
            config: config.clone(),
        }
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
                for f in &self.live {
                    let items: Vec<String> =
                        f.tables.iter().map(|t| format!("table:{t}")).collect();
                    stats.rule_counts.add_n(&items, &context, "table:", 1);
                    for t in &f.tables {
                        *stats.table_pop.entry(t.clone()).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Attribute => {
                for f in &self.live {
                    for (t, a) in f.attributes.iter().filter(|(t, _)| in_scope(t)) {
                        *stats.attr_pop.entry((t.clone(), a.clone())).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Predicate => {
                for f in &self.live {
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
    RenameAndMaintain,
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
        1 => Just(Op::RenameAndMaintain),
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
            Op::Delete { .. } | Op::SetValidity { .. } if self.issued.is_empty() => {}
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
            Op::RenameAndMaintain => {
                let sql = if self.renamed { RENAMED_BACK } else { RENAMED };
                for shard in s.shards() {
                    shard.write(|c| c.data.execute(sql).unwrap());
                }
                self.renamed = !self.renamed;
                s.run_maintenance().unwrap();
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

    /// Every probe's merged statistics and top-k against the model.
    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        let model = RefModel::of(&self.sharded, &self.config);
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

    /// Completion's statistics equal naive counting over the live records
    /// after every step of a random trace (ingests, batches, deletes,
    /// validity flips, rename repairs, WAL and snapshot reopens), on one
    /// shard and on two.
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
