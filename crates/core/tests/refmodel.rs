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
//! the record-based `reference::distance` and keeps the best k, under
//! all four indexed metrics (`Features`, `Combined`, `TreeEdit`,
//! `ParseTree`). For
//! substring and parse-tree search (§2.2), [`RefModel::substring`] and
//! [`RefModel::parse_tree`] scan every visible live record. For the
//! Query Miner's association rules (§4.3), [`RefModel::association_rules`]
//! runs plain Apriori over one transaction per visible live record. For
//! the sessions decided as queries are logged (§2.2: "query sessions
//! should be automatically identified"), [`RefModel::sessions`] walks
//! each shard's whole log, tombstones included, with the record-based
//! `reference::feature_distance` over each query's text as it stood when
//! the decision was made ([`TextHistory`]). Parse-tree search re-parses
//! each record's text ([`TreePattern::matches`] without a folded SELECT).

use cqms_core::admin::Directory;
use cqms_core::assist::completion::{
    CatalogView, CompletionContext, CompletionEngine, CompletionStats, Suggestion,
};
use cqms_core::features::FeatureRows;
use cqms_core::metaquery::{ScoredHit, TreePattern};
use cqms_core::miner::assoc::{mine_apriori, AssocRule, ContextCounts};
use cqms_core::model::{
    EdgeKind, OutputSummary, QueryId, QueryRecord, RuntimeFeatures, SessionId, UserId, Validity,
    Visibility,
};
use cqms_core::service::IngestItem;
use cqms_core::shard::ShardedCqms;
use cqms_core::similarity::DistanceKind;
use cqms_core::storage::{make_record, NewRecord, QueryStorage};
use cqms_core::{CqmsConfig, CqmsError};
use proptest::prelude::*;
use relstore::Engine;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};

#[path = "support/reference.rs"]
mod reference;

/// Each query's text, by global id, as the store last derived its
/// features from it, with the catalog it was derived against (the table
/// rename applied or not), from the trace time it took effect: at ingest,
/// at a repair's rewrite, and at a reopen, which re-derives every record.
/// The session rule compares a query with its user's latest one as both
/// stood when the query arrived; a later rewrite or reopen moves nothing.
type TextHistory = HashMap<QueryId, Vec<(u64, String, bool)>>;

/// The naive model: the live records under their global ids, every
/// shard's whole log (global and local ids), the directory, the catalog
/// names and the configuration.
struct RefModel {
    live: Vec<(QueryId, QueryRecord)>,
    logs: Vec<Vec<(QueryId, QueryRecord)>>,
    directory: Directory,
    catalog: CatalogView,
    config: CqmsConfig,
}

impl RefModel {
    /// The model of a sharded deployment: every shard's live records.
    fn of(sharded: &ShardedCqms, config: &CqmsConfig) -> RefModel {
        let mut live = Vec::new();
        let mut logs = Vec::new();
        let mut directory = Directory::default();
        let mut catalog = CatalogView::default();
        for (i, shard) in sharded.shards().iter().enumerate() {
            shard.read(|c| {
                live.extend(
                    c.storage
                        .iter_live()
                        .map(|r| (sharded.globalize(i, r.id), r.clone())),
                );
                logs.push(
                    (c.storage.iter())
                        .map(|r| (sharded.globalize(i, r.id), r.clone()))
                        .collect(),
                );
                directory = c.directory.clone();
                catalog = CatalogView::of(&c.data);
            });
        }
        RefModel {
            live,
            logs,
            directory,
            catalog,
            config: config.clone(),
        }
    }

    fn features(&self) -> impl Iterator<Item = &FeatureRows> {
        self.live.iter().map(|(_, r)| &*r.features)
    }

    /// The live records `viewer` may see that `keep` admits, ascending ids.
    fn visible_ids(&self, viewer: UserId, keep: impl Fn(&QueryRecord) -> bool) -> Vec<QueryId> {
        let mut ids: Vec<QueryId> = (self.live.iter())
            .filter(|(_, r)| self.directory.can_see(viewer, r) && keep(r))
            .map(|(id, _)| *id)
            .collect();
        ids.sort();
        ids
    }

    /// The visible live records whose SQL text contains `needle`, case
    /// folded, ascending ids.
    fn substring(&self, viewer: UserId, needle: &str) -> Vec<QueryId> {
        let needle = needle.to_lowercase();
        self.visible_ids(viewer, |r| r.raw_sql.to_lowercase().contains(&needle))
    }

    /// The visible live records `pattern` matches, ascending ids.
    fn parse_tree(&self, viewer: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.visible_ids(viewer, |r| pattern.matches(r, None))
    }

    /// The association rules over the live records `viewer` may see: one
    /// transaction per record with a non-empty item set.
    fn association_rules(&self, viewer: UserId) -> Vec<AssocRule> {
        let transactions: Vec<(Vec<String>, u32)> = (self.live.iter())
            .filter(|(_, r)| self.directory.can_see(viewer, r))
            .map(|(_, r)| (r.features.items(), 1))
            .filter(|(items, _)| !items.is_empty())
            .collect();
        let config = &self.config;
        mine_apriori(
            &transactions,
            config.assoc_min_support,
            config.assoc_min_confidence,
        )
    }

    /// Each shard's session assignment and Evolution edges, local ids:
    /// every record in arrival (id) order, tombstones included, continues
    /// the session of its user's latest earlier record when the idle gap
    /// is within the threshold, or within 3× the threshold and the
    /// feature distance between the two, as `texts` had them at the
    /// arrival, is too; a back-dated record opens a session. Each
    /// continuation is an edge (every generated query parses). Session
    /// ids are numbered 0.. per shard; compare partitions ([`partition`]),
    /// not ids.
    #[allow(clippy::type_complexity)]
    fn sessions(
        &self,
        texts: &TextHistory,
    ) -> Vec<(HashMap<QueryId, SessionId>, BTreeSet<(QueryId, QueryId)>)> {
        let config = &self.config;
        let engines = [engine(false), engine(true)];
        // Query `id` as a detached record of its text at trace time `at`.
        let as_of = |id: QueryId, at: u64| -> QueryRecord {
            let (_, text, renamed) = (texts[&id].iter().rev())
                .find(|(since, ..)| *since <= at)
                .expect("a query's first text is from its arrival");
            let stmt = sqlparse::parse(text).ok();
            let catalog = &engines[usize::from(*renamed)].catalog;
            let extracted = (stmt.as_ref())
                .map(|s| cqms_core::features::extract(s, Some(catalog)))
                .unwrap_or_default();
            reference::detached(&make_record(
                id,
                UserId(0),
                at,
                text,
                stmt,
                extracted,
                RuntimeFeatures::default(),
                OutputSummary::None,
                SessionId(0),
                Visibility::Public,
            ))
        };
        let idle = config.session_idle_gap_secs;
        (self.logs.iter())
            .map(|log| {
                let mut latest: HashMap<UserId, (QueryId, &QueryRecord, SessionId)> =
                    HashMap::new();
                let mut assignment = HashMap::new();
                let mut edges = BTreeSet::new();
                let mut next = 0u64;
                for (global, r) in log {
                    let continued = latest.get(&r.user).filter(|(prev_global, prev, _)| {
                        match r.ts.checked_sub(prev.ts) {
                            Some(gap) if gap <= idle => true,
                            Some(gap) if gap <= 3 * idle => {
                                let (a, b) = (as_of(*prev_global, r.ts), as_of(*global, r.ts));
                                reference::feature_distance(&a, &b, config)
                                    <= config.session_similarity_threshold
                            }
                            _ => false,
                        }
                    });
                    let session = match continued {
                        Some(&(_, prev, session)) => {
                            edges.insert((prev.id, r.id));
                            session
                        }
                        None => {
                            next += 1;
                            SessionId(next - 1)
                        }
                    };
                    assignment.insert(r.id, session);
                    latest.insert(r.user, (*global, r, session));
                }
                (assignment, edges)
            })
            .collect()
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
        let probe = reference::detached(&NewRecord::probe(viewer, sql)?);
        let mut hits: Vec<ScoredHit> = self
            .live
            .iter()
            .filter(|(_, r)| self.directory.can_see(viewer, r))
            .map(|(id, r)| ScoredHit {
                id: *id,
                score: 1.0 - reference::distance(&probe, r, metric, &self.config),
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
        let in_scope = |t: &str| present.is_empty() || present.iter().any(|p| p == t);
        let mut stats = CompletionStats::default();
        match ctx {
            CompletionContext::Table => {
                let context: HashSet<String> =
                    present.iter().map(|t| format!("table:{t}")).collect();
                for f in self.features() {
                    let items: Vec<String> = f.tables().map(|t| format!("table:{t}")).collect();
                    stats.rule_counts.add_n(&items, &context, "table:", 1);
                    for t in f.tables() {
                        *stats.table_pop.entry(t.to_string()).or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Attribute => {
                for f in self.features() {
                    for (t, a) in f.attributes().filter(|(t, _)| in_scope(t)) {
                        *stats
                            .attr_pop
                            .entry((t.to_string(), a.to_string()))
                            .or_insert(0) += 1;
                    }
                }
            }
            CompletionContext::Predicate => {
                for f in self.features() {
                    for [t, c, op, constant] in f.predicates() {
                        if !t.is_empty() && !in_scope(t) {
                            continue;
                        }
                        let key = (t.to_string(), c.to_string(), op.to_string());
                        let entry = stats.pred_pop.entry(key).or_insert((0, HashMap::new()));
                        entry.0 += 1;
                        *entry.1.entry(constant.to_string()).or_insert(0) += 1;
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

/// A session assignment as a partition: each query mapped to the smallest
/// id in its session, so two assignments that group alike compare equal
/// whatever they name the groups.
fn partition(
    assignment: impl IntoIterator<Item = (QueryId, SessionId)>,
) -> BTreeMap<QueryId, QueryId> {
    let assignment: Vec<(QueryId, SessionId)> = assignment.into_iter().collect();
    let mut first: HashMap<SessionId, QueryId> = HashMap::new();
    for &(id, session) in &assignment {
        let slot = first.entry(session).or_insert(id);
        *slot = (*slot).min(id);
    }
    (assignment.into_iter())
        .map(|(id, session)| (id, first[&session]))
        .collect()
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

/// The substring needles the model checks: a table name in another case,
/// a predicate fragment, a join separator, a needle under three bytes
/// (the trigram index scans for those) and text no query contains.
const NEEDLES: [&str; 6] = ["watertemp", "TEMP <", "p, l", "< 1", "ke", "rivers"];

/// The parse-tree patterns the model checks.
fn tree_patterns() -> Vec<TreePattern> {
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
    ]
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
        // Steps are 60 s apart: with a 90 s idle gap, a user's next query
        // two to four steps later falls in the gap band the feature
        // distance decides, and five or more steps later always breaks.
        session_idle_gap_secs: 90,
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
    MinerEpoch,
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
        2 => Just(Op::MinerEpoch),
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
    /// Every issued query's texts, as the store derived its features.
    texts: TextHistory,
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
            texts: TextHistory::new(),
            renamed: false,
        }
    }

    /// Apply `op` at trace time `ts`, then note every text the store
    /// derived features from anew.
    fn apply(&mut self, op: &Op, ts: u64) {
        self.run(op, ts);
        let reopened = matches!(op, Op::Reopen { .. });
        for (i, shard) in self.sharded.shards().iter().enumerate() {
            shard.read(|c| {
                for r in c.storage.iter() {
                    let history = self
                        .texts
                        .entry(self.sharded.globalize(i, r.id))
                        .or_default();
                    let stale = history.last().is_none_or(|(_, text, renamed)| {
                        **text != *r.raw_sql || (reopened && *renamed != self.renamed)
                    });
                    if stale {
                        history.push((ts, r.raw_sql.to_string(), self.renamed));
                    }
                }
            });
        }
    }

    fn run(&mut self, op: &Op, ts: u64) {
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
            Op::MinerEpoch => {
                for report in s.run_miner_epoch() {
                    assert!(report.wal_flush_error.is_none(), "{report:?}");
                }
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

    /// Every probe's merged statistics and top-k, every kNN probe's
    /// neighbours for two viewers, and every viewer's association rules and
    /// substring needle's and parse-tree pattern's matches, against the
    /// model; every shard's session map against its records; and every
    /// shard's session partition and Evolution edges against the model's.
    fn check(&self, step: usize) -> Result<(), TestCaseError> {
        let model = RefModel::of(&self.sharded, &self.config);
        let oracle = model.sessions(&self.texts);
        for (i, shard) in self.sharded.shards().iter().enumerate() {
            let (records, members, edges) = shard.read(|c| {
                let records: Vec<(QueryId, SessionId)> =
                    c.storage.iter().map(|r| (r.id, r.session)).collect();
                let members: Vec<(SessionId, Vec<QueryId>)> = (c.storage.session_ids())
                    .into_iter()
                    .map(|s| (s, c.storage.queries_in_session(s).to_vec()))
                    .collect();
                let edges: BTreeSet<(QueryId, QueryId)> = (c.storage.edges().iter())
                    .filter(|e| e.kind == EdgeKind::Evolution)
                    .map(|e| (e.from, e.to))
                    .collect();
                (records, members, edges)
            });
            let mut expected: BTreeMap<SessionId, Vec<QueryId>> = BTreeMap::new();
            for &(id, session) in &records {
                expected.entry(session).or_default().push(id);
            }
            prop_assert_eq!(
                members.into_iter().collect::<BTreeMap<_, _>>(),
                expected,
                "shard {} session map after step {}",
                i,
                step
            );
            let (sessions, evolution) = &oracle[i];
            prop_assert_eq!(
                partition(records),
                partition(sessions.iter().map(|(&id, &s)| (id, s))),
                "shard {} sessions after step {}",
                i,
                step
            );
            prop_assert_eq!(&edges, evolution, "shard {} edges after step {}", i, step);
        }
        for &viewer in &self.users {
            prop_assert_eq!(
                self.sharded.association_rules(viewer),
                model.association_rules(viewer),
                "rules for {:?} after step {}",
                viewer,
                step
            );
            for needle in NEEDLES {
                prop_assert_eq!(
                    self.sharded.search_substring(viewer, needle),
                    model.substring(viewer, needle),
                    "substring {:?} for {:?} after step {}",
                    needle,
                    viewer,
                    step
                );
            }
            for pattern in tree_patterns() {
                prop_assert_eq!(
                    self.sharded.search_parse_tree(viewer, &pattern),
                    model.parse_tree(viewer, &pattern),
                    "parse tree {:?} for {:?} after step {}",
                    pattern,
                    viewer,
                    step
                );
            }
        }
        for sql in KNN_PROBES {
            for &viewer in &self.users[..2] {
                for metric in [
                    DistanceKind::Features,
                    DistanceKind::Combined,
                    DistanceKind::TreeEdit,
                    DistanceKind::ParseTree,
                ] {
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
    /// association rules equal plain Apriori over the visible ones, and
    /// `Features` / `Combined` kNN, substring and parse-tree search equal a
    /// record-by-record scan of them, after every step of a random trace
    /// (ingests, batches, deletes, validity and visibility flips, rename
    /// repairs, maintenance passes, index rebuilds, miner epochs, WAL and
    /// snapshot reopens), on one shard and on two; and every shard's
    /// sessions and Evolution edges are the ones the session rule decided
    /// as each query was logged.
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
