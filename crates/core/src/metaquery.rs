//! The Meta-query Executor (Figure 4, §2.2, §4.2).
//!
//! "A meta-query is a query that searches for queries." This module provides
//! every meta-querying paradigm the paper proposes:
//!
//! * **keyword** and **substring** search (the §2.2 baseline);
//! * **query-by-feature** — arbitrary SQL over the Figure 1 feature
//!   relations, including running the paper's Figure 1 example verbatim, and
//!   the automatic *generation* of such meta-queries from a partially typed
//!   query;
//! * **query-by-parse-tree** — structural predicates over the stored ASTs;
//! * **query-by-data** — classifier search by positive/negative example
//!   tuples (the Lake Washington ∖ Lake Union scenario);
//! * **kNN** similarity queries used by the Assisted Interaction Mode.
//!
//! Every search takes the requesting user and applies §2.4 access control
//! before returning results.

use crate::admin::Directory;
use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::features::{self, FEATURE_RELATIONS};
use crate::indexreg::FeatureClass;
use crate::model::{QueryId, QueryRecord, UserId};
use crate::signature::SimSignature;
use crate::similarity::{self, DistanceKind};
use crate::storage::QueryStorage;
use relstore::TableSchema;
use sqlparse::ast::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// A scored search hit.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoredHit {
    /// The matching query.
    pub id: QueryId,
    /// Higher is better; semantics depend on the search mode.
    pub score: f64,
}

/// Structural pattern for query-by-parse-tree (§2.2: "conditions on the
/// joined relations, selections, projections, nested subqueries, etc.").
#[derive(Debug, Clone, Default)]
pub struct TreePattern {
    /// Every one of these relations must appear in FROM (any depth).
    pub tables_all: Vec<String>,
    /// At least one of these must appear (when non-empty).
    pub tables_any: Vec<String>,
    /// Requires a comparison predicate on `relName.attrName`, optionally
    /// with a specific operator.
    pub predicate_on: Option<(String, String, Option<String>)>,
    /// Minimum number of distinct relations joined.
    pub min_tables: Option<usize>,
    /// Require (or forbid) nested subqueries.
    pub has_subquery: Option<bool>,
    /// Require (or forbid) aggregation.
    pub has_aggregate: Option<bool>,
    /// All of these columns must be projected (rendered form, lower-case).
    pub projects: Vec<String>,
}

impl TreePattern {
    /// Does `record` match this pattern?
    pub fn matches(&self, record: &QueryRecord) -> bool {
        let f = &record.features;
        for t in &self.tables_all {
            if !f.tables.iter().any(|x| x.eq_ignore_ascii_case(t)) {
                return false;
            }
        }
        if !self.tables_any.is_empty()
            && !self
                .tables_any
                .iter()
                .any(|t| f.tables.iter().any(|x| x.eq_ignore_ascii_case(t)))
        {
            return false;
        }
        if let Some((rel, attr, op)) = &self.predicate_on {
            let hit = f.predicates.iter().any(|p| {
                p.table.eq_ignore_ascii_case(rel)
                    && p.column.eq_ignore_ascii_case(attr)
                    && op.as_ref().map(|o| p.op == *o).unwrap_or(true)
            });
            if !hit {
                return false;
            }
        }
        if let Some(min) = self.min_tables {
            if f.tables.len() < min {
                return false;
            }
        }
        if let Some(sub) = self.has_subquery {
            if f.has_subquery != sub {
                return false;
            }
        }
        if let Some(agg) = self.has_aggregate {
            if f.has_aggregate != agg {
                return false;
            }
        }
        for p in &self.projects {
            let pl = p.to_ascii_lowercase();
            let hit = f
                .projections
                .iter()
                .any(|x| x == &pl || x.ends_with(&format!(".{pl}")) || x == "*");
            if !hit {
                return false;
            }
        }
        true
    }
}

/// The Meta-query Executor. Every search paradigm is a pure read: the
/// executor borrows the storage *shared*, so any number of concurrent
/// searches can run against one storage.
pub struct MetaQueryExecutor<'a> {
    /// The query log being searched.
    pub storage: &'a QueryStorage,
    /// ACL checks.
    pub directory: &'a Directory,
    /// Ranking/similarity tunables.
    pub config: &'a CqmsConfig,
}

impl<'a> MetaQueryExecutor<'a> {
    /// Bind an executor over one storage, directory and config.
    pub fn new(
        storage: &'a QueryStorage,
        directory: &'a Directory,
        config: &'a CqmsConfig,
    ) -> Self {
        MetaQueryExecutor {
            storage,
            directory,
            config,
        }
    }

    /// The one ACL + tombstone predicate every read applies.
    pub(crate) fn visible(&self, viewer: UserId, record: &QueryRecord) -> bool {
        record.is_live() && self.directory.can_see(viewer, record)
    }

    /// The first `k` text-index hits `viewer` may see, as scored hits.
    fn visible_hits(
        &self,
        viewer: UserId,
        hits: Vec<textindex::SearchHit>,
        k: usize,
    ) -> Vec<ScoredHit> {
        hits.into_iter()
            .filter_map(|h| {
                let rec = self.storage.get(QueryId(h.doc)).ok()?;
                self.visible(viewer, rec).then_some(ScoredHit {
                    id: QueryId(h.doc),
                    score: h.score,
                })
            })
            .take(k)
            .collect()
    }

    /// Keyword search over query text (TF-IDF ranked).
    pub fn keyword(&self, viewer: UserId, query: &str, k: usize) -> Vec<ScoredHit> {
        self.visible_hits(viewer, self.storage.text_index().search(query, k * 4), k)
    }

    /// [`MetaQueryExecutor::keyword`] scored against externally supplied
    /// corpus statistics (`total_docs` live documents, per-term document
    /// frequencies `df`). A sharded deployment sums each shard's stats and
    /// passes the totals here, so every shard weighs terms with the
    /// *global* IDF and the cross-shard merge reproduces the unsharded
    /// scores exactly.
    pub fn keyword_with_corpus(
        &self,
        viewer: UserId,
        query: &str,
        k: usize,
        total_docs: u64,
        df: &std::collections::HashMap<String, u64>,
    ) -> Vec<ScoredHit> {
        let hits = self
            .storage
            .text_index()
            .search_with_corpus(query, k * 4, total_docs, df);
        self.visible_hits(viewer, hits, k)
    }

    /// Substring search over query text.
    pub fn substring(&self, viewer: UserId, needle: &str) -> Vec<QueryId> {
        self.storage
            .trigram_index()
            .search(needle)
            .into_iter()
            .map(QueryId)
            .filter(|id| {
                self.storage
                    .get(*id)
                    .map(|r| self.visible(viewer, r))
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Query-by-feature: run a SQL meta-query over the Figure 1 relations.
    ///
    /// Relation/attribute names are stored canonically lower-cased; string
    /// literals compared against the `relName`/`attrName` columns are folded
    /// to match, so the paper's Figure 1 example runs verbatim.
    ///
    /// Access control is which rows the executor is shown: the statement
    /// runs against a throw-away catalog holding, for each feature relation
    /// it references at any depth, exactly the rows of the queries `viewer`
    /// may see (tombstoned and flagged queries have none to show), in
    /// ascending `qid`. No projection, alias, aggregate, join or subquery
    /// can return or count a row that is not there. Assembly is one pass
    /// over the log cloning row pointers; nothing is kept between calls.
    pub fn by_feature_sql(
        &self,
        viewer: UserId,
        sql: &str,
    ) -> Result<relstore::QueryResult, CqmsError> {
        let mut stmt = sqlparse::parse(sql)?;
        if let Statement::Select(s) = &mut stmt {
            fold_name_literals(s);
        }
        let referenced = features::extract(&stmt, None).tables;
        let mut shown: Vec<(usize, Vec<Arc<relstore::Row>>)> = (0..FEATURE_RELATIONS.len())
            .filter(|&i| {
                referenced
                    .iter()
                    .any(|t| t.eq_ignore_ascii_case(FEATURE_RELATIONS[i].0))
            })
            .map(|i| (i, Vec::new()))
            .collect();
        for (record, rows) in self.storage.iter().zip(self.storage.feature_rows()) {
            if let (true, Some(rows)) = (self.visible(viewer, record), rows) {
                for (i, shown) in &mut shown {
                    shown.extend_from_slice(rows.relation(*i));
                }
            }
        }
        let mut engine = relstore::Engine::new();
        for (i, rows) in shown {
            let (name, columns) = FEATURE_RELATIONS[i];
            engine
                .catalog
                .create_table(TableSchema::build(name, columns))?;
            engine.catalog.table_mut(name)?.rows = rows;
        }
        Ok(engine.query_statement(&stmt)?)
    }

    /// §2.2: "the CQMS could automatically generate these statements from
    /// partially written queries". Builds the Figure 1-style meta-query for
    /// a partial query like `SELECT FROM WaterSalinity, WaterTemperature`.
    pub fn generate_feature_query(&self, partial_sql: &str) -> Result<String, CqmsError> {
        let stmt = sqlparse::parse(partial_sql)?;
        let feats = crate::features::extract(&stmt, None);
        let mut from = vec!["Queries Q".to_string()];
        let mut conds: Vec<String> = Vec::new();
        for (i, t) in feats.tables.iter().enumerate() {
            let alias = format!("D{}", i + 1);
            from.push(format!("DataSources {alias}"));
            conds.push(format!("Q.qid = {alias}.qid"));
            conds.push(format!("{alias}.relName = '{t}'"));
        }
        for (i, (t, a)) in feats.attributes.iter().enumerate() {
            let alias = format!("A{}", i + 1);
            from.push(format!("Attributes {alias}"));
            conds.push(format!("Q.qid = {alias}.qid"));
            conds.push(format!("{alias}.attrName = '{a}'"));
            if !t.is_empty() {
                conds.push(format!("{alias}.relName = '{t}'"));
            }
        }
        let mut sql = format!("SELECT Q.qid, Q.qText FROM {}", from.join(", "));
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        Ok(sql)
    }

    /// Query-by-parse-tree: structural pattern matching over stored ASTs.
    pub fn by_parse_tree(&self, viewer: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.storage
            .iter_live()
            .filter(|r| self.visible(viewer, r) && pattern.matches(r))
            .map(|r| r.id)
            .collect()
    }

    /// Query-by-data (§2.2): find queries whose output includes all
    /// `include` values and excludes all `exclude` values.
    ///
    /// Matching runs against stored output summaries. Queries whose summary
    /// is a *sample* can only ever confirm inclusion; exclusion is trusted
    /// only for exhaustive (Full) summaries unless `engine` is provided for
    /// re-execution of sampled candidates.
    pub fn by_data(
        &self,
        viewer: UserId,
        include: &[&str],
        exclude: &[&str],
        engine: Option<&relstore::Engine>,
    ) -> Vec<QueryId> {
        let mut out = Vec::new();
        for r in self.storage.iter_live() {
            if !self.visible(viewer, r) {
                continue;
            }
            // Signature cell-hash screen: absence of a hash proves the
            // value is absent, so most records are rejected without
            // scanning any stored row; a hash hit is re-verified against
            // the rows, so collisions can never flip an answer.
            let sig = self.storage.signature(r.id);
            // The screen is sound only while summaries are immutable
            // outside `QueryStorage::refresh_summary`/`reindex`, which
            // rebuild these hashes. A summary mutated in place through
            // `get_mut` would silently stale the screen — fail loudly.
            debug_assert!(
                sig.map(|g| g.summary_coherent(&r.summary)).unwrap_or(true),
                "stale output summary on {}: refresh summaries via \
                 QueryStorage::refresh_summary, never through get_mut",
                r.id
            );
            let contains = |s: &crate::model::OutputSummary, v: &str| -> bool {
                sig.map(|g| g.may_contain_cell(v)).unwrap_or(true) && s.contains_value(v)
            };
            match &r.summary {
                crate::model::OutputSummary::None => continue,
                s if s.is_exhaustive() => {
                    let inc_ok = include.iter().all(|v| contains(s, v));
                    let exc_ok = exclude.iter().all(|v| !contains(s, v));
                    if inc_ok && exc_ok {
                        out.push(r.id);
                    }
                }
                s => {
                    // Sampled summary: cheap screen, then optionally re-run.
                    if exclude.iter().any(|v| contains(s, v)) {
                        continue;
                    }
                    match engine {
                        None => {
                            // Trust the sample for inclusion when everything
                            // requested is present.
                            if include.iter().all(|v| contains(s, v)) {
                                out.push(r.id);
                            }
                        }
                        Some(en) => {
                            if let Ok(res) = en.query(&r.raw_sql) {
                                let cells: Vec<String> = res
                                    .rows
                                    .iter()
                                    .flat_map(|row| row.iter().map(|v| v.render()))
                                    .collect();
                                let has = |needle: &str| {
                                    cells.iter().any(|c| c.eq_ignore_ascii_case(needle))
                                };
                                if include.iter().all(|v| has(v)) && exclude.iter().all(|v| !has(v))
                                {
                                    out.push(r.id);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// kNN similarity meta-query (§4.2): the `k` nearest live, visible
    /// queries to `target` under the given metric. Self-matches excluded.
    ///
    /// Runs over precomputed similarity signatures and the registry's
    /// structural index. `Features` and `Combined` sweep its feature
    /// classes — records with identical table, attribute and
    /// predicate-template ids are at one feature distance from the probe,
    /// so it is computed once per class, not once per record — and
    /// `Combined` also defers the expensive parse-tree component until
    /// the cheap feature+profile+output lower bound says a record could
    /// still make the top k. Both are *exact*: the result (ids and
    /// scores, ties broken by ascending id) is identical to the
    /// brute-force scan, which the pruning-equivalence proptest asserts.
    pub fn knn(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        k: usize,
        metric: DistanceKind,
    ) -> Vec<ScoredHit> {
        if k == 0 {
            return Vec::new();
        }
        let psig = self.storage.probe_signature(target);
        match metric {
            DistanceKind::Features => self.knn_features(viewer, target, &psig, k),
            DistanceKind::Combined => self.knn_combined(viewer, target, &psig, k),
            DistanceKind::TreeEdit => self.knn_tree_edit(viewer, target, &psig, k),
            DistanceKind::ParseTree => self.knn_parse_tree(viewer, target, &psig, k),
            // Output runs over hashed row sets — already a cheap full scan.
            _ => {
                let mut top = TopK::new(k);
                for r in self.storage.iter_live() {
                    if r.id == target.id || !self.visible(viewer, r) {
                        continue;
                    }
                    let sig = self.storage.signature(r.id).expect("signature per record");
                    let d = similarity::distance_with(target, &psig, r, sig, metric, self.config);
                    top.push(ScoredHit {
                        id: r.id,
                        score: 1.0 - d,
                    });
                }
                top.into_vec()
            }
        }
    }

    /// `qid`'s record and live signature, when it is a kNN neighbour of
    /// `target` for `viewer`: not the probe itself, live, and visible.
    fn neighbour(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        qid: u64,
    ) -> Option<(&'a QueryRecord, &'a SimSignature)> {
        let r = self.storage.get(QueryId(qid)).ok()?;
        if r.id == target.id || !self.visible(viewer, r) {
            return None;
        }
        Some((
            r,
            self.storage.signature(r.id).expect("signature per record"),
        ))
    }

    /// The registry's feature classes with each one's exact feature
    /// distance from the probe — one [`similarity::feature_distance_sets`]
    /// on the ids every member carries, so bit-identical to the
    /// per-record kernel — ascending, ties by first member: the order both
    /// class sweeps visit them in.
    fn classes_by_distance(&self, psig: &SimSignature) -> Vec<(f64, &'a FeatureClass)> {
        let probe = psig.feature_sets();
        let mut order: Vec<(f64, &FeatureClass)> = self
            .storage
            .indexes()
            .structural()
            .classes
            .iter()
            .map(|c| {
                let f = similarity::feature_distance_sets(probe, c.key.sets(), self.config);
                (f, c)
            })
            .collect();
        order.sort_unstable_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| a.1.members[0].cmp(&b.1.members[0]))
        });
        order
    }

    /// Feature-metric kNN over the feature classes, visited nearest
    /// first ([`MetaQueryExecutor::classes_by_distance`]). A class's
    /// members tie, so at most `k` accepted members (ascending ids) can
    /// matter, and the sweep stops at the first class that cannot reach
    /// the top k.
    /// Overridden records are filed under stale ids: they are masked in
    /// the classes and evaluated from their live signatures.
    fn knn_features(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        psig: &SimSignature,
        k: usize,
    ) -> Vec<ScoredHit> {
        let reg = self.storage.indexes();
        let mut top = TopK::new(k);
        for qid in reg.override_qids() {
            if let Some((r, sig)) = self.neighbour(viewer, target, qid) {
                top.push(ScoredHit {
                    id: r.id,
                    score: 1.0 - similarity::feature_distance_sig(psig, sig, self.config),
                });
            }
        }
        for (d, class) in self.classes_by_distance(psig) {
            let score = 1.0 - d;
            if top.worst().is_some_and(|w| score < w.score) {
                break; // distance-ordered: no later class can enter
            }
            let accepted = class
                .members
                .iter()
                .filter(|&&qid| !reg.overridden(qid))
                .filter_map(|&qid| self.neighbour(viewer, target, qid))
                .take(k);
            for (r, _) in accepted {
                top.push(ScoredHit { id: r.id, score });
            }
        }
        top.into_vec()
    }

    /// Combined-metric kNN over the feature classes. A class's bound is
    /// the blend with its tree and output terms at 0 — `0.55·f` for a
    /// probe without an output summary, `0.45·f` for one with (a member
    /// without output blends 0.55 / 0.45, and `0.55·f ≥ 0.45·f`) — which
    /// is at most every member's lower bound, float for float. Classes
    /// are opened in bound order (the feature-distance order, since the
    /// bound is a constant multiple of it); opening one pushes each
    /// accepted member's own lower bound (the class's feature distance, the
    /// SELECT-profile diff bound for the tree term, the exact output
    /// distance) onto a min-heap, and exact distances are taken off the
    /// heap while its minimum is no larger than the next class bound. The
    /// sweep stops once neither the heap nor any unopened class can reach
    /// the top k. Overridden records are evaluated exactly up front from
    /// their live signatures and masked in the classes.
    fn knn_combined(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        psig: &SimSignature,
        k: usize,
    ) -> Vec<ScoredHit> {
        let reg = self.storage.indexes();
        let mut top = TopK::new(k);
        let exact = |r: &QueryRecord, sig: &SimSignature| ScoredHit {
            id: r.id,
            score: 1.0
                - similarity::distance_with(
                    target,
                    psig,
                    r,
                    sig,
                    DistanceKind::Combined,
                    self.config,
                ),
        };
        for qid in reg.override_qids() {
            if let Some((r, sig)) = self.neighbour(viewer, target, qid) {
                top.push(exact(r, sig));
            }
        }
        let output = psig.output_rows.as_ref().map(|_| 0.0);
        let class_bound = |f: f64| similarity::combined_blend(f, 0.0, output);
        let cannot_enter = |top: &TopK, lb: f64| top.worst().is_some_and(|w| 1.0 - lb < w.score);
        let mut pending: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
        let mut classes = self.classes_by_distance(psig).into_iter().peekable();
        loop {
            let next_bound = classes.peek().map_or(f64::INFINITY, |c| class_bound(c.0));
            match pending.peek() {
                Some(Reverse(p)) if p.lb <= next_bound => {
                    if cannot_enter(&top, p.lb) {
                        break; // the heap minimum is the smallest bound left
                    }
                    let Reverse(p) = pending.pop().expect("peeked");
                    let (r, sig) = self
                        .neighbour(viewer, target, p.qid)
                        .expect("accepted when pushed");
                    top.push(exact(r, sig));
                }
                _ => {
                    let Some((f, class)) = classes.next() else {
                        break; // heap and classes both exhausted
                    };
                    if cannot_enter(&top, next_bound) {
                        break; // the class bound is the smallest bound left
                    }
                    for &qid in class.members.iter() {
                        if reg.overridden(qid) {
                            continue;
                        }
                        let Some((_, sig)) = self.neighbour(viewer, target, qid) else {
                            continue;
                        };
                        // The exact blend with the tree term at its cheap
                        // lower bound (the blend is monotone in every term).
                        let t = match (&psig.diff_profile, &sig.diff_profile) {
                            (Some(pa), Some(pb)) => sqlparse::edit_distance_lower_bound(pa, pb),
                            _ => 0.0,
                        };
                        let lb = similarity::combined_blend(
                            f,
                            t,
                            similarity::output_distance_sig(psig, sig),
                        );
                        pending.push(Reverse(Pending { lb, qid }));
                    }
                }
            }
        }
        top.into_vec()
    }

    /// TreeEdit kNN over the registry's structural index (§4.3's exact
    /// Zhang–Shasha metric, sublinear): records with a parse tree are
    /// served from the VP-tree, tree-less records (exact distance 1.0)
    /// from the side list, and overridden records (reindexed since they
    /// were indexed) are re-evaluated from their live signatures. Liveness,
    /// visibility and the self-match are filtered per query through the
    /// accept closure. Exact: ids and scores match the brute-force scan
    /// (`vp_tree_knn_matches_brute_force`).
    fn knn_tree_edit(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        psig: &crate::signature::SimSignature,
        k: usize,
    ) -> Vec<ScoredHit> {
        let mut top = TopK::new(k);
        let (Some(probe_tree), Some(probe_shape)) = (&psig.tree, &psig.tree_shape) else {
            // Unparseable probe: every record is at exactly distance 1.0,
            // so the top k are simply the k smallest visible ids —
            // iter_live yields in id order, stop as soon as k are found.
            for r in self.storage.iter_live() {
                if r.id != target.id && self.visible(viewer, r) {
                    top.push(ScoredHit {
                        id: r.id,
                        score: 0.0,
                    });
                    if top.full() {
                        break;
                    }
                }
            }
            return top.into_vec();
        };
        let reg = self.storage.indexes();
        let index = reg.structural();
        let stats = &reg.stats().tree_edit;
        let mut accept = |qid: u64| {
            qid != target.id.0
                && !reg.overridden(qid)
                && self
                    .storage
                    .get(QueryId(qid))
                    .map(|r| self.visible(viewer, r))
                    .unwrap_or(false)
        };
        // Overridden records: their index entries are stale, so they
        // are masked above and evaluated from the live signature.
        for qid in reg.override_qids() {
            if qid == target.id.0 {
                continue;
            }
            let Ok(r) = self.storage.get(QueryId(qid)) else {
                continue;
            };
            if !self.visible(viewer, r) {
                continue;
            }
            let sig = self.storage.signature(r.id).expect("signature per record");
            stats.add_exact(1);
            top.push(ScoredHit {
                id: r.id,
                score: 1.0 - similarity::tree_edit_distance_sig(psig, sig),
            });
        }
        // Tree-less records (exact distance 1.0, no DP), ascending: they
        // all tie at score 0.0, so the first k accepted suffice.
        let mut merged = 0usize;
        for &qid in index.treeless.iter() {
            if !accept(qid) {
                continue;
            }
            top.push(ScoredHit {
                id: QueryId(qid),
                score: 0.0,
            });
            merged += 1;
            if merged >= k {
                break;
            }
        }
        for hit in index
            .tree
            .knn(probe_tree, probe_shape, k, &mut accept, stats)
        {
            top.push(hit);
        }
        top.into_vec()
    }

    /// ParseTree (diff-based) kNN over the registry's profile-fingerprint
    /// groups: records whose diff-folded SELECTs are identical share one
    /// [`sqlparse::edit_distance_lower_bound`] *and* one exact diff — the
    /// per-probe bound work scales with the number of distinct folded
    /// SELECTs, not with the number of logged queries (a duplicate-heavy
    /// log of one template costs one evaluation, however large). Groups
    /// are swept in bound order, the exact diff runs once per admissible
    /// group, and its distance fans out to the group's visible members.
    /// Records without a folded SELECT (non-SELECT or unparseable
    /// statements) are evaluated per record from the side list, and
    /// overridden records from their live signatures. Exact:
    /// `parsetree_bounded_knn_matches_brute_force`.
    fn knn_parse_tree(
        &self,
        viewer: UserId,
        target: &QueryRecord,
        psig: &crate::signature::SimSignature,
        k: usize,
    ) -> Vec<ScoredHit> {
        let reg = self.storage.indexes();
        let stats = &reg.stats().parse_tree;
        let mut top = TopK::new(k);
        // Evaluate one record exactly from its live signature.
        let exact = |qid: u64, top: &mut TopK| {
            let Ok(r) = self.storage.get(QueryId(qid)) else {
                return;
            };
            if r.id == target.id || !r.is_live() || !self.visible(viewer, r) {
                return;
            }
            let sig = self.storage.signature(r.id).expect("signature per record");
            let d = similarity::tree_distance_sig(target, psig, r, sig);
            stats.add_exact(1);
            top.push(ScoredHit {
                id: r.id,
                score: 1.0 - d,
            });
        };
        let (Some(pa), Some(probe_folded)) = (&psig.diff_profile, &psig.folded_select) else {
            // Probe without a folded SELECT: every pair is an O(1)-ish
            // statement comparison — a plain scan is already optimal.
            for r in self.storage.iter_live() {
                exact(r.id.0, &mut top);
            }
            return top.into_vec();
        };
        let index = reg.structural();
        // Overridden records (stale group membership) and the ungrouped
        // complement: exact per record, masked out of the group sweep.
        for qid in reg.override_qids() {
            exact(qid, &mut top);
        }
        for &qid in index.ungrouped.iter() {
            if !reg.overridden(qid) {
                exact(qid, &mut top);
            }
        }
        // Bound ascending (ties by smallest member qid so the plateau
        // shortcut below stays exact).
        let mut order: Vec<_> = index
            .groups
            .iter()
            .map(|g| (sqlparse::edit_distance_lower_bound(pa, &g.key.profile), g))
            .collect();
        order.sort_unstable_by(|a, b| {
            a.0.partial_cmp(&b.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| a.1.members[0].cmp(&b.1.members[0]))
        });
        let mut next = 0usize;
        while next < order.len() {
            let (lb, g) = order[next];
            next += 1;
            if let Some(w) = top.worst() {
                let bound_score = 1.0 - lb;
                if bound_score < w.score {
                    // Bound-ordered: no remaining group can enter the top k.
                    let skipped: usize =
                        order[next - 1..].iter().map(|(_, g)| g.members.len()).sum();
                    stats.add_hits(skipped as u64);
                    break;
                }
                // Tie plateau: a group whose *bound* only ties the k-th
                // score can at best tie it exactly (exact ≥ bound), and
                // members are ascending — if even the smallest cannot win
                // the id tie-break, no member can.
                if bound_score == w.score && g.members[0] > w.id.0 {
                    stats.add_hits(g.members.len() as u64);
                    continue;
                }
            }
            // One exact diff for the whole template.
            let d = sqlparse::diff::edit_distance_normalized_folded(probe_folded, &g.key.folded);
            stats.add_exact(1);
            stats.add_hits(g.members.len() as u64 - 1);
            // Members tie at the same score, ascending ids: only the
            // first k accepted can matter.
            let mut pushed = 0usize;
            for &qid in g.members.iter() {
                if qid == target.id.0 || reg.overridden(qid) {
                    continue;
                }
                let Ok(r) = self.storage.get(QueryId(qid)) else {
                    continue;
                };
                if !self.visible(viewer, r) {
                    continue;
                }
                top.push(ScoredHit {
                    id: r.id,
                    score: 1.0 - d,
                });
                pushed += 1;
                if pushed >= k {
                    break;
                }
            }
        }
        top.into_vec()
    }

    /// kNN against ad-hoc SQL text that is not in the log (used while the
    /// user is composing a query, §2.3).
    pub fn knn_sql(
        &self,
        viewer: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
    ) -> Result<Vec<ScoredHit>, CqmsError> {
        let stmt = sqlparse::parse(sql)?;
        let feats = crate::features::extract(&stmt, None);
        let probe = crate::storage::make_record(
            QueryId(u64::MAX),
            viewer,
            0,
            sql,
            Some(stmt),
            feats,
            Default::default(),
            crate::model::OutputSummary::None,
            crate::model::SessionId(u64::MAX),
            crate::model::Visibility::Private,
        );
        Ok(self.knn(viewer, &probe, k, metric))
    }
}

/// A Combined-sweep record awaiting its exact distance, ordered by
/// (lower bound, qid).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    lb: f64,
    qid: u64,
}

impl Eq for Pending {}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.lb
            .total_cmp(&other.lb)
            .then_with(|| self.qid.cmp(&other.qid))
    }
}

/// Bounded best-k accumulator with brute-force-identical ordering
/// (score descending, then id ascending). `k` is small on every call
/// site, so ordered insertion beats a heap here. Shared with the metric
/// index, whose VP-tree search must replicate this exact ordering.
pub(crate) struct TopK {
    k: usize,
    items: Vec<ScoredHit>,
}

impl TopK {
    pub(crate) fn new(k: usize) -> Self {
        TopK {
            k,
            items: Vec::with_capacity(k + 1),
        }
    }

    pub(crate) fn full(&self) -> bool {
        self.items.len() == self.k
    }

    /// The current k-th best (worst retained) hit, if `k` are held.
    pub(crate) fn worst(&self) -> Option<&ScoredHit> {
        if self.full() {
            self.items.last()
        } else {
            None
        }
    }

    pub(crate) fn push(&mut self, hit: ScoredHit) {
        let beats =
            |a: &ScoredHit, b: &ScoredHit| a.score > b.score || (a.score == b.score && a.id < b.id);
        if let Some(w) = self.worst() {
            if !beats(&hit, w) {
                return;
            }
        }
        let pos = self.items.partition_point(|x| beats(x, &hit));
        self.items.insert(pos, hit);
        self.items.truncate(self.k);
    }

    pub(crate) fn into_vec(self) -> Vec<ScoredHit> {
        self.items
    }
}

/// Fold string literals compared against name-carrying feature columns
/// (`relName`, `attrName`) to lower case, so meta-queries match the
/// canonical stored form regardless of the case the user typed.
fn fold_name_literals(s: &mut SelectStatement) {
    fn name_col(e: &Expr) -> bool {
        matches!(e, Expr::Column(c)
            if c.name.eq_ignore_ascii_case("relname") || c.name.eq_ignore_ascii_case("attrname"))
    }
    fn walk(e: &mut Expr) {
        match e {
            Expr::Binary { left, op, right } if op.is_comparison() => {
                if name_col(left) {
                    if let Expr::Literal(Literal::Str(v)) = &mut **right {
                        *v = v.to_ascii_lowercase();
                    }
                }
                if name_col(right) {
                    if let Expr::Literal(Literal::Str(v)) = &mut **left {
                        *v = v.to_ascii_lowercase();
                    }
                }
                walk(left);
                walk(right);
            }
            Expr::Binary { left, right, .. } => {
                walk(left);
                walk(right);
            }
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => walk(expr),
            Expr::InList { expr, list, .. } => {
                if name_col(expr) {
                    for item in list.iter_mut() {
                        if let Expr::Literal(Literal::Str(v)) = item {
                            *v = v.to_ascii_lowercase();
                        }
                    }
                }
                walk(expr);
            }
            Expr::InSubquery { expr, subquery, .. } => {
                walk(expr);
                fold_name_literals(subquery);
            }
            Expr::Exists { subquery, .. } => fold_name_literals(subquery),
            Expr::ScalarSubquery(sub) => fold_name_literals(sub),
            _ => {}
        }
    }
    if let Some(w) = &mut s.where_clause {
        walk(w);
    }
    if let Some(h) = &mut s.having {
        walk(h);
    }
}

/// The verbatim Figure 1 meta-query from the paper.
pub const FIGURE1_META_QUERY: &str = "SELECT Q.qid, Q.qText \
FROM Queries Q, Attributes A1, Attributes A2 \
WHERE Q.qid = A1.qid AND Q.qid = A2.qid \
AND A1.attrName = 'salinity' \
AND A1.relName = 'WaterSalinity' \
AND A2.attrName = 'temp' \
AND A2.relName = 'WaterTemp'";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admin::Directory;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;

    fn add(storage: &mut QueryStorage, id: u64, user: u32, sql: &str, vis: Visibility) {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        storage.insert(make_record(
            QueryId(id),
            UserId(user),
            100 + id,
            sql,
            stmt,
            feats,
            RuntimeFeatures {
                success: true,
                ..Default::default()
            },
            OutputSummary::None,
            SessionId(id),
            vis,
        ));
    }

    fn setup() -> (QueryStorage, Directory, CqmsConfig) {
        let mut st = QueryStorage::new();
        add(
            &mut st,
            0,
            1,
            "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
             WHERE S.loc_x = T.loc_x AND S.salinity > 0.2 AND T.temp < 18",
            Visibility::Public,
        );
        add(
            &mut st,
            1,
            1,
            "SELECT * FROM WaterTemp WHERE temp < 22",
            Visibility::Public,
        );
        add(
            &mut st,
            2,
            2,
            "SELECT city FROM CityLocations WHERE pop > 100000",
            Visibility::Public,
        );
        add(
            &mut st,
            3,
            2,
            "SELECT secret FROM PrivateStuff",
            Visibility::Private,
        );
        (st, Directory::new(), CqmsConfig::default())
    }

    #[test]
    fn figure1_meta_query_runs_verbatim() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let r = mq.by_feature_sql(UserId(1), FIGURE1_META_QUERY).unwrap();
        // Only query 0 correlates salinity with temp.
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].render(), "0");
        assert!(r.rows[0][1].render().contains("WaterSalinity"));
    }

    #[test]
    fn keyword_and_substring_search() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let hits = mq.keyword(UserId(1), "salinity", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, QueryId(0));
        let subs = mq.substring(UserId(1), "temp < 22");
        assert_eq!(subs, vec![QueryId(1)]);
    }

    #[test]
    fn acl_hides_private_queries() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        // Owner sees it.
        assert_eq!(mq.substring(UserId(2), "PrivateStuff").len(), 1);
        // Others don't.
        assert!(mq.substring(UserId(1), "PrivateStuff").is_empty());
        let hits = mq.keyword(UserId(1), "secret", 10);
        assert!(hits.is_empty());
    }

    #[test]
    fn acl_filters_feature_sql_by_qid() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let all = mq
            .by_feature_sql(UserId(2), "SELECT qid FROM Queries")
            .unwrap();
        assert_eq!(all.rows.len(), 4);
        let filtered = mq
            .by_feature_sql(UserId(1), "SELECT qid FROM Queries")
            .unwrap();
        assert_eq!(filtered.rows.len(), 3);
        // The restriction is on the relations, not on a projected `qid`.
        let texts = mq
            .by_feature_sql(UserId(1), "SELECT qText FROM Queries")
            .unwrap();
        assert_eq!(texts.rows.len(), 3);
        let count = mq
            .by_feature_sql(UserId(1), "SELECT COUNT(*) FROM Queries")
            .unwrap();
        assert_eq!(count.rows[0][0].render(), "3");
    }

    #[test]
    fn generated_feature_query_finds_matches() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        // The paper's partial query example (§2.2).
        let sql = mq
            .generate_feature_query("SELECT FROM WaterSalinity, WaterTemp")
            .unwrap();
        assert!(sql.contains("DataSources"));
        let r = mq.by_feature_sql(UserId(1), &sql).unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0].render(), "0");
    }

    #[test]
    fn parse_tree_patterns() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        // All queries touching WaterTemp.
        let p = TreePattern {
            tables_all: vec!["watertemp".into()],
            ..Default::default()
        };
        assert_eq!(mq.by_parse_tree(UserId(1), &p).len(), 2);
        // Predicate on watertemp.temp with `<`.
        let p = TreePattern {
            predicate_on: Some(("watertemp".into(), "temp".into(), Some("<".into()))),
            ..Default::default()
        };
        assert_eq!(mq.by_parse_tree(UserId(1), &p).len(), 2);
        // Joins of at least two tables.
        let p = TreePattern {
            min_tables: Some(2),
            ..Default::default()
        };
        assert_eq!(mq.by_parse_tree(UserId(1), &p), vec![QueryId(0)]);
        // Projection requirement: `SELECT *` projects everything, so the
        // wildcard query matches alongside the explicit `SELECT city`.
        let p = TreePattern {
            projects: vec!["city".into()],
            ..Default::default()
        };
        assert_eq!(
            mq.by_parse_tree(UserId(1), &p),
            vec![QueryId(1), QueryId(2)]
        );
    }

    #[test]
    fn by_data_lake_washington_scenario() {
        // The §2.2 example: "all queries whose output includes Lake
        // Washington but not Lake Union … all matching queries specify
        // temp < 18".
        let mut st = QueryStorage::new();
        let mk_summary = |rows: Vec<&str>| OutputSummary::Full {
            columns: vec!["lake".into()],
            rows: rows.into_iter().map(|l| vec![l.to_string()]).collect(),
        };
        let mut add_with = |id: u64, sql: &str, rows: Vec<&str>| {
            let stmt = sqlparse::parse(sql).ok();
            let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
            let mut rec = make_record(
                QueryId(id),
                UserId(1),
                100,
                sql,
                stmt,
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(id),
                Visibility::Public,
            );
            rec.summary = mk_summary(rows);
            st.insert(rec);
        };
        add_with(
            0,
            "SELECT lake FROM WaterTemp WHERE temp < 18",
            vec!["Lake Washington", "Lake Sammamish"],
        );
        add_with(
            1,
            "SELECT lake FROM WaterTemp WHERE temp < 25",
            vec!["Lake Washington", "Lake Union"],
        );
        add_with(
            2,
            "SELECT lake FROM WaterTemp WHERE temp > 20",
            vec!["Lake Union"],
        );
        let dir = Directory::new();
        let cfg = CqmsConfig::default();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let hits = mq.by_data(UserId(1), &["Lake Washington"], &["Lake Union"], None);
        assert_eq!(hits, vec![QueryId(0)]);
        // And indeed that query specifies temp < 18.
        assert!(st.get(QueryId(0)).unwrap().raw_sql.contains("temp < 18"));
    }

    /// Acceptance: no TreeEdit/ParseTree probe ever executes an inline
    /// full index rebuild. Forcing the tombstone threshold only
    /// *schedules* a rebuild; probes keep reading the standing index
    /// (its generation number is untouched by any number of probes) and
    /// stay exact; the rebuild runs in the miner-epoch maintenance pass
    /// and becomes visible after exactly one swap (+1 on the number).
    #[test]
    fn probes_never_rebuild_inline() {
        use std::sync::atomic::Ordering;
        let mut st = QueryStorage::new();
        for i in 0..12u64 {
            add(
                &mut st,
                i,
                1,
                &format!("SELECT * FROM WaterTemp WHERE temp < {i}"),
                Visibility::Public,
            );
        }
        add(
            &mut st,
            12,
            1,
            "SELECT city FROM CityLocations",
            Visibility::Public,
        );
        // Rebuild the log into generation 1 (the steady state a running
        // miner maintains).
        st.schedule_index_rebuild();
        st.run_index_maintenance();
        assert_eq!(st.index_generation(), 1);
        let brute = |st: &QueryStorage, _dir: &Directory, cfg: &CqmsConfig, m| {
            let probe = st.get(QueryId(12)).unwrap().clone();
            let psig = st.probe_signature(&probe);
            let mut hits: Vec<ScoredHit> = st
                .iter_live()
                .filter(|r| r.id != probe.id)
                .map(|r| ScoredHit {
                    id: r.id,
                    score: 1.0
                        - crate::similarity::distance_with(
                            &probe,
                            &psig,
                            r,
                            st.signature(r.id).unwrap(),
                            m,
                            cfg,
                        ),
                })
                .collect();
            hits.sort_by(|a, b| {
                b.score
                    .partial_cmp(&a.score)
                    .unwrap()
                    .then_with(|| a.id.cmp(&b.id))
            });
            hits.truncate(3);
            hits
        };
        // Force the tombstone threshold: > 25% of indexed records die.
        for i in 0..5u64 {
            st.delete(QueryId(i)).unwrap();
        }
        assert!(st.index_rebuild_pending(), "threshold schedules");
        assert_eq!(st.index_generation(), 1, "…but does not rebuild");
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let probe = st.get(QueryId(12)).unwrap().clone();
        for metric in [DistanceKind::TreeEdit, DistanceKind::ParseTree] {
            let got = mq.knn(UserId(1), &probe, 3, metric);
            assert_eq!(got, brute(&st, &dir, &cfg, metric), "{metric:?}");
        }
        // Probes read the published generation; they never advance it.
        assert_eq!(st.index_generation(), 1);
        assert!(st.index_rebuild_pending());
        assert_eq!(
            st.metric_stats().rebuilds_completed.load(Ordering::Relaxed),
            1
        );
        // The miner-epoch pass publishes with one atomic swap.
        assert!(st.run_index_maintenance());
        assert_eq!(st.index_generation(), 2);
        assert!(!st.index_rebuild_pending());
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        for metric in [DistanceKind::TreeEdit, DistanceKind::ParseTree] {
            let got = mq.knn(UserId(1), &probe, 3, metric);
            assert_eq!(got, brute(&st, &dir, &cfg, metric), "{metric:?} post-swap");
        }
    }

    /// The grouped ParseTree sweep does one exact diff per distinct
    /// folded SELECT, not per record: a duplicate-heavy store costs the
    /// probe the same number of exact evaluations as its tiny template
    /// pool.
    #[test]
    fn parse_tree_group_sweep_scales_with_groups() {
        use std::sync::atomic::Ordering;
        let mut st = QueryStorage::new();
        // 120 records re-running 3 distinct statements (the popular-query
        // pattern: identical SQL logged over and over, differing only in
        // letter case — folded away by the differ).
        for i in 0..120u64 {
            let sql = match i % 3 {
                0 if i % 2 == 0 => "SELECT * FROM WaterTemp WHERE temp < 18",
                0 => "select * from watertemp where temp < 18",
                1 => "SELECT city FROM CityLocations WHERE pop > 1000",
                _ => "SELECT * FROM Lakes WHERE area > 50",
            };
            add(&mut st, i, 1, sql, Visibility::Public);
        }
        st.schedule_index_rebuild();
        st.run_index_maintenance();
        assert_eq!(st.indexes().structural().groups.len(), 3);
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let probe = st.get(QueryId(0)).unwrap().clone();
        st.metric_stats().parse_tree.reset();
        let hits = mq.knn(UserId(1), &probe, 5, DistanceKind::ParseTree);
        assert_eq!(hits.len(), 5);
        let exact = st
            .metric_stats()
            .parse_tree
            .exact_evals
            .load(Ordering::Relaxed);
        assert!(exact <= 3, "one diff per group, got {exact}");
    }

    /// A template re-logged after a rebuild joins the group the rebuild
    /// built for it: the index holds one group per template whatever the
    /// rebuild/insert interleaving, so a probe pays one exact diff for it
    /// — with no per-probe merging of twins.
    #[test]
    fn relogged_template_joins_its_group_after_a_rebuild() {
        use std::sync::atomic::Ordering;
        let lakes = "SELECT * FROM Lakes WHERE area > 50";
        let cities = "SELECT city FROM CityLocations WHERE pop > 1000";
        let mut st = QueryStorage::new();
        for i in 0..6u64 {
            let sql = if i % 2 == 0 { lakes } else { cities };
            add(&mut st, i, 1, sql, Visibility::Public);
        }
        st.schedule_index_rebuild();
        assert!(st.run_index_maintenance());
        assert_eq!(st.indexes().structural().groups.len(), 2);
        add(&mut st, 6, 1, lakes, Visibility::Public);
        assert_eq!(st.indexes().structural().groups.len(), 2);
        // k exceeds the store, so nothing is pruned: every template is
        // diffed — exactly once.
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let probe = st.get(QueryId(1)).unwrap().clone();
        st.metric_stats().parse_tree.reset();
        let hits = mq.knn(UserId(1), &probe, 10, DistanceKind::ParseTree);
        let ids: Vec<u64> = hits.iter().map(|h| h.id.0).collect();
        assert_eq!(ids, [3, 5, 0, 2, 4, 6], "own template first, then by id");
        let stats = &st.metric_stats().parse_tree;
        assert_eq!(stats.exact_evals.load(Ordering::Relaxed), 2);
    }

    /// A record built like `add`'s, carrying `output` as its one-column
    /// summary when given.
    fn record_with_output(id: u64, sql: &str, output: Option<&str>) -> QueryRecord {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        let mut r = make_record(
            QueryId(id),
            UserId(1),
            100,
            sql,
            stmt,
            feats,
            RuntimeFeatures::default(),
            OutputSummary::None,
            SessionId(id),
            Visibility::Public,
        );
        if let Some(v) = output {
            r.summary = OutputSummary::Full {
                columns: vec!["c".into()],
                rows: vec![vec![v.into()]],
            };
        }
        r
    }

    /// Every visible live record scored by the exact kernel, best first.
    fn brute(
        st: &QueryStorage,
        probe: &QueryRecord,
        k: usize,
        metric: DistanceKind,
    ) -> Vec<ScoredHit> {
        let cfg = CqmsConfig::default();
        let psig = st.probe_signature(probe);
        let mut hits: Vec<ScoredHit> = st
            .iter_live()
            .map(|r| ScoredHit {
                id: r.id,
                score: 1.0
                    - similarity::distance_with(
                        probe,
                        &psig,
                        r,
                        st.signature(r.id).unwrap(),
                        metric,
                        &cfg,
                    ),
            })
            .collect();
        hits.sort_by(|a, b| b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id)));
        hits.truncate(k);
        hits
    }

    fn assert_class_sweeps_exact(st: &QueryStorage, probe: &QueryRecord, what: &str) {
        let (dir, cfg) = (Directory::new(), CqmsConfig::default());
        let mq = MetaQueryExecutor::new(st, &dir, &cfg);
        for k in 1..=st.len() {
            for metric in [DistanceKind::Features, DistanceKind::Combined] {
                assert_eq!(
                    mq.knn(UserId(1), probe, k, metric),
                    brute(st, probe, k, metric),
                    "{metric:?} top {k} {what}"
                );
            }
        }
    }

    /// A member with an output summary blends 0.45 / 0.35 / 0.2, so a
    /// record whose features all differ from an output-carrying probe
    /// can still sit below `0.55·f` when its tree and output nearly
    /// match: the Combined class bound must use `0.45·f` for such a probe.
    #[test]
    fn combined_class_bound_covers_both_blend_shapes() {
        let mut st = QueryStorage::new();
        let log = [
            ("SELECT a, b, c, d, e, f FROM t2 ORDER BY a", None),
            ("SELECT a, b, c, d, e, f FROM t1 WHERE a > 1", Some("x")),
            (
                "SELECT a, b, c, d FROM t1 WHERE b < 2 ORDER BY b",
                Some("x"),
            ),
            ("SELECT e FROM t3 WHERE b < 2 ORDER BY b", Some("x")),
            ("SELECT a, b FROM t3", Some("y")),
        ];
        for (i, (sql, output)) in log.into_iter().enumerate() {
            st.insert(record_with_output(i as u64, sql, output));
        }
        // Record 1 shares no feature with the probe, yet at 0.49 it is
        // nearer than record 4 (0.54): a 0.55·f class bound (0.55)
        // would stop the sweep before opening its class.
        let probe_sql = "SELECT a, b, c, d, e, f FROM t3 WHERE a > 1";
        let probe = record_with_output(u64::MAX, probe_sql, Some("x"));
        assert_class_sweeps_exact(&st, &probe, "with probe output");
        let probe = record_with_output(u64::MAX, probe_sql, None);
        assert_class_sweeps_exact(&st, &probe, "without probe output");
    }

    /// A reindexed record stays filed under its old feature ids until the
    /// rebuild: the class sweeps must mask it there and score it from
    /// its live signature instead.
    #[test]
    fn class_sweeps_mask_overridden_records() {
        let mut st = QueryStorage::new();
        let log = [
            "SELECT * FROM WaterTemp WHERE temp < 1",
            "SELECT city FROM CityLocations",
            "SELECT * FROM Lakes",
            "SELECT city, pop FROM CityLocations WHERE pop > 3",
        ];
        for (i, sql) in log.into_iter().enumerate() {
            st.insert(record_with_output(i as u64, sql, None));
        }
        let rewritten = "SELECT city FROM CityLocations WHERE pop > 2";
        let r = st.get_mut(QueryId(1)).unwrap();
        r.raw_sql = rewritten.into();
        r.derive(sqlparse::parse(rewritten).ok(), None);
        st.reindex(QueryId(1)).unwrap();
        assert!(st.indexes().overridden(1));
        let probe = record_with_output(u64::MAX, "SELECT city FROM CityLocations", None);
        assert_class_sweeps_exact(&st, &probe, "with the override outstanding");
        assert!(st.run_index_maintenance());
        assert_class_sweeps_exact(&st, &probe, "after the rebuild");
    }

    #[test]
    fn knn_orders_by_similarity() {
        let (st, dir, cfg) = setup();
        let mq = MetaQueryExecutor::new(&st, &dir, &cfg);
        let hits = mq
            .knn_sql(
                UserId(1),
                "SELECT * FROM WaterTemp WHERE temp < 20",
                2,
                DistanceKind::Combined,
            )
            .unwrap();
        assert_eq!(hits.len(), 2);
        // The single-table WaterTemp query is nearer than the join.
        assert_eq!(hits[0].id, QueryId(1));
        assert!(hits[0].score > hits[1].score);
    }
}
