//! Read snapshots: the one place read logic lives.
//!
//! A [`ReadSnapshot`] bundles everything a meta-query needs — the COW
//! [`QueryStorage`] (records, session graph, popularity tables, text
//! indexes, structural index registry), the user [`Directory`], the latest
//! mined rules, a detached [`CatalogView`] and the trace clock — into a
//! single immutable value,
//! and every snapshot-servable read (keyword, substring, SQL over the
//! Figure 1 feature relations, parse-tree, query-by-data over summaries,
//! kNN, completion, recommendation; the browse reads: the Figure 2
//! window, the log summary, query and session clustering) is a method on
//! it, scoped to the live records its viewer may see. Nothing else re-declares
//! them: a single-threaded [`crate::server::Cqms`] reads through
//! [`crate::server::Cqms::capture_snapshot`], a
//! [`crate::service::CqmsService`] hands out its published snapshot via
//! [`crate::service::CqmsService::snapshot`], and
//! [`crate::shard::ShardedCqms`] merges the per-shard answers.
//!
//! The write path captures one snapshot per mutation and publishes it
//! behind an `ArcSwap`-style slot; a reader clones **one `Arc` under a
//! momentary lock** and then runs with no lock at all, never blocking on
//! (or being blocked by) writers, miner epochs, index rebuild publishes
//! or repair promotions. A snapshot holds no handle to the service or its
//! lock, so "a snapshot read never re-enters the shard lock" is a fact of
//! the types, not a runtime check.
//!
//! Capture copies pointers and nothing else: one `Arc` per chunk of each
//! id-indexed vector ([`QueryStorage::cow_head_len`] counts them), one per
//! hash trie, VP-tree, directory, rule set and catalog view, plus the flat
//! config. What a publish really costs is paid by the *next* write, which
//! copies the nodes and chunks it touches out of the structures the
//! snapshot now shares — a root-to-leaf path per touched key, one chunk
//! per touched vector, never a structure that grows with the log or with
//! the writes since some earlier event — and by the drop of the snapshot
//! it displaced, which frees exactly those copies' predecessors.
//!
//! The three reads that need the live *data* engine (identifier
//! spell-check, empty-result repair, query-by-data with re-execution) are
//! the remainder: they stay on [`crate::server::Cqms`] and, in a service,
//! behind its read lock.

use crate::admin::Directory;
use crate::assist::completion::{CatalogView, CompletionEngine, CompletionStats, Suggestion};
use crate::assist::recommend::{self, PanelRow};
use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::metaquery::{MetaQueryExecutor, ScoredHit, TreePattern};
use crate::miner::assoc::AssocRule;
use crate::miner::cluster::{self, ClusteringResult};
use crate::model::{QueryId, QueryRecord, SessionId, UserId};
use crate::similarity::DistanceKind;
use crate::storage::QueryStorage;
use std::collections::HashMap;
use std::sync::Arc;

/// An immutable, lock-free-readable view of one CQMS instance at a
/// publication epoch. Cheap to hold: everything in it is shared with the
/// writer by pointer, and writer churn after capture never reaches it.
pub struct ReadSnapshot {
    /// Publication epoch (monotonic per service; bumped on every write,
    /// index-rebuild publish and repair promotion).
    pub(crate) epoch: u64,
    pub(crate) config: CqmsConfig,
    pub(crate) storage: QueryStorage,
    pub(crate) directory: Directory,
    pub(crate) last_rules: Arc<Vec<AssocRule>>,
    pub(crate) catalog: Arc<CatalogView>,
    pub(crate) clock: u64,
}

impl std::fmt::Debug for ReadSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadSnapshot")
            .field("epoch", &self.epoch)
            .field("live", &self.storage.live_count())
            .field("clock", &self.clock)
            .finish()
    }
}

impl ReadSnapshot {
    /// The publication epoch this snapshot was captured at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Trace time at capture.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Live (non-tombstoned) logged queries at capture.
    pub fn live_count(&self) -> usize {
        self.storage.live_count()
    }

    /// The structural-index generation the snapshot serves from — its
    /// own pinned index's, however many rebuilds publish while it is held.
    pub fn index_generation(&self) -> u64 {
        self.storage.index_generation()
    }

    /// The captured storage (for oracles and diagnostics; all methods on
    /// it are read-only here — the snapshot is immutable).
    pub fn storage(&self) -> &QueryStorage {
        &self.storage
    }

    /// The captured tunables.
    pub fn config(&self) -> &CqmsConfig {
        &self.config
    }

    /// The captured user/group directory.
    pub fn directory(&self) -> &Directory {
        &self.directory
    }

    /// The association rules mined by the latest epoch before capture.
    pub fn association_rules(&self) -> &[AssocRule] {
        &self.last_rules
    }

    fn executor(&self) -> MetaQueryExecutor<'_> {
        MetaQueryExecutor::new(&self.storage, &self.directory, &self.config)
    }

    /// The executor's one ACL + tombstone predicate, for `user`.
    fn shown(&self, user: UserId) -> impl Fn(&QueryRecord) -> bool + '_ {
        let executor = self.executor();
        move |r| executor.visible(user, r)
    }

    // ------------------------------------------------------------------
    // Search & Browse (§2.2)
    // ------------------------------------------------------------------

    /// TF-IDF keyword search over logged query text.
    pub fn search_keyword(&self, user: UserId, query: &str, k: usize) -> Vec<ScoredHit> {
        self.executor().keyword(user, query, k)
    }

    /// This snapshot's corpus statistics for `query`: live document
    /// count and per-term document frequencies. A sharded deployment sums
    /// these across shards and feeds the totals to
    /// [`ReadSnapshot::search_keyword_with_corpus`] so keyword scores are
    /// shard-placement independent.
    pub fn keyword_corpus_stats(&self, query: &str) -> (u64, HashMap<String, u64>) {
        let ix = self.storage.text_index();
        (ix.len() as u64, ix.query_term_dfs(query))
    }

    /// Keyword search with externally supplied (cross-shard summed)
    /// corpus statistics.
    pub fn search_keyword_with_corpus(
        &self,
        user: UserId,
        query: &str,
        k: usize,
        total_docs: u64,
        df: &HashMap<String, u64>,
    ) -> Vec<ScoredHit> {
        self.executor()
            .keyword_with_corpus(user, query, k, total_docs, df)
    }

    /// Exact substring search over logged query text.
    pub fn search_substring(&self, user: UserId, needle: &str) -> Vec<QueryId> {
        self.executor().substring(user, needle)
    }

    /// SQL meta-query over the Figure 1 feature relations, restricted to
    /// the queries `user` may see.
    pub fn search_feature_sql(
        &self,
        user: UserId,
        sql: &str,
    ) -> Result<relstore::QueryResult, CqmsError> {
        self.executor().by_feature_sql(user, sql)
    }

    /// Structural search by parse-tree pattern.
    pub fn search_parse_tree(&self, user: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.executor().by_parse_tree(user, pattern)
    }

    /// Query-by-data over stored output summaries. Re-execution of
    /// sampled candidates needs the live data engine — that variant is
    /// [`crate::server::Cqms::search_by_data_reexecuting`].
    pub fn search_by_data(&self, user: UserId, include: &[&str], exclude: &[&str]) -> Vec<QueryId> {
        self.executor().by_data(user, include, exclude, None)
    }

    /// §2.2: generate the feature meta-query for a partially typed query.
    pub fn generate_feature_query(&self, partial_sql: &str) -> Result<String, CqmsError> {
        self.executor().generate_feature_query(partial_sql)
    }

    /// kNN similar queries to arbitrary SQL text.
    pub fn similar_queries(
        &self,
        user: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
    ) -> Result<Vec<ScoredHit>, CqmsError> {
        self.executor().knn_sql(user, sql, k, metric)
    }

    /// Figure 2 session window over the queries `user` may see.
    pub fn render_session(&self, user: UserId, session: SessionId) -> Result<String, CqmsError> {
        crate::viz::render_session(&self.storage, session, self.shown(user))
    }

    /// Browse view over the part of the log `user` may see.
    pub fn render_log_summary(&self, user: UserId, max_sessions: usize) -> String {
        crate::viz::render_log_summary(&self.storage, max_sessions, self.shown(user))
    }

    /// Cluster the queries `user` may see (§4.3; `k = 0`: √(n/2)), per
    /// call from the pinned signatures — O(n²) time and memory, no lock.
    pub fn cluster_queries(&self, user: UserId, k: usize) -> (Vec<QueryId>, ClusteringResult) {
        cluster::cluster_queries(&self.storage, self.shown(user), k, &self.config)
    }

    /// Cluster whole sessions by the queries of each `user` may see.
    pub fn cluster_sessions(&self, user: UserId, k: usize) -> (Vec<SessionId>, ClusteringResult) {
        cluster::cluster_sessions(&self.storage, self.shown(user), k, &self.config)
    }

    // ------------------------------------------------------------------
    // Assisted mode (§2.3)
    // ------------------------------------------------------------------

    fn completion_engine(&self) -> CompletionEngine<'_> {
        CompletionEngine::new(&self.storage, &self.config, &self.catalog)
    }

    /// Completions for partial SQL (Fig. 3 dropdown): this snapshot's own
    /// statistics, scored — the one-shard case of the sharded merge.
    pub fn complete(&self, _user: UserId, partial_sql: &str, k: usize) -> Vec<Suggestion> {
        self.complete_with_stats(partial_sql, k, &self.completion_stats(partial_sql))
    }

    /// This shard's summable completion statistics for the probe (the
    /// exact cross-shard merge currency; see
    /// [`CompletionStats::merge`]).
    pub fn completion_stats(&self, partial_sql: &str) -> CompletionStats {
        self.completion_engine().collect_stats(partial_sql)
    }

    /// Completions scored from (possibly cross-shard merged) statistics.
    pub fn complete_with_stats(
        &self,
        partial_sql: &str,
        k: usize,
        stats: &CompletionStats,
    ) -> Vec<Suggestion> {
        self.completion_engine()
            .suggest_with_stats(partial_sql, k, stats)
    }

    /// The Figure 3 "Similar Queries" panel for a query being composed.
    pub fn recommend(
        &self,
        user: UserId,
        seed_sql: &str,
        k: usize,
    ) -> Result<Vec<PanelRow>, CqmsError> {
        recommend::recommend_panel(
            &self.storage,
            &self.directory,
            &self.config,
            user,
            seed_sql,
            k,
        )
    }

    /// Render a recommendation panel as text (Fig. 3).
    pub fn render_recommendations(
        &self,
        user: UserId,
        seed_sql: &str,
        k: usize,
    ) -> Result<String, CqmsError> {
        Ok(crate::viz::render_panel(
            &self.recommend(user, seed_sql, k)?,
        ))
    }

    /// Newest logged trace timestamp, tombstones included (the panel
    /// recency anchor; a sharded deployment takes the max across shards).
    pub fn panel_now_ts(&self) -> u64 {
        self.storage.max_ts()
    }

    /// The template popularity histogram (summable across shards).
    pub fn template_histogram(&self) -> Vec<(u64, u32)> {
        self.storage.template_histogram()
    }

    /// Sorted live-successful latencies — the quality pass's efficiency
    /// basis (concatenated across shards for merged maintenance).
    pub fn latency_basis(&self) -> Vec<u64> {
        crate::maintenance::latency_basis(&self.storage)
    }
}
