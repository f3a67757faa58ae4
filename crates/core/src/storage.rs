//! The Query Storage (Figure 4): records, feature rows, text indexes,
//! session graph, annotations, popularity — plus snapshot/restore, where
//! a snapshot is the log compacted into the log's own frames (one durable
//! format, see [`crate::wal`]) and restore is replay.
//!
//! Queries are stored redundantly in three coordinated representations,
//! exactly the §4.1 "data model" discussion — none of them a database
//! engine of its own:
//!
//! * **raw text** indexed for keyword ([`textindex::InvertedIndex`]) and
//!   substring ([`textindex::TrigramIndex`]) meta-queries;
//! * **feature rows** — each query's rows of the Figure 1 relations
//!   (`Queries`, `DataSources`, `Attributes`, `Predicates`, `QueryMeta`),
//!   kept beside its record ([`FeatureRows`]); a SQL meta-query is shown
//!   the rows of the queries its viewer may see
//!   ([`crate::metaquery::MetaQueryExecutor::by_feature_sql`]);
//! * **typed records** ([`QueryRecord`]) carrying the parse tree, runtime
//!   features, output summary, annotations, ACLs and maintenance state.
//!
//! One `QueryStorage` is single-writer. Deployments that need parallel
//! write throughput run several — one per shard, routed by user hash —
//! behind [`crate::shard::ShardedCqms`], which merges cross-shard reads
//! exactly; ids here are then *shard-local* and striped into a global id
//! space by the shard layer.

use crate::error::CqmsError;
use crate::features::{FeatureRows, SyntacticFeatures};
use crate::indexreg::{IndexBuild, IndexRegistry, OVERRIDE_PUBLISH_THRESHOLD};
use crate::metricindex::MetricIndexStats;
use crate::model::*;
use crate::signature::{FeatureInterner, SimSignature};
use crate::wal::{self, InsertFrame, WalOp, WalWriter};
use cqms_cow::{CowMap, SegVec, SnapshotVec};
use relstore::Catalog;
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::Arc;
use textindex::{InvertedIndex, TrigramIndex};

/// The CQMS query store.
///
/// Every container is persistent ([`cqms_cow`], the text indexes, the
/// registry's path-copying structural index), so `clone()` produces an
/// immutable snapshot in O(len/CHUNK) pointer bumps and the writer's next
/// mutation copies only the nodes and chunks it touches — the basis of the service
/// layer's lock-free [`crate::snapshot::ReadSnapshot`]. The WAL is the one
/// thing a clone does not carry: a clone serves every read and logs nothing.
pub struct QueryStorage {
    records: SnapshotVec<Arc<QueryRecord>>,
    /// Per-record Figure 1 rows, parallel to `records`; `None` once the
    /// record is tombstoned.
    feature_rows: SnapshotVec<Option<Arc<FeatureRows>>>,
    text: InvertedIndex,
    trigram: TrigramIndex,
    /// Each edge behind its own `Arc`: an edge owns its edit script, and
    /// the tail copy the first append after a snapshot makes should bump
    /// counts, not duplicate scripts.
    edges: SegVec<Arc<SessionEdge>>,
    sessions: CowMap<SessionId, Vec<QueryId>>,
    /// Popularity: template fingerprint → number of live queries.
    template_counts: CowMap<u64, u32>,
    /// Each user's most recent query (tombstoned ones included) — where the
    /// Profiler's online session assignment resumes. Maintained by `insert`
    /// alone, so log replay and snapshot load rebuild it. A hashed map, not
    /// a vector indexed by user: user ids are the caller's (registration is
    /// optional), so nothing bounds the largest one.
    last_by_user: CowMap<UserId, QueryId>,
    next_session: u64,
    /// Feature-key interner backing the similarity signatures.
    interner: FeatureInterner,
    /// Per-record similarity signatures, parallel to `records`.
    signatures: SnapshotVec<Arc<SimSignature>>,
    /// All derived index state — the structural index (VP-tree,
    /// tree-less list, ParseTree profile groups, feature classes), the
    /// override log and the rebuild schedule. See [`crate::indexreg`] for
    /// the rebuild lifecycle; probes read it through
    /// [`QueryStorage::indexes`], rebuilds run in the background miner
    /// epoch.
    indexes: IndexRegistry,
    /// Incrementally maintained count of live records (kept coherent by
    /// `insert`/`delete`/`set_validity`; validity must never be flipped
    /// through `get_mut`).
    live: usize,
    /// Completion's statistics over the live records, read from their
    /// feature-row slots (kept coherent by `insert`/`delete`/
    /// `set_validity`/`reindex`, like `live`).
    completion: CompletionCounts,
    /// The newest `ts` of any record, tombstones included (records are
    /// never removed and no mutator rewrites `ts`, so `insert` alone
    /// keeps it).
    max_ts: u64,
    /// Write-ahead log, when this store is durable ([`crate::wal`]). Every
    /// sanctioned mutator logs its operation here; durability happens at
    /// the service layer's per-batch [`QueryStorage::wal_flush`].
    wal: Option<WalWriter>,
}

impl Clone for QueryStorage {
    /// Cheap snapshot clone: pointer bumps only
    /// ([`QueryStorage::cow_head_len`] of them), never O(store) and never
    /// O(writes since anything). The clone shares every index, record and
    /// feature row by pointer and carries no WAL.
    fn clone(&self) -> Self {
        QueryStorage {
            records: self.records.clone(),
            feature_rows: self.feature_rows.clone(),
            text: self.text.clone(),
            trigram: self.trigram.clone(),
            edges: self.edges.clone(),
            sessions: self.sessions.clone(),
            template_counts: self.template_counts.clone(),
            last_by_user: self.last_by_user.clone(),
            next_session: self.next_session,
            interner: self.interner.clone(),
            signatures: self.signatures.clone(),
            indexes: self.indexes.clone(),
            live: self.live,
            completion: self.completion.clone(),
            max_ts: self.max_ts,
            wal: None,
        }
    }
}

impl Default for QueryStorage {
    fn default() -> Self {
        Self::new()
    }
}

impl QueryStorage {
    /// An empty storage.
    pub fn new() -> Self {
        QueryStorage {
            records: SnapshotVec::new(),
            feature_rows: SnapshotVec::new(),
            text: InvertedIndex::new(),
            trigram: TrigramIndex::new(),
            edges: SegVec::new(),
            sessions: CowMap::new(),
            template_counts: CowMap::new(),
            last_by_user: CowMap::new(),
            next_session: 0,
            interner: FeatureInterner::new(),
            signatures: SnapshotVec::new(),
            indexes: IndexRegistry::new(),
            live: 0,
            completion: CompletionCounts::default(),
            max_ts: 0,
            wal: None,
        }
    }

    /// Number of logged queries (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of live (visible, usable) queries. O(1): the counter is
    /// maintained incrementally across insert/delete/set_validity/load.
    pub fn live_count(&self) -> usize {
        debug_assert_eq!(
            self.live,
            self.records.iter().filter(|r| r.is_live()).count(),
            "live counter out of sync"
        );
        self.live
    }

    /// The newest logged timestamp, tombstones included (0 when empty).
    /// O(1): `insert` maintains it.
    pub fn max_ts(&self) -> u64 {
        debug_assert_eq!(
            self.max_ts,
            self.records.iter().map(|r| r.ts).max().unwrap_or(0),
            "max_ts out of sync"
        );
        self.max_ts
    }

    /// Allocate a fresh session id.
    pub fn new_session(&mut self) -> SessionId {
        let id = SessionId(self.next_session);
        self.next_session += 1;
        id
    }

    /// Insert a fully-built record (the Profiler constructs records; tests
    /// may too). The record's `id` must equal `self.len()`.
    ///
    /// A record arriving already tombstoned (snapshot restore) is logged
    /// but never indexed — the same end state [`QueryStorage::delete`]
    /// leaves behind.
    pub fn insert(&mut self, record: QueryRecord) -> QueryId {
        assert_eq!(
            record.id.0 as usize,
            self.records.len(),
            "QueryStorage ids are dense"
        );
        let id = record.id;
        let tombstoned = record.validity == Validity::Deleted;
        if !tombstoned {
            self.text.add(id.0, &record.raw_sql);
            self.trigram.add(id.0, &record.raw_sql);
            *self.template_counts.entry_or_default(record.template_fp) += 1;
        }
        self.sessions.entry_or_default(record.session).push(id);
        self.last_by_user.insert(record.user, id);
        self.max_ts = self.max_ts.max(record.ts);
        if record.session.0 >= self.next_session {
            self.next_session = record.session.0 + 1;
        }
        let sig = SimSignature::build(&record, &mut self.interner);
        let live = record.is_live();
        if live {
            self.live += 1;
        }
        // Index the record into the registry's structural index: every
        // non-tombstoned record is indexed (flagged records may be
        // repaired later; tombstones never come back), so a
        // snapshot-restored record entering with its final validity ends
        // up where set_validity/delete would have left it.
        if !tombstoned {
            self.indexes.note_insert(&record, &sig);
        }
        if self.wal.is_some() {
            let op = WalOp::Insert(Box::new(InsertFrame::of(&record)));
            self.wal_log(op);
        }
        self.signatures.push(Arc::new(sig));
        self.feature_rows
            .push((!tombstoned).then(|| Arc::new(FeatureRows::of(&record))));
        self.records.push(Arc::new(record));
        if live {
            self.count_completion(id, true);
        }
        id
    }

    /// Look up a record by id (tombstoned records included).
    pub fn get(&self, id: QueryId) -> Result<&QueryRecord, CqmsError> {
        self.records
            .get(id.0 as usize)
            .map(Arc::as_ref)
            .ok_or_else(|| CqmsError::NotFound(format!("query {id}")))
    }

    /// Mutable record access. Bypasses every index/WAL hook — callers
    /// must keep derived state coherent (prefer the typed mutators).
    pub fn get_mut(&mut self, id: QueryId) -> Result<&mut QueryRecord, CqmsError> {
        self.records
            .get_mut(id.0 as usize)
            .map(Arc::make_mut)
            .ok_or_else(|| CqmsError::NotFound(format!("query {id}")))
    }

    /// All records (including tombstones — callers filter with
    /// [`QueryRecord::is_live`]).
    pub fn iter(&self) -> impl Iterator<Item = &QueryRecord> {
        self.records.iter().map(Arc::as_ref)
    }

    /// Live records only.
    pub fn iter_live(&self) -> impl Iterator<Item = &QueryRecord> {
        self.records.iter().map(Arc::as_ref).filter(|r| r.is_live())
    }

    /// Each record's Figure 1 rows, parallel to the record vector (`None`
    /// for tombstones) — what a SQL meta-query's relations are assembled
    /// from.
    pub fn feature_rows(&self) -> &SnapshotVec<Option<Arc<FeatureRows>>> {
        &self.feature_rows
    }

    /// Completion's statistics, counted over the live records.
    pub(crate) fn completion_counts(&self) -> &CompletionCounts {
        &self.completion
    }

    /// Keyword index.
    pub fn text_index(&self) -> &InvertedIndex {
        &self.text
    }

    /// Substring index.
    pub fn trigram_index(&self) -> &TrigramIndex {
        &self.trigram
    }

    /// Popularity of a template (count of live queries sharing it).
    pub fn popularity(&self, template_fp: u64) -> u32 {
        self.template_counts.get(&template_fp).copied().unwrap_or(0)
    }

    /// Highest template popularity (for score normalisation).
    pub fn max_popularity(&self) -> u32 {
        self.template_counts.values().copied().max().unwrap_or(1)
    }

    /// Each template fingerprint with its live count, in no particular
    /// order (zero counts included) — what a cross-shard merge sums.
    pub fn template_counts(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.template_counts.iter().map(|(&fp, &c)| (fp, c))
    }

    /// The full popularity table as sorted `(template fingerprint, live
    /// count)` pairs, zero counts dropped. Independent of ingestion order,
    /// which makes it the state concurrency tests compare across replays.
    pub fn template_histogram(&self) -> Vec<(u64, u32)> {
        let mut hist: Vec<(u64, u32)> = self
            .template_counts
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&fp, &c)| (fp, c))
            .collect();
        hist.sort_unstable();
        hist
    }

    /// The typed edits from `from`'s statement to `to`'s — a session
    /// edge's labels, diffed in place — or `None` unless both records
    /// exist and parsed.
    pub(crate) fn statement_edits(
        &self,
        from: QueryId,
        to: QueryId,
    ) -> Option<Vec<sqlparse::EditOp>> {
        let a = self.get(from).ok()?.statement.as_ref()?;
        let b = self.get(to).ok()?.statement.as_ref()?;
        Some(sqlparse::diff_statements(a, b))
    }

    /// Record a session-graph edge.
    pub fn add_edge(&mut self, edge: SessionEdge) {
        self.wal_log(WalOp::Edge {
            from: edge.from,
            to: edge.to,
            kind: edge.kind,
        });
        self.edges.push(Arc::new(edge));
    }

    /// The session graph's edges, in insertion order.
    pub fn edges(&self) -> &SegVec<Arc<SessionEdge>> {
        &self.edges
    }

    /// Edges within one session, in insertion order.
    pub fn session_edges(&self, session: SessionId) -> Vec<&SessionEdge> {
        let members = self.queries_in_session(session);
        self.edges
            .iter()
            .filter(|e| members.contains(&e.from) && members.contains(&e.to))
            .map(Arc::as_ref)
            .collect()
    }

    /// Queries of a session in insertion order.
    pub fn queries_in_session(&self, session: SessionId) -> Vec<QueryId> {
        self.sessions.get(&session).cloned().unwrap_or_default()
    }

    /// The records of a session that `shown` admits, in insertion order.
    pub fn session_members(
        &self,
        session: SessionId,
        shown: impl Fn(&QueryRecord) -> bool,
    ) -> Vec<&QueryRecord> {
        let ids = self.sessions.get(&session).into_iter().flatten();
        ids.filter_map(|id| self.get(*id).ok())
            .filter(|r| shown(r))
            .collect()
    }

    /// All session ids with at least one query.
    pub fn session_ids(&self) -> Vec<SessionId> {
        let mut ids: Vec<SessionId> = self.sessions.keys().copied().collect();
        ids.sort();
        ids
    }

    /// The most recently logged query of `user` (tombstoned or not), with
    /// its *current* session — miner epochs renumber sessions in place.
    pub fn latest_of(&self, user: UserId) -> Option<&QueryRecord> {
        self.get(*self.last_by_user.get(&user)?).ok()
    }

    /// Attach an annotation (§2.1).
    pub fn annotate(&mut self, id: QueryId, annotation: Annotation) -> Result<(), CqmsError> {
        let logged = self.wal.is_some().then(|| annotation.clone());
        self.get_mut(id)?.annotations.push(annotation);
        if let Some(a) = logged {
            self.wal_log(WalOp::Annotate {
                id,
                author: a.author,
                at: a.at,
                text: a.text,
                fragment: a.fragment,
            });
        }
        Ok(())
    }

    /// Tombstone a query: drop it from the text indexes, drop its feature
    /// rows and count it as dead weight in the structural index; the
    /// record itself remains for audit (§2.4 delete).
    pub fn delete(&mut self, id: QueryId) -> Result<(), CqmsError> {
        let (tfp, was_live) = {
            let r = self.get_mut(id)?;
            if r.validity == Validity::Deleted {
                return Ok(()); // idempotent: already tombstoned
            }
            let tfp = r.template_fp;
            let was_live = r.is_live();
            r.validity = Validity::Deleted;
            (tfp, was_live)
        };
        if was_live {
            self.live -= 1;
            self.count_completion(id, false);
        }
        self.text.remove(id.0);
        self.trigram.remove(id.0);
        *self.feature_rows_mut(id) = None;
        if let Some(c) = self.template_counts.get_mut(&tfp) {
            *c = c.saturating_sub(1);
        }
        // Tombstones are permanent dead weight in the structural indexes
        // (probes filter them by liveness — VP-tree entries and side-list
        // ids alike): the registry counts them and schedules a background
        // rebuild past the threshold — the probe path keeps serving the
        // index as it stands either way.
        self.indexes.note_tombstone();
        self.wal_log(WalOp::Tombstone { id });
        Ok(())
    }

    /// Change a record's maintenance validity, keeping the live counter
    /// and the completion counts coherent. Query Maintenance goes
    /// through here (never through `get_mut`) when it flags, repairs or
    /// obsoletes a query.
    ///
    /// Tombstoning is *not* a validity edit: transitions into
    /// `Validity::Deleted` must use [`QueryStorage::delete`] (which also
    /// drops the text indexes, feature rows and popularity count),
    /// and tombstoned records cannot be resurrected — both directions
    /// are rejected here.
    pub fn set_validity(&mut self, id: QueryId, validity: Validity) -> Result<(), CqmsError> {
        if validity == Validity::Deleted {
            return Err(CqmsError::Admin(
                "set_validity cannot tombstone; use QueryStorage::delete".into(),
            ));
        }
        if self.get(id)?.validity == Validity::Deleted {
            return Err(CqmsError::Admin(format!(
                "query {id} is tombstoned and cannot change validity"
            )));
        }
        let logged = self.wal.is_some().then(|| validity.clone());
        let (was_live, now_live) = {
            let r = self.get_mut(id)?;
            let was_live = r.is_live();
            r.validity = validity;
            (was_live, r.is_live())
        };
        if let Some(v) = logged {
            self.wal_log(WalOp::SetValidity { id, validity: v });
        }
        // The structural index needs no update on either transition: it
        // indexes every non-tombstoned record and filters liveness at
        // query time, so a flagged record is hidden now and findable again
        // the moment maintenance repairs it.
        match (was_live, now_live) {
            (true, false) => {
                self.live -= 1;
                self.count_completion(id, false);
            }
            (false, true) => {
                self.live += 1;
                self.count_completion(id, true);
            }
            _ => {}
        }
        Ok(())
    }

    /// Change a record's access control (§2.4 administrative interaction).
    /// The sanctioned route for visibility edits: unlike a bare `get_mut`
    /// assignment, this logs the change to the WAL when one is attached.
    pub fn set_visibility(&mut self, id: QueryId, visibility: Visibility) -> Result<(), CqmsError> {
        self.get_mut(id)?.visibility = visibility;
        self.wal_log(WalOp::SetVisibility { id, visibility });
        Ok(())
    }

    /// Move one query's popularity count between template fingerprints —
    /// a maintenance repair can change a record's template (e.g. a table
    /// rename), and the count must follow it.
    pub(crate) fn retemplate(&mut self, old_fp: u64, new_fp: u64) {
        if old_fp == new_fp {
            return;
        }
        if let Some(c) = self.template_counts.get_mut(&old_fp) {
            *c = c.saturating_sub(1);
        }
        *self.template_counts.entry_or_default(new_fp) += 1;
    }

    /// Add (or subtract) a live record's completion features to the
    /// counters. They are read from the record's feature-row slot, which
    /// only `insert` and `reindex` write — not from `record.features`,
    /// which maintenance rewrites through `get_mut` before it re-validates
    /// and reindexes the record.
    fn count_completion(&mut self, id: QueryId, add: bool) {
        let QueryStorage {
            feature_rows,
            completion,
            ..
        } = self;
        if let Some(Some(rows)) = feature_rows.get(id.0 as usize) {
            completion.count(rows, add);
        }
    }

    /// The feature-row slot of a record known to exist.
    fn feature_rows_mut(&mut self, id: QueryId) -> &mut Option<Arc<FeatureRows>> {
        self.feature_rows
            .get_mut(id.0 as usize)
            .expect("feature rows parallel records")
    }

    /// Re-index a record whose SQL (or output summary) was rewritten —
    /// the maintenance repair path, and the only sanctioned route for
    /// any in-place record mutation that derived state depends on.
    ///
    /// Text indexes, feature rows and the similarity signature are
    /// rebuilt immediately; the structural index (VP-tree, ParseTree
    /// profile groups, feature classes) is *not* rebuilt inline —
    /// the registry logs an override (probes mask the stale entries and
    /// re-evaluate this record from its fresh signature) and schedules a
    /// background rebuild into the next miner epoch.
    pub fn reindex(&mut self, id: QueryId) -> Result<(), CqmsError> {
        let (sql, rows, live) = {
            let r = self.get(id)?;
            (r.raw_sql.clone(), Arc::new(FeatureRows::of(r)), r.is_live())
        };
        self.text.add(id.0, &sql);
        self.trigram.add(id.0, &sql);
        if live {
            self.count_completion(id, false);
        }
        *self.feature_rows_mut(id) = Some(rows);
        if live {
            self.count_completion(id, true);
        }
        // Rebuild the similarity signature (the statement, features and
        // possibly the summary changed).
        let sig = {
            let QueryStorage {
                records, interner, ..
            } = &mut *self;
            let r = records
                .get(id.0 as usize)
                .expect("validated by get above")
                .as_ref();
            SimSignature::build(r, interner)
        };
        *self
            .signatures
            .get_mut(id.0 as usize)
            .expect("signatures parallel records") = Arc::new(sig);
        // The record's parse tree / folded SELECT / summary may have
        // changed: log an override (probes re-evaluate this record from
        // the fresh signature) and schedule the background rebuild that
        // retires it — no index is dropped, no probe pays a lazy build.
        self.indexes.note_reindex(id.0);
        self.wal_log(WalOp::Reindex { id, raw_sql: sql });
        // Bulk-repair bound: the override log is scanned by every probe,
        // and a repair storm can outpace the background rebuild that
        // retires it. Once the log crosses the threshold, publish a
        // generation inline — the storm pays for its own cleanup, and
        // probes never scan more than `threshold` overrides.
        if self.indexes.override_count() >= OVERRIDE_PUBLISH_THRESHOLD {
            self.run_index_maintenance();
        }
        Ok(())
    }

    /// Refresh a record's output summary (§4.4 statistics refresh). The
    /// summary feeds the signature's hashed output row/cell sets — the
    /// query-by-data screens and the Output/Combined distances — so the
    /// *only* sanctioned route is this setter, which routes
    /// through [`QueryStorage::reindex`] (now a registry rebuild
    /// request). Mutating `record.summary` through `get_mut` instead
    /// trips the coherence `debug_assert` on the query-by-data path.
    pub fn refresh_summary(
        &mut self,
        id: QueryId,
        summary: OutputSummary,
    ) -> Result<(), CqmsError> {
        self.get_mut(id)?.summary = summary;
        self.reindex(id)
    }

    // ------------------------------------------------------------------
    // Similarity signatures
    // ------------------------------------------------------------------

    /// The precomputed similarity signature of a record.
    pub fn signature(&self, id: QueryId) -> Option<&SimSignature> {
        self.signatures.get(id.0 as usize).map(Arc::as_ref)
    }

    /// All signatures, parallel to the record vector.
    pub fn signatures(&self) -> &SnapshotVec<Arc<SimSignature>> {
        &self.signatures
    }

    /// The feature-key interner backing the signatures.
    pub fn interner(&self) -> &FeatureInterner {
        &self.interner
    }

    /// The index registry: the structural index and the override log.
    /// Probes read indexes through here ([`IndexRegistry::structural`]).
    pub fn indexes(&self) -> &IndexRegistry {
        &self.indexes
    }

    /// Build a probe signature for a record that is not (necessarily) in
    /// the store — ad-hoc SQL being composed, §2.3. Read-only: unseen
    /// features get sentinel ids that match nothing.
    pub fn probe_signature(&self, record: &QueryRecord) -> SimSignature {
        SimSignature::probe(record, &self.interner)
    }

    /// Cheap-bound effectiveness counters + rebuild counters for the
    /// tree metrics.
    pub fn metric_stats(&self) -> &MetricIndexStats {
        self.indexes.stats()
    }

    // ------------------------------------------------------------------
    // Index rebuild lifecycle (background; see `crate::indexreg`)
    // ------------------------------------------------------------------

    /// The generation of this storage's structural index (on a clone:
    /// the one it was cloned with).
    pub fn index_generation(&self) -> u64 {
        self.indexes.generation()
    }

    /// Request a background structural rebuild (the next miner epoch —
    /// or an explicit [`QueryStorage::run_index_maintenance`] — executes
    /// it; probes never do).
    pub fn schedule_index_rebuild(&mut self) {
        self.indexes.schedule_rebuild();
    }

    /// Is a rebuild currently scheduled?
    pub fn index_rebuild_pending(&self) -> bool {
        self.indexes.rebuild_pending()
    }

    /// Phase 1 of the double-buffered rebuild: build the next generation
    /// from this storage's records, read in place. The service layer and
    /// the background miner call it on a *pinned clone* of the live
    /// storage (taken under a momentary read lock) with no lock held —
    /// readers *and* writers proceed against the standing index for the
    /// entire O(n log n) build; synchronous callers that hold exclusive
    /// access call it on the live storage.
    pub fn begin_index_rebuild(&self) -> IndexBuild {
        self.indexes.begin_rebuild(&self.records, &self.signatures)
    }

    /// Phase 2: replay the delta that landed mid-build (inserts past the
    /// build's length, overrides the build missed) and publish with one
    /// swap. Returns `false` when the build was discarded as stale (a
    /// racing rebuild published first).
    pub fn publish_index_rebuild(&mut self, build: IndexBuild) -> bool {
        let QueryStorage {
            records,
            signatures,
            indexes,
            ..
        } = self;
        indexes.publish_rebuild(build, records, signatures)
    }

    /// The background index-maintenance pass (run from the miner epoch):
    /// executes a scheduled rebuild synchronously. Returns whether a
    /// rebuild was published.
    pub fn run_index_maintenance(&mut self) -> bool {
        self.indexes.rebuild_pending() && {
            let build = self.begin_index_rebuild();
            self.publish_index_rebuild(build)
        }
    }

    /// Pointers a snapshot clone copies eagerly: one per chunk of each
    /// id-indexed vector (records, feature rows, signatures, document
    /// slots, VP-tree entries, profile groups and feature classes). Everything else a clone shares
    /// costs O(1) per structure; nothing is copied by value.
    pub fn cow_head_len(&self) -> usize {
        self.records.chunk_count()
            + self.feature_rows.chunk_count()
            + self.signatures.chunk_count()
            + self.text.clone_len()
            + self.trigram.clone_len()
            + self.indexes.clone_len()
    }

    /// Adopt a refined session assignment from the Query Miner (§4.3: the
    /// miner periodically recomputes sessions offline). Rewrites record
    /// session ids, the session map and the moved queries' `QueryMeta` rows.
    pub fn adopt_sessions(&mut self, assignment: &HashMap<QueryId, SessionId>) {
        self.sessions.clear();
        let mut max_session = 0u64;
        for i in 0..self.records.len() {
            let (id, cur_session) = {
                let r = self.records.get(i).expect("dense ids");
                (r.id, r.session)
            };
            let session = match assignment.get(&id) {
                Some(&s) => {
                    if s != cur_session {
                        Arc::make_mut(self.records.get_mut(i).expect("dense ids")).session = s;
                        if let Some(rows) = self.feature_rows_mut(id) {
                            *rows = Arc::new(rows.with_session(s));
                        }
                    }
                    s
                }
                None => cur_session,
            };
            self.sessions.entry_or_default(session).push(id);
            max_session = max_session.max(session.0);
        }
        self.next_session = max_session + 1;
    }

    // ------------------------------------------------------------------
    // Durability (see crate::wal)
    // ------------------------------------------------------------------

    /// Log one op to the attached WAL (no-op on a pure-RAM store).
    fn wal_log(&mut self, op: WalOp) {
        if let Some(w) = self.wal.as_mut() {
            w.log(&op);
        }
    }

    /// Attach a write-ahead log: every subsequent sanctioned mutation is
    /// logged and becomes durable at the next [`QueryStorage::wal_flush`].
    pub fn attach_wal(&mut self, writer: WalWriter) {
        self.wal = Some(writer);
    }

    /// Detach the WAL (ops stop being logged), returning the writer.
    pub fn detach_wal(&mut self) -> Option<WalWriter> {
        self.wal.take()
    }

    /// Is this store durable?
    pub fn wal_attached(&self) -> bool {
        self.wal.is_some()
    }

    /// Make every logged op durable — the acknowledgement point the
    /// service layer hits once per write operation / ingest batch.
    pub fn wal_flush(&mut self) -> Result<(), CqmsError> {
        match self.wal.as_mut() {
            Some(w) => w.flush().map_err(wal::wal_io),
            None => Ok(()),
        }
    }

    /// LSN of the most recently logged op (None without a WAL).
    pub fn wal_last_lsn(&self) -> Option<u64> {
        self.wal.as_ref().map(|w| w.last_lsn())
    }

    /// Ops logged since the last snapshot mark (0 without a WAL) — the
    /// miner epoch's snapshot trigger.
    pub fn wal_ops_since_snapshot(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.ops_since_snapshot())
    }

    /// A snapshot at `horizon` is durable elsewhere: rotate to a fresh
    /// segment and prune what the snapshot covers (the off-lock snapshot
    /// path, which wrote the file itself via [`crate::wal::write_snapshot_file`]).
    pub fn wal_mark_snapshot(&mut self, horizon: u64) -> Result<(), CqmsError> {
        match self.wal.as_mut() {
            Some(w) => w.mark_snapshot(horizon).map_err(wal::wal_io),
            None => Ok(()),
        }
    }

    /// Write a snapshot body through the sink, then mark it (the inline
    /// path for synchronous callers and in-memory sinks).
    pub fn wal_write_snapshot(&mut self, horizon: u64, body: &[u8]) -> Result<(), CqmsError> {
        match self.wal.as_mut() {
            Some(w) => w.write_snapshot(horizon, body).map_err(wal::wal_io),
            None => Ok(()),
        }
    }

    /// The WAL directory when the sink is file-backed (None otherwise).
    pub fn wal_snapshot_dir(&self) -> Option<std::path::PathBuf> {
        self.wal.as_ref().and_then(|w| w.snapshot_dir())
    }

    // ------------------------------------------------------------------
    // Snapshot / restore
    // ------------------------------------------------------------------

    /// Persist the storage as a *compacted log*: a `cqms-snapshot v2`
    /// line, then [`wal::encode_frame`]d ops in the log's own format — one
    /// `Insert` per record in id order carrying its current SQL, session,
    /// visibility, validity (tombstones included), runtime and quality,
    /// then every `Annotate`, then every `Edge`. Frame LSNs just number
    /// the frames from 1. Indexes, feature rows and everything
    /// derived from the SQL are rebuilt on load.
    ///
    /// ```
    /// use cqms_core::storage::QueryStorage;
    ///
    /// let storage = QueryStorage::new();
    /// let mut buf = Vec::new();
    /// storage.snapshot(&mut buf).unwrap();
    /// assert_eq!(buf, b"cqms-snapshot v2\n");
    /// ```
    pub fn snapshot(&self, mut out: impl Write) -> Result<(), CqmsError> {
        let inserts = self
            .records
            .iter()
            .map(|r| WalOp::Insert(Box::new(InsertFrame::of(r))));
        let annotations = self.records.iter().flat_map(|r| {
            r.annotations.iter().map(|a| WalOp::Annotate {
                id: r.id,
                author: a.author,
                at: a.at,
                text: a.text.clone(),
                fragment: a.fragment.clone(),
            })
        });
        let edges = self.edges.iter().map(|e| WalOp::Edge {
            from: e.from,
            to: e.to,
            kind: e.kind,
        });
        out.write_all(SNAPSHOT_MAGIC).map_err(io_err)?;
        let mut frame = Vec::new();
        for (i, op) in inserts.chain(annotations).chain(edges).enumerate() {
            frame.clear();
            wal::encode_frame(&mut frame, i as u64 + 1, &op);
            out.write_all(&frame).map_err(io_err)?;
        }
        Ok(())
    }

    /// Restore from a snapshot produced by [`QueryStorage::snapshot`] by
    /// replaying its frames through [`wal::apply_op`] — the same path log
    /// recovery takes. The whole body must decode: a frame that fails its
    /// length, checksum or payload test is a load error, never a silently
    /// shorter store. Output summaries are *not* persisted (they are
    /// statistics, re-creatable by maintenance refresh).
    ///
    /// Features are derived without a catalog here; recovery through
    /// [`crate::Cqms::open`] passes the engine's.
    ///
    /// ```
    /// use cqms_core::storage::QueryStorage;
    ///
    /// let storage = QueryStorage::new();
    /// let mut buf = Vec::new();
    /// storage.snapshot(&mut buf).unwrap();
    /// let restored = QueryStorage::load(buf.as_slice()).unwrap();
    /// assert_eq!(restored.len(), storage.len());
    /// ```
    pub fn load(mut reader: impl BufRead) -> Result<QueryStorage, CqmsError> {
        let mut body = Vec::new();
        reader.read_to_end(&mut body).map_err(io_err)?;
        Self::load_body(&body, None)
    }

    /// [`QueryStorage::load`] of an in-memory body, resolving features
    /// against `catalog`.
    pub(crate) fn load_body(
        body: &[u8],
        catalog: Option<&Catalog>,
    ) -> Result<QueryStorage, CqmsError> {
        let frames = body.strip_prefix(SNAPSHOT_MAGIC).ok_or_else(|| {
            CqmsError::Snapshot(if body.starts_with(SNAPSHOT_V1_MAGIC) {
                "unsupported snapshot format `cqms-snapshot v1` (text); \
                 this build reads `cqms-snapshot v2` (framed) only"
                    .into()
            } else {
                "not a `cqms-snapshot v2` body".into()
            })
        })?;
        let mut storage = QueryStorage::new();
        let mut pos = 0;
        while pos < frames.len() {
            let (_lsn, op, len) = wal::decode_frame(&frames[pos..]).ok_or_else(|| {
                CqmsError::Snapshot(format!("undecodable frame at body offset {pos}"))
            })?;
            wal::apply_op(&mut storage, &op, catalog)?;
            pos += len;
        }
        Ok(storage)
    }
}

/// A predicate shape as completion counts it: (table, column, op).
pub(crate) type PredicateShape = (Arc<str>, Arc<str>, Arc<str>);

/// A predicate shape's use count and its constants' counts.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredicateCount {
    /// Live records' predicates of this shape.
    pub(crate) count: u32,
    /// Rendered constant → how many of them compare against it.
    pub(crate) constants: CowMap<Arc<str>, u32>,
}

/// The statistics [`crate::assist::completion::CompletionEngine`] reads,
/// counted over exactly the records [`QueryStorage::iter_live`] yields and
/// kept by the storage's mutators, so a completion costs O(keys in scope)
/// instead of O(log). Keys are the text cells of the records' feature
/// rows; a key whose count falls to zero is removed. Nothing here is
/// persisted: log replay and snapshot load rebuild it.
#[derive(Debug, Clone, Default)]
pub(crate) struct CompletionCounts {
    /// A record's `features.tables` → live records with exactly that list.
    table_sets: CowMap<Arc<[Arc<str>]>, u32>,
    /// (table, attribute) → live records that use it.
    attrs: CowMap<(Arc<str>, Arc<str>), u32>,
    /// (table, column, op) → its predicates over live records.
    preds: CowMap<PredicateShape, PredicateCount>,
}

impl CompletionCounts {
    /// Each distinct live table list with its record count.
    pub(crate) fn table_sets(&self) -> impl Iterator<Item = (&[Arc<str>], u32)> {
        self.table_sets.iter().map(|(k, &n)| (&**k, n))
    }

    /// Each (table, attribute) with its use count.
    pub(crate) fn attrs(&self) -> impl Iterator<Item = (&(Arc<str>, Arc<str>), u32)> {
        self.attrs.iter().map(|(k, &n)| (k, n))
    }

    /// Each (table, column, op) predicate shape with its counts.
    pub(crate) fn preds(&self) -> impl Iterator<Item = (&PredicateShape, &PredicateCount)> {
        self.preds.iter()
    }

    /// Add (or subtract) one live record's features.
    fn count(&mut self, rows: &FeatureRows, add: bool) {
        bump(&mut self.table_sets, rows.tables().cloned().collect(), add);
        for (t, a) in rows.attributes() {
            bump(&mut self.attrs, (Arc::clone(t), Arc::clone(a)), add);
        }
        for [t, c, op, constant] in rows.predicates() {
            let key = (Arc::clone(t), Arc::clone(c), Arc::clone(op));
            if add {
                let shape = self.preds.entry_or_default(key);
                shape.count += 1;
                bump(&mut shape.constants, Arc::clone(constant), true);
            } else if let Some(shape) = self.preds.get_mut(&key) {
                if shape.count > 1 {
                    shape.count -= 1;
                    bump(&mut shape.constants, Arc::clone(constant), false);
                } else {
                    self.preds.remove(&key);
                }
            }
        }
    }
}

/// Add one to `key`'s count, or take one away and drop the key at zero.
fn bump<K: Eq + std::hash::Hash + Clone>(map: &mut CowMap<K, u32>, key: K, add: bool) {
    if add {
        *map.entry_or_default(key) += 1;
        return;
    }
    match map.get_mut(&key) {
        Some(n) if *n > 1 => *n -= 1,
        _ => {
            map.remove(&key);
        }
    }
}

/// First line of a snapshot body; the frames follow it directly.
const SNAPSHOT_MAGIC: &[u8] = b"cqms-snapshot v2\n";

/// How a body in the retired TSV text format starts. Such a snapshot is
/// refused outright ([`crate::wal::open_dir`] fails rather than
/// quarantining it and opening empty).
pub(crate) const SNAPSHOT_V1_MAGIC: &[u8] = b"cqms-snapshot v1";

fn io_err(e: std::io::Error) -> CqmsError {
    CqmsError::Snapshot(e.to_string())
}

/// Build a record from its parts — the constructor of ingest, replay,
/// probes and tests; callers extract `features` first (against their
/// catalog, if they have one).
#[allow(clippy::too_many_arguments)]
pub fn make_record(
    id: QueryId,
    user: UserId,
    ts: u64,
    raw_sql: &str,
    statement: Option<sqlparse::Statement>,
    features: SyntacticFeatures,
    runtime: RuntimeFeatures,
    summary: OutputSummary,
    session: SessionId,
    visibility: Visibility,
) -> QueryRecord {
    let mut record = QueryRecord {
        id,
        user,
        ts,
        raw_sql: raw_sql.to_string(),
        statement: None,
        canonical_sql: String::new(),
        structure_fp: 0,
        template_fp: 0,
        features,
        runtime,
        summary,
        session,
        visibility,
        annotations: Vec::new(),
        validity: Validity::Valid,
        quality: 0.5,
    };
    record.set_statement(statement);
    record
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;

    fn record(id: u64, user: u32, ts: u64, sql: &str, session: u64) -> QueryRecord {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        make_record(
            QueryId(id),
            UserId(user),
            ts,
            sql,
            stmt,
            feats,
            RuntimeFeatures {
                elapsed_us: 1000,
                cardinality: 5,
                success: true,
                ..Default::default()
            },
            OutputSummary::None,
            SessionId(session),
            Visibility::Public,
        )
    }

    /// A SQL meta-query over `s` as an administrator (who sees every
    /// query), cells rendered.
    fn feature_sql(s: &QueryStorage, sql: &str) -> Vec<Vec<String>> {
        let mut directory = crate::admin::Directory::new();
        let admin = directory.create_user("admin");
        let config = crate::config::CqmsConfig::default();
        crate::metaquery::MetaQueryExecutor::new(s, &directory, &config)
            .by_feature_sql(admin, sql)
            .unwrap()
            .rows
            .iter()
            .map(|row| row.iter().map(relstore::Value::render).collect())
            .collect()
    }

    fn populated() -> QueryStorage {
        let mut s = QueryStorage::new();
        s.insert(record(
            0,
            1,
            10,
            "SELECT * FROM WaterTemp WHERE temp < 22",
            0,
        ));
        s.insert(record(
            1,
            1,
            40,
            "SELECT * FROM WaterTemp WHERE temp < 18",
            0,
        ));
        s.insert(record(
            2,
            2,
            5000,
            "SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x",
            1,
        ));
        s
    }

    #[test]
    fn insert_and_lookup() {
        let s = populated();
        assert_eq!(s.len(), 3);
        assert_eq!(s.live_count(), 3);
        assert_eq!(s.get(QueryId(1)).unwrap().user, UserId(1));
        assert!(s.get(QueryId(9)).is_err());
    }

    #[test]
    fn feature_relations_queryable() {
        let s = populated();
        let rows = feature_sql(
            &s,
            "SELECT qid FROM DataSources WHERE relName = 'watersalinity'",
        );
        assert_eq!(rows, [["2"]]);
    }

    #[test]
    fn text_indexes_wired() {
        let s = populated();
        let hits = s.text_index().search("salinity", 10);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 2);
        assert_eq!(s.trigram_index().search("temp < 18"), vec![1]);
    }

    #[test]
    fn popularity_counts_templates() {
        let s = populated();
        // Queries 0 and 1 share a template (differ only in the constant).
        let fp = s.get(QueryId(0)).unwrap().template_fp;
        assert_eq!(s.popularity(fp), 2);
        assert_eq!(s.max_popularity(), 2);
    }

    #[test]
    fn sessions_group_queries() {
        let mut s = populated();
        assert_eq!(
            s.queries_in_session(SessionId(0)),
            vec![QueryId(0), QueryId(1)]
        );
        let fresh = s.new_session();
        assert_eq!(fresh, SessionId(2));
    }

    #[test]
    fn adopted_sessions_reach_records_map_and_query_meta() {
        let mut s = populated();
        // Split session 0: query 1 moves to a fresh session 5.
        s.adopt_sessions(&HashMap::from([(QueryId(1), SessionId(5))]));
        assert_eq!(s.get(QueryId(1)).unwrap().session, SessionId(5));
        assert_eq!(s.queries_in_session(SessionId(0)), vec![QueryId(0)]);
        assert_eq!(s.queries_in_session(SessionId(5)), vec![QueryId(1)]);
        assert_eq!(s.new_session(), SessionId(6));
        let rows = feature_sql(&s, "SELECT qid, sessionId FROM QueryMeta ORDER BY qid");
        assert_eq!(rows, [["0", "0"], ["1", "5"], ["2", "1"]]);
        let rows = feature_sql(&s, "SELECT qid FROM QueryMeta WHERE sessionId = 5");
        assert_eq!(rows, [["1"]]);
    }

    #[test]
    fn delete_tombstones_everywhere() {
        let mut s = populated();
        let fp = s.get(QueryId(0)).unwrap().template_fp;
        s.delete(QueryId(0)).unwrap();
        assert_eq!(s.live_count(), 2);
        assert!(!s.text_index().contains(0));
        assert_eq!(s.popularity(fp), 1);
        assert!(feature_sql(&s, "SELECT * FROM Queries WHERE qid = 0").is_empty());
        assert!(s.feature_rows()[0].is_none());
        // Record is retained for audit.
        assert_eq!(s.get(QueryId(0)).unwrap().validity, Validity::Deleted);
    }

    #[test]
    fn annotations_attach() {
        let mut s = populated();
        s.annotate(
            QueryId(1),
            Annotation {
                author: UserId(1),
                at: 50,
                text: "final temperature threshold".into(),
                fragment: Some("temp < 18".into()),
            },
        )
        .unwrap();
        assert_eq!(s.get(QueryId(1)).unwrap().annotations.len(), 1);
    }

    #[test]
    fn edges_recorded_per_session() {
        let mut s = populated();
        let a = s.get(QueryId(0)).unwrap().statement.clone().unwrap();
        let b = s.get(QueryId(1)).unwrap().statement.clone().unwrap();
        let edits = sqlparse::diff_statements(&a, &b);
        s.add_edge(SessionEdge {
            from: QueryId(0),
            to: QueryId(1),
            kind: EdgeKind::Evolution,
            edits,
        });
        let edges = s.session_edges(SessionId(0));
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].edits.len(), 1);
    }

    #[test]
    fn snapshot_roundtrip() {
        let mut s = populated();
        s.annotate(
            QueryId(2),
            Annotation {
                author: UserId(2),
                at: 60,
                text: "join\twith\ttabs and\nnewline".into(),
                fragment: None,
            },
        )
        .unwrap();
        let a = s.get(QueryId(0)).unwrap().statement.clone().unwrap();
        let b = s.get(QueryId(1)).unwrap().statement.clone().unwrap();
        s.add_edge(SessionEdge {
            from: QueryId(0),
            to: QueryId(1),
            kind: EdgeKind::Evolution,
            edits: sqlparse::diff_statements(&a, &b),
        });
        s.delete(QueryId(0)).unwrap();

        let mut buf = Vec::new();
        s.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();

        assert_eq!(restored.len(), 3);
        assert_eq!(restored.live_count(), 2);
        assert_eq!(
            restored.get(QueryId(2)).unwrap().annotations[0].text,
            "join\twith\ttabs and\nnewline"
        );
        assert_eq!(restored.edges().len(), 1);
        assert_eq!(restored.edges()[0].edits.len(), 1);
        // Derived state rebuilt.
        assert_eq!(restored.trigram_index().search("temp < 18"), vec![1]);
        assert_eq!(
            restored.get(QueryId(1)).unwrap().template_fp,
            s.get(QueryId(1)).unwrap().template_fp
        );
        // Tombstone survives.
        assert!(!restored.text_index().contains(0));
    }

    #[test]
    fn load_rejects_garbage() {
        assert!(QueryStorage::load("random garbage\n".as_bytes()).is_err());
        // The retired text format is named, not mistaken for corruption.
        let err = QueryStorage::load("cqms-snapshot v1\n".as_bytes())
            .err()
            .expect("v1 refused");
        assert!(err.to_string().contains("unsupported"), "{err}");
        // Every byte past the magic must decode: a flipped frame byte or a
        // cut-off tail is an error, never a shorter store.
        let mut buf = Vec::new();
        populated().snapshot(&mut buf).unwrap();
        assert!(QueryStorage::load(&buf[..buf.len() - 1]).is_err());
        let mid = buf.len() / 2;
        buf[mid] ^= 0x01;
        assert!(QueryStorage::load(&buf[..]).is_err());
    }

    /// The on-disk format, pinned byte for byte: magic line, then one
    /// Insert frame per record (the tombstone included), the Annotate
    /// frame, the Edge frame — each `[len][crc32][lsn][tag][payload]`.
    #[test]
    fn snapshot_bytes_are_golden() {
        let mut s = QueryStorage::new();
        s.insert(record(0, 1, 10, "SELECT * FROM Lakes", 0));
        s.insert(record(1, 1, 40, "SELECT lake FROM Lakes", 0));
        s.insert(record(2, 2, 70, "not sql", 1));
        s.delete(QueryId(0)).unwrap();
        s.annotate(
            QueryId(1),
            Annotation {
                author: UserId(2),
                at: 50,
                text: "names".into(),
                fragment: Some("lake".into()),
            },
        )
        .unwrap();
        s.add_edge(SessionEdge {
            from: QueryId(0),
            to: QueryId(1),
            kind: EdgeKind::Evolution,
            edits: Vec::new(),
        });
        let mut buf = Vec::new();
        s.snapshot(&mut buf).unwrap();
        assert_eq!(
            buf.escape_ascii().to_string(),
            GOLDEN_SNAPSHOT.escape_ascii().to_string()
        );
    }

    const GOLDEN_SNAPSHOT: &[u8] = b"cqms-snapshot v2\n\
        W\x00\x00\x00J\xc0\x8d\x05\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\n\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x13\x00\x00\x00SELECT * FROM Lakes\x01\x04\xe8\x03\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xe0?\
        Z\x00\x00\x00\xc4S\xfc/\x02\x00\x00\x00\x00\x00\x00\x00\x01\x01\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00(\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x16\x00\x00\x00SELECT lake FROM Lakes\x01\x00\xe8\x03\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xe0?\
        K\x00\x00\x00\xf5^\xc6T\x03\x00\x00\x00\x00\x00\x00\x00\x01\x02\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00F\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x07\x00\x00\x00not sql\x01\x00\xe8\x03\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\xe0?\
        /\x00\x00\x00\x7f!S\xc8\x04\x00\x00\x00\x00\x00\x00\x00\x06\x01\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x002\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00names\x01\x04\x00\x00\x00lake\
        \x1a\x00\x00\x00\xdf\xfb\xe4\x91\x05\x00\x00\x00\x00\x00\x00\x00\x05\x00\x00\x00\x00\x00\x00\x00\x00\x01\x00\x00\x00\x00\x00\x00\x00\x00";

    #[test]
    fn live_counter_tracks_all_transitions() {
        let mut s = populated();
        let scan = |s: &QueryStorage| s.iter().filter(|r| r.is_live()).count();
        assert_eq!(s.live_count(), scan(&s));
        // delete: live → dead; double-delete stays coherent.
        s.delete(QueryId(0)).unwrap();
        s.delete(QueryId(0)).unwrap();
        assert_eq!(s.live_count(), 2);
        // set_validity transitions in both directions.
        s.set_validity(
            QueryId(1),
            Validity::Flagged {
                reason: "schema drift".into(),
                at: 5,
            },
        )
        .unwrap();
        assert_eq!(s.live_count(), 1);
        s.set_validity(
            QueryId(1),
            Validity::Repaired {
                original_sql: "SELECT * FROM WaterTemp WHERE temp < 18".into(),
                at: 6,
            },
        )
        .unwrap();
        assert_eq!(s.live_count(), 2);
        // Tombstoning is delete()'s job, in both directions.
        assert!(s.set_validity(QueryId(1), Validity::Deleted).is_err());
        assert!(s.set_validity(QueryId(0), Validity::Valid).is_err());
        assert_eq!(s.live_count(), 2);
        // Snapshot → load preserves the counter (incl. tombstones).
        let mut buf = Vec::new();
        s.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();
        assert_eq!(restored.live_count(), s.live_count());
        assert_eq!(restored.live_count(), scan(&restored));
    }

    /// The feature-class keys of every class `qid` is filed in.
    fn classes_of(s: &QueryStorage, qid: u64) -> Vec<crate::indexreg::FeatureKey> {
        let classes = &s.indexes().structural().classes;
        classes
            .iter()
            .filter(|c| c.members.iter().any(|&q| q == qid))
            .map(|c| c.key.clone())
            .collect()
    }

    /// `qid`'s own signature as a feature-class key.
    fn key_of(s: &QueryStorage, qid: u64) -> crate::indexreg::FeatureKey {
        let sig = s.signature(QueryId(qid)).unwrap();
        crate::indexreg::FeatureKey {
            tables: sig.tables.clone(),
            attributes: sig.attributes.clone(),
            predicates: sig.predicates.clone(),
        }
    }

    #[test]
    fn feature_classes_follow_insert_delete_reindex() {
        let mut s = populated();
        // Every record is filed once, under its signature's id sets; the
        // two constant variants of one template share a class.
        for q in 0..3 {
            assert_eq!(classes_of(&s, q), [key_of(&s, q)]);
        }
        assert_eq!(s.indexes().structural().classes.len(), 2);
        // A tombstone stays filed (probes filter liveness) until a
        // rebuild drops it.
        s.delete(QueryId(2)).unwrap();
        assert_eq!(classes_of(&s, 2).len(), 1);
        s.schedule_index_rebuild();
        assert!(s.run_index_maintenance());
        assert!(classes_of(&s, 2).is_empty());
        // Flagging and repairing are query-time filtering only.
        s.set_validity(
            QueryId(0),
            Validity::Flagged {
                reason: "drift".into(),
                at: 1,
            },
        )
        .unwrap();
        assert_eq!(classes_of(&s, 0), [key_of(&s, 0)]);
        s.set_validity(
            QueryId(0),
            Validity::Repaired {
                original_sql: "x".into(),
                at: 2,
            },
        )
        .unwrap();
        assert_eq!(classes_of(&s, 0), [key_of(&s, 0)]);
        // Reindex after a rewrite (the maintenance repair path): the
        // query's rows in all five relations are replaced in place — none
        // duplicated, none left behind — so it keeps its place ahead of
        // query 1 in every relation.
        let rewritten = "SELECT salinity FROM WaterSalinity WHERE salinity > 0.2";
        let r = s.get_mut(QueryId(0)).unwrap();
        r.raw_sql = rewritten.into();
        r.derive(sqlparse::parse(rewritten).ok(), None);
        s.reindex(QueryId(0)).unwrap();
        let temp18 = "SELECT * FROM WaterTemp WHERE temp < 18";
        assert_eq!(
            feature_sql(&s, "SELECT * FROM Queries"),
            [["0", rewritten], ["1", temp18]]
        );
        assert_eq!(
            feature_sql(&s, "SELECT * FROM DataSources"),
            [["0", "watersalinity"], ["1", "watertemp"]]
        );
        assert_eq!(
            feature_sql(&s, "SELECT * FROM Attributes"),
            [
                ["0", "salinity", "watersalinity"],
                ["1", "temp", "watertemp"]
            ]
        );
        assert_eq!(
            feature_sql(&s, "SELECT * FROM Predicates"),
            [
                ["0", "salinity", "watersalinity", ">", "0.2"],
                ["1", "temp", "watertemp", "<", "18"]
            ]
        );
        assert_eq!(
            feature_sql(&s, "SELECT qid, author FROM QueryMeta"),
            [["0", "1"], ["1", "1"]]
        );
        // The class index keeps the stale filing, masked by the override
        // log, until the rebuild the reindex scheduled refiles it.
        assert!(s.indexes().overridden(0));
        assert_ne!(classes_of(&s, 0), [key_of(&s, 0)]);
        assert!(s.run_index_maintenance());
        assert!(!s.indexes().overridden(0));
        assert_eq!(classes_of(&s, 0), [key_of(&s, 0)]);
        assert_ne!(classes_of(&s, 1), [key_of(&s, 0)]);
    }

    #[test]
    fn latest_query_of_user() {
        let mut s = populated();
        assert_eq!(s.latest_of(UserId(1)).unwrap().id, QueryId(1));
        assert!(s.latest_of(UserId(9)).is_none());
        // A tombstone is still the user's latest query, and a reloaded
        // store answers the same.
        s.delete(QueryId(1)).unwrap();
        assert_eq!(s.latest_of(UserId(1)).unwrap().id, QueryId(1));
        let mut buf = Vec::new();
        s.snapshot(&mut buf).unwrap();
        let restored = QueryStorage::load(&buf[..]).unwrap();
        assert_eq!(restored.latest_of(UserId(1)).unwrap().id, QueryId(1));
        assert_eq!(restored.latest_of(UserId(2)).unwrap().id, QueryId(2));
    }

    /// Hammering insert/delete cycles must not grow the feature classes
    /// without bound: tombstones stay filed only until their share of
    /// the index crosses the rebuild threshold, and the background
    /// maintenance pass (here run once per round, as the miner epoch
    /// does) then refiles the survivors alone.
    #[test]
    fn feature_classes_shed_tombstones_at_rebuild() {
        let mut s = QueryStorage::new();
        let mut next_id = 0u64;
        // 12 rounds of: insert a batch sharing one hot feature set, then
        // delete most of it (plus some flag/repair churn).
        for round in 0..12u64 {
            let start = next_id;
            for i in 0..50u64 {
                s.insert(record(
                    next_id,
                    1,
                    round * 1000 + i,
                    "SELECT * FROM WaterTemp WHERE temp < 18",
                    round,
                ));
                next_id += 1;
            }
            for q in start..start + 45 {
                s.delete(QueryId(q)).unwrap();
            }
            s.set_validity(
                QueryId(start + 45),
                Validity::Flagged {
                    reason: "drift".into(),
                    at: round,
                },
            )
            .unwrap();
            s.set_validity(
                QueryId(start + 45),
                Validity::Repaired {
                    original_sql: "x".into(),
                    at: round,
                },
            )
            .unwrap();
            s.run_index_maintenance();
        }
        assert_eq!(s.live_count(), 12 * 5);
        let classes = &s.indexes().structural().classes;
        assert_eq!(classes.len(), 1);
        let members: Vec<u64> = classes
            .iter()
            .flat_map(|c| c.members.iter().copied())
            .collect();
        let dead = members
            .iter()
            .filter(|&&q| !s.get(QueryId(q)).unwrap().is_live())
            .count();
        assert!(
            dead as f64 <= crate::metricindex::REBUILD_DEAD_FRACTION * members.len() as f64,
            "{dead} tombstones of {} members",
            members.len()
        );
        // Every live record is filed exactly once, in ascending order.
        let live: Vec<u64> = s.iter_live().map(|r| r.id.0).collect();
        let filed: Vec<u64> = members
            .iter()
            .copied()
            .filter(|&q| s.get(QueryId(q)).unwrap().is_live())
            .collect();
        assert_eq!(filed, live);
    }

    /// The registry lifecycle: inserts are indexed at once into the one
    /// structural index, a rebuild swaps in a rebalanced generation of
    /// it, later inserts grow that same tree, reindex logs an override +
    /// schedules, and crossing the tombstone threshold schedules — probes
    /// never rebuild inline.
    #[test]
    fn index_registry_lifecycle() {
        use std::sync::atomic::Ordering;
        let mut s = populated();
        // Fresh store: generation 0, every insert already indexed.
        assert_eq!(s.index_generation(), 0);
        assert!(!s.index_rebuild_pending());
        assert_eq!(s.indexes().structural().tree.len(), 3);
        // One rebuild publishes generation 1 over the same records.
        s.schedule_index_rebuild();
        assert!(s.run_index_maintenance());
        assert_eq!(s.index_generation(), 1);
        assert_eq!(s.indexes().structural().tree.len(), 3);
        assert!(s.indexes().structural().groups.len() >= 2);
        // An insert grows the rebuilt tree — there is no second one.
        s.insert(record(3, 1, 60, "SELECT * FROM Lakes", 2));
        assert_eq!(s.indexes().structural().tree.len(), 4);
        assert_eq!(s.index_generation(), 1);
        // Flagging is query-time filtering only — no index change.
        s.set_validity(
            QueryId(0),
            Validity::Flagged {
                reason: "drift".into(),
                at: 1,
            },
        )
        .unwrap();
        assert!(!s.index_rebuild_pending());
        // Reindex: override logged + rebuild scheduled; nothing dropped.
        s.reindex(QueryId(1)).unwrap();
        assert!(s.index_rebuild_pending());
        assert!(s.indexes().overridden(1));
        assert_eq!(s.index_generation(), 1, "no inline rebuild");
        // The miner-epoch pass publishes generation 2 and retires the
        // override.
        assert!(s.run_index_maintenance());
        assert_eq!(s.index_generation(), 2);
        assert!(!s.indexes().overridden(1));
        assert_eq!(s.indexes().structural().tree.len(), 4);
        // Tombstones only *schedule* past the 25% threshold.
        s.delete(QueryId(0)).unwrap();
        assert!(!s.index_rebuild_pending()); // 1/4 ≤ threshold
        s.delete(QueryId(1)).unwrap();
        assert!(s.index_rebuild_pending()); // 2/4 > threshold
        assert_eq!(s.index_generation(), 2, "rebuild deferred to the epoch");
        assert!(s.run_index_maintenance());
        assert_eq!(s.index_generation(), 3);
        assert_eq!(s.indexes().structural().tree.len(), 2);
        assert_eq!(
            s.metric_stats().rebuilds_completed.load(Ordering::Relaxed),
            3
        );
    }

    /// A refreshed summary must flow through `refresh_summary`, which
    /// rebuilds the signature's output hashes (so the query-by-data
    /// screens stay coherent) and schedules a registry rebuild.
    #[test]
    fn refresh_summary_routes_through_reindex() {
        let mut s = populated();
        assert!(s.signature(QueryId(0)).unwrap().output_rows.is_none());
        s.refresh_summary(
            QueryId(0),
            OutputSummary::Full {
                columns: vec!["lake".into()],
                rows: vec![vec!["Lake Washington".into()]],
            },
        )
        .unwrap();
        let sig = s.signature(QueryId(0)).unwrap();
        assert!(sig.may_contain_cell("lake washington"));
        assert!(sig.summary_coherent(&s.get(QueryId(0)).unwrap().summary));
        assert!(s.index_rebuild_pending(), "refresh schedules a rebuild");
        assert!(s.indexes().overridden(0));
    }
}
