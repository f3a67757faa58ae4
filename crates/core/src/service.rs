//! The concurrent multi-user service layer.
//!
//! The paper's CQMS serves many analysts at once: the *online* components
//! (Query Profiler, Meta-query Executor — Fig. 4) answer interactive
//! requests while the Query Miner and Query Maintenance run in the
//! background. [`CqmsService`] is the façade that makes one [`Cqms`]
//! instance safely shareable across client threads with a strict
//! **read/write lock discipline**:
//!
//! * **Read path** — completion, every meta-query search mode,
//!   recommendation, correction. These call the `&self` methods of [`Cqms`]
//!   under the *read* side of an `RwLock`, so any number of clients search
//!   and complete concurrently. The only mutable state on this path lives
//!   behind interior mutability: the feature-relation engine's lazy hash
//!   indexes are published as an epoch snapshot (`Arc`-swapped, rebuilt
//!   off-lock — a contended SELECT never degrades or queues), and the rule
//!   miner's result cache takes a blocking lock but holds it just long
//!   enough to copy results in or out — the mining itself runs outside the
//!   lock.
//! * **Write path** — query ingestion, annotations, ACL changes, deletes,
//!   miner epochs, maintenance passes. These take the write side and
//!   serialise as a group, exactly like the single-user [`Cqms`].
//! * **Batched ingestion** — [`CqmsService::ingest_batch`] amortises the
//!   write lock (and the readers' wait) over a whole batch of queries
//!   instead of paying one acquisition per statement.
//! * **Background mining** — [`CqmsService::start_miner`] runs the Query
//!   Miner on its own thread; [`CqmsService::shutdown`] (or dropping the
//!   last service clone) joins it gracefully after one final epoch, so
//!   rules mined from the most recent queries stay visible.
//! * **Durability** — over a durable CQMS (built by [`Cqms::open`]) every
//!   write-path method flushes the write-ahead log before returning, and
//!   [`CqmsService::ingest_batch`] flushes **once per batch**: an `Ok`
//!   result is an acknowledgement that the query survives a crash. See
//!   [`crate::wal`] for the log format and recovery semantics.
//!
//! The service is `Clone` (cheap: two `Arc`s); hand one clone to each
//! client thread. See `tests/concurrency.rs` for the multi-writer /
//! multi-reader stress test and `benches/e10_concurrency.rs` for the read
//! scaling experiment.

use crate::admission::AdmissionGate;
use crate::assist::completion::Suggestion;
use crate::assist::correction::{Correction, RepairSuggestion};
use crate::assist::recommend::PanelRow;
use crate::error::CqmsError;
use crate::faults::{self, FaultPlan};
use crate::maintenance::{MaintenanceReport, RefreshReport};
use crate::metaquery::{ScoredHit, TreePattern};
use crate::miner::assoc::AssocRule;
use crate::model::*;
use crate::profiler::ProfiledQuery;
use crate::server::{spawn_background_miner_hooked, BackgroundMiner, Cqms, MinerReport};
use crate::similarity::DistanceKind;
use crate::snapshot::{assert_not_inside_snapshot_read, ReadSnapshot};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// One query of a batched ingest ([`CqmsService::ingest_batch`]).
#[derive(Debug, Clone)]
pub struct IngestItem {
    /// The issuing analyst.
    pub user: UserId,
    /// The SQL to run and log.
    pub sql: String,
    /// Explicit trace time; `None` ticks the internal clock (+30 s).
    pub ts: Option<u64>,
}

impl IngestItem {
    /// An item at the service's internal clock.
    pub fn new(user: UserId, sql: impl Into<String>) -> Self {
        IngestItem {
            user,
            sql: sql.into(),
            ts: None,
        }
    }

    /// An item with an explicit trace time.
    pub fn at(user: UserId, sql: impl Into<String>, ts: u64) -> Self {
        IngestItem {
            user,
            sql: sql.into(),
            ts: Some(ts),
        }
    }
}

/// A thread-safe, cloneable handle to a shared CQMS.
#[derive(Clone)]
pub struct CqmsService {
    cqms: Arc<RwLock<Cqms>>,
    /// The published [`ReadSnapshot`]: the lock-free read path's whole
    /// world. Writers replace the inner `Arc` under a *momentary* write
    /// lock; readers clone it under a momentary read lock and then run
    /// with no lock at all. (The slot lock is never held across any
    /// actual work on either side.)
    published: Arc<RwLock<Arc<ReadSnapshot>>>,
    /// Monotonic snapshot publication epoch.
    epoch: Arc<AtomicU64>,
    miner: Arc<Mutex<Option<BackgroundMiner>>>,
    admission: Arc<AdmissionGate>,
    faults: Arc<FaultPlan>,
}

impl CqmsService {
    /// Wrap a CQMS for shared multi-threaded use.
    pub fn new(cqms: Cqms) -> Self {
        Self::from_shared(Arc::new(RwLock::new(cqms)))
    }

    /// Build a service over an already-shared CQMS (e.g. one that other
    /// code also holds via
    /// [`crate::server::spawn_background_miner`]).
    pub fn from_shared(cqms: Arc<RwLock<Cqms>>) -> Self {
        let (admission, initial) = {
            let guard = cqms.read();
            (
                Arc::new(AdmissionGate::from_config(&guard.config)),
                Arc::new(guard.capture_snapshot(0)),
            )
        };
        CqmsService {
            cqms,
            published: Arc::new(RwLock::new(initial)),
            epoch: Arc::new(AtomicU64::new(0)),
            miner: Arc::new(Mutex::new(None)),
            admission,
            // Every service gets its *own* plan, so tests can fault one
            // shard without touching the others; the ambient CQMS_FAULTS
            // plan is consulted additionally on the read path (see
            // `read_guard`), keeping CI-wide chaos and per-shard
            // injection independent.
            faults: Arc::new(FaultPlan::new()),
        }
    }

    /// The shared lock itself, for callers that need custom locking scope.
    pub fn shared(&self) -> Arc<RwLock<Cqms>> {
        self.cqms.clone()
    }

    /// This service's admission gate (stats, direct bucket checks).
    pub fn admission(&self) -> &AdmissionGate {
        &self.admission
    }

    /// This service's fault plan — arm failpoints here to inject faults
    /// into this service (and only this service; the `CQMS_FAULTS`
    /// process-wide plan is separate and consulted in addition).
    pub fn fault_plan(&self) -> Arc<FaultPlan> {
        self.faults.clone()
    }

    /// Take the read lock, first evaluating the `shard.read` failpoint on
    /// the ambient (`CQMS_FAULTS`) plan and this service's own plan (a
    /// delay here simulates a slow/overloaded shard for deadline tests;
    /// other actions are meaningless for reads and ignored). Only the
    /// engine-bound reads still come through here — everything else is
    /// served off the published [`ReadSnapshot`].
    fn read_guard(&self) -> RwLockReadGuard<'_, Cqms> {
        assert_not_inside_snapshot_read("CqmsService::read_guard");
        let _ = faults::global_plan().hit(faults::SHARD_READ);
        let _ = self.faults.hit(faults::SHARD_READ);
        self.cqms.read()
    }

    /// Take the write lock (debug builds prove no snapshot read path
    /// sneaks through here).
    fn write_guard(&self) -> RwLockWriteGuard<'_, Cqms> {
        assert_not_inside_snapshot_read("CqmsService::write_guard");
        self.cqms.write()
    }

    /// Capture + publish a fresh snapshot from the (locked) instance.
    /// Callers hold the CQMS write lock (or, for [`Self::republish`], the
    /// read lock), so epochs are allocated in lock order; the slot guard
    /// below makes out-of-order slot writes harmless anyway.
    fn publish(&self, cqms: &Cqms) {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = Arc::new(cqms.capture_snapshot(epoch));
        let mut slot = self.published.write();
        if snap.epoch() >= slot.epoch() {
            *slot = snap;
        }
    }

    // ------------------------------------------------------------------
    // Read path (lock-free: one Arc clone under a momentary slot lock)
    // ------------------------------------------------------------------

    /// The currently published read snapshot: **one `Arc` clone under a
    /// momentary lock**, then the caller runs entirely lock-free —
    /// unblocked by writers, miner epochs, index rebuilds and repair
    /// promotions, all of which publish new snapshots without touching
    /// outstanding ones. The `shard.read` failpoints are consulted here,
    /// so deadline/fault tests exercise this path like any other read.
    pub fn snapshot(&self) -> Arc<ReadSnapshot> {
        let _ = faults::global_plan().hit(faults::SHARD_READ);
        let _ = self.faults.hit(faults::SHARD_READ);
        Arc::clone(&self.published.read())
    }

    /// Re-capture and publish the snapshot from the live instance. Only
    /// needed after mutating through [`CqmsService::shared`] directly —
    /// every service-level write (and the hooked background miner)
    /// already publishes.
    pub fn republish(&self) {
        let guard = self.cqms.read();
        self.publish(&guard);
    }

    /// Run `f` under the read lock (escape hatch for compound reads that
    /// must see the *live* instance — e.g. engine-bound reads; snapshot
    /// readers use [`CqmsService::snapshot`] instead).
    pub fn read<R>(&self, f: impl FnOnce(&Cqms) -> R) -> R {
        f(&self.read_guard())
    }

    /// Completions for partial SQL (Fig. 3 dropdown).
    pub fn complete(&self, user: UserId, partial_sql: &str, k: usize) -> Vec<Suggestion> {
        self.snapshot().complete(user, partial_sql, k)
    }

    /// TF-IDF keyword search over logged query text.
    pub fn search_keyword(&self, user: UserId, query: &str, k: usize) -> Vec<ScoredHit> {
        self.snapshot().search_keyword(user, query, k)
    }

    /// Exact substring search over logged query text.
    pub fn search_substring(&self, user: UserId, needle: &str) -> Vec<QueryId> {
        self.snapshot().search_substring(user, needle)
    }

    /// SQL meta-query over the Figure 1 feature relations (engine-bound:
    /// runs on the live instance under the read lock).
    pub fn search_feature_sql(
        &self,
        user: UserId,
        sql: &str,
    ) -> Result<relstore::QueryResult, CqmsError> {
        self.read_guard().search_feature_sql(user, sql)
    }

    /// Structural search by parse-tree pattern.
    pub fn search_parse_tree(&self, user: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.snapshot().search_parse_tree(user, pattern)
    }

    /// Query-by-data: find queries whose output did/didn't contain
    /// values. The summary-only variant runs lock-free off the snapshot;
    /// `reexecute` needs the live data engine and stays on the lock.
    pub fn search_by_data(
        &self,
        user: UserId,
        include: &[&str],
        exclude: &[&str],
        reexecute: bool,
    ) -> Vec<QueryId> {
        if reexecute {
            self.read_guard()
                .search_by_data(user, include, exclude, true)
        } else {
            self.snapshot().search_by_data(user, include, exclude)
        }
    }

    /// kNN similarity search around ad-hoc SQL.
    pub fn similar_queries(
        &self,
        user: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
    ) -> Result<Vec<ScoredHit>, CqmsError> {
        self.snapshot().similar_queries(user, sql, k, metric)
    }

    /// The Fig. 3 recommendation panel for a seed query.
    pub fn recommend(
        &self,
        user: UserId,
        seed_sql: &str,
        k: usize,
    ) -> Result<Vec<PanelRow>, CqmsError> {
        self.snapshot().recommend(user, seed_sql, k)
    }

    /// Misspelled table/column detection with suggested fixes
    /// (engine-bound: needs the live catalog).
    pub fn check_identifiers(&self, sql: &str) -> Vec<Correction> {
        self.read_guard().check_identifiers(sql)
    }

    /// Predicate relaxations for a query that returned nothing
    /// (engine-bound: re-executes relaxations on the live data).
    pub fn repair_empty_result(&self, sql: &str, k: usize) -> Vec<RepairSuggestion> {
        self.read_guard().repair_empty_result(sql, k)
    }

    /// Number of live (visible, usable) logged queries.
    pub fn live_count(&self) -> usize {
        self.snapshot().live_count()
    }

    /// The published structural-index generation number.
    pub fn index_generation(&self) -> u64 {
        self.snapshot().index_generation()
    }

    /// Current trace time.
    pub fn now(&self) -> u64 {
        self.snapshot().now()
    }

    /// The latest mined association rules (cloned out of the snapshot).
    pub fn association_rules(&self) -> Vec<AssocRule> {
        self.snapshot().association_rules().to_vec()
    }

    // ------------------------------------------------------------------
    // Write path (write lock)
    // ------------------------------------------------------------------

    /// Run `f` under the write lock (escape hatch for compound writes).
    /// A fresh snapshot is published before the lock is released.
    pub fn write<R>(&self, f: impl FnOnce(&mut Cqms) -> R) -> R {
        let mut guard = self.write_guard();
        let out = f(&mut guard);
        self.publish(&guard);
        out
    }

    /// Atomically swap the shared CQMS instance for `cqms`, returning the
    /// one it replaced — the repair supervisor's promotion hook: a
    /// repaired shard's recovered instance takes the place of the empty
    /// degraded placeholder, and every clone of this service (including a
    /// running background miner) sees the new instance at its next lock.
    ///
    /// The write lock is taken with a bounded retry (the same grace
    /// budget as a miner epoch) so a stuck reader can delay but never
    /// deadlock the supervisor; on timeout `cqms` is handed back in
    /// `Err` for a later attempt.
    ///
    /// The outgoing instance's [`admin::Directory`](crate::admin::Directory)
    /// is carried over into `cqms` under the same lock: directory state is
    /// deployment-level (broadcast to every shard, never WAL-logged), so the
    /// fenced placeholder — which kept receiving admin broadcasts while the
    /// shard was degraded — holds the authoritative copy, not the recovered
    /// instance rebuilt from the log.
    // The Err variant hands the whole instance back by design — the
    // supervisor retries with it on a later epoch instead of dropping
    // the recovered state on the floor.
    #[allow(clippy::result_large_err)]
    pub fn try_replace(&self, cqms: Cqms) -> Result<Cqms, Cqms> {
        assert_not_inside_snapshot_read("CqmsService::try_replace");
        const REPLACE_ATTEMPTS: usize = 500;
        let mut incoming = cqms;
        for _ in 0..REPLACE_ATTEMPTS {
            if let Some(mut guard) = self.cqms.try_write() {
                incoming.directory = std::mem::take(&mut guard.directory);
                let outgoing = std::mem::replace(&mut *guard, incoming);
                // One atomic epoch bump covering the whole promotion:
                // the placeholder's snapshot is invalidated and the
                // recovered instance's published in a single slot swap,
                // so no reader can ever pair the promoted shard's
                // indexes with the placeholder's popularity tables (or
                // vice versa). Readers pinned to the old snapshot keep a
                // fully coherent placeholder view until they re-clone.
                self.publish(&guard);
                return Ok(outgoing);
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Err(incoming)
    }

    /// Run + profile one query (WAL flushed before returning).
    ///
    /// Gated by admission control: when the shard already has
    /// `ingest_queue_depth` writers admitted, or the user's token bucket
    /// is drained, this fails fast with [`CqmsError::Overloaded`] instead
    /// of queueing on the write lock.
    pub fn run_query(&self, user: UserId, sql: &str) -> Result<ProfiledQuery, CqmsError> {
        let _permit = self.admission.admit_user(user)?;
        let mut guard = self.write_guard();
        let out = guard.run_query(user, sql);
        let flushed = guard.wal_flush();
        // Publish even when profiling failed: failed attempts still tick
        // the trace clock, and snapshot `now()` must track it.
        self.publish(&guard);
        drop(guard);
        let out = out?;
        flushed?;
        Ok(out)
    }

    /// [`CqmsService::run_query`] at an explicit trace time (same
    /// admission gating).
    pub fn run_query_at(
        &self,
        user: UserId,
        sql: &str,
        ts: u64,
    ) -> Result<ProfiledQuery, CqmsError> {
        let _permit = self.admission.admit_user(user)?;
        let mut guard = self.write_guard();
        let out = guard.run_query_at(user, sql, ts);
        let flushed = guard.wal_flush();
        self.publish(&guard);
        drop(guard);
        let out = out?;
        flushed?;
        Ok(out)
    }

    /// Ingest a batch of queries under **one** write-lock acquisition.
    ///
    /// With many writers, per-statement locking makes readers requeue
    /// behind every single statement; batching bounds that to once per
    /// batch. Items run in order; a failure is recorded in its slot and
    /// does not abort the rest of the batch.
    ///
    /// On a durable CQMS ([`Cqms::open`]) the WAL is flushed **once per
    /// batch**, before the results are returned — an `Ok` slot is an
    /// acknowledgement that the query survives a crash. If that flush
    /// fails, every would-be-acknowledged slot is converted to the flush
    /// error instead (nothing is acknowledged that is not durable).
    ///
    /// **Partial-failure semantics under admission control**: each item is
    /// charged against its user's token bucket *before* the lock is
    /// taken; a rate-shed item gets [`CqmsError::Overloaded`] in its slot,
    /// is never executed, and therefore never acknowledges durability —
    /// while admitted items in the same batch still run and flush
    /// normally. The whole batch holds **one** depth-gate slot; if the
    /// gate itself is at capacity every slot is `Overloaded` and nothing
    /// runs.
    pub fn ingest_batch(&self, items: &[IngestItem]) -> Vec<Result<QueryId, CqmsError>> {
        // An empty batch has nothing to make durable: don't contend on the
        // write lock or pay a WAL flush for it.
        if items.is_empty() {
            return Vec::new();
        }
        // Per-item rate-limit charge, outside the lock: one user's drained
        // bucket sheds that user's items only.
        let mut results: Vec<Result<QueryId, CqmsError>> = items
            .iter()
            .map(|item| self.admission.check_user(item.user).map(|()| QueryId(0)))
            .collect();
        if results.iter().all(|r| r.is_err()) {
            return results;
        }
        // One in-flight slot for the whole batch (batching is the unit of
        // lock amortisation, so it is also the unit of depth accounting).
        let permit = match self.admission.admit() {
            Ok(p) => p,
            Err(e) => return items.iter().map(|_| Err(e.clone())).collect(),
        };
        let mut guard = self.write_guard();
        for (slot, item) in results.iter_mut().zip(items) {
            if slot.is_err() {
                continue; // rate-shed: never executed, never acknowledged
            }
            *slot = match item.ts {
                Some(ts) => guard.run_query_at(item.user, &item.sql, ts),
                None => guard.run_query(item.user, &item.sql),
            }
            .map(|p| p.id);
        }
        let flushed = guard.wal_flush();
        // One publication per batch: batching is the unit of lock
        // amortisation, so it is also the unit of snapshot capture.
        self.publish(&guard);
        drop(guard);
        drop(permit);
        match flushed {
            Ok(()) => results,
            // Only would-be-acknowledged slots become the flush error;
            // already-failed slots (parse errors, shed items) keep theirs.
            Err(e) => results.into_iter().map(|r| r.and(Err(e.clone()))).collect(),
        }
    }

    /// Register (or look up) a user by name.
    pub fn register_user(&self, name: &str) -> UserId {
        let mut guard = self.write_guard();
        let id = guard.register_user(name);
        self.publish(&guard);
        id
    }

    /// Create a collaboration group.
    pub fn create_group(&self, name: &str) -> GroupId {
        let mut guard = self.write_guard();
        let id = guard.create_group(name);
        self.publish(&guard);
        id
    }

    /// Add a user to a group.
    pub fn join_group(&self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        let mut guard = self.write_guard();
        let out = guard.join_group(user, group);
        self.publish(&guard);
        out
    }

    /// Attach an annotation (durably acknowledged).
    pub fn annotate(
        &self,
        actor: UserId,
        id: QueryId,
        text: &str,
        fragment: Option<&str>,
    ) -> Result<(), CqmsError> {
        let mut guard = self.write_guard();
        guard.annotate(actor, id, text, fragment)?;
        let flushed = guard.wal_flush();
        self.publish(&guard);
        flushed
    }

    /// Change a query's ACL (durably acknowledged).
    pub fn set_visibility(
        &self,
        actor: UserId,
        id: QueryId,
        visibility: Visibility,
    ) -> Result<(), CqmsError> {
        let mut guard = self.write_guard();
        guard.set_visibility(actor, id, visibility)?;
        let flushed = guard.wal_flush();
        self.publish(&guard);
        flushed
    }

    /// Tombstone a query (durably acknowledged).
    pub fn delete_query(&self, actor: UserId, id: QueryId) -> Result<(), CqmsError> {
        let mut guard = self.write_guard();
        guard.delete_query(actor, id)?;
        let flushed = guard.wal_flush();
        self.publish(&guard);
        flushed
    }

    /// Run one synchronous miner epoch on the caller's thread. A failure
    /// of the closing WAL flush is surfaced in
    /// [`MinerReport::wal_flush_error`] rather than swallowed: the epoch
    /// mostly derives state, but refined sessions are re-logged and a due
    /// snapshot rotates the log, so the caller must be able to see that
    /// those did not reach disk. Transient flush faults are retried with
    /// capped exponential backoff first; recovered retries are counted in
    /// [`MinerReport::wal_flush_retries`].
    pub fn run_miner_epoch(&self) -> MinerReport {
        let mut guard = self.write_guard();
        let mut report = guard.run_miner_epoch();
        let (flushed, retries) = crate::wal::retry_write(|| guard.wal_flush());
        report.wal_flush_retries = retries;
        if let Err(e) = flushed {
            report.wal_flush_error = Some(e);
        }
        self.publish(&guard);
        report
    }

    /// Run one Query Maintenance pass (validity sweep + stats refresh).
    pub fn run_maintenance(&self) -> Result<(MaintenanceReport, RefreshReport), CqmsError> {
        self.run_maintenance_with_basis(None)
    }

    /// [`CqmsService::run_maintenance`] with an externally supplied
    /// latency basis for the quality pass (sharded deployments pass the
    /// merged global basis; `None` uses this store's own).
    pub fn run_maintenance_with_basis(
        &self,
        basis: Option<&[u64]>,
    ) -> Result<(MaintenanceReport, RefreshReport), CqmsError> {
        let mut guard = self.write_guard();
        let out = guard.run_maintenance_with_basis(basis);
        let flushed = guard.wal_flush();
        self.publish(&guard);
        drop(guard);
        let out = out?;
        flushed?;
        Ok(out)
    }

    /// Execute a scheduled index rebuild, double-buffered: the snapshot
    /// is collected under a *momentary* read lock (per-record `Arc`
    /// clones only), the O(n log n) build of generation N+1 then runs
    /// with **no lock held** — concurrent searches *and* writers proceed
    /// against generation N the whole time — and the write lock is taken
    /// only for the delta replay of whatever landed mid-build plus the
    /// single atomic swap. Returns `false` when no rebuild was
    /// scheduled. (The background miner does the same dance on its own
    /// thread; this entry point is for explicit maintenance and the
    /// rebuild-race benches/tests.)
    pub fn rebuild_indexes(&self) -> bool {
        let snapshot = {
            let guard = self.read_guard();
            if !guard.storage.index_rebuild_pending() {
                return false;
            }
            guard.storage.collect_index_rebuild()
        };
        let build = snapshot.build(); // off-lock
        let mut guard = self.write_guard();
        let swapped = guard.storage.publish_index_rebuild(build);
        // One epoch bump covering the generation swap: a reader either
        // keeps the whole pre-rebuild snapshot or clones the whole
        // post-rebuild one — never generation N+1 indexes with
        // generation N popularity/session state.
        self.publish(&guard);
        swapped
    }

    // ------------------------------------------------------------------
    // Background miner lifecycle
    // ------------------------------------------------------------------

    /// Start the background Query Miner (one epoch every `interval`).
    /// Returns `false` when a miner is already running.
    pub fn start_miner(&self, interval: Duration) -> bool {
        let mut slot = self.miner.lock();
        if slot.is_some() {
            return false;
        }
        let published = Arc::clone(&self.published);
        let epoch = Arc::clone(&self.epoch);
        let publisher: crate::server::SnapshotPublisher = Arc::new(move |cqms: &Cqms| {
            // Same discipline as `CqmsService::publish`: invoked while the
            // miner thread still holds the write guard, so epochs are
            // lock-ordered and the guard below is a formality.
            let e = epoch.fetch_add(1, Ordering::Relaxed) + 1;
            let snap = Arc::new(cqms.capture_snapshot(e));
            let mut slot = published.write();
            if snap.epoch() >= slot.epoch() {
                *slot = snap;
            }
        });
        *slot = Some(spawn_background_miner_hooked(
            self.cqms.clone(),
            interval,
            self.faults.clone(),
            Some(publisher),
        ));
        true
    }

    /// Is a background miner currently attached?
    pub fn miner_running(&self) -> bool {
        self.miner.lock().is_some()
    }

    /// Stop the background miner, if any: it runs one final epoch, the
    /// thread is joined, and the epoch count is returned.
    pub fn stop_miner(&self) -> Option<usize> {
        let handle = self.miner.lock().take();
        handle.map(BackgroundMiner::stop)
    }

    /// Graceful shutdown: stop the background miner (final epoch included).
    /// Idempotent — later calls (and other clones' drops) are no-ops.
    pub fn shutdown(&self) -> Option<usize> {
        self.stop_miner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CqmsConfig;
    use relstore::Engine;
    use workload::Domain;

    fn service() -> (CqmsService, UserId) {
        let mut engine = Engine::new();
        Domain::Lakes.setup(&mut engine, 60, 3);
        let svc = CqmsService::new(Cqms::new(engine, CqmsConfig::default()));
        let user = svc.register_user("alice");
        (svc, user)
    }

    #[test]
    fn reads_and_writes_through_the_service() {
        let (svc, user) = service();
        let id = svc
            .run_query(user, "SELECT lake, temp FROM WaterTemp WHERE temp < 18")
            .unwrap()
            .id;
        assert_eq!(svc.live_count(), 1);
        assert_eq!(svc.search_keyword(user, "temp", 5).len(), 1);
        assert_eq!(svc.search_substring(user, "temp < 18"), vec![id]);
        assert!(!svc.complete(user, "SELECT * FROM ", 5).is_empty());
        svc.annotate(user, id, "cold lakes", None).unwrap();
        svc.delete_query(user, id).unwrap();
        assert_eq!(svc.live_count(), 0);
    }

    #[test]
    fn batched_ingestion_takes_one_lock_and_reports_per_item() {
        let (svc, user) = service();
        let batch = vec![
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 18", 100),
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 20", 130),
            IngestItem::new(user, "SELECT salinity FROM WaterSalinity"),
        ];
        let ids = svc.ingest_batch(&batch);
        assert_eq!(ids.len(), 3);
        assert!(ids.iter().all(|r| r.is_ok()));
        assert_eq!(svc.live_count(), 3);
        // The clock-ticking item advanced past the explicit timestamps.
        assert_eq!(svc.now(), 160);
    }

    #[test]
    fn empty_batch_takes_no_lock_and_flushes_nothing() {
        let (svc, _user) = service();
        let shared = svc.shared();
        let _guard = shared.write();
        // Would deadlock here if the empty batch still acquired the write
        // lock (same thread already holds it).
        assert!(svc.ingest_batch(&[]).is_empty());
    }

    #[test]
    fn out_of_order_explicit_timestamps_never_regress_the_clock() {
        let (svc, user) = service();
        // A ticking item advances to 30; explicit timestamps then arrive
        // out of order and must never rewind `now()`.
        svc.run_query(user, "SELECT * FROM WaterTemp").unwrap();
        assert_eq!(svc.now(), 30);
        svc.run_query_at(user, "SELECT * FROM WaterTemp WHERE temp < 5", 500)
            .unwrap();
        svc.run_query_at(user, "SELECT * FROM WaterTemp WHERE temp < 6", 100)
            .unwrap();
        assert_eq!(svc.now(), 500, "stale explicit timestamp rewound now()");
        // A ticking item continues from the high-water mark.
        svc.run_query(user, "SELECT salinity FROM WaterSalinity")
            .unwrap();
        assert_eq!(svc.now(), 530);
        // The batched variant of the same interleaving (the `now() == 160`
        // case of `batched_ingestion_...`, scrambled out of order).
        let batch = vec![
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 20", 700),
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 18", 600),
            IngestItem::new(user, "SELECT lake FROM WaterTemp"),
        ];
        assert!(svc.ingest_batch(&batch).iter().all(|r| r.is_ok()));
        assert_eq!(svc.now(), 730, "tick must ride the monotonic maximum");
    }

    #[test]
    fn concurrent_readers_share_one_clone_each() {
        let (svc, user) = service();
        for i in 0..6 {
            svc.run_query(user, &format!("SELECT * FROM WaterTemp WHERE temp < {i}"))
                .unwrap();
        }
        std::thread::scope(|s| {
            for _ in 0..4 {
                let svc = svc.clone();
                s.spawn(move || {
                    for _ in 0..25 {
                        assert!(!svc
                            .complete(user, "SELECT * FROM WaterTemp WHERE ", 5)
                            .is_empty());
                        assert!(svc.search_keyword(user, "watertemp", 5).len() <= 5);
                    }
                });
            }
        });
        assert_eq!(svc.live_count(), 6);
    }

    #[test]
    fn miner_lifecycle_is_idempotent() {
        let (svc, user) = service();
        for i in 0..6 {
            svc.run_query(
                user,
                &format!("SELECT * FROM WaterSalinity S, WaterTemp T WHERE S.loc_x = T.loc_x AND T.temp < {i}"),
            )
            .unwrap();
        }
        // Interval far beyond the test's lifetime: the only epoch that can
        // run is the final shutdown epoch.
        assert!(svc.start_miner(Duration::from_secs(3600)));
        assert!(!svc.start_miner(Duration::from_secs(3600)));
        assert!(svc.miner_running());
        let epochs = svc.shutdown().expect("miner was running");
        assert_eq!(epochs, 1, "exactly the final shutdown epoch");
        assert!(!svc.miner_running());
        assert!(svc.shutdown().is_none(), "second shutdown is a no-op");
        // The final epoch's results are visible after shutdown.
        assert!(!svc.association_rules().is_empty());
    }
}
