//! The per-shard service cell: one [`Cqms`] made safely shareable.
//!
//! The paper's CQMS serves many analysts at once: the *online* components
//! (Query Profiler, Meta-query Executor — Fig. 4) answer interactive
//! requests while the Query Miner and Query Maintenance run in the
//! background. [`CqmsService`] wraps one [`Cqms`] instance — one shard of a
//! [`crate::shard::ShardedCqms`] — in an `RwLock` and a published
//! [`ReadSnapshot`] slot:
//!
//! * **Reads** — [`CqmsService::snapshot`] hands out the published
//!   snapshot (one `Arc` clone under a momentary slot lock) and every
//!   snapshot-servable read is a method on *that*; the service re-declares
//!   none of them. The only reads defined here are the three data-tier
//!   ones (`check_identifiers`, `repair_empty_result`,
//!   `search_by_data_reexecuting`, plus the [`CqmsService::read`] escape
//!   hatch): they need the live data engine and run under the *read* side
//!   of the lock.
//! * **Writes** — query ingestion, annotations, ACL changes, deletes,
//!   miner epochs, maintenance passes. These take the write side,
//!   serialise as a group exactly like the single-user [`Cqms`], and
//!   publish a fresh snapshot before releasing the lock.
//! * **Batched ingestion** — [`CqmsService::ingest_batch`] amortises the
//!   write lock, the WAL flush and the snapshot publication over a whole
//!   batch of queries instead of paying them per statement.
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
//! The service is `Clone` (cheap: a handful of `Arc`s); hand one clone to
//! each client thread. See `tests/concurrency.rs` for the multi-writer /
//! multi-reader stress test and `benches/e10_concurrency.rs` for the read
//! scaling experiment.

use crate::admission::AdmissionGate;
use crate::assist::correction::{Correction, RepairSuggestion};
use crate::error::CqmsError;
use crate::faults::{self, FaultPlan};
use crate::maintenance::{MaintenanceReport, RefreshReport};
use crate::model::*;
use crate::profiler::ProfiledQuery;
use crate::server::{
    build_scheduled_rebuild, spawn_background_miner, try_write_within, BackgroundMiner, Cqms,
    MinerReport, MINER_GRACE_ATTEMPTS,
};
use crate::snapshot::ReadSnapshot;
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

/// The published [`ReadSnapshot`] slot and its epoch counter — the read
/// path's whole world. Writers replace the inner `Arc` under a *momentary*
/// write lock; readers clone it under a momentary read lock and then run
/// with no lock at all. (The slot lock is never held across any actual
/// work on either side.)
#[derive(Clone)]
struct Published {
    slot: Arc<RwLock<Arc<ReadSnapshot>>>,
    /// Monotonic snapshot publication epoch.
    epoch: Arc<AtomicU64>,
}

impl Published {
    /// Capture + publish a fresh snapshot of `cqms`. Callers hold the CQMS
    /// write lock, so epochs are allocated in lock order; the epoch
    /// comparison below makes out-of-order slot writes harmless anyway.
    ///
    /// Returns the snapshot that lost its place (the one displaced, or the
    /// new one if it arrived stale). Dropping it may free every node and
    /// chunk the writer has copied since it was captured, so callers on
    /// the client path do that after releasing their locks.
    #[must_use = "drop the displaced snapshot outside the locks"]
    fn publish(&self, cqms: &Cqms) -> Arc<ReadSnapshot> {
        let epoch = self.epoch.fetch_add(1, Ordering::Relaxed) + 1;
        let snap = Arc::new(cqms.capture_snapshot(epoch));
        let mut slot = self.slot.write();
        if snap.epoch() >= slot.epoch() {
            std::mem::replace(&mut *slot, snap)
        } else {
            snap
        }
    }
}

/// A thread-safe, cloneable handle to a shared CQMS.
#[derive(Clone)]
pub struct CqmsService {
    cqms: Arc<RwLock<Cqms>>,
    published: Published,
    miner: Arc<Mutex<Option<BackgroundMiner>>>,
    admission: Arc<AdmissionGate>,
    faults: Arc<FaultPlan>,
}

impl CqmsService {
    /// Wrap a CQMS for shared multi-threaded use.
    pub fn new(cqms: Cqms) -> Self {
        let admission = Arc::new(AdmissionGate::from_config(&cqms.config));
        let initial = Arc::new(cqms.capture_snapshot(0));
        CqmsService {
            cqms: Arc::new(RwLock::new(cqms)),
            published: Published {
                slot: Arc::new(RwLock::new(initial)),
                epoch: Arc::new(AtomicU64::new(0)),
            },
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
    /// Mutating through it skips snapshot publication — writes belong in
    /// [`CqmsService::write`].
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
    /// data-tier reads come through here — everything else is served
    /// off the published [`ReadSnapshot`].
    fn read_guard(&self) -> RwLockReadGuard<'_, Cqms> {
        let _ = faults::global_plan().hit(faults::SHARD_READ);
        let _ = self.faults.hit(faults::SHARD_READ);
        self.cqms.read()
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// The currently published read snapshot: **one `Arc` clone under a
    /// momentary lock**, then the caller runs entirely lock-free —
    /// unblocked by writers, miner epochs, index rebuilds and repair
    /// promotions, all of which publish new snapshots without touching
    /// outstanding ones. Every snapshot-servable read is a method on the
    /// returned [`ReadSnapshot`]. The `shard.read` failpoints are
    /// consulted here, so deadline/fault tests exercise this path like
    /// any other read.
    pub fn snapshot(&self) -> Arc<ReadSnapshot> {
        let _ = faults::global_plan().hit(faults::SHARD_READ);
        let _ = self.faults.hit(faults::SHARD_READ);
        Arc::clone(&self.published.slot.read())
    }

    /// Run `f` under the read lock (escape hatch for compound reads that
    /// must see the *live* instance — e.g. data-tier reads; snapshot
    /// readers use [`CqmsService::snapshot`] instead).
    pub fn read<R>(&self, f: impl FnOnce(&Cqms) -> R) -> R {
        f(&self.read_guard())
    }

    /// [`ReadSnapshot::search_feature_sql`] on the published snapshot.
    pub fn search_feature_sql(
        &self,
        user: UserId,
        sql: &str,
    ) -> Result<relstore::QueryResult, CqmsError> {
        self.snapshot().search_feature_sql(user, sql)
    }

    /// Query-by-data with re-execution of sampled candidates
    /// (data-tier: needs the live data engine). The summary-only
    /// variant is [`ReadSnapshot::search_by_data`].
    pub fn search_by_data_reexecuting(
        &self,
        user: UserId,
        include: &[&str],
        exclude: &[&str],
    ) -> Vec<QueryId> {
        self.read_guard()
            .search_by_data_reexecuting(user, include, exclude)
    }

    /// Misspelled table/column detection with suggested fixes
    /// (data-tier: needs the live catalog).
    pub fn check_identifiers(&self, sql: &str) -> Vec<Correction> {
        self.read_guard().check_identifiers(sql)
    }

    /// Predicate relaxations for a query that returned nothing
    /// (data-tier: re-executes relaxations on the live data).
    pub fn repair_empty_result(&self, sql: &str, k: usize) -> Vec<RepairSuggestion> {
        self.read_guard().repair_empty_result(sql, k)
    }

    // ------------------------------------------------------------------
    // Write path (write lock)
    // ------------------------------------------------------------------

    /// Run `f` under the write lock (escape hatch for compound writes).
    /// A fresh snapshot is published before the lock is released.
    pub fn write<R>(&self, f: impl FnOnce(&mut Cqms) -> R) -> R {
        self.commit(self.cqms.write(), f, |_| ()).0
    }

    /// The one publish site of the client path: run `f` under the write
    /// lock the caller took, then `flush` (the durability point — what it
    /// returns is handed back untouched), publish a fresh snapshot, release
    /// the lock, and only then drop the snapshot that was displaced.
    fn commit<R, F>(
        &self,
        mut guard: RwLockWriteGuard<'_, Cqms>,
        f: impl FnOnce(&mut Cqms) -> R,
        flush: impl FnOnce(&mut Cqms) -> F,
    ) -> (R, F) {
        let out = f(&mut guard);
        let flushed = flush(&mut guard);
        let displaced = self.published.publish(&guard);
        drop(guard);
        drop(displaced);
        (out, flushed)
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
    pub fn try_replace(&self, mut cqms: Cqms) -> Result<Cqms, Cqms> {
        let Some(guard) = try_write_within(&self.cqms, MINER_GRACE_ATTEMPTS) else {
            return Err(cqms);
        };
        // One atomic epoch bump covering the whole promotion: the
        // placeholder's snapshot is invalidated and the recovered
        // instance's published in a single slot swap, so no reader can ever
        // pair the promoted shard's indexes with the placeholder's
        // popularity tables (or vice versa). Readers pinned to the old
        // snapshot keep a fully coherent placeholder view until they
        // re-clone.
        let swap = |live: &mut Cqms| {
            cqms.directory = std::mem::take(&mut live.directory);
            std::mem::replace(live, cqms)
        };
        Ok(self.commit(guard, swap, |_| ()).0)
    }

    /// Run + profile one query (WAL flushed before returning).
    ///
    /// Gated by admission control: when the shard already has
    /// `ingest_queue_depth` writers admitted, or the user's token bucket
    /// is drained, this fails fast with [`CqmsError::Overloaded`] instead
    /// of queueing on the write lock.
    pub fn run_query(&self, user: UserId, sql: &str) -> Result<ProfiledQuery, CqmsError> {
        let _permit = self.admission.admit_user(user)?;
        self.acked_write(|c| c.run_query(user, sql))
    }

    /// One durably acknowledged write: run `f` under the write lock, flush
    /// the WAL and publish — also when `f` failed (a failed profiling
    /// attempt still ticks the trace clock, and snapshot `now()` must track
    /// it) — then report `f`'s error ahead of the flush's.
    fn acked_write<R>(
        &self,
        f: impl FnOnce(&mut Cqms) -> Result<R, CqmsError>,
    ) -> Result<R, CqmsError> {
        let (out, flushed) = self.commit(self.cqms.write(), f, Cqms::wal_flush);
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
        self.acked_write(|c| c.run_query_at(user, sql, ts))
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
        // One publication per batch: batching is the unit of lock
        // amortisation, so it is also the unit of snapshot capture.
        let run_all = |cqms: &mut Cqms| {
            for (slot, item) in results.iter_mut().zip(items) {
                if slot.is_err() {
                    continue; // rate-shed: never executed, never acknowledged
                }
                *slot = match item.ts {
                    Some(ts) => cqms.run_query_at(item.user, &item.sql, ts),
                    None => cqms.run_query(item.user, &item.sql),
                }
                .map(|p| p.id);
            }
        };
        let ((), flushed) = self.commit(self.cqms.write(), run_all, Cqms::wal_flush);
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
        self.write(|c| c.register_user(name))
    }

    /// Create a collaboration group.
    pub fn create_group(&self, name: &str) -> GroupId {
        self.write(|c| c.create_group(name))
    }

    /// Add a user to a group.
    pub fn join_group(&self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        self.write(|c| c.join_group(user, group))
    }

    /// Attach an annotation (durably acknowledged).
    pub fn annotate(
        &self,
        actor: UserId,
        id: QueryId,
        text: &str,
        fragment: Option<&str>,
    ) -> Result<(), CqmsError> {
        self.acked_write(|c| c.annotate(actor, id, text, fragment))
    }

    /// Change a query's ACL (durably acknowledged).
    pub fn set_visibility(
        &self,
        actor: UserId,
        id: QueryId,
        visibility: Visibility,
    ) -> Result<(), CqmsError> {
        self.acked_write(|c| c.set_visibility(actor, id, visibility))
    }

    /// Tombstone a query (durably acknowledged).
    pub fn delete_query(&self, actor: UserId, id: QueryId) -> Result<(), CqmsError> {
        self.acked_write(|c| c.delete_query(actor, id))
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
        let (mut report, (flushed, retries)) =
            self.commit(self.cqms.write(), Cqms::run_miner_epoch, |c| {
                crate::wal::retry_write(|| c.wal_flush())
            });
        report.wal_flush_retries = retries;
        report.wal_flush_error = flushed.err();
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
        self.acked_write(|c| c.run_maintenance_with_basis(basis))
    }

    /// Execute a scheduled index rebuild, double-buffered
    /// (`server::build_scheduled_rebuild`: pinned under a *momentary* read
    /// lock, built with **no lock held**); the write lock is taken only
    /// for the delta replay of whatever landed mid-build plus the single
    /// swap. Returns `false` when no rebuild was scheduled. (The
    /// background miner runs the same routine on its own thread; this
    /// entry point is for explicit maintenance and the rebuild-race
    /// benches/tests.)
    pub fn rebuild_indexes(&self) -> bool {
        let Some(build) = build_scheduled_rebuild(Some(self.read_guard())) else {
            return false;
        };
        // One epoch bump covering the generation swap: a reader either
        // keeps the whole pre-rebuild snapshot or clones the whole
        // post-rebuild one — never generation N+1 indexes with
        // generation N popularity/session state.
        let swap = |c: &mut Cqms| c.storage.publish_index_rebuild(build);
        self.commit(self.cqms.write(), swap, |_| ()).0
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
        // Invoked while the miner thread still holds the write guard. It
        // is off the client path, so the displaced snapshot just drops
        // there.
        let published = self.published.clone();
        *slot = Some(spawn_background_miner(
            self.cqms.clone(),
            interval,
            self.faults.clone(),
            Some(Arc::new(move |cqms: &Cqms| drop(published.publish(cqms)))),
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
        let snap = svc.snapshot();
        assert_eq!(snap.live_count(), 1);
        assert_eq!(snap.search_keyword(user, "temp", 5).len(), 1);
        assert_eq!(snap.search_substring(user, "temp < 18"), vec![id]);
        assert!(!snap.complete(user, "SELECT * FROM ", 5).is_empty());
        svc.annotate(user, id, "cold lakes", None).unwrap();
        svc.delete_query(user, id).unwrap();
        assert_eq!(svc.snapshot().live_count(), 0);
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
        assert_eq!(svc.snapshot().live_count(), 3);
        // The clock-ticking item advanced past the explicit timestamps.
        assert_eq!(svc.snapshot().now(), 160);
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
        assert_eq!(svc.snapshot().now(), 30);
        svc.run_query_at(user, "SELECT * FROM WaterTemp WHERE temp < 5", 500)
            .unwrap();
        svc.run_query_at(user, "SELECT * FROM WaterTemp WHERE temp < 6", 100)
            .unwrap();
        assert_eq!(
            svc.snapshot().now(),
            500,
            "stale explicit timestamp rewound now()"
        );
        // A ticking item continues from the high-water mark.
        svc.run_query(user, "SELECT salinity FROM WaterSalinity")
            .unwrap();
        assert_eq!(svc.snapshot().now(), 530);
        // The batched variant of the same interleaving (the `now() == 160`
        // case of `batched_ingestion_...`, scrambled out of order).
        let batch = vec![
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 20", 700),
            IngestItem::at(user, "SELECT * FROM WaterTemp WHERE temp < 18", 600),
            IngestItem::new(user, "SELECT lake FROM WaterTemp"),
        ];
        assert!(svc.ingest_batch(&batch).iter().all(|r| r.is_ok()));
        assert_eq!(
            svc.snapshot().now(),
            730,
            "tick must ride the monotonic maximum"
        );
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
                        let snap = svc.snapshot();
                        assert!(!snap
                            .complete(user, "SELECT * FROM WaterTemp WHERE ", 5)
                            .is_empty());
                        assert!(snap.search_keyword(user, "watertemp", 5).len() <= 5);
                    }
                });
            }
        });
        assert_eq!(svc.snapshot().live_count(), 6);
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
        assert!(!svc.snapshot().association_rules().is_empty());
    }
}
