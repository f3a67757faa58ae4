//! The CQMS server (Figure 4): the `&mut` write side of the Query
//! Profiler, Query Storage, Query Miner and Query Maintenance, wired to one
//! embedded DBMS.
//!
//! [`Cqms`] owns the write logic, the three data-tier reads that need the
//! live `relstore` engine (identifier checks, empty-result repair,
//! query-by-data with re-execution) and the tutorial. Every other read —
//! the Meta-query Executor's search modes, browsing and clustering, and
//! the assisted mode — is declared once, on
//! [`crate::snapshot::ReadSnapshot`]: single-threaded callers read through
//! `cqms.capture_snapshot(0)`.
//!
//! The Profiler runs on the caller's thread. The two *background*
//! components (Miner, Maintenance) run either synchronously via
//! [`Cqms::run_miner_epoch`] / [`Cqms::run_maintenance`] or on a background
//! thread via [`spawn_background_miner`].

use crate::admin::Directory;
use crate::assist::completion::CatalogView;
use crate::assist::correction::{Correction, CorrectionEngine, RepairSuggestion};
use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::indexreg::IndexBuild;
use crate::maintenance::{self, MaintenanceReport, RefreshReport};
use crate::metaquery::MetaQueryExecutor;
use crate::miner::assoc::{AssocRule, RuleMiner};
use crate::miner::sessions;
use crate::model::*;
use crate::profiler::{ProfiledQuery, Profiler};
use crate::storage::QueryStorage;
use crate::wal::{self, RecoveryReport};
use parking_lot::{Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use relstore::{Engine, TableStats};
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Summary of one Query Miner epoch (§4.3).
#[derive(Debug, Clone, Default)]
pub struct MinerReport {
    /// Association rules in the published rule set.
    pub association_rules: usize,
    /// Always 0 — clustering is a read; kept because
    /// `ledger/src/main.rs:351` reads it for `miner.clusters`.
    pub clusters: usize,
    /// Queries whose predicted session changed this epoch.
    pub sessions_refined: usize,
    /// Did this epoch build + publish a scheduled index generation?
    pub index_rebuilt: bool,
    /// The structural-index generation published after this epoch.
    pub index_generation: u64,
    /// Did this epoch write a durable snapshot and truncate the WAL?
    pub snapshot_written: bool,
    /// The WAL flush that closes the epoch failed: state the epoch derived
    /// (refined sessions, rotations) may not be durable yet. `None` means
    /// the flush succeeded (or there is no WAL attached).
    pub wal_flush_error: Option<CqmsError>,
    /// Retries the closing WAL flush needed before succeeding (or giving
    /// up into [`MinerReport::wal_flush_error`]) — transient sink faults
    /// that backoff recovered stay observable here.
    pub wal_flush_retries: u32,
}

/// The Collaborative Query Management System.
pub struct Cqms {
    /// The live tunables.
    pub config: CqmsConfig,
    /// The underlying DBMS holding the *data* (Fig. 4 bottom box).
    pub data: Engine,
    /// The Query Storage (Fig. 4 centre box).
    pub storage: QueryStorage,
    /// Users, groups and ACL checks (§2.4).
    pub directory: Directory,
    /// Latest mined state consumed by the assisted mode. Behind an `Arc`
    /// so a [`crate::snapshot::ReadSnapshot`] shares it for free.
    last_rules: Arc<Vec<AssocRule>>,
    /// What `last_rules` was mined from: `(storage.len(), live_count())`
    /// and the two thresholds. An epoch that finds them unchanged keeps the
    /// rules instead of re-mining.
    rules_mined_at: (usize, usize, u32, u64),
    baseline_stats: HashMap<String, TableStats>,
    /// Internal trace clock (seconds); advances when callers do not supply
    /// explicit timestamps.
    clock: u64,
    /// What crash recovery found and did, when this CQMS was built by
    /// [`Cqms::open`] (None for pure-RAM instances).
    recovery: Option<RecoveryReport>,
    /// The catalog names [`Cqms::capture_snapshot`] last handed out, with
    /// the [`relstore::Catalog::schema_version`] they were read at. `data`
    /// is a public field, so the engine's own stamp — not a hook on this
    /// type's methods — says when the view went stale.
    catalog_view: Mutex<(u64, Arc<CatalogView>)>,
}

impl Cqms {
    /// Wrap an existing data engine in a CQMS.
    pub fn new(data: Engine, config: CqmsConfig) -> Self {
        Cqms {
            config,
            data,
            storage: QueryStorage::new(),
            directory: Directory::new(),
            last_rules: Arc::new(Vec::new()),
            rules_mined_at: (0, 0, 0, 0),
            baseline_stats: HashMap::new(),
            clock: 0,
            recovery: None,
            // Stamp 0 is every empty catalog's, and so is the empty view.
            catalog_view: Mutex::new((0, Arc::default())),
        }
    }

    /// Open (or create) a *durable* CQMS whose query history lives in
    /// `dir`: load the newest snapshot, replay the write-ahead log past
    /// its horizon (truncating any torn tail), and attach the log so
    /// every subsequent mutation is re-logged. See [`crate::wal`].
    ///
    /// Not persisted (by design, matching the snapshot format): the
    /// user/group [`Directory`] — deployments re-register principals at
    /// startup in the same order, which reproduces the same dense ids —
    /// plus output summaries and mined state, which the maintenance and
    /// miner passes re-derive. Everything else derived from the log —
    /// indexes, popularity, each analyst's session cursor — is rebuilt by
    /// replay, so the first query after a restart continues its session.
    ///
    /// ```
    /// use cqms_core::{Cqms, CqmsConfig};
    /// use relstore::Engine;
    ///
    /// let dir = std::env::temp_dir().join(format!("cqms-open-doc-{}", std::process::id()));
    /// # let _ = std::fs::remove_dir_all(&dir);
    /// let mut cqms = Cqms::open(Engine::new(), CqmsConfig::default(), &dir).unwrap();
    /// let user = cqms.register_user("alice");
    /// cqms.run_query(user, "SELECT * FROM Lakes").unwrap();
    /// cqms.wal_flush().unwrap(); // durability point (the service layer does this per batch)
    /// drop(cqms);
    ///
    /// // A later process reopens the directory and the history is back.
    /// let reopened = Cqms::open(Engine::new(), CqmsConfig::default(), &dir).unwrap();
    /// assert_eq!(reopened.storage.len(), 1);
    /// # std::fs::remove_dir_all(&dir).ok();
    /// ```
    pub fn open(
        data: Engine,
        config: CqmsConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, CqmsError> {
        let wal::Recovered { storage, report } =
            wal::open_dir(dir.as_ref(), config.wal_fsync, Some(&data.catalog))?;
        let mut cqms = Cqms::new(data, config);
        // Trace time must never run backwards across a restart: resume
        // the clock past every recovered timestamp.
        cqms.clock = storage
            .iter()
            .map(|r| {
                r.ts.max(r.annotations.iter().map(|a| a.at).max().unwrap_or(0))
            })
            .max()
            .unwrap_or(0);
        cqms.storage = storage;
        cqms.recovery = Some(report);
        Ok(cqms)
    }

    /// The crash-recovery report, when this CQMS was built by
    /// [`Cqms::open`] — the operator's one-line answer to "what did
    /// replay do?" (render it with `{}`).
    pub fn recovery(&self) -> Option<&RecoveryReport> {
        self.recovery.as_ref()
    }

    /// Make every logged mutation durable (no-op for pure-RAM instances).
    /// [`crate::service::CqmsService`] calls this once per write operation
    /// / ingest batch before acknowledging the caller.
    pub fn wal_flush(&mut self) -> Result<(), CqmsError> {
        self.storage.wal_flush()
    }

    /// Has enough been logged since the last snapshot that the miner
    /// epoch should write a new one?
    pub fn wal_snapshot_due(&self) -> bool {
        self.storage.wal_attached()
            && self.config.snapshot_every_ops > 0
            && self.storage.wal_ops_since_snapshot() >= self.config.snapshot_every_ops
    }

    /// Write a durable snapshot *now* and truncate the log behind it
    /// (the operator's "force a snapshot" lever; the background path in
    /// [`spawn_background_miner`] prefers the off-lock route). Returns
    /// `false` for pure-RAM instances. A transient write fault is retried
    /// with capped exponential backoff (3 tries) before surfacing.
    pub fn force_snapshot(&mut self) -> Result<bool, CqmsError> {
        if !self.storage.wal_attached() {
            return Ok(false);
        }
        let mut body = Vec::new();
        self.storage.snapshot(&mut body)?;
        let horizon = self.storage.wal_last_lsn().unwrap_or(0);
        wal::retry_write(|| self.storage.wal_write_snapshot(horizon, &body)).0?;
        Ok(true)
    }

    // ------------------------------------------------------------------
    // Traditional Interaction Mode (§2.1)
    // ------------------------------------------------------------------

    /// Execute a query on behalf of `user` at the internal clock, which
    /// advances by 30 seconds per call (tests and examples that care about
    /// session boundaries use [`Cqms::run_query_at`]).
    ///
    /// The tick applies on *every* path, including failed profiling: a
    /// failed attempt still consumed trace time, and skipping the tick on
    /// errors would let a later successful query reuse the same timestamp
    /// (breaking monotonic trace time and session-gap accounting).
    pub fn run_query(&mut self, user: UserId, sql: &str) -> Result<ProfiledQuery, CqmsError> {
        let ts = self.clock + 30;
        self.run_query_at(user, sql, ts)
    }

    /// Execute a query at an explicit trace time (seconds).
    pub fn run_query_at(
        &mut self,
        user: UserId,
        sql: &str,
        ts: u64,
    ) -> Result<ProfiledQuery, CqmsError> {
        // Advance the clock before the fallible profiling call so error
        // paths observe the same monotonic trace time as successes.
        self.clock = self.clock.max(ts);
        let visibility = self.default_visibility(user);
        Profiler::new().profile(
            &self.config,
            &mut self.storage,
            &mut self.data,
            user,
            visibility,
            sql,
            ts,
        )
    }

    /// Default visibility for a user's queries: their first group when they
    /// belong to one, otherwise public (a lab-wide deployment default).
    fn default_visibility(&self, user: UserId) -> Visibility {
        match self.directory.user(user) {
            Some(info) => match info.groups.first() {
                Some(g) => Visibility::Group(*g),
                None => Visibility::Public,
            },
            None => Visibility::Public,
        }
    }

    /// Annotate a query (whole or fragment, §2.1). Any user who can see the
    /// query may annotate it (collaborative documentation).
    pub fn annotate(
        &mut self,
        actor: UserId,
        id: QueryId,
        text: &str,
        fragment: Option<&str>,
    ) -> Result<(), CqmsError> {
        let visible = {
            let rec = self.storage.get(id)?;
            self.directory.can_see(actor, rec)
        };
        if !visible {
            return Err(CqmsError::NotAuthorized {
                user: actor.0,
                what: format!("query {id}"),
            });
        }
        let at = self.clock;
        self.storage.annotate(
            id,
            Annotation {
                author: actor,
                at,
                text: text.to_string(),
                fragment: fragment.map(String::from),
            },
        )
    }

    // ------------------------------------------------------------------
    // Data-tier reads (everything else reads a `capture_snapshot`)
    // ------------------------------------------------------------------

    /// Query-by-data with re-execution of sampled candidates on the data
    /// engine's read-only path. The summary-only variant is
    /// [`crate::snapshot::ReadSnapshot::search_by_data`].
    pub fn search_by_data_reexecuting(
        &self,
        user: UserId,
        include: &[&str],
        exclude: &[&str],
    ) -> Vec<QueryId> {
        MetaQueryExecutor::new(&self.storage, &self.directory, &self.config).by_data(
            user,
            include,
            exclude,
            Some(&self.data),
        )
    }

    /// Identifier spell-check (Fig. 3 "Corrections").
    pub fn check_identifiers(&self, sql: &str) -> Vec<Correction> {
        CorrectionEngine::new(&self.storage).check_identifiers(&self.data, sql)
    }

    /// Empty-result repair suggestions.
    pub fn repair_empty_result(&self, sql: &str, k: usize) -> Vec<RepairSuggestion> {
        CorrectionEngine::new(&self.storage).repair_empty_result(&self.data, sql, k)
    }

    /// Auto-generated dataset tutorial (§2.3).
    pub fn tutorial(&self, queries_per_relation: usize) -> String {
        crate::miner::tutorial::generate_tutorial(&self.storage, &self.data, queries_per_relation)
    }

    // ------------------------------------------------------------------
    // Query Miner (§4.3)
    // ------------------------------------------------------------------

    /// Run one miner epoch: execute any scheduled index rebuild, refresh
    /// association rules, refine session boundaries, write a due snapshot.
    pub fn run_miner_epoch(&mut self) -> MinerReport {
        self.miner_epoch(true)
    }

    /// The epoch body. `execute_rebuild` controls whether a scheduled
    /// index rebuild runs *inline* (synchronous callers, who already
    /// hold exclusive access and expect the epoch to leave the indexes
    /// fresh) or is left pending (the background miner thread, which
    /// must never build under the write lock — it defers to its own
    /// off-lock collect/build on the next cycle instead of stalling
    /// every reader for the O(n log n) build).
    pub(crate) fn miner_epoch(&mut self, execute_rebuild: bool) -> MinerReport {
        // Scheduled index maintenance first (tombstone threshold,
        // reindex, summary refresh): the rebuild the query path only
        // ever *requests* runs here.
        let index_rebuilt = execute_rebuild && self.storage.run_index_maintenance();
        let mut report = MinerReport {
            index_rebuilt,
            index_generation: self.storage.index_generation(),
            ..MinerReport::default()
        };

        // Association rules, mined from the live log unless it (and the
        // thresholds) stand where the last epoch left them.
        let (min_support, min_confidence) = (
            self.config.assoc_min_support,
            self.config.assoc_min_confidence,
        );
        let mined_at = (
            self.storage.len(),
            self.storage.live_count(),
            min_support,
            min_confidence.to_bits(),
        );
        if mined_at != self.rules_mined_at {
            let mut miner = RuleMiner::new();
            for rec in self.storage.iter_live() {
                let items = rec.features.items();
                if !items.is_empty() {
                    miner.add_transaction(items);
                }
            }
            self.last_rules = miner.mine(min_support, min_confidence);
            self.rules_mined_at = mined_at;
        }
        report.association_rules = self.last_rules.len();

        // Offline session refinement.
        let refined = sessions::segment_log(&self.storage, &self.config);
        let changed = refined
            .iter()
            .filter(|(id, s)| {
                self.storage
                    .get(**id)
                    .map(|r| r.session != **s)
                    .unwrap_or(false)
            })
            .count();
        if changed > 0 {
            self.storage.adopt_sessions(&refined);
        }
        report.sessions_refined = changed;

        // Periodic durability: synchronous epochs write due snapshots
        // inline (the caller holds exclusive access anyway); the
        // background thread skips this and uses the off-lock
        // collect/write/mark path instead.
        if execute_rebuild && self.wal_snapshot_due() {
            report.snapshot_written = self.force_snapshot().unwrap_or(false);
        }

        report
    }

    /// Record an *investigation* relation between two queries (§4.1: "the
    /// latter query investigates why certain tuples are included in the
    /// first query's output"). Both queries must be visible to `actor`.
    pub fn mark_investigation(
        &mut self,
        actor: UserId,
        from: QueryId,
        to: QueryId,
    ) -> Result<(), CqmsError> {
        for id in [from, to] {
            let rec = self.storage.get(id)?;
            if !self.directory.can_see(actor, rec) {
                return Err(CqmsError::NotAuthorized {
                    user: actor.0,
                    what: format!("query {id}"),
                });
            }
        }
        self.storage.add_edge(SessionEdge {
            from,
            to,
            kind: EdgeKind::Investigation,
            edits: Vec::new(),
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Query Maintenance (§4.4)
    // ------------------------------------------------------------------

    /// Run a maintenance pass: schema scan + drift-triggered statistics
    /// refresh + quality recomputation.
    pub fn run_maintenance(&mut self) -> Result<(MaintenanceReport, RefreshReport), CqmsError> {
        self.run_maintenance_with_basis(None)
    }

    /// [`Cqms::run_maintenance`] with an externally supplied latency
    /// basis for the quality pass. Sharded deployments pass the merged
    /// global basis so the efficiency percentile — a corpus-wide
    /// statistic — matches a single instance record for record; `None`
    /// ranks against this store's own latencies.
    pub fn run_maintenance_with_basis(
        &mut self,
        basis: Option<&[u64]>,
    ) -> Result<(MaintenanceReport, RefreshReport), CqmsError> {
        let schema_report = maintenance::scan_schema_changes(&mut self.storage, &self.data)?;
        let refresh_report = maintenance::refresh_statistics(
            &mut self.storage,
            &mut self.data,
            &mut self.baseline_stats,
            &self.config,
        )?;
        match basis {
            Some(b) => maintenance::recompute_quality_with(&mut self.storage, b),
            None => maintenance::recompute_quality(&mut self.storage),
        }
        Ok((schema_report, refresh_report))
    }

    // ------------------------------------------------------------------
    // Administrative Interaction Mode (§2.4)
    // ------------------------------------------------------------------

    /// Register (or look up) a user by name.
    pub fn register_user(&mut self, name: &str) -> UserId {
        self.directory.create_user(name)
    }

    /// Create a collaboration group.
    pub fn create_group(&mut self, name: &str) -> GroupId {
        self.directory.create_group(name)
    }

    /// Add a user to a group.
    pub fn join_group(&mut self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        self.directory.join_group(user, group)
    }

    /// Change a query's visibility (owner or admin only).
    pub fn set_visibility(
        &mut self,
        actor: UserId,
        id: QueryId,
        visibility: Visibility,
    ) -> Result<(), CqmsError> {
        let allowed = {
            let rec = self.storage.get(id)?;
            self.directory.can_modify(actor, rec)
        };
        if !allowed {
            return Err(CqmsError::NotAuthorized {
                user: actor.0,
                what: format!("query {id}"),
            });
        }
        self.storage.set_visibility(id, visibility)
    }

    /// Delete (tombstone) a query (owner or admin only, §2.4).
    pub fn delete_query(&mut self, actor: UserId, id: QueryId) -> Result<(), CqmsError> {
        let allowed = {
            let rec = self.storage.get(id)?;
            self.directory.can_modify(actor, rec)
        };
        if !allowed {
            return Err(CqmsError::NotAuthorized {
                user: actor.0,
                what: format!("query {id}"),
            });
        }
        self.storage.delete(id)
    }

    /// Current trace time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// Capture an immutable, lock-free-readable view of this instance:
    /// pointer copies only (the storage's persistent containers chunk by
    /// chunk, directory, rules and catalog names one `Arc` each) plus the
    /// flat config. The catalog names are re-read only when the data
    /// engine's schema stamp moved. The service layer publishes one
    /// snapshot per write; see [`crate::snapshot::ReadSnapshot`].
    pub fn capture_snapshot(&self, epoch: u64) -> crate::snapshot::ReadSnapshot {
        let catalog = {
            let mut cached = self.catalog_view.lock();
            let version = self.data.catalog.schema_version();
            if cached.0 != version {
                *cached = (version, Arc::new(CatalogView::of(&self.data)));
            }
            Arc::clone(&cached.1)
        };
        crate::snapshot::ReadSnapshot {
            epoch,
            config: self.config.clone(),
            storage: self.storage.clone(),
            directory: self.directory.clone(),
            last_rules: Arc::clone(&self.last_rules),
            catalog,
            clock: self.clock,
        }
    }
}

/// Handle to a background miner thread (§3: "the Query Miner … runs in the
/// background … periodically").
///
/// Shutdown is graceful in both forms: [`BackgroundMiner::stop`] and simply
/// dropping the handle join the thread, and the miner runs one *final*
/// epoch on the way out so results mined from the latest ingested queries
/// are visible after shutdown. Every epoch — periodic or final — acquires
/// the write lock with a bounded retry and is skipped if the lock stays
/// held for the whole grace period (e.g. by the very thread doing the
/// join), so the miner can be delayed by a stuck client but stopping can
/// never deadlock.
pub struct BackgroundMiner {
    stop_tx: std::sync::mpsc::SyncSender<()>,
    handle: Option<std::thread::JoinHandle<usize>>,
}

impl BackgroundMiner {
    /// Stop the miner and return the number of epochs it completed
    /// (including the final shutdown epoch).
    pub fn stop(mut self) -> usize {
        self.join()
    }

    fn join(&mut self) -> usize {
        // The receiver may already be gone (thread exited); that's fine.
        let _ = self.stop_tx.send(());
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for BackgroundMiner {
    fn drop(&mut self) {
        self.join();
    }
}

/// A snapshot-publication hook: called with the write lock still held
/// after any background mutation, so the service layer can republish its
/// [`crate::snapshot::ReadSnapshot`] before readers can observe the lock
/// released. See [`spawn_background_miner`].
pub type SnapshotPublisher = Arc<dyn Fn(&Cqms) + Send + Sync>;

/// Write-lock retry budget of one normal background epoch, of the snapshot
/// writer's rotate step and of a repair promotion: 500 × 2 ms ≈ 1 s.
pub(crate) const MINER_GRACE_ATTEMPTS: usize = 500;
/// Escalated budget once [`MINER_STARVATION_EPOCHS`] consecutive epochs were
/// skipped: a continuous writer storm hands the lock over in microsecond
/// windows, so a starving miner widens its net (~4 s) instead of skipping
/// forever. Still bounded — stopping the miner can never deadlock.
const MINER_ESCALATED_ATTEMPTS: usize = 2000;
/// Consecutive skipped epochs before the grace loop escalates.
const MINER_STARVATION_EPOCHS: usize = 3;

/// Take the write lock with a bounded retry: `attempts` tries, 2 ms apart.
///
/// Background work (the miner, the off-lock snapshot writer, repair
/// promotion) must never *block* on the CQMS lock: a client that stops (or
/// drops) the miner handle while holding a guard would otherwise deadlock
/// the join — the joiner waits on the miner, the miner waits on the write
/// lock, the lock waits on the joiner's guard. Transient contention still
/// gets the lock via the retries; a lock held for the whole grace period
/// yields `None` and the caller skips its work instead of hanging.
pub(crate) fn try_write_within(
    cqms: &RwLock<Cqms>,
    attempts: usize,
) -> Option<RwLockWriteGuard<'_, Cqms>> {
    for _ in 0..attempts {
        if let Some(guard) = cqms.try_write() {
            return Some(guard);
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    None
}

/// The off-lock half of a scheduled index rebuild, shared by the
/// background miner and [`crate::service::CqmsService::rebuild_indexes`]:
/// `guard` is the caller's *momentary* read lock (`None`: it was busy, try
/// next cycle). If a rebuild is scheduled the storage is pinned — a clone,
/// O(records / 256) pointer bumps — the lock is released, and the
/// O(n log n) build reads the pin in place with **no lock held**: readers
/// *and* writers keep working against the standing index the whole time.
/// The caller publishes the result under its write lock
/// ([`QueryStorage::publish_index_rebuild`]: delta replay + one swap).
pub(crate) fn build_scheduled_rebuild(
    guard: Option<RwLockReadGuard<'_, Cqms>>,
) -> Option<IndexBuild> {
    let pinned = guard.and_then(|guard| {
        let storage = &guard.storage;
        storage.index_rebuild_pending().then(|| storage.clone())
    });
    pinned.map(|storage| storage.begin_index_rebuild())
}

/// One miner epoch under [`try_write_within`]`(attempts)`. Returns the
/// epoch's report, or `None` when the epoch was skipped.
///
/// A scheduled index rebuild is double-buffered here
/// ([`build_scheduled_rebuild`]); the publish under the epoch's write lock
/// only replays the mid-build delta and performs the single swap.
fn try_miner_epoch(
    cqms: &RwLock<Cqms>,
    attempts: usize,
    faults: &crate::faults::FaultPlan,
    publish: Option<&SnapshotPublisher>,
) -> Option<MinerReport> {
    // The miner.epoch failpoint fires before any lock is taken, so an
    // injected panic can never leave a guard behind (and the shim locks
    // are non-poisoning anyway). The background loop survives it via
    // catch_unwind; see `spawn_background_miner`.
    if faults.hit(crate::faults::MINER_EPOCH).is_err() {
        return None;
    }
    let build = build_scheduled_rebuild(cqms.try_read());
    let mut guard = try_write_within(cqms, attempts)?;
    if let Some(b) = build {
        // A racing explicit rebuild may have published newer content
        // already — a discarded build just leaves the schedule pending
        // for the next cycle.
        let _ = guard.storage.publish_index_rebuild(b);
    }
    // A rebuild that became pending after (or was invisible to) the
    // off-lock build is *deferred* to the next cycle's — never built
    // inline under the write lock.
    let mut report = guard.miner_epoch(false);
    // The epoch may have re-logged state (session refinement); flush so it
    // is durable — retrying transient sink faults with capped backoff
    // first — and surface, never swallow, a terminal failure: the caller
    // decides how loudly to report.
    let (flushed, retries) = wal::retry_write(|| guard.wal_flush());
    report.wal_flush_retries = retries;
    if let Err(e) = flushed {
        report.wal_flush_error = Some(e);
    }
    // Republish the service's read snapshot before the lock is released:
    // the epoch refreshed rules, rebuilt indexes and refined sessions, all
    // of which snapshot readers must see.
    if let Some(publish) = publish {
        publish(&guard);
    }
    drop(guard);
    // Durability rides the same seam: a due snapshot is written off the
    // hot path now that the epoch's write lock is gone.
    report.snapshot_written = try_wal_snapshot(cqms, faults);
    Some(report)
}

/// The background snapshot path, mirroring the index rebuild's
/// double-buffering: serialize the storage under a momentary read lock,
/// write + fsync the snapshot file with **no lock held** (readers and
/// writers keep working), then take a brief write lock only to rotate
/// and prune the log behind the now-durable snapshot. An in-memory sink
/// (no backing directory) falls back to the inline path — its "file
/// write" is a vector push, too cheap to double-buffer.
///
/// Every lock acquisition is a bounded try (the miner must never block,
/// see [`try_write_within`]); a skipped snapshot just stays due for the
/// next cycle. Returns whether a snapshot was marked.
fn try_wal_snapshot(cqms: &RwLock<Cqms>, faults: &crate::faults::FaultPlan) -> bool {
    // Phase 1: collect (dir, horizon, body) under a momentary read lock.
    let Some(guard) = cqms.try_read() else {
        return false;
    };
    let mut body = Vec::new();
    if !guard.wal_snapshot_due() || guard.storage.snapshot(&mut body).is_err() {
        return false;
    }
    let dir = guard.storage.wal_snapshot_dir();
    let horizon = guard.storage.wal_last_lsn().unwrap_or(0);
    let fsync = guard.config.wal_fsync;
    drop(guard);
    let Some(dir) = dir else {
        return try_write_within(cqms, MINER_GRACE_ATTEMPTS)
            .is_some_and(|mut guard| guard.force_snapshot().unwrap_or(false));
    };
    // Phase 2: durable write, no lock held. Ops logged meanwhile have
    // lsn > horizon and replay on top of this snapshot.
    //
    // A previous cycle may have written+fsynced this very horizon and then
    // failed phase 3 (write lock never came free within the grace period),
    // orphaning an unmarked snapshot file. Recovery already prefers that
    // file — replay skips lsn ≤ horizon — so it is safe to *reuse* it and
    // go straight to marking instead of serialising and fsyncing it again.
    let already_written = wal::list_snapshots(&dir)
        .map(|snaps| snaps.iter().any(|(h, _)| *h == horizon))
        .unwrap_or(false);
    // The off-lock write retries transient faults (and consults the
    // wal.snapshot failpoint) with capped backoff: a snapshot only stays
    // due for the next cycle once backoff is spent.
    let (written, _retries) = wal::retry_write(|| {
        if already_written {
            return Ok(());
        }
        faults.hit(crate::faults::SNAPSHOT_WRITE)?;
        wal::write_snapshot_file(&dir, horizon, &body, fsync)
    });
    if written.is_err() {
        return false;
    }
    // Phase 3: brief write lock to rotate + prune.
    try_write_within(cqms, MINER_GRACE_ATTEMPTS)
        .is_some_and(|mut guard| guard.storage.wal_mark_snapshot(horizon).is_ok())
}

/// Spawn a miner thread that runs an epoch every `interval` until stopped.
///
/// `faults` is the plan whose `miner.epoch` / `wal.snapshot` failpoints the
/// thread consults (a service passes its own, so per-service injection
/// reaches its miner); `publish`, when given, is invoked with the write
/// lock still held after every completed epoch.
///
/// Starvation resilience: every skipped epoch (grace period exhausted under
/// writer pressure) bumps a consecutive-skip counter; after
/// `MINER_STARVATION_EPOCHS` skips the next attempts run with the
/// escalated (but still bounded) retry budget until an epoch lands. A WAL
/// flush failure surfaced by an epoch is logged here — the background
/// thread has no caller to return the report to.
///
/// The loop runs each epoch under `catch_unwind`: an epoch that panics — a
/// mining bug, or the `miner.epoch` failpoint armed with a panic — is
/// counted as a skipped epoch and the miner keeps running, instead of
/// dying silently and letting rules/snapshots go permanently stale. (The
/// lock shims are non-poisoning, and the failpoint fires before any lock
/// is taken, so a panicking epoch can never wedge the lock.)
pub fn spawn_background_miner(
    cqms: Arc<RwLock<Cqms>>,
    interval: Duration,
    faults: Arc<crate::faults::FaultPlan>,
    publish: Option<SnapshotPublisher>,
) -> BackgroundMiner {
    let (stop_tx, stop_rx) = std::sync::mpsc::sync_channel::<()>(1);
    let handle = std::thread::spawn(move || {
        let mut epochs = 0usize;
        let mut skipped = 0usize;
        let run_one = |attempts: usize, skipped: &mut usize| -> bool {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                try_miner_epoch(&cqms, attempts, &faults, publish.as_ref())
            }));
            match outcome {
                Ok(Some(report)) => {
                    *skipped = 0;
                    if let Some(e) = &report.wal_flush_error {
                        eprintln!("cqms background miner: WAL flush failed after epoch: {e}");
                    }
                    true
                }
                Ok(None) => {
                    *skipped += 1;
                    false
                }
                Err(_) => {
                    eprintln!("cqms background miner: epoch panicked; surviving");
                    *skipped += 1;
                    false
                }
            }
        };
        loop {
            let attempts = if skipped >= MINER_STARVATION_EPOCHS {
                MINER_ESCALATED_ATTEMPTS
            } else {
                MINER_GRACE_ATTEMPTS
            };
            match stop_rx.recv_timeout(interval) {
                Ok(()) => {
                    // Graceful stop: one final (best-effort) epoch over
                    // everything ingested since the last periodic run.
                    if run_one(attempts, &mut skipped) {
                        epochs += 1;
                    }
                    break;
                }
                Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break,
                Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {
                    if run_one(attempts, &mut skipped) {
                        epochs += 1;
                    }
                }
            }
        }
        epochs
    });
    BackgroundMiner {
        stop_tx,
        handle: Some(handle),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Domain;

    fn cqms() -> Cqms {
        let mut engine = Engine::new();
        Domain::Lakes.setup(&mut engine, 80, 2);
        Cqms::new(engine, CqmsConfig::default())
    }

    #[test]
    fn end_to_end_traditional_mode() {
        let mut c = cqms();
        let alice = c.register_user("alice");
        let out = c
            .run_query(alice, "SELECT lake, temp FROM WaterTemp WHERE temp < 18")
            .unwrap();
        assert!(out.result.is_some());
        assert_eq!(c.storage.live_count(), 1);
        // Searching finds it.
        let hits = c.capture_snapshot(0).search_keyword(alice, "temp", 5);
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn group_visibility_end_to_end() {
        let mut c = cqms();
        let _root = c.register_user("root");
        let alice = c.register_user("alice");
        let bob = c.register_user("bob");
        let carol = c.register_user("carol");
        let lab = c.create_group("lab");
        c.join_group(alice, lab).unwrap();
        c.join_group(bob, lab).unwrap();
        // Alice's queries default to her group.
        let out = c
            .run_query(alice, "SELECT * FROM WaterSalinity WHERE salinity > 0.3")
            .unwrap();
        assert_eq!(
            c.storage.get(out.id).unwrap().visibility,
            Visibility::Group(lab)
        );
        let snap = c.capture_snapshot(0);
        assert_eq!(snap.search_substring(bob, "salinity").len(), 1);
        assert!(snap.search_substring(carol, "salinity").is_empty());
        // Carol can't annotate or delete it either.
        assert!(c.annotate(carol, out.id, "sneaky", None).is_err());
        assert!(c.delete_query(carol, out.id).is_err());
        // Alice makes it public.
        c.set_visibility(alice, out.id, Visibility::Public).unwrap();
        let snap = c.capture_snapshot(0);
        assert_eq!(snap.search_substring(carol, "salinity").len(), 1);
    }

    #[test]
    fn miner_epoch_produces_rules() {
        let mut c = cqms();
        let u = c.register_user("u");
        for i in 0..8 {
            c.run_query(
                u,
                &format!(
                    "SELECT * FROM WaterSalinity S, WaterTemp T \
                     WHERE S.loc_x = T.loc_x AND T.temp < {}",
                    10 + i
                ),
            )
            .unwrap();
        }
        for i in 0..6 {
            c.run_query(
                u,
                &format!("SELECT city FROM CityLocations WHERE pop > {i}"),
            )
            .unwrap();
        }
        let report = c.run_miner_epoch();
        assert!(report.association_rules > 0);
        // The planted-style rule is discoverable.
        assert!(c
            .capture_snapshot(0)
            .association_rules()
            .iter()
            .any(|r| r.consequent == "table:watertemp"));
        // Clusters are a read, with or without an epoch.
        let (ids, clustering) = c.capture_snapshot(0).cluster_queries(u, 0);
        assert_eq!(ids.len(), 14);
        assert!(clustering.medoids.len() >= 2);
    }

    #[test]
    fn clustering_reads_survive_degenerate_logs() {
        let check = |c: &Cqms, user: UserId, k: usize, want: usize| {
            let snap = c.capture_snapshot(0);
            let (ids, clustering) = snap.cluster_queries(user, k);
            assert_eq!((ids.len(), clustering.assignment.len()), (want, want));
            let (sessions, clustering) = snap.cluster_sessions(user, k);
            assert_eq!(clustering.assignment.len(), sessions.len());
            assert!(sessions.len() <= want && sessions.is_empty() == (want == 0));
        };
        let mut c = cqms();
        let alice = c.register_user("alice");
        let eve = c.register_user("eve");
        for k in [0, 1, usize::MAX] {
            check(&c, alice, k, 0);
        }
        let hidden = c.run_query(alice, "SELECT * FROM Lakes").unwrap().id;
        c.set_visibility(alice, hidden, Visibility::Private)
            .unwrap();
        c.run_query(alice, "SELECT * FROM WaterTemp").unwrap();
        for k in [0, 1, usize::MAX] {
            check(&c, eve, k, 1);
            check(&c, alice, k, 2);
        }
    }

    #[test]
    fn maintenance_pass_repairs_and_scores() {
        let mut c = cqms();
        let u = c.register_user("u");
        let out = c
            .run_query(u, "SELECT temp FROM WaterTemp WHERE temp < 18")
            .unwrap();
        c.data
            .execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
            .unwrap();
        let (schema, _refresh) = c.run_maintenance().unwrap();
        assert_eq!(schema.repaired, vec![out.id]);
        let rec = c.storage.get(out.id).unwrap();
        assert!(rec.raw_sql.contains("temperature"));
        assert!(rec.quality > 0.0);
    }

    #[test]
    fn background_miner_runs_epochs() {
        let c = Arc::new(RwLock::new(cqms()));
        {
            let mut guard = c.write();
            let u = guard.register_user("u");
            for i in 0..5 {
                guard
                    .run_query(u, &format!("SELECT * FROM WaterTemp WHERE temp < {i}"))
                    .unwrap();
            }
        }
        let miner = spawn_background_miner(
            c.clone(),
            Duration::from_millis(10),
            crate::faults::global_plan(),
            None,
        );
        std::thread::sleep(Duration::from_millis(60));
        let epochs = miner.stop();
        assert!(epochs >= 1, "no epochs ran");
        // State was actually mined.
        assert!(c.read().storage.live_count() == 5);
    }

    #[test]
    fn clock_ticks_on_failed_queries() {
        let mut c = cqms();
        let u = c.register_user("u");
        let t0 = c.now();
        // Engine error (unknown table): the attempt is logged as failed and
        // the 30-second tick still applies.
        let out = c.run_query(u, "SELECT * FROM NoSuchTable").unwrap();
        assert!(out.error.is_some());
        assert_eq!(c.now(), t0 + 30);
        // Parse error: logged, ticked.
        let out = c.run_query(u, "SELEC nope").unwrap();
        assert!(out.result.is_none());
        assert_eq!(c.now(), t0 + 60);
        // Explicit-timestamp failures advance the clock to their ts too.
        c.run_query_at(u, "SELECT * FROM NoSuchTable", t0 + 500)
            .unwrap();
        assert_eq!(c.now(), t0 + 500);
        // The next internal tick builds on the advanced clock: trace time
        // never repeats or goes backwards across mixed success/failure.
        c.run_query(u, "SELECT * FROM Lakes").unwrap();
        assert_eq!(c.now(), t0 + 530);
        // A stale explicit timestamp does not rewind the clock.
        c.run_query_at(u, "SELECT * FROM Lakes", t0).unwrap();
        assert_eq!(c.now(), t0 + 530);
    }

    /// SQL nested past the parser's limit gets the outcome of any parse
    /// failure — logged, `success = false` — on a thread with the default
    /// stack, which the nesting would otherwise overflow.
    #[test]
    fn deeply_nested_sql_is_logged_as_a_parse_failure() {
        let n = 10_000;
        let sql = format!(
            "SELECT * FROM t WHERE {}x = 1{}",
            "(".repeat(n),
            ")".repeat(n)
        );
        let logged = std::thread::spawn(move || {
            let mut c = cqms();
            let u = c.register_user("u");
            let out = c.run_query(u, &sql).expect("a parse failure is logged");
            assert!(out.result.is_none());
            let rec = c.storage.get(out.id).expect("logged");
            (
                rec.statement.is_none(),
                rec.runtime.success,
                rec.runtime.error.clone(),
            )
        })
        .join()
        .expect("run_query returns");
        assert_eq!(logged, (true, false, Some("parse error".to_string())));
    }

    #[test]
    fn internal_clock_monotonic() {
        let mut c = cqms();
        let u = c.register_user("u");
        c.run_query(u, "SELECT * FROM Lakes").unwrap();
        let t1 = c.now();
        c.run_query_at(u, "SELECT * FROM Lakes", t1 + 1000).unwrap();
        assert_eq!(c.now(), t1 + 1000);
        c.run_query(u, "SELECT * FROM Lakes").unwrap();
        assert!(c.now() > t1 + 1000);
    }
}
