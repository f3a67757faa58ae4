//! Sharded writes with cross-shard merged reads.
//!
//! [`ShardedCqms`] splits the query log into N **independently
//! write-locked shards** — a full [`Cqms`] each, behind its own
//! [`CqmsService`] cell, with its own storage, text
//! indexes, WAL directory and background miner — and routes every query to
//! the shard owning its user. Writers on different shards never contend,
//! and readers take no shard lock at all: a merged read pins each shard's
//! published [`ReadSnapshot`] (one `Arc` clone under a momentary slot
//! lock), asks the snapshot — the one place read logic lives — for that
//! shard's answer, and merges. This module declares only the merges. The
//! three data-tier reads (`check_identifiers`, `repair_empty_result`,
//! query-by-data with re-execution) are the exception: they need a shard's
//! live data engine and run under that shard's read lock.
//!
//! ## Shard map
//!
//! Routing is by **user hash**: `shard_of(user) = splitmix64(user) % N`.
//! Because sessions are per-user (§4.1), a user's whole session tree lives
//! on one shard, so session segmentation, completion history and edit
//! mining see exactly the traffic they would see unsharded.
//!
//! ## Global query ids (striping)
//!
//! Each shard assigns dense local ids; the deployment exposes
//! `global = local × N + shard` ([`ShardedCqms::globalize`], the only
//! place the formula is written). The mapping is a pure function of the
//! shard count — nothing extra is persisted, so WAL framing, snapshots and
//! recovery work unchanged: each shard recovers its own `shard-{i}/`
//! directory and the stripe falls back out. `locate` inverts it for
//! id-addressed mutations (annotate / ACL / delete).
//!
//! ## Cross-shard merged reads
//!
//! Per-shard search results arrive ordered `(score desc, local id asc)`,
//! which under striping is exactly `(score desc, global id asc)` within the
//! shard — so a k-way [`BinaryHeap`] merge over shard cursors reproduces
//! the *global* top-k, id-and-score exact, provided scores are
//! shard-placement independent. kNN distances depend only on record
//! content, and keyword TF-IDF is made placement-independent by scoring
//! every shard with the summed corpus statistics
//! ([`ReadSnapshot::keyword_corpus_stats`] →
//! [`ReadSnapshot::search_keyword_with_corpus`]); both passes run against
//! the *same* pinned snapshots, so writer churn between them cannot skew
//! the merged ranking.
//!
//! [`ShardedCqms::complete`] and [`ShardedCqms::recommend`] are **exact**:
//! completion merges each shard's summable [`CompletionStats`]
//! (association-rule co-occurrence counts plus popularity histograms) and
//! scores once from the global totals; recommendation merges the
//! per-shard kNN candidate pools and template-popularity histograms and
//! scores every candidate on its home shard with the global recency
//! anchor and popularity terms — both bit-identical to an unsharded
//! deployment over the union log.
//!
//! ## Deadline reads
//!
//! kNN, substring and keyword search each have a `_deadline` twin
//! returning a [`PartialResult`]. Both entry points are thin wrappers over
//! one body that takes an optional deadline: without one the per-shard
//! probes run inline on the caller's thread in shard order; with one they
//! run on detached workers and the merge covers the shards that answered
//! in time, naming the rest as lagging.
//!
//! ## Per-shard epoch lifecycle
//!
//! Miners, maintenance passes, WAL snapshots and structural-index
//! generations all stay per shard: each shard's background miner runs the
//! collect → off-lock build → delta-replay publish dance against its own
//! registry, and the snapshot/rotation machinery sees an ordinary
//! single-node WAL directory.
//!
//! ## Caveats (documented, by design)
//!
//! * [`ShardedCqms::search_feature_sql`] runs the meta-query on every
//!   shard and concatenates rows (remapping every output column that is a
//!   bare reference to a `qid` column to global ids); SQL-level aggregates
//!   are therefore computed per shard, not globally.
//! * Each shard owns an independent *data* engine built by the engine
//!   factory. DML routed through `run_query` mutates only the owning
//!   shard's copy — deployments whose analysts write the underlying data
//!   should keep the data tier external (the paper's Fig. 4 bottom box)
//!   and treat these engines as catalogs for validation/profiling.

use crate::assist::completion::{CompletionStats, Suggestion};
use crate::assist::correction::{Correction, RepairSuggestion};
use crate::assist::recommend::{self, sort_ranked, PanelRow};
use crate::config::CqmsConfig;
use crate::error::CqmsError;
use crate::faults;
use crate::features::FEATURE_RELATIONS;
use crate::maintenance::{MaintenanceReport, RefreshReport};
use crate::metaquery::{ScoredHit, TreePattern};
use crate::miner::assoc::AssocRule;
use crate::model::{GroupId, QueryId, UserId, Visibility};
use crate::profiler::ProfiledQuery;
use crate::server::{Cqms, MinerReport};
use crate::service::{CqmsService, IngestItem};
use crate::similarity::DistanceKind;
use crate::snapshot::ReadSnapshot;
use crate::wal::RecoveryReport;
use parking_lot::{Mutex, RwLock};
use relstore::Engine;
use sqlparse::ast::{Expr, SelectItem, SelectStatement, Statement};
use std::cmp::Ordering as CmpOrdering;
use std::collections::{BinaryHeap, HashMap};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, RecvTimeoutError, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A cross-shard read answered under a deadline budget: the merged value,
/// whether any shard missed the deadline, and which ones did. See
/// [`ShardedCqms::similar_queries_deadline`] for the exactness guarantee.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialResult<T> {
    /// The merged result over the shards that answered in time.
    pub value: T,
    /// Did at least one shard miss the deadline (or sit degraded)?
    pub partial: bool,
    /// The shards whose answers were not included, ascending.
    pub lagging_shards: Vec<usize>,
}

impl<T> PartialResult<T> {
    fn new(value: T, lagging_shards: Vec<usize>) -> Self {
        PartialResult {
            value,
            partial: !lagging_shards.is_empty(),
            lagging_shards,
        }
    }
}

/// Lifecycle state of one shard, as reported by [`ShardedCqms::health`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// Healthy: serving reads and accepting writes.
    Serving,
    /// Opened degraded: running empty, write-fenced, awaiting repair.
    Degraded,
    /// A repair attempt is recovering this shard's directory right now
    /// (still write-fenced; healthy shards are unaffected).
    Repairing,
}

/// One row of [`ShardedCqms::health`]: a shard's lifecycle state and how
/// many repair attempts it has consumed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// The shard index.
    pub shard: usize,
    /// Current lifecycle state. A shard whose repair budget is exhausted
    /// reports [`ShardState::Degraded`] (it stays fenced until restart).
    pub state: ShardState,
    /// Repair attempts made so far (`0` for never-degraded shards).
    pub repair_attempts: u64,
}

/// Mutable degraded-shard bookkeeping, shared between every deployment
/// handle and the repair supervisor behind one lock.
struct DegradedState {
    /// Write-fenced shards, ascending (degraded or mid-repair).
    fenced: Vec<usize>,
    /// Subset of `fenced` with a repair attempt in flight.
    repairing: Vec<usize>,
    /// Shards whose [`CqmsConfig::repair_max_attempts`] budget ran out —
    /// they stay fenced until restart.
    exhausted: Vec<usize>,
    /// Per-shard repair attempts (empty for pure-RAM deployments).
    attempts: Vec<u64>,
    /// Per-shard recovery outcome of the durable open or the latest
    /// repair attempt (empty for pure-RAM deployments).
    recovery: Vec<Result<RecoveryReport, CqmsError>>,
}

/// Everything a repair attempt needs to re-open a shard, captured once at
/// [`ShardedCqms::open`]: the deployment directory, the config, and the
/// engine factory (behind a lock — factories are `FnMut`).
struct RepairContext {
    dir: PathBuf,
    config: CqmsConfig,
    factory: Mutex<Box<dyn FnMut() -> Engine + Send>>,
}

/// The background repair supervisor's thread handle. Mirrors
/// [`crate::server::BackgroundMiner`]: `stop` (and plain drop) signals
/// the loop and joins, returning how many shards it promoted.
struct BackgroundRepairer {
    stop_tx: SyncSender<()>,
    handle: Option<JoinHandle<usize>>,
}

impl BackgroundRepairer {
    fn stop(mut self) -> usize {
        self.join()
    }

    fn join(&mut self) -> usize {
        // The receiver may already be gone (loop exited); that's fine.
        let _ = self.stop_tx.send(());
        self.handle
            .take()
            .map(|h| h.join().unwrap_or(0))
            .unwrap_or(0)
    }
}

impl Drop for BackgroundRepairer {
    fn drop(&mut self) {
        self.join();
    }
}

/// A CQMS deployment sharded by user hash into independently write-locked
/// [`CqmsService`]s, with cross-shard reads merged exactly. Cloning is
/// cheap (per-shard `Arc`s plus one shared clock).
#[derive(Clone)]
pub struct ShardedCqms {
    shards: Vec<CqmsService>,
    /// Global trace clock: `run_query` ticks it by 30 s, explicit
    /// timestamps raise it monotonically (`fetch_max`). Per-shard clocks
    /// trail it, which is fine — every ingest carries an explicit global
    /// timestamp down to its shard.
    clock: Arc<AtomicU64>,
    /// Degraded/repair bookkeeping. Healthy-path readers only take the
    /// read lock for a `Vec::contains` on the write fence.
    state: Arc<RwLock<DegradedState>>,
    /// Present only for durable deployments ([`ShardedCqms::open`]):
    /// what a repair attempt needs to re-open a shard directory.
    repair_ctx: Option<Arc<RepairContext>>,
    /// The background repair supervisor, when running.
    repairer: Arc<Mutex<Option<BackgroundRepairer>>>,
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl ShardedCqms {
    /// Build a pure-RAM sharded deployment. `config.shards` (≥ 1) shards
    /// are created, each wrapping one engine from `engine_factory` (every
    /// shard needs its own copy of the data tier's catalog).
    pub fn new(mut engine_factory: impl FnMut() -> Engine, config: CqmsConfig) -> Self {
        let n = config.shards.max(1);
        let shards = (0..n)
            .map(|_| CqmsService::new(Cqms::new(engine_factory(), config.clone())))
            .collect();
        ShardedCqms {
            shards,
            clock: Arc::new(AtomicU64::new(0)),
            state: Arc::new(RwLock::new(DegradedState {
                fenced: Vec::new(),
                repairing: Vec::new(),
                exhausted: Vec::new(),
                attempts: Vec::new(),
                recovery: Vec::new(),
            })),
            repair_ctx: None,
            repairer: Arc::new(Mutex::new(None)),
        }
    }

    /// Open (or create) a *durable* sharded deployment under `dir`: shard
    /// `i` recovers `dir/shard-{i}/` with the ordinary single-node WAL
    /// machinery (see [`Cqms::open`]); the global clock resumes past every
    /// shard's recovered high-water mark. The shard count must match
    /// across restarts — the id stripe is a function of it.
    ///
    /// A shard whose directory is corrupt or unreadable fails the whole
    /// open with [`CqmsError::ShardOpen`] by default. With
    /// [`CqmsConfig::open_degraded`] set, the deployment opens anyway:
    /// the broken shard runs **empty and write-rejecting**
    /// ([`CqmsError::ShardUnavailable`]) while healthy shards serve
    /// normally, and the per-shard outcome — recovery report or open
    /// error — is available from [`ShardedCqms::shard_recovery`]. Reads
    /// silently exclude the degraded shard's (inaccessible) records; use
    /// [`ShardedCqms::degraded_shards`] / [`ShardedCqms::health`] to
    /// surface that to clients.
    ///
    /// Degraded shards are not permanent: when any shard opens degraded
    /// and [`CqmsConfig::repair_interval_ms`] is non-zero, a background
    /// **repair supervisor** starts automatically and re-attempts
    /// recovery off-lock until every shard is promoted back to serving
    /// (or its [`CqmsConfig::repair_max_attempts`] budget runs out). Set
    /// the interval to `0` for manual control via
    /// [`ShardedCqms::run_repair_epoch`].
    pub fn open(
        mut engine_factory: impl FnMut() -> Engine + Send + 'static,
        config: CqmsConfig,
        dir: impl AsRef<Path>,
    ) -> Result<Self, CqmsError> {
        let n = config.shards.max(1);
        let mut shards = Vec::with_capacity(n);
        let mut clock = 0u64;
        let mut degraded = Vec::new();
        let mut recovery = Vec::with_capacity(n);
        for i in 0..n {
            let shard_dir = dir.as_ref().join(format!("shard-{i}"));
            match Cqms::open(engine_factory(), config.clone(), shard_dir) {
                Ok(cqms) => {
                    clock = clock.max(cqms.now());
                    recovery.push(Ok(cqms.recovery().cloned().unwrap_or_default()));
                    shards.push(CqmsService::new(cqms));
                }
                Err(e) => {
                    let err = CqmsError::ShardOpen {
                        shard: i,
                        detail: e.to_string(),
                    };
                    if !config.open_degraded {
                        return Err(err);
                    }
                    // Keep the slot (the id stripe and user routing are
                    // functions of the shard *count*) but leave it empty
                    // and mark it: writes bounce, reads see nothing.
                    degraded.push(i);
                    recovery.push(Err(err));
                    shards.push(CqmsService::new(Cqms::new(
                        engine_factory(),
                        config.clone(),
                    )));
                }
            }
        }
        let any_degraded = !degraded.is_empty();
        let out = ShardedCqms {
            shards,
            clock: Arc::new(AtomicU64::new(clock)),
            state: Arc::new(RwLock::new(DegradedState {
                fenced: degraded,
                repairing: Vec::new(),
                exhausted: Vec::new(),
                attempts: vec![0; n],
                recovery,
            })),
            repair_ctx: Some(Arc::new(RepairContext {
                dir: dir.as_ref().to_path_buf(),
                config: config.clone(),
                factory: Mutex::new(Box::new(engine_factory)),
            })),
            repairer: Arc::new(Mutex::new(None)),
        };
        if any_degraded && config.repair_interval_ms > 0 {
            out.start_repair(Duration::from_millis(config.repair_interval_ms));
        }
        Ok(out)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `user`'s queries.
    pub fn shard_of(&self, user: UserId) -> usize {
        (splitmix64(user.0 as u64) % self.shards.len() as u64) as usize
    }

    /// The per-shard service handles (tests, benches, operators).
    pub fn shards(&self) -> &[CqmsService] {
        &self.shards
    }

    /// Shards currently degraded — write-fenced, awaiting (or beyond)
    /// repair — ascending; empty when every shard is serving. Shrinks as
    /// the repair supervisor promotes shards back.
    pub fn degraded_shards(&self) -> Vec<usize> {
        self.state.read().fenced.clone()
    }

    /// Per-shard recovery outcome of the durable open or the latest
    /// repair attempt: the shard's [`RecoveryReport`], or the
    /// [`CqmsError::ShardOpen`] that degraded it. Empty for pure-RAM
    /// deployments built with [`ShardedCqms::new`].
    pub fn shard_recovery(&self) -> Vec<Result<RecoveryReport, CqmsError>> {
        self.state.read().recovery.clone()
    }

    /// Lifecycle state of every shard, ascending by shard index.
    pub fn health(&self) -> Vec<ShardHealth> {
        let st = self.state.read();
        (0..self.shards.len())
            .map(|i| ShardHealth {
                shard: i,
                state: if st.repairing.contains(&i) {
                    ShardState::Repairing
                } else if st.fenced.contains(&i) {
                    ShardState::Degraded
                } else {
                    ShardState::Serving
                },
                repair_attempts: st.attempts.get(i).copied().unwrap_or(0),
            })
            .collect()
    }

    fn check_writable(&self, shard: usize) -> Result<(), CqmsError> {
        if self.state.read().fenced.contains(&shard) {
            Err(CqmsError::ShardUnavailable { shard })
        } else {
            Ok(())
        }
    }

    /// Stripe a shard-local id into the global id space.
    pub fn globalize(&self, shard: usize, local: QueryId) -> QueryId {
        QueryId(local.0 * self.shards.len() as u64 + shard as u64)
    }

    /// Invert [`ShardedCqms::globalize`]: which shard holds a global id,
    /// and under which local id.
    pub fn locate(&self, global: QueryId) -> (usize, QueryId) {
        let n = self.shards.len() as u64;
        ((global.0 % n) as usize, QueryId(global.0 / n))
    }

    /// Current global trace time.
    pub fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    fn tick(&self) -> u64 {
        self.clock.fetch_add(30, Ordering::SeqCst) + 30
    }

    fn observe(&self, ts: u64) {
        self.clock.fetch_max(ts, Ordering::SeqCst);
    }

    // ------------------------------------------------------------------
    // Admin (broadcast: every shard keeps an identical directory)
    // ------------------------------------------------------------------

    /// Register (or look up) a user by name — broadcast, so every shard's
    /// directory assigns the same dense id and ACL checks agree everywhere.
    pub fn register_user(&self, name: &str) -> UserId {
        let ids: Vec<UserId> = self.shards.iter().map(|s| s.register_user(name)).collect();
        debug_assert!(
            ids.windows(2).all(|w| w[0] == w[1]),
            "shard directories diverged registering {name:?}"
        );
        ids[0]
    }

    /// Create a collaboration group on every shard.
    pub fn create_group(&self, name: &str) -> GroupId {
        let ids: Vec<GroupId> = self.shards.iter().map(|s| s.create_group(name)).collect();
        debug_assert!(ids.windows(2).all(|w| w[0] == w[1]));
        ids[0]
    }

    /// Add a user to a group on every shard.
    pub fn join_group(&self, user: UserId, group: GroupId) -> Result<(), CqmsError> {
        self.shards
            .iter()
            .try_for_each(|s| s.join_group(user, group))
    }

    // ------------------------------------------------------------------
    // Write path (routed to the owning shard; only that shard locks)
    // ------------------------------------------------------------------

    /// Run + profile one query at the global clock (ticked by 30 s).
    pub fn run_query(&self, user: UserId, sql: &str) -> Result<ProfiledQuery, CqmsError> {
        let ts = self.tick();
        self.route_query(user, sql, ts)
    }

    /// Run + profile one query at an explicit trace time (the global clock
    /// never regresses: it advances to `max(now, ts)`).
    pub fn run_query_at(
        &self,
        user: UserId,
        sql: &str,
        ts: u64,
    ) -> Result<ProfiledQuery, CqmsError> {
        self.observe(ts);
        self.route_query(user, sql, ts)
    }

    fn route_query(&self, user: UserId, sql: &str, ts: u64) -> Result<ProfiledQuery, CqmsError> {
        let shard = self.shard_of(user);
        self.check_writable(shard)?;
        let mut out = self.shards[shard].run_query_at(user, sql, ts)?;
        out.id = self.globalize(shard, out.id);
        Ok(out)
    }

    /// Ingest a batch: items are timestamped against the global clock in
    /// order, partitioned by owning shard, ingested with **one write-lock
    /// acquisition and one WAL flush per touched shard**, and the results
    /// reassembled in input order with global ids. Shards not named by the
    /// batch are never locked.
    pub fn ingest_batch(&self, items: &[IngestItem]) -> Vec<Result<QueryId, CqmsError>> {
        if items.is_empty() {
            return Vec::new();
        }
        // Resolve every timestamp first so the batch observes one coherent
        // global order regardless of per-shard scheduling.
        let mut per_shard: Vec<(Vec<usize>, Vec<IngestItem>)> =
            vec![(Vec::new(), Vec::new()); self.shards.len()];
        for (pos, item) in items.iter().enumerate() {
            let ts = match item.ts {
                Some(ts) => {
                    self.observe(ts);
                    ts
                }
                None => self.tick(),
            };
            let shard = self.shard_of(item.user);
            per_shard[shard].0.push(pos);
            per_shard[shard]
                .1
                .push(IngestItem::at(item.user, item.sql.clone(), ts));
        }
        let mut out: Vec<Result<QueryId, CqmsError>> = items
            .iter()
            .map(|_| Err(CqmsError::NotFound("unrouted batch item".into())))
            .collect();
        for (shard, (positions, batch)) in per_shard.into_iter().enumerate() {
            if batch.is_empty() {
                continue;
            }
            if let Err(e) = self.check_writable(shard) {
                for pos in positions {
                    out[pos] = Err(e.clone());
                }
                continue;
            }
            let results = self.shards[shard].ingest_batch(&batch);
            for (pos, res) in positions.into_iter().zip(results) {
                out[pos] = res.map(|local| self.globalize(shard, local));
            }
        }
        out
    }

    /// Attach an annotation (routed by the global id's stripe).
    pub fn annotate(
        &self,
        actor: UserId,
        id: QueryId,
        text: &str,
        fragment: Option<&str>,
    ) -> Result<(), CqmsError> {
        let (shard, local) = self.locate(id);
        self.check_writable(shard)?;
        self.shards[shard].annotate(actor, local, text, fragment)
    }

    /// Change a query's ACL.
    pub fn set_visibility(
        &self,
        actor: UserId,
        id: QueryId,
        visibility: Visibility,
    ) -> Result<(), CqmsError> {
        let (shard, local) = self.locate(id);
        self.check_writable(shard)?;
        self.shards[shard].set_visibility(actor, local, visibility)
    }

    /// Tombstone a query.
    pub fn delete_query(&self, actor: UserId, id: QueryId) -> Result<(), CqmsError> {
        let (shard, local) = self.locate(id);
        self.check_writable(shard)?;
        self.shards[shard].delete_query(actor, local)
    }

    // ------------------------------------------------------------------
    // Read path (one snapshot per shard + exact lock-free k-way merges)
    // ------------------------------------------------------------------

    /// Grab every shard's published [`ReadSnapshot`] up front — one
    /// momentary slot lock per shard, in shard order, no ordering hazard
    /// (snapshots are immutable) — so the whole merged read then runs
    /// lock-free against one coherent per-shard cut.
    fn snapshots(&self) -> Vec<Arc<ReadSnapshot>> {
        self.shards.iter().map(CqmsService::snapshot).collect()
    }

    /// One shard's hits with their ids striped into the global id space
    /// (order is preserved: striping is monotone within a shard).
    fn globalize_hits(&self, shard: usize, hits: Vec<ScoredHit>) -> Vec<ScoredHit> {
        hits.into_iter()
            .map(|h| ScoredHit {
                id: self.globalize(shard, h.id),
                score: h.score,
            })
            .collect()
    }

    /// Per-shard id lists (indexed by shard) merged into one list of
    /// global ids, ascending.
    fn merge_ids(&self, per_shard: impl IntoIterator<Item = Vec<QueryId>>) -> Vec<QueryId> {
        let mut out: Vec<QueryId> = per_shard
            .into_iter()
            .enumerate()
            .flat_map(|(i, ids)| ids.into_iter().map(move |id| self.globalize(i, id)))
            .collect();
        out.sort();
        out
    }

    /// Run `probe` once per shard in `idxs` and collect the answers,
    /// indexed by shard id, plus the shards that did not answer
    /// (ascending).
    ///
    /// Without a deadline the probes run inline on the caller's thread in
    /// shard order and every shard answers. With one, each probe runs on
    /// a detached worker thread and answers are collected until
    /// `deadline`; shards that miss it are abandoned (their workers finish
    /// against a dropped channel) and reported as lagging.
    fn gather<T: Send + 'static>(
        &self,
        idxs: &[usize],
        deadline: Option<Instant>,
        probe: impl Fn(&CqmsService, usize) -> T + Send + Sync + 'static,
    ) -> (Vec<Option<T>>, Vec<usize>) {
        let mut results: Vec<Option<T>> = (0..self.shards.len()).map(|_| None).collect();
        let Some(deadline) = deadline else {
            for &i in idxs {
                results[i] = Some(probe(&self.shards[i], i));
            }
            return (results, Vec::new());
        };
        let probe = Arc::new(probe);
        let (tx, rx) = std::sync::mpsc::channel();
        for &i in idxs {
            let tx = tx.clone();
            let svc = self.shards[i].clone();
            let probe = Arc::clone(&probe);
            // Detached on purpose: joining would wait out the very
            // slowness the deadline exists to bound. The worker holds its
            // own service clone; a post-deadline send just fails.
            std::thread::spawn(move || {
                let out = probe(&svc, i);
                let _ = tx.send((i, out));
            });
        }
        drop(tx);
        let mut pending = idxs.len();
        while pending > 0 {
            let remaining = deadline.saturating_duration_since(Instant::now());
            match rx.recv_timeout(remaining) {
                Ok((i, out)) => {
                    results[i] = Some(out);
                    pending -= 1;
                }
                Err(_) => break, // deadline (or every worker already gone)
            }
        }
        let lagging = idxs
            .iter()
            .copied()
            .filter(|&i| results[i].is_none())
            .collect();
        (results, lagging)
    }

    fn all_shards(&self) -> Vec<usize> {
        (0..self.shards.len()).collect()
    }

    /// Live queries across all shards.
    pub fn live_count(&self) -> usize {
        self.snapshots().iter().map(|s| s.live_count()).sum()
    }

    /// TF-IDF keyword search, scored with **global** corpus statistics so
    /// the merged ranking is identical to an unsharded deployment's. Both
    /// passes run against the same per-shard snapshots, so concurrent
    /// writers cannot skew the IDF corpus between counting and scoring.
    pub fn search_keyword(&self, user: UserId, query: &str, k: usize) -> Vec<ScoredHit> {
        self.search_keyword_until(user, query, k, None).value
    }

    /// [`ShardedCqms::search_keyword`] under a deadline budget. Both
    /// passes of the global-stats protocol run under the same deadline:
    /// corpus statistics are summed over the shards that answered pass 1
    /// in time, and pass 2 probes only those shards with the remaining
    /// budget. **Weaker guarantee than kNN/substring**: when shards lag,
    /// the IDF corpus is the answering shards' corpus, so surviving
    /// scores can differ from the unsharded run (ranking within the
    /// answering corpus stays exact, and with no lagging shard the result
    /// is bit-identical to the undeadlined call).
    pub fn search_keyword_deadline(
        &self,
        user: UserId,
        query: &str,
        k: usize,
        budget: Duration,
    ) -> PartialResult<Vec<ScoredHit>> {
        self.search_keyword_until(user, query, k, Some(Instant::now() + budget))
    }

    fn search_keyword_until(
        &self,
        user: UserId,
        query: &str,
        k: usize,
        deadline: Option<Instant>,
    ) -> PartialResult<Vec<ScoredHit>> {
        // Pass 1: each probe pins its shard's snapshot (the only moment it
        // touches the shard at all — the `shard.read` failpoints fire
        // there) and counts the corpus on it.
        let q1 = query.to_string();
        let (stats, mut lagging) = self.gather(&self.all_shards(), deadline, move |svc, _| {
            let snap = svc.snapshot();
            let stats = snap.keyword_corpus_stats(&q1);
            (snap, stats)
        });
        let mut total_docs = 0u64;
        let mut df: HashMap<String, u64> = HashMap::new();
        let mut answered: Vec<usize> = Vec::new();
        let mut snaps: Vec<Option<Arc<ReadSnapshot>>> = Vec::with_capacity(stats.len());
        for (i, s) in stats.into_iter().enumerate() {
            let Some((snap, (n, local_df))) = s else {
                snaps.push(None);
                continue;
            };
            answered.push(i);
            snaps.push(Some(snap));
            total_docs += n;
            for (term, d) in local_df {
                *df.entry(term).or_insert(0) += d;
            }
        }
        // Pass 2: per-shard top-k under the answering corpus (remaining
        // budget only), scored on the *same* snapshots pass 1 counted —
        // writer churn between the passes cannot skew the IDF corpus.
        let q2 = query.to_string();
        let (results, lagging2) = self.gather(&answered, deadline, move |_, i| {
            let snap = snaps[i].as_ref().expect("answered shard pinned a snapshot");
            snap.search_keyword_with_corpus(user, &q2, k, total_docs, &df)
        });
        lagging.extend(lagging2);
        lagging.sort_unstable();
        lagging.dedup();
        let per_shard = results
            .into_iter()
            .enumerate()
            .map(|(i, hits)| self.globalize_hits(i, hits.unwrap_or_default()))
            .collect();
        PartialResult::new(merge_scored(per_shard, k), lagging)
    }

    /// Exact substring search; the merged output is ascending by global id.
    pub fn search_substring(&self, user: UserId, needle: &str) -> Vec<QueryId> {
        self.search_substring_until(user, needle, None).value
    }

    /// [`ShardedCqms::search_substring`] under a deadline budget: the
    /// value is exactly the full answer minus the lagging shards' ids
    /// (substring matching has no cross-shard scoring), ascending by
    /// global id.
    pub fn search_substring_deadline(
        &self,
        user: UserId,
        needle: &str,
        budget: Duration,
    ) -> PartialResult<Vec<QueryId>> {
        self.search_substring_until(user, needle, Some(Instant::now() + budget))
    }

    fn search_substring_until(
        &self,
        user: UserId,
        needle: &str,
        deadline: Option<Instant>,
    ) -> PartialResult<Vec<QueryId>> {
        let needle = needle.to_string();
        let (results, lagging) = self.gather(&self.all_shards(), deadline, move |svc, _| {
            svc.snapshot().search_substring(user, &needle)
        });
        let ids = self.merge_ids(results.into_iter().map(Option::unwrap_or_default));
        PartialResult::new(ids, lagging)
    }

    /// Structural search by parse-tree pattern (ascending global ids).
    pub fn search_parse_tree(&self, user: UserId, pattern: &TreePattern) -> Vec<QueryId> {
        self.merge_ids(
            self.snapshots()
                .iter()
                .map(|snap| snap.search_parse_tree(user, pattern)),
        )
    }

    /// Query-by-data across shards (ascending global ids). With
    /// `reexecute` the sampled candidates need each shard's live data
    /// engine, so that variant runs under the shards' read locks.
    pub fn search_by_data(
        &self,
        user: UserId,
        include: &[&str],
        exclude: &[&str],
        reexecute: bool,
    ) -> Vec<QueryId> {
        if reexecute {
            self.merge_ids(
                self.shards
                    .iter()
                    .map(|s| s.search_by_data_reexecuting(user, include, exclude)),
            )
        } else {
            self.merge_ids(
                self.snapshots()
                    .iter()
                    .map(|snap| snap.search_by_data(user, include, exclude)),
            )
        }
    }

    /// kNN similarity search: per-shard bound-ordered sweeps, merged by a
    /// heap over shard cursors — id-and-score equal to an unsharded scan
    /// (distances depend only on record content).
    pub fn similar_queries(
        &self,
        user: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
    ) -> Result<Vec<ScoredHit>, CqmsError> {
        Ok(self
            .similar_queries_until(user, sql, k, metric, None)?
            .value)
    }

    /// [`ShardedCqms::similar_queries`] under a deadline budget: shards
    /// are probed in parallel and the merge runs over those that answered
    /// within `budget`; the rest are reported in
    /// [`PartialResult::lagging_shards`] instead of blocking the caller.
    ///
    /// **Exactness**: kNN scores depend only on record content, so the
    /// partial value is precisely the full merged top-k *restricted to
    /// the answering shards* — equivalently, the full answer with the
    /// lagging shards' hits deleted and the next-best answering-shard
    /// hits pulled up. In particular the full top-k filtered to answering
    /// shards is a prefix of the partial value (pinned by
    /// `tests/faults.rs`). With no lagging shard the result is
    /// bit-identical to the undeadlined call.
    pub fn similar_queries_deadline(
        &self,
        user: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
        budget: Duration,
    ) -> Result<PartialResult<Vec<ScoredHit>>, CqmsError> {
        self.similar_queries_until(user, sql, k, metric, Some(Instant::now() + budget))
    }

    fn similar_queries_until(
        &self,
        user: UserId,
        sql: &str,
        k: usize,
        metric: DistanceKind,
        deadline: Option<Instant>,
    ) -> Result<PartialResult<Vec<ScoredHit>>, CqmsError> {
        let sql = sql.to_string();
        let (results, lagging) = self.gather(&self.all_shards(), deadline, move |svc, _| {
            svc.snapshot().similar_queries(user, &sql, k, metric)
        });
        let mut per_shard = Vec::with_capacity(self.shards.len());
        for (i, res) in results.into_iter().enumerate() {
            let Some(res) = res else { continue };
            // A real per-shard error (e.g. unparsable seed SQL) is the
            // same on every shard — propagate it rather than degrade.
            per_shard.push(self.globalize_hits(i, res?));
        }
        Ok(PartialResult::new(merge_scored(per_shard, k), lagging))
    }

    /// SQL meta-query over the feature relations, run on every shard's
    /// pinned snapshot with rows concatenated in shard order. Every output
    /// column that is a bare reference to a `qid` column is remapped to
    /// global ids; SQL aggregates are per-shard (see module docs).
    pub fn search_feature_sql(
        &self,
        user: UserId,
        sql: &str,
    ) -> Result<relstore::QueryResult, CqmsError> {
        let qid_cols = match sqlparse::parse(sql) {
            Ok(Statement::Select(stmt)) => qid_columns(&stmt),
            _ => Vec::new(), // every shard reports the error
        };
        let mut merged: Option<relstore::QueryResult> = None;
        for (i, s) in self.snapshots().iter().enumerate() {
            let mut r = s.search_feature_sql(user, sql)?;
            for row in &mut r.rows {
                for &ci in &qid_cols {
                    if let relstore::Value::Int(v) = row[ci] {
                        if v >= 0 {
                            let global = self.globalize(i, QueryId(v as u64));
                            row[ci] = relstore::Value::Int(global.0 as i64);
                        }
                    }
                }
            }
            match &mut merged {
                None => merged = Some(r),
                Some(m) => m.rows.extend(r.rows),
            }
        }
        Ok(merged.expect("at least one shard"))
    }

    /// Completions scored from **globally merged** statistics: every
    /// shard contributes its summable [`CompletionStats`] — association
    /// co-occurrence counts, table/attribute popularity, predicate
    /// histograms — and the suggestions are scored once from the totals.
    /// Bit-identical to an unsharded deployment over the union log (shard
    /// catalogs are identical by construction, so any shard can score).
    pub fn complete(&self, user: UserId, partial_sql: &str, k: usize) -> Vec<Suggestion> {
        let _ = user; // visibility does not gate completion stats
        let snaps = self.snapshots();
        let mut merged = CompletionStats::default();
        for snap in &snaps {
            merged.merge(&snap.completion_stats(partial_sql));
        }
        match snaps.first() {
            Some(snap) => snap.complete_with_stats(partial_sql, k, &merged),
            None => Vec::new(),
        }
    }

    /// The recommendation panel merged across shards **exactly**: the
    /// seed is parsed once, the per-shard kNN candidate pools are
    /// heap-merged into the global pool a single instance would sweep,
    /// every candidate is rank-scored on its home shard with the *global*
    /// recency anchor (max trace time) and template-popularity terms, so
    /// a candidate's rank score is placement-independent, and only the
    /// `k` rows shown are rendered. Row-for-row identical to an unsharded
    /// deployment over the union log, up to the usual top-k tie caveat:
    /// kNN-score ties at the `3k` candidate-pool boundary cut by id, and
    /// the two deployments' id spaces order tied records differently.
    pub fn recommend(
        &self,
        user: UserId,
        seed_sql: &str,
        k: usize,
    ) -> Result<Vec<PanelRow>, CqmsError> {
        let seed = recommend::seed_probe(user, seed_sql)?;
        let snaps = self.snapshots();
        // Global ranking terms: summed template counts, max trace time.
        let mut pop: HashMap<u64, u32> = HashMap::new();
        let mut now_ts = 0u64;
        for snap in &snaps {
            now_ts = now_ts.max(snap.panel_now_ts());
            for (fp, c) in snap.storage().template_counts() {
                *pop.entry(fp).or_insert(0) += c;
            }
        }
        let max_pop = pop.values().copied().max().unwrap_or(0);
        // The candidate pool: merged per-shard top-m. A shard's top-m
        // union contains the global top-m, and the heap merge uses the
        // executor's own (score desc, id asc) order, so this is exactly
        // the pool an unsharded sweep would hand to the scorer.
        let m = k * 3;
        let per_shard: Vec<Vec<ScoredHit>> = snaps
            .iter()
            .enumerate()
            .map(|(i, snap)| {
                let hits = recommend::knn_candidates(
                    snap.storage(),
                    snap.directory(),
                    snap.config(),
                    user,
                    &seed,
                    m,
                );
                self.globalize_hits(i, hits)
            })
            .collect();
        let pool = merge_scored(per_shard, m);
        // Rank each candidate on its home shard (the record lives there)
        // with the merged global terms.
        let mut by_shard: Vec<Vec<ScoredHit>> = vec![Vec::new(); snaps.len()];
        for h in pool {
            let (shard, local) = self.locate(h.id);
            by_shard[shard].push(ScoredHit { id: local, ..h });
        }
        let popularity_of = |fp: u64| pop.get(&fp).copied().unwrap_or(0);
        let mut ranked: Vec<(f64, QueryId)> = Vec::new();
        for (i, hits) in by_shard.iter().enumerate() {
            let (storage, config) = (snaps[i].storage(), snaps[i].config());
            for (score, local) in
                recommend::rank_candidates(storage, config, hits, now_ts, max_pop, &popularity_of)?
            {
                ranked.push((score, self.globalize(i, local)));
            }
        }
        sort_ranked(&mut ranked);
        ranked
            .into_iter()
            .take(k)
            .map(|(score, id)| {
                let (shard, local) = self.locate(id);
                let row = recommend::panel_row(snaps[shard].storage(), &seed, local, score)?;
                Ok(PanelRow { id, ..row })
            })
            .collect()
    }

    /// Identifier checking is schema-driven and identical on every shard.
    pub fn check_identifiers(&self, sql: &str) -> Vec<Correction> {
        self.shards[0].check_identifiers(sql)
    }

    /// Empty-result repair (schema + data driven; shard 0's data engine).
    pub fn repair_empty_result(&self, sql: &str, k: usize) -> Vec<RepairSuggestion> {
        self.shards[0].repair_empty_result(sql, k)
    }

    /// Association rules from every shard's miner, concatenated.
    pub fn association_rules(&self) -> Vec<AssocRule> {
        self.snapshots()
            .iter()
            .flat_map(|snap| snap.association_rules().iter().cloned())
            .collect()
    }

    // ------------------------------------------------------------------
    // Background maintenance (per shard)
    // ------------------------------------------------------------------

    /// Run one synchronous miner epoch on every shard.
    pub fn run_miner_epoch(&self) -> Vec<MinerReport> {
        self.shards
            .iter()
            .map(CqmsService::run_miner_epoch)
            .collect()
    }

    /// Run one Query Maintenance pass on every shard.
    ///
    /// Quality's efficiency term ranks each query's latency against the
    /// *live corpus* — a global statistic. The shards' bases are merged
    /// up front (one snapshot per shard) and passed to every shard's
    /// pass, so maintained quality matches a single instance record for
    /// record and recommendation rank scores stay placement-independent.
    pub fn run_maintenance(&self) -> Result<Vec<(MaintenanceReport, RefreshReport)>, CqmsError> {
        let mut basis: Vec<u64> = Vec::new();
        for snap in self.snapshots() {
            basis.extend(snap.latency_basis());
        }
        basis.sort_unstable();
        self.shards
            .iter()
            .map(|s| s.run_maintenance_with_basis(Some(&basis)))
            .collect()
    }

    /// Execute scheduled index rebuilds; returns how many shards rebuilt.
    pub fn rebuild_indexes(&self) -> usize {
        self.shards.iter().filter(|s| s.rebuild_indexes()).count()
    }

    /// Start one background miner per shard (all idle → `true`).
    pub fn start_miner(&self, interval: Duration) -> bool {
        // Eagerly start every shard's miner before folding the answers —
        // a short-circuiting `all` would leave later shards unmined.
        let started: Vec<bool> = self
            .shards
            .iter()
            .map(|s| s.start_miner(interval))
            .collect();
        started.into_iter().all(|s| s)
    }

    /// Stop every shard's miner; total epochs, or `None` if none ran.
    pub fn stop_miner(&self) -> Option<usize> {
        let epochs: Vec<usize> = self
            .shards
            .iter()
            .filter_map(CqmsService::stop_miner)
            .collect();
        if epochs.is_empty() {
            None
        } else {
            Some(epochs.into_iter().sum())
        }
    }

    // ------------------------------------------------------------------
    // Repair supervisor lifecycle
    // ------------------------------------------------------------------

    /// Degraded shards still worth repairing: fenced, budget not
    /// exhausted, no attempt currently in flight.
    fn repair_pending(&self) -> usize {
        let st = self.state.read();
        st.fenced
            .iter()
            .filter(|s| !st.exhausted.contains(s))
            .count()
    }

    /// Start the background repair supervisor: every `interval` it runs
    /// one repair epoch ([`ShardedCqms::run_repair_epoch`]) until every
    /// degraded shard is promoted or exhausted, then parks. Returns
    /// `false` when already running or when this deployment has no
    /// durable directory to repair from ([`ShardedCqms::new`]).
    pub fn start_repair(&self, interval: Duration) -> bool {
        if self.repair_ctx.is_none() {
            return false;
        }
        let mut slot = self.repairer.lock();
        if slot.is_some() {
            return false;
        }
        let this = self.clone();
        let (stop_tx, stop_rx) = sync_channel::<()>(1);
        let handle = std::thread::Builder::new()
            .name("cqms-repair".into())
            .spawn(move || {
                let mut promoted_total = 0usize;
                loop {
                    match stop_rx.recv_timeout(interval) {
                        Ok(()) | Err(RecvTimeoutError::Disconnected) => break,
                        Err(RecvTimeoutError::Timeout) => {}
                    }
                    promoted_total += this.run_repair_epoch().len();
                    if this.repair_pending() == 0 {
                        // Everything healed (or gave up): nothing left to
                        // poll for. stop_repair still joins cleanly.
                        break;
                    }
                }
                promoted_total
            })
            .expect("spawn cqms-repair supervisor");
        *slot = Some(BackgroundRepairer {
            stop_tx,
            handle: Some(handle),
        });
        true
    }

    /// Is the background repair supervisor attached?
    pub fn repair_running(&self) -> bool {
        self.repairer.lock().is_some()
    }

    /// Stop the background repair supervisor, if any: the thread is
    /// joined and the number of shards it promoted is returned.
    pub fn stop_repair(&self) -> Option<usize> {
        let handle = self.repairer.lock().take();
        handle.map(BackgroundRepairer::stop)
    }

    /// Run one synchronous repair epoch: attempt recovery of every
    /// degraded shard whose budget allows it, promoting each success back
    /// to serving. Returns the shards promoted this epoch, ascending.
    ///
    /// Recovery runs **off-lock** — only the repaired shard's own lock is
    /// touched, briefly, at promotion; healthy shards never block. Safe
    /// to call concurrently with the background supervisor: a shard with
    /// an attempt already in flight is skipped.
    pub fn run_repair_epoch(&self) -> Vec<usize> {
        let Some(ctx) = self.repair_ctx.clone() else {
            return Vec::new();
        };
        let candidates: Vec<usize> = {
            let mut st = self.state.write();
            let DegradedState {
                fenced,
                repairing,
                exhausted,
                ..
            } = &mut *st;
            let c: Vec<usize> = fenced
                .iter()
                .copied()
                .filter(|s| !exhausted.contains(s) && !repairing.contains(s))
                .collect();
            repairing.extend(c.iter().copied());
            repairing.sort_unstable();
            c
        };
        let mut promoted = Vec::new();
        for shard in candidates {
            if self.try_repair_shard(&ctx, shard) {
                promoted.push(shard);
            }
        }
        promoted
    }

    /// One repair attempt for one shard: re-open its directory off-lock
    /// (salvage + quarantine happen inside [`crate::wal::open_dir`]) and
    /// promote the recovered instance on success. Never panics — a panic
    /// inside recovery is caught and recorded as a failed attempt.
    fn try_repair_shard(&self, ctx: &RepairContext, shard: usize) -> bool {
        // Failpoints first (ambient plan, then the shard's own service
        // plan), so chaos tests can fail/stall/panic an attempt before
        // any real I/O happens.
        let fault = faults::global_plan()
            .hit(faults::REPAIR_ATTEMPT)
            .and_then(|()| self.shards[shard].fault_plan().hit(faults::REPAIR_ATTEMPT));
        let attempt = {
            let mut st = self.state.write();
            st.attempts[shard] += 1;
            st.attempts[shard]
        };
        let outcome = match fault {
            Err(e) => Err(CqmsError::ShardOpen {
                shard,
                detail: format!("repair attempt {attempt} failed: {e}"),
            }),
            Ok(()) => {
                let dir = ctx.dir.join(format!("shard-{shard}"));
                let config = ctx.config.clone();
                match catch_unwind(AssertUnwindSafe(|| {
                    let engine = (*ctx.factory.lock())();
                    Cqms::open(engine, config, dir)
                })) {
                    Ok(Ok(cqms)) => Ok(cqms),
                    Ok(Err(e)) => Err(CqmsError::ShardOpen {
                        shard,
                        detail: format!("repair attempt {attempt}: {e}"),
                    }),
                    Err(_) => Err(CqmsError::ShardOpen {
                        shard,
                        detail: format!("repair attempt {attempt} panicked"),
                    }),
                }
            }
        };
        match outcome {
            Ok(cqms) => self.promote(shard, cqms),
            Err(err) => {
                self.record_repair_failure(ctx, shard, err);
                false
            }
        }
    }

    /// Swap a recovered instance in for the degraded placeholder and
    /// un-fence writes. Replace happens strictly **before** un-fencing,
    /// so the first post-promotion writer is guaranteed to hit the
    /// recovered instance, never the empty placeholder.
    fn promote(&self, shard: usize, cqms: Cqms) -> bool {
        self.clock.fetch_max(cqms.now(), Ordering::SeqCst);
        let report = cqms.recovery().cloned().unwrap_or_default();
        match self.shards[shard].try_replace(cqms) {
            Ok(_placeholder) => {
                let mut st = self.state.write();
                st.fenced.retain(|s| *s != shard);
                st.repairing.retain(|s| *s != shard);
                st.recovery[shard] = Ok(report);
                true
            }
            Err(_recovered) => {
                // The shard lock stayed held for the whole grace budget.
                // Drop the recovered instance (its WAL is durable) and
                // let a later epoch retry from disk.
                let err = CqmsError::ShardOpen {
                    shard,
                    detail: "repaired, but promotion timed out on the shard lock".into(),
                };
                let mut st = self.state.write();
                st.repairing.retain(|s| *s != shard);
                st.recovery[shard] = Err(err);
                false
            }
        }
    }

    /// Record a failed attempt, clearing the in-flight mark and fencing
    /// the shard out of future epochs once its budget is exhausted.
    fn record_repair_failure(&self, ctx: &RepairContext, shard: usize, err: CqmsError) {
        let mut st = self.state.write();
        st.repairing.retain(|s| *s != shard);
        st.recovery[shard] = Err(err);
        let max = ctx.config.repair_max_attempts;
        if max > 0 && st.attempts[shard] >= max && !st.exhausted.contains(&shard) {
            st.exhausted.push(shard);
            st.exhausted.sort_unstable();
        }
    }

    /// Graceful shutdown of all shards: the repair supervisor is joined
    /// and every shard's miner runs its final epoch.
    pub fn shutdown(&self) -> Option<usize> {
        let _ = self.stop_repair();
        self.stop_miner()
    }
}

/// Exact k-way merge of per-shard `(score desc, id asc)` result lists via a
/// binary heap over shard cursors. Each input list must already be sorted
/// in that order (which every per-shard search guarantees); the output is
/// the global top-k in the same order.
fn merge_scored(per_shard: Vec<Vec<ScoredHit>>, k: usize) -> Vec<ScoredHit> {
    struct Cursor {
        shard: usize,
        pos: usize,
        head: ScoredHit,
    }
    impl PartialEq for Cursor {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == CmpOrdering::Equal
        }
    }
    impl Eq for Cursor {}
    impl PartialOrd for Cursor {
        fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Cursor {
        fn cmp(&self, other: &Self) -> CmpOrdering {
            // Max-heap: better hit = higher score, then smaller id.
            self.head
                .score
                .partial_cmp(&other.head.score)
                .unwrap_or(CmpOrdering::Equal)
                .then_with(|| other.head.id.cmp(&self.head.id))
        }
    }
    let mut heap: BinaryHeap<Cursor> = per_shard
        .iter()
        .enumerate()
        .filter_map(|(shard, hits)| {
            hits.first().map(|h| Cursor {
                shard,
                pos: 0,
                head: h.clone(),
            })
        })
        .collect();
    let mut out = Vec::with_capacity(k);
    while out.len() < k {
        let Some(cur) = heap.pop() else { break };
        out.push(cur.head);
        let next_pos = cur.pos + 1;
        if let Some(h) = per_shard[cur.shard].get(next_pos) {
            heap.push(Cursor {
                shard: cur.shard,
                pos: next_pos,
                head: h.clone(),
            });
        }
    }
    out
}

/// Output positions of a feature meta-query that are bare references to a
/// `qid` column, aliased or not, wildcard expansions included. An
/// aggregate or any other expression is never one, whatever its alias.
fn qid_columns(stmt: &SelectStatement) -> Vec<usize> {
    let is_qid = |name: &str| name.eq_ignore_ascii_case("qid");
    let factors: Vec<(&str, &str)> = stmt
        .from
        .iter()
        .flat_map(|t| {
            let joins = t.joins.iter().map(|j| (j.binding_name(), j.table.as_str()));
            std::iter::once((t.binding_name(), t.name.as_str())).chain(joins)
        })
        .collect();
    // A wildcard expands to each table's columns, named as in the schema.
    let expand = |table: &str| -> Vec<bool> {
        let relation = FEATURE_RELATIONS
            .iter()
            .find(|(name, _)| name.eq_ignore_ascii_case(table));
        relation.map_or(Vec::new(), |(_, cols)| {
            cols.iter().map(|(c, _)| is_qid(c)).collect()
        })
    };
    let mut output: Vec<bool> = Vec::new();
    for item in &stmt.projection {
        match item {
            SelectItem::Expr { expr, .. } => {
                output.push(matches!(expr, Expr::Column(c) if is_qid(&c.name)));
            }
            SelectItem::Wildcard => {
                output.extend(factors.iter().flat_map(|(_, table)| expand(table)));
            }
            SelectItem::QualifiedWildcard(q) => {
                let factor = factors.iter().find(|(b, _)| b.eq_ignore_ascii_case(q));
                output.extend(factor.map_or(Vec::new(), |(_, table)| expand(table)));
            }
        }
    }
    (0..output.len()).filter(|&i| output[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workload::Domain;

    fn engine_factory() -> impl FnMut() -> Engine {
        || {
            let mut e = Engine::new();
            Domain::Lakes.setup(&mut e, 60, 3);
            e
        }
    }

    fn sharded(n: usize) -> ShardedCqms {
        let config = CqmsConfig {
            shards: n,
            wal_fsync: false,
            ..CqmsConfig::default()
        };
        ShardedCqms::new(engine_factory(), config)
    }

    #[test]
    fn stripe_roundtrips() {
        let s = sharded(4);
        for shard in 0..4 {
            for local in [0u64, 1, 7, 1000] {
                let g = s.globalize(shard, QueryId(local));
                assert_eq!(s.locate(g), (shard, QueryId(local)));
            }
        }
    }

    #[test]
    fn users_route_stably_and_ids_are_globally_unique() {
        let s = sharded(4);
        let users: Vec<UserId> = (0..12)
            .map(|i| s.register_user(&format!("user{i}")))
            .collect();
        let mut seen = std::collections::HashSet::new();
        for &u in &users {
            assert_eq!(s.shard_of(u), s.shard_of(u));
            let id = s
                .run_query(u, "SELECT lake, temp FROM WaterTemp WHERE temp < 18")
                .unwrap()
                .id;
            assert!(seen.insert(id), "duplicate global id {id}");
        }
        assert_eq!(s.live_count(), 12);
    }

    #[test]
    fn global_clock_is_monotonic_across_shards() {
        let s = sharded(4);
        let a = s.register_user("alice");
        let b = s.register_user("bob");
        s.run_query_at(a, "SELECT * FROM WaterTemp", 100).unwrap();
        s.run_query_at(b, "SELECT * FROM WaterTemp", 130).unwrap();
        // Ticking query advances past both, whichever shard it lands on.
        s.run_query(a, "SELECT salinity FROM WaterSalinity")
            .unwrap();
        assert_eq!(s.now(), 160);
        // Stale explicit timestamp never rewinds.
        s.run_query_at(b, "SELECT * FROM WaterTemp WHERE temp < 5", 40)
            .unwrap();
        assert_eq!(s.now(), 160);
    }

    #[test]
    fn batched_ingest_reassembles_in_input_order() {
        let s = sharded(3);
        let users: Vec<UserId> = (0..6)
            .map(|i| s.register_user(&format!("user{i}")))
            .collect();
        let items: Vec<IngestItem> = users
            .iter()
            .enumerate()
            .map(|(i, &u)| IngestItem::new(u, format!("SELECT * FROM WaterTemp WHERE temp < {i}")))
            .collect();
        let results = s.ingest_batch(&items);
        assert_eq!(results.len(), 6);
        for (i, (res, &u)) in results.iter().zip(&users).enumerate() {
            let id = *res.as_ref().unwrap();
            let (shard, local) = s.locate(id);
            assert_eq!(shard, s.shard_of(u), "item {i} landed on the wrong shard");
            let sql = s.shards()[shard].read(|c| c.storage.get(local).unwrap().raw_sql.clone());
            assert!(sql.contains(&format!("temp < {i}")));
        }
        assert!(s.ingest_batch(&[]).is_empty());
    }

    #[test]
    fn id_addressed_mutations_route_through_the_stripe() {
        let s = sharded(4);
        let u = s.register_user("alice");
        let id = s
            .run_query(u, "SELECT lake FROM WaterTemp WHERE temp < 18")
            .unwrap()
            .id;
        s.annotate(u, id, "cold lakes", None).unwrap();
        s.set_visibility(u, id, Visibility::Private).unwrap();
        assert_eq!(s.live_count(), 1);
        s.delete_query(u, id).unwrap();
        assert_eq!(s.live_count(), 0);
    }

    #[test]
    fn cross_shard_searches_see_everything() {
        let s = sharded(4);
        let users: Vec<UserId> = (0..8)
            .map(|i| s.register_user(&format!("user{i}")))
            .collect();
        for (i, &u) in users.iter().enumerate() {
            s.run_query(
                u,
                &format!("SELECT lake, temp FROM WaterTemp WHERE temp < {}", 10 + i),
            )
            .unwrap();
        }
        let viewer = users[0];
        assert_eq!(s.search_substring(viewer, "WaterTemp").len(), 8);
        let sub = s.search_substring(viewer, "temp < 10");
        assert_eq!(sub.len(), 1);
        let hits = s.search_keyword(viewer, "watertemp temp", 20);
        assert_eq!(hits.len(), 8);
        for w in hits.windows(2) {
            assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id),
                "merged keyword hits out of order: {hits:?}"
            );
        }
        let knn = s
            .similar_queries(
                viewer,
                "SELECT lake, temp FROM WaterTemp WHERE temp < 12",
                5,
                DistanceKind::Features,
            )
            .unwrap();
        assert_eq!(knn.len(), 5);
    }

    #[test]
    fn feature_sql_concatenates_shards_and_remaps_ids() {
        let s = sharded(2);
        let a = s.register_user("alice");
        let b = s.register_user("bob");
        let ia = s.run_query(a, "SELECT temp FROM WaterTemp").unwrap().id;
        let ib = s.run_query(b, "SELECT temp FROM WaterTemp").unwrap().id;
        let r = s.search_feature_sql(a, "SELECT qid FROM Queries").unwrap();
        let mut got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| match row[0] {
                relstore::Value::Int(v) => v,
                ref other => panic!("unexpected value {other:?}"),
            })
            .collect();
        got.sort();
        let mut want = vec![ia.0 as i64, ib.0 as i64];
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn single_shard_degenerates_to_unsharded_behaviour() {
        let s = sharded(1);
        let u = s.register_user("alice");
        let id = s.run_query(u, "SELECT * FROM WaterTemp").unwrap().id;
        assert_eq!(s.locate(id), (0, id));
        assert_eq!(s.now(), 30);
    }

    #[test]
    fn merge_scored_is_an_exact_top_k() {
        let hit = |id: u64, score: f64| ScoredHit {
            id: QueryId(id),
            score,
        };
        // Shard lists in (score desc, id asc) order, ids striped mod 2.
        let a = vec![hit(0, 0.9), hit(2, 0.5), hit(4, 0.5)];
        let b = vec![hit(1, 0.9), hit(3, 0.7)];
        let merged = merge_scored(vec![a, b], 4);
        let ids: Vec<u64> = merged.iter().map(|h| h.id.0).collect();
        assert_eq!(ids, vec![0, 1, 3, 2], "{merged:?}");
    }

    #[test]
    fn miners_run_per_shard() {
        let s = sharded(3);
        let users: Vec<UserId> = (0..6)
            .map(|i| s.register_user(&format!("user{i}")))
            .collect();
        for &u in &users {
            for i in 0..4 {
                s.run_query(
                    u,
                    &format!(
                        "SELECT * FROM WaterSalinity S, WaterTemp T \
                         WHERE S.loc_x = T.loc_x AND T.temp < {i}"
                    ),
                )
                .unwrap();
            }
        }
        let reports = s.run_miner_epoch();
        assert_eq!(reports.len(), 3);
        assert!(reports.iter().all(|r| r.wal_flush_error.is_none()));
        assert!(s.start_miner(Duration::from_secs(3600)));
        assert!(!s.start_miner(Duration::from_secs(3600)));
        let epochs = s.shutdown().expect("miners were running");
        assert_eq!(epochs, 3, "one final epoch per shard");
    }
}
