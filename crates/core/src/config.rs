//! Tunable parameters (paper §2.4: "adjust tunable parameters such as the
//! sample size for the query-by-data approach").

/// How much the Query Profiler captures per query (ablation A5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfilingDepth {
    /// Log raw text only (the paper's "simplest data model").
    Text,
    /// Text + syntactic feature extraction into the Fig. 1 relations.
    Features,
    /// Features + runtime statistics + output summarisation (§4.1).
    Full,
}

/// All CQMS tunables with paper-faithful defaults.
#[derive(Debug, Clone)]
pub struct CqmsConfig {
    /// How much the profiler captures per query.
    pub profiling_depth: ProfilingDepth,

    // --- Output summarisation (§4.1) ---
    /// Reservoir size for sampled output summaries.
    pub output_sample_size: usize,
    /// Store the whole output when `rows ≤ max(full_output_min_rows,
    /// elapsed_ms × full_output_rows_per_ms)` — the paper's adaptive rule
    /// ("two hours / ten rows ⇒ store all; two seconds / 2M rows ⇒ don't").
    pub full_output_min_rows: u64,
    /// Rows of full-output budget earned per millisecond of runtime.
    pub full_output_rows_per_ms: f64,
    /// Hard cap on stored full outputs.
    pub full_output_max_rows: u64,

    // --- Session detection (§2.2/§4.1) ---
    /// Queries by the same user within this many seconds continue a session.
    pub session_idle_gap_secs: u64,
    /// Queries beyond the gap can still continue a session when at least
    /// this similar (template feature overlap), and queries within the gap
    /// break the session when utterly dissimilar.
    pub session_similarity_threshold: f64,

    // --- Assisted interaction (§2.3) ---
    /// Request an annotation when a query joins at least this many tables…
    pub annotate_table_threshold: usize,
    /// …or contains nesting.
    pub annotate_on_subquery: bool,

    // --- Mining (§4.3) ---
    /// Minimum absolute support for frequent itemsets.
    pub assoc_min_support: u32,
    /// Minimum confidence for published association rules.
    pub assoc_min_confidence: f64,
    /// Iteration cap for the k-medoids refinement loop.
    pub cluster_max_iters: usize,

    // --- Maintenance (§4.4) ---
    /// Drift score above which stored runtime statistics are refreshed.
    pub refresh_drift_threshold: f64,
    /// Max queries re-executed per refresh epoch.
    pub refresh_budget: usize,

    // --- Similarity / ranking (§2.3/§4.2) ---
    /// Feature-distance weight of the tables namespace.
    pub weight_tables: f64,
    /// Feature-distance weight of the attributes namespace.
    pub weight_attributes: f64,
    /// Feature-distance weight of the predicate-template namespace.
    pub weight_predicates: f64,
    /// Ranking weight of similarity to the seed.
    pub rank_similarity: f64,
    /// Ranking weight of template popularity.
    pub rank_popularity: f64,
    /// Ranking weight of recency.
    pub rank_recency: f64,
    /// Ranking weight of the maintained quality score.
    pub rank_quality: f64,

    // --- Durability (WAL + snapshots) ---
    /// `fsync` the log at every flush point and snapshots at every rename.
    /// Leave on for real deployments; tests and benches may disable it to
    /// measure the non-syscall overhead in isolation.
    pub wal_fsync: bool,
    /// Write a snapshot (and truncate the log) once this many operations
    /// have been logged since the last one. Checked by the miner epoch, so
    /// snapshots ride the existing background-maintenance seam.
    pub snapshot_every_ops: u64,

    // --- Admission control (overload robustness) ---
    /// Max concurrent admitted ingest requests per shard (the write-lock
    /// wait line). Request depth+1 is shed immediately with
    /// [`crate::error::CqmsError::Overloaded`] instead of queueing
    /// unboundedly. `0` disables the depth gate. Honours the
    /// `CQMS_INGEST_QUEUE_DEPTH` environment variable.
    pub ingest_queue_depth: usize,
    /// Per-user ingest token-bucket refill rate, requests/second.
    /// `0.0` (the default) disables rate limiting. Honours `CQMS_USER_RATE`.
    pub user_rate_limit: f64,
    /// Per-user token-bucket capacity (burst allowance). Honours
    /// `CQMS_USER_BURST`.
    pub user_rate_burst: f64,
    /// When true, [`crate::shard::ShardedCqms::open`] survives a corrupt
    /// or unreadable shard directory by opening that shard *degraded*
    /// (empty, rejecting writes with
    /// [`crate::error::CqmsError::ShardUnavailable`]) instead of failing
    /// the whole open. Honours `CQMS_OPEN_DEGRADED`.
    pub open_degraded: bool,

    // --- Sharding ---
    /// Number of independently write-locked shards a
    /// [`crate::shard::ShardedCqms`] splits the query log into. Queries
    /// route by user hash; `1` is an unsharded deployment. Defaults to
    /// `min(8, available cores)` and honours the `CQMS_SHARDS` environment
    /// variable (CI's shard-stress lever).
    pub shards: usize,
    /// How often the shard repair supervisor re-attempts recovery of
    /// degraded shards, in milliseconds. `0` disables the background
    /// loop (repairs then only happen via
    /// [`crate::shard::ShardedCqms::run_repair_epoch`]). Honours
    /// `CQMS_REPAIR_INTERVAL_MS`.
    pub repair_interval_ms: u64,
    /// Give up on a degraded shard after this many failed repair
    /// attempts (it stays fenced until restart). `0` means retry
    /// forever. Honours `CQMS_REPAIR_MAX_ATTEMPTS`.
    pub repair_max_attempts: u64,

    /// Deterministic seed for sampling/clustering.
    pub seed: u64,
}

/// The default shard count: `CQMS_SHARDS` when set and positive, otherwise
/// `min(8, available cores)`.
pub fn default_shards() -> usize {
    if let Ok(s) = std::env::var("CQMS_SHARDS") {
        if let Ok(n) = s.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get().min(8))
        .unwrap_or(1)
}

/// Parse environment variable `name`, falling back to `default` when the
/// variable is unset or malformed.
fn env_or<T: std::str::FromStr>(name: &str, default: T) -> T {
    std::env::var(name)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

/// The default ingest gate depth: `CQMS_INGEST_QUEUE_DEPTH` when set,
/// otherwise 64 (≫ any reasonable writer-thread count; 0 disables).
pub fn default_ingest_queue_depth() -> usize {
    env_or("CQMS_INGEST_QUEUE_DEPTH", 64)
}

/// The default per-user rate limit: `CQMS_USER_RATE` when set, otherwise
/// 0.0 (rate limiting off).
pub fn default_user_rate_limit() -> f64 {
    env_or("CQMS_USER_RATE", 0.0)
}

/// The default per-user burst: `CQMS_USER_BURST` when set, otherwise 32.
pub fn default_user_rate_burst() -> f64 {
    env_or("CQMS_USER_BURST", 32.0)
}

/// The default degraded-open policy: `CQMS_OPEN_DEGRADED` truthy
/// (`1`/`true`) when set, otherwise false.
pub fn default_open_degraded() -> bool {
    std::env::var("CQMS_OPEN_DEGRADED")
        .map(|v| {
            let v = v.trim();
            v == "1" || v.eq_ignore_ascii_case("true")
        })
        .unwrap_or(false)
}

/// The default repair-loop interval: `CQMS_REPAIR_INTERVAL_MS` when set,
/// otherwise 200 ms.
pub fn default_repair_interval_ms() -> u64 {
    env_or("CQMS_REPAIR_INTERVAL_MS", 200)
}

/// The default repair attempt cap: `CQMS_REPAIR_MAX_ATTEMPTS` when set,
/// otherwise 0 (retry forever).
pub fn default_repair_max_attempts() -> u64 {
    env_or("CQMS_REPAIR_MAX_ATTEMPTS", 0)
}

impl Default for CqmsConfig {
    fn default() -> Self {
        CqmsConfig {
            profiling_depth: ProfilingDepth::Full,
            output_sample_size: 32,
            full_output_min_rows: 10,
            full_output_rows_per_ms: 1.0,
            full_output_max_rows: 1000,
            session_idle_gap_secs: 600,
            session_similarity_threshold: 0.2,
            annotate_table_threshold: 3,
            annotate_on_subquery: true,
            assoc_min_support: 5,
            assoc_min_confidence: 0.5,
            cluster_max_iters: 20,
            refresh_drift_threshold: 0.3,
            refresh_budget: 50,
            weight_tables: 0.5,
            weight_attributes: 0.3,
            weight_predicates: 0.2,
            rank_similarity: 0.6,
            rank_popularity: 0.2,
            rank_recency: 0.1,
            rank_quality: 0.1,
            wal_fsync: true,
            snapshot_every_ops: 8192,
            ingest_queue_depth: default_ingest_queue_depth(),
            user_rate_limit: default_user_rate_limit(),
            user_rate_burst: default_user_rate_burst(),
            open_degraded: default_open_degraded(),
            shards: default_shards(),
            repair_interval_ms: default_repair_interval_ms(),
            repair_max_attempts: default_repair_max_attempts(),
            seed: 0xC1D2_2009,
        }
    }
}

impl CqmsConfig {
    /// Rows of output worth storing in full, given execution time — the
    /// paper's §4.1 adaptive summarisation rule.
    pub fn full_output_budget(&self, elapsed_us: u64) -> u64 {
        let by_time = (elapsed_us as f64 / 1000.0 * self.full_output_rows_per_ms) as u64;
        by_time
            .max(self.full_output_min_rows)
            .min(self.full_output_max_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_follows_paper_examples() {
        let c = CqmsConfig::default();
        // "two hours to complete and outputs ten rows → store the whole
        // output": 2h ≫ 10 rows of budget.
        let two_hours_us = 2 * 3600 * 1_000_000u64;
        assert!(c.full_output_budget(two_hours_us) >= 10);
        // "two seconds and two million rows → no need to store the output":
        // budget for 2s is ~2000ms×1 = 2000 rows ≪ 2M.
        let two_secs_us = 2_000_000u64;
        assert!(c.full_output_budget(two_secs_us) < 2_000_000);
        // Fast queries still store tiny outputs.
        assert_eq!(c.full_output_budget(0), c.full_output_min_rows);
    }

    #[test]
    fn budget_is_capped() {
        let c = CqmsConfig::default();
        let day_us = 24 * 3600 * 1_000_000u64;
        assert_eq!(c.full_output_budget(day_us), c.full_output_max_rows);
    }

    #[test]
    fn ranking_weights_sum_to_one() {
        let c = CqmsConfig::default();
        let sum = c.rank_similarity + c.rank_popularity + c.rank_recency + c.rank_quality;
        assert!((sum - 1.0).abs() < 1e-9);
        let w = c.weight_tables + c.weight_attributes + c.weight_predicates;
        assert!((w - 1.0).abs() < 1e-9);
    }
}
