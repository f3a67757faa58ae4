//! The four workloads: their sizes and the pure function from the query
//! pool and a seed to the fixed op list every round replays.
//!
//! Nothing here calls the program under test: the op list is a pure
//! function of `(workload, pool, seed)`, so the same seed gives
//! byte-identical ops.

use workload::GenQuery;

/// How an acked write is issued and which read kinds exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    RunQuery,
    IngestBatch,
    Admin,
    Complete,
    Keyword,
    Substring,
    KnnFeatures,
    KnnTree,
    KnnParseTree,
    Recommend,
    FeatureSql,
    MinerEpoch,
}

impl Kind {
    /// The eight read kinds, in the round-robin order `assist_large` uses.
    pub const READS: [Kind; 8] = [
        Kind::Complete,
        Kind::Keyword,
        Kind::Substring,
        Kind::KnnFeatures,
        Kind::KnnTree,
        Kind::KnnParseTree,
        Kind::Recommend,
        Kind::FeatureSql,
    ];

    /// The kind's span name (also how failures name the call).
    pub fn name(self) -> &'static str {
        match self {
            Kind::RunQuery => "op.run_query",
            Kind::IngestBatch => "op.ingest_batch",
            Kind::Admin => "op.admin",
            Kind::Complete => "op.complete",
            Kind::Keyword => "op.keyword",
            Kind::Substring => "op.substring",
            Kind::KnnFeatures => "op.knn_features",
            Kind::KnnTree => "op.knn_tree",
            Kind::KnnParseTree => "op.knn_parsetree",
            Kind::Recommend => "op.recommend",
            Kind::FeatureSql => "op.feature_sql",
            Kind::MinerEpoch => "op.miner_epoch",
        }
    }

    #[cfg(test)]
    pub fn is_write(self) -> bool {
        matches!(self, Kind::RunQuery | Kind::IngestBatch | Kind::Admin)
    }

    pub fn is_read(self) -> bool {
        Kind::READS.contains(&self)
    }
}

/// One logged query to ingest: where it sits in the query pool, trace
/// user, SQL, trace time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Item {
    /// Index in the pool: the query's identity, whatever order the seed
    /// puts it in. Every "which queries get a read attached" rule keys on
    /// this, so the *multiset* of ops is the same for every seed.
    pub origin: usize,
    pub user: u32,
    pub sql: String,
    pub ts: u64,
}

/// An admin write against the `target`-th preloaded query, issued by that
/// query's owner (so ACL checks pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdminOp {
    Annotate,
    MakePrivate,
    Delete,
}

/// One call the client makes. Arguments are fully resolved at generation
/// time; only admin targets go through the preload's acked-id table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    RunQuery(Item),
    IngestBatch(Vec<Item>),
    Admin {
        op: AdminOp,
        target: usize,
    },
    Complete {
        user: u32,
        prefix: String,
    },
    Keyword {
        user: u32,
        query: String,
    },
    Substring {
        user: u32,
        needle: String,
    },
    Knn {
        user: u32,
        sql: String,
        kind: Kind,
    },
    Recommend {
        user: u32,
        sql: String,
    },
    FeatureSql {
        user: u32,
        sql: String,
    },
    /// A synchronous miner epoch inside the timed section.
    MinerEpoch,
}

impl Op {
    pub fn kind(&self) -> Kind {
        match self {
            Op::RunQuery(_) => Kind::RunQuery,
            Op::IngestBatch(_) => Kind::IngestBatch,
            Op::Admin { .. } => Kind::Admin,
            Op::Complete { .. } => Kind::Complete,
            Op::Keyword { .. } => Kind::Keyword,
            Op::Substring { .. } => Kind::Substring,
            Op::Knn { kind, .. } => *kind,
            Op::Recommend { .. } => Kind::Recommend,
            Op::FeatureSql { .. } => Kind::FeatureSql,
            Op::MinerEpoch => Kind::MinerEpoch,
        }
    }

    /// Acked writes the call carries (a batch is one call, many writes).
    pub fn writes(&self) -> usize {
        match self {
            Op::RunQuery(_) | Op::Admin { .. } => 1,
            Op::IngestBatch(items) => items.len(),
            _ => 0,
        }
    }

    /// Stable one-line rendering; the op-list fingerprint hashes these.
    pub fn render(&self) -> String {
        format!("{self:?}")
    }
}

/// How the pristine crash image is prepared before the op list runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Preload {
    /// Pool queries ingested into the image.
    pub queries: usize,
    /// Miner epochs spread evenly over the preload (0 = pure WAL image).
    pub epochs: usize,
    /// Queries ingested *after* the last epoch's forced snapshot, so every
    /// snapshot image also carries a WAL tail to replay.
    pub wal_tail: usize,
}

/// A workload: name, reason, preload and round sizing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub preload: Preload,
    /// Pool queries each round ingests after the preload.
    pub writes: usize,
    /// Reads drawn from the preloaded log (`assist_large` only; the other
    /// workloads attach their reads to the queries they write).
    pub reads: usize,
    /// Timed rounds per second of `--seconds`; the round count is
    /// `round(seconds × this)`, never below three. Set so that a run at 15 s
    /// measures for 12–20 s on the calibration machine, the cheap rounds
    /// lending time to the expensive ones: a floor needs rounds more than it
    /// needs seconds.
    pub rounds_per_second: f64,
}

pub const BATCH: usize = 64;

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "ingest_small",
        why: "90% single acked writes on a store under snapshot_head_limit: the profiled-ingest path (parse, execute, features, insert, WAL, publish) does the work; reads do little",
        preload: Preload { queries: 1500, epochs: 1, wal_tail: BATCH },
        writes: 1080,
        reads: 0,
        rounds_per_second: 0.6,
    },
    Spec {
        name: "assist_large",
        why: "95% reads over all eight read kinds on a store larger than the head and caches: snapshot pin, candidate generation, exact scoring, shard merge; a write-path change must not move read_* here",
        preload: Preload { queries: 4000, epochs: 2, wal_tail: BATCH },
        writes: 50,
        reads: 950,
        rounds_per_second: 0.33,
    },
    Spec {
        name: "explore_mixed",
        why: "the paper's Figure-1 loop: complete, run, then search; every read follows a write so per-snapshot caches never hit, and a mid-round miner epoch puts background stalls into the tails",
        preload: Preload { queries: 2500, epochs: 1, wal_tail: BATCH },
        writes: 428,
        reads: 0,
        rounds_per_second: 0.4,
    },
    Spec {
        name: "batch_recover",
        why: "ingest_batch(64) with admin writes on a pure-WAL image: one flush and one publish per 64 items, recovery is frame replay only, and the round-end epoch writes the first snapshot",
        preload: Preload { queries: 3000, epochs: 0, wal_tail: 0 },
        writes: 30 * BATCH,
        reads: 0,
        rounds_per_second: 0.3,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

impl Spec {
    /// `--smoke`: a tenth of the per-round work (rounds are cut by the
    /// caller).
    pub fn smoke(mut self) -> Spec {
        self.writes = (self.writes / 10).max(BATCH);
        self.reads /= 10;
        self
    }

    /// Pool queries the workload consumes.
    pub fn pool_queries(&self) -> usize {
        self.preload.queries + self.writes
    }

    pub fn rounds(&self, seconds: f64) -> usize {
        ((seconds * self.rounds_per_second).round() as usize).max(3)
    }
}

// ----------------------------------------------------------------------
// From the pool to a seed's inputs
// ----------------------------------------------------------------------

/// What the program under test is fed for one seed.
pub struct Inputs {
    /// Ingested into the crash image, in this order.
    pub preload: Vec<Item>,
    /// Ingested by the op list, in this order.
    pub fresh: Vec<Item>,
}

/// SplitMix64: the seed's only use is to drive these permutations.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        x ^ (x >> 31)
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
    }
}

/// Trace seconds between two sessions after re-timing: past the session
/// detector's idle gap, so a permuted log segments like the original.
const SESSION_GAP_SECS: u64 = 3600;

/// Arrange the pool for `seed`: the first `preload.queries` pool queries,
/// in pool order, form the preload; the next `writes` form the fresh part,
/// in which **every analyst's sessions keep their own order and the seed
/// picks how the analysts' streams interleave**. The log is re-timed in the
/// new order (intra-session gaps kept).
///
/// Every seed therefore replays the same multiset of queries, and each
/// analyst the same history, in a different global order: ids, shard-local
/// positions and head contents at any instant differ, but session
/// continuation and edit edges — which depend on what the *same* analyst
/// asked before — do not. What is left between seeds is order effects and
/// machine noise, not a different mix of cheap and expensive SQL.
pub fn arrange(spec: &Spec, pool: &[GenQuery], seed: u64) -> Inputs {
    let p = spec.preload.queries;
    assert!(
        pool.len() >= spec.pool_queries(),
        "pool has {} queries, {} needs {}",
        pool.len(),
        spec.name,
        spec.pool_queries()
    );
    let mut rng = Rng::new(seed);
    let mut clock = 0u64;
    let mut part = |range: std::ops::Range<usize>, interleave: bool| {
        // Maximal runs of one session (a session cut by the part boundary
        // gives one run on each side), queued per analyst in pool order.
        let mut queues: std::collections::BTreeMap<u32, std::collections::VecDeque<_>> =
            std::collections::BTreeMap::new();
        let mut turns: Vec<u32> = Vec::new();
        let mut start = range.start;
        for i in range.start + 1..=range.end {
            if i == range.end || pool[i].session != pool[start].session {
                queues
                    .entry(pool[start].user)
                    .or_default()
                    .push_back(start..i);
                turns.push(pool[start].user);
                start = i;
            }
        }
        if interleave {
            rng.shuffle(&mut turns);
        }
        let mut out = Vec::with_capacity(range.len());
        for user in turns {
            let run = queues
                .get_mut(&user)
                .and_then(std::collections::VecDeque::pop_front)
                .expect("one turn per queued run");
            clock += SESSION_GAP_SECS;
            for i in run.clone() {
                if i > run.start {
                    clock += pool[i].ts - pool[i - 1].ts;
                }
                out.push(Item {
                    origin: i,
                    user: pool[i].user,
                    sql: pool[i].sql.clone(),
                    ts: clock,
                });
            }
        }
        out
    };
    // The image is the same for every seed (recovery cost turned out to
    // depend on the order the log was written in, by up to 20%); the seed
    // arranges what is replayed on top of it.
    let preload = part(0..p, false);
    let fresh = part(p..p + spec.writes, true);
    Inputs { preload, fresh }
}

// ----------------------------------------------------------------------
// Read arguments, derived from SQL text by string rules only
// ----------------------------------------------------------------------

const STOPWORDS: [&str; 12] = [
    "select", "from", "where", "and", "order", "by", "limit", "desc", "asc", "group", "having",
    "not",
];

/// The text being typed when the analyst asks for a completion: `sql` cut
/// just after `FROM `, after the first `, ` of the FROM list, or after
/// `WHERE ` — whichever the `pick`-th of the cuts this query has.
pub fn prefix_of(sql: &str, pick: usize) -> String {
    let mut cuts = Vec::new();
    if let Some(from) = sql.find(" FROM ") {
        let after_from = from + " FROM ".len();
        cuts.push(after_from);
        let list_end = sql.find(" WHERE ").unwrap_or(sql.len());
        if let Some(comma) = sql[after_from..list_end].find(", ") {
            cuts.push(after_from + comma + 2);
        }
    }
    if let Some(wh) = sql.find(" WHERE ") {
        cuts.push(wh + " WHERE ".len());
    }
    match cuts.get(pick % cuts.len().max(1)) {
        Some(&cut) => sql[..cut].to_string(),
        None => sql.to_string(),
    }
}

/// Two identifier words of `sql` for a keyword search.
pub fn keywords_of(sql: &str) -> String {
    let words: Vec<&str> = sql
        .split(|c: char| !c.is_ascii_alphanumeric() && c != '_')
        .filter(|w| w.len() >= 4 && w.chars().all(|c| !c.is_ascii_digit()))
        .filter(|w| !STOPWORDS.contains(&w.to_ascii_lowercase().as_str()))
        .collect();
    match words.as_slice() {
        [] => "select".to_string(),
        [only] => (*only).to_string(),
        [first, .., last] => format!("{first} {last}"),
    }
}

/// A literal fragment of `sql` for a substring search: up to 14 bytes
/// starting at the FROM list (all generated SQL is ASCII).
pub fn needle_of(sql: &str) -> String {
    let start = sql.find(" FROM ").map_or(0, |p| p + 1);
    sql[start..(start + 14).min(sql.len())].to_string()
}

/// The relations named in the FROM list.
pub fn tables_of(sql: &str) -> Vec<&str> {
    let Some(from) = sql.find(" FROM ") else {
        return Vec::new();
    };
    let rest = &sql[from + " FROM ".len()..];
    let end = [" WHERE ", " ORDER BY ", " LIMIT ", " GROUP BY "]
        .iter()
        .filter_map(|kw| rest.find(kw))
        .min()
        .unwrap_or(rest.len());
    rest[..end]
        .split(", ")
        .filter_map(|t| t.split_whitespace().next())
        .collect()
}

/// The Figure-1 style meta-query "which logged queries read these
/// relations", over the feature relations.
pub fn feature_sql_of(sql: &str) -> String {
    let tables = tables_of(sql);
    let mut from = vec!["Queries Q".to_string()];
    let mut conds = Vec::new();
    for (i, t) in tables.iter().take(2).enumerate() {
        let alias = format!("D{}", i + 1);
        from.push(format!("DataSources {alias}"));
        conds.push(format!("Q.qid = {alias}.qid"));
        conds.push(format!("{alias}.relName = '{t}'"));
    }
    let mut out = format!("SELECT Q.qid FROM {}", from.join(", "));
    if !conds.is_empty() {
        out.push_str(" WHERE ");
        out.push_str(&conds.join(" AND "));
    }
    out
}

/// A read of `kind` by `user`, its arguments taken from `sql`; `pick`
/// selects among a completion's possible cut points.
pub fn read_op(kind: Kind, user: u32, sql: &str, pick: usize) -> Op {
    match kind {
        Kind::Complete => Op::Complete {
            user,
            prefix: prefix_of(sql, pick),
        },
        Kind::Keyword => Op::Keyword {
            user,
            query: keywords_of(sql),
        },
        Kind::Substring => Op::Substring {
            user,
            needle: needle_of(sql),
        },
        Kind::KnnFeatures | Kind::KnnTree | Kind::KnnParseTree => Op::Knn {
            user,
            sql: sql.to_string(),
            kind,
        },
        Kind::Recommend => Op::Recommend {
            user,
            sql: sql.to_string(),
        },
        Kind::FeatureSql => Op::FeatureSql {
            user,
            sql: feature_sql_of(sql),
        },
        other => panic!("{other:?} is not a read kind"),
    }
}

// ----------------------------------------------------------------------
// Op lists
// ----------------------------------------------------------------------

/// Build the op list of `spec` for `seed`. Which reads exist is decided by
/// query identity (`Item::origin`), never by position, so the seed changes
/// the order of the calls and not which calls are made.
pub fn op_list(spec: &Spec, pool: &[GenQuery], inputs: &Inputs, seed: u64) -> Vec<Op> {
    let p = spec.preload.queries;
    let fresh = &inputs.fresh;
    let attached_read =
        |kind: Kind, item: &Item, pick: usize| read_op(kind, item.user, &item.sql, pick);
    let mut ops = Vec::new();
    match spec.name {
        // One completion per nine writes, of what the analyst types next,
        // always asked at `… FROM ` (which table?): one kind of completion
        // keeps the 120 read latencies unimodal, so their median is not a
        // coin flip between two kinds.
        "ingest_small" => {
            for item in fresh {
                if item.origin % 9 == 0 {
                    ops.push(attached_read(Kind::Complete, item, 0));
                }
                ops.push(Op::RunQuery(item.clone()));
            }
        }
        // Reads round-robin over the eight kinds with one write after every
        // `reads / writes`. The arguments of kind k are a fixed stride walk
        // over the preloaded log (spread over users, topics and session
        // positions); the seed permutes their order within the kind.
        "assist_large" => {
            let mut rng = Rng::new(seed ^ 0xA551);
            let mut args: Vec<Vec<Op>> = Kind::READS
                .iter()
                .enumerate()
                .map(|(k, &kind)| {
                    // Exactly the reads `j ≡ k (mod 8)` below will pop.
                    let count = (spec.reads + 7 - k) / 8;
                    let mut list: Vec<Op> = (0..count)
                        .map(|j| {
                            let q = &pool[((j * 8 + k) * 37) % p];
                            read_op(kind, q.user, &q.sql, j)
                        })
                        .collect();
                    rng.shuffle(&mut list);
                    list
                })
                .collect();
            let reads_per_write = spec.reads / spec.writes.max(1);
            let mut writes = fresh.iter();
            for j in 0..spec.reads {
                ops.push(
                    args[j % 8]
                        .pop()
                        .expect("one argument per read of the kind"),
                );
                if (j + 1) % reads_per_write == 0 {
                    if let Some(item) = writes.next() {
                        ops.push(Op::RunQuery(item.clone()));
                    }
                }
            }
        }
        // Per query: complete(prefix) → run; every third query (by
        // identity) is followed by one search seeded by it. One miner epoch
        // once half the queries are in.
        "explore_mixed" => {
            const FOLLOW_UPS: [Kind; 3] = [Kind::KnnFeatures, Kind::Recommend, Kind::Keyword];
            for (n, item) in fresh.iter().enumerate() {
                if n == fresh.len() / 2 {
                    ops.push(Op::MinerEpoch);
                }
                ops.push(attached_read(Kind::Complete, item, item.origin));
                ops.push(Op::RunQuery(item.clone()));
                if item.origin % 3 == 0 {
                    ops.push(attached_read(FOLLOW_UPS[(item.origin / 3) % 3], item, 0));
                }
            }
        }
        // Batches of 64; each query whose identity is a multiple of 16
        // (four per batch on average) brings one admin write on a
        // preloaded query and one substring read after its batch. Admin
        // writes are the slowest ~6% of acked writes, so the 95th
        // percentile sits inside their distribution, not on its edge.
        "batch_recover" => {
            const ADMIN: [AdminOp; 3] = [AdminOp::Annotate, AdminOp::MakePrivate, AdminOp::Delete];
            let mut admin = 0usize;
            for batch in fresh.chunks(BATCH) {
                ops.push(Op::IngestBatch(batch.to_vec()));
                for item in batch.iter().filter(|i| i.origin % 16 == 0) {
                    // 7 is coprime with the preload size, so targets never
                    // repeat within a round.
                    ops.push(Op::Admin {
                        op: ADMIN[admin % 3],
                        target: (admin * 7 + 3) % p,
                    });
                    admin += 1;
                    ops.push(attached_read(Kind::Substring, item, 0));
                }
            }
        }
        other => panic!("unknown workload {other}"),
    }
    ops
}

/// FNV-1a over the rendered ops: two runs of one seed print the same value.
pub fn fingerprint(ops: &[Op]) -> u64 {
    let mut h = crate::digest::Fnv::default();
    for op in ops {
        h.bytes(op.render().as_bytes());
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deploy::generate_pool;

    fn ops_for(spec: &Spec, seed: u64) -> Vec<Op> {
        let pool = generate_pool(spec);
        let inputs = arrange(spec, &pool.queries, seed);
        op_list(spec, &pool.queries, &inputs, seed)
    }

    fn rendered(ops: &[Op]) -> Vec<String> {
        ops.iter().map(Op::render).collect()
    }

    #[test]
    fn op_list_is_a_pure_function_of_workload_and_seed() {
        for spec in SPECS.iter().map(|s| s.smoke()) {
            let (a, b, c) = (ops_for(&spec, 7), ops_for(&spec, 7), ops_for(&spec, 8));
            assert_eq!(
                rendered(&a).join("\n").into_bytes(),
                rendered(&b).join("\n").into_bytes(),
                "{}",
                spec.name
            );
            assert_ne!(rendered(&a), rendered(&c), "{}", spec.name);
            assert_eq!(fingerprint(&a), fingerprint(&b));
            assert_ne!(fingerprint(&a), fingerprint(&c));
        }
    }

    /// Seeds permute; they do not change what is asked. Compared after
    /// blanking trace times, which follow the order.
    #[test]
    fn every_seed_makes_the_same_multiset_of_calls() {
        let blank_ts = |ops: &[Op]| {
            let mut lines: Vec<String> = Vec::new();
            for op in ops {
                match op {
                    Op::IngestBatch(items) => lines.extend(
                        items
                            .iter()
                            .map(|i| format!("ingest {} {}", i.origin, i.sql)),
                    ),
                    Op::RunQuery(i) => lines.push(format!("ingest {} {}", i.origin, i.sql)),
                    Op::Admin { op, .. } => lines.push(format!("admin {op:?}")),
                    other => lines.push(other.render()),
                }
            }
            lines.sort();
            lines
        };
        for spec in SPECS.iter().map(|s| s.smoke()) {
            let (a, b) = (ops_for(&spec, 1), ops_for(&spec, 2));
            assert_eq!(a.len(), b.len(), "{}", spec.name);
            assert_eq!(blank_ts(&a), blank_ts(&b), "{}", spec.name);
        }
    }

    #[test]
    fn arrangement_keeps_sessions_whole_and_time_monotonic() {
        let spec = spec("explore_mixed").unwrap().smoke();
        let pool = generate_pool(&spec);
        let inputs = arrange(&spec, &pool.queries, 5);
        let all: Vec<&Item> = inputs.preload.iter().chain(&inputs.fresh).collect();
        assert_eq!(all.len(), spec.pool_queries());
        assert!(all.windows(2).all(|w| w[0].ts <= w[1].ts));
        // Within a part, a session's queries stay adjacent and in order…
        for part in [&inputs.preload, &inputs.fresh] {
            for w in part.windows(2) {
                let (a, b) = (&pool.queries[w[0].origin], &pool.queries[w[1].origin]);
                if a.session == b.session {
                    assert_eq!(w[1].origin, w[0].origin + 1);
                } else {
                    assert!(w[1].ts - w[0].ts >= SESSION_GAP_SECS);
                }
            }
        }
        // …and every analyst sees their own queries in pool order.
        for user in 0..crate::deploy::USERS {
            let own: Vec<usize> = all
                .iter()
                .filter(|i| i.user == user)
                .map(|i| i.origin)
                .collect();
            assert!(own.windows(2).all(|w| w[0] < w[1]), "analyst {user}");
        }
        let mut origins: Vec<usize> = all.iter().map(|i| i.origin).collect();
        origins.sort_unstable();
        assert_eq!(origins, (0..spec.pool_queries()).collect::<Vec<_>>());
    }

    #[test]
    fn mixes_are_what_the_specs_say() {
        let share = |name: &str, pred: fn(Kind) -> bool| {
            let ops = ops_for(spec(name).unwrap(), 3);
            ops.iter().filter(|o| pred(o.kind())).count() as f64 / ops.len() as f64
        };
        assert!((share("ingest_small", Kind::is_write) - 0.9).abs() < 0.001);
        assert!((share("assist_large", Kind::is_read) - 0.95).abs() < 0.001);
        let mixed = share("explore_mixed", Kind::is_write);
        assert!((0.38..0.45).contains(&mixed), "{mixed}");
        // Every read kind appears on assist_large, equally often (±1).
        let ops = ops_for(spec("assist_large").unwrap(), 3);
        let counts: Vec<usize> = Kind::READS
            .iter()
            .map(|k| ops.iter().filter(|o| o.kind() == *k).count())
            .collect();
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
        assert_eq!(ops.len(), 1000);
        assert_eq!(ops_for(spec("ingest_small").unwrap(), 3).len(), 1200);
        let batches = ops_for(spec("batch_recover").unwrap(), 3);
        assert_eq!(
            batches
                .iter()
                .filter(|o| o.kind() == Kind::IngestBatch)
                .count(),
            30
        );
    }

    #[test]
    fn admin_targets_are_distinct() {
        let mut targets: Vec<usize> = ops_for(spec("batch_recover").unwrap(), 3)
            .iter()
            .filter_map(|o| match o {
                Op::Admin { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        let n = targets.len();
        assert!(n >= 80, "{n}");
        targets.sort_unstable();
        targets.dedup();
        assert_eq!(targets.len(), n);
    }

    #[test]
    fn read_arguments_come_from_the_text() {
        let sql = "SELECT * FROM WaterTemp, WaterSalinity WHERE WaterTemp.temp < 18";
        assert_eq!(prefix_of(sql, 0), "SELECT * FROM ");
        assert_eq!(prefix_of(sql, 1), "SELECT * FROM WaterTemp, ");
        assert_eq!(
            prefix_of(sql, 2),
            "SELECT * FROM WaterTemp, WaterSalinity WHERE "
        );
        assert_eq!(tables_of(sql), ["WaterTemp", "WaterSalinity"]);
        assert_eq!(needle_of(sql), "FROM WaterTemp");
        assert_eq!(keywords_of(sql), "WaterTemp temp");
        assert!(feature_sql_of(sql).contains("D2.relName = 'WaterSalinity'"));
    }
}
