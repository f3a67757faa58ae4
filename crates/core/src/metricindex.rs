//! Metric-indexed kNN for the structural similarity metrics.
//!
//! The Features/Combined/Output metrics are interactive over signatures
//! (and, for the first two, the feature classes), but the two tree
//! metrics would brute-force every live record per probe. Tree edit distance is a true
//! metric, so the classic fix applies: a vantage-point tree over the
//! *unnormalised* Zhang–Shasha distance (where the triangle inequality
//! holds), searched best-first under the *normalised* distance the kNN API
//! returns, with per-subtree size ranges converting between the two.
//!
//! An entry is a *distinct* constant-stripped tree, not a record: the
//! [`crate::indexreg`] tree groups file the records that share one, and
//! a template logged a thousand times is one entry. Only a record whose
//! tree the index does not hold yet descends the tree, so inserts — and
//! so recovery — pay no distance for a tree already indexed, and a probe
//! evaluates each distinct tree at most once, then pushes up to `k` of
//! its group's accepted members (ascending ids) at that score.
//!
//! Every distance the tree computes — per pivot on a new tree's descent,
//! per pivot and surviving leaf entry on a probe, per entry of a bucket
//! being split — is [`sqlparse::ted`] over the entries' [`FlatTree`]s
//! (flattened once per record at ingest), normalised by
//! [`FlatTree::len`].
//!
//! Three pruning layers, all exactness-preserving (the VP-tree proptest
//! pins ids and scores to the brute-force scan):
//!
//! 1. **triangle bands** — each inner node stores the min/max
//!    pivot-distance band of each child; `TED(q, x) ≥ max(d(q,p) − hi,
//!    lo − d(q,p))` bounds a whole subtree below with one pivot distance;
//! 2. **size gaps** — subtrees also store their min/max tree size;
//!    `TED(q, x) ≥ |size(q) − size(x)|` prunes size-mismatched subtrees
//!    without any distance computation;
//! 3. **label histograms** — before the O(tree²) DP runs on a surviving
//!    leaf entry, the [`sqlparse::TreeShape`] bound
//!    (`max(sizes) − Σ_label min(counts)`) and the leaf's stored
//!    pivot-distance give two more O(|labels|)/O(1) rejections.
//!
//! The tree indexes the trees of every non-tombstoned record that has
//! one — including currently flagged/obsoleted ones, which maintenance
//! may revive — and filters liveness/visibility per member at query time
//! through the caller's `accept` closure. Tombstones accumulate as dead
//! weight; the [`crate::indexreg::IndexRegistry`] counts them and
//! *schedules* a background rebuild once they exceed
//! [`REBUILD_DEAD_FRACTION`] — the probe path itself never rebuilds.
//!
//! The tree is *persistent*: children hang off `Arc`s, entries live in a
//! chunked [`SnapshotVec`] and leaf buckets in [`SegVec`]s, so `clone()` is
//! pointer copies and an insert into a cloned tree copies the nodes on its
//! root-to-leaf path, one entry chunk and one bucket tail — the read
//! snapshot the service publishes per write shares everything else. An
//! insert into an unshared tree copies nothing.

use crate::metaquery::{ScoredHit, TopK};
use crate::model::QueryId;
use cqms_cow::{SegVec, SnapshotVec};
use sqlparse::{normalized_from_ted, normalized_ted, ted, FlatTree, TreeShape};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default leaf bucket capacity. Larger buckets mean fewer mandatory
/// pivot distance computations on the way down, trading against the
/// (much cheaper) per-entry histogram + parent-pivot screens at the
/// leaves; 128 measured best on a kNN workload by a wide margin.
const LEAF_CAP: usize = 128;

/// Tombstone fraction beyond which the index registry schedules a
/// background rebuild into the next miner epoch.
pub const REBUILD_DEAD_FRACTION: f64 = 0.25;

/// Sentinel for "no parent pivot" (entries in a root-level leaf).
const NO_PARENT: u32 = u32::MAX;

/// Cheap-bound effectiveness counters for one metric (relaxed atomics —
/// the counters feed the ledger's `metricindex.bound_hit_rate`, not
/// control flow).
#[derive(Debug, Default)]
pub struct MetricStats {
    /// Pairs (or whole subtrees' worth of pairs) rejected by a cheap
    /// bound without running the exact metric.
    pub bound_hits: AtomicU64,
    /// Pairs where the exact metric ran.
    pub exact_evals: AtomicU64,
}

impl MetricStats {
    /// Count `n` pairs disposed of by a cheap bound.
    pub fn add_hits(&self, n: u64) {
        self.bound_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Count `n` pairs that paid the exact metric.
    pub fn add_exact(&self, n: u64) {
        self.exact_evals.fetch_add(n, Ordering::Relaxed);
    }

    /// Fraction of considered pairs a cheap bound disposed of.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.bound_hits.load(Ordering::Relaxed) as f64;
        let exact = self.exact_evals.load(Ordering::Relaxed) as f64;
        if hits + exact == 0.0 {
            0.0
        } else {
            hits / (hits + exact)
        }
    }

    /// Zero both counters.
    pub fn reset(&self) {
        self.bound_hits.store(0, Ordering::Relaxed);
        self.exact_evals.store(0, Ordering::Relaxed);
    }
}

/// Per-metric stats plus rebuild observability, owned by the index
/// registry (reachable through `QueryStorage::metric_stats`).
#[derive(Debug, Default)]
pub struct MetricIndexStats {
    /// Bound/exact counters of the TreeEdit sweeps.
    pub tree_edit: MetricStats,
    /// Bound/exact counters of the ParseTree sweeps.
    pub parse_tree: MetricStats,
    /// Rebuilds requested (tombstone threshold, reindex, summary
    /// refresh) since process start.
    pub rebuilds_scheduled: AtomicU64,
    /// Rebuilds built + published since process start.
    pub rebuilds_completed: AtomicU64,
}

/// One indexed tree: the id of the first record filed under it, and its
/// flattened constant-stripped form and shape (both `Arc`-shared with
/// that record's signature — index entries own no per-entry heap blocks,
/// so building or retiring a whole generation never scatters allocations
/// through the record heap).
#[derive(Debug, Clone)]
pub struct TreeEntry {
    /// The smallest member id of the entry's tree group (members arrive
    /// in ascending id order, so it is the first one).
    pub qid: u64,
    /// Cached constant-stripped parse tree, flattened.
    pub tree: Arc<FlatTree>,
    /// Cached size + label-histogram shape.
    pub shape: Arc<TreeShape>,
}

/// Aggregate description of one child subtree: the pivot-distance band
/// its entries fall in, their tree-size range, and how many there are.
#[derive(Debug, Clone, Copy)]
struct Band {
    lo: u32,
    hi: u32,
    min_size: u32,
    max_size: u32,
    /// Smallest member id in the subtree — lets tie plateaus prune: a
    /// subtree whose bound only *ties* the current k-th score cannot
    /// displace it unless it holds a smaller id (ties break by ascending
    /// id).
    min_qid: u64,
    count: u32,
}

impl Band {
    fn empty() -> Band {
        Band {
            lo: u32::MAX,
            hi: 0,
            min_size: u32::MAX,
            max_size: 0,
            min_qid: u64::MAX,
            count: 0,
        }
    }

    fn widen(&mut self, dist: u32, size: u32, qid: u64) {
        self.lo = self.lo.min(dist);
        self.hi = self.hi.max(dist);
        self.min_size = self.min_size.min(size);
        self.max_size = self.max_size.max(size);
        self.min_qid = self.min_qid.min(qid);
        self.count += 1;
    }

    /// Lower bound on the *normalised* distance from a probe (with exact
    /// pivot distance `d_qp` and size `sq`) to any entry in this subtree.
    fn lower_bound(&self, d_qp: u32, sq: u32) -> f64 {
        // Triangle on the unnormalised metric, then divide by the largest
        // denominator any entry could have.
        let t_min = (d_qp.saturating_sub(self.hi)).max(self.lo.saturating_sub(d_qp));
        let triangle = normalized_from_ted(t_min as usize, sq as usize, self.max_size as usize);
        // Size gap: TED(q, x) ≥ |sq − sx|, normalised by max(sq, sx).
        let gap = if sq < self.min_size {
            1.0 - sq as f64 / self.min_size as f64
        } else if sq > self.max_size {
            1.0 - self.max_size as f64 / sq as f64
        } else {
            0.0
        };
        triangle.max(gap)
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf {
        /// `(entry index, TED to the parent pivot; NO_PARENT at the root)`.
        /// A bucket whose trees are all equidistant from its first one
        /// never splits, so it is a [`SegVec`]: an append after a clone
        /// copies its open tail, not the bucket.
        items: SegVec<(u32, u32)>,
    },
    Inner {
        /// Entry index of the pivot (the pivot is itself a data point).
        pivot: u32,
        /// Entries with `TED(pivot, x) ≤ radius` go inside.
        radius: u32,
        /// `[inside, outside]` subtree descriptions.
        bands: [Band; 2],
        children: [Arc<Node>; 2],
    },
}

impl Node {
    fn count(&self) -> u64 {
        match self {
            Node::Leaf { items } => items.len() as u64,
            Node::Inner { bands, .. } => 1 + u64::from(bands[0].count) + u64::from(bands[1].count),
        }
    }
}

/// Vantage-point tree over the normalised Zhang–Shasha tree edit metric.
#[derive(Debug, Clone)]
pub struct VpTree {
    entries: SnapshotVec<TreeEntry>,
    root: Option<Arc<Node>>,
    leaf_cap: usize,
}

impl VpTree {
    /// Build over all current entries. Deterministic: pivots are taken in
    /// insertion order, radii at the median pivot distance.
    pub fn build(entries: Vec<TreeEntry>) -> VpTree {
        Self::with_leaf_cap(entries, LEAF_CAP)
    }

    /// Build with an explicit leaf capacity (tests use small caps to
    /// force deep trees out of small stores).
    pub fn with_leaf_cap(entries: Vec<TreeEntry>, leaf_cap: usize) -> VpTree {
        let leaf_cap = leaf_cap.max(1);
        let entries: SnapshotVec<TreeEntry> = entries.into_iter().collect();
        let items: Vec<(u32, u32)> = (0..entries.len() as u32).map(|i| (i, NO_PARENT)).collect();
        let root = if items.is_empty() {
            None
        } else {
            Some(Arc::new(build_node(&entries, items, leaf_cap)))
        };
        VpTree {
            entries,
            root,
            leaf_cap,
        }
    }

    /// Number of indexed entries (distinct trees).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the tree empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entry inserted `index`-th (entries are never removed; a
    /// rebuild builds a new tree).
    pub fn entry(&self, index: usize) -> &TreeEntry {
        &self.entries[index]
    }

    /// Pointers a `clone()` copies (one per chunk of entries; the node
    /// tree is one more).
    pub fn clone_len(&self) -> usize {
        self.entries.chunk_count()
    }

    /// Incrementally insert a new tree: descend by pivot distance,
    /// widening every band passed, and split the target leaf when it
    /// overflows. Bands only ever widen, so every bound that held before
    /// still holds. Every node on the way down is detached from any clone
    /// sharing it (`Arc::make_mut`: a refcount check when unshared).
    pub fn insert(&mut self, entry: TreeEntry) {
        let idx = self.entries.len() as u32;
        self.entries.push(entry);
        let entries = &self.entries;
        let new = &entries[idx as usize];
        let leaf_cap = self.leaf_cap;
        let Some(root) = self.root.as_mut() else {
            self.root = Some(Arc::new(Node::Leaf {
                items: [(idx, NO_PARENT)].into_iter().collect(),
            }));
            return;
        };
        let mut node = Arc::make_mut(root);
        let mut parent_dist = NO_PARENT;
        loop {
            match node {
                Node::Leaf { items } => {
                    items.push((idx, parent_dist));
                    // Re-split an overflowing bucket only at power-of-two
                    // sizes. Entries are distinct trees, but distinct
                    // trees can still all sit at one distance from the
                    // bucket's first (sibling templates one relabel or
                    // one extra column away from it), and such a bucket
                    // cannot split: attempting on every insert would cost
                    // O(bucket) TED calls each time. Doubling amortises
                    // that to O(1) per insert while a splittable bucket
                    // still splits promptly.
                    if items.len() > leaf_cap && items.len().is_power_of_two() {
                        let taken = items.iter().copied().collect();
                        *node = build_node(entries, taken, leaf_cap);
                    }
                    break;
                }
                Node::Inner {
                    pivot,
                    radius,
                    bands,
                    children,
                } => {
                    let p = &entries[*pivot as usize];
                    let d = ted(&new.tree, &p.tree) as u32;
                    let side = usize::from(d > *radius);
                    bands[side].widen(d, new.shape.size, new.qid);
                    parent_dist = d;
                    node = Arc::make_mut(&mut children[side]);
                }
            }
        }
    }

    /// Exact k-nearest search under the normalised tree edit distance,
    /// over the members passing `accept` (liveness + ACL). `members(i)`
    /// yields entry `i`'s member ids, ascending, the first being the
    /// entry's `qid`. One exact distance is computed per surviving entry
    /// with an accepted member, and up to `k` accepted members are pushed
    /// at its score. Results carry `score = 1.0 − distance` and replicate
    /// the brute-force ordering (score descending, id ascending) float
    /// for float.
    pub fn knn<I: IntoIterator<Item = u64>>(
        &self,
        probe: &FlatTree,
        probe_shape: &TreeShape,
        k: usize,
        members: impl Fn(usize) -> I,
        mut accept: impl FnMut(u64) -> bool,
        stats: &MetricStats,
    ) -> Vec<ScoredHit> {
        let mut top = TopK::new(k);
        let Some(root) = &self.root else {
            return top.into_vec();
        };
        let sq = probe_shape.size;
        // Best-first frontier ordered by lower bound (FIFO on ties).
        let mut seq = 0u64;
        let mut heap: BinaryHeap<Reverse<Frontier<'_>>> = BinaryHeap::new();
        heap.push(Reverse(Frontier {
            bound: OrdF64(0.0),
            seq,
            node: root,
            parent_dist: NO_PARENT,
            min_qid: 0,
        }));
        // A candidate (or subtree) can only displace the current k-th
        // best when `1.0 − bound > worst.score`, or on an exact tie when
        // it can still win the ascending-id tie-break — i.e. when it
        // holds an id smaller than the k-th hit's. Same float expression
        // as the Combined sweep, plus the tie-plateau refinement.
        let admissible = |top: &TopK, bound: f64, min_qid: u64| match top.worst() {
            None => true,
            Some(w) => {
                let bound_score = 1.0 - bound;
                if bound_score < w.score {
                    false
                } else {
                    bound_score > w.score || min_qid < w.id.0
                }
            }
        };
        while let Some(Reverse(item)) = heap.pop() {
            let (bound, node, parent_dist) = (item.bound.0, item.node, item.parent_dist);
            if !admissible(&top, bound, item.min_qid) {
                if matches!(top.worst(), Some(w) if 1.0 - bound < w.score) {
                    // The frontier is bound-ordered from below: nothing
                    // left can enter the top k.
                    let mut skipped = node.count();
                    for Reverse(f) in heap.drain() {
                        skipped += f.node.count();
                    }
                    stats.add_hits(skipped);
                    break;
                }
                // Tie plateau with no winnable id: skip this subtree only.
                stats.add_hits(node.count());
                continue;
            }
            match node {
                Node::Leaf { items } => {
                    for &(eidx, d_pp) in items.iter() {
                        let e = &self.entries[eidx as usize];
                        let mut accepted = members(eidx as usize)
                            .into_iter()
                            .filter(|&qid| accept(qid));
                        let Some(first) = accepted.next() else {
                            continue;
                        };
                        let mut lb = sqlparse::normalized_tree_lower_bound(probe_shape, &e.shape);
                        if parent_dist != NO_PARENT && d_pp != NO_PARENT {
                            // Triangle via the leaf's parent pivot.
                            let t = parent_dist.abs_diff(d_pp);
                            lb = lb.max(normalized_from_ted(
                                t as usize,
                                sq as usize,
                                e.shape.size as usize,
                            ));
                        }
                        if !admissible(&top, lb, first) {
                            stats.add_hits(1);
                            continue;
                        }
                        let d = normalized_ted(probe, &e.tree);
                        stats.add_exact(1);
                        push_members(&mut top, [first].into_iter().chain(accepted), 1.0 - d, k);
                    }
                }
                Node::Inner {
                    pivot,
                    radius: _,
                    bands,
                    children,
                } => {
                    let p = &self.entries[*pivot as usize];
                    let d_qp = ted(probe, &p.tree) as u32;
                    stats.add_exact(1);
                    let d = normalized_from_ted(d_qp as usize, sq as usize, p.tree.len());
                    let accepted = members(*pivot as usize)
                        .into_iter()
                        .filter(|&qid| accept(qid));
                    push_members(&mut top, accepted, 1.0 - d, k);
                    for side in 0..2 {
                        if bands[side].count == 0 {
                            continue;
                        }
                        let child_bound = bands[side].lower_bound(d_qp, sq).max(bound);
                        if !admissible(&top, child_bound, bands[side].min_qid) {
                            stats.add_hits(u64::from(bands[side].count));
                            continue;
                        }
                        seq += 1;
                        heap.push(Reverse(Frontier {
                            bound: OrdF64(child_bound),
                            seq,
                            node: &children[side],
                            parent_dist: d_qp,
                            min_qid: bands[side].min_qid,
                        }));
                    }
                }
            }
        }
        top.into_vec()
    }
}

/// Push the first `k` of one entry's accepted members, all at `score`:
/// they tie, so later (larger) ids cannot beat them.
fn push_members(top: &mut TopK, accepted: impl Iterator<Item = u64>, score: f64, k: usize) {
    for qid in accepted.take(k) {
        top.push(ScoredHit {
            id: QueryId(qid),
            score,
        });
    }
}

/// Build a subtree from `(entry index, distance-to-parent-pivot)` pairs.
fn build_node(entries: &SnapshotVec<TreeEntry>, items: Vec<(u32, u32)>, leaf_cap: usize) -> Node {
    let leaf = |items: Vec<(u32, u32)>| Node::Leaf {
        items: items.into_iter().collect(),
    };
    if items.len() <= leaf_cap {
        return leaf(items);
    }
    let (pivot, _) = items[0];
    let pt = &entries[pivot as usize];
    let mut dists: Vec<(u32, u32)> = items[1..]
        .iter()
        .map(|&(idx, _)| {
            let d = ted(&pt.tree, &entries[idx as usize].tree) as u32;
            (idx, d)
        })
        .collect();
    let mut sorted: Vec<u32> = dists.iter().map(|&(_, d)| d).collect();
    sorted.sort_unstable();
    // All entries equidistant from the pivot (sibling templates one edit
    // from it; identical trees are one entry, so never distance 0 when
    // the tree groups feed it): no radius can split them, so keep one
    // flat bucket instead of recursing one-pivot-at-a-time (which would
    // cost O(bucket²) DP calls and O(bucket) recursion depth).
    if sorted[0] == sorted[sorted.len() - 1] {
        return leaf(items);
    }
    // Median radius, pulled below the maximum when the upper half is one
    // value (e.g. [1, 5, 5]) so both sides are always non-empty and every
    // recursion strictly shrinks.
    let mut radius = sorted[sorted.len() / 2];
    if radius == sorted[sorted.len() - 1] {
        radius = sorted[sorted.partition_point(|&d| d < radius) - 1];
    }
    let mut bands = [Band::empty(), Band::empty()];
    let mut inside = Vec::new();
    let mut outside = Vec::new();
    for (idx, d) in dists.drain(..) {
        let side = usize::from(d > radius);
        let e = &entries[idx as usize];
        bands[side].widen(d, e.shape.size, e.qid);
        if side == 0 {
            inside.push((idx, d));
        } else {
            outside.push((idx, d));
        }
    }
    Node::Inner {
        pivot,
        radius,
        bands,
        children: [
            Arc::new(build_node(entries, inside, leaf_cap)),
            Arc::new(build_node(entries, outside, leaf_cap)),
        ],
    }
}

/// Total-order wrapper for finite f64 bounds (never NaN).
#[derive(Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("metric bounds are never NaN")
    }
}

/// One best-first frontier item: a subtree with its admission bound and
/// the probe's exact TED to the subtree's parent pivot.
#[derive(Debug)]
struct Frontier<'a> {
    bound: OrdF64,
    seq: u64,
    node: &'a Node,
    parent_dist: u32,
    /// Smallest qid in the subtree (tie-plateau pruning).
    min_qid: u64,
}

impl PartialEq for Frontier<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}

impl Eq for Frontier<'_> {}

impl PartialOrd for Frontier<'_> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Frontier<'_> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.bound
            .cmp(&other.bound)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::signature::FeatureInterner;
    use sqlparse::statement_tree;
    use std::cell::RefCell;

    thread_local! {
        /// One label map per test thread, so every entry a test builds is
        /// comparable with every other.
        static LABELS: RefCell<FeatureInterner> = RefCell::default();
    }

    fn entry(qid: u64, sql: &str) -> TreeEntry {
        let node = statement_tree(&sqlparse::strip_constants(&sqlparse::parse(sql).unwrap()));
        let tree = LABELS.with(|labels| {
            let labels = &mut *labels.borrow_mut();
            FlatTree::of(&node, &mut |label| labels.intern(label))
        });
        let shape = Arc::new(TreeShape::of(&node));
        TreeEntry {
            qid,
            tree: Arc::new(tree),
            shape,
        }
    }

    fn pool() -> Vec<TreeEntry> {
        let sqls = [
            "SELECT * FROM WaterTemp WHERE temp < 18",
            "SELECT * FROM WaterTemp WHERE temp < 22",
            "SELECT lake FROM WaterTemp",
            "SELECT lake, temp FROM WaterTemp WHERE temp < 18 AND month = 7",
            "SELECT * FROM WaterSalinity WHERE salinity > 2",
            "SELECT city FROM CityLocations WHERE pop > 100000",
            "SELECT city, COUNT(*) FROM CityLocations GROUP BY city",
            "SELECT * FROM Lakes",
            "SELECT name FROM Lakes WHERE area > 50 ORDER BY name",
            "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x",
            "SELECT * FROM WaterTemp WHERE temp IN (SELECT temp FROM WaterSalinity)",
            "SELECT month, MAX(temp) FROM WaterTemp GROUP BY month HAVING MAX(temp) > 20",
            "SELECT DISTINCT lake FROM WaterTemp LIMIT 3",
            "SELECT * FROM CityLocations",
            "SELECT pop FROM CityLocations WHERE pop < 500",
            "SELECT * FROM Lakes WHERE max_depth > 10 AND area > 5",
            "SELECT salinity FROM WaterSalinity",
            "SELECT * FROM WaterSalinity WHERE salinity <= 1",
            "SELECT lake FROM Lakes, WaterTemp WHERE Lakes.name = WaterTemp.lake",
            "SELECT temp, salinity FROM WaterTemp, WaterSalinity",
        ];
        sqls.iter()
            .enumerate()
            .map(|(i, s)| entry(i as u64, s))
            .collect()
    }

    /// Every entry as a one-member group.
    fn single(vp: &VpTree) -> impl Fn(usize) -> [u64; 1] + '_ {
        move |i| [vp.entries[i].qid]
    }

    fn brute(entries: &[TreeEntry], probe: &TreeEntry, k: usize) -> Vec<ScoredHit> {
        let mut top = TopK::new(k);
        for e in entries {
            top.push(ScoredHit {
                id: QueryId(e.qid),
                score: 1.0 - normalized_ted(&probe.tree, &e.tree),
            });
        }
        top.into_vec()
    }

    /// A larger combinatorial pool (tables × predicates × shapes) so small
    /// leaf caps produce genuinely deep trees with non-trivial bands.
    fn big_pool() -> Vec<TreeEntry> {
        let tables = ["WaterTemp", "WaterSalinity", "CityLocations", "Lakes"];
        let cols = ["temp", "salinity", "pop", "area"];
        let mut out = Vec::new();
        let mut qid = 0u64;
        for (ti, t) in tables.iter().enumerate() {
            for (ci, c) in cols.iter().enumerate() {
                for op in ["<", ">", "="] {
                    out.push(entry(
                        qid,
                        &format!("SELECT * FROM {t} WHERE {c} {op} {ti}"),
                    ));
                    qid += 1;
                    out.push(entry(
                        qid,
                        &format!("SELECT {c} FROM {t} WHERE {c} {op} {ci} ORDER BY {c}"),
                    ));
                    qid += 1;
                    out.push(entry(
                        qid,
                        &format!(
                            "SELECT {c}, COUNT(*) FROM {t} GROUP BY {c} HAVING COUNT(*) {op} 2"
                        ),
                    ));
                    qid += 1;
                }
            }
        }
        out
    }

    #[test]
    fn knn_matches_brute_force_on_pool() {
        let entries = pool();
        for cap in [2, 4, LEAF_CAP] {
            let vp = VpTree::with_leaf_cap(entries.clone(), cap);
            let stats = MetricStats::default();
            for probe in &entries {
                for k in [1, 3, 7, 25] {
                    let got = vp.knn(&probe.tree, &probe.shape, k, single(&vp), |_| true, &stats);
                    assert_eq!(
                        got,
                        brute(&entries, probe, k),
                        "cap {cap} probe {} k {k}",
                        probe.qid
                    );
                }
            }
            // The bounds must actually fire on this workload.
            assert!(stats.bound_hits.load(Ordering::Relaxed) > 0);
        }
    }

    #[test]
    fn deep_tree_knn_matches_brute_force() {
        let entries = big_pool();
        assert!(entries.len() > 100);
        let vp = VpTree::with_leaf_cap(entries.clone(), 8);
        let stats = MetricStats::default();
        for probe in entries.iter().step_by(7) {
            for k in [1, 5, 20] {
                let got = vp.knn(&probe.tree, &probe.shape, k, single(&vp), |_| true, &stats);
                assert_eq!(got, brute(&entries, probe, k), "probe {} k {k}", probe.qid);
            }
        }
        assert!(stats.bound_hits.load(Ordering::Relaxed) > 0);
        assert!(stats.hit_rate() > 0.0);
        stats.reset();
        assert_eq!(stats.hit_rate(), 0.0);
        assert_eq!(stats.exact_evals.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn duplicate_heavy_store_builds_flat_buckets() {
        // Thousands of logs of one template are identical after constant
        // stripping — all pairwise TED 0. The build must keep them in one
        // bucket (no one-pivot-per-level recursion), and search must stay
        // exact with ascending-id ties.
        let mut entries: Vec<TreeEntry> = (0..300)
            .map(|i| entry(i, &format!("SELECT * FROM WaterTemp WHERE temp < {i}")))
            .collect();
        entries.push(entry(300, "SELECT city FROM CityLocations"));
        let mut vp = VpTree::with_leaf_cap(entries.clone(), 8);
        // Incremental inserts into the equidistant bucket stay cheap and
        // correct (power-of-two re-split attempts).
        for i in 301..340 {
            let e = entry(i, &format!("SELECT * FROM WaterTemp WHERE temp < {i}"));
            entries.push(e.clone());
            vp.insert(e);
        }
        let stats = MetricStats::default();
        for probe in [&entries[0], &entries[300], entries.last().unwrap()] {
            for k in [1, 5] {
                let got = vp.knn(&probe.tree, &probe.shape, k, single(&vp), |_| true, &stats);
                assert_eq!(got, brute(&entries, probe, k), "probe {} k {k}", probe.qid);
            }
        }
    }

    /// Entries fan out to their members: each distinct tree stands for
    /// three records, a filter hides some (first members included), and
    /// the answers equal brute force over the records, with at most one
    /// exact distance per entry per probe.
    #[test]
    fn member_fan_out_matches_brute_force() {
        let trees = big_pool();
        let entries: Vec<TreeEntry> = (trees.iter().enumerate())
            .map(|(i, e)| TreeEntry {
                qid: 3 * i as u64,
                ..e.clone()
            })
            .collect();
        let vp = VpTree::with_leaf_cap(entries.clone(), 4);
        let members = |i: usize| [3 * i as u64, 3 * i as u64 + 1, 3 * i as u64 + 2];
        let accept = |qid: u64| !qid.is_multiple_of(7);
        let records: Vec<TreeEntry> = (entries.iter())
            .flat_map(|e| {
                (0..3).map(move |j| TreeEntry {
                    qid: e.qid + j,
                    ..e.clone()
                })
            })
            .filter(|e| accept(e.qid))
            .collect();
        for probe in trees.iter().step_by(9) {
            for k in [1, 2, 5, 8] {
                let stats = MetricStats::default();
                let got = vp.knn(&probe.tree, &probe.shape, k, members, accept, &stats);
                assert_eq!(got, brute(&records, probe, k), "probe {} k {k}", probe.qid);
                assert!(stats.exact_evals.load(Ordering::Relaxed) <= entries.len() as u64);
            }
        }
    }

    #[test]
    fn incremental_insert_stays_exact() {
        let entries = big_pool();
        // Build small, insert the rest incrementally — enough inserts to
        // split leaves and widen bands along real descent paths.
        let mut vp = VpTree::with_leaf_cap(entries[..10].to_vec(), 4);
        for e in &entries[10..] {
            vp.insert(e.clone());
        }
        let stats = MetricStats::default();
        for probe in entries.iter().step_by(11) {
            let got = vp.knn(&probe.tree, &probe.shape, 4, single(&vp), |_| true, &stats);
            assert_eq!(got, brute(&entries, probe, 4), "probe {}", probe.qid);
        }
    }

    /// The sharing contract: a clone owns no copy of the entries. With a
    /// clone held after *every* insert, the first entry's tree is referenced
    /// once per copy of its chunk — and the chunk stops being copied once a
    /// later chunk takes the appends — not once per held clone.
    #[test]
    fn held_clones_share_entries_by_chunk() {
        let tables = ["WaterTemp", "WaterSalinity", "CityLocations", "Lakes"];
        let mut vp = VpTree::with_leaf_cap(Vec::new(), 8);
        let mut held = Vec::new();
        for i in 0..1_000u64 {
            // Every entry parses its own tree: no `Arc` is in two entries.
            let (t, extra) = (tables[i as usize % 4], if i % 3 == 0 { ", 1" } else { "" });
            vp.insert(entry(i, &format!("SELECT *{extra} FROM {t} WHERE x < {i}")));
            held.push(vp.clone());
        }
        // One reference per copy of the first chunk: at most one copy per
        // insert that found it shared, while it was the chunk appended to.
        let first = &held[0].entries[0].tree;
        assert!(
            Arc::strong_count(first) <= cqms_cow::CHUNK + 2,
            "{} references for {} held clones",
            Arc::strong_count(first),
            held.len()
        );
        assert_eq!(held[499].len(), 500);
    }

    /// Path copying changes nothing observable: a tree grown with a clone
    /// held after every insert answers — hits *and* bound/exact counters —
    /// exactly like one grown alone, and every held clone still answers as
    /// of its clone time.
    #[test]
    fn inserts_under_held_clones_match_unshared_growth() {
        let entries = big_pool();
        let mut alone = VpTree::with_leaf_cap(Vec::new(), 4);
        let mut shared = VpTree::with_leaf_cap(Vec::new(), 4);
        let mut held = Vec::new();
        for e in &entries {
            alone.insert(e.clone());
            shared.insert(e.clone());
            held.push(shared.clone());
        }
        let counters = |s: &MetricStats| {
            (
                s.bound_hits.load(Ordering::Relaxed),
                s.exact_evals.load(Ordering::Relaxed),
            )
        };
        for probe in entries.iter().step_by(5) {
            for k in [1, 4, 9] {
                let (sa, ss) = (MetricStats::default(), MetricStats::default());
                let want = alone.knn(&probe.tree, &probe.shape, k, single(&alone), |_| true, &sa);
                let got = shared.knn(&probe.tree, &probe.shape, k, single(&shared), |_| true, &ss);
                assert_eq!(got, want, "probe {} k {k}", probe.qid);
                assert_eq!(counters(&ss), counters(&sa), "probe {} k {k}", probe.qid);
            }
        }
        let stats = MetricStats::default();
        for (n, snap) in held.iter().enumerate().step_by(13) {
            assert_eq!(snap.len(), n + 1);
            let probe = &entries[n / 2];
            let got = snap.knn(&probe.tree, &probe.shape, 3, single(snap), |_| true, &stats);
            assert_eq!(got, brute(&entries[..=n], probe, 3), "clone {n}");
        }
    }

    #[test]
    fn accept_filter_and_empty_tree() {
        let entries = pool();
        let vp = VpTree::with_leaf_cap(entries.clone(), 4);
        let stats = MetricStats::default();
        let probe = &entries[0];
        // Filter to even qids only (tombstone/ACL stand-in).
        let got = vp.knn(
            &probe.tree,
            &probe.shape,
            3,
            single(&vp),
            |q| q % 2 == 0,
            &stats,
        );
        let even: Vec<TreeEntry> = entries.iter().filter(|e| e.qid % 2 == 0).cloned().collect();
        assert_eq!(got, brute(&even, probe, 3));

        let empty = VpTree::build(Vec::new());
        assert!(empty.is_empty());
        assert!(empty
            .knn(
                &probe.tree,
                &probe.shape,
                3,
                single(&empty),
                |_| true,
                &stats
            )
            .is_empty());
    }
}
