//! The index registry: every derived index of the Query Storage.
//!
//! A rebuild used to drop an index the storage owned inline, and the next
//! unlucky probe paid a stop-the-world lazy build (one Zhang–Shasha
//! distance per pivot level per tree). The registry owns the indexes
//! instead, and keeps **one** structural index ([`StructuralIndex`]): the
//! tree groups and the VP-tree over them, the tree-less list, the
//! ParseTree profile-fingerprint groups and their complement, and the
//! feature classes, over every non-tombstoned record. Every structure in
//! it is *persistent* (path-copying VP-tree, `cqms_cow` containers), so
//!
//! * an insert indexes the record directly — it is visible to probes the
//!   moment the insert returns, whether the index was bulk-built by the
//!   last rebuild or grown from empty;
//! * the registry clone a read snapshot holds shares the index with the
//!   writer by pointer, the next insert copies only the path it touches,
//!   and nothing the writer does later — an insert, a publish — reaches a
//!   clone already taken.
//!
//! A **rebuild** is therefore not how records become searchable. It is
//! housekeeping: it re-balances the VP-tree to median-radius pivots
//! (which search better than incrementally grown ones), drops the entries
//! of tombstoned records, and retires the override log (below). Rebuilds
//! are **scheduled**, never executed on a probe:
//! [`IndexRegistry::schedule_rebuild`] just sets a flag (tombstone
//! threshold crossed, a `reindex` landed, a summary was refreshed), and
//! the background miner epoch runs it double-buffered — it pins a storage
//! clone under a momentary read lock (pointer bumps),
//! `IndexRegistry::begin_rebuild` reads the pinned records in place and
//! constructs the next generation with **no lock held** (readers and
//! writers both proceed against the standing index for the whole
//! O(n log n) build), then `IndexRegistry::publish_rebuild` *replays the
//! delta* — records inserted past the pinned length; reindexes stay
//! masked by the override log — and publishes with one swap. No probe
//! ever sees a missing record: before the swap mid-build arrivals are in
//! the standing index; after it they were replayed into the new one
//! before it became visible.
//!
//! Records whose *content* changed in place (maintenance repairs through
//! `reindex`, summary refreshes) are tracked in an **override log**: the
//! index entries of an overridden qid are masked at query time and the
//! record is re-evaluated from its live signature, so probes stay exact
//! between the repair and the next rebuild. Each override carries a
//! mutation epoch so a publish only retires overrides the finished build
//! actually observed, and the storage forces an inline publish once
//! [`OVERRIDE_PUBLISH_THRESHOLD`] of them are outstanding.
//!
//! Three [`Grouping`]s file records that any probe finds at one distance,
//! so each group costs a sweep one evaluation instead of one per member:
//!
//! * the **tree groups** file each record that has a parse tree by its
//!   constant-stripped [`FlatTree`]. The VP-tree indexes the groups, not
//!   the records: an insert whose tree already has a group appends its
//!   qid and computes no distance, only a new tree descends the VP-tree,
//!   and a TreeEdit probe takes one exact distance per surviving group;
//! * the **profile groups** file each record by its diff-folded SELECT,
//!   for the ParseTree sweep;
//! * the **feature classes** file each record by the exact interned
//!   table, attribute and predicate-template ids of its signature, for
//!   the `Features` and `Combined` sweeps.
//!
//! All three share one lifecycle: filed at insert, refiled by a rebuild,
//! tombstoned and flagged members filtered at query time, overridden
//! members masked.

use crate::metricindex::{MetricIndexStats, TreeEntry, VpTree, REBUILD_DEAD_FRACTION};
use crate::model::{QueryRecord, Validity};
use crate::signature::SimSignature;
use cqms_cow::{CowMap, SegVec, SnapshotVec};
use sqlparse::fingerprint::{fnv1a, fnv1a_extend};
use sqlparse::{FlatTree, SelectProfile, SelectStatement};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Chunk size of the registry's member-list vectors — one slot per tree
/// group, profile group or feature class. They stay short (hundreds of
/// slots), each slot is several `Arc`s wide, and a write lands on slots
/// scattered all over them, so the chunk a write copies is kept small.
/// The keys beside them only grow at the end, so they take the default
/// chunk.
pub const SLOT_CHUNK: usize = 32;

/// One group of a [`Grouping`]: the key its members share and their
/// qids, borrowed from the grouping.
#[derive(Debug)]
pub struct Group<'a, K> {
    /// What every member has identically (the group key).
    pub key: &'a K,
    /// Member qids, ascending. Built from non-tombstoned records;
    /// liveness/ACL/overrides are filtered at query time. A [`SegVec`], so
    /// a popular group's list is shared with read snapshots however long
    /// it grows.
    pub members: &'a SegVec<u64>,
}

impl<K> Clone for Group<'_, K> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<K> Copy for Group<'_, K> {}

/// Records grouped by a key they share exactly: a fingerprint buckets
/// them and an equality check on the key resolves collisions, so a hash
/// collision can never merge two groups. The tree groups, the profile
/// groups and the feature classes are each one.
///
/// Persistent: a clone is pointer copies. Keys and member lists sit in
/// separate vectors, so adding a member to a cloned grouping copies one
/// chunk of member-list headers and one member-list tail, and no key:
/// only a new group appends a key. Keys are cheap to clone (`Arc`s), as
/// that append copies the last chunk of them.
#[derive(Debug, Clone)]
pub struct Grouping<K> {
    keys: SnapshotVec<K>,
    /// Member lists, one per key, in the same order.
    members: SnapshotVec<SegVec<u64>, SLOT_CHUNK>,
    /// Key fingerprint → group indices (collision bucket).
    by_fp: CowMap<u64, Vec<u32>>,
    /// Members over all groups.
    member_count: usize,
}

impl<K> Default for Grouping<K> {
    fn default() -> Self {
        Grouping {
            keys: SnapshotVec::default(),
            members: SnapshotVec::default(),
            by_fp: CowMap::default(),
            member_count: 0,
        }
    }
}

impl<K: Clone> Grouping<K> {
    /// Add `qid` to the group whose key `is_key` accepts among those
    /// fingerprinted `fp`, creating the group from `key()` on first sight.
    /// Returns the group's index and whether it was created.
    ///
    /// Members arrive in ascending qid order on every path (storage ids
    /// are dense and a build scan, inserts and publish replay all go in
    /// id order), so this is an append, and a group's first member stays
    /// its smallest for good — the VP-tree's tie bounds rely on it.
    fn insert(
        &mut self,
        qid: u64,
        fp: u64,
        is_key: impl Fn(&K) -> bool,
        key: impl FnOnce() -> K,
    ) -> (usize, bool) {
        self.member_count += 1;
        let bucket = self.by_fp.get(&fp).map_or(&[][..], Vec::as_slice);
        let existing = bucket
            .iter()
            .map(|&gi| gi as usize)
            .find(|&gi| is_key(&self.keys[gi]));
        let Some(gi) = existing else {
            let gi = self.keys.len();
            self.by_fp.entry_or_default(fp).push(gi as u32);
            self.keys.push(key());
            self.members.push([qid].into_iter().collect());
            return (gi, true);
        };
        let members = self
            .members
            .get_mut(gi)
            .expect("bucket indices address groups");
        debug_assert!(members.last() < Some(&qid), "members arrive in id order");
        members.push(qid);
        (gi, false)
    }

    /// Number of distinct groups.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Number of members over all groups.
    pub fn member_count(&self) -> usize {
        self.member_count
    }

    /// The group created `index`-th.
    pub fn group(&self, index: usize) -> Group<'_, K> {
        Group {
            key: &self.keys[index],
            members: &self.members[index],
        }
    }

    /// Are there no groups?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Iterate the groups in creation order.
    pub fn iter(&self) -> impl Iterator<Item = Group<'_, K>> {
        (self.keys.iter())
            .zip(self.members.iter())
            .map(|(key, members)| Group { key, members })
    }

    /// Pointers a `clone()` copies: one per chunk of keys and of member
    /// lists.
    fn chunk_count(&self) -> usize {
        self.keys.chunk_count() + self.members.chunk_count()
    }
}

/// The key of a ParseTree profile-fingerprint group: every member's
/// diff-folded SELECT is *identical*, which makes both the diff lower
/// bound and the exact diff distance shared across the whole group — the
/// per-probe sweep does one bound and at most one exact evaluation per
/// group instead of one per record.
#[derive(Debug, Clone)]
pub struct ProfileKey {
    /// The shared diff-folded statement.
    pub folded: Arc<SelectStatement>,
    /// Its clause profile, feeding [`sqlparse::edit_distance_lower_bound`].
    pub profile: Arc<SelectProfile>,
}

/// Profile-fingerprint grouping of every indexed record that has a
/// diff-folded SELECT (the ROADMAP's "identical folded SELECTs share one
/// bound/exact evaluation").
pub type ProfileGroups = Grouping<ProfileKey>;

/// The key of a feature class: the interned table, attribute and
/// predicate-template ids every member's signature carries. The feature
/// distance of a probe to each member is the same, so the `Features` and
/// `Combined` sweeps compute it once per class.
#[derive(Debug, Clone, PartialEq)]
pub struct FeatureKey {
    /// Interned table ids, sorted.
    pub tables: Vec<u32>,
    /// Interned attribute ids, sorted.
    pub attributes: Vec<u32>,
    /// Interned predicate-template ids, sorted.
    pub predicates: Vec<u32>,
}

impl FeatureKey {
    /// The three id sets, as [`SimSignature::feature_sets`] gives them.
    pub fn sets(&self) -> [&[u32]; 3] {
        [&self.tables, &self.attributes, &self.predicates]
    }
}

/// Feature classes over every indexed record.
pub type FeatureClasses = Grouping<Arc<FeatureKey>>;

/// Tree groups over every indexed record that has a parse tree, keyed by
/// its constant-stripped [`FlatTree`]: members are at one tree edit
/// distance from any probe. Group `i` is entry `i` of the VP-tree.
pub type TreeGroups = Grouping<Arc<FlatTree>>;

/// One feature class: its id sets and member qids.
pub type FeatureClass<'a> = Group<'a, Arc<FeatureKey>>;

/// FNV-1a over the three id sets, each closed by its length so ids
/// cannot shift between namespaces.
fn feature_fp(sets: [&[u32]; 3]) -> u64 {
    sets.iter().fold(fnv1a(b""), |h, set| {
        let h = set
            .iter()
            .fold(h, |h, id| fnv1a_extend(h, &id.to_le_bytes()));
        fnv1a_extend(h, &(set.len() as u32).to_le_bytes())
    })
}

/// The structural index: the tree groups and the VP-tree over them, the
/// tree-less list, the ParseTree profile-fingerprint groups and their
/// complement, and the feature classes, over every non-tombstoned record
/// (minus tombstones the last rebuild dropped).
///
/// Persistent: a clone is pointer copies, and indexing one more record
/// into a cloned index copies a root-to-leaf path of the VP-tree, one
/// chunk of entries or group headers and one list tail — never a
/// structure that grows with the log. The clone is never touched.
#[derive(Debug, Clone)]
pub struct StructuralIndex {
    /// Rebuilds published into this index so far (0 = grown from empty).
    pub generation: u64,
    /// Tree groups: every indexed record with a parse tree, filed by it.
    pub trees: TreeGroups,
    /// VP-tree with one entry per tree group, in group order.
    pub tree: VpTree,
    /// Ascending qids of indexed records without a parse tree (distance
    /// exactly 1.0 under tree metrics). Liveness filtered at query time.
    pub treeless: SegVec<u64>,
    /// ParseTree profile-fingerprint groups over the indexed records.
    pub groups: ProfileGroups,
    /// Ascending qids of indexed records without a folded SELECT (the
    /// groups' complement; ParseTree evaluates them per record).
    pub ungrouped: SegVec<u64>,
    /// Feature classes: every indexed record, filed by its interned
    /// table, attribute and predicate-template ids.
    pub classes: FeatureClasses,
}

impl StructuralIndex {
    fn empty() -> StructuralIndex {
        StructuralIndex {
            generation: 0,
            trees: TreeGroups::default(),
            tree: VpTree::build(Vec::new()),
            treeless: SegVec::new(),
            groups: ProfileGroups::default(),
            ungrouped: SegVec::new(),
            classes: FeatureClasses::default(),
        }
    }

    /// Point a newly indexed record's signature at the copies its groups
    /// hold: the tree group's `FlatTree` and its VP-tree entry's
    /// `TreeShape`, the profile group's folded SELECT and its profile.
    /// Each is equal to the signature's own, so no answer moves; the
    /// record just stops keeping a second copy. A record that opened its
    /// group already holds what the group holds.
    fn adopt(&self, sig: &mut SimSignature, filed: Filed) {
        if let Some(gi) = filed.profile_group {
            let key = self.groups.group(gi).key;
            sig.folded_select = Some(Arc::clone(&key.folded));
            sig.diff_profile = Some(Arc::clone(&key.profile));
        }
        if let Some(gi) = filed.tree_group {
            sig.tree = Some(Arc::clone(self.trees.group(gi).key));
            sig.tree_shape = Some(Arc::clone(&self.tree.entry(gi).shape));
        }
    }

    /// Index one record (an insert, or a publish replaying one) and say
    /// which groups took it.
    fn add(&mut self, qid: u64, sig: &SimSignature) -> Filed {
        let (filed, entry) = self.add_beside_tree(qid, sig);
        if let Some(entry) = entry {
            self.tree.insert(entry);
        }
        filed
    }

    /// Index one record into everything but the VP-tree and hand back
    /// the groups that took it, with the VP-tree entry of its tree if
    /// that tree is new to the index: a rebuild collects the entries for
    /// one bulk [`VpTree::build`].
    fn add_beside_tree(&mut self, qid: u64, sig: &SimSignature) -> (Filed, Option<TreeEntry>) {
        let sets = sig.feature_sets();
        self.classes.insert(
            qid,
            feature_fp(sets),
            |k| k.sets() == sets,
            || {
                Arc::new(FeatureKey {
                    tables: sig.tables.clone(),
                    attributes: sig.attributes.clone(),
                    predicates: sig.predicates.clone(),
                })
            },
        );
        let profile_group = match (sig.profile_fp, &sig.folded_select, &sig.diff_profile) {
            (Some(fp), Some(folded), Some(profile)) => {
                let (gi, _) = self.groups.insert(
                    qid,
                    fp,
                    |k| Arc::ptr_eq(&k.folded, folded) || k.folded == *folded,
                    || ProfileKey {
                        folded: Arc::clone(folded),
                        profile: Arc::clone(profile),
                    },
                );
                Some(gi)
            }
            _ => {
                self.ungrouped.push(qid);
                None
            }
        };
        let (Some(tree), Some(shape)) = (&sig.tree, &sig.tree_shape) else {
            self.treeless.push(qid);
            let filed = Filed {
                profile_group,
                tree_group: None,
            };
            return (filed, None);
        };
        let (gi, opened) = self.trees.insert(
            qid,
            tree.fingerprint(),
            |k| Arc::ptr_eq(k, tree) || k == tree,
            || Arc::clone(tree),
        );
        let entry = opened.then(|| TreeEntry {
            qid,
            tree: Arc::clone(tree),
            shape: Arc::clone(shape),
        });
        let filed = Filed {
            profile_group,
            tree_group: Some(gi),
        };
        (filed, entry)
    }
}

/// The groups [`StructuralIndex::add_beside_tree`] filed a record in.
#[derive(Debug, Clone, Copy)]
struct Filed {
    /// Its profile group, if it has a folded SELECT.
    profile_group: Option<usize>,
    /// Its tree group (and VP-tree entry), if it has a tree.
    tree_group: Option<usize>,
}

/// An in-flight double-buffered rebuild: the next generation, fully built
/// from a pinned storage clone but not yet published. Produced by
/// `IndexRegistry::begin_rebuild`, consumed by
/// `IndexRegistry::publish_rebuild` (exclusive borrow — replay the
/// delta, swap). The generation *number* is assigned at publish time, so
/// every swap bumps it by exactly 1 even when two rebuilds race.
pub struct IndexBuild {
    index: StructuralIndex,
    /// Length of the pinned record log: records at or past it arrived
    /// after the pin and are replayed at publish.
    built_len: usize,
    /// Override-log epoch observed at pin time: overrides recorded
    /// after it were not visible to this build and must survive publish.
    collect_epoch: u64,
    /// Publish-sequence number observed at pin time: a build whose
    /// pin predates the latest publish is redundant (that publish
    /// covered a newer log) and is discarded instead of swapping
    /// older content back in or re-applying its counter bookkeeping.
    collect_seq: u64,
    /// Tombstones-of-indexed-records counter at pin time (the build
    /// dropped exactly these; later ones carry over).
    dead_at_collect: usize,
}

/// One override-log entry: a record whose index entries went stale in
/// place (reindex, summary refresh).
#[derive(Debug, Clone, Copy)]
struct Override {
    qid: u64,
    /// Mutation epoch of the *latest* in-place change to this record.
    epoch: u64,
}

/// Outstanding overrides at which the storage publishes a rebuild inline.
/// Each override costs every structural probe a scan entry until a
/// publish retires it; under a repair storm the scheduled background
/// rebuild may lag arbitrarily, so the storm itself amortises the
/// publish and probes never scan more than this many.
pub const OVERRIDE_PUBLISH_THRESHOLD: usize = 64;

/// The index registry: the structural index, the override log and the
/// rebuild schedule. Owned by the Query Storage; every write-path hook
/// takes `&mut self` from storage's own exclusive borrow, every probe
/// reads through `&self`. A clone is pointer copies: the stats block is
/// shared, the structural index chunk by chunk.
#[derive(Debug, Clone)]
pub struct IndexRegistry {
    /// The structural index. Inserts path-copy into it; a publish
    /// (`&mut self`) replaces it; a registry clone keeps the one it was
    /// cloned with.
    index: StructuralIndex,
    /// Override log, sorted by qid. Bounded by
    /// [`OVERRIDE_PUBLISH_THRESHOLD`] and changed by repairs only, so one
    /// shared vector, copied whole by the rare repair that follows a clone.
    overrides: Arc<Vec<Override>>,
    /// Monotonic counter of in-place record mutations (override epochs).
    mutations: u64,
    /// Monotonic publish counter: a racing build that pinned before
    /// the latest publish is discarded at its own publish instead of
    /// clobbering newer content (and the overrides the newer publish
    /// legitimately retired) or double-applying counter bookkeeping.
    publish_seq: u64,
    /// Tombstoned records that still occupy index entries.
    dead_entries: usize,
    rebuild_wanted: bool,
    /// Cheap-bound and rebuild counters. `Arc`-shared with read
    /// snapshots, so probes served off a snapshot still feed the same
    /// counters (they are relaxed atomics, not control flow).
    stats: Arc<MetricIndexStats>,
}

impl Default for IndexRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl IndexRegistry {
    /// An empty registry (generation 0, nothing scheduled).
    pub fn new() -> IndexRegistry {
        IndexRegistry {
            index: StructuralIndex::empty(),
            overrides: Arc::new(Vec::new()),
            mutations: 0,
            publish_seq: 0,
            dead_entries: 0,
            rebuild_wanted: false,
            stats: Arc::new(MetricIndexStats::default()),
        }
    }

    // ------------------------------------------------------------------
    // Read side
    // ------------------------------------------------------------------

    /// The structural index every TreeEdit / ParseTree probe searches.
    pub fn structural(&self) -> &StructuralIndex {
        &self.index
    }

    /// Is this record's index content stale (overridden in place since
    /// it was indexed)? Probes mask such entries and re-evaluate the
    /// record from its live signature.
    pub fn overridden(&self, qid: u64) -> bool {
        self.overrides.binary_search_by_key(&qid, |o| o.qid).is_ok()
    }

    /// Qids in the override log, ascending.
    pub fn override_qids(&self) -> impl Iterator<Item = u64> + '_ {
        self.overrides.iter().map(|o| o.qid)
    }

    /// Outstanding overrides (each one is masked and re-evaluated by
    /// every probe until a publish retires it; see
    /// [`OVERRIDE_PUBLISH_THRESHOLD`]).
    pub fn override_count(&self) -> usize {
        self.overrides.len()
    }

    /// Cheap-bound effectiveness counters + rebuild counters.
    pub fn stats(&self) -> &MetricIndexStats {
        &self.stats
    }

    /// The generation of this registry's structural index.
    pub fn generation(&self) -> u64 {
        self.index.generation
    }

    // ------------------------------------------------------------------
    // Write-path hooks (called by the Query Storage)
    // ------------------------------------------------------------------

    /// A non-tombstoned record is being inserted: index it, then point
    /// its signature at the tree and folded SELECT its groups hold.
    pub(crate) fn note_insert(&mut self, record: &QueryRecord, sig: &mut SimSignature) {
        let filed = self.index.add(record.id.0, sig);
        self.index.adopt(sig, filed);
    }

    /// A record was tombstoned. Dead weight accumulates in the index —
    /// tree-group members *and* the tree-less / ungrouped side lists,
    /// which probes still touch per id — until it crosses
    /// [`REBUILD_DEAD_FRACTION`], which *schedules* a background rebuild;
    /// the probe path only ever reads the index as it stands.
    pub(crate) fn note_tombstone(&mut self) {
        self.dead_entries += 1;
        if self.dead_fraction() > REBUILD_DEAD_FRACTION {
            self.schedule_rebuild();
        }
    }

    fn dead_fraction(&self) -> f64 {
        // Tree-group members + `treeless` cover every indexed record
        // exactly once.
        let indexed = self.index.trees.member_count() + self.index.treeless.len();
        self.dead_entries as f64 / indexed.max(1) as f64
    }

    /// A record's index content changed in place (reindex / summary
    /// refresh): log the override and schedule the rebuild that retires
    /// it. Until then, probes mask the stale entries and evaluate the
    /// record from its live signature.
    pub(crate) fn note_reindex(&mut self, qid: u64) {
        self.mutations += 1;
        let epoch = self.mutations;
        let overrides = Arc::make_mut(&mut self.overrides);
        match overrides.binary_search_by_key(&qid, |o| o.qid) {
            Ok(pos) => overrides[pos].epoch = epoch,
            Err(pos) => overrides.insert(pos, Override { qid, epoch }),
        }
        self.schedule_rebuild();
    }

    // ------------------------------------------------------------------
    // Rebuild lifecycle
    // ------------------------------------------------------------------

    /// Request a background rebuild (executed by the next miner epoch or
    /// an explicit maintenance call — never by a probe).
    pub fn schedule_rebuild(&mut self) {
        if !self.rebuild_wanted {
            self.rebuild_wanted = true;
            self.stats
                .rebuilds_scheduled
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Has a rebuild been scheduled and not yet published?
    pub fn rebuild_pending(&self) -> bool {
        self.rebuild_wanted
    }

    /// Phase 1 of the double-buffered rebuild: build the next generation
    /// from a record log read in place. Called on a *pinned* storage
    /// clone — registry, records and signatures all of one instant — so
    /// the O(n log n) build runs with no lock held, or on the live
    /// storage by synchronous callers that hold exclusive access anyway
    /// (the miner epoch's inline maintenance pass, the override bound,
    /// tests).
    pub(crate) fn begin_rebuild(
        &self,
        records: &SnapshotVec<Arc<QueryRecord>>,
        signatures: &SnapshotVec<Arc<SimSignature>>,
    ) -> IndexBuild {
        let mut index = StructuralIndex::empty();
        // Bulk-build the VP-tree over the distinct trees: median-radius
        // pivots beat the incrementally grown ones of the tree this
        // generation replaces.
        let mut entries = Vec::new();
        for (record, sig) in records.iter().zip(signatures.iter()) {
            if record.validity != Validity::Deleted {
                entries.extend(index.add_beside_tree(record.id.0, sig).1);
            }
        }
        index.tree = VpTree::build(entries);
        IndexBuild {
            index,
            built_len: records.len(),
            collect_epoch: self.mutations,
            collect_seq: self.publish_seq,
            dead_at_collect: self.dead_entries,
        }
    }

    /// Phase 2: replay the delta that landed while the build ran —
    /// records inserted past the pinned length are indexed into the new
    /// generation incrementally; overrides the build observed are
    /// retired, younger ones survive — then publish with one swap. After
    /// this returns, probes serve the new generation; registry clones
    /// taken earlier keep the index they were cloned with.
    ///
    /// Returns `false` (discarding the build) when a racing rebuild
    /// published since this build's pin: the standing index covers a
    /// newer log, so swapping the older content back in would serve
    /// pre-reindex entries whose overrides the newer publish legitimately
    /// retired — and re-running the counter bookkeeping would
    /// double-apply it.
    pub(crate) fn publish_rebuild(
        &mut self,
        build: IndexBuild,
        records: &SnapshotVec<Arc<QueryRecord>>,
        signatures: &SnapshotVec<Arc<SimSignature>>,
    ) -> bool {
        if build.collect_seq < self.publish_seq {
            return false;
        }
        let mut index = build.index;
        // Delta replay: records inserted after the pin. A mid-build
        // insert that was already tombstoned again is left out of the
        // new generation — and stops counting as dead weight with it.
        let delta = records.iter().zip(signatures.iter()).skip(build.built_len);
        for (record, sig) in delta {
            if record.validity != Validity::Deleted {
                index.add(record.id.0, sig);
            } else {
                self.dead_entries = self.dead_entries.saturating_sub(1);
            }
        }
        // Overrides the build saw are now materialised; mid-build ones
        // keep masking until the next rebuild.
        Arc::make_mut(&mut self.overrides).retain(|o| o.epoch > build.collect_epoch);
        self.publish_seq += 1;
        // Tombstones the build dropped stop counting as dead weight.
        self.dead_entries -= build.dead_at_collect.min(self.dead_entries);
        // Publish: the one swap of the lifecycle. The generation number
        // is assigned *here* — each swap bumps it by exactly 1 even when
        // two rebuilds raced their builds against the same base.
        index.generation = self.index.generation + 1;
        self.index = index;
        self.stats
            .rebuilds_completed
            .fetch_add(1, Ordering::Relaxed);
        // Mid-build churn may immediately justify the next rebuild.
        self.rebuild_wanted =
            !self.overrides.is_empty() || self.dead_fraction() > REBUILD_DEAD_FRACTION;
        true
    }

    /// Pointers a `clone()` copies: one per chunk of tree entries, tree
    /// groups, profile groups and feature classes.
    pub fn clone_len(&self) -> usize {
        self.index.tree.clone_len()
            + self.index.trees.chunk_count()
            + self.index.groups.chunk_count()
            + self.index.classes.chunk_count()
    }
}
