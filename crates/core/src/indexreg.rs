//! The generation-versioned index registry.
//!
//! PR 4 left every derived structure — the VP-tree, the feature-posting
//! lists, the tree-less side list — owned *inline* by the Query Storage:
//! a rebuild (tombstone threshold, maintenance `reindex`) dropped the
//! index and the next unlucky probe paid a stop-the-world lazy build
//! (~100 ms per 1000 trees). Following the segment/epoch designs of the
//! `tinydb` storage engines (immutable sealed state + a small mutable
//! head), this module splits every structural index into two halves:
//!
//! * a **sealed generation** ([`StructuralGen`]) — an immutable snapshot
//!   of the VP-tree, the tree-less list, the ParseTree
//!   profile-fingerprint groups and their complement, covering every
//!   record below a `horizon` qid. Readers grab it as an `Arc` and keep
//!   serving it unconditionally; it is only ever *replaced*, by a single
//!   atomic swap.
//! * a **mutable head** — the same four structures, maintained
//!   incrementally by the write paths for records at or above the
//!   horizon. The head is the delta log made queryable: probes merge
//!   sealed and head results, so a record is visible the moment its
//!   insert returns, no matter how stale the sealed generation is. Every
//!   head structure is *persistent* (path-copying VP-tree, `cqms_cow`
//!   containers), so the registry clone a read snapshot holds shares the
//!   head with the writer and the next insert copies only what it touches.
//!
//! Rebuilds are **scheduled**, never executed on a probe:
//! [`IndexRegistry::schedule_rebuild`] just sets a flag (tombstone
//! threshold crossed, a `reindex` landed, a summary was refreshed), and
//! the background miner epoch runs the double-buffered build —
//! `IndexRegistry::collect_rebuild` captures a cheap self-contained
//! snapshot (per-record `Arc` clones) under a momentary read lock,
//! [`RebuildSnapshot::build`] constructs generation N+1 with **no lock
//! held** (readers and writers both proceed against generation N for
//! the whole O(n log n) build), then
//! `IndexRegistry::publish_rebuild` *replays the delta* — inserts that
//! landed mid-build (qids past the collected horizon) and reindexes
//! recorded in the override log — and publishes with one atomic swap.
//! No probe ever sees a missing record: before the swap it finds
//! mid-build arrivals in the head; after the swap they are replayed into
//! generation N+1 before it becomes visible.
//!
//! Records whose *content* changed in place (maintenance repairs through
//! `reindex`, summary refreshes) are tracked in an **override log**: the
//! sealed and head entries for an overridden qid are masked at query
//! time and the record is re-evaluated from its live signature, so
//! probes stay exact between the repair and the next rebuild. Each
//! override carries a mutation epoch so a publish only retires overrides
//! the finished build actually observed.
//!
//! The feature-posting lists are the registry's permanently-mutable
//! head, one list per interned feature id in a chunked vector: appends
//! are O(1) and coherent by construction. Their lazy compaction used to
//! run inline the moment a list crossed its stale threshold; the registry
//! instead queues the list and compacts it in the background maintenance pass
//! (`IndexRegistry::maintain_postings`), keeping every maintenance
//! transition O(1) per list and the read path allocation-free.

use crate::metricindex::{MetricIndexStats, TreeEntry, VpTree, REBUILD_DEAD_FRACTION};
use crate::model::{QueryRecord, Validity};
use crate::postings::{self, PostingCursor, PostingList};
use crate::signature::SimSignature;
use cqms_cow::{CowMap, SegVec, SnapshotVec};
use sqlparse::{SelectProfile, SelectStatement, TreeNode, TreeShape};
use std::collections::HashSet;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Chunk size of the registry's slot vectors — one slot per interned
/// feature, one per profile group. They stay short (hundreds of slots),
/// each slot is several `Arc`s wide, and a write lands on slots scattered
/// all over them, so the chunk a write copies is kept small.
pub const SLOT_CHUNK: usize = 32;

/// The feature-posting lists, indexed by interned feature id.
pub type PostingLists = SnapshotVec<PostingList, SLOT_CHUNK>;

/// One ParseTree profile-fingerprint group: every member's diff-folded
/// SELECT is *identical* (fingerprint bucket + structural equality, so a
/// hash collision can never merge two templates), which makes both the
/// diff lower bound and the exact diff distance shared across the whole
/// group — the per-probe sweep does one bound and at most one exact
/// evaluation per group instead of one per record.
#[derive(Debug, Clone)]
pub struct ProfileGroup {
    /// Fingerprint of the folded statement (bucket key; the executor
    /// uses it to merge a head group with its sealed twin per probe).
    pub fp: u64,
    /// The shared diff-folded statement (the group key).
    pub folded: Arc<SelectStatement>,
    /// Its clause profile, feeding [`sqlparse::edit_distance_lower_bound`].
    pub profile: Arc<SelectProfile>,
    /// Member qids, ascending. Built from non-tombstoned records;
    /// liveness/ACL/overrides are filtered at query time. A [`SegVec`], so
    /// a popular template's list is shared with read snapshots however
    /// long it grows.
    pub members: SegVec<u64>,
}

/// Profile-fingerprint grouping of every indexed record that has a
/// diff-folded SELECT (the ROADMAP's "identical folded SELECTs share one
/// bound/exact evaluation").
///
/// Persistent: a clone is pointer copies, and adding a member to a cloned
/// grouping copies one chunk of group headers and one member-list tail.
#[derive(Debug, Default, Clone)]
pub struct ProfileGroups {
    groups: SnapshotVec<ProfileGroup, SLOT_CHUNK>,
    /// Folded-statement fingerprint → group indices (collision bucket).
    by_fp: CowMap<u64, Vec<u32>>,
}

impl ProfileGroups {
    /// Add `qid` to its group, creating the group on first sight.
    /// Returns `false` when the signature has no folded SELECT (the
    /// record belongs on the ungrouped side list instead).
    pub fn insert(&mut self, qid: u64, sig: &SimSignature) -> bool {
        let (Some(fp), Some(folded), Some(profile)) =
            (sig.profile_fp, &sig.folded_select, &sig.diff_profile)
        else {
            return false;
        };
        self.insert_parts(qid, fp, folded, profile);
        true
    }

    /// [`ProfileGroups::insert`] from pre-extracted parts (the rebuild
    /// snapshot carries these instead of whole signatures).
    fn insert_parts(
        &mut self,
        qid: u64,
        fp: u64,
        folded: &Arc<SelectStatement>,
        profile: &Arc<SelectProfile>,
    ) {
        let existing = self.bucket(fp).iter().copied().find(|&gi| {
            let g = &self.groups[gi as usize];
            Arc::ptr_eq(&g.folded, folded) || g.folded == *folded
        });
        let Some(gi) = existing else {
            self.by_fp
                .entry_or_default(fp)
                .push(self.groups.len() as u32);
            self.groups.push(ProfileGroup {
                fp,
                folded: Arc::clone(folded),
                profile: Arc::clone(profile),
                members: [qid].into_iter().collect(),
            });
            return;
        };
        let members = &mut self
            .groups
            .get_mut(gi as usize)
            .expect("bucket indices address groups")
            .members;
        // Members arrive in ascending qid order on every path (build
        // scan, head inserts, publish replay), so this is an append; a
        // re-sort keeps the invariant unconditional.
        match members.last() {
            Some(&last) if last >= qid => {
                let mut ids: Vec<u64> = members.iter().copied().collect();
                if let Err(pos) = ids.binary_search(&qid) {
                    ids.insert(pos, qid);
                    *members = ids.into_iter().collect();
                }
            }
            _ => members.push(qid),
        }
    }

    /// Indices (into iteration order) of the groups bucketed under a
    /// folded-statement fingerprint — the executor uses this to find a
    /// head group's sealed twin without building any per-probe map.
    pub fn bucket(&self, fp: u64) -> &[u32] {
        self.by_fp.get(&fp).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct folded-SELECT groups.
    /// Number of profile groups.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// Are there no groups?
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Iterate the groups in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &ProfileGroup> {
        self.groups.iter()
    }
}

/// One immutable sealed generation of the structural indexes. Covers
/// every record with `qid < horizon` as of the generation's publish;
/// younger records live in the registry's mutable head.
#[derive(Debug)]
pub struct StructuralGen {
    /// Monotonic generation number (0 = the empty pre-first-build gen).
    pub generation: u64,
    /// VP-tree over every non-tombstoned record with a parse tree.
    pub tree: VpTree,
    /// Sorted qids of covered records without a parse tree (distance
    /// exactly 1.0 under tree metrics). Liveness filtered at query time.
    pub treeless: Vec<u64>,
    /// ParseTree profile-fingerprint groups over covered records.
    pub groups: ProfileGroups,
    /// Sorted qids of covered records without a folded SELECT (the
    /// groups' complement; ParseTree evaluates them per record).
    pub ungrouped: Vec<u64>,
    /// Records with `qid < horizon` are covered by this generation.
    pub horizon: u64,
}

impl StructuralGen {
    fn empty() -> StructuralGen {
        StructuralGen {
            generation: 0,
            tree: VpTree::build(Vec::new()),
            treeless: Vec::new(),
            groups: ProfileGroups::default(),
            ungrouped: Vec::new(),
            horizon: 0,
        }
    }

    /// Index one record into this (still-private) generation — the
    /// publish-time delta replay (the bulk of a build goes through
    /// [`VpTree::build`] instead, whose median-radius pivots search
    /// better than incrementally-grown ones).
    fn add(&mut self, record: &QueryRecord, sig: &SimSignature) {
        let qid = record.id.0;
        if let (Some(tree), Some(shape)) = (&sig.tree, &sig.tree_shape) {
            self.tree.insert(TreeEntry {
                qid,
                tree: Arc::clone(tree),
                shape: Arc::clone(shape),
            });
        } else {
            self.treeless.push(qid);
        }
        if !self.groups.insert(qid, sig) {
            self.ungrouped.push(qid);
        }
    }
}

/// One record's build inputs, captured by [`RebuildSnapshot::collect`]:
/// nothing but `Arc` clones and copies, so collecting stays O(n) cheap
/// while a lock may be held.
struct RebuildRecord {
    qid: u64,
    tree: Option<(Arc<TreeNode>, Arc<TreeShape>)>,
    group: Option<(u64, Arc<SelectStatement>, Arc<SelectProfile>)>,
}

/// A consistent, self-contained snapshot of the record log's build
/// inputs. Collecting it (under whatever lock protects the storage) is
/// cheap — per-record `Arc` clones only; the expensive O(n log n)
/// generation construction ([`RebuildSnapshot::build`]) borrows nothing,
/// so the service layer and the background miner run it with **no lock
/// held at all** — readers and writers both proceed against generation N
/// for the entire build.
pub struct RebuildSnapshot {
    /// Non-tombstoned records below the horizon, ascending by qid.
    records: Vec<RebuildRecord>,
    horizon: u64,
    collect_epoch: u64,
    collect_seq: u64,
    dead_at_collect: usize,
}

impl RebuildSnapshot {
    /// Build generation N+1 from the snapshot. Pure: no locks, no
    /// borrows of the registry or the storage.
    pub fn build(self) -> IndexBuild {
        let mut gen = StructuralGen::empty();
        gen.horizon = self.horizon;
        // Bulk-build the VP-tree (median-radius pivots beat the
        // incrementally-grown head tree this generation replaces).
        let mut entries = Vec::new();
        for r in &self.records {
            match &r.tree {
                Some((tree, shape)) => entries.push(TreeEntry {
                    qid: r.qid,
                    tree: Arc::clone(tree),
                    shape: Arc::clone(shape),
                }),
                None => gen.treeless.push(r.qid),
            }
            match &r.group {
                Some((fp, folded, profile)) => {
                    gen.groups.insert_parts(r.qid, *fp, folded, profile);
                }
                None => gen.ungrouped.push(r.qid),
            }
        }
        gen.tree = VpTree::build(entries);
        IndexBuild {
            gen,
            collect_epoch: self.collect_epoch,
            collect_seq: self.collect_seq,
            dead_at_collect: self.dead_at_collect,
        }
    }
}

/// An in-flight double-buffered rebuild: generation N+1, fully built but
/// not yet published. Produced by [`RebuildSnapshot::build`] (or the
/// one-shot `IndexRegistry::begin_rebuild`), consumed by
/// `IndexRegistry::publish_rebuild` (exclusive borrow — replay the
/// delta, swap, retire generation N). The generation *number* is
/// assigned at publish time, so every swap bumps the published counter
/// by exactly 1 even when two rebuilds race.
pub struct IndexBuild {
    gen: StructuralGen,
    /// Override-log epoch observed at collect time: overrides recorded
    /// after it were not visible to this build and must survive publish.
    collect_epoch: u64,
    /// Publish-sequence number observed at collect time: a build whose
    /// collect predates the latest publish is redundant (that publish
    /// covered a newer snapshot) and is discarded instead of swapping
    /// older content back in or re-applying its counter bookkeeping.
    collect_seq: u64,
    /// Tombstones-of-indexed-records counter at collect time (the build
    /// dropped exactly these; later ones carry over).
    dead_at_collect: usize,
}

/// One override-log entry: a record whose sealed/head index entries went
/// stale in place (reindex, summary refresh).
#[derive(Debug, Clone, Copy)]
struct Override {
    qid: u64,
    /// Mutation epoch of the *latest* in-place change to this record.
    epoch: u64,
}

/// The registry's mutable head structures. Each one is persistent, so a
/// registry clone (one per published read snapshot) is pointer copies and
/// the first head insert after a publish copies what it touches — a
/// root-to-leaf path of the VP-tree, one chunk of entries or group
/// headers, one list tail — never a structure that grows with the head.
#[derive(Debug, Clone)]
struct HeadState {
    tree: VpTree,
    treeless: SegVec<u64>,
    groups: ProfileGroups,
    ungrouped: SegVec<u64>,
    /// Override log, sorted by qid. Bounded by the storage's forced
    /// publish threshold and changed by repairs only, so one shared
    /// vector, copied whole by the rare repair that follows a clone.
    overrides: Arc<Vec<Override>>,
}

impl HeadState {
    fn empty() -> HeadState {
        HeadState {
            tree: VpTree::build(Vec::new()),
            treeless: SegVec::new(),
            groups: ProfileGroups::default(),
            ungrouped: SegVec::new(),
            overrides: Arc::new(Vec::new()),
        }
    }
}

/// The index registry: feature postings (mutable head), the sealed
/// structural generation (atomic-swap published), the mutable head
/// structures, the override log and the rebuild schedule. Owned by the
/// Query Storage; every write-path hook takes `&mut self` from storage's
/// own exclusive borrow, every probe reads through `&self`.
#[derive(Debug)]
pub struct IndexRegistry {
    /// Inverted feature-posting index: interned feature id → sorted qids
    /// (ids are dense, so the id indexes a vector — the lookup every probe
    /// feature makes; a feature nothing posts to has an empty list).
    /// Every *live* record is present in each of its lists; non-live
    /// records linger as stale entries until the background compaction
    /// pass. Consumers filter candidates by liveness anyway, and the kNN
    /// pruning argument only needs live non-candidates to be provably
    /// feature-disjoint.
    postings: PostingLists,
    /// Feature ids whose lists crossed the stale threshold — compacted
    /// by the next [`IndexRegistry::maintain_postings`] pass instead of
    /// inline at the transition (a set, so queueing stays O(1) per list
    /// no matter how much churn piles up between epochs).
    compaction_due: HashSet<u32>,
    /// The published sealed generation. A publish (`&mut self`) replaces
    /// the pointer; every reader works on its own registry clone, which
    /// keeps the generation it was cloned with.
    sealed: Arc<StructuralGen>,
    /// Mutable head: records at/above the sealed horizon, plus the
    /// override log — persistent, so registry clones share it.
    head: HeadState,
    /// Monotonic counter of in-place record mutations (override epochs).
    mutations: u64,
    /// Monotonic publish counter: a racing build that collected before
    /// the latest publish is discarded at its own publish instead of
    /// clobbering newer content (and the overrides the newer publish
    /// legitimately retired) or double-applying counter bookkeeping.
    publish_seq: u64,
    /// Tombstoned records that still occupy sealed/head tree entries.
    dead_since_seal: usize,
    rebuild_wanted: bool,
    /// Cheap-bound counters + generation observability. `Arc`-shared
    /// with read snapshots, so probes served off a snapshot still feed
    /// the same counters (they are relaxed atomics, not control flow).
    stats: Arc<MetricIndexStats>,
}

impl Clone for IndexRegistry {
    /// O(pointer copies + compaction queue): the sealed generation and
    /// the stats block are shared by pointer, the head and the posting
    /// vector chunk by chunk.
    fn clone(&self) -> Self {
        IndexRegistry {
            postings: self.postings.clone(),
            compaction_due: self.compaction_due.clone(),
            sealed: Arc::clone(&self.sealed),
            head: self.head.clone(),
            mutations: self.mutations,
            publish_seq: self.publish_seq,
            dead_since_seal: self.dead_since_seal,
            rebuild_wanted: self.rebuild_wanted,
            stats: Arc::clone(&self.stats),
        }
    }
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
            postings: SnapshotVec::new(),
            compaction_due: HashSet::new(),
            sealed: Arc::new(StructuralGen::empty()),
            head: HeadState::empty(),
            mutations: 0,
            publish_seq: 0,
            dead_since_seal: 0,
            rebuild_wanted: false,
            stats: Arc::new(MetricIndexStats::default()),
        }
    }

    // ------------------------------------------------------------------
    // Read side
    // ------------------------------------------------------------------

    /// The published sealed generation (one `Arc` clone).
    pub fn sealed(&self) -> Arc<StructuralGen> {
        Arc::clone(&self.sealed)
    }

    /// Head VP-tree (records above the sealed horizon).
    pub fn head_tree(&self) -> &VpTree {
        &self.head.tree
    }

    /// Head tree-less side list, ascending (all qids above the sealed
    /// horizon, so chaining after the sealed list stays sorted).
    pub fn head_treeless(&self) -> &SegVec<u64> {
        &self.head.treeless
    }

    /// Head profile-fingerprint groups.
    pub fn head_groups(&self) -> &ProfileGroups {
        &self.head.groups
    }

    /// Head ungrouped side list, ascending.
    pub fn head_ungrouped(&self) -> &SegVec<u64> {
        &self.head.ungrouped
    }

    /// Is this record's index content stale (overridden in place since
    /// the covering structure was built)? Probes mask such entries and
    /// re-evaluate the record from its live signature.
    pub fn overridden(&self, qid: u64) -> bool {
        self.head
            .overrides
            .binary_search_by_key(&qid, |o| o.qid)
            .is_ok()
    }

    /// Qids in the override log, ascending.
    pub fn override_qids(&self) -> impl Iterator<Item = u64> + '_ {
        self.head.overrides.iter().map(|o| o.qid)
    }

    /// Outstanding overrides (each one is masked and re-evaluated by
    /// every probe until a publish retires it). The storage layer forces
    /// a publish once this crosses its configured threshold, bounding the
    /// per-probe override scan under repair storms.
    pub fn override_count(&self) -> usize {
        self.head.overrides.len()
    }

    /// Cheap-bound effectiveness counters + generation counters.
    pub fn stats(&self) -> &MetricIndexStats {
        &self.stats
    }

    /// The published generation number.
    pub fn generation(&self) -> u64 {
        self.stats.generation.load(Ordering::Relaxed)
    }

    // ------------------------------------------------------------------
    // Write-path hooks (called by the Query Storage)
    // ------------------------------------------------------------------

    /// A non-tombstoned record was inserted: index it into the head.
    pub(crate) fn note_insert(&mut self, record: &QueryRecord, sig: &SimSignature) {
        let qid = record.id.0;
        let head = &mut self.head;
        if let (Some(tree), Some(shape)) = (&sig.tree, &sig.tree_shape) {
            head.tree.insert(TreeEntry {
                qid,
                tree: Arc::clone(tree),
                shape: Arc::clone(shape),
            });
        } else {
            head.treeless.push(qid);
        }
        if !head.groups.insert(qid, sig) {
            head.ungrouped.push(qid);
        }
    }

    /// A record was tombstoned. Dead weight accumulates in the sealed
    /// and head structures — VP-tree entries *and* the tree-less /
    /// ungrouped side lists, which probes still touch per id — until it
    /// crosses [`REBUILD_DEAD_FRACTION`], which *schedules* a background
    /// rebuild; the probe path only ever reads whatever generation is
    /// published.
    pub(crate) fn note_tombstone(&mut self) {
        self.dead_since_seal += 1;
        if self.dead_fraction() > REBUILD_DEAD_FRACTION {
            self.schedule_rebuild();
        }
    }

    fn dead_fraction(&self) -> f64 {
        // `tree` + `treeless` covers every indexed record exactly once.
        let indexed = self.sealed.tree.len()
            + self.sealed.treeless.len()
            + self.head.tree.len()
            + self.head.treeless.len();
        self.dead_since_seal as f64 / indexed.max(1) as f64
    }

    /// A record's index content changed in place (reindex / summary
    /// refresh): log the override and schedule the rebuild that retires
    /// it. Until then, probes mask the stale entries and evaluate the
    /// record from its live signature.
    pub(crate) fn note_reindex(&mut self, qid: u64) {
        self.mutations += 1;
        let epoch = self.mutations;
        let overrides = Arc::make_mut(&mut self.head.overrides);
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

    /// Phase 1a of the double-buffered rebuild: capture a consistent,
    /// self-contained snapshot of the record log's build inputs. Cheap —
    /// per-record `Arc` clones only — so the moment this returns, the
    /// caller can drop whatever lock protects the storage and run the
    /// expensive [`RebuildSnapshot::build`] with no lock held at all.
    pub(crate) fn collect_rebuild(
        &self,
        records: &SnapshotVec<Arc<QueryRecord>>,
        signatures: &SnapshotVec<Arc<SimSignature>>,
    ) -> RebuildSnapshot {
        let entries = records
            .iter()
            .zip(signatures.iter())
            .filter(|(record, _)| record.validity != Validity::Deleted)
            .map(|(record, sig)| RebuildRecord {
                qid: record.id.0,
                tree: match (&sig.tree, &sig.tree_shape) {
                    (Some(t), Some(s)) => Some((Arc::clone(t), Arc::clone(s))),
                    _ => None,
                },
                group: match (sig.profile_fp, &sig.folded_select, &sig.diff_profile) {
                    (Some(fp), Some(f), Some(p)) => Some((fp, Arc::clone(f), Arc::clone(p))),
                    _ => None,
                },
            })
            .collect();
        RebuildSnapshot {
            records: entries,
            horizon: records.len() as u64,
            collect_epoch: self.mutations,
            collect_seq: self.publish_seq,
            dead_at_collect: self.dead_since_seal,
        }
    }

    /// Phases 1a + 1b in one call (collect + build) for synchronous
    /// callers that already hold exclusive access — the miner epoch's
    /// inline maintenance pass and tests.
    pub(crate) fn begin_rebuild(
        &self,
        records: &SnapshotVec<Arc<QueryRecord>>,
        signatures: &SnapshotVec<Arc<SimSignature>>,
    ) -> IndexBuild {
        self.collect_rebuild(records, signatures).build()
    }

    /// Phase 2: replay the delta that landed while the build ran —
    /// inserts past the collected horizon go into generation N+1
    /// incrementally; overrides the build observed are retired, younger
    /// ones survive — then publish with one atomic swap and reset the
    /// head. After this returns, probes serve generation N+1.
    ///
    /// Returns `false` (discarding the build) when a racing rebuild
    /// published since this build's collect: the standing generation
    /// covers a newer snapshot, so swapping the older content back in
    /// would serve pre-reindex entries whose overrides the newer publish
    /// legitimately retired — and re-running the counter bookkeeping
    /// would double-apply it.
    pub(crate) fn publish_rebuild(
        &mut self,
        mut build: IndexBuild,
        records: &SnapshotVec<Arc<QueryRecord>>,
        signatures: &SnapshotVec<Arc<SimSignature>>,
    ) -> bool {
        if build.collect_seq < self.publish_seq {
            return false;
        }
        // Delta replay: records inserted after the collect. A mid-build
        // insert that was already tombstoned again is excluded from the
        // generation — and stops counting as dead weight with it.
        let from = build.gen.horizon as usize;
        for (record, sig) in records.iter().zip(signatures.iter()).skip(from) {
            if record.validity != Validity::Deleted {
                build.gen.add(record, sig);
            } else {
                self.dead_since_seal = self.dead_since_seal.saturating_sub(1);
            }
        }
        build.gen.horizon = records.len() as u64;
        // Overrides the build saw are now materialised; mid-build ones
        // keep masking until the next rebuild. The head is fully covered
        // by the new horizon: reset it (a fresh bundle, so snapshots
        // holding the old head keep it alive untouched).
        let surviving: Vec<Override> = self
            .head
            .overrides
            .iter()
            .filter(|o| o.epoch > build.collect_epoch)
            .copied()
            .collect();
        self.head = HeadState::empty();
        self.head.overrides = Arc::new(surviving);
        self.publish_seq += 1;
        // Tombstones the build dropped stop counting as dead weight.
        self.dead_since_seal -= build.dead_at_collect.min(self.dead_since_seal);
        // Publish: the one atomic swap of the lifecycle. The generation
        // number is assigned *here* — each swap bumps the published
        // counter by exactly 1 even when two rebuilds raced their
        // collect phases against the same base generation.
        let generation = self.generation() + 1;
        build.gen.generation = generation;
        self.sealed = Arc::new(build.gen);
        self.stats.generation.store(generation, Ordering::Relaxed);
        self.stats
            .rebuilds_completed
            .fetch_add(1, Ordering::Relaxed);
        // Mid-build churn may immediately justify the next rebuild.
        self.rebuild_wanted =
            !self.head.overrides.is_empty() || self.dead_fraction() > REBUILD_DEAD_FRACTION;
        true
    }

    // ------------------------------------------------------------------
    // Feature postings (permanently-mutable head)
    // ------------------------------------------------------------------

    /// Pointers (and queue entries) a `clone()` copies: one per chunk of
    /// posting lists, head tree entries and head groups.
    pub fn clone_len(&self) -> usize {
        self.postings.chunk_count()
            + self.head.tree.clone_len()
            + self.head.groups.groups.chunk_count()
            + self.compaction_due.len()
    }

    /// The raw posting lists, indexed by interned feature id (lists may
    /// carry stale entries pending the background compaction pass).
    pub fn postings(&self) -> &PostingLists {
        &self.postings
    }

    /// One feature's posting list (`None` for a probe's sentinel id).
    pub fn posting(&self, fid: u32) -> Option<&PostingList> {
        self.postings.get(fid as usize)
    }

    /// Append a freshly-inserted live record to its feature lists (ids
    /// are dense and ascending, so appends keep every list sorted).
    pub(crate) fn post(&mut self, sig: &SimSignature, qid: u64) {
        for fid in sig.feature_ids() {
            self.postings.entry_or_default(fid as usize).append(qid);
        }
    }

    /// Make sure a revived record's feature ids are posted exactly once:
    /// stale leftovers flip back to alive instead of duplicating.
    pub(crate) fn repost(&mut self, sig: &SimSignature, qid: u64) {
        for fid in sig.feature_ids() {
            let list = self.postings.entry_or_default(fid as usize);
            if !list.insert(qid) {
                list.mark_alive();
            }
        }
    }

    /// Note a record's posting entries stale (live → non-live
    /// transition). O(1) per list: a list crossing its stale threshold
    /// is *queued* for the background compaction pass, not compacted
    /// here — the maintenance transition stays allocation-free.
    pub(crate) fn mark_stale(&mut self, sig: &SimSignature, qid: u64) {
        for fid in sig.feature_ids() {
            if let Some(list) = self.postings.get_mut(fid as usize) {
                debug_assert!(list.contains(qid), "live record missing from posting");
                list.mark_dead();
                if list.needs_compaction() {
                    self.compaction_due.insert(fid);
                }
            }
        }
    }

    /// Hard-remove a record's posting entries (reindex path: the feature
    /// set itself changes, so stale-entry bookkeeping does not apply).
    pub(crate) fn remove_posted(&mut self, sig: &SimSignature, qid: u64, non_live: bool) {
        for fid in sig.feature_ids() {
            if let Some(list) = self.postings.get_mut(fid as usize) {
                if list.remove(qid) && non_live {
                    // The entry was counted stale; the counter follows it.
                    list.mark_alive();
                }
            }
        }
    }

    /// Background compaction pass: rebuild every queued list down to the
    /// ids `keep` accepts (its currently-live members). Runs in the miner
    /// epoch / maintenance, never on a
    /// read or maintenance-transition path.
    pub(crate) fn maintain_postings(&mut self, keep: impl Fn(u64) -> bool) -> usize {
        let mut compacted = 0;
        for fid in std::mem::take(&mut self.compaction_due) {
            // Peek before `get_mut`: that would detach the list's chunk
            // from the read snapshots sharing it.
            if !self.posting(fid).is_some_and(PostingList::needs_compaction) {
                continue; // revivals brought it back under the threshold
            }
            let list = self.postings.get_mut(fid as usize).expect("peeked");
            list.retain(&keep);
            compacted += 1;
        }
        compacted
    }

    /// Candidate generation for kNN: sorted, deduplicated qids of all
    /// records sharing at least one feature with `sig`, via a galloping
    /// multi-way merge of the probe's posting lists.
    pub fn candidate_ids(&self, sig: &SimSignature) -> Vec<u64> {
        let cursors: Vec<PostingCursor<'_>> = sig
            .feature_ids()
            .filter_map(|fid| self.posting(fid))
            .filter(|l| !l.is_empty())
            .map(PostingList::cursor)
            .collect();
        postings::union_cursors(cursors)
    }
}
