//! Precomputed similarity signatures (§4.2/§4.3 hot-path support).
//!
//! Every pairwise-similarity consumer in the system — kNN meta-queries,
//! the recommendation panel, the clustering reads' distance matrix,
//! query-by-data — ultimately compares the same per-query artifacts: the
//! syntactic feature sets, the constant-stripped parse tree, and the output
//! rows. Recomputing those artifacts per *pair* (as the seed implementation
//! did: six `HashSet<String>` allocations of `format!`-ed keys plus a
//! `strip_constants` + `statement_tree` rebuild per distance call) made
//! every hot path O(n · feature-materialisation) per probe.
//!
//! A [`SimSignature`] is computed **once per record at ingest** and holds:
//!
//! * the three feature sets (tables, `table.column` attributes, predicate
//!   templates) as sorted `u32` vectors interned through a
//!   [`FeatureInterner`] owned by the Query Storage — pairwise Jaccard
//!   becomes an allocation-free sorted merge;
//! * the constant-stripped canonical parse tree, flattened once into a
//!   [`FlatTree`] whose node labels are ids from the same interner (shared
//!   via `Arc` with the VP-tree), so Zhang–Shasha tree edit distance never
//!   rebuilds, walks or string-compares a tree;
//! * the output rows hashed to a sorted `u64` set (output Jaccard) and the
//!   lower-cased output *cells* hashed likewise (a sound negative screen
//!   for query-by-data containment checks).
//!
//! The same interned ids key the structural index's feature classes
//! ([`crate::indexreg::FeatureKey`]): records whose three id sets are
//! identical are at the same feature distance from any probe, so kNN
//! computes that distance once per class.

use crate::features::SyntacticFeatures;
use crate::model::OutputSummary;
use cqms_cow::{CowMap, SnapshotVec};
use sqlparse::{FlatTree, SelectProfile, Statement, TreeShape};
use std::sync::Arc;

/// FNV-1a 64-bit hash (stable across runs; used for output row/cell
/// sets). One implementation serves the whole workspace — the tree-label
/// and diff-profile hashes use it too.
pub use sqlparse::fingerprint::fnv1a;

/// Interns feature keys to dense `u32` ids. Owned by the Query Storage;
/// ids are assigned in first-seen order and are **process-local** — they
/// are never persisted, and a storage rebuilt from a snapshot may assign
/// different ids to the same keys (e.g. when a maintenance repair
/// re-interned features out of insertion order before the snapshot).
/// Every id-consuming structure (signatures, feature classes) is rebuilt
/// alongside the interner, so cross-process id stability is never needed.
///
/// Keys are namespaced (`t:` tables, `a:` attributes, `p:` predicate
/// templates) so ids never collide across feature kinds. Parse-tree node
/// labels (`n:`) share the id space, so a [`FlatTree`] compares labels as
/// integers.
///
/// Internally persistent ([`cqms_cow`] containers, each key one `Arc<str>`
/// shared by both directions) so cloning the storage into a read snapshot
/// shares the whole vocabulary by pointer, and interning a new feature
/// afterwards copies one trie path and one chunk of pointers.
#[derive(Debug, Clone, Default)]
pub struct FeatureInterner {
    map: CowMap<Arc<str>, u32>,
    names: SnapshotVec<Arc<str>>,
}

impl PartialEq for FeatureInterner {
    fn eq(&self, other: &Self) -> bool {
        // `map` is derivable from `names` (id = position), so comparing
        // the name sequences compares the whole interner.
        self.names == other.names
    }
}

impl FeatureInterner {
    /// An empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `key`, assigning a fresh id on first sight.
    pub fn intern(&mut self, key: &str) -> u32 {
        if let Some(&id) = self.map.get_by(key) {
            return id;
        }
        let id = self.names.len() as u32;
        let key: Arc<str> = Arc::from(key);
        self.map.insert(Arc::clone(&key), id);
        self.names.push(key);
        id
    }

    /// Look up a key without interning (probe signatures: a feature never
    /// seen by the store cannot match any stored record anyway).
    pub fn lookup(&self, key: &str) -> Option<u32> {
        self.map.get_by(key).copied()
    }

    /// The key behind an id.
    pub fn resolve(&self, id: u32) -> Option<&str> {
        self.names.get(id as usize).map(|name| &**name)
    }

    /// Number of distinct interned features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// Is the interner empty?
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

/// The precomputed similarity signature of one logged query.
#[derive(Debug, Clone, PartialEq)]
pub struct SimSignature {
    /// Interned table ids, sorted, deduplicated.
    pub tables: Vec<u32>,
    /// Interned `table.column` attribute ids, sorted, deduplicated.
    pub attributes: Vec<u32>,
    /// Interned predicate-template (`table.column op`) ids, sorted,
    /// deduplicated (constants excluded per §4.3).
    pub predicates: Vec<u32>,
    /// Constant-stripped parse tree flattened for [`sqlparse::ted`], its
    /// node labels interned as `n:{label}` keys (None when the SQL failed
    /// to parse — such records are maximally far under tree metrics).
    /// A stored signature whose tree already had a tree group holds that
    /// group's copy, as it does the group's `tree_shape` and the profile
    /// group's `folded_select` and `diff_profile` (adopted at insert).
    pub tree: Option<Arc<FlatTree>>,
    /// Size + node-label histogram of `tree` (present iff `tree` is):
    /// feeds the Zhang–Shasha lower bound that rejects a pair before the
    /// O(tree²) DP runs, and the metric index's size-gap pruning.
    /// `Arc`-shared with every index entry that carries it, so sealing
    /// or dropping a generation never clones or frees histograms.
    pub tree_shape: Option<Arc<TreeShape>>,
    /// Folded SELECT-clause profile (present iff the statement is a
    /// SELECT): feeds the ParseTree diff lower bound. Behind a pointer
    /// to keep the signature itself slim — paths that scan every
    /// signature (output screens, feature merges) never touch the
    /// profile — and `Arc`-shared with the registry's profile groups.
    pub diff_profile: Option<Arc<SelectProfile>>,
    /// The diff-folded statement itself (present iff the statement is a
    /// SELECT): lets exact ParseTree diffs skip the two per-pair clones
    /// ([`sqlparse::diff::edit_distance_normalized_folded`]).
    pub folded_select: Option<Arc<sqlparse::SelectStatement>>,
    /// FNV fingerprint of the printed folded SELECT (present iff
    /// `folded_select` is): the index registry's profile-fingerprint
    /// grouping buckets by it (and verifies structural equality, so a
    /// collision can never merge two templates).
    pub profile_fp: Option<u64>,
    /// 64-bit bloom over the interned feature ids (all three namespaces,
    /// bit `id & 63`): non-overlapping blooms *prove* the feature sets
    /// disjoint, so the query and session clustering matrices can take the
    /// O(1) disjoint path without merging.
    pub feature_bloom: u64,
    /// Hashed output rows, sorted + deduplicated (None when no summary is
    /// stored — output distance is then undefined, as before).
    pub output_rows: Option<Vec<u64>>,
    /// Hashed lower-cased output cells, sorted + deduplicated. A sound
    /// *negative* screen for [`OutputSummary::contains_value`]: a missing
    /// hash proves the value is absent; a present hash is verified against
    /// the stored rows (hash collisions can never flip an answer).
    pub output_cells: Option<Vec<u64>>,
}

impl SimSignature {
    /// Build the signature of a query at ingest from its extracted
    /// features, its statement (`None` when its text failed to parse) and
    /// its output summary, interning new features.
    pub fn build(
        features: &SyntacticFeatures,
        statement: Option<&Statement>,
        summary: &OutputSummary,
        interner: &mut FeatureInterner,
    ) -> SimSignature {
        Self::assemble(features, statement, summary, &mut |key| {
            interner.intern(key)
        })
    }

    /// Build a probe signature against a read-only interner. Features and
    /// tree-node labels the store has never seen get unique sentinel ids
    /// from `u32::MAX` downward — they match nothing, which is exactly
    /// their semantics (an unseen label relabels against every stored one).
    pub fn probe(
        features: &SyntacticFeatures,
        statement: Option<&Statement>,
        summary: &OutputSummary,
        interner: &FeatureInterner,
    ) -> SimSignature {
        let mut next_sentinel = u32::MAX;
        Self::assemble(features, statement, summary, &mut |key| {
            interner.lookup(key).unwrap_or_else(|| {
                let id = next_sentinel;
                next_sentinel -= 1;
                id
            })
        })
    }

    /// This signature with its output hashes taken from `summary`: what a
    /// summary refresh changes, everything derived from the SQL shared.
    pub fn with_summary(&self, summary: &OutputSummary) -> SimSignature {
        let (output_rows, output_cells) = output_hashes(summary);
        SimSignature {
            output_rows,
            output_cells,
            ..self.clone()
        }
    }

    fn assemble(
        f: &SyntacticFeatures,
        statement: Option<&Statement>,
        summary: &OutputSummary,
        map: &mut dyn FnMut(&str) -> u32,
    ) -> SimSignature {
        let mut ids = |keys: Vec<String>| -> Vec<u32> {
            let mut keys = keys;
            keys.sort();
            keys.dedup();
            let mut v: Vec<u32> = keys.iter().map(|k| map(k)).collect();
            v.sort_unstable();
            v
        };
        let tables = ids(f.tables.iter().map(|t| format!("t:{t}")).collect());
        let attributes = ids(f
            .attributes
            .iter()
            .map(|(t, c)| format!("a:{t}.{c}"))
            .collect());
        let predicates = ids(f
            .predicates
            .iter()
            .map(|p| format!("p:{}.{}{}", p.table, p.column, p.op))
            .collect());

        // The nested tree lives only long enough to take its shape and be
        // flattened; node labels share the feature-id space (`n:` keys).
        let (tree, tree_shape) = match statement {
            Some(s) => {
                let node = sqlparse::statement_tree(&sqlparse::strip_constants(s));
                let mut key = String::new();
                let flat = FlatTree::of(&node, &mut |label| {
                    key.clear();
                    key.push_str("n:");
                    key.push_str(label);
                    map(&key)
                });
                (Some(Arc::new(flat)), Some(Arc::new(TreeShape::of(&node))))
            }
            None => (None, None),
        };
        let (diff_profile, folded_select, profile_fp) = match statement {
            Some(sqlparse::Statement::Select(s)) => {
                let folded = sqlparse::diff::fold_for_diff(s);
                let fp = fnv1a(sqlparse::printer::select_to_sql(&folded).as_bytes());
                (
                    Some(Arc::new(SelectProfile::of_folded(&folded))),
                    Some(Arc::new(folded)),
                    Some(fp),
                )
            }
            _ => (None, None, None),
        };

        let (output_rows, output_cells) = output_hashes(summary);

        let feature_bloom = bloom64(
            tables
                .iter()
                .chain(attributes.iter())
                .chain(predicates.iter())
                .copied(),
        );

        SimSignature {
            tables,
            attributes,
            predicates,
            tree,
            tree_shape,
            diff_profile,
            folded_select,
            profile_fp,
            feature_bloom,
            output_rows,
            output_cells,
        }
    }

    /// The table, attribute and predicate-template id sets, in that
    /// order (the feature-distance kernel's inputs and a feature class's
    /// key).
    pub fn feature_sets(&self) -> [&[u32]; 3] {
        [&self.tables, &self.attributes, &self.predicates]
    }

    /// All interned feature ids, in no particular order but without
    /// duplicates (namespaced keys cannot collide).
    pub fn feature_ids(&self) -> impl Iterator<Item = u32> + '_ {
        self.tables
            .iter()
            .chain(self.attributes.iter())
            .chain(self.predicates.iter())
            .copied()
    }

    /// Could the output contain a cell equal to `value`
    /// (case-insensitively)? `false` is definitive; `true` must be
    /// verified against the stored rows.
    pub fn may_contain_cell(&self, value: &str) -> bool {
        match &self.output_cells {
            None => false,
            Some(cells) => cells
                .binary_search(&fnv1a(value.to_ascii_lowercase().as_bytes()))
                .is_ok(),
        }
    }

    /// Does this signature's hashed output state still describe
    /// `summary`? Summaries are immutable after insert *except* through
    /// `QueryStorage::refresh_summary`/`reindex`, which rebuild the
    /// signature — a mismatch here means someone mutated the summary in
    /// place and the output-cell screens would silently go stale. Debug
    /// assertions on the query-by-data path enforce the invariant.
    pub fn summary_coherent(&self, summary: &OutputSummary) -> bool {
        let (rows, cells) = output_hashes(summary);
        rows == self.output_rows && cells == self.output_cells
    }
}

/// The hashed output rows and lower-cased output cells of `summary`,
/// each sorted and deduplicated (`None` for no summary).
fn output_hashes(summary: &OutputSummary) -> (Option<Vec<u64>>, Option<Vec<u64>>) {
    match summary {
        OutputSummary::None => (None, None),
        OutputSummary::Full { rows, .. } | OutputSummary::Sample { rows, .. } => {
            // Same join key the reference output distance uses, so the
            // hashed set has identical cardinalities.
            let mut row_hashes: Vec<u64> = rows
                .iter()
                .map(|r| fnv1a(r.join("\u{1}").as_bytes()))
                .collect();
            row_hashes.sort_unstable();
            row_hashes.dedup();
            let mut cell_hashes: Vec<u64> = rows
                .iter()
                .flat_map(|r| r.iter())
                .map(|c| fnv1a(c.to_ascii_lowercase().as_bytes()))
                .collect();
            cell_hashes.sort_unstable();
            cell_hashes.dedup();
            (Some(row_hashes), Some(cell_hashes))
        }
    }
}

/// 64-bit bloom over a set of ids (bit `id & 63` each): non-overlapping
/// blooms *prove* the id sets disjoint. The single definition of the
/// bit-assignment scheme — signatures and both clustering matrix screens
/// rely on it agreeing.
pub fn bloom64(ids: impl Iterator<Item = u32>) -> u64 {
    ids.fold(0u64, |acc, id| acc | (1u64 << (id & 63)))
}

/// Size of the intersection of two sorted, deduplicated id slices.
pub fn intersect_count<T: Ord + Copy>(a: &[T], b: &[T]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Jaccard distance over sorted id sets — float-for-float the same
/// computation as the seed's `HashSet` version (empty ∪ empty ⇒ 0).
pub fn jaccard_ids<T: Ord + Copy>(a: &[T], b: &[T]) -> f64 {
    if a.is_empty() && b.is_empty() {
        return 0.0;
    }
    let inter = intersect_count(a, b) as f64;
    let union = (a.len() + b.len()) as f64 - inter;
    1.0 - inter / union
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::{make_record, NewRecord};

    fn build(r: &NewRecord, interner: &mut FeatureInterner) -> SimSignature {
        SimSignature::build(&r.extracted, r.parsed.as_ref(), &r.summary, interner)
    }

    fn probe(r: &NewRecord, interner: &FeatureInterner) -> SimSignature {
        SimSignature::probe(&r.extracted, r.parsed.as_ref(), &r.summary, interner)
    }

    fn rec(id: u64, sql: &str) -> NewRecord {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        make_record(
            QueryId(id),
            UserId(0),
            0,
            sql,
            stmt,
            feats,
            RuntimeFeatures::default(),
            OutputSummary::None,
            SessionId(0),
            Visibility::Public,
        )
    }

    #[test]
    fn interner_assigns_dense_stable_ids() {
        let mut i = FeatureInterner::new();
        let a = i.intern("t:watertemp");
        let b = i.intern("t:lakes");
        assert_eq!(i.intern("t:watertemp"), a);
        assert_ne!(a, b);
        assert_eq!(i.lookup("t:lakes"), Some(b));
        assert_eq!(i.lookup("t:nope"), None);
        assert_eq!(i.resolve(a), Some("t:watertemp"));
        assert_eq!(i.len(), 2);
    }

    #[test]
    fn signature_sets_sorted_and_deduped() {
        let mut i = FeatureInterner::new();
        let s = build(
            &rec(0, "SELECT * FROM WaterTemp WHERE temp < 18 AND temp < 22"),
            &mut i,
        );
        assert_eq!(s.tables.len(), 1);
        // The two predicates share the template `watertemp.temp<`.
        assert_eq!(s.predicates.len(), 1);
        assert!(s.tables.windows(2).all(|w| w[0] < w[1]));
        assert!(s.tree.is_some());
    }

    #[test]
    fn probe_sentinels_never_match() {
        let mut i = FeatureInterner::new();
        let stored = build(&rec(0, "SELECT * FROM WaterTemp"), &mut i);
        let unseen = probe(&rec(1, "SELECT * FROM Unseen"), &i);
        assert_eq!(intersect_count(&stored.tables, &unseen.tables), 0);
        // The same table as stored does resolve to the interned id.
        let probe2 = probe(&rec(2, "SELECT * FROM WaterTemp"), &i);
        assert_eq!(intersect_count(&stored.tables, &probe2.tables), 1);
    }

    #[test]
    fn unparseable_sql_has_no_tree() {
        let mut i = FeatureInterner::new();
        let s = build(&rec(0, "SELEC nope"), &mut i);
        assert!(s.tree.is_none());
        assert!(s.tables.is_empty());
    }

    #[test]
    fn output_hashes_screen_cells() {
        let mut i = FeatureInterner::new();
        let mut r = rec(0, "SELECT lake FROM WaterTemp");
        r.summary = OutputSummary::Full {
            columns: vec!["lake".into()],
            rows: [["Lake Washington"], ["Green Lake"]].into_iter().collect(),
        };
        let s = build(&r, &mut i);
        assert!(s.may_contain_cell("lake washington"));
        assert!(s.may_contain_cell("GREEN LAKE"));
        assert!(!s.may_contain_cell("Lake Union"));
        assert_eq!(s.output_rows.as_ref().unwrap().len(), 2);
    }

    #[test]
    fn jaccard_matches_hashset_semantics() {
        assert_eq!(jaccard_ids::<u32>(&[], &[]), 0.0);
        assert_eq!(jaccard_ids(&[1u32, 2], &[3, 4]), 1.0);
        assert_eq!(jaccard_ids(&[1u32, 2], &[1, 2]), 0.0);
        let d = jaccard_ids(&[1u32, 2, 3], &[2, 3, 4]);
        assert!((d - 0.5).abs() < 1e-12);
    }
}
