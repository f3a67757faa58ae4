//! TF-IDF inverted index with top-k retrieval.
//!
//! The index is built on the persistent collections from `cqms-cow` so a
//! [`Clone`] is a handful of `Arc` bumps, and adding a document to a
//! cloned index copies only the trie paths of its terms and one chunk of
//! document slots — cheap enough for the CQMS write path to publish a
//! fresh `ReadSnapshot` per logged query. Document ids index a vector, so
//! they must be small dense integers (the Query Storage's record ids).
//! Postings are **generation-stamped**: re-adding a document
//! bumps its generation instead of purging old postings, and an entry only
//! counts when its stamp matches the document's current generation and the
//! document is live. Nothing purges a masked entry: each re-add (the Query
//! Storage's `reindex`) or delete leaves one masked posting per distinct
//! term of the text it retired, which a scan of that term's list skips.

use crate::tokenize::tokenize;
use cqms_cow::{CowMap, SegVec, SnapshotVec};
use std::collections::{BinaryHeap, HashMap};
use std::sync::Arc;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    pub doc: u64,
    pub score: f64,
}

/// One posting entry: `doc` contained the term `tf` times as of the
/// document's generation `gen`. Entries with a stale `gen` are masked.
#[derive(Debug, Clone, Copy)]
struct Posting {
    doc: u64,
    tf: u32,
    gen: u32,
}

/// Per-document bookkeeping: current generation, token count (for length
/// normalisation) and live flag.
#[derive(Debug, Clone, Copy)]
struct DocInfo {
    gen: u32,
    len: u32,
    live: bool,
}

/// Inverted index mapping terms to generation-stamped postings, with
/// document lengths for cosine-style normalisation and tombstoned
/// deletion. Cloning shares all state by pointer.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    /// term → (doc, tf, gen) postings, in insertion order. Keys are
    /// `Arc<str>` so a copied trie bucket bumps refcounts instead of
    /// reallocating its neighbours' strings.
    postings: CowMap<Arc<str>, SegVec<Posting>>,
    /// doc → generation / length / liveness, indexed by doc id: the lookup
    /// every scored posting makes.
    docs: SnapshotVec<Option<DocInfo>>,
    /// Live (non-tombstoned) document count.
    live: usize,
}

/// Each distinct term of `tokens` with its number of occurrences, in term
/// order. Sorts `tokens` in place, so equal terms are counted as runs and
/// none is cloned.
pub(crate) fn term_frequencies(tokens: &mut [String]) -> impl Iterator<Item = (&str, u32)> {
    tokens.sort_unstable();
    tokens
        .chunk_by(|a, b| a == b)
        .map(|run| (run[0].as_str(), run.len() as u32))
}

impl InvertedIndex {
    pub fn new() -> Self {
        InvertedIndex::default()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn doc(&self, doc: u64) -> Option<&DocInfo> {
        self.docs.get(usize::try_from(doc).ok()?)?.as_ref()
    }

    /// Does `p` count under the current document state?
    fn is_current(&self, p: &Posting) -> bool {
        self.doc(p.doc).is_some_and(|i| i.live && i.gen == p.gen)
    }

    /// Add a document. Re-adding an id replaces the old content (the old
    /// postings are masked by the generation bump, not purged).
    pub fn add(&mut self, doc: u64, text: &str) {
        let prev = self.doc(doc).copied();
        let gen = prev.map(|p| p.gen.wrapping_add(1)).unwrap_or(0);
        if !prev.is_some_and(|p| p.live) {
            self.live += 1;
        }
        let mut tokens = tokenize(text);
        let len = tokens.len();
        for (term, f) in term_frequencies(&mut tokens) {
            let posting = Posting { doc, tf: f, gen };
            // Allocate the shared key only for a term not seen before.
            match self.postings.get_mut_by(term) {
                Some(posts) => posts.push(posting),
                None => self
                    .postings
                    .entry_or_default(Arc::from(term))
                    .push(posting),
            }
        }
        *self.docs.entry_or_default(doc as usize) = Some(DocInfo {
            gen,
            len: len.max(1) as u32,
            live: true,
        });
    }

    /// Tombstone a document.
    pub fn remove(&mut self, doc: u64) {
        if self.contains(doc) {
            if let Some(Some(m)) = self.docs.get_mut(doc as usize) {
                m.live = false;
            }
            self.live -= 1;
        }
    }

    pub fn contains(&self, doc: u64) -> bool {
        self.doc(doc).is_some_and(|i| i.live)
    }

    /// TF-IDF search returning the top `k` documents.
    ///
    /// Score = Σ_term tf(term, doc) · idf(term) / √len(doc); idf uses the
    /// classic `ln(1 + N/df)` damping, with N and df taken from this index.
    pub fn search(&self, query: &str, k: usize) -> Vec<SearchHit> {
        let df = self.query_term_dfs(query);
        self.search_with_corpus(query, k, self.len() as u64, &df)
    }

    /// Document frequency of each distinct query term among live documents.
    /// Terms absent from the index report 0 so callers can sum df maps
    /// across shards without special-casing misses.
    pub fn query_term_dfs(&self, query: &str) -> HashMap<String, u64> {
        let mut qterms = tokenize(query);
        qterms.sort();
        qterms.dedup();
        let mut out = HashMap::with_capacity(qterms.len());
        for term in qterms {
            let df = self
                .postings
                .get_by(term.as_str())
                .map(|posts| posts.iter().filter(|p| self.is_current(p)).count() as u64)
                .unwrap_or(0);
            out.insert(term, df);
        }
        out
    }

    /// TF-IDF search scored against externally supplied corpus statistics:
    /// `total_docs` live documents and per-term document frequencies `df`.
    ///
    /// This is what makes sharded keyword search score-identical to an
    /// unsharded index: each shard scans only its own postings but weighs
    /// terms with the *global* N and df (summed over shards via
    /// [`InvertedIndex::len`] and [`InvertedIndex::query_term_dfs`]), so a
    /// document's score is independent of which shard holds it.
    pub fn search_with_corpus(
        &self,
        query: &str,
        k: usize,
        total_docs: u64,
        df: &HashMap<String, u64>,
    ) -> Vec<SearchHit> {
        let n = total_docs.max(1) as f64;
        let mut scores: HashMap<u64, f64> = HashMap::new();
        let mut qterms = tokenize(query);
        qterms.sort();
        qterms.dedup();
        for term in &qterms {
            let Some(posts) = self.postings.get_by(term.as_str()) else {
                continue;
            };
            let dfv = df.get(term).copied().unwrap_or(0).max(1) as f64;
            let idf = (1.0 + n / dfv).ln();
            for p in posts.iter() {
                let Some(info) = self.doc(p.doc) else {
                    continue;
                };
                if !info.live || info.gen != p.gen {
                    continue;
                }
                let len = info.len as f64;
                *scores.entry(p.doc).or_insert(0.0) += (p.tf as f64) * idf / len.sqrt();
            }
        }
        top_k(scores, k)
    }

    /// Pointers a `clone()` copies (one per chunk of document slots; the
    /// term trie is one more).
    pub fn clone_len(&self) -> usize {
        self.docs.chunk_count()
    }
}

/// Extract the `k` highest-scoring hits (stable by doc id on ties).
fn top_k(scores: HashMap<u64, f64>, k: usize) -> Vec<SearchHit> {
    #[derive(PartialEq)]
    struct Entry(f64, u64);
    impl Eq for Entry {}
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            self.0
                .partial_cmp(&other.0)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then_with(|| other.1.cmp(&self.1))
        }
    }
    let mut heap: BinaryHeap<Entry> = scores.into_iter().map(|(d, s)| Entry(s, d)).collect();
    let mut out = Vec::with_capacity(k.min(heap.len()));
    for _ in 0..k {
        match heap.pop() {
            Some(Entry(score, doc)) => out.push(SearchHit { doc, score }),
            None => break,
        }
    }
    out
}

/// [`term_frequencies`] as it was counted before, in a hashed map of
/// cloned terms: the reference the property test holds it to.
#[cfg(test)]
pub(crate) fn reference_term_frequencies(tokens: &[String]) -> HashMap<String, u32> {
    let mut tf: HashMap<String, u32> = HashMap::new();
    for t in tokens {
        *tf.entry(t.clone()).or_insert(0) += 1;
    }
    tf
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> InvertedIndex {
        let mut ix = InvertedIndex::new();
        ix.add(1, "SELECT * FROM WaterSalinity WHERE salinity > 0.3");
        ix.add(2, "SELECT * FROM WaterTemp WHERE temp < 18");
        ix.add(
            3,
            "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T",
        );
        ix.add(4, "SELECT city FROM CityLocations WHERE state = 'WA'");
        ix
    }

    #[test]
    fn finds_by_keyword() {
        let ix = index();
        let hits = ix.search("salinity", 10);
        let docs: Vec<u64> = hits.iter().map(|h| h.doc).collect();
        assert!(docs.contains(&1));
        assert!(docs.contains(&3));
        assert!(!docs.contains(&2));
    }

    #[test]
    fn multi_term_prefers_doc_with_both() {
        let ix = index();
        let hits = ix.search("salinity temp", 10);
        assert_eq!(hits[0].doc, 3, "{hits:?}");
    }

    #[test]
    fn camel_case_components_searchable() {
        let ix = index();
        let hits = ix.search("water", 10);
        assert!(hits.len() >= 3);
    }

    #[test]
    fn k_limits_results() {
        let ix = index();
        assert_eq!(ix.search("select", 2).len(), 2);
    }

    #[test]
    fn removal_hides_documents() {
        let mut ix = index();
        assert!(ix.contains(1));
        ix.remove(1);
        assert!(!ix.contains(1));
        let docs: Vec<u64> = ix.search("salinity", 10).iter().map(|h| h.doc).collect();
        assert!(!docs.contains(&1));
        assert_eq!(ix.len(), 3);
    }

    #[test]
    fn replacement_updates_content() {
        let mut ix = index();
        ix.add(2, "SELECT lake FROM Lakes");
        let docs: Vec<u64> = ix.search("temp", 10).iter().map(|h| h.doc).collect();
        assert!(!docs.contains(&2));
        let docs: Vec<u64> = ix.search("lakes", 10).iter().map(|h| h.doc).collect();
        assert!(docs.contains(&2));
    }

    #[test]
    fn empty_query_no_hits() {
        let ix = index();
        assert!(ix.search("", 5).is_empty());
        assert!(ix.search("zzz_unknown", 5).is_empty());
    }

    #[test]
    fn sharded_search_with_global_corpus_matches_unsharded() {
        // Split the corpus across two shards; searching each shard with the
        // summed (global) corpus statistics must reproduce the unsharded
        // scores bit-for-bit.
        let full = index();
        let mut shard_a = InvertedIndex::new();
        let mut shard_b = InvertedIndex::new();
        shard_a.add(1, "SELECT * FROM WaterSalinity WHERE salinity > 0.3");
        shard_b.add(2, "SELECT * FROM WaterTemp WHERE temp < 18");
        shard_a.add(
            3,
            "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T",
        );
        shard_b.add(4, "SELECT city FROM CityLocations WHERE state = 'WA'");

        let q = "select water salinity";
        let n = (shard_a.len() + shard_b.len()) as u64;
        let mut df = shard_a.query_term_dfs(q);
        for (term, d) in shard_b.query_term_dfs(q) {
            *df.entry(term).or_insert(0) += d;
        }
        let mut merged: Vec<SearchHit> = shard_a
            .search_with_corpus(q, 10, n, &df)
            .into_iter()
            .chain(shard_b.search_with_corpus(q, 10, n, &df))
            .collect();
        merged.sort_by(|a, b| {
            b.score
                .partial_cmp(&a.score)
                .unwrap()
                .then(a.doc.cmp(&b.doc))
        });
        assert_eq!(merged, full.search(q, 10));
    }

    #[test]
    fn scores_are_positive_and_sorted() {
        let ix = index();
        let hits = ix.search("select water", 10);
        for w in hits.windows(2) {
            assert!(w[0].score >= w[1].score);
        }
        assert!(hits.iter().all(|h| h.score > 0.0));
    }

    #[test]
    fn clone_is_a_consistent_snapshot() {
        let mut ix = index();
        let snap = ix.clone();
        ix.add(2, "SELECT lake FROM Lakes");
        ix.remove(1);
        ix.add(9, "SELECT brand_new FROM Elsewhere");
        // The snapshot still answers from the pre-mutation state.
        let docs: Vec<u64> = snap.search("temp", 10).iter().map(|h| h.doc).collect();
        assert!(docs.contains(&2));
        assert!(snap.contains(1));
        assert!(!snap.contains(9));
        assert_eq!(snap.len(), 4);
        // And the live index sees the mutations.
        assert!(!ix.contains(1));
        assert!(ix.contains(9));
    }
}
