//! Trigram index for substring meta-queries.
//!
//! A substring query of length ≥ 3 is answered by intersecting the posting
//! lists of its trigrams and verifying candidates with a direct `contains`
//! check (trigram intersection over-approximates). Shorter queries fall back
//! to a scan over the stored texts, which is still bounded by the log size.
//!
//! Built on the persistent `cqms-cow` collections so a [`Clone`] shares
//! all state by pointer — the CQMS write path publishes a clone per
//! logged query. Document ids index a vector, so they must be small dense
//! integers (the Query Storage's record ids).

use cqms_cow::{CowMap, SegVec, SnapshotVec};
use std::collections::HashSet;
use std::sync::Arc;

/// One document slot: its current text (none for an id never added, or
/// dropped by compaction) and its tombstone.
#[derive(Debug, Default, Clone)]
struct Doc {
    text: Option<Arc<str>>,
    deleted: bool,
}

/// Case-insensitive trigram index over document texts.
#[derive(Debug, Default, Clone)]
pub struct TrigramIndex {
    grams: CowMap<[u8; 3], SegVec<u64>>,
    /// Indexed by doc id: the lookup every candidate's verification makes.
    docs: SnapshotVec<Doc>,
    live: usize,
}

impl TrigramIndex {
    pub fn new() -> Self {
        TrigramIndex::default()
    }

    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    fn trigrams(text: &str) -> HashSet<[u8; 3]> {
        let lower = text.to_lowercase();
        let bytes = lower.as_bytes();
        let mut out = HashSet::new();
        if bytes.len() >= 3 {
            for w in bytes.windows(3) {
                out.insert([w[0], w[1], w[2]]);
            }
        }
        out
    }

    /// Add (or replace) a document.
    pub fn add(&mut self, doc: u64, text: &str) {
        // Replacement: old postings are purged lazily — candidates are
        // re-verified against the stored text at query time, so leftover
        // grams only cost a failed verify until the next compaction.
        let slot = self.docs.entry_or_default(doc as usize);
        if slot.text.is_none() || slot.deleted {
            self.live += 1;
        }
        *slot = Doc {
            text: Some(Arc::from(text)),
            deleted: false,
        };
        for g in Self::trigrams(text) {
            let posts = self.grams.entry_or_default(g);
            if posts.last() != Some(&doc) {
                posts.push(doc);
            }
        }
    }

    pub fn remove(&mut self, doc: u64) {
        // Peek first: `get_mut` detaches the slot's chunk from clones.
        let present = |d: &Doc| d.text.is_some() && !d.deleted;
        if self.docs.get(doc as usize).is_some_and(present) {
            if let Some(slot) = self.docs.get_mut(doc as usize) {
                slot.deleted = true;
            }
            self.live -= 1;
        }
    }

    /// All documents whose text contains `needle` (case-insensitive).
    pub fn search(&self, needle: &str) -> Vec<u64> {
        if needle.is_empty() {
            return Vec::new();
        }
        let lower = needle.to_lowercase();
        let candidates: Vec<u64> = if lower.len() >= 3 {
            let grams = Self::trigrams(&lower);
            let mut lists: Vec<&SegVec<u64>> = Vec::new();
            for g in &grams {
                match self.grams.get(g) {
                    Some(l) => lists.push(l),
                    None => return Vec::new(),
                }
            }
            lists.sort_by_key(|l| l.len());
            let (first, rest) = lists.split_first().unwrap();
            let rest_sets: Vec<HashSet<u64>> =
                rest.iter().map(|l| l.iter().copied().collect()).collect();
            first
                .iter()
                .filter(|d| rest_sets.iter().all(|s| s.contains(d)))
                .copied()
                .collect()
        } else {
            (0..self.docs.len() as u64).collect()
        };
        let mut out: Vec<u64> = candidates
            .into_iter()
            .filter(|d| {
                self.docs.get(*d as usize).is_some_and(|doc| {
                    !doc.deleted
                        && doc
                            .text
                            .as_ref()
                            .is_some_and(|t| t.to_lowercase().contains(&lower))
                })
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Pointers a `clone()` copies (one per chunk of document slots; the
    /// gram trie is one more).
    pub fn clone_len(&self) -> usize {
        self.docs.chunk_count()
    }

    /// Rebuild the gram postings from the live texts, dropping tombstoned
    /// documents and replacement leftovers.
    pub fn compact(&mut self) {
        let live_docs: SnapshotVec<Doc> = self
            .docs
            .iter()
            .map(|d| if d.deleted { Doc::default() } else { d.clone() })
            .collect();
        let mut new_grams: CowMap<[u8; 3], SegVec<u64>> = CowMap::new();
        for (doc, slot) in live_docs.iter_enumerated() {
            for g in slot.text.iter().flat_map(|t| Self::trigrams(t)) {
                new_grams.entry_or_default(g).push(doc as u64);
            }
        }
        self.grams = new_grams;
        self.docs = live_docs;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn index() -> TrigramIndex {
        let mut ix = TrigramIndex::new();
        ix.add(1, "SELECT * FROM WaterSalinity WHERE salinity > 0.3");
        ix.add(2, "SELECT * FROM WaterTemp WHERE temp < 18");
        ix.add(3, "SELECT city FROM CityLocations");
        ix
    }

    #[test]
    fn substring_search_case_insensitive() {
        let ix = index();
        assert_eq!(ix.search("watersal"), vec![1]);
        assert_eq!(ix.search("WATERSAL"), vec![1]);
        assert_eq!(ix.search("temp <"), vec![2]);
        assert!(ix.search("nothing here").is_empty());
    }

    #[test]
    fn short_needle_fallback() {
        let ix = index();
        // 2-char needles scan; `ci` appears in "city" and "CityLocations".
        assert_eq!(ix.search("ci"), vec![3]);
        assert!(ix.search("").is_empty());
    }

    #[test]
    fn shared_substring_hits_multiple() {
        let ix = index();
        let hits = ix.search("SELECT");
        assert_eq!(hits, vec![1, 2, 3]);
    }

    #[test]
    fn removal() {
        let mut ix = index();
        ix.remove(2);
        assert!(ix.search("watertemp").is_empty());
        assert_eq!(ix.len(), 2);
    }

    #[test]
    fn replacement_verifies_against_new_text() {
        let mut ix = index();
        ix.add(1, "completely different");
        assert!(ix.search("watersalinity").is_empty());
        assert_eq!(ix.search("different"), vec![1]);
    }

    #[test]
    fn punctuation_substrings() {
        let ix = index();
        assert_eq!(ix.search("> 0.3"), vec![1]);
    }

    #[test]
    fn clone_is_a_consistent_snapshot() {
        let mut ix = index();
        let snap = ix.clone();
        ix.remove(1);
        ix.add(2, "replaced entirely");
        ix.add(7, "brand new row");
        assert_eq!(snap.search("watersal"), vec![1]);
        assert_eq!(snap.search("temp <"), vec![2]);
        assert!(snap.search("brand new").is_empty());
        assert_eq!(snap.len(), 3);
        assert!(ix.search("watersal").is_empty());
        assert_eq!(ix.search("brand new"), vec![7]);
    }

    #[test]
    fn compact_preserves_results() {
        let mut ix = index();
        ix.add(2, "replaced entirely");
        ix.remove(3);
        let want = ix.search("e");
        ix.compact();
        assert_eq!(ix.search("e"), want);
        assert_eq!(ix.search("replaced"), vec![2]);
        assert!(ix.search("city").is_empty());
        assert_eq!(ix.len(), 2);
        // A compacted index keeps accepting writes.
        ix.add(3, "SELECT city FROM CityLocations");
        assert_eq!(ix.search("city"), vec![3]);
        assert_eq!(ix.len(), 3);
    }
}
