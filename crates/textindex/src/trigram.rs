//! Trigram index for substring meta-queries.
//!
//! Each document's text is stored **lowercased once**, at [`TrigramIndex::add`],
//! and its distinct byte trigrams are posted. A substring query of length ≥ 3
//! walks the *shortest* posting list among its trigrams: a document containing
//! the needle is on every one of those lists, so the shortest is a complete
//! candidate set and no intersection is needed. Each candidate is verified
//! with a plain `contains` on its stored text, which makes the answer exact.
//! Shorter queries scan the stored texts, which is still bounded by the log
//! size.
//!
//! Nothing purges a posting. A replacement (the Query Storage's `reindex`)
//! leaves the old text's grams posted, and a delete leaves the document's
//! grams posted behind its tombstone: each replacement or delete leaves at
//! most one stale entry per distinct gram of the text it retired, and a stale
//! entry costs one failed verification.
//!
//! Built on the persistent `cqms-cow` collections so a [`Clone`] shares
//! all state by pointer — the CQMS write path publishes a clone per
//! logged query. Document ids index a vector, so they must be small dense
//! integers (the Query Storage's record ids).

use cqms_cow::{CowMap, SegVec, SnapshotVec};
use std::sync::Arc;

/// One document slot: its current text, lowercased (none for an id never
/// added), and its tombstone.
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

/// The distinct byte trigrams of an already-lowercased text, sorted.
/// Each gram is packed big-endian into the low bytes of a `u32`, which
/// sorts exactly as the byte triple does, so the sort and dedup run on
/// plain integers.
pub(crate) fn trigrams(lower: &str) -> Vec<[u8; 3]> {
    let bytes = lower.as_bytes();
    let Some(head) = bytes.get(..2) else {
        return Vec::new();
    };
    let mut gram = u32::from(head[0]) << 8 | u32::from(head[1]);
    let mut packed: Vec<u32> = bytes[2..]
        .iter()
        .map(|&b| {
            gram = (gram << 8 | u32::from(b)) & 0x00ff_ffff;
            gram
        })
        .collect();
    packed.sort_unstable();
    packed.dedup();
    packed
        .into_iter()
        .map(|g| {
            let [_, a, b, c] = g.to_be_bytes();
            [a, b, c]
        })
        .collect()
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

    /// Add (or replace) a document. A replaced text's grams stay posted;
    /// verification against the new text rejects them.
    pub fn add(&mut self, doc: u64, text: &str) {
        let lower = text.to_lowercase();
        for g in trigrams(&lower) {
            let posts = self.grams.entry_or_default(g);
            if posts.last() != Some(&doc) {
                posts.push(doc);
            }
        }
        let slot = self.docs.entry_or_default(doc as usize);
        if slot.text.is_none() || slot.deleted {
            self.live += 1;
        }
        *slot = Doc {
            text: Some(Arc::from(lower)),
            deleted: false,
        };
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

    /// All documents whose text contains `needle` (case-insensitive), in
    /// ascending id order.
    pub fn search(&self, needle: &str) -> Vec<u64> {
        if needle.is_empty() {
            return Vec::new();
        }
        let lower = needle.to_lowercase();
        let matches = |d: &u64| {
            self.docs.get(*d as usize).is_some_and(|doc| {
                !doc.deleted && doc.text.as_deref().is_some_and(|t| t.contains(&*lower))
            })
        };
        let mut out: Vec<u64> = if lower.len() < 3 {
            (0..self.docs.len() as u64).filter(matches).collect()
        } else {
            let mut shortest: Option<&SegVec<u64>> = None;
            for g in trigrams(&lower) {
                let Some(list) = self.grams.get(&g) else {
                    return Vec::new();
                };
                if shortest.is_none_or(|s| list.len() < s.len()) {
                    shortest = Some(list);
                }
            }
            shortest
                .into_iter()
                .flat_map(SegVec::iter)
                .copied()
                .filter(matches)
                .collect()
        };
        // A re-added document can sit on a list twice, or out of id order.
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Pointers a `clone()` copies (one per chunk of document slots; the
    /// gram trie is one more).
    pub fn clone_len(&self) -> usize {
        self.docs.chunk_count()
    }
}

/// [`trigrams`] as it was written before the packed kernel: the
/// reference the property test holds it to.
#[cfg(test)]
pub(crate) fn reference_trigrams(lower: &str) -> Vec<[u8; 3]> {
    let mut out: Vec<[u8; 3]> = lower
        .as_bytes()
        .windows(3)
        .map(|w| [w[0], w[1], w[2]])
        .collect();
    out.sort_unstable();
    out.dedup();
    out
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
}
