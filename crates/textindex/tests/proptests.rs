//! Property tests: both indexes must agree exactly with the naïve
//! reference implementation over arbitrary documents and queries.

use proptest::prelude::*;
use textindex::{InvertedIndex, TrigramIndex};

fn doc_strategy() -> impl Strategy<Value = String> {
    // Words from a small mixed-case vocabulary + punctuation, so queries
    // actually hit; the last two lowercase to other bytes than they hold.
    proptest::collection::vec(
        prop_oneof![
            Just("select"),
            Just("FROM"),
            Just("Where"),
            Just("WaterTemp"),
            Just("WaterSalinity"),
            Just("temp"),
            Just("salinity"),
            Just("18"),
            Just("<"),
            Just("lake_x"),
            Just("Straße"),
            Just("İzmir"),
        ],
        1..12,
    )
    .prop_map(|words| words.join(" "))
}

#[derive(Debug, Clone)]
enum Op {
    /// Add a document under the next fresh id.
    Add(String),
    /// Re-add an id added before (picked modulo the ids so far) with new
    /// text; a removed id comes back.
    Replace(usize, String),
    /// Remove an id added before (picked modulo the ids so far).
    Remove(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => doc_strategy().prop_map(Op::Add),
        2 => (0usize..64, doc_strategy()).prop_map(|(i, t)| Op::Replace(i, t)),
        1 => (0usize..64).prop_map(Op::Remove),
    ]
}

#[derive(Debug, Clone)]
enum Needle {
    /// A 0-, 1- or 2-byte needle: the scan path.
    Short(&'static str),
    /// `len` chars from char `start` of live document `pick` (both modulo
    /// what exists), upper-cased if `upper`.
    Slice {
        pick: usize,
        start: usize,
        len: usize,
        upper: bool,
    },
}

impl Needle {
    fn resolve(&self, live: &[(u64, &str)]) -> String {
        match *self {
            Needle::Short(s) => s.to_string(),
            Needle::Slice {
                pick,
                start,
                len,
                upper,
            } => {
                let Some((_, text)) = live.get(pick % live.len().max(1)) else {
                    return String::new();
                };
                let chars: Vec<char> = text.chars().collect();
                let start = start % (chars.len() + 1);
                let s: String = chars[start..].iter().take(len).collect();
                if upper {
                    s.to_uppercase()
                } else {
                    s
                }
            }
        }
    }
}

fn needle_strategy() -> impl Strategy<Value = Needle> {
    prop_oneof![
        1 => prop_oneof![
            Just(""), Just("e"), Just("W"), Just("<"), Just("ß"), Just("İ"),
            Just("te"), Just("18"), Just("r "),
        ]
        .prop_map(Needle::Short),
        4 => (0usize..64, 0usize..64, 3usize..16, any::<bool>()).prop_map(
            |(pick, start, len, upper)| Needle::Slice { pick, start, len, upper }
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Trigram substring search = naive lowercase `contains` over the live
    /// texts, after every step of a trace of adds, re-adds of an existing
    /// id with new text, and removals.
    #[test]
    fn trigram_matches_naive(
        ops in proptest::collection::vec(op_strategy(), 1..30),
        needles in proptest::collection::vec(needle_strategy(), 1..6),
    ) {
        let mut ix = TrigramIndex::new();
        // Indexed by doc id: the current text, `None` once removed.
        let mut texts: Vec<Option<String>> = Vec::new();
        for op in ops {
            match op {
                Op::Add(text) => {
                    ix.add(texts.len() as u64, &text);
                    texts.push(Some(text));
                }
                Op::Replace(pick, text) => {
                    let id = pick % texts.len().max(1);
                    ix.add(id as u64, &text);
                    if id == texts.len() {
                        texts.push(Some(text));
                    } else {
                        texts[id] = Some(text);
                    }
                }
                Op::Remove(pick) => {
                    let id = pick % texts.len().max(1);
                    ix.remove(id as u64);
                    if let Some(slot) = texts.get_mut(id) {
                        *slot = None;
                    }
                }
            }
            let live: Vec<(u64, &str)> = texts
                .iter()
                .enumerate()
                .filter_map(|(i, t)| Some((i as u64, t.as_deref()?)))
                .collect();
            prop_assert_eq!(ix.len(), live.len());
            for n in &needles {
                let needle = n.resolve(&live);
                let lower = needle.to_lowercase();
                let want: Vec<u64> = live
                    .iter()
                    .filter(|(_, t)| !needle.is_empty() && t.to_lowercase().contains(&lower))
                    .map(|(i, _)| *i)
                    .collect();
                prop_assert_eq!(ix.search(&needle), want, "needle {:?}", needle);
            }
        }
    }

    /// Removal really removes; re-adding really restores.
    #[test]
    fn tombstone_lifecycle(
        docs in proptest::collection::vec(doc_strategy(), 2..10),
        victim in 0usize..10,
    ) {
        let victim = victim % docs.len();
        let mut inv = InvertedIndex::new();
        let mut tri = TrigramIndex::new();
        for (i, d) in docs.iter().enumerate() {
            inv.add(i as u64, d);
            tri.add(i as u64, d);
        }
        inv.remove(victim as u64);
        tri.remove(victim as u64);
        for hit in inv.search("select water temp salinity 18", 100) {
            prop_assert_ne!(hit.doc, victim as u64);
        }
        prop_assert!(!tri.search(&docs[victim]).contains(&(victim as u64)));
        // Restore.
        inv.add(victim as u64, &docs[victim]);
        tri.add(victim as u64, &docs[victim]);
        prop_assert!(inv.contains(victim as u64));
        prop_assert!(tri.search(&docs[victim]).contains(&(victim as u64)));
    }

    /// TF-IDF scores are deterministic and k-bounded.
    #[test]
    fn search_deterministic_and_bounded(
        docs in proptest::collection::vec(doc_strategy(), 1..15),
        k in 1usize..8,
    ) {
        let mut ix = InvertedIndex::new();
        for (i, d) in docs.iter().enumerate() {
            ix.add(i as u64, d);
        }
        let a = ix.search("water temp", k);
        let b = ix.search("water temp", k);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.len() <= k);
        for w in a.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }
}
