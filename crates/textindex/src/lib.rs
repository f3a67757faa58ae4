//! # textindex — keyword & substring search substrate
//!
//! The CQMS must "at minimum provide substring matching and keyword search"
//! over logged query text (paper §2.2). This crate supplies both:
//!
//! * [`inverted::InvertedIndex`] — a TF-IDF-scored inverted index with an
//!   identifier-aware tokenizer (splits `WaterSalinity` and `loc_x` into
//!   searchable terms) and top-k retrieval;
//! * [`trigram::TrigramIndex`] — a trigram index answering arbitrary
//!   substring queries without scanning every document;
//! * [`highlight`] — match-span extraction for client-side display.
//!
//! Documents are identified by caller-provided `u64` ids (the CQMS uses its
//! query ids). Removal is supported via tombstones so the Administrative
//! Interaction Mode can delete queries (§2.4).

pub mod highlight;
pub mod inverted;
pub mod tokenize;
pub mod trigram;

pub use highlight::highlight_spans;
pub use inverted::{InvertedIndex, SearchHit};
pub use tokenize::tokenize;
pub use trigram::TrigramIndex;

/// The rewritten kernels (packed trigrams, the one-walk tokenizer,
/// term frequencies by sorting) give exactly what the bodies they
/// replaced gave.
#[cfg(test)]
mod kernels {
    use crate::inverted::{reference_term_frequencies, term_frequencies};
    use crate::tokenize;
    use crate::tokenize::reference_tokenize;
    use crate::trigram::{reference_trigrams, trigrams};
    use proptest::prelude::*;
    use workload::{Domain, Trace, TraceConfig};

    /// Every kernel agrees with its reference on `text`.
    fn agree(text: &str) -> Result<(), TestCaseError> {
        let lower = text.to_lowercase();
        prop_assert_eq!(trigrams(&lower), reference_trigrams(&lower));
        let mut tokens = tokenize(text);
        prop_assert_eq!(&tokens, &reference_tokenize(text));
        let want = reference_term_frequencies(&tokens);
        let mut want: Vec<(&str, u32)> = want.iter().map(|(t, &f)| (t.as_str(), f)).collect();
        want.sort_unstable();
        let got: Vec<(&str, u32)> = term_frequencies(&mut tokens).collect();
        prop_assert_eq!(got, want);
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn kernels_match_their_references_on_ascii(text in "[a-zA-Z0-9_ ,.()<>='*-]{0,60}") {
            agree(&text)?;
        }

        #[test]
        fn kernels_match_their_references_on_any_text(text in "\\PC{0,60}") {
            agree(&text)?;
        }
    }

    #[test]
    fn kernels_match_their_references_on_every_domain_log() {
        for domain in [Domain::Lakes, Domain::SkySurvey, Domain::WebLog] {
            let trace = Trace::generate(TraceConfig::new(domain));
            for q in &trace.queries {
                agree(&q.sql).unwrap_or_else(|e| panic!("{domain:?}: {:?}: {e:?}", q.sql));
            }
        }
    }

    #[test]
    fn short_and_odd_texts() {
        for text in [
            "", "a", "ab", "abc", "_", "__x_", "SQLQuery", "aB1C", "x1Y", "ÅB", "loc_X9z", "ΑΣ_b",
            "aΣ", "ǅx_İy",
        ] {
            agree(text).unwrap();
        }
    }
}
