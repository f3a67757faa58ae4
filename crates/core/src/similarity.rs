//! Query similarity and ranking.
//!
//! §4.2 asks "what it means for two queries or the output of two queries to
//! be similar" and §2.3 asks "how to construct ranking functions that combine
//! similarity measures together and with other desired properties (high
//! popularity, efficient runtime, small result cardinality)". This module
//! implements the three distances the paper names — feature-based, parse-tree
//! based and output based — plus the combined ranking policy.

use crate::config::CqmsConfig;
use crate::model::QueryRecord;
use crate::signature::{self, SimSignature};

/// Which distance the kNN meta-query uses (§2.3 "Query similarity could be
/// defined in terms of query parse trees, features, or output data").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DistanceKind {
    /// Weighted Jaccard over the three syntactic feature namespaces.
    Features,
    /// Cheap diff-based parse-tree distance (edit-op count, normalised).
    ParseTree,
    /// Exact Zhang–Shasha ordered tree edit distance over the canonical,
    /// constant-stripped parse trees (§4.3's "parse tree similarity …
    /// after removing the constants from the tree"). More faithful than
    /// [`DistanceKind::ParseTree`], and dearer per pair.
    TreeEdit,
    /// Jaccard over hashed output rows/cells.
    Output,
    /// Weighted blend of whatever signals are available.
    Combined,
}

// ---------------------------------------------------------------------
// Signature-based kernels (the hot path)
//
// Every function below runs allocation-free over precomputed
// [`SimSignature`]s: interned sorted id sets instead of freshly
// `format!`-ed `HashSet`s, trees flattened once at ingest instead of
// per-pair rebuilds, hashed output-row sets instead of re-joined strings.
// kNN, the recommendation panel, the miner's distance matrix and
// query-by-data all go through these. The record-based references they
// are tested against, which re-parse each record's text and rebuild its
// feature sets per call, live with the tests
// (`crates/core/tests/support/reference.rs`).
// ---------------------------------------------------------------------

/// The Combined blend (§2.3): features and parse tree always available,
/// output folded in when both sides store a summary. Single source of
/// truth for the weights — the exact distance ([`distance_with`]) and
/// the kNN lower bound (tree term at 0) both go through here, so the
/// bound can never drift above the distance.
pub fn combined_blend(f: f64, t: f64, o: Option<f64>) -> f64 {
    match o {
        Some(o) => 0.45 * f + 0.35 * t + 0.2 * o,
        None => 0.55 * f + 0.45 * t,
    }
}

/// Feature distance: weighted Jaccard over tables, attributes and
/// predicate templates (weights from config; constants excluded per
/// §4.3), as a sorted merge over interned ids.
pub fn feature_distance_sig(a: &SimSignature, b: &SimSignature, config: &CqmsConfig) -> f64 {
    feature_distance_sets(a.feature_sets(), b.feature_sets(), config)
}

/// [`feature_distance_sig`] over bare `[tables, attributes, predicates]`
/// id sets — what a feature class keeps of its members' signatures.
pub fn feature_distance_sets(a: [&[u32]; 3], b: [&[u32]; 3], config: &CqmsConfig) -> f64 {
    config.weight_tables * signature::jaccard_ids(a[0], b[0])
        + config.weight_attributes * signature::jaccard_ids(a[1], b[1])
        + config.weight_predicates * signature::jaccard_ids(a[2], b[2])
}

/// Feature distance between signatures known to share **no** feature
/// (bloom-disjoint clustering pairs): each per-namespace Jaccard is exactly
/// 0.0 (both empty) or 1.0 (disjoint), so the distance collapses to an
/// O(1) emptiness pattern — bit-identical to [`feature_distance_sig`]
/// on the same pair.
pub fn feature_distance_disjoint(a: &SimSignature, b: &SimSignature, config: &CqmsConfig) -> f64 {
    fn j(x: &[u32], y: &[u32]) -> f64 {
        if x.is_empty() && y.is_empty() {
            0.0
        } else {
            1.0
        }
    }
    config.weight_tables * j(&a.tables, &b.tables)
        + config.weight_attributes * j(&a.attributes, &b.attributes)
        + config.weight_predicates * j(&a.predicates, &b.predicates)
}

/// Exact Zhang–Shasha tree edit distance on the canonical,
/// constant-stripped parse trees, normalised by the larger tree size,
/// over the cached flattened trees (unparsed records are maximally far).
pub fn tree_edit_distance_sig(a: &SimSignature, b: &SimSignature) -> f64 {
    match (&a.tree, &b.tree) {
        (Some(ta), Some(tb)) => sqlparse::normalized_ted(ta, tb),
        _ => 1.0,
    }
}

/// Output distance: Jaccard over the stored output rows — treating
/// queries "as black boxes" (§4.1) — as hashed row sets. `None` when
/// either side has no summary.
pub fn output_distance_sig(a: &SimSignature, b: &SimSignature) -> Option<f64> {
    let ra = a.output_rows.as_ref()?;
    let rb = b.output_rows.as_ref()?;
    Some(signature::jaccard_ids(ra, rb))
}

/// Parse-tree distance (§4.3 "parse tree similarity"): the normalised
/// edit count between two SELECTs, over the cached folded statements.
/// Two other statements are at 0 when equal and 1 otherwise; unparsed
/// ones are maximally far.
pub fn tree_distance_sig(
    a: &QueryRecord,
    a_sig: &SimSignature,
    b: &QueryRecord,
    b_sig: &SimSignature,
) -> f64 {
    match (&a_sig.folded_select, &b_sig.folded_select) {
        (Some(fa), Some(fb)) => sqlparse::diff::edit_distance_normalized_folded(fa, fb),
        // Folded statements exist iff the statement is a SELECT and trees
        // iff it parsed, so only two parsed non-SELECTs are compared, by
        // re-parsing their text.
        (None, None) if a_sig.tree.is_some() && b_sig.tree.is_some() => {
            let parse = |r: &QueryRecord| sqlparse::parse(&r.raw_sql).ok();
            if a.raw_sql == b.raw_sql || parse(a) == parse(b) {
                0.0
            } else {
                1.0
            }
        }
        _ => 1.0,
    }
}

/// Distance under the chosen metric over precomputed signatures. The
/// records are still needed for the non-SELECT arm of
/// [`DistanceKind::ParseTree`] (and the ParseTree component of
/// `Combined`), which compares the statements parsed from their text.
pub fn distance_with(
    a: &QueryRecord,
    a_sig: &SimSignature,
    b: &QueryRecord,
    b_sig: &SimSignature,
    kind: DistanceKind,
    config: &CqmsConfig,
) -> f64 {
    match kind {
        DistanceKind::Features => feature_distance_sig(a_sig, b_sig, config),
        DistanceKind::ParseTree => tree_distance_sig(a, a_sig, b, b_sig),
        DistanceKind::TreeEdit => tree_edit_distance_sig(a_sig, b_sig),
        DistanceKind::Output => output_distance_sig(a_sig, b_sig).unwrap_or(1.0),
        DistanceKind::Combined => {
            let f = feature_distance_sig(a_sig, b_sig, config);
            let t = tree_distance_sig(a, a_sig, b, b_sig);
            combined_blend(f, t, output_distance_sig(a_sig, b_sig))
        }
    }
}

/// The combined ranking function of §2.3: similarity blended with
/// popularity, recency and maintained quality. Returns a score in [0, 1]
/// (Fig. 3 displays it as a percentage).
pub fn rank_score(
    candidate: &QueryRecord,
    dist: f64,
    now_ts: u64,
    max_popularity: u32,
    popularity: u32,
    config: &CqmsConfig,
) -> f64 {
    let similarity = 1.0 - dist.clamp(0.0, 1.0);
    let pop = popularity as f64 / max_popularity.max(1) as f64;
    // Recency decays with a one-week half-life (trace seconds).
    let age = now_ts.saturating_sub(candidate.ts) as f64;
    let recency = 0.5f64.powf(age / (7.0 * 86_400.0));
    config.rank_similarity * similarity
        + config.rank_popularity * pop
        + config.rank_recency * recency
        + config.rank_quality * candidate.quality
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::signature::FeatureInterner;
    use crate::storage::{make_record, NewRecord};

    fn rec(id: u64, sql: &str) -> NewRecord {
        let stmt = sqlparse::parse(sql).unwrap();
        let feats = extract(&stmt, None);
        make_record(
            QueryId(id),
            UserId(0),
            100,
            sql,
            Some(stmt),
            feats,
            RuntimeFeatures {
                success: true,
                ..Default::default()
            },
            OutputSummary::None,
            SessionId(0),
            Visibility::Public,
        )
    }

    fn with_summary(mut r: NewRecord, rows: Vec<Vec<&str>>) -> NewRecord {
        r.summary = OutputSummary::Full {
            columns: vec!["c".into()],
            rows: rows.into_iter().collect(),
        };
        r
    }

    /// The signatures of `recs`, over one interner.
    fn sigs(recs: &[&NewRecord]) -> Vec<SimSignature> {
        let mut interner = FeatureInterner::new();
        (recs.iter())
            .map(|r| {
                SimSignature::build(&r.extracted, r.parsed.as_ref(), &r.summary, &mut interner)
            })
            .collect()
    }

    /// The distance between `a` and `b` under `kind`.
    fn distance(a: &NewRecord, b: &NewRecord, kind: DistanceKind) -> f64 {
        let s = sigs(&[a, b]);
        distance_with(a, &s[0], b, &s[1], kind, &CqmsConfig::default())
    }

    #[test]
    fn identical_queries_distance_zero() {
        let a = rec(0, "SELECT * FROM WaterTemp WHERE temp < 18");
        let b = rec(1, "select * from watertemp where TEMP < 18");
        for kind in [
            DistanceKind::Features,
            DistanceKind::ParseTree,
            DistanceKind::Combined,
        ] {
            assert!(distance(&a, &b, kind) < 1e-9, "{kind:?}");
        }
    }

    #[test]
    fn constant_change_is_nearer_than_table_change() {
        let base = rec(0, "SELECT * FROM WaterTemp WHERE temp < 18");
        let const_change = rec(1, "SELECT * FROM WaterTemp WHERE temp < 22");
        let table_change = rec(2, "SELECT * FROM CityLocations WHERE pop < 18");
        let d1 = distance(&base, &const_change, DistanceKind::Combined);
        let d2 = distance(&base, &table_change, DistanceKind::Combined);
        assert!(d1 < d2, "{d1} !< {d2}");
        // Constants are excluded from features entirely.
        assert!(distance(&base, &const_change, DistanceKind::Features) < 1e-9);
    }

    #[test]
    fn overlapping_tables_closer_than_disjoint() {
        let a = rec(0, "SELECT * FROM WaterSalinity, WaterTemp");
        let b = rec(1, "SELECT * FROM WaterTemp, CityLocations");
        let c = rec(2, "SELECT * FROM Lakes");
        assert!(
            distance(&a, &b, DistanceKind::Features) < distance(&a, &c, DistanceKind::Features)
        );
    }

    #[test]
    fn output_distance_matches_black_box_view() {
        let a = with_summary(
            rec(0, "SELECT lake FROM WaterTemp WHERE temp < 18"),
            vec![vec!["Lake Washington"], vec!["Green Lake"]],
        );
        // Different text, same output → output distance 0.
        let b = with_summary(
            rec(1, "SELECT lake FROM Lakes WHERE max_depth > 5"),
            vec![vec!["Lake Washington"], vec!["Green Lake"]],
        );
        let c = with_summary(
            rec(2, "SELECT lake FROM WaterTemp"),
            vec![vec!["Lake Union"]],
        );
        let s = sigs(&[&a, &b, &c, &rec(3, "SELECT 1")]);
        assert_eq!(output_distance_sig(&s[0], &s[1]), Some(0.0));
        assert_eq!(output_distance_sig(&s[0], &s[2]), Some(1.0));
        assert_eq!(output_distance_sig(&s[0], &s[3]), None);
    }

    #[test]
    fn rank_score_prefers_popular_and_recent() {
        let cfg = CqmsConfig::default();
        let a = rec(0, "SELECT * FROM WaterTemp");
        let now = a.ts;
        let s_pop = rank_score(&a, 0.2, now, 10, 10, &cfg);
        let s_unpop = rank_score(&a, 0.2, now, 10, 1, &cfg);
        assert!(s_pop > s_unpop);
        let s_old = rank_score(&a, 0.2, now + 30 * 86_400, 10, 10, &cfg);
        assert!(s_pop > s_old);
        assert!((0.0..=1.0).contains(&s_pop));
    }

    #[test]
    fn tree_edit_metric_behaves() {
        let a = rec(0, "SELECT * FROM WaterTemp WHERE temp < 18");
        let b = rec(1, "SELECT * FROM WaterTemp WHERE temp < 22");
        // Constants are stripped first, so a constant change is distance 0.
        assert!(distance(&a, &b, DistanceKind::TreeEdit) < 1e-9);
        let c = rec(2, "SELECT city FROM CityLocations GROUP BY city");
        let d_far = distance(&a, &c, DistanceKind::TreeEdit);
        assert!(d_far > 0.3, "{d_far}");
        // Symmetry.
        assert!((d_far - distance(&c, &a, DistanceKind::TreeEdit)).abs() < 1e-12);
    }

    #[test]
    fn non_select_statements_compare_by_equality() {
        let insert = rec(0, "INSERT INTO t VALUES (1)");
        let same = rec(1, "INSERT INTO t  VALUES (1)");
        let other = rec(2, "INSERT INTO t VALUES (2)");
        let select = rec(3, "SELECT * FROM t");
        assert_eq!(distance(&insert, &same, DistanceKind::ParseTree), 0.0);
        assert_eq!(distance(&insert, &other, DistanceKind::ParseTree), 1.0);
        assert_eq!(distance(&insert, &select, DistanceKind::ParseTree), 1.0);
    }

    #[test]
    fn distance_is_symmetric() {
        let a = rec(0, "SELECT * FROM WaterTemp WHERE temp < 18");
        let b = rec(1, "SELECT lake FROM WaterTemp, Lakes WHERE area > 100");
        for kind in [
            DistanceKind::Features,
            DistanceKind::ParseTree,
            DistanceKind::TreeEdit,
            DistanceKind::Combined,
        ] {
            let d1 = distance(&a, &b, kind);
            let d2 = distance(&b, &a, kind);
            assert!((d1 - d2).abs() < 1e-9, "{kind:?} asymmetric");
            assert!((0.0..=1.0).contains(&d1));
        }
    }
}
