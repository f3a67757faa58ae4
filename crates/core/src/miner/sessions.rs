//! Session identification (§2.2: "query sessions should be automatically
//! identified") — the one rule, applied once when a query is logged — and
//! its evaluation against planted truth.

use crate::config::CqmsConfig;
use crate::model::{QueryId, SessionId, UserId};
use crate::signature::SimSignature;
use crate::similarity;
use crate::storage::QueryStorage;
use std::collections::HashMap;

/// The session rule: does a query logged at `ts` with signature `sig`
/// continue the session of its user's latest logged query (logged at
/// `prev_ts`, signature `prev`)? It does when the idle gap is at most
/// the threshold, or at most 3× the threshold and the two are near in
/// feature distance (the same analysis resumed). A query back-dated
/// before its user's latest one starts a new session. The distance is
/// computed only for gaps in (idle, 3×idle].
///
/// [`QueryStorage::log_query`] applies it to every query the profiler
/// logs, so a session is fixed when its query is logged.
pub fn continues(
    config: &CqmsConfig,
    prev_ts: u64,
    prev: &SimSignature,
    ts: u64,
    sig: &SimSignature,
) -> bool {
    let idle = config.session_idle_gap_secs;
    ts.checked_sub(prev_ts).is_some_and(|gap| {
        gap <= idle
            || (gap <= 3 * idle
                && similarity::feature_distance_sig(prev, sig, config)
                    <= config.session_similarity_threshold)
    })
}

/// The rule applied to the whole log as it stands (tombstones included):
/// every record in arrival (id) order, anchored on its user's latest
/// earlier record, sessions numbered 0.. in the order they open. For a
/// log the profiler wrote under `config`, this is the stored assignment,
/// ids and all, as long as no record was rewritten since it was logged;
/// another `config` shows what the rule would have decided (the tests'
/// idle-gap sweep, the ledger's `miner.sessions_us` probe).
pub fn segment_log(storage: &QueryStorage, config: &CqmsConfig) -> HashMap<QueryId, SessionId> {
    let sig = |id: QueryId| storage.signature(id).expect("signatures parallel records");
    let mut latest: HashMap<UserId, (u64, QueryId, SessionId)> = HashMap::new();
    let mut assignment = HashMap::with_capacity(storage.len());
    let mut opened = 0;
    for r in storage.iter() {
        let session = match latest.get(&r.user) {
            Some(&(ts, prev, session)) if continues(config, ts, sig(prev), r.ts, sig(r.id)) => {
                session
            }
            _ => {
                opened += 1;
                SessionId(opened - 1)
            }
        };
        latest.insert(r.user, (r.ts, r.id, session));
        assignment.insert(r.id, session);
    }
    assignment
}

/// Quality of a segmentation against ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentationQuality {
    /// Precision/recall/F1 of session *boundaries* (a boundary sits between
    /// two consecutive queries of one user).
    pub boundary_precision: f64,
    /// Recall of predicted session boundaries.
    pub boundary_recall: f64,
    /// F1 of predicted session boundaries.
    pub boundary_f1: f64,
    /// Pairwise F1: over all same-user query pairs, do the two labelings
    /// agree on "same session"?
    pub pairwise_f1: f64,
}

/// Score `predicted` against `truth`. Both map query → session label; the
/// per-user orderings are taken from `order` (queries of one user sorted by
/// time).
pub fn segmentation_quality(
    order: &[(UserId, Vec<QueryId>)],
    truth: &HashMap<QueryId, u64>,
    predicted: &HashMap<QueryId, SessionId>,
) -> SegmentationQuality {
    let mut tp = 0u64;
    let mut fp = 0u64;
    let mut fn_ = 0u64;
    // Pairwise agreement counts.
    let mut pair_tp = 0u64;
    let mut pair_fp = 0u64;
    let mut pair_fn = 0u64;

    for (_user, ids) in order {
        for w in ids.windows(2) {
            let truth_boundary = truth.get(&w[0]) != truth.get(&w[1]);
            let pred_boundary = predicted.get(&w[0]) != predicted.get(&w[1]);
            match (truth_boundary, pred_boundary) {
                (true, true) => tp += 1,
                (false, true) => fp += 1,
                (true, false) => fn_ += 1,
                (false, false) => {}
            }
        }
        for i in 0..ids.len() {
            for j in (i + 1)..ids.len() {
                let same_truth = truth.get(&ids[i]) == truth.get(&ids[j]);
                let same_pred = predicted.get(&ids[i]) == predicted.get(&ids[j]);
                match (same_truth, same_pred) {
                    (true, true) => pair_tp += 1,
                    (false, true) => pair_fp += 1,
                    (true, false) => pair_fn += 1,
                    (false, false) => {}
                }
            }
        }
    }

    let precision = safe_div(tp, tp + fp);
    let recall = safe_div(tp, tp + fn_);
    let f1 = harmonic(precision, recall);
    let pp = safe_div(pair_tp, pair_tp + pair_fp);
    let pr = safe_div(pair_tp, pair_tp + pair_fn);
    SegmentationQuality {
        boundary_precision: precision,
        boundary_recall: recall,
        boundary_f1: f1,
        pairwise_f1: harmonic(pp, pr),
    }
}

fn safe_div(a: u64, b: u64) -> f64 {
    if b == 0 {
        1.0
    } else {
        a as f64 / b as f64
    }
}

fn harmonic(p: f64, r: f64) -> f64 {
    if p + r == 0.0 {
        0.0
    } else {
        2.0 * p * r / (p + r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::model::*;
    use crate::storage::make_record;

    fn storage_from(specs: &[(u32, u64, &str)]) -> QueryStorage {
        let mut st = QueryStorage::new();
        for (i, (user, ts, sql)) in specs.iter().enumerate() {
            let stmt = sqlparse::parse(sql).ok();
            let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
            st.insert(make_record(
                QueryId(i as u64),
                UserId(*user),
                *ts,
                sql,
                stmt,
                feats,
                RuntimeFeatures {
                    success: true,
                    ..Default::default()
                },
                OutputSummary::None,
                SessionId(0),
                Visibility::Public,
            ));
        }
        st
    }

    #[test]
    fn splits_on_large_gaps() {
        let st = storage_from(&[
            (1, 0, "SELECT * FROM a"),
            (1, 60, "SELECT * FROM a WHERE x = 1"),
            (1, 100_000, "SELECT * FROM a WHERE x = 2"),
        ]);
        let cfg = CqmsConfig::default();
        let seg = segment_log(&st, &cfg);
        assert_eq!(seg[&QueryId(0)], seg[&QueryId(1)]);
        assert_ne!(seg[&QueryId(1)], seg[&QueryId(2)]);
    }

    #[test]
    fn the_walk_reproduces_the_logged_sessions() {
        let cfg = CqmsConfig::default();
        let idle = cfg.session_idle_gap_secs;
        let mut st = QueryStorage::new();
        let specs: [(u32, u64, &str); 7] = [
            (2, 0, "SELECT * FROM a"),
            (1, 0, "SELECT * FROM a"),
            (2, 100_000, "SELECT * FROM a WHERE x = 2"),
            (1, 2 * idle, "SELECT * FROM a"),
            // Back-dated before user 1's latest query: a new session.
            (1, idle, "SELECT * FROM a"),
            (1, 2 * idle, "SELECT b FROM c WHERE d = 1"),
            (2, 100_000 + idle, "SELECT * FROM a WHERE x = 3"),
        ];
        let mut continued = Vec::new();
        for (i, &(user, ts, sql)) in specs.iter().enumerate() {
            let stmt = sqlparse::parse(sql).ok();
            let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
            let record = make_record(
                QueryId(i as u64),
                UserId(user),
                ts,
                sql,
                stmt,
                feats,
                RuntimeFeatures::default(),
                OutputSummary::None,
                SessionId(u64::MAX),
                Visibility::Public,
            );
            continued.push(st.log_query(record, &cfg).map(|p| p.0));
        }
        assert_eq!(
            continued,
            [None, None, None, Some(1), None, Some(4), Some(2)]
        );
        let stored: HashMap<QueryId, SessionId> = st.iter().map(|r| (r.id, r.session)).collect();
        assert_eq!(segment_log(&st, &cfg), stored);
        assert_eq!(stored[&QueryId(4)], SessionId(3));
    }

    #[test]
    fn medium_gap_similar_queries_stay_together() {
        let cfg = CqmsConfig::default();
        let gap = cfg.session_idle_gap_secs + 60;
        let st = storage_from(&[
            (1, 0, "SELECT * FROM WaterTemp WHERE temp < 18"),
            (1, gap, "SELECT * FROM WaterTemp WHERE temp < 12"),
            // Different analysis after the same gap → split.
            (1, 2 * gap, "SELECT * FROM CityLocations WHERE pop > 5"),
        ]);
        let seg = segment_log(&st, &cfg);
        assert_eq!(seg[&QueryId(0)], seg[&QueryId(1)]);
        assert_ne!(seg[&QueryId(1)], seg[&QueryId(2)]);
    }

    #[test]
    fn users_never_share_sessions() {
        let st = storage_from(&[(1, 0, "SELECT * FROM a"), (2, 1, "SELECT * FROM a")]);
        let seg = segment_log(&st, &CqmsConfig::default());
        assert_ne!(seg[&QueryId(0)], seg[&QueryId(1)]);
    }

    #[test]
    fn quality_metrics_perfect_and_imperfect() {
        let order = vec![(
            UserId(1),
            vec![QueryId(0), QueryId(1), QueryId(2), QueryId(3)],
        )];
        let truth: HashMap<QueryId, u64> = [
            (QueryId(0), 0),
            (QueryId(1), 0),
            (QueryId(2), 1),
            (QueryId(3), 1),
        ]
        .into_iter()
        .collect();
        let perfect: HashMap<QueryId, SessionId> = [
            (QueryId(0), SessionId(5)),
            (QueryId(1), SessionId(5)),
            (QueryId(2), SessionId(9)),
            (QueryId(3), SessionId(9)),
        ]
        .into_iter()
        .collect();
        let q = segmentation_quality(&order, &truth, &perfect);
        assert_eq!(q.boundary_f1, 1.0);
        assert_eq!(q.pairwise_f1, 1.0);

        // Over-segmented: every query its own session.
        let over: HashMap<QueryId, SessionId> =
            (0..4).map(|i| (QueryId(i), SessionId(i))).collect();
        let q = segmentation_quality(&order, &truth, &over);
        assert!(q.boundary_precision < 1.0);
        assert_eq!(q.boundary_recall, 1.0);
        assert!(q.pairwise_f1 < 1.0);
    }
}
