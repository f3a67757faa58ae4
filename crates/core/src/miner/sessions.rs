//! Offline session segmentation (§2.2: "query sessions should be
//! automatically identified") and its evaluation against planted truth.

use crate::config::CqmsConfig;
use crate::model::{QueryId, SessionId, UserId};
use crate::similarity;
use crate::storage::QueryStorage;
use std::collections::{HashMap, HashSet};

/// Segment the whole log per user (tombstones included), returning a
/// session for every record: the miner's refined view, which the server
/// adopts over the profiler's online assignment.
///
/// Heuristic: order each user's queries by time (ties by id); a new
/// session starts when the idle gap exceeds the threshold *and* the
/// queries are dissimilar, or when the gap exceeds 3× the threshold
/// regardless. The feature distance is computed only for gaps in
/// between, over the stored signatures.
///
/// Ids are stable: a refined session keeps the id its first member
/// already carries, unless an earlier session of this pass (users in id
/// order) claimed that id; then it takes a fresh id, counting up from the
/// storage's next unused one. A record assigned a session other than its
/// current one was therefore re-decided, and an unchanged log refines to
/// exactly its current ids.
pub fn segment_log(storage: &QueryStorage, config: &CqmsConfig) -> HashMap<QueryId, SessionId> {
    let mut assignment = HashMap::with_capacity(storage.len());
    segment(storage, config, |id, _, session| {
        assignment.insert(id, session);
    });
    assignment
}

/// The records [`segment_log`] moves to another session, each with its
/// new session, in ascending id order: what an epoch adopts. An unchanged
/// log yields nothing.
pub fn session_changes(storage: &QueryStorage, config: &CqmsConfig) -> Vec<(QueryId, SessionId)> {
    let mut changes = Vec::new();
    segment(storage, config, |id, carried, session| {
        if session != carried {
            changes.push((id, session));
        }
    });
    changes.sort_unstable();
    changes
}

/// The one segmentation pass: calls `assign(id, carried, refined)` for
/// every record, with the session it carries and the one the rule gives.
fn segment(
    storage: &QueryStorage,
    config: &CqmsConfig,
    mut assign: impl FnMut(QueryId, SessionId, SessionId),
) {
    let mut log: Vec<(UserId, u64, QueryId, SessionId)> = (storage.iter())
        .map(|r| (r.user, r.ts, r.id, r.session))
        .collect();
    log.sort_unstable();
    let signatures = storage.signatures();
    let idle = config.session_idle_gap_secs;
    let mut claimed: HashSet<SessionId> = HashSet::new();
    let mut fresh = storage.next_session().0;
    let mut current = SessionId(0);
    let mut prev: Option<(UserId, u64, QueryId)> = None;
    for &(user, ts, id, carried) in &log {
        let new_session = match prev {
            Some((prev_user, prev_ts, prev_id)) if prev_user == user => {
                let gap = ts - prev_ts;
                gap > 3 * idle
                    || (gap > idle && {
                        let sig =
                            |id: QueryId| &**signatures.get(id.0 as usize).expect("dense ids");
                        similarity::feature_distance_sig(sig(prev_id), sig(id), config)
                            > config.session_similarity_threshold
                    })
            }
            _ => true,
        };
        if new_session {
            current = if claimed.insert(carried) {
                carried
            } else {
                fresh += 1;
                SessionId(fresh - 1)
            };
        }
        assign(id, carried, current);
        prev = Some((user, ts, id));
    }
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
    fn changes_are_the_moved_records_in_id_order() {
        let st = storage_from(&[
            (2, 0, "SELECT * FROM a"),
            (1, 0, "SELECT * FROM a"),
            (2, 100_000, "SELECT * FROM a WHERE x = 2"),
            (1, 100_000, "SELECT * FROM a WHERE x = 1"),
        ]);
        let cfg = CqmsConfig::default();
        let seg = segment_log(&st, &cfg);
        let mut moved: Vec<(QueryId, SessionId)> = (seg.into_iter())
            .filter(|(id, s)| st.get(*id).unwrap().session != *s)
            .collect();
        moved.sort_unstable();
        assert_eq!(moved.len(), 3);
        assert_eq!(session_changes(&st, &cfg), moved);
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
