//! Query clustering (§4.3) with k-medoids, plus external quality metrics.
//!
//! "By clustering queries, a CQMS can … provide better query recommendations
//! and similarity searching." k-medoids is chosen over k-means because the
//! only structure available is a pairwise distance (no vector-space mean of
//! parse trees exists). Deterministic: seeded farthest-first initialisation
//! plus bounded swap iterations. Served per call, viewer-scoped, by
//! [`crate::snapshot::ReadSnapshot::cluster_queries`] / `cluster_sessions`.

use crate::config::CqmsConfig;
use crate::model::{QueryId, QueryRecord, SessionId};
use crate::signature::SimSignature;
use crate::similarity::{feature_distance_disjoint, feature_distance_sig};
use crate::storage::QueryStorage;
use std::collections::HashMap;

/// A clustering of n items into k clusters.
#[derive(Debug, Clone)]
pub struct ClusteringResult {
    /// `assignment[i]` = cluster index of item i.
    pub assignment: Vec<usize>,
    /// Item index of each cluster's medoid.
    pub medoids: Vec<usize>,
    /// Sum of distances of items to their medoid.
    pub cost: f64,
}

/// k-medoids over a symmetric distance matrix (dense, row-major `n × n`).
pub fn kmedoids(dist: &[Vec<f64>], k: usize, max_iters: usize, seed: u64) -> ClusteringResult {
    let n = dist.len();
    if n == 0 || k == 0 {
        return ClusteringResult {
            assignment: Vec::new(),
            medoids: Vec::new(),
            cost: 0.0,
        };
    }
    let k = k.min(n);

    // Farthest-first init from a seeded start point.
    let mut medoids: Vec<usize> = Vec::with_capacity(k);
    medoids.push((seed as usize) % n);
    while medoids.len() < k {
        let far = (0..n)
            .filter(|i| !medoids.contains(i))
            .max_by(|&a, &b| {
                let da = medoids.iter().map(|&m| dist[a][m]).fold(f64::MAX, f64::min);
                let db = medoids.iter().map(|&m| dist[b][m]).fold(f64::MAX, f64::min);
                da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
            })
            .unwrap_or(0);
        medoids.push(far);
    }

    let assign = |medoids: &[usize]| -> (Vec<usize>, f64) {
        let mut assignment = vec![0usize; n];
        let mut cost = 0.0;
        for i in 0..n {
            let (ci, d) = medoids
                .iter()
                .enumerate()
                .map(|(ci, &m)| (ci, dist[i][m]))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .unwrap();
            assignment[i] = ci;
            cost += d;
        }
        (assignment, cost)
    };

    let (mut assignment, mut cost) = assign(&medoids);
    for _ in 0..max_iters {
        let mut improved = false;
        // For each cluster, try moving the medoid to the member minimising
        // intra-cluster distance (the "alternate" k-medoids step).
        for (c, medoid) in medoids.iter_mut().enumerate() {
            let members: Vec<usize> = (0..n).filter(|&i| assignment[i] == c).collect();
            if members.is_empty() {
                continue;
            }
            let best = members
                .iter()
                .copied()
                .min_by(|&a, &b| {
                    let da: f64 = members.iter().map(|&m| dist[a][m]).sum();
                    let db: f64 = members.iter().map(|&m| dist[b][m]).sum();
                    da.partial_cmp(&db).unwrap_or(std::cmp::Ordering::Equal)
                })
                .unwrap();
            if best != *medoid {
                *medoid = best;
                improved = true;
            }
        }
        if !improved {
            break;
        }
        let (a, co) = assign(&medoids);
        assignment = a;
        cost = co;
    }

    ClusteringResult {
        assignment,
        medoids,
        cost,
    }
}

/// `k`, or √(n/2) (at least 2) clusters of `n` items when `k = 0`.
pub fn auto_k(k: usize, n: usize) -> usize {
    if k > 0 {
        k
    } else {
        (((n as f64) / 2.0).sqrt().round() as usize).max(2)
    }
}

/// k-medoids over the symmetric `n × n` matrix of `d(i, j)` (one call per
/// pair), `k = 0` picking [`auto_k`].
#[allow(clippy::needless_range_loop)] // each pair fills both triangles
fn cluster(
    n: usize,
    k: usize,
    config: &CqmsConfig,
    d: impl Fn(usize, usize) -> f64,
) -> ClusteringResult {
    let mut dist = vec![vec![0.0f64; n]; n];
    for i in 0..n {
        for j in (i + 1)..n {
            let d = d(i, j);
            dist[i][j] = d;
            dist[j][i] = d;
        }
    }
    kmedoids(&dist, auto_k(k, n), config.cluster_max_iters, config.seed)
}

/// Cluster the queries `shown` admits by feature distance over their
/// signatures. Returns the ids in id order plus the clustering.
pub fn cluster_queries(
    storage: &QueryStorage,
    shown: impl Fn(&QueryRecord) -> bool,
    k: usize,
    config: &CqmsConfig,
) -> (Vec<QueryId>, ClusteringResult) {
    let (ids, sigs): (Vec<QueryId>, Vec<&SimSignature>) = (storage.iter())
        .zip(storage.signatures())
        .filter(|(r, _)| shown(r))
        .map(|(r, sig)| (r.id, sig.as_ref()))
        .unzip();
    let clustering = cluster(sigs.len(), k, config, |i, j| {
        // Bloom screen: disjoint blooms prove the feature sets disjoint,
        // collapsing the merge to the O(1) emptiness pattern
        // (bit-identical to the full merge).
        if sigs[i].feature_bloom & sigs[j].feature_bloom == 0 {
            feature_distance_disjoint(sigs[i], sigs[j], config)
        } else {
            feature_distance_sig(sigs[i], sigs[j], config)
        }
    });
    (ids, clustering)
}

/// Cluster whole *sessions* (§4.3: "if the CQMS clusters entire query
/// sessions, it can provide better services"). Each session is represented
/// by the union of the feature items of its queries `shown` admits (a
/// session with none is skipped); the distance is Jaccard. Returns the
/// session ids in matrix order plus the clustering.
pub fn cluster_sessions(
    storage: &QueryStorage,
    shown: impl Fn(&QueryRecord) -> bool,
    k: usize,
    config: &CqmsConfig,
) -> (Vec<SessionId>, ClusteringResult) {
    // Each session's item set is the union of its queries' interned
    // feature ids (signatures precompute these; the namespaced interner
    // keys are in bijection with the old `items()` string vocabulary, so
    // the Jaccard values are unchanged).
    let (sessions, item_sets): (Vec<SessionId>, Vec<Vec<u32>>) = storage
        .session_ids()
        .into_iter()
        .filter_map(|s| {
            let members = storage.session_members(s, &shown);
            let mut ids: Vec<u32> = (members.iter())
                .filter_map(|r| storage.signature(r.id))
                .flat_map(|sig| sig.feature_ids())
                .collect();
            ids.sort_unstable();
            ids.dedup();
            (!members.is_empty()).then_some((s, ids))
        })
        .unzip();
    // Session bloom = OR of the member blooms (bloom of a union is the OR
    // of the blooms): disjoint blooms prove disjoint item sets, so the
    // pair's Jaccard is exactly 1.0 (0.0 when both sets are empty) with
    // no merge at all.
    let blooms: Vec<u64> = item_sets
        .iter()
        .map(|ids| crate::signature::bloom64(ids.iter().copied()))
        .collect();
    let clustering = cluster(sessions.len(), k, config, |i, j| {
        if blooms[i] & blooms[j] != 0 {
            crate::signature::jaccard_ids(&item_sets[i], &item_sets[j])
        } else if item_sets[i].is_empty() && item_sets[j].is_empty() {
            0.0
        } else {
            1.0
        }
    });
    (sessions, clustering)
}

/// Cluster purity against ground-truth labels: fraction of items whose
/// cluster's majority label matches their own.
pub fn purity(assignment: &[usize], truth: &[u64]) -> f64 {
    assert_eq!(assignment.len(), truth.len());
    if assignment.is_empty() {
        return 1.0;
    }
    let mut per_cluster: HashMap<usize, HashMap<u64, usize>> = HashMap::new();
    for (&c, &t) in assignment.iter().zip(truth) {
        *per_cluster.entry(c).or_default().entry(t).or_insert(0) += 1;
    }
    let correct: usize = per_cluster
        .values()
        .map(|counts| counts.values().copied().max().unwrap_or(0))
        .sum();
    correct as f64 / assignment.len() as f64
}

/// Adjusted Rand Index between a clustering and ground-truth labels.
pub fn adjusted_rand_index(assignment: &[usize], truth: &[u64]) -> f64 {
    assert_eq!(assignment.len(), truth.len());
    let n = assignment.len();
    if n < 2 {
        return 1.0;
    }
    let mut contingency: HashMap<(usize, u64), u64> = HashMap::new();
    let mut a_sizes: HashMap<usize, u64> = HashMap::new();
    let mut b_sizes: HashMap<u64, u64> = HashMap::new();
    for (&a, &b) in assignment.iter().zip(truth) {
        *contingency.entry((a, b)).or_insert(0) += 1;
        *a_sizes.entry(a).or_insert(0) += 1;
        *b_sizes.entry(b).or_insert(0) += 1;
    }
    let choose2 = |x: u64| -> f64 { (x as f64) * (x as f64 - 1.0) / 2.0 };
    let sum_ij: f64 = contingency.values().map(|&v| choose2(v)).sum();
    let sum_a: f64 = a_sizes.values().map(|&v| choose2(v)).sum();
    let sum_b: f64 = b_sizes.values().map(|&v| choose2(v)).sum();
    let total = choose2(n as u64);
    let expected = sum_a * sum_b / total;
    let max_index = 0.5 * (sum_a + sum_b);
    if (max_index - expected).abs() < 1e-12 {
        return 1.0;
    }
    (sum_ij - expected) / (max_index - expected)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs on a line.
    fn blob_distances() -> (Vec<Vec<f64>>, Vec<u64>) {
        let points: Vec<f64> = vec![0.0, 0.1, 0.2, 10.0, 10.1, 10.2];
        let truth = vec![0, 0, 0, 1, 1, 1];
        let n = points.len();
        let mut dist = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in 0..n {
                dist[i][j] = (points[i] - points[j]).abs();
            }
        }
        (dist, truth)
    }

    #[test]
    fn recovers_separated_blobs() {
        let (dist, truth) = blob_distances();
        let r = kmedoids(&dist, 2, 20, 3);
        assert_eq!(purity(&r.assignment, &truth), 1.0);
        assert!((adjusted_rand_index(&r.assignment, &truth) - 1.0).abs() < 1e-9);
        // All of blob A together, all of blob B together.
        assert_eq!(r.assignment[0], r.assignment[1]);
        assert_eq!(r.assignment[3], r.assignment[4]);
        assert_ne!(r.assignment[0], r.assignment[3]);
    }

    #[test]
    fn deterministic_given_seed() {
        let (dist, _) = blob_distances();
        let a = kmedoids(&dist, 2, 20, 7);
        let b = kmedoids(&dist, 2, 20, 7);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.medoids, b.medoids);
    }

    #[test]
    fn k_clamped_to_n() {
        let (dist, _) = blob_distances();
        let r = kmedoids(&dist, 100, 5, 0);
        assert_eq!(r.medoids.len(), 6);
    }

    #[test]
    fn empty_input() {
        let r = kmedoids(&[], 3, 5, 0);
        assert!(r.assignment.is_empty());
        assert_eq!(purity(&[], &[]), 1.0);
    }

    #[test]
    fn ari_is_low_for_random_labels() {
        // Alternating assignment against blob truth.
        let truth = vec![0, 0, 0, 1, 1, 1];
        let bad = vec![0, 1, 0, 1, 0, 1];
        let ari = adjusted_rand_index(&bad, &truth);
        assert!(ari < 0.2, "{ari}");
        let p = purity(&bad, &truth);
        assert!(p < 0.9);
    }

    #[test]
    fn cost_decreases_with_more_clusters() {
        let (dist, _) = blob_distances();
        let c1 = kmedoids(&dist, 1, 20, 0).cost;
        let c2 = kmedoids(&dist, 2, 20, 0).cost;
        assert!(c2 < c1);
    }
}
