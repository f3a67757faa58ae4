//! E8 — query clustering throughput (§4.3): one clustering read
//! (`ReadSnapshot::cluster_queries`: the O(n²) distance matrix and
//! k-medoids) on a captured snapshot, plus a signature-vs-legacy
//! comparison of the distance-matrix inner loop itself (the read's hot
//! path): interned-id merges over precomputed signatures against the
//! seed's per-pair `HashSet`-materialising feature distance.

use cqms_bench::logged_cqms;
use cqms_core::model::QueryRecord;
use cqms_core::signature::SimSignature;
use cqms_core::similarity;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::Domain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e8_clustering");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(3));
    for &size in &[200usize, 500] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE8);
        let snap = lc.cqms.capture_snapshot(0);
        group.bench_with_input(BenchmarkId::new("cluster_queries", size), &size, |b, _| {
            b.iter(|| snap.cluster_queries(lc.users[0], 0).1.medoids.len())
        });
    }

    // Signature-vs-legacy distance matrix at 500 queries.
    let lc = logged_cqms(Domain::Lakes, 500, 0xE8);
    let cfg = &lc.cqms.config;
    let records: Vec<&QueryRecord> = lc.cqms.storage.iter_live().collect();
    let sigs: Vec<&SimSignature> = records
        .iter()
        .map(|r| lc.cqms.storage.signature(r.id).unwrap())
        .collect();
    let n = records.len();
    group.bench_with_input(
        BenchmarkId::new("distance_matrix_legacy", n),
        &n,
        |b, &n| {
            b.iter(|| {
                let mut acc = 0.0f64;
                for i in 0..n {
                    for j in (i + 1)..n {
                        acc += similarity::feature_distance(records[i], records[j], cfg);
                    }
                }
                acc
            })
        },
    );
    group.bench_with_input(BenchmarkId::new("distance_matrix_sig", n), &n, |b, &n| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for i in 0..n {
                for j in (i + 1)..n {
                    acc += similarity::feature_distance_sig(sigs[i], sigs[j], cfg);
                }
            }
            acc
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
