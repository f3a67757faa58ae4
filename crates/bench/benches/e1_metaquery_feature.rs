//! E1 — Figure 1 meta-query latency (query-by-feature over the feature
//! relations) as the query log grows. Regenerates the latency column of the
//! E1 table in EXPERIMENTS.md; the paper's claim under test is §4.2's
//! "meta-querying must be interactive".

use cqms_bench::logged_cqms;
use cqms_core::metaquery::FIGURE1_META_QUERY;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::Domain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e1_figure1_metaquery");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    for &size in &[500usize, 2000] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE1);
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        group.bench_with_input(BenchmarkId::new("feature_sql", size), &size, |b, _| {
            b.iter(|| {
                snap.search_feature_sql(user, FIGURE1_META_QUERY)
                    .unwrap()
                    .rows
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
