//! E5 — query-by-data latency (§2.2): matching positive/negative example
//! tuples against stored output summaries.

use cqms_bench::logged_cqms_with;
use cqms_core::CqmsConfig;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use workload::Domain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e5_query_by_data");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    for &size in &[500usize, 2000] {
        // Exhaustive summaries.
        let cfg = CqmsConfig {
            full_output_min_rows: 10_000,
            ..CqmsConfig::default()
        };
        let lc = logged_cqms_with(Domain::Lakes, size, 0xE5, cfg);
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        group.bench_with_input(BenchmarkId::new("summary_match", size), &size, |b, _| {
            b.iter(|| {
                snap.search_by_data(user, &["Lake Washington"], &["Lake Union"])
                    .len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
