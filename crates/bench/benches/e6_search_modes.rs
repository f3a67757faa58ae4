//! E6 — meta-query latency by search mode (§2.2/§4.2): keyword vs substring
//! vs parse-tree vs feature SQL on the same 2000-query log.

use cqms_bench::logged_cqms;
use cqms_core::metaquery::{TreePattern, FIGURE1_META_QUERY};
use criterion::{criterion_group, criterion_main, Criterion};
use workload::Domain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e6_search_modes");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let lc = logged_cqms(Domain::Lakes, 2000, 0xE6);
    let user = lc.users[0];
    let snap = lc.cqms.capture_snapshot(0);
    group.bench_function("keyword", |b| {
        b.iter(|| snap.search_keyword(user, "salinity temp", 10).len())
    });
    group.bench_function("substring", |b| {
        b.iter(|| snap.search_substring(user, "temp < 1").len())
    });
    let tree = TreePattern {
        tables_all: vec!["watersalinity".into()],
        ..Default::default()
    };
    group.bench_function("parse_tree", |b| {
        b.iter(|| snap.search_parse_tree(user, &tree).len())
    });
    group.bench_function("feature_sql", |b| {
        b.iter(|| {
            snap.search_feature_sql(user, FIGURE1_META_QUERY)
                .unwrap()
                .rows
                .len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
