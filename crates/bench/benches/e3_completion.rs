//! E3 — completion suggestion latency (Figure 3's dropdown must appear as
//! the user types; §1: "it must provide hints and recommendations
//! interactively").

use cqms_bench::logged_cqms;
use criterion::{criterion_group, criterion_main, Criterion};
use workload::Domain;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e3_completion");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let lc = logged_cqms(Domain::Lakes, 2000, 0xE3);
    let user = lc.users[0];
    let snap = lc.cqms.capture_snapshot(0);
    group.bench_function("table_context_aware", |b| {
        b.iter(|| {
            snap.complete(user, "SELECT * FROM WaterSalinity, ", 5)
                .len()
        })
    });
    group.bench_function("predicate", |b| {
        b.iter(|| {
            snap.complete(user, "SELECT * FROM WaterTemp WHERE ", 5)
                .len()
        })
    });
    group.bench_function("attribute_prefix", |b| {
        b.iter(|| snap.complete(user, "SELECT te", 5).len())
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
