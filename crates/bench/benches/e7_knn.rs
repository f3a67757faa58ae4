//! E7 — kNN recommendation latency by similarity metric (§4.2: kNN
//! meta-queries must be interactive; A3 ablation across distance kinds),
//! plus a store-size axis (500/2000) for the indexed/pruned metrics:
//! Features and Combined via the feature-class sweep, TreeEdit via
//! the VP-tree metric index, ParseTree via the registry's
//! profile-fingerprint group sweep — all should grow far slower than the
//! log. Two registry axes ride along: `store_ParseTree_dup` grows the
//! store 4× with *duplicate* statements (groups — and therefore
//! per-probe bound work — stay constant), and `rebuild_while_probing`
//! measures TreeEdit/ParseTree probe latency while a background thread
//! continuously forces double-buffered generation rebuilds through the
//! service layer (probes keep serving the published generation; only
//! the brief publish swap can delay them).
//!
//! After the timed axes, the cheap-bound effectiveness counters of the
//! tree metrics are reported as `bound_hit_rate/...` lines (and appended
//! to `CQMS_BENCH_JSON` when set).

use cqms_bench::logged_cqms;
use cqms_core::service::CqmsService;
use cqms_core::similarity::DistanceKind;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use workload::Domain;

const PROBE: &str = "SELECT * FROM WaterSalinity S, WaterTemp T \
                     WHERE S.loc_x = T.loc_x AND T.temp < 18";

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e7_knn");
    group
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(2));
    let lc = logged_cqms(Domain::Lakes, 1000, 0xE7);
    let user = lc.users[0];
    let snap = lc.cqms.capture_snapshot(0);
    for metric in [
        DistanceKind::Features,
        DistanceKind::ParseTree,
        DistanceKind::TreeEdit,
        DistanceKind::Output,
        DistanceKind::Combined,
    ] {
        group.bench_with_input(
            BenchmarkId::new("metric", format!("{metric:?}")),
            &metric,
            |b, &m| b.iter(|| snap.similar_queries(user, PROBE, 5, m).unwrap().len()),
        );
    }
    // Cheap-bound hit rates at the 1000-query store, accumulated over the
    // metric axis above: fraction of considered pairs a bound disposed of
    // without running the exact tree metric.
    let stats = lc.cqms.storage.metric_stats();
    report_rate("e7_knn/bound_hit_rate/TreeEdit", stats.tree_edit.hit_rate());
    report_rate(
        "e7_knn/bound_hit_rate/ParseTree",
        stats.parse_tree.hit_rate(),
    );

    // Store-size axis for the indexed/pruned metrics: the asymptotic win
    // shows as sub-linear growth from 500 → 2000 logged queries.
    for &size in &[500usize, 2000] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE7);
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        for metric in [
            DistanceKind::Features,
            DistanceKind::Combined,
            DistanceKind::TreeEdit,
            DistanceKind::ParseTree,
        ] {
            group.bench_with_input(
                BenchmarkId::new(format!("store_{metric:?}"), size),
                &metric,
                |b, &m| b.iter(|| snap.similar_queries(user, PROBE, 5, m).unwrap().len()),
            );
        }
    }

    // Duplicate-template store axis: the 2000-store is the 500-store's
    // trace replayed 4× — identical statements, so the number of
    // profile-fingerprint groups (and the ParseTree probe's bound work)
    // stays fixed while the record count quadruples.
    for &(size, replays) in &[(500usize, 0usize), (2000, 3)] {
        let mut lc = logged_cqms(Domain::Lakes, 500, 0xE7);
        for _ in 0..replays {
            let queries: Vec<(u32, String, u64)> = lc
                .trace
                .queries
                .iter()
                .map(|q| (q.user, q.sql.clone(), q.ts))
                .collect();
            for (u, sql, ts) in queries {
                let user = lc.users[u as usize % lc.users.len()];
                let _ = lc.cqms.run_query_at(user, &sql, ts);
            }
        }
        // Steady state again after the growth.
        lc.cqms.storage.schedule_index_rebuild();
        lc.cqms.storage.run_index_maintenance();
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        group.bench_with_input(
            BenchmarkId::new("store_ParseTree_dup", size),
            &size,
            |b, _| {
                b.iter(|| {
                    snap.similar_queries(user, PROBE, 5, DistanceKind::ParseTree)
                        .unwrap()
                        .len()
                })
            },
        );
    }

    // Rebuild-while-probing axis: tree-metric probes racing continuously
    // forced generation rebuilds (the stop-the-world case this PR
    // removes — probes now only ever read a published generation).
    {
        let lc = logged_cqms(Domain::Lakes, 1000, 0xE7);
        let user = lc.users[0];
        let svc = CqmsService::new(lc.cqms);
        let stop = Arc::new(AtomicBool::new(false));
        let rebuilder = {
            let svc = svc.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut rebuilds = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    svc.write(|c| c.storage.schedule_index_rebuild());
                    if svc.rebuild_indexes() {
                        rebuilds += 1;
                    }
                }
                rebuilds
            })
        };
        for metric in [DistanceKind::TreeEdit, DistanceKind::ParseTree] {
            group.bench_with_input(
                BenchmarkId::new("rebuild_while_probing", format!("{metric:?}")),
                &metric,
                |b, &m| {
                    b.iter(|| {
                        svc.snapshot()
                            .similar_queries(user, PROBE, 5, m)
                            .unwrap()
                            .len()
                    })
                },
            );
        }
        stop.store(true, Ordering::Relaxed);
        let rebuilds = rebuilder.join().expect("rebuilder thread panicked");
        assert!(rebuilds > 0, "no rebuild raced the probes");
        report_rate("e7_knn/rebuild_while_probing/rebuilds", rebuilds as f64);
        report_rate(
            "e7_knn/rebuild_while_probing/final_generation",
            svc.snapshot().index_generation() as f64,
        );
    }
    group.finish();
}

/// Print a counter line and append it to `CQMS_BENCH_JSON` (same sink the
/// criterion shim writes timing lines to).
fn report_rate(id: &str, rate: f64) {
    println!("{id:<50} rate {rate:.4}");
    if let Ok(path) = std::env::var("CQMS_BENCH_JSON") {
        if let Ok(mut f) = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
        {
            let _ = writeln!(f, "{{\"id\": \"{id}\", \"value\": {rate:.4}}}");
        }
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
