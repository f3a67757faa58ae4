//! What one logged query costs in resident memory.
//!
//! The CQMS keeps every profiled query — its text, features, signature,
//! index entries and (at the default profiling depth) its output summary
//! — so resident bytes per record decide how much history one shard
//! holds. This test logs the first [`RECORDS`] queries of a Lakes pool
//! (scale 300, 32 analysts, the benchmark's pool seed) into a RAM `Cqms`
//! and bounds the growth of the process's `VmRSS` per record.
//!
//! On x86-64 Linux with glibc 2.36 a logged query measures ≈ 8.0 KiB in
//! release builds. Keeping each query's parsed statement in its record,
//! and each session edge's edit script beside it, measured ≈ 10.2 KiB
//! (10.19–10.86 KiB under glibc's malloc tunables: huge pages, trim and
//! mmap thresholds, no tcache, one arena); a second copy of each query's
//! features on top of that ≈ 11.96 KiB, and the layout before, with
//! nested-vector summaries, feature-row names per row and a private tree
//! and folded SELECT per signature, ≈ 16.4 KiB. The bound sits between
//! the first two, ≈ 14 % above the one and 10 % below the other: another
//! glibc or page-fault pattern has room, and a return to a stored parse
//! still fails.
#![cfg(target_os = "linux")]

use cqms_core::model::UserId;
use cqms_core::{Cqms, CqmsConfig};
use workload::{Domain, Trace, TraceConfig};

/// Queries logged.
const RECORDS: usize = 2560;

/// Bound on `VmRSS` growth per logged query, in KiB.
const MAX_KIB_PER_RECORD: f64 = 9.2;

/// This process's resident set, in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status
        .lines()
        .find(|l| l.starts_with("VmRSS:"))
        .expect("VmRSS line");
    line.split_whitespace()
        .nth(1)
        .and_then(|kib| kib.parse().ok())
        .expect("VmRSS in kB")
}

#[test]
fn a_logged_query_costs_at_most_its_bound_in_resident_memory() {
    let trace = Trace::generate(TraceConfig {
        domain: Domain::Lakes,
        data_scale: 300,
        users: 32,
        sessions: (RECORDS / 5 + 8) as u32,
        session_len: 5,
        seed: 0xC1D2_2009,
    });
    assert!(trace.queries.len() >= RECORDS);
    let mut cqms = Cqms::new(trace.build_engine(), CqmsConfig::default());
    let users: Vec<UserId> = (0..trace.config.users)
        .map(|i| cqms.register_user(&format!("analyst-{i}")))
        .collect();
    let before = vm_rss_kib();
    for q in &trace.queries[..RECORDS] {
        cqms.run_query_at(users[q.user as usize], &q.sql, q.ts)
            .expect("a generated query logs");
    }
    let after = vm_rss_kib();
    assert_eq!(cqms.storage.len(), RECORDS);
    let per_record = after.saturating_sub(before) as f64 / RECORDS as f64;
    println!("VmRSS growth: {per_record:.2} KiB per logged query");
    assert!(
        per_record <= MAX_KIB_PER_RECORD,
        "a logged query costs {per_record:.2} KiB of resident memory, \
         over the {MAX_KIB_PER_RECORD} KiB bound"
    );
}
