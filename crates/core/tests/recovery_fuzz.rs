//! Deterministic recovery fuzzer (PR 9 acceptance): proptest-driven
//! bit-flips, truncations and garbage overwrites against WAL segments and
//! snapshot files, proving that [`cqms_core::wal::open_dir`]:
//!
//! 1. **never panics** on corrupted input — every case returns through
//!    `Result`;
//! 2. **never double-applies** — a second open of the cleaned-up
//!    directory reproduces the exact same state with zero further loss;
//! 3. recovers a state equal to the oracle prefix `ops[..max_lsn]` —
//!    salvage may drop a suffix or skip snapshot-covered frames, but it
//!    never invents, reorders, or half-applies operations;
//! 4. accounts for every acknowledged-and-synced frame it failed to
//!    recover: if the recovered prefix is short, the report must show the
//!    loss (`frames_lost` / `bytes_quarantined` for mid-log corruption,
//!    `torn_bytes_truncated` for a damaged tail) — except for the one
//!    physically undetectable case, a *segment* truncation landing
//!    exactly on a frame boundary, which only a generated `Truncate` can
//!    produce. Snapshots have no such case: one that lost its CRC trailer
//!    is rejected like any other corrupt snapshot.
//!
//! The fuzzer drives the wal layer directly (hand-encoded frames, explicit
//! segment splits, optional snapshot) so the oracle is exact: one frame is
//! one LSN is one logical op.

use cqms_core::features::extract;
use cqms_core::model::{
    OutputSummary, QueryId, QueryRecord, RuntimeFeatures, SessionId, UserId, Visibility,
};
use cqms_core::storage::{make_record, QueryStorage};
use cqms_core::wal::{apply_op, encode_frame, open_dir, write_snapshot_file, InsertFrame, WalOp};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh scratch directory per case (unique across threads and cases).
fn case_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let n = COUNTER.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "cqms-recovery-fuzz-{tag}-{}-{n}",
        std::process::id()
    ))
}

fn record(id: u64, sql: &str) -> QueryRecord {
    let stmt = sqlparse::parse(sql).ok();
    let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
    make_record(
        QueryId(id),
        UserId(1 + (id % 3) as u32),
        1_000 + id * 60,
        sql,
        stmt,
        feats,
        RuntimeFeatures {
            elapsed_us: 500,
            cardinality: 3,
            success: true,
            ..RuntimeFeatures::default()
        },
        OutputSummary::None,
        SessionId(id / 4),
        Visibility::Public,
    )
}

const SQLS: &[&str] = &[
    "SELECT * FROM WaterTemp",
    "SELECT * FROM Lakes WHERE area > 4",
    "SELECT * FROM WaterSalinity WHERE salinity < 30",
    "SELECT * FROM CityLocations",
];

/// One generated logical op; each becomes exactly one WAL frame.
#[derive(Debug, Clone)]
enum FuzzOp {
    Insert,
    Hide { pick: usize, vis: u8 },
    Delete { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = FuzzOp> {
    prop_oneof![
        5 => Just(FuzzOp::Insert),
        2 => (0usize..64, 0u8..3).prop_map(|(pick, vis)| FuzzOp::Hide { pick, vis }),
        1 => (0usize..64).prop_map(|pick| FuzzOp::Delete { pick }),
    ]
}

/// One generated corruption. Offsets/lengths are fractions (0..=10_000 of
/// the target file's size) because file sizes are unknown at generation
/// time; `pick` selects the target file mod the directory listing.
#[derive(Debug, Clone)]
enum Corruption {
    BitFlip { pick: usize, frac: u64, bit: u8 },
    Truncate { pick: usize, frac: u64 },
    Garbage { pick: usize, frac: u64, len: usize },
}

fn corruption_strategy() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        3 => (0usize..16, 0u64..=10_000, 0u8..8)
            .prop_map(|(pick, frac, bit)| Corruption::BitFlip { pick, frac, bit }),
        2 => (0usize..16, 0u64..=10_000)
            .prop_map(|(pick, frac)| Corruption::Truncate { pick, frac }),
        2 => (0usize..16, 0u64..=10_000, 1usize..=8)
            .prop_map(|(pick, frac, len)| Corruption::Garbage { pick, frac, len }),
    ]
}

/// Turn the generated ops into concrete `WalOp` frames. `Hide`/`Delete`
/// with no prior insert degrade to `Insert` so every frame is applicable
/// and the oracle prefix is exact.
fn materialize(ops: &[FuzzOp]) -> Vec<WalOp> {
    let mut out = Vec::with_capacity(ops.len());
    let mut inserted = 0u64;
    for op in ops {
        let wal_op = match op {
            FuzzOp::Hide { pick, vis } if inserted > 0 => WalOp::SetVisibility {
                id: QueryId(*pick as u64 % inserted),
                visibility: match vis {
                    0 => Visibility::Public,
                    1 => Visibility::Private,
                    _ => Visibility::Group(cqms_core::model::GroupId(0)),
                },
            },
            FuzzOp::Delete { pick } if inserted > 0 => WalOp::Tombstone {
                id: QueryId(*pick as u64 % inserted),
            },
            _ => {
                let id = inserted;
                inserted += 1;
                WalOp::Insert(Box::new(InsertFrame::of(&record(
                    id,
                    SQLS[id as usize % SQLS.len()],
                ))))
            }
        };
        out.push(wal_op);
    }
    out
}

/// Canonical observable state: one sorted line per stored record.
fn canonical(storage: &QueryStorage) -> Vec<String> {
    let mut out: Vec<String> = (0..storage.len())
        .map(|q| {
            let r = storage.get(QueryId(q as u64)).expect("dense ids");
            format!(
                "u{} {:?} {:?} {}",
                r.user.0, r.visibility, r.validity, r.raw_sql
            )
        })
        .collect();
    out.sort();
    out
}

/// Oracle states: `prefix[i]` is the canonical state after applying the
/// first `i` frames (`prefix[0]` is empty).
fn oracle_prefixes(wal_ops: &[WalOp]) -> Vec<Vec<String>> {
    let mut storage = QueryStorage::new();
    let mut prefixes = vec![canonical(&storage)];
    for op in wal_ops {
        apply_op(&mut storage, op, None).expect("oracle replay");
        prefixes.push(canonical(&storage));
    }
    prefixes
}

/// Every corruptible file currently in `dir` (WAL segments + snapshots),
/// sorted for determinism. Quarantine contents are excluded.
fn corruptible_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            p.is_file()
                && p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("wal-") || n.starts_with("snapshot-"))
        })
        .collect();
    files.sort();
    files
}

/// Apply one corruption and report whether it truncated its file — the
/// only wound that can destroy synced data without leaving evidence (a
/// segment cut at a frame boundary) or quarantine nothing (a snapshot cut
/// to zero bytes).
fn corrupt(files: &[PathBuf], c: &Corruption) -> bool {
    let pick = match c {
        Corruption::BitFlip { pick, .. }
        | Corruption::Truncate { pick, .. }
        | Corruption::Garbage { pick, .. } => *pick,
    };
    let path = &files[pick % files.len()];
    let len = std::fs::metadata(path).expect("stat").len();
    if len == 0 {
        return false;
    }
    match c {
        Corruption::BitFlip { frac, bit, .. } => {
            let mut bytes = std::fs::read(path).expect("read");
            let off = (frac * (len - 1) / 10_000) as usize;
            bytes[off] ^= 1 << bit;
            std::fs::write(path, bytes).expect("write back");
            false
        }
        Corruption::Truncate { frac, .. } => {
            let new_len = frac * (len - 1) / 10_000;
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(path)
                .expect("open");
            f.set_len(new_len).expect("truncate");
            true
        }
        Corruption::Garbage {
            frac, len: glen, ..
        } => {
            let mut bytes = std::fs::read(path).expect("read");
            let off = (frac * (len - 1) / 10_000) as usize;
            let end = (off + glen).min(bytes.len());
            for b in &mut bytes[off..end] {
                *b = 0xAA;
            }
            std::fs::write(path, bytes).expect("write back");
            false
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fuzzer proper. Builds a known-good durable directory (frames
    /// split across segments, optional covering snapshot), wounds it with
    /// generated corruptions, then checks the recovery contract.
    #[test]
    fn corrupted_open_recovers_exact_prefix_or_reports_loss(
        ops in proptest::collection::vec(op_strategy(), 1..20),
        corruptions in proptest::collection::vec(corruption_strategy(), 1..5),
        splits in proptest::collection::vec(0usize..64, 0..3),
        snapshot_frac in proptest::option::of(0u64..=10_000),
    ) {
        let dir = case_dir("open");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        let wal_ops = materialize(&ops);
        let n = wal_ops.len() as u64;
        let prefixes = oracle_prefixes(&wal_ops);

        // Lay the frames out across 1..=3 segments at generated split
        // points; each segment file is named after its first LSN.
        let mut cuts: Vec<usize> =
            splits.iter().map(|s| s % wal_ops.len()).filter(|&s| s > 0).collect();
        cuts.sort_unstable();
        cuts.dedup();
        cuts.push(wal_ops.len());
        let mut start = 0usize;
        for &end in &cuts {
            if end <= start {
                continue;
            }
            let mut buf = Vec::new();
            for (i, op) in wal_ops[start..end].iter().enumerate() {
                encode_frame(&mut buf, (start + i) as u64 + 1, op);
            }
            let first_lsn = start as u64 + 1;
            std::fs::write(dir.join(format!("wal-{first_lsn:020}.log")), &buf)
                .expect("write segment");
            start = end;
        }

        // Optional snapshot covering a prefix: recovery must skip the
        // covered frames and resume replay past the horizon.
        if let Some(frac) = snapshot_frac {
            let horizon = frac * n / 10_000;
            let mut storage = QueryStorage::new();
            for op in &wal_ops[..horizon as usize] {
                apply_op(&mut storage, op, None).expect("snapshot build");
            }
            let mut body = Vec::new();
            storage.snapshot(&mut body).expect("snapshot body");
            write_snapshot_file(&dir, horizon, &body, false).expect("snapshot file");
        }

        // Wound the directory.
        let files = corruptible_files(&dir);
        prop_assert!(!files.is_empty(), "directory always has a segment");
        let mut any_truncation = false;
        for c in &corruptions {
            any_truncation |= corrupt(&files, c);
        }

        // Contract 1: open never panics and never errors on corrupt data.
        let recovered = open_dir(&dir, false, None).expect("open_dir survives corruption");
        let report = recovered.report.clone();

        let state = canonical(&recovered.storage);

        // Contract 3: with every frame that replayed accounted for, the
        // state is *exactly* the oracle prefix at max_lsn — nothing
        // invented, nothing half-applied, nothing reordered, wounded
        // snapshots included. Failed frames (reported!) relax this to
        // the stability checks below.
        prop_assert!(report.max_lsn <= n, "cannot recover frames never written");
        if report.frames_failed == 0 {
            prop_assert_eq!(
                &state,
                &prefixes[report.max_lsn as usize],
                "recovered state must equal the oracle prefix at lsn {}", report.max_lsn
            );
        }

        // Contract 4: a short prefix must be accounted for in the report
        // (`frames_lost`/`bytes_quarantined`, a torn tail, or failed
        // frames). The only silent case is a truncation landing exactly
        // on a frame boundary — physically indistinguishable from a
        // shorter clean log, and only a Truncate corruption produces it.
        if report.max_lsn < n
            && !report.lossy()
            && report.torn_bytes_truncated == 0
            && report.frames_failed == 0
        {
            prop_assert!(
                any_truncation,
                "silent prefix loss without a boundary truncation (max_lsn {} < {})",
                report.max_lsn, n
            );
        }
        // And conversely: a full clean recovery may not claim lost frames.
        if report.max_lsn == n {
            prop_assert_eq!(report.frames_lost, 0, "full recovery cannot lose frames");
        }
        drop(recovered);

        // Contract 2: reopening the healed directory is clean (no further
        // loss of any kind) and reproduces the identical state — salvage
        // is convergent and nothing is double-applied.
        let second = open_dir(&dir, false, None).expect("second open is clean");
        prop_assert_eq!(second.report.frames_lost, 0, "second open loses nothing");
        prop_assert_eq!(second.report.bytes_quarantined, 0, "nothing left to quarantine");
        prop_assert_eq!(second.report.torn_bytes_truncated, 0, "no torn tail remains");
        prop_assert_eq!(second.report.max_lsn, report.max_lsn, "the prefix is stable");
        prop_assert_eq!(
            canonical(&second.storage),
            state,
            "second open reproduces the same state"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Snapshot-targeted variant: corrupt *only* snapshot files of a
    /// directory whose log was then truncated away, so recovery must
    /// either read a snapshot or fall back across quarantined ones. The
    /// CRC trailer turns silent snapshot corruption into detected,
    /// quarantined corruption.
    #[test]
    fn corrupted_snapshot_falls_back_without_panicking(
        inserts in 1usize..10,
        corruption in corruption_strategy(),
    ) {
        let dir = case_dir("snap");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        let wal_ops = materialize(&vec![FuzzOp::Insert; inserts]);
        let prefixes = oracle_prefixes(&wal_ops);
        let mut storage = QueryStorage::new();
        for op in &wal_ops {
            apply_op(&mut storage, op, None).expect("build");
        }
        let mut body = Vec::new();
        storage.snapshot(&mut body).expect("snapshot body");
        let horizon = wal_ops.len() as u64;
        write_snapshot_file(&dir, horizon, &body, false).expect("snapshot file");

        let snapshots: Vec<PathBuf> = corruptible_files(&dir)
            .into_iter()
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("snapshot-"))
            })
            .collect();
        prop_assert_eq!(snapshots.len(), 1);
        let truncated = corrupt(&snapshots, &corruption);

        // Whatever the wound, open returns Ok with a state equal to some
        // oracle prefix. Every wound is caught by the CRC trailer (a
        // truncation by its absence) and accounted as quarantined bytes;
        // a truncation is exempt only because it may leave zero bytes.
        let recovered = open_dir(&dir, false, None).expect("open survives snapshot damage");
        let state = canonical(&recovered.storage);
        prop_assert!(
            prefixes.iter().any(|p| p == &state),
            "state must be an oracle prefix"
        );
        if state != prefixes[horizon as usize] && !truncated {
            prop_assert!(
                recovered.report.bytes_quarantined > 0,
                "a rejected snapshot must be accounted for"
            );
        }

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A wound *inside* the snapshot body that the file-level trailer
    /// cannot see (it was computed over the already-wounded bytes — a
    /// bad write, not bad storage) is still caught by the per-frame CRC:
    /// the snapshot fails to load as a whole, is quarantined, and open
    /// falls back to the (here empty) log instead of serving a prefix.
    #[test]
    fn wounded_frame_under_a_valid_trailer_still_fails_to_load(
        inserts in 1usize..10,
        frac in 0u64..=10_000,
        bit in 0u8..8,
    ) {
        let dir = case_dir("frame");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("mkdir");

        let wal_ops = materialize(&vec![FuzzOp::Insert; inserts]);
        let mut storage = QueryStorage::new();
        for op in &wal_ops {
            apply_op(&mut storage, op, None).expect("build");
        }
        let mut body = Vec::new();
        storage.snapshot(&mut body).expect("snapshot body");
        let magic = body.iter().position(|&b| b == b'\n').expect("magic line") + 1;
        let frames = (body.len() - magic) as u64;
        body[magic + (frac * (frames - 1) / 10_000) as usize] ^= 1 << bit;
        prop_assert!(QueryStorage::load(&body[..]).is_err(), "per-frame CRC catches it");
        write_snapshot_file(&dir, wal_ops.len() as u64, &body, false).expect("snapshot file");

        let recovered = open_dir(&dir, false, None).expect("open falls back");
        prop_assert_eq!(recovered.storage.len(), 0, "never a prefix of the snapshot");
        prop_assert_eq!(recovered.report.snapshot_lsn, 0);
        prop_assert!(recovered.report.bytes_quarantined > 0);

        let _ = std::fs::remove_dir_all(&dir);
    }
}
