//! Durable write-ahead log + snapshot recovery for the Query Storage.
//!
//! The paper pitches CQMS as a *shared* service that preserves every
//! analyst's query history (§3–4); history that evaporates on a crash is
//! not preserved. This module adds the durability layer under
//! [`QueryStorage`]: every ingest-path mutation (insert, tombstone,
//! validity flip, visibility change, session edge, annotation, repair
//! re-index) is appended to a length-prefixed, CRC-checksummed binary log
//! *before* the caller's batch is acknowledged, and the store is rebuilt
//! on open by replaying the log on top of the newest snapshot.
//!
//! # Log format
//!
//! The log is a sequence of frames, each:
//!
//! ```text
//! [len: u32 LE] [crc32(body): u32 LE] [body: len bytes]
//! body = [lsn: u64 LE] [op tag: u8] [op payload]
//! ```
//!
//! LSNs are assigned monotonically by the [`WalWriter`]. A torn tail —
//! a frame cut short by a crash mid-write, or garbage past the last
//! durable frame — fails the length or checksum test and is truncated on
//! recovery; everything before it replays normally.
//!
//! # Snapshots and the horizon
//!
//! A snapshot is the log *compacted*, in the log's own format: a
//! `cqms-snapshot v2` line followed by frames exactly as above — one
//! `Insert` per record in id order carrying the record's current state
//! (tombstones included), then the `Annotate` frames, then the `Edge`
//! frames ([`QueryStorage::snapshot`]). Loading one is replaying it
//! through [`apply_op`], the path every log frame takes, so there is one
//! durable encoding and one way back from it. The snapshot *file* wraps
//! that body in a `wal-horizon <lsn>` header — the **horizon**, the LSN of
//! the last operation the snapshot includes — and a CRC-32 trailer over
//! everything before it; a file without a matching trailer is corrupt.
//! Recovery loads the newest snapshot and replays only frames with
//! `lsn > horizon`, which makes replay idempotent — a log segment that
//! overlaps the snapshot is harmless. After a snapshot is durable the
//! writer rotates to a fresh segment and prunes segments that lie
//! entirely at or below the horizon, bounding log growth. Snapshots in
//! the retired `cqms-snapshot v1` text format are refused: [`open_dir`]
//! fails rather than opening an empty store beside them.
//!
//! # Sinks
//!
//! The writer targets a pluggable [`LogSink`]: [`FileSink`] appends to
//! numbered segment files in a directory (`wal-<lsn>.log`,
//! `snapshot-<lsn>.cqms`), [`MemSink`] keeps segments in memory with a
//! per-segment *synced length* so tests can simulate a crash (everything
//! past the last `sync` is discarded) without touching a filesystem.
//!
//! # Sharded deployments
//!
//! The framing above is deliberately shard-agnostic. A
//! [`crate::shard::ShardedCqms`] gives every shard its own directory
//! (`dir/shard-{i}/`) with an independent LSN space, segment rotation and
//! snapshot cadence; each shard recovers exactly like a single-node
//! deployment, and the global id stripe (`global = local × N + shard`) is
//! a pure function of the shard count, so nothing about sharding is — or
//! needs to be — persisted in the log.
//!
//! # What is (deliberately) not logged
//!
//! Anything re-derivable: the parsed statement, fingerprints and
//! syntactic features (functions of the SQL and the catalog, rebuilt
//! when a frame is applied), output summaries (statistics,
//! re-creatable by maintenance refresh), runtime plan/error text, and
//! the user/group directory (deployments re-register principals at
//! startup, which reproduces the same dense ids). Association rules and
//! clusters are computed per read. A record's session is not derived
//! again: it is decided once, when the query is logged
//! ([`QueryStorage::log_query`]), and its `Insert` frame carries it, so
//! replay and snapshot load restore the live sessions exactly.

use crate::error::CqmsError;
use crate::features;
use crate::model::*;
use crate::storage::{make_record, QueryStorage, SNAPSHOT_V1_MAGIC};
use parking_lot::Mutex;
use relstore::Catalog;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Upper bound on a single frame body; anything larger is treated as a
/// corrupt length prefix (a random 4-byte value exceeds this with
/// probability ~15/16, so garbage tails fail fast).
const MAX_FRAME_LEN: usize = 1 << 28;

// ---------------------------------------------------------------------
// CRC32 (IEEE), table built at compile time — no external crates.
// ---------------------------------------------------------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the per-frame checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Operations
// ---------------------------------------------------------------------

/// The durable image of a record, in the log (as inserted) and in a
/// snapshot (as of the horizon) alike; summaries and plan/error text are
/// derived or re-creatable state.
#[derive(Debug, Clone, PartialEq)]
pub struct InsertFrame {
    /// Dense record id (must equal the store length at apply time).
    pub id: QueryId,
    /// Author.
    pub user: UserId,
    /// Trace-time seconds.
    pub ts: u64,
    /// Session membership at insert time.
    pub session: SessionId,
    /// The raw SQL text; the statement, fingerprints and features are
    /// re-derived from it on replay.
    pub raw_sql: String,
    /// Access control at insert time.
    pub visibility: Visibility,
    /// Validity at insert time (tests insert pre-flagged records; the
    /// ingest path always inserts `Valid`).
    pub validity: Validity,
    /// Captured execution time (µs).
    pub elapsed_us: u64,
    /// Captured result cardinality.
    pub cardinality: u64,
    /// Did the execution succeed?
    pub success: bool,
    /// Quality score at insert time.
    pub quality: f64,
}

impl InsertFrame {
    /// Capture the durable image of a record about to be inserted.
    pub fn of(r: &QueryRecord) -> Self {
        InsertFrame {
            id: r.id,
            user: r.user,
            ts: r.ts,
            session: r.session,
            raw_sql: r.raw_sql.to_string(),
            visibility: r.visibility,
            validity: r.validity.clone(),
            elapsed_us: r.runtime.elapsed_us,
            cardinality: r.runtime.cardinality,
            success: r.runtime.success,
            quality: r.quality,
        }
    }
}

/// One logged ingest-path mutation.
#[derive(Debug, Clone, PartialEq)]
pub enum WalOp {
    /// A new record ([`QueryStorage::insert`]).
    Insert(Box<InsertFrame>),
    /// A tombstone ([`QueryStorage::delete`]).
    Tombstone {
        /// The tombstoned record.
        id: QueryId,
    },
    /// A maintenance validity flip ([`QueryStorage::set_validity`]).
    SetValidity {
        /// The affected record.
        id: QueryId,
        /// The new validity (never `Deleted`; that is a tombstone).
        validity: Validity,
    },
    /// An ACL change ([`QueryStorage::set_visibility`]).
    SetVisibility {
        /// The affected record.
        id: QueryId,
        /// The new visibility.
        visibility: Visibility,
    },
    /// A session-graph edge ([`QueryStorage::add_edge`]). Edit labels are
    /// re-derived from the endpoint statements on replay.
    Edge {
        /// Source query.
        from: QueryId,
        /// Target query.
        to: QueryId,
        /// Evolution vs. investigation.
        kind: EdgeKind,
    },
    /// An annotation ([`QueryStorage::annotate`]).
    Annotate {
        /// The annotated record.
        id: QueryId,
        /// Annotation author.
        author: UserId,
        /// Trace-time seconds.
        at: u64,
        /// Annotation body.
        text: String,
        /// Optional SQL fragment the annotation targets.
        fragment: Option<String>,
    },
    /// A re-index after an in-place rewrite ([`QueryStorage::reindex`] —
    /// the maintenance repair path). Carries the post-rewrite SQL; replay
    /// re-derives the statement, fingerprints and features from it.
    Reindex {
        /// The rewritten record.
        id: QueryId,
        /// The record's SQL *after* the rewrite.
        raw_sql: String,
    },
}

// --- payload primitives ---

fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_f64(buf: &mut Vec<u8>, v: f64) {
    buf.extend_from_slice(&v.to_bits().to_le_bytes());
}

fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_opt_str(buf: &mut Vec<u8>, s: Option<&str>) {
    match s {
        Some(s) => {
            put_u8(buf, 1);
            put_str(buf, s);
        }
        None => put_u8(buf, 0),
    }
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err("frame payload truncated".into());
        }
        let out = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn str(&mut self) -> Result<String, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "non-UTF-8 string payload".to_string())
    }

    fn opt_str(&mut self) -> Result<Option<String>, String> {
        Ok(match self.u8()? {
            0 => None,
            _ => Some(self.str()?),
        })
    }

    fn finished(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

fn put_visibility(buf: &mut Vec<u8>, v: Visibility) {
    match v {
        Visibility::Private => put_u8(buf, 0),
        Visibility::Public => put_u8(buf, 1),
        Visibility::Group(g) => {
            put_u8(buf, 2);
            put_u32(buf, g.0);
        }
    }
}

fn read_visibility(r: &mut Reader<'_>) -> Result<Visibility, String> {
    Ok(match r.u8()? {
        0 => Visibility::Private,
        1 => Visibility::Public,
        2 => Visibility::Group(GroupId(r.u32()?)),
        t => return Err(format!("bad visibility tag {t}")),
    })
}

fn put_validity(buf: &mut Vec<u8>, v: &Validity) {
    match v {
        Validity::Valid => put_u8(buf, 0),
        Validity::Flagged { reason, at } => {
            put_u8(buf, 1);
            put_str(buf, reason);
            put_u64(buf, *at);
        }
        Validity::Repaired { original_sql, at } => {
            put_u8(buf, 2);
            put_str(buf, original_sql);
            put_u64(buf, *at);
        }
        Validity::Obsolete { reason, at } => {
            put_u8(buf, 3);
            put_str(buf, reason);
            put_u64(buf, *at);
        }
        Validity::Deleted => put_u8(buf, 4),
    }
}

fn read_validity(r: &mut Reader<'_>) -> Result<Validity, String> {
    Ok(match r.u8()? {
        0 => Validity::Valid,
        1 => Validity::Flagged {
            reason: r.str()?,
            at: r.u64()?,
        },
        2 => Validity::Repaired {
            original_sql: r.str()?,
            at: r.u64()?,
        },
        3 => Validity::Obsolete {
            reason: r.str()?,
            at: r.u64()?,
        },
        4 => Validity::Deleted,
        t => return Err(format!("bad validity tag {t}")),
    })
}

impl WalOp {
    /// Append the tag + payload encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            WalOp::Insert(f) => {
                put_u8(buf, 1);
                put_u64(buf, f.id.0);
                put_u32(buf, f.user.0);
                put_u64(buf, f.ts);
                put_u64(buf, f.session.0);
                put_str(buf, &f.raw_sql);
                put_visibility(buf, f.visibility);
                put_validity(buf, &f.validity);
                put_u64(buf, f.elapsed_us);
                put_u64(buf, f.cardinality);
                put_u8(buf, u8::from(f.success));
                put_f64(buf, f.quality);
            }
            WalOp::Tombstone { id } => {
                put_u8(buf, 2);
                put_u64(buf, id.0);
            }
            WalOp::SetValidity { id, validity } => {
                put_u8(buf, 3);
                put_u64(buf, id.0);
                put_validity(buf, validity);
            }
            WalOp::SetVisibility { id, visibility } => {
                put_u8(buf, 4);
                put_u64(buf, id.0);
                put_visibility(buf, *visibility);
            }
            WalOp::Edge { from, to, kind } => {
                put_u8(buf, 5);
                put_u64(buf, from.0);
                put_u64(buf, to.0);
                put_u8(buf, matches!(kind, EdgeKind::Investigation) as u8);
            }
            WalOp::Annotate {
                id,
                author,
                at,
                text,
                fragment,
            } => {
                put_u8(buf, 6);
                put_u64(buf, id.0);
                put_u32(buf, author.0);
                put_u64(buf, *at);
                put_str(buf, text);
                put_opt_str(buf, fragment.as_deref());
            }
            WalOp::Reindex { id, raw_sql } => {
                put_u8(buf, 7);
                put_u64(buf, id.0);
                put_str(buf, raw_sql);
            }
        }
    }

    /// Decode a tag + payload (the frame body past the LSN). The whole
    /// payload must be consumed — trailing bytes mean corruption.
    fn decode(bytes: &[u8]) -> Result<WalOp, String> {
        let mut r = Reader::new(bytes);
        let op = match r.u8()? {
            1 => WalOp::Insert(Box::new(InsertFrame {
                id: QueryId(r.u64()?),
                user: UserId(r.u32()?),
                ts: r.u64()?,
                session: SessionId(r.u64()?),
                raw_sql: r.str()?,
                visibility: read_visibility(&mut r)?,
                validity: read_validity(&mut r)?,
                elapsed_us: r.u64()?,
                cardinality: r.u64()?,
                success: r.u8()? != 0,
                quality: r.f64()?,
            })),
            2 => WalOp::Tombstone {
                id: QueryId(r.u64()?),
            },
            3 => WalOp::SetValidity {
                id: QueryId(r.u64()?),
                validity: read_validity(&mut r)?,
            },
            4 => WalOp::SetVisibility {
                id: QueryId(r.u64()?),
                visibility: read_visibility(&mut r)?,
            },
            5 => WalOp::Edge {
                from: QueryId(r.u64()?),
                to: QueryId(r.u64()?),
                kind: if r.u8()? != 0 {
                    EdgeKind::Investigation
                } else {
                    EdgeKind::Evolution
                },
            },
            6 => WalOp::Annotate {
                id: QueryId(r.u64()?),
                author: UserId(r.u32()?),
                at: r.u64()?,
                text: r.str()?,
                fragment: r.opt_str()?,
            },
            7 => WalOp::Reindex {
                id: QueryId(r.u64()?),
                raw_sql: r.str()?,
            },
            t => return Err(format!("unknown op tag {t}")),
        };
        if !r.finished() {
            return Err("trailing bytes after op payload".into());
        }
        Ok(op)
    }
}

// ---------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------

/// Append one framed `(lsn, op)` to `out`.
pub fn encode_frame(out: &mut Vec<u8>, lsn: u64, op: &WalOp) {
    let mut body = Vec::with_capacity(64);
    put_u64(&mut body, lsn);
    op.encode(&mut body);
    put_u32(out, body.len() as u32);
    put_u32(out, crc32(&body));
    out.extend_from_slice(&body);
}

/// The outcome of scanning one log segment.
#[derive(Debug)]
pub struct DecodedLog {
    /// Every frame up to the first invalid one, in log order.
    pub frames: Vec<(u64, WalOp)>,
    /// Byte offset past the last valid frame (the truncation point).
    pub valid_len: usize,
    /// Bytes past `valid_len` — a torn tail or garbage.
    pub torn_bytes: usize,
}

/// Decode the frame at the start of `bytes` into `(lsn, op, frame
/// length)`; `None` when it fails the length, checksum or payload test.
pub(crate) fn decode_frame(bytes: &[u8]) -> Option<(u64, WalOp, usize)> {
    let len = u32::from_le_bytes(bytes.get(..4)?.try_into().unwrap()) as usize;
    if !(9..=MAX_FRAME_LEN).contains(&len) {
        return None;
    }
    let crc = u32::from_le_bytes(bytes.get(4..8)?.try_into().unwrap());
    let body = bytes.get(8..8 + len)?;
    if crc32(body) != crc {
        return None;
    }
    let lsn = u64::from_le_bytes(body[..8].try_into().unwrap());
    let op = WalOp::decode(&body[8..]).ok()?;
    Some((lsn, op, 8 + len))
}

/// Scan a segment's bytes into frames, stopping at the first frame that
/// fails the length, checksum or payload test (a crash mid-append leaves
/// exactly such a tail). Never errors: corruption just ends the scan.
pub fn decode_log(bytes: &[u8]) -> DecodedLog {
    let mut frames = Vec::new();
    let mut pos = 0usize;
    while let Some((lsn, op, len)) = decode_frame(&bytes[pos..]) {
        frames.push((lsn, op));
        pos += len;
    }
    DecodedLog {
        frames,
        valid_len: pos,
        torn_bytes: bytes.len() - pos,
    }
}

/// One maximal run of valid frames found by [`salvage_scan`].
#[derive(Debug)]
pub struct SalvageRun {
    /// Byte offset of the run's first frame within the segment.
    pub offset: usize,
    /// Bytes the run spans.
    pub len: usize,
    /// The decoded frames, in log order.
    pub frames: Vec<(u64, WalOp)>,
}

/// Forward-scan a whole segment, resynchronising past corrupt regions.
///
/// Where [`decode_log`] stops at the first invalid frame, this slides the
/// frame window a byte at a time until the length/CRC/payload checks pass
/// again, yielding every maximal run of valid frames with the corrupt
/// gaps between them implied by the offsets. The 32-bit CRC makes a false
/// resync on random corruption vanishingly unlikely (~2⁻³²). Cost is
/// linear in the *corrupt* region size — a clean segment is one
/// [`decode_log`] pass, exactly as before.
pub fn salvage_scan(bytes: &[u8]) -> Vec<SalvageRun> {
    let mut runs = Vec::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        let d = decode_log(&bytes[pos..]);
        if d.frames.is_empty() {
            pos += 1;
            continue;
        }
        let torn = d.torn_bytes > 0;
        runs.push(SalvageRun {
            offset: pos,
            len: d.valid_len,
            frames: d.frames,
        });
        pos += d.valid_len;
        if !torn {
            break; // the run consumed everything to the end of the segment
        }
        pos += 1; // step past the known-bad offset before re-syncing
    }
    runs
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Where the writer's bytes go. Implementations must make `sync` a
/// durability point: everything appended before a successful `sync`
/// survives a crash.
pub trait LogSink: Send + Sync {
    /// Append raw frame bytes to the current segment.
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()>;
    /// Make everything appended so far durable.
    fn sync(&mut self) -> std::io::Result<()>;
    /// Close the current segment and start a new one whose first frame
    /// will carry `next_lsn`.
    fn rotate(&mut self, next_lsn: u64) -> std::io::Result<()>;
    /// Drop segments that lie entirely at or below `horizon` (covered by
    /// a durable snapshot).
    fn prune(&mut self, horizon: u64) -> std::io::Result<()>;
    /// Durably persist a snapshot body with the given horizon.
    fn write_snapshot(&mut self, horizon: u64, body: &[u8]) -> std::io::Result<()>;
    /// The directory backing this sink, when file-based — the service
    /// layer uses it to write snapshots off the write lock.
    fn snapshot_dir(&self) -> Option<PathBuf> {
        None
    }
}

fn segment_path(dir: &Path, first_lsn: u64) -> PathBuf {
    dir.join(format!("wal-{first_lsn:020}.log"))
}

fn snapshot_path(dir: &Path, horizon: u64) -> PathBuf {
    dir.join(format!("snapshot-{horizon:020}.cqms"))
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

fn sync_dir(dir: &Path) -> std::io::Result<()> {
    // Directory fsync makes renames/creates/unlinks durable on POSIX.
    File::open(dir)?.sync_all()
}

/// List `(first_lsn, path)` of every segment in `dir`, ascending.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(lsn) = name
            .to_str()
            .and_then(|n| parse_numbered(n, "wal-", ".log"))
        {
            out.push((lsn, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// List `(horizon, path)` of every snapshot in `dir`, ascending.
pub fn list_snapshots(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(h) = name
            .to_str()
            .and_then(|n| parse_numbered(n, "snapshot-", ".cqms"))
        {
            out.push((h, entry.path()));
        }
    }
    out.sort();
    Ok(out)
}

/// Fixed-width CRC trailer appended to snapshot files:
/// `"snapshot-crc32 " + 8 hex digits + '\n'` — exactly 24 bytes, so the
/// reader can peel it off the end without ambiguity.
const SNAPSHOT_TRAILER_LEN: usize = 24;
const SNAPSHOT_TRAILER_TAG: &[u8] = b"snapshot-crc32 ";

/// Durably write `snapshot-<horizon>.cqms` (tmp file + fsync + rename +
/// directory fsync) and drop older snapshots. Shared by [`FileSink`] and
/// the service layer's off-lock snapshot path. The file ends in a CRC-32
/// trailer covering *everything* before it — the `wal-horizon` header
/// included, so a flipped horizon digit cannot silently skip replay —
/// which [`read_snapshot_file`] verifies on load.
pub fn write_snapshot_file(
    dir: &Path,
    horizon: u64,
    body: &[u8],
    fsync: bool,
) -> std::io::Result<()> {
    let tmp = dir.join("snapshot.tmp");
    {
        let mut content = Vec::with_capacity(body.len() + 32);
        writeln!(content, "wal-horizon {horizon}")?;
        content.extend_from_slice(body);
        let mut f = File::create(&tmp)?;
        f.write_all(&content)?;
        writeln!(f, "snapshot-crc32 {:08x}", crc32(&content))?;
        if fsync {
            f.sync_all()?;
        }
    }
    fs::rename(&tmp, snapshot_path(dir, horizon))?;
    if fsync {
        sync_dir(dir)?;
    }
    // Only the newest snapshot is load-bearing; older ones are garbage
    // the moment the rename lands.
    for (h, path) in list_snapshots(dir)? {
        if h < horizon {
            let _ = fs::remove_file(path);
        }
    }
    Ok(())
}

/// Parse a snapshot file into `(horizon, snapshot body)`, verifying the
/// CRC-32 trailer. A file without the exact fixed-width trailer — cut
/// short, or never finished — is as corrupt as one whose checksum
/// mismatches: accepting it would load a prefix of the store.
pub fn read_snapshot_file(path: &Path) -> std::io::Result<(u64, Vec<u8>)> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let content_len = bytes
        .len()
        .checked_sub(SNAPSHOT_TRAILER_LEN)
        .filter(|&n| bytes[n..].starts_with(SNAPSHOT_TRAILER_TAG) && bytes.ends_with(b"\n"))
        .ok_or_else(|| std::io::Error::other("snapshot missing its snapshot-crc32 trailer"))?;
    let want = std::str::from_utf8(&bytes[bytes.len() - 9..bytes.len() - 1])
        .ok()
        .and_then(|h| u32::from_str_radix(h, 16).ok())
        .ok_or_else(|| std::io::Error::other("bad snapshot-crc32 trailer"))?;
    bytes.truncate(content_len);
    if crc32(&bytes) != want {
        return Err(std::io::Error::other("snapshot checksum mismatch"));
    }
    let nl = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or_else(|| std::io::Error::other("snapshot missing horizon header"))?;
    let header = std::str::from_utf8(&bytes[..nl])
        .ok()
        .and_then(|h| h.strip_prefix("wal-horizon "))
        .and_then(|h| h.trim().parse::<u64>().ok())
        .ok_or_else(|| std::io::Error::other("bad wal-horizon header"))?;
    let body = bytes.split_off(nl + 1);
    Ok((header, body))
}

/// A file-backed sink: numbered segment files in one directory.
pub struct FileSink {
    dir: PathBuf,
    file: File,
    fsync: bool,
}

impl FileSink {
    /// Start a fresh segment whose first frame will carry `first_lsn`.
    pub fn create(dir: &Path, first_lsn: u64, fsync: bool) -> std::io::Result<Self> {
        fs::create_dir_all(dir)?;
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(dir, first_lsn))?;
        if fsync {
            sync_dir(dir)?;
        }
        Ok(FileSink {
            dir: dir.to_path_buf(),
            file,
            fsync,
        })
    }

    /// Resume appending to an existing segment file.
    pub fn resume(dir: &Path, path: &Path, fsync: bool) -> std::io::Result<Self> {
        let file = OpenOptions::new().append(true).open(path)?;
        Ok(FileSink {
            dir: dir.to_path_buf(),
            file,
            fsync,
        })
    }
}

impl LogSink for FileSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        self.file.write_all(bytes)
    }

    fn sync(&mut self) -> std::io::Result<()> {
        if self.fsync {
            self.file.sync_data()?;
        }
        Ok(())
    }

    fn rotate(&mut self, next_lsn: u64) -> std::io::Result<()> {
        self.sync()?;
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(segment_path(&self.dir, next_lsn))?;
        if self.fsync {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    fn prune(&mut self, horizon: u64) -> std::io::Result<()> {
        let segments = list_segments(&self.dir)?;
        // Segment i spans [first[i], first[i+1]); it is fully covered by
        // the snapshot iff the next segment starts at or below horizon+1.
        // The newest segment never has a successor and is never pruned.
        let mut removed = false;
        for pair in segments.windows(2) {
            if pair[1].0 <= horizon + 1 {
                let _ = fs::remove_file(&pair[0].1);
                removed = true;
            }
        }
        if removed && self.fsync {
            sync_dir(&self.dir)?;
        }
        Ok(())
    }

    fn write_snapshot(&mut self, horizon: u64, body: &[u8]) -> std::io::Result<()> {
        write_snapshot_file(&self.dir, horizon, body, self.fsync)
    }

    fn snapshot_dir(&self) -> Option<PathBuf> {
        Some(self.dir.clone())
    }
}

/// One in-memory segment of a [`MemSink`].
#[derive(Debug, Default, Clone)]
pub struct MemSegment {
    /// LSN of the segment's first frame.
    pub first_lsn: u64,
    /// Everything appended, durable or not.
    pub bytes: Vec<u8>,
    /// Bytes made durable by the last `sync` — a simulated crash keeps
    /// exactly this prefix.
    pub synced_len: usize,
}

/// A `(horizon, body)` snapshot alongside `(first_lsn, bytes)` segments —
/// what [`MemLog::durable_state`] hands back.
pub type DurableState = (Option<(u64, Vec<u8>)>, Vec<(u64, Vec<u8>)>);

/// The shared state behind a [`MemSink`]: segments plus snapshots.
#[derive(Debug, Default, Clone)]
pub struct MemLog {
    /// Segments in rotation order.
    pub segments: Vec<MemSegment>,
    /// `(horizon, body)` snapshots (treated as durable at write time,
    /// mirroring the file sink's fsync-before-rename protocol).
    pub snapshots: Vec<(u64, Vec<u8>)>,
}

impl MemLog {
    /// What a crash right now would leave behind: the newest snapshot
    /// plus every segment truncated to its synced length.
    pub fn durable_state(&self) -> DurableState {
        let snapshot = self.snapshots.iter().max_by_key(|(h, _)| *h).cloned();
        let segments = self
            .segments
            .iter()
            .map(|s| (s.first_lsn, s.bytes[..s.synced_len].to_vec()))
            .collect();
        (snapshot, segments)
    }

    /// Simulate crash + restart: recover a storage from the durable state.
    pub fn recover(&self) -> Result<(QueryStorage, RecoveryReport), CqmsError> {
        let (snapshot, segments) = self.durable_state();
        let (storage, report, _) = recover(
            snapshot.as_ref().map(|(h, b)| (*h, b.as_slice())),
            &segments,
            None,
        )?;
        Ok((storage, report))
    }
}

/// An in-memory sink for tests: shares its [`MemLog`] with the handle
/// returned by [`MemSink::new`], so a test can inspect durable state and
/// simulate crashes while the writer keeps logging.
pub struct MemSink(Arc<Mutex<MemLog>>);

impl MemSink {
    /// A sink plus the shared handle to its log state.
    pub fn new() -> (Self, Arc<Mutex<MemLog>>) {
        let log = Arc::new(Mutex::new(MemLog {
            segments: vec![MemSegment {
                first_lsn: 1,
                ..MemSegment::default()
            }],
            snapshots: Vec::new(),
        }));
        (MemSink(log.clone()), log)
    }
}

impl LogSink for MemSink {
    fn append(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let mut log = self.0.lock();
        log.segments
            .last_mut()
            .expect("MemSink always has a segment")
            .bytes
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> std::io::Result<()> {
        let mut log = self.0.lock();
        let seg = log.segments.last_mut().expect("segment");
        seg.synced_len = seg.bytes.len();
        Ok(())
    }

    fn rotate(&mut self, next_lsn: u64) -> std::io::Result<()> {
        self.sync()?;
        self.0.lock().segments.push(MemSegment {
            first_lsn: next_lsn,
            ..MemSegment::default()
        });
        Ok(())
    }

    fn prune(&mut self, horizon: u64) -> std::io::Result<()> {
        let mut log = self.0.lock();
        let firsts: Vec<u64> = log.segments.iter().map(|s| s.first_lsn).collect();
        let mut i = 0;
        log.segments.retain(|_| {
            let covered = firsts.get(i + 1).is_some_and(|&next| next <= horizon + 1);
            i += 1;
            !covered
        });
        Ok(())
    }

    fn write_snapshot(&mut self, horizon: u64, body: &[u8]) -> std::io::Result<()> {
        self.0.lock().snapshots.push((horizon, body.to_vec()));
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// The append side of the log: assigns LSNs, buffers encoded frames, and
/// flushes them to the sink at batch boundaries.
///
/// `log` is cheap (an in-memory encode); durability happens at
/// [`WalWriter::flush`], which the service layer calls once per write
/// operation / ingest batch *before* acknowledging the caller.
pub struct WalWriter {
    sink: Box<dyn LogSink>,
    buf: Vec<u8>,
    next_lsn: u64,
    ops_since_snapshot: u64,
}

impl WalWriter {
    /// Wrap a sink; the first logged op gets `next_lsn`.
    pub fn new(sink: Box<dyn LogSink>, next_lsn: u64) -> Self {
        WalWriter {
            sink,
            buf: Vec::new(),
            next_lsn,
            ops_since_snapshot: 0,
        }
    }

    /// Encode `op` into the buffer and return its LSN.
    pub fn log(&mut self, op: &WalOp) -> u64 {
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        self.ops_since_snapshot += 1;
        encode_frame(&mut self.buf, lsn, op);
        lsn
    }

    /// Append all buffered frames and make them durable.
    pub fn flush(&mut self) -> std::io::Result<()> {
        if !self.buf.is_empty() {
            self.sink.append(&self.buf)?;
            self.buf.clear();
        }
        self.sink.sync()
    }

    /// The LSN of the most recently logged op (0 if none yet).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn.saturating_sub(1)
    }

    /// Ops logged since the last snapshot mark — the miner epoch's
    /// snapshot trigger.
    pub fn ops_since_snapshot(&self) -> u64 {
        self.ops_since_snapshot
    }

    /// A snapshot at `horizon` is durable: flush, rotate to a fresh
    /// segment, and prune segments the snapshot covers.
    pub fn mark_snapshot(&mut self, horizon: u64) -> std::io::Result<()> {
        self.flush()?;
        self.sink.rotate(self.next_lsn)?;
        self.sink.prune(horizon)?;
        self.ops_since_snapshot = 0;
        Ok(())
    }

    /// Write a snapshot through the sink (the inline path for synchronous
    /// callers), then mark it.
    pub fn write_snapshot(&mut self, horizon: u64, body: &[u8]) -> std::io::Result<()> {
        // Flush first so the log is always a superset of durable state —
        // a crash between the two leaves the snapshot plus an overlapping
        // log, which idempotent replay handles.
        self.flush()?;
        self.sink.write_snapshot(horizon, body)?;
        self.mark_snapshot(horizon)
    }

    /// The directory of a file-backed sink (None for in-memory sinks).
    pub fn snapshot_dir(&self) -> Option<PathBuf> {
        self.sink.snapshot_dir()
    }
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// What recovery found and did. Render with `{}` for the operator log
/// line; the full struct is available via `Cqms::recovery`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RecoveryReport {
    /// Horizon of the snapshot recovery started from (0 = no snapshot).
    pub snapshot_lsn: u64,
    /// Records restored from the snapshot itself.
    pub snapshot_records: usize,
    /// Log segments scanned.
    pub segments_scanned: usize,
    /// Frames applied on top of the snapshot.
    pub frames_replayed: usize,
    /// Frames skipped as already covered (at or below the horizon, or an
    /// insert whose id already exists).
    pub frames_skipped: usize,
    /// Frames whose replay failed (0 on any healthy log).
    pub frames_failed: usize,
    /// **Benign** loss only: bytes truncated from the physical tail of
    /// the log — a frame cut short by a crash mid-write, or garbage past
    /// the last valid frame anywhere. Nothing acknowledged-and-synced
    /// lives here.
    pub torn_bytes_truncated: usize,
    /// **Real** loss: acknowledged frames that decoded past a mid-log
    /// corruption but could not be replayed because LSN continuity was
    /// broken across the corrupt region.
    pub frames_lost: usize,
    /// Bytes set aside rather than replayed: mid-log corrupt regions,
    /// the bytes of lost frames, and corrupt snapshot files — all
    /// preserved under `quarantine/` by [`open_dir`] for inspection.
    pub bytes_quarantined: usize,
    /// Highest LSN seen (snapshot horizon included); the writer resumes
    /// at `max_lsn + 1`.
    pub max_lsn: u64,
}

impl RecoveryReport {
    /// Did recovery drop anything at all — benign tail or real loss?
    /// `false` means the recovered state is byte-complete with respect to
    /// every acknowledged-and-synced operation.
    pub fn lossy(&self) -> bool {
        self.torn_bytes_truncated > 0
            || self.frames_lost > 0
            || self.bytes_quarantined > 0
            || self.frames_failed > 0
    }
}

impl fmt::Display for RecoveryReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered from snapshot@{} ({} records) + {} segment(s): \
             {} replayed, {} skipped, {} failed, {} torn byte(s) truncated, \
             {} frame(s) lost, {} byte(s) quarantined; next lsn {}",
            self.snapshot_lsn,
            self.snapshot_records,
            self.segments_scanned,
            self.frames_replayed,
            self.frames_skipped,
            self.frames_failed,
            self.torn_bytes_truncated,
            self.frames_lost,
            self.bytes_quarantined,
            self.max_lsn + 1,
        )
    }
}

/// Apply one logged op to a storage. The storage must have **no WAL
/// attached** (replay must not re-log itself). `catalog` is the one the
/// live store derived features against (None for a catalog-less store).
/// Returns whether the op changed state (`false` = skipped as already
/// applied).
pub fn apply_op(
    storage: &mut QueryStorage,
    op: &WalOp,
    catalog: Option<&Catalog>,
) -> Result<bool, CqmsError> {
    match op {
        WalOp::Insert(f) => {
            let len = storage.len() as u64;
            if f.id.0 < len {
                return Ok(false); // already present (snapshot overlap)
            }
            if f.id.0 > len {
                return Err(CqmsError::Wal(format!(
                    "insert gap: log has id {} but store has {len} records",
                    f.id
                )));
            }
            let statement = sqlparse::parse(&f.raw_sql).ok();
            let features = statement
                .as_ref()
                .map(|stmt| features::extract(stmt, catalog))
                .unwrap_or_default();
            let mut record = make_record(
                f.id,
                f.user,
                f.ts,
                &f.raw_sql,
                statement,
                features,
                RuntimeFeatures {
                    elapsed_us: f.elapsed_us,
                    cardinality: f.cardinality,
                    success: f.success,
                    ..RuntimeFeatures::default()
                },
                OutputSummary::None,
                f.session,
                f.visibility,
            );
            record.validity = f.validity.clone();
            record.quality = f.quality;
            storage.insert(record);
            Ok(true)
        }
        WalOp::Tombstone { id } => {
            storage.delete(*id)?;
            Ok(true)
        }
        WalOp::SetValidity { id, validity } => {
            storage.set_validity(*id, validity.clone())?;
            Ok(true)
        }
        WalOp::SetVisibility { id, visibility } => {
            storage.set_visibility(*id, *visibility)?;
            Ok(true)
        }
        WalOp::Edge { from, to, kind } => {
            storage.add_edge(SessionEdge {
                from: *from,
                to: *to,
                kind: *kind,
            });
            Ok(true)
        }
        WalOp::Annotate {
            id,
            author,
            at,
            text,
            fragment,
        } => {
            storage.annotate(
                *id,
                Annotation {
                    author: *author,
                    at: *at,
                    text: text.clone(),
                    fragment: fragment.clone(),
                },
            )?;
            Ok(true)
        }
        WalOp::Reindex { id, raw_sql } => {
            let record = storage.get(*id)?;
            if *record.raw_sql == **raw_sql {
                // A summary refresh: summaries are not logged, so this
                // one re-derives what the record already holds.
                let summary = record.summary.clone();
                storage.refresh_summary(*id, summary)?;
                return Ok(true);
            }
            let statement = sqlparse::parse(raw_sql).ok();
            storage.reindex(*id, raw_sql, statement.as_ref(), catalog)?;
            Ok(true)
        }
    }
}

/// What [`recover`] asks the caller to do with one scanned segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentDisposition {
    /// Every byte decoded cleanly (or the file is empty) — leave it alone.
    Keep,
    /// A benign torn tail: truncate the file to this many bytes.
    Truncate(usize),
    /// A nonempty trailing segment with no valid frame at all (garbage
    /// past the last durable frame anywhere) — remove it.
    Remove,
    /// Mid-log corruption or unsalvageable frames: preserve the whole
    /// file under `quarantine/` for inspection. The caller must re-anchor
    /// durable state with a snapshot before serving, because replayable
    /// frames inside the file leave the directory with it.
    Quarantine,
}

/// The physical cleanup [`recover`] asks of its caller, one entry per
/// scanned segment.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SalvagePlan {
    /// Parallel to the `segments` passed to [`recover`].
    pub dispositions: Vec<SegmentDisposition>,
    /// Human-readable diagnosis per segment (empty string when healthy);
    /// [`open_dir`] copies quarantined segments' entries into the
    /// quarantine manifest.
    pub reasons: Vec<String>,
}

impl SalvagePlan {
    /// Does any segment need quarantining? When true the caller must
    /// write a fresh snapshot at the recovered `max_lsn` before serving.
    pub fn needs_quarantine(&self) -> bool {
        self.dispositions.contains(&SegmentDisposition::Quarantine)
    }
}

/// Rebuild a storage from a snapshot plus ordered log segments.
///
/// Frames with `lsn <= horizon` are skipped (idempotent overlap). The
/// scan is **salvage-aware**: a corrupt region does not end recovery.
/// Valid frames past it are replayed whenever LSN continuity allows —
/// a frame at or below the last LSN already seen is a duplicate
/// (snapshot or replay overlap) and skips; a frame at exactly
/// `last_seen + 1` continues the log. Only when the first frame after a
/// corrupt region *jumps* the LSN sequence is acknowledged data actually
/// gone, and then it is reported as [`RecoveryReport::frames_lost`] /
/// [`RecoveryReport::bytes_quarantined`] rather than silently dropped.
/// Corruption with no valid frame after it anywhere is the classic torn
/// tail: benign, counted in `torn_bytes_truncated`, truncated.
///
/// Snapshot and log frames alike derive features against `catalog`.
/// Returns the storage (no WAL attached), the report, and the physical
/// cleanup plan the caller should execute.
pub fn recover(
    snapshot: Option<(u64, &[u8])>,
    segments: &[(u64, Vec<u8>)],
    catalog: Option<&Catalog>,
) -> Result<(QueryStorage, RecoveryReport, SalvagePlan), CqmsError> {
    let (mut storage, horizon) = match snapshot {
        Some((h, body)) => (QueryStorage::load_body(body, catalog)?, h),
        None => (QueryStorage::new(), 0),
    };
    let mut report = RecoveryReport {
        snapshot_lsn: horizon,
        snapshot_records: storage.len(),
        max_lsn: horizon,
        ..RecoveryReport::default()
    };

    // Pass 1: scan every segment, resynchronising past corrupt regions.
    let scans: Vec<Vec<SalvageRun>> = segments.iter().map(|(_, b)| salvage_scan(b)).collect();
    report.segments_scanned = segments.len();
    // Corruption after the last valid frame anywhere is a benign torn
    // tail; corruption before it is mid-log (frames follow it).
    let last_with_frames = scans.iter().rposition(|runs| !runs.is_empty());

    let mut plan = SalvagePlan {
        dispositions: vec![SegmentDisposition::Keep; segments.len()],
        reasons: vec![String::new(); segments.len()],
    };
    // Has a corrupt region with valid frames after it been crossed?
    // Until then replay behaves exactly like the pre-salvage code.
    let mut gap_seen = false;
    // LSN continuity broke across a corrupt region: every later frame is
    // acknowledged data we cannot safely replay.
    let mut lost = false;
    // Highest LSN applied or legitimately skipped (duplicates included).
    let mut last_seen = horizon;

    for (i, ((_first_lsn, bytes), runs)) in segments.iter().zip(&scans).enumerate() {
        let mut cursor = 0usize; // end of the previous run in this segment
        let mut gap_bytes = 0usize;
        let mut lost_frames = 0usize;
        for run in runs {
            if run.offset > cursor {
                // A corrupt region with this run's frames right after it:
                // mid-log by construction.
                let gap = run.offset - cursor;
                report.bytes_quarantined += gap;
                gap_bytes += gap;
                gap_seen = true;
            }
            cursor = run.offset + run.len;
            // Frames within one physically contiguous run carry
            // consecutive LSNs (the writer appends them in order), so
            // continuity is decided by the run's first frame.
            if !lost && gap_seen {
                if let Some((first, _)) = run.frames.first() {
                    if *first > last_seen + 1 {
                        lost = true;
                    }
                }
            }
            if lost {
                report.frames_lost += run.frames.len();
                report.bytes_quarantined += run.len;
                lost_frames += run.frames.len();
                continue;
            }
            for (lsn, op) in &run.frames {
                report.max_lsn = report.max_lsn.max(*lsn);
                last_seen = last_seen.max(*lsn);
                if *lsn <= horizon {
                    report.frames_skipped += 1;
                    continue;
                }
                match apply_op(&mut storage, op, catalog) {
                    Ok(true) => report.frames_replayed += 1,
                    Ok(false) => report.frames_skipped += 1,
                    Err(_) => report.frames_failed += 1,
                }
            }
        }
        // Trailing bytes past the segment's last run.
        let trailing = bytes.len() - cursor;
        let benign_tail = match last_with_frames {
            // No frames after this point anywhere: classic torn tail.
            Some(last) => i >= last,
            None => true,
        };
        if trailing > 0 {
            if benign_tail {
                report.torn_bytes_truncated += trailing;
            } else {
                report.bytes_quarantined += trailing;
                gap_bytes += trailing;
                gap_seen = true;
            }
        }
        // Disposition: any mid-log damage or lost frames preserves the
        // whole file in quarantine; a benign tail truncates (or removes
        // an all-garbage trailing file); clean segments stay put.
        plan.dispositions[i] = if gap_bytes > 0 || lost_frames > 0 {
            plan.reasons[i] = format!(
                "mid-log corruption: {gap_bytes} corrupt byte(s), {lost_frames} frame(s) lost"
            );
            SegmentDisposition::Quarantine
        } else if trailing > 0 && benign_tail {
            if runs.is_empty() {
                SegmentDisposition::Remove
            } else {
                SegmentDisposition::Truncate(cursor)
            }
        } else {
            SegmentDisposition::Keep
        };
    }
    Ok((storage, report, plan))
}

/// A recovered store with its WAL re-attached and ready to append.
pub struct Recovered {
    /// The rebuilt storage, logging to the directory it was opened from.
    pub storage: QueryStorage,
    /// What recovery found and did.
    pub report: RecoveryReport,
}

/// Move `path` into `dir/quarantine/` (collision-safe) and append a line
/// to `quarantine/MANIFEST.txt` describing why. Returns the file's size
/// in bytes for loss accounting. Fires the `wal.quarantine` failpoint.
fn quarantine_file(dir: &Path, path: &Path, reason: &str, fsync: bool) -> std::io::Result<u64> {
    crate::faults::global_plan().hit(crate::faults::WAL_QUARANTINE)?;
    let qdir = dir.join("quarantine");
    fs::create_dir_all(&qdir)?;
    let name = path
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unnamed")
        .to_string();
    let bytes = fs::metadata(path).map(|m| m.len()).unwrap_or(0);
    let mut target = qdir.join(&name);
    let mut suffix = 0u32;
    while target.exists() {
        suffix += 1;
        target = qdir.join(format!("{name}.{suffix}"));
    }
    fs::rename(path, &target)?;
    let target_name = target
        .file_name()
        .and_then(|n| n.to_str())
        .unwrap_or("unnamed")
        .to_string();
    let mut manifest = OpenOptions::new()
        .create(true)
        .append(true)
        .open(qdir.join("MANIFEST.txt"))?;
    writeln!(
        manifest,
        "file={name} bytes={bytes} quarantined-as={target_name} reason={reason}"
    )?;
    if fsync {
        manifest.sync_all()?;
        sync_dir(&qdir)?;
        sync_dir(dir)?;
    }
    Ok(bytes)
}

/// Open (or create) a durable store in `dir`: load the newest readable
/// snapshot, replay the log past its horizon salvaging past any mid-log
/// corruption, then execute the physical cleanup plan — truncate benign
/// torn tails in place, or (when corruption cost data) preserve the
/// damaged files under `quarantine/` after re-anchoring survivors in a
/// fresh snapshot — and attach a [`FileSink`]-backed writer resuming at
/// `max_lsn + 1`. Corrupt snapshots met along the way are quarantined
/// too, falling back to older snapshots and finally to log-only replay;
/// an intact snapshot in the retired v1 text format fails the open
/// instead. `catalog` is the deployment's data catalog, against which
/// recovered records re-derive their features.
pub fn open_dir(
    dir: &Path,
    fsync: bool,
    catalog: Option<&Catalog>,
) -> Result<Recovered, CqmsError> {
    fs::create_dir_all(dir).map_err(wal_io)?;
    let segment_files = list_segments(dir).map_err(wal_io)?;
    let mut segments: Vec<(u64, Vec<u8>)> = Vec::with_capacity(segment_files.len());
    for (first_lsn, path) in &segment_files {
        let mut bytes = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut bytes))
            .map_err(wal_io)?;
        segments.push((*first_lsn, bytes));
    }

    // Newest snapshot first; fall back to older ones (then to log-only)
    // if a snapshot fails its checksum or fails to load — a half-written
    // tmp never gets the final name, but disk corruption should degrade,
    // not brick the open. Rejected snapshots move to quarantine/ so the
    // fallback is visible and the next open doesn't retry them.
    let mut snapshot_files = list_snapshots(dir).map_err(wal_io)?;
    snapshot_files.reverse();
    let mut outcome = None;
    let mut snapshot_bytes_quarantined = 0usize;
    for (_, path) in &snapshot_files {
        let reason = match read_snapshot_file(path) {
            Ok((horizon, body)) => match recover(Some((horizon, &body)), &segments, catalog) {
                Ok(r) => {
                    outcome = Some(r);
                    break;
                }
                // Intact but unreadable by this build: quarantining it
                // would answer with an empty store.
                Err(e) if body.starts_with(SNAPSHOT_V1_MAGIC) => return Err(e),
                Err(e) => format!("snapshot body failed to load: {e}"),
            },
            Err(e) => format!("unreadable snapshot: {e}"),
        };
        snapshot_bytes_quarantined +=
            quarantine_file(dir, path, &reason, fsync).map_err(wal_io)? as usize;
    }
    let (storage, mut report, plan) = match outcome {
        Some(r) => r,
        None => recover(None, &segments, catalog)?,
    };
    report.bytes_quarantined += snapshot_bytes_quarantined;

    let next_lsn = report.max_lsn + 1;
    let sink = if plan.needs_quarantine() {
        // Crash-safe ordering: re-anchor everything replay recovered in
        // a fresh snapshot FIRST, so the quarantine moves and deletions
        // below never hold the only copy of a replayable frame. A crash
        // between any two steps re-runs this path idempotently.
        let mut body = Vec::new();
        storage.snapshot(&mut body)?;
        write_snapshot_file(dir, report.max_lsn, &body, fsync).map_err(wal_io)?;
        for (i, (_, path)) in segment_files.iter().enumerate() {
            if plan.dispositions[i] == SegmentDisposition::Quarantine {
                quarantine_file(dir, path, &plan.reasons[i], fsync).map_err(wal_io)?;
            } else {
                // Fully covered by the snapshot we just wrote.
                fs::remove_file(path).map_err(wal_io)?;
            }
        }
        if fsync {
            sync_dir(dir).map_err(wal_io)?;
        }
        FileSink::create(dir, next_lsn, fsync).map_err(wal_io)?
    } else {
        // Benign path: truncate torn tails in place, drop all-garbage
        // trailing files, resume appending to the last surviving segment.
        let mut surviving_last: Option<&PathBuf> = None;
        let mut touched = false;
        for (i, (_, path)) in segment_files.iter().enumerate() {
            match plan.dispositions[i] {
                SegmentDisposition::Keep => surviving_last = Some(path),
                SegmentDisposition::Truncate(valid_len) => {
                    OpenOptions::new()
                        .write(true)
                        .open(path)
                        .and_then(|f| f.set_len(valid_len as u64))
                        .map_err(wal_io)?;
                    surviving_last = Some(path);
                    touched = true;
                }
                SegmentDisposition::Remove => {
                    fs::remove_file(path).map_err(wal_io)?;
                    touched = true;
                }
                SegmentDisposition::Quarantine => unreachable!("handled above"),
            }
        }
        if fsync && touched {
            sync_dir(dir).map_err(wal_io)?;
        }
        match surviving_last {
            Some(path) => FileSink::resume(dir, path, fsync).map_err(wal_io)?,
            None => FileSink::create(dir, next_lsn, fsync).map_err(wal_io)?,
        }
    };
    let mut storage = storage;
    storage.attach_wal(WalWriter::new(Box::new(sink), next_lsn));
    Ok(Recovered { storage, report })
}

pub(crate) fn wal_io(e: std::io::Error) -> CqmsError {
    CqmsError::Wal(e.to_string())
}

/// Total tries (1 + retries) for a transient write-path fault.
const RETRY_ATTEMPTS: u32 = 3;
/// Backoff before the first retry, in milliseconds; doubles per retry,
/// capped at 8× this.
const RETRY_BASE_MS: u64 = 1;

/// Run a write-path `op` (a WAL flush, a snapshot write), retrying
/// transient faults with capped exponential backoff before surfacing the
/// error. Returns the final result and the retries spent.
pub(crate) fn retry_write<T, E>(op: impl FnMut() -> Result<T, E>) -> (Result<T, E>, u32) {
    crate::admission::retry_with_backoff(RETRY_ATTEMPTS, RETRY_BASE_MS, RETRY_BASE_MS * 8, op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::features::extract;
    use crate::storage::NewRecord;

    fn record(id: u64, sql: &str, session: u64) -> NewRecord {
        let stmt = sqlparse::parse(sql).ok();
        let feats = stmt.as_ref().map(|s| extract(s, None)).unwrap_or_default();
        make_record(
            QueryId(id),
            UserId(1),
            id * 10,
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
            SessionId(session),
            Visibility::Public,
        )
    }

    fn all_ops() -> Vec<WalOp> {
        vec![
            WalOp::Insert(Box::new(InsertFrame::of(&record(
                0,
                "SELECT * FROM WaterTemp WHERE temp < 18",
                0,
            )))),
            WalOp::Tombstone { id: QueryId(3) },
            WalOp::SetValidity {
                id: QueryId(1),
                validity: Validity::Flagged {
                    reason: "schema\tdrift".into(),
                    at: 99,
                },
            },
            WalOp::SetVisibility {
                id: QueryId(2),
                visibility: Visibility::Group(GroupId(7)),
            },
            WalOp::Edge {
                from: QueryId(0),
                to: QueryId(1),
                kind: EdgeKind::Investigation,
            },
            WalOp::Annotate {
                id: QueryId(0),
                author: UserId(4),
                at: 123,
                text: "unicode ✓ and\nnewline".into(),
                fragment: Some("temp < 18".into()),
            },
            WalOp::Reindex {
                id: QueryId(0),
                raw_sql: "SELECT * FROM LakeTemp WHERE temp < 18".into(),
            },
        ]
    }

    #[test]
    fn frames_roundtrip_every_op() {
        let mut buf = Vec::new();
        for (i, op) in all_ops().iter().enumerate() {
            encode_frame(&mut buf, i as u64 + 1, op);
        }
        let decoded = decode_log(&buf);
        assert_eq!(decoded.torn_bytes, 0);
        assert_eq!(decoded.valid_len, buf.len());
        assert_eq!(decoded.frames.len(), all_ops().len());
        for ((lsn, op), (i, expected)) in decoded.frames.iter().zip(all_ops().iter().enumerate()) {
            assert_eq!(*lsn, i as u64 + 1);
            assert_eq!(op, expected);
        }
    }

    #[test]
    fn torn_tail_is_detected_not_fatal() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, &WalOp::Tombstone { id: QueryId(0) });
        let good_len = buf.len();
        // A frame cut off mid-body.
        encode_frame(&mut buf, 2, &WalOp::Tombstone { id: QueryId(1) });
        buf.truncate(buf.len() - 3);
        let decoded = decode_log(&buf);
        assert_eq!(decoded.frames.len(), 1);
        assert_eq!(decoded.valid_len, good_len);
        assert!(decoded.torn_bytes > 0);
        // Pure garbage tail.
        let mut buf2 = buf[..good_len].to_vec();
        buf2.extend_from_slice(b"\xDE\xAD\xBE\xEF garbage bytes here");
        let decoded = decode_log(&buf2);
        assert_eq!(decoded.frames.len(), 1);
        assert_eq!(decoded.valid_len, good_len);
    }

    #[test]
    fn corrupted_crc_ends_the_scan() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, &WalOp::Tombstone { id: QueryId(0) });
        encode_frame(&mut buf, 2, &WalOp::Tombstone { id: QueryId(1) });
        // Flip one payload bit of the first frame: both frames after the
        // corruption point are distrusted.
        let flip = 8 + 8; // into the first frame's body, past the lsn
        buf[flip] ^= 0x40;
        let decoded = decode_log(&buf);
        assert_eq!(decoded.frames.len(), 0);
        assert_eq!(decoded.valid_len, 0);
        assert_eq!(decoded.torn_bytes, buf.len());
    }

    #[test]
    fn mem_sink_crash_discards_unsynced_tail() {
        let (sink, log) = MemSink::new();
        let mut w = WalWriter::new(Box::new(sink), 1);
        let mut storage = QueryStorage::new();
        storage.attach_wal(w_take(&mut w));

        storage.insert(record(0, "SELECT * FROM WaterTemp WHERE temp < 18", 0));
        storage.insert(record(1, "SELECT * FROM WaterTemp WHERE temp < 20", 0));
        storage.wal_flush().unwrap(); // durability point
        storage.insert(record(2, "SELECT * FROM Lakes", 1)); // never flushed

        let (recovered, report) = log.lock().recover().unwrap();
        assert_eq!(recovered.len(), 2, "unsynced insert lost, synced kept");
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.frames_failed, 0);
        assert_eq!(
            recovered.template_histogram(),
            {
                let mut reference = QueryStorage::new();
                reference.insert(record(0, "SELECT * FROM WaterTemp WHERE temp < 18", 0));
                reference.insert(record(1, "SELECT * FROM WaterTemp WHERE temp < 20", 0));
                reference.template_histogram()
            },
            "replayed histogram matches the acknowledged prefix"
        );
    }

    // Helper: move a writer into the storage (attach_wal takes ownership).
    fn w_take(w: &mut WalWriter) -> WalWriter {
        std::mem::replace(w, WalWriter::new(Box::new(NullSink), 1))
    }

    struct NullSink;
    impl LogSink for NullSink {
        fn append(&mut self, _: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
        fn sync(&mut self) -> std::io::Result<()> {
            Ok(())
        }
        fn rotate(&mut self, _: u64) -> std::io::Result<()> {
            Ok(())
        }
        fn prune(&mut self, _: u64) -> std::io::Result<()> {
            Ok(())
        }
        fn write_snapshot(&mut self, _: u64, _: &[u8]) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn snapshot_horizon_makes_replay_idempotent() {
        let (sink, log) = MemSink::new();
        let mut storage = QueryStorage::new();
        storage.attach_wal(WalWriter::new(Box::new(sink), 1));

        storage.insert(record(0, "SELECT * FROM WaterTemp WHERE temp < 18", 0));
        storage.insert(record(1, "SELECT * FROM Lakes", 0));
        storage.delete(QueryId(1)).unwrap();
        // Snapshot WITHOUT rotating/pruning first: the log still overlaps.
        let mut body = Vec::new();
        storage.snapshot(&mut body).unwrap();
        let horizon = storage.wal_last_lsn().unwrap();
        storage.wal_write_snapshot(horizon, &body).unwrap();
        // More ops past the horizon.
        storage.insert(record(2, "SELECT city FROM CityLocations", 1));
        storage.wal_flush().unwrap();

        let (recovered, report) = log.lock().recover().unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(recovered.live_count(), 2);
        assert_eq!(report.snapshot_lsn, horizon);
        assert_eq!(report.frames_failed, 0);
        assert_eq!(report.frames_replayed, 1, "only the post-horizon insert");
        assert_eq!(recovered.template_histogram(), storage.template_histogram());
    }

    #[test]
    fn mark_snapshot_rotates_and_prunes() {
        let (sink, log) = MemSink::new();
        let mut storage = QueryStorage::new();
        storage.attach_wal(WalWriter::new(Box::new(sink), 1));
        storage.insert(record(0, "SELECT * FROM Lakes", 0));
        storage.insert(record(1, "SELECT * FROM WaterTemp", 0));
        let mut body = Vec::new();
        storage.snapshot(&mut body).unwrap();
        let horizon = storage.wal_last_lsn().unwrap();
        storage.wal_write_snapshot(horizon, &body).unwrap();
        {
            let l = log.lock();
            // Rotation happened; the fully-covered first segment is not
            // yet pruned (its successor starts at horizon+1, so it IS
            // covered — prune removes it).
            assert_eq!(l.segments.len(), 1, "covered segment pruned");
            assert_eq!(l.segments[0].first_lsn, horizon + 1);
            assert_eq!(l.snapshots.len(), 1);
        }
        // Post-snapshot ops land in the fresh segment and replay on top.
        storage.insert(record(2, "SELECT city FROM CityLocations", 1));
        storage.wal_flush().unwrap();
        let (recovered, report) = log.lock().recover().unwrap();
        assert_eq!(recovered.len(), 3);
        assert_eq!(report.snapshot_records, 2);
        assert_eq!(report.frames_replayed, 1);
    }

    #[test]
    fn replay_covers_maintenance_style_mutations() {
        let (sink, log) = MemSink::new();
        let mut storage = QueryStorage::new();
        storage.attach_wal(WalWriter::new(Box::new(sink), 1));
        storage.insert(record(0, "SELECT temp FROM WaterTemp WHERE temp < 18", 0));
        storage.insert(record(1, "SELECT * FROM Lakes", 0));
        // Simulate the repair path: set_validity(Repaired), then reindex
        // the rewritten SQL — as maintenance.rs does.
        storage
            .set_validity(
                QueryId(0),
                Validity::Repaired {
                    original_sql: "SELECT temp FROM WaterTemp WHERE temp < 18".into(),
                    at: 42,
                },
            )
            .unwrap();
        let new_sql = "SELECT temperature FROM WaterTemp WHERE temperature < 18";
        let parsed = sqlparse::parse(new_sql).ok();
        storage
            .reindex(QueryId(0), new_sql, parsed.as_ref(), None)
            .unwrap();
        // Plus an annotation, an edge and a visibility change.
        storage
            .annotate(
                QueryId(1),
                Annotation {
                    author: UserId(2),
                    at: 50,
                    text: "lakes overview".into(),
                    fragment: None,
                },
            )
            .unwrap();
        storage.add_edge(SessionEdge {
            from: QueryId(0),
            to: QueryId(1),
            kind: EdgeKind::Evolution,
        });
        storage
            .set_visibility(QueryId(1), Visibility::Private)
            .unwrap();
        storage.wal_flush().unwrap();

        let (recovered, report) = log.lock().recover().unwrap();
        assert_eq!(report.frames_failed, 0);
        let r0 = recovered.get(QueryId(0)).unwrap();
        assert!(r0.raw_sql.contains("temperature"));
        assert!(matches!(r0.validity, Validity::Repaired { .. }));
        assert_eq!(r0.template_fp, storage.get(QueryId(0)).unwrap().template_fp);
        assert_eq!(recovered.template_histogram(), storage.template_histogram());
        let r1 = recovered.get(QueryId(1)).unwrap();
        assert_eq!(r1.annotations.len(), 1);
        assert_eq!(r1.visibility, Visibility::Private);
        assert_eq!(recovered.edges().len(), 1);
        // The repaired text is searchable again in the recovered store.
        assert_eq!(
            recovered.trigram_index().search("temperature < 18"),
            vec![0]
        );
    }

    #[test]
    fn file_sink_roundtrip_with_torn_tail() {
        let dir = std::env::temp_dir().join(format!("cqms-wal-unit-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        {
            let rec = open_dir(&dir, true, None).unwrap();
            let mut storage = rec.storage;
            storage.insert(record(0, "SELECT * FROM WaterTemp WHERE temp < 18", 0));
            storage.insert(record(1, "SELECT * FROM Lakes", 0));
            storage.wal_flush().unwrap();
        } // dropped without snapshot: the log is the only durable state

        // Corrupt the tail: append half a frame's worth of garbage.
        let (_, seg_path) = list_segments(&dir).unwrap().pop().unwrap();
        let pre_len = fs::metadata(&seg_path).unwrap().len();
        {
            let mut f = OpenOptions::new().append(true).open(&seg_path).unwrap();
            f.write_all(&[0x13, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
        }

        let rec = open_dir(&dir, true, None).unwrap();
        assert_eq!(rec.storage.len(), 2);
        assert_eq!(rec.report.frames_replayed, 2);
        assert_eq!(rec.report.frames_failed, 0);
        assert_eq!(rec.report.torn_bytes_truncated, 6);
        // The file was physically truncated back to the valid prefix.
        assert_eq!(fs::metadata(&seg_path).unwrap().len(), pre_len);
        // And the store keeps working: next insert appends past max_lsn.
        let mut storage = rec.storage;
        storage.insert(record(2, "SELECT city FROM CityLocations", 1));
        storage.wal_flush().unwrap();
        let rec = open_dir(&dir, true, None).unwrap();
        assert_eq!(rec.storage.len(), 3);
        assert_eq!(rec.report.frames_failed, 0);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn file_sink_snapshot_cycle_bounds_the_log() {
        let dir = std::env::temp_dir().join(format!("cqms-wal-snap-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        let rec = open_dir(&dir, true, None).unwrap();
        let mut storage = rec.storage;
        for i in 0..4 {
            storage.insert(record(i, "SELECT * FROM Lakes", 0));
        }
        let mut body = Vec::new();
        storage.snapshot(&mut body).unwrap();
        let horizon = storage.wal_last_lsn().unwrap();
        storage.wal_write_snapshot(horizon, &body).unwrap();
        assert_eq!(list_snapshots(&dir).unwrap().len(), 1);
        assert_eq!(
            list_segments(&dir).unwrap().len(),
            1,
            "covered segment pruned, fresh one open"
        );
        storage.insert(record(4, "SELECT * FROM WaterTemp", 1));
        storage.wal_flush().unwrap();

        let rec = open_dir(&dir, true, None).unwrap();
        assert_eq!(rec.storage.len(), 5);
        assert_eq!(rec.report.snapshot_records, 4);
        assert_eq!(rec.report.frames_replayed, 1);
        assert_eq!(rec.report.frames_failed, 0);

        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_report_renders_one_line() {
        let report = RecoveryReport {
            snapshot_lsn: 10,
            snapshot_records: 4,
            segments_scanned: 2,
            frames_replayed: 3,
            frames_skipped: 1,
            frames_failed: 0,
            torn_bytes_truncated: 6,
            frames_lost: 2,
            bytes_quarantined: 77,
            max_lsn: 14,
        };
        let line = report.to_string();
        assert!(line.contains("snapshot@10"));
        assert!(line.contains("3 replayed"));
        assert!(line.contains("2 frame(s) lost"));
        assert!(line.contains("77 byte(s) quarantined"));
        assert!(line.contains("next lsn 15"));
        assert!(report.lossy());
        assert!(!RecoveryReport::default().lossy());
    }

    #[test]
    fn salvage_scan_resyncs_past_midlog_corruption() {
        let mut buf = Vec::new();
        encode_frame(&mut buf, 1, &WalOp::Tombstone { id: QueryId(0) });
        let first_len = buf.len();
        encode_frame(&mut buf, 2, &WalOp::Tombstone { id: QueryId(1) });
        let second_len = buf.len() - first_len;
        encode_frame(&mut buf, 3, &WalOp::Tombstone { id: QueryId(2) });
        // Destroy the middle frame's CRC: decode stops there, salvage
        // resynchronises on the third frame.
        buf[first_len + 4] ^= 0xFF;
        let runs = salvage_scan(&buf);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].offset, 0);
        assert_eq!(runs[0].len, first_len);
        assert_eq!(runs[0].frames.len(), 1);
        assert_eq!(runs[0].frames[0].0, 1);
        assert_eq!(runs[1].offset, first_len + second_len);
        assert_eq!(runs[1].frames.len(), 1);
        assert_eq!(runs[1].frames[0].0, 3);
        // A clean log is a single run covering everything.
        let mut clean = Vec::new();
        encode_frame(&mut clean, 1, &WalOp::Tombstone { id: QueryId(0) });
        encode_frame(&mut clean, 2, &WalOp::Tombstone { id: QueryId(1) });
        let runs = salvage_scan(&clean);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].frames.len(), 2);
        assert_eq!(runs[0].len, clean.len());
    }

    #[test]
    fn recover_reports_lost_frames_on_broken_continuity() {
        let mut buf = Vec::new();
        for lsn in 1..=5u64 {
            encode_frame(
                &mut buf,
                lsn,
                // Storage ids are dense from 0; lsns start at 1.
                &WalOp::Insert(Box::new(InsertFrame::of(&record(
                    lsn - 1,
                    "SELECT * FROM Lakes",
                    0,
                )))),
            );
        }
        // Wreck frame 3 (offsets: each frame is buf.len()/5 bytes — they
        // are identical ops except the id, so equal length).
        let frame_len = buf.len() / 5;
        buf[2 * frame_len + 4] ^= 0xFF;
        let (storage, report, plan) = recover(None, &[(1, buf.clone())], None).unwrap();
        // Frames 1-2 replay; 4-5 decode but continuity broke at 3.
        assert_eq!(report.frames_replayed, 2);
        assert_eq!(report.frames_lost, 2);
        assert!(report.bytes_quarantined >= 2 * frame_len);
        assert_eq!(report.torn_bytes_truncated, 0);
        assert_eq!(report.max_lsn, 2, "lost frames do not advance max_lsn");
        assert_eq!(storage.len(), 2);
        assert_eq!(plan.dispositions, vec![SegmentDisposition::Quarantine]);
        assert!(plan.needs_quarantine());
        assert!(plan.reasons[0].contains("2 frame(s) lost"));
    }

    #[test]
    fn recover_salvages_snapshot_covered_corruption_without_loss() {
        // Corruption confined to frames a snapshot already covers is no
        // loss at all: later frames resume exactly at horizon + 1.
        let mut buf = Vec::new();
        let mut storage = QueryStorage::new();
        for lsn in 1..=4u64 {
            // Storage ids are dense from 0; lsns start at 1.
            let rec = record(lsn - 1, "SELECT * FROM Lakes", 0);
            if lsn <= 2 {
                storage.insert(rec.clone());
            }
            encode_frame(
                &mut buf,
                lsn,
                &WalOp::Insert(Box::new(InsertFrame::of(&rec))),
            );
        }
        let mut snap = Vec::new();
        storage.snapshot(&mut snap).unwrap();
        let frame_len = buf.len() / 4;
        buf[4] ^= 0xFF; // wreck frame 1 (lsn 1 <= horizon 2: covered)
        let (recovered, report, plan) = recover(Some((2, &snap)), &[(1, buf)], None).unwrap();
        assert_eq!(report.frames_lost, 0, "covered corruption loses nothing");
        assert_eq!(report.frames_replayed, 2, "lsn 3 and 4 salvaged");
        assert_eq!(report.frames_skipped, 1, "lsn 2 is a duplicate");
        assert!(report.bytes_quarantined >= frame_len);
        assert_eq!(recovered.len(), 4);
        assert!(plan.needs_quarantine());
    }

    #[test]
    fn snapshot_crc_trailer_roundtrip_and_mismatch() {
        let dir = std::env::temp_dir().join(format!("cqms-wal-crc-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let body = b"line one\nline two\n";
        write_snapshot_file(&dir, 7, body, false).unwrap();
        let path = snapshot_path(&dir, 7);
        let (h, read_body) = read_snapshot_file(&path).unwrap();
        assert_eq!(h, 7);
        assert_eq!(read_body, body);
        // Flip a body byte: the checksum catches what parsing might not.
        let mut raw = fs::read(&path).unwrap();
        let i = raw.len() - SNAPSHOT_TRAILER_LEN - 3;
        raw[i] ^= 0x01;
        fs::write(&path, &raw).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // The trailer covers the header too: a flipped horizon digit
        // (`7` -> `5`) must not silently re-anchor replay.
        write_snapshot_file(&dir, 7, body, false).unwrap();
        let mut raw = fs::read(&path).unwrap();
        let j = b"wal-horizon ".len();
        raw[j] ^= 0x02;
        fs::write(&path, &raw).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"), "{err}");
        // A file cut off before its trailer — even at a clean line
        // boundary — is rejected, not read as a shorter snapshot.
        let mut cut = b"wal-horizon 7\n".to_vec();
        cut.extend_from_slice(body);
        fs::write(&path, &cut).unwrap();
        let err = read_snapshot_file(&path).unwrap_err();
        assert!(err.to_string().contains("missing its"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_dir_quarantines_midlog_corruption_and_reanchors() {
        let dir = std::env::temp_dir().join(format!("cqms-wal-quar-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);

        {
            let rec = open_dir(&dir, true, None).unwrap();
            let mut storage = rec.storage;
            for i in 0..5 {
                storage.insert(record(i, "SELECT * FROM Lakes", 0));
            }
            storage.wal_flush().unwrap();
        }
        // Wreck an early frame mid-log: frames after it decode but lose
        // continuity, so they are real loss — reported, not silent.
        let (_, seg_path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut raw = fs::read(&seg_path).unwrap();
        let frame_len = raw.len() / 5;
        raw[2 * frame_len + 4] ^= 0xFF;
        fs::write(&seg_path, &raw).unwrap();

        let rec = open_dir(&dir, true, None).unwrap();
        assert_eq!(rec.storage.len(), 2);
        assert_eq!(rec.report.frames_lost, 2);
        assert!(rec.report.lossy());
        // The damaged segment moved to quarantine/ with a manifest line.
        assert!(!seg_path.exists());
        let manifest = fs::read_to_string(dir.join("quarantine").join("MANIFEST.txt")).unwrap();
        assert!(manifest.contains("frame(s) lost"), "{manifest}");
        assert_eq!(fs::read_dir(dir.join("quarantine")).unwrap().count(), 2);
        // Survivors were re-anchored in a snapshot; the next open is
        // clean and converges (no double-apply, nothing newly lost).
        let rec2 = open_dir(&dir, true, None).unwrap();
        assert_eq!(rec2.storage.len(), 2);
        assert!(!rec2.report.lossy());
        assert_eq!(rec2.report.max_lsn, rec.report.max_lsn);
        assert_eq!(
            rec2.storage.template_histogram(),
            rec.storage.template_histogram()
        );

        fs::remove_dir_all(&dir).unwrap();
    }
}
