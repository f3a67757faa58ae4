//! The pinned deployment, the pristine crash image, and the scratch-dir
//! plumbing every round uses.

use crate::ops::{Item, Spec, BATCH};
use cqms_core::model::UserId;
use cqms_core::{CqmsConfig, CqmsError, IngestItem, QueryId, ShardedCqms};
use std::fs;
use std::io;
use std::path::Path;
use std::time::Instant;
use workload::{Domain, Trace, TraceConfig};

pub const SHARDS: usize = 2;
pub const USERS: u32 = 32;
pub const DATA_SCALE: usize = 300;
pub const SNAPSHOT_EVERY_OPS: u64 = 2048;

/// The one configuration every workload runs: defaults, except two shards,
/// flush-without-fsync acks, a 2048-op snapshot cadence and no background
/// repair loop. Reading `CqmsConfig::default()` consults `CQMS_*`
/// variables, which is why [`refuse_cqms_env`] runs first.
pub fn pinned_config() -> CqmsConfig {
    CqmsConfig {
        shards: SHARDS,
        wal_fsync: false,
        snapshot_every_ops: SNAPSHOT_EVERY_OPS,
        repair_interval_ms: 0,
        ..CqmsConfig::default()
    }
}

/// One line describing [`pinned_config`], for result-file headers.
pub fn pinned_summary() -> String {
    format!(
        "shards={SHARDS} wal_fsync=false snapshot_every_ops={SNAPSHOT_EVERY_OPS} \
         repair_interval_ms=0 miner=synchronous domain=Lakes data_scale={DATA_SCALE} users={USERS}"
    )
}

/// The deployment is pinned; an ambient `CQMS_*` variable would silently
/// change it (shard count, admission, fault injection).
pub fn refuse_cqms_env() -> Result<(), String> {
    match std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("CQMS_")) {
        Some((k, _)) => Err(format!(
            "{} is set: the ledger's deployment is pinned, unset every CQMS_* variable",
            k.to_string_lossy()
        )),
        None => Ok(()),
    }
}

/// Seed of the query pool and of the data tier. Fixed: `--seed` permutes
/// the pool (see [`crate::ops::arrange`]), it does not draw a new one.
pub const POOL_SEED: u64 = 0xC1D2_2009;

/// Generate the pool `spec` consumes: schema, data and a query log at
/// least `pool_queries()` long. Sessions average about six queries; a
/// fifth more are generated than needed and the surplus is ignored.
pub fn generate_pool(spec: &Spec) -> Trace {
    let need = spec.pool_queries();
    let trace = Trace::generate(TraceConfig {
        domain: Domain::Lakes,
        data_scale: DATA_SCALE,
        users: USERS,
        sessions: (need / 5 + 8) as u32,
        session_len: 5,
        seed: POOL_SEED,
    });
    assert!(
        trace.queries.len() >= need,
        "pool has {} queries, {} needs {need}",
        trace.queries.len(),
        spec.name
    );
    trace
}

/// Open the deployment under `dir` and re-register the analysts (the
/// directory is not persisted; same order ⇒ same dense ids). Returns the
/// service, the trace-user → `UserId` table and the seconds `open` took.
pub fn open(trace: &Trace, dir: &Path) -> Result<(ShardedCqms, Vec<UserId>, f64), CqmsError> {
    // The factory outlives this call (repair re-opens shards with it), so
    // it owns what `build_engine` needs: the config, not the query log.
    let data_tier = Trace {
        config: trace.config.clone(),
        queries: Vec::new(),
        rules: Vec::new(),
    };
    let t = Instant::now();
    let svc = ShardedCqms::open(move || data_tier.build_engine(), pinned_config(), dir)?;
    let open_s = t.elapsed().as_secs_f64();
    let users = register_users(|name| svc.register_user(name));
    Ok((svc, users, open_s))
}

pub fn register_users(mut register: impl FnMut(&str) -> UserId) -> Vec<UserId> {
    (0..USERS)
        .map(|i| register(&format!("analyst-{i}")))
        .collect()
}

pub fn ingest_item(users: &[UserId], item: &Item) -> IngestItem {
    IngestItem::at(users[item.user as usize], item.sql.clone(), item.ts)
}

/// What building the image produced besides the directory.
pub struct Image {
    /// Global id acked for each preloaded query, in preload order.
    pub ids: Vec<QueryId>,
    pub preload_s: f64,
}

/// Build the pristine crash image of `spec` under `dir`: ingest `preload`
/// in batches of 64 with the stated miner epochs, force a snapshot after
/// the last epoch, ingest the WAL tail, and drop the service without
/// `shutdown()`.
pub fn build_image(
    spec: &Spec,
    trace: &Trace,
    preload: &[Item],
    dir: &Path,
) -> Result<Image, String> {
    let t = Instant::now();
    remove_dir(dir);
    let (svc, users, _) = open(trace, dir).map_err(|e| e.to_string())?;
    let p = spec.preload;
    let body = p.queries - p.wal_tail;
    let mut ids = Vec::with_capacity(p.queries);
    let mut ingest = |range: std::ops::Range<usize>| -> Result<(), String> {
        for chunk in preload[range].chunks(BATCH) {
            let items: Vec<IngestItem> = chunk.iter().map(|q| ingest_item(&users, q)).collect();
            for res in svc.ingest_batch(&items) {
                ids.push(res.map_err(|e| format!("preload: {e}"))?);
            }
        }
        Ok(())
    };
    if p.epochs == 0 {
        ingest(0..body)?;
    } else {
        for e in 0..p.epochs {
            ingest(body * e / p.epochs..body * (e + 1) / p.epochs)?;
            for report in svc.run_miner_epoch() {
                if let Some(err) = report.wal_flush_error {
                    return Err(format!("preload epoch: {err}"));
                }
            }
        }
        for shard in svc.shards() {
            shard
                .write(|cqms| cqms.force_snapshot())
                .map_err(|e| format!("preload snapshot: {e}"))?;
        }
    }
    ingest(body..p.queries)?;
    drop(svc); // crash: no shutdown(), the image is whatever was acked
    Ok(Image {
        ids,
        preload_s: t.elapsed().as_secs_f64(),
    })
}

// ----------------------------------------------------------------------
// Scratch directories
// ----------------------------------------------------------------------

/// Everything the ledger writes lives under this directory of the current
/// one.
pub const RUN_DIR: &str = "ledger-run";

pub fn remove_dir(dir: &Path) {
    // Missing is fine; anything else surfaces at the next create.
    let _ = fs::remove_dir_all(dir);
}

/// Recursively copy `from` into a fresh `to`.
pub fn copy_dir(from: &Path, to: &Path) -> io::Result<()> {
    remove_dir(to);
    fs::create_dir_all(to)?;
    for entry in fs::read_dir(from)? {
        let entry = entry?;
        let dest = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &dest)?;
        } else {
            fs::copy(entry.path(), dest)?;
        }
    }
    Ok(())
}

/// Total bytes of regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> io::Result<u64> {
    let mut total = 0;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}
