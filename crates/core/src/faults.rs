//! Deterministic fault injection for chaos testing.
//!
//! A shared CQMS deployment has to keep its durability and degradation
//! promises *under* failure — a log device that starts erroring, a shard
//! that suddenly answers slowly, a miner epoch that panics. This module
//! provides the failpoints the chaos suite (`tests/faults.rs`) and the CI
//! chaos-stress step drive:
//!
//! * A [`FaultPlan`] is a registry of named failpoints. Production code
//!   calls [`FaultPlan::hit`] at each point; an unarmed plan is a single
//!   relaxed atomic load, so the hooks cost nothing in normal operation.
//! * Each armed point carries a [`FaultAction`] — fail with an injected
//!   I/O error, stall for a fixed delay, or panic — and a trigger budget
//!   (fire N times, then disarm).
//! * [`FaultySink`] wraps any [`LogSink`] and consults a plan before
//!   delegating, so WAL appends/syncs/snapshot writes can be made to fail
//!   or stall without touching the sink implementations themselves.
//! * The process-wide [`global_plan`] is parsed **once** from the
//!   `CQMS_FAULTS` environment variable, letting CI arm ambient faults
//!   (e.g. a 1 ms read delay on every shard) for whole test-suite runs.
//!
//! ## Failpoint catalogue
//!
//! | point | constant | where it fires |
//! |---|---|---|
//! | `wal.append` | [`WAL_APPEND`] | [`FaultySink::append`], before delegating |
//! | `wal.sync` | [`WAL_SYNC`] | [`FaultySink::sync`], before delegating |
//! | `wal.snapshot` | [`SNAPSHOT_WRITE`] | [`FaultySink::write_snapshot`] and the miner's off-lock snapshot write |
//! | `shard.read` | [`SHARD_READ`] | service read path, before the read lock |
//! | `miner.epoch` | [`MINER_EPOCH`] | background-miner loop, before each epoch |
//! | `repair.attempt` | [`REPAIR_ATTEMPT`] | repair supervisor, before each shard recovery attempt |
//! | `wal.quarantine` | [`WAL_QUARANTINE`] | `open_dir`, before moving a corrupt file into `quarantine/` |
//!
//! ## `CQMS_FAULTS` syntax
//!
//! Comma-separated `point=action` entries; an action is `fail`, `panic`,
//! or `delay:<n>ms`, optionally suffixed with `:<times>` (default:
//! unlimited). Examples:
//!
//! ```text
//! CQMS_FAULTS="shard.read=delay:1ms"          # every read stalls 1 ms
//! CQMS_FAULTS="wal.sync=fail:2,miner.epoch=panic:1"
//! ```

use crate::wal::LogSink;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Failpoint: WAL frame append through a [`FaultySink`].
pub const WAL_APPEND: &str = "wal.append";
/// Failpoint: WAL durability sync through a [`FaultySink`].
pub const WAL_SYNC: &str = "wal.sync";
/// Failpoint: snapshot file write (sink-level and the miner's off-lock path).
pub const SNAPSHOT_WRITE: &str = "wal.snapshot";
/// Failpoint: service read path, hit before the shard read lock is taken.
pub const SHARD_READ: &str = "shard.read";
/// Failpoint: background miner, hit at the top of every epoch attempt.
pub const MINER_EPOCH: &str = "miner.epoch";
/// Failpoint: repair supervisor, hit before each shard recovery attempt.
pub const REPAIR_ATTEMPT: &str = "repair.attempt";
/// Failpoint: `wal::open_dir`, hit before a corrupt segment or snapshot
/// is moved into `quarantine/`.
pub const WAL_QUARANTINE: &str = "wal.quarantine";

/// What an armed failpoint does when hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Return an injected `io::Error` from the failpoint.
    Fail,
    /// Sleep this long, then proceed normally.
    Delay(Duration),
    /// Panic (the miner loop must survive this; see `tests/faults.rs`).
    Panic,
}

/// One armed failpoint: an action and how many more times it fires.
#[derive(Debug, Clone, Copy)]
struct FaultSpec {
    action: FaultAction,
    /// Remaining trigger budget; `u64::MAX` means unlimited.
    remaining: u64,
}

/// A registry of named failpoints shared by everything that injects or
/// checks faults. Cloned by `Arc`; an unarmed plan costs one relaxed
/// atomic load per [`FaultPlan::hit`].
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Fast path: false ⇒ no failpoint is armed, skip the lock entirely.
    armed: AtomicBool,
    /// Armed failpoints by name.
    specs: Mutex<HashMap<String, FaultSpec>>,
    /// Total fires per point (survives disarm, for test assertions).
    fired: Mutex<HashMap<String, u64>>,
}

impl FaultPlan {
    /// A plan with nothing armed.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Arm `point` with `action` for `times` triggers (`None` = unlimited).
    pub fn arm(&self, point: &str, action: FaultAction, times: Option<u64>) {
        let mut specs = self.specs.lock();
        specs.insert(
            point.to_string(),
            FaultSpec {
                action,
                remaining: times.unwrap_or(u64::MAX),
            },
        );
        self.armed.store(true, Ordering::Release);
    }

    /// Disarm `point` (no-op when not armed).
    pub fn disarm(&self, point: &str) {
        let mut specs = self.specs.lock();
        specs.remove(point);
        if specs.is_empty() {
            self.armed.store(false, Ordering::Release);
        }
    }

    /// Disarm every failpoint.
    pub fn disarm_all(&self) {
        self.specs.lock().clear();
        self.armed.store(false, Ordering::Release);
    }

    /// How many times `point` has fired since the plan was created.
    pub fn fired(&self, point: &str) -> u64 {
        *self.fired.lock().get(point).unwrap_or(&0)
    }

    /// Evaluate failpoint `point`: returns the injected error when armed
    /// with [`FaultAction::Fail`], sleeps first when armed with
    /// [`FaultAction::Delay`], panics when armed with
    /// [`FaultAction::Panic`], and is free when unarmed.
    pub fn hit(&self, point: &str) -> io::Result<()> {
        if !self.armed.load(Ordering::Acquire) {
            return Ok(());
        }
        let action = {
            let mut specs = self.specs.lock();
            let Some(spec) = specs.get_mut(point) else {
                return Ok(());
            };
            let action = spec.action;
            if spec.remaining != u64::MAX {
                spec.remaining -= 1;
                if spec.remaining == 0 {
                    specs.remove(point);
                    if specs.is_empty() {
                        self.armed.store(false, Ordering::Release);
                    }
                }
            }
            *self.fired.lock().entry(point.to_string()).or_insert(0) += 1;
            action
        };
        match action {
            FaultAction::Fail => Err(io::Error::other(format!("injected fault at {point}"))),
            FaultAction::Delay(d) => {
                // Sleep outside the spec lock so a delayed point never
                // blocks arming/disarming or other points.
                std::thread::sleep(d);
                Ok(())
            }
            FaultAction::Panic => panic!("injected panic at {point}"),
        }
    }

    /// Parse a plan from `CQMS_FAULTS`-style text (see module docs).
    /// Malformed entries are ignored rather than failing startup.
    pub fn parse(spec: &str) -> Self {
        let plan = FaultPlan::new();
        for entry in spec.split([',', ';']) {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let Some((point, action)) = entry.split_once('=') else {
                continue;
            };
            let mut parts = action.split(':');
            let kind = parts.next().unwrap_or("");
            let (action, times) = match kind {
                "fail" => (FaultAction::Fail, parts.next()),
                "panic" => (FaultAction::Panic, parts.next()),
                "delay" => {
                    let Some(ms) = parts
                        .next()
                        .and_then(|d| d.trim_end_matches("ms").parse::<u64>().ok())
                    else {
                        continue;
                    };
                    (FaultAction::Delay(Duration::from_millis(ms)), parts.next())
                }
                _ => continue,
            };
            let times = times.and_then(|t| t.parse::<u64>().ok());
            plan.arm(point.trim(), action, times);
        }
        plan
    }
}

/// The process-wide plan, parsed once from the `CQMS_FAULTS` environment
/// variable (an unset/empty variable yields a permanently inert plan).
/// Services built without an explicit plan consult this one, which is how
/// CI arms ambient faults for a whole suite run.
pub fn global_plan() -> Arc<FaultPlan> {
    static GLOBAL: OnceLock<Arc<FaultPlan>> = OnceLock::new();
    GLOBAL
        .get_or_init(|| {
            let spec = std::env::var("CQMS_FAULTS").unwrap_or_default();
            Arc::new(FaultPlan::parse(&spec))
        })
        .clone()
}

/// A [`LogSink`] decorator that consults a [`FaultPlan`] before delegating
/// the failure-relevant operations (append, sync, snapshot write). Rotate,
/// prune and directory queries pass straight through — they are not
/// durability acknowledgement points.
pub struct FaultySink {
    inner: Box<dyn LogSink>,
    plan: Arc<FaultPlan>,
}

impl FaultySink {
    /// Wrap `inner`, injecting faults from `plan`.
    pub fn new(inner: Box<dyn LogSink>, plan: Arc<FaultPlan>) -> Self {
        FaultySink { inner, plan }
    }
}

impl LogSink for FaultySink {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.plan.hit(WAL_APPEND)?;
        self.inner.append(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.plan.hit(WAL_SYNC)?;
        self.inner.sync()
    }

    fn rotate(&mut self, next_lsn: u64) -> io::Result<()> {
        self.inner.rotate(next_lsn)
    }

    fn prune(&mut self, horizon: u64) -> io::Result<()> {
        self.inner.prune(horizon)
    }

    fn write_snapshot(&mut self, horizon: u64, body: &[u8]) -> io::Result<()> {
        self.plan.hit(SNAPSHOT_WRITE)?;
        self.inner.write_snapshot(horizon, body)
    }

    fn snapshot_dir(&self) -> Option<std::path::PathBuf> {
        self.inner.snapshot_dir()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unarmed_plan_is_free_and_ok() {
        let plan = FaultPlan::new();
        assert!(plan.hit(WAL_SYNC).is_ok());
        assert_eq!(plan.fired(WAL_SYNC), 0);
    }

    #[test]
    fn fail_budget_counts_down_and_disarms() {
        let plan = FaultPlan::new();
        plan.arm(WAL_SYNC, FaultAction::Fail, Some(2));
        assert!(plan.hit(WAL_SYNC).is_err());
        assert!(plan.hit(WAL_SYNC).is_err());
        assert!(plan.hit(WAL_SYNC).is_ok(), "budget exhausted → disarmed");
        assert_eq!(plan.fired(WAL_SYNC), 2);
        // Fully disarmed again → fast path.
        assert!(!plan.armed.load(Ordering::Acquire));
    }

    #[test]
    fn delay_sleeps_then_succeeds() {
        let plan = FaultPlan::new();
        plan.arm(
            SHARD_READ,
            FaultAction::Delay(Duration::from_millis(15)),
            None,
        );
        let t0 = std::time::Instant::now();
        assert!(plan.hit(SHARD_READ).is_ok());
        assert!(t0.elapsed() >= Duration::from_millis(10));
        plan.disarm(SHARD_READ);
        assert!(plan.hit(SHARD_READ).is_ok());
    }

    #[test]
    #[should_panic(expected = "injected panic")]
    fn panic_action_panics() {
        let plan = FaultPlan::new();
        plan.arm(MINER_EPOCH, FaultAction::Panic, Some(1));
        let _ = plan.hit(MINER_EPOCH);
    }

    #[test]
    fn parses_env_syntax() {
        let plan = FaultPlan::parse("wal.sync=fail:2, shard.read=delay:5ms ,miner.epoch=panic:1");
        {
            let specs = plan.specs.lock();
            assert_eq!(specs["wal.sync"].remaining, 2);
            assert_eq!(specs["wal.sync"].action, FaultAction::Fail);
            assert_eq!(
                specs["shard.read"].action,
                FaultAction::Delay(Duration::from_millis(5))
            );
            assert_eq!(specs["shard.read"].remaining, u64::MAX);
            assert_eq!(specs["miner.epoch"].action, FaultAction::Panic);
        }
        // Garbage entries are skipped, not fatal.
        let junk = FaultPlan::parse("nonsense,point=explode,x=delay:zzz");
        assert!(!junk.armed.load(Ordering::Acquire));
    }

    #[test]
    fn faulty_sink_injects_into_wal_writer() {
        use crate::model::QueryId;
        use crate::wal::{MemSink, WalOp, WalWriter};
        let (sink, log) = MemSink::new();
        let plan = Arc::new(FaultPlan::new());
        let mut w = WalWriter::new(Box::new(FaultySink::new(Box::new(sink), plan.clone())), 1);
        w.log(&WalOp::Tombstone { id: QueryId(1) });
        assert!(w.flush().is_ok());
        plan.arm(WAL_SYNC, FaultAction::Fail, Some(1));
        w.log(&WalOp::Tombstone { id: QueryId(2) });
        assert!(w.flush().is_err(), "injected sync failure surfaces");
        // After the budget is spent the next flush succeeds and both ops
        // become durable (a failed flush loses nothing).
        assert!(w.flush().is_ok());
        let (_, segments) = log.lock().durable_state();
        let synced: usize = segments.iter().map(|(_, b)| b.len()).sum();
        assert!(synced > 0, "ops reached the durable log after recovery");
    }
}
