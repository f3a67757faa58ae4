//! # cqms-core — the Collaborative Query Management System
//!
//! A complete implementation of the CQMS engine proposed in *"A Case for A
//! Collaborative Query Management System"* (Khoussainova, Balazinska,
//! Gatterbauer, Kwon, Suciu — CIDR 2009), covering all four interaction
//! modes (§2) and all four server components of Figure 4:
//!
//! | Paper component | Module |
//! |---|---|
//! | Query Profiler (§4.1) | [`profiler`], [`features`] |
//! | Query Storage (§4.1) | [`storage`] (incl. each query's rows of the Figure 1 feature relations) |
//! | Meta-query Executor (§4.2) | [`metaquery`], [`similarity`] |
//! | Query Miner (§4.3) | [`miner`] (sessions, edit patterns, tutorials; association rules and clustering, served as snapshot reads) |
//! | Query Maintenance (§4.4) | [`maintenance`] |
//! | Assisted Interaction (§2.3) | [`assist`] (completion, correction, recommendation) |
//! | Administrative Interaction (§2.4) | [`admin`] |
//! | Client rendering (Figs. 2–3) | [`viz`] (served viewer-scoped by the snapshot) |
//!
//! Three types carry the public surface. [`server::Cqms`] owns one
//! embedded [`relstore::Engine`] — the data tier — and the `&mut` write
//! logic (run + profile a query, annotate, ACLs, miner epochs,
//! maintenance). Every read that does not need that live engine is
//! declared once, on the immutable
//! [`snapshot::ReadSnapshot`] that [`server::Cqms::capture_snapshot`]
//! returns:
//!
//! ```
//! use cqms_core::{Cqms, CqmsConfig};
//!
//! let mut engine = relstore::Engine::new();
//! engine.execute("CREATE TABLE Lakes (name TEXT, area FLOAT)").unwrap();
//! let mut cqms = Cqms::new(engine, CqmsConfig::default());
//! let alice = cqms.register_user("alice");
//! cqms.run_query(alice, "SELECT name FROM Lakes WHERE area > 50").unwrap();
//!
//! let snap = cqms.capture_snapshot(0);
//! assert_eq!(snap.search_keyword(alice, "lakes", 5).len(), 1);
//! assert!(!snap.complete(alice, "SELECT * FROM ", 3).is_empty());
//! ```
//!
//! For shared multi-threaded use — many analysts completing and searching
//! while writers ingest and the miner runs in the background —
//! [`shard::ShardedCqms`] splits the log over independently locked
//! [`service::CqmsService`] cells, each of which publishes a fresh
//! snapshot per write; readers pin one (`service.snapshot()`) and never
//! take the store lock. See `examples/quickstart.rs`.
//!
//! Durable deployments build the façade with [`server::Cqms::open`], which
//! attaches the [`wal`] write-ahead log and replays it on restart; see
//! `ARCHITECTURE.md` at the repo root for the recovery state machine.

#![warn(missing_docs)]

pub mod admin;
pub mod admission;
pub mod assist;
pub mod config;
pub mod error;
pub mod faults;
pub mod features;
pub mod indexreg;
pub mod maintenance;
pub mod metaquery;
pub mod metricindex;
pub mod miner;
pub mod model;
pub mod profiler;
pub mod server;
pub mod service;
pub mod shard;
pub mod signature;
pub mod similarity;
pub mod snapshot;
pub mod storage;
pub mod viz;
pub mod wal;

pub use admission::{AdmissionGate, AdmissionStats};
pub use config::CqmsConfig;
pub use error::CqmsError;
pub use faults::{FaultAction, FaultPlan, FaultySink};
pub use model::{Annotation, QueryId, QueryRecord, SessionId, UserId, Visibility};
pub use server::Cqms;
pub use service::{CqmsService, IngestItem};
pub use shard::{PartialResult, ShardHealth, ShardState, ShardedCqms};
pub use snapshot::ReadSnapshot;
pub use wal::{RecoveryReport, SalvagePlan, SegmentDisposition};
