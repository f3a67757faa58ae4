//! The Query Miner (Figure 4, §4.3): analysis of the query log.
//!
//! * [`sessions`] — offline session segmentation + quality metrics;
//! * [`cluster`] — k-medoids query/session clustering with purity and
//!   adjusted-Rand-index scoring (served as a snapshot read);
//! * [`assoc`] — Apriori association-rule mining over query feature
//!   itemsets (powers context-aware completion, §2.3);
//! * [`editpatterns`] — frequent edit-sequence mining over session edges;
//! * [`tutorial`] — automatic tutorial generation (§2.3: "introduce each
//!   relation … by showing the user the most popular queries that include
//!   the relation").
//!
//! The miner *epoch* computes only what a read consumes (rules, refined
//! sessions) and is also where *scheduled index rebuilds* execute: the
//! Query Storage's [`crate::indexreg::IndexRegistry`] only ever flags
//! that a structural rebuild is wanted (tombstone threshold, maintenance
//! reindex, summary refresh), and [`crate::server::Cqms::run_miner_epoch`]
//! / the background miner thread build generation N+1 — off the write
//! lock when driven through the service layer — and publish it with one
//! atomic swap, keeping index maintenance entirely off the query path.

pub mod assoc;
pub mod cluster;
pub mod editpatterns;
pub mod sessions;
pub mod tutorial;

pub use assoc::{AssocRule, RuleMiner};
pub use cluster::{adjusted_rand_index, kmedoids, purity, ClusteringResult};
pub use editpatterns::EditPatternMiner;
pub use sessions::{segment_log, SegmentationQuality};
pub use tutorial::generate_tutorial;
