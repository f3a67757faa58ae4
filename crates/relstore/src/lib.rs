//! # relstore — embedded relational engine substrate
//!
//! The CQMS of *Khoussainova et al., CIDR 2009* (Figure 4) sits on top of a
//! standard DBMS that executes both ordinary data queries and the CQMS's own
//! meta-queries over its feature relations. This crate is that substrate: a
//! from-scratch, laptop-scale relational engine with
//!
//! * typed row storage ([`table`], [`value`], [`schema`]),
//! * a catalog with schema versioning and a schema-change log — the signal
//!   the paper's Query Maintenance component consumes (§4.4) ([`catalog`]),
//! * an executor for the `sqlparse` dialect: filters, hash/nested-loop joins,
//!   grouping and aggregation, ordering, subqueries ([`exec`], [`expr`]),
//! * per-column statistics: histograms, distinct counts, reservoir samples —
//!   used for output summarisation (§4.1) and drift detection (§4.4)
//!   ([`stats`]),
//! * runtime metrics on every query (latency, cardinality, plan shape), which
//!   the Query Profiler logs as the paper's "runtime features".
//!
//! The public entry point is [`engine::Engine`].

pub mod catalog;
pub mod engine;
pub mod error;
pub mod exec;
pub mod expr;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::{Catalog, SchemaChange, SchemaChangeKind};
pub use engine::{Engine, ExecMetrics, QueryResult};
pub use error::EngineError;
pub use schema::{ColumnDef, TableSchema};
pub use stats::{ColumnStats, TableStats};
pub use table::{Row, Table};
pub use value::Value;

/// Is `name(…)` (with `*` argument when `star`) one of the engine's
/// aggregate functions? Exposed for feature extraction in the CQMS layer.
pub fn expr_is_aggregate(name: &str, star: bool) -> bool {
    expr::AggKind::from_name(name, star).is_some()
}
