//! Hash indexes for point lookups, published as epoch snapshots.
//!
//! Tables hit with highly selective equality queries can declare per-column
//! hash indexes. Indexes are maintained lazily: DML marks them dirty and
//! the next lookup rebuilds. (The CQMS's feature relations, paper Fig. 1,
//! declare none: they are assembled per meta-query, and an undeclared
//! `col = literal` filter is checked against the rows in place.)
//!
//! Concurrency follows the epoch-publication discipline used by the CQMS
//! index registry rather than a lock around mutable state: the engine holds
//! the current index set as an immutable `Arc<Indexes>` snapshot, readers
//! clone that `Arc` once per statement and use it without any further
//! locking, and whoever finds an index stale rebuilds **off-lock** and
//! publishes a copy-on-write successor snapshot with one brief write-lock
//! swap. `Indexes` is therefore a shallow map of `Arc<HashIndex>` — cloning
//! a snapshot to evolve it copies pointers, not postings.

use crate::table::Table;
use crate::value::{Key, Value};
use std::collections::HashMap;
use std::sync::Arc;

/// A hash index over one column of one table.
#[derive(Debug, Default, Clone)]
pub struct HashIndex {
    /// Key → row positions.
    map: HashMap<Key, Vec<usize>>,
    dirty: bool,
    /// Row count of the table at last build (cheap staleness check).
    built_rows: usize,
}

impl HashIndex {
    pub fn new() -> Self {
        HashIndex {
            map: HashMap::new(),
            dirty: true,
            built_rows: 0,
        }
    }

    pub fn mark_dirty(&mut self) {
        self.dirty = true;
    }

    pub fn is_fresh(&self, table: &Table) -> bool {
        !self.dirty && self.built_rows == table.len()
    }

    /// Rebuild from the table's current rows.
    pub fn rebuild(&mut self, table: &Table, col: usize) {
        self.map.clear();
        for (i, row) in table.rows.iter().enumerate() {
            // NULLs are not indexed: equality with NULL never matches.
            if row[col].is_null() {
                continue;
            }
            self.map.entry(row[col].group_key()).or_default().push(i);
        }
        self.dirty = false;
        self.built_rows = table.len();
    }

    /// Row positions whose column equals `v` (SQL equality).
    pub fn lookup(&self, v: &Value) -> &[usize] {
        if v.is_null() {
            return &[];
        }
        self.map
            .get(&v.group_key())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    pub fn distinct_keys(&self) -> usize {
        self.map.len()
    }
}

/// The set of indexes owned by an [`crate::engine::Engine`], keyed by
/// lower-cased `(table, column)`. Each index sits behind its own `Arc` so
/// a snapshot clone shares every unchanged index with its predecessor.
#[derive(Debug, Default, Clone)]
pub struct Indexes {
    map: HashMap<(String, String), Arc<HashIndex>>,
}

impl Indexes {
    pub fn new() -> Self {
        Indexes::default()
    }

    fn key(table: &str, column: &str) -> (String, String) {
        (table.to_ascii_lowercase(), column.to_ascii_lowercase())
    }

    /// Declare an index on `table.column`. Building is lazy.
    pub fn create(&mut self, table: &str, column: &str) {
        self.map
            .entry(Self::key(table, column))
            .or_insert_with(|| Arc::new(HashIndex::new()));
    }

    pub fn drop(&mut self, table: &str, column: &str) -> bool {
        self.map.remove(&Self::key(table, column)).is_some()
    }

    /// Does an index exist on `table.column` (fresh or not)?
    pub fn has(&self, table: &str, column: &str) -> bool {
        self.map.contains_key(&Self::key(table, column))
    }

    /// The declared index on `table.column`, fresh or stale.
    pub fn get(&self, table: &str, column: &str) -> Option<&Arc<HashIndex>> {
        self.map.get(&Self::key(table, column))
    }

    /// Replace the index on an already-declared column — the publish half
    /// of an off-lock rebuild. A column whose index was dropped mid-build
    /// stays dropped.
    pub fn install(&mut self, table: &str, column: &str, index: Arc<HashIndex>) {
        if let Some(slot) = self.map.get_mut(&Self::key(table, column)) {
            *slot = index;
        }
    }

    /// Mark all indexes of `table` dirty (after DML/DDL). An index still
    /// referenced by a published snapshot is left to that snapshot's
    /// readers, frozen, and replaced here by an empty dirty one — the
    /// rebuild clears the postings before use, so copying them would buy
    /// nothing.
    pub fn invalidate_table(&mut self, table: &str) {
        let t = table.to_ascii_lowercase();
        for ((it, _), idx) in self.map.iter_mut() {
            if *it != t || idx.dirty {
                continue;
            }
            match Arc::get_mut(idx) {
                Some(owned) => owned.mark_dirty(),
                None => *idx = Arc::new(HashIndex::new()),
            }
        }
    }

    /// Fetch the index for a lookup, rebuilding **in place** if stale.
    /// This is the exclusive-access path (`&mut Engine` writes); the
    /// shared read path goes through [`crate::engine::EpochIndexes`]
    /// instead. Returns `None` when no index exists on that column.
    pub fn prepared(
        &mut self,
        table_name: &str,
        column: &str,
        table: &Table,
        col_idx: usize,
    ) -> Option<Arc<HashIndex>> {
        let idx = self.map.get_mut(&Self::key(table_name, column))?;
        if !idx.is_fresh(table) {
            Arc::make_mut(idx).rebuild(table, col_idx);
        }
        Some(idx.clone())
    }
}

/// How the executor obtains a usable index for a `col = literal` pushdown.
/// Implemented by [`Indexes`] itself (exclusive write path, rebuilds in
/// place) and by `crate::engine::EpochIndexes` (shared read path, rebuilds
/// off-lock and publishes a successor snapshot).
pub trait IndexAccess {
    /// A fresh index over `table_name.column`, or `None` if undeclared.
    fn prepared(
        &mut self,
        table_name: &str,
        column: &str,
        table: &Table,
        col_idx: usize,
    ) -> Option<Arc<HashIndex>>;
}

impl IndexAccess for Indexes {
    fn prepared(
        &mut self,
        table_name: &str,
        column: &str,
        table: &Table,
        col_idx: usize,
    ) -> Option<Arc<HashIndex>> {
        Indexes::prepared(self, table_name, column, table, col_idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;
    use sqlparse::ast::DataType;

    fn table() -> Table {
        let mut t = Table::new(TableSchema::build(
            "t",
            &[("id", DataType::Int), ("name", DataType::Text)],
        ));
        for i in 0..100 {
            t.insert(vec![Value::Int(i % 10), Value::from(format!("n{i}"))])
                .unwrap();
        }
        t
    }

    #[test]
    fn lookup_finds_all_matches() {
        let t = table();
        let mut idx = HashIndex::new();
        idx.rebuild(&t, 0);
        assert_eq!(idx.lookup(&Value::Int(3)).len(), 10);
        assert_eq!(idx.lookup(&Value::Int(42)).len(), 0);
        assert_eq!(idx.distinct_keys(), 10);
    }

    #[test]
    fn null_lookup_matches_nothing() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::Text("x".into())])
            .unwrap();
        let mut idx = HashIndex::new();
        idx.rebuild(&t, 0);
        assert!(idx.lookup(&Value::Null).is_empty());
    }

    #[test]
    fn int_float_key_unification() {
        let t = table();
        let mut idx = HashIndex::new();
        idx.rebuild(&t, 0);
        assert_eq!(idx.lookup(&Value::Float(3.0)).len(), 10);
    }

    #[test]
    fn staleness_and_rebuild() {
        let mut t = table();
        let mut idxs = Indexes::new();
        idxs.create("t", "id");
        assert!(idxs.has("T", "ID"));
        {
            let idx = idxs.prepared("t", "id", &t, 0).unwrap();
            assert_eq!(idx.lookup(&Value::Int(1)).len(), 10);
        }
        t.insert(vec![Value::Int(1), Value::Text("new".into())])
            .unwrap();
        idxs.invalidate_table("t");
        let idx = idxs.prepared("t", "id", &t, 0).unwrap();
        assert_eq!(idx.lookup(&Value::Int(1)).len(), 11);
    }

    #[test]
    fn drop_index() {
        let mut idxs = Indexes::new();
        idxs.create("t", "id");
        assert!(idxs.drop("t", "id"));
        assert!(!idxs.drop("t", "id"));
        assert!(!idxs.has("t", "id"));
    }

    #[test]
    fn snapshot_clone_is_isolated_from_invalidation() {
        let t = table();
        let mut idxs = Indexes::new();
        idxs.create("t", "id");
        let built = idxs.prepared("t", "id", &t, 0).unwrap();
        // A published snapshot keeps its frozen (fresh) view even after
        // the successor marks the index dirty — the very index it was
        // published with, not a copy.
        let snapshot = idxs.clone();
        idxs.invalidate_table("t");
        let readers = snapshot.get("t", "id").unwrap();
        assert!(readers.is_fresh(&t));
        assert!(Arc::ptr_eq(readers, &built));
        // The writer's side is dirty and carries no copy of the postings.
        let writers = idxs.get("t", "id").unwrap().clone();
        assert!(!writers.is_fresh(&t));
        assert_eq!(writers.distinct_keys(), 0);
        // Invalidating again touches nothing, and the rebuild is whole.
        idxs.invalidate_table("t");
        assert!(Arc::ptr_eq(idxs.get("t", "id").unwrap(), &writers));
        let rebuilt = idxs.prepared("t", "id", &t, 0).unwrap();
        assert_eq!(rebuilt.lookup(&Value::Int(3)).len(), 10);
    }

    #[test]
    fn install_respects_drops() {
        let mut idxs = Indexes::new();
        idxs.create("t", "id");
        idxs.install("t", "id", Arc::new(HashIndex::new()));
        assert!(idxs.has("t", "id"));
        idxs.drop("t", "id");
        idxs.install("t", "id", Arc::new(HashIndex::new()));
        assert!(!idxs.has("t", "id"), "install must not resurrect a drop");
    }
}
