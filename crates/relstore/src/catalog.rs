//! Catalog: named tables, logical time, and the schema-change log.
//!
//! The CQMS Query Maintenance component (paper §4.4) detects queries
//! invalidated by schema evolution "by comparing the timestamp of a query
//! with that of the last schema modification on any input relation". The
//! catalog is where those modification timestamps live: every DDL operation
//! advances a logical clock and appends a [`SchemaChange`] record.

use crate::error::EngineError;
use crate::schema::TableSchema;
use crate::table::Table;
use sqlparse::ast::DataType;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Kinds of schema change the maintenance engine can react to.
#[derive(Debug, Clone, PartialEq)]
pub enum SchemaChangeKind {
    CreatedTable,
    DroppedTable,
    RenamedTable { to: String },
    RenamedColumn { from: String, to: String },
    DroppedColumn { column: String },
    AddedColumn { column: String },
}

/// One entry of the schema-change log.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaChange {
    /// Logical time at which the change was applied.
    pub at: u64,
    /// Table the change applied to (its name *before* the change).
    pub table: String,
    pub kind: SchemaChangeKind,
}

/// Named tables plus the schema-change log.
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: HashMap<String, Table>,
    /// Monotonic logical clock; advanced by every DDL/DML statement so query
    /// timestamps and schema-change timestamps are comparable.
    clock: u64,
    changes: Vec<SchemaChange>,
    /// See [`Catalog::schema_version`].
    schema_version: u64,
}

/// Source of [`Catalog::schema_version`] stamps, shared by every catalog in
/// the process so no two diverged catalogs ever carry the same one.
static NEXT_SCHEMA_VERSION: AtomicU64 = AtomicU64::new(1);

impl Catalog {
    pub fn new() -> Self {
        Catalog::default()
    }

    /// Current logical time.
    pub fn now(&self) -> u64 {
        self.clock
    }

    /// A stamp of the schema (table names and columns) this catalog holds:
    /// it rises on every create / drop / rename / alter and never otherwise,
    /// and it is drawn from a process-wide counter, so equal stamps mean
    /// equal schemas even across catalogs (an unmodified clone keeps its
    /// source's stamp; every fresh catalog starts at 0, empty). Callers
    /// key caches of schema-derived views by it.
    pub fn schema_version(&self) -> u64 {
        self.schema_version
    }

    /// Log one applied schema change at a fresh timestamp and restamp.
    fn log_change(&mut self, table: String, kind: SchemaChangeKind) {
        let at = self.tick();
        self.changes.push(SchemaChange { at, table, kind });
        self.schema_version = NEXT_SCHEMA_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Advance and return the logical clock (each statement gets a fresh
    /// timestamp).
    pub fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    fn key(name: &str) -> String {
        name.to_ascii_lowercase()
    }

    pub fn table(&self, name: &str) -> Result<&Table, EngineError> {
        self.tables
            .get(&Self::key(name))
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, EngineError> {
        self.tables
            .get_mut(&Self::key(name))
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))
    }

    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&Self::key(name))
    }

    /// All table names, sorted (stable iteration for tests and snapshots).
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .tables
            .values()
            .map(|t| t.schema.name.clone())
            .collect();
        names.sort();
        names
    }

    /// The full schema-change log.
    pub fn changes(&self) -> &[SchemaChange] {
        &self.changes
    }

    pub fn create_table(&mut self, schema: TableSchema) -> Result<(), EngineError> {
        let key = Self::key(&schema.name);
        if self.tables.contains_key(&key) {
            return Err(EngineError::AlreadyExists(schema.name));
        }
        self.log_change(schema.name.clone(), SchemaChangeKind::CreatedTable);
        self.tables.insert(key, Table::new(schema));
        Ok(())
    }

    pub fn drop_table(&mut self, name: &str) -> Result<(), EngineError> {
        let key = Self::key(name);
        let t = self
            .tables
            .remove(&key)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        self.log_change(t.schema.name, SchemaChangeKind::DroppedTable);
        Ok(())
    }

    pub fn rename_table(&mut self, name: &str, to: &str) -> Result<(), EngineError> {
        if self.has_table(to) {
            return Err(EngineError::AlreadyExists(to.to_string()));
        }
        let key = Self::key(name);
        let mut t = self
            .tables
            .remove(&key)
            .ok_or_else(|| EngineError::UnknownTable(name.to_string()))?;
        let old_name = t.schema.name.clone();
        t.schema.name = to.to_string();
        t.schema.version += 1;
        self.tables.insert(Self::key(to), t);
        self.log_change(
            old_name,
            SchemaChangeKind::RenamedTable { to: to.to_string() },
        );
        Ok(())
    }

    pub fn rename_column(&mut self, table: &str, from: &str, to: &str) -> Result<(), EngineError> {
        let t = self.table_mut(table)?;
        t.schema.rename_column(from, to)?;
        let name = t.schema.name.clone();
        self.log_change(
            name,
            SchemaChangeKind::RenamedColumn {
                from: from.to_string(),
                to: to.to_string(),
            },
        );
        Ok(())
    }

    pub fn drop_column(&mut self, table: &str, column: &str) -> Result<(), EngineError> {
        let t = self.table_mut(table)?;
        let idx = t.schema.drop_column(column)?;
        t.drop_column_data(idx);
        let name = t.schema.name.clone();
        self.log_change(
            name,
            SchemaChangeKind::DroppedColumn {
                column: column.to_string(),
            },
        );
        Ok(())
    }

    pub fn add_column(
        &mut self,
        table: &str,
        column: &str,
        ty: DataType,
    ) -> Result<(), EngineError> {
        let t = self.table_mut(table)?;
        t.schema.add_column(column, ty)?;
        t.add_column_data();
        let name = t.schema.name.clone();
        self.log_change(
            name,
            SchemaChangeKind::AddedColumn {
                column: column.to_string(),
            },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::TableSchema;

    fn cat() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(TableSchema::build(
            "WaterTemp",
            &[("temp", DataType::Float), ("lake", DataType::Text)],
        ))
        .unwrap();
        c
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = cat();
        assert!(c.table("watertemp").is_ok());
        assert!(c.table("WATERTEMP").is_ok());
        assert!(c.table("nope").is_err());
    }

    #[test]
    fn create_duplicate_fails() {
        let mut c = cat();
        assert!(matches!(
            c.create_table(TableSchema::build("watertemp", &[("x", DataType::Int)])),
            Err(EngineError::AlreadyExists(_))
        ));
    }

    #[test]
    fn change_log_records_ddl_with_times() {
        let mut c = cat();
        let t0 = c.now();
        c.rename_column("WaterTemp", "temp", "temperature").unwrap();
        c.add_column("WaterTemp", "depth", DataType::Float).unwrap();
        c.drop_column("WaterTemp", "lake").unwrap();
        // The log opens with the CREATE, then the three ALTERs.
        let changes = c.changes();
        assert_eq!(changes.len(), 4);
        assert_eq!(changes[0].kind, SchemaChangeKind::CreatedTable);
        assert!(changes[0].at <= t0);
        assert!(matches!(
            changes[1].kind,
            SchemaChangeKind::RenamedColumn { .. }
        ));
        assert!(changes.iter().all(|ch| ch.table == "WaterTemp"));
        // Strictly increasing timestamps, the last one the clock's now.
        assert!(t0 < changes[1].at && changes[1].at < changes[2].at);
        assert!(changes[2].at < changes[3].at && changes[3].at == c.now());
    }

    #[test]
    fn schema_version_moves_with_ddl_only() {
        let mut c = cat();
        let v0 = c.schema_version();
        assert_ne!(v0, Catalog::new().schema_version());
        c.table_mut("WaterTemp")
            .unwrap()
            .insert(vec![Value::Float(1.0), "a".into()])
            .unwrap();
        c.tick();
        assert_eq!(c.schema_version(), v0, "rows and time are not schema");
        let twin = c.clone();
        assert_eq!(twin.schema_version(), v0);
        c.add_column("WaterTemp", "depth", DataType::Float).unwrap();
        let v1 = c.schema_version();
        assert!(v1 > v0);
        // Same DDL count, different schemas: the stamps still differ.
        let mut other = cat();
        other.drop_column("WaterTemp", "lake").unwrap();
        assert_ne!(other.schema_version(), v1);
        assert_eq!(twin.schema_version(), v0);
    }

    #[test]
    fn rename_table_keeps_data_and_logs_old_name() {
        let mut c = cat();
        c.table_mut("WaterTemp")
            .unwrap()
            .insert(vec![Value::Float(10.0).coerce(DataType::Float), "x".into()])
            .unwrap();
        let t0 = c.now();
        c.rename_table("WaterTemp", "LakeTemp").unwrap();
        assert!(c.table("WaterTemp").is_err());
        assert_eq!(c.table("LakeTemp").unwrap().len(), 1);
        let last = c.changes().last().unwrap();
        assert!(last.at > t0);
        assert_eq!(last.table, "WaterTemp");
        assert_eq!(
            last.kind,
            SchemaChangeKind::RenamedTable {
                to: "LakeTemp".into()
            }
        );
    }

    #[test]
    fn drop_column_removes_data() {
        let mut c = cat();
        c.table_mut("WaterTemp")
            .unwrap()
            .insert(vec![Value::Float(1.0), "a".into()])
            .unwrap();
        c.drop_column("WaterTemp", "temp").unwrap();
        let t = c.table("WaterTemp").unwrap();
        assert_eq!(t.schema.arity(), 1);
        assert_eq!(*t.rows[0], vec![Value::Text("a".into())]);
    }

    use crate::value::Value;
}
