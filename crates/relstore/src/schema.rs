//! Table schemas with version tracking.

use crate::error::EngineError;
use crate::value::Value;
use sqlparse::ast::DataType;

/// One column definition.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    pub name: String,
    pub data_type: DataType,
}

impl ColumnDef {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        ColumnDef {
            name: name.into(),
            data_type,
        }
    }

    /// `v` as this column stores it (an Int widened to Float where the
    /// column requires it), or a type error if it does not fit.
    pub fn admit(&self, v: Value) -> Result<Value, EngineError> {
        if !v.conforms_to(self.data_type) {
            return Err(EngineError::TypeError(format!(
                "value {v:?} does not fit column `{}` ({})",
                self.name, self.data_type
            )));
        }
        Ok(v.coerce(self.data_type))
    }
}

/// A table schema. `version` increments on every schema change; the catalog
/// additionally records *when* (logical time) each change happened, which the
/// CQMS Query Maintenance component compares against query timestamps (§4.4).
#[derive(Debug, Clone, PartialEq)]
pub struct TableSchema {
    pub name: String,
    pub columns: Vec<ColumnDef>,
    pub version: u64,
}

impl TableSchema {
    pub fn new(name: impl Into<String>, columns: Vec<ColumnDef>) -> Self {
        TableSchema {
            name: name.into(),
            columns,
            version: 0,
        }
    }

    /// Builder-style helper used heavily in tests and the workload crate.
    pub fn build(name: &str, cols: &[(&str, DataType)]) -> Self {
        TableSchema::new(
            name,
            cols.iter().map(|(n, t)| ColumnDef::new(*n, *t)).collect(),
        )
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column(&self, name: &str) -> Option<&ColumnDef> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Apply a column rename, bumping the version.
    pub fn rename_column(&mut self, from: &str, to: &str) -> Result<(), EngineError> {
        if self.column_index(to).is_some() {
            return Err(EngineError::AlreadyExists(to.to_string()));
        }
        let idx = self
            .column_index(from)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: from.to_string(),
                context: format!("table `{}`", self.name),
            })?;
        self.columns[idx].name = to.to_string();
        self.version += 1;
        Ok(())
    }

    /// Drop a column, bumping the version. Returns its former index.
    pub fn drop_column(&mut self, name: &str) -> Result<usize, EngineError> {
        let idx = self
            .column_index(name)
            .ok_or_else(|| EngineError::UnknownColumn {
                column: name.to_string(),
                context: format!("table `{}`", self.name),
            })?;
        self.columns.remove(idx);
        self.version += 1;
        Ok(idx)
    }

    /// Add a column, bumping the version.
    pub fn add_column(&mut self, name: &str, ty: DataType) -> Result<(), EngineError> {
        if self.column_index(name).is_some() {
            return Err(EngineError::AlreadyExists(name.to_string()));
        }
        self.columns.push(ColumnDef::new(name, ty));
        self.version += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> TableSchema {
        TableSchema::build(
            "WaterTemp",
            &[
                ("loc_x", DataType::Float),
                ("loc_y", DataType::Float),
                ("temp", DataType::Float),
                ("lake", DataType::Text),
            ],
        )
    }

    #[test]
    fn column_lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.column_index("TEMP"), Some(2));
        assert_eq!(s.column_index("missing"), None);
    }

    #[test]
    fn rename_bumps_version() {
        let mut s = schema();
        assert_eq!(s.version, 0);
        s.rename_column("temp", "temperature").unwrap();
        assert_eq!(s.version, 1);
        assert!(s.column("temperature").is_some());
        assert!(s.column("temp").is_none());
    }

    #[test]
    fn rename_to_existing_fails() {
        let mut s = schema();
        assert!(matches!(
            s.rename_column("temp", "lake"),
            Err(EngineError::AlreadyExists(_))
        ));
        assert_eq!(s.version, 0);
    }

    #[test]
    fn drop_and_add() {
        let mut s = schema();
        let idx = s.drop_column("loc_y").unwrap();
        assert_eq!(idx, 1);
        assert_eq!(s.arity(), 3);
        s.add_column("depth", DataType::Float).unwrap();
        assert_eq!(s.arity(), 4);
        assert_eq!(s.version, 2);
        assert!(matches!(
            s.add_column("depth", DataType::Int),
            Err(EngineError::AlreadyExists(_))
        ));
    }
}
