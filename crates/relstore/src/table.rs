//! Row-store tables.

use crate::error::EngineError;
use crate::schema::TableSchema;
use crate::value::Value;
use std::sync::Arc;

/// A row is a boxed slice of values matching the table schema's arity.
pub type Row = Vec<Value>;

/// An in-memory row-store table.
///
/// Rows sit behind `Arc`, so a table can be assembled from rows another
/// owner keeps (cloning pointers, not cells); every in-place edit goes
/// through `Arc::make_mut` and so never reaches a row someone else holds.
#[derive(Debug, Clone)]
pub struct Table {
    pub schema: TableSchema,
    pub rows: Vec<Arc<Row>>,
}

impl Table {
    pub fn new(schema: TableSchema) -> Self {
        Table {
            schema,
            rows: Vec::new(),
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// `row` as this table stores it, after checking arity and type
    /// conformance. Int values are widened to Float where the column
    /// requires it.
    pub fn conform(&self, row: Row) -> Result<Row, EngineError> {
        if row.len() != self.schema.arity() {
            return Err(EngineError::ArityMismatch {
                expected: self.schema.arity(),
                got: row.len(),
            });
        }
        row.into_iter()
            .zip(&self.schema.columns)
            .map(|(v, c)| c.admit(v))
            .collect()
    }

    /// Append a row after [`Table::conform`]ing it.
    pub fn insert(&mut self, row: Row) -> Result<(), EngineError> {
        let row = self.conform(row)?;
        self.rows.push(Arc::new(row));
        Ok(())
    }

    /// Drop the column at `idx` from every row (schema already updated).
    pub fn drop_column_data(&mut self, idx: usize) {
        for row in &mut self.rows {
            Arc::make_mut(row).remove(idx);
        }
    }

    /// Append a NULL cell to every row (schema already updated).
    pub fn add_column_data(&mut self) {
        for row in &mut self.rows {
            Arc::make_mut(row).push(Value::Null);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sqlparse::ast::DataType;

    fn table() -> Table {
        Table::new(TableSchema::build(
            "t",
            &[
                ("a", DataType::Int),
                ("b", DataType::Float),
                ("c", DataType::Text),
            ],
        ))
    }

    #[test]
    fn insert_coerces_int_to_float() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Int(2), Value::from("x")])
            .unwrap();
        assert_eq!(t.rows[0][1], Value::Float(2.0));
    }

    #[test]
    fn insert_rejects_bad_arity_and_types() {
        let mut t = table();
        assert!(matches!(
            t.insert(vec![Value::Int(1)]),
            Err(EngineError::ArityMismatch { .. })
        ));
        assert!(matches!(
            t.insert(vec![Value::from("no"), Value::Int(2), Value::from("x")]),
            Err(EngineError::TypeError(_))
        ));
        assert!(t.is_empty());
    }

    #[test]
    fn nulls_fit_any_column() {
        let mut t = table();
        t.insert(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn column_data_ops() {
        let mut t = table();
        t.insert(vec![Value::Int(1), Value::Int(2), Value::from("x")])
            .unwrap();
        t.drop_column_data(1);
        assert_eq!(t.rows[0].len(), 2);
        t.add_column_data();
        assert_eq!(t.rows[0][2], Value::Null);
    }
}
