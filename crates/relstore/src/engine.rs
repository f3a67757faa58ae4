//! The engine façade: parse → dispatch → execute, with runtime metrics.

use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::exec;
use crate::expr::{Binding, Compiler, EvalCtx, Outer, Scope};
use crate::schema::{ColumnDef, TableSchema};
use crate::stats::TableStats;
use crate::table::Row;
use crate::value::Value;
use sqlparse::ast::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Runtime metrics for one executed statement — the "runtime features" the
/// CQMS Query Profiler records for every logged query (paper §4.1).
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Wall-clock execution time.
    pub elapsed: Duration,
    /// Result (or affected-row) cardinality.
    pub cardinality: u64,
    /// Base-table rows scanned.
    pub rows_scanned: u64,
    /// Plan description, e.g. `Scan(a) -> HashJoin(b on 1 keys) -> Project(2)`.
    pub plan: String,
    /// Logical timestamp assigned to this statement by the catalog clock.
    pub logical_time: u64,
}

/// Result of executing one statement.
#[derive(Debug, Clone, Default)]
pub struct QueryResult {
    /// Output column names (empty for DML/DDL).
    pub columns: Vec<String>,
    /// Result rows (empty for DML/DDL).
    pub rows: Vec<Row>,
    pub metrics: ExecMetrics,
}

impl QueryResult {
    /// Render the first `n` rows as an aligned text table (client display).
    pub fn render(&self, n: usize) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let shown = &self.rows[..self.rows.len().min(n)];
        let rendered: Vec<Vec<String>> = shown
            .iter()
            .map(|r| r.iter().map(Value::render).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() && cell.len() > widths[i] {
                    widths[i] = cell.len();
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                out.push_str(&format!(
                    "{:w$}  ",
                    cell,
                    w = widths.get(i).copied().unwrap_or(0)
                ));
            }
            out.push('\n');
        }
        if self.rows.len() > n {
            out.push_str(&format!("... ({} rows total)\n", self.rows.len()));
        }
        out
    }
}

/// The embedded relational engine: a catalog of tables.
///
/// Writes (`execute*`) take `&mut self`. Read-only SELECTs can instead go
/// through [`Engine::query`] / [`Engine::query_statement`], which take
/// `&self`: a SELECT mutates nothing, so concurrent readers share the
/// engine with no lock.
#[derive(Default)]
pub struct Engine {
    pub catalog: Catalog,
}

impl Engine {
    pub fn new() -> Self {
        Engine::default()
    }

    /// Parse and execute one SQL statement.
    pub fn execute(&mut self, sql: &str) -> Result<QueryResult, EngineError> {
        let stmt = sqlparse::parse(sql)?;
        self.execute_statement(&stmt)
    }

    /// Parse and run one read-only SELECT with `&self` (the concurrent read
    /// path). Non-SELECT statements are rejected; use [`Engine::execute`].
    pub fn query(&self, sql: &str) -> Result<QueryResult, EngineError> {
        let stmt = sqlparse::parse(sql)?;
        self.query_statement(&stmt)
    }

    /// Run an already-parsed SELECT with `&self`. It is the path
    /// [`Engine::execute_statement`] runs a SELECT on too, except that a
    /// read observes but does not advance the catalog's logical clock.
    pub fn query_statement(&self, stmt: &Statement) -> Result<QueryResult, EngineError> {
        let Statement::Select(s) = stmt else {
            return Err(EngineError::Unsupported(
                "query()/query_statement() are read-only; use execute() for writes".into(),
            ));
        };
        let start = Instant::now();
        let out = exec::run_select(&self.catalog, s)?;
        Ok(QueryResult {
            metrics: ExecMetrics {
                cardinality: out.rows.len() as u64,
                rows_scanned: out.stats.rows_scanned,
                plan: out.stats.plan,
                elapsed: start.elapsed(),
                logical_time: self.catalog.now(),
            },
            columns: out.columns,
            rows: out.rows,
        })
    }

    /// Execute an already-parsed statement.
    pub fn execute_statement(&mut self, stmt: &Statement) -> Result<QueryResult, EngineError> {
        let start = Instant::now();
        let mut result = match stmt {
            Statement::Select(_) => self.query_statement(stmt)?,
            Statement::Insert(i) => self.run_insert(i)?,
            Statement::CreateTable(c) => {
                let schema = TableSchema::new(
                    c.name.clone(),
                    c.columns
                        .iter()
                        .map(|(n, t)| ColumnDef::new(n.clone(), *t))
                        .collect(),
                );
                self.catalog.create_table(schema)?;
                QueryResult::default()
            }
            Statement::Update(u) => self.run_update(u)?,
            Statement::Delete(d) => self.run_delete(d)?,
            Statement::DropTable(t) => {
                self.catalog.drop_table(t)?;
                QueryResult::default()
            }
            Statement::AlterRenameColumn { table, from, to } => {
                self.catalog.rename_column(table, from, to)?;
                QueryResult::default()
            }
            Statement::AlterDropColumn { table, column } => {
                self.catalog.drop_column(table, column)?;
                QueryResult::default()
            }
            Statement::AlterAddColumn {
                table,
                column,
                data_type,
            } => {
                self.catalog.add_column(table, column, *data_type)?;
                QueryResult::default()
            }
            Statement::AlterRenameTable { table, to } => {
                self.catalog.rename_table(table, to)?;
                QueryResult::default()
            }
        };
        // DDL already ticked inside the catalog ops. Every other statement
        // ticks here, SELECT included, so the profiler can order queries
        // and schema changes on one clock.
        let logical_time = match stmt {
            Statement::Select(_)
            | Statement::Insert(_)
            | Statement::Update(_)
            | Statement::Delete(_) => self.catalog.tick(),
            _ => self.catalog.now(),
        };
        result.metrics.elapsed = start.elapsed();
        result.metrics.logical_time = logical_time;
        Ok(result)
    }

    /// Evaluates and conforms every row before it inserts any, so a row
    /// that fails leaves the table as it was.
    fn run_insert(&mut self, ins: &InsertStatement) -> Result<QueryResult, EngineError> {
        let table = self.catalog.table(&ins.table)?;
        let schema = &table.schema;
        let scope = Scope::root(&[]);
        let ctx = EvalCtx::new(&self.catalog, &Outer::Root);
        let mut rows = Vec::with_capacity(ins.rows.len());
        for exprs in &ins.rows {
            let mut vals: Vec<Value> = Vec::with_capacity(exprs.len());
            for e in exprs {
                let mut c = Compiler::new(&scope, &self.catalog);
                vals.push(c.compile(e)?.eval(&ctx)?);
            }
            let row = if ins.columns.is_empty() {
                vals
            } else {
                if vals.len() != ins.columns.len() {
                    return Err(EngineError::ArityMismatch {
                        expected: ins.columns.len(),
                        got: vals.len(),
                    });
                }
                let mut row: Row = vec![Value::Null; schema.arity()];
                for (col, v) in ins.columns.iter().zip(vals) {
                    let idx =
                        schema
                            .column_index(col)
                            .ok_or_else(|| EngineError::UnknownColumn {
                                column: col.clone(),
                                context: format!("table `{}`", schema.name),
                            })?;
                    row[idx] = v;
                }
                row
            };
            rows.push(Arc::new(table.conform(row)?));
        }
        let n = rows.len() as u64;
        self.catalog.table_mut(&ins.table)?.rows.extend(rows);
        Ok(affected(n))
    }

    fn run_update(&mut self, u: &UpdateStatement) -> Result<QueryResult, EngineError> {
        let table = self.catalog.table(&u.table)?;
        let binding = [table_binding(table)];
        let scope = Scope::root(&binding);

        let predicate = match &u.where_clause {
            Some(w) => Some(Compiler::new(&scope, &self.catalog).compile(w)?),
            None => None,
        };
        let mut assignments = Vec::with_capacity(u.assignments.len());
        for (col, e) in &u.assignments {
            let idx = table
                .schema
                .column_index(col)
                .ok_or_else(|| EngineError::UnknownColumn {
                    column: col.clone(),
                    context: format!("table `{}`", table.schema.name),
                })?;
            let ce = Compiler::new(&scope, &self.catalog).compile(e)?;
            assignments.push((idx, ce));
        }

        // Phase 1 (immutable): compute and conform replacement values, so
        // a value that fails leaves the table as it was.
        let mut updates: Vec<(usize, Vec<(usize, Value)>)> = Vec::new();
        let base = EvalCtx::new(&self.catalog, &Outer::Root);
        for (ri, row) in table.rows.iter().enumerate() {
            let tuple = [Some(&**row)];
            let ctx = base.at(&tuple);
            let hit = match &predicate {
                Some(p) => p.eval_predicate(&ctx)?,
                None => true,
            };
            if !hit {
                continue;
            }
            let mut vals = Vec::with_capacity(assignments.len());
            for &(idx, ref ce) in &assignments {
                vals.push((idx, table.schema.columns[idx].admit(ce.eval(&ctx)?)?));
            }
            updates.push((ri, vals));
        }

        // Phase 2 (mutable): apply; nothing here can fail.
        let n = updates.len() as u64;
        let table = self.catalog.table_mut(&u.table)?;
        for (ri, vals) in updates {
            let row = Arc::make_mut(&mut table.rows[ri]);
            for (idx, v) in vals {
                row[idx] = v;
            }
        }
        Ok(affected(n))
    }

    fn run_delete(&mut self, d: &DeleteStatement) -> Result<QueryResult, EngineError> {
        let table = self.catalog.table(&d.table)?;
        let binding = [table_binding(table)];
        let scope = Scope::root(&binding);
        let predicate = match &d.where_clause {
            Some(w) => Some(Compiler::new(&scope, &self.catalog).compile(w)?),
            None => None,
        };
        let mut doomed: Vec<bool> = Vec::with_capacity(table.len());
        let base = EvalCtx::new(&self.catalog, &Outer::Root);
        for row in &table.rows {
            let tuple = [Some(&**row)];
            let ctx = base.at(&tuple);
            doomed.push(match &predicate {
                Some(p) => p.eval_predicate(&ctx)?,
                None => true,
            });
        }
        let table = self.catalog.table_mut(&d.table)?;
        let mut i = 0;
        let before = table.rows.len();
        table.rows.retain(|_| {
            let keep = !doomed[i];
            i += 1;
            keep
        });
        Ok(affected((before - table.rows.len()) as u64))
    }

    // ------------------------------------------------------------------
    // Administration
    // ------------------------------------------------------------------

    /// Compute statistics for a table (paper §4.1/§4.4 building block).
    pub fn table_stats(&self, table: &str) -> Result<TableStats, EngineError> {
        Ok(TableStats::compute(self.catalog.table(table)?))
    }

    /// Convenience: does a parsed statement *compile* against the current
    /// schema? Used by Query Maintenance to validate stored queries without
    /// running them (paper §4.4).
    pub fn validates(&self, stmt: &Statement) -> Result<(), EngineError> {
        match stmt {
            Statement::Select(s) => {
                let bindings = exec::bindings_for(&self.catalog, s)?;
                let scope = Scope::root(&bindings);
                let mut aggs = Vec::new();
                for item in &s.projection {
                    if let SelectItem::Expr { expr, .. } = item {
                        Compiler::with_aggregates(&scope, &self.catalog, &mut aggs)
                            .compile(expr)?;
                    }
                }
                if let Some(w) = &s.where_clause {
                    Compiler::new(&scope, &self.catalog).compile(w)?;
                }
                for g in &s.group_by {
                    Compiler::new(&scope, &self.catalog).compile(g)?;
                }
                if let Some(h) = &s.having {
                    Compiler::with_aggregates(&scope, &self.catalog, &mut aggs).compile(h)?;
                }
                for o in &s.order_by {
                    Compiler::with_aggregates(&scope, &self.catalog, &mut aggs).compile(&o.expr)?;
                }
                Ok(())
            }
            _ => Ok(()),
        }
    }
}

/// The result of a DML statement that touched `n` rows.
fn affected(n: u64) -> QueryResult {
    QueryResult {
        metrics: ExecMetrics {
            cardinality: n,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn table_binding(table: &crate::table::Table) -> Binding {
    Binding {
        binding: table.schema.name.to_ascii_lowercase(),
        table: table.schema.name.to_ascii_lowercase(),
        columns: table
            .schema
            .columns
            .iter()
            .map(|c| c.name.to_ascii_lowercase())
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lakes_engine() -> Engine {
        let mut e = Engine::new();
        e.execute("CREATE TABLE WaterTemp (loc_x FLOAT, loc_y FLOAT, temp FLOAT, lake TEXT)")
            .unwrap();
        e.execute(
            "CREATE TABLE WaterSalinity (loc_x FLOAT, loc_y FLOAT, salinity FLOAT, lake TEXT)",
        )
        .unwrap();
        e.execute(
            "CREATE TABLE CityLocations (city TEXT, state TEXT, loc_x FLOAT, loc_y FLOAT, pop INT)",
        )
        .unwrap();
        e.execute(
            "INSERT INTO WaterTemp VALUES \
             (1.0, 1.0, 15.5, 'Lake Washington'), \
             (1.0, 2.0, 17.0, 'Lake Washington'), \
             (2.0, 1.0, 21.0, 'Lake Union'), \
             (3.0, 3.0, 9.0, 'Lake Sammamish')",
        )
        .unwrap();
        e.execute(
            "INSERT INTO WaterSalinity VALUES \
             (1.0, 1.0, 0.2, 'Lake Washington'), \
             (2.0, 1.0, 0.5, 'Lake Union'), \
             (3.0, 3.0, 0.1, 'Lake Sammamish')",
        )
        .unwrap();
        e.execute(
            "INSERT INTO CityLocations VALUES \
             ('Seattle', 'WA', 1.0, 1.0, 750000), \
             ('Bellevue', 'WA', 2.0, 1.0, 150000), \
             ('Portland', 'OR', 9.0, 9.0, 650000)",
        )
        .unwrap();
        e
    }

    #[test]
    fn query_is_read_only_and_matches_execute() {
        let mut e = lakes_engine();
        let sql = "SELECT lake, temp FROM WaterTemp WHERE temp < 18 ORDER BY temp";
        let via_execute = e.execute(sql).unwrap();
        let via_query = e.query(sql).unwrap();
        assert_eq!(via_query.columns, via_execute.columns);
        assert_eq!(via_query.rows, via_execute.rows);
        assert_eq!(via_query.metrics.plan, via_execute.metrics.plan);
        assert_eq!(
            via_query.metrics.rows_scanned,
            via_execute.metrics.rows_scanned
        );
        // Reads observe, but never advance, the logical clock.
        let before = e.catalog.now();
        e.query("SELECT * FROM WaterTemp").unwrap();
        assert_eq!(e.catalog.now(), before);
        // Writes are rejected on the read path.
        let err = e.query("DELETE FROM WaterTemp").unwrap_err();
        assert!(matches!(err, EngineError::Unsupported(_)), "{err:?}");
        assert_eq!(e.query("SELECT * FROM WaterTemp").unwrap().rows.len(), 4);
    }

    #[test]
    fn concurrent_queries_share_the_engine() {
        // Hammer reads from multiple threads through one `&Engine`; every
        // thread must see identical results.
        let e = &lakes_engine();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    s.spawn(move || {
                        let mut rows = 0usize;
                        for _ in 0..50 {
                            rows += e
                                .query("SELECT temp FROM WaterTemp WHERE lake = 'Lake Washington'")
                                .unwrap()
                                .rows
                                .len();
                        }
                        rows
                    })
                })
                .collect();
            for h in handles {
                assert_eq!(h.join().unwrap(), 100);
            }
        });
    }

    #[test]
    fn select_filter_project() {
        let mut e = lakes_engine();
        let r = e
            .execute("SELECT lake, temp FROM WaterTemp WHERE temp < 18 ORDER BY temp")
            .unwrap();
        assert_eq!(r.columns, vec!["lake", "temp"]);
        assert_eq!(r.rows.len(), 3);
        assert_eq!(r.rows[0][0], Value::Text("Lake Sammamish".into()));
        assert_eq!(r.metrics.cardinality, 3);
        assert!(r.metrics.rows_scanned >= 4);
    }

    #[test]
    fn comma_join_becomes_hash_join() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, WaterSalinity S \
                 WHERE T.loc_x = S.loc_x AND T.loc_y = S.loc_y",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        assert!(r.metrics.plan.contains("HashJoin"), "{}", r.metrics.plan);
    }

    #[test]
    fn explicit_left_outer_join_pads_nulls() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT T.lake, S.salinity FROM WaterTemp T LEFT OUTER JOIN WaterSalinity S \
                 ON T.loc_x = S.loc_x AND T.loc_y = S.loc_y ORDER BY T.lake",
            )
            .unwrap();
        // 4 temp readings; the (1.0, 2.0) one has no salinity match.
        assert_eq!(r.rows.len(), 4);
        assert!(r.rows.iter().any(|row| row[1].is_null()));
    }

    #[test]
    fn group_by_having() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT lake, COUNT(*) AS n, AVG(temp) AS avg_temp FROM WaterTemp \
                 GROUP BY lake HAVING COUNT(*) > 1",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Text("Lake Washington".into()));
        assert_eq!(r.rows[0][1], Value::Int(2));
        assert_eq!(r.rows[0][2], Value::Float(16.25));
    }

    #[test]
    fn scalar_aggregate_on_empty_input() {
        let mut e = lakes_engine();
        let r = e
            .execute("SELECT COUNT(*), SUM(temp), MIN(temp) FROM WaterTemp WHERE temp > 100")
            .unwrap();
        assert_eq!(r.rows.len(), 1);
        assert_eq!(r.rows[0][0], Value::Int(0));
        assert!(r.rows[0][1].is_null());
        assert!(r.rows[0][2].is_null());
    }

    #[test]
    fn uncorrelated_in_subquery() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT lake FROM WaterSalinity WHERE lake IN \
                 (SELECT lake FROM WaterTemp WHERE temp < 18)",
            )
            .unwrap();
        let lakes: Vec<String> = r.rows.iter().map(|r| r[0].render()).collect();
        assert!(lakes.contains(&"Lake Washington".to_string()));
        assert!(!lakes.contains(&"Lake Union".to_string()));
    }

    #[test]
    fn correlated_exists_subquery() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT city FROM CityLocations WHERE EXISTS \
                 (SELECT * FROM WaterTemp WHERE WaterTemp.loc_x = CityLocations.loc_x \
                  AND WaterTemp.loc_y = CityLocations.loc_y)",
            )
            .unwrap();
        let cities: Vec<String> = r.rows.iter().map(|r| r[0].render()).collect();
        assert_eq!(cities.len(), 2);
        assert!(cities.contains(&"Seattle".to_string()));
        assert!(!cities.contains(&"Portland".to_string()));
    }

    #[test]
    fn scalar_subquery_comparison() {
        let mut e = lakes_engine();
        let r = e
            .execute(
                "SELECT city FROM CityLocations WHERE pop > \
                 (SELECT AVG(pop) FROM CityLocations)",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 2); // Seattle & Portland above the mean
    }

    #[test]
    fn figure3_query_executes() {
        // The assisted-mode query of the paper's Figure 3 (completed form).
        let mut e = lakes_engine();
        e.execute("CREATE TABLE Cities (City TEXT, State TEXT, Pop INT)")
            .unwrap();
        e.execute(
            "INSERT INTO Cities VALUES ('Seattle', 'WA', 750000), ('Portland', 'OR', 650000)",
        )
        .unwrap();
        let r = e
            .execute(
                "SELECT * FROM WaterSalinity S, WaterTemp T, CityLocations L \
                 WHERE T.temp < 18 AND S.loc_x = T.loc_x AND S.loc_y = T.loc_y \
                 AND L.city IN (SELECT City FROM Cities WHERE State = 'WA')",
            )
            .unwrap();
        // Matches: WaterSalinity/WaterTemp pairs at (1,1) and (3,3) with
        // temp < 18, crossed with the single city in Cities-WA (Seattle).
        assert_eq!(r.rows.len(), 2);
    }

    #[test]
    fn update_and_delete() {
        let mut e = lakes_engine();
        let r = e
            .execute("UPDATE WaterTemp SET temp = temp + 1 WHERE lake = 'Lake Union'")
            .unwrap();
        assert_eq!(r.metrics.cardinality, 1);
        let r = e
            .execute("SELECT temp FROM WaterTemp WHERE lake = 'Lake Union'")
            .unwrap();
        assert_eq!(r.rows[0][0], Value::Float(22.0));
        let r = e.execute("DELETE FROM WaterTemp WHERE temp > 20").unwrap();
        assert_eq!(r.metrics.cardinality, 1);
        assert_eq!(e.catalog.table("WaterTemp").unwrap().len(), 3);
    }

    /// A table assembled from another table's rows shares them by pointer,
    /// and DML on either side never reaches the other.
    #[test]
    fn tables_sharing_rows_are_isolated_under_dml() {
        let mut donor = lakes_engine();
        let shared = donor.catalog.table("WaterTemp").unwrap().clone();
        let mut taker = Engine::new();
        taker
            .execute("CREATE TABLE WaterTemp (loc_x FLOAT, loc_y FLOAT, temp FLOAT, lake TEXT)")
            .unwrap();
        taker.catalog.table_mut("WaterTemp").unwrap().rows = shared.rows.clone();
        let temps = |e: &Engine| {
            e.query("SELECT temp FROM WaterTemp ORDER BY temp")
                .unwrap()
                .rows
        };
        let before = temps(&donor);
        assert_eq!(temps(&taker), before);

        donor.execute("UPDATE WaterTemp SET temp = 0").unwrap();
        donor
            .execute("DELETE FROM WaterTemp WHERE lake = 'Lake Union'")
            .unwrap();
        assert_eq!(temps(&taker), before);
        assert!(shared
            .rows
            .iter()
            .zip(&taker.catalog.table("WaterTemp").unwrap().rows)
            .all(|(a, b)| Arc::ptr_eq(a, b)));

        taker.execute("UPDATE WaterTemp SET temp = 99").unwrap();
        taker.execute("DELETE FROM WaterTemp").unwrap();
        assert_eq!(temps(&donor), vec![vec![Value::Float(0.0)]; 3]);
        assert_eq!(shared.rows[0][2], Value::Float(15.5));
    }

    #[test]
    fn insert_with_column_list_fills_nulls() {
        let mut e = lakes_engine();
        e.execute("INSERT INTO WaterTemp (lake, temp) VALUES ('Lake X', 12.0)")
            .unwrap();
        let r = e
            .execute("SELECT loc_x, lake FROM WaterTemp WHERE lake = 'Lake X'")
            .unwrap();
        assert!(r.rows[0][0].is_null());
    }

    #[test]
    fn distinct_limit_offset() {
        let mut e = lakes_engine();
        let r = e
            .execute("SELECT DISTINCT lake FROM WaterTemp ORDER BY lake LIMIT 2 OFFSET 1")
            .unwrap();
        assert_eq!(r.rows.len(), 2);
        assert_eq!(r.rows[0][0].render(), "Lake Union");
    }

    #[test]
    fn select_expressions_and_aliases() {
        let mut e = lakes_engine();
        let r = e
            .execute("SELECT temp * 2 AS doubled, UPPER(lake) FROM WaterTemp ORDER BY doubled DESC LIMIT 1")
            .unwrap();
        assert_eq!(r.columns[0], "doubled");
        assert_eq!(r.rows[0][0], Value::Float(42.0));
        assert_eq!(r.rows[0][1].render(), "LAKE UNION");
    }

    #[test]
    fn three_valued_logic_in_where() {
        let mut e = lakes_engine();
        e.execute("INSERT INTO WaterTemp VALUES (NULL, NULL, NULL, 'Mystery Lake')")
            .unwrap();
        // NULL temp neither satisfies temp < 18 nor temp >= 18.
        let below = e
            .execute("SELECT * FROM WaterTemp WHERE temp < 18")
            .unwrap();
        let above = e
            .execute("SELECT * FROM WaterTemp WHERE temp >= 18")
            .unwrap();
        assert_eq!(below.rows.len() + above.rows.len(), 4);
        // IS NULL finds it.
        let nulls = e
            .execute("SELECT * FROM WaterTemp WHERE temp IS NULL")
            .unwrap();
        assert_eq!(nulls.rows.len(), 1);
    }

    #[test]
    fn validates_against_current_schema() {
        let mut e = lakes_engine();
        let good = sqlparse::parse("SELECT temp FROM WaterTemp").unwrap();
        assert!(e.validates(&good).is_ok());
        e.execute("ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature")
            .unwrap();
        assert!(e.validates(&good).is_err());
        let repaired = sqlparse::parse("SELECT temperature FROM WaterTemp").unwrap();
        assert!(e.validates(&repaired).is_ok());
    }

    #[test]
    fn errors_are_reported() {
        let mut e = lakes_engine();
        assert!(matches!(
            e.execute("SELECT * FROM NoSuchTable"),
            Err(EngineError::UnknownTable(_))
        ));
        assert!(matches!(
            e.execute("SELECT nope FROM WaterTemp"),
            Err(EngineError::UnknownColumn { .. })
        ));
        assert!(matches!(
            e.execute("SELECT 1 / 0"),
            Err(EngineError::Arithmetic(_))
        ));
        assert!(e.execute("SELEC * FROM WaterTemp").is_err());
    }

    #[test]
    fn cross_join_and_full_outer() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE a (x INT)").unwrap();
        e.execute("CREATE TABLE b (y INT)").unwrap();
        e.execute("INSERT INTO a VALUES (1), (2)").unwrap();
        e.execute("INSERT INTO b VALUES (10), (20), (30)").unwrap();
        let cross = e.execute("SELECT * FROM a CROSS JOIN b").unwrap();
        assert_eq!(cross.rows.len(), 6);
        e.execute("CREATE TABLE c (x INT)").unwrap();
        e.execute("INSERT INTO c VALUES (2), (3)").unwrap();
        let full = e
            .execute("SELECT * FROM a FULL OUTER JOIN c ON a.x = c.x ORDER BY a.x")
            .unwrap();
        // 1-NULL, 2-2, NULL-3.
        assert_eq!(full.rows.len(), 3);
    }

    #[test]
    fn render_table_output() {
        let mut e = lakes_engine();
        let r = e
            .execute("SELECT lake, temp FROM WaterTemp ORDER BY temp LIMIT 2")
            .unwrap();
        let s = r.render(10);
        assert!(s.contains("lake"));
        assert!(s.contains("Lake Sammamish"));
    }
}
