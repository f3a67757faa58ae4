//! Minimal CSV load/dump for example datasets.
//!
//! Implements RFC-4180-style quoting (`"` fields with `""` escapes). Values
//! are parsed against the target table's schema.

use crate::engine::Engine;
use crate::error::EngineError;
use crate::table::Row;
use crate::value::Value;
use sqlparse::ast::DataType;
use std::io::{BufRead, BufReader, Read, Write};

/// Parse one CSV record (no trailing newline) into fields.
pub fn parse_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut in_quotes = false;
    while let Some(c) = chars.next() {
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        cur.push('"');
                        chars.next();
                    } else {
                        in_quotes = false;
                    }
                }
                _ => cur.push(c),
            }
        } else {
            match c {
                '"' => in_quotes = true,
                ',' => {
                    fields.push(std::mem::take(&mut cur));
                }
                _ => cur.push(c),
            }
        }
    }
    fields.push(cur);
    fields
}

/// Escape one field for CSV output.
pub fn escape_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

fn parse_value(s: &str, ty: DataType) -> Result<Value, EngineError> {
    if s.is_empty() || s == "NULL" {
        return Ok(Value::Null);
    }
    Ok(match ty {
        DataType::Int => Value::Int(
            s.parse::<i64>()
                .map_err(|_| EngineError::TypeError(format!("bad int `{s}`")))?,
        ),
        DataType::Float => Value::Float(
            s.parse::<f64>()
                .map_err(|_| EngineError::TypeError(format!("bad float `{s}`")))?,
        ),
        DataType::Bool => match s.to_ascii_uppercase().as_str() {
            "TRUE" | "T" | "1" => Value::Bool(true),
            "FALSE" | "F" | "0" => Value::Bool(false),
            _ => return Err(EngineError::TypeError(format!("bad bool `{s}`"))),
        },
        DataType::Text => Value::from(s),
    })
}

/// Load CSV data (with a header row that is validated against the schema)
/// into an existing table. Returns the number of rows loaded.
pub fn load_csv(engine: &mut Engine, table: &str, reader: impl Read) -> Result<u64, EngineError> {
    let schema = engine.catalog.table(table)?.schema.clone();
    let mut lines = BufReader::new(reader).lines();
    let header = match lines.next() {
        Some(h) => h?,
        None => return Ok(0),
    };
    let cols = parse_record(&header);
    if cols.len() != schema.arity() {
        return Err(EngineError::ArityMismatch {
            expected: schema.arity(),
            got: cols.len(),
        });
    }
    for (c, def) in cols.iter().zip(&schema.columns) {
        if !c.eq_ignore_ascii_case(&def.name) {
            return Err(EngineError::TypeError(format!(
                "CSV header `{c}` does not match column `{}`",
                def.name
            )));
        }
    }
    let mut rows: Vec<Row> = Vec::new();
    for line in lines {
        let line = line?;
        if line.is_empty() {
            continue;
        }
        let fields = parse_record(&line);
        if fields.len() != schema.arity() {
            return Err(EngineError::ArityMismatch {
                expected: schema.arity(),
                got: fields.len(),
            });
        }
        let row: Row = fields
            .iter()
            .zip(&schema.columns)
            .map(|(f, c)| parse_value(f, c.data_type))
            .collect::<Result<_, _>>()?;
        rows.push(row);
    }
    let n = rows.len() as u64;
    let t = engine.catalog.table_mut(table)?;
    for row in rows {
        t.insert(row)?;
    }
    Ok(n)
}

/// Dump a table as CSV (header + rows).
pub fn dump_csv(engine: &Engine, table: &str, mut out: impl Write) -> Result<u64, EngineError> {
    let t = engine.catalog.table(table)?;
    let header: Vec<String> = t
        .schema
        .columns
        .iter()
        .map(|c| escape_field(&c.name))
        .collect();
    writeln!(out, "{}", header.join(","))?;
    for row in &t.rows {
        let fields: Vec<String> = row.iter().map(|v| escape_field(&v.render())).collect();
        writeln!(out, "{}", fields.join(","))?;
    }
    Ok(t.len() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_parsing_with_quotes() {
        assert_eq!(parse_record("a,b,c"), vec!["a", "b", "c"]);
        assert_eq!(
            parse_record(r#""Lake, Washington",18,"say ""hi""""#),
            vec!["Lake, Washington", "18", "say \"hi\""]
        );
        assert_eq!(parse_record(""), vec![""]);
    }

    #[test]
    fn roundtrip_through_engine() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (name TEXT, x INT, y FLOAT, ok BOOLEAN)")
            .unwrap();
        let csv = "name,x,y,ok\nalpha,1,1.5,TRUE\n\"with,comma\",2,NULL,FALSE\n";
        let n = load_csv(&mut e, "t", csv.as_bytes()).unwrap();
        assert_eq!(n, 2);
        let r = e.execute("SELECT * FROM t WHERE x = 2").unwrap();
        assert_eq!(r.rows[0][0].render(), "with,comma");
        assert!(r.rows[0][2].is_null());

        let mut out = Vec::new();
        dump_csv(&e, "t", &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("name,x,y,ok\n"));
        assert!(text.contains("\"with,comma\""));
    }

    #[test]
    fn header_mismatch_rejected() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a INT, b INT)").unwrap();
        assert!(load_csv(&mut e, "t", "a,wrong\n1,2\n".as_bytes()).is_err());
        assert!(load_csv(&mut e, "t", "a\n1\n".as_bytes()).is_err());
    }

    #[test]
    fn type_errors_rejected() {
        let mut e = Engine::new();
        e.execute("CREATE TABLE t (a INT)").unwrap();
        assert!(load_csv(&mut e, "t", "a\nnot_a_number\n".as_bytes()).is_err());
    }
}
