//! SQL semantics edge cases for the executor, beyond the module unit tests:
//! expression grouping, null handling in joins/aggregates, nested
//! correlation, CASE, scalar functions, self-joins.

use relstore::{Engine, EngineError, Value};

fn engine() -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE readings (id INT, lake TEXT, temp FLOAT, month INT)")
        .unwrap();
    e.execute(
        "INSERT INTO readings VALUES \
         (1, 'washington', 12.0, 1), \
         (2, 'washington', 14.0, 2), \
         (3, 'union', 20.0, 1), \
         (4, 'union', 22.0, 7), \
         (5, 'sammamish', 9.0, 8), \
         (6, NULL, NULL, NULL)",
    )
    .unwrap();
    e
}

#[test]
fn group_by_expression() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT month % 2 AS parity, COUNT(*) FROM readings \
             WHERE month IS NOT NULL GROUP BY month % 2 ORDER BY parity",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::Int(0)); // months 2, 8
    assert_eq!(r.rows[0][1], Value::Int(2));
    assert_eq!(r.rows[1][1], Value::Int(3)); // months 1, 1, 7
}

#[test]
fn count_distinct_and_nulls() {
    let mut e = engine();
    let r = e
        .execute("SELECT COUNT(lake), COUNT(DISTINCT lake), COUNT(*) FROM readings")
        .unwrap();
    // COUNT(col) skips NULL; DISTINCT collapses; COUNT(*) counts all.
    assert_eq!(r.rows[0][0], Value::Int(5));
    assert_eq!(r.rows[0][1], Value::Int(3));
    assert_eq!(r.rows[0][2], Value::Int(6));
}

#[test]
fn order_by_expression_not_projected() {
    let mut e = engine();
    let r = e
        .execute("SELECT id FROM readings WHERE temp IS NOT NULL ORDER BY temp * -1")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![4, 3, 2, 1, 5]); // descending temp
}

#[test]
fn having_without_group_by() {
    let mut e = engine();
    let r = e
        .execute("SELECT COUNT(*) FROM readings HAVING COUNT(*) > 100")
        .unwrap();
    assert!(r.rows.is_empty());
    let r = e
        .execute("SELECT COUNT(*) FROM readings HAVING COUNT(*) > 2")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn in_list_null_semantics() {
    let mut e = engine();
    // `month IN (1, NULL)`: matches month=1; unknown (not false) otherwise,
    // so non-matching rows are filtered, not errored.
    let r = e
        .execute("SELECT id FROM readings WHERE month IN (1, NULL) ORDER BY id")
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![1, 3]);
    // NOT IN with NULL in the list never matches anything (UNKNOWN).
    let r = e
        .execute("SELECT id FROM readings WHERE month NOT IN (1, NULL)")
        .unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn self_join() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT a.id, b.id FROM readings a, readings b \
             WHERE a.lake = b.lake AND a.id < b.id",
        )
        .unwrap();
    // washington: (1,2); union: (3,4). NULL lakes never join.
    assert_eq!(r.rows.len(), 2);
}

#[test]
fn doubly_nested_correlated_subquery() {
    let mut e = engine();
    e.execute("CREATE TABLE lakes (lake TEXT, state TEXT)")
        .unwrap();
    e.execute("INSERT INTO lakes VALUES ('washington', 'WA'), ('union', 'WA'), ('tahoe', 'CA')")
        .unwrap();
    let r = e
        .execute(
            "SELECT lake FROM lakes WHERE EXISTS \
             (SELECT * FROM readings WHERE readings.lake = lakes.lake AND EXISTS \
               (SELECT * FROM readings r2 WHERE r2.lake = readings.lake AND r2.temp > 19))",
        )
        .unwrap();
    let names: Vec<String> = r.rows.iter().map(|row| row[0].render()).collect();
    assert_eq!(names, vec!["union"]);
}

#[test]
fn case_expression_in_projection() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT id, CASE WHEN temp < 10 THEN 'cold' WHEN temp < 18 THEN 'mild' \
             ELSE 'warm' END AS band FROM readings WHERE temp IS NOT NULL ORDER BY id",
        )
        .unwrap();
    let bands: Vec<String> = r.rows.iter().map(|row| row[1].render()).collect();
    assert_eq!(bands, vec!["mild", "mild", "warm", "warm", "cold"]);
}

#[test]
fn scalar_functions() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT UPPER(lake), LENGTH(lake), ROUND(temp, 0), ABS(0 - temp), \
             COALESCE(lake, 'unknown'), SUBSTR(lake, 1, 4) \
             FROM readings WHERE id = 1",
        )
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0].render(), "WASHINGTON");
    assert_eq!(row[1], Value::Int(10));
    assert_eq!(row[2], Value::Float(12.0));
    assert_eq!(row[3], Value::Float(12.0));
    assert_eq!(row[4].render(), "washington");
    assert_eq!(row[5].render(), "wash");
    // COALESCE on the NULL row.
    let r = e
        .execute("SELECT COALESCE(lake, 'unknown') FROM readings WHERE id = 6")
        .unwrap();
    assert_eq!(r.rows[0][0].render(), "unknown");
}

#[test]
fn like_patterns() {
    let mut e = engine();
    let r = e
        .execute("SELECT id FROM readings WHERE lake LIKE '%ington' ORDER BY id")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e
        .execute("SELECT id FROM readings WHERE lake LIKE '_nion'")
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    let r = e
        .execute("SELECT id FROM readings WHERE lake NOT LIKE '%n%'")
        .unwrap();
    // Only 'sammamish' lacks an n; NULL lake row is UNKNOWN → filtered.
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn outer_join_then_filter_on_nullable_side() {
    let mut e = engine();
    e.execute("CREATE TABLE notes (lake TEXT, note TEXT)")
        .unwrap();
    e.execute("INSERT INTO notes VALUES ('washington', 'deep')")
        .unwrap();
    // WHERE on the nullable side after a LEFT JOIN removes padded rows.
    let r = e
        .execute(
            "SELECT readings.id, notes.note FROM readings LEFT OUTER JOIN notes \
             ON readings.lake = notes.lake WHERE notes.note IS NOT NULL",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 2);
    // Without the filter, all 6 rows survive (padded with NULL note).
    let r = e
        .execute(
            "SELECT readings.id, notes.note FROM readings LEFT OUTER JOIN notes \
             ON readings.lake = notes.lake",
        )
        .unwrap();
    assert_eq!(r.rows.len(), 6);
    assert_eq!(r.rows.iter().filter(|row| row[1].is_null()).count(), 4);
}

#[test]
fn union_of_filters_via_or_and_parens() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT id FROM readings WHERE (lake = 'union' AND month = 1) \
             OR (lake = 'washington' AND month = 2) ORDER BY id",
        )
        .unwrap();
    let ids: Vec<i64> = r.rows.iter().map(|row| row[0].as_i64().unwrap()).collect();
    assert_eq!(ids, vec![2, 3]);
}

#[test]
fn arithmetic_type_behaviour() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (a INT, b FLOAT)").unwrap();
    e.execute("INSERT INTO t VALUES (7, 2.0)").unwrap();
    let r = e
        .execute("SELECT a / 2, a % 3, a / b, a + b, a || '!' FROM t")
        .unwrap();
    let row = &r.rows[0];
    assert_eq!(row[0], Value::Int(3)); // integer division
    assert_eq!(row[1], Value::Int(1));
    assert_eq!(row[2], Value::Float(3.5)); // mixed → float
    assert_eq!(row[3], Value::Float(9.0));
    assert_eq!(row[4].render(), "7!");
}

#[test]
fn limit_zero_and_offset_past_end() {
    let mut e = engine();
    assert!(e
        .execute("SELECT * FROM readings LIMIT 0")
        .unwrap()
        .rows
        .is_empty());
    assert!(e
        .execute("SELECT * FROM readings LIMIT 5 OFFSET 100")
        .unwrap()
        .rows
        .is_empty());
}

#[test]
fn qualified_wildcard_projection() {
    let mut e = engine();
    e.execute("CREATE TABLE tiny (x INT)").unwrap();
    e.execute("INSERT INTO tiny VALUES (1)").unwrap();
    let r = e
        .execute("SELECT r.id, t.* FROM readings r, tiny t WHERE r.id = 1")
        .unwrap();
    assert_eq!(r.columns, vec!["id", "x"]);
    assert_eq!(r.rows.len(), 1);
}

#[test]
fn aggregate_inside_expression() {
    let mut e = engine();
    let r = e
        .execute(
            "SELECT lake, MAX(temp) - MIN(temp) AS spread FROM readings \
             WHERE lake IS NOT NULL GROUP BY lake ORDER BY spread DESC",
        )
        .unwrap();
    assert_eq!(r.rows[0][1], Value::Float(2.0));
    assert_eq!(r.rows.last().unwrap()[1], Value::Float(0.0)); // sammamish
}

/// A WHERE conjunct on a factor that a later RIGHT or FULL join
/// NULL-extends is applied after that join, so the NULL-extended rows
/// face it too.
#[test]
fn where_applies_to_rows_null_extended_by_right_and_full_joins() {
    let mut e = Engine::new();
    e.execute("CREATE TABLE a (k INT, x INT)").unwrap();
    e.execute("CREATE TABLE b (k INT, w INT)").unwrap();
    e.execute("INSERT INTO a VALUES (1, 1), (2, 2)").unwrap();
    e.execute("INSERT INTO b VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    let int = |v: i64| Value::Int(v);
    let matched = vec![vec![int(1), int(1), int(1), int(10)]];
    let unmatched = vec![vec![Value::Null, Value::Null, int(3), int(30)]];
    for join in ["RIGHT", "FULL"] {
        let on = format!("SELECT a.k, a.x, b.k, b.w FROM a {join} JOIN b ON a.k = b.k");
        let r = e.execute(&format!("{on} WHERE a.x = 1")).unwrap();
        assert_eq!(r.rows, matched, "{join} JOIN, WHERE a.x = 1");
        let r = e.execute(&format!("{on} WHERE a.x IS NULL")).unwrap();
        assert_eq!(r.rows, unmatched, "{join} JOIN, WHERE a.x IS NULL");
    }
    // A comma join's WHERE equi-conjunct is not a join key when a later
    // RIGHT join NULL-extends both of its sides.
    let r = e
        .execute(
            "SELECT a.k, b2.k FROM a, b b1 RIGHT JOIN b b2 ON b1.k = b2.k \
             WHERE a.k = b1.k",
        )
        .unwrap();
    assert_eq!(r.rows, vec![vec![int(1), int(1)], vec![int(2), int(2)]]);
}

fn three_rows() -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE t (id INT, x INT)").unwrap();
    e.execute("INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)")
        .unwrap();
    e
}

fn rows_of(e: &Engine) -> Vec<Vec<Value>> {
    e.query("SELECT id, x FROM t ORDER BY id").unwrap().rows
}

/// An INSERT whose later row does not fit the table inserts none of its
/// rows: the profiler logs the statement as failed, so the data must not
/// have changed.
#[test]
fn failing_insert_leaves_the_table_unchanged() {
    let mut e = three_rows();
    let before = rows_of(&e);
    let err = e
        .execute("INSERT INTO t VALUES (4, 40), (5, 'oops')")
        .unwrap_err();
    assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
    let err = e.execute("INSERT INTO t VALUES (4, 40), (5)").unwrap_err();
    assert!(matches!(err, EngineError::ArityMismatch { .. }), "{err:?}");
    assert_eq!(rows_of(&e), before);
}

/// An UPDATE that fails on a later row updates none of them.
#[test]
fn failing_update_leaves_the_table_unchanged() {
    let mut e = three_rows();
    let before = rows_of(&e);
    let err = e
        .execute("UPDATE t SET x = CASE WHEN id < 3 THEN 0 ELSE 'oops' END")
        .unwrap_err();
    assert!(matches!(err, EngineError::TypeError(_)), "{err:?}");
    assert_eq!(rows_of(&e), before);
}
