//! Property-based tests for the relational engine.
//!
//! The key invariants: the hash-join fast path agrees with the nested-loop
//! general path, an equality pushed into a scan agrees with a plain filter,
//! filters compose like set intersection, ORDER BY really sorts, DISTINCT
//! really deduplicates, and LIMIT bounds cardinality.

use proptest::prelude::*;
use relstore::{Engine, Value};

/// Build an engine with two small integer tables derived from the inputs.
fn engine_with(a: &[(i64, i64)], b: &[(i64, i64)]) -> Engine {
    let mut e = Engine::new();
    e.execute("CREATE TABLE a (k INT, v INT)").unwrap();
    e.execute("CREATE TABLE b (k INT, w INT)").unwrap();
    for (k, v) in a {
        e.execute(&format!("INSERT INTO a VALUES ({k}, {v})"))
            .unwrap();
    }
    for (k, w) in b {
        e.execute(&format!("INSERT INTO b VALUES ({k}, {w})"))
            .unwrap();
    }
    e
}

fn sorted_rows(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    let mut out: Vec<Vec<String>> = rows
        .iter()
        .map(|r| r.iter().map(Value::render).collect())
        .collect();
    out.sort();
    out
}

fn pairs() -> impl Strategy<Value = Vec<(i64, i64)>> {
    proptest::collection::vec(((-5i64..5), (-20i64..20)), 0..25)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equi-join via hash join equals the brute-force nested loop (forced by
    /// writing the same condition as two inequalities).
    #[test]
    fn hash_join_matches_nested_loop(a in pairs(), b in pairs()) {
        let mut e = engine_with(&a, &b);
        let hash = e
            .execute("SELECT a.k, v, w FROM a, b WHERE a.k = b.k")
            .unwrap();
        prop_assert!(hash.metrics.plan.contains("HashJoin"), "{}", hash.metrics.plan);
        let nested = e
            .execute("SELECT a.k, v, w FROM a, b WHERE a.k <= b.k AND a.k >= b.k")
            .unwrap();
        prop_assert!(!nested.metrics.plan.contains("HashJoin"), "{}", nested.metrics.plan);
        prop_assert_eq!(sorted_rows(&hash.rows), sorted_rows(&nested.rows));
    }

    /// WHERE p AND q behaves like set intersection of the individual filters.
    #[test]
    fn conjunction_is_intersection(a in pairs(), lo in -5i64..5, hi in -5i64..5) {
        let mut e = engine_with(&a, &[]);
        let both = e
            .execute(&format!("SELECT k, v FROM a WHERE k >= {lo} AND v < {hi}"))
            .unwrap();
        let p = e.execute(&format!("SELECT k, v FROM a WHERE k >= {lo}")).unwrap();
        let q = e.execute(&format!("SELECT k, v FROM a WHERE v < {hi}")).unwrap();
        let ps = sorted_rows(&p.rows);
        let qs = sorted_rows(&q.rows);
        let mut expected: Vec<Vec<String>> = Vec::new();
        let mut qs_pool = qs.clone();
        for row in ps {
            if let Some(pos) = qs_pool.iter().position(|r| r == &row) {
                qs_pool.remove(pos);
                expected.push(row);
            }
        }
        expected.sort();
        prop_assert_eq!(sorted_rows(&both.rows), expected);
    }

    /// ORDER BY produces a sorted column.
    #[test]
    fn order_by_sorts(a in pairs()) {
        let mut e = engine_with(&a, &[]);
        let r = e.execute("SELECT v FROM a ORDER BY v").unwrap();
        let vals: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let r = e.execute("SELECT v FROM a ORDER BY v DESC").unwrap();
        let vals: Vec<i64> = r.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        for w in vals.windows(2) {
            prop_assert!(w[0] >= w[1]);
        }
    }

    /// DISTINCT removes exactly the duplicates.
    #[test]
    fn distinct_deduplicates(a in pairs()) {
        let mut e = engine_with(&a, &[]);
        let d = e.execute("SELECT DISTINCT k FROM a").unwrap();
        let mut uniq: Vec<i64> = a.iter().map(|(k, _)| *k).collect();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(d.rows.len(), uniq.len());
        let mut got: Vec<i64> = d.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
        got.sort();
        prop_assert_eq!(got, uniq);
    }

    /// LIMIT bounds the result size; OFFSET skips.
    #[test]
    fn limit_offset_bounds(a in pairs(), lim in 0u64..30, off in 0u64..30) {
        let mut e = engine_with(&a, &[]);
        let r = e
            .execute(&format!("SELECT k FROM a ORDER BY k LIMIT {lim} OFFSET {off}"))
            .unwrap();
        let expect = a.len().saturating_sub(off as usize).min(lim as usize);
        prop_assert_eq!(r.rows.len(), expect);
    }

    /// COUNT/SUM/MIN/MAX agree with hand computation.
    #[test]
    fn aggregates_match_reference(a in pairs()) {
        let mut e = engine_with(&a, &[]);
        let r = e
            .execute("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM a")
            .unwrap();
        let row = &r.rows[0];
        prop_assert_eq!(row[0].as_i64().unwrap(), a.len() as i64);
        if a.is_empty() {
            prop_assert!(row[1].is_null());
            prop_assert!(row[2].is_null());
        } else {
            let sum: i64 = a.iter().map(|(_, v)| v).sum();
            let min = a.iter().map(|(_, v)| *v).min().unwrap();
            let max = a.iter().map(|(_, v)| *v).max().unwrap();
            prop_assert_eq!(row[1].as_i64().unwrap(), sum);
            prop_assert_eq!(row[2].as_i64().unwrap(), min);
            prop_assert_eq!(row[3].as_i64().unwrap(), max);
        }
    }

    /// GROUP BY partitions the rows: group COUNT(*)s sum to the table size.
    #[test]
    fn group_counts_partition(a in pairs()) {
        let mut e = engine_with(&a, &[]);
        let r = e.execute("SELECT k, COUNT(*) FROM a GROUP BY k").unwrap();
        let total: i64 = r.rows.iter().map(|row| row[1].as_i64().unwrap()).sum();
        prop_assert_eq!(total, a.len() as i64);
        // One group per distinct k.
        let mut uniq: Vec<i64> = a.iter().map(|(k, _)| *k).collect();
        uniq.sort();
        uniq.dedup();
        prop_assert_eq!(r.rows.len(), uniq.len());
    }

    /// A `col = literal` conjunct compared in place during the scan (in
    /// either orientation), the same test as a compiled filter, and the
    /// pushdown under a comma join all return what a plain filter over the
    /// input returns, in scan order.
    #[test]
    fn equality_pushdown_matches_naive(a in pairs(), b in pairs(), p in -5i64..5) {
        let mut e = engine_with(&a, &b);
        let ints = |rows: &[Vec<Value>]| -> Vec<Vec<i64>> {
            rows.iter()
                .map(|r| r.iter().map(|v| v.as_i64().unwrap()).collect())
                .collect()
        };
        let expected: Vec<Vec<i64>> = a
            .iter()
            .filter(|(k, _)| *k == p)
            .map(|(_, v)| vec![*v])
            .collect();
        for sql in [
            format!("SELECT v FROM a WHERE k = {p}"),
            format!("SELECT v FROM a WHERE {p} = k"),
            format!("SELECT v FROM a WHERE k + 0 = {p}"),
        ] {
            let r = e.execute(&sql).unwrap();
            prop_assert_eq!(&r.metrics.plan, "Scan(a +1f) -> Project(1)");
            prop_assert_eq!(ints(&r.rows), expected.clone(), "{}", sql);
        }
        let joined: Vec<Vec<i64>> = a
            .iter()
            .flat_map(|(ak, v)| {
                b.iter()
                    .filter(move |(bk, _)| bk == ak && *bk == p)
                    .map(move |(_, w)| vec![*v, *w])
            })
            .collect();
        let r = e
            .execute(&format!("SELECT a.v, b.w FROM a, b WHERE a.k = b.k AND b.k = {p}"))
            .unwrap();
        prop_assert!(r.metrics.plan.contains("Scan(b +1f)"), "{}", r.metrics.plan);
        prop_assert_eq!(ints(&r.rows), joined);
    }

    /// IN subquery equals the equivalent join semantics (set membership).
    #[test]
    fn in_subquery_is_semijoin(a in pairs(), b in pairs()) {
        let mut e = engine_with(&a, &b);
        let r = e
            .execute("SELECT k, v FROM a WHERE k IN (SELECT k FROM b)")
            .unwrap();
        let bkeys: std::collections::HashSet<i64> = b.iter().map(|(k, _)| *k).collect();
        let expect = a.iter().filter(|(k, _)| bkeys.contains(k)).count();
        prop_assert_eq!(r.rows.len(), expect);
    }
}
