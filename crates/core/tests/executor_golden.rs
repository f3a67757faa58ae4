//! Golden digests of the relational executor's observable output.
//!
//! Every statement of a fixed corpus is run and reduced to a digest of
//! what a caller can see: `Ok`/`Err` with the error variant, the output
//! columns, the rows in order, `rows_scanned` and the plan string (the
//! profiler logs the last two as runtime features, paper §4.1). GROUP BY
//! output without ORDER BY comes out in hash order, so its rows are
//! sorted first. The digests are pinned in chunks of at most
//! [`CHUNK`] statements, so a mismatch names the range of statements
//! that moved.
//!
//! The corpus:
//! * the generator's query logs for the three domains, run against each
//!   trace's data tier;
//! * a hand-written list with one statement or more per executor
//!   construct (every join kind, `col = literal` pushdown, correlated
//!   subqueries at depth two, grouping, DISTINCT, ORDER BY alias,
//!   LIMIT/OFFSET, a FROM-less SELECT, errors);
//! * feature meta-queries over the Figure 1 relations of a logged Lakes
//!   trace, through `ReadSnapshot::search_feature_sql`.

use cqms_core::metaquery::FIGURE1_META_QUERY;
use cqms_core::{Cqms, CqmsConfig};
use relstore::{Engine, EngineError, QueryResult};
use sqlparse::ast::Statement;
use workload::{Domain, Trace, TraceConfig};

/// Statements per pinned digest.
const CHUNK: usize = 100;

/// Rows per base table of every data tier in the corpus.
const SCALE: usize = 60;

const LAKES_LOG: &[u64] = &[0x15d65a6d0d9ed590, 0xd091f63ddc529722, 0x7839582a2b20cf86];
const SKY_LOG: &[u64] = &[0xbf945cd199c25eaf, 0x0eb7e4978c626aa8, 0x2f7954f2d3711354];
const WEBLOG_LOG: &[u64] = &[0x082942665ec1c78a, 0xd3ac16af51231707, 0x7a0d909742dac3fb];
const CONSTRUCTS: &[u64] = &[0xe1435d0b0daa30c4];
const FEATURES: &[u64] = &[0x12111adb8e7dbb9a, 0x3b96a76ea1ee274f];

/// 64-bit FNV-1a: stable across platforms and toolchains.
fn fnv(bytes: &[u8], mut h: u64) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

const FNV_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// The name of an error's variant path, e.g. `Engine(TypeError(`.
fn variant(debug: &str) -> &str {
    debug.split(['"', ' ', '{']).next().unwrap_or(debug)
}

fn digest(sql: &str, result: Result<QueryResult, String>) -> u64 {
    let text = match result {
        Err(e) => format!("err|{}", variant(&e)),
        Ok(r) => {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            let grouped_unordered = matches!(
                sqlparse::parse(sql),
                Ok(Statement::Select(s)) if !s.group_by.is_empty() && s.order_by.is_empty()
            );
            if grouped_unordered {
                rows.sort();
            }
            format!(
                "ok|{:?}|{}|{}|{}",
                r.columns,
                r.metrics.rows_scanned,
                r.metrics.plan,
                rows.join("\n")
            )
        }
    };
    fnv(text.as_bytes(), FNV_SEED)
}

fn engine_digest(sql: &str, result: Result<QueryResult, EngineError>) -> u64 {
    digest(sql, result.map_err(|e| format!("{e:?}")))
}

/// Compare per-statement digests against the pinned chunk digests.
fn check(corpus: &str, digests: &[u64], golden: &[u64]) {
    let chunks: Vec<u64> = digests
        .chunks(CHUNK)
        .map(|c| c.iter().fold(FNV_SEED, |h, d| fnv(&d.to_le_bytes(), h)))
        .collect();
    let moved: Vec<String> = chunks
        .iter()
        .enumerate()
        .filter(|(i, d)| golden.get(*i) != Some(*d))
        .map(|(i, _)| format!("{}..{}", i * CHUNK, ((i + 1) * CHUNK).min(digests.len())))
        .collect();
    let listed: Vec<String> = chunks.iter().map(|d| format!("0x{d:016x}")).collect();
    assert!(
        moved.is_empty() && golden.len() == chunks.len(),
        "{corpus}: {} statements, output moved in statements {moved:?}; \
         computed chunk digests: [{}]",
        digests.len(),
        listed.join(", ")
    );
}

fn trace(domain: Domain) -> Trace {
    Trace::generate(TraceConfig::new(domain).with_scale(SCALE))
}

fn log_digests(domain: Domain) -> Vec<u64> {
    let trace = trace(domain);
    let engine = trace.build_engine();
    trace
        .queries
        .iter()
        .map(|q| engine_digest(&q.sql, engine.query(&q.sql)))
        .collect()
}

#[test]
fn lakes_log_output_is_pinned() {
    check("lakes log", &log_digests(Domain::Lakes), LAKES_LOG);
}

#[test]
fn skysurvey_log_output_is_pinned() {
    check("skysurvey log", &log_digests(Domain::SkySurvey), SKY_LOG);
}

#[test]
fn weblog_log_output_is_pinned() {
    check("weblog log", &log_digests(Domain::WebLog), WEBLOG_LOG);
}

/// One statement or more per executor construct, over the Lakes tables
/// with NULL-bearing rows added.
const CONSTRUCT_SQL: &[&str] = &[
    // Comma joins: hash keys from WHERE, residuals, cartesian products.
    "SELECT T.lake, T.temp, S.salinity FROM WaterTemp T, WaterSalinity S \
     WHERE T.lake = S.lake AND T.month = S.month AND T.temp < 12 ORDER BY T.temp, S.salinity",
    "SELECT * FROM Lakes L, CityLocations C WHERE L.state = C.state AND C.pop > 100000",
    "SELECT C.city, L.lake FROM CityLocations C, Lakes L, WaterTemp T \
     WHERE C.state = L.state AND L.lake = T.lake AND T.temp > 20",
    "SELECT a.lake, b.lake FROM Lakes a, Lakes b WHERE a.area < b.area",
    "SELECT L.lake, C.city FROM Lakes L, CityLocations C",
    "SELECT * FROM Lakes L, CityLocations C, WaterTemp T WHERE T.lake = L.lake AND T.month = 3",
    "SELECT city, lake FROM CityLocations, Lakes \
     WHERE CityLocations.state = Lakes.state AND pop > 500000",
    "SELECT a.city, b.city FROM CityLocations a, CityLocations b \
     WHERE a.state = b.state AND a.pop < b.pop ORDER BY a.city, b.city",
    "SELECT T.temp, S.salinity FROM WaterTemp T, WaterSalinity S \
     WHERE T.lake = S.lake AND (T.temp > 22 OR S.salinity > 0.48) AND T.month = S.month",
    "SELECT L.*, C.city FROM Lakes L, CityLocations C WHERE L.state = C.state AND C.city = 'Seattle'",
    "SELECT * FROM WaterTemp T, WaterSalinity S WHERE T.loc_x = S.loc_x AND T.month = S.month",
    // INNER JOIN … ON.
    "SELECT T.temp, L.area FROM WaterTemp T INNER JOIN Lakes L ON T.lake = L.lake WHERE T.month = 1",
    "SELECT T.temp, L.area FROM WaterTemp T JOIN Lakes L ON T.lake = L.lake AND L.area > 1000 \
     ORDER BY T.temp DESC",
    "SELECT T.temp, L.area FROM WaterTemp T JOIN Lakes L ON T.lake = L.lake \
     WHERE L.area > 2000 AND T.month < 4",
    "SELECT T.temp, S.salinity FROM WaterTemp T JOIN WaterSalinity S \
     ON T.lake = S.lake AND T.month < S.month WHERE T.temp > 23",
    // LEFT OUTER JOIN.
    "SELECT L.lake, T.temp FROM Lakes L LEFT JOIN WaterTemp T ON L.lake = T.lake AND T.temp > 23",
    "SELECT L.lake, T.temp FROM Lakes L LEFT OUTER JOIN WaterTemp T \
     ON L.lake = T.lake AND T.temp > 23 WHERE T.temp IS NULL",
    "SELECT C.city, L.lake FROM CityLocations C LEFT JOIN Lakes L ON C.state = L.state \
     WHERE C.pop > 100000",
    "SELECT L.lake, T.temp, C.city FROM Lakes L LEFT JOIN WaterTemp T \
     ON L.lake = T.lake AND T.temp > 23, CityLocations C WHERE C.state = L.state AND C.pop > 700000",
    "SELECT C.city, T.temp FROM CityLocations C LEFT JOIN WaterTemp T ON T.lake = C.city",
    "SELECT C.city, L.lake FROM CityLocations C LEFT JOIN Lakes L ON C.pop > L.area * 200",
    // RIGHT OUTER JOIN.
    "SELECT T.temp, L.lake FROM WaterTemp T RIGHT JOIN Lakes L ON T.lake = L.lake AND T.temp > 23",
    "SELECT T.temp, L.lake FROM WaterTemp T RIGHT JOIN Lakes L ON T.lake = L.lake AND T.temp > 23 \
     WHERE L.area > 1000",
    "SELECT L.lake, T.month FROM WaterTemp T RIGHT OUTER JOIN Lakes L \
     ON T.lake = L.lake AND T.month = 13 ORDER BY L.lake",
    // FULL OUTER JOIN.
    "SELECT C.city, L.lake FROM CityLocations C FULL OUTER JOIN Lakes L ON C.city = L.lake",
    "SELECT C.state, L.state FROM CityLocations C FULL JOIN Lakes L \
     ON C.state = L.state AND C.pop > 500000",
    "SELECT C.city, L.lake FROM CityLocations C FULL JOIN Lakes L ON C.pop < L.area * 100",
    "SELECT L.state, COUNT(C.city) FROM Lakes L FULL JOIN CityLocations C \
     ON L.state = C.state GROUP BY L.state",
    "SELECT DISTINCT L.state, C.state FROM Lakes L FULL JOIN CityLocations C ON L.lake = C.city",
    // CROSS JOIN.
    "SELECT L.lake, C.city FROM Lakes L CROSS JOIN CityLocations C WHERE C.state = 'OR'",
    "SELECT COUNT(*) FROM Lakes a CROSS JOIN Lakes b CROSS JOIN Lakes c",
    // `col = literal` pushdown.
    "SELECT temp, month FROM WaterTemp WHERE lake = 'Lake Union' ORDER BY temp",
    "SELECT * FROM WaterTemp WHERE 'Green Lake' = lake AND month > 6",
    "SELECT T.temp, C.city FROM WaterTemp T, CityLocations C \
     WHERE T.lake = 'Lake Tapps' AND C.state = 'WA' AND T.month = 5",
    "SELECT temp FROM WaterTemp WHERE lake = 'Nowhere'",
    // Correlated subqueries, depth two.
    "SELECT L.lake FROM Lakes L WHERE EXISTS (SELECT * FROM WaterTemp T WHERE T.lake = L.lake \
     AND EXISTS (SELECT * FROM WaterSalinity S WHERE S.lake = T.lake AND S.month = T.month \
     AND S.salinity > 0.4))",
    "SELECT C.city FROM CityLocations C WHERE C.state IN (SELECT L.state FROM Lakes L \
     WHERE L.area > C.pop / 1000 AND L.lake IN (SELECT T.lake FROM WaterTemp T \
     WHERE T.temp > L.max_depth / 3))",
    "SELECT L.lake, (SELECT MAX(T.temp) FROM WaterTemp T WHERE T.lake = L.lake \
     AND T.month = (SELECT MIN(S.month) FROM WaterSalinity S WHERE S.lake = L.lake)) AS hottest \
     FROM Lakes L ORDER BY L.lake",
    "SELECT L.lake FROM Lakes L WHERE EXISTS (SELECT * FROM WaterTemp T WHERE T.lake = L.lake \
     AND EXISTS (SELECT * FROM CityLocations C WHERE C.state = L.state \
     AND C.pop > T.temp * 40000))",
    "SELECT C.city FROM CityLocations C WHERE NOT EXISTS \
     (SELECT * FROM Lakes L WHERE L.state = C.state)",
    "SELECT L.lake FROM Lakes L WHERE L.state NOT IN \
     (SELECT C.state FROM CityLocations C WHERE C.pop > L.area * 1000)",
    "SELECT L.lake FROM Lakes L WHERE (SELECT COUNT(*) FROM WaterTemp T \
     WHERE T.lake = L.lake AND T.temp > L.max_depth / 4) > 3",
    "SELECT T.lake, T.temp, (SELECT COUNT(*) FROM WaterSalinity S WHERE S.lake = T.lake \
     AND S.month = T.month) AS n FROM WaterTemp T, Lakes L WHERE T.lake = L.lake AND L.area > 2500",
    "SELECT lake FROM WaterSalinity WHERE lake IN (SELECT lake FROM WaterTemp WHERE temp > 23)",
    "SELECT lake FROM Lakes WHERE EXISTS (SELECT * FROM CityLocations WHERE pop > 700000)",
    "SELECT city FROM CityLocations WHERE pop > (SELECT AVG(pop) FROM CityLocations)",
    // Grouping, HAVING, aggregate ORDER BY.
    "SELECT lake, COUNT(*) AS n, AVG(temp) AS avg_t FROM WaterTemp GROUP BY lake \
     HAVING COUNT(*) > 5 ORDER BY AVG(temp) DESC",
    "SELECT month, MIN(temp), MAX(temp), SUM(month) FROM WaterTemp GROUP BY month ORDER BY month",
    "SELECT lake, COUNT(DISTINCT month) FROM WaterSalinity GROUP BY lake",
    "SELECT T.lake, COUNT(*) FROM WaterTemp T, Lakes L WHERE T.lake = L.lake GROUP BY T.lake \
     HAVING MAX(T.temp) > 16 ORDER BY COUNT(*) DESC, T.lake",
    "SELECT COUNT(*), SUM(temp), AVG(temp), MIN(lake) FROM WaterTemp WHERE temp > 1000",
    "SELECT month % 3 AS m3, COUNT(*) FROM WaterTemp GROUP BY month % 3 ORDER BY m3",
    "SELECT lake FROM WaterTemp GROUP BY lake ORDER BY lake DESC",
    "SELECT lake FROM WaterTemp GROUP BY lake ORDER BY COUNT(*), lake",
    "SELECT COUNT(*) FROM WaterTemp HAVING COUNT(*) > 10",
    "SELECT COUNT(*) FROM WaterTemp HAVING COUNT(*) > 1000",
    "SELECT CASE WHEN temp < 10 THEN 'cold' ELSE 'warm' END AS band, COUNT(*) FROM WaterTemp \
     GROUP BY CASE WHEN temp < 10 THEN 'cold' ELSE 'warm' END ORDER BY band",
    "SELECT state, COUNT(*), COUNT(area), SUM(area), MAX(max_depth) FROM Lakes GROUP BY state",
    "SELECT lake, MAX(temp) - MIN(temp) AS spread FROM WaterTemp WHERE lake IS NOT NULL \
     GROUP BY lake ORDER BY spread DESC, lake",
    // DISTINCT.
    "SELECT DISTINCT lake FROM WaterTemp ORDER BY lake",
    "SELECT DISTINCT T.month FROM WaterTemp T, Lakes L WHERE T.lake = L.lake AND L.area > 2000",
    "SELECT DISTINCT state FROM CityLocations",
    // ORDER BY alias, LIMIT/OFFSET.
    "SELECT lake, temp * 2 AS doubled FROM WaterTemp ORDER BY doubled DESC LIMIT 5",
    "SELECT city AS name, pop FROM CityLocations ORDER BY name",
    "SELECT lake, temp FROM WaterTemp ORDER BY temp LIMIT 7 OFFSET 3",
    "SELECT * FROM Lakes LIMIT 2",
    "SELECT * FROM Lakes ORDER BY area DESC LIMIT 10 OFFSET 4",
    "SELECT * FROM Lakes OFFSET 2",
    "SELECT lake FROM Lakes ORDER BY max_depth * -1 LIMIT 0",
    // Filters and scalar expressions.
    "SELECT lake FROM Lakes WHERE area BETWEEN 1000 AND 2500 OR lake LIKE 'Green%'",
    "SELECT city FROM CityLocations WHERE state IN ('OR', 'XX') OR city NOT LIKE '%e%'",
    "SELECT lake, UPPER(state), LENGTH(lake), ROUND(area / 3, 1), COALESCE(max_depth, -1) \
     FROM Lakes ORDER BY lake",
    "SELECT * FROM WaterTemp WHERE temp IS NULL OR lake IS NULL",
    "SELECT lake FROM Lakes WHERE NOT (area > 1000)",
    // FROM-less SELECTs.
    "SELECT 1 + 2 * 3, 'a' || 'b', 10 / 4",
    "SELECT (SELECT COUNT(*) FROM Lakes)",
    // Errors.
    "SELECT lake + 1 FROM Lakes",
    "SELECT * FROM Lakes WHERE NOT area",
    "SELECT SUM(lake) FROM Lakes",
    "SELECT nope FROM Lakes",
    "SELECT lake FROM Lakes L, WaterTemp T",
    "SELECT * FROM Missing",
    "SELECT 1 / 0",
    "SELECT * FROM Lakes GROUP BY lake",
    "SELECT (SELECT lake FROM Lakes)",
    "SELECT lake FROM Lakes WHERE lake IN (SELECT lake, state FROM Lakes)",
    "SELECT COUNT(*) FROM Lakes WHERE COUNT(*) > 1",
    "SELECT *",
];

#[test]
fn construct_output_is_pinned() {
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, SCALE, 11);
    engine
        .execute("INSERT INTO Lakes VALUES ('Mystery Pond', NULL, NULL, NULL)")
        .unwrap();
    engine
        .execute("INSERT INTO WaterTemp VALUES (NULL, NULL, NULL, NULL, 4)")
        .unwrap();
    let digests: Vec<u64> = CONSTRUCT_SQL
        .iter()
        .map(|sql| engine_digest(sql, engine.execute(sql)))
        .collect();
    check("constructs", &digests, CONSTRUCTS);
}

/// The tables a generated statement reads, in FROM order.
fn tables_of(sql: &str) -> Vec<String> {
    match sqlparse::parse(sql) {
        Ok(Statement::Select(s)) => s.from.iter().map(|t| t.name.clone()).collect(),
        _ => Vec::new(),
    }
}

/// "Which logged queries read these relations", for the first `n` of
/// `tables`: the meta-query shape the benchmark issues.
fn reads_relations(tables: &[String], n: usize) -> String {
    let mut from = vec!["Queries Q".to_string()];
    let mut conds = Vec::new();
    for (i, t) in tables.iter().take(n).enumerate() {
        let alias = format!("D{}", i + 1);
        from.push(format!("DataSources {alias}"));
        conds.push(format!("Q.qid = {alias}.qid"));
        conds.push(format!("{alias}.relName = '{t}'"));
    }
    let mut sql = format!("SELECT Q.qid FROM {}", from.join(", "));
    if !conds.is_empty() {
        sql.push_str(" WHERE ");
        sql.push_str(&conds.join(" AND "));
    }
    sql
}

#[test]
fn feature_sql_output_is_pinned() {
    let trace = trace(Domain::Lakes);
    let mut cqms = Cqms::new(trace.build_engine(), CqmsConfig::default());
    let users: Vec<_> = (0..trace.config.users)
        .map(|i| cqms.register_user(&format!("analyst-{i}")))
        .collect();
    for q in &trace.queries {
        cqms.run_query_at(users[q.user as usize], &q.sql, q.ts)
            .unwrap();
    }
    let snap = cqms.capture_snapshot(0);
    let viewer = users[1];

    let mut statements: Vec<String> = vec![
        FIGURE1_META_QUERY.to_string(),
        snap.generate_feature_query("SELECT FROM WaterSalinity, WaterTemp")
            .unwrap(),
        snap.generate_feature_query("SELECT lake FROM Lakes WHERE area > 10")
            .unwrap(),
    ];
    for (i, q) in trace.queries.iter().take(120).enumerate() {
        statements.push(reads_relations(&tables_of(&q.sql), i % 3));
    }
    statements.extend(
        [
            "SELECT D.relName, COUNT(*) AS n FROM DataSources D GROUP BY D.relName \
             ORDER BY n DESC, D.relName",
            "SELECT A.relName, A.attrName, COUNT(*) FROM Attributes A GROUP BY A.relName, A.attrName",
            "SELECT P.qid, P.attrName, P.op FROM Predicates P \
             WHERE P.relName = 'WaterTemp' AND P.op = '<' ORDER BY P.qid",
            "SELECT Q.qid FROM Queries Q WHERE EXISTS (SELECT * FROM DataSources D \
             WHERE D.qid = Q.qid AND D.relName = 'Lakes') AND NOT EXISTS \
             (SELECT * FROM Predicates P WHERE P.qid = Q.qid)",
            "SELECT Q.qid, COUNT(D.relName) FROM Queries Q LEFT JOIN DataSources D \
             ON Q.qid = D.qid GROUP BY Q.qid ORDER BY Q.qid",
            "SELECT M.author, COUNT(*), SUM(M.cardinality) FROM QueryMeta M \
             GROUP BY M.author ORDER BY M.author",
            "SELECT M.sessionId, COUNT(*) FROM QueryMeta M WHERE M.success \
             GROUP BY M.sessionId ORDER BY M.sessionId",
            "SELECT DISTINCT D.relName FROM DataSources D ORDER BY D.relName",
            "SELECT Q.qid, Q.qText FROM Queries Q, DataSources D WHERE Q.qid = D.qid \
             AND D.relName = 'CityLocations' ORDER BY Q.qid DESC LIMIT 5 OFFSET 1",
            "SELECT Q.qid FROM Queries Q WHERE Q.qid IN \
             (SELECT A.qid FROM Attributes A WHERE A.attrName = 'temp')",
            "SELECT * FROM Queries Q WHERE Q.qid < 3",
            "SELECT Q.qid, A.attrName FROM Queries Q JOIN Attributes A ON Q.qid = A.qid \
             WHERE A.relName = 'WaterSalinity' ORDER BY Q.qid, A.attrName",
            "SELECT Q.nope FROM Queries Q",
            "SELECT COUNT(*) AS qid FROM Queries Q",
            "SELECT Q.qid AS id FROM Queries Q",
        ]
        .map(String::from),
    );
    let digests: Vec<u64> = statements
        .iter()
        .map(|sql| {
            let result = snap
                .search_feature_sql(viewer, sql)
                .map_err(|e| format!("{e:?}"));
            digest(sql, result)
        })
        .collect();
    check("feature SQL", &digests, FEATURES);
}
