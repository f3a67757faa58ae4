//! Recommendation quality on an SDSS-like sky survey log.
//!
//! The paper argues a CQMS should "guide [users] from their rough query
//! attempts toward similar popular queries asked by other users" (§2.3).
//! This example quantifies that guidance with a hold-one-out experiment on a
//! generated astronomy workload: for each held-out session, can the CQMS
//! recommend queries from the same research topic, and does context-aware
//! completion beat popularity-only completion?
//!
//! Run with: `cargo run --example sky_survey_recommendations`

use cqms::engine::model::UserId;
use cqms::engine::similarity::DistanceKind;
use cqms::engine::{Cqms, CqmsConfig};
use workload::{Domain, Trace, TraceConfig};

fn main() {
    let trace = Trace::generate(
        TraceConfig::new(Domain::SkySurvey)
            .with_sessions(60)
            .with_users(6)
            .with_scale(300),
    );
    let engine = trace.build_engine();
    let mut cqms = Cqms::new(engine, CqmsConfig::default());
    let users: Vec<UserId> = (0..6)
        .map(|i| cqms.register_user(&format!("astronomer-{i}")))
        .collect();

    // Hold out the last 10 sessions: their queries are the "rough attempts".
    let held_sessions: Vec<u32> = {
        let mut s: Vec<u32> = trace.queries.iter().map(|q| q.session).collect();
        s.sort_unstable();
        s.dedup();
        s.into_iter().rev().take(10).collect()
    };
    let (train, test): (Vec<_>, Vec<_>) = trace
        .queries
        .iter()
        .partition(|q| !held_sessions.contains(&q.session));

    for q in &train {
        let user = users[q.user as usize % users.len()];
        cqms.run_query_at(user, &q.sql, q.ts).unwrap();
    }
    cqms.run_miner_epoch();
    let snap = cqms.capture_snapshot(0);
    println!(
        "trained on {} queries; evaluating {} held-out queries\n",
        train.len(),
        test.len()
    );

    // --- Recommendation topical accuracy -----------------------------------
    // A recommendation "hits" if the nearest recommended query belongs to the
    // held-out query's ground-truth topic (checked via table overlap).
    let topic_tables: Vec<Vec<String>> = Domain::SkySurvey
        .topics()
        .iter()
        .map(|t| t.tables.iter().map(|s| s.to_ascii_lowercase()).collect())
        .collect();
    let mut hits = 0usize;
    let mut total = 0usize;
    for q in &test {
        let user = users[q.user as usize % users.len()];
        let Ok(recs) = snap.similar_queries(user, &q.sql, 1, DistanceKind::Combined) else {
            continue;
        };
        let Some(best) = recs.first() else { continue };
        total += 1;
        let rec_tables = &cqms.storage.get(best.id).unwrap().features;
        let own_topic = &topic_tables[q.topic as usize];
        if rec_tables
            .tables()
            .any(|t| own_topic.iter().any(|o| **o == **t))
        {
            hits += 1;
        }
    }
    println!(
        "topical recommendation accuracy: {hits}/{total} = {:.1}%",
        100.0 * hits as f64 / total.max(1) as f64
    );

    // --- Completion: context-aware vs popularity-only ----------------------
    // For each held-out multi-table query, hide its last FROM table and ask
    // for completions given the rest.
    let mut ctx_hits = 0usize;
    let mut pop_hits = 0usize;
    let mut cases = 0usize;
    for q in &test {
        let Ok(sqlparse::Statement::Select(sel)) = sqlparse::parse(&q.sql) else {
            continue;
        };
        if sel.from.len() < 2 {
            continue;
        }
        let target = sel.from.last().unwrap().name.to_ascii_lowercase();
        let context: Vec<String> = sel.from[..sel.from.len() - 1]
            .iter()
            .map(|t| t.name.to_ascii_lowercase())
            .collect();
        cases += 1;
        // Context-aware (rules + popularity fallback).
        let partial = format!("SELECT * FROM {}, ", context.join(", "));
        let sugg = snap.complete(users[0], &partial, 1);
        if sugg
            .first()
            .map(|s| s.text.eq_ignore_ascii_case(&target))
            .unwrap_or(false)
        {
            ctx_hits += 1;
        }
        // Popularity-only baseline: most common table overall (excl. context).
        let mut pop: std::collections::HashMap<String, u32> = Default::default();
        for r in cqms.storage.iter_live() {
            for t in r.features.tables() {
                *pop.entry(t.to_string()).or_insert(0) += 1;
            }
        }
        let best_pop = pop
            .iter()
            .filter(|(t, _)| !context.contains(*t))
            .max_by_key(|(_, c)| **c)
            .map(|(t, _)| t.clone());
        if best_pop.map(|t| t == target).unwrap_or(false) {
            pop_hits += 1;
        }
    }
    println!(
        "completion hit@1 on held-out FROM tables ({cases} cases): \
         context-aware {:.1}% vs popularity-only {:.1}%",
        100.0 * ctx_hits as f64 / cases.max(1) as f64,
        100.0 * pop_hits as f64 / cases.max(1) as f64,
    );

    // Show one concrete panel.
    if let Some(q) = test
        .iter()
        .find(|q| q.sql.to_lowercase().contains("specobj"))
    {
        println!("\nsample panel for held-out draft:\n  {}\n", q.sql);
        let panel = snap
            .render_recommendations(users[0], &q.sql, 3)
            .unwrap_or_default();
        print!("{panel}");
    }
}
