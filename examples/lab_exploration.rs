//! A collaborating limnology lab — the paper's motivating scenario, end to
//! end on a realistic multi-user query log.
//!
//! Replays a generated multi-user trace through the CQMS, then demonstrates
//! each of the paper's figures against the accumulated log:
//! Figure 1 (the verbatim meta-query), Figure 2 (a session window),
//! Figure 3 (the recommendation panel), plus query-by-data (§2.2) and the
//! auto-generated tutorial (§2.3).
//!
//! Run with: `cargo run --example lab_exploration`

use cqms::engine::metaquery::FIGURE1_META_QUERY;
use cqms::engine::model::UserId;
use cqms::engine::{Cqms, CqmsConfig};
use workload::{Domain, Trace, TraceConfig};

fn main() {
    // Build the shared lab database + a 30-session query log with planted
    // ground truth (sessions, topics, association rules).
    let trace = Trace::generate(
        TraceConfig::new(Domain::Lakes)
            .with_sessions(30)
            .with_users(4)
            .with_scale(400),
    );
    let engine = trace.build_engine();
    let mut cqms = Cqms::new(engine, CqmsConfig::default());

    // Register the lab members and one shared group.
    let members: Vec<UserId> = (0..4)
        .map(|i| cqms.register_user(&format!("scientist-{i}")))
        .collect();
    let lab = cqms.create_group("limnology-lab");
    for m in &members {
        cqms.join_group(*m, lab).unwrap();
    }

    // Replay the trace through the Traditional Interaction Mode.
    let mut failures = 0;
    for q in &trace.queries {
        let user = members[q.user as usize % members.len()];
        match cqms.run_query_at(user, &q.sql, q.ts) {
            Ok(out) if out.error.is_none() => {}
            _ => failures += 1,
        }
    }
    println!(
        "replayed {} queries ({} failures), {} sessions detected online",
        trace.queries.len(),
        failures,
        cqms.storage.session_ids().len()
    );

    // One miner epoch digests the log.
    let miner = cqms.run_miner_epoch();
    let (_, clustering) = cqms.capture_snapshot(0).cluster_queries(members[0], 0);
    println!(
        "miner epoch: {} association rules, {} session labels refined; {} query clusters\n",
        miner.association_rules,
        miner.sessions_refined,
        clustering.medoids.len()
    );

    // --- Figure 1: the verbatim meta-query --------------------------------
    println!("== Figure 1: find all queries that correlate salinity with temperature ==");
    let result = cqms
        .capture_snapshot(0)
        .search_feature_sql(members[0], FIGURE1_META_QUERY)
        .unwrap();
    println!("{} matching queries; first 3:", result.rows.len());
    for row in result.rows.iter().take(3) {
        println!("  [q{}] {}", row[0].render(), row[1].render());
    }

    // --- Figure 2: browse one multi-query session -------------------------
    println!("\n== Figure 2: a session window ==");
    let busiest = cqms
        .storage
        .session_ids()
        .into_iter()
        .max_by_key(|s| cqms.storage.queries_in_session(*s).len())
        .unwrap();
    let snap = cqms.capture_snapshot(0);
    print!("{}", snap.render_session(members[0], busiest).unwrap());

    // --- §2.2 query-by-data: Lake Washington but not Lake Union -----------
    println!("\n== Query-by-data: output includes Lake Washington, excludes Lake Union ==");
    let hits = snap.search_by_data(members[0], &["Lake Washington"], &["Lake Union"]);
    println!("{} queries match; first 3:", hits.len());
    for id in hits.iter().take(3) {
        println!("  [q{id}] {}", cqms.storage.get(*id).unwrap().raw_sql);
    }

    // --- Figure 3: assisted composition ------------------------------------
    println!("\n== Figure 3: completions for 'SELECT * FROM WaterSalinity, ' ==");
    for s in snap.complete(members[1], "SELECT * FROM WaterSalinity, ", 3) {
        println!("  {:<18} {:.0}%  ({})", s.text, s.score * 100.0, s.why);
    }
    println!("\n== Figure 3: similar-queries panel while composing ==");
    let panel = snap
        .render_recommendations(
            members[1],
            "SELECT * FROM WaterSalinity S, WaterTemp T \
             WHERE S.loc_x = T.loc_x AND T.temp < 18",
            3,
        )
        .unwrap();
    print!("{panel}");

    // --- §2.3 tutorial generation ------------------------------------------
    println!("\n== Auto-generated tutorial (first 15 lines) ==");
    for line in cqms.tutorial(1).lines().take(15) {
        println!("{line}");
    }

    // --- Browse summary ------------------------------------------------------
    println!("\n== Log browser (5 sessions) ==");
    print!("{}", snap.render_log_summary(members[0], 5));
}
