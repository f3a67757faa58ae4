//! Deterministic experiment driver: regenerates every experiment table
//! (E1–E13) recorded in `EXPERIMENTS.md`.
//!
//! Usage: `cargo run --release -p cqms-bench --bin experiments [e1 e2 ...]`
//! (no arguments = run everything).

use cqms_bench::{logged_cqms, logged_cqms_with, time_mean, us};
use cqms_core::config::ProfilingDepth;
use cqms_core::metaquery::{TreePattern, FIGURE1_META_QUERY};
use cqms_core::miner::{adjusted_rand_index, purity, sessions};
use cqms_core::model::{QueryId, UserId};
use cqms_core::similarity::DistanceKind;
use cqms_core::{Cqms, CqmsConfig};
use std::collections::HashMap;
use workload::{Domain, Trace, TraceConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).map(|a| a.to_lowercase()).collect();
    let run = |name: &str| args.is_empty() || args.iter().any(|a| a == name);
    println!("# CQMS experiment suite (deterministic, seed-fixed)\n");
    if run("e1") {
        e1_figure1_metaquery();
    }
    if run("e2") {
        e2_sessions();
    }
    if run("e3") {
        e3_completion();
    }
    if run("e4") {
        e4_profiler_overhead();
    }
    if run("e5") {
        e5_query_by_data();
    }
    if run("e6") {
        e6_search_modes();
    }
    if run("e7") {
        e7_knn();
    }
    if run("e8") {
        e8_clustering();
    }
    if run("e9") {
        e9_assoc_rules();
    }
    if run("e10") {
        e10_maintenance();
    }
    if run("e11") {
        e11_summarisation();
    }
    if run("e12") {
        e12_access_control();
    }
    if run("e13") {
        e13_refresh_policy();
    }
}

// ---------------------------------------------------------------------
// E1 — Figure 1: query-by-feature meta-query (correctness + latency + A1)
// ---------------------------------------------------------------------
fn e1_figure1_metaquery() {
    println!("## E1 — Figure 1 meta-query (query-by-feature)\n");
    println!(
        "| log size | matches | feature-SQL latency (us) | raw-text scan latency (us) | speedup |"
    );
    println!("|---|---|---|---|---|");
    for &size in &[500usize, 2000, 8000] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE1);
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        let result = snap.search_feature_sql(user, FIGURE1_META_QUERY).unwrap();
        let matches = result.rows.len();

        let t_feature = time_mean(5, || {
            snap.search_feature_sql(user, FIGURE1_META_QUERY).unwrap()
        });

        // Ablation A1: the "raw text" data model — parse + extract features
        // per stored query at search time.
        let t_raw = time_mean(3, || {
            let mut hits = 0usize;
            for r in lc.cqms.storage.iter_live() {
                if let Ok(stmt) = sqlparse::parse(&r.raw_sql) {
                    let f = cqms_core::features::extract(&stmt, None);
                    let has_sal = f
                        .attributes
                        .iter()
                        .any(|(t, a)| t == "watersalinity" && a == "salinity");
                    let has_temp = f
                        .attributes
                        .iter()
                        .any(|(t, a)| t == "watertemp" && a == "temp");
                    if has_sal && has_temp {
                        hits += 1;
                    }
                }
            }
            hits
        });
        println!(
            "| {size} | {matches} | {} | {} | {:.1}x |",
            us(t_feature),
            us(t_raw),
            t_raw.as_secs_f64() / t_feature.as_secs_f64().max(1e-12)
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E2 — Figure 2: session detection quality + rendered window
// ---------------------------------------------------------------------
fn e2_sessions() {
    println!("## E2 — Figure 2 session detection\n");
    println!("| idle gap (s) | boundary P | boundary R | boundary F1 | pairwise F1 |");
    println!("|---|---|---|---|---|");
    for &gap in &[120u64, 600, 1800] {
        let cfg = CqmsConfig {
            session_idle_gap_secs: gap,
            ..CqmsConfig::default()
        };
        let lc = logged_cqms_with(Domain::Lakes, 600, 0xE2, cfg.clone());
        let refined = sessions::segment_log(&lc.cqms.storage, &cfg);
        let mut order: HashMap<UserId, Vec<QueryId>> = HashMap::new();
        let mut truth: HashMap<QueryId, u64> = HashMap::new();
        for (i, q) in lc.trace.queries.iter().enumerate() {
            let id = QueryId(i as u64);
            let user = lc.users[q.user as usize % lc.users.len()];
            order.entry(user).or_default().push(id);
            truth.insert(id, q.session as u64);
        }
        let order: Vec<(UserId, Vec<QueryId>)> = order.into_iter().collect();
        let q = sessions::segmentation_quality(&order, &truth, &refined);
        println!(
            "| {gap} | {:.3} | {:.3} | {:.3} | {:.3} |",
            q.boundary_precision, q.boundary_recall, q.boundary_f1, q.pairwise_f1
        );
    }

    // Render the verbatim Figure 2 session.
    let mut engine = relstore::Engine::new();
    Domain::Lakes.setup(&mut engine, 100, 0xF2);
    let mut cqms = Cqms::new(engine, CqmsConfig::default());
    let u = cqms.register_user("nodira");
    for (i, sql) in workload::querygen::figure2_session().iter().enumerate() {
        cqms.run_query_at(u, sql, 9000 + 60 * i as u64).unwrap();
    }
    let session = cqms.storage.get(QueryId(0)).unwrap().session;
    println!("\nRendered Figure 2 window:\n");
    println!("```text");
    print!(
        "{}",
        cqms.capture_snapshot(0).render_session(u, session).unwrap()
    );
    println!("```\n");
}

// ---------------------------------------------------------------------
// E3 — Figure 3: completion quality (A2 ablation) + latency
// ---------------------------------------------------------------------
fn e3_completion() {
    println!("## E3 — Figure 3 completion quality (hold-one-out)\n");
    println!("| domain | cases | context hit@1 | popularity hit@1 | random hit@1 | context MRR | suggest latency (us) |");
    println!("|---|---|---|---|---|---|---|");
    for domain in Domain::all() {
        let trace = Trace::generate(
            TraceConfig::new(domain)
                .with_sessions(200)
                .with_users(6)
                .with_scale(200)
                .with_seed(0xE3),
        );
        // Train/test split by session: last 25% of sessions held out.
        let max_session = trace.queries.iter().map(|q| q.session).max().unwrap_or(0);
        let cut = max_session - max_session / 4;
        let engine = trace.build_engine();
        let mut cqms = Cqms::new(engine, CqmsConfig::default());
        let users: Vec<UserId> = (0..6)
            .map(|i| cqms.register_user(&format!("u{i}")))
            .collect();
        for q in trace.queries.iter().filter(|q| q.session < cut) {
            let user = users[q.user as usize % users.len()];
            let _ = cqms.run_query_at(user, &q.sql, q.ts);
        }
        let snap = cqms.capture_snapshot(0);
        // Global popularity baseline.
        let mut pop: HashMap<String, u32> = HashMap::new();
        for r in cqms.storage.iter_live() {
            for t in &r.features.tables {
                *pop.entry(t.clone()).or_insert(0) += 1;
            }
        }
        let n_tables = domain
            .topics()
            .iter()
            .flat_map(|t| t.tables.iter())
            .collect::<std::collections::HashSet<_>>()
            .len();

        let mut cases = 0usize;
        let mut ctx_hit1 = 0usize;
        let mut pop_hit1 = 0usize;
        let mut mrr = 0.0f64;
        for q in trace.queries.iter().filter(|q| q.session >= cut) {
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
            let partial = format!("SELECT * FROM {}, ", context.join(", "));
            let sugg = snap.complete(users[0], &partial, 5);
            if let Some(rank) = sugg
                .iter()
                .position(|s| s.text.eq_ignore_ascii_case(&target))
            {
                mrr += 1.0 / (rank + 1) as f64;
                if rank == 0 {
                    ctx_hit1 += 1;
                }
            }
            let best_pop = pop
                .iter()
                .filter(|(t, _)| !context.contains(*t))
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map(|(t, _)| t.clone());
            if best_pop.map(|t| t == target).unwrap_or(false) {
                pop_hit1 += 1;
            }
        }
        let t_suggest = time_mean(20, || snap.complete(users[0], "SELECT * FROM ", 5).len());
        let n = cases.max(1) as f64;
        println!(
            "| {} | {cases} | {:.3} | {:.3} | {:.3} | {:.3} | {} |",
            domain.name(),
            ctx_hit1 as f64 / n,
            pop_hit1 as f64 / n,
            1.0 / n_tables as f64,
            mrr / n,
            us(t_suggest),
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E4 — Figure 4 / §2.1: profiler overhead (A5 ablation)
// ---------------------------------------------------------------------
fn e4_profiler_overhead() {
    println!("## E4 — profiler overhead (depths: off / text / features / full)\n");
    println!("| data rows | bare engine (us/q) | +text log | +features | +full summary | full overhead |");
    println!("|---|---|---|---|---|---|");
    for &scale in &[1_000usize, 10_000] {
        let trace = Trace::generate(
            TraceConfig::new(Domain::Lakes)
                .with_sessions(20)
                .with_scale(scale)
                .with_seed(0xE4),
        );
        let sqls: Vec<String> = trace.queries.iter().map(|q| q.sql.clone()).collect();

        // Bare engine.
        let mut engine = trace.build_engine();
        let t_bare = time_mean(3, || {
            for sql in &sqls {
                let _ = engine.execute(sql);
            }
        }) / sqls.len() as u32;

        let mut depth_times = Vec::new();
        for depth in [
            ProfilingDepth::Text,
            ProfilingDepth::Features,
            ProfilingDepth::Full,
        ] {
            let cfg = CqmsConfig {
                profiling_depth: depth,
                ..CqmsConfig::default()
            };
            let engine = trace.build_engine();
            let mut cqms = Cqms::new(engine, cfg);
            let u = cqms.register_user("u");
            let start = std::time::Instant::now();
            for (i, sql) in sqls.iter().enumerate() {
                let _ = cqms.run_query_at(u, sql, (i as u64) * 60);
            }
            depth_times.push(start.elapsed() / sqls.len() as u32);
        }
        let overhead =
            (depth_times[2].as_secs_f64() / t_bare.as_secs_f64().max(1e-12) - 1.0) * 100.0;
        println!(
            "| {scale} | {} | {} | {} | {} | {:.0}% |",
            us(t_bare),
            us(depth_times[0]),
            us(depth_times[1]),
            us(depth_times[2]),
            overhead
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E5 — §2.2 query-by-data
// ---------------------------------------------------------------------
fn e5_query_by_data() {
    println!("## E5 — query-by-data (Lake Washington \\ Lake Union)\n");
    // Correctness on a controlled log: all matching queries must carry the
    // separating predicate.
    let mut engine = relstore::Engine::new();
    Domain::Lakes.setup(&mut engine, 400, 0xE5);
    // Store everything → exhaustive summaries.
    let cfg = CqmsConfig {
        full_output_min_rows: 10_000,
        ..CqmsConfig::default()
    };
    let mut cqms = Cqms::new(engine, cfg);
    let u = cqms.register_user("u");
    for thr in [12, 15, 18, 20, 22, 25] {
        cqms.run_query(
            u,
            &format!("SELECT DISTINCT lake FROM WaterTemp WHERE temp < {thr}"),
        )
        .unwrap();
    }
    let hits = cqms
        .capture_snapshot(0)
        .search_by_data(u, &["Lake Washington"], &["Lake Union"]);
    let all_separating = hits.iter().all(|id| {
        let sql = &cqms.storage.get(*id).unwrap().raw_sql;
        // Lake Union temps start at 18.5 in the generator.
        ["12", "15", "18"]
            .iter()
            .any(|t| sql.contains(&format!("< {t}")))
    });
    println!(
        "controlled log: {} queries match include=[Lake Washington], exclude=[Lake Union]; \
         all matches use a separating threshold: {all_separating}\n",
        hits.len()
    );

    println!("| log size | summaries | matches | latency (us) |");
    println!("|---|---|---|---|");
    for &(size, full) in &[(500usize, true), (2000, true), (2000, false)] {
        let mut cfg = CqmsConfig::default();
        if full {
            cfg.full_output_min_rows = 10_000;
        } else {
            cfg.full_output_min_rows = 4;
            cfg.full_output_rows_per_ms = 0.0;
            cfg.output_sample_size = 8;
        }
        let lc = logged_cqms_with(Domain::Lakes, size, 0xE5, cfg);
        let user = lc.users[0];
        let snap = lc.cqms.capture_snapshot(0);
        let hits = snap.search_by_data(user, &["Lake Washington"], &["Lake Union"]);
        let t = time_mean(5, || {
            snap.search_by_data(user, &["Lake Washington"], &["Lake Union"])
                .len()
        });
        println!(
            "| {size} | {} | {} | {} |",
            if full { "exhaustive" } else { "sampled" },
            hits.len(),
            us(t)
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E6 — §2.2/§4.2 search-mode latency
// ---------------------------------------------------------------------
fn e6_search_modes() {
    println!("## E6 — meta-query latency by search mode (2000-query log)\n");
    let lc = logged_cqms(Domain::Lakes, 2000, 0xE6);
    let user = lc.users[0];
    let tree = TreePattern {
        tables_all: vec!["watersalinity".into()],
        predicate_on: Some(("watertemp".into(), "temp".into(), Some("<".into()))),
        ..Default::default()
    };
    println!("| mode | results | latency (us) |");
    println!("|---|---|---|");
    let snap = lc.cqms.capture_snapshot(0);
    let n_kw = snap.search_keyword(user, "salinity temp", 10).len();
    let t_kw = time_mean(20, || snap.search_keyword(user, "salinity temp", 10).len());
    println!("| keyword (TF-IDF top-10) | {n_kw} | {} |", us(t_kw));
    let n_sub = snap.search_substring(user, "temp < 1").len();
    let t_sub = time_mean(20, || snap.search_substring(user, "temp < 1").len());
    println!("| substring (trigram) | {n_sub} | {} |", us(t_sub));
    let n_tree = snap.search_parse_tree(user, &tree).len();
    let t_tree = time_mean(20, || snap.search_parse_tree(user, &tree).len());
    println!("| parse-tree pattern | {n_tree} | {} |", us(t_tree));
    let n_feat = snap
        .search_feature_sql(user, FIGURE1_META_QUERY)
        .unwrap()
        .rows
        .len();
    let t_feat = time_mean(10, || {
        snap.search_feature_sql(user, FIGURE1_META_QUERY)
            .unwrap()
            .rows
            .len()
    });
    println!("| feature SQL (Fig. 1) | {n_feat} | {} |", us(t_feat));
    println!();
}

// ---------------------------------------------------------------------
// E7 — §4.2 kNN recommendation latency & quality (A3 ablation)
// ---------------------------------------------------------------------
fn e7_knn() {
    println!("## E7 — kNN similarity queries\n");
    println!("| log size | metric | top-1 same-topic | latency (us, k=5) |");
    println!("|---|---|---|---|");
    for &size in &[500usize, 2000] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE7);
        let snap = lc.cqms.capture_snapshot(0);
        let user = lc.users[0];
        let probes: Vec<(String, u32)> = lc
            .trace
            .queries
            .iter()
            .step_by(lc.trace.queries.len() / 20)
            .map(|q| (q.sql.clone(), q.topic))
            .collect();
        for metric in [
            DistanceKind::Features,
            DistanceKind::ParseTree,
            DistanceKind::TreeEdit,
            DistanceKind::Combined,
        ] {
            // Strict quality proxy: the nearest neighbour must carry the
            // probe's exact ground-truth topic label.
            let mut hits = 0usize;
            for (sql, topic) in &probes {
                if let Ok(found) = snap.similar_queries(user, sql, 1, metric) {
                    if let Some(best) = found.first() {
                        if lc.trace.queries[best.id.0 as usize].topic == *topic {
                            hits += 1;
                        }
                    }
                }
            }
            let probe = probes[0].0.clone();
            let t = time_mean(10, || {
                snap.similar_queries(user, &probe, 5, metric).unwrap().len()
            });
            println!(
                "| {size} | {metric:?} | {:.2} | {} |",
                hits as f64 / probes.len() as f64,
                us(t)
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// E8 — §4.3 clustering
// ---------------------------------------------------------------------
fn e8_clustering() {
    println!("## E8 — query clustering vs planted topics\n");
    println!("| log size | k | purity | ARI | cluster read (ms) |");
    println!("|---|---|---|---|---|");
    for &size in &[300usize, 1000] {
        let lc = logged_cqms(Domain::Lakes, size, 0xE8);
        let snap = lc.cqms.capture_snapshot(0);
        for &k in &[2usize, 3, 5] {
            let start = std::time::Instant::now();
            let (ids, clustering) = snap.cluster_queries(lc.users[0], k);
            let read_ms = start.elapsed().as_secs_f64() * 1e3;
            let truth: Vec<u64> = ids
                .iter()
                .map(|id| lc.trace.queries[id.0 as usize].topic as u64)
                .collect();
            println!(
                "| {size} | {k} | {:.3} | {:.3} | {:.1} |",
                purity(&clustering.assignment, &truth),
                adjusted_rand_index(&clustering.assignment, &truth),
                read_ms
            );
        }
    }
    println!();
}

// ---------------------------------------------------------------------
// E9 — §4.3 association rules
// ---------------------------------------------------------------------
fn e9_assoc_rules() {
    println!("## E9 — association-rule mining vs planted rules\n");
    println!("| domain | transactions | planted rules recovered | mined conf (planted prob) | miner epoch (ms) |");
    println!("|---|---|---|---|---|");
    for domain in Domain::all() {
        let mut lc = logged_cqms(domain, 1500, 0xE9);
        let start = std::time::Instant::now();
        lc.cqms.run_miner_epoch();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let snap = lc.cqms.capture_snapshot(0);
        let mut recovered = 0usize;
        let mut confs = Vec::new();
        for planted in &lc.trace.rules {
            if let Some(rule) = snap.association_rules().iter().find(|r| {
                r.antecedent == vec![planted.antecedent.clone()]
                    && r.consequent == planted.consequent
            }) {
                recovered += 1;
                confs.push(format!(
                    "{:.2} ({:.2})",
                    rule.confidence, planted.probability
                ));
            }
        }
        println!(
            "| {} | {} | {recovered}/{} | {} | {:.1} |",
            domain.name(),
            lc.cqms.storage.live_count(),
            lc.trace.rules.len(),
            confs.join(", "),
            ms
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E10 — §4.4 schema evolution & repair
// ---------------------------------------------------------------------
fn e10_maintenance() {
    println!("## E10 — schema evolution: invalidation & automatic repair\n");
    println!("| change | examined | affected | repaired | flagged | obsolete | scan time (ms) |");
    println!("|---|---|---|---|---|---|---|");
    let scenarios: Vec<(&str, Vec<&str>)> = vec![
        (
            "rename column (WaterTemp.temp)",
            vec!["ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature"],
        ),
        (
            "rename table (WaterSalinity)",
            vec!["ALTER TABLE WaterSalinity RENAME TO Salinity"],
        ),
        (
            "drop column (WaterTemp.month)",
            vec!["ALTER TABLE WaterTemp DROP COLUMN month"],
        ),
        ("drop table (Lakes)", vec!["DROP TABLE Lakes"]),
        (
            "rename column + rename table",
            vec![
                "ALTER TABLE WaterTemp RENAME COLUMN temp TO temperature",
                "ALTER TABLE WaterTemp RENAME TO LakeTemps",
            ],
        ),
    ];
    for (label, ddls) in scenarios {
        let mut lc = logged_cqms(Domain::Lakes, 400, 0xE10);
        for ddl in ddls {
            lc.cqms.data.execute(ddl).unwrap();
        }
        let start = std::time::Instant::now();
        let (report, _) = lc.cqms.run_maintenance().unwrap();
        let ms = start.elapsed().as_secs_f64() * 1e3;
        // Verify every repaired query actually runs.
        for id in &report.repaired {
            let sql = lc.cqms.storage.get(*id).unwrap().raw_sql.clone();
            assert!(lc.cqms.data.execute(&sql).is_ok(), "repair broken: {sql}");
        }
        println!(
            "| {label} | {} | {} | {} | {} | {} | {:.1} |",
            report.examined,
            report.affected,
            report.repaired.len(),
            report.flagged.len(),
            report.obsolete.len(),
            ms
        );
    }
    println!();
}

// ---------------------------------------------------------------------
// E11 — §4.1 adaptive output summarisation
// ---------------------------------------------------------------------
fn e11_summarisation() {
    println!("## E11 — adaptive output summarisation rule\n");
    let cfg = CqmsConfig::default();
    println!("| elapsed | result rows | decision | rows stored |");
    println!("|---|---|---|---|");
    // Grid including the paper's two anchor points.
    for &(elapsed_label, elapsed_us, rows) in &[
        ("2 h", 2u64 * 3600 * 1_000_000, 10u64),
        ("2 s", 2_000_000, 2_000_000),
        ("2 s", 2_000_000, 1_500),
        ("50 ms", 50_000, 200),
        ("50 ms", 50_000, 20),
        ("1 ms", 1_000, 8),
    ] {
        let budget = cfg.full_output_budget(elapsed_us);
        let (decision, stored) = if rows <= budget {
            ("store full output", rows)
        } else {
            ("reservoir sample", cfg.output_sample_size as u64)
        };
        println!("| {elapsed_label} | {rows} | {decision} | {stored} |");
    }
    println!(
        "\n(budget rule: max({}, elapsed_ms x {}) rows, capped at {})\n",
        cfg.full_output_min_rows, cfg.full_output_rows_per_ms, cfg.full_output_max_rows
    );
}

// ---------------------------------------------------------------------
// E12 — §2.4 access control
// ---------------------------------------------------------------------
fn e12_access_control() {
    println!("## E12 — access control correctness & overhead\n");
    let mut engine = relstore::Engine::new();
    Domain::Lakes.setup(&mut engine, 200, 0xE12);
    let mut cqms = Cqms::new(engine, CqmsConfig::default());
    let _admin = cqms.register_user("admin");
    let alice = cqms.register_user("alice");
    let bob = cqms.register_user("bob");
    let eve = cqms.register_user("eve");
    let lab = cqms.create_group("lab");
    cqms.join_group(alice, lab).unwrap();
    cqms.join_group(bob, lab).unwrap();
    // Alice logs 200 group-visible queries.
    for i in 0..200 {
        cqms.run_query(
            alice,
            &format!("SELECT * FROM WaterTemp WHERE temp < {}", i % 25),
        )
        .unwrap();
    }
    let snap = cqms.capture_snapshot(0);
    let in_group = snap.search_keyword(bob, "watertemp", 500).len();
    let outside = snap.search_keyword(eve, "watertemp", 500).len();
    let t_member = time_mean(20, || snap.search_keyword(bob, "watertemp", 50).len());
    let t_outsider = time_mean(20, || snap.search_keyword(eve, "watertemp", 50).len());
    println!("| viewer | visible results | keyword latency (us) |");
    println!("|---|---|---|");
    println!("| group member | {in_group} | {} |", us(t_member));
    println!("| outsider | {outside} | {} |", us(t_outsider));
    assert_eq!(outside, 0);
    println!();
}

// ---------------------------------------------------------------------
// E13 — §4.4 statistics refresh policy (A4 ablation)
// ---------------------------------------------------------------------
fn e13_refresh_policy() {
    println!("## E13 — statistics refresh: naive vs drift-triggered\n");
    let mut lc = logged_cqms(Domain::Lakes, 400, 0xE13);
    // Epoch 0 sets baselines.
    lc.cqms.run_maintenance().unwrap();
    println!("| epoch | event | drifted tables | drift-triggered re-runs | naive re-runs |");
    println!("|---|---|---|---|---|");
    let events: Vec<(&str, Option<&str>)> = vec![
        ("no change", None),
        (
            "WaterTemp +500 shift",
            Some("UPDATE WaterTemp SET temp = temp + 500"),
        ),
        ("no change", None),
        (
            "CityLocations pop x10",
            Some("UPDATE CityLocations SET pop = pop * 10"),
        ),
    ];
    for (epoch, (label, ddl)) in events.into_iter().enumerate() {
        if let Some(ddl) = ddl {
            lc.cqms.data.execute(ddl).unwrap();
        }
        let (_, refresh) = lc.cqms.run_maintenance().unwrap();
        println!(
            "| {} | {label} | {:?} | {} | {} |",
            epoch + 1,
            refresh.drifted_tables,
            refresh.refreshed.len(),
            refresh.naive_rerun_count
        );
    }
    println!();
}
