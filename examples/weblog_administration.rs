//! Administrative Interaction Mode on an industrial clickstream log (§2.4
//! and §4.4): access control between analyst teams, query deletion, schema
//! evolution with automatic repair, drift-triggered statistics refresh, and
//! storage snapshots.
//!
//! Run with: `cargo run --example weblog_administration`

use cqms::engine::model::Visibility;
use cqms::engine::{Cqms, CqmsConfig};
use workload::{Domain, Trace, TraceConfig};

fn main() {
    let trace = Trace::generate(
        TraceConfig::new(Domain::WebLog)
            .with_sessions(25)
            .with_users(4)
            .with_scale(400),
    );
    let engine = trace.build_engine();
    let mut cqms = Cqms::new(engine, CqmsConfig::default());

    // Two teams with separate visibility.
    let admin = cqms.register_user("dba");
    let growth_1 = cqms.register_user("growth-analyst-1");
    let growth_2 = cqms.register_user("growth-analyst-2");
    let ads_1 = cqms.register_user("ads-analyst-1");
    let growth = cqms.create_group("growth");
    let ads = cqms.create_group("ads");
    cqms.join_group(growth_1, growth).unwrap();
    cqms.join_group(growth_2, growth).unwrap();
    cqms.join_group(ads_1, ads).unwrap();

    // Replay the trace as the two teams (queries default to group scope).
    let team = [growth_1, growth_2, ads_1, admin];
    for q in &trace.queries {
        let user = team[q.user as usize % team.len()];
        let _ = cqms.run_query_at(user, &q.sql, q.ts);
    }
    println!("log: {} live queries", cqms.storage.live_count());

    // --- Access control -----------------------------------------------------
    let snap = cqms.capture_snapshot(0);
    let growth_view = snap.search_keyword(growth_1, "pageviews", 50).len();
    let ads_view = snap.search_keyword(ads_1, "pageviews", 50).len();
    let admin_view = snap.search_keyword(admin, "pageviews", 50).len();
    println!(
        "\nvisibility of 'pageviews' queries — growth: {growth_view}, ads: {ads_view}, dba: {admin_view}"
    );
    assert!(admin_view >= growth_view.max(ads_view));

    // An analyst shares one of *their own* queries publicly (modification
    // rights stay with the author even inside a group).
    let own_query = |cqms: &Cqms, user| {
        cqms.storage
            .iter_live()
            .find(|r| r.user == user)
            .map(|r| r.id)
    };
    if let Some(id) = own_query(&cqms, growth_1) {
        cqms.set_visibility(growth_1, id, Visibility::Public)
            .unwrap();
        println!("growth analyst published query q{id}");
    }

    // Deleting a query removes it from every index (owner only).
    if let Some(id) = own_query(&cqms, ads_1) {
        assert!(cqms.delete_query(growth_1, id).is_err());
        cqms.delete_query(ads_1, id).unwrap();
        println!("ads analyst deleted their query q{id} (tombstoned)");
    }

    // --- Schema evolution + automatic repair (§4.4) -------------------------
    println!("\n== schema evolution: PageViews.dur -> duration_secs ==");
    cqms.data
        .execute("ALTER TABLE PageViews RENAME COLUMN dur TO duration_secs")
        .unwrap();
    let (schema, refresh) = cqms.run_maintenance().unwrap();
    println!(
        "maintenance: {} examined, {} affected, {} repaired, {} flagged, {} obsolete",
        schema.examined,
        schema.affected,
        schema.repaired.len(),
        schema.flagged.len(),
        schema.obsolete.len()
    );
    if let Some(id) = schema.repaired.first() {
        let rec = cqms.storage.get(*id).unwrap();
        println!("repaired example: {}", rec.raw_sql);
        assert!(cqms.data.execute(&rec.raw_sql).is_ok());
    }

    // --- Drift-triggered refresh ---------------------------------------------
    println!("\n== data drift: simulate a traffic spike ==");
    cqms.data
        .execute("UPDATE PageViews SET duration_secs = duration_secs * 20")
        .unwrap();
    let (_, refresh2) = cqms.run_maintenance().unwrap();
    println!(
        "first pass drifted tables: {:?}; after spike: {:?} ({} queries refreshed, naïve policy would re-run {})",
        refresh.drifted_tables,
        refresh2.drifted_tables,
        refresh2.refreshed.len(),
        refresh2.naive_rerun_count
    );

    // --- Snapshot / restore ----------------------------------------------------
    let mut buf = Vec::new();
    cqms.storage.snapshot(&mut buf).unwrap();
    let restored = cqms::engine::storage::QueryStorage::load(&buf[..]).unwrap();
    println!(
        "\nsnapshot: {} bytes; restored {} records ({} live)",
        buf.len(),
        restored.len(),
        restored.live_count()
    );
    assert_eq!(restored.len(), cqms.storage.len());
    assert_eq!(restored.live_count(), cqms.storage.live_count());
}
