//! Quickstart: stand up a CQMS over a small scientific database, log a few
//! queries, then use each interaction mode once.
//!
//! Run with: `cargo run --example quickstart`

use cqms::engine::similarity::DistanceKind;
use cqms::engine::{Cqms, CqmsConfig};
use relstore::Engine;
use workload::Domain;

fn main() {
    // 1. The underlying DBMS: the paper's running "lakes" example schema
    //    (WaterSalinity, WaterTemp, CityLocations, Lakes) with synthetic data.
    let mut engine = Engine::new();
    Domain::Lakes.setup(&mut engine, 300, 42);

    // 2. Wrap it in a Collaborative Query Management System. (Thresholds
    //    lowered so a handful of demo queries already produce mined output.)
    let config = CqmsConfig {
        assoc_min_support: 2,
        ..CqmsConfig::default()
    };
    let mut cqms = Cqms::new(engine, config);
    let alice = cqms.register_user("alice");

    // 3. Traditional Interaction Mode: ordinary SQL, transparently profiled.
    println!("== Traditional mode: run a few exploratory queries ==");
    for sql in [
        "SELECT lake, temp FROM WaterTemp WHERE temp < 22",
        "SELECT lake, temp FROM WaterTemp WHERE temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
         WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 18",
        "SELECT S.salinity, T.temp FROM WaterSalinity S, WaterTemp T \
         WHERE S.loc_x = T.loc_x AND S.loc_y = T.loc_y AND T.temp < 15",
        "SELECT city FROM CityLocations WHERE pop > 100000",
    ] {
        let out = cqms.run_query(alice, sql).expect("query should run");
        let r = out.result.expect("success");
        println!(
            "  [q{}] {} rows in {:?}  ({})",
            out.id,
            r.rows.len(),
            r.metrics.elapsed,
            r.metrics.plan
        );
    }

    // Annotate the final query (§2.1).
    cqms.annotate(
        alice,
        cqms::engine::model::QueryId(2),
        "correlate salinity with temperature across Seattle lakes",
        None,
    )
    .unwrap();

    // 4. Search & Browse Interaction Mode. Reads go through an immutable
    //    snapshot of the instance (a service publishes one per write).
    let snap = cqms.capture_snapshot(0);
    println!("\n== Search & browse: keyword search for 'salinity' ==");
    for hit in snap.search_keyword(alice, "salinity", 5) {
        let rec = cqms.storage.get(hit.id).unwrap();
        println!("  [{:.2}] {}", hit.score, rec.raw_sql);
    }

    println!("\n== Session window (Figure 2 style) ==");
    let session = cqms
        .storage
        .get(cqms::engine::model::QueryId(0))
        .unwrap()
        .session;
    print!("{}", snap.render_session(alice, session).unwrap());

    // 5. Assisted Interaction Mode: completions and recommendations.
    println!("\n== Assisted mode: completing 'SELECT * FROM WaterSalinity, ' ==");
    for s in snap.complete(alice, "SELECT * FROM WaterSalinity, ", 3) {
        println!(
            "  suggest {:<18} ({:.0}%, {})",
            s.text,
            s.score * 100.0,
            s.why
        );
    }

    println!("\n== Assisted mode: similar queries panel (Figure 3 style) ==");
    let panel = snap
        .render_recommendations(alice, "SELECT temp FROM WaterTemp WHERE temp < 20", 3)
        .unwrap();
    print!("{panel}");

    // 6. Background components: one miner epoch + one maintenance pass,
    //    then a fresh view (they changed the store) to mine rules from and
    //    cluster the log.
    cqms.run_miner_epoch();
    let (schema, refresh) = cqms.run_maintenance().unwrap();
    let snap = cqms.capture_snapshot(0);
    let rules = snap.association_rules(alice);
    let (_, clustering) = snap.cluster_queries(alice, 2);
    println!(
        "\n== Background: mined {} rules; maintenance examined {} queries, {} drifted tables; the log reads as {} clusters ==",
        rules.len(),
        schema.examined,
        refresh.drifted_tables.len(),
        clustering.medoids.len()
    );

    // 7. kNN similarity meta-query (§4.2).
    let near = snap
        .similar_queries(
            alice,
            "SELECT lake FROM WaterTemp WHERE temp < 15",
            2,
            DistanceKind::Combined,
        )
        .unwrap();
    println!("\n== Nearest stored queries to a new draft ==");
    for hit in near {
        println!(
            "  [{:.0}%] {}",
            hit.score * 100.0,
            cqms.storage.get(hit.id).unwrap().raw_sql
        );
    }
}
