//! The metric tables. `BENCHMARK.json` repeats them for the driver; a unit
//! test keeps the two in step.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what fraction of `base` is `new` worse? Negative when better.
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Fraction of the parent's median the metric may worsen by: at least
    /// three times the widest spread of the A/A runs in `calibration/`
    /// (see `calibration/bounds.json`), in steps of 0.05.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 10] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("write_p50_ms", "ms", Better::Lower, 0.25),
    e2e("write_p95_ms", "ms", Better::Lower, 0.25),
    e2e("read_p50_ms", "ms", Better::Lower, 0.25),
    e2e("read_p95_ms", "ms", Better::Lower, 0.25),
    e2e("miner_epoch_s", "s", Better::Lower, 0.25),
    e2e("recover_s", "s", Better::Lower, 0.25),
    e2e("wal_bytes_per_user_byte", "ratio", Better::Lower, 0.01),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn us(name: &'static str) -> Layer {
    Layer {
        name,
        unit: "us",
        better: Better::Lower,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

pub const PER_LAYER: [Layer; 49] = [
    us("sqlparse.parse_us"),
    us("relstore.execute_us"),
    layer("relstore.rows_scanned_per_query", "count", Better::Lower),
    us("profiler.profile_us"),
    us("features.extract_us"),
    us("server.run_query_us"),
    layer("storage.cow_head_len", "count", Better::Lower),
    us("wal.append_flush_us"),
    us("wal.fsync_us"),
    layer("wal.bytes_per_write", "bytes", Better::Lower),
    us("wal.replay_us_per_frame"),
    layer("wal.frames_replayed", "count", Better::Lower),
    layer("wal.snapshot_records", "count", Better::Higher),
    us("wal.snapshot_load_us_per_record"),
    us("snapshot.capture_us"),
    us("snapshot.pin_us"),
    us("service.write_self_us"),
    us("admission.admit_us"),
    us("shard.route_self_us"),
    us("shard.merge_self_us.complete"),
    us("shard.merge_self_us.keyword"),
    us("shard.merge_self_us.knn"),
    us("shard.merge_self_us.recommend"),
    us("op.complete_us"),
    us("op.keyword_us"),
    us("op.substring_us"),
    us("op.knn_features_us"),
    us("op.knn_tree_us"),
    us("op.knn_parsetree_us"),
    us("op.recommend_us"),
    us("op.feature_sql_us"),
    layer("metricindex.exact_per_result", "ratio", Better::Lower),
    layer("metricindex.bound_hit_rate", "ratio", Better::Higher),
    layer("indexreg.generation", "count", Better::Lower),
    us("miner.assoc_us"),
    us("miner.cluster_us"),
    us("miner.sessions_us"),
    us("miner.index_rebuild_us"),
    us("miner.snapshot_write_us"),
    layer("miner.rules", "count", Better::Higher),
    layer("miner.clusters", "count", Better::Higher),
    layer("workload.gen_s", "s", Better::Lower),
    layer("setup.preload_s", "s", Better::Lower),
    layer("setup.copy_s", "s", Better::Lower),
    us("machine.calib_us"),
    layer("trace.overhead_frac", "ratio", Better::Lower),
    layer("time.write_share", "ratio", Better::Higher),
    layer("time.read_share", "ratio", Better::Higher),
    layer("time.user_sys_over_wall", "ratio", Better::Lower),
];

/// Seconds one driver run measures for (`--seconds`).
pub const RUN_SECONDS: u32 = 15;

/// `BENCHMARK.json`, rendered from the tables (`ledger manifest`).
pub fn manifest() -> String {
    use crate::json::Json;
    let strs = |items: &[&str]| Json::Arr(items.iter().map(|s| Json::str(*s)).collect());
    let lines = |entries: Vec<Json>| {
        let body: Vec<String> = entries
            .iter()
            .map(|e| format!("    {}", e.render()))
            .collect();
        format!("[\n{}\n  ]", body.join(",\n"))
    };
    let workloads = crate::ops::SPECS
        .iter()
        .map(|s| Json::obj([("name", Json::str(s.name)), ("why", Json::str(s.why))]))
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
                ("bound", Json::Num(m.bound)),
            ])
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .map(|m| {
            Json::obj([
                ("name", Json::str(m.name)),
                ("unit", Json::str(m.unit)),
                ("better", Json::str(m.better.as_str())),
            ])
        })
        .collect();
    let command = strs(&[
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "ledger/Cargo.toml",
        "--",
    ]);
    format!(
        "{{\n  \"command\": {},\n  \"paths\": {},\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        command.render(),
        strs(&["ledger"]).render(),
        lines(workloads),
        lines(end_to_end),
        lines(per_layer),
    )
}

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::ops::SPECS;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .map(|m| m.name)
            .chain(PER_LAYER.iter().map(|m| m.name))
            .chain(SPECS.iter().map(|s| s.name))
            .collect();
        assert!(names.iter().all(|n| name_ok(n)), "{names:?}");
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
    }

    /// `BENCHMARK.json` is exactly what the tables render to, so every
    /// metric and workload appears in it once, with the table's unit,
    /// direction and bound — and it parses.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            text,
            manifest(),
            "regenerate with `ledger manifest > BENCHMARK.json`"
        );
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let count = |key: &str| doc.get(key).and_then(Json::as_arr).map(<[Json]>::len);
        assert_eq!(count("end_to_end"), Some(END_TO_END.len()));
        assert_eq!(count("per_layer"), Some(PER_LAYER.len()));
        assert_eq!(count("workloads"), Some(SPECS.len()));
        assert!(SPECS
            .iter()
            .all(|s| s.why.len() <= 200 && !s.why.contains('\n')));
        assert!(text.len() <= 64 * 1024);
    }
}
