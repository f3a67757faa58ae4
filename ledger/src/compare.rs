//! `ledger compare BASE NEW` and `ledger bounds run*.jsonl`: judge
//! two sets of runs against the bounds, and derive bounds from A/A runs.
//!
//! A result file holds one JSON record per line, as `--out` appends them;
//! only untraced records carry end-to-end metrics and only those are read.

use crate::json::Json;
use crate::metrics::{self, END_TO_END};
use crate::stats::{iqr_over_median, median};
use std::collections::BTreeMap;

/// `(workload, metric) → one value per run`, in file order.
pub type Runs = BTreeMap<(String, String), Vec<f64>>;

pub fn parse_runs(text: &str) -> Result<Runs, String> {
    let mut runs = Runs::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = Json::parse(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if rec.get("trace").and_then(Json::as_f64) != Some(0.0) {
            continue;
        }
        let workload = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            if let Some(v) = m.get("value").and_then(Json::as_f64) {
                runs.entry((workload.to_string(), name.clone()))
                    .or_default()
                    .push(v);
            }
        }
    }
    Ok(runs)
}

/// Load a result file, or every `*.jsonl` directly under a directory (in
/// name order).
pub fn load_runs(path: &str) -> Result<Runs, String> {
    let read = |p: &std::path::Path| {
        std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))
    };
    let path = std::path::Path::new(path);
    if !path.is_dir() {
        return parse_runs(&read(path)?);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("{}: {e}", path.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    files.sort();
    let mut text = String::new();
    for file in files {
        text.push_str(&read(&file)?);
    }
    parse_runs(&text)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Pass,
    /// The runs' own spread is wider than the bound: the data cannot say.
    Unresolved,
    Fail,
}

#[derive(Debug, Clone)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub base: f64,
    pub new: f64,
    pub worse_by: f64,
    pub spread: f64,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judge `new` against `base` per (workload, end-to-end metric).
pub fn compare(base: &Runs, new: &Runs) -> Vec<Row> {
    let mut rows = Vec::new();
    for ((workload, metric), a) in base {
        let (Some(b), Some(m)) = (
            new.get(&(workload.clone(), metric.clone())),
            metrics::end_to_end(metric),
        ) else {
            continue;
        };
        let (base_med, new_med) = (median(a), median(b));
        let worse_by = m.better.worse_by(base_med, new_med);
        let spread = iqr_over_median(a).max(iqr_over_median(b));
        let verdict = if spread > m.bound {
            Verdict::Unresolved
        } else if worse_by > m.bound {
            Verdict::Fail
        } else {
            Verdict::Pass
        };
        rows.push(Row {
            workload: workload.clone(),
            metric: metric.clone(),
            base: base_med,
            new: new_med,
            worse_by,
            spread,
            bound: m.bound,
            verdict,
        });
    }
    rows
}

pub fn render(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<14} {:<24} {:>12} {:>12} {:>16} {:>8} {:>8} {:>6}  verdict\n",
        "workload",
        "metric",
        "base median",
        "new median",
        "new/base",
        "worse by",
        "spread",
        "bound"
    );
    for r in rows {
        out.push_str(&format!(
            "{:<14} {:<24} {:>12.5} {:>12.5} {:>7.4} of {:<6.4} {:>+7.2}% {:>7.2}% {:>5.0}%  {}\n",
            r.workload,
            r.metric,
            r.base,
            r.new,
            r.new / r.base,
            r.base,
            r.worse_by * 100.0,
            r.spread * 100.0,
            r.bound * 100.0,
            match r.verdict {
                Verdict::Pass => "PASS",
                Verdict::Unresolved => "UNRESOLVED",
                Verdict::Fail => "FAIL",
            }
        ));
    }
    out
}

/// From A/A runs: per metric, the widest IQR/median over the workloads and
/// the least bound it allows, `clamp(3 × spread, 0.01, 0.25)` — the driver
/// wants every spread under a third of its bound and no bound over a
/// quarter. The bound in use is that rounded up to a step of 0.05 (0.01 for
/// a metric that repeats exactly).
pub fn bounds(runs: &Runs) -> Json {
    let mut out = Vec::new();
    for m in &END_TO_END {
        let mut per_workload = Vec::new();
        let mut widest: f64 = 0.0;
        for ((workload, metric), values) in runs {
            if metric == m.name {
                let spread = iqr_over_median(values);
                widest = widest.max(spread);
                per_workload.push((
                    workload.clone(),
                    Json::obj([
                        ("runs", Json::Num(values.len() as f64)),
                        ("median", Json::Num(median(values))),
                        ("iqr_over_median", Json::Num(spread)),
                    ]),
                ));
            }
        }
        out.push((
            m.name.to_string(),
            Json::obj([
                ("widest_iqr_over_median", Json::Num(widest)),
                ("least_bound", Json::Num((3.0 * widest).clamp(0.01, 0.25))),
                ("bound_in_use", Json::Num(m.bound)),
                ("workloads", Json::Obj(per_workload)),
            ]),
        ));
    }
    Json::Obj(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(metric: &str, values: &[f64]) -> Runs {
        let mut r = Runs::new();
        r.insert(("ingest_small".into(), metric.into()), values.to_vec());
        r
    }

    #[test]
    fn classifies_three_and_thirty_percent_shifts() {
        let base = runs("write_p50_ms", &[1.00, 1.01, 0.99, 1.00, 1.02]);
        let small = runs("write_p50_ms", &[1.03, 1.04, 1.02, 1.03, 1.05]);
        let large = runs("write_p50_ms", &[1.30, 1.31, 1.29, 1.30, 1.32]);
        assert_eq!(compare(&base, &small)[0].verdict, Verdict::Pass);
        assert_eq!(compare(&base, &large)[0].verdict, Verdict::Fail);
        // Direction matters: half as much throughput again is not a
        // regression, a third less is.
        let tput = runs("ops_per_s", &[1000.0, 1005.0, 995.0]);
        let faster = runs("ops_per_s", &[1500.0, 1510.0, 1490.0]);
        assert_eq!(compare(&tput, &faster)[0].verdict, Verdict::Pass);
        assert_eq!(compare(&faster, &tput)[0].verdict, Verdict::Fail);
    }

    #[test]
    fn noisy_runs_are_unresolved_not_unchanged() {
        let base = runs("read_p95_ms", &[1.0, 1.4, 0.7, 1.2, 0.8]);
        let new = runs("read_p95_ms", &[1.0, 1.0, 1.0, 1.0, 1.0]);
        assert_eq!(compare(&base, &new)[0].verdict, Verdict::Unresolved);
    }

    #[test]
    fn reads_only_untraced_records() {
        let text = concat!(
            "{\"workload\":\"w\",\"trace\":0,\"metrics\":{\"recover_s\":{\"value\":0.5,\"unit\":\"s\"}}}\n",
            "{\"workload\":\"w\",\"trace\":1,\"metrics\":{\"recover_s\":{\"value\":9,\"unit\":\"s\"}}}\n",
            "{\"workload\":\"w\",\"trace\":0,\"metrics\":{\"recover_s\":{\"value\":0.7,\"unit\":\"s\"}}}\n",
        );
        let runs = parse_runs(text).unwrap();
        assert_eq!(
            runs[&("w".to_string(), "recover_s".to_string())],
            [0.5, 0.7]
        );
    }
}
