//! `ledger` — this repository's benchmark. See `ledger/README.md`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke] [--out FILE]
//! ledger compare BASE NEW            (result files, or directories of *.jsonl)
//! ledger bounds RUN.jsonl...
//! ledger manifest > BENCHMARK.json
//! ```

mod compare;
mod deploy;
mod digest;
mod json;
mod layers;
mod metrics;
mod ops;
mod round;
mod stats;
mod trace;

use json::Json;
use layers::Probe;
use metrics::{END_TO_END, PER_LAYER};
use ops::Spec;
use round::{Profile, RoundStats, Stage};
use stats::median;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

/// Set-up runs this many times per untraced invocation; `setup_s` is the
/// fastest.
const SETUP_REPEATS: usize = 3;
/// Stop starting rounds past this many seconds of process time, so a slow
/// machine still exits well inside the driver's 180 s. The result stands
/// (floors over fewer rounds); the record's round counts show it.
const WALL_GUARD_S: f64 = 140.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => out.workload = value()?.clone(),
            "--seed" => out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => out.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                out.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--smoke" => out.smoke = true,
            "--out" => out.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(out.seconds > 0.0 && out.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => run_compare(&args[1..]),
        Some("bounds") => run_bounds(&args[1..]),
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("run") => run_benchmark(&args[1..]),
        _ => run_benchmark(&args),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}

fn run_compare(args: &[String]) -> Result<ExitCode, String> {
    let [base, new] = args else {
        return Err(
            "usage: ledger compare BASE NEW (result files or directories of *.jsonl)".into(),
        );
    };
    let rows = compare::compare(&compare::load_runs(base)?, &compare::load_runs(new)?);
    if rows.is_empty() {
        return Err("the two files share no (workload, metric) pair".into());
    }
    print!("{}", compare::render(&rows));
    let clean = rows.iter().all(|r| r.verdict == compare::Verdict::Pass);
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn run_bounds(args: &[String]) -> Result<ExitCode, String> {
    if args.is_empty() {
        return Err("usage: ledger bounds RUN.jsonl...".into());
    }
    let mut all = compare::Runs::new();
    for path in args {
        for (key, values) in compare::load_runs(path)? {
            all.entry(key).or_default().extend(values);
        }
    }
    println!("{}", pretty(&compare::bounds(&all), 0));
    Ok(ExitCode::SUCCESS)
}

/// Indented rendering for the files people read (`bounds`, trace tables).
fn pretty(v: &Json, depth: usize) -> String {
    let pad = "  ".repeat(depth + 1);
    match v {
        Json::Obj(fields) if fields.iter().any(|(_, v)| matches!(v, Json::Obj(_))) => {
            let body: Vec<String> = fields
                .iter()
                .map(|(k, v)| {
                    format!(
                        "{pad}{}: {}",
                        Json::str(k.clone()).render(),
                        pretty(v, depth + 1)
                    )
                })
                .collect();
            format!("{{\n{}\n{}}}", body.join(",\n"), "  ".repeat(depth))
        }
        other => other.render(),
    }
}

// ----------------------------------------------------------------------
// The benchmark run
// ----------------------------------------------------------------------

fn run_benchmark(args: &[String]) -> Result<ExitCode, String> {
    let started = Instant::now();
    let args = parse_args(args)?;
    deploy::refuse_cqms_env()?;
    let spec = *ops::spec(&args.workload).ok_or_else(|| {
        let names: Vec<&str> = ops::SPECS.iter().map(|s| s.name).collect();
        format!("--workload must be one of {}", names.join(", "))
    })?;
    let spec = if args.smoke { spec.smoke() } else { spec };
    let rounds = if args.smoke {
        2
    } else {
        spec.rounds(args.seconds)
    };

    // Scratch space unique to this invocation, removed at exit.
    let run_dir = Path::new(deploy::RUN_DIR);
    let scratch = run_dir.join(format!(
        "scratch-{}-{}-{}",
        spec.name,
        args.seed,
        std::process::id()
    ));
    deploy::remove_dir(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let outcome = measure(&args, &spec, rounds, &scratch, started);
    deploy::remove_dir(&scratch);
    let report = outcome?;

    let record = report.record(&args, &spec);
    let line = record.render();
    std::fs::write(
        run_dir.join(format!("{}.json", spec.name)),
        format!("{line}\n"),
    )
    .map_err(|e| format!("write result: {e}"))?;
    if let Some(path) = &args.out {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{line}").map_err(|e| format!("{}: {e}", path.display()))?;
    }
    report.print_human(&args, &spec);
    // The driver reads the last line of stdout.
    println!("{}", report.driver_line().render());
    Ok(ExitCode::SUCCESS)
}

/// One reported metric: its table entry's name, unit and direction, the
/// value, and how many samples per round stand behind it.
struct Measured {
    name: &'static str,
    unit: &'static str,
    better: metrics::Better,
    value: f64,
    samples: usize,
}

struct Report {
    header: Json,
    rounds_timed: usize,
    rounds_traced: usize,
    attempted: u64,
    failed: u64,
    correct: bool,
    problems: Vec<String>,
    digest: u64,
    ops_fingerprint: u64,
    metrics: Vec<Measured>,
}

/// What set-up built, and how long its repeats took.
struct SetUp {
    pool: workload::Trace,
    inputs: ops::Inputs,
    image: deploy::Image,
    setup_s: Vec<f64>,
    gen_s: Vec<f64>,
    preload_s: Vec<f64>,
}

/// Generate the pool, arrange it for the seed and build the crash image
/// under `image_dir` — `repeats` times; the last image is the one the
/// rounds use.
fn set_up(spec: &Spec, seed: u64, image_dir: &Path, repeats: usize) -> Result<SetUp, String> {
    let (mut setup_s, mut gen_s, mut preload_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    for _ in 0..repeats {
        let t = Instant::now();
        let pool = deploy::generate_pool(spec);
        let inputs = ops::arrange(spec, &pool.queries, seed);
        gen_s.push(t.elapsed().as_secs_f64());
        let image = deploy::build_image(spec, &pool, &inputs.preload, image_dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        preload_s.push(image.preload_s);
        last = Some((pool, inputs, image));
    }
    let (pool, inputs, image) = last.ok_or("set-up must run at least once")?;
    Ok(SetUp {
        pool,
        inputs,
        image,
        setup_s,
        gen_s,
        preload_s,
    })
}

/// Metric name → (value, samples per round behind it).
type Values = BTreeMap<&'static str, (f64, usize)>;

fn min_of(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Every timing is a floor over identical repeats (see
/// `round::floor_over_rounds`); counts are the same in every round.
fn floor(f: impl Fn(&RoundStats) -> f64, rounds: &[RoundStats]) -> f64 {
    min_of(&rounds.iter().map(f).collect::<Vec<f64>>())
}

fn end_to_end_values(
    set_up: &SetUp,
    n_ops: usize,
    profile: &Profile,
    plain: &[RoundStats],
) -> Values {
    let first = &plain[0];
    let (writes, reads) = (profile.write_ms.len(), profile.read_ms.len());
    Values::from([
        ("setup_s", (min_of(&set_up.setup_s), set_up.setup_s.len())),
        ("ops_per_s", (n_ops as f64 / profile.timed_s, n_ops)),
        ("write_p50_ms", (profile.write_p50_ms(), writes)),
        ("write_p95_ms", (profile.write_tail_ms(), writes)),
        ("read_p50_ms", (profile.read_p50_ms(), reads)),
        ("read_p95_ms", (profile.read_tail_ms(), reads)),
        ("miner_epoch_s", (floor(|s| s.miner_epoch_s, plain), 1)),
        ("recover_s", (floor(|s| s.recover_s, plain), 1)),
        (
            "wal_bytes_per_user_byte",
            (first.wal_bytes_per_user_byte(), first.acked_writes as usize),
        ),
        ("peak_rss_mb", (peak_rss_mb(), 1)),
    ])
}

/// The layer metrics that do not come from the probe's spans: counts from
/// the first traced round's reports, the ledger's own phases, and the
/// traced-vs-untraced comparison.
fn layer_values(
    probe: &Probe,
    set_up: &SetUp,
    copy_s: &[f64],
    profile: &Profile,
    traced_profile: &Profile,
    traced: &[RoundStats],
) -> Values {
    let mut layer: Values = probe
        .per_round
        .iter()
        .map(|(name, per_round)| (*name, (median(per_round), per_round.len())))
        .collect();
    let first = &traced[0];
    let recovered = |f: fn(&cqms_core::RecoveryReport) -> usize| {
        first.recovery.iter().map(f).sum::<usize>() as f64
    };
    let mined = |f: fn(&cqms_core::server::MinerReport) -> usize| {
        first.epoch_reports.iter().map(f).sum::<usize>() as f64
    };
    let generation = first.epoch_reports.iter().map(|r| r.index_generation).max();
    let n = traced.len();
    layer.extend([
        (
            "wal.bytes_per_write",
            (
                first.bytes_added as f64 / first.acked_writes.max(1) as f64,
                n,
            ),
        ),
        ("wal.frames_replayed", (recovered(|r| r.frames_replayed), n)),
        (
            "wal.snapshot_records",
            (recovered(|r| r.snapshot_records), n),
        ),
        ("indexreg.generation", (generation.unwrap_or(0) as f64, n)),
        ("miner.rules", (mined(|r| r.association_rules), n)),
        ("miner.clusters", (mined(|r| r.clusters), n)),
        ("machine.calib_us", (floor(|s| s.calib_us, traced), n)),
        (
            "workload.gen_s",
            (min_of(&set_up.gen_s), set_up.gen_s.len()),
        ),
        (
            "setup.preload_s",
            (min_of(&set_up.preload_s), set_up.preload_s.len()),
        ),
        ("setup.copy_s", (min_of(copy_s), copy_s.len())),
        (
            "trace.overhead_frac",
            (traced_profile.timed_s / profile.timed_s - 1.0, n),
        ),
        ("time.write_share", (profile.write_s / profile.timed_s, 1)),
        ("time.read_share", (profile.read_s / profile.timed_s, 1)),
    ]);
    layer
}

fn measure(
    args: &Args,
    spec: &Spec,
    rounds: usize,
    scratch: &Path,
    started: Instant,
) -> Result<Report, String> {
    let image_dir = scratch.join("image");
    // Only the untraced run reports `setup_s`; a traced run sets up once.
    let repeats = if args.smoke || args.trace {
        1
    } else {
        SETUP_REPEATS
    };
    let set_up = set_up(spec, args.seed, &image_dir, repeats)?;
    let ops = ops::op_list(spec, &set_up.pool.queries, &set_up.inputs, args.seed);
    let stage = Stage {
        pool: &set_up.pool,
        inputs: &set_up.inputs,
        image_dir: &image_dir,
        image: &set_up.image,
        scratch,
    };

    // --- Rounds. Round 0 is a warm-up — the first quarter of the ops and no
    // epoch — and is discarded. A traced run alternates untraced and traced
    // rounds so the tracing overhead is measured inside one process.
    let mut probe = args.trace.then(Probe::new);
    let mut plain: Vec<RoundStats> = Vec::new();
    let mut traced: Vec<RoundStats> = Vec::new();
    let mut copy_s = Vec::new();
    let mut problems = Vec::new();
    for r in 0..=rounds {
        // Never before round 2: a traced run needs its first traced round.
        if r > 2 && started.elapsed().as_secs_f64() > WALL_GUARD_S {
            eprintln!(
                "ledger: slow machine, stopping after {} of {rounds} rounds",
                r - 1
            );
            break;
        }
        let with_probe = args.trace && r > 0 && r % 2 == 0;
        let t = Instant::now();
        let stats = round::run_round(
            &stage,
            if r == 0 { &ops[..ops.len() / 4] } else { &ops },
            r,
            r > 0,
            if with_probe { probe.as_mut() } else { None },
        )?;
        if !with_probe {
            // Image copy + open + replay + epoch; the copy is what is left.
            let accounted =
                stats.recover_s + stats.op_secs.iter().sum::<f64>() + stats.miner_epoch_s;
            copy_s.push((t.elapsed().as_secs_f64() - accounted).max(0.0));
        }
        if r == 0 {
            continue;
        }
        if plain.is_empty() && traced.is_empty() {
            let preloaded = spec.preload.queries;
            if let Err(e) = round::verify_reopen(&set_up.pool, scratch, preloaded, &stats) {
                problems.push(e);
            }
        }
        if with_probe {
            traced.push(stats);
        } else {
            plain.push(stats);
        }
    }

    // --- Checks shared by both modes.
    let all = || plain.iter().chain(&traced);
    let attempted: u64 = all().map(|s| s.attempted).sum();
    let failed: u64 = all().map(|s| s.failed).sum();
    if let Some(why) = all().find_map(|s| s.first_failure.clone()) {
        problems.push(format!("{failed} op(s) failed, first: {why}"));
    }
    let digest = all().next().map_or(0, |s| s.digest);
    if all().any(|s| s.digest != digest) {
        problems.push("answer digest differs between rounds".into());
    }

    // --- Estimates: the mode's table, filled from the mode's values.
    let profile = Profile::of(&ops, &round::floor_over_rounds(&plain));
    let (values, table): (Values, Vec<(&str, &str, metrics::Better)>) = match &probe {
        None => (
            end_to_end_values(&set_up, ops.len(), &profile, &plain),
            END_TO_END
                .iter()
                .map(|m| (m.name, m.unit, m.better))
                .collect(),
        ),
        Some(probe) => {
            let traced_profile = Profile::of(&ops, &round::floor_over_rounds(&traced));
            let mut layer =
                layer_values(probe, &set_up, &copy_s, &profile, &traced_profile, &traced);
            let cpu_over_wall = cpu_seconds() / started.elapsed().as_secs_f64();
            layer.insert("time.user_sys_over_wall", (cpu_over_wall, 1));
            if cpu_over_wall > 1.1 {
                problems.push(format!(
                    "process CPU is {cpu_over_wall:.2} × wall: more than the one client thread ran"
                ));
            }
            if !args.smoke {
                // A tenth of the size is too small to be what the workload says.
                let (write, read) = (layer["time.write_share"].0, layer["time.read_share"].0);
                problems.extend(dominance_problems(spec, write, read, &traced[0]));
            }
            let path = Path::new(deploy::RUN_DIR).join(format!("{}.trace.json", spec.name));
            std::fs::write(&path, probe.tracer.to_json().render())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            (
                layer,
                PER_LAYER
                    .iter()
                    .map(|m| (m.name, m.unit, m.better))
                    .collect(),
            )
        }
    };
    let mut metrics = Vec::with_capacity(table.len());
    for (name, unit, better) in table {
        match values.get(name) {
            Some(&(value, samples)) => metrics.push(Measured {
                name,
                unit,
                better,
                value,
                samples,
            }),
            None => problems.push(format!("metric {name} was not measured")),
        }
    }

    Ok(Report {
        header: header(args, spec, ops.len(), rounds),
        rounds_timed: plain.len(),
        rounds_traced: traced.len(),
        attempted,
        failed,
        correct: problems.is_empty(),
        problems,
        digest,
        ops_fingerprint: ops::fingerprint(&ops),
        metrics,
    })
}

/// Each workload must be what it says it is; a retune that breaks one of
/// these fails the traced run.
fn dominance_problems(spec: &Spec, write: f64, read: f64, round: &RoundStats) -> Vec<String> {
    let mut out = Vec::new();
    let mut need = |ok: bool, what: String| {
        if !ok {
            out.push(format!("dominance: {what}"));
        }
    };
    let frames: usize = round.recovery.iter().map(|r| r.frames_replayed).sum();
    let snap: usize = round.recovery.iter().map(|r| r.snapshot_records).sum();
    let p = spec.preload.queries;
    match spec.name {
        "ingest_small" => need(
            write >= 0.8,
            format!("writes are {write:.2} of timed seconds, need ≥ 0.80"),
        ),
        "assist_large" => {
            need(
                read >= 0.8,
                format!("reads are {read:.2} of timed seconds, need ≥ 0.80"),
            );
            need(
                snap + deploy::SNAPSHOT_EVERY_OPS as usize >= p,
                format!("{snap} snapshot records at open, need ≥ {p} − 2048"),
            );
        }
        "explore_mixed" => need(
            (0.25..=0.75).contains(&write) && (0.25..=0.75).contains(&read),
            format!("write {write:.2} / read {read:.2} of timed seconds, need both in 0.25–0.75"),
        ),
        "batch_recover" => {
            need(
                frames >= p,
                format!("{frames} frames replayed at open, need ≥ {p}"),
            );
            need(
                snap == 0,
                format!("{snap} snapshot records at open, need 0"),
            );
        }
        _ => {}
    }
    out
}

fn header(args: &Args, spec: &Spec, ops: usize, rounds: usize) -> Json {
    let git = std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        ("rustc", Json::str(env!("LEDGER_RUSTC"))),
        ("git", Json::str(git)),
        ("seed", Json::Num(args.seed as f64)),
        ("P", Json::Num(spec.preload.queries as f64)),
        ("N", Json::Num(ops as f64)),
        ("R", Json::Num(rounds as f64)),
        ("deployment", Json::str(deploy::pinned_summary())),
    ])
}

impl Report {
    /// Exactly what the driver's contract asks for.
    fn driver_line(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect();
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
    }

    /// The result-file record: header first, then the driver line's
    /// fields plus what makes two runs diffable.
    fn record(&self, args: &Args, spec: &Spec) -> Json {
        let Json::Obj(mut fields) = self.driver_line() else {
            unreachable!("driver line is an object")
        };
        let samples = self
            .metrics
            .iter()
            .map(|m| (m.name.to_string(), Json::Num(m.samples as f64)))
            .collect();
        let mut out = vec![
            ("header".to_string(), self.header.clone()),
            ("workload".to_string(), Json::str(spec.name)),
            (
                "trace".to_string(),
                Json::Num(f64::from(u8::from(args.trace))),
            ),
            ("seconds".to_string(), Json::Num(args.seconds)),
            (
                "rounds_timed".to_string(),
                Json::Num(self.rounds_timed as f64),
            ),
            (
                "rounds_traced".to_string(),
                Json::Num(self.rounds_traced as f64),
            ),
            (
                "digest".to_string(),
                Json::str(format!("{:016x}", self.digest)),
            ),
            (
                "ops_fingerprint".to_string(),
                Json::str(format!("{:016x}", self.ops_fingerprint)),
            ),
            (
                "problems".to_string(),
                Json::Arr(self.problems.iter().map(Json::str).collect()),
            ),
            ("samples_per_round".to_string(), Json::Obj(samples)),
        ];
        out.append(&mut fields);
        Json::Obj(out)
    }

    fn print_human(&self, args: &Args, spec: &Spec) {
        println!("# ledger {} {}", spec.name, self.header.render());
        println!(
            "# rounds: {} untraced + {} traced (+1 warm-up) | ops fingerprint {:016x} | answer digest {:016x}",
            self.rounds_timed, self.rounds_traced, self.ops_fingerprint, self.digest
        );
        for m in &self.metrics {
            println!(
                "{:<34} {:>16.6} {:<6} ({} is better; n={} per round)",
                m.name,
                m.value,
                m.unit,
                m.better.as_str(),
                m.samples
            );
        }
        for p in &self.problems {
            println!("# PROBLEM: {p}");
        }
        if args.trace {
            println!("# trace: ledger-run/{}.trace.json", spec.name);
        }
    }
}

// ----------------------------------------------------------------------
// Process accounting
// ----------------------------------------------------------------------

/// `VmHWM` of this process in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of this process (Linux clock ticks are 100/s).
fn cpu_seconds() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // Fields after the parenthesised command name; utime and stime
            // are the 12th and 13th of those.
            let rest = s.rsplit_once(')')?.1;
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some((f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?) / 100.0)
        })
        .unwrap_or(0.0)
}
