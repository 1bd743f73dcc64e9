//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <lease-http|des-idle-ring|des-lossy-converge|engine-converge|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload drives public functions of the repository's crates with
//! inputs made from `--seed`, checks the outputs, and prints one line per
//! metric followed, as the last line, by one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones, measured with tracing off; with
//! `--trace 1` the run alternates untraced and traced ops, reports the
//! per-layer metrics, the tracing overhead among them, and writes its spans
//! to `perfbench/traces/` under the working directory, the root of the
//! checkout. A failed check exits with 1 and names itself on stderr.

mod des;
mod engine;
mod lease;
mod reference;
mod report;
mod stats;
mod trace;

use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use ssr_ctl::Json;

use report::{Report, END_TO_END, PER_LAYER};
use trace::Recorder;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 4] =
    ["lease-http", "des-idle-ring", "des-lossy-converge", "engine-converge"];

/// Parse `--workload`, `--seed`, `--seconds` and `--trace` into the
/// workload name (or `all`) and the run's plan.
fn parse_args(args: &[String]) -> Result<(String, Plan), String> {
    let mut workload = String::new();
    let mut plan = Plan { seed: 1, seconds: 25, trace: false };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = value.clone(),
            "--seed" => plan.seed = number()?,
            "--seconds" => plan.seconds = number()?.max(1),
            "--trace" => {
                plan.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("--workload must be one of {} or all", WORKLOADS.join(", ")));
    }
    Ok((workload, plan))
}

/// How long a run measures, and whether it is the traced run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// The run's seed; every input is made from it.
    pub seed: u64,
    /// Measuring time.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// Derive the seed of input stream `stream` from the run's seed
/// (splitmix64), so every workload input changes with `--seed` and no two
/// streams share one.
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The results of [`repeat_ops`].
pub struct Phases<T> {
    /// The untimed first op, which fills caches and the allocator.
    pub warmup: T,
    /// Ops run with tracing off.
    pub untraced: Vec<T>,
    /// Ops that recorded spans (traced runs only).
    pub traced: Vec<T>,
}

impl<T> Phases<T> {
    /// Every op, warm-up first.
    pub fn all(&self) -> Vec<&T> {
        std::iter::once(&self.warmup).chain(&self.untraced).chain(&self.traced).collect()
    }
}

/// Run `op` once to warm up, then back to back for the plan's seconds and
/// at least `min_ops` times. A traced run alternates untraced and traced
/// ops, so both sets see the same host state, and ends early once the
/// recorder is full.
pub fn repeat_ops<T>(
    plan: &Plan,
    rec: &mut Recorder,
    min_ops: usize,
    mut op: impl FnMut(&mut Recorder) -> T,
) -> Phases<T> {
    rec.set_on(false);
    let warmup = op(rec);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let length = Duration::from_secs(plan.seconds);
    let start = Instant::now();
    loop {
        let fewest = if plan.trace { untraced.len().min(traced.len()) } else { untraced.len() };
        let time_up = fewest >= min_ops && start.elapsed() >= length;
        if time_up || (rec.full() && untraced.len() >= traced.len()) {
            break;
        }
        rec.set_on(plan.trace && untraced.len() > traced.len());
        let before = rec.ops_traced();
        let out = op(rec);
        if rec.ops_traced() > before {
            traced.push(out);
        } else {
            untraced.push(out);
        }
    }
    Phases { warmup, untraced, traced }
}

/// Build with `build` `reps` times, timing each build but not the making
/// of its input; returns the last build and the seconds each took.
pub fn timed_builds<I, T>(
    reps: usize,
    input: impl Fn() -> I,
    build: impl Fn(I) -> T,
) -> (T, Vec<f64>) {
    let mut seconds = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let input = input();
        let start = Instant::now();
        let built = build(input);
        seconds.push(start.elapsed().as_secs_f64());
        last = Some(built);
    }
    (last.expect("at least one build"), seconds)
}

/// Median of `values`, or 0 when there are none.
pub fn median_or_zero(values: &[f64]) -> f64 {
    stats::median(values).unwrap_or(0.0)
}

/// Peak resident set size of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fill the self time of every layer and the tracing overhead into a
/// traced report, from its spans and the median untraced and traced op.
pub fn fill_trace_metrics(report: &mut Report, untraced_op_ms: f64, traced_op_ms: f64) {
    for (layer, ns) in trace::self_ns_by_layer(&report.spans) {
        let name = format!("{layer}.self_ms");
        if let Some((known, _)) = PER_LAYER.iter().find(|(n, _)| *n == name) {
            report.layer.insert(known, ns as f64 / 1e6);
        }
    }
    report.layer.insert("trace.untraced_op_ms", untraced_op_ms);
    report.layer.insert("trace.traced_op_ms", traced_op_ms);
    let overhead =
        if untraced_op_ms > 0.0 { (traced_op_ms / untraced_op_ms - 1.0) * 100.0 } else { 0.0 };
    report.layer.insert("trace.overhead_pct", overhead);
}

fn run_workload(name: &str, plan: &Plan) -> Result<Report, String> {
    match name {
        "lease-http" => lease::run(plan),
        "des-idle-ring" => des::run(des::Kind::Idle, plan),
        "des-lossy-converge" => des::run(des::Kind::Lossy, plan),
        "engine-converge" => engine::run(plan),
        other => Err(format!("no workload {other}")),
    }
}

/// The git revision when run from a git checkout, else `none`.
fn git_rev() -> String {
    if !Path::new(".git").exists() {
        return "none".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "none".to_string(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// CRC-32 over the path and bytes of every `.rs` and `Cargo.toml` file
/// under `crates/`, in path order: names the measured source even where
/// the checkout carries no git metadata.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs")
                || path.file_name().is_some_and(|f| f == "Cargo.toml")
            {
                files.push(path);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut bytes = Vec::new();
    for file in &files {
        bytes.extend_from_slice(file.to_string_lossy().as_bytes());
        bytes.extend(std::fs::read(file).unwrap_or_default());
    }
    format!("{:08x} over {} files", ssr_core::crc32(&bytes), files.len())
}

fn provenance(workload: &str, plan: &Plan, report: &Report) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let params = report.params.iter().map(|(k, v)| (*k, Json::str(v.clone()))).collect();
    Json::obj(vec![
        ("workload", Json::str(workload)),
        ("seed", Json::num(plan.seed as f64)),
        ("seconds", Json::num(plan.seconds as f64)),
        ("trace", Json::Bool(plan.trace)),
        ("git_rev", Json::str(git_rev())),
        ("source_crc32", Json::str(source_digest())),
        ("nproc", Json::num(nproc as f64)),
        ("profile", Json::str(if cfg!(debug_assertions) { "debug" } else { "release" })),
        ("params", Json::obj(params)),
    ])
}

/// The metrics a run reports: every end-to-end metric, or in a traced run
/// every per-layer metric (0 where the workload does not cross the layer).
fn reported(
    report: &Report,
    trace: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    if trace {
        Ok(PER_LAYER
            .iter()
            .map(|&(n, u)| (n, report.layer.get(n).copied().unwrap_or(0.0), u))
            .collect())
    } else {
        END_TO_END
            .iter()
            .map(|&(n, u)| {
                report
                    .e2e
                    .get(n)
                    .map(|&v| (n, v, u))
                    .ok_or_else(|| format!("workload did not report {n}"))
            })
            .collect()
    }
}

/// Print one workload's report; returns its metrics for the result line.
fn print_report(
    workload: &str,
    plan: &Plan,
    report: &Report,
) -> Result<Vec<(String, f64, &'static str)>, String> {
    println!("{}", Json::obj(vec![("provenance", provenance(workload, plan, report))]).render());
    for (what, held) in &report.checks {
        println!("check {workload} {} : {what}", if *held { "ok  " } else { "FAIL" });
    }
    for (name, value, unit, note) in &report.named {
        println!("metric {workload} {name} = {value} {unit}  {note}");
    }
    let metrics = reported(report, plan.trace)?;
    for (name, value, unit) in &metrics {
        println!("{} {workload} {name} = {value} {unit}", if plan.trace { "layer" } else { "e2e" });
    }
    Ok(metrics.into_iter().map(|(n, v, u)| (n.to_string(), v, u)).collect())
}

/// Write a traced run's spans under the working directory. The per-layer
/// metrics are computed from the spans in memory, so a file that cannot be
/// written costs only the file, with a warning.
fn write_spans(workload: &str, plan: &Plan, report: &Report) {
    let dir = Path::new("perfbench").join("traces");
    let path = dir.join(format!("{workload}-seed{}.tsv", plan.seed));
    let written = std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, trace::to_tsv(&report.spans)));
    match written {
        Ok(()) => {
            println!("spans {workload} {} written to {}", report.spans.len(), path.display())
        }
        Err(e) => eprintln!("perfbench: {workload}: spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (workload, plan) = match parse_args(&raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let names: Vec<&str> =
        if workload == "all" { WORKLOADS.to_vec() } else { vec![workload.as_str()] };
    let (mut correct, mut attempted, mut failed) = (true, 0u64, 0u64);
    let mut metrics = Vec::new();
    for name in &names {
        let outcome = run_workload(name, &plan).and_then(|report| {
            if plan.trace {
                write_spans(name, &plan, &report);
            }
            let printed = print_report(name, &plan, &report)?;
            Ok((report, printed))
        });
        let (report, printed) = match outcome {
            Ok(done) => done,
            Err(e) => {
                eprintln!("perfbench: {name}: {e}");
                return ExitCode::from(1);
            }
        };
        for (what, _) in report.checks.iter().filter(|(_, held)| !held) {
            eprintln!("perfbench: {name}: check failed: {what}");
        }
        correct &= report.correct();
        attempted += report.attempted;
        failed += report.failed;
        for (metric, value, unit) in printed {
            let key = if names.len() == 1 { metric } else { format!("{name}.{metric}") };
            metrics.push((key, value, unit));
        }
    }
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(k, v, u)| (k, Json::obj(vec![("value", Json::Num(v)), ("unit", Json::str(u))])))
            .collect(),
    );
    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(attempted.max(1) as f64)),
        ("failed", Json::num(failed as f64)),
        ("metrics", metrics),
    ]);
    println!("{}", result.render());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| w.to_string()).collect()
    }

    #[test]
    fn seed_flag_reaches_the_plan() {
        let a = parse_args(&args(&[
            "--workload",
            "des-idle-ring",
            "--seed",
            "42",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid flags");
        assert_eq!(a, ("des-idle-ring".into(), Plan { seed: 42, seconds: 3, trace: true }));
        assert!(parse_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--bogus", "1"])).is_err());
        assert!(parse_args(&args(&["--workload", "all", "--seed"])).is_err());
    }

    #[test]
    fn derived_seeds_repeat_per_seed_and_differ_per_stream() {
        assert_eq!(derive_seed(7, 1), derive_seed(7, 1));
        assert_ne!(derive_seed(7, 1), derive_seed(7, 2));
        assert_ne!(derive_seed(7, 1), derive_seed(8, 1));
    }

    #[test]
    fn workload_inputs_follow_the_seed() {
        assert_eq!(lease::specs(5), lease::specs(5));
        assert_ne!(lease::specs(5), lease::specs(6));
        assert_eq!(des::input(des::Kind::Lossy, 5).1, des::input(des::Kind::Lossy, 5).1);
        assert_ne!(des::input(des::Kind::Lossy, 5).1, des::input(des::Kind::Lossy, 6).1);
        assert_ne!(des::input(des::Kind::Idle, 5).2.seed, des::input(des::Kind::Idle, 6).2.seed);
        assert_eq!(engine::input(5), engine::input(5));
        assert_ne!(engine::input(5), engine::input(6));
    }

    #[test]
    fn traced_runs_alternate_untraced_and_traced_ops() {
        let mut rec = Recorder::new(false, Instant::now(), 0);
        let mut order = Vec::new();
        let plan = Plan { seed: 1, seconds: 0, trace: true };
        let phases = repeat_ops(&plan, &mut rec, 3, |rec| {
            let traced = rec.span(trace::ROOT, |rec| rec.tracing());
            order.push(traced);
            traced
        });
        assert!(!phases.warmup);
        assert_eq!(phases.untraced, [false; 3]);
        assert_eq!(phases.traced, [true; 3]);
        assert_eq!(order, [false, false, true, false, true, false, true]);
        let plan = Plan { trace: false, ..plan };
        let phases = repeat_ops(&plan, &mut rec, 3, |rec| rec.span(trace::ROOT, |r| r.tracing()));
        assert_eq!((phases.untraced.len(), phases.traced.len()), (3, 0));
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f).and_then(Json::as_str).expect("name and unit").to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |l: &[(&str, &str)]| {
            l.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect::<Vec<_>>()
        };
        assert_eq!(list("end_to_end"), own(&END_TO_END));
        assert_eq!(list("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name").to_string())
            .collect();
        assert_eq!(workloads, WORKLOADS);
    }
}
