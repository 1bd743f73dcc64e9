//! `engine-converge`: the state-reading `ssr_daemon::Engine` running SSRmin
//! at n = 1024 from a `random_ssr_config` under the central-random daemon.
//!
//! An op converges from each of [`STARTS`] seeded starts in turn: it builds
//! the engine, checks legitimacy before every step until the configuration
//! is legitimate (within 100n² + 1000 steps), then runs a 3n-step closure
//! check. The steps to converge differ by up to 15 % between starts, so
//! averaging over several keeps the seed from deciding the figure. `op_ms`
//! is the mean host ms to converge over the op's starts, scaled to the
//! reference speed of [`crate::reference`] measured around every op. Every
//! op replays the same seeded starts, so steps, moves and rounds must
//! repeat exactly.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ssr_core::{RingAlgorithm, RingParams, SsrMin, SsrState};
use ssr_daemon::daemons::CentralRandom;
use ssr_daemon::random_config::random_ssr_config;
use ssr_daemon::Engine;

use crate::reference::{self, Kernel};
use crate::report::Report;
use crate::stats::Ratio;
use crate::trace::{durations_ns, Recorder, ROOT};
use crate::{
    derive_seed, fill_trace_metrics, median_or_zero, peak_rss_mb, repeat_ops, timed_builds, Plan,
};

/// Ring size.
pub const N: usize = 1024;
/// Seeded starts an op converges from.
pub const STARTS: usize = 3;
/// `Engine::new` calls timed for `setup_s` per start; spreading them over
/// the run keeps one noisy instant from deciding the median.
const SETUP_REPS: usize = 15;
/// Untraced (and, in a traced run, traced) ops a run makes at least, so
/// repeats can be compared.
const MIN_OPS: usize = 3;
/// Calls per traced op to `Engine::enabled`.
const PROBE_CALLS: usize = 32;

/// One start: the initial configuration and the daemon's seed.
pub type Start = (Vec<SsrState>, u64);

/// The seeded input: [`STARTS`] starts.
pub fn input(seed: u64) -> Vec<Start> {
    (0..STARTS as u64)
        .map(|i| {
            let config = random_ssr_config(ssrmin().params(), derive_seed(seed, 4 + 2 * i));
            (config, derive_seed(seed, 5 + 2 * i))
        })
        .collect()
}

fn ssrmin() -> SsrMin {
    SsrMin::new(RingParams::new(N, N as u32 + 1).expect("K = n + 1 is valid"))
}

/// The step budget of Theorem 2's O(n²) bound, with room.
fn max_steps() -> u64 {
    100 * (N * N) as u64 + 1000
}

/// What one op measured.
struct Op {
    /// Seconds each `Engine::new` of the op took.
    setup: Vec<f64>,
    /// Time to converge, summed over the starts.
    wall: Duration,
    /// (steps, moves, rounds) at the first legitimate configuration, per
    /// start.
    counts: Vec<(u64, u64, u64)>,
    /// `Err` names the first check the op failed.
    verdict: Result<(), String>,
    /// Reference kernel time around the op, in ms.
    kernel_ms: f64,
}

impl Op {
    /// Scales this op's times to the reference speed.
    fn factor(&self) -> f64 {
        reference::factor(self.kernel_ms)
    }
}

fn one_op(algo: SsrMin, input: &[Start], rec: &mut Recorder) -> Op {
    let (mut op, kernel_ms) = reference::around(Kernel::ScanCopy, || {
        let mut op = Op {
            setup: Vec::new(),
            wall: Duration::ZERO,
            counts: Vec::new(),
            verdict: Ok(()),
            kernel_ms: 0.0,
        };
        for start in input {
            let one = converge(algo, start, rec);
            op.setup.extend(one.setup);
            op.wall += one.wall;
            op.counts.extend(one.counts);
            op.verdict = op.verdict.and(one.verdict);
        }
        op
    });
    op.kernel_ms = kernel_ms;
    op
}

/// Converge from one start and check closure: an op of one start.
fn converge(algo: SsrMin, start: &Start, rec: &mut Recorder) -> Op {
    let (mut engine, setup) = timed_builds(
        SETUP_REPS,
        || start.0.clone(),
        |initial| Engine::new(algo, initial).expect("seeded input is valid"),
    );
    let mut daemon = CentralRandom::seeded(start.1);
    let (wall, converged) = rec.span(ROOT, |rec| {
        let start = Instant::now();
        let converged = loop {
            if rec.span("core.is_legitimate", |_| algo.is_legitimate(engine.config())) {
                break Ok(());
            }
            if engine.steps() >= max_steps() {
                break Err(format!("not legitimate within {} steps", max_steps()));
            }
            if rec.span("daemon.step", |_| engine.step(&mut daemon)).is_none() {
                break Err(format!("deadlock at step {}", engine.steps()));
            }
        };
        let wall = start.elapsed();
        if rec.tracing() {
            for _ in 0..PROBE_CALLS {
                rec.span("daemon.enabled", |_| black_box(engine.enabled()));
            }
        }
        (wall, converged)
    });
    let counts = (engine.steps(), engine.moves(), engine.rounds());
    let verdict = converged.and_then(|()| {
        for t in 0..3 * N {
            if engine.step(&mut daemon).is_none() || !algo.is_legitimate(engine.config()) {
                return Err(format!("closure broken {t} steps after convergence"));
            }
        }
        Ok(())
    });
    Op { setup, wall, counts: vec![counts], verdict, kernel_ms: 0.0 }
}

/// Run `engine-converge`.
pub fn run(plan: &Plan) -> Result<Report, String> {
    let algo = ssrmin();
    let input = input(plan.seed);
    let mut report = Report {
        params: vec![
            ("n", N.to_string()),
            ("k", (N + 1).to_string()),
            ("starts", format!("{STARTS} x random_ssr_config")),
            (
                "daemon",
                format!(
                    "central-random seeded {}",
                    input.iter().map(|s| s.1.to_string()).collect::<Vec<_>>().join(",")
                ),
            ),
            ("max_steps", max_steps().to_string()),
            ("closure_steps", (3 * N).to_string()),
        ],
        ..Report::default()
    };

    let mut rec = Recorder::new(false, Instant::now(), 0);
    let phases = repeat_ops(plan, &mut rec, MIN_OPS, |rec| one_op(algo, &input, rec));
    report.spans = rec.into_spans();

    let (untraced, traced) = (&phases.untraced, &phases.traced);
    let ops = phases.all();
    report.attempted = ops.len() as u64;
    for op in &ops {
        if let Err(e) = &op.verdict {
            report.check(e.clone(), false, 1);
        }
    }
    report.check(
        format!("every op legitimate within {} steps and closed for {} more", max_steps(), 3 * N),
        ops.iter().all(|op| op.verdict.is_ok()),
        0,
    );
    let first = ops[0];
    let mismatched = ops.iter().filter(|op| op.counts != first.counts).count();
    let (steps, moves, rounds) =
        first.counts.iter().fold((0, 0, 0), |(s, m, r), &(s1, m1, r1)| (s + s1, m + m1, r + r1));
    report.check(
        format!(
            "exact repeat over {} ops: per-start (steps, moves, rounds) {:?}",
            ops.len(),
            first.counts
        ),
        mismatched == 0,
        mismatched as u64,
    );

    // Mean ms to converge over the op's starts.
    let wall_ms = |op: &Op| op.wall.as_secs_f64() * 1e3 / STARTS as f64;
    let op_ms: Vec<f64> = untraced.iter().map(wall_ms).collect();
    let scaled_op_ms: Vec<f64> = untraced.iter().map(|op| wall_ms(op) * op.factor()).collect();
    let rates: Vec<f64> = untraced.iter().map(|op| 1e3 / (wall_ms(op) * op.factor())).collect();
    let setup: Vec<f64> = untraced.iter().flat_map(|op| op.setup.iter().copied()).collect();
    let scaled_setup: Vec<f64> =
        untraced.iter().flat_map(|op| op.setup.iter().map(|s| s * op.factor())).collect();
    let kernel_ms: Vec<f64> = untraced.iter().map(|op| op.kernel_ms).collect();
    report.e2e.insert("setup_s", median_or_zero(&scaled_setup));
    report.e2e.insert("peak_rss_mb", peak_rss_mb());
    report.e2e.insert("op_ms", median_or_zero(&scaled_op_ms));
    report.e2e.insert("ops_per_s", median_or_zero(&rates));
    report.name(
        "engine_converge_s",
        median_or_zero(&op_ms) / 1e3,
        "s",
        format!(
            "unscaled; median of {} ops of the mean over {STARTS} starts; {steps} steps in all",
            op_ms.len()
        ),
    );
    report.name(
        "setup_s_unscaled",
        median_or_zero(&setup),
        "s",
        format!("median of {} Engine::new calls, {SETUP_REPS} per start", setup.len()),
    );
    report.name(
        "reference_kernel_ms",
        median_or_zero(&kernel_ms),
        "ms",
        format!(
            "median over ops; end-to-end times are scaled by {} ms / this, per op",
            reference::NOMINAL_MS
        ),
    );

    if plan.trace {
        let step_ns = durations_ns(&report.spans, "daemon.step");
        let legit_ns = durations_ns(&report.spans, "core.is_legitimate");
        let layer = &mut report.layer;
        layer.insert("daemon.steps", steps as f64);
        layer.insert("daemon.moves", moves as f64);
        layer.insert("daemon.rounds", rounds as f64);
        layer.insert("daemon.step_ns", median_or_zero(&step_ns));
        layer.insert(
            "daemon.enabled_us",
            median_or_zero(&durations_ns(&report.spans, "daemon.enabled")) / 1e3,
        );
        layer.insert("core.is_legitimate_ns", median_or_zero(&legit_ns));
        let (legit, step): (f64, f64) = (legit_ns.iter().sum(), step_ns.iter().sum());
        let share = Ratio {
            num: legit as u64,
            den: (legit + step) as u64,
            base: "ns in Engine::step + is_legitimate",
        };
        layer.insert("daemon.legit_check_share", share.value());
        report.name("daemon.legit_check_share", share.value(), "ratio", share.describe());
        let untraced_ms = median_or_zero(&op_ms);
        let traced_ms = median_or_zero(&traced.iter().map(wall_ms).collect::<Vec<_>>());
        fill_trace_metrics(&mut report, untraced_ms, traced_ms);
    }
    Ok(report)
}
