//! `des-idle-ring` and `des-lossy-converge`: the CST discrete-event
//! simulator (`ssr-mpnet`) running SSRmin.
//!
//! Every op builds a fresh `CstSim` from the same seeded input and runs it,
//! so the simulator's counters must repeat exactly from op to op.
//!
//! - idle: n = 1024 from `legitimate_anchor(0)`, loss 0, for a fixed
//!   simulated horizon. `op_ms` is host ms per lap (3n rule firings).
//! - lossy: n = 384 from a `random_ssr_config` with coherent caches, loss
//!   0.1, until the ground configuration has been legitimate for a stable
//!   window (Theorem 4). `op_ms` is host ms to converge.
//!
//! The end-to-end times are scaled to the reference speed of
//! [`crate::reference`], measured around every op; the unscaled times are
//! printed under the workload's own metric names.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ssr_core::{Config, RingAlgorithm, RingParams, SsrMin, SsrState};
use ssr_daemon::random_config::random_ssr_config;
use ssr_mpnet::{CstSim, SimConfig, SimStats, Time};

use crate::reference::{self, Kernel};
use crate::report::Report;
use crate::stats::{ms_per_lap, Ratio};
use crate::trace::{durations_ns, Recorder, ROOT};
use crate::{
    derive_seed, fill_trace_metrics, median_or_zero, peak_rss_mb, repeat_ops, timed_builds, Plan,
};

/// Ring size of the idle workload.
pub const IDLE_N: usize = 1024;
/// Simulated ticks one idle op runs (about 0.3 laps at n = 1024).
pub const IDLE_HORIZON: Time = 10_000;
/// Ring size of the lossy workload.
pub const LOSSY_N: usize = 384;
/// i.i.d. loss probability of the lossy workload.
pub const LOSSY_LOSS: f64 = 0.1;
/// Ticks the ground configuration must stay legitimate to count as converged.
pub const STABLE_WINDOW: Time = 2_000;
/// Give up on convergence after this many ticks (seeds converge near 13k).
pub const LOSSY_T_MAX: Time = 100_000;
/// `CstSim::new` calls timed for `setup_s` in every op; spreading them
/// over the run keeps one noisy instant from deciding the median.
const SETUP_REPS: usize = 40;
/// Untraced (and, in a traced run, traced) ops a run makes at least, so
/// repeats can be compared.
const MIN_OPS: usize = 3;
/// Calls per traced op to `ground_config` and `is_legitimate`.
const PROBE_CALLS: usize = 32;

/// Which DES workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `des-idle-ring`.
    Idle,
    /// `des-lossy-converge`.
    Lossy,
}

/// The seeded input of one workload: algorithm, initial configuration and
/// simulator parameters.
pub fn input(kind: Kind, seed: u64) -> (SsrMin, Config<SsrState>, SimConfig) {
    match kind {
        Kind::Idle => {
            let algo = ssrmin(IDLE_N);
            let cfg = ssr_bench::standard_sim_config(derive_seed(seed, 1));
            (algo, algo.legitimate_anchor(0), cfg)
        }
        Kind::Lossy => {
            let algo = ssrmin(LOSSY_N);
            let initial = random_ssr_config(algo.params(), derive_seed(seed, 2));
            let cfg = SimConfig {
                loss: LOSSY_LOSS,
                ..ssr_bench::standard_sim_config(derive_seed(seed, 3))
            };
            (algo, initial, cfg)
        }
    }
}

fn ssrmin(n: usize) -> SsrMin {
    SsrMin::new(RingParams::new(n, n as u32 + 1).expect("K = n + 1 is valid"))
}

/// What one op measured.
struct Op {
    /// Seconds each `CstSim::new` of the op took.
    setup: Vec<f64>,
    wall: Duration,
    stats: SimStats,
    converged_at: Option<Time>,
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

fn one_op(kind: Kind, input: &(SsrMin, Config<SsrState>, SimConfig), rec: &mut Recorder) -> Op {
    let kernel = match kind {
        Kind::Idle => Kernel::RandomAccess,
        Kind::Lossy => Kernel::ScanCopy,
    };
    let (mut op, kernel_ms) = reference::around(kernel, || measure_op(kind, input, rec));
    op.kernel_ms = kernel_ms;
    op
}

fn measure_op(kind: Kind, input: &(SsrMin, Config<SsrState>, SimConfig), rec: &mut Recorder) -> Op {
    let (algo, initial, cfg) = input;
    let (mut sim, setup) = timed_builds(
        SETUP_REPS,
        || initial.clone(),
        |initial| CstSim::new(*algo, initial, *cfg).expect("seeded inputs are valid"),
    );
    rec.span(ROOT, |rec| {
        let start = Instant::now();
        let converged_at = rec.span("mpnet.run", |_| match kind {
            Kind::Idle => {
                sim.run_until(IDLE_HORIZON);
                Some(0)
            }
            Kind::Lossy => sim.run_until_stably_legitimate(LOSSY_T_MAX, STABLE_WINDOW),
        });
        let wall = start.elapsed();
        let verdict = match kind {
            Kind::Idle => match sim.timeline().summary(0) {
                Some(s) if s.zero_privileged_time == 0 && s.max_privileged <= 2 => Ok(()),
                Some(s) => Err(format!(
                    "Theorem 3: zero-privileged time {} and max privileged {}",
                    s.zero_privileged_time, s.max_privileged
                )),
                None => Err("empty timeline".to_string()),
            },
            Kind::Lossy if converged_at.is_none() => {
                Err(format!("no convergence by tick {LOSSY_T_MAX}"))
            }
            Kind::Lossy if !algo.is_legitimate(&sim.ground_config()) => {
                Err("final ground configuration is not legitimate".to_string())
            }
            Kind::Lossy => Ok(()),
        };
        if rec.tracing() {
            for _ in 0..PROBE_CALLS {
                let ground = rec.span("mpnet.ground_config", |_| sim.ground_config());
                rec.span("core.is_legitimate", |_| {
                    black_box(algo.is_legitimate(black_box(&ground)))
                });
            }
        }
        Op { setup, wall, stats: sim.stats(), converged_at, verdict, kernel_ms: 0.0 }
    })
}

/// Run one DES workload.
pub fn run(kind: Kind, plan: &Plan) -> Result<Report, String> {
    let input = input(kind, plan.seed);
    let n = input.0.n();
    let mut report = Report {
        params: vec![
            ("n", n.to_string()),
            ("k", (n + 1).to_string()),
            (
                "start",
                if kind == Kind::Idle { "legitimate_anchor(0)" } else { "random_ssr_config" }
                    .to_string(),
            ),
            ("sim_config", format!("{:?}", input.2)),
            (
                "stop",
                match kind {
                    Kind::Idle => format!("run_until({IDLE_HORIZON})"),
                    Kind::Lossy => {
                        format!("run_until_stably_legitimate({LOSSY_T_MAX}, {STABLE_WINDOW})")
                    }
                },
            ),
        ],
        ..Report::default()
    };

    let epoch = Instant::now();
    let mut rec = Recorder::new(false, epoch, 0);
    let phases = repeat_ops(plan, &mut rec, MIN_OPS, |rec| one_op(kind, &input, rec));
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
        match kind {
            Kind::Idle => "every op: zero_privileged_time == 0 and max_privileged <= 2 (Theorem 3)",
            Kind::Lossy => "every op converged and ended in a legitimate ground configuration",
        },
        ops.iter().all(|op| op.verdict.is_ok()),
        0,
    );
    let first = ops[0];
    let repeats = ops
        .iter()
        .filter(|op| op.stats != first.stats || op.converged_at != first.converged_at)
        .count();
    report.check(
        format!(
            "exact repeat over {} ops: events {}, rules {}, transmissions {}, losses {}, converge tick {:?}",
            ops.len(),
            first.stats.events,
            first.stats.rules_executed,
            first.stats.transmissions,
            first.stats.losses,
            first.converged_at
        ),
        repeats == 0,
        repeats as u64,
    );

    let wall_ms = |op: &Op| op.wall.as_secs_f64() * 1e3;
    let per_op = |op: &Op| match kind {
        Kind::Idle => ms_per_lap(wall_ms(op), op.stats.rules_executed, n).unwrap_or(f64::INFINITY),
        Kind::Lossy => wall_ms(op),
    };
    let op_ms: Vec<f64> = untraced.iter().map(per_op).collect();
    let scaled_op_ms: Vec<f64> = untraced.iter().map(|op| per_op(op) * op.factor()).collect();
    // Work units per second of each op at the reference speed: laps (idle)
    // or convergences (lossy).
    let rates: Vec<f64> = untraced
        .iter()
        .map(|op| {
            let units = match kind {
                Kind::Idle => op.stats.rules_executed as f64 / (3 * n) as f64,
                Kind::Lossy => 1.0,
            };
            units / (op.wall.as_secs_f64() * op.factor())
        })
        .collect();
    let setup: Vec<f64> = untraced.iter().flat_map(|op| op.setup.iter().copied()).collect();
    let scaled_setup: Vec<f64> =
        untraced.iter().flat_map(|op| op.setup.iter().map(|s| s * op.factor())).collect();
    let kernel_ms: Vec<f64> = untraced.iter().map(|op| op.kernel_ms).collect();
    report.e2e.insert("setup_s", median_or_zero(&scaled_setup));
    report.e2e.insert("peak_rss_mb", peak_rss_mb());
    report.e2e.insert("op_ms", median_or_zero(&scaled_op_ms));
    report.e2e.insert("ops_per_s", median_or_zero(&rates));
    report.name(
        "reference_kernel_ms",
        median_or_zero(&kernel_ms),
        "ms",
        format!(
            "median over ops; end-to-end times are scaled by {} ms / this, per op",
            reference::NOMINAL_MS
        ),
    );

    let events_per_s = first.stats.events as f64
        / (median_or_zero(&untraced.iter().map(wall_ms).collect::<Vec<_>>()) / 1e3);
    match kind {
        Kind::Idle => report.name(
            "des_wall_ms_per_lap",
            median_or_zero(&op_ms),
            "ms",
            format!(
                "unscaled; median of {} ops; lap = 3n = {} rule firings; {:.0} events/s (not end-to-end)",
                op_ms.len(),
                3 * n,
                events_per_s
            ),
        ),
        Kind::Lossy => report.name(
            "cst_converge_s",
            median_or_zero(&op_ms) / 1e3,
            "s",
            format!(
                "unscaled; median of {} ops; converged at tick {:?}; {:.0} events/s",
                op_ms.len(),
                first.converged_at,
                events_per_s
            ),
        ),
    }
    report.name(
        "setup_s_unscaled",
        median_or_zero(&setup),
        "s",
        format!("median of {} CstSim::new calls, {SETUP_REPS} per op", setup.len()),
    );

    if plan.trace {
        let stats = first.stats;
        let layer = &mut report.layer;
        layer.insert("mpnet.events", stats.events as f64);
        layer.insert("mpnet.transmissions", stats.transmissions as f64);
        layer.insert("mpnet.losses", stats.losses as f64);
        layer.insert("mpnet.rules", stats.rules_executed as f64);
        layer.insert("mpnet.converge_ticks", first.converged_at.unwrap_or(0) as f64);
        let per_kevent =
            Ratio { num: stats.rules_executed * 1000, den: stats.events, base: "1000 events" };
        layer.insert("mpnet.rules_per_kevent", per_kevent.value());
        let runs = durations_ns(&report.spans, "mpnet.run");
        let ns_per_event: Vec<f64> =
            runs.iter().map(|ns| ns / stats.events.max(1) as f64).collect();
        layer.insert("mpnet.ns_per_event", median_or_zero(&ns_per_event));
        layer.insert(
            "mpnet.ground_config_us",
            median_or_zero(&durations_ns(&report.spans, "mpnet.ground_config")) / 1e3,
        );
        layer.insert(
            "core.is_legitimate_ns",
            median_or_zero(&durations_ns(&report.spans, "core.is_legitimate")),
        );
        let untraced_ms = median_or_zero(&untraced.iter().map(wall_ms).collect::<Vec<_>>());
        let traced_ms = median_or_zero(&traced.iter().map(wall_ms).collect::<Vec<_>>());
        fill_trace_metrics(&mut report, untraced_ms, traced_ms);
        report.name("mpnet.rules_per_kevent", per_kevent.value(), "count", per_kevent.describe());
    }
    Ok(report)
}
