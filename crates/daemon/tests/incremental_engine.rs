//! Differential test of the incremental engine: `Engine` maintains its
//! enabled set and round membership across steps (re-evaluating only the
//! movers and their neighbours), and must be step-for-step identical to a
//! naive stepper that recomputes everything from the configuration — same
//! step records, configurations, enabled sets and steps/moves/rounds —
//! under every daemon, across a mid-run `set_config`, for SSRmin and for
//! the Dijkstra baselines.

use proptest::prelude::*;

use ssr_core::{D4State, Dijkstra4, RingAlgorithm, RingParams, SsToken, SsrMin};
use ssr_daemon::daemons::{
    CentralFirst, CentralLast, CentralRandom, DelayDijkstra, DistributedRandom, Misbehaving,
    RoundRobin, Starver, Synchronous,
};
use ssr_daemon::{random_config, Daemon, EnabledProcess, Engine, StepRecord};

/// The reference semantics: recompute the enabled set before every step,
/// apply the movers with `RingAlgorithm::step_set`, and keep the round as
/// an explicit list pruned with `retain`.
struct Naive<A: RingAlgorithm> {
    algo: A,
    config: Vec<A::State>,
    steps: u64,
    moves: u64,
    rounds: u64,
    round_pending: Vec<usize>,
}

impl<A: RingAlgorithm> Naive<A> {
    fn new(algo: A, config: Vec<A::State>) -> Self {
        let mut naive =
            Naive { algo, config, steps: 0, moves: 0, rounds: 0, round_pending: vec![] };
        naive.round_pending = naive.enabled().iter().map(|e| e.process).collect();
        naive
    }

    fn enabled(&self) -> Vec<EnabledProcess> {
        (0..self.algo.n())
            .filter_map(|i| {
                self.algo
                    .enabled_rule_in(&self.config, i)
                    .map(|r| EnabledProcess { process: i, rule_tag: self.algo.rule_tag(r) })
            })
            .collect()
    }

    fn set_config(&mut self, config: Vec<A::State>) {
        self.config = config;
        self.round_pending = self.enabled().iter().map(|e| e.process).collect();
    }

    fn step(&mut self, daemon: &mut dyn Daemon) -> Option<StepRecord> {
        let enabled = self.enabled();
        if enabled.is_empty() {
            return None;
        }
        let mut picked = daemon.select(&enabled, self.steps);
        picked.retain(|p| enabled.iter().any(|e| e.process == *p));
        picked.sort_unstable();
        picked.dedup();
        if picked.is_empty() {
            picked.push(enabled[0].process);
        }
        let movers: Vec<(usize, u8)> = picked
            .iter()
            .map(|&p| (p, enabled.iter().find(|e| e.process == p).unwrap().rule_tag))
            .collect();
        self.config = self.algo.step_set(&self.config, &picked).unwrap();
        self.steps += 1;
        self.moves += picked.len() as u64;
        self.round_pending.retain(|p| {
            !picked.contains(p) && self.algo.enabled_rule_in(&self.config, *p).is_some()
        });
        if self.round_pending.is_empty() {
            self.rounds += 1;
            self.round_pending = self.enabled().iter().map(|e| e.process).collect();
        }
        Some(StepRecord { step: self.steps, movers })
    }
}

/// Number of daemons [`daemon`] can build.
const DAEMONS: usize = 10;

/// Every daemon family the crate ships, seeded.
fn daemon(kind: usize, seed: u64) -> Box<dyn Daemon> {
    match kind {
        0 => Box::new(CentralFirst),
        1 => Box::new(CentralLast),
        2 => Box::new(CentralRandom::seeded(seed)),
        3 => Box::new(RoundRobin::default()),
        4 => Box::new(Synchronous),
        5 => Box::new(DistributedRandom::seeded(seed, 0.5)),
        6 => Box::new(Starver::new(vec![0, 1], seed)),
        7 => Box::new(DelayDijkstra::seeded(seed)),
        8 => Box::new(DelayDijkstra::seeded_batch(seed)),
        _ => Box::new(Misbehaving),
    }
}

/// Run `Engine` and [`Naive`] side by side from `first`, switch both to
/// `second` halfway, and compare everything observable after every step.
fn differential<A: RingAlgorithm + Clone>(
    algo: A,
    first: Vec<A::State>,
    second: Vec<A::State>,
    kind: usize,
    seed: u64,
    steps: usize,
) {
    let mut engine = Engine::new(algo.clone(), first.clone()).unwrap();
    let mut naive = Naive::new(algo, first);
    let (mut d_engine, mut d_naive) = (daemon(kind, seed), daemon(kind, seed));
    assert_eq!(engine.enabled(), &naive.enabled()[..]);
    for t in 0..steps {
        if t == steps / 2 {
            engine.set_config(second.clone()).unwrap();
            naive.set_config(second.clone());
            assert_eq!(engine.enabled(), &naive.enabled()[..]);
        }
        let got = engine.step(d_engine.as_mut());
        let want = naive.step(d_naive.as_mut());
        assert_eq!(&got, &want, "step record at step {}", t);
        assert_eq!(engine.config(), &naive.config[..], "config after step {}", t);
        assert_eq!(engine.enabled(), &naive.enabled()[..], "enabled after step {}", t);
        assert_eq!(
            (engine.steps(), engine.moves(), engine.rounds()),
            (naive.steps, naive.moves, naive.rounds),
            "counters after step {}",
            t
        );
        if got.is_none() {
            break;
        }
    }
}

/// Ring size, extra modulus above the minimal `K = n + 1`, daemon kind,
/// seed and run length.
fn arb_run() -> impl Strategy<Value = (RingParams, usize, u64, usize)> {
    (3usize..64, 0u32..4, 0..DAEMONS, any::<u64>(), 2usize..160).prop_map(
        |(n, extra, kind, seed, steps)| {
            (RingParams::new(n, n as u32 + 1 + extra).unwrap(), kind, seed, steps)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ssrmin_engine_matches_naive_stepper((params, kind, seed, steps) in arb_run()) {
        let first = random_config::random_ssr_config(params, seed);
        // Alternate the mid-run jump between a random configuration and a
        // few transient faults on a legitimate one.
        let second = if seed % 2 == 0 {
            random_config::random_ssr_config(params, seed ^ 1)
        } else {
            random_config::corrupted_legitimate(params, 1 + (seed % 3) as usize, seed)
        };
        differential(SsrMin::new(params), first, second, kind, seed, steps);
    }

    #[test]
    fn sstoken_engine_matches_naive_stepper((params, kind, seed, steps) in arb_run()) {
        let first = random_config::random_dijkstra_config(params, seed);
        let second = random_config::random_dijkstra_config(params, seed ^ 1);
        differential(SsToken::new(params), first, second, kind, seed, steps);
    }

    #[test]
    fn dijkstra4_engine_matches_naive_stepper((params, kind, seed, steps) in arb_run()) {
        // Dijkstra's 4-state ring has distinguished bottom and top
        // processes, so its guards depend on the index as well.
        let bits = |s: u64| -> Vec<D4State> {
            random_config::random_dijkstra_config(params, s)
                .into_iter()
                .map(|v| D4State::new((v & 1) as u8, (v & 2) as u8))
                .collect()
        };
        let algo = Dijkstra4::new(params.n()).unwrap();
        differential(algo, bits(seed), bits(seed ^ 1), kind, seed, steps);
    }
}
