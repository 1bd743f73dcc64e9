//! Regression test for the simulator's maintained ground-legitimacy flag.
//!
//! `CstSim` keeps Definition 1 legitimacy of the ground configuration as a
//! flag updated wherever an own state changes, and both the timeline and
//! `run_until_stably_legitimate` read that flag. These tests recompute
//! legitimacy from scratch after every tick, through loss, deferred and
//! immediate execution, scheduled corruptions, a join, a leave and a
//! checkpoint/restore, for SSRmin and for Dijkstra's SSToken.

use ssr_core::{RingAlgorithm, RingParams, SsToken, SsrMin, SsrState, WireState};
use ssr_mpnet::{CstSim, DelayModel, EventRecord, SimConfig, Time};

const N: usize = 6;
const K: u32 = N as u32 + 3;

fn cfg(seed: u64, exec_delay: Time) -> SimConfig {
    SimConfig {
        seed,
        delay: DelayModel::Uniform { min: 2, max: 7 },
        loss: 0.15,
        timer_interval: 30,
        send_on_receipt: true,
        exec_delay,
        burst: None,
    }
}

/// One algorithm family under test, at every ring size the scenario visits.
struct Family<A: RingAlgorithm> {
    sized: fn(usize) -> A,
    /// An illegitimate start on `N` nodes.
    start: fn() -> Vec<A::State>,
    /// The `i`-th corruption's state.
    poison: fn(u64) -> A::State,
}

fn ssrmin() -> Family<SsrMin> {
    Family {
        sized: |n| SsrMin::new(RingParams::new(n, K).unwrap()),
        start: || (0..N as u32).map(|i| SsrState::new((i * 5) % K, (i % 2) as u8, 0)).collect(),
        poison: |i| SsrState::new((i as u32 * 3 + 1) % K, (i % 2) as u8, ((i / 2) % 2) as u8),
    }
}

fn sstoken() -> Family<SsToken> {
    Family {
        sized: |n| SsToken::new(RingParams::new(n, K).unwrap()),
        start: || (0..N as u32).map(|i| (i * 5) % K).collect(),
        poison: |i| (i as u32 * 3 + 1) % K,
    }
}

fn flag_matches_recompute<A: RingAlgorithm>(sim: &CstSim<A>, at: &str) {
    let flag = sim.timeline().samples().last().expect("a sample per event").legitimate;
    let full = sim.algorithm().is_legitimate(&sim.ground_config());
    assert_eq!(flag, full, "ground-legitimacy flag is stale {at} (t = {})", sim.now());
}

/// Drive the whole scenario one tick at a time, checking the flag after
/// every tick and after every membership or restore step.
fn tick_by_tick<A: RingAlgorithm>(family: &Family<A>, seed: u64, exec_delay: Time)
where
    A::State: WireState,
{
    let algo = (family.sized)(N);
    let mut sim = CstSim::new(algo, (family.start)(), cfg(seed, exec_delay)).unwrap();
    for (i, at) in [40, 900, 1_700, 2_600, 3_300].into_iter().enumerate() {
        sim.schedule_corruption(at, 1 + i % 3, (family.poison)(i as u64));
    }
    let mut legit_ticks = 0;
    for t in 1..=4_000 {
        match t {
            1_000 => {
                let n = sim.ground_config().len();
                let own = sim.node(n - 1).own.clone();
                sim.splice_join((family.sized)(n + 1), own);
                flag_matches_recompute(&sim, "after splice_join");
            }
            1_500 | 3_000 => {
                let n = sim.ground_config().len();
                let bytes = sim.checkpoint(b"");
                sim = CstSim::restore((family.sized)(n), &bytes).unwrap().0;
                flag_matches_recompute(&sim, "after restore");
            }
            2_000 => {
                let n = sim.ground_config().len();
                sim.splice_leave((family.sized)(n - 1), 2);
                flag_matches_recompute(&sim, "after splice_leave");
            }
            _ => {}
        }
        sim.run_until(t);
        flag_matches_recompute(&sim, "after run_until");
        legit_ticks += usize::from(sim.timeline().samples().last().unwrap().legitimate);
    }
    // The scenario must exercise both values of the flag.
    assert!(legit_ticks > 0 && legit_ticks < 4_000, "legitimate ticks: {legit_ticks}");
}

/// `run_until_stably_legitimate` against a naive loop that advances one
/// tick at a time and recomputes Definition 1 on the whole ground
/// configuration after every own-state change of the tick. The changes are
/// replayed from the transcript, because two changes in one tick can leave
/// and re-enter legitimacy, which restarts the stable stretch; the replayed
/// configuration is checked against the ground configuration every tick.
fn stable_since_matches_naive<A: RingAlgorithm>(family: &Family<A>, seed: u64, exec_delay: Time) {
    const T_MAX: Time = 60_000;
    const WINDOW: Time = 500;
    let build = || {
        let algo = (family.sized)(N);
        let mut sim = CstSim::new(algo, (family.start)(), cfg(seed, exec_delay)).unwrap();
        sim.schedule_corruption(60, 2, (family.poison)(seed));
        sim
    };

    let mut fast = build();
    let since = fast.run_until_stably_legitimate(T_MAX, WINDOW);

    let mut naive = build();
    naive.enable_transcript(1 << 12);
    let algo = (family.sized)(N);
    let mut config = naive.ground_config();
    let mut naive_since = algo.is_legitimate(&config).then_some(naive.now());
    let mut recorded = 0;
    let naive_result = loop {
        if let Some(s) = naive_since {
            if naive.now() - s >= WINDOW {
                break Some(s);
            }
        }
        if naive.now() >= T_MAX {
            break None;
        }
        naive.run_until(naive.now() + 1);
        let transcript = naive.transcript().unwrap();
        let total = transcript.dropped() + transcript.len() as u64;
        let fresh = (total - recorded) as usize;
        recorded = total;
        for (at, record) in transcript.entries().skip(transcript.len() - fresh) {
            let (node, state) = match record {
                EventRecord::RuleFired { node, after, .. } => (node, after),
                EventRecord::Corrupted { node, state } => (node, state),
                _ => continue,
            };
            config[*node] = state.clone();
            if algo.is_legitimate(&config) {
                naive_since.get_or_insert(*at);
            } else {
                naive_since = None;
            }
        }
        assert_eq!(config, naive.ground_config(), "transcript replay diverged");
    };
    assert!(since.is_some(), "seed {seed}, exec_delay {exec_delay}: no convergence");
    assert_eq!(since, naive_result, "seed {seed}, exec_delay {exec_delay}");
}

#[test]
fn ssrmin_flag_tracks_full_recompute_every_tick() {
    for (seed, exec_delay) in [(1, 0), (2, 4)] {
        tick_by_tick(&ssrmin(), seed, exec_delay);
    }
}

#[test]
fn sstoken_flag_tracks_full_recompute_every_tick() {
    for (seed, exec_delay) in [(3, 0), (4, 4)] {
        tick_by_tick(&sstoken(), seed, exec_delay);
    }
}

#[test]
fn stably_legitimate_since_matches_a_naive_tick_loop() {
    for seed in 0..4 {
        for exec_delay in [0, 3] {
            stable_since_matches_naive(&ssrmin(), seed, exec_delay);
            stable_since_matches_naive(&sstoken(), seed, exec_delay);
        }
    }
}
