//! `classify` against the set definition of Definition 1: a configuration
//! is legitimate iff it is one of the `3nK` configurations that
//! `enumerate_legitimate` builds. Exhaustive for (n, K) = (3, 4), over
//! counters beyond `K` at any position as well as in range; sampled for
//! (n, K) = (5, 7), mixing uniform configurations with legitimate ones hit
//! by a few faults so that both verdicts occur often.

use std::collections::HashSet;

use proptest::prelude::*;

use ssr_core::legitimacy::{build, classify, enumerate_legitimate};
use ssr_core::{RingParams, SsrState};

/// Checks `classify(c)` against membership in `legitimate`, and that the
/// returned form rebuilds `c` exactly.
fn check(params: RingParams, legitimate: &HashSet<Vec<SsrState>>, c: &[SsrState]) {
    let form = classify(params, c);
    assert_eq!(form.is_some(), legitimate.contains(c), "classify disagrees on {c:?}");
    if let Some(form) = form {
        assert_eq!(build(params, form), c, "{form:?} does not rebuild {c:?}");
    }
}

/// Every local state with `x` in `0..=K+1` (so out-of-range counters occur)
/// and every flag pair.
fn all_states(k: u32) -> Vec<SsrState> {
    (0..=k + 1).flat_map(|x| (0..4u8).map(move |f| SsrState::new(x, f & 1, f >> 1))).collect()
}

#[test]
fn classify_matches_the_enumeration_exhaustively_n3_k4() {
    let params = RingParams::new(3, 4).unwrap();
    let legitimate: HashSet<Vec<SsrState>> = enumerate_legitimate(params).into_iter().collect();
    assert_eq!(legitimate.len(), 3 * 3 * 4);
    let states = all_states(params.k());
    let (mut total, mut hits) = (0usize, 0usize);
    for &a in &states {
        for &b in &states {
            for &c in &states {
                let config = [a, b, c];
                check(params, &legitimate, &config);
                total += 1;
                hits += classify(params, &config).is_some() as usize;
            }
        }
    }
    assert_eq!(total, states.len().pow(3));
    assert_eq!(hits, legitimate.len(), "every legitimate configuration must be found");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn classify_matches_the_enumeration_n5_k7(
        uniform in 0u8..2,
        base in 0usize..3 * 5 * 7,
        states in proptest::collection::vec((0u32..9, 0u8..2, 0u8..2), 5),
        faults in proptest::collection::vec(0usize..5, 0..3),
    ) {
        let params = RingParams::new(5, 7).unwrap();
        let all = enumerate_legitimate(params);
        let random: Vec<SsrState> = states.iter().map(|&(x, r, t)| SsrState::new(x, r, t)).collect();
        let config = if uniform == 1 {
            random
        } else {
            let mut c = all[base].clone();
            for (k, &pos) in faults.iter().enumerate() {
                c[pos] = random[k];
            }
            c
        };
        check(params, &all.into_iter().collect(), &config);
    }
}
