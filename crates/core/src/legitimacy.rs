//! Definition 1 of the paper: the legitimate configurations of SSRmin, as a
//! classifier, a constructor and an exhaustive enumerator.

use crate::params::RingParams;
use crate::state::SsrState;

/// The syntactic shape of a legitimate SSRmin configuration (Definition 1).
///
/// Every legitimate configuration has a *token position* `i` and a *low
/// counter value* `x`: processes `P_0 .. P_{i-1}` hold `x+1 mod K`, processes
/// `P_i .. P_{n-1}` hold `x` (for `i = 0` all processes hold `x`), and the
/// handshake flags identify one of three phases of the handover at `P_i`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum LegitimateForm {
    /// `P_i` holds both tokens with `⟨rts.tra⟩ = ⟨0.1⟩` — it has just
    /// acknowledged receipt of the secondary token.
    BothTra {
        /// Token position.
        i: usize,
        /// Low counter value.
        x: u32,
    },
    /// `P_i` holds both tokens with `⟨rts.tra⟩ = ⟨1.0⟩` — it has offered the
    /// secondary token and the successor has not yet received it.
    BothRts {
        /// Token position.
        i: usize,
        /// Low counter value.
        x: u32,
    },
    /// `P_i` holds the primary token (`⟨1.0⟩`) and `P_{i+1 mod n}` holds the
    /// secondary token (`⟨0.1⟩`).
    Split {
        /// Primary-token position.
        i: usize,
        /// Low counter value.
        x: u32,
    },
}

impl LegitimateForm {
    /// The token position `i`.
    pub fn position(&self) -> usize {
        match *self {
            LegitimateForm::BothTra { i, .. }
            | LegitimateForm::BothRts { i, .. }
            | LegitimateForm::Split { i, .. } => i,
        }
    }

    /// The low counter value `x`.
    pub fn x(&self) -> u32 {
        match *self {
            LegitimateForm::BothTra { x, .. }
            | LegitimateForm::BothRts { x, .. }
            | LegitimateForm::Split { x, .. } => x,
        }
    }
}

/// Classify `config` against Definition 1, returning its form or `None` if
/// it is illegitimate.
///
/// ```
/// use ssr_core::{legitimacy::{classify, LegitimateForm}, RingParams, SsrState};
/// let p = RingParams::new(5, 7).unwrap();
/// let cfg: Vec<SsrState> = ["4.0.0", "4.0.0", "3.1.0", "3.0.1", "3.0.0"]
///     .iter().map(|s| s.parse().unwrap()).collect();
/// assert_eq!(classify(p, &cfg), Some(LegitimateForm::Split { i: 2, x: 3 }));
/// ```
pub fn classify(params: RingParams, config: &[SsrState]) -> Option<LegitimateForm> {
    let n = params.n();
    if config.len() != n {
        return None;
    }
    // Counter component: all equal (i = 0), or a prefix of i copies of
    // x+1 followed by n-i copies of x (1 <= i <= n-1). Checking x < K at
    // P_{n-1} alone suffices: the shape forces every other entry into
    // {x, x+1 mod K}.
    let x = config[n - 1].x;
    if x >= params.k() {
        return None;
    }
    let upper = params.inc(x);
    // K >= 2, so upper != x = config[n-1].x and the prefix stops before n.
    let i = config.iter().position(|s| s.x != upper).expect("config[n-1].x != x+1 mod K");

    // Flag component: the phase is decided by P_i and P_{i+1}; every other
    // process must hold ⟨0.0⟩.
    let succ = params.succ(i);
    let at = config[i];
    let (form, partner) = if at.flags_are(0, 1) {
        (LegitimateForm::BothTra { i, x }, i)
    } else if !at.flags_are(1, 0) {
        return None;
    } else if config[succ].flags_are(0, 1) {
        (LegitimateForm::Split { i, x }, succ)
    } else {
        (LegitimateForm::BothRts { i, x }, i)
    };
    let clear = |j: usize, s: &SsrState| j == i || j == partner || s.flags_are(0, 0);
    // One pass; an illegitimate configuration exits at its first mismatch.
    let shaped = config[..i].iter().enumerate().all(|(j, s)| clear(j, s))
        && config[i..].iter().zip(i..).all(|(s, j)| s.x == x && clear(j, s));
    shaped.then_some(form)
}

/// True iff `config` is legitimate per Definition 1.
pub fn is_legitimate_ssrmin(params: RingParams, config: &[SsrState]) -> bool {
    classify(params, config).is_some()
}

/// Construct the configuration described by `form`.
pub fn build(params: RingParams, form: LegitimateForm) -> Vec<SsrState> {
    let n = params.n();
    let i = form.position();
    let x = form.x();
    assert!(i < n, "token position out of range");
    assert!(x < params.k(), "x out of range");
    let upper = params.inc(x);
    let mut cfg: Vec<SsrState> =
        (0..n).map(|j| SsrState::new(if j < i { upper } else { x }, 0, 0)).collect();
    match form {
        LegitimateForm::BothTra { .. } => cfg[i] = cfg[i].with_flags(false, true),
        LegitimateForm::BothRts { .. } => cfg[i] = cfg[i].with_flags(true, false),
        LegitimateForm::Split { .. } => {
            cfg[i] = cfg[i].with_flags(true, false);
            let s = params.succ(i);
            cfg[s] = cfg[s].with_flags(false, true);
        }
    }
    cfg
}

/// Enumerate *all* legitimate configurations for the given parameters:
/// `3 · n · K` of them (three phases × n token positions × K counter values).
pub fn enumerate_legitimate(params: RingParams) -> Vec<Vec<SsrState>> {
    let mut out = Vec::with_capacity(3 * params.n() * params.k() as usize);
    for x in 0..params.k() {
        for i in 0..params.n() {
            out.push(build(params, LegitimateForm::BothTra { i, x }));
            out.push(build(params, LegitimateForm::BothRts { i, x }));
            out.push(build(params, LegitimateForm::Split { i, x }));
        }
    }
    out
}

/// Service census over one full legitimate cycle: starting from the anchor,
/// walk all `3·n·K` configurations of the cycle and count, per process, in
/// how many of them it is privileged. The result quantifies the fairness of
/// the rotation in the state-reading model: every process is privileged in
/// exactly `4K` of the `3nK` configurations (3 of each lap's own phases
/// plus 1 as the secondary holder of its predecessor's split phase).
pub fn cycle_service_census(algo: &crate::SsrMin) -> Vec<u64> {
    use crate::algorithm::RingAlgorithm;
    let params = algo.params();
    let n = params.n();
    let mut census = vec![0u64; n];
    let mut cfg = algo.legitimate_anchor(0);
    let cycle_len = 3 * n * params.k() as usize;
    for _ in 0..cycle_len {
        for (i, slot) in census.iter_mut().enumerate() {
            if algo.tokens_in(&cfg, i).any() {
                *slot += 1;
            }
        }
        let enabled = algo.enabled_processes(&cfg);
        debug_assert_eq!(enabled.len(), 1);
        cfg = algo.step_process(&cfg, enabled[0]).expect("enabled");
    }
    debug_assert_eq!(cfg, algo.legitimate_anchor(0), "cycle must close");
    census
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithm::RingAlgorithm;
    use crate::ssrmin::SsrMin;

    fn params(n: usize, k: u32) -> RingParams {
        RingParams::new(n, k).unwrap()
    }

    fn cfg(states: &[&str]) -> Vec<SsrState> {
        states.iter().map(|s| s.parse().unwrap()).collect()
    }

    #[test]
    fn definition1_examples_classify() {
        let p = params(5, 7);
        // P0 holds both (tra form).
        assert_eq!(
            classify(p, &cfg(&["3.0.1", "3.0.0", "3.0.0", "3.0.0", "3.0.0"])),
            Some(LegitimateForm::BothTra { i: 0, x: 3 })
        );
        // P0 holds both (rts form).
        assert_eq!(
            classify(p, &cfg(&["3.1.0", "3.0.0", "3.0.0", "3.0.0", "3.0.0"])),
            Some(LegitimateForm::BothRts { i: 0, x: 3 })
        );
        // P0 primary, P1 secondary.
        assert_eq!(
            classify(p, &cfg(&["3.1.0", "3.0.1", "3.0.0", "3.0.0", "3.0.0"])),
            Some(LegitimateForm::Split { i: 0, x: 3 })
        );
        // P2 holds both.
        assert_eq!(
            classify(p, &cfg(&["4.0.0", "4.0.0", "3.0.1", "3.0.0", "3.0.0"])),
            Some(LegitimateForm::BothTra { i: 2, x: 3 })
        );
        // P2 primary, P3 secondary.
        assert_eq!(
            classify(p, &cfg(&["4.0.0", "4.0.0", "3.1.0", "3.0.1", "3.0.0"])),
            Some(LegitimateForm::Split { i: 2, x: 3 })
        );
    }

    #[test]
    fn wraparound_split_is_legitimate() {
        // γ_{3n-1} of the closure proof: P_{n-1} primary, P_0 secondary.
        let p = params(5, 7);
        let c = cfg(&["4.0.1", "4.0.0", "4.0.0", "4.0.0", "3.1.0"]);
        assert_eq!(classify(p, &c), Some(LegitimateForm::Split { i: 4, x: 3 }));
    }

    #[test]
    fn wraparound_with_modulus() {
        let p = params(5, 7);
        // x = 6, x+1 = 0.
        let c = cfg(&["0.0.0", "0.0.0", "6.0.1", "6.0.0", "6.0.0"]);
        assert_eq!(classify(p, &c), Some(LegitimateForm::BothTra { i: 2, x: 6 }));
    }

    #[test]
    fn illegitimate_examples_rejected() {
        let p = params(5, 7);
        // Two flag positions that are not a split.
        assert!(classify(p, &cfg(&["3.0.1", "3.0.1", "3.0.0", "3.0.0", "3.0.0"])).is_none());
        // Counter jump of 2.
        assert!(classify(p, &cfg(&["5.0.0", "3.0.1", "3.0.0", "3.0.0", "3.0.0"])).is_none());
        // All flags clear (the pre-legitimate state reached during
        // convergence, Lemma 6): NOT legitimate.
        assert!(classify(p, &cfg(&["3.0.0", "3.0.0", "3.0.0", "3.0.0", "3.0.0"])).is_none());
        // 1.1 flags anywhere.
        assert!(classify(p, &cfg(&["3.1.1", "3.0.0", "3.0.0", "3.0.0", "3.0.0"])).is_none());
        // Split with a gap (secondary not at successor).
        assert!(classify(p, &cfg(&["3.1.0", "3.0.0", "3.0.1", "3.0.0", "3.0.0"])).is_none());
        // x out of range.
        assert!(classify(p, &cfg(&["9.0.1", "9.0.0", "9.0.0", "9.0.0", "9.0.0"])).is_none());
        // Wrong length.
        assert!(classify(p, &cfg(&["3.0.1", "3.0.0"])).is_none());
        // Descending pattern (x then x+1) is not of the form.
        assert!(classify(p, &cfg(&["3.0.0", "4.0.0", "4.0.0", "4.0.1", "4.0.0"])).is_none());
    }

    #[test]
    fn build_roundtrips_through_classify() {
        let p = params(6, 8);
        for x in 0..8 {
            for i in 0..6 {
                for form in [
                    LegitimateForm::BothTra { i, x },
                    LegitimateForm::BothRts { i, x },
                    LegitimateForm::Split { i, x },
                ] {
                    let c = build(p, form);
                    assert_eq!(classify(p, &c), Some(form), "form {form:?}");
                }
            }
        }
    }

    #[test]
    fn enumeration_counts_3nk_distinct() {
        let p = params(5, 7);
        let all = enumerate_legitimate(p);
        assert_eq!(all.len(), 3 * 5 * 7);
        let mut dedup = all.clone();
        dedup.sort_by_key(|c| c.iter().map(|s| (s.x, s.rts, s.tra)).collect::<Vec<_>>());
        dedup.dedup();
        assert_eq!(dedup.len(), all.len(), "enumeration produced duplicates");
    }

    /// Lemma 2: exactly one primary and one secondary token in every
    /// legitimate configuration.
    #[test]
    fn lemma2_token_counts_in_all_legitimate_configs() {
        let p = params(5, 7);
        let a = SsrMin::new(p);
        for c in enumerate_legitimate(p) {
            assert_eq!(a.primary_count(&c), 1, "{c:?}");
            assert_eq!(a.secondary_count(&c), 1, "{c:?}");
            let holders = a.token_holders(&c);
            assert!((1..=2).contains(&holders.len()));
        }
    }

    /// Lemma 1 (closure), exhaustively: from every legitimate configuration
    /// exactly one process is enabled and the next configuration is
    /// legitimate.
    #[test]
    fn lemma1_closure_exhaustive() {
        for (n, k) in [(3usize, 4u32), (4, 6), (5, 7)] {
            let p = params(n, k);
            let a = SsrMin::new(p);
            for c in enumerate_legitimate(p) {
                let enabled = a.enabled_processes(&c);
                assert_eq!(enabled.len(), 1, "enabled set in {c:?}");
                let next = a.step_process(&c, enabled[0]).unwrap();
                assert!(classify(p, &next).is_some(), "closure violated: {c:?} -> {next:?}");
            }
        }
    }

    /// Every process gets exactly the same service over a full cycle — 4K
    /// privileged configurations each (Figure 1's fairness, made exact).
    #[test]
    fn cycle_service_is_perfectly_fair() {
        for (n, k) in [(3usize, 4u32), (5, 7), (6, 8)] {
            let algo = SsrMin::new(params(n, k));
            let census = cycle_service_census(&algo);
            assert_eq!(census, vec![4 * k as u64; n], "n={n}, K={k}");
        }
    }

    /// The legitimate set is a single cycle of length 3nK: starting from the
    /// anchor, after 3nK single-process steps we are back at the anchor, and
    /// every legitimate configuration was visited exactly once.
    #[test]
    fn legitimate_set_is_one_cycle() {
        let p = params(4, 5);
        let a = SsrMin::new(p);
        let anchor = a.legitimate_anchor(0);
        let mut seen = std::collections::HashSet::new();
        let mut c = anchor.clone();
        let cycle_len = 3 * p.n() * p.k() as usize;
        for _ in 0..cycle_len {
            assert!(
                seen.insert(c.iter().map(|s| s.to_string()).collect::<Vec<_>>()),
                "revisited a configuration early"
            );
            let e = a.enabled_processes(&c);
            c = a.step_process(&c, e[0]).unwrap();
        }
        assert_eq!(c, anchor, "cycle did not close after 3nK steps");
        assert_eq!(seen.len(), cycle_len);
        assert_eq!(seen.len(), enumerate_legitimate(p).len());
    }
}
