//! Summary arithmetic shared by every workload: nearest-rank percentiles,
//! medians over repeats, tail-percentile selection, laps and ratios.

/// Percentiles the tail selection may report, highest first.
const TAIL_LADDER: [f64; 5] = [99.99, 99.9, 99.0, 90.0, 50.0];

/// Samples that must lie beyond a percentile before it may be reported.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The nearest rank of percentile `p` among `n` samples: `ceil(p·n/100)`,
/// with a tolerance so that decimal percentiles such as 99.9 land on the
/// exact rank despite binary rounding.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0) - 1e-9).ceil().max(0.0) as usize
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, ascending.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p).clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 { sorted[mid] } else { (sorted[mid - 1] + sorted[mid]) / 2.0 })
}

/// Samples strictly beyond the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p).min(n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond it, or `None` when even the median has too few.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&p| beyond(n, p) >= TAIL_MIN_BEYOND)
}

/// A timing summary: median, the selected tail percentile and its value,
/// and the sample count both rest on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timing {
    /// Samples summarized.
    pub samples: usize,
    /// Median sample.
    pub p50: f64,
    /// The tail percentile chosen by [`tail_percentile`], with its value.
    pub tail: Option<(f64, f64)>,
}

impl Timing {
    /// Summarize `samples`; a failed attempt is passed as `f64::INFINITY`
    /// so it counts as over every latency limit.
    pub fn of(samples: &[f64]) -> Option<Timing> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let p50 = percentile(&sorted, 50.0)?;
        let tail =
            tail_percentile(sorted.len()).and_then(|p| percentile(&sorted, p).map(|v| (p, v)));
        Some(Timing { samples: sorted.len(), p50, tail })
    }

    /// The value at percentile `p`, if the sample supports it (at least
    /// [`TAIL_MIN_BEYOND`] samples beyond).
    pub fn at(samples: &[f64], p: f64) -> Option<f64> {
        if beyond(samples.len(), p) < TAIL_MIN_BEYOND {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }
}

/// Host milliseconds per token lap: a lap is `3n` rule firings (Lemma 5's
/// bound on the moves of one circulation).
pub fn ms_per_lap(wall_ms: f64, rules: u64, n: usize) -> Option<f64> {
    (rules > 0).then(|| wall_ms * (3 * n) as f64 / rules as f64)
}

/// A ratio that names its base (the denominator's meaning).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator count.
    pub num: u64,
    /// Denominator count.
    pub den: u64,
    /// What the denominator counts.
    pub base: &'static str,
}

impl Ratio {
    /// `num / den`, or 0 when nothing was attempted.
    pub fn value(&self) -> f64 {
        if self.den == 0 {
            0.0
        } else {
            self.num as f64 / self.den as f64
        }
    }

    /// `num/den = value (base: ...)`, for the human-readable report.
    pub fn describe(&self) -> String {
        format!("{}/{} = {:.6} (base: {})", self.num, self.den, self.value(), self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), Some(50.0));
        assert_eq!(percentile(&sorted, 99.0), Some(99.0));
        assert_eq!(percentile(&sorted, 100.0), Some(100.0));
        assert_eq!(percentile(&[7.0], 99.9), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_selection_needs_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 leaves 1.
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(1000, 99.9), 1);
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn timing_reports_sample_count_and_counts_failures_as_slow() {
        let mut samples: Vec<f64> = (1..=999).map(f64::from).collect();
        samples.push(f64::INFINITY);
        let t = Timing::of(&samples).expect("non-empty");
        assert_eq!(t.samples, 1000);
        assert_eq!(t.p50, 500.0);
        assert_eq!(t.tail, Some((99.0, 990.0)));
        // Eleven failures push p99 to infinity: a failed acquire is over any limit.
        samples.splice(0..10, std::iter::repeat_n(f64::INFINITY, 10));
        assert_eq!(Timing::of(&samples).expect("non-empty").tail.map(|t| t.1), Some(f64::INFINITY));
        assert_eq!(Timing::at(&samples[..999], 99.0), None);
    }

    #[test]
    fn lap_arithmetic() {
        // 3n = 30 rule firings in 120 ms is one lap per 120 ms.
        assert_eq!(ms_per_lap(120.0, 30, 10), Some(120.0));
        // Half a lap in 60 ms is still 120 ms per lap.
        assert_eq!(ms_per_lap(60.0, 15, 10), Some(120.0));
        assert_eq!(ms_per_lap(60.0, 0, 10), None);
    }

    #[test]
    fn ratios_state_their_base() {
        let r = Ratio { num: 3, den: 12, base: "acquires attempted" };
        assert_eq!(r.value(), 0.25);
        assert_eq!(r.describe(), "3/12 = 0.250000 (base: acquires attempted)");
        assert_eq!(Ratio { num: 0, den: 0, base: "grants" }.value(), 0.0);
    }
}
