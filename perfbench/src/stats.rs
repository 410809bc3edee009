//! Summary statistics: medians, the tail-percentile rule, quantiles
//! recovered from cumulative histogram buckets, and the failure tally.

/// Median of `samples` (mean of the two middle values for an even
/// count); `None` for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Arithmetic mean; `None` for an empty slice.
pub fn mean(samples: &[f64]) -> Option<f64> {
    (!samples.is_empty()).then(|| samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Candidate tail percentiles in per-mille, highest first.
const TAIL_LADDER_PERMILLE: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Fewest samples a tail needs beyond it.
const TAIL_BEYOND: usize = 10;

/// A tail latency: the value at `percentile`, from `samples` samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it (nearest-rank). `None` under 20 samples, where
/// even the median has fewer than ten samples above it.
pub fn tail(samples: &[f64]) -> Option<Tail> {
    let n = samples.len();
    let permille = TAIL_LADDER_PERMILLE
        .iter()
        .copied()
        .find(|&p| n - (p * n).div_ceil(1000) >= TAIL_BEYOND)?;
    let rank = (permille * n).div_ceil(1000);
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(Tail {
        percentile: permille as f64 / 10.0,
        value: s[rank - 1],
        samples: n,
    })
}

/// Quantile `q` of a histogram given as cumulative `(upper bound,
/// count)` buckets in increasing bound order, the last bound being
/// `+Inf`: linear interpolation inside the bucket that holds the rank,
/// as Prometheus' `histogram_quantile` does. A rank in the `+Inf`
/// bucket reports the last finite bound. `None` when the histogram is
/// empty.
pub fn bucket_quantile(buckets: &[(f64, f64)], q: f64) -> Option<f64> {
    let total = buckets.last()?.1;
    if total <= 0.0 {
        return None;
    }
    let rank = q * total;
    let mut lower = 0.0;
    let mut below = 0.0;
    for &(bound, cumulative) in buckets {
        if cumulative >= rank && cumulative > below {
            if bound.is_infinite() {
                return Some(lower);
            }
            let share = (rank - below) / (cumulative - below);
            return Some(lower + (bound - lower) * share);
        }
        if bound.is_finite() {
            lower = bound;
        }
        below = cumulative;
    }
    Some(lower)
}

/// Counts attempted operations and the ones whose output was wrong or
/// missing. A failure never aborts a run; it is tallied and reported.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failure descriptions, for the run log.
    pub reasons: Vec<String>,
}

impl Tally {
    const KEEP_REASONS: usize = 8;

    /// Records one operation: `Ok` passed, `Err(why)` failed.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.reasons.len() < Self::KEEP_REASONS {
                self.reasons.push(why);
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for r in other.reasons {
            if self.reasons.len() < Self::KEEP_REASONS {
                self.reasons.push(r);
            }
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `Ok` when a mined digest equals the expected one.
pub fn check_digest(what: &str, got: &str, want: &str) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: final DL digest {got}, expected {want}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-9, "got {got}, want {want}");
    }

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the functions must sort.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn median_odd_even_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_omitted_under_twenty_samples() {
        assert_eq!(tail(&ramp(0)), None);
        assert_eq!(tail(&ramp(19)), None);
        let t = tail(&ramp(20)).expect("20 samples give a tail");
        // p50 of 1..=20 by nearest rank is 10, with 11..=20 beyond it.
        assert_eq!((t.percentile, t.value, t.samples), (50.0, 10.0, 20));
    }

    #[test]
    fn tail_climbs_the_ladder_with_ten_samples_beyond() {
        let cases = [
            (39, 50.0),
            (40, 75.0),
            (99, 75.0),
            (100, 90.0),
            (199, 90.0),
            (200, 95.0),
            (1000, 99.0),
            (9999, 99.0),
            (10_000, 99.9),
        ];
        for (n, want) in cases {
            let t = tail(&ramp(n)).expect("enough samples");
            assert_eq!(t.percentile, want, "n = {n}");
            let beyond = ramp(n).iter().filter(|&&v| v > t.value).count();
            assert!(beyond >= TAIL_BEYOND, "n = {n}: only {beyond} beyond");
        }
    }

    #[test]
    fn quantile_from_cumulative_buckets() {
        // 10 observations in (0, 1], 30 in (1, 2], 60 in (2, 4].
        let b = [
            (1.0, 10.0),
            (2.0, 40.0),
            (4.0, 100.0),
            (f64::INFINITY, 100.0),
        ];
        let q = |q| bucket_quantile(&b, q).expect("non-empty histogram");
        assert_close(q(0.1), 1.0);
        // Rank 25 sits halfway through the (1, 2] bucket.
        assert_close(q(0.25), 1.5);
        // Rank 70 sits halfway through (2, 4].
        assert_close(q(0.7), 3.0);
        assert_close(q(0.05), 0.5);
    }

    #[test]
    fn quantile_skips_empty_buckets_and_caps_at_inf() {
        let b = [(1.0, 0.0), (2.0, 0.0), (4.0, 4.0), (f64::INFINITY, 4.0)];
        assert_close(bucket_quantile(&b, 0.5).expect("non-empty"), 3.0);
        let overflow = [(1.0, 1.0), (f64::INFINITY, 2.0)];
        assert_eq!(bucket_quantile(&overflow, 0.99), Some(1.0));
        let empty = [(1.0, 0.0), (f64::INFINITY, 0.0)];
        assert_eq!(bucket_quantile(&empty, 0.5), None);
    }

    #[test]
    fn tally_counts_a_forged_digest_as_a_failure() {
        let mut tally = Tally::default();
        tally.record(check_digest("op 0", "4153207949202dc0", "4153207949202dc0"));
        tally.record(check_digest("op 1", "4153207949202dc1", "4153207949202dc0"));
        tally.record(check_digest("op 2", "4153207949202dc0", "4153207949202dc0"));
        assert_eq!((tally.attempted, tally.failed), (3, 1));
        assert!((tally.fail_ratio() - 1.0 / 3.0).abs() < 1e-12);
        assert!(tally.reasons[0].contains("op 1"));
    }
}
