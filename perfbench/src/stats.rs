//! Percentiles shared by every workload.
//!
//! One rule for all of them: a percentile is reported with the number of
//! samples it was taken over, and it is refused unless at least
//! [`MIN_BEYOND`] samples lie above it. A p95 of 40 samples would be the
//! second-slowest op — a single outlier, not a percentile.

/// Fewest samples that must rank above a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Slack for ranks like `0.95 × 200`, which land a hair off an integer
/// in floating point.
const EPS: f64 = 1e-9;

/// A percentile value and the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    pub samples: usize,
}

/// Number of samples ranked strictly above the `q` percentile of `n`
/// samples, with the percentile at rank `q·(n−1)` (0-based, linear
/// interpolation between neighbours).
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = (q * (n - 1) as f64 - EPS).ceil() as usize;
    n - 1 - rank.min(n - 1)
}

/// The `q` percentile (0 ≤ q ≤ 1) of `values`, linearly interpolated
/// between closest ranks — the same definition as Python's
/// `statistics.quantiles(method="inclusive")`. Refuses when fewer than
/// [`MIN_BEYOND`] samples would lie above it.
pub fn percentile(values: &[f64], q: f64) -> Result<Pct, String> {
    assert!((0.0..=1.0).contains(&q), "percentile {q} out of range");
    let n = values.len();
    if beyond(n, q) < MIN_BEYOND {
        return Err(format!(
            "p{} of {n} samples has {} beyond it (need {MIN_BEYOND})",
            q * 100.0,
            beyond(n, q)
        ));
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let h = q * (n - 1) as f64;
    let lo = ((h + EPS).floor() as usize).min(n - 1);
    let hi = (lo + 1).min(n - 1);
    let frac = (h - lo as f64).max(0.0);
    let value = sorted[lo] + frac * (sorted[hi] - sorted[lo]);
    Ok(Pct { value, samples: n })
}

/// Median without the sample-count rule: used to collapse repeated
/// timings of one input into one robust value, never as a reported
/// percentile on its own.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn exact_small_sample_percentiles() {
        // 21 samples 1..=21: rank 10 is the median, exactly 10 beyond it.
        let p = percentile(&ramp(21), 0.5).unwrap();
        assert_eq!(
            p,
            Pct {
                value: 11.0,
                samples: 21
            }
        );
        // 22 samples: rank 10.5 interpolates halfway between 11 and 12.
        assert_eq!(percentile(&ramp(22), 0.5).unwrap().value, 11.5);
        // Order of input does not matter.
        let mut shuffled = ramp(22);
        shuffled.reverse();
        assert_eq!(percentile(&shuffled, 0.5).unwrap().value, 11.5);
        // 201 samples: p95 is rank 190 exactly, value 191, 10 beyond.
        let p = percentile(&ramp(201), 0.95).unwrap();
        assert_eq!(p.value, 191.0);
        assert_eq!(beyond(201, 0.95), 10);
        // 250 samples: rank 236.55 → 237 + 0.55.
        let p = percentile(&ramp(250), 0.95).unwrap();
        assert!((p.value - 237.55).abs() < 1e-9, "{}", p.value);
    }

    #[test]
    fn refuses_thin_tails() {
        // 20 samples: the median has only 9 above it.
        assert_eq!(beyond(20, 0.5), 9);
        assert!(percentile(&ramp(20), 0.5).is_err());
        // 200 samples: p95 at rank 189.05 leaves 9 above it.
        assert_eq!(beyond(200, 0.95), 9);
        let err = percentile(&ramp(200), 0.95).unwrap_err();
        assert!(err.contains("need 10"), "{err}");
        // A single op is never a percentile.
        assert!(percentile(&[3.0], 0.95).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn median_of_repeats() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
