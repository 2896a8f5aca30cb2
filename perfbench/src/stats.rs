//! Order statistics of the suite: medians, nearest-rank percentiles, the
//! "ten samples beyond it" support rule, slice cutting, and the guard that
//! keeps a reported percentile away from a boundary between cost classes.

/// Percentiles the suite may report, ascending.
pub const PERCENTILES: [f64; 4] = [50.0, 90.0, 95.0, 99.0];

/// Samples a percentile needs beyond it before the suite trusts it.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Two op classes whose medians differ by more than this factor are
/// distinct cost classes.
pub const COST_CLASS_FACTOR: f64 = 2.0;

/// A boundary between cost classes must stay this many percentage points
/// away from every reported percentile.
pub const BOUNDARY_MARGIN_POINTS: f64 = 10.0;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller has at least one slice or sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest-rank position of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// Nearest-rank percentile `p` (0 < p ≤ 100) of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no values");
    sorted[rank(sorted.len(), p) - 1]
}

/// How many of `n` samples lie strictly beyond the nearest-rank position
/// of percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest percentile of [`PERCENTILES`] with at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it; `None` (refused) when not even
/// the median has that support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    PERCENTILES
        .iter()
        .rev()
        .copied()
        .find(|p| samples_beyond(n, *p) >= MIN_SAMPLES_BEYOND)
}

/// Which of `slices` equal slices of a `window_ns` window an operation
/// that started at `start_ns` belongs to; `None` when it started after
/// the window closed.
pub fn slice_index(start_ns: u64, window_ns: u64, slices: usize) -> Option<usize> {
    if start_ns >= window_ns || slices == 0 {
        return None;
    }
    Some(((start_ns as u128 * slices as u128) / window_ns as u128) as usize)
}

/// One op class of a workload as realised in a window.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassShare {
    /// Class name.
    pub name: &'static str,
    /// Share of the samples (0..=1).
    pub share: f64,
    /// Median latency of the class.
    pub median: f64,
}

/// Cumulative shares (in percent) at which the latency distribution steps
/// from one cost class to the next: classes sorted by median, a boundary
/// wherever neighbouring medians differ by more than
/// [`COST_CLASS_FACTOR`].
pub fn cost_class_boundaries(classes: &[ClassShare]) -> Vec<f64> {
    let mut sorted: Vec<&ClassShare> = classes.iter().filter(|c| c.share > 0.0).collect();
    sorted.sort_by(|a, b| a.median.total_cmp(&b.median));
    let mut out = Vec::new();
    let mut cum = 0.0;
    for pair in sorted.windows(2) {
        cum += pair[0].share;
        if pair[1].median > pair[0].median * COST_CLASS_FACTOR {
            out.push(cum * 100.0);
        }
    }
    out
}

/// The op-class-boundary guard: an error naming the first reported
/// percentile that lies within [`BOUNDARY_MARGIN_POINTS`] of a boundary
/// between distinct cost classes (there a one-point change of the mix
/// flips the percentile from one class's latency to the other's).
pub fn check_class_boundaries(classes: &[ClassShare], reported: &[f64]) -> Result<(), String> {
    for b in cost_class_boundaries(classes) {
        for p in reported {
            if (b - p).abs() < BOUNDARY_MARGIN_POINTS {
                return Err(format!(
                    "cost-class boundary at {b:.1} % lies within {BOUNDARY_MARGIN_POINTS} points \
                     of the reported p{p}: {classes:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[5.0], 95.0), 5.0);
    }

    #[test]
    fn percentile_selection_needs_ten_samples_beyond() {
        // 1000 samples: p99 has exactly 10 beyond it.
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        // 999 samples: p99 has 9 beyond, p95 has 49.
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(200), Some(95.0));
        assert_eq!(highest_supported_percentile(199), Some(90.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(99), Some(50.0));
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        // Fewer than 20 samples: refused.
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(0), None);
    }

    #[test]
    fn slices_cut_the_window_evenly() {
        let w = 30_000_000_000;
        assert_eq!(slice_index(0, w, 5), Some(0));
        assert_eq!(slice_index(5_999_999_999, w, 5), Some(0));
        assert_eq!(slice_index(6_000_000_000, w, 5), Some(1));
        assert_eq!(slice_index(w - 1, w, 5), Some(4));
        assert_eq!(slice_index(w, w, 5), None);
    }

    #[test]
    fn median_of_slices_absorbs_one_disturbed_slice() {
        assert_eq!(median(&[1.0, 1.1, 0.9, 1.0, 9.0]), 1.0);
    }

    fn class(name: &'static str, share: f64, median: f64) -> ClassShare {
        ClassShare {
            name,
            share,
            median,
        }
    }

    #[test]
    fn boundary_guard_rejects_a_percentile_on_a_class_edge() {
        // The probe's trap: a 50/50 mix of a 0.1 ms and a 1 ms class puts
        // the boundary exactly on p50.
        let even = [class("fast", 0.5, 0.1), class("slow", 0.5, 1.0)];
        assert_eq!(cost_class_boundaries(&even), vec![50.0]);
        assert!(check_class_boundaries(&even, &[50.0, 95.0]).is_err());
        // The lookups' 3:1 mix keeps p50 and p95 ten points clear of 75 %.
        let lookups = [class("pref", 0.75, 0.08), class("cart", 0.25, 0.3)];
        assert_eq!(cost_class_boundaries(&lookups), vec![75.0]);
        assert!(check_class_boundaries(&lookups, &[50.0, 95.0]).is_ok());
        assert!(check_class_boundaries(&lookups, &[80.0]).is_err());
    }

    #[test]
    fn classes_within_factor_two_form_one_cost_class() {
        let c = [
            class("a", 0.2, 1.0),
            class("b", 0.3, 1.9),
            class("c", 0.5, 3.5),
        ];
        // 1.0 → 1.9 → 3.5: each step is within 2×, so no boundary at all.
        assert!(cost_class_boundaries(&c).is_empty());
        assert!(check_class_boundaries(&c, &[50.0]).is_ok());
        // An absent class cannot create a boundary.
        let d = [class("a", 0.0, 0.01), class("b", 1.0, 5.0)];
        assert!(cost_class_boundaries(&d).is_empty());
    }
}
