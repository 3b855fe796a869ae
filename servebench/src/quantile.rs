//! Exact quantiles from raw samples.
//!
//! Every quantile here is an order statistic of the samples themselves
//! (nearest rank: the `p`-quantile of `n` sorted samples is the one at
//! 1-based rank `ceil(p * n)`), never a histogram bucket edge.  A tail
//! quantile is only trusted when at least [`MIN_BEYOND`] samples lie
//! beyond it; when the sample is too small for the percentile asked for,
//! the highest percentile that does have them is reported instead, and
//! says so.
//!
//! [`windowed_tail`] makes a tail robust to bursts: the samples, in
//! arrival order, are cut into consecutive windows, each large enough for
//! its own tail quantile, and the median of those quantiles is reported.
//! A host stall that slows a few windows then moves the result less than
//! it moves the tail of the whole run.

/// Samples that must lie beyond a reported tail quantile.
pub const MIN_BEYOND: usize = 10;

/// One reported quantile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    /// The sample at `rank`.
    pub value: f64,
    /// The percentile actually reported, `rank / n`.
    pub pct: f64,
    /// 1-based rank of `value` among the sorted samples.
    pub rank: usize,
    /// Samples in the population.
    pub n: usize,
}

impl Quantile {
    /// Samples ranked above this one.
    pub fn beyond(&self) -> usize {
        self.n - self.rank
    }
}

/// Sort samples for quantile lookups.
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

fn at_rank(sorted: &[f64], rank: usize) -> Quantile {
    Quantile {
        value: sorted[rank - 1],
        pct: rank as f64 / sorted.len() as f64,
        rank,
        n: sorted.len(),
    }
}

/// Nearest-rank `p`-quantile (`0 < p <= 1`) of sorted samples; `None`
/// when there are none.
pub fn quantile(sorted: &[f64], p: f64) -> Option<Quantile> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    Some(at_rank(sorted, rank))
}

/// The median (lower median for an even count).
pub fn median(sorted: &[f64]) -> Option<Quantile> {
    quantile(sorted, 0.5)
}

/// The `p`-quantile if at least [`MIN_BEYOND`] samples lie beyond it,
/// else the highest quantile that has that many beyond it.  `None` when
/// no quantile has (fewer than `MIN_BEYOND + 1` samples).
pub fn tail(sorted: &[f64], p: f64) -> Option<Quantile> {
    let q = quantile(sorted, p)?;
    if q.beyond() >= MIN_BEYOND {
        return Some(q);
    }
    let rank = sorted.len().checked_sub(MIN_BEYOND).filter(|&r| r >= 1)?;
    Some(at_rank(sorted, rank))
}

/// A tail quantile taken per window, then the median over windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Median (lower, for an even count) of the windows' quantiles.
    pub value: f64,
    /// Windows the samples were cut into.
    pub windows: usize,
    /// Samples in the smallest window.
    pub min_window: usize,
    /// Samples in all windows together.
    pub n: usize,
}

/// The `p`-quantile of each of the most (at most `max_windows`)
/// consecutive, near-equal windows of `samples` (arrival order) in which
/// it keeps [`MIN_BEYOND`] samples beyond it; the median of those.  `None`
/// when not even one window of all the samples has that.
pub fn windowed_tail(samples: &[f64], p: f64, max_windows: usize) -> Option<Windowed> {
    let n = samples.len();
    let fits = |m: usize| {
        let rank = ((p * m as f64).ceil() as usize).clamp(1, m.max(1));
        m > 0 && m - rank >= MIN_BEYOND
    };
    let windows = (1..=max_windows.min(n)).rev().find(|&w| fits(n / w))?;
    let mut values: Vec<f64> = (0..windows)
        .map(|i| {
            let window = sorted(samples[i * n / windows..(i + 1) * n / windows].to_vec());
            quantile(&window, p).expect("non-empty window").value
        })
        .collect();
    values.sort_by(f64::total_cmp);
    Some(Windowed {
        value: values[windows.div_ceil(2) - 1],
        windows,
        min_window: n / windows,
        n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1..=n in a scrambled order, so sorting is exercised.
    fn scrambled(n: usize) -> Vec<f64> {
        sorted((0..n).map(|i| ((i * 37) % n + 1) as f64).collect())
    }

    #[test]
    fn quantiles_are_hand_computed_order_statistics() {
        let s = scrambled(100);
        assert_eq!(s, (1..=100).map(f64::from).collect::<Vec<_>>());
        // ceil(0.5 * 100) = 50, ceil(0.99 * 100) = 99.
        assert_eq!(median(&s).unwrap().value, 50.0);
        assert_eq!(quantile(&s, 0.99).unwrap().value, 99.0);
        // Lower median of an even count, middle of an odd one.
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]).unwrap().value, 2.0);
        assert_eq!(median(&[5.0, 6.0, 9.0]).unwrap().value, 6.0);
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // n = 1000: p99 is rank 990 with exactly ten beyond — reported.
        let s = scrambled(1000);
        let q = tail(&s, 0.99).unwrap();
        assert_eq!((q.value, q.rank, q.beyond()), (990.0, 990, 10));
        assert_eq!(q.pct, 0.99);
        // n = 200: p95 is rank 190, ten beyond — reported as asked.
        let q = tail(&scrambled(200), 0.95).unwrap();
        assert_eq!((q.value, q.beyond()), (190.0, 10));
        // n = 100: p99 would leave one beyond; fall back to rank 90 (p90).
        let q = tail(&scrambled(100), 0.99).unwrap();
        assert_eq!((q.value, q.rank, q.beyond()), (90.0, 90, 10));
        assert_eq!(q.pct, 0.9);
        // n = 199: p95 is rank 190 with nine beyond; fall back to 189.
        let q = tail(&scrambled(199), 0.95).unwrap();
        assert_eq!((q.value, q.beyond()), (189.0, 10));
        // n = 11 still has one quantile with ten beyond; n = 10 has none.
        assert_eq!(tail(&scrambled(11), 0.99).unwrap().value, 1.0);
        assert_eq!(tail(&scrambled(10), 0.99), None);
    }

    #[test]
    fn windowed_tail_is_the_median_of_window_quantiles() {
        // Four windows of 1..=1000; the third is a burst, ten times slower.
        let mut samples = Vec::new();
        for w in 0..4 {
            let scale = if w == 2 { 10.0 } else { 1.0 };
            samples.extend((1..=1000).map(|i| f64::from(i) * scale));
        }
        // p99 of each window is rank 990 with ten beyond: 990, 990, 9900,
        // 990; their lower median is 990.  The whole run's p99 would sit
        // inside the burst.
        let q = windowed_tail(&samples, 0.99, 4).unwrap();
        assert_eq!(
            (q.value, q.windows, q.min_window, q.n),
            (990.0, 4, 1000, 4000)
        );
        assert!(tail(&sorted(samples.clone()), 0.99).unwrap().value > 990.0);
        // Allowing more windows cannot make one too small for ten beyond:
        // 4000 samples leave room for exactly four 1000-sample windows.
        assert_eq!(windowed_tail(&samples, 0.99, 10).unwrap().windows, 4);
        // p95 needs 200 per window: 4000 samples allow ten (capped).
        assert_eq!(windowed_tail(&samples, 0.95, 10).unwrap().windows, 10);
        // Too few for even one window with ten beyond the p99.
        assert_eq!(windowed_tail(&samples[..1000], 0.99, 4).unwrap().windows, 1);
        assert_eq!(windowed_tail(&samples[..999], 0.99, 4), None);
    }
}
