//! The benchmark's own statistics.
//!
//! Deliberately not `hbar-stats`: a later PR that touches that crate must
//! not be able to move the yardstick it is measured with.

/// Sorted copy of `xs`.
///
/// # Panics
/// Panics on NaN: every sample here is a measured duration or count.
fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_unstable_by(|a, b| a.partial_cmp(b).expect("samples are never NaN"));
    v
}

/// Median; 0 for an empty sample (a metric that does not apply).
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Mean; 0 for an empty sample.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Mean of `f` over `items`.
pub fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

/// Median of `f` over `items`.
pub fn median_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&items.iter().map(f).collect::<Vec<_>>())
}

/// Mean of what is left after dropping `floor(n / 10)` samples from each
/// tail. The location estimate of the end-to-end timings: a cold episode's
/// work depends on its noise seed (45 to 65 measurements), so per-episode
/// times come in lumps and a median jumps between them from run to run,
/// while a plain mean follows every scheduler stall of a small host.
pub fn trimmed_mean(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let cut = v.len() / 10;
    mean(&v[cut..v.len() - cut])
}

/// Nearest-rank `q`-quantile (`0 < q <= 1`); 0 for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The quartiles as Python's `statistics.quantiles(xs, n=4)` computes them
/// (the "exclusive" method), which is what the acceptance spread is
/// defined on. `None` below two samples.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median: the run-to-run spread
/// `compare` holds against a metric's bound. `None` below two samples or
/// for a zero median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, _, q3] = quartiles(xs)?;
    let m = median(xs);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_mean() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_from_each_tail() {
        // Below ten samples nothing is trimmed.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), 4.0);
        let mut xs: Vec<f64> = (1..=10).map(f64::from).collect();
        xs[9] = 1000.0; // one stall
        assert_eq!(trimmed_mean(&xs), mean(&xs[1..9]));
    }

    #[test]
    fn nearest_rank_quantile() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&xs, 0.5), 50.0);
        assert_eq!(quantile(&xs, 0.99), 99.0);
        assert_eq!(quantile(&xs, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[10.0, 40.0, 20.0]), Some([10.0, 20.0, 40.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&xs), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }
}
