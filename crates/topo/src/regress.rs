//! Least-squares regression and basic statistics for model extraction.
//!
//! The paper's benchmark procedure (§IV-A) fits straight lines to two
//! sample families and reads model parameters off the fit:
//!
//! * `O_ij` — intercept of transmission time vs message size (the Hockney
//!   startup-cost estimate), over sizes `1 … 2^20` bytes, 25 repetitions
//!   per sample point;
//! * `L_ij` — gradient of completion time vs number of simultaneous
//!   messages, over 1 … 32 messages, 25 repetitions per point.

/// Result of an ordinary least-squares line fit `y ≈ intercept + slope · x`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LineFit {
    pub intercept: f64,
    pub slope: f64,
    /// Coefficient of determination (1 for a perfect fit; 0 when the fit
    /// explains nothing; can be negative only for degenerate inputs).
    pub r_squared: f64,
}

/// Fits a least-squares line through `(x, y)` points.
///
/// # Panics
/// Panics if fewer than two points are given or all `x` are identical.
pub fn least_squares(points: &[(f64, f64)]) -> LineFit {
    assert!(
        points.len() >= 2,
        "need at least two points, got {}",
        points.len()
    );
    let n = points.len() as f64;
    let mean_x = points.iter().map(|p| p.0).sum::<f64>() / n;
    let mean_y = points.iter().map(|p| p.1).sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for &(x, y) in points {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "all x values are identical; cannot fit a line");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LineFit {
        intercept,
        slope,
        r_squared,
    }
}

/// Median of `values`, sorting them in place; even counts average the two
/// middle elements.
///
/// # Panics
/// Panics on an empty slice or NaN values.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("finite measurement"));
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// The benchmark message sizes of §IV-A: powers of two from 1 to 2^20 bytes.
pub fn hockney_message_sizes() -> Vec<usize> {
    (0..=20).map(|e| 1usize << e).collect()
}

/// Extracts the Hockney startup estimate (`O_ij`) from
/// `(size_bytes, seconds)` samples: the intercept of the least-squares fit,
/// clamped at zero (noise can push a tiny intercept negative).
pub fn hockney_intercept(samples: &[(f64, f64)]) -> f64 {
    least_squares(samples).intercept.max(0.0)
}

/// Extracts the marginal message latency (`L_ij`) from
/// `(message_count, seconds)` samples: the gradient of the fit, clamped at
/// zero.
pub fn latency_gradient(samples: &[(f64, f64)]) -> f64 {
    least_squares(samples).slope.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_recovered() {
        let pts: Vec<(f64, f64)> = (0..10).map(|x| (x as f64, 3.0 + 2.0 * x as f64)).collect();
        let fit = least_squares(&pts);
        assert!((fit.intercept - 3.0).abs() < 1e-12);
        assert!((fit.slope - 2.0).abs() < 1e-12);
        assert!((fit.r_squared - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_recovered_approximately() {
        // Symmetric noise: alternate ±0.5 around y = 1 + 0.1 x.
        let pts: Vec<(f64, f64)> = (0..100)
            .map(|x| {
                let noise = if x % 2 == 0 { 0.5 } else { -0.5 };
                (x as f64, 1.0 + 0.1 * x as f64 + noise)
            })
            .collect();
        let fit = least_squares(&pts);
        assert!((fit.intercept - 1.0).abs() < 0.2, "{fit:?}");
        assert!((fit.slope - 0.1).abs() < 0.01, "{fit:?}");
        assert!(fit.r_squared > 0.8);
    }

    #[test]
    fn flat_data_has_zero_slope() {
        let pts: Vec<(f64, f64)> = (0..5).map(|x| (x as f64, 7.0)).collect();
        let fit = least_squares(&pts);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 7.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_panics() {
        least_squares(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn vertical_data_panics() {
        least_squares(&[(1.0, 1.0), (1.0, 2.0)]);
    }

    #[test]
    fn statistics_basics() {
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [7.5]), 7.5);
    }

    #[test]
    fn benchmark_schedules_match_paper() {
        let sizes = hockney_message_sizes();
        assert_eq!(sizes.first(), Some(&1));
        assert_eq!(sizes.last(), Some(&(1 << 20)));
        assert_eq!(sizes.len(), 21);
    }

    #[test]
    fn extraction_clamps_negative_estimates() {
        // A steeply negative intercept (non-physical) clamps to zero.
        let pts = [(1.0, 0.0), (2.0, 10.0), (3.0, 20.0)];
        assert_eq!(hockney_intercept(&pts), 0.0);
        // A negative slope clamps to zero.
        let pts2 = [(1.0, 5.0), (2.0, 4.0), (3.0, 3.0)];
        assert_eq!(latency_gradient(&pts2), 0.0);
    }

    #[test]
    fn hockney_extraction_on_synthetic_pingpong() {
        // t(s) = 50 µs + s · 9 ns: intercept recovers the 50 µs startup.
        let pts: Vec<(f64, f64)> = hockney_message_sizes()
            .iter()
            .map(|&s| (s as f64, 50e-6 + s as f64 * 9e-9))
            .collect();
        let o = hockney_intercept(&pts);
        assert!((o - 50e-6).abs() < 1e-9, "{o}");
    }
}
