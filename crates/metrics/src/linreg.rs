//! Least-squares line fitting — the *expensive* linearity test FedSU
//! avoids at runtime, used here to validate the cheap oscillation-ratio
//! diagnosis and to annotate trajectory figures.

/// Result of fitting `y ≈ slope·x + intercept`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination (1.0 = perfectly linear).
    pub r_squared: f64,
}

/// Fits a line to `values` against their indices `0..n`.
///
/// Returns `None` for fewer than 2 points. A constant series fits
/// perfectly (`slope = 0`, `r_squared = 1`).
pub fn linear_fit(values: &[f32]) -> Option<LinearFit> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = (nf - 1.0) / 2.0;
    let mean_y = values.iter().map(|&v| f64::from(v)).sum::<f64>() / nf;
    let mut sxx = 0.0f64;
    let mut sxy = 0.0f64;
    let mut syy = 0.0f64;
    for (i, &y) in values.iter().enumerate() {
        let dx = i as f64 - mean_x;
        let dy = f64::from(y) - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r_squared = if syy == 0.0 { 1.0 } else { (sxy * sxy) / (sxx * syy) };
    Some(LinearFit { slope, intercept, r_squared })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_line_fits_exactly() {
        let values: Vec<f32> = (0..10).map(|i| 2.0 * i as f32 + 1.0).collect();
        let fit = linear_fit(&values).unwrap();
        assert!((fit.slope - 2.0).abs() < 1e-9);
        assert!((fit.intercept - 1.0).abs() < 1e-9);
        assert!((fit.r_squared - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_series_is_linear() {
        let fit = linear_fit(&[3.0; 5]).unwrap();
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.r_squared, 1.0);
    }

    #[test]
    fn quadratic_has_lower_r_squared_than_line() {
        let quad: Vec<f32> = (0..20).map(|i| (i * i) as f32).collect();
        let line: Vec<f32> = (0..20).map(|i| i as f32).collect();
        let fq = linear_fit(&quad).unwrap();
        let fl = linear_fit(&line).unwrap();
        assert!(fq.r_squared < fl.r_squared);
        assert!(fq.r_squared < 0.99);
    }

    #[test]
    fn too_few_points_returns_none() {
        assert!(linear_fit(&[]).is_none());
        assert!(linear_fit(&[1.0]).is_none());
    }

    #[test]
    fn noisy_line_still_high_r_squared() {
        let values: Vec<f32> = (0..50)
            .map(|i| -0.01 * i as f32 + 0.0005 * ((i as f32 * 3.7).sin()))
            .collect();
        let fit = linear_fit(&values).unwrap();
        assert!(fit.r_squared > 0.98, "r² {}", fit.r_squared);
    }
}
