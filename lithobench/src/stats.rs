//! Order statistics over measured samples.

/// The Harrell–Davis estimate of the `q`-quantile (`0 < q < 1`): the mean
/// of all order statistics weighted by a Beta(q(n+1), (1−q)(n+1))
/// density. It reads every sample rather than one or two order
/// statistics, so a tail quantile of a few hundred latencies moves less
/// from run to run than the plain order statistic. `NaN` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(f64::NAN);
    }
    let a = q * (n + 1) as f64;
    let b = (1.0 - q) * (n + 1) as f64;
    // Beta weight of order statistic i: the density's mass over
    // [i/n, (i+1)/n], by a midpoint rule in log space.
    const STEPS: usize = 32;
    let m = (n * STEPS) as f64;
    let log_density = |j: usize| {
        let x = (j as f64 + 0.5) / m;
        (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
    };
    let peak = (0..n * STEPS)
        .map(log_density)
        .fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for j in 0..n * STEPS {
        weights[j / STEPS] += (log_density(j) - peak).exp();
    }
    let total: f64 = weights.iter().sum();
    weights.iter().zip(&sorted).map(|(w, x)| w * x).sum::<f64>() / total
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// Median wall time of `reps` calls of `f`, in seconds.
pub fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let start = std::time::Instant::now();
            f();
            start.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_follow_the_samples() {
        let xs: Vec<f64> = (1..=101).map(f64::from).rev().collect();
        assert!((median(&xs) - 51.0).abs() < 1e-6);
        let p95 = quantile(&xs, 0.95);
        assert!((94.0..=97.0).contains(&p95), "{p95}");
        assert_eq!(median(&[3.0]), 3.0);
        assert!(median(&[]).is_nan());
    }
}
