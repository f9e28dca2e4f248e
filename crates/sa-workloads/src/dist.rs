//! Value distributions for synthetic sub-streams.
//!
//! Implemented locally (Box–Muller for the normal, Knuth/normal
//! approximation for the Poisson, exponentiation for the log-normal) to
//! keep the dependency set to the plain `rand` core.

use rand::Rng;

/// A value distribution a sub-stream draws its items from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Distribution {
    /// Normal distribution with the given mean and standard deviation —
    /// the paper's Gaussian microbenchmark streams (§5.1).
    Gaussian {
        /// Mean `µ`.
        mean: f64,
        /// Standard deviation `σ` (must be non-negative).
        std_dev: f64,
    },
    /// Poisson distribution with the given rate — the paper's Poisson
    /// microbenchmark streams, including the extreme `λ = 10⁸` sub-stream
    /// (§5.1).
    Poisson {
        /// Rate `λ` (must be positive).
        lambda: f64,
    },
    /// Log-normal distribution (of the underlying normal's parameters) —
    /// used for heavy-tailed flow sizes and trip distances in the case
    /// studies.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Uniform over `[low, high)`.
    Uniform {
        /// Inclusive lower bound.
        low: f64,
        /// Exclusive upper bound.
        high: f64,
    },
}

impl Distribution {
    /// Draws one value.
    ///
    /// # Panics
    ///
    /// Panics if the distribution's parameters are invalid (negative
    /// `std_dev`, non-positive `lambda`, or `high <= low`).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Distribution::Gaussian { mean, std_dev } => {
                assert!(std_dev >= 0.0, "standard deviation must be non-negative");
                mean + std_dev * standard_normal(rng)
            }
            Distribution::Poisson { lambda } => {
                assert!(lambda > 0.0, "lambda must be positive");
                poisson(rng, lambda)
            }
            Distribution::LogNormal { mu, sigma } => {
                assert!(sigma >= 0.0, "sigma must be non-negative");
                (mu + sigma * standard_normal(rng)).exp()
            }
            Distribution::Uniform { low, high } => {
                assert!(high > low, "uniform bounds must satisfy low < high");
                rng.gen_range(low..high)
            }
        }
    }

    /// The distribution's true mean — the analytic ground truth the
    /// accuracy experiments compare against.
    pub fn mean(&self) -> f64 {
        match *self {
            Distribution::Gaussian { mean, .. } => mean,
            Distribution::Poisson { lambda } => lambda,
            Distribution::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            Distribution::Uniform { low, high } => (low + high) / 2.0,
        }
    }
}

/// A standard normal draw via Box–Muller (one of the pair is discarded;
/// simplicity over squeezing both out).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if u1 > f64::MIN_POSITIVE {
            let u2: f64 = rng.gen();
            return (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        }
    }
}

/// A Poisson draw: Knuth's product method for small `λ`, the (rounded,
/// clamped) normal approximation for large `λ` — with `λ = 10⁸` in the
/// paper's setup, exact methods are both pointless and slow.
fn poisson<R: Rng + ?Sized>(rng: &mut R, lambda: f64) -> f64 {
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen::<f64>();
            if p <= l {
                return k as f64;
            }
            k += 1;
        }
    } else {
        let draw = lambda + lambda.sqrt() * standard_normal(rng);
        draw.round().max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> SmallRng {
        SmallRng::seed_from_u64(seed)
    }

    fn sample_stats(dist: Distribution, n: usize, seed: u64) -> (f64, f64) {
        let mut g = rng(seed);
        let xs: Vec<f64> = (0..n).map(|_| dist.sample(&mut g)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        (mean, var)
    }

    #[test]
    fn gaussian_matches_parameters() {
        let (mean, var) = sample_stats(
            Distribution::Gaussian {
                mean: 1_000.0,
                std_dev: 50.0,
            },
            50_000,
            1,
        );
        assert!((mean - 1_000.0).abs() < 2.0, "mean {mean}");
        assert!((var.sqrt() - 50.0).abs() < 2.0, "std {}", var.sqrt());
    }

    #[test]
    fn poisson_small_lambda_matches_moments() {
        let (mean, var) = sample_stats(Distribution::Poisson { lambda: 10.0 }, 50_000, 2);
        assert!((mean - 10.0).abs() < 0.2, "mean {mean}");
        assert!((var - 10.0).abs() < 0.5, "var {var}");
    }

    #[test]
    fn poisson_large_lambda_uses_normal_regime() {
        let (mean, var) = sample_stats(
            Distribution::Poisson {
                lambda: 100_000_000.0,
            },
            20_000,
            3,
        );
        assert!((mean - 1e8).abs() / 1e8 < 1e-4, "mean {mean}");
        assert!((var - 1e8).abs() / 1e8 < 0.05, "var {var}");
    }

    #[test]
    fn poisson_is_integral_and_nonnegative() {
        let mut g = rng(4);
        for &lambda in &[0.5, 5.0, 29.9, 30.1, 1_000.0] {
            let d = Distribution::Poisson { lambda };
            for _ in 0..200 {
                let x = d.sample(&mut g);
                assert!(x >= 0.0);
                assert_eq!(x, x.round());
            }
        }
    }

    #[test]
    fn lognormal_mean_matches_formula() {
        let d = Distribution::LogNormal {
            mu: 1.0,
            sigma: 0.5,
        };
        let (mean, _) = sample_stats(d, 100_000, 5);
        assert!((mean - d.mean()).abs() / d.mean() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_stays_in_bounds() {
        let mut g = rng(6);
        let d = Distribution::Uniform {
            low: 2.0,
            high: 5.0,
        };
        for _ in 0..10_000 {
            let x = d.sample(&mut g);
            assert!((2.0..5.0).contains(&x));
        }
        assert_eq!(d.mean(), 3.5);
    }

    #[test]
    fn analytic_means() {
        assert_eq!(
            Distribution::Gaussian {
                mean: 7.0,
                std_dev: 2.0
            }
            .mean(),
            7.0
        );
        assert_eq!(Distribution::Poisson { lambda: 42.0 }.mean(), 42.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be positive")]
    fn zero_lambda_rejected() {
        let mut g = rng(7);
        let _ = Distribution::Poisson { lambda: 0.0 }.sample(&mut g);
    }
}
