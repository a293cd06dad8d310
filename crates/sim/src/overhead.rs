//! Per-task execution-overhead models.
//!
//! The analytic framework deliberately ignores framework overhead; real
//! systems do not. The paper's own measurements show the consequences:
//! Spark's scheduling overhead bends the Fig 2 experimental curve away
//! from the model at larger `n`, and in Fig 4 "execution overhead takes
//! over with larger number of workers". The simulator injects these
//! effects through an [`OverheadModel`] sampled once per worker-task.

use mlscale_core::units::Seconds;
use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};

/// A distribution of per-task overhead added to each worker's compute
/// phase in every superstep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OverheadModel {
    /// No overhead: the simulator reproduces the analytic model exactly.
    None,
    /// Fixed per-task cost (e.g. task deserialisation).
    Constant {
        /// The fixed cost in seconds.
        seconds: f64,
    },
    /// Exponentially distributed delay with the given mean — a generic
    /// scheduling-jitter model.
    Exponential {
        /// Mean delay in seconds.
        mean: f64,
    },
    /// Log-normal delay (heavy-tailed stragglers), parameterised by the
    /// underlying normal's `mu`/`sigma` (seconds are `exp(N(mu, sigma))`).
    LogNormal {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal.
        sigma: f64,
    },
    /// Overhead growing linearly with the worker count:
    /// `base + per_worker·(n − 1)` seconds — the contention /
    /// synchronisation cost that dominates the Fig 4 experiment at high
    /// worker counts (GraphLab lock and scheduling pressure).
    PerWorkerLinear {
        /// Cost at `n = 1`.
        base: f64,
        /// Additional cost per extra worker.
        per_worker: f64,
    },
    /// Sum of a constant and an exponential component: a fixed scheduling
    /// cost plus jitter — a good stand-in for Spark task launch.
    ConstantPlusJitter {
        /// Fixed component in seconds.
        seconds: f64,
        /// Mean of the jitter component in seconds.
        jitter_mean: f64,
    },
}

impl OverheadModel {
    /// Samples the overhead for one task on a cluster of `n` workers.
    pub fn sample<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Seconds {
        match *self {
            OverheadModel::None => Seconds::zero(),
            OverheadModel::Constant { seconds } => Seconds::new(seconds),
            OverheadModel::Exponential { mean } => {
                if mean == 0.0 {
                    return Seconds::zero();
                }
                // lint: allow(panic-free-lib): mean == 0 returned early above and spec validation rejects negative means
                let d = Exp::new(1.0 / mean).expect("mean must be positive");
                Seconds::new(d.sample(rng))
            }
            OverheadModel::LogNormal { mu, sigma } => {
                // lint: allow(panic-free-lib): spec validation rejects negative sigma before a LogNormal model is built
                let d = LogNormal::new(mu, sigma).expect("sigma must be non-negative");
                Seconds::new(d.sample(rng))
            }
            OverheadModel::PerWorkerLinear { base, per_worker } => {
                Seconds::new(base + per_worker * (n as f64 - 1.0))
            }
            OverheadModel::ConstantPlusJitter {
                seconds,
                jitter_mean,
            } => {
                let jitter = OverheadModel::Exponential { mean: jitter_mean }.sample(n, rng);
                Seconds::new(seconds) + jitter
            }
        }
    }

    /// Expected overhead for one task at `n` workers (used by tests and
    /// calibration).
    pub fn mean(&self, n: usize) -> Seconds {
        match *self {
            OverheadModel::None => Seconds::zero(),
            OverheadModel::Constant { seconds } => Seconds::new(seconds),
            OverheadModel::Exponential { mean } => Seconds::new(mean),
            OverheadModel::LogNormal { mu, sigma } => {
                Seconds::new((mu + sigma * sigma / 2.0).exp())
            }
            OverheadModel::PerWorkerLinear { base, per_worker } => {
                Seconds::new(base + per_worker * (n as f64 - 1.0))
            }
            OverheadModel::ConstantPlusJitter {
                seconds,
                jitter_mean,
            } => Seconds::new(seconds + jitter_mean),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(31)
    }

    fn empirical_mean(model: OverheadModel, n: usize, samples: usize) -> f64 {
        let mut r = rng();
        (0..samples)
            .map(|_| model.sample(n, &mut r).as_secs())
            .sum::<f64>()
            / samples as f64
    }

    #[test]
    fn none_is_zero() {
        assert!(OverheadModel::None.sample(8, &mut rng()).is_zero());
        assert!(OverheadModel::None.mean(8).is_zero());
    }

    #[test]
    fn constant_is_exact() {
        let m = OverheadModel::Constant { seconds: 0.05 };
        assert_eq!(m.sample(4, &mut rng()).as_secs(), 0.05);
        assert_eq!(m.mean(4).as_secs(), 0.05);
    }

    #[test]
    fn exponential_mean_matches() {
        let m = OverheadModel::Exponential { mean: 0.2 };
        let emp = empirical_mean(m, 4, 20_000);
        assert!((emp - 0.2).abs() < 0.01, "empirical mean {emp}");
    }

    #[test]
    fn lognormal_mean_matches_closed_form() {
        let m = OverheadModel::LogNormal {
            mu: -3.0,
            sigma: 0.5,
        };
        let expected = (-3.0f64 + 0.125).exp();
        let emp = empirical_mean(m, 4, 50_000);
        assert!(
            (emp - expected).abs() / expected < 0.05,
            "empirical {emp} vs {expected}"
        );
        assert!((m.mean(4).as_secs() - expected).abs() < 1e-12);
    }

    #[test]
    fn per_worker_linear_grows() {
        let m = OverheadModel::PerWorkerLinear {
            base: 0.01,
            per_worker: 0.002,
        };
        assert_eq!(m.sample(1, &mut rng()).as_secs(), 0.01);
        assert!((m.sample(11, &mut rng()).as_secs() - 0.03).abs() < 1e-12);
        assert!(m.mean(80) > m.mean(8));
    }

    #[test]
    fn jitter_mean_is_sum() {
        let m = OverheadModel::ConstantPlusJitter {
            seconds: 0.1,
            jitter_mean: 0.05,
        };
        assert!((m.mean(2).as_secs() - 0.15).abs() < 1e-12);
        let emp = empirical_mean(m, 2, 20_000);
        assert!((emp - 0.15).abs() < 0.01);
        // Samples never go below the constant floor.
        let mut r = rng();
        for _ in 0..100 {
            assert!(m.sample(2, &mut r).as_secs() >= 0.1);
        }
    }

    #[test]
    fn zero_mean_exponential_is_zero() {
        let m = OverheadModel::Exponential { mean: 0.0 };
        assert!(m.sample(3, &mut rng()).is_zero());
    }
}
