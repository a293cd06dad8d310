//! Straggler-aware stochastic runtime models: order statistics of the BSP
//! barrier.
//!
//! The paper's framework assumes every superstep ends exactly when its
//! deterministic `t_cp + t_cm` terms say it does. On real clusters the
//! synchronisation barrier is paced by the *slowest* worker: per-task
//! jitter, heavy-tailed stragglers and mixed hardware generations all bend
//! the speedup curve downward precisely where the optimal-`n` answer
//! lives, because the expected maximum of `n` draws *grows* with `n` while
//! the per-worker compute share shrinks.
//!
//! This module provides the analytic twin of the stochastic simulator in
//! `mlscale-sim`:
//!
//! * [`StragglerModel`] — per-worker delay distributions (deterministic,
//!   bounded jitter, exponential and log-normal tails) with closed-form or
//!   quadrature-exact expected order statistics: `E[max of n]` is
//!   `mean·H_n` for exponential tails (harmonic numbers, exact),
//!   `spread·n/(n+1)` for bounded jitter (exact), and a
//!   Gauss-quadrature-free deterministic integration of the order-statistic
//!   survival function for log-normal tails and heterogeneous clusters;
//! * [`StragglerModel::expected_order_stats`] — the one evaluator of
//!   `E[(n−k)-th of n delays]`, over any strictly ascending list of `n`:
//!   exact forms below each tail's asymptotic crossover, extreme-value
//!   forms above it, and [`StragglerModel::expected_order_stat`] is a
//!   batch of one;
//! * [`OrderStatCache`] — the one memo of those values. Every straggler
//!   curve and planner fills the cache it is given with the keys it lacks
//!   and reads the rest, so a sweep's planner reuses what its curve
//!   computed;
//! * [`StragglerModel::expected_barrier`] — the expected barrier time
//!   `E[(n−k)-th order statistic of {b_i + X_i}]` over per-worker base
//!   times `b_i` with the *drop-slowest-k* (backup worker / speculative
//!   execution) mitigation. The models hand it the bases as
//!   `(base, count)` runs of equal neighbours in worker order, built from
//!   [`Heterogeneity::speed_runs`]: a uniform cluster is one run, priced
//!   as `base + E[(n−k)-th of n]` from the memo at O(1) cost in `n`, and
//!   a heterogeneous one pays one delay CDF per run per quadrature step;
//! * [`StragglerGdModel`] / [`StragglerGraphModel`] — composition with the
//!   paper's two algorithm models, yielding *expected* iteration times,
//!   speedup curves, and [`Planner`]s that optimise expected time/cost.
//!
//! At zero jitter on a homogeneous cluster every expected quantity
//! degenerates **bit-identically** to the deterministic model, so the
//! paper's Fig 1/Fig 2 optima (14/9) are reproduced exactly.

use crate::hardware::{merged_runs, Heterogeneity};
use crate::models::gd::GradientDescentModel;
use crate::models::graphinf::GraphInferenceModel;
use crate::par;
use crate::planner::{Planner, Pricing};
use crate::speedup::{log_spaced_ns, SpeedupCurve, DENSE_EVAL_MAX_N};
use crate::units::Seconds;
use rand::Rng;
use rand_distr::{Distribution, Exp, LogNormal};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Distribution of the per-worker, per-superstep straggler delay added on
/// top of a worker's deterministic compute time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerModel {
    /// No stochastic delay: the paper's deterministic framework.
    Deterministic,
    /// Uniform jitter on `[0, spread]` seconds — bounded OS/scheduling
    /// noise. `E[max of n] = spread·n/(n+1)` (exact).
    BoundedJitter {
        /// Width of the jitter window in seconds.
        spread: f64,
    },
    /// Exponential delay with the given mean — memoryless scheduling
    /// jitter. `E[max of n] = mean·H_n` with `H_n` the n-th harmonic
    /// number (exact), and `E[(n−k)-th order stat] = mean·(H_n − H_k)`.
    ExponentialTail {
        /// Mean delay in seconds.
        mean: f64,
    },
    /// Log-normal delay `exp(N(mu, sigma²))` — the heavy-tailed straggler
    /// regime observed in production traces. Expected order statistics are
    /// computed by deterministic quadrature in the underlying normal's
    /// `z`-space (no sampling).
    LogNormalTail {
        /// Location of the underlying normal.
        mu: f64,
        /// Scale of the underlying normal (tail weight).
        sigma: f64,
    },
}

/// Standard normal CDF via the Abramowitz–Stegun 7.1.26 erf expansion
/// (|error| < 1.5·10⁻⁷, monotone — ample for 5 %-level cross-validation).
fn normal_cdf(z: f64) -> f64 {
    let x = z / std::f64::consts::SQRT_2;
    let (sign, x) = if x < 0.0 { (-1.0, -x) } else { (1.0, x) };
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    let erf = 1.0 - poly * (-x * x).exp();
    0.5 * (1.0 + sign * erf)
}

/// Term count up to which [`HarmonicSum`] accumulates with the plain
/// forward sum. Every `H_j` with `j ≤ 64` — which covers all worker
/// counts the checked-in golden fixtures exercise — is bit-identical to
/// the uncompensated sum those fixtures were generated with; beyond the
/// cutoff Kahan compensation takes over so the large-`j` tail (ROADMAP
/// item 2's large-n ceilings) stops accumulating rounding error.
const HARMONIC_KAHAN_CUTOFF: usize = 64;

/// Incremental harmonic-number accumulator: after `push()` has been
/// called `j` times, `value()` is `H_j = Σ_{i=1..j} 1/i` (`H_0 = 0`).
///
/// Both [`harmonic`] and the running sum in
/// [`StragglerModel::expected_order_stats`] are built on this one
/// accumulator, so every batch entry is bit-identical to a batch of one
/// by construction at every `j`.
#[derive(Clone, Copy)]
struct HarmonicSum {
    j: usize,
    sum: f64,
    comp: f64,
}

impl HarmonicSum {
    fn new() -> Self {
        Self {
            j: 0,
            sum: 0.0,
            comp: 0.0,
        }
    }

    /// Adds the next term `1/(j+1)`.
    fn push(&mut self) {
        self.j += 1;
        let term = 1.0 / self.j as f64;
        if self.j <= HARMONIC_KAHAN_CUTOFF {
            self.sum += term;
        } else {
            let y = term - self.comp;
            let t = self.sum + y;
            self.comp = (t - self.sum) - y;
            self.sum = t;
        }
    }

    fn value(&self) -> f64 {
        self.sum
    }
}

/// `H_j = Σ_{i=1..j} 1/i`, the j-th harmonic number (`H_0 = 0`), summed
/// with Kahan compensation past [`HARMONIC_KAHAN_CUTOFF`] terms so the
/// absolute error stays within a few ulps even at `j = 10⁶`.
fn harmonic(j: usize) -> f64 {
    let mut h = HarmonicSum::new();
    for _ in 0..j {
        h.push();
    }
    h.value()
}

/// Term count above which `harmonic_any` switches from the summed
/// `harmonic` to the asymptotic expansion — the exponential tail's
/// extreme-value crossover. At the crossover the expansion's truncation
/// error is ~`1/(120·j⁴)` ≈ 1e-19 **relative to `H_j ≈ 9.8`**, far
/// below the summed form's own accumulated rounding, so the two regimes
/// agree to ≲1e-15 relative where they meet; below it every value is
/// bit-identical to the historical summed path.
pub const EXP_ASYMPTOTIC_MIN_N: usize = 10_000;

/// `H_j` by the Euler–Maclaurin expansion
/// `ln j + γ + 1/(2j) − 1/(12j²) + 1/(120j⁴) + O(j⁻⁶)` — O(1) instead
/// of O(j), with truncation error < 1e-25 absolute for `j > 10⁴`.
fn harmonic_asymptotic(j: usize) -> f64 {
    let x = j as f64;
    let x2 = x * x;
    x.ln() + EULER_GAMMA + 1.0 / (2.0 * x) - 1.0 / (12.0 * x2) + 1.0 / (120.0 * x2 * x2)
}

/// `H_j` through the crossover: the exact sum up to
/// [`EXP_ASYMPTOTIC_MIN_N`] terms (bit-identical to every value the
/// golden fixtures were generated with), the asymptotic expansion above.
fn harmonic_any(j: usize) -> f64 {
    if j <= EXP_ASYMPTOTIC_MIN_N {
        harmonic(j)
    } else {
        harmonic_asymptotic(j)
    }
}

/// Survival function `1 − Φ(z)` of the standard normal, computed from
/// the same Abramowitz–Stegun 7.1.26 expansion as [`normal_cdf`] but
/// *directly* for `z ≥ 0` — `0.5·poly(t)·e^{−x²}` — so `ln(1 − Φ(z))`
/// at large `z` never passes through the catastrophic `1 − (≈1)`
/// cancellation. Only the extreme-value asymptotic paths use it; the
/// exact grid keeps the historical `1 − Φ` arithmetic bit-for-bit.
fn normal_sf(z: f64) -> f64 {
    if z < 0.0 {
        return 1.0 - normal_cdf(z);
    }
    let x = z / std::f64::consts::SQRT_2;
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let poly = t
        * (0.254_829_592
            + t * (-0.284_496_736
                + t * (1.421_413_741 + t * (-1.453_152_027 + t * 1.061_405_429))));
    0.5 * poly * (-x * x).exp()
}

/// The Euler–Mascheroni constant γ — the Gumbel limit's mean, and the
/// constant term of the harmonic asymptotic `H_j = ln j + γ + …`.
const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;

/// `ln Γ(x)` for `x ≥ 1` via the Lanczos approximation (g = 7, 9 terms;
/// relative error < 1e-13 on this range). Used to keep the
/// order-statistic coefficient `m·C(n, k)` in log-space, where
/// `C(10⁶, 5·10⁵)` is a perfectly ordinary number instead of an `inf`.
fn ln_gamma(x: f64) -> f64 {
    const COEF: [f64; 8] = [
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let z = x - 1.0;
    let mut a = 0.999_999_999_999_809_9;
    for (i, &c) in COEF.iter().enumerate() {
        a += c / (z + i as f64 + 1.0);
    }
    let t = z + 7.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (z + 0.5) * t.ln() - t + a.ln()
}

/// `ln(m·C(n, k))` with `m = n − k`: the order-statistic density
/// coefficient `Γ(n+1)/(Γ(m)·Γ(k+1))` in log-space.
fn ln_order_stat_coeff(n: usize, k: usize) -> f64 {
    let m = n - k;
    ln_gamma(n as f64 + 1.0) - ln_gamma(m as f64) - ln_gamma(k as f64 + 1.0)
}

/// Inverse standard normal CDF (Acklam's rational approximation,
/// relative error < 1.2e-9). Only the asymptotic regime's Gumbel
/// norming uses it; `p` must lie strictly inside `(0, 1)`.
fn inv_normal_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    assert!(
        p > 0.0 && p < 1.0,
        "quantile must be inside (0, 1), got {p}"
    );
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

/// The log-normal order-statistic quadrature grid, with the per-point
/// transcendentals (`Φ(z)`, `e^{μ+σz}`, `φ(z)`) evaluated once and shared
/// across every `(n, k)` the grid is queried for. The per-query Simpson
/// sum repeats the serial path's arithmetic operation for operation —
/// only the transcendental evaluations are hoisted — so each query is
/// bit-identical to an inline per-`n` integration.
struct LogNormalGrid {
    /// `Φ(z_i)` at each grid point.
    phi: Vec<f64>,
    /// `e^{μ+σ·z_i}` at each grid point.
    exp_term: Vec<f64>,
    /// Standard normal density `φ(z_i)` at each grid point.
    density: Vec<f64>,
    /// Simpson step width `h = (hi − lo)/steps`.
    h: f64,
}

impl LogNormalGrid {
    /// Grid cut-offs and step count exactly as the per-`n` quadrature:
    /// `z ∈ [−9, 10 + σ]`, 4000 composite-Simpson steps.
    fn new(mu: f64, sigma: f64) -> Self {
        let lo = -9.0f64;
        let hi = 10.0 + sigma;
        let steps = 4000usize; // even, for composite Simpson
        let h = (hi - lo) / steps as f64;
        // Endpoints use the literal bounds (not lo + steps·h) so the grid
        // values match the serial integrand's arguments bit for bit.
        let zs: Vec<f64> = (0..=steps)
            .map(|i| {
                if i == 0 {
                    lo
                } else if i == steps {
                    hi
                } else {
                    lo + i as f64 * h
                }
            })
            .collect();
        // The transcendental sweep stays serial: ~4000 points are far too
        // little work to pay for a thread spawn, and a batch of one
        // (`expected_order_stat`, a memo miss) builds a grid per call — it
        // must not allocate a thread team each time. The batch
        // parallelises across the per-`n` Simpson sums instead.
        let phi: Vec<f64> = zs.iter().map(|&z| normal_cdf(z)).collect();
        let exp_term: Vec<f64> = zs.iter().map(|&z| (mu + sigma * z).exp()).collect();
        let density: Vec<f64> = zs
            .iter()
            .map(|&z| (-z * z / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt())
            .collect();
        Self {
            phi,
            exp_term,
            density,
            h,
        }
    }

    /// `E[X_(m)] = coeff·∫ e^{mu+σz}·Φ(z)^{m−1}(1−Φ(z))^k φ(z) dz` with
    /// `m = n−k` and `coeff = m·C(n, k)` — the serial quadrature evaluated
    /// over the precomputed grid.
    ///
    /// Up to [`LOGNORMAL_COEFF_LOOP_MAX_N`] the coefficient is built by
    /// the historical multiplicative loop (bit-identical to every value
    /// the golden fixtures pin); past it `m·C(n, k)` can overflow f64
    /// (`C(1024, 512)·512` is already `inf`, and `inf·0` poisons the
    /// integrand with NaNs), so the whole integrand moves to log-space
    /// with a [`ln_gamma`]-based coefficient.
    fn expected_order_stat(&self, n: usize, k: usize) -> f64 {
        if n > LOGNORMAL_COEFF_LOOP_MAX_N {
            return self.expected_order_stat_log_coeff(n, k);
        }
        let m = n - k;
        let mut coeff = m as f64; // m · C(n, k)
        for j in 1..=k {
            coeff *= (n - j + 1) as f64 / j as f64;
        }
        let steps = self.phi.len() - 1;
        let integrand = |i: usize| {
            coeff
                * self.exp_term[i]
                * self.phi[i].powi(m as i32 - 1)
                * (1.0 - self.phi[i]).powi(k as i32)
                * self.density[i]
        };
        let mut sum = integrand(0) + integrand(steps);
        for i in 1..steps {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * integrand(i);
        }
        sum * self.h / 3.0
    }

    /// The same Simpson sum over the same grid with the integrand
    /// assembled in log-space:
    /// `exp(ln coeff + (m−1)·ln Φ + k·ln(1−Φ))·e^{μ+σz}·φ(z)` — finite
    /// for every `(n, k)` an usize can express. The `(m−1)·ln Φ` and
    /// `k·ln(1−Φ)` terms are skipped when their exponent is zero, so a
    /// grid endpoint with `Φ = 0` (or `1`) contributes 0 instead of
    /// `0·(−∞) = NaN`.
    fn expected_order_stat_log_coeff(&self, n: usize, k: usize) -> f64 {
        let m = n - k;
        let ln_coeff = ln_order_stat_coeff(n, k);
        let steps = self.phi.len() - 1;
        let integrand = |i: usize| {
            let mut ln_pow = ln_coeff;
            if m > 1 {
                if self.phi[i] <= 0.0 {
                    return 0.0;
                }
                ln_pow += (m as f64 - 1.0) * self.phi[i].ln();
            }
            if k > 0 {
                let sf = 1.0 - self.phi[i];
                if sf <= 0.0 {
                    return 0.0;
                }
                ln_pow += k as f64 * sf.ln();
            }
            ln_pow.exp() * self.exp_term[i] * self.density[i]
        };
        let mut sum = integrand(0) + integrand(steps);
        for i in 1..steps {
            let w = if i % 2 == 1 { 4.0 } else { 2.0 };
            sum += w * integrand(i);
        }
        sum * self.h / 3.0
    }
}

/// Largest `n` for which [`LogNormalGrid::expected_order_stat`] builds
/// the coefficient `m·C(n, k)` by the historical multiplicative loop.
/// `C(512, 256)·512 ≈ 2.4e155` still fits f64 with room to spare; one
/// doubling later `C(1024, 512)·512` overflows, so past this the
/// integrand is assembled in log-space instead.
const LOGNORMAL_COEFF_LOOP_MAX_N: usize = 512;

/// Worker count above which log-normal order statistics leave the
/// shared `z ∈ [−9, 10+σ]` grid for the extreme-value windowed
/// quadrature (`lognormal_order_stat_asymptotic`). At the crossover
/// both regimes integrate the same density — the property suite bounds
/// their relative disagreement below 1e-3 (measured: ≲1e-6) — and the
/// asymptotic side is O(1) in `n` where the fixed grid's resolution
/// around the ever-sharper order-statistic peak eventually runs out.
pub const LOGNORMAL_ASYMPTOTIC_MIN_N: usize = 8_192;

/// `E[X_(m) of n]` for `X = e^{μ+σZ}` at extreme `n` by Gumbel-normed
/// windowed quadrature.
///
/// Extreme-value theory norms the `m`-th smallest of `n` standard
/// normals as `Z_(m) ≈ b_n + a_n·G` with location
/// `b_n = Φ⁻¹(m/(n+1))` (the mean-rank quantile), scale
/// `a_n = s_u/φ(b_n)` (the Beta(m, k+1) rank std
/// `s_u = √(u(1−u)/(n+2))` pushed through the quantile map), and `G`
/// approximately Gumbel — to first order `E[Z_(m)] ≈ b_n + γ·a_n`.
/// Rather than stopping at first order, the exact order-statistic
/// density (log-space coefficient) is integrated over `b_n ± 30·a_n`
/// with 2048 composite-Simpson steps: the density is negligible outside
/// the window, so the result is quadrature-exact with O(1) cost in `n`
/// and a step width that *shrinks with the peak* instead of the fixed
/// grid's.
fn lognormal_order_stat_asymptotic(mu: f64, sigma: f64, n: usize, k: usize) -> f64 {
    let m = n - k;
    let nf = n as f64;
    let u_star = m as f64 / (nf + 1.0);
    // Above the median compute the quantile from the complementary rank
    // so Φ⁻¹'s argument never suffers 1 − (≈1) cancellation.
    let b_n = if u_star > 0.5 {
        -inv_normal_cdf((k as f64 + 1.0) / (nf + 1.0))
    } else {
        inv_normal_cdf(u_star)
    };
    let s_u = (u_star * (1.0 - u_star) / (nf + 2.0)).sqrt();
    let phi_b = (-b_n * b_n / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt();
    let a_n = s_u / phi_b;
    let half_width = 30.0 * a_n;
    let (lo, hi) = (b_n - half_width, b_n + half_width);
    let steps = 2048usize;
    let h = (hi - lo) / steps as f64;
    let ln_coeff = ln_order_stat_coeff(n, k);
    let ln_sqrt_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    let integrand = |z: f64| {
        let mut ln_f = ln_coeff + mu + sigma * z - z * z / 2.0 - ln_sqrt_2pi;
        if m > 1 {
            let cdf = normal_cdf(z);
            if cdf <= 0.0 {
                return 0.0;
            }
            ln_f += (m as f64 - 1.0) * cdf.ln();
        }
        if k > 0 {
            let sf = normal_sf(z);
            if sf <= 0.0 {
                return 0.0;
            }
            ln_f += k as f64 * sf.ln();
        }
        ln_f.exp()
    };
    let mut sum = integrand(lo) + integrand(hi);
    for i in 1..steps {
        let w = if i % 2 == 1 { 4.0 } else { 2.0 };
        sum += w * integrand(lo + i as f64 * h);
    }
    sum * h / 3.0
}

impl StragglerModel {
    /// Asserts the parameters are usable (finite, non-negative scales).
    fn assert_valid(&self) {
        match *self {
            StragglerModel::Deterministic => {}
            StragglerModel::BoundedJitter { spread } => {
                assert!(
                    spread.is_finite() && spread >= 0.0,
                    "jitter spread must be finite and non-negative, got {spread}"
                );
            }
            StragglerModel::ExponentialTail { mean } => {
                assert!(
                    mean.is_finite() && mean >= 0.0,
                    "exponential mean must be finite and non-negative, got {mean}"
                );
            }
            StragglerModel::LogNormalTail { mu, sigma } => {
                assert!(mu.is_finite(), "lognormal mu must be finite, got {mu}");
                assert!(
                    sigma.is_finite() && sigma >= 0.0,
                    "lognormal sigma must be finite and non-negative, got {sigma}"
                );
            }
        }
    }

    /// True when the delay is *identically zero* — the configuration that
    /// must reproduce the deterministic model bit-for-bit.
    pub fn is_zero(&self) -> bool {
        match *self {
            StragglerModel::Deterministic => true,
            StragglerModel::BoundedJitter { spread } => spread == 0.0,
            StragglerModel::ExponentialTail { mean } => mean == 0.0,
            StragglerModel::LogNormalTail { .. } => false,
        }
    }

    /// CDF of one delay draw, `P(X ≤ x)`.
    pub fn delay_cdf(&self, x: f64) -> f64 {
        match *self {
            StragglerModel::Deterministic => {
                if x >= 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            StragglerModel::BoundedJitter { spread } => {
                if spread == 0.0 {
                    if x >= 0.0 {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    (x / spread).clamp(0.0, 1.0)
                }
            }
            StragglerModel::ExponentialTail { mean } => {
                if x <= 0.0 {
                    0.0
                } else if mean == 0.0 {
                    1.0
                } else {
                    1.0 - (-x / mean).exp()
                }
            }
            StragglerModel::LogNormalTail { mu, sigma } => {
                if x <= 0.0 {
                    0.0
                } else if sigma == 0.0 {
                    if x.ln() >= mu {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    normal_cdf((x.ln() - mu) / sigma)
                }
            }
        }
    }

    /// Samples one delay. [`StragglerModel::Deterministic`] (and
    /// zero-scale parameterisations) consume no randomness, so existing
    /// seeded simulations are unchanged when stragglers are disabled.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.assert_valid();
        match *self {
            StragglerModel::Deterministic => 0.0,
            StragglerModel::BoundedJitter { spread } => {
                if spread == 0.0 {
                    0.0
                } else {
                    spread * rng.gen::<f64>()
                }
            }
            StragglerModel::ExponentialTail { mean } => {
                if mean == 0.0 {
                    0.0
                } else {
                    // lint: allow(panic-free-lib): StragglerModel validation rejects non-positive means before sampling
                    Exp::new(1.0 / mean).expect("validated").sample(rng)
                }
            }
            StragglerModel::LogNormalTail { mu, sigma } => {
                // lint: allow(panic-free-lib): StragglerModel validation rejects invalid sigma before sampling
                LogNormal::new(mu, sigma).expect("validated").sample(rng)
            }
        }
    }

    /// A delay value the maximum of `n` draws exceeds with negligible
    /// probability (< ~10⁻¹⁴) — the quadrature's upper cut-off.
    fn tail_bound(&self, n: usize) -> f64 {
        match *self {
            StragglerModel::Deterministic => 0.0,
            StragglerModel::BoundedJitter { spread } => spread,
            StragglerModel::ExponentialTail { mean } => mean * (34.5 + (n as f64).ln()),
            StragglerModel::LogNormalTail { mu, sigma } => (mu + sigma * 8.5).exp(),
        }
    }

    /// A delay value essentially no draw falls below — the quadrature's
    /// lower cut-off when the deterministic bases are zero.
    fn low_bound(&self) -> f64 {
        match *self {
            StragglerModel::Deterministic => 0.0,
            StragglerModel::BoundedJitter { spread } => spread * 1e-12,
            StragglerModel::ExponentialTail { mean } => mean * 1e-12,
            // Floored so the log-spaced grid always starts strictly above
            // zero even when the quantile underflows; the truncation error
            // is bounded by the cut-off itself.
            StragglerModel::LogNormalTail { mu, sigma } => (mu - sigma * 8.5).exp().max(1e-15),
        }
    }

    /// `E[max of n i.i.d. delay draws]` — the expected extra barrier cost
    /// stragglers add to an evenly loaded superstep on `n` homogeneous
    /// workers.
    pub fn expected_max(&self, n: usize) -> f64 {
        self.expected_order_stat(n, 0)
    }

    /// `E[(n−k)-th order statistic of n i.i.d. delay draws]` — the barrier
    /// cost when the slowest `k` workers are dropped (covered by backup
    /// workers). `k = 0` is the plain maximum. A batch of one through
    /// [`Self::expected_order_stats`].
    ///
    /// # Panics
    /// Panics when `n == 0` or `k >= n`.
    pub fn expected_order_stat(&self, n: usize, k: usize) -> f64 {
        self.assert_valid();
        assert!(n >= 1, "need at least one draw");
        assert!(k < n, "cannot drop all {n} workers (k = {k})");
        self.expected_order_stats(&[n], k)[0]
    }

    /// [`Self::expected_order_stat`] with the asymptotic crossover
    /// disabled: the summed-harmonic / shared-grid exact path at *any*
    /// `n` (the grid coefficient still moves to log-space past
    /// `LOGNORMAL_COEFF_LOOP_MAX_N` — overflow is a bug, not a
    /// regime). This is the reference the property suite measures the
    /// asymptotic regime against, up to n = 10⁵; it is O(n)
    /// for exponential tails and pays the full fixed-grid quadrature for
    /// log-normal ones, so hot paths should not call it.
    ///
    /// # Panics
    /// Panics when `n == 0` or `k >= n`.
    pub fn expected_order_stat_exact(&self, n: usize, k: usize) -> f64 {
        self.assert_valid();
        assert!(n >= 1, "need at least one draw");
        assert!(k < n, "cannot drop all {n} workers (k = {k})");
        match *self {
            StragglerModel::Deterministic => 0.0,
            StragglerModel::BoundedJitter { spread } => spread * (n - k) as f64 / (n as f64 + 1.0),
            StragglerModel::ExponentialTail { mean } => mean * (harmonic(n) - harmonic(k)),
            StragglerModel::LogNormalTail { mu, sigma } => {
                if sigma == 0.0 {
                    return mu.exp();
                }
                LogNormalGrid::new(mu, sigma).expected_order_stat(n, k)
            }
        }
    }

    /// The `n` above which [`Self::expected_order_stats`] switches to the
    /// extreme-value asymptotic regime, or `None` for the variants whose
    /// exact form is already O(1) (deterministic, bounded jitter).
    pub fn asymptotic_crossover(&self) -> Option<usize> {
        match *self {
            StragglerModel::Deterministic | StragglerModel::BoundedJitter { .. } => None,
            StragglerModel::ExponentialTail { .. } => Some(EXP_ASYMPTOTIC_MIN_N),
            StragglerModel::LogNormalTail { .. } => Some(LOGNORMAL_ASYMPTOTIC_MIN_N),
        }
    }

    /// The one evaluator of expected order statistics: for every `n` in
    /// `ns`, `E[(n−kₙ)-th order statistic of n draws]` with
    /// `kₙ = drop_k.min(n−1)` (the clamping the models apply), in input
    /// order. `ns` may be dense, a log ladder or any gapped list, as long
    /// as it is strictly ascending.
    ///
    /// Exponential tails use the exact harmonic-number form
    /// `mean·(H_n − H_k)`, with one running sum serving the whole list;
    /// bounded jitter uses the exact `spread·(n−k)/(n+1)`; log-normal tails
    /// integrate the order-statistic density in the underlying normal's
    /// `z`-space over one grid whose transcendentals every entry shares,
    /// the per-`n` Simpson sums fanned out across threads.
    ///
    /// Accuracy contract: up to [`Self::asymptotic_crossover`] every entry
    /// is bit-identical to [`Self::expected_order_stat_exact`], whatever
    /// else the list holds. Past it the tailed distributions switch to
    /// their extreme-value forms — the Euler–Maclaurin harmonic expansion
    /// for exponential tails, the Gumbel-normed windowed quadrature
    /// (`lognormal_order_stat_asymptotic`) for log-normal ones — O(1) in
    /// `n` where the exact forms are O(n) or lose the peak. At the
    /// crossover the two regimes agree within 1e-3 relative
    /// (property-tested, measured far tighter). Every entry equals a batch
    /// of one bit for bit.
    ///
    /// # Panics
    /// Panics when an entry is 0 or `ns` is not strictly ascending.
    pub fn expected_order_stats(&self, ns: &[usize], drop_k: usize) -> Vec<f64> {
        self.assert_valid();
        assert!(ns.first() != Some(&0), "need at least one draw");
        assert!(
            ns.windows(2).all(|w| w[0] < w[1]),
            "worker counts must be strictly ascending (no duplicates)"
        );
        let k_of = |n: usize| drop_k.min(n - 1);
        match *self {
            StragglerModel::Deterministic => vec![0.0; ns.len()],
            StragglerModel::BoundedJitter { spread } => ns
                .iter()
                .map(|&n| spread * (n - k_of(n)) as f64 / (n as f64 + 1.0))
                .collect(),
            StragglerModel::ExponentialTail { mean } => {
                // One running sum, advanced to each n in turn; past the
                // crossover the expansion takes over, as in harmonic_any.
                let h_drop = harmonic_any(drop_k);
                let mut h = HarmonicSum::new();
                ns.iter()
                    .map(|&n| {
                        let (h_n, h_prev) = if n <= EXP_ASYMPTOTIC_MIN_N {
                            while h.j < n - 1 {
                                h.push();
                            }
                            let h_prev = h.value();
                            h.push();
                            (h.value(), h_prev)
                        } else {
                            (harmonic_asymptotic(n), harmonic_any(n - 1))
                        };
                        // k = n − 1 only while n ≤ drop_k, where H_k = H_{n−1}.
                        mean * (h_n - if drop_k < n { h_drop } else { h_prev })
                    })
                    .collect()
            }
            StragglerModel::LogNormalTail { mu, sigma } => {
                if sigma == 0.0 {
                    return vec![mu.exp(); ns.len()];
                }
                // The exact grid, built only if an entry sits below the
                // crossover (the smallest is first).
                let grid = ns
                    .first()
                    .filter(|&&n| n <= LOGNORMAL_ASYMPTOTIC_MIN_N)
                    .map(|_| LogNormalGrid::new(mu, sigma));
                par::map(ns, |&n| match &grid {
                    Some(grid) if n <= LOGNORMAL_ASYMPTOTIC_MIN_N => {
                        grid.expected_order_stat(n, k_of(n))
                    }
                    _ => lognormal_order_stat_asymptotic(mu, sigma, n, k_of(n)),
                })
            }
        }
    }

    /// Expected barrier time `E[(n−k)-th order statistic of {b_i + X_i}]`:
    /// worker `i` finishes its deterministic base work `b_i` seconds after
    /// the superstep starts, plus an independent straggler delay `X_i`;
    /// the barrier waits for all but the slowest `k` (their shards are
    /// covered by backup workers). With `k = 0` this is the plain
    /// `E[max]`; with zero jitter it is *exactly* the `(n−k)`-th smallest
    /// base (bit-identical to the deterministic model).
    ///
    /// The bases collapse into `(base, count)` runs of equal neighbours.
    /// One run (all bases equal) routes through the exact/1-D forms of
    /// [`Self::expected_order_stat`]; several runs integrate the
    /// Poisson-binomial order-statistic survival function on a log-spaced
    /// grid (deterministic quadrature, no sampling), one delay CDF per run
    /// per step. This is [`OrderStatCache::expected_barrier`] over a fresh
    /// cache.
    ///
    /// # Panics
    /// Panics when `bases` is empty or `drop_k >= bases.len()`.
    pub fn expected_barrier(&self, bases: &[f64], drop_k: usize) -> Seconds {
        OrderStatCache::new(*self).expected_barrier(bases, drop_k)
    }

    /// Heterogeneous-base expected order statistic by quadrature:
    /// `E[Y_(m)] = x_lo + ∫_{x_lo}^{x_hi} (1 − P(Y_(m) ≤ x)) dx` with
    /// `P(Y_(m) ≤ x) = P(#{i : b_i + X_i ≤ x} ≥ m)` evaluated through a
    /// Poisson-binomial recursion capped at `k` failures. The grid is
    /// log-spaced so heavy log-normal tails are resolved as finely as the
    /// bulk.
    ///
    /// `runs` are the `n` bases as `(base, count)` runs in worker order.
    /// Each step calls the delay CDF once per run and applies the
    /// recursion's update `count` times, in worker order, so the result is
    /// bit-identical to a per-worker loop over the expanded bases.
    fn expected_barrier_hetero(&self, runs: &[(f64, usize)], n: usize, k: usize) -> f64 {
        let m = n - k;
        let sorted = sorted_runs(runs);
        let b_m = nth_smallest(&sorted, m - 1); // below this, P(Y_(m) ≤ x) = 0 exactly
        let b_max = nth_smallest(&sorted, n - 1);
        let x_lo = if b_m > 0.0 { b_m } else { self.low_bound() };
        let x_hi = b_max + self.tail_bound(n);
        if x_hi <= x_lo {
            return b_m;
        }
        // P(at least m of the Y_i ≤ x), i.e. at most k exceed x.
        let survival = |x: f64| {
            let mut q = vec![0.0f64; k + 2]; // q[k+1] absorbs ≥ k+1 failures
            q[0] = 1.0;
            for &(b, count) in runs {
                let p = self.delay_cdf(x - b);
                let s = 1.0 - p;
                for _ in 0..count {
                    for f in (0..=k).rev() {
                        q[f + 1] += q[f] * s;
                        q[f] *= p;
                    }
                }
            }
            let reached: f64 = q[..=k].iter().sum();
            1.0 - reached
        };
        // Trapezoid on a log grid over [x_lo, x_hi].
        let (u_lo, u_hi) = (x_lo.ln(), x_hi.ln());
        let steps = 4096usize;
        let h = (u_hi - u_lo) / steps as f64;
        let g = |u: f64| {
            let x = u.exp();
            survival(x) * x // dx = e^u du
        };
        let mut sum = 0.5 * (g(u_lo) + g(u_hi));
        for i in 1..steps {
            sum += g(u_lo + i as f64 * h);
        }
        x_lo + sum * h
    }
}

/// `(base, count)` runs sorted by base.
fn sorted_runs(runs: &[(f64, usize)]) -> Vec<(f64, usize)> {
    let mut sorted = runs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    sorted
}

/// The `rank`-th smallest (0-based) of the bases that `sorted`, runs
/// sorted by base, stand for.
fn nth_smallest(sorted: &[(f64, usize)], rank: usize) -> f64 {
    let mut i = 0;
    let mut through = sorted[0].1;
    while through <= rank {
        i += 1;
        through += sorted[i].1;
    }
    sorted[i].0
}

/// Clamp the drop-count to leave at least one worker standing.
fn effective_k(backup_k: usize, n: usize) -> usize {
    backup_k.min(n.saturating_sub(1))
}

/// The one scaffold behind every straggler curve and planner. It checks
/// that `cache` holds `straggler`'s order statistics, fills it with the
/// keys a sweep over `ns` will read and it lacks, and returns the expected
/// time at any `n`: `finish(n, barrier)`, the barrier's order statistic
/// read from `cache`. A key outside `ns` (a planner probing between
/// ladder rungs) is computed on first read and memoised.
///
/// `bases(n)` gives the `n` workers' base times as merged `(base, count)`
/// runs in worker order, so a uniform cluster costs one run per `n`, not
/// an `n`-element vector.
///
/// The fill is skipped where the barrier reads no order statistic: at
/// zero jitter (the exact sorted-base path) and on heterogeneous bases
/// (the Poisson-binomial quadrature). Homogeneity is probed as one run at
/// the widest `n`: every `Heterogeneity` variant yields prefix-structured
/// speed factors, so one run at the widest `n` implies one run at every
/// narrower one, and a wrong probe only costs memo misses, never a
/// changed result.
///
/// The returned flag says whether a sweep over `ns` should fan out across
/// threads: only where each `n` runs the heterogeneous quadrature. After
/// the fill, a uniform cluster's `n` costs one memo read, and a zero-jitter
/// one a walk over its runs; per-call worker threads, and their contention
/// on the memo's lock, would cost more than that work and make its timing
/// depend on the scheduler.
fn cached_time<'a>(
    cache: &'a OrderStatCache,
    straggler: StragglerModel,
    backup_k: usize,
    ns: &[usize],
    bases: impl Fn(usize) -> Vec<(f64, usize)> + Sync + 'a,
    finish: impl Fn(usize, Seconds) -> Seconds + Sync + 'a,
) -> (impl Fn(usize) -> Seconds + Sync + 'a, bool) {
    assert_eq!(
        cache.model(),
        straggler,
        "OrderStatCache was built for a different straggler model"
    );
    let mut fan_out = false;
    if let (false, Some(&n_max)) = (straggler.is_zero(), ns.iter().max()) {
        if bases(n_max).len() == 1 {
            cache.fill(ns, backup_k);
        } else {
            fan_out = true;
        }
    }
    let time = move |n| {
        assert!(n >= 1);
        let barrier = cache.barrier(&bases(n), effective_k(backup_k, n));
        finish(n, barrier)
    };
    (time, fan_out)
}

/// A speedup curve over `ns` through [`cached_time`], the per-`n`
/// evaluations fanned out across threads ([`crate::par`]) where each one
/// runs a quadrature — bit-identical to a serial per-`n` loop.
fn cached_curve(
    ns: impl IntoIterator<Item = usize>,
    cache: &OrderStatCache,
    straggler: StragglerModel,
    backup_k: usize,
    bases: impl Fn(usize) -> Vec<(f64, usize)> + Sync,
    finish: impl Fn(usize, Seconds) -> Seconds + Sync,
) -> SpeedupCurve {
    let ns: Vec<usize> = ns.into_iter().collect();
    assert!(!ns.is_empty(), "need at least one worker count");
    let (time, fan_out) = cached_time(cache, straggler, backup_k, &ns, bases, finish);
    let times = if fan_out {
        par::map(&ns, |&n| time(n))
    } else {
        ns.iter().map(|&n| time(n)).collect()
    };
    SpeedupCurve::from_samples(ns.into_iter().zip(times))
}

/// The one memo of expected order statistics for one delay model, keyed
/// on `(n, k)`. Every straggler curve and planner reads its homogeneous
/// barrier terms from one: a fresh cache per call for the plain forms
/// ([`StragglerGdModel::strong_curve`], [`StragglerGdModel::planner`]),
/// a caller-owned one for the `_cached` forms, so a sweep's curve and
/// planner — and every grid point sharing a delay distribution — compute
/// each `(n, k)` once. Fills go through
/// [`StragglerModel::expected_order_stats`] and compute only the keys not
/// yet memoised, so overlapping fills cost hash lookups, not quadratures.
///
/// Cached values are bit-identical to uncached
/// [`StragglerModel::expected_order_stat`] calls, so routing a hot path
/// through the cache never changes a result.
///
/// The memo is `Mutex`-backed, so one cache can be shared across threads
/// — `mlscale serve` keeps a process-wide cache per delay model and
/// answers every request's order-statistic queries from it.
pub struct OrderStatCache {
    model: StragglerModel,
    memo: Mutex<HashMap<(usize, usize), f64>>,
}

impl OrderStatCache {
    /// An empty cache for one delay model.
    pub fn new(model: StragglerModel) -> Self {
        Self {
            model,
            memo: Mutex::new(HashMap::new()),
        }
    }

    /// The cached model.
    pub fn model(&self) -> StragglerModel {
        self.model
    }

    fn memo(&self) -> MutexGuard<'_, HashMap<(usize, usize), f64>> {
        self.memo.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Fills `(n, drop_k.min(n−1))` for every `n ∈ 1..=n_max`: one batch
    /// over the keys not yet memoised.
    pub fn warm(&self, n_max: usize, drop_k: usize) {
        assert!(n_max >= 1, "need at least one draw");
        self.fill(&(1..=n_max).collect::<Vec<_>>(), drop_k);
    }

    /// Memoises `(n, drop_k.min(n−1))` for every `n` in `ns` (any order),
    /// computing only the keys not yet held, in one
    /// [`StragglerModel::expected_order_stats`] batch.
    fn fill(&self, ns: &[usize], drop_k: usize) {
        let mut missing: Vec<usize> = {
            let memo = self.memo();
            ns.iter()
                .copied()
                .filter(|&n| !memo.contains_key(&(n, effective_k(drop_k, n))))
                .collect()
        };
        missing.sort_unstable();
        missing.dedup();
        if missing.is_empty() {
            return;
        }
        let values = self.model.expected_order_stats(&missing, drop_k);
        let mut memo = self.memo();
        for (n, v) in missing.into_iter().zip(values) {
            memo.insert((n, effective_k(drop_k, n)), v);
        }
    }

    /// Memoised [`StragglerModel::expected_order_stat`].
    pub fn expected_order_stat(&self, n: usize, k: usize) -> f64 {
        if let Some(&v) = self.memo().get(&(n, k)) {
            return v;
        }
        let v = self.model.expected_order_stat(n, k);
        self.memo().insert((n, k), v);
        v
    }

    /// Memoised [`StragglerModel::expected_max`].
    pub fn expected_max(&self, n: usize) -> f64 {
        self.expected_order_stat(n, 0)
    }

    /// [`StragglerModel::expected_barrier`] with the homogeneous
    /// order-statistic term served from the memo: the bases collapse into
    /// `(base, count)` runs of equal neighbours, then `Self::barrier`.
    pub fn expected_barrier(&self, bases: &[f64], drop_k: usize) -> Seconds {
        self.barrier(&merged_runs(bases.iter().map(|&b| (b, 1))), drop_k)
    }

    /// The expected barrier over the bases of `n = Σ count` workers, given
    /// as `(base, count)` runs in worker order with equal neighbours merged
    /// ([`merged_runs`]):
    ///
    /// * zero jitter: the maximum base, or with `drop_k > 0` the
    ///   `(n−k)`-th smallest (rank `n−1−k` from zero), found by walking the
    ///   sorted runs — no quadrature, so the homogeneous case stays
    ///   bit-identical to the deterministic model;
    /// * one run: `base + E[(n−k)-th of n]`, the order statistic read from
    ///   the memo — O(1) in `n`;
    /// * otherwise the Poisson-binomial quadrature, one delay CDF per run
    ///   per step.
    fn barrier(&self, runs: &[(f64, usize)], drop_k: usize) -> Seconds {
        let model = self.model;
        model.assert_valid();
        let n: usize = runs.iter().map(|&(_, count)| count).sum();
        assert!(n >= 1, "need at least one worker");
        assert!(
            drop_k < n,
            "cannot drop all {n} workers (backup_k = {drop_k})"
        );
        if model.is_zero() {
            if drop_k == 0 {
                return Seconds::new(runs.iter().map(|&(b, _)| b).fold(f64::MIN, f64::max));
            }
            return Seconds::new(nth_smallest(&sorted_runs(runs), n - 1 - drop_k));
        }
        if let [(base, _)] = *runs {
            return Seconds::new(base + self.expected_order_stat(n, drop_k));
        }
        Seconds::new(model.expected_barrier_hetero(runs, n, drop_k))
    }
}

/// A process-wide registry of [`OrderStatCache`]s, one per distinct
/// delay model. Long-lived callers (`mlscale serve`) hold one pool for
/// the life of the process so repeated requests over the same straggler
/// regime reuse each other's quadrature work; a fresh pool degenerates
/// to the old per-run behaviour.
///
/// Keyed by linear scan under one lock — `StragglerModel` is `PartialEq`
/// but not `Eq`/`Hash` (f64 fields) — and unbounded: every distinct
/// model a caller asks for stays for the life of the pool. A daemon fed a
/// new delay model per request grows it to tens of thousands of caches
/// (`perfbench/DESIGN.md` measured it), so each lookup slows with the
/// pool's size.
#[derive(Default)]
pub struct OrderStatCachePool {
    caches: Mutex<Vec<(StragglerModel, Arc<OrderStatCache>)>>,
}

impl OrderStatCachePool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// The shared cache for `model`, creating it on first request.
    pub fn cache_for(&self, model: StragglerModel) -> Arc<OrderStatCache> {
        let mut caches = self.caches.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some((_, cache)) = caches.iter().find(|(m, _)| *m == model) {
            return Arc::clone(cache);
        }
        let cache = Arc::new(OrderStatCache::new(model));
        caches.push((model, Arc::clone(&cache)));
        cache
    }

    /// Number of distinct models cached so far.
    pub fn len(&self) -> usize {
        self.caches
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Whether the pool has no caches yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Straggler-aware gradient descent: wraps a [`GradientDescentModel`] with
/// a delay distribution, cluster heterogeneity and the drop-slowest-k
/// mitigation, and reports *expected* iteration times.
///
/// With `StragglerModel::Deterministic`, `Heterogeneity::Uniform` and
/// `backup_k = 0` every method reproduces the inner model bit-for-bit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerGdModel {
    /// The deterministic model (hardware, workload, collective).
    pub inner: GradientDescentModel,
    /// Per-worker per-superstep delay distribution.
    pub straggler: StragglerModel,
    /// Compute-speed heterogeneity across workers.
    pub hetero: Heterogeneity,
    /// Drop the slowest `k` workers each superstep (backup workers cover
    /// their shards); clamped to `n − 1` at evaluation time.
    pub backup_k: usize,
}

impl StragglerGdModel {
    /// Wraps a model with the degenerate (deterministic) scenario.
    pub fn deterministic(inner: GradientDescentModel) -> Self {
        Self {
            inner,
            straggler: StragglerModel::Deterministic,
            hetero: Heterogeneity::Uniform,
            backup_k: 0,
        }
    }

    /// Compute-phase base times for an even strong-scaling split of the
    /// batch across `n` workers, as `(base, count)` runs in worker order.
    fn strong_bases(&self, n: usize) -> Vec<(f64, usize)> {
        let even = self.inner.strong_comp_time(n).as_secs();
        self.bases_at_speed(even, n)
    }

    /// Compute-phase base times for weak scaling (every worker keeps a
    /// full per-worker batch), as `(base, count)` runs in worker order.
    fn weak_bases(&self, n: usize) -> Vec<(f64, usize)> {
        let per_worker = (self.inner.cost_per_example * self.inner.batch_size
            / self.inner.cluster.flops())
        .as_secs();
        self.bases_at_speed(per_worker, n)
    }

    /// `nominal / s` over the speed runs of `n` workers. Equal neighbours
    /// are merged after the division, since distinct speeds can still
    /// give equal quotients.
    fn bases_at_speed(&self, nominal: f64, n: usize) -> Vec<(f64, usize)> {
        let speeds = self.hetero.speed_runs(&self.inner.cluster, n);
        merged_runs(speeds.into_iter().map(|(s, count)| (nominal / s, count)))
    }

    /// Expected compute-phase barrier time at `n` workers (strong
    /// scaling): `E[(n−k)-th order stat of {t_cp/s_i + X_i}]`.
    pub fn expected_strong_comp_time(&self, n: usize) -> Seconds {
        assert!(n >= 1);
        OrderStatCache::new(self.straggler)
            .barrier(&self.strong_bases(n), effective_k(self.backup_k, n))
    }

    /// Expected strong-scaling iteration time
    /// `E[barrier] + t_cm(n)` — communication is unchanged by compute
    /// stragglers (the collective starts at the barrier).
    ///
    /// The simulator twin, `mlscale_sim::bsp::simulate_with_stragglers`,
    /// places the delay differently: it starts each worker's part of the
    /// exchange at that worker's own finish time, so slow workers overlap
    /// the communication. With an exchange, a simulated iteration can
    /// therefore come in under this expectation by up to the straggler
    /// term; compute-only, nothing overlaps and the two agree.
    pub fn expected_strong_iteration_time(&self, n: usize) -> Seconds {
        self.expected_strong_comp_time(n) + self.inner.comm_time(n)
    }

    /// Expected weak-scaling iteration time.
    pub fn expected_weak_iteration_time(&self, n: usize) -> Seconds {
        assert!(n >= 1);
        let barrier = OrderStatCache::new(self.straggler)
            .barrier(&self.weak_bases(n), effective_k(self.backup_k, n));
        barrier + self.inner.comm_time(n)
    }

    /// Expected weak-scaling per-instance time (the paper's Fig 3 metric).
    pub fn expected_weak_per_instance_time(&self, n: usize) -> Seconds {
        self.expected_weak_iteration_time(n) / n as f64
    }

    /// Expected strong-scaling speedup curve over `ns`: one order-statistic
    /// batch for the whole sweep, the per-`n` evaluations fanned out
    /// across threads ([`crate::par`]) where each runs the heterogeneous
    /// quadrature, bit-identical to the serial per-`n` path.
    /// [`Self::strong_curve_cached`] over a fresh cache.
    pub fn strong_curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        self.strong_curve_cached(ns, &OrderStatCache::new(self.straggler))
    }

    /// Expected weak-scaling per-instance speedup curve over `ns` (same
    /// batch + parallel evaluation as [`Self::strong_curve`]).
    pub fn weak_curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        self.weak_curve_cached(ns, &OrderStatCache::new(self.straggler))
    }

    /// A [`Planner`] over the *expected* job time
    /// `iterations · E[t_iter(n)]` — provisioning answers (cheapest within
    /// deadline, fastest within budget) that price the straggler tail in,
    /// rather than the deterministic best case.
    /// [`Self::planner_cached`] over a fresh cache, dense up to
    /// [`DENSE_EVAL_MAX_N`] and on a [`Planner::DEFAULT_LOG_POINTS`] ladder
    /// past it.
    pub fn planner(&self, iterations: f64, max_n: usize, pricing: Pricing) -> Planner {
        let cache = OrderStatCache::new(self.straggler);
        self.planner_cached(iterations, max_n, pricing, None, &cache)
    }

    /// [`Self::planner`] over a log-spaced candidate ladder
    /// ([`Planner::new_log`]): O(`points`) expected-time evaluations, so
    /// all four planner verbs at `max_n = 10⁶` answer in well under a
    /// second.
    pub fn planner_log(
        &self,
        iterations: f64,
        max_n: usize,
        pricing: Pricing,
        points: usize,
    ) -> Planner {
        let cache = OrderStatCache::new(self.straggler);
        self.planner_cached(iterations, max_n, pricing, Some(points), &cache)
    }

    /// The straggler planner with its order statistics read from `cache`
    /// — bit-identical to [`Self::planner`] (`log_points: None`) and
    /// [`Self::planner_log`] (`Some(points)`). A sweep point hands it the
    /// cache its curve just filled, so the planner computes no order
    /// statistic the curve already has. `None` past [`DENSE_EVAL_MAX_N`]
    /// takes a [`Planner::DEFAULT_LOG_POINTS`] ladder, as a dense
    /// `1..=max_n` sweep would cost O(max_n) model calls to answer four
    /// questions. The candidates fan out across threads only where each
    /// runs the heterogeneous quadrature; a memo read or a zero-jitter
    /// barrier is evaluated on the calling thread.
    ///
    /// # Panics
    /// Panics when the cache was built for a different delay model.
    pub fn planner_cached(
        &self,
        iterations: f64,
        max_n: usize,
        pricing: Pricing,
        log_points: Option<usize>,
        cache: &OrderStatCache,
    ) -> Planner {
        let log_points =
            log_points.or((max_n > DENSE_EVAL_MAX_N).then_some(Planner::DEFAULT_LOG_POINTS));
        let ns = match log_points {
            Some(points) => log_spaced_ns(max_n, points),
            None => (1..=max_n).collect(),
        };
        let (time, fan_out) = cached_time(
            cache,
            self.straggler,
            self.backup_k,
            &ns,
            |n| self.strong_bases(n),
            |n, barrier| (barrier + self.inner.comm_time(n)) * iterations,
        );
        let build = || match log_points {
            Some(points) => Planner::new_log(time, max_n, pricing, points),
            None => Planner::new_par(time, max_n, pricing),
        };
        if fan_out {
            build()
        } else {
            par::with_thread_count(1, build)
        }
    }

    /// Expected strong-scaling curve with the homogeneous order-statistic
    /// terms served from a caller-owned [`OrderStatCache`] — bit-identical
    /// to [`Self::strong_curve`].
    ///
    /// Batch sweeps over scenario grids (`mlscale sweep`) evaluate many
    /// models that differ only in hardware or collective while sharing one
    /// delay distribution; routing them through one cache means each
    /// distinct `(n, k)` quadrature runs once for the whole grid instead
    /// of once per grid point.
    ///
    /// # Panics
    /// Panics when the cache was built for a different delay model.
    pub fn strong_curve_cached(
        &self,
        ns: impl IntoIterator<Item = usize>,
        cache: &OrderStatCache,
    ) -> SpeedupCurve {
        cached_curve(
            ns,
            cache,
            self.straggler,
            self.backup_k,
            |n| self.strong_bases(n),
            |n, barrier| barrier + self.inner.comm_time(n),
        )
    }

    /// Expected weak-scaling per-instance curve served from a shared
    /// [`OrderStatCache`] — bit-identical to [`Self::weak_curve`]. See
    /// [`Self::strong_curve_cached`] for the sweep-dedup rationale.
    ///
    /// # Panics
    /// Panics when the cache was built for a different delay model.
    pub fn weak_curve_cached(
        &self,
        ns: impl IntoIterator<Item = usize>,
        cache: &OrderStatCache,
    ) -> SpeedupCurve {
        cached_curve(
            ns,
            cache,
            self.straggler,
            self.backup_k,
            |n| self.weak_bases(n),
            |n, barrier| (barrier + self.inner.comm_time(n)) / n as f64,
        )
    }
}

/// Straggler-aware graph inference: wraps a [`GraphInferenceModel`].
///
/// The inner model already charges the whole superstep at the
/// most-loaded worker (`max_i E_i`). Here that worker carries base time
/// `t_cp(n)` while the remaining `n − 1` carry the balanced share
/// `E/n·c(S)/F`, each divided by its heterogeneous speed factor — so
/// drop-slowest-k can model speculative re-execution of the hub
/// partition, the dominant BP mitigation.
#[derive(Debug, Clone)]
pub struct StragglerGraphModel {
    /// The deterministic graph-inference model.
    pub inner: GraphInferenceModel,
    /// Per-worker per-superstep delay distribution.
    pub straggler: StragglerModel,
    /// Compute-speed heterogeneity across workers.
    pub hetero: Heterogeneity,
    /// Drop the slowest `k` workers each superstep.
    pub backup_k: usize,
}

impl StragglerGraphModel {
    /// Wraps a model with the degenerate (deterministic) scenario.
    pub fn deterministic(inner: GraphInferenceModel) -> Self {
        Self {
            inner,
            straggler: StragglerModel::Deterministic,
            hetero: Heterogeneity::Uniform,
            backup_k: 0,
        }
    }

    /// Base times as `(base, count)` runs in worker order: one worker
    /// holds the maximum edge load, the rest the balanced share.
    fn bases(&self, n: usize) -> Vec<(f64, usize)> {
        // GraphInferenceModel carries no ClusterSpec (and therefore no rack
        // topology); a per-rack heterogeneity would silently degenerate to
        // uniform speeds here, so reject it loudly instead.
        assert!(
            !matches!(self.hetero, Heterogeneity::RackDecay { .. }),
            "GraphInferenceModel has no rack topology; use Heterogeneity::SlowWorkers \
             or Uniform with StragglerGraphModel"
        );
        let gating = self.inner.comp_time(n).as_secs();
        let balanced = (self.inner.cost_per_edge * (self.inner.edges / n as f64)
            / self.inner.flops)
            .as_secs()
            .min(gating);
        // SlowWorkers factors are defined per worker index; the hub
        // partition is placed on worker 1, split off the first speed run.
        let cluster = crate::hardware::ClusterSpec::new(
            crate::hardware::NodeSpec::new(self.inner.flops, 1.0),
            crate::hardware::LinkSpec::bandwidth_only(self.inner.bandwidth),
        );
        let speeds = self.hetero.speed_runs(&cluster, n);
        let (s_hub, count) = speeds[0];
        merged_runs(
            [(gating / s_hub, 1), (balanced / s_hub, count - 1)]
                .into_iter()
                .chain(speeds[1..].iter().map(|&(s, count)| (balanced / s, count))),
        )
    }

    /// Expected compute-phase barrier at `n` workers.
    pub fn expected_comp_time(&self, n: usize) -> Seconds {
        assert!(n >= 1);
        OrderStatCache::new(self.straggler).barrier(&self.bases(n), effective_k(self.backup_k, n))
    }

    /// Expected iteration time `E[barrier] + t_cm(n)`.
    pub fn expected_iteration_time(&self, n: usize) -> Seconds {
        self.expected_comp_time(n) + self.inner.comm_time(n)
    }

    /// Expected speedup curve over `ns` — one order-statistic batch for
    /// the sweep (when the base profile is homogeneous enough to read
    /// it), per-`n` evaluation fanned out across threads where it runs a
    /// quadrature, bit-identical to the serial per-`n` path.
    pub fn curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        cached_curve(
            ns,
            &OrderStatCache::new(self.straggler),
            self.straggler,
            self.backup_k,
            |n| self.bases(n),
            |n, barrier| barrier + self.inner.comm_time(n),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::presets;
    use crate::models::gd::GdComm;
    use crate::units::FlopCount;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fig2_model() -> GradientDescentModel {
        GradientDescentModel {
            cost_per_example: FlopCount::new(6.0 * 12e6),
            batch_size: 60_000.0,
            params: 12e6,
            bits_per_param: 64,
            cluster: presets::spark_cluster(),
            comm: GdComm::Spark,
        }
    }

    #[test]
    fn normal_cdf_reference_points() {
        assert!((normal_cdf(0.0) - 0.5).abs() < 1e-7);
        assert!((normal_cdf(1.0) - 0.841_344_7).abs() < 1e-6);
        assert!((normal_cdf(-1.96) - 0.024_997_9).abs() < 1e-6);
        assert!(normal_cdf(9.0) > 1.0 - 1e-15);
    }

    #[test]
    fn harmonic_numbers() {
        assert_eq!(harmonic(0), 0.0);
        assert_eq!(harmonic(1), 1.0);
        assert!((harmonic(4) - (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-15);
    }

    #[test]
    fn harmonic_prefix_is_bit_identical_to_plain_sum() {
        // Golden fixtures pin exponential-tail values at small n; up to
        // the Kahan cutoff the accumulator must reproduce the plain
        // forward sum bit for bit.
        let mut naive = 0.0f64;
        for j in 1..=HARMONIC_KAHAN_CUTOFF {
            naive += 1.0 / j as f64;
            assert_eq!(harmonic(j).to_bits(), naive.to_bits(), "j = {j}");
        }
    }

    #[test]
    fn harmonic_tracks_asymptotic_at_a_million_terms() {
        // H_j = ln j + γ + 1/(2j) − 1/(12j²) + O(j⁻⁴). The plain forward
        // sum drifts ~1e-12 from the expansion by j = 10⁶; compensated
        // summation must stay within the truncation term's own order.
        const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
        let j = 1_000_000usize;
        let approx = (j as f64).ln() + EULER_GAMMA + 1.0 / (2.0 * j as f64);
        let truncation = 1.0 / (12.0 * (j as f64) * (j as f64));
        let residual = harmonic(j) - approx;
        assert!(
            (residual + truncation).abs() < 1e-13,
            "residual {residual:e} vs −{truncation:e}"
        );
    }

    #[test]
    fn batch_harmonic_path_is_bit_identical_to_per_call_at_large_n() {
        // The running HarmonicSum in the batch table crosses the Kahan
        // cutoff mid-sweep; every entry must still match the per-call
        // form exactly.
        let m = StragglerModel::ExponentialTail { mean: 1.7 };
        for drop_k in [0usize, 2, 5] {
            let table = m.expected_order_stats(&(1..=500).collect::<Vec<_>>(), drop_k);
            for (i, &v) in table.iter().enumerate() {
                let n = i + 1;
                let direct = m.expected_order_stat(n, drop_k.min(n - 1));
                assert_eq!(v.to_bits(), direct.to_bits(), "n = {n}, drop_k = {drop_k}");
            }
        }
    }

    #[test]
    fn exponential_expected_max_is_harmonic() {
        let m = StragglerModel::ExponentialTail { mean: 0.2 };
        assert!((m.expected_max(1) - 0.2).abs() < 1e-15);
        assert!((m.expected_max(4) - 0.2 * (1.0 + 0.5 + 1.0 / 3.0 + 0.25)).abs() < 1e-12);
    }

    #[test]
    fn jitter_expected_max_is_n_over_n_plus_1() {
        let m = StragglerModel::BoundedJitter { spread: 0.6 };
        assert!((m.expected_max(1) - 0.3).abs() < 1e-15);
        assert!((m.expected_max(5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lognormal_expected_max_single_draw_is_mean() {
        let m = StragglerModel::LogNormalTail {
            mu: -2.0,
            sigma: 0.8,
        };
        // E[X_(1) of 1] = E[X] = exp(mu + sigma²/2).
        let expected = (-2.0f64 + 0.32).exp();
        let got = m.expected_max(1);
        assert!(
            (got - expected).abs() / expected < 1e-4,
            "quadrature {got} vs closed form {expected}"
        );
    }

    #[test]
    fn lognormal_quadrature_matches_monte_carlo() {
        let m = StragglerModel::LogNormalTail {
            mu: -2.5,
            sigma: 1.0,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for n in [2usize, 8, 32] {
            let reps = 40_000;
            let mc: f64 = (0..reps)
                .map(|_| (0..n).map(|_| m.sample(&mut rng)).fold(f64::MIN, f64::max))
                .sum::<f64>()
                / reps as f64;
            let analytic = m.expected_max(n);
            assert!(
                (mc - analytic).abs() / analytic < 0.03,
                "n={n}: MC {mc} vs quadrature {analytic}"
            );
        }
    }

    #[test]
    fn hetero_quadrature_agrees_with_iid_path_on_equal_bases() {
        for model in [
            StragglerModel::ExponentialTail { mean: 0.15 },
            StragglerModel::BoundedJitter { spread: 0.4 },
            StragglerModel::LogNormalTail {
                mu: -3.0,
                sigma: 0.9,
            },
        ] {
            for n in [2usize, 7, 24] {
                for k in [0usize, 1, 2] {
                    if k >= n {
                        continue;
                    }
                    let iid = model.expected_barrier(&vec![1.0; n], k).as_secs();
                    let hetero = model.expected_barrier_hetero(&[(1.0, n)], n, k);
                    assert!(
                        (iid - hetero).abs() / iid < 5e-3,
                        "{model:?} n={n} k={k}: iid {iid} vs hetero {hetero}"
                    );
                }
            }
        }
    }

    /// The barrier as this module computed it before bases became runs:
    /// an all-equal scan, a sort at zero jitter, and a Poisson-binomial
    /// quadrature with one delay CDF per worker per step. The reference
    /// that the runs must match bit for bit.
    fn per_worker_barrier(model: StragglerModel, bases: &[f64], k: usize) -> f64 {
        let n = bases.len();
        let mut sorted = bases.to_vec();
        sorted.sort_by(f64::total_cmp);
        if model.is_zero() {
            if k == 0 {
                return bases.iter().copied().fold(f64::MIN, f64::max);
            }
            return sorted[n - 1 - k];
        }
        if bases.iter().all(|&b| b == bases[0]) {
            return bases[0] + model.expected_order_stat(n, k);
        }
        let b_m = sorted[n - k - 1];
        let x_lo = if b_m > 0.0 { b_m } else { model.low_bound() };
        let x_hi = sorted[n - 1] + model.tail_bound(n);
        if x_hi <= x_lo {
            return b_m;
        }
        let survival = |x: f64| {
            let mut q = vec![0.0f64; k + 2];
            q[0] = 1.0;
            for &b in bases {
                let p = model.delay_cdf(x - b);
                let s = 1.0 - p;
                for f in (0..=k).rev() {
                    q[f + 1] += q[f] * s;
                    q[f] *= p;
                }
            }
            let reached: f64 = q[..=k].iter().sum();
            1.0 - reached
        };
        let (u_lo, u_hi) = (x_lo.ln(), x_hi.ln());
        let steps = 4096usize;
        let h = (u_hi - u_lo) / steps as f64;
        let g = |u: f64| {
            let x = u.exp();
            survival(x) * x
        };
        let mut sum = 0.5 * (g(u_lo) + g(u_hi));
        for i in 1..steps {
            sum += g(u_lo + i as f64 * h);
        }
        x_lo + sum * h
    }

    /// Asserts that a barrier computed over runs equals the per-worker
    /// reference over `bases` bit for bit, and that the public slice form
    /// does too.
    fn assert_matches_per_worker(
        what: &str,
        straggler: StragglerModel,
        runs_barrier: Seconds,
        bases: &[f64],
        k: usize,
    ) {
        let reference = per_worker_barrier(straggler, bases, k);
        assert_eq!(
            runs_barrier.as_secs().to_bits(),
            reference.to_bits(),
            "{what} {straggler:?} n={} k={k}: runs {} vs per-worker {reference}",
            bases.len(),
            runs_barrier.as_secs()
        );
        assert_eq!(
            straggler.expected_barrier(bases, k).as_secs().to_bits(),
            reference.to_bits(),
            "{what} {straggler:?} n={} k={k}: slice form",
            bases.len()
        );
    }

    #[test]
    fn run_barriers_match_the_per_worker_loop_bit_for_bit() {
        use crate::hardware::{LinkSpec, RackSpec};
        use crate::models::graphinf::EdgeLoad;
        use crate::units::{BitsPerSec, FlopsRate};
        let tails = [
            StragglerModel::Deterministic,
            StragglerModel::BoundedJitter { spread: 0.4 },
            StragglerModel::ExponentialTail { mean: 0.15 },
            StragglerModel::LogNormalTail {
                mu: -2.0,
                sigma: 0.8,
            },
        ];
        let racked = GradientDescentModel {
            cluster: presets::spark_cluster().with_racks(RackSpec::new(
                8,
                LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
            )),
            ..fig2_model()
        };
        // A hub partition 1.7× the balanced share, so gating ≠ balanced.
        let edges = 50_000.0;
        let loads = (1..=40)
            .map(|n| {
                if n == 1 {
                    edges
                } else {
                    1.7 * edges / n as f64
                }
            })
            .collect();
        let graph = GraphInferenceModel::belief_propagation(
            10_000.0,
            edges,
            2,
            FlopsRate::giga(7.6),
            BitsPerSec::giga(1.0),
            0.5,
            EdgeLoad::PerWorkerMax(loads),
        );
        for straggler in tails {
            for backup_k in [0usize, 1, 3] {
                let gd = |inner, hetero| StragglerGdModel {
                    inner,
                    straggler,
                    hetero,
                    backup_k,
                };
                let strong = |m: &StragglerGdModel, n: usize| -> Vec<f64> {
                    let even = m.inner.strong_comp_time(n).as_secs();
                    let speeds = m.hetero.speed_factors(&m.inner.cluster, n);
                    speeds.into_iter().map(|s| even / s).collect()
                };
                for n in [1usize, 6, 13] {
                    let k = effective_k(backup_k, n);
                    for count in [0, 3, n, n + 5] {
                        let slow = Heterogeneity::SlowWorkers { count, factor: 0.5 };
                        let m = gd(fig2_model(), slow);
                        let what = format!("slow count={count}");
                        let bases = strong(&m, n);
                        let t = m.expected_strong_comp_time(n);
                        assert_matches_per_worker(&what, straggler, t, &bases, k);
                        let per_worker = (m.inner.cost_per_example * m.inner.batch_size
                            / m.inner.cluster.flops())
                        .as_secs();
                        let weak: Vec<f64> = m
                            .hetero
                            .speed_factors(&m.inner.cluster, n)
                            .into_iter()
                            .map(|s| per_worker / s)
                            .collect();
                        let reference = Seconds::new(per_worker_barrier(straggler, &weak, k))
                            + m.inner.comm_time(n);
                        assert_eq!(
                            m.expected_weak_iteration_time(n).as_secs().to_bits(),
                            reference.as_secs().to_bits(),
                            "{what} weak n={n} k={k}"
                        );

                        let g = StragglerGraphModel {
                            inner: graph.clone(),
                            straggler,
                            hetero: slow,
                            backup_k,
                        };
                        let gating = graph.comp_time(n).as_secs();
                        let balanced = (graph.cost_per_edge * (graph.edges / n as f64)
                            / graph.flops)
                            .as_secs()
                            .min(gating);
                        let bases: Vec<f64> = (0..n)
                            .map(|w| {
                                let s = if w < count { 0.5 } else { 1.0 };
                                if w == 0 {
                                    gating / s
                                } else {
                                    balanced / s
                                }
                            })
                            .collect();
                        let t = g.expected_comp_time(n);
                        assert_matches_per_worker(
                            &format!("graph {what}"),
                            straggler,
                            t,
                            &bases,
                            k,
                        );
                    }
                }
                for n in [1usize, 5, 16, 37] {
                    let k = effective_k(backup_k, n);
                    let m = gd(racked, Heterogeneity::RackDecay { factor: 0.8 });
                    let t = m.expected_strong_comp_time(n);
                    assert_matches_per_worker("rack", straggler, t, &strong(&m, n), k);
                }
            }
        }
    }

    #[test]
    fn hetero_barrier_matches_monte_carlo() {
        let model = StragglerModel::ExponentialTail { mean: 0.1 };
        let bases = [1.0, 1.0, 2.0, 0.5];
        let mut rng = StdRng::seed_from_u64(11);
        for k in [0usize, 1] {
            let analytic = model.expected_barrier(&bases, k).as_secs();
            let reps = 60_000;
            let mc: f64 = (0..reps)
                .map(|_| {
                    let mut draws: Vec<f64> =
                        bases.iter().map(|&b| b + model.sample(&mut rng)).collect();
                    draws.sort_by(f64::total_cmp);
                    draws[bases.len() - 1 - k]
                })
                .sum::<f64>()
                / reps as f64;
            assert!(
                (mc - analytic).abs() / analytic < 0.01,
                "k={k}: MC {mc} vs quadrature {analytic}"
            );
        }
    }

    #[test]
    fn zero_base_with_underflowing_lognormal_stays_finite() {
        // Heterogeneous bases whose (n−k)-th smallest is zero route the
        // quadrature's lower cut-off through low_bound(); an extreme mu
        // underflows exp() and must floor at a tiny positive value instead
        // of poisoning the log grid with ln(0) = −∞.
        let m = StragglerModel::LogNormalTail {
            mu: -800.0,
            sigma: 1.0,
        };
        let e = m.expected_barrier(&[0.0, 0.0, 1.0], 1).as_secs();
        assert!(e.is_finite(), "got {e}");
        assert!(
            e < 1e-9,
            "dropping the loaded worker leaves two ≈0 finish times: {e}"
        );
        // Moderate parameters through the same zero-base path.
        let ln = StragglerModel::LogNormalTail {
            mu: -2.0,
            sigma: 0.8,
        };
        let barrier = ln.expected_barrier(&[0.0, 0.0, 1.0], 1).as_secs();
        assert!(barrier.is_finite() && barrier > 0.0, "got {barrier}");
    }

    #[test]
    fn zero_jitter_barrier_is_exact_max() {
        let bases = [0.25, 0.5, 0.125];
        for model in [
            StragglerModel::Deterministic,
            StragglerModel::BoundedJitter { spread: 0.0 },
            StragglerModel::ExponentialTail { mean: 0.0 },
        ] {
            assert_eq!(model.expected_barrier(&bases, 0).as_secs(), 0.5);
            assert_eq!(model.expected_barrier(&bases, 1).as_secs(), 0.25);
            assert_eq!(model.expected_barrier(&bases, 2).as_secs(), 0.125);
        }
    }

    #[test]
    fn deterministic_wrapper_is_bit_identical() {
        let inner = fig2_model();
        let wrapped = StragglerGdModel::deterministic(inner);
        for n in [1usize, 2, 9, 13, 64] {
            assert_eq!(
                wrapped.expected_strong_iteration_time(n),
                inner.strong_iteration_time(n),
                "strong n={n}"
            );
            assert_eq!(
                wrapped.expected_weak_per_instance_time(n),
                inner.weak_per_instance_time(n),
                "weak n={n}"
            );
        }
        let (n_opt, _) = wrapped.strong_curve(1..=13).optimal();
        assert_eq!(n_opt, 9, "Fig 2 optimum preserved");
    }

    #[test]
    fn stragglers_shift_the_fig2_optimum_down() {
        let light = StragglerGdModel {
            inner: fig2_model(),
            straggler: StragglerModel::ExponentialTail { mean: 1.0 },
            hetero: Heterogeneity::Uniform,
            backup_k: 0,
        };
        let (n_det, s_det) = fig2_model().strong_curve(1..=13).optimal();
        let (n_str, s_str) = light.strong_curve(1..=13).optimal();
        assert!(
            n_str <= n_det,
            "stragglers cannot push the optimum out: {n_str} vs {n_det}"
        );
        assert!(s_str < s_det, "stragglers cost speedup");
    }

    #[test]
    fn backup_workers_recover_some_speedup() {
        let base = StragglerGdModel {
            inner: fig2_model(),
            straggler: StragglerModel::LogNormalTail {
                mu: 0.0,
                sigma: 1.5,
            },
            hetero: Heterogeneity::Uniform,
            backup_k: 0,
        };
        let mitigated = StragglerGdModel {
            backup_k: 2,
            ..base
        };
        for n in [4usize, 9, 16] {
            assert!(
                mitigated.expected_strong_iteration_time(n)
                    <= base.expected_strong_iteration_time(n),
                "drop-slowest-k must not slow things down at n={n}"
            );
        }
    }

    #[test]
    fn slow_workers_gate_the_expected_barrier() {
        let uniform = StragglerGdModel::deterministic(fig2_model());
        let hetero = StragglerGdModel {
            hetero: Heterogeneity::SlowWorkers {
                count: 1,
                factor: 0.5,
            },
            ..uniform
        };
        let n = 8;
        // One half-speed worker doubles the evenly-split compute phase.
        let t_u = uniform.expected_strong_comp_time(n).as_secs();
        let t_h = hetero.expected_strong_comp_time(n).as_secs();
        assert!((t_h / t_u - 2.0).abs() < 1e-12, "{t_h} vs {t_u}");
        // Dropping that worker restores the nominal barrier.
        let mitigated = StragglerGdModel {
            backup_k: 1,
            ..hetero
        };
        assert_eq!(mitigated.expected_strong_comp_time(n).as_secs(), t_u);
    }

    #[test]
    fn planner_prices_the_tail_in() {
        let det = StragglerGdModel::deterministic(fig2_model());
        let tailed = StragglerGdModel {
            straggler: StragglerModel::ExponentialTail { mean: 5.0 },
            ..det
        };
        let pricing = Pricing::hourly(2.0);
        let fast_det = det.planner(100.0, 32, pricing).fastest();
        let fast_tail = tailed.planner(100.0, 32, pricing).fastest();
        assert!(
            fast_tail.time > fast_det.time,
            "expected time includes tail"
        );
        assert!(
            fast_tail.n <= fast_det.n,
            "stragglers never ask for more machines: {} vs {}",
            fast_tail.n,
            fast_det.n
        );
    }

    #[test]
    fn graph_wrapper_degenerates_to_inner_model() {
        use crate::models::graphinf::EdgeLoad;
        use crate::units::{BitsPerSec, FlopsRate};
        let inner = GraphInferenceModel::belief_propagation(
            10_000.0,
            50_000.0,
            2,
            FlopsRate::giga(7.6),
            BitsPerSec::new(f64::INFINITY),
            0.5,
            EdgeLoad::Balanced,
        );
        let wrapped = StragglerGraphModel::deterministic(inner.clone());
        for n in [1usize, 4, 16, 64] {
            assert_eq!(
                wrapped.expected_iteration_time(n),
                inner.iteration_time(n),
                "n={n}"
            );
        }
    }

    #[test]
    fn graph_wrapper_stragglers_slow_inference() {
        use crate::models::graphinf::EdgeLoad;
        use crate::units::{BitsPerSec, FlopsRate};
        let inner = GraphInferenceModel::belief_propagation(
            10_000.0,
            50_000.0,
            2,
            FlopsRate::giga(7.6),
            BitsPerSec::new(f64::INFINITY),
            0.5,
            EdgeLoad::Balanced,
        );
        let tailed = StragglerGraphModel {
            straggler: StragglerModel::ExponentialTail { mean: 1e-4 },
            ..StragglerGraphModel::deterministic(inner.clone())
        };
        for n in [2usize, 16, 64] {
            assert!(tailed.expected_iteration_time(n) > inner.iteration_time(n));
        }
    }

    #[test]
    #[should_panic(expected = "no rack topology")]
    fn rack_decay_on_graph_model_rejected() {
        use crate::models::graphinf::EdgeLoad;
        use crate::units::{BitsPerSec, FlopsRate};
        let inner = GraphInferenceModel::belief_propagation(
            1_000.0,
            5_000.0,
            2,
            FlopsRate::giga(7.6),
            BitsPerSec::new(f64::INFINITY),
            0.5,
            EdgeLoad::Balanced,
        );
        let m = StragglerGraphModel {
            hetero: Heterogeneity::RackDecay { factor: 0.5 },
            ..StragglerGraphModel::deterministic(inner)
        };
        let _ = m.expected_comp_time(4);
    }

    #[test]
    #[should_panic(expected = "cannot drop all")]
    fn dropping_every_worker_rejected() {
        let _ = StragglerModel::ExponentialTail { mean: 0.1 }.expected_order_stat(3, 3);
    }

    #[test]
    fn cached_curves_are_bit_identical_to_uncached() {
        // Every straggler variant, with and without heterogeneity and
        // drop-k: serving the order statistics from a shared cache must
        // not change a single bit relative to the per-curve path — nor
        // may planners reading the cache the curves filled, dense or on a
        // log ladder whose refinement probes land between rungs and past
        // the curves' reach.
        let models = [
            StragglerModel::Deterministic,
            StragglerModel::BoundedJitter { spread: 2.0 },
            StragglerModel::ExponentialTail { mean: 4.0 },
            StragglerModel::LogNormalTail {
                mu: 0.33,
                sigma: 1.2,
            },
        ];
        for straggler in models {
            for (hetero, backup_k) in [
                (Heterogeneity::Uniform, 0),
                (Heterogeneity::Uniform, 2),
                (
                    Heterogeneity::SlowWorkers {
                        count: 2,
                        factor: 0.5,
                    },
                    1,
                ),
            ] {
                let m = StragglerGdModel {
                    straggler,
                    hetero,
                    backup_k,
                    ..StragglerGdModel::deterministic(fig2_model())
                };
                let cache = OrderStatCache::new(straggler);
                cache.warm(16, backup_k);
                let plain = m.strong_curve(1..=16);
                let cached = m.strong_curve_cached(1..=16, &cache);
                assert_eq!(plain.times(), cached.times(), "{straggler:?} strong");
                let plain_w = m.weak_curve(1..=16);
                let cached_w = m.weak_curve_cached(1..=16, &cache);
                assert_eq!(plain_w.times(), cached_w.times(), "{straggler:?} weak");
                let pricing = Pricing::hourly(2.0);
                assert_eq!(
                    m.planner_cached(100.0, 32, pricing, None, &cache).table(),
                    m.planner(100.0, 32, pricing).table(),
                    "{straggler:?} dense planner"
                );
                assert_eq!(
                    m.planner_cached(100.0, 64, pricing, Some(6), &cache)
                        .table(),
                    m.planner_log(100.0, 64, pricing, 6).table(),
                    "{straggler:?} log planner"
                );
            }
        }
    }

    #[test]
    fn one_cache_serves_models_sharing_a_distribution() {
        // The sweep-dedup scenario: two models with different collectives
        // share one delay distribution and one cache; both come out
        // bit-identical to their uncached curves.
        let straggler = StragglerModel::ExponentialTail { mean: 2.0 };
        let cache = OrderStatCache::new(straggler);
        cache.warm(12, 0);
        for comm in [GdComm::Spark, GdComm::Ring, GdComm::TwoStageTree] {
            let m = StragglerGdModel {
                straggler,
                ..StragglerGdModel::deterministic(GradientDescentModel {
                    comm,
                    ..fig2_model()
                })
            };
            assert_eq!(
                m.strong_curve(1..=12).times(),
                m.strong_curve_cached(1..=12, &cache).times(),
                "{comm:?}"
            );
        }
    }

    #[test]
    fn cache_pool_dedups_by_model_and_shares_across_threads() {
        let pool = OrderStatCachePool::new();
        assert!(pool.is_empty());
        let a = pool.cache_for(StragglerModel::ExponentialTail { mean: 1.0 });
        let b = pool.cache_for(StragglerModel::ExponentialTail { mean: 1.0 });
        assert!(Arc::ptr_eq(&a, &b), "same model must share one cache");
        let c = pool.cache_for(StragglerModel::ExponentialTail { mean: 2.0 });
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(pool.len(), 2);

        // Concurrent queries through the shared cache stay bit-identical
        // to the uncached path — the serve worker pool relies on this.
        let direct = a.model().expected_order_stat(12, 2);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let a = Arc::clone(&a);
                scope.spawn(move || {
                    for _ in 0..50 {
                        assert_eq!(a.expected_order_stat(12, 2).to_bits(), direct.to_bits());
                    }
                });
            }
        });
    }

    #[test]
    #[should_panic(expected = "different straggler model")]
    fn cache_for_wrong_model_rejected() {
        let m = StragglerGdModel {
            straggler: StragglerModel::ExponentialTail { mean: 1.0 },
            ..StragglerGdModel::deterministic(fig2_model())
        };
        let cache = OrderStatCache::new(StragglerModel::ExponentialTail { mean: 2.0 });
        let _ = m.strong_curve_cached(1..=4, &cache);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_spread_rejected() {
        let _ = StragglerModel::BoundedJitter { spread: -1.0 }.expected_max(2);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n+1) = n!; the Lanczos form must track ln(n!) to ~1e-13
        // relative across the range the coefficient path uses.
        let mut ln_fact = 0.0f64;
        for n in 1..=170usize {
            ln_fact += (n as f64).ln();
            let got = ln_gamma(n as f64 + 1.0);
            assert!(
                (got - ln_fact).abs() <= 1e-12 * ln_fact.max(1.0),
                "n={n}: {got} vs {ln_fact}"
            );
        }
        assert!(ln_gamma(1.0).abs() < 1e-14, "Γ(1) = 1");
        assert!(ln_gamma(2.0).abs() < 5e-15, "Γ(2) = 1");
    }

    #[test]
    fn inv_normal_cdf_inverts_the_cdf() {
        for p in [
            1e-7,
            1e-4,
            0.02425,
            0.1,
            0.5,
            0.9,
            0.97575,
            0.9999,
            1.0 - 1e-7,
        ] {
            let z = inv_normal_cdf(p);
            let back = normal_cdf(z);
            // normal_cdf itself carries ~1.5e-7 absolute error; the
            // round trip must stay within that noise floor.
            assert!((back - p).abs() < 5e-7, "p={p}: z={z}, back={back}");
        }
        assert!(inv_normal_cdf(0.5).abs() < 1e-9);
        assert!((inv_normal_cdf(0.975) - 1.959_964).abs() < 1e-5);
    }

    #[test]
    fn normal_sf_is_complement_of_cdf() {
        for z in [-3.0, -0.5, 0.0, 0.5, 2.0, 5.0, 8.0] {
            let sf = normal_sf(z);
            assert!((sf - (1.0 - normal_cdf(z))).abs() < 1e-12, "z={z}: sf={sf}");
        }
        // Past the point where 1 − Φ(z) rounds to zero, the direct form
        // still resolves the tail.
        assert!(normal_sf(9.0) > 0.0 && normal_sf(9.0) < 1e-18);
    }

    #[test]
    fn log_coeff_grid_path_is_bit_consistent_with_legacy_loop() {
        // Satellite regression for the m·C(n, k) overflow: re-implement
        // the historical multiplicative coefficient and verify the
        // log-space Simpson path agrees to ~1e-12 relative wherever the
        // legacy coefficient is finite, while the legacy routing itself
        // (n ≤ 512) stays byte-for-byte what the fixtures pinned.
        let grid = LogNormalGrid::new(-1.5, 1.1);
        for (n, k) in [(3usize, 1usize), (64, 2), (200, 100), (512, 256)] {
            let legacy = {
                let m = n - k;
                let mut coeff = m as f64;
                for j in 1..=k {
                    coeff *= (n - j + 1) as f64 / j as f64;
                }
                coeff
            };
            assert!(legacy.is_finite(), "fixture must stay in range");
            let exact = grid.expected_order_stat(n, k);
            let log_form = grid.expected_order_stat_log_coeff(n, k);
            assert!(
                ((exact - log_form) / exact).abs() < 1e-10,
                "n={n} k={k}: loop {exact} vs log {log_form}"
            );
        }
        // The legacy coefficient overflows just past the switch point —
        // the reason the routing exists.
        let mut coeff = 512.0f64;
        for j in 1..=512usize {
            coeff *= (1024 - j + 1) as f64 / j as f64;
        }
        assert!(
            !coeff.is_finite(),
            "C(1024, 512)·512 must overflow f64, got {coeff}"
        );
        assert!(grid.expected_order_stat(1024, 512).is_finite());
    }

    #[test]
    fn exponential_batch_and_per_call_agree_across_the_crossover() {
        // The running-sum → expansion seam sits inside this table; batch
        // and per-call entries must stay bit-identical through it.
        let m = StragglerModel::ExponentialTail { mean: 0.4 };
        let n_max = EXP_ASYMPTOTIC_MIN_N + 40;
        for drop_k in [0usize, 3] {
            let table = m.expected_order_stats(&(1..=n_max).collect::<Vec<_>>(), drop_k);
            for n in (EXP_ASYMPTOTIC_MIN_N - 3)..=n_max {
                let direct = m.expected_order_stat(n, drop_k.min(n - 1));
                assert_eq!(
                    table[n - 1].to_bits(),
                    direct.to_bits(),
                    "n={n}, drop_k={drop_k}"
                );
            }
        }
    }

    #[test]
    fn lognormal_asymptotic_is_continuous_at_the_seam() {
        // Adjacent n on either side of the crossover: the jump between
        // regimes must be far below the physical growth of E[max].
        let m = StragglerModel::LogNormalTail {
            mu: 0.0,
            sigma: 1.0,
        };
        let below = m.expected_order_stat(LOGNORMAL_ASYMPTOTIC_MIN_N, 0);
        let above = m.expected_order_stat(LOGNORMAL_ASYMPTOTIC_MIN_N + 1, 0);
        assert!(above > below, "E[max] grows with n: {below} vs {above}");
        assert!(
            (above - below) / below < 1e-3,
            "seam jump too large: {below} -> {above}"
        );
        // And with drop-k (mid-rank coefficient through ln_gamma).
        let below_k = m.expected_order_stat(LOGNORMAL_ASYMPTOTIC_MIN_N, 5);
        let above_k = m.expected_order_stat(LOGNORMAL_ASYMPTOTIC_MIN_N + 1, 5);
        assert!(
            ((above_k - below_k) / below_k).abs() < 1e-3,
            "drop-k seam jump too large: {below_k} -> {above_k}"
        );
    }

    #[test]
    fn overlapping_warms_keep_the_memo_bit_identical() {
        // Narrow, wide and repeated warms, then 50 nominal drop-k values
        // that clamp to the same keys: each warm fills only what is
        // missing, and the memo still answers bit-identically.
        let cache = OrderStatCache::new(StragglerModel::ExponentialTail { mean: 1.0 });
        cache.warm(8, 0);
        cache.warm(32, 0);
        cache.warm(8, 0);
        for k in 0..50usize {
            cache.warm(4, k);
        }
        let direct = cache.model().expected_order_stat(4, 2);
        assert_eq!(cache.expected_order_stat(4, 2).to_bits(), direct.to_bits());
    }

    #[test]
    fn log_curves_match_dense_curves_on_the_ladder() {
        let m = StragglerGdModel {
            straggler: StragglerModel::ExponentialTail { mean: 2.0 },
            backup_k: 1,
            ..StragglerGdModel::deterministic(fig2_model())
        };
        let dense = m.strong_curve(1..=64);
        let log = m.strong_curve(log_spaced_ns(64, 12));
        for (&n, &t) in log.ns().iter().zip(log.times()) {
            assert_eq!(dense.time_at(n), Some(t), "strong n={n}");
        }
        let dense_w = m.weak_curve(1..=64);
        let log_w = m.weak_curve(log_spaced_ns(64, 12));
        for (&n, &t) in log_w.ns().iter().zip(log_w.times()) {
            assert_eq!(dense_w.time_at(n), Some(t), "weak n={n}");
        }
    }

    #[test]
    fn log_planner_agrees_with_dense_planner_at_moderate_scale() {
        let m = StragglerGdModel {
            straggler: StragglerModel::ExponentialTail { mean: 1.0 },
            ..StragglerGdModel::deterministic(fig2_model())
        };
        let pricing = Pricing::hourly(2.0);
        let dense = m.planner(50.0, 256, pricing);
        let log = m.planner_log(50.0, 256, pricing, 24);
        assert_eq!(log.fastest(), dense.fastest());
        assert_eq!(log.cheapest(), dense.cheapest());
    }
}
