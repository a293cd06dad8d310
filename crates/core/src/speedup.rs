//! Speedup analysis: the paper's headline output.
//!
//! "We use speedup to measure the effectiveness of a distributed machine
//! learning algorithm: `s(n) = t(1)/t(n)` … We use speedup rather than the
//! total time itself because, being a relative metric, speedup equation
//! cancels out proportional systematic errors. The algorithm is scalable if
//! there exists `k` such that `s(k) > 1`. The optimal number of nodes is
//! `N = argmax s(n)`."

use crate::units::Seconds;

/// Largest `max_n` the dense `1..=max_n` evaluation paths accept.
///
/// Below this every curve, planner and cache-warm materialises one entry
/// per worker count — exactly the pre-existing behaviour, so all golden
/// fixtures (n ≤ 64) and scenario sweeps (n ≤ 80) are untouched. Above
/// it a dense table would cost O(max_n) memory and model calls to answer
/// questions whose information content is O(hundreds) of points; callers
/// must switch to the log-spaced paths ([`log_spaced_ns`],
/// `Planner::new_log`) instead, and the scenario/CLI layers reject dense
/// requests past this limit with a named diagnostic rather than
/// exhausting memory.
pub const DENSE_EVAL_MAX_N: usize = 16_384;

/// A geometric ladder of worker counts: `points` values spaced evenly in
/// `ln n` over `[1, max_n]`, deduplicated (small `n` rounds to repeats),
/// strictly increasing, always containing both `1` and `max_n`.
///
/// This is how a `10⁶`-worker curve stays O(hundreds) of model calls:
/// speedup curves vary on a multiplicative scale, so resolving each
/// decade with the same point count loses nothing a dense sweep would
/// see.
///
/// # Panics
/// Panics when `max_n == 0` or `points < 2` (a ladder needs both ends).
pub fn log_spaced_ns(max_n: usize, points: usize) -> Vec<usize> {
    assert!(max_n >= 1, "need at least one worker count");
    assert!(points >= 2, "a log ladder needs at least its two endpoints");
    if max_n == 1 {
        return vec![1];
    }
    let ln_max = (max_n as f64).ln();
    let mut ns: Vec<usize> = (0..points)
        .map(|i| {
            let rung = (ln_max * i as f64 / (points - 1) as f64).exp();
            (rung.round() as usize).clamp(1, max_n)
        })
        .collect();
    ns.dedup();
    // The exp/round of the last rung recovers max_n exactly for every
    // max_n an usize can hold, but the top of the range must not hinge
    // on a libm ulp — pin it.
    if ns.last() != Some(&max_n) {
        ns.push(max_n);
    }
    ns
}

/// A time function evaluated over a range of worker counts, with derived
/// speedup/efficiency analysis.
///
/// The curve is stored as explicit `(n, t(n))` samples so it can represent
/// analytic models, simulator output and external measurements uniformly.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupCurve {
    /// Worker counts, strictly increasing.
    ns: Vec<usize>,
    /// `t(n)` for each entry of `ns`.
    times: Vec<Seconds>,
    /// Baseline time used as the speedup numerator (defaults to `t` at the
    /// smallest sampled `n`).
    baseline: Seconds,
    /// The `n` the baseline corresponds to (1 for absolute speedup; the
    /// paper's Fig 3 uses 50).
    baseline_n: usize,
}

impl SpeedupCurve {
    /// Evaluates `time(n)` over `ns` and uses the smallest `n` as baseline.
    ///
    /// # Panics
    /// Panics if `ns` is empty or not strictly increasing.
    pub fn from_fn(
        ns: impl IntoIterator<Item = usize>,
        mut time: impl FnMut(usize) -> Seconds,
    ) -> Self {
        let ns: Vec<usize> = ns.into_iter().collect();
        assert!(!ns.is_empty(), "need at least one worker count");
        assert!(
            ns.windows(2).all(|w| w[0] < w[1]),
            "worker counts must be strictly increasing"
        );
        let times: Vec<Seconds> = ns.iter().map(|&n| time(n)).collect();
        let baseline = times[0];
        let baseline_n = ns[0];
        Self {
            ns,
            times,
            baseline,
            baseline_n,
        }
    }

    /// Builds a curve from explicit samples (e.g. measurements).
    ///
    /// # Panics
    /// Panics if the sample list is empty or `n`s are not strictly
    /// increasing.
    pub fn from_samples(samples: impl IntoIterator<Item = (usize, Seconds)>) -> Self {
        let (ns, times): (Vec<usize>, Vec<Seconds>) = samples.into_iter().unzip();
        assert!(!ns.is_empty(), "need at least one sample");
        assert!(
            ns.windows(2).all(|w| w[0] < w[1]),
            "worker counts must be strictly increasing"
        );
        let baseline = times[0];
        let baseline_n = ns[0];
        Self {
            ns,
            times,
            baseline,
            baseline_n,
        }
    }

    /// Re-bases the curve on the time at `n0` (must be a sampled point).
    /// Fig 3 of the paper reports "speedup … relative to 50 nodes".
    ///
    /// # Panics
    /// Panics if `n0` is not among the sampled worker counts.
    #[must_use]
    pub fn rebased(mut self, n0: usize) -> Self {
        let idx = self
            .ns
            .iter()
            .position(|&n| n == n0)
            // lint: allow(panic-free-lib): documented # Panics contract — the baseline n0 must be one of the sampled ns
            .unwrap_or_else(|| panic!("baseline n={n0} not sampled"));
        self.baseline = self.times[idx];
        self.baseline_n = n0;
        self
    }

    /// Sampled worker counts.
    pub fn ns(&self) -> &[usize] {
        &self.ns
    }

    /// Sampled times.
    pub fn times(&self) -> &[Seconds] {
        &self.times
    }

    /// The baseline `(n, t)` pair the speedups are relative to.
    pub fn baseline(&self) -> (usize, Seconds) {
        (self.baseline_n, self.baseline)
    }

    /// `t(n)` at a sampled point.
    pub fn time_at(&self, n: usize) -> Option<Seconds> {
        self.ns.iter().position(|&m| m == n).map(|i| self.times[i])
    }

    /// Speedup `s(n) = t(baseline)/t(n)` at a sampled point.
    pub fn speedup_at(&self, n: usize) -> Option<f64> {
        self.time_at(n).map(|t| self.baseline / t)
    }

    /// All `(n, s(n))` pairs.
    pub fn speedups(&self) -> Vec<(usize, f64)> {
        self.ns
            .iter()
            .zip(&self.times)
            .map(|(&n, &t)| (n, self.baseline / t))
            .collect()
    }

    /// Parallel efficiency `e(n) = s(n)·baseline_n/n` — the fraction of
    /// ideal (linear-from-baseline) speedup achieved.
    pub fn efficiencies(&self) -> Vec<(usize, f64)> {
        self.speedups()
            .into_iter()
            .map(|(n, s)| (n, s * self.baseline_n as f64 / n as f64))
            .collect()
    }

    /// The optimal worker count `N = argmax_n s(n)` and the speedup there.
    /// Ties break toward the smaller `n` (fewer machines for equal time).
    pub fn optimal(&self) -> (usize, f64) {
        let mut best = (self.ns[0], self.baseline / self.times[0]);
        for (&n, &t) in self.ns.iter().zip(&self.times) {
            let s = self.baseline / t;
            if s > best.1 + 1e-12 {
                best = (n, s);
            }
        }
        best
    }

    /// Largest sampled `n` whose speedup is within `fraction` of the
    /// optimum — the "knee" beyond which adding machines buys little.
    pub fn knee(&self, fraction: f64) -> usize {
        assert!((0.0..=1.0).contains(&fraction));
        let (_, s_max) = self.optimal();
        self.speedups()
            .iter()
            .filter(|&&(_, s)| s >= fraction * s_max)
            .map(|&(n, _)| n)
            .min()
            .unwrap_or(self.baseline_n)
    }

    /// Pretty one-line-per-point table used by the experiment binaries.
    pub fn to_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:>6} {:>14} {:>10} {:>10}",
            "n", "t(n) [s]", "s(n)", "eff"
        );
        for ((&n, &t), (_, e)) in self.ns.iter().zip(&self.times).zip(self.efficiencies()) {
            let s = self.baseline / t;
            let _ = writeln!(
                out,
                "{:>6} {:>14.6e} {:>10.4} {:>10.4}",
                n,
                t.as_secs(),
                s,
                e
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple t(n) = 1/n + 0.05·log2(n): peak interior (≈ n = 14).
    fn sample_curve() -> SpeedupCurve {
        SpeedupCurve::from_fn(1..=64, |n| {
            Seconds::new(1.0 / n as f64 + 0.05 * (n as f64).log2())
        })
    }

    #[test]
    fn speedup_at_baseline_is_one() {
        let c = sample_curve();
        assert!((c.speedup_at(1).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn optimal_is_interior_peak() {
        let c = sample_curve();
        let (n_opt, s_opt) = c.optimal();
        assert!(
            n_opt > 1 && n_opt < 64,
            "peak should be interior, got {n_opt}"
        );
        assert!(s_opt > 1.0);
        // Every other sampled point is no better.
        for (_, s) in c.speedups() {
            assert!(s <= s_opt + 1e-12);
        }
    }

    #[test]
    fn unscalable_curve_detected() {
        // Communication so expensive the time only grows.
        let c = SpeedupCurve::from_fn(1..=8, |n| Seconds::new(1.0 + n as f64));
        assert_eq!(c.optimal().0, 1);
    }

    #[test]
    fn rebase_matches_fig3_convention() {
        let c = SpeedupCurve::from_fn([50, 100], |n| Seconds::new(100.0 / n as f64)).rebased(50);
        assert_eq!(c.baseline(), (50, Seconds::new(2.0)));
        assert!((c.speedup_at(100).unwrap() - 2.0).abs() < 1e-12);
        assert!((c.speedup_at(50).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn efficiency_of_perfect_scaling_is_one() {
        let c = SpeedupCurve::from_fn(1..=16, |n| Seconds::new(1.0 / n as f64));
        for (_, e) in c.efficiencies() {
            assert!((e - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn efficiency_relative_to_baseline_n() {
        // Perfect scaling sampled from n=2: efficiencies still 1.
        let c = SpeedupCurve::from_fn(2..=8, |n| Seconds::new(1.0 / n as f64));
        for (_, e) in c.efficiencies() {
            assert!((e - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn knee_below_optimal() {
        let c = sample_curve();
        let knee = c.knee(0.9);
        let (n_opt, s_opt) = c.optimal();
        assert!(knee <= n_opt);
        assert!(c.speedup_at(knee).unwrap() >= 0.9 * s_opt);
    }

    #[test]
    fn from_samples_roundtrip() {
        let c = SpeedupCurve::from_samples([
            (1, Seconds::new(10.0)),
            (2, Seconds::new(6.0)),
            (4, Seconds::new(4.0)),
        ]);
        assert_eq!(c.ns(), &[1, 2, 4]);
        assert!((c.speedup_at(4).unwrap() - 2.5).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_samples_rejected() {
        let _ = SpeedupCurve::from_samples([(2, Seconds::new(1.0)), (1, Seconds::new(2.0))]);
    }

    #[test]
    #[should_panic(expected = "not sampled")]
    fn rebase_requires_sampled_point() {
        let _ = sample_curve().rebased(1000);
    }

    #[test]
    fn table_has_row_per_point() {
        let c = sample_curve();
        let table = c.to_table();
        assert_eq!(table.lines().count(), 1 + c.ns().len());
    }

    #[test]
    fn log_ladder_spans_the_range_strictly_increasing() {
        for (max_n, points) in [
            (1usize, 2usize),
            (2, 2),
            (64, 10),
            (1000, 40),
            (1_000_000, 200),
        ] {
            let ns = log_spaced_ns(max_n, points);
            assert_eq!(ns[0], 1, "max_n={max_n}");
            assert_eq!(*ns.last().unwrap(), max_n, "max_n={max_n}");
            assert!(
                ns.windows(2).all(|w| w[0] < w[1]),
                "max_n={max_n}: not strictly increasing: {ns:?}"
            );
            assert!(ns.len() <= points + 1, "max_n={max_n}: {} rungs", ns.len());
        }
    }

    #[test]
    fn log_ladder_is_dense_at_small_max_n() {
        // With more points than decades·density the ladder degenerates to
        // the full range — small sweeps lose nothing to log mode.
        assert_eq!(log_spaced_ns(8, 64), vec![1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn ties_break_to_smaller_n() {
        let c = SpeedupCurve::from_samples([
            (1, Seconds::new(2.0)),
            (2, Seconds::new(1.0)),
            (3, Seconds::new(1.0)),
        ]);
        assert_eq!(c.optimal().0, 2);
    }
}
