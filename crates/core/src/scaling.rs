//! Strong- and weak-scaling analysis drivers.
//!
//! "Strong scaling is when we fix the input size `D` and vary the number of
//! computing nodes. Weak scaling is when we vary both the input size and the
//! number of nodes." The two practitioner questions from the paper's
//! introduction are answered by [`StrongScaling::nodes_for_time_reduction`]
//! and [`WeakScaling::nodes_for_constant_time`].

use crate::speedup::SpeedupCurve;
use crate::units::Seconds;

/// Strong scaling: fixed total workload, growing cluster.
pub struct StrongScaling<F> {
    time_fn: F,
    max_n: usize,
}

impl<F: Fn(usize) -> Seconds> StrongScaling<F> {
    /// Wraps a model's `t(n)` (total workload fixed inside the closure).
    pub fn new(time_fn: F, max_n: usize) -> Self {
        assert!(max_n >= 1);
        Self { time_fn, max_n }
    }

    /// Speedup curve over `1..=max_n`.
    pub fn curve(&self) -> SpeedupCurve {
        SpeedupCurve::from_fn(1..=self.max_n, &self.time_fn)
    }

    /// Scenario (1) of the paper's introduction: "Given a workload, how many
    /// more machines are needed to decrease the run time by a certain
    /// amount?" Returns the smallest `n ≤ max_n` with
    /// `t(n) ≤ t(current)/factor`, or `None` if unattainable (the required
    /// speedup may exceed the model's optimum).
    pub fn nodes_for_time_reduction(&self, current_n: usize, factor: f64) -> Option<usize> {
        assert!(factor >= 1.0, "reduction factor must be >= 1");
        let target = (self.time_fn)(current_n).as_secs() / factor;
        (current_n..=self.max_n).find(|&n| (self.time_fn)(n).as_secs() <= target)
    }

    /// The optimal cluster size `argmax s(n)` and its speedup.
    pub fn optimal(&self) -> (usize, f64) {
        self.curve().optimal()
    }
}

/// Weak scaling: workload grows with the cluster.
///
/// The workload growth rule is captured in the closure: `time_fn(n)` must
/// return the iteration time when `n` workers process the grown input
/// `D(n)` (e.g. per-worker batch kept constant).
pub struct WeakScaling<F> {
    time_fn: F,
    max_n: usize,
}

impl<F: Fn(usize) -> Seconds> WeakScaling<F> {
    /// Wraps a model's weak-scaling `t(n)`.
    pub fn new(time_fn: F, max_n: usize) -> Self {
        assert!(max_n >= 1);
        Self { time_fn, max_n }
    }

    /// Raw iteration-time curve (constant per-worker workload). Note this is
    /// *not* a speedup in the classic sense: perfect weak scaling keeps the
    /// time flat.
    pub fn iteration_times(&self) -> Vec<(usize, Seconds)> {
        (1..=self.max_n).map(|n| (n, (self.time_fn)(n))).collect()
    }

    /// Scenario (2) of the paper's introduction: "Given an increasing
    /// workload, how many more machines to add to keep the run time the
    /// same?" Finds the smallest `n ≥ current_n` whose *grown-workload*
    /// iteration time stays within `tolerance` (relative) of the current
    /// time when the input grows by `growth` (the per-worker share is
    /// `growth/n·current_n` of the old one, handled by the caller's
    /// `time_fn` being per-worker-constant — so this just searches for the
    /// point where added communication no longer blows the budget).
    ///
    /// Returns `None` when even `max_n` cannot hold the time (e.g. linear
    /// communication saturating).
    pub fn nodes_for_constant_time(
        &self,
        current_n: usize,
        growth: f64,
        tolerance: f64,
    ) -> Option<usize> {
        assert!(growth >= 1.0, "workload growth must be >= 1");
        let budget = (self.time_fn)(current_n).as_secs() * (1.0 + tolerance);
        // With a per-worker-constant time_fn, processing `growth ×` data at
        // the same per-worker share requires `growth × current_n` workers;
        // communication may still push the time over budget, so search
        // upward from there.
        let start = (growth * current_n as f64).ceil() as usize;
        (start..=self.max_n).find(|&n| (self.time_fn)(n).as_secs() <= budget)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Strong model: t(n) = 16/n + 0.1·log2(n).
    fn strong_time(n: usize) -> Seconds {
        Seconds::new(16.0 / n as f64 + 0.1 * (n as f64).log2())
    }

    /// Weak model: t(n) = 1 + 0.05·log2(n) (per-worker batch constant).
    fn weak_time(n: usize) -> Seconds {
        Seconds::new(1.0 + 0.05 * (n as f64).log2())
    }

    #[test]
    fn strong_curve_peaks_interior() {
        let s = StrongScaling::new(strong_time, 128);
        let (n_opt, _) = s.optimal();
        assert!(n_opt > 1 && n_opt < 128);
    }

    #[test]
    fn nodes_for_halving_runtime() {
        let s = StrongScaling::new(strong_time, 128);
        let n = s
            .nodes_for_time_reduction(1, 2.0)
            .expect("halving feasible");
        assert!(strong_time(n).as_secs() <= strong_time(1).as_secs() / 2.0);
        // And it is the smallest such n.
        assert!(strong_time(n - 1).as_secs() > strong_time(1).as_secs() / 2.0);
    }

    #[test]
    fn infeasible_reduction_returns_none() {
        let s = StrongScaling::new(strong_time, 128);
        // t(1)=16; the model's minimum is bounded below by ~0.4, so a
        // 100× reduction is unattainable.
        assert_eq!(s.nodes_for_time_reduction(1, 100.0), None);
    }

    #[test]
    fn weak_iteration_times_grow_slowly() {
        let w = WeakScaling::new(weak_time, 64);
        let times = w.iteration_times();
        assert_eq!(times.len(), 64);
        assert!(times[63].1.as_secs() < 1.5, "log growth stays modest");
    }

    #[test]
    fn nodes_for_constant_time_with_log_comm() {
        let w = WeakScaling::new(weak_time, 1024);
        // Workload doubles from n=8: need ≥16 workers; log comm adds little,
        // so 16 should fit a 10 % tolerance.
        let n = w.nodes_for_constant_time(8, 2.0, 0.10).expect("feasible");
        assert!(n >= 16);
        assert!(weak_time(n).as_secs() <= weak_time(8).as_secs() * 1.10);
    }

    #[test]
    fn nodes_for_constant_time_infeasible_with_linear_comm() {
        // Linear comm: t(n) = 1 + 0.05·n — grows without bound.
        let w = WeakScaling::new(|n| Seconds::new(1.0 + 0.05 * n as f64), 512);
        assert_eq!(w.nodes_for_constant_time(64, 2.0, 0.05), None);
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn reduction_factor_below_one_rejected() {
        let s = StrongScaling::new(strong_time, 8);
        let _ = s.nodes_for_time_reduction(1, 0.5);
    }
}
