//! The paper's gradient-descent scalability model (Section IV-A, V-A).
//!
//! Data-parallel (mini-)batch gradient descent: every worker computes the
//! gradient on its share of the batch, gradients are aggregated at a master
//! and updated parameters are broadcast back. Per iteration:
//!
//! ```text
//! t_cp = C·S / (F·n)                      -- computation
//! t_cm = 2·(bits·W/B)·log₂ n              -- generic tree exchange
//!      | (bits·W/B)·log₂ n + 2·(bits·W/B)·⌈√n⌉   -- Spark (Fig 2)
//!      | 2·n·(bits·W/B)                   -- linear (ablation)
//! ```
//!
//! where `C` is the per-example gradient cost, `S` the batch size, `W` the
//! number of parameters, `F` effective FLOPS per node and `B` the link
//! bandwidth.

pub use crate::comm::GdComm;
use crate::hardware::ClusterSpec;
use crate::speedup::SpeedupCurve;
use crate::units::{Bits, FlopCount, Seconds};

/// Scalability model of synchronous data-parallel gradient descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientDescentModel {
    /// Computation cost `C` of the gradient on one data point
    /// (multiply-adds; for a fully-connected ANN this is `6·W`).
    pub cost_per_example: FlopCount,
    /// Batch size `S`. For strong scaling this is the *total* batch split
    /// across workers; for weak scaling it is the *per-worker* batch.
    pub batch_size: f64,
    /// Number of model parameters `W`.
    pub params: f64,
    /// Bits per parameter (32 for single precision, 64 for Spark's doubles).
    pub bits_per_param: u32,
    /// The cluster executing the workload.
    pub cluster: ClusterSpec,
    /// Communication architecture.
    pub comm: GdComm,
}

impl GradientDescentModel {
    /// Parameter payload volume `bits·W`.
    #[inline]
    pub fn param_volume(&self) -> Bits {
        Bits::params(self.params, self.bits_per_param)
    }

    /// Communication time `t_cm(n)` of the configured collective.
    pub fn comm_time(&self, n: usize) -> Seconds {
        self.comm.time(self.param_volume(), &self.cluster, n)
    }

    /// Strong-scaling computation time: the fixed batch `S` is split across
    /// `n` workers, `t_cp = C·S/(F·n)`.
    pub fn strong_comp_time(&self, n: usize) -> Seconds {
        assert!(n >= 1);
        let total = self.cost_per_example * self.batch_size;
        (total / self.cluster.flops()) / n as f64
    }

    /// Strong-scaling iteration time `t(n) = t_cp(n) + t_cm(n)`.
    pub fn strong_iteration_time(&self, n: usize) -> Seconds {
        self.strong_comp_time(n) + self.comm_time(n)
    }

    /// Weak-scaling iteration time: every worker keeps a full per-worker
    /// batch `S` (the effective global batch grows as `S·n`), so
    /// `t = C·S/F + t_cm(n)`.
    pub fn weak_iteration_time(&self, n: usize) -> Seconds {
        assert!(n >= 1);
        let per_worker = self.cost_per_example * self.batch_size;
        per_worker / self.cluster.flops() + self.comm_time(n)
    }

    /// The paper's Fig 3 metric: "time complexity of processing of one
    /// instance", `t = (C·S/F + t_cm(n)) / n` (up to the constant factor
    /// `S`, which cancels in speedups).
    pub fn weak_per_instance_time(&self, n: usize) -> Seconds {
        self.weak_iteration_time(n) / n as f64
    }

    /// Strong-scaling speedup curve over worker counts `ns`.
    pub fn strong_curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        SpeedupCurve::from_fn(ns, |n| self.strong_iteration_time(n))
    }

    /// Weak-scaling per-instance speedup curve over `ns`.
    pub fn weak_curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        SpeedupCurve::from_fn(ns, |n| self.weak_per_instance_time(n))
    }

    /// Worker count where strong-scaling communication first exceeds
    /// computation — past this point most of the superstep is overhead.
    pub fn comm_dominance_onset(&self, max_n: usize) -> Option<usize> {
        (2..=max_n).find(|&n| self.comm_time(n) > self.strong_comp_time(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::presets;

    /// The Fig 2 configuration: MNIST FC network on the Spark cluster.
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

    /// The Fig 3 configuration: Inception v3 on a K40 cluster.
    fn fig3_model() -> GradientDescentModel {
        GradientDescentModel {
            cost_per_example: FlopCount::new(3.0 * 5e9),
            batch_size: 128.0,
            params: 25e6,
            bits_per_param: 32,
            cluster: presets::gpu_cluster(),
            comm: GdComm::TwoStageTree,
        }
    }

    #[test]
    fn strong_comp_matches_formula() {
        let m = fig2_model();
        let n = 5;
        let expected = 6.0 * 12e6 * 60_000.0 / (0.8 * 105.6e9 * n as f64);
        assert!((m.strong_comp_time(n).as_secs() - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn spark_comm_matches_formula() {
        let m = fig2_model();
        let n = 9;
        let unit = 64.0 * 12e6 / 1e9;
        let expected = unit * (n as f64).log2() + 2.0 * unit * 3.0;
        assert!((m.comm_time(n).as_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn fig2_optimum_is_nine_workers_in_plotted_range() {
        // "The model suggests that the optimal number of workers is nine."
        // Over the paper's plotted range the argmax is exactly 9; past it
        // the ⌈√n⌉ staircase produces a flat plateau (s(16) ≈ s(9)), which
        // the experiment harness reports.
        let curve = fig2_model().strong_curve(1..=13);
        let (n_opt, s_opt) = curve.optimal();
        assert_eq!(n_opt, 9, "expected optimum at 9 workers (s={s_opt:.3})");
        assert!(
            s_opt > 3.5 && s_opt < 4.5,
            "paper's peak speedup is ≈4, got {s_opt:.3}"
        );
    }

    #[test]
    fn fig2_wider_range_stays_on_plateau() {
        let curve = fig2_model().strong_curve(1..=32);
        let s9 = curve.speedup_at(9).unwrap();
        let (_, s_opt) = curve.optimal();
        assert!(
            s_opt <= 1.1 * s9,
            "nothing beats 9 workers by more than 10 %"
        );
    }

    #[test]
    fn fig2_no_communication_time_at_one_worker() {
        let m = fig2_model();
        assert!(m.comm_time(1).is_zero());
        assert_eq!(m.strong_iteration_time(1), m.strong_comp_time(1));
    }

    #[test]
    fn fig3_weak_scaling_is_monotone_with_tree_comm() {
        // "Such assumption [logarithmic communication] allows infinite weak
        // scaling, i.e. adding more workers always increases single instance
        // speedup."
        // (From n = 2 on: going from 1 to 2 workers introduces the first
        // communication, so the curve may tick up there before the 1/n
        // amortisation takes over.)
        let m = fig3_model();
        let mut prev = f64::INFINITY;
        for n in 2..=256 {
            let t = m.weak_per_instance_time(n).as_secs();
            assert!(
                t < prev,
                "per-instance time must strictly decrease at n={n}"
            );
            prev = t;
        }
    }

    #[test]
    fn linear_comm_weak_scaling_saturates() {
        // "The linear communication model allows only finite scaling: after
        // enough workers added, the speedup remains constant."
        let m = GradientDescentModel {
            comm: GdComm::LinearFlat,
            ..fig3_model()
        };
        let t64 = m.weak_per_instance_time(64).as_secs();
        let t128 = m.weak_per_instance_time(128).as_secs();
        let t4096 = m.weak_per_instance_time(4096).as_secs();
        // Saturation: large-n per-instance times converge to the constant
        // 2·bits·W/B rather than continuing to drop proportionally.
        let drop_small = t64 / t128;
        let drop_large = t128 / t4096;
        assert!(drop_small < 2.0, "already saturating");
        assert!(
            drop_large < 1.2,
            "fully saturated at large n, got {drop_large}"
        );
    }

    #[test]
    fn fig3_rebased_at_50_matches_paper_convention() {
        let m = fig3_model();
        let curve = m.weak_curve(vec![25, 50, 100, 200]).rebased(50);
        assert!((curve.speedup_at(50).unwrap() - 1.0).abs() < 1e-12);
        assert!(curve.speedup_at(100).unwrap() > 1.0);
        assert!(curve.speedup_at(25).unwrap() < 1.0);
    }

    #[test]
    fn comm_dominance_onset_exists_for_fig2() {
        let m = fig2_model();
        let onset = m
            .comm_dominance_onset(64)
            .expect("comm must dominate eventually");
        assert!(onset > 1);
        // Before the onset computation dominates.
        assert!(m.strong_comp_time(onset - 1) >= m.comm_time(onset - 1));
    }

    #[test]
    fn ring_comm_beats_tree_for_large_n() {
        let tree = fig3_model();
        let ring = GradientDescentModel {
            comm: GdComm::Ring,
            ..fig3_model()
        };
        assert!(ring.comm_time(256) < tree.comm_time(256));
    }

    #[test]
    fn halving_doubling_beats_ring_on_latency_bound_links() {
        use crate::hardware::{ClusterSpec, LinkSpec};
        use crate::units::{BitsPerSec, Seconds};
        let cluster = ClusterSpec::new(
            presets::nvidia_k40(),
            LinkSpec::new(BitsPerSec::giga(100.0), Seconds::from_micros(20.0)),
        );
        let hd = GradientDescentModel {
            comm: GdComm::HalvingDoubling,
            cluster,
            ..fig3_model()
        };
        let ring = GradientDescentModel {
            comm: GdComm::Ring,
            cluster,
            ..fig3_model()
        };
        // 25e6 params · 32 bit / 100 Gbit/s = 8 ms serialisation; at n=64
        // ring pays 126 × 20 µs = 2.5 ms extra latency vs the tree's
        // 12 × 20 µs — the α term decides once volume terms are close.
        assert!(hd.comm_time(64) < ring.comm_time(64));
    }

    #[test]
    fn latency_free_cluster_keeps_paper_predictions() {
        // spark_cluster has a bandwidth-only link, so the α–β wrapper must
        // not engage and the Fig 2 optimum stays at 9.
        let m = fig2_model();
        assert!(m.cluster.link.latency.is_zero());
        let (n_opt, _) = m.strong_curve(1..=13).optimal();
        assert_eq!(n_opt, 9);
    }

    #[test]
    fn hierarchical_comm_scales_past_flat_optimum() {
        let flat = fig2_model();
        let hier = GradientDescentModel {
            cluster: presets::two_tier_pod(),
            comm: GdComm::Hierarchical,
            ..fig2_model()
        };
        let (n_flat, s_flat) = flat.strong_curve(1..=64).optimal();
        let (n_hier, s_hier) = hier.strong_curve(1..=64).optimal();
        assert!(
            n_hier > n_flat,
            "racked pod must push the optimum out: flat {n_flat}, hier {n_hier}"
        );
        assert!(s_hier > s_flat);
    }

    #[test]
    fn hierarchical_on_flat_cluster_is_tree_like() {
        let m = GradientDescentModel {
            comm: GdComm::Hierarchical,
            ..fig2_model()
        };
        // One big rack: 2·⌈log₂ n⌉ rounds of the full payload.
        let unit = 64.0 * 12e6 / 1e9;
        assert!((m.comm_time(8).as_secs() - 2.0 * 3.0 * unit).abs() < 1e-9);
        assert!(m.comm_time(1).is_zero());
    }

    #[test]
    fn param_volume_uses_bits_per_param() {
        let m = fig2_model();
        assert_eq!(m.param_volume().get(), 64.0 * 12e6);
        let m32 = GradientDescentModel {
            bits_per_param: 32,
            ..m
        };
        assert_eq!(m32.param_volume().get(), 32.0 * 12e6);
    }

    #[test]
    fn none_comm_scales_perfectly() {
        let m = GradientDescentModel {
            comm: GdComm::None,
            ..fig2_model()
        };
        let c = m.strong_curve(1..=32);
        for (n, s) in c.speedups() {
            assert!(
                (s - n as f64).abs() < 1e-9,
                "perfect linear speedup expected"
            );
        }
    }
}
