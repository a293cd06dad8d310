//! Hardware descriptions: compute nodes, network links and clusters.
//!
//! The paper's framework deliberately needs *only* a hardware specification
//! — no profiling runs. A node is characterised by its peak floating-point
//! rate and an efficiency factor ("we assume that one can reach at most 80 %
//! of the peak FLOPS"); a link by its bandwidth and (optionally) per-message
//! latency. Presets for the exact hardware used in the paper's evaluation
//! are provided in [`presets`].

use crate::units::{BitsPerSec, FlopsRate, Seconds};

/// A homogeneous compute node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeSpec {
    /// Peak floating-point rate of the node.
    pub peak: FlopsRate,
    /// Fraction of the peak that real workloads achieve, in `(0, 1]`.
    pub efficiency: f64,
}

impl NodeSpec {
    /// Creates a node spec.
    ///
    /// # Panics
    /// Panics if `efficiency` is not in `(0, 1]`.
    pub fn new(peak: FlopsRate, efficiency: f64) -> Self {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        Self { peak, efficiency }
    }

    /// Effective sustained rate `F = efficiency · peak`, the `F` used in all
    /// of the paper's formulas.
    #[inline]
    pub fn effective(&self) -> FlopsRate {
        self.peak * self.efficiency
    }
}

/// A network link (or the shared communication medium of the cluster).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Sustained bandwidth `B`.
    pub bandwidth: BitsPerSec,
    /// Fixed per-message latency (setup cost). The paper's formulas omit
    /// latency (bandwidth-dominated regime); the simulator can include it.
    pub latency: Seconds,
}

impl LinkSpec {
    /// A link with bandwidth only (zero latency), matching the paper's
    /// bandwidth-dominated communication model.
    pub fn bandwidth_only(bandwidth: BitsPerSec) -> Self {
        Self {
            bandwidth,
            latency: Seconds::zero(),
        }
    }

    /// A link with bandwidth and per-message latency.
    pub fn new(bandwidth: BitsPerSec, latency: Seconds) -> Self {
        Self { bandwidth, latency }
    }
}

/// Two-tier rack topology: workers are grouped into racks of
/// `nodes_per_rack`, joined inside a rack by the cluster's base link and
/// between racks by a (typically slower, higher-latency) `uplink`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RackSpec {
    /// Workers per rack (the intra-rack collective's fan-in).
    pub nodes_per_rack: usize,
    /// Inter-rack link capability (top-of-rack uplink).
    pub uplink: LinkSpec,
}

impl RackSpec {
    /// Creates a rack spec.
    ///
    /// # Panics
    /// Panics when `nodes_per_rack == 0`.
    pub fn new(nodes_per_rack: usize, uplink: LinkSpec) -> Self {
        assert!(nodes_per_rack >= 1, "racks must hold at least one node");
        Self {
            nodes_per_rack,
            uplink,
        }
    }
}

/// A homogeneous cluster: `n` identical nodes joined by identical links —
/// optionally arranged in a two-tier rack topology ([`RackSpec`]).
///
/// The number of *workers* is a model input that varies per evaluation
/// point, so `ClusterSpec` intentionally does not store it; it describes
/// what one node and one link look like. With a rack topology, `link` is
/// the *intra-rack* link and `rack.uplink` joins the racks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Per-node compute capability.
    pub node: NodeSpec,
    /// Inter-node link capability (intra-rack when `rack` is set).
    pub link: LinkSpec,
    /// Optional two-tier rack topology.
    pub rack: Option<RackSpec>,
}

impl ClusterSpec {
    /// Creates a flat (single-tier) cluster from node and link specs.
    pub fn new(node: NodeSpec, link: LinkSpec) -> Self {
        Self {
            node,
            link,
            rack: None,
        }
    }

    /// Arranges the cluster in racks: `link` becomes the intra-rack link
    /// and `rack.uplink` joins the racks.
    #[must_use]
    pub fn with_racks(mut self, rack: RackSpec) -> Self {
        self.rack = Some(rack);
        self
    }

    /// Effective per-node compute rate `F`.
    #[inline]
    pub fn flops(&self) -> FlopsRate {
        self.node.effective()
    }

    /// Link bandwidth `B` (intra-rack when a rack topology is set).
    #[inline]
    pub fn bandwidth(&self) -> BitsPerSec {
        self.link.bandwidth
    }

    /// The rack index of a worker (`1..=n`; the master, node 0, lives in
    /// rack 0). Flat clusters are one big rack.
    #[inline]
    pub fn rack_of(&self, node: usize) -> usize {
        match (node, self.rack) {
            (0, _) | (_, None) => 0,
            (w, Some(r)) => (w - 1) / r.nodes_per_rack,
        }
    }

    /// Number of racks occupied by `n` workers (1 for a flat cluster).
    #[inline]
    pub fn racks_for(&self, n: usize) -> usize {
        match self.rack {
            None => 1,
            Some(r) => n.div_ceil(r.nodes_per_rack).max(1),
        }
    }

    /// The link joining two nodes: the base link inside a rack, the rack
    /// uplink across racks.
    #[inline]
    pub fn link_between(&self, a: usize, b: usize) -> LinkSpec {
        match self.rack {
            Some(r) if self.rack_of(a) != self.rack_of(b) => r.uplink,
            _ => self.link,
        }
    }
}

/// Compute-speed heterogeneity across the workers of a cluster.
///
/// The paper's framework assumes `n` *identical* nodes; real fleets mix
/// hardware generations and noisy neighbours. A `Heterogeneity` value maps
/// a cluster and a worker count to per-worker speed multipliers (1.0 =
/// nominal), consumed by the straggler-aware models
/// ([`crate::straggler`]) and by the discrete-event simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Heterogeneity {
    /// All workers run at nominal speed (the paper's assumption).
    Uniform,
    /// `count` of the workers (the first ones) run at `factor`× nominal
    /// speed — a batch of older or throttled machines.
    SlowWorkers {
        /// How many workers are degraded (clamped to `n`).
        count: usize,
        /// Their speed multiplier, in `(0, ∞)`; `0.5` = half speed.
        factor: f64,
    },
    /// Rack `r` runs at `factor^r` of nominal — generational drift across
    /// racks (rack 0 newest). Needs a [`RackSpec`] topology to be
    /// meaningful; on a flat cluster every worker sits in rack 0 and the
    /// cluster stays homogeneous.
    RackDecay {
        /// Per-rack geometric speed factor, in `(0, ∞)`.
        factor: f64,
    },
}

impl Heterogeneity {
    /// Per-worker speed multipliers for `n` workers of `cluster` as
    /// `(factor, count)` runs in worker order, equal neighbours merged:
    /// `count` consecutive workers run at `factor`× nominal speed. This is
    /// the one definition of the speed factors. `Uniform` is one run,
    /// `SlowWorkers` at most two and `RackDecay` one per occupied rack, so
    /// the straggler models never build an `n`-element vector to learn
    /// that a cluster is homogeneous.
    ///
    /// # Panics
    /// Panics when a speed factor is not positive and finite.
    pub fn speed_runs(&self, cluster: &ClusterSpec, n: usize) -> Vec<(f64, usize)> {
        let check = |f: f64| {
            assert!(
                f > 0.0 && f.is_finite(),
                "speed factor must be positive and finite, got {f}"
            );
            f
        };
        match *self {
            Heterogeneity::Uniform => merged_runs([(1.0, n)]),
            Heterogeneity::SlowWorkers { count, factor } => {
                let slow = count.min(n);
                merged_runs([(check(factor), slow), (1.0, n - slow)])
            }
            Heterogeneity::RackDecay { factor } => {
                check(factor);
                // A flat cluster is one rack holding every worker.
                let per_rack = cluster.rack.map_or(n.max(1), |r| r.nodes_per_rack);
                merged_runs((0..n.div_ceil(per_rack)).map(|rack| {
                    let factor = check(factor.powi(rack as i32));
                    (factor, per_rack.min(n - rack * per_rack))
                }))
            }
        }
    }

    /// Per-worker speed multipliers for `n` workers of `cluster`
    /// (`result[w]` multiplies worker `w+1`'s compute rate): the expansion
    /// of [`Self::speed_runs`], for the simulator's per-node rates.
    ///
    /// # Panics
    /// Panics when a speed factor is not positive and finite.
    pub fn speed_factors(&self, cluster: &ClusterSpec, n: usize) -> Vec<f64> {
        self.speed_runs(cluster, n)
            .into_iter()
            .flat_map(|(factor, count)| std::iter::repeat_n(factor, count))
            .collect()
    }
}

/// Collects `(value, count)` runs, dropping empty runs and merging equal
/// neighbours (by `==`, keeping the first value), so that a run list is
/// one run exactly when every element it stands for is equal.
pub(crate) fn merged_runs(runs: impl IntoIterator<Item = (f64, usize)>) -> Vec<(f64, usize)> {
    let mut merged: Vec<(f64, usize)> = Vec::new();
    for (value, count) in runs {
        if count == 0 {
            continue;
        }
        match merged.last_mut() {
            Some((last, total)) if *last == value => *total += count,
            _ => merged.push((value, count)),
        }
    }
    merged
}

/// Hardware presets used in the paper's evaluation (Section V).
pub mod presets {
    use super::*;

    /// Intel Xeon E3-1240: 211.2 GFLOPS peak, of which the paper assumes at
    /// most 80 % reachable. In double precision the usable peak is half,
    /// `0.8 · 105.6 · 10⁹` flop/s — the `F` of the Fig 2 experiment.
    pub fn xeon_e3_1240_double() -> NodeSpec {
        NodeSpec::new(FlopsRate::giga(105.6), 0.8)
    }

    /// nVidia K40 GPU: 4.28 TFLOPS peak, of which the paper assumes at most
    /// 50 % reachable — the `F` of the Fig 3 experiment.
    pub fn nvidia_k40() -> NodeSpec {
        NodeSpec::new(FlopsRate::tera(4.28), 0.5)
    }

    /// One core of the HP ProLiant DL980 used in the Fig 4 experiment
    /// (80 cores at 1.9 GHz). `F` is factored out of the speedup in the
    /// shared-memory experiment, so only relative rates matter; we charge
    /// 4 flops per cycle as a generic superscalar estimate.
    pub fn dl980_core() -> NodeSpec {
        NodeSpec::new(FlopsRate::giga(1.9 * 4.0), 1.0)
    }

    /// 1 Gbit/s Ethernet, the interconnect of both the Spark cluster (Fig 2)
    /// and the modelled GPU cluster (Fig 3).
    pub fn gigabit_ethernet() -> LinkSpec {
        LinkSpec::bandwidth_only(BitsPerSec::giga(1.0))
    }

    /// Shared memory "link": effectively infinite bandwidth. Used for the
    /// Fig 4 experiment where "communication time complexity is negligible
    /// because all communications happen in the shared memory".
    pub fn shared_memory() -> LinkSpec {
        LinkSpec::bandwidth_only(BitsPerSec::new(f64::INFINITY))
    }

    /// The Fig 2 cluster: Xeon E3-1240 workers on gigabit Ethernet.
    pub fn spark_cluster() -> ClusterSpec {
        ClusterSpec::new(xeon_e3_1240_double(), gigabit_ethernet())
    }

    /// The Fig 3 cluster: K40 GPUs on gigabit Ethernet.
    pub fn gpu_cluster() -> ClusterSpec {
        ClusterSpec::new(nvidia_k40(), gigabit_ethernet())
    }

    /// The Fig 4 machine: DL980 cores over shared memory.
    pub fn dl980() -> ClusterSpec {
        ClusterSpec::new(dl980_core(), shared_memory())
    }

    /// A modern two-tier datacenter pod: 10 Gbit/s intra-rack links with
    /// 5 µs per-message latency, racks of 16 nodes, and a 1 Gbit/s
    /// top-of-rack uplink with 50 µs latency. This is the regime the
    /// paper's flat bandwidth-only models cannot describe: small messages
    /// are latency-bound and cross-rack hops cost an order of magnitude
    /// more than local ones.
    pub fn two_tier_pod() -> ClusterSpec {
        ClusterSpec::new(
            xeon_e3_1240_double(),
            LinkSpec::new(BitsPerSec::giga(10.0), Seconds::from_micros(5.0)),
        )
        .with_racks(RackSpec::new(
            16,
            LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_micros(50.0)),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::presets::*;
    use super::*;

    #[test]
    fn effective_rate_applies_efficiency() {
        let node = NodeSpec::new(FlopsRate::giga(100.0), 0.8);
        assert!((node.effective().get() - 80e9).abs() < 1e-3);
    }

    #[test]
    fn xeon_preset_matches_paper_f() {
        // Paper: F = 0.8 · 105.6 · 10⁹ double-precision FLOPS.
        let f = xeon_e3_1240_double().effective();
        assert!((f.get() - 0.8 * 105.6e9).abs() < 1.0);
    }

    #[test]
    fn k40_preset_matches_paper_f() {
        // Paper: 4.28 TFLOPS at most 50 % of peak.
        let f = nvidia_k40().effective();
        assert!((f.get() - 0.5 * 4.28e12).abs() < 1.0);
    }

    #[test]
    fn gigabit_is_1e9() {
        assert_eq!(gigabit_ethernet().bandwidth.get(), 1e9);
    }

    #[test]
    fn shared_memory_is_infinite_bandwidth() {
        assert_eq!(shared_memory().bandwidth.get(), f64::INFINITY);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn zero_efficiency_rejected() {
        let _ = NodeSpec::new(FlopsRate::giga(1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "efficiency")]
    fn over_unity_efficiency_rejected() {
        let _ = NodeSpec::new(FlopsRate::giga(1.0), 1.5);
    }

    #[test]
    fn cluster_accessors() {
        let c = spark_cluster();
        assert_eq!(c.flops(), c.node.effective());
        assert_eq!(c.bandwidth().get(), 1e9);
    }

    #[test]
    fn flat_cluster_is_one_rack() {
        let c = spark_cluster();
        assert_eq!(c.rack_of(0), 0);
        assert_eq!(c.rack_of(37), 0);
        assert_eq!(c.racks_for(100), 1);
        assert_eq!(c.link_between(1, 99), c.link);
    }

    #[test]
    fn rack_assignment_groups_workers() {
        let c = two_tier_pod();
        // Workers 1..=16 in rack 0, 17..=32 in rack 1, master with rack 0.
        assert_eq!(c.rack_of(1), 0);
        assert_eq!(c.rack_of(16), 0);
        assert_eq!(c.rack_of(17), 1);
        assert_eq!(c.rack_of(0), 0);
        assert_eq!(c.racks_for(16), 1);
        assert_eq!(c.racks_for(17), 2);
        assert_eq!(c.racks_for(64), 4);
    }

    #[test]
    fn link_selection_follows_rack_boundary() {
        let c = two_tier_pod();
        let rack = c.rack.unwrap();
        assert_eq!(c.link_between(1, 16), c.link, "same rack: intra link");
        assert_eq!(c.link_between(1, 17), rack.uplink, "cross rack: uplink");
        assert_eq!(c.link_between(17, 18), c.link);
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn empty_rack_rejected() {
        let _ = RackSpec::new(0, gigabit_ethernet());
    }

    #[test]
    fn uniform_heterogeneity_is_all_ones() {
        let c = spark_cluster();
        assert_eq!(Heterogeneity::Uniform.speed_factors(&c, 4), vec![1.0; 4]);
        assert_eq!(Heterogeneity::Uniform.speed_runs(&c, 4), vec![(1.0, 4)]);
        for n in [0, 1, 4, 1_000] {
            assert_runs_expand(Heterogeneity::Uniform, &c, n);
        }
    }

    #[test]
    fn slow_workers_degrade_a_prefix() {
        let c = spark_cluster();
        let h = Heterogeneity::SlowWorkers {
            count: 2,
            factor: 0.5,
        };
        assert_ne!(h.speed_runs(&c, 4), vec![(1.0, 4)]);
        assert_eq!(h.speed_factors(&c, 4), vec![0.5, 0.5, 1.0, 1.0]);
        // Count clamps to n.
        assert_eq!(h.speed_factors(&c, 1), vec![0.5]);
        // Degenerate parameters are uniform.
        for (count, factor) in [(0, 0.5), (3, 1.0)] {
            let h = Heterogeneity::SlowWorkers { count, factor };
            assert_eq!(h.speed_runs(&c, 4), vec![(1.0, 4)]);
        }
        for (count, factor) in [(2, 0.5), (0, 0.5), (3, 1.0), (4, 2.0), (9, 0.5)] {
            for n in 0..=6 {
                assert_runs_expand(Heterogeneity::SlowWorkers { count, factor }, &c, n);
            }
        }
    }

    #[test]
    fn rack_decay_follows_rack_assignment() {
        let c = two_tier_pod(); // racks of 16
        let h = Heterogeneity::RackDecay { factor: 0.8 };
        let f = h.speed_factors(&c, 33);
        assert_eq!(f[0], 1.0, "worker 1 in rack 0");
        assert_eq!(f[15], 1.0, "worker 16 in rack 0");
        assert!((f[16] - 0.8).abs() < 1e-12, "worker 17 in rack 1");
        assert!((f[32] - 0.64).abs() < 1e-12, "worker 33 in rack 2");
        // Flat cluster: everyone in rack 0, still homogeneous.
        assert_eq!(h.speed_factors(&spark_cluster(), 8), vec![1.0; 8]);
        // One run per occupied rack, each the per-worker rack_of factor.
        for cluster in [c, spark_cluster()] {
            for factor in [0.8, 1.0] {
                let h = Heterogeneity::RackDecay { factor };
                for n in 0..=40 {
                    assert_runs_expand(h, &cluster, n);
                    let per_worker: Vec<f64> = (1..=n)
                        .map(|w| factor.powi(cluster.rack_of(w) as i32))
                        .collect();
                    assert_eq!(h.speed_factors(&cluster, n), per_worker, "n = {n}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn zero_speed_heterogeneity_rejected() {
        let h = Heterogeneity::SlowWorkers {
            count: 1,
            factor: 0.0,
        };
        let runs = std::panic::catch_unwind(|| h.speed_runs(&spark_cluster(), 2));
        assert!(runs.is_err(), "speed_runs must reject the factor too");
        let _ = h.speed_factors(&spark_cluster(), 2);
    }

    /// `speed_factors` equals the expansion of `speed_runs`, and the runs
    /// hold no zero count and no two equal neighbours.
    fn assert_runs_expand(h: Heterogeneity, cluster: &ClusterSpec, n: usize) {
        let runs = h.speed_runs(cluster, n);
        assert!(
            runs.iter().all(|&(_, count)| count > 0),
            "{h:?} n={n}: {runs:?}"
        );
        assert!(
            runs.windows(2).all(|w| w[0].0 != w[1].0),
            "{h:?} n={n}: {runs:?}"
        );
        let expanded: Vec<f64> = runs
            .iter()
            .flat_map(|&(factor, count)| vec![factor; count])
            .collect();
        assert_eq!(h.speed_factors(cluster, n), expanded, "{h:?} n={n}");
    }
}
