//! Communication time-complexity models `t_cm = f_cm(M, n)`.
//!
//! The shape of `f_cm` depends on the topology of the communication medium
//! and on the collective pattern the framework uses to move `M` bits among
//! `n` workers. The paper contrasts:
//!
//! * **linear** communication — the master exchanges with every worker in
//!   turn, `t ∝ M·n` (the model of Sparks et al. that the paper criticises:
//!   it permits only *finite* weak scaling);
//! * **logarithmic / tree** communication — workers form a binary tree,
//!   `t ∝ M·log₂ n` (allows *infinite* weak scaling);
//! * **Spark's actual mechanism** (Fig 2) — torrent-like broadcast
//!   (`log₂ n` rounds) plus a two-wave `treeAggregate` whose waves touch
//!   `⌈√n⌉` peers each.
//!
//! # The α–β (latency-aware) form
//!
//! The paper's formulas are pure bandwidth terms `t = volume/B · shape(n)`
//! — valid in the bandwidth-dominated regime of its exhibits (megabyte
//! parameter payloads on gigabit Ethernet). Real collectives additionally
//! pay a fixed per-message setup latency `α` on every serialised message
//! round, giving the standard α–β cost of the collective-communication
//! literature:
//!
//! ```text
//! t(n) = rounds(n)·α + volume_terms(n)/B
//! ```
//!
//! Latency dominates once `α > M/B` per round — small gradients, RPC-heavy
//! frameworks, or fast links: at 10 µs latency on 100 Gbit/s, any message
//! under ~125 KB is latency-bound. In that regime the *round count* decides
//! the ordering (ring's `2(n−1)` rounds lose badly to a tree's `2·log₂ n`
//! even though ring moves the least data), which is exactly where the flat
//! bandwidth models mispredict the optimal cluster size.
//!
//! [`GdComm`] names the collective and holds every formula:
//! [`GdComm::time`] prices one exchange on a [`ClusterSpec`] and
//! [`GdComm::rounds`] counts its serialised message rounds. On a link with
//! zero latency `time` is exactly the paper's pure-bandwidth formula.
//! [`GdComm::Hierarchical`] is inherently latency-aware: its two link
//! tiers carry their own `α`s.

use crate::hardware::ClusterSpec;
use crate::units::{Bits, Seconds};

/// Which communication architecture moves the gradients/parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GdComm {
    /// The paper's generic model (Section IV-A): broadcast + aggregation
    /// each organised as a binary tree, `t_cm = 2·(bits·W/B)·log₂ n` in
    /// `2·log₂ n` rounds.
    TwoStageTree,
    /// Spark's actual mechanism (Fig 2): torrent broadcast (`log₂ n`
    /// rounds) plus two-wave `treeAggregate` — "first wave is done for the
    /// square root number of the nodes and the second wave is done among
    /// the others" (`2·⌈√n⌉` rounds):
    /// `t_cm = (bits·W/B)·log₂ n + 2·(bits·W/B)·⌈√n⌉`.
    Spark,
    /// Flat master-centric exchange, `t_cm = 2·n·(bits·W/B)` in `2·n`
    /// rounds (the master's NIC serialises one message per worker each
    /// way) — the linear-communication baseline of Sparks et al. that the
    /// paper contrasts against.
    LinearFlat,
    /// Bandwidth-optimal ring all-reduce, `t_cm = 2·(n−1)/n·(bits·W/B)`
    /// in `2·(n−1)` chunk steps: the MPI-style alternative the paper
    /// alludes to, bandwidth-optimal but latency-hostile.
    Ring,
    /// Recursive halving/doubling all-reduce (Rabenseifner's algorithm):
    /// for `p = 2^⌊log₂ n⌋` participants, `2·(p−1)/p·(bits·W/B)` in
    /// `2·log₂ p` rounds — ring's bandwidth term at a tree's round count.
    /// The `n − p` extra workers fold their vectors into partners before
    /// the exchange and receive the result after it: two more rounds of
    /// the full payload. The model is therefore (intentionally) *not*
    /// monotone in `n`: `t(5) > t(8)`, as the real algorithm behaves.
    HalvingDoubling,
    /// Two-tier rack-aware collective over the cluster's
    /// [`crate::hardware::RackSpec`] topology: binomial-tree reduce to
    /// each rack's leader over the intra-rack link, ring all-reduce among
    /// the `r` rack leaders over the uplink, binomial-tree broadcast back:
    ///
    /// ```text
    /// t(n) = 2·⌈log₂ m⌉·(α_i + M/B_i)  +  2·(r−1)·(α_u + (M/r)/B_u)
    /// ```
    ///
    /// with `m` the fullest rack's worker count. The expensive uplink
    /// carries only `r − 1 ≪ n` hops of `M/r` chunks, so the cross-rack
    /// wall moves out by roughly the rack size. On a flat cluster it
    /// degenerates to a single-rack tree exchange.
    Hierarchical,
    /// No communication (upper bound / single-machine sanity checks).
    None,
}

impl GdComm {
    /// Time `t_cm(n)` of one exchange of `volume` bits among `n` workers
    /// of `cluster`: the bandwidth term plus `α·rounds(n)` when the link
    /// carries a latency. Zero at `n <= 1`: a single worker has nobody to
    /// talk to (the paper's `t(1)` has no communication term).
    ///
    /// A flat collective on a racked cluster runs on the base link while
    /// the job fits one rack; once it spans racks every round is charged
    /// at the uplink tier. That is exact for the ring, whose pipeline is
    /// gated by the slowest link on the cycle, and a conservative bound
    /// for tree shapes, some of whose rounds stay on fast intra-rack links
    /// — the gap [`GdComm::Hierarchical`] exploits.
    pub fn time(self, volume: Bits, cluster: &ClusterSpec, n: usize) -> Seconds {
        if n <= 1 {
            return Seconds::zero();
        }
        let link = match cluster.rack {
            Some(rack) if n > rack.nodes_per_rack => rack.uplink,
            _ => cluster.link,
        };
        let unit = volume / link.bandwidth;
        let nf = n as f64;
        let bandwidth = match self {
            Self::TwoStageTree => unit * (2.0 * nf.log2()),
            Self::Spark => unit * nf.log2() + unit * (2.0 * wave_width(n)),
            Self::LinearFlat => unit * nf * 2.0,
            Self::Ring => unit * (2.0 * (nf - 1.0) / nf),
            Self::HalvingDoubling => {
                let (p, extra) = halving_split(n);
                let exchange = unit * (2.0 * (p as f64 - 1.0) / p as f64);
                let fold = if extra > 0 {
                    unit * 2.0
                } else {
                    Seconds::zero()
                };
                exchange + fold
            }
            Self::Hierarchical => return hierarchical_time(volume, cluster, n),
            Self::None => Seconds::zero(),
        };
        if link.latency.is_zero() {
            bandwidth
        } else {
            bandwidth + link.latency * self.rounds(cluster, n)
        }
    }

    /// Number of serialised message rounds on the collective's critical
    /// path with `n` workers of `cluster` — the multiplier of the
    /// per-message latency `α`. Zero at `n <= 1`.
    pub fn rounds(self, cluster: &ClusterSpec, n: usize) -> f64 {
        if n <= 1 {
            return 0.0;
        }
        let nf = n as f64;
        match self {
            Self::TwoStageTree => 2.0 * nf.log2(),
            Self::Spark => nf.log2() + 2.0 * wave_width(n),
            Self::LinearFlat => nf * 2.0,
            Self::Ring => 2.0 * (nf - 1.0),
            Self::HalvingDoubling => {
                let (p, extra) = halving_split(n);
                2.0 * f64::from(p.ilog2()) + if extra > 0 { 2.0 } else { 0.0 }
            }
            Self::Hierarchical => {
                let (m, r) = rack_layout(cluster, n);
                2.0 * intra_rounds(m) + 2.0 * (r as f64 - 1.0)
            }
            Self::None => 0.0,
        }
    }
}

/// `⌈√n⌉`, the fan-in of each `treeAggregate` wave.
fn wave_width(n: usize) -> f64 {
    (n as f64).sqrt().ceil()
}

/// `(p, extra)`: the power-of-two participant count of halving/doubling
/// and the number of folded-in extra workers. `n <= 1` (nobody to
/// exchange with) maps to one participant and no extras.
fn halving_split(n: usize) -> (usize, usize) {
    if n <= 1 {
        return (1, 0);
    }
    let p = 1 << n.ilog2();
    (p, n - p)
}

/// `(m, r)`: workers in the fullest rack and number of racks. A flat
/// cluster is one rack holding every worker.
fn rack_layout(cluster: &ClusterSpec, n: usize) -> (usize, usize) {
    let rack_size = cluster.rack.map_or(usize::MAX, |rack| rack.nodes_per_rack);
    (rack_size.min(n), cluster.racks_for(n))
}

/// Binomial-tree rounds to reduce (or broadcast among) `m` rack members
/// including the leader: `⌈log₂ m⌉`.
fn intra_rounds(m: usize) -> f64 {
    if m <= 1 {
        0.0
    } else {
        (m as f64).log2().ceil()
    }
}

/// The [`GdComm::Hierarchical`] closed form; each tier's link carries its
/// own latency.
fn hierarchical_time(volume: Bits, cluster: &ClusterSpec, n: usize) -> Seconds {
    let (m, r) = rack_layout(cluster, n);
    let intra = cluster.link;
    let intra_time = (intra.latency + volume / intra.bandwidth) * (2.0 * intra_rounds(m));
    let inter = match cluster.rack {
        Some(rack) if r > 1 => {
            let chunk = volume / r as f64;
            (rack.uplink.latency + chunk / rack.uplink.bandwidth) * (2.0 * (r as f64 - 1.0))
        }
        _ => Seconds::zero(),
    };
    intra_time + inter
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hardware::{presets, LinkSpec, RackSpec};
    use crate::units::BitsPerSec;

    const ALL: [GdComm; 7] = [
        GdComm::TwoStageTree,
        GdComm::Spark,
        GdComm::LinearFlat,
        GdComm::Ring,
        GdComm::HalvingDoubling,
        GdComm::Hierarchical,
        GdComm::None,
    ];

    fn vol() -> Bits {
        Bits::mega(100.0)
    }

    fn bw() -> BitsPerSec {
        BitsPerSec::giga(1.0)
    }

    /// A flat cluster on one link of `bandwidth` and `latency`.
    fn flat(bandwidth: BitsPerSec, latency: Seconds) -> ClusterSpec {
        ClusterSpec::new(
            presets::xeon_e3_1240_double(),
            LinkSpec::new(bandwidth, latency),
        )
    }

    /// A cluster on `intra` links in racks of `rack_size` joined by `uplink`.
    fn racked(intra: LinkSpec, rack_size: usize, uplink: LinkSpec) -> ClusterSpec {
        ClusterSpec::new(presets::xeon_e3_1240_double(), intra)
            .with_racks(RackSpec::new(rack_size, uplink))
    }

    fn t(comm: GdComm, cluster: &ClusterSpec, n: usize) -> f64 {
        comm.time(vol(), cluster, n).as_secs()
    }

    #[test]
    fn all_models_zero_at_one_worker() {
        let latency = Seconds::from_micros(50.0);
        let clusters = [
            flat(bw(), Seconds::zero()),
            flat(bw(), latency),
            racked(
                LinkSpec::new(bw(), latency),
                4,
                LinkSpec::bandwidth_only(bw()),
            ),
        ];
        for cluster in &clusters {
            for comm in ALL {
                assert!(comm.time(vol(), cluster, 1).is_zero(), "{comm:?} at n=1");
                assert_eq!(comm.rounds(cluster, 1), 0.0, "{comm:?} rounds at n=1");
            }
        }
    }

    #[test]
    fn linear_grows_linearly() {
        let c = flat(bw(), Seconds::zero());
        let (t4, t8) = (t(GdComm::LinearFlat, &c, 4), t(GdComm::LinearFlat, &c, 8));
        assert!((t8 / t4 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn logtree_grows_logarithmically() {
        let c = flat(bw(), Seconds::zero());
        // log2(4)=2, log2(16)=4.
        let ratio = t(GdComm::TwoStageTree, &c, 16) / t(GdComm::TwoStageTree, &c, 4);
        assert!((ratio - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_wave_uses_ceil_sqrt() {
        let c = flat(bw(), Seconds::zero());
        let unit = (vol() / bw()).as_secs();
        // Spark's two-wave term is what is left after the torrent's log₂ n.
        let two_wave = |n: usize| t(GdComm::Spark, &c, n) - unit * (n as f64).log2();
        // n=9: ceil(sqrt(9)) = 3, so 2·3·unit.
        assert!((two_wave(9) - 6.0 * unit).abs() < 1e-9);
        // n=10: ceil(sqrt(10)) = 4.
        assert!((two_wave(10) - 8.0 * unit).abs() < 1e-9);
        assert_eq!(GdComm::Spark.rounds(&c, 10), 10f64.log2() + 8.0);
    }

    #[test]
    fn spark_exchange_matches_paper_formula() {
        // Paper Fig 2: t_cm = (64·W/B)·log(n) + 2·(64·W/B)·⌈√n⌉.
        let w = 12e6;
        let n = 9usize;
        let unit = 64.0 * w / 1e9;
        let expected = unit * (n as f64).log2() + 2.0 * unit * 3.0;
        let got = GdComm::Spark.time(Bits::params(w, 64), &presets::spark_cluster(), n);
        assert!((got.as_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn two_stage_tree_matches_paper_formula() {
        // Paper Section IV-A: t_cm = 2·(32·W/B)·log(n).
        let w = 25e6;
        let n = 32usize;
        let expected = 2.0 * (32.0 * w / 1e9) * (n as f64).log2();
        let got = GdComm::TwoStageTree.time(Bits::params(w, 32), &presets::gpu_cluster(), n);
        assert!((got.as_secs() - expected).abs() < 1e-9);
    }

    #[test]
    fn ring_all_reduce_approaches_2x_volume() {
        let unit = (vol() / bw()).as_secs();
        let t = t(GdComm::Ring, &flat(bw(), Seconds::zero()), 1000);
        assert!((t - 2.0 * unit).abs() / (2.0 * unit) < 0.01);
    }

    #[test]
    fn alpha_beta_adds_latency_per_round() {
        let c = flat(bw(), Seconds::from_millis(1.0));
        let n = 16usize;
        let unit = (vol() / bw()).as_secs();
        // 2·log₂ 16 = 8 rounds, each paying 1 ms on top of its M/B.
        let expected = 8.0 * unit + 8.0 * 0.001;
        assert!((t(GdComm::TwoStageTree, &c, n) - expected).abs() < 1e-12);
        assert_eq!(GdComm::TwoStageTree.rounds(&c, n), 8.0);
    }

    #[test]
    fn alpha_beta_latency_dominates_small_messages() {
        let c = flat(bw(), Seconds::from_millis(1.0));
        // 8 bits: 8 ns of serialisation per round.
        let t = GdComm::TwoStageTree.time(Bits::new(8.0), &c, 8).as_secs();
        assert!(
            (t - 0.006).abs() < 1e-6,
            "6 rounds of ~1 ms latency, got {t}"
        );
    }

    #[test]
    fn halving_doubling_matches_ring_volume_on_powers_of_two() {
        let c = flat(bw(), Seconds::zero());
        for n in [2usize, 4, 8, 16, 64] {
            assert!(
                (t(GdComm::HalvingDoubling, &c, n) - t(GdComm::Ring, &c, n)).abs() < 1e-12,
                "same 2(n−1)/n·M/B volume term at n={n}"
            );
        }
        // But far fewer rounds: 2·log₂ n vs 2·(n−1).
        assert_eq!(GdComm::HalvingDoubling.rounds(&c, 64), 12.0);
        assert_eq!(GdComm::Ring.rounds(&c, 64), 126.0);
    }

    #[test]
    fn halving_doubling_split_handles_degenerate_counts() {
        assert_eq!(halving_split(0), (1, 0));
        assert_eq!(halving_split(1), (1, 0));
        assert_eq!(halving_split(2), (2, 0));
        assert_eq!(halving_split(5), (4, 1));
        assert_eq!(halving_split(64), (64, 0));
    }

    #[test]
    fn rack_tiered_switches_regime_at_rack_size() {
        let intra = LinkSpec::bandwidth_only(BitsPerSec::giga(10.0));
        let uplink = LinkSpec::bandwidth_only(bw());
        let pod = racked(intra, 16, uplink);
        let within = flat(intra.bandwidth, Seconds::zero());
        let spanning = flat(uplink.bandwidth, Seconds::zero());
        let ring = GdComm::Ring;
        assert_eq!(t(ring, &pod, 16), t(ring, &within, 16), "fits one rack");
        assert_eq!(t(ring, &pod, 17), t(ring, &spanning, 17), "spans racks");
        assert_eq!(ring.rounds(&pod, 64), ring.rounds(&spanning, 64));
        // A latency-bearing uplink charges its own α once the job spans racks.
        let slow = LinkSpec::new(bw(), Seconds::from_micros(50.0));
        let pod = racked(intra, 16, slow);
        let expected = t(ring, &spanning, 17) + 50e-6 * ring.rounds(&pod, 17);
        assert_eq!(t(ring, &pod, 16), t(ring, &within, 16));
        assert!((t(ring, &pod, 17) - expected).abs() < 1e-15);
    }

    #[test]
    fn halving_doubling_non_power_pays_fold_penalty() {
        let c = flat(bw(), Seconds::zero());
        let unit = (vol() / bw()).as_secs();
        // n=5 → p=4, extra=1: 2·(3/4)·unit + 2·unit.
        assert!((t(GdComm::HalvingDoubling, &c, 5) - (1.5 + 2.0) * unit).abs() < 1e-9);
        assert_eq!(GdComm::HalvingDoubling.rounds(&c, 5), 2.0 * 2.0 + 2.0);
        // The fold makes t(5) worse than t(8) — real algorithm behaviour.
        assert!(t(GdComm::HalvingDoubling, &c, 5) > t(GdComm::HalvingDoubling, &c, 8));
    }

    #[test]
    fn alpha_beta_flips_ring_vs_tree_ordering() {
        // Pure bandwidth: ring beats tree. Latency-bound (tiny payload):
        // ring's 2(n−1) rounds lose to the tree's 2·log₂ n.
        let c = flat(bw(), Seconds::from_micros(50.0));
        let small = Bits::new(8e3); // 1 KB
        assert!(
            GdComm::TwoStageTree.time(small, &c, 64) < GdComm::Ring.time(small, &c, 64),
            "latency-bound: tree wins"
        );
        let big = Bits::giga(1.0);
        assert!(
            GdComm::Ring.time(big, &c, 64) < GdComm::TwoStageTree.time(big, &c, 64),
            "bandwidth-bound: ring wins"
        );
    }

    #[test]
    fn hierarchical_matches_closed_form() {
        let pod = racked(
            LinkSpec::new(BitsPerSec::giga(10.0), Seconds::from_micros(5.0)),
            8,
            LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_micros(50.0)),
        );
        // n = 32: m = 8 (⌈log₂ 8⌉ = 3 rounds each way), r = 4.
        let intra_unit = 5e-6 + 100e6 / 10e9;
        let chunk = 100e6 / 4.0;
        let inter = 2.0 * 3.0 * (50e-6 + chunk / 1e9);
        let expected = 2.0 * 3.0 * intra_unit + inter;
        assert!((t(GdComm::Hierarchical, &pod, 32) - expected).abs() < 1e-12);
        assert_eq!(GdComm::Hierarchical.rounds(&pod, 32), 6.0 + 6.0);
    }

    #[test]
    fn hierarchical_single_rack_skips_uplink() {
        let terrible = LinkSpec::bandwidth_only(BitsPerSec::mega(1.0));
        let pod = racked(LinkSpec::bandwidth_only(bw()), 16, terrible);
        // n = 8 fits one rack: only intra rounds, uplink untouched.
        let unit = (vol() / bw()).as_secs();
        assert!((t(GdComm::Hierarchical, &pod, 8) - 2.0 * 3.0 * unit).abs() < 1e-9);
    }

    #[test]
    fn hierarchical_beats_flat_tree_across_racks() {
        // A flat tree pays every round on the slow uplink-class network;
        // the hierarchical collective keeps most hops on the fast intra
        // links and moves only M/r chunks across racks.
        let slow = LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_micros(50.0));
        let fast = LinkSpec::new(BitsPerSec::giga(10.0), Seconds::from_micros(5.0));
        let flat_slow = flat(slow.bandwidth, slow.latency);
        let pod = racked(fast, 16, slow);
        for n in [32usize, 48, 64] {
            assert!(
                t(GdComm::Hierarchical, &pod, n) < t(GdComm::TwoStageTree, &flat_slow, n),
                "hierarchical must win at n={n}"
            );
        }
    }

    #[test]
    fn hierarchical_from_flat_cluster_degenerates_to_one_rack() {
        let unit = (vol() / bw()).as_secs();
        // One big rack: 2·⌈log₂ n⌉ intra rounds, no uplink term.
        let c = presets::spark_cluster();
        assert!((t(GdComm::Hierarchical, &c, 8) - 6.0 * unit).abs() < 1e-9);
        assert_eq!(GdComm::Hierarchical.rounds(&c, 1000), 2.0 * 10.0);
    }

    #[test]
    fn tree_beats_linear_for_large_n() {
        let c = flat(bw(), Seconds::zero());
        for n in [4usize, 16, 64, 256] {
            assert!(
                t(GdComm::TwoStageTree, &c, n) < t(GdComm::LinearFlat, &c, n),
                "tree should beat linear at n={n}"
            );
        }
    }
}
