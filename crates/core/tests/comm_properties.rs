//! Property-based tests over the communication time-complexity models:
//! the structural laws every collective must satisfy regardless of
//! parameters.

use mlscale_core::comm::GdComm;
use mlscale_core::hardware::{presets, ClusterSpec, LinkSpec, RackSpec};
use mlscale_core::units::{Bits, BitsPerSec, Seconds};
use proptest::prelude::*;

/// The flat (topology-blind) collectives.
const FLAT: [GdComm; 6] = [
    GdComm::TwoStageTree,
    GdComm::Spark,
    GdComm::LinearFlat,
    GdComm::Ring,
    GdComm::HalvingDoubling,
    GdComm::None,
];

/// A flat cluster on one link.
fn flat(bandwidth: BitsPerSec, latency: Seconds) -> ClusterSpec {
    ClusterSpec::new(
        presets::xeon_e3_1240_double(),
        LinkSpec::new(bandwidth, latency),
    )
}

/// Racks of 8 whose uplink is ten times slower (and, when there is a
/// latency, ten times later) than the intra-rack link.
fn racks_of_8(bandwidth: BitsPerSec, latency: Seconds) -> ClusterSpec {
    flat(bandwidth, latency).with_racks(RackSpec::new(
        8,
        LinkSpec::new(BitsPerSec::new(bandwidth.get() / 10.0), latency * 10.0),
    ))
}

/// The paper's closed forms, written out independently of the model:
/// `(shape, rounds)` with `t = shape·M/B + rounds·α` on a flat cluster.
fn closed_form(comm: GdComm, n: usize) -> (f64, f64) {
    let nf = n as f64;
    let p = (1usize << n.ilog2()) as f64;
    let fold = if p < nf { 2.0 } else { 0.0 };
    match comm {
        GdComm::TwoStageTree => (2.0 * nf.log2(), 2.0 * nf.log2()),
        GdComm::Spark => {
            let waves = 2.0 * nf.sqrt().ceil();
            (nf.log2() + waves, nf.log2() + waves)
        }
        GdComm::LinearFlat => (2.0 * nf, 2.0 * nf),
        GdComm::Ring => (2.0 * (nf - 1.0) / nf, 2.0 * (nf - 1.0)),
        GdComm::HalvingDoubling => (2.0 * (p - 1.0) / p + fold, 2.0 * p.log2() + fold),
        _ => (0.0, 0.0),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every collective, flat or racked, with or without latency, is zero
    /// at n = 1 (a single worker has nobody to talk to) and non-negative
    /// everywhere, with zero latency rounds at n = 1 too.
    #[test]
    fn zero_at_one_nonnegative_everywhere(
        volume_mb in 0.1f64..1000.0,
        bw_gb in 0.1f64..100.0,
        latency_us in 0.0f64..1000.0,
        n in 1usize..500,
    ) {
        let volume = Bits::mega(volume_mb);
        let bandwidth = BitsPerSec::giga(bw_gb);
        let latency = Seconds::from_micros(latency_us);
        for cluster in [flat(bandwidth, latency), racks_of_8(bandwidth, latency)] {
            for comm in FLAT.into_iter().chain([GdComm::Hierarchical]) {
                prop_assert!(comm.time(volume, &cluster, 1).is_zero(), "{comm:?} at n=1");
                prop_assert_eq!(comm.rounds(&cluster, 1), 0.0, "{:?} rounds at n=1", comm);
                prop_assert!(comm.time(volume, &cluster, n).as_secs() >= 0.0);
                prop_assert!(comm.rounds(&cluster, n) >= 0.0);
            }
        }
    }

    /// With latency zero every collective is exactly its pure-bandwidth
    /// formula, written out here independently of the model — the guard
    /// for every latency-free exhibit answer (the quickstart `n_opt == 9`
    /// doctest runs on exactly these formulas). The hierarchical
    /// collective over zero-latency racks likewise reduces to its
    /// bandwidth terms, 2·⌈log₂ m⌉·M/B_i + 2·(r−1)·(M/r)/B_u.
    #[test]
    fn zero_latency_degenerates_to_pure_bandwidth(
        volume_mb in 0.1f64..1000.0,
        bw_gb in 0.1f64..100.0,
        n in 2usize..500,
    ) {
        let volume = Bits::mega(volume_mb);
        let bandwidth = BitsPerSec::giga(bw_gb);
        let cluster = flat(bandwidth, Seconds::zero());
        let unit = volume.get() / bandwidth.get();
        for comm in FLAT {
            let expected = unit * closed_form(comm, n).0;
            let got = comm.time(volume, &cluster, n).as_secs();
            prop_assert!(
                (got - expected).abs() <= 1e-12 * expected.max(1e-12),
                "{comm:?}: {got} vs {expected}"
            );
        }
        let racked = flat(bandwidth, Seconds::zero())
            .with_racks(RackSpec::new(8, LinkSpec::bandwidth_only(bandwidth)));
        let m = 8.min(n);
        let r = n.div_ceil(8);
        let expected = 2.0 * (m as f64).log2().ceil() * unit
            + if r > 1 { 2.0 * (r as f64 - 1.0) * unit / r as f64 } else { 0.0 };
        let got = GdComm::Hierarchical.time(volume, &racked, n).as_secs();
        prop_assert!((got - expected).abs() <= 1e-9 * expected.max(1.0));
    }

    /// Nonzero latency always adds time — `α·rounds(n)` on top of the
    /// bandwidth term, with the collective's closed-form round count —
    /// and the surcharge is exactly linear in `α`.
    #[test]
    fn latency_surcharge_is_rounds_times_alpha(
        volume_mb in 0.1f64..500.0,
        bw_gb in 0.1f64..50.0,
        latency_us in 1.0f64..1000.0,
        n in 2usize..300,
    ) {
        let volume = Bits::mega(volume_mb);
        let bandwidth = BitsPerSec::giga(bw_gb);
        let latency = Seconds::from_micros(latency_us);
        let pure = flat(bandwidth, Seconds::zero());
        let slow = flat(bandwidth, latency);
        for comm in FLAT.into_iter().filter(|&c| c != GdComm::None) {
            let rounds = comm.rounds(&slow, n);
            prop_assert!(rounds > 0.0, "{comm:?} must report rounds past n=1");
            let closed = closed_form(comm, n).1;
            prop_assert!(
                (rounds - closed).abs() <= 1e-12 * closed,
                "{comm:?}: {rounds} vs {closed}"
            );
            let base = comm.time(volume, &pure, n).as_secs();
            let surcharge = comm.time(volume, &slow, n).as_secs() - base;
            let expected = latency.as_secs() * rounds;
            prop_assert!(
                (surcharge - expected).abs() <= 1e-9 * expected.max(1e-12),
                "{comm:?}: surcharge {surcharge} vs α·rounds {expected}"
            );
        }
    }

    /// Communication time is non-decreasing in the worker count for every
    /// master-coordinated collective (ring all-reduce included: its
    /// 2(n−1)/n factor grows toward 2). Halving/doubling is exempt by
    /// design: its non-power-of-two fold makes t(5) > t(8), like the real
    /// algorithm.
    #[test]
    fn monotone_in_workers(
        volume_mb in 0.1f64..1000.0,
        bw_gb in 0.1f64..100.0,
        n in 2usize..256,
    ) {
        let volume = Bits::mega(volume_mb);
        let bandwidth = BitsPerSec::giga(bw_gb);
        let cluster = flat(bandwidth, Seconds::zero());
        for comm in FLAT.into_iter().filter(|&c| c != GdComm::HalvingDoubling) {
            prop_assert!(
                comm.time(volume, &cluster, n + 1).as_secs()
                    >= comm.time(volume, &cluster, n).as_secs() - 1e-12,
                "{comm:?} must not speed up when adding workers: n={n}"
            );
        }
        let racked = racks_of_8(bandwidth, Seconds::zero());
        let h = |n| GdComm::Hierarchical.time(volume, &racked, n).as_secs();
        prop_assert!(h(n + 1) >= h(n) - 1e-12);
    }

    /// Time scales linearly in the payload volume (bandwidth-dominated
    /// models: doubling the bits doubles the time).
    #[test]
    fn linear_in_volume(
        volume_mb in 0.1f64..500.0,
        bw_gb in 0.1f64..100.0,
        n in 2usize..200,
        factor in 1.5f64..8.0,
    ) {
        let cluster = flat(BitsPerSec::giga(bw_gb), Seconds::zero());
        for comm in FLAT {
            let ts = comm.time(Bits::mega(volume_mb), &cluster, n).as_secs();
            let tb = comm.time(Bits::mega(volume_mb * factor), &cluster, n).as_secs();
            prop_assert!(
                (tb - factor * ts).abs() <= 1e-9 * tb.max(1.0),
                "{comm:?}: {tb} != {factor}·{ts}"
            );
        }
    }

    /// Inverse-linear in bandwidth: twice the bandwidth halves the time.
    #[test]
    fn inverse_in_bandwidth(
        volume_mb in 0.1f64..500.0,
        bw_gb in 0.1f64..50.0,
        n in 2usize..200,
    ) {
        let volume = Bits::mega(volume_mb);
        let slow = flat(BitsPerSec::giga(bw_gb), Seconds::zero());
        let fast = flat(BitsPerSec::giga(2.0 * bw_gb), Seconds::zero());
        for comm in FLAT {
            let ts = comm.time(volume, &slow, n).as_secs();
            let tf = comm.time(volume, &fast, n).as_secs();
            prop_assert!((ts - 2.0 * tf).abs() <= 1e-9 * ts.max(1.0), "{comm:?}");
        }
    }

    /// Architecture ordering at scale: ring ≤ tree ≤ Spark ≤ linear for
    /// large enough clusters (the paper's whole point about linear
    /// communication models).
    #[test]
    fn architecture_ordering_at_scale(
        volume_mb in 1.0f64..500.0,
        bw_gb in 0.1f64..50.0,
        n in 64usize..512,
    ) {
        let volume = Bits::mega(volume_mb);
        let cluster = flat(BitsPerSec::giga(bw_gb), Seconds::zero());
        let t = |comm: GdComm| comm.time(volume, &cluster, n);
        prop_assert!(t(GdComm::Ring) <= t(GdComm::TwoStageTree));
        prop_assert!(t(GdComm::TwoStageTree) <= t(GdComm::Spark));
        prop_assert!(t(GdComm::Spark) <= t(GdComm::LinearFlat));
    }
}
