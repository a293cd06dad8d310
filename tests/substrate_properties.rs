//! Property-based integration tests over the substrates: partition
//! invariants on generated graphs, Monte-Carlo-estimator consistency with
//! exact partition statistics, BP marginal normalisation on random MRFs,
//! and speedup-curve laws on simulator output.

use mlscale::graph::generators::{chung_lu, gnm};
use mlscale::graph::mrf::{BeliefPropagation, PairwiseMrf, PairwisePotential};
use mlscale::graph::partition::{Partition, PartitionStats};
use mlscale::model::models::graphinf::{duplicate_edge_correction, max_edges_monte_carlo};
use mlscale::model::speedup::SpeedupCurve;
use mlscale::model::units::Seconds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every partition of every random graph conserves edges:
    /// Σ intra + cut = E and Σ degree-sums = 2E.
    #[test]
    fn partition_conserves_edges(
        vertices in 20usize..300,
        edge_factor in 1u64..8,
        workers in 1usize..12,
        seed in 0u64..1000,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let edges = vertices as u64 * edge_factor;
        let g = gnm(vertices, edges, &mut rng);
        let p = Partition::random(vertices, workers, &mut rng);
        let s = PartitionStats::compute(&g, &p);
        let intra: u64 = s.intra_edges.iter().sum();
        prop_assert_eq!(intra + s.cut_edges, g.edges());
        prop_assert_eq!(s.degree_sums.iter().sum::<u64>(), 2 * g.edges());
        // Incident edges: per-worker degree sum minus double-counted intra.
        prop_assert_eq!(
            s.incident_edges.iter().sum::<u64>(),
            g.edges() + s.cut_edges
        );
        // Replication factor bounded by min(workers-1, ...) and max load
        // at least the average.
        prop_assert!(s.replication_factor() <= (workers - 1) as f64 + 1e-12);
        let avg = (g.edges() as f64) / workers as f64;
        prop_assert!(s.max_incident_edges() as f64 >= avg - 1e-9);
    }

    /// The Monte-Carlo estimator stays within a sane band of the exact
    /// maximum incident-edge count: never below balanced E/n, never above
    /// the whole edge set (plus cut slack).
    #[test]
    fn monte_carlo_estimator_band(
        vertices in 50usize..400,
        workers in 2usize..10,
        seed in 0u64..500,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = gnm(vertices, vertices as u64 * 4, &mut rng);
        let est = max_edges_monte_carlo(&g.degree_sequence(), workers, 4, &mut rng);
        let e = g.edges() as f64;
        prop_assert!(est >= e / workers as f64 * 0.8, "est {} vs balanced {}", est, e / workers as f64);
        prop_assert!(est <= 2.0 * e, "est {} vs total {}", est, e);
    }

    /// The duplicate correction never exceeds the per-worker degree mass
    /// and vanishes as workers grow.
    #[test]
    fn duplicate_correction_sane(
        v in 10f64..1e6,
        avg_deg in 1f64..50.0,
        n in 1usize..100,
    ) {
        let e = v * avg_deg / 2.0;
        let dup = duplicate_edge_correction(v, e, n);
        prop_assert!(dup >= 0.0);
        prop_assert!(dup <= e + 1e-9, "dup {} vs E {}", dup, e);
        if n > 1 {
            let dup_more = duplicate_edge_correction(v, e, n * 2);
            prop_assert!(dup_more <= dup + 1e-9, "correction must shrink with n");
        }
    }

    /// BP marginals are always normalised probability vectors, whatever
    /// the (positive) potentials and however few iterations ran.
    #[test]
    fn bp_marginals_normalised(
        seed in 0u64..200,
        states in 2usize..5,
        iterations in 1usize..8,
        same in 0.5f64..3.0,
        diff in 0.1f64..1.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = chung_lu(&vec![2.0; 40], 60, &mut rng);
        let vertices = g.vertices();
        let unary: Vec<f64> = (0..vertices * states)
            .map(|i| 0.2 + ((i * 2_654_435_761) % 1000) as f64 / 500.0)
            .collect();
        let mrf = PairwiseMrf::new(g, states, unary, PairwisePotential::Potts { same, diff });
        let mut bp = BeliefPropagation::new(&mrf);
        for _ in 0..iterations {
            bp.iterate();
        }
        for v in 0..vertices {
            let b = bp.belief(v as u32);
            let total: f64 = b.iter().sum();
            prop_assert!((total - 1.0).abs() < 1e-9);
            prop_assert!(b.iter().all(|&x| x >= 0.0));
        }
    }

    /// Speedup-curve laws on arbitrary positive time series: s(baseline)=1,
    /// efficiency = s·n0/n, optimum dominates all points.
    #[test]
    fn speedup_curve_laws(times in prop::collection::vec(0.01f64..100.0, 2..20)) {
        let samples: Vec<(usize, Seconds)> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i + 1, Seconds::new(t)))
            .collect();
        let curve = SpeedupCurve::from_samples(samples);
        prop_assert!((curve.speedup_at(1).unwrap() - 1.0).abs() < 1e-12);
        let (_, s_opt) = curve.optimal();
        for (n, s) in curve.speedups() {
            prop_assert!(s <= s_opt + 1e-12);
            let eff = curve.efficiencies().into_iter().find(|&(m, _)| m == n).unwrap().1;
            prop_assert!((eff - s / n as f64).abs() < 1e-12);
        }
    }
}

/// Exact partitions feed the model: the graph-inference max-load path
/// (`EdgeLoad::PerWorkerMax`, what `mlscale bp` and Fig 4 run) over
/// measured per-worker loads equals max(load)·c/F by construction.
#[test]
fn exact_loads_round_trip_through_model() {
    use mlscale::model::models::graphinf::{EdgeLoad, GraphInferenceModel};
    use mlscale::model::units::{BitsPerSec, FlopCount, FlopsRate};
    let mut rng = StdRng::seed_from_u64(77);
    let g = gnm(500, 2500, &mut rng);
    let loads: Vec<f64> = (1..=8)
        .map(|n| {
            let p = Partition::random(500, n, &mut rng);
            let s = PartitionStats::compute(&g, &p);
            s.max_incident_edges() as f64
        })
        .collect();
    let model = GraphInferenceModel {
        vertices: 500.0,
        edges: 2500.0,
        states: 2,
        cost_per_edge: FlopCount::new(14.0),
        flops: FlopsRate::giga(1.0),
        bandwidth: BitsPerSec::new(f64::INFINITY),
        replication: 0.0,
        edge_load: EdgeLoad::PerWorkerMax(loads.clone()),
    };
    for n in 1..=8usize {
        let expected = loads[n - 1] * 14.0 / 1e9;
        assert!((model.comp_time(n).as_secs() - expected).abs() < 1e-12);
    }
}
