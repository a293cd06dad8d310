//! Property suite for the extreme-scale order-statistic regime: the
//! asymptotic tail must agree with the exact shared-grid path at the
//! crossover (relative error ≤ 1e-3, in practice orders of magnitude
//! tighter), expected order statistics must stay monotone in n up to
//! 10⁶, drop-k must never hurt at large n, and the log-spaced
//! curve/planner constructions must answer million-worker questions
//! from O(hundreds) of model calls.

use mlscale::model::planner::Pricing;
use mlscale::model::speedup::log_spaced_ns;
use mlscale::model::straggler::{StragglerGdModel, StragglerModel};
use mlscale::workloads::experiments::figures::fig2_model;
use proptest::prelude::*;

/// The acceptance bound on asymptotic-vs-exact relative error at the
/// crossover n (the measured error is below 1e-12 for both tails).
const CROSSOVER_REL_ERR: f64 = 1e-3;

fn rel_err(a: f64, b: f64) -> f64 {
    (a - b).abs() / b.abs().max(1e-300)
}

/// Every stochastic variant family, parameterised by the proptest draws.
fn variants(mean: f64, mu: f64, sigma: f64, spread: f64) -> Vec<StragglerModel> {
    vec![
        StragglerModel::Deterministic,
        StragglerModel::BoundedJitter { spread },
        StragglerModel::ExponentialTail { mean },
        StragglerModel::LogNormalTail { mu, sigma },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At the crossover n, and at n = 10⁵ far above it, the asymptotic
    /// regime agrees with the exact shared-grid/harmonic path within the
    /// stated bound, for every variant that has a crossover, across
    /// random tail parameters and drop-k values. Variants without a
    /// crossover (deterministic, bounded jitter) stay exact at any n.
    #[test]
    fn asymptotic_matches_exact_at_the_crossover(
        mean in 0.01f64..10.0,
        mu in -3.0f64..2.0,
        sigma in 0.1f64..1.5,
        spread in 0.01f64..5.0,
        k in 0usize..8,
    ) {
        for model in variants(mean, mu, sigma, spread) {
            match model.asymptotic_crossover() {
                Some(cross) => {
                    // Above the crossover the routed value is the
                    // asymptotic one; the exact path is still available.
                    for n in [cross + 1, cross + 7, 100_000] {
                        let routed = model.expected_order_stat(n, k);
                        let exact = model.expected_order_stat_exact(n, k);
                        prop_assert!(routed.is_finite(), "{model:?} n={n} k={k}: {routed}");
                        prop_assert!(
                            rel_err(routed, exact) <= CROSSOVER_REL_ERR,
                            "{model:?} n={n} k={k}: asymptotic {routed} vs exact {exact} \
                             (rel {})",
                            rel_err(routed, exact)
                        );
                    }
                    // Just below, routing IS the exact path (bit-identical).
                    let below = model.expected_order_stat(cross, k);
                    let exact = model.expected_order_stat_exact(cross, k);
                    prop_assert!(below.to_bits() == exact.to_bits(),
                        "{model:?}: sub-crossover path must be bit-identical");
                }
                None => {
                    let n = 1_000_000;
                    let routed = model.expected_order_stat(n, k);
                    let exact = model.expected_order_stat_exact(n, k);
                    prop_assert!(routed.to_bits() == exact.to_bits(),
                        "{model:?}: exact-form variant diverged at n={n}");
                }
            }
        }
    }

    /// E[(n−k)-th order statistic] is nondecreasing in n along a log
    /// ladder to 10⁶ — including across the exact→asymptotic seam — for
    /// every variant.
    #[test]
    fn order_stats_are_monotone_in_n_to_a_million(
        mean in 0.01f64..10.0,
        mu in -3.0f64..2.0,
        sigma in 0.1f64..1.5,
        spread in 0.01f64..5.0,
        k in 0usize..4,
    ) {
        for model in variants(mean, mu, sigma, spread) {
            let mut prev = f64::NEG_INFINITY;
            for n in log_spaced_ns(1_000_000, 60) {
                if n <= k {
                    continue; // need at least k+1 workers to drop k
                }
                let v = model.expected_order_stat(n, k);
                prop_assert!(v.is_finite(), "{model:?} n={n} k={k}: {v}");
                prop_assert!(
                    v >= prev - prev.abs() * 1e-9,
                    "{model:?}: E[os] fell from {prev} (at the previous rung) to {v} at n={n}"
                );
                prev = v;
            }
        }
    }

    /// Dropping one more straggler never increases the expected barrier
    /// time at large n: E[(n−k−1)-th] ≤ E[(n−k)-th].
    #[test]
    fn drop_k_never_hurts_at_large_n(
        mean in 0.01f64..10.0,
        mu in -3.0f64..2.0,
        sigma in 0.1f64..1.5,
        spread in 0.01f64..5.0,
    ) {
        for model in variants(mean, mu, sigma, spread) {
            for n in [100_000usize, 1_000_000] {
                let mut prev = model.expected_order_stat(n, 0);
                for k in 1..6 {
                    let v = model.expected_order_stat(n, k);
                    prop_assert!(
                        v <= prev + prev.abs() * 1e-9,
                        "{model:?} n={n}: dropping k={k} raised E[os] {prev} -> {v}"
                    );
                    prev = v;
                }
            }
        }
    }

    /// The log-normal path stays finite at n = 10⁵ for any k, including
    /// mid-range k where the old multiplicative `m·C(n, k)` coefficient
    /// overflowed f64 (satellite regression for the log-space coefficient).
    #[test]
    fn lognormal_is_finite_at_1e5_for_any_k(
        mu in -3.0f64..2.0,
        sigma in 0.1f64..1.5,
        k in 0usize..60_000,
    ) {
        let model = StragglerModel::LogNormalTail { mu, sigma };
        let v = model.expected_order_stat(100_000, k);
        prop_assert!(v.is_finite(), "n=1e5 k={k}: {v}");
        prop_assert!(v >= 0.0, "n=1e5 k={k}: {v}");
    }

    /// The batch evaluator agrees with per-call evaluation on an
    /// arbitrary ladder spanning the crossover.
    #[test]
    fn sparse_batch_matches_per_call(
        mean in 0.01f64..10.0,
        mu in -3.0f64..2.0,
        sigma in 0.1f64..1.5,
        k in 0usize..4,
    ) {
        let ns = log_spaced_ns(1_000_000, 25);
        for model in [
            StragglerModel::ExponentialTail { mean },
            StragglerModel::LogNormalTail { mu, sigma },
        ] {
            let batch = model.expected_order_stats(&ns, k);
            prop_assert_eq!(batch.len(), ns.len());
            for (&n, &b) in ns.iter().zip(&batch) {
                let per_call = model.expected_order_stat(n, k.min(n - 1));
                prop_assert!(
                    rel_err(b, per_call) <= 1e-12,
                    "{model:?} n={n}: batch {b} vs per-call {per_call}"
                );
            }
        }
    }
}

/// The Fig 2 strong-scaling job under a straggler tail, dropping the
/// single slowest worker per step.
fn test_model(model: StragglerModel) -> StragglerGdModel {
    StragglerGdModel {
        straggler: model,
        backup_k: 1,
        ..StragglerGdModel::deterministic(fig2_model())
    }
}

/// A million-worker strong curve and all four planner verbs complete —
/// the wall-time acceptance (< 5 s) is enforced by the CI scale-smoke
/// timeout around this test binary.
#[test]
fn million_worker_curve_and_planner_answer() {
    for model in [
        StragglerModel::ExponentialTail { mean: 0.05 },
        StragglerModel::LogNormalTail {
            mu: -2.0,
            sigma: 0.8,
        },
    ] {
        let m = test_model(model);
        let curve = m.strong_curve(log_spaced_ns(1_000_000, 200));
        let (n_opt, s_opt) = curve.optimal();
        assert!(
            n_opt >= 1 && s_opt >= 1.0,
            "{model:?}: optimum {n_opt} / {s_opt}"
        );

        let planner = m.planner_log(100.0, 1_000_000, Pricing::hourly(2.0), 200);
        let fastest = planner.fastest();
        let cheapest = planner.cheapest();
        assert!(fastest.time.as_secs() <= cheapest.time.as_secs() * (1.0 + 1e-12));
        assert!(cheapest.cost <= fastest.cost * (1.0 + 1e-12));
        let deadline = mlscale::model::units::Seconds::new(fastest.time.as_secs() * 2.0);
        assert!(planner.cheapest_within_deadline(deadline).is_some());
        assert!(planner.fastest_within_budget(fastest.cost * 2.0).is_some());
    }
}
