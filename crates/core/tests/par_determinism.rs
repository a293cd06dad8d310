//! Determinism contracts of the parallel execution engine: every parallel
//! path must produce **bit-identical** results to the serial one under
//! `MLSCALE_THREADS ∈ {1, 2, 7}`, and the shared-grid order-statistic
//! quadrature must reproduce the per-n Simpson integration it replaced —
//! the invariant the golden-snapshot suite's byte-identical fixtures rest
//! on.

use mlscale_core::hardware::{presets, Heterogeneity};
use mlscale_core::models::gd::{GdComm, GradientDescentModel};
use mlscale_core::models::graphinf::{EdgeLoad, GraphInferenceModel};
use mlscale_core::par;
use mlscale_core::planner::Pricing;
use mlscale_core::straggler::{OrderStatCache, StragglerGdModel, StragglerGraphModel};
use mlscale_core::units::{BitsPerSec, FlopCount, FlopsRate};
use mlscale_core::StragglerModel;
use proptest::prelude::*;

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

/// All four delay families at one parameterisation.
fn all_models(scale: f64, sigma: f64) -> [StragglerModel; 4] {
    [
        StragglerModel::Deterministic,
        StragglerModel::BoundedJitter { spread: scale },
        StragglerModel::ExponentialTail { mean: scale },
        StragglerModel::LogNormalTail {
            mu: scale.ln(),
            sigma,
        },
    ]
}

/// The panic message of `f`, which must panic.
fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let payload = std::panic::catch_unwind(f).expect_err("must panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn shared_grid_matches_per_n_quadrature_exactly() {
    // The contract the golden fixtures rely on: the batch table is not
    // merely "within 1e-9" of the per-n path — it is the same f64, bit
    // for bit, for every variant, n ∈ 1..=64 and drop count.
    let dense: Vec<usize> = (1..=64).collect();
    for model in all_models(0.35, 1.1) {
        for drop_k in [0usize, 1, 3] {
            let table = model.expected_order_stats(&dense, drop_k);
            for n in 1..=64usize {
                let k = drop_k.min(n - 1);
                let single = model.expected_order_stat(n, k);
                assert_eq!(
                    table[n - 1].to_bits(),
                    single.to_bits(),
                    "{model:?} n={n} k={k}: table {} vs per-n {single}",
                    table[n - 1]
                );
            }
        }
    }
    // A gapped batch straddling the coefficient-loop limit (512) and both
    // asymptotic crossovers (8,192 and 10,000): below a family's
    // crossover each entry is the exact path's f64, above it the
    // per-call one's.
    let gapped = [
        1usize, 2, 7, 64, 512, 513, 8_192, 8_193, 10_000, 10_001, 1_000_000,
    ];
    for model in all_models(0.35, 1.1) {
        let table = model.expected_order_stats(&gapped, 3);
        let crossover = model.asymptotic_crossover().unwrap_or(usize::MAX);
        for (&n, &v) in gapped.iter().zip(&table) {
            let k = 3usize.min(n - 1);
            let reference = if n <= crossover {
                model.expected_order_stat_exact(n, k)
            } else {
                model.expected_order_stat(n, k)
            };
            assert_eq!(v.to_bits(), reference.to_bits(), "{model:?} n={n} k={k}");
        }
        for bad in [&[4usize, 4][..], &[8, 2]] {
            let message = panic_message(|| {
                model.expected_order_stats(bad, 0);
            });
            assert!(
                message.contains("strictly ascending"),
                "{model:?} {bad:?}: {message:?}"
            );
        }
    }
}

#[test]
fn memo_cache_matches_uncached_calls_exactly() {
    for model in all_models(0.8, 0.9) {
        let cache = OrderStatCache::new(model);
        cache.warm(32, 1);
        for n in 1..=32usize {
            for k in [0usize, 1, 2] {
                if k >= n {
                    continue;
                }
                assert_eq!(
                    cache.expected_order_stat(n, k).to_bits(),
                    model.expected_order_stat(n, k).to_bits(),
                    "{model:?} n={n} k={k}"
                );
            }
        }
        let bases = [0.5, 1.0, 1.5, 1.0];
        assert_eq!(
            cache.expected_barrier(&bases, 1),
            model.expected_barrier(&bases, 1),
            "{model:?} hetero barrier"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The shared-grid table tracks the per-n quadrature within 1e-9
    /// across the whole parameter space (the exact-equality test above
    /// pins one point; this sweeps the families).
    #[test]
    fn shared_grid_within_tolerance_everywhere(
        scale in 1e-3f64..8.0,
        sigma in 0.05f64..2.0,
        drop_k in 0usize..4,
    ) {
        for model in all_models(scale, sigma) {
            let table = model.expected_order_stats(&(1..=48).collect::<Vec<_>>(), drop_k);
            for n in 1..=48usize {
                let single = model.expected_order_stat(n, drop_k.min(n - 1));
                let tol = 1e-9 * single.abs().max(1.0);
                prop_assert!(
                    (table[n - 1] - single).abs() <= tol,
                    "{:?} n={}: {} vs {}", model, n, table[n - 1], single
                );
            }
        }
    }

    /// Strong/weak curves are bit-identical under MLSCALE_THREADS ∈
    /// {1, 2, 7} — chunked fan-out must never change a sample.
    #[test]
    fn gd_curves_bit_identical_across_thread_counts(
        scale in 1e-2f64..6.0,
        sigma in 0.1f64..1.8,
        backup_k in 0usize..3,
    ) {
        for straggler in all_models(scale, sigma) {
            let wrapped = StragglerGdModel {
                inner: fig2_model(),
                straggler,
                hetero: Heterogeneity::Uniform,
                backup_k,
            };
            let strong_1 = par::with_thread_count(1, || wrapped.strong_curve(1..=24));
            let weak_1 = par::with_thread_count(1, || wrapped.weak_curve(1..=24));
            for threads in [2usize, 7] {
                let strong_t = par::with_thread_count(threads, || wrapped.strong_curve(1..=24));
                let weak_t = par::with_thread_count(threads, || wrapped.weak_curve(1..=24));
                prop_assert_eq!(&strong_1, &strong_t, "strong, {} threads", threads);
                prop_assert_eq!(&weak_1, &weak_t, "weak, {} threads", threads);
            }
        }
    }

    /// The straggler planner's parallel sweep returns the same plans as a
    /// serial sweep at every thread count, for all four query verbs.
    #[test]
    fn planner_bit_identical_across_thread_counts(
        scale in 1e-2f64..4.0,
        backup_k in 0usize..3,
    ) {
        let wrapped = StragglerGdModel {
            inner: fig2_model(),
            straggler: StragglerModel::LogNormalTail { mu: scale.ln(), sigma: 1.0 },
            hetero: Heterogeneity::Uniform,
            backup_k,
        };
        let pricing = Pricing::hourly(2.0);
        let serial = par::with_thread_count(1, || wrapped.planner(100.0, 32, pricing));
        for threads in [2usize, 7] {
            let par_p = par::with_thread_count(threads, || wrapped.planner(100.0, 32, pricing));
            prop_assert_eq!(serial.table(), par_p.table(), "{} threads", threads);
        }
    }
}

#[test]
fn graph_curve_bit_identical_across_thread_counts() {
    let inner = GraphInferenceModel::belief_propagation(
        10_000.0,
        50_000.0,
        2,
        FlopsRate::giga(7.6),
        BitsPerSec::giga(1.0),
        0.5,
        EdgeLoad::Balanced,
    );
    let wrapped = StragglerGraphModel {
        straggler: StragglerModel::LogNormalTail {
            mu: -2.0,
            sigma: 1.2,
        },
        ..StragglerGraphModel::deterministic(inner)
    };
    let serial = par::with_thread_count(1, || wrapped.curve(1..=32));
    for threads in [2usize, 7] {
        let par_c = par::with_thread_count(threads, || wrapped.curve(1..=32));
        assert_eq!(serial, par_c, "threads = {threads}");
    }
}

#[test]
fn curves_match_per_n_single_evaluations_exactly() {
    // The table-driven curve must agree bit-for-bit with the public
    // per-n methods (which run the lone quadrature) — this is what keeps
    // the ext-stragglers golden fixture byte-identical.
    let wrapped = StragglerGdModel {
        inner: fig2_model(),
        straggler: StragglerModel::LogNormalTail {
            mu: 0.33,
            sigma: 1.2,
        },
        hetero: Heterogeneity::Uniform,
        backup_k: 2,
    };
    let curve = wrapped.strong_curve(1..=16);
    for n in 1..=16usize {
        assert_eq!(
            curve.time_at(n).unwrap(),
            wrapped.expected_strong_iteration_time(n),
            "n={n}"
        );
    }
}
