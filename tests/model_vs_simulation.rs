//! Cross-crate agreement tests: with overheads disabled, the discrete-event
//! simulator must land close to the closed-form models — they describe the
//! same schedules. These tests pin the relationship between `mlscale-core`
//! (formulas) and `mlscale-sim` (event-level execution).

use mlscale::model::hardware::{presets, ClusterSpec, Heterogeneity, LinkSpec, NodeSpec, RackSpec};
use mlscale::model::metrics::Comparison;
use mlscale::model::models::asyncgd::AsyncGdModel;
use mlscale::model::models::gd::{GdComm, GradientDescentModel};
use mlscale::model::straggler::{StragglerGdModel, StragglerModel};
use mlscale::model::units::{Bits, BitsPerSec, FlopCount, FlopsRate, Seconds};
use mlscale::sim::bsp::{
    simulate, simulate_with_stragglers, BspConfig, BspProgram, CommPhase, StragglerSim,
    SuperstepSpec,
};
use mlscale::sim::collectives::{BroadcastKind, ReduceKind};
use mlscale::sim::overhead::OverheadModel;
use mlscale::sim::paramserver::{simulate_async, ParamServerConfig};
use mlscale::workloads::experiments::figures::fig2_model;
use mlscale::workloads::gd::GdWorkload;

fn test_cluster() -> ClusterSpec {
    ClusterSpec::new(
        NodeSpec::new(FlopsRate::giga(50.0), 1.0),
        LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
    )
}

#[test]
fn pure_compute_simulation_is_exact() {
    let config = BspConfig {
        cluster: test_cluster(),
        overhead: OverheadModel::None,
        seed: 3,
    };
    for n in [1usize, 2, 5, 16] {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(1e12, n, CommPhase::None)],
            iterations: 2,
        };
        let simulated = simulate(&program, &config, n).mean_iteration();
        let analytic = 1e12 / 50e9 / n as f64;
        assert!(
            (simulated.as_secs() - analytic).abs() / analytic < 1e-9,
            "n={n}: {simulated} vs {analytic}"
        );
    }
}

#[test]
fn tree_exchange_simulation_within_discretisation_of_model() {
    // The model charges log₂(n) rounds; the binomial-tree schedule needs
    // ⌈log₂(n+1)⌉ rounds for n workers + master. On powers of two minus
    // one they coincide; elsewhere they differ by at most one round each
    // way.
    let volume = 1e9; // 1 s per transfer at 1 Gbit/s
    let config = BspConfig {
        cluster: test_cluster(),
        overhead: OverheadModel::None,
        seed: 3,
    };
    for n in [3usize, 7, 15, 31] {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec {
                loads: vec![0.0; n],
                comm: CommPhase::GradientExchange {
                    bits: volume,
                    broadcast: BroadcastKind::Tree,
                    reduce: ReduceKind::Tree,
                },
            }],
            iterations: 1,
        };
        let simulated = simulate(&program, &config, n).mean_iteration().as_secs();
        let model = 2.0 * (n as f64).log2(); // two tree stages
        assert!(
            (simulated - model).abs() <= 2.0 + 1e-9,
            "n={n}: simulated {simulated:.2} vs model {model:.2}"
        );
    }
}

#[test]
fn fig2_workload_ideal_sim_tracks_model() {
    let workload = GdWorkload::ideal(GradientDescentModel {
        cost_per_example: FlopCount::new(6.0 * 12e6),
        batch_size: 60_000.0,
        params: 12e6,
        bits_per_param: 64,
        cluster: presets::spark_cluster(),
        comm: GdComm::Spark,
    });
    let ns: Vec<usize> = (1..=16).collect();
    let (model, sim) = workload.strong_curves(&ns);
    let cmp = Comparison::join(&model.speedups(), &sim.speedups());
    assert!(
        cmp.mape() < 20.0,
        "overhead-free simulation should track the model: MAPE {:.1}%",
        cmp.mape()
    );
    // Identical single-node times: no communication, no overhead.
    let m1 = model.time_at(1).unwrap();
    let s1 = sim.time_at(1).unwrap();
    assert!((m1 / s1 - 1.0).abs() < 1e-9);
}

#[test]
fn overhead_only_slows_things_down() {
    let base = GdWorkload::ideal(GradientDescentModel {
        cost_per_example: FlopCount::new(1e7),
        batch_size: 10_000.0,
        params: 1e6,
        bits_per_param: 32,
        cluster: test_cluster(),
        comm: GdComm::TwoStageTree,
    });
    let with_overhead = GdWorkload {
        overhead: OverheadModel::Exponential { mean: 0.05 },
        ..base
    };
    for n in [1usize, 4, 9] {
        assert!(
            with_overhead.simulate_strong(n) > base.simulate_strong(n),
            "overhead must increase the simulated time at n={n}"
        );
    }
}

#[test]
fn simulated_times_respect_bandwidth_lower_bound() {
    // No schedule can beat volume/bandwidth for the gradient push of the
    // final reducer into the master.
    let volume = 2e9;
    let config = BspConfig {
        cluster: test_cluster(),
        overhead: OverheadModel::None,
        seed: 1,
    };
    for (bk, rk) in [
        (BroadcastKind::Flat, ReduceKind::Flat),
        (BroadcastKind::Tree, ReduceKind::Tree),
        (BroadcastKind::Torrent, ReduceKind::TwoWave),
    ] {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec {
                loads: vec![0.0; 8],
                comm: CommPhase::GradientExchange {
                    bits: volume,
                    broadcast: bk,
                    reduce: rk,
                },
            }],
            iterations: 1,
        };
        let t = simulate(&program, &config, 8).mean_iteration();
        assert!(
            t >= Seconds::new(2.0 * volume / 1e9 - 1e-9),
            "reduce+broadcast cannot beat 2·volume/bandwidth: {t}"
        );
    }
}

/// Simulated time of one communication-only superstep (zero compute) on
/// `cluster` with `n` workers.
fn comm_only_sim(cluster: ClusterSpec, n: usize, comm: CommPhase) -> f64 {
    let config = BspConfig {
        cluster,
        overhead: OverheadModel::None,
        seed: 9,
    };
    let program = BspProgram {
        supersteps: vec![SuperstepSpec {
            loads: vec![0.0; n],
            comm,
        }],
        iterations: 1,
    };
    simulate(&program, &config, n).mean_iteration().as_secs()
}

/// A latency-bearing flat cluster for the α–β collective twins.
fn alpha_beta_cluster() -> ClusterSpec {
    ClusterSpec::new(
        NodeSpec::new(FlopsRate::giga(50.0), 1.0),
        LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_micros(200.0)),
    )
}

#[test]
fn ring_alpha_beta_model_matches_simulator_twin() {
    // t = 2(n−1)·α + 2(n−1)/n·M/B in both descriptions: the analytic ring
    // and the chunked ring schedule agree within 5 % for every n.
    let cluster = alpha_beta_cluster();
    let volume = 3e8;
    assert_sim_tracks_model_over(2..=64, "ring α–β", |n| {
        let analytic = GdComm::Ring.time(Bits::new(volume), &cluster, n).as_secs();
        let simulated = comm_only_sim(cluster, n, CommPhase::RingAllReduce { bits: volume });
        (analytic, simulated)
    });
}

#[test]
fn halving_doubling_model_matches_simulator_twin() {
    let cluster = alpha_beta_cluster();
    let volume = 3e8;
    assert_sim_tracks_model_over(2..=64, "halving/doubling α–β", |n| {
        let analytic = GdComm::HalvingDoubling
            .time(Bits::new(volume), &cluster, n)
            .as_secs();
        let simulated = comm_only_sim(cluster, n, CommPhase::HalvingDoubling { bits: volume });
        (analytic, simulated)
    });
}

#[test]
fn hierarchical_model_matches_simulator_twin() {
    // Two-tier pod: fast low-latency intra-rack links, slow high-latency
    // uplinks. The analytic phase sum must track the event-level schedule
    // (intra tree reduce → leader ring → intra tree broadcast) within 5 %.
    let cluster = ClusterSpec::new(
        NodeSpec::new(FlopsRate::giga(50.0), 1.0),
        LinkSpec::new(BitsPerSec::giga(10.0), Seconds::from_micros(5.0)),
    )
    .with_racks(RackSpec::new(
        8,
        LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_micros(50.0)),
    ));
    let volume = 3e8;
    assert_sim_tracks_model_over(2..=64, "hierarchical", |n| {
        let analytic = GdComm::Hierarchical
            .time(Bits::new(volume), &cluster, n)
            .as_secs();
        let simulated = comm_only_sim(cluster, n, CommPhase::Hierarchical { bits: volume });
        (analytic, simulated)
    });
}

#[test]
fn flat_collectives_on_racked_cluster_use_the_uplink_tier() {
    // A flat (topology-blind) collective on a racked cluster must not be
    // priced as if every hop were intra-rack. `GdComm::time` charges the
    // uplink tier once the job spans racks: exact for the ring (its
    // pipeline is gated by the slowest link on the cycle), a conservative
    // upper bound for tree-shaped schedules.
    let pod = presets::two_tier_pod(); // racks of 16
    let mnist = GradientDescentModel {
        cluster: pod,
        comm: GdComm::Ring,
        ..mlscale::workloads::experiments::figures::fig2_model()
    };
    let bits = mnist.param_volume().get();
    for n in [2usize, 8, 16, 17, 24, 32, 48, 64] {
        let analytic = mnist.comm_time(n).as_secs();
        let simulated = comm_only_sim(pod, n, CommPhase::RingAllReduce { bits });
        assert!(
            (simulated - analytic).abs() / analytic < 0.05,
            "ring n={n}: sim {simulated:.4} vs model {analytic:.4}"
        );
    }
    // Tree and halving/doubling keep some rounds on fast intra links, so
    // the uplink-tier model must bound the simulation from above — never
    // promise speedups the racked network cannot deliver.
    for comm in [GdComm::HalvingDoubling, GdComm::TwoStageTree] {
        let m = GradientDescentModel { comm, ..mnist };
        for n in [24usize, 32, 48, 64] {
            let analytic = m.comm_time(n).as_secs();
            let phase = match comm {
                GdComm::HalvingDoubling => CommPhase::HalvingDoubling { bits },
                _ => CommPhase::GradientExchange {
                    bits,
                    broadcast: BroadcastKind::Tree,
                    reduce: ReduceKind::Tree,
                },
            };
            let simulated = comm_only_sim(pod, n, phase);
            assert!(
                analytic >= simulated * 0.999,
                "{:?} n={n}: model {analytic:.4} must bound sim {simulated:.4}",
                comm
            );
        }
    }
}

#[test]
fn latency_free_exhibits_unchanged_by_alpha_beta_layer() {
    // With every latency at zero the α–β layer must vanish: the Fig 1
    // example optimum stays at 14 and the Fig 2 Spark optimum at 9.
    let fig1 = mlscale::workloads::experiments::fig1();
    let opt = fig1
        .stats
        .iter()
        .find(|s| s.label.contains("optimal"))
        .expect("fig1 reports an optimum");
    assert_eq!(opt.value, 14.0, "Fig 1 optimum must stay at 14");
    // Pin the *canonical* exhibit model, so drift in figures::fig2_model
    // itself is caught here too.
    let fig2 = mlscale::workloads::experiments::figures::fig2_model();
    let (n_opt, _) = fig2.strong_curve(1..=13).optimal();
    assert_eq!(n_opt, 9, "Fig 2 optimum must stay at 9");
}

/// Mean simulated barrier time of a compute-only superstep (1 s of work
/// per nominal worker) over `reps` seeded replications, with straggler
/// injection and optional heterogeneous speed factors.
fn mean_straggler_barrier(
    n: usize,
    model: StragglerModel,
    backup_k: usize,
    speed_factors: &[f64],
    reps: usize,
) -> f64 {
    let config = BspConfig {
        cluster: test_cluster(), // 50 Gflop/s nominal nodes
        overhead: OverheadModel::None,
        seed: 0xBA44 + n as u64,
    };
    let program = BspProgram {
        // 50 Gflop per worker = 1 s of base compute each.
        supersteps: vec![SuperstepSpec {
            loads: vec![50e9; n],
            comm: CommPhase::None,
        }],
        iterations: reps,
    };
    simulate_with_stragglers(
        &program,
        &config,
        n,
        speed_factors,
        &StragglerSim { model, backup_k },
    )
    .mean_iteration()
    .as_secs()
}

/// Runs `check(n)` → `(analytic, simulated)` over `ns` in parallel — the
/// per-`n` replications are independently seeded, so the fan-out
/// ([`mlscale::model::par`]) changes wall time only — and asserts each
/// pair lands within 5 %.
fn assert_sim_tracks_model_over(
    ns: impl IntoIterator<Item = usize>,
    label: &str,
    check: impl Fn(usize) -> (f64, f64) + Sync,
) {
    let ns: Vec<usize> = ns.into_iter().collect();
    let pairs = mlscale::model::par::map(&ns, |&n| check(n));
    for (&n, (analytic, simulated)) in ns.iter().zip(pairs) {
        assert!(
            (simulated - analytic).abs() / analytic < 0.05,
            "{label} n={n}: sim {simulated:.4} vs analytic {analytic:.4}"
        );
    }
}

#[test]
fn exponential_straggler_sim_matches_order_statistic_model() {
    // E[barrier] = 1 + mean·H_n exactly; the seeded replications must land
    // within 5 % for every n ∈ 2..=64.
    let model = StragglerModel::ExponentialTail { mean: 0.3 };
    assert_sim_tracks_model_over(2..=64, "exp", |n| {
        let analytic = model.expected_barrier(&vec![1.0; n], 0).as_secs();
        let simulated = mean_straggler_barrier(n, model, 0, &vec![1.0; n], 400);
        (analytic, simulated)
    });
}

#[test]
fn lognormal_straggler_sim_matches_order_statistic_model() {
    let model = StragglerModel::LogNormalTail {
        mu: -1.5,
        sigma: 1.0,
    };
    assert_sim_tracks_model_over(2..=64, "lognormal", |n| {
        let analytic = model.expected_barrier(&vec![1.0; n], 0).as_secs();
        let simulated = mean_straggler_barrier(n, model, 0, &vec![1.0; n], 600);
        (analytic, simulated)
    });
}

#[test]
fn heterogeneous_straggler_sim_matches_poisson_binomial_model() {
    // Every third worker at 60 % speed: the analytic side integrates the
    // Poisson-binomial order-statistic survival function; the simulator
    // draws per-worker delays on shifted bases. Exponential and lognormal
    // tails, n ∈ 2..=64.
    for (model, reps) in [
        (StragglerModel::ExponentialTail { mean: 0.25 }, 400),
        (
            StragglerModel::LogNormalTail {
                mu: -1.8,
                sigma: 0.9,
            },
            500,
        ),
    ] {
        assert_sim_tracks_model_over(2..=64, "hetero", |n| {
            let speeds: Vec<f64> = (0..n).map(|w| if w % 3 == 0 { 0.6 } else { 1.0 }).collect();
            let bases: Vec<f64> = speeds.iter().map(|s| 1.0 / s).collect();
            let analytic = model.expected_barrier(&bases, 0).as_secs();
            let simulated = mean_straggler_barrier(n, model, 0, &speeds, reps);
            (analytic, simulated)
        });
    }
}

#[test]
fn drop_slowest_k_sim_matches_order_statistic_model() {
    // The backup-worker mitigation: barrier = (n−k)-th order statistic on
    // both sides.
    let model = StragglerModel::ExponentialTail { mean: 0.4 };
    for k in [1usize, 2] {
        assert_sim_tracks_model_over([4usize, 8, 16, 32, 64], "drop-k", |n| {
            let analytic = model.expected_barrier(&vec![1.0; n], k).as_secs();
            let simulated = mean_straggler_barrier(n, model, k, &vec![1.0; n], 400);
            (analytic, simulated)
        });
    }
}

#[test]
fn straggler_workload_end_to_end_tracks_expected_curve() {
    // Full workload (compute + halving/doubling exchange, whose simulator
    // twin is exact) under an exponential tail: the expected-time analytic
    // curve and the straggler simulation agree within 5 % MAPE.
    let mut workload = GdWorkload::ideal(GradientDescentModel {
        cost_per_example: FlopCount::new(6.0 * 12e6),
        batch_size: 60_000.0,
        params: 12e6,
        bits_per_param: 64,
        cluster: presets::spark_cluster(),
        comm: GdComm::HalvingDoubling,
    })
    .with_stragglers(
        StragglerModel::ExponentialTail { mean: 2.0 },
        Heterogeneity::Uniform,
        0,
    );
    workload.iterations = 300;
    workload.seed = 0x5EED;
    let ns: Vec<usize> = vec![1, 2, 4, 8, 16, 32, 64];
    let (model, sim) = workload.expected_strong_curves(&ns);
    let mape = Comparison::join(&model.speedups(), &sim.speedups()).mape();
    assert!(
        mape < 5.0,
        "straggler workload must track its analytic twin: MAPE {mape:.2}%"
    );
}

#[test]
fn straggler_sim_tracks_expected_iteration_time_at_large_n() {
    // The Fig 2 job dropping its slowest worker per step, at n = 10⁴ and
    // 10⁵: far past both tails' asymptotic crossovers, so the analytic
    // side runs the extreme-value order statistics while the seeded
    // simulation draws every worker's delay.
    //
    // With the Spark exchange, communication dominates the 164–500 s
    // iteration and the simulated reduce overlaps the slow workers, so
    // that check cannot see the straggler term. The compute-only variant
    // (`GdComm::None`) leaves the iteration the barrier alone: a 0.5–5 ms
    // even share plus a 0.44–3.8 s expected order statistic, averaged
    // over 30 simulated iterations. A 3× error in the term would miss the
    // 5 % bound by far.
    let lognormal = StragglerModel::LogNormalTail {
        mu: -2.0,
        sigma: 0.8,
    };
    let compute_only = GradientDescentModel {
        comm: GdComm::None,
        ..fig2_model()
    };
    for model in [StragglerModel::ExponentialTail { mean: 0.05 }, lognormal] {
        for (inner, iterations) in [(fig2_model(), 3), (compute_only, 30)] {
            let analytic = StragglerGdModel {
                straggler: model,
                backup_k: 1,
                ..StragglerGdModel::deterministic(inner)
            };
            let workload = GdWorkload {
                iterations,
                ..GdWorkload::ideal(inner).with_stragglers(model, analytic.hetero, 1)
            };
            let label = format!("{model:?} {:?}", inner.comm);
            assert_sim_tracks_model_over([10_000, 100_000], &label, |n| {
                (
                    analytic.expected_strong_iteration_time(n).as_secs(),
                    workload.simulate_strong(n).as_secs(),
                )
            });
        }
    }
}

/// The async parameter-server regression fixture: apply cost comparable
/// to the transfer cost, so the pipelined-vs-serialised server question
/// actually matters.
fn async_fixture() -> (AsyncGdModel, ParamServerConfig) {
    let cluster = ClusterSpec::new(
        NodeSpec::new(FlopsRate::giga(1.0), 1.0),
        LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
    );
    let model = AsyncGdModel {
        grad_work: FlopCount::giga(1.0),
        worker_flops: cluster.flops(),
        server_flops: cluster.flops(),
        apply_work: FlopCount::new(8e7), // 0.08 s apply
        payload: Bits::new(1e9),         // 0.1 s transfer
        bandwidth: cluster.bandwidth(),
        latency: Seconds::zero(),
    };
    let config = ParamServerConfig {
        cluster,
        grad_flops: model.grad_work.get(),
        payload_bits: model.payload.get(),
        apply_flops: model.apply_work.get(),
        overhead: OverheadModel::None,
        seed: 3,
    };
    (model, config)
}

#[test]
fn paramserver_sim_throughput_matches_async_model() {
    // Pre-saturation the cycle (pull + compute + push + apply) sets the
    // rate; deep in saturation the server pipeline (max of NIC direction
    // and apply) caps it. The analytic model must track the event-level
    // simulation through both regimes and across the knee.
    let (model, config) = async_fixture();
    for n in [1usize, 2, 4, 8, 12, 16, 24, 32, 64] {
        let updates = (50 * n).max(200);
        let report = simulate_async(&config, n, updates);
        let predicted = model.throughput(n);
        assert!(
            (report.throughput - predicted).abs() / predicted < 0.05,
            "n={n}: sim {:.3} upd/s vs model {predicted:.3} upd/s",
            report.throughput
        );
    }
}

#[test]
fn paramserver_sim_staleness_matches_async_model() {
    // E[staleness] = n − 1 in and out of saturation: parallelism keeps
    // buying staleness after throughput stops improving.
    let (model, config) = async_fixture();
    for n in [1usize, 2, 4, 8, 16, 32, 64] {
        let updates = (80 * n).max(400);
        let report = simulate_async(&config, n, updates);
        let predicted = model.expected_staleness(n);
        assert!(
            (report.mean_staleness - predicted).abs() <= 0.05 * predicted + 0.5,
            "n={n}: sim staleness {:.2} vs model {predicted:.2}",
            report.mean_staleness
        );
    }
    // The saturated regime specifically: throughput flat, staleness grows.
    let sat = model.saturation_point();
    let flat_a = simulate_async(&config, sat + 4, 60 * sat).throughput;
    let flat_b = simulate_async(&config, (sat + 4) * 2, 60 * sat).throughput;
    assert!(
        (flat_a - flat_b).abs() / flat_a < 0.05,
        "saturated throughput must stay flat: {flat_a} vs {flat_b}"
    );
}

#[test]
fn shared_memory_removes_communication_entirely() {
    let config = BspConfig {
        cluster: presets::dl980(),
        overhead: OverheadModel::None,
        seed: 5,
    };
    let f = config.cluster.flops().get();
    let n = 8;
    let program = BspProgram {
        supersteps: vec![SuperstepSpec {
            loads: vec![f / n as f64; n], // 1/n s of compute each
            comm: CommPhase::SharedMedium { total_bits: 1e18 },
        }],
        iterations: 1,
    };
    let t = simulate(&program, &config, n).mean_iteration();
    assert!((t.as_secs() - 1.0 / n as f64).abs() < 1e-9);
}
