//! BSP program execution on the simulated cluster.
//!
//! A [`BspProgram`] is the bridge between real workloads and the
//! simulator: each superstep carries the *actual* per-worker computation
//! volumes (e.g. gradient flops for each batch shard, or `E_i·c(S)` for
//! each graph partition) and a communication phase. The simulator executes
//! the schedule — per-task overhead, compute, barrier, collective — and
//! reports per-iteration wall times, which play the role of the paper's
//! experimental measurements.

use crate::cluster::SimCluster;
use crate::collectives::{
    broadcast, halving_doubling_all_reduce, hierarchical_all_reduce, reduce, ring_all_reduce,
    BroadcastKind, ReduceKind,
};
use crate::overhead::OverheadModel;
use mlscale_core::hardware::ClusterSpec;
use mlscale_core::straggler::StragglerModel;
use mlscale_core::units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The communication phase closing a superstep.
#[derive(Debug, Clone, PartialEq)]
pub enum CommPhase {
    /// No communication (embarrassingly parallel superstep).
    None,
    /// Synchronous gradient exchange: per-worker contributions of `bits`
    /// are aggregated at the master, then the result is broadcast back —
    /// the data-parallel gradient descent pattern.
    GradientExchange {
        /// Payload per worker (the model's `bits·W`).
        bits: f64,
        /// Broadcast pattern for the updated parameters.
        broadcast: BroadcastKind,
        /// Aggregation pattern for the gradients.
        reduce: ReduceKind,
    },
    /// Linear shared-medium exchange: a total volume crosses one shared
    /// link back-to-back (the paper's `32/B·r·V·S` replica traffic of the
    /// graph-inference model). Free under shared memory.
    SharedMedium {
        /// Total bits crossing the medium this superstep.
        total_bits: f64,
    },
    /// Ring all-reduce of per-worker `bits` contributions.
    RingAllReduce {
        /// Payload per worker.
        bits: f64,
    },
    /// Recursive halving/doubling all-reduce of per-worker `bits`
    /// contributions (Rabenseifner's algorithm).
    HalvingDoubling {
        /// Payload per worker.
        bits: f64,
    },
    /// Two-tier hierarchical all-reduce over the cluster's rack topology:
    /// intra-rack tree reduce/broadcast plus an inter-rack leader ring.
    Hierarchical {
        /// Payload per worker.
        bits: f64,
    },
}

/// One superstep: per-worker compute loads plus a communication phase.
#[derive(Debug, Clone, PartialEq)]
pub struct SuperstepSpec {
    /// `loads[w]` = flops executed by worker `w+1` this superstep.
    pub loads: Vec<f64>,
    /// Communication closing the superstep.
    pub comm: CommPhase,
}

impl SuperstepSpec {
    /// Evenly divided load across `n` workers.
    pub fn even(total_flops: f64, n: usize, comm: CommPhase) -> Self {
        assert!(n >= 1);
        Self {
            loads: vec![total_flops / n as f64; n],
            comm,
        }
    }
}

/// A BSP program: supersteps repeated for `iterations`.
#[derive(Debug, Clone, PartialEq)]
pub struct BspProgram {
    /// Supersteps per iteration.
    pub supersteps: Vec<SuperstepSpec>,
    /// Iteration count.
    pub iterations: usize,
}

/// Simulation configuration: hardware, overheads, determinism seed.
#[derive(Debug, Clone, Copy)]
pub struct BspConfig {
    /// The cluster hardware.
    pub cluster: ClusterSpec,
    /// Per-task overhead model.
    pub overhead: OverheadModel,
    /// RNG seed (the simulator is fully deterministic given the seed).
    pub seed: u64,
}

/// Straggler injection for the simulator: a per-worker per-superstep delay
/// draw added to each compute phase, plus the drop-slowest-k (backup
/// worker / speculative execution) mitigation. This is the discrete-event
/// twin of the analytic order-statistic model in
/// [`mlscale_core::straggler`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StragglerSim {
    /// Delay distribution sampled once per worker per superstep.
    pub model: StragglerModel,
    /// The barrier waits only for the fastest `n − k` workers; the slowest
    /// `k` are killed at the barrier (their shards covered by backups).
    /// Clamped to `n − 1` at execution time.
    pub backup_k: usize,
}

impl StragglerSim {
    /// No stragglers: the simulator behaves exactly as without this layer
    /// (no RNG draws are consumed).
    pub fn none() -> Self {
        Self {
            model: StragglerModel::Deterministic,
            backup_k: 0,
        }
    }
}

impl Default for StragglerSim {
    fn default() -> Self {
        Self::none()
    }
}

/// Result of simulating a BSP program.
#[derive(Debug, Clone, PartialEq)]
pub struct BspReport {
    /// Wall time of each iteration.
    pub iteration_times: Vec<Seconds>,
    /// Total wall time.
    pub total: Seconds,
}

impl BspReport {
    /// Mean iteration time — the quantity the paper's per-iteration
    /// speedups are computed from.
    pub fn mean_iteration(&self) -> Seconds {
        assert!(!self.iteration_times.is_empty());
        let sum: Seconds = self.iteration_times.iter().copied().sum();
        sum / self.iteration_times.len() as f64
    }
}

/// Executes `program` on a cluster of `workers` nodes and returns the
/// simulated timing report.
///
/// # Panics
/// Panics when a superstep's load vector length disagrees with `workers`.
pub fn simulate(program: &BspProgram, config: &BspConfig, workers: usize) -> BspReport {
    simulate_with_speeds(program, config, workers, &vec![1.0; workers])
}

/// Like [`simulate`], but with heterogeneous per-worker compute speeds:
/// `speed_factors[w]` multiplies worker `w+1`'s rate (1.0 = nominal). The
/// BSP barrier is gated by the slowest worker, so one 0.5× node halves the
/// whole cluster's effective throughput on an evenly-divided superstep.
///
/// # Panics
/// Panics when the factor list does not cover every worker.
pub fn simulate_with_speeds(
    program: &BspProgram,
    config: &BspConfig,
    workers: usize,
    speed_factors: &[f64],
) -> BspReport {
    simulate_with_stragglers(
        program,
        config,
        workers,
        speed_factors,
        &StragglerSim::none(),
    )
}

/// The full simulator entry point: heterogeneous per-worker compute speeds
/// *and* stochastic straggler injection with the drop-slowest-k backup
/// mitigation. Each superstep samples one delay per worker from
/// `straggler.model` (on top of the [`OverheadModel`]); the barrier waits
/// for the fastest `n − k` workers, the slowest `k` tasks are killed at
/// the barrier and their contributions treated as covered by backups.
///
/// With [`StragglerSim::none`] this is bit-identical to
/// [`simulate_with_speeds`] under the same seed: the deterministic model
/// consumes no randomness.
///
/// The gradient exchange and the ring, halving-doubling and hierarchical
/// all-reduces start each worker's part at that worker's own finish time,
/// not at the barrier, so a slow worker's delay overlaps the others'
/// communication. The analytic
/// `StragglerGdModel::expected_strong_iteration_time` adds the whole
/// `t_cm(n)` after the expected barrier instead, so with an exchange the
/// simulation can come in under the model by up to the straggler term.
/// Compute-only programs, and the shared medium, which is charged from
/// the barrier, have no such gap.
///
/// # Panics
/// Panics when the factor list does not cover every worker.
pub fn simulate_with_stragglers(
    program: &BspProgram,
    config: &BspConfig,
    workers: usize,
    speed_factors: &[f64],
    straggler: &StragglerSim,
) -> BspReport {
    assert!(workers >= 1, "need at least one worker");
    assert!(program.iterations >= 1, "need at least one iteration");
    assert_eq!(
        speed_factors.len(),
        workers,
        "need a speed factor per worker"
    );
    let drop_k = straggler.backup_k.min(workers - 1);
    let mut cluster = SimCluster::new(config.cluster, workers);
    for (w, &f) in speed_factors.iter().enumerate() {
        cluster.set_speed_factor(w + 1, f);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut iteration_times = Vec::with_capacity(program.iterations);
    let mut cursor = Seconds::zero();
    // Per-superstep scratch, allocated once for the whole run.
    let mut done: Vec<Seconds> = Vec::with_capacity(workers);
    let mut order: Vec<Seconds> = Vec::with_capacity(workers);

    for _ in 0..program.iterations {
        let iter_start = cursor;
        for step in &program.supersteps {
            assert_eq!(
                step.loads.len(),
                workers,
                "superstep loads must cover every worker"
            );
            // Compute phase: overhead + straggler delay + load per worker,
            // from the barrier.
            done.clear();
            for (w, &load) in step.loads.iter().enumerate() {
                let node = w + 1;
                let overhead = config.overhead.sample(workers, &mut rng)
                    + Seconds::new(straggler.model.sample(&mut rng));
                let after_overhead = cluster.occupy(node, overhead, cursor);
                done.push(cluster.compute(node, load, after_overhead));
            }
            // Barrier: the (n−k)-th order statistic of the finish times.
            // The k dropped tasks are killed (speculative execution) and
            // their contributions clamped to the barrier — a backup copy
            // finished by then. A quickselect finds the order statistic in
            // O(n) without sorting (total_cmp is a total order, so the
            // selected value equals the fully-sorted one).
            let barrier = if drop_k == 0 {
                done.iter().copied().fold(cursor, Seconds::max)
            } else {
                order.clear();
                order.extend_from_slice(&done);
                let idx = workers - 1 - drop_k;
                let (_, kth, _) =
                    order.select_nth_unstable_by(idx, |a, b| a.as_secs().total_cmp(&b.as_secs()));
                let kept = (*kth).max(cursor);
                for (w, d) in done.iter_mut().enumerate() {
                    if *d > kept {
                        *d = kept;
                        cluster.truncate_compute(w + 1, kept);
                    }
                }
                kept
            };
            // Communication phase.
            cursor = match &step.comm {
                CommPhase::None => barrier,
                CommPhase::GradientExchange {
                    bits,
                    broadcast: bk,
                    reduce: rk,
                } => {
                    if workers == 1 {
                        // A single worker exchanges nothing (the paper's
                        // t(1) has no communication term).
                        barrier
                    } else {
                        let aggregated = reduce(&mut cluster, *rk, *bits, &done);
                        broadcast(&mut cluster, *bk, *bits, aggregated)
                    }
                }
                CommPhase::SharedMedium { total_bits } => {
                    if workers == 1 || cluster.is_shared_memory() {
                        barrier
                    } else {
                        barrier + Seconds::new(total_bits / config.cluster.bandwidth().get())
                    }
                }
                CommPhase::RingAllReduce { bits } => ring_all_reduce(&mut cluster, *bits, &done),
                CommPhase::HalvingDoubling { bits } => {
                    halving_doubling_all_reduce(&mut cluster, *bits, &done)
                }
                CommPhase::Hierarchical { bits } => {
                    hierarchical_all_reduce(&mut cluster, *bits, &done)
                }
            };
        }
        iteration_times.push(cursor - iter_start);
    }
    BspReport {
        iteration_times,
        total: cursor,
    }
}

/// Convenience: simulated mean-iteration time as a function of `n`,
/// suitable for building a [`mlscale_core::SpeedupCurve`]. The
/// `program_for` closure receives the worker count so per-worker loads can
/// be derived from a real partition/shard of the workload.
///
/// The per-`n` simulations are independent — each [`simulate`] call seeds
/// its own RNG from `config.seed` — so the sweep fans out across threads
/// ([`mlscale_core::par`]) with results bit-identical to a serial loop.
pub fn time_curve(
    config: &BspConfig,
    ns: impl IntoIterator<Item = usize>,
    program_for: impl Fn(usize) -> BspProgram + Sync,
) -> Vec<(usize, Seconds)> {
    let ns: Vec<usize> = ns.into_iter().collect();
    mlscale_core::par::map(&ns, |&n| {
        let program = program_for(n);
        let report = simulate(&program, config, n);
        (n, report.mean_iteration())
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_core::hardware::{presets, LinkSpec, NodeSpec};
    use mlscale_core::units::{BitsPerSec, FlopsRate};

    fn config() -> BspConfig {
        BspConfig {
            cluster: ClusterSpec::new(
                NodeSpec::new(FlopsRate::giga(1.0), 1.0),
                LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
            ),
            overhead: OverheadModel::None,
            seed: 42,
        }
    }

    #[test]
    fn pure_compute_matches_analytic_time() {
        let n = 4;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(8e9, n, CommPhase::None)],
            iterations: 3,
        };
        let report = simulate(&program, &config(), n);
        // 8 Gflop / 4 workers / 1 Gflop/s = 2 s per iteration.
        for t in &report.iteration_times {
            assert!((t.as_secs() - 2.0).abs() < 1e-9);
        }
        assert!((report.total.as_secs() - 6.0).abs() < 1e-9);
        assert!((report.mean_iteration().as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_communication_at_single_worker() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                1e9,
                1,
                CommPhase::GradientExchange {
                    bits: 1e9,
                    broadcast: BroadcastKind::Torrent,
                    reduce: ReduceKind::TwoWave,
                },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &config(), 1);
        assert!((report.total.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gradient_exchange_adds_comm_time() {
        let n = 8;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                8e9,
                n,
                CommPhase::GradientExchange {
                    bits: 1e9,
                    broadcast: BroadcastKind::Tree,
                    reduce: ReduceKind::Tree,
                },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &config(), n);
        // Compute 1 s + tree reduce 4 s + tree broadcast 4 s.
        assert!(
            (report.total.as_secs() - 9.0).abs() < 1e-9,
            "got {}",
            report.total
        );
    }

    #[test]
    fn straggler_load_gates_barrier() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec {
                loads: vec![1e9, 5e9, 1e9],
                comm: CommPhase::None,
            }],
            iterations: 1,
        };
        let report = simulate(&program, &config(), 3);
        assert!((report.total.as_secs() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn shared_medium_time_is_volume_over_bandwidth() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                2e9,
                2,
                CommPhase::SharedMedium { total_bits: 5e8 },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &config(), 2);
        assert!((report.total.as_secs() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn shared_memory_cluster_skips_comm() {
        let cfg = BspConfig {
            cluster: presets::dl980(),
            overhead: OverheadModel::None,
            seed: 1,
        };
        let flops = cfg.cluster.flops().get();
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                flops, // 1 second of compute at n=1
                4,
                CommPhase::SharedMedium { total_bits: 1e15 },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &cfg, 4);
        assert!((report.total.as_secs() - 0.25).abs() < 1e-9);
    }

    #[test]
    fn constant_overhead_shifts_every_iteration() {
        let mut cfg = config();
        cfg.overhead = OverheadModel::Constant { seconds: 0.5 };
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(1e9, 1, CommPhase::None)],
            iterations: 2,
        };
        let report = simulate(&program, &cfg, 1);
        for t in &report.iteration_times {
            assert!((t.as_secs() - 1.5).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut cfg = config();
        cfg.overhead = OverheadModel::Exponential { mean: 0.1 };
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(1e9, 4, CommPhase::None)],
            iterations: 5,
        };
        let a = simulate(&program, &cfg, 4);
        let b = simulate(&program, &cfg, 4);
        assert_eq!(a, b);
        cfg.seed = 43;
        let c = simulate(&program, &cfg, 4);
        assert_ne!(a, c, "different seeds should jitter differently");
    }

    #[test]
    fn ring_all_reduce_phase_runs() {
        let n = 4;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                4e9,
                n,
                CommPhase::RingAllReduce { bits: 1e9 },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &config(), n);
        // 1 s compute + 2·3/4 s ring.
        assert!(
            (report.total.as_secs() - 2.5).abs() < 1e-6,
            "got {}",
            report.total
        );
    }

    #[test]
    fn halving_doubling_phase_runs() {
        let n = 4;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                4e9,
                n,
                CommPhase::HalvingDoubling { bits: 1e9 },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &config(), n);
        // 1 s compute + 2·3/4 s exchange (same volume as ring at p = 4).
        assert!(
            (report.total.as_secs() - 2.5).abs() < 1e-6,
            "got {}",
            report.total
        );
    }

    #[test]
    fn hierarchical_phase_uses_rack_topology() {
        use mlscale_core::hardware::RackSpec;
        let mut cfg = config();
        cfg.cluster = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
        )
        .with_racks(RackSpec::new(
            4,
            LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
        ));
        let n = 16;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(
                16e9,
                n,
                CommPhase::Hierarchical { bits: 1e9 },
            )],
            iterations: 1,
        };
        let report = simulate(&program, &cfg, n);
        // 1 s compute + 2·0.1 intra reduce + 6·0.25 leader ring + 2·0.1
        // intra broadcast.
        assert!(
            (report.total.as_secs() - 2.9).abs() < 1e-6,
            "got {}",
            report.total
        );
    }

    #[test]
    fn time_curve_produces_descending_times_for_parallel_work() {
        let cfg = config();
        let curve = time_curve(&cfg, [1, 2, 4, 8], |n| BspProgram {
            supersteps: vec![SuperstepSpec::even(8e9, n, CommPhase::None)],
            iterations: 2,
        });
        assert_eq!(curve.len(), 4);
        for pair in curve.windows(2) {
            assert!(pair[1].1 < pair[0].1);
        }
    }

    #[test]
    fn one_slow_node_gates_the_whole_barrier() {
        let n = 4;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(4e9, n, CommPhase::None)],
            iterations: 1,
        };
        let uniform = simulate(&program, &config(), n);
        let hetero = simulate_with_speeds(&program, &config(), n, &[1.0, 1.0, 0.5, 1.0]);
        // Even load: 1 s each; the 0.5x node needs 2 s and gates the barrier.
        assert!((uniform.total.as_secs() - 1.0).abs() < 1e-9);
        assert!((hetero.total.as_secs() - 2.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "speed factor per worker")]
    fn mismatched_speed_factors_rejected() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(1e9, 2, CommPhase::None)],
            iterations: 1,
        };
        let _ = simulate_with_speeds(&program, &config(), 2, &[1.0]);
    }

    #[test]
    #[should_panic(expected = "cover every worker")]
    fn mismatched_loads_rejected() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec {
                loads: vec![1.0],
                comm: CommPhase::None,
            }],
            iterations: 1,
        };
        let _ = simulate(&program, &config(), 2);
    }

    #[test]
    fn no_stragglers_is_bit_identical_to_plain_simulation() {
        let mut cfg = config();
        cfg.overhead = OverheadModel::Exponential { mean: 0.1 };
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(4e9, 4, CommPhase::None)],
            iterations: 5,
        };
        let plain = simulate(&program, &cfg, 4);
        let layered = simulate_with_stragglers(&program, &cfg, 4, &[1.0; 4], &StragglerSim::none());
        assert_eq!(plain, layered, "disabled stragglers must not perturb RNG");
    }

    #[test]
    fn straggler_draws_slow_the_barrier() {
        let n = 8;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(8e9, n, CommPhase::None)],
            iterations: 20,
        };
        let ideal = simulate(&program, &config(), n);
        let straggled = simulate_with_stragglers(
            &program,
            &config(),
            n,
            &vec![1.0; n],
            &StragglerSim {
                model: StragglerModel::ExponentialTail { mean: 0.3 },
                backup_k: 0,
            },
        );
        // E[max of 8 Exp(0.3)] = 0.3·H_8 ≈ 0.82 s per superstep.
        assert!(straggled.total > ideal.total + Seconds::new(10.0));
    }

    #[test]
    fn dropping_slowest_k_shortens_iterations() {
        let n = 8;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(8e9, n, CommPhase::None)],
            iterations: 50,
        };
        let model = StragglerModel::LogNormalTail {
            mu: -1.0,
            sigma: 1.5,
        };
        let plain = simulate_with_stragglers(
            &program,
            &config(),
            n,
            &vec![1.0; n],
            &StragglerSim { model, backup_k: 0 },
        );
        let mitigated = simulate_with_stragglers(
            &program,
            &config(),
            n,
            &vec![1.0; n],
            &StragglerSim { model, backup_k: 2 },
        );
        assert!(
            mitigated.total < plain.total,
            "drop-slowest-2 must shorten the run: {} vs {}",
            mitigated.total,
            plain.total
        );
    }

    #[test]
    fn backup_k_clamps_to_leave_one_worker() {
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(2e9, 2, CommPhase::None)],
            iterations: 1,
        };
        let report = simulate_with_stragglers(
            &program,
            &config(),
            2,
            &[1.0; 2],
            &StragglerSim {
                model: StragglerModel::Deterministic,
                backup_k: 99,
            },
        );
        // k clamps to 1: barrier = fastest worker, 1 s of compute each.
        assert!((report.total.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn killed_tasks_do_not_leak_into_the_next_superstep() {
        // One worker is 10× slower; with backup_k = 1 its task is killed
        // at each barrier, so iterations stay at the fast workers' pace
        // instead of queueing ever further behind.
        let n = 4;
        let program = BspProgram {
            supersteps: vec![SuperstepSpec::even(4e9, n, CommPhase::None)],
            iterations: 10,
        };
        let report = simulate_with_stragglers(
            &program,
            &config(),
            n,
            &[1.0, 1.0, 1.0, 0.1],
            &StragglerSim {
                model: StragglerModel::Deterministic,
                backup_k: 1,
            },
        );
        // Every iteration: 1 s for the three nominal workers.
        for t in &report.iteration_times {
            assert!((t.as_secs() - 1.0).abs() < 1e-9, "got {t}");
        }
    }

    #[test]
    fn two_wave_exchange_beats_flat_at_scale() {
        let n = 25;
        let mk = |rk| BspProgram {
            supersteps: vec![SuperstepSpec::even(
                1e9,
                n,
                CommPhase::GradientExchange {
                    bits: 1e8,
                    broadcast: BroadcastKind::Torrent,
                    reduce: rk,
                },
            )],
            iterations: 1,
        };
        let flat = simulate(&mk(ReduceKind::Flat), &config(), n);
        let two_wave = simulate(&mk(ReduceKind::TwoWave), &config(), n);
        assert!(two_wave.total < flat.total);
    }
}
