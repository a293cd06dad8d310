//! Asynchronous parameter-server simulation — the paper's first
//! future-work item ("we consider building a model for asynchronous
//! algorithms, such as asynchronous gradient descent").
//!
//! Workers loop independently: pull parameters from the server, compute a
//! gradient, push it back; the server applies updates in arrival order.
//! There is no barrier, so stragglers do not gate anyone — but pushed
//! gradients are *stale* (computed against parameters that other workers
//! have since updated). The simulation reports both throughput (updates/s)
//! and the staleness distribution, exposing the parallelism-vs-convergence
//! trade-off the paper highlights.

use crate::cluster::SimCluster;
use crate::overhead::OverheadModel;
use mlscale_core::hardware::ClusterSpec;
use mlscale_core::units::Seconds;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Configuration of an asynchronous SGD run.
#[derive(Debug, Clone, Copy)]
pub struct ParamServerConfig {
    /// Cluster hardware (node 0 is the server).
    pub cluster: ClusterSpec,
    /// Gradient computation volume per update (flops).
    pub grad_flops: f64,
    /// Parameter/gradient payload per pull or push (bits).
    pub payload_bits: f64,
    /// Server-side cost of applying one update (flops).
    pub apply_flops: f64,
    /// Per-task overhead on workers.
    pub overhead: OverheadModel,
    /// Determinism seed.
    pub seed: u64,
}

/// Outcome of an asynchronous run.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamServerReport {
    /// Total simulated time to apply all updates.
    pub total: Seconds,
    /// Number of updates applied.
    pub updates: usize,
    /// Updates applied per simulated second.
    pub throughput: f64,
    /// Mean staleness: updates applied by others between a worker's pull
    /// and the application of its push.
    pub mean_staleness: f64,
    /// Maximum observed staleness.
    pub max_staleness: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct Pending {
    time: Seconds,
    worker: usize,
    pulled_version: usize,
}

impl Eq for Pending {}

impl Ord for Pending {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .as_secs()
            .total_cmp(&other.time.as_secs())
            .then(self.worker.cmp(&other.worker))
    }
}

impl PartialOrd for Pending {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Simulates asynchronous SGD with `workers` workers until `total_updates`
/// gradients have been applied.
///
/// # Panics
/// Panics when `workers == 0` or `total_updates == 0`.
pub fn simulate_async(
    config: &ParamServerConfig,
    workers: usize,
    total_updates: usize,
) -> ParamServerReport {
    assert!(workers >= 1, "need at least one worker");
    assert!(total_updates >= 1, "need at least one update");
    let mut cluster = SimCluster::new(config.cluster, workers);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut heap: BinaryHeap<Reverse<Pending>> = BinaryHeap::new();
    let mut version = 0usize; // number of updates applied so far
    let mut staleness_sum = 0u64;
    let mut max_staleness = 0usize;
    let mut last_apply = Seconds::zero();

    // Prime every worker with its first pull + compute cycle.
    for w in 1..=workers {
        let pulled = cluster.transfer(0, w, config.payload_bits, Seconds::zero());
        let overhead = config.overhead.sample(workers, &mut rng);
        let after = cluster.occupy(w, overhead, pulled);
        let computed = cluster.compute(w, config.grad_flops, after);
        heap.push(Reverse(Pending {
            time: computed,
            worker: w,
            pulled_version: 0,
        }));
    }

    while version < total_updates {
        // lint: allow(panic-free-lib): every worker re-enqueues its next completion before this pop, so the heap is never empty mid-run
        let Reverse(done) = heap.pop().expect("workers always have pending work");
        // Push the gradient to the server and apply it.
        let arrived = cluster.transfer(done.worker, 0, config.payload_bits, done.time);
        let applied = cluster.compute(0, config.apply_flops, arrived);
        version += 1;
        let staleness = version - 1 - done.pulled_version;
        staleness_sum += staleness as u64;
        max_staleness = max_staleness.max(staleness);
        last_apply = applied;

        // Worker starts its next cycle immediately: pull, compute, repeat.
        if version < total_updates {
            let pulled = cluster.transfer(0, done.worker, config.payload_bits, applied);
            let overhead = config.overhead.sample(workers, &mut rng);
            let after = cluster.occupy(done.worker, overhead, pulled);
            let computed = cluster.compute(done.worker, config.grad_flops, after);
            heap.push(Reverse(Pending {
                time: computed,
                worker: done.worker,
                pulled_version: version,
            }));
        }
    }

    ParamServerReport {
        total: last_apply,
        updates: total_updates,
        throughput: total_updates as f64 / last_apply.as_secs().max(f64::MIN_POSITIVE),
        mean_staleness: staleness_sum as f64 / total_updates as f64,
        max_staleness,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_core::hardware::{ClusterSpec, LinkSpec, NodeSpec};
    use mlscale_core::units::{BitsPerSec, FlopsRate};

    fn config() -> ParamServerConfig {
        ParamServerConfig {
            cluster: ClusterSpec::new(
                NodeSpec::new(FlopsRate::giga(1.0), 1.0),
                LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
            ),
            grad_flops: 1e9,   // 1 s per gradient
            payload_bits: 1e8, // 0.01 s per transfer
            apply_flops: 1e6,  // negligible apply
            overhead: OverheadModel::None,
            seed: 7,
        }
    }

    #[test]
    fn single_worker_throughput_matches_cycle_time() {
        let report = simulate_async(&config(), 1, 20);
        // Cycle ≈ pull 0.01 + compute 1.0 + push 0.01 + apply 0.001.
        let cycle = 0.01 + 1.0 + 0.01 + 0.001;
        assert!((report.throughput - 1.0 / cycle).abs() / (1.0 / cycle) < 0.05);
        assert_eq!(report.mean_staleness, 0.0, "one worker is never stale");
        assert_eq!(report.updates, 20);
    }

    #[test]
    fn throughput_scales_with_workers_before_saturation() {
        let t1 = simulate_async(&config(), 1, 50).throughput;
        let t4 = simulate_async(&config(), 4, 50).throughput;
        let t8 = simulate_async(&config(), 8, 80).throughput;
        assert!(
            t4 > 3.0 * t1,
            "4 workers should nearly quadruple throughput"
        );
        assert!(t8 > t4);
    }

    #[test]
    fn staleness_grows_with_workers() {
        let s2 = simulate_async(&config(), 2, 100).mean_staleness;
        let s8 = simulate_async(&config(), 8, 100).mean_staleness;
        // With n workers computing concurrently, ~n−1 updates land between
        // a pull and the matching push.
        assert!(s8 > s2);
        assert!(
            (s8 - 7.0).abs() < 2.0,
            "expected staleness near 7, got {s8}"
        );
    }

    #[test]
    fn server_nic_saturation_caps_throughput() {
        // Tiny compute, heavy payload: the server NIC becomes the
        // bottleneck and more workers stop helping.
        let cfg = ParamServerConfig {
            grad_flops: 1e6,
            payload_bits: 1e9, // 0.1 s per transfer at 10 Gbit/s
            ..config()
        };
        let t4 = simulate_async(&cfg, 4, 60).throughput;
        let t16 = simulate_async(&cfg, 16, 60).throughput;
        assert!(
            t16 < 1.5 * t4,
            "saturated server must not scale: {t4} → {t16}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = ParamServerConfig {
            overhead: OverheadModel::Exponential { mean: 0.05 },
            ..config()
        };
        let a = simulate_async(&cfg, 4, 40);
        let b = simulate_async(&cfg, 4, 40);
        assert_eq!(a, b);
    }

    #[test]
    fn async_beats_sync_with_stragglers() {
        // Heavy-tailed stragglers: synchronous BSP pays the max each
        // round, async pays the mean. Compare total time for the same
        // number of gradient computations.
        use crate::bsp::{simulate, BspConfig, BspProgram, CommPhase, SuperstepSpec};
        let overhead = OverheadModel::LogNormal {
            mu: -1.5,
            sigma: 1.2,
        };
        let n = 8;
        let updates = 64; // 8 rounds of 8 in the sync schedule
        let async_report = simulate_async(
            &ParamServerConfig {
                overhead,
                ..config()
            },
            n,
            updates,
        );
        let sync_report = simulate(
            &BspProgram {
                supersteps: vec![SuperstepSpec::even(
                    1e9 * n as f64,
                    n,
                    CommPhase::GradientExchange {
                        bits: 1e8,
                        broadcast: crate::collectives::BroadcastKind::Torrent,
                        reduce: crate::collectives::ReduceKind::TwoWave,
                    },
                )],
                iterations: updates / n,
            },
            &BspConfig {
                cluster: config().cluster,
                overhead,
                seed: 7,
            },
            n,
        );
        assert!(
            async_report.total < sync_report.total,
            "async {} vs sync {}",
            async_report.total,
            sync_report.total
        );
    }

    #[test]
    #[should_panic(expected = "at least one update")]
    fn zero_updates_rejected() {
        let _ = simulate_async(&config(), 1, 0);
    }
}
