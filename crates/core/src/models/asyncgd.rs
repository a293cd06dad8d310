//! Analytic model of **asynchronous** gradient descent on a parameter
//! server — the paper's first future-work item ("building a model for
//! asynchronous algorithms, such as asynchronous gradient descent"),
//! carried out.
//!
//! Workers cycle independently (pull parameters, compute a gradient, push
//! it); the server applies updates in arrival order. Two resources bound
//! the system:
//!
//! * each worker's cycle time
//!   `t_cycle = t_pull + t_comp + t_push + t_apply` (the next pull returns
//!   parameters only once the worker's own update has been applied),
//!   giving an offered load of `n / t_cycle` updates per second;
//! * the server, whose NIC halves are full duplex and whose CPU applies
//!   update `i` while the NIC already receives push `i+1` — consecutive
//!   updates *pipeline*, so the serialised cost per update is the widest
//!   stage, `t_srv = max(t_transfer, t_apply)`, capping throughput at
//!   `1 / t_srv` (validated against the event-level simulator in
//!   `tests/model_vs_simulation.rs`).
//!
//! ```text
//! X(n) = min( n / t_cycle , 1 / t_srv )          (updates per second)
//! ```
//!
//! Expected gradient staleness is the number of other updates applied
//! between a worker's pull and the application of its push. Each of the
//! other `n − 1` workers lands exactly one update per own-cycle, in or out
//! of saturation (queueing stretches every cycle equally), so
//! `E[staleness] = n − 1`: past the saturation point parallelism adds
//! staleness without adding throughput — the parallelism-vs-convergence
//! trade-off the paper highlights.

use crate::units::{Bits, BitsPerSec, FlopCount, FlopsRate, Seconds};

/// Analytic asynchronous-SGD model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AsyncGdModel {
    /// Gradient computation per update.
    pub grad_work: FlopCount,
    /// Effective worker compute rate.
    pub worker_flops: FlopsRate,
    /// Server compute rate (for the apply step).
    pub server_flops: FlopsRate,
    /// Cost of applying one update at the server.
    pub apply_work: FlopCount,
    /// Parameter/gradient payload per transfer.
    pub payload: Bits,
    /// Link bandwidth.
    pub bandwidth: BitsPerSec,
    /// Per-message link latency `α` (each pull and each push is one
    /// message, so it enters both the worker cycle and the server
    /// occupancy — matching the simulator's per-transfer charge).
    pub latency: Seconds,
}

impl AsyncGdModel {
    /// One transfer's time `α + payload/B`.
    pub fn transfer_time(&self) -> Seconds {
        self.latency + self.payload / self.bandwidth
    }

    /// A worker's full cycle time: pull + compute + push + apply — the
    /// next pull can only return parameters that include the worker's own
    /// update, so the apply step sits on the worker's critical path too.
    pub fn cycle_time(&self) -> Seconds {
        self.transfer_time() * 2.0
            + self.grad_work / self.worker_flops
            + self.apply_work / self.server_flops
    }

    /// Server occupancy per update. The NIC is full duplex (pulls occupy
    /// the send half, pushes the receive half) and the CPU applies update
    /// `i` while the receive half already takes in push `i+1`, so
    /// consecutive updates pipeline: the serialised cost is the *widest*
    /// stage, `max(t_transfer, t_apply)` — not their sum.
    pub fn server_time_per_update(&self) -> Seconds {
        self.transfer_time()
            .max(self.apply_work / self.server_flops)
    }

    /// Predicted throughput in updates per second with `n` workers:
    /// `min(n/t_cycle, 1/t_srv)`.
    pub fn throughput(&self, n: usize) -> f64 {
        assert!(n >= 1);
        let offered = n as f64 / self.cycle_time().as_secs();
        let cap = 1.0 / self.server_time_per_update().as_secs();
        offered.min(cap)
    }

    /// The worker count at which the server saturates: beyond this,
    /// adding workers only adds staleness.
    pub fn saturation_point(&self) -> usize {
        let ratio = self.cycle_time().as_secs() / self.server_time_per_update().as_secs();
        ratio.ceil().max(1.0) as usize
    }

    /// Expected staleness of an applied gradient with `n` workers: each of
    /// the other `n − 1` workers applies exactly one update per own-cycle
    /// (saturation stretches every cycle equally), so `E[staleness] = n − 1`
    /// — it keeps growing past the saturation point even though throughput
    /// no longer does.
    pub fn expected_staleness(&self, n: usize) -> f64 {
        assert!(n >= 1);
        n as f64 - 1.0
    }

    /// Throughput speedup over one worker.
    pub fn speedup(&self, n: usize) -> f64 {
        self.throughput(n) / self.throughput(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> AsyncGdModel {
        AsyncGdModel {
            grad_work: FlopCount::giga(1.0), // 1 s at 1 Gflop/s
            worker_flops: FlopsRate::giga(1.0),
            server_flops: FlopsRate::giga(1.0),
            apply_work: FlopCount::new(1e6), // 1 ms apply
            payload: Bits::mega(100.0),      // 0.01 s per transfer
            bandwidth: BitsPerSec::giga(10.0),
            latency: Seconds::zero(),
        }
    }

    #[test]
    fn cycle_time_components() {
        let m = model();
        // pull + compute + push + apply.
        let expected = 0.01 + 1.0 + 0.01 + 0.001;
        assert!((m.cycle_time().as_secs() - expected).abs() < 1e-12);
    }

    #[test]
    fn throughput_linear_before_saturation() {
        let m = model();
        let t1 = m.throughput(1);
        let t4 = m.throughput(4);
        assert!(
            (t4 / t1 - 4.0).abs() < 1e-9,
            "pre-saturation scaling is linear"
        );
    }

    #[test]
    fn throughput_capped_at_server_rate() {
        let m = model();
        let cap = 1.0 / m.server_time_per_update().as_secs();
        assert!((m.throughput(10_000) - cap).abs() < 1e-9);
    }

    #[test]
    fn saturation_point_consistent_with_cap() {
        let m = model();
        let sat = m.saturation_point();
        // Just below saturation: still (nearly) linear; just above: capped.
        assert!(m.throughput(sat + 1) <= m.throughput(sat) + 1e-9);
        assert!(m.throughput(sat.saturating_sub(2).max(1)) < m.throughput(sat) + 1e-9);
        // cycle 1.021 s / server max(0.01, 0.001) s = 102.1 → 103.
        assert_eq!(sat, 103);
    }

    #[test]
    fn server_stages_pipeline_rather_than_serialise() {
        // Transfer 0.01 s, apply 0.005 s: the pipelined cap is 1/0.01,
        // not 1/0.015 — consecutive pushes stream through the NIC while
        // the CPU applies the previous update.
        let m = AsyncGdModel {
            apply_work: FlopCount::new(5e6),
            ..model()
        };
        assert!((m.server_time_per_update().as_secs() - 0.01).abs() < 1e-12);
        // Apply-bound server: cap flips to the CPU stage.
        let cpu_bound = AsyncGdModel {
            apply_work: FlopCount::new(5e7),
            ..model()
        };
        assert!((cpu_bound.server_time_per_update().as_secs() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn staleness_is_n_minus_1() {
        let m = model();
        for n in [1usize, 2, 8, 32] {
            let s = m.expected_staleness(n);
            assert!((s - (n as f64 - 1.0)).abs() < 1e-6, "n={n}: staleness {s}");
        }
    }

    #[test]
    fn staleness_keeps_growing_after_saturation() {
        // Past the saturation point parallelism buys staleness, not
        // throughput — the trade-off the event simulator exhibits.
        let m = model();
        let sat = m.saturation_point();
        let at_sat = m.expected_staleness(sat);
        let beyond = m.expected_staleness(sat * 4);
        assert!((beyond - (4 * sat) as f64 + 1.0).abs() < 1e-9);
        assert!(beyond > at_sat);
        assert!((m.throughput(sat * 4) - m.throughput(sat)).abs() < 1e-9);
    }

    #[test]
    fn speedup_is_one_at_one_worker() {
        assert!((model().speedup(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn heavier_payload_saturates_earlier() {
        let light = model();
        let heavy = AsyncGdModel {
            payload: Bits::giga(2.0),
            ..model()
        };
        assert!(heavy.saturation_point() < light.saturation_point());
    }

    #[test]
    fn link_latency_lowers_the_server_cap() {
        let fast = model();
        let laggy = AsyncGdModel {
            latency: Seconds::from_millis(5.0),
            ..model()
        };
        // α enters every pull/push: the server serialises fewer updates
        // per second and saturates at a smaller worker count.
        let cap_fast = 1.0 / fast.server_time_per_update().as_secs();
        let cap_laggy = 1.0 / laggy.server_time_per_update().as_secs();
        assert!(cap_laggy < cap_fast);
        assert!(laggy.saturation_point() < fast.saturation_point());
        assert!((laggy.transfer_time().as_secs() - 0.015).abs() < 1e-12);
    }
}
