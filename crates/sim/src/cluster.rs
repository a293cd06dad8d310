//! Simulated cluster state: compute nodes with serialised NICs and a
//! point-to-point transfer primitive.
//!
//! The simulator models each node with three serially-reusable resources —
//! the CPU/GPU, the send side of its NIC and the receive side — tracked as
//! "next free" timestamps. A transfer between two nodes occupies the
//! sender's send NIC and the receiver's receive NIC for
//! `latency + bits/bandwidth`; contention (e.g. many workers pushing
//! gradients at one master) emerges from the resource serialisation rather
//! than from a formula, which is exactly what makes flat gathers linear
//! and tree exchanges logarithmic in the simulated timings.

use mlscale_core::hardware::ClusterSpec;
use mlscale_core::units::{FlopsRate, Seconds};

/// Node identifier within a simulation. Node `0` is the master/driver;
/// workers are `1..=n`.
pub type NodeId = usize;

/// Mutable per-node resource state.
#[derive(Debug, Clone, Copy, Default)]
struct NodeState {
    /// When the compute resource is next available (seconds).
    cpu_free: f64,
    /// When the send half of the NIC is next available.
    send_free: f64,
    /// When the receive half of the NIC is next available.
    recv_free: f64,
}

/// A simulated cluster of one master plus `workers` identical workers.
#[derive(Debug, Clone)]
pub struct SimCluster {
    spec: ClusterSpec,
    nodes: Vec<NodeState>,
    /// Per-node compute-speed multipliers (1.0 = nominal). Models
    /// heterogeneous hardware: a factor of 0.5 makes a node half as fast,
    /// a permanent straggler rather than a per-task jitter.
    speed_factors: Vec<f64>,
    /// True when the "network" is shared memory: transfers are free.
    shared_memory: bool,
}

impl SimCluster {
    /// Creates a cluster with `workers` workers (plus the implicit master,
    /// node 0).
    ///
    /// # Panics
    /// Panics when `workers == 0`.
    pub fn new(spec: ClusterSpec, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        let shared_memory = spec.bandwidth().get().is_infinite();
        Self {
            spec,
            nodes: vec![NodeState::default(); workers + 1],
            speed_factors: vec![1.0; workers + 1],
            shared_memory,
        }
    }

    /// Sets a node's compute-speed multiplier (heterogeneous hardware).
    ///
    /// # Panics
    /// Panics when the factor is not positive.
    pub fn set_speed_factor(&mut self, node: NodeId, factor: f64) {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "speed factor must be positive"
        );
        self.speed_factors[node] = factor;
    }

    /// Number of workers (excluding the master).
    pub fn workers(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Effective per-node compute rate.
    pub fn flops(&self) -> FlopsRate {
        self.spec.flops()
    }

    /// Whether transfers are free (shared memory).
    pub fn is_shared_memory(&self) -> bool {
        self.shared_memory
    }

    /// Resets all resource clocks to zero (start of a fresh measurement).
    pub fn reset(&mut self) {
        for n in &mut self.nodes {
            *n = NodeState::default();
        }
    }

    /// Schedules `flops` of compute on `node`, not starting before
    /// `earliest`. Returns the completion time.
    pub fn compute(&mut self, node: NodeId, flops: f64, earliest: Seconds) -> Seconds {
        assert!(flops >= 0.0);
        let rate = self.spec.flops().get() * self.speed_factors[node];
        let state = &mut self.nodes[node];
        let start = state.cpu_free.max(earliest.as_secs());
        state.cpu_free = start + flops / rate;
        Seconds::new(state.cpu_free)
    }

    /// Schedules an extra busy period (overhead) on a node's CPU.
    pub fn occupy(&mut self, node: NodeId, duration: Seconds, earliest: Seconds) -> Seconds {
        let state = &mut self.nodes[node];
        let start = state.cpu_free.max(earliest.as_secs());
        state.cpu_free = start + duration.as_secs();
        Seconds::new(state.cpu_free)
    }

    /// Kills whatever is still running on a node's CPU past `t`, pulling
    /// its next-free clock back to `t` — speculative-execution semantics:
    /// when a straggling task's shard has been covered by a backup worker,
    /// the original attempt is cancelled rather than left running into the
    /// next superstep. No-op when the CPU is already free by `t`.
    pub fn truncate_compute(&mut self, node: NodeId, t: Seconds) {
        let state = &mut self.nodes[node];
        state.cpu_free = state.cpu_free.min(t.as_secs());
    }

    /// The rack a node belongs to (rack 0 on flat clusters).
    pub fn rack_of(&self, node: NodeId) -> usize {
        self.spec.rack_of(node)
    }

    /// Workers per rack, when the cluster has a rack topology.
    pub fn rack_size(&self) -> Option<usize> {
        self.spec.rack.map(|r| r.nodes_per_rack)
    }

    /// Schedules a point-to-point transfer of `bits` from `from` to `to`,
    /// not starting before `earliest`. Occupies both NIC halves for
    /// `latency + bits/bandwidth` of the link joining the two nodes — the
    /// intra-rack link within a rack, the uplink across racks on a
    /// cluster with a rack topology; returns the completion time. Free
    /// under shared memory.
    ///
    /// # Panics
    /// Panics on a self-transfer — callers should skip those.
    pub fn transfer(&mut self, from: NodeId, to: NodeId, bits: f64, earliest: Seconds) -> Seconds {
        assert_ne!(from, to, "self-transfer is a scheduling bug");
        assert!(bits >= 0.0);
        if self.shared_memory {
            return earliest;
        }
        let link = self.spec.link_between(from, to);
        let start = self.nodes[from]
            .send_free
            .max(self.nodes[to].recv_free)
            .max(earliest.as_secs());
        let duration = link.latency.as_secs() + bits / link.bandwidth.get();
        let done = start + duration;
        self.nodes[from].send_free = done;
        self.nodes[to].recv_free = done;
        Seconds::new(done)
    }

    /// The latest completion time across every resource of every node —
    /// the makespan of everything scheduled so far.
    pub fn makespan(&self) -> Seconds {
        let max = self
            .nodes
            .iter()
            .map(|n| n.cpu_free.max(n.send_free).max(n.recv_free))
            .fold(0.0, f64::max);
        Seconds::new(max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_core::hardware::{presets, LinkSpec, NodeSpec};
    use mlscale_core::units::BitsPerSec;

    fn cluster(workers: usize) -> SimCluster {
        let spec = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
        );
        SimCluster::new(spec, workers)
    }

    #[test]
    fn compute_serialises_on_a_node() {
        let mut c = cluster(2);
        let t1 = c.compute(1, 1e9, Seconds::zero()); // 1 second
        let t2 = c.compute(1, 1e9, Seconds::zero()); // queued behind
        assert!((t1.as_secs() - 1.0).abs() < 1e-12);
        assert!((t2.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn compute_parallel_across_nodes() {
        let mut c = cluster(2);
        let t1 = c.compute(1, 1e9, Seconds::zero());
        let t2 = c.compute(2, 1e9, Seconds::zero());
        assert_eq!(t1, t2);
    }

    #[test]
    fn transfer_duration_is_bits_over_bandwidth() {
        let mut c = cluster(2);
        let t = c.transfer(1, 0, 5e8, Seconds::zero());
        assert!((t.as_secs() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn receiver_nic_serialises_flat_gather() {
        // Three workers sending to the master serialise on its recv NIC:
        // completion = 3 · bits/B even though sends could start together.
        let mut c = cluster(3);
        let mut last = Seconds::zero();
        for w in 1..=3 {
            last = c.transfer(w, 0, 1e9, Seconds::zero());
        }
        assert!((last.as_secs() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn disjoint_pairs_transfer_in_parallel() {
        let mut c = cluster(4);
        let t1 = c.transfer(1, 2, 1e9, Seconds::zero());
        let t2 = c.transfer(3, 4, 1e9, Seconds::zero());
        assert_eq!(t1, t2);
        assert!((t1.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn latency_added_per_message() {
        let spec = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::new(BitsPerSec::giga(1.0), Seconds::from_millis(1.0)),
        );
        let mut c = SimCluster::new(spec, 2);
        let t = c.transfer(1, 2, 1e6, Seconds::zero());
        assert!((t.as_secs() - (0.001 + 0.001)).abs() < 1e-12);
    }

    #[test]
    fn shared_memory_transfers_are_free() {
        let mut c = SimCluster::new(presets::dl980(), 4);
        assert!(c.is_shared_memory());
        let t = c.transfer(1, 0, 1e12, Seconds::new(2.5));
        assert_eq!(t.as_secs(), 2.5);
    }

    #[test]
    fn earliest_constrains_start() {
        let mut c = cluster(2);
        let t = c.compute(1, 1e9, Seconds::new(5.0));
        assert!((t.as_secs() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn makespan_tracks_all_resources() {
        let mut c = cluster(2);
        c.compute(1, 2e9, Seconds::zero());
        c.transfer(2, 0, 1e9, Seconds::zero());
        assert!((c.makespan().as_secs() - 2.0).abs() < 1e-12);
        c.reset();
        assert!(c.makespan().is_zero());
    }

    #[test]
    fn slow_node_takes_proportionally_longer() {
        let mut c = cluster(2);
        c.set_speed_factor(2, 0.5);
        let fast = c.compute(1, 1e9, Seconds::zero());
        let slow = c.compute(2, 1e9, Seconds::zero());
        assert!((fast.as_secs() - 1.0).abs() < 1e-12);
        assert!((slow.as_secs() - 2.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "speed factor")]
    fn zero_speed_factor_rejected() {
        let mut c = cluster(1);
        c.set_speed_factor(1, 0.0);
    }

    #[test]
    #[should_panic(expected = "self-transfer")]
    fn self_transfer_panics() {
        let mut c = cluster(2);
        let _ = c.transfer(1, 1, 1.0, Seconds::zero());
    }

    #[test]
    fn cross_rack_transfers_use_the_uplink() {
        use mlscale_core::hardware::RackSpec;
        let spec = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
        )
        .with_racks(RackSpec::new(
            2,
            LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
        ));
        let mut c = SimCluster::new(spec, 4);
        // Workers 1,2 in rack 0; 3,4 in rack 1.
        assert_eq!(c.rack_of(1), 0);
        assert_eq!(c.rack_of(3), 1);
        let intra = c.transfer(1, 2, 1e9, Seconds::zero());
        let inter = c.transfer(3, 1, 1e9, Seconds::zero());
        assert!((intra.as_secs() - 0.1).abs() < 1e-12, "10 Gbit/s intra");
        assert!((inter.as_secs() - 1.0).abs() < 1e-12, "1 Gbit/s uplink");
    }

    #[test]
    fn occupy_blocks_cpu() {
        let mut c = cluster(1);
        c.occupy(1, Seconds::new(0.5), Seconds::zero());
        let t = c.compute(1, 1e9, Seconds::zero());
        assert!((t.as_secs() - 1.5).abs() < 1e-12);
    }
}
