//! Collective communication patterns realised as message schedules over
//! the [`SimCluster`] transfer primitive.
//!
//! Each collective takes a payload size and a start time and returns the
//! time at which every participant holds the result. The asymptotic shapes
//! the paper discusses emerge from NIC serialisation rather than from
//! closed-form formulas:
//!
//! * flat broadcast/gather → `Θ(n)` (master NIC serialises);
//! * binary-tree broadcast/reduce → `Θ(log₂ n)`;
//! * Spark's two-wave aggregation → `Θ(√n)` (members serialise on each
//!   wave-leader's receive NIC);
//! * ring all-reduce → `Θ(1)` in `n` (2·(n−1) chunk steps of size
//!   `bits/n`);
//! * recursive halving/doubling all-reduce → ring's volume in `2·log₂ n`
//!   pairwise-exchange rounds;
//! * hierarchical all-reduce → intra-rack tree + inter-rack leader ring,
//!   routed over the cluster's two link tiers.
//!
//! Because [`SimCluster::transfer`] charges `α + bits/B` per message, each
//! schedule is the discrete-event twin of the corresponding α–β analytic
//! model in `mlscale_core::comm` — `tests/model_vs_simulation.rs` pins the
//! agreement.

use crate::cluster::{NodeId, SimCluster};
use mlscale_core::units::Seconds;

/// Broadcast patterns: master (node 0) to all workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BroadcastKind {
    /// Master sends to each worker in turn.
    Flat,
    /// Binomial tree: informed nodes re-send; `⌈log₂(n+1)⌉` rounds.
    Tree,
    /// Spark's TorrentBroadcast: block-swarming, modelled as a binomial
    /// tree over the full payload (the paper's `log₂ n` rounds).
    Torrent,
}

/// Aggregation patterns: all workers to the master (node 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceKind {
    /// Every worker sends directly to the master.
    Flat,
    /// Binomial-tree pairwise reduction.
    Tree,
    /// Spark `treeAggregate` with depth 2: `⌈√n⌉` wave leaders aggregate
    /// their groups, then forward to the driver — the paper's
    /// `2·⌈√n⌉`-transfer model.
    TwoWave,
}

/// Broadcasts `bits` from the master to workers `1..=n`; returns the time
/// the last worker receives it.
pub fn broadcast(
    cluster: &mut SimCluster,
    kind: BroadcastKind,
    bits: f64,
    start: Seconds,
) -> Seconds {
    let n = cluster.workers();
    if n == 0 {
        return start;
    }
    match kind {
        BroadcastKind::Flat => {
            let mut last = start;
            for w in 1..=n {
                last = last.max(cluster.transfer(0, w, bits, start));
            }
            last
        }
        BroadcastKind::Tree | BroadcastKind::Torrent => {
            let members: Vec<NodeId> = (0..=n).collect();
            tree_broadcast_among(cluster, &members, bits, start)
        }
    }
}

/// Binomial-tree broadcast rooted at `members[0]` (which holds the payload
/// at `start`): the informed set doubles each round until every member is
/// reached. Returns the time the last member is informed.
fn tree_broadcast_among(
    cluster: &mut SimCluster,
    members: &[NodeId],
    bits: f64,
    start: Seconds,
) -> Seconds {
    let mut informed: Vec<(NodeId, Seconds)> = vec![(members[0], start)];
    let mut next_idx = 1usize;
    let mut last = start;
    while next_idx < members.len() {
        let mut newly: Vec<(NodeId, Seconds)> = Vec::new();
        for &(src, ready) in &informed {
            if next_idx >= members.len() {
                break;
            }
            let dst = members[next_idx];
            next_idx += 1;
            let done = cluster.transfer(src, dst, bits, ready);
            newly.push((dst, done));
            last = last.max(done);
        }
        informed.extend(newly);
    }
    last
}

/// Pairwise binomial-tree reduction among `holders`: each round the even-
/// indexed holders receive from their odd-indexed neighbours until one
/// holder — the first element — carries the full aggregate. Returns that
/// root and the time it is ready.
fn tree_reduce_among(
    cluster: &mut SimCluster,
    mut holders: Vec<(NodeId, Seconds)>,
    bits: f64,
) -> (NodeId, Seconds) {
    while holders.len() > 1 {
        let mut next: Vec<(NodeId, Seconds)> = Vec::with_capacity(holders.len().div_ceil(2));
        for pair in holders.chunks(2) {
            match pair {
                [a] => next.push(*a),
                [dst, src] => {
                    let at = cluster.transfer(src.0, dst.0, bits, src.1.max(dst.1));
                    next.push((dst.0, at));
                }
                // lint: allow(panic-free-lib): chunks(2) only yields 1- or 2-element slices
                _ => unreachable!(),
            }
        }
        holders = next;
    }
    holders[0]
}

/// Reduces `bits`-sized contributions from workers `1..=n` (each ready at
/// `ready[w-1]`) onto the master; returns the time the master holds the
/// full aggregate.
pub fn reduce(cluster: &mut SimCluster, kind: ReduceKind, bits: f64, ready: &[Seconds]) -> Seconds {
    let n = cluster.workers();
    assert_eq!(ready.len(), n, "need a readiness time per worker");
    if n == 0 {
        return Seconds::zero();
    }
    match kind {
        ReduceKind::Flat => {
            let mut last = Seconds::zero();
            for w in 1..=n {
                last = last.max(cluster.transfer(w, 0, bits, ready[w - 1]));
            }
            last
        }
        ReduceKind::Tree => {
            // Pairwise binomial reduction among workers, then one transfer
            // to the master.
            let holders: Vec<(NodeId, Seconds)> = (1..=n).map(|w| (w, ready[w - 1])).collect();
            let (w, at) = tree_reduce_among(cluster, holders, bits);
            cluster.transfer(w, 0, bits, at)
        }
        ReduceKind::TwoWave => {
            // Wave 1: ⌈√n⌉ leaders; each group member sends to its leader.
            let leaders_count = (n as f64).sqrt().ceil() as usize;
            let leaders: Vec<NodeId> = (1..=leaders_count.min(n)).collect();
            let mut leader_done: Vec<Seconds> = leaders.iter().map(|&l| ready[l - 1]).collect();
            for w in 1..=n {
                if leaders.contains(&w) {
                    continue;
                }
                let li = (w - 1) % leaders.len();
                let done = cluster.transfer(w, leaders[li], bits, ready[w - 1]);
                leader_done[li] = leader_done[li].max(done);
            }
            // Wave 2: leaders forward their partial aggregates to the
            // driver (serialising on its receive NIC).
            let mut last = Seconds::zero();
            for (li, &l) in leaders.iter().enumerate() {
                last = last.max(cluster.transfer(l, 0, bits, leader_done[li]));
            }
            last
        }
    }
}

/// Ring all-reduce among workers `1..=n`: `2·(n−1)` steps exchanging
/// `bits/n` chunks around the ring (reduce-scatter then all-gather);
/// returns the time every worker holds the result.
pub fn ring_all_reduce(cluster: &mut SimCluster, bits: f64, ready: &[Seconds]) -> Seconds {
    let n = cluster.workers();
    assert_eq!(ready.len(), n, "need a readiness time per worker");
    if n <= 1 {
        return ready.first().copied().unwrap_or(Seconds::zero());
    }
    let chunk = bits / n as f64;
    let mut times: Vec<Seconds> = ready.to_vec();
    for _step in 0..(2 * (n - 1)) {
        let mut next = times.clone();
        for (w, &ready_at) in times.iter().enumerate() {
            let dst = (w + 1) % n;
            let done = cluster.transfer(w + 1, dst + 1, chunk, ready_at);
            next[dst] = next[dst].max(done);
        }
        times = next;
    }
    times.iter().copied().fold(Seconds::zero(), Seconds::max)
}

/// Recursive halving/doubling all-reduce among workers `1..=n`
/// (Rabenseifner's algorithm): reduce-scatter by pairwise exchanges at
/// halving distances, then all-gather by the reverse schedule. Extra
/// workers beyond the largest power of two fold their vectors into
/// partners first and receive the result last — the discrete-event twin of
/// `mlscale_core::comm::GdComm::HalvingDoubling`.
pub fn halving_doubling_all_reduce(
    cluster: &mut SimCluster,
    bits: f64,
    ready: &[Seconds],
) -> Seconds {
    let n = cluster.workers();
    assert_eq!(ready.len(), n, "need a readiness time per worker");
    if n <= 1 {
        return ready.first().copied().unwrap_or(Seconds::zero());
    }
    let p = 1usize << n.ilog2();
    let extra = n - p;
    let mut times: Vec<Seconds> = ready.to_vec();

    // Fold-in: worker p+i sends its full vector to worker i.
    for i in 1..=extra {
        let (src, dst) = (p + i, i);
        let at = times[src - 1].max(times[dst - 1]);
        times[dst - 1] = cluster.transfer(src, dst, bits, at);
    }

    // Pairwise exchange rounds among 1..=p. Halving: distance p/2 with
    // bits/2 chunks down to distance 1; doubling reverses the schedule.
    let mut schedule: Vec<(usize, f64)> = Vec::new();
    let mut dist = p / 2;
    let mut chunk = bits / 2.0;
    while dist >= 1 {
        schedule.push((dist, chunk));
        dist /= 2;
        chunk /= 2.0;
    }
    let gather: Vec<(usize, f64)> = schedule.iter().rev().copied().collect();
    schedule.extend(gather);
    for (dist, chunk) in schedule {
        let snapshot = times.clone();
        for w in 1..=p {
            // Lower half of each 2·dist block pairs upward.
            if ((w - 1) / dist) % 2 != 0 {
                continue;
            }
            let partner = w + dist;
            let at = snapshot[w - 1].max(snapshot[partner - 1]);
            // Full-duplex exchange: both directions run concurrently.
            let d1 = cluster.transfer(w, partner, chunk, at);
            let d2 = cluster.transfer(partner, w, chunk, at);
            times[partner - 1] = d1;
            times[w - 1] = d2;
        }
    }

    // Unfold: worker i returns the full result to worker p+i.
    for i in 1..=extra {
        let (src, dst) = (i, p + i);
        times[dst - 1] = cluster.transfer(src, dst, bits, times[src - 1]);
    }
    times.iter().copied().fold(Seconds::zero(), Seconds::max)
}

/// Two-tier hierarchical all-reduce among workers `1..=n` over the
/// cluster's rack topology: binomial-tree reduce to each rack's leader on
/// the intra-rack links, ring all-reduce of `bits/r` chunks among the `r`
/// leaders on the uplinks, binomial-tree broadcast back down. Each phase
/// starts at a barrier, matching the analytic
/// `mlscale_core::comm::GdComm::Hierarchical` formula. Flat clusters (no rack
/// topology) run as one rack: tree reduce + broadcast, no ring.
pub fn hierarchical_all_reduce(cluster: &mut SimCluster, bits: f64, ready: &[Seconds]) -> Seconds {
    let n = cluster.workers();
    assert_eq!(ready.len(), n, "need a readiness time per worker");
    if n <= 1 {
        return ready.first().copied().unwrap_or(Seconds::zero());
    }
    let rack_size = cluster.rack_size().unwrap_or(n).min(n);
    let racks = n.div_ceil(rack_size);
    let rack_members =
        |k: usize| -> Vec<NodeId> { (k * rack_size + 1..=((k + 1) * rack_size).min(n)).collect() };

    // Phase 1: tree-reduce every rack onto its leader (the lowest id).
    let mut leader_done: Vec<Seconds> = Vec::with_capacity(racks);
    for k in 0..racks {
        let members = rack_members(k);
        let holders: Vec<(NodeId, Seconds)> = members.iter().map(|&w| (w, ready[w - 1])).collect();
        leader_done.push(tree_reduce_among(cluster, holders, bits).1);
    }
    let barrier = leader_done
        .iter()
        .copied()
        .fold(Seconds::zero(), Seconds::max);

    // Phase 2: ring all-reduce among the rack leaders over the uplinks.
    let mut end = barrier;
    if racks > 1 {
        let leaders: Vec<NodeId> = (0..racks).map(|k| k * rack_size + 1).collect();
        let chunk = bits / racks as f64;
        let mut times = vec![barrier; racks];
        for _step in 0..(2 * (racks - 1)) {
            let snapshot = times.clone();
            for (i, &at) in snapshot.iter().enumerate() {
                let j = (i + 1) % racks;
                let done = cluster.transfer(leaders[i], leaders[j], chunk, at);
                times[j] = times[j].max(done);
            }
        }
        end = times.iter().copied().fold(Seconds::zero(), Seconds::max);
    }

    // Phase 3: tree-broadcast the result inside every rack.
    let mut last = end;
    for k in 0..racks {
        let members = rack_members(k);
        last = last.max(tree_broadcast_among(cluster, &members, bits, end));
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_core::hardware::{ClusterSpec, LinkSpec, NodeSpec, RackSpec};
    use mlscale_core::units::{BitsPerSec, FlopsRate};

    fn cluster(workers: usize) -> SimCluster {
        let spec = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
        );
        SimCluster::new(spec, workers)
    }

    const GBIT: f64 = 1e9; // one second per transfer at 1 Gbit/s

    #[test]
    fn flat_broadcast_is_linear() {
        let mut c = cluster(8);
        let t = broadcast(&mut c, BroadcastKind::Flat, GBIT, Seconds::zero());
        assert!((t.as_secs() - 8.0).abs() < 1e-9);
    }

    #[test]
    fn tree_broadcast_is_logarithmic() {
        // 8 workers + master: informed set 1→2→4→8→9: 4 rounds.
        let mut c = cluster(8);
        let t = broadcast(&mut c, BroadcastKind::Tree, GBIT, Seconds::zero());
        assert!((t.as_secs() - 4.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn tree_broadcast_single_worker_one_round() {
        let mut c = cluster(1);
        let t = broadcast(&mut c, BroadcastKind::Tree, GBIT, Seconds::zero());
        assert!((t.as_secs() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn flat_reduce_serialises_on_master() {
        let mut c = cluster(6);
        let ready = vec![Seconds::zero(); 6];
        let t = reduce(&mut c, ReduceKind::Flat, GBIT, &ready);
        assert!((t.as_secs() - 6.0).abs() < 1e-9);
    }

    #[test]
    fn tree_reduce_is_logarithmic() {
        // 8 workers: 3 pairwise rounds + 1 transfer to master = 4.
        let mut c = cluster(8);
        let ready = vec![Seconds::zero(); 8];
        let t = reduce(&mut c, ReduceKind::Tree, GBIT, &ready);
        assert!((t.as_secs() - 4.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn two_wave_scales_as_sqrt() {
        // n=16, 4 leaders, 12 members spread 3 per leader: wave 1 takes 3
        // serialised receives, wave 2 takes 4 serialised sends to master.
        let mut c = cluster(16);
        let ready = vec![Seconds::zero(); 16];
        let t = reduce(&mut c, ReduceKind::TwoWave, GBIT, &ready);
        assert!((t.as_secs() - 7.0).abs() < 1e-9, "got {t}");
        // Compare shapes at larger n: two-wave ≪ flat, > tree.
        let mut c2 = cluster(64);
        let ready2 = vec![Seconds::zero(); 64];
        let t2 = reduce(&mut c2, ReduceKind::TwoWave, GBIT, &ready2);
        assert!(t2.as_secs() < 64.0 / 2.0);
        assert!(t2.as_secs() > (64f64).log2());
    }

    #[test]
    fn ring_all_reduce_near_constant() {
        // Total time ≈ 2·(n−1)/n · bits/B regardless of n.
        for n in [2usize, 4, 16, 32] {
            let mut c = cluster(n);
            let ready = vec![Seconds::zero(); n];
            let t = ring_all_reduce(&mut c, GBIT, &ready);
            let expected = 2.0 * (n as f64 - 1.0) / n as f64;
            assert!(
                (t.as_secs() - expected).abs() < 1e-6,
                "n={n}: got {t}, expected {expected}"
            );
        }
    }

    #[test]
    fn ring_single_worker_is_free() {
        let mut c = cluster(1);
        let t = ring_all_reduce(&mut c, GBIT, &[Seconds::new(0.5)]);
        assert_eq!(t.as_secs(), 0.5);
    }

    #[test]
    fn halving_doubling_matches_alpha_beta_form() {
        // Power of two: 2·log₂ n rounds, 2·(n−1)/n·bits volume.
        for n in [2usize, 4, 8, 16, 32] {
            let mut c = cluster(n);
            let ready = vec![Seconds::zero(); n];
            let t = halving_doubling_all_reduce(&mut c, GBIT, &ready);
            let expected = 2.0 * (n as f64 - 1.0) / n as f64;
            assert!(
                (t.as_secs() - expected).abs() < 1e-9,
                "n={n}: got {t}, expected {expected}"
            );
        }
    }

    #[test]
    fn halving_doubling_non_power_folds_extras() {
        // n=5: fold (1 s) + exchange among 4 (1.5 s) + unfold (1 s).
        let mut c = cluster(5);
        let ready = vec![Seconds::zero(); 5];
        let t = halving_doubling_all_reduce(&mut c, GBIT, &ready);
        assert!((t.as_secs() - 3.5).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn halving_doubling_single_worker_is_free() {
        let mut c = cluster(1);
        let t = halving_doubling_all_reduce(&mut c, GBIT, &[Seconds::new(0.25)]);
        assert_eq!(t.as_secs(), 0.25);
    }

    fn racked_cluster(workers: usize, rack_size: usize) -> SimCluster {
        let spec = ClusterSpec::new(
            NodeSpec::new(FlopsRate::giga(1.0), 1.0),
            LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
        )
        .with_racks(RackSpec::new(
            rack_size,
            LinkSpec::bandwidth_only(BitsPerSec::giga(1.0)),
        ));
        SimCluster::new(spec, workers)
    }

    #[test]
    fn hierarchical_matches_phase_sum() {
        // 16 workers in racks of 4: tree reduce ⌈log₂ 4⌉ = 2 rounds at
        // 0.1 s, leader ring 2·3 steps of (1/4) s, tree broadcast 2 rounds.
        let mut c = racked_cluster(16, 4);
        let ready = vec![Seconds::zero(); 16];
        let t = hierarchical_all_reduce(&mut c, GBIT, &ready);
        let expected = 2.0 * 0.1 + 6.0 * 0.25 + 2.0 * 0.1;
        assert!((t.as_secs() - expected).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn hierarchical_flat_cluster_is_single_rack_tree() {
        // No rack topology: one rack of 8, ⌈log₂ 8⌉ = 3 rounds each way
        // at 1 s per transfer, no ring.
        let mut c = cluster(8);
        let ready = vec![Seconds::zero(); 8];
        let t = hierarchical_all_reduce(&mut c, GBIT, &ready);
        assert!((t.as_secs() - 6.0).abs() < 1e-9, "got {t}");
    }

    #[test]
    fn hierarchical_keeps_bulk_traffic_off_the_uplink() {
        // Same payload, same worker count: hierarchical over racks beats
        // a flat tree exchange forced across the slow uplink-class links.
        let n = 32;
        let mut hier = racked_cluster(n, 8);
        let ready = vec![Seconds::zero(); n];
        let t_hier = hierarchical_all_reduce(&mut hier, GBIT, &ready);
        let mut flat = cluster(n); // every link 1 Gbit/s ≈ the uplink
        let ready2 = vec![Seconds::zero(); n];
        let up = reduce(&mut flat, ReduceKind::Tree, GBIT, &ready2);
        let t_flat = broadcast(&mut flat, BroadcastKind::Tree, GBIT, up);
        assert!(
            t_hier < t_flat,
            "hierarchical {t_hier} must beat flat {t_flat}"
        );
    }

    #[test]
    fn hierarchical_respects_readiness() {
        let mut c = racked_cluster(4, 2);
        let mut ready = vec![Seconds::zero(); 4];
        ready[3] = Seconds::new(5.0);
        let t = hierarchical_all_reduce(&mut c, GBIT, &ready);
        assert!(t.as_secs() >= 5.0);
    }

    #[test]
    #[should_panic(expected = "readiness time per worker")]
    fn halving_doubling_mismatched_ready_rejected() {
        let mut c = cluster(3);
        let _ = halving_doubling_all_reduce(&mut c, GBIT, &[Seconds::zero()]);
    }

    #[test]
    fn reduce_respects_readiness() {
        let mut c = cluster(2);
        let ready = vec![Seconds::new(10.0), Seconds::zero()];
        let t = reduce(&mut c, ReduceKind::Flat, GBIT, &ready);
        assert!(t.as_secs() >= 11.0);
    }

    #[test]
    fn torrent_matches_tree_shape() {
        let mut c1 = cluster(16);
        let mut c2 = cluster(16);
        let t1 = broadcast(&mut c1, BroadcastKind::Torrent, GBIT, Seconds::zero());
        let t2 = broadcast(&mut c2, BroadcastKind::Tree, GBIT, Seconds::zero());
        assert_eq!(t1, t2);
    }

    #[test]
    fn shared_memory_collectives_are_instant() {
        use mlscale_core::hardware::presets;
        let mut c = SimCluster::new(presets::dl980(), 8);
        let t = broadcast(&mut c, BroadcastKind::Flat, 1e12, Seconds::zero());
        assert!(t.is_zero());
        let ready = vec![Seconds::new(1.0); 8];
        let t = reduce(&mut c, ReduceKind::TwoWave, 1e12, &ready);
        assert!((t.as_secs() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "readiness time per worker")]
    fn mismatched_ready_rejected() {
        let mut c = cluster(3);
        let _ = reduce(&mut c, ReduceKind::Flat, GBIT, &[Seconds::zero()]);
    }
}
