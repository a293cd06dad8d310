//! The paper's graphical-model-inference scalability model (Section IV-B,
//! V-B).
//!
//! Vertices of a pairwise MRF are partitioned across `n` workers; each
//! worker iterates over the edges incident to its vertices. The slowest
//! worker (most edges) gates the superstep:
//!
//! ```text
//! t_cp = max_i(E_i) · c(S) / F
//! t_cm = 32/B · r · V · S           (linear communication of replicas)
//! ```
//!
//! `max_i(E_i)` is estimated with the paper's Monte-Carlo-like simulation:
//! vertices are assigned to workers at random, each worker's raw count
//! `E_i^rnd = Σ deg(v)` double-counts intra-worker edges, corrected by
//!
//! ```text
//! E_dup = ½·(V/n − 1)·(V/n) · E/(V(V−1)/2)
//! ```
//!
//! > Note: Section V-B of the paper prints the BP computation time as
//! > `max_i(E_i)/(F·n)·(S+2(S+S²))`, with an extra `1/n` relative to the
//! > Section IV-B definition. Since `E_i` is already a *per-worker* count
//! > (it scales as ≈`E/n`), the extra division would make speedup quadratic
//! > in `n`, contradicting Fig 4's sub-linear curves; we implement the
//! > Section IV-B form and treat the V-B rendering as a typo.

use crate::speedup::SpeedupCurve;
use crate::units::{BitsPerSec, FlopCount, FlopsRate, Seconds};
use rand::Rng;

/// Per-edge computation cost of loopy belief propagation with `S` states:
/// `c(S) = S + 2·(S + S²)` (paper, Section V-B). One belief update plus a
/// message generation/marginalisation per direction.
#[inline]
pub fn bp_cost_per_edge(states: usize) -> FlopCount {
    let s = states as f64;
    FlopCount::new(s + 2.0 * (s + s * s))
}

/// Per-edge computation cost of one Gibbs sampling sweep with `S` states,
/// in the same convention as [`bp_cost_per_edge`]: each directed edge
/// contributes `S` multiply-adds into the conditional of its endpoint, so
/// `c_Gibbs(S) = 2·S` per undirected edge. The `O(V·S)`
/// normalisation/sampling term is not per-edge and is left out.
#[inline]
pub fn gibbs_cost_per_edge(states: usize) -> FlopCount {
    FlopCount::new(2.0 * states as f64)
}

/// The paper's duplicate-edge correction for the random-assignment
/// estimator: expected number of double-counted (intra-worker) edges on one
/// worker holding `V/n` vertices.
///
/// `E_dup = ½·(V/n − 1)·(V/n) · E / (V(V−1)/2)`
#[inline]
pub fn duplicate_edge_correction(v: f64, e: f64, n: usize) -> f64 {
    let per_worker = v / n as f64;
    let pairs_on_worker = 0.5 * (per_worker - 1.0).max(0.0) * per_worker;
    let edge_probability = e / (v * (v - 1.0) / 2.0);
    pairs_on_worker * edge_probability
}

/// One Monte-Carlo trial of the paper's estimator: randomly assign each
/// vertex (given by its degree) to one of `n` workers, accumulate per-worker
/// degree sums, take the max, and subtract the duplicate correction.
///
/// Returns the corrected estimate of `max_i(E_i)`.
pub fn max_edges_random_assignment<R: Rng + ?Sized>(degrees: &[u32], n: usize, rng: &mut R) -> f64 {
    assert!(n >= 1, "need at least one worker");
    let v = degrees.len() as f64;
    let e: f64 = degrees.iter().map(|&d| f64::from(d)).sum::<f64>() / 2.0;
    if n == 1 {
        return e;
    }
    let mut per_worker = vec![0.0f64; n];
    for &d in degrees {
        let w = rng.gen_range(0..n);
        per_worker[w] += f64::from(d);
    }
    let max_rnd = per_worker.iter().copied().fold(0.0, f64::max);
    let corrected = max_rnd - duplicate_edge_correction(v, e, n);
    corrected.max(0.0)
}

/// Averages [`max_edges_random_assignment`] over `trials` independent
/// assignments — the "Monte-Carlo-like simulation" of Section IV-B.
pub fn max_edges_monte_carlo<R: Rng + ?Sized>(
    degrees: &[u32],
    n: usize,
    trials: usize,
    rng: &mut R,
) -> f64 {
    assert!(trials >= 1, "need at least one trial");
    let sum: f64 = (0..trials)
        .map(|_| max_edges_random_assignment(degrees, n, rng))
        .sum();
    sum / trials as f64
}

/// How `max_i(E_i)` is obtained for each worker count.
#[derive(Debug, Clone)]
pub enum EdgeLoad {
    /// Balanced ideal: `max_i(E_i) = E/n` (no skew; lower bound).
    Balanced,
    /// Precomputed per-`n` values, e.g. from [`max_edges_monte_carlo`] or
    /// from exact partition counts; `loads[k]` corresponds to `n = k+1`.
    PerWorkerMax(Vec<f64>),
}

/// Scalability model of iterative graphical-model inference.
#[derive(Debug, Clone)]
pub struct GraphInferenceModel {
    /// Number of vertices `V`.
    pub vertices: f64,
    /// Number of (undirected) edges `E`.
    pub edges: f64,
    /// Number of states `S` per variable.
    pub states: usize,
    /// Per-edge computation cost `c(S)`.
    pub cost_per_edge: FlopCount,
    /// Effective per-worker compute rate `F`.
    pub flops: FlopsRate,
    /// Link bandwidth `B` (use `f64::INFINITY` bits/s for shared memory).
    pub bandwidth: BitsPerSec,
    /// Replication factor `r`: fraction of vertex states that must be
    /// delivered to remote workers each iteration.
    pub replication: f64,
    /// Per-worker-count maximum edge loads.
    pub edge_load: EdgeLoad,
}

impl GraphInferenceModel {
    /// A convenience constructor for loopy BP (`c(S) = S + 2(S+S²)`).
    pub fn belief_propagation(
        vertices: f64,
        edges: f64,
        states: usize,
        flops: FlopsRate,
        bandwidth: BitsPerSec,
        replication: f64,
        edge_load: EdgeLoad,
    ) -> Self {
        Self {
            vertices,
            edges,
            states,
            cost_per_edge: bp_cost_per_edge(states),
            flops,
            bandwidth,
            replication,
            edge_load,
        }
    }

    /// `max_i(E_i)` for the given worker count.
    pub fn max_edges(&self, n: usize) -> f64 {
        assert!(n >= 1);
        match &self.edge_load {
            EdgeLoad::Balanced => self.edges / n as f64,
            EdgeLoad::PerWorkerMax(loads) => *loads
                .get(n - 1)
                // lint: allow(panic-free-lib): documented # Panics contract — loads are recorded for every n the curve samples
                .unwrap_or_else(|| panic!("no edge load recorded for n={n}")),
        }
    }

    /// Computation time `t_cp = max_i(E_i)·c(S)/F` (Section IV-B form).
    pub fn comp_time(&self, n: usize) -> Seconds {
        (self.cost_per_edge * self.max_edges(n)) / self.flops
    }

    /// Communication time `t_cm = 32/B · r · V · S` (linear model over the
    /// replicated variable states). Zero for a single worker and for
    /// shared-memory (infinite-bandwidth) configurations.
    pub fn comm_time(&self, n: usize) -> Seconds {
        if n <= 1 || self.bandwidth.get().is_infinite() {
            return Seconds::zero();
        }
        let bits = 32.0 * self.replication * self.vertices * self.states as f64;
        Seconds::new(bits / self.bandwidth.get())
    }

    /// Iteration time `t(n) = t_cp(n) + t_cm(n)`.
    pub fn iteration_time(&self, n: usize) -> Seconds {
        self.comp_time(n) + self.comm_time(n)
    }

    /// Strong-scaling speedup curve over `ns`.
    pub fn curve(&self, ns: impl IntoIterator<Item = usize>) -> SpeedupCurve {
        SpeedupCurve::from_fn(ns, |n| self.iteration_time(n))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn bp_cost_matches_paper_s2() {
        // S = 2 (the Fig 4 experiment): c(S) = 2 + 2·(2+4) = 14.
        assert_eq!(bp_cost_per_edge(2).get(), 14.0);
    }

    #[test]
    fn bp_cost_quadratic_in_states() {
        // Dominant term 2S² for large S.
        let c100 = bp_cost_per_edge(100).get();
        assert!((c100 - (100.0 + 2.0 * (100.0 + 10_000.0))).abs() < 1e-9);
    }

    #[test]
    fn cost_model_cheaper_per_edge_than_bp() {
        for s in [2usize, 4, 8] {
            let gibbs = gibbs_cost_per_edge(s).get();
            let bp = bp_cost_per_edge(s).get();
            assert!(
                gibbs < bp,
                "Gibbs lacks the S² marginalisation: {gibbs} vs {bp}"
            );
        }
    }

    #[test]
    fn duplicate_correction_matches_formula() {
        let (v, e, n) = (1000.0, 5000.0, 10usize);
        let per = v / n as f64;
        let expected = 0.5 * (per - 1.0) * per * (e / (v * (v - 1.0) / 2.0));
        assert!((duplicate_edge_correction(v, e, n) - expected).abs() < 1e-9);
    }

    #[test]
    fn duplicate_correction_zero_for_single_vertex_workers() {
        // V/n = 1 vertex per worker → no intra-worker pairs.
        assert_eq!(duplicate_edge_correction(100.0, 450.0, 100), 0.0);
    }

    /// Regular graph: every vertex degree d. Random assignment of V/n
    /// vertices gives E_i^rnd ≈ d·V/n; corrected ≈ edges/n for large V.
    #[test]
    fn monte_carlo_close_to_balanced_for_regular_graph() {
        let degrees = vec![10u32; 10_000];
        let e = 10.0 * 10_000.0 / 2.0;
        let mut rng = StdRng::seed_from_u64(42);
        let n = 8;
        let est = max_edges_monte_carlo(&degrees, n, 20, &mut rng);
        let balanced = e / n as f64;
        // Per-worker degree sum is ≈ d·V/n = 12500 with duplicate
        // correction ≈ E/n²·… small; estimate should be within ~2x·balanced
        // and above balanced (max ≥ mean).
        assert!(est >= balanced * 0.95, "est {est} vs balanced {balanced}");
        assert!(est <= balanced * 2.2, "est {est} vs balanced {balanced}");
    }

    #[test]
    fn monte_carlo_single_worker_is_exact() {
        let degrees = vec![4u32; 100];
        let mut rng = StdRng::seed_from_u64(1);
        let est = max_edges_monte_carlo(&degrees, 1, 5, &mut rng);
        assert_eq!(est, 200.0); // E = 4·100/2.
    }

    #[test]
    fn skewed_degrees_give_higher_max_than_balanced() {
        // One hub of degree 5000 among degree-2 vertices: whichever worker
        // receives the hub carries it entirely.
        let mut degrees = vec![2u32; 10_000];
        degrees[0] = 5000;
        let e: f64 = degrees.iter().map(|&d| f64::from(d)).sum::<f64>() / 2.0;
        let mut rng = StdRng::seed_from_u64(7);
        let n = 16;
        let est = max_edges_monte_carlo(&degrees, n, 10, &mut rng);
        assert!(
            est > 1.5 * e / n as f64,
            "hub must create skew: {est} vs {}",
            e / n as f64
        );
    }

    fn shared_memory_model(edge_load: EdgeLoad) -> GraphInferenceModel {
        GraphInferenceModel::belief_propagation(
            16_000.0,
            100_000.0,
            2,
            FlopsRate::giga(7.6),
            BitsPerSec::new(f64::INFINITY),
            0.5,
            edge_load,
        )
    }

    #[test]
    fn shared_memory_has_zero_comm() {
        let m = shared_memory_model(EdgeLoad::Balanced);
        assert!(m.comm_time(64).is_zero());
    }

    #[test]
    fn balanced_load_scales_linearly_in_shared_memory() {
        let m = shared_memory_model(EdgeLoad::Balanced);
        let c = m.curve(1..=32);
        for (n, s) in c.speedups() {
            assert!((s - n as f64).abs() < 1e-9);
        }
    }

    #[test]
    fn skewed_load_scales_sublinearly() {
        // max E_i decays slower than E/n: speedup below linear.
        let loads: Vec<f64> = (1..=32)
            .map(|n| 100_000.0 / n as f64 * (1.0 + 0.1 * (n as f64).ln()))
            .collect();
        let m = shared_memory_model(EdgeLoad::PerWorkerMax(loads));
        let c = m.curve(1..=32);
        for (n, s) in c.speedups().into_iter().skip(1) {
            assert!(s < n as f64, "skew must keep speedup sublinear at n={n}");
            assert!(s > 1.0, "but still scalable at n={n}");
        }
    }

    #[test]
    fn networked_comm_time_matches_formula() {
        let m = GraphInferenceModel {
            bandwidth: BitsPerSec::giga(1.0),
            ..shared_memory_model(EdgeLoad::Balanced)
        };
        let expected = 32.0 * 0.5 * 16_000.0 * 2.0 / 1e9;
        assert!((m.comm_time(4).as_secs() - expected).abs() < 1e-15);
        assert!(m.comm_time(1).is_zero());
    }

    #[test]
    #[should_panic(expected = "no edge load recorded")]
    fn missing_edge_load_panics() {
        let m = shared_memory_model(EdgeLoad::PerWorkerMax(vec![100.0]));
        let _ = m.comp_time(2);
    }

    #[test]
    fn comp_time_uses_cost_per_edge() {
        let m = shared_memory_model(EdgeLoad::Balanced);
        let n = 4;
        let expected = (100_000.0 / 4.0) * 14.0 / 7.6e9;
        assert!((m.comp_time(n).as_secs() - expected).abs() / expected < 1e-12);
    }
}
