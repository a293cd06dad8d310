//! Vertex partitioning across workers and the partition statistics the
//! scalability model consumes: exact per-worker edge loads (the `E_i` of
//! the paper), intra-worker (duplicate-counted) edges, and the replication
//! factor `r` of the communication model.

use crate::csr::{CsrGraph, VertexId};
use rand::Rng;

/// An assignment of every vertex to one of `n` workers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `assignment[v]` is the worker that owns vertex `v`.
    assignment: Vec<u32>,
    /// Number of workers.
    workers: usize,
}

impl Partition {
    /// Wraps an explicit assignment.
    ///
    /// # Panics
    /// Panics when any worker id is `>= workers` or `workers == 0`.
    pub fn new(assignment: Vec<u32>, workers: usize) -> Self {
        assert!(workers >= 1, "need at least one worker");
        assert!(
            assignment.iter().all(|&w| (w as usize) < workers),
            "assignment references worker out of range"
        );
        Self {
            assignment,
            workers,
        }
    }

    /// The paper's strategy: "we randomly assign each vertex to a worker".
    pub fn random<R: Rng + ?Sized>(vertices: usize, workers: usize, rng: &mut R) -> Self {
        assert!(workers >= 1);
        let assignment = (0..vertices)
            .map(|_| rng.gen_range(0..workers) as u32)
            .collect();
        Self {
            assignment,
            workers,
        }
    }

    /// Deterministic hash assignment (multiplicative hashing of the vertex
    /// id) — what a production system typically does instead of true
    /// randomness.
    pub fn hashed(vertices: usize, workers: usize) -> Self {
        assert!(workers >= 1);
        let assignment = (0..vertices as u64)
            .map(|v| {
                let h = v.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31);
                (h % workers as u64) as u32
            })
            .collect();
        Self {
            assignment,
            workers,
        }
    }

    /// Contiguous block ranges: vertex ids `[kV/n, (k+1)V/n)` go to worker
    /// `k`. Sensitive to vertex-id ordering (hub clustering).
    pub fn block(vertices: usize, workers: usize) -> Self {
        assert!(workers >= 1);
        let assignment = (0..vertices)
            .map(|v| ((v * workers) / vertices.max(1)).min(workers - 1) as u32)
            .collect();
        Self {
            assignment,
            workers,
        }
    }

    /// Greedy balanced-degree assignment: vertices in decreasing degree
    /// order, each to the worker with the smallest degree sum so far (LPT
    /// scheduling). A much better balance than random for skewed graphs —
    /// used by the ablation experiments.
    pub fn greedy_balanced(graph: &CsrGraph, workers: usize) -> Self {
        assert!(workers >= 1);
        let mut order: Vec<VertexId> = (0..graph.vertices() as VertexId).collect();
        order.sort_unstable_by_key(|&v| std::cmp::Reverse(graph.degree(v)));
        let mut loads = vec![0u64; workers];
        let mut assignment = vec![0u32; graph.vertices()];
        for v in order {
            let (w, _) = loads
                .iter()
                .enumerate()
                .min_by_key(|&(_, &l)| l)
                // lint: allow(panic-free-lib): loads has `workers` entries and the assert! above requires workers >= 1
                .expect("workers >= 1");
            assignment[v as usize] = w as u32;
            loads[w] += u64::from(graph.degree(v));
        }
        Self {
            assignment,
            workers,
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of vertices the assignment covers.
    pub fn vertices(&self) -> usize {
        self.assignment.len()
    }

    /// Owner of a vertex.
    #[inline]
    pub fn owner(&self, v: VertexId) -> u32 {
        self.assignment[v as usize]
    }
}

/// Exact per-partition statistics of a partitioned graph.
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionStats {
    /// Per-worker degree sums — the paper's raw `E_i^rnd` (intra-worker
    /// edges counted twice).
    pub degree_sums: Vec<u64>,
    /// Per-worker intra-partition edge counts (the edges the correction
    /// `E_dup` estimates).
    pub intra_edges: Vec<u64>,
    /// Per-worker *distinct incident edge* counts
    /// `E_i = degree_sum_i − intra_i`.
    pub incident_edges: Vec<u64>,
    /// Number of cut (inter-worker) edges.
    pub cut_edges: u64,
    /// Total vertex replicas: for every vertex, the number of *other*
    /// workers hosting at least one neighbor (each needs a copy of the
    /// vertex's state every iteration).
    pub replicas: u64,
    /// Vertices in the graph.
    pub vertices: usize,
}

impl PartitionStats {
    /// Computes exact statistics in `O(V + E)` time (plus `O(n)` per vertex
    /// worst case for replica de-duplication, bounded by the degree).
    pub fn compute(graph: &CsrGraph, partition: &Partition) -> Self {
        let n = partition.workers();
        assert_eq!(
            graph.vertices(),
            partition.assignment.len(),
            "partition size must match the graph"
        );
        let mut degree_sums = vec![0u64; n];
        let mut intra = vec![0u64; n];
        let mut cut = 0u64;
        for v in 0..graph.vertices() as VertexId {
            degree_sums[partition.owner(v) as usize] += u64::from(graph.degree(v));
        }
        for (u, v) in graph.edge_iter() {
            let (wu, wv) = (partition.owner(u), partition.owner(v));
            if wu == wv {
                intra[wu as usize] += 1;
            } else {
                cut += 1;
            }
        }
        let incident: Vec<u64> = degree_sums
            .iter()
            .zip(&intra)
            .map(|(&d, &i)| d - i)
            .collect();
        // Replicas: distinct remote owner count per vertex. A per-worker
        // stamp array marks the owners already counted for the current
        // vertex — O(deg) per vertex with no sorting or allocation in the
        // loop (the sort-dedup this replaces dominated the whole
        // statistics pass on large graphs).
        let mut replicas = 0u64;
        let mut stamp = vec![0u64; n];
        for v in 0..graph.vertices() as VertexId {
            let home = partition.owner(v);
            let mark = u64::from(v) + 1;
            for &u in graph.neighbors(v) {
                let w = partition.owner(u);
                if w != home && stamp[w as usize] != mark {
                    stamp[w as usize] = mark;
                    replicas += 1;
                }
            }
        }
        Self {
            degree_sums,
            intra_edges: intra,
            incident_edges: incident,
            cut_edges: cut,
            replicas,
            vertices: graph.vertices(),
        }
    }

    /// The slowest worker's incident-edge count — the exact `max_i(E_i)`
    /// of the paper's computation model.
    pub fn max_incident_edges(&self) -> u64 {
        self.incident_edges.iter().copied().max().unwrap_or(0)
    }

    /// Replication factor `r = replicas / V` of the communication model.
    pub fn replication_factor(&self) -> f64 {
        if self.vertices == 0 {
            return 0.0;
        }
        self.replicas as f64 / self.vertices as f64
    }

    /// Load imbalance: `max_i(E_i) / mean_i(E_i)` (1.0 = perfectly even).
    pub fn imbalance(&self) -> f64 {
        let max = self.max_incident_edges() as f64;
        let mean =
            self.incident_edges.iter().sum::<u64>() as f64 / self.incident_edges.len() as f64;
        if mean == 0.0 {
            return 1.0;
        }
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{complete, gnm, star};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(7)
    }

    /// Number of vertices each worker owns.
    fn vertex_counts(p: &Partition) -> Vec<u64> {
        let mut counts = vec![0u64; p.workers()];
        for &w in &p.assignment {
            counts[w as usize] += 1;
        }
        counts
    }

    #[test]
    fn random_partition_covers_all_vertices() {
        let p = Partition::random(1000, 8, &mut rng());
        assert_eq!(vertex_counts(&p).iter().sum::<u64>(), 1000);
        assert!(
            vertex_counts(&p).iter().all(|&c| c > 0),
            "all workers used at this size"
        );
    }

    #[test]
    fn hashed_partition_deterministic_and_balanced() {
        let a = Partition::hashed(10_000, 16);
        let b = Partition::hashed(10_000, 16);
        assert_eq!(a, b);
        let counts = vertex_counts(&a);
        let (min, max) = (counts.iter().min().unwrap(), counts.iter().max().unwrap());
        assert!(*max < 2 * *min, "hash balance: {counts:?}");
    }

    #[test]
    fn block_partition_contiguous() {
        let p = Partition::block(10, 2);
        assert_eq!(p.owner(0), 0);
        assert_eq!(p.owner(4), 0);
        assert_eq!(p.owner(5), 1);
        assert_eq!(p.owner(9), 1);
    }

    #[test]
    fn stats_conserve_edges() {
        let g = gnm(500, 3000, &mut rng());
        let p = Partition::random(500, 7, &mut rng());
        let s = PartitionStats::compute(&g, &p);
        // Σ intra + cut = E.
        let intra_total: u64 = s.intra_edges.iter().sum();
        assert_eq!(intra_total + s.cut_edges, g.edges());
        // Σ degree sums = 2E.
        assert_eq!(s.degree_sums.iter().sum::<u64>(), 2 * g.edges());
        // Σ incident = Σ degree − Σ intra = 2E − intra = E + cut.
        assert_eq!(
            s.incident_edges.iter().sum::<u64>(),
            g.edges() + s.cut_edges
        );
        // Spreading over 7 workers cuts the heaviest load well below E.
        assert!(s.max_incident_edges() < g.edges() / 3);
    }

    #[test]
    fn single_worker_stats() {
        let g = gnm(100, 400, &mut rng());
        let p = Partition::new(vec![0; 100], 1);
        let s = PartitionStats::compute(&g, &p);
        assert_eq!(s.max_incident_edges(), g.edges());
        assert_eq!(s.cut_edges, 0);
        assert_eq!(s.replicas, 0);
        assert_eq!(s.replication_factor(), 0.0);
        assert!((s.imbalance() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn star_hub_dominates_random_partition() {
        let g = star(1001);
        let p = Partition::random(1001, 10, &mut rng());
        let s = PartitionStats::compute(&g, &p);
        // The hub's owner carries ~all 1000 edges.
        assert!(s.max_incident_edges() >= 900);
        assert!(s.imbalance() > 3.0);
    }

    #[test]
    fn greedy_beats_random_on_skewed_graph() {
        // Hub-heavy graph: greedy balanced loads much more evenly.
        let mut edges = Vec::new();
        for v in 1..2001u32 {
            edges.push((0, v)); // hub
        }
        for v in 1..2000u32 {
            edges.push((v, v + 1)); // chain
        }
        let g = CsrGraph::from_edges(2001, &edges);
        let mut r = rng();
        let random = PartitionStats::compute(&g, &Partition::random(2001, 8, &mut r));
        let greedy = PartitionStats::compute(&g, &Partition::greedy_balanced(&g, 8));
        assert!(
            greedy.max_incident_edges() < random.max_incident_edges(),
            "greedy {} vs random {}",
            greedy.max_incident_edges(),
            random.max_incident_edges()
        );
        assert!(greedy.imbalance() < random.imbalance());
    }

    #[test]
    fn replication_factor_bounds() {
        let g = complete(20);
        let p = Partition::random(20, 4, &mut rng());
        let s = PartitionStats::compute(&g, &p);
        // In a complete graph every vertex neighbors every worker: r = n−1
        // (unless a worker is empty).
        let occupied = s.degree_sums.iter().filter(|&&d| d > 0).count();
        assert!(s.replication_factor() <= (occupied - 1) as f64 + 1e-12);
        assert!(s.replication_factor() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_assignment_rejected() {
        let _ = Partition::new(vec![0, 3], 2);
    }

    #[test]
    #[should_panic(expected = "match the graph")]
    fn mismatched_partition_rejected() {
        let g = gnm(10, 20, &mut rng());
        let p = Partition::new(vec![0; 5], 1);
        let _ = PartitionStats::compute(&g, &p);
    }
}
