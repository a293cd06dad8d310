//! Compressed sparse row (CSR) representation of undirected graphs.
//!
//! The belief-propagation experiments operate on graphs with up to
//! 16.3 million vertices and ~100 million edges, so the representation is
//! compact: one `u32` per directed arc plus one offset per vertex. Vertex
//! ids are `u32` throughout (4.3 billion vertices is far beyond the paper's
//! scale).

/// Vertex identifier.
pub type VertexId = u32;

/// An undirected graph in CSR form. Every undirected edge `{u, v}` is
/// stored as two directed arcs (`u → v` and `v → u`); self-loops are stored
/// as a single arc and counted as one edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrGraph {
    /// `offsets[v]..offsets[v+1]` indexes `targets` for vertex `v`.
    offsets: Vec<u64>,
    /// Concatenated adjacency lists.
    targets: Vec<VertexId>,
    /// Number of undirected edges.
    edges: u64,
}

impl CsrGraph {
    /// Builds a graph from an undirected edge list. Duplicate edges are
    /// kept (multigraph semantics — the generators below never produce
    /// them, but measured graphs may).
    ///
    /// # Panics
    /// Panics when an endpoint is `>= vertices`.
    pub fn from_edges(vertices: usize, edge_list: &[(VertexId, VertexId)]) -> Self {
        let mut degrees = vec![0u64; vertices];
        for &(u, v) in edge_list {
            assert!((u as usize) < vertices, "endpoint {u} out of range");
            assert!((v as usize) < vertices, "endpoint {v} out of range");
            degrees[u as usize] += 1;
            if u != v {
                degrees[v as usize] += 1;
            }
        }
        let mut offsets = Vec::with_capacity(vertices + 1);
        offsets.push(0u64);
        for &d in &degrees {
            // lint: allow(panic-free-lib): offsets starts with a pushed 0, so last() is always Some
            offsets.push(offsets.last().unwrap() + d);
        }
        let mut cursor: Vec<u64> = offsets[..vertices].to_vec();
        // lint: allow(panic-free-lib): offsets starts with a pushed 0, so last() is always Some
        let mut targets = vec![0 as VertexId; *offsets.last().unwrap() as usize];
        for &(u, v) in edge_list {
            targets[cursor[u as usize] as usize] = v;
            cursor[u as usize] += 1;
            if u != v {
                targets[cursor[v as usize] as usize] = u;
                cursor[v as usize] += 1;
            }
        }
        Self {
            offsets,
            targets,
            edges: edge_list.len() as u64,
        }
    }

    /// Number of vertices `V`.
    pub fn vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `E`.
    pub fn edges(&self) -> u64 {
        self.edges
    }

    /// Degree of a vertex (self-loops count once).
    pub fn degree(&self, v: VertexId) -> u32 {
        (self.offsets[v as usize + 1] - self.offsets[v as usize]) as u32
    }

    /// Neighbors of a vertex.
    pub fn neighbors(&self, v: VertexId) -> &[VertexId] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.targets[lo..hi]
    }

    /// Degree of every vertex, as the degree sequence the Monte-Carlo
    /// estimator consumes.
    pub fn degree_sequence(&self) -> Vec<u32> {
        (0..self.vertices() as VertexId)
            .map(|v| self.degree(v))
            .collect()
    }

    /// Maximum degree.
    pub fn max_degree(&self) -> u32 {
        (0..self.vertices() as VertexId)
            .map(|v| self.degree(v))
            .max()
            .unwrap_or(0)
    }

    /// Average degree `2E/V` (0 for the empty graph).
    pub fn avg_degree(&self) -> f64 {
        if self.vertices() == 0 {
            return 0.0;
        }
        self.targets.len() as f64 / self.vertices() as f64
    }

    /// Iterates over every undirected edge once (as `u <= v` pairs;
    /// self-loops reported once).
    pub fn edge_iter(&self) -> impl Iterator<Item = (VertexId, VertexId)> + '_ {
        (0..self.vertices() as VertexId).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .filter(move |&&v| u <= v)
                .map(move |&v| (u, v))
        })
    }

    /// Validates the structural invariants: sorted offsets, targets in
    /// range, and arc symmetry (every `u → v` has a matching `v → u`).
    /// Intended for tests and debug assertions; `O(E log E)` memory-light
    /// check.
    pub fn validate(&self) -> Result<(), String> {
        if self.offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err("offsets not monotone".into());
        }
        // lint: allow(panic-free-lib): offsets starts with a pushed 0 at construction, so last() is always Some
        if *self.offsets.last().unwrap() as usize != self.targets.len() {
            return Err("final offset disagrees with target count".into());
        }
        let v = self.vertices() as VertexId;
        if self.targets.iter().any(|&t| t >= v) {
            return Err("target out of range".into());
        }
        // Arc symmetry via degree-of-occurrence counting per pair.
        let mut fwd: Vec<(VertexId, VertexId)> = Vec::with_capacity(self.targets.len());
        for u in 0..v {
            for &t in self.neighbors(u) {
                if u != t {
                    fwd.push(if u < t { (u, t) } else { (t, u) });
                }
            }
        }
        fwd.sort_unstable();
        // Every normalised non-loop pair must appear an even number of
        // times (u→v and v→u contribute one occurrence each).
        let mut i = 0;
        while i < fwd.len() {
            let mut j = i;
            while j < fwd.len() && fwd[j] == fwd[i] {
                j += 1;
            }
            if (j - i) % 2 != 0 {
                return Err(format!("asymmetric arc {:?}", fwd[i]));
            }
            i = j;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Triangle plus a pendant: 0-1, 1-2, 2-0, 2-3.
    fn small() -> CsrGraph {
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 0), (2, 3)])
    }

    #[test]
    fn counts() {
        let g = small();
        assert_eq!(g.vertices(), 4);
        assert_eq!(g.edges(), 4);
        assert_eq!(g.degree(0), 2);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(3), 1);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn neighbors_symmetric() {
        let g = small();
        assert!(g.neighbors(0).contains(&1));
        assert!(g.neighbors(1).contains(&0));
        assert!(g.validate().is_ok());
    }

    #[test]
    fn degree_sequence_sums_to_2e() {
        let g = small();
        let sum: u64 = g.degree_sequence().iter().map(|&d| u64::from(d)).sum();
        assert_eq!(sum, 2 * g.edges());
    }

    #[test]
    fn edge_iter_visits_each_edge_once() {
        let g = small();
        let mut edges: Vec<_> = g.edge_iter().collect();
        edges.sort_unstable();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn self_loop_counts_once() {
        let g = CsrGraph::from_edges(2, &[(0, 0), (0, 1)]);
        assert_eq!(g.edges(), 2);
        assert_eq!(g.degree(0), 2); // loop arc + edge arc
        let loops: Vec<_> = g.edge_iter().filter(|&(u, v)| u == v).collect();
        assert_eq!(loops, vec![(0, 0)]);
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(3, &[]);
        assert_eq!(g.edges(), 0);
        assert_eq!(g.max_degree(), 0);
        assert_eq!(g.avg_degree(), 0.0);
        assert!(g.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_endpoint_panics() {
        let _ = CsrGraph::from_edges(2, &[(0, 5)]);
    }
}
