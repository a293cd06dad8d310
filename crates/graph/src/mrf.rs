//! Pairwise Markov random fields and loopy belief propagation.
//!
//! "In our analysis, we consider pairwise Markov random field (MRF) model,
//! which is generic enough to represent any graphical model." This module
//! implements the real algorithm the Fig 4 experiment models: synchronous
//! loopy BP over a pairwise MRF with `S` states — belief update from
//! incoming messages, message generation with marginalisation — together
//! with exact brute-force inference for small graphs (the correctness
//! oracle: BP is exact on trees).

use crate::csr::{CsrGraph, VertexId};

/// Pairwise potential families.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PairwisePotential {
    /// Potts smoothing: `ψ(x, y) = same` when `x == y`, else `diff`.
    /// The classic image-denoising / community coupling.
    Potts {
        /// Affinity when the two variables agree.
        same: f64,
        /// Affinity when they disagree.
        diff: f64,
    },
    /// Fully uniform (independence) — useful for tests.
    Uniform,
}

impl PairwisePotential {
    /// `ψ(a, b)`.
    #[inline]
    pub fn eval(&self, a: usize, b: usize) -> f64 {
        match *self {
            PairwisePotential::Potts { same, diff } => {
                if a == b {
                    same
                } else {
                    diff
                }
            }
            PairwisePotential::Uniform => 1.0,
        }
    }
}

/// A pairwise MRF over an undirected graph: one `S`-state variable per
/// vertex with a unary potential, and a shared pairwise potential on every
/// edge.
#[derive(Debug, Clone)]
pub struct PairwiseMrf {
    /// The underlying graph.
    pub graph: CsrGraph,
    /// Number of states `S`.
    pub states: usize,
    /// Row-major `V × S` unary potentials (strictly positive).
    unary: Vec<f64>,
    /// Shared pairwise potential.
    pub pairwise: PairwisePotential,
}

impl PairwiseMrf {
    /// Builds an MRF.
    ///
    /// # Panics
    /// Panics when `unary.len() != V·S`, `S < 2`, or any potential is
    /// non-positive (BP's message normalisation requires positivity).
    pub fn new(
        graph: CsrGraph,
        states: usize,
        unary: Vec<f64>,
        pairwise: PairwisePotential,
    ) -> Self {
        assert!(states >= 2, "need at least two states");
        assert_eq!(
            unary.len(),
            graph.vertices() * states,
            "unary potentials must be V × S"
        );
        assert!(
            unary.iter().all(|&p| p > 0.0 && p.is_finite()),
            "unary potentials must be strictly positive"
        );
        Self {
            graph,
            states,
            unary,
            pairwise,
        }
    }

    /// Uniform unary potentials (prior-free field).
    pub fn uniform(graph: CsrGraph, states: usize, pairwise: PairwisePotential) -> Self {
        let unary = vec![1.0; graph.vertices() * states];
        Self::new(graph, states, unary, pairwise)
    }

    /// Unary potential `φ_v(x)`.
    #[inline]
    pub fn unary(&self, v: VertexId, x: usize) -> f64 {
        self.unary[v as usize * self.states + x]
    }

    /// Number of vertices.
    pub fn vertices(&self) -> usize {
        self.graph.vertices()
    }

    /// The paper's per-iteration BP computation volume: per-edge cost
    /// `c(S) = S + 2·(S + S²)` multiply-adds times the edge count.
    pub fn modeled_iteration_madds(&self) -> f64 {
        let s = self.states as f64;
        let c = s + 2.0 * (s + s * s);
        c * self.graph.edges() as f64
    }
}

/// Convergence / iteration report of a BP run.
#[derive(Debug, Clone, PartialEq)]
pub struct BpRun {
    /// Iterations executed.
    pub iterations: usize,
    /// Final maximum absolute message change.
    pub final_delta: f64,
    /// Whether `final_delta <= tolerance` was reached.
    pub converged: bool,
}

/// Synchronous loopy belief propagation engine.
///
/// Messages live on directed arcs; arc `arc_offsets[v] + j` holds the
/// message `m_{u→v}` where `u` is the `j`-th neighbor of `v` — incoming
/// messages are contiguous per destination, so belief computation is a
/// sequential scan.
#[derive(Debug, Clone)]
pub struct BeliefPropagation<'a> {
    mrf: &'a PairwiseMrf,
    /// Current messages, `2E` rows of length `S`.
    messages: Vec<f64>,
    /// Double buffer for the synchronous update.
    next: Vec<f64>,
    /// `reverse[a]`: arc index of the opposite direction of arc `a`.
    reverse: Vec<u64>,
    /// Arc index base per vertex.
    arc_offsets: Vec<usize>,
    /// Scratch row for the pre-message product.
    scratch: Vec<f64>,
    /// Damping factor in `[0, 1)`: `m ← (1−λ)·m_new + λ·m_old`.
    pub damping: f64,
}

impl<'a> BeliefPropagation<'a> {
    /// Initialises uniform messages and the reverse-arc index.
    pub fn new(mrf: &'a PairwiseMrf) -> Self {
        let s = mrf.states;
        let g = &mrf.graph;
        let mut arc_offsets = Vec::with_capacity(g.vertices() + 1);
        arc_offsets.push(0usize);
        for v in 0..g.vertices() as VertexId {
            // lint: allow(panic-free-lib): arc_offsets starts with a pushed 0, so last() is always Some
            arc_offsets.push(arc_offsets.last().unwrap() + g.neighbors(v).len());
        }
        // lint: allow(panic-free-lib): arc_offsets starts with a pushed 0, so last() is always Some
        let arcs = *arc_offsets.last().unwrap();
        let uniform = 1.0 / s as f64;
        Self {
            mrf,
            messages: vec![uniform; arcs * s],
            next: vec![0.0; arcs * s],
            reverse: build_reverse_index(g, &arc_offsets),
            arc_offsets,
            scratch: vec![0.0; s],
            damping: 0.0,
        }
    }

    /// One synchronous iteration; returns the maximum absolute message
    /// change. Per directed arc: a product over the source's incoming
    /// messages plus an `S²` marginalisation — the computation the paper
    /// prices at `c(S) = S + 2(S + S²)` per edge.
    pub fn iterate(&mut self) -> f64 {
        let s = self.mrf.states;
        let mrf = self.mrf;
        let g = &mrf.graph;
        let arc_offsets = &self.arc_offsets;
        let reverse = &self.reverse;
        let messages = &self.messages;
        let next = &mut self.next;
        let pre = &mut self.scratch[..s];
        let damping = self.damping;
        let mut max_delta = 0.0f64;

        for v in 0..g.vertices() as VertexId {
            let vbase = arc_offsets[v as usize];
            for (j, &u) in g.neighbors(v).iter().enumerate() {
                let arc = vbase + j;
                let rev = reverse[arc] as usize; // arc (v → u), stored at u

                // pre[x_u] = φ_u(x_u) · Π_{w ∈ N(u), w-arc ≠ rev} m_{w→u}(x_u)
                for (x, p) in pre.iter_mut().enumerate() {
                    *p = mrf.unary(u, x);
                }
                let ubase = arc_offsets[u as usize];
                for k in 0..g.neighbors(u).len() {
                    let in_arc = ubase + k;
                    if in_arc == rev {
                        continue;
                    }
                    let row = &messages[in_arc * s..(in_arc + 1) * s];
                    for (p, &m) in pre.iter_mut().zip(row) {
                        *p *= m;
                    }
                }

                // m_new(x_v) = Σ_{x_u} ψ(x_u, x_v) · pre(x_u), normalised.
                let out = &mut next[arc * s..(arc + 1) * s];
                let mut total = 0.0;
                for (xv, o) in out.iter_mut().enumerate() {
                    let mut acc = 0.0;
                    for (xu, &p) in pre.iter().enumerate() {
                        acc += mrf.pairwise.eval(xu, xv) * p;
                    }
                    *o = acc;
                    total += acc;
                }
                let old = &messages[arc * s..(arc + 1) * s];
                for (o, &prev) in out.iter_mut().zip(old) {
                    let blended = (1.0 - damping) * (*o / total) + damping * prev;
                    max_delta = max_delta.max((blended - prev).abs());
                    *o = blended;
                }
            }
        }
        std::mem::swap(&mut self.messages, &mut self.next);
        max_delta
    }

    /// Runs until the maximum message change drops to `tolerance` or
    /// `max_iterations` is reached.
    pub fn run(&mut self, max_iterations: usize, tolerance: f64) -> BpRun {
        let mut delta = f64::INFINITY;
        let mut iterations = 0;
        while iterations < max_iterations {
            delta = self.iterate();
            iterations += 1;
            if delta <= tolerance {
                break;
            }
        }
        BpRun {
            iterations,
            final_delta: delta,
            converged: delta <= tolerance,
        }
    }

    /// Normalised marginal belief of a vertex:
    /// `b_v(x) ∝ φ_v(x) · Π_j m_{u_j→v}(x)`.
    pub fn belief(&self, v: VertexId) -> Vec<f64> {
        let s = self.mrf.states;
        let mut b: Vec<f64> = (0..s).map(|x| self.mrf.unary(v, x)).collect();
        let base = self.arc_offsets[v as usize];
        for j in 0..self.mrf.graph.neighbors(v).len() {
            let arc = base + j;
            let row = &self.messages[arc * s..(arc + 1) * s];
            for (bx, &m) in b.iter_mut().zip(row) {
                *bx *= m;
            }
        }
        let total: f64 = b.iter().sum();
        for bx in &mut b {
            *bx /= total;
        }
        b
    }

    /// All marginals as a `V × S` row-major vector.
    pub fn marginals(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.mrf.vertices() * self.mrf.states);
        for v in 0..self.mrf.vertices() as VertexId {
            out.extend(self.belief(v));
        }
        out
    }
}

fn build_reverse_index(g: &CsrGraph, arc_offsets: &[usize]) -> Vec<u64> {
    // Arc a = (v, j) means "incoming to v from its j-th neighbor u"; its
    // reverse is the arc (u, k) whose k-th neighbor is v. Sort by
    // normalised endpoint pair so the two directions of each undirected
    // edge are adjacent, then pair them (multiplicities match for
    // parallel edges).
    // lint: allow(panic-free-lib): arc_offsets starts with a pushed 0, so last() is always Some
    let total = *arc_offsets.last().unwrap();
    let mut keyed: Vec<(u32, u32, u64)> = Vec::with_capacity(total);
    for v in 0..g.vertices() as VertexId {
        for (j, &u) in g.neighbors(v).iter().enumerate() {
            let arc = (arc_offsets[v as usize] + j) as u64;
            let (a, b) = if u < v { (u, v) } else { (v, u) };
            keyed.push((a, b, arc));
        }
    }
    keyed.sort_unstable();
    let mut reverse = vec![0u64; total];
    let mut i = 0;
    while i < keyed.len() {
        let (a, b, arc1) = keyed[i];
        if a == b {
            // Self-loop: single arc, its own reverse.
            reverse[arc1 as usize] = arc1;
            i += 1;
            continue;
        }
        debug_assert_eq!((keyed[i + 1].0, keyed[i + 1].1), (a, b), "unpaired arc");
        let (_, _, arc2) = keyed[i + 1];
        reverse[arc1 as usize] = arc2;
        reverse[arc2 as usize] = arc1;
        i += 2;
    }
    reverse
}

/// Exact marginals by brute-force enumeration — `O(S^V)`, for graphs of at
/// most ~16 vertices. The correctness oracle for the BP tests.
///
/// # Panics
/// Panics when `S^V` exceeds a safety bound.
pub fn exact_marginals(mrf: &PairwiseMrf) -> Vec<f64> {
    let v = mrf.vertices();
    let s = mrf.states;
    assert!(
        (s as f64).powi(v as i32) <= 5e7,
        "exact inference is exponential; graph too large"
    );
    let mut marginals = vec![0.0f64; v * s];
    let mut assignment = vec![0usize; v];
    let mut partition = 0.0f64;
    loop {
        let mut p = 1.0;
        for (vertex, &x) in assignment.iter().enumerate() {
            p *= mrf.unary(vertex as VertexId, x);
        }
        for (a, b) in mrf.graph.edge_iter() {
            p *= mrf
                .pairwise
                .eval(assignment[a as usize], assignment[b as usize]);
        }
        partition += p;
        for (vertex, &x) in assignment.iter().enumerate() {
            marginals[vertex * s + x] += p;
        }
        // Odometer increment over assignments.
        let mut k = 0;
        loop {
            if k == v {
                for m in &mut marginals {
                    *m /= partition;
                }
                return marginals;
            }
            assignment[k] += 1;
            if assignment[k] < s {
                break;
            }
            assignment[k] = 0;
            k += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{binary_tree, grid2d, path, ring};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_unary<R: Rng + ?Sized>(v: usize, s: usize, rng: &mut R) -> Vec<f64> {
        (0..v * s).map(|_| rng.gen_range(0.2..2.0)).collect()
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (i, (&x, &y)) in a.iter().zip(b).enumerate() {
            assert!((x - y).abs() < tol, "{what}: index {i}: {x} vs {y}");
        }
    }

    #[test]
    fn bp_exact_on_path() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = path(7);
        let mrf = PairwiseMrf::new(
            g,
            2,
            random_unary(7, 2, &mut rng),
            PairwisePotential::Potts {
                same: 1.5,
                diff: 0.7,
            },
        );
        let exact = exact_marginals(&mrf);
        let mut bp = BeliefPropagation::new(&mrf);
        let run = bp.run(100, 1e-10);
        assert!(run.converged, "BP must converge on a tree");
        assert_close(&bp.marginals(), &exact, 1e-7, "path marginals");
    }

    #[test]
    fn bp_exact_on_binary_tree_three_states() {
        let mut rng = StdRng::seed_from_u64(13);
        let v = 10;
        let g = binary_tree(v);
        let mrf = PairwiseMrf::new(
            g,
            3,
            random_unary(v, 3, &mut rng),
            PairwisePotential::Potts {
                same: 2.0,
                diff: 0.5,
            },
        );
        let exact = exact_marginals(&mrf);
        let mut bp = BeliefPropagation::new(&mrf);
        let run = bp.run(200, 1e-12);
        assert!(run.converged);
        assert_close(&bp.marginals(), &exact, 1e-7, "tree marginals");
    }

    #[test]
    fn bp_converges_in_diameter_iterations_on_tree() {
        // On a tree, synchronous BP converges in at most diameter+1 sweeps.
        let mut rng = StdRng::seed_from_u64(17);
        let v = 9;
        let g = path(v);
        let mrf = PairwiseMrf::new(
            g,
            2,
            random_unary(v, 2, &mut rng),
            PairwisePotential::Potts {
                same: 1.3,
                diff: 0.9,
            },
        );
        let mut bp = BeliefPropagation::new(&mrf);
        let run = bp.run(v + 2, 1e-12);
        assert!(run.converged, "needed {} iterations", run.iterations);
        assert!(run.iterations <= v + 1);
    }

    #[test]
    fn loopy_bp_close_to_exact_on_small_cycle() {
        // Loopy BP is approximate on cycles but known to be accurate for
        // weak couplings.
        let mut rng = StdRng::seed_from_u64(19);
        let v = 8;
        let g = ring(v);
        let mrf = PairwiseMrf::new(
            g,
            2,
            random_unary(v, 2, &mut rng),
            PairwisePotential::Potts {
                same: 1.1,
                diff: 0.95,
            },
        );
        let exact = exact_marginals(&mrf);
        let mut bp = BeliefPropagation::new(&mrf);
        let run = bp.run(500, 1e-10);
        assert!(run.converged);
        assert_close(&bp.marginals(), &exact, 0.02, "cycle marginals");
    }

    #[test]
    fn uniform_pairwise_yields_unary_marginals() {
        // With ψ ≡ 1 the variables are independent: marginals are just the
        // normalised unaries, whatever the graph.
        let mut rng = StdRng::seed_from_u64(23);
        let v = 12;
        let g = grid2d(3, 4);
        let unary = random_unary(v, 2, &mut rng);
        let mrf = PairwiseMrf::new(g, 2, unary.clone(), PairwisePotential::Uniform);
        let mut bp = BeliefPropagation::new(&mrf);
        bp.run(50, 1e-12);
        for vertex in 0..v {
            let total = unary[vertex * 2] + unary[vertex * 2 + 1];
            let b = bp.belief(vertex as VertexId);
            assert!((b[0] - unary[vertex * 2] / total).abs() < 1e-9);
        }
    }

    #[test]
    fn marginals_are_normalised_even_without_convergence() {
        let g = grid2d(5, 5);
        let mrf = PairwiseMrf::uniform(
            g,
            4,
            PairwisePotential::Potts {
                same: 3.0,
                diff: 0.3,
            },
        );
        let mut bp = BeliefPropagation::new(&mrf);
        bp.run(3, 0.0); // deliberately unconverged
        let m = bp.marginals();
        for v in 0..mrf.vertices() {
            let s: f64 = m[v * 4..(v + 1) * 4].iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn damping_reaches_same_tree_fixed_point() {
        let mut rng = StdRng::seed_from_u64(29);
        let v = 8;
        let g = path(v);
        let mrf = PairwiseMrf::new(
            g,
            2,
            random_unary(v, 2, &mut rng),
            PairwisePotential::Potts {
                same: 1.4,
                diff: 0.6,
            },
        );
        let exact = exact_marginals(&mrf);
        let mut bp = BeliefPropagation::new(&mrf);
        bp.damping = 0.4;
        let run = bp.run(500, 1e-11);
        assert!(run.converged);
        assert_close(&bp.marginals(), &exact, 1e-6, "damped marginals");
    }

    #[test]
    fn potts_smoothing_pulls_neighbors_together() {
        // A 1-D chain with one strongly-biased endpoint: smoothing
        // propagates the bias down the chain with decaying strength.
        let v = 6;
        let g = path(v);
        let mut unary = vec![1.0; v * 2];
        unary[0] = 10.0; // vertex 0 strongly prefers state 0
        unary[1] = 0.1;
        let mrf = PairwiseMrf::new(
            g,
            2,
            unary,
            PairwisePotential::Potts {
                same: 2.0,
                diff: 0.5,
            },
        );
        let mut bp = BeliefPropagation::new(&mrf);
        bp.run(100, 1e-12);
        let mut prev = 1.0;
        for vertex in 0..v as VertexId {
            let b0 = bp.belief(vertex)[0];
            assert!(b0 > 0.5, "bias must reach vertex {vertex} (b0 = {b0})");
            assert!(b0 <= prev + 1e-9, "influence must decay along the chain");
            prev = b0;
        }
    }

    #[test]
    fn modeled_madds_match_formula() {
        let g = grid2d(4, 4);
        let e = g.edges() as f64;
        let mrf = PairwiseMrf::uniform(g, 2, PairwisePotential::Uniform);
        // c(2) = 2 + 2·(2+4) = 14 per edge.
        assert!((mrf.modeled_iteration_madds() - 14.0 * e).abs() < 1e-9);
    }

    #[test]
    fn reverse_index_is_involution() {
        let g = grid2d(3, 3);
        let mut offsets = vec![0usize];
        for v in 0..g.vertices() as VertexId {
            offsets.push(offsets.last().unwrap() + g.neighbors(v).len());
        }
        let rev = build_reverse_index(&g, &offsets);
        for (a, &r) in rev.iter().enumerate() {
            assert_eq!(rev[r as usize], a as u64, "reverse must be an involution");
            assert_ne!(r as usize, a, "no self-loops in a grid");
        }
    }

    #[test]
    #[should_panic(expected = "strictly positive")]
    fn zero_unary_rejected() {
        let g = path(2);
        let _ = PairwiseMrf::new(g, 2, vec![1.0, 0.0, 1.0, 1.0], PairwisePotential::Uniform);
    }

    #[test]
    #[should_panic(expected = "too large")]
    fn exact_inference_guards_size() {
        let g = grid2d(10, 10);
        let mrf = PairwiseMrf::uniform(g, 2, PairwisePotential::Uniform);
        let _ = exact_marginals(&mrf);
    }

    #[test]
    fn bp_run_report_fields_consistent() {
        let g = path(4);
        let mrf = PairwiseMrf::uniform(
            g,
            2,
            PairwisePotential::Potts {
                same: 1.2,
                diff: 0.8,
            },
        );
        let mut bp = BeliefPropagation::new(&mrf);
        let run = bp.run(1, 1e-30);
        assert_eq!(run.iterations, 1);
        assert!(!run.converged || run.final_delta <= 1e-30);
    }
}
