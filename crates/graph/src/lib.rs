//! # mlscale-graph — graph substrate for scalability modeling
//!
//! The graph-side machinery of the paper's belief-propagation experiments,
//! built from scratch:
//!
//! * [`csr`] — compact CSR undirected graphs (the Fig 4 graph has 16.3M
//!   vertices and ~100M edges);
//! * [`generators`] — Erdős–Rényi, Chung-Lu power-law, and
//!   [`generators::dns_like`]: a power-law graph calibrated to the paper's
//!   proprietary DNS traffic graph (V, E, and max degree matched);
//! * [`sampling`] — alias-method weighted sampling and Zipf weight
//!   calibration backing the generators;
//! * [`partition`] — vertex-to-worker assignment strategies and the exact
//!   partition statistics the model consumes (`max_i(E_i)`, replication
//!   factor `r`);
//! * [`mrf`] — pairwise Markov random fields and a real synchronous loopy
//!   belief propagation engine, validated against exact inference on trees.
//!
//! ```
//! use mlscale_graph::generators;
//! use mlscale_graph::mrf::{BeliefPropagation, PairwiseMrf, PairwisePotential};
//!
//! // BP on a tree is exact and converges in diameter sweeps.
//! let g = generators::path(5);
//! let mrf = PairwiseMrf::uniform(g, 2, PairwisePotential::Potts { same: 2.0, diff: 0.5 });
//! let mut bp = BeliefPropagation::new(&mrf);
//! assert!(bp.run(10, 1e-9).converged);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod csr;
pub mod generators;
pub mod mrf;
pub mod partition;
pub mod sampling;

pub use csr::{CsrGraph, VertexId};
pub use partition::{Partition, PartitionStats};
