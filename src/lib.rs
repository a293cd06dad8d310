//! # mlscale — Modeling Scalability of Distributed Machine Learning
//!
//! A from-scratch Rust reproduction of *Modeling Scalability of Distributed
//! Machine Learning* (Ulanov, Simanovsky, Marwah — ICDE 2017,
//! arXiv:1610.06276): an analytic framework that predicts, from hardware
//! specifications alone, how a distributed ML algorithm's speedup
//! `s(n) = t(1)/t(n)` behaves as workers are added — plus every substrate
//! needed to validate it end to end (a neural-network cost algebra, a
//! graph/MRF/belief-propagation stack, and a discrete-event BSP cluster
//! simulator standing in for the paper's Spark/GPU/80-core testbeds).
//!
//! This facade crate re-exports the workspace members under stable module
//! names:
//!
//! * [`model`] (`mlscale-core`) — the gradient-descent / graph-inference
//!   models, which compute the BSP time `t_cp + t_cm` directly, with
//!   `comm` pricing the collectives; speedup analysis, strong & weak
//!   scaling, and MAPE validation metrics;
//! * [`nn`] (`mlscale-nn`) — layer cost algebra, the Table I model zoo
//!   (MNIST FC, Inception v3), and a runnable mini-MLP trainer;
//! * [`graph`] (`mlscale-graph`) — CSR graphs, power-law generators
//!   calibrated to the paper's DNS traffic graph, partitioning statistics,
//!   and a real loopy belief-propagation engine;
//! * [`sim`] (`mlscale-sim`) — the discrete-event cluster simulator
//!   (collectives, overhead models, async parameter server);
//! * [`workloads`] (`mlscale-workloads`) — end-to-end drivers and the
//!   `table1`/`fig1`…`fig4`/ablation experiment definitions;
//! * [`scenario`] (`mlscale-scenario`) — declarative JSON scenario specs
//!   and the batch sweep engine behind `mlscale sweep`;
//! * [`serve`] (`mlscale-serve`) — the dependency-free HTTP/1.1 planner
//!   daemon behind `mlscale serve` (`POST /gd`, `/plan`, `/sweep`).
//!
//! ## Quickstart
//!
//! ```
//! use mlscale::model::hardware::presets;
//! use mlscale::model::models::gd::{GdComm, GradientDescentModel};
//! use mlscale::model::units::FlopCount;
//!
//! // How many Spark workers should train the paper's MNIST network?
//! let model = GradientDescentModel {
//!     cost_per_example: FlopCount::new(6.0 * 12e6),
//!     batch_size: 60_000.0,
//!     params: 12e6,
//!     bits_per_param: 64,
//!     cluster: presets::spark_cluster(),
//!     comm: GdComm::Spark,
//! };
//! let (n_opt, s_opt) = model.strong_curve(1..=13).optimal();
//! assert_eq!(n_opt, 9); // the paper's answer
//! assert!(s_opt > 3.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub use mlscale_core as model;
pub use mlscale_graph as graph;
pub use mlscale_nn as nn;
pub use mlscale_scenario as scenario;
pub use mlscale_serve as serve;
pub use mlscale_sim as sim;
pub use mlscale_workloads as workloads;

/// The Rust examples in `README.md`, compiled and run as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
