//! # mlscale-core — analytic scalability models for distributed ML
//!
//! A Rust implementation of the modeling framework of
//! *Modeling Scalability of Distributed Machine Learning*
//! (Ulanov, Simanovsky, Marwah — ICDE 2017, arXiv:1610.06276).
//!
//! The framework predicts, **from hardware specifications alone** (no
//! profiling runs), how a distributed machine-learning algorithm scales
//! with the number of workers:
//!
//! * an algorithm is a series of BSP supersteps, each a computation phase
//!   followed by a non-overlapping communication phase: `t = t_cp + t_cm`.
//!   The models compute both terms directly, and [`comm`] prices the
//!   collectives (pure-bandwidth and α–β forms, flat and two-tier racks);
//! * scalability is read off the [speedup] curve
//!   `s(n) = t(1)/t(n)`, whose argmax is the optimal cluster size;
//! * [strong and weak scaling](scaling) answer the two practitioner
//!   questions: "how many machines to get K× faster?" and "how many
//!   machines to keep up with growing data?";
//! * [`models::gd`] and [`models::graphinf`] instantiate the framework for
//!   gradient descent and graphical-model inference, the paper's two use
//!   cases; [`metrics`] quantifies model-vs-measurement agreement (MAPE);
//! * [`straggler`] extends the deterministic framework with stochastic
//!   per-worker runtimes: expected barrier costs as order statistics,
//!   heterogeneous clusters, and the drop-slowest-k backup mitigation;
//! * [`par`] is the dependency-free chunked parallel map every hot path
//!   (curve sweeps, planner tables, workload simulations) fans out
//!   through — deterministic ordering, `MLSCALE_THREADS` override, and
//!   bit-identical to serial evaluation.
//!
//! ## Quick example — the paper's Fig 2 configuration
//!
//! ```
//! use mlscale_core::hardware::presets;
//! use mlscale_core::models::gd::{GdComm, GradientDescentModel};
//! use mlscale_core::units::FlopCount;
//!
//! let model = GradientDescentModel {
//!     cost_per_example: FlopCount::new(6.0 * 12e6), // 6·W madds
//!     batch_size: 60_000.0,                         // full MNIST batch
//!     params: 12e6,
//!     bits_per_param: 64,                           // Spark doubles
//!     cluster: presets::spark_cluster(),
//!     comm: GdComm::Spark,
//! };
//! let curve = model.strong_curve(1..=13);
//! let (n_opt, s_opt) = curve.optimal();
//! assert_eq!(n_opt, 9); // paper: "the optimal number of workers is nine"
//! assert!(s_opt > 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod comm;
pub mod faultpoint;
pub mod hardware;
pub mod metrics;
pub mod par;
pub mod planner;
pub mod scaling;
pub mod speedup;
pub mod straggler;
pub mod units;

/// Algorithm-specific instantiations of the framework.
pub mod models {
    pub mod asyncgd;
    pub mod gd;
    pub mod graphinf;
}

pub use hardware::{ClusterSpec, Heterogeneity, LinkSpec, NodeSpec};
pub use speedup::SpeedupCurve;
pub use straggler::{
    OrderStatCache, OrderStatCachePool, StragglerGdModel, StragglerGraphModel, StragglerModel,
};
