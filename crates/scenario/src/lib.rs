//! # mlscale-scenario — declarative scenario specs and the batch sweep engine
//!
//! The paper's contribution is evaluating distributed-ML scalability
//! across *configurations* — cluster shape, communication model,
//! workload, straggler regime. This crate turns those configurations into
//! **data**: a JSON scenario names everything the `mlscale` CLI can
//! express (hardware presets or explicit specs, collectives with α–β
//! latency, rack topologies, gd/bp workloads, straggler distributions,
//! heterogeneity, drop-slowest-k, provisioning queries) plus a **sweep
//! grid** of axes whose cross product the engine expands, evaluates in
//! parallel, and reports per point and in a roll-up.
//!
//! ```json
//! {
//!   "name": "latency-grid",
//!   "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
//!                "batch": 60000, "flops": 84.48e9, "bits": 64, "max_n": 32},
//!   "sweep": [
//!     {"param": "comm", "values": ["tree", "ring", "halving", "spark"]},
//!     {"param": "latency", "values": [0, 1e-5, 1e-4, 1e-3]}
//!   ]
//! }
//! ```
//!
//! A scenario can also name a paper exhibit (`{"kind": "exhibit", "id":
//! "fig2", "max_n": 16}`): the engine then calls the same experiment
//! definition as the `exp-*`/`ext-*` binary with the same defaults and
//! seeds, so scenario-driven output is byte-identical to the binaries'
//! golden fixtures — checked-in scenario files under `scenarios/` are
//! cross-validated against `crates/bench/tests/golden/` in CI.
//!
//! Malformed documents never half-run: [`ScenarioSpec::from_json`]
//! validates the whole document *including a dry expansion of every grid
//! point* and reports the offending key by full path
//! (`workload.straggler.mean`, `sweep[2].values`, `grid point g-p014`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod adaptive;
pub mod checkpoint;
pub mod run;
pub mod spec;
pub mod store;

pub use adaptive::{run_adaptive, run_adaptive_pooled, AdaptiveSweep, FrontierPoint};
pub use checkpoint::{run_checkpointed, run_sharded, CheckpointedSweep, ShardedSweep};
pub use run::{run, run_pooled, write_outcome, SweepOutcome, SweepSummary};
pub use spec::{
    AxisSpec, AxisValue, BpSpec, ExhibitSpec, GdSpec, GridPoint, HeteroSpec, PlanSpec,
    ResolvedWorkload, ScenarioSpec, SpecError, StragglerSpec, WorkloadSpec, EXHIBITS,
    MAX_GRID_POINTS,
};
pub use store::{
    peak_buffered_records, reset_buffer_telemetry, ShardedStore, DEFAULT_PER_POINT_MAX,
};
