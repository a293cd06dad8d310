//! The declarative scenario spec: JSON shapes, the path-tracking parser,
//! validation, and sweep-grid expansion.
//!
//! Parsing is hand-rolled over the vendored serde's [`Value`] tree rather
//! than derived, for one reason: every malformed input must fail with an
//! error that names the offending key by its full path
//! (`workload.straggler.mean`, `sweep[2].values`) — the derive machinery
//! cannot do that, and a sweep over a 24-point grid is unusable when the
//! only diagnostic is "expected number". Unknown fields are rejected, not
//! ignored: a typo'd `"latancy"` must not silently run the default.

use mlscale_core::hardware::{presets, ClusterSpec, Heterogeneity, LinkSpec, NodeSpec, RackSpec};
use mlscale_core::models::gd::{GdComm, GradientDescentModel};
use mlscale_core::models::graphinf::{
    bp_cost_per_edge, max_edges_monte_carlo, EdgeLoad, GraphInferenceModel,
};
use mlscale_core::speedup::DENSE_EVAL_MAX_N;
use mlscale_core::straggler::{StragglerGdModel, StragglerModel};
use mlscale_core::units::{BitsPerSec, FlopCount, FlopsRate, Seconds};
use mlscale_graph::sampling::zipf_weights;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Value;
use std::fmt;

/// Grid sizes past this are almost certainly a typo'd range. Grids up
/// to the cap stream through the sharded store (`crate::store`) — the
/// limit bounds id widths and journal size, not resident memory.
pub const MAX_GRID_POINTS: usize = 1_000_000;

/// A validation or parse failure, carrying the full path of the offending
/// key (`workload.max_n`, `sweep[1].range.step`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    /// Dotted path to the offending key; empty for document-level errors.
    pub path: String,
    /// What is wrong with the value at `path`.
    pub message: String,
}

impl SpecError {
    /// Creates an error at a path.
    pub fn new(path: impl Into<String>, message: impl Into<String>) -> Self {
        Self {
            path: path.into(),
            message: message.into(),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.path.is_empty() {
            f.write_str(&self.message)
        } else {
            write!(f, "{}: {}", self.path, self.message)
        }
    }
}

impl std::error::Error for SpecError {}

type Result<T> = std::result::Result<T, SpecError>;

// ---------------------------------------------------------------------------
// Path-tracking object reader
// ---------------------------------------------------------------------------

/// A JSON object being consumed field-by-field; [`Obj::deny_unknown`]
/// rejects any key no getter asked for, naming it by full path.
struct Obj<'a> {
    path: String,
    entries: &'a [(String, Value)],
    consumed: Vec<&'a str>,
}

impl<'a> Obj<'a> {
    fn new(v: &'a Value, path: &str) -> Result<Self> {
        let Some(entries) = v.as_map() else {
            return Err(SpecError::new(
                path,
                format!("expected an object, got {}", kind_of(v)),
            ));
        };
        // Duplicate keys would silently resolve first-wins (the vendored
        // parser keeps both entries); a pasted-then-edited block must
        // fail as loudly as a duplicated CLI flag does.
        for (i, (key, _)) in entries.iter().enumerate() {
            if entries[..i].iter().any(|(k, _)| k == key) {
                let key_path = if path.is_empty() {
                    key.clone()
                } else {
                    format!("{path}.{key}")
                };
                return Err(SpecError::new(key_path, "key given more than once"));
            }
        }
        Ok(Self {
            path: path.to_string(),
            entries,
            consumed: Vec::new(),
        })
    }

    fn key_path(&self, key: &str) -> String {
        if self.path.is_empty() {
            key.to_string()
        } else {
            format!("{}.{key}", self.path)
        }
    }

    /// Marks `key` consumed and returns its value; `null` counts as absent.
    fn get(&mut self, key: &'a str) -> Option<&'a Value> {
        self.consumed.push(key);
        match self.entries.iter().find(|(k, _)| k == key) {
            Some((_, Value::Null)) | None => None,
            Some((_, v)) => Some(v),
        }
    }

    fn string(&mut self, key: &'a str) -> Result<Option<String>> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Str(s)) => Ok(Some(s.clone())),
            Some(v) => Err(SpecError::new(
                self.key_path(key),
                format!("expected a string, got {}", kind_of(v)),
            )),
        }
    }

    fn bool(&mut self, key: &'a str) -> Result<Option<bool>> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Bool(b)) => Ok(Some(*b)),
            Some(v) => Err(SpecError::new(
                self.key_path(key),
                format!("expected true or false, got {}", kind_of(v)),
            )),
        }
    }

    fn f64(&mut self, key: &'a str) -> Result<Option<f64>> {
        let path = self.key_path(key);
        match self.get(key) {
            None => Ok(None),
            Some(v) => match as_f64(v) {
                Some(f) => Ok(Some(f)),
                None => Err(SpecError::new(
                    path,
                    format!("expected a number, got {}", kind_of(v)),
                )),
            },
        }
    }

    fn uint(&mut self, key: &'a str) -> Result<Option<usize>> {
        let path = self.key_path(key);
        match self.get(key) {
            None => Ok(None),
            Some(v) => as_uint(v)
                .map(Some)
                .map_err(|msg| SpecError::new(path, msg)),
        }
    }

    /// Rejects any key not consumed by a getter.
    fn deny_unknown(&self) -> Result<()> {
        for (key, _) in self.entries {
            if !self.consumed.contains(&key.as_str()) {
                return Err(SpecError::new(
                    self.key_path(key),
                    format!(
                        "unknown field (expected one of: {})",
                        self.consumed.join(", ")
                    ),
                ));
            }
        }
        Ok(())
    }
}

/// The preset models, sourced from the canonical exhibit definitions in
/// `mlscale-workloads` (one copy of the paper's constants, not a
/// re-transcription that could drift from the exhibits a preset claims
/// to reproduce). `pod` is the Fig 2 job moved onto the two-tier rack
/// pod with the hierarchical collective — the same construction as the
/// CLI's `--preset pod`.
fn preset_model(preset: &str) -> Option<GradientDescentModel> {
    match preset {
        "fig2" => Some(mlscale_workloads::experiments::figures::fig2_model()),
        "fig3" => Some(mlscale_workloads::experiments::figures::fig3_model()),
        "pod" => Some(GradientDescentModel {
            cluster: presets::two_tier_pod(),
            comm: GdComm::Hierarchical,
            ..mlscale_workloads::experiments::figures::fig2_model()
        }),
        _ => None,
    }
}

fn kind_of(v: &Value) -> &'static str {
    match v {
        Value::Null => "null",
        Value::Bool(_) => "a boolean",
        Value::U64(_) | Value::I64(_) | Value::F64(_) => "a number",
        Value::Str(_) => "a string",
        Value::Seq(_) => "an array",
        Value::Map(_) => "an object",
    }
}

fn as_f64(v: &Value) -> Option<f64> {
    match *v {
        Value::U64(n) => Some(n as f64),
        Value::I64(n) => Some(n as f64),
        Value::F64(f) => Some(f),
        _ => None,
    }
}

fn as_uint(v: &Value) -> std::result::Result<usize, String> {
    match *v {
        Value::U64(n) => usize::try_from(n).map_err(|_| format!("integer {n} out of range")),
        Value::I64(n) => Err(format!("expected a non-negative integer, got {n}")),
        Value::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Ok(f as usize),
        Value::F64(f) => Err(format!("expected a non-negative integer, got {f}")),
        ref other => Err(format!(
            "expected a non-negative integer, got {}",
            kind_of(other)
        )),
    }
}

// ---------------------------------------------------------------------------
// Spec types
// ---------------------------------------------------------------------------

/// A parsed, validated scenario document.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Scenario name — becomes the results-file prefix.
    pub name: String,
    /// Optional human-readable title (defaults to the name).
    pub title: Option<String>,
    /// What each grid point evaluates.
    pub workload: WorkloadSpec,
    /// Sweep axes; empty means a single (1-point) grid.
    pub sweep: Vec<AxisSpec>,
    /// Adaptive mode: evaluate a coarse sub-grid, then refine only
    /// around the (cost, expected time) Pareto frontier instead of
    /// evaluating every point (`--adaptive` sets this from the CLI).
    pub adaptive: bool,
}

/// The workload of a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// Gradient-descent scaling (the `mlscale gd`/`plan` model space).
    Gd(Box<GdSpec>),
    /// Graph-inference scaling (the `mlscale bp` model space).
    Bp(BpSpec),
    /// A named paper exhibit, reproduced exactly as its `exp-*`/`ext-*`
    /// binary would (same defaults, same seeds, byte-identical output).
    Exhibit(ExhibitSpec),
}

/// Straggler delay distribution (mirrors `--straggler`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StragglerSpec {
    /// No delays (the paper's assumption).
    Det,
    /// Uniform jitter on `[0, spread]`.
    Jitter {
        /// Jitter spread in seconds (≥ 0).
        spread: f64,
    },
    /// Exponential tail.
    Exp {
        /// Mean delay in seconds (≥ 0).
        mean: f64,
    },
    /// Lognormal tail.
    LogNormal {
        /// Log-space location.
        mu: f64,
        /// Log-space scale (≥ 0).
        sigma: f64,
    },
}

impl StragglerSpec {
    /// The core model for this spec.
    pub fn model(&self) -> StragglerModel {
        match *self {
            StragglerSpec::Det => StragglerModel::Deterministic,
            StragglerSpec::Jitter { spread } => StragglerModel::BoundedJitter { spread },
            StragglerSpec::Exp { mean } => StragglerModel::ExponentialTail { mean },
            StragglerSpec::LogNormal { mu, sigma } => StragglerModel::LogNormalTail { mu, sigma },
        }
    }
}

/// Compute-speed heterogeneity (mirrors `--hetero`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeteroSpec {
    /// `count` workers at `factor`× nominal speed.
    Slow {
        /// Number of degraded workers.
        count: usize,
        /// Their speed multiplier (> 0).
        factor: f64,
    },
    /// Rack `r` at `factor^r` of nominal (needs a rack topology).
    Rack {
        /// Per-rack geometric speed factor (> 0).
        factor: f64,
    },
}

impl HeteroSpec {
    /// The core heterogeneity for this spec.
    pub fn model(&self) -> Heterogeneity {
        match *self {
            HeteroSpec::Slow { count, factor } => Heterogeneity::SlowWorkers { count, factor },
            HeteroSpec::Rack { factor } => Heterogeneity::RackDecay { factor },
        }
    }
}

/// Optional provisioning queries priced per point (mirrors `mlscale plan`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanSpec {
    /// Job length in iterations.
    pub iterations: f64,
    /// Price per node-hour.
    pub price: f64,
    /// Deadline in seconds for a cheapest-within-deadline query.
    pub deadline: Option<f64>,
    /// Budget for a fastest-within-budget query.
    pub budget: Option<f64>,
}

/// The gradient-descent workload: everything `mlscale gd`/`plan` can
/// express, as data. `None` means "use the CLI's default".
#[derive(Debug, Clone, PartialEq)]
pub struct GdSpec {
    /// Hardware+workload preset (`fig2`, `fig3`, `pod`); conflicts with
    /// the explicit model fields below.
    pub preset: Option<String>,
    /// Number of model parameters `W`.
    pub params: Option<f64>,
    /// Per-example gradient cost `C` in flops.
    pub cost_per_example: Option<f64>,
    /// Batch size `S`.
    pub batch: Option<f64>,
    /// Bits per parameter (default 32).
    pub bits: Option<usize>,
    /// Effective per-node flop/s.
    pub flops: Option<f64>,
    /// Link bandwidth in bit/s (default 1e9).
    pub bandwidth: Option<f64>,
    /// Per-message link latency in seconds (default 0).
    pub latency: Option<f64>,
    /// Collective: `tree|spark|linear|ring|halving|hier|none` (default tree).
    pub comm: Option<String>,
    /// Workers per rack (enables the two-tier topology).
    pub rack_size: Option<usize>,
    /// Inter-rack uplink bandwidth (needs `rack_size`).
    pub uplink_bandwidth: Option<f64>,
    /// Inter-rack uplink latency (needs `rack_size`).
    pub uplink_latency: Option<f64>,
    /// Evaluate `n ∈ 1..=max_n` (default 32).
    pub max_n: usize,
    /// Log-spaced evaluation: sample this many geometrically spaced
    /// worker counts over `[1, max_n]` instead of the dense range —
    /// required (and the only way) to go past the dense-mode limit
    /// (`DENSE_EVAL_MAX_N`), e.g. `max_n = 10⁶` with 200 points.
    pub log_points: Option<usize>,
    /// Weak scaling (per-instance time) instead of strong.
    pub weak: bool,
    /// Straggler delay distribution.
    pub straggler: Option<StragglerSpec>,
    /// Heterogeneity.
    pub hetero: Option<HeteroSpec>,
    /// Drop the slowest `k` workers per superstep.
    pub backup_k: usize,
    /// Optional provisioning queries per grid point.
    pub plan: Option<PlanSpec>,
}

/// The graph-inference workload (mirrors `mlscale bp`).
#[derive(Debug, Clone, PartialEq)]
pub struct BpSpec {
    /// Vertex count.
    pub vertices: f64,
    /// Edge count.
    pub edges: f64,
    /// Hub degree (default: see [`BpSpec::hub_degree`]).
    pub max_degree: Option<f64>,
    /// States per variable (default 2).
    pub states: usize,
    /// Effective per-node flop/s (default 7.6e9).
    pub flops: f64,
    /// Link bandwidth in bit/s (default: infinite, shared memory).
    pub bandwidth: Option<f64>,
    /// Vertex replication factor (default 0.5).
    pub replication: f64,
    /// Evaluate `n ∈ 1..=max_n` (default 80).
    pub max_n: usize,
}

/// A named paper exhibit to reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhibitSpec {
    /// Exhibit id: `table1`, `fig1`, `fig2`, `fig3`, `fig4-small`,
    /// `ext-stragglers` or `ext-hierarchical-comm`.
    pub id: String,
    /// Worker-count range for the exhibits that take one (`fig2`,
    /// `ext-stragglers`, `ext-hierarchical-comm`); `None` uses the same
    /// default as the exhibit binary.
    pub max_n: Option<usize>,
}

/// Exhibits a scenario may name, with whether they accept `max_n`.
pub const EXHIBITS: &[(&str, bool)] = &[
    ("table1", false),
    ("fig1", false),
    ("fig2", true),
    ("fig3", false),
    ("fig4-small", false),
    ("ext-stragglers", true),
    ("ext-hierarchical-comm", true),
];

// ---------------------------------------------------------------------------
// Sweep axes
// ---------------------------------------------------------------------------

/// One value of a sweep axis.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A real-valued setting (latency, bandwidth, jitter, …).
    Num(f64),
    /// An integer setting (max_n, rack_size, backup_k, …).
    Int(usize),
    /// A symbolic setting (comm).
    Str(String),
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Num(x) => write!(f, "{x}"),
            AxisValue::Int(n) => write!(f, "{n}"),
            AxisValue::Str(s) => f.write_str(s),
        }
    }
}

/// One sweep axis: a parameter name and its values (explicit list or an
/// expanded range), in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisSpec {
    /// The swept parameter (a sweepable field of the workload).
    pub param: String,
    /// The axis values, in sweep order.
    pub values: Vec<AxisValue>,
}

/// One point of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// 0-based index in expansion order.
    pub index: usize,
    /// Stable id: `<scenario-name>-pNNN` (zero-padded).
    pub id: String,
    /// `(param, value)` assignments, one per axis, in axis order.
    pub assignments: Vec<(String, AxisValue)>,
}

impl GridPoint {
    /// `latency=0.001, comm=ring` — the human-readable assignment list.
    pub fn label(&self) -> String {
        self.assignments
            .iter()
            .map(|(p, v)| format!("{p}={v}"))
            .collect::<Vec<_>>()
            .join(", ")
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

impl ScenarioSpec {
    /// Parses and validates a scenario document from JSON text.
    pub fn from_json(text: &str) -> Result<Self> {
        let value = serde_json::value_from_str(text)
            .map_err(|e| SpecError::new("", format!("invalid JSON: {e}")))?;
        Self::from_value(&value)
    }

    /// Parses and validates a scenario from a parsed [`Value`].
    pub fn from_value(value: &Value) -> Result<Self> {
        let mut obj = Obj::new(value, "")?;
        let name = obj
            .string("name")?
            .ok_or_else(|| SpecError::new("name", "missing required field"))?;
        if name.is_empty()
            || !name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
        {
            return Err(SpecError::new(
                "name",
                format!(
                    "must be non-empty [A-Za-z0-9_-] (it names the result files), got {name:?}"
                ),
            ));
        }
        let title = obj.string("title")?;
        let workload_value = obj
            .get("workload")
            .ok_or_else(|| SpecError::new("workload", "missing required field"))?;
        let workload = parse_workload(workload_value)?;
        let sweep = match obj.get("sweep") {
            None => Vec::new(),
            Some(v) => parse_sweep(v)?,
        };
        let adaptive = obj.bool("adaptive")?.unwrap_or(false);
        obj.deny_unknown()?;
        let spec = Self {
            name,
            title,
            workload,
            sweep,
            adaptive,
        };
        spec.validate()?;
        Ok(spec)
    }

    /// The scenario's display title (explicit title or the name).
    pub fn display_title(&self) -> &str {
        self.title.as_deref().unwrap_or(&self.name)
    }
}

fn parse_workload(v: &Value) -> Result<WorkloadSpec> {
    let mut obj = Obj::new(v, "workload")?;
    let kind = obj
        .string("kind")?
        .ok_or_else(|| SpecError::new("workload.kind", "missing required field"))?;
    match kind.as_str() {
        "gd" => parse_gd(&mut obj).map(|gd| WorkloadSpec::Gd(Box::new(gd))),
        "bp" => parse_bp(&mut obj).map(WorkloadSpec::Bp),
        "exhibit" => parse_exhibit(&mut obj).map(WorkloadSpec::Exhibit),
        other => Err(SpecError::new(
            "workload.kind",
            format!("unknown workload kind {other:?} (use gd, bp or exhibit)"),
        )),
    }
}

fn parse_gd(obj: &mut Obj<'_>) -> Result<GdSpec> {
    let spec = GdSpec {
        preset: obj.string("preset")?,
        params: obj.f64("params")?,
        cost_per_example: obj.f64("cost_per_example")?,
        batch: obj.f64("batch")?,
        bits: obj.uint("bits")?,
        flops: obj.f64("flops")?,
        bandwidth: obj.f64("bandwidth")?,
        latency: obj.f64("latency")?,
        comm: obj.string("comm")?,
        rack_size: obj.uint("rack_size")?,
        uplink_bandwidth: obj.f64("uplink_bandwidth")?,
        uplink_latency: obj.f64("uplink_latency")?,
        max_n: obj.uint("max_n")?.unwrap_or(32),
        log_points: obj.uint("log_points")?,
        weak: obj.bool("weak")?.unwrap_or(false),
        straggler: match obj.get("straggler") {
            None => None,
            Some(v) => Some(parse_straggler(v)?),
        },
        hetero: match obj.get("hetero") {
            None => None,
            Some(v) => Some(parse_hetero(v)?),
        },
        backup_k: obj.uint("backup_k")?.unwrap_or(0),
        plan: match obj.get("plan") {
            None => None,
            Some(v) => Some(parse_plan(v)?),
        },
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_straggler(v: &Value) -> Result<StragglerSpec> {
    let mut obj = Obj::new(v, "workload.straggler")?;
    let kind = obj
        .string("kind")?
        .ok_or_else(|| SpecError::new("workload.straggler.kind", "missing required field"))?;
    let spec = match kind.as_str() {
        "det" => StragglerSpec::Det,
        "jitter" => StragglerSpec::Jitter {
            spread: obj.f64("spread")?.ok_or_else(|| {
                SpecError::new("workload.straggler.spread", "missing required field")
            })?,
        },
        "exp" => StragglerSpec::Exp {
            mean: obj.f64("mean")?.ok_or_else(|| {
                SpecError::new("workload.straggler.mean", "missing required field")
            })?,
        },
        "lognormal" => StragglerSpec::LogNormal {
            mu: obj
                .f64("mu")?
                .ok_or_else(|| SpecError::new("workload.straggler.mu", "missing required field"))?,
            sigma: obj.f64("sigma")?.ok_or_else(|| {
                SpecError::new("workload.straggler.sigma", "missing required field")
            })?,
        },
        other => {
            return Err(SpecError::new(
                "workload.straggler.kind",
                format!("unknown straggler kind {other:?} (use det, jitter, exp or lognormal)"),
            ))
        }
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_hetero(v: &Value) -> Result<HeteroSpec> {
    let mut obj = Obj::new(v, "workload.hetero")?;
    let kind = obj
        .string("kind")?
        .ok_or_else(|| SpecError::new("workload.hetero.kind", "missing required field"))?;
    let spec = match kind.as_str() {
        "slow" => HeteroSpec::Slow {
            count: obj
                .uint("count")?
                .ok_or_else(|| SpecError::new("workload.hetero.count", "missing required field"))?,
            factor: obj.f64("factor")?.ok_or_else(|| {
                SpecError::new("workload.hetero.factor", "missing required field")
            })?,
        },
        "rack" => HeteroSpec::Rack {
            factor: obj.f64("factor")?.ok_or_else(|| {
                SpecError::new("workload.hetero.factor", "missing required field")
            })?,
        },
        other => {
            return Err(SpecError::new(
                "workload.hetero.kind",
                format!("unknown hetero kind {other:?} (use slow or rack)"),
            ))
        }
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_plan(v: &Value) -> Result<PlanSpec> {
    let mut obj = Obj::new(v, "workload.plan")?;
    let spec = PlanSpec {
        iterations: obj.f64("iterations")?.unwrap_or(1000.0),
        price: obj.f64("price")?.unwrap_or(1.0),
        deadline: obj.f64("deadline")?,
        budget: obj.f64("budget")?,
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_bp(obj: &mut Obj<'_>) -> Result<BpSpec> {
    let spec = BpSpec {
        vertices: obj
            .f64("vertices")?
            .ok_or_else(|| SpecError::new("workload.vertices", "missing required field"))?,
        edges: obj
            .f64("edges")?
            .ok_or_else(|| SpecError::new("workload.edges", "missing required field"))?,
        max_degree: obj.f64("max_degree")?,
        states: obj.uint("states")?.unwrap_or(2),
        flops: obj.f64("flops")?.unwrap_or(7.6e9),
        bandwidth: obj.f64("bandwidth")?,
        replication: obj.f64("replication")?.unwrap_or(0.5),
        max_n: obj.uint("max_n")?.unwrap_or(80),
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_exhibit(obj: &mut Obj<'_>) -> Result<ExhibitSpec> {
    let spec = ExhibitSpec {
        id: obj
            .string("id")?
            .ok_or_else(|| SpecError::new("workload.id", "missing required field"))?,
        max_n: obj.uint("max_n")?,
    };
    obj.deny_unknown()?;
    Ok(spec)
}

fn parse_sweep(v: &Value) -> Result<Vec<AxisSpec>> {
    let axes_json = v.as_seq().ok_or_else(|| {
        SpecError::new(
            "sweep",
            format!("expected an array of axes, got {}", kind_of(v)),
        )
    })?;
    let mut axes = Vec::with_capacity(axes_json.len());
    for (i, axis) in axes_json.iter().enumerate() {
        axes.push(parse_axis(axis, &format!("sweep[{i}]"))?);
    }
    Ok(axes)
}

fn parse_axis(v: &Value, path: &str) -> Result<AxisSpec> {
    let mut obj = Obj::new(v, path)?;
    let param = obj
        .string("param")?
        .ok_or_else(|| SpecError::new(format!("{path}.param"), "missing required field"))?;
    let values_json = obj.get("values").cloned();
    let range_json = obj.get("range").cloned();
    obj.deny_unknown()?;
    let values = match (values_json, range_json) {
        (Some(_), Some(_)) => {
            return Err(SpecError::new(
                path,
                "give either values or range, not both",
            ))
        }
        (None, None) => {
            return Err(SpecError::new(
                path,
                "an axis needs values (a non-empty array) or range ({from, to, step})",
            ))
        }
        (Some(values), None) => parse_axis_values(&values, &format!("{path}.values"))?,
        (None, Some(range)) => expand_range(&range, &format!("{path}.range"))?,
    };
    Ok(AxisSpec { param, values })
}

fn parse_axis_values(v: &Value, path: &str) -> Result<Vec<AxisValue>> {
    let items = v
        .as_seq()
        .ok_or_else(|| SpecError::new(path, format!("expected an array, got {}", kind_of(v))))?;
    if items.is_empty() {
        return Err(SpecError::new(
            path,
            "empty grid axis (a sweep axis needs at least one value)",
        ));
    }
    items
        .iter()
        .enumerate()
        .map(|(i, item)| match item {
            Value::U64(n) => usize::try_from(*n).map(AxisValue::Int).map_err(|_| {
                SpecError::new(format!("{path}[{i}]"), format!("integer {n} out of range"))
            }),
            Value::I64(n) => Ok(AxisValue::Num(*n as f64)),
            Value::F64(f) => Ok(AxisValue::Num(*f)),
            Value::Str(s) => Ok(AxisValue::Str(s.clone())),
            other => Err(SpecError::new(
                format!("{path}[{i}]"),
                format!(
                    "axis values must be numbers or strings, got {}",
                    kind_of(other)
                ),
            )),
        })
        .collect()
}

/// Expands `{from, to, step}` into an inclusive arithmetic progression:
/// all-integer endpoints yield integer values, anything else real ones.
fn expand_range(v: &Value, path: &str) -> Result<Vec<AxisValue>> {
    let mut obj = Obj::new(v, path)?;
    let raw = |obj: &mut Obj<'_>, key: &'static str| -> Result<(f64, bool)> {
        let path = obj.key_path(key);
        match obj.get(key) {
            Some(Value::U64(n)) => Ok((*n as f64, true)),
            Some(v) => as_f64(v).map(|f| (f, false)).ok_or_else(|| {
                SpecError::new(
                    path.clone(),
                    format!("expected a number, got {}", kind_of(v)),
                )
            }),
            None => Err(SpecError::new(path, "missing required field")),
        }
    };
    let (from, from_int) = raw(&mut obj, "from")?;
    let (to, to_int) = raw(&mut obj, "to")?;
    let (step, step_int) = raw(&mut obj, "step")?;
    obj.deny_unknown()?;
    if !from.is_finite() || !to.is_finite() || !step.is_finite() {
        return Err(SpecError::new(path, "range bounds must be finite"));
    }
    if step <= 0.0 {
        return Err(SpecError::new(
            format!("{path}.step"),
            format!("must be positive, got {step}"),
        ));
    }
    if to < from {
        return Err(SpecError::new(
            path,
            format!("empty grid axis: to ({to}) is below from ({from})"),
        ));
    }
    // Size check in float space, before the usize cast: a huge range
    // (to = 1e30) would otherwise saturate the cast and wrap to a silent
    // 0-point axis in release builds.
    let count_f = ((to - from) / step + 1e-9).floor() + 1.0;
    if count_f > MAX_GRID_POINTS as f64 {
        return Err(SpecError::new(
            path,
            format!("range expands to {count_f:.0} values (limit {MAX_GRID_POINTS})"),
        ));
    }
    let count = count_f as usize;
    let all_int = from_int && to_int && step_int;
    Ok((0..count)
        .map(|i| {
            if all_int {
                AxisValue::Int(from as usize + i * step as usize)
            } else {
                AxisValue::Num(from + i as f64 * step)
            }
        })
        .collect())
}

// ---------------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------------

/// The numbers a numeric field accepts; every one must also be finite.
#[derive(Clone, Copy)]
enum Range {
    /// `> 0`: quantities the models divide by (flop rates, bandwidths,
    /// workload sizes, speed factors).
    Positive,
    /// `≥ 0`: latencies, delays, deadlines, budgets.
    NonNegative,
    /// Any finite number (a lognormal location).
    Finite,
}

/// Checks an optional numeric field against `range`, naming the rule it
/// applied and the offending value. The key path `{path}.{key}` is built
/// only on failure: the dry run validates every grid point, and an eager
/// `format!` per field would dominate validating a large grid.
fn check(path: &str, key: &str, value: impl Into<Option<f64>>, range: Range) -> Result<()> {
    let Some(v) = value.into() else {
        return Ok(());
    };
    let (ok, rule) = match range {
        Range::Positive => (v > 0.0, "a finite positive number"),
        Range::NonNegative => (v >= 0.0, "a finite non-negative number"),
        Range::Finite => (true, "a finite number"),
    };
    if ok && v.is_finite() {
        return Ok(());
    }
    Err(SpecError::new(
        format!("{path}.{key}"),
        format!("must be {rule}, got {v}"),
    ))
}

/// Gd fields a preset fixes; naming one alongside `preset` (or sweeping
/// it) is a conflict.
const GD_PRESET_FIXED: &[&str] = &[
    "params",
    "cost_per_example",
    "batch",
    "bits",
    "flops",
    "bandwidth",
    "latency",
    "rack_size",
    "uplink_bandwidth",
    "uplink_latency",
];

/// Sweepable gd parameters and the value shape each accepts.
const GD_AXES: &[(&str, AxisKind)] = &[
    ("params", AxisKind::Num),
    ("cost_per_example", AxisKind::Num),
    ("batch", AxisKind::Num),
    ("flops", AxisKind::Num),
    ("bandwidth", AxisKind::Num),
    ("latency", AxisKind::Num),
    ("uplink_bandwidth", AxisKind::Num),
    ("uplink_latency", AxisKind::Num),
    ("jitter", AxisKind::Num),
    ("bits", AxisKind::Int),
    ("max_n", AxisKind::Int),
    ("log_points", AxisKind::Int),
    ("rack_size", AxisKind::Int),
    ("backup_k", AxisKind::Int),
    ("comm", AxisKind::Str),
];

/// Sweepable bp parameters.
const BP_AXES: &[(&str, AxisKind)] = &[
    ("vertices", AxisKind::Num),
    ("edges", AxisKind::Num),
    ("max_degree", AxisKind::Num),
    ("flops", AxisKind::Num),
    ("bandwidth", AxisKind::Num),
    ("replication", AxisKind::Num),
    ("states", AxisKind::Int),
    ("max_n", AxisKind::Int),
];

#[derive(Clone, Copy, PartialEq)]
enum AxisKind {
    Num,
    Int,
    Str,
}

impl ScenarioSpec {
    /// Cross-field validation: preset conflicts, axis applicability, and
    /// a dry expansion of every grid point (so `validate` catches a bad
    /// combination deep in the grid before any evaluation starts).
    fn validate(&self) -> Result<()> {
        match &self.workload {
            WorkloadSpec::Gd(gd) => {
                gd.validate("workload")?;
                self.validate_axes(GD_AXES, |param| {
                    gd.preset.is_some() && GD_PRESET_FIXED.contains(&param)
                })?;
            }
            WorkloadSpec::Bp(bp) => {
                bp.validate("workload")?;
                self.validate_axes(BP_AXES, |_| false)?;
            }
            WorkloadSpec::Exhibit(ex) => {
                ex.validate("workload")?;
                if !self.sweep.is_empty() {
                    return Err(SpecError::new(
                        "sweep",
                        "exhibit workloads reproduce one fixed exhibit and cannot be swept \
                         (use a gd or bp workload for grids)",
                    ));
                }
            }
        }
        if self.adaptive && self.sweep.is_empty() {
            return Err(SpecError::new(
                "adaptive",
                "adaptive refinement needs a non-empty sweep (there is no grid to refine)",
            ));
        }
        // Size and dense-cap screens come first: a typo'd range or an
        // over-cap max_n axis must be a named diagnostic carrying the
        // expanded point count *before* any per-point expansion work.
        let total = self.grid_len()?;
        self.screen_dense_cap(total)?;
        // Dry-run the whole grid, streaming: every point must yield a
        // valid resolved workload, but the grid is never collected.
        for point in self.grid_iter()? {
            self.resolve(&point)?;
        }
        Ok(())
    }

    /// Refuses, before any expansion work, a grid that sweeps `max_n`
    /// past the dense-mode limit with no `log_points` anywhere to lift
    /// it — the per-point dry run would otherwise only discover the bad
    /// value mid-iteration, after resolving every earlier point. The
    /// diagnostic reports the expanded point count of the refused grid.
    fn screen_dense_cap(&self, total: usize) -> Result<()> {
        let log_points_fixed = match &self.workload {
            WorkloadSpec::Gd(gd) => gd.log_points.is_some(),
            _ => false,
        };
        if log_points_fixed || self.sweep.iter().any(|a| a.param == "log_points") {
            return Ok(());
        }
        for (i, axis) in self.sweep.iter().enumerate() {
            if axis.param != "max_n" {
                continue;
            }
            for (j, value) in axis.values.iter().enumerate() {
                if let AxisValue::Int(n) = value {
                    if *n > DENSE_EVAL_MAX_N {
                        return Err(SpecError::new(
                            format!("sweep[{i}].values[{j}]"),
                            format!(
                                "max_n {n} exceeds the dense-mode limit {DENSE_EVAL_MAX_N}; \
                                 refused before expanding the {total}-point grid — set \
                                 log_points (e.g. 200) to evaluate a log-spaced ladder instead"
                            ),
                        ));
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_axes(
        &self,
        axes: &[(&str, AxisKind)],
        fixed_by_preset: impl Fn(&str) -> bool,
    ) -> Result<()> {
        let mut seen: Vec<&str> = Vec::new();
        for (i, axis) in self.sweep.iter().enumerate() {
            let path = format!("sweep[{i}].param");
            let Some(&(_, kind)) = axes.iter().find(|(p, _)| *p == axis.param) else {
                let names: Vec<&str> = axes.iter().map(|&(p, _)| p).collect();
                return Err(SpecError::new(
                    path,
                    format!(
                        "{:?} is not sweepable for this workload (sweepable: {})",
                        axis.param,
                        names.join(", ")
                    ),
                ));
            };
            if seen.contains(&axis.param.as_str()) {
                return Err(SpecError::new(
                    path,
                    format!("duplicate axis {:?}", axis.param),
                ));
            }
            seen.push(&axis.param);
            if fixed_by_preset(&axis.param) {
                return Err(SpecError::new(
                    path,
                    format!(
                        "{:?} is fixed by workload.preset {:?}; drop the preset to sweep it",
                        axis.param,
                        match &self.workload {
                            WorkloadSpec::Gd(gd) => gd.preset.clone().unwrap_or_default(),
                            _ => String::new(),
                        }
                    ),
                ));
            }
            for (j, value) in axis.values.iter().enumerate() {
                let ok = matches!(
                    (kind, value),
                    (AxisKind::Num, AxisValue::Num(_) | AxisValue::Int(_))
                        | (AxisKind::Int, AxisValue::Int(_))
                        | (AxisKind::Str, AxisValue::Str(_))
                );
                if !ok {
                    let expected = match kind {
                        AxisKind::Num => "a number",
                        AxisKind::Int => "a non-negative integer",
                        AxisKind::Str => "a string",
                    };
                    return Err(SpecError::new(
                        format!("sweep[{i}].values[{j}]"),
                        format!("axis {:?} expects {expected}, got {value}", axis.param),
                    ));
                }
            }
        }
        Ok(())
    }
}

impl GdSpec {
    /// Validates the (possibly override-resolved) gd workload; `path`
    /// prefixes every reported key.
    pub fn validate(&self, path: &str) -> Result<()> {
        let at = |key: &str| format!("{path}.{key}");
        match self.straggler {
            Some(StragglerSpec::Jitter { spread }) => {
                check(path, "straggler.spread", spread, Range::NonNegative)?
            }
            Some(StragglerSpec::Exp { mean }) => {
                check(path, "straggler.mean", mean, Range::NonNegative)?
            }
            Some(StragglerSpec::LogNormal { mu, sigma }) => {
                check(path, "straggler.mu", mu, Range::Finite)?;
                check(path, "straggler.sigma", sigma, Range::NonNegative)?;
            }
            Some(StragglerSpec::Det) | None => {}
        }
        if let Some(HeteroSpec::Slow { factor, .. } | HeteroSpec::Rack { factor }) = self.hetero {
            check(path, "hetero.factor", factor, Range::Positive)?;
        }
        if let Some(plan) = &self.plan {
            check(path, "plan.iterations", plan.iterations, Range::Positive)?;
            check(path, "plan.price", plan.price, Range::Positive)?;
            check(path, "plan.deadline", plan.deadline, Range::NonNegative)?;
            check(path, "plan.budget", plan.budget, Range::NonNegative)?;
        }
        if let Some(preset) = &self.preset {
            if !matches!(preset.as_str(), "fig2" | "fig3" | "pod") {
                return Err(SpecError::new(
                    at("preset"),
                    format!("unknown preset {preset:?} (use fig2, fig3 or pod)"),
                ));
            }
            let explicit: &[(&str, bool)] = &[
                ("params", self.params.is_some()),
                ("cost_per_example", self.cost_per_example.is_some()),
                ("batch", self.batch.is_some()),
                ("bits", self.bits.is_some()),
                ("flops", self.flops.is_some()),
                ("bandwidth", self.bandwidth.is_some()),
                ("latency", self.latency.is_some()),
                ("rack_size", self.rack_size.is_some()),
                ("uplink_bandwidth", self.uplink_bandwidth.is_some()),
                ("uplink_latency", self.uplink_latency.is_some()),
            ];
            if let Some((key, _)) = explicit.iter().find(|(_, set)| *set) {
                return Err(SpecError::new(
                    at(key),
                    format!(
                        "conflicts with preset {preset:?} (presets fix the hardware and \
                         workload; drop the preset to configure by hand)"
                    ),
                ));
            }
        } else {
            for (key, value) in [
                ("params", self.params),
                ("cost_per_example", self.cost_per_example),
                ("batch", self.batch),
                ("flops", self.flops),
            ] {
                if value.is_none() {
                    return Err(SpecError::new(at(key), "missing required field"));
                }
                check(path, key, value, Range::Positive)?;
            }
            for (key, value, range) in [
                ("bandwidth", self.bandwidth, Range::Positive),
                ("latency", self.latency, Range::NonNegative),
                ("uplink_bandwidth", self.uplink_bandwidth, Range::Positive),
                ("uplink_latency", self.uplink_latency, Range::NonNegative),
            ] {
                check(path, key, value, range)?;
            }
            if let Some(bits) = self.bits {
                if bits == 0 || u32::try_from(bits).is_err() {
                    return Err(SpecError::new(at("bits"), format!("out of range: {bits}")));
                }
            }
            if let Some(rack) = self.rack_size {
                if rack == 0 {
                    return Err(SpecError::new(at("rack_size"), "must be at least 1"));
                }
            }
            if self.rack_size.is_none()
                && (self.uplink_bandwidth.is_some() || self.uplink_latency.is_some())
            {
                let key = if self.uplink_bandwidth.is_some() {
                    "uplink_bandwidth"
                } else {
                    "uplink_latency"
                };
                return Err(SpecError::new(
                    at(key),
                    "needs rack_size to define the racks",
                ));
            }
        }
        if let Some(comm) = &self.comm {
            if !matches!(
                comm.as_str(),
                "tree" | "spark" | "linear" | "ring" | "halving" | "hier" | "none"
            ) {
                return Err(SpecError::new(
                    at("comm"),
                    format!(
                        "unknown comm {comm:?} (use tree, spark, linear, ring, halving, hier or none)"
                    ),
                ));
            }
            if comm == "hier" && self.rack_nodes().is_none() {
                return Err(SpecError::new(
                    at("comm"),
                    "hier needs a rack topology: set rack_size or use preset \"pod\"",
                ));
            }
        }
        if self.max_n < 1 {
            return Err(SpecError::new(at("max_n"), "must be at least 1"));
        }
        if self.max_n > DENSE_EVAL_MAX_N && self.log_points.is_none() {
            return Err(SpecError::new(
                at("max_n"),
                format!(
                    "{} exceeds the dense-mode limit {DENSE_EVAL_MAX_N} (one table entry and \
                     model call per n); set log_points (e.g. 200) to evaluate a log-spaced \
                     ladder instead",
                    self.max_n
                ),
            ));
        }
        if let Some(points) = self.log_points {
            if points < 2 {
                return Err(SpecError::new(
                    at("log_points"),
                    "a log-spaced ladder needs at least its two endpoints",
                ));
            }
        }
        if self.backup_k >= self.max_n {
            return Err(SpecError::new(
                at("backup_k"),
                format!(
                    "dropping {} workers leaves nothing at max_n {}; use a value below the \
                     cluster size",
                    self.backup_k, self.max_n
                ),
            ));
        }
        if self.backup_k > 0 && self.straggler.is_none() && self.hetero.is_none() {
            return Err(SpecError::new(
                at("backup_k"),
                "has no effect without a straggler distribution or heterogeneity; add a \
                 straggler/hetero field (a zero-valued one from a sweep axis is fine) or drop it",
            ));
        }
        if let Some(HeteroSpec::Rack { factor }) = self.hetero {
            let Some(per_rack) = self.rack_nodes() else {
                return Err(SpecError::new(
                    at("hetero"),
                    "rack heterogeneity needs a rack topology: set rack_size or use preset \"pod\"",
                ));
            };
            // Rack r runs at factor^r; the farthest rack at max_n must
            // keep a usable speed, or the model has no defined runtime.
            let racks = self.max_n.div_ceil(per_rack);
            let farthest = factor.powi(i32::try_from(racks - 1).unwrap_or(i32::MAX));
            if !(farthest > 0.0 && farthest.is_finite()) {
                return Err(SpecError::new(
                    at("hetero.factor"),
                    format!(
                        "the last of {racks} racks at max_n {} runs at {factor}^{} = \
                         {farthest}, which is not a usable speed; use a factor closer to 1 or \
                         a smaller max_n",
                        self.max_n,
                        racks - 1
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Workers per rack when this spec describes a racked cluster: its
    /// `rack_size`, or the `pod` preset's racks.
    fn rack_nodes(&self) -> Option<usize> {
        match self.preset.as_deref() {
            Some("pod") => presets::two_tier_pod().rack.map(|rack| rack.nodes_per_rack),
            _ => self.rack_size,
        }
    }

    /// Applies one sweep assignment; `path` names the grid point in errors.
    pub fn set_param(&mut self, param: &str, value: &AxisValue, path: &str) -> Result<()> {
        let num = || -> Result<f64> {
            match value {
                AxisValue::Num(x) => Ok(*x),
                AxisValue::Int(n) => Ok(*n as f64),
                AxisValue::Str(s) => Err(SpecError::new(
                    path,
                    format!("{param}: expected a number, got {s:?}"),
                )),
            }
        };
        let int = || -> Result<usize> {
            match value {
                AxisValue::Int(n) => Ok(*n),
                other => Err(SpecError::new(
                    path,
                    format!("{param}: expected a non-negative integer, got {other}"),
                )),
            }
        };
        match param {
            "params" => self.params = Some(num()?),
            "cost_per_example" => self.cost_per_example = Some(num()?),
            "batch" => self.batch = Some(num()?),
            "flops" => self.flops = Some(num()?),
            "bandwidth" => self.bandwidth = Some(num()?),
            "latency" => self.latency = Some(num()?),
            "uplink_bandwidth" => self.uplink_bandwidth = Some(num()?),
            "uplink_latency" => self.uplink_latency = Some(num()?),
            "jitter" => {
                match self.straggler {
                    None | Some(StragglerSpec::Det) | Some(StragglerSpec::Jitter { .. }) => {}
                    Some(_) => {
                        return Err(SpecError::new(
                            path,
                            "jitter axis conflicts with the workload's non-jitter straggler kind",
                        ))
                    }
                }
                self.straggler = Some(StragglerSpec::Jitter { spread: num()? });
            }
            "bits" => self.bits = Some(int()?),
            "max_n" => self.max_n = int()?,
            "log_points" => self.log_points = Some(int()?),
            "rack_size" => self.rack_size = Some(int()?),
            "backup_k" => self.backup_k = int()?,
            "comm" => match value {
                AxisValue::Str(s) => self.comm = Some(s.clone()),
                other => {
                    return Err(SpecError::new(
                        path,
                        format!("comm: expected a string, got {other}"),
                    ))
                }
            },
            other => {
                return Err(SpecError::new(
                    path,
                    format!("{other:?} is not a sweepable gd parameter"),
                ))
            }
        }
        Ok(())
    }

    /// The straggler model (deterministic when unspecified).
    pub fn straggler_model(&self) -> StragglerModel {
        self.straggler
            .map_or(StragglerModel::Deterministic, |s| s.model())
    }

    /// Builds the straggler-wrapped model. [`Self::validate`] screens
    /// every failure mode ahead of time, but a parse/validation desync
    /// must not kill a long-lived process (`mlscale serve`), so
    /// violations surface as `SpecError`s naming the offending key path
    /// instead of panics.
    pub fn build(&self) -> Result<StragglerGdModel> {
        let inner = self.build_inner()?;
        Ok(StragglerGdModel {
            inner,
            straggler: self.straggler_model(),
            hetero: self.hetero.map_or(Heterogeneity::Uniform, |h| h.model()),
            backup_k: self.backup_k,
        })
    }

    /// A required field that validation should have guaranteed; absence
    /// is reported against its key path, not unwrapped.
    fn required(field: Option<f64>, key: &str) -> Result<f64> {
        field.ok_or_else(|| {
            SpecError::new(
                format!("workload.{key}"),
                "required without a preset (validation desync)",
            )
        })
    }

    /// Builds the deterministic gd model — the one construction behind
    /// scenarios and the `mlscale gd`/`plan` verbs, which lower their
    /// flags into a [`GdSpec`].
    fn build_inner(&self) -> Result<GradientDescentModel> {
        if let Some(preset) = &self.preset {
            let mut model = preset_model(preset).ok_or_else(|| {
                SpecError::new("workload.preset", format!("unknown preset {preset:?}"))
            })?;
            if self.comm.is_some() {
                model.comm = self.gd_comm()?;
            }
            return Ok(model);
        }
        let bandwidth = BitsPerSec::new(self.bandwidth.unwrap_or(1e9));
        let latency = Seconds::new(self.latency.unwrap_or(0.0));
        let mut cluster = ClusterSpec::new(
            NodeSpec::new(FlopsRate::new(Self::required(self.flops, "flops")?), 1.0),
            LinkSpec::new(bandwidth, latency),
        );
        if let Some(rack_size) = self.rack_size {
            let uplink = LinkSpec::new(
                BitsPerSec::new(self.uplink_bandwidth.unwrap_or(bandwidth.get())),
                Seconds::new(self.uplink_latency.unwrap_or(latency.as_secs())),
            );
            cluster = cluster.with_racks(RackSpec::new(rack_size, uplink));
        }
        Ok(GradientDescentModel {
            cost_per_example: FlopCount::new(Self::required(
                self.cost_per_example,
                "cost_per_example",
            )?),
            batch_size: Self::required(self.batch, "batch")?,
            params: Self::required(self.params, "params")?,
            bits_per_param: self.bits.unwrap_or(32) as u32,
            cluster,
            comm: self.gd_comm()?,
        })
    }

    fn gd_comm(&self) -> Result<GdComm> {
        match self.comm.as_deref().unwrap_or("tree") {
            "tree" => Ok(GdComm::TwoStageTree),
            "spark" => Ok(GdComm::Spark),
            "linear" => Ok(GdComm::LinearFlat),
            "ring" => Ok(GdComm::Ring),
            "halving" => Ok(GdComm::HalvingDoubling),
            "hier" => Ok(GdComm::Hierarchical),
            "none" => Ok(GdComm::None),
            other => Err(SpecError::new(
                "workload.comm",
                format!("unknown collective {other:?}"),
            )),
        }
    }
}

impl BpSpec {
    /// Builds the graph-inference model and returns it with the degree
    /// sequence's Zipf exponent — the one construction behind both the
    /// scenario engine and `mlscale bp`: the degree sequence from the
    /// calibrated Zipf weights (rounded, as the generator would realise
    /// it, around [`Self::hub_degree`]), the per-worker
    /// max edge load by Monte-Carlo (seed `0xC11`) over every
    /// `n ∈ 1..=max_n`, and infinite (shared-memory) bandwidth by default.
    pub fn build(&self) -> (GraphInferenceModel, f64) {
        let (weights, gamma) =
            zipf_weights(self.vertices as usize, self.hub_degree(), 2.0 * self.edges);
        let degrees: Vec<u32> = weights.iter().map(|&w| w.round().max(1.0) as u32).collect();
        let mut rng = StdRng::seed_from_u64(0xC11);
        let loads: Vec<f64> = (1..=self.max_n)
            .map(|n| max_edges_monte_carlo(&degrees, n, 3, &mut rng))
            .collect();
        let model = GraphInferenceModel {
            vertices: self.vertices,
            edges: self.edges,
            states: self.states,
            cost_per_edge: bp_cost_per_edge(self.states),
            flops: FlopsRate::new(self.flops),
            bandwidth: BitsPerSec::new(self.bandwidth.unwrap_or(f64::INFINITY)),
            replication: self.replication,
            edge_load: EdgeLoad::PerWorkerMax(loads),
        };
        (model, gamma)
    }

    /// The hub degree: `max_degree`, or by default ten times the mean
    /// degree `2E/V`, at least 4.
    pub fn hub_degree(&self) -> f64 {
        self.max_degree
            .unwrap_or((2.0 * self.edges / self.vertices * 10.0).max(4.0))
    }

    /// Validates the (possibly override-resolved) bp workload.
    pub fn validate(&self, path: &str) -> Result<()> {
        let at = |key: &str| format!("{path}.{key}");
        check(path, "vertices", self.vertices, Range::Positive)?;
        check(path, "edges", self.edges, Range::Positive)?;
        check(path, "max_degree", self.max_degree, Range::Positive)?;
        check(path, "flops", self.flops, Range::Positive)?;
        check(path, "bandwidth", self.bandwidth, Range::Positive)?;
        check(path, "replication", self.replication, Range::NonNegative)?;
        if self.states < 2 {
            return Err(SpecError::new(
                at("states"),
                format!("needs at least 2 states per variable, got {}", self.states),
            ));
        }
        if self.max_n < 1 {
            return Err(SpecError::new(at("max_n"), "must be at least 1"));
        }
        if self.max_n > DENSE_EVAL_MAX_N {
            return Err(SpecError::new(
                at("max_n"),
                format!(
                    "{} exceeds the dense-mode limit {DENSE_EVAL_MAX_N}: the bp workload \
                     evaluates (and Monte-Carlo loads) every n up to max_n",
                    self.max_n
                ),
            ));
        }
        Ok(())
    }

    /// Applies one sweep assignment (see [`GdSpec::set_param`]).
    pub fn set_param(&mut self, param: &str, value: &AxisValue, path: &str) -> Result<()> {
        let num = || -> Result<f64> {
            match value {
                AxisValue::Num(x) => Ok(*x),
                AxisValue::Int(n) => Ok(*n as f64),
                AxisValue::Str(s) => Err(SpecError::new(
                    path,
                    format!("{param}: expected a number, got {s:?}"),
                )),
            }
        };
        let int = || -> Result<usize> {
            match value {
                AxisValue::Int(n) => Ok(*n),
                other => Err(SpecError::new(
                    path,
                    format!("{param}: expected a non-negative integer, got {other}"),
                )),
            }
        };
        match param {
            "vertices" => self.vertices = num()?,
            "edges" => self.edges = num()?,
            "max_degree" => self.max_degree = Some(num()?),
            "flops" => self.flops = num()?,
            "bandwidth" => self.bandwidth = Some(num()?),
            "replication" => self.replication = num()?,
            "states" => self.states = int()?,
            "max_n" => self.max_n = int()?,
            other => {
                return Err(SpecError::new(
                    path,
                    format!("{other:?} is not a sweepable bp parameter"),
                ))
            }
        }
        Ok(())
    }
}

impl ExhibitSpec {
    /// Validates the exhibit reference.
    pub fn validate(&self, path: &str) -> Result<()> {
        let Some(&(_, takes_max_n)) = EXHIBITS.iter().find(|(id, _)| *id == self.id) else {
            let names: Vec<&str> = EXHIBITS.iter().map(|&(id, _)| id).collect();
            return Err(SpecError::new(
                format!("{path}.id"),
                format!(
                    "unknown exhibit {:?} (use one of: {})",
                    self.id,
                    names.join(", ")
                ),
            ));
        };
        match self.max_n {
            Some(0) => Err(SpecError::new(
                format!("{path}.max_n"),
                "must be at least 1",
            )),
            Some(_) if !takes_max_n => Err(SpecError::new(
                format!("{path}.max_n"),
                format!("exhibit {:?} takes no max_n", self.id),
            )),
            Some(m) if m > DENSE_EVAL_MAX_N => Err(SpecError::new(
                format!("{path}.max_n"),
                format!("{m} exceeds the dense-mode limit {DENSE_EVAL_MAX_N}: exhibits sweep every n in 1..=max_n"),
            )),
            _ => Ok(()),
        }
    }
}

// ---------------------------------------------------------------------------
// Grid expansion
// ---------------------------------------------------------------------------

/// A grid point together with its fully-resolved workload.
#[derive(Debug, Clone, PartialEq)]
pub enum ResolvedWorkload {
    /// A resolved gd workload.
    Gd(Box<GdSpec>),
    /// A resolved bp workload.
    Bp(BpSpec),
    /// The (sweep-less) exhibit workload.
    Exhibit(ExhibitSpec),
}

/// Lazily yields a sweep grid's points in odometer order (first axis
/// outermost, last axis fastest) — the same points, ids and order as
/// [`ScenarioSpec::expand`], without ever materialising the grid.
pub struct GridIter<'a> {
    spec: &'a ScenarioSpec,
    width: usize,
    index: usize,
    total: usize,
}

impl Iterator for GridIter<'_> {
    type Item = GridPoint;

    fn next(&mut self) -> Option<GridPoint> {
        if self.index >= self.total {
            return None;
        }
        let point = self.spec.point_at(self.index, self.width);
        self.index += 1;
        Some(point)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.total - self.index;
        (left, Some(left))
    }
}

impl ExactSizeIterator for GridIter<'_> {}

impl ScenarioSpec {
    /// The expanded grid size, without expanding: the checked product of
    /// the axis lengths, refused past [`MAX_GRID_POINTS`].
    pub fn grid_len(&self) -> Result<usize> {
        let total: usize = self
            .sweep
            .iter()
            .map(|a| a.values.len())
            .try_fold(1usize, |acc, len| acc.checked_mul(len))
            .ok_or_else(|| SpecError::new("sweep", "grid size overflows"))?;
        if total > MAX_GRID_POINTS {
            return Err(SpecError::new(
                "sweep",
                format!("grid expands to {total} points (limit {MAX_GRID_POINTS})"),
            ));
        }
        Ok(total)
    }

    /// A lazy iterator over the sweep grid — expansion order is a pure
    /// function of the document, so repeated runs number and order the
    /// points identically, and a million-point grid costs one point of
    /// memory at a time.
    pub fn grid_iter(&self) -> Result<GridIter<'_>> {
        let total = self.grid_len()?;
        Ok(GridIter {
            spec: self,
            width: point_id_width(total),
            index: 0,
            total,
        })
    }

    /// Decodes grid point `index` directly (the odometer: last axis
    /// varies fastest). `width` is the id zero-pad width for the full
    /// grid ([`point_id_width`] of the grid length), so a point built
    /// here is identical to the one [`Self::expand`] would yield.
    pub fn point_at(&self, index: usize, width: usize) -> GridPoint {
        let mut rem = index;
        let mut assignments = Vec::with_capacity(self.sweep.len());
        for axis in self.sweep.iter().rev() {
            let len = axis.values.len();
            assignments.push((axis.param.clone(), axis.values[rem % len].clone()));
            rem /= len;
        }
        assignments.reverse();
        GridPoint {
            index,
            id: format!("{}-p{index:0width$}", self.name),
            assignments,
        }
    }

    /// Expands the sweep grid into its cross product — the collecting
    /// form of [`Self::grid_iter`], for small grids and tests.
    pub fn expand(&self) -> Result<Vec<GridPoint>> {
        Ok(self.grid_iter()?.collect())
    }

    /// Resolves a grid point into its concrete workload: base spec +
    /// overrides, revalidated so a bad combination names the point.
    pub fn resolve(&self, point: &GridPoint) -> Result<ResolvedWorkload> {
        let context = if point.assignments.is_empty() {
            format!("grid point {}", point.id)
        } else {
            format!("grid point {} ({})", point.id, point.label())
        };
        match &self.workload {
            WorkloadSpec::Gd(gd) => {
                let mut resolved = gd.clone();
                for (param, value) in &point.assignments {
                    resolved.set_param(param, value, &context)?;
                }
                resolved.validate(&context)?;
                Ok(ResolvedWorkload::Gd(resolved))
            }
            WorkloadSpec::Bp(bp) => {
                let mut resolved = bp.clone();
                for (param, value) in &point.assignments {
                    resolved.set_param(param, value, &context)?;
                }
                resolved.validate(&context)?;
                Ok(ResolvedWorkload::Bp(resolved))
            }
            WorkloadSpec::Exhibit(ex) => Ok(ResolvedWorkload::Exhibit(ex.clone())),
        }
    }
}

/// Zero-pad width for point ids: at least 3 digits, more for huge grids,
/// so lexicographic file order equals grid order.
pub fn point_id_width(total: usize) -> usize {
    let digits = total.saturating_sub(1).max(1).ilog10() as usize + 1;
    digits.max(3)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(json: &str) -> Result<ScenarioSpec> {
        ScenarioSpec::from_json(json)
    }

    fn err_of(json: &str) -> SpecError {
        parse(json).expect_err("spec must be rejected")
    }

    const MINIMAL_GD: &str = r#"{
        "name": "t",
        "workload": {"kind": "gd", "preset": "fig2", "max_n": 13}
    }"#;

    #[test]
    fn minimal_gd_parses() {
        let spec = parse(MINIMAL_GD).unwrap();
        assert_eq!(spec.name, "t");
        match &spec.workload {
            WorkloadSpec::Gd(gd) => {
                assert_eq!(gd.preset.as_deref(), Some("fig2"));
                assert_eq!(gd.max_n, 13);
            }
            other => panic!("wrong workload: {other:?}"),
        }
        assert_eq!(spec.expand().unwrap().len(), 1);
    }

    #[test]
    fn unknown_top_level_field_named() {
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"}, "sweeps": []}"#);
        assert_eq!(e.path, "sweeps");
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn unknown_workload_field_named_with_path() {
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "latancy": 1}}"#);
        assert_eq!(e.path, "workload.latancy");
        assert!(e.message.contains("unknown field"), "{e}");
    }

    #[test]
    fn negative_max_n_named() {
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": -3}}"#);
        assert_eq!(e.path, "workload.max_n");
        assert!(e.message.contains("-3"), "{e}");
    }

    #[test]
    fn minus_zero_max_n_is_zero() {
        // `-0` is the integer 0, not a negative one: the range rule
        // refuses it, as it refuses `0`.
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": -0}}"#);
        assert_eq!(e.path, "workload.max_n");
        assert_eq!(e.message, "must be at least 1");
    }

    #[test]
    fn minus_zero_on_an_integer_axis_is_zero() {
        let spec = parse(
            r#"{"name": "t",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 8,
                             "straggler": {"kind": "exp", "mean": 1.0}},
                "sweep": [{"param": "backup_k", "values": [-0, 1]}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.sweep[0].values,
            vec![AxisValue::Int(0), AxisValue::Int(1)]
        );
    }

    #[test]
    fn absurd_max_n_without_log_points_named() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": 1000000000}}"#,
        );
        assert_eq!(e.path, "workload.max_n");
        assert!(e.message.contains("dense-mode limit"), "{e}");
        assert!(e.message.contains("log_points"), "{e}");
    }

    #[test]
    fn large_max_n_with_log_points_validates() {
        let spec = parse(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
                "max_n": 1000000, "log_points": 200}}"#,
        )
        .expect("log-spaced mode lifts the dense cap");
        match &spec.workload {
            WorkloadSpec::Gd(gd) => assert_eq!(gd.log_points, Some(200)),
            other => panic!("unexpected workload {other:?}"),
        }
    }

    #[test]
    fn degenerate_log_points_named() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
                "max_n": 64, "log_points": 1}}"#,
        );
        assert_eq!(e.path, "workload.log_points");
        assert!(e.message.contains("two endpoints"), "{e}");
    }

    #[test]
    fn absurd_bp_max_n_named() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "bp", "vertices": 16259, "edges": 99785,
                "max_n": 100000}}"#,
        );
        assert_eq!(e.path, "workload.max_n");
        assert!(e.message.contains("dense-mode limit"), "{e}");
    }

    #[test]
    fn preset_conflicts_with_explicit_field() {
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "params": 1e6}}"#);
        assert_eq!(e.path, "workload.params");
        assert!(e.message.contains("preset"), "{e}");
    }

    #[test]
    fn preset_conflicts_with_rack_fields() {
        let e =
            err_of(r#"{"name": "t", "workload": {"kind": "gd", "preset": "pod", "rack_size": 8}}"#);
        assert_eq!(e.path, "workload.rack_size");
    }

    #[test]
    fn missing_required_fields_named() {
        let e = err_of(r#"{"name": "t", "workload": {"kind": "gd", "params": 1e6}}"#);
        assert_eq!(e.path, "workload.cost_per_example");
        assert!(e.message.contains("missing"), "{e}");
    }

    #[test]
    fn range_diagnostics_state_the_rule_they_applied() {
        for (json, path, message) in [
            (
                r#"{"name": "t", "workload": {"kind": "gd", "params": 1e6,
                    "cost_per_example": 1e6, "batch": 10, "flops": 1e9, "bandwidth": 0}}"#,
                "workload.bandwidth",
                "must be a finite positive number, got 0",
            ),
            (
                r#"{"name": "t", "workload": {"kind": "bp", "vertices": 100, "edges": 300,
                    "replication": -1}}"#,
                "workload.replication",
                "must be a finite non-negative number, got -1",
            ),
            (
                r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
                    "plan": {"budget": -3}}}"#,
                "workload.plan.budget",
                "must be a finite non-negative number, got -3",
            ),
            (
                r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
                    "straggler": {"kind": "lognormal", "mu": 0, "sigma": -1}}}"#,
                "workload.straggler.sigma",
                "must be a finite non-negative number, got -1",
            ),
        ] {
            let e = err_of(json);
            assert_eq!((e.path.as_str(), e.message.as_str()), (path, message));
        }
        // The rule for replication admits zero.
        parse(r#"{"name": "t", "workload": {"kind": "bp", "vertices": 100, "edges": 300, "replication": 0}}"#)
            .expect("replication 0 is in range");
    }

    #[test]
    fn hier_without_racks_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "params": 1e6,
                "cost_per_example": 1e6, "batch": 10, "flops": 1e9, "comm": "hier"}}"#,
        );
        assert_eq!(e.path, "workload.comm");
        assert!(e.message.contains("rack"), "{e}");
    }

    #[test]
    fn uplink_without_rack_size_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "params": 1e6,
                "cost_per_example": 1e6, "batch": 10, "flops": 1e9,
                "uplink_bandwidth": 1e9}}"#,
        );
        assert_eq!(e.path, "workload.uplink_bandwidth");
    }

    #[test]
    fn empty_axis_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "jitter", "values": []}]}"#,
        );
        assert_eq!(e.path, "sweep[0].values");
        assert!(e.message.contains("empty grid axis"), "{e}");
    }

    #[test]
    fn sweeping_a_preset_fixed_param_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "latency", "values": [0, 1e-4]}]}"#,
        );
        assert_eq!(e.path, "sweep[0].param");
        assert!(e.message.contains("fixed by workload.preset"), "{e}");
    }

    #[test]
    fn duplicate_axis_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "jitter", "values": [0]},
                          {"param": "jitter", "values": [1]}]}"#,
        );
        assert_eq!(e.path, "sweep[1].param");
        assert!(e.message.contains("duplicate"), "{e}");
    }

    #[test]
    fn values_and_range_both_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "jitter", "values": [1],
                           "range": {"from": 0, "to": 1, "step": 1}}]}"#,
        );
        assert_eq!(e.path, "sweep[0]");
        assert!(e.message.contains("not both"), "{e}");
    }

    #[test]
    fn integer_range_expands_inclusively() {
        let spec = parse(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "backup_k", "range": {"from": 0, "to": 6, "step": 2}},
                          {"param": "jitter", "values": [0.5]}]}"#,
        )
        .unwrap();
        assert_eq!(
            spec.sweep[0].values,
            vec![
                AxisValue::Int(0),
                AxisValue::Int(2),
                AxisValue::Int(4),
                AxisValue::Int(6)
            ]
        );
    }

    #[test]
    fn huge_range_rejected_not_wrapped() {
        // ((to-from)/step) overflows usize; the size check must happen in
        // float space, not after a saturating cast that wraps to a silent
        // 0-point axis.
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "jitter", "range": {"from": 0, "to": 1e30, "step": 1}}]}"#,
        );
        assert_eq!(e.path, "sweep[0].range");
        assert!(e.message.contains("limit"), "{e}");
    }

    #[test]
    fn duplicate_json_keys_rejected() {
        // The vendored parser keeps both entries of a duplicated key;
        // first-wins resolution would silently sweep a stale value.
        let e = err_of(
            r#"{"name": "t",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 8, "max_n": 32}}"#,
        );
        assert_eq!(e.path, "workload.max_n");
        assert!(e.message.contains("more than once"), "{e}");
        let e =
            err_of(r#"{"name": "a", "name": "b", "workload": {"kind": "exhibit", "id": "fig1"}}"#);
        assert_eq!(e.path, "name");
    }

    #[test]
    fn backwards_range_is_an_empty_axis() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
                "sweep": [{"param": "jitter", "range": {"from": 5, "to": 1, "step": 1}}]}"#,
        );
        assert_eq!(e.path, "sweep[0].range");
        assert!(e.message.contains("empty grid axis"), "{e}");
    }

    #[test]
    fn grid_point_deep_in_the_grid_is_validated_up_front() {
        // backup_k = 8 at max_n = 8 only arises for the last grid point;
        // validate() must reject the document before any evaluation.
        let e = err_of(
            r#"{"name": "t",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 8,
                             "straggler": {"kind": "exp", "mean": 1.0}},
                "sweep": [{"param": "backup_k", "values": [0, 2, 8]}]}"#,
        );
        assert!(e.path.contains("grid point t-p002"), "{e}");
        assert!(
            e.message.contains("backup_k") || e.path.contains("backup_k"),
            "{e}"
        );
    }

    #[test]
    fn rack_decay_past_the_float_range_is_refused_at_its_grid_point() {
        // Racks of 64 at max_n 10⁵: the last rack runs at 0.8^1562, a
        // usable speed. Racks of one worker put it at 0.8^99999, which
        // underflows to 0 and would abort the evaluation.
        let e = err_of(
            r#"{"name": "t",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9, "max_n": 100000, "log_points": 30,
                             "rack_size": 64, "hetero": {"kind": "rack", "factor": 0.8}},
                "sweep": [{"param": "rack_size", "values": [64, 1]}]}"#,
        );
        assert!(e.path.starts_with("grid point t-p001"), "{e}");
        assert!(e.path.ends_with(".hetero.factor"), "{e}");
        assert!(e.message.contains("0.8^99999 = 0,"), "{e}");
    }

    #[test]
    fn expansion_is_odometer_ordered() {
        let spec = parse(
            r#"{"name": "g",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9},
                "sweep": [{"param": "latency", "values": [0.0, 0.5]},
                          {"param": "comm", "values": ["tree", "ring", "halving"]}]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        assert_eq!(points.len(), 6);
        let labels: Vec<String> = points.iter().map(GridPoint::label).collect();
        assert_eq!(labels[0], "latency=0, comm=tree");
        assert_eq!(labels[1], "latency=0, comm=ring");
        assert_eq!(labels[2], "latency=0, comm=halving");
        assert_eq!(labels[3], "latency=0.5, comm=tree");
        assert_eq!(points[5].id, "g-p005");
    }

    #[test]
    fn jitter_axis_conflicts_with_exp_straggler() {
        let e = err_of(
            r#"{"name": "t",
                "workload": {"kind": "gd", "preset": "fig2",
                             "straggler": {"kind": "exp", "mean": 1.0}},
                "sweep": [{"param": "jitter", "values": [0.0, 1.0]}]}"#,
        );
        assert!(e.message.contains("jitter axis conflicts"), "{e}");
    }

    #[test]
    fn exhibit_with_sweep_rejected() {
        let e = err_of(
            r#"{"name": "t", "workload": {"kind": "exhibit", "id": "fig1"},
                "sweep": [{"param": "max_n", "values": [8]}]}"#,
        );
        assert_eq!(e.path, "sweep");
    }

    #[test]
    fn unknown_exhibit_rejected() {
        let e = err_of(r#"{"name": "t", "workload": {"kind": "exhibit", "id": "fig9"}}"#);
        assert_eq!(e.path, "workload.id");
        assert!(e.message.contains("fig9"), "{e}");
    }

    #[test]
    fn resolved_point_applies_overrides() {
        let spec = parse(
            r#"{"name": "g",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9, "max_n": 8},
                "sweep": [{"param": "latency", "values": [0.0, 2.5e-4]}]}"#,
        )
        .unwrap();
        let points = spec.expand().unwrap();
        match spec.resolve(&points[1]).unwrap() {
            ResolvedWorkload::Gd(gd) => assert_eq!(gd.latency, Some(2.5e-4)),
            other => panic!("wrong workload: {other:?}"),
        }
    }

    #[test]
    fn bp_spec_parses_and_validates() {
        let spec = parse(
            r#"{"name": "b",
                "workload": {"kind": "bp", "vertices": 16259, "edges": 99785, "max_n": 8}}"#,
        )
        .unwrap();
        match &spec.workload {
            WorkloadSpec::Bp(bp) => {
                assert_eq!(bp.states, 2);
                assert_eq!(bp.max_n, 8);
            }
            other => panic!("wrong workload: {other:?}"),
        }
        let e = err_of(r#"{"name": "b", "workload": {"kind": "bp", "vertices": 100}}"#);
        assert_eq!(e.path, "workload.edges");
    }

    #[test]
    fn point_id_width_scales() {
        assert_eq!(point_id_width(1), 3);
        assert_eq!(point_id_width(999), 3);
        assert_eq!(point_id_width(1000), 3);
        assert_eq!(point_id_width(1001), 4);
    }

    #[test]
    fn grid_iter_matches_expand_lazily() {
        let spec = parse(
            r#"{"name": "g",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9},
                "sweep": [{"param": "latency", "values": [0.0, 0.5]},
                          {"param": "comm", "values": ["tree", "ring", "halving"]}]}"#,
        )
        .unwrap();
        let iter = spec.grid_iter().unwrap();
        assert_eq!(iter.len(), 6);
        let streamed: Vec<GridPoint> = iter.collect();
        assert_eq!(streamed, spec.expand().unwrap());
        assert_eq!(spec.grid_len().unwrap(), 6);
    }

    #[test]
    fn adaptive_flag_parses_and_needs_a_sweep() {
        let spec = parse(
            r#"{"name": "t", "adaptive": true,
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 8},
                "sweep": [{"param": "jitter", "values": [0.0, 0.1]}]}"#,
        )
        .unwrap();
        assert!(spec.adaptive);
        assert!(!parse(MINIMAL_GD).unwrap().adaptive, "defaults to false");
        let e = err_of(
            r#"{"name": "t", "adaptive": true,
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 8}}"#,
        );
        assert_eq!(e.path, "adaptive");
        assert!(e.message.contains("non-empty sweep"), "{e}");
    }

    #[test]
    fn over_cap_max_n_axis_is_screened_before_expansion() {
        // The bad value sits at the *end* of a grid whose dry run would
        // otherwise resolve thousands of points first; the screen must
        // name the axis value and report the expanded point count.
        let e = err_of(
            r#"{"name": "t",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9},
                "sweep": [{"param": "latency", "range": {"from": 0, "to": 0.1, "step": 1e-4}},
                          {"param": "max_n", "values": [8, 20000]}]}"#,
        );
        assert_eq!(e.path, "sweep[1].values[1]");
        assert!(e.message.contains("dense-mode limit"), "{e}");
        assert!(e.message.contains("2002-point grid"), "{e}");
    }

    #[test]
    fn over_cap_max_n_axis_with_log_points_passes_the_screen() {
        parse(
            r#"{"name": "t",
                "workload": {"kind": "gd", "params": 1e6, "cost_per_example": 1e6,
                             "batch": 10, "flops": 1e9, "log_points": 50},
                "sweep": [{"param": "max_n", "values": [8, 20000]}]}"#,
        )
        .expect("log_points lifts the dense cap for swept max_n too");
    }
}
