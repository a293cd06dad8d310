//! The batch sweep engine: expands a scenario's grid, evaluates every
//! point, and assembles per-point results plus a roll-up report.
//!
//! Evaluation strategy:
//!
//! * **deterministic** gd points (no straggler tail) fan out across
//!   threads through [`mlscale_core::par`] — each point's curve sweep
//!   additionally parallelises over `n` internally;
//! * **stochastic** gd points are grouped by their delay distribution and
//!   served from one shared [`OrderStatCache`] per distinct distribution,
//!   which each point's curve and planner both read, so a grid that
//!   revisits the same `(n, k)` order statistics (sweeping latency,
//!   collectives, rack shapes under one straggler regime) runs each
//!   quadrature exactly once — bit-identical to evaluating every point in
//!   isolation;
//! * **exhibit** scenarios call the same experiment definitions as the
//!   `exp-*`/`ext-*` binaries with the same defaults and seeds, so their
//!   output is byte-identical to the binaries' golden fixtures.

use crate::spec::{
    BpSpec, ExhibitSpec, GdSpec, GridPoint, ResolvedWorkload, ScenarioSpec, SpecError, WorkloadSpec,
};
use crate::store::{self, Layout};
use mlscale_core::planner::Pricing;
use mlscale_core::speedup::log_spaced_ns;
use mlscale_core::straggler::{OrderStatCache, OrderStatCachePool};
use mlscale_core::units::Seconds;
use mlscale_core::{par, SpeedupCurve};
use mlscale_workloads::experiments::extensions::hierarchical_comm;
use mlscale_workloads::experiments::{fig1, fig2, fig3, fig4, stragglers, table1, DnsScale};
use mlscale_workloads::{ExperimentResult, Series};
use serde::Value;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Everything one `mlscale sweep` run produced, in grid order.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepOutcome {
    /// The scenario name (results-file prefix).
    pub name: String,
    /// The expanded grid, aligned with `points` (callers label rows from
    /// here instead of re-expanding the spec).
    pub grid: Vec<GridPoint>,
    /// One result per grid point, in expansion order.
    pub points: Vec<ExperimentResult>,
    /// The roll-up report over all points.
    pub rollup: ExperimentResult,
}

/// Expands and evaluates a validated scenario.
///
/// Returns an error only for grid/spec problems (all of which
/// [`ScenarioSpec::from_json`] already screens — an error out of
/// evaluation itself signals a parse/validation desync, named by key
/// path rather than panicking).
pub fn run(spec: &ScenarioSpec) -> Result<SweepOutcome, SpecError> {
    run_pooled(spec, &OrderStatCachePool::new())
}

/// [`run`] with the stochastic points' order-statistic caches drawn from
/// a caller-owned pool. A long-lived caller (`mlscale serve`) holds one
/// pool for the life of the process, so repeated requests over the same
/// straggler regime reuse each other's quadrature work; results are
/// bit-identical to [`run`] with a fresh pool.
pub fn run_pooled(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
) -> Result<SweepOutcome, SpecError> {
    let grid = spec.expand()?;
    let points = eval_all(spec, pool, &grid)?;
    let rollup = build_rollup(spec, &grid, &points);
    Ok(SweepOutcome {
        name: spec.name.clone(),
        grid,
        points,
        rollup,
    })
}

/// The one evaluator behind every sweep: resolves and evaluates `points`
/// (any subset of the grid), delivering each result with its offset in
/// `points` through `sink` as soon as the engine has it — deterministic
/// gd points first, then stochastic points grouped by delay
/// distribution. The journaled runner writes from the sink; [`eval_all`]
/// just collects. Results are bit-identical whichever subset is passed —
/// shared caches only memoise pure quadratures.
pub(crate) fn eval_points(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
    points: &[GridPoint],
    sink: &mut dyn FnMut(usize, ExperimentResult) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    let resolved: Vec<ResolvedWorkload> = points
        .iter()
        .map(|p| spec.resolve(p))
        .collect::<Result<_, _>>()?;
    match &spec.workload {
        WorkloadSpec::Gd(_) => eval_gd_points(spec, points, &resolved, pool, sink),
        WorkloadSpec::Bp(_) => eval_bp_points(spec, points, &resolved, sink),
        WorkloadSpec::Exhibit(ex) => {
            for i in 0..points.len() {
                sink(i, run_exhibit(ex)?)?;
            }
            Ok(())
        }
    }
}

/// [`eval_points`], collected in `points` order.
pub(crate) fn eval_all(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
    points: &[GridPoint],
) -> Result<Vec<ExperimentResult>, SpecError> {
    let mut results = vec![None; points.len()];
    eval_points(spec, pool, points, &mut |i, result| {
        results[i] = Some(result);
        Ok(())
    })?;
    all_evaluated(results)
}

/// Unwraps per-slot results, naming any slot the scheduler skipped (an
/// internal bug, reported rather than panicked).
pub(crate) fn all_evaluated<T>(slots: Vec<Option<T>>) -> Result<Vec<T>, SpecError> {
    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            slot.ok_or_else(|| {
                SpecError::new(
                    format!("sweep point {i}"),
                    "never evaluated — internal scheduling bug",
                )
            })
        })
        .collect()
}

/// Serialises every point result plus the roll-up into `dir` as
/// `<id>.json`, atomically (temp file + rename, like the exhibit
/// binaries' `emit`): an interrupted sweep never leaves a truncated
/// results file behind. Result files of this scenario from a previous run
/// that are not part of this outcome — points beyond a shrunk grid,
/// shards of a sharded run, orphaned `.tmp` files — are removed, so the
/// directory always reflects exactly the grid that was just swept. Files
/// not matching this scenario's result-file patterns are untouched.
/// Returns the written paths in grid order (roll-up last).
pub fn write_outcome(outcome: &SweepOutcome, dir: &Path) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    let mut paths = Vec::with_capacity(outcome.points.len() + 1);
    for result in outcome
        .points
        .iter()
        .chain(std::iter::once(&outcome.rollup))
    {
        let path = dir.join(format!("{}.json", result.id));
        store::write_atomic(&path, &Layout::PerPoint.encode(result)?, None)?;
        paths.push(path);
    }
    let fresh: HashSet<String> = outcome
        .points
        .iter()
        .map(|r| format!("{}.json", r.id))
        .collect();
    store::clean_stale(dir, &outcome.name, &fresh)?;
    Ok(paths)
}

// ---------------------------------------------------------------------------
// Gradient descent
// ---------------------------------------------------------------------------

fn try_gd_of(workload: &ResolvedWorkload, point: usize) -> Result<&GdSpec, SpecError> {
    match workload {
        ResolvedWorkload::Gd(gd) => Ok(gd),
        other => Err(SpecError::new(
            format!("sweep point {point}"),
            format!("gd grid resolved to a non-gd workload ({other:?}) — internal resolver bug"),
        )),
    }
}

fn eval_gd_points(
    spec: &ScenarioSpec,
    points: &[GridPoint],
    resolved: &[ResolvedWorkload],
    pool: &OrderStatCachePool,
    sink: &mut dyn FnMut(usize, ExperimentResult) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    let gds: Vec<&GdSpec> = resolved
        .iter()
        .enumerate()
        .map(|(i, w)| try_gd_of(w, i))
        .collect::<Result<_, _>>()?;

    // Deterministic points: pure functions of the spec, fanned out across
    // threads (each curve additionally parallelises over n internally).
    let det: Vec<usize> = (0..points.len())
        .filter(|&i| gds[i].straggler_model().is_zero())
        .collect();
    for (&i, result) in det.iter().zip(par::map(&det, |&i| {
        let cache = OrderStatCache::new(gds[i].straggler_model());
        eval_gd(spec, &points[i], gds[i], &cache)
    })) {
        sink(i, result?)?;
    }

    // Stochastic points: group by delay distribution, one shared
    // order-statistic cache per distinct distribution (drawn from the
    // caller's pool, so a daemon reuses them across requests). Each
    // point's curve and planner fill the cache with only the keys they
    // lack, so every (n, k) is computed once per group.
    let mut stochastic: Vec<usize> = (0..points.len())
        .filter(|&i| !gds[i].straggler_model().is_zero())
        .collect();
    while let Some(&first) = stochastic.first() {
        let model = gds[first].straggler_model();
        let (group, rest): (Vec<usize>, Vec<usize>) = stochastic
            .iter()
            .partition(|&&i| gds[i].straggler_model() == model);
        stochastic = rest;
        let cache = pool.cache_for(model);
        for &i in &group {
            sink(i, eval_gd(spec, &points[i], gds[i], &cache)?)?;
        }
    }
    Ok(())
}

fn eval_gd(
    spec: &ScenarioSpec,
    point: &GridPoint,
    gd: &GdSpec,
    cache: &OrderStatCache,
) -> Result<ExperimentResult, SpecError> {
    let model = gd.build()?;
    let ns: Vec<usize> = match gd.log_points {
        Some(points) => log_spaced_ns(gd.max_n, points),
        None => (1..=gd.max_n).collect(),
    };
    let curve = if gd.weak {
        model.weak_curve_cached(ns, cache)
    } else {
        model.strong_curve_cached(ns, cache)
    };
    let mut result = point_result(spec, point).with_note(if gd.weak {
        "weak scaling: expected per-instance time, speedup relative to n = 1"
    } else {
        "strong scaling: expected per-iteration time, speedup relative to n = 1"
    });
    result = with_curve(result, &curve)?;
    if let Some(plan) = &gd.plan {
        let pricing = Pricing::hourly(plan.price);
        let planner =
            model.planner_cached(plan.iterations, gd.max_n, pricing, gd.log_points, cache);
        let fastest = planner.fastest();
        let cheapest = planner.cheapest();
        result = result
            .with_stat("fastest n", fastest.n as f64, None)
            .with_stat("fastest time s", fastest.time.as_secs(), None)
            .with_stat("fastest cost", fastest.cost, None)
            .with_stat("cheapest n", cheapest.n as f64, None)
            .with_stat("cheapest time s", cheapest.time.as_secs(), None)
            .with_stat("cheapest cost", cheapest.cost, None);
        if let Some(deadline) = plan.deadline {
            result = match planner.cheapest_within_deadline(Seconds::new(deadline)) {
                Some(p) => result
                    .with_stat("cheapest n within deadline", p.n as f64, None)
                    .with_stat("cheapest cost within deadline", p.cost, None),
                None => result.with_note(format!(
                    "no configuration up to max_n meets the {deadline} s deadline"
                )),
            };
        }
        if let Some(budget) = plan.budget {
            result = match planner.fastest_within_budget(budget) {
                Some(p) => result
                    .with_stat("fastest n within budget", p.n as f64, None)
                    .with_stat("fastest time s within budget", p.time.as_secs(), None),
                None => result.with_note(format!("even one node exceeds the budget of {budget}")),
            };
        }
    }
    Ok(result)
}

// ---------------------------------------------------------------------------
// Belief propagation
// ---------------------------------------------------------------------------

fn eval_bp_points(
    spec: &ScenarioSpec,
    points: &[GridPoint],
    resolved: &[ResolvedWorkload],
    sink: &mut dyn FnMut(usize, ExperimentResult) -> Result<(), SpecError>,
) -> Result<(), SpecError> {
    let indices: Vec<usize> = (0..points.len()).collect();
    let evaluated = par::map(&indices, |&i| {
        let ResolvedWorkload::Bp(bp) = &resolved[i] else {
            return Err(SpecError::new(
                format!("sweep point {i}"),
                format!(
                    "bp grid resolved to a non-bp workload ({:?}) — internal resolver bug",
                    resolved[i]
                ),
            ));
        };
        eval_bp(spec, &points[i], bp)
    });
    for (i, result) in evaluated.into_iter().enumerate() {
        sink(i, result?)?;
    }
    Ok(())
}

/// Evaluates one bp grid point through [`BpSpec::build`], the model
/// `mlscale bp` prints — a 1-point grid matches the CLI.
fn eval_bp(
    spec: &ScenarioSpec,
    point: &GridPoint,
    bp: &BpSpec,
) -> Result<ExperimentResult, SpecError> {
    let (model, gamma) = bp.build();
    let curve = model.curve(1..=bp.max_n);
    Ok(with_curve(point_result(spec, point), &curve)?
        .with_stat("zipf gamma", gamma, None)
        .with_note(
            "degree sequence from the calibrated Zipf weights, per-worker max edge \
             load by Monte-Carlo (seed 0xC11), as in `mlscale bp`",
        ))
}

// ---------------------------------------------------------------------------
// Exhibits
// ---------------------------------------------------------------------------

/// Reproduces a named exhibit with exactly the arguments its binary uses,
/// so the emitted JSON is byte-identical to the golden fixture.
fn run_exhibit(ex: &ExhibitSpec) -> Result<ExperimentResult, SpecError> {
    Ok(match ex.id.as_str() {
        "table1" => table1(),
        "fig1" => fig1(),
        "fig2" => fig2(ex.max_n.unwrap_or(16)),
        "fig3" => fig3(),
        "fig4-small" => fig4(DnsScale::Small, &[1, 2, 4, 8, 16, 24, 32, 48, 64, 80]),
        "ext-stragglers" => stragglers(ex.max_n.unwrap_or(16)),
        "ext-hierarchical-comm" => hierarchical_comm(ex.max_n.unwrap_or(64)),
        other => {
            return Err(SpecError::new(
                "workload.id",
                format!("exhibit {other:?} escaped spec validation — internal resolver bug"),
            ))
        }
    })
}

// ---------------------------------------------------------------------------
// Result assembly
// ---------------------------------------------------------------------------

/// The empty per-point result: id from the grid point, title carrying the
/// axis assignments, numeric assignments echoed as stats (symbolic ones
/// live in the title/notes).
fn point_result(spec: &ScenarioSpec, point: &GridPoint) -> ExperimentResult {
    let title = if point.assignments.is_empty() {
        spec.display_title().to_string()
    } else {
        format!("{} [{}]", spec.display_title(), point.label())
    };
    let mut result = ExperimentResult::new(point.id.clone(), title);
    for (param, value) in &point.assignments {
        match value {
            crate::spec::AxisValue::Num(x) => {
                result = result.with_stat(format!("axis {param}"), *x, None);
            }
            crate::spec::AxisValue::Int(n) => {
                result = result.with_stat(format!("axis {param}"), *n as f64, None);
            }
            crate::spec::AxisValue::Str(s) => {
                result = result.with_note(format!("axis {param} = {s}"));
            }
        }
    }
    result
}

/// Attaches the evaluated curve: time and speedup series plus the
/// optimum/baseline stats every roll-up reads. A curve whose optimum is
/// not among its own samples signals an engine desync — reported against
/// the point id, never a panic (the serve daemon runs this path).
fn with_curve(
    result: ExperimentResult,
    curve: &SpeedupCurve,
) -> Result<ExperimentResult, SpecError> {
    let times: Vec<(usize, f64)> = curve
        .ns()
        .iter()
        .zip(curve.times())
        .map(|(&n, t)| (n, t.as_secs()))
        .collect();
    let (n_opt, s_opt) = curve.optimal();
    let t_opt = curve
        .time_at(n_opt)
        .ok_or_else(|| {
            SpecError::new(
                format!("grid point {}", result.id),
                format!("optimum n = {n_opt} is not among the sampled worker counts"),
            )
        })?
        .as_secs();
    let (_, t1) = curve.baseline();
    Ok(result
        .with_series(Series::new("time s", times))
        .with_series(Series::new("speedup", curve.speedups()))
        .with_stat("optimal n", n_opt as f64, None)
        .with_stat("peak speedup", s_opt, None)
        .with_stat("time at optimum s", t_opt, None)
        .with_stat("baseline time s", t1.as_secs(), None))
}

/// Reads a stat back out of a point result (roll-up assembly and the
/// adaptive runner's objective extraction).
pub(crate) fn stat_of(result: &ExperimentResult, label: &str) -> Option<f64> {
    result
        .stats
        .iter()
        .find(|s| s.label == label)
        .map(|s| s.value)
}

/// The only stats a roll-up reads from a point, in series order.
pub(crate) const ROLLUP_STAT_LABELS: [&str; 4] = [
    "optimal n",
    "peak speedup",
    "time at optimum s",
    "cheapest cost",
];

/// The slice of a point result the roll-up needs. Streaming sweeps keep
/// one of these per point (a few dozen bytes) instead of the full result
/// (curves over every `n`), which is what lets a 10⁶-point sweep build
/// the same roll-up as the in-memory path without holding 10⁶ curves.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct PointSummary {
    /// The point's result id (grid id, or the exhibit's own id).
    pub id: String,
    /// The grid point's axis label, `None` when it has no assignments.
    pub label: Option<String>,
    /// The point's values for [`ROLLUP_STAT_LABELS`] (absent stats
    /// omitted).
    pub stats: Vec<(&'static str, f64)>,
}

impl PointSummary {
    fn stat(&self, label: &str) -> Option<f64> {
        self.stats
            .iter()
            .find(|(l, _)| *l == label)
            .map(|&(_, v)| v)
    }
}

/// Distils one evaluated point down to what [`build_rollup_from`] reads.
pub(crate) fn summarize_point(point: &GridPoint, result: &ExperimentResult) -> PointSummary {
    PointSummary {
        id: result.id.clone(),
        label: (!point.assignments.is_empty()).then(|| point.label()),
        stats: ROLLUP_STAT_LABELS
            .iter()
            .filter_map(|&label| stat_of(result, label).map(|v| (label, v)))
            .collect(),
    }
}

/// The roll-up report: per-point optima as series over the point index
/// (1-based), the best point, and one note per point mapping its id to
/// its axis assignments.
pub(crate) fn build_rollup(
    spec: &ScenarioSpec,
    grid: &[GridPoint],
    points: &[ExperimentResult],
) -> ExperimentResult {
    let summaries: Vec<PointSummary> = grid
        .iter()
        .zip(points)
        .map(|(g, p)| summarize_point(g, p))
        .collect();
    build_rollup_from(spec, &summaries)
}

/// [`build_rollup`] from point summaries instead of full results — the
/// one implementation behind both the per-point-file and sharded store
/// paths, so their roll-ups are byte-identical by construction.
pub(crate) fn build_rollup_from(
    spec: &ScenarioSpec,
    summaries: &[PointSummary],
) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        format!("{}-rollup", spec.name),
        format!("{} — sweep roll-up", spec.display_title()),
    )
    .with_stat("grid points", summaries.len() as f64, None);
    for (i, axis) in spec.sweep.iter().enumerate() {
        result = result.with_note(format!(
            "axis {}: {} ({} values)",
            i,
            axis.param,
            axis.values.len()
        ));
    }
    let series_of = |label: &str| -> Option<Series> {
        let pts: Vec<(usize, f64)> = summaries
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.stat(label).map(|v| (i + 1, v)))
            .collect();
        (pts.len() == summaries.len()).then(|| Series::new(format!("{label} per point"), pts))
    };
    let mut best: Option<(usize, f64)> = None;
    for label in ROLLUP_STAT_LABELS {
        if let Some(s) = series_of(label) {
            if label == "peak speedup" {
                best = s.argmax();
            }
            result = result.with_series(s);
        }
    }
    if let Some((point, speedup)) = best {
        let summary = &summaries[point - 1];
        result = result
            .with_stat("best point", point as f64, None)
            .with_stat("best peak speedup", speedup, None)
            .with_stat(
                "best point optimal n",
                summary.stat("optimal n").unwrap_or(f64::NAN),
                None,
            )
            .with_note(format!(
                "best point: {} ({})",
                summary.id,
                summary.label.as_deref().unwrap_or("no axes")
            ));
    }
    for summary in summaries {
        result = result.with_note(format!(
            "{}: {}",
            summary.id,
            summary.label.as_deref().unwrap_or("single configuration")
        ));
    }
    result
}

/// The machine-readable sweep summary the CLI prints as one
/// `summary {json}` stdout line — scripts and CI parse this instead of
/// the human prose around it.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSummary {
    /// Scenario name.
    pub name: String,
    /// `"per-point"`, `"sharded"` or `"adaptive"`.
    pub mode: &'static str,
    /// Full grid size.
    pub grid_points: usize,
    /// Points with results this run (evaluated + restored). Equals
    /// `grid_points` except in adaptive mode.
    pub evaluated: usize,
    /// Points restored from the journal instead of evaluated.
    pub resumed: usize,
    /// Result files written or reused (shards or per-point files, plus
    /// the roll-up).
    pub files: usize,
    /// Shard count (sharded mode only, else 0).
    pub shards: usize,
    /// The `(cost, time)` Pareto frontier (adaptive mode only).
    pub frontier: Vec<(f64, f64)>,
}

impl SweepSummary {
    /// One-line compact JSON. Mode-specific fields (`shards`,
    /// `frontier`) appear only in their mode, so parsers can key off
    /// presence.
    pub fn to_json(&self) -> Result<String, SpecError> {
        let mut fields = vec![
            ("name".to_string(), Value::Str(self.name.clone())),
            ("mode".to_string(), Value::Str(self.mode.to_string())),
            (
                "grid_points".to_string(),
                Value::U64(self.grid_points as u64),
            ),
            ("evaluated".to_string(), Value::U64(self.evaluated as u64)),
            ("resumed".to_string(), Value::U64(self.resumed as u64)),
            ("files".to_string(), Value::U64(self.files as u64)),
        ];
        if self.mode == "sharded" {
            fields.push(("shards".to_string(), Value::U64(self.shards as u64)));
        }
        if self.mode == "adaptive" {
            fields.push((
                "frontier".to_string(),
                Value::Seq(
                    self.frontier
                        .iter()
                        .map(|&(cost, time)| Value::Seq(vec![Value::F64(cost), Value::F64(time)]))
                        .collect(),
                ),
            ));
        }
        serde_json::to_string(&Value::Map(fields))
            .map_err(|e| SpecError::new("summary", format!("cannot render summary JSON: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_json(json: &str) -> SweepOutcome {
        let spec = ScenarioSpec::from_json(json).expect("spec parses");
        run(&spec).expect("sweep runs")
    }

    #[test]
    fn one_point_grid_matches_direct_model_bit_for_bit() {
        let outcome = run_json(
            r#"{"name": "single",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 13}}"#,
        );
        assert_eq!(outcome.points.len(), 1);
        let point = &outcome.points[0];
        assert_eq!(point.id, "single-p000");
        // Bit-identical to the paper's Fig 2 model evaluated directly.
        let direct = mlscale_workloads::experiments::figures::fig2_model().strong_curve(1..=13);
        let times = point.series("time s").expect("time series");
        for (&(n, t), (dn, dt)) in times.points.iter().zip(
            direct
                .ns()
                .iter()
                .zip(direct.times())
                .map(|(&n, t)| (n, t.as_secs())),
        ) {
            assert_eq!(n, dn);
            assert_eq!(t, dt, "time at n={n} must be bit-identical");
        }
        assert_eq!(stat_of(point, "optimal n"), Some(9.0));
    }

    #[test]
    fn grid_results_follow_expansion_order() {
        let outcome = run_json(
            r#"{"name": "g",
                "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
                             "batch": 60000, "flops": 84.48e9, "max_n": 8},
                "sweep": [{"param": "comm", "values": ["tree", "ring"]},
                          {"param": "latency", "values": [0.0, 1e-4, 1e-3]}]}"#,
        );
        assert_eq!(outcome.points.len(), 6);
        assert_eq!(outcome.points[0].id, "g-p000");
        assert_eq!(outcome.points[5].id, "g-p005");
        assert_eq!(stat_of(&outcome.rollup, "grid points"), Some(6.0));
        // Latency only hurts: at fixed comm, peak speedup is non-increasing
        // along the latency axis.
        let s = |i: usize| stat_of(&outcome.points[i], "peak speedup").unwrap();
        assert!(
            s(0) >= s(1) && s(1) >= s(2),
            "tree: {} {} {}",
            s(0),
            s(1),
            s(2)
        );
        assert!(
            s(3) >= s(4) && s(4) >= s(5),
            "ring: {} {} {}",
            s(3),
            s(4),
            s(5)
        );
    }

    #[test]
    fn shared_cache_matches_isolated_evaluation() {
        // A straggler grid served by the shared cache must equal each
        // point evaluated in isolation, bit for bit.
        let json = r#"{"name": "s",
            "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
                         "batch": 60000, "flops": 84.48e9, "max_n": 10,
                         "straggler": {"kind": "exp", "mean": 4.0}},
            "sweep": [{"param": "comm", "values": ["tree", "ring", "spark"]},
                      {"param": "backup_k", "values": [0, 2]}]}"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let outcome = run(&spec).unwrap();
        for (point, result) in spec.expand().unwrap().iter().zip(&outcome.points) {
            let ResolvedWorkload::Gd(gd) = spec.resolve(point).unwrap() else {
                unreachable!()
            };
            let isolated = gd.build().unwrap().strong_curve(1..=gd.max_n);
            let times = result.series("time s").unwrap();
            for (&(n, t), expected) in times.points.iter().zip(isolated.times()) {
                assert_eq!(t, expected.as_secs(), "point {} n={n}", result.id);
            }
        }
    }

    #[test]
    fn plan_spec_reports_provisioning_stats() {
        let outcome = run_json(
            r#"{"name": "p",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 16,
                             "plan": {"iterations": 1000, "price": 2.0, "deadline": 1e6}}}"#,
        );
        let point = &outcome.points[0];
        assert!(stat_of(point, "fastest n").is_some());
        assert!(stat_of(point, "cheapest cost").is_some());
        assert!(stat_of(point, "cheapest n within deadline").is_some());
        // Rollup picks the cheapest-cost series up when present.
        assert!(outcome.rollup.series("cheapest cost per point").is_some());
    }

    #[test]
    fn bp_point_evaluates() {
        let outcome = run_json(
            r#"{"name": "b",
                "workload": {"kind": "bp", "vertices": 16259, "edges": 99785,
                             "max_degree": 1100, "max_n": 8}}"#,
        );
        let point = &outcome.points[0];
        assert!(stat_of(point, "optimal n").unwrap() >= 1.0);
        assert!(stat_of(point, "zipf gamma").is_some());
    }

    #[test]
    fn weak_scaling_grid_runs() {
        let outcome = run_json(
            r#"{"name": "w",
                "workload": {"kind": "gd", "preset": "fig3", "weak": true, "max_n": 16,
                             "straggler": {"kind": "jitter", "spread": 0.1}}}"#,
        );
        assert!(stat_of(&outcome.points[0], "peak speedup").unwrap() > 1.0);
    }

    #[test]
    fn exhibit_scenario_reproduces_fig1() {
        let outcome =
            run_json(r#"{"name": "fig1", "workload": {"kind": "exhibit", "id": "fig1"}}"#);
        assert_eq!(outcome.points.len(), 1);
        let direct = fig1();
        assert_eq!(
            outcome.points[0], direct,
            "must equal the exhibit function output"
        );
        assert_eq!(outcome.rollup.id, "fig1-rollup");
    }

    #[test]
    fn write_outcome_is_atomic_and_complete() {
        let outcome = run_json(
            r#"{"name": "wr",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0, 1.0]}]}"#,
        );
        let dir = std::env::temp_dir().join(format!("mlscale-sweep-test-{}", std::process::id()));
        let paths = write_outcome(&outcome, &dir).expect("write");
        assert_eq!(paths.len(), 3, "two points + rollup");
        for path in &paths {
            let json = std::fs::read_to_string(path).unwrap();
            let back: ExperimentResult = serde_json::from_str(&json).unwrap();
            assert!(!back.id.is_empty());
            assert!(!path.with_extension("json.tmp").exists());
        }
        assert!(paths[2].ends_with("wr-rollup.json"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rerun_with_shrunk_grid_clears_stale_points() {
        // 24-point sweep, then a 4-point re-run of the same scenario name
        // into the same directory: the 20 stale point files (and an
        // orphaned temp file) must be gone, unrelated files untouched.
        let wide = run_json(
            r#"{"name": "shrink",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0, 0.1, 0.2, 0.4, 0.8, 1.6]},
                          {"param": "comm", "values": ["tree", "ring", "spark", "halving"]}]}"#,
        );
        assert_eq!(wide.points.len(), 24);
        let dir = std::env::temp_dir().join(format!("mlscale-sweep-shrink-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        write_outcome(&wide, &dir).expect("wide write");
        std::fs::write(dir.join("shrink-p099.json.tmp"), b"{").unwrap();
        std::fs::write(dir.join("unrelated-p000.json"), b"{}").unwrap();
        std::fs::write(dir.join("notes.txt"), b"keep me").unwrap();

        let narrow = run_json(
            r#"{"name": "shrink",
                "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "comm", "values": ["tree", "ring", "spark", "halving"]}]}"#,
        );
        assert_eq!(narrow.points.len(), 4);
        let paths = write_outcome(&narrow, &dir).expect("narrow write");
        assert_eq!(paths.len(), 5);

        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "notes.txt",
                "shrink-p000.json",
                "shrink-p001.json",
                "shrink-p002.json",
                "shrink-p003.json",
                "shrink-rollup.json",
                "unrelated-p000.json",
            ],
            "stale shrink-p004..p023 and the orphaned temp must be removed"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn pooled_run_is_bit_identical_to_fresh_run() {
        let json = r#"{"name": "pool",
            "workload": {"kind": "gd", "preset": "fig2", "max_n": 10,
                         "straggler": {"kind": "exp", "mean": 2.0}},
            "sweep": [{"param": "backup_k", "values": [0, 1, 2]}]}"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let fresh = run(&spec).unwrap();
        let pool = OrderStatCachePool::new();
        // Two pooled runs: the second reuses the warmed caches.
        let first = run_pooled(&spec, &pool).unwrap();
        let second = run_pooled(&spec, &pool).unwrap();
        assert_eq!(pool.len(), 1, "one distinct delay model");
        assert_eq!(fresh, first);
        assert_eq!(fresh, second);

        // A lognormal plan block, dense and on a log ladder: the planner
        // reads the cache a wider spec already filled through the same
        // pool, and its answers match a fresh run.
        let lognormal = |max_n: usize, log_points: &str| {
            ScenarioSpec::from_json(&format!(
                r#"{{"name": "pool-plan",
                    "workload": {{"kind": "gd", "preset": "fig2", "max_n": {max_n}{log_points},
                                 "straggler": {{"kind": "lognormal", "mu": -2, "sigma": 0.8}},
                                 "plan": {{"iterations": 1000, "price": 2, "deadline": 7200}}}},
                    "sweep": [{{"param": "backup_k", "values": [0, 2]}}]}}"#
            ))
            .unwrap()
        };
        for log_points in ["", r#", "log_points": 6"#] {
            let spec = lognormal(12, log_points);
            let fresh = run(&spec).unwrap();
            let pool = OrderStatCachePool::new();
            run_pooled(&lognormal(40, log_points), &pool).unwrap();
            assert_eq!(fresh, run_pooled(&spec, &pool).unwrap(), "{log_points:?}");
            assert_eq!(pool.len(), 1);
        }
    }
}
