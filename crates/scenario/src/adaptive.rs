//! Adaptive sweeps: refine the grid around the Pareto frontier instead
//! of evaluating every point.
//!
//! The paper's provisioning question — which configurations are worth
//! buying? — is answered by the Pareto frontier of (cost, expected
//! time), and on a large grid almost every point is nowhere near it.
//! [`run_adaptive`] evaluates a coarse, evenly-spaced sub-grid first,
//! computes the frontier of what it has seen, and then repeatedly
//! proposes the axis-wise neighbours of frontier points at a per-axis
//! stride that starts at the coarse spacing and halves whenever a round
//! proposes nothing new (the ladder-then-refine shape of
//! [`Planner::new_log`](mlscale_core::planner::Planner::new_log), lifted
//! from one axis to the whole grid). The loop ends when the stride is 1
//! and the frontier's whole unit neighbourhood has been evaluated, so
//! every frontier point of the *evaluated* set is a local optimum of the
//! full grid along each axis.
//!
//! Every point is evaluated by exactly the engine the exhaustive path
//! uses ([`eval_points`](crate::run::eval_points)), so an adaptive
//! sweep's per-point results are bit-identical to the same points of an
//! exhaustive sweep — the property tests compare the two frontiers'
//! (cost, time) values on whole small grids. No randomness anywhere:
//! batches are sorted index sets, so the evaluation trace is
//! deterministic.
//!
//! Objectives per point: time is the `time at optimum s` stat; cost is
//! `cheapest cost` when the spec carries a provisioning plan, otherwise
//! the `optimal n × time` proxy (node-seconds at the optimum — what an
//! hourly price would multiply).

use crate::run::{build_rollup, eval_all, stat_of};
use crate::spec::{point_id_width, GridPoint, ScenarioSpec, SpecError, WorkloadSpec};
use mlscale_core::planner::pareto_frontier;
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_workloads::ExperimentResult;
use std::collections::{BTreeMap, BTreeSet};

/// One point of the adaptive frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierPoint {
    /// The grid point's result id.
    pub id: String,
    /// Cost objective (`cheapest cost`, or the `optimal n × time` proxy).
    pub cost: f64,
    /// Expected time objective (`time at optimum s`).
    pub time: f64,
}

/// What an adaptive sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSweep {
    /// The evaluated subset as a normal sweep outcome (points in grid
    /// order, roll-up over the evaluated subset) — [`write_outcome`]
    /// (crate::write_outcome) accepts it unchanged.
    pub outcome: crate::run::SweepOutcome,
    /// Full grid size (of which only `outcome.points.len()` were
    /// evaluated).
    pub grid_points: usize,
    /// The Pareto frontier of the evaluated set, in grid order.
    pub frontier: Vec<FrontierPoint>,
}

/// Runs an adaptive sweep with a fresh order-statistic cache pool.
pub fn run_adaptive(spec: &ScenarioSpec) -> Result<AdaptiveSweep, SpecError> {
    run_adaptive_pooled(spec, &OrderStatCachePool::new())
}

/// [`run_adaptive`] with a caller-owned cache pool (the serve daemon's).
pub fn run_adaptive_pooled(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
) -> Result<AdaptiveSweep, SpecError> {
    if matches!(spec.workload, WorkloadSpec::Exhibit(_)) {
        return Err(SpecError::new(
            "adaptive",
            "exhibit scenarios reproduce fixed figures — there is no grid to refine",
        ));
    }
    if spec.sweep.is_empty() {
        return Err(SpecError::new(
            "adaptive",
            "adaptive refinement needs a non-empty sweep (there is no grid to refine)",
        ));
    }
    let total = spec.grid_len()?;
    let width = point_id_width(total);
    let lens: Vec<usize> = spec.sweep.iter().map(|a| a.values.len()).collect();

    // Grid index -> (point, result, (cost, time)), ordered by index.
    let mut evaluated: BTreeMap<usize, (GridPoint, ExperimentResult, (f64, f64))> = BTreeMap::new();

    // Round 0: the coarse sub-grid. Short axes are taken whole (their
    // refinement would cost more than just evaluating them); long axes
    // get ~√len evenly spaced picks, so a d-axis grid opens with
    // ~√(total) evaluations.
    let coarse: Vec<Vec<usize>> = lens.iter().map(|&len| coarse_picks(len)).collect();
    let mut steps: Vec<usize> = coarse
        .iter()
        .zip(&lens)
        .map(|(picks, &len)| initial_step(picks, len))
        .collect();
    let mut batch = cartesian(&coarse, &lens);

    loop {
        batch.retain(|index| !evaluated.contains_key(index));
        if !batch.is_empty() {
            eval_batch(spec, pool, width, &batch, &mut evaluated)?;
        }
        // The frontier of everything seen so far, then its axis-wise
        // neighbours at the current strides.
        let keys: Vec<usize> = evaluated.keys().copied().collect();
        let objectives: Vec<(f64, f64)> = keys.iter().map(|k| evaluated[k].2).collect();
        let frontier: Vec<usize> = pareto_frontier(&objectives)
            .into_iter()
            .map(|i| keys[i])
            .collect();
        let mut proposals: BTreeSet<usize> = BTreeSet::new();
        for &index in &frontier {
            let coords = coords_of(index, &lens);
            for (axis, &len) in lens.iter().enumerate() {
                for direction in [-1i64, 1] {
                    let c = coords[axis] as i64 + steps[axis] as i64 * direction;
                    if c < 0 || c as usize >= len {
                        continue;
                    }
                    let mut next = coords.clone();
                    next[axis] = c as usize;
                    let next_index = index_of(&next, &lens);
                    if !evaluated.contains_key(&next_index) {
                        proposals.insert(next_index);
                    }
                }
            }
        }
        if proposals.is_empty() {
            if steps.iter().all(|&s| s <= 1) {
                break;
            }
            for s in &mut steps {
                *s = (*s / 2).max(1);
            }
            continue;
        }
        batch = proposals.into_iter().collect();
    }

    // Assemble in grid order. The roll-up is the standard one over the
    // evaluated subset, annotated with what adaptive mode skipped.
    let keys: Vec<usize> = evaluated.keys().copied().collect();
    let objectives: Vec<(f64, f64)> = keys.iter().map(|k| evaluated[k].2).collect();
    let frontier: Vec<FrontierPoint> = pareto_frontier(&objectives)
        .into_iter()
        .map(|i| FrontierPoint {
            id: evaluated[&keys[i]].0.id.clone(),
            cost: objectives[i].0,
            time: objectives[i].1,
        })
        .collect();
    let mut grid = Vec::with_capacity(evaluated.len());
    let mut points = Vec::with_capacity(evaluated.len());
    for (_, (point, result, _)) in evaluated {
        grid.push(point);
        points.push(result);
    }
    let mut rollup = build_rollup(spec, &grid, &points)
        .with_stat("full grid points", total as f64, None)
        .with_stat("evaluated points", points.len() as f64, None)
        .with_stat("frontier points", frontier.len() as f64, None)
        .with_note(format!(
            "adaptive sweep: evaluated {} of {} grid points around the (cost, time) Pareto frontier",
            points.len(),
            total
        ));
    for fp in &frontier {
        rollup = rollup.with_note(format!(
            "frontier: {} (cost {}, time {} s)",
            fp.id, fp.cost, fp.time
        ));
    }
    Ok(AdaptiveSweep {
        outcome: crate::run::SweepOutcome {
            name: spec.name.clone(),
            grid,
            points,
            rollup,
        },
        grid_points: total,
        frontier,
    })
}

/// The (cost, time) objectives of one evaluated point.
pub(crate) fn objectives_of(result: &ExperimentResult) -> Option<(f64, f64)> {
    let time = stat_of(result, "time at optimum s")?;
    let cost = match stat_of(result, "cheapest cost") {
        Some(cost) => cost,
        None => stat_of(result, "optimal n")? * time,
    };
    Some((cost, time))
}

/// Coarse per-axis index picks: whole axes up to 6 values, ~√len evenly
/// spaced picks (always including both ends) beyond.
fn coarse_picks(len: usize) -> Vec<usize> {
    if len <= 6 {
        return (0..len).collect();
    }
    let k = (len as f64).sqrt().ceil().max(3.0) as usize;
    let mut picks: Vec<usize> = (0..k)
        .map(|j| (j as f64 * (len - 1) as f64 / (k - 1) as f64).round() as usize)
        .collect();
    picks.dedup();
    picks
}

/// The refinement loop's opening stride for one axis: the widest gap the
/// coarse picks left uncovered (1 on fully-covered axes).
fn initial_step(picks: &[usize], len: usize) -> usize {
    let max_gap = picks.windows(2).map(|w| w[1] - w[0]).max().unwrap_or(len);
    max_gap.max(1)
}

/// Grid index -> per-axis value indices (odometer order, last axis
/// fastest — the inverse of [`index_of`], matching
/// [`ScenarioSpec::point_at`]).
fn coords_of(index: usize, lens: &[usize]) -> Vec<usize> {
    let mut rem = index;
    let mut coords = vec![0; lens.len()];
    for (axis, &len) in lens.iter().enumerate().rev() {
        coords[axis] = rem % len;
        rem /= len;
    }
    coords
}

/// Per-axis value indices -> grid index.
fn index_of(coords: &[usize], lens: &[usize]) -> usize {
    coords
        .iter()
        .zip(lens)
        .fold(0, |acc, (&c, &len)| acc * len + c)
}

/// The cross product of the coarse picks, as sorted grid indices.
fn cartesian(coarse: &[Vec<usize>], lens: &[usize]) -> Vec<usize> {
    let mut out = Vec::new();
    let mut coords = vec![0usize; coarse.len()];
    build_product(coarse, lens, 0, &mut coords, &mut out);
    out.sort_unstable();
    out
}

fn build_product(
    coarse: &[Vec<usize>],
    lens: &[usize],
    axis: usize,
    coords: &mut Vec<usize>,
    out: &mut Vec<usize>,
) {
    if axis == coarse.len() {
        out.push(index_of(coords, lens));
        return;
    }
    for &pick in &coarse[axis] {
        coords[axis] = pick;
        build_product(coarse, lens, axis + 1, coords, out);
    }
}

/// Evaluates a sorted batch of grid indices through the exhaustive
/// engine's evaluator — bit-identical to the same points of a full
/// sweep.
fn eval_batch(
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
    width: usize,
    batch: &[usize],
    evaluated: &mut BTreeMap<usize, (GridPoint, ExperimentResult, (f64, f64))>,
) -> Result<(), SpecError> {
    let points: Vec<GridPoint> = batch.iter().map(|&i| spec.point_at(i, width)).collect();
    let results = eval_all(spec, pool, &points)?;
    for ((index, point), result) in batch.iter().zip(points).zip(results) {
        let objectives = objectives_of(&result).ok_or_else(|| {
            SpecError::new(
                format!("grid point {}", result.id),
                "no (cost, time) objectives in the result — internal engine bug",
            )
        })?;
        evaluated.insert(*index, (point, result, objectives));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::run;

    #[test]
    fn coords_roundtrip_matches_point_at_order() {
        let lens = [2usize, 3, 4];
        for index in 0..24 {
            let coords = coords_of(index, &lens);
            assert_eq!(index_of(&coords, &lens), index);
        }
        // Last axis fastest: index 1 bumps the last coordinate.
        assert_eq!(coords_of(1, &lens), vec![0, 0, 1]);
        assert_eq!(coords_of(4, &lens), vec![0, 1, 0]);
    }

    #[test]
    fn coarse_picks_cover_short_axes_and_bracket_long_ones() {
        assert_eq!(coarse_picks(4), vec![0, 1, 2, 3]);
        let picks = coarse_picks(100);
        assert_eq!(picks.first(), Some(&0));
        assert_eq!(picks.last(), Some(&99));
        assert!(picks.len() <= 12, "~sqrt(100) picks, got {picks:?}");
        assert!(picks.windows(2).all(|w| w[0] < w[1]), "sorted: {picks:?}");
    }

    #[test]
    fn adaptive_agrees_with_exhaustive_on_a_small_grid_and_evaluates_less() {
        // 16×11 = 176 points, one smooth numeric axis each way: adaptive
        // must find exactly the exhaustive frontier from a fraction of
        // the evaluations.
        let json = r#"{"name": "af",
            "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
                         "batch": 60000, "flops": 84.48e9, "max_n": 24,
                         "plan": {"iterations": 500, "price": 2.0}},
            "sweep": [{"param": "latency", "range": {"from": 0.0, "to": 7.5e-4, "step": 5e-5}},
                      {"param": "bandwidth", "range": {"from": 1e9, "to": 11e9, "step": 1e9}}]}"#;
        let spec = ScenarioSpec::from_json(json).unwrap();
        let exhaustive = run(&spec).unwrap();
        assert_eq!(exhaustive.points.len(), 176);
        let objectives: Vec<(f64, f64)> = exhaustive
            .points
            .iter()
            .map(|p| objectives_of(p).unwrap())
            .collect();
        let mut expected: Vec<(f64, f64)> = pareto_frontier(&objectives)
            .into_iter()
            .map(|i| objectives[i])
            .collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

        let adaptive = run_adaptive(&spec).unwrap();
        let mut got: Vec<(f64, f64)> = adaptive.frontier.iter().map(|f| (f.cost, f.time)).collect();
        got.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        assert_eq!(got, expected, "frontier values must agree exactly");
        assert!(
            adaptive.outcome.points.len() < exhaustive.points.len(),
            "adaptive evaluated {} of {} — no saving",
            adaptive.outcome.points.len(),
            exhaustive.points.len()
        );
        // Evaluated points are bit-identical to the exhaustive run's.
        for (point, result) in adaptive.outcome.grid.iter().zip(&adaptive.outcome.points) {
            assert_eq!(&exhaustive.points[point.index], result, "{}", point.id);
        }
        assert_eq!(adaptive.grid_points, 176);
    }

    #[test]
    fn adaptive_refuses_specs_with_nothing_to_refine() {
        let flat = ScenarioSpec::from_json(
            r#"{"name": "flat", "workload": {"kind": "gd", "preset": "fig2", "max_n": 8}}"#,
        )
        .unwrap();
        let err = run_adaptive(&flat).expect_err("no sweep");
        assert_eq!(err.path, "adaptive");
        assert!(err.message.contains("non-empty sweep"), "{}", err.message);

        let exhibit = ScenarioSpec::from_json(
            r#"{"name": "ex", "workload": {"kind": "exhibit", "id": "fig1"}}"#,
        )
        .unwrap();
        let err = run_adaptive(&exhibit).expect_err("exhibits are fixed");
        assert_eq!(err.path, "adaptive");
        assert!(err.message.contains("no grid to refine"), "{}", err.message);
    }
}
