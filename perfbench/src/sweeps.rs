//! The sweep workloads, run through the entry points `mlscale sweep`
//! calls.
//!
//! * `sweep-grid` — the checked-in 10⁴-point frontier grid, made
//!   exhaustive, through `run_sharded`: spec parse, grid decode, JSON
//!   render and shard I/O do the work; no order statistics, no planner.
//! * `sweep-straggler` — two lognormal-tail documents with a provisioning
//!   plan through `run_checkpointed` (the per-point journal): order
//!   statistics, curves and the planner do the work; render and I/O are
//!   small.
//!
//! An operation is a fresh sweep (a miss: every point evaluated) or a
//! resume of that finished sweep (a hit: every point restored from the
//! journal, nothing evaluated), as `mlscale sweep --resume` does.

use crate::measure::{digest, median, peak_rss_mb, quantile, Trace};
use crate::{Ctx, Report};
use mlscale_core::planner::Pricing;
use mlscale_core::speedup::log_spaced_ns;
use mlscale_core::straggler::{OrderStatCache, OrderStatCachePool, StragglerGdModel};
use mlscale_core::units::Seconds;
use mlscale_core::{par, SpeedupCurve};
use mlscale_scenario::spec::point_id_width;
use mlscale_scenario::{
    run_checkpointed, run_sharded, GdSpec, ResolvedWorkload, ScenarioSpec, ShardedStore,
    SweepOutcome, DEFAULT_PER_POINT_MAX,
};
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Which sweep workload.
#[derive(Clone, Copy, PartialEq)]
pub enum Which {
    Grid,
    Straggler,
}

impl Which {
    /// Resumes timed after each fresh sweep. A `sweep-grid` resume
    /// re-verifies 14 MB of shards and takes longer than the sweep; a
    /// `sweep-straggler` resume reads 38 small files in about 1/30 of the
    /// sweep's time, so it is repeated for a steady median.
    fn resumes(self) -> usize {
        match self {
            Which::Grid => 1,
            Which::Straggler => 5,
        }
    }
}

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 7;

const GRID_SCENARIO: &str = "scenarios/adaptive-frontier-grid.json";
const GRID_POINTS: usize = 10_000;
const GRID_SHARDS: usize = 5;

/// (a): 32 dense points (max_n 256) through the per-point journal.
const STRAGGLER_DENSE: &str = r#"{"name": "straggler-dense",
  "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6, "batch": 60000,
               "bits": 64, "flops": 84.48e9, "max_n": 256,
               "straggler": {"kind": "lognormal", "mu": -2, "sigma": 0.8},
               "plan": {"iterations": 1000, "price": 2, "deadline": 7200}},
  "sweep": [{"param": "comm", "values": ["spark", "tree", "ring", "halving"]},
            {"param": "backup_k", "values": [0, 1, 2, 4]},
            {"param": "latency", "values": [0, 1e-4]}]}"#;

/// (b): 4 points at 10⁶ workers on a 200-rung log ladder — the
/// asymptotic lognormal order-statistic path.
const STRAGGLER_LOG: &str = r#"{"name": "straggler-log",
  "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6, "batch": 60000,
               "bits": 64, "flops": 84.48e9, "max_n": 1000000, "log_points": 200,
               "straggler": {"kind": "lognormal", "mu": -2, "sigma": 0.8},
               "plan": {"iterations": 1000, "price": 2, "deadline": 7200}},
  "sweep": [{"param": "comm", "values": ["spark", "ring"]},
            {"param": "backup_k", "values": [0, 2]}]}"#;

/// One input document and the store layout its sweep uses.
struct Doc {
    text: String,
    spec: ScenarioSpec,
    sharded: bool,
    points: usize,
}

fn load(which: Which) -> Result<Vec<Doc>, String> {
    let parse = |text: String, sharded: bool| -> Result<Doc, String> {
        let mut spec = ScenarioSpec::from_json(&text).map_err(|e| e.to_string())?;
        spec.adaptive = false;
        let points = spec.grid_len().map_err(|e| e.to_string())?;
        Ok(Doc {
            text,
            spec,
            sharded,
            points,
        })
    };
    match which {
        Which::Grid => {
            let text = std::fs::read_to_string(GRID_SCENARIO)
                .map_err(|e| format!("cannot read {GRID_SCENARIO}: {e}"))?;
            let doc = parse(text, true)?;
            if doc.points != GRID_POINTS {
                return Err(format!(
                    "{GRID_SCENARIO} expands to {} points, expected {GRID_POINTS}",
                    doc.points
                ));
            }
            Ok(vec![doc])
        }
        Which::Straggler => Ok(vec![
            parse(STRAGGLER_DENSE.to_string(), false)?,
            parse(STRAGGLER_LOG.to_string(), false)?,
        ]),
    }
}

/// One document's fresh sweep and its resumes.
struct Swept {
    fresh_s: f64,
    /// Each resume's wall time, and whether it restored every point and
    /// the same results.
    resumes: Vec<(f64, bool)>,
    fresh_ok: bool,
    /// Digest of the roll-up file after the resumes.
    rollup_hash: u64,
    /// The per-point results (per-point layout only), for the traced replay.
    outcome: Option<SweepOutcome>,
}

fn sweep(doc: &Doc, dir: &Path, resumes: usize) -> Result<Swept, String> {
    let err = |e: mlscale_scenario::SpecError| e.to_string();
    let mut timed = Vec::new();
    let started = Instant::now();
    if doc.sharded {
        let fresh = run_sharded(&doc.spec, dir, false, DEFAULT_PER_POINT_MAX).map_err(err)?;
        let fresh_s = started.elapsed().as_secs_f64();
        for _ in 0..resumes {
            let started = Instant::now();
            let resumed = run_sharded(&doc.spec, dir, true, DEFAULT_PER_POINT_MAX).map_err(err)?;
            let ok = resumed.resumed == doc.points && resumed.rollup == fresh.rollup;
            timed.push((started.elapsed().as_secs_f64(), ok));
        }
        let mut records = 0;
        for shard in &fresh.paths[..fresh.shards] {
            let text = std::fs::read(shard).map_err(|e| e.to_string())?;
            records += text.iter().filter(|&&b| b == b'\n').count();
        }
        Ok(Swept {
            fresh_s,
            resumes: timed,
            fresh_ok: fresh.shards == GRID_SHARDS
                && fresh.grid_points == doc.points
                && records == doc.points,
            rollup_hash: rollup_digest(&fresh.paths)?,
            outcome: None,
        })
    } else {
        let fresh = run_checkpointed(&doc.spec, dir, false).map_err(err)?;
        let fresh_s = started.elapsed().as_secs_f64();
        for _ in 0..resumes {
            let started = Instant::now();
            let resumed = run_checkpointed(&doc.spec, dir, true).map_err(err)?;
            let ok = resumed.resumed == doc.points && resumed.outcome == fresh.outcome;
            timed.push((started.elapsed().as_secs_f64(), ok));
        }
        Ok(Swept {
            fresh_s,
            resumes: timed,
            fresh_ok: fresh.outcome.points.len() == doc.points
                && fresh.paths.len() == doc.points + 1,
            rollup_hash: rollup_digest(&fresh.paths)?,
            outcome: Some(fresh.outcome),
        })
    }
}

/// Digest of a sweep's roll-up file, which both layouts write last.
fn rollup_digest(paths: &[PathBuf]) -> Result<u64, String> {
    let rollup = paths.last().ok_or("sweep reported no roll-up path")?;
    std::fs::read(rollup)
        .map(|bytes| digest(&bytes))
        .map_err(|e| e.to_string())
}

/// One iteration: every document swept fresh and resumed, each in a
/// fresh directory that is removed afterwards.
fn iteration(ctx: &Ctx, docs: &[Doc], resumes: usize) -> Result<Vec<Swept>, String> {
    docs.iter()
        .map(|doc| {
            let dir = ctx.tmp.fresh_dir();
            let swept = sweep(doc, &dir, resumes);
            std::fs::remove_dir_all(&dir).ok();
            swept
        })
        .collect()
}

pub fn run(ctx: &Ctx, which: Which) -> Result<Report, String> {
    // Set-up: load and validate the documents, then one unmeasured
    // warm-up iteration.
    let mut setups = Vec::new();
    let mut docs = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        docs = load(which)?;
        iteration(ctx, &docs, which.resumes())?;
        setups.push(started.elapsed().as_secs_f64());
    }
    let points: usize = docs.iter().map(|d| d.points).sum();

    // The traced replay renders the engine's own results; the sharded
    // path does not return them, so they come from one in-memory run.
    let replay_results: Vec<Option<SweepOutcome>> = if ctx.traced {
        docs.iter()
            .map(|d| {
                d.sharded
                    .then(|| mlscale_scenario::run(&d.spec))
                    .transpose()
            })
            .collect::<Result<_, _>>()
            .map_err(|e| e.to_string())?
    } else {
        Vec::new()
    };

    let mut trace = Trace::default();
    let mut misses = Vec::new();
    let mut hits = Vec::new();
    // Roll-up digests per iteration, one per document.
    let mut rollups: Vec<Vec<u64>> = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < ctx.window || misses.is_empty() {
        let swept = iteration(ctx, &docs, which.resumes())?;
        // One fresh sweep of every document is one miss; their k-th
        // resumes together are one hit.
        attempted += 1 + which.resumes() as u64;
        failed += u64::from(swept.iter().any(|s| !s.fresh_ok));
        let miss: f64 = swept.iter().map(|s| s.fresh_s).sum();
        misses.push(miss);
        for k in 0..which.resumes() {
            hits.push(swept.iter().map(|s| s.resumes[k].0).sum());
            failed += u64::from(swept.iter().any(|s| !s.resumes[k].1));
        }
        rollups.push(swept.iter().map(|s| s.rollup_hash).collect());
        if ctx.traced {
            let mut traced_s = 0.0;
            for (k, doc) in docs.iter().enumerate() {
                let results = replay_results
                    .get(k)
                    .and_then(Option::as_ref)
                    .or(swept[k].outcome.as_ref())
                    .ok_or("no results to replay")?;
                let dir = ctx.tmp.fresh_dir();
                let replay_started = Instant::now();
                let replayed = replay(doc, results, &dir, &mut trace);
                traced_s += replay_started.elapsed().as_secs_f64();
                std::fs::remove_dir_all(&dir).ok();
                replayed?;
            }
            trace.ops(1.0, traced_s, miss);
        }
    }
    let peak_rss = peak_rss_mb();

    // Output check: every roll-up is byte-equal to the in-memory `run` of
    // the same spec, rendered as the sweep writes it.
    let expected: Vec<u64> = docs
        .iter()
        .map(|doc| {
            let outcome = mlscale_scenario::run(&doc.spec).map_err(|e| e.to_string())?;
            let rendered =
                serde_json::to_string_pretty(&outcome.rollup).map_err(|e| e.to_string())?;
            Ok(digest(rendered.as_bytes()))
        })
        .collect::<Result<_, String>>()?;
    failed += rollups.iter().filter(|seen| **seen != expected).count() as u64;

    let busy: f64 = misses.iter().chain(&hits).sum();
    Ok(Report {
        attempted,
        failed,
        end_to_end: vec![
            ("setup_s", median(&setups)),
            ("points_per_s", points as f64 / median(&misses)),
            ("requests_per_s", (misses.len() + hits.len()) as f64 / busy),
            ("hit_p50_ms", 1e3 * median(&hits)),
            ("miss_p50_ms", 1e3 * median(&misses)),
            ("miss_p99_ms", 1e3 * quantile(&misses, 0.99)),
            ("peak_rss_mb", peak_rss),
        ],
        notes: vec![
            format!("{} iterations of {points} points", misses.len()),
            format!(
                "samples: {} misses (fresh sweeps), {} hits (resumes)",
                misses.len(),
                hits.len()
            ),
        ],
        trace: ctx.traced.then_some(trace),
    })
}

/// The traced replay of one fresh sweep: the same stages the engine runs,
/// called one layer at a time from here so each can be timed — spec
/// parse, grid decode, order statistics, curves, the planner, render and
/// the store writes. Render and store use the engine's own results, so
/// their bytes are the real output's.
fn replay(doc: &Doc, results: &SweepOutcome, dir: &Path, trace: &mut Trace) -> Result<(), String> {
    let spec = trace
        .span("spec.parse.busy_s", || ScenarioSpec::from_json(&doc.text))
        .map_err(|e| e.to_string())?;
    trace.count("spec.parse.calls", 1.0);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    let journal = dir.join(format!("{}.manifest", spec.name));
    let total = doc.points;
    let width = point_id_width(total);
    let chunk = if doc.sharded {
        DEFAULT_PER_POINT_MAX
    } else {
        total
    };
    let pool = OrderStatCachePool::new();
    let mut store = ShardedStore::new(dir, &spec.name, chunk);
    for (k, lo) in (0..total).step_by(chunk).enumerate() {
        let hi = (lo + chunk).min(total);
        let gds = trace.span("spec.grid.busy_s", || {
            (lo..hi)
                .map(|slot| resolve_gd(&spec, &spec.point_at(slot, width)))
                .collect::<Result<Vec<GdSpec>, String>>()
        })?;
        trace.count("spec.grid.points", gds.len() as f64);
        eval_replay(&gds, &pool, trace)?;
        let slice = results
            .points
            .get(lo..hi)
            .ok_or("replay results too short")?;
        if doc.sharded {
            // `ShardedStore::buffer` is the record render; `write_shard`
            // the shard's publication.
            trace
                .span("report.render.busy_s", || {
                    slice
                        .iter()
                        .enumerate()
                        .try_for_each(|(slot, r)| store.buffer(slot, r))
                })
                .map_err(|e| e.to_string())?;
            let bytes = trace
                .span("store.write.busy_s", || {
                    let bytes = store.write_shard(k, hi - lo)?;
                    append(&journal, &format!("shard {k} {} {bytes}\n", hi - lo))?;
                    Ok::<u64, std::io::Error>(bytes)
                })
                .map_err(|e| e.to_string())?;
            trace.count("report.render.bytes", bytes as f64);
            trace.count("store.bytes", bytes as f64);
            trace.count("store.files", 1.0);
        } else {
            let rendered = trace
                .span("report.render.busy_s", || {
                    slice
                        .iter()
                        .map(serde_json::to_string_pretty)
                        .collect::<Result<Vec<String>, _>>()
                })
                .map_err(|e| e.to_string())?;
            let bytes: usize = rendered.iter().map(String::len).sum();
            trace
                .span("store.write.busy_s", || {
                    slice.iter().zip(&rendered).try_for_each(|(r, text)| {
                        write_atomic(dir, &r.id, text)?;
                        append(&journal, &format!("point {}\n", r.id))
                    })
                })
                .map_err(|e| e.to_string())?;
            trace.count("report.render.bytes", bytes as f64);
            trace.count("store.bytes", bytes as f64);
            trace.count("store.files", rendered.len() as f64);
        }
    }
    let rollup = trace
        .span("report.render.busy_s", || {
            serde_json::to_string_pretty(&results.rollup)
        })
        .map_err(|e| e.to_string())?;
    trace
        .span("store.write.busy_s", || {
            write_atomic(dir, &results.rollup.id, &rollup)
        })
        .map_err(|e| e.to_string())?;
    trace.count("report.render.bytes", rollup.len() as f64);
    trace.count("store.bytes", rollup.len() as f64);
    trace.count("store.files", 1.0);
    Ok(())
}

/// Resolves one grid point of a gd document.
pub fn resolve_gd(
    spec: &ScenarioSpec,
    point: &mlscale_scenario::GridPoint,
) -> Result<GdSpec, String> {
    match spec.resolve(point).map_err(|e| e.to_string())? {
        ResolvedWorkload::Gd(gd) => Ok(*gd),
        other => Err(format!("{} is not a gd point: {other:?}", point.id)),
    }
}

/// Evaluates gd points layer by layer, in the engine's order:
/// deterministic points first, their curves fanned out with `par::map`
/// so that, as in the engine, each curve runs inside one worker with its
/// nested maps serial (a curve called from this thread would spawn its
/// own workers per call); then stochastic points grouped by delay model,
/// each group's order statistics filled once into a shared cache before
/// its curves and plans are evaluated serially.
pub fn eval_replay(
    gds: &[GdSpec],
    pool: &OrderStatCachePool,
    trace: &mut Trace,
) -> Result<(), String> {
    let models: Vec<StragglerGdModel> = gds
        .iter()
        .map(|gd| gd.build().map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let deterministic: Vec<usize> = (0..gds.len())
        .filter(|&i| gds[i].straggler_model().is_zero())
        .collect();
    // A deterministic point's planner runs in its curve's worker, so its
    // time lands in `curve.busy_s`.
    trace.span("curve.busy_s", || {
        black_box(par::map(&deterministic, |&i| {
            (curve(&gds[i], &models[i], None), plan(&gds[i], &models[i]))
        }))
    });
    trace.count("curve.evals", deterministic.len() as f64);

    let mut stochastic: Vec<usize> = (0..gds.len())
        .filter(|&i| !gds[i].straggler_model().is_zero())
        .collect();
    while let Some(&first) = stochastic.first() {
        let model = gds[first].straggler_model();
        let (group, rest): (Vec<usize>, Vec<usize>) = stochastic
            .iter()
            .partition(|&&i| gds[i].straggler_model() == model);
        stochastic = rest;
        let cache = pool.cache_for(model);
        let calls = trace.span("straggler.order_stats.busy_s", || {
            fill_order_stats(&group.iter().map(|&i| &gds[i]).collect::<Vec<_>>(), &cache)
        });
        trace.count("straggler.order_stats.calls", calls as f64);
        for &i in &group {
            trace.span("curve.busy_s", || {
                black_box(curve(&gds[i], &models[i], Some(&cache)))
            });
            trace.count("curve.evals", 1.0);
            if gds[i].plan.is_some() {
                trace.span("planner.busy_s", || black_box(plan(&gds[i], &models[i])));
                trace.count("planner.calls", 1.0);
            }
        }
    }
    Ok(())
}

/// Fills a group's shared cache the way the engine does: one shared-grid
/// warm pass per distinct `backup_k` for dense points, and per-rung memo
/// fills for log-ladder points. Returns the number of calls made.
fn fill_order_stats(group: &[&GdSpec], cache: &OrderStatCache) -> usize {
    let mut warmed: Vec<(usize, usize)> = Vec::new();
    let mut calls = 0;
    for gd in group {
        match gd.log_points {
            Some(points) => {
                for n in log_spaced_ns(gd.max_n, points) {
                    black_box(cache.expected_order_stat(n, gd.backup_k.min(n - 1)));
                    calls += 1;
                }
            }
            None => match warmed.iter_mut().find(|(k, _)| *k == gd.backup_k) {
                Some((_, n_max)) => *n_max = (*n_max).max(gd.max_n),
                None => warmed.push((gd.backup_k, gd.max_n)),
            },
        }
    }
    for &(backup_k, n_max) in &warmed {
        cache.warm(n_max, backup_k);
        calls += 1;
    }
    calls
}

fn curve(gd: &GdSpec, model: &StragglerGdModel, cache: Option<&OrderStatCache>) -> SpeedupCurve {
    let ns: Vec<usize> = match gd.log_points {
        Some(points) => log_spaced_ns(gd.max_n, points),
        None => (1..=gd.max_n).collect(),
    };
    match (gd.weak, cache) {
        (false, Some(cache)) => model.strong_curve_cached(ns, cache),
        (false, None) => model.strong_curve(ns),
        (true, Some(cache)) => model.weak_curve_cached(ns, cache),
        (true, None) => model.weak_curve(ns),
    }
}

/// The provisioning answers a point with a `plan` block reports.
fn plan(gd: &GdSpec, model: &StragglerGdModel) -> Option<impl Sized> {
    let plan = gd.plan.as_ref()?;
    let pricing = Pricing::hourly(plan.price);
    let planner = match gd.log_points {
        Some(points) => model.planner_log(plan.iterations, gd.max_n, pricing, points),
        None => model.planner(plan.iterations, gd.max_n, pricing),
    };
    Some((
        planner.fastest(),
        planner.cheapest(),
        plan.deadline
            .map(|d| planner.cheapest_within_deadline(Seconds::new(d))),
        plan.budget.map(|b| planner.fastest_within_budget(b)),
    ))
}

/// Temp file plus rename, as the sweep writes a point.
fn write_atomic(dir: &Path, id: &str, text: &str) -> std::io::Result<()> {
    let path = dir.join(format!("{id}.json"));
    let tmp = dir.join(format!("{id}.json.tmp"));
    std::fs::write(&tmp, text)?;
    std::fs::rename(&tmp, &path)
}

/// One journal line, appended as the sweep appends it.
fn append(path: &Path, line: &str) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    file.write_all(line.as_bytes())?;
    file.flush()
}
