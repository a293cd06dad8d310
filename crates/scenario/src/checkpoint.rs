//! Crash-safe sweeps: one journaled loop behind both result layouts.
//!
//! [`run_checkpointed`] (one pretty-printed `<id>.json` per grid point)
//! and [`run_sharded`] (NDJSON shards, see [`crate::store`]) are the
//! durable siblings of [`run_pooled`](crate::run_pooled): instead of
//! evaluating the whole grid in memory and writing files at the end,
//! they publish each *unit* — one point, or one shard of points —
//! atomically (temp file + rename) as soon as its last record is
//! evaluated, and record it in an append-only journal,
//! `<dir>/<name>.manifest`:
//!
//! ```text
//! mlscale sweep journal v2
//! spec 9f3a6c21d4b07e58
//! layout per-point
//! unit 0 1 5210
//! unit 1 1 5214
//! …
//! ```
//!
//! The `spec` line is an FNV-1a fingerprint of the fully-parsed scenario
//! and the `layout` line is `per-point` or `shards S`, so a resume
//! against an edited spec or across layouts is refused with a named
//! diagnostic instead of silently mixing results from two different
//! grids. Each `unit <k> <records> <bytes>` line records one published
//! unit. On `resume = true` every journaled unit whose file verifies
//! exactly — byte length, record count, expected ids, every record
//! re-encoding to its own bytes — is reused; everything else (missing
//! files, a torn journal tail, tampered files) is re-evaluated. Units are
//! journaled in evaluation order and the finished journal is rewritten in
//! grid order. Because evaluation is deterministic and the shared
//! order-statistic caches only memoise pure quadratures, a resumed
//! sweep's directory — units, roll-up and journal — is **byte-identical**
//! to an uninterrupted run: property-tested in this module and
//! crash-tested for real (the process killed at an injected fault point)
//! in `tests/crash_resume.rs`.
//!
//! Two [`mlscale_core::faultpoint`] hooks per layout thread through the
//! write path: `sweep.write_point` / `sweep.write_shard` between a unit's
//! temp-file write and its rename (a kill there leaves only a `.tmp`,
//! never a torn file) and `sweep.after_point` / `sweep.after_shard` after
//! the unit is journaled.

use crate::run::{
    all_evaluated, build_rollup_from, eval_points, summarize_point, PointSummary, SweepOutcome,
};
use crate::spec::{point_id_width, GridPoint, ScenarioSpec, SpecError, WorkloadSpec};
use crate::store::{self, Layout, ShardedStore};
use mlscale_core::faultpoint;
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_workloads::ExperimentResult;
use std::collections::HashSet;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// First line of every journal this version reads or writes.
const MANIFEST_VERSION: &str = "mlscale sweep journal v2";

/// What a checkpointed sweep produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointedSweep {
    /// The full outcome, exactly as an uninterrupted run reports it.
    pub outcome: SweepOutcome,
    /// Written (or reused) result paths in grid order, roll-up last.
    pub paths: Vec<PathBuf>,
    /// How many points were restored from the journal instead of
    /// evaluated (0 on a fresh run).
    pub resumed: usize,
}

/// Runs a sweep with per-point checkpointing into `dir`.
///
/// With `resume = false` any previous journal for this scenario is
/// discarded and every point evaluated. With `resume = true` the journal
/// in `dir` is required (a missing one is a named error, not a silent
/// fresh start) and verified-complete points are skipped. The pending
/// points are evaluated as one batch: deterministic points share one
/// parallel fan-out, stochastic points one order-statistic cache per
/// delay distribution.
pub fn run_checkpointed(
    spec: &ScenarioSpec,
    dir: &Path,
    resume: bool,
) -> Result<CheckpointedSweep, SpecError> {
    let grid = spec.expand()?;
    let mut points = vec![None; grid.len()];
    let swept = run_journaled(spec, dir, resume, Layout::PerPoint, &mut |slot, result| {
        points[slot] = Some(result);
    })?;
    Ok(CheckpointedSweep {
        outcome: SweepOutcome {
            name: spec.name.clone(),
            grid,
            points: all_evaluated(points)?,
            rollup: swept.rollup,
        },
        paths: swept.paths,
        resumed: swept.resumed,
    })
}

/// What a sharded, checkpointed sweep produced. Unlike
/// [`CheckpointedSweep`] there is no full [`SweepOutcome`]: the whole
/// point of the sharded store is that 10⁶ results never sit in memory at
/// once — per-point data lives in the shard files, and only the roll-up
/// (built from streaming `PointSummary` extracts, byte-identical to
/// the per-point path's) is returned.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedSweep {
    /// The scenario name (results-file prefix).
    pub name: String,
    /// Expanded grid size.
    pub grid_points: usize,
    /// How many shard files the grid spans.
    pub shards: usize,
    /// The roll-up report over all points.
    pub rollup: ExperimentResult,
    /// Shard paths in index order, roll-up path last.
    pub paths: Vec<PathBuf>,
    /// How many points were restored from verified shards instead of
    /// evaluated (0 on a fresh run).
    pub resumed: usize,
}

/// Runs a sweep through the sharded store with per-shard checkpointing
/// into `dir`, for grids past the per-point-file threshold: grid points
/// are generated lazily (never materialising the cross product),
/// evaluated one shard at a time on one cache pool, and published as
/// atomic NDJSON shards of `shard_size` records. A resumed sweep reuses
/// whole verified shards — the same byte-identity promise the per-point
/// layout makes, at shard granularity.
pub fn run_sharded(
    spec: &ScenarioSpec,
    dir: &Path,
    resume: bool,
    shard_size: usize,
) -> Result<ShardedSweep, SpecError> {
    if matches!(spec.workload, WorkloadSpec::Exhibit(_)) {
        return Err(SpecError::new(
            "workload",
            "exhibit scenarios are single-point — the sharded store only serves gd/bp grids",
        ));
    }
    let layout = Layout::Shards(shard_size.max(1));
    let swept = run_journaled(spec, dir, resume, layout, &mut |_, _| {})?;
    Ok(ShardedSweep {
        name: spec.name.clone(),
        grid_points: swept.grid_points,
        shards: swept.paths.len() - 1,
        rollup: swept.rollup,
        paths: swept.paths,
        resumed: swept.resumed,
    })
}

/// What the journaled loop hands back to its two wrappers.
struct Swept {
    grid_points: usize,
    rollup: ExperimentResult,
    /// Unit paths in grid order, roll-up path last.
    paths: Vec<PathBuf>,
    resumed: usize,
}

/// The one journaled sweep loop: restore the journal's verified units,
/// evaluate the rest on one cache pool — every pending point in one
/// batch for the per-point layout, one shard per batch otherwise, so at
/// most one shard of records is ever buffered — publish and journal each
/// unit as its last record lands, then rewrite the journal in grid
/// order, write the roll-up and clean stale files. Only point summaries
/// are held for the roll-up; `keep` sees every point's full result
/// (restored or evaluated) by grid slot.
fn run_journaled(
    spec: &ScenarioSpec,
    dir: &Path,
    resume: bool,
    layout: Layout,
    keep: &mut dyn FnMut(usize, ExperimentResult),
) -> Result<Swept, SpecError> {
    let total = spec.grid_len()?;
    let width = point_id_width(total);
    let size = layout.unit_size();
    let units = total.div_ceil(size);
    let unit_points = |k: usize| -> Vec<GridPoint> {
        (k * size..((k + 1) * size).min(total))
            .map(|slot| spec.point_at(slot, width))
            .collect()
    };
    // Gd/bp results are named by the grid; an exhibit keeps its binary's
    // own id (one point, byte-identical to the golden fixture).
    let id_of = |point: &GridPoint| match &spec.workload {
        WorkloadSpec::Exhibit(ex) => ex.id.clone(),
        _ => point.id.clone(),
    };
    let unit_path = |k: usize| {
        let first = spec.point_at(k * size, width);
        dir.join(layout.file_name(&spec.name, k, &id_of(&first)))
    };
    let manifest = manifest_path(dir, &spec.name);
    let fingerprint = spec_fingerprint(spec);
    std::fs::create_dir_all(dir).map_err(|e| io_spec_error(dir, "cannot create", &e))?;

    let mut done: Vec<Option<(usize, u64)>> = vec![None; units];
    let mut summaries: Vec<Option<PointSummary>> = vec![None; total];
    if resume {
        let journaled = read_journal(&manifest, fingerprint, layout, total)?;
        for (k, unit) in journaled.into_iter().enumerate() {
            let Some(unit) = unit else {
                continue;
            };
            let points = unit_points(k);
            let ids: Vec<String> = points.iter().map(id_of).collect();
            let Some(results) = store::verified_unit(&unit_path(k), layout, &ids, unit) else {
                continue; // missing, torn or tampered: re-evaluate the unit
            };
            for (point, result) in points.iter().zip(results) {
                summaries[point.index] = Some(summarize_point(point, &result));
                keep(point.index, result);
            }
            done[k] = Some(unit);
        }
    }
    let resumed = done.iter().flatten().map(|&(records, _)| records).sum();

    let pending: Vec<usize> = (0..units).filter(|&k| done[k].is_none()).collect();
    if !pending.is_empty() {
        // Restart the journal from the verified units: a fresh run
        // truncates any stale journal, a resume drops torn or unverified
        // lines before new ones are appended.
        write_journal(&manifest, fingerprint, layout, &done)?;
    }
    let batch_units = match layout {
        Layout::PerPoint => pending.len().max(1),
        Layout::Shards(_) => 1,
    };
    let (write_fault, after_fault) = layout.fault_points();
    let mut store = ShardedStore::with_layout(dir, &spec.name, layout);
    let pool = OrderStatCachePool::new();
    for batch in pending.chunks(batch_units) {
        let points: Vec<GridPoint> = batch.iter().flat_map(|&k| unit_points(k)).collect();
        let mut arrived = 0;
        eval_points(spec, &pool, &points, &mut |i, result| {
            let point = &points[i];
            let k = point.index / size;
            store
                .buffer(point.index % size, &result)
                .map_err(|e| io_spec_error(dir, "cannot buffer a point for", &e))?;
            summaries[point.index] = Some(summarize_point(point, &result));
            keep(point.index, result);
            // Units never interleave within a batch (a per-point unit is
            // one record, a sharded batch one shard): publish on the last.
            arrived += 1;
            let records = size.min(total - k * size);
            if arrived < records {
                return Ok(());
            }
            arrived = 0;
            let path = unit_path(k);
            let bytes = store
                .publish(&path, records, write_fault)
                .map_err(|e| io_spec_error(&path, "cannot write", &e))?;
            append_unit(&manifest, k, records, bytes)
                .map_err(|e| io_spec_error(&manifest, "cannot append to", &e))?;
            faultpoint::hit(after_fault).map_err(|f| SpecError::new("sweep", f.to_string()))?;
            done[k] = Some((records, bytes));
            Ok(())
        })?;
    }
    let summaries = all_evaluated(summaries)?;
    // Units were journaled in evaluation order (deterministic points
    // first); listing them in grid order makes a resumed sweep's journal
    // byte-identical to an uninterrupted one's.
    write_journal(&manifest, fingerprint, layout, &done)?;

    // The roll-up is a pretty `<id>.json` in both layouts, written with
    // the per-point fault hook.
    let rollup = build_rollup_from(spec, &summaries);
    let rollup_path = dir.join(format!("{}.json", rollup.id));
    Layout::PerPoint
        .encode(&rollup)
        .and_then(|json| {
            store::write_atomic(
                &rollup_path,
                &json,
                Some(faultpoint::points::SWEEP_WRITE_POINT),
            )
        })
        .map_err(|e| io_spec_error(&rollup_path, "cannot write", &e))?;

    // The directory now reflects exactly this grid and layout: results
    // beyond a shrunk grid, the other layout's files and orphaned temp
    // files (including any a crash mid-write left behind) are removed.
    let mut paths: Vec<PathBuf> = (0..units).map(unit_path).collect();
    let fresh: HashSet<String> = paths
        .iter()
        .filter_map(|p| Some(p.file_name()?.to_str()?.to_string()))
        .collect();
    store::clean_stale(dir, &spec.name, &fresh)
        .map_err(|e| io_spec_error(dir, "cannot clean stale results in", &e))?;
    paths.push(rollup_path);
    Ok(Swept {
        grid_points: total,
        rollup,
        paths,
        resumed,
    })
}

/// `<dir>/<name>.manifest` — never matches a result-file pattern, so
/// stale-file cleanup leaves the journal alone.
fn manifest_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{name}.manifest"))
}

/// FNV-1a 64 over the spec's `Debug` rendering. The derived `Debug` of a
/// fully-parsed spec is a pure function of its fields (plain structs,
/// `Vec`s and scalars — no addresses, no hash-ordered maps), so the
/// fingerprint is stable across processes and runs; any semantic edit to
/// the scenario changes it.
fn spec_fingerprint(spec: &ScenarioSpec) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in format!("{spec:?}").bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn io_spec_error(path: &Path, what: &str, e: &std::io::Error) -> SpecError {
    SpecError::new("sweep", format!("{what} {}: {e}", path.display()))
}

fn unit_line(k: usize, records: usize, bytes: u64) -> String {
    format!("unit {k} {records} {bytes}\n")
}

/// Atomically rewrites the whole journal: header, then one line per
/// completed unit in grid order.
fn write_journal(
    path: &Path,
    fingerprint: u64,
    layout: Layout,
    done: &[Option<(usize, u64)>],
) -> Result<(), SpecError> {
    let mut text = format!("{MANIFEST_VERSION}\nspec {fingerprint:016x}\nlayout {layout}\n");
    for (k, unit) in done.iter().enumerate() {
        if let Some((records, bytes)) = unit {
            text.push_str(&unit_line(k, *records, *bytes));
        }
    }
    store::write_atomic(path, &text, None)
        .map(drop)
        .map_err(|e| io_spec_error(path, "cannot write", &e))
}

/// Appends one completion line to the journal. This is the one
/// deliberately non-atomic write in the sweep path: a crash mid-append
/// can tear the *last line only*, and [`read_journal`] discards a torn
/// tail (the unit is simply re-evaluated), so durability is never worse
/// than losing the most recent completion record.
fn append_unit(path: &Path, k: usize, records: usize, bytes: u64) -> std::io::Result<()> {
    // lint: allow(atomic-results-io): append-only journal — a torn tail line is detected and re-evaluated on resume; the results themselves go through temp+rename
    let mut file = std::fs::OpenOptions::new().append(true).open(path)?;
    file.write_all(unit_line(k, records, bytes).as_bytes())?;
    file.flush()
}

/// The one journal reader: checks the version line, the spec fingerprint
/// and the layout — each mismatch refused by name at `--resume` — and
/// returns, per unit of this grid, the journaled `(records, bytes)`. A
/// torn tail line (a crash mid-append) and malformed lines are dropped;
/// those units are simply re-evaluated.
fn read_journal(
    manifest: &Path,
    fingerprint: u64,
    layout: Layout,
    total: usize,
) -> Result<Vec<Option<(usize, u64)>>, SpecError> {
    let refuse = |message: String| SpecError::new("--resume", message);
    let text = match std::fs::read_to_string(manifest) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            return Err(refuse(format!(
                "no sweep journal at {} — run `mlscale sweep` without --resume first",
                manifest.display()
            )))
        }
        Err(e) => return Err(io_spec_error(manifest, "cannot read", &e)),
    };
    let mut lines = text.lines();
    if lines.next() != Some(MANIFEST_VERSION) {
        return Err(refuse(format!(
            "{} is not a sweep journal this version understands (expected {MANIFEST_VERSION:?} \
             on line 1) — rerun without --resume to start over",
            manifest.display()
        )));
    }
    let corrupt = |what: &str| {
        refuse(format!(
            "{} is missing its {what} line — journal corrupt, rerun without --resume",
            manifest.display()
        ))
    };
    let journal_spec = lines
        .next()
        .and_then(|l| l.strip_prefix("spec "))
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .ok_or_else(|| corrupt("spec fingerprint"))?;
    if journal_spec != fingerprint {
        return Err(refuse(format!(
            "the scenario changed since this journal was written (spec fingerprint \
             {fingerprint:016x}, journal has {journal_spec:016x}) — a resumed sweep would mix \
             results from two different grids; rerun without --resume to start over"
        )));
    }
    let written = lines
        .next()
        .and_then(|l| l.strip_prefix("layout "))
        .and_then(Layout::parse)
        .ok_or_else(|| corrupt("layout"))?;
    if written != layout {
        let units = |l: Layout| match l {
            Layout::PerPoint => "one file per point".to_string(),
            Layout::Shards(size) => format!("{size} records per shard"),
        };
        let (kind, flag) = match written {
            Layout::PerPoint => ("per-point", total),
            Layout::Shards(size) => ("sharded", size),
        };
        return Err(refuse(format!(
            "{} is a {kind} sweep journal ({}), but this run writes {} — unit boundaries would \
             not line up; rerun without --resume to start over, or resume with \
             --per-point-max {flag}",
            manifest.display(),
            units(written),
            units(layout)
        )));
    }
    let mut body: Vec<&str> = lines.collect();
    if !text.ends_with('\n') {
        body.pop(); // torn tail line from a crash mid-append: re-evaluate
    }
    let mut journaled = vec![None; total.div_ceil(layout.unit_size())];
    for line in body {
        let fields: Vec<&str> = line.split(' ').collect();
        let ["unit", k, records, bytes] = fields[..] else {
            continue; // unknown or malformed line: ignore, never trust it
        };
        if let (Ok(k), Ok(records), Ok(bytes)) =
            (k.parse::<usize>(), records.parse(), bytes.parse())
        {
            if let Some(unit) = journaled.get_mut(k) {
                *unit = Some((records, bytes));
            }
        }
    }
    Ok(journaled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::{run, write_outcome};

    fn spec(json: &str) -> ScenarioSpec {
        ScenarioSpec::from_json(json).expect("spec parses")
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mlscale-checkpoint-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    const GRID: &str = r#"{"name": "ckpt",
        "workload": {"kind": "gd", "preset": "fig2", "max_n": 6,
                     "straggler": {"kind": "exp", "mean": 2.0}},
        "sweep": [{"param": "backup_k", "values": [0, 1]},
                  {"param": "comm", "values": ["tree", "ring", "spark"]}]}"#;

    #[test]
    fn fresh_checkpointed_run_matches_run_and_write_outcome_bytes() {
        let spec = spec(GRID);
        let plain = run(&spec).unwrap();
        let plain_dir = temp_dir("plain");
        let plain_paths = write_outcome(&plain, &plain_dir).unwrap();

        let ckpt_dir = temp_dir("fresh");
        let swept = run_checkpointed(&spec, &ckpt_dir, false).unwrap();
        assert_eq!(swept.resumed, 0);
        assert_eq!(swept.outcome, plain);
        assert_eq!(swept.paths.len(), plain_paths.len());
        for (ours, theirs) in swept.paths.iter().zip(&plain_paths) {
            assert_eq!(
                std::fs::read(ours).unwrap(),
                std::fs::read(theirs).unwrap(),
                "{} must be byte-identical to the write_outcome file",
                ours.display()
            );
        }
        let manifest = std::fs::read_to_string(manifest_path(&ckpt_dir, "ckpt")).unwrap();
        assert!(manifest.starts_with(MANIFEST_VERSION));
        assert_eq!(manifest.matches("unit ").count(), 6);
        std::fs::remove_dir_all(&plain_dir).ok();
        std::fs::remove_dir_all(&ckpt_dir).ok();
    }

    /// A grid mixing deterministic (`jitter 0`) and stochastic points, so
    /// evaluation order (deterministic first) differs from grid order.
    const MIXED_GRID: &str = r#"{"name": "mixed",
        "workload": {"kind": "gd", "preset": "fig2", "max_n": 6},
        "sweep": [{"param": "comm", "values": ["tree", "ring", "spark"]},
                  {"param": "jitter", "values": [0.5, 0]}]}"#;

    /// Every file in `dir` with its bytes, sorted by name.
    fn dir_bytes(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| {
                let path = e.unwrap().path();
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                (name, std::fs::read(&path).unwrap())
            })
            .collect();
        files.sort();
        files
    }

    #[test]
    fn resume_after_err_fault_at_every_point_is_byte_identical() {
        // Property over crash sites: inject an `err` fault at the k-th
        // write for every k, then resume; the whole directory — points,
        // roll-up and journal — must be byte-identical to an
        // uninterrupted run, and the interrupted directory must never
        // contain a torn JSON.
        let spec = spec(MIXED_GRID);
        let clean_dir = temp_dir("clean");
        let clean = run_checkpointed(&spec, &clean_dir, false).unwrap();

        for k in 1..=6 {
            let dir = temp_dir(&format!("crash-{k}"));
            let interrupted = faultpoint::scoped(&format!("sweep.write_point:{k}=err"), || {
                run_checkpointed(&spec, &dir, false)
            })
            .expect("valid fault spec");
            let err = interrupted.expect_err("fault must surface");
            assert!(err.message.contains("sweep.write_point"), "{err:?}");

            // Every completed file parses; the faulted point left a .tmp.
            for entry in std::fs::read_dir(&dir).unwrap() {
                let path = entry.unwrap().path();
                if path.extension().is_some_and(|e| e == "json") {
                    let text = std::fs::read_to_string(&path).unwrap();
                    serde_json::from_str::<ExperimentResult>(&text)
                        .unwrap_or_else(|e| panic!("torn JSON at {}: {e:?}", path.display()));
                }
            }

            let resumed = run_checkpointed(&spec, &dir, true).unwrap();
            assert_eq!(resumed.resumed, k - 1, "crash site {k}");
            assert_eq!(resumed.outcome, clean.outcome, "crash site {k}");
            // Same file names (so no orphaned temp file survives) and
            // same bytes, the journal included.
            assert_eq!(
                dir_bytes(&dir),
                dir_bytes(&clean_dir),
                "crash site {k}: the resumed directory differs from the clean run"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn resume_refuses_a_changed_spec() {
        let original = spec(GRID);
        let dir = temp_dir("changed");
        let _ = faultpoint::scoped("sweep.after_point:2=err", || {
            run_checkpointed(&original, &dir, false)
        })
        .expect("valid fault spec");

        let edited = spec(&GRID.replace("\"max_n\": 6", "\"max_n\": 7"));
        let err = run_checkpointed(&edited, &dir, true).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(err.message.contains("scenario changed"), "{}", err.message);
        assert!(err.message.contains("fingerprint"), "{}", err.message);

        // The unchanged spec still resumes fine.
        let resumed = run_checkpointed(&original, &dir, true).unwrap();
        assert_eq!(resumed.resumed, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_a_journal_is_a_named_error() {
        let spec = spec(GRID);
        let dir = temp_dir("nojournal");
        let err = run_checkpointed(&spec, &dir, true).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(err.message.contains("no sweep journal"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_manifest_tail_and_tampered_point_are_reevaluated() {
        let spec = spec(GRID);
        let dir = temp_dir("torn");
        let clean = run_checkpointed(&spec, &dir, false).unwrap();

        // Tear the journal's last line (simulates a crash mid-append) and
        // tamper with a completed point file.
        let manifest = manifest_path(&dir, "ckpt");
        let text = std::fs::read_to_string(&manifest).unwrap();
        std::fs::write(&manifest, &text[..text.len() - 3]).unwrap();
        let victim = dir.join("ckpt-p001.json");
        let tampered = std::fs::read_to_string(&victim).unwrap().replace(' ', "  ");
        std::fs::write(&victim, tampered).unwrap();

        let resumed = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(
            resumed.resumed, 4,
            "6 points minus the torn tail and the tampered file"
        );
        assert_eq!(resumed.outcome, clean.outcome);
        // The tampered file was re-evaluated and rewritten: it must
        // round-trip byte-identically again.
        let json = std::fs::read_to_string(&victim).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string_pretty(&back).unwrap(), json);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_of_a_finished_sweep_reuses_every_point() {
        let spec = spec(
            r#"{"name": "done", "workload": {"kind": "gd", "preset": "fig2", "max_n": 5},
                "sweep": [{"param": "jitter", "values": [0.0, 0.5]}]}"#,
        );
        let dir = temp_dir("done");
        let first = run_checkpointed(&spec, &dir, false).unwrap();
        let again = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(again.resumed, 2, "both points reused");
        assert_eq!(again.outcome, first.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpointed_exhibit_reuses_the_binary_id() {
        let spec = spec(r#"{"name": "fig1-ckpt", "workload": {"kind": "exhibit", "id": "fig1"}}"#);
        let dir = temp_dir("exhibit");
        let swept = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(swept.paths[0].ends_with("fig1.json"));
        let again = run_checkpointed(&spec, &dir, true).unwrap();
        assert_eq!(again.resumed, 1);
        assert_eq!(again.outcome, swept.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_rollup_is_byte_identical_to_the_per_point_rollup() {
        let spec = spec(GRID);
        let point_dir = temp_dir("shard-vs-point");
        let per_point = run_checkpointed(&spec, &point_dir, false).unwrap();

        let shard_dir = temp_dir("shard-fresh");
        let sharded = run_sharded(&spec, &shard_dir, false, 4).unwrap();
        assert_eq!(sharded.grid_points, 6);
        assert_eq!(sharded.shards, 2, "6 points at 4 per shard");
        assert_eq!(sharded.resumed, 0);
        assert_eq!(sharded.rollup, per_point.outcome.rollup);
        assert_eq!(
            std::fs::read(sharded.paths.last().unwrap()).unwrap(),
            std::fs::read(per_point.paths.last().unwrap()).unwrap(),
            "roll-up files must be byte-identical across store layouts"
        );
        // The shard records are the per-point results, compactly encoded,
        // in grid order.
        let mut records = Vec::new();
        for path in &sharded.paths[..2] {
            let text = std::fs::read_to_string(path).unwrap();
            for line in text.lines() {
                records.push(serde_json::from_str::<ExperimentResult>(line).unwrap());
            }
        }
        assert_eq!(records, per_point.outcome.points);
        // No per-point files in the sharded layout.
        for id in per_point.outcome.points.iter().map(|p| &p.id) {
            assert!(!shard_dir.join(format!("{id}.json")).exists(), "{id}");
        }
        std::fs::remove_dir_all(&point_dir).ok();
        std::fs::remove_dir_all(&shard_dir).ok();
    }

    #[test]
    fn sharded_resume_after_shard_fault_is_byte_identical() {
        let spec = spec(GRID);
        let clean_dir = temp_dir("shard-clean");
        let clean = run_sharded(&spec, &clean_dir, false, 2).unwrap();
        assert_eq!(clean.shards, 3);

        for k in 1..=3 {
            let dir = temp_dir(&format!("shard-crash-{k}"));
            let interrupted = faultpoint::scoped(&format!("sweep.write_shard:{k}=err"), || {
                run_sharded(&spec, &dir, false, 2)
            })
            .expect("valid fault spec");
            let err = interrupted.expect_err("fault must surface");
            assert!(err.message.contains("sweep.write_shard"), "{err:?}");
            // The faulted shard left only a temp file, never a torn shard.
            assert!(dir
                .join(format!("ckpt-shard-{:04}.ndjson.tmp", k - 1))
                .exists());
            assert!(!dir.join(format!("ckpt-shard-{:04}.ndjson", k - 1)).exists());

            let resumed = run_sharded(&spec, &dir, true, 2).unwrap();
            assert_eq!(resumed.resumed, (k - 1) * 2, "crash site {k}");
            assert_eq!(resumed.rollup, clean.rollup, "crash site {k}");
            for (ours, theirs) in resumed.paths.iter().zip(&clean.paths) {
                assert_eq!(
                    std::fs::read(ours).unwrap(),
                    std::fs::read(theirs).unwrap(),
                    "crash site {k}: {} differs from the clean run",
                    ours.display()
                );
            }
            assert!(
                !dir.join(format!("ckpt-shard-{:04}.ndjson.tmp", k - 1))
                    .exists(),
                "crash site {k}: resume must clean the orphaned shard temp"
            );
            std::fs::remove_dir_all(&dir).ok();
        }
        std::fs::remove_dir_all(&clean_dir).ok();
    }

    #[test]
    fn sharded_resume_reuses_verified_shards_and_reevaluates_tampered_ones() {
        let spec = spec(GRID);
        let dir = temp_dir("shard-tamper");
        let clean = run_sharded(&spec, &dir, false, 2).unwrap();

        // Tamper shard 1 without changing its byte length: the record
        // still parses and round-trips, but its id no longer matches the
        // grid slot, so only that shard is re-evaluated.
        let victim = dir.join("ckpt-shard-0001.ndjson");
        let text = std::fs::read_to_string(&victim).unwrap();
        let tampered = text.replacen("ckpt-p002", "ckpt-p202", 1);
        assert_ne!(text, tampered, "record format changed — update the tamper");
        std::fs::write(&victim, &tampered).unwrap();

        let resumed = run_sharded(&spec, &dir, true, 2).unwrap();
        assert_eq!(resumed.resumed, 4, "shards 0 and 2 reused, shard 1 redone");
        assert_eq!(resumed.rollup, clean.rollup);
        assert_eq!(
            std::fs::read_to_string(&victim).unwrap(),
            text,
            "the tampered shard must be rewritten byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sharded_resume_refuses_layout_changes() {
        let spec = spec(GRID);
        let dir = temp_dir("shard-size-change");
        run_sharded(&spec, &dir, false, 2).unwrap();
        let err = run_sharded(&spec, &dir, true, 3).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(
            err.message.contains("2 records per shard"),
            "{}",
            err.message
        );
        assert!(err.message.contains("--per-point-max 2"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();

        // A per-point journal cannot seed a sharded resume either.
        let dir = temp_dir("shard-from-point");
        run_checkpointed(&spec, &dir, false).unwrap();
        let err = run_sharded(&spec, &dir, true, 2).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(
            err.message.contains("per-point sweep journal"),
            "{}",
            err.message
        );
        assert!(err.message.contains("--per-point-max 6"), "{}", err.message);
        std::fs::remove_dir_all(&dir).ok();

        // Nor a sharded journal a per-point resume: the same diagnostic
        // refuses, names the flag that resumes it, and touches nothing.
        let dir = temp_dir("point-from-shard");
        run_sharded(&spec, &dir, false, 2).unwrap();
        let before = dir_bytes(&dir);
        let err = run_checkpointed(&spec, &dir, true).expect_err("must refuse");
        assert_eq!(err.path, "--resume");
        assert!(
            err.message.contains("sharded sweep journal"),
            "{}",
            err.message
        );
        assert!(err.message.contains("--per-point-max 2"), "{}", err.message);
        assert_eq!(
            dir_bytes(&dir),
            before,
            "a refused resume must not touch the shards"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_refuses_a_v1_journal_by_name() {
        // Journals written before the v2 format (`point <id>` and
        // `shard-size`/`shard …` lines) are refused at --resume, which the
        // CLI turns into exit 2, instead of being half-read.
        let spec = spec(GRID);
        let dir = temp_dir("v1");
        run_checkpointed(&spec, &dir, false).unwrap();
        let manifest = manifest_path(&dir, "ckpt");
        let fingerprint = spec_fingerprint(&spec);
        for (v1, shard_size) in [
            (
                format!("mlscale sweep journal v1\nspec {fingerprint:016x}\npoint ckpt-p000\n"),
                None,
            ),
            (
                format!(
                    "mlscale sweep journal v1\nspec {fingerprint:016x}\nshard-size 2\nshard 0 2 9\n"
                ),
                Some(2),
            ),
        ] {
            std::fs::write(&manifest, &v1).unwrap();
            let err = match shard_size {
                None => run_checkpointed(&spec, &dir, true).map(|_| ()),
                Some(size) => run_sharded(&spec, &dir, true, size).map(|_| ()),
            }
            .expect_err("a v1 journal must be refused");
            assert_eq!(err.path, "--resume");
            assert!(
                err.message
                    .contains("is not a sweep journal this version understands"),
                "{}",
                err.message
            );
            assert!(err.message.contains(MANIFEST_VERSION), "{}", err.message);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn switching_store_layouts_cleans_the_other_layouts_files() {
        let spec = spec(GRID);
        let dir = temp_dir("layout-switch");
        let per_point = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(dir.join("ckpt-p000.json").exists());

        let sharded = run_sharded(&spec, &dir, false, 4).unwrap();
        assert!(
            !dir.join("ckpt-p000.json").exists(),
            "per-point files cleaned"
        );
        assert!(dir.join("ckpt-shard-0000.ndjson").exists());

        let back = run_checkpointed(&spec, &dir, false).unwrap();
        assert!(
            !dir.join("ckpt-shard-0000.ndjson").exists(),
            "shards cleaned"
        );
        assert!(dir.join("ckpt-p000.json").exists());
        assert_eq!(back.outcome.rollup, sharded.rollup);
        assert_eq!(back.outcome, per_point.outcome);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shrunk_grid_fresh_run_clears_stale_points_and_old_journal() {
        // The checkpointed sibling of the write_outcome shrink test: a
        // fresh (non-resume) run over a narrower grid must clear the wide
        // run's extra point files and start a new journal.
        let wide = spec(
            r#"{"name": "shrinkc", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0, 0.1, 0.2]}]}"#,
        );
        let dir = temp_dir("shrink");
        run_checkpointed(&wide, &dir, false).unwrap();
        std::fs::write(dir.join("shrinkc-p099.json.tmp"), b"{").unwrap();

        let narrow = spec(
            r#"{"name": "shrinkc", "workload": {"kind": "gd", "preset": "fig2", "max_n": 4},
                "sweep": [{"param": "jitter", "values": [0.0]}]}"#,
        );
        let swept = run_checkpointed(&narrow, &dir, false).unwrap();
        assert_eq!(swept.resumed, 0);
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "shrinkc-p000.json",
                "shrinkc-rollup.json",
                "shrinkc.manifest",
            ],
            "stale points, orphaned temp and old journal lines must be gone"
        );
        let manifest = std::fs::read_to_string(manifest_path(&dir, "shrinkc")).unwrap();
        assert_eq!(manifest.matches("unit ").count(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }
}
