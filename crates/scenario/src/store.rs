//! On-disk result layouts for sweeps: per-point files and sharded NDJSON.
//!
//! A journaled sweep writes its results in **units** — one file and one
//! journal line each — in one of two `Layout`s:
//!
//! * **per-point**: one pretty-printed `<id>.json` per grid point, as
//!   every release has written for grids up to [`DEFAULT_PER_POINT_MAX`]
//!   points;
//! * **shards**: at 10⁶ grid points one file per point is wrong twice
//!   over — a million inodes, and a million results resident in memory
//!   before anything is written — so big sweeps stream into
//!   `<name>-shard-KKKK.ndjson` files of newline-delimited compact point
//!   records, each covering a fixed, contiguous range of grid slots *in
//!   grid order* (shard `k` holds slots `[k·S, (k+1)·S)`).
//!
//! Everything else is shared. [`ShardedStore`] buffers at most one unit
//! of encoded records (enforced by the telemetry counters below) and
//! publishes it through `write_atomic`, the one temp-file + rename
//! writer — a crash can orphan a `.tmp`, never tear a results file.
//! `verified_unit` re-admits a unit on resume only if its byte length
//! matches the journal and every record re-encodes to exactly its own
//! bytes under the grid's expected id; anything else re-evaluates the
//! whole unit. That granularity is the price of streaming (a crash loses
//! at most one unit of re-evaluable work) and the reason a resumed sweep
//! is byte-identical to an uninterrupted one. `clean_stale` removes
//! either layout's leftovers, so switching a scenario between layouts
//! never leaves the old layout's files beside the new roll-up.

use mlscale_core::faultpoint;
use mlscale_workloads::ExperimentResult;
use std::cell::Cell;
use std::collections::HashSet;
use std::path::{Path, PathBuf};

/// Grids up to this many points keep the per-point-file layout (one
/// pretty-printed `<id>.json` each, as every release so far has written);
/// larger grids stream through shards of exactly this many records.
/// `--per-point-max` overrides it — tests use tiny values to exercise
/// many shards cheaply.
pub const DEFAULT_PER_POINT_MAX: usize = 2048;

thread_local! {
    /// Encoded point records currently buffered by this thread's stores,
    /// and their high-water mark since the last reset. A sweep buffers on
    /// the thread that runs it, so the count is per thread: concurrent
    /// sweeps (and concurrently running tests) never see one another's
    /// records. The streaming property test reads the peak: a sweep
    /// through this store must never hold more than one shard of records,
    /// no matter how large the grid.
    static BUFFERED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

/// Resets this thread's buffered-record telemetry (call before the
/// measured sweep).
pub fn reset_buffer_telemetry() {
    BUFFERED.set((0, 0));
}

/// The high-water mark of records buffered on this thread since the last
/// [`reset_buffer_telemetry`].
pub fn peak_buffered_records() -> usize {
    BUFFERED.get().1
}

fn note_buffered() {
    let (live, peak) = BUFFERED.get();
    BUFFERED.set((live + 1, peak.max(live + 1)));
}

fn note_flushed(n: usize) {
    // Saturating: a reset mid-sweep must not wrap the live counter.
    let (live, peak) = BUFFERED.get();
    BUFFERED.set((live.saturating_sub(n), peak));
}

/// How a journaled sweep lays its results out. How many grid points one
/// unit covers, what the unit's file is called and how a record is
/// encoded are the only choices that differ between the layouts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Layout {
    /// One pretty-printed `<id>.json` per grid point.
    PerPoint,
    /// NDJSON shards of this many compact records (at least 1).
    Shards(usize),
}

impl Layout {
    /// Grid points per unit.
    pub(crate) fn unit_size(self) -> usize {
        match self {
            Layout::PerPoint => 1,
            Layout::Shards(size) => size,
        }
    }

    /// Unit `index`'s file name; a per-point unit is named by the id of
    /// its one record.
    pub(crate) fn file_name(self, name: &str, index: usize, id: &str) -> String {
        match self {
            Layout::PerPoint => format!("{id}.json"),
            Layout::Shards(_) => shard_file_name(name, index),
        }
    }

    /// One record exactly as it appears in a unit file.
    pub(crate) fn encode(self, result: &ExperimentResult) -> std::io::Result<String> {
        match self {
            Layout::PerPoint => serde_json::to_string_pretty(result),
            Layout::Shards(_) => serde_json::to_string(result).map(|line| line + "\n"),
        }
        .map_err(std::io::Error::other)
    }

    /// The fault points between a unit's temp-file write and its rename,
    /// and after the unit is journaled.
    pub(crate) fn fault_points(self) -> (&'static str, &'static str) {
        use faultpoint::points::*;
        match self {
            Layout::PerPoint => (SWEEP_WRITE_POINT, SWEEP_AFTER_POINT),
            Layout::Shards(_) => (SWEEP_WRITE_SHARD, SWEEP_AFTER_SHARD),
        }
    }

    /// Parses the journal's `layout` value, the inverse of `Display`.
    pub(crate) fn parse(text: &str) -> Option<Self> {
        match text.strip_prefix("shards ") {
            Some(size) => size.parse().ok().filter(|&s| s > 0).map(Layout::Shards),
            None => (text == "per-point").then_some(Layout::PerPoint),
        }
    }
}

/// The journal's `layout` value: `per-point` or `shards S`.
impl std::fmt::Display for Layout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Layout::PerPoint => f.write_str("per-point"),
            Layout::Shards(size) => write!(f, "shards {size}"),
        }
    }
}

/// `<name>-shard-KKKK.ndjson`. Four digits cover the worst case —
/// [`crate::spec::MAX_GRID_POINTS`] points at the smallest useful shard
/// size still sorts lexicographically — and wider indices simply widen.
pub fn shard_file_name(name: &str, index: usize) -> String {
    format!("{name}-shard-{index:04}.ndjson")
}

/// Whether `file_name` is a result unit of the named scenario in either
/// layout, or an orphaned temp file of one: `<name>-p<digits>.json` or
/// `<name>-shard-<digits>.ndjson`, either optionally ending in `.tmp`.
pub(crate) fn is_result_file(file_name: &str, name: &str) -> bool {
    let Some(rest) = file_name.strip_prefix(name) else {
        return false;
    };
    let rest = rest.strip_suffix(".tmp").unwrap_or(rest);
    [("-p", ".json"), ("-shard-", ".ndjson")]
        .iter()
        .any(|(infix, extension)| {
            rest.strip_prefix(infix)
                .and_then(|r| r.strip_suffix(extension))
                .is_some_and(|digits| {
                    !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit())
                })
        })
}

/// Removes the named scenario's result files of either layout (and
/// orphaned `.tmp` files) whose names are not in `fresh`, so the
/// directory reflects exactly the grid and layout just swept — re-running
/// a shrunk grid or switching layouts never leaves stale results beside
/// the fresh roll-up. Other files (the journal, other scenarios' results)
/// are untouched.
pub(crate) fn clean_stale(dir: &Path, name: &str, fresh: &HashSet<String>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let Ok(file_name) = entry.file_name().into_string() else {
            continue;
        };
        if is_result_file(&file_name, name) && !fresh.contains(&file_name) {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// The one temp-file + rename writer behind every results file, roll-up
/// and journal rewrite: `text` lands in `<path>.tmp`, the optional fault
/// point fires, then the rename publishes it — a crash leaves only the
/// `.tmp`, never a torn file. Returns the byte length written.
pub(crate) fn write_atomic(path: &Path, text: &str, fault: Option<&str>) -> std::io::Result<u64> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
    std::fs::write(&tmp, text)?;
    if let Some(point) = fault {
        faultpoint::hit(point)?;
    }
    std::fs::rename(&tmp, path)?;
    Ok(text.len() as u64)
}

/// The one resume verifier: reads a unit file back and returns its
/// records only if everything checks out — the journaled `(records,
/// bytes)` match the file and the grid, every record parses, carries its
/// expected id and re-encodes to exactly its own bytes. Any failure
/// returns `None` and the caller re-evaluates the whole unit.
pub(crate) fn verified_unit(
    path: &Path,
    layout: Layout,
    expected_ids: &[String],
    (records, bytes): (usize, u64),
) -> Option<Vec<ExperimentResult>> {
    let text = std::fs::read_to_string(path).ok()?;
    let encoded: Vec<&str> = match layout {
        Layout::PerPoint => vec![&text],
        Layout::Shards(_) => text.split_inclusive('\n').collect(),
    };
    if text.len() as u64 != bytes || encoded.len() != records || records != expected_ids.len() {
        return None;
    }
    encoded
        .into_iter()
        .zip(expected_ids)
        .map(|(record, id)| {
            let result: ExperimentResult = serde_json::from_str(record).ok()?;
            (result.id == *id && layout.encode(&result).ok()? == record).then_some(result)
        })
        .collect()
}

/// One scenario's unit writer: buffers encoded records for the unit in
/// progress (never more than one unit's worth) and publishes each unit
/// atomically. [`ShardedStore::new`] writes NDJSON shards; the journaled
/// sweep engine drives the same writer for per-point files.
#[derive(Debug)]
pub struct ShardedStore {
    dir: PathBuf,
    name: String,
    layout: Layout,
    slots: Vec<Option<String>>,
    buffered: usize,
}

impl ShardedStore {
    /// A store writing shards of `shard_size` records (at least 1) into
    /// `dir` under the scenario's name.
    pub fn new(dir: &Path, name: &str, shard_size: usize) -> Self {
        Self::with_layout(dir, name, Layout::Shards(shard_size.max(1)))
    }

    /// A writer of `layout`'s units.
    pub(crate) fn with_layout(dir: &Path, name: &str, layout: Layout) -> Self {
        ShardedStore {
            dir: dir.to_path_buf(),
            name: name.to_string(),
            layout,
            slots: vec![None; layout.unit_size()],
            buffered: 0,
        }
    }

    /// Where shard `index` lives on disk.
    pub fn shard_path(&self, index: usize) -> PathBuf {
        self.dir.join(shard_file_name(&self.name, index))
    }

    /// Encodes one evaluated point into the in-progress unit at `slot`
    /// (its offset within the unit, *not* the grid). Results may arrive
    /// in any evaluation order; slots pin them back to grid order.
    pub fn buffer(&mut self, slot: usize, result: &ExperimentResult) -> std::io::Result<()> {
        let size = self.slots.len();
        let cell = self.slots.get_mut(slot).ok_or_else(|| {
            std::io::Error::other(format!(
                "unit slot {slot} out of range (unit size {size}) — internal scheduling bug"
            ))
        })?;
        if cell.is_some() {
            return Err(std::io::Error::other(format!(
                "unit slot {slot} evaluated twice — internal scheduling bug"
            )));
        }
        *cell = Some(self.layout.encode(result)?);
        self.buffered += 1;
        note_buffered();
        Ok(())
    }

    /// Atomically publishes the buffered records as shard `index`
    /// (`records` of them — the last shard of a grid is short) with the
    /// `sweep.write_shard` fault point between the temp-file write and
    /// the rename, and clears the buffer. Returns the shard's byte length
    /// for the journal.
    pub fn write_shard(&mut self, index: usize, records: usize) -> std::io::Result<u64> {
        let path = self.shard_path(index);
        self.publish(&path, records, faultpoint::points::SWEEP_WRITE_SHARD)
    }

    /// Publishes the first `records` buffered records as the unit file at
    /// `path` through [`write_atomic`] (with `fault` between write and
    /// rename) and clears the buffer. Returns the unit's byte length.
    pub(crate) fn publish(
        &mut self,
        path: &Path,
        records: usize,
        fault: &str,
    ) -> std::io::Result<u64> {
        let mut text = String::new();
        for (slot, cell) in self.slots.iter().take(records).enumerate() {
            let record = cell.as_ref().ok_or_else(|| {
                std::io::Error::other(format!(
                    "{} slot {slot} never evaluated — internal scheduling bug",
                    path.display()
                ))
            })?;
            text.push_str(record);
        }
        let bytes = write_atomic(path, &text, Some(fault))?;
        self.clear();
        Ok(bytes)
    }

    /// Drops any buffered records (also runs on `Drop`, so an errored
    /// sweep does not leave the telemetry counting ghosts).
    fn clear(&mut self) {
        for cell in &mut self.slots {
            *cell = None;
        }
        note_flushed(self.buffered);
        self.buffered = 0;
    }
}

impl Drop for ShardedStore {
    fn drop(&mut self) {
        self.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_workloads::Series;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mlscale-store-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn point(id: &str) -> ExperimentResult {
        ExperimentResult::new(id.to_string(), format!("store test {id}"))
            .with_stat("optimal n", 4.0, None)
            .with_series(Series::new("time s", vec![(1usize, 2.0), (2, 1.25)]))
    }

    #[test]
    fn shard_names_match_and_sort() {
        assert_eq!(shard_file_name("big", 0), "big-shard-0000.ndjson");
        assert_eq!(shard_file_name("big", 12), "big-shard-0012.ndjson");
        assert!(is_result_file("big-shard-0000.ndjson", "big"));
        assert!(is_result_file("big-shard-0012.ndjson.tmp", "big"));
        assert!(!is_result_file("big-shard-.ndjson", "big"));
        assert!(
            is_result_file("big-p000.json", "big"),
            "one matcher, both layouts"
        );
        assert!(!is_result_file("other-shard-0000.ndjson", "big"));
    }

    #[test]
    fn write_then_read_verifies_and_roundtrips() {
        let dir = temp_dir("roundtrip");
        let mut store = ShardedStore::new(&dir, "rt", 3);
        let ids: Vec<String> = (0..3).map(|i| format!("rt-p00{i}")).collect();
        // Out-of-order arrival: slots pin records back to grid order.
        for slot in [2usize, 0, 1] {
            store.buffer(slot, &point(&ids[slot])).unwrap();
        }
        let bytes = store.write_shard(0, 3).unwrap();
        assert!(!store.shard_path(0).with_extension("ndjson.tmp").exists());
        let back = verified_unit(&store.shard_path(0), Layout::Shards(3), &ids, (3, bytes))
            .expect("verifies");
        assert_eq!(back.len(), 3);
        assert_eq!(back[0], point("rt-p000"));
        assert_eq!(back[2], point("rt-p002"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verification_rejects_tampering_and_mismatches() {
        let dir = temp_dir("verify");
        let mut store = ShardedStore::new(&dir, "v", 2);
        let ids: Vec<String> = vec!["v-p000".into(), "v-p001".into()];
        store.buffer(0, &point(&ids[0])).unwrap();
        store.buffer(1, &point(&ids[1])).unwrap();
        let bytes = store.write_shard(0, 2).unwrap();
        let verify = |ids: &[String], bytes: u64| {
            verified_unit(
                &store.shard_path(0),
                Layout::Shards(2),
                ids,
                (ids.len(), bytes),
            )
        };

        assert!(verify(&ids, bytes + 1).is_none(), "wrong byte length");
        let wrong_ids = vec!["v-p000".to_string(), "v-p999".to_string()];
        assert!(verify(&wrong_ids, bytes).is_none(), "wrong id");
        assert!(verify(&ids[..1], bytes).is_none(), "wrong record count");

        let text = std::fs::read_to_string(store.shard_path(0)).unwrap();
        // Same byte length, different spacing: must fail the compact
        // re-serialisation check.
        let tampered = text
            .replacen("\"id\":", "\"id\" :", 1)
            .replacen("  ", " ", 0);
        if tampered.len() == text.len() {
            std::fs::write(store.shard_path(0), &tampered).unwrap();
            assert!(verify(&ids, bytes).is_none(), "tampered spacing");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_shard_faultpoint_leaves_only_a_temp_file() {
        let dir = temp_dir("fault");
        let result = mlscale_core::faultpoint::scoped("sweep.write_shard:1=err", || {
            let mut store = ShardedStore::new(&dir, "f", 1);
            store.buffer(0, &point("f-p000")).unwrap();
            store.write_shard(0, 1)
        })
        .expect("valid fault spec");
        let err = result.expect_err("fault must surface");
        assert!(err.to_string().contains("sweep.write_shard"), "{err}");
        assert!(
            dir.join("f-shard-0000.ndjson.tmp").exists(),
            "temp left behind"
        );
        assert!(
            !dir.join("f-shard-0000.ndjson").exists(),
            "shard never torn"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn telemetry_tracks_peak_buffered_records() {
        let dir = temp_dir("telemetry");
        reset_buffer_telemetry();
        let mut store = ShardedStore::new(&dir, "t", 4);
        for slot in 0..4 {
            store.buffer(slot, &point(&format!("t-p00{slot}"))).unwrap();
        }
        assert_eq!(peak_buffered_records(), 4);
        store.write_shard(0, 4).unwrap();
        for slot in 0..2 {
            store
                .buffer(slot, &point(&format!("t-p00{}", 4 + slot)))
                .unwrap();
        }
        store.write_shard(1, 2).unwrap();
        assert_eq!(
            peak_buffered_records(),
            4,
            "never more than one shard buffered"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn stale_shard_cleanup_respects_the_fresh_set() {
        let dir = temp_dir("clean");
        for index in 0..3 {
            std::fs::write(dir.join(shard_file_name("c", index)), b"{}\n").unwrap();
        }
        std::fs::write(dir.join("c-shard-0009.ndjson.tmp"), b"{").unwrap();
        std::fs::write(dir.join("c-p000.json"), b"{}").unwrap();
        std::fs::write(dir.join("other-shard-0000.ndjson"), b"{}\n").unwrap();
        let fresh: std::collections::HashSet<String> =
            [shard_file_name("c", 0), shard_file_name("c", 1)]
                .into_iter()
                .collect();
        clean_stale(&dir, "c", &fresh).unwrap();
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(
            names,
            vec![
                "c-shard-0000.ndjson",
                "c-shard-0001.ndjson",
                "other-shard-0000.ndjson"
            ]
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
