//! # mlscale-bench — experiment binaries
//!
//! One binary per paper exhibit (`exp-table1`, `exp-fig1` … `exp-fig4`,
//! `exp-ablations`, `exp-all`): each prints the exhibit's series in the
//! paper's terms and writes the structured result to `results/<id>.json`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::all)]

use mlscale_workloads::ExperimentResult;
use std::path::{Path, PathBuf};

/// Directory the experiment binaries write JSON results into (created on
/// demand): `results/` under the workspace root.
pub fn results_dir() -> PathBuf {
    // CARGO_MANIFEST_DIR = crates/bench; the workspace root is two up.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."));
    root.join("results")
}

/// Prints an experiment result and persists it as JSON. Returns the path
/// written, or `None` (with a warning on stderr) when persisting failed —
/// printing always succeeds.
///
/// The write is atomic: the JSON goes to a `.json.tmp` sibling first and
/// is renamed into place, so an interrupted `exp-*` run (ctrl-C, OOM kill
/// mid-`exp-all`) can never leave a truncated `results/<id>.json` behind —
/// readers see either the previous complete file or the new one.
pub fn emit(result: &ExperimentResult) -> Option<PathBuf> {
    println!("{}", result.to_text());
    let dir = results_dir();
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("warning: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{}.json", result.id));
    let tmp = dir.join(format!("{}.json.tmp", result.id));
    match serde_json::to_string_pretty(result) {
        Ok(json) => {
            // lint: allow(atomic-results-io): this is the temp-file half of the rename pattern
            if let Err(e) = std::fs::write(&tmp, json) {
                eprintln!("warning: cannot write {}: {e}", tmp.display());
                return None;
            }
            if let Err(e) = std::fs::rename(&tmp, &path) {
                eprintln!("warning: cannot move {} into place: {e}", tmp.display());
                let _ = std::fs::remove_file(&tmp);
                return None;
            }
            Some(path)
        }
        Err(e) => {
            eprintln!("warning: cannot serialise result: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_workloads::Series;

    #[test]
    fn results_dir_is_under_workspace_root() {
        let dir = results_dir();
        assert!(dir.ends_with("results"));
    }

    #[test]
    fn emit_writes_json() {
        let result = ExperimentResult::new("selftest", "emit test")
            .with_series(Series::new("s", vec![(1, 1.0)]));
        let path = emit(&result).expect("emit must persist");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("selftest"));
        // The staging file must not survive a successful emit.
        assert!(!path.with_extension("json.tmp").exists());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn emit_replaces_existing_file_whole() {
        let big = ExperimentResult::new("selftest-atomic", "first")
            .with_series(Series::new("s", (1..200).map(|n| (n, n as f64)).collect()));
        let path = emit(&big).expect("emit must persist");
        let small = ExperimentResult::new("selftest-atomic", "second");
        let path2 = emit(&small).expect("emit must persist");
        assert_eq!(path, path2);
        // Rename-over semantics: the shorter result fully replaces the
        // longer one, no stale tail bytes, valid JSON throughout.
        let json = std::fs::read_to_string(&path).unwrap();
        let back: ExperimentResult = serde_json::from_str(&json).unwrap();
        assert_eq!(back.title, "second");
        assert!(back.series.is_empty());
        let _ = std::fs::remove_file(path);
    }
}
