//! Measurement plumbing shared by the workloads: percentiles, the
//! per-layer accumulator of the traced run, peak memory, output hashing
//! and the temporary directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// End-to-end metrics, in output order, with their units. Every workload
/// reports all of them (see DESIGN.md for what each means per workload).
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("points_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("hit_p50_ms", "ms"),
    ("miss_p50_ms", "ms"),
    ("miss_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// The exhibit ids of one `exp-all` pass, in `exp-all`'s order.
pub const EXHIBIT_IDS: [&str; 19] = [
    "table1",
    "fig1",
    "fig2",
    "fig3",
    "fig4-tiny",
    "fig4-small",
    "ablation-comm",
    "ablation-weak-comm",
    "ablation-batch",
    "ablation-precision",
    "ablation-partition",
    "ablation-amdahl",
    "ext-async-gd",
    "ext-inference-costs",
    "ext-zoo",
    "ext-provisioning",
    "ext-hierarchical-comm",
    "ext-stragglers",
    "ext-convergence",
];

/// Per-layer metrics of the layers other than the exhibits, with their
/// units. `busy_s` and count metrics are per operation of the workload (a
/// sweep iteration, an exhibit pass, a served request).
const LAYERS: [(&str, &str); 27] = [
    ("spec.parse.busy_s", "s"),
    ("spec.parse.calls", "count"),
    ("spec.grid.busy_s", "s"),
    ("spec.grid.points", "count"),
    ("straggler.order_stats.busy_s", "s"),
    ("straggler.order_stats.calls", "count"),
    ("curve.busy_s", "s"),
    ("curve.evals", "count"),
    ("planner.busy_s", "s"),
    ("planner.calls", "count"),
    ("report.render.busy_s", "s"),
    ("report.render.bytes", "bytes"),
    ("store.write.busy_s", "s"),
    ("store.bytes", "bytes"),
    ("store.files", "count"),
    ("adaptive.busy_s", "s"),
    ("adaptive.eval_ratio", "ratio"),
    ("serve.hit.handle_ms", "ms"),
    ("serve.miss.handle_ms", "ms"),
    ("serve.hit.transport_ms", "ms"),
    ("serve.lru.hit_ratio", "ratio"),
    ("serve.shed_503", "count"),
    ("serve.retries", "count"),
    ("http.read.busy_us", "us"),
    ("http.write.busy_us", "us"),
    ("graph.generate.busy_s", "s"),
    ("bp.simulated_curve.busy_s", "s"),
];

/// Every per-layer metric name with its unit, in output order: the
/// layers, one `busy_s` per exhibit, then the trace's own two.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let layers = LAYERS.iter().map(|&(name, unit)| (name.to_string(), unit));
    let exhibits = EXHIBIT_IDS
        .iter()
        .map(|id| (format!("exhibit.{id}.busy_s"), "s"));
    let trace = ["trace.coverage", "trace.overhead"].map(|name| (name.to_string(), "ratio"));
    layers.chain(exhibits).chain(trace).collect()
}

/// The traced run's accumulator. Layer spans are timed on the calling
/// thread around calls into the program's public functions; their sum
/// over the traced wall time is `trace.coverage`.
#[derive(Default)]
pub struct Trace {
    totals: BTreeMap<String, f64>,
    fixed: BTreeMap<String, f64>,
    ops: f64,
    spans_s: f64,
    traced_s: f64,
    untraced_s: f64,
}

impl Trace {
    /// Runs `f` as one span of `metric` (a `busy_s` name).
    pub fn span<T>(&mut self, metric: &str, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add_span(metric, started.elapsed().as_secs_f64(), 1.0);
        out
    }

    /// Adds `secs` of busy time to `metric`; `lanes` is how many spans run
    /// side by side (coverage counts their wall share, not their sum).
    pub fn add_span(&mut self, metric: &str, secs: f64, lanes: f64) {
        *self.totals.entry(metric.to_string()).or_default() += secs;
        self.spans_s += secs / lanes;
    }

    /// Adds `n` to a count metric.
    pub fn count(&mut self, metric: &str, n: f64) {
        *self.totals.entry(metric.to_string()).or_default() += n;
    }

    /// Sets a metric that is not a per-operation sum (ratios, medians).
    pub fn set(&mut self, metric: &str, value: f64) {
        self.fixed.insert(metric.to_string(), value);
    }

    /// Closes `ops` operations: `traced_s` of wall time spent in traced
    /// replays, against `untraced_s` for the same work untraced.
    pub fn ops(&mut self, ops: f64, traced_s: f64, untraced_s: f64) {
        self.ops += ops;
        self.traced_s += traced_s;
        self.untraced_s += untraced_s;
    }

    /// Every per-layer metric: per-operation means of the sums, the set
    /// values, coverage and overhead; 0 for layers the workload never
    /// entered.
    pub fn metrics(&self) -> Vec<(String, f64, &'static str)> {
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let value = match name.as_str() {
                    "trace.coverage" => ratio(self.spans_s, self.traced_s),
                    "trace.overhead" => ratio(self.traced_s, self.untraced_s) - 1.0,
                    _ => match self.fixed.get(&name) {
                        Some(&v) => v,
                        None => ratio(self.totals.get(&name).copied().unwrap_or(0.0), self.ops),
                    },
                };
                (name, value, unit)
            })
            .collect()
    }
}

/// `num / den`, 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `q`-quantile (0..=1) with linear interpolation between order
/// statistics; 0 for an empty sample.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// An FNV-1a-style 64-bit digest over 8-byte words: output checks keep a
/// digest per response instead of the response, and a word at a time
/// keeps the client's share of the CPU small.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for word in &mut words {
        let mut buf = [0u8; 8];
        buf.copy_from_slice(word);
        hash = (hash ^ u64::from_le_bytes(buf)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in words.remainder() {
        hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ (hash >> 29)
}

/// `.perfbench-tmp/<pid>` under the working directory: sweep output of
/// one run, removed (with the parent, once empty) when dropped.
pub struct TempDirs {
    root: PathBuf,
    next: AtomicUsize,
}

impl TempDirs {
    pub fn create() -> Result<Self, String> {
        let root = Path::new(".perfbench-tmp").join(std::process::id().to_string());
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        Ok(TempDirs {
            root,
            next: AtomicUsize::new(0),
        })
    }

    /// A path for a fresh output directory (not yet created).
    pub fn fresh_dir(&self) -> PathBuf {
        let n = self.next.fetch_add(1, Ordering::Relaxed);
        self.root.join(format!("op-{n}"))
    }

    pub fn root(&self) -> &Path {
        &self.root
    }
}

impl Drop for TempDirs {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.root).ok();
        if let Some(parent) = self.root.parent() {
            std::fs::remove_dir(parent).ok();
        }
    }
}

/// The filesystem type holding `path`, from the longest matching mount
/// point in `/proc/self/mounts`.
pub fn filesystem_of(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace();
            let (_, mount, fstype) = (fields.next()?, fields.next()?, fields.next()?);
            path.starts_with(mount)
                .then(|| (mount.len(), fstype.to_string()))
        })
        .max_by_key(|&(len, _)| len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype)
}
