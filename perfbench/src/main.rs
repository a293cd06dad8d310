//! One benchmark for the verbs mlscale users wait on: sharded and
//! checkpointed sweeps (`mlscale sweep`), the planner daemon under mixed
//! traffic (`POST /sweep`, `/plan`, `/gd`) and the exhibit pass
//! (`exp-all`). DESIGN.md records why each workload exists, what every
//! metric means and which layer should move which metric.
//!
//! Run from the repository root; it reads `scenarios/` and
//! `crates/bench/tests/golden/`, and writes only under `.perfbench-tmp/`,
//! which it removes before exiting:
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep-grid --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones, and `--workload all` runs every workload in turn, each in its own
//! process so that peak memory stays per workload. The last stdout line
//! of a single-workload run is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod exhibits;
mod measure;
mod serve_mix;
mod sweeps;

use measure::{TempDirs, Trace};
use std::process::ExitCode;
use std::time::Duration;

const WORKLOADS: [&str; 4] = ["sweep-grid", "sweep-straggler", "serve-mix", "exhibits"];

const USAGE: &str =
    "usage: mlscale-perfbench --workload <sweep-grid|sweep-straggler|serve-mix|exhibits|all> \
                     --seed <u64> --seconds <n> --trace <0|1>";

/// What a workload gets to work with.
pub struct Ctx {
    pub seed: u64,
    pub window: Duration,
    pub traced: bool,
    pub tmp: TempDirs,
}

/// What one workload run produced.
pub struct Report {
    /// Operations attempted and failed; a failed output check is a
    /// failed operation.
    pub attempted: u64,
    pub failed: u64,
    /// Values for every [`measure::END_TO_END`] metric, by name (untraced
    /// runs only).
    pub end_to_end: Vec<(&'static str, f64)>,
    /// Human-readable context: sample counts and the like.
    pub notes: Vec<String>,
    /// The per-layer accumulator (traced runs only).
    pub trace: Option<Trace>,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
                })
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}"));
    }
    let seconds = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("mlscale-perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&raw);
    }
    match run_one(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("mlscale-perfbench: {}: {msg}", args.workload);
            ExitCode::FAILURE
        }
    }
}

fn run_one(args: &Args) -> Result<(), String> {
    let ctx = Ctx {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        traced: args.trace,
        tmp: TempDirs::create()?,
    };
    println!("runner {}", runner_json(args, &ctx));
    let report = match args.workload.as_str() {
        "sweep-grid" => sweeps::run(&ctx, sweeps::Which::Grid)?,
        "sweep-straggler" => sweeps::run(&ctx, sweeps::Which::Straggler)?,
        "serve-mix" => serve_mix::run(&ctx)?,
        _ => exhibits::run(&ctx)?,
    };
    let metrics: Vec<(String, f64, &str)> = match &report.trace {
        Some(trace) => trace.metrics(),
        None => measure::END_TO_END
            .iter()
            .map(|&(name, unit)| {
                let value = report
                    .end_to_end
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(f64::NAN, |&(_, v)| v);
                (name.to_string(), value, unit)
            })
            .collect(),
    };
    for note in &report.notes {
        println!("note {note}");
    }
    println!(
        "error_rate {} ({} of {} operations failed)",
        measure::ratio(report.failed as f64, report.attempted as f64),
        report.failed,
        report.attempted
    );
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    let correct = report.failed == 0 && report.attempted > 0 && finite;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );
    Ok(())
}

/// Runs every workload as a child process of this binary with the same
/// seed, window and trace flag; fails if any child fails.
fn run_all(raw: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("mlscale-perfbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for workload in WORKLOADS {
        let mut args: Vec<String> = raw.to_vec();
        if let Some(i) = args.iter().position(|a| a == "--workload") {
            args[i + 1] = workload.to_string();
        }
        println!("== {workload}");
        match std::process::Command::new(&exe).args(&args).status() {
            Ok(status) if status.success() => {}
            Ok(status) => {
                eprintln!("mlscale-perfbench: {workload} exited with {status}");
                ok = false;
            }
            Err(e) => {
                eprintln!("mlscale-perfbench: cannot run {workload}: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runner metadata printed with every result: what the numbers depend on.
fn runner_json(args: &Args, ctx: &Ctx) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let rustc = command_line("rustc", &["--version"]);
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \
         \"par_threads\": {}, \"rustc\": \"{rustc}\", \"commit\": \"{}\", \"tmp_fs\": \"{}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        mlscale_core::par::thread_count(),
        command_line("git", &["rev-parse", "HEAD"]),
        measure::filesystem_of(ctx.tmp.root()),
    )
}

/// The first line a command prints, or "unknown" when it cannot run or
/// fails (a benchmark checkout need not be a git repository).
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}
