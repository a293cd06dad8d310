//! `mlscale` — command-line scalability estimation, the paper's suggested
//! integration path ("the possible solution is to integrate the estimation
//! software with such tools as Spark, Hadoop, and Tensorflow").
//!
//! ```text
//! mlscale gd   --params 12e6 --cost-per-example 72e6 --batch 60000 \
//!              --flops 84.48e9 --bandwidth 1e9 --bits 64 --comm spark --max-n 16
//! mlscale gd   --preset fig3 --weak --max-n 200
//! mlscale gd   --preset pod --comm hier --max-n 64
//! mlscale bp   --vertices 165000 --edges 1013000 --max-degree 9800 --max-n 80
//! mlscale plan --preset fig2 --iterations 1000 --price 2.0 --deadline 7200
//! mlscale sweep scenarios/latency-grid.json
//! mlscale scenario explain scenarios/fig2.json
//! ```
//!
//! All flags take `--flag value` form; numbers accept scientific notation.
//! Every parsing failure is fatal: an unknown flag, an unknown `--comm` /
//! `--preset` value, or an unparsable number aborts with a message naming
//! the offending flag and a non-zero exit status — nothing silently falls
//! back to a default.
//!
//! `gd`, `plan` and `bp` lower their flags into the scenario spec
//! (`GdSpec`, `BpSpec`) and check it with the validator behind `sweep` and
//! `serve`, so a verb accepts exactly the inputs its one-point scenario
//! does; a refusal names the flag (`--rack-size`) where the scenario names
//! the key (`workload.rack_size`).

#![forbid(unsafe_code)]

use mlscale::model::planner::{Planner, Pricing};
use mlscale::model::speedup::log_spaced_ns;
use mlscale::model::units::Seconds;
use mlscale::scenario::{
    run_adaptive, run_checkpointed as sweep_run, run_sharded, write_outcome, BpSpec, GdSpec,
    HeteroSpec, PlanSpec, ScenarioSpec, SpecError, StragglerSpec, SweepOutcome, SweepSummary,
    DEFAULT_PER_POINT_MAX,
};
use std::collections::HashMap;
use std::process::exit;

/// Printed, to stderr, when `mlscale` runs with no arguments.
const USAGE: &str = "\
usage: mlscale <gd|bp|plan|sweep|scenario|serve> [--flag value]...

gd   — gradient-descent speedup curve
     --preset fig2|fig3|pod    load a paper/pod configuration
     --params W --cost-per-example C --batch S --bits 32|64
     --flops F --bandwidth B   effective flop/s and bit/s
     --latency s               per-message link latency (alpha)
     --comm tree|spark|linear|ring|halving|hier|none
     --rack-size N             workers per rack (required by hier)
     --uplink-bandwidth B --uplink-latency s   inter-rack uplink
     --max-n N [--weak]        evaluate 1..=N, weak scaling optional
     --log-points P            evaluate a P-point log-spaced ladder
                               to N instead of every n (required
                               above the dense-mode limit)
     --straggler det|jitter:S|exp:MEAN|lognormal:MU:SIGMA
                               per-worker delay distribution (expected times)
     --jitter S                shorthand for --straggler jitter:S
     --hetero slow:COUNT:FACTOR|rack:FACTOR   mixed-speed workers
     --backup-k K              drop the slowest K workers per step
bp   — graph-inference speedup curve (Monte-Carlo max-edges model)
     --vertices V --edges E --max-degree D --states S
     --flops F [--bandwidth B --replication R] --max-n N
plan — cost/deadline provisioning over the gd model
     (gd flags) --iterations K --price $/node-hour
     [--deadline seconds | --budget amount] [--log-points P]
sweep <file.json> [--out DIR] [--resume] [--adaptive]
     [--per-point-max N]
     evaluate the scenario's grid and write results plus a
     roll-up (default DIR: results/sweeps/<name>). Grids up to
     --per-point-max points (default 2048) write one JSON file
     per point; larger grids stream into NDJSON shards of that
     many records, never holding more than one shard in memory.
     Completed work is journaled and --resume skips it (refused
     if the scenario changed). --adaptive (or \"adaptive\": true
     in the spec) evaluates a coarse sub-grid and refines only
     around the (cost, time) Pareto frontier. A machine-readable
     `summary {...}` line closes every sweep
scenario <validate|explain> <file.json>
     check a scenario spec / print its expanded grid
serve [--addr HOST:PORT] [--threads N]
     long-lived planner daemon: POST scenario-spec JSON to
     /gd, /plan or /sweep (default addr 127.0.0.1:7878; port 0
     picks a free port; threads default to MLSCALE_THREADS or
     the machine width)";

fn usage() -> ! {
    eprintln!("{USAGE}");
    exit(2)
}

/// Fatal flag error: names the offending flag, exits non-zero.
fn die(msg: impl std::fmt::Display) -> ! {
    eprintln!("error: {msg}");
    eprintln!("run `mlscale` with no arguments for usage");
    exit(2)
}

/// Flags that take no value.
const BOOLEAN_FLAGS: &[&str] = &["weak", "resume", "adaptive"];

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let Some(key) = args[i].strip_prefix("--") else {
            die(format_args!(
                "unexpected argument {:?} (flags take --flag value form)",
                args[i]
            ))
        };
        let key = key.to_string();
        if key.is_empty() {
            die("empty flag name `--`");
        }
        let (value, step) = if BOOLEAN_FLAGS.contains(&key.as_str()) {
            ("true".to_string(), 1)
        } else {
            match args.get(i + 1) {
                Some(v) => (v.clone(), 2),
                None => die(format_args!("flag --{key} needs a value")),
            }
        };
        if flags.insert(key.clone(), value).is_some() {
            die(format_args!("flag --{key} given more than once"));
        }
        i += step;
    }
    flags
}

/// Rejects any flag outside `allowed`, naming the offender and command.
fn check_allowed(command: &str, flags: &HashMap<String, String>, allowed: &[&str]) {
    for key in flags.keys() {
        if !allowed.contains(&key.as_str()) {
            die(format_args!("unknown flag --{key} for `mlscale {command}`"));
        }
    }
}

/// Parses one number of a flag value, naming the flag on failure. Only
/// the syntax is checked here: ranges are the scenario validator's.
fn number(flag: &str, raw: &str) -> f64 {
    raw.parse()
        .unwrap_or_else(|_| die(format_args!("--{flag}: cannot parse {raw:?} as a number")))
}

/// Parses an optional number flag.
fn float(flags: &HashMap<String, String>, key: &str) -> Option<f64> {
    flags.get(key).map(|v| number(key, v))
}

/// Parses a number flag the command cannot run without.
fn required(flags: &HashMap<String, String>, key: &str) -> f64 {
    float(flags, key).unwrap_or_else(|| die(format_args!("missing required flag --{key}")))
}

/// Parses a strictly positive integer (no silent truncation of `3.7` or
/// `-1`), naming the flag on failure.
fn int(flags: &HashMap<String, String>, key: &str, default: Option<usize>) -> usize {
    match flags.get(key) {
        Some(v) => match v.parse::<usize>() {
            Ok(0) => die(format_args!("--{key}: must be at least 1")),
            Ok(x) => x,
            Err(_) => die(format_args!(
                "--{key}: cannot parse {v:?} as a positive integer"
            )),
        },
        None => match default {
            Some(d) => d,
            None => die(format_args!("missing required flag --{key}")),
        },
    }
}

/// Parses an optional non-negative integer flag (no silent truncation of
/// `3.7` or `-1`); which values are in range is the scenario validator's
/// call.
fn uint(flags: &HashMap<String, String>, key: &str) -> Option<usize> {
    let v = flags.get(key)?;
    Some(v.parse().unwrap_or_else(|_| {
        die(format_args!(
            "--{key}: cannot parse {v:?} as a non-negative integer"
        ))
    }))
}

/// Straggler-scenario flags (valid for `gd` and `plan`, composable with
/// `--preset`: presets fix the hardware and workload, the scenario is an
/// orthogonal runtime axis).
const STRAGGLER_FLAGS: &[&str] = &["straggler", "jitter", "hetero", "backup-k"];

/// Lowers `--straggler` / `--jitter` into the spec's delay distribution.
fn straggler_flag(flags: &HashMap<String, String>) -> Option<StragglerSpec> {
    if flags.contains_key("straggler") && flags.contains_key("jitter") {
        die("--jitter is shorthand for --straggler jitter:S; pass only one of them");
    }
    if let Some(spread) = float(flags, "jitter") {
        return Some(StragglerSpec::Jitter { spread });
    }
    let spec = flags.get("straggler")?;
    let parts: Vec<&str> = spec.split(':').collect();
    Some(match parts.as_slice() {
        ["det"] => StragglerSpec::Det,
        ["jitter", spread] => StragglerSpec::Jitter {
            spread: number("straggler", spread),
        },
        ["exp", mean] => StragglerSpec::Exp {
            mean: number("straggler", mean),
        },
        ["lognormal", mu, sigma] => StragglerSpec::LogNormal {
            mu: number("straggler", mu),
            sigma: number("straggler", sigma),
        },
        _ => die(format_args!(
            "unknown --straggler {spec:?} (use det, jitter:S, exp:MEAN or lognormal:MU:SIGMA)"
        )),
    })
}

/// Lowers `--hetero` into the spec's heterogeneity.
fn hetero_flag(flags: &HashMap<String, String>) -> Option<HeteroSpec> {
    let spec = flags.get("hetero")?;
    let parts: Vec<&str> = spec.split(':').collect();
    Some(match parts.as_slice() {
        ["slow", count, factor] => HeteroSpec::Slow {
            count: count.parse().unwrap_or_else(|_| {
                die(format_args!(
                    "--hetero: cannot parse worker count {count:?} as a non-negative integer"
                ))
            }),
            factor: number("hetero", factor),
        },
        ["rack", factor] => HeteroSpec::Rack {
            factor: number("hetero", factor),
        },
        _ => die(format_args!(
            "unknown --hetero {spec:?} (use slow:COUNT:FACTOR or rack:FACTOR)"
        )),
    })
}

/// Flags of the gd model (shared by `gd` and `plan`).
const GD_MODEL_FLAGS: &[&str] = &[
    "preset",
    "params",
    "cost-per-example",
    "batch",
    "bits",
    "flops",
    "bandwidth",
    "latency",
    "comm",
    "rack-size",
    "uplink-bandwidth",
    "uplink-latency",
];

/// Lowers the gd model, range and straggler flags into the scenario
/// spec's [`GdSpec`]. Only flag syntax is checked here: every range and
/// consistency rule is [`GdSpec::validate`]'s, the validator behind
/// `mlscale sweep` and `mlscale serve`, so the three cannot disagree.
fn gd_spec(flags: &HashMap<String, String>, default_max_n: usize) -> GdSpec {
    GdSpec {
        preset: flags.get("preset").cloned(),
        params: float(flags, "params"),
        cost_per_example: float(flags, "cost-per-example"),
        batch: float(flags, "batch"),
        bits: uint(flags, "bits"),
        flops: float(flags, "flops"),
        bandwidth: float(flags, "bandwidth"),
        latency: float(flags, "latency"),
        comm: flags.get("comm").cloned(),
        rack_size: uint(flags, "rack-size"),
        uplink_bandwidth: float(flags, "uplink-bandwidth"),
        uplink_latency: float(flags, "uplink-latency"),
        max_n: uint(flags, "max-n").unwrap_or(default_max_n),
        log_points: uint(flags, "log-points"),
        weak: flags.contains_key("weak"),
        straggler: straggler_flag(flags),
        hetero: hetero_flag(flags),
        backup_k: uint(flags, "backup-k").unwrap_or(0),
        plan: None,
    }
}

/// Whether any straggler flag was given: even a zero-valued one selects
/// the expected-time output of `gd` and `plan`.
fn stochastic(flags: &HashMap<String, String>) -> bool {
    flags.keys().any(|k| STRAGGLER_FLAGS.contains(&k.as_str()))
}

/// Reports a spec diagnostic in flag terms and exits 2. The key path
/// names the flag (`workload.rack_size` → `--rack-size`,
/// `workload.plan.budget` → `--budget`, `workload.straggler.*` →
/// `--straggler` or `--jitter`, whichever was given), and snake_case
/// keys inside the message are spelled as flags too.
fn die_spec(e: SpecError, flags: &HashMap<String, String>) -> ! {
    let key = e.path.strip_prefix("workload.").unwrap_or(&e.path);
    let key = key.strip_prefix("plan.").unwrap_or(key);
    let key = key.split_once('.').map_or(key, |(head, _)| head);
    let flag = match key {
        "straggler" if flags.contains_key("jitter") => "jitter".to_string(),
        _ => key.replace('_', "-"),
    };
    let words: Vec<String> = e.message.split(' ').map(flag_word).collect();
    die(format_args!("--{flag}: {}", words.join(" ")))
}

/// One word of a diagnostic, spelled as a flag if it is a snake_case
/// spec key (`log_points;` → `--log-points;`).
fn flag_word(word: &str) -> String {
    let key = word.trim_end_matches([';', ',', ':', ')']);
    if key.contains('_') && key.bytes().all(|b| b.is_ascii_lowercase() || b == b'_') {
        format!("--{}{}", key.replace('_', "-"), &word[key.len()..])
    } else {
        word.to_string()
    }
}

/// The worker counts a gd/plan verb evaluates: dense `1..=max_n`, or a
/// log-spaced ladder when `--log-points` is given.
fn sweep_ns(max_n: usize, log_points: Option<usize>) -> (Vec<usize>, String) {
    match log_points {
        Some(p) => (
            log_spaced_ns(max_n, p),
            format!("n on a {p}-point log ladder to {max_n}"),
        ),
        None => ((1..=max_n).collect(), format!("n = 1..={max_n}")),
    }
}

fn cmd_gd(flags: &HashMap<String, String>) {
    let mut allowed = GD_MODEL_FLAGS.to_vec();
    allowed.extend(["max-n", "weak", "log-points"]);
    allowed.extend(STRAGGLER_FLAGS);
    check_allowed("gd", flags, &allowed);
    let gd = gd_spec(flags, 32);
    let model = gd
        .validate("workload")
        .and_then(|()| gd.build())
        .unwrap_or_else(|e| die_spec(e, flags));
    let (ns, range) = sweep_ns(gd.max_n, gd.log_points);
    let curve = match (stochastic(flags), gd.weak) {
        (true, true) => {
            println!("expected weak scaling under stragglers (per-instance time), {range}:\n");
            model.weak_curve(ns)
        }
        (true, false) => {
            println!("expected strong scaling under stragglers (per-iteration time), {range}:\n");
            model.strong_curve(ns)
        }
        (false, true) => {
            println!("weak scaling (per-instance time), {range}:\n");
            model.inner.weak_curve(ns)
        }
        (false, false) => {
            println!("strong scaling (per-iteration time), {range}:\n");
            model.inner.strong_curve(ns)
        }
    };
    println!("{}", curve.to_table());
    let (n_opt, s_opt) = curve.optimal();
    println!("optimal workers: {n_opt} (speedup {s_opt:.2}x)");
    println!("90%-of-peak knee: {}", curve.knee(0.9));
    if let Some(onset) = model.inner.comm_dominance_onset(gd.max_n) {
        println!("communication exceeds computation from n = {onset}");
    } else {
        println!("computation dominates across the whole range");
    }
}

fn cmd_bp(flags: &HashMap<String, String>) {
    check_allowed(
        "bp",
        flags,
        &[
            "vertices",
            "edges",
            "max-degree",
            "states",
            "flops",
            "bandwidth",
            "replication",
            "max-n",
        ],
    );
    let bp = BpSpec {
        vertices: required(flags, "vertices"),
        edges: required(flags, "edges"),
        max_degree: float(flags, "max-degree"),
        states: uint(flags, "states").unwrap_or(2),
        flops: float(flags, "flops").unwrap_or(7.6e9),
        // Shared memory (infinite bandwidth) unless given.
        bandwidth: float(flags, "bandwidth"),
        replication: float(flags, "replication").unwrap_or(0.5),
        max_n: uint(flags, "max-n").unwrap_or(80),
    };
    bp.validate("workload")
        .unwrap_or_else(|e| die_spec(e, flags));
    // The same model a one-point bp scenario evaluates: the degree
    // sequence from the calibrated Zipf weights, Monte-Carlo edge loads.
    let (model, gamma) = bp.build();
    println!(
        "degree model: Zipf gamma = {gamma:.3}, hub degree ~{:.0}, avg {:.1}\n",
        bp.hub_degree(),
        2.0 * bp.edges / bp.vertices
    );
    let curve = model.curve(1..=bp.max_n);
    println!("{}", curve.to_table());
    let (n_opt, s_opt) = curve.optimal();
    println!("optimal workers: {n_opt} (speedup {s_opt:.2}x)");
}

fn cmd_plan(flags: &HashMap<String, String>) {
    let mut allowed = GD_MODEL_FLAGS.to_vec();
    allowed.extend([
        "iterations",
        "price",
        "max-n",
        "deadline",
        "budget",
        "log-points",
    ]);
    allowed.extend(STRAGGLER_FLAGS);
    check_allowed("plan", flags, &allowed);
    let plan = PlanSpec {
        iterations: float(flags, "iterations").unwrap_or(1000.0),
        price: float(flags, "price").unwrap_or(1.0),
        deadline: float(flags, "deadline"),
        budget: float(flags, "budget"),
    };
    let gd = GdSpec {
        plan: Some(plan),
        ..gd_spec(flags, 64)
    };
    let model = gd
        .validate("workload")
        .and_then(|()| gd.build())
        .unwrap_or_else(|e| die_spec(e, flags));
    let stochastic = stochastic(flags);
    if stochastic {
        println!("planning over *expected* times under the straggler scenario");
    }
    // The sweep is evaluated once into the planner's cached table (all
    // four query verbs reuse it) and fans out across threads; the
    // straggler path additionally shares one order-statistic grid pass
    // across the whole sweep. With --log-points the table is a log-spaced
    // ladder refined around each optimum instead of a dense 1..=max_n scan.
    let pricing = Pricing::hourly(plan.price);
    let inner = model.inner;
    let time = move |n| inner.strong_iteration_time(n) * plan.iterations;
    let planner = match (stochastic, gd.log_points) {
        (true, Some(p)) => model.planner_log(plan.iterations, gd.max_n, pricing, p),
        (true, None) => model.planner(plan.iterations, gd.max_n, pricing),
        (false, Some(p)) => Planner::new_log(time, gd.max_n, pricing, p),
        (false, None) => Planner::new_par(time, gd.max_n, pricing),
    };
    let fastest = planner.fastest();
    let cheapest = planner.cheapest();
    println!(
        "fastest:  n = {:>3}, time {:>10.1} s, cost {:>10.2}",
        fastest.n,
        fastest.time.as_secs(),
        fastest.cost
    );
    println!(
        "cheapest: n = {:>3}, time {:>10.1} s, cost {:>10.2}",
        cheapest.n,
        cheapest.time.as_secs(),
        cheapest.cost
    );
    if let Some(deadline) = plan.deadline.map(Seconds::new) {
        match planner.cheapest_within_deadline(deadline) {
            Some(p) => println!(
                "cheapest within {:.0} s deadline: n = {}, time {:.1} s, cost {:.2}",
                deadline.as_secs(),
                p.n,
                p.time.as_secs(),
                p.cost
            ),
            None => println!(
                "no configuration up to n = {} meets the {:.0} s deadline — \
                 the estimate prevented a doomed deployment",
                gd.max_n,
                deadline.as_secs()
            ),
        }
    }
    if let Some(budget) = plan.budget {
        match planner.fastest_within_budget(budget) {
            Some(p) => println!(
                "fastest within budget {budget:.2}: n = {}, time {:.1} s, cost {:.2}",
                p.n,
                p.time.as_secs(),
                p.cost
            ),
            None => println!("even one node exceeds the budget of {budget:.2}"),
        }
    }
}

/// Loads and validates a scenario file, exiting with status 2 and the
/// offending key's full path on any failure.
fn load_scenario(path: &str) -> ScenarioSpec {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(format_args!("cannot read scenario {path}: {e}")));
    ScenarioSpec::from_json(&text).unwrap_or_else(|e| die(format_args!("{path}: {e}")))
}

/// Splits a verb's arguments into one leading positional (the scenario
/// file) and the trailing `--flag value` pairs.
fn positional<'a>(command: &str, args: &'a [String]) -> (&'a str, &'a [String]) {
    match args.first() {
        Some(first) if !first.starts_with("--") => (first, &args[1..]),
        _ => die(format_args!(
            "`mlscale {command}` needs a scenario file as its first argument"
        )),
    }
}

fn cmd_sweep(args: &[String]) {
    let (path, rest) = positional("sweep", args);
    let flags = parse_flags(rest);
    check_allowed(
        "sweep",
        &flags,
        &["out", "resume", "adaptive", "per-point-max"],
    );
    let resume = flags.contains_key("resume");
    let per_point_max = int(&flags, "per-point-max", Some(DEFAULT_PER_POINT_MAX));
    let mut spec = load_scenario(path);
    if flags.contains_key("adaptive") {
        spec.adaptive = true;
        if spec.sweep.is_empty() {
            die("--adaptive: adaptive refinement needs a non-empty sweep (there is no grid to refine)");
        }
    }
    // The grid size comes from the axis lengths — the engine generates
    // (and labels) the points lazily; nothing is expanded here.
    let grid_size = spec
        .grid_len()
        .unwrap_or_else(|e| die(format_args!("{path}: {e}")));
    let out_dir = match flags.get("out") {
        Some(dir) => std::path::PathBuf::from(dir),
        None => std::path::PathBuf::from("results/sweeps").join(&spec.name),
    };
    println!(
        "sweep {}: {} grid point(s), {} axis/axes",
        spec.name,
        grid_size,
        spec.sweep.len()
    );

    let summary = if spec.adaptive {
        // Adaptive: evaluate a coarse sub-grid, refine around the
        // (cost, time) Pareto frontier. The point selection depends on
        // what has been seen, so there is no journal to resume from.
        if resume {
            die(
                "--resume: an adaptive sweep picks its points from the frontier as it goes, \
                 so there is no journal to resume — drop --resume (adaptive re-runs are cheap) \
                 or drop --adaptive",
            );
        }
        let adaptive = run_adaptive(&spec).unwrap_or_else(|e| die(format_args!("{path}: {e}")));
        let paths = write_outcome(&adaptive.outcome, &out_dir).unwrap_or_else(|e| {
            die(format_args!(
                "cannot write results to {}: {e}",
                out_dir.display()
            ))
        });
        println!(
            "adaptive: evaluated {} of {} grid point(s), {} on the frontier",
            adaptive.outcome.points.len(),
            grid_size,
            adaptive.frontier.len()
        );
        print_point_table(&adaptive.outcome);
        println!();
        for f in &adaptive.frontier {
            println!("frontier: {}  cost {}  time {} s", f.id, f.cost, f.time);
        }
        print_wrote_line(paths.len(), &out_dir, paths.last());
        SweepSummary {
            name: spec.name.clone(),
            mode: "adaptive",
            grid_points: grid_size,
            evaluated: adaptive.outcome.points.len(),
            resumed: 0,
            files: paths.len(),
            shards: 0,
            frontier: adaptive.frontier.iter().map(|f| (f.cost, f.time)).collect(),
        }
    } else if grid_size <= per_point_max {
        // Per-point files, journaled as each point lands, so an
        // interrupted run picks up with --resume instead of starting
        // over.
        let checkpointed =
            sweep_run(&spec, &out_dir, resume).unwrap_or_else(|e| die(format_args!("{path}: {e}")));
        if checkpointed.resumed > 0 {
            println!(
                "resumed: {} of {} point(s) restored from the journal",
                checkpointed.resumed, grid_size
            );
        }
        print_point_table(&checkpointed.outcome);
        print_wrote_line(
            checkpointed.paths.len(),
            &out_dir,
            checkpointed.paths.last(),
        );
        SweepSummary {
            name: spec.name.clone(),
            mode: "per-point",
            grid_points: grid_size,
            evaluated: grid_size,
            resumed: checkpointed.resumed,
            files: checkpointed.paths.len(),
            shards: 0,
            frontier: Vec::new(),
        }
    } else {
        // Past the per-point threshold the sweep streams through the
        // sharded store: NDJSON shards of up to --per-point-max records,
        // journaled per shard, never holding more than one shard in
        // memory.
        let sharded = run_sharded(&spec, &out_dir, resume, per_point_max)
            .unwrap_or_else(|e| die(format_args!("{path}: {e}")));
        if sharded.resumed > 0 {
            println!(
                "resumed: {} of {} point(s) restored from the journal",
                sharded.resumed, grid_size
            );
        }
        println!(
            "sharded store: {} shard(s) of up to {} record(s) each (grid exceeds --per-point-max {})",
            sharded.shards, per_point_max, per_point_max
        );
        print_wrote_line(sharded.paths.len(), &out_dir, sharded.paths.last());
        SweepSummary {
            name: spec.name.clone(),
            mode: "sharded",
            grid_points: grid_size,
            evaluated: grid_size,
            resumed: sharded.resumed,
            files: sharded.paths.len(),
            shards: sharded.shards,
            frontier: Vec::new(),
        }
    };
    match summary.to_json() {
        Ok(json) => println!("summary {json}"),
        Err(e) => die(e),
    }
}

/// The per-point stdout table (per-point and adaptive modes — sharded
/// sweeps are far too large to print).
fn print_point_table(outcome: &SweepOutcome) {
    println!(
        "\n{:<24} {:>10} {:>14} {:>16}",
        "point", "optimal n", "peak speedup", "time at opt (s)"
    );
    for (point, result) in outcome.grid.iter().zip(&outcome.points) {
        // Exhibit results carry their own stat labels (e.g. "optimal n
        // (model, full range)"), so a missing generic stat renders as a
        // dash, not a bogus 0/NaN.
        let stat = |label: &str, decimals: usize| {
            result
                .stats
                .iter()
                .find(|s| s.label == label)
                .map_or_else(|| "-".to_string(), |s| format!("{:.*}", decimals, s.value))
        };
        println!(
            "{:<24} {:>10} {:>14} {:>16}   {}",
            result.id,
            stat("optimal n", 0),
            stat("peak speedup", 3),
            stat("time at optimum s", 6),
            point.label()
        );
    }
}

fn print_wrote_line(files: usize, out_dir: &std::path::Path, rollup: Option<&std::path::PathBuf>) {
    println!(
        "\nwrote {} results file(s) to {} (roll-up: {})",
        files,
        out_dir.display(),
        rollup.map(|p| p.display().to_string()).unwrap_or_default()
    );
}

fn cmd_scenario(args: &[String]) {
    let Some((verb, rest)) = args.split_first() else {
        die("`mlscale scenario` needs a sub-command: validate or explain")
    };
    match verb.as_str() {
        "validate" => {
            let (path, rest) = positional("scenario validate", rest);
            check_allowed("scenario validate", &parse_flags(rest), &[]);
            // `load_scenario` already dry-ran every grid point through
            // `ScenarioSpec::validate` (streaming — the cross product is
            // never materialised); only the count is needed here.
            let spec = load_scenario(path);
            let total = spec
                .grid_len()
                .unwrap_or_else(|e| die(format_args!("{path}: {e}")));
            println!(
                "ok: {} — {} grid point(s) over {} axis/axes",
                spec.name,
                total,
                spec.sweep.len()
            );
        }
        "explain" => {
            let (path, rest) = positional("scenario explain", rest);
            check_allowed("scenario explain", &parse_flags(rest), &[]);
            let spec = load_scenario(path);
            println!("scenario {} — {}", spec.name, spec.display_title());
            let kind = match &spec.workload {
                mlscale::scenario::WorkloadSpec::Gd(gd) => format!(
                    "gd ({}, max_n {}, {})",
                    gd.preset.as_deref().map_or_else(
                        || "explicit hardware".to_string(),
                        |p| format!("preset {p}")
                    ),
                    gd.max_n,
                    if gd.weak {
                        "weak scaling"
                    } else {
                        "strong scaling"
                    }
                ),
                mlscale::scenario::WorkloadSpec::Bp(bp) => {
                    format!("bp (V={}, E={}, max_n {})", bp.vertices, bp.edges, bp.max_n)
                }
                mlscale::scenario::WorkloadSpec::Exhibit(ex) => {
                    format!("exhibit {} (byte-identical to its binary)", ex.id)
                }
            };
            println!("workload: {kind}");
            for (i, axis) in spec.sweep.iter().enumerate() {
                let values: Vec<String> = axis.values.iter().map(|v| v.to_string()).collect();
                println!("axis {i}: {} = [{}]", axis.param, values.join(", "));
            }
            let total = spec
                .grid_len()
                .unwrap_or_else(|e| die(format_args!("{path}: {e}")));
            println!("grid: {total} point(s)");
            // Streamed, one point at a time — explaining a million-point
            // grid costs a million lines of stdout, not a million resident
            // GridPoints.
            let points = spec
                .grid_iter()
                .unwrap_or_else(|e| die(format_args!("{path}: {e}")));
            for point in points {
                println!(
                    "  {}  {}",
                    point.id,
                    if point.assignments.is_empty() {
                        "single configuration".to_string()
                    } else {
                        point.label()
                    }
                );
            }
        }
        other => die(format_args!(
            "unknown scenario sub-command {other:?} (use validate or explain)"
        )),
    }
}

/// Runs the planner daemon (`mlscale serve`). Startup is refused with a
/// named exit-2 diagnostic — never a panic — on an unusable `--addr`,
/// `--threads`, or `MLSCALE_THREADS`.
fn cmd_serve(flags: &HashMap<String, String>) {
    check_allowed("serve", flags, &["addr", "threads"]);
    let addr = flags.get("addr").map_or("127.0.0.1:7878", String::as_str);
    let threads = match flags.contains_key("threads") {
        true => int(flags, "threads", None),
        false => mlscale::model::par::try_thread_count().unwrap_or_else(|e| die(e)),
    };
    let server = mlscale::serve::Server::bind(addr, threads)
        .unwrap_or_else(|e| die(format_args!("--addr: cannot bind {addr:?}: {e}")));
    let local = server
        .local_addr()
        .unwrap_or_else(|e| die(format_args!("cannot read the bound address: {e}")));
    println!(
        "listening on http://{local} ({} worker thread(s))",
        server.threads()
    );
    println!("endpoints: POST /gd, /plan, /sweep — scenario-spec JSON bodies");
    // SIGTERM/SIGINT drain: stop accepting, answer what is in flight,
    // then run() returns and the process exits 0.
    mlscale::serve::signal::install();
    server.run();
    println!("drained: in-flight requests finished, listener closed");
}

fn main() {
    // Validate MLSCALE_THREADS and MLSCALE_FAULTS up front for every
    // verb: a typo'd value must be a named exit-2 diagnostic, not a
    // panic out of the first parallel map or a silently unarmed fault.
    if let Err(e) = mlscale::model::par::try_thread_count() {
        die(e);
    }
    if let Err(e) = mlscale::model::faultpoint::check_env() {
        die(e);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        usage()
    };
    match command.as_str() {
        "gd" => cmd_gd(&parse_flags(rest)),
        "bp" => cmd_bp(&parse_flags(rest)),
        "plan" => cmd_plan(&parse_flags(rest)),
        "sweep" => cmd_sweep(rest),
        "scenario" => cmd_scenario(rest),
        "serve" => cmd_serve(&parse_flags(rest)),
        other => die(format_args!(
            "unknown command {other:?} (use gd, bp, plan, sweep, scenario or serve)"
        )),
    }
}
