//! End-to-end tests of the `mlscale` CLI: happy paths keep printing the
//! paper's answers, and every malformed input fails loudly — non-zero
//! exit, message naming the offending flag — instead of silently falling
//! back to a default.

use std::process::{Command, Output};

fn mlscale(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_mlscale"))
        .args(args)
        .output()
        .expect("failed to spawn mlscale")
}

fn stderr_of(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn fig2_preset_reports_the_paper_optimum() {
    let out = mlscale(&["gd", "--preset", "fig2", "--max-n", "13"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("optimal workers: 9"),
        "Fig 2 answer lost:\n{stdout}"
    );
}

#[test]
fn pod_preset_runs_hierarchical_comm() {
    let out = mlscale(&["gd", "--preset", "pod", "--max-n", "64"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("optimal workers:"));
}

#[test]
fn hierarchical_comm_by_hand_needs_rack_size() {
    let out = mlscale(&[
        "gd",
        "--params",
        "12e6",
        "--cost-per-example",
        "72e6",
        "--batch",
        "60000",
        "--flops",
        "84.48e9",
        "--comm",
        "hier",
    ]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--rack-size"));
}

#[test]
fn hierarchical_comm_with_rack_flags_runs() {
    let out = mlscale(&[
        "gd",
        "--params",
        "12e6",
        "--cost-per-example",
        "72e6",
        "--batch",
        "60000",
        "--flops",
        "84.48e9",
        "--bandwidth",
        "10e9",
        "--latency",
        "5e-6",
        "--comm",
        "hier",
        "--rack-size",
        "16",
        "--uplink-bandwidth",
        "1e9",
        "--uplink-latency",
        "50e-6",
        "--max-n",
        "48",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
}

#[test]
fn unknown_comm_value_fails_loudly() {
    let out = mlscale(&[
        "gd",
        "--params",
        "1e6",
        "--cost-per-example",
        "6e6",
        "--batch",
        "100",
        "--flops",
        "1e9",
        "--comm",
        "mesh",
    ]);
    assert!(!out.status.success(), "unknown --comm must not fall back");
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(err.contains("--comm") && err.contains("mesh"), "got: {err}");
}

#[test]
fn unparsable_number_names_the_flag() {
    let out = mlscale(&["gd", "--preset", "fig2", "--max-n", "lots"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--max-n") && err.contains("lots"),
        "got: {err}"
    );
}

#[test]
fn fractional_worker_count_rejected_not_truncated() {
    let out = mlscale(&["gd", "--preset", "fig2", "--max-n", "13.7"]);
    assert!(
        !out.status.success(),
        "13.7 workers must not truncate to 13"
    );
    assert!(stderr_of(&out).contains("--max-n"));
}

#[test]
fn zero_divisor_flags_rejected_cleanly() {
    // Zero flop rates / bandwidths / workload sizes would panic deep in
    // the unit algebra; the CLI must refuse them up front, naming the flag.
    for (flag, args) in [
        (
            "--flops",
            vec![
                "gd",
                "--params",
                "1e6",
                "--cost-per-example",
                "6e6",
                "--batch",
                "100",
                "--flops",
                "0",
            ],
        ),
        (
            "--bandwidth",
            vec![
                "gd",
                "--params",
                "1e6",
                "--cost-per-example",
                "6e6",
                "--batch",
                "100",
                "--flops",
                "1e9",
                "--bandwidth",
                "0",
            ],
        ),
        (
            "--batch",
            vec![
                "gd",
                "--params",
                "1e6",
                "--cost-per-example",
                "6e6",
                "--batch",
                "0",
                "--flops",
                "1e9",
            ],
        ),
    ] {
        let out = mlscale(&args);
        assert!(!out.status.success(), "{flag} 0 must be rejected");
        assert_eq!(
            out.status.code(),
            Some(2),
            "{flag} 0 must exit 2, not panic"
        );
        let err = stderr_of(&out);
        assert!(
            err.contains(flag) && err.contains("positive"),
            "{flag}: got {err}"
        );
    }
}

#[test]
fn unknown_flag_rejected() {
    let out = mlscale(&["gd", "--preset", "fig2", "--max-m", "13"]);
    assert!(!out.status.success(), "typo'd flag must not be ignored");
    assert!(stderr_of(&out).contains("--max-m"));
}

#[test]
fn preset_conflicts_with_model_flags() {
    let out = mlscale(&["gd", "--preset", "fig2", "--params", "1e6"]);
    assert!(!out.status.success(), "--params would be silently ignored");
    let err = stderr_of(&out);
    assert!(err.contains("--params") && err.contains("preset"));
}

#[test]
fn missing_value_and_duplicates_rejected() {
    let out = mlscale(&["gd", "--preset"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--preset"));
    let out = mlscale(&["gd", "--preset", "fig2", "--preset", "fig3"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("more than once"));
}

#[test]
fn plan_deadline_parse_failure_names_flag() {
    let out = mlscale(&["plan", "--preset", "fig2", "--deadline", "soon"]);
    assert!(!out.status.success());
    let err = stderr_of(&out);
    assert!(
        err.contains("--deadline") && err.contains("soon"),
        "got: {err}"
    );
}

#[test]
fn plan_happy_path_reports_fastest_and_cheapest() {
    let out = mlscale(&[
        "plan",
        "--preset",
        "fig2",
        "--iterations",
        "100",
        "--price",
        "2.0",
        "--deadline",
        "7200",
        "--budget",
        "50",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fastest:") && stdout.contains("cheapest:"));
}

#[test]
fn unknown_command_fails() {
    let out = mlscale(&["train"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("train"));
}

#[test]
fn bp_negative_input_rejected() {
    let out = mlscale(&["bp", "--vertices", "-5", "--edges", "100"]);
    assert!(!out.status.success());
    assert!(stderr_of(&out).contains("--vertices"));
}

#[test]
fn straggler_scenario_reports_expected_curve() {
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--max-n",
        "13",
        "--straggler",
        "exp:4",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("expected strong scaling under stragglers"),
        "must announce the stochastic regime:\n{stdout}"
    );
    assert!(stdout.contains("optimal workers:"));
}

#[test]
fn zero_jitter_scenario_keeps_the_paper_answer() {
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--max-n",
        "13",
        "--straggler",
        "exp:0",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("optimal workers: 9"),
        "zero-mean tail must degenerate to the paper's optimum:\n{stdout}"
    );
}

#[test]
fn invalid_straggler_specs_fail_loudly() {
    for spec in [
        "bogus",
        "exp",
        "exp:lots",
        "exp:-1",
        "lognormal:0",
        "jitter:-2",
    ] {
        let out = mlscale(&["gd", "--preset", "fig2", "--straggler", spec]);
        assert!(!out.status.success(), "--straggler {spec} must be rejected");
        assert_eq!(out.status.code(), Some(2), "--straggler {spec} must exit 2");
        assert!(
            stderr_of(&out).contains("--straggler"),
            "--straggler {spec}: got {}",
            stderr_of(&out)
        );
    }
}

#[test]
fn invalid_backup_k_values_fail_loudly() {
    for bad in ["-1", "2.5", "many"] {
        let out = mlscale(&[
            "gd",
            "--preset",
            "fig2",
            "--straggler",
            "exp:1",
            "--backup-k",
            bad,
        ]);
        assert!(!out.status.success(), "--backup-k {bad} must be rejected");
        assert_eq!(out.status.code(), Some(2));
        assert!(stderr_of(&out).contains("--backup-k"));
    }
    // Dropping every worker is meaningless.
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--straggler",
        "exp:1",
        "--max-n",
        "8",
        "--backup-k",
        "8",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--backup-k"));
}

#[test]
fn backup_k_without_a_scenario_rejected() {
    let out = mlscale(&["gd", "--preset", "fig2", "--backup-k", "2"]);
    assert!(!out.status.success(), "a no-op --backup-k must be loud");
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--backup-k"));
}

#[test]
fn duplicate_and_conflicting_straggler_flags_rejected() {
    // The same flag twice.
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--straggler",
        "exp:1",
        "--straggler",
        "exp:2",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("more than once"));
    // Two ways of specifying the same distribution.
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--straggler",
        "exp:1",
        "--jitter",
        "0.5",
    ]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--jitter") && err.contains("--straggler"),
        "got: {err}"
    );
}

#[test]
fn rack_heterogeneity_conflicts_with_flat_presets() {
    // fig2 is a flat cluster: rack-decay heterogeneity has nothing to
    // attach to and must not be silently ignored.
    let out = mlscale(&["gd", "--preset", "fig2", "--hetero", "rack:0.8"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--hetero") && err.contains("rack"),
        "got: {err}"
    );
    // On the racked pod preset the same flag is valid.
    let out = mlscale(&[
        "gd", "--preset", "pod", "--hetero", "rack:0.8", "--max-n", "48",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
}

#[test]
fn invalid_hetero_specs_fail_loudly() {
    for spec in ["bogus", "slow:2", "slow:x:0.5", "slow:2:0", "rack:-1"] {
        let out = mlscale(&["gd", "--preset", "pod", "--hetero", spec]);
        assert!(!out.status.success(), "--hetero {spec} must be rejected");
        assert_eq!(out.status.code(), Some(2), "--hetero {spec} must exit 2");
        assert!(stderr_of(&out).contains("--hetero"));
    }
}

#[test]
fn rack_decay_past_the_float_range_is_refused_before_printing() {
    // 6,250 racks of 16: the last rack's speed 0.8^6249 underflows to 0
    // and 1.5^6249 overflows to inf, so neither cluster has a runtime.
    for hetero in ["rack:0.8", "rack:1.5"] {
        let out = mlscale(&[
            "gd",
            "--preset",
            "pod",
            "--max-n",
            "100000",
            "--log-points",
            "30",
            "--straggler",
            "lognormal:-2:0.8",
            "--hetero",
            hetero,
        ]);
        assert_eq!(out.status.code(), Some(2), "{hetero}: {}", stderr_of(&out));
        assert!(
            out.stdout.is_empty(),
            "{hetero}: printed before refusing:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let err = stderr_of(&out);
        assert!(
            err.contains("--hetero") && err.contains("--max-n"),
            "got: {err}"
        );
    }
    assert_rejected(
        "rack-decay-underflow",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "pod", "max_n": 100000,
            "log_points": 30, "straggler": {"kind": "lognormal", "mu": -2, "sigma": 0.8},
            "hetero": {"kind": "rack", "factor": 0.8}}}"#,
        "workload.hetero.factor",
    );
}

#[test]
fn preset_model_flag_conflict_still_fires_with_straggler_flags() {
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--straggler",
        "exp:1",
        "--params",
        "1e6",
    ]);
    assert!(!out.status.success(), "--params would be silently ignored");
    let err = stderr_of(&out);
    assert!(err.contains("--params") && err.contains("preset"));
}

#[test]
fn plan_with_stragglers_uses_expected_times() {
    let base = mlscale(&[
        "plan",
        "--preset",
        "fig2",
        "--iterations",
        "100",
        "--price",
        "2.0",
    ]);
    let straggled = mlscale(&[
        "plan",
        "--preset",
        "fig2",
        "--iterations",
        "100",
        "--price",
        "2.0",
        "--straggler",
        "exp:8",
    ]);
    assert!(base.status.success());
    assert!(
        straggled.status.success(),
        "stderr: {}",
        stderr_of(&straggled)
    );
    let out = String::from_utf8_lossy(&straggled.stdout).into_owned();
    assert!(
        out.contains("expected"),
        "must announce expected-time planning"
    );
    // Expected fastest time under an 8 s tail must exceed the deterministic one.
    let fastest_secs = |s: &str| -> f64 {
        let line = s.lines().find(|l| l.starts_with("fastest:")).unwrap();
        let time = line.split("time").nth(1).unwrap();
        time.split_whitespace().next().unwrap().parse().unwrap()
    };
    let det = fastest_secs(&String::from_utf8_lossy(&base.stdout));
    let tail = fastest_secs(&out);
    assert!(
        tail > det,
        "expected planning must price the tail in: {tail} vs {det}"
    );
}

// ---------------------------------------------------------------------------
// Scenario specs and the sweep verb
// ---------------------------------------------------------------------------

/// Writes a scenario document to a unique temp file and returns its path.
fn temp_scenario(tag: &str, json: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!(
        "mlscale-cli-test-{}-{tag}.json",
        std::process::id()
    ));
    std::fs::write(&path, json).expect("write scenario");
    path
}

/// Runs a scenario expecting exit status 2 and an error naming `key`.
fn assert_rejected(tag: &str, json: &str, key: &str) {
    let path = temp_scenario(tag, json);
    for verb in [vec!["sweep"], vec!["scenario", "validate"]] {
        let mut args: Vec<&str> = verb.clone();
        let path_str = path.to_str().unwrap();
        args.push(path_str);
        let out = mlscale(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "{tag}: `mlscale {}` must exit 2",
            verb.join(" ")
        );
        let stderr = stderr_of(&out);
        assert!(
            stderr.contains(key),
            "{tag}: error must name {key:?}, got:\n{stderr}"
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn sweep_runs_the_checked_in_latency_grid() {
    let out_dir = std::env::temp_dir().join(format!("mlscale-cli-sweep-{}", std::process::id()));
    let out = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("24 grid point(s)"), "{stdout}");
    assert!(stdout.contains("wrote 25 results file(s)"), "{stdout}");
    // One results JSON per grid point plus the roll-up, all valid JSON,
    // plus the sweep journal backing `--resume`.
    let mut files: Vec<_> = std::fs::read_dir(&out_dir)
        .expect("out dir created")
        .map(|e| e.unwrap().path())
        .collect();
    files.sort();
    assert_eq!(files.len(), 26);
    for file in files
        .iter()
        .filter(|f| f.extension().is_some_and(|e| e == "json"))
    {
        let json = std::fs::read_to_string(file).unwrap();
        assert!(json.starts_with('{'), "{}: not JSON", file.display());
    }
    assert!(files[24].ends_with("latency-grid-rollup.json"));
    assert!(files[25].ends_with("latency-grid.manifest"));
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn one_point_sweep_agrees_with_the_gd_verb() {
    let path = temp_scenario(
        "parity",
        r#"{"name": "parity", "workload": {"kind": "gd", "preset": "fig2", "max_n": 13}}"#,
    );
    let out_dir = std::env::temp_dir().join(format!("mlscale-cli-parity-{}", std::process::id()));
    let sweep = mlscale(&[
        "sweep",
        path.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(sweep.status.success(), "stderr: {}", stderr_of(&sweep));
    let gd = mlscale(&["gd", "--preset", "fig2", "--max-n", "13"]);
    assert!(gd.status.success());
    // Both views of the same configuration report the paper's optimum.
    assert!(
        String::from_utf8_lossy(&gd.stdout).contains("optimal workers: 9"),
        "gd verb lost the Fig 2 answer"
    );
    let point_json =
        std::fs::read_to_string(out_dir.join("parity-p000.json")).expect("point result");
    let point: mlscale::workloads::ExperimentResult =
        serde_json::from_str(&point_json).expect("point result parses");
    let n_opt = point
        .stats
        .iter()
        .find(|s| s.label == "optimal n")
        .expect("optimal n stat")
        .value;
    assert_eq!(n_opt, 9.0, "sweep point must report the same optimum");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&out_dir).ok();
}

/// Sweeps a one-point scenario named `name` and returns its point result.
fn one_point_result(name: &str, json: &str) -> mlscale::workloads::ExperimentResult {
    let path = temp_scenario(name, json);
    let out_dir = std::env::temp_dir().join(format!("mlscale-cli-{name}-{}", std::process::id()));
    let sweep = mlscale(&[
        "sweep",
        path.to_str().unwrap(),
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(sweep.status.success(), "stderr: {}", stderr_of(&sweep));
    let point_json =
        std::fs::read_to_string(out_dir.join(format!("{name}-p000.json"))).expect("point result");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&out_dir).ok();
    serde_json::from_str(&point_json).expect("point result parses")
}

fn stat(result: &mlscale::workloads::ExperimentResult, label: &str) -> f64 {
    result
        .stats
        .iter()
        .find(|s| s.label == label)
        .unwrap_or_else(|| panic!("no {label:?} stat in {}", result.id))
        .value
}

#[test]
fn plan_verb_agrees_with_a_one_point_plan_scenario() {
    let plan = mlscale(&[
        "plan",
        "--preset",
        "fig2",
        "--max-n",
        "32",
        "--iterations",
        "100",
        "--price",
        "2.0",
        "--deadline",
        "2000",
        "--budget",
        "5",
    ]);
    assert!(plan.status.success(), "stderr: {}", stderr_of(&plan));
    let stdout = String::from_utf8_lossy(&plan.stdout);
    let point = one_point_result(
        "plan-parity",
        r#"{"name": "plan-parity", "workload": {"kind": "gd", "preset": "fig2", "max_n": 32,
            "plan": {"iterations": 100, "price": 2.0, "deadline": 2000, "budget": 5}}}"#,
    );
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("no {prefix:?} line in:\n{stdout}"))
            .to_owned()
    };
    for which in ["fastest", "cheapest"] {
        assert_eq!(
            line(&format!("{which}:")),
            format!(
                "{:<10}n = {:>3}, time {:>10.1} s, cost {:>10.2}",
                format!("{which}:"),
                stat(&point, &format!("{which} n")),
                stat(&point, &format!("{which} time s")),
                stat(&point, &format!("{which} cost")),
            )
        );
    }
    let within_deadline = line("cheapest within 2000 s deadline:");
    assert!(
        within_deadline.contains(&format!(
            "n = {}, ",
            stat(&point, "cheapest n within deadline")
        )) && within_deadline.ends_with(&format!(
            "cost {:.2}",
            stat(&point, "cheapest cost within deadline")
        )),
        "{within_deadline} vs {:?}",
        point.stats
    );
    let within_budget = line("fastest within budget 5.00:");
    assert!(
        within_budget.contains(&format!(
            "n = {}, time {:.1} s",
            stat(&point, "fastest n within budget"),
            stat(&point, "fastest time s within budget")
        )),
        "{within_budget} vs {:?}",
        point.stats
    );
}

#[test]
fn bp_verb_agrees_with_a_one_point_bp_scenario() {
    // The default hub degree leaves the optimum at max_n; a heavier hub
    // puts it inside the range.
    for (flags, fields) in [
        (vec![], ""),
        (vec!["--max-degree", "2000"], r#", "max_degree": 2000"#),
    ] {
        let mut args = vec![
            "bp",
            "--vertices",
            "16259",
            "--edges",
            "99785",
            "--max-n",
            "32",
        ];
        args.extend(flags);
        let bp = mlscale(&args);
        assert!(bp.status.success(), "stderr: {}", stderr_of(&bp));
        let stdout = String::from_utf8_lossy(&bp.stdout);
        let point = one_point_result(
            "bp-parity",
            &format!(
                r#"{{"name": "bp-parity", "workload": {{"kind": "bp", "vertices": 16259,
                    "edges": 99785, "max_n": 32{fields}}}}}"#
            ),
        );
        let gamma = format!("Zipf gamma = {:.3},", stat(&point, "zipf gamma"));
        let optimum = format!("optimal workers: {} ", stat(&point, "optimal n"));
        assert!(
            stdout.contains(&gamma) && stdout.contains(&optimum),
            "{args:?}: want {gamma:?} and {optimum:?} in:\n{stdout}"
        );
    }
}

#[test]
fn bp_refuses_one_state_per_variable_as_the_scenario_validator_does() {
    let out = mlscale(&[
        "bp",
        "--vertices",
        "1000",
        "--edges",
        "3000",
        "--states",
        "1",
        "--max-n",
        "4",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        out.stdout.is_empty(),
        "nothing may print before the refusal"
    );
    let err = stderr_of(&out);
    assert!(err.contains("--states"), "got: {err}");
}

#[test]
fn plan_refuses_a_bad_deadline_or_budget_before_printing_anything() {
    for (flag, value) in [("--deadline", "soon"), ("--budget", "-3")] {
        let out = mlscale(&["plan", "--preset", "fig2", flag, value]);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}");
        assert!(
            out.stdout.is_empty(),
            "{flag} {value}: printed before refusing:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
        let err = stderr_of(&out);
        assert!(err.contains(flag) && err.contains(value), "got: {err}");
    }
}

#[test]
fn zero_jitter_with_backup_k_runs_as_its_scenario_validates() {
    // A zero-valued straggler distribution still names one, so
    // --backup-k is not a no-op flag here (the scenario validator's rule).
    let out = mlscale(&["gd", "--preset", "fig2", "--jitter", "0", "--backup-k", "1"]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    assert!(String::from_utf8_lossy(&out.stdout).contains("optimal workers:"));
    let path = temp_scenario(
        "zero-jitter-backup",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
            "straggler": {"kind": "jitter", "spread": 0}, "backup_k": 1}}"#,
    );
    let validate = mlscale(&["scenario", "validate", path.to_str().unwrap()]);
    assert!(
        validate.status.success(),
        "stderr: {}",
        stderr_of(&validate)
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn scenario_explain_prints_the_grid() {
    let out = mlscale(&[
        "scenario",
        "explain",
        "scenarios/straggler-mitigation-grid.json",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("grid: 12 point(s)"), "{stdout}");
    assert!(stdout.contains("comm=spark, backup_k=0"), "{stdout}");
    assert!(
        stdout.contains("straggler-mitigation-grid-p011"),
        "{stdout}"
    );
}

#[test]
fn sweep_rejects_unknown_field_naming_its_path() {
    assert_rejected(
        "unknown-field",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "latancy": 1.0}}"#,
        "workload.latancy",
    );
}

#[test]
fn sweep_rejects_negative_n_naming_the_key() {
    assert_rejected(
        "negative-n",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": -3}}"#,
        "workload.max_n",
    );
}

#[test]
fn sweep_rejects_empty_grid_axis() {
    assert_rejected(
        "empty-axis",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
            "sweep": [{"param": "jitter", "values": []}]}"#,
        "sweep[0].values",
    );
}

#[test]
fn sweep_rejects_conflicting_preset_and_rack_flags() {
    assert_rejected(
        "preset-rack-conflict",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "pod", "rack_size": 8}}"#,
        "workload.rack_size",
    );
}

#[test]
fn sweep_rejects_bad_axis_value_naming_the_grid_point() {
    assert_rejected(
        "bad-axis-value",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
            "sweep": [{"param": "comm", "values": ["tree", "warp"]}]}"#,
        "grid point t-p001",
    );
}

#[test]
fn sweep_rejects_exhibit_with_sweep() {
    assert_rejected(
        "exhibit-sweep",
        r#"{"name": "t", "workload": {"kind": "exhibit", "id": "fig1"},
            "sweep": [{"param": "max_n", "values": [8]}]}"#,
        "sweep",
    );
}

#[test]
fn sweep_rejects_invalid_json_syntax() {
    assert_rejected("syntax", r#"{"name": "t", "workload": }"#, "invalid JSON");
}

#[test]
fn sweep_rejects_missing_file_with_exit_2() {
    let out = mlscale(&["sweep", "/nonexistent/scenario.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("cannot read scenario"));
}

#[test]
fn sweep_rejects_unknown_flags() {
    let out = mlscale(&["sweep", "scenarios/fig1.json", "--bogus", "1"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--bogus"));
}

#[test]
fn scenario_needs_a_known_subcommand() {
    let out = mlscale(&["scenario", "frobnicate", "scenarios/fig1.json"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("frobnicate"));
}

#[test]
fn gd_rejects_extreme_max_n_without_log_points() {
    let out = mlscale(&["gd", "--preset", "fig2", "--max-n", "1000000000"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = stderr_of(&out);
    assert!(stderr.contains("--max-n"), "{stderr}");
    assert!(stderr.contains("dense-mode limit"), "{stderr}");
    assert!(stderr.contains("--log-points"), "{stderr}");
}

#[test]
fn plan_rejects_extreme_max_n_without_log_points() {
    let out = mlscale(&["plan", "--preset", "fig2", "--max-n", "1000000000"]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("dense-mode limit"));
}

#[test]
fn bp_rejects_extreme_max_n() {
    let out = mlscale(&[
        "bp",
        "--vertices",
        "1000",
        "--edges",
        "5000",
        "--max-n",
        "100000",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("dense-mode limit"));
}

#[test]
fn gd_rejects_degenerate_log_points() {
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--max-n",
        "64",
        "--log-points",
        "1",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--log-points"));
}

#[test]
fn gd_runs_a_million_workers_on_a_log_ladder() {
    let out = mlscale(&[
        "gd",
        "--preset",
        "fig2",
        "--max-n",
        "1000000",
        "--log-points",
        "40",
        "--straggler",
        "exp:0.05",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("log ladder to 1000000"), "{stdout}");
    assert!(stdout.contains("1000000"), "{stdout}");
    assert!(stdout.contains("optimal workers:"), "{stdout}");
}

#[test]
fn plan_runs_a_million_workers_on_a_log_ladder() {
    let out = mlscale(&[
        "plan",
        "--preset",
        "fig2",
        "--max-n",
        "1000000",
        "--log-points",
        "60",
        "--iterations",
        "100",
        "--price",
        "2.0",
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("fastest:"), "{stdout}");
    assert!(stdout.contains("cheapest:"), "{stdout}");
}

#[test]
fn sweep_rejects_extreme_max_n_without_log_points() {
    assert_rejected(
        "extreme-max-n",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": 1000000000}}"#,
        "workload.max_n",
    );
}

// ---------------------------------------------------------------------------
// Streaming, sharded, and adaptive sweeps
// ---------------------------------------------------------------------------

/// Extracts the machine-readable `summary {...}` JSON from sweep stdout.
fn summary_line(stdout: &str) -> String {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix("summary "))
        .expect("every sweep must close with a `summary {...}` line")
        .to_owned()
}

#[test]
fn validate_refuses_over_cap_grids_before_expansion() {
    // 1001 × 1001 = 1_002_001 points — just past MAX_GRID_POINTS. The
    // refusal must name the expanded count and come from the checked
    // axis-length product, not from materialising a million points.
    let path = temp_scenario(
        "over-cap",
        r#"{"name": "over-cap",
            "workload": {"kind": "gd", "params": 12e6, "cost_per_example": 72e6,
                         "batch": 60000, "flops": 84.48e9, "max_n": 8},
            "sweep": [
              {"param": "latency", "range": {"from": 0.0, "to": 1e-3, "step": 1e-6}},
              {"param": "bandwidth", "range": {"from": 1e9, "to": 2e9, "step": 1e6}}
            ]}"#,
    );
    let started = std::time::Instant::now();
    for verb in [vec!["scenario", "validate"], vec!["sweep"]] {
        let mut args = verb.clone();
        let path_str = path.to_str().unwrap();
        args.push(path_str);
        let out = mlscale(&args);
        assert_eq!(
            out.status.code(),
            Some(2),
            "`mlscale {}` must refuse the over-cap grid",
            verb.join(" ")
        );
        let err = stderr_of(&out);
        assert!(
            err.contains("1002001") && err.contains("limit 1000000"),
            "refusal must report the expanded point count and the cap, got:\n{err}"
        );
    }
    // Counting axis lengths is arithmetic; expanding 1M points is not.
    assert!(
        started.elapsed() < std::time::Duration::from_secs(20),
        "over-cap refusal took {:?} — the grid is being expanded",
        started.elapsed()
    );
    std::fs::remove_file(&path).ok();
}

#[test]
fn sharded_sweep_matches_the_per_point_rollup_and_reports_a_summary() {
    let base = std::env::temp_dir().join(format!("mlscale-cli-shard-{}", std::process::id()));
    let per_point_dir = base.join("per-point");
    let sharded_dir = base.join("sharded");
    std::fs::remove_dir_all(&base).ok();
    let per_point = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--out",
        per_point_dir.to_str().unwrap(),
    ]);
    assert!(
        per_point.status.success(),
        "stderr: {}",
        stderr_of(&per_point)
    );
    // Forcing --per-point-max below the 24-point grid flips the run into
    // the sharded store: ceil(24 / 10) = 3 NDJSON shards.
    let sharded = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--out",
        sharded_dir.to_str().unwrap(),
        "--per-point-max",
        "10",
    ]);
    assert!(sharded.status.success(), "stderr: {}", stderr_of(&sharded));
    let stdout = String::from_utf8_lossy(&sharded.stdout);
    assert!(
        stdout.contains("sharded store: 3 shard(s) of up to 10 record(s) each"),
        "{stdout}"
    );
    let summary = summary_line(&stdout);
    for key in [
        r#""mode":"sharded""#,
        r#""grid_points":24"#,
        r#""evaluated":24"#,
        r#""shards":3"#,
    ] {
        assert!(summary.contains(key), "summary missing {key}: {summary}");
    }
    // Both layouts distil the same sweep, byte for byte.
    let rollup_a =
        std::fs::read(per_point_dir.join("latency-grid-rollup.json")).expect("per-point roll-up");
    let rollup_b =
        std::fs::read(sharded_dir.join("latency-grid-rollup.json")).expect("sharded roll-up");
    assert_eq!(rollup_a, rollup_b, "roll-ups must be byte-identical");
    // Shards + roll-up + journal, and no per-point files.
    let mut files: Vec<String> = std::fs::read_dir(&sharded_dir)
        .expect("sharded out dir")
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    files.sort();
    assert_eq!(
        files,
        vec![
            "latency-grid-rollup.json",
            "latency-grid-shard-0000.ndjson",
            "latency-grid-shard-0001.ndjson",
            "latency-grid-shard-0002.ndjson",
            "latency-grid.manifest",
        ],
        "unexpected sharded layout"
    );
    // A completed sharded sweep resumes entirely from its journal.
    let resumed = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--out",
        sharded_dir.to_str().unwrap(),
        "--per-point-max",
        "10",
        "--resume",
    ]);
    assert!(resumed.status.success(), "stderr: {}", stderr_of(&resumed));
    let stdout = String::from_utf8_lossy(&resumed.stdout);
    assert!(
        stdout.contains("resumed: 24 of 24 point(s) restored from the journal"),
        "{stdout}"
    );
    assert!(
        summary_line(&stdout).contains(r#""resumed":24"#),
        "{stdout}"
    );
    std::fs::remove_dir_all(&base).ok();
}

#[test]
fn adaptive_sweep_reports_the_frontier_and_a_summary() {
    let out_dir = std::env::temp_dir().join(format!("mlscale-cli-adaptive-{}", std::process::id()));
    std::fs::remove_dir_all(&out_dir).ok();
    let out = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--adaptive",
        "--out",
        out_dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("adaptive: evaluated"), "{stdout}");
    assert!(stdout.contains("frontier:"), "{stdout}");
    let summary = summary_line(&stdout);
    assert!(
        summary.contains(r#""mode":"adaptive""#) && summary.contains(r#""frontier":[["#),
        "summary must carry the machine-readable frontier: {summary}"
    );
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn adaptive_sweep_refuses_resume() {
    let out = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--adaptive",
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--resume") && err.contains("--adaptive"),
        "got: {err}"
    );
}

#[test]
fn adaptive_refuses_scenarios_with_no_grid() {
    let out = mlscale(&["sweep", "scenarios/fig2.json", "--adaptive"]);
    assert_eq!(out.status.code(), Some(2));
    let err = stderr_of(&out);
    assert!(
        err.contains("--adaptive") && err.contains("non-empty sweep"),
        "got: {err}"
    );
}

#[test]
fn per_point_max_zero_rejected() {
    let out = mlscale(&[
        "sweep",
        "scenarios/latency-grid.json",
        "--per-point-max",
        "0",
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(stderr_of(&out).contains("--per-point-max"));
}

#[test]
fn one_point_log_sweep_runs() {
    let dir = std::env::temp_dir().join("mlscale-cli-log-sweep");
    std::fs::remove_dir_all(&dir).ok();
    let path = temp_scenario(
        "log-sweep",
        r#"{"name": "log-sweep",
            "workload": {"kind": "gd", "preset": "fig2", "max_n": 1000000,
                         "log_points": 40, "straggler": {"kind": "exp", "mean": 0.05}}}"#,
    );
    let out = mlscale(&[
        "sweep",
        path.to_str().unwrap(),
        "--out",
        dir.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "stderr: {}", stderr_of(&out));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("wrote 2 results file(s)"), "{stdout}");
    std::fs::remove_file(&path).ok();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn no_arguments_prints_indented_usage_to_stderr() {
    let out = mlscale(&[]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "usage must not touch stdout");
    let err = stderr_of(&out);
    assert!(err.starts_with("usage: mlscale "), "got: {err}");
    // Flags sit under their verb, and wrapped descriptions under their
    // flag's description column, so no continuation reads as a new entry.
    assert!(
        err.contains("\n     --preset fig2|fig3|pod    load a paper/pod configuration\n"),
        "flag lines lost their indentation:\n{err}"
    );
    assert!(
        err.contains("\n                               to N instead of every n (required\n"),
        "wrapped lines lost their indentation:\n{err}"
    );
}
