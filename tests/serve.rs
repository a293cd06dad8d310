//! End-to-end tests of `mlscale serve`: a real subprocess bound to a
//! real socket, hit over TCP. Covers byte-identical parity between
//! `/sweep` responses and `mlscale sweep` output files, every
//! malformed-spec class from `tests/cli.rs` arriving as a 400 naming
//! its key path, a too-deeply nested body refused without taking the
//! daemon down, cache hit/miss semantics, a multi-threaded hammer of
//! mixed valid/malformed bodies, and refused startups (bad
//! `MLSCALE_THREADS`, unbindable `--addr`).

use serde::Value;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// Map-entry lookup on a parsed JSON tree.
fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, entry)| entry)
}

/// A spawned `mlscale serve` subprocess, killed on drop. The stdout
/// pipe is held open for the server's lifetime — dropping it would
/// turn the banner's second line into an EPIPE.
struct Server {
    child: Child,
    addr: String,
    _stdout: BufReader<std::process::ChildStdout>,
}

impl Server {
    /// Spawns `mlscale serve --addr 127.0.0.1:0` and parses the bound
    /// address from its startup banner.
    fn spawn(threads: &str) -> Server {
        Self::spawn_with_faults(threads, None)
    }

    /// [`Self::spawn`] with an optional `MLSCALE_FAULTS` plan armed in
    /// the daemon's environment.
    fn spawn_with_faults(threads: &str, faults: Option<&str>) -> Server {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_mlscale"));
        cmd.args(["serve", "--addr", "127.0.0.1:0", "--threads", threads])
            .stdout(Stdio::piped())
            .stderr(Stdio::piped());
        if let Some(spec) = faults {
            cmd.env("MLSCALE_FAULTS", spec);
        }
        let mut child = cmd.spawn().expect("spawn mlscale serve");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut reader = BufReader::new(stdout);
        let mut banner = String::new();
        reader.read_line(&mut banner).expect("server banner");
        let addr = banner
            .split("http://")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .unwrap_or_else(|| panic!("no address in banner {banner:?}"))
            .to_string();
        Server {
            child,
            addr,
            _stdout: reader,
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.child.kill().ok();
        self.child.wait().ok();
    }
}

/// One parsed HTTP response.
struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }
}

/// Reads one keep-alive response off a stream.
fn read_reply(reader: &mut BufReader<TcpStream>) -> Reply {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line {status_line:?}"));
    let mut headers = Vec::new();
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).expect("header line");
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (name, value) = line.split_once(':').expect("header has a colon");
        let (name, value) = (name.trim().to_string(), value.trim().to_string());
        if name.eq_ignore_ascii_case("content-length") {
            length = value.parse().expect("numeric Content-Length");
        }
        headers.push((name, value));
    }
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).expect("body");
    Reply {
        status,
        headers,
        body: String::from_utf8(body).expect("UTF-8 body"),
    }
}

/// POSTs `body` to `path` on a fresh connection.
fn post(addr: &str, path: &str, body: &str) -> Reply {
    request(addr, "POST", path, body)
}

fn request(addr: &str, method: &str, path: &str, body: &str) -> Reply {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone stream");
    write!(
        writer,
        "{method} {path} HTTP/1.1\r\nHost: mlscale\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("write request");
    read_reply(&mut BufReader::new(stream))
}

fn scenario_files() -> Vec<std::path::PathBuf> {
    let mut files: Vec<_> = std::fs::read_dir("scenarios")
        .expect("scenarios dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty(), "no checked-in scenarios found");
    files
}

/// A single-configuration gd spec (no sweep axes) for /gd and /plan.
const GD_SPEC: &str = r#"{"name": "one", "workload": {"kind": "gd", "preset": "fig2", "max_n": 13,
    "plan": {"iterations": 100, "price": 2.0}}}"#;

// ---------------------------------------------------------------------------
// Parity: the daemon answers with the exact bytes `mlscale sweep` writes
// ---------------------------------------------------------------------------

#[test]
fn sweep_responses_match_sweep_files_byte_for_byte() {
    let server = Server::spawn("4");
    let out_dir = std::env::temp_dir().join(format!("mlscale-serve-parity-{}", std::process::id()));
    for file in scenario_files() {
        let spec = std::fs::read_to_string(&file).expect("read scenario");
        let reply = post(&server.addr, "/sweep", &spec);
        assert_eq!(reply.status, 200, "{}: {}", file.display(), reply.body);

        std::fs::remove_dir_all(&out_dir).ok();
        let sweep = Command::new(env!("CARGO_BIN_EXE_mlscale"))
            .args(["sweep", file.to_str().unwrap(), "--out"])
            .arg(&out_dir)
            .output()
            .expect("spawn mlscale sweep");
        assert!(
            sweep.status.success(),
            "{}: {}",
            file.display(),
            String::from_utf8_lossy(&sweep.stderr)
        );

        let envelope: Value = serde_json::from_str(&reply.body).expect("response parses");
        let points = get(&envelope, "points")
            .and_then(Value::as_seq)
            .unwrap_or_else(|| panic!("{}: no points array", file.display()));
        let rollup = get(&envelope, "rollup").expect("envelope rollup");
        assert!(!points.is_empty(), "{}: empty sweep", file.display());
        // Each served result names itself; its sweep file is `<id>.json`.
        for result in points.iter().chain(std::iter::once(rollup)) {
            let id = get(result, "id")
                .and_then(Value::as_str)
                .expect("result id");
            let written = std::fs::read_to_string(out_dir.join(format!("{id}.json")))
                .unwrap_or_else(|e| panic!("{}: no sweep file for {id}: {e}", file.display()));
            let served = serde_json::to_string_pretty(result).expect("re-print");
            assert_eq!(served, written, "{}: {id} served != swept", file.display());
        }
    }
    std::fs::remove_dir_all(&out_dir).ok();
}

#[test]
fn gd_and_plan_answer_single_configurations() {
    let server = Server::spawn("2");
    for path in ["/gd", "/plan"] {
        let reply = post(&server.addr, path, GD_SPEC);
        assert_eq!(reply.status, 200, "{path}: {}", reply.body);
        let point: Value = serde_json::from_str(&reply.body).expect("point parses");
        assert!(get(&point, "stats").is_some(), "{path}: no stats in point");
    }
    // /plan without a plan block names workload.plan.
    let no_plan = r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": 13}}"#;
    let reply = post(&server.addr, "/plan", no_plan);
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("workload.plan"), "{}", reply.body);
    // Exhibit specs are redirected to /sweep by a named error.
    let exhibit = std::fs::read_to_string("scenarios/fig1.json").expect("fig1");
    let reply = post(&server.addr, "/gd", &exhibit);
    assert_eq!(reply.status, 400);
    assert!(reply.body.contains("workload.kind"), "{}", reply.body);
}

// ---------------------------------------------------------------------------
// Validation: every malformed-spec class from tests/cli.rs becomes a 400
// ---------------------------------------------------------------------------

/// The malformed scenario documents `tests/cli.rs` proves exit 2 on,
/// paired with the key path the diagnostic must name.
const MALFORMED: &[(&str, &str, &str)] = &[
    (
        "unknown-field",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "latancy": 1.0}}"#,
        "workload.latancy",
    ),
    (
        "negative-n",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": -3}}"#,
        "workload.max_n",
    ),
    (
        "empty-axis",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
            "sweep": [{"param": "jitter", "values": []}]}"#,
        "sweep[0].values",
    ),
    (
        "preset-rack-conflict",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "pod", "rack_size": 8}}"#,
        "workload.rack_size",
    ),
    (
        "bad-axis-value",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2"},
            "sweep": [{"param": "comm", "values": ["tree", "warp"]}]}"#,
        "grid point t-p001",
    ),
    (
        "exhibit-sweep",
        r#"{"name": "t", "workload": {"kind": "exhibit", "id": "fig1"},
            "sweep": [{"param": "max_n", "values": [8]}]}"#,
        "sweep",
    ),
    (
        "extreme-max-n",
        r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2", "max_n": 1000000000}}"#,
        "workload.max_n",
    ),
    ("syntax", r#"{"name": "t", "workload": }"#, "invalid JSON"),
];

#[test]
fn extreme_max_n_needs_log_spaced_mode() {
    let server = Server::spawn("2");
    // Without log_points the dense cap is a 400 naming workload.max_n
    // (instead of the old behaviour: exhausting memory on a 10⁹-entry table).
    let dense = r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
        "max_n": 1000000000, "straggler": {"kind": "exp", "mean": 0.05}}}"#;
    let reply = post(&server.addr, "/gd", dense);
    assert_eq!(reply.status, 400, "{}", reply.body);
    assert!(reply.body.contains("workload.max_n"), "{}", reply.body);
    assert!(reply.body.contains("log_points"), "{}", reply.body);
    // Opting into the log-spaced ladder answers a 10⁶-worker curve.
    let ladder = r#"{"name": "t", "workload": {"kind": "gd", "preset": "fig2",
        "max_n": 1000000, "log_points": 40,
        "straggler": {"kind": "exp", "mean": 0.05}}}"#;
    let reply = post(&server.addr, "/gd", ladder);
    assert_eq!(reply.status, 200, "{}", reply.body);
    let point: Value = serde_json::from_str(&reply.body).expect("point parses");
    assert!(get(&point, "stats").is_some(), "no stats in {}", reply.body);
}

#[test]
fn malformed_specs_get_400_naming_the_key_path() {
    let server = Server::spawn("2");
    for (tag, body, key) in MALFORMED {
        let reply = post(&server.addr, "/sweep", body);
        assert_eq!(reply.status, 400, "{tag}: {}", reply.body);
        assert!(
            reply.body.contains(key),
            "{tag}: 400 body must name {key:?}, got {}",
            reply.body
        );
        let parsed: Value = serde_json::from_str(&reply.body)
            .unwrap_or_else(|e| panic!("{tag}: 400 body is not JSON ({e}): {}", reply.body));
        assert!(
            get(&parsed, "error").is_some_and(|e| get(e, "path").is_some()),
            "{tag}: 400 body must carry error.path, got {}",
            reply.body
        );
    }
}

#[test]
fn deeply_nested_body_gets_400_and_the_daemon_serves_on() {
    let server = Server::spawn("1");
    // 200 KB of `[`, far inside the body limit: the parser refuses it at
    // level 129 instead of recursing until the worker's stack overflows
    // and takes the daemon with it.
    let reply = post(&server.addr, "/sweep", &"[".repeat(200_000));
    assert_eq!(reply.status, 400, "{}", reply.body);
    let parsed: Value = serde_json::from_str(&reply.body)
        .unwrap_or_else(|e| panic!("400 body is not JSON ({e}): {}", reply.body));
    assert!(get(&parsed, "error").is_some(), "{}", reply.body);
    assert!(
        reply.body.contains("deeper than 128 levels"),
        "{}",
        reply.body
    );
    let spec = std::fs::read_to_string("scenarios/fig2.json").expect("fig2");
    let reply = post(&server.addr, "/sweep", &spec);
    assert_eq!(reply.status, 200, "{}", reply.body);
}

#[test]
fn unknown_paths_and_methods_are_rejected() {
    let server = Server::spawn("1");
    let reply = post(&server.addr, "/train", "{}");
    assert_eq!(reply.status, 404);
    let reply = request(&server.addr, "GET", "/sweep", "");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("Allow"), Some("POST"));
}

// ---------------------------------------------------------------------------
// Caching
// ---------------------------------------------------------------------------

#[test]
fn cached_repeat_is_byte_identical_and_fast() {
    let server = Server::spawn("2");
    let spec = std::fs::read_to_string("scenarios/fig2.json").expect("fig2");
    let cold = post(&server.addr, "/sweep", &spec);
    assert_eq!(cold.status, 200, "{}", cold.body);
    assert_eq!(cold.header("x-mlscale-cache"), Some("miss"));
    let warm = post(&server.addr, "/sweep", &spec);
    assert_eq!(warm.status, 200);
    assert_eq!(warm.header("x-mlscale-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cached body must be byte-identical");
    let micros: u64 = warm
        .header("x-mlscale-micros")
        .expect("micros header")
        .parse()
        .expect("numeric micros");
    assert!(
        micros < 100_000,
        "cache hit took {micros} µs server-side — the LRU is not being hit"
    );
}

#[test]
fn keep_alive_connection_serves_sequential_requests() {
    let server = Server::spawn("1");
    let stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let spec = std::fs::read_to_string("scenarios/fig2.json").expect("fig2");
    for expected in ["miss", "hit", "hit"] {
        write!(
            writer,
            "POST /sweep HTTP/1.1\r\nHost: mlscale\r\nContent-Length: {}\r\n\r\n{spec}",
            spec.len()
        )
        .expect("write");
        let reply = read_reply(&mut reader);
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("x-mlscale-cache"), Some(expected));
    }
}

// ---------------------------------------------------------------------------
// Fault injection: a dropped response must not take the daemon down
// ---------------------------------------------------------------------------

#[test]
fn injected_response_fault_drops_one_connection_and_recovers() {
    let server = Server::spawn_with_faults("2", Some("serve.write_response:2=err"));

    let first = post(&server.addr, "/gd", GD_SPEC);
    assert_eq!(first.status, 200, "{}", first.body);

    // The second response hits the armed fault: the daemon drops the
    // connection without writing — the client sees a clean close with
    // zero bytes, never a torn response.
    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    write!(
        stream,
        "POST /gd HTTP/1.1\r\nHost: mlscale\r\nContent-Length: {}\r\n\r\n{GD_SPEC}",
        GD_SPEC.len()
    )
    .expect("write request");
    let mut dropped = Vec::new();
    stream.read_to_end(&mut dropped).expect("read to close");
    assert!(
        dropped.is_empty(),
        "the faulted response must be dropped whole, got {} bytes",
        dropped.len()
    );

    // The fault was one-shot; the worker survived and serves on.
    let third = post(&server.addr, "/gd", GD_SPEC);
    assert_eq!(third.status, 200, "{}", third.body);
}

// ---------------------------------------------------------------------------
// Concurrency: mixed valid/malformed hammer from many client threads
// ---------------------------------------------------------------------------

#[test]
fn concurrent_hammer_drops_nothing_and_stays_consistent() {
    const CLIENTS: usize = 8;
    const ROUNDS: usize = 12;
    let server = Server::spawn("4");
    let fig2 = std::fs::read_to_string("scenarios/fig2.json").expect("fig2");
    let addr = server.addr.clone();

    let baseline = post(&addr, "/sweep", &fig2);
    assert_eq!(baseline.status, 200);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let (addr, fig2, baseline) = (&addr, &fig2, &baseline.body);
                scope.spawn(move || {
                    for round in 0..ROUNDS {
                        // Rotate through valid sweeps, valid single points
                        // and every malformed class, offset per client so
                        // the server sees all kinds at once.
                        match (client + round) % 4 {
                            0 => {
                                let reply = post(addr, "/sweep", fig2);
                                assert_eq!(reply.status, 200, "{}", reply.body);
                                assert_eq!(
                                    &reply.body, baseline,
                                    "client {client} round {round}: cold and cached \
                                     responses must be byte-identical"
                                );
                            }
                            1 => {
                                let reply = post(addr, "/gd", GD_SPEC);
                                assert_eq!(reply.status, 200, "{}", reply.body);
                            }
                            _ => {
                                let (tag, body, key) =
                                    MALFORMED[(client * ROUNDS + round) % MALFORMED.len()];
                                let reply = post(addr, "/sweep", body);
                                assert_eq!(reply.status, 400, "{tag}: {}", reply.body);
                                assert!(
                                    reply.body.contains(key),
                                    "{tag}: must name {key:?}, got {}",
                                    reply.body
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for handle in handles {
            handle.join().expect("client thread survived");
        }
    });

    // The server is still alive and answering after the hammer.
    let after = post(&addr, "/sweep", &fig2);
    assert_eq!(after.status, 200);
    assert_eq!(after.body, baseline.body);
}

// ---------------------------------------------------------------------------
// Refused startups
// ---------------------------------------------------------------------------

#[test]
fn invalid_mlscale_threads_refuses_startup() {
    for verb in [
        &["serve", "--addr", "127.0.0.1:0"][..],
        &["gd", "--preset", "fig2"][..],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_mlscale"))
            .args(verb)
            .env("MLSCALE_THREADS", "abc")
            .output()
            .expect("spawn mlscale");
        assert_eq!(
            out.status.code(),
            Some(2),
            "MLSCALE_THREADS=abc must exit 2 for {verb:?}"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains("MLSCALE_THREADS") && stderr.contains("abc"),
            "diagnostic must name the variable and value, got: {stderr}"
        );
    }
}

#[test]
fn unbindable_addr_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_mlscale"))
        .args(["serve", "--addr", "definitely-not-an-address"])
        .output()
        .expect("spawn mlscale");
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--addr") && stderr.contains("definitely-not-an-address"),
        "got: {stderr}"
    );
}

#[test]
fn bad_threads_flag_exits_2() {
    let out = Command::new(env!("CARGO_BIN_EXE_mlscale"))
        .args(["serve", "--addr", "127.0.0.1:0", "--threads", "none"])
        .output()
        .expect("spawn mlscale");
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("--threads"));
}
