//! `serve-mix`: an in-process planner daemon (`Server`) with one request
//! worker per CPU, driven by a closed loop of as many keep-alive clients
//! from this process — closed because a scheduler waits for the
//! planner's answer before it asks again.
//!
//! Request `i` of a run is a pure function of `(seed, i)`:
//!
//! * 70 % hot bodies — four checked-in scenarios on `/sweep`, a fig2
//!   `/gd` and a fig2 `/plan` — response-LRU hits after their first
//!   sighting in set-up;
//! * 20 % unique `/plan` bodies, each with an exponential straggler mean;
//! * 6 % unique 24-point `/sweep` grids (collective × jitter);
//! * 2.5 % unique adaptive `/sweep`s over a 500-point grid;
//! * 1.5 % invalid bodies, each expecting a 400 that names a key path.
//!
//! The straggler means and jitters are delay models, each of which gets
//! an order-statistic cache in the daemon's pool. They come from fixed
//! seeded sets ([`PLAN_MEANS`], [`JITTERS`]), so the pool grows during the
//! window as real traffic makes it grow, and ends the same size however
//! many requests a build serves.
//!
//! The split puts the miss median well inside the `/plan` latencies
//! (about their 67th percentile) and the miss p99 inside the adaptive
//! ones: at the boundary between two request classes a percentile jumps
//! from run to run.

use crate::measure::{digest, median, peak_rss_mb, quantile, ratio, Trace};
use crate::sweeps::{eval_replay, resolve_gd};
use crate::{Ctx, Report};
use mlscale_core::par;
use mlscale_core::straggler::OrderStatCachePool;
use mlscale_scenario::{run_adaptive_pooled, run_pooled, ScenarioSpec};
use mlscale_serve::http::{read_request, Response};
use mlscale_serve::{DrainHandle, Server};
use serde::{Serialize, Value};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

const HOT_SCENARIOS: [&str; 4] = [
    "scenarios/latency-grid.json",
    "scenarios/straggler-mitigation-grid.json",
    "scenarios/rack-pod-grid.json",
    "scenarios/fig3-weak-jitter.json",
];

const FIG2_GD: &str =
    r#"{"name": "fig2-gd", "workload": {"kind": "gd", "preset": "fig2", "max_n": 16}}"#;

const FIG2_PLAN: &str = r#"{"name": "fig2-plan", "workload": {"kind": "gd", "preset": "fig2",
  "max_n": 16, "plan": {"iterations": 1000, "price": 2, "deadline": 7200}}}"#;

/// The base job of the unique grids: latency-grid's MNIST model.
const MNIST: &str = r#""kind": "gd", "params": 12e6, "cost_per_example": 72e6,
  "batch": 60000, "bits": 64, "flops": 84.48e9"#;

/// Invalid-body templates (`{x}` is a drawn number) and the key path
/// their 400 must name.
const INVALID: [(&str, &str); 3] = [
    (
        r#"{"name": "bad", "workload": {"kind": "gd", "preset": "fig2", "max_n": 8, "latancy": {x}}}"#,
        "workload.latancy",
    ),
    (
        r#"{"name": "bad", "workload": {"kind": "gd", "preset": "fig2", "max_n": 8,
            "straggler": {"kind": "exp", "mean": -{x}}}}"#,
        "workload.straggler.mean",
    ),
    (
        r#"{"name": "bad", "workload": {"kind": "gd", "preset": "fig2", "max_n": 8},
            "sweep": [{"param": "latency", "values": [0, {x}]}]}"#,
        "sweep[0].param",
    ),
];

/// The traced run replays at most this many requests, so its length stays
/// bounded however fast the daemon served the window (a replayed miss is
/// evaluated twice, single-threaded).
const REPLAY_MAX: usize = 4000;

/// A shed (503) or dropped exchange is retried this many times.
const MAX_RETRIES: u32 = 5;

/// Distinct straggler means of the `/plan` bodies, and distinct jitters
/// of the grid bodies. A window serves thousands of each, so every value
/// is seen and the daemon's pool ends with these models on any build.
const PLAN_MEANS: usize = 256;
const JITTERS: usize = 64;

/// A grid body takes five jitters this far apart in the set, which is
/// coprime with [`JITTERS`], so the five are distinct.
const JITTER_STRIDE: usize = 13;

/// A client keeps its records in chunks of this many, so their memory
/// grows with the requests served: one vector doubling past a power of two
/// moved peak memory by up to 6 MB from run to run.
const REC_CHUNK: usize = 4096;

/// Set-up (bind, start, first sighting of the hot set) takes a few
/// milliseconds, so it is repeated this many times and its median taken.
const SETUP_REPEATS: usize = 51;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hot(usize),
    /// Which of the [`PLAN_MEANS`] the body's straggler mean is.
    Plan(usize),
    /// The first of the body's [`JITTERS`].
    Grid(usize),
    Adaptive,
    Invalid(usize),
}

struct Request {
    path: &'static str,
    body: String,
    kind: Kind,
}

/// A hot body and its first-sighting response.
struct Hot {
    path: &'static str,
    body: String,
    response: String,
}

/// splitmix64: a stream of uniforms for request `index` of seed `seed`.
struct Draw(u64);

impl Draw {
    fn new(seed: u64, index: u64) -> Self {
        Draw(seed ^ index.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        ((self.unit() * n as f64) as usize).min(n - 1)
    }
}

fn request(seed: u64, index: u64, hot: &[Hot]) -> Request {
    let mut draw = Draw::new(seed, index);
    let u = draw.unit();
    if u < 0.70 {
        let h = draw.below(hot.len());
        return Request {
            path: hot[h].path,
            body: hot[h].body.clone(),
            kind: Kind::Hot(h),
        };
    }
    if u < 0.90 {
        let m = draw.below(PLAN_MEANS);
        // Exponential tail whose mean is itself drawn from an exponential.
        let mean = 0.05 - 2.0 * (1.0 - delay_unit(seed, m)).ln();
        return Request {
            path: "/plan",
            body: format!(
                r#"{{"name": "plan-{index}", "workload": {{"kind": "gd", "preset": "fig2",
  "max_n": 64, "straggler": {{"kind": "exp", "mean": {mean}}},
  "plan": {{"iterations": 1000, "price": 2, "deadline": 7200}}}}}}"#
            ),
            kind: Kind::Plan(m),
        };
    }
    if u < 0.96 {
        let latency = 1e-4 * draw.unit();
        let first = draw.below(JITTERS);
        let jitter: Vec<String> = std::iter::once("0".to_string())
            .chain(jitters(first).map(|j| (0.5 * delay_unit(seed, PLAN_MEANS + j)).to_string()))
            .collect();
        return Request {
            path: "/sweep",
            body: format!(
                r#"{{"name": "grid-{index}", "workload": {{{MNIST}, "bandwidth": 1e9,
  "latency": {latency}, "max_n": 32}},
  "sweep": [{{"param": "comm", "values": ["tree", "spark", "ring", "halving"]}},
            {{"param": "jitter", "values": [{}]}}]}}"#,
                jitter.join(", ")
            ),
            kind: Kind::Grid(first),
        };
    }
    if u < 0.985 {
        let base = 1e-4 * draw.unit();
        let latencies: Vec<String> = (0..5)
            .map(|k| (base + 1e-4 * f64::from(k)).to_string())
            .collect();
        return Request {
            path: "/sweep",
            body: format!(
                r#"{{"name": "adaptive-{index}", "adaptive": true, "workload": {{{MNIST}}},
  "sweep": [{{"param": "max_n", "range": {{"from": 2, "to": 26, "step": 1}}}},
            {{"param": "latency", "values": [{}]}},
            {{"param": "bandwidth", "values": [1e9, 5e9, 10e9, 25e9]}}]}}"#,
                latencies.join(", ")
            ),
            kind: Kind::Adaptive,
        };
    }
    let v = draw.below(INVALID.len());
    let x = 1.0 + draw.unit();
    Request {
        path: ["/gd", "/plan", "/sweep"][draw.below(3)],
        body: INVALID[v].0.replace("{x}", &x.to_string()),
        kind: Kind::Invalid(v),
    }
}

/// The `k`-th of the seed's fixed delay values, uniform in [0, 1): the
/// `/plan` means take the first [`PLAN_MEANS`], the jitters the next
/// [`JITTERS`].
fn delay_unit(seed: u64, k: usize) -> f64 {
    Draw::new(!seed, k as u64).unit()
}

/// The five jitters of a grid body whose first jitter is `first`.
fn jitters(first: usize) -> impl Iterator<Item = usize> {
    (0..5).map(move |i| (first + JITTER_STRIDE * i) % JITTERS)
}

/// One keep-alive client connection.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct Reply {
    status: u16,
    hit: bool,
    micros: u64,
    body: Vec<u8>,
}

impl Conn {
    fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        writer.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn {
            reader: BufReader::new(writer.try_clone()?),
            writer,
        })
    }

    fn exchange(&mut self, path: &str, body: &str) -> std::io::Result<Reply> {
        write!(
            self.writer,
            "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )?;
        self.writer.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| std::io::Error::other(format!("bad status line {line:?}")))?;
        let (mut length, mut hit, mut micros) = (0, false, 0);
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(std::io::ErrorKind::UnexpectedEof.into());
            }
            let Some((name, value)) = line.trim_end().split_once(": ") else {
                break;
            };
            match name.to_ascii_lowercase().as_str() {
                "content-length" => length = value.parse().map_err(std::io::Error::other)?,
                "x-mlscale-cache" => hit = value == "hit",
                "x-mlscale-micros" => micros = value.parse().map_err(std::io::Error::other)?,
                _ => {}
            }
        }
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok(Reply {
            status,
            hit,
            micros,
            body,
        })
    }
}

/// One completed request.
struct Rec {
    index: u64,
    kind: Kind,
    status: u16,
    hit: bool,
    micros: u64,
    latency_s: f64,
    /// Digest of the body of an evaluated unique body (0 otherwise).
    hash: u64,
    /// Hot bodies: the answer equals the first sighting's bytes. Invalid
    /// bodies: the 400 names the expected key path.
    matched: bool,
    sheds: u32,
    retries: u32,
}

/// The closed loop of one client until `deadline`; its records in chunks
/// of [`REC_CHUNK`].
fn client(
    addr: SocketAddr,
    seed: u64,
    next: &AtomicU64,
    deadline: Instant,
    hot: &[Hot],
) -> Vec<Vec<Rec>> {
    let mut recs: Vec<Vec<Rec>> = Vec::new();
    let mut conn: Option<Conn> = None;
    while Instant::now() < deadline {
        let index = next.fetch_add(1, Ordering::Relaxed);
        let req = request(seed, index, hot);
        let started = Instant::now();
        let (mut sheds, mut retries) = (0, 0);
        let reply = loop {
            let attempt = match conn.as_mut() {
                Some(c) => c.exchange(req.path, &req.body),
                None => Conn::open(addr).and_then(|c| conn.insert(c).exchange(req.path, &req.body)),
            };
            match attempt {
                Ok(reply) if reply.status == 503 && retries < MAX_RETRIES => {
                    sheds += 1;
                    retries += 1;
                    conn = None;
                    std::thread::sleep(Duration::from_millis(10 * u64::from(retries)));
                }
                Ok(reply) => break Some(reply),
                Err(_) if retries < MAX_RETRIES => {
                    retries += 1;
                    conn = None;
                }
                Err(_) => break None,
            }
        };
        let latency_s = started.elapsed().as_secs_f64();
        let reply = reply.unwrap_or(Reply {
            status: 0,
            hit: false,
            micros: 0,
            body: Vec::new(),
        });
        let (hash, matched) = match req.kind {
            Kind::Hot(h) => (0, reply.body == hot[h].response.as_bytes()),
            Kind::Invalid(v) => (
                0,
                String::from_utf8_lossy(&reply.body)
                    .contains(&format!("\"path\":\"{}\"", INVALID[v].1)),
            ),
            _ => (digest(&reply.body), false),
        };
        let rec = Rec {
            index,
            kind: req.kind,
            status: reply.status,
            hit: reply.hit,
            micros: reply.micros,
            latency_s,
            hash,
            matched,
            sheds: sheds + u32::from(reply.status == 503),
            retries,
        };
        match recs.last_mut() {
            Some(chunk) if chunk.len() < REC_CHUNK => chunk.push(rec),
            _ => {
                let mut chunk = Vec::with_capacity(REC_CHUNK);
                chunk.push(rec);
                recs.push(chunk);
            }
        }
    }
    recs
}

/// What the daemon answers a valid body with, built from the engine's
/// entry points (`run_pooled`, `run_adaptive_pooled`) as the daemon
/// builds it: the `/sweep` envelope or the single point of `/gd` and
/// `/plan`, before rendering; and the number of points evaluated.
fn answer(
    path: &str,
    spec: &ScenarioSpec,
    pool: &OrderStatCachePool,
) -> Result<(Value, usize), String> {
    let err = |e: mlscale_scenario::SpecError| e.to_string();
    if path != "/sweep" {
        let outcome = run_pooled(spec, pool).map_err(err)?;
        let point = outcome.points.first().ok_or("no point evaluated")?;
        return Ok((point.to_value(), 1));
    }
    let (outcome, frontier) = if spec.adaptive {
        let swept = run_adaptive_pooled(spec, pool).map_err(err)?;
        (swept.outcome, Some(swept.frontier))
    } else {
        (run_pooled(spec, pool).map_err(err)?, None)
    };
    let mut fields = vec![
        ("name".to_string(), Value::Str(outcome.name.clone())),
        (
            "points".to_string(),
            Value::Seq(outcome.points.iter().map(Serialize::to_value).collect()),
        ),
        ("rollup".to_string(), outcome.rollup.to_value()),
    ];
    if let Some(frontier) = frontier {
        let frontier = frontier
            .iter()
            .map(|f| {
                Value::Map(vec![
                    ("id".to_string(), Value::Str(f.id.clone())),
                    ("cost".to_string(), Value::F64(f.cost)),
                    ("time".to_string(), Value::F64(f.time)),
                ])
            })
            .collect();
        fields.push(("frontier".to_string(), Value::Seq(frontier)));
    }
    Ok((Value::Map(fields), outcome.points.len()))
}

/// The hash of the daemon's rendering of a valid body, and its points.
fn expected(path: &str, body: &str, pool: &OrderStatCachePool) -> Result<(u64, usize), String> {
    let spec = ScenarioSpec::from_json(body).map_err(|e| e.to_string())?;
    let (value, points) = answer(path, &spec, pool)?;
    let text = serde_json::to_string_pretty(&value).map_err(|e| e.to_string())?;
    Ok((digest(text.as_bytes()), points))
}

/// Binds and starts a daemon and shows it the hot set once.
fn start(threads: usize, hot: &mut [Hot]) -> Result<(SocketAddr, DrainHandle), String> {
    let server = Server::bind("127.0.0.1:0", threads).map_err(|e| e.to_string())?;
    let drain = server.drain_handle();
    let addr = server.start().map_err(|e| e.to_string())?;
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    for h in hot.iter_mut() {
        let reply = conn.exchange(h.path, &h.body).map_err(|e| e.to_string())?;
        if reply.status != 200 || reply.hit {
            return Err(format!(
                "first sighting of a hot body on {} was not a 200 miss",
                h.path
            ));
        }
        h.response = String::from_utf8(reply.body).map_err(|e| e.to_string())?;
    }
    Ok((addr, drain))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    let mut hot: Vec<Hot> = HOT_SCENARIOS
        .iter()
        .map(|file| {
            std::fs::read_to_string(file)
                .map(|body| ("/sweep", body))
                .map_err(|e| format!("cannot read {file}: {e}"))
        })
        .chain([
            Ok(("/gd", FIG2_GD.to_string())),
            Ok(("/plan", FIG2_PLAN.to_string())),
        ])
        .map(|r| {
            r.map(|(path, body)| Hot {
                path,
                body,
                response: String::new(),
            })
        })
        .collect::<Result<_, _>>()?;

    // Set-up: bind, start and the first sighting of the hot set, repeated
    // on fresh daemons; the last one serves the measured window.
    let mut setups = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let started_daemon = start(threads, &mut hot)?;
        setups.push(started.elapsed().as_secs_f64());
        if let Some((_, old)) = daemon.replace(started_daemon) {
            DrainHandle::request_shutdown(&old);
        }
    }
    let (addr, drain) = daemon.ok_or("no daemon started")?;

    let next = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + ctx.window;
    let chunks: Vec<Vec<Rec>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..threads)
            .map(|_| scope.spawn(|| client(addr, ctx.seed, &next, deadline, &hot)))
            .collect();
        clients
            .into_iter()
            .flat_map(|c| c.join().unwrap_or_default())
            .collect()
    });
    let wall = started.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();
    drain.request_shutdown();
    let recs: Vec<Rec> = chunks.into_iter().flatten().collect();

    // Output checks. Hot bodies: their set-up response must equal the
    // engine's rendering, and every later answer must equal it. Unique
    // bodies: each answer must equal the engine's rendering of the body.
    let pool = OrderStatCachePool::new();
    let hot_expected: Vec<(u64, usize)> = hot
        .iter()
        .map(|h| expected(h.path, &h.body, &pool))
        .collect::<Result<_, _>>()?;
    let mut failed = hot
        .iter()
        .zip(&hot_expected)
        .filter(|(h, (hash, _))| digest(h.response.as_bytes()) != *hash)
        .count() as u64;
    let unique: Vec<&Rec> = recs
        .iter()
        .filter(|r| {
            r.status == 200 && matches!(r.kind, Kind::Plan(_) | Kind::Grid(_) | Kind::Adaptive)
        })
        .collect();
    let wanted: Vec<Result<(u64, usize), String>> = par::map(&unique, |r| {
        let req = request(ctx.seed, r.index, &hot);
        expected(req.path, &req.body, &pool)
    });
    let mut points = 0;
    for (r, want) in unique.iter().zip(&wanted) {
        match want {
            Ok((hash, n)) if *hash == r.hash && !r.hit => points += n,
            _ => failed += 1,
        }
    }
    for r in &recs {
        let ok = match r.kind {
            Kind::Hot(_) => r.status == 200 && r.matched,
            Kind::Invalid(_) => r.status == 400 && r.matched,
            _ => r.status == 200,
        };
        failed += u64::from(!ok);
        if let (Kind::Hot(h), 200, false) = (r.kind, r.status, r.hit) {
            points += hot_expected[h].1;
        }
    }

    // A miss is any request the response LRU did not answer: evaluated
    // bodies and rejected ones.
    let latencies = |hit: bool| -> Vec<f64> {
        recs.iter()
            .filter(|r| (r.status == 200 && r.hit == hit) || (r.status == 400 && !hit))
            .map(|r| r.latency_s)
            .collect()
    };
    let (hits, misses) = (latencies(true), latencies(false));
    // The delay models the answered bodies brought to the daemon's pool.
    let (mut means, mut jitter) = (vec![false; PLAN_MEANS], vec![false; JITTERS]);
    for r in recs.iter().filter(|r| r.status == 200) {
        match r.kind {
            Kind::Plan(m) => means[m] = true,
            Kind::Grid(first) => jitters(first).for_each(|j| jitter[j] = true),
            _ => {}
        }
    }
    let seen = |set: &[bool]| set.iter().filter(|&&b| b).count();
    let trace = if ctx.traced {
        Some(traced(ctx, &recs, &hot)?)
    } else {
        None
    };
    Ok(Report {
        attempted: recs.len() as u64,
        failed,
        end_to_end: vec![
            ("setup_s", median(&setups)),
            ("points_per_s", points as f64 / wall),
            ("requests_per_s", recs.len() as f64 / wall),
            ("hit_p50_ms", 1e3 * median(&hits)),
            ("miss_p50_ms", 1e3 * median(&misses)),
            ("miss_p99_ms", 1e3 * quantile(&misses, 0.99)),
            ("peak_rss_mb", peak_rss),
        ],
        notes: vec![
            format!("{threads} daemon workers, {threads} closed-loop clients, {wall:.3} s window"),
            format!(
                "samples: {} requests, {} hits, {} misses, {} answered 400",
                recs.len(),
                hits.len(),
                misses.len(),
                recs.iter().filter(|r| r.status == 400).count()
            ),
            format!(
                "order-statistic pool: {} of {PLAN_MEANS} straggler means and {} of \
                 {JITTERS} jitters seen",
                seen(&means),
                seen(&jitter)
            ),
        ],
        trace,
    })
}

/// The traced run's per-layer numbers: the daemon's own split of each
/// request (handling time from `x-mlscale-micros`), the LRU and shedding
/// counters, and an even sample of the run's requests replayed: HTTP parse
/// and write on their bytes, evaluation one layer at a time.
fn traced(ctx: &Ctx, recs: &[Rec], hot: &[Hot]) -> Result<Trace, String> {
    let mut trace = Trace::default();
    let ms = |v: Vec<f64>| 1e3 * median(&v);
    let hits: Vec<&Rec> = recs.iter().filter(|r| r.status == 200 && r.hit).collect();
    let misses: Vec<&Rec> = recs.iter().filter(|r| r.status == 200 && !r.hit).collect();
    trace.set(
        "serve.hit.handle_ms",
        ms(hits.iter().map(|r| r.micros as f64 * 1e-6).collect()),
    );
    trace.set(
        "serve.miss.handle_ms",
        ms(misses.iter().map(|r| r.micros as f64 * 1e-6).collect()),
    );
    trace.set(
        "serve.hit.transport_ms",
        ms(hits
            .iter()
            .map(|r| r.latency_s - r.micros as f64 * 1e-6)
            .collect()),
    );
    trace.set(
        "serve.lru.hit_ratio",
        ratio(hits.len() as f64, (hits.len() + misses.len()) as f64),
    );
    trace.set(
        "serve.shed_503",
        recs.iter().map(|r| f64::from(r.sheds)).sum(),
    );
    trace.set(
        "serve.retries",
        recs.iter().map(|r| f64::from(r.retries)).sum(),
    );

    // An even stride over the answered requests in arrival order, each
    // evaluated one layer at a time on a pool of its own. The stride
    // holds hundreds of `/plan` and grid bodies, so that pool fills with
    // nearly the same fixed delay models as the daemon's.
    let mut answered: Vec<&Rec> = recs
        .iter()
        .filter(|r| r.status == 200 || r.status == 400)
        .collect();
    answered.sort_by_key(|r| r.index);
    let stride = answered.len().div_ceil(REPLAY_MAX).max(1);
    let pool = OrderStatCachePool::new();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    let (mut evaluated, mut grid) = (0.0, 0.0);
    let (mut read_s, mut write_s, mut exchanges) = (0.0, 0.0, 0.0);
    for r in answered.into_iter().step_by(stride) {
        let req = request(ctx.seed, r.index, hot);
        let response = match r.kind {
            Kind::Hot(h) if r.hit => hot[h].response.clone(),
            Kind::Invalid(_) => String::new(),
            _ => {
                let t = Instant::now();
                let spec = trace
                    .span("spec.parse.busy_s", || ScenarioSpec::from_json(&req.body))
                    .map_err(|e| e.to_string())?;
                trace.count("spec.parse.calls", 1.0);
                if spec.adaptive {
                    let swept = trace
                        .span("adaptive.busy_s", || run_adaptive_pooled(&spec, &pool))
                        .map_err(|e| e.to_string())?;
                    evaluated += swept.outcome.points.len() as f64;
                    grid += swept.grid_points as f64;
                } else {
                    let gds = trace.span("spec.grid.busy_s", || {
                        spec.expand()
                            .map_err(|e| e.to_string())?
                            .iter()
                            .map(|p| resolve_gd(&spec, p))
                            .collect::<Result<Vec<_>, String>>()
                    })?;
                    trace.count("spec.grid.points", gds.len() as f64);
                    eval_replay(&gds, &pool, &mut trace)?;
                }
                let mut replay_s = t.elapsed().as_secs_f64();
                // The render replays on the engine's own answer, built
                // outside the timed spans.
                let (value, _) = answer(req.path, &spec, &pool)?;
                let t = Instant::now();
                let rendered = trace
                    .span("report.render.busy_s", || {
                        serde_json::to_string_pretty(&value)
                    })
                    .map_err(|e| e.to_string())?;
                replay_s += t.elapsed().as_secs_f64();
                trace.count("report.render.bytes", rendered.len() as f64);
                traced_s += replay_s;
                untraced_s += r.micros as f64 * 1e-6;
                rendered
            }
        };
        let raw = format!(
            "POST {} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{}",
            req.path,
            req.body.len(),
            req.body
        );
        let t = Instant::now();
        let parsed = read_request(&mut std::io::Cursor::new(raw.as_bytes()));
        read_s += t.elapsed().as_secs_f64();
        parsed.map_err(|e| e.to_string())?;
        let reply = Response::json(r.status, response)
            .with_header("x-mlscale-cache", if r.hit { "hit" } else { "miss" })
            .with_header("x-mlscale-micros", r.micros.to_string());
        let mut sink = Vec::new();
        let t = Instant::now();
        reply.write_to(&mut sink).map_err(|e| e.to_string())?;
        write_s += t.elapsed().as_secs_f64();
        exchanges += 1.0;
    }
    trace.set("adaptive.eval_ratio", ratio(evaluated, grid));
    trace.set("http.read.busy_us", 1e6 * ratio(read_s, exchanges));
    trace.set("http.write.busy_us", 1e6 * ratio(write_s, exchanges));
    trace.ops(exchanges, traced_s, untraced_s);
    Ok(trace)
}
