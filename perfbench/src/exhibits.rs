//! `exhibits`: the 19 `exp-all` exhibits with `exp-all`'s arguments,
//! fanned out with `par::map` as `exp-all` does, rendered in memory and
//! never written (`exp-all` itself would write into the checkout's
//! `results/`).
//!
//! An operation is a whole pass, as `exp-all` is one command, and every
//! pass is computed: `exp-all` keeps no results to answer from, so this
//! workload has misses only.

use crate::measure::{median, peak_rss_mb, quantile, Trace, EXHIBIT_IDS};
use crate::{Ctx, Report};
use mlscale_core::hardware::{presets, ClusterSpec, LinkSpec};
use mlscale_core::models::gd::{GdComm, GradientDescentModel};
use mlscale_core::par;
use mlscale_core::units::{BitsPerSec, FlopCount};
use mlscale_graph::generators::{dns_like, DnsGraphSpec};
use mlscale_sim::overhead::OverheadModel;
use mlscale_workloads::bp::BpWorkload;
use mlscale_workloads::experiments::{
    ablations, convergence, extensions, fig1, fig2, fig3, fig4, stragglers, table1, DnsScale,
};
use mlscale_workloads::ExperimentResult;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::Instant;

const GOLDEN_DIR: &str = "crates/bench/tests/golden";

/// Set-up is repeated this many times per run and its median reported.
const SETUP_REPEATS: usize = 7;

/// Fig 4's worker counts in `exp-all`.
const FIG4_NS: [usize; 10] = [1, 2, 4, 8, 16, 24, 32, 48, 64, 80];

/// Computes exhibit `id` exactly as `exp-all` does.
fn exhibit(id: &str) -> ExperimentResult {
    match id {
        "table1" => table1(),
        "fig1" => fig1(),
        "fig2" => fig2(16),
        "fig3" => fig3(),
        "fig4-tiny" => fig4(DnsScale::Tiny, &FIG4_NS),
        "fig4-small" => fig4(DnsScale::Small, &FIG4_NS),
        "ablation-comm" => ablations::comm_architectures(32),
        "ablation-weak-comm" => ablations::weak_scaling_comm(256),
        "ablation-batch" => ablations::batch_size(64),
        "ablation-precision" => ablations::precision(32),
        "ablation-partition" => {
            let graph = dns_like(partition_graph(), &mut StdRng::seed_from_u64(1));
            ablations::partitioning(&graph, &[2, 4, 8, 16, 32], 11)
        }
        "ablation-amdahl" => ablations::amdahl(1024),
        "ext-async-gd" => extensions::async_gd(&[1, 2, 4, 8, 16, 32, 64, 128], 192),
        "ext-inference-costs" => extensions::inference_costs(16),
        "ext-zoo" => extensions::zoo_scalability(64, 4096.0),
        "ext-provisioning" => extensions::provisioning(1000.0, 2.0),
        "ext-hierarchical-comm" => extensions::hierarchical_comm(64),
        "ext-stragglers" => stragglers(16),
        _ => convergence::convergence_tradeoff(&convergence_model(), &[1, 2, 4, 8, 16], 16, 7),
    }
}

fn partition_graph() -> DnsGraphSpec {
    DnsGraphSpec {
        vertices: 20_000,
        edges: 120_000,
        max_degree: 2_000,
    }
}

/// `exp-all`'s convergence-experiment model.
fn convergence_model() -> GradientDescentModel {
    GradientDescentModel {
        cost_per_example: FlopCount::new(6.0 * 12e6),
        batch_size: 16.0,
        params: 1e6,
        bits_per_param: 32,
        cluster: ClusterSpec::new(
            presets::xeon_e3_1240_double(),
            LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
        ),
        comm: GdComm::TwoStageTree,
    }
}

/// An exhibit's golden fixture, rendered as `exp-all` renders the exhibit
/// (`None` when it has no fixture).
fn golden(id: &str) -> Result<Option<String>, String> {
    let path = format!("{GOLDEN_DIR}/{id}.json");
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("cannot read {path}: {e}")),
    };
    let result: ExperimentResult =
        serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    serde_json::to_string_pretty(&result)
        .map(Some)
        .map_err(|e| e.to_string())
}

/// One pass: every exhibit computed and rendered, with its own latency.
fn pass() -> (Vec<(String, f64, usize)>, f64) {
    let started = Instant::now();
    let done = par::map(&EXHIBIT_IDS, |&id| {
        let t = Instant::now();
        let result = exhibit(id);
        let secs = t.elapsed().as_secs_f64();
        let points = result.series.iter().map(|s| s.points.len()).sum();
        let rendered = serde_json::to_string_pretty(&result).unwrap_or_default();
        (rendered, secs, points)
    });
    (done, started.elapsed().as_secs_f64())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    // Set-up: load and render the golden fixtures, then one unmeasured
    // warm-up pass, which also pins fig4-tiny's rendering (it has no
    // fixture and must render identically on every pass).
    let mut setups = Vec::new();
    let mut expected: Vec<Option<String>> = Vec::new();
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        expected = EXHIBIT_IDS
            .iter()
            .map(|id| golden(id))
            .collect::<Result<_, _>>()?;
        let (warm, _) = pass();
        for (slot, (rendered, _, _)) in expected.iter_mut().zip(warm) {
            slot.get_or_insert(rendered);
        }
        setups.push(started.elapsed().as_secs_f64());
    }

    let mut trace = Trace::default();
    let mut misses = Vec::new();
    let mut points = 0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let started = Instant::now();
    while started.elapsed() < ctx.window || misses.is_empty() {
        let (done, wall) = pass();
        misses.push(wall);
        points = done.iter().map(|d| d.2).sum();
        attempted += 1;
        failed += u64::from(
            done.iter()
                .zip(&expected)
                .any(|(d, want)| Some(&d.0) != want.as_ref()),
        );
        if ctx.traced {
            traced_pass(&mut trace, &done, wall)?;
        }
    }
    let peak_rss = peak_rss_mb();

    let pass_s = median(&misses);
    Ok(Report {
        attempted,
        failed,
        end_to_end: vec![
            ("setup_s", median(&setups)),
            ("points_per_s", points as f64 / pass_s),
            (
                "requests_per_s",
                misses.len() as f64 / misses.iter().sum::<f64>(),
            ),
            // No pass is a hit; the line carries the median pass time here
            // too, so that it holds every metric.
            ("hit_p50_ms", 1e3 * pass_s),
            ("miss_p50_ms", 1e3 * pass_s),
            ("miss_p99_ms", 1e3 * quantile(&misses, 0.99)),
            ("peak_rss_mb", peak_rss),
        ],
        notes: vec![
            format!("{} exhibits, {points} points per pass", EXHIBIT_IDS.len()),
            format!(
                "samples: {} misses (passes computed), no hits",
                misses.len()
            ),
        ],
        trace: ctx.traced.then_some(trace),
    })
}

/// The traced run: per-exhibit busy time from a second pass (spans on
/// the `par::map` workers, so coverage counts their wall share), then
/// the graph generator and the BSP simulation of Fig 4 timed on their own.
fn traced_pass(
    trace: &mut Trace,
    untraced: &[(String, f64, usize)],
    untraced_wall: f64,
) -> Result<(), String> {
    let lanes = par::thread_count().min(EXHIBIT_IDS.len()) as f64;
    let (done, wall) = pass();
    for (id, (rendered, secs, _)) in EXHIBIT_IDS.iter().zip(&done) {
        trace.add_span(&format!("exhibit.{id}.busy_s"), *secs, lanes);
        trace.count("report.render.bytes", rendered.len() as f64);
    }
    if done.iter().map(|d| &d.0).ne(untraced.iter().map(|d| &d.0)) {
        return Err("traced pass rendered differently from the untraced pass".into());
    }
    trace.ops(1.0, wall, untraced_wall);

    // Timed outside the pass, so they count toward neither coverage nor
    // overhead: the same generator calls fig4 and ablation-partition make.
    let t = Instant::now();
    let graphs = [
        (DnsScale::Tiny.spec(), 0xD45),
        (DnsScale::Small.spec(), 0xD45),
        (partition_graph(), 1),
    ]
    .map(|(spec, seed)| dns_like(spec, &mut StdRng::seed_from_u64(seed)));
    trace.count("graph.generate.busy_s", t.elapsed().as_secs_f64());
    let flops = presets::dl980_core().effective();
    let t = Instant::now();
    for graph in &graphs[..2] {
        let t1 = graph.edges() as f64 * 14.0 / flops.get();
        let workload = BpWorkload {
            graph,
            states: 2,
            flops,
            bandwidth: BitsPerSec::new(f64::INFINITY),
            overhead: OverheadModel::PerWorkerLinear {
                base: 2e-5 * t1,
                per_worker: 5e-4 * t1,
            },
            trials: 3,
            iterations: 3,
            seed: 0xF16,
        };
        black_box(workload.simulated_curve(&FIG4_NS));
    }
    trace.count("bp.simulated_curve.busy_s", t.elapsed().as_secs_f64());
    Ok(())
}
