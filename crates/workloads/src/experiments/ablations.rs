//! Ablation experiments for the design choices the paper discusses in
//! prose: communication architecture, weak-scaling communication shape
//! (finite vs infinite scaling), batch size, parameter precision,
//! partitioning strategy, and the Amdahl-fraction treatment of framework
//! overhead (Schreiber's argument).

use crate::report::{ExperimentResult, Series};
use mlscale_core::models::gd::{GdComm, GradientDescentModel};
use mlscale_core::units::{FlopCount, FlopsRate};
use mlscale_graph::csr::CsrGraph;
use mlscale_graph::partition::{Partition, PartitionStats};
use rand::rngs::StdRng;
use rand::SeedableRng;

use super::figures::{fig2_model, fig3_model};

/// Communication-architecture ablation on the Fig 2 configuration: how the
/// optimal cluster size and peak speedup move across Spark's mechanism,
/// the generic two-stage tree, flat (linear) exchange and ring all-reduce.
pub fn comm_architectures(max_n: usize) -> ExperimentResult {
    let kinds = [
        ("spark", GdComm::Spark),
        ("two-stage-tree", GdComm::TwoStageTree),
        ("linear-flat", GdComm::LinearFlat),
        ("ring", GdComm::Ring),
    ];
    let ns: Vec<usize> = (1..=max_n).collect();
    let mut result = ExperimentResult::new(
        "ablation-comm",
        "Gradient exchange architecture vs strong-scaling speedup (Fig 2 config)",
    );
    for (name, comm) in kinds {
        let model = GradientDescentModel {
            comm,
            ..fig2_model()
        };
        let curve = model.strong_curve(ns.iter().copied());
        let (n_opt, s_opt) = curve.optimal();
        result = result
            .with_series(Series::new(name, curve.speedups()))
            .with_stat(format!("optimal n ({name})"), n_opt as f64, None)
            .with_stat(format!("peak speedup ({name})"), s_opt, None);
    }
    result.with_note(
        "the paper's criticism of linear-communication models (Sparks et al.) \
         in one plot: flat exchange caps the optimum far earlier than tree or \
         √n architectures; ring all-reduce dominates at scale",
    )
}

/// Weak-scaling communication-shape ablation on the Fig 3 configuration:
/// logarithmic aggregation allows *infinite* weak scaling while the linear
/// model saturates — the paper's Section V-A discussion.
pub fn weak_scaling_comm(max_n: usize) -> ExperimentResult {
    let ns: Vec<usize> = (1..=max_n).filter(|n| n.is_power_of_two()).collect();
    let mut result = ExperimentResult::new(
        "ablation-weak-comm",
        "Per-instance weak-scaling speedup: logarithmic vs linear communication",
    );
    for (name, comm) in [
        ("log-tree", GdComm::TwoStageTree),
        ("linear", GdComm::LinearFlat),
    ] {
        let model = GradientDescentModel {
            comm,
            ..fig3_model()
        };
        let curve = model.weak_curve(ns.iter().copied());
        result = result.with_series(Series::new(name, curve.speedups()));
    }
    let log_s = result
        .series("log-tree")
        // lint: allow(panic-free-lib): the log-tree series is inserted a few lines above
        .expect("built above")
        .points
        .clone();
    // lint: allow(panic-free-lib): the linear series is inserted a few lines above
    let lin_s = result.series("linear").expect("built above").points.clone();
    // lint: allow(panic-free-lib): both series sample every n in a multi-point grid, so len() >= 2
    let log_gain = log_s.last().unwrap().1 / log_s[log_s.len() - 2].1;
    // lint: allow(panic-free-lib): both series sample every n in a multi-point grid, so len() >= 2
    let lin_gain = lin_s.last().unwrap().1 / lin_s[lin_s.len() - 2].1;
    result
        .with_stat("last-doubling gain (log)", log_gain, None)
        .with_stat("last-doubling gain (linear)", lin_gain, None)
        .with_note(
            "\"Such assumption allows infinite weak scaling … The linear \
             communication model allows only finite scaling: after enough \
             workers added, the speedup remains constant.\"",
        )
}

/// Batch-size ablation on the Fig 2 configuration: larger batches shift
/// the computation/communication balance and move the optimum outward.
pub fn batch_size(max_n: usize) -> ExperimentResult {
    let mut result = ExperimentResult::new(
        "ablation-batch",
        "Batch size vs optimal worker count (Fig 2 config)",
    );
    let ns: Vec<usize> = (1..=max_n).collect();
    for batch in [6_000.0, 60_000.0, 600_000.0] {
        let model = GradientDescentModel {
            batch_size: batch,
            ..fig2_model()
        };
        let curve = model.strong_curve(ns.iter().copied());
        let (n_opt, s_opt) = curve.optimal();
        let label = format!("S={batch:.0}");
        result = result
            .with_series(Series::new(label.clone(), curve.speedups()))
            .with_stat(format!("optimal n ({label})"), n_opt as f64, None)
            .with_stat(format!("peak speedup ({label})"), s_opt, None);
    }
    result.with_note(
        "more computation per exchanged gradient (larger S) pushes the \
         communication crossover — and the optimal cluster size — outward",
    )
}

/// Parameter-precision ablation: Spark's 64-bit doubles halve the
/// communication budget available to the same network.
pub fn precision(max_n: usize) -> ExperimentResult {
    let ns: Vec<usize> = (1..=max_n).collect();
    let mut result = ExperimentResult::new(
        "ablation-precision",
        "Parameter width (32 vs 64 bit) vs strong-scaling speedup (Fig 2 config)",
    );
    for bits in [32u32, 64] {
        let model = GradientDescentModel {
            bits_per_param: bits,
            ..fig2_model()
        };
        let curve = model.strong_curve(ns.iter().copied());
        let (n_opt, s_opt) = curve.optimal();
        result = result
            .with_series(Series::new(format!("{bits}-bit"), curve.speedups()))
            .with_stat(format!("optimal n ({bits}-bit)"), n_opt as f64, None)
            .with_stat(format!("peak speedup ({bits}-bit)"), s_opt, None);
    }
    result
}

/// Partitioning-strategy ablation for the BP workload: the paper's random
/// assignment vs deterministic hashing vs greedy degree balancing, by
/// exact max-edges load at a sweep of worker counts.
pub fn partitioning(graph: &CsrGraph, ns: &[usize], seed: u64) -> ExperimentResult {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut random = Vec::new();
    let mut hashed = Vec::new();
    let mut greedy = Vec::new();
    let mut repl = Vec::new();
    for &n in ns {
        let p_rand = Partition::random(graph.vertices(), n, &mut rng);
        let s_rand = PartitionStats::compute(graph, &p_rand);
        random.push((n, s_rand.max_incident_edges() as f64));
        repl.push((n, s_rand.replication_factor()));
        let p_hash = Partition::hashed(graph.vertices(), n);
        hashed.push((
            n,
            PartitionStats::compute(graph, &p_hash).max_incident_edges() as f64,
        ));
        let p_greedy = Partition::greedy_balanced(graph, n);
        greedy.push((
            n,
            PartitionStats::compute(graph, &p_greedy).max_incident_edges() as f64,
        ));
    }
    let last = ns.len() - 1;
    let gain = random[last].1 / greedy[last].1;
    ExperimentResult::new(
        "ablation-partition",
        "Partitioning strategy vs max per-worker edge load (BP workload)",
    )
    .with_series(Series::new("random max-edges", random))
    .with_series(Series::new("hashed max-edges", hashed))
    .with_series(Series::new("greedy max-edges", greedy))
    .with_series(Series::new("replication r (random)", repl))
    .with_stat("random/greedy load ratio at max n", gain, None)
    .with_note(
        "the paper's feedback-loop future-work item: random assignment is a \
         conservative model input; degree-aware placement shrinks max_i(E_i) \
         substantially on power-law graphs",
    )
}

/// Network ablation for the BP workload: the Fig 4 experiment assumes
/// shared memory (`t_cm ≈ 0`); this sweep prices the *same* partitioned
/// workload on distributed clusters, where the paper's linear replica
/// exchange `t_cm = 32/B·r·V·S` (with the replication factor measured
/// from the actual partition) throttles scaling.
pub fn bp_network(graph: &CsrGraph, ns: &[usize], seed: u64) -> ExperimentResult {
    use mlscale_core::units::{BitsPerSec, FlopsRate};
    let flops = FlopsRate::giga(7.6);
    let mut result = ExperimentResult::new(
        "ablation-bp-network",
        "BP speedup: shared memory vs networked replica exchange (measured r)",
    );
    let mut optima = Vec::new();
    for (name, bandwidth) in [
        ("shared-memory", BitsPerSec::new(f64::INFINITY)),
        ("10 Gbit/s", BitsPerSec::giga(10.0)),
        ("1 Gbit/s", BitsPerSec::giga(1.0)),
    ] {
        let workload = crate::bp::BpWorkload {
            graph,
            states: 2,
            flops,
            bandwidth,
            overhead: mlscale_sim::overhead::OverheadModel::None,
            trials: 3,
            iterations: 3,
            seed,
        };
        let curve = workload.simulated_curve(ns);
        let (n_opt, s_opt) = curve.optimal();
        optima.push((name, n_opt, s_opt));
        result = result
            .with_series(Series::new(name, curve.speedups()))
            .with_stat(format!("optimal n ({name})"), n_opt as f64, None)
            .with_stat(format!("peak speedup ({name})"), s_opt, None);
    }
    result.with_note(
        "the shared-memory assumption is what lets Fig 4 scale: on a network \
         the linear replica exchange is a constant floor per iteration that \
         parallel computation cannot amortise",
    )
}

/// The Schreiber point: a fixed Amdahl serial fraction caps speedup at
/// `1/serial`, but if the framework overhead declines with `n` the cap
/// disappears — "one could make it decline with increasing n, so that the
/// sequential piece is irrelevant to scaling."
pub fn amdahl(max_n: usize) -> ExperimentResult {
    let work = FlopCount::giga(100.0);
    let rate = FlopsRate::giga(1.0);
    let serial = 0.05;
    let ns: Vec<usize> = (1..=max_n).filter(|n| n.is_power_of_two()).collect();
    // Amdahl's law: t(n) = t(1)·(serial + (1−serial)/n).
    let fixed_time = |n: usize| {
        let t1 = (work / rate).as_secs();
        t1 * (serial + (1.0 - serial) / n as f64)
    };
    let fixed_series: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| (n, fixed_time(1) / fixed_time(n)))
        .collect();
    // Declining overhead: the serial piece shrinks as serial/√n.
    let declining_time = |n: usize| {
        let t1 = (work / rate).as_secs();
        t1 * (serial / (n as f64).sqrt() + (1.0 - serial) / n as f64)
    };
    let declining_series: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| (n, declining_time(1) / declining_time(n)))
        .collect();
    let cap = 1.0 / serial;
    ExperimentResult::new(
        "ablation-amdahl",
        "Fixed Amdahl fraction vs declining framework overhead (Schreiber)",
    )
    .with_series(Series::new("fixed serial 5%", fixed_series.clone()))
    .with_series(Series::new("declining serial", declining_series.clone()))
    .with_stat("Amdahl cap (1/serial)", cap, None)
    .with_stat(
        "fixed speedup at max n",
        // lint: allow(panic-free-lib): the fixed series is built over the non-empty ns above
        fixed_series.last().unwrap().1,
        None,
    )
    .with_stat(
        "declining speedup at max n",
        // lint: allow(panic-free-lib): the declining series is built over the non-empty ns above
        declining_series.last().unwrap().1,
        None,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscale_graph::generators::{dns_like, DnsGraphSpec};

    #[test]
    fn comm_ablation_orders_architectures() {
        let r = comm_architectures(32);
        let opt = |name: &str| {
            r.stats
                .iter()
                .find(|s| s.label == format!("optimal n ({name})"))
                .unwrap()
                .value
        };
        // Flat linear exchange must cap out earlier than the tree; ring
        // must dominate everything.
        assert!(opt("linear-flat") < opt("two-stage-tree"));
        assert!(opt("ring") >= opt("spark"));
        let peak = |name: &str| {
            r.stats
                .iter()
                .find(|s| s.label == format!("peak speedup ({name})"))
                .unwrap()
                .value
        };
        assert!(peak("ring") > peak("linear-flat"));
    }

    #[test]
    fn weak_comm_ablation_shows_saturation() {
        let r = weak_scaling_comm(256);
        let log_gain = r
            .stats
            .iter()
            .find(|s| s.label == "last-doubling gain (log)")
            .unwrap()
            .value;
        let lin_gain = r
            .stats
            .iter()
            .find(|s| s.label == "last-doubling gain (linear)")
            .unwrap()
            .value;
        assert!(log_gain > 1.2, "log comm keeps gaining, got {log_gain}");
        assert!(lin_gain < 1.1, "linear comm saturates, got {lin_gain}");
    }

    #[test]
    fn batch_ablation_moves_optimum_outward() {
        let r = batch_size(64);
        let opt = |s: &str| {
            r.stats
                .iter()
                .find(|st| st.label == format!("optimal n (S={s})"))
                .unwrap()
                .value
        };
        assert!(opt("6000") < opt("60000"));
        assert!(opt("60000") <= opt("600000"));
    }

    #[test]
    fn precision_ablation_prefers_narrow_params() {
        let r = precision(32);
        let peak32 = r
            .stats
            .iter()
            .find(|s| s.label == "peak speedup (32-bit)")
            .unwrap()
            .value;
        let peak64 = r
            .stats
            .iter()
            .find(|s| s.label == "peak speedup (64-bit)")
            .unwrap()
            .value;
        assert!(
            peak32 > peak64,
            "half the traffic must help: {peak32} vs {peak64}"
        );
    }

    #[test]
    fn partition_ablation_greedy_wins() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = dns_like(
            DnsGraphSpec {
                vertices: 3000,
                edges: 18_000,
                max_degree: 500,
            },
            &mut rng,
        );
        let r = partitioning(&g, &[2, 4, 8, 16], 9);
        let ratio = r
            .stats
            .iter()
            .find(|s| s.label == "random/greedy load ratio at max n")
            .unwrap()
            .value;
        assert!(ratio > 1.0, "greedy must beat random, ratio {ratio}");
        // Replication factor grows with n.
        let repl = r.series("replication r (random)").unwrap();
        assert!(repl.at(16).unwrap() > repl.at(2).unwrap());
    }

    #[test]
    fn bp_network_ablation_orders_bandwidths() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = dns_like(
            DnsGraphSpec {
                vertices: 4000,
                edges: 24_000,
                max_degree: 600,
            },
            &mut rng,
        );
        let r = bp_network(&g, &[1, 2, 4, 8, 16], 13);
        let peak = |name: &str| {
            r.stats
                .iter()
                .find(|s| s.label == format!("peak speedup ({name})"))
                .unwrap()
                .value
        };
        assert!(peak("shared-memory") > peak("10 Gbit/s"));
        assert!(peak("10 Gbit/s") >= peak("1 Gbit/s"));
        // On 1 Gbit/s the replica floor dominates: barely scalable.
        assert!(peak("1 Gbit/s") < 0.6 * peak("shared-memory"));
    }

    #[test]
    fn amdahl_ablation_breaks_the_cap() {
        let r = amdahl(1024);
        let cap = r
            .stats
            .iter()
            .find(|s| s.label == "Amdahl cap (1/serial)")
            .unwrap()
            .value;
        let fixed = r
            .stats
            .iter()
            .find(|s| s.label == "fixed speedup at max n")
            .unwrap()
            .value;
        let declining = r
            .stats
            .iter()
            .find(|s| s.label == "declining speedup at max n")
            .unwrap()
            .value;
        assert!(fixed < cap);
        assert!(
            declining > cap,
            "declining overhead must beat the Amdahl cap"
        );
    }
}
