//! Extension experiments beyond the paper's exhibits, carrying out its
//! future-work directions: an analytic model for asynchronous gradient
//! descent validated against the event-level parameter-server simulation,
//! a Gibbs-vs-BP inference cost comparison, scalability of the wider
//! architecture zoo, cost/deadline provisioning with the planner, and the
//! latency/topology-aware communication study (flat α–β collectives vs a
//! two-tier rack hierarchy).

use crate::gd::GdWorkload;
use crate::report::{ExperimentResult, Series};
use mlscale_core::hardware::{presets, ClusterSpec, LinkSpec, NodeSpec};
use mlscale_core::metrics::Comparison;
use mlscale_core::models::asyncgd::AsyncGdModel;
use mlscale_core::models::gd::{GdComm, GradientDescentModel};
use mlscale_core::models::graphinf::{bp_cost_per_edge, gibbs_cost_per_edge};
use mlscale_core::planner::{Planner, Pricing};
use mlscale_core::units::{Bits, BitsPerSec, FlopCount, FlopsRate, Seconds};
use mlscale_sim::overhead::OverheadModel;
use mlscale_sim::paramserver::{simulate_async, ParamServerConfig};

/// **Async gradient descent** (paper future work): the closed-form
/// throughput model `X(n) = min(n/t_cycle, 1/t_srv)` against the
/// discrete-event parameter-server simulation.
pub fn async_gd(ns: &[usize], updates: usize) -> ExperimentResult {
    let cluster = ClusterSpec::new(
        NodeSpec::new(FlopsRate::giga(10.0), 1.0),
        LinkSpec::bandwidth_only(BitsPerSec::giga(10.0)),
    );
    let model = AsyncGdModel {
        grad_work: FlopCount::giga(3.2),
        worker_flops: cluster.flops(),
        server_flops: cluster.flops(),
        apply_work: FlopCount::new(1e7),
        payload: Bits::new(32.0 * 10e6),
        bandwidth: cluster.bandwidth(),
        latency: cluster.link.latency,
    };
    let sim_config = ParamServerConfig {
        cluster,
        grad_flops: model.grad_work.get(),
        payload_bits: model.payload.get(),
        apply_flops: model.apply_work.get(),
        overhead: OverheadModel::None,
        seed: 77,
    };
    let model_series: Vec<(usize, f64)> = ns.iter().map(|&n| (n, model.throughput(n))).collect();
    let sim_series: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| (n, simulate_async(&sim_config, n, updates).throughput))
        .collect();
    let staleness_model: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| (n, model.expected_staleness(n)))
        .collect();
    let staleness_sim: Vec<(usize, f64)> = ns
        .iter()
        .map(|&n| (n, simulate_async(&sim_config, n, updates).mean_staleness))
        .collect();
    let mape = Comparison::join(&model_series, &sim_series).mape();
    ExperimentResult::new(
        "ext-async-gd",
        "Asynchronous SGD: analytic throughput model vs parameter-server simulation",
    )
    .with_series(Series::new("model upd/s", model_series))
    .with_series(Series::new("simulated upd/s", sim_series))
    .with_series(Series::new("model staleness", staleness_model))
    .with_series(Series::new("simulated staleness", staleness_sim))
    .with_stat("throughput MAPE %", mape, None)
    .with_stat(
        "saturation point (model)",
        model.saturation_point() as f64,
        None,
    )
    .with_note(
        "the paper's future-work item: X(n) = min(n/t_cycle, 1/t_srv); staleness \
         ≈ n−1 before the server NIC saturates",
    )
}

/// **Gibbs vs BP**: the per-edge cost models of the paper's two named
/// inference algorithms across state counts, and the resulting
/// computation-ratio at the Fig 4 configuration.
pub fn inference_costs(max_states: usize) -> ExperimentResult {
    let states: Vec<usize> = (2..=max_states).collect();
    let bp: Vec<(usize, f64)> = states
        .iter()
        .map(|&s| (s, bp_cost_per_edge(s).get()))
        .collect();
    let gibbs: Vec<(usize, f64)> = states
        .iter()
        .map(|&s| (s, gibbs_cost_per_edge(s).get()))
        .collect();
    let ratio_at_2 = bp[0].1 / gibbs[0].1;
    let last = states.len() - 1;
    let ratio_at_max = bp[last].1 / gibbs[last].1;
    ExperimentResult::new(
        "ext-inference-costs",
        "Per-edge cost c(S): loopy BP (S + 2(S+S²)) vs Gibbs sweep (2S)",
    )
    .with_series(Series::new("bp c(S)", bp))
    .with_series(Series::new("gibbs c(S)", gibbs))
    .with_stat("bp/gibbs ratio at S=2", ratio_at_2, None)
    .with_stat(
        format!("bp/gibbs ratio at S={max_states}"),
        ratio_at_max,
        None,
    )
    .with_note(
        "BP pays an S² marginalisation per message; Gibbs only accumulates S \
         conditional terms per edge — the gap widens linearly in S, trading \
         per-sweep cost against slower Monte-Carlo convergence",
    )
}

/// **Architecture zoo scalability**: strong-scaling optima of the era's
/// standard networks on the K40 GPU cluster. The parameter-per-madd ratio
/// `W/C` (communication per unit computation) dictates the ordering:
/// AlexNet (dense-head-heavy) stops scaling long before VGG-16 and
/// Inception v3.
pub fn zoo_scalability(max_n: usize, total_batch: f64) -> ExperimentResult {
    let nets = [
        mlscale_nn::zoo::alexnet(),
        mlscale_nn::zoo::vgg16(),
        mlscale_nn::zoo::inception_v3(),
        mlscale_nn::zoo::resnet50(),
        mlscale_nn::zoo::mnist_fc(),
    ];
    let ns: Vec<usize> = (1..=max_n).collect();
    let mut result = ExperimentResult::new(
        "ext-zoo",
        "Strong-scaling optima across architectures (K40 cluster, fixed total batch)",
    );
    for net in &nets {
        let model = GradientDescentModel {
            cost_per_example: FlopCount::new(3.0 * net.forward_madds() as f64),
            batch_size: total_batch,
            params: net.params() as f64,
            bits_per_param: 32,
            cluster: presets::gpu_cluster(),
            comm: GdComm::TwoStageTree,
        };
        let curve = model.strong_curve(ns.iter().copied());
        let (n_opt, s_opt) = curve.optimal();
        let w_over_c = net.params() as f64 / net.forward_madds() as f64;
        result = result
            .with_series(Series::new(net.name.clone(), curve.speedups()))
            .with_stat(format!("optimal n ({})", net.name), n_opt as f64, None)
            .with_stat(format!("peak speedup ({})", net.name), s_opt, None)
            .with_stat(format!("W/C ratio ({})", net.name), w_over_c, None);
    }
    result.with_note(
        "higher parameters-per-computation (W/C) means more communication per \
         unit of parallelisable work and an earlier optimum — the architecture \
         axis of the paper's computation/communication trade-off",
    )
}

/// **Provisioning with the planner**: cheapest-within-deadline and
/// fastest-within-budget answers for the Fig 2 training job (1000
/// iterations), the "back-of-the-envelope estimations should precede
/// distributed implementations" workflow.
pub fn provisioning(iterations: f64, node_hour_price: f64) -> ExperimentResult {
    let model = super::figures::fig2_model();
    let job_time = move |n: usize| model.strong_iteration_time(n) * iterations;
    let planner = Planner::new(job_time, 64, Pricing::hourly(node_hour_price));
    let fastest = planner.fastest();
    let cheapest = planner.cheapest();
    let costs: Vec<(usize, f64)> = planner.table().iter().map(|p| (p.n, p.cost)).collect();
    let times: Vec<(usize, f64)> = planner
        .table()
        .iter()
        .map(|p| (p.n, p.time.as_secs()))
        .collect();
    let mut result = ExperimentResult::new(
        "ext-provisioning",
        format!("Provisioning the Fig 2 job ({iterations:.0} iterations) under price {node_hour_price}/node-hour"),
    )
    .with_series(Series::new("job time s", times))
    .with_series(Series::new("job cost", costs))
    .with_stat("fastest n", fastest.n as f64, None)
    .with_stat("fastest time s", fastest.time.as_secs(), None)
    .with_stat("cheapest n", cheapest.n as f64, None)
    .with_stat("cheapest cost", cheapest.cost, None);
    // A deadline halfway between fastest and single-node time.
    let t1 = job_time(1).as_secs();
    let deadline = Seconds::new((t1 + fastest.time.as_secs()) / 2.0);
    match planner.cheapest_within_deadline(deadline) {
        Some(plan) => {
            result = result
                .with_stat("deadline s", deadline.as_secs(), None)
                .with_stat("cheapest n within deadline", plan.n as f64, None)
                .with_stat("cost within deadline", plan.cost, None);
        }
        None => {
            result = result.with_note("midpoint deadline infeasible (unexpected)");
        }
    }
    result.with_note(
        "cost ∝ n·t(n): the cheapest configuration sits where parallel \
         efficiency is highest, not where speedup peaks",
    )
}

/// **Flat vs hierarchical communication** (the latency/topology extension):
/// the paper's MNIST training job on (a) its original flat gigabit cluster
/// with Spark's mechanism, (b) the same flat network with a latency-aware
/// tree exchange, and (c) a two-tier rack pod with the hierarchical
/// collective. The flat bandwidth-only model caps the job at a handful of
/// workers; the rack topology keeps most hops on fast intra-rack links and
/// pushes the optimum out by roughly the rack size. The hierarchical
/// analytic curve is cross-validated against the discrete-event simulator
/// on the same racked cluster.
pub fn hierarchical_comm(max_n: usize) -> ExperimentResult {
    let flat = super::figures::fig2_model();
    let flat_tree = GradientDescentModel {
        comm: GdComm::TwoStageTree,
        ..flat
    };
    let hier = GradientDescentModel {
        cluster: presets::two_tier_pod(),
        comm: GdComm::Hierarchical,
        ..flat
    };
    let ns: Vec<usize> = (1..=max_n).collect();
    let flat_curve = flat.strong_curve(ns.iter().copied());
    let tree_curve = flat_tree.strong_curve(ns.iter().copied());
    let hier_curve = hier.strong_curve(ns.iter().copied());
    let (n_flat, s_flat) = flat_curve.optimal();
    let (n_tree, s_tree) = tree_curve.optimal();
    let (n_hier, s_hier) = hier_curve.optimal();

    // Cross-validate the hierarchical analytic model against the
    // discrete-event twin executing the same schedule on the racked pod.
    let sim_ns: Vec<usize> = ns
        .iter()
        .copied()
        .filter(|&n| n % 8 == 0 || n == 1)
        .collect();
    let workload = GdWorkload::ideal(hier);
    let (hier_model, hier_sim) = workload.strong_curves(&sim_ns);
    let mape = Comparison::join(&hier_model.speedups(), &hier_sim.speedups()).mape();

    ExperimentResult::new(
        "ext-hierarchical-comm",
        "Flat vs two-tier hierarchical gradient exchange (MNIST job, strong scaling)",
    )
    .with_series(Series::new("flat spark", flat_curve.speedups()))
    .with_series(Series::new("flat tree", tree_curve.speedups()))
    .with_series(Series::new("hierarchical", hier_curve.speedups()))
    .with_series(Series::new("hierarchical sim", hier_sim.speedups()))
    .with_stat("optimal n (flat spark)", n_flat as f64, None)
    .with_stat("peak speedup (flat spark)", s_flat, None)
    .with_stat("optimal n (flat tree)", n_tree as f64, None)
    .with_stat("peak speedup (flat tree)", s_tree, None)
    .with_stat("optimal n (hierarchical)", n_hier as f64, None)
    .with_stat("peak speedup (hierarchical)", s_hier, None)
    .with_stat("hierarchical model-vs-sim MAPE %", mape, None)
    .with_note(
        "t_cm = rounds·α + volume/B per tier: the uplink carries only r−1 \
         leader hops of M/r chunks, so the cross-rack wall moves out by \
         about the rack size — invisible to any flat f_cm(M, n)",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn async_model_tracks_simulation() {
        let r = async_gd(&[1, 2, 4, 8, 16, 32, 64], 128);
        let mape = r
            .stats
            .iter()
            .find(|s| s.label == "throughput MAPE %")
            .unwrap()
            .value;
        assert!(
            mape < 15.0,
            "async model must track the event simulation: {mape:.1}%"
        );
        // Staleness ≈ n−1 in both.
        let sim_st = r.series("simulated staleness").unwrap();
        assert!((sim_st.at(8).unwrap() - 7.0).abs() < 1.5);
        let model_st = r.series("model staleness").unwrap();
        assert!((model_st.at(8).unwrap() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn inference_cost_gap_widens() {
        let r = inference_costs(16);
        let at2 = r
            .stats
            .iter()
            .find(|s| s.label.contains("S=2"))
            .unwrap()
            .value;
        let at16 = r
            .stats
            .iter()
            .find(|s| s.label.contains("S=16"))
            .unwrap()
            .value;
        assert!((at2 - 14.0 / 4.0).abs() < 1e-12);
        assert!(at16 > at2, "S² term must widen the gap");
    }

    #[test]
    fn zoo_ordering_follows_w_over_c() {
        let r = zoo_scalability(64, 4096.0);
        let opt = |name: &str| {
            r.stats
                .iter()
                .find(|s| s.label == format!("optimal n ({name})"))
                .unwrap()
                .value
        };
        // Parameter-heavy AlexNet must cap out before the conv-heavy nets.
        assert!(
            opt("alexnet") < opt("vgg16"),
            "alexnet {} vgg {}",
            opt("alexnet"),
            opt("vgg16")
        );
        assert!(opt("alexnet") < opt("inception-v3"));
        // The MNIST FC net (W/C = 1/2) is the most communication-bound of
        // all at this batch size.
        assert!(opt("mnist-fc") <= opt("alexnet"));
    }

    #[test]
    fn hierarchical_extends_the_scaling_range() {
        let r = hierarchical_comm(64);
        let stat = |label: &str| r.stats.iter().find(|s| s.label == label).unwrap().value;
        assert!(
            stat("optimal n (hierarchical)") > stat("optimal n (flat spark)"),
            "rack topology must push the optimum out"
        );
        assert!(stat("peak speedup (hierarchical)") > stat("peak speedup (flat spark)"));
        assert!(
            stat("hierarchical model-vs-sim MAPE %") < 5.0,
            "analytic hierarchical model must track its simulator twin: {}",
            stat("hierarchical model-vs-sim MAPE %")
        );
    }

    #[test]
    fn provisioning_trade_off_present() {
        let r = provisioning(1000.0, 2.0);
        let fastest_n = r
            .stats
            .iter()
            .find(|s| s.label == "fastest n")
            .unwrap()
            .value;
        let cheapest_n = r
            .stats
            .iter()
            .find(|s| s.label == "cheapest n")
            .unwrap()
            .value;
        assert!(
            fastest_n > cheapest_n,
            "speed costs money: {fastest_n} vs {cheapest_n}"
        );
        let within = r
            .stats
            .iter()
            .find(|s| s.label == "cheapest n within deadline")
            .expect("deadline feasible")
            .value;
        assert!(within >= cheapest_n && within <= fastest_n);
    }
}
