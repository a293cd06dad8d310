//! Runs every exhibit reproduction (Fig 4 at the small scale) and writes
//! all JSON results under `results/`, one `<id>.json` per exhibit.
//!
//! The exhibits are independent, so they fan out across threads
//! ([`mlscale_core::par`], `MLSCALE_THREADS` to override) and each result
//! is emitted — printed and atomically written to `results/<id>.json` —
//! the moment its exhibit completes, rather than serially after all of
//! them have run. Completion order (and therefore stdout order) varies
//! with the thread count; every emitted file is byte-identical to a
//! serial run's.

#![forbid(unsafe_code)]

use mlscale_workloads::experiments::{
    ablations, extensions, fig1, fig2, fig3, fig4, table1, DnsScale,
};

/// One exhibit: computes its result(s) and emits them on completion.
type Exhibit = Box<dyn Fn() + Send + Sync>;

fn main() {
    let ns: Vec<usize> = vec![1, 2, 4, 8, 16, 24, 32, 48, 64, 80];
    let ns4 = ns.clone();
    let exhibits: Vec<Exhibit> = vec![
        Box::new(|| {
            mlscale_bench::emit(&table1());
        }),
        Box::new(|| {
            mlscale_bench::emit(&fig1());
        }),
        Box::new(|| {
            mlscale_bench::emit(&fig2(16));
        }),
        Box::new(|| {
            mlscale_bench::emit(&fig3());
        }),
        Box::new(move || {
            mlscale_bench::emit(&fig4(DnsScale::Tiny, &ns));
        }),
        Box::new(move || {
            mlscale_bench::emit(&fig4(DnsScale::Small, &ns4));
        }),
        Box::new(|| {
            mlscale_bench::emit(&ablations::comm_architectures(32));
        }),
        Box::new(|| {
            mlscale_bench::emit(&ablations::weak_scaling_comm(256));
        }),
        Box::new(|| {
            mlscale_bench::emit(&ablations::batch_size(64));
        }),
        Box::new(|| {
            mlscale_bench::emit(&ablations::precision(32));
        }),
        Box::new(|| {
            let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
            let graph = mlscale_graph::generators::dns_like(
                mlscale_graph::generators::DnsGraphSpec {
                    vertices: 20_000,
                    edges: 120_000,
                    max_degree: 2_000,
                },
                &mut rng,
            );
            mlscale_bench::emit(&ablations::partitioning(&graph, &[2, 4, 8, 16, 32], 11));
        }),
        Box::new(|| {
            mlscale_bench::emit(&ablations::amdahl(1024));
        }),
        Box::new(|| {
            mlscale_bench::emit(&extensions::async_gd(&[1, 2, 4, 8, 16, 32, 64, 128], 192));
        }),
        Box::new(|| {
            mlscale_bench::emit(&extensions::inference_costs(16));
        }),
        Box::new(|| {
            mlscale_bench::emit(&extensions::zoo_scalability(64, 4096.0));
        }),
        Box::new(|| {
            mlscale_bench::emit(&extensions::provisioning(1000.0, 2.0));
        }),
        Box::new(|| {
            mlscale_bench::emit(&extensions::hierarchical_comm(64));
        }),
        Box::new(|| {
            mlscale_bench::emit(&mlscale_workloads::experiments::stragglers(16));
        }),
        Box::new(|| {
            mlscale_bench::emit(
                &mlscale_workloads::experiments::convergence::convergence_tradeoff(
                    &convergence_model(),
                    &[1, 2, 4, 8, 16],
                    16,
                    7,
                ),
            );
        }),
    ];
    mlscale_core::par::map(&exhibits, |exhibit| exhibit());
    eprintln!(
        "all results written to {}",
        mlscale_bench::results_dir().display()
    );
}

/// Convergence-experiment model: compute-heavy enough that weak-scaling
/// throughput genuinely improves with the worker count.
fn convergence_model() -> mlscale_core::models::gd::GradientDescentModel {
    use mlscale_core::hardware::{presets, ClusterSpec, LinkSpec};
    use mlscale_core::models::gd::{GdComm, GradientDescentModel};
    use mlscale_core::units::{BitsPerSec, FlopCount};
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
