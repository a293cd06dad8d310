//! Regenerates Fig 2: strong-scaling speedup of one training iteration of
//! the fully-connected MNIST network on the (simulated) Spark cluster,
//! model vs experiment.
//!
//! Usage: `exp-fig2 [MAX_N]`   (default 16)

#![forbid(unsafe_code)]

fn main() {
    let max_n = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("MAX_N must be an integer"))
        .unwrap_or(16);
    let result = mlscale_workloads::experiments::fig2(max_n);
    mlscale_bench::emit(&result);
}
