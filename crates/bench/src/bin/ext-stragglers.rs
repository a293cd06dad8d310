//! Runs the straggler extension exhibit: expected Fig 1/Fig 2 optima
//! under growing straggler tails, heterogeneous hardware and the
//! drop-slowest-k mitigation, cross-validated against the discrete-event
//! straggler simulator.
//!
//! Usage: `ext-stragglers [MAX_N]`   (default 16)

#![forbid(unsafe_code)]

fn main() {
    let max_n = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("MAX_N must be an integer"))
        .unwrap_or(16);
    let result = mlscale_workloads::experiments::stragglers(max_n);
    mlscale_bench::emit(&result);
}
