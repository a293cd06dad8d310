//! A uniform cluster's straggler curve and planner price the barrier from
//! one `(base, count)` run per worker count: at n = 10⁶ no evaluation
//! builds the 8 MB `Vec<f64>` of per-worker bases. Runs in its own test
//! binary because the global allocator is process-wide.

use mlscale::model::hardware::{presets, Heterogeneity};
use mlscale::model::models::gd::{GdComm, GradientDescentModel};
use mlscale::model::planner::Pricing;
use mlscale::model::speedup::log_spaced_ns;
use mlscale::model::straggler::{StragglerGdModel, StragglerModel};
use mlscale::model::units::FlopCount;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, recording the largest single request.
struct LargestAllocation;

static LARGEST: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every method forwards its arguments to `System` unchanged, so
// the guarantees its caller gives under `GlobalAlloc` pass straight
// through. The side counter is an atomic and allocates nothing.
unsafe impl GlobalAlloc for LargestAllocation {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestAllocation = LargestAllocation;

const MIB: usize = 1 << 20;

#[test]
fn million_worker_uniform_curve_and_planner_build_no_per_worker_vector() {
    let model = StragglerGdModel {
        inner: GradientDescentModel {
            cost_per_example: FlopCount::new(6.0 * 12e6),
            batch_size: 60_000.0,
            params: 12e6,
            bits_per_param: 64,
            cluster: presets::spark_cluster(),
            comm: GdComm::Spark,
        },
        straggler: StragglerModel::LogNormalTail {
            mu: -2.0,
            sigma: 0.8,
        },
        hetero: Heterogeneity::Uniform,
        backup_k: 2,
    };
    let ns = log_spaced_ns(1_000_000, 200);

    LARGEST.store(0, Ordering::Relaxed);
    let curve = model.strong_curve(ns.iter().copied());
    let planner = model.planner_log(1000.0, 1_000_000, Pricing::hourly(2.0), 200);
    let fastest = planner.fastest();
    let largest = LARGEST.load(Ordering::Relaxed);

    assert_eq!(curve.ns(), ns.as_slice());
    assert!(fastest.n >= 1 && fastest.time.as_secs().is_finite());
    assert!(
        largest < MIB,
        "a uniform cluster's curve and planner must not allocate per worker: \
         largest single allocation was {largest} bytes"
    );

    // The hook sees a request of the size the test forbids.
    black_box(vec![0u8; 2 * MIB]);
    assert!(LARGEST.load(Ordering::Relaxed) >= 2 * MIB);
}
