//! Cluster-size planning under cost and deadline constraints — the
//! paper's conclusion argues these "simple, almost back-of-the-envelope
//! scalability estimations … should precede distributed implementations
//! (and may sometimes prevent them!)". This module turns a time model
//! `t(n)` into concrete provisioning answers: the cheapest cluster meeting
//! a deadline, the fastest cluster within a budget, and the
//! cost-efficiency sweet spot.
//!
//! Cost model: a job on `n` nodes that runs `t(n)` seconds costs
//! `n · price_per_node_hour · t(n)/3600`, plus an optional fixed price per
//! node (provisioning).

use crate::units::Seconds;

/// Pricing of the cluster.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pricing {
    /// Price of one node for one hour (any currency unit).
    pub node_hour: f64,
    /// Fixed price per provisioned node (setup, licence).
    pub per_node_fixed: f64,
}

impl Pricing {
    /// Hourly pricing with no fixed component.
    pub fn hourly(node_hour: f64) -> Self {
        assert!(node_hour > 0.0, "price must be positive");
        Self {
            node_hour,
            per_node_fixed: 0.0,
        }
    }

    /// Cost of running `n` nodes for `t`.
    pub fn cost(&self, n: usize, t: Seconds) -> f64 {
        n as f64 * (self.node_hour * t.as_secs() / 3600.0 + self.per_node_fixed)
    }
}

/// A provisioning recommendation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Recommended worker count.
    pub n: usize,
    /// Predicted run time at `n`.
    pub time: Seconds,
    /// Predicted cost at `n`.
    pub cost: f64,
}

/// A planner over a time model `t(n)` evaluated on `1..=max_n`.
///
/// The sweep is evaluated **once** at construction into a cached plan
/// table; every query verb ([`Self::cheapest`], [`Self::fastest`],
/// [`Self::cheapest_within_deadline`], [`Self::fastest_within_budget`],
/// [`Self::table`]) reads the cache, so an expensive `time_fn` (e.g. a
/// straggler order-statistic quadrature) runs once per candidate size no
/// matter how many questions are asked. Use [`Self::new_par`] to fan the
/// sweep itself out across threads.
pub struct Planner {
    plans: Vec<Plan>,
}

impl Planner {
    /// Creates a planner, evaluating `time_fn` serially on `1..=max_n`.
    ///
    /// # Panics
    /// Panics when `max_n == 0`.
    pub fn new(time_fn: impl Fn(usize) -> Seconds, max_n: usize, pricing: Pricing) -> Self {
        assert!(max_n >= 1, "need at least one candidate size");
        let plans = (1..=max_n)
            .map(|n| Self::plan_at(&time_fn, pricing, n))
            .collect();
        Self { plans }
    }

    /// Creates a planner with the sweep fanned out across threads
    /// ([`crate::par`]). Plans are bit-identical to [`Self::new`] for a
    /// pure `time_fn` — the candidate evaluations are independent and the
    /// table keeps input order.
    ///
    /// # Panics
    /// Panics when `max_n == 0`.
    pub fn new_par(
        time_fn: impl Fn(usize) -> Seconds + Sync,
        max_n: usize,
        pricing: Pricing,
    ) -> Self {
        assert!(max_n >= 1, "need at least one candidate size");
        let ns: Vec<usize> = (1..=max_n).collect();
        let plans = crate::par::map(&ns, |&n| Self::plan_at(&time_fn, pricing, n));
        Self { plans }
    }

    /// Default ladder size for [`Self::new_log`] when a caller has no
    /// opinion: ~29 rungs per decade at `max_n = 10⁶`, comfortably finer
    /// than any speedup curve's curvature.
    pub const DEFAULT_LOG_POINTS: usize = 200;

    /// Creates a planner over a **log-spaced** candidate ladder
    /// ([`crate::speedup::log_spaced_ns`]) instead of the dense
    /// `1..=max_n` sweep — O(`points` + refinement) evaluations of
    /// `time_fn`, so the four query verbs stop being O(`max_n`) at
    /// extreme scale.
    ///
    /// After the parallel ladder sweep, the rung minimising each
    /// objective (time, and cost under `pricing`) is refined by an
    /// integer ternary search between its ladder neighbours, so the
    /// reported optima are exact to ±1 worker provided the objective is
    /// unimodal in `n` — which the models here satisfy: iteration time
    /// falls while compute dominates and rises once communication does.
    /// All refinement evaluations are memoised and merged into the plan
    /// table, so [`Self::cheapest_within_deadline`] /
    /// [`Self::fastest_within_budget`] answer from the ladder plus both
    /// refined neighbourhoods.
    ///
    /// # Panics
    /// Panics when `max_n == 0` or `points < 2`.
    pub fn new_log(
        time_fn: impl Fn(usize) -> Seconds + Sync,
        max_n: usize,
        pricing: Pricing,
        points: usize,
    ) -> Self {
        assert!(max_n >= 1, "need at least one candidate size");
        let ladder = crate::speedup::log_spaced_ns(max_n, points);
        let times = crate::par::map(&ladder, |&n| time_fn(n));
        let mut evaluated: std::collections::HashMap<usize, Seconds> =
            ladder.iter().copied().zip(times).collect();
        for want_cost in [false, true] {
            let score = |n: usize, t: Seconds| {
                if want_cost {
                    pricing.cost(n, t)
                } else {
                    t.as_secs()
                }
            };
            // Coarse argmin over the ladder (ties to the smaller n, as
            // the verbs resolve them).
            let mut best = 0usize;
            for (i, &n) in ladder.iter().enumerate() {
                if score(n, evaluated[&n]) < score(ladder[best], evaluated[&ladder[best]]) {
                    best = i;
                }
            }
            // The optimum lies between the best rung's neighbours;
            // ternary-search the bracket, memoising every probe.
            let mut lo = ladder[best.saturating_sub(1)];
            let mut hi = ladder[(best + 1).min(ladder.len() - 1)];
            while hi - lo > 2 {
                let m1 = lo + (hi - lo) / 3;
                let m2 = hi - (hi - lo) / 3;
                let t1 = *evaluated.entry(m1).or_insert_with(|| time_fn(m1));
                let t2 = *evaluated.entry(m2).or_insert_with(|| time_fn(m2));
                if score(m1, t1) <= score(m2, t2) {
                    hi = m2;
                } else {
                    lo = m1;
                }
            }
            for n in lo..=hi {
                evaluated.entry(n).or_insert_with(|| time_fn(n));
            }
        }
        let mut ns: Vec<usize> = evaluated.keys().copied().collect();
        ns.sort_unstable();
        let plans = ns
            .into_iter()
            .map(|n| {
                let time = evaluated[&n];
                Plan {
                    n,
                    time,
                    cost: pricing.cost(n, time),
                }
            })
            .collect();
        Self { plans }
    }

    fn plan_at(time_fn: &impl Fn(usize) -> Seconds, pricing: Pricing, n: usize) -> Plan {
        let time = time_fn(n);
        Plan {
            n,
            time,
            cost: pricing.cost(n, time),
        }
    }

    /// The cheapest cluster that finishes within `deadline`, or `None`
    /// when no candidate size makes the deadline (the "may sometimes
    /// prevent them" answer). Exact cost ties resolve to the smallest `n`
    /// (fewer machines to provision for the same bill).
    pub fn cheapest_within_deadline(&self, deadline: Seconds) -> Option<Plan> {
        self.plans
            .iter()
            .copied()
            .filter(|p| p.time <= deadline)
            .min_by(|a, b| a.cost.total_cmp(&b.cost).then(a.n.cmp(&b.n)))
    }

    /// The fastest cluster whose cost stays within `budget`, or `None`
    /// when even one node exceeds it. Exact time ties resolve to the
    /// smallest `n`.
    pub fn fastest_within_budget(&self, budget: f64) -> Option<Plan> {
        self.plans
            .iter()
            .copied()
            .filter(|p| p.cost <= budget)
            .min_by(|a, b| {
                a.time
                    .as_secs()
                    .total_cmp(&b.time.as_secs())
                    .then(a.n.cmp(&b.n))
            })
    }

    /// The minimum-cost configuration overall. With hourly-only pricing
    /// this is the efficiency sweet spot: cost ∝ `n·t(n)`, which is
    /// minimal where parallel efficiency is highest. Exact cost ties
    /// resolve to the smallest `n`.
    pub fn cheapest(&self) -> Plan {
        self.plans
            .iter()
            .copied()
            .min_by(|a, b| a.cost.total_cmp(&b.cost).then(a.n.cmp(&b.n)))
            // lint: allow(panic-free-lib): the candidate list has one entry per n in 1..=max_n and max_n >= 1 is validated
            .expect("max_n >= 1")
    }

    /// The fastest configuration overall (the speedup optimum). Exact
    /// time ties resolve to the smallest `n`.
    pub fn fastest(&self) -> Plan {
        self.plans
            .iter()
            .copied()
            .min_by(|a, b| {
                a.time
                    .as_secs()
                    .total_cmp(&b.time.as_secs())
                    .then(a.n.cmp(&b.n))
            })
            // lint: allow(panic-free-lib): the candidate list has one entry per n in 1..=max_n and max_n >= 1 is validated
            .expect("max_n >= 1")
    }

    /// Full `(n, time, cost)` table for reporting.
    pub fn table(&self) -> Vec<Plan> {
        self.plans.clone()
    }
}

/// The Pareto frontier of `(cost, time)` points, both minimised: the
/// ascending indices of every point no other point dominates. Point `j`
/// dominates `i` when it is no worse on both axes and strictly better
/// on at least one — exact duplicates therefore survive together, and
/// non-finite points are never on the frontier.
///
/// This is the provisioning-space question the paper closes on: of all
/// candidate (cluster, workload, mitigation) configurations, which are
/// the undominated cost/time trade-offs? Adaptive sweeps refine the
/// grid only around this set. Runs in `O(n log n)`.
pub fn pareto_frontier(points: &[(f64, f64)]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..points.len())
        .filter(|&i| points[i].0.is_finite() && points[i].1.is_finite())
        .collect();
    order.sort_by(|&a, &b| {
        points[a]
            .0
            .total_cmp(&points[b].0)
            .then(points[a].1.total_cmp(&points[b].1))
    });
    let mut frontier = Vec::new();
    // Sweep in cost order: a point survives iff nothing strictly
    // cheaper matched its time, and nothing at equal cost beat it.
    let mut best_cheaper_time = f64::INFINITY;
    let mut i = 0;
    while i < order.len() {
        let group_cost = points[order[i]].0;
        let mut j = i;
        while j < order.len() && points[order[j]].0 == group_cost {
            j += 1;
        }
        let group = &order[i..j];
        let group_min_time = points[group[0]].1;
        if group_min_time < best_cheaper_time {
            frontier.extend(
                group
                    .iter()
                    .copied()
                    .filter(|&k| points[k].1 == group_min_time),
            );
        }
        best_cheaper_time = best_cheaper_time.min(group_min_time);
        i = j;
    }
    frontier.sort_unstable();
    frontier
}

#[cfg(test)]
mod tests {
    use super::*;

    /// t(n) = 3600·(1/n + 0.05·log2 n): peak speedup around n = 28,
    /// one node takes an hour.
    fn time_fn(n: usize) -> Seconds {
        Seconds::new(3600.0 * (1.0 / n as f64 + 0.05 * (n as f64).log2()))
    }

    fn planner() -> Planner {
        Planner::new(time_fn, 64, Pricing::hourly(2.0))
    }

    #[test]
    fn pricing_cost_formula() {
        let p = Pricing {
            node_hour: 3.0,
            per_node_fixed: 1.0,
        };
        // 4 nodes × (3 · 1800/3600 + 1) = 4 × 2.5.
        assert!((p.cost(4, Seconds::new(1800.0)) - 10.0).abs() < 1e-12);
    }

    #[test]
    fn cheapest_hourly_is_single_node() {
        // With a convex 1/n + growing-comm model, n·t(n) is minimal at 1.
        let plan = planner().cheapest();
        assert_eq!(plan.n, 1);
        assert!(
            (plan.cost - 2.0).abs() < 1e-9,
            "one node for one hour at 2/h"
        );
    }

    #[test]
    fn fastest_matches_speedup_optimum() {
        let plan = planner().fastest();
        // d/dn(1/n + 0.05 log2 n) = 0 at n = ln2/0.05 ≈ 13.9.
        assert!((13..=15).contains(&plan.n), "got {}", plan.n);
    }

    #[test]
    fn deadline_planning_picks_cheapest_feasible() {
        let p = planner();
        // Deadline of 30 minutes: feasible (t(4) ≈ 990 s), and the
        // cheapest feasible n is the smallest one meeting it.
        let plan = p
            .cheapest_within_deadline(Seconds::new(1800.0))
            .expect("feasible");
        assert!(plan.time.as_secs() <= 1800.0);
        // All cheaper configurations (smaller n here) must miss the deadline.
        for n in 1..plan.n {
            assert!(
                time_fn(n).as_secs() > 1800.0,
                "n={n} should miss the deadline"
            );
        }
    }

    #[test]
    fn impossible_deadline_returns_none() {
        // The model's best time is t(14) ≈ 937 s; a 60 s deadline fails.
        assert!(planner()
            .cheapest_within_deadline(Seconds::new(60.0))
            .is_none());
    }

    #[test]
    fn budget_planning_trades_money_for_time() {
        let p = planner();
        let tight = p.fastest_within_budget(2.5).expect("one node fits");
        let loose = p.fastest_within_budget(50.0).expect("rich budget");
        assert!(loose.time < tight.time, "more budget must buy speed");
        assert!(loose.cost <= 50.0 && tight.cost <= 2.5);
    }

    #[test]
    fn empty_budget_returns_none() {
        assert!(planner().fastest_within_budget(0.01).is_none());
    }

    #[test]
    fn fixed_per_node_cost_discourages_large_clusters() {
        let hourly = Planner::new(time_fn, 64, Pricing::hourly(2.0)).fastest_within_budget(20.0);
        let with_fixed = Planner::new(
            time_fn,
            64,
            Pricing {
                node_hour: 2.0,
                per_node_fixed: 1.0,
            },
        )
        .fastest_within_budget(20.0);
        let (h, f) = (hourly.unwrap(), with_fixed.unwrap());
        assert!(f.n <= h.n, "fixed cost must not increase the chosen size");
    }

    #[test]
    fn table_covers_range() {
        let t = planner().table();
        assert_eq!(t.len(), 64);
        assert_eq!(t[0].n, 1);
        assert_eq!(t[63].n, 64);
    }

    /// Perfect strong scaling on powers of two: t(n) = 4h/n, so hourly
    /// cost n·t(n) is *exactly* 4·price for n ∈ {1, 2, 4, 8} (exact in
    /// binary floating point). Everything else is deliberately terrible.
    fn tied_cost_fn(n: usize) -> Seconds {
        match n {
            1 | 2 | 4 | 8 => Seconds::new(4.0 * 3600.0 / n as f64),
            _ => Seconds::new(1e6),
        }
    }

    #[test]
    fn cheapest_tie_resolves_to_smallest_n() {
        let p = Planner::new(tied_cost_fn, 8, Pricing::hourly(2.0));
        // n ∈ {1, 2, 4, 8} all cost exactly 8.0; the tie must go to 1.
        let plan = p.cheapest();
        assert_eq!(plan.cost, 8.0, "fixture must produce an exact tie");
        assert_eq!(plan.n, 1, "equal cost resolves to the smallest n");
    }

    #[test]
    fn deadline_tie_resolves_to_smallest_feasible_n() {
        let p = Planner::new(tied_cost_fn, 8, Pricing::hourly(2.0));
        // A 2-hour deadline leaves {2, 4, 8} feasible, all at cost 8.0.
        let plan = p
            .cheapest_within_deadline(Seconds::new(2.0 * 3600.0))
            .expect("feasible");
        assert_eq!(plan.cost, 8.0);
        assert_eq!(plan.n, 2, "cost tie among {{2,4,8}} resolves to 2");
    }

    #[test]
    fn fastest_tie_resolves_to_smallest_n() {
        // Identical times everywhere: the speed tie must pick one node.
        let p = Planner::new(|_| Seconds::new(1000.0), 16, Pricing::hourly(1.0));
        assert_eq!(p.fastest().n, 1);
    }

    #[test]
    fn sweep_runs_once_across_all_query_verbs() {
        use std::cell::Cell;
        let calls = Cell::new(0usize);
        let counted = |n: usize| {
            calls.set(calls.get() + 1);
            time_fn(n)
        };
        let p = Planner::new(counted, 32, Pricing::hourly(2.0));
        assert_eq!(calls.get(), 32, "construction sweeps each n exactly once");
        let _ = p.cheapest();
        let _ = p.fastest();
        let _ = p.cheapest_within_deadline(Seconds::new(1800.0));
        let _ = p.fastest_within_budget(50.0);
        let _ = p.table();
        assert_eq!(calls.get(), 32, "query verbs must reuse the cached table");
    }

    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let pricing = Pricing {
            node_hour: 2.0,
            per_node_fixed: 0.25,
        };
        let serial = Planner::new(time_fn, 48, pricing);
        for threads in [1usize, 2, 7] {
            let par =
                crate::par::with_thread_count(threads, || Planner::new_par(time_fn, 48, pricing));
            assert_eq!(serial.table(), par.table(), "threads = {threads}");
        }
    }

    #[test]
    fn log_planner_refines_to_the_dense_optima() {
        // Unimodal time (and cost) in n: the sparse ladder plus ternary
        // refinement must land on exactly the plans the dense sweep finds.
        let pricing = Pricing {
            node_hour: 2.0,
            per_node_fixed: 0.01,
        };
        let dense = Planner::new(time_fn, 4096, pricing);
        let log = Planner::new_log(time_fn, 4096, pricing, 40);
        assert_eq!(log.fastest(), dense.fastest());
        assert_eq!(log.cheapest(), dense.cheapest());
    }

    #[test]
    fn log_planner_evaluation_count_is_logarithmic() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let calls = AtomicUsize::new(0);
        let counted = |n: usize| {
            calls.fetch_add(1, Ordering::Relaxed);
            time_fn(n)
        };
        let p = Planner::new_log(counted, 1_000_000, Pricing::hourly(2.0), 200);
        let evals = calls.load(Ordering::Relaxed);
        assert!(
            evals < 400,
            "a 10⁶-candidate planner must stay O(points): {evals} calls"
        );
        // Verbs reuse the table.
        let _ = p.fastest();
        let _ = p.cheapest();
        let _ = p.cheapest_within_deadline(Seconds::new(1800.0));
        let _ = p.fastest_within_budget(50.0);
        assert_eq!(calls.load(Ordering::Relaxed), evals);
        // And the refined optimum matches the analytic one (ln2/0.05 ≈ 13.9).
        assert!((13..=15).contains(&p.fastest().n), "got {}", p.fastest().n);
    }

    #[test]
    fn log_planner_handles_degenerate_ranges() {
        let p = Planner::new_log(time_fn, 1, Pricing::hourly(1.0), 16);
        assert_eq!(p.fastest().n, 1);
        assert_eq!(p.table().len(), 1);
        let p2 = Planner::new_log(time_fn, 2, Pricing::hourly(1.0), 2);
        assert_eq!(p2.table().len(), 2);
    }

    #[test]
    fn budget_tie_resolves_to_smallest_n() {
        // n = 3 and n = 5 are equally fast and both affordable; 3 wins.
        let time_fn = |n: usize| match n {
            3 | 5 => Seconds::new(1000.0),
            _ => Seconds::new(5000.0),
        };
        let p = Planner::new(time_fn, 8, Pricing::hourly(1.0));
        let plan = p.fastest_within_budget(100.0).expect("affordable");
        assert_eq!(plan.n, 3, "time tie resolves to the smaller cluster");
    }

    /// Brute-force O(n²) frontier for cross-checking the sweep version.
    fn frontier_naive(points: &[(f64, f64)]) -> Vec<usize> {
        (0..points.len())
            .filter(|&i| {
                let (ci, ti) = points[i];
                ci.is_finite()
                    && ti.is_finite()
                    && !points.iter().enumerate().any(|(j, &(cj, tj))| {
                        j != i && cj <= ci && tj <= ti && (cj < ci || tj < ti)
                    })
            })
            .collect()
    }

    #[test]
    fn pareto_frontier_keeps_exactly_the_undominated_points() {
        let points = [
            (1.0, 10.0), // frontier: cheapest
            (2.0, 5.0),  // frontier: trade-off
            (2.0, 6.0),  // dominated at equal cost
            (3.0, 5.0),  // dominated by (2, 5)
            (4.0, 1.0),  // frontier: fastest
            (5.0, 2.0),  // dominated
        ];
        assert_eq!(pareto_frontier(&points), vec![0, 1, 4]);
        assert_eq!(pareto_frontier(&points), frontier_naive(&points));
    }

    #[test]
    fn pareto_frontier_keeps_exact_duplicates_together() {
        let points = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (2.0, 3.0)];
        assert_eq!(pareto_frontier(&points), vec![0, 1, 2]);
        assert_eq!(pareto_frontier(&points), frontier_naive(&points));
    }

    #[test]
    fn pareto_frontier_drops_non_finite_points() {
        let points = [(f64::NAN, 0.0), (0.5, f64::INFINITY), (1.0, 1.0)];
        assert_eq!(pareto_frontier(&points), vec![2]);
        assert!(pareto_frontier(&[]).is_empty());
    }

    #[test]
    fn pareto_frontier_matches_brute_force_on_a_lattice() {
        // Every (cost, time) pair over a coarse lattice, including ties
        // on both axes — the sweep and the naive definition must agree.
        let mut points = Vec::new();
        for c in 0..7 {
            for t in 0..7 {
                points.push((f64::from(c) * 0.5, f64::from((t * 13) % 7)));
            }
        }
        assert_eq!(pareto_frontier(&points), frontier_naive(&points));
    }
}
