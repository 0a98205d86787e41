//! Predictive admission control: price a request **before** enumerating.
//!
//! The serving layer must not discover that a request is intractable by
//! burning its deadline on it.  This module prices every request in
//! O(shapes) from the structural counts the canonical machinery already
//! knows how to compute cheaply —
//!
//! * the **estimated cost**, the number of candidate evaluations an
//!   exhaustive solve would pay: the plan-space size, each plan valued
//!   once by a structural metric (the period bound for MINPERIOD, exact
//!   Algorithm 1 for forest-phase MINLATENCY).  That is the exact
//!   canonical class count for uniform instances
//!   ([`fsw_core::forest_classes`], closed form), the exact coloured-orbit
//!   count for partially symmetric ones
//!   ([`fsw_core::classed_class_count_within`], a counting pass that never
//!   materialises an orbit), and the raw `n^n` parent-function space where
//!   no symmetry reduces it.  MINLATENCY's DAG phase is priced by the
//!   ordering space of the worst single DAG instead;
//! * an optional **admissible value floor**: the smallest shape bound
//!   ([`ShapeBounder::forest_floor`], the head bound of the bound-ordered
//!   shape plan, streamed without building the plan), shaved by the
//!   rounding margin of [`ShapeBounder::certified_floor`] — every
//!   candidate plan belongs to some shape and costs at least its shape
//!   bound, so the smallest shape bound lower bounds the instance optimum,
//!   and the shave keeps that true bit for bit.  Rejected callers learn
//!   what they are missing; degraded answers ship with a certified gap.
//!
//! The [`AdmissionPolicy`] turns the cost into one of four decisions:
//! [`Admit`] (solve exactly), [`AdmitWithDeadline`] (worth trying under a
//! degrade deadline; the response may come back `Degraded`), [`Reject`]
//! (the exact answer is out of reach; the caller gets the estimate and the
//! floor, and the solve pool is never touched) or [`Shed`] (admissible at
//! baseline, but over the thresholds a serving loop's backlog has
//! tightened).
//!
//! [`Admit`]: AdmissionDecision::Admit
//! [`AdmitWithDeadline`]: AdmissionDecision::AdmitWithDeadline
//! [`Reject`]: AdmissionDecision::Reject
//! [`Shed`]: AdmissionDecision::Shed

use std::time::{Duration, Instant};

use fsw_core::{
    classed_class_count_within, Application, ClassedCount, CommModel, ShapeBounder, ShapeObjective,
    WeightClasses,
};
use fsw_sched::engine::CanonicalSpace;
use fsw_sched::orchestrator::{Objective, SearchBudget};

/// Largest `n` for which pricing attempts the bound-ordered value floor:
/// the last size whose shape space (`A000081(n + 1)` forest classes) stays
/// within 2 000 shapes — `n = 10` (1 842 shapes) is in, `n = 11` (4 766) is
/// out.  The floor pass runs **without a wall-clock deadline** — its cost
/// is bounded structurally by this limit instead, so the floor (and
/// everything downstream of it: degraded gaps, replay digests) is a pure
/// function of the instance, never of machine load.
const FLOOR_MAX_N: usize = 10;

/// Wall-clock budget of the coloured-orbit counting pass; past it the
/// price falls back to the raw `n^n` space, flagged inexact.
const PRICING_BUDGET: Duration = Duration::from_millis(5);

/// The structural price of one request, computed before any enumeration.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostEstimate {
    /// The estimated number of candidate evaluations an exhaustive solve
    /// would pay: the plan-space size — canonical classes (uniform),
    /// coloured orbits (partial symmetry) or raw `n^n` parent functions (no
    /// symmetry / constrained) — or, for MINLATENCY's DAG phase, the worst
    /// single DAG's ordering space.  Saturating.
    pub cost: u128,
    /// Whether `cost` is the exact size of the space an exhaustive solve
    /// enumerates (`false` when counting was capped, timed out, or
    /// constraints prune an unknown amount of the raw space, and for the
    /// DAG phase's stand-in).
    pub exact: bool,
    /// Admissible lower bound on the instance optimum (the head bound of
    /// the bound-ordered shape plan), when one was certified.  `None` on
    /// the plain-admit fast path (not priced there), on the MINLATENCY DAG
    /// phase (DAGs can beat every forest-shape floor) and when the shape
    /// space is too large to price.
    pub value_floor: Option<f64>,
}

/// The admission verdict for one request.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AdmissionDecision {
    /// Cheap enough to solve exactly under the service budget.
    Admit {
        /// The price, without a floor.
        estimate: CostEstimate,
    },
    /// Too big for an exact promise, small enough to try: solve under
    /// `time_limit` and degrade to the best incumbent if it fires.
    AdmitWithDeadline {
        /// Deadline the solve runs under.
        time_limit: Duration,
        /// The price that put the request in the degrade band.
        estimate: CostEstimate,
    },
    /// The exact answer is out of reach; the solve pool is never touched.
    Reject {
        /// The price that rejected the request, floor included.
        estimate: CostEstimate,
    },
    /// Within the baseline thresholds, but over the ones halved `level`
    /// times by a serving loop's backlog: shed without a solve.
    Shed {
        /// The shed level in force at the decision (≥ 1).
        level: u32,
        /// The price that shed the request, floor included.
        estimate: CostEstimate,
    },
}

/// Thresholds turning a [`CostEstimate`] into an [`AdmissionDecision`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdmissionPolicy {
    /// Requests pricing at most this many candidate evaluations are
    /// admitted unconditionally.
    pub admit_cost: u128,
    /// Requests pricing above `admit_cost` but at most this are admitted
    /// under `degrade_time_limit`; anything above is rejected.
    pub reject_cost: u128,
    /// Deadline armed on solves in the degrade band.
    pub degrade_time_limit: Duration,
}

impl AdmissionPolicy {
    /// The hardened default for `budget`: admit up to the enumeration cap
    /// the budget could cover exactly (`max_graphs`) and allow a 64×
    /// overshoot band under a 50 ms degrade deadline.
    pub fn for_budget(budget: &SearchBudget) -> Self {
        let admit_cost = (budget.max_graphs as u128).max(1);
        AdmissionPolicy {
            admit_cost,
            reject_cost: admit_cost.saturating_mul(64),
            degrade_time_limit: Duration::from_millis(50),
        }
    }

    /// Prices `app` and decides at baseline thresholds (shed level 0; see
    /// [`Self::decide_at`]).
    pub fn decide(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> AdmissionDecision {
        self.decide_at(app, model, objective, budget, 0)
    }

    /// Prices `app` and decides with both thresholds halved `level` times
    /// (a serving loop's backpressure; levels above 127 act as 127).  Every
    /// request is priced first, O(shapes) worst case with the orbit count
    /// bounded by a 5 ms wall-clock budget.  A request over the tightened
    /// reject threshold is [`Reject`](AdmissionDecision::Reject)ed when it
    /// is also over the baseline one, and
    /// [`Shed`](AdmissionDecision::Shed) otherwise.
    pub fn decide_at(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
        level: u32,
    ) -> AdmissionDecision {
        let level = level.min(127);
        let mut estimate = self.estimate(app, objective, budget);
        if estimate.cost <= self.admit_cost >> level {
            return AdmissionDecision::Admit { estimate };
        }
        // The floor is only priced when the caller will see it — the
        // degrade band (it becomes the response's certified gap) and the
        // shed and reject bands (feedback on what is out of reach).  It is
        // O(shapes) like the rest of the pricing, but with a larger
        // constant, so the admit fast path skips it.
        estimate.value_floor = self.certified_floor(app, model, objective, budget);
        if estimate.cost <= self.reject_cost >> level {
            AdmissionDecision::AdmitWithDeadline {
                time_limit: self.degrade_time_limit,
                estimate,
            }
        } else if estimate.cost <= self.reject_cost {
            AdmissionDecision::Shed { level, estimate }
        } else {
            AdmissionDecision::Reject { estimate }
        }
    }

    /// The structural price of `(app, objective)` under `budget` (see the
    /// module docs for the cost model).  The communication model does not
    /// move it: a plan search values each candidate once, by a structural
    /// metric, under every model.
    pub fn estimate(
        &self,
        app: &Application,
        objective: Objective,
        budget: &SearchBudget,
    ) -> CostEstimate {
        let n = app.n();
        // MINLATENCY's DAG phase (n within `dag_enumeration_max_n`) is
        // priced by the ordering space of the worst single DAG on n
        // services (the complete DAG): a stand-in for the walk's size
        // rather than a count of its candidates, hence `exact: false`.
        if objective == Objective::MinLatency && n <= budget.dag_enumeration_max_n {
            return CostEstimate {
                cost: (CanonicalSpace::max_dag_ordering_space(n) as u128).max(1),
                exact: false,
                value_floor: None,
            };
        }
        let classes = WeightClasses::of(app);
        let pricing_deadline = Instant::now() + PRICING_BUDGET;
        // Count exactly up to the first quantity that forces a rejection;
        // saturate beyond it (the decision is the same either way).
        let count_cap = self.reject_cost.saturating_add(1);
        let raw = raw_parent_functions(n);
        let (cost, exact) = if app.has_constraints() {
            // Constraints prune an unknown amount of the raw space and
            // disable every symmetry reduction.
            (raw, false)
        } else if classes.is_uniform() {
            (fsw_core::forest_classes(n), true)
        } else if classes.has_symmetry() {
            match classed_class_count_within(&classes, count_cap, Some(pricing_deadline)) {
                ClassedCount::Exact(count) => (count, true),
                ClassedCount::ExceedsCap => (count_cap, false),
                ClassedCount::DeadlineExpired | ClassedCount::Intractable => (raw, false),
            }
        } else {
            (raw, true)
        };
        CostEstimate {
            cost,
            exact,
            // Attached by `decide` on the degrade/reject bands (and by the
            // service's degraded-response path) via `certified_floor`; the
            // plain estimate stays O(cheap counts).
            value_floor: None,
        }
    }

    /// Certifies an admissible lower bound for `(app, model, objective)` —
    /// the degraded-response path uses this to attach a floor to solves
    /// that were admitted without one.  Every candidate costs at least its
    /// shape's bound, so the smallest shape bound
    /// ([`ShapeBounder::forest_floor`], the head of the bound-ordered shape
    /// plan, streamed without building it) floors the whole forest space
    /// (constrained plans are a subset of it, so the floor holds for them
    /// too).  Shape bounds and plan values round differently, so the
    /// served value is that floor shaved by a relative `(4n + 8)·ε`
    /// ([`ShapeBounder::certified_floor`]): no plan's value is below it,
    /// not even by an ulp.  `None` for an application with no services,
    /// when the DAG phase could beat it or when the shape space exceeds
    /// 2 000 shapes (`n > 10`, `FLOOR_MAX_N`) — the structural gate that
    /// bounds this pass instead of a wall-clock deadline, keeping the floor
    /// deterministic.
    pub fn certified_floor(
        &self,
        app: &Application,
        model: CommModel,
        objective: Objective,
        budget: &SearchBudget,
    ) -> Option<f64> {
        let n = app.n();
        let shape_objective = match objective {
            Objective::MinPeriod => ShapeObjective::Period(model),
            Objective::MinLatency if n > budget.dag_enumeration_max_n => ShapeObjective::Latency,
            Objective::MinLatency => return None,
        };
        if n == 0 || n > FLOOR_MAX_N {
            return None;
        }
        Some(ShapeBounder::new(app, shape_objective).certified_floor())
    }
}

/// Raw parent-function space `n^n`, saturating — what an unreduced
/// exhaustive enumeration walks.
fn raw_parent_functions(n: usize) -> u128 {
    let mut raw = 1u128;
    for _ in 0..n {
        raw = raw.saturating_mul(n.max(1) as u128);
    }
    raw
}

#[cfg(test)]
mod tests {
    use super::*;

    fn budget() -> SearchBudget {
        SearchBudget::default()
    }

    #[test]
    fn small_instances_admit_instantly() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8)]);
        let policy = AdmissionPolicy::for_budget(&budget());
        for (model, objective) in [
            (CommModel::Overlap, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinLatency),
        ] {
            assert!(
                matches!(
                    policy.decide(&app, model, objective, &budget()),
                    AdmissionDecision::Admit { .. }
                ),
                "{model} {objective}"
            );
        }
    }

    #[test]
    fn uniform_instances_price_by_canonical_classes_not_raw_space() {
        // n = 14 uniform: 14^14 raw parent functions (~1.1e16) but only
        // 87 811 canonical classes — must admit.
        let app = Application::independent(&[(2.0, 0.5); 14]);
        let policy = AdmissionPolicy::for_budget(&budget());
        let estimate = policy.estimate(&app, Objective::MinPeriod, &budget());
        assert_eq!(estimate.cost, fsw_core::forest_classes(14));
        assert!(estimate.exact);
        assert_eq!(
            policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()),
            AdmissionDecision::Admit { estimate }
        );
    }

    #[test]
    fn oversized_distinct_instances_reject_with_a_structural_estimate() {
        // n = 24, all-distinct weights: no symmetry, raw space 24^24 — the
        // decision must be an instant closed-form rejection.
        let specs: Vec<(f64, f64)> = (0..24)
            .map(|k| (1.0 + k as f64, 0.3 + 0.02 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::for_budget(&budget());
        let started = Instant::now();
        let decision = policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget());
        assert!(
            started.elapsed() < Duration::from_millis(10),
            "pricing slow"
        );
        let AdmissionDecision::Reject { estimate } = decision else {
            panic!("n=24 distinct must reject, got {decision:?}");
        };
        assert!(estimate.cost > policy.reject_cost);
        assert!(estimate.exact, "24^24 is the exact raw space");
    }

    #[test]
    fn the_degrade_band_sits_between_admit_and_reject() {
        // n = 8, all-distinct: 8^8 ≈ 16.7M raw plans — above the 2M admit
        // cap, below the 128M reject threshold.
        let specs: Vec<(f64, f64)> = (0..8)
            .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let policy = AdmissionPolicy::for_budget(&budget());
        match policy.decide(&app, CommModel::Overlap, Objective::MinPeriod, &budget()) {
            AdmissionDecision::AdmitWithDeadline {
                time_limit,
                estimate,
            } => {
                assert_eq!(time_limit, policy.degrade_time_limit);
                assert_eq!(estimate.cost, 8u128.pow(8));
            }
            other => panic!("n=8 distinct must enter the degrade band, got {other:?}"),
        }
    }

    #[test]
    fn the_value_floor_is_admissible() {
        use fsw_sched::orchestrator::{solve, Problem};
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.5, 0.6)]);
        let policy = AdmissionPolicy::for_budget(&budget());
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let floor = policy
                .certified_floor(&app, model, Objective::MinPeriod, &budget())
                .expect("small instance has a floor");
            let optimum = solve(&Problem::new(&app, model, Objective::MinPeriod), &budget())
                .unwrap()
                .value;
            assert!(
                floor <= optimum,
                "floor {floor} exceeds the optimum {optimum} under {model}"
            );
            assert!(floor > 0.0, "positive costs imply a positive floor");
        }
    }

    #[test]
    fn the_dag_phase_prices_as_its_worst_dags_ordering_space() {
        // MINLATENCY at n <= dag_enumeration_max_n prices as the worst
        // single DAG's ordering space, keeping small instances (the only
        // ones the engine routes into the DAG phase) inside the admit band.
        let b = budget();
        let policy = AdmissionPolicy::for_budget(&b);
        let specs: Vec<(f64, f64)> = (0..4).map(|k| (1.0 + k as f64, 0.5)).collect();
        let app = Application::independent(&specs);
        let estimate = policy.estimate(&app, Objective::MinLatency, &b);
        assert_eq!(
            estimate.cost,
            CanonicalSpace::max_dag_ordering_space(4) as u128
        );
        assert!(!estimate.exact, "the walk bound is not an exact count");
    }

    #[test]
    fn the_floor_gate_is_the_last_n_within_two_thousand_shapes() {
        assert!(fsw_core::forest_classes(FLOOR_MAX_N) <= 2_000);
        assert!(fsw_core::forest_classes(FLOOR_MAX_N + 1) > 2_000);
    }

    #[test]
    fn shed_levels_tighten_both_thresholds() {
        // n = 6 all-distinct prices at 6^6 = 46 656 evaluations: admitted
        // at baseline, degrade band once the admit cap (2M) halves below
        // it, shed once the reject cap (128M) does — with the floor quoted.
        let specs: Vec<(f64, f64)> = (0..6)
            .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
            .collect();
        let app = Application::independent(&specs);
        let b = budget();
        let policy = AdmissionPolicy::for_budget(&b);
        let at =
            |level| policy.decide_at(&app, CommModel::Overlap, Objective::MinPeriod, &b, level);
        assert!(matches!(at(0), AdmissionDecision::Admit { .. }));
        assert!(matches!(at(6), AdmissionDecision::AdmitWithDeadline { .. }));
        let AdmissionDecision::Shed { level, estimate } = at(12) else {
            panic!("level 12 must shed, got {:?}", at(12));
        };
        assert_eq!(level, 12);
        assert!(estimate.value_floor.is_some(), "sheds quote the floor");
        // Over the baseline reject cap it is a rejection at any level.
        let jumbo: Vec<(f64, f64)> = (0..24).map(|k| (1.0 + k as f64, 0.5)).collect();
        let jumbo = Application::independent(&jumbo);
        assert!(matches!(
            policy.decide_at(&jumbo, CommModel::Overlap, Objective::MinPeriod, &b, 3),
            AdmissionDecision::Reject { .. }
        ));
    }

    #[test]
    fn the_streamed_floor_is_the_shape_plan_head_bit_for_bit() {
        use fsw_core::{bound_ordered_shape_plan, ShapeScan};
        // No DAG phase, so MINLATENCY prices its forest floor at every n.
        let b = SearchBudget {
            dag_enumeration_max_n: 0,
            ..budget()
        };
        let policy = AdmissionPolicy::for_budget(&b);
        // Distinct weights stop at n = 8: at n = 10 each plan's colour count
        // runs over 2^10 exponent vectors, seconds in a debug build.
        let mut apps = Vec::new();
        for n in [1usize, 4, 7, 8, 10] {
            let uniform = vec![(2.0, 0.7); n];
            let tiered: Vec<(f64, f64)> = (0..n)
                .map(|k| if k < n / 2 { (1.5, 0.6) } else { (3.0, 1.2) })
                .collect();
            apps.push(Application::independent(&uniform));
            apps.push(Application::independent(&tiered));
            if n <= 8 {
                let distinct: Vec<(f64, f64)> = (0..n)
                    .map(|k| (1.0 + 0.5 * k as f64, 0.4 + 0.15 * k as f64))
                    .collect();
                apps.push(Application::independent(&distinct));
            }
        }
        for app in &apps {
            let classes = WeightClasses::of(app);
            for model in [CommModel::Overlap, CommModel::InOrder, CommModel::OutOrder] {
                for objective in [Objective::MinPeriod, Objective::MinLatency] {
                    let shape_objective = match objective {
                        Objective::MinPeriod => ShapeObjective::Period(model),
                        Objective::MinLatency => ShapeObjective::Latency,
                    };
                    let bounder = ShapeBounder::new(app, shape_objective);
                    let ShapeScan::Planned { shapes, .. } =
                        bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
                    else {
                        panic!("no deadline was set");
                    };
                    let floor = policy
                        .certified_floor(app, model, objective, &b)
                        .expect("n <= 10 is inside the floor gate");
                    let head = shapes[0].bound;
                    let at = format!("n={} {:?} {model} {objective}", app.n(), classes.sizes());
                    assert_eq!(
                        bounder.forest_floor().to_bits(),
                        head.to_bits(),
                        "{at}: streamed floor"
                    );
                    let shave = 1.0 - (4 * app.n() + 8) as f64 * f64::EPSILON;
                    assert_eq!(
                        floor.to_bits(),
                        (head * shave).to_bits(),
                        "{at}: certified floor"
                    );
                }
            }
        }
    }

    /// The served floor is bit-admissible.  On four instances the unshaved
    /// shape floor sits an ulp above the solved optimum — three period
    /// floors, whose selectivity products round differently in sorted and
    /// in path order, and one latency floor — and the certified floor must
    /// not; nor may it on a seeded sweep of small instances whose few
    /// distinct weights make products collide.
    #[test]
    fn the_certified_floor_never_exceeds_the_optimum() {
        use fsw_sched::orchestrator::{solve, Problem};
        let b = budget();
        let policy = AdmissionPolicy::for_budget(&b);
        let tiered = Application::independent(&[
            (0.25, 0.85),
            (0.25, 0.85),
            (0.25, 0.85),
            (0.05, 0.6),
            (23.0, 1.0),
            (23.0, 1.0),
            (23.0, 1.0),
        ]);
        let reproducers = [
            (
                Application::independent(&[
                    (3.3, 0.55),
                    (1.0, 0.85),
                    (1.0, 0.85),
                    (7.0, 0.85),
                    (1.0, 0.85),
                    (1.0, 0.85),
                ]),
                CommModel::Overlap,
                Objective::MinPeriod,
            ),
            (tiered.clone(), CommModel::Overlap, Objective::MinPeriod),
            (tiered, CommModel::InOrder, Objective::MinPeriod),
            // n = 7 is above the DAG limit, so the latency floor is served.
            (
                Application::independent(&[(3.3, 0.6); 7]),
                CommModel::Overlap,
                Objective::MinLatency,
            ),
        ];
        let floor_of = |app: &Application, model, objective, b: &SearchBudget| {
            let floor = policy
                .certified_floor(app, model, objective, b)
                .expect("inside the floor gate");
            let solution = solve(&Problem::new(app, model, objective), b).unwrap();
            assert!(solution.exhaustive);
            (floor, solution.value)
        };
        for (case, (app, model, objective)) in reproducers.iter().enumerate() {
            let (floor, optimum) = floor_of(app, *model, *objective, &b);
            let shape_objective = match objective {
                Objective::MinPeriod => ShapeObjective::Period(*model),
                Objective::MinLatency => ShapeObjective::Latency,
            };
            let unshaved = ShapeBounder::new(app, shape_objective).forest_floor();
            assert!(
                unshaved > optimum,
                "reproducer {case}: unshaved floor {unshaved} against optimum {optimum}"
            );
            assert!(
                floor <= optimum,
                "reproducer {case}: floor {floor} exceeds the optimum {optimum}"
            );
        }
        // The sweep: no DAG phase, so MINLATENCY serves its forest floor.
        let b = SearchBudget {
            dag_enumeration_max_n: 0,
            ..budget()
        };
        let costs = [0.05, 0.25, 1.0, 3.3, 7.0, 23.0];
        let sels = [0.55, 0.6, 0.85, 1.0, 1.2];
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut draw = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as usize % m
        };
        for case in 0..24 {
            let n = 5 + case % 3;
            // Two or three weight kinds, so classes repeat.
            let kinds: Vec<(f64, f64)> = (0..2 + draw(2))
                .map(|_| (costs[draw(costs.len())], sels[draw(sels.len())]))
                .collect();
            let specs: Vec<(f64, f64)> = (0..n).map(|_| kinds[draw(kinds.len())]).collect();
            let app = Application::independent(&specs);
            for (model, objective) in [
                (CommModel::Overlap, Objective::MinPeriod),
                (CommModel::InOrder, Objective::MinPeriod),
                (CommModel::Overlap, Objective::MinLatency),
            ] {
                let (floor, optimum) = floor_of(&app, model, objective, &b);
                assert!(
                    floor <= optimum,
                    "case {case} {specs:?} {model} {objective}: floor {floor} exceeds {optimum}"
                );
            }
        }
    }
}
