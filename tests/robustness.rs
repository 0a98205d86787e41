//! Robustness tests of the hardened serving layer (PR-8 acceptance
//! criteria):
//!
//! * the MINLATENCY DAG phase honours `SearchBudget::time_limit` *inside*
//!   the per-worker walk — a 20 ms deadline on an instance whose DAG
//!   ordering space is astronomically large must return promptly with a
//!   non-exhaustive incumbent, not run to completion;
//! * a fault-injected replay (solver panics, deadline blowouts) produces
//!   the **same digest under any worker-thread count** — faults are keyed
//!   by request ordinal, not by scheduling accidents;
//! * a panicking cold-solve leader rejects its in-flight followers through
//!   the public API (nobody hangs), quarantines the fingerprint with
//!   exponential backoff, and recovers once the fault clears;
//! * a plan space whose shapes are wider than the 64-bit shape key is
//!   refused up front, so an unbounded budget degrades instead of
//!   streaming without end, and requests at that limit are priced and
//!   rejected without a solve;
//! * an application with no services is refused where applications enter,
//!   instead of panicking the caller's thread;
//! * an ordering space larger than `usize` is refused by the exhaustive
//!   ordering searches, whatever the budget, so they climb instead of
//!   enumerating without end.

use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{
    bound_ordered_shape_plan, forest_classes, Application, CommModel, CoreError, CoreResult,
    ExecutionGraph, ShapeScan, WeightClasses, SHAPE_CODE_MAX_N,
};
use fsw::sched::engine::CanonicalSpace;
use fsw::sched::latency::oneport_latency_search;
use fsw::sched::oneport::{oneport_period_search, OnePortStyle};
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::sched::outorder::{outorder_period_search, outorder_schedule_at};
use fsw::sched::CommOrderings;
use fsw::serve::{
    permutation_collapse_allowed, AdmissionDecision, AdmissionPolicy, AsyncFrontend,
    FrontendConfig, InjectedFault, PlanRequest, PlanService, RejectReason, ServeOutcome,
    TenantEvent, TenantSession,
};
use fsw::sim::{replay_trace, Disposition, FaultPlan, ServeReplayConfig, TraceReport};
use fsw::workloads::streaming::{serving_trace, TraceConfig};
use fsw::workloads::{random_application, RandomAppConfig};

/// Runs `body` with panic backtraces suppressed (the tests below inject
/// panics that the pool is expected to catch).
fn quietly<T>(body: impl FnOnce() -> T) -> T {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = body();
    std::panic::set_hook(hook);
    out
}

#[test]
fn minlatency_dag_phase_honours_a_short_deadline() {
    // n = 7 with all-distinct weights: 1.1e9 labelled DAGs, so an
    // un-deadlined walk would run (far) beyond any test budget.  The 20 ms
    // limit must be observed inside the walk itself, between DAGs — not
    // just between shapes — so the solve returns promptly.
    let mut rng = StdRng::seed_from_u64(0x0b07);
    let app = random_application(&RandomAppConfig::independent(7), &mut rng);
    let budget = SearchBudget {
        dag_enumeration_max_n: 7,
        time_limit: Some(Duration::from_millis(20)),
        ..SearchBudget::default()
    };
    let started = Instant::now();
    let solution = solve(
        &Problem::new(&app, CommModel::InOrder, Objective::MinLatency),
        &budget,
    )
    .unwrap();
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(2),
        "a 20 ms deadline took {elapsed:?} to fire — the DAG walk is not \
         checking the budget deadline"
    );
    assert!(
        !solution.exhaustive,
        "an interrupted DAG enumeration must not claim exhaustiveness"
    );
    assert!(solution.value.is_finite(), "the incumbent is still a plan");
}

#[test]
fn shapes_wider_than_the_key_degrade_instead_of_streaming_without_end() {
    // n = 33 has about 2.2e13 forest shapes, far beyond any budget, yet an
    // unbounded `max_graphs` would admit the shape count and no deadline
    // stops the scan: only the key-width refusal keeps the solve finite.
    // The walk's scope count refuses the space, and so does the shape scan.
    let n = SHAPE_CODE_MAX_N + 1;
    let app = Application::independent(&vec![(2.0, 0.7); n]);
    assert!(matches!(
        bound_ordered_shape_plan(&WeightClasses::of(&app), None, f64::INFINITY, None),
        ShapeScan::TooWide
    ));
    assert_eq!(CanonicalSpace::forest_walk_size(n, true), None);
    assert!(!CanonicalSpace::forest_walk_fits(&app, usize::MAX));
    let budget = SearchBudget {
        max_graphs: usize::MAX,
        time_limit: None,
        ..SearchBudget::default()
    };
    let solution = solve(
        &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
        &budget,
    )
    .unwrap();
    assert!(
        !solution.exhaustive,
        "a refused shape scan must not claim exhaustiveness"
    );
    assert!(solution.value.is_finite(), "the fallback is still a plan");
}

/// Uniform and two-class applications at the shape key's width and one
/// past it are priced, gated and rejected, never solved: a 32-service walk
/// would stream about 8·10¹² shapes.  At `SHAPE_CODE_MAX_N` the price is
/// the walk's exact shape count; one service more, no walk covers the
/// space and the price is the labelled space, flagged inexact.
#[test]
fn requests_at_the_shape_key_width_are_priced_and_rejected_without_a_solve() {
    let budget = SearchBudget::default();
    let policy = AdmissionPolicy::for_budget(&budget);
    for n in [SHAPE_CODE_MAX_N, SHAPE_CODE_MAX_N + 1] {
        let uniform = vec![(2.0, 0.7); n];
        let two_class: Vec<(f64, f64)> = (0..n)
            .map(|k| if k < n / 2 { (0.3, 0.2) } else { (12.0, 0.9) })
            .collect();
        for specs in [uniform, two_class] {
            let app = Application::independent(&specs);
            assert!(CanonicalSpace::class_reducible(&app));
            let scope = CanonicalSpace::forest_walk_size(n, true);
            assert_eq!(scope, (n == SHAPE_CODE_MAX_N).then(|| forest_classes(n)));
            for objective in [Objective::MinPeriod, Objective::MinLatency] {
                let decision = policy.decide(&app, CommModel::Overlap, objective, &budget);
                let AdmissionDecision::Reject { estimate } = decision else {
                    panic!("n = {n} {objective}: {decision:?}");
                };
                assert!(estimate.cost > policy.reject_cost);
                assert_eq!(estimate.exact, scope.is_some(), "n = {n} {objective}");
                if let Some(shapes) = scope {
                    assert_eq!(estimate.cost, shapes);
                }
                assert!(!permutation_collapse_allowed(
                    &app,
                    CommModel::Overlap,
                    objective,
                    &budget
                ));
                let service = PlanService::new(budget, 8);
                let outcome = service
                    .serve_one(&PlanRequest::new(
                        app.clone(),
                        CommModel::Overlap,
                        objective,
                    ))
                    .unwrap();
                let rejection = outcome.rejection().expect("admission rejects");
                assert_eq!(rejection.reason, RejectReason::AdmissionCost);
                assert_eq!(service.stats().dispatches, 0);
            }
        }
    }
    assert_eq!(forest_classes(SHAPE_CODE_MAX_N), 7_929_819_784_355);
}

#[test]
fn faulted_replay_digests_are_thread_count_independent() {
    // Panic the first cold leader and blow the deadline of the next one
    // (ordinal 1 leads a cold solve, so its answer degrades); every eighth
    // tenant is an oversized jumbo that admission must reject.  The digest
    // (path, disposition, value bits per request) must not depend on the
    // worker-thread count, because faults key on arrival ordinals.
    let trace = serving_trace(
        &TraceConfig {
            tenants: 8,
            steps: 12,
            templates: 3,
            services_per_tenant: 5,
            mutation_rate: 0.5,
            requests_per_step: 3,
            jumbo_every: 4,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x0b08),
    );
    let config_for = |threads: usize| ServeReplayConfig {
        budget: SearchBudget::default().with_threads(threads),
        faults: FaultPlan::new().panic_at(0).blowout_at(1),
        ..ServeReplayConfig::default()
    };
    // Every degraded answer carries a certified floor at or below its value.
    let floors_hold = |report: &TraceReport, threads: usize| {
        for outcome in &report.outcomes {
            if outcome.disposition == Disposition::Degraded {
                let floor = outcome
                    .lower_bound
                    .expect("a degraded answer carries a floor");
                assert!(
                    outcome.value >= floor,
                    "x{threads}: degraded value {} below its floor {floor}",
                    outcome.value
                );
            }
        }
    };
    let reference = quietly(|| replay_trace(&trace, &config_for(1)).unwrap());
    assert_eq!(reference.requests(), trace.request_count(), "nothing hangs");
    assert_eq!(reference.stats.panics, 1, "the injected panic fired");
    let (_, degraded, rejected) = reference.mix();
    assert!(degraded > 0, "the blown deadline degrades its answer");
    assert!(rejected > 0, "panics and jumbo tenants produce rejections");
    assert_eq!(reference.store_non_exhaustive, 0, "store purity");
    floors_hold(&reference, 1);
    for threads in [2, 4] {
        let other = quietly(|| replay_trace(&trace, &config_for(threads)).unwrap());
        floors_hold(&other, threads);
        assert_eq!(
            reference.digest(),
            other.digest(),
            "x{threads}: a faulted replay must not depend on the thread count"
        );
        assert_eq!(reference.stats, other.stats, "x{threads}: service counters");
    }
}

#[test]
fn a_panicking_leader_rejects_its_followers_and_the_key_recovers() {
    let mut rng = StdRng::seed_from_u64(0x0b09);
    let app = random_application(&RandomAppConfig::independent(5), &mut rng);
    let request = PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod);
    let service = PlanService::new(SearchBudget::default(), 8)
        .with_fault_injection(|ordinal| (ordinal == 0).then_some(InjectedFault::Panic));
    // Three same-fingerprint requests in one batch: the leader's injected
    // panic must reject the whole group — followers are woken with the
    // error, not left hanging on the in-flight dedup.
    let batch = vec![request.clone(), request.clone(), request.clone()];
    let outcomes = quietly(|| service.serve_batch(&batch).unwrap());
    assert_eq!(outcomes.len(), 3);
    for outcome in &outcomes {
        let rejection = outcome.rejection().expect("the panic rejects the batch");
        assert!(
            matches!(rejection.reason, RejectReason::SolverPanic { .. }),
            "got {rejection:?}"
        );
    }
    assert_eq!(service.stats().panics, 1);
    // Quarantine backoff: two requests drain the cooldown…
    for attempt in 0..2 {
        let outcome = service.serve_one(&request).unwrap();
        let rejection = outcome.rejection().expect("quarantined while cooling");
        assert!(
            matches!(
                rejection.reason,
                RejectReason::Quarantined { permanent: false }
            ),
            "attempt {attempt}: got {rejection:?}"
        );
    }
    // …then the retry solves cleanly (the fault only hit ordinal 0) and the
    // fingerprint leaves quarantine for good.
    let recovered = service.serve_one(&request).unwrap();
    assert!(
        matches!(recovered, ServeOutcome::Exact(_)),
        "the retry after backoff must serve exactly, got {recovered:?}"
    );
    assert_eq!(service.stats().recovered, 1);
    assert!(matches!(
        service.serve_one(&request).unwrap(),
        ServeOutcome::Exact(_)
    ));
}

#[test]
fn serve_stats_snapshot_exposes_quarantine_and_dedup_counters() {
    let mut rng = StdRng::seed_from_u64(0x0b10);
    let healthy = PlanRequest::new(
        random_application(&RandomAppConfig::independent(5), &mut rng),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    let poisoned = PlanRequest::new(
        random_application(&RandomAppConfig::independent(6), &mut rng),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    // Ordinals 0..4 are the healthy traffic; every later cold solve panics.
    let service = PlanService::new(SearchBudget::default(), 8)
        .with_fault_injection(|ordinal| (ordinal >= 4).then_some(InjectedFault::Panic));
    // One cold leader plus two in-flight followers (ordinals 0-2)…
    let batch = vec![healthy.clone(), healthy.clone(), healthy.clone()];
    for outcome in service.serve_batch(&batch).unwrap() {
        assert!(matches!(outcome, ServeOutcome::Exact(_)));
    }
    // …and a fourth identical request served from the store (ordinal 3).
    assert!(matches!(
        service.serve_one(&healthy).unwrap(),
        ServeOutcome::Exact(_)
    ));
    // Nine poisoned requests: the panics at ordinals 4, 7 and 12 — with the
    // exponential backoff windows (2 then 4 requests) between them — spend
    // the fingerprint's failure budget and quarantine it permanently.
    quietly(|| {
        for _ in 0..9 {
            let outcome = service.serve_one(&poisoned).unwrap();
            assert!(
                outcome.rejection().is_some(),
                "the poisoned key never serves"
            );
        }
    });
    let stats = service.stats();
    assert_eq!(stats.submitted, 13);
    assert_eq!(
        stats.dedup_joins, 2,
        "followers joined the in-flight leader"
    );
    assert_eq!(stats.store_hits, 1, "the fourth request hit the store");
    assert_eq!(stats.panics, 3, "three attempts spent the failure budget");
    assert_eq!(stats.quarantine_rejects, 6, "backoff windows of 2 + 4");
    assert_eq!(
        stats.quarantine_active, 1,
        "exactly the poisoned fingerprint"
    );
    assert_eq!(stats.quarantine_permanent, 1, "and it is permanent");
    assert_eq!(stats.store.len, 1, "only the healthy plan is cached");
    // The store is consulted before the quarantine gate, so every poisoned
    // request counts one miss on top of the healthy cold miss.
    assert_eq!(stats.store.misses, 10);
}

#[test]
fn backpressure_decisions_are_identical_across_worker_counts() {
    // 48 distinct-fingerprint n = 6 requests submitted in one burst to a
    // deliberately narrow front end (2 dequeues/tick, backlog_high = 2):
    // the standing backlog ratchets the shed level towards its ceiling, so
    // late dequeues are shed by the scaled admission thresholds while early
    // dequeues still solve exactly.  The admit/shed decision sequence is a
    // pure function of the submission order — it must be identical for any
    // worker-thread count.  The digest also labels each answer exact or
    // degraded, and a degrade-band solve is exact only if it beats the
    // admission policy's wall-clock degrade deadline; a 60 s deadline keeps
    // that label off the machine's load.  Shed and admit decisions never
    // read the deadline.
    let run = |workers: usize| {
        let mut rng = StdRng::seed_from_u64(0x0b11);
        let budget = SearchBudget::default();
        let service = Arc::new(
            PlanService::new(budget, 64).with_admission(AdmissionPolicy {
                degrade_time_limit: Duration::from_secs(60),
                ..AdmissionPolicy::for_budget(&budget)
            }),
        );
        let mut frontend = AsyncFrontend::new(
            service,
            FrontendConfig {
                workers,
                dispatch_per_tick: 2,
                backlog_high: 2,
                backlog_low: 1,
                max_shed_level: 16,
                ..FrontendConfig::default()
            },
        );
        for tenant in 0..48 {
            let app = random_application(&RandomAppConfig::independent(6), &mut rng);
            frontend
                .submit(
                    tenant,
                    PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod),
                )
                .unwrap();
        }
        let mut decisions: Vec<(u64, String)> = frontend
            .drain()
            .into_iter()
            .map(|completion| {
                let label = match &completion.outcome {
                    ServeOutcome::Exact(r) => format!("exact:{:016x}", r.value.to_bits()),
                    ServeOutcome::Degraded { response, .. } => {
                        format!("degraded:{:016x}", response.value.to_bits())
                    }
                    ServeOutcome::Rejected(r) => format!("rejected:{:?}", r.reason),
                };
                (completion.ordinal, label)
            })
            .collect();
        decisions.sort();
        // Idle ticks after the drain walk the hysteresis back down.
        for _ in 0..40 {
            frontend.tick();
        }
        (decisions, frontend.stats())
    };
    let (reference, stats) = run(1);
    assert_eq!(reference.len(), 48, "every ticket resolves");
    assert!(
        stats.backpressure_sheds > 0,
        "the standing backlog must shed late dequeues"
    );
    assert!(
        stats.peak_shed_level >= 12,
        "hysteresis must climb into the shedding band, got {}",
        stats.peak_shed_level
    );
    assert_eq!(stats.shed_level, 0, "and fall back once the backlog clears");
    // The shed-level transitions surface through the ServeStats snapshot:
    // the climb to the peak and the full walk back down are both counted.
    assert!(
        stats.shed_raises >= 12,
        "every level of the climb is a counted raise, got {}",
        stats.shed_raises
    );
    assert_eq!(
        stats.shed_raises, stats.shed_lowers,
        "the hysteresis ends at level 0, so raises and lowers balance"
    );
    assert_eq!(stats.deadline_cancels, 0, "no deadlines were configured");
    for workers in [2, 4] {
        let (other, other_stats) = run(workers);
        assert_eq!(
            reference, other,
            "x{workers}: the shed/admit decision digest must not depend on \
             the worker count"
        );
        assert_eq!(stats, other_stats, "x{workers}: serving counters");
    }
}

#[test]
fn deadline_cancellations_surface_through_the_serve_stats_snapshot() {
    // A one-dequeue-per-tick front end with 1-tick deadlines: the burst's
    // tail is still queued when its deadlines lapse, so late dequeues are
    // cancelled instead of solved — and the totals must be visible through
    // the [`ServeStats`] snapshot, not only the frontend counters.
    let mut rng = StdRng::seed_from_u64(0x0b12);
    let service = Arc::new(PlanService::new(SearchBudget::default(), 64));
    let mut frontend = AsyncFrontend::new(
        service,
        FrontendConfig {
            workers: 1,
            dispatch_per_tick: 1,
            ..FrontendConfig::default()
        },
    );
    for tenant in 0..8 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        frontend
            .submit_with_deadline(
                tenant,
                PlanRequest::new(app, CommModel::Overlap, Objective::MinPeriod),
                1,
            )
            .unwrap();
    }
    let completions = frontend.drain();
    assert_eq!(completions.len(), 8, "every ticket resolves");
    let cancelled = completions
        .iter()
        .filter(|c| {
            matches!(
                c.outcome.rejection().map(|r| &r.reason),
                Some(RejectReason::DeadlineExpired)
            )
        })
        .count();
    assert!(cancelled >= 1, "the burst's tail outlives its deadlines");
    assert_eq!(
        frontend.stats().deadline_cancels,
        cancelled,
        "the snapshot carries the cancellation total"
    );
}

#[test]
fn an_application_with_no_services_is_refused_at_every_entry() {
    // Both front doors, the session constructor and a departure of the
    // last service must return an error, not panic on the caller's thread
    // (the empty solve is non-exhaustive, and its floor would enumerate
    // forests on zero nodes).
    let empty = Application::independent(&[]);
    let request = PlanRequest::new(empty.clone(), CommModel::Overlap, Objective::MinPeriod);
    let budget = SearchBudget::default();
    let service = Arc::new(PlanService::new(budget, 16));
    assert!(service.serve_one(&request).is_err());
    let mut frontend = AsyncFrontend::new(Arc::clone(&service), FrontendConfig::default());
    assert!(frontend.submit(0, request).is_err());
    assert_eq!(
        frontend.outstanding(),
        0,
        "a refused request earns no ticket"
    );
    assert!(frontend.drain().is_empty());
    assert_eq!(service.stats().submitted, 0);

    let session = |app: Application| {
        TenantSession::new(app, CommModel::Overlap, Objective::MinPeriod, budget)
    };
    assert!(session(empty.clone()).is_err());
    let mut last = session(Application::independent(&[(2.0, 0.5)])).expect("one service");
    assert!(last.apply(TenantEvent::Depart { service: 0 }).is_err());
    assert_eq!(
        last.app().n(),
        1,
        "a refused departure leaves the session as it was"
    );
    assert!(last.replan().expect("still one service").exhaustive);

    let policy = AdmissionPolicy::for_budget(&budget);
    let nan_cost = Application::independent(&[(2.0, 0.5), (f64::NAN, 0.5)]);
    for model in CommModel::ALL {
        for objective in [Objective::MinPeriod, Objective::MinLatency] {
            assert_eq!(
                policy.certified_floor(&empty, model, objective, &budget),
                None
            );
            // The solver entry validates too: no value for an empty
            // application, and `validate`'s error for a NaN cost.
            assert_eq!(
                solve(&Problem::new(&empty, model, objective), &budget).map(|s| s.value),
                Err(CoreError::EmptyApplication),
                "{model} {objective:?}"
            );
            assert!(
                matches!(
                    solve(&Problem::new(&nan_cost, model, objective), &budget),
                    Err(CoreError::NonPositiveCost { id: 1, cost }) if cost.is_nan()
                ),
                "{model} {objective:?}"
            );
        }
    }
    // The public ordering searches validate too: a NaN cost on a fork gets
    // `validate`'s error, not a search over NaN durations.
    let nan_fork = Application::independent(&[(f64::NAN, 1.0), (4.0, 1.0), (4.0, 1.0)]);
    let fork = ExecutionGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
    let refused = |result: CoreResult<f64>| match result {
        Err(CoreError::NonPositiveCost { id, cost }) => id == 0 && cost.is_nan(),
        _ => false,
    };
    for style in [OnePortStyle::InOrder, OnePortStyle::OverlapPorts] {
        let searched = oneport_period_search(&nan_fork, &fork, style, 5_000);
        assert!(refused(searched.map(|r| r.period)), "{style:?}");
    }
    let searched = outorder_period_search(&nan_fork, &fork, &budget);
    assert!(refused(searched.map(|r| r.period)), "OUTORDER");
    let searched = oneport_latency_search(&nan_fork, &fork, 5_000);
    assert!(refused(searched.map(|r| r.latency)), "latency");
    // So does the fixed-period OUTORDER scheduler: a refused application
    // gets `validate`'s error, not an answer about its schedule.
    assert!(
        matches!(
            outorder_schedule_at(&nan_fork, &fork, 7.0, &budget),
            Err(CoreError::NonPositiveCost { id: 0, cost }) if cost.is_nan()
        ),
        "OUTORDER at a fixed period"
    );
    assert_eq!(
        outorder_schedule_at(&empty, &ExecutionGraph::new(0), 7.0, &budget).map(|_| ()),
        Err(CoreError::EmptyApplication)
    );
}

/// A 21-way fork has 21! ≈ 5.1·10¹⁹ orderings, more than `usize` holds:
/// under an unbounded ordering budget the period searches (both styles and
/// the orchestrated INORDER solve) and the latency search refuse to
/// enumerate it and return the climb's answer, non-exhaustive, promptly.
#[test]
fn ordering_spaces_beyond_usize_are_climbed_not_enumerated() {
    let mut specs = vec![(2.0, 0.5)];
    specs.extend((1..=21).map(|k| (1.0 + k as f64 / 8.0, 1.0)));
    let app = Application::independent(&specs);
    let edges: Vec<(usize, usize)> = (1..=21).map(|k| (0, k)).collect();
    let fork = ExecutionGraph::from_edges(22, &edges).unwrap();
    assert_eq!(CommOrderings::search_space_size(&fork), None);
    let started = Instant::now();
    for style in [OnePortStyle::InOrder, OnePortStyle::OverlapPorts] {
        let searched = oneport_period_search(&app, &fork, style, usize::MAX).unwrap();
        assert!(!searched.exhaustive, "{style:?}");
        assert!(searched.period.is_finite(), "{style:?}");
    }
    let searched = oneport_latency_search(&app, &fork, usize::MAX).unwrap();
    assert!(!searched.exhaustive);
    let budget = SearchBudget {
        max_orderings: usize::MAX,
        ..SearchBudget::default()
    };
    for objective in [Objective::MinPeriod, Objective::MinLatency] {
        let problem = Problem::on_graph(&app, CommModel::InOrder, objective, &fork);
        let solved = solve(&problem, &budget).unwrap();
        assert!(!solved.exhaustive, "{objective:?}");
    }
    let elapsed = started.elapsed();
    assert!(elapsed < Duration::from_secs(60), "took {elapsed:?}");
}
