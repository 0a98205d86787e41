//! Property tests of the serving layer (`fsw_serve`), guarding the PR-5
//! acceptance criteria:
//!
//! * a cache-hit response is **byte-identical** to a cold solve of the same
//!   request (value, winning graph and exhaustiveness flag);
//! * an online re-plan's value equals a from-scratch solve of the mutated
//!   instance, bit for bit, while evaluating **no more** candidates (and
//!   strictly fewer in aggregate across a trace);
//! * the plan store's eviction respects the solve-cost weighting;
//! * a trace replay is deterministic across worker-thread counts;
//! * the per-fingerprint evaluation caches are **retained across cold
//!   solves**: a fingerprint evicted from the plan store re-solves against
//!   its memoised ordering searches, strictly cheaper than the first cold
//!   solve and byte-identical to it;
//! * the batch door and the async door run one decision pipeline: the
//!   same script decides every request identically through both.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{Application, CommModel};
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::serve::{
    AsyncFrontend, FrontendConfig, InjectedFault, PlanRequest, PlanService, PlanStore,
    RejectReason, Rejection, ServeOutcome, ServeSource, StoredPlan, TenantEvent, TenantSession,
};
use fsw::sim::{replay_trace, RequestPath, ServeReplayConfig};
use fsw::workloads::streaming::{serving_trace, TraceConfig};
use fsw::workloads::{random_application, RandomAppConfig};

fn graph_edges(graph: &fsw::core::ExecutionGraph) -> Vec<(usize, usize)> {
    graph.edges().collect()
}

#[test]
fn cache_hits_are_byte_identical_to_cold_solves() {
    let mut rng = StdRng::seed_from_u64(0x5e01);
    let budget = SearchBudget::default();
    for case in 0..6 {
        let app = random_application(&RandomAppConfig::independent(4 + case % 3), &mut rng);
        for (model, objective) in [
            (CommModel::Overlap, Objective::MinPeriod),
            (CommModel::InOrder, Objective::MinPeriod),
            (CommModel::Overlap, Objective::MinLatency),
        ] {
            let service = PlanService::new(budget, 8);
            let request = PlanRequest::new(app.clone(), model, objective);
            let cold_outcome = service.serve_one(&request).unwrap();
            let cold_response = cold_outcome.expect_exact();
            assert_eq!(cold_response.source, ServeSource::Cold);
            let hit_outcome = service.serve_one(&request).unwrap();
            let hit = hit_outcome.expect_exact();
            assert_eq!(hit.source, ServeSource::Store, "case {case} {model}");
            // Byte identity between the hit and the cold response…
            assert_eq!(hit.value.to_bits(), cold_response.value.to_bits());
            assert_eq!(graph_edges(&hit.graph), graph_edges(&cold_response.graph));
            assert_eq!(hit.exhaustive, cold_response.exhaustive);
            // …and between both and a direct orchestrator solve.
            let direct = solve(&Problem::new(&app, model, objective), &budget).unwrap();
            assert_eq!(hit.value.to_bits(), direct.value.to_bits());
            assert_eq!(hit.exhaustive, direct.exhaustive);
        }
    }
}

#[test]
fn permuted_tenants_served_from_one_solve_match_their_own_cold_solves() {
    let mut rng = StdRng::seed_from_u64(0x5e02);
    let budget = SearchBudget::default();
    for case in 0..6 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        // A rotated twin of the same weight multiset.
        let n = app.n();
        let rotated = Application::independent(
            &(0..n)
                .map(|k| {
                    let src = (k + 1 + case % (n - 1)) % n;
                    (app.cost(src), app.selectivity(src))
                })
                .collect::<Vec<_>>(),
        );
        let service = PlanService::new(budget, 8);
        let outcomes = service
            .serve_batch(&[
                PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod),
                PlanRequest::new(rotated.clone(), CommModel::Overlap, Objective::MinPeriod),
            ])
            .unwrap();
        let responses: Vec<_> = outcomes.iter().map(|o| o.expect_exact()).collect();
        assert_eq!(responses[0].source, ServeSource::Cold, "case {case}");
        assert_eq!(responses[1].source, ServeSource::Dedup, "case {case}");
        for (tenant_app, response) in [(&app, responses[0]), (&rotated, responses[1])] {
            let cold = solve(
                &Problem::new(tenant_app, CommModel::Overlap, Objective::MinPeriod),
                &budget,
            )
            .unwrap();
            assert_eq!(
                response.value.to_bits(),
                cold.value.to_bits(),
                "case {case}"
            );
            response.graph.respects(tenant_app).unwrap();
        }
    }
}

#[test]
fn online_replan_equals_from_scratch_solve_on_the_mutated_instance() {
    let mut rng = StdRng::seed_from_u64(0x5e03);
    let budget = SearchBudget::default();
    for case in 0..5 {
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let mut session =
            TenantSession::new(app, CommModel::Overlap, Objective::MinPeriod, budget).unwrap();
        let first = session.replan().unwrap();
        let events = [
            TenantEvent::Arrive {
                cost: 2.5 + case as f64,
                selectivity: 0.4,
            },
            TenantEvent::Reweight {
                service: case % 5,
                cost: 1.5,
                selectivity: 0.8,
            },
            TenantEvent::Depart { service: case % 5 },
        ];
        for (step, event) in events.into_iter().enumerate() {
            session.apply(event).unwrap();
            let outcome = session.replan().unwrap();
            assert!(outcome.warm_value.is_some(), "case {case} step {step}");
            let cold = solve(
                &Problem::new(session.app(), CommModel::Overlap, Objective::MinPeriod),
                &budget,
            )
            .unwrap();
            assert_eq!(
                outcome.value.to_bits(),
                cold.value.to_bits(),
                "case {case} step {step}: warm re-plan must equal a cold solve"
            );
            assert_eq!(outcome.exhaustive, cold.exhaustive);
        }
        let _ = first;
    }
}

#[test]
fn eviction_respects_the_cost_weighting() {
    use fsw::core::{CanonicalApplication, ExecutionGraph};
    use fsw::serve::PlanKey;
    // Two slots: one expensive plan and a parade of cheap ones.  The
    // expensive plan must survive; among the cheap ones the most recently
    // used stays.
    let store = PlanStore::new(2);
    let key = |cost: f64| PlanKey {
        fingerprint: CanonicalApplication::of(&Application::independent(&[(cost, 0.5)]))
            .fingerprint,
        model: CommModel::Overlap,
        objective: Objective::MinPeriod,
    };
    let plan = |micros: u64| StoredPlan {
        value: 1.0,
        graph: ExecutionGraph::new(1),
        exhaustive: true,
        solve_micros: micros,
    };
    let expensive = key(100.0);
    store.insert(expensive.clone(), plan(1_000_000));
    for i in 0..10 {
        store.insert(key(1.0 + i as f64), plan(10 + i));
    }
    let stats = store.stats();
    assert_eq!(stats.len, 2);
    assert_eq!(stats.evictions, 9);
    assert!(
        store.get(&expensive).is_some(),
        "cost weighting must keep the expensive plan"
    );
    assert!(store.get(&key(10.0)).is_some(), "newest cheap plan stays");
}

/// A cold solve that never reads its evaluation cache leaves none behind:
/// MINPERIOD values every candidate by its structural period bound under
/// all three models, so it records no miss, `eval_cache_stats` stays
/// `None` and the answer is a cold solve's bits.  MINLATENCY's DAG phase
/// records misses, so its fingerprint keeps a cache: the evaluation cache
/// belongs to MINLATENCY alone.
#[test]
fn cold_solves_retain_an_eval_cache_only_once_it_records_a_miss() {
    let mut rng = StdRng::seed_from_u64(0x5e07);
    let app = random_application(&RandomAppConfig::independent(5), &mut rng);
    let budget = SearchBudget::default();
    let service = PlanService::new(budget, 16);
    for model in CommModel::ALL {
        let period = PlanRequest::new(app.clone(), model, Objective::MinPeriod);
        let outcome = service.serve_one(&period).unwrap();
        let (ServeOutcome::Exact(served)
        | ServeOutcome::Degraded {
            response: served, ..
        }) = &outcome
        else {
            panic!("{model}: a small MINPERIOD request is answered, got {outcome:?}");
        };
        assert_eq!(served.source, ServeSource::Cold, "{model}");
        let cold = solve(&Problem::new(&app, model, Objective::MinPeriod), &budget).unwrap();
        assert_eq!(served.value.to_bits(), cold.value.to_bits(), "{model}");
        assert_eq!(served.exhaustive, cold.exhaustive, "{model}");
        assert_eq!(service.eval_cache_stats(&period), None, "{model}");
    }

    let latency = PlanRequest::new(app, CommModel::InOrder, Objective::MinLatency);
    service.serve_one(&latency).unwrap().expect_exact();
    let (_, misses) = service.eval_cache_stats(&latency).expect("retained");
    assert!(misses > 0);
}

/// Evaluation caches survive plan-store eviction.  With a capacity-1 store
/// and two models on one application, the store can hold only one of the
/// two plans (eviction is weighed by measured solve wall time, so *which*
/// one survives depends on timing) — re-serving both keys therefore always
/// produces exactly one genuine repeat cold-miss.  That repeat cold solve
/// must answer from the retained per-fingerprint `EvalCache`: strictly
/// fewer fresh evaluations than the cold-cache baseline, with memo hits,
/// and byte-identical to its own first response.  (MINLATENCY routes its
/// non-forest one-port ordering searches through the cache; MINPERIOD
/// never consults it.)
#[test]
fn eval_caches_are_retained_across_repeat_cold_misses() {
    let mut rng = StdRng::seed_from_u64(0x5e06);
    for case in 0..3 {
        // n = 5 keeps the DAG phase (the cache-routed evaluations) active.
        let app = random_application(&RandomAppConfig::independent(5), &mut rng);
        let service = PlanService::new(SearchBudget::default(), 1);
        let warm_up = PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinLatency);
        let target = PlanRequest::new(app.clone(), CommModel::InOrder, Objective::MinLatency);
        assert!(
            service.eval_cache_stats(&warm_up).is_none(),
            "case {case}: no cache before the first cold solve"
        );
        let first = service.serve_one(&warm_up).unwrap().expect_exact().clone();
        assert_eq!(first.source, ServeSource::Cold, "case {case}");
        let (_, cold_baseline) = service.eval_cache_stats(&warm_up).unwrap();
        assert!(cold_baseline > 0, "case {case}: a cold solve must evaluate");
        let second = service.serve_one(&target).unwrap().expect_exact().clone();
        assert_eq!(second.source, ServeSource::Cold, "case {case}");
        // Exactly one of the two keys is resident in the capacity-1 store;
        // a store hit never touches the evaluation cache, so the stats
        // snapshot stays valid across the probing re-serve.
        let (hits_before, misses_before) = service.eval_cache_stats(&target).unwrap();
        let probe = service.serve_one(&target).unwrap().expect_exact().clone();
        let (repeat, original) = if probe.source == ServeSource::Cold {
            (probe, &second)
        } else {
            assert_eq!(probe.source, ServeSource::Store, "case {case}");
            let other = service.serve_one(&warm_up).unwrap().expect_exact().clone();
            assert_eq!(
                other.source,
                ServeSource::Cold,
                "case {case}: one of the two plans must have been evicted"
            );
            (other, &first)
        };
        let (hits_after, misses_after) = service.eval_cache_stats(&target).unwrap();
        assert!(
            misses_after - misses_before < cold_baseline,
            "case {case}: repeat cold solve ran {} fresh searches, the \
             cold-cache baseline ran {cold_baseline} — retention saved nothing",
            misses_after - misses_before
        );
        assert!(
            hits_after > hits_before,
            "case {case}: repeat cold solve must hit the retained memo"
        );
        // Retention is a pure memo: the repeat answer is byte-identical.
        assert_eq!(
            repeat.value.to_bits(),
            original.value.to_bits(),
            "case {case}"
        );
        assert_eq!(
            graph_edges(&repeat.graph),
            graph_edges(&original.graph),
            "case {case}"
        );
        assert_eq!(repeat.exhaustive, original.exhaustive, "case {case}");
    }
}

#[test]
fn trace_replay_is_deterministic_across_thread_counts() {
    let trace = serving_trace(
        &TraceConfig {
            tenants: 8,
            steps: 12,
            templates: 3,
            services_per_tenant: 5,
            mutation_rate: 0.5,
            requests_per_step: 3,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x5e04),
    );
    let reference = replay_trace(
        &trace,
        &ServeReplayConfig {
            budget: SearchBudget::default().with_threads(1),
            ..ServeReplayConfig::default()
        },
    )
    .unwrap();
    assert!(reference.served() > 0);
    for threads in [2, 4] {
        let other = replay_trace(
            &trace,
            &ServeReplayConfig {
                budget: SearchBudget::default().with_threads(threads),
                ..ServeReplayConfig::default()
            },
        )
        .unwrap();
        assert_eq!(
            reference.digest(),
            other.digest(),
            "x{threads}: replay outcomes must not depend on the thread count"
        );
        assert_eq!(
            reference.stats, other.stats,
            "x{threads}: service and store counters"
        );
    }
}

#[test]
fn warm_replans_never_evaluate_more_than_cold_and_save_in_aggregate() {
    let trace = serving_trace(
        &TraceConfig {
            tenants: 10,
            steps: 20,
            templates: 4,
            services_per_tenant: 6,
            mutation_rate: 0.5,
            requests_per_step: 3,
            ..TraceConfig::default()
        },
        &mut StdRng::seed_from_u64(0x5e05),
    );
    let report = replay_trace(
        &trace,
        &ServeReplayConfig {
            verify: true,
            ..ServeReplayConfig::default()
        },
    )
    .unwrap();
    assert_eq!(
        report.value_mismatches(),
        0,
        "served values != ground truth"
    );
    assert!(report.replans() > 0, "trace produced no re-plans");
    for outcome in &report.outcomes {
        if outcome.path == RequestPath::Replan {
            let cold = outcome.cold_evaluated.expect("verify mode");
            assert!(
                outcome.evaluated <= cold,
                "step {} tenant {}: warm evaluated {} > cold {}",
                outcome.step,
                outcome.tenant,
                outcome.evaluated,
                cold
            );
        }
    }
    let (warm, cold) = report.replan_evaluations();
    assert!(
        warm < cold,
        "warm starts must prune in aggregate: warm {warm} vs cold {cold}"
    );
}

/// What a front door decided for one request: the rejection (reason and
/// estimate, floor included), or the served value bits and source plus
/// the certified floor bits of a degraded answer.
#[allow(clippy::type_complexity)] // a flat comparison row
fn decided(outcome: &ServeOutcome) -> (Option<Rejection>, Option<(u64, ServeSource)>, Option<u64>) {
    match outcome {
        ServeOutcome::Exact(r) => (None, Some((r.value.to_bits(), r.source)), None),
        ServeOutcome::Degraded {
            response,
            lower_bound,
            ..
        } => (
            None,
            Some((response.value.to_bits(), response.source)),
            Some(lower_bound.to_bits()),
        ),
        ServeOutcome::Rejected(rejection) => (Some(rejection.clone()), None, None),
    }
}

/// One scripted sequence through `serve_batch` and through an
/// `AsyncFrontend` (each round submitted before its first tick, under one
/// tenant, with a dispatch rate covering the round): every ordinal is
/// decided identically, and both services end with the same counters.
#[test]
fn both_front_doors_decide_identically() {
    let mut rng = StdRng::seed_from_u64(0x5e07);
    let mut request = |n: usize| {
        PlanRequest::new(
            random_application(&RandomAppConfig::independent(n), &mut rng),
            CommModel::Overlap,
            Objective::MinPeriod,
        )
    };
    let healthy = request(5);
    let poisoned = request(5);
    let blown = request(4);
    let distinct = |n: usize| {
        let specs: Vec<(f64, f64)> = (0..n)
            .map(|k| (1.0 + k as f64, 0.4 + 0.03 * k as f64))
            .collect();
        PlanRequest::new(
            Application::independent(&specs),
            CommModel::Overlap,
            Objective::MinPeriod,
        )
    };
    // n = 10 all-distinct prices over the reject cap; n = 8 sits in the
    // degrade band, where the 50 ms deadline decides the served value.
    let (over_budget, degrade_band) = (distinct(10), distinct(8));
    const DEGRADE_BAND: usize = 5;
    let rounds = [
        // Ordinals 0-5: dedup twins, a panicking leader, a deadline
        // blowout, an admission rejection and a degrade-band solve.
        vec![
            healthy.clone(),
            healthy.clone(),
            poisoned.clone(),
            blown,
            over_budget,
            degrade_band,
        ],
        // Ordinals 6-9: a store hit, then three twins of the quarantined
        // key — two drain its backoff, the third retries.
        vec![healthy, poisoned.clone(), poisoned.clone(), poisoned],
    ];
    let faults = |ordinal: u64| match ordinal {
        2 => Some(InjectedFault::Panic),
        3 => Some(InjectedFault::DeadlineBlowout),
        _ => None,
    };
    let service = || PlanService::new(SearchBudget::default(), 16).with_fault_injection(faults);
    let batch_door = service();
    let async_door = Arc::new(service());
    let mut frontend = AsyncFrontend::new(
        Arc::clone(&async_door),
        FrontendConfig {
            dispatch_per_tick: rounds[0].len(),
            ..FrontendConfig::default()
        },
    );
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let mut by_batch = Vec::new();
    let mut by_ticket = Vec::new();
    for round in &rounds {
        by_batch.extend(batch_door.serve_batch(round).unwrap());
        for r in round {
            frontend.submit(0, r.clone()).unwrap();
        }
        by_ticket.extend(frontend.drain());
    }
    std::panic::set_hook(hook);
    by_ticket.sort_by_key(|completion| completion.ordinal);
    assert_eq!(by_batch.len(), by_ticket.len(), "every request resolves");
    for (ordinal, (batch, ticket)) in by_batch.iter().zip(&by_ticket).enumerate() {
        assert_eq!(ticket.ordinal, ordinal as u64);
        if ordinal == DEGRADE_BAND {
            let (
                ServeOutcome::Degraded { lower_bound: a, .. },
                ServeOutcome::Degraded { lower_bound: b, .. },
            ) = (batch, &ticket.outcome)
            else {
                panic!("the n = 8 request must degrade on both doors");
            };
            assert_eq!(a.to_bits(), b.to_bits(), "degrade-band floor");
            continue;
        }
        assert_eq!(
            decided(batch),
            decided(&ticket.outcome),
            "ordinal {ordinal}"
        );
    }
    // The script exercises what it claims to.
    let reason = |ordinal: usize| by_batch[ordinal].rejection().map(|r| r.reason.clone());
    assert_eq!(by_batch[1].expect_exact().source, ServeSource::Dedup);
    assert!(matches!(reason(2), Some(RejectReason::SolverPanic { .. })));
    assert!(matches!(by_batch[3], ServeOutcome::Degraded { .. }));
    let rejection = by_batch[4].rejection().expect("n = 10 is over budget");
    assert_eq!(rejection.reason, RejectReason::AdmissionCost);
    assert!(rejection
        .estimate
        .as_ref()
        .and_then(|e| e.value_floor)
        .is_some());
    assert_eq!(by_batch[6].expect_exact().source, ServeSource::Store);
    for ordinal in [7, 8] {
        assert_eq!(
            reason(ordinal),
            Some(RejectReason::Quarantined { permanent: false })
        );
    }
    assert_eq!(by_batch[9].expect_exact().source, ServeSource::Cold);
    // One counter source: the batch door counts what the async door does.
    assert_eq!(batch_door.stats(), async_door.stats());
    assert_eq!(batch_door.stats().recovered, 1);
}
