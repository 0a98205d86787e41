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
//!   same script decides every request identically through both;
//! * admission and the permutation-collapse gate read the plan search's
//!   own scope: a request is admitted, and permuted tenants share its
//!   solve, exactly where the forest walk covers its space.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{forest_classes, Application, CommModel};
use fsw::sched::minperiod::minimize_period;
use fsw::sched::orchestrator::{solve, Objective, Problem, SearchBudget};
use fsw::serve::{
    permutation_collapse_allowed, AdmissionDecision, AdmissionPolicy, AsyncFrontend, CostEstimate,
    FrontendConfig, InjectedFault, PlanRequest, PlanService, PlanStore, RejectReason, Rejection,
    ServeOutcome, ServeSource, StoredPlan, TenantEvent, TenantSession,
};
use fsw::sim::{replay_trace, RequestPath, ServeReplayConfig};
use fsw::workloads::streaming::{serving_trace, TraceConfig};
use fsw::workloads::{
    query_optimization, random_application, tiered_query_optimization, uniform_query_optimization,
    RandomAppConfig,
};

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

/// Above `dag_enumeration_max_n` services a MINLATENCY solve skips the DAG
/// phase, the evaluation cache's only reader, so its dispatch retains no
/// cache and the cold serve leaves none behind; the answer is a cold
/// solve's bits.
#[test]
fn latency_solves_above_the_dag_phase_retain_no_eval_cache() {
    let mut rng = StdRng::seed_from_u64(0x5e08);
    let app = random_application(&RandomAppConfig::independent(7), &mut rng);
    let budget = SearchBudget::default();
    assert!(!budget.runs_dag_phase(app.n()));
    let service = PlanService::new(budget, 16);
    let request = PlanRequest::new(app.clone(), CommModel::InOrder, Objective::MinLatency);
    let served = service.serve_one(&request).unwrap().expect_exact().clone();
    assert_eq!(served.source, ServeSource::Cold);
    let cold = solve(
        &Problem::new(&app, CommModel::InOrder, Objective::MinLatency),
        &budget,
    )
    .unwrap();
    assert_eq!(served.value.to_bits(), cold.value.to_bits());
    assert_eq!(service.eval_cache_stats(&request), None);
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

/// A store hit decodes the held plan's packed graph into the same DAG the
/// cold solve served, joins included: a five-service MINLATENCY request
/// runs the DAG phase, and this instance's optimum joins two branches
/// twice under every model.
#[test]
fn store_hits_serve_the_cold_dag_winner_with_its_joins() {
    let app = fsw::workloads::query_optimization(5, &mut StdRng::seed_from_u64(1));
    let budget = SearchBudget::default();
    assert!(budget.runs_dag_phase(app.n()));
    for model in CommModel::ALL {
        let service = PlanService::new(budget, 8);
        let request = PlanRequest::new(app.clone(), model, Objective::MinLatency);
        let cold_outcome = service.serve_one(&request).unwrap();
        let cold = cold_outcome.expect_exact();
        assert_eq!(cold.source, ServeSource::Cold);
        let joins = (0..app.n())
            .filter(|&k| cold.graph.preds(k).len() >= 2)
            .count();
        assert_eq!(joins, 2, "{model}: the cold winner joins twice");
        let hit_outcome = service.serve_one(&request).unwrap();
        let hit = hit_outcome.expect_exact();
        assert_eq!(hit.source, ServeSource::Store, "{model}");
        assert_eq!(hit.graph, cold.graph, "{model}");
        assert_eq!(hit.value.to_bits(), cold.value.to_bits(), "{model}");
        let direct = solve(&Problem::new(&app, model, Objective::MinLatency), &budget).unwrap();
        assert_eq!(hit.graph, direct.graph, "{model}");
        assert_eq!(hit.value.to_bits(), direct.value.to_bits(), "{model}");
    }
}

/// Admission and the collapse gate agree with the plan search on its own
/// scope: under the default budget a MINPERIOD request is admitted exactly
/// when `minimize_period` walks its whole space, and permuted tenants
/// collapse onto one fingerprint exactly then.  The sweep covers spaces
/// the walk reduces to shapes whatever their coloured orbit count (tiered
/// and one-duplicate instances, up to 10^10 orbits), uniform ones, and
/// labelled ones on both sides of the cap.  `exhaustive` is read from the
/// plan search, not from `solve`, whose INORDER ordering search has a cap
/// of its own.
#[test]
fn admission_and_the_collapse_gate_admit_exactly_what_the_walk_covers() {
    let mut rng = StdRng::seed_from_u64(0x5e08);
    let budget = SearchBudget::default();
    let policy = AdmissionPolicy::for_budget(&budget);
    let mut apps = Vec::new();
    for sizes in [
        vec![4, 4],
        vec![3, 3, 3],
        vec![5, 5],
        vec![6, 5],
        vec![6, 6],
        vec![7, 6],
        vec![2; 6],
        vec![3; 4],
    ] {
        apps.push(tiered_query_optimization(&sizes, &mut rng));
    }
    for n in 9..=12 {
        // Distinct weights but one duplicate: a single class of two.
        let distinct = query_optimization(n, &mut rng);
        let mut specs: Vec<(f64, f64)> = (0..n)
            .map(|k| (distinct.cost(k), distinct.selectivity(k)))
            .collect();
        specs[n - 1] = specs[0];
        apps.push(Application::independent(&specs));
    }
    for n in [8, 13] {
        apps.push(uniform_query_optimization(n, &mut rng));
    }
    for n in [7, 8] {
        apps.push(query_optimization(n, &mut rng));
    }
    let (mut admitted, mut declined) = (0, 0);
    for app in &apps {
        let n = app.n();
        let searched = minimize_period(app, CommModel::Overlap, &budget).unwrap();
        let decision = policy.decide(app, CommModel::Overlap, Objective::MinPeriod, &budget);
        let admit = matches!(decision, AdmissionDecision::Admit { .. });
        assert_eq!(
            admit, searched.exhaustive,
            "n = {n}: admission {decision:?} against exhaustive {}",
            searched.exhaustive
        );
        assert_eq!(
            permutation_collapse_allowed(app, CommModel::Overlap, Objective::MinPeriod, &budget),
            searched.exhaustive,
            "n = {n}: the collapse gate"
        );
        if admit {
            admitted += 1;
        } else {
            declined += 1;
        }
    }
    // Everything but the eight-service distinct instance is covered.
    assert_eq!((admitted, declined), (apps.len() - 1, 1));
}

/// The 7 + 6 tiered application of the exact-solve benchmark is served
/// exhaustively, priced at its 32 973 shapes.
#[test]
fn a_tiered_thirteen_service_request_is_served_exactly() {
    let app = tiered_query_optimization(&[7, 6], &mut StdRng::seed_from_u64(0x5e09));
    let budget = SearchBudget::default();
    let estimate =
        AdmissionPolicy::for_budget(&budget).estimate(&app, Objective::MinPeriod, &budget);
    assert_eq!(
        estimate,
        CostEstimate {
            cost: forest_classes(13),
            exact: true,
            value_floor: None,
        }
    );
    assert_eq!(estimate.cost, 32_973);
    let service = PlanService::new(budget, 8);
    let request = PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod);
    let outcome = service.serve_one(&request).unwrap();
    let served = outcome.expect_exact();
    assert_eq!(served.source, ServeSource::Cold);
    let direct = solve(
        &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
        &budget,
    )
    .unwrap();
    assert!(direct.exhaustive);
    assert_eq!(served.value.to_bits(), direct.value.to_bits());
}

/// Two label permutations of a 6 + 5 tiered application share one solve:
/// its 4 766 shapes fit the cap, so the collapse gate keys both by one
/// fingerprint and the second joins the first's solve.
#[test]
fn permuted_tiered_tenants_share_one_exhaustive_solve() {
    let app = tiered_query_optimization(&[6, 5], &mut StdRng::seed_from_u64(0x5e0a));
    let n = app.n();
    let reversed = Application::independent(
        &(0..n)
            .rev()
            .map(|k| (app.cost(k), app.selectivity(k)))
            .collect::<Vec<_>>(),
    );
    let budget = SearchBudget::default();
    let service = PlanService::new(budget, 8);
    let tenants = [app, reversed];
    let outcomes = service
        .serve_batch(
            &tenants
                .iter()
                .map(|a| PlanRequest::new(a.clone(), CommModel::Overlap, Objective::MinPeriod))
                .collect::<Vec<_>>(),
        )
        .unwrap();
    let sources: Vec<ServeSource> = outcomes.iter().map(|o| o.expect_exact().source).collect();
    assert_eq!(sources, [ServeSource::Cold, ServeSource::Dedup]);
    for (tenant, outcome) in tenants.iter().zip(&outcomes) {
        let direct = solve(
            &Problem::new(tenant, CommModel::Overlap, Objective::MinPeriod),
            &budget,
        )
        .unwrap();
        assert!(direct.exhaustive);
        assert_eq!(
            outcome.expect_exact().value.to_bits(),
            direct.value.to_bits()
        );
    }
    assert_eq!(service.stats().dispatches, 1);
}

/// A DAG limit above the DAG phase's hard cap prices no stand-in for a
/// phase that never runs: a uniform twelve-service MINLATENCY request is a
/// forest walk over 12 486 shapes, admitted and served exactly.
#[test]
fn a_dag_limit_above_the_hard_cap_serves_the_forest_walk() {
    let budget = SearchBudget {
        dag_enumeration_max_n: 12,
        ..SearchBudget::default()
    };
    assert!(!budget.runs_dag_phase(12));
    let app = uniform_query_optimization(12, &mut StdRng::seed_from_u64(0x5e0b));
    let decision = AdmissionPolicy::for_budget(&budget).decide(
        &app,
        CommModel::Overlap,
        Objective::MinLatency,
        &budget,
    );
    assert_eq!(
        decision,
        AdmissionDecision::Admit {
            estimate: CostEstimate {
                cost: forest_classes(12),
                exact: true,
                value_floor: None,
            }
        }
    );
    let service = PlanService::new(budget, 8);
    let request = PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinLatency);
    let outcome = service.serve_one(&request).unwrap();
    let served = outcome.expect_exact();
    let direct = solve(
        &Problem::new(&app, CommModel::Overlap, Objective::MinLatency),
        &budget,
    )
    .unwrap();
    assert!(direct.exhaustive);
    assert_eq!(served.value.to_bits(), direct.value.to_bits());
}
