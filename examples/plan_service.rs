//! The serving layer end to end: a fleet of tenants hits the multi-tenant
//! planning service, and the console shows where every answer came from.
//!
//! Five acts:
//!
//! 1. **Batch serving** — twelve tenants (four templates, deployed as
//!    rotated permutations of each other) send one MINPERIOD request each
//!    in a single batch.  The canonical fingerprint collapses the fleet to
//!    four cold solves; everyone else is deduplicated in flight.
//! 2. **Steady state** — the same fleet asks again: the plan store answers
//!    every request without touching a solver.
//! 3. **Online re-planning** — one tenant's service set mutates (an
//!    arrival, a reweight, a departure).  Each re-plan warm-starts from
//!    the adapted previous plan and reports value, churn and how many
//!    candidates the warm start skipped versus a cold solve.
//! 4. **Overload** — a 24-service all-distinct tenant is priced at
//!    admission and rejected without touching the solve pool.
//! 5. **Async burst** — the fleet plus one misbehaving tenant hit the
//!    non-blocking ticket API of the event-loop front end; the bounded
//!    per-tenant queue sheds the excess at ingress and every ticket still
//!    resolves.
//!
//! Run with: `cargo run --release --example plan_service`

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw::core::{Application, CommModel};
use fsw::sched::engine::EvalCache;
use fsw::sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};
use fsw::serve::{
    AsyncFrontend, FrontendConfig, PlanRequest, PlanService, ServeOutcome, ServeSource,
    TenantEvent, TenantSession,
};
use fsw::workloads::streaming::{serving_trace, TraceConfig};

fn source_tag(source: ServeSource) -> &'static str {
    match source {
        ServeSource::Cold => "cold ",
        ServeSource::Store => "store",
        ServeSource::Dedup => "dedup",
    }
}

fn main() {
    let budget = SearchBudget::default();
    let mut rng = StdRng::seed_from_u64(2009);
    // Twelve tenants from four templates (admissions only, no steady phase).
    let tenants: Vec<Application> = serving_trace(
        &TraceConfig {
            tenants: 12,
            steps: 0,
            templates: 4,
            services_per_tenant: 6,
            mutation_rate: 0.0,
            ..TraceConfig::default()
        },
        &mut rng,
    )
    .admitted_apps();
    let service = PlanService::new(budget, 64);
    let batch: Vec<PlanRequest> = tenants
        .iter()
        .map(|app| PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod))
        .collect();

    println!("act 1 — cold batch: 12 tenants, 4 templates, one request each");
    let started = Instant::now();
    let outcomes = service.serve_batch(&batch).expect("valid tenants");
    let cold_ms = started.elapsed().as_secs_f64() * 1e3;
    let responses: Vec<_> = outcomes.iter().map(|o| o.expect_exact()).collect();
    // Tenants sharing a canonical fingerprint share a number.
    let mut fingerprints = Vec::new();
    for (i, r) in responses.iter().enumerate() {
        let fingerprint = fsw::core::CanonicalApplication::of(&tenants[i]).fingerprint;
        let number = fingerprints
            .iter()
            .position(|f| *f == fingerprint)
            .unwrap_or_else(|| {
                fingerprints.push(fingerprint);
                fingerprints.len() - 1
            });
        println!(
            "  tenant-{i:02} [{}] period {:>8.4}  (fingerprint #{number})",
            source_tag(r.source),
            r.value,
        );
    }
    let stats = service.stats();
    println!(
        "  => {} cold solves, {} dedup hits in {cold_ms:.1} ms\n",
        stats.dispatches, stats.dedup_joins
    );

    println!("act 2 — steady state: the same fleet asks again");
    let started = Instant::now();
    let repeat = service.serve_batch(&batch).expect("valid tenants");
    let warm_ms = started.elapsed().as_secs_f64() * 1e3;
    let all_store = repeat
        .iter()
        .all(|r| r.expect_exact().source == ServeSource::Store);
    println!(
        "  => {}/{} served from the store in {warm_ms:.2} ms (all-store: {all_store})\n",
        repeat
            .iter()
            .filter(|r| r.expect_exact().source == ServeSource::Store)
            .count(),
        repeat.len(),
    );

    println!("act 3 — online re-planning: tenant-00's service set evolves");
    let mut session = TenantSession::new(
        tenants[0].clone(),
        CommModel::Overlap,
        Objective::MinPeriod,
        budget,
    )
    .expect("unconstrained tenant");
    session
        .adopt(responses[0].graph.clone())
        .expect("fresh response matches the session");
    for event in [
        TenantEvent::Arrive {
            cost: 2.0,
            selectivity: 0.6,
        },
        TenantEvent::Reweight {
            service: 2,
            cost: 4.0,
            selectivity: 0.5,
        },
        TenantEvent::Depart { service: 4 },
    ] {
        session.apply(event).expect("valid mutation");
        let outcome = session.replan().expect("replan");
        // A cold shadow solve for the evaluation comparison.
        let cache = EvalCache::new(session.app());
        let (_, cold_stats) = solve_warm_observed(
            &Problem::new(session.app(), CommModel::Overlap, Objective::MinPeriod),
            &budget,
            &cache,
            None,
            None,
        )
        .expect("cold shadow");
        println!(
            "  {event:?}\n    -> period {:>8.4}, churn {}, warm start priced at {:?}: \
             {} candidates evaluated vs {} cold ({}% saved)",
            outcome.value,
            outcome.churn,
            outcome.warm_value.map(|v| (v * 1e4).round() / 1e4),
            outcome.evaluated,
            cold_stats.evaluated,
            (100 * (cold_stats.evaluated - outcome.evaluated))
                .checked_div(cold_stats.evaluated)
                .unwrap_or(0),
        );
    }
    let (replans, total_churn) = session.stability();
    println!("  => {replans} re-plans, total churn {total_churn}");

    println!("\nact 4 — overload: a 24-service all-distinct tenant walks in");
    let jumbo_specs: Vec<(f64, f64)> = (0..24)
        .map(|k| (1.0 + k as f64, 0.3 + 0.02 * k as f64))
        .collect();
    let jumbo = PlanRequest::new(
        Application::independent(&jumbo_specs),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    let started = Instant::now();
    let verdict = service.serve_one(&jumbo).expect("valid application");
    let reject_ms = started.elapsed().as_secs_f64() * 1e3;
    match verdict {
        ServeOutcome::Rejected(rejection) => {
            let estimate = rejection.estimate.expect("admission rejections price");
            println!(
                "  => rejected in {reject_ms:.2} ms: {:.2e} candidate evaluations \
                 estimated (threshold {:.2e}) — the solve pool was never touched",
                estimate.cost as f64,
                service.admission().reject_cost as f64,
            );
        }
        other => println!("  => unexpected outcome: {other:?}"),
    }

    println!("\nact 5 — async burst: the fleet hits the non-blocking ticket API");
    let frontend_service = Arc::new(PlanService::new(budget, 64));
    let mut frontend = AsyncFrontend::new(
        Arc::clone(&frontend_service),
        FrontendConfig {
            queue_capacity: 8,
            dispatch_per_tick: 4,
            ..FrontendConfig::default()
        },
    );
    // Every tenant submits once, then tenant-00 misbehaves and floods its
    // bounded ingress queue with 24 duplicates.  `submit` never blocks —
    // each call returns a ticket immediately; the overflow is resolved as
    // a QueueFull rejection instead of stalling the caller.
    let started = Instant::now();
    let mut tickets = Vec::new();
    for (tenant, request) in batch.iter().cloned().enumerate() {
        tickets.push(frontend.submit(tenant, request).expect("valid tenants"));
    }
    for _ in 0..24 {
        tickets.push(frontend.submit(0, batch[0].clone()).expect("valid tenant"));
    }
    let submit_ms = started.elapsed().as_secs_f64() * 1e3;
    println!(
        "  {} tickets issued in {submit_ms:.2} ms without blocking",
        tickets.len()
    );
    let completions = frontend.drain();
    let served = completions
        .iter()
        .filter(|c| c.outcome.response().is_some())
        .count();
    let stats = frontend.stats();
    println!(
        "  => {} tickets resolved over {} ticks: {} served, {} shed at the \
         full queue (per-tenant bound {}, peak occupancy {})",
        completions.len(),
        frontend.now(),
        served,
        stats.queue_full_sheds,
        8,
        stats.peak_tenant_queue,
    );
    assert_eq!(completions.len(), tickets.len(), "every ticket resolves");
}
