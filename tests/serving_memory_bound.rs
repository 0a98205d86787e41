//! The plans a serving tier holds stay within their per-plan bound.
//!
//! The window reads the process-wide live-byte count of the std-only
//! counting global allocator of `common/mod.rs`, because the plans it
//! measures are made on the service's worker thread.  The test is alone in
//! its binary, so no other test, and no test harness bookkeeping for one,
//! allocates while the window is open.
//!
//! A served plan's bound is what the store holds for it: the shared
//! `PlanRecord` block, its packed graph, the key's one-slice fingerprint
//! and a hash-table slot.  No evaluation cache is retained for a MINPERIOD
//! solve, which never reads one.

mod common;

use std::sync::atomic::Ordering;

use fsw::core::{Application, CanonicalApplication, CommModel};
use fsw::sched::orchestrator::{Objective, SearchBudget};
use fsw::serve::{
    permutation_collapse_allowed, PlanKey, PlanRecord, PlanRequest, PlanService, ServeSource,
};

use common::{allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Allowance for what the service holds whatever the number of plans,
/// such as the store table's trailing group of control bytes (16 bytes
/// measured).
const SERVICE_ALLOWANCE: usize = 1 << 10;

/// Bytes a served six-service forest plan may hold in the store: the `Arc`
/// block (two counts and the `PlanRecord`: the key, the recency word and
/// the held plan), the packed graph (`n`, then two labels an edge, one
/// byte each below 128), the key's fingerprint (one word slice: a header
/// word, then two `u64` words a service) and a hash-table slot (the
/// record's pointer and a control byte), counted twice for the table's
/// spare capacity.  That is 221 bytes, which a table holding the 24-byte
/// key and a 16-byte entry in every slot (253 bytes, 255 measured) exceeds
/// by more than the allowance.
fn served_plan_bound() -> usize {
    let (n, m) = (6, 5);
    let slot = 8 + 1;
    16 + std::mem::size_of::<PlanRecord>() + (1 + 2 * m) + 8 * (1 + 2 * n) + 2 * slot
}

#[test]
fn a_serving_tier_holds_each_plan_within_its_bound() {
    const PLANS: usize = 64;
    let budget = SearchBudget {
        threads: 1,
        ..SearchBudget::default()
    };
    let requests: Vec<PlanRequest> = (0..PLANS)
        .map(|k| {
            let specs: Vec<(f64, f64)> = (0..6)
                .map(|s| (1.0 + 0.25 * (k * 6 + s) as f64, 0.3 + 0.1 * s as f64))
                .collect();
            PlanRequest::new(
                Application::independent(&specs),
                CommModel::Overlap,
                Objective::MinPeriod,
            )
        })
        .collect();
    let keys: Vec<PlanKey> = requests
        .iter()
        .map(|r| {
            let collapse = permutation_collapse_allowed(&r.app, r.model, r.objective, &budget);
            PlanKey {
                fingerprint: CanonicalApplication::with_collapse(&r.app, collapse).fingerprint,
                model: r.model,
                objective: r.objective,
            }
        })
        .collect();
    let service = PlanService::new(budget, 256);
    let base = ALLOC.live.load(Ordering::Relaxed);
    for request in &requests {
        let cold = service.serve_one(request).unwrap();
        assert_eq!(cold.expect_exact().source, ServeSource::Cold);
        assert_eq!(
            service.eval_cache_stats(request),
            None,
            "an OVERLAP MINPERIOD solve retains no evaluation cache"
        );
    }
    for request in &requests {
        let hit = service.serve_one(request).unwrap();
        assert_eq!(hit.expect_exact().source, ServeSource::Store);
    }
    let held = ALLOC.live.load(Ordering::Relaxed) - base;
    let (lookups, hit) = allocations(|| service.store().get(&keys[0]));
    assert!(hit.is_some());
    assert_eq!(lookups, 0, "a store hit copies no plan");
    let bound = PLANS * served_plan_bound() + SERVICE_ALLOWANCE;
    println!(
        "{PLANS} served plans hold {held} bytes, {} a plan (bound {} a plan)",
        held / PLANS,
        served_plan_bound()
    );
    assert!(
        held <= bound,
        "{PLANS} served plans hold {held} bytes, over {bound}"
    );
}
