//! A burst shed at a full ingress queue holds a constant number of bytes
//! until the next tick hands its completions over, whatever its size, and
//! a tick with nothing to hand over allocates nothing.
//!
//! The window reads the process-wide live-byte count of the std-only
//! counting global allocator of `common/mod.rs`.  The test is alone in its
//! binary, so no other test, and no test harness bookkeeping for one,
//! allocates while the window is open.

mod common;

use std::sync::atomic::Ordering;
use std::sync::Arc;

use fsw::core::{Application, CommModel};
use fsw::sched::orchestrator::{Objective, SearchBudget};
use fsw::serve::{AsyncFrontend, FrontendConfig, PlanRequest, PlanService, RejectReason};

use common::{allocations, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc::new();

/// Bytes a burst may hold between its last submit and the next tick: the
/// queued requests with their applications and map nodes, the tenant's
/// backlog count and the runs its sheds wait in.  None of it grows with
/// the number of sheds, which a completion record per shed (96 bytes or
/// more, in a vector with doubling slack) would exceed within 43 sheds.
const HELD_BOUND: usize = 4 << 10;

#[test]
fn a_shed_burst_holds_constant_bytes_until_the_tick() {
    const QUEUE: usize = 4;
    let request = PlanRequest::new(
        Application::independent(&[(1.0, 0.5), (2.0, 0.25)]),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    for burst in [256, 4096] {
        let service = Arc::new(PlanService::new(SearchBudget::default(), 16));
        let config = FrontendConfig {
            queue_capacity: QUEUE,
            ..FrontendConfig::default()
        };
        let mut frontend = AsyncFrontend::new(Arc::clone(&service), config);
        let base = ALLOC.live.load(Ordering::Relaxed);
        for _ in 0..burst {
            frontend.submit(0, request.clone()).unwrap();
        }
        let held = ALLOC.live.load(Ordering::Relaxed).saturating_sub(base);
        println!("a burst of {burst} into a queue of {QUEUE} holds {held} bytes");
        assert_eq!(frontend.stats().queue_full_sheds, burst - QUEUE);
        assert!(
            held <= HELD_BOUND,
            "a burst of {burst} holds {held} bytes before the tick, over {HELD_BOUND}"
        );
        let batch = frontend.tick();
        assert_eq!(batch.len(), batch.capacity(), "the batch has no slack");
        let shed = batch
            .iter()
            .take_while(|c| {
                c.outcome.rejection().map(|r| &r.reason) == Some(&RejectReason::QueueFull)
            })
            .count();
        assert_eq!(shed, burst - QUEUE, "the sheds come first");
        assert_eq!(frontend.drain().len() + batch.len(), burst);
        let (allocs, idle) = allocations(|| frontend.tick());
        assert!(idle.is_empty());
        assert_eq!(allocs, 0, "an idle tick allocates nothing");
    }
}
