//! Benchmarks for the MINLATENCY solvers (experiments E7 and E10):
//! exhaustive forest enumeration vs local search vs the Proposition 16 chain.

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw_core::CommModel;
use fsw_sched::chain::{chain_latency, chain_minlatency_order};
use fsw_sched::minlatency::{minimize_latency, minlatency_local_search};
use fsw_sched::orchestrator::SearchBudget;
use fsw_workloads::query_optimization;

fn bench_minlatency(c: &mut Criterion) {
    let mut group = c.benchmark_group("minlatency");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));

    let budget = SearchBudget::default();
    let mut rng = StdRng::seed_from_u64(2);
    for n in [4usize, 5, 6] {
        let app = query_optimization(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("exhaustive_forests", n), &n, |b, _| {
            b.iter(|| minimize_latency(&app, CommModel::Overlap, &budget).unwrap())
        });
    }
    for n in [6usize, 10, 14] {
        let app = query_optimization(n, &mut rng);
        group.bench_with_input(BenchmarkId::new("local_search", n), &n, |b, _| {
            b.iter(|| minlatency_local_search(&app, CommModel::Overlap, &budget).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("prop16_chain", n), &n, |b, _| {
            b.iter(|| {
                let order = chain_minlatency_order(&app).unwrap();
                chain_latency(&app, &order)
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_minlatency);
criterion_main!(benches);
