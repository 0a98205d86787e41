//! The E11 `sensor_fusion` scenario, end to end: several sensor denoising
//! filters feed a fusing expander whose output drives an anomaly-detection
//! branch and an archival-compaction branch.
//!
//! The example sweeps tuned instance sizes through the batch entry point
//! `fsw::sched::orchestrator::solve_all` — every communication model ×
//! objective of one instance shares a single candidate-evaluation cache —
//! and finishes with a direct look at that cache's canonical-signature
//! memoisation on a uniform application, where isomorphic candidate plans
//! collapse to one ordering search per equivalence class.
//!
//! Run with: `cargo run --release --example sensor_fusion`

use fsw::core::CommModel;
use fsw::sched::engine::EvalCache;
use fsw::sched::orchestrator::{solve_all, Objective, SearchBudget};
use fsw::workloads::sensor_fusion;

fn main() {
    // The whole sweep shares one budget; `dag_enumeration_max_n` trades
    // exhaustiveness of the MINLATENCY DAG phase against time.
    let budget = SearchBudget {
        dag_enumeration_max_n: 5,
        ..SearchBudget::default()
    };
    let requests: Vec<(CommModel, Objective)> = CommModel::ALL
        .into_iter()
        .flat_map(|model| {
            [Objective::MinPeriod, Objective::MinLatency]
                .into_iter()
                .map(move |objective| (model, objective))
        })
        .collect();

    for sensors in [2, 3, 4] {
        let app = sensor_fusion(sensors);
        println!(
            "== sensor-fusion({sensors}) — {} services, {} precedence constraints ==",
            app.n(),
            app.constraints().len()
        );
        let solutions = solve_all(&app, &requests, &budget).expect("well-formed scenario instance");
        for ((model, objective), solution) in requests.iter().zip(&solutions) {
            println!(
                "  {model:<8} {objective:<10} : {:>8.4}  (lower bound {:>8.4}, {} edges{})",
                solution.value,
                solution.lower_bound,
                solution.graph.edge_count(),
                if solution.exhaustive {
                    ""
                } else {
                    ", heuristic"
                },
            );
        }
        println!();
    }

    // The memoisation at work: on a uniform application (every service with
    // the cost and selectivity of a sensor pre-filter) the cache merges
    // isomorphic candidate plans, so relabelled variants of one shape share
    // a single exhaustive ordering search.
    let uniform = fsw::core::Application::independent(&[(0.5, 0.4); 4]);
    let cache = EvalCache::new(&uniform);
    let chain_a = fsw::core::ExecutionGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
    let chain_b = fsw::core::ExecutionGraph::from_edges(4, &[(3, 2), (2, 1)]).unwrap();
    let mut searches = 0usize;
    for graph in [&chain_a, &chain_b] {
        cache.get_or_compute_exact(graph, true, || {
            searches += 1;
            fsw::sched::latency::oneport_latency_search(&uniform, graph, 1_000)
                .expect("tiny graph")
                .latency
        });
    }
    let (hits, misses) = cache.stats();
    println!(
        "two isomorphic chains over a uniform application: {searches} ordering \
         search(es) run (cache hits {hits}, misses {misses})"
    );
}
