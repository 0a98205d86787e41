//! Latency of tree-shaped execution graphs (Algorithm 1 / Proposition 12).
//!
//! When the execution graph is an out-tree (every service has at most one
//! direct predecessor and a single entry node), the optimal one-port latency
//! can be computed in `O(n log n)`: at every node, the children's subtrees
//! must be fed by decreasing residual latency.  For tree-shaped graphs all
//! three communication models are equivalent with respect to the latency
//! (one-port emissions dominate — Proposition 12), so the value returned here
//! is the model-independent optimum.

use fsw_core::{Application, CoreError, CoreResult, EdgeRef, ExecutionGraph, ServiceId};

use crate::orderings::CommOrderings;

/// Optimal latency of a tree (or forest) execution graph.
///
/// For a forest the latency is the maximum over its trees (each tree receives
/// its own input data set and produces its own outputs concurrently).
/// Fails with [`CoreError::NotAForest`] if some service has several direct
/// predecessors.
pub fn tree_latency(app: &Application, graph: &ExecutionGraph) -> CoreResult<f64> {
    if !graph.is_forest() {
        return Err(CoreError::NotAForest);
    }
    let mut best = 0.0f64;
    for root in graph.entry_nodes() {
        // The root's incoming data set has size δ0 = 1.
        best = best.max(subtree_latency(app, graph, root));
    }
    Ok(best)
}

/// Optimal latency of the subtree rooted at `node`, *normalised to an incoming
/// data size of 1*: the duration from the instant the incoming communication
/// into `node` starts until every operation of the subtree (including the
/// final output transfers of its exit nodes) completes.
fn subtree_latency(app: &Application, graph: &ExecutionGraph, node: ServiceId) -> f64 {
    let sigma = app.selectivity(node);
    let children = graph.succs(node);
    if children.is_empty() {
        // Receive (1), compute, send the result to the outside world.
        return 1.0 + app.cost(node) + sigma;
    }
    // Feed the children by non-increasing residual latency: the child fed in
    // p-th position (0-indexed) starts receiving after the p earlier emissions
    // of length σ, and then needs σ·L(child) to finish (L(child) includes its
    // own incoming transfer).
    let mut subs: Vec<f64> = children
        .iter()
        .map(|&c| subtree_latency(app, graph, c as usize))
        .collect();
    subs.sort_by(|a, b| b.partial_cmp(a).expect("finite latencies"));
    let tail = subs
        .iter()
        .enumerate()
        .map(|(p, l)| p as f64 + l)
        .fold(0.0f64, f64::max);
    1.0 + app.cost(node) + sigma * tail
}

/// The communication orderings realising [`tree_latency`]: every node emits
/// towards its children by non-increasing subtree latency (receptions have no
/// freedom on a tree).
pub fn tree_latency_orderings(
    app: &Application,
    graph: &ExecutionGraph,
) -> CoreResult<CommOrderings> {
    if !graph.is_forest() {
        return Err(CoreError::NotAForest);
    }
    let mut ords = CommOrderings::natural(graph);
    for k in 0..graph.n() {
        let succs = graph.succs(k);
        if succs.len() > 1 {
            let mut order: Vec<(f64, ServiceId)> = succs
                .iter()
                .map(|&c| (subtree_latency(app, graph, c as usize), c as usize))
                .collect();
            order.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite latencies"));
            ords.outgoing[k] = order
                .into_iter()
                .map(|(_, c)| EdgeRef::Link(k, c))
                .collect();
        }
    }
    Ok(ords)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::latency::{oneport_latency_for_orderings, oneport_latency_search};

    #[test]
    fn single_node_tree() {
        let app = Application::independent(&[(3.0, 0.5)]);
        let g = ExecutionGraph::new(1);
        // receive 1, compute 3, send 0.5
        assert_eq!(tree_latency(&app, &g).unwrap(), 4.5);
    }

    #[test]
    fn chain_tree_latency() {
        let app = Application::independent(&[(2.0, 0.5), (3.0, 1.0)]);
        let g = ExecutionGraph::chain_of(2, &[0, 1]).unwrap();
        // 1 + 2 + 0.5*(1 + 3 + 1) = 5.5
        assert_eq!(tree_latency(&app, &g).unwrap(), 5.5);
    }

    #[test]
    fn star_feeds_longest_child_first() {
        let app = Application::independent(&[(1.0, 1.0), (9.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        // Same instance as the latency-module test: optimum 13.
        assert_eq!(tree_latency(&app, &g).unwrap(), 13.0);
        // The ordering extracted from the algorithm achieves exactly that value.
        let ords = tree_latency_orderings(&app, &g).unwrap();
        let (lat, _) = oneport_latency_for_orderings(&app, &g, &ords).unwrap();
        assert!((lat - 13.0).abs() < 1e-9);
    }

    #[test]
    fn forest_latency_is_max_over_trees() {
        let app = Application::independent(&[(1.0, 1.0), (5.0, 1.0), (2.0, 1.0)]);
        let g = ExecutionGraph::from_edges(3, &[(0, 2)]).unwrap();
        // Tree {0 -> 2}: 1 + 1 + 1*(1 + 2 + 1) = 6 ; tree {1}: 1 + 5 + 1 = 7.
        assert_eq!(tree_latency(&app, &g).unwrap(), 7.0);
    }

    #[test]
    fn non_forest_rejected() {
        let app = Application::independent(&[(1.0, 1.0); 3]);
        let g = ExecutionGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        assert!(matches!(tree_latency(&app, &g), Err(CoreError::NotAForest)));
    }

    #[test]
    fn algorithm_matches_exhaustive_search_on_random_trees() {
        // Deterministic pseudo-random trees; the greedy tree algorithm must
        // match the exhaustive ordering search (Proposition 12).
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = move |m: usize| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 33) as usize % m
        };
        for trial in 0..20 {
            let n = 3 + next(4); // 3..=6 services
            let mut parents: Vec<Option<usize>> = vec![None];
            for k in 1..n {
                parents.push(Some(next(k)));
            }
            let g = ExecutionGraph::from_parents(&parents).unwrap();
            let specs: Vec<(f64, f64)> = (0..n)
                .map(|_| {
                    let cost = 1.0 + next(5) as f64;
                    let sel = [0.5, 1.0, 2.0][next(3)];
                    (cost, sel)
                })
                .collect();
            let app = Application::independent(&specs);
            let algo = tree_latency(&app, &g).unwrap();
            let search = oneport_latency_search(&app, &g, 50_000).unwrap();
            assert!(search.exhaustive, "trial {trial}: search space too large");
            assert!(
                (algo - search.latency).abs() < 1e-9,
                "trial {trial}: algorithm {algo} vs exhaustive {}",
                search.latency
            );
        }
    }
}
