//! The no-communication baseline of Srivastava et al.
//!
//! The paper's starting point ([1, 2] in its bibliography) ignores
//! communication costs altogether: the period of a plan is
//! `max_k Π_{j ∈ Ancest_k} σ_j · c_k` and the latency is the longest path of
//! computation costs.  With homogeneous servers MINPERIOD is then polynomial:
//! all the filters (σ ≤ 1) are chained (a greedy exchange order is optimal)
//! and every expander (σ > 1) is attached directly after the last filter, so
//! that it benefits from the full filtering but adds no selectivity to anyone
//! else.  Counter-example B.1 of the paper (experiment E2) shows this optimal
//! structure can be a factor-2 loss once communication costs are modelled.

use fsw_core::{Application, CoreError, CoreResult, ExecutionGraph, PlanMetrics, ServiceId};

/// Period of an execution graph when communications are free
/// (`max_k Ccomp(k)`).
pub fn nocomm_period(app: &Application, graph: &ExecutionGraph) -> CoreResult<f64> {
    let metrics = PlanMetrics::compute(app, graph)?;
    Ok((0..graph.n())
        .map(|k| metrics.c_comp(k))
        .fold(0.0, f64::max))
}

/// Latency of an execution graph when communications are free: the longest
/// path of computation costs from an entry node to an exit node.
pub fn nocomm_latency(app: &Application, graph: &ExecutionGraph) -> CoreResult<f64> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let order = graph.topological_order()?;
    let mut done = vec![0.0f64; graph.n()];
    let mut best = 0.0f64;
    for &k in &order {
        let ready = graph
            .preds(k)
            .iter()
            .map(|&p| done[p as usize])
            .fold(0.0f64, f64::max);
        done[k] = ready + metrics.c_comp(k);
        best = best.max(done[k]);
    }
    Ok(best)
}

/// The optimal MINPERIOD plan when communication costs are ignored
/// (only valid for applications without precedence constraints).
///
/// Structure: a chain of all the filters (σ ≤ 1) ordered by the greedy
/// exchange rule `max(c_i, σ_i c_j) ≤ max(c_j, σ_j c_i)`, followed by every
/// expander attached as a direct successor of the last filter.
pub fn nocomm_minperiod_plan(app: &Application) -> CoreResult<ExecutionGraph> {
    if app.has_constraints() {
        return Err(CoreError::NotAChain);
    }
    let mut filters: Vec<ServiceId> = (0..app.n())
        .filter(|&k| app.selectivity(k) <= 1.0)
        .collect();
    let expanders: Vec<ServiceId> = (0..app.n()).filter(|&k| app.selectivity(k) > 1.0).collect();
    // Exchange rule specialised to the no-communication case (weight = c_k):
    // filters by non-decreasing cost "normalised" by how much they filter.
    filters.sort_by(|&a, &b| {
        let left = app.cost(a).max(app.selectivity(a) * app.cost(b));
        let right = app.cost(b).max(app.selectivity(b) * app.cost(a));
        left.partial_cmp(&right).expect("finite costs")
    });
    let mut graph = ExecutionGraph::new(app.n());
    for w in filters.windows(2) {
        graph.add_edge(w[0], w[1])?;
    }
    if let Some(&last) = filters.last() {
        for &e in &expanders {
            graph.add_edge(last, e)?;
        }
    }
    Ok(graph)
}

/// Optimal no-communication period over all plans (the value achieved by
/// [`nocomm_minperiod_plan`]); provided for convenience in experiments.
pub fn nocomm_optimal_period(app: &Application) -> CoreResult<f64> {
    let graph = nocomm_minperiod_plan(app)?;
    nocomm_period(app, &graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::CommModel;

    #[test]
    fn nocomm_period_and_latency_of_a_chain() {
        let app = Application::independent(&[(2.0, 0.5), (4.0, 1.0)]);
        let g = ExecutionGraph::chain_of(2, &[0, 1]).unwrap();
        assert_eq!(nocomm_period(&app, &g).unwrap(), 2.0);
        assert_eq!(nocomm_latency(&app, &g).unwrap(), 4.0);
    }

    #[test]
    fn filters_chain_before_expanders() {
        let app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (3.0, 2.0), (4.0, 3.0)]);
        let g = nocomm_minperiod_plan(&app).unwrap();
        assert!(g.is_forest());
        // Both expanders hang off the last filter; they are not chained together.
        assert_eq!(g.preds(2), g.preds(3));
        assert!(g.succs(2).is_empty() && g.succs(3).is_empty());
        // Filters benefit every expander: period = max(1, 0.5*2, 0.25*3, 0.25*4) = 1.
        assert_eq!(nocomm_period(&app, &g).unwrap(), 1.0);
    }

    #[test]
    fn exhaustive_check_on_small_instances() {
        // The greedy no-communication plan matches exhaustive search over
        // forests for small instances.
        let apps = [
            Application::independent(&[(1.0, 0.9), (2.0, 0.3), (5.0, 1.5)]),
            Application::independent(&[(4.0, 0.5), (1.0, 0.5), (2.0, 2.0), (3.0, 0.7)]),
            Application::independent(&[(1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]),
        ];
        for app in apps {
            let greedy = nocomm_optimal_period(&app).unwrap();
            let exhaustive = crate::minperiod::exhaustive_forest_best(&app, |g| {
                nocomm_period(&app, g).unwrap_or(f64::INFINITY)
            })
            .unwrap()
            .0;
            assert!(
                greedy <= exhaustive + 1e-9,
                "greedy {greedy} vs exhaustive {exhaustive}"
            );
        }
    }

    #[test]
    fn counterexample_b1_structure_degrades_with_communication() {
        // A miniature version of counter-example B.1: two cheap filters with
        // selectivity close to 1 and several expensive services.  Without
        // communication the optimal plan chains the filters in front of
        // everything; with communication the fan-out of the second filter
        // makes its outgoing volume the bottleneck.
        let mut specs = vec![(10.0, 0.99), (10.0, 0.99)];
        for _ in 0..20 {
            specs.push((10.0 / 0.99, 10.0));
        }
        let app = Application::independent(&specs);
        let nocomm_plan = nocomm_minperiod_plan(&app).unwrap();
        let nocomm = nocomm_period(&app, &nocomm_plan).unwrap();
        let metrics = PlanMetrics::compute(&app, &nocomm_plan).unwrap();
        let with_comm = metrics.period_lower_bound(CommModel::Overlap);
        assert!(with_comm > 1.9 * nocomm, "{with_comm} vs {nocomm}");
    }
}
