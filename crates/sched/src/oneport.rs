//! Period orchestration for one-port communication models.
//!
//! Once the communication orderings of every server are fixed, the steady
//! state of a one-port cyclic schedule is a *timed event graph*:
//!
//! * under `INORDER`, all the operations of a server (receptions, computation,
//!   emissions) form a single cycle carrying one token — the server fully
//!   processes a data set before touching the next one;
//! * under the *one-port with overlap* variant used by the counter-examples of
//!   Section 3 (one-port communications, but computation and communication may
//!   overlap), each server has three independent unary resources — its
//!   incoming port, its outgoing port and its CPU — each forming its own
//!   single-token cycle, while per-data-set precedence arcs link them.
//!
//! The period achievable with a given ordering is then the maximum cycle ratio
//! of the event graph (`fsw-eventgraph`), and orchestration reduces to
//! searching over orderings — which Theorem 1 shows is NP-hard, hence the
//! exhaustive search is capped and complemented by heuristics.  The search
//! has one entry pair: [`oneport_period_search`] is the serial form, and
//! [`oneport_period_search_bounded`] takes the caller's plan metrics and
//! the executor.  Both run the enumerate-and-climb routine the latency
//! search shares ([`crate::orderings`]).

use std::collections::BTreeMap;

use fsw_core::{
    Application, CoreError, CoreResult, EdgeRef, ExecutionGraph, Interval, OperationList,
    PlanMetrics,
};
use fsw_eventgraph::TimedEventGraph;

use crate::orderings::{climb_orderings, CommOrderings, OrderingSpace};
use crate::par::Exec;

/// Which serialisation discipline the event graph should encode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OnePortStyle {
    /// The paper's `INORDER` model: the whole server is a single serial resource
    /// and data sets are processed strictly in order.
    InOrder,
    /// One-port communications with computation/communication overlap: the
    /// incoming port, the outgoing port and the CPU are three separate serial
    /// resources (used by the Section 3 counter-examples).
    OverlapPorts,
}

/// Mapping between plan operations and event-graph transitions.
struct TransitionMap {
    comm: BTreeMap<EdgeRef, usize>,
    calc: Vec<usize>,
}

/// Builds the timed event graph encoding an `INORDER` cyclic schedule with
/// the given communication orderings.
fn build_event_graph(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<(TimedEventGraph, TransitionMap)> {
    if !ords.is_consistent_with(graph) {
        return Err(CoreError::SizeMismatch {
            expected: graph.n(),
            found: ords.n(),
        });
    }
    let metrics = PlanMetrics::compute(app, graph)?;
    build_event_graph_with(app, graph, &metrics, ords, OnePortStyle::InOrder)
}

/// [`build_event_graph`] with pre-computed plan metrics and no consistency
/// check — the hot path of the exhaustive ordering search, whose candidates
/// are consistent by construction.
fn build_event_graph_with(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
    ords: &CommOrderings,
    style: OnePortStyle,
) -> CoreResult<(TimedEventGraph, TransitionMap)> {
    let mut eg = TimedEventGraph::new();
    let mut map = TransitionMap {
        comm: BTreeMap::new(),
        calc: vec![usize::MAX; graph.n()],
    };
    for edge in fsw_core::plan_edges(graph) {
        let t = eg.add_transition(metrics.edge_volume(app, edge));
        map.comm.insert(edge, t);
    }
    for k in 0..graph.n() {
        map.calc[k] = eg.add_transition(metrics.c_comp(k));
    }

    let arc = |eg: &mut TimedEventGraph, from: usize, to: usize, tokens: u32| {
        eg.add_arc(from, to, tokens)
            .expect("transitions created above");
    };

    for k in 0..graph.n() {
        let ins: Vec<usize> = ords.incoming[k].iter().map(|e| map.comm[e]).collect();
        let outs: Vec<usize> = ords.outgoing[k].iter().map(|e| map.comm[e]).collect();
        let calc = map.calc[k];
        match style {
            OnePortStyle::InOrder => {
                // One cycle: in_1 .. in_p, calc, out_1 .. out_q, back to in_1.
                let mut seq = ins.clone();
                seq.push(calc);
                seq.extend(outs.iter().copied());
                for w in seq.windows(2) {
                    arc(&mut eg, w[0], w[1], 0);
                }
                let first = *seq.first().expect("sequence contains at least calc");
                let last = *seq.last().expect("sequence contains at least calc");
                arc(&mut eg, last, first, 1);
            }
            OnePortStyle::OverlapPorts => {
                // Incoming-port cycle.
                if !ins.is_empty() {
                    for w in ins.windows(2) {
                        arc(&mut eg, w[0], w[1], 0);
                    }
                    arc(&mut eg, *ins.last().unwrap(), ins[0], 1);
                }
                // Outgoing-port cycle.
                if !outs.is_empty() {
                    for w in outs.windows(2) {
                        arc(&mut eg, w[0], w[1], 0);
                    }
                    arc(&mut eg, *outs.last().unwrap(), outs[0], 1);
                }
                // CPU cycle.
                arc(&mut eg, calc, calc, 1);
                // Per-data-set precedence: receive everything, compute, send.
                for &i in &ins {
                    arc(&mut eg, i, calc, 0);
                }
                for &o in &outs {
                    arc(&mut eg, calc, o, 0);
                }
            }
        }
    }
    Ok((eg, map))
}

/// Period achieved by a fixed communication ordering under the `INORDER` model.
pub fn inorder_period_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<f64> {
    let (eg, _) = build_event_graph(app, graph, ords)?;
    eg.min_period().map_err(|_| CoreError::CyclicGraph)
}

fn period_for_orderings_with(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
    ords: &CommOrderings,
    style: OnePortStyle,
) -> CoreResult<f64> {
    let (eg, _) = build_event_graph_with(app, graph, metrics, ords, style)?;
    eg.min_period().map_err(|_| CoreError::CyclicGraph)
}

/// Builds a concrete operation list realising the optimal period of a fixed
/// ordering under the `INORDER` model.
pub fn inorder_oplist_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<OperationList> {
    let (eg, map) = build_event_graph(app, graph, ords)?;
    let period = eg.min_period().map_err(|_| CoreError::CyclicGraph)?;
    // Guard against degenerate zero-work plans.
    let period = if period > 0.0 { period } else { 1.0 };
    let starts = eg
        .earliest_schedule(period * (1.0 + 1e-12))
        .or_else(|| eg.earliest_schedule(period * (1.0 + 1e-9)))
        .ok_or(CoreError::CyclicGraph)?;
    let metrics = PlanMetrics::compute(app, graph)?;
    let mut oplist = OperationList::new(graph.n(), period);
    for (edge, &t) in &map.comm {
        let begin = starts[t];
        oplist.set_comm(
            *edge,
            Interval::with_duration(begin, metrics.edge_volume(app, *edge)),
        );
    }
    for k in 0..graph.n() {
        let begin = starts[map.calc[k]];
        oplist.set_calc(k, Interval::with_duration(begin, metrics.c_comp(k)));
    }
    Ok(oplist)
}

/// Result of an ordering search.
#[derive(Clone, Debug)]
pub struct OrderingSearchResult {
    /// The best period found.
    pub period: f64,
    /// The ordering achieving it.
    pub orderings: CommOrderings,
    /// `true` if the whole ordering space was enumerated (the value is optimal
    /// over orderings), `false` if a heuristic search was used.
    pub exhaustive: bool,
}

/// Searches for the communication ordering minimising the period, serially
/// (see [`oneport_period_search_bounded`]).
pub fn oneport_period_search(
    app: &Application,
    graph: &ExecutionGraph,
    style: OnePortStyle,
    exhaustive_limit: usize,
) -> CoreResult<OrderingSearchResult> {
    let metrics = PlanMetrics::compute(app, graph)?;
    oneport_period_search_bounded(
        app,
        graph,
        &metrics,
        style,
        exhaustive_limit,
        Exec::serial(),
    )
}

/// Searches for the communication ordering minimising the period of `graph`,
/// whose plan metrics the caller supplies.
///
/// If the ordering space has at most `exhaustive_limit` elements it is fully
/// enumerated (optimal result, the first minimum in enumeration order);
/// otherwise the search hill-climbs adjacent swaps from the topological
/// ordering.  The enumeration is split over `exec` worker threads (chunks in
/// enumeration order, reduced with the serial tie-breaking rule, so the
/// result is bit-identical to the serial run) and honours its deadline.
///
/// An application that [`Application::validate`] refuses gets its error
/// before any ordering is valued.
pub fn oneport_period_search_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
    style: OnePortStyle,
    exhaustive_limit: usize,
    exec: Exec,
) -> CoreResult<OrderingSearchResult> {
    app.validate()?;
    let eval = |ords: &CommOrderings| period_for_orderings_with(app, graph, metrics, ords, style);
    if let Some(space) = OrderingSpace::new(graph, exhaustive_limit) {
        // Orderings whose rendezvous constraints dead-lock are infeasible
        // (token-free cycle): skip them.
        let (best, complete) = space.first_minimum(exec, f64::INFINITY, || {
            |ords: &CommOrderings, _| eval(ords).ok()
        });
        if let Some((period, orderings)) = best {
            return Ok(OrderingSearchResult {
                period,
                orderings,
                exhaustive: complete,
            });
        }
        debug_assert!(
            !complete,
            "the topological ordering is always feasible, so a completed \
             enumeration finds at least one period"
        );
    }
    // Beyond the limit, or when a deadline expired before the enumeration
    // valued a single ordering.
    let (period, orderings) = climb_orderings(graph, exec, eval)?;
    Ok(OrderingSearchResult {
        period,
        orderings,
        exhaustive: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::{validate_oplist, CommModel};

    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn section23_inorder_optimal_period_is_23_over_3() {
        let (app, g) = section23();
        let result = oneport_period_search(&app, &g, OnePortStyle::InOrder, 1000).unwrap();
        assert!(result.exhaustive);
        assert!(
            (result.period - 23.0 / 3.0).abs() < 1e-9,
            "expected 23/3, got {}",
            result.period
        );
        // The operation list realising it is a valid INORDER schedule.
        let ol = inorder_oplist_for_orderings(&app, &g, &result.orderings).unwrap();
        assert!((ol.period() - 23.0 / 3.0).abs() < 1e-9);
        validate_oplist(&app, &g, &ol, CommModel::InOrder).unwrap_or_else(|v| panic!("{v:?}"));
        // The INORDER schedule is also a valid OUTORDER schedule.
        validate_oplist(&app, &g, &ol, CommModel::OutOrder).unwrap();
    }

    #[test]
    fn section23_natural_ordering_gives_a_larger_period() {
        // The paper's discussion: with the latency-oriented operation list the
        // INORDER period is 10; orderings matter.  The natural ordering is not
        // necessarily optimal, but every ordering is at least the lower bound 7
        // and at least the optimum 23/3.
        let (app, g) = section23();
        let lb = PlanMetrics::compute(&app, &g)
            .unwrap()
            .period_lower_bound(CommModel::InOrder);
        assert_eq!(lb, 7.0);
        let natural = CommOrderings::natural(&g);
        let p = inorder_period_for_orderings(&app, &g, &natural).unwrap();
        assert!(p >= 23.0 / 3.0 - 1e-9);
    }

    #[test]
    fn section23_oneport_overlap_achieves_the_multiport_bound() {
        // With computation/communication overlap but one-port communications,
        // the Figure 1 example can still reach the multi-port bound of 4:
        // no server needs more than 4 time units of port activity.
        let (app, g) = section23();
        let result = oneport_period_search(&app, &g, OnePortStyle::OverlapPorts, 1000).unwrap();
        assert!(result.exhaustive);
        assert!((result.period - 4.0).abs() < 1e-9, "got {}", result.period);
    }

    #[test]
    fn chain_period_equals_lower_bound_for_inorder() {
        // On a chain there is no ordering freedom and the one-port lower bound
        // is reached (the building block of Proposition 8).
        let app = Application::independent(&[(2.0, 0.5), (3.0, 2.0), (1.0, 1.0)]);
        let g = ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap();
        let lb = PlanMetrics::compute(&app, &g)
            .unwrap()
            .period_lower_bound(CommModel::InOrder);
        let result = oneport_period_search(&app, &g, OnePortStyle::InOrder, 10).unwrap();
        assert!((result.period - lb).abs() < 1e-9);
        let ol = inorder_oplist_for_orderings(&app, &g, &result.orderings).unwrap();
        validate_oplist(&app, &g, &ol, CommModel::InOrder).unwrap();
    }

    #[test]
    fn fork_join_orderings_change_the_period() {
        // A fork-join where the middle branches have very different costs: the
        // ordering of the fork's emissions and of the join's receptions matters.
        let app =
            Application::independent(&[(1.0, 1.0), (6.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
            .unwrap();
        let mut periods = Vec::new();
        for ords in CommOrderings::enumerate_all(&g, 1000).unwrap() {
            periods.push(inorder_period_for_orderings(&app, &g, &ords).unwrap());
        }
        let min = periods.iter().copied().fold(f64::INFINITY, f64::min);
        let max = periods.iter().copied().fold(0.0f64, f64::max);
        assert!(max > min + 1e-9, "orderings should matter: {min} vs {max}");
        // The search finds the minimum.
        let result = oneport_period_search(&app, &g, OnePortStyle::InOrder, 1000).unwrap();
        assert!((result.period - min).abs() < 1e-9);
    }

    #[test]
    fn heuristic_search_is_used_beyond_the_limit() {
        let (app, g) = section23();
        let result = oneport_period_search(&app, &g, OnePortStyle::InOrder, 1).unwrap();
        assert!(!result.exhaustive);
        // The hill-climbing result is still a feasible period (>= optimum).
        assert!(result.period >= 23.0 / 3.0 - 1e-9);
    }

    #[test]
    fn inconsistent_orderings_rejected() {
        let (app, g) = section23();
        let other = ExecutionGraph::from_edges(5, &[(0, 1)]).unwrap();
        let ords = CommOrderings::natural(&other);
        assert!(inorder_period_for_orderings(&app, &g, &ords).is_err());
    }
}
