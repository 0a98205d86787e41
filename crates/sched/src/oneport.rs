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
//! [`oneport_period_search_bounded`] takes a [`PeriodEvaluator`] and the
//! executor.  Both run the enumerate-and-climb routine the latency search
//! shares ([`crate::orderings`]).
//!
//! The event graph's transitions — one per plan edge, then one computation
//! per service — and their durations do not depend on the ordering, so a
//! [`PeriodEvaluator`] numbers them once per plan graph.  Each search worker
//! keeps one event graph over those transitions and one set of analysis
//! buffers: valuing an ordering clears the graph's arcs, re-adds the
//! ordering's, and runs the cycle-ratio analysis in place, allocating
//! nothing.  The winner's operation list comes from the same evaluator.

use fsw_core::{Application, CoreError, CoreResult, ExecutionGraph, OperationList, PlanMetrics};
use fsw_eventgraph::{CycleScratch, MaxRatio, TimedEventGraph};

use crate::orderings::{climb_orderings, CommOrderings, OrderingSpace, PlanOperations};
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

/// Pre-computed state for valuing many communication orderings of one
/// `(application, graph)` pair by the period of their timed event graph
/// under one [`OnePortStyle`].
///
/// The transitions are the plan's operations: the transfer on each plan
/// edge in `plan_edges` order, then the computation of each service, timed
/// by the plan metrics.  Only the arcs depend on the
/// ordering, and their number does not.
pub struct PeriodEvaluator<'a> {
    ops: PlanOperations<'a>,
    style: OnePortStyle,
    /// Arcs of every ordering's event graph.
    arcs: usize,
}

/// One worker's event graph over a [`PeriodEvaluator`]'s transitions and
/// the buffers of its analysis, reused for every ordering it values.
pub(crate) struct PeriodScratch {
    events: TimedEventGraph,
    cycles: CycleScratch,
}

impl<'a> PeriodEvaluator<'a> {
    /// Numbers the transitions of `graph`'s event graphs under `style`,
    /// timed by the caller's plan metrics.  An application that
    /// [`Application::validate`] refuses gets its error here, before any
    /// ordering is valued.
    pub fn new(
        app: &Application,
        graph: &'a ExecutionGraph,
        metrics: &PlanMetrics,
        style: OnePortStyle,
    ) -> CoreResult<Self> {
        app.validate()?;
        let n = graph.n();
        // Every list holds at least one edge (an input or an output edge).
        let comms: usize = (0..n)
            .map(|k| graph.preds(k).len().max(1) + graph.succs(k).len().max(1))
            .sum();
        let arcs = match style {
            // One cycle through every communication and the computation.
            OnePortStyle::InOrder => comms + n,
            // Two port cycles, the CPU loop and a precedence arc per
            // communication.
            OnePortStyle::OverlapPorts => 2 * comms + n,
        };
        Ok(PeriodEvaluator {
            ops: PlanOperations::new(app, graph, metrics),
            style,
            arcs,
        })
    }

    /// One worker's event graph and analysis buffers.
    pub(crate) fn scratch(&self) -> PeriodScratch {
        let mut events = TimedEventGraph::with_durations(self.ops.durations.clone());
        events.reserve_arcs(self.arcs);
        PeriodScratch {
            events,
            cycles: CycleScratch::new(),
        }
    }

    /// Replaces `events`' arcs with those of `ords`, server by server.
    fn sequence_arcs(&self, ords: &CommOrderings, events: &mut TimedEventGraph) {
        events.clear_arcs();
        for k in 0..self.ops.graph.n() {
            match self.style {
                // One cycle: in_1 .. in_p, calc, out_1 .. out_q, back to in_1.
                OnePortStyle::InOrder => serialise(events, self.ops.sequence(ords, k)),
                OnePortStyle::OverlapPorts => {
                    let ins = self.ops.receptions(ords, k);
                    let outs = self.ops.emissions(ords, k);
                    let calc = self.ops.calc(k);
                    // Incoming-port, outgoing-port and CPU cycles.
                    serialise(events, ins.clone());
                    serialise(events, outs.clone());
                    serialise(events, std::iter::once(calc));
                    // Per-data-set precedence: receive everything, compute, send.
                    for i in ins {
                        add_arc(events, i, calc, 0);
                    }
                    for o in outs {
                        add_arc(events, calc, o, 0);
                    }
                }
            }
        }
    }

    /// Period of `ords` on `scratch`; `Err(CyclicGraph)` when the ordering
    /// dead-locks (a token-free cycle of positive duration).
    pub(crate) fn run(&self, ords: &CommOrderings, scratch: &mut PeriodScratch) -> CoreResult<f64> {
        self.sequence_arcs(ords, &mut scratch.events);
        match scratch.events.max_cycle_ratio_in(&mut scratch.cycles) {
            Ok(MaxRatio::Ratio(ratio)) => Ok(ratio),
            Ok(MaxRatio::Unconstrained) => Ok(0.0),
            Ok(MaxRatio::ZeroTokenCycle) | Err(_) => Err(CoreError::CyclicGraph),
        }
    }

    /// Period of a fixed ordering.  Each call makes its own event graph and
    /// buffers; the ordering searches reuse one set per worker instead.
    pub fn period(&self, ords: &CommOrderings) -> CoreResult<f64> {
        self.run(ords, &mut self.scratch())
    }

    /// A concrete operation list realising the period of a fixed ordering:
    /// every operation starts at its earliest time in a cyclic schedule of
    /// that period (an `INORDER` schedule under [`OnePortStyle::InOrder`]).
    pub fn oplist(&self, ords: &CommOrderings) -> CoreResult<OperationList> {
        // The analysis frees its buffers before the schedule is built: the
        // earliest starts need only the arcs and one distance per
        // transition.
        let period = self.period(ords)?;
        // Guard against degenerate zero-work plans.
        let period = if period > 0.0 { period } else { 1.0 };
        let mut scratch = self.scratch();
        self.sequence_arcs(ords, &mut scratch.events);
        let PeriodScratch { events, cycles } = &mut scratch;
        let feasible = events.earliest_schedule_in(period * (1.0 + 1e-12), cycles)
            || events.earliest_schedule_in(period * (1.0 + 1e-9), cycles);
        if !feasible {
            return Err(CoreError::CyclicGraph);
        }
        Ok(self.ops.oplist(period, cycles.starts()))
    }
}

/// Adds an arc between two of a [`PeriodEvaluator`]'s transitions.
fn add_arc(events: &mut TimedEventGraph, from: usize, to: usize, tokens: u32) {
    events
        .add_arc(from, to, tokens)
        .expect("the evaluator numbers every transition of the graph");
}

/// Adds the arcs of one serial resource that runs `ops` in order once per
/// data set: consecutive operations linked without a token, and the last
/// one handing a token back to the first.
fn serialise(events: &mut TimedEventGraph, ops: impl Iterator<Item = usize>) {
    let mut ends = None;
    for op in ops {
        ends = Some(match ends {
            None => (op, op),
            Some((first, prev)) => {
                add_arc(events, prev, op, 0);
                (first, op)
            }
        });
    }
    if let Some((first, last)) = ends {
        add_arc(events, last, first, 1);
    }
}

/// The `INORDER` evaluator of `graph` for a fixed ordering, which must be
/// consistent with it.
fn inorder_evaluator<'a>(
    app: &Application,
    graph: &'a ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<PeriodEvaluator<'a>> {
    if !ords.is_consistent_with(graph) {
        return Err(CoreError::SizeMismatch {
            expected: graph.n(),
            found: ords.n(),
        });
    }
    let metrics = PlanMetrics::compute(app, graph)?;
    PeriodEvaluator::new(app, graph, &metrics, OnePortStyle::InOrder)
}

/// Period achieved by a fixed communication ordering under the `INORDER` model.
pub fn inorder_period_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<f64> {
    inorder_evaluator(app, graph, ords)?.period(ords)
}

/// Builds a concrete operation list realising the optimal period of a fixed
/// ordering under the `INORDER` model.
pub fn inorder_oplist_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<OperationList> {
    inorder_evaluator(app, graph, ords)?.oplist(ords)
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
/// (see [`oneport_period_search_bounded`]).  An application that
/// [`Application::validate`] refuses gets its error before any ordering is
/// valued.
pub fn oneport_period_search(
    app: &Application,
    graph: &ExecutionGraph,
    style: OnePortStyle,
    exhaustive_limit: usize,
) -> CoreResult<OrderingSearchResult> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let evaluator = PeriodEvaluator::new(app, graph, &metrics, style)?;
    oneport_period_search_bounded(&evaluator, exhaustive_limit, Exec::serial())
}

/// Searches for the communication ordering minimising the period of the
/// evaluator's graph under its style.
///
/// If the ordering space has at most `exhaustive_limit` elements it is fully
/// enumerated (optimal result, the first minimum in enumeration order);
/// otherwise the search hill-climbs adjacent swaps from the topological
/// ordering.  The enumeration is split over `exec` worker threads (chunks in
/// enumeration order, reduced with the serial tie-breaking rule, so the
/// result is bit-identical to the serial run) and honours its deadline.
/// Every worker, and the climb, values its orderings on one event graph
/// and one set of analysis buffers.
pub fn oneport_period_search_bounded(
    evaluator: &PeriodEvaluator<'_>,
    exhaustive_limit: usize,
    exec: Exec,
) -> CoreResult<OrderingSearchResult> {
    let graph = evaluator.ops.graph;
    if let Some(space) = OrderingSpace::new(graph, exhaustive_limit) {
        // Orderings whose rendezvous constraints dead-lock are infeasible
        // (token-free cycle): skip them.
        let (best, complete) = space.first_minimum(exec, f64::INFINITY, || {
            let mut scratch = evaluator.scratch();
            move |ords: &CommOrderings, _| evaluator.run(ords, &mut scratch).ok()
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
    let mut scratch = evaluator.scratch();
    let (period, orderings) =
        climb_orderings(graph, exec, |ords| evaluator.run(ords, &mut scratch))?;
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
        let space = OrderingSpace::new(&g, 1000).unwrap();
        let periods: Vec<f64> = (0..space.len())
            .map(|i| inorder_period_for_orderings(&app, &g, &space.get(i)).unwrap())
            .collect();
        let min = periods.iter().copied().fold(f64::INFINITY, f64::min);
        let max = periods.iter().copied().fold(0.0f64, f64::max);
        assert!(max > min + 1e-9, "orderings should matter: {min} vs {max}");
        // The search finds the minimum.
        let result = oneport_period_search(&app, &g, OnePortStyle::InOrder, 1000).unwrap();
        assert!((result.period - min).abs() < 1e-9);
    }

    /// The fork-join of `fork_join_orderings_change_the_period`.
    fn fork_join() -> (Application, ExecutionGraph) {
        let app =
            Application::independent(&[(1.0, 1.0), (6.0, 1.0), (1.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
            .unwrap();
        (app, g)
    }

    /// A five-service fork-join plus edge (1, 2): 2 304 orderings, 1 666 of
    /// them dead-locked under `INORDER`.
    fn wide_fork_join() -> (Application, ExecutionGraph) {
        let app =
            Application::independent(&[(1.0, 0.5), (2.0, 0.9), (0.5, 0.7), (3.0, 0.6), (1.5, 1.2)]);
        let edges = [
            (0, 1),
            (0, 2),
            (0, 3),
            (0, 4),
            (1, 2),
            (1, 4),
            (2, 4),
            (3, 4),
        ];
        (app, ExecutionGraph::from_edges(5, &edges).unwrap())
    }

    /// FNV-1a over 64-bit words: a period's bits, or `u64::MAX` for a
    /// dead-locked ordering.
    fn digest(periods: impl Iterator<Item = CoreResult<f64>>) -> u64 {
        periods
            .map(|period| period.map_or(u64::MAX, f64::to_bits))
            .fold(0xcbf2_9ce4_8422_2325, |hash, word| {
                (hash ^ word).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Every ordering's `INORDER` period, in enumeration order, as the
    /// per-ordering event graphs and permutation tables valued them.
    #[test]
    fn fork_join_periods_keep_their_order_and_values() {
        let (app, g) = fork_join();
        let space = OrderingSpace::new(&g, 1000).unwrap();
        let expected = [
            8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 8.0, 10.0, 11.0, 8.0, 8.0, 10.0,
            8.0, 11.0, 12.0, 10.0, 8.0, 11.0, 8.0, 11.0, 10.0, 10.0, 8.0, 8.0, 8.0, 12.0, 11.0,
            11.0, 8.0, 10.0, 8.0f64,
        ];
        assert_eq!(space.len(), expected.len());
        for (i, want) in expected.iter().enumerate() {
            let got = inorder_period_for_orderings(&app, &g, &space.get(i)).unwrap();
            assert_eq!(got.to_bits(), want.to_bits(), "ordering {i}");
        }
    }

    /// The same over 2 304 orderings, dead-locks included, in both styles:
    /// one digest of the sequence each.
    #[test]
    fn wide_fork_join_periods_keep_their_order_and_values() {
        let (app, g) = wide_fork_join();
        let space = OrderingSpace::new(&g, 10_000).unwrap();
        assert_eq!(space.len(), 2_304);
        let inorder =
            (0..space.len()).map(|i| inorder_period_for_orderings(&app, &g, &space.get(i)));
        assert_eq!(digest(inorder), 0xff7f_d445_e49f_545b);
        let metrics = PlanMetrics::compute(&app, &g).unwrap();
        let overlap = PeriodEvaluator::new(&app, &g, &metrics, OnePortStyle::OverlapPorts).unwrap();
        let overlap = (0..space.len()).map(|i| overlap.period(&space.get(i)));
        assert_eq!(digest(overlap), 0x5899_83d7_ac59_3b13);
    }

    /// Workers whose ranges start mid-space return the serial winner.
    #[test]
    fn period_searches_agree_at_every_worker_count() {
        for (app, g) in [fork_join(), wide_fork_join()] {
            let metrics = PlanMetrics::compute(&app, &g).unwrap();
            for style in [OnePortStyle::InOrder, OnePortStyle::OverlapPorts] {
                let evaluator = PeriodEvaluator::new(&app, &g, &metrics, style).unwrap();
                let serial =
                    oneport_period_search_bounded(&evaluator, 10_000, Exec::serial()).unwrap();
                assert!(serial.exhaustive);
                for threads in 2..=4 {
                    let parallel =
                        oneport_period_search_bounded(&evaluator, 10_000, Exec::threaded(threads))
                            .unwrap();
                    assert_eq!(parallel.period.to_bits(), serial.period.to_bits());
                    assert_eq!(parallel.orderings, serial.orderings, "{style:?} x{threads}");
                }
            }
        }
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
