//! Latency orchestration.
//!
//! The latency (response time) of a plan is the completion time of a single
//! data set.  For the one-port models the distinction between `INORDER` and
//! `OUTORDER` disappears (only one data set is in flight), but the *order* in
//! which every server performs its receptions and its emissions still matters
//! and choosing it optimally is NP-hard (Theorem 3).  For the multi-port
//! model, bandwidth sharing can strictly beat any one-port schedule
//! (counter-example B.2 of the paper).
//!
//! This module provides:
//!
//! * [`oneport_latency_for_orderings`] — the exact makespan of a fixed
//!   ordering (a longest-path computation over the operation DAG, with
//!   deadlock detection for inconsistent rendezvous orders);
//! * [`oneport_latency_search`] / [`oneport_latency_search_bounded`] — the
//!   serial and the full (executor, cutoff) search over orderings:
//!   exhaustive when the space is small, hill climbing otherwise;
//! * [`multiport_proportional_latency`] — a constructive bounded multi-port
//!   schedule in which every transfer of server `k` reserves a
//!   `volume / max(Cout(k), Cin(recv))` bandwidth share, so all transfers of a
//!   port may proceed concurrently (this reproduces the strict multi-port
//!   advantage of counter-example B.2); under OVERLAP the latency
//!   orchestration of `solve` and
//!   [`evaluate_latency`](crate::minlatency::evaluate_latency) keep the
//!   better of it and the best one-port schedule, since any one-port
//!   schedule is also a valid multi-port schedule;
//! * [`latency_lower_bound`] — the critical-path lower bound valid for every model.

use fsw_core::{
    in_edges, out_edges, Application, CoreError, CoreResult, EdgeRef, ExecutionGraph, Interval,
    OperationList, PlanMetrics,
};

use crate::engine::prune_threshold;
use crate::orderings::{climb_orderings, CommOrderings, OrderingSpace, PlanOperations, NO_OP};
use crate::par::Exec;

/// Critical-path lower bound on the latency, valid for every communication model.
///
/// The weight of a path is the sum of the communication volumes and
/// computation costs along it, starting with the input transfer and ending
/// with the output transfer of an exit node.
pub fn latency_lower_bound(app: &Application, graph: &ExecutionGraph) -> CoreResult<f64> {
    let metrics = PlanMetrics::compute(app, graph)?;
    latency_lower_bound_with(app, graph, &metrics)
}

/// [`latency_lower_bound`] with pre-computed plan metrics.
pub(crate) fn latency_lower_bound_with(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
) -> CoreResult<f64> {
    let order = graph.topological_order()?;
    let mut done = vec![0.0f64; graph.n()];
    let mut best = 0.0f64;
    for &k in &order {
        let mut ready = 0.0f64;
        for e in in_edges(graph, k) {
            let volume = metrics.edge_volume(app, e);
            let from = match e {
                EdgeRef::Input(_) => 0.0,
                EdgeRef::Link(i, _) => done[i],
                EdgeRef::Output(_) => unreachable!("output edges are never incoming"),
            };
            ready = ready.max(from + volume);
        }
        done[k] = ready + metrics.c_comp(k);
        if graph.succs(k).is_empty() {
            best = best.max(done[k] + metrics.edge_volume(app, EdgeRef::Output(k)));
        }
    }
    Ok(best)
}

/// Pre-computed state for evaluating many communication orderings of one
/// `(application, graph)` pair.
///
/// The operations — one per plan edge (a transfer is a single operation,
/// shared by its sender's and its receiver's sequence), then one
/// computation per service — their durations and the plan metrics do not
/// depend on the ordering; only the per-server sequence arcs do.  So an
/// exhaustive ordering search builds this once and pays one longest-path
/// pass per candidate, instead of recomputing `PlanMetrics` (ancestor sets
/// and all) for every one of thousands of orderings.  A dense table maps
/// each plan edge to its operation, so a pass looks nothing up by key, and
/// the ordering searches run their passes on buffers they keep per worker:
/// valuing an ordering inside a search allocates nothing.
pub struct LatencyEvaluator<'a> {
    ops: PlanOperations<'a>,
    lower_bound: f64,
}

/// The buffers of a [`LatencyEvaluator`]'s longest-path pass, sized exactly
/// for its operations.  An ordering search keeps one per worker, so its
/// passes allocate nothing, and frees them when it ends.
pub(crate) struct LatencyScratch {
    /// Each operation's successors along the per-server sequences
    /// (`NO_OP` when absent): at most two, since a transfer lies on its
    /// sender's and its receiver's sequence and every other operation on
    /// one sequence.
    succ: Vec<[usize; 2]>,
    indeg: Vec<u8>,
    start: Vec<f64>,
    stack: Vec<usize>,
}

impl<'a> LatencyEvaluator<'a> {
    /// Precomputes the operation DAG skeleton for `graph`.
    pub fn new(app: &Application, graph: &'a ExecutionGraph) -> CoreResult<Self> {
        let metrics = PlanMetrics::compute(app, graph)?;
        Self::with_metrics(app, graph, &metrics)
    }

    /// [`LatencyEvaluator::new`] with caller-provided plan metrics, so a
    /// caller that already computed them does not pay for them twice.
    pub fn with_metrics(
        app: &Application,
        graph: &'a ExecutionGraph,
        metrics: &PlanMetrics,
    ) -> CoreResult<Self> {
        let lower_bound = latency_lower_bound_with(app, graph, metrics)?;
        Ok(LatencyEvaluator {
            ops: PlanOperations::new(app, graph, metrics),
            lower_bound,
        })
    }

    /// The critical-path latency lower bound of the underlying graph
    /// ([`latency_lower_bound`], computed once at construction).
    pub fn lower_bound(&self) -> f64 {
        self.lower_bound
    }

    /// Buffers for one worker's longest-path passes.
    pub(crate) fn scratch(&self) -> LatencyScratch {
        let m = self.ops.len();
        LatencyScratch {
            succ: vec![[NO_OP; 2]; m],
            indeg: vec![0; m],
            start: vec![0.0; m],
            stack: Vec::with_capacity(m),
        }
    }

    /// Longest path over the operation DAG induced by `ords` (Kahn), with
    /// cycle (deadlock) detection, on `scratch`'s buffers; the operations'
    /// start times are left in `scratch.start`.
    ///
    /// Returns `Ok(None)` when some operation provably ends after `cutoff` —
    /// every operation end bounds the makespan from below, so the true
    /// latency then exceeds `cutoff` and the caller can abandon the
    /// candidate early.  With `cutoff = ∞` the result is always exact.
    pub(crate) fn run(
        &self,
        ords: &CommOrderings,
        cutoff: f64,
        scratch: &mut LatencyScratch,
    ) -> CoreResult<Option<f64>> {
        let LatencyScratch {
            succ,
            indeg,
            start,
            stack,
        } = scratch;
        succ.fill([NO_OP; 2]);
        indeg.fill(0);
        start.fill(0.0);
        stack.clear();
        for k in 0..self.ops.graph.n() {
            let mut prev = NO_OP;
            for op in self.ops.sequence(ords, k) {
                if prev != NO_OP {
                    let slot = usize::from(succ[prev][0] != NO_OP);
                    debug_assert!(succ[prev][slot] == NO_OP, "an edge listed twice");
                    succ[prev][slot] = op;
                    indeg[op] += 1;
                }
                prev = op;
            }
        }
        stack.extend((0..indeg.len()).filter(|&i| indeg[i] == 0));
        let mut visited = 0usize;
        let mut makespan = 0.0f64;
        while let Some(i) = stack.pop() {
            visited += 1;
            let end = start[i] + self.ops.durations[i];
            if end > cutoff {
                return Ok(None);
            }
            makespan = makespan.max(end);
            for &j in succ[i].iter().take_while(|&&j| j != NO_OP) {
                if end > start[j] {
                    start[j] = end;
                }
                indeg[j] -= 1;
                if indeg[j] == 0 {
                    stack.push(j);
                }
            }
        }
        if visited != indeg.len() {
            return Err(CoreError::CyclicGraph);
        }
        Ok(Some(makespan))
    }

    /// Latency of a fixed ordering, abandoning early (`Ok(None)`) once it
    /// provably exceeds `cutoff`; `Err(CyclicGraph)` on deadlock.  Each call
    /// allocates its own pass buffers; the ordering searches reuse one set
    /// per worker instead.
    pub fn value(&self, ords: &CommOrderings, cutoff: f64) -> CoreResult<Option<f64>> {
        self.run(ords, cutoff, &mut self.scratch())
    }

    /// Latency *and* concrete operation list of a fixed ordering.
    pub fn schedule(&self, ords: &CommOrderings) -> CoreResult<(f64, OperationList)> {
        let mut scratch = self.scratch();
        let makespan = self
            .run(ords, f64::INFINITY, &mut scratch)?
            .expect("an infinite cutoff never abandons");
        // Assemble the operation list; its period is set to the makespan so
        // the schedule trivially has no cross-data-set conflict (the "fully
        // serialise each data set" strategy of Section 2.2 for the latency).
        let lambda = if makespan > 0.0 { makespan } else { 1.0 };
        let oplist = self.ops.oplist(lambda, &scratch.start);
        Ok((oplist.latency(), oplist))
    }
}

/// Latency (and operation list) achieved by a fixed communication ordering
/// under one-port communications.
///
/// Returns `Err(CoreError::CyclicGraph)` when the orderings dead-lock (the
/// rendezvous orders of two servers are mutually inconsistent).
pub fn oneport_latency_for_orderings(
    app: &Application,
    graph: &ExecutionGraph,
    ords: &CommOrderings,
) -> CoreResult<(f64, OperationList)> {
    if !ords.is_consistent_with(graph) {
        return Err(CoreError::SizeMismatch {
            expected: graph.n(),
            found: ords.n(),
        });
    }
    LatencyEvaluator::new(app, graph)?.schedule(ords)
}

/// Result of a latency ordering search.
#[derive(Clone, Debug)]
pub struct LatencySearchResult {
    /// Best latency found.
    pub latency: f64,
    /// Operation list achieving it.
    pub oplist: OperationList,
    /// Ordering achieving it.
    pub orderings: CommOrderings,
    /// `true` when the whole ordering space was enumerated.
    pub exhaustive: bool,
}

/// Searches the communication orderings minimising the one-port latency,
/// serially and without a cutoff (see [`oneport_latency_search_bounded`]).
/// An application that [`Application::validate`] refuses gets its error
/// before any ordering is valued.
pub fn oneport_latency_search(
    app: &Application,
    graph: &ExecutionGraph,
    exhaustive_limit: usize,
) -> CoreResult<LatencySearchResult> {
    app.validate()?;
    let evaluator = LatencyEvaluator::new(app, graph)?;
    Ok(
        oneport_latency_search_bounded(
            &evaluator,
            exhaustive_limit,
            Exec::serial(),
            f64::INFINITY,
        )?
        .expect("an infinite cutoff never prunes the search"),
    )
}

/// Searches the communication orderings minimising the one-port latency of
/// the evaluator's graph.
///
/// Exhaustive (the first minimum in enumeration order) when the ordering
/// space does not exceed `exhaustive_limit`; otherwise hill climbing over
/// adjacent swaps from the topological ordering.  The enumeration is split
/// over `exec` worker threads (chunks in enumeration order, reduced with the
/// serial tie-breaking rule, so the result is bit-identical to the serial
/// run) and honours its deadline.
///
/// `cutoff` is a caller's incumbent that lets the search abandon work that
/// cannot matter:
///
/// * Returns `Ok(None)` when every ordering provably exceeds `cutoff`
///   (including the cheap case where already the critical-path lower bound
///   strictly clears it) — the incumbent cannot be improved by this graph.
/// * Otherwise the result is exactly what an infinite cutoff returns (value,
///   winning ordering and schedule are bit-identical): partial schedules are
///   abandoned only once some operation provably ends after both the cutoff
///   and the best latency found so far.
pub fn oneport_latency_search_bounded(
    evaluator: &LatencyEvaluator<'_>,
    exhaustive_limit: usize,
    exec: Exec,
    cutoff: f64,
) -> CoreResult<Option<LatencySearchResult>> {
    if evaluator.lower_bound() > prune_threshold(cutoff) {
        return Ok(None);
    }
    let graph = evaluator.ops.graph;
    let enumerated = OrderingSpace::new(graph, exhaustive_limit).map(|space| {
        // Dead-locked orderings and orderings provably above the bar are
        // both skipped.  Each worker values on its own pass buffers.
        space.first_minimum(exec, cutoff, || {
            let mut scratch = evaluator.scratch();
            move |ords: &CommOrderings, bar| evaluator.run(ords, bar, &mut scratch).ok().flatten()
        })
    });
    let (latency, orderings, exhaustive) = match enumerated {
        Some((Some((latency, _)), _)) if latency > cutoff => return Ok(None),
        Some((Some((latency, orderings)), complete)) => (latency, orderings, complete),
        // Everything was either dead-locked or above the cutoff.
        Some((None, true)) if cutoff.is_finite() => return Ok(None),
        Some((None, true)) => return Err(CoreError::CyclicGraph),
        // Beyond the limit, or a deadline expired before anything was
        // valued.  The climb is not cutoff-bounded: its value must not
        // depend on the incumbent carried in.
        Some((None, false)) | None => {
            let mut scratch = evaluator.scratch();
            let (latency, orderings) = climb_orderings(graph, exec, |ords| {
                Ok(evaluator
                    .run(ords, f64::INFINITY, &mut scratch)?
                    .expect("an infinite cutoff never abandons"))
            })?;
            (latency, orderings, false)
        }
    };
    // Build the winner's operation list (deterministic for a fixed
    // ordering, so it matches the serial run exactly).
    let (_, oplist) = evaluator.schedule(&orderings)?;
    Ok(Some(LatencySearchResult {
        latency,
        oplist,
        orderings,
        exhaustive,
    }))
}

/// Constructive bounded multi-port latency schedule.
///
/// Every transfer leaving server `i` towards server `j` reserves the bandwidth
/// fraction `volume / D` with `D = max(Cout(i), Cin(j))` (input and output
/// transfers use the one-sided bound), so all transfers of a port can be in
/// flight simultaneously without exceeding the capacity; transfers start as
/// soon as their data is available and computations start once all inputs have
/// arrived.  The schedule is always a valid `OVERLAP` operation list.
pub fn multiport_proportional_latency(
    app: &Application,
    graph: &ExecutionGraph,
) -> CoreResult<(f64, OperationList)> {
    let metrics = PlanMetrics::compute(app, graph)?;
    let order = graph.topological_order()?;
    let n = graph.n();
    let mut calc_end = vec![0.0f64; n];
    let lambda_placeholder = 1.0;
    let mut oplist = OperationList::new(n, lambda_placeholder);
    for &k in &order {
        let mut ready = 0.0f64;
        for e in in_edges(graph, k) {
            let volume = metrics.edge_volume(app, e);
            let duration = match e {
                EdgeRef::Input(_) => metrics.c_in(k).max(volume),
                EdgeRef::Link(i, _) => metrics.c_out(i).max(metrics.c_in(k)).max(volume),
                EdgeRef::Output(_) => unreachable!("output edges are never incoming"),
            };
            let begin = match e {
                EdgeRef::Input(_) => 0.0,
                EdgeRef::Link(i, _) => calc_end[i],
                EdgeRef::Output(_) => unreachable!(),
            };
            let iv = Interval::with_duration(begin, duration);
            ready = ready.max(iv.end);
            oplist.set_comm(e, iv);
        }
        let begin = ready;
        let end = begin + metrics.c_comp(k);
        oplist.set_calc(k, Interval::new(begin, end));
        calc_end[k] = end;
        for e in out_edges(graph, k) {
            if let EdgeRef::Output(_) = e {
                let volume = metrics.edge_volume(app, e);
                let duration = metrics.c_out(k).max(volume);
                oplist.set_comm(e, Interval::with_duration(end, duration));
            }
        }
    }
    let latency = oplist.latency();
    let oplist = oplist.with_lambda(latency.max(1e-9));
    Ok((latency, oplist))
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
    fn section23_optimal_latency_is_21() {
        let (app, g) = section23();
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.exhaustive);
        assert!(
            (result.latency - 21.0).abs() < 1e-9,
            "got {}",
            result.latency
        );
        // The schedule is valid for every model (one data set at a time).
        for model in CommModel::ALL {
            validate_oplist(&app, &g, &result.oplist, model)
                .unwrap_or_else(|v| panic!("{model}: {v:?}"));
        }
        // Multi-port does not improve the latency on this example (the paper
        // notes this): the proportional schedule does not beat 21.
        let (multi, _) = multiport_proportional_latency(&app, &g).unwrap();
        assert!(multi >= result.latency - 1e-9, "got {multi}");
    }

    #[test]
    fn latency_lower_bound_is_a_lower_bound() {
        let (app, g) = section23();
        let lb = latency_lower_bound(&app, &g).unwrap();
        // Longest path: in->C1(1) + C1(4) + C1->C2(1) + C2(4) + C2->C3(1) + C3(4)
        //               + C3->C5(1) + C5(4) + C5->out(1) = 21
        assert!((lb - 21.0).abs() < 1e-9);
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.latency >= lb - 1e-9);
    }

    #[test]
    fn chain_latency_matches_closed_form() {
        // Chain 0 -> 1 with costs (2, 3) and selectivities (0.5, 1):
        // latency = 1 + 2 + 0.5 + 0.5*3 + 0.5*1 = 5.5
        let app = Application::independent(&[(2.0, 0.5), (3.0, 1.0)]);
        let g = ExecutionGraph::chain_of(2, &[0, 1]).unwrap();
        let result = oneport_latency_search(&app, &g, 10).unwrap();
        assert!((result.latency - 5.5).abs() < 1e-9);
        validate_oplist(&app, &g, &result.oplist, CommModel::InOrder).unwrap();
        let lb = latency_lower_bound(&app, &g).unwrap();
        assert!((lb - 5.5).abs() < 1e-9);
    }

    #[test]
    fn star_latency_orders_children_longest_first() {
        // A root feeding three children with very different costs: the best
        // ordering sends to the expensive child first.
        let app = Application::independent(&[(1.0, 1.0), (9.0, 1.0), (1.0, 1.0), (1.0, 1.0)]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        let result = oneport_latency_search(&app, &g, 1000).unwrap();
        assert!(result.exhaustive);
        // in->C0: 1, C0: 1, send to C1 at 2..3, C1 computes 3..12, C1->out 12..13.
        assert!(
            (result.latency - 13.0).abs() < 1e-9,
            "got {}",
            result.latency
        );
        // A bad ordering (expensive child last) costs 2 more.
        let mut bad = CommOrderings::natural(&g);
        bad.outgoing[0] = vec![
            EdgeRef::Link(0, 2),
            EdgeRef::Link(0, 3),
            EdgeRef::Link(0, 1),
        ];
        let (bad_latency, _) = oneport_latency_for_orderings(&app, &g, &bad).unwrap();
        assert!((bad_latency - 15.0).abs() < 1e-9, "got {bad_latency}");
    }

    #[test]
    fn deadlocked_orderings_are_detected() {
        // Two senders (0, 1) and two receivers (2, 3) with crossing priorities.
        let app = Application::independent(&[(1.0, 1.0); 4]);
        let g = ExecutionGraph::from_edges(4, &[(0, 2), (0, 3), (1, 2), (1, 3)]).unwrap();
        let mut ords = CommOrderings::natural(&g);
        ords.outgoing[0] = vec![EdgeRef::Link(0, 2), EdgeRef::Link(0, 3)];
        ords.outgoing[1] = vec![EdgeRef::Link(1, 3), EdgeRef::Link(1, 2)];
        ords.incoming[2] = vec![EdgeRef::Link(1, 2), EdgeRef::Link(0, 2)];
        ords.incoming[3] = vec![EdgeRef::Link(0, 3), EdgeRef::Link(1, 3)];
        assert!(matches!(
            oneport_latency_for_orderings(&app, &g, &ords),
            Err(CoreError::CyclicGraph)
        ));
        // The exhaustive search skips dead-locked orderings and still finds one.
        let result = oneport_latency_search(&app, &g, 10000).unwrap();
        assert!(result.latency.is_finite());
    }

    #[test]
    fn multiport_proportional_schedule_is_valid_overlap() {
        let (app, g) = section23();
        let (latency, ol) = multiport_proportional_latency(&app, &g).unwrap();
        assert!(latency >= 21.0 - 1e-9);
        validate_oplist(&app, &g, &ol, CommModel::Overlap).unwrap_or_else(|v| panic!("{v:?}"));
    }
}
