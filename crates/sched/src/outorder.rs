//! Period orchestration for the `OUTORDER` model.
//!
//! `OUTORDER` keeps the one-port, no-overlap server discipline of `INORDER`
//! but allows a server to interleave operations belonging to *different* data
//! sets; finding the optimal operation list for a given execution graph is
//! NP-hard (Proposition 2).  This module provides:
//!
//! * a backtracking *cyclic (modulo) scheduler* ([`outorder_schedule_at`])
//!   that, for a candidate period `λ`, searches for start times such that
//!   every server's operations are pairwise disjoint modulo `λ` while
//!   respecting the per-data-set precedence constraints (receive → compute →
//!   send) and the rendezvous rule (a transfer occupies the sender and the
//!   receiver simultaneously);
//! * a search driver with one entry pair — [`outorder_period_search`] and
//!   [`outorder_period_search_bounded`] — that tries the period lower bound
//!   `max_k (Cin + Ccomp + Cout)` first and falls back to an `INORDER`
//!   schedule (always `OUTORDER`-feasible) when the bound cannot be reached
//!   within the search budget.
//!
//! The backtracking scheduler explores start times that are either the
//! operation's data-ready time or abut (modulo `λ`) the end of an operation
//! already placed on one of the involved servers; this "active schedule"
//! dominance rule is standard for machine scheduling and makes the search
//! finite, at the cost of completeness only within that class.
//!
//! Since the incumbent-aware engine pass, the scheduler additionally runs an
//! **admissible per-node completion bound** (forward checking): after every
//! placement it verifies that each still-unplaced operation touching the
//! affected servers retains a feasible start — a gap of its duration in the
//! merged modular occupancy of its resources.  Occupancy only grows along a
//! branch, so an operation without a slot *now* can never be placed deeper
//! in the branch and the node is a proven dead end; the prune removes no
//! solution, so complete searches return bit-identical verdicts while
//! infeasibility (the expensive case) is detected exponentially earlier.
//! In the period search on top ([`outorder_period_search_bounded`]) each
//! bisection probe is **warm-started** from the feasibility witness of the
//! previous one instead of rebuilding the schedule from scratch.
//!
//! Every effort knob comes from the one [`SearchBudget`]: the backtracking
//! node budget ([`SearchBudget::outorder_node_budget`]), the bisection steps
//! ([`SearchBudget::outorder_refinement_steps`]) and the ordering budget of
//! the `INORDER` fallback ([`SearchBudget::max_orderings`]); the deadline
//! comes from the executor.

use std::time::Instant;

use fsw_core::{
    in_edges, Application, CommModel, CoreResult, EdgeRef, ExecutionGraph, Interval, OperationList,
    PlanMetrics, ServiceId,
};

use crate::oneport::{oneport_period_search_bounded, OnePortStyle, PeriodEvaluator};
use crate::orchestrator::SearchBudget;
use crate::par::Exec;

/// Result of an `OUTORDER` period search.
#[derive(Clone, Debug)]
pub struct OutOrderResult {
    /// The best period achieved.
    pub period: f64,
    /// A valid operation list realising [`OutOrderResult::period`].
    pub oplist: OperationList,
    /// The `max_k (Cin + Ccomp + Cout)` lower bound.
    pub lower_bound: f64,
    /// `true` when the returned period equals the lower bound (hence optimal).
    pub optimal: bool,
}

/// One operation of the cyclic scheduling problem.
#[derive(Clone, Debug)]
struct Op {
    /// `None` for a computation, `Some(edge)` for a communication.
    edge: Option<EdgeRef>,
    service: ServiceId,
    duration: f64,
    /// Servers whose (single) port/CPU this operation occupies.
    resources: Vec<ServiceId>,
}

/// Builds the operation sequence of the cyclic scheduling problem in
/// data-flow order: for every service, its incoming transfers, then its
/// computation, then (if it is an exit node) its output transfer.
/// Service-to-service transfers are emitted when the receiver is visited so
/// that the sender's computation is already placed.  The order is a pure
/// function of the graph, which lets a bisection driver map one probe's
/// placements onto the next probe's operations (warm starts).
fn build_ops(
    app: &Application,
    graph: &ExecutionGraph,
    metrics: &PlanMetrics,
) -> CoreResult<Vec<Op>> {
    let order = graph.topological_order()?;
    let mut ops: Vec<Op> = Vec::new();
    for &k in &order {
        for e in in_edges(graph, k) {
            let mut resources = vec![k];
            if let Some(s) = e.sender() {
                resources.push(s);
            }
            ops.push(Op {
                edge: Some(e),
                service: k,
                duration: metrics.edge_volume(app, e),
                resources,
            });
        }
        ops.push(Op {
            edge: None,
            service: k,
            duration: metrics.c_comp(k),
            resources: vec![k],
        });
        if graph.succs(k).is_empty() {
            ops.push(Op {
                edge: Some(EdgeRef::Output(k)),
                service: k,
                duration: metrics.edge_volume(app, EdgeRef::Output(k)),
                resources: vec![k],
            });
        }
    }
    Ok(ops)
}

/// Attempts to build a valid `OUTORDER` operation list with period exactly `lambda`.
///
/// Returns `Ok(None)` when the backtracking search, limited to
/// [`SearchBudget::outorder_node_budget`] nodes and the budget's
/// [`SearchBudget::time_limit`], finds no schedule.  An application that
/// [`Application::validate`] refuses gets its error before any scheduling
/// work.
pub fn outorder_schedule_at(
    app: &Application,
    graph: &ExecutionGraph,
    lambda: f64,
    budget: &SearchBudget,
) -> CoreResult<Option<OperationList>> {
    app.validate()?;
    let metrics = PlanMetrics::compute(app, graph)?;
    let ops = build_ops(app, graph, &metrics)?;
    let deadline = budget.exec().deadline;
    Ok(schedule_prepared(
        graph.n(),
        &ops,
        lambda,
        budget.outorder_node_budget,
        deadline,
        None,
    ))
}

/// The backtracking feasibility search itself, over a pre-built operation
/// sequence — the bisection driver builds the (graph-determined, immutable)
/// sequence once and probes many periods against it.  `warm[i]` is a
/// preferred start time for operation `i` (typically the placement a
/// previous probe found at a nearby period).
fn schedule_prepared(
    n: usize,
    ops: &[Op],
    lambda: f64,
    node_budget: usize,
    deadline: Option<Instant>,
    warm: Option<&[Option<f64>]>,
) -> Option<OperationList> {
    // Any single operation longer than the period is an immediate contradiction.
    if ops.iter().any(|op| op.duration > lambda + 1e-9) {
        return None;
    }
    // When every duration and the period are integral (the case of all the
    // paper's constructions and reductions), start times can be restricted to
    // the integer grid without loss of generality, which makes the
    // backtracking search much more thorough than the "abutting starts"
    // dominance rule alone.
    let integral = lambda <= 256.0
        && (lambda - lambda.round()).abs() < 1e-9
        && ops
            .iter()
            .all(|op| (op.duration - op.duration.round()).abs() < 1e-9);
    let mut state = SearchState {
        lambda,
        eps: 1e-9,
        grid: if integral { Some(1.0) } else { None },
        occupancy: vec![Vec::new(); n],
        calc_end: vec![0.0; n],
        comm_end: std::collections::BTreeMap::new(),
        placements: Vec::new(),
        nodes: 0,
        budget: node_budget,
        deadline,
        warm: warm.map(|w| w.to_vec()).unwrap_or_default(),
        slot_scratch: Vec::new(),
    };
    if !schedule_ops(ops, 0, &mut state) {
        return None;
    }
    let mut oplist = OperationList::new(n, lambda);
    for (op_idx, start) in &state.placements {
        let op = &ops[*op_idx];
        let iv = Interval::with_duration(*start, op.duration);
        match op.edge {
            Some(e) => oplist.set_comm(e, iv),
            None => oplist.set_calc(op.service, iv),
        }
    }
    Some(oplist)
}

struct SearchState {
    lambda: f64,
    eps: f64,
    /// Candidate-start granularity when the instance is integral.
    grid: Option<f64>,
    /// Per server: occupied intervals as (start, duration) of data set 0.
    occupancy: Vec<Vec<(f64, f64)>>,
    calc_end: Vec<f64>,
    comm_end: std::collections::BTreeMap<EdgeRef, f64>,
    placements: Vec<(usize, f64)>,
    nodes: usize,
    budget: usize,
    deadline: Option<Instant>,
    /// Per-operation preferred starts from a previous probe's witness
    /// (empty when cold): tried first, so a nearby feasible schedule is
    /// usually re-found without backtracking.
    warm: Vec<Option<f64>>,
    /// Scratch for the forward-checking gap computation.
    slot_scratch: Vec<(f64, f64)>,
}

impl SearchState {
    /// `true` once the node budget is exhausted or the deadline (checked
    /// every 256 nodes to keep the hot loop cheap) has passed.
    fn out_of_budget(&self) -> bool {
        self.nodes >= self.budget
            || (self.nodes & 0xFF == 0 && self.deadline.is_some_and(|d| Instant::now() >= d))
    }
}

impl SearchState {
    fn ready_time(&self, op: &Op) -> f64 {
        match op.edge {
            Some(EdgeRef::Input(_)) => 0.0,
            Some(EdgeRef::Link(i, _)) => self.calc_end[i],
            Some(EdgeRef::Output(k)) => self.calc_end[k],
            None => 0.0, // refined below using comm_end
        }
    }

    fn fits(&self, op: &Op, start: f64) -> bool {
        for &r in &op.resources {
            for &(b, d) in &self.occupancy[r] {
                if !cyclically_disjoint(b, d, start, op.duration, self.lambda, self.eps) {
                    return false;
                }
            }
        }
        true
    }

    fn place(&mut self, op_idx: usize, op: &Op, start: f64) {
        for &r in &op.resources {
            self.occupancy[r].push((start, op.duration));
        }
        match op.edge {
            Some(e) => {
                self.comm_end.insert(e, start + op.duration);
            }
            None => {
                self.calc_end[op.service] = start + op.duration;
            }
        }
        self.placements.push((op_idx, start));
    }

    fn unplace(&mut self, op: &Op) {
        for &r in &op.resources {
            self.occupancy[r].pop();
        }
        match op.edge {
            Some(e) => {
                self.comm_end.remove(&e);
            }
            None => {
                self.calc_end[op.service] = 0.0;
            }
        }
        self.placements.pop();
    }

    /// Admissible completion check for a not-yet-placed operation: does the
    /// merged modular occupancy of its resources still leave a gap of the
    /// operation's duration?  Starts are free modulo `λ` (any residue is
    /// reachable at or after the ready time, and every gap's left edge is an
    /// "abutting" candidate of the search), so no slot *now* means no slot
    /// in any extension of the current branch — occupancy only grows.
    fn has_feasible_slot(&mut self, op: &Op) -> bool {
        if op.duration <= self.eps {
            return true;
        }
        let mut intervals = std::mem::take(&mut self.slot_scratch);
        intervals.clear();
        for &r in &op.resources {
            for &(b, d) in &self.occupancy[r] {
                if d <= self.eps {
                    continue;
                }
                let begin = b.rem_euclid(self.lambda);
                let end = begin + d;
                if end > self.lambda + self.eps {
                    // The interval wraps around the period boundary.
                    intervals.push((begin, self.lambda));
                    intervals.push((0.0, end - self.lambda));
                } else {
                    intervals.push((begin, end));
                }
            }
        }
        let feasible = if intervals.is_empty() {
            op.duration <= self.lambda + self.eps
        } else {
            intervals.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
            let first_begin = intervals[0].0;
            let mut merged_end = intervals[0].1;
            let mut max_gap = 0.0f64;
            for &(b, e) in &intervals[1..] {
                if b > merged_end + self.eps {
                    max_gap = max_gap.max(b - merged_end);
                }
                merged_end = merged_end.max(e);
            }
            // The cyclic gap closing the circle, from the last merged end
            // back to the first begin one period later.
            max_gap = max_gap.max(first_begin + self.lambda - merged_end);
            max_gap >= op.duration - self.eps
        };
        self.slot_scratch = intervals;
        feasible
    }
}

/// `true` when `a` and `b` occupy at least one common server.
fn shares_resource(a: &Op, b: &Op) -> bool {
    a.resources.iter().any(|r| b.resources.contains(r))
}

fn cyclically_disjoint(b1: f64, d1: f64, b2: f64, d2: f64, lambda: f64, eps: f64) -> bool {
    if d1 <= eps || d2 <= eps {
        return true;
    }
    if d1 + d2 > lambda + eps {
        return false;
    }
    let delta = (b2 - b1).rem_euclid(lambda);
    delta >= d1 - eps && lambda - delta >= d2 - eps
}

fn schedule_ops(ops: &[Op], idx: usize, state: &mut SearchState) -> bool {
    if idx == ops.len() {
        return true;
    }
    if state.out_of_budget() {
        return false;
    }
    state.nodes += 1;
    let op = &ops[idx];
    // Data-ready time: communications wait for the sender's computation;
    // computations wait for all incoming communications of their service.
    let ready = match op.edge {
        Some(_) => state.ready_time(op),
        None => state
            .comm_end
            .iter()
            .filter(|(e, _)| e.receiver() == Some(op.service))
            .map(|(_, &t)| t)
            .fold(0.0f64, f64::max),
    };
    // Candidate starts: the ready time itself, plus every start that abuts
    // (modulo λ) the end of an already-placed operation on an involved server,
    // plus — for integral instances — every grid point of one period window.
    let mut candidates = vec![ready];
    for &r in &op.resources {
        for &(b, d) in &state.occupancy[r] {
            let end = b + d;
            // Smallest t >= ready with t ≡ end (mod λ).
            let delta = (end - ready).rem_euclid(state.lambda);
            candidates.push(ready + delta);
        }
    }
    if let Some(grid) = state.grid {
        let mut t = ready.ceil();
        while t < ready + state.lambda - state.eps {
            candidates.push(t);
            t += grid;
        }
    }
    candidates.sort_by(|a, b| a.partial_cmp(b).unwrap());
    candidates.dedup_by(|a, b| (*a - *b).abs() <= state.eps);
    // A warm hint (the previous probe's witness, re-based to the current
    // period) jumps the queue.  Hint residues are generally *outside* the
    // abutting-starts dominance class, so a warm probe searches a strictly
    // larger candidate set than a cold one: every placement is still
    // validated by `fits`, so found schedules remain sound — a warm probe
    // can only find schedules a cold probe would miss, never the converse
    // per candidate explored.
    if let Some(hint) = state.warm.get(idx).copied().flatten() {
        let start = ready + (hint - ready).rem_euclid(state.lambda);
        candidates.retain(|c| (*c - start).abs() > state.eps);
        candidates.insert(0, start);
    }
    for start in candidates {
        if !state.fits(op, start) {
            continue;
        }
        state.place(idx, op, start);
        // Forward checking (admissible): if some remaining operation on the
        // servers just occupied no longer has a feasible slot, no extension
        // of this placement can complete — skip the recursion entirely.
        let dead = ops[idx + 1..]
            .iter()
            .any(|o| shares_resource(o, op) && !state.has_feasible_slot(o));
        if !dead && schedule_ops(ops, idx + 1, state) {
            return true;
        }
        state.unplace(op);
        if state.out_of_budget() {
            return false;
        }
    }
    false
}

/// Searches for the smallest `OUTORDER` period for the given execution
/// graph, under `budget` resolved the way
/// [`solve`](crate::orchestrator::solve) resolves it (see
/// [`outorder_period_search_bounded`]).
pub fn outorder_period_search(
    app: &Application,
    graph: &ExecutionGraph,
    budget: &SearchBudget,
) -> CoreResult<OutOrderResult> {
    outorder_period_search_bounded(app, graph, budget, budget.exec())
}

/// Searches for the smallest `OUTORDER` period for the given execution
/// graph: tries the lower bound first (optimal when it succeeds); otherwise
/// bisects between the lower bound and an `INORDER` fallback schedule,
/// keeping the best feasible operation list found.
///
/// `budget` supplies the backtracking node budget, the bisection steps and
/// the fallback's ordering budget.  The fallback's ordering search fans out
/// over `exec` worker threads, and `exec.deadline` bounds the backtracking
/// scheduler and the bisection refinement — when it passes, the best
/// feasible operation list found so far is returned (flagged non-optimal
/// unless it already reached the lower bound).
///
/// Each probe is warm-started from the previous feasibility witness (the
/// `INORDER` fallback schedule for the first one), so successive probes
/// re-find nearby schedules instead of rebuilding them from scratch.  An
/// application that [`Application::validate`] refuses gets its error
/// before any scheduling work.
pub fn outorder_period_search_bounded(
    app: &Application,
    graph: &ExecutionGraph,
    budget: &SearchBudget,
    exec: Exec,
) -> CoreResult<OutOrderResult> {
    app.validate()?;
    // The metrics serve the lower bound, the operation sequence and the
    // INORDER fallback alike.
    let metrics = PlanMetrics::compute(app, graph)?;
    let lower_bound = metrics.period_lower_bound(CommModel::OutOrder);
    let lb = if lower_bound > 0.0 { lower_bound } else { 1.0 };
    // The operation sequence is a pure function of the graph: build it once
    // and probe every candidate period against it.
    let ops = build_ops(app, graph, &metrics)?;
    let n = graph.n();
    let nodes = budget.outorder_node_budget;
    if let Some(oplist) = schedule_prepared(n, &ops, lb, nodes, exec.deadline, None) {
        return Ok(OutOrderResult {
            period: lb,
            oplist,
            lower_bound: lb,
            optimal: true,
        });
    }
    // Fallback: the best INORDER schedule found is always OUTORDER-feasible.
    let evaluator = PeriodEvaluator::new(app, graph, &metrics, OnePortStyle::InOrder)?;
    let inorder = oneport_period_search_bounded(&evaluator, budget.max_orderings, exec)?;
    let mut best_period = inorder.period;
    let mut best_oplist = evaluator.oplist(&inorder.orderings)?;
    // Bisection between the lower bound and the fallback, warm-starting each
    // probe from the best feasibility witness so far.
    let mut warm = warm_hints(&ops, &best_oplist);
    let mut lo = lb;
    let mut hi = best_period;
    for _ in 0..budget.outorder_refinement_steps {
        if hi - lo <= 1e-9 * hi.max(1.0) {
            break;
        }
        if exec.expired() {
            break;
        }
        let mid = 0.5 * (lo + hi);
        match schedule_prepared(n, &ops, mid, nodes, exec.deadline, Some(&warm)) {
            Some(oplist) => {
                warm = warm_hints(&ops, &oplist);
                best_period = mid;
                best_oplist = oplist;
                hi = mid;
            }
            None => {
                lo = mid;
            }
        }
    }
    Ok(OutOrderResult {
        period: best_period,
        oplist: best_oplist,
        lower_bound: lb,
        optimal: (best_period - lb).abs() <= 1e-9 * lb.max(1.0),
    })
}

/// Maps an operation list back onto its [`build_ops`] sequence as per-op
/// start-time hints for a warm-started probe.
fn warm_hints(ops: &[Op], oplist: &OperationList) -> Vec<Option<f64>> {
    ops.iter()
        .map(|op| match op.edge {
            Some(e) => oplist.comm(e).map(|iv| iv.begin),
            None => Some(oplist.calc(op.service).begin),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::validate_oplist;

    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn section23_outorder_reaches_the_lower_bound_of_7() {
        let (app, g) = section23();
        let result = outorder_period_search(&app, &g, &SearchBudget::default()).unwrap();
        assert_eq!(result.lower_bound, 7.0);
        assert!(result.optimal, "expected the bound 7 to be reached");
        assert!((result.period - 7.0).abs() < 1e-9);
        validate_oplist(&app, &g, &result.oplist, CommModel::OutOrder)
            .unwrap_or_else(|v| panic!("{v:?}"));
    }

    #[test]
    fn chain_outorder_equals_lower_bound() {
        let app = Application::independent(&[(2.0, 0.5), (3.0, 2.0), (1.0, 1.0)]);
        let g = ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap();
        let result = outorder_period_search(&app, &g, &SearchBudget::default()).unwrap();
        assert!(result.optimal);
        validate_oplist(&app, &g, &result.oplist, CommModel::OutOrder).unwrap();
    }

    #[test]
    fn infeasible_period_rejected() {
        let (app, g) = section23();
        // Below the largest single operation (a computation of 4) nothing fits.
        assert!(
            outorder_schedule_at(&app, &g, 3.5, &SearchBudget::default())
                .unwrap()
                .is_none()
        );
        // At the lower bound a schedule exists.
        let ol = outorder_schedule_at(&app, &g, 7.0, &SearchBudget::default())
            .unwrap()
            .unwrap();
        validate_oplist(&app, &g, &ol, CommModel::OutOrder).unwrap();
    }

    #[test]
    fn schedules_at_larger_periods_also_exist() {
        let (app, g) = section23();
        for lambda in [8.0, 10.0, 21.0] {
            let ol = outorder_schedule_at(&app, &g, lambda, &SearchBudget::default())
                .unwrap()
                .unwrap_or_else(|| panic!("no schedule at {lambda}"));
            validate_oplist(&app, &g, &ol, CommModel::OutOrder)
                .unwrap_or_else(|v| panic!("lambda {lambda}: {v:?}"));
        }
    }

    #[test]
    fn fork_join_outorder_between_bound_and_inorder() {
        let app = Application::independent(&[(1.0, 1.0); 5]);
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
            .unwrap();
        let result = outorder_period_search(&app, &g, &SearchBudget::default()).unwrap();
        validate_oplist(&app, &g, &result.oplist, CommModel::OutOrder).unwrap();
        assert!(result.period >= result.lower_bound - 1e-9);
    }
}
