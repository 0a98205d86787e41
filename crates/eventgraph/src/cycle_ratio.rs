//! Maximum cycle ratio and periodic schedules of timed event graphs.
//!
//! The minimum feasible period of a cyclic schedule described by a timed event
//! graph equals its **maximum cycle ratio**
//! `max_C  Σ_{t ∈ C} duration(t) / Σ_{a ∈ C} tokens(a)`.
//! This module computes it by Lawler's parametric search (binary search on the
//! candidate period `λ`, positive-cycle detection by Bellman–Ford on the arc
//! weights `duration(from) − λ·tokens`), then reads the exact ratio off an
//! explicit critical cycle so the returned value is accurate to the float
//! arithmetic of the cycle sums rather than to the binary-search tolerance.
//!
//! Every analysis runs on the buffers of a [`CycleScratch`]: the arcs
//! indexed by source transition, the depth-first search's marks and stack,
//! the Bellman–Ford distances and predecessors, and the cycles found.  A
//! caller that values many graphs keeps one scratch and calls the `_in`
//! methods, which allocate nothing once the buffers have grown to the
//! graphs' size; the plain methods are wrappers that make a fresh scratch
//! per call.

use crate::error::EventGraphError;
use crate::graph::TimedEventGraph;

/// Result of a maximum cycle ratio computation.
#[derive(Clone, Debug, PartialEq)]
pub struct CycleRatio {
    /// The maximum ratio (the minimum feasible period of the schedule).
    pub ratio: f64,
    /// The transitions of one critical cycle, in order.
    pub cycle: Vec<usize>,
}

/// What [`TimedEventGraph::max_cycle_ratio_in`] found.  A cycle it names is
/// left in the scratch ([`CycleScratch::cycle`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MaxRatio {
    /// No cycle of positive duration: every positive period is feasible.
    Unconstrained,
    /// The maximum cycle ratio, with one critical cycle in the scratch
    /// (empty in the rare case the refinement extracted none and the ratio
    /// is the bisection's bound).
    Ratio(f64),
    /// A token-free cycle of positive duration, left in the scratch: no
    /// finite period is feasible.
    ZeroTokenCycle,
}

/// A depth-first search mark.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Mark {
    White,
    Grey,
    Black,
}

/// An absent transition (no predecessor, no parent).
pub(crate) const NONE: usize = usize::MAX;

/// Reusable buffers for the analyses of timed event graphs.
///
/// One scratch serves graphs of any size; its buffers grow to the largest
/// graph analysed and are then reused, so the `_in` analyses allocate
/// nothing on graphs no larger than one seen before.
#[derive(Clone, Debug, Default)]
pub struct CycleScratch {
    /// `by_source[start[t]..start[t + 1]]` are the indices of the arcs
    /// leaving transition `t`, in insertion order (a CSR index of the arc
    /// list, rebuilt for every analysis).
    pub(crate) start: Vec<usize>,
    pub(crate) by_source: Vec<usize>,
    pub(crate) mark: Vec<Mark>,
    pub(crate) stack: Vec<(usize, usize)>,
    /// Bellman–Ford distances; the start times after a feasible
    /// [`TimedEventGraph::earliest_schedule_in`].
    dist: Vec<f64>,
    /// Each transition's predecessor: its parent in the depth-first
    /// search, then on the Bellman–Ford paths.
    pub(crate) pred: Vec<usize>,
    /// The last positive cycle found.
    found: Vec<usize>,
    /// The cycle the last analysis named.
    pub(crate) critical: Vec<usize>,
}

impl CycleScratch {
    /// Empty buffers; they grow on first use.
    pub fn new() -> Self {
        CycleScratch::default()
    }

    /// The cycle the last [`TimedEventGraph::max_cycle_ratio_in`] named:
    /// a critical cycle, or a token-free one.
    pub fn cycle(&self) -> &[usize] {
        &self.critical
    }

    /// The start times the last [`TimedEventGraph::earliest_schedule_in`]
    /// computed, meaningful when it returned `true`.
    pub fn starts(&self) -> &[f64] {
        &self.dist
    }

    /// Indexes `graph`'s arcs by source transition (stable, so each
    /// transition's arcs keep their insertion order).
    pub(crate) fn index(&mut self, graph: &TimedEventGraph) {
        let n = graph.n();
        let arcs = graph.arcs();
        let start = &mut self.start;
        start.clear();
        start.resize(n + 1, 0);
        for arc in arcs {
            start[arc.from + 1] += 1;
        }
        for t in 1..=n {
            start[t] += start[t - 1];
        }
        // Place every arc at its source's cursor, which ends one source
        // further on; shifting the cursors back restores the offsets.
        self.by_source.clear();
        self.by_source.resize(arcs.len(), 0);
        for (i, arc) in arcs.iter().enumerate() {
            self.by_source[start[arc.from]] = i;
            start[arc.from] += 1;
        }
        for t in (1..=n).rev() {
            start[t] = start[t - 1];
        }
        start[0] = 0;
    }
}

/// Tolerance used to stop the parametric binary search.
const SEARCH_TOLERANCE: f64 = 1e-12;
/// Tolerance used when comparing float weights during cycle detection.
const WEIGHT_EPSILON: f64 = 1e-12;

impl TimedEventGraph {
    /// Computes the maximum cycle ratio of the graph.
    ///
    /// Returns `Ok(None)` if the graph has no cycle constraining the period
    /// (every positive period is then feasible), and an error if a token-free
    /// cycle with positive duration exists (no finite period is feasible).
    pub fn max_cycle_ratio(&self) -> Result<Option<CycleRatio>, EventGraphError> {
        let mut scratch = CycleScratch::new();
        match self.max_cycle_ratio_in(&mut scratch)? {
            MaxRatio::Unconstrained => Ok(None),
            MaxRatio::Ratio(ratio) => Ok(Some(CycleRatio {
                ratio,
                cycle: scratch.critical,
            })),
            MaxRatio::ZeroTokenCycle => Err(EventGraphError::ZeroTokenCycle {
                cycle: scratch.critical,
            }),
        }
    }

    /// [`max_cycle_ratio`](Self::max_cycle_ratio) on `scratch`'s buffers,
    /// with the cycle it names left in [`CycleScratch::cycle`].  Only an
    /// invalid duration is an error.
    pub fn max_cycle_ratio_in(
        &self,
        scratch: &mut CycleScratch,
    ) -> Result<MaxRatio, EventGraphError> {
        self.validate()?;
        scratch.index(self);
        if self.zero_token_cycle_in(scratch) {
            return Ok(MaxRatio::ZeroTokenCycle);
        }
        scratch.critical.clear();
        if self.n() == 0 || self.arc_count() == 0 {
            return Ok(MaxRatio::Unconstrained);
        }
        // Feasible at λ = 0 means every cycle has zero total duration: nothing
        // constrains the period.
        if !self.positive_cycle_in(0.0, scratch) {
            return Ok(MaxRatio::Unconstrained);
        }
        let mut lo = 0.0f64;
        let mut hi = self.total_duration().max(1.0);
        // Make sure `hi` really is feasible (it is by construction: any cycle
        // has duration ≤ total_duration and at least one token), then shrink.
        debug_assert!(!self.positive_cycle_in(hi + 1.0, scratch));
        let mut hi_feasible = hi;
        while hi_feasible - lo > SEARCH_TOLERANCE * hi_feasible.max(1.0) {
            let mid = 0.5 * (lo + hi_feasible);
            if self.positive_cycle_in(mid, scratch) {
                lo = mid;
            } else {
                hi_feasible = mid;
            }
        }
        hi = hi_feasible;
        // Extract a critical cycle on the infeasible side and refine: the
        // extracted cycle's exact ratio is a lower bound on the optimum that
        // keeps improving until no strictly better cycle exists.
        let mut best: Option<f64> = None;
        let mut probe = lo;
        for _ in 0..16 {
            if !self.positive_cycle_in(probe, scratch) {
                break;
            }
            let ratio = self.ratio_in(&scratch.found, scratch);
            if best.is_none_or(|b| ratio > b) {
                best = Some(ratio);
                std::mem::swap(&mut scratch.found, &mut scratch.critical);
            }
            // Probe just above the best ratio found so far.
            probe = ratio * (1.0 + 1e-12) + 1e-15;
            if probe > hi {
                break;
            }
        }
        // The binary search said infeasible below `hi`; when no cycle was
        // extracted at `lo`, fall back to the search bound.
        Ok(MaxRatio::Ratio(best.unwrap_or(hi)))
    }

    /// Minimum feasible period of the schedule (0 when nothing constrains it).
    pub fn min_period(&self) -> Result<f64, EventGraphError> {
        Ok(self.max_cycle_ratio()?.map_or(0.0, |c| c.ratio))
    }

    /// Exact ratio of an explicit cycle (transition list).
    pub fn cycle_ratio_of(&self, cycle: &[usize]) -> f64 {
        let mut scratch = CycleScratch::new();
        scratch.index(self);
        self.ratio_in(cycle, &scratch)
    }

    /// [`cycle_ratio_of`](Self::cycle_ratio_of) on `scratch`'s index of
    /// this graph's arcs.
    fn ratio_in(&self, cycle: &[usize], scratch: &CycleScratch) -> f64 {
        if cycle.is_empty() {
            return 0.0;
        }
        let duration: f64 = cycle.iter().map(|&t| self.duration(t)).sum();
        // Sum the tokens along consecutive arcs of the cycle, choosing for
        // every hop the arc with the fewest tokens (parallel arcs are allowed).
        let mut tokens = 0u64;
        for w in 0..cycle.len() {
            let from = cycle[w];
            let to = cycle[(w + 1) % cycle.len()];
            let min_tokens = scratch.by_source[scratch.start[from]..scratch.start[from + 1]]
                .iter()
                .map(|&i| &self.arcs()[i])
                .filter(|a| a.to == to)
                .map(|a| a.tokens)
                .min()
                .unwrap_or(0);
            tokens += u64::from(min_tokens);
        }
        if tokens == 0 {
            f64::INFINITY
        } else {
            duration / tokens as f64
        }
    }

    /// Searches for a cycle with strictly positive weight under the parametric
    /// weights `duration(from) − λ·tokens`; returns its transitions if found.
    ///
    /// A positive cycle exists iff the period `λ` is *infeasible*.
    pub fn positive_cycle(&self, lambda: f64) -> Option<Vec<usize>> {
        let mut scratch = CycleScratch::new();
        self.positive_cycle_in(lambda, &mut scratch)
            .then_some(scratch.found)
    }

    /// [`positive_cycle`](Self::positive_cycle) on `scratch`'s buffers:
    /// `true` when a positive cycle exists, left in `scratch.found`.
    fn positive_cycle_in(&self, lambda: f64, scratch: &mut CycleScratch) -> bool {
        let n = self.n();
        if n == 0 {
            return false;
        }
        let CycleScratch {
            dist, pred, found, ..
        } = scratch;
        dist.clear();
        dist.resize(n, 0.0);
        pred.clear();
        pred.resize(n, NONE);
        let mut updated_node = NONE;
        for _pass in 0..n {
            updated_node = NONE;
            for arc in self.arcs() {
                let w = self.duration(arc.from) - lambda * f64::from(arc.tokens);
                if dist[arc.from] + w > dist[arc.to] + WEIGHT_EPSILON {
                    dist[arc.to] = dist[arc.from] + w;
                    pred[arc.to] = arc.from;
                    updated_node = arc.to;
                }
            }
            if updated_node == NONE {
                return false;
            }
        }
        // A relaxation happened on the n-th pass: walk the predecessor chain n
        // steps to land inside a positive cycle, then collect it.
        let mut v = updated_node;
        for _ in 0..n {
            v = pred[v];
        }
        let start = v;
        found.clear();
        found.push(start);
        let mut cur = pred[start];
        while cur != start {
            found.push(cur);
            cur = pred[cur];
        }
        found.reverse();
        true
    }

    /// Earliest-start schedule of one iteration for a given period `λ`:
    /// start times `s` such that `s[to] ≥ s[from] + duration(from) − λ·tokens`
    /// for every arc, normalised so the earliest start is 0.
    ///
    /// Returns `None` if `λ` is infeasible (smaller than the maximum cycle ratio).
    pub fn earliest_schedule(&self, lambda: f64) -> Option<Vec<f64>> {
        let mut scratch = CycleScratch::new();
        self.earliest_schedule_in(lambda, &mut scratch)
            .then_some(scratch.dist)
    }

    /// [`earliest_schedule`](Self::earliest_schedule) on `scratch`'s
    /// buffers: `true` when `λ` is feasible, the start times then left in
    /// [`CycleScratch::starts`].
    pub fn earliest_schedule_in(&self, lambda: f64, scratch: &mut CycleScratch) -> bool {
        let n = self.n();
        let dist = &mut scratch.dist;
        dist.clear();
        dist.resize(n, 0.0);
        // With no transitions no pass runs, and every period is feasible.
        let mut changed = false;
        for _pass in 0..n {
            changed = false;
            for arc in self.arcs() {
                let w = self.duration(arc.from) - lambda * f64::from(arc.tokens);
                if dist[arc.from] + w > dist[arc.to] + WEIGHT_EPSILON {
                    dist[arc.to] = dist[arc.from] + w;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        if changed {
            // Still relaxing after n passes: positive cycle, λ infeasible.
            return false;
        }
        let min = dist.iter().copied().fold(f64::INFINITY, f64::min);
        if min.is_finite() && min != 0.0 {
            for d in dist.iter_mut() {
                *d -= min;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Single cycle a -> b -> a with 2 tokens total: ratio = (1+2)/2.
    #[test]
    fn single_cycle_ratio() {
        let mut g = TimedEventGraph::with_durations(vec![1.0, 2.0]);
        g.add_arc(0, 1, 1).unwrap();
        g.add_arc(1, 0, 1).unwrap();
        let r = g.max_cycle_ratio().unwrap().unwrap();
        assert!((r.ratio - 1.5).abs() < 1e-9);
        assert_eq!(r.cycle.len(), 2);
        assert!((g.min_period().unwrap() - 1.5).abs() < 1e-9);
    }

    /// Two cycles with different ratios: the larger one wins.
    #[test]
    fn two_cycles_max_wins() {
        let mut g = TimedEventGraph::with_durations(vec![3.0, 1.0, 2.0, 2.0]);
        // cycle A: 0 -> 1 -> 0, 2 tokens, duration 4, ratio 2
        g.add_arc(0, 1, 1).unwrap();
        g.add_arc(1, 0, 1).unwrap();
        // cycle B: 2 -> 3 -> 2, 1 token, duration 4, ratio 4
        g.add_arc(2, 3, 0).unwrap();
        g.add_arc(3, 2, 1).unwrap();
        let r = g.max_cycle_ratio().unwrap().unwrap();
        assert!((r.ratio - 4.0).abs() < 1e-9);
        assert_eq!(r.cycle.len(), 2);
        assert!(r.cycle.contains(&2) && r.cycle.contains(&3));
    }

    /// A fractional critical ratio is recovered exactly from the cycle sums.
    #[test]
    fn fractional_ratio_exact() {
        let mut g = TimedEventGraph::with_durations(vec![7.0, 6.0, 7.0]);
        // one cycle over the three transitions, 3 tokens: ratio 20/3
        g.add_arc(0, 1, 1).unwrap();
        g.add_arc(1, 2, 1).unwrap();
        g.add_arc(2, 0, 1).unwrap();
        let r = g.max_cycle_ratio().unwrap().unwrap();
        assert_eq!(r.ratio, 20.0 / 3.0);
    }

    #[test]
    fn acyclic_graph_unconstrained() {
        let mut g = TimedEventGraph::with_durations(vec![1.0, 1.0, 1.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(1, 2, 0).unwrap();
        assert_eq!(g.max_cycle_ratio().unwrap(), None);
        assert_eq!(g.min_period().unwrap(), 0.0);
    }

    #[test]
    fn zero_token_cycle_is_an_error() {
        let mut g = TimedEventGraph::with_durations(vec![1.0, 1.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(1, 0, 0).unwrap();
        assert!(matches!(
            g.max_cycle_ratio(),
            Err(EventGraphError::ZeroTokenCycle { .. })
        ));
    }

    #[test]
    fn self_loop_cycle() {
        let mut g = TimedEventGraph::with_durations(vec![5.0]);
        g.add_arc(0, 0, 2).unwrap();
        let r = g.max_cycle_ratio().unwrap().unwrap();
        assert!((r.ratio - 2.5).abs() < 1e-9);
        assert_eq!(r.cycle, vec![0]);
    }

    #[test]
    fn earliest_schedule_respects_constraints() {
        let mut g = TimedEventGraph::with_durations(vec![2.0, 3.0, 1.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(1, 2, 0).unwrap();
        g.add_arc(2, 0, 1).unwrap();
        // ratio = 6 / 1 = 6
        let r = g.min_period().unwrap();
        assert!((r - 6.0).abs() < 1e-9);
        let s = g.earliest_schedule(6.0).unwrap();
        assert!(s[1] >= s[0] + 2.0 - 1e-9);
        assert!(s[2] >= s[1] + 3.0 - 1e-9);
        assert!(s[0] >= s[2] + 1.0 - 6.0 - 1e-9);
        assert!(g.earliest_schedule(5.9).is_none());
        // A larger period is also feasible.
        assert!(g.earliest_schedule(10.0).is_some());
    }

    #[test]
    fn a_graph_with_no_transitions_is_feasible_at_every_period() {
        let g = TimedEventGraph::new();
        for lambda in [0.0, 1.0, 1e9] {
            assert_eq!(g.earliest_schedule(lambda), Some(vec![]));
        }
    }

    #[test]
    fn parallel_arcs_use_fewest_tokens() {
        let mut g = TimedEventGraph::with_durations(vec![4.0, 4.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(0, 1, 3).unwrap();
        g.add_arc(1, 0, 1).unwrap();
        // Tightest cycle uses the 0-token arc: ratio 8 / 1 = 8.
        let r = g.max_cycle_ratio().unwrap().unwrap();
        assert!((r.ratio - 8.0).abs() < 1e-9);
    }

    #[test]
    fn empty_graph() {
        let g = TimedEventGraph::new();
        assert_eq!(g.max_cycle_ratio().unwrap(), None);
    }
}
