//! Timed event graphs (timed marked graphs).
//!
//! A timed event graph is a Petri net in which every place has exactly one
//! input and one output transition; it is represented here directly as a
//! multigraph whose nodes are **transitions** (each with a firing duration)
//! and whose arcs carry an initial **token count**.
//!
//! Cyclic schedules map naturally onto this structure: transition `t` models a
//! recurring operation (a computation or a communication), an arc `s → t`
//! with `h` tokens models the *uniform precedence constraint*
//! `start_t(n) ≥ start_s(n − h) + duration_s` for all iterations `n`.
//! The minimum feasible period of such a system is its **maximum cycle
//! ratio**: the maximum over all directed cycles of (total duration of the
//! transitions on the cycle) / (total token count of the cycle).

use crate::cycle_ratio::{CycleScratch, Mark, NONE};
use crate::error::EventGraphError;

/// An arc of a timed event graph.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Arc {
    /// Source transition.
    pub from: usize,
    /// Target transition.
    pub to: usize,
    /// Initial marking of the place between `from` and `to` (in scheduling
    /// terms: how many iterations earlier the source occurrence is).
    pub tokens: u32,
}

/// A timed event graph.
///
/// The arcs live in one list, in insertion order; the analyses that walk
/// them by source transition index that list on the buffers of a
/// [`CycleScratch`].  So a caller that values many arc sets over the same
/// transitions can [`clear_arcs`](Self::clear_arcs) and re-add them: once
/// the list and the scratch have grown, nothing allocates.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TimedEventGraph {
    durations: Vec<f64>,
    arcs: Vec<Arc>,
}

impl TimedEventGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        TimedEventGraph::default()
    }

    /// Creates a graph with the given transition durations and no arcs.
    pub fn with_durations(durations: Vec<f64>) -> Self {
        TimedEventGraph {
            durations,
            arcs: Vec::new(),
        }
    }

    /// Adds a transition with the given firing duration and returns its index.
    pub fn add_transition(&mut self, duration: f64) -> usize {
        self.durations.push(duration);
        self.durations.len() - 1
    }

    /// Adds an arc `from → to` carrying `tokens` initial tokens.
    pub fn add_arc(&mut self, from: usize, to: usize, tokens: u32) -> Result<(), EventGraphError> {
        let n = self.durations.len();
        if from >= n {
            return Err(EventGraphError::InvalidTransition { id: from, n });
        }
        if to >= n {
            return Err(EventGraphError::InvalidTransition { id: to, n });
        }
        self.arcs.push(Arc { from, to, tokens });
        Ok(())
    }

    /// Removes every arc, keeping the transitions and the arc list's
    /// capacity.
    pub fn clear_arcs(&mut self) {
        self.arcs.clear();
    }

    /// Reserves room for at least `additional` more arcs.
    pub fn reserve_arcs(&mut self, additional: usize) {
        self.arcs.reserve_exact(additional);
    }

    /// Number of transitions.
    pub fn n(&self) -> usize {
        self.durations.len()
    }

    /// Number of arcs.
    pub fn arc_count(&self) -> usize {
        self.arcs.len()
    }

    /// Firing duration of a transition.
    pub fn duration(&self, t: usize) -> f64 {
        self.durations[t]
    }

    /// All arcs, in insertion order.
    pub fn arcs(&self) -> &[Arc] {
        &self.arcs
    }

    /// Arcs leaving a transition, in insertion order.
    pub fn out_arcs(&self, t: usize) -> impl Iterator<Item = &Arc> + '_ {
        self.arcs.iter().filter(move |arc| arc.from == t)
    }

    /// Arcs entering a transition, in insertion order.
    pub fn in_arcs(&self, t: usize) -> impl Iterator<Item = &Arc> + '_ {
        self.arcs.iter().filter(move |arc| arc.to == t)
    }

    /// Checks that every duration is finite and non-negative.
    pub fn validate(&self) -> Result<(), EventGraphError> {
        for (id, &d) in self.durations.iter().enumerate() {
            let duration_ok = d.is_finite() && d >= 0.0;
            if !duration_ok {
                return Err(EventGraphError::InvalidDuration { id, duration: d });
            }
        }
        Ok(())
    }

    /// Total duration of all transitions (a trivial upper bound on any cycle's duration).
    pub fn total_duration(&self) -> f64 {
        self.durations.iter().sum()
    }

    /// Searches for a cycle made only of zero-token arcs whose total transition
    /// duration is strictly positive; returns it if one exists.
    ///
    /// Such a cycle makes the period infinite (the operations of one single
    /// iteration depend circularly on each other).
    pub fn find_zero_token_cycle(&self) -> Option<Vec<usize>> {
        let mut scratch = CycleScratch::new();
        scratch.index(self);
        self.zero_token_cycle_in(&mut scratch)
            .then_some(scratch.critical)
    }

    /// [`find_zero_token_cycle`](Self::find_zero_token_cycle) on `scratch`,
    /// which must index this graph's arcs: `true` when such a cycle exists,
    /// left in `scratch.critical`.
    pub(crate) fn zero_token_cycle_in(&self, scratch: &mut CycleScratch) -> bool {
        // DFS over the subgraph of zero-token arcs looking for any cycle, then
        // check whether its duration is positive.  Zero-duration cycles are
        // harmless (degenerate simultaneous events) and are ignored.
        let CycleScratch {
            start,
            by_source,
            mark,
            pred: parent,
            stack,
            critical,
            ..
        } = scratch;
        let n = self.n();
        mark.clear();
        mark.resize(n, Mark::White);
        parent.clear();
        parent.resize(n, NONE);
        for root in 0..n {
            if mark[root] != Mark::White {
                continue;
            }
            // Iterative DFS with an explicit stack of (node, next arc index).
            stack.clear();
            stack.push((root, 0));
            mark[root] = Mark::Grey;
            while let Some(&(v, next)) = stack.last() {
                let arcs = &by_source[start[v]..start[v + 1]];
                if next >= arcs.len() {
                    mark[v] = Mark::Black;
                    stack.pop();
                    continue;
                }
                stack.last_mut().expect("non-empty stack").1 += 1;
                let arc = &self.arcs[arcs[next]];
                if arc.tokens > 0 {
                    continue;
                }
                let w = arc.to;
                match mark[w] {
                    Mark::White => {
                        mark[w] = Mark::Grey;
                        parent[w] = v;
                        stack.push((w, 0));
                    }
                    Mark::Grey => {
                        // Found a cycle w -> ... -> v -> w.
                        critical.clear();
                        critical.push(v);
                        let mut cur = v;
                        while cur != w {
                            cur = parent[cur];
                            critical.push(cur);
                        }
                        critical.reverse();
                        let dur: f64 = critical.iter().map(|&t| self.durations[t]).sum();
                        if dur > 0.0 {
                            return true;
                        }
                    }
                    Mark::Black => {}
                }
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_query() {
        let mut g = TimedEventGraph::new();
        let a = g.add_transition(1.0);
        let b = g.add_transition(2.0);
        g.add_arc(a, b, 0).unwrap();
        g.add_arc(b, a, 1).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.arc_count(), 2);
        assert_eq!(g.duration(b), 2.0);
        assert_eq!(g.out_arcs(a).count(), 1);
        assert_eq!(g.in_arcs(a).count(), 1);
        assert_eq!(g.total_duration(), 3.0);
        g.validate().unwrap();
    }

    #[test]
    fn invalid_arc_rejected() {
        let mut g = TimedEventGraph::with_durations(vec![1.0]);
        assert_eq!(
            g.add_arc(0, 3, 0),
            Err(EventGraphError::InvalidTransition { id: 3, n: 1 })
        );
    }

    #[test]
    fn invalid_duration_detected() {
        let g = TimedEventGraph::with_durations(vec![1.0, -2.0]);
        assert_eq!(
            g.validate(),
            Err(EventGraphError::InvalidDuration {
                id: 1,
                duration: -2.0
            })
        );
    }

    #[test]
    fn zero_token_cycle_detection() {
        let mut g = TimedEventGraph::with_durations(vec![1.0, 1.0, 1.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(1, 2, 0).unwrap();
        g.add_arc(2, 0, 1).unwrap();
        assert!(g.find_zero_token_cycle().is_none());
        // Close the token-free cycle.
        g.add_arc(2, 0, 0).unwrap();
        let cycle = g.find_zero_token_cycle().unwrap();
        assert_eq!(cycle.len(), 3);
    }

    #[test]
    fn zero_duration_token_free_cycle_is_harmless() {
        let mut g = TimedEventGraph::with_durations(vec![0.0, 0.0]);
        g.add_arc(0, 1, 0).unwrap();
        g.add_arc(1, 0, 0).unwrap();
        assert!(g.find_zero_token_cycle().is_none());
    }
}
