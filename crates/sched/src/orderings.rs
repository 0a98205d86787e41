//! Communication orderings.
//!
//! Under the one-port models a server must serialise its communications; the
//! *order* in which it performs its receptions and its emissions is the
//! combinatorial heart of the orchestration problems (Theorems 1 and 3 of the
//! paper show that choosing these orders optimally is NP-hard for the
//! non-overlap models).  A [`CommOrderings`] value fixes one such choice for
//! every server.
//!
//! The one-port period and latency searches share one enumerate-and-climb
//! routine: `OrderingSpace::first_minimum` enumerates a space that fits
//! the ordering budget, and `climb_orderings` hill-climbs adjacent swaps
//! from the topological ordering beyond it.

use fsw_core::{in_edges, out_edges, CoreResult, EdgeRef, ExecutionGraph, ServiceId};

use crate::par::{fold_min, par_ranges, Exec};

/// A fixed ordering of the incoming and outgoing communications of every server.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommOrderings {
    /// `incoming[k]` lists the plan edges received by server `k`, in reception order.
    pub incoming: Vec<Vec<EdgeRef>>,
    /// `outgoing[k]` lists the plan edges sent by server `k`, in emission order.
    pub outgoing: Vec<Vec<EdgeRef>>,
}

impl CommOrderings {
    /// The natural ordering: edges sorted by the identifier of the peer service.
    pub fn natural(graph: &ExecutionGraph) -> Self {
        let n = graph.n();
        CommOrderings {
            incoming: (0..n).map(|k| in_edges(graph, k)).collect(),
            outgoing: (0..n).map(|k| out_edges(graph, k)).collect(),
        }
    }

    /// A deadlock-free ordering: every server sorts its communications by the
    /// topological position of the peer service.  Because every sequence
    /// constraint then strictly increases the global (sender position,
    /// receiver position) key, no token-free cycle can appear, whatever the
    /// execution graph.
    pub fn topological(graph: &ExecutionGraph) -> Self {
        let order = graph
            .topological_order()
            .expect("execution graphs are acyclic");
        let mut position = vec![0usize; graph.n()];
        for (pos, &k) in order.iter().enumerate() {
            position[k] = pos;
        }
        let key = |e: &EdgeRef| -> (usize, usize) {
            let sender = e.sender().map_or(0, |s| position[s] + 1);
            let receiver = e.receiver().map_or(usize::MAX, |r| position[r] + 1);
            (sender, receiver)
        };
        let mut ords = CommOrderings::natural(graph);
        for lists in [&mut ords.incoming, &mut ords.outgoing] {
            for list in lists.iter_mut() {
                list.sort_by_key(key);
            }
        }
        ords
    }

    /// Number of servers covered.
    pub fn n(&self) -> usize {
        self.incoming.len()
    }

    /// Checks that the orderings are permutations of the plan edges of `graph`.
    pub fn is_consistent_with(&self, graph: &ExecutionGraph) -> bool {
        if self.incoming.len() != graph.n() || self.outgoing.len() != graph.n() {
            return false;
        }
        for k in 0..graph.n() {
            let mut expected = in_edges(graph, k);
            let mut got = self.incoming[k].clone();
            expected.sort();
            got.sort();
            if expected != got {
                return false;
            }
            let mut expected = out_edges(graph, k);
            let mut got = self.outgoing[k].clone();
            expected.sort();
            got.sort();
            if expected != got {
                return false;
            }
        }
        true
    }

    /// Total number of distinct orderings for `graph`
    /// (`Π_k |in(k)|! · |out(k)|!`), saturating at `usize::MAX`.
    pub fn search_space_size(graph: &ExecutionGraph) -> usize {
        let mut total = 1usize;
        for k in 0..graph.n() {
            for degree in [in_edges(graph, k).len(), out_edges(graph, k).len()] {
                for f in 2..=degree {
                    total = total.saturating_mul(f);
                }
            }
        }
        total
    }

    /// Swaps two adjacent entries of one server's incoming or outgoing list
    /// (used by local search).  Returns `false` if the position is out of range.
    pub fn swap_adjacent(&mut self, server: ServiceId, outgoing: bool, pos: usize) -> bool {
        let list = if outgoing {
            &mut self.outgoing[server]
        } else {
            &mut self.incoming[server]
        };
        if pos + 1 >= list.len() {
            return false;
        }
        list.swap(pos, pos + 1);
        true
    }
}

/// The communication-ordering space of an execution graph, addressable by
/// index without materialising it.
///
/// Index `i` is the `i`-th step of a mixed-radix odometer over per-server
/// permutation slots, least-significant slot first, so every search visits
/// candidates in one fixed order — a prerequisite for bit-identical
/// first-minimum-wins reductions.  Nothing materialises the space: an
/// exhaustive ordering search over thousands of candidates per graph
/// decodes each one from its index.
pub struct OrderingSpace {
    n: usize,
    /// `2n` slots: the permutations of every server's incoming edge list,
    /// then of every server's outgoing edge list.
    per_slot: Vec<Vec<Vec<EdgeRef>>>,
    size: usize,
}

impl OrderingSpace {
    /// Builds the space accessor, or `None` when the space exceeds `limit`.
    pub fn new(graph: &ExecutionGraph, limit: usize) -> Option<Self> {
        if CommOrderings::search_space_size(graph) > limit {
            return None;
        }
        let n = graph.n();
        let mut per_slot: Vec<Vec<Vec<EdgeRef>>> = Vec::with_capacity(2 * n);
        for k in 0..n {
            per_slot.push(permutations(&in_edges(graph, k)));
        }
        for k in 0..n {
            per_slot.push(permutations(&out_edges(graph, k)));
        }
        let size = per_slot.iter().map(Vec::len).product();
        Some(OrderingSpace { n, per_slot, size })
    }

    /// Number of distinct orderings.
    pub fn len(&self) -> usize {
        self.size
    }

    /// `true` when the space is empty (never for a well-formed graph).
    pub fn is_empty(&self) -> bool {
        self.size == 0
    }

    /// The `index`-th ordering of the enumeration sequence.
    pub fn get(&self, index: usize) -> CommOrderings {
        debug_assert!(index < self.size);
        let mut rest = index;
        let mut pick = |slot: &Vec<Vec<EdgeRef>>| {
            let digit = rest % slot.len();
            rest /= slot.len();
            slot[digit].clone()
        };
        let incoming: Vec<Vec<EdgeRef>> = self.per_slot[..self.n].iter().map(&mut pick).collect();
        let outgoing: Vec<Vec<EdgeRef>> = self.per_slot[self.n..].iter().map(&mut pick).collect();
        CommOrderings { incoming, outgoing }
    }

    /// Overwrites `ords`, an ordering of this space (every list already
    /// holding its slot's edge count), with the `index`-th ordering, in
    /// place and without allocating.
    fn decode_into(&self, index: usize, ords: &mut CommOrderings) {
        debug_assert!(index < self.size);
        let mut rest = index;
        let lists = ords.incoming.iter_mut().chain(ords.outgoing.iter_mut());
        for (slot, list) in self.per_slot.iter().zip(lists) {
            list.copy_from_slice(&slot[rest % slot.len()]);
            rest /= slot.len();
        }
    }

    /// The first minimum of an evaluation over the space, in enumeration
    /// order, and whether every ordering was examined.
    ///
    /// The enumeration is split over `exec` workers in contiguous index
    /// ranges whose winners fold with the serial tie-break, so the result
    /// is bit-identical to the serial run; `exec`'s deadline stops it
    /// early.  Each worker calls `worker()` once for its evaluation `eval`,
    /// which may own scratch buffers that live as long as the worker, and
    /// decodes every ordering of its range into one reused
    /// [`CommOrderings`]; only the winner is built afresh.
    /// `eval(ords, bar)` values one ordering against `bar`, the tighter of
    /// `cutoff` and the worker's best so far.  It returns `None` for an
    /// infeasible (dead-locked) ordering or one that provably ends strictly
    /// above `bar`, and the exact value otherwise — so ties are valued in
    /// full and the first minimum wins.
    pub(crate) fn first_minimum<W, E>(
        &self,
        exec: Exec,
        cutoff: f64,
        worker: W,
    ) -> (Option<(f64, CommOrderings)>, bool)
    where
        W: Fn() -> E + Sync,
        E: FnMut(&CommOrderings, f64) -> Option<f64>,
    {
        let parts = par_ranges(exec.effective_threads(), self.len(), |range| {
            let mut best: Option<(f64, usize)> = None;
            let mut complete = true;
            let mut eval = worker();
            // Built by `get` (the space is never empty), so every list has
            // exactly its slot's length and capacity; `decode_into` then
            // only copies.
            let mut ords = self.get(range.start);
            for i in range {
                if exec.expired() {
                    complete = false;
                    break;
                }
                self.decode_into(i, &mut ords);
                let bar = best.map_or(cutoff, |(b, _)| cutoff.min(b));
                let Some(value) = eval(&ords, bar) else {
                    continue;
                };
                // No early exit at the structural lower bound: computed
                // values can land an ulp *below* it (different float
                // paths), so stopping there could miss the bitwise minimum
                // and break serial/parallel equivalence.
                if best.is_none_or(|(b, _)| value < b) {
                    best = Some((value, i));
                }
            }
            (best, complete)
        });
        let complete = parts.iter().all(|(_, c)| *c);
        let best = fold_min(parts.into_iter().map(|(b, _)| b).collect());
        (best.map(|(value, i)| (value, self.get(i))), complete)
    }
}

/// Hill climbing over adjacent swaps from the (always feasible) topological
/// ordering: every server's incoming then outgoing list is tried position by
/// position, and a swap is kept when it improves the value by more than
/// `1e-12`.  Stops at a local minimum or once `exec`'s deadline has passed.
///
/// An error valuing the starting ordering propagates; candidates `eval`
/// rejects (dead-locked orderings) are skipped.  Returns the final value and
/// ordering.
pub(crate) fn climb_orderings<F>(
    graph: &ExecutionGraph,
    exec: Exec,
    mut eval: F,
) -> CoreResult<(f64, CommOrderings)>
where
    F: FnMut(&CommOrderings) -> CoreResult<f64>,
{
    let mut current = CommOrderings::topological(graph);
    let mut current_value = eval(&current)?;
    let mut improved = true;
    while improved && !exec.expired() {
        improved = false;
        for server in 0..graph.n() {
            for outgoing in [false, true] {
                let len = if outgoing {
                    current.outgoing[server].len()
                } else {
                    current.incoming[server].len()
                };
                for pos in 0..len.saturating_sub(1) {
                    let mut candidate = current.clone();
                    candidate.swap_adjacent(server, outgoing, pos);
                    let Ok(value) = eval(&candidate) else {
                        continue;
                    };
                    if value + 1e-12 < current_value {
                        current = candidate;
                        current_value = value;
                        improved = true;
                    }
                }
            }
        }
    }
    Ok((current_value, current))
}

/// All permutations of a slice (in lexicographic-ish order).
pub(crate) fn permutations<T: Clone>(items: &[T]) -> Vec<Vec<T>> {
    if items.is_empty() {
        return vec![Vec::new()];
    }
    let mut result = Vec::new();
    let mut current = Vec::with_capacity(items.len());
    let mut used = vec![false; items.len()];
    fn rec<T: Clone>(
        items: &[T],
        used: &mut [bool],
        current: &mut Vec<T>,
        result: &mut Vec<Vec<T>>,
    ) {
        if current.len() == items.len() {
            result.push(current.clone());
            return;
        }
        for i in 0..items.len() {
            if !used[i] {
                used[i] = true;
                current.push(items[i].clone());
                rec(items, used, current, result);
                current.pop();
                used[i] = false;
            }
        }
    }
    rec(items, &mut used, &mut current, &mut result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fork_join() -> ExecutionGraph {
        // 0 -> {1,2,3} -> 4
        ExecutionGraph::from_edges(5, &[(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]).unwrap()
    }

    #[test]
    fn natural_orderings_are_consistent() {
        let g = fork_join();
        let ords = CommOrderings::natural(&g);
        assert!(ords.is_consistent_with(&g));
        assert_eq!(ords.outgoing[0].len(), 3);
        assert_eq!(ords.incoming[4].len(), 3);
        assert_eq!(ords.incoming[0], vec![EdgeRef::Input(0)]);
        assert_eq!(ords.outgoing[4], vec![EdgeRef::Output(4)]);
    }

    #[test]
    fn search_space_size_counts_permutations() {
        let g = fork_join();
        // 3! at the fork's output, 3! at the join's input, everything else degree 1.
        assert_eq!(CommOrderings::search_space_size(&g), 36);
        let chain = ExecutionGraph::chain_of(4, &[0, 1, 2, 3]).unwrap();
        assert_eq!(CommOrderings::search_space_size(&chain), 1);
    }

    #[test]
    fn ordering_space_respects_limit() {
        let g = fork_join();
        let space = OrderingSpace::new(&g, 100).unwrap();
        assert_eq!(space.len(), 36);
        assert_eq!(space.len(), CommOrderings::search_space_size(&g));
        let all: Vec<CommOrderings> = (0..space.len()).map(|i| space.get(i)).collect();
        assert!(all.iter().all(|o| o.is_consistent_with(&g)));
        // The space addresses pairwise distinct orderings.
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "indices {i} and {j}");
            }
        }
        assert!(OrderingSpace::new(&g, 10).is_none());
    }

    #[test]
    fn swap_adjacent_keeps_consistency() {
        let g = fork_join();
        let mut ords = CommOrderings::natural(&g);
        assert!(ords.swap_adjacent(0, true, 0));
        assert!(ords.is_consistent_with(&g));
        assert!(!ords.swap_adjacent(0, true, 5));
        assert!(!ords.swap_adjacent(1, false, 0));
    }

    #[test]
    fn permutation_helper() {
        assert_eq!(permutations::<u32>(&[]).len(), 1);
        assert_eq!(permutations(&[1]).len(), 1);
        assert_eq!(permutations(&[1, 2, 3]).len(), 6);
    }
}
