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
//! from the topological ordering beyond it.  Neither materialises
//! anything per ordering: the enumeration steps one decoded ordering per
//! worker through the space like an odometer, the climb swaps in place,
//! and both searches value each ordering on buffers their worker keeps
//! (`PlanOperations` numbers the operations an ordering sequences).

use fsw_core::{
    in_edges, out_edges, plan_edges, Application, CoreResult, EdgeRef, ExecutionGraph, Interval,
    OperationList, PlanMetrics, ServiceId,
};

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
    /// (`Π_k |in(k)|! · |out(k)|!`), or `None` when it exceeds `usize::MAX`
    /// (a 21-way fork already does on a 64-bit target).
    pub fn search_space_size(graph: &ExecutionGraph) -> Option<usize> {
        let mut total = 1usize;
        for k in 0..graph.n() {
            // An entry node receives its input edge, an exit node sends its
            // output edge: every list holds at least one edge.
            for degree in [graph.preds(k).len(), graph.succs(k).len()] {
                for f in 2..=degree {
                    total = total.checked_mul(f)?;
                }
            }
        }
        Some(total)
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

    /// The `2n` per-server lists, the ordering space's slots in order: every
    /// server's incoming list, then every server's outgoing list.
    fn slots_mut(&mut self) -> impl Iterator<Item = &mut Vec<EdgeRef>> {
        self.incoming.iter_mut().chain(self.outgoing.iter_mut())
    }
}

/// The communication-ordering space of an execution graph, addressable by
/// index without materialising it.
///
/// Every server's incoming list and every server's outgoing list is one
/// *slot*: the incoming lists of servers `0..n`, then their outgoing lists.
/// A slot's digit ranks the permutations of its natural list
/// ([`CommOrderings::natural`]) in lexicographic order of positions, and
/// index `i` reads the `2n` digits as a mixed-radix number, least-significant
/// slot first.  So every search visits candidates in one fixed order — a
/// prerequisite for bit-identical first-minimum-wins reductions.
///
/// Nothing is materialised: the space keeps its graph and its size,
/// [`get`](Self::get) unranks an index from the natural ordering, and an
/// exhaustive search decodes the first index of its range once and then
/// steps an odometer — the next lexicographic permutation of the
/// least-significant slot, carrying into the next slot whenever a slot
/// wraps back to its natural order — so a search worker allocates nothing
/// after its first decode.
pub struct OrderingSpace<'a> {
    graph: &'a ExecutionGraph,
    size: usize,
}

impl<'a> OrderingSpace<'a> {
    /// Builds the space accessor, or `None` when the space exceeds `limit`
    /// (or does not fit a `usize`).
    pub fn new(graph: &'a ExecutionGraph, limit: usize) -> Option<Self> {
        let size = CommOrderings::search_space_size(graph).filter(|&size| size <= limit)?;
        Some(OrderingSpace { graph, size })
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
        let mut ords = CommOrderings::natural(self.graph);
        let mut rest = index;
        for list in ords.slots_mut() {
            let radix = factorial(list.len());
            unrank(list, rest % radix);
            rest /= radix;
        }
        ords
    }

    /// Steps `ords`, an ordering of this space, to the next ordering of the
    /// enumeration sequence in place (the last one wraps to the first).
    fn step(ords: &mut CommOrderings) {
        for list in ords.slots_mut() {
            if next_permutation(list) {
                return;
            }
        }
    }

    /// The first minimum of an evaluation over the space, in enumeration
    /// order, and whether every ordering was examined.
    ///
    /// The enumeration is split over `exec` workers in contiguous index
    /// ranges whose winners fold with the serial tie-break, so the result
    /// is bit-identical to the serial run; `exec`'s deadline stops it
    /// early.  Each worker calls `worker()` once for its evaluation `eval`,
    /// which may own scratch buffers that live as long as the worker,
    /// decodes the first ordering of its range and steps that one
    /// [`CommOrderings`] through the rest; only the winner is decoded
    /// afresh.  `eval(ords, bar)` values one ordering against `bar`, the
    /// tighter of `cutoff` and the worker's best so far.  It returns `None`
    /// for an infeasible (dead-locked) ordering or one that provably ends
    /// strictly above `bar`, and the exact value otherwise — so ties are
    /// valued in full and the first minimum wins.
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
            let first = range.start;
            let mut ords = self.get(first);
            for i in range {
                if exec.expired() {
                    complete = false;
                    break;
                }
                if i != first {
                    Self::step(&mut ords);
                }
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

/// `m!`.  Every slot's factorial divides the size of a space that fits a
/// `usize`, so it fits too.
fn factorial(m: usize) -> usize {
    (2..=m).product()
}

/// Rearranges `list`, in ascending order, into the `digit`-th of its
/// permutations in lexicographic order (the factorial number system).
///
/// A natural list is sorted by peer id, hence by `EdgeRef`, so the
/// lexicographic order of positions in it is the order of the edges
/// themselves, which [`next_permutation`] steps through.
fn unrank(list: &mut [EdgeRef], mut digit: usize) {
    debug_assert!(list.windows(2).all(|w| w[0] < w[1]));
    let len = list.len();
    for pos in 0..len {
        let block = factorial(len - 1 - pos);
        let pick = digit / block;
        digit %= block;
        // Bring the `pick`-th remaining edge to `pos`, keeping the rest
        // ascending.
        list[pos..=pos + pick].rotate_right(1);
    }
}

/// Advances `list` to its next permutation in lexicographic order; the last
/// permutation wraps to the ascending one and returns `false`.
fn next_permutation(list: &mut [EdgeRef]) -> bool {
    let Some(i) = list.windows(2).rposition(|w| w[0] < w[1]) else {
        list.reverse();
        return false;
    };
    let pivot = list[i];
    let j = list
        .iter()
        .rposition(|&e| e > pivot)
        .expect("the edge after the pivot is larger");
    list.swap(i, j);
    list[i + 1..].reverse();
    true
}

/// Hill climbing over adjacent swaps from the (always feasible) topological
/// ordering: every server's incoming then outgoing list is tried position by
/// position, and a swap is kept when it improves the value by more than
/// `1e-12`.  Stops at a local minimum or once `exec`'s deadline has passed.
/// Each candidate is the current ordering with one swap made in place and
/// undone unless kept.
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
                    current.swap_adjacent(server, outgoing, pos);
                    match eval(&current) {
                        Ok(value) if value + 1e-12 < current_value => {
                            current_value = value;
                            improved = true;
                        }
                        _ => {
                            current.swap_adjacent(server, outgoing, pos);
                        }
                    }
                }
            }
        }
    }
    Ok((current_value, current))
}

/// Marks an absent successor operation.
pub(crate) const NO_OP: usize = usize::MAX;

/// Marks a plan edge missing from [`PlanOperations`]' table.
const NO_EDGE: u32 = u32::MAX;

/// The operations a communication ordering sequences, for one
/// `(application, graph)` pair: one per plan edge in [`plan_edges`] order (a
/// transfer is a single operation, shared by its sender's and its
/// receiver's sequence), then one computation per service, with their
/// durations.  None of it depends on the ordering, so an ordering search
/// builds it once; a dense table maps each plan edge to its operation, so
/// sequencing an ordering looks nothing up by key.
pub(crate) struct PlanOperations<'a> {
    pub(crate) graph: &'a ExecutionGraph,
    /// Operation `i < edges.len()` is the transfer on `edges[i]`.
    edges: Vec<EdgeRef>,
    /// The operation of every plan edge, at its `edge_slot` (`u32`: the
    /// table has `n² + 2n` slots, most of them empty).
    edge_op: Vec<u32>,
    pub(crate) durations: Vec<f64>,
}

/// A plan edge's place in [`PlanOperations`]' dense edge table on `n`
/// services: input edges first, then output edges, then the `n × n`
/// service-to-service pairs.
fn edge_slot(n: usize, edge: EdgeRef) -> usize {
    match edge {
        EdgeRef::Input(k) => k,
        EdgeRef::Output(k) => n + k,
        EdgeRef::Link(i, j) => 2 * n + i * n + j,
    }
}

impl<'a> PlanOperations<'a> {
    /// Numbers `graph`'s operations, timed by `metrics`.
    pub(crate) fn new(app: &Application, graph: &'a ExecutionGraph, metrics: &PlanMetrics) -> Self {
        let n = graph.n();
        let edges = plan_edges(graph);
        let mut edge_op = vec![NO_EDGE; 2 * n + n * n];
        for (op, &edge) in edges.iter().enumerate() {
            edge_op[edge_slot(n, edge)] =
                u32::try_from(op).expect("fewer plan edges than u32::MAX");
        }
        let durations = edges
            .iter()
            .map(|&edge| metrics.edge_volume(app, edge))
            .chain((0..n).map(|k| metrics.c_comp(k)))
            .collect();
        PlanOperations {
            graph,
            edges,
            edge_op,
            durations,
        }
    }

    /// Number of operations.
    pub(crate) fn len(&self) -> usize {
        self.durations.len()
    }

    /// The operation carrying plan edge `edge` of the graph.
    fn op(&self, edge: EdgeRef) -> usize {
        let op = self.edge_op[edge_slot(self.graph.n(), edge)];
        debug_assert!(op != NO_EDGE, "{edge:?} is not a plan edge of the graph");
        op as usize
    }

    /// The computation of service `k`.
    pub(crate) fn calc(&self, k: ServiceId) -> usize {
        self.edges.len() + k
    }

    /// Server `k`'s receptions under `ords`, in order.
    pub(crate) fn receptions<'s>(
        &'s self,
        ords: &'s CommOrderings,
        k: ServiceId,
    ) -> impl Iterator<Item = usize> + Clone + 's {
        ords.incoming[k].iter().map(|&e| self.op(e))
    }

    /// Server `k`'s emissions under `ords`, in order.
    pub(crate) fn emissions<'s>(
        &'s self,
        ords: &'s CommOrderings,
        k: ServiceId,
    ) -> impl Iterator<Item = usize> + Clone + 's {
        ords.outgoing[k].iter().map(|&e| self.op(e))
    }

    /// Server `k`'s whole sequence under `ords`: its receptions, its
    /// computation, its emissions.
    pub(crate) fn sequence<'s>(
        &'s self,
        ords: &'s CommOrderings,
        k: ServiceId,
    ) -> impl Iterator<Item = usize> + 's {
        self.receptions(ords, k)
            .chain(std::iter::once(self.calc(k)))
            .chain(self.emissions(ords, k))
    }

    /// The operation list of period `lambda` that starts operation `i` at
    /// `starts[i]` and runs it for its duration.
    pub(crate) fn oplist(&self, lambda: f64, starts: &[f64]) -> OperationList {
        let mut oplist = OperationList::new(self.graph.n(), lambda);
        let interval = |op: usize| Interval::with_duration(starts[op], self.durations[op]);
        for (op, &edge) in self.edges.iter().enumerate() {
            oplist.set_comm(edge, interval(op));
        }
        for k in 0..self.graph.n() {
            oplist.set_calc(k, interval(self.calc(k)));
        }
        oplist
    }
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

    /// 0 -> {1,2,3,4} -> 4 plus 1 -> 2: 4! · 2 · 4! · 2 = 2 304 orderings.
    fn wide_fork_join() -> ExecutionGraph {
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
        ExecutionGraph::from_edges(5, &edges).unwrap()
    }

    /// Service 0 feeding `width` others.
    fn fork(width: usize) -> ExecutionGraph {
        let edges: Vec<(usize, usize)> = (1..=width).map(|k| (0, k)).collect();
        ExecutionGraph::from_edges(width + 1, &edges).unwrap()
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
        assert_eq!(CommOrderings::search_space_size(&g), Some(36));
        let chain = ExecutionGraph::chain_of(4, &[0, 1, 2, 3]).unwrap();
        assert_eq!(CommOrderings::search_space_size(&chain), Some(1));
        // 20! fits a 64-bit `usize`, 21! does not.
        assert_eq!(
            CommOrderings::search_space_size(&fork(20)),
            Some((2..=20).product())
        );
        assert_eq!(CommOrderings::search_space_size(&fork(21)), None);
    }

    #[test]
    fn ordering_space_respects_limit() {
        let g = fork_join();
        let space = OrderingSpace::new(&g, 100).unwrap();
        assert_eq!(space.len(), 36);
        assert_eq!(Some(space.len()), CommOrderings::search_space_size(&g));
        let all: Vec<CommOrderings> = (0..space.len()).map(|i| space.get(i)).collect();
        assert!(all.iter().all(|o| o.is_consistent_with(&g)));
        // The space addresses pairwise distinct orderings.
        for i in 0..all.len() {
            for j in (i + 1)..all.len() {
                assert_ne!(all[i], all[j], "indices {i} and {j}");
            }
        }
        assert!(OrderingSpace::new(&g, 10).is_none());
        // A space beyond `usize` is refused whatever the limit.
        assert!(OrderingSpace::new(&fork(21), usize::MAX).is_none());
    }

    /// Index `i` decodes to the mixed-radix digits of `i` over every slot's
    /// `permutations` table, least-significant slot first — the order the
    /// space kept when it materialised those tables.
    #[test]
    fn get_unranks_the_permutation_tables() {
        for g in [fork_join(), wide_fork_join()] {
            let natural = CommOrderings::natural(&g);
            let tables: Vec<Vec<Vec<EdgeRef>>> = natural
                .incoming
                .iter()
                .chain(&natural.outgoing)
                .map(|list| permutations(list))
                .collect();
            let space = OrderingSpace::new(&g, usize::MAX).unwrap();
            assert_eq!(space.len(), tables.iter().map(Vec::len).product());
            let n = g.n();
            for i in 0..space.len() {
                let mut rest = i;
                let lists: Vec<Vec<EdgeRef>> = tables
                    .iter()
                    .map(|table| {
                        let list = table[rest % table.len()].clone();
                        rest /= table.len();
                        list
                    })
                    .collect();
                let expected = CommOrderings {
                    incoming: lists[..n].to_vec(),
                    outgoing: lists[n..].to_vec(),
                };
                assert_eq!(space.get(i), expected, "index {i}");
            }
        }
    }

    #[test]
    fn the_odometer_steps_through_every_index_in_order() {
        for g in [fork_join(), wide_fork_join()] {
            let space = OrderingSpace::new(&g, usize::MAX).unwrap();
            let mut ords = space.get(0);
            for i in 1..space.len() {
                OrderingSpace::step(&mut ords);
                assert_eq!(ords, space.get(i), "index {i}");
            }
            // The last ordering wraps to the first.
            OrderingSpace::step(&mut ords);
            assert_eq!(ords, space.get(0));
        }
    }

    /// With ties everywhere and some orderings infeasible, every worker
    /// count returns the first minimum of a serial scan, even though the
    /// workers' ranges start mid-odometer.
    #[test]
    fn first_minimum_matches_a_scan_at_every_worker_count() {
        let g = wide_fork_join();
        let space = OrderingSpace::new(&g, usize::MAX).unwrap();
        // Smallest when 1 sends to 4 first and 0 sends to 1 last, which the
        // two most significant non-trivial digits decide: the minimum first
        // appears past the middle of the space, in a later worker's range.
        let value = |ords: &CommOrderings| -> Option<f64> {
            let link = |i, j| EdgeRef::Link(i, j);
            if ords.incoming[2][0] == link(1, 2) && ords.incoming[4][0] == link(0, 4) {
                return None;
            }
            let position = |list: &[EdgeRef], edge| list.iter().position(|&e| e == edge).unwrap();
            let not_last = 3 - position(&ords.outgoing[0], link(0, 1));
            let received_late = position(&ords.incoming[4], link(3, 4));
            let sent_late = position(&ords.outgoing[1], link(1, 4));
            Some((not_last + received_late + sent_late) as f64)
        };
        let scan = (0..space.len())
            .filter_map(|i| value(&space.get(i)).map(|v| (v, i)))
            .fold(None, |best: Option<(f64, usize)>, (v, i)| {
                if best.is_none_or(|(b, _)| v < b) {
                    Some((v, i))
                } else {
                    best
                }
            })
            .unwrap();
        assert!(
            scan.1 > space.len() / 2,
            "the minimum first appears at {}",
            scan.1
        );
        for threads in 1..=4 {
            let (best, complete) =
                space.first_minimum(Exec::threaded(threads), f64::INFINITY, || {
                    |ords: &CommOrderings, _| value(ords)
                });
            assert!(complete);
            let (v, ords) = best.unwrap();
            assert_eq!(v.to_bits(), scan.0.to_bits(), "{threads} workers");
            assert_eq!(ords, space.get(scan.1), "{threads} workers");
        }
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
