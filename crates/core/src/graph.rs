//! Execution graphs.
//!
//! An execution graph `EG = (C, E)` is a DAG over the services of an
//! [`Application`].  It contains the application's
//! precedence constraints (in its transitive closure) plus any extra edges the
//! scheduler decided to add so that upstream selectivities shrink downstream
//! data.  Entry nodes implicitly receive data from an *input node* and exit
//! nodes implicitly send their result to an *output node*; those pseudo-nodes
//! are materialised by [`crate::oplist::EdgeRef::Input`] and
//! [`crate::oplist::EdgeRef::Output`] in operation lists.

use crate::error::{CoreError, CoreResult};
use crate::service::{Application, ServiceId};

/// A directed acyclic execution graph over `n` services.
///
/// Edges are stored both as successor and predecessor adjacency lists (kept
/// sorted), so that neighbourhood queries are cheap in both directions.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ExecutionGraph {
    n: usize,
    succs: Vec<Vec<ServiceId>>,
    preds: Vec<Vec<ServiceId>>,
}

impl ExecutionGraph {
    /// Creates an edge-less execution graph over `n` services.
    pub fn new(n: usize) -> Self {
        ExecutionGraph {
            n,
            succs: vec![Vec::new(); n],
            preds: vec![Vec::new(); n],
        }
    }

    /// Creates an execution graph from an explicit edge list.
    pub fn from_edges(n: usize, edges: &[(ServiceId, ServiceId)]) -> CoreResult<Self> {
        let mut g = ExecutionGraph::new(n);
        for &(i, j) in edges {
            g.add_edge(i, j)?;
        }
        Ok(g)
    }

    /// Creates a linear chain following `order` (a permutation of `0..n`, or a
    /// subset of services to chain; services not listed stay isolated).
    pub fn chain_of(n: usize, order: &[ServiceId]) -> CoreResult<Self> {
        let mut g = ExecutionGraph::new(n);
        for w in order.windows(2) {
            g.add_edge(w[0], w[1])?;
        }
        Ok(g)
    }

    /// Creates an execution graph from a parent function: `parents[k]` is the
    /// unique direct predecessor of `k`, or `None` if `k` is an entry node.
    /// The result is always a forest.
    pub fn from_parents(parents: &[Option<ServiceId>]) -> CoreResult<Self> {
        let n = parents.len();
        let mut g = ExecutionGraph::new(n);
        for (k, &p) in parents.iter().enumerate() {
            if let Some(p) = p {
                g.add_edge(p, k)?;
            }
        }
        Ok(g)
    }

    /// Creates an execution graph whose edges are the selected *forward* edges
    /// of a topological permutation: bit `a*(a-1)/2 + ...` — concretely, bit
    /// `b` of `mask` selects the `b`-th pair `(a, c)` with `a < c` in the
    /// lexicographic order `(0,1), (0,2), …, (0,n-1), (1,2), …`, adding the
    /// edge `order[a] → order[c]`.
    ///
    /// Because every selected edge goes forward along `order`, the result is
    /// acyclic by construction, so this skips the per-edge cycle checks of
    /// [`ExecutionGraph::add_edge`] — it is the hot constructor of the
    /// exhaustive DAG enumeration.  Requires `order` to be a permutation of
    /// `0..n` with `n*(n-1)/2 <= 64`; both are debug-asserted.
    pub fn from_permutation_mask(order: &[ServiceId], mask: u64) -> Self {
        let n = order.len();
        debug_assert!(n * n.saturating_sub(1) / 2 <= 64);
        debug_assert!({
            let mut seen = vec![false; n];
            order
                .iter()
                .all(|&k| k < n && !std::mem::replace(&mut seen[k], true))
        });
        let mut g = ExecutionGraph::new(n);
        let mut bit = 0u32;
        for a in 0..n {
            for c in (a + 1)..n {
                if mask & (1u64 << bit) != 0 {
                    let (i, j) = (order[a], order[c]);
                    g.succs[i].push(j);
                    g.preds[j].push(i);
                }
                bit += 1;
            }
        }
        for list in g.succs.iter_mut().chain(g.preds.iter_mut()) {
            list.sort_unstable();
        }
        g
    }

    /// Number of services (excluding the implicit input/output nodes).
    pub fn n(&self) -> usize {
        self.n
    }

    /// Edge mask of this graph under the node relabelling `perm`: bit
    /// `perm[i] * n + perm[j]` is set for every edge `i → j`.  Two graphs
    /// are identical up to the relabelling iff their masks under it match —
    /// the compact signature behind the canonical-form machinery
    /// ([`crate::canonical`], `fsw_sched::engine::EvalCache`).  Requires
    /// `n² <= 128` (debug-asserted); `perm` must be a permutation of `0..n`.
    pub fn edge_mask_under(&self, perm: &[ServiceId]) -> u128 {
        debug_assert!(self.n * self.n <= 128);
        debug_assert_eq!(perm.len(), self.n);
        let mut mask = 0u128;
        for i in 0..self.n {
            for &j in self.succs(i).iter() {
                mask |= 1u128 << (perm[i] * self.n + perm[j]);
            }
        }
        mask
    }

    /// Number of service-to-service edges.
    pub fn edge_count(&self) -> usize {
        self.succs.iter().map(Vec::len).sum()
    }

    /// Returns `true` if the edge `i → j` is present.
    pub fn has_edge(&self, i: ServiceId, j: ServiceId) -> bool {
        i < self.n && self.succs[i].binary_search(&j).is_ok()
    }

    /// Adds the edge `i → j`.
    ///
    /// Fails on out-of-range endpoints, self-loops, or if the edge would
    /// create a directed cycle.  Adding an existing edge is a no-op.
    pub fn add_edge(&mut self, i: ServiceId, j: ServiceId) -> CoreResult<()> {
        if i >= self.n {
            return Err(CoreError::InvalidService { id: i, n: self.n });
        }
        if j >= self.n {
            return Err(CoreError::InvalidService { id: j, n: self.n });
        }
        if i == j {
            return Err(CoreError::SelfLoop { id: i });
        }
        if self.has_edge(i, j) {
            return Ok(());
        }
        if self.reaches(j, i) {
            return Err(CoreError::WouldCreateCycle { from: i, to: j });
        }
        let pos = self.succs[i].binary_search(&j).unwrap_err();
        self.succs[i].insert(pos, j);
        let pos = self.preds[j].binary_search(&i).unwrap_err();
        self.preds[j].insert(pos, i);
        Ok(())
    }

    /// Removes the edge `i → j`, returning `true` if it was present.
    pub fn remove_edge(&mut self, i: ServiceId, j: ServiceId) -> bool {
        if i >= self.n || j >= self.n {
            return false;
        }
        match self.succs[i].binary_search(&j) {
            Ok(pos) => {
                self.succs[i].remove(pos);
                let p = self.preds[j]
                    .binary_search(&i)
                    .expect("adjacency out of sync");
                self.preds[j].remove(p);
                true
            }
            Err(_) => false,
        }
    }

    /// Direct successors `Sout(k)` of a service, sorted.
    pub fn succs(&self, k: ServiceId) -> &[ServiceId] {
        &self.succs[k]
    }

    /// Direct predecessors `Sin(k)` of a service, sorted.
    pub fn preds(&self, k: ServiceId) -> &[ServiceId] {
        &self.preds[k]
    }

    /// Iterator over all edges `(i, j)`.
    pub fn edges(&self) -> impl Iterator<Item = (ServiceId, ServiceId)> + '_ {
        self.succs
            .iter()
            .enumerate()
            .flat_map(|(i, js)| js.iter().map(move |&j| (i, j)))
    }

    /// Entry nodes (no predecessor); they receive data from the input node.
    pub fn entry_nodes(&self) -> Vec<ServiceId> {
        (0..self.n).filter(|&k| self.preds[k].is_empty()).collect()
    }

    /// Exit nodes (no successor); they send their output to the output node.
    pub fn exit_nodes(&self) -> Vec<ServiceId> {
        (0..self.n).filter(|&k| self.succs[k].is_empty()).collect()
    }

    /// Returns `true` if `from` reaches `to` by a directed path (possibly empty:
    /// `reaches(x, x)` is `true`).
    pub fn reaches(&self, from: ServiceId, to: ServiceId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.n];
        let mut stack = vec![from];
        visited[from] = true;
        while let Some(v) = stack.pop() {
            for &w in &self.succs[v] {
                if w == to {
                    return true;
                }
                if !visited[w] {
                    visited[w] = true;
                    stack.push(w);
                }
            }
        }
        false
    }

    /// A topological order of the services.
    ///
    /// The graph is maintained acyclic by construction, so this never fails
    /// unless the invariant was broken; the `Result` is kept for robustness.
    pub fn topological_order(&self) -> CoreResult<Vec<ServiceId>> {
        let mut indeg: Vec<usize> = (0..self.n).map(|k| self.preds[k].len()).collect();
        // Use a stack seeded in reverse id order so the produced order is
        // deterministic (small ids first among ready nodes).
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..self.n)
            .filter(|&k| indeg[k] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(self.n);
        while let Some(std::cmp::Reverse(v)) = heap.pop() {
            order.push(v);
            for &w in &self.succs[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    heap.push(std::cmp::Reverse(w));
                }
            }
        }
        if order.len() != self.n {
            return Err(CoreError::CyclicGraph);
        }
        Ok(order)
    }

    /// The set of ancestors `Ancest_k(EG)` of every service, as boolean masks.
    ///
    /// `result[k][a]` is `true` iff `a` is a strict ancestor of `k` (a
    /// predecessor, or a predecessor of a predecessor, and so on).
    pub fn ancestor_sets(&self) -> Vec<Vec<bool>> {
        let order = self
            .topological_order()
            .expect("execution graph invariant: acyclic");
        let mut anc = vec![vec![false; self.n]; self.n];
        for &v in &order {
            // Ancestors of v = union over preds p of ({p} ∪ ancestors(p)).
            let mut mask = vec![false; self.n];
            for &p in &self.preds[v] {
                mask[p] = true;
                for a in 0..self.n {
                    if anc[p][a] {
                        mask[a] = true;
                    }
                }
            }
            anc[v] = mask;
        }
        anc
    }

    /// The ancestors of a single service, as a sorted list.
    pub fn ancestors(&self, k: ServiceId) -> Vec<ServiceId> {
        let mut visited = vec![false; self.n];
        let mut stack: Vec<usize> = self.preds[k].to_vec();
        for &p in &self.preds[k] {
            visited[p] = true;
        }
        while let Some(v) = stack.pop() {
            for &p in &self.preds[v] {
                if !visited[p] {
                    visited[p] = true;
                    stack.push(p);
                }
            }
        }
        (0..self.n).filter(|&a| visited[a]).collect()
    }

    /// Full transitive closure as boolean masks: `closure[i][j]` is `true` iff
    /// there is a (possibly empty) path from `i` to `j`.
    pub fn transitive_closure(&self) -> Vec<Vec<bool>> {
        let anc = self.ancestor_sets();
        let mut clo = vec![vec![false; self.n]; self.n];
        for (i, row) in clo.iter_mut().enumerate() {
            row[i] = true;
        }
        for (j, mask) in anc.iter().enumerate() {
            for (i, &is_anc) in mask.iter().enumerate() {
                if is_anc {
                    clo[i][j] = true;
                }
            }
        }
        clo
    }

    /// Checks that every precedence constraint of `app` is honoured, i.e. is
    /// contained in the transitive closure of this graph.
    pub fn respects(&self, app: &Application) -> CoreResult<()> {
        if app.n() != self.n {
            return Err(CoreError::SizeMismatch {
                expected: app.n(),
                found: self.n,
            });
        }
        if app.constraints().is_empty() {
            return Ok(());
        }
        let anc = self.ancestor_sets();
        for &(from, to) in app.constraints() {
            if !anc[to][from] {
                return Err(CoreError::MissingPrecedence { from, to });
            }
        }
        Ok(())
    }

    /// Returns `true` if every node has at most one direct predecessor
    /// (the graph is a forest of out-trees).
    pub fn is_forest(&self) -> bool {
        (0..self.n).all(|k| self.preds[k].len() <= 1)
    }

    /// Returns `true` if the graph is a forest with a single entry node and
    /// every other node reachable from it (a rooted out-tree).
    pub fn is_tree(&self) -> bool {
        if !self.is_forest() {
            return false;
        }
        let entries = self.entry_nodes();
        if entries.len() != 1 {
            return false;
        }
        // In a forest with a single entry, every other node has exactly one
        // parent, hence n-1 edges and connectivity follows.
        self.edge_count() == self.n.saturating_sub(1)
    }

    /// Returns `true` if the graph is one single linear chain covering all services.
    pub fn is_chain(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        self.is_tree() && (0..self.n).all(|k| self.succs[k].len() <= 1)
    }

    /// If the graph is a forest, returns the parent function
    /// (`None` for entry nodes).
    pub fn parents(&self) -> CoreResult<Vec<Option<ServiceId>>> {
        if !self.is_forest() {
            return Err(CoreError::NotAForest);
        }
        Ok((0..self.n)
            .map(|k| self.preds[k].first().copied())
            .collect())
    }

    /// If the graph is a single chain, returns its service order from entry to exit.
    pub fn chain_order(&self) -> CoreResult<Vec<ServiceId>> {
        if !self.is_chain() {
            return Err(CoreError::NotAChain);
        }
        if self.n == 0 {
            return Ok(Vec::new());
        }
        let mut order = Vec::with_capacity(self.n);
        let mut cur = self.entry_nodes()[0];
        order.push(cur);
        while let Some(&next) = self.succs[cur].first() {
            order.push(next);
            cur = next;
        }
        Ok(order)
    }

    /// Longest path length (number of edges) from any entry node to `k`.
    pub fn depth(&self, k: ServiceId) -> usize {
        let order = self
            .topological_order()
            .expect("execution graph invariant: acyclic");
        let mut depth = vec![0usize; self.n];
        for &v in &order {
            for &p in &self.preds[v] {
                depth[v] = depth[v].max(depth[p] + 1);
            }
        }
        depth[k]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> ExecutionGraph {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn add_remove_edges() {
        let mut g = ExecutionGraph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert_eq!(g.edge_count(), 2);
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn cycle_rejected() {
        let mut g = ExecutionGraph::new(3);
        g.add_edge(0, 1).unwrap();
        g.add_edge(1, 2).unwrap();
        assert_eq!(
            g.add_edge(2, 0),
            Err(CoreError::WouldCreateCycle { from: 2, to: 0 })
        );
    }

    #[test]
    fn duplicate_edge_is_noop() {
        let mut g = ExecutionGraph::new(2);
        g.add_edge(0, 1).unwrap();
        g.add_edge(0, 1).unwrap();
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn entries_exits_and_topo() {
        let g = diamond();
        assert_eq!(g.entry_nodes(), vec![0]);
        assert_eq!(g.exit_nodes(), vec![3]);
        let order = g.topological_order().unwrap();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn ancestors_of_diamond() {
        let g = diamond();
        assert_eq!(g.ancestors(3), vec![0, 1, 2]);
        assert_eq!(g.ancestors(0), Vec::<usize>::new());
        let anc = g.ancestor_sets();
        assert!(anc[3][0] && anc[3][1] && anc[3][2]);
        assert!(!anc[0][3]);
    }

    #[test]
    fn transitive_closure_contains_paths() {
        let g = diamond();
        let clo = g.transitive_closure();
        assert!(clo[0][3]);
        assert!(clo[1][3]);
        assert!(!clo[1][2]);
        assert!(clo[2][2]);
    }

    #[test]
    fn respects_constraints() {
        let mut app = Application::independent(&[(1.0, 1.0); 4]);
        app.add_constraint(0, 3).unwrap();
        let g = diamond();
        g.respects(&app).unwrap();
        app.add_constraint(3, 1).unwrap();
        assert_eq!(
            g.respects(&app),
            Err(CoreError::MissingPrecedence { from: 3, to: 1 })
        );
    }

    #[test]
    fn shapes() {
        let chain = ExecutionGraph::chain_of(3, &[2, 0, 1]).unwrap();
        assert!(chain.is_chain());
        assert!(chain.is_tree());
        assert!(chain.is_forest());
        assert_eq!(chain.chain_order().unwrap(), vec![2, 0, 1]);

        let g = diamond();
        assert!(!g.is_forest());
        assert!(!g.is_chain());

        let star = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
        assert!(star.is_tree());
        assert!(!star.is_chain());

        let forest = ExecutionGraph::from_edges(4, &[(0, 1), (2, 3)]).unwrap();
        assert!(forest.is_forest());
        assert!(!forest.is_tree());
    }

    #[test]
    fn parents_roundtrip() {
        let parents = vec![None, Some(0), Some(0), Some(2)];
        let g = ExecutionGraph::from_parents(&parents).unwrap();
        assert_eq!(g.parents().unwrap(), parents);
        assert!(ExecutionGraph::from_edges(3, &[(0, 2), (1, 2)])
            .unwrap()
            .parents()
            .is_err());
    }

    #[test]
    fn permutation_mask_matches_checked_construction() {
        let order = vec![2usize, 0, 3, 1];
        let n = order.len();
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |b| (a, b)))
            .collect();
        for mask in 0u64..(1 << pairs.len()) {
            let fast = ExecutionGraph::from_permutation_mask(&order, mask);
            let mut slow = ExecutionGraph::new(n);
            for (bit, &(a, b)) in pairs.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    slow.add_edge(order[a], order[b]).unwrap();
                }
            }
            assert_eq!(fast, slow, "mask {mask:#b}");
        }
    }

    #[test]
    fn depth_computation() {
        let g = diamond();
        assert_eq!(g.depth(0), 0);
        assert_eq!(g.depth(1), 1);
        assert_eq!(g.depth(3), 2);
    }

    #[test]
    fn empty_graph() {
        let g = ExecutionGraph::new(0);
        assert!(g.is_chain());
        assert_eq!(g.topological_order().unwrap(), Vec::<usize>::new());
    }
}
