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

use std::fmt;

use crate::error::{CoreError, CoreResult};
use crate::service::{Application, ServiceId};

/// A directed acyclic execution graph over `n` services.
///
/// The graph is one flat allocation in compressed-sparse-row form, holding
/// both directions so that neighbourhood queries are cheap either way:
///
/// ```text
/// adj = [ succ offsets 0..=n | pred offsets 0..=n | succ targets | pred targets ]
/// ```
///
/// The offsets index `adj` itself: `succs(k)` is
/// `adj[adj[k]..adj[k + 1]]` and `preds(k)` is
/// `adj[adj[n + 1 + k]..adj[n + 2 + k]]`, each list sorted.  Offsets and
/// targets are `u32` words, so a graph of `n` services and `m` edges costs
/// `4·(2n + 2 + 2m)` bytes in one block (96 bytes for a six-service
/// forest), and a clone is one allocation.  The first word, the offset of
/// the first successor list, is `2n + 2`, so the block alone tells `n`:
/// the graph is one boxed slice, 16 bytes.  The block must index itself in
/// `u32` words: every constructor and edit checks `2n + 2 + 2m <=
/// u32::MAX` and panics beyond it.  [`succs`](Self::succs) and
/// [`preds`](Self::preds) hand out the stored words; callers widen an id
/// with `as usize` where they use it.  The bulk constructors
/// ([`from_parents`](Self::from_parents), [`from_edges`](Self::from_edges),
/// [`chain_of`](Self::chain_of),
/// [`from_permutation_mask`](Self::from_permutation_mask),
/// [`relabelled`](Self::relabelled)) size the block once and fill it in one
/// pass; [`add_edge`](Self::add_edge) and
/// [`remove_edge`](Self::remove_edge) rebuild it, at O(n + m) each.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ExecutionGraph {
    adj: Box<[u32]>,
}

impl fmt::Debug for ExecutionGraph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct Lists<'a>(&'a ExecutionGraph, fn(&ExecutionGraph, ServiceId) -> &[u32]);
        impl fmt::Debug for Lists<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                f.debug_list()
                    .entries((0..self.0.n()).map(|k| (self.1)(self.0, k)))
                    .finish()
            }
        }
        f.debug_struct("ExecutionGraph")
            .field("n", &self.n())
            .field("succs", &Lists(self, ExecutionGraph::succs))
            .field("preds", &Lists(self, ExecutionGraph::preds))
            .finish()
    }
}

impl ExecutionGraph {
    /// Creates an edge-less execution graph over `n` services.
    ///
    /// # Panics
    ///
    /// When `2n + 2` exceeds `u32::MAX` (see the type docs).
    pub fn new(n: usize) -> Self {
        let base = block_words(n, 0);
        ExecutionGraph {
            adj: vec![base; base as usize].into_boxed_slice(),
        }
    }

    /// Builds the graph of `m` distinct, in-range, non-loop edges in one
    /// allocation: degrees are counted into the offset slots, turned into
    /// end positions, and every target is written by decrementing its
    /// list's cursor, which leaves each offset at its list's start.
    fn build<I>(n: usize, m: usize, edges: I) -> Self
    where
        I: Iterator<Item = (ServiceId, ServiceId)> + Clone,
    {
        let len = block_words(n, m);
        let mut adj = vec![0u32; len as usize];
        for (i, j) in edges.clone() {
            adj[i] += 1;
            adj[n + 1 + j] += 1;
        }
        let base = block_words(n, 0);
        let mut end = base;
        for slot in (0..n).chain(n + 1..2 * n + 1) {
            end += adj[slot];
            adj[slot] = end;
        }
        debug_assert_eq!(end, len, "edge count mismatch");
        adj[n] = base + m as u32;
        adj[2 * n + 1] = end;
        for (i, j) in edges {
            // In range: the block's length fits `u32`, so every id does.
            adj[i] -= 1;
            let at = adj[i] as usize;
            adj[at] = j as u32;
            adj[n + 1 + j] -= 1;
            let at = adj[n + 1 + j] as usize;
            adj[at] = i as u32;
        }
        for list in (0..n).chain(n + 1..2 * n + 1) {
            let (lo, hi) = (adj[list] as usize, adj[list + 1] as usize);
            adj[lo..hi].sort_unstable();
        }
        ExecutionGraph {
            adj: adj.into_boxed_slice(),
        }
    }

    /// Creates an execution graph from an explicit edge list.
    ///
    /// Fails on out-of-range endpoints, self-loops, or a directed cycle,
    /// reporting the first edge that [`add_edge`](Self::add_edge) would
    /// refuse when the edges are added in order; repeated edges count once.
    pub fn from_edges(n: usize, edges: &[(ServiceId, ServiceId)]) -> CoreResult<Self> {
        if edges.iter().all(|&(i, j)| i < n && j < n && i != j) {
            let g = ExecutionGraph::build(n, edges.len(), edges.iter().copied());
            let repeats = (0..n).any(|k| g.succs(k).windows(2).any(|w| w[0] == w[1]));
            if !repeats && g.topological_order().is_ok() {
                return Ok(g);
            }
        }
        // Rare path: the exact error, or the repeats dropped.
        ExecutionGraph::edge_by_edge(n, edges.iter().copied())
    }

    /// Adds `edges` one by one with [`add_edge`](Self::add_edge): the
    /// bulk constructors' path for input they refuse, so that the error is
    /// the first edge `add_edge` refuses, in order.
    fn edge_by_edge<I>(n: usize, edges: I) -> CoreResult<Self>
    where
        I: Iterator<Item = (ServiceId, ServiceId)>,
    {
        let mut g = ExecutionGraph::new(n);
        for (i, j) in edges {
            g.add_edge(i, j)?;
        }
        Ok(g)
    }

    /// Creates a linear chain following `order` (a permutation of `0..n`, or a
    /// subset of services to chain; services not listed stay isolated).
    pub fn chain_of(n: usize, order: &[ServiceId]) -> CoreResult<Self> {
        let edges = order.windows(2).map(|w| (w[0], w[1]));
        // Distinct in-range services chain acyclically, with no repeats.
        if distinct_below(order, n) {
            let m = order.len().saturating_sub(1);
            return Ok(ExecutionGraph::build(n, m, edges));
        }
        ExecutionGraph::edge_by_edge(n, edges)
    }

    /// Creates an execution graph from a parent function: `parents[k]` is the
    /// unique direct predecessor of `k`, or `None` if `k` is an entry node.
    /// The result is always a forest, built in one allocation.
    pub fn from_parents(parents: &[Option<ServiceId>]) -> CoreResult<Self> {
        let n = parents.len();
        let edges = parents
            .iter()
            .enumerate()
            .filter_map(|(k, &p)| p.map(|p| (p, k)));
        // A valid parent function is acyclic iff every ancestor walk ends
        // at an entry within `n` steps.
        let valid = parents.iter().enumerate().all(|(k, &p)| {
            p.is_none_or(|p| p < n && p != k) && {
                let mut at = p;
                for _ in 0..n {
                    match at {
                        Some(a) if a < n => at = parents[a],
                        _ => break,
                    }
                }
                at.is_none()
            }
        });
        if valid {
            let m = parents.iter().flatten().count();
            return Ok(ExecutionGraph::build(n, m, edges));
        }
        ExecutionGraph::edge_by_edge(n, edges)
    }

    /// Creates an execution graph whose edges are the selected *forward* edges
    /// of a topological permutation: bit `a*(a-1)/2 + ...` — concretely, bit
    /// `b` of `mask` selects the `b`-th pair `(a, c)` with `a < c` in the
    /// lexicographic order `(0,1), (0,2), …, (0,n-1), (1,2), …`, adding the
    /// edge `order[a] → order[c]`.
    ///
    /// Because every selected edge goes forward along `order`, the result is
    /// acyclic by construction, so this skips the cycle checks of
    /// [`ExecutionGraph::add_edge`] — it is the hot constructor of the
    /// exhaustive DAG enumeration.  Requires `order` to be a permutation of
    /// `0..n` with `n*(n-1)/2 <= 64`; both are debug-asserted.
    pub fn from_permutation_mask(order: &[ServiceId], mask: u64) -> Self {
        let n = order.len();
        let pairs = n * n.saturating_sub(1) / 2;
        debug_assert!(pairs <= 64);
        debug_assert!(distinct_below(order, n));
        let mask = if pairs >= 64 {
            mask
        } else {
            mask & ((1u64 << pairs) - 1)
        };
        let edges = (0..n)
            .flat_map(|a| ((a + 1)..n).map(move |c| (a, c)))
            .enumerate()
            .filter(move |&(bit, _)| mask & (1u64 << bit) != 0)
            .map(|(_, (a, c))| (order[a], order[c]));
        ExecutionGraph::build(n, mask.count_ones() as usize, edges)
    }

    /// This graph under the node relabelling `perm` (edge `i → j` becomes
    /// `perm[i] → perm[j]`), built in one pass and one allocation.  Fails
    /// with [`CoreError::SizeMismatch`] unless `perm` has one entry per
    /// service; `perm` must be a permutation of `0..n` (debug-asserted).
    pub fn relabelled(&self, perm: &[ServiceId]) -> CoreResult<Self> {
        let n = self.n();
        if perm.len() != n {
            return Err(CoreError::SizeMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        debug_assert!(distinct_below(perm, n));
        let edges = self.edges().map(|(i, j)| (perm[i], perm[j]));
        Ok(ExecutionGraph::build(n, self.edge_count(), edges))
    }

    /// Number of services (excluding the implicit input/output nodes).
    pub fn n(&self) -> usize {
        (self.adj[0] as usize - 2) / 2
    }

    /// Edge mask of this graph under the node relabelling `perm`: bit
    /// `perm[i] * n + perm[j]` is set for every edge `i → j`.  Two graphs
    /// are identical up to the relabelling iff their masks under it match —
    /// the compact signature behind the canonical-form machinery
    /// ([`crate::canonical`], `fsw_sched::engine::EvalCache`).  Requires
    /// `n² <= 128` (debug-asserted); `perm` must be a permutation of `0..n`.
    pub fn edge_mask_under(&self, perm: &[ServiceId]) -> u128 {
        let n = self.n();
        debug_assert!(n * n <= 128);
        debug_assert_eq!(perm.len(), n);
        let mut mask = 0u128;
        for (i, j) in self.edges() {
            mask |= 1u128 << (perm[i] * n + perm[j]);
        }
        mask
    }

    /// Number of service-to-service edges.
    pub fn edge_count(&self) -> usize {
        (self.adj[self.n()] - self.adj[0]) as usize
    }

    /// Returns `true` if the edge `i → j` is present.
    pub fn has_edge(&self, i: ServiceId, j: ServiceId) -> bool {
        let n = self.n();
        i < n && j < n && self.succs(i).binary_search(&(j as u32)).is_ok()
    }

    /// Adds the edge `i → j`, rebuilding the flat block (O(n + m)).
    ///
    /// Fails on out-of-range endpoints, self-loops, or if the edge would
    /// create a directed cycle.  Adding an existing edge is a no-op.
    ///
    /// # Panics
    ///
    /// When the grown block would exceed `u32::MAX` words (see the type
    /// docs).
    pub fn add_edge(&mut self, i: ServiceId, j: ServiceId) -> CoreResult<()> {
        let n = self.n();
        if i >= n {
            return Err(CoreError::InvalidService { id: i, n });
        }
        if j >= n {
            return Err(CoreError::InvalidService { id: j, n });
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
        let len = block_words(n, self.edge_count() + 1) as usize;
        let (from, to) = (i as u32, j as u32);
        let at_succ = self.adj[i] as usize + self.succs(i).partition_point(|&t| t < to);
        let at_pred = self.adj[n + 1 + j] as usize + self.preds(j).partition_point(|&t| t < from);
        let mut adj = Vec::with_capacity(len);
        adj.extend_from_slice(&self.adj[..at_succ]);
        adj.push(to);
        adj.extend_from_slice(&self.adj[at_succ..at_pred]);
        adj.push(from);
        adj.extend_from_slice(&self.adj[at_pred..]);
        shift_offsets(&mut adj, n, i, j, true);
        self.adj = adj.into_boxed_slice();
        Ok(())
    }

    /// Removes the edge `i → j`, returning `true` if it was present;
    /// rebuilds the flat block (O(n + m)).
    pub fn remove_edge(&mut self, i: ServiceId, j: ServiceId) -> bool {
        let n = self.n();
        if i >= n || j >= n {
            return false;
        }
        let Ok(in_succ) = self.succs(i).binary_search(&(j as u32)) else {
            return false;
        };
        let in_pred = self
            .preds(j)
            .binary_search(&(i as u32))
            .expect("adjacency out of sync");
        let at_succ = self.adj[i] as usize + in_succ;
        let at_pred = self.adj[n + 1 + j] as usize + in_pred;
        let mut adj = Vec::with_capacity(self.adj.len() - 2);
        adj.extend_from_slice(&self.adj[..at_succ]);
        adj.extend_from_slice(&self.adj[at_succ + 1..at_pred]);
        adj.extend_from_slice(&self.adj[at_pred + 1..]);
        shift_offsets(&mut adj, n, i, j, false);
        self.adj = adj.into_boxed_slice();
        true
    }

    /// Direct successors `Sout(k)` of a service, sorted, as the stored
    /// `u32` words.
    pub fn succs(&self, k: ServiceId) -> &[u32] {
        self.list(k)
    }

    /// Direct predecessors `Sin(k)` of a service, sorted, as the stored
    /// `u32` words.
    pub fn preds(&self, k: ServiceId) -> &[u32] {
        self.list(self.n() + 1 + k)
    }

    /// The list whose offsets sit in slots `slot` and `slot + 1`.
    fn list(&self, slot: usize) -> &[u32] {
        &self.adj[self.adj[slot] as usize..self.adj[slot + 1] as usize]
    }

    /// Iterator over all edges `(i, j)`.
    pub fn edges(&self) -> impl Iterator<Item = (ServiceId, ServiceId)> + Clone + '_ {
        (0..self.n()).flat_map(move |i| self.succs(i).iter().map(move |&j| (i, j as usize)))
    }

    /// Entry nodes (no predecessor); they receive data from the input node.
    pub fn entry_nodes(&self) -> Vec<ServiceId> {
        (0..self.n())
            .filter(|&k| self.preds(k).is_empty())
            .collect()
    }

    /// Exit nodes (no successor); they send their output to the output node.
    pub fn exit_nodes(&self) -> Vec<ServiceId> {
        (0..self.n())
            .filter(|&k| self.succs(k).is_empty())
            .collect()
    }

    /// Returns `true` if `from` reaches `to` by a directed path (possibly empty:
    /// `reaches(x, x)` is `true`).
    pub fn reaches(&self, from: ServiceId, to: ServiceId) -> bool {
        if from == to {
            return true;
        }
        let mut visited = vec![false; self.n()];
        let mut stack = vec![from];
        visited[from] = true;
        while let Some(v) = stack.pop() {
            for &w in self.succs(v) {
                let w = w as usize;
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
        let n = self.n();
        let mut indeg: Vec<usize> = (0..n).map(|k| self.preds(k).len()).collect();
        // Use a stack seeded in reverse id order so the produced order is
        // deterministic (small ids first among ready nodes).
        let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
            .filter(|&k| indeg[k] == 0)
            .map(std::cmp::Reverse)
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(std::cmp::Reverse(v)) = heap.pop() {
            order.push(v);
            for &w in self.succs(v) {
                let w = w as usize;
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    heap.push(std::cmp::Reverse(w));
                }
            }
        }
        if order.len() != n {
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
        let n = self.n();
        let mut anc = vec![vec![false; n]; n];
        for &v in &order {
            // Ancestors of v = union over preds p of ({p} ∪ ancestors(p)).
            let mut mask = vec![false; n];
            for &p in self.preds(v) {
                let p = p as usize;
                mask[p] = true;
                for a in 0..n {
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
        let mut visited = vec![false; self.n()];
        let mut stack: Vec<usize> = self.preds(k).iter().map(|&p| p as usize).collect();
        for &p in &stack {
            visited[p] = true;
        }
        while let Some(v) = stack.pop() {
            for &p in self.preds(v) {
                let p = p as usize;
                if !visited[p] {
                    visited[p] = true;
                    stack.push(p);
                }
            }
        }
        (0..self.n()).filter(|&a| visited[a]).collect()
    }

    /// Full transitive closure as boolean masks: `closure[i][j]` is `true` iff
    /// there is a (possibly empty) path from `i` to `j`.
    pub fn transitive_closure(&self) -> Vec<Vec<bool>> {
        let anc = self.ancestor_sets();
        let n = self.n();
        let mut clo = vec![vec![false; n]; n];
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
        if app.n() != self.n() {
            return Err(CoreError::SizeMismatch {
                expected: app.n(),
                found: self.n(),
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
        (0..self.n()).all(|k| self.preds(k).len() <= 1)
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
        self.edge_count() == self.n().saturating_sub(1)
    }

    /// Returns `true` if the graph is one single linear chain covering all services.
    pub fn is_chain(&self) -> bool {
        if self.n() == 0 {
            return true;
        }
        self.is_tree() && (0..self.n()).all(|k| self.succs(k).len() <= 1)
    }

    /// If the graph is a forest, returns the parent function
    /// (`None` for entry nodes).
    pub fn parents(&self) -> CoreResult<Vec<Option<ServiceId>>> {
        if !self.is_forest() {
            return Err(CoreError::NotAForest);
        }
        Ok((0..self.n())
            .map(|k| self.preds(k).first().map(|&p| p as usize))
            .collect())
    }

    /// If the graph is a single chain, returns its service order from entry to exit.
    pub fn chain_order(&self) -> CoreResult<Vec<ServiceId>> {
        if !self.is_chain() {
            return Err(CoreError::NotAChain);
        }
        let n = self.n();
        if n == 0 {
            return Ok(Vec::new());
        }
        let mut order = Vec::with_capacity(n);
        let mut cur = self.entry_nodes()[0];
        order.push(cur);
        while let Some(&next) = self.succs(cur).first() {
            cur = next as usize;
            order.push(cur);
        }
        Ok(order)
    }

    /// Longest path length (number of edges) from any entry node to `k`.
    pub fn depth(&self, k: ServiceId) -> usize {
        let order = self
            .topological_order()
            .expect("execution graph invariant: acyclic");
        let mut depth = vec![0usize; self.n()];
        for &v in &order {
            for &p in self.preds(v) {
                depth[v] = depth[v].max(depth[p as usize] + 1);
            }
        }
        depth[k]
    }
}

/// An execution graph packed for keeping: `n`, then the two endpoints of
/// every edge in successor-list order (sources ascending, each source's
/// targets sorted), every label an LEB128 varint — one byte below 128, a
/// byte more per further 7 bits.  A graph of `n < 128` services and `m`
/// edges packs into `1 + 2m` bytes: 11 for a six-service forest, whose
/// [`ExecutionGraph`] block takes 96.
///
/// The code has no random access: it is read whole, and
/// [`relabelled`](Self::relabelled) decodes it straight into an
/// [`ExecutionGraph`] in one pass and one allocation.  It can only be
/// built from an [`ExecutionGraph`] (`PackedGraph::from(&graph)`), so
/// every code holds a valid graph and decoding checks nothing but the
/// relabelling's size.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PackedGraph {
    code: Box<[u8]>,
}

impl From<&ExecutionGraph> for PackedGraph {
    /// Packs `graph` into one exact-size allocation.
    fn from(graph: &ExecutionGraph) -> Self {
        let labels = || std::iter::once(graph.n()).chain(graph.edges().flat_map(|(i, j)| [i, j]));
        let len = labels().map(varint_len).sum();
        let mut code = Vec::with_capacity(len);
        for mut label in labels() {
            while label >= 0x80 {
                code.push(label as u8 | 0x80);
                label >>= 7;
            }
            code.push(label as u8);
        }
        debug_assert_eq!(code.len(), len);
        PackedGraph {
            code: code.into_boxed_slice(),
        }
    }
}

impl PackedGraph {
    /// The packed graph under the node relabelling `perm` (edge `i → j`
    /// becomes `perm[i] → perm[j]`), decoded in one pass and one
    /// allocation: equal to `ExecutionGraph::relabelled(&graph, perm)` of
    /// the graph it was packed from.  Fails with
    /// [`CoreError::SizeMismatch`] unless `perm` has one entry per
    /// service; `perm` must be a permutation of `0..n` (debug-asserted).
    pub fn relabelled(&self, perm: &[ServiceId]) -> CoreResult<ExecutionGraph> {
        let mut labels = Labels(self.code.iter());
        let n = labels.next().expect("a packed graph starts with its size");
        if perm.len() != n {
            return Err(CoreError::SizeMismatch {
                expected: n,
                found: perm.len(),
            });
        }
        debug_assert!(distinct_below(perm, n));
        // Each label ends on its one byte below 0x80: `n`'s, then two an
        // edge.
        let m = (self.code.iter().filter(|&&byte| byte < 0x80).count() - 1) / 2;
        let edges = EdgeLabels(labels).map(|(i, j)| (perm[i], perm[j]));
        Ok(ExecutionGraph::build(n, m, edges))
    }
}

/// Bytes of `label` as an LEB128 varint.
fn varint_len(label: usize) -> usize {
    (usize::BITS - (label | 1).leading_zeros()).div_ceil(7) as usize
}

/// The labels of a [`PackedGraph`] code, decoded one varint at a time.
#[derive(Clone)]
struct Labels<'a>(std::slice::Iter<'a, u8>);

impl Iterator for Labels<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        let (mut label, mut shift) = (0, 0);
        loop {
            let byte = *self.0.next()?;
            label |= usize::from(byte & 0x7f) << shift;
            if byte < 0x80 {
                return Some(label);
            }
            shift += 7;
        }
    }
}

/// The edges of a [`PackedGraph`] code: its labels after `n`, two at a
/// time.
#[derive(Clone)]
struct EdgeLabels<'a>(Labels<'a>);

impl Iterator for EdgeLabels<'_> {
    type Item = (ServiceId, ServiceId);

    fn next(&mut self) -> Option<Self::Item> {
        Some((self.0.next()?, self.0.next()?))
    }
}

/// Words in the block of a graph over `n` services and `m` edges,
/// `2n + 2 + 2m`.
///
/// # Panics
///
/// When that exceeds `u32::MAX`: the block's offsets index it in `u32`
/// words.
fn block_words(n: usize, m: usize) -> u32 {
    n.checked_add(m)
        .and_then(|nm| nm.checked_add(1))
        .and_then(|nm| nm.checked_mul(2))
        .and_then(|words| u32::try_from(words).ok())
        .unwrap_or_else(|| {
            panic!("an execution graph of {n} services and {m} edges needs over u32::MAX words")
        })
}

/// Moves the offsets of a graph over `n` services after an edge `i → j`
/// was inserted (`grow`) or removed: successor lists after `i` by one,
/// every predecessor list by one (the successor block changed size), and
/// predecessor lists after `j` by one more.
fn shift_offsets(adj: &mut [u32], n: usize, i: ServiceId, j: ServiceId, grow: bool) {
    for (slot, offset) in adj[..=2 * n + 1].iter_mut().enumerate().skip(i + 1) {
        let by = 1 + u32::from(slot >= n + 2 + j);
        if grow {
            *offset += by;
        } else {
            *offset -= by;
        }
    }
}

/// `true` when every id of `ids` is below `n` and none repeats; allocation
/// free up to 128 services.
fn distinct_below(ids: &[ServiceId], n: usize) -> bool {
    if n > 128 {
        let mut seen = vec![false; n];
        return ids
            .iter()
            .all(|&k| k < n && !std::mem::replace(&mut seen[k], true));
    }
    let mut seen = 0u128;
    ids.iter().all(|&k| {
        let fresh = k < n && seen & (1 << k) == 0;
        seen |= 1 << k.min(127);
        fresh
    })
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

    /// A graph is its one boxed block: `n` is read off the block's first
    /// word, the empty graph included.
    #[test]
    fn a_graph_is_one_boxed_slice() {
        assert_eq!(std::mem::size_of::<ExecutionGraph>(), 16);
        for n in [0, 1, 6] {
            assert_eq!(ExecutionGraph::new(n).n(), n);
        }
        assert_eq!(diamond().n(), 4);
        assert_eq!(
            ExecutionGraph::from_parents(&[None, Some(0)]).unwrap().n(),
            2
        );
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
    fn edits_keep_the_flat_block_equal_to_a_fresh_build() {
        // A tiny LCG drives random additions and removals; after every edit
        // the edited graph must equal the one built from its edge list,
        // and both directions must agree with a reference edge set.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for n in [1usize, 2, 5, 9] {
            let mut g = ExecutionGraph::new(n);
            let mut reference = std::collections::BTreeSet::new();
            for _ in 0..200 {
                let (i, j) = (next(n), next(n));
                if next(3) == 0 {
                    assert_eq!(g.remove_edge(i, j), reference.remove(&(i, j)));
                } else if g.add_edge(i, j).is_ok() {
                    reference.insert((i, j));
                }
                let edges: Vec<_> = reference.iter().copied().collect();
                assert_eq!(g.edges().collect::<Vec<_>>(), edges);
                assert_eq!(g.edge_count(), edges.len());
                assert_eq!(ExecutionGraph::from_edges(n, &edges).unwrap(), g);
                for k in 0..n {
                    let preds: Vec<u32> = edges
                        .iter()
                        .filter(|e| e.1 == k)
                        .map(|e| e.0 as u32)
                        .collect();
                    assert_eq!(g.preds(k), preds.as_slice());
                }
            }
        }
    }

    #[test]
    fn bulk_constructors_report_the_first_refused_edge() {
        assert_eq!(
            ExecutionGraph::from_parents(&[Some(1), Some(0)]),
            Err(CoreError::WouldCreateCycle { from: 0, to: 1 })
        );
        assert_eq!(
            ExecutionGraph::from_parents(&[None, Some(1)]),
            Err(CoreError::SelfLoop { id: 1 })
        );
        assert_eq!(
            ExecutionGraph::from_parents(&[None, Some(7)]),
            Err(CoreError::InvalidService { id: 7, n: 2 })
        );
        assert_eq!(
            ExecutionGraph::from_edges(3, &[(0, 1), (1, 2), (2, 0), (0, 9)]),
            Err(CoreError::WouldCreateCycle { from: 2, to: 0 })
        );
        assert_eq!(
            ExecutionGraph::chain_of(3, &[0, 1, 0]),
            Err(CoreError::WouldCreateCycle { from: 1, to: 0 })
        );
        let repeated = ExecutionGraph::from_edges(3, &[(0, 1), (0, 1), (1, 2)]).unwrap();
        assert_eq!(repeated, ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap());
        assert_eq!(
            ExecutionGraph::chain_of(4, &[3, 1]).unwrap(),
            ExecutionGraph::from_edges(4, &[(3, 1)]).unwrap()
        );
    }

    #[test]
    fn relabelling_maps_every_edge_and_checks_its_size() {
        let g = diamond();
        let perm = [3, 0, 2, 1];
        let moved = g.relabelled(&perm).unwrap();
        let expected: Vec<_> = g.edges().map(|(i, j)| (perm[i], perm[j])).collect();
        assert_eq!(moved, ExecutionGraph::from_edges(4, &expected).unwrap());
        assert_eq!(
            g.relabelled(&[0, 1]),
            Err(CoreError::SizeMismatch {
                expected: 4,
                found: 2
            })
        );
    }

    /// Packs `g`, checks the code's length, and requires the code to
    /// decode to `g` under the identity and to `g.relabelled(perm)` under
    /// `perm`.
    fn assert_packs(g: &ExecutionGraph, perm: &[ServiceId], code_len: usize) {
        let packed = PackedGraph::from(g);
        assert_eq!(packed.code.len(), code_len, "{g:?}");
        let identity: Vec<ServiceId> = (0..g.n()).collect();
        assert_eq!(&packed.relabelled(&identity).unwrap(), g);
        assert_eq!(
            packed.relabelled(perm).unwrap(),
            g.relabelled(perm).unwrap()
        );
        assert_eq!(
            packed.relabelled(&identity[..g.n().saturating_sub(1)]),
            g.relabelled(&identity[..g.n().saturating_sub(1)])
        );
    }

    /// The permutation of `0..n` that reverses the labels and shifts
    /// them by three.
    fn shuffle(n: usize) -> Vec<ServiceId> {
        (0..n).map(|k| (n + 2 - k) % n).collect()
    }

    #[test]
    fn edgeless_graphs_pack_into_their_size() {
        assert_packs(&ExecutionGraph::new(0), &[], 1);
        assert_packs(&ExecutionGraph::new(1), &[0], 1);
        assert_packs(&ExecutionGraph::new(5), &[4, 2, 0, 3, 1], 1);
    }

    #[test]
    fn forests_pack_one_byte_a_label() {
        // Six services in two trees, four edges: 1 + 2·4 bytes.
        let forest =
            ExecutionGraph::from_parents(&[None, Some(0), Some(0), Some(1), None, Some(4)])
                .unwrap();
        assert_eq!(forest.edge_count(), 4);
        assert_packs(&forest, &[5, 3, 1, 0, 2, 4], 9);
        let tree =
            ExecutionGraph::from_parents(&[Some(3), Some(3), Some(0), None, Some(1), Some(2)])
                .unwrap();
        assert_packs(&tree, &shuffle(6), 11);
        let chain = ExecutionGraph::chain_of(7, &[6, 2, 4, 0, 1, 5, 3]).unwrap();
        assert_packs(&chain, &shuffle(7), 13);
    }

    #[test]
    fn dags_with_joins_pack_every_edge() {
        // Service 3 joins 1 and 2, and 4 joins 0 and 3.
        let g = diamond();
        assert_packs(&g, &[3, 0, 2, 1], 9);
        let dag = ExecutionGraph::from_edges(5, &[(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (0, 4)])
            .unwrap();
        assert!(dag.preds(3).len() == 2 && dag.preds(4).len() == 2);
        assert_packs(&dag, &shuffle(5), 13);
    }

    #[test]
    fn labels_from_128_up_take_two_bytes() {
        // 200 services: `n` and every label from 128 take two bytes.  A
        // chain over 0..200 has 199 edges, whose 398 endpoints include 143
        // labels of two bytes (128..=198 as sources, 128..=199 as targets).
        let n = 200;
        let order: Vec<ServiceId> = (0..n).collect();
        let chain = ExecutionGraph::chain_of(n, &order).unwrap();
        assert_packs(&chain, &shuffle(n), 2 + 398 + 143);
        // A join at 199 of a label below 128 and one above.
        let g =
            ExecutionGraph::from_edges(n, &[(0, 199), (150, 199), (199, 1), (127, 128)]).unwrap();
        assert_packs(&g, &shuffle(n), 2 + 8 + 5);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(1 << 14), 3);
        assert_eq!(varint_len(u32::MAX as usize), 5);
    }

    #[test]
    fn debug_output_lists_both_directions() {
        let g = ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap();
        assert_eq!(
            format!("{g:?}"),
            "ExecutionGraph { n: 3, succs: [[1], [2], []], preds: [[], [0], [1]] }"
        );
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
