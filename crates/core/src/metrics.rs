//! Communication and computation volumes of a plan.
//!
//! Given an application and an execution graph, this module computes the
//! quantities of Section 2.1 of the paper (after normalising `δ0 = b = s = 1`):
//!
//! * `input_factor(k)` — the size of the data set *entering* service `C_k`,
//!   i.e. `Π_{C_j ∈ Ancest_k(EG)} σ_j`;
//! * `Ccomp(k) = input_factor(k) · c_k` — computation time of `C_k`;
//! * `Cin(k)` — total volume received by `C_k` from its direct predecessors
//!   (entry nodes receive one data set of size `δ0 = 1` from the input node);
//! * `Cout(k)` — total volume sent by `C_k` to its direct successors
//!   (exit nodes send one message of size `input_factor(k) · σ_k` to the
//!   output node).
//!
//! ### Edge volumes
//!
//! The paper's Section 2.1 formula for `Cin` omits the factor `σ_i` on the
//! data received from a direct predecessor `C_i`, while `Cout` includes it.
//! The worked counter-examples of Appendix B are only consistent with the
//! *physical* reading — the data travelling on an edge `(i, j)` is the output
//! of `C_i`, of size `σ_i · Π_{C_a ∈ Ancest_i} σ_a` — so this crate uses that
//! reading throughout.

use crate::error::{CoreError, CoreResult};
use crate::graph::ExecutionGraph;
use crate::model::CommModel;
use crate::oplist::EdgeRef;
use crate::service::{Application, ServiceId};

/// Pre-computed per-service volumes for a `(Application, ExecutionGraph)` pair.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanMetrics {
    input_factor: Vec<f64>,
    c_in: Vec<f64>,
    c_comp: Vec<f64>,
    c_out: Vec<f64>,
}

impl PlanMetrics {
    /// Computes all volumes for the given application and execution graph.
    pub fn compute(app: &Application, graph: &ExecutionGraph) -> CoreResult<Self> {
        if app.n() != graph.n() {
            return Err(CoreError::SizeMismatch {
                expected: app.n(),
                found: graph.n(),
            });
        }
        let n = app.n();
        let order = graph.topological_order()?;

        // input_factor[k] = product of selectivities of all strict ancestors of k.
        //
        // Single-predecessor nodes inherit it **structurally** along the
        // parent chain (`factor[k] = factor[p] · σ_p`): the float value is
        // then a function of the path alone, so class-preserving
        // relabellings — which map paths to weight-identical paths — leave
        // it bit-identical (the property the symmetry-reduced searches rely
        // on), and forests never pay for ancestor sets at all.  Only join
        // nodes fall back to the per-node ancestor-set product, which counts
        // "diamond" ancestors exactly once (selectivities are independent,
        // join cost negligible — Section 2.1).
        let needs_ancestor_sets = (0..n).any(|k| graph.preds(k).len() > 1);
        let anc = if needs_ancestor_sets {
            Some(graph.ancestor_sets())
        } else {
            None
        };
        let mut input_factor = vec![1.0f64; n];
        for &k in &order {
            input_factor[k] = match graph.preds(k) {
                [] => 1.0,
                &[p] => {
                    let p = p as usize;
                    input_factor[p] * app.selectivity(p)
                }
                _ => {
                    let sets = anc.as_ref().expect("computed when a join exists");
                    let mut prod = 1.0;
                    for (a, &is_anc) in sets[k].iter().enumerate() {
                        if is_anc {
                            prod *= app.selectivity(a);
                        }
                    }
                    prod
                }
            };
        }

        let mut c_in = vec![0.0f64; n];
        let mut c_comp = vec![0.0f64; n];
        let mut c_out = vec![0.0f64; n];
        for k in 0..n {
            c_comp[k] = input_factor[k] * app.cost(k);
            let preds = graph.preds(k);
            if preds.is_empty() {
                // one incoming message of size δ0 = 1 from the input node
                c_in[k] = 1.0;
            } else {
                c_in[k] = preds
                    .iter()
                    .map(|&p| input_factor[p as usize] * app.selectivity(p as usize))
                    .sum();
            }
            let out_size = input_factor[k] * app.selectivity(k);
            let succs = graph.succs(k);
            let fanout = if succs.is_empty() { 1 } else { succs.len() };
            c_out[k] = fanout as f64 * out_size;
        }
        Ok(PlanMetrics {
            input_factor,
            c_in,
            c_comp,
            c_out,
        })
    }

    /// Number of services.
    pub fn n(&self) -> usize {
        self.input_factor.len()
    }

    /// `Π_{C_j ∈ Ancest_k} σ_j`: relative size of the data entering `C_k`.
    pub fn input_factor(&self, k: ServiceId) -> f64 {
        self.input_factor[k]
    }

    /// Lower bound on the time `C_k` spends receiving data for one data set.
    pub fn c_in(&self, k: ServiceId) -> f64 {
        self.c_in[k]
    }

    /// Computation time of `C_k` for one data set.
    pub fn c_comp(&self, k: ServiceId) -> f64 {
        self.c_comp[k]
    }

    /// Lower bound on the time `C_k` spends sending data for one data set.
    pub fn c_out(&self, k: ServiceId) -> f64 {
        self.c_out[k]
    }

    /// Per-service execution bound `Cexec(k)` (Section 2.2):
    /// `max(Cin, Ccomp, Cout)` under [`CommModel::Overlap`],
    /// `Cin + Ccomp + Cout` under the one-port models.
    pub fn c_exec(&self, k: ServiceId, model: CommModel) -> f64 {
        match model {
            CommModel::Overlap => self.c_in[k].max(self.c_comp[k]).max(self.c_out[k]),
            CommModel::OutOrder | CommModel::InOrder => {
                self.c_in[k] + self.c_comp[k] + self.c_out[k]
            }
        }
    }

    /// Lower bound on the period of any operation list for this execution
    /// graph under the given model: `max_k Cexec(k)`.
    ///
    /// Under [`CommModel::Overlap`] the bound is achievable (Theorem 1); under
    /// the one-port models it may not be (Section 2.3's example).
    pub fn period_lower_bound(&self, model: CommModel) -> f64 {
        (0..self.n())
            .map(|k| self.c_exec(k, model))
            .fold(0.0, f64::max)
    }

    /// Size of the data set travelling on a plan edge (input, service-to-service
    /// or output edge), given the application used to build these metrics.
    pub fn edge_volume(&self, app: &Application, edge: EdgeRef) -> f64 {
        match edge {
            EdgeRef::Input(_) => 1.0,
            EdgeRef::Link(i, _) => self.input_factor[i] * app.selectivity(i),
            EdgeRef::Output(k) => self.input_factor[k] * app.selectivity(k),
        }
    }
}

/// How far a node's ancestry is known in a [`PartialForestMetrics`] prefix.
#[derive(Clone, Copy, Debug, PartialEq)]
enum ChainState {
    /// The walk to the root stays within the assigned prefix: the node's
    /// input factor (and the input/computation volumes along its chain) are
    /// final in **every** completion of the prefix.
    Decided {
        /// `Π sel` over the node's (final) strict ancestors.
        factor: f64,
        /// `Σ (in-volume + computation)` along the chain from its root down
        /// to and including this node — a critical-path prefix.
        path: f64,
    },
    /// The walk reaches a node whose parent is not assigned yet.
    Undecided,
    /// The walk re-enters itself: the assigned prefix already contains a
    /// cycle, so *no* completion is a valid execution graph.
    Cycle,
    /// Memo marker for a node currently on the resolution stack.
    Visiting,
}

/// Incrementally maintained volumes of a *partial* parent function, powering
/// branch-and-bound pruning in the exhaustive forest enumeration.
///
/// Parents are assigned in service order (`push` assigns the next service,
/// `pop` undoes the last assignment); child counts are updated per added or
/// removed edge rather than recomputed.  The symmetry-reduced searches
/// enumerate canonical *positions* rather than concrete services:
/// [`PartialForestMetrics::push_weighted`] lets them pin each position to the
/// weights of an arbitrary service (of the position's weight class), keeping
/// the bounds bit-identical to those of the relabelled concrete graph.
/// At any prefix the structure yields *admissible* bounds — values that no
/// completion of the prefix can beat:
///
/// * a node whose parent chain stays inside the assigned prefix has a final
///   ancestor set (later assignments only add descendants), so its `Cin` and
///   `Ccomp` are exact and its `Cout` can only grow as more children attach;
/// * [`PartialForestMetrics::period_bound`] is therefore a lower bound on
///   `PlanMetrics::period_lower_bound` of every completion (and equals it at
///   a full assignment);
/// * [`PartialForestMetrics::latency_bound`] is a lower bound on the optimal
///   one-port latency (`tree_latency`) of every completion: the critical
///   path through any decided node is already fully priced.
///
/// Both bounds return `f64::INFINITY` when the prefix contains a cycle —
/// every completion is then infeasible and the whole subtree can be pruned.
///
/// ### Communication-aware floors for unplaced services
///
/// Beyond the decided prefix, every service whose weights are not yet carried
/// by any position must still appear somewhere in each completion, where its
/// input factor is at least `fmin(k) = Π_{j≠k} min(1, σ_j)` (extra ancestors
/// can only shrink the data by factors ≤ 1, and any ancestor set is a subset
/// of the other services).  That yields per-service *execution floors* that
/// hold in every completion:
///
/// * overlap period: `fmin · max(1, c_k, σ_k)` (`Cin ≥ fmin`, `Ccomp ≥
///   fmin·c_k`, `Cout ≥ fmin·σ_k`);
/// * one-port period: `fmin · (1 + c_k + σ_k)`;
/// * latency: `1 + fmin · (c_k + σ_k)` (every chain prefix costs at least the
///   initial data set, plus the node's own computation and one emission).
///
/// Every completion also has an entry node, which receives the `δ0 = 1`
/// input.  While no placed position is an entry node, one of the unplaced
/// services must become one, so the period bound also includes the
/// cheapest unplaced service's *entry* execution: `max(1, c_k, σ_k)` under
/// OVERLAP, `(1 + c_k) + σ_k` under the one-port models (summed in the
/// order `PlanMetrics::c_exec` sums, so it never exceeds the real term).
///
/// `fmin` is multiplied in a fixed (sorted) order so its bits depend only on
/// the weight *multiset* and `k`'s own weights — class-preserving
/// relabellings leave the floors bit-identical, which the symmetry-reduced
/// searches rely on.
///
/// ### Rounding contract
///
/// The period bound is **bit-admissible**: no completion's
/// `PlanMetrics::period_lower_bound` is below it, not even by an ulp.  The
/// decided terms are computed in the same operation order as the full
/// metrics (path-order input factors, then `Cin`, `Ccomp`, `Cout`), and
/// float multiplication and addition are monotone, so they never exceed the
/// real terms.  A completion takes its input factor as a product in *path*
/// order, though, which can land below the sorted-order `fmin`; the period
/// floors are therefore shaved by the relative margin `(4n + 8)·ε`, more
/// than the rounding error of the products and sums involved.  This is what
/// lets a search whose candidate value *is* the structural period bound drop
/// subtrees whose bound merely *reaches* a value it already holds (tie
/// dominance).  The latency bound carries no such guarantee — a tree
/// latency can sit ulps below it — and is only ever used under the
/// strict-clearance epsilon the search engines prune with.
#[derive(Clone, Debug)]
pub struct PartialForestMetrics<'a> {
    app: &'a Application,
    parent: Vec<Option<ServiceId>>,
    /// Which service's weights each position carries (identity unless
    /// [`PartialForestMetrics::push_weighted`] pinned something else).
    weight: Vec<ServiceId>,
    children: Vec<usize>,
    assigned: usize,
    /// Generation-stamped memo for chain resolution; bumping `gen` invalidates
    /// every entry without clearing the arrays.
    gen: u64,
    memo_gen: Vec<u64>,
    memo: Vec<ChainState>,
    scratch: Vec<ServiceId>,
    /// Whether each service's weights are carried by some assigned position
    /// (the membership mask of `weight[..assigned]`).
    placed: Vec<bool>,
    /// Number of assigned positions that are entry nodes (no parent).
    roots: usize,
    /// Admissible execution floors for not-yet-placed services, sorted by
    /// decreasing floor so a query is the first unplaced entry.
    floor_overlap: Vec<(f64, ServiceId)>,
    floor_oneport: Vec<(f64, ServiceId)>,
    floor_latency: Vec<(f64, ServiceId)>,
}

impl<'a> PartialForestMetrics<'a> {
    /// An empty prefix (no parent assigned yet) over `app`'s services.
    pub fn new(app: &'a Application) -> Self {
        let n = app.n();
        // fmin(k) = Π_{j≠k} min(1, σ_j), multiplied in sorted order so the
        // bits are a function of (multiset, σ_k) alone — see the type docs.
        let mut shrink: Vec<f64> = (0..n).map(|j| app.selectivity(j).min(1.0)).collect();
        shrink.sort_by(|a, b| b.total_cmp(a));
        let mut prefix = vec![1.0f64; n + 1];
        for i in 0..n {
            prefix[i + 1] = prefix[i] * shrink[i];
        }
        let mut suffix = vec![1.0f64; n + 1];
        for i in (0..n).rev() {
            suffix[i] = shrink[i] * suffix[i + 1];
        }
        // The bit-admissibility margin of the period floors (type docs).
        let shave = 1.0 - (4 * n + 8) as f64 * f64::EPSILON;
        let mut floor_overlap = Vec::with_capacity(n);
        let mut floor_oneport = Vec::with_capacity(n);
        let mut floor_latency = Vec::with_capacity(n);
        for k in 0..n {
            let own = app.selectivity(k).min(1.0);
            let i = shrink
                .iter()
                .position(|v| v.to_bits() == own.to_bits())
                .expect("every shrink factor is in the sorted list");
            let fmin = prefix[i] * suffix[i + 1];
            let (cost, sel) = (app.cost(k), app.selectivity(k));
            floor_overlap.push((fmin * 1.0f64.max(cost).max(sel) * shave, k));
            floor_oneport.push((fmin * (1.0 + cost + sel) * shave, k));
            floor_latency.push((1.0 + fmin * (cost + sel), k));
        }
        for list in [&mut floor_overlap, &mut floor_oneport, &mut floor_latency] {
            list.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        }
        PartialForestMetrics {
            app,
            parent: vec![None; n],
            weight: (0..n).collect(),
            children: vec![0; n],
            assigned: 0,
            gen: 1,
            memo_gen: vec![0; n],
            memo: vec![ChainState::Undecided; n],
            scratch: Vec::with_capacity(n),
            placed: vec![false; n],
            roots: 0,
            floor_overlap,
            floor_oneport,
            floor_latency,
        }
    }

    /// Number of services whose parent has been assigned.
    pub fn assigned(&self) -> usize {
        self.assigned
    }

    /// The parent function built so far (`None` beyond the assigned prefix).
    pub fn parents(&self) -> &[Option<ServiceId>] {
        &self.parent
    }

    /// Assigns the next service's parent (`None` makes it an entry node).
    pub fn push(&mut self, parent: Option<ServiceId>) {
        let k = self.assigned;
        self.push_weighted(parent, k);
    }

    /// Assigns the next *position*'s parent, carrying the weights of service
    /// `weight_of` (any service of the position's weight class): the
    /// symmetry-reduced enumerations walk canonical positions whose concrete
    /// service ids depend on the colouring.  `push` is the identity case.
    pub fn push_weighted(&mut self, parent: Option<ServiceId>, weight_of: ServiceId) {
        let k = self.assigned;
        debug_assert!(k < self.parent.len());
        debug_assert!(parent != Some(k), "self-loops are never enumerated");
        debug_assert!(weight_of < self.parent.len());
        debug_assert!(
            !self.placed[weight_of],
            "every position must carry a distinct service's weights"
        );
        self.parent[k] = parent;
        self.weight[k] = weight_of;
        self.placed[weight_of] = true;
        match parent {
            Some(p) => self.children[p] += 1,
            None => self.roots += 1,
        }
        self.assigned += 1;
        self.gen += 1;
    }

    /// Undoes the last [`PartialForestMetrics::push`].
    pub fn pop(&mut self) {
        debug_assert!(self.assigned > 0);
        self.assigned -= 1;
        match self.parent[self.assigned] {
            Some(p) => self.children[p] -= 1,
            None => self.roots -= 1,
        }
        self.placed[self.weight[self.assigned]] = false;
        self.parent[self.assigned] = None;
        self.weight[self.assigned] = self.assigned;
        self.gen += 1;
    }

    /// Largest floor among services not yet placed (0 when all are placed).
    /// Lists are sorted descending, so the first unplaced entry is the max;
    /// the value depends only on the unplaced weight *multiset*, keeping it
    /// bit-identical across class-preserving relabellings.
    fn unplaced_floor(&self, list: &[(f64, ServiceId)]) -> f64 {
        for &(lb, k) in list {
            if !self.placed[k] {
                return lb;
            }
        }
        0.0
    }

    /// The cheapest not-yet-placed service's execution as an entry node,
    /// which receives the `δ0 = 1` input: `max(1, c, σ)` under OVERLAP,
    /// `(1 + c) + σ` under the one-port models, each summed in the order
    /// [`PlanMetrics::c_exec`] sums.  Like the floors, the value depends
    /// only on the unplaced weight multiset.  `∞` when every service is
    /// placed: a full prefix without an entry node is cyclic.
    fn entry_floor(&self, model: CommModel) -> f64 {
        (0..self.placed.len())
            .filter(|&k| !self.placed[k])
            .map(|k| {
                let (cost, sel) = (self.app.cost(k), self.app.selectivity(k));
                match model {
                    CommModel::Overlap => 1.0f64.max(cost).max(sel),
                    CommModel::InOrder | CommModel::OutOrder => (1.0 + cost) + sel,
                }
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// Resolves the chain state of `j`, memoised for the current generation.
    fn resolve(&mut self, j0: ServiceId) -> ChainState {
        if self.memo_gen[j0] == self.gen {
            let r = self.memo[j0];
            debug_assert!(r != ChainState::Visiting);
            return r;
        }
        let mut stack = std::mem::take(&mut self.scratch);
        stack.clear();
        let mut j = j0;
        // Walk up until the state of `j`'s parentage is known.
        let base = loop {
            if self.memo_gen[j] == self.gen {
                break match self.memo[j] {
                    ChainState::Visiting => ChainState::Cycle,
                    r => r,
                };
            }
            if j >= self.assigned {
                break ChainState::Undecided;
            }
            match self.parent[j] {
                None => {
                    let r = ChainState::Decided {
                        factor: 1.0,
                        path: 1.0 + self.app.cost(self.weight[j]),
                    };
                    self.memo_gen[j] = self.gen;
                    self.memo[j] = r;
                    break r;
                }
                Some(p) => {
                    self.memo_gen[j] = self.gen;
                    self.memo[j] = ChainState::Visiting;
                    stack.push(j);
                    j = p;
                }
            }
        };
        // Unwind: combine each stacked node with its (now resolved) parent.
        let mut cur = base;
        while let Some(v) = stack.pop() {
            cur = match cur {
                ChainState::Decided {
                    factor: fp,
                    path: pp,
                } => {
                    let p = self.parent[v].expect("stacked nodes have parents");
                    // Volume on the edge p → v, which is also v's input factor.
                    let volume = fp * self.app.selectivity(self.weight[p]);
                    let comp = volume * self.app.cost(self.weight[v]);
                    ChainState::Decided {
                        factor: volume,
                        path: pp + volume + comp,
                    }
                }
                other => other,
            };
            self.memo[v] = cur;
        }
        self.scratch = stack;
        cur
    }

    /// Bit-admissible lower bound on `PlanMetrics::period_lower_bound(model)`
    /// of every completion of the current prefix (`∞` when the prefix is
    /// cyclic): the decided prefix terms combined with the
    /// communication-aware floor of the services still to be placed and,
    /// while no placed position is an entry node, the entry-node floor.
    pub fn period_bound(&mut self, model: CommModel) -> f64 {
        let mut bound = match model {
            CommModel::Overlap => self.unplaced_floor(&self.floor_overlap),
            CommModel::InOrder | CommModel::OutOrder => self.unplaced_floor(&self.floor_oneport),
        };
        if self.roots == 0 {
            bound = bound.max(self.entry_floor(model));
        }
        for j in 0..self.assigned {
            match self.resolve(j) {
                ChainState::Cycle => return f64::INFINITY,
                ChainState::Undecided | ChainState::Visiting => {}
                ChainState::Decided { factor, .. } => {
                    let cin = if self.parent[j].is_none() {
                        1.0
                    } else {
                        factor
                    };
                    let comp = factor * self.app.cost(self.weight[j]);
                    let out_size = factor * self.app.selectivity(self.weight[j]);
                    let cout = self.children[j].max(1) as f64 * out_size;
                    let cexec = match model {
                        CommModel::Overlap => cin.max(comp).max(cout),
                        CommModel::InOrder | CommModel::OutOrder => cin + comp + cout,
                    };
                    bound = bound.max(cexec);
                }
            }
        }
        bound
    }

    /// Lower bound on the optimal one-port latency (`tree_latency`) of every
    /// feasible completion of the current prefix (`∞` when cyclic), including
    /// the floor of the services still to be placed.
    pub fn latency_bound(&mut self) -> f64 {
        let mut bound = self.unplaced_floor(&self.floor_latency);
        for j in 0..self.assigned {
            match self.resolve(j) {
                ChainState::Cycle => return f64::INFINITY,
                ChainState::Undecided | ChainState::Visiting => {}
                ChainState::Decided { factor, path } => {
                    // After j's computation the data either leaves through the
                    // output node or feeds a child; both cost at least one
                    // emission of j's output size.
                    bound = bound.max(path + factor * self.app.selectivity(self.weight[j]));
                }
            }
        }
        bound
    }
}

/// All plan edges of an execution graph, in a deterministic order:
/// input edges (by entry node id), then service-to-service edges (by source,
/// then target), then output edges (by exit node id).
pub fn plan_edges(graph: &ExecutionGraph) -> Vec<EdgeRef> {
    let mut edges = Vec::new();
    for k in graph.entry_nodes() {
        edges.push(EdgeRef::Input(k));
    }
    for (i, j) in graph.edges() {
        edges.push(EdgeRef::Link(i, j));
    }
    for k in graph.exit_nodes() {
        edges.push(EdgeRef::Output(k));
    }
    edges
}

/// Incoming plan edges of service `k` (including the input edge for entry nodes).
pub fn in_edges(graph: &ExecutionGraph, k: ServiceId) -> Vec<EdgeRef> {
    let preds = graph.preds(k);
    if preds.is_empty() {
        vec![EdgeRef::Input(k)]
    } else {
        preds
            .iter()
            .map(|&p| EdgeRef::Link(p as usize, k))
            .collect()
    }
}

/// Outgoing plan edges of service `k` (including the output edge for exit nodes).
pub fn out_edges(graph: &ExecutionGraph, k: ServiceId) -> Vec<EdgeRef> {
    let succs = graph.succs(k);
    if succs.is_empty() {
        vec![EdgeRef::Output(k)]
    } else {
        succs
            .iter()
            .map(|&s| EdgeRef::Link(k, s as usize))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The worked example of Section 2.3: five services of cost 4 and
    /// selectivity 1; execution graph of Figure 1.
    fn section23() -> (Application, ExecutionGraph) {
        let app = Application::independent(&[(4.0, 1.0); 5]);
        // C1=0, C2=1, C3=2, C4=3, C5=4
        let g = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
        (app, g)
    }

    #[test]
    fn section23_bounds() {
        let (app, g) = section23();
        let m = PlanMetrics::compute(&app, &g).unwrap();
        // C1: receives 1 from input, computes 4, sends to C2 and C4 (2 messages of size 1)
        assert_eq!(m.c_in(0), 1.0);
        assert_eq!(m.c_comp(0), 4.0);
        assert_eq!(m.c_out(0), 2.0);
        // C5: receives from C3 and C4 (2 messages), computes 4, sends 1 to output
        assert_eq!(m.c_in(4), 2.0);
        assert_eq!(m.c_comp(4), 4.0);
        assert_eq!(m.c_out(4), 1.0);
        // Period lower bounds quoted in the paper: 4 for OVERLAP, 7 for the one-port models.
        assert_eq!(m.period_lower_bound(CommModel::Overlap), 4.0);
        assert_eq!(m.period_lower_bound(CommModel::OutOrder), 7.0);
        assert_eq!(m.period_lower_bound(CommModel::InOrder), 7.0);
    }

    #[test]
    fn selectivity_propagates_to_descendants() {
        // 0 (sigma=0.5) -> 1 (sigma=2.0) -> 2
        let app = Application::independent(&[(1.0, 0.5), (2.0, 2.0), (4.0, 1.0)]);
        let g = ExecutionGraph::chain_of(3, &[0, 1, 2]).unwrap();
        let m = PlanMetrics::compute(&app, &g).unwrap();
        assert_eq!(m.input_factor(0), 1.0);
        assert_eq!(m.input_factor(1), 0.5);
        assert_eq!(m.input_factor(2), 1.0);
        assert_eq!(m.c_comp(1), 1.0);
        assert_eq!(m.c_comp(2), 4.0);
        // Edge volumes: in->0 is 1, 0->1 is 0.5, 1->2 is 1.0, 2->out is 1.0
        assert_eq!(m.edge_volume(&app, EdgeRef::Input(0)), 1.0);
        assert_eq!(m.edge_volume(&app, EdgeRef::Link(0, 1)), 0.5);
        assert_eq!(m.edge_volume(&app, EdgeRef::Link(1, 2)), 1.0);
        assert_eq!(m.edge_volume(&app, EdgeRef::Output(2)), 1.0);
        // Cin of 1 is the volume of edge 0->1.
        assert_eq!(m.c_in(1), 0.5);
        assert_eq!(m.c_out(0), 0.5);
    }

    #[test]
    fn diamond_counts_shared_ancestor_once() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, all selectivities 0.5
        let app = Application::independent(&[(1.0, 0.5); 4]);
        let g = ExecutionGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let m = PlanMetrics::compute(&app, &g).unwrap();
        // Ancestors of 3 are {0,1,2}; product = 0.125 (0 counted once).
        assert!((m.input_factor(3) - 0.125).abs() < 1e-12);
        // Cin(3) = vol(1->3) + vol(2->3) = 0.25 + 0.25
        assert!((m.c_in(3) - 0.5).abs() < 1e-12);
        // 0 has two successors: Cout(0) = 2 * 0.5
        assert!((m.c_out(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn counterexample_b2_volumes() {
        // Appendix B.2: 12 unit-cost services; σ2=σ3=2, σ4=σ5=σ6=3, others 1.
        // C1 (id 0) feeds all of C7..C12 (ids 6..11); C2,C3 feed 3 each; C4,C5,C6 feed 2 each,
        // such that every receiver gets volumes {1, 2, 3}.
        let mut specs = vec![(1.0, 1.0); 12];
        specs[1].1 = 2.0;
        specs[2].1 = 2.0;
        specs[3].1 = 3.0;
        specs[4].1 = 3.0;
        specs[5].1 = 3.0;
        let app = Application::independent(&specs);
        let mut edges = Vec::new();
        for j in 6..12 {
            edges.push((0usize, j)); // C1 -> all
        }
        for (idx, j) in (6..9).enumerate() {
            let _ = idx;
            edges.push((1, j));
        }
        for j in 9..12 {
            edges.push((2, j));
        }
        for j in [6, 7] {
            edges.push((3, j));
        }
        for j in [8, 9] {
            edges.push((4, j));
        }
        for j in [10, 11] {
            edges.push((5, j));
        }
        let g = ExecutionGraph::from_edges(12, &edges).unwrap();
        let m = PlanMetrics::compute(&app, &g).unwrap();
        for i in 0..6 {
            assert!(
                (m.c_out(i) - 6.0).abs() < 1e-12,
                "Cout({i}) = {}",
                m.c_out(i)
            );
        }
        for j in 6..12 {
            assert!((m.c_in(j) - 6.0).abs() < 1e-12, "Cin({j}) = {}", m.c_in(j));
            assert!((m.c_comp(j) - 6.0).abs() < 1e-12);
        }
    }

    #[test]
    fn partial_forest_bound_matches_full_metrics_when_complete() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let assignments: [&[Option<ServiceId>]; 3] = [
            &[None, Some(0), Some(0), Some(2)],
            &[None, None, Some(1), Some(1)],
            &[Some(1), None, Some(0), Some(2)],
        ];
        for parents in assignments {
            let mut pm = PartialForestMetrics::new(&app);
            for &p in parents {
                pm.push(p);
            }
            let graph = ExecutionGraph::from_parents(parents).unwrap();
            let metrics = PlanMetrics::compute(&app, &graph).unwrap();
            for model in [CommModel::Overlap, CommModel::InOrder, CommModel::OutOrder] {
                let full = metrics.period_lower_bound(model);
                let partial = pm.period_bound(model);
                assert!(
                    (full - partial).abs() <= 1e-12 * full.max(1.0),
                    "{model}: partial {partial} vs full {full}"
                );
            }
        }
    }

    #[test]
    fn partial_forest_bounds_grow_monotonically_and_stay_admissible() {
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let parents = [None, Some(0), Some(0), Some(2)];
        let graph = ExecutionGraph::from_parents(&parents).unwrap();
        let full = PlanMetrics::compute(&app, &graph)
            .unwrap()
            .period_lower_bound(CommModel::InOrder);
        let mut pm = PartialForestMetrics::new(&app);
        let mut last = 0.0;
        for &p in &parents {
            pm.push(p);
            let bound = pm.period_bound(CommModel::InOrder);
            assert!(bound + 1e-12 >= last, "bounds shrank: {bound} < {last}");
            assert!(bound <= full + 1e-12 * full.max(1.0));
            last = bound;
        }
        // Unwinding restores the earlier (weaker) bound.
        pm.pop();
        pm.pop();
        pm.push(parents[2]);
        pm.push(parents[3]);
        let rebound = pm.period_bound(CommModel::InOrder);
        assert!((rebound - last).abs() <= 1e-12 * last.max(1.0));
    }

    #[test]
    fn partial_forest_detects_cycles_and_forward_parents() {
        let app = Application::independent(&[(1.0, 1.0); 3]);
        // 0 → 1, 1 → 0 is a cycle within the assigned prefix.
        let mut pm = PartialForestMetrics::new(&app);
        pm.push(Some(1));
        pm.push(Some(0));
        assert!(pm.period_bound(CommModel::Overlap).is_infinite());
        assert!(pm.latency_bound().is_infinite());
        // A forward parent (2, unassigned) leaves node 0 undecided but the
        // prefix feasible.
        let mut pm = PartialForestMetrics::new(&app);
        pm.push(Some(2));
        pm.push(None);
        let bound = pm.period_bound(CommModel::InOrder);
        assert!(bound.is_finite());
        // Node 1 is a decided root: Cin + Ccomp + Cout = 1 + 1 + 1.
        assert!((bound - 3.0).abs() < 1e-12);
    }

    #[test]
    fn unplaced_floors_lower_bound_every_completion() {
        // The empty-prefix floor must lower-bound the full-assignment bound of
        // every forest over the application, for each model and for latency.
        let app = Application::independent(&[(2.0, 0.5), (1.0, 2.0), (3.0, 0.8), (1.0, 0.6)]);
        let n = app.n();
        let mut empty = PartialForestMetrics::new(&app);
        let floors = [
            empty.period_bound(CommModel::Overlap),
            empty.period_bound(CommModel::InOrder),
            empty.latency_bound(),
        ];
        assert!(floors.iter().all(|f| *f > 0.0), "floors fire on {floors:?}");
        let mut checked = 0;
        for code in 0..(n + 1).pow(n as u32) {
            let mut parents = Vec::with_capacity(n);
            let mut c = code;
            for k in 0..n {
                let choice = c % (n + 1);
                c /= n + 1;
                parents.push(if choice == n || choice == k {
                    None
                } else {
                    Some(choice)
                });
            }
            let Ok(graph) = ExecutionGraph::from_parents(&parents) else {
                continue;
            };
            let metrics = PlanMetrics::compute(&app, &graph).unwrap();
            let mut pm = PartialForestMetrics::new(&app);
            for &p in &parents {
                pm.push(p);
            }
            let eps = 1e-9;
            for (floor, full) in [
                (floors[0], metrics.period_lower_bound(CommModel::Overlap)),
                (floors[1], metrics.period_lower_bound(CommModel::InOrder)),
                (floors[2], pm.latency_bound()),
            ] {
                assert!(
                    floor <= full * (1.0 + eps),
                    "floor {floor} exceeds full bound {full} for {parents:?}"
                );
            }
            checked += 1;
        }
        assert!(checked > 50, "enumerated {checked} forests only");
    }

    #[test]
    fn period_bound_is_bit_admissible_on_every_prefix() {
        // Repeated selectivities make the sorted-order floors and a
        // completion's path-order input factors round apart: no prefix's
        // bound may exceed a completion's structural period, not even by
        // an ulp.
        let app = Application::independent(&[
            (7.0, 1.0),
            (7.0, 1.0),
            (0.25, 0.6),
            (0.25, 0.6),
            (1.0, 0.7),
            (1.0, 0.7),
        ]);
        let n = app.n();
        let mut checked = 0;
        for code in 0..n.pow(n as u32) {
            let parents: Vec<Option<ServiceId>> = (0..n)
                .map(|k| Some(code / n.pow(k as u32) % n).filter(|&p| p != k))
                .collect();
            let Ok(graph) = ExecutionGraph::from_parents(&parents) else {
                continue;
            };
            let metrics = PlanMetrics::compute(&app, &graph).unwrap();
            let mut pm = PartialForestMetrics::new(&app);
            for &p in &parents {
                pm.push(p);
                for model in [CommModel::Overlap, CommModel::InOrder] {
                    let (bound, full) = (pm.period_bound(model), metrics.period_lower_bound(model));
                    assert!(bound <= full, "{model}: {bound} > {full} for {parents:?}");
                }
            }
            checked += 1;
        }
        assert_eq!(checked, 7usize.pow(5), "Cayley: (n+1)^(n-1) forests");
    }

    #[test]
    fn entry_floor_prices_prefixes_without_a_placed_entry_node() {
        let app = Application::independent(&[(0.2, 0.1), (0.3, 0.2), (4.0, 0.9)]);
        let mut pm = PartialForestMetrics::new(&app);
        // Position 0 hangs off unplaced service 2: its chain is undecided,
        // and service 1 or 2 must be an entry node, receiving δ0 = 1.  The
        // cheaper, service 1, executes in max(1, 0.3, 0.2) under OVERLAP
        // and (1 + 0.3) + 0.2 under the one-port models.
        pm.push(Some(2));
        assert_eq!(pm.period_bound(CommModel::Overlap), 1.0);
        assert_eq!(pm.period_bound(CommModel::InOrder), (1.0 + 0.3) + 0.2);
    }

    #[test]
    fn unplaced_floors_are_identical_across_class_relabellings() {
        // Two services of one class, two of another: pushing either member of
        // a class must leave bit-identical bounds.
        let app = Application::independent(&[(2.0, 0.5), (2.0, 0.5), (1.0, 0.8), (1.0, 0.8)]);
        let mut a = PartialForestMetrics::new(&app);
        a.push_weighted(None, 0);
        a.push_weighted(Some(0), 2);
        let mut b = PartialForestMetrics::new(&app);
        b.push_weighted(None, 1);
        b.push_weighted(Some(0), 3);
        for model in [CommModel::Overlap, CommModel::InOrder, CommModel::OutOrder] {
            assert_eq!(
                a.period_bound(model).to_bits(),
                b.period_bound(model).to_bits()
            );
        }
        assert_eq!(a.latency_bound().to_bits(), b.latency_bound().to_bits());
    }

    #[test]
    fn size_mismatch_rejected() {
        let app = Application::independent(&[(1.0, 1.0); 3]);
        let g = ExecutionGraph::new(4);
        assert!(matches!(
            PlanMetrics::compute(&app, &g),
            Err(CoreError::SizeMismatch { .. })
        ));
    }

    #[test]
    fn edge_helpers() {
        let g = ExecutionGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        let edges = plan_edges(&g);
        assert_eq!(edges.len(), 1 + 2 + 2);
        assert_eq!(in_edges(&g, 0), vec![EdgeRef::Input(0)]);
        assert_eq!(in_edges(&g, 1), vec![EdgeRef::Link(0, 1)]);
        assert_eq!(
            out_edges(&g, 0),
            vec![EdgeRef::Link(0, 1), EdgeRef::Link(0, 2)]
        );
        assert_eq!(out_edges(&g, 2), vec![EdgeRef::Output(2)]);
    }
}
