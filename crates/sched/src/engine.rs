//! Shared machinery of the prune-and-memoise exhaustive searches.
//!
//! The exhaustive MINPERIOD / MINLATENCY enumerations used to be brute force:
//! every candidate execution graph paid a full evaluation, and the ~120k
//! candidate DAGs of a five-service MINLATENCY search each paid a fresh
//! one-port ordering search.  This module provides the three ingredients that
//! collapse that cost while keeping results **bit-identical** to the brute
//! force (see `crate::par` for the first-minimum-wins reduction rule):
//!
//! * [`Incumbent`] — a lock-free, monotonically decreasing bound shared by
//!   all worker threads.  Enumerators prune a subtree only when its
//!   admissible lower bound *strictly* exceeds the incumbent (plus a small
//!   relative safety margin, [`prune_threshold`]), so a candidate that ties
//!   the optimum is never pruned and the serial first-minimum winner is
//!   preserved whatever the thread count;
//! * [`PartialPrune`] — which partial-assignment bound the plan walks
//!   should maintain (period or latency, from
//!   [`fsw_core::PartialForestMetrics`] in the forest walks; the DAG walk
//!   keeps a latency floor only), and whether the candidate
//!   evaluation is that bound bit for bit, which lets both walks add the
//!   non-strict tie-dominance prune (`tie_dominated`);
//! * [`EvalCache`] — a concurrent memo of expensive candidate evaluations
//!   (the one-port latency ordering searches of MINLATENCY's DAG phase)
//!   keyed by a canonical edge-set signature, so the members of an
//!   equivalence class share a single search;
//! * [`CanonicalSpace`] — the symmetry-reduced *enumeration* layer: on
//!   [`CanonicalSpace::class_reducible`] instances the forest search
//!   iterates canonical representatives of weight-class orbits instead of
//!   the full labelled space — full relabelling symmetry on uniform
//!   weights, **class-preserving** relabelling (the product of
//!   per-weight-class symmetric groups) on multi-class instances — and
//!   walks the labelled space otherwise (the DAG walk of
//!   `crate::minperiod` always walks the labelled space);
//! * [`frontier`] — the one walk of a reduced space: the streamed
//!   bound-ordered canonical search, which applies the partial bounds before
//!   a representative is materialised and turns the incumbent into an early
//!   bound-clearance certificate.  The labelled space has one walk too, the
//!   depth-first branch-and-bound of `crate::minperiod`.
//!
//! ### Canonical signatures and bit-exactness
//!
//! Two labelled DAGs are merged only when the merge provably cannot change a
//! single output bit:
//!
//! * every graph is keyed by its exact edge set (the DAG walk builds each
//!   labelled DAG once, so the exact key pays across the solves sharing a
//!   cache — the three models' MINLATENCY DAG phases in a `solve_all`
//!   sweep run the same one-port ordering searches).  One cache serves one
//!   application, so the key carries nothing of the weights;
//! * when **all services carry identical cost and selectivity**, the key is
//!   additionally canonicalised over node relabellings (the lexicographically
//!   smallest edge mask over all permutations).  With uniform weights every
//!   intermediate float of an evaluation is a function of structure alone, so
//!   isomorphic graphs evaluate to bit-identical values.  On multi-class
//!   instances the exhaustive one-port searches are *not* class-invariant
//!   (their internal sums follow node ids over per-class terms and can drift
//!   by an ulp across orbit members), so cross-label sharing stays disabled
//!   there — correctness over compression;
//! * heuristic (hill-climbing) evaluations are label-dependent even with
//!   uniform weights, so keys carry an *exhaustive?* flag and canonicalised
//!   sharing applies only to exhaustively searched classes.
//!
//! ### Cutoff-aware memoisation
//!
//! Cached evaluations are *bounded*: an evaluator called with cutoff `c`
//! must return the exact value when it is `<= c` and any value `> c`
//! (typically `∞`) otherwise.  The cache stores which of the two happened,
//! so a truncated entry is reused only under a cutoff it still covers and is
//! transparently recomputed when a later caller needs more precision (this
//! is what makes one cache shareable across a `solve_all` sweep, where each
//! solve has its own incumbent trajectory).

pub mod frontier;

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use fsw_core::{Application, ExecutionGraph, PartialForestMetrics, ServiceId, WeightClasses};

use crate::orderings::permutations;

/// Relative safety margin for pruning decisions: admissible bounds and full
/// evaluations may accumulate floating-point error along different operation
/// orders, so a subtree is pruned only when its bound clears the incumbent by
/// more than this relative slack.  Pruning less than theoretically possible
/// costs a few extra evaluations; pruning more would break bit-identity.
const PRUNE_EPSILON: f64 = 1e-9;

/// The value a lower bound must strictly exceed before its subtree (or
/// candidate) may be pruned against incumbent `cut`.
pub fn prune_threshold(cut: f64) -> f64 {
    if cut.is_finite() {
        cut + PRUNE_EPSILON * cut.abs().max(1.0)
    } else {
        cut
    }
}

/// A monotonically decreasing objective bound shared across search threads.
///
/// `offer` never raises the stored value, so every reader observes a valid
/// upper bound on the optimum at all times; stale reads only weaken pruning,
/// never correctness.
#[derive(Debug)]
pub struct Incumbent(AtomicU64);

impl Incumbent {
    /// A fresh incumbent at `+∞` (no bound known yet).
    pub fn new() -> Self {
        Incumbent::seeded(f64::INFINITY)
    }

    /// An incumbent seeded with a known upper bound (e.g. the optimum of an
    /// earlier search phase over a subspace).
    pub fn seeded(value: f64) -> Self {
        Incumbent(AtomicU64::new(value.to_bits()))
    }

    /// The current bound.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }

    /// Lowers the bound to `value` if it improves on the current one.
    pub fn offer(&self, value: f64) {
        if value.is_nan() {
            return;
        }
        let mut current = self.0.load(Ordering::Relaxed);
        while value < f64::from_bits(current) {
            match self.0.compare_exchange_weak(
                current,
                value.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => current = observed,
            }
        }
    }
}

impl Default for Incumbent {
    fn default() -> Self {
        Incumbent::new()
    }
}

/// The symmetry-reduced candidate spaces: which instances admit the orbit
/// collapse and how large the reduced spaces are.
pub struct CanonicalSpace;

impl CanonicalSpace {
    /// Worst-case communication-ordering space of any DAG on `n` nodes
    /// (`Π_k max(k,1)!·max(n-1-k,1)!`, the complete DAG), saturating.  The
    /// admission pricing of the MINLATENCY DAG phase reads it.
    pub fn max_dag_ordering_space(n: usize) -> usize {
        let mut total = 1usize;
        for k in 0..n {
            for degree in [k.max(1), (n - 1 - k).max(1)] {
                for f in 2..=degree {
                    total = total.saturating_mul(f);
                }
            }
        }
        total
    }

    /// `true` when **class-preserving** relabelling symmetry is non-trivial
    /// for the instance: at least two services, no precedence constraints
    /// (constraints distinguish services regardless of weights), and some
    /// weight class holding two or more services.  Uniform instances are
    /// the single-class special case.
    pub fn class_reducible(app: &Application) -> bool {
        CanonicalSpace::reducible_classes(app).is_some()
    }

    /// `app`'s weight classes when it is
    /// [`class_reducible`](Self::class_reducible), so the walk that
    /// reduces it takes the partition the gate built.
    pub fn reducible_classes(app: &Application) -> Option<WeightClasses> {
        if app.n() < 2 || app.has_constraints() {
            return None;
        }
        Some(WeightClasses::of(app)).filter(WeightClasses::has_symmetry)
    }

    /// `true` when the unconstrained forest plan search provably runs to
    /// completion under a `cap`-sized enumeration budget for **every
    /// labelling** of `app` — the premise behind any claim that two
    /// permuted applications solve to bit-identical values (beyond the cap
    /// the engine falls back to label-following local search, and an
    /// interrupted enumeration depends on the walk order).
    ///
    /// Sufficient conditions only, each O(n²)-cheap so callers can gate per
    /// request (the serving layer checks this on its hot path — the exact
    /// [`fsw_core::classed_class_count`] answer costs milliseconds per
    /// partition, too slow there): the raw `n^n` space fits, the uniform
    /// canonical space fits, or a class-coloured space certainly fits
    /// (`shapes × multinomial(n; sizes)` bounds the coloured class count
    /// from above, so declining a borderline space is the worst case).
    pub fn exhaustively_coverable(app: &Application, cap: usize) -> bool {
        let n = app.n();
        // Beyond the widest shape key the streamed walk refuses the space
        // (and `n^n` saturates past any cap), so the search degrades.
        if n == 0 || n > fsw_core::SHAPE_CODE_MAX_N || app.has_constraints() {
            return false;
        }
        let cap = cap as u128;
        let mut raw = 1u128;
        for _ in 0..n {
            raw = raw.saturating_mul(n as u128);
        }
        if raw <= cap {
            return true;
        }
        let classes = WeightClasses::of(app);
        if classes.is_uniform() {
            return fsw_core::forest_classes(n) <= cap;
        }
        if classes.has_symmetry() {
            // Coloured classes <= shapes × colourings-per-shape <= shapes ×
            // multinomial(n; sizes).  The multinomial is built as
            // Π_c C(prefix, size_c) (multiply-then-divide keeps every
            // intermediate an exact integer).
            let mut multinomial = 1u128;
            let mut prefix = 0u128;
            for &size in classes.sizes() {
                for k in 1..=size as u128 {
                    prefix += 1;
                    multinomial = multinomial.saturating_mul(prefix) / k;
                }
            }
            return fsw_core::forest_classes(n).saturating_mul(multinomial) <= cap;
        }
        false
    }
}

/// Which admissible partial-assignment bound the plan walks maintain, and
/// whether they may prune optimum ties against it.
///
/// `StructuralPeriod` and `Latency` prune a subtree whose bound *strictly*
/// clears the shared incumbent ([`prune_threshold`]), which tolerates a
/// candidate value sitting a few ulps below the bound.  Only
/// [`PartialPrune::StructuralPeriod`] adds the non-strict tie-dominance
/// prune (`tie_dominated`), because only there is no candidate's value
/// below its prefix's bound, not even by an ulp.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PartialPrune {
    /// No partial bound: every complete candidate is evaluated, and only
    /// the cutoff `eval` receives can cut its work short.  The constrained
    /// MINPERIOD DAG walk of `minimize_period` runs under it (the DAG walk
    /// keeps a latency floor only), as do the unpruned reference walks the
    /// equivalence tests compare against.
    Off,
    /// Prune on [`fsw_core::PartialForestMetrics::period_bound`] for the
    /// given model, for a candidate evaluation that *is* the model's
    /// structural period bound (`PlanMetrics::period_lower_bound`) bit for
    /// bit, as every MINPERIOD plan search's is.  The partial bound is then
    /// bit-admissible, so the forest walks add tie dominance to strict
    /// clearance.
    StructuralPeriod(fsw_core::CommModel),
    /// Prune on [`fsw_core::PartialForestMetrics::latency_bound`] in the
    /// forest walks and on the DAG walk's decided-prefix critical-path
    /// floor ([`exhaustive_dag_search`](crate::minperiod::exhaustive_dag_search)),
    /// by strict clearance only.  Valid for the exact forest latency
    /// (Algorithm 1) and every one-port/multi-port schedule value, all of
    /// which dominate the critical path up to rounding; a tree latency can
    /// sit ulps below the bound.
    Latency,
}

impl PartialPrune {
    /// The bound of `metrics`' current prefix, `None` when pruning is off.
    pub(crate) fn bound(self, metrics: &mut PartialForestMetrics<'_>) -> Option<f64> {
        match self {
            PartialPrune::Off => None,
            PartialPrune::StructuralPeriod(model) => Some(metrics.period_bound(model)),
            PartialPrune::Latency => Some(metrics.latency_bound()),
        }
    }
}

/// Tie dominance, the one non-strict prune of both forest walks.
///
/// A walker holding a local best `(value, index, graph)` may drop a subtree
/// (or a whole shape) whose admissible `bound` already reaches `value` and
/// whose completions all come later than `index` in enumeration order, the
/// first of them at `first`: each completion then has a value
/// `≥ bound ≥ value` and a later index, so it loses the lexicographic
/// `(value, index)` comparison even on an exact value tie, and the winner is
/// untouched.
/// This is what collapses the optimum plateau of instances whose optimum
/// sits on the input-rate floor: after the first optimal completion, the
/// subtrees tying it die without being evaluated.  The best is a walker's
/// own, never the shared incumbent, so the rule does not race with other
/// workers, and the cross-worker merge still minimises `(value, index)`.
///
/// The rule needs `value(completion) ≥ bound` bit for bit, so it engages
/// only under [`PartialPrune::StructuralPeriod`]; every other prune is
/// strict clearance only.
pub(crate) fn tie_dominated<I: PartialOrd>(
    prune: PartialPrune,
    bound: f64,
    first: I,
    best: Option<&(f64, I, ExecutionGraph)>,
) -> bool {
    matches!(prune, PartialPrune::StructuralPeriod(_))
        && best.is_some_and(|(value, index, _)| bound >= *value && first > *index)
}

/// What a bounded evaluation reported for a cache key.
#[derive(Clone, Copy, Debug)]
enum CacheEntry {
    /// The exact value (the evaluation came back at or below its cutoff).
    Exact(f64),
    /// The value is known only to exceed this cutoff.
    AboveCutoff(f64),
}

/// A concurrent memo of bounded candidate evaluations keyed by canonical
/// edge-set signatures (see the module docs for the merge rules).
///
/// One instance serves one [`Application`], so its keys are
/// `(exhaustive, edge mask)` alone; `solve_all` shares an instance across
/// a whole model × objective sweep, the serving layer (`fsw_serve`) shares
/// one per application fingerprint across a batch's cold solves, and its
/// online sessions retain one across re-plans (rebuilt on mutation, since
/// entries depend on the weights).  `solve_warm_observed` refuses a cache
/// built for another application.  The cache **owns** a copy of its
/// application (applications are a few dozen bytes), so long-lived holders
/// need no self-referential lifetimes.
///
/// Construction copies the application and nothing else: the relabelling
/// list is built on first use.  Many solves never read the cache (every
/// MINPERIOD solve, and a MINLATENCY solve without a DAG phase), and there
/// an eager build would cost 5 059 allocations and 468 KiB for the
/// relabellings of a uniform 7-service application alone.
pub struct EvalCache {
    app: Application,
    /// Node relabellings exhaustive entries may be canonicalised over
    /// (always containing the identity, first): the full symmetric group on
    /// uniform instances, just the identity otherwise — multi-class merging
    /// is unsound for the label-following searches cached here (see
    /// `EvalCache::relabellings`).  Built on the first exhaustive lookup.
    perms: OnceLock<Vec<Vec<ServiceId>>>,
    map: Mutex<HashMap<(bool, u128), CacheEntry>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

/// Largest number of relabellings canonicalisation will scan per candidate
/// (7! — beyond that the signature falls back to the exact edge set).
const MAX_CANONICAL_PERMS: usize = 5_040;

impl EvalCache {
    /// A fresh cache for `app`: a copy of the application, an empty memo.
    pub fn new(app: &Application) -> Self {
        EvalCache {
            app: app.clone(),
            perms: OnceLock::new(),
            map: Mutex::new(HashMap::new()),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// The application this cache serves.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The relabellings exhaustive entries are canonicalised over, built on
    /// first use.
    fn relabellings(&self) -> &[Vec<ServiceId>] {
        self.perms.get_or_init(|| {
            let n = self.app.n();
            let classes = WeightClasses::of(&self.app);
            // Cross-label merging of exhaustive entries is enabled on
            // **uniform** instances only: the exhaustive one-port searches
            // cached here follow node ids internally, and on multi-class
            // instances two class-isomorphic graphs can return values an ulp
            // apart (different summation orders over *different* per-class
            // terms), so merging them would make a cached value depend on
            // which orbit member was evaluated first.
            if n > 1 && classes.is_uniform() && classes.group_order() <= MAX_CANONICAL_PERMS as u128
            {
                let ids: Vec<ServiceId> = (0..n).collect();
                permutations(&ids)
            } else {
                vec![(0..n).collect()]
            }
        })
    }

    /// `(hits, misses)` so far — `hits` counts evaluations answered from the
    /// memo without running the underlying search.
    pub fn stats(&self) -> (usize, usize) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// The canonical signature of `graph`: its exact edge mask
    /// ([`ExecutionGraph::edge_mask_under`]), minimised over class-preserving
    /// relabellings when those are provably bit-safe.
    fn signature(&self, graph: &ExecutionGraph, exhaustive: bool) -> u128 {
        let n = graph.n();
        debug_assert!(n == self.app.n() && n * n <= 128);
        // `n * n <= 128` bounds `n` by 11.
        let identity: [ServiceId; 11] = std::array::from_fn(|k| k);
        let mut best = graph.edge_mask_under(&identity[..n]);
        if exhaustive {
            for perm in &self.relabellings()[1..] {
                let mask = graph.edge_mask_under(perm);
                if mask < best {
                    best = mask;
                }
            }
        }
        best
    }

    /// Memoised *exact* evaluation of `graph`: `compute` always returns the
    /// true value (it has no cutoff support), so the entry is stored as
    /// exact and reused under every cutoff.
    pub fn get_or_compute_exact(
        &self,
        graph: &ExecutionGraph,
        exhaustive: bool,
        compute: impl FnOnce() -> f64,
    ) -> f64 {
        self.get_or_compute(graph, exhaustive, f64::INFINITY, |_| compute())
    }

    /// Memoised bounded evaluation of `graph`.
    ///
    /// One cache holds one evaluation family, the one-port latency of a
    /// candidate DAG, which no model or objective changes.  `exhaustive`
    /// must be `true` iff `compute` performs an exhaustive
    /// (label-independent) search; heuristic evaluations are shared only
    /// between identical labelled graphs.  `compute(c)` must return the
    /// exact value when it is `<= c`, and any value `> c` otherwise.
    pub fn get_or_compute(
        &self,
        graph: &ExecutionGraph,
        exhaustive: bool,
        cutoff: f64,
        compute: impl FnOnce(f64) -> f64,
    ) -> f64 {
        let n = graph.n();
        if n * n > 128 {
            // No compact signature: evaluate directly (never reached by the
            // DAG enumeration, which is capped well below this).
            return compute(cutoff);
        }
        let key = (exhaustive, self.signature(graph, exhaustive));
        {
            let map = self.map.lock().expect("cache poisoned");
            match map.get(&key) {
                Some(CacheEntry::Exact(value)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return *value;
                }
                Some(CacheEntry::AboveCutoff(seen)) if cutoff <= *seen => {
                    // The true value exceeds `seen >= cutoff`: anything above
                    // the cutoff is a faithful answer.
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return f64::INFINITY;
                }
                _ => {}
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Compute outside the lock: concurrent duplicate work is possible but
        // harmless (the evaluation is deterministic per signature).
        let value = compute(cutoff);
        let entry = if value <= cutoff {
            CacheEntry::Exact(value)
        } else {
            CacheEntry::AboveCutoff(cutoff)
        };
        let mut map = self.map.lock().expect("cache poisoned");
        match map.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut slot) => {
                // Keep the most informative entry.
                match (slot.get(), &entry) {
                    (CacheEntry::Exact(_), _) => {}
                    (_, CacheEntry::Exact(_)) => {
                        slot.insert(entry);
                    }
                    (CacheEntry::AboveCutoff(old), CacheEntry::AboveCutoff(new)) => {
                        if new > old {
                            slot.insert(entry);
                        }
                    }
                }
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(entry);
            }
        }
        value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn incumbent_is_monotone() {
        let inc = Incumbent::new();
        assert!(inc.get().is_infinite());
        inc.offer(5.0);
        assert_eq!(inc.get(), 5.0);
        inc.offer(7.0);
        assert_eq!(inc.get(), 5.0);
        inc.offer(3.0);
        assert_eq!(inc.get(), 3.0);
        inc.offer(f64::NAN);
        assert_eq!(inc.get(), 3.0);
    }

    #[test]
    fn prune_threshold_adds_relative_slack() {
        assert!(prune_threshold(10.0) > 10.0);
        assert!(prune_threshold(10.0) < 10.0 + 1e-6);
        assert!(prune_threshold(f64::INFINITY).is_infinite());
        assert!(prune_threshold(0.0) > 0.0);
    }

    /// Tie dominance engages only under `StructuralPeriod`, whose candidate
    /// values never sit below their prefix's bound, and only for a prefix
    /// whose bound reaches the local best's value and whose completions
    /// all come after the local best.
    #[test]
    fn tie_dominance_engages_only_on_the_structural_period_bound() {
        let best = Some((4.0, 3u64, ExecutionGraph::new(2)));
        let ulp_below = f64::from_bits(4.0f64.to_bits() - 1);
        for model in fsw_core::CommModel::ALL {
            let prune = PartialPrune::StructuralPeriod(model);
            assert!(tie_dominated(prune, 4.0, 4, best.as_ref()), "{model}");
            assert!(tie_dominated(prune, 5.0, 9, best.as_ref()), "{model}");
            assert!(
                !tie_dominated(prune, ulp_below, 4, best.as_ref()),
                "{model}: the bound is below the best value"
            );
            for first in [2, 3] {
                assert!(
                    !tie_dominated(prune, 4.0, first, best.as_ref()),
                    "{model}: the prefix does not come later than the best"
                );
            }
            assert!(!tie_dominated(prune, 4.0, 4, None), "{model}: no best");
        }
        for prune in [PartialPrune::Latency, PartialPrune::Off] {
            assert!(!tie_dominated(prune, 4.0, 4, best.as_ref()), "{prune:?}");
            assert!(!tie_dominated(prune, 5.0, 9, best.as_ref()), "{prune:?}");
        }
    }

    #[test]
    fn uniform_apps_share_isomorphic_graphs() {
        let app = Application::independent(&[(2.0, 0.5); 4]);
        let cache = EvalCache::new(&app);
        assert!(cache.relabellings().len() > 1);
        let g1 = ExecutionGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let g2 = ExecutionGraph::from_edges(4, &[(3, 2), (2, 0)]).unwrap();
        // Isomorphic chains share one exhaustive evaluation…
        let v1 = cache.get_or_compute(&g1, true, f64::INFINITY, |_| 42.0);
        let v2 = cache.get_or_compute(&g2, true, f64::INFINITY, |_| {
            panic!("second member of the class must hit the cache")
        });
        assert_eq!(v1, v2);
        // …but heuristic evaluations are shared by exact labelling only.
        let h1 = cache.get_or_compute(&g1, false, f64::INFINITY, |_| 1.0);
        let h2 = cache.get_or_compute(&g2, false, f64::INFINITY, |_| 2.0);
        assert_eq!(h1, 1.0);
        assert_eq!(h2, 2.0);
        let (hits, misses) = cache.stats();
        assert_eq!(hits, 1);
        assert_eq!(misses, 3);
    }

    #[test]
    fn heterogeneous_apps_share_exact_graphs_only() {
        let app = Application::independent(&[(1.0, 0.5), (2.0, 0.9), (3.0, 1.1)]);
        let cache = EvalCache::new(&app);
        assert_eq!(cache.relabellings().len(), 1);
        let g1 = ExecutionGraph::from_edges(3, &[(0, 1)]).unwrap();
        let g2 = ExecutionGraph::from_edges(3, &[(1, 0)]).unwrap();
        let v1 = cache.get_or_compute(&g1, true, f64::INFINITY, |_| 1.0);
        let v2 = cache.get_or_compute(&g2, true, f64::INFINITY, |_| 2.0);
        assert_eq!((v1, v2), (1.0, 2.0));
        // The same labelled graph hits.
        let again = cache.get_or_compute(&g1, true, f64::INFINITY, |_| panic!("hit expected"));
        assert_eq!(again, 1.0);
    }

    #[test]
    fn truncated_entries_are_refined_on_demand() {
        let app = Application::independent(&[(1.0, 1.0); 3]);
        let cache = EvalCache::new(&app);
        let g = ExecutionGraph::from_edges(3, &[(0, 1)]).unwrap();
        // First query under a tight cutoff: the evaluator reports "above".
        let v = cache.get_or_compute(&g, true, 1.0, |c| {
            assert_eq!(c, 1.0);
            f64::INFINITY
        });
        assert!(v.is_infinite());
        // A query under an even tighter cutoff is answered from the memo.
        let v = cache.get_or_compute(&g, true, 0.5, |_| panic!("covered by the memo"));
        assert!(v.is_infinite());
        // A looser cutoff forces a recomputation and upgrades the entry.
        let v = cache.get_or_compute(&g, true, 10.0, |_| 4.0);
        assert_eq!(v, 4.0);
        let v = cache.get_or_compute(&g, true, 0.1, |_| panic!("exact entry stored"));
        assert_eq!(v, 4.0);
    }
}
