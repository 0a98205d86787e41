//! Weight-class symmetry and canonical forms of execution structures.
//!
//! Services that carry **bit-identical cost and selectivity** are
//! interchangeable: relabelling them maps any execution graph to an
//! equivalent one with the same volumes, bounds and (for label-independent
//! evaluations) the same objective value.  The exhaustive plan searches can
//! therefore enumerate one *canonical representative* per relabelling orbit
//! instead of the whole labelled space — for the fully uniform case this
//! collapses the `n^n` parent-function space of the forest enumeration to
//! the number of *unlabelled* rooted forests (A000081 shifted: 286 classes
//! at `n = 8` against 16.7M parent functions, 1 842 at `n = 10` against
//! 10^10).
//!
//! The same idea applies *partially* when the services split into several
//! weight classes: the symmetry group is then the **product of the per-class
//! symmetric groups** `G = Π_c S_{|class c|}`, its orbits are isomorphism
//! classes of *class-coloured* rooted forests, and the orbit accounting
//! becomes `Π_c |class c|! / |Aut|` with `Aut` the colour-preserving
//! automorphism group.  A `2 + 3`-class instance on 10 services still
//! collapses its 10^10 parent functions to a few tens of thousands of
//! coloured classes.
//!
//! This module provides the building blocks of both reductions:
//!
//! * [`WeightClasses`] — the partition of services into weight classes
//!   (groups with identical `(cost, selectivity)` bit patterns);
//! * [`ShapeStream`] — the canonical rooted-forest shapes on `n` nodes,
//!   one per isomorphism class, as the super-tree level sequences of the
//!   Beyer–Hedetniemi successor rule, each with a shape-level bound;
//! * [`ColoringScratch::walk`] — the canonical colourings of one shape (an
//!   assignment of weight classes to its nodes, canonical up to the shape's
//!   automorphisms), offered prefix by prefix to a [`ColoringVisitor`];
//! * [`classed_forest_representatives`] — the materialised oracle: one
//!   [`ClassedRepresentative`] per coloured-forest class, for every
//!   partition (a one-class one included), with `Π_c |class c|! / |Aut|`
//!   orbit accounting, so reduced enumerations remain explainable and
//!   auditable against the raw space;
//! * [`canonical_classed_form`] — the canonical relabelling of an arbitrary
//!   labelled forest (the representative its class-preserving orbit is
//!   reported under);
//! * [`forest_classes`] / [`labelled_forests`] — closed-form counts of the
//!   uniform spaces (`Σ orbit sizes == labelled_forests(n)` is tested below
//!   for every partition, because the coloured orbits tile the labelled
//!   space).
//!
//! The canonical *tie-break* is part of the contract: representatives are
//! produced in decreasing lexicographic order of their level sequences
//! (path first, all-roots last), colourings in **increasing** lexicographic
//! order of their class vectors within each shape (class 0 first; each
//! individual representative still carries non-increasing colour sequences
//! across identical siblings), so "the first optimum in canonical order" is
//! a well-defined, deterministic winner — it is generally **not** the same
//! labelled graph as the first optimum of the raw `n^n` enumeration, which
//! is why the symmetry-reduced searches only engage when every member of an
//! orbit provably evaluates to the same value (see `fsw_sched::engine`).

use crate::error::{CoreError, CoreResult};
use crate::graph::ExecutionGraph;
use crate::model::CommModel;
use crate::service::{Application, ServiceId};

/// The partition of an application's services into weight classes: two
/// services share a class iff their cost and selectivity are bit-identical.
///
/// Classes are numbered in order of first appearance (service 0's class is
/// class 0).
#[derive(Clone, Debug)]
pub struct WeightClasses {
    class_of: Vec<usize>,
    sizes: Vec<usize>,
}

impl WeightClasses {
    /// Computes the weight-class partition of `app`'s services.
    pub fn of(app: &Application) -> Self {
        let n = app.n();
        let mut keys: Vec<(u64, u64)> = Vec::new();
        let mut class_of = Vec::with_capacity(n);
        let mut sizes: Vec<usize> = Vec::new();
        for k in 0..n {
            let key = (app.cost(k).to_bits(), app.selectivity(k).to_bits());
            let class = match keys.iter().position(|&existing| existing == key) {
                Some(c) => c,
                None => {
                    keys.push(key);
                    sizes.push(0);
                    keys.len() - 1
                }
            };
            class_of.push(class);
            sizes[class] += 1;
        }
        WeightClasses { class_of, sizes }
    }

    /// Number of services partitioned.
    pub fn n(&self) -> usize {
        self.class_of.len()
    }

    /// Number of distinct weight classes.
    pub fn class_count(&self) -> usize {
        self.sizes.len()
    }

    /// The class index of service `k`.
    pub fn class_of(&self, k: ServiceId) -> usize {
        self.class_of[k]
    }

    /// The class sizes, indexed by class.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// `true` when every service carries the same weights (at most one
    /// class) — the regime in which full relabelling symmetry applies.
    pub fn is_uniform(&self) -> bool {
        self.sizes.len() <= 1
    }

    /// `true` when at least one class holds two or more services — the
    /// regime in which class-preserving relabelling symmetry is non-trivial.
    pub fn has_symmetry(&self) -> bool {
        self.sizes.iter().any(|&s| s >= 2)
    }

    /// Order of the class-preserving relabelling group `Π_c |class c|!`
    /// (saturating): the number of labelled graphs each coloured orbit of
    /// trivial automorphism stands for.
    pub fn group_order(&self) -> u128 {
        self.sizes
            .iter()
            .fold(1u128, |acc, &s| acc.saturating_mul(factorial(s)))
    }

    /// Deterministic assignment of concrete services to the positions of a
    /// coloured representative: position `p` (of class `colors[p]`) receives
    /// the smallest not-yet-used service id of that class.  Returns `None`
    /// when the colour multiset does not match the partition.
    pub fn service_assignment(&self, colors: &[usize]) -> Option<Vec<ServiceId>> {
        if colors.len() != self.n() {
            return None;
        }
        let mut pool: Vec<Vec<ServiceId>> = vec![Vec::new(); self.sizes.len()];
        for k in (0..self.n()).rev() {
            pool[self.class_of[k]].push(k); // descending, so pop() yields ascending ids
        }
        let mut assignment = Vec::with_capacity(colors.len());
        for &c in colors {
            assignment.push(pool.get_mut(c)?.pop()?);
        }
        Some(assignment)
    }
}

/// The canonical rooted forests on `n` nodes — exactly one per
/// forest-isomorphism class — as the level sequences of their super-trees.
///
/// A rooted forest on `n` nodes corresponds to a rooted tree on `n + 1`
/// nodes (attach every root to a virtual super-root); the generator walks
/// the canonical level sequences of those super-trees with the classic
/// Beyer–Hedetniemi successor rule (*Constant time generation of rooted
/// trees*, SIAM J. Comput. 1980), from the path (deepest) to the star of
/// isolated nodes (flattest).
#[derive(Debug)]
struct CanonicalForests {
    /// Level sequence of the super-tree in preorder; `levels[0] == 0` is the
    /// virtual root, real nodes sit at levels `>= 1`.
    levels: Vec<usize>,
    started: bool,
}

impl CanonicalForests {
    /// A stream over the forests on `n` nodes (`n >= 1`).
    fn new(n: usize) -> Self {
        assert!(n >= 1, "canonical enumeration needs at least one node");
        CanonicalForests {
            levels: (0..=n).collect(),
            started: false,
        }
    }

    /// Steps to the next canonical super-tree level sequence (virtual root
    /// at level 0 first), or `None` once the stream is exhausted.
    fn next_shape(&mut self) -> Option<&[usize]> {
        if self.started {
            // The successor: p is the rightmost node deeper than a forest
            // root; on the terminal sequence (all forest roots) there is
            // none, so an exhausted stream stays exhausted.
            let levels = &mut self.levels;
            let p = (1..levels.len()).rev().find(|&i| levels[i] > 1)?;
            // q: rightmost proper ancestor-level position before p.
            let q = (1..p)
                .rev()
                .find(|&i| levels[i] == levels[p] - 1)
                .expect("a node of level > 1 has an earlier node one level up");
            for i in p..levels.len() {
                levels[i] = levels[i - (p - q)];
            }
        }
        self.started = true;
        Some(&self.levels)
    }
}

/// One canonical representative of a **class-preserving** relabelling orbit:
/// a forest shape (parent vector over preorder positions) plus an assignment
/// of weight classes to its positions, canonical up to the shape's
/// automorphisms.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ClassedRepresentative {
    /// Parent vector of the shape: position `p`'s unique direct predecessor,
    /// `None` for roots; positions are preorder labels (`parents[p] < Some(p)`).
    pub parents: Vec<Option<ServiceId>>,
    /// Weight class of every position.
    pub classes: Vec<usize>,
    /// Number of labelled forests in this coloured-isomorphism class
    /// (`Π_c |class c|! / |Aut|` with `Aut` the colour-preserving
    /// automorphism group).
    pub orbit: u128,
}

impl ClassedRepresentative {
    /// The representative as a labelled execution graph over the concrete
    /// services of `classes`'s application: positions receive service ids via
    /// [`WeightClasses::service_assignment`] (smallest unused id of the
    /// position's class, in preorder) — the deterministic *canonical member*
    /// of the orbit.  Returns `None` when the colour multiset does not match
    /// the partition (never for generator output).
    pub fn member_graph(&self, classes: &WeightClasses) -> Option<ExecutionGraph> {
        let services = classes.service_assignment(&self.classes)?;
        forest_graph(&self.parents, &services).ok()
    }
}

/// The labelled execution graph of a forest over preorder positions:
/// position `p`, whose parent is position `parents[p]`, becomes service
/// `services[p]` (one distinct service per position).  It allocates one
/// parent vector and one graph.  Fails with [`CoreError`] when the parents
/// form a cycle.
pub fn forest_graph(
    parents: &[Option<usize>],
    services: &[ServiceId],
) -> CoreResult<ExecutionGraph> {
    let mut labelled = vec![None; parents.len()];
    for (pos, &p) in parents.iter().enumerate() {
        labelled[services[pos]] = p.map(|pp| services[pp]);
    }
    ExecutionGraph::from_parents(&labelled)
}

/// Materialises one canonical representative per **coloured** forest class on
/// `classes.n()` nodes, for every partition (a one-class one included):
/// every forest shape (canonical enumeration order) and, within each shape,
/// every assignment of the weight-class multiset to its nodes that is
/// canonical with respect to the shape's automorphisms (identical sibling
/// subtrees carry non-increasing colour sequences).  No solve calls it: it
/// is the oracle the streamed walk is tested against, so it collects each
/// representative from the generic coloured walk's own hooks — the parents
/// its `descend` reports, the automorphism count its `complete` reports —
/// and never takes the single-class fast path that walk has.
///
/// Returns `None` once more than `cap` representatives exist.  The cap is
/// checked by a **count-only pass first** ([`classed_class_count_within`]):
/// the number of coloured classes per shape is computed from memoised
/// per-shape generating functions without materialising a single
/// representative, so a space that overflows the cap is rejected in time
/// proportional to the number of *shapes* (A000081) instead of the number of
/// coloured classes.
///
/// The orbit sizes `Π_c |class c|! / |Aut|` tile the labelled space exactly:
/// `Σ orbit == (n+1)^(n-1)` for every partition (tested below), which is the
/// auditable identity the reduced searches print.
pub fn classed_forest_representatives(
    classes: &WeightClasses,
    cap: usize,
) -> Option<Vec<ClassedRepresentative>> {
    let n = classes.n();
    assert!(n >= 1, "classed enumeration needs at least one node");
    match classed_class_count_within(classes, cap as u128, None) {
        ClassedCount::ExceedsCap | ClassedCount::DeadlineExpired => return None,
        // Too many classes for the counting representation: generate under
        // the cap directly.
        ClassedCount::Exact(_) | ClassedCount::Intractable => {}
    }
    let mut collect = Collect {
        parents: Vec::with_capacity(n),
        group_order: classes.group_order(),
        cap,
        reps: Vec::new(),
    };
    let mut scratch = ColoringScratch::default();
    let mut shapes = CanonicalForests::new(n);
    while let Some(levels) = shapes.next_shape() {
        if !scratch.walk_coloured(levels, classes, &mut collect) {
            return None;
        }
    }
    Some(collect.reps)
}

/// The [`classed_forest_representatives`] visitor: accepts every prefix,
/// keeps the parents the walk reports, and records every completion.
struct Collect {
    parents: Vec<Option<usize>>,
    group_order: u128,
    cap: usize,
    reps: Vec<ClassedRepresentative>,
}

impl ColoringVisitor for Collect {
    fn descend(&mut self, _pos: usize, parent: Option<usize>, _class: usize) -> bool {
        self.parents.push(parent);
        true
    }

    fn ascend(&mut self, _pos: usize, _class: usize) {
        self.parents.pop();
    }

    fn complete(&mut self, colors: &[usize], aut: u128) -> bool {
        if self.reps.len() >= self.cap {
            return false;
        }
        debug_assert!(
            self.group_order == u128::MAX || self.group_order.is_multiple_of(aut),
            "|Aut| divides the group order"
        );
        self.reps.push(ClassedRepresentative {
            parents: self.parents.clone(),
            classes: colors.to_vec(),
            orbit: self.group_order / aut,
        });
        true
    }
}

/// Outcome of a count-only coloured-class pass ([`classed_class_count_within`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ClassedCount {
    /// The exact number of coloured-forest classes of the partition.
    Exact(u128),
    /// The running total exceeded the cap; counting stopped early.
    ExceedsCap,
    /// The deadline passed mid-count.
    DeadlineExpired,
    /// The partition is too wide for the counting representation (its
    /// exponent space `Π_c (|class c| + 1)` exceeds [`COUNT_DENSE_LIMIT`],
    /// or `n` outgrows the byte-packed level slices the memo is keyed by):
    /// callers fall back to bounded generation.
    Intractable,
}

/// Largest exponent space `Π_c (|class c| + 1)` the colour counter accepts
/// ([`ClassedCount::Intractable`] beyond it).  The space is exponential in
/// the number of classes, so partitions with many near-singleton classes
/// (one duplicated weight, the rest distinct) would pay more for counting
/// than the generation it guards.  1024 covers every symmetric regime worth
/// collapsing (e.g. four classes of four at `n = 16` is 625) while keeping
/// the worst polynomial product near a microsecond-millisecond scale.
pub const COUNT_DENSE_LIMIT: usize = 1 << 10;

/// `true` when the colour counter can represent `classes`: an exponent
/// space within [`COUNT_DENSE_LIMIT`] and levels that fit a byte.
fn countable(classes: &WeightClasses) -> bool {
    let space = classes
        .sizes()
        .iter()
        .try_fold(1usize, |acc, &s| acc.checked_mul(s + 1))
        .unwrap_or(usize::MAX);
    space <= COUNT_DENSE_LIMIT && classes.n() < u8::MAX as usize
}

/// The number of coloured-forest classes of `classes`'s partition — the
/// length of the [`classed_forest_representatives`] list — without
/// materialising a single representative.  Returns `None` once the running
/// total exceeds `cap`.
pub fn classed_class_count(classes: &WeightClasses, cap: u128) -> Option<u128> {
    match classed_class_count_within(classes, cap, None) {
        ClassedCount::Exact(count) => Some(count),
        ClassedCount::ExceedsCap | ClassedCount::DeadlineExpired | ClassedCount::Intractable => {
            None
        }
    }
}

/// [`classed_class_count`] with an optional wall-clock deadline, checked
/// once per shape.
///
/// The count is **O(shapes)**, not O(colourings): per canonical shape the
/// number of canonical colourings is read off the colour counter's graded
/// generating functions — for every subtree, `gf[v]` counts its colourings
/// using `v_c` nodes of class `c`, and a run of `k` identical sibling
/// subtrees contributes the size-`k` multiset construction `MSET_k(gf)`
/// (canonical colourings order identical siblings non-increasingly, i.e.
/// pick a multiset), computed by the Newton/Euler-transform recurrence
/// `k · h_k = Σ_{i=1..k} p_i · h_{k-i}` with `p_i = gf(x^i)` the power sum.
/// Subtree GFs are memoised across shapes (identical subtrees recur
/// massively in the Beyer–Hedetniemi stream), so the whole pass costs a few
/// small polynomial products per shape.  Its memory is the counter's memo
/// alone — one degree slice per distinct subtree of fewer than `n` nodes
/// (at most `Σ_{m<n} A000081(m)` entries) plus a few dozen multiset runs,
/// 1.15 MiB for a 7 + 6 partition at `n = 13` — and no shape is stored.
pub fn classed_class_count_within(
    classes: &WeightClasses,
    cap: u128,
    deadline: Option<std::time::Instant>,
) -> ClassedCount {
    let n = classes.n();
    assert!(n >= 1, "classed counting needs at least one node");
    if !countable(classes) {
        return ClassedCount::Intractable;
    }
    let mut counter = ColourCounter::new(classes);
    let mut stream = CanonicalForests::new(n);
    let mut total: u128 = 0;
    while let Some(levels) = stream.next_shape() {
        if deadline.is_some_and(|d| std::time::Instant::now() >= d) {
            return ClassedCount::DeadlineExpired;
        }
        total = total.saturating_add(counter.forest_colorings(levels));
        if total > cap {
            return ClassedCount::ExceedsCap;
        }
    }
    ClassedCount::Exact(total)
}

/// Objective a [`ShapeBounder`] lower-bounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeObjective {
    /// `PlanMetrics::period_lower_bound(model)` of every representative.
    Period(CommModel),
    /// The optimal one-port latency of every representative.
    Latency,
}

/// Shape-level admissible bounds for the lazy bound-ordered enumeration:
/// given only a forest *shape* (super-tree level sequence), a lower bound on
/// the objective of **every** representative carrying that shape, under any
/// colouring and any class-preserving labelling.
///
/// The bound combines three communication-aware floors, all computed from
/// structure alone:
///
/// * a node at depth `d` (level `d + 1`) has input factor at least
///   `anc_floor(d)` — the product of the `d` smallest `min(1, σ)` values
///   (ancestors are distinct services and factors > 1 never shrink data);
/// * its execution time is then floored with the globally cheapest weights
///   (`c_lo`, `σ_lo`) and its structural fan-out;
/// * every distinct weight kind present in the application must occupy
///   *some* position, so the bound also covers each kind's cheapest
///   placement with its **exact** weights.
///
/// Floats are multiplied in a fixed sorted order, so the bound is a pure
/// function of the shape and the weight multiset; rounding drift against
/// the chain-ordered evaluation products is far below the strict-clearance
/// epsilon the searches prune with.
///
/// These floors are **not bit-admissible**: a representative multiplies
/// its ancestors' selectivities in path order, which can round one ulp
/// below the sorted-order product, so a shape's bound can sit an ulp above
/// one of its representatives' values.  The streamed walk therefore uses
/// them with strict clearance only (the bound must exceed the incumbent
/// plus the prune epsilon) and never for the non-strict tie-dominance
/// rule, which it applies with the bit-admissible prefix bound of
/// [`crate::PartialForestMetrics`] instead.  A floor served as a certified
/// lower bound is shaved first ([`ShapeBounder::certified_floor`]).
///
/// A pass that bounds a whole stream ([`ShapeStream`]: the passes of
/// [`bound_ordered_shape_plan`], [`ShapeBounder::forest_floor`], the
/// streamed walk's plateau) reuses one set of buffers, so a bound
/// allocates nothing.  On a one-kind partition the per-kind floor ranges
/// over the very node floors of the cheapest-weight pass, so that pass
/// folds their minimum in and the per-kind loop is skipped: the bound is
/// the same bit for bit.
#[derive(Clone, Debug)]
pub struct ShapeBounder {
    /// `anc_floor[d]`: product of the `d` smallest `min(1, σ)` values.
    anc_floor: Vec<f64>,
    /// Distinct `(cost, selectivity)` kinds, deduplicated by bits.
    kinds: Vec<(f64, f64)>,
    cost_lo: f64,
    sel_lo: f64,
    /// `true` when the only weight kind is `(cost_lo, sel_lo)` bit for bit:
    /// its per-kind floor is then the minimum of the node floors the
    /// cheapest-weight pass already computes.
    one_kind: bool,
    objective: ShapeObjective,
}

/// Reusable buffers of a shape bound: a scan that bounds every shape of a
/// stream keeps one, so a bound allocates nothing.
#[derive(Debug, Default)]
struct BoundScratch {
    fanout: Vec<usize>,
    last_at_level: Vec<usize>,
    /// Stack of child latencies of the critical-path recurrence.
    latencies: Vec<f64>,
}

impl ShapeBounder {
    /// Builds the bounder for `app` under the given objective.
    pub fn new(app: &Application, objective: ShapeObjective) -> Self {
        let n = app.n();
        let mut shrink: Vec<f64> = (0..n).map(|k| app.selectivity(k).min(1.0)).collect();
        shrink.sort_by(f64::total_cmp); // ascending: smallest factors first
        let mut anc_floor = vec![1.0f64; n + 1];
        for d in 0..n {
            anc_floor[d + 1] = anc_floor[d] * shrink[d];
        }
        let mut kinds: Vec<(f64, f64)> =
            (0..n).map(|k| (app.cost(k), app.selectivity(k))).collect();
        kinds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        kinds.dedup_by(|a, b| a.0.to_bits() == b.0.to_bits() && a.1.to_bits() == b.1.to_bits());
        let cost_lo = kinds.iter().map(|k| k.0).fold(f64::INFINITY, f64::min);
        let sel_lo = kinds.iter().map(|k| k.1).fold(f64::INFINITY, f64::min);
        let one_kind = matches!(kinds[..], [(cost, sel)]
            if cost.to_bits() == cost_lo.to_bits() && sel.to_bits() == sel_lo.to_bits());
        ShapeBounder {
            anc_floor,
            kinds,
            cost_lo,
            sel_lo,
            one_kind,
            objective,
        }
    }

    /// Floor of one node: depth `d` ancestors, structural fan-out, weights.
    fn node_floor(&self, depth: usize, fanout: usize, cost: f64, sel: f64) -> f64 {
        let fac = self.anc_floor[depth];
        let cin = if depth == 0 { 1.0 } else { fac };
        let comp = fac * cost;
        let cout = fanout.max(1) as f64 * (fac * sel);
        match self.objective {
            ShapeObjective::Period(CommModel::Overlap) => cin.max(comp).max(cout),
            ShapeObjective::Period(CommModel::InOrder | CommModel::OutOrder) => cin + comp + cout,
            ShapeObjective::Latency => 1.0 + fac * (cost + sel),
        }
    }

    /// Lower bound on the objective of every representative of the shape
    /// described by super-tree `levels` (as a [`ShapeStream`] yields it).
    pub fn shape_bound(&self, levels: &[usize]) -> f64 {
        self.bound_with(levels, &mut BoundScratch::default())
    }

    /// [`ShapeBounder::shape_bound`] on reused buffers.
    fn bound_with(&self, levels: &[usize], scratch: &mut BoundScratch) -> f64 {
        let len = levels.len();
        let fanout = &mut scratch.fanout;
        fanout.clear();
        fanout.resize(len, 0);
        let last_at_level = &mut scratch.last_at_level;
        last_at_level.clear();
        last_at_level.resize(len + 1, usize::MAX);
        last_at_level[0] = 0;
        for (i, &level) in levels.iter().enumerate().skip(1) {
            if level >= 2 {
                fanout[last_at_level[level - 1]] += 1;
            }
            last_at_level[level] = i;
        }
        let mut bound = 0.0f64;
        let mut cheapest = f64::INFINITY;
        for i in 1..len {
            let floor = self.node_floor(levels[i] - 1, fanout[i], self.cost_lo, self.sel_lo);
            bound = bound.max(floor);
            cheapest = cheapest.min(floor);
        }
        if self.one_kind {
            // The per-kind loop would recompute these very floors.
            bound = bound.max(cheapest);
        } else {
            for &(cost, sel) in &self.kinds {
                let mut cheapest = f64::INFINITY;
                for i in 1..len {
                    cheapest = cheapest.min(self.node_floor(levels[i] - 1, fanout[i], cost, sel));
                }
                bound = bound.max(cheapest);
            }
        }
        if self.objective == ShapeObjective::Latency {
            bound = bound.max(self.latency_critical_path(levels, &mut scratch.latencies));
        }
        bound
    }

    /// The smallest [`ShapeBounder::shape_bound`] over every canonical
    /// forest shape on the application's services: a floor on every forest
    /// plan of the instance, up to rounding (see
    /// [`ShapeBounder::certified_floor`]).  A streaming `total_cmp` minimum
    /// over a [`ShapeStream`], so it is bit-identical to the head bound of a
    /// cold [`bound_ordered_shape_plan`] scan while storing no shape —
    /// O(shapes) time, O(n) memory.
    pub fn forest_floor(&self) -> f64 {
        let mut stream = ShapeStream::new(self.anc_floor.len() - 1, Some(self), None);
        let mut floor: Option<f64> = None;
        while let Some(bound) = stream.next_bound() {
            if floor.is_none_or(|f| bound.total_cmp(&f).is_lt()) {
                floor = Some(bound);
            }
        }
        floor.expect("every n >= 1 has at least one shape")
    }

    /// [`ShapeBounder::forest_floor`] shaved by the relative margin
    /// `(4n + 8)·ε`, so that no forest plan's value lies below it, not even
    /// by an ulp — the floor a caller may serve as a certified lower bound.
    ///
    /// The shape floors are admissible in exact arithmetic, but floats
    /// round them and the plan values independently.  Every term on either
    /// side is a sum or product of non-negative numbers, so its relative
    /// error is at most `(1 + ε/2)^k − 1` for `k` roundings along its
    /// deepest path of operations:
    ///
    /// * **period**: a node's floor multiplies at most `n − 1` sorted
    ///   selectivities, then its cost or selectivity and its fan-out, and
    ///   the one-port models add three terms; the plan's `Cin`, `Ccomp`
    ///   and `Cout` take as many steps in path order.  Each side rounds at
    ///   most `n + 3` times, so the two differ by less than `(n + 4)·ε`;
    /// * **latency**: the critical-path recurrence and Algorithm 1's tree
    ///   latency both take at most four roundings per level (`p + L`, the
    ///   selectivity product, `1 + c` and the sum) over at most `n`
    ///   levels, so they differ by less than `4n·ε`; the per-node latency
    ///   floor takes at most `n + 2`.
    ///
    /// `(4n + 8)·ε` exceeds both, plus the shave's own rounding — the
    /// margin [`crate::PartialForestMetrics`] shaves its period floors by.
    /// The walk's shape bounds stay unshaved: a shaved bound would fall
    /// below the constructive value it ties, so the shape would leave the
    /// plateau [`split_shape_plan`] re-streams and take a stored record.
    pub fn certified_floor(&self) -> f64 {
        let n = self.anc_floor.len() - 1;
        self.forest_floor() * (1.0 - (4 * n + 8) as f64 * f64::EPSILON)
    }

    /// Critical-path latency floor of the shape: Algorithm 1's one-port
    /// chain recurrence run over the super-tree with **every** node floored
    /// to the globally cheapest weights — leaf `1 + c_lo + σ_lo`, internal
    /// `1 + c_lo + σ_lo · max_p (p + L_p)` with children fed by
    /// non-increasing residual latency.  Admissible because the recurrence
    /// is monotone non-decreasing in every node's `(c, σ)` (costs add, each
    /// `σ` multiplies a tail ≥ 1, and a larger child latency never shrinks
    /// the parent's), so the cheapest-weight value lower-bounds every
    /// colouring and labelling of the shape — and on *uniform* instances it
    /// is **exact**, firing the bound-clearance certificate the moment an
    /// optimal shape has been expanded.  Children are combined in sorted
    /// order, so the floor is a pure function of the shape and
    /// `(c_lo, σ_lo)`.  A subtree's child latencies sit on `stack` above
    /// its entry height and are popped before it returns.
    fn latency_critical_path(&self, levels: &[usize], stack: &mut Vec<f64>) -> f64 {
        fn subtree(
            levels: &[usize],
            at: usize,
            cost: f64,
            sel: f64,
            stack: &mut Vec<f64>,
        ) -> (f64, usize) {
            let level = levels[at];
            let base = stack.len();
            let mut next = at + 1;
            while next < levels.len() && levels[next] == level + 1 {
                let (latency, after) = subtree(levels, next, cost, sel, stack);
                stack.push(latency);
                next = after;
            }
            if stack.len() == base {
                return (1.0 + cost + sel, next);
            }
            let subs = &mut stack[base..];
            subs.sort_by(|a, b| b.total_cmp(a));
            let tail = subs
                .iter()
                .enumerate()
                .map(|(p, l)| p as f64 + l)
                .fold(0.0f64, f64::max);
            stack.truncate(base);
            (1.0 + cost + sel * tail, next)
        }
        let mut best = 0.0f64;
        let mut at = 1;
        while at < levels.len() {
            let (latency, next) = subtree(levels, at, self.cost_lo, self.sel_lo, stack);
            best = best.max(latency);
            at = next;
        }
        best
    }
}

/// One shape of the lazy bound-ordered classed enumeration: a
/// self-describing 16-byte record of everything needed to (re)start the
/// shape's colouring walk on demand.  The shape itself is the record's
/// `code`, so no representative and no per-shape allocation is held, and
/// nothing is recorded that no walk reads: a shape's colourings are
/// walked, never counted, while the search runs (the coloured-orbit total
/// of a space is [`classed_class_count`]'s, or [`forest_classes`] on a
/// uniform partition).  A plan holds records only for the shapes it
/// stores; a walk that re-streams a plateau ([`split_shape_plan`]) makes a
/// plateau shape's record ([`ShapePlan::encode`]) only when it enters the
/// shape, for its rank.
#[derive(Clone, Copy, Debug)]
pub struct ShapePlan {
    /// Admissible lower bound on every representative of this shape
    /// ([`ShapeBounder::shape_bound`]; `0` when no bounder was supplied).
    pub bound: f64,
    /// The shape's balanced-parenthesis word over its `2n` low bits: in
    /// preorder, a `1` on entering a real node and a `0` on leaving it, the
    /// first node's `1` as the top bit.  It is the resumable cursor
    /// ([`ShapePlan::decode_into`]) and, because it strictly decreases along
    /// the canonical shape stream, its complement is the shape's
    /// canonical rank ([`ShapePlan::rank`]).
    pub code: u64,
}

const _: () = assert!(std::mem::size_of::<ShapePlan>() == 16);

impl ShapePlan {
    /// The record of the shape with super-tree level sequence `levels`
    /// (virtual root at level 0 first, as a [`ShapeStream`] yields it) and
    /// bound `bound`.
    pub fn encode(levels: &[usize], bound: f64) -> Self {
        ShapePlan {
            bound,
            code: parenthesis_word(levels),
        }
    }

    /// Position key of the shape in canonical stream order: strictly
    /// increasing along the canonical shape stream, so it orders shapes
    /// exactly like their stream positions.  (The stream emits level sequences in
    /// decreasing lexicographic order, and where two sequences first differ
    /// the deeper node writes its `1` before the shallower one's extra
    /// closing `0`s, so the words decrease with them.)
    pub fn rank(&self) -> u64 {
        !self.code
    }

    /// Decodes the shape into `out` as the super-tree level sequence
    /// [`ColoringScratch::walk`] takes (virtual root at level 0 first),
    /// reusing `out`'s allocation.
    pub fn decode_into(&self, out: &mut Vec<usize>) {
        out.clear();
        out.push(0);
        let mut depth = 0;
        for bit in (0..u64::BITS - self.code.leading_zeros()).rev() {
            if (self.code >> bit) & 1 == 1 {
                depth += 1;
                out.push(depth);
            } else {
                depth -= 1;
            }
        }
    }
}

/// Balanced-parenthesis word ([`ShapePlan::code`]) of the super-tree level
/// sequence `levels` (virtual root at level 0 first), for at most
/// [`SHAPE_CODE_MAX_N`] real nodes.
fn parenthesis_word(levels: &[usize]) -> u64 {
    let mut word = 0u64;
    let mut depth = 0;
    for &level in &levels[1..] {
        // Leave every open node down to the new node's parent, then enter.
        word = (word << (depth + 2 - level)) | 1;
        depth = level;
    }
    word << depth
}

/// Largest `n` whose shapes fit a [`ShapePlan::code`]: `2n` bits in a
/// `u64`.
pub const SHAPE_CODE_MAX_N: usize = 32;

/// Outcome of a [`bound_ordered_shape_plan`] or [`split_shape_plan`] scan.
#[derive(Clone, Debug)]
pub enum ShapeScan {
    /// Every shape of the space, each stored, set aside on the plateau or
    /// pruned.
    Planned {
        /// The stored shapes, bound-sorted (ties in canonical order).
        shapes: Vec<ShapePlan>,
        /// Number of shapes whose bound is bit-equal to the scan's plateau
        /// value ([`split_shape_plan`]; always `0` from
        /// [`bound_ordered_shape_plan`]): counted and given no record.  In
        /// `(bound, rank)` order they sit after the stored shapes below that
        /// value and before those above it, in canonical stream order, so a
        /// walk re-streams them ([`ShapeStream::next_at`]) instead.
        plateau: u64,
        /// Number of shapes whose admissible bound already cleared the
        /// caller's cutoff at emission time: certified hopeless without ever
        /// being given a record, sorted or expanded.
        pruned: u64,
    },
    /// The deadline passed mid-scan; callers degrade like an interrupted
    /// search (heuristic fallback, flagged non-exhaustive).
    DeadlineExpired,
    /// The space has more than [`SHAPE_CODE_MAX_N`] nodes, so its shapes do
    /// not fit a [`ShapePlan::code`]; nothing was scanned, and callers
    /// degrade as on [`ShapeScan::DeadlineExpired`].
    TooWide,
}

/// Every canonical forest shape on `n` nodes with its [`ShapeBounder`]
/// bound, in canonical stream order (so in rank order), on reused
/// buffers: the one shape scan, which the passes of
/// [`split_shape_plan`], [`ShapeBounder::forest_floor`] and the streamed
/// walk's plateau all run.  A shape costs its level-sequence step and its
/// bound; its record, and with it its rank, is made only on request
/// ([`ShapePlan::encode`] of [`ShapeStream::levels`]).  A deadline ends
/// the stream early, which [`ShapeStream::expired`] reports.
#[derive(Debug)]
pub struct ShapeStream<'a> {
    forests: CanonicalForests,
    bounder: Option<&'a ShapeBounder>,
    scratch: BoundScratch,
    deadline: Option<std::time::Instant>,
    expired: bool,
}

impl<'a> ShapeStream<'a> {
    /// A stream over the shapes on `n >= 1` nodes, bounded by `bounder`
    /// (every bound is `0` without one) and cut short at `deadline`.
    pub fn new(
        n: usize,
        bounder: Option<&'a ShapeBounder>,
        deadline: Option<std::time::Instant>,
    ) -> Self {
        ShapeStream {
            forests: CanonicalForests::new(n),
            bounder,
            scratch: BoundScratch::default(),
            deadline,
            expired: false,
        }
    }

    /// Advances to the next shape and returns its bound, or `None` once the
    /// stream is exhausted or the deadline has passed.
    pub fn next_bound(&mut self) -> Option<f64> {
        if self.expired {
            return None;
        }
        let levels = self.forests.next_shape()?;
        if self
            .deadline
            .is_some_and(|d| std::time::Instant::now() >= d)
        {
            self.expired = true;
            return None;
        }
        Some(
            self.bounder
                .map_or(0.0, |b| b.bound_with(levels, &mut self.scratch)),
        )
    }

    /// Advances to the next shape whose bound is bit-equal to `value` and
    /// returns its level sequence, or `None` once the stream is exhausted or
    /// the deadline has passed.
    pub fn next_at(&mut self, value: f64) -> Option<&[usize]> {
        while let Some(bound) = self.next_bound() {
            if bound.to_bits() == value.to_bits() {
                return Some(self.levels());
            }
        }
        None
    }

    /// The current shape's super-tree level sequence (virtual root at level
    /// 0 first), as [`ColoringScratch::walk`] takes it.
    pub fn levels(&self) -> &[usize] {
        &self.forests.levels
    }

    /// `true` when the deadline ended the stream before it was exhausted.
    pub fn expired(&self) -> bool {
        self.expired
    }
}

/// Largest shape count a [`bound_ordered_shape_plan`] scan reserves up
/// front — the default exhaustive budget's 2 000 000 (every `n <= 17`).
/// Larger spaces grow on demand, so a deadline-bounded caller passing an
/// unplannable `n` (`forest_classes(30)` is about 10¹²) runs into its
/// deadline instead of a refused multi-terabyte reservation.
const PLAN_RESERVE_LIMIT: u128 = 2_000_000;

/// The prelude of the lazy classed enumeration: streams every canonical
/// shape, attaches the shape-level admissible bound, and returns the shapes
/// **bound-sorted** so a best-first consumer expands promising shapes first
/// and stops at the first shape whose bound clears the incumbent — the sort
/// order makes that a certificate for every remaining shape.  No colouring
/// is counted or materialised: the walk enumerates a shape's colourings
/// when it expands the shape.
///
/// Memory is one 16-byte [`ShapePlan`] per kept shape, in one allocation
/// of exactly the kept count — `16 B × A000081(n + 1)` on a cold scan
/// (32 973 shapes, 0.50 MiB at `n = 13`; 87 811, 1.34 MiB at `n = 14`) —
/// plus the bounder's reused O(n) scratch; never the coloured space's
/// potentially tens of millions of representatives.  The sort is in place
/// (`(bound, rank)` is unique, so an unstable sort gives the one order).
/// Spaces wider than [`SHAPE_CODE_MAX_N`] nodes are refused up front
/// ([`ShapeScan::TooWide`]).
///
/// `cutoff` threads an upper bound's prune threshold into the prelude
/// (Bounded-Dijkstra-style cutoff reuse): a shape whose admissible bound
/// strictly exceeds it is certified hopeless at emission — counted into
/// `pruned` and given no record, so it costs no memory and the walk never
/// sorts or expands it.  `f64::INFINITY` keeps every shape.  A finite
/// cutoff keeps an unknown subset, so the scan first streams the space to
/// count the survivors and then fills a reservation of exactly that many
/// records in a second pass: the bound is recomputed rather than the plan
/// grown, whose doubling would hold up to twice the survivors.  A shape's
/// rank comes from its own code, not from its place in the plan, so winner
/// tie-breaks are unchanged by the cutoff.
///
/// This is [`split_shape_plan`] with no plateau: it stores every shape it
/// does not prune.
pub fn bound_ordered_shape_plan(
    classes: &WeightClasses,
    bounder: Option<&ShapeBounder>,
    cutoff: f64,
    deadline: Option<std::time::Instant>,
) -> ShapeScan {
    split_shape_plan(classes, bounder, f64::INFINITY, cutoff, deadline)
}

/// Where a [`split_shape_plan`] scan puts a shape.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Placed {
    Stored,
    Plateau,
    Pruned,
}

/// [`bound_ordered_shape_plan`] split at a finite `plateau` value: a shape
/// whose bound is bit-equal to `plateau` (and does not clear `cutoff`) is
/// only counted, in [`ShapeScan::Planned`]'s `plateau`, and the stored
/// shapes are the rest of the survivors.  The `(bound, rank)` order of
/// [`bound_ordered_shape_plan`]'s plan is therefore the stored shapes
/// below `plateau`, then the plateau in canonical stream order — which a
/// walk re-streams with [`ShapeStream::next_at`] — then the stored shapes
/// above it.  The streamed walk splits at its constructive upper bound;
/// where the optimum sits on the shape floors, every shape it could enter
/// ties that value and the plan holds none.  A non-finite `plateau` sets
/// nothing aside.
///
/// The scan counts the three kinds in one pass over a [`ShapeStream`] (a
/// non-finite `plateau` with an infinite or NaN `cutoff` keeps every shape,
/// and skips it) and fills a reservation of exactly the stored count in a
/// second pass, which it skips when nothing is stored.
pub fn split_shape_plan(
    classes: &WeightClasses,
    bounder: Option<&ShapeBounder>,
    plateau: f64,
    cutoff: f64,
    deadline: Option<std::time::Instant>,
) -> ShapeScan {
    let n = classes.n();
    assert!(n >= 1, "classed enumeration needs at least one node");
    if n > SHAPE_CODE_MAX_N {
        return ShapeScan::TooWide;
    }
    let place = |bound: f64| {
        if bound > cutoff {
            Placed::Pruned
        } else if plateau.is_finite() && bound.to_bits() == plateau.to_bits() {
            Placed::Plateau
        } else {
            Placed::Stored
        }
    };
    let (mut set_aside, mut pruned) = (0u64, 0u64);
    let stored = if !plateau.is_finite() && (cutoff.is_nan() || cutoff == f64::INFINITY) {
        forest_classes(n)
    } else {
        let mut stored: u128 = 0;
        let mut stream = ShapeStream::new(n, bounder, deadline);
        while let Some(bound) = stream.next_bound() {
            match place(bound) {
                Placed::Stored => stored += 1,
                Placed::Plateau => set_aside += 1,
                Placed::Pruned => pruned += 1,
            }
        }
        if stream.expired() {
            return ShapeScan::DeadlineExpired;
        }
        stored
    };
    let mut shapes = Vec::new();
    if stored > 0 {
        if stored <= PLAN_RESERVE_LIMIT {
            shapes.reserve_exact(stored as usize);
        }
        let mut stream = ShapeStream::new(n, bounder, deadline);
        while let Some(bound) = stream.next_bound() {
            if place(bound) == Placed::Stored {
                shapes.push(ShapePlan::encode(stream.levels(), bound));
            }
        }
        if stream.expired() {
            return ShapeScan::DeadlineExpired;
        }
        shapes.sort_unstable_by(|a, b| a.bound.total_cmp(&b.bound).then(a.rank().cmp(&b.rank())));
    }
    ShapeScan::Planned {
        shapes,
        plateau: set_aside,
        pruned,
    }
}

/// Memoised per-shape counter of canonical colourings, over **graded**
/// generating functions.
///
/// Every GF it builds is homogeneous: a subtree of `m` nodes has non-zero
/// coefficients only at colour-count vectors `v` with `Σ_c v_c = m`, and
/// truncation keeps only `v_c <= |class c|` (an exponent beyond its class
/// size can never reach the full-budget coefficient).  So each GF is stored
/// as its one degree slice — at most 7 `u128` coefficients for a 7 + 6
/// partition, against the 56 of the whole exponent space — and a product of
/// degrees `a` and `b` lands in slice `a + b`.
///
/// Memory is the two memos, keyed by byte-packed normalised level slices
/// (root at relative level 0):
///
/// * `trees`: one entry per distinct subtree of fewer than `n` nodes met in
///   the stream — at most `Σ_{m<n} A000081(m)` (7 813 at `n = 13`), each a
///   `m`-byte key plus one degree slice; an `n`-node tree is a whole shape,
///   never met twice, so it is not stored;
/// * `msets`: `MSET_k` of runs with `k >= 2` only (`MSET_1` is the tree GF
///   itself), whose subtrees have at most `n / 2` nodes — a few dozen
///   entries.
///
/// Memo hits are served in place: the lookup key is written into a reused
/// buffer and the stored slice is multiplied straight into the running
/// product, so a hit neither clones nor allocates.
struct ColourCounter {
    grades: Grades,
    /// Tree GF per normalised level slice.
    trees: std::collections::HashMap<Box<[u8]>, Box<[u128]>>,
    /// `MSET_k` of a tree GF, keyed by the tree's slice followed by `k`.
    msets: std::collections::HashMap<Box<[u8]>, Box<[u128]>>,
    /// Lookup-key scratch.
    key: Vec<u8>,
    /// Ping-pong buffers of the per-shape root product.
    product: Vec<u128>,
    spare: Vec<u128>,
    /// Node count of the partition.
    n: usize,
}

/// The bounded colour-count vectors `0 <= v_c <= |class c|`, graded by
/// degree `Σ_c v_c`.  A vector's *index* is its mixed-radix number
/// `Σ_c v_c · strides[c]`; indexes of in-bounds vectors add without carry,
/// and any carry strictly lowers the digit sum (every class holds at least
/// one node), so `a + b` (or `i · a`) is the index of the in-bounds sum
/// exactly when its degree is the sum of the degrees.
struct Grades {
    /// Mixed-radix strides of the index.
    strides: Vec<usize>,
    /// Degree of every index.
    degree: Vec<u16>,
    /// Position of every index within its degree slice.
    rank: Vec<u16>,
    /// Indexes grouped by degree, ascending within a degree.
    order: Vec<u16>,
    /// `order[start[d]..start[d + 1]]` is the degree-`d` slice.
    start: Vec<usize>,
}

impl Grades {
    fn new(sizes: &[usize]) -> Self {
        debug_assert!(sizes.iter().all(|&s| s >= 1), "classes are non-empty");
        let mut strides = Vec::with_capacity(sizes.len());
        let mut len = 1usize;
        for &s in sizes {
            strides.push(len);
            len *= s + 1;
        }
        let degree: Vec<u16> = (0..len)
            .map(|index| {
                let mut rest = index;
                let mut sum = 0;
                for &s in sizes {
                    sum += rest % (s + 1);
                    rest /= s + 1;
                }
                sum as u16
            })
            .collect();
        let n: usize = sizes.iter().sum();
        let mut start = vec![0usize; n + 2];
        for &d in &degree {
            start[d as usize + 1] += 1;
        }
        for d in 0..=n {
            start[d + 1] += start[d];
        }
        let mut order = vec![0u16; len];
        let mut rank = vec![0u16; len];
        let mut filled = start.clone();
        for (index, &d) in degree.iter().enumerate() {
            let at = filled[d as usize];
            order[at] = index as u16;
            rank[index] = (at - start[d as usize]) as u16;
            filled[d as usize] += 1;
        }
        Grades {
            strides,
            degree,
            rank,
            order,
            start,
        }
    }

    /// The indexes of the degree-`d` slice, in coefficient order.
    fn slice(&self, d: usize) -> &[u16] {
        &self.order[self.start[d]..self.start[d + 1]]
    }

    /// Position of index `index` in the degree-`d` slice, or `None` when
    /// the index carried out of bounds on its way there.
    fn rank_at(&self, index: usize, d: usize) -> Option<usize> {
        let degree = *self.degree.get(index)?;
        (degree as usize == d).then(|| self.rank[index] as usize)
    }

    /// `out = a · b` for slices of degrees `da` and `db`, truncating.
    fn mul_into(&self, a: &[u128], da: usize, b: &[u128], db: usize, out: &mut Vec<u128>) {
        let d = da + db;
        out.clear();
        out.resize(self.slice(d).len(), 0);
        for (&ia, &ca) in self.slice(da).iter().zip(a) {
            if ca == 0 {
                continue;
            }
            for (&ib, &cb) in self.slice(db).iter().zip(b) {
                if cb == 0 {
                    continue;
                }
                if let Some(r) = self.rank_at(ia as usize + ib as usize, d) {
                    out[r] = out[r].saturating_add(ca.saturating_mul(cb));
                }
            }
        }
    }

    /// The power sum `f(x^i)` of a degree-`d` slice (degree `i · d`).
    fn power(&self, f: &[u128], d: usize, i: usize) -> Vec<u128> {
        let mut out = vec![0u128; self.slice(i * d).len()];
        for (&index, &c) in self.slice(d).iter().zip(f) {
            if let Some(r) = self.rank_at(i * index as usize, i * d) {
                out[r] = out[r].saturating_add(c);
            }
        }
        out
    }
}

impl ColourCounter {
    fn new(classes: &WeightClasses) -> Self {
        ColourCounter {
            grades: Grades::new(classes.sizes()),
            trees: std::collections::HashMap::new(),
            msets: std::collections::HashMap::new(),
            key: Vec::new(),
            product: Vec::new(),
            spare: Vec::new(),
            n: classes.n(),
        }
    }

    /// Number of canonical colourings of one forest shape (super-tree level
    /// sequence, virtual root at level 0 carrying no colour): the root-run
    /// product's degree-`n` slice, whose one vector is the full budget.
    fn forest_colorings(&mut self, levels: &[usize]) -> u128 {
        let mut product = std::mem::take(&mut self.product);
        let mut spare = std::mem::take(&mut self.spare);
        self.children_product(levels, &mut product, &mut spare);
        debug_assert_eq!(product.len(), 1, "the degree-n slice is one vector");
        let count = product[0];
        self.product = product;
        self.spare = spare;
        count
    }

    /// Product over the child runs of the node at `levels[0]` (children are
    /// the positions one level below it; canonical sequences keep identical
    /// sibling subtrees adjacent, so runs suffice), into `product` — a slice
    /// of degree `levels.len() - 1`.
    fn children_product(
        &mut self,
        levels: &[usize],
        product: &mut Vec<u128>,
        spare: &mut Vec<u128>,
    ) {
        let child_level = levels[0] + 1;
        product.clear();
        product.push(1); // x^0
        let mut degree = 0;
        let mut run: Option<(usize, usize)> = None;
        let mut run_len = 0;
        let mut child = 1;
        while child < levels.len() {
            debug_assert_eq!(levels[child], child_level);
            let mut next = child + 1;
            while next < levels.len() && levels[next] > child_level {
                next += 1;
            }
            if run.is_some_and(|(b, e)| levels[b..e] == levels[child..next]) {
                run_len += 1;
            } else {
                if let Some((b, e)) = run {
                    self.mul_run(&levels[b..e], run_len, product, &mut degree, spare);
                }
                run = Some((child, next));
                run_len = 1;
            }
            child = next;
        }
        if let Some((b, e)) = run {
            self.mul_run(&levels[b..e], run_len, product, &mut degree, spare);
        }
    }

    /// Multiplies `product` (degree `*degree`) by `MSET_k` of the subtree
    /// spanning `member`, memoised.
    fn mul_run(
        &mut self,
        member: &[usize],
        k: usize,
        product: &mut Vec<u128>,
        degree: &mut usize,
        spare: &mut Vec<u128>,
    ) {
        let run_degree = k * member.len();
        self.fill_key(member, k);
        let memo = if k == 1 { &self.trees } else { &self.msets };
        if let Some(gf) = memo.get(self.key.as_slice()) {
            self.grades
                .mul_into(product, *degree, gf, run_degree, spare);
        } else {
            let key: Box<[u8]> = self.key.as_slice().into();
            let gf = if k == 1 {
                self.tree_gf(member)
            } else {
                self.mset_gf(member, k)
            };
            self.grades
                .mul_into(product, *degree, &gf, run_degree, spare);
            if k >= 2 {
                self.msets.insert(key, gf);
            } else if member.len() < self.n {
                self.trees.insert(key, gf);
            }
        }
        std::mem::swap(product, spare);
        *degree += run_degree;
    }

    /// Writes the memo key of `k` copies of `member`: its normalised level
    /// slice, followed by `k` for multiset runs.
    fn fill_key(&mut self, member: &[usize], k: usize) {
        self.key.clear();
        self.key
            .extend(member.iter().map(|&l| (l - member[0]) as u8));
        if k >= 2 {
            self.key.push(k as u8);
        }
    }

    /// GF of the subtree spanning `member`: the product over its child runs,
    /// shifted by the root's own colour choice (each class with remaining
    /// budget).
    fn tree_gf(&mut self, member: &[usize]) -> Box<[u128]> {
        let m = member.len();
        let (mut below, mut spare) = (Vec::new(), Vec::new());
        self.children_product(member, &mut below, &mut spare);
        let mut out = vec![0u128; self.grades.slice(m).len()];
        for (&index, &coeff) in self.grades.slice(m - 1).iter().zip(&below) {
            if coeff == 0 {
                continue;
            }
            for &stride in &self.grades.strides {
                if let Some(r) = self.grades.rank_at(index as usize + stride, m) {
                    out[r] = out[r].saturating_add(coeff);
                }
            }
        }
        out.into_boxed_slice()
    }

    /// `MSET_k(f)` of the subtree spanning `member` (`k >= 2`): the GF
    /// counting multisets of `k` colourings drawn from the family `f`
    /// counts — one multiset per canonical assignment of a run of `k`
    /// identical sibling subtrees.
    fn mset_gf(&mut self, member: &[usize], k: usize) -> Box<[u128]> {
        let m = member.len();
        // f = 1 · MSET_1, through the tree memo.
        let (mut f, mut spare, mut degree) = (vec![1], Vec::new(), 0);
        self.mul_run(member, 1, &mut f, &mut degree, &mut spare);
        let powers: Vec<Vec<u128>> = (1..=k).map(|i| self.grades.power(&f, m, i)).collect();
        let mut h: Vec<Vec<u128>> = vec![vec![1]];
        let mut term = Vec::new();
        for j in 1..=k {
            let mut acc = vec![0u128; self.grades.slice(j * m).len()];
            for i in 1..=j {
                self.grades
                    .mul_into(&powers[i - 1], i * m, &h[j - i], (j - i) * m, &mut term);
                for (slot, &t) in acc.iter_mut().zip(&term) {
                    *slot = slot.saturating_add(t);
                }
            }
            for slot in &mut acc {
                debug_assert!(
                    *slot == u128::MAX || slot.is_multiple_of(j as u128),
                    "Newton recurrence yields integral multiset counts"
                );
                *slot /= j as u128;
            }
            h.push(acc);
        }
        h.pop().expect("k >= 1").into_boxed_slice()
    }
}

/// Per-node hooks of [`ColoringScratch::walk`]: lazy searches carry
/// incremental bound state down the colour assignment and prune whole
/// colour subtrees without ever materialising a representative.
pub trait ColoringVisitor {
    /// Real position `pos` (preorder, 0-based) receives class `class`; its
    /// shape parent is `parent` (a smaller real position, `None` for
    /// roots).  Only *canonical* prefixes are offered — the sortedness
    /// constraints among identical siblings are checked first.  Return
    /// `false` to skip every colouring extending this prefix; the walker
    /// then tries the next class without calling
    /// [`ColoringVisitor::ascend`], so a refusing implementation must leave
    /// its own state unchanged.
    fn descend(&mut self, pos: usize, parent: Option<usize>, class: usize) -> bool;
    /// Undoes an accepted [`ColoringVisitor::descend`].
    fn ascend(&mut self, pos: usize, class: usize);
    /// A complete canonical colouring (`colors[p]` = class of real position
    /// `p`, preorder) with its coloured automorphism count.  Return `false`
    /// to abort the walk entirely (propagated out as `false`, without
    /// unwinding `ascend` hooks).
    fn complete(&mut self, colors: &[usize], aut: u128) -> bool;
}

/// The canonical-colouring walker and its reusable buffers: a walker that
/// colours shape after shape keeps one, so once the buffers have grown to
/// the largest shape a walk allocates nothing.
#[derive(Clone, Debug, Default)]
pub struct ColoringScratch {
    /// Subtree span ends: `end[i]` = first `j > i` with
    /// `levels[j] <= levels[i]`.
    end: Vec<usize>,
    /// Positions whose subtree span is still open.
    open: Vec<usize>,
    /// Sortedness checks `(p, s, l)` per position: once the position is
    /// coloured, `colors[p..p + l] >= colors[s..s + l]` must hold.  The
    /// inner lists keep their capacity from shape to shape.
    checks_at: Vec<Vec<(usize, usize, usize)>>,
    /// Preorder parent (as a *real* position) of every super-tree position.
    parent_of: Vec<Option<usize>>,
    last_at_level: Vec<usize>,
    /// Per-class budget still to place.
    remaining: Vec<usize>,
    colors: Vec<usize>,
}

impl ColoringScratch {
    /// Walks the canonical colourings of one shape (super-tree `levels`) in
    /// the exact order [`classed_forest_representatives`] materialises
    /// them: assignments of the class multiset to the real positions such
    /// that within every run of identical sibling subtrees the coloured
    /// subtree encodings are non-increasing.  Returns `false` iff the
    /// visitor aborted.
    pub fn walk(
        &mut self,
        levels: &[usize],
        classes: &WeightClasses,
        visitor: &mut impl ColoringVisitor,
    ) -> bool {
        if classes.class_count() == 1 {
            self.walk_uniform(levels, visitor)
        } else {
            self.walk_coloured(levels, classes, visitor)
        }
    }

    /// The generic walk of [`ColoringScratch::walk`], for any partition.
    fn walk_coloured(
        &mut self,
        levels: &[usize],
        classes: &WeightClasses,
        visitor: &mut impl ColoringVisitor,
    ) -> bool {
        let len = levels.len();
        let ColoringScratch {
            end,
            open,
            checks_at,
            parent_of,
            last_at_level,
            remaining,
            colors,
        } = self;
        end.clear();
        end.resize(len, len);
        open.clear();
        for (i, &level) in levels.iter().enumerate() {
            while let Some(&top) = open.last() {
                if levels[top] >= level {
                    end[top] = i;
                    open.pop();
                } else {
                    break;
                }
            }
            open.push(i);
        }
        // Sortedness checks, attached to the position that completes the
        // later subtree of the pair: within every run of identical sibling
        // shapes, member `m` must carry a colour sequence `<=` member
        // `m-1`'s.
        if checks_at.len() < len {
            checks_at.resize_with(len, Vec::new);
        }
        for checks in &mut checks_at[..len] {
            checks.clear();
        }
        for i in 0..len {
            let mut child = i + 1;
            let mut prev: Option<usize> = None;
            while child < end[i] {
                debug_assert_eq!(levels[child], levels[i] + 1);
                let next = end[child];
                if let Some(p) = prev {
                    if end[p] - p == next - child && levels[p..end[p]] == levels[child..next] {
                        checks_at[next - 1].push((p, child, next - child));
                    }
                }
                prev = Some(child);
                child = next;
            }
        }
        parent_of.clear();
        parent_of.resize(len, None);
        last_at_level.clear();
        last_at_level.resize(len + 2, usize::MAX);
        last_at_level[0] = 0;
        for i in 1..len {
            let level = levels[i];
            if level >= 2 {
                parent_of[i] = Some(last_at_level[level - 1] - 1);
            }
            last_at_level[level] = i;
        }
        remaining.clear();
        remaining.extend(classes.sizes());
        colors.clear();
        colors.resize(len, usize::MAX);
        walk_classed(1, levels, checks_at, parent_of, remaining, colors, visitor)
    }

    /// Single-class specialisation of [`ColoringScratch::walk_coloured`]: a
    /// uniform partition has exactly one canonical colouring per shape, so
    /// the span ends, sibling sortedness checks and the recursive class
    /// assignment all degenerate — the walk is one linear preorder pass over
    /// the level sequence, with parents read off the last-at-level rule the
    /// decoder uses.  Visitor hooks fire in exactly the order (and with
    /// exactly the arguments, automorphism count included) the generic
    /// walker produces for a single-class partition, so a visitor cannot
    /// observe which walker ran (tested below on every shape up to
    /// `n = 10`); a refused prefix ends the shape outright, there being no
    /// alternative class to try.
    fn walk_uniform(&mut self, levels: &[usize], visitor: &mut impl ColoringVisitor) -> bool {
        let len = levels.len();
        let last_at_level = &mut self.last_at_level;
        last_at_level.clear();
        last_at_level.resize(len + 2, usize::MAX);
        last_at_level[0] = 0;
        for (pos, &level) in levels.iter().enumerate().skip(1) {
            let parent = (level >= 2).then(|| last_at_level[level - 1] - 1);
            if !visitor.descend(pos - 1, parent, 0) {
                for p in (1..pos).rev() {
                    visitor.ascend(p - 1, 0);
                }
                return true;
            }
            last_at_level[level] = pos;
        }
        let colors = &mut self.colors;
        colors.clear();
        colors.resize(len, 0);
        colors[0] = usize::MAX; // the virtual root carries no colour
        let aut = colored_subtree_automorphisms(levels, colors, 0, len);
        if !visitor.complete(&colors[1..], aut) {
            return false;
        }
        for p in (1..len).rev() {
            visitor.ascend(p - 1, 0);
        }
        true
    }
}

/// Depth-first colour assignment over real positions `pos..`, with the
/// remaining per-class budget; a completed run member is compared with its
/// predecessor the moment its last position is coloured.
fn walk_classed(
    pos: usize,
    levels: &[usize],
    checks_at: &[Vec<(usize, usize, usize)>],
    parent_of: &[Option<usize>],
    remaining: &mut [usize],
    colors: &mut [usize],
    visitor: &mut impl ColoringVisitor,
) -> bool {
    let len = levels.len();
    if pos == len {
        let aut = colored_subtree_automorphisms(levels, colors, 0, len);
        return visitor.complete(&colors[1..], aut);
    }
    for c in 0..remaining.len() {
        if remaining[c] == 0 {
            continue;
        }
        colors[pos] = c;
        remaining[c] -= 1;
        let sorted = checks_at[pos]
            .iter()
            .all(|&(p, s, l)| colors[p..p + l] >= colors[s..s + l]);
        if sorted && visitor.descend(pos - 1, parent_of[pos], c) {
            if !walk_classed(
                pos + 1,
                levels,
                checks_at,
                parent_of,
                remaining,
                colors,
                visitor,
            ) {
                return false;
            }
            visitor.ascend(pos - 1, c);
        }
        remaining[c] += 1;
        colors[pos] = usize::MAX;
    }
    true
}

/// `|Aut|` of the **coloured** subtree spanning `levels[start..end)` (rooted
/// at `start`): the product of the children's counts times, per run of
/// sibling subtrees identical in shape *and* colours, the factorial of the
/// run length.  Canonical sequences keep identical siblings adjacent, so
/// runs suffice; over one colour it is the shape's automorphism count.
fn colored_subtree_automorphisms(
    levels: &[usize],
    colors: &[usize],
    start: usize,
    end: usize,
) -> u128 {
    let child_level = levels[start] + 1;
    let mut aut = 1u128;
    let mut child = start + 1;
    let mut run_slice: Option<(usize, usize)> = None;
    let mut run_len = 0u128;
    while child < end {
        debug_assert!(levels[child] == child_level);
        let mut next = child + 1;
        while next < end && levels[next] > child_level {
            next += 1;
        }
        aut = aut.saturating_mul(colored_subtree_automorphisms(levels, colors, child, next));
        let same = run_slice
            .map(|(b, e)| {
                levels[b..e] == levels[child..next] && colors[b..e] == colors[child..next]
            })
            .unwrap_or(false);
        if same {
            run_len += 1;
        } else {
            aut = aut.saturating_mul(factorial_u128(run_len));
            run_slice = Some((child, next));
            run_len = 1;
        }
        child = next;
    }
    aut.saturating_mul(factorial_u128(run_len))
}

/// Order-sensitive FNV-1a fold over 64-bit words — the digest routine of
/// [`crate::fingerprint::AppFingerprint::digest`].
pub(crate) fn fnv1a(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for word in words {
        hash ^= word;
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

fn factorial(n: usize) -> u128 {
    factorial_u128(n as u128)
}

fn factorial_u128(n: u128) -> u128 {
    let mut f = 1u128;
    for k in 2..=n {
        f = f.saturating_mul(k);
    }
    f
}

/// Number of forest-isomorphism classes on `n` nodes — the number of
/// shapes a [`ShapeStream`] yields (A000081 shifted by one:
/// rooted forests on `n` nodes ↔ rooted trees on `n + 1` nodes).
/// Saturates at `u128::MAX` once the exact count overflows.
pub fn forest_classes(n: usize) -> u128 {
    rooted_tree_classes(n + 1)
}

/// Number of *labelled* rooted forests on `n` nodes, `(n + 1)^(n - 1)`
/// (Cayley's formula via the super-root bijection) — the raw space the
/// canonical enumeration collapses.  Saturating.
pub fn labelled_forests(n: usize) -> u128 {
    if n == 0 {
        return 1;
    }
    let mut size = 1u128;
    for _ in 0..(n - 1) {
        size = size.saturating_mul((n + 1) as u128);
    }
    size
}

/// Number of unlabelled rooted trees on `n` nodes (OEIS A000081), by the
/// Euler-transform recurrence
/// `(n - 1) · t(n) = Σ_{k=1}^{n-1} (Σ_{d | k} d · t(d)) · t(n - k)`.
/// Saturates at `u128::MAX` on overflow.
pub fn rooted_tree_classes(n: usize) -> u128 {
    if n == 0 {
        return 1; // the empty tree
    }
    let mut t = vec![0u128; n + 1];
    t[1] = 1;
    for m in 2..=n {
        let mut sum = 0u128;
        for k in 1..m {
            let s = t
                .iter()
                .enumerate()
                .take(k + 1)
                .skip(1)
                .filter(|&(d, _)| k % d == 0)
                .fold(0u128, |acc, (d, &td)| {
                    acc.saturating_add((d as u128).saturating_mul(td))
                });
            sum = sum.saturating_add(s.saturating_mul(t[m - k]));
        }
        if sum == u128::MAX {
            t[m] = u128::MAX;
        } else {
            t[m] = sum / (m as u128 - 1);
        }
    }
    t[n]
}

/// The class-aware canonical form of a labelled forest: the
/// [`classed_forest_representatives`] representative of its
/// **class-preserving** relabelling orbit: the shape's canonical level
/// sequence (subtrees in non-increasing lexicographic order, as a
/// [`ShapeStream`] yields them), with the weight classes carried along and
/// used as the tie-break among identically-shaped sibling subtrees.
///
/// Every member of an orbit maps to the *same* representative, and the
/// representative's [`ClassedRepresentative::member_graph`] is the orbit's
/// deterministic canonical member.  This is core's reference
/// canonicaliser: the orbit tests map every labelled forest through it and
/// check the generated representatives and their orbit sizes against the
/// tallies.
///
/// Fails with [`CoreError::NotAForest`] when some node has several direct
/// predecessors or the graph is cyclic.
pub fn canonical_classed_form(
    classes: &WeightClasses,
    graph: &ExecutionGraph,
) -> CoreResult<ClassedRepresentative> {
    if !graph.is_forest() {
        return Err(CoreError::NotAForest);
    }
    graph.topological_order()?; // rejects cycles
    let n = graph.n();
    debug_assert_eq!(classes.n(), n);
    // Coloured canonical encoding of every subtree: children sorted by
    // (level sequence, colour sequence) in non-increasing lexicographic
    // order — shape dominates, colours break shape ties, exactly the order
    // `classed_forest_representatives` emits.
    #[allow(clippy::type_complexity)]
    fn subtree_encoding(
        graph: &ExecutionGraph,
        classes: &WeightClasses,
        node: ServiceId,
    ) -> (Vec<usize>, Vec<usize>) {
        let mut children: Vec<(Vec<usize>, Vec<usize>)> = graph
            .succs(node)
            .iter()
            .map(|&c| subtree_encoding(graph, classes, c as usize))
            .collect();
        children.sort_by(|a, b| b.cmp(a));
        let mut levels = vec![0usize];
        let mut colors = vec![classes.class_of(node)];
        for (child_levels, child_colors) in children {
            levels.extend(child_levels.into_iter().map(|l| l + 1));
            colors.extend(child_colors);
        }
        (levels, colors)
    }
    let mut roots: Vec<(Vec<usize>, Vec<usize>)> = graph
        .entry_nodes()
        .into_iter()
        .map(|r| subtree_encoding(graph, classes, r))
        .collect();
    roots.sort_by(|a, b| b.cmp(a));
    let mut levels = vec![0usize];
    let mut colors = vec![usize::MAX]; // virtual super-root carries no class
    for (root_levels, root_colors) in roots {
        levels.extend(root_levels.into_iter().map(|l| l + 1));
        colors.extend(root_colors);
    }
    debug_assert_eq!(levels.len(), n + 1);
    // Level sequence → parent vector: the last-at-level rule.
    let mut parents = vec![None; n];
    let mut last_at_level = vec![usize::MAX; n + 2];
    last_at_level[0] = 0;
    for i in 1..levels.len() {
        let level = levels[i];
        parents[i - 1] = if level == 1 {
            None
        } else {
            Some(last_at_level[level - 1] - 1)
        };
        last_at_level[level] = i;
    }
    let aut = colored_subtree_automorphisms(&levels, &colors, 0, levels.len());
    Ok(ClassedRepresentative {
        parents,
        classes: colors[1..].to_vec(),
        orbit: classes.group_order() / aut,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weight_classes_partition_by_bits() {
        let app = Application::independent(&[(1.0, 0.5), (2.0, 0.5), (1.0, 0.5), (1.0, 0.25)]);
        let classes = WeightClasses::of(&app);
        assert_eq!(classes.n(), 4);
        assert_eq!(classes.class_count(), 3);
        assert_eq!(classes.class_of(0), classes.class_of(2));
        assert_ne!(classes.class_of(0), classes.class_of(1));
        assert_eq!(classes.sizes()[classes.class_of(0)], 2);
        assert!(!classes.is_uniform());
        let uniform = Application::independent(&[(3.0, 0.7); 5]);
        assert!(WeightClasses::of(&uniform).is_uniform());
    }

    #[test]
    fn class_counts_match_a000081() {
        // A000081: 1, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766 …
        let expected = [1u128, 1, 1, 2, 4, 9, 20, 48, 115, 286, 719, 1842, 4766];
        for (n, &e) in expected.iter().enumerate() {
            assert_eq!(rooted_tree_classes(n), e, "A000081({n})");
        }
        assert_eq!(forest_classes(8), 286);
        assert_eq!(forest_classes(10), 1842);
        assert_eq!(forest_classes(11), 4766);
    }

    /// `(cost, selectivity)` specs with `sizes[c]` copies of class `c`.
    fn classed_app(sizes: &[usize]) -> Application {
        let mut specs = Vec::new();
        for (c, &size) in sizes.iter().enumerate() {
            for _ in 0..size {
                specs.push((1.0 + c as f64, 0.5 + 0.1 * c as f64));
            }
        }
        Application::independent(&specs)
    }

    /// Every hook a [`ColoringVisitor`] receives, with its arguments.
    #[derive(Debug, PartialEq)]
    enum Hook {
        Descend(usize, Option<usize>, usize),
        Ascend(usize, usize),
        Complete(Vec<usize>, u128),
    }

    /// Records every hook, accepting every prefix except those that place
    /// position `refuse_at`.
    struct Recorder {
        hooks: Vec<Hook>,
        refuse_at: usize,
    }

    impl ColoringVisitor for Recorder {
        fn descend(&mut self, pos: usize, parent: Option<usize>, class: usize) -> bool {
            self.hooks.push(Hook::Descend(pos, parent, class));
            pos != self.refuse_at
        }
        fn ascend(&mut self, pos: usize, class: usize) {
            self.hooks.push(Hook::Ascend(pos, class));
        }
        fn complete(&mut self, colors: &[usize], aut: u128) -> bool {
            self.hooks.push(Hook::Complete(colors.to_vec(), aut));
            true
        }
    }

    /// The single-class fast path is invisible to a visitor: on every shape
    /// up to `n = 10` it fires the generic walk's hooks, in the same order,
    /// with the same parents, classes and automorphism counts, whether the
    /// visitor accepts every prefix or refuses at a fixed depth.  The
    /// materialised oracle walks the generic path only, so it checks the
    /// streamed walk's fast path against an independent one.
    #[test]
    fn the_single_class_walk_fires_the_generic_walks_hooks() {
        let (mut fast, mut generic) = (ColoringScratch::default(), ColoringScratch::default());
        for n in 1..=10 {
            let classes = WeightClasses::of(&classed_app(&[n]));
            for refuse_at in [usize::MAX, 3] {
                let mut shapes = CanonicalForests::new(n);
                let mut walked = 0u128;
                while let Some(levels) = shapes.next_shape() {
                    let mut a = Recorder {
                        hooks: Vec::new(),
                        refuse_at,
                    };
                    let mut b = Recorder {
                        hooks: Vec::new(),
                        refuse_at,
                    };
                    assert!(fast.walk_uniform(levels, &mut a));
                    assert!(generic.walk_coloured(levels, &classes, &mut b));
                    assert_eq!(a.hooks, b.hooks, "n={n} refuse_at={refuse_at} {levels:?}");
                    walked += 1;
                }
                assert_eq!(walked, forest_classes(n), "n={n}: shapes");
            }
        }
    }

    /// The super-tree level sequence (virtual root at level 0 first) of a
    /// preorder parent vector.
    fn levels_of(parents: &[Option<ServiceId>]) -> Vec<usize> {
        let mut levels = vec![0];
        for &p in parents {
            levels.push(p.map_or(1, |pp| levels[pp + 1] + 1));
        }
        levels
    }

    #[test]
    fn level_codes_round_trip_through_canonical_classed_form() {
        // Canonicalise labelled forests of a 2+2+2 partition, encode the
        // representative's shape as a shape record and decode it: the
        // parents must survive, and the decoded member must re-canonicalise
        // to the same representative (idempotence through the codec).
        let app = classed_app(&[2, 2, 2]);
        let classes = WeightClasses::of(&app);
        let cases: [&[Option<ServiceId>]; 4] = [
            &[None, Some(0), Some(0), Some(2), None, Some(4)],
            &[None, None, None, Some(0), Some(1), Some(2)],
            &[Some(1), None, Some(1), Some(5), None, Some(4)],
            &[None, Some(0), Some(1), Some(2), Some(3), Some(4)],
        ];
        let mut levels = Vec::new();
        for parents in cases {
            let graph = ExecutionGraph::from_parents(parents).unwrap();
            let rep = canonical_classed_form(&classes, &graph).unwrap();
            ShapePlan::encode(&levels_of(&rep.parents), 0.0).decode_into(&mut levels);
            let mut decoded = Vec::new();
            let mut last_at_level = vec![usize::MAX; levels.len() + 1];
            for (pos, &level) in levels.iter().enumerate().skip(1) {
                decoded.push((level >= 2).then(|| last_at_level[level - 1]));
                last_at_level[level] = pos - 1;
            }
            assert_eq!(decoded, rep.parents, "{parents:?}: parents");
            let member = ClassedRepresentative {
                parents: decoded,
                classes: rep.classes.clone(),
                orbit: rep.orbit,
            }
            .member_graph(&classes)
            .unwrap();
            let again = canonical_classed_form(&classes, &member).unwrap();
            assert_eq!(again, rep, "{parents:?}: codec breaks idempotence");
        }
    }

    /// The parenthesis key strictly decreases along the canonical stream
    /// (so [`ShapePlan::rank`] orders shapes like their stream positions)
    /// and decodes back to the streamed level sequence, up to the widest
    /// key: the `n = 32` path fills all 64 bits.
    #[test]
    fn shape_keys_decrease_along_the_stream_and_decode_exactly() {
        let mut levels = Vec::new();
        for n in 1..=14 {
            let mut stream = CanonicalForests::new(n);
            let mut previous: Option<u64> = None;
            let mut count = 0u128;
            while let Some(streamed) = stream.next_shape() {
                let code = parenthesis_word(streamed);
                assert_eq!(code.leading_zeros(), 64 - 2 * n as u32, "n={n}: width");
                assert!(previous.is_none_or(|p| code < p), "n={n}: key order");
                previous = Some(code);
                let shape = ShapePlan { bound: 0.0, code };
                shape.decode_into(&mut levels);
                assert_eq!(levels, streamed, "n={n}: decode");
                count += 1;
            }
            assert_eq!(count, forest_classes(n), "n={n}: shapes");
        }
        let mut stream = CanonicalForests::new(SHAPE_CODE_MAX_N);
        let path = stream.next_shape().unwrap().to_vec();
        let code = parenthesis_word(&path);
        assert_eq!(code, u64::MAX << 32, "the n = 32 path");
        ShapePlan { bound: 0.0, code }.decode_into(&mut levels);
        assert_eq!(levels, path);
    }

    /// Plan order pinned across record layouts: an FNV digest over every
    /// planned shape's `(bound bits, code)` in plan order, under an INORDER
    /// period bounder, equal to the digest of the 24-byte records that also
    /// carried a colouring count — so a record layout change cannot reorder
    /// the plan or move a bound by a bit.
    #[test]
    fn shape_plan_order_is_pinned() {
        for (sizes, pinned) in [
            (vec![14usize], 0x6608_3f63_eb21_f3bf_u64),
            (vec![7, 6], 0x5199_3446_0dfe_1e58),
        ] {
            let app = classed_app(&sizes);
            let classes = WeightClasses::of(&app);
            let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::InOrder));
            let ShapeScan::Planned { shapes, .. } =
                bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
            else {
                panic!("{sizes:?}: no deadline was set");
            };
            let digest = fnv1a(shapes.iter().flat_map(|s| [s.bound.to_bits(), s.code]));
            assert_eq!(
                digest, pinned,
                "{sizes:?}: plan order digest {digest:#018x}"
            );
        }
    }

    #[test]
    fn bound_ordered_shape_plan_covers_every_shape_and_counts_orbits() {
        for sizes in [vec![5usize], vec![3, 2], vec![2, 2, 2]] {
            let n: usize = sizes.iter().sum();
            let classes = WeightClasses::of(&classed_app(&sizes));
            let ShapeScan::Planned {
                shapes,
                plateau,
                pruned,
            } = bound_ordered_shape_plan(&classes, None, f64::INFINITY, None)
            else {
                panic!("{sizes:?}: no deadline was set");
            };
            assert_eq!(pruned, 0, "{sizes:?}: an infinite cutoff keeps all");
            assert_eq!(plateau, 0, "{sizes:?}: no plateau is set aside");
            assert_eq!(shapes.len() as u128, forest_classes(n), "{sizes:?}: shapes");
            // The colourings walked over the plan's shapes are the count
            // pass's coloured orbits.
            let mut walked = Recorder {
                hooks: Vec::new(),
                refuse_at: usize::MAX,
            };
            let mut scratch = ColoringScratch::default();
            let mut levels = Vec::new();
            for shape in &shapes {
                shape.decode_into(&mut levels);
                assert!(scratch.walk(&levels, &classes, &mut walked));
            }
            let completions = walked
                .hooks
                .iter()
                .filter(|hook| matches!(hook, Hook::Complete(..)))
                .count();
            assert_eq!(
                Some(completions as u128),
                classed_class_count(&classes, u128::MAX),
                "{sizes:?}: walked colourings match the count pass"
            );
            // Stream positions are a permutation, and every decoded shape
            // matches the Beyer–Hedetniemi stream at its position.
            let mut streamed: Vec<Vec<usize>> = Vec::new();
            let mut stream = CanonicalForests::new(n);
            while let Some(shape) = stream.next_shape() {
                streamed.push(shape.to_vec());
            }
            let mut seen = vec![false; shapes.len()];
            let mut levels = Vec::new();
            for shape in &shapes {
                let at = streamed
                    .iter()
                    .position(|l| parenthesis_word(l) == shape.code)
                    .expect("every planned key is a streamed shape");
                assert!(!seen[at], "{sizes:?}: dup stream position");
                seen[at] = true;
                shape.decode_into(&mut levels);
                assert_eq!(
                    levels, streamed[at],
                    "{sizes:?}: decoded levels at stream position {at}"
                );
            }
            // With no bounder, the sort degenerates to canonical order.
            assert!(shapes.windows(2).all(|w| w[0].rank() < w[1].rank()));
        }
    }

    /// A finite cutoff drops exactly the shapes whose bound strictly
    /// exceeds it, holds the survivors in a reservation of exactly their
    /// count, and leaves the keys of the survivors untouched (they rank the
    /// canonical stream, not the emitted plan).
    #[test]
    fn shape_plan_cutoff_prunes_at_emission_without_renumbering() {
        let app = classed_app(&[3, 2]);
        let classes = WeightClasses::of(&app);
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::InOrder));
        let ShapeScan::Planned {
            shapes: all,
            pruned: none_pruned,
            ..
        } = bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("no deadline was set");
        };
        assert_eq!(none_pruned, 0);
        let cutoff = all[all.len() / 2].bound;
        let ShapeScan::Planned {
            shapes,
            plateau,
            pruned,
        } = bound_ordered_shape_plan(&classes, Some(&bounder), cutoff, None)
        else {
            panic!("no deadline was set");
        };
        assert_eq!(plateau, 0, "no plateau is set aside");
        assert_eq!(shapes.capacity(), shapes.len(), "one exact reservation");
        assert_eq!(
            shapes.len() as u64 + pruned,
            all.len() as u64,
            "survivors and casualties tile the shape space"
        );
        assert!(pruned > 0, "the midpoint cutoff must cut something");
        let survivors: Vec<(u64, u64)> =
            shapes.iter().map(|s| (s.code, s.bound.to_bits())).collect();
        let expected: Vec<(u64, u64)> = all
            .iter()
            .filter(|s| s.bound <= cutoff)
            .map(|s| (s.code, s.bound.to_bits()))
            .collect();
        assert_eq!(survivors, expected, "cutoff = filter of the full plan");
    }

    /// Splitting at any shape bound value stores exactly the other shapes,
    /// and the stored shapes below the value, then the shapes a
    /// [`ShapeStream`] yields at the value, then the stored shapes above
    /// it, are the uncut plan record for record — the order the streamed
    /// walk claims them in.
    #[test]
    fn a_split_plan_with_its_plateau_streamed_is_the_whole_plan() {
        for sizes in [vec![8usize], vec![4, 3], vec![2, 2, 3]] {
            let n: usize = sizes.iter().sum();
            let app = classed_app(&sizes);
            let classes = WeightClasses::of(&app);
            for objective in [
                ShapeObjective::Period(CommModel::Overlap),
                ShapeObjective::Period(CommModel::InOrder),
                ShapeObjective::Latency,
            ] {
                let bounder = ShapeBounder::new(&app, objective);
                let ShapeScan::Planned { shapes: every, .. } =
                    bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
                else {
                    panic!("no deadline was set");
                };
                let key = |s: &ShapePlan| (s.bound.to_bits(), s.code);
                let whole: Vec<(u64, u64)> = every.iter().map(key).collect();
                let mut values: Vec<f64> = every.iter().map(|s| s.bound).collect();
                values.dedup_by(|a, b| a.to_bits() == b.to_bits());
                for value in values {
                    let at = format!("{sizes:?} {objective:?} at {value}");
                    let ShapeScan::Planned {
                        shapes,
                        plateau,
                        pruned,
                    } = split_shape_plan(&classes, Some(&bounder), value, f64::INFINITY, None)
                    else {
                        panic!("{at}: no deadline was set");
                    };
                    assert_eq!(pruned, 0, "{at}");
                    assert_eq!(shapes.capacity(), shapes.len(), "{at}: exact reservation");
                    let below = shapes.partition_point(|s| s.bound.total_cmp(&value).is_lt());
                    let mut stream = ShapeStream::new(n, Some(&bounder), None);
                    let mut streamed = Vec::new();
                    while let Some(levels) = stream.next_at(value) {
                        streamed.push(ShapePlan::encode(levels, value));
                    }
                    assert!(!stream.expired(), "{at}");
                    assert_eq!(streamed.len() as u64, plateau, "{at}: plateau count");
                    let rebuilt: Vec<(u64, u64)> = shapes[..below]
                        .iter()
                        .chain(&streamed)
                        .chain(&shapes[below..])
                        .map(key)
                        .collect();
                    assert_eq!(rebuilt, whole, "{at}: plan order");
                }
            }
        }
    }

    /// A plateau holding every shape leaves nothing to store, and a passed
    /// deadline ends the scan.
    #[test]
    fn a_split_plan_stores_nothing_off_an_all_plateau_space() {
        let app = Application::independent(&[(0.5, 0.05); 9]);
        let classes = WeightClasses::of(&app);
        let bounder = ShapeBounder::new(&app, ShapeObjective::Period(CommModel::Overlap));
        let ShapeScan::Planned {
            shapes,
            plateau,
            pruned,
        } = split_shape_plan(&classes, Some(&bounder), 1.0, 1.0, None)
        else {
            panic!("no deadline was set");
        };
        assert_eq!((shapes.len(), plateau, pruned), (0, 719, 0));
        assert_eq!(shapes.capacity(), 0, "no fill pass, no reservation");
        let past = std::time::Instant::now();
        assert!(matches!(
            split_shape_plan(&classes, Some(&bounder), 1.0, 1.0, Some(past)),
            ShapeScan::DeadlineExpired
        ));
    }

    #[test]
    fn shape_bounds_lower_bound_every_representative_of_the_shape() {
        let app = classed_app(&[3, 2]);
        let classes = WeightClasses::of(&app);
        let reps = classed_forest_representatives(&classes, usize::MAX).unwrap();
        for model in [CommModel::Overlap, CommModel::InOrder, CommModel::OutOrder] {
            let bounder = ShapeBounder::new(&app, ShapeObjective::Period(model));
            let ShapeScan::Planned { shapes, .. } =
                bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
            else {
                panic!("no deadline was set");
            };
            assert!(
                shapes.windows(2).all(|w| w[0].bound <= w[1].bound),
                "{model}: shapes are bound-sorted"
            );
            for rep in &reps {
                let code = ShapePlan::encode(&levels_of(&rep.parents), 0.0).code;
                let shape = shapes
                    .iter()
                    .find(|s| s.code == code)
                    .expect("every representative's shape is planned");
                let graph = rep.member_graph(&classes).unwrap();
                let value = crate::metrics::PlanMetrics::compute(&app, &graph)
                    .unwrap()
                    .period_lower_bound(model);
                assert!(
                    shape.bound <= value * (1.0 + 1e-9),
                    "{model}: shape bound {} exceeds representative value {value}",
                    shape.bound
                );
            }
        }
        // Latency: the critical-path floor may exceed the partial-metrics
        // latency bound of a full assignment (that bound omits sibling
        // serialisation offsets), so admissibility is asserted against the
        // exact optimal one-port tree latency — Algorithm 1's recurrence,
        // implemented locally since fsw_core cannot see the scheduler.
        fn optimal_tree_latency(app: &Application, graph: &ExecutionGraph) -> f64 {
            fn sub(app: &Application, graph: &ExecutionGraph, node: usize) -> f64 {
                let sigma = app.selectivity(node);
                let mut subs: Vec<f64> = graph
                    .succs(node)
                    .iter()
                    .map(|&c| sub(app, graph, c as usize))
                    .collect();
                if subs.is_empty() {
                    return 1.0 + app.cost(node) + sigma;
                }
                subs.sort_by(|a, b| b.total_cmp(a));
                let tail = subs
                    .iter()
                    .enumerate()
                    .map(|(p, l)| p as f64 + l)
                    .fold(0.0f64, f64::max);
                1.0 + app.cost(node) + sigma * tail
            }
            let mut best = 0.0f64;
            for root in graph.entry_nodes() {
                best = best.max(sub(app, graph, root));
            }
            best
        }
        let bounder = ShapeBounder::new(&app, ShapeObjective::Latency);
        let ShapeScan::Planned { shapes, .. } =
            bound_ordered_shape_plan(&classes, Some(&bounder), f64::INFINITY, None)
        else {
            panic!("no deadline was set");
        };
        for rep in &reps {
            let code = ShapePlan::encode(&levels_of(&rep.parents), 0.0).code;
            let shape = shapes
                .iter()
                .find(|s| s.code == code)
                .expect("planned shape");
            let graph = rep.member_graph(&classes).unwrap();
            let value = optimal_tree_latency(&app, &graph);
            assert!(
                shape.bound <= value * (1.0 + 1e-9),
                "latency shape bound {} exceeds optimal latency {value}",
                shape.bound
            );
        }
    }

    #[test]
    fn classed_orbits_tile_the_labelled_space_for_every_partition() {
        // One-class partitions first: one representative per A000081 shape.
        let one_class = (1..=8).map(|n| vec![n]);
        for sizes in one_class.chain([
            vec![2usize, 3],
            vec![1, 1, 3],
            vec![3, 3],
            vec![1, 2, 2, 1],
            vec![4, 2, 1],
        ]) {
            let n: usize = sizes.iter().sum();
            let classes = WeightClasses::of(&classed_app(&sizes));
            let reps = classed_forest_representatives(&classes, usize::MAX).unwrap();
            let covered: u128 = reps.iter().map(|r| r.orbit).sum();
            assert_eq!(covered, labelled_forests(n), "{sizes:?}: Σ orbit sizes");
            if sizes.len() == 1 {
                assert_eq!(reps.len() as u128, forest_classes(n), "{sizes:?}: shapes");
            }
            // Representatives are pairwise distinct (shape, colouring) pairs
            // over preorder positions: parents precede their children.
            let mut seen = std::collections::HashSet::new();
            for rep in &reps {
                assert!(
                    seen.insert((rep.parents.clone(), rep.classes.clone())),
                    "{sizes:?}: duplicate representative"
                );
                for (k, &p) in rep.parents.iter().enumerate() {
                    assert!(p.is_none_or(|p| p < k), "{sizes:?}: parent {p:?} of {k}");
                }
                // Colour multiset matches the partition.
                let mut counts = vec![0usize; classes.class_count()];
                for &c in &rep.classes {
                    counts[c] += 1;
                }
                assert_eq!(counts, sizes, "{sizes:?}: colour multiset");
            }
        }
    }

    #[test]
    fn classed_form_maps_every_labelled_forest_to_a_generated_representative() {
        // Enumerate every labelled forest on 5 nodes under a one-class and a
        // 2+3 partition, canonicalise with the class-aware form, and tally
        // per representative: tallies must equal the generator's orbit sizes.
        #[allow(clippy::type_complexity)]
        fn walk(
            k: usize,
            n: usize,
            classes: &WeightClasses,
            parents: &mut Vec<Option<ServiceId>>,
            tally: &mut std::collections::HashMap<(Vec<Option<ServiceId>>, Vec<usize>), u128>,
        ) {
            if k == n {
                if let Ok(graph) = ExecutionGraph::from_parents(parents) {
                    let rep = canonical_classed_form(classes, &graph).expect("forest");
                    *tally.entry((rep.parents, rep.classes)).or_insert(0) += 1;
                }
                return;
            }
            for p in std::iter::once(None).chain((0..n).filter(|&p| p != k).map(Some)) {
                parents[k] = p;
                walk(k + 1, n, classes, parents, tally);
                parents[k] = None;
            }
        }
        for sizes in [vec![5usize], vec![2, 3]] {
            let classes = WeightClasses::of(&classed_app(&sizes));
            let n = classes.n();
            let mut tally = std::collections::HashMap::new();
            walk(0, n, &classes, &mut vec![None; n], &mut tally);
            let reps = classed_forest_representatives(&classes, usize::MAX).unwrap();
            assert_eq!(
                reps.len(),
                tally.len(),
                "{sizes:?}: one representative per orbit"
            );
            for rep in &reps {
                assert_eq!(
                    tally
                        .get(&(rep.parents.clone(), rep.classes.clone()))
                        .copied(),
                    Some(rep.orbit),
                    "{sizes:?}: orbit of {:?}/{:?}",
                    rep.parents,
                    rep.classes
                );
            }
        }
    }

    #[test]
    fn classed_form_is_invariant_under_class_preserving_relabellings_only() {
        // Classes {0, 1} and {2, 3}: swapping within a class is invisible,
        // swapping across classes is not.
        let app = Application::independent(&[(1.0, 0.5), (1.0, 0.5), (2.0, 0.8), (2.0, 0.8)]);
        let classes = WeightClasses::of(&app);
        let chain = ExecutionGraph::from_edges(4, &[(0, 2), (2, 1)]).unwrap();
        let class_swapped = ExecutionGraph::from_edges(4, &[(1, 3), (3, 0)]).unwrap();
        let cross_swapped = ExecutionGraph::from_edges(4, &[(2, 0), (0, 3)]).unwrap();
        let c1 = canonical_classed_form(&classes, &chain).unwrap();
        let c2 = canonical_classed_form(&classes, &class_swapped).unwrap();
        let c3 = canonical_classed_form(&classes, &cross_swapped).unwrap();
        assert_eq!(c1, c2, "class-preserving relabelling");
        assert_ne!(
            (&c1.parents, &c1.classes),
            (&c3.parents, &c3.classes),
            "cross-class relabelling changes the coloured orbit"
        );
        // Idempotent: the canonical member canonicalises to itself.
        let member = c1.member_graph(&classes).unwrap();
        let again = canonical_classed_form(&classes, &member).unwrap();
        assert_eq!(c1, again);
        // Non-forests are rejected.
        let join = ExecutionGraph::from_edges(4, &[(0, 2), (1, 2)]).unwrap();
        assert!(matches!(
            canonical_classed_form(&classes, &join),
            Err(CoreError::NotAForest)
        ));
    }

    #[test]
    fn service_assignment_is_class_consistent_and_deterministic() {
        let app = Application::independent(&[(1.0, 0.5), (2.0, 0.8), (1.0, 0.5), (2.0, 0.8)]);
        let classes = WeightClasses::of(&app);
        // Positions coloured 1, 0, 0, 1 receive the smallest unused ids of
        // their classes in order: 1, 0, 2, 3.
        let assignment = classes.service_assignment(&[1, 0, 0, 1]).unwrap();
        assert_eq!(assignment, vec![1, 0, 2, 3]);
        for (pos, &k) in assignment.iter().enumerate() {
            assert_eq!(classes.class_of(k), [1, 0, 0, 1][pos]);
        }
        // A colour multiset that does not match the partition is rejected.
        assert!(classes.service_assignment(&[0, 0, 0, 1]).is_none());
        assert!(classes.service_assignment(&[0, 1]).is_none());
    }

    #[test]
    fn count_only_pass_matches_the_enumerated_class_count() {
        for sizes in [
            vec![5usize],
            vec![2, 3],
            vec![1, 1, 3],
            vec![3, 3],
            vec![1, 2, 2, 1],
            vec![4, 2, 1],
            vec![2, 2, 2],
            vec![1, 1, 1, 1],
            vec![8],
            vec![4, 4],
        ] {
            let classes = WeightClasses::of(&classed_app(&sizes));
            let reps = classed_forest_representatives(&classes, usize::MAX).unwrap();
            assert_eq!(
                classed_class_count(&classes, u128::MAX),
                Some(reps.len() as u128),
                "{sizes:?}"
            );
        }
        // Uniform partitions degenerate to the A000081 shape count.
        for n in 1..=9 {
            let classes = WeightClasses::of(&classed_app(&[n]));
            assert_eq!(
                classed_class_count(&classes, u128::MAX),
                Some(forest_classes(n)),
                "uniform n={n}"
            );
        }
    }

    /// Coloured-class counts at sizes the materialised oracle cannot reach,
    /// pinned to the values of the original dense-exponent counter, with
    /// the per-shape colourings of the shape plan summing to the same total.
    #[test]
    fn count_only_pass_is_pinned_beyond_the_materialised_oracle() {
        for (sizes, pinned) in [
            (vec![7usize, 6], 26_393_378u128),
            (vec![6, 6], 5_597_060),
            (vec![4, 4, 4], 170_877_725),
            (vec![5, 4, 3], 138_988_908),
            (vec![10, 3], 5_377_756),
        ] {
            let classes = WeightClasses::of(&classed_app(&sizes));
            assert_eq!(
                classed_class_count(&classes, u128::MAX),
                Some(pinned),
                "{sizes:?}: count"
            );
            let ShapeScan::Planned { shapes, .. } =
                bound_ordered_shape_plan(&classes, None, f64::INFINITY, None)
            else {
                panic!("{sizes:?}: no deadline was set");
            };
            // Walking these counts is out of a unit test's reach, so each
            // planned shape's colourings are read off a fresh counter.
            let mut counter = ColourCounter::new(&classes);
            let mut levels = Vec::new();
            let per_shape: u128 = shapes
                .iter()
                .map(|s| {
                    s.decode_into(&mut levels);
                    counter.forest_colorings(&levels)
                })
                .sum();
            assert_eq!(per_shape, pinned, "{sizes:?}: Σ shape colourings");
        }
    }

    #[test]
    fn count_only_pass_respects_the_cap_and_deadline() {
        let classes = WeightClasses::of(&classed_app(&[2, 3]));
        let exact = classed_class_count(&classes, u128::MAX).unwrap();
        assert_eq!(classed_class_count(&classes, exact), Some(exact));
        assert_eq!(classed_class_count(&classes, exact - 1), None);
        assert_eq!(
            classed_class_count_within(&classes, exact - 1, None),
            ClassedCount::ExceedsCap
        );
        let expired = Some(std::time::Instant::now() - std::time::Duration::from_millis(1));
        assert_eq!(
            classed_class_count_within(&classes, u128::MAX, expired),
            ClassedCount::DeadlineExpired
        );
    }

    #[test]
    fn singleton_heavy_partitions_bypass_the_count_pass() {
        // One duplicated weight plus sixteen distinct singletons: the dense
        // exponent space (3 · 2^16) dwarfs COUNT_DENSE_LIMIT, so the count
        // pass must refuse instantly and generation must fall back to the
        // bounded materialise-until-cap behaviour instead of allocating
        // gigabyte-scale polynomials.
        let mut specs = vec![(1.0, 0.5), (1.0, 0.5)];
        for k in 0..16 {
            specs.push((2.0 + k as f64, 0.9));
        }
        let classes = WeightClasses::of(&Application::independent(&specs));
        let started = std::time::Instant::now();
        assert_eq!(
            classed_class_count_within(&classes, u128::MAX, None),
            ClassedCount::Intractable
        );
        assert!(classed_forest_representatives(&classes, 10_000).is_none());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(5),
            "wide partitions must not pay for the count pass"
        );
    }

    #[test]
    fn oversized_coloured_spaces_are_rejected_in_shape_time() {
        // A 3-class space at n = 10 holds far more than 100k coloured
        // classes; the count-only guard must reject the cap without
        // materialising representatives (this test is fast *because* the
        // pass is O(shapes) — the old behaviour allocated every
        // representative up to the cap first).
        let classes = WeightClasses::of(&classed_app(&[3, 3, 4]));
        let started = std::time::Instant::now();
        assert!(classed_forest_representatives(&classes, 100_000).is_none());
        assert!(classed_class_count(&classes, 100_000).is_none());
        assert!(
            started.elapsed() < std::time::Duration::from_secs(2),
            "count-only cap check must not walk the coloured space"
        );
    }

    #[test]
    fn classed_representative_cap_aborts_generation() {
        let classes = WeightClasses::of(&classed_app(&[2, 3]));
        let all = classed_forest_representatives(&classes, usize::MAX).unwrap();
        assert!(all.len() > 4);
        assert!(classed_forest_representatives(&classes, 4).is_none());
        assert_eq!(
            classed_forest_representatives(&classes, all.len())
                .unwrap()
                .len(),
            all.len()
        );
    }

    #[test]
    fn weight_classes_report_sizes_symmetry_and_group_order() {
        let a = WeightClasses::of(&classed_app(&[2, 3]));
        assert_eq!(a.sizes(), &[2, 3]);
        assert!(a.has_symmetry());
        assert!(!WeightClasses::of(&classed_app(&[1, 1, 1])).has_symmetry());
        assert_eq!(a.group_order(), 2 * 6);
    }

    #[test]
    fn canonical_form_is_isomorphism_invariant_and_idempotent() {
        let one_class = WeightClasses::of(&classed_app(&[4]));
        let form = |g: &ExecutionGraph| canonical_classed_form(&one_class, g).map(|c| c.parents);
        let chain = ExecutionGraph::from_edges(4, &[(0, 1), (1, 2)]).unwrap();
        let relabelled = ExecutionGraph::from_edges(4, &[(3, 2), (2, 0)]).unwrap();
        let c1 = form(&chain).unwrap();
        let c2 = form(&relabelled).unwrap();
        assert_eq!(c1, c2);
        let again = form(&ExecutionGraph::from_parents(&c1).unwrap()).unwrap();
        assert_eq!(c1, again);
        // Non-forests are rejected.
        let join = ExecutionGraph::from_edges(3, &[(0, 2), (1, 2)]).unwrap();
        let three = WeightClasses::of(&classed_app(&[3]));
        assert!(matches!(
            canonical_classed_form(&three, &join),
            Err(CoreError::NotAForest)
        ));
    }
}
