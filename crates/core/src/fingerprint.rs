//! Application fingerprints: the canonical identity of a planning problem.
//!
//! A serving tier sees a *fleet* of tenant applications, many of which are
//! the same problem wearing different labels: a replicated micro-service
//! deployed behind twelve load balancers produces twelve applications whose
//! services are permutations of one weight multiset.  After the
//! canonicalisation of [`crate::canonical`], such tenants are **identical**
//! — same weight-class partition, same orbit space, same optimum — so one
//! solve can serve all of them.
//!
//! This module provides the key that makes the collapse safe to build a
//! cache on:
//!
//! * [`AppFingerprint`] — a content-complete canonical identity of an
//!   application.  It is *not* a hash: it carries the full canonical weight
//!   vector and constraint set, so fingerprint equality **is** problem
//!   equality (a cache keyed by it can never serve a colliding tenant the
//!   wrong plan).  The weight-class partition ([`crate::WeightClasses`])
//!   is implied: the canonical weight vector determines the partition
//!   bit-for-bit;
//! * [`CanonicalApplication`] — the canonical relabelling itself, plus the
//!   permutation connecting tenant labels to canonical labels, so plans
//!   solved on the canonical application can be mapped back to each tenant
//!   ([`CanonicalApplication::graph_to_tenant`]).
//!
//! ### When do two differently-labelled tenants collapse?
//!
//! Only **unconstrained** applications are canonicalised over service
//! permutations (services stable-sorted by their weight bit patterns):
//! precedence constraints distinguish services regardless of weights, so
//! constrained applications keep their exact labelling and collapse only
//! with bit-identical twins.  Whether a *solver* may serve a relabelled
//! tenant from a collapsed fingerprint additionally depends on the solve
//! path being label-invariant — that gate lives with the serving layer
//! (`fsw_serve`), next to the solvers whose invariance it asserts; this
//! module only guarantees that equal fingerprints describe
//! permutation-equivalent problems.

use crate::error::CoreResult;
use crate::graph::ExecutionGraph;
use crate::service::{Application, ServiceId};

/// The canonical identity of an application: its weight multiset in
/// canonical order plus its precedence constraints.
///
/// Equality and hashing cover the full content, so a fingerprint-keyed map
/// can never confuse two distinct problems.  Two applications share a
/// fingerprint iff
///
/// * both are unconstrained and their services are permutations of one
///   weight multiset (bit-exact costs and selectivities), or
/// * both carry constraints and are bit-identical service-for-service,
///   constraint-for-constraint.
///
/// The content is one boxed slice of `u64` words, `8·(1 + 2n + 2c)` bytes
/// for `n` services and `c` constraints:
///
/// ```text
/// words = [ n << 1 | collapsed | cost bits, selectivity bits per service | from, to per constraint ]
/// ```
///
/// The header word fixes where the services end, so the words of two
/// fingerprints can never alias across that boundary.  Services are in
/// canonical order and the constraints, over canonical labels, sorted;
/// a collapsed fingerprint has none.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AppFingerprint {
    words: Box<[u64]>,
}

impl AppFingerprint {
    /// Number of services the fingerprinted application holds.
    pub fn n(&self) -> usize {
        (self.words[0] >> 1) as usize
    }

    /// `true` when the fingerprint identifies the application up to a
    /// service permutation (rather than exactly).
    pub fn collapsed(&self) -> bool {
        self.words[0] & 1 == 1
    }
}

/// An application relabelled into canonical service order, together with the
/// permutation connecting it to the tenant's own labelling (its inverse is
/// built only where a tenant graph is mapped onto canonical labels).
///
/// For unconstrained applications the canonical order is the stable sort of
/// services by `(cost bits, selectivity bits)`; for constrained applications
/// the canonicalisation is the identity (see [`AppFingerprint`]).
#[derive(Clone, Debug)]
pub struct CanonicalApplication {
    /// The application over canonical labels.
    pub app: Application,
    /// `from_canonical[canonical_id] == tenant_id`.
    pub from_canonical: Vec<ServiceId>,
    /// The canonical identity (the cache key).
    pub fingerprint: AppFingerprint,
}

impl CanonicalApplication {
    /// Canonicalises `app`: permutation collapse for unconstrained
    /// applications, exact identity for constrained ones.
    pub fn of(app: &Application) -> Self {
        CanonicalApplication::with_collapse(app, !app.has_constraints())
    }

    /// [`CanonicalApplication::of`] with the permutation collapse forced off
    /// (`collapse = false` keys the tenant by its exact labelling; callers
    /// whose solve path is not label-invariant use this).  Constrained
    /// applications never collapse, whatever `collapse` says.
    pub fn with_collapse(app: &Application, collapse: bool) -> Self {
        let n = app.n();
        let key_of = |k: ServiceId| [app.cost(k).to_bits(), app.selectivity(k).to_bits()];
        let collapsed = collapse && !app.has_constraints();
        let from_canonical: Vec<ServiceId> = if collapsed {
            let mut order: Vec<ServiceId> = (0..n).collect();
            order.sort_by_key(|&k| key_of(k)); // stable: equal weights keep id order
            order
        } else {
            (0..n).collect()
        };
        let canonical_app = if collapsed {
            Application::from_services(from_canonical.iter().map(|&k| *app.service(k)).collect())
        } else {
            app.clone()
        };
        // Collapsed applications have no constraints; the others keep
        // their labels, so theirs are the tenant's own.
        let constraints = canonical_app.constraints();
        let mut words = Vec::with_capacity(1 + 2 * n + 2 * constraints.len());
        words.push(((n as u64) << 1) | u64::from(collapsed));
        words.extend(from_canonical.iter().flat_map(|&k| key_of(k)));
        words.extend(
            constraints
                .iter()
                .flat_map(|&(from, to)| [from as u64, to as u64]),
        );
        words[1 + 2 * n..].as_chunks_mut::<2>().0.sort_unstable();
        let fingerprint = AppFingerprint {
            words: words.into_boxed_slice(),
        };
        CanonicalApplication {
            app: canonical_app,
            from_canonical,
            fingerprint,
        }
    }

    /// `true` when canonical and tenant labellings coincide.
    pub fn is_identity(&self) -> bool {
        self.from_canonical.iter().enumerate().all(|(k, &p)| k == p)
    }

    /// Maps an execution graph over canonical labels back to the tenant's
    /// own labelling (edge `(a, b)` becomes
    /// `(from_canonical[a], from_canonical[b])`).  The relabelled graph has
    /// the same weighted structure, so every structurally label-invariant
    /// metric is preserved bit-for-bit.  One pass, one allocation
    /// ([`ExecutionGraph::relabelled`]); fails only when `graph` is not
    /// over this application's services.
    pub fn graph_to_tenant(&self, graph: &ExecutionGraph) -> CoreResult<ExecutionGraph> {
        graph.relabelled(&self.from_canonical)
    }

    /// Maps a tenant-labelled execution graph onto canonical labels (the
    /// inverse of [`CanonicalApplication::graph_to_tenant`]), through the
    /// inverse of `from_canonical`, which it builds.
    pub fn graph_to_canonical(&self, graph: &ExecutionGraph) -> CoreResult<ExecutionGraph> {
        let mut to_canonical = vec![0; self.from_canonical.len()];
        for (pos, &k) in self.from_canonical.iter().enumerate() {
            to_canonical[k] = pos;
        }
        graph.relabelled(&to_canonical)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::PlanMetrics;
    use crate::model::CommModel;

    #[test]
    fn permuted_unconstrained_tenants_share_a_fingerprint() {
        let a = Application::independent(&[(1.0, 0.5), (2.0, 0.8), (1.0, 0.5)]);
        let b = Application::independent(&[(2.0, 0.8), (1.0, 0.5), (1.0, 0.5)]);
        let ca = CanonicalApplication::of(&a);
        let cb = CanonicalApplication::of(&b);
        assert_eq!(ca.fingerprint, cb.fingerprint);
        assert!(ca.fingerprint.collapsed());
        assert_eq!(ca.app, cb.app, "canonical applications coincide");
        // A different weight multiset gets a different fingerprint.
        let c = Application::independent(&[(2.0, 0.8), (2.0, 0.8), (1.0, 0.5)]);
        assert_ne!(CanonicalApplication::of(&c).fingerprint, ca.fingerprint);
    }

    #[test]
    fn canonical_order_is_a_stable_weight_sort() {
        let app = Application::independent(&[(2.0, 0.8), (1.0, 0.5), (1.0, 0.5)]);
        let canon = CanonicalApplication::of(&app);
        // Sorted by bits: the two (1.0, 0.5) services first, in id order.
        assert_eq!(canon.from_canonical, vec![1, 2, 0]);
        assert_eq!(canon.app.cost(0), 1.0);
        assert_eq!(canon.app.cost(2), 2.0);
        assert!(!canon.is_identity());
        // An already-sorted application is its own canonical form.
        let sorted = Application::independent(&[(1.0, 0.5), (1.0, 0.5), (2.0, 0.8)]);
        assert!(CanonicalApplication::of(&sorted).is_identity());
    }

    #[test]
    fn constrained_applications_never_collapse() {
        let mut a = Application::independent(&[(2.0, 0.8), (1.0, 0.5)]);
        a.add_constraint(0, 1).unwrap();
        let mut b = Application::independent(&[(1.0, 0.5), (2.0, 0.8)]);
        b.add_constraint(1, 0).unwrap();
        let ca = CanonicalApplication::of(&a);
        let cb = CanonicalApplication::of(&b);
        assert!(!ca.fingerprint.collapsed());
        assert!(ca.is_identity() && cb.is_identity());
        // Same problem up to relabelling, but constrained: fingerprints differ.
        assert_ne!(ca.fingerprint, cb.fingerprint);
        // A bit-identical twin matches.
        let twin = CanonicalApplication::of(&a.clone());
        assert_eq!(ca.fingerprint, twin.fingerprint);
    }

    #[test]
    fn collapse_can_be_forced_off() {
        let a = Application::independent(&[(2.0, 0.8), (1.0, 0.5)]);
        let b = Application::independent(&[(1.0, 0.5), (2.0, 0.8)]);
        let ca = CanonicalApplication::with_collapse(&a, false);
        let cb = CanonicalApplication::with_collapse(&b, false);
        assert!(!ca.fingerprint.collapsed());
        assert_ne!(ca.fingerprint, cb.fingerprint);
        assert!(ca.is_identity());
    }

    #[test]
    fn words_never_alias_across_the_services_boundary() {
        // Two services and the constraint 0 → 1 end in the words
        // `…, 0, 1`; a third service of cost bits 0 and selectivity bits 1
        // ends the same way.  Only the header's `n` tells them apart.
        let mut two = Application::independent(&[(2.0, 0.8), (1.0, 0.5)]);
        two.add_constraint(0, 1).unwrap();
        let three = Application::independent(&[(2.0, 0.8), (1.0, 0.5), (0.0, f64::from_bits(1))]);
        let a = CanonicalApplication::of(&two).fingerprint;
        let b = CanonicalApplication::with_collapse(&three, false).fingerprint;
        assert_eq!(a.words[1..], b.words[1..], "the tails alias");
        assert_ne!(a, b);
        assert_eq!((a.n(), b.n()), (2, 3));
    }

    #[test]
    fn graph_relabelling_preserves_weighted_structure() {
        let app = Application::independent(&[(2.0, 0.8), (1.0, 0.5), (3.0, 0.9)]);
        let canon = CanonicalApplication::of(&app);
        // A chain over canonical labels 0 -> 1 -> 2.
        let canonical_graph = ExecutionGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let tenant_graph = canon.graph_to_tenant(&canonical_graph).unwrap();
        // Structural metrics are identical bit-for-bit.
        let canon_metrics = PlanMetrics::compute(&canon.app, &canonical_graph).unwrap();
        let tenant_metrics = PlanMetrics::compute(&app, &tenant_graph).unwrap();
        for model in CommModel::ALL {
            assert_eq!(
                canon_metrics.period_lower_bound(model),
                tenant_metrics.period_lower_bound(model),
            );
        }
        // Round trip.
        let back = canon.graph_to_canonical(&tenant_graph).unwrap();
        assert_eq!(
            back.edges().collect::<Vec<_>>(),
            canonical_graph.edges().collect::<Vec<_>>()
        );
    }
}
