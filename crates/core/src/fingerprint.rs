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
//!   wrong plan).  The weight-class partition signature
//!   ([`crate::WeightClasses::signature`]) is implied: the canonical weight
//!   vector determines the partition bit-for-bit;
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
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct AppFingerprint {
    /// `(cost bits, selectivity bits)` per service, in canonical order.
    services: Vec<(u64, u64)>,
    /// Precedence constraints over canonical labels, sorted; always empty
    /// when `collapsed`.
    constraints: Vec<(ServiceId, ServiceId)>,
    /// `true` when the fingerprint identifies the application up to service
    /// permutation (unconstrained apps), `false` for the exact labelling.
    collapsed: bool,
}

impl AppFingerprint {
    /// Number of services the fingerprinted application holds.
    pub fn n(&self) -> usize {
        self.services.len()
    }

    /// `true` when the fingerprint identifies the application up to a
    /// service permutation (rather than exactly).
    pub fn collapsed(&self) -> bool {
        self.collapsed
    }

    /// A compact 64-bit digest of the fingerprint (FNV-1a over the content),
    /// for display and statistics.  Unlike the fingerprint itself this *can*
    /// collide; never key a cache by it alone.
    pub fn digest(&self) -> u64 {
        let words = [self.collapsed as u64, self.services.len() as u64]
            .into_iter()
            .chain(self.services.iter().flat_map(|&(c, s)| [c, s]))
            .chain(
                self.constraints
                    .iter()
                    .flat_map(|&(from, to)| [from as u64, to as u64]),
            );
        crate::canonical::fnv1a(words)
    }
}

/// An application relabelled into canonical service order, together with the
/// permutation connecting it to the tenant's own labelling.
///
/// For unconstrained applications the canonical order is the stable sort of
/// services by `(cost bits, selectivity bits)`; for constrained applications
/// the canonicalisation is the identity (see [`AppFingerprint`]).
#[derive(Clone, Debug)]
pub struct CanonicalApplication {
    /// The application over canonical labels.
    pub app: Application,
    /// `to_canonical[tenant_id] == canonical_id`.
    pub to_canonical: Vec<ServiceId>,
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
        let key_of = |k: ServiceId| (app.cost(k).to_bits(), app.selectivity(k).to_bits());
        let collapsed = collapse && !app.has_constraints();
        let from_canonical: Vec<ServiceId> = if collapsed {
            let mut order: Vec<ServiceId> = (0..n).collect();
            order.sort_by_key(|&k| key_of(k)); // stable: equal weights keep id order
            order
        } else {
            (0..n).collect()
        };
        let mut to_canonical = vec![0; n];
        for (pos, &k) in from_canonical.iter().enumerate() {
            to_canonical[k] = pos;
        }
        let canonical_app = if collapsed {
            Application::independent(
                &from_canonical
                    .iter()
                    .map(|&k| (app.cost(k), app.selectivity(k)))
                    .collect::<Vec<_>>(),
            )
        } else {
            app.clone()
        };
        let mut constraints: Vec<(ServiceId, ServiceId)> = canonical_app.constraints().to_vec();
        constraints.sort_unstable();
        let fingerprint = AppFingerprint {
            services: from_canonical.iter().map(|&k| key_of(k)).collect(),
            constraints,
            collapsed,
        };
        CanonicalApplication {
            app: canonical_app,
            to_canonical,
            from_canonical,
            fingerprint,
        }
    }

    /// `true` when canonical and tenant labellings coincide.
    pub fn is_identity(&self) -> bool {
        self.to_canonical.iter().enumerate().all(|(k, &p)| k == p)
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
    /// inverse of [`CanonicalApplication::graph_to_tenant`]).
    pub fn graph_to_canonical(&self, graph: &ExecutionGraph) -> CoreResult<ExecutionGraph> {
        graph.relabelled(&self.to_canonical)
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
        assert_eq!(ca.fingerprint.digest(), cb.fingerprint.digest());
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
        assert_eq!(canon.to_canonical, vec![2, 0, 1]);
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
