//! Streaming serving workloads: tenants and requests arriving over time.
//!
//! The serving layer (`fsw_serve`) is exercised by *traces*: a timeline of
//! tenants being admitted, issuing plan requests, and mutating their
//! service sets (service arrivals, departures, weight changes).  This
//! module generates such traces deterministically from a seeded RNG.
//!
//! The generator's tenants are drawn from a small pool of **templates** —
//! exactly the fleet regime the fingerprint store exploits: several tenants
//! deploy the same replicated predicate set (sometimes as a permutation of
//! each other), so their requests collapse onto one canonical fingerprint
//! until a mutation makes a tenant unique.

use rand::Rng;

/// One mutation or request in a trace, all indices in the tenant's own
/// current labelling.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEventKind {
    /// The tenant joins the fleet with this service set.
    Admit {
        /// `(cost, selectivity)` per service.
        services: Vec<(f64, f64)>,
    },
    /// The tenant asks for a plan of its current service set.
    Request,
    /// A service joins the tenant's set.
    Arrive {
        /// Cost of the new service.
        cost: f64,
        /// Selectivity of the new service.
        selectivity: f64,
    },
    /// Service `service` leaves the tenant's set (current labelling; later
    /// ids shift down).
    Depart {
        /// The departing service.
        service: usize,
    },
    /// Service `service` changes weights in place.
    Reweight {
        /// The re-weighted service.
        service: usize,
        /// Its new cost.
        cost: f64,
        /// Its new selectivity.
        selectivity: f64,
    },
}

/// One timestamped trace event.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEvent {
    /// The step the event happens at (events of one step form one batch).
    pub step: usize,
    /// The tenant the event belongs to.
    pub tenant: usize,
    /// What happens.
    pub kind: TraceEventKind,
}

/// A deterministic serving trace (see [`serving_trace`]).
#[derive(Clone, Debug)]
pub struct ArrivalTrace {
    /// Events in timeline order (non-decreasing `step`).
    pub events: Vec<TraceEvent>,
    /// Number of tenants admitted.
    pub tenants: usize,
    /// Number of steps the trace spans.
    pub steps: usize,
}

impl ArrivalTrace {
    /// The applications the trace admits, in admission order (one per
    /// tenant, before any mutation) — the single place the `Admit`
    /// encoding is turned into [`fsw_core::Application`]s.
    pub fn admitted_apps(&self) -> Vec<fsw_core::Application> {
        self.events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Admit { services } => {
                    Some(fsw_core::Application::independent(services))
                }
                _ => None,
            })
            .collect()
    }

    /// Number of [`TraceEventKind::Request`] events in the trace.
    pub fn request_count(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e.kind, TraceEventKind::Request))
            .count()
    }
}

/// Shape of a generated trace.
#[derive(Clone, Copy, Debug)]
pub struct TraceConfig {
    /// Tenants admitted over the first steps of the trace.
    pub tenants: usize,
    /// Tenants admitted per step of the admission phase: admitting several
    /// at once puts their first requests into one service batch, which is
    /// what exercises the in-flight fingerprint dedup.
    pub admissions_per_step: usize,
    /// Steps after the admission phase; each step issues a batch of
    /// requests and occasionally a mutation.
    pub steps: usize,
    /// Distinct application templates the tenants draw from (several
    /// tenants per template is what makes the fingerprint store pay).
    pub templates: usize,
    /// Services per template (kept small enough that every solve is
    /// exhaustive under the default budget).
    pub services_per_tenant: usize,
    /// Hard cap on a tenant's service count: an arrival that would exceed
    /// it is generated as a reweight instead, keeping every solve of the
    /// trace inside the exhaustive enumeration budget.
    pub max_services: usize,
    /// Probability that a step mutates one tenant's service set before the
    /// step's requests fire.
    pub mutation_rate: f64,
    /// Tenants issuing a request per step (cycled deterministically).
    pub requests_per_step: usize,
    /// Every `jumbo_every`-th tenant (0 = none) is admitted as a **jumbo**:
    /// an oversized application of [`Self::jumbo_services`] all-distinct
    /// weights, whose raw plan space defeats every symmetry reduction —
    /// overload-scenario fodder for the serving layer's admission control.
    /// Jumbo tenants are never mutated (their size is the point).
    pub jumbo_every: usize,
    /// Service count of jumbo tenants (weights generated all-distinct and
    /// deterministic per tenant, so each jumbo is its own fingerprint).
    pub jumbo_services: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            tenants: 12,
            admissions_per_step: 6,
            steps: 30,
            templates: 4,
            services_per_tenant: 5,
            max_services: 7,
            mutation_rate: 0.3,
            requests_per_step: 4,
            jumbo_every: 0,
            jumbo_services: 24,
        }
    }
}

/// Generates a serving trace: `tenants` admissions (one per early step,
/// each immediately followed by that tenant's first request), then `steps`
/// rounds of request batches with occasional mutations.  Deterministic for
/// a given RNG state and config.
///
/// Templates are skewed query workloads (a few cheap selective predicates,
/// a tail of expensive permissive ones, every service's weights drawn
/// independently, like [`crate::skewed_query_optimization`]), and tenants
/// of one template deploy it as a rotated permutation of each other: the
/// canonical fingerprint (`fsw_core::AppFingerprint`) collapses the
/// rotations onto one store entry until a mutation individualises a
/// tenant.  Distinct per-service weights also keep the plan searches on
/// the labelled enumeration path, where warm-started re-plans measurably
/// out-prune cold solves.
pub fn serving_trace<R: Rng + ?Sized>(config: &TraceConfig, rng: &mut R) -> ArrivalTrace {
    assert!(config.tenants >= 1 && config.templates >= 1);
    assert!(config.services_per_tenant >= 3, "need room for departures");
    assert!(config.max_services >= config.services_per_tenant);
    assert!(
        config.jumbo_every == 0 || config.jumbo_services >= 3,
        "jumbo tenants need at least 3 services"
    );
    let is_jumbo =
        |tenant: usize| config.jumbo_every > 0 && (tenant + 1).is_multiple_of(config.jumbo_every);
    // Template pool: per-service independent draws, cheap/selective head
    // and expensive/permissive tail.
    let templates: Vec<Vec<(f64, f64)>> = (0..config.templates)
        .map(|_| {
            let cheap_count = 1 + config.services_per_tenant / 3;
            (0..config.services_per_tenant)
                .map(|k| {
                    if k < cheap_count {
                        (rng.gen_range(0.1..0.5), rng.gen_range(0.05..0.3))
                    } else {
                        (rng.gen_range(5.0..30.0), rng.gen_range(0.6..0.99))
                    }
                })
                .collect()
        })
        .collect();
    let admissions_per_step = config.admissions_per_step.max(1);
    let mut events = Vec::new();
    // Tenant k deploys template k % templates, rotated by its index within
    // the template group — a permutation the canonical fingerprint undoes.
    // Admissions arrive in groups, so same-template tenants land their
    // first requests in one batch (the in-flight dedup path).
    let mut sizes = Vec::with_capacity(config.tenants);
    for tenant in 0..config.tenants {
        // Jumbo tenants deploy an oversized all-distinct service set
        // (deterministic per tenant, no RNG consumed — adding jumbos to a
        // config never perturbs the other tenants' draws).
        let services: Vec<(f64, f64)> = if is_jumbo(tenant) {
            (0..config.jumbo_services)
                .map(|k| {
                    (
                        10.0 + k as f64 + tenant as f64 * 1e-3,
                        0.30 + 0.6 * k as f64 / config.jumbo_services as f64,
                    )
                })
                .collect()
        } else {
            let template = &templates[tenant % config.templates];
            let rotation = tenant / config.templates;
            (0..template.len())
                .map(|k| template[(k + rotation) % template.len()])
                .collect()
        };
        sizes.push(services.len());
        let step = tenant / admissions_per_step;
        events.push(TraceEvent {
            step,
            tenant,
            kind: TraceEventKind::Admit { services },
        });
        events.push(TraceEvent {
            step,
            tenant,
            kind: TraceEventKind::Request,
        });
    }
    // Steady phase: per step, maybe one mutation (followed by the mutated
    // tenant's request), then a deterministic cycle of tenant requests.
    let base = config.tenants.div_ceil(admissions_per_step);
    // Mutations only ever hit non-jumbo tenants (with no jumbos configured
    // this is the identity mapping, so existing seeds replay unchanged).
    let mutable: Vec<usize> = (0..config.tenants).filter(|&t| !is_jumbo(t)).collect();
    for round in 0..config.steps {
        let step = base + round;
        if !mutable.is_empty() && rng.gen::<f64>() < config.mutation_rate {
            let tenant = mutable[rng.gen_range(0..mutable.len())];
            let n = sizes[tenant];
            let kind = match rng.gen_range(0..3u32) {
                0 if n < config.max_services => {
                    sizes[tenant] += 1;
                    TraceEventKind::Arrive {
                        cost: rng.gen_range(0.5..8.0),
                        selectivity: rng.gen_range(0.2..0.9),
                    }
                }
                1 if n > 3 => {
                    sizes[tenant] -= 1;
                    TraceEventKind::Depart {
                        service: rng.gen_range(0..n),
                    }
                }
                _ => TraceEventKind::Reweight {
                    service: rng.gen_range(0..n),
                    cost: rng.gen_range(0.5..8.0),
                    selectivity: rng.gen_range(0.2..0.9),
                },
            };
            events.push(TraceEvent { step, tenant, kind });
            events.push(TraceEvent {
                step,
                tenant,
                kind: TraceEventKind::Request,
            });
        }
        for slot in 0..config.requests_per_step {
            let tenant = (round * config.requests_per_step + slot) % config.tenants;
            events.push(TraceEvent {
                step,
                tenant,
                kind: TraceEventKind::Request,
            });
        }
    }
    ArrivalTrace {
        events,
        tenants: config.tenants,
        steps: base + config.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::{Application, CanonicalApplication};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn traces_are_deterministic_and_well_formed() {
        let config = TraceConfig::default();
        let a = serving_trace(&config, &mut StdRng::seed_from_u64(99));
        let b = serving_trace(&config, &mut StdRng::seed_from_u64(99));
        assert_eq!(a.events, b.events, "same seed, same trace");
        assert_eq!(a.tenants, config.tenants);
        assert!(a.request_count() >= config.tenants + config.steps * config.requests_per_step);
        // Steps are non-decreasing and every tenant is admitted before its
        // first other event.
        let mut admitted = vec![false; a.tenants];
        let mut last_step = 0;
        for event in &a.events {
            assert!(event.step >= last_step);
            last_step = event.step;
            match &event.kind {
                TraceEventKind::Admit { services } => {
                    assert!(!admitted[event.tenant]);
                    assert!(services.len() >= 3);
                    admitted[event.tenant] = true;
                }
                _ => assert!(admitted[event.tenant], "tenant used before admission"),
            }
        }
        assert!(admitted.iter().all(|&x| x));
    }

    #[test]
    fn same_template_tenants_share_a_canonical_fingerprint() {
        let config = TraceConfig {
            tenants: 8,
            templates: 4,
            ..TraceConfig::default()
        };
        let trace = serving_trace(&config, &mut StdRng::seed_from_u64(7));
        let apps: Vec<Application> = trace
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                TraceEventKind::Admit { services } => Some(Application::independent(services)),
                _ => None,
            })
            .collect();
        assert_eq!(apps.len(), 8);
        // Tenant k and tenant k + templates share a template (rotated).
        for k in 0..4 {
            let a = CanonicalApplication::of(&apps[k]).fingerprint;
            let b = CanonicalApplication::of(&apps[k + 4]).fingerprint;
            assert_eq!(a, b, "template {k}: rotated twins must collapse");
        }
    }

    #[test]
    fn jumbo_tenants_are_oversized_distinct_and_never_mutated() {
        let config = TraceConfig {
            tenants: 8,
            templates: 4,
            steps: 100,
            mutation_rate: 0.9,
            jumbo_every: 4,
            jumbo_services: 24,
            ..TraceConfig::default()
        };
        let trace = serving_trace(&config, &mut StdRng::seed_from_u64(11));
        let jumbos = [3usize, 7];
        for event in &trace.events {
            match &event.kind {
                TraceEventKind::Admit { services } if jumbos.contains(&event.tenant) => {
                    assert_eq!(services.len(), 24);
                    // All-distinct weights: no symmetry class to collapse.
                    let mut costs: Vec<u64> = services.iter().map(|s| s.0.to_bits()).collect();
                    costs.sort_unstable();
                    costs.dedup();
                    assert_eq!(costs.len(), 24);
                }
                TraceEventKind::Arrive { .. }
                | TraceEventKind::Depart { .. }
                | TraceEventKind::Reweight { .. } => {
                    assert!(
                        !jumbos.contains(&event.tenant),
                        "jumbo tenants never mutate"
                    );
                }
                _ => {}
            }
        }
        // Distinct jumbo tenants have distinct fingerprints.
        let apps = trace.admitted_apps();
        assert_ne!(
            CanonicalApplication::of(&apps[3]).fingerprint,
            CanonicalApplication::of(&apps[7]).fingerprint
        );
        // Adding jumbos must not perturb the non-jumbo tenants' draws: the
        // same seed without jumbos admits the same template deployments.
        let plain = serving_trace(
            &TraceConfig {
                jumbo_every: 0,
                ..config
            },
            &mut StdRng::seed_from_u64(11),
        );
        let plain_apps = plain.admitted_apps();
        for tenant in (0..8).filter(|t| !jumbos.contains(t)) {
            assert_eq!(
                CanonicalApplication::of(&apps[tenant]).fingerprint,
                CanonicalApplication::of(&plain_apps[tenant]).fingerprint,
                "tenant {tenant} drifted when jumbos were added"
            );
        }
    }

    #[test]
    fn departures_never_underflow_the_service_set() {
        let config = TraceConfig {
            steps: 200,
            mutation_rate: 0.9,
            ..TraceConfig::default()
        };
        let trace = serving_trace(&config, &mut StdRng::seed_from_u64(3));
        let mut sizes = vec![0usize; trace.tenants];
        for event in &trace.events {
            match &event.kind {
                TraceEventKind::Admit { services } => sizes[event.tenant] = services.len(),
                TraceEventKind::Arrive { .. } => sizes[event.tenant] += 1,
                TraceEventKind::Depart { service } => {
                    assert!(*service < sizes[event.tenant]);
                    sizes[event.tenant] -= 1;
                    assert!(sizes[event.tenant] >= 3);
                }
                TraceEventKind::Reweight { service, .. } => {
                    assert!(*service < sizes[event.tenant]);
                }
                TraceEventKind::Request => {}
            }
        }
    }
}
