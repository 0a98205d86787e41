//! Services and applications.
//!
//! An [`Application`] is the problem input of the paper: a set of services
//! `C_1 .. C_n`, each with an elementary cost `c_i` and a selectivity `σ_i`,
//! plus a set of precedence constraints `G ⊆ F × F`.
//!
//! Costs are expressed after the normalisation of Section 2.1 of the paper:
//! because the platform is homogeneous we can scale `c_k ← (b / δ0) · (c_k / s)`
//! and let `δ0 = b = s = 1`.  All periods/latencies computed by this workspace
//! are therefore in "normalised time units"; multiply by `δ0 / b` to recover
//! wall-clock values for a concrete platform.

use crate::error::{CoreError, CoreResult};

/// Index of a service inside an [`Application`].
pub type ServiceId = usize;

/// A single service (filter / query / operator) of a filtering workflow.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Service {
    /// Elementary computation cost `c_i` (time to process one unit-size data set).
    pub cost: f64,
    /// Selectivity `σ_i`: the ratio between output and input data size.
    /// `σ_i < 1` shrinks data (a *filter*), `σ_i > 1` expands it.
    pub selectivity: f64,
}

impl Service {
    /// Creates a new service with the given cost and selectivity.
    pub fn new(cost: f64, selectivity: f64) -> Self {
        Service { cost, selectivity }
    }

    /// Returns `true` if this service shrinks (or keeps) the data size.
    pub fn is_filter(&self) -> bool {
        self.selectivity <= 1.0
    }

    /// Returns `true` if this service strictly expands the data size.
    pub fn is_expander(&self) -> bool {
        self.selectivity > 1.0
    }
}

/// A filtering workflow application `A = (F, G)`.
///
/// `F` is the set of services and `G` the set of precedence constraints which
/// must appear (in the transitive closure) in every execution graph.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Application {
    services: Vec<Service>,
    constraints: Vec<(ServiceId, ServiceId)>,
}

impl Application {
    /// Creates an empty application.
    pub fn new() -> Self {
        Application::default()
    }

    /// Creates an application from a list of services, without precedence constraints.
    pub fn from_services(services: Vec<Service>) -> Self {
        Application {
            services,
            constraints: Vec::new(),
        }
    }

    /// Creates an application of independent services from `(cost, selectivity)` pairs.
    pub fn independent(specs: &[(f64, f64)]) -> Self {
        Application::from_services(specs.iter().map(|&(c, s)| Service::new(c, s)).collect())
    }

    /// Adds a service and returns its id.
    pub fn add_service(&mut self, cost: f64, selectivity: f64) -> ServiceId {
        self.services.push(Service::new(cost, selectivity));
        self.services.len() - 1
    }

    /// Adds a precedence constraint `from → to` to `G`.
    ///
    /// Duplicates are ignored.  Fails if either endpoint is out of range or if
    /// the edge is a self-loop.  Cycle detection is performed by [`Application::validate`].
    pub fn add_constraint(&mut self, from: ServiceId, to: ServiceId) -> CoreResult<()> {
        let n = self.services.len();
        if from >= n {
            return Err(CoreError::InvalidService { id: from, n });
        }
        if to >= n {
            return Err(CoreError::InvalidService { id: to, n });
        }
        if from == to {
            return Err(CoreError::SelfLoop { id: from });
        }
        if !self.constraints.contains(&(from, to)) {
            self.constraints.push((from, to));
        }
        Ok(())
    }

    /// Number of services.
    pub fn n(&self) -> usize {
        self.services.len()
    }

    /// Returns `true` if the application has no services.
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Access a service by id.  Panics if out of range.
    pub fn service(&self, id: ServiceId) -> &Service {
        &self.services[id]
    }

    /// Cost `c_i` of a service.
    pub fn cost(&self, id: ServiceId) -> f64 {
        self.services[id].cost
    }

    /// Selectivity `σ_i` of a service.
    pub fn selectivity(&self, id: ServiceId) -> f64 {
        self.services[id].selectivity
    }

    /// All services, in id order.
    pub fn services(&self) -> &[Service] {
        &self.services
    }

    /// The precedence constraints `G`.
    pub fn constraints(&self) -> &[(ServiceId, ServiceId)] {
        &self.constraints
    }

    /// Returns `true` if the application carries at least one precedence constraint.
    pub fn has_constraints(&self) -> bool {
        !self.constraints.is_empty()
    }

    /// Checks that the application is well formed: at least one service,
    /// positive costs, non-negative selectivities, constraint endpoints in
    /// range and an acyclic constraint graph.
    pub fn validate(&self) -> CoreResult<()> {
        let n = self.services.len();
        if n == 0 {
            return Err(CoreError::EmptyApplication);
        }
        for (id, s) in self.services.iter().enumerate() {
            let cost_ok = s.cost.is_finite() && s.cost > 0.0;
            if !cost_ok {
                return Err(CoreError::NonPositiveCost { id, cost: s.cost });
            }
            let selectivity_ok = s.selectivity.is_finite() && s.selectivity >= 0.0;
            if !selectivity_ok {
                return Err(CoreError::NegativeSelectivity {
                    id,
                    selectivity: s.selectivity,
                });
            }
        }
        for &(from, to) in &self.constraints {
            if from >= n {
                return Err(CoreError::InvalidService { id: from, n });
            }
            if to >= n {
                return Err(CoreError::InvalidService { id: to, n });
            }
            if from == to {
                return Err(CoreError::SelfLoop { id: from });
            }
        }
        if self.constraints.is_empty() {
            return Ok(());
        }
        // Kahn's algorithm on the constraint graph.
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(from, to) in &self.constraints {
            indeg[to] += 1;
            succs[from].push(to);
        }
        let mut stack: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut seen = 0usize;
        while let Some(v) = stack.pop() {
            seen += 1;
            for &w in &succs[v] {
                indeg[w] -= 1;
                if indeg[w] == 0 {
                    stack.push(w);
                }
            }
        }
        if seen != n {
            return Err(CoreError::CyclicGraph);
        }
        Ok(())
    }

    /// Starts a fluent builder.
    pub fn builder() -> ApplicationBuilder {
        ApplicationBuilder::default()
    }
}

/// Fluent builder for [`Application`].
///
/// ```
/// use fsw_core::Application;
/// let app = Application::builder()
///     .service(1.0, 0.5)
///     .service(2.0, 1.5)
///     .constraint(0, 1)
///     .build()
///     .unwrap();
/// assert_eq!(app.n(), 2);
/// ```
#[derive(Default, Debug, Clone)]
pub struct ApplicationBuilder {
    app: Application,
    pending_constraints: Vec<(ServiceId, ServiceId)>,
}

impl ApplicationBuilder {
    /// Adds a service with the given cost and selectivity.
    pub fn service(mut self, cost: f64, selectivity: f64) -> Self {
        self.app.add_service(cost, selectivity);
        self
    }

    /// Adds several identical services.
    pub fn services(mut self, count: usize, cost: f64, selectivity: f64) -> Self {
        for _ in 0..count {
            self.app.add_service(cost, selectivity);
        }
        self
    }

    /// Adds a precedence constraint.
    pub fn constraint(mut self, from: ServiceId, to: ServiceId) -> Self {
        self.pending_constraints.push((from, to));
        self
    }

    /// Finalises the application, validating it.
    pub fn build(mut self) -> CoreResult<Application> {
        for (from, to) in std::mem::take(&mut self.pending_constraints) {
            self.app.add_constraint(from, to)?;
        }
        self.app.validate()?;
        Ok(self.app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_independent() {
        let app = Application::independent(&[(1.0, 0.5), (2.0, 2.0), (3.0, 1.0)]);
        assert_eq!(app.n(), 3);
        assert!(!app.has_constraints());
        assert!(app.service(0).is_filter());
        assert!(app.service(1).is_expander());
        assert!(app.service(2).is_filter());
        app.validate().unwrap();
    }

    #[test]
    fn builder_with_constraints() {
        let app = Application::builder()
            .service(1.0, 0.9)
            .service(1.0, 0.9)
            .service(1.0, 0.9)
            .constraint(0, 1)
            .constraint(1, 2)
            .build()
            .unwrap();
        assert_eq!(app.constraints(), &[(0, 1), (1, 2)]);
    }

    #[test]
    fn constraint_out_of_range() {
        let mut app = Application::independent(&[(1.0, 1.0)]);
        assert_eq!(
            app.add_constraint(0, 3),
            Err(CoreError::InvalidService { id: 3, n: 1 })
        );
    }

    #[test]
    fn self_loop_rejected() {
        let mut app = Application::independent(&[(1.0, 1.0), (1.0, 1.0)]);
        assert_eq!(app.add_constraint(1, 1), Err(CoreError::SelfLoop { id: 1 }));
    }

    #[test]
    fn duplicate_constraints_deduplicated() {
        let mut app = Application::independent(&[(1.0, 1.0), (1.0, 1.0)]);
        app.add_constraint(0, 1).unwrap();
        app.add_constraint(0, 1).unwrap();
        assert_eq!(app.constraints().len(), 1);
    }

    #[test]
    fn cyclic_constraints_detected() {
        let app = Application::builder()
            .service(1.0, 1.0)
            .service(1.0, 1.0)
            .service(1.0, 1.0)
            .constraint(0, 1)
            .constraint(1, 2)
            .constraint(2, 0)
            .build();
        assert_eq!(app.unwrap_err(), CoreError::CyclicGraph);
    }

    #[test]
    fn invalid_cost_rejected() {
        let app = Application::independent(&[(0.0, 1.0)]);
        assert!(matches!(
            app.validate(),
            Err(CoreError::NonPositiveCost { id: 0, .. })
        ));
    }

    #[test]
    fn empty_application_rejected() {
        assert_eq!(
            Application::independent(&[]).validate(),
            Err(CoreError::EmptyApplication)
        );
    }

    #[test]
    fn negative_selectivity_rejected() {
        let app = Application::independent(&[(1.0, -0.1)]);
        assert!(matches!(
            app.validate(),
            Err(CoreError::NegativeSelectivity { id: 0, .. })
        ));
    }
}
