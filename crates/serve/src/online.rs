//! Online re-planning: tenants whose service sets evolve over time.
//!
//! A streaming tenant is not a fixed application: predicates are deployed
//! and retired, costs drift as backends scale.  Solving each revision from
//! scratch throws away everything the previous solve learned.  A
//! [`TenantSession`] instead re-plans **incrementally**:
//!
//! * every mutation ([`TenantEvent`]) *adapts* the current plan to the new
//!   service set — a departing service is spliced out of its chain
//!   (children re-attach to the nearest surviving ancestor), an arriving
//!   service starts as an independent root, a re-weighted service keeps its
//!   position;
//! * the adapted plan is a **feasible** plan of the mutated instance, so
//!   its value is an upper bound on the new optimum: [`TenantSession::replan`]
//!   hands it to [`fsw_sched::orchestrator::solve_warm_observed`], which
//!   seeds the search incumbent with it — the enumeration prunes the hopeless
//!   region from the first candidate on, and the bit-identity contract
//!   guarantees the result equals a from-scratch solve while evaluating **no
//!   more** candidates (strictly fewer whenever the bound bites);
//! * the outcome reports **plan churn** — how many services' parent
//!   assignments moved between the adapted previous plan and the new
//!   optimum — so the stability of a tenant's plan under streaming updates
//!   is a measurable quantity, not folklore.
//!
//! Sessions are restricted to **constraint-free** applications (the regime
//! of the serving workloads; precedence constraints would make the splice
//! adaptation unsound).

use fsw_core::{Application, CommModel, CoreError, CoreResult, ExecutionGraph, ServiceId};
use fsw_sched::engine::EvalCache;
use fsw_sched::orchestrator::{solve_warm_observed, Objective, Problem, SearchBudget};

/// One mutation of a tenant's service set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum TenantEvent {
    /// A new service joins (appended with the next free id).
    Arrive {
        /// Elementary cost of the new service.
        cost: f64,
        /// Selectivity of the new service.
        selectivity: f64,
    },
    /// Service `service` leaves; later ids shift down by one.  The last
    /// service cannot leave: an application needs at least one.
    Depart {
        /// The departing service.
        service: ServiceId,
    },
    /// Service `service` changes weights in place.
    Reweight {
        /// The re-weighted service.
        service: ServiceId,
        /// Its new cost.
        cost: f64,
        /// Its new selectivity.
        selectivity: f64,
    },
}

/// What one [`TenantSession::replan`] did.
#[derive(Clone, Debug)]
pub struct ReplanOutcome {
    /// The new optimum (bit-identical to a from-scratch solve).
    pub value: f64,
    /// The new plan, in the tenant's current labelling.
    pub graph: ExecutionGraph,
    /// Whether the solve was exhaustive for the session's budget.
    pub exhaustive: bool,
    /// The warm-start seed that was used (the adapted previous plan's value
    /// on the current instance), when one was available and feasible.
    pub warm_value: Option<f64>,
    /// Candidate plans fully evaluated by the search (the warm seed's own
    /// re-pricing is *not* counted — see
    /// [`SolveStats::evaluated`](fsw_sched::orchestrator::SolveStats) — so
    /// this compares like-for-like against a cold solve's count).
    pub evaluated: usize,
    /// Number of services whose predecessor set changed between the adapted
    /// previous plan and the new plan (`0` when the old plan was still
    /// optimal in place).
    pub churn: usize,
}

/// One tenant's evolving planning state (see the module docs).
pub struct TenantSession {
    app: Application,
    model: CommModel,
    objective: Objective,
    budget: SearchBudget,
    /// The memoised candidate-evaluation cache, retained across re-plans
    /// and rebuilt whenever a mutation changes the application (cache
    /// entries depend on the weights, so it is valid exactly as long as
    /// `cache.app() == self.app`).
    cache: EvalCache,
    /// The current plan over current tenant labels, with its value on the
    /// current instance (`None` until the first replan or adoption, or
    /// after a mutation made the value stale — the graph survives as the
    /// warm-start candidate).
    plan: Option<ExecutionGraph>,
    replans: usize,
    total_churn: usize,
}

impl TenantSession {
    /// Opens a session for a constraint-free application.
    pub fn new(
        app: Application,
        model: CommModel,
        objective: Objective,
        budget: SearchBudget,
    ) -> CoreResult<Self> {
        if app.has_constraints() {
            // Splice adaptation is unsound under precedence constraints.
            return Err(CoreError::Unsupported {
                reason: "online re-planning sessions require constraint-free applications",
            });
        }
        app.validate()?;
        let cache = EvalCache::new(&app);
        Ok(TenantSession {
            app,
            model,
            objective,
            budget,
            cache,
            plan: None,
            replans: 0,
            total_churn: 0,
        })
    }

    /// The tenant's current application.
    pub fn app(&self) -> &Application {
        &self.app
    }

    /// The current plan, if one has been computed or adopted.
    pub fn plan(&self) -> Option<&ExecutionGraph> {
        self.plan.as_ref()
    }

    /// `(replans, total churn)` so far.
    pub fn stability(&self) -> (usize, usize) {
        (self.replans, self.total_churn)
    }

    /// Installs a plan served from elsewhere (e.g. a [`crate::PlanService`]
    /// response for this tenant), making it the warm-start candidate of the
    /// next replan.  A plan sized for a different service set (e.g. a
    /// response that predates a mutation) is rejected, keeping the session
    /// untouched.
    pub fn adopt(&mut self, graph: ExecutionGraph) -> CoreResult<()> {
        if graph.n() != self.app.n() {
            return Err(CoreError::SizeMismatch {
                expected: self.app.n(),
                found: graph.n(),
            });
        }
        self.plan = Some(graph);
        Ok(())
    }

    /// Applies one mutation: the application changes and the current plan
    /// (if any) is adapted to stay a feasible warm-start candidate.
    ///
    /// Mutations are **build-then-commit**: the successor application and
    /// the adapted plan are fully constructed and validated before either
    /// is installed, so a rejected event (bad weights, out-of-range
    /// service) returns an error with the session untouched.
    pub fn apply(&mut self, event: TenantEvent) -> CoreResult<()> {
        match event {
            TenantEvent::Arrive { cost, selectivity } => {
                let mut grown_app = self.app.clone();
                grown_app.add_service(cost, selectivity);
                grown_app.validate()?;
                let grown_plan = match &self.plan {
                    Some(plan) => {
                        // The newcomer starts as an independent root.
                        let edges: Vec<_> = plan.edges().collect();
                        Some(ExecutionGraph::from_edges(grown_app.n(), &edges)?)
                    }
                    None => None,
                };
                self.app = grown_app;
                self.cache = EvalCache::new(&self.app);
                self.plan = grown_plan;
            }
            TenantEvent::Depart { service } => {
                let n = self.app.n();
                if service >= n {
                    return Err(CoreError::InvalidService { id: service, n });
                }
                let specs: Vec<(f64, f64)> = (0..n)
                    .filter(|&k| k != service)
                    .map(|k| (self.app.cost(k), self.app.selectivity(k)))
                    .collect();
                let survivors = Application::independent(&specs);
                survivors.validate()?;
                let spliced_plan = match &self.plan {
                    Some(plan) => {
                        // Splice the departed node out: every survivor whose
                        // predecessor chain runs through it re-attaches to
                        // the departed node's own predecessor (forests have
                        // at most one); then compact the ids.
                        let departed_parent = plan.preds(service).first().map(|&p| p as usize);
                        let remap = |k: ServiceId| -> ServiceId {
                            if k > service {
                                k - 1
                            } else {
                                k
                            }
                        };
                        let mut spliced = Vec::new();
                        for (a, b) in plan.edges() {
                            if b == service {
                                continue; // the departed node's own input edge
                            }
                            let source = if a == service {
                                match departed_parent {
                                    Some(p) => p,
                                    None => continue, // child becomes a root
                                }
                            } else {
                                a
                            };
                            spliced.push((remap(source), remap(b)));
                        }
                        Some(ExecutionGraph::from_edges(survivors.n(), &spliced)?)
                    }
                    None => None,
                };
                self.app = survivors;
                self.cache = EvalCache::new(&self.app);
                self.plan = spliced_plan;
            }
            TenantEvent::Reweight {
                service,
                cost,
                selectivity,
            } => {
                let n = self.app.n();
                if service >= n {
                    return Err(CoreError::InvalidService { id: service, n });
                }
                let specs: Vec<(f64, f64)> = (0..n)
                    .map(|k| {
                        if k == service {
                            (cost, selectivity)
                        } else {
                            (self.app.cost(k), self.app.selectivity(k))
                        }
                    })
                    .collect();
                let reweighted = Application::independent(&specs);
                reweighted.validate()?;
                self.app = reweighted;
                self.cache = EvalCache::new(&self.app);
                // The plan's structure is unchanged; its value went stale,
                // which the next replan re-prices anyway.
            }
        }
        Ok(())
    }

    /// Re-plans the current instance, warm-starting from the adapted
    /// previous plan (see the module docs).  The returned value and graph
    /// are bit-identical to a from-scratch solve; the session's plan and
    /// stability counters are updated.
    pub fn replan(&mut self) -> CoreResult<ReplanOutcome> {
        let problem = Problem::new(&self.app, self.model, self.objective);
        let (solution, stats) = solve_warm_observed(
            &problem,
            &self.budget,
            &self.cache,
            self.plan.as_ref(),
            None,
        )?;
        let churn = self
            .plan
            .as_ref()
            .map(|previous| plan_churn(previous, &solution.graph))
            .unwrap_or(0);
        self.replans += 1;
        self.total_churn += churn;
        self.plan = Some(solution.graph.clone());
        Ok(ReplanOutcome {
            value: solution.value,
            graph: solution.graph,
            exhaustive: solution.exhaustive,
            warm_value: stats.warm_value,
            evaluated: stats.evaluated,
            churn,
        })
    }
}

/// Number of services whose predecessor set differs between two plans on
/// the same service set — the plan-churn metric.  Plans over different
/// service counts are incomparable: every service counts as moved.
pub fn plan_churn(previous: &ExecutionGraph, next: &ExecutionGraph) -> usize {
    if previous.n() != next.n() {
        return previous.n().max(next.n());
    }
    // Predecessor lists are stored sorted, so they compare as they are.
    (0..previous.n())
        .filter(|&k| previous.preds(k) != next.preds(k))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_sched::orchestrator::solve;

    fn session(specs: &[(f64, f64)]) -> TenantSession {
        TenantSession::new(
            Application::independent(specs),
            CommModel::Overlap,
            Objective::MinPeriod,
            SearchBudget::default(),
        )
        .unwrap()
    }

    #[test]
    fn constrained_applications_are_rejected() {
        let mut app = Application::independent(&[(1.0, 0.5), (2.0, 0.5)]);
        app.add_constraint(0, 1).unwrap();
        assert!(TenantSession::new(
            app,
            CommModel::Overlap,
            Objective::MinPeriod,
            SearchBudget::default()
        )
        .is_err());
    }

    #[test]
    fn replan_matches_a_cold_solve_and_warm_start_prices_the_previous_plan() {
        let mut s = session(&[(1.0, 0.1), (10.0, 1.0), (2.0, 0.5)]);
        let first = s.replan().unwrap();
        assert!(first.warm_value.is_none(), "no previous plan yet");
        assert_eq!(first.churn, 0);
        // A second replan of the unchanged instance warm-starts at the
        // optimum itself and cannot move the plan.
        let second = s.replan().unwrap();
        assert_eq!(second.value, first.value);
        assert_eq!(second.churn, 0);
        assert_eq!(second.warm_value, Some(first.value));
        assert!(second.evaluated <= first.evaluated);
        // Both equal the from-scratch orchestrator answer.
        let cold = solve(
            &Problem::new(s.app(), CommModel::Overlap, Objective::MinPeriod),
            &SearchBudget::default(),
        )
        .unwrap();
        assert_eq!(second.value, cold.value);
    }

    #[test]
    fn departure_splices_the_plan_and_replans_to_the_mutated_optimum() {
        // A chain-inducing instance: strong filter feeding expensive work.
        let mut s = session(&[(1.0, 0.1), (10.0, 1.0), (8.0, 1.0), (0.5, 0.2)]);
        s.replan().unwrap();
        // Remove the expensive middle service; the spliced plan must stay a
        // feasible forest on the survivors.
        s.apply(TenantEvent::Depart { service: 1 }).unwrap();
        let warm = s.plan().unwrap().clone();
        warm.respects(s.app()).unwrap();
        assert!(warm.is_forest());
        assert_eq!(warm.n(), 3);
        let outcome = s.replan().unwrap();
        let cold = solve(
            &Problem::new(s.app(), CommModel::Overlap, Objective::MinPeriod),
            &SearchBudget::default(),
        )
        .unwrap();
        assert_eq!(outcome.value, cold.value, "replan equals from-scratch");
        assert!(outcome.warm_value.is_some());
    }

    #[test]
    fn arrival_and_reweight_keep_warm_starts_feasible() {
        let mut s = session(&[(1.0, 0.1), (10.0, 1.0)]);
        s.replan().unwrap();
        s.apply(TenantEvent::Arrive {
            cost: 3.0,
            selectivity: 0.7,
        })
        .unwrap();
        assert_eq!(s.app().n(), 3);
        assert_eq!(s.plan().unwrap().n(), 3);
        let after_arrival = s.replan().unwrap();
        assert!(after_arrival.warm_value.is_some());
        s.apply(TenantEvent::Reweight {
            service: 0,
            cost: 2.0,
            selectivity: 0.9,
        })
        .unwrap();
        let after_reweight = s.replan().unwrap();
        let cold = solve(
            &Problem::new(s.app(), CommModel::Overlap, Objective::MinPeriod),
            &SearchBudget::default(),
        )
        .unwrap();
        assert_eq!(after_reweight.value, cold.value);
        let (replans, _) = s.stability();
        assert_eq!(replans, 3);
    }

    #[test]
    fn rejected_mutations_leave_the_session_untouched() {
        let mut s = session(&[(1.0, 0.5), (2.0, 0.6), (3.0, 0.7)]);
        s.replan().unwrap();
        let before_app = s.app().clone();
        let before_plan: Vec<_> = s.plan().unwrap().edges().collect();
        assert!(s
            .apply(TenantEvent::Arrive {
                cost: -1.0,
                selectivity: 0.5
            })
            .is_err());
        assert!(s
            .apply(TenantEvent::Reweight {
                service: 0,
                cost: 1.0,
                selectivity: -2.0
            })
            .is_err());
        assert!(s.apply(TenantEvent::Depart { service: 9 }).is_err());
        assert_eq!(s.app(), &before_app, "app must not be poisoned");
        assert_eq!(
            s.plan().unwrap().edges().collect::<Vec<_>>(),
            before_plan,
            "plan must survive rejected mutations"
        );
        s.replan().unwrap();
    }

    #[test]
    fn churn_counts_moved_parent_assignments() {
        let a = ExecutionGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let b = ExecutionGraph::from_edges(3, &[(0, 1), (0, 2)]).unwrap();
        assert_eq!(plan_churn(&a, &b), 1); // only service 2 moved
        assert_eq!(plan_churn(&a, &a), 0);
        let c = ExecutionGraph::new(3);
        assert_eq!(plan_churn(&a, &c), 2);
    }
}
