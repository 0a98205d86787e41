//! Experiment drivers: one function per table the `experiments` binary
//! prints.
//!
//! Every driver returns plain rows (label, paper reference value, measured
//! value) so the `experiments` binary can print them and the integration tests
//! can assert on them.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::SeedableRng;

use fsw_obs::MetricsRegistry;

use fsw_core::{CommModel, ExecutionGraph, PlanMetrics};
use fsw_rn3dm::{
    no_instance, prop13_minlatency, prop2_period_outorder, prop9_latency_forkjoin, yes_instance,
};
use fsw_sched::baseline::{nocomm_minperiod_plan, nocomm_period};
use fsw_sched::chain::{
    chain_graph, chain_latency, chain_minlatency_order, chain_minperiod_order, chain_period,
};
use fsw_sched::engine::EvalCache;
use fsw_sched::latency::{multiport_proportional_latency, oneport_latency_search};
use fsw_sched::minperiod::{exhaustive_dag_best, exhaustive_forest_best, minperiod_local_search};
use fsw_sched::oneport::{oneport_period_search, OnePortStyle};
use fsw_sched::orchestrator::{
    solve, solve_all, solve_warm_observed, Objective, Problem, SearchBudget, Solution, SolveStats,
};
use fsw_sched::outorder::outorder_schedule_at;
use fsw_sched::overlap::overlap_period_lower_bound;
use fsw_sched::tree::tree_latency;
use fsw_sched::{CommOrderings, Exec};
use fsw_serve::{FrontendConfig, PlanRequest, PlanService, ServeSource};
use fsw_sim::{
    replay_oplist, replay_trace, simulate_inorder, Disposition, FaultPlan, ServeReplayConfig,
    TraceReport,
};
use fsw_workloads::streaming::{serving_trace, ArrivalTrace, TraceConfig};
use fsw_workloads::{
    counterexample_b1, counterexample_b2, counterexample_b3, media_pipeline, query_optimization,
    random_application, section23, sensor_fusion, skewed_query_optimization,
    tiered_query_optimization, uniform_query_optimization, RandomAppConfig,
};

/// One row of an experiment table.
#[derive(Clone, Debug)]
pub struct ExperimentRow {
    /// What the row measures.
    pub label: String,
    /// The value the paper reports (or implies), if any.
    pub paper: Option<f64>,
    /// The value measured by this library.
    pub measured: f64,
}

impl ExperimentRow {
    fn new(label: impl Into<String>, paper: Option<f64>, measured: f64) -> Self {
        ExperimentRow {
            label: label.into(),
            paper,
            measured,
        }
    }
}

/// The coloured-orbit total of `app`'s forest space, counted outside the
/// solve: one orbit per shape on a uniform partition, the count pass's
/// total otherwise (`None` where the partition is too wide to count).
fn orbit_total(app: &fsw_core::Application) -> Option<u128> {
    let classes = fsw_core::WeightClasses::of(app);
    if classes.is_uniform() {
        Some(fsw_core::forest_classes(app.n()))
    } else {
        fsw_core::classed_class_count(&classes, u128::MAX)
    }
}

/// `Σ Π_c |class c|! / |Aut|` over the coloured forest classes of
/// `classes`, the orbit sizes that tile the labelled space: one colouring
/// walk over the streamed shapes adds each completion's orbit, so no
/// representative is stored (collecting them held 389 MB at the 6 + 5
/// tier of E13).
fn orbit_sum(classes: &fsw_core::WeightClasses) -> u128 {
    struct SumOrbits {
        group_order: u128,
        total: u128,
    }
    impl fsw_core::ColoringVisitor for SumOrbits {
        fn descend(&mut self, _pos: usize, _parent: Option<usize>, _class: usize) -> bool {
            true
        }
        fn ascend(&mut self, _pos: usize, _class: usize) {}
        fn complete(&mut self, _colors: &[usize], aut: u128) -> bool {
            self.total += self.group_order / aut;
            true
        }
    }
    let mut sum = SumOrbits {
        group_order: classes.group_order(),
        total: 0,
    };
    let mut shapes = fsw_core::ShapeStream::new(classes.n(), None, None);
    let mut scratch = fsw_core::ColoringScratch::default();
    while shapes.next_bound().is_some() {
        scratch.walk(shapes.levels(), classes, &mut sum);
    }
    sum.total
}

/// The least OVERLAP structural period over the materialised canonical
/// representatives of `app`'s forest space (at most `cap` of them), each
/// valued as its member graph: the scan a streamed walk's value is asserted
/// against.
fn overlap_scan_minimum(app: &fsw_core::Application, cap: usize) -> f64 {
    let classes = fsw_core::WeightClasses::of(app);
    fsw_core::classed_forest_representatives(&classes, cap)
        .expect("the canonical space fits the cap")
        .iter()
        .map(|rep| {
            let graph = rep.member_graph(&classes).expect("a generated colouring");
            PlanMetrics::compute(app, &graph)
                .map(|m| m.period_lower_bound(CommModel::Overlap))
                .unwrap_or(f64::INFINITY)
        })
        .fold(f64::INFINITY, f64::min)
}

/// E1 — the worked example of Section 2.3, driven through the unified
/// orchestrator (`fsw_sched::orchestrator::solve`) and cross-checked with the
/// event-driven simulator.
pub fn e1_section23() -> Vec<ExperimentRow> {
    let inst = section23();
    let app = &inst.app;
    let g = inst.graph();
    let budget = SearchBudget::exhaustive_up_to(10_000, 2_000_000);
    let period_of = |model: CommModel| {
        solve(
            &Problem::on_graph(app, model, Objective::MinPeriod, g),
            &budget,
        )
        .expect("solve")
    };
    let overlap = period_of(CommModel::Overlap);
    let outorder = period_of(CommModel::OutOrder);
    let inorder = period_of(CommModel::InOrder);
    let latency = solve(
        &Problem::on_graph(app, CommModel::InOrder, Objective::MinLatency, g),
        &budget,
    )
    .expect("solve");
    let inorder_orderings = inorder.orderings.as_ref().expect("one-port solution");
    let sim = simulate_inorder(app, g, inorder_orderings, 400).expect("simulation");
    let overlap_oplist = overlap.oplist.as_ref().expect("overlap schedule");
    let replay = replay_oplist(app, g, overlap_oplist, CommModel::Overlap, 64).expect("replay");
    vec![
        ExperimentRow::new("period OVERLAP (Prop 1)", Some(4.0), overlap.value),
        ExperimentRow::new("period OVERLAP (replayed)", Some(4.0), replay.period),
        ExperimentRow::new("period OUTORDER (cyclic sched.)", Some(7.0), outorder.value),
        ExperimentRow::new(
            "period INORDER (ordering search)",
            Some(23.0 / 3.0),
            inorder.value,
        ),
        ExperimentRow::new("period INORDER (simulated)", Some(23.0 / 3.0), sim.period),
        ExperimentRow::new("latency (all models)", Some(21.0), latency.value),
    ]
}

/// E2 — counter-example B.1: communication costs change the optimal structure.
pub fn e2_counterexample_b1() -> Vec<ExperimentRow> {
    let inst = counterexample_b1();
    let fig4 = inst.graph_named("figure-4").expect("registered");
    let chain = inst.graph_named("no-comm-chain").expect("registered");
    let nocomm = |g: &ExecutionGraph| {
        let m = PlanMetrics::compute(&inst.app, g).expect("consistent");
        (0..inst.app.n())
            .map(|k| m.c_comp(k))
            .fold(0.0f64, f64::max)
    };
    vec![
        ExperimentRow::new("chain plan, no communication", Some(100.0), nocomm(chain)),
        ExperimentRow::new(
            "chain plan, OVERLAP",
            Some(200.0),
            overlap_period_lower_bound(&inst.app, chain).expect("consistent"),
        ),
        ExperimentRow::new("Figure 4 plan, no communication", Some(100.0), nocomm(fig4)),
        ExperimentRow::new(
            "Figure 4 plan, OVERLAP",
            Some(100.0),
            overlap_period_lower_bound(&inst.app, fig4).expect("consistent"),
        ),
    ]
}

/// E3 — counter-example B.2: one-port vs multi-port latency.
pub fn e3_counterexample_b2() -> Vec<ExperimentRow> {
    let inst = counterexample_b2();
    let (multi, _) = multiport_proportional_latency(&inst.app, inst.graph()).expect("consistent");
    let oneport = oneport_latency_search(&inst.app, inst.graph(), 10_000).expect("search");
    vec![
        ExperimentRow::new("multi-port latency", Some(20.0), multi),
        ExperimentRow::new("best one-port latency found", Some(21.0), oneport.latency),
    ]
}

/// E4 — counter-example B.3: one-port vs multi-port period.
pub fn e4_counterexample_b3() -> Vec<ExperimentRow> {
    let inst = counterexample_b3();
    let multi = overlap_period_lower_bound(&inst.app, inst.graph()).expect("consistent");
    let oneport = oneport_period_search(&inst.app, inst.graph(), OnePortStyle::OverlapPorts, 2_000)
        .expect("search");
    vec![
        ExperimentRow::new("multi-port period", Some(12.0), multi),
        ExperimentRow::new("best one-port period found", None, oneport.period),
    ]
}

/// E5 — Proposition 2 gadget (RN3DM ↦ OUTORDER orchestration).
pub fn e5_prop2_gadget() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(2);
    let budget = SearchBudget {
        outorder_node_budget: 2_000_000,
        ..SearchBudget::default()
    };
    for n in 2..=4 {
        let (inst, _) = yes_instance(n, &mut rng);
        let gadget = prop2_period_outorder(&inst);
        let found = outorder_schedule_at(&gadget.app, &gadget.graph, gadget.bound, &budget)
            .expect("consistent")
            .is_some();
        rows.push(ExperimentRow::new(
            format!("YES instance n={n}: schedule at 2n+3 found (1 = yes)"),
            Some(1.0),
            if found { 1.0 } else { 0.0 },
        ));
    }
    if let Some(inst) = no_instance(4, 2_000, &mut rng) {
        let gadget = prop2_period_outorder(&inst);
        let found = outorder_schedule_at(&gadget.app, &gadget.graph, gadget.bound, &budget)
            .expect("consistent");
        rows.push(ExperimentRow::new(
            "NO instance n=4: schedule at 2n+3 found (paper argues none; see E5 note)",
            Some(0.0),
            if found.is_some() { 1.0 } else { 0.0 },
        ));
        if let Some(oplist) = found {
            rows.push(ExperimentRow::new(
                "NO instance n=4: span of one data set in that schedule (in periods)",
                None,
                (oplist.makespan() - oplist.start()) / gadget.bound,
            ));
        }
    }
    rows
}

/// E6 — Proposition 9 gadget (RN3DM ↦ latency orchestration on a fork-join).
pub fn e6_prop9_gadget() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let mut rng = StdRng::seed_from_u64(3);
    for n in 2..=4 {
        let (inst, _) = yes_instance(n, &mut rng);
        let gadget = prop9_latency_forkjoin(&inst);
        let result = oneport_latency_search(&gadget.app, &gadget.graph, 1_000_000).expect("search");
        rows.push(ExperimentRow::new(
            format!(
                "YES instance n={n}: optimal latency (bound {})",
                gadget.bound
            ),
            Some(gadget.bound),
            result.latency,
        ));
    }
    if let Some(inst) = no_instance(4, 2_000, &mut rng) {
        let gadget = prop9_latency_forkjoin(&inst);
        let result = oneport_latency_search(&gadget.app, &gadget.graph, 1_000_000).expect("search");
        rows.push(ExperimentRow::new(
            format!(
                "NO instance n=4: optimal latency (> bound {})",
                gadget.bound
            ),
            None,
            result.latency,
        ));
    }
    rows
}

/// E7 — Proposition 13 gadget (RN3DM ↦ MINLATENCY, fork-join plan).
pub fn e7_prop13_gadget() -> Vec<ExperimentRow> {
    let mut rows = Vec::new();
    let yes = fsw_rn3dm::Rn3dmInstance::new(vec![2, 4, 6]);
    let gadget = prop13_minlatency(&yes);
    let result = oneport_latency_search(&gadget.app, &gadget.graph, 1_000_000).expect("search");
    rows.push(ExperimentRow::new(
        format!(
            "YES instance n=3: fork-join latency (bound {:.4})",
            gadget.bound
        ),
        Some(gadget.bound),
        result.latency,
    ));
    let no = fsw_rn3dm::Rn3dmInstance::new(vec![2, 2, 8, 8]);
    let gadget_no = prop13_minlatency(&no);
    let result_no =
        oneport_latency_search(&gadget_no.app, &gadget_no.graph, 1_000_000).expect("search");
    rows.push(ExperimentRow::new(
        format!(
            "NO instance n=4: fork-join latency (> bound {:.4})",
            gadget_no.bound
        ),
        None,
        result_no.latency,
    ));
    rows
}

/// E8 — the polynomial special cases: greedy chains and tree latency vs
/// exhaustive search on a seeded workload.
pub fn e8_polynomial_cases() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(8);
    let app = query_optimization(6, &mut rng);
    let mut rows = Vec::new();
    for model in CommModel::ALL {
        let greedy = chain_minperiod_order(&app, model).expect("no constraints");
        let greedy_period = chain_period(&app, &greedy, model);
        let (best, _) =
            fsw_sched::chain::chain_exhaustive(app.n(), |o| chain_period(&app, o, model))
                .expect("non-empty");
        rows.push(ExperimentRow::new(
            format!("chain MINPERIOD {model}: greedy (paper column = exhaustive)"),
            Some(best),
            greedy_period,
        ));
    }
    let greedy_lat = chain_minlatency_order(&app).expect("no constraints");
    let greedy_latency = chain_latency(&app, &greedy_lat);
    let (best_lat, _) =
        fsw_sched::chain::chain_exhaustive(app.n(), |o| chain_latency(&app, o)).expect("non-empty");
    rows.push(ExperimentRow::new(
        "chain MINLATENCY: greedy (paper column = exhaustive)",
        Some(best_lat),
        greedy_latency,
    ));
    // Tree latency (Algorithm 1) vs exhaustive ordering search on the greedy chain
    // converted into a star-ish forest seed.
    let chain = chain_graph(app.n(), &greedy_lat).expect("permutation");
    let algo = tree_latency(&app, &chain).expect("chain is a tree");
    let search = oneport_latency_search(&app, &chain, 10_000).expect("search");
    rows.push(ExperimentRow::new(
        "Algorithm 1 on the chain (paper column = ordering search)",
        Some(search.latency),
        algo,
    ));
    rows
}

/// E9 — Proposition 4: forest optima match DAG optima for MINPERIOD without
/// precedence constraints (tiny instances, exhaustive both ways).
pub fn e9_forest_structure() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(9);
    let mut rows = Vec::new();
    for trial in 0..3 {
        let app = random_application(&RandomAppConfig::independent(4), &mut rng);
        for model in CommModel::ALL {
            let eval = |g: &ExecutionGraph| {
                PlanMetrics::compute(&app, g)
                    .map(|m| m.period_lower_bound(model))
                    .unwrap_or(f64::INFINITY)
            };
            let forest = exhaustive_forest_best(&app, eval)
                .expect("small instance")
                .0;
            let dag = exhaustive_dag_best(&app, 5, eval)
                .expect("small instance")
                .0;
            rows.push(ExperimentRow::new(
                format!("trial {trial} {model}: forest optimum (paper column = DAG optimum)"),
                Some(dag),
                forest,
            ));
        }
    }
    rows
}

/// E10 — scaling / heuristic quality study on the query-optimisation
/// workload.  The exhaustive side now runs through the unified orchestrator;
/// the local-search heuristics remain the legacy entry points so the two
/// columns stay an apples-to-apples comparison.
pub fn e10_scaling() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(10);
    let mut rows = Vec::new();
    let budget = SearchBudget::default();
    for n in [5, 6, 7] {
        let app = query_optimization(n, &mut rng);
        let exhaustive = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
            &budget,
        )
        .expect("solver");
        let local = minperiod_local_search(&app, CommModel::Overlap, &budget).expect("solver");
        rows.push(ExperimentRow::new(
            format!("MINPERIOD OVERLAP n={n}: local search (paper column = exhaustive forests)"),
            Some(exhaustive.value),
            local.value,
        ));
        let baseline_plan = nocomm_minperiod_plan(&app).expect("no constraints");
        let baseline_with_comm = PlanMetrics::compute(&app, &baseline_plan)
            .expect("consistent")
            .period_lower_bound(CommModel::Overlap);
        rows.push(ExperimentRow::new(
            format!("MINPERIOD OVERLAP n={n}: no-comm-optimal plan re-evaluated with comm"),
            Some(nocomm_period(&app, &baseline_plan).expect("consistent")),
            baseline_with_comm,
        ));
        let lat = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinLatency),
            &budget,
        )
        .expect("solver");
        let chain_lat = chain_latency(&app, &chain_minlatency_order(&app).expect("no constraints"));
        rows.push(ExperimentRow::new(
            format!("MINLATENCY n={n}: unrestricted optimum (paper column = Prop 16 chain)"),
            Some(chain_lat),
            lat.value,
        ));
    }
    // INORDER orchestration quality: natural vs searched orderings on a fork-join.
    let inst = fsw_workloads::fork_join(4, 2.0, 1.0);
    let natural = fsw_sched::oneport::inorder_period_for_orderings(
        &inst.app,
        inst.graph(),
        &CommOrderings::natural(inst.graph()),
    )
    .expect("consistent");
    let searched = oneport_period_search(&inst.app, inst.graph(), OnePortStyle::InOrder, 10_000)
        .expect("search");
    rows.push(ExperimentRow::new(
        "INORDER fork-join(4): searched ordering (paper column = natural ordering)",
        Some(natural),
        searched.period,
    ));
    // Critical-path shape bound (PR-7): on a uniform MINLATENCY instance the
    // per-shape one-port chain recurrence is *exact*, so the bound-ordered
    // stream's clearance certificate fires almost immediately — the floor
    // must certify at least 2× fewer expanded orbits than the shape plan
    // holds (asserted, alongside the binary's e10 wall bound).
    let uniform = uniform_query_optimization(10, &mut rng);
    let started = std::time::Instant::now();
    let (solution, stats) = solve_warm_observed(
        &Problem::new(&uniform, CommModel::Overlap, Objective::MinLatency),
        &budget,
        &EvalCache::new(&uniform),
        None,
        None,
    )
    .expect("solver");
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    assert!(
        solution.exhaustive,
        "uniform MINLATENCY n=10 must stay exhaustive under the default budget"
    );
    let stream = stats
        .stream
        .expect("the uniform path always routes through the lazy stream");
    let orbits = orbit_total(&uniform).expect("uniform spaces always count their orbits");
    assert!(
        stream.expanded as u128 * 2 <= orbits,
        "the critical-path latency floor must certify >= 2x fewer expanded \
         orbits: {} expanded vs {} orbits",
        stream.expanded,
        orbits
    );
    rows.push(ExperimentRow::new(
        format!(
            "MINLATENCY n=10 uniform: orbits expanded under the critical-path \
             floor (paper column = total orbits; certified {})",
            stream.certified_shapes
        ),
        Some(orbits as f64),
        stream.expanded as f64,
    ));
    rows.push(ExperimentRow::new(
        "MINLATENCY n=10 uniform: optimum (exhaustive, asserted)",
        None,
        solution.value,
    ));
    rows.push(ExperimentRow::new(
        "MINLATENCY n=10 uniform: wall milliseconds",
        None,
        wall_ms,
    ));
    rows
}

/// E11 — the unified orchestrator across realistic workload scenarios: every
/// communication model × objective on the media pipeline, a sensor-fusion
/// DAG and a skewed query-optimisation workload, under one shared budget.
///
/// Each scenario's sweep goes through [`solve_all`], so all six solves share
/// one canonical-signature evaluation cache (the one-port latency of a
/// candidate DAG, for instance, is computed once for the whole sweep).
pub fn e11_orchestrator_scenarios() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(11);
    let scenarios: Vec<(&str, fsw_core::Application)> = vec![
        ("media-pipeline", media_pipeline()),
        ("sensor-fusion(3)", sensor_fusion(3)),
        (
            "skewed-query(2+3)",
            skewed_query_optimization(2, 3, &mut rng),
        ),
    ];
    // One shared budget for the whole sweep.  The full-DAG MINLATENCY
    // walk is capped at 4 services here: at 5 it builds 29 281 labelled
    // DAGs, and every one the forest-seeded cutoff keeps pays an ordering
    // search, which dominates the binary's runtime without changing any
    // scenario's reported optimum structure.
    let budget = SearchBudget {
        dag_enumeration_max_n: 4,
        ..SearchBudget::default()
    };
    let requests: Vec<(CommModel, Objective)> = CommModel::ALL
        .into_iter()
        .flat_map(|model| {
            [Objective::MinPeriod, Objective::MinLatency]
                .into_iter()
                .map(move |objective| (model, objective))
        })
        .collect();
    let mut rows = Vec::new();
    for (name, app) in &scenarios {
        let solutions = solve_all(app, &requests, &budget).expect("orchestrator solve_all");
        for ((model, objective), solution) in requests.iter().zip(solutions) {
            rows.push(ExperimentRow::new(
                format!(
                    "{name} {model} {objective}{}",
                    if solution.exhaustive {
                        ""
                    } else {
                        " (heuristic)"
                    }
                ),
                None,
                solution.value,
            ));
        }
    }
    rows
}

/// E12 — symmetry-reduced exhaustive MINPERIOD on uniform-weight
/// query-optimisation instances, n = 8..11: the raw `n^n` parent-function
/// space against the canonical forest-class space the searches actually
/// enumerate (`fsw_sched::engine::CanonicalSpace`), the orbit-accounting
/// identity (`Σ orbit sizes == (n+1)^(n-1)` labelled forests), and the
/// resulting optima — all exhaustive within the *default* `SearchBudget`,
/// where the raw space stopped being enumerable beyond n ≈ 8.
pub fn e12_symmetry_scaling() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(12);
    let budget = SearchBudget::default();
    let mut rows = Vec::new();
    for n in 8..=11 {
        let app = uniform_query_optimization(n, &mut rng);
        let classes = fsw_core::forest_classes(n);
        rows.push(ExperimentRow::new(
            format!("n={n}: canonical forest classes (paper column = n^n parent functions)"),
            Some((n as f64).powi(n as i32)),
            classes as f64,
        ));
        let covered = orbit_sum(&fsw_core::WeightClasses::of(&app));
        rows.push(ExperimentRow::new(
            format!("n={n}: labelled forests covered by the orbits (paper column = (n+1)^(n-1))"),
            Some(fsw_core::labelled_forests(n) as f64),
            covered as f64,
        ));
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let solution = solve(&Problem::new(&app, model, Objective::MinPeriod), &budget)
                .expect("uniform instance");
            rows.push(ExperimentRow::new(
                format!(
                    "uniform MINPERIOD {model} n={n}: optimum{}",
                    if solution.exhaustive {
                        " (exhaustive via canonical space)"
                    } else {
                        " (heuristic)"
                    }
                ),
                None,
                solution.value,
            ));
        }
    }
    rows
}

/// E13 — partial-symmetry exhaustive MINPERIOD on **multi-weight-class**
/// (tiered) query-optimisation instances, n = 8..11 with 2–3 weight
/// classes: the raw `n^n` parent-function space against the coloured
/// (class-preserving-orbit) class space the searches actually enumerate
/// (counted by `fsw_core::classed_class_count`), the orbit-accounting
/// identity `Σ Π_c |class c|!/|Aut| == (n+1)^(n-1)` labelled forests
/// (summed by a streamed colouring walk, `orbit_sum`), and the
/// resulting optima — exhaustive within the
/// *default* `SearchBudget`, a regime the uniform-only reduction of E12
/// could not touch (multi-class instances used to pay the full labelled
/// space).
pub fn e13_partial_symmetry_scaling() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(13);
    let budget = SearchBudget::default();
    let mut rows = Vec::new();
    let tiers: [&[usize]; 4] = [&[4, 4], &[3, 3, 3], &[5, 5], &[6, 5]];
    for sizes in tiers {
        let n: usize = sizes.iter().sum();
        let app = tiered_query_optimization(sizes, &mut rng);
        let classes = fsw_core::WeightClasses::of(&app);
        let count = fsw_core::classed_class_count(&classes, budget.max_graphs as u128)
            .expect("coloured class spaces of the sweep fit the default cap");
        rows.push(ExperimentRow::new(
            format!(
                "n={n} classes={sizes:?}: coloured forest classes (paper column = n^n parent functions)"
            ),
            Some((n as f64).powi(n as i32)),
            count as f64,
        ));
        let covered = orbit_sum(&classes);
        rows.push(ExperimentRow::new(
            format!(
                "n={n} classes={sizes:?}: labelled forests covered by the orbits (paper column = (n+1)^(n-1))"
            ),
            Some(fsw_core::labelled_forests(n) as f64),
            covered as f64,
        ));
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let solution = solve(&Problem::new(&app, model, Objective::MinPeriod), &budget)
                .expect("tiered instance");
            rows.push(ExperimentRow::new(
                format!(
                    "tiered MINPERIOD {model} n={n}: optimum{}",
                    if solution.exhaustive {
                        " (exhaustive via classed space)"
                    } else {
                        " (heuristic)"
                    }
                ),
                None,
                solution.value,
            ));
        }
    }
    // Lazy streamed reach — n = 12 and 13, uniform and tiered: the regime
    // the materialised path cannot touch (the tiered n = 13 coloured space
    // holds tens of millions of orbits against the 2M default cap; the
    // stream keeps only the A000081 shape plan plus one in-flight
    // representative per worker).  Solved through the default-budget
    // orchestrator path; the lazy walk's telemetry surfaces through
    // `SolveStats::stream`, and exhaustiveness is *asserted* — the PR-6
    // acceptance criterion, not just a printed flag.
    for n in [12usize, 13] {
        let sizes = [n - 6, 6];
        let variants = [
            (
                "uniform".to_string(),
                uniform_query_optimization(n, &mut rng),
            ),
            (
                format!("tiered {sizes:?}"),
                tiered_query_optimization(&sizes, &mut rng),
            ),
        ];
        for (name, app) in variants {
            for model in [CommModel::Overlap, CommModel::InOrder] {
                let (solution, stats, wall_ms) =
                    timed_cold_solves(&Problem::new(&app, model, Objective::MinPeriod), &budget);
                assert!(
                    solution.exhaustive,
                    "streamed MINPERIOD {model} {name} n={n} must stay exhaustive \
                     under the default budget"
                );
                let stream = stats
                    .stream
                    .expect("the default budget routes these instances through the lazy stream");
                rows.push(ExperimentRow::new(
                    format!("lazy {name} MINPERIOD {model} n={n}: optimum (exhaustive, asserted)"),
                    None,
                    solution.value,
                ));
                rows.push(ExperimentRow::new(
                    format!(
                        "lazy {name} {model} n={n}: representatives expanded \
                         (paper column = coloured orbits, {} shapes)",
                        stream.shapes
                    ),
                    orbit_total(&app).map(|o| o as f64),
                    stream.expanded as f64,
                ));
                rows.push(ExperimentRow::new(
                    format!(
                        "lazy {name} {model} n={n}: peak resident representatives \
                         (paper column = worker count)"
                    ),
                    Some(Exec::threaded(budget.threads).effective_threads() as f64),
                    stream.peak_resident as f64,
                ));
                rows.push(ExperimentRow::new(
                    format!(
                        "lazy {name} {model} n={n}: wall milliseconds \
                         (median of {WALL_REPEATS} cold solves)"
                    ),
                    None,
                    wall_ms,
                ));
            }
        }
    }
    // Exhaustive n = 14, uniform (PR-7): 87 811 A000081 shapes against a
    // raw 14^14 ≈ 1.1e16 parent-function space.  The unified streamed path
    // is the *only* uniform path now — the materialise-then-scan entry
    // point is gone — so this row is the acceptance bar: exhaustive under
    // the default budget, with peak residency O(workers) rather than
    // O(classes).
    {
        let n = 14usize;
        let app = uniform_query_optimization(n, &mut rng);
        let workers = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1);
        for model in [CommModel::Overlap, CommModel::InOrder] {
            let (solution, stats, wall_ms) =
                timed_cold_solves(&Problem::new(&app, model, Objective::MinPeriod), &budget);
            assert!(
                solution.exhaustive,
                "uniform MINPERIOD {model} n=14 must stay exhaustive under the \
                 default budget (the PR-7 acceptance criterion)"
            );
            let stream = stats
                .stream
                .expect("the uniform path always routes through the lazy stream");
            assert_eq!(
                stream.shapes,
                fsw_core::forest_classes(n) as usize,
                "the plan must cover every A000081 shape at n=14"
            );
            assert!(
                stream.peak_resident <= workers,
                "uniform residency must be O(workers): {} resident vs {workers} workers",
                stream.peak_resident
            );
            rows.push(ExperimentRow::new(
                format!("lazy uniform MINPERIOD {model} n={n}: optimum (exhaustive, asserted)"),
                None,
                solution.value,
            ));
            rows.push(ExperimentRow::new(
                format!(
                    "lazy uniform {model} n={n}: representatives expanded \
                     (paper column = A000081 shapes)"
                ),
                Some(stream.shapes as f64),
                stream.expanded as f64,
            ));
            rows.push(ExperimentRow::new(
                format!(
                    "lazy uniform {model} n={n}: peak resident representatives \
                     (paper column = worker threads; classes = {})",
                    stream.shapes
                ),
                Some(workers as f64),
                stream.peak_resident as f64,
            ));
            rows.push(ExperimentRow::new(
                format!(
                    "lazy uniform {model} n={n}: wall milliseconds \
                     (median of {WALL_REPEATS} cold solves)"
                ),
                None,
                wall_ms,
            ));
        }
    }
    rows
}

/// Cold solves behind each of E13's wall-clock rows.
const WALL_REPEATS: usize = 5;

/// Solves `problem` [`WALL_REPEATS`] times, each cold (a fresh
/// `EvalCache`), and returns the first solve with the median wall time in
/// milliseconds: a single cold solve's time varies by more than half from
/// run to run, so one timing cannot show a regression.  Every repeat must
/// return the first solve's value bits.
fn timed_cold_solves(problem: &Problem<'_>, budget: &SearchBudget) -> (Solution, SolveStats, f64) {
    let mut walls = Vec::with_capacity(WALL_REPEATS);
    let mut first: Option<(Solution, SolveStats)> = None;
    for _ in 0..WALL_REPEATS {
        let started = std::time::Instant::now();
        let (solution, stats) =
            solve_warm_observed(problem, budget, &EvalCache::new(problem.app), None, None)
                .expect("streamed instance");
        walls.push(started.elapsed().as_secs_f64() * 1e3);
        match &first {
            Some((kept, _)) => assert_eq!(
                kept.value.to_bits(),
                solution.value.to_bits(),
                "a repeated cold solve changed the value"
            ),
            None => first = Some((solution, stats)),
        }
    }
    walls.sort_by(f64::total_cmp);
    let (solution, stats) = first.expect("at least one solve");
    (solution, stats, walls[WALL_REPEATS / 2])
}

/// E14 — the serving story end to end: a streaming arrival trace (12
/// tenants drawn from 4 templates, service-set mutations over time, 140+
/// plan requests) replayed through the multi-tenant planning service
/// (`fsw_serve`): fingerprint-keyed plan store, in-flight dedup, and
/// warm-started online re-plans, with a shadow cold solve per request
/// cross-checking every served value **bit-for-bit**.
///
/// The PR-5 acceptance criteria are *asserted* here (not just printed), so
/// a regression fails the experiment binary loudly: ≥ 100 requests across
/// ≥ 12 tenants, ≥ 50% of requests served from cache or dedup, zero value
/// mismatches against ground truth, and warm re-plans evaluating strictly
/// fewer candidates than their cold shadows in aggregate (never more per
/// request).
pub fn e14_serving() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(14);
    let trace = serving_trace(
        &TraceConfig {
            tenants: 12,
            steps: 30,
            templates: 4,
            services_per_tenant: 6,
            mutation_rate: 0.4,
            requests_per_step: 4,
            ..TraceConfig::default()
        },
        &mut rng,
    );
    let config = ServeReplayConfig {
        verify: true,
        ..ServeReplayConfig::default()
    };
    let report = replay_trace(&trace, &config).expect("trace replays cleanly");
    let (warm, cold) = report.replan_evaluations();
    // Acceptance criteria — hard assertions.
    assert!(report.requests() >= 100, "trace too small");
    assert!(report.tenants >= 12, "tenant fleet too small");
    assert!(
        report.served_ratio() >= 0.5,
        "store/dedup served only {:.0}% of requests",
        report.served_ratio() * 100.0
    );
    assert_eq!(
        report.value_mismatches(),
        0,
        "a served value deviated from its cold-solve ground truth"
    );
    assert!(report.replans() > 0, "no online re-plans exercised");
    assert!(
        warm < cold,
        "warm-started re-plans must expand fewer nodes than cold solves ({warm} vs {cold})"
    );
    for outcome in &report.outcomes {
        if let Some(cold_evaluated) = outcome.cold_evaluated {
            assert!(
                outcome.evaluated <= cold_evaluated,
                "warm re-plan evaluated more than its cold shadow"
            );
        }
    }
    vec![
        ExperimentRow::new(
            "requests replayed (floor = acceptance minimum)",
            Some(100.0),
            report.requests() as f64,
        ),
        ExperimentRow::new(
            "tenants in the fleet (floor = acceptance minimum)",
            Some(12.0),
            report.tenants as f64,
        ),
        ExperimentRow::new(
            "served from store or dedup, fraction (floor = 0.5)",
            Some(0.5),
            report.served_ratio(),
        ),
        ExperimentRow::new(
            "cold solves (fingerprint leaders)",
            None,
            report.stats.dispatches as f64,
        ),
        ExperimentRow::new(
            "store hits across batches",
            None,
            report.stats.store_hits as f64,
        ),
        ExperimentRow::new(
            "in-flight dedup hits",
            None,
            report.stats.dedup_joins as f64,
        ),
        ExperimentRow::new(
            "online re-plans after service-set mutations",
            None,
            report.replans() as f64,
        ),
        ExperimentRow::new(
            "plan churn across all re-plans (moved parent assignments)",
            None,
            report.total_churn() as f64,
        ),
        ExperimentRow::new(
            "warm re-plan candidate evaluations (paper column = cold shadows)",
            Some(cold as f64),
            warm as f64,
        ),
        ExperimentRow::new(
            "served values deviating from cold ground truth (must be 0)",
            Some(0.0),
            report.value_mismatches() as f64,
        ),
        ExperimentRow::new(
            "serving throughput, requests/s (store + dedup + solves)",
            None,
            report.requests_per_second(),
        ),
    ]
}

/// E15 — serving under overload and faults: a 100 000+-request trace with
/// oversized (jumbo) tenants and an injected fault schedule replayed through
/// the hardened `PlanService`.  The driver asserts the robustness contract
/// end to end: every request is answered (no hangs), no panic escapes the
/// worker pool, the plan store never holds a non-exhaustive plan, every
/// `Exact` answer is bit-identical to a fault-free cold solve, and the
/// admit/degrade/reject mix plus p50/p99 latency are reported as rows.
pub fn e15_overload() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(15);
    // 32 tenants over 4 templates; every 8th tenant is a 24-service jumbo
    // whose raw plan space (24^24) defeats every symmetry reduction, so all
    // of its requests must be rejected by admission control in O(1).
    // 12 500 steady steps x 8 requests + 32 admissions = 100 032 requests.
    let trace = serving_trace(
        &TraceConfig {
            tenants: 32,
            admissions_per_step: 8,
            steps: 12_500,
            templates: 4,
            services_per_tenant: 6,
            max_services: 7,
            mutation_rate: 0.0,
            requests_per_step: 8,
            jumbo_every: 8,
            jumbo_services: 24,
        },
        &mut rng,
    );
    // The first batch admits tenants 0..8 (ordinals 0..8): four template
    // leaders at ordinals 0..4.  Panic the template-0 leader (its follower
    // is rejected with it and the fingerprint is quarantined, recovering
    // after the backoff), blow the deadline of the template-1 leader (its
    // batch degrades to the deterministic fallback and is never cached) and
    // stall the template-2 leader to stretch the latency tail.
    let config = ServeReplayConfig {
        verify: true,
        faults: FaultPlan::new()
            .panic_at(0)
            .blowout_at(1)
            .slow_at(2, Duration::from_millis(2)),
        ..ServeReplayConfig::default()
    };
    // The injected panic is caught by the pool; keep its backtrace out of
    // the experiment table.
    let quiet = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let report = replay_trace(&trace, &config).expect("trace replays cleanly");
    std::panic::set_hook(quiet);
    // Acceptance criteria — hard assertions.
    assert!(report.requests() >= 100_000, "trace too small");
    assert_eq!(
        report.requests(),
        trace.request_count(),
        "every request must be answered — a missing outcome is a hang"
    );
    assert_eq!(
        report.value_mismatches(),
        0,
        "an Exact answer deviated from its fault-free cold-solve ground truth"
    );
    assert_eq!(
        report.store_non_exhaustive, 0,
        "a non-exhaustive plan entered the store"
    );
    let (exact, degraded, rejected) = report.mix();
    assert!(exact > 0 && degraded > 0 && rejected > 0, "degenerate mix");
    assert_eq!(report.stats.panics, 1, "exactly one injected panic fires");
    assert_eq!(report.stats.recovered, 1, "the quarantined key recovers");
    assert!(report.stats.quarantine_rejects > 0, "no backoff exercised");
    assert!(
        report.stats.admission_rejects as f64 >= 0.1 * report.requests() as f64,
        "jumbo tenants are 1/8 of the request cycle; admission must reject them all"
    );
    for outcome in &report.outcomes {
        if outcome.disposition == Disposition::Degraded {
            let floor = outcome
                .lower_bound
                .expect("degraded answers carry a certified floor");
            assert!(
                outcome.value >= floor,
                "degraded value beat its admissible lower bound"
            );
        }
    }
    let p50 = report.latency_percentile(50.0);
    let p99 = report.latency_percentile(99.0);
    assert!(Duration::ZERO < p50 && p50 <= p99, "latency tail inverted");
    vec![
        ExperimentRow::new(
            "requests replayed under faults (floor = acceptance minimum)",
            Some(100_000.0),
            report.requests() as f64,
        ),
        ExperimentRow::new("exact answers (bit-identical to cold)", None, exact as f64),
        ExperimentRow::new(
            "degraded answers (deadline blowout, value >= certified floor)",
            None,
            degraded as f64,
        ),
        ExperimentRow::new("rejected requests (no plan served)", None, rejected as f64),
        ExperimentRow::new(
            "admission rejections (priced before any solve)",
            None,
            report.stats.admission_rejects as f64,
        ),
        ExperimentRow::new(
            "quarantine rejections (backoff after the injected panic)",
            None,
            report.stats.quarantine_rejects as f64,
        ),
        ExperimentRow::new(
            "solver panics caught by the pool (must equal injected = 1)",
            Some(1.0),
            report.stats.panics as f64,
        ),
        ExperimentRow::new(
            "quarantined fingerprints recovered after backoff",
            Some(1.0),
            report.stats.recovered as f64,
        ),
        ExperimentRow::new(
            "p50 request latency, microseconds",
            None,
            p50.as_secs_f64() * 1e6,
        ),
        ExperimentRow::new(
            "p99 request latency, microseconds",
            None,
            p99.as_secs_f64() * 1e6,
        ),
        ExperimentRow::new(
            "non-exhaustive plans in the store (must be 0)",
            Some(0.0),
            report.store_non_exhaustive as f64,
        ),
        ExperimentRow::new(
            "Exact answers deviating from cold ground truth (must be 0)",
            Some(0.0),
            report.value_mismatches() as f64,
        ),
        ExperimentRow::new(
            "serving throughput under overload, requests/s",
            None,
            report.requests_per_second(),
        ),
    ]
}

/// The shared overload scenario of E16/E17 (and their CI smokes): the
/// trace, the front-end knobs and the fault plan, as one deterministic
/// unit so every experiment replays the *same* timeline.
///
/// Same template structure as the E15 overload trace: 4 templates of 6
/// distinct-weight services (the steady state is store hits), every 16th
/// tenant a 24-service jumbo whose requests admission must reject in
/// O(1), no mutations (so every request goes through the event loop and
/// none re-plans).  Dispatch outruns the steady arrival rate (8 per
/// tick), so backlog only builds under the burst; the low watermarks
/// make the hysteresis visible, and the 4-tick deadline cancels the
/// burst tail that waits longer than a full queue drain.  Ordinal 0 is
/// tenant 0's first request — always the cold leader of template 0 — so
/// the injected stall (10x the watchdog) deterministically times out
/// exactly one solve and quarantines the fingerprint; the slow store
/// lookup stretches wall latency without touching any decision.
fn overload_scenario(
    tenants: usize,
    steps: usize,
    burst_ordinal: u64,
    burst_extra: usize,
    stall_timeout: Duration,
    workers: usize,
) -> (ArrivalTrace, FrontendConfig, FaultPlan) {
    let mut rng = StdRng::seed_from_u64(16);
    let trace = serving_trace(
        &TraceConfig {
            tenants,
            admissions_per_step: 8,
            steps,
            templates: 4,
            services_per_tenant: 6,
            max_services: 7,
            mutation_rate: 0.0,
            requests_per_step: 8,
            jumbo_every: 16,
            jumbo_services: 24,
        },
        &mut rng,
    );
    let frontend = FrontendConfig {
        workers,
        queue_capacity: 64,
        dispatch_per_tick: 16,
        backlog_high: 8,
        backlog_low: 4,
        max_shed_level: 8,
        cost_per_tick: 1 << 18,
        deadline_ticks: Some(4),
        stall_timeout,
    };
    let faults = FaultPlan::new()
        .slow_at(0, stall_timeout * 10)
        .slow_shard_at(100, Duration::from_millis(1))
        .burst_at(burst_ordinal, burst_extra);
    (trace, frontend, faults)
}

/// Shared driver of E16 and its CI smoke `e16s`: replays an overload trace
/// through the **async front end** at every worker count in
/// `worker_counts`, asserts the overload contracts on the first run —
/// every ticket resolves, the per-tenant queue stays under its bound, the
/// shed rate rises under the injected burst and returns to baseline after
/// the drain, the hysteresis relaxes, the injected stall is timed out and
/// its fingerprint recovers through the quarantine — and asserts the
/// decision digest of every further worker count bit-identical to the
/// first.  Returns the first run's rows.
fn async_overload_rows(
    tenants: usize,
    steps: usize,
    burst_ordinal: u64,
    burst_extra: usize,
    stall_timeout: Duration,
    floor_requests: usize,
    worker_counts: &[usize],
) -> Vec<ExperimentRow> {
    let (trace, frontend, faults) = overload_scenario(
        tenants,
        steps,
        burst_ordinal,
        burst_extra,
        stall_timeout,
        worker_counts[0],
    );
    let run = |workers: usize| {
        let config = ServeReplayConfig {
            frontend: Some(FrontendConfig {
                workers,
                ..frontend
            }),
            faults: faults.clone(),
            ..ServeReplayConfig::default()
        };
        replay_trace(&trace, &config).expect("async replay")
    };
    let report = run(worker_counts[0]);
    let digest = report.digest();
    for &workers in &worker_counts[1..] {
        let other = run(workers);
        assert_eq!(
            digest,
            other.digest(),
            "replay decisions diverged at workers={workers}"
        );
    }
    // Acceptance criteria — hard assertions.
    assert!(report.requests() >= floor_requests, "trace too small");
    assert_eq!(
        report.requests(),
        trace.request_count() + burst_extra,
        "every ticket must resolve to a ServeOutcome — a missing completion is a hang"
    );
    assert_eq!(
        report.stats.submitted, report.stats.completed,
        "tickets left outstanding after the drain"
    );
    assert!(
        report.stats.peak_tenant_queue <= frontend.queue_capacity,
        "per-tenant queue memory exceeded its configured bound"
    );
    assert_eq!(
        report.store_non_exhaustive, 0,
        "a non-exhaustive plan entered the store"
    );
    assert_eq!(report.stats.stalls, 1, "exactly one injected stall fires");
    assert!(
        report.stats.quarantine_rejects > 0,
        "the stalled fingerprint must back off through the quarantine"
    );
    assert_eq!(
        report.stats.recovered, 1,
        "the stalled fingerprint recovers after the backoff"
    );
    // The shed-rate curve: zero at steady state, sharply up in the burst
    // window (the 64-slot queue absorbs only a sliver of the burst), and
    // back to zero well after the drain.
    let burst_step = report
        .outcomes
        .iter()
        .find(|o| o.burst_extra)
        .expect("the injected burst must fire")
        .step;
    let before_rate = report.shed_rate_between(burst_step.saturating_sub(64), burst_step);
    let burst_rate = report.shed_rate_between(burst_step, burst_step + 8);
    let calm_rate = report.shed_rate_between(burst_step + 64, burst_step + 128);
    assert_eq!(before_rate, 0.0, "sheds before the burst");
    assert!(
        burst_rate > 0.5,
        "shed rate must spike under the burst (got {burst_rate:.3})"
    );
    assert_eq!(calm_rate, 0.0, "shed rate must return to baseline");
    assert!(
        report.stats.peak_shed_level > 0,
        "the backlog must tighten the admission thresholds"
    );
    assert_eq!(
        report.stats.shed_level, 0,
        "hysteresis must relax once the backlog drains"
    );
    assert!(
        report.stats.deadline_cancels > 0,
        "the burst tail must be cancelled at dequeue"
    );
    let (exact, degraded, rejected) = report.mix();
    assert!(exact > 0 && rejected > 0, "degenerate outcome mix");
    let p50 = report.latency_tick_percentile(50.0);
    let p99 = report.latency_tick_percentile(99.0);
    assert!(p50 <= p99, "latency tail inverted");
    vec![
        ExperimentRow::new(
            "tickets resolved under async faults (floor = acceptance minimum)",
            Some(floor_requests as f64),
            report.requests() as f64,
        ),
        ExperimentRow::new("exact answers (store, dedup, cold)", None, exact as f64),
        ExperimentRow::new("degraded answers", None, degraded as f64),
        ExperimentRow::new("rejected tickets (no plan served)", None, rejected as f64),
        ExperimentRow::new(
            "ingress sheds: bounded tenant queue full at submit",
            None,
            report.stats.queue_full_sheds as f64,
        ),
        ExperimentRow::new(
            "backpressure sheds at backlog-scaled thresholds",
            None,
            report.stats.backpressure_sheds as f64,
        ),
        ExperimentRow::new(
            "deadline cancellations at dequeue (burst tail)",
            None,
            report.stats.deadline_cancels as f64,
        ),
        ExperimentRow::new(
            "peak shed level (adaptive hysteresis, cap 8)",
            Some(8.0),
            report.stats.peak_shed_level as f64,
        ),
        ExperimentRow::new(
            "peak per-tenant queue depth (bound = 64)",
            Some(64.0),
            report.stats.peak_tenant_queue as f64,
        ),
        ExperimentRow::new(
            "worker stalls timed out by the watchdog (must equal injected = 1)",
            Some(1.0),
            report.stats.stalls as f64,
        ),
        ExperimentRow::new(
            "stalled fingerprints recovered through the quarantine",
            Some(1.0),
            report.stats.recovered as f64,
        ),
        ExperimentRow::new(
            "worker counts with bit-identical decision digests",
            Some(worker_counts.len() as f64),
            worker_counts.len() as f64,
        ),
        ExperimentRow::new("p50 ticket latency, logical ticks", None, p50 as f64),
        ExperimentRow::new("p99 ticket latency, logical ticks", None, p99 as f64),
        ExperimentRow::new(
            "async serving throughput, requests/s",
            None,
            report.requests() as f64 / report.serve_wall.as_secs_f64().max(1e-9),
        ),
    ]
}

/// E16 — a million-request overload trace through the async front end with
/// injected worker-stall / slow-lookup / ingress-burst faults, replayed at
/// 1, 2 and 4 workers (decision digests must match bit-for-bit).  See
/// `async_overload_rows` for the asserted contracts.
pub fn e16_async_overload() -> Vec<ExperimentRow> {
    async_overload_rows(
        32,
        125_000,
        500_000,
        2_000,
        Duration::from_millis(80),
        1_000_000,
        &[1, 2, 4],
    )
}

/// E16s — the seconds-not-minutes CI smoke of E16: a ~12 000-request
/// overload replay with the same injected stall, slow lookup and burst,
/// digest-checked at 1 and 2 workers under the workflow's hard timeout.
pub fn e16s_smoke() -> Vec<ExperimentRow> {
    async_overload_rows(
        16,
        1_500,
        6_000,
        300,
        Duration::from_millis(40),
        12_000,
        &[1, 2],
    )
}

/// Shared driver of E17 and its CI smoke `e17s`: replays the E16 overload
/// scenario with the unified observability layer (`fsw_obs`) threaded
/// through the whole request path, and asserts the instrumentation
/// contract:
///
/// 1. **non-interference** — the instrumented decision digest is
///    bit-identical to a registry-disabled replay of the same timeline,
///    and stays bit-identical across every worker count;
/// 2. **exactness** — the registry counters of ingress, completions and
///    every reject and degrade kind equal the tallies recomputed from the
///    replay's per-ticket outcomes, and the logical-tick latency histogram
///    reproduces the replay's nearest-rank percentiles;
/// 3. **sketch accuracy** — per-tenant request/shed/degrade tallies
///    decoded from the traffic sketches never undercount, peeled tenants
///    are exact, and every overestimate respects the count-min bound
///    `err · width ≤ 4 · total`;
/// 4. **overhead** — in the best of N back-to-back pairs the instrumented
///    wall time stays within 5% (plus a small absolute grace) of the
///    disabled one; the table reports the median over the pairs of the
///    ungraced ratio minus one.
#[allow(clippy::too_many_arguments)]
fn observed_overload_rows(
    tenants: usize,
    steps: usize,
    burst_ordinal: u64,
    burst_extra: usize,
    stall_timeout: Duration,
    floor_requests: usize,
    worker_counts: &[usize],
    timing_runs: usize,
) -> Vec<ExperimentRow> {
    let (trace, frontend, faults) = overload_scenario(
        tenants,
        steps,
        burst_ordinal,
        burst_extra,
        stall_timeout,
        worker_counts[0],
    );
    let run = |workers: usize, metrics: Option<Arc<MetricsRegistry>>| -> TraceReport {
        let config = ServeReplayConfig {
            frontend: Some(FrontendConfig {
                workers,
                ..frontend
            }),
            faults: faults.clone(),
            metrics,
            ..ServeReplayConfig::default()
        };
        replay_trace(&trace, &config).expect("async replay")
    };
    // The two arms run back-to-back inside each iteration, and the
    // overhead contract is asserted *pairwise*: an iteration's
    // instrumented wall is compared to the disabled wall measured moments
    // before it, and the bound must hold for at least one pair.  On a
    // shared single-CPU container an external load spike would have to
    // hit the instrumented half of every pair (while sparing each paired
    // disabled half) to fail the bound spuriously; per-arm minima remain
    // the reported walls.
    let mut disabled_wall = Duration::MAX;
    let mut baseline = None;
    let mut observed_wall = Duration::MAX;
    let mut observed = None;
    let mut best_pair_ratio = f64::MAX;
    let mut pair_overheads = Vec::with_capacity(timing_runs.max(1));
    for _ in 0..timing_runs.max(1) {
        let report = run(worker_counts[0], None);
        let pair_disabled = report.serve_wall;
        disabled_wall = disabled_wall.min(pair_disabled);
        baseline = Some(report);
        let registry = Arc::new(MetricsRegistry::new());
        let report = run(worker_counts[0], Some(Arc::clone(&registry)));
        let graced = pair_disabled + Duration::from_millis(25);
        best_pair_ratio =
            best_pair_ratio.min(report.serve_wall.as_secs_f64() / graced.as_secs_f64().max(1e-9));
        pair_overheads
            .push(report.serve_wall.as_secs_f64() / pair_disabled.as_secs_f64().max(1e-9) - 1.0);
        observed_wall = observed_wall.min(report.serve_wall);
        observed = Some((report, registry));
    }
    let baseline = baseline.expect("at least one disabled run");
    let (report, registry) = observed.expect("at least one instrumented run");
    assert!(report.requests() >= floor_requests, "trace too small");

    // 1. Non-interference: attaching the registry must not steer a single
    // decision, and the instrumented digest must stay worker-count
    // independent (wall-clock span durations never feed the digest).
    let digest = baseline.digest();
    assert_eq!(
        digest,
        report.digest(),
        "instrumentation changed a replay decision"
    );
    for &workers in &worker_counts[1..] {
        let other = run(workers, Some(Arc::new(MetricsRegistry::new())));
        assert_eq!(
            digest,
            other.digest(),
            "instrumented replay diverged at workers={workers}"
        );
    }

    // 2. Exactness: the service counts every event once, in the registry;
    // each count equals the tally recomputed from the per-ticket outcomes.
    let snap = registry.snapshot();
    let tickets = report.requests() as u64;
    let tally = |wanted: fn(Disposition) -> bool| {
        report
            .outcomes
            .iter()
            .filter(|outcome| wanted(outcome.disposition))
            .count() as u64
    };
    let exact_counters: Vec<(&str, u64)> = vec![
        ("frontend.ingress", tickets),
        ("frontend.completions", tickets),
        (
            "frontend.queue_full_sheds",
            tally(|d| d == Disposition::QueueFull),
        ),
        (
            "frontend.backpressure_sheds",
            tally(|d| matches!(d, Disposition::Shed { .. })),
        ),
        (
            "frontend.admission_rejects",
            tally(|d| d == Disposition::AdmissionCost),
        ),
        (
            "frontend.quarantine_rejects",
            tally(|d| d == Disposition::Quarantined),
        ),
        (
            "frontend.deadline_cancels",
            tally(|d| d == Disposition::DeadlineExpired),
        ),
        ("frontend.degraded", tally(|d| d == Disposition::Degraded)),
    ];
    for (name, want) in &exact_counters {
        assert_eq!(
            snap.counter(name),
            Some(*want),
            "registry counter {name} diverges from the ticket outcomes"
        );
    }
    assert_eq!(
        snap.counter("frontend.tick.calls"),
        Some(report.ticks),
        "one tick span per logical tick"
    );
    assert!(
        snap.counter("serve.cold_solve.calls").unwrap_or(0) > 0,
        "cold solves must trace through the solve span"
    );
    assert!(
        snap.counter("admission.decide.calls").unwrap_or(0) > 0,
        "admission pricing must trace through its span"
    );
    // The registry's latency histogram reproduces the replay percentiles
    // of the *disabled* baseline — same logical timeline, same quantiles.
    let latency = snap
        .histogram("frontend.latency_ticks")
        .expect("latency histogram missing from the snapshot");
    assert_eq!(latency.count, tickets);
    assert_eq!(latency.p50, baseline.latency_tick_percentile(50.0));
    assert_eq!(latency.p99, baseline.latency_tick_percentile(99.0));
    assert_eq!(latency.max, baseline.latency_tick_percentile(100.0));

    // 3. Sketch accuracy vs the exact per-tenant tallies of the outcomes.
    let mut exact_requests: BTreeMap<u64, u64> = BTreeMap::new();
    let mut exact_sheds: BTreeMap<u64, u64> = BTreeMap::new();
    let mut exact_degrades: BTreeMap<u64, u64> = BTreeMap::new();
    for outcome in &report.outcomes {
        let tenant = outcome.tenant as u64;
        *exact_requests.entry(tenant).or_default() += 1;
        if outcome.disposition.is_shed() {
            *exact_sheds.entry(tenant).or_default() += 1;
        }
        if outcome.disposition == Disposition::Degraded {
            *exact_degrades.entry(tenant).or_default() += 1;
        }
    }
    let population: Vec<u64> = exact_requests.keys().copied().collect();
    let mut peeled = 0usize;
    let mut residue = 0usize;
    let mut max_err = 0u64;
    for (name, exact) in [
        ("tenant.requests", &exact_requests),
        ("tenant.sheds", &exact_sheds),
        ("tenant.degrades", &exact_degrades),
    ] {
        let shape = snap
            .sketches
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| *s)
            .unwrap_or_else(|| panic!("sketch {name} missing from the snapshot"));
        let sketch = registry.sketch(name, shape.depth, shape.width);
        let total: u64 = exact.values().sum();
        assert_eq!(sketch.total(), total, "sketch {name}: total diverges");
        let decoded = sketch.decode(&population);
        for &tenant in &population {
            let truth = exact.get(&tenant).copied().unwrap_or(0);
            let estimate = decoded[&tenant];
            assert!(
                estimate.estimate >= truth,
                "sketch {name}: tenant {tenant} undercounted ({} < {truth})",
                estimate.estimate
            );
            let err = estimate.estimate - truth;
            if estimate.exact {
                assert_eq!(
                    err, 0,
                    "sketch {name}: peeled tenant {tenant} must be exact"
                );
                peeled += 1;
            } else {
                residue += 1;
            }
            assert!(
                err.saturating_mul(shape.width as u64) <= 4 * total,
                "sketch {name}: tenant {tenant} overshoots the count-min \
                 bound (err {err}, total {total}, width {})",
                shape.width
            );
            max_err = max_err.max(err);
        }
    }

    // 4. Overhead: < 5% (plus a small absolute grace for timer noise on
    // the short smoke runs), asserted on the best back-to-back pair.
    assert!(
        best_pair_ratio <= 1.05,
        "instrumentation overhead out of budget: best pair ratio \
         {best_pair_ratio:.4} (min walls: {observed_wall:?} instrumented \
         vs {disabled_wall:?} disabled)"
    );
    // The reported figure is the pairs' median, without the grace: the
    // graced best pair bounds the cost from below, not its size.
    pair_overheads.sort_by(f64::total_cmp);
    let mid = pair_overheads.len() / 2;
    let median_overhead = if pair_overheads.len() % 2 == 1 {
        pair_overheads[mid]
    } else {
        (pair_overheads[mid - 1] + pair_overheads[mid]) / 2.0
    };

    vec![
        ExperimentRow::new(
            "tickets resolved with full instrumentation (floor = acceptance minimum)",
            Some(floor_requests as f64),
            report.requests() as f64,
        ),
        ExperimentRow::new(
            "registry counters equal to tallies recomputed from the ticket outcomes",
            Some(exact_counters.len() as f64),
            exact_counters.len() as f64,
        ),
        ExperimentRow::new(
            "registry-derived p50 ticket latency, logical ticks",
            None,
            latency.p50 as f64,
        ),
        ExperimentRow::new(
            "registry-derived p99 ticket latency, logical ticks",
            None,
            latency.p99 as f64,
        ),
        ExperimentRow::new(
            "per-tenant sketch tallies decoded exactly (peeling)",
            None,
            peeled as f64,
        ),
        ExperimentRow::new(
            "per-tenant sketch tallies on the count-min fallback",
            None,
            residue as f64,
        ),
        ExperimentRow::new(
            "max sketch overestimate, events (err·width ≤ 4·total asserted)",
            None,
            max_err as f64,
        ),
        ExperimentRow::new(
            "instrumentation wall overhead, median of pairs, percent (best pair < 5 asserted)",
            Some(5.0),
            median_overhead * 100.0,
        ),
        ExperimentRow::new(
            "worker counts with bit-identical instrumented digests",
            Some(worker_counts.len() as f64),
            worker_counts.len() as f64,
        ),
    ]
}

/// E17 — the E16 overload replay with the unified observability layer on:
/// registry counters equal to the per-ticket outcome tallies, sketch-decoded
/// per-tenant rates inside the count-min bound, < 5% wall overhead, and
/// decision digests bit-identical to the uninstrumented replay at 1, 2
/// and 4 workers.  See `observed_overload_rows`.
pub fn e17_observability() -> Vec<ExperimentRow> {
    observed_overload_rows(
        32,
        125_000,
        500_000,
        2_000,
        Duration::from_millis(80),
        1_000_000,
        &[1, 2, 4],
        3,
    )
}

/// E17s — the seconds-not-minutes CI smoke of E17: the e16s-scale
/// overload replay with full instrumentation, digest-checked against the
/// disabled baseline and across 1/2 workers.
pub fn e17s_smoke() -> Vec<ExperimentRow> {
    observed_overload_rows(
        16,
        1_500,
        6_000,
        300,
        Duration::from_millis(40),
        12_000,
        &[1, 2],
        3,
    )
}

/// E10s — a seconds-not-minutes smoke version of the E10 scaling study
/// (`n = 4`, full-DAG MINLATENCY enumeration included), used by CI to catch
/// performance regressions in the prune-and-memoise search engine: the run
/// exercises the branch-and-bound forest enumeration, the seeded DAG phase
/// and the memoised ordering searches end to end.
pub fn e10s_smoke() -> Vec<ExperimentRow> {
    let mut rng = StdRng::seed_from_u64(10);
    let budget = SearchBudget {
        dag_enumeration_max_n: 4,
        ..SearchBudget::default()
    };
    let mut rows = Vec::new();
    for n in [4, 5] {
        let app = query_optimization(n, &mut rng);
        let period = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinPeriod),
            &budget,
        )
        .expect("solver");
        rows.push(ExperimentRow::new(
            format!("MINPERIOD OVERLAP n={n}: exhaustive forests"),
            None,
            period.value,
        ));
        let latency = solve(
            &Problem::new(&app, CommModel::Overlap, Objective::MinLatency),
            &budget,
        )
        .expect("solver");
        rows.push(ExperimentRow::new(
            format!("MINLATENCY n={n}: exhaustive forests (+ DAGs at n=4)"),
            None,
            latency.value,
        ));
        let inorder = solve(
            &Problem::new(&app, CommModel::InOrder, Objective::MinPeriod),
            &budget,
        )
        .expect("solver");
        rows.push(ExperimentRow::new(
            format!("MINPERIOD INORDER n={n}: exhaustive forests (lower-bound eval)"),
            None,
            inorder.value,
        ));
    }
    // Symmetry-reduced smoke: a uniform-weight instance at n = 9, where the
    // raw space (387M parent functions) dwarfs the 2M cap but the canonical
    // space (719 classes) makes the default budget exhaustive.  Guards the
    // canonical enumeration path against perf and correctness regressions.
    let uniform = uniform_query_optimization(9, &mut rng);
    let solution = solve(
        &Problem::new(&uniform, CommModel::Overlap, Objective::MinPeriod),
        &budget,
    )
    .expect("solver");
    rows.push(ExperimentRow::new(
        format!(
            "MINPERIOD OVERLAP n=9 uniform: canonical space{}",
            if solution.exhaustive {
                " (exhaustive)"
            } else {
                " (heuristic!)"
            }
        ),
        None,
        solution.value,
    ));
    // Partial-symmetry smoke: a 5+4 tiered (two weight classes) instance at
    // n = 9 — the raw space is the same 387M parent functions, but the
    // class-preserving orbit space (~50k coloured classes) keeps the default
    // budget exhaustive.  Guards the classed enumeration path.
    let tiered = tiered_query_optimization(&[5, 4], &mut rng);
    let solution = solve(
        &Problem::new(&tiered, CommModel::Overlap, Objective::MinPeriod),
        &budget,
    )
    .expect("solver");
    rows.push(ExperimentRow::new(
        format!(
            "MINPERIOD OVERLAP n=9 tiered 5+4: classed space{}",
            if solution.exhaustive {
                " (exhaustive)"
            } else {
                " (heuristic!)"
            }
        ),
        None,
        solution.value,
    ));
    // Streamed-walk smoke: the same tiered instance through the default
    // solve path, which streams its classed space bound-first.  Its value
    // is *asserted* equal to a first-minimum scan over the materialised
    // classed representatives (the oracle the equivalence suites use), and
    // its telemetry is pinned as a row — so a regression in the streamed
    // path (wrong winner, runaway expansion, broken telemetry) fails CI
    // inside the existing smoke timeout.
    let scan_value = overlap_scan_minimum(&tiered, budget.max_graphs);
    let (lazy, stats) = solve_warm_observed(
        &Problem::new(&tiered, CommModel::Overlap, Objective::MinPeriod),
        &budget,
        &EvalCache::new(&tiered),
        None,
        None,
    )
    .expect("solver");
    assert_eq!(
        lazy.value, scan_value,
        "streamed walk must reproduce the materialised classed scan's value bit-for-bit"
    );
    rows.push(ExperimentRow::new(
        "MINPERIOD OVERLAP n=9 tiered 5+4: streamed value (paper column = materialised classed scan)",
        Some(scan_value),
        lazy.value,
    ));
    let stream = stats
        .stream
        .expect("the default budget routes tiered n=9 through the lazy stream");
    assert!(
        stream.peak_resident <= Exec::threaded(budget.threads).effective_threads(),
        "resident representatives must stay under the worker count"
    );
    rows.push(ExperimentRow::new(
        format!(
            "MINPERIOD OVERLAP n=9 tiered 5+4: lazy stream expanded ({} shapes; \
             paper column = coloured orbits)",
            stream.shapes
        ),
        orbit_total(&tiered).map(|o| o as f64),
        stream.expanded as f64,
    ));
    // Serving-throughput smoke: 12 tenants from 3 templates hit the plan
    // service twice — the first round pays the cold solves (deduplicated by
    // fingerprint), the repeat round must be served entirely from the store
    // at well over the asserted request rate.  Guards the fingerprint /
    // store / dedup path end to end in CI (the workflow's hard timeout
    // bounds the whole table).
    let tenants: Vec<fsw_core::Application> = serving_trace(
        &TraceConfig {
            tenants: 12,
            steps: 0,
            templates: 3,
            services_per_tenant: 5,
            mutation_rate: 0.0,
            requests_per_step: 1,
            ..TraceConfig::default()
        },
        &mut rng,
    )
    .admitted_apps();
    let service = PlanService::new(budget, 64);
    let batch: Vec<PlanRequest> = tenants
        .iter()
        .map(|app| PlanRequest::new(app.clone(), CommModel::Overlap, Objective::MinPeriod))
        .collect();
    let first_round = service.serve_batch(&batch).expect("validated tenants");
    let cold_solves = first_round
        .iter()
        .filter(|r| r.expect_exact().source == ServeSource::Cold)
        .count();
    assert!(
        cold_solves <= 3,
        "12 tenants from 3 templates must collapse to <= 3 cold solves"
    );
    let started = std::time::Instant::now();
    let repeat = service.serve_batch(&batch).expect("validated tenants");
    let elapsed = started.elapsed().as_secs_f64();
    assert!(
        repeat
            .iter()
            .all(|r| r.expect_exact().source == ServeSource::Store),
        "repeat round must be served from the store"
    );
    let cached_rps = repeat.len() as f64 / elapsed.max(1e-9);
    assert!(
        cached_rps >= 200.0,
        "cached path too slow: {cached_rps:.0} req/s"
    );
    rows.push(ExperimentRow::new(
        "serving smoke: cold solves for 12 tenants / 3 templates (cap 3)",
        Some(3.0),
        cold_solves as f64,
    ));
    rows.push(ExperimentRow::new(
        "serving smoke: cached-path throughput, req/s (floor 200)",
        Some(200.0),
        cached_rps,
    ));
    // Overload smoke (PR-8): admission control must price an oversized
    // instance (n = 24, all-distinct weights — raw space 24^24, no symmetry
    // to reduce it) and reject it in well under 10 ms, with the structural
    // count surfaced in the rejection; and a degrade-band instance (n = 8
    // all-distinct) must come back Degraded with `value >= lower_bound > 0`.
    let jumbo_specs: Vec<(f64, f64)> = (0..24)
        .map(|k| (1.0 + k as f64, 0.3 + 0.02 * k as f64))
        .collect();
    let jumbo = PlanRequest::new(
        fsw_core::Application::independent(&jumbo_specs),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    let started = std::time::Instant::now();
    let verdict = service.serve_one(&jumbo).expect("validated request");
    let reject_millis = started.elapsed().as_secs_f64() * 1e3;
    let rejection = verdict
        .rejection()
        .expect("n=24 all-distinct must be rejected");
    let estimate = rejection
        .estimate
        .as_deref()
        .expect("admission rejections carry the structural price");
    assert!(
        estimate.cost > service.admission().reject_cost,
        "the quoted cost must explain the rejection"
    );
    assert!(
        reject_millis < 10.0,
        "overload rejection took {reject_millis:.2} ms (cap 10 ms)"
    );
    rows.push(ExperimentRow::new(
        "overload smoke: n=24 reject latency, ms (cap 10)",
        Some(10.0),
        reject_millis,
    ));
    let degrade_specs: Vec<(f64, f64)> = (0..8)
        .map(|k| (1.0 + k as f64, 0.4 + 0.05 * k as f64))
        .collect();
    let degrade_req = PlanRequest::new(
        fsw_core::Application::independent(&degrade_specs),
        CommModel::Overlap,
        Objective::MinPeriod,
    );
    let outcome = service.serve_one(&degrade_req).expect("validated request");
    let fsw_serve::ServeOutcome::Degraded {
        response,
        lower_bound,
        gap,
    } = &outcome
    else {
        panic!("n=8 all-distinct must enter the degrade band, got {outcome:?}");
    };
    assert!(
        *lower_bound > 0.0 && response.value >= *lower_bound && *gap >= 0.0,
        "degraded answers must carry an admissible floor"
    );
    assert_eq!(
        service.store().non_exhaustive_len(),
        0,
        "degraded plans must never enter the store"
    );
    rows.push(ExperimentRow::new(
        "overload smoke: degraded value / certified floor (>= 1)",
        Some(1.0),
        response.value / lower_bound,
    ));
    // Uniform streamed smoke (PR-7): the materialise-then-scan uniform entry
    // point is gone, so the streamed value is *asserted* against a manual
    // depth-first scan over the materialised canonical representatives
    // (1 842 classes at n = 10) — the winner must stay bit-identical, and
    // the stream telemetry must be populated on the uniform fast path.
    let uniform10 = uniform_query_optimization(10, &mut rng);
    let depth_first_value = overlap_scan_minimum(&uniform10, budget.max_graphs);
    let (streamed, stats) = solve_warm_observed(
        &Problem::new(&uniform10, CommModel::Overlap, Objective::MinPeriod),
        &budget,
        &EvalCache::new(&uniform10),
        None,
        None,
    )
    .expect("solver");
    assert!(streamed.exhaustive, "uniform n=10 fits the default budget");
    assert_eq!(
        streamed.value, depth_first_value,
        "streamed uniform walk must reproduce the materialised depth-first \
         scan's value bit-for-bit"
    );
    let stream = stats
        .stream
        .expect("the uniform path always routes through the lazy stream");
    assert!(
        stream.peak_resident >= 1
            && stream.peak_resident <= Exec::threaded(budget.threads).effective_threads(),
        "uniform stream telemetry must be populated and bounded"
    );
    rows.push(ExperimentRow::new(
        format!(
            "MINPERIOD OVERLAP n=10 uniform: streamed value ({} shapes, {} \
             expanded; paper column = materialised depth-first scan)",
            stream.shapes, stream.expanded
        ),
        Some(depth_first_value),
        streamed.value,
    ));
    rows
}

/// Runs one experiment by id (`"e1"` … `"e17"`, plus the `"e10s"`,
/// `"e16s"` and `"e17s"` CI smokes).
pub fn run_experiment(id: &str) -> Option<(&'static str, Vec<ExperimentRow>)> {
    match id {
        "e1" => Some(("E1 — Section 2.3 worked example", e1_section23())),
        "e2" => Some((
            "E2 — B.1: communication changes the optimal structure",
            e2_counterexample_b1(),
        )),
        "e3" => Some((
            "E3 — B.2: one-port vs multi-port latency",
            e3_counterexample_b2(),
        )),
        "e4" => Some((
            "E4 — B.3: one-port vs multi-port period",
            e4_counterexample_b3(),
        )),
        "e5" => Some((
            "E5 — Proposition 2 gadget (OUTORDER period)",
            e5_prop2_gadget(),
        )),
        "e6" => Some((
            "E6 — Proposition 9 gadget (fork-join latency)",
            e6_prop9_gadget(),
        )),
        "e7" => Some((
            "E7 — Proposition 13 gadget (MINLATENCY)",
            e7_prop13_gadget(),
        )),
        "e8" => Some((
            "E8 — polynomial special cases (chains, trees)",
            e8_polynomial_cases(),
        )),
        "e9" => Some((
            "E9 — Proposition 4: forests suffice for MINPERIOD",
            e9_forest_structure(),
        )),
        "e10" => Some(("E10 — scaling and heuristic quality", e10_scaling())),
        "e10s" => Some((
            "E10s — search-engine smoke benchmark (CI, seconds not minutes)",
            e10s_smoke(),
        )),
        "e11" => Some((
            "E11 — unified orchestrator across workload scenarios",
            e11_orchestrator_scenarios(),
        )),
        "e12" => Some((
            "E12 — symmetry-reduced exhaustive search on uniform weights",
            e12_symmetry_scaling(),
        )),
        "e13" => Some((
            "E13 — partial symmetry: multi-class exhaustive search",
            e13_partial_symmetry_scaling(),
        )),
        "e14" => Some((
            "E14 — serving throughput: fingerprint store, dedup and online re-planning",
            e14_serving(),
        )),
        "e15" => Some((
            "E15 — hardened serving under overload: admission, degradation, fault injection",
            e15_overload(),
        )),
        "e16" => Some((
            "E16 — async front end under a million-request overload with injected faults",
            e16_async_overload(),
        )),
        "e16s" => Some((
            "E16s — async overload smoke benchmark (CI, seconds not minutes)",
            e16s_smoke(),
        )),
        "e17" => Some((
            "E17 — unified observability: registry exactness, sketch accuracy, overhead",
            e17_observability(),
        )),
        "e17s" => Some((
            "E17s — observability smoke benchmark (CI, seconds not minutes)",
            e17s_smoke(),
        )),
        _ => None,
    }
}

/// Runs every experiment in order.
pub fn run_all() -> Vec<(&'static str, Vec<ExperimentRow>)> {
    [
        "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "e12", "e13", "e14",
        "e15", "e16", "e17",
    ]
    .iter()
    .filter_map(|id| run_experiment(id))
    .collect()
}
