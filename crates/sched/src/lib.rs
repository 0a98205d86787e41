//! # fsw-sched — scheduling algorithms for filtering streaming workflows
//!
//! This crate implements the algorithmic content of *"Mapping Filtering
//! Streaming Applications With Communication Costs"* (Agrawal, Benoit,
//! Dufossé, Robert, SPAA 2009) on top of the model crate `fsw-core`:
//!
//! | paper result | module |
//! |--------------|--------|
//! | Theorem 1 / Prop. 1 — polynomial period orchestration for `OVERLAP` | [`overlap`] |
//! | Props. 2–3 — one-port period orchestration (NP-hard): event-graph analysis of fixed orderings, ordering search | [`oneport`] |
//! | `OUTORDER` orchestration via cyclic (modulo) scheduling | [`outorder`] |
//! | Theorem 3 — latency orchestration, one-port and bounded multi-port | [`latency`] |
//! | Proposition 12 / Algorithm 1 — tree latency | [`tree`] |
//! | Propositions 8 & 16 — chain-restricted MINPERIOD / MINLATENCY | [`chain`] |
//! | Theorem 2 — MINPERIOD solvers (exhaustive forests, DAGs, heuristics) | [`minperiod`] |
//! | Theorem 4 — MINLATENCY solvers | [`minlatency`] |
//! | Srivastava et al. no-communication baseline | [`baseline`] |
//! | prune-and-memoise search engine (incumbents, canonical ordering cache, symmetry-reduced enumeration) | [`engine`] |
//!
//! ```
//! use fsw_core::{Application, CommModel, ExecutionGraph};
//! use fsw_sched::overlap::overlap_period_oplist;
//! use fsw_sched::latency::oneport_latency_search;
//!
//! // The worked example of Section 2.3 of the paper.
//! let app = Application::independent(&[(4.0, 1.0); 5]);
//! let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
//!
//! let overlap = overlap_period_oplist(&app, &graph).unwrap();
//! assert_eq!(overlap.period(), 4.0);
//!
//! let latency = oneport_latency_search(&app, &graph, 1_000).unwrap();
//! assert_eq!(latency.latency, 21.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod baseline;
pub mod chain;
pub mod engine;
pub mod latency;
pub mod minlatency;
pub mod minperiod;
pub mod oneport;
pub mod orchestrator;
pub mod orderings;
pub mod outorder;
pub mod overlap;
pub mod par;
pub mod tree;

pub use chain::{chain_latency, chain_minlatency_order, chain_minperiod_order, chain_period};
pub use engine::{CanonicalSpace, EvalCache, Incumbent, PartialPrune};
pub use latency::{
    latency_lower_bound, multiport_proportional_latency, oneport_latency_for_orderings,
    oneport_latency_search, oneport_latency_search_bounded, LatencyEvaluator, LatencySearchResult,
};
pub use minlatency::minimize_latency;
pub use minperiod::{minimize_period, SearchOutcome};
pub use oneport::{
    inorder_oplist_for_orderings, inorder_period_for_orderings, oneport_period_search,
    oneport_period_search_bounded, OnePortStyle, OrderingSearchResult, PeriodEvaluator,
};
pub use orchestrator::{solve, solve_all, Objective, Problem, SearchBudget, Solution};
pub use orderings::{CommOrderings, OrderingSpace};
pub use outorder::{
    outorder_period_search, outorder_period_search_bounded, outorder_schedule_at, OutOrderResult,
};
pub use overlap::{overlap_period_lower_bound, overlap_period_oplist};
pub use par::Exec;
pub use tree::{tree_latency, tree_latency_orderings};
