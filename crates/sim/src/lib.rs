//! # fsw-sim — discrete-event simulation of filtering workflow plans
//!
//! Substrate crate of the reproduction: it *executes* plans instead of
//! analysing them, so every analytic result of `fsw-sched` can be
//! cross-validated against an independent code path.
//!
//! * [`simulate_inorder`] — greedy event-driven execution of the one-port
//!   `INORDER` discipline with synchronous rendezvous transfers; its measured
//!   steady-state period must match the maximum-cycle-ratio analysis.
//! * [`replay_oplist`] — unrolls an explicit operation list over a finite
//!   stream of data sets, re-checks every resource constraint on the absolute
//!   timeline (including multi-port bandwidth sharing) and reports the
//!   achieved completion times.
//! * [`replay_trace`] — replays a *serving trace* (tenants, requests and
//!   service-set mutations arriving over time) through the `fsw_serve`
//!   planning service, by either front door: one `serve_batch` per step,
//!   or the event loop (`fsw_serve::AsyncFrontend`) with bounded ingress
//!   queues, adaptive backpressure, deadline cancellation and stall
//!   watchdogs.  Ordinal-keyed faults and ingress bursts, online
//!   re-plans, optional shadow cold solves cross-validating every exact
//!   value bit-for-bit, and a worker-count-independent decision digest
//!   work the same on both.
//!
//! ```
//! use fsw_core::{Application, CommModel, ExecutionGraph};
//! use fsw_sched::overlap::overlap_period_oplist;
//! use fsw_sim::replay_oplist;
//!
//! let app = Application::independent(&[(4.0, 1.0); 5]);
//! let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
//! let oplist = overlap_period_oplist(&app, &graph).unwrap();
//! let report = replay_oplist(&app, &graph, &oplist, CommModel::Overlap, 64).unwrap();
//! assert_eq!(report.period, 4.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod measure;
pub mod oneport;
pub mod replay;
pub mod serve_replay;

pub use measure::SimReport;
pub use oneport::simulate_inorder;
pub use replay::replay_oplist;
pub use serve_replay::{
    replay_trace, Disposition, FaultPlan, RequestOutcome, RequestPath, ServeReplayConfig,
    TraceReport,
};
