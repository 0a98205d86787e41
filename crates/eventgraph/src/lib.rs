//! # fsw-eventgraph — timed event graphs for cyclic schedule analysis
//!
//! Substrate crate of the filtering-streaming-workflow reproduction: timed
//! event graphs (timed marked graphs), their **maximum cycle ratio** — the
//! minimum feasible period of the cyclic schedule they describe — earliest
//! firing schedules for a given period, and self-timed (ASAP) execution.
//!
//! The one-port communication models of the paper (`INORDER`, `OUTORDER`)
//! yield, once the communication orderings of each server are fixed, exactly
//! this kind of uniform cyclic precedence system; the scheduler crate
//! (`fsw-sched`) builds the event graph and this crate answers "what period
//! does that ordering achieve?".  An ordering search asks that question for
//! thousands of orderings of one plan: it keeps one graph per worker, swaps
//! its arcs per ordering ([`TimedEventGraph::clear_arcs`]) and runs the
//! analysis on one [`CycleScratch`], so a valuation allocates nothing.
//!
//! ```
//! use fsw_eventgraph::TimedEventGraph;
//!
//! // A two-stage pipeline where each stage needs 2 (resp. 3) time units and
//! // cannot overlap with itself.
//! let mut g = TimedEventGraph::with_durations(vec![2.0, 3.0]);
//! g.add_arc(0, 1, 0).unwrap();      // stage 0 feeds stage 1 (same data set)
//! g.add_arc(0, 0, 1).unwrap();      // stage 0 is busy until its previous firing finished
//! g.add_arc(1, 1, 1).unwrap();
//! assert_eq!(g.min_period().unwrap(), 3.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cycle_ratio;
pub mod error;
pub mod graph;
pub mod selftimed;

pub use cycle_ratio::{CycleRatio, CycleScratch, MaxRatio};
pub use error::EventGraphError;
pub use graph::{Arc, TimedEventGraph};
pub use selftimed::SelfTimedRun;
