//! # fsw-core — the model of filtering streaming workflows
//!
//! Core data model for the reproduction of *"Mapping Filtering Streaming
//! Applications With Communication Costs"* (Agrawal, Benoit, Dufossé, Robert,
//! SPAA 2009).
//!
//! A filtering workflow is a set of **services**, each with a cost `c_i` and a
//! selectivity `σ_i`, linked by precedence constraints ([`Application`]).  A
//! **plan** maps the workflow onto a homogeneous platform (one service per
//! server); it is the combination of an [`ExecutionGraph`] — the DAG saying
//! who sends data to whom — and an [`OperationList`] — the cyclic timetable of
//! every computation and communication.  Three communication models
//! ([`CommModel`]) govern what a server may do simultaneously.
//!
//! This crate provides:
//!
//! * the model types ([`Service`], [`Application`], [`ExecutionGraph`],
//!   [`OperationList`], [`Plan`], [`CommModel`]);
//! * the volume metrics of Section 2.1 of the paper ([`PlanMetrics`]:
//!   `Cin`, `Ccomp`, `Cout`, `Cexec`, period lower bounds);
//! * an executable form of the Appendix A rule sets
//!   ([`validate_oplist`]) used by every scheduler and test in the workspace.
//!
//! ```
//! use fsw_core::{Application, CommModel, ExecutionGraph, PlanMetrics};
//!
//! // Section 2.3 of the paper: five services of cost 4 and selectivity 1.
//! let app = Application::independent(&[(4.0, 1.0); 5]);
//! let graph = ExecutionGraph::from_edges(5, &[(0, 1), (0, 3), (1, 2), (2, 4), (3, 4)]).unwrap();
//! let metrics = PlanMetrics::compute(&app, &graph).unwrap();
//! assert_eq!(metrics.period_lower_bound(CommModel::Overlap), 4.0);
//! assert_eq!(metrics.period_lower_bound(CommModel::InOrder), 7.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod canonical;
pub mod error;
pub mod fingerprint;
pub mod graph;
pub mod metrics;
pub mod model;
pub mod oplist;
pub mod service;
pub mod validate;

pub use canonical::{
    bound_ordered_shape_plan, canonical_classed_form, classed_class_count,
    classed_class_count_within, classed_forest_representatives, forest_classes, forest_graph,
    labelled_forests, split_shape_plan, ClassedCount, ClassedRepresentative, ColoringScratch,
    ColoringVisitor, ShapeBounder, ShapeObjective, ShapePlan, ShapeScan, ShapeStream,
    WeightClasses, COUNT_DENSE_LIMIT, SHAPE_CODE_MAX_N,
};
pub use error::{CoreError, CoreResult};
pub use fingerprint::{AppFingerprint, CanonicalApplication};
pub use graph::{ExecutionGraph, PackedGraph};
pub use metrics::{in_edges, out_edges, plan_edges, PartialForestMetrics, PlanMetrics};
pub use model::CommModel;
pub use oplist::{EdgeRef, Interval, OperationList, Plan};
pub use service::{Application, ApplicationBuilder, Service, ServiceId};
pub use validate::{
    validate_oplist, validate_oplist_with, ValidationOptions, Violation, DEFAULT_EPSILON,
};
