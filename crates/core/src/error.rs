//! Error types for the core model.

use std::fmt;

/// Errors raised while building or querying the core model
/// (applications, execution graphs, metrics, operation lists).
#[derive(Debug, Clone, PartialEq)]
pub enum CoreError {
    /// A service index was out of range for the application / graph it was used with.
    InvalidService {
        /// The offending index.
        id: usize,
        /// Number of services in the container.
        n: usize,
    },
    /// A service was declared with a non-positive cost.
    NonPositiveCost {
        /// The offending service.
        id: usize,
        /// The cost that was rejected.
        cost: f64,
    },
    /// A service was declared with a negative selectivity.
    NegativeSelectivity {
        /// The offending service.
        id: usize,
        /// The selectivity that was rejected.
        selectivity: f64,
    },
    /// A self-loop edge `(i, i)` was requested.
    SelfLoop {
        /// The offending service.
        id: usize,
    },
    /// Adding an edge would create a directed cycle.
    WouldCreateCycle {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// The graph (or application constraint set) contains a directed cycle.
    CyclicGraph,
    /// The execution graph does not contain the application's precedence
    /// constraints in its transitive closure.
    MissingPrecedence {
        /// Constraint source.
        from: usize,
        /// Constraint target.
        to: usize,
    },
    /// The structure was expected to be a forest (each node has at most one
    /// direct predecessor) but is not.
    NotAForest,
    /// The structure was expected to be a chain but is not.
    NotAChain,
    /// The structure was expected to be a tree but is not.
    NotATree,
    /// A numeric argument was invalid (NaN, non-positive period, ...).
    InvalidNumber {
        /// Human-readable description of the offending quantity.
        what: &'static str,
        /// The rejected value.
        value: f64,
    },
    /// The graph and the application disagree on the number of services.
    SizeMismatch {
        /// Size the caller expected.
        expected: usize,
        /// Size actually found.
        found: usize,
    },
    /// An application with no services: there is nothing to plan.
    EmptyApplication,
    /// The input is valid but outside what the called operation supports
    /// (e.g. a constrained application handed to the online re-planning
    /// sessions, whose plan adaptation is forest-splice based).
    Unsupported {
        /// What the operation cannot handle.
        reason: &'static str,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidService { id, n } => {
                write!(f, "service index {id} out of range (n = {n})")
            }
            CoreError::NonPositiveCost { id, cost } => {
                write!(f, "service {id} has non-positive cost {cost}")
            }
            CoreError::NegativeSelectivity { id, selectivity } => {
                write!(f, "service {id} has negative selectivity {selectivity}")
            }
            CoreError::SelfLoop { id } => write!(f, "self-loop on service {id}"),
            CoreError::WouldCreateCycle { from, to } => {
                write!(f, "adding edge {from} -> {to} would create a cycle")
            }
            CoreError::CyclicGraph => write!(f, "graph contains a directed cycle"),
            CoreError::MissingPrecedence { from, to } => write!(
                f,
                "precedence constraint {from} -> {to} is not honoured by the execution graph"
            ),
            CoreError::NotAForest => write!(f, "execution graph is not a forest"),
            CoreError::NotAChain => write!(f, "execution graph is not a linear chain"),
            CoreError::NotATree => write!(f, "execution graph is not a tree"),
            CoreError::InvalidNumber { what, value } => {
                write!(f, "invalid value for {what}: {value}")
            }
            CoreError::SizeMismatch { expected, found } => {
                write!(
                    f,
                    "size mismatch: expected {expected} services, found {found}"
                )
            }
            CoreError::EmptyApplication => write!(f, "application has no services"),
            CoreError::Unsupported { reason } => write!(f, "unsupported: {reason}"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Convenience alias used across the crate.
pub type CoreResult<T> = Result<T, CoreError>;
