//! # fsw-bench — benchmark harness and experiment tables
//!
//! The library part holds the shared experiment drivers; the `experiments`
//! binary prints their tables (summarised in the README's "Paper results
//! reproduced"), and the `benchmark` binary (`src/bin/benchmark/`) measures
//! the repository's workloads end to end and layer by layer.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod experiments;

pub use experiments::{run_all, run_experiment, ExperimentRow};
