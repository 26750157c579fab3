//! The benchmark harness: regenerates every table and figure of the paper.
//!
//! Each experiment in [`experiments`] produces the same rows/series the
//! paper reports, printed next to the paper's reference values. The
//! `reproduce` binary exposes them as subcommands.

pub mod exec;
pub mod experiments;
pub mod fault;
pub mod ledger;
pub mod profiling;
pub mod report;
pub mod service;
pub mod telemetry;
