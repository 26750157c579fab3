//! GPU architecture descriptions for the Fermi/Kepler SGEMM upper-bound study.
//!
//! This crate is the static knowledge base of the reproduction: it encodes the
//! architecture parameters from Table 1 of Lai & Seznec (CGO 2013) for the
//! three GPU generations the paper compares (GT200 / Fermi GF110 / Kepler
//! GK104), plus the derived quantities the analysis needs — theoretical peak
//! GFLOPS, issue and load/store throughput, occupancy limits, and the Kepler
//! register-bank mapping reverse-engineered in Section 3.3 of the paper.
//!
//! # Example
//!
//! ```
//! use peakperf_arch::{GpuConfig, Generation};
//!
//! let gtx580 = GpuConfig::gtx580();
//! assert_eq!(gtx580.generation, Generation::Fermi);
//! // Table 1: 1581 GFLOPS theoretical peak.
//! assert!((gtx580.theoretical_peak_gflops() - 1581.0).abs() < 1.0);
//! ```

mod banks;
mod config;
mod generation;
mod lds;
mod limits;
mod table1;

pub use banks::{register_bank, RegisterBank};
pub use config::GpuConfig;
pub use generation::Generation;
pub use lds::LdsWidth;
pub use limits::{BlockShape, OccupancyLimits, OccupancyResult};
pub use table1::{render_table1, Table1Row};

/// Number of threads in a warp on every generation this crate models.
pub const WARP_SIZE: u32 = 32;
