//! # fedsu-metrics
//!
//! Measurement machinery behind the paper's figures:
//!
//! * [`NormalizedDifference`] — Wang et al.'s update-similarity metric
//!   `‖δ_{t+1} − δ_t‖ / ‖δ_t‖` over per-round global updates (Fig. 2);
//! * [`Cdf`] — empirical cumulative distribution functions (Figs. 2b, 7);
//! * [`TrajectoryRecorder`] — per-round values of selected scalar
//!   parameters (Figs. 1, 6);
//! * [`linear_fit`] — least-squares line fit with R² (used to *quantify*
//!   trajectory linearity instead of eyeballing it);
//! * [`Table`] — fixed-width text tables for the bench harness output.

#![warn(missing_docs)]
// No panic paths in library code: an index, `expect`, `panic!` or
// `unreachable!` fails `cargo clippy` (test code is exempt, see clippy.toml).
#![deny(clippy::indexing_slicing, clippy::expect_used, clippy::panic, clippy::unreachable)]

mod cdf;
mod linreg;
mod normdiff;
mod plot;
mod recorder;
mod table;

pub use cdf::Cdf;
pub use plot::{sparkline, AsciiPlot};
pub use linreg::{linear_fit, LinearFit};
pub use normdiff::NormalizedDifference;
pub use recorder::TrajectoryRecorder;
pub use table::Table;
