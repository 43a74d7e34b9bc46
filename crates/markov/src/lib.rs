//! # dtc-markov — Markov-chain solvers for dependability evaluation
//!
//! This crate is the numeric core of the `dtcloud` workspace, a reproduction
//! of *"Dependability Models for Designing Disaster Tolerant Cloud Computing
//! Systems"* (Silva et al., DSN 2013). It provides:
//!
//! * sparse CSR matrices ([`sparse`]),
//! * continuous-time Markov chains with steady-state solvers
//!   (power / Jacobi / Gauss–Seidel / SOR / dense direct) and transient
//!   solutions by uniformization ([`ctmc`], [`solve`], [`transient`]),
//!   including whole transient/interval curves from a single shared power
//!   march ([`curve`], instrumented via [`instrument`]),
//! * deterministic parallel kernels behind the march, the power method
//!   and level-scheduled Gauss–Seidel/SOR sweeps ([`par`], [`solve`]):
//!   fixed row blocks over scoped threads, bit-identical results at every
//!   thread count,
//! * discrete-time chains ([`dtmc`]),
//! * absorbing-chain analysis — mean time to absorption and absorption
//!   probabilities — for reliability/MTTF questions ([`absorbing`]).
//!
//! # Example
//!
//! ```
//! use dtc_markov::{CtmcBuilder, Method, SolverOptions};
//!
//! // A machine that fails (rate 1/1000h) and is repaired (rate 1/8h).
//! let mut b = CtmcBuilder::new(2);
//! b.rate(0, 1, 1.0 / 1000.0);
//! b.rate(1, 0, 1.0 / 8.0);
//! let chain = b.build()?;
//!
//! let (pi, stats) = chain.steady_state_with(Method::GaussSeidel, &SolverOptions::default())?;
//! println!("availability = {:.6} after {} sweeps", pi[0], stats.iterations);
//! assert!((pi[0] - 1000.0 / 1008.0).abs() < 1e-10);
//! # Ok::<(), dtc_markov::MarkovError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod absorbing;
pub mod ctmc;
pub mod cumulative;
pub mod curve;
pub mod dtmc;
pub mod error;
pub mod instrument;
pub mod par;
pub mod solve;
pub mod sparse;
pub mod transient;

pub use absorbing::{
    absorption_probabilities, mean_time_to_absorption, mean_time_to_absorption_iterative,
    AbsorptionAnalysis,
};
pub use ctmc::{Ctmc, CtmcBuilder};
pub use cumulative::{cumulative_reward, interval_availability};
pub use curve::{
    cumulative_reward_curve, interval_availability_curve, uniformized_pass,
    uniformized_pass_with, PassOptions, PassOutput, PassStats,
};
pub use dtmc::{Dtmc, DtmcBuilder};
pub use error::{MarkovError, Result};
pub use solve::{dot, Method, SolveStats, SolverOptions};
pub use sparse::{CooMatrix, CsrMatrix};
