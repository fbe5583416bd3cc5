//! Baseline SAT solvers.
//!
//! The NBL-SAT paper positions its noise-based engine against the classical
//! SAT-solving landscape: complete search procedures (GRASP, Chaff, BerkMin,
//! MiniSat — i.e. DPLL and CDCL) and incomplete stochastic local search
//! (WalkSAT, GSAT, survey propagation). This crate implements representative
//! members of each family so the workspace can
//!
//! * cross-validate the NBL engines against exact oracles,
//! * provide the CPU-side solver of the hybrid CPU + NBL-coprocessor flow
//!   (paper §V), and
//! * serve as comparison baselines in the benchmark harness.
//!
//! Complete solvers: [`BruteForceSolver`], [`DpllSolver`], [`CdclSolver`] and
//! the polynomial special-case [`TwoSatSolver`]. Incomplete local search:
//! [`WalkSat`], [`Gsat`], [`Schoening`]. [`Portfolio`] dispatches across a
//! member list sequentially and [`ParallelPortfolio`] races the same member
//! list across OS threads — both stay complete as long as one member is. For
//! unsatisfiable instances, [`MusExtractor`] shrinks the clause set to a
//! minimal unsatisfiable core (the companion output of the hardware SAT
//! engines the paper cites as reference \[27\]).
//!
//! Solvers implement the common [`Solver`] trait and report search statistics
//! through [`SolverStats`]. Every solver also honours [`SearchLimits`] via
//! [`Solver::solve_limited`]: an expired wall-clock deadline — or a raised
//! cancellation token ([`SearchLimits::with_cancel`]) — interrupts the search
//! loop and yields [`SolveResult::Unknown`] instead of blocking, which is how
//! the unified solving API in `nbl-sat-core` enforces its resource budgets on
//! the classical backends and how the parallel portfolio stops its losing
//! members.
//!
//! # Example
//!
//! ```
//! use cnf::cnf_formula;
//! use sat_solvers::{CdclSolver, Solver, SolveResult};
//!
//! let formula = cnf_formula![[1, 2], [-1, -2], [1, -2]];
//! let mut solver = CdclSolver::new();
//! match solver.solve(&formula) {
//!     SolveResult::Satisfiable(model) => assert!(formula.evaluate(&model)),
//!     SolveResult::Unsatisfiable => unreachable!("this instance is satisfiable"),
//!     SolveResult::Unknown => unreachable!("CDCL is complete"),
//! }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod brute;
pub mod cdcl;
pub mod dpll;
pub mod gsat;
pub mod limits;
#[cfg(test)]
mod mode_differential;
pub mod mus;
pub mod parallel;
pub mod portfolio;
pub mod schoening;
pub mod score;
pub mod share;
pub mod solver;
pub mod two_sat;
pub mod walksat;

pub use brute::BruteForceSolver;
pub use cdcl::{CdclSolver, IncrementalResult};
pub use dpll::DpllSolver;
pub use gsat::{Gsat, GsatConfig};
pub use limits::SearchLimits;
pub use mus::{MusExtractor, MusOutcome, MusStats};
pub use parallel::ParallelPortfolio;
pub use portfolio::Portfolio;
pub use schoening::{Schoening, SchoeningConfig};
pub use score::FlipScorer;
pub use share::{PoolStats, ShareHandle, SharedClausePool, SharingConfig};
pub use solver::{SolveResult, Solver, SolverStats};
pub use two_sat::TwoSatSolver;
pub use walksat::{WalkSat, WalkSatConfig};
