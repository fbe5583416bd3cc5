//! IPASIR-style incremental solving sessions.
//!
//! A [`SolveSession`] owns a persistent solver instance across many related
//! queries: clauses are added in frames with [`SolveSession::push`] /
//! [`SolveSession::pop`], and each [`SolveSession::solve`] call answers for
//! the pushed clauses under per-call assumption literals ([`SessionCall`]).
//! Learned clauses, branching activities and saved phases survive between
//! calls — the throughput win the paper's §V coprocessor deployment assumes
//! when a conventional solver steers hundreds of near-identical queries
//! (ATPG fault lists, miter equivalence sweeps) through one engine.
//!
//! The session speaks the same outcome language as the one-shot API: every
//! call returns a [`SolveOutcome`], with budget exhaustion and cancellation
//! surfacing as [`SolveVerdict::Unknown`] and an UNSAT-under-assumptions
//! verdict carrying its failed-assumption core in
//! [`SolveOutcome::failed_assumptions`].
//!
//! ```
//! use cnf::{cnf_formula, Literal};
//! use nbl_sat_core::{BackendRegistry, SessionCall};
//!
//! let mut session = BackendRegistry::default().open_session("cdcl")?;
//! session.push(&cnf_formula![[1, 2], [-1, 2]]);
//! let lit = |i| Literal::from_dimacs(i).unwrap();
//! let unsat = session.solve(&SessionCall::new().assumptions([lit(-2)]))?;
//! assert!(unsat.verdict.is_unsat());
//! assert!(!unsat.failed_assumptions.unwrap().is_empty());
//! let sat = session.solve(&SessionCall::new().assumptions([lit(1)]))?;
//! assert!(sat.verdict.is_sat());
//! # Ok::<(), nbl_sat_core::NblSatError>(())
//! ```

use crate::budget::{Budget, BudgetMeter};
use crate::error::{NblSatError, Result};
use crate::solve::outcome::{SolveOutcome, SolveStats, SolveVerdict, UnknownCause};
use cnf::{CnfFormula, Literal};
use sat_solvers::{CdclSolver, IncrementalResult, SearchLimits, Solver};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One incremental solve call: the assumption literals plus this call's own
/// resource [`Budget`] and cancellation tokens.
///
/// Mirrors the one-shot [`crate::SolveRequest`] builder, minus the formula —
/// the clauses live in the session.
#[derive(Debug, Clone, Default)]
pub struct SessionCall {
    assumptions: Vec<Literal>,
    budget: Budget,
    cancel: Vec<Arc<AtomicBool>>,
}

impl SessionCall {
    /// An assumption-free call with an unlimited budget.
    pub fn new() -> Self {
        SessionCall::default()
    }

    /// Sets the assumption literals for this call, in decision order.
    pub fn assumptions<I: IntoIterator<Item = Literal>>(mut self, assumptions: I) -> Self {
        self.assumptions = assumptions.into_iter().collect();
        self
    }

    /// Sets this call's resource budget (metered per call, not per session).
    pub fn budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Chains a cancellation token onto the call (tokens accumulate, like
    /// [`crate::SolveRequest::cancel_token`]).
    pub fn cancel_token(mut self, cancel: Arc<AtomicBool>) -> Self {
        self.cancel.push(cancel);
        self
    }

    /// The assumption literals, in the order they were given.
    pub fn requested_assumptions(&self) -> &[Literal] {
        &self.assumptions
    }

    /// This call's resource budget.
    pub fn requested_budget(&self) -> &Budget {
        &self.budget
    }

    /// The cancellation tokens chained onto this call.
    pub fn cancel_tokens(&self) -> &[Arc<AtomicBool>] {
        &self.cancel
    }

    /// Returns `true` once any chained cancellation flag was raised.
    pub fn cancelled(&self) -> bool {
        self.cancel.iter().any(|flag| flag.load(Ordering::Relaxed))
    }
}

/// A stateful backend that solves repeatedly over a pushed clause database.
///
/// The incremental counterpart of [`crate::SatBackend`]: instead of taking a
/// whole formula per request, the backend accumulates clause frames via
/// [`IncrementalBackend::push`] and answers [`SessionCall`]s against them,
/// retaining whatever internal state (learned clauses, heuristics) makes the
/// next call cheaper.
pub trait IncrementalBackend: std::fmt::Debug + Send {
    /// Stable identifier of the backend (matches the registry name).
    fn name(&self) -> &'static str;

    /// Pushes a frame of clauses; returns the new push depth (≥ 1).
    fn push(&mut self, formula: &CnfFormula) -> usize;

    /// Pops the most recent frame; `false` when no frame is open.
    fn pop(&mut self) -> bool;

    /// The number of currently open frames.
    fn depth(&self) -> usize;

    /// The number of variables the backend currently tracks.
    fn num_vars(&self) -> usize;

    /// Solves the pushed clauses under the call's assumptions and budget.
    ///
    /// # Errors
    ///
    /// Reserved for structural failures; budget exhaustion and cancellation
    /// are verdicts ([`SolveVerdict::Unknown`]), not errors.
    fn solve(&mut self, call: &SessionCall) -> Result<SolveOutcome>;
}

/// [`IncrementalBackend`] over the workspace CDCL solver — the engine behind
/// `BackendRegistry::open_session("cdcl")`.
#[derive(Debug, Default)]
pub struct CdclSessionBackend {
    solver: CdclSolver,
}

impl CdclSessionBackend {
    /// A session backend around a fresh CDCL solver.
    pub fn new() -> Self {
        CdclSessionBackend::default()
    }
}

impl IncrementalBackend for CdclSessionBackend {
    fn name(&self) -> &'static str {
        "cdcl"
    }

    fn push(&mut self, formula: &CnfFormula) -> usize {
        self.solver.push(formula)
    }

    fn pop(&mut self) -> bool {
        self.solver.pop()
    }

    fn depth(&self) -> usize {
        self.solver.push_depth()
    }

    fn num_vars(&self) -> usize {
        self.solver.num_vars()
    }

    fn solve(&mut self, call: &SessionCall) -> Result<SolveOutcome> {
        let started = Instant::now();
        let mut meter = BudgetMeter::start(call.requested_budget());
        let mut limits = match meter.deadline() {
            Some(deadline) => SearchLimits::with_deadline(deadline),
            None => SearchLimits::unlimited(),
        };
        for token in call.cancel_tokens() {
            meter = meter.with_cancel(Arc::clone(token));
            limits = limits.with_cancel(Arc::clone(token));
        }
        let result = self
            .solver
            .solve_under_assumptions(call.requested_assumptions(), &limits);
        let mut outcome = match result {
            IncrementalResult::Satisfiable(model) => {
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
                outcome.model = Some(model);
                outcome
            }
            IncrementalResult::Unsatisfiable(core) => {
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unsatisfiable);
                outcome.failed_assumptions = Some(core);
                outcome
            }
            IncrementalResult::Unknown => {
                // Cancellation outranks the deadline, as in the one-shot
                // adapters: a raised token is definitive caller intent.
                let cause = if meter.cancelled() {
                    UnknownCause::Cancelled
                } else {
                    match meter.ensure_time() {
                        Err(NblSatError::BudgetExhausted { resource }) => {
                            UnknownCause::BudgetExhausted(resource)
                        }
                        _ => UnknownCause::Incomplete,
                    }
                };
                let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Unknown(cause));
                outcome.exhausted = outcome.verdict.exhausted_resource();
                outcome
            }
        };
        outcome.stats.absorb_solver(&self.solver.stats());
        outcome.stats.wall_time = started.elapsed();
        Ok(outcome)
    }
}

/// A persistent incremental solving session with cumulative telemetry.
///
/// Obtained from [`crate::BackendRegistry::open_session`]; owns its backend
/// (and therefore the whole clause database and learned-clause store), counts
/// the calls made, and folds every call's [`SolveStats`] into a running
/// total so a sweep can report its aggregate cost.
#[derive(Debug)]
pub struct SolveSession {
    backend: Box<dyn IncrementalBackend>,
    calls: u64,
    cumulative: SolveStats,
}

impl SolveSession {
    /// Wraps an incremental backend in a session.
    pub fn new(backend: Box<dyn IncrementalBackend>) -> Self {
        SolveSession {
            backend,
            calls: 0,
            cumulative: SolveStats::default(),
        }
    }

    /// The backend's registry name.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Pushes a frame of clauses; returns the new push depth (≥ 1).
    pub fn push(&mut self, formula: &CnfFormula) -> usize {
        self.backend.push(formula)
    }

    /// Pops the most recent frame; `false` when no frame is open.
    pub fn pop(&mut self) -> bool {
        self.backend.pop()
    }

    /// The number of currently open frames.
    pub fn depth(&self) -> usize {
        self.backend.depth()
    }

    /// The number of variables the session currently tracks.
    pub fn num_vars(&self) -> usize {
        self.backend.num_vars()
    }

    /// Solves the pushed clauses under the call's assumptions, with the
    /// call's own budget.
    ///
    /// # Errors
    ///
    /// Structural failures of the backend only; see
    /// [`IncrementalBackend::solve`].
    pub fn solve(&mut self, call: &SessionCall) -> Result<SolveOutcome> {
        let outcome = self.backend.solve(call)?;
        self.calls += 1;
        self.cumulative.merge(&outcome.stats);
        self.cumulative.winner = outcome.stats.winner.or(self.cumulative.winner);
        Ok(outcome)
    }

    /// How many solve calls this session has answered.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// The summed statistics of every call so far.
    pub fn cumulative_stats(&self) -> &SolveStats {
        &self.cumulative
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cnf::cnf_formula;
    use cnf::generators;
    use std::time::Duration;

    fn lit(i: i64) -> Literal {
        Literal::from_dimacs(i).unwrap()
    }

    fn session() -> SolveSession {
        SolveSession::new(Box::new(CdclSessionBackend::new()))
    }

    #[test]
    fn session_round_trip_with_assumptions() {
        let mut session = session();
        assert_eq!(session.backend_name(), "cdcl");
        assert_eq!(session.push(&cnf_formula![[1, 2], [-1, 2]]), 1);
        let sat = session
            .solve(&SessionCall::new().assumptions([lit(1)]))
            .unwrap();
        assert!(sat.verdict.is_sat());
        let model = sat.model.expect("incremental SAT carries a model");
        assert!(model.satisfies(lit(1)));
        assert!(model.satisfies(lit(2)));
        assert!(sat.failed_assumptions.is_none());

        let unsat = session
            .solve(&SessionCall::new().assumptions([lit(-2)]))
            .unwrap();
        assert!(unsat.verdict.is_unsat());
        let core = unsat.failed_assumptions.expect("UNSAT under assumptions");
        assert_eq!(core, vec![lit(-2)]);
        assert_eq!(session.calls(), 2);
        assert!(session.cumulative_stats().decisions >= 1);
    }

    #[test]
    fn push_pop_lifecycle() {
        let mut session = session();
        session.push(&cnf_formula![[1]]);
        assert_eq!(session.depth(), 1);
        session.push(&cnf_formula![[-1]]);
        assert_eq!(session.depth(), 2);
        let unsat = session.solve(&SessionCall::new()).unwrap();
        assert!(unsat.verdict.is_unsat());
        assert_eq!(unsat.failed_assumptions, Some(Vec::new()));
        assert!(session.pop());
        assert_eq!(session.depth(), 1);
        assert!(session.solve(&SessionCall::new()).unwrap().verdict.is_sat());
        assert!(session.pop());
        assert!(!session.pop());
        assert!(session.num_vars() >= 1);
    }

    #[test]
    fn per_call_budget_and_cancellation() {
        let mut session = session();
        session.push(&generators::pigeonhole(7, 6));
        let tight = SessionCall::new().budget(Budget::unlimited().with_wall_time(Duration::ZERO));
        let outcome = session.solve(&tight).unwrap();
        assert_eq!(
            outcome.verdict.exhausted_resource(),
            Some(crate::budget::ExhaustedResource::WallClock)
        );
        assert!(outcome.exhausted.is_some());

        let flag = Arc::new(AtomicBool::new(true));
        let cancelled = SessionCall::new().cancel_token(Arc::clone(&flag));
        assert!(cancelled.cancelled());
        let outcome = session.solve(&cancelled).unwrap();
        assert!(outcome.verdict.is_cancelled());
        // The session stays usable after interrupted calls.
        let verdict = session.solve(&SessionCall::new()).unwrap().verdict;
        assert!(verdict.is_unsat());
        assert_eq!(session.calls(), 3);
    }

    /// Answers every call with the same statistics, every counter nonzero.
    #[derive(Debug)]
    struct FixedStatsBackend;

    fn fixed_stats() -> SolveStats {
        SolveStats {
            decisions: 1,
            conflicts: 2,
            propagations: 3,
            restarts: 4,
            learned_clauses: 5,
            assignments_tried: 6,
            flips: 7,
            coprocessor_checks: 8,
            samples: 9,
            winner: Some("fixed"),
            wall_time: Duration::from_micros(10),
            cache_hits: 11,
            preprocessed_vars_removed: 12,
            clauses_exported: 13,
            clauses_imported: 14,
            ..SolveStats::default()
        }
    }

    impl IncrementalBackend for FixedStatsBackend {
        fn name(&self) -> &'static str {
            "fixed"
        }
        fn push(&mut self, _formula: &CnfFormula) -> usize {
            1
        }
        fn pop(&mut self) -> bool {
            false
        }
        fn depth(&self) -> usize {
            0
        }
        fn num_vars(&self) -> usize {
            0
        }
        fn solve(&mut self, _call: &SessionCall) -> Result<SolveOutcome> {
            let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
            outcome.stats = fixed_stats();
            Ok(outcome)
        }
    }

    #[test]
    fn cumulative_stats_sum_every_counter() {
        let mut session = SolveSession::new(Box::new(FixedStatsBackend));
        session.solve(&SessionCall::new()).unwrap();
        session.solve(&SessionCall::new()).unwrap();
        let total = session.cumulative_stats();
        assert_eq!(total.decisions, 2);
        assert_eq!(total.conflicts, 4);
        assert_eq!(total.propagations, 6);
        assert_eq!(total.restarts, 8);
        assert_eq!(total.learned_clauses, 10);
        assert_eq!(total.assignments_tried, 12);
        assert_eq!(total.flips, 14);
        assert_eq!(total.coprocessor_checks, 16);
        assert_eq!(total.samples, 18);
        assert_eq!(total.winner, Some("fixed"));
        assert_eq!(total.wall_time, Duration::from_micros(20));
        assert_eq!(total.cache_hits, 22);
        assert_eq!(total.preprocessed_vars_removed, 24);
        assert_eq!(total.clauses_exported, 26);
        assert_eq!(total.clauses_imported, 28);
    }
}
