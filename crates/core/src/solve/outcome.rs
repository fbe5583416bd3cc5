//! The unified solve outcome: verdict, artifacts and merged telemetry.

use crate::budget::ExhaustedResource;
use crate::convergence::ConvergenceTrace;
use crate::engine::MeanEstimate;
use crate::hybrid::HybridStats;
use cnf::{Assignment, Cube, Literal};
use sat_solvers::SolverStats;
use std::fmt;
use std::time::Duration;

/// Why a backend answered [`SolveVerdict::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnknownCause {
    /// A resource budget ran out before the backend could decide.
    BudgetExhausted(ExhaustedResource),
    /// The solve was cancelled through a cancellation token (a per-job
    /// cancel, a service-wide abort) before the backend could decide.
    Cancelled,
    /// The backend is incomplete (stochastic local search, a scope-limited
    /// special case such as 2-SAT on wide clauses, or a statistical engine)
    /// and gave up within its own internal limits.
    Incomplete,
}

impl fmt::Display for UnknownCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnknownCause::BudgetExhausted(resource) => {
                write!(f, "budget exhausted ({resource})")
            }
            UnknownCause::Cancelled => write!(f, "cancelled"),
            UnknownCause::Incomplete => write!(f, "backend gave up (incomplete)"),
        }
    }
}

/// The unified verdict of a solve.
///
/// Unlike the low-level [`crate::Verdict`] (the binary answer of the NBL
/// check, Algorithm 1) this carries the third outcome a budgeted,
/// backend-agnostic API needs: `Unknown` with its cause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveVerdict {
    /// The instance is satisfiable.
    Satisfiable,
    /// The instance is unsatisfiable.
    Unsatisfiable,
    /// The backend could not decide; the cause says why.
    Unknown(UnknownCause),
}

impl SolveVerdict {
    /// Returns `true` for [`SolveVerdict::Satisfiable`].
    pub fn is_sat(self) -> bool {
        self == SolveVerdict::Satisfiable
    }

    /// Returns `true` for [`SolveVerdict::Unsatisfiable`].
    pub fn is_unsat(self) -> bool {
        self == SolveVerdict::Unsatisfiable
    }

    /// Returns `true` for either definitive verdict.
    pub fn is_definitive(self) -> bool {
        !matches!(self, SolveVerdict::Unknown(_))
    }

    /// Returns `true` for an `Unknown` caused by cancellation.
    pub fn is_cancelled(self) -> bool {
        matches!(self, SolveVerdict::Unknown(UnknownCause::Cancelled))
    }

    /// The exhausted resource, when the verdict is an `Unknown` caused by
    /// budget exhaustion.
    pub fn exhausted_resource(self) -> Option<ExhaustedResource> {
        match self {
            SolveVerdict::Unknown(UnknownCause::BudgetExhausted(resource)) => Some(resource),
            _ => None,
        }
    }
}

impl fmt::Display for SolveVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveVerdict::Satisfiable => write!(f, "SAT"),
            SolveVerdict::Unsatisfiable => write!(f, "UNSAT"),
            SolveVerdict::Unknown(cause) => write!(f, "UNKNOWN ({cause})"),
        }
    }
}

/// Merged telemetry of one solve, unifying the classical [`SolverStats`], the
/// hybrid flow's [`HybridStats`] and the NBL engines' [`MeanEstimate`]
/// telemetry under one roof.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SolveStats {
    /// Branching decisions (CPU-side search).
    pub decisions: u64,
    /// Conflicts / backtracks.
    pub conflicts: u64,
    /// Literals fixed by unit propagation.
    pub propagations: u64,
    /// Restarts (CDCL, local search).
    pub restarts: u64,
    /// Learned clauses (CDCL).
    pub learned_clauses: u64,
    /// Complete assignments tried (brute force, local-search restarts).
    pub assignments_tried: u64,
    /// Local-search flips.
    pub flips: u64,
    /// NBL coprocessor check operations (the paper's complexity metric).
    pub coprocessor_checks: u64,
    /// Noise samples drawn by the sampled engine across all checks.
    pub samples: u64,
    /// The final ⟨S_N⟩ estimate of the deciding NBL check, if one was made.
    pub last_estimate: Option<MeanEstimate>,
    /// The member that produced the answer (portfolio-style backends).
    pub winner: Option<&'static str>,
    /// Wall-clock time the solve took.
    pub wall_time: Duration,
    /// Answers served from the pipeline's verdict/model cache (1 for a
    /// single solve answered with zero backend dispatch; summed across jobs
    /// by aggregating front ends).
    pub cache_hits: u64,
    /// Variables the pipeline's preprocessing stage removed before dispatch.
    pub preprocessed_vars_removed: u64,
    /// Learned clauses published into a cooperative portfolio's shared
    /// clause pool, summed over every member.
    pub clauses_exported: u64,
    /// Clauses consumed from a cooperative portfolio's shared clause pool,
    /// summed over every member.
    pub clauses_imported: u64,
}

impl SolveStats {
    /// Folds a classical solver's statistics into the unified view.
    pub fn absorb_solver(&mut self, stats: &SolverStats) {
        self.decisions += stats.decisions;
        self.conflicts += stats.conflicts;
        self.propagations += stats.propagations;
        self.restarts += stats.restarts;
        self.learned_clauses += stats.learned_clauses;
        self.assignments_tried += stats.assignments_tried;
        self.flips += stats.flips;
        self.clauses_exported += stats.clauses_exported;
        self.clauses_imported += stats.clauses_imported;
        if stats.winner.is_some() {
            self.winner = stats.winner;
        }
    }

    /// Adds every counter of `other`, and its wall time, into `self`: the one
    /// way summed telemetry (a session's calls, a fleet's sub-solves) is
    /// folded. `last_estimate` and `winner` are left untouched.
    pub fn merge(&mut self, other: &SolveStats) {
        // Destructured without `..` so a new field cannot be silently skipped.
        let SolveStats {
            decisions,
            conflicts,
            propagations,
            restarts,
            learned_clauses,
            assignments_tried,
            flips,
            coprocessor_checks,
            samples,
            last_estimate: _,
            winner: _,
            wall_time,
            cache_hits,
            preprocessed_vars_removed,
            clauses_exported,
            clauses_imported,
        } = other;
        self.decisions += decisions;
        self.conflicts += conflicts;
        self.propagations += propagations;
        self.restarts += restarts;
        self.learned_clauses += learned_clauses;
        self.assignments_tried += assignments_tried;
        self.flips += flips;
        self.coprocessor_checks += coprocessor_checks;
        self.samples += samples;
        self.wall_time += *wall_time;
        self.cache_hits += cache_hits;
        self.preprocessed_vars_removed += preprocessed_vars_removed;
        self.clauses_exported += clauses_exported;
        self.clauses_imported += clauses_imported;
    }

    /// Folds the hybrid solver's statistics into the unified view.
    pub fn absorb_hybrid(&mut self, stats: &HybridStats) {
        self.decisions += stats.decisions;
        self.conflicts += stats.conflicts;
        self.propagations += stats.propagations;
        self.coprocessor_checks += stats.coprocessor_checks;
    }
}

impl fmt::Display for SolveStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} conflicts={} propagations={} restarts={} learned={} tried={} flips={} checks={} samples={} wall={:?}",
            self.decisions,
            self.conflicts,
            self.propagations,
            self.restarts,
            self.learned_clauses,
            self.assignments_tried,
            self.flips,
            self.coprocessor_checks,
            self.samples,
            self.wall_time,
        )?;
        if self.cache_hits > 0 {
            write!(f, " cache_hits={}", self.cache_hits)?;
        }
        if self.preprocessed_vars_removed > 0 {
            write!(f, " pre_vars_removed={}", self.preprocessed_vars_removed)?;
        }
        if self.clauses_exported > 0 || self.clauses_imported > 0 {
            write!(
                f,
                " exported={} imported={}",
                self.clauses_exported, self.clauses_imported
            )?;
        }
        if let Some(winner) = self.winner {
            write!(f, " winner={winner}")?;
        }
        if let Some(estimate) = &self.last_estimate {
            write!(f, " last_estimate=[{estimate}]")?;
        }
        Ok(())
    }
}

/// Everything a backend returns for one [`crate::SolveRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// The unified verdict.
    pub verdict: SolveVerdict,
    /// A satisfying assignment, when requested, found and affordable.
    pub model: Option<Assignment>,
    /// A satisfying prime-implicant cube, when requested and available.
    pub cube: Option<Cube>,
    /// Merged telemetry of the solve.
    pub stats: SolveStats,
    /// The sampled engine's convergence trace, when requested and available.
    pub trace: Option<ConvergenceTrace>,
    /// Set when a budget limit fired at any point — including artifact
    /// extraction after a definitive verdict, in which case the verdict is
    /// still definitive but the artifact is missing.
    pub exhausted: Option<ExhaustedResource>,
    /// The failed-assumption core of an incremental solve: a subset of the
    /// call's assumption literals already inconsistent with the formula.
    /// `Some` only when an assumption-aware backend answered
    /// [`SolveVerdict::Unsatisfiable`] under assumptions; an empty vector
    /// means the formula is unsatisfiable regardless of the assumptions.
    pub failed_assumptions: Option<Vec<Literal>>,
}

impl SolveOutcome {
    /// A bare outcome with the given verdict and default everything else.
    pub fn of_verdict(verdict: SolveVerdict) -> Self {
        SolveOutcome {
            verdict,
            model: None,
            cube: None,
            stats: SolveStats::default(),
            trace: None,
            exhausted: None,
            failed_assumptions: None,
        }
    }
}

impl fmt::Display for SolveOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.verdict)?;
        if let Some(model) = &self.model {
            write!(f, " model {model}")?;
        }
        if let Some(cube) = &self.cube {
            write!(f, " cube {cube}")?;
        }
        if let Some(core) = &self.failed_assumptions {
            write!(f, " failed-assumptions {{")?;
            for (i, lit) in core.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{lit}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, " [{}]", self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_accessors_and_display() {
        assert!(SolveVerdict::Satisfiable.is_sat());
        assert!(SolveVerdict::Satisfiable.is_definitive());
        assert!(SolveVerdict::Unsatisfiable.is_unsat());
        let unknown =
            SolveVerdict::Unknown(UnknownCause::BudgetExhausted(ExhaustedResource::WallClock));
        assert!(!unknown.is_definitive());
        assert_eq!(
            unknown.exhausted_resource(),
            Some(ExhaustedResource::WallClock)
        );
        assert_eq!(
            SolveVerdict::Unknown(UnknownCause::Incomplete).exhausted_resource(),
            None
        );
        assert_eq!(SolveVerdict::Satisfiable.to_string(), "SAT");
        assert!(unknown.to_string().contains("wall-clock"));
        assert!(SolveVerdict::Unknown(UnknownCause::Incomplete)
            .to_string()
            .contains("incomplete"));
    }

    #[test]
    fn stats_merge_solver_and_hybrid_views() {
        let mut stats = SolveStats::default();
        stats.absorb_solver(&SolverStats {
            decisions: 3,
            flips: 7,
            winner: Some("cdcl"),
            ..SolverStats::default()
        });
        stats.absorb_hybrid(&HybridStats {
            decisions: 2,
            conflicts: 1,
            propagations: 4,
            coprocessor_checks: 9,
        });
        assert_eq!(stats.decisions, 5);
        assert_eq!(stats.conflicts, 1);
        assert_eq!(stats.flips, 7);
        assert_eq!(stats.coprocessor_checks, 9);
        assert_eq!(stats.winner, Some("cdcl"));
        let rendered = stats.to_string();
        assert!(rendered.contains("decisions=5"));
        assert!(rendered.contains("winner=cdcl"));
    }

    #[test]
    fn merge_sums_every_counter_and_keeps_the_winner() {
        let part = SolveStats {
            decisions: 1,
            conflicts: 2,
            propagations: 3,
            restarts: 4,
            learned_clauses: 5,
            assignments_tried: 6,
            flips: 7,
            coprocessor_checks: 8,
            samples: 9,
            last_estimate: None,
            winner: Some("part"),
            wall_time: Duration::from_micros(10),
            cache_hits: 11,
            preprocessed_vars_removed: 12,
            clauses_exported: 13,
            clauses_imported: 14,
        };
        let mut total = SolveStats {
            winner: Some("total"),
            ..part.clone()
        };
        total.merge(&part);
        let expected = SolveStats {
            decisions: 2,
            conflicts: 4,
            propagations: 6,
            restarts: 8,
            learned_clauses: 10,
            assignments_tried: 12,
            flips: 14,
            coprocessor_checks: 16,
            samples: 18,
            last_estimate: None,
            winner: Some("total"),
            wall_time: Duration::from_micros(20),
            cache_hits: 22,
            preprocessed_vars_removed: 24,
            clauses_exported: 26,
            clauses_imported: 28,
        };
        assert_eq!(total, expected);
    }

    #[test]
    fn outcome_display_mentions_artifacts() {
        let mut outcome = SolveOutcome::of_verdict(SolveVerdict::Satisfiable);
        outcome.model = Some(Assignment::all_true(2));
        outcome.cube = Some(Cube::from_dimacs(&[1]).unwrap());
        let rendered = outcome.to_string();
        assert!(rendered.starts_with("SAT"));
        assert!(rendered.contains("model"));
        assert!(rendered.contains("cube"));
    }
}
