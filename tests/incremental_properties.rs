//! Property-based equivalence suite for IPASIR-style assumption solving.
//!
//! The contract under test: for any formula F and assumption literals A,
//! `CdclSolver::solve_under_assumptions(A)` must agree with solving
//! `F ∧ (unit clauses for A)` from scratch — verified against two
//! independent oracles: the 64-way bit-packed brute-force solver and a plain
//! enumeration through the scalar `CnfFormula::evaluate`. On UNSAT the failed-assumption core must be a subset of A
//! that is already unsatisfiable together with F; on SAT the model must
//! satisfy F and every assumption. Learned clauses carried across calls must
//! never flip a later verdict.

use nbl_sat_repro::prelude::*;
use proptest::prelude::*;

/// Strategy: a random CNF formula with `1..=max_vars` variables and
/// `1..=max_clauses` clauses of 1–3 literals, plus `0..=4` assumption
/// literals over the same variables (duplicates and contradictory pairs
/// included on purpose).
fn arb_instance(
    max_vars: usize,
    max_clauses: usize,
) -> impl Strategy<Value = (CnfFormula, Vec<Literal>)> {
    (1..=max_vars).prop_flat_map(move |n| {
        let clause = proptest::collection::vec((0..n, proptest::bool::ANY), 1..=3);
        let clauses = proptest::collection::vec(clause, 1..=max_clauses);
        let assumptions = proptest::collection::vec((0..n, proptest::bool::ANY), 0..=4);
        (clauses, assumptions).prop_map(move |(clauses, assumptions)| {
            let mut formula = CnfFormula::new(n);
            for lits in clauses {
                formula.add_clause(
                    lits.into_iter()
                        .map(|(v, phase)| Literal::with_phase(Variable::new(v), phase)),
                );
            }
            let assumptions = assumptions
                .into_iter()
                .map(|(v, phase)| Literal::with_phase(Variable::new(v), phase))
                .collect();
            (formula, assumptions)
        })
    })
}

/// The assumption list re-encoded the pedestrian way: one unit clause each.
fn with_units(formula: &CnfFormula, assumptions: &[Literal]) -> CnfFormula {
    let mut augmented = formula.clone();
    for &lit in assumptions {
        augmented.add_clause([lit]);
    }
    augmented
}

/// The packed brute-force solver's verdict.
fn brute_is_sat(formula: &CnfFormula) -> bool {
    BruteForceSolver::new().solve(formula).is_sat()
}

/// The scalar oracle: every assignment through `CnfFormula::evaluate`.
fn enumerate_is_sat(formula: &CnfFormula) -> bool {
    Assignment::enumerate_all(formula.num_vars()).any(|a| formula.evaluate(&a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `solve_under_assumptions(A)` agrees with `F ∧ units(A)` under both
    /// oracles; SAT models verify, UNSAT cores refute.
    #[test]
    fn assumption_solve_matches_unit_clause_oracle((formula, assumptions) in arb_instance(6, 8)) {
        let oracle = with_units(&formula, &assumptions);
        let scalar = enumerate_is_sat(&oracle);
        prop_assert_eq!(scalar, brute_is_sat(&oracle));

        let mut solver = CdclSolver::new();
        solver.push(&formula);
        match solver.solve_under_assumptions(&assumptions, &SearchLimits::unlimited()) {
            IncrementalResult::Satisfiable(model) => {
                prop_assert!(scalar, "SAT claimed on an UNSAT oracle");
                prop_assert!(formula.evaluate(&model));
                for &lit in &assumptions {
                    prop_assert!(model.satisfies(lit), "assumption {lit} violated");
                }
            }
            IncrementalResult::Unsatisfiable(core) => {
                prop_assert!(!scalar, "UNSAT claimed on a SAT oracle");
                // The failed core is a subset of the call's assumptions…
                for lit in &core {
                    prop_assert!(assumptions.contains(lit), "core literal {lit} never assumed");
                }
                // …already unsatisfiable with the formula, under both oracles.
                let refuted = with_units(&formula, &core);
                prop_assert!(!enumerate_is_sat(&refuted));
                prop_assert!(!brute_is_sat(&refuted));
            }
            IncrementalResult::Unknown => {
                prop_assert!(false, "unlimited search returned Unknown");
            }
        }
    }

    /// Verdicts are stable across repeated calls on one solver: the learned
    /// clauses and saved phases carried over must never flip an answer.
    #[test]
    fn repeated_assumption_solves_are_stable((formula, assumptions) in arb_instance(6, 8)) {
        let oracle = brute_is_sat(&with_units(&formula, &assumptions));
        let mut solver = CdclSolver::new();
        solver.push(&formula);
        let limits = SearchLimits::unlimited();
        let first = solver.solve_under_assumptions(&assumptions, &limits);
        // An unrelated call in between perturbs activities and the clause DB.
        let _ = solver.solve_under_assumptions(&[], &limits);
        let second = solver.solve_under_assumptions(&assumptions, &limits);
        prop_assert_eq!(first.is_sat(), oracle);
        prop_assert_eq!(second.is_sat(), oracle);
    }

    /// A cube dispatched as assumptions decides exactly "is there a model in
    /// the cube's subspace" — the contract the shard coordinator relies on.
    #[test]
    fn cube_assumptions_decide_the_subspace((formula, assumptions) in arb_instance(5, 7)) {
        let cube = Cube::from_literals(assumptions);
        let expected = Assignment::enumerate_all(formula.num_vars())
            .any(|a| cube.evaluate(&a) && formula.evaluate(&a));
        let mut solver = CdclSolver::new();
        solver.push(&formula);
        let result =
            solver.solve_under_assumptions(&cube.to_assumptions(), &SearchLimits::unlimited());
        prop_assert_eq!(result.is_sat(), expected);
    }
}
