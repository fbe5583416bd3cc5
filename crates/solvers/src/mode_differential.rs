//! Solver-level differential tests: for every stochastic local-search solver
//! and the brute-force enumerator, the packed production path must produce
//! results and statistics *bit-identical* to the scalar reference loop,
//! which only tests can reach.

use crate::solver::{trivial_answer, SolveResult, Solver};
use crate::{
    BruteForceSolver, Gsat, GsatConfig, Schoening, SchoeningConfig, SearchLimits, WalkSat,
    WalkSatConfig,
};
use cnf::generators::{self, RandomKSatConfig};
use cnf::{Clause, CnfFormula};

/// One search loop of a solver `S`: its packed production loop or the
/// scalar oracle that loop must match bit for bit.
pub(crate) type Search<S> = fn(&mut S, &CnfFormula, &SearchLimits) -> SolveResult;

/// Seeds of the stochastic solvers.
const SEEDS: [u64; 4] = [0, 7, 17, 42];

/// A small mixed bag of instances: worked paper examples, random 3-SAT at
/// two densities, and unsatisfiable instances.
fn test_instances() -> Vec<CnfFormula> {
    let mut instances = vec![
        generators::example6_sat(),
        generators::example7_unsat(),
        generators::section4_sat_instance(),
        generators::section4_unsat_instance(),
    ];
    for seed in 0..4u64 {
        instances.push(
            generators::random_ksat(&RandomKSatConfig::new(16, 60, 3).with_seed(seed)).unwrap(),
        );
    }
    for seed in 0..3u64 {
        instances.push(
            generators::random_ksat(&RandomKSatConfig::new(14, 50, 3).with_seed(seed)).unwrap(),
        );
    }
    instances
}

/// Solves every instance with a fresh solver through [`Solver::solve`] and
/// another through the `scalar` oracle, and asserts the results and stats
/// match exactly.
fn assert_matches_oracle<S: Solver>(
    instances: &[CnfFormula],
    make: impl Fn() -> S,
    scalar: impl Fn(&mut S, &CnfFormula) -> SolveResult,
) {
    for (i, formula) in instances.iter().enumerate() {
        let mut oracle = make();
        let mut packed = make();
        let expected = scalar(&mut oracle, formula);
        let name = packed.name();
        assert_eq!(packed.solve(formula), expected, "{name} diverged on {i}");
        assert_eq!(
            packed.stats(),
            oracle.stats(),
            "{name} stats diverged on {i}"
        );
    }
}

/// The scalar oracle of a local-search solver behind the trivial answers its
/// `solve_limited` gives before searching.
fn local_search_oracle<S>(search: Search<S>) -> impl Fn(&mut S, &CnfFormula) -> SolveResult {
    move |solver, formula| {
        trivial_answer(formula)
            .unwrap_or_else(|| search(solver, formula, &SearchLimits::unlimited()))
    }
}

#[test]
fn walksat_modes_are_bit_identical() {
    for seed in SEEDS {
        assert_matches_oracle(
            &test_instances(),
            || {
                WalkSat::with_config(WalkSatConfig {
                    seed,
                    max_flips: 2_000,
                    max_restarts: 4,
                    ..WalkSatConfig::default()
                })
            },
            local_search_oracle(WalkSat::solve_scalar),
        );
    }
}

#[test]
fn gsat_modes_are_bit_identical() {
    for seed in SEEDS {
        assert_matches_oracle(
            &test_instances(),
            || {
                Gsat::with_config(GsatConfig {
                    seed,
                    max_flips: 500,
                    max_restarts: 4,
                    ..GsatConfig::default()
                })
            },
            local_search_oracle(Gsat::solve_scalar),
        );
    }
}

#[test]
fn schoening_modes_are_bit_identical() {
    for seed in SEEDS {
        assert_matches_oracle(
            &test_instances(),
            || {
                Schoening::with_config(SchoeningConfig {
                    seed,
                    max_restarts: 30,
                    ..SchoeningConfig::default()
                })
            },
            local_search_oracle(Schoening::solve_scalar),
        );
    }
}

#[test]
fn brute_force_modes_are_bit_identical() {
    let mut instances = test_instances();
    instances.push(CnfFormula::new(0));
    // 7 variables span two blocks of 64 minterms.
    instances.push(generators::random_ksat(&RandomKSatConfig::new(7, 30, 3).with_seed(4)).unwrap());
    let mut with_empty = CnfFormula::new(2);
    with_empty.push_clause(Clause::new());
    instances.push(with_empty);
    assert_matches_oracle(&instances, BruteForceSolver::new, |solver, formula| {
        solver.solve_scalar(formula, &SearchLimits::unlimited())
    });
}
