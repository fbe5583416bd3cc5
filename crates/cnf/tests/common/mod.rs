//! Formula strategies and renaming helpers shared by the canonical-layer
//! suites.

use cnf::{Clause, CnfFormula, Variable};
use proptest::prelude::*;

/// Small random formulas: up to 6 variables, up to 10 clauses of width ≤ 4.
/// Duplicate literals, duplicate clauses and tautologies are all reachable.
pub fn arb_formula() -> impl Strategy<Value = CnfFormula> {
    proptest::collection::vec(
        proptest::collection::vec((1u64..=6, proptest::bool::ANY), 1..5),
        0..10,
    )
    .prop_map(|clauses| {
        let dimacs: Vec<Vec<i64>> = clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&(var, neg)| if neg { -(var as i64) } else { var as i64 })
                    .collect()
            })
            .collect();
        CnfFormula::from_dimacs_clauses(&dimacs).expect("literals are non-zero and in range")
    })
}

/// Applies `perm` (old index → new index) to the variables of `formula`,
/// preserving polarities, and permutes clause order by rotating by `rot`.
pub fn permute(formula: &CnfFormula, perm: &[usize], rot: usize) -> CnfFormula {
    let mut clauses: Vec<Clause> = formula
        .iter()
        .map(|clause| {
            // Reverse the literal order too: literal order must not matter.
            clause
                .iter()
                .rev()
                .map(|lit| Variable::new(perm[lit.variable().index()]).literal(lit.phase()))
                .collect()
        })
        .collect();
    if !clauses.is_empty() {
        let shift = rot % clauses.len();
        clauses.rotate_left(shift);
    }
    CnfFormula::from_clauses(formula.num_vars(), clauses)
}

/// A permutation of `0..n` derived deterministically from `seed`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut perm: Vec<usize> = (0..n).collect();
    let mut state = seed | 1;
    for i in (1..n).rev() {
        // xorshift64* — deterministic, no external dependency.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        perm.swap(i, (state % (i as u64 + 1)) as usize);
    }
    perm
}
