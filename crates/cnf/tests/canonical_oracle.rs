//! Output-identity suite for [`cnf::canonicalize`]: the flat CSR
//! canonicalizer must return exactly the `(formula, kept)` pair of the
//! straightforward implementation kept below as the oracle, on every input,
//! including which inputs exhaust the leaf budget and take the input-order
//! fallback. Cache keys, model lifting and the formula every backend sees
//! all depend on that pair.

mod common;

use cnf::generators::{
    adder_equivalence_miter, buggy_adder_miter, graph_coloring, parity_chain, pigeonhole,
    random_ksat, section4_sat_instance, section4_unsat_instance, Graph, RandomKSatConfig,
};
use cnf::{canonicalize, normalize, simplify, CnfFormula};
use common::{arb_formula, permutation, permute};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The canonicalizer as first written: refinement over `Vec<Vec<_>>`
/// signatures ranked by binary search, and a search that refines each child
/// just before descending and encodes every leaf it meets, giving up at the
/// 65th. Kept verbatim (only `refine` and `lex_min_order` are visible to the
/// suite, to count leaves).
mod oracle {
    use cnf::{normalize, Clause, CnfFormula, Variable};

    pub(super) const CANONICAL_LEAF_BUDGET: usize = 64;

    /// Renames the occurring variables of `formula` to a dense canonical order
    /// and returns the renamed formula together with the order (new index →
    /// original variable).
    ///
    /// The order is computed by iterative signature refinement over the
    /// variable–clause incidence structure (a Weisfeiler–Lehman-style coloring
    /// that is invariant under variable renaming and clause/literal
    /// permutations); remaining ties are broken by a budgeted
    /// individualize-and-refine search for the lexicographically minimal
    /// encoding. Within the budget, two formulas differing only by a renaming
    /// produce the *same* canonical formula. Beyond it (pathologically symmetric
    /// inputs), the tie-break degrades to input order — still deterministic,
    /// merely not renaming-invariant.
    pub(super) fn canonicalize(formula: &CnfFormula) -> (CnfFormula, Vec<Variable>) {
        let vars = formula.occurring_variables();
        if vars.is_empty() {
            return (CnfFormula::new(0), Vec::new());
        }
        let mut local = vec![usize::MAX; formula.num_vars()];
        for (i, var) in vars.iter().enumerate() {
            local[var.index()] = i;
        }
        // Clauses as (local var, phase) pairs.
        let clauses: Vec<Vec<(usize, bool)>> = formula
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|lit| (local[lit.variable().index()], lit.phase()))
                    .collect()
            })
            .collect();
        let mut occurrences: Vec<Vec<(usize, bool)>> = vec![Vec::new(); vars.len()];
        for (c, clause) in clauses.iter().enumerate() {
            for &(v, phase) in clause {
                occurrences[v].push((c, phase));
            }
        }
        let colors = refine(&clauses, &occurrences, vec![0; vars.len()]);
        let order = if distinct(&colors) == vars.len() {
            order_by_color(&colors)
        } else {
            let mut budget = CANONICAL_LEAF_BUDGET;
            match lex_min_order(&clauses, &occurrences, &colors, &mut budget) {
                Some((_, order)) => order,
                // Budget exhausted: deterministic fallback by (color, input
                // index). Loses renaming invariance, never correctness.
                None => order_by_color(&colors),
            }
        };
        // `order[new] = local var index`; build the renamed formula.
        let mut rename = vec![0usize; vars.len()];
        for (new, &old_local) in order.iter().enumerate() {
            rename[old_local] = new;
        }
        let renamed: Vec<Clause> = clauses
            .iter()
            .map(|clause| {
                clause
                    .iter()
                    .map(|&(v, phase)| Variable::new(rename[v]).literal(phase))
                    .collect()
            })
            .collect();
        let canonical = normalize(&CnfFormula::from_clauses(vars.len(), renamed));
        let kept: Vec<Variable> = order.iter().map(|&local| vars[local]).collect();
        (canonical, kept)
    }

    /// Number of distinct values in a color vector.
    fn distinct(colors: &[usize]) -> usize {
        let mut seen: Vec<usize> = colors.to_vec();
        seen.sort_unstable();
        seen.dedup();
        seen.len()
    }

    /// Stable variable order sorted by (color, input index).
    fn order_by_color(colors: &[usize]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..colors.len()).collect();
        order.sort_by_key(|&v| (colors[v], v));
        order
    }

    /// One round of signature refinement, iterated to fixpoint: clause colors
    /// from the multiset of (variable color, phase) pairs, then variable colors
    /// from the old color plus the multiset of (clause color, phase) pairs. Both
    /// ranking steps use sorted signatures, so the result is invariant under any
    /// renaming of variables or reordering of clauses and literals.
    pub(super) fn refine(
        clauses: &[Vec<(usize, bool)>],
        occurrences: &[Vec<(usize, bool)>],
        mut colors: Vec<usize>,
    ) -> Vec<usize> {
        let mut classes = distinct(&colors);
        loop {
            // Clause signatures → dense clause colors.
            let mut clause_sigs: Vec<Vec<(usize, bool)>> = clauses
                .iter()
                .map(|clause| {
                    let mut sig: Vec<(usize, bool)> = clause
                        .iter()
                        .map(|&(v, phase)| (colors[v], phase))
                        .collect();
                    sig.sort_unstable();
                    sig
                })
                .collect();
            let clause_colors = rank(&mut clause_sigs);
            // Variable signatures → dense variable colors.
            let mut var_sigs: Vec<(usize, Vec<(usize, bool)>)> = occurrences
                .iter()
                .enumerate()
                .map(|(v, occ)| {
                    let mut sig: Vec<(usize, bool)> = occ
                        .iter()
                        .map(|&(c, phase)| (clause_colors[c], phase))
                        .collect();
                    sig.sort_unstable();
                    (colors[v], sig)
                })
                .collect();
            colors = rank(&mut var_sigs);
            let refined = distinct(&colors);
            if refined == classes {
                return colors;
            }
            classes = refined;
        }
    }

    /// Replaces each signature with its dense rank among the sorted distinct
    /// signatures. The input is taken by mutable reference only to avoid an
    /// extra clone for sorting.
    fn rank<T: Ord + Clone>(sigs: &mut [T]) -> Vec<usize> {
        let mut sorted: Vec<T> = sigs.to_vec();
        sorted.sort();
        sorted.dedup();
        sigs.iter()
            .map(|sig| sorted.binary_search(sig).expect("signature present"))
            .collect()
    }

    /// Budgeted individualize-and-refine: returns the lexicographically minimal
    /// formula encoding over all tie-break branches, or `None` once `budget`
    /// complete encodings have been spent.
    pub(super) fn lex_min_order(
        clauses: &[Vec<(usize, bool)>],
        occurrences: &[Vec<(usize, bool)>],
        colors: &[usize],
        budget: &mut usize,
    ) -> Option<(Vec<u64>, Vec<usize>)> {
        // Find the first (smallest-color) non-singleton class.
        let mut counts = vec![0usize; colors.len() + 1];
        for &color in colors {
            counts[color] += 1;
        }
        let split = colors
            .iter()
            .copied()
            .filter(|&color| counts[color] > 1)
            .min();
        let Some(split) = split else {
            // Discrete coloring: one leaf.
            if *budget == 0 {
                return None;
            }
            *budget -= 1;
            let order = order_by_color(colors);
            return Some((encode_under(clauses, &order), order));
        };
        let mut best: Option<(Vec<u64>, Vec<usize>)> = None;
        for v in 0..colors.len() {
            if colors[v] != split {
                continue;
            }
            // Individualize v: give it a color just below its class, shifting
            // everything at or above the class up by one to stay dense enough.
            let mut branched: Vec<usize> = colors
                .iter()
                .map(|&color| if color >= split { color + 1 } else { color })
                .collect();
            branched[v] = split;
            let refined = refine(clauses, occurrences, branched);
            let candidate = lex_min_order(clauses, occurrences, &refined, budget)?;
            best = match best {
                Some(current) if current.0 <= candidate.0 => Some(current),
                _ => Some(candidate),
            };
        }
        best
    }

    /// Encodes the formula under a candidate variable order (new index per
    /// variable) as a flat word sequence comparable lexicographically: sorted
    /// renamed clauses, each as its sorted literal codes.
    fn encode_under(clauses: &[Vec<(usize, bool)>], order: &[usize]) -> Vec<u64> {
        let mut rename = vec![0usize; order.len()];
        for (new, &old) in order.iter().enumerate() {
            rename[old] = new;
        }
        let mut encoded: Vec<Vec<u64>> = clauses
            .iter()
            .map(|clause| {
                let mut lits: Vec<u64> = clause
                    .iter()
                    .map(|&(v, phase)| Variable::new(rename[v]).literal(phase).code() as u64)
                    .collect();
                lits.sort_unstable();
                lits.dedup();
                lits
            })
            .collect();
        encoded.sort();
        encoded.dedup();
        let mut flat = Vec::with_capacity(encoded.iter().map(|c| c.len() + 1).sum());
        for clause in encoded {
            flat.push(clause.len() as u64);
            flat.extend(clause);
        }
        flat
    }
}

/// How many leaves the oracle's tie-break search meets on `formula` (one
/// when refinement alone is discrete), or `None` past the leaf budget.
fn oracle_leaves(formula: &CnfFormula) -> Option<usize> {
    let vars = formula.occurring_variables();
    let mut local = vec![usize::MAX; formula.num_vars()];
    for (i, var) in vars.iter().enumerate() {
        local[var.index()] = i;
    }
    let clauses: Vec<Vec<(usize, bool)>> = formula
        .iter()
        .map(|clause| {
            clause
                .iter()
                .map(|lit| (local[lit.variable().index()], lit.phase()))
                .collect()
        })
        .collect();
    let mut occurrences: Vec<Vec<(usize, bool)>> = vec![Vec::new(); vars.len()];
    for (c, clause) in clauses.iter().enumerate() {
        for &(v, phase) in clause {
            occurrences[v].push((c, phase));
        }
    }
    let colors = oracle::refine(&clauses, &occurrences, vec![0; vars.len()]);
    let mut budget = oracle::CANONICAL_LEAF_BUDGET;
    oracle::lex_min_order(&clauses, &occurrences, &colors, &mut budget)?;
    Some(oracle::CANONICAL_LEAF_BUDGET - budget)
}

/// Asserts that `formula`, a renamed and reshuffled copy of it, and the
/// normalized residual `preprocess` would hand to the canonicalizer all
/// canonicalize exactly as the oracle does. `kept` depends on the input
/// order, so the copy is a separate check.
fn assert_matches_oracle(formula: &CnfFormula, seed: u64) {
    let variant = permute(
        formula,
        &permutation(formula.num_vars(), seed),
        seed as usize,
    );
    let (residual, _) = simplify(&normalize(formula));
    for input in [formula.clone(), variant, normalize(&residual)] {
        assert_eq!(
            canonicalize(&input),
            oracle::canonicalize(&input),
            "canonical form diverged from the oracle on {input}"
        );
    }
}

/// Tie-break outcomes the oracle reaches over `formulas`: (within budget
/// with more than one leaf, budget exhausted).
fn outcomes<'a>(formulas: impl IntoIterator<Item = &'a CnfFormula>) -> (usize, usize) {
    let mut counts = (0, 0);
    for formula in formulas {
        match oracle_leaves(formula) {
            Some(leaves) if leaves > 1 => counts.0 += 1,
            Some(_) => {}
            None => counts.1 += 1,
        }
    }
    counts
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn small_random_formulas_match_the_oracle(
        (formula, seed) in (arb_formula(), 0u64..u64::MAX)
    ) {
        assert_matches_oracle(&formula, seed);
    }
}

#[test]
fn pigeonhole_ladder_matches_the_oracle() {
    let mut ladder: Vec<CnfFormula> = (3..=8).map(|p| pigeonhole(p, p - 1)).collect();
    ladder.push(pigeonhole(3, 3));
    ladder.push(pigeonhole(4, 4));
    for (i, formula) in ladder.iter().enumerate() {
        assert_matches_oracle(formula, i as u64);
    }
    // php(3,2) fits the budget; php(5,4) and beyond exhaust it.
    assert!(oracle_leaves(&ladder[0]).is_some_and(|leaves| leaves > 1));
    for formula in &ladder[2..6] {
        assert_eq!(oracle_leaves(formula), None);
    }
}

#[test]
fn random_3sat_matches_the_oracle() {
    for i in 0..200u64 {
        let n = 10 + (i as usize * 190) / 199;
        let alpha = if i % 2 == 0 { 4.26 } else { 3.0 };
        let config = RandomKSatConfig::from_ratio(n, alpha, 3).with_seed(i);
        let formula = random_ksat(&config).expect("valid random 3-SAT parameters");
        assert_matches_oracle(&formula, i);
    }
}

#[test]
fn random_graph_coloring_matches_the_oracle() {
    let mut rng = StdRng::seed_from_u64(2012);
    let mut formulas = Vec::new();
    for _ in 0..30 {
        let vertices = rng.gen_range(12..17);
        let density = rng.gen_range(0.22..0.38);
        let mut edges = Vec::new();
        for a in 0..vertices {
            for b in a + 1..vertices {
                if rng.gen_bool(density) {
                    edges.push((a, b));
                }
            }
        }
        formulas.push(graph_coloring(&Graph::new(vertices, edges), 3));
    }
    for (i, formula) in formulas.iter().enumerate() {
        assert_matches_oracle(formula, i as u64);
    }
    // The color symmetry leaves every coloring to the tie-break search.
    let (searched, exhausted) = outcomes(&formulas);
    assert_eq!((searched, exhausted), (formulas.len(), 0));
}

#[test]
fn structured_families_match_the_oracle() {
    let mut formulas = vec![section4_sat_instance(), section4_unsat_instance()];
    for n in 4..=24 {
        for target in [false, true] {
            formulas.push(parity_chain(n, target));
        }
    }
    for width in 2..=4 {
        formulas.push(adder_equivalence_miter(width));
        for bit in 0..width {
            formulas.push(buggy_adder_miter(width, bit));
        }
    }
    for (i, formula) in formulas.iter().enumerate() {
        assert_matches_oracle(formula, i as u64);
    }
}

/// One clause over `k` interchangeable variables, spread over an
/// eight-variable space by `perm`: the tie-break tree has `k!` leaves.
fn symmetric_clause(k: usize, perm: &[usize]) -> CnfFormula {
    let dimacs: Vec<i64> = (0..k).map(|v| perm[v] as i64 + 1).collect();
    let mut formula = CnfFormula::from_dimacs_clauses(&[dimacs]).expect("non-zero literals");
    formula.ensure_vars(8);
    formula
}

#[test]
fn leaf_budget_boundary_matches_the_oracle() {
    let identity: Vec<usize> = (0..8).collect();
    // 4! = 24 leaves: within the budget, so the lex-min search decides and
    // every renaming shares the canonical form.
    let four = symmetric_clause(4, &identity);
    assert_eq!(oracle_leaves(&four), Some(24));
    assert_matches_oracle(&four, 1);
    for seed in 0..8 {
        let renamed = symmetric_clause(4, &permutation(8, seed));
        assert_matches_oracle(&renamed, seed);
        assert_eq!(canonicalize(&renamed).0, canonicalize(&four).0);
    }
    // 5! = 120 leaves: past the budget, so the input-order fallback decides.
    let five = symmetric_clause(5, &identity);
    assert_eq!(oracle_leaves(&five), None);
    assert_matches_oracle(&five, 1);
}
