//! Property tests for the canonical preprocessing layer: `normalize` is
//! deterministic and idempotent, `preprocess` is verdict-preserving with a
//! sound model lift, and isomorphic formulas (variable renaming plus clause
//! and literal permutations) share one canonical form and fingerprint.

mod common;

use cnf::{
    canonicalize, fingerprint, normalize, preprocess, Assignment, CnfFormula, PreprocessOutcome,
};
use common::{arb_formula, permutation, permute};
use proptest::prelude::*;

fn is_satisfiable(formula: &CnfFormula) -> bool {
    Assignment::enumerate_all(formula.num_vars()).any(|a| formula.evaluate(&a))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// normalize is idempotent and preserves the model set pointwise.
    #[test]
    fn normalize_is_idempotent_and_model_preserving(formula in arb_formula()) {
        let once = normalize(&formula);
        let twice = normalize(&once);
        prop_assert_eq!(&once, &twice);
        for assignment in Assignment::enumerate_all(formula.num_vars()) {
            prop_assert_eq!(formula.evaluate(&assignment), once.evaluate(&assignment));
        }
    }

    /// preprocess preserves the verdict, and every model of the residual
    /// lifts to a model of the original formula.
    #[test]
    fn preprocess_preserves_verdicts_and_lifts_models(formula in arb_formula()) {
        let sat = is_satisfiable(&formula);
        match preprocess(&formula).outcome {
            PreprocessOutcome::Satisfiable(model) => {
                prop_assert!(sat);
                prop_assert!(formula.evaluate(&model));
            }
            PreprocessOutcome::Unsatisfiable => prop_assert!(!sat),
            PreprocessOutcome::Reduced { formula: reduced, trace } => {
                prop_assert_eq!(sat, is_satisfiable(&reduced));
                for candidate in Assignment::enumerate_all(reduced.num_vars()) {
                    if reduced.evaluate(&candidate) {
                        prop_assert!(formula.evaluate(&trace.lift_model(&candidate)));
                    }
                }
            }
        }
    }

    /// Two formulas differing only by a variable renaming and clause/literal
    /// permutations share one canonical reduced formula and fingerprint.
    #[test]
    fn isomorphic_formulas_share_the_canonical_key(
        (formula, seed, rot) in (arb_formula(), 0u64..u64::MAX, 0usize..8)
    ) {
        let perm = permutation(formula.num_vars(), seed);
        let renamed = permute(&formula, &perm, rot);
        let a = preprocess(&formula);
        let b = preprocess(&renamed);
        match (a.outcome, b.outcome) {
            (
                PreprocessOutcome::Reduced { formula: fa, .. },
                PreprocessOutcome::Reduced { formula: fb, .. },
            ) => {
                prop_assert_eq!(&fa, &fb);
                prop_assert_eq!(fingerprint(&fa), fingerprint(&fb));
            }
            (PreprocessOutcome::Satisfiable(_), PreprocessOutcome::Satisfiable(_)) => {}
            (PreprocessOutcome::Unsatisfiable, PreprocessOutcome::Unsatisfiable) => {}
            other => prop_assert!(false, "outcomes diverged: {:?}", other),
        }
    }

    /// canonicalize alone (no reduction) is invariant under renaming.
    #[test]
    fn canonicalize_is_renaming_invariant(
        (formula, seed) in (arb_formula(), 0u64..u64::MAX)
    ) {
        let normal = normalize(&formula);
        let perm = permutation(normal.num_vars(), seed);
        let renamed = normalize(&permute(&normal, &perm, 0));
        let (ca, _) = canonicalize(&normal);
        let (cb, _) = canonicalize(&renamed);
        prop_assert_eq!(&ca, &cb);
        prop_assert_eq!(fingerprint(&ca), fingerprint(&cb));
    }
}
