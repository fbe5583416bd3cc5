//! Property suite for the cooperative clause-sharing layer: the
//! [`SharedClausePool`] delivery contract (no self-imports, no duplicate
//! deliveries, bounded residency) and the CDCL integration's soundness
//! contract (every imported clause is implied by the shared input formula;
//! imports taken inside a `push` frame never survive the matching `pop`).

use cnf::generators::{self, RandomKSatConfig};
use cnf::{Assignment, Literal};
use proptest::prelude::*;
use sat_solvers::{CdclSolver, SearchLimits, ShareHandle, SharedClausePool, SharingConfig, Solver};
use std::collections::HashSet;
use std::sync::Arc;

fn lit(i: i64) -> Literal {
    Literal::from_dimacs(i).expect("nonzero dimacs literal")
}

/// An export operation drawn by the generators below: which member publishes
/// and the (1-based) variable indices of the clause's positive literals.
fn arb_exports() -> impl Strategy<Value = Vec<(usize, Vec<u32>)>> {
    proptest::collection::vec(
        (0usize..4, proptest::collection::vec(1u32..40, 1..6)),
        1..60,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Delivery contract: across an arbitrary export stream, an importing
    /// member never receives one of its own clauses and never receives the
    /// same pooled clause twice, no matter how its imports interleave with
    /// the exports.
    #[test]
    fn pool_never_delivers_own_or_duplicate_clauses(
        (ops, import_every) in (arb_exports(), 1usize..8)
    ) {
        let pool = Arc::new(SharedClausePool::new(
            // Unbounded in practice, so every accepted clause stays visible.
            SharingConfig::new().with_capacity(10_000),
        ));
        let mut handles: Vec<ShareHandle> =
            (0..4).map(|m| ShareHandle::new(Arc::clone(&pool), m)).collect();
        // Tag each export with a unique trailing literal so deliveries can be
        // identified exactly: variable 1000+k for the k-th operation.
        let mut source_of = Vec::new();
        let mut seen: Vec<HashSet<usize>> = vec![HashSet::new(); 4];
        for (k, (member, vars)) in ops.iter().enumerate() {
            let mut clause: Vec<Literal> = vars.iter().map(|&v| lit(v as i64)).collect();
            clause.push(lit(1000 + k as i64));
            prop_assert!(handles[*member].export(&clause, 1));
            source_of.push(*member);
            if k % import_every == 0 {
                let importer = (member + 1) % 4;
                let mut handle = handles[importer].clone();
                handle.import(|lits| {
                    let tag = (lits.last().unwrap().to_dimacs() - 1000) as usize;
                    assert_ne!(source_of[tag], importer, "member got its own clause");
                    assert!(seen[importer].insert(tag), "clause delivered twice");
                });
                handles[importer] = handle;
            }
        }
        // A final settling import per member: everything foreign, nothing
        // twice, nothing of one's own.
        for member in 0..4 {
            let mut handle = handles[member].clone();
            handle.import(|lits| {
                let tag = (lits.last().unwrap().to_dimacs() - 1000) as usize;
                assert_ne!(source_of[tag], member, "member got its own clause");
                assert!(seen[member].insert(tag), "clause delivered twice");
            });
            let foreign = source_of.iter().filter(|&&s| s != member).count();
            prop_assert_eq!(seen[member].len(), foreign);
        }
    }

    /// Residency contract: under any export stream the pool holds at most
    /// `capacity` clauses, and the books balance — accepted exports minus
    /// evictions equals the resident count.
    #[test]
    fn capacity_and_eviction_books_balance(
        (capacity, exports) in (1usize..48, 1usize..200)
    ) {
        let pool = SharedClausePool::new(SharingConfig::new().with_capacity(capacity));
        for i in 0..exports {
            prop_assert!(pool.export(i % 3, &[lit(1 + i as i64)], 1));
        }
        prop_assert!(pool.len() <= capacity, "{} resident > capacity {}", pool.len(), capacity);
        let stats = pool.stats();
        prop_assert_eq!(stats.exported as usize, exports);
        prop_assert_eq!(stats.exported - stats.evicted, pool.len() as u64);
    }

    /// Soundness contract: every clause a CDCL member imports during a
    /// cooperative solve is implied by the shared input formula — checked by
    /// exhaustive model enumeration on small random instances. The shared
    /// verdict also matches a detached baseline (the PR 3 contract).
    #[test]
    fn imported_clauses_are_implied_by_the_formula(seed in 0u64..24) {
        let cfg = RandomKSatConfig::new(8, 28, 3).with_seed(seed);
        let formula = generators::random_ksat(&cfg).unwrap();
        let baseline = CdclSolver::new().solve(&formula).is_sat();

        let pool = Arc::new(SharedClausePool::default());
        // Restart base 1 forces a restart (and hence an import scan) after
        // every conflict, maximising traffic on these small instances.
        let mut exporter = CdclSolver::new().with_restart_base(1);
        exporter.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        prop_assert_eq!(exporter.solve(&formula).is_sat(), baseline);

        let mut importer = CdclSolver::new().with_restart_base(1);
        importer.attach_share(ShareHandle::new(Arc::clone(&pool), 1));
        prop_assert_eq!(importer.solve(&formula).is_sat(), baseline);

        let imported = importer.imported_clauses();
        for assignment in Assignment::enumerate_all(formula.num_vars()) {
            if !formula.evaluate(&assignment) {
                continue;
            }
            for clause in &imported {
                prop_assert!(
                    clause.iter().any(|&l| assignment.satisfies(l)),
                    "model {:?} falsifies imported clause {:?}",
                    assignment.to_literals(),
                    clause,
                );
            }
        }
    }

    /// Frame contract: imports taken while a pushed frame is active are
    /// tagged to that frame, so `pop` drops every one of them regardless of
    /// what the foreign members had published.
    #[test]
    fn pop_never_retains_imported_clauses(
        (seed, foreign_clauses) in (
            0u64..16,
            proptest::collection::vec(proptest::collection::vec(1u32..9, 1..4), 1..10),
        )
    ) {
        let pool = Arc::new(SharedClausePool::default());
        let foreign = ShareHandle::new(Arc::clone(&pool), 1);
        for vars in &foreign_clauses {
            // Alternate polarities so the pool holds a mix of clause shapes.
            let clause: Vec<Literal> = vars
                .iter()
                .enumerate()
                .map(|(i, &v)| lit(if i % 2 == 0 { v as i64 } else { -(v as i64) }))
                .collect();
            foreign.export(&clause, 2);
        }

        let cfg = RandomKSatConfig::new(8, 34, 3).with_seed(seed + 900);
        let formula = generators::random_ksat(&cfg).unwrap();
        let mut solver = CdclSolver::new().with_restart_base(1);
        solver.attach_share(ShareHandle::new(Arc::clone(&pool), 0));
        solver.push(&formula);
        let _ = solver.solve_under_assumptions(&[], &SearchLimits::unlimited());
        solver.pop();
        prop_assert_eq!(solver.imported_clause_count(), 0);
    }
}
