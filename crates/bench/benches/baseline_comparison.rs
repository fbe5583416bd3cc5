//! Criterion bench for E6: the NBL-guided hybrid solver against the
//! classical baselines (DPLL, CDCL, WalkSAT) on random 3-SAT and structured
//! instances — all dispatched through the unified request/outcome API, so the
//! numbers include the (small) cost of the backend abstraction the production
//! front ends pay.

use cnf::generators::{self, RandomKSatConfig};
use cnf::{EvalMode, Literal};
use criterion::{criterion_group, criterion_main, Criterion};
use nbl_sat_core::{BackendRegistry, SolveRequest};
use sat_solvers::{CdclSolver, ShareHandle, SharedClausePool, SharingConfig, Solver};
use std::sync::Arc;

const BACKENDS: [&str; 4] = ["hybrid-symbolic", "dpll", "cdcl", "walksat"];

fn solvers_on_random_3sat(c: &mut Criterion) {
    let registry = BackendRegistry::default();
    let formula =
        generators::random_ksat(&RandomKSatConfig::from_ratio(10, 4.0, 3).with_seed(17)).unwrap();
    let mut group = c.benchmark_group("baseline_random3sat_n10");
    // The NBL-guided solver issues thousands of exact coprocessor checks per
    // solve; a reduced sample count keeps the whole suite fast.
    group.sample_size(10);
    for backend in BACKENDS {
        group.bench_function(backend, |b| {
            b.iter(|| {
                registry
                    .solve(backend, &SolveRequest::new(&formula))
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Sequential vs. thread-racing vs. cooperative portfolio on a workload
/// where racing pays: a satisfiable instance local search wins quickly, and
/// an UNSAT refutation only CDCL can finish. The sequential portfolio pays
/// for every member that bows out before the winner; the parallel ones pay
/// only the winner's wall-clock (plus one poll interval for the losers).
/// The `parallel-shared` / `parallel-racing` pair measures what the clause
/// pool costs on top of the pure race — CI requires both records and checks
/// their ratio.
fn sequential_vs_parallel_portfolio(c: &mut Criterion) {
    let sequential = BackendRegistry::default();
    let shared = BackendRegistry::with_modes(EvalMode::default(), SharingConfig::default());
    let racing = BackendRegistry::with_modes(EvalMode::default(), SharingConfig::racing_only());
    let sat =
        generators::random_ksat(&RandomKSatConfig::from_ratio(14, 3.0, 3).with_seed(7)).unwrap();
    let unsat = generators::pigeonhole(5, 4);
    for (label, formula) in [("sat_n14", &sat), ("unsat_php5_4", &unsat)] {
        let mut group = c.benchmark_group(format!("portfolio_race_{label}"));
        group.sample_size(10);
        let modes = [
            ("portfolio", &sequential, "portfolio"),
            ("parallel-shared", &shared, "parallel-portfolio"),
            ("parallel-racing", &racing, "parallel-portfolio"),
        ];
        for (name, registry, backend) in modes {
            group.bench_function(name, |b| {
                b.iter(|| {
                    registry
                        .solve(backend, &SolveRequest::new(formula).seed(2012))
                        .unwrap()
                })
            });
        }
        group.finish();
    }
}

/// The pool's lock layout: one coarse lock (`shards = 1`, the degenerate
/// lock-free-alternative baseline) against the default sharded array, under
/// four members exporting and importing concurrently. This is the
/// "benchmark both and keep the winner" evidence the `share` module docs
/// point at.
fn share_pool_lock_layouts(c: &mut Criterion) {
    const MEMBERS: usize = 4;
    const EXPORTS_PER_MEMBER: i64 = 64;
    let mut group = c.benchmark_group("share_pool");
    group.sample_size(10);
    for (name, shards) in [("coarse_1shard", 1usize), ("sharded_8shards", 8)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let pool = Arc::new(SharedClausePool::new(
                    SharingConfig::new().with_shards(shards).with_capacity(4096),
                ));
                let imported: u64 = std::thread::scope(|scope| {
                    (0..MEMBERS)
                        .map(|member| {
                            let pool = Arc::clone(&pool);
                            scope.spawn(move || {
                                let mut handle = ShareHandle::new(pool, member);
                                let mut imported = 0;
                                for i in 0..EXPORTS_PER_MEMBER {
                                    let dimacs = member as i64 * EXPORTS_PER_MEMBER + i + 1;
                                    let clause = [Literal::from_dimacs(dimacs).unwrap()];
                                    handle.export(&clause, 1);
                                    imported += handle.import(|_| {});
                                }
                                imported + handle.import(|_| {})
                            })
                        })
                        .collect::<Vec<_>>()
                        .into_iter()
                        .map(|h| h.join().unwrap())
                        .sum()
                });
                imported
            })
        });
    }
    group.finish();
}

fn solvers_on_pigeonhole(c: &mut Criterion) {
    let registry = BackendRegistry::default();
    let formula = generators::pigeonhole(4, 3);
    let mut group = c.benchmark_group("baseline_pigeonhole_4_3");
    group.sample_size(10);
    // WalkSAT cannot refute the UNSAT pigeonhole instance; benching it here
    // would only time its give-up path, so the complete backends suffice.
    // These registry rows include preprocess and canonicalize, which cost
    // more than the search on this instance; `cdcl_raw` times the solver
    // alone.
    for backend in ["hybrid-symbolic", "dpll", "cdcl"] {
        group.bench_function(backend, |b| {
            b.iter(|| {
                registry
                    .solve(backend, &SolveRequest::new(&formula))
                    .unwrap()
            })
        });
    }
    group.bench_function("cdcl_raw", |b| b.iter(|| CdclSolver::new().solve(&formula)));
    group.finish();
}

criterion_group!(
    benches,
    solvers_on_random_3sat,
    solvers_on_pigeonhole,
    sequential_vs_parallel_portfolio,
    share_pool_lock_layouts
);
criterion_main!(benches);
