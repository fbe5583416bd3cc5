//! Criterion bench for the pipeline's canonical layer: `canonicalize` alone
//! and the whole `preprocess` stage (normalize, unit/pure simplification,
//! canonicalize) on the instance ladder the layer ledger tracks. Pigeonhole
//! formulas are highly symmetric, so their tie-break search runs into the
//! leaf budget from php(5,4) on; random 3-SAT is refined to a discrete
//! coloring without any search; 3-coloring sits in between, with a colour
//! symmetry the search must break. Records only: CI asserts no ordering.

use cnf::generators::{self, Graph, RandomKSatConfig};
use cnf::{canonicalize, normalize, preprocess, CnfFormula};
use criterion::{black_box, criterion_group, criterion_main, Criterion};

/// A fixed irregular 14-vertex graph (about a third of all pairs joined).
fn coloring_14() -> CnfFormula {
    let edges = (0..14)
        .flat_map(|a| (a + 1..14).map(move |b| (a, b)))
        .filter(|&(a, b)| (a * 31 + b * 17 + a * b) % 10 < 3)
        .collect();
    generators::graph_coloring(&Graph::new(14, edges), 3)
}

fn ladder() -> Vec<(&'static str, CnfFormula)> {
    let random = |n, seed| {
        generators::random_ksat(&RandomKSatConfig::from_ratio(n, 4.26, 3).with_seed(seed))
            .expect("valid random 3-SAT parameters")
    };
    vec![
        ("php4_3", generators::pigeonhole(4, 3)),
        ("php5_4", generators::pigeonhole(5, 4)),
        ("php6_5", generators::pigeonhole(6, 5)),
        ("php8_7", generators::pigeonhole(8, 7)),
        ("rand3sat_n50", random(50, 1)),
        ("rand3sat_n200", random(200, 1)),
        ("coloring_v14", coloring_14()),
    ]
}

fn canonical_layer(c: &mut Criterion) {
    let mut group = c.benchmark_group("canonical");
    group.sample_size(20);
    for (name, formula) in ladder() {
        // The pipeline canonicalizes normalized formulas; time that input.
        let normal = normalize(&formula);
        group.bench_function(format!("canonicalize_{name}"), |b| {
            b.iter(|| canonicalize(black_box(&normal)))
        });
        group.bench_function(format!("preprocess_{name}"), |b| {
            b.iter(|| preprocess(black_box(&formula)))
        });
    }
    group.finish();
}

criterion_group!(benches, canonical_layer);
criterion_main!(benches);
