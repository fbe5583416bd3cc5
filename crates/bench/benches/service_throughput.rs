//! Criterion bench for the `SolveService` job-queue front end: streaming
//! submit-then-wait throughput against the one-shot `SolveBatch` wrapper on
//! the same workload, across worker-pool sizes — the cost of the persistent
//! queue (condvar wakeups, per-job heap ops, formula clones) relative to the
//! raw fan-out it schedules.

use cnf::generators::{self, RandomKSatConfig};
use cnf::CnfFormula;
use criterion::{criterion_group, criterion_main, Criterion};
use nbl_sat_core::{
    Artifacts, BackendRegistry, JobPriority, SolveBatch, SolveRequest, SolveService,
};

/// A mixed 16-instance workload around the 3-SAT phase transition.
fn workload() -> Vec<CnfFormula> {
    (0..16)
        .map(|seed| {
            generators::random_ksat(&RandomKSatConfig::from_ratio(10, 4.2, 3).with_seed(seed))
                .unwrap()
        })
        .collect()
}

fn service_vs_batch_throughput(c: &mut Criterion) {
    let registry = BackendRegistry::default();
    let instances = workload();
    for workers in [1usize, 4] {
        let mut group = c.benchmark_group(format!("service_throughput_w{workers}"));
        group.sample_size(10);
        group.bench_function("service_stream", |b| {
            b.iter(|| {
                let service = SolveService::builder(&registry).workers(workers).start();
                let handles: Vec<_> = instances
                    .iter()
                    .map(|f| service.submit("cdcl", &SolveRequest::new(f).seed(7)))
                    .collect();
                let definitive = handles
                    .into_iter()
                    .map(|h| h.wait().unwrap())
                    .filter(|o| o.verdict.is_definitive())
                    .count();
                service.shutdown();
                definitive
            })
        });
        group.bench_function("batch_oneshot", |b| {
            b.iter(|| {
                let mut batch = SolveBatch::new(&registry).workers(workers);
                for f in &instances {
                    batch = batch.job("cdcl", SolveRequest::new(f).seed(7));
                }
                batch
                    .run()
                    .into_iter()
                    .filter(|o| o.as_ref().unwrap().verdict.is_definitive())
                    .count()
            })
        });
        group.finish();
    }
}

fn service_cache_hit_vs_miss(c: &mut Criterion) {
    let registry = BackendRegistry::default();
    // One over-constrained UNSAT instance resubmitted over and over: with
    // the verdict cache every submission after the first answers straight
    // from the canonical-key lookup, without the cache each one pays the
    // full cdcl refutation. The ladder (4 and 16 repeats) shows the gap
    // widening with re-solve traffic. A *random* instance matters here:
    // its automorphism group is trivial, so the per-lookup canonical form
    // is cheap. On pigeonhole the canonical form costs more than the search
    // and would bury the cache win: on php(4,3), canonicalize takes 0.34 ms
    // and a raw CDCL refutation 12 µs (2-vCPU VM, `canonical` and
    // `baseline_comparison` benches).
    let formula =
        generators::random_ksat(&RandomKSatConfig::from_ratio(60, 5.0, 3).with_seed(1)).unwrap();
    let mut group = c.benchmark_group("service_throughput_cache");
    group.sample_size(10);
    for repeats in [4usize, 16] {
        for (suffix, cached) in [("miss", false), ("hit", true)] {
            group.bench_function(format!("repeat{repeats}_{suffix}"), |b| {
                b.iter(|| {
                    let mut builder = SolveService::builder(&registry).workers(2);
                    if cached {
                        builder = builder.cache_capacity(64);
                    }
                    let service = builder.start();
                    // `Artifacts::Model` keeps SAT outcomes cacheable too
                    // (the cache only stores SAT answers whose model it
                    // could verify), so the workload generalizes.
                    let handles: Vec<_> = (0..repeats)
                        .map(|_| {
                            service.submit(
                                "cdcl",
                                &SolveRequest::new(&formula)
                                    .seed(7)
                                    .artifacts(Artifacts::Model),
                            )
                        })
                        .collect();
                    let definitive = handles
                        .into_iter()
                        .map(|h| h.wait().unwrap())
                        .filter(|o| o.verdict.is_definitive())
                        .count();
                    let hits = service.metrics_snapshot().cache_hits;
                    service.shutdown();
                    (definitive, hits)
                })
            });
        }
    }
    group.finish();
}

fn service_priority_scheduling_overhead(c: &mut Criterion) {
    let registry = BackendRegistry::default();
    let instances = workload();
    let mut group = c.benchmark_group("service_throughput_priorities");
    group.sample_size(10);
    group.bench_function("mixed_priorities_w4", |b| {
        b.iter(|| {
            let service = SolveService::builder(&registry).workers(4).start();
            let handles: Vec<_> = instances
                .iter()
                .enumerate()
                .map(|(i, f)| {
                    let priority = match i % 3 {
                        0 => JobPriority::High,
                        1 => JobPriority::Normal,
                        _ => JobPriority::Low,
                    };
                    service.submit_with_priority("cdcl", &SolveRequest::new(f).seed(7), priority)
                })
                .collect();
            let done = handles
                .into_iter()
                .map(|h| h.wait().unwrap())
                .filter(|o| o.verdict.is_definitive())
                .count();
            service.shutdown();
            done
        })
    });
    group.finish();
}

criterion_group!(
    service_throughput,
    service_vs_batch_throughput,
    service_cache_hit_vs_miss,
    service_priority_scheduling_overhead
);
criterion_main!(service_throughput);
