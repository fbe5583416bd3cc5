//! The traced run: per-layer metrics from the benchmark's own spans.
//!
//! A traced run has three phases on the workload's own requests:
//!
//! 1. the workload's traffic with tracing off, for the untraced p50;
//! 2. the same traffic again on a fresh server, now asking for `STATS` and
//!    recording a client span per request (the e2e p50 the ledger is held
//!    against, the cache counters, and the thread peak);
//! 3. the first requests phase 2 sent, replayed one at a time through each
//!    layer's public functions in-process: DIMACS parse, normalize,
//!    preprocess, canonicalize, fingerprint, cache lookup, pipeline
//!    prepare/complete, registry dispatch and the raw solver behind it, the
//!    solve service, and a cache-off wire round trip.
//!
//! It then measures what no workload request exercises on its own: the
//! ROADMAP layer-cost table, the NBL engines on the §IV instances (when the
//! workload sends none), carrier generation, the `nbl-algebraic` refusal,
//! and a one- and two-shard fleet solve. Every timed call is kept as a span
//! (request id, layer, start, duration) in memory and written out at the
//! end as tab-separated lines.

use crate::drive::{self, Drive};
use crate::stats::{median, Metrics};
use crate::workloads::{self, Request, Spec, Workload};
use crate::{judge, note_checks, self_check, server_counters, Served};
use cnf::generators::{
    pigeonhole, random_ksat, section4_sat_instance, section4_unsat_instance, RandomKSatConfig,
};
use cnf::{canonicalize, dimacs, fingerprint, normalize, preprocess, simplify, CnfFormula};
use nbl_net::protocol::Frame;
use nbl_net::ServerConfig;
use nbl_noise::CarrierKind;
use nbl_sat_core::{
    Artifacts, BackendRegistry, EngineConfig, HybridSolver, NblSatInstance, PipelineConfig,
    PipelineDecision, SampledEngine, SatChecker, SolveOutcome, SolvePipeline, SolveRequest,
    SolveService, SolveVerdict, VerdictCache, DEFAULT_CACHE_CAPACITY,
};
use nbl_shard::{ShardConfig, ShardCoordinator};
use sat_solvers::{CdclSolver, ParallelPortfolio, Solver};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shares of `--seconds` given to the untraced and traced traffic; the
/// rest goes to the in-process layer replay. At 25 s, resubmit-mix's
/// traced traffic is 2,000 requests, enough to insert more than the cache
/// holds, so its self-check sees evictions.
const TRAFFIC_SHARE: f64 = 0.4;

/// Requests the layer replay covers even past its time share.
const MIN_REPLAYED: usize = 2;

/// One timed call.
struct Span {
    request: usize,
    layer: &'static str,
    start: Duration,
    duration: Duration,
}

fn us(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Runs `f` and returns its result with the elapsed time.
fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let started = Instant::now();
    let value = black_box(f());
    (value, started.elapsed())
}

/// The span store plus per-metric samples (medians at the end) and sums.
struct Ledger {
    origin: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
    sums: BTreeMap<&'static str, f64>,
}

impl Ledger {
    fn new() -> Self {
        Ledger {
            origin: Instant::now(),
            spans: Vec::new(),
            samples: BTreeMap::new(),
            sums: BTreeMap::new(),
        }
    }

    /// Records a span that ended now, and its duration in microseconds
    /// under `layer`.
    fn span(&mut self, request: usize, layer: &'static str, duration: Duration) {
        let started = Instant::now().checked_sub(duration).unwrap_or(self.origin);
        self.span_at(request, layer, started, duration);
    }

    /// Records a span that started at `started`.
    fn span_at(
        &mut self,
        request: usize,
        layer: &'static str,
        started: Instant,
        duration: Duration,
    ) {
        self.spans.push(Span {
            request,
            layer,
            start: started.saturating_duration_since(self.origin),
            duration,
        });
        self.sample(layer, us(duration));
    }

    fn sample(&mut self, metric: &'static str, value: f64) {
        self.samples.entry(metric).or_default().push(value);
    }

    fn add(&mut self, counter: &'static str, value: f64) {
        *self.sums.entry(counter).or_default() += value;
    }

    fn sum(&self, counter: &str) -> f64 {
        self.sums.get(counter).copied().unwrap_or(0.0)
    }

    fn median(&mut self, metric: &str) -> f64 {
        self.samples.get_mut(metric).map_or(0.0, |v| median(v))
    }

    /// `numerator / denominator` of two sums, 0 when nothing was counted.
    fn ratio(&self, numerator: &str, denominator: &str) -> f64 {
        let d = self.sum(denominator);
        if d > 0.0 {
            self.sum(numerator) / d
        } else {
            0.0
        }
    }

    /// Writes the spans as `request layer start_us duration_us` lines.
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::from("request\tlayer\tstart_us\tduration_us\n");
        for span in &self.spans {
            let _ = writeln!(
                text,
                "{}\t{}\t{:.3}\t{:.3}",
                span.request,
                span.layer,
                us(span.start),
                us(span.duration)
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}

/// Everything the layer replay keeps alive across requests.
struct Stack {
    registry: BackendRegistry,
    pipeline: SolvePipeline,
    cache: VerdictCache,
    service: SolveService,
    wire: Served,
    /// Classical backends the workload never sends; the replay runs their
    /// raw solvers too, so every workload reports `solvers.*`.
    unsent: Vec<&'static str>,
}

fn artifacts(model: bool) -> Artifacts {
    if model {
        Artifacts::Model
    } else {
        Artifacts::Verdict
    }
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Runs the raw solver behind `backend` on the prepared formula, records
/// its span and counters, and returns its time.
fn raw_solve(
    ledger: &mut Ledger,
    id: usize,
    backend: &str,
    formula: &CnfFormula,
    seed: u64,
) -> Result<Duration, String> {
    Ok(match backend {
        "cdcl" => {
            let mut solver = CdclSolver::new();
            let (_, took) = timed(|| solver.solve(formula));
            let stats = solver.stats();
            ledger.span(id, "solvers.cdcl_us", took);
            ledger.add("cdcl.conflicts", stats.conflicts as f64);
            ledger.add("cdcl.propagations", stats.propagations as f64);
            ledger.add("cdcl.seconds", took.as_secs_f64());
            took
        }
        "parallel-portfolio" => {
            let mut solver = ParallelPortfolio::new().with_seed(seed);
            let (_, took) = timed(|| solver.solve(formula));
            let stats = solver.stats();
            ledger.span(id, "solvers.portfolio_us", took);
            ledger.add("share.exported", stats.clauses_exported as f64);
            ledger.add("share.imported", stats.clauses_imported as f64);
            took
        }
        "nbl-sampled" => {
            let instance = NblSatInstance::new(formula).map_err(err)?;
            let mut checker =
                SatChecker::new(SampledEngine::new(EngineConfig::new().with_seed(seed)));
            let (verdict, took) = timed(|| checker.check(&instance));
            verdict.map_err(err)?;
            ledger.span(id, "nbl.check_us", took);
            took
        }
        "hybrid-sampled" => {
            let mut solver =
                HybridSolver::new(SampledEngine::new(EngineConfig::new().with_seed(seed)));
            let (model, took) = timed(|| solver.solve(formula));
            model.map_err(err)?;
            let checks = solver.stats().coprocessor_checks as f64;
            ledger.span(id, "nbl.extract_us", took);
            ledger.sample("nbl.checks_per_solve", checks);
            ledger.sample(
                "nbl.checks_per_var",
                checks / formula.num_vars().max(1) as f64,
            );
            took
        }
        other => return Err(format!("no raw solver for backend {other}")),
    })
}

/// Records the NBL engine counters of a registry dispatch.
fn nbl_counters(ledger: &mut Ledger, backend: &str, outcome: &SolveOutcome, took: Duration) {
    if backend == "nbl-sampled" || backend == "hybrid-sampled" {
        let samples = outcome.stats.samples as f64;
        let checks = outcome.stats.coprocessor_checks.max(1) as f64;
        ledger.sample("nbl.samples_per_check", samples / checks);
        if samples > 0.0 {
            ledger.sample("nbl.ns_per_sample", took.as_secs_f64() * 1e9 / samples);
        }
    }
}

/// Replays request `id` through every layer in turn. Returns the sum of
/// the self times on its path (parse, prepare, dispatch, complete, frame
/// encode and parse).
fn replay(
    ledger: &mut Ledger,
    stack: &Stack,
    id: usize,
    request: &Request,
) -> Result<Duration, String> {
    let (parsed, parse) = timed(|| dimacs::parse_str(&request.text));
    let formula = parsed.map_err(err)?;
    ledger.span(id, "dimacs.parse_us", parse);
    let (_, took) = timed(|| normalize(&formula));
    ledger.span(id, "canonical.normalize_us", took);

    // preprocess = normalize, simplify, normalize, canonicalize; the
    // canonicalize share is timed on its own to split the two.
    let (_, whole) = timed(|| preprocess(&formula));
    let normalized = normalize(&formula);
    let (residual, report) = simplify(&normalized);
    let decided = normalized.has_empty_clause() || report.proved_sat || report.proved_unsat;
    ledger.add("canonical.decided", f64::from(u8::from(decided)));
    ledger.add("canonical.requests", 1.0);
    let mut canonical = Duration::ZERO;
    if !decided {
        let residual = normalize(&residual);
        let ((reduced, _), took) = timed(|| canonicalize(&residual));
        canonical = took;
        ledger.span(id, "canonical.canonicalize_us", took);
        let (key, took) = timed(|| fingerprint(&reduced));
        ledger.span(id, "canonical.fingerprint_us", took);
        let (_, took) = timed(|| stack.cache.lookup(key, &reduced));
        ledger.span(id, "cache.lookup_miss_us", took);
        stack
            .cache
            .insert(key, reduced.clone(), SolveVerdict::Unsatisfiable, None);
        let (_, took) = timed(|| stack.cache.lookup(key, &reduced));
        ledger.span(id, "cache.lookup_hit_us", took);
    }
    ledger.sample(
        "canonical.preprocess_self_us",
        us(whole.saturating_sub(canonical)),
    );

    let solve = SolveRequest::new(&formula)
        .artifacts(artifacts(request.model))
        .seed(request.seed);
    let (decision, prepare) = timed(|| stack.pipeline.prepare(&solve));
    ledger.span(id, "pipeline.prepare_us", prepare);
    let mut path = parse + prepare;
    let mut in_process = prepare;
    if let PipelineDecision::Dispatch(prepared) = decision {
        let mut backend = stack.registry.create(request.backend).map_err(err)?;
        let (outcome, dispatch) = timed(|| backend.solve(&prepared.request(&solve)));
        let outcome = outcome.map_err(err)?;
        ledger.span(id, "registry.dispatch_us", dispatch);
        nbl_counters(ledger, request.backend, &outcome, dispatch);
        let raw = raw_solve(
            ledger,
            id,
            request.backend,
            prepared.formula(),
            request.seed,
        )?;
        ledger.sample("registry.adapter_overhead_us", us(dispatch) - us(raw));
        for &extra in &stack.unsent {
            raw_solve(ledger, id, extra, prepared.formula(), request.seed)?;
        }
        let (_, complete) = timed(|| {
            stack
                .pipeline
                .complete(prepared, outcome, request.backend, dispatch)
        });
        ledger.span(id, "pipeline.complete_us", complete);
        path += dispatch + complete;
        in_process += dispatch + complete;
    }

    let (outcome, service) = timed(|| stack.service.submit(request.backend, &solve).wait());
    outcome.map_err(err)?;
    ledger.span(id, "service.submit_wait_us", service);
    ledger.sample("service.overhead_us", us(service) - us(in_process));

    let frame = drive::frame(request, false);
    let (encoded, encode) = timed(|| Frame::Solve(frame.clone()).encode());
    ledger.span(id, "net.frame_encode_us", encode);
    let (decoded, parse_frame) = timed(|| Frame::read_from(&mut encoded.as_bytes()));
    decoded.map_err(err)?;
    ledger.span(id, "net.frame_parse_us", parse_frame);
    path += encode + parse_frame;
    let (answer, roundtrip) = timed(|| stack.wire.control.submit(frame).and_then(|job| job.wait()));
    let answer = answer.map_err(err)?;
    ledger.span(id, "net.roundtrip_us", roundtrip);
    ledger.sample("net.overhead_us", us(roundtrip) - us(service));
    let mut bytes = encoded.len();
    if let Some(literals) = answer.model {
        bytes += Frame::Model { job: 0, literals }.encode().len();
    }
    bytes += Frame::Result {
        job: 0,
        verdict: answer.verdict,
    }
    .encode()
    .len();
    ledger.sample("net.bytes_per_request", bytes as f64);
    Ok(path)
}

/// The NBL engines on the §IV instances, for workloads that send none.
fn nbl_probe(ledger: &mut Ledger, registry: &BackendRegistry, seed: u64) -> Result<(), String> {
    let pipeline = SolvePipeline::new(PipelineConfig::new());
    for (i, formula) in [section4_sat_instance(), section4_unsat_instance()]
        .iter()
        .enumerate()
    {
        for (backend, model) in [("nbl-sampled", false), ("hybrid-sampled", true)] {
            let solve = SolveRequest::new(formula)
                .artifacts(artifacts(model))
                .seed(seed);
            let PipelineDecision::Dispatch(prepared) = pipeline.prepare(&solve) else {
                return Err("preprocessing decided a §IV instance".into());
            };
            let mut engine = registry.create(backend).map_err(err)?;
            let (outcome, took) = timed(|| engine.solve(&prepared.request(&solve)));
            nbl_counters(ledger, backend, &outcome.map_err(err)?, took);
            raw_solve(ledger, usize::MAX - i, backend, prepared.formula(), seed)?;
        }
    }
    Ok(())
}

/// Median time of `f` over repeats: at least 5, then until 50 ms or 200
/// repeats have been spent.
fn repeat_median<T>(mut f: impl FnMut() -> T) -> Duration {
    let started = Instant::now();
    let mut times = Vec::new();
    while times.len() < 5 || (times.len() < 200 && started.elapsed() < Duration::from_millis(50)) {
        times.push(timed(&mut f).1.as_secs_f64());
    }
    Duration::from_secs_f64(median(&mut times))
}

/// The ROADMAP "layer costs" table, re-measured: per instance, normalize,
/// canonicalize, preprocess, raw CDCL, `registry.solve("cdcl")`, and a wire
/// round trip with the cache off and (for a resubmission) on.
fn roadmap(metrics: &mut Metrics, registry: &BackendRegistry) -> Result<(), String> {
    let random = |n, alpha| {
        random_ksat(&RandomKSatConfig::from_ratio(n, alpha, 3).with_seed(0)).map_err(err)
    };
    let rows: [(&str, CnfFormula); 5] = [
        ("php4_3", pigeonhole(4, 3)),
        ("php5_4", pigeonhole(5, 4)),
        ("php6_5", pigeonhole(6, 5)),
        ("rand3sat_n10", random(10, 4.0)?),
        ("rand3sat_n50", random(50, 4.26)?),
    ];
    let no_cache = Served::start(ServerConfig::new().no_cache())?;
    let cached = Served::start(ServerConfig::new())?;
    for (row, formula) in &rows {
        let text = dimacs::to_string(formula);
        let mut cells = vec![
            ("normalize_us", repeat_median(|| normalize(formula))),
            ("canonicalize_us", repeat_median(|| canonicalize(formula))),
            ("preprocess_us", repeat_median(|| preprocess(formula))),
            (
                "raw_cdcl_us",
                repeat_median(|| CdclSolver::new().solve(formula)),
            ),
            (
                "registry_cdcl_us",
                repeat_median(|| registry.solve("cdcl", &SolveRequest::new(formula))),
            ),
        ];
        if matches!(*row, "php4_3" | "rand3sat_n10") {
            for (cell, served) in [("wire_nocache_us", &no_cache), ("wire_cache_us", &cached)] {
                let solve = || {
                    let frame = nbl_net::SolveFrame::new("cdcl", &text);
                    served.control.submit(frame).and_then(|job| job.wait())
                };
                solve().map_err(err)?;
                cells.push((cell, repeat_median(solve)));
            }
        }
        for (cell, took) in cells {
            metrics.add(format!("roadmap.{row}.{cell}"), us(took), "us");
        }
    }
    no_cache.stop();
    cached.stop();
    Ok(())
}

/// Time for `nbl-algebraic` to refuse `from_ratio(4, 4.0, 3)` seed 1 as
/// too large, through the registry a caller would use.
fn algebraic_refusal(registry: &BackendRegistry) -> Result<Duration, String> {
    let formula =
        random_ksat(&RandomKSatConfig::from_ratio(4, 4.0, 3).with_seed(1)).map_err(err)?;
    let (_, took) = timed(|| registry.solve("nbl-algebraic", &SolveRequest::new(&formula)));
    Ok(took)
}

/// One `CarrierBank` fill of a 5-variable, 6-clause instance's 2·n·m
/// sources, in nanoseconds.
fn carrier_fill_ns(seed: u64) -> f64 {
    let sources = 2 * 5 * 6;
    let mut bank = CarrierKind::Uniform.bank(sources, seed);
    let mut values = vec![0.0; sources];
    let fills = 200_000;
    let (_, took) = timed(|| {
        for _ in 0..fills {
            bank.next_sample(&mut values);
            black_box(&values);
        }
    });
    took.as_secs_f64() * 1e9 / fills as f64
}

/// `ShardCoordinator::solve` over `shards` fresh loopback servers on the
/// first search-hard rung; returns the time and the cubes split.
fn fleet(shards: usize, formula: &CnfFormula) -> Result<(Duration, usize), String> {
    let servers = (0..shards)
        .map(|_| Served::start(ServerConfig::new()))
        .collect::<Result<Vec<_>, _>>()?;
    let addrs: Vec<String> = servers
        .iter()
        .map(|s| s.server.local_addr().to_string())
        .collect();
    let coordinator = ShardCoordinator::connect(&addrs, ShardConfig::new("cdcl")).map_err(err)?;
    let (outcome, took) = timed(|| coordinator.solve(formula));
    drop(coordinator);
    for served in servers {
        served.stop();
    }
    if matches!(outcome.verdict, SolveVerdict::Unknown(_)) {
        return Err(format!("fleet of {shards} answered unknown"));
    }
    Ok((took, outcome.fleet.cubes_split))
}

/// p50 latency of `run` over the requests `other` also sent, so traced
/// and untraced traffic are compared on the same inputs.
fn common_p50(run: &Drive, other: &Drive) -> f64 {
    let sent: std::collections::BTreeSet<usize> = other.samples.iter().map(|s| s.request).collect();
    let mut latencies: Vec<f64> = run
        .samples
        .iter()
        .filter(|s| sent.contains(&s.request))
        .map(drive::Sample::latency_ms)
        .collect();
    median(&mut latencies)
}

pub fn traced(
    spec: &'static Spec,
    workload: &Workload,
    seed: u64,
    seconds: f64,
) -> Result<(Metrics, bool), String> {
    let traffic = seconds * TRAFFIC_SHARE;

    let untraced = Served::start(ServerConfig::new())?;
    let plain = crate::send(&untraced, spec, &workload.requests, traffic, false)?;
    untraced.stop();

    let served = Served::start(ServerConfig::new())?;
    let mut ledger = Ledger::new();
    let run = crate::send(&served, spec, &workload.requests, traffic, true)?;
    let counters = server_counters(&served)?;
    served.stop();
    let judged = judge(workload, &run);
    let failures = self_check(spec, &counters, run.samples.len());
    let mut e2e = BTreeMap::new();
    for sample in &run.samples {
        let id = sample.request;
        ledger.span_at(id, "client.submit", sample.sent, sample.acked - sample.sent);
        ledger.span_at(id, "client.wait", sample.acked, sample.done - sample.acked);
        if let Some(stats) = sample.answer.as_ref().ok().and_then(|a| a.stats.as_ref()) {
            // The server reports only the backend's duration, so the span
            // is placed at the acknowledgement.
            let backend = Duration::from_micros(stats.wall_us);
            ledger.span_at(id, "server.backend", sample.acked, backend);
        }
        e2e.insert(sample.request, sample.latency_ms());
    }

    let registry = BackendRegistry::default();
    let stack = Stack {
        registry: registry.clone(),
        pipeline: SolvePipeline::new(PipelineConfig::new()),
        cache: VerdictCache::new(DEFAULT_CACHE_CAPACITY),
        service: SolveService::builder(&registry).start(),
        wire: Served::start(ServerConfig::new().no_cache())?,
        unsent: ["cdcl", "parallel-portfolio"]
            .into_iter()
            .filter(|&backend| workload.requests.iter().all(|r| r.backend != backend))
            .collect(),
    };
    let sends_nbl = workload
        .requests
        .iter()
        .any(|r| r.backend == "nbl-sampled" || r.backend == "hybrid-sampled");
    let replay_until =
        Instant::now() + Duration::from_secs_f64(seconds * (1.0 - 2.0 * TRAFFIC_SHARE));
    let mut paths = Vec::new();
    let mut ends = Vec::new();
    for (&id, &latency) in &e2e {
        if paths.len() >= MIN_REPLAYED && Instant::now() >= replay_until {
            break;
        }
        let path = replay(&mut ledger, &stack, id, &workload.requests[id])?;
        paths.push(us(path) / 1e3);
        ends.push(latency);
    }
    stack.service.shutdown();
    stack.wire.stop();
    if !sends_nbl {
        nbl_probe(&mut ledger, &registry, seed)?;
    }

    let mut metrics = Metrics::new(run.samples.len(), judged.failed);
    for name in [
        "dimacs.parse_us",
        "canonical.normalize_us",
        "canonical.preprocess_self_us",
        "canonical.canonicalize_us",
        "canonical.fingerprint_us",
    ] {
        let value = ledger.median(name);
        metrics.add(name, value, "us");
    }
    metrics.add(
        "canonical.decided_share",
        ledger.ratio("canonical.decided", "canonical.requests"),
        "share",
    );
    for name in ["cache.lookup_hit_us", "cache.lookup_miss_us"] {
        let value = ledger.median(name);
        metrics.add(name, value, "us");
    }
    let lookups = counters.cache_hits + counters.cache_misses;
    metrics.add(
        "cache.hit_share",
        counters.cache_hits as f64 / lookups.max(1) as f64,
        "share",
    );
    metrics.add(
        "cache.insertions",
        counters.cache_insertions as f64,
        "count",
    );
    metrics.add("cache.evictions", counters.cache_evictions as f64, "count");
    for name in [
        "pipeline.prepare_us",
        "pipeline.complete_us",
        "registry.dispatch_us",
        "registry.adapter_overhead_us",
        "solvers.cdcl_us",
        "solvers.portfolio_us",
    ] {
        let value = ledger.median(name);
        metrics.add(name, value, "us");
    }
    metrics.add(
        "solvers.conflicts_per_s",
        ledger.ratio("cdcl.conflicts", "cdcl.seconds"),
        "1/s",
    );
    metrics.add(
        "solvers.propagations_per_s",
        ledger.ratio("cdcl.propagations", "cdcl.seconds"),
        "1/s",
    );
    metrics.add(
        "share.imported_per_exported",
        ledger.ratio("share.imported", "share.exported"),
        "share",
    );
    for (name, unit) in [
        ("nbl.check_us", "us"),
        ("nbl.extract_us", "us"),
        ("nbl.samples_per_check", "count"),
        ("nbl.ns_per_sample", "ns"),
        ("nbl.checks_per_solve", "count"),
        ("nbl.checks_per_var", "count"),
    ] {
        let value = ledger.median(name);
        metrics.add(name, value, unit);
    }
    let refuse = algebraic_refusal(&registry)?;
    metrics.add("nbl.algebraic_refuse_ms", refuse.as_secs_f64() * 1e3, "ms");
    metrics.add("noise.carrier_ns_per_sample", carrier_fill_ns(seed), "ns");
    for name in [
        "service.submit_wait_us",
        "service.overhead_us",
        "net.roundtrip_us",
        "net.overhead_us",
        "net.frame_encode_us",
        "net.frame_parse_us",
    ] {
        let value = ledger.median(name);
        metrics.add(name, value, "us");
    }
    let bytes = ledger.median("net.bytes_per_request");
    metrics.add("net.bytes_per_request", bytes, "bytes");
    metrics.add("net.threads_peak", run.threads_peak as f64, "count");

    let rung = workloads::ladder_rung(0);
    let (one, cubes_one) = fleet(1, &rung)?;
    let (two, cubes_two) = fleet(2, &rung)?;
    metrics.add("shard.fleet1_us", us(one), "us");
    metrics.add("shard.fleet2_us", us(two), "us");
    metrics.add(
        "shard.cubes_per_solve",
        (cubes_one + cubes_two) as f64 / 2.0,
        "count",
    );

    let end_to_end = median(&mut ends);
    let layered = median(&mut paths);
    metrics.add(
        "ledger.residual_share",
        (end_to_end - layered).abs() / end_to_end,
        "share",
    );
    let (traced_p50, plain_p50) = (common_p50(&run, &plain), common_p50(&plain, &run));
    metrics.add(
        "trace.overhead_share",
        (traced_p50 - plain_p50) / plain_p50,
        "share",
    );
    roadmap(&mut metrics, &registry)?;

    metrics.note(format!(
        "ledger over {} replayed requests: e2e p50 {end_to_end:.4} ms, sum of layer self times p50 {layered:.4} ms",
        paths.len()
    ));
    metrics.note(format!(
        "traffic p50 on common requests: untraced {plain_p50:.4} ms ({} sent), traced {traced_p50:.4} ms ({} sent)",
        plain.samples.len(),
        run.samples.len()
    ));
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let path = std::path::Path::new(&target)
        .join("nbl-benchmark-spans")
        .join(format!("{}-seed{seed}.tsv", spec.name));
    ledger
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    metrics.note(format!(
        "{} spans written to {}",
        ledger.spans.len(),
        path.display()
    ));
    let correct = note_checks(&mut metrics, &judged, &counters, &failures);
    Ok((metrics, correct))
}
