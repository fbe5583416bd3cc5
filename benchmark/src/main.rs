//! End-to-end and per-layer benchmark of the NBL-SAT serving stack.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <small-fresh|resubmit-mix|search-hard|nbl-paper> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each run starts an in-process `NblSatServer` with the shipped
//! `ServerConfig::new()` (a fresh one per round for a workload sent in
//! rounds), drives one workload at it over loopback TCP for `--seconds` in
//! one-second segments with a host-speed calibration between them (see
//! `calib.rs`), checks every answer, reads the server's `METRICS` to check
//! the workload did what it was built to do, and prints one line per metric
//! followed by a JSON summary as the last line. With `--trace 0` the
//! summary holds the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a separate traced run (see `layers.rs`).
//! `LAYERS.md` maps each per-layer metric to the end-to-end metric and
//! workload it should move.

mod calib;
mod check;
mod drive;
mod layers;
mod procfs;
mod stats;
mod workloads;

use calib::{Kernel, Slowness};
use check::Grade;
use drive::Drive;
use nbl_net::{NblSatClient, NblSatServer, ServerConfig};
use stats::{median, quantile, tail, Metrics};
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Load, Spec, Workload};

/// Set-ups per run; `setup_s` is their lower quartile.
const SETUP_REPEATS: usize = 31;

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workloads::spec(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of range"));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// A running server and a control connection to it.
pub struct Served {
    pub server: NblSatServer,
    pub control: NblSatClient,
}

impl Served {
    /// Builds the default registry, binds the server and waits for the
    /// first `PING` answer: the set-up a user pays before the first solve.
    pub fn start(config: ServerConfig) -> Result<Served, String> {
        let server = NblSatServer::bind("127.0.0.1:0", config).map_err(|e| format!("bind: {e}"))?;
        let control =
            NblSatClient::connect(server.local_addr()).map_err(|e| format!("connect: {e}"))?;
        control.ping().map_err(|e| format!("ping: {e}"))?;
        Ok(Served { server, control })
    }

    pub fn stop(self) {
        drop(self.control);
        self.server.stop();
    }
}

/// Starts and stops the server `SETUP_REPEATS` times and returns the
/// lower quartile of the set-up times, in seconds. The server's accept loop
/// polls every 10 ms: a set-up whose `PING` connection arrives just after
/// the loop's first poll waits out the sleep, and a scheduling race decides
/// that for about one set-up in ten. The lower quartile is the set-up's own
/// work unless three in four set-ups lose the race; the median would jump
/// by 10 ms as soon as half did.
fn timed_setup() -> Result<f64, String> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        let served = Served::start(ServerConfig::new())?;
        times.push(started.elapsed().as_secs_f64());
        served.stop();
    }
    Ok(quantile(&mut times, 0.25))
}

/// Drives `requests` at the server with the workload's load shape.
pub fn send(
    served: &Served,
    spec: &Spec,
    requests: &[workloads::Request],
    seconds: f64,
    traced: bool,
) -> Result<Drive, String> {
    let addr = served.server.local_addr();
    match spec.load {
        Load::Closed { conns } => drive::closed(addr, conns, requests, seconds, traced),
        Load::Open { rate } => drive::open(addr, rate, requests, seconds, traced),
    }
}

/// What the server's `METRICS` said after a run.
#[derive(Debug, Default)]
pub struct ServerCounters {
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_insertions: u64,
    pub cache_evictions: u64,
    pub dispatches: u64,
    pub pre_solved: u64,
}

impl ServerCounters {
    /// Adds another server's counters to these.
    fn add(&mut self, other: &ServerCounters) {
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_insertions += other.cache_insertions;
        self.cache_evictions += other.cache_evictions;
        self.dispatches += other.dispatches;
        self.pre_solved += other.pre_solved;
    }
}

pub fn server_counters(served: &Served) -> Result<ServerCounters, String> {
    let wire = served
        .control
        .metrics()
        .map_err(|e| format!("METRICS: {e}"))?;
    Ok(ServerCounters {
        cache_hits: wire.cache_hits,
        cache_misses: wire.cache_misses,
        // The wire frame carries resident entries and evictions; every
        // resident or evicted entry was inserted once.
        cache_insertions: wire.cache_entries + wire.cache_evictions,
        cache_evictions: wire.cache_evictions,
        dispatches: wire.backends.iter().map(|b| b.count).sum(),
        pre_solved: wire.pre_solved,
    })
}

/// The workload's own design checks; returns the failures.
fn self_check(spec: &Spec, counters: &ServerCounters, attempted: usize) -> Vec<String> {
    let mut failures = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            failures.push(what);
        }
    };
    match spec.name {
        "small-fresh" => expect(
            counters.cache_hits == 0,
            format!(
                "small-fresh expects 0 cache hits, saw {}",
                counters.cache_hits
            ),
        ),
        "resubmit-mix" => {
            expect(
                counters.cache_hits > 0,
                "resubmit-mix saw no cache hits".into(),
            );
            expect(
                counters.cache_insertions > 0,
                "resubmit-mix saw no cache insertions".into(),
            );
            expect(
                counters.cache_evictions > 0,
                "resubmit-mix saw no cache evictions".into(),
            );
        }
        _ => expect(
            counters.dispatches == attempted as u64,
            format!(
                "{} expects one dispatch per request: {} dispatches for {attempted} requests",
                spec.name, counters.dispatches
            ),
        ),
    }
    failures
}

/// Judged samples of one drive.
pub struct Judged {
    pub grades: Vec<Grade>,
    pub latencies: Vec<f64>,
    pub slo_met: usize,
    pub wrong: usize,
    /// Requests without a correct answer: wrong, unknown or error.
    pub failed: usize,
    /// Correct answers that came after the workload's latency limit.
    pub late: usize,
    /// Wrong verdicts from exact backends, bad models, and errors: answers
    /// the program guarantees never to give.
    pub broken: usize,
}

pub fn judge(workload: &Workload, run: &Drive) -> Judged {
    let grades = check::grade(workload, &run.samples);
    let latencies: Vec<f64> = run.samples.iter().map(drive::Sample::latency_ms).collect();
    let mut judged = Judged {
        grades: Vec::new(),
        latencies: Vec::new(),
        slo_met: 0,
        wrong: 0,
        failed: 0,
        late: 0,
        broken: 0,
    };
    for ((sample, &grade), &latency) in run.samples.iter().zip(&grades).zip(&latencies) {
        let request = &workload.requests[sample.request];
        let correct = grade == Grade::Correct;
        let in_time = latency <= workload.spec.slo_ms;
        judged.slo_met += usize::from(correct && in_time);
        judged.failed += usize::from(!correct);
        judged.late += usize::from(correct && !in_time);
        judged.wrong += usize::from(grade.is_wrong());
        judged.broken += usize::from(match grade {
            Grade::Correct | Grade::Unknown => false,
            Grade::WrongVerdict => check::is_exact(request.backend),
            Grade::BadModel | Grade::Error => true,
        });
    }
    judged.grades = grades;
    judged.latencies = latencies;
    judged
}

/// Seconds of load between two calibrations.
const SEGMENT_S: f64 = 1.0;

/// One stretch of load between two calibrations.
struct Segment {
    drive: Drive,
    cpu_ms: f64,
    /// How many times slower than the reference machine the host ran, the
    /// mean of the calibrations on either side.
    slowness: f64,
    /// How many times longer the machine's CPUs took to do their work than
    /// they spent doing it, because the hypervisor ran something else
    /// while they wanted to run: (busy + stolen) / busy.
    stretch: f64,
}

/// The steal stretch between two `procfs::machine_ticks` readings; 1 when
/// nothing ran.
fn stretch((busy_before, stolen_before): (f64, f64), (busy, stolen): (f64, f64)) -> f64 {
    let busy = busy - busy_before;
    if busy > 0.0 {
        (busy + stolen - stolen_before) / busy
    } else {
        1.0
    }
}

/// What the load phase of a run left: its segments, with sample request
/// indices into the workload, every calibration, the server counters
/// summed over every server, and the failed self-checks.
struct Loaded {
    segments: Vec<Segment>,
    calibrations: Vec<Slowness>,
    counters: ServerCounters,
    failures: Vec<String>,
}

/// Drives the workload for `seconds`, `SEGMENT_S` seconds at a time with a
/// calibration between segments. A workload sent in rounds sends all its
/// requests to a fresh server per round, whole rounds only, while at
/// least half a round fits in the time left; any other sends its requests
/// in order to one server until the time is up.
fn load(workload: &Workload, seconds: f64) -> Result<Loaded, String> {
    let spec = workload.spec;
    let threads = calib::threads();
    let mut before = calib::slowness(threads);
    let mut loaded = Loaded {
        segments: Vec::new(),
        calibrations: vec![before],
        counters: ServerCounters::default(),
        failures: Vec::new(),
    };
    let mut elapsed = 0.0;
    loop {
        let round_start = elapsed;
        let served = Served::start(ServerConfig::new())?;
        let mut next = 0;
        while next < workload.requests.len() && (spec.rounds || elapsed < seconds) {
            let slice = if spec.rounds {
                SEGMENT_S
            } else {
                (seconds - elapsed).min(SEGMENT_S)
            };
            let (cpu_before, ticks_before) = (procfs::cpu_ms(), procfs::machine_ticks());
            let mut drive = send(&served, spec, &workload.requests[next..], slice, false)?;
            let cpu_ms = procfs::cpu_ms() - cpu_before;
            let stretch = stretch(ticks_before, procfs::machine_ticks());
            let after = calib::slowness(threads);
            loaded.calibrations.push(after);
            if drive.samples.is_empty() {
                break;
            }
            for sample in &mut drive.samples {
                sample.request += next;
            }
            next += drive.samples.len();
            // An open loop's segment lasts as long as its schedule, so a
            // run sends exactly `rate * seconds` requests.
            elapsed += match spec.load {
                Load::Open { .. } => slice,
                Load::Closed { .. } => drive.wall.as_secs_f64(),
            };
            loaded.segments.push(Segment {
                drive,
                cpu_ms,
                slowness: (before.of(spec.kernel) + after.of(spec.kernel)) / 2.0,
                stretch,
            });
            before = after;
        }
        let counters = server_counters(&served)?;
        served.stop();
        loaded.failures.extend(self_check(spec, &counters, next));
        loaded.counters.add(&counters);
        // Another round starts only if at least half of it fits in the
        // time left, so a run overshoots `seconds` by half a round at most.
        if !spec.rounds || elapsed + (elapsed - round_start) / 2.0 > seconds {
            return Ok(loaded);
        }
    }
}

fn end_to_end(args: &Args, workload: &Workload) -> Result<(Metrics, bool), String> {
    let spec = workload.spec;
    let setup_s = timed_setup()?;
    let mut loaded = load(workload, args.seconds)?;
    // Set-up is too short to calibrate around, so it is scaled by the
    // run's median spawn slowness: starting threads and trading messages
    // is most of its work, and it does not slow with the compute kernels.
    // It is not scaled by the steal stretch, which is measured under the
    // load and swings most where the load leaves the machine idle.
    let of = |kernel| -> f64 {
        let mut factors: Vec<f64> = loaded.calibrations.iter().map(|c| c.of(kernel)).collect();
        median(&mut factors)
    };
    let run_slowness = of(spec.kernel);
    let (hash_sort, sampling) = (of(Kernel::HashSort), of(Kernel::Sampling));
    let mut spawns: Vec<f64> = loaded.calibrations.iter().map(|c| c.spawn).collect();
    let spawn = median(&mut spawns);
    let mut stretches: Vec<f64> = loaded.segments.iter().map(|s| s.stretch).collect();
    let run_stretch = median(&mut stretches);
    let setup_s = setup_s / spawn;
    // Read before grading, whose own allocations are not the server's.
    let peak_rss_mb = procfs::peak_rss_mb();

    // Every time below is divided by its segment's slowness, and a wall
    // time also by its steal stretch: it reads as time on the reference
    // machine with nothing stolen (see `calib`). CPU time excludes stolen
    // time already.
    let mut slowness = Vec::new();
    let (mut wall_s, mut reference_s, mut cpu_ms) = (0.0, 0.0, 0.0);
    let mut samples = Vec::new();
    for segment in std::mem::take(&mut loaded.segments) {
        let wall = segment.drive.wall.as_secs_f64();
        let wall_scale = segment.slowness * segment.stretch;
        wall_s += wall;
        reference_s += wall / wall_scale;
        cpu_ms += segment.cpu_ms / segment.slowness;
        slowness.push(segment.slowness);
        for sample in segment.drive.samples {
            samples.push((sample, wall_scale));
        }
    }
    let (samples, sample_scale): (Vec<_>, Vec<f64>) = samples.into_iter().unzip();
    let run = Drive {
        samples,
        wall: std::time::Duration::from_secs_f64(wall_s),
        threads_peak: 0,
    };
    let judged = judge(workload, &run);
    let attempted = run.samples.len();
    let grades = judged.grades.iter();
    let solved = grades.clone().filter(|&&g| g == Grade::Correct).count();
    let answered = grades.filter(|&&g| g != Grade::Error).count();
    let mut raw_latencies = judged.latencies.clone();
    let mut latencies: Vec<f64> = judged
        .latencies
        .iter()
        .zip(&sample_scale)
        .map(|(latency, scale)| latency / scale)
        .collect();
    let latency_tail = tail(&mut latencies);
    let mut lags: Vec<f64> = run.samples.iter().map(drive::Sample::send_lag_ms).collect();
    let lag_tail = tail(&mut lags);

    let share = |count: usize| count as f64 / attempted.max(1) as f64;
    let mut metrics = Metrics::new(attempted, judged.failed);
    metrics.add("setup_s", setup_s, "s");
    // An open loop's throughput is its arrival rate, not a cost of the
    // program, so it is not scaled.
    let solves_per_s = match spec.load {
        Load::Open { .. } => solved as f64 / wall_s,
        Load::Closed { .. } => solved as f64 / reference_s,
    };
    metrics.add("solves_per_s", solves_per_s, "1/s");
    metrics.add("latency_p50_ms", median(&mut latencies), "ms");
    metrics.add("slo_met_share", share(judged.slo_met), "share");
    metrics.add("cpu_ms_per_solve", cpu_ms / answered.max(1) as f64, "ms");
    metrics.add("peak_rss_mb", peak_rss_mb, "MiB");
    metrics.show("latency_p90_ms", quantile(&mut latencies, 0.9), "ms");
    metrics.show("latency_tail_ms", latency_tail.value, "ms");
    metrics.show("failed_share", share(judged.failed + judged.late), "share");
    metrics.show("wrong_share", share(judged.wrong), "share");
    if let Load::Open { rate } = spec.load {
        metrics.show("send_lag_ms", lag_tail.value, "ms");
        metrics.note(format!(
            "send_lag_ms is p{:.2} with {} samples beyond it, at {rate} requests/s",
            lag_tail.percentile, lag_tail.beyond
        ));
    }
    metrics.note(format!(
        "latency_tail_ms is p{:.2} with {} of {} samples beyond it",
        latency_tail.percentile, latency_tail.beyond, attempted
    ));
    metrics.note(format!(
        "failed_share counts {} of {attempted}: {} wrong, unknown or error, {} over the {} ms limit; wrong_share {} of {attempted}",
        judged.failed + judged.late, judged.failed, judged.late, spec.slo_ms, judged.wrong
    ));
    metrics.note(format!(
        "times are at reference speed, scaled by the {:?} kernel: host slowness median {run_slowness:.3} over {} calibrations (hash-sort {hash_sort:.3}, sampling {sampling:.3}, spawn {spawn:.3}); over {} segments median {:.3}, min {:.3}, max {:.3}",
        spec.kernel,
        loaded.calibrations.len(),
        slowness.len(),
        median(&mut slowness),
        slowness.first().copied().unwrap_or(0.0),
        slowness.last().copied().unwrap_or(0.0),
    ));
    metrics.note(format!(
        "wall times also scaled by the steal stretch: median {run_stretch:.3}, min {:.3}, max {:.3}",
        stretches.first().copied().unwrap_or(0.0),
        stretches.last().copied().unwrap_or(0.0),
    ));
    metrics.note(format!(
        "unscaled: latency p50 {:.4} ms, {:.2} solves/s over {:.2} s",
        median(&mut raw_latencies),
        solved as f64 / wall_s,
        wall_s
    ));
    let correct = note_checks(&mut metrics, &judged, &loaded.counters, &loaded.failures);
    Ok((metrics, correct))
}

/// Notes the answer grades, the server counters and every failed check;
/// returns whether the run is correct.
pub fn note_checks(
    metrics: &mut Metrics,
    judged: &Judged,
    counters: &ServerCounters,
    failures: &[String],
) -> bool {
    for (grade, label) in [
        (Grade::Unknown, "unknown"),
        (Grade::Error, "error"),
        (Grade::BadModel, "bad model"),
        (Grade::WrongVerdict, "wrong verdict"),
    ] {
        let count = judged.grades.iter().filter(|&&g| g == grade).count();
        if count > 0 {
            metrics.note(format!("answers graded {label}: {count}"));
        }
    }
    metrics.note(format!(
        "server: dispatches={} cache-hits={} cache-misses={} insertions={} evictions={} pre-solved={}",
        counters.dispatches,
        counters.cache_hits,
        counters.cache_misses,
        counters.cache_insertions,
        counters.cache_evictions,
        counters.pre_solved
    ));
    for failure in failures {
        metrics.note(format!("SELF-CHECK FAILED: {failure}"));
    }
    if judged.broken > 0 {
        metrics.note(format!(
            "CHECK FAILED: {} answers the program guarantees never to give",
            judged.broken
        ));
    }
    failures.is_empty() && judged.broken == 0
}

fn run(args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let workload = workloads::generate(args.workload, args.seed, args.seconds);
    println!(
        "# workload {} seed {} seconds {} trace {}: {} requests generated in {:.2} s; cpus {}",
        args.workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        workload.requests.len(),
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    let (metrics, correct) = if args.trace {
        layers::traced(args.workload, &workload, args.seed, args.seconds)?
    } else {
        end_to_end(args, &workload)?
    };
    metrics.print(correct);
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("nbl-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("nbl-benchmark: {message}");
            ExitCode::FAILURE
        }
    }
}
