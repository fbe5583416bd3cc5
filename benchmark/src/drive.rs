//! Sends a workload's requests to a server over the wire, closed or open
//! loop, and records when each was due, sent, acknowledged and answered.

use crate::procfs;
use crate::workloads::Request;
use nbl_net::protocol::WireArtifacts;
use nbl_net::{NblSatClient, NetError, RemoteJob, RemoteOutcome, SolveFrame};
use std::collections::VecDeque;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One request's timeline and answer.
#[derive(Debug)]
pub struct Sample {
    /// Index into the workload's requests.
    pub request: usize,
    /// When the open-loop schedule wanted it sent.
    pub due: Option<Instant>,
    pub sent: Instant,
    /// When the `QUEUED` acknowledgement came back.
    pub acked: Instant,
    pub done: Instant,
    pub answer: Result<RemoteOutcome, String>,
}

impl Sample {
    /// Due-to-answer time in milliseconds: from when the request was due in
    /// an open loop, from when it was sent in a closed one.
    pub fn latency_ms(&self) -> f64 {
        ms(self.done - self.due.unwrap_or(self.sent))
    }

    /// How late the generator sent it, in milliseconds.
    pub fn send_lag_ms(&self) -> f64 {
        self.due
            .map_or(0.0, |due| ms(self.sent.saturating_duration_since(due)))
    }
}

fn ms(duration: Duration) -> f64 {
    duration.as_secs_f64() * 1e3
}

/// What a drive produced.
#[derive(Debug)]
pub struct Drive {
    pub samples: Vec<Sample>,
    /// From the first send to the last answer.
    pub wall: Duration,
    /// Most threads the process had, sampled every few requests (0 when not
    /// sampled).
    pub threads_peak: u64,
}

/// From the first send to the last answer.
fn wall(samples: &[Sample], start: Instant) -> Duration {
    let first = samples.iter().map(|s| s.sent).min().unwrap_or(start);
    let last = samples.iter().map(|s| s.done).max().unwrap_or(first);
    last - first
}

/// How often (in requests) a traced drive samples the thread count.
const THREAD_SAMPLE_EVERY: usize = 16;

pub fn frame(request: &Request, stats: bool) -> SolveFrame {
    let mut frame = SolveFrame::new(request.backend, &request.text);
    frame.seed = request.seed;
    frame.artifacts = if request.model {
        WireArtifacts::Model
    } else {
        WireArtifacts::Verdict
    };
    frame.stats = stats;
    frame
}

fn connect(addr: SocketAddr) -> Result<NblSatClient, String> {
    NblSatClient::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn settle(job: &RemoteJob<'_>) -> Result<RemoteOutcome, String> {
    job.wait().map_err(|e| e.to_string())
}

/// Closed loop: `conns` connections share the request sequence; each sends
/// its next request when its previous one is answered, until `seconds`
/// have passed since the start.
pub fn closed(
    addr: SocketAddr,
    conns: usize,
    requests: &[Request],
    seconds: f64,
    stats: bool,
) -> Result<Drive, String> {
    let clients = (0..conns)
        .map(|_| connect(addr))
        .collect::<Result<Vec<_>, _>>()?;
    let next = AtomicUsize::new(0);
    let threads_peak = AtomicU64::new(0);
    let barrier = Barrier::new(conns);
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let per_thread: Vec<Vec<Sample>> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter()
            .map(|client| {
                let (next, barrier, threads_peak) = (&next, &barrier, &threads_peak);
                scope.spawn(move || {
                    let mut samples = Vec::new();
                    barrier.wait();
                    while Instant::now() < end {
                        let index = next.fetch_add(1, Ordering::Relaxed);
                        let Some(request) = requests.get(index) else {
                            break;
                        };
                        let sent = Instant::now();
                        let (acked, answer) = match client.submit(frame(request, stats)) {
                            Ok(job) => (Instant::now(), settle(&job)),
                            Err(e) => (Instant::now(), Err(e.to_string())),
                        };
                        samples.push(Sample {
                            request: index,
                            due: None,
                            sent,
                            acked,
                            done: Instant::now(),
                            answer,
                        });
                        if stats && index % THREAD_SAMPLE_EVERY == 0 {
                            threads_peak.fetch_max(procfs::threads(), Ordering::Relaxed);
                        }
                    }
                    samples
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut samples: Vec<Sample> = per_thread.into_iter().flatten().collect();
    samples.sort_by_key(|sample| sample.request);
    Ok(Drive {
        wall: wall(&samples, start),
        samples,
        threads_peak: threads_peak.into_inner(),
    })
}

/// How long the collector blocks on the oldest open job before it polls
/// the younger ones; bounds how late an out-of-order answer is seen.
const COLLECT_SLICE: Duration = Duration::from_micros(200);

struct InFlight<'a> {
    request: usize,
    due: Instant,
    sent: Instant,
    acked: Instant,
    job: Result<RemoteJob<'a>, NetError>,
}

/// Open loop over one connection: a generator thread sends request `i` at
/// `start + i / rate`, whatever is still in flight, while the calling
/// thread collects answers.
pub fn open(
    addr: SocketAddr,
    rate: f64,
    requests: &[Request],
    seconds: f64,
    stats: bool,
) -> Result<Drive, String> {
    let client = connect(addr)?;
    let count = ((rate * seconds) as usize).min(requests.len());
    let (tx, rx) = mpsc::channel::<InFlight<'_>>();
    let start = Instant::now() + Duration::from_millis(5);
    let mut samples = Vec::with_capacity(count);
    let mut threads_peak = 0;
    std::thread::scope(|scope| {
        let client = &client;
        scope.spawn(move || {
            for (index, request) in requests.iter().take(count).enumerate() {
                let due = start + Duration::from_secs_f64(index as f64 / rate);
                if let Some(wait) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let sent = Instant::now();
                let job = client.submit(frame(request, stats));
                let flight = InFlight {
                    request: index,
                    due,
                    sent,
                    acked: Instant::now(),
                    job,
                };
                if tx.send(flight).is_err() {
                    break;
                }
            }
        });
        let mut pending: VecDeque<InFlight<'_>> = VecDeque::new();
        let mut generating = true;
        let mut sampled_at = 0;
        let finish = |flight: InFlight<'_>, answer, samples: &mut Vec<Sample>| {
            samples.push(Sample {
                request: flight.request,
                due: Some(flight.due),
                sent: flight.sent,
                acked: flight.acked,
                done: Instant::now(),
                answer,
            });
        };
        loop {
            loop {
                match rx.try_recv() {
                    Ok(flight) => pending.push_back(flight),
                    Err(mpsc::TryRecvError::Empty) => break,
                    Err(mpsc::TryRecvError::Disconnected) => {
                        generating = false;
                        break;
                    }
                }
            }
            if pending.is_empty() {
                if !generating {
                    break;
                }
                match rx.recv() {
                    Ok(flight) => pending.push_back(flight),
                    Err(_) => generating = false,
                }
                continue;
            }
            let oldest = pending.pop_front().expect("pending is not empty");
            let answer = match &oldest.job {
                Err(e) => Some(Err(e.to_string())),
                Ok(job) => match job.wait_timeout(COLLECT_SLICE) {
                    Err(NetError::TimedOut) => None,
                    answer => Some(answer.map_err(|e| e.to_string())),
                },
            };
            match answer {
                Some(answer) => finish(oldest, answer, &mut samples),
                None => pending.push_front(oldest),
            }
            let mut still = VecDeque::with_capacity(pending.len());
            for flight in pending.drain(..) {
                let polled = match &flight.job {
                    Ok(job) => job.poll().map(|answer| answer.map_err(|e| e.to_string())),
                    Err(e) => Some(Err(e.to_string())),
                };
                match polled {
                    Some(answer) => finish(flight, answer, &mut samples),
                    None => still.push_back(flight),
                }
            }
            pending = still;
            if stats && samples.len() >= sampled_at + THREAD_SAMPLE_EVERY {
                sampled_at = samples.len();
                threads_peak = threads_peak.max(procfs::threads());
            }
        }
    });
    samples.sort_by_key(|sample| sample.request);
    Ok(Drive {
        wall: wall(&samples, start),
        samples,
        threads_peak,
    })
}
