//! Host-speed calibration.
//!
//! A shared host's speed drifts by a third or more over minutes, so raw
//! times from two runs of the same code can differ by more than any change
//! worth measuring. A run therefore times fixed kernels, written here and
//! sharing no code with the program, between its load segments, on as many
//! threads as the server has workers, and divides every time it reports by
//! how much slower the workload's kernel ran than on the reference machine.
//! The times read as milliseconds on the reference machine; a change to
//! the program moves them and a change in the host's speed largely does
//! not.

use crate::stats::median;
use crate::workloads::Rng;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::hint::black_box;
use std::sync::mpsc;
use std::time::Instant;

/// Median time of one call of each kernel on the reference machine (a
/// 2-core Intel Xeon VM), in nanoseconds: the compute kernels in a quiet
/// spell, the spawn in a spell where the compute kernels ran 1.7 times
/// slower (no quiet spell was left to time it in).
const REFERENCE_HASH_SORT_NS: f64 = 204_500.0;
const REFERENCE_SAMPLING_NS: f64 = 200_000.0;
const REFERENCE_SPAWN_NS: f64 = 45_000.0;

/// Keys one hash-and-sort call hashes and sorts: a working set that fits
/// in L2, like the formulas the server handles.
const KERNEL_KEYS: usize = 6144;

/// Noise sources and products per sample of the sampling kernel, and
/// samples per call.
const SOURCES: usize = 12;
const PRODUCTS: usize = 8;
const SAMPLES: usize = 11_000;

/// Timed calls of each kernel per thread in one calibration.
const CALLS: usize = 64;

/// Threads one calibration starts, one after another, to time a spawn.
const SPAWNS: usize = 32;

/// Untimed calls of each kernel first, which fault in the buffers' pages.
const WARM_UP: usize = 2;

/// Which kernel a workload's times are scaled by: the one whose work is
/// most like the workload's hot path. A host slows branchy, latency-bound
/// code and arithmetic-bound code by different amounts.
#[derive(Debug, Clone, Copy)]
pub enum Kernel {
    /// Hashing, sorting and branches over an L2-sized working set, like
    /// parsing, canonicalizing and CDCL search.
    HashSort,
    /// Random numbers and floating-point sums and products, like carrier
    /// generation and the NBL engines' sampling loop.
    Sampling,
}

/// Buffers one calibration thread reuses from call to call, so the
/// kernels allocate nothing and their speed does not depend on what the
/// program left in the allocator.
struct Buffers {
    keys: Vec<u64>,
    counts: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>>,
    values: [f64; SOURCES],
}

impl Buffers {
    fn new() -> Self {
        Buffers {
            keys: Vec::with_capacity(KERNEL_KEYS),
            counts: HashMap::with_capacity_and_hasher(KERNEL_KEYS, Default::default()),
            values: [0.0; SOURCES],
        }
    }

    /// Counts keys in a hash map, then sorts and deduplicates them.
    fn hash_sort(&mut self, seed: u64) -> usize {
        let mut rng = Rng::new(seed);
        self.keys.clear();
        self.keys
            .extend((0..KERNEL_KEYS).map(|_| rng.next_u64() % (4 * KERNEL_KEYS as u64)));
        self.counts.clear();
        for &key in &self.keys {
            *self.counts.entry(key).or_default() += 1;
        }
        self.keys.sort_unstable();
        self.keys.dedup();
        self.keys.len() + self.counts.len()
    }

    /// Draws uniform noise for every source, then adds up the product of
    /// three-source sums, sample after sample.
    fn sampling(&mut self, seed: u64) -> f64 {
        let mut rng = Rng::new(seed);
        let mut total = 0.0;
        for _ in 0..SAMPLES {
            for value in &mut self.values {
                *value = rng.unit() - 0.5;
            }
            let v = &self.values;
            let product: f64 = (0..PRODUCTS)
                .map(|i| v[i % SOURCES] + v[(i + 3) % SOURCES] - v[(i + 7) % SOURCES])
                .product();
            total += product;
        }
        total
    }
}

/// How many times slower than on the reference machine each kernel's
/// median call ran.
#[derive(Debug, Clone, Copy)]
pub struct Slowness {
    pub hash_sort: f64,
    pub sampling: f64,
    /// Starting a thread and trading a message with it: the work of a
    /// server set-up, which system calls and wake-ups dominate.
    pub spawn: f64,
}

impl Slowness {
    pub fn of(self, kernel: Kernel) -> f64 {
        match kernel {
            Kernel::HashSort => self.hash_sort,
            Kernel::Sampling => self.sampling,
        }
    }
}

/// Runs both kernels on `threads` threads at once, alternating calls so
/// both see the same stretch of time, and returns their slowness. A call
/// is far shorter than a scheduler time slice, so the median call ran
/// unpreempted: this measures how fast the CPU ran while it was ours, not
/// how often it was.
pub fn slowness(threads: usize) -> Slowness {
    let per_thread: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|thread| {
                scope.spawn(move || {
                    let mut buffers = Buffers::new();
                    let (mut hash_sort, mut sampling) = (Vec::new(), Vec::new());
                    for call in 0..WARM_UP + CALLS {
                        let seed = (thread * (WARM_UP + CALLS) + call) as u64;
                        let started = Instant::now();
                        black_box(buffers.hash_sort(black_box(seed)));
                        let between = Instant::now();
                        black_box(buffers.sampling(black_box(seed)));
                        if call >= WARM_UP {
                            hash_sort.push((between - started).as_secs_f64() * 1e9);
                            sampling.push(between.elapsed().as_secs_f64() * 1e9);
                        }
                    }
                    (hash_sort, sampling)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("calibration thread panicked"))
            .collect()
    });
    let (mut hash_sort, mut sampling) = (Vec::new(), Vec::new());
    for (h, s) in per_thread {
        hash_sort.extend(h);
        sampling.extend(s);
    }
    Slowness {
        hash_sort: median(&mut hash_sort) / REFERENCE_HASH_SORT_NS,
        sampling: median(&mut sampling) / REFERENCE_SAMPLING_NS,
        spawn: spawn_ns() / REFERENCE_SPAWN_NS,
    }
}

/// Median time, in nanoseconds, to start a thread, send it a message and
/// receive its answer.
fn spawn_ns() -> f64 {
    let mut times: Vec<f64> = (0..SPAWNS)
        .map(|n| {
            let started = Instant::now();
            let (to_thread, inbox) = mpsc::channel::<usize>();
            let (answer, from_thread) = mpsc::channel::<usize>();
            let thread = std::thread::spawn(move || {
                let n = inbox.recv().expect("the calibration sends one message");
                answer
                    .send(n)
                    .expect("the calibration waits for the answer");
            });
            to_thread.send(n).expect("the spawned thread is alive");
            black_box(from_thread.recv().expect("the spawned thread answers"));
            let took = started.elapsed().as_secs_f64() * 1e9;
            thread.join().expect("calibration thread panicked");
            took
        })
        .collect();
    median(&mut times)
}

/// Threads a calibration uses: one per CPU the server's workers get.
pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}
