//! The four workloads: what each one sends, in what order, and how it is
//! loaded. Every input is derived from the run seed; the server only ever
//! sees the generated DIMACS text.

use crate::calib::Kernel;
use cnf::generators::{
    adder_equivalence_miter, buggy_adder_miter, graph_coloring, parity_chain, pigeonhole,
    random_ksat, section4_sat_instance, section4_unsat_instance, Graph, RandomKSatConfig,
};
use cnf::{fingerprint, preprocess, CnfFormula, PreprocessOutcome};
use std::collections::HashSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// How a workload loads the server.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// `conns` connections, each sending its next request when the previous
    /// one is answered.
    Closed { conns: usize },
    /// One generator sending on a fixed schedule of `rate` requests per
    /// second, whatever the server's state.
    Open { rate: f64 },
}

/// A workload's fixed parameters.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub load: Load,
    /// Latency limit for `slo_met_share`, in milliseconds.
    pub slo_ms: f64,
    /// Upper bound on requests per second of run time; sizes the request
    /// pool of a workload not sent in rounds.
    pub max_rate: f64,
    /// Whether the requests form one round, sent whole to a fresh server
    /// again and again until the run's time is up, so every run repeats the
    /// same work; otherwise they are sent once, in order, to one server.
    pub rounds: bool,
    /// The calibration kernel its times are scaled by.
    pub kernel: Kernel,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "small-fresh",
        load: Load::Closed { conns: 2 },
        slo_ms: 100.0,
        max_rate: 1500.0,
        rounds: false,
        kernel: Kernel::HashSort,
    },
    Spec {
        name: "resubmit-mix",
        // A sixth of the 1200-1250 requests/s this mix reached closed-loop
        // over 2 connections on a 2-core x86-64 VM in a quiet spell; frozen
        // since. In bad spells that VM's CPUs ran twice as slow and the
        // hypervisor took half their time: at a third of capacity the
        // queue then saturated (send lag 50 ms, p50 up sixfold), at a sixth
        // it stays below two thirds busy.
        load: Load::Open { rate: 200.0 },
        slo_ms: 50.0,
        max_rate: 200.0,
        rounds: false,
        kernel: Kernel::HashSort,
    },
    Spec {
        name: "search-hard",
        load: Load::Closed { conns: 1 },
        slo_ms: 30_000.0,
        max_rate: 20.0,
        rounds: true,
        kernel: Kernel::HashSort,
    },
    Spec {
        name: "nbl-paper",
        load: Load::Closed { conns: 2 },
        slo_ms: 10_000.0,
        max_rate: 60.0,
        rounds: true,
        kernel: Kernel::Sampling,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|spec| spec.name == name)
}

/// A formula as the client holds it: DIMACS-signed clauses over `num_vars`
/// variables, in the caller's variable space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Formula {
    pub num_vars: usize,
    pub clauses: Vec<Vec<i64>>,
}

impl Formula {
    pub fn from_cnf(formula: &CnfFormula) -> Self {
        Formula {
            num_vars: formula.num_vars(),
            clauses: formula
                .iter()
                .map(|clause| clause.iter().map(|lit| lit.to_dimacs()).collect())
                .collect(),
        }
    }

    pub fn to_cnf(&self) -> CnfFormula {
        let mut formula =
            CnfFormula::from_dimacs_clauses(&self.clauses).expect("generated literals are nonzero");
        formula.ensure_vars(self.num_vars);
        formula
    }

    /// Reads DIMACS text back (the header's variable count, then
    /// zero-terminated clauses). Only the benchmark's own text is parsed
    /// here, so malformed input is a bug.
    pub fn parse(text: &str) -> Formula {
        let mut lines = text.lines();
        let header = lines.next().expect("DIMACS header line");
        let num_vars = header
            .split_whitespace()
            .nth(2)
            .and_then(|n| n.parse().ok())
            .expect("DIMACS header names the variable count");
        let mut clauses = Vec::new();
        let mut clause = Vec::new();
        for token in lines.flat_map(str::split_whitespace) {
            match token.parse::<i64>().expect("DIMACS literal") {
                0 => clauses.push(std::mem::take(&mut clause)),
                lit => clause.push(lit),
            }
        }
        Formula { num_vars, clauses }
    }

    pub fn dimacs(&self) -> String {
        let mut text = format!("p cnf {} {}\n", self.num_vars, self.clauses.len());
        for clause in &self.clauses {
            for lit in clause {
                let _ = write!(text, "{lit} ");
            }
            text.push_str("0\n");
        }
        text
    }

    /// Whether the DIMACS-signed `model` satisfies every clause. A variable
    /// the model leaves out counts as unassigned, so it satisfies nothing.
    pub fn satisfied_by(&self, model: &[i64]) -> bool {
        let mut value = vec![None; self.num_vars + 1];
        for &lit in model {
            if let Some(slot) = value.get_mut(lit.unsigned_abs() as usize) {
                *slot = Some(lit > 0);
            }
        }
        self.clauses.iter().all(|clause| {
            clause
                .iter()
                .any(|&lit| value[lit.unsigned_abs() as usize] == Some(lit > 0))
        })
    }

    /// An isomorphic copy: variables renamed by a random permutation,
    /// clauses and the literals inside them shuffled, and, when `flip` is
    /// set, the polarity of a random half of the variables inverted.
    pub fn variant(&self, rng: &mut Rng, flip: bool) -> Formula {
        let mut perm: Vec<i64> = (1..=self.num_vars as i64).collect();
        rng.shuffle(&mut perm);
        let signs: Vec<i64> = (0..self.num_vars)
            .map(|_| if flip && rng.below(2) == 1 { -1 } else { 1 })
            .collect();
        let mut clauses: Vec<Vec<i64>> = self
            .clauses
            .iter()
            .map(|clause| {
                let mut renamed: Vec<i64> = clause
                    .iter()
                    .map(|&lit| {
                        let var = lit.unsigned_abs() as usize - 1;
                        lit.signum() * signs[var] * perm[var]
                    })
                    .collect();
                rng.shuffle(&mut renamed);
                renamed
            })
            .collect();
        rng.shuffle(&mut clauses);
        Formula {
            num_vars: self.num_vars,
            clauses,
        }
    }
}

/// SplitMix64: small, seedable, and independent of the code under test.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One request as sent: its exact DIMACS text and how to solve it.
/// Requests in the same verdict `class` are isomorphic, so one oracle
/// verdict serves them all. Only the text is kept, so the pool of
/// pre-generated requests stays small next to the server's own memory.
#[derive(Debug, Clone)]
pub struct Request {
    pub backend: &'static str,
    pub model: bool,
    pub seed: u64,
    pub text: Arc<str>,
    pub class: usize,
}

/// A generated workload: its spec, the requests in sending order, and one
/// representative DIMACS text per verdict class.
#[derive(Debug)]
pub struct Workload {
    pub spec: &'static Spec,
    pub requests: Vec<Request>,
    pub classes: Vec<Arc<str>>,
}

impl Workload {
    fn new(spec: &'static Spec) -> Self {
        Workload {
            spec,
            requests: Vec::new(),
            classes: Vec::new(),
        }
    }

    /// Adds `text` as a new verdict class and returns the class id.
    fn class(&mut self, text: &Arc<str>) -> usize {
        self.classes.push(Arc::clone(text));
        self.classes.len() - 1
    }

    fn push(&mut self, backend: &'static str, model: bool, seed: u64, formula: &Formula) {
        let text: Arc<str> = formula.dimacs().into();
        let class = self.class(&text);
        self.push_in_class(backend, model, seed, text, class);
    }

    fn push_in_class(
        &mut self,
        backend: &'static str,
        model: bool,
        seed: u64,
        text: Arc<str>,
        class: usize,
    ) {
        self.requests.push(Request {
            backend,
            model,
            seed,
            text,
            class,
        });
    }
}

/// Builds the requests of workload `spec` for a run of `seconds` seconds:
/// one round of a workload sent in rounds.
pub fn generate(spec: &'static Spec, seed: u64, seconds: f64) -> Workload {
    let count = (spec.max_rate * seconds).ceil() as usize + 16;
    let mut rng = Rng::new(seed);
    match spec.name {
        "small-fresh" => small_fresh(spec, &mut rng, count),
        "resubmit-mix" => resubmit_mix(spec, &mut rng, count),
        "search-hard" => search_hard(spec, &mut rng),
        "nbl-paper" => nbl_paper(spec, &mut rng),
        other => unreachable!("no generator for workload {other}"),
    }
}

/// Random 3-SAT over `n` variables with a clause ratio drawn from
/// [3.8, 4.6].
fn random_3sat(rng: &mut Rng, n: usize) -> Formula {
    let alpha = 3.8 + 0.8 * rng.unit();
    let m = (alpha * n as f64).round() as usize;
    let config = RandomKSatConfig::new(n, m, 3).with_seed(rng.next_u64());
    Formula::from_cnf(&random_ksat(&config).expect("valid random 3-SAT configuration"))
}

/// An isomorphism invariant of a graph: its vertex count, sorted degree
/// sequence and sorted list of edge end-point degrees. Isomorphic graphs
/// always share it, so a draw whose invariant was seen before is redrawn.
type GraphInvariant = (usize, Vec<usize>, Vec<(usize, usize)>);

/// 3-coloring of a random graph on 12 to 16 vertices that is not
/// isomorphic to any graph in `seen`. Sparse draws of this size do
/// collide now and then (once in a run of about 3,800 draws), and the
/// cache would answer the second one.
fn random_coloring(rng: &mut Rng, seen: &mut HashSet<GraphInvariant>) -> Formula {
    loop {
        let vertices = rng.range(12, 16);
        let density = 0.22 + 0.16 * rng.unit();
        let mut edges = Vec::new();
        let mut degree = vec![0; vertices];
        for a in 0..vertices {
            for b in a + 1..vertices {
                if rng.unit() < density {
                    edges.push((a, b));
                    degree[a] += 1;
                    degree[b] += 1;
                }
            }
        }
        let mut ends: Vec<(usize, usize)> = edges
            .iter()
            .map(|&(a, b)| (degree[a].min(degree[b]), degree[a].max(degree[b])))
            .collect();
        ends.sort_unstable();
        let mut degrees = degree.clone();
        degrees.sort_unstable();
        if seen.insert((vertices, degrees, ends)) {
            return Formula::from_cnf(&graph_coloring(&Graph::new(vertices, edges), 3));
        }
    }
}

/// The structured instances of small-fresh. Each is sent once per run, so
/// none can be answered from the cache.
fn small_fixed() -> Vec<CnfFormula> {
    let mut fixed = Vec::new();
    for (p, h) in [(3, 2), (4, 3), (5, 4), (6, 5), (3, 3), (4, 4)] {
        fixed.push(pigeonhole(p, h));
    }
    for width in 2..=4 {
        fixed.push(adder_equivalence_miter(width));
        for bit in 0..width {
            fixed.push(buggy_adder_miter(width, bit));
        }
    }
    fixed.push(section4_sat_instance());
    fixed.push(section4_unsat_instance());
    for n in 4..=24 {
        for target in [false, true] {
            fixed.push(parity_chain(n, target));
        }
    }
    fixed
}

/// Every request is new up to isomorphism: random 3-SAT and random-graph
/// coloring, with the structured instances spread one per four requests
/// until they run out.
fn small_fresh(spec: &'static Spec, rng: &mut Rng, count: usize) -> Workload {
    let mut workload = Workload::new(spec);
    let mut fixed = small_fixed().into_iter();
    let mut graphs = HashSet::new();
    for i in 0..count {
        let seed = rng.next_u64();
        let structured = if i % 4 == 3 { fixed.next() } else { None };
        let formula = match (i % 4, structured) {
            (_, Some(structured)) => Formula::from_cnf(&structured).variant(rng, false),
            (2, None) => random_coloring(rng, &mut graphs),
            _ => {
                let n = rng.range(10, 60);
                random_3sat(rng, n)
            }
        };
        workload.push("cdcl", true, seed, &formula);
    }
    workload
}

/// Size of the resubmit-mix base pool: larger than the server's default
/// 1024-entry cache, so hits run beside insertions and evictions.
const BASE_POOL: usize = 2048;

/// The `i`-th resubmit-mix instance: random 3-SAT whose size follows `i`
/// on a fixed schedule (n 20 to 50), so every seed puts instances of the
/// same sizes at the same popularity ranks and only their contents are
/// random. Coloring is left out here: its color symmetry makes the cost
/// of canonicalizing one instance swing with its graph, and a popular
/// instance's cost would then swing the whole run.
fn mix_instance(rng: &mut Rng, i: usize) -> Formula {
    random_3sat(rng, 20 + (i * 13) % 31)
}

/// Requests drawn Zipf-like (exponent 1) from a base pool; in every ten, five
/// are verbatim resubmissions, three are isomorphic variants (renamed,
/// polarity-flipped, shuffled) and two are brand-new instances.
fn resubmit_mix(spec: &'static Spec, rng: &mut Rng, count: usize) -> Workload {
    let mut workload = Workload::new(spec);
    let base: Vec<(Formula, usize, Arc<str>)> = (0..BASE_POOL)
        .map(|i| {
            let formula = mix_instance(rng, i);
            let text: Arc<str> = formula.dimacs().into();
            let class = workload.class(&text);
            (formula, class, text)
        })
        .collect();
    let mut cdf = Vec::with_capacity(BASE_POOL);
    let mut total = 0.0;
    for rank in 0..BASE_POOL {
        total += 1.0 / (rank + 1) as f64;
        cdf.push(total);
    }
    for i in 0..count {
        let seed = rng.next_u64();
        let draw = rng.unit() * total;
        let pick = cdf.partition_point(|&c| c < draw).min(BASE_POOL - 1);
        let (formula, class, text) = &base[pick];
        match i % 10 {
            0..=4 => workload.requests.push(Request {
                backend: "cdcl",
                model: true,
                seed,
                text: Arc::clone(text),
                class: *class,
            }),
            5..=7 => {
                let variant: Arc<str> = formula.variant(rng, true).dimacs().into();
                workload.push_in_class("cdcl", true, seed, variant, *class);
            }
            _ => {
                let fresh = mix_instance(rng, i);
                workload.push("cdcl", true, seed, &fresh);
            }
        }
    }
    workload
}

/// Generator seed of the search-hard ladder.
const LADDER_SEED: u64 = 0x5ea7_c4a2;

/// Rungs in one search-hard round.
const LADDER_RUNGS: usize = 13;

/// One round: a fixed ladder of threshold random 3-SAT (alpha = 4.26, n
/// from 150 to 200 in steps of 10) with php(8,7) as its third rung, so
/// every run meets the same search effort. The run seed renames variables
/// and shuffles clauses, which canonicalization undoes; the portfolio's
/// stochastic members are seeded per rung, so each rung costs the same
/// search in every run. Backends alternate cdcl and parallel-portfolio.
fn search_hard(spec: &'static Spec, rng: &mut Rng) -> Workload {
    let mut workload = Workload::new(spec);
    for i in 0..LADDER_RUNGS {
        let base = ladder_rung(i);
        let backend = if i % 2 == 0 {
            "cdcl"
        } else {
            "parallel-portfolio"
        };
        let seed = LADDER_SEED + i as u64;
        let formula = Formula::from_cnf(&base).variant(rng, false);
        workload.push(backend, true, seed, &formula);
    }
    workload
}

/// Rung `i` of the search-hard ladder, before the run's renaming.
pub fn ladder_rung(i: usize) -> CnfFormula {
    if i == 2 {
        return pigeonhole(8, 7);
    }
    let n = 150 + 10 * (i % 6);
    let config = RandomKSatConfig::from_ratio(n, 4.26, 3).with_seed(LADDER_SEED + i as u64);
    random_ksat(&config).expect("valid random 3-SAT configuration")
}

/// (k, n, m) strata of nbl-paper: n·m from 12 to 48, across which the
/// §III.F stopping rule goes from deciding within its sample cap to not.
const NBL_STRATA: [(usize, usize, usize); 24] = [
    (2, 3, 4),
    (2, 3, 6),
    (2, 3, 8),
    (2, 4, 4),
    (2, 4, 6),
    (2, 4, 8),
    (2, 5, 4),
    (2, 5, 6),
    (2, 5, 8),
    (2, 6, 4),
    (2, 6, 6),
    (2, 6, 8),
    (3, 3, 4),
    (3, 3, 6),
    (3, 3, 8),
    (3, 4, 4),
    (3, 4, 6),
    (3, 4, 8),
    (3, 5, 4),
    (3, 5, 6),
    (3, 5, 8),
    (3, 6, 4),
    (3, 6, 6),
    (3, 6, 8),
];

/// Passes over the strata in one nbl-paper round.
const NBL_PASSES: usize = 2;

/// Draws per stratum before it is skipped for this request.
const NBL_TRIES: usize = 64;

/// Generator seed of the nbl-paper corpus.
const NBL_SEED: u64 = 0x0b1_5a7;

/// One round of the paper's algorithm on instances preprocessing cannot
/// decide: the two §IV instances, then random 2-SAT and 3-SAT drawn
/// stratum by stratum, `NBL_PASSES` times, from a fixed corpus, so every
/// run meets the same mix of n·m. An instance isomorphic to one already
/// drawn is redrawn, so every request reaches a backend; nothing is
/// selected by whether the engine answers it correctly. The run seed renames variables and shuffles clauses (undone
/// by canonicalization); the sampled engines are seeded from the corpus,
/// so each entry costs the same sampling in every run. Requests alternate
/// nbl-sampled (verdict) and hybrid-sampled (model).
fn nbl_paper(spec: &'static Spec, rng: &mut Rng) -> Workload {
    const BACKENDS: [(&str, bool); 2] = [("nbl-sampled", false), ("hybrid-sampled", true)];
    let mut workload = Workload::new(spec);
    let mut corpus = Rng::new(NBL_SEED);
    let mut seen = HashSet::new();
    let mut undecided = |formula: &CnfFormula| match preprocess(formula).outcome {
        PreprocessOutcome::Reduced { formula, .. } => seen.insert(fingerprint(&formula)),
        _ => false,
    };
    for (formula, (backend, model)) in [section4_sat_instance(), section4_unsat_instance()]
        .into_iter()
        .zip(BACKENDS)
    {
        undecided(&formula);
        let presented = Formula::from_cnf(&formula).variant(rng, false);
        workload.push(backend, model, corpus.next_u64(), &presented);
    }
    for _ in 0..NBL_PASSES {
        for (k, n, m) in NBL_STRATA {
            for (backend, model) in BACKENDS {
                let drawn = (0..NBL_TRIES).find_map(|_| {
                    let config = RandomKSatConfig::new(n, m, k).with_seed(corpus.next_u64());
                    random_ksat(&config)
                        .ok()
                        .filter(|formula| undecided(formula))
                });
                if let Some(formula) = drawn {
                    let presented = Formula::from_cnf(&formula).variant(rng, false);
                    workload.push(backend, model, corpus.next_u64(), &presented);
                }
            }
        }
    }
    workload
}
