//! The fleet coordinator: farms cube-restricted subproblems to `nbl-satd`
//! servers and merges their answers into one verdict.
//!
//! [`ShardCoordinator::solve`] splits the formula into a covering,
//! pairwise-contradictory cube set (see [`crate::splitter`]), then runs one
//! pump thread per connected shard. Each pump pops cubes from a shared work
//! queue, restricts the original formula to the cube and ships the residual
//! as a `SOLVE` frame. The first *verified* satisfying model wins: the
//! coordinator checks every returned model against the original formula
//! before declaring SAT and cancelling the rest of the fleet over the wire.
//! `UNSATISFIABLE` is claimed only when every cube of the partition has been
//! refuted and no sub-solve was left undecided.
//!
//! The work queue is resilient: pumps steal cubes that have sat on a slow
//! shard past [`ShardConfig::steal_after`] and re-split them adaptively into
//! finer cubes; a shard connection dying mid-solve requeues its cube for the
//! survivors; and when the whole fleet is gone the coordinator degrades to
//! solving the leftover cubes locally through its [`BackendRegistry`].
//!
//! Shards that answer the `HELLO` probe with `CAPS sessions=true` are driven
//! through the incremental `SESSION` extension instead of per-cube `SOLVE`
//! frames: the pump pushes the full formula once at startup and each cube
//! then ships as a [`Cube::to_assumptions`] list on a `SESSION ASSUME`
//! frame, so the shard's solver keeps its learned clauses (and its clause
//! database) across the whole cube stream. Legacy shards keep the original
//! restrict-and-re-encode dispatch.

use crate::splitter::{split_cube, SplitConfig};
use cnf::{
    dimacs, preprocess, Assignment, CnfFormula, Cube, CubeRestriction, PreprocessOutcome,
    RestrictionOutcome, Variable,
};
use nbl_net::{
    ClientConfig, NblSatClient, NetError, RemoteJob, RemoteSession, SolveFrame, WireCause,
    WireVerdict,
};
use nbl_sat_core::{
    Artifacts, BackendRegistry, Budget, ExhaustedResource, SolveRequest, SolveStats, SolveVerdict,
    UnknownCause,
};
use std::collections::VecDeque;
use std::fmt;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// How long a pump sleeps between checks of the shared state while idle or
/// while polling an in-flight remote job.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Errors surfaced while building a coordinator.
#[derive(Debug)]
pub enum ShardError {
    /// Shard addresses were given but not a single one could be reached.
    NoShards {
        /// The connection error for each address, in input order.
        errors: Vec<(String, std::io::Error)>,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::NoShards { errors } => {
                write!(f, "no shard reachable:")?;
                for (addr, e) in errors {
                    write!(f, " [{addr}: {e}]")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for ShardError {}

/// Configuration of a [`ShardCoordinator`].
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Registry name of the backend the shards (and the local fallback) run.
    pub backend: String,
    /// Base seed; cube `i` solves with seed `seed + i` so stochastic
    /// backends stay deterministic per cube.
    pub seed: u64,
    /// Cube-count target for the initial split. Defaults to four cubes per
    /// connected shard (minimum eight) so the queue stays ahead of the fleet.
    pub target_cubes: Option<usize>,
    /// Depth cap on split cubes (branch literals per cube).
    pub max_depth: usize,
    /// Per-cube wall-clock budget shipped in each `SOLVE` frame, if any.
    pub cube_wall_ms: Option<u64>,
    /// Per-shard TCP connect deadline.
    pub connect_timeout: Duration,
    /// Give up on a shard entirely once one of its jobs has been in flight
    /// this long: cancel, requeue the cube elsewhere, drop the connection.
    pub solve_timeout: Option<Duration>,
    /// An idle pump steals and re-splits a cube another shard has held in
    /// flight longer than this.
    pub steal_after: Duration,
    /// Solve leftover cubes in-process when the fleet dies or is empty.
    pub local_fallback: bool,
    /// Backends for the local fallback path.
    pub registry: BackendRegistry,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            backend: "cdcl".to_owned(),
            seed: 0,
            target_cubes: None,
            max_depth: 24,
            cube_wall_ms: None,
            connect_timeout: Duration::from_secs(5),
            solve_timeout: None,
            steal_after: Duration::from_secs(2),
            local_fallback: true,
            registry: BackendRegistry::default(),
        }
    }
}

impl ShardConfig {
    /// The default config with the given backend name.
    pub fn new(backend: impl Into<String>) -> Self {
        ShardConfig {
            backend: backend.into(),
            ..ShardConfig::default()
        }
    }
}

/// Fleet-level counters, merged across every pump of a [`ShardCoordinator::solve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FleetStats {
    /// Shards connected when the solve started.
    pub shards: usize,
    /// Cubes the initial split produced (open + refuted).
    pub cubes_split: usize,
    /// Cubes refuted by unit propagation during splitting (initial + steals).
    pub splitter_refuted: usize,
    /// Remote `s SATISFIABLE` results received.
    pub remote_sat: usize,
    /// Remote `s UNSATISFIABLE` results received.
    pub remote_unsat: usize,
    /// Remote `s UNKNOWN` results received.
    pub remote_unknown: usize,
    /// Cubes whose restriction satisfied the formula without any solving.
    pub trivial_sat: usize,
    /// Cubes whose restriction was refuted without any solving.
    pub trivial_unsat: usize,
    /// Cubes solved in-process by the local fallback.
    pub local_solves: usize,
    /// Cubes put back on the queue (shard death, faulty model, retry).
    pub requeues: usize,
    /// Cubes stolen from slow shards.
    pub steals: usize,
    /// Adaptive re-splits performed on stolen cubes.
    pub resplits: usize,
    /// Cubes dispatched as `SESSION ASSUME` assumption lists instead of
    /// re-encoded `SOLVE` frames.
    pub assumption_dispatches: usize,
    /// Shard connections lost mid-solve.
    pub shard_deaths: usize,
    /// `CANCEL` frames sent to abandon moot in-flight jobs.
    pub cancellations_sent: usize,
}

impl fmt::Display for FleetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shards={} cubes={} splitter-refuted={} remote sat/unsat/unknown={}/{}/{} \
             trivial sat/unsat={}/{} local={} requeues={} steals={} resplits={} \
             assume-dispatches={} deaths={} cancels={}",
            self.shards,
            self.cubes_split,
            self.splitter_refuted,
            self.remote_sat,
            self.remote_unsat,
            self.remote_unknown,
            self.trivial_sat,
            self.trivial_unsat,
            self.local_solves,
            self.requeues,
            self.steals,
            self.resplits,
            self.assumption_dispatches,
            self.shard_deaths,
            self.cancellations_sent,
        )
    }
}

/// The merged outcome of a fleet solve.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    /// The fleet verdict. `Satisfiable` is always backed by a verified
    /// `model`; `Unsatisfiable` means every cube of the partition was
    /// refuted; `Unknown` carries the first blocking cause.
    pub verdict: SolveVerdict,
    /// A satisfying assignment over the original formula's variables,
    /// verified by the coordinator itself.
    pub model: Option<Assignment>,
    /// Per-shard [`SolveStats`] summed over every sub-solve, plus the
    /// variables the coordinator's own front-of-fleet preprocessing removed.
    pub stats: SolveStats,
    /// Fleet-level counters.
    pub fleet: FleetStats,
}

impl FleetOutcome {
    /// SAT-competition exit code: 10 satisfiable, 20 unsatisfiable, 0 unknown.
    pub fn exit_code(&self) -> i32 {
        match self.verdict {
            SolveVerdict::Satisfiable => 10,
            SolveVerdict::Unsatisfiable => 20,
            SolveVerdict::Unknown(_) => 0,
        }
    }
}

/// One connected shard.
struct ShardConnection {
    addr: String,
    client: NblSatClient,
    /// `true` when the shard answered the `HELLO` probe with
    /// `CAPS sessions=true`; its pump then dispatches cubes as assumptions.
    sessions: bool,
}

impl fmt::Debug for ShardConnection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardConnection")
            .field("addr", &self.addr)
            .field("sessions", &self.sessions)
            .finish_non_exhaustive()
    }
}

/// A cube-and-conquer coordinator over a fleet of `nbl-satd` servers.
///
/// Connect with [`ShardCoordinator::connect`]; an empty address list yields a
/// fleet-less coordinator that solves everything through the local fallback.
#[derive(Debug)]
pub struct ShardCoordinator {
    config: ShardConfig,
    shards: Vec<ShardConnection>,
}

/// One unit of work: a cube of the partition. Tasks form a forest — stealing
/// re-splits a task into children covering its subspace exactly, so a task
/// is refuted when its own sub-solve says UNSAT *or* all children are.
struct Task {
    cube: Cube,
    parent: Option<usize>,
    children: Vec<usize>,
    resolved: bool,
    /// `(shard index, dispatch instant)` while a remote job runs this cube.
    inflight: Option<(usize, Instant)>,
    /// Set once stolen so a cube is re-split at most once.
    stolen: bool,
    /// Dispatch count; an undecided cube is retried once before its
    /// uncertainty becomes a sticky blemish.
    attempts: u32,
}

/// State shared by every pump, behind one mutex.
struct FleetState {
    tasks: Vec<Task>,
    pending: VecDeque<usize>,
    /// Root tasks not yet resolved. Zero means the whole space is covered by
    /// refutations (or blemished resolutions) and pumps may stop.
    open_roots: usize,
    /// The winning verified model, if any pump found one.
    sat: Option<Assignment>,
    /// First cause that forbids claiming UNSAT (an undecided cube).
    blemish: Option<UnknownCause>,
    /// Set on SAT or when `open_roots` hits zero; stops every pump.
    done: bool,
    stats: SolveStats,
    fleet: FleetStats,
}

impl FleetState {
    /// Resolves `id` (refuted or blemish-resolved), marks its descendants
    /// moot, and propagates resolution up the forest. Decrements
    /// `open_roots` when a root becomes resolved.
    fn resolve(&mut self, id: usize) {
        if self.tasks[id].resolved {
            return;
        }
        self.tasks[id].resolved = true;
        self.mark_descendants(id);
        let mut current = id;
        loop {
            match self.tasks[current].parent {
                None => {
                    self.open_roots -= 1;
                    break;
                }
                Some(parent) => {
                    if self.tasks[parent].resolved {
                        break;
                    }
                    let children = self.tasks[parent].children.clone();
                    if children.iter().all(|&c| self.tasks[c].resolved) {
                        self.tasks[parent].resolved = true;
                        self.mark_descendants(parent);
                        current = parent;
                    } else {
                        break;
                    }
                }
            }
        }
        if self.open_roots == 0 {
            self.done = true;
        }
    }

    fn mark_descendants(&mut self, id: usize) {
        let mut stack = self.tasks[id].children.clone();
        while let Some(child) = stack.pop() {
            if !self.tasks[child].resolved {
                self.tasks[child].resolved = true;
                stack.extend(self.tasks[child].children.iter().copied());
            }
        }
    }

    /// Records a verified satisfying model and stops the fleet.
    fn record_sat(&mut self, model: Assignment) {
        if self.sat.is_none() {
            self.sat = Some(model);
        }
        self.done = true;
    }

    /// Pops the next unresolved pending task and marks it in flight.
    fn claim_pending(&mut self, shard: usize) -> Option<usize> {
        while let Some(id) = self.pending.pop_front() {
            if self.tasks[id].resolved {
                continue;
            }
            self.tasks[id].inflight = Some((shard, Instant::now()));
            self.tasks[id].attempts += 1;
            return Some(id);
        }
        None
    }

    /// Finds a cube worth stealing: unresolved, un-stolen, childless, and in
    /// flight on some shard longer than `steal_after`. Marks it stolen.
    fn claim_steal(&mut self, steal_after: Duration) -> Option<(usize, Cube)> {
        for (id, task) in self.tasks.iter_mut().enumerate() {
            if task.resolved || task.stolen || !task.children.is_empty() {
                continue;
            }
            if let Some((_, since)) = task.inflight {
                if since.elapsed() >= steal_after {
                    task.stolen = true;
                    return Some((id, task.cube.clone()));
                }
            }
        }
        None
    }

    /// Puts a task back on the queue after its shard failed it.
    fn requeue(&mut self, id: usize) {
        self.tasks[id].inflight = None;
        if !self.tasks[id].resolved {
            self.pending.push_front(id);
            self.fleet.requeues += 1;
        }
    }

    /// Installs the children of a re-split: refuted cubes resolve
    /// immediately, open cubes join the queue.
    fn install_resplit(&mut self, parent: usize, open: Vec<Cube>, refuted: Vec<Cube>) {
        let mut refuted_ids = Vec::with_capacity(refuted.len());
        for (cube, is_refuted) in open
            .into_iter()
            .map(|c| (c, false))
            .chain(refuted.into_iter().map(|c| (c, true)))
        {
            let id = self.tasks.len();
            self.tasks.push(Task {
                cube,
                parent: Some(parent),
                children: Vec::new(),
                resolved: false,
                inflight: None,
                stolen: false,
                attempts: 0,
            });
            self.tasks[parent].children.push(id);
            if is_refuted {
                refuted_ids.push(id);
            } else {
                self.pending.push_back(id);
            }
        }
        self.fleet.steals += 1;
        self.fleet.resplits += 1;
        self.fleet.splitter_refuted += refuted_ids.len();
        for id in refuted_ids {
            self.resolve(id);
        }
    }

    fn note_blemish(&mut self, cause: UnknownCause) {
        if self.blemish.is_none() {
            self.blemish = Some(cause);
        }
    }
}

fn cause_from_wire(cause: WireCause) -> UnknownCause {
    match cause {
        WireCause::Cancelled => UnknownCause::Cancelled,
        WireCause::Incomplete => UnknownCause::Incomplete,
        WireCause::BudgetWallClock => UnknownCause::BudgetExhausted(ExhaustedResource::WallClock),
        WireCause::BudgetSamples => UnknownCause::BudgetExhausted(ExhaustedResource::Samples),
        WireCause::BudgetChecks => {
            UnknownCause::BudgetExhausted(ExhaustedResource::CoprocessorChecks)
        }
    }
}

/// Lifts a remote `v`-line (DIMACS-signed literals) into an assignment
/// spanning at least `num_vars` variables; unmentioned variables are false.
fn assignment_from_lits(lits: &[i64], num_vars: usize) -> Assignment {
    let span = lits
        .iter()
        .map(|&l| l.unsigned_abs() as usize)
        .max()
        .unwrap_or(0)
        .max(num_vars);
    let mut model = Assignment::all_false(span);
    for &lit in lits {
        if lit != 0 {
            model.set(Variable::new(lit.unsigned_abs() as usize - 1), lit > 0);
        }
    }
    model
}

/// [`assignment_from_lits`] followed by overwriting the cube's fixed
/// literals. The residual never mentions fixed variables, so the remote
/// solver's choices for them (absent or arbitrary) must be corrected here.
fn model_from_lits(lits: &[i64], restriction: &CubeRestriction, num_vars: usize) -> Assignment {
    restriction.extend_model(&assignment_from_lits(lits, num_vars))
}

impl ShardCoordinator {
    /// Connects to every address of the fleet. Unreachable shards are
    /// dropped; the call fails only when addresses were given and *none*
    /// could be reached. An empty `addrs` is fine — the coordinator then
    /// solves everything through the local fallback.
    pub fn connect(addrs: &[String], config: ShardConfig) -> Result<Self, ShardError> {
        // The read timeout bounds the request acks (the `HELLO` capability
        // probe in particular, which a wedged or frozen server may never
        // answer); in-flight solves poll with their own explicit timeouts.
        let client_config = ClientConfig::new()
            .with_connect_timeout(config.connect_timeout)
            .with_read_timeout(config.connect_timeout);
        let mut shards = Vec::new();
        let mut errors = Vec::new();
        for addr in addrs {
            match NblSatClient::connect_with_retries_and_config(
                addr.as_str(),
                config.connect_timeout,
                client_config,
            ) {
                Ok(client) => {
                    // Legacy servers answer the probe with an error line,
                    // which `hello` already maps to `Ok(false)`.
                    let sessions = client.hello().unwrap_or(false);
                    shards.push(ShardConnection {
                        addr: addr.clone(),
                        client,
                        sessions,
                    });
                }
                Err(e) => errors.push((addr.clone(), e)),
            }
        }
        if shards.is_empty() && !addrs.is_empty() {
            return Err(ShardError::NoShards { errors });
        }
        Ok(ShardCoordinator { config, shards })
    }

    /// The addresses of the shards actually connected.
    pub fn shard_addrs(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.addr.as_str()).collect()
    }

    /// Number of connected shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Solves `formula` across the fleet. See the module docs for the
    /// protocol; this never panics on fleet failure — it degrades to local
    /// solving (when enabled) and reports `Unknown` rather than guessing.
    ///
    /// The formula runs through the shared preprocessing pass before any
    /// cube is split: unit propagation and pure-literal elimination may
    /// settle the verdict outright (no shard sees a frame), and otherwise
    /// the fleet conquers the *reduced* formula while the winning model is
    /// lifted back through the [`cnf::ReductionTrace`] and verified against
    /// the original before it is reported.
    pub fn solve(&self, formula: &CnfFormula) -> FleetOutcome {
        let pre = preprocess(formula);
        let vars_removed = pre.report.vars_removed() as u64;
        let immediate = |verdict, model: Option<Assignment>| FleetOutcome {
            verdict,
            model,
            stats: SolveStats {
                preprocessed_vars_removed: vars_removed,
                ..SolveStats::default()
            },
            fleet: FleetStats {
                shards: self.shards.len(),
                ..FleetStats::default()
            },
        };
        match pre.outcome {
            PreprocessOutcome::Satisfiable(model) => {
                debug_assert!(formula.evaluate(&model));
                if formula.evaluate(&model) {
                    immediate(SolveVerdict::Satisfiable, Some(model))
                } else {
                    // Defensive: a preprocessor bug must not fabricate SAT.
                    immediate(SolveVerdict::Unknown(UnknownCause::Incomplete), None)
                }
            }
            PreprocessOutcome::Unsatisfiable => immediate(SolveVerdict::Unsatisfiable, None),
            PreprocessOutcome::Reduced {
                formula: reduced,
                trace,
            } => {
                let mut outcome = self.solve_fleet(&reduced);
                outcome.stats.preprocessed_vars_removed += vars_removed;
                if let Some(model) = outcome.model.take() {
                    let lifted = trace.lift_model(&model);
                    if formula.evaluate(&lifted) {
                        outcome.model = Some(lifted);
                    } else {
                        // Defensive: never report a model that fails the
                        // original formula, even if the reduced solve's
                        // model checked out downstream.
                        debug_assert!(false, "lifted model failed original formula");
                        outcome.verdict = SolveVerdict::Unknown(UnknownCause::Incomplete);
                    }
                }
                outcome
            }
        }
    }

    /// Splits, dispatches and merges: the cube-and-conquer engine proper,
    /// running on the (already preprocessed) formula it is handed.
    fn solve_fleet(&self, formula: &CnfFormula) -> FleetOutcome {
        let target = self
            .config
            .target_cubes
            .unwrap_or_else(|| (4 * self.shards.len()).max(8));
        let split_config = SplitConfig {
            target_cubes: target,
            max_depth: self.config.max_depth,
        };
        let partition = split_cube(formula, &Cube::new(), &split_config);

        let mut state = FleetState {
            tasks: Vec::new(),
            pending: VecDeque::new(),
            open_roots: 0,
            sat: None,
            blemish: None,
            done: false,
            stats: SolveStats::default(),
            fleet: FleetStats {
                shards: self.shards.len(),
                cubes_split: partition.num_cubes(),
                splitter_refuted: partition.refuted.len(),
                ..FleetStats::default()
            },
        };
        for cube in partition.open {
            let id = state.tasks.len();
            state.tasks.push(Task {
                cube,
                parent: None,
                children: Vec::new(),
                resolved: false,
                inflight: None,
                stolen: false,
                attempts: 0,
            });
            state.pending.push_back(id);
            state.open_roots += 1;
        }
        state.done = state.open_roots == 0;
        let shared = Shared {
            state: Mutex::new(state),
            wake: Condvar::new(),
        };

        std::thread::scope(|scope| {
            for (index, shard) in self.shards.iter().enumerate() {
                let shared = &shared;
                let config = &self.config;
                scope.spawn(move || {
                    pump(
                        index,
                        &shard.client,
                        shard.sessions,
                        formula,
                        config,
                        shared,
                    )
                });
            }
        });

        let mut state = shared.state.into_inner().unwrap_or_else(|e| e.into_inner());
        if state.sat.is_none() && state.open_roots > 0 {
            self.local_fallback(formula, &mut state);
        }
        let verdict = if let Some(model) = &state.sat {
            debug_assert!(formula.evaluate(model));
            SolveVerdict::Satisfiable
        } else if let Some(cause) = state.blemish {
            SolveVerdict::Unknown(cause)
        } else if state.open_roots == 0 {
            SolveVerdict::Unsatisfiable
        } else {
            SolveVerdict::Unknown(UnknownCause::Incomplete)
        };
        FleetOutcome {
            verdict,
            model: state.sat,
            stats: state.stats,
            fleet: state.fleet,
        }
    }

    /// Solves every unresolved leaf cube in-process, in task order.
    fn local_fallback(&self, formula: &CnfFormula, state: &mut FleetState) {
        if !self.config.local_fallback {
            state.note_blemish(UnknownCause::Incomplete);
            return;
        }
        let mut id = 0;
        while id < state.tasks.len() {
            if state.sat.is_some() {
                return;
            }
            if state.tasks[id].resolved || !state.tasks[id].children.is_empty() {
                id += 1;
                continue;
            }
            let cube = state.tasks[id].cube.clone();
            let restriction = formula.restrict(&cube);
            state.fleet.local_solves += 1;
            match restriction.outcome {
                RestrictionOutcome::TriviallyUnsat => {
                    state.fleet.trivial_unsat += 1;
                    state.resolve(id);
                }
                RestrictionOutcome::TriviallySat => {
                    state.fleet.trivial_sat += 1;
                    let model = restriction.trivial_model(formula.num_vars());
                    if formula.evaluate(&model) {
                        state.record_sat(model);
                    } else {
                        state.note_blemish(UnknownCause::Incomplete);
                        state.resolve(id);
                    }
                }
                RestrictionOutcome::Reduced => {
                    let mut budget = Budget::unlimited();
                    if let Some(ms) = self.config.cube_wall_ms {
                        budget = budget.with_wall_time(Duration::from_millis(ms));
                    }
                    let request = SolveRequest::new(&restriction.formula)
                        .artifacts(Artifacts::Model)
                        .seed(self.config.seed.wrapping_add(id as u64))
                        .budget(budget);
                    match self.config.registry.solve(&self.config.backend, &request) {
                        Ok(outcome) => {
                            state.stats.merge(&outcome.stats);
                            match outcome.verdict {
                                SolveVerdict::Satisfiable => {
                                    let model = outcome
                                        .model
                                        .map(|m| restriction.extend_model(&m))
                                        .filter(|m| formula.evaluate(m));
                                    match model {
                                        Some(model) => state.record_sat(model),
                                        None => {
                                            state.note_blemish(UnknownCause::Incomplete);
                                            state.resolve(id);
                                        }
                                    }
                                }
                                SolveVerdict::Unsatisfiable => state.resolve(id),
                                SolveVerdict::Unknown(cause) => {
                                    state.note_blemish(cause);
                                    state.resolve(id);
                                }
                            }
                        }
                        Err(_) => {
                            state.note_blemish(UnknownCause::Incomplete);
                            state.resolve(id);
                        }
                    }
                }
            }
            id += 1;
        }
    }
}

struct Shared {
    state: Mutex<FleetState>,
    wake: Condvar,
}

/// What a pump should do next, decided under the lock.
enum PumpStep {
    Solve(usize, Cube),
    Resplit(usize, Cube),
    Stop,
}

fn next_step(shard: usize, config: &ShardConfig, shared: &Shared) -> PumpStep {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    loop {
        if state.done {
            shared.wake.notify_all();
            return PumpStep::Stop;
        }
        if let Some(id) = state.claim_pending(shard) {
            let cube = state.tasks[id].cube.clone();
            return PumpStep::Solve(id, cube);
        }
        if let Some((id, cube)) = state.claim_steal(config.steal_after) {
            return PumpStep::Resplit(id, cube);
        }
        let (next, _) = shared
            .wake
            .wait_timeout(state, POLL_INTERVAL)
            .unwrap_or_else(|e| e.into_inner());
        state = next;
    }
}

/// One shard's pump: claims cubes, ships them, handles the answers. Exits
/// when the fleet is done or this shard's connection dies.
///
/// Session-capable shards get the formula pushed once up front; every cube
/// then dispatches as a `SESSION ASSUME` over the cube's literals, keeping
/// the remote solver's learned clauses across the whole stream. When the
/// session cannot be established the pump silently falls back to the
/// restrict-and-re-encode `SOLVE` path.
fn pump(
    shard: usize,
    client: &NblSatClient,
    use_sessions: bool,
    formula: &CnfFormula,
    config: &ShardConfig,
    shared: &Shared,
) {
    let session = if use_sessions {
        open_shard_session(client, formula, config)
    } else {
        None
    };
    loop {
        let (id, cube) = match next_step(shard, config, shared) {
            PumpStep::Stop => return,
            PumpStep::Resplit(id, cube) => {
                resplit(id, &cube, formula, config, shared);
                continue;
            }
            PumpStep::Solve(id, cube) => (id, cube),
        };
        if let Some(session) = &session {
            if !solve_session(id, &cube, session, shard, formula, config, shared) {
                return; // the connection is gone; the cube was requeued
            }
            continue;
        }
        let restriction = formula.restrict(&cube);
        match restriction.outcome {
            RestrictionOutcome::TriviallyUnsat => {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                state.fleet.trivial_unsat += 1;
                state.tasks[id].inflight = None;
                state.resolve(id);
                shared.wake.notify_all();
            }
            RestrictionOutcome::TriviallySat => {
                let model = restriction.trivial_model(formula.num_vars());
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                state.fleet.trivial_sat += 1;
                state.tasks[id].inflight = None;
                if formula.evaluate(&model) {
                    state.record_sat(model);
                } else {
                    state.note_blemish(UnknownCause::Incomplete);
                    state.resolve(id);
                }
                shared.wake.notify_all();
            }
            RestrictionOutcome::Reduced => {
                if !solve_remote(id, &restriction, shard, client, formula, config, shared) {
                    return; // the connection is gone; the cube was requeued
                }
            }
        }
    }
}

/// Re-splits a stolen cube outside the lock, then installs the children.
fn resplit(id: usize, cube: &Cube, formula: &CnfFormula, config: &ShardConfig, shared: &Shared) {
    let finer = split_cube(
        formula,
        cube,
        &SplitConfig {
            target_cubes: 4,
            max_depth: config.max_depth,
        },
    );
    // A degenerate re-split (the cube came back whole) adds no work.
    let progress = finer.num_cubes() > 1 || !finer.refuted.is_empty();
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    if !state.tasks[id].resolved && progress {
        state.install_resplit(id, finer.open, finer.refuted);
        shared.wake.notify_all();
    }
}

/// Opens one incremental session on a shard and pushes the whole formula as
/// its base clause frame. `None` (fall back to one-shot dispatch) when any
/// step fails.
fn open_shard_session<'a>(
    client: &'a NblSatClient,
    formula: &CnfFormula,
    config: &ShardConfig,
) -> Option<RemoteSession<'a>> {
    let session = client.open_session(&config.backend).ok()?;
    session.add_clauses(&dimacs::to_string(formula)).ok()?;
    Some(session)
}

/// Ships one cube as an assumption list on the shard's standing session and
/// handles the answer. Returns `false` when the connection died and the pump
/// must exit.
fn solve_session(
    id: usize,
    cube: &Cube,
    session: &RemoteSession<'_>,
    shard: usize,
    formula: &CnfFormula,
    config: &ShardConfig,
    shared: &Shared,
) -> bool {
    let assumptions: Vec<i64> = cube
        .to_assumptions()
        .iter()
        .map(|l| l.to_dimacs())
        .collect();
    let job = match session.assume_with_budget(&assumptions, config.cube_wall_ms, None, None) {
        Ok(job) => job,
        Err(e) => return shard_died(id, shard, e, shared),
    };
    {
        let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
        state.fleet.assumption_dispatches += 1;
    }
    // The session solver saw the full formula, so its model already covers
    // the cube's variables — no restriction lift needed.
    await_remote(id, job, shard, formula, config, shared, |lits| {
        assignment_from_lits(lits, formula.num_vars())
    })
}

/// Ships one cube-restricted residual to the shard and handles the answer.
/// Returns `false` when the connection died and the pump must exit.
fn solve_remote(
    id: usize,
    restriction: &CubeRestriction,
    shard: usize,
    client: &NblSatClient,
    formula: &CnfFormula,
    config: &ShardConfig,
    shared: &Shared,
) -> bool {
    let mut frame = SolveFrame::new(&config.backend, &dimacs::to_string(&restriction.formula));
    frame.seed = config.seed.wrapping_add(id as u64);
    frame.stats = true;
    frame.wall_ms = config.cube_wall_ms;
    let job = match client.submit(frame) {
        Ok(job) => job,
        Err(e) => return shard_died(id, shard, e, shared),
    };
    await_remote(id, job, shard, formula, config, shared, |lits| {
        model_from_lits(lits, restriction, formula.num_vars())
    })
}

/// Polls one in-flight remote job (one-shot or session) to completion and
/// merges its answer into the fleet state. `lift` turns the remote `v`-line
/// into a full assignment over the original formula's variables. Returns
/// `false` when the connection died and the pump must exit.
fn await_remote(
    id: usize,
    job: RemoteJob<'_>,
    shard: usize,
    formula: &CnfFormula,
    config: &ShardConfig,
    shared: &Shared,
    lift: impl Fn(&[i64]) -> Assignment,
) -> bool {
    let dispatched = Instant::now();
    loop {
        match job.wait_timeout(POLL_INTERVAL) {
            Ok(outcome) => {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                if let Some(stats) = outcome.stats {
                    state.stats.merge(&stats.to_solve_stats());
                }
                state.tasks[id].inflight = None;
                if state.tasks[id].resolved || state.done {
                    // Moot: another path (steal children, SAT elsewhere)
                    // settled this cube while the shard worked on it.
                    shared.wake.notify_all();
                    return true;
                }
                match outcome.verdict {
                    WireVerdict::Satisfiable => {
                        state.fleet.remote_sat += 1;
                        let lits = outcome.model.unwrap_or_default();
                        let model = lift(&lits);
                        if formula.evaluate(&model) {
                            state.record_sat(model);
                        } else {
                            // A model that fails verification marks a faulty
                            // shard; retry the cube like an Unknown.
                            retry_or_blemish(&mut state, id, UnknownCause::Incomplete);
                        }
                    }
                    WireVerdict::Unsatisfiable => {
                        state.fleet.remote_unsat += 1;
                        state.resolve(id);
                    }
                    WireVerdict::Unknown(cause) => {
                        state.fleet.remote_unknown += 1;
                        retry_or_blemish(&mut state, id, cause_from_wire(cause));
                    }
                }
                shared.wake.notify_all();
                return true;
            }
            Err(NetError::TimedOut) => {
                let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
                if state.done || state.tasks[id].resolved {
                    state.tasks[id].inflight = None;
                    state.fleet.cancellations_sent += 1;
                    drop(state);
                    let _ = job.cancel();
                    return true;
                }
                if let Some(limit) = config.solve_timeout {
                    if dispatched.elapsed() >= limit {
                        // The shard is wedged: abandon the whole connection.
                        state.requeue(id);
                        state.fleet.shard_deaths += 1;
                        drop(state);
                        let _ = job.cancel();
                        shared.wake.notify_all();
                        return false;
                    }
                }
            }
            Err(e) => return shard_died(id, shard, e, shared),
        }
    }
}

/// An undecided cube gets one retry; after that its uncertainty is recorded
/// as a sticky blemish and the cube is resolved so the fleet can terminate.
fn retry_or_blemish(state: &mut FleetState, id: usize, cause: UnknownCause) {
    if state.tasks[id].attempts < 2 {
        state.requeue(id);
    } else {
        state.note_blemish(cause);
        state.resolve(id);
    }
}

/// Requeues the dying shard's cube and retires the pump.
fn shard_died(id: usize, _shard: usize, _error: NetError, shared: &Shared) -> bool {
    let mut state = shared.state.lock().unwrap_or_else(|e| e.into_inner());
    state.requeue(id);
    state.fleet.shard_deaths += 1;
    shared.wake.notify_all();
    false
}
