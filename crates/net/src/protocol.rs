//! The `nbl-satd` wire protocol: a line-delimited text codec.
//!
//! Every frame is one line of UTF-8 text terminated by `\n` (a trailing `\r`
//! is tolerated), except `SOLVE`, whose header line announces how many raw
//! DIMACS body lines follow it. The same [`Frame`] enum models both
//! directions; servers and clients simply never emit the other side's verbs.
//!
//! # Grammar
//!
//! Client → server:
//!
//! ```text
//! SOLVE <backend> seed=<u64> priority=<low|normal|high> artifacts=<verdict|model>
//!       [wall-ms=<u64>] [samples=<u64>] [checks=<u64>] [stats=<true|false>]
//!       body-lines=<n>
//! <n raw DIMACS lines>
//! CANCEL <job-id>
//! STATUS <job-id>
//! REFILL [samples=<u64>] [checks=<u64>] [wall-ms=<u64>]     (at least one key)
//! PING
//! HELLO
//! SHUTDOWN
//! SESSION OPEN backend=<name>
//! SESSION ADDCLAUSES <session-id> body-lines=<n>
//! <n raw DIMACS lines>
//! SESSION ASSUME <session-id> [lits=<l1,l2,...>] [wall-ms=<u64>]
//!         [samples=<u64>] [checks=<u64>]
//! SESSION POP <session-id>
//! SESSION CLOSE <session-id>
//! METRICS
//! ```
//!
//! (The `SOLVE` header is a single line; it is wrapped above for readability.
//! `body-lines` is mandatory and must be the last key. The same rule applies
//! to `SESSION ADDCLAUSES`. `SESSION ASSUME` literals are DIMACS-signed,
//! comma-separated, never zero; an absent `lits` key means no assumptions.)
//!
//! Server → client:
//!
//! ```text
//! QUEUED <job-id>
//! v <job-id> [<lit> ...] 0
//! f <job-id> [<lit> ...] 0
//! STATS <job-id> decisions=<u64> conflicts=<u64> propagations=<u64>
//!       restarts=<u64> learned=<u64> tried=<u64> flips=<u64> checks=<u64>
//!       samples=<u64> wall-us=<u64> cache-hits=<u64> pre-vars-removed=<u64>
//!       clauses-exported=<u64> clauses-imported=<u64>
//! RESULT <job-id> s <SATISFIABLE|UNSATISFIABLE|UNKNOWN <cause>>
//! INFO <job-id> <queued|running|finished> [queue-depth=<u64>
//!      backlog-high=<u64> backlog-normal=<u64> backlog-low=<u64>]
//! SESSIONOK <session-id> depth=<u64>
//! CAPS sessions=<true|false>
//! OK refill
//! PONG
//! BYE
//! ERR <job-id|-> <message>
//! METRICS queue-depth=<u64> backlog-high=<u64> backlog-normal=<u64>
//!         backlog-low=<u64> cache-hits=<u64> cache-misses=<u64>
//!         cache-evictions=<u64> cache-entries=<u64> pre-vars-removed=<u64>
//!         pre-clauses-removed=<u64> pre-solved=<u64>
//!         budget-samples-spent=<u64> budget-checks-spent=<u64>
//!         clauses-exported=<u64> clauses-imported=<u64> body-lines=<n>
//! <n lines: backend <name> count=<u64> total-us=<u64> max-us=<u64>>
//! ```
//!
//! # Observability
//!
//! A bare `METRICS` line from the client asks the server for a point-in-time
//! snapshot of its solve pipeline; the server answers with the `METRICS`
//! response frame above (the verb is shared — direction disambiguates: the
//! request carries no keys, the response always does). The header gauges are
//! the live queue depth and per-priority backlog plus the verdict-cache and
//! preprocessing counters; each body line carries one backend's dispatch
//! count and latency aggregate. `INFO` answers append the same queue gauges
//! after the lifecycle token; the keys are optional on the wire, so `INFO`
//! frames from servers predating them still parse (the backlog reads absent).
//!
//! # Incremental sessions
//!
//! `SESSION OPEN` pins a persistent incremental solver to the connection and
//! answers `SESSIONOK` with the server-assigned session id. `ADDCLAUSES`
//! pushes a frame of clauses (acked by `SESSIONOK` carrying the new depth),
//! `POP` retracts the most recent frame, `CLOSE` releases the solver.
//! `ASSUME` queues one solve under the given assumption literals and is
//! answered like `SOLVE`: a `QUEUED` ack (session jobs draw ids from a
//! dedicated high range so they never collide with one-shot jobs), then the
//! completion group — the model `v`-line when satisfiable, the
//! failed-assumption-core `f`-line when unsatisfiable under assumptions
//! (empty core = the clause database itself is unsatisfiable), then
//! `RESULT`. `HELLO` lets a client probe whether the server speaks this
//! extension before relying on it (`CAPS sessions=true`).
//!
//! A job's model `v`-line (present only when the job requested
//! `artifacts=model` and was satisfiable) and its `STATS` line (present only
//! when the job asked `stats=true` — the frame is opt-in so pre-existing
//! clients never see an unexpected verb) are written *before* its `RESULT`
//! line, so the `RESULT` frame is always the completion marker of a job.
//! `STATS` keys may be any subset (absent counters read 0); the single-line
//! wrap above is for readability. Causes are `cancelled`, `incomplete`,
//! `budget-wall-clock`, `budget-samples` and `budget-checks`.
//!
//! # Strictness
//!
//! The parser is strict: unknown verbs, unknown or duplicate keys, missing
//! mandatory keys, trailing tokens, non-UTF-8 bytes, numbers that do not
//! parse, and oversized lines or bodies are all [`ProtocolError`]s — never
//! panics. Errors distinguish recoverable [`ProtocolError::Malformed`] frames
//! (the stream is still line-synchronised, the connection can continue) from
//! [`ProtocolError::Desync`] conditions (framing is lost, the connection
//! should close).

use nbl_sat_core::{
    Artifacts, Budget, ExhaustedResource, JobPriority, JobStatus, MetricsSnapshot, SolveStats,
    UnknownCause,
};
use std::fmt;
use std::io::{BufRead, Read, Write};
use std::time::Duration;

/// Longest accepted frame line, in bytes (excluding the newline).
pub const MAX_LINE_BYTES: usize = 64 * 1024;

/// Largest accepted `body-lines` count of a `SOLVE` frame.
pub const MAX_BODY_LINES: usize = 1 << 20;

/// Errors produced while reading or parsing frames.
#[derive(Debug)]
pub enum ProtocolError {
    /// The underlying transport failed.
    Io(std::io::Error),
    /// The frame violated the grammar, but the stream is still synchronised
    /// on line boundaries; the connection can answer `ERR` and continue.
    Malformed(String),
    /// Framing was lost (an oversized line or body declaration); the
    /// connection cannot be re-synchronised and should close.
    Desync(String),
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Io(e) => write!(f, "i/o error: {e}"),
            ProtocolError::Malformed(message) => write!(f, "malformed frame: {message}"),
            ProtocolError::Desync(message) => write!(f, "protocol desync: {message}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

impl From<std::io::Error> for ProtocolError {
    fn from(e: std::io::Error) -> Self {
        ProtocolError::Io(e)
    }
}

impl ProtocolError {
    /// Returns `true` when the connection can keep reading frames after this
    /// error (the stream is still synchronised on line boundaries).
    pub fn is_recoverable(&self) -> bool {
        matches!(self, ProtocolError::Malformed(_))
    }
}

fn malformed(message: impl Into<String>) -> ProtocolError {
    ProtocolError::Malformed(message.into())
}

/// Scheduling priority on the wire. Mirrors [`JobPriority`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WirePriority {
    /// `priority=low`
    Low,
    /// `priority=normal`
    #[default]
    Normal,
    /// `priority=high`
    High,
}

impl WirePriority {
    fn token(self) -> &'static str {
        match self {
            WirePriority::Low => "low",
            WirePriority::Normal => "normal",
            WirePriority::High => "high",
        }
    }

    fn parse(token: &str) -> Result<Self, ProtocolError> {
        match token {
            "low" => Ok(WirePriority::Low),
            "normal" => Ok(WirePriority::Normal),
            "high" => Ok(WirePriority::High),
            other => Err(malformed(format!("unknown priority '{other}'"))),
        }
    }
}

impl From<WirePriority> for JobPriority {
    fn from(priority: WirePriority) -> Self {
        match priority {
            WirePriority::Low => JobPriority::Low,
            WirePriority::Normal => JobPriority::Normal,
            WirePriority::High => JobPriority::High,
        }
    }
}

impl From<JobPriority> for WirePriority {
    fn from(priority: JobPriority) -> Self {
        match priority {
            JobPriority::Low => WirePriority::Low,
            JobPriority::Normal => WirePriority::Normal,
            JobPriority::High => WirePriority::High,
        }
    }
}

/// Requested artifacts on the wire. Only the verdict and the model can be
/// streamed back, so `artifacts=cube` is not part of the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WireArtifacts {
    /// `artifacts=verdict` — only the `RESULT` line.
    #[default]
    Verdict,
    /// `artifacts=model` — a `v`-line precedes the `RESULT` line when
    /// satisfiable.
    Model,
}

impl WireArtifacts {
    fn token(self) -> &'static str {
        match self {
            WireArtifacts::Verdict => "verdict",
            WireArtifacts::Model => "model",
        }
    }

    fn parse(token: &str) -> Result<Self, ProtocolError> {
        match token {
            "verdict" => Ok(WireArtifacts::Verdict),
            "model" => Ok(WireArtifacts::Model),
            other => Err(malformed(format!("unknown artifacts '{other}'"))),
        }
    }
}

impl From<WireArtifacts> for Artifacts {
    fn from(artifacts: WireArtifacts) -> Self {
        match artifacts {
            WireArtifacts::Verdict => Artifacts::Verdict,
            WireArtifacts::Model => Artifacts::Model,
        }
    }
}

/// A job's lifecycle stage as reported by `INFO`. Mirrors [`JobStatus`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireJobStatus {
    /// Waiting in the service queue.
    Queued,
    /// Claimed by a worker.
    Running,
    /// The `RESULT` frame is available (or already delivered).
    Finished,
}

impl WireJobStatus {
    fn token(self) -> &'static str {
        match self {
            WireJobStatus::Queued => "queued",
            WireJobStatus::Running => "running",
            WireJobStatus::Finished => "finished",
        }
    }

    fn parse(token: &str) -> Result<Self, ProtocolError> {
        match token {
            "queued" => Ok(WireJobStatus::Queued),
            "running" => Ok(WireJobStatus::Running),
            "finished" => Ok(WireJobStatus::Finished),
            other => Err(malformed(format!("unknown job status '{other}'"))),
        }
    }
}

impl From<JobStatus> for WireJobStatus {
    fn from(status: JobStatus) -> Self {
        match status {
            JobStatus::Queued => WireJobStatus::Queued,
            JobStatus::Running => WireJobStatus::Running,
            JobStatus::Finished => WireJobStatus::Finished,
        }
    }
}

/// Why a `RESULT` was `UNKNOWN`. Mirrors [`UnknownCause`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireCause {
    /// The job was cancelled (per-job `CANCEL`, server abort).
    Cancelled,
    /// An incomplete backend gave up within its own limits.
    Incomplete,
    /// The wall-clock allowance ran out.
    BudgetWallClock,
    /// The noise-sample allowance ran out.
    BudgetSamples,
    /// The coprocessor-check allowance ran out.
    BudgetChecks,
}

impl WireCause {
    fn token(self) -> &'static str {
        match self {
            WireCause::Cancelled => "cancelled",
            WireCause::Incomplete => "incomplete",
            WireCause::BudgetWallClock => "budget-wall-clock",
            WireCause::BudgetSamples => "budget-samples",
            WireCause::BudgetChecks => "budget-checks",
        }
    }

    fn parse(token: &str) -> Result<Self, ProtocolError> {
        match token {
            "cancelled" => Ok(WireCause::Cancelled),
            "incomplete" => Ok(WireCause::Incomplete),
            "budget-wall-clock" => Ok(WireCause::BudgetWallClock),
            "budget-samples" => Ok(WireCause::BudgetSamples),
            "budget-checks" => Ok(WireCause::BudgetChecks),
            other => Err(malformed(format!("unknown cause '{other}'"))),
        }
    }
}

impl From<UnknownCause> for WireCause {
    fn from(cause: UnknownCause) -> Self {
        match cause {
            UnknownCause::Cancelled => WireCause::Cancelled,
            UnknownCause::Incomplete => WireCause::Incomplete,
            UnknownCause::BudgetExhausted(ExhaustedResource::WallClock) => {
                WireCause::BudgetWallClock
            }
            UnknownCause::BudgetExhausted(ExhaustedResource::Samples) => WireCause::BudgetSamples,
            UnknownCause::BudgetExhausted(ExhaustedResource::CoprocessorChecks) => {
                WireCause::BudgetChecks
            }
        }
    }
}

/// The three-valued verdict of a `RESULT` frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireVerdict {
    /// `s SATISFIABLE`
    Satisfiable,
    /// `s UNSATISFIABLE`
    Unsatisfiable,
    /// `s UNKNOWN <cause>`
    Unknown(WireCause),
}

impl WireVerdict {
    /// Returns `true` for `s SATISFIABLE`.
    pub fn is_sat(self) -> bool {
        self == WireVerdict::Satisfiable
    }

    /// Returns `true` for `s UNSATISFIABLE`.
    pub fn is_unsat(self) -> bool {
        self == WireVerdict::Unsatisfiable
    }

    /// The conventional SAT-competition exit code of this verdict: 10 for
    /// SATISFIABLE, 20 for UNSATISFIABLE, 0 for UNKNOWN.
    pub fn exit_code(self) -> i32 {
        match self {
            WireVerdict::Satisfiable => 10,
            WireVerdict::Unsatisfiable => 20,
            WireVerdict::Unknown(_) => 0,
        }
    }
}

impl fmt::Display for WireVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireVerdict::Satisfiable => write!(f, "s SATISFIABLE"),
            WireVerdict::Unsatisfiable => write!(f, "s UNSATISFIABLE"),
            WireVerdict::Unknown(cause) => write!(f, "s UNKNOWN {}", cause.token()),
        }
    }
}

/// A counter's value as one `u64` on the wire: a count as is, a duration in
/// whole microseconds (saturating).
trait WireCounter {
    fn to_wire(&self) -> u64;
    fn from_wire(value: u64) -> Self;
}

impl WireCounter for u64 {
    fn to_wire(&self) -> u64 {
        *self
    }

    fn from_wire(value: u64) -> Self {
        value
    }
}

impl WireCounter for Duration {
    fn to_wire(&self) -> u64 {
        u64::try_from(self.as_micros()).unwrap_or(u64::MAX)
    }

    fn from_wire(value: u64) -> Self {
        Duration::from_micros(value)
    }
}

/// Declares the counter set of one wire frame, once.
///
/// Each row `field = "key" <- source_field,` names a public `u64` field of
/// the wire struct, its wire key, and the field of the in-process source
/// struct it is copied from (through [`WireCounter`]); rows are in wire
/// order. From the rows the macro generates the struct, `From<&Source>`,
/// the counter encoder (`write_counters`), the key list the parser looks
/// keys up in (`KEYS`) and the constructor from parsed key slots
/// (`from_counters`, absent keys read 0). Non-counter fields follow a `;`
/// with the expression that fills them from the source, which is bound to
/// the name between the `|`s. A trailing `fn name;` also generates the
/// conversion back into the source (its non-wire fields default).
macro_rules! counter_frame {
    (@back $name:ident $source:ident [$($field:ident $from:ident)*]) => {};
    (
        @back $name:ident $source:ident [$($field:ident $from:ident)*]
        $(#[$doc:meta])* $back:ident
    ) => {
        impl $name {
            $(#[$doc])*
            pub fn $back(self) -> $source {
                $source {
                    $($from: WireCounter::from_wire(self.$field),)*
                    ..$source::default()
                }
            }
        }
    };
    (
        $(#[$meta:meta])*
        pub struct $name:ident from $source:ident |$src:ident| {
            $($(#[$doc:meta])* $field:ident = $key:literal <- $from:ident,)*
            $(; $(#[$extra_doc:meta])* $extra:ident: $extra_ty:ty = $extra_init:expr,)?
        }
        $($(#[$back_doc:meta])* fn $back:ident;)?
    ) => {
        $(#[$meta])*
        pub struct $name {
            $($(#[$doc])* pub $field: u64,)*
            $($(#[$extra_doc])* pub $extra: $extra_ty,)?
        }

        impl $name {
            /// The counter keys, in wire order.
            const KEYS: [&'static str; [$($key),*].len()] = [$($key),*];

            /// Appends ` key=value` for every counter, in wire order.
            fn write_counters(&self, out: &mut String) {
                use std::fmt::Write as _;
                $(let _ = write!(out, concat!(" ", $key, "={}"), self.$field);)*
            }

            /// The frame from its parsed counter slots, indexed like
            /// [`Self::KEYS`]; absent counters read 0.
            fn from_counters(slots: [Option<u64>; $name::KEYS.len()]) -> Self {
                let [$($field),*] = slots;
                $name {
                    $($field: $field.unwrap_or(0),)*
                    $($extra: Default::default(),)?
                }
            }
        }

        impl From<&$source> for $name {
            fn from($src: &$source) -> Self {
                $name {
                    $($field: WireCounter::to_wire(&$src.$from),)*
                    $($extra: $extra_init,)?
                }
            }
        }

        counter_frame!(@back $name $source [$($field $from)*] $($(#[$back_doc])* $back)?);
    };
}

counter_frame! {
    /// Search-statistics counters carried by a `STATS` frame. Mirrors the wire
    /// subset of [`SolveStats`] (the non-numeric fields — winner attribution, the
    /// sampled engine's estimate — stay server-side).
    ///
    /// This table is the one place the `STATS` counter set is declared: adding
    /// a counter is one row here, plus the code that produces it and a test.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
    pub struct WireStats from SolveStats |stats| {
        /// `decisions=` — branching decisions.
        decisions = "decisions" <- decisions,
        /// `conflicts=` — conflicts hit.
        conflicts = "conflicts" <- conflicts,
        /// `propagations=` — unit propagations.
        propagations = "propagations" <- propagations,
        /// `restarts=` — restarts taken.
        restarts = "restarts" <- restarts,
        /// `learned=` — clauses learned.
        learned = "learned" <- learned_clauses,
        /// `tried=` — complete assignments tried.
        tried = "tried" <- assignments_tried,
        /// `flips=` — local-search flips.
        flips = "flips" <- flips,
        /// `checks=` — NBL coprocessor checks.
        checks = "checks" <- coprocessor_checks,
        /// `samples=` — noise samples drawn.
        samples = "samples" <- samples,
        /// `wall-us=` — wall-clock microseconds spent solving.
        wall_us = "wall-us" <- wall_time,
        /// `cache-hits=` — verdict-cache hits that answered this job.
        cache_hits = "cache-hits" <- cache_hits,
        /// `pre-vars-removed=` — variables the preprocessor eliminated before
        /// dispatch.
        pre_vars_removed = "pre-vars-removed" <- preprocessed_vars_removed,
        /// `clauses-exported=` — clauses published into the cooperative
        /// portfolio's shared pool.
        clauses_exported = "clauses-exported" <- clauses_exported,
        /// `clauses-imported=` — clauses consumed from the cooperative
        /// portfolio's shared pool.
        clauses_imported = "clauses-imported" <- clauses_imported,
    }
    /// Converts back into a [`SolveStats`] (non-wire fields default).
    fn to_solve_stats;
}

/// One queried job's live queue gauges, appended to `INFO` answers. The keys
/// are optional on the wire (frames from servers predating them parse to
/// `None`); current servers always send all four.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct WireBacklog {
    /// `queue-depth=` — jobs queued and not yet picked up, all priorities.
    pub queue_depth: u64,
    /// `backlog-high=` — queued high-priority jobs.
    pub high: u64,
    /// `backlog-normal=` — queued normal-priority jobs.
    pub normal: u64,
    /// `backlog-low=` — queued low-priority jobs.
    pub low: u64,
}

/// One backend's dispatch-latency aggregate, carried as a `METRICS` body
/// line: `backend <name> count=<u64> total-us=<u64> max-us=<u64>`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct WireBackendLatency {
    /// The backend's registry name.
    pub name: String,
    /// Jobs dispatched to this backend.
    pub count: u64,
    /// Total wall-clock microseconds spent in this backend.
    pub total_us: u64,
    /// Slowest single dispatch, in microseconds.
    pub max_us: u64,
}

impl WireBackendLatency {
    /// Mean dispatch latency in microseconds (0 when nothing ran).
    pub fn mean_us(&self) -> u64 {
        self.total_us.checked_div(self.count).unwrap_or(0)
    }
}

counter_frame! {
    /// The server's point-in-time pipeline snapshot answering a `METRICS`
    /// request: queue gauges, verdict-cache and preprocessing counters, budget
    /// spend, and one [`WireBackendLatency`] body line per backend that has
    /// dispatched at least one job. Mirrors the wire subset of
    /// [`MetricsSnapshot`] (latency histograms stay server-side; the body lines
    /// carry the count/total/max aggregate).
    ///
    /// This table is the one place the `METRICS` header's counter set is
    /// declared: adding a counter is one row here, plus the code that produces
    /// it and a test. The `body-lines=` key and the body lines are not
    /// counters and stay hand-written in the codec.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    pub struct WireMetrics from MetricsSnapshot |snapshot| {
        /// `queue-depth=` — jobs queued and not yet picked up.
        queue_depth = "queue-depth" <- queue_depth,
        /// `backlog-high=` — queued high-priority jobs.
        backlog_high = "backlog-high" <- backlog_high,
        /// `backlog-normal=` — queued normal-priority jobs.
        backlog_normal = "backlog-normal" <- backlog_normal,
        /// `backlog-low=` — queued low-priority jobs.
        backlog_low = "backlog-low" <- backlog_low,
        /// `cache-hits=` — verdict-cache hits.
        cache_hits = "cache-hits" <- cache_hits,
        /// `cache-misses=` — verdict-cache misses.
        cache_misses = "cache-misses" <- cache_misses,
        /// `cache-evictions=` — entries evicted to stay under capacity.
        cache_evictions = "cache-evictions" <- cache_evictions,
        /// `cache-entries=` — entries currently resident.
        cache_entries = "cache-entries" <- cache_entries,
        /// `pre-vars-removed=` — variables eliminated by preprocessing.
        pre_vars_removed = "pre-vars-removed" <- pre_vars_removed,
        /// `pre-clauses-removed=` — clauses eliminated by preprocessing.
        pre_clauses_removed = "pre-clauses-removed" <- pre_clauses_removed,
        /// `pre-solved=` — submissions preprocessing answered outright.
        pre_solved = "pre-solved" <- pre_solved,
        /// `budget-samples-spent=` — noise samples charged across all dispatches.
        budget_samples_spent = "budget-samples-spent" <- budget_samples_spent,
        /// `budget-checks-spent=` — coprocessor checks charged across all
        /// dispatches.
        budget_checks_spent = "budget-checks-spent" <- budget_checks_spent,
        /// `clauses-exported=` — clauses published into cooperative-portfolio
        /// pools across all dispatches.
        clauses_exported = "clauses-exported" <- clauses_exported,
        /// `clauses-imported=` — clauses consumed from cooperative-portfolio
        /// pools across all dispatches.
        clauses_imported = "clauses-imported" <- clauses_imported,
        ;
        /// Per-backend dispatch-latency aggregates (the body lines).
        backends: Vec<WireBackendLatency> = snapshot
            .backends
            .iter()
            .map(|(name, latency)| WireBackendLatency {
                name: name.clone(),
                count: latency.count,
                total_us: latency.total_us,
                max_us: latency.max_us,
            })
            .collect(),
    }
}

/// The payload of a `SOLVE` frame: everything a [`nbl_sat_core::SolveRequest`]
/// needs, plus the inline DIMACS body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SolveFrame {
    /// Registry name of the backend to run (`cdcl`, `nbl-sampled`, ...).
    pub backend: String,
    /// Deterministic seed handed to stochastic backends.
    pub seed: u64,
    /// Scheduling priority.
    pub priority: WirePriority,
    /// Requested artifacts.
    pub artifacts: WireArtifacts,
    /// Wall-clock budget cap in milliseconds, if any.
    pub wall_ms: Option<u64>,
    /// Noise-sample budget cap, if any.
    pub max_samples: Option<u64>,
    /// Coprocessor-check budget cap, if any.
    pub max_checks: Option<u64>,
    /// `stats=true` — ask the server to stream a `STATS` frame before this
    /// job's `RESULT`. Off by default (the frame is opt-in on the wire).
    pub stats: bool,
    /// The DIMACS body, one entry per raw line (no newlines inside).
    pub body: Vec<String>,
}

impl SolveFrame {
    /// A model-requesting frame for `backend` over the given DIMACS text.
    pub fn new(backend: impl Into<String>, dimacs: &str) -> Self {
        SolveFrame {
            backend: backend.into(),
            artifacts: WireArtifacts::Model,
            body: dimacs.lines().map(str::to_owned).collect(),
            ..SolveFrame::default()
        }
    }

    /// The DIMACS body as one string, lines joined with `\n`.
    pub fn dimacs(&self) -> String {
        self.body.join("\n")
    }

    /// The [`Budget`] the frame's caps describe.
    pub fn budget(&self) -> Budget {
        let mut budget = Budget::unlimited();
        if let Some(ms) = self.wall_ms {
            budget = budget.with_wall_time(Duration::from_millis(ms));
        }
        if let Some(samples) = self.max_samples {
            budget = budget.with_max_samples(samples);
        }
        if let Some(checks) = self.max_checks {
            budget = budget.with_max_checks(checks);
        }
        budget
    }
}

/// One protocol frame, either direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// Client: submit a job.
    Solve(SolveFrame),
    /// Client: cancel a job by id.
    Cancel {
        /// The job to cancel.
        job: u64,
    },
    /// Client: ask where a job is in its lifecycle.
    Status {
        /// The job to report on.
        job: u64,
    },
    /// Client: return spent allowance to the server's shared budget pool.
    Refill {
        /// Samples to return, if any.
        samples: Option<u64>,
        /// Checks to return, if any.
        checks: Option<u64>,
        /// Milliseconds to push the pool deadline out by, if any.
        wall_ms: Option<u64>,
    },
    /// Client: liveness probe.
    Ping,
    /// Client: capability probe, answered by `CAPS`.
    Hello,
    /// Client: wind the server down gracefully (drain, then exit).
    Shutdown,
    /// Client: open an incremental solving session.
    SessionOpen {
        /// Registry name of the incremental backend to pin.
        backend: String,
    },
    /// Client: push a frame of clauses into a session; the header line
    /// announces how many raw DIMACS body lines follow, like `SOLVE`.
    SessionAddClauses {
        /// The session to push into.
        session: u64,
        /// The DIMACS body, one entry per raw line.
        body: Vec<String>,
    },
    /// Client: solve a session under assumption literals. Queued like
    /// `SOLVE`; the completion frames reference the `QUEUED` job id.
    SessionAssume {
        /// The session to solve.
        session: u64,
        /// DIMACS-signed assumption literals, in decision order (never 0).
        literals: Vec<i64>,
        /// Wall-clock budget cap in milliseconds for this call, if any.
        wall_ms: Option<u64>,
        /// Noise-sample budget cap for this call, if any.
        max_samples: Option<u64>,
        /// Coprocessor-check budget cap for this call, if any.
        max_checks: Option<u64>,
    },
    /// Client: pop the most recent clause frame of a session.
    SessionPop {
        /// The session to pop.
        session: u64,
    },
    /// Client: close a session, releasing its pinned solver.
    SessionClose {
        /// The session to close.
        session: u64,
    },
    /// Client: ask for the server's pipeline metrics snapshot, answered by
    /// the `Metrics` response frame. A bare `METRICS` line on the wire.
    MetricsRequest,
    /// Server: the job was accepted under this id.
    Queued {
        /// The service-assigned job id.
        job: u64,
    },
    /// Server: a job's satisfying assignment (precedes its `RESULT`).
    Model {
        /// The job the model belongs to.
        job: u64,
        /// DIMACS-signed literals, without the terminating `0`.
        literals: Vec<i64>,
    },
    /// Server: a job's search statistics (precedes its `RESULT`; sent only
    /// when the `SOLVE` asked `stats=true`).
    Stats {
        /// The job the statistics belong to.
        job: u64,
        /// The counters.
        stats: WireStats,
    },
    /// Server: a job's final verdict — the completion marker.
    Result {
        /// The finished job.
        job: u64,
        /// Its verdict.
        verdict: WireVerdict,
    },
    /// Server: an UNSAT-under-assumptions job's failed-assumption core
    /// (precedes its `RESULT`). An empty core means the session's clause
    /// database is unsatisfiable on its own.
    FailedAssumptions {
        /// The job the core belongs to.
        job: u64,
        /// DIMACS-signed assumption literals, without the terminating `0`.
        literals: Vec<i64>,
    },
    /// Server: answer to `STATUS`.
    Info {
        /// The queried job.
        job: u64,
        /// Its lifecycle stage.
        status: WireJobStatus,
        /// The service's live queue gauges at answer time. Optional on the
        /// wire for compatibility with older servers; always sent by this
        /// one.
        backlog: Option<WireBacklog>,
    },
    /// Server: pipeline metrics snapshot answering `METRICS`. The header
    /// line carries the gauges and counters; `body-lines=<n>` announces the
    /// per-backend latency lines that follow.
    Metrics(WireMetrics),
    /// Server: a session operation was applied; reports the session's
    /// current push depth.
    SessionOk {
        /// The session the acknowledged operation targeted.
        session: u64,
        /// The session's push depth after the operation.
        depth: u64,
    },
    /// Server: capability summary answering `HELLO`.
    Caps {
        /// Whether the server speaks the `SESSION` extension.
        sessions: bool,
    },
    /// Server: `REFILL` was applied.
    OkRefill,
    /// Server: answer to `PING`.
    Pong,
    /// Server: acknowledges `SHUTDOWN`; no further frames follow.
    Bye,
    /// Server: the request failed; the connection stays open.
    Error {
        /// The job the error belongs to, when it is job-scoped.
        job: Option<u64>,
        /// Human-readable description (single line).
        message: String,
    },
}

impl Frame {
    /// Serialises the frame to its exact wire text, including newlines.
    pub fn encode(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        match self {
            Frame::Solve(solve) => {
                let _ = write!(
                    out,
                    "SOLVE {} seed={} priority={} artifacts={}",
                    solve.backend,
                    solve.seed,
                    solve.priority.token(),
                    solve.artifacts.token()
                );
                if let Some(ms) = solve.wall_ms {
                    let _ = write!(out, " wall-ms={ms}");
                }
                if let Some(samples) = solve.max_samples {
                    let _ = write!(out, " samples={samples}");
                }
                if let Some(checks) = solve.max_checks {
                    let _ = write!(out, " checks={checks}");
                }
                if solve.stats {
                    out.push_str(" stats=true");
                }
                let _ = writeln!(out, " body-lines={}", solve.body.len());
                for line in &solve.body {
                    let _ = writeln!(out, "{line}");
                }
            }
            Frame::Cancel { job } => {
                let _ = writeln!(out, "CANCEL {job}");
            }
            Frame::Status { job } => {
                let _ = writeln!(out, "STATUS {job}");
            }
            Frame::Refill {
                samples,
                checks,
                wall_ms,
            } => {
                let _ = write!(out, "REFILL");
                if let Some(samples) = samples {
                    let _ = write!(out, " samples={samples}");
                }
                if let Some(checks) = checks {
                    let _ = write!(out, " checks={checks}");
                }
                if let Some(ms) = wall_ms {
                    let _ = write!(out, " wall-ms={ms}");
                }
                out.push('\n');
            }
            Frame::Ping => out.push_str("PING\n"),
            Frame::Hello => out.push_str("HELLO\n"),
            Frame::Shutdown => out.push_str("SHUTDOWN\n"),
            Frame::SessionOpen { backend } => {
                let _ = writeln!(out, "SESSION OPEN backend={backend}");
            }
            Frame::SessionAddClauses { session, body } => {
                let _ = writeln!(
                    out,
                    "SESSION ADDCLAUSES {session} body-lines={}",
                    body.len()
                );
                for line in body {
                    let _ = writeln!(out, "{line}");
                }
            }
            Frame::SessionAssume {
                session,
                literals,
                wall_ms,
                max_samples,
                max_checks,
            } => {
                let _ = write!(out, "SESSION ASSUME {session}");
                if !literals.is_empty() {
                    let _ = write!(out, " lits=");
                    for (index, lit) in literals.iter().enumerate() {
                        if index > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{lit}");
                    }
                }
                if let Some(ms) = wall_ms {
                    let _ = write!(out, " wall-ms={ms}");
                }
                if let Some(samples) = max_samples {
                    let _ = write!(out, " samples={samples}");
                }
                if let Some(checks) = max_checks {
                    let _ = write!(out, " checks={checks}");
                }
                out.push('\n');
            }
            Frame::SessionPop { session } => {
                let _ = writeln!(out, "SESSION POP {session}");
            }
            Frame::SessionClose { session } => {
                let _ = writeln!(out, "SESSION CLOSE {session}");
            }
            Frame::MetricsRequest => out.push_str("METRICS\n"),
            Frame::Metrics(metrics) => {
                out.push_str("METRICS");
                metrics.write_counters(&mut out);
                let _ = writeln!(out, " body-lines={}", metrics.backends.len());
                for backend in &metrics.backends {
                    let _ = writeln!(
                        out,
                        "backend {} count={} total-us={} max-us={}",
                        backend.name, backend.count, backend.total_us, backend.max_us
                    );
                }
            }
            Frame::Queued { job } => {
                let _ = writeln!(out, "QUEUED {job}");
            }
            Frame::Model { job, literals } => {
                let _ = write!(out, "v {job}");
                for lit in literals {
                    let _ = write!(out, " {lit}");
                }
                out.push_str(" 0\n");
            }
            Frame::Stats { job, stats } => {
                let _ = write!(out, "STATS {job}");
                stats.write_counters(&mut out);
                out.push('\n');
            }
            Frame::Result { job, verdict } => {
                let _ = writeln!(out, "RESULT {job} {verdict}");
            }
            Frame::FailedAssumptions { job, literals } => {
                let _ = write!(out, "f {job}");
                for lit in literals {
                    let _ = write!(out, " {lit}");
                }
                out.push_str(" 0\n");
            }
            Frame::Info {
                job,
                status,
                backlog,
            } => {
                let _ = write!(out, "INFO {job} {}", status.token());
                if let Some(backlog) = backlog {
                    let _ = write!(
                        out,
                        " queue-depth={} backlog-high={} backlog-normal={} backlog-low={}",
                        backlog.queue_depth, backlog.high, backlog.normal, backlog.low
                    );
                }
                out.push('\n');
            }
            Frame::SessionOk { session, depth } => {
                let _ = writeln!(out, "SESSIONOK {session} depth={depth}");
            }
            Frame::Caps { sessions } => {
                let _ = writeln!(out, "CAPS sessions={sessions}");
            }
            Frame::OkRefill => out.push_str("OK refill\n"),
            Frame::Pong => out.push_str("PONG\n"),
            Frame::Bye => out.push_str("BYE\n"),
            Frame::Error { job, message } => {
                match job {
                    Some(job) => {
                        let _ = write!(out, "ERR {job} ");
                    }
                    None => out.push_str("ERR - "),
                }
                let _ = writeln!(out, "{message}");
            }
        }
        out
    }

    /// Writes the frame to `writer` (one `write_all`, so concurrent writers
    /// holding a lock around this call interleave whole frames, never bytes).
    pub fn write_to<W: Write>(&self, writer: &mut W) -> std::io::Result<()> {
        writer.write_all(self.encode().as_bytes())?;
        writer.flush()
    }

    /// Reads the next frame off `reader`. Answers `Ok(None)` on a clean EOF
    /// at a frame boundary.
    pub fn read_from<R: BufRead>(reader: &mut R) -> Result<Option<Frame>, ProtocolError> {
        let line = match read_limited_line(reader)? {
            Some(line) => line,
            None => return Ok(None),
        };
        let text = decode_utf8(line)?;
        parse_header(&text, reader)
    }
}

/// Reads one `\n`-terminated line of at most [`MAX_LINE_BYTES`] bytes (the
/// newline is stripped, a trailing `\r` too). `Ok(None)` on EOF before any
/// byte.
fn read_limited_line<R: BufRead>(reader: &mut R) -> Result<Option<Vec<u8>>, ProtocolError> {
    let mut line = Vec::new();
    let mut limited = reader.take(MAX_LINE_BYTES as u64 + 1);
    let n = limited.read_until(b'\n', &mut line)?;
    if n == 0 {
        return Ok(None);
    }
    if line.last() == Some(&b'\n') {
        line.pop();
        if line.last() == Some(&b'\r') {
            line.pop();
        }
    } else if line.len() > MAX_LINE_BYTES {
        return Err(ProtocolError::Desync(format!(
            "line exceeds {MAX_LINE_BYTES} bytes"
        )));
    }
    // A final line without a newline (EOF mid-frame) is still parsed; the
    // next read answers EOF.
    Ok(Some(line))
}

fn decode_utf8(line: Vec<u8>) -> Result<String, ProtocolError> {
    String::from_utf8(line).map_err(|_| malformed("frame is not valid UTF-8"))
}

fn parse_u64(token: &str, what: &str) -> Result<u64, ProtocolError> {
    // Reject signs and leading plus explicitly: only ASCII digits.
    if token.is_empty() || !token.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed(format!("invalid {what} '{token}'")));
    }
    token
        .parse()
        .map_err(|_| malformed(format!("{what} '{token}' out of range")))
}

fn parse_i64(token: &str) -> Result<i64, ProtocolError> {
    let digits = token.strip_prefix('-').unwrap_or(token);
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return Err(malformed(format!("invalid literal '{token}'")));
    }
    token
        .parse()
        .map_err(|_| malformed(format!("literal '{token}' out of range")))
}

fn expect_end<'a, I: Iterator<Item = &'a str>>(
    mut tokens: I,
    verb: &str,
) -> Result<(), ProtocolError> {
    match tokens.next() {
        None => Ok(()),
        Some(extra) => Err(malformed(format!(
            "unexpected trailing token '{extra}' after {verb}"
        ))),
    }
}

fn valid_backend_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
}

/// Splits `key=value`, erroring when there is no `=`.
fn split_key_value(token: &str) -> Result<(&str, &str), ProtocolError> {
    token
        .split_once('=')
        .ok_or_else(|| malformed(format!("expected key=value, got '{token}'")))
}

/// Stores `value` into `slot`, erroring on a duplicate key.
fn store_once(slot: &mut Option<u64>, key: &str, value: u64) -> Result<(), ProtocolError> {
    if slot.replace(value).is_some() {
        return Err(malformed(format!("duplicate key '{key}'")));
    }
    Ok(())
}

/// Parses one `key=value` counter token of a `verb` frame into the slot of
/// its key in `keys`; unknown keys, bad numbers and duplicates are malformed.
fn store_counter(
    keys: &[&str],
    slots: &mut [Option<u64>],
    verb: &str,
    key: &str,
    value: &str,
) -> Result<(), ProtocolError> {
    let index = keys
        .iter()
        .position(|&k| k == key)
        .ok_or_else(|| malformed(format!("unknown {verb} key '{key}'")))?;
    store_once(&mut slots[index], key, parse_u64(value, key)?)
}

fn parse_header<R: BufRead>(line: &str, reader: &mut R) -> Result<Option<Frame>, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or_else(|| malformed("empty frame line"))?;
    let frame = match verb {
        "SOLVE" => return parse_solve(tokens, reader).map(Some),
        "CANCEL" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("CANCEL needs a job id"))?,
                "job id",
            )?;
            expect_end(tokens, "CANCEL")?;
            Frame::Cancel { job }
        }
        "STATUS" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("STATUS needs a job id"))?,
                "job id",
            )?;
            expect_end(tokens, "STATUS")?;
            Frame::Status { job }
        }
        "REFILL" => {
            let mut samples = None;
            let mut checks = None;
            let mut wall_ms = None;
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                let value = parse_u64(value, key)?;
                match key {
                    "samples" => store_once(&mut samples, key, value)?,
                    "checks" => store_once(&mut checks, key, value)?,
                    "wall-ms" => store_once(&mut wall_ms, key, value)?,
                    other => return Err(malformed(format!("unknown REFILL key '{other}'"))),
                }
            }
            if samples.is_none() && checks.is_none() && wall_ms.is_none() {
                return Err(malformed(
                    "REFILL needs at least one of samples/checks/wall-ms",
                ));
            }
            Frame::Refill {
                samples,
                checks,
                wall_ms,
            }
        }
        "PING" => {
            expect_end(tokens, "PING")?;
            Frame::Ping
        }
        "HELLO" => {
            expect_end(tokens, "HELLO")?;
            Frame::Hello
        }
        "SHUTDOWN" => {
            expect_end(tokens, "SHUTDOWN")?;
            Frame::Shutdown
        }
        "SESSION" => return parse_session(tokens, reader).map(Some),
        "METRICS" => return parse_metrics(tokens, reader).map(Some),
        "QUEUED" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("QUEUED needs a job id"))?,
                "job id",
            )?;
            expect_end(tokens, "QUEUED")?;
            Frame::Queued { job }
        }
        "v" => {
            let job = parse_u64(
                tokens.next().ok_or_else(|| malformed("v needs a job id"))?,
                "job id",
            )?;
            let mut literals = Vec::new();
            let mut terminated = false;
            for token in tokens.by_ref() {
                let lit = parse_i64(token)?;
                if lit == 0 {
                    terminated = true;
                    break;
                }
                literals.push(lit);
            }
            if !terminated {
                return Err(malformed("v-line missing terminating 0"));
            }
            expect_end(tokens, "the v-line terminator")?;
            Frame::Model { job, literals }
        }
        "f" => {
            let job = parse_u64(
                tokens.next().ok_or_else(|| malformed("f needs a job id"))?,
                "job id",
            )?;
            let mut literals = Vec::new();
            let mut terminated = false;
            for token in tokens.by_ref() {
                let lit = parse_i64(token)?;
                if lit == 0 {
                    terminated = true;
                    break;
                }
                literals.push(lit);
            }
            if !terminated {
                return Err(malformed("f-line missing terminating 0"));
            }
            expect_end(tokens, "the f-line terminator")?;
            Frame::FailedAssumptions { job, literals }
        }
        "SESSIONOK" => {
            let session = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSIONOK needs a session id"))?,
                "session id",
            )?;
            let (key, value) = split_key_value(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSIONOK needs a depth key"))?,
            )?;
            if key != "depth" {
                return Err(malformed(format!("unknown SESSIONOK key '{key}'")));
            }
            let depth = parse_u64(value, key)?;
            expect_end(tokens, "SESSIONOK")?;
            Frame::SessionOk { session, depth }
        }
        "CAPS" => {
            let (key, value) = split_key_value(
                tokens
                    .next()
                    .ok_or_else(|| malformed("CAPS needs a sessions key"))?,
            )?;
            if key != "sessions" {
                return Err(malformed(format!("unknown CAPS key '{key}'")));
            }
            let sessions = match value {
                "true" => true,
                "false" => false,
                other => return Err(malformed(format!("invalid sessions value '{other}'"))),
            };
            expect_end(tokens, "CAPS")?;
            Frame::Caps { sessions }
        }
        "STATS" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("STATS needs a job id"))?,
                "job id",
            )?;
            let mut slots = [None; WireStats::KEYS.len()];
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                store_counter(&WireStats::KEYS, &mut slots, "STATS", key, value)?;
            }
            Frame::Stats {
                job,
                stats: WireStats::from_counters(slots),
            }
        }
        "RESULT" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("RESULT needs a job id"))?,
                "job id",
            )?;
            match tokens.next() {
                Some("s") => {}
                other => return Err(malformed(format!("RESULT expects 's', got {other:?}"))),
            }
            let verdict = match tokens.next() {
                Some("SATISFIABLE") => WireVerdict::Satisfiable,
                Some("UNSATISFIABLE") => WireVerdict::Unsatisfiable,
                Some("UNKNOWN") => {
                    let cause = WireCause::parse(
                        tokens
                            .next()
                            .ok_or_else(|| malformed("UNKNOWN needs a cause"))?,
                    )?;
                    WireVerdict::Unknown(cause)
                }
                other => return Err(malformed(format!("unknown verdict {other:?}"))),
            };
            expect_end(tokens, "RESULT")?;
            Frame::Result { job, verdict }
        }
        "INFO" => {
            let job = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("INFO needs a job id"))?,
                "job id",
            )?;
            let status = WireJobStatus::parse(
                tokens
                    .next()
                    .ok_or_else(|| malformed("INFO needs a status"))?,
            )?;
            let mut queue_depth = None;
            let mut high = None;
            let mut normal = None;
            let mut low = None;
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                match key {
                    "queue-depth" => store_once(&mut queue_depth, key, parse_u64(value, key)?)?,
                    "backlog-high" => store_once(&mut high, key, parse_u64(value, key)?)?,
                    "backlog-normal" => store_once(&mut normal, key, parse_u64(value, key)?)?,
                    "backlog-low" => store_once(&mut low, key, parse_u64(value, key)?)?,
                    other => return Err(malformed(format!("unknown INFO key '{other}'"))),
                }
            }
            let any_gauge =
                queue_depth.is_some() || high.is_some() || normal.is_some() || low.is_some();
            let backlog = any_gauge.then(|| WireBacklog {
                queue_depth: queue_depth.unwrap_or(0),
                high: high.unwrap_or(0),
                normal: normal.unwrap_or(0),
                low: low.unwrap_or(0),
            });
            Frame::Info {
                job,
                status,
                backlog,
            }
        }
        "OK" => {
            match tokens.next() {
                Some("refill") => {}
                other => return Err(malformed(format!("unknown OK payload {other:?}"))),
            }
            expect_end(tokens, "OK")?;
            Frame::OkRefill
        }
        "PONG" => {
            expect_end(tokens, "PONG")?;
            Frame::Pong
        }
        "BYE" => {
            expect_end(tokens, "BYE")?;
            Frame::Bye
        }
        "ERR" => {
            let scope = tokens
                .next()
                .ok_or_else(|| malformed("ERR needs a scope"))?;
            let job = if scope == "-" {
                None
            } else {
                Some(parse_u64(scope, "job id")?)
            };
            // The message is the rest of the line, whitespace-normalised by
            // the tokenizer-free slice: find the scope token and take what
            // follows it.
            let rest: Vec<&str> = tokens.collect();
            if rest.is_empty() {
                return Err(malformed("ERR needs a message"));
            }
            Frame::Error {
                job,
                message: rest.join(" "),
            }
        }
        other => return Err(malformed(format!("unknown verb '{other}'"))),
    };
    Ok(Some(frame))
}

fn parse_solve<'a, R: BufRead, I: Iterator<Item = &'a str>>(
    mut tokens: I,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    let backend = tokens
        .next()
        .ok_or_else(|| malformed("SOLVE needs a backend name"))?;
    if !valid_backend_name(backend) {
        return Err(malformed(format!("invalid backend name '{backend}'")));
    }
    let mut seed = None;
    let mut priority = None;
    let mut artifacts = None;
    let mut wall_ms = None;
    let mut max_samples = None;
    let mut max_checks = None;
    let mut stats: Option<bool> = None;
    let mut body_lines: Option<usize> = None;
    for token in tokens {
        if body_lines.is_some() {
            return Err(malformed("body-lines must be the last SOLVE key"));
        }
        let (key, value) = split_key_value(token)?;
        match key {
            "seed" => store_once(&mut seed, key, parse_u64(value, key)?)?,
            "stats" => {
                let value = match value {
                    "true" => true,
                    "false" => false,
                    other => return Err(malformed(format!("invalid stats value '{other}'"))),
                };
                if stats.replace(value).is_some() {
                    return Err(malformed("duplicate key 'stats'"));
                }
            }
            "priority" => {
                if priority.replace(WirePriority::parse(value)?).is_some() {
                    return Err(malformed("duplicate key 'priority'"));
                }
            }
            "artifacts" => {
                if artifacts.replace(WireArtifacts::parse(value)?).is_some() {
                    return Err(malformed("duplicate key 'artifacts'"));
                }
            }
            "wall-ms" => store_once(&mut wall_ms, key, parse_u64(value, key)?)?,
            "samples" => store_once(&mut max_samples, key, parse_u64(value, key)?)?,
            "checks" => store_once(&mut max_checks, key, parse_u64(value, key)?)?,
            "body-lines" => {
                let count = parse_u64(value, key)?;
                // Compare in u64 before narrowing: `as usize` would wrap
                // huge counts into the accepted range on 32-bit targets.
                if count > MAX_BODY_LINES as u64 {
                    return Err(ProtocolError::Desync(format!(
                        "body-lines={count} exceeds the {MAX_BODY_LINES}-line cap"
                    )));
                }
                body_lines = Some(count as usize);
            }
            other => return Err(malformed(format!("unknown SOLVE key '{other}'"))),
        }
    }
    let body_lines =
        body_lines.ok_or_else(|| malformed("SOLVE needs a trailing body-lines key"))?;
    let mut body = Vec::with_capacity(body_lines.min(1024));
    for _ in 0..body_lines {
        let line = read_limited_line(reader)?
            .ok_or_else(|| ProtocolError::Desync("connection closed inside a SOLVE body".into()))?;
        body.push(decode_utf8(line)?);
    }
    Ok(Frame::Solve(SolveFrame {
        backend: backend.to_string(),
        seed: seed.unwrap_or(0),
        priority: priority.unwrap_or_default(),
        artifacts: artifacts.unwrap_or_default(),
        wall_ms,
        max_samples,
        max_checks,
        stats: stats.unwrap_or(false),
        body,
    }))
}

/// Parses a `METRICS` line: bare (the client's request) or keyed (the
/// server's snapshot response, whose `body-lines=` count announces the
/// per-backend latency lines that follow).
fn parse_metrics<'a, R: BufRead, I: Iterator<Item = &'a str>>(
    tokens: I,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    // Counter keys may be any subset (absent reads 0), like STATS; only the
    // trailing body-lines key distinguishes the response and is mandatory
    // there.
    let mut slots = [None; WireMetrics::KEYS.len()];
    let mut body_lines: Option<usize> = None;
    let mut any_key = false;
    for token in tokens {
        if body_lines.is_some() {
            return Err(malformed("body-lines must be the last METRICS key"));
        }
        any_key = true;
        let (key, value) = split_key_value(token)?;
        if key == "body-lines" {
            let count = parse_u64(value, key)?;
            if count > MAX_BODY_LINES as u64 {
                return Err(ProtocolError::Desync(format!(
                    "body-lines={count} exceeds the {MAX_BODY_LINES}-line cap"
                )));
            }
            body_lines = Some(count as usize);
            continue;
        }
        store_counter(&WireMetrics::KEYS, &mut slots, "METRICS", key, value)?;
    }
    if !any_key {
        return Ok(Frame::MetricsRequest);
    }
    let body_lines =
        body_lines.ok_or_else(|| malformed("METRICS response needs a trailing body-lines key"))?;
    let mut backends = Vec::with_capacity(body_lines.min(1024));
    for _ in 0..body_lines {
        let line = read_limited_line(reader)?.ok_or_else(|| {
            ProtocolError::Desync("connection closed inside a METRICS body".into())
        })?;
        backends.push(parse_metrics_backend(&decode_utf8(line)?)?);
    }
    Ok(Frame::Metrics(WireMetrics {
        backends,
        ..WireMetrics::from_counters(slots)
    }))
}

/// Parses one `METRICS` body line:
/// `backend <name> count=<u64> total-us=<u64> max-us=<u64>`.
fn parse_metrics_backend(line: &str) -> Result<WireBackendLatency, ProtocolError> {
    let mut tokens = line.split_ascii_whitespace();
    match tokens.next() {
        Some("backend") => {}
        other => {
            return Err(malformed(format!(
                "METRICS body line must start with 'backend', got {other:?}"
            )))
        }
    }
    let name = tokens
        .next()
        .ok_or_else(|| malformed("METRICS body line needs a backend name"))?;
    if !valid_backend_name(name) {
        return Err(malformed(format!("invalid backend name '{name}'")));
    }
    let mut count = None;
    let mut total_us = None;
    let mut max_us = None;
    for token in tokens {
        let (key, value) = split_key_value(token)?;
        match key {
            "count" => store_once(&mut count, key, parse_u64(value, key)?)?,
            "total-us" => store_once(&mut total_us, key, parse_u64(value, key)?)?,
            "max-us" => store_once(&mut max_us, key, parse_u64(value, key)?)?,
            other => return Err(malformed(format!("unknown METRICS body key '{other}'"))),
        }
    }
    Ok(WireBackendLatency {
        name: name.to_string(),
        count: count.unwrap_or(0),
        total_us: total_us.unwrap_or(0),
        max_us: max_us.unwrap_or(0),
    })
}

/// Parses the comma-separated DIMACS literals of a `lits=` value.
fn parse_lit_list(value: &str) -> Result<Vec<i64>, ProtocolError> {
    let mut literals = Vec::new();
    for token in value.split(',') {
        let lit = parse_i64(token)?;
        if lit == 0 {
            return Err(malformed("assumption literal must be non-zero"));
        }
        literals.push(lit);
    }
    Ok(literals)
}

fn parse_session<'a, R: BufRead, I: Iterator<Item = &'a str>>(
    mut tokens: I,
    reader: &mut R,
) -> Result<Frame, ProtocolError> {
    let subverb = tokens
        .next()
        .ok_or_else(|| malformed("SESSION needs a subverb"))?;
    let frame = match subverb {
        "OPEN" => {
            let (key, value) = split_key_value(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION OPEN needs a backend key"))?,
            )?;
            if key != "backend" {
                return Err(malformed(format!("unknown SESSION OPEN key '{key}'")));
            }
            if !valid_backend_name(value) {
                return Err(malformed(format!("invalid backend name '{value}'")));
            }
            expect_end(tokens, "SESSION OPEN")?;
            Frame::SessionOpen {
                backend: value.to_string(),
            }
        }
        "ADDCLAUSES" => {
            let session = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION ADDCLAUSES needs a session id"))?,
                "session id",
            )?;
            let (key, value) = split_key_value(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION ADDCLAUSES needs a body-lines key"))?,
            )?;
            if key != "body-lines" {
                return Err(malformed(format!("unknown SESSION ADDCLAUSES key '{key}'")));
            }
            let count = parse_u64(value, key)?;
            if count > MAX_BODY_LINES as u64 {
                return Err(ProtocolError::Desync(format!(
                    "body-lines={count} exceeds the {MAX_BODY_LINES}-line cap"
                )));
            }
            expect_end(tokens, "SESSION ADDCLAUSES")?;
            let count = count as usize;
            let mut body = Vec::with_capacity(count.min(1024));
            for _ in 0..count {
                let line = read_limited_line(reader)?.ok_or_else(|| {
                    ProtocolError::Desync("connection closed inside an ADDCLAUSES body".into())
                })?;
                body.push(decode_utf8(line)?);
            }
            Frame::SessionAddClauses { session, body }
        }
        "ASSUME" => {
            let session = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION ASSUME needs a session id"))?,
                "session id",
            )?;
            let mut literals: Option<Vec<i64>> = None;
            let mut wall_ms = None;
            let mut max_samples = None;
            let mut max_checks = None;
            for token in tokens {
                let (key, value) = split_key_value(token)?;
                match key {
                    "lits" => {
                        if literals.replace(parse_lit_list(value)?).is_some() {
                            return Err(malformed("duplicate key 'lits'"));
                        }
                    }
                    "wall-ms" => store_once(&mut wall_ms, key, parse_u64(value, key)?)?,
                    "samples" => store_once(&mut max_samples, key, parse_u64(value, key)?)?,
                    "checks" => store_once(&mut max_checks, key, parse_u64(value, key)?)?,
                    other => {
                        return Err(malformed(format!("unknown SESSION ASSUME key '{other}'")))
                    }
                }
            }
            Frame::SessionAssume {
                session,
                literals: literals.unwrap_or_default(),
                wall_ms,
                max_samples,
                max_checks,
            }
        }
        "POP" => {
            let session = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION POP needs a session id"))?,
                "session id",
            )?;
            expect_end(tokens, "SESSION POP")?;
            Frame::SessionPop { session }
        }
        "CLOSE" => {
            let session = parse_u64(
                tokens
                    .next()
                    .ok_or_else(|| malformed("SESSION CLOSE needs a session id"))?,
                "session id",
            )?;
            expect_end(tokens, "SESSION CLOSE")?;
            Frame::SessionClose { session }
        }
        other => return Err(malformed(format!("unknown SESSION subverb '{other}'"))),
    };
    Ok(frame)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn roundtrip(frame: Frame) {
        let text = frame.encode();
        let mut cursor = Cursor::new(text.clone());
        let parsed = Frame::read_from(&mut cursor)
            .unwrap_or_else(|e| panic!("parse failed for {text:?}: {e}"))
            .expect("one frame");
        assert_eq!(parsed, frame, "round-trip mismatch for {text:?}");
        // The whole encoding was consumed.
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn every_verb_round_trips() {
        roundtrip(Frame::Solve(SolveFrame::new(
            "cdcl",
            "p cnf 2 2\n1 2 0\n-1 -2 0",
        )));
        roundtrip(Frame::Solve(SolveFrame {
            backend: "parallel-portfolio".into(),
            seed: u64::MAX,
            priority: WirePriority::High,
            artifacts: WireArtifacts::Verdict,
            wall_ms: Some(5000),
            max_samples: Some(0),
            max_checks: Some(64),
            stats: true,
            body: vec![],
        }));
        roundtrip(Frame::Cancel { job: 7 });
        roundtrip(Frame::Status { job: 0 });
        roundtrip(Frame::Refill {
            samples: Some(10),
            checks: None,
            wall_ms: Some(1),
        });
        roundtrip(Frame::Ping);
        roundtrip(Frame::Shutdown);
        roundtrip(Frame::Queued { job: 3 });
        roundtrip(Frame::Model {
            job: 3,
            literals: vec![1, -2, 3],
        });
        roundtrip(Frame::Model {
            job: 9,
            literals: vec![],
        });
        roundtrip(Frame::Stats {
            job: 6,
            stats: WireStats {
                decisions: 12,
                conflicts: 3,
                propagations: 40,
                restarts: 1,
                learned: 3,
                tried: 0,
                flips: 0,
                checks: 9,
                samples: 512,
                wall_us: 1234,
                cache_hits: 1,
                pre_vars_removed: 4,
                clauses_exported: 7,
                clauses_imported: 2,
            },
        });
        roundtrip(Frame::Stats {
            job: 0,
            stats: WireStats::default(),
        });
        roundtrip(Frame::Result {
            job: 3,
            verdict: WireVerdict::Satisfiable,
        });
        roundtrip(Frame::Result {
            job: 4,
            verdict: WireVerdict::Unknown(WireCause::BudgetSamples),
        });
        roundtrip(Frame::Info {
            job: 5,
            status: WireJobStatus::Running,
            backlog: None,
        });
        roundtrip(Frame::Info {
            job: 5,
            status: WireJobStatus::Queued,
            backlog: Some(WireBacklog {
                queue_depth: 6,
                high: 1,
                normal: 4,
                low: 1,
            }),
        });
        roundtrip(Frame::OkRefill);
        roundtrip(Frame::Pong);
        roundtrip(Frame::Bye);
        roundtrip(Frame::Error {
            job: Some(12),
            message: "unknown backend 'minisat'".into(),
        });
        roundtrip(Frame::Error {
            job: None,
            message: "unknown verb 'FROB'".into(),
        });
    }

    #[test]
    fn session_frames_round_trip() {
        roundtrip(Frame::Hello);
        roundtrip(Frame::Caps { sessions: true });
        roundtrip(Frame::Caps { sessions: false });
        roundtrip(Frame::SessionOpen {
            backend: "cdcl".into(),
        });
        roundtrip(Frame::SessionAddClauses {
            session: 3,
            body: vec!["p cnf 2 2".into(), "1 2 0".into(), "-1 -2 0".into()],
        });
        roundtrip(Frame::SessionAddClauses {
            session: 0,
            body: vec![],
        });
        roundtrip(Frame::SessionAssume {
            session: 3,
            literals: vec![1, -2, 7],
            wall_ms: Some(250),
            max_samples: None,
            max_checks: Some(9),
        });
        roundtrip(Frame::SessionAssume {
            session: 3,
            literals: vec![],
            wall_ms: None,
            max_samples: None,
            max_checks: None,
        });
        roundtrip(Frame::SessionPop { session: 3 });
        roundtrip(Frame::SessionClose { session: 3 });
        roundtrip(Frame::SessionOk {
            session: 3,
            depth: 2,
        });
        roundtrip(Frame::FailedAssumptions {
            job: 9,
            literals: vec![-2, 7],
        });
        roundtrip(Frame::FailedAssumptions {
            job: 9,
            literals: vec![],
        });
    }

    #[test]
    fn session_parser_is_strict() {
        let bad = [
            "SESSION\n",
            "SESSION FROB 1\n",
            "SESSION OPEN\n",
            "SESSION OPEN cdcl\n",
            "SESSION OPEN backend=bad name\n",
            "SESSION OPEN backend=\n",
            "SESSION ADDCLAUSES 1\n",
            "SESSION ADDCLAUSES 1 lines=0\n",
            "SESSION ADDCLAUSES x body-lines=0\n",
            "SESSION ASSUME\n",
            "SESSION ASSUME 1 lits=0\n",
            "SESSION ASSUME 1 lits=1,,2\n",
            "SESSION ASSUME 1 lits=1 lits=2\n",
            "SESSION ASSUME 1 wall-ms=1 wall-ms=2\n",
            "SESSION ASSUME 1 frobs=2\n",
            "SESSION POP\n",
            "SESSION POP 1 2\n",
            "SESSION CLOSE -1\n",
            "SESSIONOK 1\n",
            "SESSIONOK 1 depth=x\n",
            "SESSIONOK 1 depth=0 extra\n",
            "CAPS\n",
            "CAPS sessions=maybe\n",
            "CAPS frobs=true\n",
            "HELLO there\n",
            "f 1 2 3\n",
            "f 1 2 0 4\n",
        ];
        for text in bad {
            let mut cursor = Cursor::new(text.to_string());
            let error = Frame::read_from(&mut cursor)
                .err()
                .unwrap_or_else(|| panic!("{text:?} must not parse"));
            assert!(error.is_recoverable(), "{text:?} should stay synchronised");
        }
        // An over-long ADDCLAUSES body declaration loses framing.
        let text = format!("SESSION ADDCLAUSES 1 body-lines={}\n", MAX_BODY_LINES + 1);
        let mut cursor = Cursor::new(text);
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
        // A body cut off by EOF loses framing too.
        let mut cursor = Cursor::new("SESSION ADDCLAUSES 1 body-lines=2\np cnf 1 1\n".to_string());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
    }

    #[test]
    fn streams_of_frames_parse_in_order() {
        let mut text = String::new();
        let frames = vec![
            Frame::Ping,
            Frame::Solve(SolveFrame::new("dpll", "p cnf 1 1\n1 0")),
            Frame::Cancel { job: 1 },
        ];
        for frame in &frames {
            text.push_str(&frame.encode());
        }
        let mut cursor = Cursor::new(text);
        for frame in &frames {
            assert_eq!(Frame::read_from(&mut cursor).unwrap().as_ref(), Some(frame));
        }
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn crlf_and_missing_final_newline_are_tolerated() {
        let mut cursor = Cursor::new("PING\r\n".to_string());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Ping));
        let mut cursor = Cursor::new("PONG".to_string());
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(Frame::Pong));
        assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
    }

    #[test]
    fn solve_budget_mapping() {
        let frame = SolveFrame {
            wall_ms: Some(1500),
            max_samples: Some(7),
            ..SolveFrame::new("cdcl", "")
        };
        let budget = frame.budget();
        assert_eq!(budget.wall_time, Some(Duration::from_millis(1500)));
        assert_eq!(budget.max_samples, Some(7));
        assert_eq!(budget.max_checks, None);
        assert!(SolveFrame::new("cdcl", "").budget().is_unlimited());
    }

    #[test]
    fn stats_keys_may_be_any_subset_but_never_duplicate_or_unknown() {
        let mut cursor = Cursor::new("STATS 4 flips=17 wall-us=9\n".to_string());
        let frame = Frame::read_from(&mut cursor).unwrap().unwrap();
        assert_eq!(
            frame,
            Frame::Stats {
                job: 4,
                stats: WireStats {
                    flips: 17,
                    wall_us: 9,
                    ..WireStats::default()
                },
            }
        );
        let mut cursor = Cursor::new("STATS 4 flips=1 flips=2\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("STATS 4 wat=1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("STATS 4 flips=-1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn solve_stats_key_is_strict_and_off_by_default() {
        let plain = SolveFrame::new("cdcl", "p cnf 1 1\n1 0");
        assert!(!plain.stats);
        assert!(!Frame::Solve(plain).encode().contains("stats="));
        let mut cursor = Cursor::new("SOLVE cdcl stats=true body-lines=0\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Solve(solve) => assert!(solve.stats),
            other => panic!("expected SOLVE, got {other:?}"),
        }
        let mut cursor = Cursor::new("SOLVE cdcl stats=false body-lines=0\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Solve(solve) => assert!(!solve.stats),
            other => panic!("expected SOLVE, got {other:?}"),
        }
        let mut cursor = Cursor::new("SOLVE cdcl stats=yes body-lines=0\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("SOLVE cdcl stats=true stats=true body-lines=0\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn wire_stats_round_trips_through_solve_stats() {
        let stats = SolveStats {
            decisions: 5,
            conflicts: 2,
            propagations: 11,
            restarts: 1,
            learned_clauses: 2,
            assignments_tried: 64,
            flips: 7,
            coprocessor_checks: 3,
            samples: 100,
            wall_time: Duration::from_micros(4321),
            cache_hits: 1,
            preprocessed_vars_removed: 6,
            clauses_exported: 9,
            clauses_imported: 4,
            ..SolveStats::default()
        };
        let wire = WireStats::from(&stats);
        assert_eq!(wire.cache_hits, 1);
        assert_eq!(wire.pre_vars_removed, 6);
        assert_eq!(wire.clauses_exported, 9);
        assert_eq!(wire.clauses_imported, 4);
        assert_eq!(wire.to_solve_stats(), stats);
    }

    #[test]
    fn metrics_frames_round_trip() {
        // A bare METRICS line is the client's request...
        roundtrip(Frame::MetricsRequest);
        // ...and a keyed one is the server's snapshot response.
        roundtrip(Frame::Metrics(WireMetrics {
            queue_depth: 6,
            backlog_high: 1,
            backlog_normal: 4,
            backlog_low: 1,
            cache_hits: 17,
            cache_misses: 40,
            cache_evictions: 2,
            cache_entries: 38,
            pre_vars_removed: 120,
            pre_clauses_removed: 64,
            pre_solved: 9,
            budget_samples_spent: 100_000,
            budget_checks_spent: 4_096,
            clauses_exported: 512,
            clauses_imported: 301,
            backends: vec![
                WireBackendLatency {
                    name: "cdcl".into(),
                    count: 31,
                    total_us: 88_000,
                    max_us: 12_000,
                },
                WireBackendLatency {
                    name: "nbl-sampled".into(),
                    count: 9,
                    total_us: 4_500,
                    max_us: 900,
                },
            ],
        }));
        roundtrip(Frame::Metrics(WireMetrics::default()));
    }

    /// Pins the exact bytes of both counter frames: every key, its spelling
    /// and its position. The round-trip tests cannot see a renamed or
    /// reordered key; this one can.
    #[test]
    fn counter_frames_match_golden_wire_bytes() {
        const STATS: &str = "STATS 77 decisions=1 conflicts=2 propagations=3 restarts=4 \
            learned=5 tried=6 flips=7 checks=8 samples=9 wall-us=10 cache-hits=11 \
            pre-vars-removed=12 clauses-exported=13 clauses-imported=14\n";
        const METRICS: &str = "METRICS queue-depth=101 backlog-high=102 backlog-normal=103 \
            backlog-low=104 cache-hits=105 cache-misses=106 cache-evictions=107 \
            cache-entries=108 pre-vars-removed=109 pre-clauses-removed=110 pre-solved=111 \
            budget-samples-spent=112 budget-checks-spent=113 clauses-exported=114 \
            clauses-imported=115 body-lines=2\n\
            backend cdcl count=116 total-us=117 max-us=118\n\
            backend nbl-sampled count=119 total-us=120 max-us=121\n";
        let stats = Frame::Stats {
            job: 77,
            stats: WireStats {
                decisions: 1,
                conflicts: 2,
                propagations: 3,
                restarts: 4,
                learned: 5,
                tried: 6,
                flips: 7,
                checks: 8,
                samples: 9,
                wall_us: 10,
                cache_hits: 11,
                pre_vars_removed: 12,
                clauses_exported: 13,
                clauses_imported: 14,
            },
        };
        let metrics = Frame::Metrics(WireMetrics {
            queue_depth: 101,
            backlog_high: 102,
            backlog_normal: 103,
            backlog_low: 104,
            cache_hits: 105,
            cache_misses: 106,
            cache_evictions: 107,
            cache_entries: 108,
            pre_vars_removed: 109,
            pre_clauses_removed: 110,
            pre_solved: 111,
            budget_samples_spent: 112,
            budget_checks_spent: 113,
            clauses_exported: 114,
            clauses_imported: 115,
            backends: vec![
                WireBackendLatency {
                    name: "cdcl".into(),
                    count: 116,
                    total_us: 117,
                    max_us: 118,
                },
                WireBackendLatency {
                    name: "nbl-sampled".into(),
                    count: 119,
                    total_us: 120,
                    max_us: 121,
                },
            ],
        });
        for (frame, golden) in [(stats, STATS), (metrics, METRICS)] {
            assert_eq!(frame.encode(), golden);
            let mut cursor = Cursor::new(golden.to_string());
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), Some(frame));
            assert_eq!(Frame::read_from(&mut cursor).unwrap(), None);
        }
    }

    #[test]
    fn metrics_parser_is_strict() {
        let bad = [
            // Counter keys without the mandatory trailing body-lines.
            "METRICS cache-hits=3\n",
            // body-lines must come last.
            "METRICS body-lines=0 cache-hits=3\n",
            "METRICS wat=1 body-lines=0\n",
            "METRICS cache-hits=1 cache-hits=2 body-lines=0\n",
            "METRICS cache-hits=-1 body-lines=0\n",
            // Malformed body lines.
            "METRICS body-lines=1\nfrob cdcl count=1\n",
            "METRICS body-lines=1\nbackend\n",
            "METRICS body-lines=1\nbackend bad name count=1\n",
            "METRICS body-lines=1\nbackend cdcl count=1 count=2\n",
            "METRICS body-lines=1\nbackend cdcl wat=1\n",
        ];
        for text in bad {
            let mut cursor = Cursor::new(text.to_string());
            assert!(
                Frame::read_from(&mut cursor).is_err(),
                "{text:?} must not parse"
            );
        }
        // Body-line counter keys may be any subset; absent counters read 0.
        let mut cursor = Cursor::new("METRICS body-lines=1\nbackend cdcl count=5\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Metrics(metrics) => {
                assert_eq!(metrics.backends.len(), 1);
                assert_eq!(metrics.backends[0].count, 5);
                assert_eq!(metrics.backends[0].total_us, 0);
                assert_eq!(metrics.cache_hits, 0);
            }
            other => panic!("expected METRICS, got {other:?}"),
        }
        // A body cut off by EOF loses framing.
        let mut cursor = Cursor::new("METRICS body-lines=2\nbackend cdcl count=1\n".to_string());
        assert!(matches!(
            Frame::read_from(&mut cursor),
            Err(ProtocolError::Desync(_))
        ));
    }

    #[test]
    fn info_backlog_keys_are_optional_and_strict() {
        // A bare INFO (an older server) parses with no backlog.
        let mut cursor = Cursor::new("INFO 5 running\n".to_string());
        assert_eq!(
            Frame::read_from(&mut cursor).unwrap().unwrap(),
            Frame::Info {
                job: 5,
                status: WireJobStatus::Running,
                backlog: None,
            }
        );
        // Any gauge key present yields a backlog (absent gauges read 0).
        let mut cursor = Cursor::new("INFO 5 queued backlog-normal=3\n".to_string());
        match Frame::read_from(&mut cursor).unwrap().unwrap() {
            Frame::Info {
                backlog: Some(backlog),
                ..
            } => {
                assert_eq!(backlog.normal, 3);
                assert_eq!(backlog.queue_depth, 0);
            }
            other => panic!("expected INFO with backlog, got {other:?}"),
        }
        let mut cursor = Cursor::new("INFO 5 running wat=1\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
        let mut cursor = Cursor::new("INFO 5 running queue-depth=1 queue-depth=2\n".to_string());
        assert!(Frame::read_from(&mut cursor).is_err());
    }

    #[test]
    fn exit_codes_follow_the_sat_competition_convention() {
        assert_eq!(WireVerdict::Satisfiable.exit_code(), 10);
        assert_eq!(WireVerdict::Unsatisfiable.exit_code(), 20);
        assert_eq!(WireVerdict::Unknown(WireCause::Cancelled).exit_code(), 0);
    }

    #[test]
    fn recoverability_classification() {
        assert!(malformed("x").is_recoverable());
        assert!(!ProtocolError::Desync("x".into()).is_recoverable());
        assert!(!ProtocolError::Io(std::io::Error::other("x")).is_recoverable());
    }
}
