//! Cooperative clause sharing for portfolio search.
//!
//! A pure racing portfolio discards every losing member's learned clauses, so
//! adding cores buys attribution, not search power. This module turns the
//! ensemble cooperative: CDCL members export short learned clauses into a
//! [`SharedClausePool`], every member imports the clauses it has not seen yet
//! at its next restart boundary, and the local-search members treat the
//! imports as soft scoring constraints. Because an exported clause is always
//! a *logical consequence of the shared input formula* (CDCL only exports
//! clauses derived from frame-0 resolution), imports can steer a member's
//! search but can never change a verdict — the pool preserves the racing
//! portfolio's soundness and the PR 3 determinism contract (verdicts are
//! seed-deterministic, attribution stays race-dependent).
//!
//! # Pool design
//!
//! The pool is one `Mutex` over an epoch-ordered `VecDeque` of clauses and
//! the next publish stamp. An export stamps its clause and pushes it under
//! the lock, and an import snapshots the stamp and scans under the same
//! lock, so a scan sees every clause stamped before its snapshot. Members
//! track a private epoch cursor ([`ShareHandle`]), so one pool scan per
//! restart imports exactly the clauses published since the member's
//! previous scan — never its own exports, never a clause twice, never one
//! lost. The deque is sorted by epoch, so a scan starts at the cursor
//! instead of walking the whole pool.
//!
//! An earlier layout spread clauses over eight lock shards and stamped the
//! epoch from an atomic counter *before* taking a shard lock. An import
//! could then snapshot a later epoch, scan that shard before the push
//! landed and move its cursor past the clause for good. Measured in a
//! release build on 2 cores, with four members exporting 64 clauses each, a
//! barrier and a settling import, over 600 rounds per layout run in
//! alternating blocks of 50:
//!
//! | layout | p50 round | rounds that lost clauses |
//! |---|---|---|
//! | eight shards | 269 µs | 36 of 600 |
//! | one shard, stamp outside the lock | 218 µs | 539 of 600 |
//! | one lock (this pool) | 152 µs | 0 of 600 |
//!
//! The `share_pool/one_lock` record of the `baseline_comparison` bench
//! tracks the pool's cost.
//!
//! Capacity is bounded with lazy eviction: only an export that overflows the
//! pool evicts (oldest first), imports never shrink the pool.

use cnf::Literal;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Default maximum exported-clause length, in literals.
pub const DEFAULT_MAX_SHARED_LEN: usize = 8;

/// Default maximum literal-block distance (LBD) of an exported clause.
pub const DEFAULT_MAX_SHARED_LBD: u32 = 6;

/// Default pool capacity (clauses resident at once).
pub const DEFAULT_POOL_CAPACITY: usize = 2048;

/// Configuration of the cooperative clause-sharing layer of
/// [`crate::ParallelPortfolio`]. Sharing is **on by default**; use
/// [`SharingConfig::racing_only`] to opt back into the pure racing portfolio.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharingConfig {
    /// Whether members share clauses at all. Off = pure racing.
    pub enabled: bool,
    /// Export filter: clauses longer than this never enter the pool.
    pub max_len: usize,
    /// Export filter: clauses with a larger literal-block distance (number
    /// of distinct decision levels at learn time) never enter the pool.
    pub max_lbd: u32,
    /// Clause capacity of the pool; the oldest clauses are evicted lazily
    /// by the export that overflows it.
    pub capacity: usize,
}

impl Default for SharingConfig {
    fn default() -> Self {
        SharingConfig {
            enabled: true,
            max_len: DEFAULT_MAX_SHARED_LEN,
            max_lbd: DEFAULT_MAX_SHARED_LBD,
            capacity: DEFAULT_POOL_CAPACITY,
        }
    }
}

impl SharingConfig {
    /// The default cooperative configuration (sharing on).
    pub fn new() -> Self {
        SharingConfig::default()
    }

    /// The opt-out: a pure racing portfolio without any clause traffic.
    pub fn racing_only() -> Self {
        SharingConfig {
            enabled: false,
            ..SharingConfig::default()
        }
    }

    /// Sets the export length cap.
    pub fn with_max_len(mut self, max_len: usize) -> Self {
        self.max_len = max_len.max(1);
        self
    }

    /// Sets the export LBD cap.
    pub fn with_max_lbd(mut self, max_lbd: u32) -> Self {
        self.max_lbd = max_lbd;
        self
    }

    /// Sets the pool capacity (in clauses).
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

/// One clause resident in the pool.
#[derive(Debug, Clone)]
struct PooledClause {
    /// Unique, monotonically increasing publish stamp.
    epoch: u64,
    /// Index of the exporting member (importers skip their own clauses).
    source: usize,
    literals: Vec<Literal>,
}

/// Counters of one pool's lifetime traffic (see [`SharedClausePool::stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Clauses accepted into the pool.
    pub exported: u64,
    /// Export attempts rejected by the length/LBD filter.
    pub rejected: u64,
    /// Clauses evicted to keep the pool within capacity.
    pub evicted: u64,
    /// Clauses handed out across all import scans (one clause delivered to
    /// `k` members counts `k` times).
    pub imported: u64,
}

/// A bounded, single-lock clause pool shared by the members of a
/// cooperative portfolio.
///
/// See the [module docs](self) for the design. All methods take `&self`; the
/// pool is meant to live in an [`Arc`] shared across member threads.
///
/// ```
/// use cnf::Literal;
/// use sat_solvers::share::{SharedClausePool, SharingConfig};
///
/// let pool = SharedClausePool::new(SharingConfig::default());
/// let lit = |i| Literal::from_dimacs(i).unwrap();
/// assert!(pool.export(0, &[lit(1), lit(-2)], 2));
/// let mut cursor = 0;
/// let mut seen = Vec::new();
/// // Member 1 imports member 0's clause once...
/// pool.import(1, &mut cursor, |lits| seen.push(lits.to_vec()));
/// assert_eq!(seen, vec![vec![lit(1), lit(-2)]]);
/// // ...and never again through the same cursor.
/// assert_eq!(pool.import(1, &mut cursor, |_| unreachable!()), 0);
/// ```
#[derive(Debug)]
pub struct SharedClausePool {
    config: SharingConfig,
    state: Mutex<PoolState>,
    /// Filter rejections take no lock.
    rejected: AtomicU64,
}

/// Everything the pool's one lock guards.
#[derive(Debug, Default)]
struct PoolState {
    /// Resident clauses in ascending epoch order.
    clauses: VecDeque<PooledClause>,
    /// The next publish stamp, which is also the number of clauses ever
    /// accepted; import cursors are compared against it.
    next_epoch: u64,
    evicted: u64,
    imported: u64,
}

impl Default for SharedClausePool {
    fn default() -> Self {
        SharedClausePool::new(SharingConfig::default())
    }
}

impl SharedClausePool {
    /// Creates an empty pool with the given configuration.
    pub fn new(config: SharingConfig) -> Self {
        SharedClausePool {
            config,
            state: Mutex::new(PoolState::default()),
            rejected: AtomicU64::new(0),
        }
    }

    /// The pool's configuration.
    pub fn config(&self) -> &SharingConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Offers a clause to the pool on behalf of `member`. Returns `true` when
    /// the clause passed the length/LBD filter and was published.
    pub fn export(&self, member: usize, literals: &[Literal], lbd: u32) -> bool {
        if literals.is_empty() || literals.len() > self.config.max_len || lbd > self.config.max_lbd
        {
            self.rejected.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let literals = literals.to_vec();
        let mut state = self.lock();
        let epoch = state.next_epoch;
        state.next_epoch += 1;
        state.clauses.push_back(PooledClause {
            epoch,
            source: member,
            literals,
        });
        // Lazy eviction: only an overflowing export trims the pool.
        while state.clauses.len() > self.config.capacity.max(1) {
            state.clauses.pop_front();
            state.evicted += 1;
        }
        true
    }

    /// Delivers every clause published since `*cursor` by members other than
    /// `member`, advancing the cursor. Returns the number of delivered
    /// clauses.
    ///
    /// The scan and the cursor snapshot happen under the lock every export
    /// stamps under, so a clause is delivered to each foreign member exactly
    /// once unless it is evicted first.
    pub fn import(&self, member: usize, cursor: &mut u64, mut sink: impl FnMut(&[Literal])) -> u64 {
        let mut state = self.lock();
        let start = state.clauses.partition_point(|c| c.epoch < *cursor);
        let mut delivered = 0u64;
        for clause in state.clauses.range(start..) {
            if clause.source != member {
                sink(&clause.literals);
                delivered += 1;
            }
        }
        *cursor = state.next_epoch;
        state.imported += delivered;
        delivered
    }

    /// Number of clauses currently resident.
    pub fn len(&self) -> usize {
        self.lock().clauses.len()
    }

    /// `true` when no clause is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime traffic counters.
    pub fn stats(&self) -> PoolStats {
        let state = self.lock();
        PoolStats {
            exported: state.next_epoch,
            rejected: self.rejected.load(Ordering::Relaxed),
            evicted: state.evicted,
            imported: state.imported,
        }
    }
}

/// One member's private handle on a [`SharedClausePool`]: the pool, the
/// member's index (so it never re-imports its own exports) and its epoch
/// cursor (so it imports each foreign clause exactly once).
///
/// Handles are handed to members through
/// [`Solver::attach_share`](crate::Solver::attach_share) before a cooperative
/// solve and detached afterwards.
#[derive(Debug, Clone)]
pub struct ShareHandle {
    pool: Arc<SharedClausePool>,
    member: usize,
    cursor: u64,
}

impl ShareHandle {
    /// Creates a handle for `member` with a fresh cursor (the member will
    /// see every clause already in the pool on its first import).
    pub fn new(pool: Arc<SharedClausePool>, member: usize) -> Self {
        ShareHandle {
            pool,
            member,
            cursor: 0,
        }
    }

    /// The pool's export length cap (lets exporters skip the clone for
    /// clauses that would be rejected anyway).
    pub fn max_len(&self) -> usize {
        self.pool.config().max_len
    }

    /// Exports a clause; returns `true` when the pool accepted it.
    pub fn export(&self, literals: &[Literal], lbd: u32) -> bool {
        self.pool.export(self.member, literals, lbd)
    }

    /// Imports every foreign clause published since the previous import,
    /// returning how many were delivered.
    pub fn import(&mut self, sink: impl FnMut(&[Literal])) -> u64 {
        self.pool.import(self.member, &mut self.cursor, sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn lit(i: i64) -> Literal {
        Literal::from_dimacs(i).expect("nonzero dimacs literal")
    }

    #[test]
    fn export_filter_gates_length_and_lbd() {
        let pool = SharedClausePool::new(SharingConfig::new().with_max_len(2).with_max_lbd(3));
        assert!(pool.export(0, &[lit(1), lit(2)], 2));
        assert!(!pool.export(0, &[lit(1), lit(2), lit(3)], 2), "too long");
        assert!(!pool.export(0, &[lit(1)], 4), "LBD too high");
        assert!(!pool.export(0, &[], 0), "empty clause never shared");
        let stats = pool.stats();
        assert_eq!(stats.exported, 1);
        assert_eq!(stats.rejected, 3);
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn members_never_see_their_own_exports() {
        let pool = SharedClausePool::new(SharingConfig::default());
        pool.export(0, &[lit(1)], 1);
        pool.export(1, &[lit(2)], 1);
        let mut cursor = 0;
        let mut seen = Vec::new();
        assert_eq!(pool.import(0, &mut cursor, |c| seen.push(c.to_vec())), 1);
        assert_eq!(seen, vec![vec![lit(2)]]);
    }

    #[test]
    fn cursor_delivers_each_clause_exactly_once() {
        let pool = SharedClausePool::new(SharingConfig::default());
        pool.export(0, &[lit(1)], 1);
        let mut cursor = 0;
        assert_eq!(pool.import(1, &mut cursor, |_| {}), 1);
        assert_eq!(pool.import(1, &mut cursor, |_| unreachable!()), 0);
        pool.export(0, &[lit(2)], 1);
        let mut fresh = Vec::new();
        assert_eq!(pool.import(1, &mut cursor, |c| fresh.push(c.to_vec())), 1);
        assert_eq!(fresh, vec![vec![lit(2)]]);
    }

    #[test]
    fn capacity_is_bounded_with_oldest_first_eviction() {
        let pool = SharedClausePool::new(SharingConfig::new().with_capacity(4));
        for i in 1..=20 {
            assert!(pool.export(0, &[lit(i)], 1));
        }
        assert_eq!(pool.len(), 4);
        let stats = pool.stats();
        assert_eq!(stats.exported, 20);
        assert_eq!(stats.evicted, 16);
        // Survivors are the most recently exported clauses.
        let mut cursor = 0;
        let mut survivors = Vec::new();
        pool.import(1, &mut cursor, |c| survivors.push(c[0].to_dimacs()));
        assert_eq!(survivors, vec![17, 18, 19, 20]);
    }

    #[test]
    fn contended_rounds_deliver_every_clause_exactly_once() {
        // An import racing the exports must never move its cursor past a
        // clause it has not delivered: after the barrier, the settling
        // import completes every member's set, and no clause arrives twice.
        const MEMBERS: usize = 4;
        const PER_MEMBER: usize = 64;
        for round in 0..100 {
            let pool = Arc::new(SharedClausePool::default());
            let barrier = std::sync::Barrier::new(MEMBERS);
            let seen: Vec<Vec<u32>> = thread::scope(|scope| {
                let handles: Vec<_> = (0..MEMBERS)
                    .map(|member| {
                        let mut handle = ShareHandle::new(Arc::clone(&pool), member);
                        let barrier = &barrier;
                        scope.spawn(move || {
                            let mut seen = vec![0u32; MEMBERS * PER_MEMBER];
                            let mut record = |lits: &[Literal]| {
                                seen[lits[0].to_dimacs() as usize - 1] += 1;
                            };
                            for i in 0..PER_MEMBER {
                                let tag = member * PER_MEMBER + i + 1;
                                assert!(handle.export(&[lit(tag as i64)], 1));
                                handle.import(&mut record);
                            }
                            barrier.wait();
                            handle.import(&mut record);
                            seen
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (member, counts) in seen.iter().enumerate() {
                for (tag, &count) in counts.iter().enumerate() {
                    let expected = u32::from(tag / PER_MEMBER != member);
                    assert_eq!(
                        count,
                        expected,
                        "round {round}: member {member} got clause {} {count} times",
                        tag + 1
                    );
                }
            }
        }
    }

    #[test]
    fn concurrent_export_import_is_consistent() {
        let pool = Arc::new(SharedClausePool::new(
            SharingConfig::new().with_capacity(100_000),
        ));
        const MEMBERS: usize = 4;
        const PER_MEMBER: u64 = 200;
        let barrier = std::sync::Barrier::new(MEMBERS);
        let totals: Vec<u64> = thread::scope(|scope| {
            let handles: Vec<_> = (0..MEMBERS)
                .map(|member| {
                    let pool = Arc::clone(&pool);
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut handle = ShareHandle::new(pool, member);
                        let mut imported = 0u64;
                        for i in 0..PER_MEMBER {
                            let l = lit((member as i64 * PER_MEMBER as i64) + i as i64 + 1);
                            assert!(handle.export(&[l], 1));
                            imported += handle.import(|_| {});
                        }
                        // All exports land before the settling import, so the
                        // totals below are exact.
                        barrier.wait();
                        imported + handle.import(|_| {})
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        // Nothing evicted at this capacity: every member eventually imports
        // every other member's clauses, exactly once each.
        let expected_per_member = (MEMBERS as u64 - 1) * PER_MEMBER;
        for (member, &total) in totals.iter().enumerate() {
            assert_eq!(total, expected_per_member, "member {member}");
        }
        let stats = pool.stats();
        assert_eq!(stats.exported, MEMBERS as u64 * PER_MEMBER);
        assert_eq!(stats.evicted, 0);
        assert_eq!(stats.imported, MEMBERS as u64 * expected_per_member);
    }

    #[test]
    fn racing_only_is_the_documented_opt_out() {
        let config = SharingConfig::racing_only();
        assert!(!config.enabled);
        assert!(SharingConfig::default().enabled);
        assert_eq!(config.max_len, DEFAULT_MAX_SHARED_LEN);
    }
}
