//! Lock-conflict models.
//!
//! The paper (§2, "The computation of lock conflicts") never materializes
//! lock sets. Instead, with active transactions `T_1 … T_k` holding
//! `L_1 … L_k` locks out of `ltot`, the unit interval is partitioned as
//!
//! ```text
//! P_1 = (0, L_1/ltot],  P_2 = (L_1/ltot, (L_1+L_2)/ltot],  …,
//! P_{k+1} = (Σ L_j / ltot, 1]
//! ```
//!
//! and a uniform draw `p` decides: landing in `P_j` (`j ≤ k`) blocks the
//! requester **on `T_j`**, who will wake it at completion; landing in the
//! remainder admits it. [`ProbabilisticConflict`] implements exactly this.
//!
//! The [`ConcurrencyControl`] trait abstracts the whole protocol seam —
//! declared-access registration, admission, release/wake lists, protocol
//! statistics — so the same system model can also run against a real lock
//! table: [`crate::locking::LockingCC`], whose presets are a flat
//! conservative table, a multigranularity hierarchy with intention locks
//! and escalation, and incremental two-phase locking. Comparing them with
//! the partition draw quantifies the quality of the approximation.
//!
//! ## Hot-path notes
//!
//! `try_acquire` runs once per lock attempt — the single hottest call in
//! the simulator. The naive implementation recomputes the partition
//! (`k` divisions and `k` additions) on **every** attempt even though the
//! active set only changes at admissions and completions. This module
//! instead caches, per active transaction, the fraction `L_j/ltot`
//! (one division at admission) and the running left-to-right prefix sums,
//! so an attempt is a pure read-only scan.
//!
//! The cache is maintained so that every stored float is produced by the
//! *identical sequence of operations* the naive loop would have executed:
//! fractions are computed by the same `L_j as f64 / ltot as f64` division
//! (never a reciprocal multiplication, whose rounding differs), and after
//! a removal the prefix is recomputed from the removal point onward by
//! the same left-to-right additions. Outputs are therefore bit-identical
//! to the pre-cache implementation — the Table 1 golden snapshot does not
//! move.
//!
//! Waiter lists are embedded directly in the active entries (the blocker's
//! index is already in hand when the partition draw lands on it), so
//! blocking a transaction is an O(1) push into a recycled `Vec` — no
//! keyed map, no per-block node allocation in steady state.

use lockgran_sim::SimRng;
use lockgran_workload::{access, HotSpot, Placement};

use crate::config::{ConflictMode, ModelConfig};

/// A transaction's key in conflict calls: the system model passes its
/// slab slot, which is dense in [0, min(`ntrans`, `mpl_limit`)) and
/// reused once the transaction completes. Lock-table models keep their
/// per-transaction records in a vector indexed by it.
pub type TxnSerial = u64;

/// Outcome of an admission attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[must_use = "a dropped decision can be neither released nor observed as a denial"]
pub enum ConflictDecision {
    /// All locks granted; the transaction becomes active.
    Granted,
    /// Blocked; the named active transaction will wake it on completion.
    BlockedBy(TxnSerial),
    /// The requester itself was aborted as a deadlock victim during this
    /// attempt (incremental 2PL only): its partial locks were released
    /// and it must replay its lock phase from scratch. Conservative
    /// protocols never return this — predeclared locking cannot
    /// deadlock.
    Aborted,
}

/// Protocol statistics a [`ConcurrencyControl`] implementation
/// accumulates over a run. Flat protocols (probabilistic, explicit)
/// report zeros.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcStats {
    /// Lock escalations performed: a coarse (area or database) lock was
    /// substituted for a group of fine granule locks.
    pub escalations: u64,
    /// Intention locks (IS/IX) granted on non-leaf hierarchy nodes.
    pub intent_locks: u64,
    /// Deadlock victims aborted (incremental 2PL only; each broken
    /// waits-for cycle aborts exactly one victim, so this is also the
    /// number of cycles broken).
    pub deadlocks: u64,
}

/// How a protocol materializes a transaction's declared granule set
/// (everything [`ConcurrencyControl::register_access`] needs from the
/// configuration).
#[derive(Clone, Copy, Debug)]
pub struct AccessSampler {
    /// Placement model (determines set size and shape).
    pub placement: Placement,
    /// Number of granule locks in the system.
    pub ltot: u64,
    /// Database size in entities.
    pub dbsize: u64,
    /// Optional hot-spot access skew.
    pub hot_spot: Option<HotSpot>,
    /// A bound on the largest set the configuration can draw (exact
    /// under best and worst placement), saturated to 32 bits: no set
    /// that fits in memory is larger. 32 bits keep the sampler, and the
    /// lock-table engine that holds it, at their size, and with them the
    /// set-up allocations `tests/steady_state_alloc.rs` pins.
    pub(crate) max_locks: u32,
}

impl AccessSampler {
    /// The sampler a configuration implies.
    pub fn from_config(cfg: &ModelConfig) -> Self {
        // Every placement locks more granules for a larger transaction,
        // so the largest size draws the largest set. Random placement
        // locks Yao's expectation, which never exceeds min(size, ltot);
        // that bound spares set-up the expectation's O(size) product.
        let largest = cfg.size.max();
        let max_locks = match cfg.placement {
            Placement::Random => largest.min(cfg.ltot),
            Placement::Best | Placement::Worst => {
                cfg.placement.locks_required(largest, cfg.ltot, cfg.dbsize)
            }
        };
        AccessSampler {
            placement: cfg.placement,
            ltot: cfg.ltot,
            dbsize: cfg.dbsize,
            hot_spot: cfg.hot_spot,
            max_locks: u32::try_from(max_locks).unwrap_or(u32::MAX),
        }
    }

    /// Sample the declared granule set of a transaction touching
    /// `entities` entities into `out` (replacing its contents). Identical
    /// draw sequence to the pre-trait system model: plain or hot-spot
    /// sampling, from the caller's access stream only. A buffer gets room
    /// for the largest set the configuration can draw at its first use,
    /// so it never grows later in a run.
    pub fn sample_into(&self, rng: &mut SimRng, entities: u64, out: &mut Vec<u64>) {
        out.clear();
        out.reserve(self.max_locks as usize);
        match self.hot_spot {
            None => access::sample_granules_into(
                rng,
                self.placement,
                entities,
                self.ltot,
                self.dbsize,
                out,
            ),
            Some(skew) => access::sample_granules_hot_into(
                rng,
                self.placement,
                entities,
                self.ltot,
                self.dbsize,
                skew,
                out,
            ),
        }
    }
}

/// A pluggable concurrency-control protocol.
///
/// The contract mirrors the paper's protocol:
/// * `register_access` is called exactly once per transaction, when it
///   is admitted (it leaves the pending queue): the protocol
///   materializes whatever declared-access state it needs (a concrete
///   granule set for lock-table protocols; nothing for the
///   probabilistic draw). It may draw only from the passed access stream.
/// * `try_acquire` is called once per **attempt** (first request and every
///   retry after a wake-up); it either admits the transaction or records
///   it as blocked on a specific active transaction.
/// * `release` is called exactly once when an *active* transaction
///   completes; it appends every transaction blocked on it, in wake
///   order, to a caller-provided buffer (reused across completions so the
///   per-release allocation disappears from the hot loop).
/// * `stats` reports cumulative protocol counters (escalations,
///   intention locks) for the run metrics.
pub trait ConcurrencyControl {
    /// Materialize the declared access set of a freshly admitted
    /// transaction touching `entities` entities into `granules`
    /// (replacing its contents). The default clears the set — the
    /// protocol needs no concrete granules.
    fn register_access(&mut self, rng: &mut SimRng, entities: u64, granules: &mut Vec<u64>) {
        let _ = (rng, entities);
        granules.clear();
    }

    /// Attempt to admit `txn`, which needs `locks` locks over the granule
    /// set `granules` (lock-table models use the set; the probabilistic
    /// model uses only the count).
    fn try_acquire(
        &mut self,
        txn: TxnSerial,
        locks: u64,
        granules: &[u64],
        rng: &mut SimRng,
    ) -> ConflictDecision;

    /// Release `txn`'s locks; appends the transactions it was blocking,
    /// in wake order, to `woken` (which the caller clears and reuses).
    fn release(&mut self, txn: TxnSerial, woken: &mut Vec<TxnSerial>);

    /// Drain the side effects of deadlock resolution performed inside the
    /// most recent `try_acquire` call(s): transactions aborted as victims
    /// (they must replay their lock phase) are appended to `aborted`, and
    /// queued transactions granted by the victims' lock releases are
    /// appended to `woken`. Every transaction named here was blocked from
    /// the caller's point of view. The default is a no-op — conservative
    /// protocols never deadlock, so they have no effects to report.
    fn drain_deadlock_effects(&mut self, aborted: &mut Vec<TxnSerial>, woken: &mut Vec<TxnSerial>) {
        let _ = (aborted, woken);
    }

    /// Number of currently active (lock-holding) transactions.
    fn active_count(&self) -> usize;

    /// Cumulative protocol statistics. The default reports zeros.
    fn stats(&self) -> CcStats {
        CcStats::default()
    }

    /// Re-initialize this protocol in place for a fresh run under `cfg`,
    /// retaining grown storage (waiter pools, lock-table node maps) where
    /// the implementation can prove the reuse is invisible to the run.
    /// Returns `false` when the instance cannot serve `cfg` (most simply:
    /// `cfg` selects a different protocol) — the caller then rebuilds via
    /// [`build_concurrency_control`]. The contract is reset-equals-fresh:
    /// after a `true` return the instance must be observationally
    /// indistinguishable, draw for draw, from a newly built protocol. The
    /// default declines, forcing a rebuild.
    fn reset(&mut self, cfg: &ModelConfig) -> bool {
        let _ = cfg;
        false
    }
}

/// Build the concurrency-control protocol a configuration selects: the
/// paper's partition draw, or the lock-table engine preset for the mode.
///
/// # Panics
/// Panics if `cfg.ltot == 0` (validated configurations never are).
pub fn build_concurrency_control(cfg: &ModelConfig) -> Box<dyn ConcurrencyControl> {
    match cfg.conflict {
        ConflictMode::Probabilistic => Box::new(ProbabilisticConflict::new(cfg.ltot)),
        ConflictMode::Explicit | ConflictMode::Hierarchical | ConflictMode::Twophase => {
            Box::new(crate::locking::LockingCC::new(cfg))
        }
    }
}

/// One lock-holding transaction: its key and the FIFO list of
/// transactions blocked on it.
#[derive(Clone, Debug)]
struct Holder {
    txn: TxnSerial,
    /// Transactions blocked on this holder, in block order. The backing
    /// `Vec` is recycled through the spare pool when the holder releases.
    waiters: Vec<TxnSerial>,
}

/// The paper's probabilistic Ries–Stonebraker conflict computation.
#[derive(Clone, Debug)]
pub struct ProbabilisticConflict {
    ltot: u64,
    /// Active transactions in admission order.
    active: Vec<Holder>,
    /// `fracs[i] = active[i].locks as f64 / ltot as f64`, computed once at
    /// admission (see module docs on bit-identity).
    fracs: Vec<f64>,
    /// `prefix[i]` = left-to-right sum of `fracs[0..=i]`, exactly the
    /// value the naive per-attempt loop reaches after holder `i`.
    prefix: Vec<f64>,
    /// Retired waiter vectors, recycled so blocking never allocates in
    /// steady state.
    spare: Vec<Vec<TxnSerial>>,
}

impl ProbabilisticConflict {
    /// Create for a system with `ltot` locks.
    ///
    /// # Panics
    /// Panics if `ltot == 0`.
    pub fn new(ltot: u64) -> Self {
        assert!(ltot > 0, "ltot must be positive");
        ProbabilisticConflict {
            ltot,
            active: Vec::new(),
            fracs: Vec::new(),
            prefix: Vec::new(),
            spare: Vec::new(),
        }
    }
}

impl ConcurrencyControl for ProbabilisticConflict {
    // `register_access` keeps the default: the partition draw never
    // materializes granule sets (and draws nothing from the access
    // stream, preserving bit-identical goldens).

    fn try_acquire(
        &mut self,
        txn: TxnSerial,
        locks: u64,
        _granules: &[u64],
        rng: &mut SimRng,
    ) -> ConflictDecision {
        debug_assert!(
            !self.active.iter().any(|h| h.txn == txn),
            "transaction {txn} acquired twice"
        );
        // Draw p ~ U(0,1); the cached prefix IS the partition
        // (0, L1/ltot], (L1/ltot, (L1+L2)/ltot], … — no arithmetic here.
        let p = rng.uniform01();
        for (i, &cum) in self.prefix.iter().enumerate() {
            if p < cum {
                // The blocker's index is in hand: attach the waiter right
                // here, O(1), into the holder's own (recycled) list.
                let holder = &mut self.active[i];
                if holder.waiters.capacity() == 0 {
                    if let Some(recycled) = self.spare.pop() {
                        holder.waiters = recycled;
                    }
                }
                holder.waiters.push(txn);
                return ConflictDecision::BlockedBy(holder.txn);
            }
        }
        // Admitted: extend the partition. One division per admission —
        // the same `held / ltot` the naive loop performed per attempt.
        let frac = locks as f64 / self.ltot as f64;
        let cum = self.prefix.last().copied().unwrap_or(0.0) + frac;
        self.active.push(Holder {
            txn,
            waiters: self.spare.pop().unwrap_or_default(),
        });
        self.fracs.push(frac);
        self.prefix.push(cum);
        ConflictDecision::Granted
    }

    fn release(&mut self, txn: TxnSerial, woken: &mut Vec<TxnSerial>) {
        let pos = self
            .active
            .iter()
            .position(|h| h.txn == txn)
            .unwrap_or_else(|| panic!("release of inactive transaction {txn}"));
        let mut holder = self.active.remove(pos);
        self.fracs.remove(pos);
        // Rebuild the prefix from the removal point with the same
        // left-to-right additions the naive loop would now perform.
        self.prefix.truncate(pos);
        let mut cum = if pos == 0 { 0.0 } else { self.prefix[pos - 1] };
        for &f in &self.fracs[pos..] {
            cum += f;
            self.prefix.push(cum);
        }
        woken.append(&mut holder.waiters);
        self.spare.push(holder.waiters);
    }

    fn active_count(&self) -> usize {
        self.active.len()
    }

    fn reset(&mut self, cfg: &ModelConfig) -> bool {
        if cfg.conflict != ConflictMode::Probabilistic {
            return false;
        }
        self.ltot = cfg.ltot;
        // Park every in-flight holder's waiter list back in the spare
        // pool; an empty recycled Vec behaves identically to a fresh one,
        // so the retained capacity is invisible to the next run.
        for mut holder in self.active.drain(..) {
            holder.waiters.clear();
            self.spare.push(holder.waiters);
        }
        self.fracs.clear();
        self.prefix.clear();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::new(0xC0FFEE)
    }

    /// Collect a release's wake list (test convenience).
    fn release_vec(m: &mut impl ConcurrencyControl, txn: TxnSerial) -> Vec<TxnSerial> {
        let mut woken = Vec::new();
        m.release(txn, &mut woken);
        woken
    }

    #[test]
    fn empty_system_always_admits() {
        let mut m = ProbabilisticConflict::new(100);
        let mut r = rng();
        assert_eq!(m.try_acquire(1, 10, &[], &mut r), ConflictDecision::Granted);
        assert_eq!(m.active_count(), 1);
        assert_eq!(m.prefix, vec![0.1]);
    }

    #[test]
    fn default_register_access_clears_and_stats_are_zero() {
        let mut m = ProbabilisticConflict::new(100);
        let mut r = rng();
        let mut granules = vec![1, 2, 3];
        m.register_access(&mut r, 10, &mut granules);
        assert!(granules.is_empty(), "probabilistic mode holds no sets");
        assert_eq!(m.stats(), CcStats::default());
    }

    #[test]
    fn factory_builds_every_mode() {
        use crate::config::ModelConfig;
        for mode in ConflictMode::ALL {
            let cfg = ModelConfig::table1().with_conflict(mode);
            let cc = build_concurrency_control(&cfg);
            assert_eq!(cc.active_count(), 0);
            assert_eq!(cc.stats(), CcStats::default());
        }
    }

    #[test]
    fn whole_database_lock_serializes() {
        // ltot = 1: the single active holder owns the full interval, so
        // every other attempt blocks on it.
        let mut m = ProbabilisticConflict::new(1);
        let mut r = rng();
        assert_eq!(m.try_acquire(1, 1, &[], &mut r), ConflictDecision::Granted);
        for t in 2..20 {
            assert_eq!(
                m.try_acquire(t, 1, &[], &mut r),
                ConflictDecision::BlockedBy(1)
            );
        }
        let woken = release_vec(&mut m, 1);
        assert_eq!(woken, (2..20).collect::<Vec<_>>());
        assert_eq!(m.active_count(), 0);
        assert!(m.prefix.is_empty());
    }

    #[test]
    fn blocking_probability_matches_lock_fraction() {
        // One active holder with L = 25 of ltot = 100: a requester blocks
        // with probability 0.25.
        let mut r = rng();
        let n = 50_000;
        let mut blocked = 0;
        for i in 0..n {
            let mut m = ProbabilisticConflict::new(100);
            let _ = m.try_acquire(0, 25, &[], &mut r);
            if let ConflictDecision::BlockedBy(_) = m.try_acquire(i + 1, 10, &[], &mut r) {
                blocked += 1;
            }
        }
        let frac = blocked as f64 / n as f64;
        assert!((frac - 0.25).abs() < 0.01, "blocking fraction {frac}");
    }

    #[test]
    fn blocker_chosen_proportional_to_locks() {
        // Holders with 10 and 40 locks of 100: conditional on blocking,
        // the second blocker is chosen 4x as often.
        let mut r = rng();
        let mut by_first = 0u32;
        let mut by_second = 0u32;
        for i in 0..100_000u64 {
            let mut m = ProbabilisticConflict::new(100);
            let _ = m.try_acquire(1, 10, &[], &mut r);
            let _ = m.try_acquire(2, 40, &[], &mut r); // may block; force state
            if m.active_count() < 2 {
                continue; // txn 2 happened to block; skip this trial
            }
            match m.try_acquire(100 + i, 5, &[], &mut r) {
                ConflictDecision::BlockedBy(1) => by_first += 1,
                ConflictDecision::BlockedBy(2) => by_second += 1,
                _ => {}
            }
        }
        let ratio = by_second as f64 / by_first as f64;
        assert!((ratio - 4.0).abs() < 0.4, "blocker ratio {ratio}");
    }

    #[test]
    fn oversubscribed_interval_always_blocks() {
        // Active lock fractions can exceed 1 (the last admit slipped in
        // under the wire); then every attempt must block. Built purely
        // through the public API: fresh serials retry until one draw
        // lands in the remainder (p > 0.6 happens quickly), exactly how
        // the system model retries after a wake-up. The blocked attempts
        // occupy no interval, so they cannot influence later draws.
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(10);
        assert_eq!(m.try_acquire(1, 6, &[], &mut r), ConflictDecision::Granted);
        let second = (2..1000)
            .find(|&t| m.try_acquire(t, 6, &[], &mut r) == ConflictDecision::Granted)
            .expect("no admission in 1000 draws with p(admit) = 0.4");
        assert_eq!(m.active_count(), 2);
        assert!(m.prefix[1] > 1.0, "oversubscribed: 12 locks > ltot");
        for t in 1000..1200 {
            assert!(matches!(
                m.try_acquire(t, 1, &[], &mut r),
                ConflictDecision::BlockedBy(b) if b == 1 || b == second
            ));
        }
    }

    #[test]
    fn draining_all_holders_returns_to_empty() {
        // Admit a batch (retrying blocked serials as the system would),
        // then release every holder: the model must return exactly to the
        // empty state — zero locks held, zero active, every waiter woken.
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(50);
        let mut serial = 0u64;
        let mut holders = Vec::new();
        while holders.len() < 8 {
            serial += 1;
            if m.try_acquire(serial, 5, &[], &mut r) == ConflictDecision::Granted {
                holders.push(serial);
            }
        }
        let held = m.prefix.last().copied().unwrap_or(0.0);
        assert!((held - 40.0 / 50.0).abs() < 1e-12, "holders cover {held}");
        let blocked_count = serial - 8;
        let mut woken = Vec::new();
        for h in holders {
            m.release(h, &mut woken);
        }
        assert_eq!(m.active_count(), 0);
        assert!(m.prefix.is_empty());
        assert_eq!(woken.len() as u64, blocked_count, "some waiters never woke");
    }

    #[test]
    fn release_returns_waiters_in_fifo_order() {
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(1);
        let _ = m.try_acquire(7, 1, &[], &mut r);
        for t in [3, 9, 4] {
            let _ = m.try_acquire(t, 1, &[], &mut r);
        }
        assert_eq!(release_vec(&mut m, 7), vec![3, 9, 4]);
    }

    #[test]
    fn release_appends_without_clearing() {
        // The caller owns the buffer; release must append, not replace.
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(1);
        let _ = m.try_acquire(1, 1, &[], &mut r);
        let _ = m.try_acquire(2, 1, &[], &mut r);
        let mut woken = vec![99];
        m.release(1, &mut woken);
        assert_eq!(woken, vec![99, 2]);
    }

    #[test]
    #[should_panic(expected = "release of inactive")]
    fn release_of_unknown_txn_panics() {
        let mut m = ProbabilisticConflict::new(10);
        m.release(42, &mut Vec::new());
    }

    #[test]
    fn zero_lock_transaction_never_blocks_others() {
        // A degenerate transaction holding 0 locks occupies no interval.
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(100);
        assert_eq!(m.try_acquire(1, 0, &[], &mut r), ConflictDecision::Granted);
        for t in 2..100 {
            assert_eq!(m.try_acquire(t, 0, &[], &mut r), ConflictDecision::Granted);
        }
        assert_eq!(m.active_count(), 99);
    }

    #[test]
    fn prefix_cache_matches_naive_partition_bitwise() {
        // Drive a random admit/release history and check, at every step,
        // that the cached prefix equals the naive left-to-right
        // recomputation bit for bit (the golden-snapshot guarantee).
        let mut r = rng();
        let mut m = ProbabilisticConflict::new(137);
        let mut serial = 0u64;
        let mut woken = Vec::new();
        // Lock count of every admitted serial (the naive loop's input).
        let mut locks_of = std::collections::BTreeMap::new();
        for step in 0..2_000u32 {
            serial += 1;
            let locks = u64::from(step % 9) + 1;
            if m.try_acquire(serial, locks, &[], &mut r) == ConflictDecision::Granted {
                locks_of.insert(serial, locks);
            }
            if step % 5 == 4 && m.active_count() > 1 {
                // Remove from the middle to exercise the rebuild path.
                let victim = m.active[m.active.len() / 2].txn;
                woken.clear();
                m.release(victim, &mut woken);
                // Woken transactions vanish from this toy history.
            }
            let mut cum = 0.0f64;
            for (i, h) in m.active.iter().enumerate() {
                cum += locks_of[&h.txn] as f64 / 137.0;
                assert_eq!(
                    cum.to_bits(),
                    m.prefix[i].to_bits(),
                    "prefix diverged at step {step}, holder {i}"
                );
            }
        }
    }
}
