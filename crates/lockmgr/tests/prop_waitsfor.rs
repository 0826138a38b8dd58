//! Differential property test: the pooled [`WaitsForGraph`] against a
//! naive ordered-map reference graph.
//!
//! The graph names transactions by slot and orders them by the age each
//! slot is seated with; the reference knows only ages. It keeps each
//! waiter's holders in a `BTreeSet` of ages and searches by a recursive
//! DFS that visits neighbours in ascending age with grey and black sets —
//! the textbook detector. Seeded random sequences of the operations the
//! 2PL scheduler uses (whole-blocker-set insertion, `remove_outgoing`,
//! `remove_txn`, `end`, `find_cycle_from`) drive both graphs in lockstep, and
//! after every operation each transaction's cycle slice, `waits_on` order
//! and has-waiters answer must match, translated through the slots' ages.
//! The cycle slice decides which transaction the scheduler aborts, so
//! this pins victim choice, not only cycle existence. Most shapes age
//! each slot by its number; the aged shape seats random distinct ages
//! and draws a new one whenever a slot is reused.

use std::collections::{BTreeMap, BTreeSet};

use lockgran_lockmgr::{TxnId, WaitsForGraph};
use lockgran_sim::SimRng;

/// Number of seeds per shape. The quick profile (`QUICK_PROP=1`, set by
/// `scripts/verify.sh`'s early differential step) trims the seed count.
fn seeds() -> u64 {
    if std::env::var_os("QUICK_PROP").is_some() {
        4
    } else {
        24
    }
}

/// The executable specification, over ages: waiter → ascending holder
/// set.
#[derive(Default)]
struct Reference {
    out: BTreeMap<u64, BTreeSet<u64>>,
}

impl Reference {
    fn add_waits(&mut self, waiter: u64, holders: &[u64]) {
        let holders: BTreeSet<u64> = holders.iter().copied().filter(|&h| h != waiter).collect();
        if !holders.is_empty() {
            self.out.entry(waiter).or_default().extend(holders);
        }
    }

    fn remove_outgoing(&mut self, txn: u64) {
        self.out.remove(&txn);
    }

    fn remove_txn(&mut self, txn: u64) {
        self.out.remove(&txn);
        for holders in self.out.values_mut() {
            holders.remove(&txn);
        }
    }

    fn waits_on(&self, txn: u64) -> Vec<u64> {
        self.out
            .get(&txn)
            .map_or_else(Vec::new, |h| h.iter().copied().collect())
    }

    fn has_waiters(&self, txn: u64) -> bool {
        self.out.values().any(|h| h.contains(&txn))
    }

    fn find_cycle_from(&self, start: u64) -> Option<Vec<u64>> {
        let (mut grey, mut black, mut path) = (BTreeSet::new(), BTreeSet::new(), Vec::new());
        self.dfs(start, &mut grey, &mut black, &mut path)
    }

    fn dfs(
        &self,
        node: u64,
        grey: &mut BTreeSet<u64>,
        black: &mut BTreeSet<u64>,
        path: &mut Vec<u64>,
    ) -> Option<Vec<u64>> {
        grey.insert(node);
        path.push(node);
        for &next in self.out.get(&node).into_iter().flatten() {
            if grey.contains(&next) {
                let pos = path.iter().position(|&t| t == next)?;
                return Some(path[pos..].to_vec());
            }
            if !black.contains(&next) {
                if let Some(cycle) = self.dfs(next, grey, black, path) {
                    return Some(cycle);
                }
            }
        }
        grey.remove(&node);
        black.insert(node);
        path.pop();
        None
    }
}

/// What a run exercised, so a shape that stops reaching a case fails.
#[derive(Default)]
struct Coverage {
    /// Cycles found from a start that is not on the cycle.
    behind_tail: u64,
    /// Starts with outgoing edges that nobody waits on.
    unwaited_starts: u64,
    /// Victims aborted by the scheduler-shaped loop.
    victims: u64,
    /// Slots reseated with a new age.
    reseated: u64,
}

/// Both graphs side by side.
struct Pair {
    real: WaitsForGraph,
    spec: Reference,
    /// Each slot's current age.
    ages: Vec<u64>,
    /// Where new ages come from, in the aged shape; `None` ages each slot
    /// by its number for good.
    age_rng: Option<SimRng>,
}

impl Pair {
    /// `txns` slots, aged by number or, given `age_rng`, at random.
    fn new(txns: u64, age_rng: Option<SimRng>) -> Self {
        let mut pair = Self {
            real: WaitsForGraph::new(),
            spec: Reference::default(),
            ages: (0..txns).collect(),
            age_rng,
        };
        for t in 0..txns {
            pair.seat(t);
        }
        pair
    }

    /// Seat slot `t`: with a fresh age distinct from every slot's in the
    /// aged shape, with its number otherwise.
    fn seat(&mut self, t: u64) {
        if let Some(rng) = &mut self.age_rng {
            let mut age = rng.next_u64() >> 40;
            while self.ages.contains(&age) {
                age = rng.next_u64() >> 40;
            }
            self.ages[t as usize] = age;
        }
        self.real.begin(TxnId(t), self.ages[t as usize]);
    }

    fn age(&self, t: u64) -> u64 {
        self.ages[t as usize]
    }

    /// The slot seated with `age`.
    fn slot(&self, age: u64) -> u64 {
        let slot = self.ages.iter().position(|&a| a == age);
        slot.expect("every age the reference names is a seated slot's") as u64
    }

    fn add_waits(&mut self, waiter: u64, holders: &[u64]) {
        let ids: Vec<TxnId> = holders.iter().map(|&h| TxnId(h)).collect();
        self.real.add_waits(TxnId(waiter), &ids);
        let ages: Vec<u64> = holders.iter().map(|&h| self.age(h)).collect();
        self.spec.add_waits(self.age(waiter), &ages);
    }

    fn remove_outgoing(&mut self, txn: u64) {
        self.real.remove_outgoing(TxnId(txn));
        self.spec.remove_outgoing(self.age(txn));
    }

    /// `txn` aborts, keeping its slot and age, or commits (`reuse`), and
    /// a new transaction is seated in its slot.
    fn remove_txn(&mut self, txn: u64, reuse: bool, cov: &mut Coverage) {
        self.spec.remove_txn(self.age(txn));
        if reuse {
            self.real.end(TxnId(txn));
            assert_eq!(self.real.age(TxnId(txn)), None);
            self.seat(txn);
            cov.reseated += u64::from(self.age_rng.is_some());
        } else {
            self.real.remove_txn(TxnId(txn));
        }
    }

    /// Compare one start's cycle search and victim; returns the cycle's
    /// slots.
    fn cycle_from(&mut self, start: u64, ctx: &str) -> Option<Vec<u64>> {
        let want = self.spec.find_cycle_from(self.age(start));
        let got = self.real.find_cycle_from(TxnId(start)).map(|c| {
            c.iter()
                .map(|t| self.ages[t.0 as usize])
                .collect::<Vec<_>>()
        });
        assert_eq!(got, want, "{ctx}: cycle from {start} diverged");
        let victim = want
            .as_ref()
            .and_then(|c| c.iter().max())
            .map(|&a| self.slot(a));
        assert_eq!(
            self.real.victim_from(TxnId(start)).map(|t| t.0),
            victim,
            "{ctx}: victim from {start} diverged"
        );
        want.map(|c| c.iter().map(|&a| self.slot(a)).collect())
    }

    /// Compare every observable of every transaction.
    fn audit(&mut self, ctx: &str, cov: &mut Coverage) {
        for t in 0..self.ages.len() as u64 {
            assert_eq!(self.real.age(TxnId(t)), Some(self.age(t)), "{ctx}");
            let waits: Vec<u64> = self
                .real
                .waits_on(TxnId(t))
                .map(|h| self.age(h.0))
                .collect();
            assert_eq!(
                waits,
                self.spec.waits_on(self.age(t)),
                "{ctx}: waits_on({t}) diverged"
            );
            let waited = self.spec.has_waiters(self.age(t));
            assert_eq!(
                self.real.has_waiters(TxnId(t)),
                waited,
                "{ctx}: has_waiters({t}) diverged"
            );
            if !waited && !waits.is_empty() {
                cov.unwaited_starts += 1;
            }
            if let Some(cycle) = self.cycle_from(t, ctx) {
                if !cycle.contains(&t) {
                    cov.behind_tail += 1;
                }
            }
        }
    }
}

/// A random blocker set: up to `max` ids, duplicates and the waiter
/// itself included now and then.
fn blocker_set(rng: &mut SimRng, txns: u64, max: u64) -> Vec<u64> {
    let k = rng.uniform_inclusive(0, max);
    (0..k).map(|_| rng.uniform_inclusive(0, txns - 1)).collect()
}

/// The ages of a shape: by slot number, or random from `seed`.
fn age_rng(aged: bool, seed: u64) -> Option<SimRng> {
    aged.then(|| SimRng::new(0x3AF7).split("ages").split_index(seed))
}

/// Free-form sequences: cycles may stand across steps, so searches start
/// on cycles, behind them and beside them.
fn drive_free(seed: u64, txns: u64, ops: usize, aged: bool) -> Coverage {
    let mut rng = SimRng::new(0x3AF7).split("free").split_index(seed);
    let mut pair = Pair::new(txns, age_rng(aged, seed));
    let mut cov = Coverage::default();
    for step in 0..ops {
        let txn = rng.uniform_inclusive(0, txns - 1);
        let ctx = format!("free seed {seed} step {step}");
        match rng.uniform_inclusive(0, 9) {
            0..=5 => {
                let holders = blocker_set(&mut rng, txns, 4);
                pair.add_waits(txn, &holders);
            }
            6 => pair.remove_outgoing(txn),
            7 => pair.remove_txn(txn, false, &mut cov),
            8 => pair.remove_txn(txn, true, &mut cov),
            _ => {
                pair.cycle_from(txn, &ctx);
            }
        }
        pair.audit(&ctx, &mut cov);
    }
    cov
}

/// Scheduler-shaped sequences: a transaction that is not waiting starts
/// a wait on a blocker set, every cycle through it is broken by removing
/// its youngest member (which keeps its slot and age), and waits end by
/// grant (`remove_outgoing`) or by commit (`end`, and the slot is
/// reused). The graph must be acyclic after every step, and a new waiter
/// nobody waits on must never close a cycle.
fn drive_scheduler(seed: u64, txns: u64, ops: usize, aged: bool) -> Coverage {
    let mut rng = SimRng::new(0x3AF7).split("scheduler").split_index(seed);
    let mut pair = Pair::new(txns, age_rng(aged, seed));
    let mut cov = Coverage::default();
    for step in 0..ops {
        let txn = rng.uniform_inclusive(0, txns - 1);
        let ctx = format!("scheduler seed {seed} step {step}");
        let waiting = pair.real.waits_on(TxnId(txn)).next().is_some();
        match rng.uniform_inclusive(0, 9) {
            0..=5 if !waiting => {
                let holders = blocker_set(&mut rng, txns, 6);
                pair.add_waits(txn, &holders);
                if !pair.spec.has_waiters(pair.age(txn)) {
                    assert!(!pair.real.has_waiters(TxnId(txn)), "{ctx}");
                    assert_eq!(pair.cycle_from(txn, &ctx), None, "{ctx}");
                }
                while let Some(cycle) = pair.cycle_from(txn, &ctx) {
                    let victim = cycle.iter().copied().max_by_key(|&t| pair.age(t));
                    pair.remove_txn(victim.unwrap_or(txn), false, &mut cov);
                    cov.victims += 1;
                }
            }
            0..=5 => {}
            6..=7 => pair.remove_outgoing(txn),
            _ => pair.remove_txn(txn, true, &mut cov),
        }
        for t in 0..txns {
            assert_eq!(
                pair.spec.find_cycle_from(pair.age(t)),
                None,
                "{ctx}: cycle left standing"
            );
        }
        pair.audit(&ctx, &mut cov);
    }
    cov
}

/// Dense graphs over few transactions: long cycles, many tails.
#[test]
fn differential_free_form_dense() {
    let mut cov = Coverage::default();
    for seed in 0..seeds() {
        let c = drive_free(seed, 8, 400, false);
        cov.behind_tail += c.behind_tail;
        cov.unwaited_starts += c.unwaited_starts;
    }
    assert!(cov.behind_tail > 0, "no cycle behind a tail was searched");
    assert!(
        cov.unwaited_starts > 0,
        "no start without waiters was searched"
    );
}

/// Sparse graphs over more transactions: slots and edges recycle
/// through the free lists as transactions come and go.
#[test]
fn differential_free_form_sparse() {
    let mut cov = Coverage::default();
    for seed in 0..seeds() {
        let c = drive_free(seed, 40, 600, false);
        cov.behind_tail += c.behind_tail;
        cov.unwaited_starts += c.unwaited_starts;
    }
    assert!(cov.behind_tail > 0, "no cycle behind a tail was searched");
    assert!(
        cov.unwaited_starts > 0,
        "no start without waiters was searched"
    );
}

/// The scheduler's own discipline: acyclic between waits, victims by
/// youngest-on-cycle, and the no-waiter shortcut never missing a cycle.
#[test]
fn differential_scheduler_shaped() {
    let mut cov = Coverage::default();
    for seed in 0..seeds() {
        let c = drive_scheduler(seed, 12, 600, false);
        cov.victims += c.victims;
        cov.unwaited_starts += c.unwaited_starts;
    }
    assert!(cov.victims > 0, "no cycle was ever closed");
    assert!(
        cov.unwaited_starts > 0,
        "no waiter without waiters was seen"
    );
}

/// Slots aged at random, with a new age whenever a slot is reused: the
/// out-list order, the cycle each search reports and the victim follow
/// the ages, not the slot numbers.
#[test]
fn differential_aged_slots() {
    let mut cov = Coverage::default();
    for seed in 0..seeds() {
        for c in [
            drive_free(seed, 10, 400, true),
            drive_scheduler(seed, 12, 600, true),
        ] {
            cov.behind_tail += c.behind_tail;
            cov.victims += c.victims;
            cov.reseated += c.reseated;
        }
    }
    assert!(cov.behind_tail > 0, "no cycle behind a tail was searched");
    assert!(cov.victims > 0, "no cycle was ever closed");
    assert!(cov.reseated > 0, "no slot was reused");
}
