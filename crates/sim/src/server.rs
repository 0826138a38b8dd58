//! Single-server resource with two priority classes and preemptive-resume
//! scheduling.
//!
//! Each processor in the shared-nothing machine owns one CPU server and one
//! I/O (disk) server. Two job classes exist:
//!
//! * [`Class::Lock`] — lock request/set/release processing. Per the paper,
//!   "the locking mechanism has preemptive power over running transactions
//!   for I/O and CPU resources": a Lock job preempts an in-service
//!   Transaction job, which resumes afterwards with its remaining demand
//!   (preemptive-resume).
//! * [`Class::Transaction`] — sub-transaction I/O or CPU work, served FCFS
//!   within the class.
//!
//! The server is a passive state machine driven by the model: `submit`
//! hands over a job, `on_completion` reports that a previously returned
//! [`Completion`] fired. Because a binary-heap future-event list cannot
//! cheaply delete events, preempted completions are invalidated by a
//! monotone [`Token`]: a stale token is simply ignored when it fires.
//!
//! Busy time is accounted per class as service segments close, which gives
//! the paper's `lockcpus` / `lockios` (Lock-class busy time) and
//! `totcpus` / `totios` (all-class busy time) directly.

use std::collections::VecDeque;

use crate::time::{Dur, Time};

crate::named_enum! {
    /// Order in which queued Transaction-class jobs (sub-transaction
    /// work) are served. Lock-class work is always FCFS among itself (and
    /// ahead of transactions).
    #[derive(Default)]
    pub enum QueueDiscipline {
        /// First come, first served — the paper's model.
        #[default]
        Fcfs => "fcfs",
        /// Shortest job first among *queued* jobs (non-preemptive): at each
        /// service completion the shortest waiting transaction job starts.
        /// Extension: checks the paper's §4 remark (citing Dandamudi & Chow)
        /// that sub-transaction-level scheduling has "only marginal effect"
        /// on locking granularity.
        Sjf => "sjf",
    }
}

/// Identifies the logical owner of a job (e.g. a transaction id plus a
/// sub-transaction index, packed by the model).
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct JobId(pub u64);

/// Service priority class.
///
/// Word-sized, so a [`Job`] is three whole words with no padding, and the
/// servers' queues and the model move it as three plain word copies.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u64)]
pub enum Class {
    /// Lock management work; preempts `Transaction` work.
    Lock,
    /// Ordinary sub-transaction work; FCFS among itself.
    Transaction,
}

impl Class {
    #[inline]
    fn index(self) -> usize {
        match self {
            Class::Lock => 0,
            Class::Transaction => 1,
        }
    }
}

/// A unit of work offered to a server.
#[derive(Clone, Copy, Debug)]
pub struct Job {
    /// Model-level identity, returned unchanged on completion.
    pub id: JobId,
    /// Remaining service demand.
    pub demand: Dur,
    /// Priority class.
    pub class: Class,
}

/// Opaque handle tying a scheduled completion event to a service segment.
/// Stale tokens (from preempted segments) are ignored.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Token(u64);

/// Instruction to the model: schedule a completion event for this server at
/// `at`, carrying `token`.
#[derive(Clone, Copy, Debug)]
pub struct Completion {
    /// Absolute completion time.
    pub at: Time,
    /// Token to present back via [`Server::on_completion`].
    pub token: Token,
}

/// Result of presenting a completion token.
#[derive(Debug)]
pub enum CompletionOutcome {
    /// The token belonged to a preempted segment; nothing happened.
    Stale,
    /// The job finished. If another job started service, its completion
    /// must be scheduled.
    Finished {
        /// The job that completed.
        job: Job,
        /// Completion of the next job now in service, if any.
        next: Option<Completion>,
    },
}

/// Result of cancelling a job by id (see [`Server::cancel`]).
#[derive(Debug)]
pub enum CancelOutcome {
    /// No job with that id is queued or in service.
    NotFound,
    /// The job was waiting in a queue; it never received service.
    Dequeued(Job),
    /// The job was in service. Its partial service is charged as busy
    /// time (the work is genuinely wasted, not refunded), its completion
    /// token is now stale, and if another job started service its
    /// completion must be scheduled.
    InService {
        /// The cancelled job with its *remaining* (unserved) demand.
        job: Job,
        /// Completion of the next job now in service, if any.
        next: Option<Completion>,
    },
}

struct InService {
    job: Job,
    segment_start: Time,
    ends_at: Time,
    token: Token,
}

/// Single-server queueing resource (see module docs).
pub struct Server {
    lock_queue: VecDeque<Job>,
    txn_queue: VecDeque<Job>,
    current: Option<InService>,
    next_token: u64,
    /// Busy time per class: `[Lock, Transaction]`.
    busy: [Dur; 2],
    /// Whether Lock-class work preempts an in-service Transaction job.
    preemptive: bool,
    /// Queued-transaction service order.
    discipline: QueueDiscipline,
}

impl Default for Server {
    fn default() -> Self {
        Self::new()
    }
}

impl Server {
    /// A fresh, idle server with preemptive lock priority (the paper's
    /// semantics).
    pub fn new() -> Self {
        Server {
            lock_queue: VecDeque::new(),
            txn_queue: VecDeque::new(),
            current: None,
            next_token: 0,
            busy: [Dur::ZERO; 2],
            preemptive: true,
            discipline: QueueDiscipline::Fcfs,
        }
    }

    /// Set the queued-transaction service discipline.
    #[must_use]
    pub fn with_discipline(mut self, discipline: QueueDiscipline) -> Self {
        self.discipline = discipline;
        self
    }

    /// A server where Lock-class work has *non-preemptive* (head-of-line)
    /// priority: it still overtakes every queued Transaction job, but the
    /// job in service finishes first. Ablation of the paper's
    /// "preemptive power" assumption.
    pub fn non_preemptive() -> Self {
        Server {
            preemptive: false,
            ..Server::new()
        }
    }

    /// Restore fresh-construction semantics in place, keeping the queues'
    /// grown capacity: after this the server is observationally identical
    /// to `Server::new()` (or [`Server::non_preemptive`]) with the given
    /// discipline — idle, zero accounting, token counter restarted.
    pub fn reset(&mut self, preemptive: bool, discipline: QueueDiscipline) {
        self.lock_queue.clear();
        self.txn_queue.clear();
        self.current = None;
        self.next_token = 0;
        self.busy = [Dur::ZERO; 2];
        self.preemptive = preemptive;
        self.discipline = discipline;
    }

    /// Make room for `jobs` waiting jobs in each class's queue, so that
    /// neither grows while no more than that many jobs wait.
    pub fn reserve(&mut self, jobs: usize) {
        for queue in [&mut self.lock_queue, &mut self.txn_queue] {
            queue.reserve(jobs.saturating_sub(queue.len()));
        }
    }

    /// Dequeue the next transaction job per the discipline.
    #[inline]
    fn pop_txn(&mut self) -> Option<Job> {
        match self.discipline {
            QueueDiscipline::Fcfs => self.txn_queue.pop_front(),
            QueueDiscipline::Sjf => {
                let idx = self
                    .txn_queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(i, j)| (j.demand, *i))? // stable on ties
                    .0;
                self.txn_queue.remove(idx)
            }
        }
    }

    #[inline]
    fn fresh_token(&mut self) -> Token {
        let t = Token(self.next_token);
        self.next_token += 1;
        t
    }

    #[inline]
    fn start(&mut self, now: Time, job: Job) -> Completion {
        let token = self.fresh_token();
        let ends_at = now + job.demand;
        self.current = Some(InService {
            job,
            segment_start: now,
            ends_at,
            token,
        });
        Completion { at: ends_at, token }
    }

    /// Close the current service segment at `now`, accounting its busy
    /// time, and return the job with its demand reduced to the unserved
    /// remainder.
    #[inline]
    fn close_segment(&mut self, now: Time) -> Job {
        #[expect(
            clippy::expect_used,
            reason = "private helper; every caller checks the server is busy \
                      before closing the segment"
        )]
        let cur = self.current.take().expect("close_segment with idle server");
        let served = now.since(cur.segment_start);
        self.busy[cur.job.class.index()] += served;
        let mut job = cur.job;
        job.demand = cur.ends_at.since(now); // remaining demand
        job
    }

    /// Offer a job for service. Returns a [`Completion`] to schedule when
    /// the job (or, after a preemption, the new head-of-line job) enters
    /// service; `None` if the job merely queued.
    ///
    /// Zero-demand jobs are legal (the paper's `liotime = 0` case) and
    /// complete at their service start instant.
    ///
    /// `submit` and [`Server::on_completion`] are the per-event server
    /// transitions, so both are inlinable into the model's event handler.
    #[inline]
    pub fn submit(&mut self, now: Time, job: Job) -> Option<Completion> {
        match (&self.current, job.class) {
            (None, _) => Some(self.start(now, job)),
            (Some(cur), Class::Lock) if self.preemptive && cur.job.class == Class::Transaction => {
                // Preemptive-resume: park the transaction job at the head
                // of its queue with only its remaining demand.
                let preempted = self.close_segment(now);
                self.txn_queue.push_front(preempted);
                Some(self.start(now, job))
            }
            (Some(_), Class::Lock) => {
                // Lock work does not preempt lock work: FCFS within class.
                self.lock_queue.push_back(job);
                None
            }
            (Some(_), Class::Transaction) => {
                self.txn_queue.push_back(job);
                None
            }
        }
    }

    /// Present a fired completion token.
    #[inline]
    pub fn on_completion(&mut self, now: Time, token: Token) -> CompletionOutcome {
        match &self.current {
            Some(cur) if cur.token == token => {
                debug_assert_eq!(cur.ends_at, now, "completion fired at the wrong time");
                let finished = self.close_segment(now);
                debug_assert!(finished.demand.is_zero());
                let next = self
                    .lock_queue
                    .pop_front()
                    .or_else(|| self.pop_txn())
                    .map(|j| self.start(now, j));
                CompletionOutcome::Finished {
                    job: finished,
                    next,
                }
            }
            _ => CompletionOutcome::Stale,
        }
    }

    /// Remove a job by id, wherever it is (in service or queued).
    ///
    /// Used by the failure model to withdraw a dead transaction's work. A
    /// queued job simply leaves its queue; an in-service job has its
    /// segment closed at `now` (charging the partial service as busy
    /// time — failed work costs real resource time) and the next
    /// head-of-line job, if any, enters service. The cancelled job's old
    /// completion token becomes stale automatically, since only the
    /// current segment's token is honoured by [`Server::on_completion`].
    pub fn cancel(&mut self, now: Time, id: JobId) -> CancelOutcome {
        if self.current.as_ref().is_some_and(|cur| cur.job.id == id) {
            let job = self.close_segment(now);
            let next = self
                .lock_queue
                .pop_front()
                .or_else(|| self.pop_txn())
                .map(|j| self.start(now, j));
            return CancelOutcome::InService { job, next };
        }
        let dequeued = [&mut self.lock_queue, &mut self.txn_queue]
            .into_iter()
            .find_map(|queue| {
                queue
                    .iter()
                    .position(|j| j.id == id)
                    .and_then(|pos| queue.remove(pos))
            });
        match dequeued {
            Some(job) => CancelOutcome::Dequeued(job),
            None => CancelOutcome::NotFound,
        }
    }

    /// Jobs present (in service + queued).
    pub fn jobs_present(&self) -> usize {
        usize::from(self.current.is_some()) + self.lock_queue.len() + self.txn_queue.len()
    }

    /// True if no job is in service or queued.
    pub fn is_idle(&self) -> bool {
        self.jobs_present() == 0
    }

    /// Busy time accumulated for a class in *closed* segments. Call
    /// [`Server::flush`] first to include the open segment.
    pub fn busy_time(&self, class: Class) -> Dur {
        self.busy[class.index()]
    }

    /// Account the open service segment up to `now` (without completing
    /// the job). Used at the measurement horizon so that busy-time
    /// counters cover work in flight. The in-service job, its token and
    /// its completion time are untouched; only the accounting segment is
    /// closed and reopened at `now`.
    pub fn flush(&mut self, now: Time) {
        if let Some(cur) = &mut self.current {
            debug_assert!(cur.segment_start <= now);
            let served = now.since(cur.segment_start);
            self.busy[cur.job.class.index()] += served;
            cur.segment_start = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, ticks: u64, class: Class) -> Job {
        Job {
            id: JobId(id),
            demand: Dur::from_ticks(ticks),
            class,
        }
    }

    #[test]
    fn reset_restores_fresh_semantics() {
        // Abandon a busy server mid-service, reset it, and hold every
        // observable — completion times, token values, accounting — to
        // what a fresh server produces for the same submissions.
        let mut used = Server::new();
        let _ = used.submit(Time::from_ticks(0), job(1, 10, Class::Transaction));
        let _ = used.submit(Time::from_ticks(0), job(2, 7, Class::Lock));
        used.flush(Time::from_ticks(20));
        used.reset(true, QueueDiscipline::Fcfs);

        let mut fresh = Server::new();
        assert_eq!(used.jobs_present(), 0);
        assert!(used.is_idle());
        for class in [Class::Lock, Class::Transaction] {
            assert_eq!(used.busy_time(class), Dur::ZERO);
        }
        for (now, j) in [
            (0u64, job(3, 5, Class::Transaction)),
            (2, job(4, 3, Class::Lock)),
        ] {
            let a = used.submit(Time::from_ticks(now), j);
            let b = fresh.submit(Time::from_ticks(now), j);
            assert_eq!(
                a.map(|c| (c.at, c.token.0)),
                b.map(|c| (c.at, c.token.0)),
                "reset server diverged from fresh at t={now}"
            );
        }
        used.flush(Time::from_ticks(10));
        fresh.flush(Time::from_ticks(10));
        for class in [Class::Lock, Class::Transaction] {
            assert_eq!(used.busy_time(class), fresh.busy_time(class));
        }
        assert_eq!(used.jobs_present(), fresh.jobs_present());
    }

    /// Drive a server through a scripted sequence, emulating the event
    /// queue with a sorted list of (time, token).
    struct Harness {
        server: Server,
        pending: Vec<Completion>,
        finished: Vec<(u64, JobId, Class)>,
    }

    impl Harness {
        fn new() -> Self {
            Harness {
                server: Server::new(),
                pending: Vec::new(),
                finished: Vec::new(),
            }
        }

        fn submit(&mut self, now: u64, j: Job) {
            if let Some(c) = self.server.submit(Time::from_ticks(now), j) {
                self.pending.push(c);
            }
        }

        /// Fire all pending completions up to `until`, in time order.
        fn drain(&mut self, until: u64) {
            loop {
                self.pending.sort_by_key(|c| (c.at, c.token.0));
                let Some(idx) = self
                    .pending
                    .iter()
                    .position(|c| c.at <= Time::from_ticks(until))
                else {
                    break;
                };
                let c = self.pending.remove(idx);
                match self.server.on_completion(c.at, c.token) {
                    CompletionOutcome::Stale => {}
                    CompletionOutcome::Finished { job, next } => {
                        self.finished.push((c.at.ticks(), job.id, job.class));
                        if let Some(n) = next {
                            self.pending.push(n);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn fcfs_single_class() {
        let mut h = Harness::new();
        h.submit(0, job(1, 10, Class::Transaction));
        h.submit(0, job(2, 5, Class::Transaction));
        h.submit(0, job(3, 1, Class::Transaction));
        h.drain(100);
        assert_eq!(
            h.finished,
            vec![
                (10, JobId(1), Class::Transaction),
                (15, JobId(2), Class::Transaction),
                (16, JobId(3), Class::Transaction),
            ]
        );
        assert_eq!(h.server.busy_time(Class::Transaction), Dur::from_ticks(16));
        assert!(h.server.is_idle());
    }

    #[test]
    fn lock_preempts_transaction_and_resumes() {
        let mut h = Harness::new();
        h.submit(0, job(1, 10, Class::Transaction));
        // At t=4, a lock job of 3 ticks arrives: it runs 4..7, then the
        // transaction resumes with 6 remaining and finishes at 13.
        h.drain(3); // nothing finishes before t=4
        h.submit(4, job(2, 3, Class::Lock));
        h.drain(100);
        assert_eq!(
            h.finished,
            vec![
                (7, JobId(2), Class::Lock),
                (13, JobId(1), Class::Transaction)
            ]
        );
        assert_eq!(h.server.busy_time(Class::Lock), Dur::from_ticks(3));
        assert_eq!(h.server.busy_time(Class::Transaction), Dur::from_ticks(10));
    }

    #[test]
    fn stale_token_after_preemption_is_ignored() {
        let mut server = Server::new();
        let c1 = server
            .submit(Time::from_ticks(0), job(1, 10, Class::Transaction))
            .unwrap();
        let _c2 = server
            .submit(Time::from_ticks(4), job(2, 3, Class::Lock))
            .unwrap();
        // The original completion (t=10) fires but its segment was
        // preempted — must be reported stale, not double-complete.
        match server.on_completion(Time::from_ticks(10), c1.token) {
            CompletionOutcome::Stale => {}
            other => panic!("expected Stale, got {other:?}"),
        }
    }

    #[test]
    fn lock_does_not_preempt_lock() {
        let mut h = Harness::new();
        h.submit(0, job(1, 10, Class::Lock));
        h.submit(2, job(2, 5, Class::Lock));
        h.drain(100);
        assert_eq!(
            h.finished,
            vec![(10, JobId(1), Class::Lock), (15, JobId(2), Class::Lock)]
        );
    }

    #[test]
    fn queued_lock_work_runs_before_queued_transactions() {
        let mut h = Harness::new();
        h.submit(0, job(1, 10, Class::Transaction));
        h.submit(1, job(2, 4, Class::Transaction)); // queued
        h.submit(2, job(3, 2, Class::Lock)); // preempts job 1
        h.submit(3, job(4, 2, Class::Lock)); // queues behind job 3
        h.drain(100);
        // Timeline: txn1 0..2, lock3 2..4, lock4 4..6, txn1 resumes 6..14,
        // txn2 14..18.
        assert_eq!(
            h.finished,
            vec![
                (4, JobId(3), Class::Lock),
                (6, JobId(4), Class::Lock),
                (14, JobId(1), Class::Transaction),
                (18, JobId(2), Class::Transaction),
            ]
        );
    }

    #[test]
    fn zero_demand_job_completes_at_start_instant() {
        let mut h = Harness::new();
        h.submit(5, job(1, 0, Class::Lock));
        h.drain(5);
        assert_eq!(h.finished, vec![(5, JobId(1), Class::Lock)]);
        assert!(h.server.is_idle());
    }

    #[test]
    fn multiple_preemptions_preserve_total_demand() {
        let mut h = Harness::new();
        h.submit(0, job(1, 100, Class::Transaction));
        for k in 0..5u64 {
            h.drain(10 * k + 5 - 1);
            h.submit(10 * k + 5, job(100 + k, 2, Class::Lock));
        }
        h.drain(10_000);
        let txn_end = h
            .finished
            .iter()
            .find(|(_, id, _)| *id == JobId(1))
            .map(|(t, _, _)| *t)
            .unwrap();
        // 100 ticks of transaction demand + 5 * 2 ticks of preempting lock
        // work: finishes exactly at 110.
        assert_eq!(txn_end, 110);
        assert_eq!(h.server.busy_time(Class::Transaction), Dur::from_ticks(100));
        assert_eq!(h.server.busy_time(Class::Lock), Dur::from_ticks(10));
        let locks_done = h.finished.iter().filter(|f| f.2 == Class::Lock).count();
        assert_eq!(locks_done, 5);
    }

    #[test]
    fn sjf_serves_shortest_queued_job_first() {
        let mut h = Harness::new();
        h.server = Server::new().with_discipline(QueueDiscipline::Sjf);
        h.submit(0, job(1, 10, Class::Transaction)); // in service
        h.submit(1, job(2, 8, Class::Transaction));
        h.submit(2, job(3, 2, Class::Transaction));
        h.submit(3, job(4, 5, Class::Transaction));
        h.drain(100);
        // After job 1 (0..10): SJF order 3 (2), 4 (5), 2 (8).
        assert_eq!(
            h.finished,
            vec![
                (10, JobId(1), Class::Transaction),
                (12, JobId(3), Class::Transaction),
                (17, JobId(4), Class::Transaction),
                (25, JobId(2), Class::Transaction),
            ]
        );
    }

    #[test]
    fn sjf_ties_break_by_arrival_order() {
        let mut h = Harness::new();
        h.server = Server::new().with_discipline(QueueDiscipline::Sjf);
        h.submit(0, job(1, 4, Class::Transaction));
        h.submit(1, job(2, 3, Class::Transaction));
        h.submit(2, job(3, 3, Class::Transaction));
        h.drain(100);
        assert_eq!(
            h.finished.iter().map(|(_, id, _)| id.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn sjf_still_conserves_work() {
        let mut h = Harness::new();
        h.server = Server::new().with_discipline(QueueDiscipline::Sjf);
        for i in 0..10u64 {
            h.submit(0, job(i, (i % 4) * 3 + 1, Class::Transaction));
        }
        h.drain(10_000);
        assert_eq!(h.finished.len(), 10);
        let total: u64 = (0..10u64).map(|i| (i % 4) * 3 + 1).sum();
        assert_eq!(
            h.server.busy_time(Class::Transaction),
            Dur::from_ticks(total)
        );
    }

    #[test]
    fn non_preemptive_server_finishes_in_service_job_first() {
        let mut h = Harness::new();
        h.server = Server::non_preemptive();
        h.submit(0, job(1, 10, Class::Transaction));
        h.submit(2, job(2, 20, Class::Transaction)); // queued
        h.drain(3); // nothing done yet
        h.submit(4, job(3, 3, Class::Lock));
        h.drain(100);
        // Lock job waits for job 1 (ends t=10), then runs 10..13, then the
        // queued transaction 13..33.
        assert_eq!(
            h.finished,
            vec![
                (10, JobId(1), Class::Transaction),
                (13, JobId(3), Class::Lock),
                (33, JobId(2), Class::Transaction),
            ]
        );
    }

    #[test]
    fn cancel_in_service_charges_partial_busy_and_starts_next() {
        let mut server = Server::new();
        let c1 = server
            .submit(Time::from_ticks(0), job(1, 10, Class::Transaction))
            .unwrap();
        assert!(server
            .submit(Time::from_ticks(1), job(2, 4, Class::Transaction))
            .is_none());
        match server.cancel(Time::from_ticks(6), JobId(1)) {
            CancelOutcome::InService { job: j, next } => {
                assert_eq!(j.id, JobId(1));
                assert_eq!(j.demand, Dur::from_ticks(4)); // 10 − 6 unserved
                let next = next.expect("queued job should enter service");
                assert_eq!(next.at, Time::from_ticks(10)); // 6 + 4
                                                           // The cancelled job's old token is now stale.
                match server.on_completion(Time::from_ticks(10), c1.token) {
                    CompletionOutcome::Stale => {}
                    other => panic!("expected Stale, got {other:?}"),
                }
                // Only job 2 completes: the two matches count one completion.
                match server.on_completion(Time::from_ticks(10), next.token) {
                    CompletionOutcome::Finished { job: j2, next } => {
                        assert_eq!(j2.id, JobId(2));
                        assert!(next.is_none());
                    }
                    other => panic!("expected Finished, got {other:?}"),
                }
            }
            other => panic!("expected InService, got {other:?}"),
        }
        // 6 ticks of wasted service on job 1 + 4 ticks on job 2.
        assert_eq!(server.busy_time(Class::Transaction), Dur::from_ticks(10));
        assert!(server.is_idle());
    }

    #[test]
    fn cancel_queued_job_leaves_service_untouched() {
        let mut server = Server::new();
        let c1 = server
            .submit(Time::from_ticks(0), job(1, 10, Class::Transaction))
            .unwrap();
        assert!(server
            .submit(Time::from_ticks(1), job(2, 4, Class::Transaction))
            .is_none());
        match server.cancel(Time::from_ticks(3), JobId(2)) {
            CancelOutcome::Dequeued(j) => {
                assert_eq!(j.id, JobId(2));
                assert_eq!(j.demand, Dur::from_ticks(4)); // never served
            }
            other => panic!("expected Dequeued, got {other:?}"),
        }
        // Job 1 still completes on its original schedule.
        match server.on_completion(Time::from_ticks(10), c1.token) {
            CompletionOutcome::Finished { job: j, next } => {
                assert_eq!(j.id, JobId(1));
                assert!(next.is_none());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
    }

    #[test]
    fn cancel_missing_job_is_not_found() {
        let mut server = Server::new();
        server.submit(Time::from_ticks(0), job(1, 10, Class::Transaction));
        assert!(matches!(
            server.cancel(Time::from_ticks(2), JobId(99)),
            CancelOutcome::NotFound
        ));
    }

    #[test]
    fn cancel_queued_lock_job() {
        let mut server = Server::new();
        server.submit(Time::from_ticks(0), job(1, 10, Class::Lock));
        assert!(server
            .submit(Time::from_ticks(1), job(2, 3, Class::Lock))
            .is_none());
        match server.cancel(Time::from_ticks(2), JobId(2)) {
            CancelOutcome::Dequeued(j) => assert_eq!(j.id, JobId(2)),
            other => panic!("expected Dequeued, got {other:?}"),
        }
        assert_eq!(server.jobs_present(), 1);
    }

    #[test]
    fn cancel_idle_server_is_not_found() {
        let mut server = Server::new();
        assert!(matches!(
            server.cancel(Time::from_ticks(0), JobId(1)),
            CancelOutcome::NotFound
        ));
    }

    #[test]
    fn flush_accounts_open_segment_without_completing() {
        let mut server = Server::new();
        let c = server
            .submit(Time::from_ticks(0), job(1, 10, Class::Transaction))
            .unwrap();
        server.flush(Time::from_ticks(6));
        assert_eq!(server.busy_time(Class::Transaction), Dur::from_ticks(6));
        // The original completion must still be honoured.
        match server.on_completion(Time::from_ticks(10), c.token) {
            CompletionOutcome::Finished { job, next } => {
                assert_eq!(job.id, JobId(1));
                assert!(next.is_none());
            }
            other => panic!("expected Finished, got {other:?}"),
        }
        assert_eq!(server.busy_time(Class::Transaction), Dur::from_ticks(10));
    }
}
