//! Steady-state allocation audit: once a Table 1 run is past its start-up
//! transient, the event loop must touch the heap **zero** times — no
//! per-event, per-transaction, or per-request allocation at all.
//!
//! Every hot-path buffer is recycled: the slab reuses transaction slots
//! and one retired carcass, `TransactionSpec::processors` is drawn
//! in-place, lock/stage share vectors are taken and restored around each
//! submission, conflict waiter lists are recycled through a spare pool,
//! and both FELs reuse their backing storage once capacities settle.
//! This test is the proof: a `#[global_allocator]` wrapper counts every
//! `alloc`/`realloc`, and the count must not move across the measured
//! half of the run.
//!
//! The count is kept per thread. libtest runs the tests of this binary
//! on parallel threads, and a process-wide counter would charge each test
//! with the allocations of the others.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use lockgran_core::system::System;
use lockgran_core::{ConflictMode, ModelConfig};
use lockgran_sim::{Executor, FelKind, Time};
use lockgran_workload::{HotSpot, Placement};

/// Passthrough allocator that counts the calling thread's heap
/// acquisitions (`alloc` and `realloc`; `dealloc` is free to run —
/// returning memory is not the failure mode this test polices).
struct CountingAlloc;

thread_local! {
    // `const` initialization: no lazy-init allocation inside the
    // allocator itself.
    static HEAP_ACQUISITIONS: Cell<u64> = const { Cell::new(0) };
}

/// Count one heap acquisition on the calling thread. During thread
/// teardown the slot may already be gone; such allocations belong to no
/// test and are not counted.
fn count_acquisition() {
    let _ = HEAP_ACQUISITIONS.try_with(|n| n.set(n.get() + 1));
}

/// Heap acquisitions made so far by the calling thread.
fn heap_acquisitions() -> u64 {
    HEAP_ACQUISITIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_acquisition();
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_acquisition();
        SystemAlloc.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// Drive a configuration through a warm half (capacities settle, the
/// calendar queue finds its bucket count, server queues reach their
/// high-water marks, lock-table pools fill) and then a measured half
/// that must perform **exactly zero** heap acquisitions.
fn assert_steady_state_is_silent(cfg: ModelConfig, what: &str) {
    let mut ex = Executor::with_fel(FelKind::Calendar);
    let mut system = System::new(&cfg, 42, &mut ex);
    let horizon = system.tmax();

    // Start-up transient: arrivals fill the slab, buffers and queues grow
    // to their working sizes. Allocation here is expected and amortized.
    let mid = Time::from_units(horizon.units() / 2.0);
    ex.run(&mut system, mid);
    let events_before = ex.events_processed();
    let allocs_before = heap_acquisitions();

    // Steady state: every buffer is recycled, so the heap must be silent.
    let end = ex.run(&mut system, horizon);
    let events = ex.events_processed() - events_before;
    let allocs = heap_acquisitions() - allocs_before;

    assert!(
        events > 1_000,
        "{what}: measured half processed only {events} events — not a meaningful audit"
    );
    assert_eq!(
        allocs, 0,
        "{what}: steady state performed {allocs} heap acquisitions over {events} events"
    );

    // The run itself must still be a valid, completing simulation.
    let metrics = system.finish(end);
    assert!(metrics.totcom > 0, "{what}: no transactions completed");
}

#[test]
fn table1_steady_state_allocates_nothing() {
    assert_steady_state_is_silent(ModelConfig::table1().with_tmax(4_000.0), "probabilistic");
}

/// The explicit model runs the conservative protocol against the real
/// pooled lock table: granule sampling, request merging, blocking,
/// wake-up and retry must all recycle their buffers.
#[test]
fn explicit_steady_state_allocates_nothing() {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Explicit)
        .with_tmax(4_000.0);
    assert_steady_state_is_silent(cfg, "explicit");
}

/// The hierarchical model adds the escalation pass and an intention-lock
/// chain per target on top of the lock table: the chain is written into a
/// reused request buffer, so the steady state must stay silent too.
#[test]
fn hierarchical_steady_state_allocates_nothing() {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Hierarchical)
        .with_tmax(4_000.0);
    assert_steady_state_is_silent(cfg, "hierarchical");
}

/// Incremental 2PL adds the waits-for graph, deadlock detection and
/// victim abort/replay on top of the lock table — the full machinery
/// must be allocation-free once warm.
#[test]
fn twophase_steady_state_allocates_nothing() {
    let cfg = ModelConfig::table1()
        .with_conflict(ConflictMode::Twophase)
        .with_tmax(4_000.0);
    assert_steady_state_is_silent(cfg, "twophase");
}

/// Random placement under an 80/20 hot spot takes other request paths
/// than best placement: the hot-spot sampler draws the granule set, and
/// each predeclared request list is long enough to be sorted outside any
/// stack buffer. Every lock-table preset must stay silent there too.
#[test]
fn random_placement_hot_spot_steady_state_allocates_nothing() {
    for mode in [
        ConflictMode::Explicit,
        ConflictMode::Hierarchical,
        ConflictMode::Twophase,
    ] {
        let cfg = ModelConfig::table1()
            .with_conflict(mode)
            .with_placement(Placement::Random)
            .with_hot_spot(Some(HotSpot::eighty_twenty()))
            .with_tmax(4_000.0);
        assert_steady_state_is_silent(cfg, &format!("{mode:?}, random placement, hot spot"));
    }
}

/// Arena reuse audit: the second run through a [`RunArena`] must get by
/// on a small, `ntrans`-independent allocation budget. The first run
/// builds the slab, the conflict tables, the FEL buckets and every
/// scratch buffer; the reset keeps all of it, so run two only pays for
/// the few structures rebuilt per reset (the response histogram and the
/// per-processor server vector — O(npros + histogram buckets), not
/// O(ntrans) or O(events)).
#[test]
fn arena_second_run_allocates_a_small_fraction_of_the_first() {
    let cfg = ModelConfig::table1().with_tmax(1_500.0);
    let mut arena = lockgran_core::RunArena::new();

    let before_first = heap_acquisitions();
    let first = arena.run(&cfg, 7);
    let after_first = heap_acquisitions();

    let second = arena.run(&cfg, 8);
    let after_second = heap_acquisitions();

    assert!(first.totcom > 0 && second.totcom > 0);
    let cold = after_first - before_first;
    let warm = after_second - after_first;
    assert!(
        warm * 10 <= cold,
        "arena reuse saved too little: cold run {cold} acquisitions, warm run {warm}"
    );
}
