//! Steady-state allocation audit: once a Table 1 run is past its start-up
//! transient, the event loop must touch the heap **zero** times — no
//! per-event, per-transaction, or per-request allocation at all.
//!
//! Every hot-path buffer is recycled: a completed transaction's slab
//! slot is redrawn in place by the next admission, reusing its buffers
//! (`TransactionSpec::processors`, the granule set, the CPU stage
//! demands); lock shares are submitted as they are dealt and I/O stage
//! demands as they are drawn, through no buffer; conflict waiter lists
//! are recycled through a spare pool; and both FELs reuse their backing
//! storage once capacities settle. This test is the proof: a
//! `#[global_allocator]` wrapper counts every `alloc`/`realloc`, and the
//! count must not move across the measured half of the run.
//!
//! The same wrapper pins what `System::new` allocates for each benchmark
//! shape: acquisitions, bytes and the sequence of sizes.
//!
//! The count is kept per thread. libtest runs the tests of this binary
//! on parallel threads, and a process-wide counter would charge each test
//! with the allocations of the others.

use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::cell::Cell;

use lockgran_core::system::System;
use lockgran_core::{ConflictMode, HierarchySpec, ModelConfig};
use lockgran_sim::{Executor, FelKind, Time};
use lockgran_workload::{HotSpot, Placement, SizeDistribution};

/// Passthrough allocator that counts the calling thread's heap
/// acquisitions and their sizes (`alloc` and `realloc`; `dealloc` is free
/// to run — returning memory is not the failure mode this test polices).
struct CountingAlloc;

/// What the calling thread has taken from the heap.
#[derive(Clone, Copy)]
struct Heap {
    /// `alloc` and `realloc` calls.
    acquisitions: u64,
    /// Bytes they asked for (a `realloc` counts its new size).
    bytes: u64,
    /// FNV-1a hash of the requested sizes, in call order.
    sizes_hash: u64,
}

impl Heap {
    const EMPTY: Heap = Heap {
        acquisitions: 0,
        bytes: 0,
        sizes_hash: 0xcbf2_9ce4_8422_2325,
    };

    fn record(self, size: usize) -> Heap {
        Heap {
            acquisitions: self.acquisitions + 1,
            bytes: self.bytes + size as u64,
            sizes_hash: (self.sizes_hash ^ size as u64).wrapping_mul(0x0100_0000_01b3),
        }
    }
}

thread_local! {
    // `const` initialization: no lazy-init allocation inside the
    // allocator itself.
    static HEAP: Cell<Heap> = const { Cell::new(Heap::EMPTY) };
}

/// Count one heap acquisition of `size` bytes on the calling thread.
/// During thread teardown the slot may already be gone; such allocations
/// belong to no test and are not counted.
fn count_acquisition(size: usize) {
    let _ = HEAP.try_with(|h| h.set(h.get().record(size)));
}

/// Heap acquisitions made so far by the calling thread.
fn heap_acquisitions() -> u64 {
    HEAP.with(Cell::get).acquisitions
}

/// Run `f` and return what it took from the heap on this thread (the
/// thread's count restarts from zero).
fn heap_taken_by<T>(f: impl FnOnce() -> T) -> (T, Heap) {
    HEAP.with(|h| h.set(Heap::EMPTY));
    let out = f();
    (out, HEAP.with(Cell::get))
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_acquisition(layout.size());
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_acquisition(new_size);
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

/// What one `System::new` takes from the heap, for each shape simbench
/// runs: acquisitions, bytes and the hash of the size sequence. A change
/// to any of them moves where the allocator's heap ends after set-up, and
/// with it the set-up time of the runs that follow, so a refactor that
/// means to keep set-up as it is keeps these three numbers.
#[test]
fn system_new_allocations_are_pinned() {
    let contention = |mode, ltot| {
        ModelConfig::table1()
            .with_npros(10)
            .with_ntrans(50)
            .with_maxtransize(50)
            .with_placement(Placement::Random)
            .with_hot_spot(Some(HotSpot::eighty_twenty()))
            .with_tmax(50_000.0)
            .with_conflict(mode)
            .with_ltot(ltot)
    };
    let capacity = |max, mode| ModelConfig {
        dbsize: 10_000_000,
        ..ModelConfig::table1()
            .with_ltot(10_000)
            .with_ntrans(100_000)
            .with_mpl_limit(Some(64))
            .with_tmax(110_000.0)
            .with_size(SizeDistribution::Uniform { max })
            .with_conflict(mode)
    };
    let fig10 = ModelConfig::table1()
        .with_npros(30)
        .with_maxtransize(50)
        .with_placement(Placement::Random);
    let hierarchy = HierarchySpec::default()
        .with_areas(100)
        .with_escalation_threshold(Some(64));
    let (explicit, twophase) = (ConflictMode::Explicit, ConflictMode::Twophase);
    let shapes = [
        (
            "table1",
            ModelConfig::table1(),
            (6, 23_504, 0x795a_1ada_0fa4_405d),
        ),
        ("fig10 corner", fig10, (6, 25_664, 0x0fc9_6bff_4f91_544d)),
        (
            "explicit",
            contention(explicit, 10),
            (8, 20_520, 0xf274_925f_5fb0_5cdd),
        ),
        (
            "twophase 10",
            contention(twophase, 10),
            (29, 77_848, 0x95ea_938d_3879_adc7),
        ),
        (
            "twophase 100",
            contention(twophase, 100),
            (29, 250_136, 0x65d8_7191_4ccc_e4c7),
        ),
        (
            "capacity probabilistic",
            capacity(100_000, ConflictMode::Probabilistic).with_placement(Placement::Random),
            (6, 543_792, 0x3ec2_1c7b_62fb_b4fd),
        ),
        (
            "capacity hierarchical",
            capacity(2_000, ConflictMode::Hierarchical).with_hierarchy(Some(hierarchy)),
            (12, 36_200, 0xd1e5_7993_005d_4eed),
        ),
    ];
    for (what, cfg, pinned) in shapes {
        let mut ex = Executor::with_fel(FelKind::Calendar);
        let (_, heap) = heap_taken_by(|| System::new(&cfg, 0, &mut ex));
        assert_eq!(
            (heap.acquisitions, heap.bytes, heap.sizes_hash),
            pinned,
            "{what}"
        );
    }
}
