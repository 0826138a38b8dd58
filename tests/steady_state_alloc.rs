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
//! shape: acquisitions, bytes and the sequence of sizes. It also follows
//! the live bytes, so a test can bound a run's peak live heap.
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
/// acquisitions and their sizes (`alloc` and `realloc`), and follows its
/// live bytes: `dealloc` subtracts, and `realloc` adjusts by the
/// difference.
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
    /// Bytes taken and not returned (negative once the thread returns
    /// more than it took since the count restarted).
    live: i64,
    /// The high-water mark of `live`.
    peak_live: i64,
}

impl Heap {
    const EMPTY: Heap = Heap {
        acquisitions: 0,
        bytes: 0,
        sizes_hash: 0xcbf2_9ce4_8422_2325,
        live: 0,
        peak_live: 0,
    };

    /// One acquisition of `size` bytes that changes the live bytes by
    /// `grown`.
    fn record(self, size: usize, grown: i64) -> Heap {
        let live = self.live + grown;
        Heap {
            acquisitions: self.acquisitions + 1,
            bytes: self.bytes + size as u64,
            sizes_hash: (self.sizes_hash ^ size as u64).wrapping_mul(0x0100_0000_01b3),
            live,
            peak_live: self.peak_live.max(live),
        }
    }
}

thread_local! {
    // `const` initialization: no lazy-init allocation inside the
    // allocator itself.
    static HEAP: Cell<Heap> = const { Cell::new(Heap::EMPTY) };
}

/// Count one heap acquisition of `size` bytes on the calling thread,
/// which changes its live bytes by `grown`. During thread teardown the
/// slot may already be gone; such allocations belong to no test and are
/// not counted.
fn count_acquisition(size: usize, grown: i64) {
    let _ = HEAP.try_with(|h| h.set(h.get().record(size, grown)));
}

/// Count `size` bytes returned to the heap by the calling thread.
fn count_release(size: usize) {
    let _ = HEAP.try_with(|h| {
        let heap = h.get();
        h.set(Heap {
            live: heap.live - size as i64,
            ..heap
        });
    });
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
        count_acquisition(layout.size(), layout.size() as i64);
        SystemAlloc.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_release(layout.size());
        SystemAlloc.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_acquisition(new_size, new_size as i64 - layout.size() as i64);
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

/// simbench's `lock_contention` shape: 50 terminals under Extension I's
/// 80/20 hot spot, random placement, few locks and one lock per entity.
/// Here the run meets larger draws long after its first transactions: a
/// larger granule set or request list, a longer lock queue at a server,
/// more deadlock victims at once, and under twophase a transaction that
/// first runs, and fills its CPU demands, long after it was admitted.
/// Each of those buffers gets room for its bound when first used, so none
/// grows in the measured half.
#[test]
fn lock_contention_steady_state_allocates_nothing() {
    for mode in [ConflictMode::Explicit, ConflictMode::Twophase] {
        for ltot in [20, 200, 5_000] {
            let cfg = ModelConfig::table1()
                .with_npros(10)
                .with_ntrans(50)
                .with_maxtransize(50)
                .with_placement(Placement::Random)
                .with_hot_spot(Some(HotSpot::eighty_twenty()))
                .with_conflict(mode)
                .with_ltot(ltot)
                .with_tmax(6_000.0);
            assert_steady_state_is_silent(cfg, &format!("{mode:?}, lock_contention, ltot {ltot}"));
        }
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

/// The peak live heap of one run of `cfg`, `System::new` to `finish`.
fn peak_live_heap(cfg: &ModelConfig) -> i64 {
    let (_, heap) = heap_taken_by(|| {
        let mut ex = Executor::with_fel(FelKind::Calendar);
        let mut system = System::new(cfg, 1, &mut ex);
        let horizon = system.tmax();
        let end = ex.run(&mut system, horizon);
        system.finish(end)
    });
    heap.peak_live
}

/// A waiting terminal costs no memory. simbench's probabilistic
/// `capacity` shape completes only about 1–60 transactions per run, so
/// behind MPL 64 nearly every terminal waits in the pending queue from
/// its arrival to the horizon. Ten times the terminals must then leave
/// the run's peak live heap where it was: a queued initial arrival is a
/// count, not a stored pair.
#[test]
fn waiting_terminals_take_no_heap() {
    let shape = |ntrans: u32| ModelConfig {
        dbsize: 10_000_000,
        ..ModelConfig::table1()
            .with_ltot(10_000)
            .with_ntrans(ntrans)
            .with_mpl_limit(Some(64))
            .with_tmax(1.1 * f64::from(ntrans))
            .with_placement(Placement::Random)
            .with_size(SizeDistribution::Uniform { max: 100_000 })
    };
    let small = peak_live_heap(&shape(20_000));
    let large = peak_live_heap(&shape(200_000));
    assert!(
        (large - small).abs() < 64 << 10,
        "peak live heap {small} bytes at 2·10⁴ terminals, {large} at 2·10⁵"
    );
}
