//! Proves the per-cycle hot path is allocation-free in steady state.
//!
//! The core slab-allocates micro-ops, links the LSQ through fixed index
//! arrays, registers wakeups on per-producer consumer lists whose
//! buffers are recycled with their slots, and reuses persistent scratch
//! vectors for squash traversals. Every remaining allocation source is
//! *amortized*: buffers grow toward a plateau during warm-up and are
//! never released. This test pins the contract those designs add up to:
//! once warm, `Core::run` performs **zero** heap allocations per cycle.
//!
//! A counting `#[global_allocator]` tallies allocations per thread. The
//! simulator is single-threaded and the test harness runs these tests on
//! parallel threads, so each window counts only its own thread: any
//! nonzero delta is an allocation on the simulated path, never a
//! sibling test's warm-up.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hydra_pipeline::{Core, CoreConfig, RasSharing};
use hydra_workloads::{Workload, WorkloadSpec};

thread_local! {
    // `const`-initialized and drop-free: reading it never allocates, so
    // the allocator may touch it.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations this thread made while `f` ran.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

#[test]
fn steady_state_cycles_allocate_nothing() {
    // gcc is the suite's most call-heavy workload: deep recursion plus
    // frequent mispredictions exercise fetch, rename, wakeup, LSQ
    // insert/remove, RAS checkpoint/restore, and full squash recovery.
    let w = Workload::generate(&WorkloadSpec::by_name("gcc").expect("known"), 12345)
        .expect("generates");
    let mut core = Core::new(CoreConfig::baseline(), w.program());

    // Warm up past the allocation plateau: slab wakeup buffers, scratch
    // vectors, and pooled checkpoints all reach their high-water marks.
    core.run(30_000);

    let allocs = allocs_during(|| {
        core.run(90_000);
    });
    assert_eq!(
        allocs, 0,
        "heap allocations leaked back into the steady-state hot loop"
    );
}

/// Warms `config` up on gcc for 120k commits, past the late plateau a
/// wide window reaches, and returns the allocations of the next 90k.
fn steady_state_allocs(config: CoreConfig) -> u64 {
    let w = Workload::generate(&WorkloadSpec::by_name("gcc").expect("known"), 12345)
        .expect("generates");
    let mut core = Core::new(config, w.program());
    core.run(120_000);
    let allocs = allocs_during(|| {
        core.run(210_000);
    });
    assert!(
        !core.is_halted(),
        "the program halted before the window ended"
    );
    allocs
}

#[test]
fn wide_window_steady_state_cycles_allocate_nothing() {
    // Per-window structures (the ready list, wakeup lists, scratch
    // vectors) are sized from the RUU, so pin a window twice the
    // baseline's on an 8-wide machine too.
    let config = CoreConfig::builder()
        .ruu_size(128)
        .fetch_width(8)
        .dispatch_width(8)
        .issue_width(8)
        .commit_width(8)
        .build();
    let allocs = steady_state_allocs(config);
    assert_eq!(
        allocs, 0,
        "heap allocations leaked into the wide-window steady-state hot loop"
    );
}

#[test]
fn narrow_window_steady_state_cycles_allocate_nothing() {
    // An 8-entry RUU under a 4-wide front end: the window is full most
    // of the time, so every per-window bound is hit.
    let config = CoreConfig::builder().ruu_size(8).build();
    let allocs = steady_state_allocs(config);
    assert_eq!(
        allocs, 0,
        "heap allocations leaked into the narrow-window steady-state hot loop"
    );
}

#[test]
fn two_hart_system_steady_state_cycles_allocate_nothing() {
    // The multi-instance surface must not reintroduce allocations: the
    // System swaps the core-shared RAS unit and the system-shared memory
    // hierarchy in and out of each engine by `mem::swap` — pointer moves,
    // not clones. Stepping cycles directly avoids the per-call stats
    // `Vec` that `System::run` returns.
    let w = |seed| {
        Workload::generate(&WorkloadSpec::by_name("gcc").expect("known"), seed).expect("generates")
    };
    let (a, b) = (w(12345), w(12346));
    let config = CoreConfig::builder()
        .harts(2)
        .ras_sharing(RasSharing::Partitioned)
        .build();
    let mut sys = hydra_pipeline::System::new(1, config, &[a.program(), b.program()]);

    // Warm-up needs to be longer than the single-core test's: two
    // independent streams take more cycles to drive every pooled buffer
    // (slab, wakeup lists, checkpoint pool — per engine) to its
    // high-water mark.
    sys.run(100_000);

    let allocs = allocs_during(|| {
        for _ in 0..50_000 {
            sys.step_cycle();
        }
    });
    assert_eq!(
        allocs, 0,
        "heap allocations leaked into the 2-hart steady-state hot loop"
    );
}

#[test]
fn warmup_allocations_plateau() {
    // The same window re-run on a fresh core must allocate during
    // warm-up (building the plateau) — otherwise the zero above would be
    // vacuous, e.g. a broken counter.
    let w = Workload::generate(&WorkloadSpec::by_name("gcc").expect("known"), 12345)
        .expect("generates");
    let allocs = allocs_during(|| {
        let mut core = Core::new(CoreConfig::baseline(), w.program());
        core.run(30_000);
        std::hint::black_box(&mut core);
    });
    assert!(allocs > 0, "counter should observe construction/warm-up");
}
