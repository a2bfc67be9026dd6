//! Memory-bound pins on the fleet's serving loop and the sharded batch
//! kernel beneath it. Replicated writes must not grow the peak heap with
//! the write count: each query reads its replica's live memory, so a
//! serve holds `O(R·N)` bytes of memory images however many writes it
//! applies — not one image per (replica, applied epoch). And a sharded
//! batch reads that image in place instead of copying it into `K` shard
//! memories per call.
//!
//! The peak-tracking allocator is process-global, so every test holds
//! [`SERIAL`] while it measures: a concurrently running test would
//! perturb the high-water mark.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

use fat_tree_qram::core::{QramModel, ShardedQram};
use fat_tree_qram::metrics::{Capacity, Layers, TimingModel};
use fat_tree_qram::qsim::branch::{AddressState, ClassicalMemory};
use fat_tree_qram::sched::{FifoAdmission, TenantId};
use fat_tree_qram::serve::{
    ConsistentHashPlacement, FleetConfig, FleetRequest, FleetWrite, QramFleet,
};

/// Tracks live heap bytes and their high-water mark.
struct PeakAllocator;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for PeakAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size >= layout.size() {
            grow(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: PeakAllocator = PeakAllocator;

/// Serializes the tests of this binary around the shared counters.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    // A failed test poisons the lock; the counters are still usable.
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Peak live bytes `run` adds above the live bytes at its start.
fn peak_growth(run: impl FnOnce()) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    run();
    PEAK.load(Ordering::Relaxed) - base
}

const REPLICAS: usize = 4;
const SHARDS: u32 = 4;
const WIDTH: u32 = 12;
const CELLS: u64 = 1 << WIDTH;
const READS: u64 = 4096;
const WRITES: u64 = 512;
/// Layers between consecutive read arrivals.
const GAP: f64 = 4.0;

#[test]
fn peak_heap_does_not_grow_with_the_write_count() {
    let _serial = serial();
    let mut fleet = QramFleet::new(
        ShardedQram::fat_tree(Capacity::new(CELLS).unwrap(), SHARDS),
        REPLICAS,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: None,
            replication_lag: Layers::new(50.0),
        },
    );
    let cells: Vec<u64> = (0..CELLS).map(|i| (i * 37 + 11) % 256).collect();
    let memory = ClassicalMemory::from_words(8, &cells).unwrap();
    let reads = || -> Vec<FleetRequest> {
        (0..READS)
            .map(|i| FleetRequest {
                id: i as usize,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(GAP * i as f64),
                address: AddressState::classical(WIDTH, (i * 97) % CELLS).unwrap(),
            })
            .collect()
    };
    // One write between every `READS / WRITES` reads, origins rotating.
    let every = READS / WRITES;
    let writes: Vec<FleetWrite> = (0..WRITES)
        .map(|j| FleetWrite {
            at: Layers::new(GAP * (j * every) as f64 + GAP / 2.0),
            origin: j as usize % REPLICAS,
            address: (j * 131) % CELLS,
            value: j % 256,
        })
        .collect();

    // Warm the backend's lazily built plans and interned streams so
    // neither measured serve pays for them.
    fleet.serve(&memory, reads(), Vec::new()).unwrap();

    let (read_only, with_writes) = (reads(), reads());
    let without = peak_growth(|| {
        let report = fleet.serve(&memory, read_only, Vec::new()).unwrap();
        assert_eq!(report.completed().len() as u64, READS);
    });
    let with = peak_growth(|| {
        let report = fleet.serve(&memory, with_writes, writes).unwrap();
        assert_eq!(report.completed().len() as u64, READS);
        assert_eq!(report.fleet_epoch(), WRITES);
    });

    let image = CELLS as usize * std::mem::size_of::<u64>();
    let extra = with.saturating_sub(without);
    assert!(
        extra < 2 * REPLICAS * image,
        "{WRITES} writes raised the peak heap by {extra} bytes \
         ({:.1} memory images of {image} bytes; the bound is {})",
        extra as f64 / image as f64,
        2 * REPLICAS,
    );
}

#[test]
fn a_sharded_batch_reads_the_image_without_copying_it() {
    let _serial = serial();
    const WIDTH: u32 = 16;
    const CELLS: u64 = 1 << WIDTH;
    let qram = ShardedQram::fat_tree(Capacity::new(CELLS).unwrap(), SHARDS);
    let cells: Vec<u64> = (0..CELLS).map(|i| (i * 37 + 11) % 256).collect();
    let memory = ClassicalMemory::from_words(8, &cells).unwrap();
    let addresses: Vec<AddressState> = (0..64)
        .map(|i| AddressState::classical(WIDTH, (i * 1031) % CELLS).unwrap())
        .collect();
    // Warm the lazily built plan so the measured call does not pay for it.
    qram.execute_queries(&memory, &addresses, &[]).unwrap();

    let growth = peak_growth(|| {
        let outcomes = qram.execute_queries(&memory, &addresses, &[]).unwrap();
        for (outcome, address) in outcomes.iter().zip(&addresses) {
            let a = address.terms()[0].1;
            assert_eq!(outcome.data_for(a), Some(cells[a as usize]));
        }
    });

    let image = CELLS as usize * std::mem::size_of::<u64>();
    assert!(
        growth < image / 4,
        "a 64-query batch raised the peak heap by {growth} bytes \
         ({:.2} memory images of {image} bytes; the bound is 1/4)",
        growth as f64 / image as f64,
    );
}
