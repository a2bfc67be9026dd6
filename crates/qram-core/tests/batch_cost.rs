//! Regression pin on batched-execution scheduling cost: a `B`-query batch
//! must schedule in `O(B)` — in fact `O(1)` — [`PipelineSchedule`]
//! constructions. An earlier revision rebuilt a schedule inside the
//! retrieval-order sort comparator *and* once more per executed query,
//! costing `O(B log B)` constructions per batch.
//!
//! [`PipelineSchedule`]: qram_core::PipelineSchedule

use qram_core::pipeline::schedule_construction_count;
use qram_core::{
    execute_batch_traced, execute_batch_unmemoized, sub_batch_split_count, BatchCacheStats,
    FatTreeQram, QramModel, ShardedQram,
};
use qram_metrics::Capacity;
use qsim::branch::{AddressState, ClassicalMemory};

#[test]
fn batch_of_1024_queries_schedules_in_linear_constructions() {
    let capacity = Capacity::new(16).unwrap();
    let qram = FatTreeQram::new(capacity);
    let memory = ClassicalMemory::zeros(16);
    let addresses: Vec<AddressState> = (0..1024u64)
        .map(|i| AddressState::classical(4, i % 16).unwrap())
        .collect();

    let before = schedule_construction_count();
    let outs = qram.execute_queries(&memory, &addresses, &[]).unwrap();
    let constructed = schedule_construction_count() - before;

    assert_eq!(outs.len(), 1024);
    // Retrieval layers come from the closed form (no schedule), and the
    // batch builds exactly one schedule for conflict validation. Allow a
    // little slack but stay far below one construction per query — the
    // O(B log B) regression built ~11k schedules for this batch.
    assert!(
        constructed <= 8,
        "1024-query batch constructed {constructed} PipelineSchedules"
    );
}

#[test]
fn sharded_batch_is_also_construction_frugal() {
    let capacity = Capacity::new(16).unwrap();
    let qram = ShardedQram::fat_tree(capacity, 4);
    let memory = ClassicalMemory::zeros(16);
    let addresses: Vec<AddressState> = (0..512u64)
        .map(|i| AddressState::classical(4, i % 16).unwrap())
        .collect();

    let before = schedule_construction_count();
    let outs = qram.execute_queries(&memory, &addresses, &[]).unwrap();
    let constructed = schedule_construction_count() - before;

    assert_eq!(outs.len(), 512);
    assert!(
        constructed <= 8,
        "512-query sharded batch constructed {constructed} PipelineSchedules"
    );
}

/// A batch whose every query routes to a single shard must never build
/// the `K`-entry per-shard sub-batch split: the single-occupied-shard
/// fast path runs the one local sub-state directly. A genuinely
/// cross-shard superposition still splits. (Asserted on the interpreter
/// reference path — the columnar kernel never splits at all.)
#[test]
fn single_shard_batches_skip_the_sub_batch_split() {
    let capacity = Capacity::new(64).unwrap(); // width 6, shard_bits 2
    let qram = ShardedQram::fat_tree(capacity, 4);
    let memory = ClassicalMemory::zeros(64);
    // Four-branch superpositions whose addresses all share their low two
    // bits (≡ 1 mod 4): every branch of every query lives in shard 1.
    let addresses: Vec<AddressState> = (0..32u64)
        .map(|i| {
            let base = 1 + 4 * (i % 3);
            let branches: Vec<u64> = (0..4).map(|b| base + 16 * b).collect();
            AddressState::uniform(6, &branches).unwrap()
        })
        .collect();

    let before = sub_batch_split_count();
    let outs = qram
        .execute_queries_sequential(&memory, &addresses, &[])
        .unwrap();
    let splits = sub_batch_split_count() - before;
    assert_eq!(outs.len(), 32);
    assert_eq!(
        splits, 0,
        "single-shard batch built {splits} per-shard sub-batch splits"
    );

    // Control: a superposition spanning all four shards must split.
    let wide = AddressState::uniform(6, &[0, 1, 2, 3]).unwrap();
    let before = sub_batch_split_count();
    qram.execute_queries_sequential(&memory, std::slice::from_ref(&wide), &[])
        .unwrap();
    assert!(
        sub_batch_split_count() - before > 0,
        "cross-shard query skipped the sub-batch split"
    );
}

/// The packed-image bit-parallel gather only engages when the cell array
/// spills the L1-resident threshold (4096 cells), so the small-capacity
/// property tests never reach it. Pin it bit-equal to the interpreter
/// at `N = 8192` (monolith image) and `N = 16384, K = 2` (per-shard
/// image, all queries on one shard so its gather count clears the
/// amortization bar).
#[test]
fn bit_parallel_image_gather_matches_the_interpreter() {
    let n = 8192u64;
    let qram = FatTreeQram::new(Capacity::new(n).unwrap());
    let cells: Vec<u64> = (0..n).map(|i| (i * 11 + 5) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    // 2048 gathers over 8192 cells: >= cells/8, so the image path engages.
    let addresses: Vec<AddressState> = (0..2048u64)
        .map(|i| AddressState::classical(13, i * 37 % n).unwrap())
        .collect();
    let (col, col_stats) = execute_batch_traced(&qram, &memory, &addresses, &[]).unwrap();
    let reference = execute_batch_unmemoized(&qram, &memory, &addresses, &[]).unwrap();
    assert_eq!(col, reference);
    // Update-free batch = one epoch, and 37 is odd, so `i · 37 mod 8192`
    // never repeats: one miss per query, no hits.
    assert_eq!(
        col_stats,
        BatchCacheStats {
            hits: 0,
            misses: 2048
        }
    );

    // Sharded: all-even addresses route every gather to shard 0, whose
    // 8192-cell memory re-packs behind the same threshold.
    let sharded = ShardedQram::fat_tree(Capacity::new(2 * n).unwrap(), 2);
    let cells: Vec<u64> = (0..2 * n).map(|i| (i * 3 + 1) % 2).collect();
    let memory = ClassicalMemory::from_words(1, &cells).unwrap();
    let addresses: Vec<AddressState> = (0..2048u64)
        .map(|i| AddressState::classical(14, i * 74 % (2 * n)).unwrap())
        .collect();
    let fast = sharded.execute_queries(&memory, &addresses, &[]).unwrap();
    let reference = sharded
        .execute_queries_sequential(&memory, &addresses, &[])
        .unwrap();
    assert_eq!(fast, reference);
}
