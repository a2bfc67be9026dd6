//! Compiled-plan A/B: the same queries timed through the instruction-
//! stream interpreter and through the partially evaluated
//! [`CompiledQuery`] plans that `QramModel::compiled_query` routes the
//! hot paths through.
//!
//! Three pairs, each `*_interpreted` (the pinned reference path) vs
//! `*_compiled` (the dispatching entry point):
//!
//! * single 16-branch queries at `N = 1024` (the `query_execution`
//!   shape) — per-branch work drops from an `O(log² N)` op walk to one
//!   classical memory read;
//! * a cold-cache 1024-query batch over all-distinct addresses (no memo
//!   hits, so the pair isolates the plan itself);
//! * a sharded `K = 4` superposed batch, where the plan also removes the
//!   per-shard sub-state construction.
//!
//! [`CompiledQuery`]: qram_core::CompiledQuery

use criterion::{criterion_group, criterion_main, Criterion};
use qram_core::exec::execute_layers;
use qram_core::{execute_batch, execute_batch_unmemoized, FatTreeQram, QramModel, ShardedQram};
use qram_metrics::Capacity;
use qsim::branch::{AddressState, ClassicalMemory};

const ADDRESS_WIDTH: u32 = 10;
const N: u64 = 1 << ADDRESS_WIDTH;

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 7 + 3) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

/// Single-query shape of the `query_execution` group: 16 branches.
fn bench_single_query(c: &mut Criterion) {
    let mut group = c.benchmark_group("compiled_exec");
    let mem = memory();
    let qram = FatTreeQram::new(Capacity::new(N).expect("power of two"));
    let layers = qram.interned_query_layers();
    let plan = qram.compiled_query().expect("built-in plan");
    let addresses: Vec<u64> = (0..16u64).map(|i| i * (N / 16)).collect();
    let address = AddressState::uniform(ADDRESS_WIDTH, &addresses).expect("valid");
    group.bench_function("ft_16branch_n10_interpreted", |b| {
        b.iter(|| execute_layers(&layers, &mem, &address).expect("valid stream"))
    });
    group.bench_function("ft_16branch_n10_compiled", |b| {
        b.iter(|| plan.execute(&mem, &address))
    });

    // Cold-cache batch: 1024 all-distinct classical addresses, so the
    // memo never hits and the A/B isolates plan vs interpreter.
    let batch: Vec<AddressState> = (0..N)
        .map(|a| AddressState::classical(ADDRESS_WIDTH, a).expect("valid"))
        .collect();
    group.bench_function("ft_1024cold_batch_interpreted", |b| {
        b.iter(|| execute_batch_unmemoized(&qram, &mem, &batch, &[]).expect("valid"))
    });
    group.bench_function("ft_1024cold_batch_compiled", |b| {
        b.iter(|| execute_batch(&qram, &mem, &batch, &[]).expect("valid"))
    });

    // Sharded K = 4: 8 superposed queries of 64 branches each.
    let sharded = ShardedQram::fat_tree(Capacity::new(N).expect("power of two"), 4);
    let queries: Vec<AddressState> = (0..8u64)
        .map(|q| {
            let mut addrs: Vec<u64> = (0..64u64).map(|b| (q * 13 + b * 17) % N).collect();
            addrs.sort_unstable();
            addrs.dedup();
            AddressState::uniform(ADDRESS_WIDTH, &addrs).expect("valid")
        })
        .collect();
    group.bench_function("sharded_k4_8x64branch_interpreted", |b| {
        b.iter(|| {
            sharded
                .execute_queries_sequential(&mem, &queries, &[])
                .expect("valid")
        })
    });
    group.bench_function("sharded_k4_8x64branch_compiled", |b| {
        b.iter(|| sharded.execute_queries(&mem, &queries, &[]).expect("valid"))
    });
    group.finish();
}

criterion_group!(benches, bench_single_query);
criterion_main!(benches);
