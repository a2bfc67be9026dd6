//! Sharded Fat-Tree serving: Table-1-style closed-form row per shard
//! count, plus criterion timings of batched execution across `K` shards
//! at `N = 4096`.
//!
//! The printed table is the reproduction artifact: admission interval
//! (hence bandwidth) scales linearly with `K` while a single lookup keeps
//! the monolithic latency — the distributed/virtual rows of Table 1 as an
//! executable backend rather than a cost model.

use criterion::{criterion_group, criterion_main, Criterion};
use qram_bench::{capacity, memory};
use qram_core::{FatTreeQram, QramModel, ShardedQram};
use qram_metrics::TimingModel;
use qsim::branch::AddressState;

const N: u64 = 4096;
const SHARD_COUNTS: [u32; 4] = [1, 2, 4, 8];

/// A batch of 64 four-branch superposed queries spread over the address
/// space. The odd branch stride (17) makes each query's branches cover
/// distinct low-bit residues — alternating parity at `K = 2`, four
/// distinct shards at `K ∈ {4, 8}` — so every benchmarked shard count
/// exercises the cross-shard split-and-recombine path.
fn batch() -> Vec<AddressState> {
    let n = capacity(N).address_width();
    (0..64u64)
        .map(|q| {
            let base = (q * 61) % N;
            let mut addrs: Vec<u64> = (0..4).map(|b| (base + b * 17) % N).collect();
            addrs.sort_unstable();
            addrs.dedup();
            AddressState::uniform(n, &addrs).expect("valid superposition")
        })
        .collect()
}

fn print_table1_row() {
    let timing = TimingModel::paper_default();
    let mono = FatTreeQram::new(capacity(N));
    println!("== Sharded Fat-Tree, N = {N} (Table-1-style row per shard count) ==");
    println!(
        "{:>3} {:>9} {:>12} {:>10} {:>18} {:>14}",
        "K", "routers", "parallelism", "interval", "single-query lat", "throughput x"
    );
    for k in SHARD_COUNTS {
        let sharded = ShardedQram::fat_tree(capacity(N), k);
        let interval = sharded.admission_interval(&timing);
        let speedup = mono.admission_interval(&timing) / interval;
        println!(
            "{:>3} {:>9} {:>12} {:>10.4} {:>18.3} {:>14.2}",
            k,
            sharded.router_count(),
            sharded.query_parallelism(),
            interval.get(),
            sharded.single_query_latency(&timing).get(),
            speedup
        );
    }
}

fn bench_sharded_batch(c: &mut Criterion) {
    let mut group = c.benchmark_group("sharded_execution");
    let mem = memory(N);
    let addresses = batch();
    for k in SHARD_COUNTS {
        let qram = ShardedQram::fat_tree(capacity(N), k);
        group.bench_function(format!("k{k}_n4096_64queries"), |b| {
            b.iter(|| {
                qram.execute_queries(&mem, &addresses, &[])
                    .expect("batch executes")
            })
        });
    }
    group.finish();
}

fn report_table(_c: &mut Criterion) {
    print_table1_row();
}

criterion_group!(benches, report_table, bench_sharded_batch);
criterion_main!(benches);
