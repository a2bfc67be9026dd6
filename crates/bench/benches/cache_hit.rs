//! Epoch-keyed query memoization on Zipf-skewed serving traffic: hit-rate
//! curve plus a memoized-vs-unmemoized timing A/B on the classic
//! Zipf(0.99) operating point.
//!
//! A serving batch repeats popular classical addresses, so the
//! `(write_epoch, address set)` memo cache of
//! `qram_core::execute_batch_traced` answers most queries without
//! walking the instruction stream. This target prints the measured hit
//! rate for a sweep of skew exponents and batch sizes, times the
//! Zipf(0.99) batch through both engines, and records the headline hit
//! rate into the `CRITERION_JSON` baseline (as
//! `cache_hit_rate/zipf099_1024q_hit_rate_percent` — the value is a
//! percentage, not a duration).

use criterion::{criterion_group, criterion_main, Criterion};
use qram_bench::record_scalar;
use qram_core::{execute_batch, execute_batch_traced, execute_batch_unmemoized, FatTreeQram};
use qram_metrics::Capacity;
use qram_sched::ZipfAddresses;
use qsim::branch::{AddressState, ClassicalMemory};

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const BATCH: usize = 1024;
const SEED: u64 = 20250727;

fn memory() -> ClassicalMemory {
    let cells: Vec<u64> = (0..N).map(|i| (i * 5 + 1) % 2).collect();
    ClassicalMemory::from_words(1, &cells).expect("valid memory")
}

fn zipf_batch(theta: f64, count: usize) -> Vec<AddressState> {
    ZipfAddresses::new(Capacity::new(N).expect("power of two"), theta)
        .addresses(count, SEED)
        .into_iter()
        .map(|a| AddressState::classical(ADDRESS_WIDTH, a).expect("address in range"))
        .collect()
}

fn measured_hit_rate(qram: &FatTreeQram, mem: &ClassicalMemory, theta: f64, count: usize) -> f64 {
    let addresses = zipf_batch(theta, count);
    let (_, stats) = execute_batch_traced(qram, mem, &addresses, &[]).expect("batch executes");
    stats.hit_rate()
}

fn print_hit_rate_curve(qram: &FatTreeQram, mem: &ClassicalMemory) {
    println!("== batch memoization hit rate, N = {N}, Fat-Tree, seed {SEED} ==");
    println!("{:>6} {:>8} {:>10}", "theta", "queries", "hit rate");
    for theta in [0.0, 0.5, 0.8, 0.99, 1.2] {
        for count in [256usize, 1024] {
            let rate = measured_hit_rate(qram, mem, theta, count);
            println!("{theta:>6.2} {count:>8} {:>9.1}%", rate * 100.0);
        }
    }
}

fn bench_cache_hit_rate(c: &mut Criterion) {
    let qram = FatTreeQram::new(Capacity::new(N).expect("power of two"));
    let mem = memory();
    print_hit_rate_curve(&qram, &mem);
    let headline = measured_hit_rate(&qram, &mem, 0.99, BATCH);
    println!(
        "headline Zipf(0.99), {BATCH} queries: {:.1}% hits",
        headline * 100.0
    );
    record_scalar(
        "cache_hit_rate/zipf099_1024q_hit_rate_percent",
        headline * 100.0,
    );

    let mut group = c.benchmark_group("cache_hit_rate");
    let addresses = zipf_batch(0.99, BATCH);
    // Both sides go through the shared sweep engine directly (no
    // per-backend batch validation), so the A/B isolates memoization.
    group.bench_function("zipf099_1024q_memoized", |b| {
        b.iter(|| execute_batch(&qram, &mem, &addresses, &[]).expect("batch executes"))
    });
    group.bench_function("zipf099_1024q_unmemoized", |b| {
        b.iter(|| execute_batch_unmemoized(&qram, &mem, &addresses, &[]).expect("batch executes"))
    });
    group.finish();
}

criterion_group!(benches, bench_cache_hit_rate);
criterion_main!(benches);
