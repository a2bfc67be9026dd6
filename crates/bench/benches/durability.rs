//! Durability fast-path benchmark: group-commit WAL append throughput
//! on a real filesystem, and cold-recovery cost of delta-chain vs
//! full-image checkpointing at an equal checkpoint byte budget.
//!
//! Two reproduction artifacts:
//!
//! 1. **Records per fsync.** The WAL acknowledgment point is the group
//!    sync; batching `g` records behind one fsync amortizes the platter
//!    barrier `g` ways. Measured on an [`OsDir`] scratch directory so
//!    the fsync is real — the headline scalar is the sustained append
//!    speedup of group 32 over per-record commit (the repo's
//!    acceptance bar is ≥ 5×).
//! 2. **Recovery at 64k epochs.** A hot write set (256 cells of a 4096
//!    cell memory) lets incremental deltas stay ~8× smaller than full
//!    images, so at the *same* checkpoint byte budget the delta policy
//!    checkpoints ~4.5× more often: its crash image carries a delta
//!    chain plus a short WAL tail where the full-image policy carries a
//!    long tail. Cold recovery replays both; the delta arm wins on
//!    bytes scanned.

use std::time::{Duration, Instant};

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qram_bench::{memory, record_scalar};
use qram_core::store::{
    CheckpointPolicy, DirOp, DurableFleet, GroupCommitPolicy, OsDir, SimDir, CHECKPOINT_TMP,
    DELTA_TMP,
};
use qram_core::ReplicatedWrite;

/// Memory size of the recovery arms (cells at bus width 1).
const N: u64 = 4096;
/// Hot write set: every write lands on one of these cells, so a delta
/// spanning [`DELTA_EVERY`] epochs tops out at `HOT_CELLS` entries.
const HOT_CELLS: u64 = 256;
/// Epochs appended before the simulated crash.
const EPOCHS: u64 = 64_000;
/// Delta arm: a delta every 1024 epochs, folding past a chain of 10 —
/// per 11264-epoch cycle that is 10 small deltas plus one full image.
const DELTA_EVERY: u64 = 1024;
const DELTA_CHAIN: usize = 10;
/// Full-image arm: cadence chosen so both arms spend the same
/// checkpoint bytes over the run (measured and reported below).
const FULL_EVERY: u64 = 4608;

/// Appends per timed round of the throughput measurement.
const ROUND: u64 = 192;
/// Commit-group sizes swept by the throughput measurement.
const GROUPS: [usize; 4] = [1, 8, 32, 128];

/// Write `epoch` of the hot-set workload: 13 is odd, so the addresses
/// cycle through all [`HOT_CELLS`] residues, spread across the memory.
fn hot_write(epoch: u64) -> ReplicatedWrite {
    ReplicatedWrite {
        epoch,
        origin: (epoch % 4) as usize,
        address: ((epoch * 13) % HOT_CELLS) * (N / HOT_CELLS),
        value: epoch % 2,
    }
}

/// A fresh scratch directory under the cargo-managed tmp dir.
fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::path::PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("dur_{tag}"));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear stale scratch dir");
    }
    dir
}

/// One timed round: [`ROUND`] appends plus the final flush on a fresh
/// [`OsDir`] store under `group`-record commit. Returns the elapsed
/// wall time and the fsyncs paid.
fn timed_round(tag: &str, group: usize) -> (Duration, u64) {
    let root = scratch(tag);
    let mut store = DurableFleet::create_with(
        Box::new(OsDir::open(&root).expect("open scratch dir")),
        &memory(N),
        CheckpointPolicy::never(),
    )
    .expect("create store")
    .with_group_commit(GroupCommitPolicy::group(group, 0.0));
    let mut syncs = 0u64;
    let start = Instant::now();
    for e in 1..=ROUND {
        if store.append(&hot_write(e)).expect("append").synced_records > 0 {
            syncs += 1;
        }
    }
    if store.flush().expect("flush").synced_records > 0 {
        syncs += 1;
    }
    let elapsed = start.elapsed();
    drop(store);
    std::fs::remove_dir_all(&root).expect("clean scratch dir");
    (elapsed, syncs)
}

fn print_throughput_rows(_c: &mut Criterion) {
    println!("== WAL append throughput on OsDir, {ROUND} records per round, best of 3 ==");
    println!(
        "{:>6} {:>14} {:>16} {:>12}",
        "group", "us/record", "records/fsync", "speedup"
    );
    let mut per_record_us = 0.0;
    for &g in &GROUPS {
        let (best, syncs) = (0..3)
            .map(|round| timed_round(&format!("tp_g{g}_{round}"), g))
            .min_by_key(|(t, _)| *t)
            .expect("three rounds ran");
        let us = best.as_secs_f64() * 1e6 / ROUND as f64;
        let records_per_fsync = ROUND as f64 / syncs as f64;
        if g == 1 {
            per_record_us = us;
        }
        let speedup = per_record_us / us;
        println!("{g:>6} {us:>14.2} {records_per_fsync:>16.1} {speedup:>11.1}x");
        record_scalar(&format!("durability/append_us_per_record_g{g}"), us);
        record_scalar(
            &format!("durability/records_per_fsync_g{g}"),
            records_per_fsync,
        );
        if g == 32 {
            record_scalar("durability/group32_speedup_x", speedup);
            assert!(
                speedup >= 5.0,
                "group commit at 32 records must sustain >= 5x per-record throughput, got {speedup:.1}x"
            );
        }
    }
}

/// Builds the crash image of [`EPOCHS`] hot-set writes under `policy`:
/// only the surviving files, journal stripped.
fn crash_image(policy: CheckpointPolicy) -> (SimDir, u64) {
    let mut store = DurableFleet::create_with(Box::new(SimDir::new()), &memory(N), policy)
        .expect("create store");
    for e in 1..=EPOCHS {
        store.append(&hot_write(e)).expect("append");
    }
    let mut dir = store.into_dir();
    let sim = dir
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("bench store runs on SimDir");
    // Checkpoint bytes spent over the run: every image and delta is
    // staged through its tmp file exactly once.
    let budget: u64 = sim
        .journal()
        .iter()
        .filter(|op| {
            matches!(op, DirOp::Replace { name, .. }
                if name == CHECKPOINT_TMP || name == DELTA_TMP)
        })
        .map(|op| op.write_len() as u64)
        .sum();
    (sim.replay_prefix(sim.journal().len(), None), budget)
}

/// Best-of-5 wall time of one cold recovery from `image`.
fn timed_recovery(image: &SimDir) -> Duration {
    (0..5)
        .map(|_| {
            let dir = Box::new(image.clone());
            let start = Instant::now();
            let state = DurableFleet::recover(dir).expect("recover");
            assert_eq!(state.epoch, EPOCHS, "no acknowledged write is lost");
            start.elapsed()
        })
        .min()
        .expect("five rounds ran")
}

fn print_recovery_rows(_c: &mut Criterion) {
    let (full_image, full_budget) = crash_image(CheckpointPolicy::every(FULL_EVERY));
    let (delta_image, delta_budget) =
        crash_image(CheckpointPolicy::deltas(DELTA_EVERY, DELTA_CHAIN));
    let full_state = DurableFleet::recover(Box::new(full_image.clone())).expect("recover");
    let delta_state = DurableFleet::recover(Box::new(delta_image.clone())).expect("recover");
    println!(
        "== cold recovery at {EPOCHS} epochs, hot set {HOT_CELLS}/{N} cells, equal checkpoint budget =="
    );
    println!(
        "{:>14} {:>14} {:>8} {:>10} {:>14}",
        "policy", "ckpt bytes", "chain", "wal tail", "recovery us"
    );
    let full_us = timed_recovery(&full_image).as_secs_f64() * 1e6;
    let delta_us = timed_recovery(&delta_image).as_secs_f64() * 1e6;
    println!(
        "{:>14} {full_budget:>14} {:>8} {:>10} {full_us:>14.1}",
        "full_interval",
        full_state.delta_chain,
        full_state.writes.len(),
    );
    println!(
        "{:>14} {delta_budget:>14} {:>8} {:>10} {delta_us:>14.1}",
        "delta_chain",
        delta_state.delta_chain,
        delta_state.writes.len(),
    );
    record_scalar("durability/recovery_us_64k_full_interval", full_us);
    record_scalar("durability/recovery_us_64k_delta_chain", delta_us);
    record_scalar("durability/recovery_delta_speedup_x", full_us / delta_us);
    record_scalar(
        "durability/checkpoint_bytes_64k_full_interval",
        full_budget as f64,
    );
    record_scalar(
        "durability/checkpoint_bytes_64k_delta_chain",
        delta_budget as f64,
    );
    // The comparison is only fair if the delta arm spent no more
    // checkpoint bytes than the full-image arm.
    assert!(
        delta_budget <= full_budget,
        "delta arm over budget: {delta_budget} > {full_budget}"
    );
    assert!(
        delta_us < full_us,
        "delta-chain recovery must beat the full-image interval at equal budget: \
         {delta_us:.1}us vs {full_us:.1}us"
    );
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");
    for (label, policy) in [
        (
            "recovery_64k_full_interval",
            CheckpointPolicy::every(FULL_EVERY),
        ),
        (
            "recovery_64k_delta_chain",
            CheckpointPolicy::deltas(DELTA_EVERY, DELTA_CHAIN),
        ),
    ] {
        let (image, _) = crash_image(policy);
        group.bench_function(label, |b| {
            b.iter_batched(
                || image.clone(),
                |dir| DurableFleet::recover(Box::new(dir)).expect("recover"),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_os_append(c: &mut Criterion) {
    let mut group = c.benchmark_group("durability");
    for (label, g) in [("os_append_per_record", 1usize), ("os_append_group32", 32)] {
        let root = scratch(label);
        let mut store = DurableFleet::create_with(
            Box::new(OsDir::open(&root).expect("open scratch dir")),
            &memory(N),
            CheckpointPolicy::never(),
        )
        .expect("create store")
        .with_group_commit(GroupCommitPolicy::group(g, 0.0));
        let mut epoch = 0u64;
        group.bench_function(label, |b| {
            b.iter(|| {
                epoch += 1;
                store.append(&hot_write(epoch)).expect("append")
            })
        });
        drop(store);
        std::fs::remove_dir_all(&root).expect("clean scratch dir");
    }
    group.finish();
}

criterion_group!(
    benches,
    print_throughput_rows,
    print_recovery_rows,
    bench_recovery,
    bench_os_append
);
criterion_main!(benches);
