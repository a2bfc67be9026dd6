//! Cold-recovery benchmark for the durable store: time to rebuild fleet
//! state (`DurableFleet::recover`) from a crash image, as a function of
//! the write-ahead-log length and the checkpoint policy.
//!
//! The reproduction artifact is the WAL-bytes-vs-checkpoint trade-off:
//! without checkpoints the log holds every epoch and recovery replays
//! all of it; with periodic checkpoints the log is compacted down to
//! the post-checkpoint suffix and recovery is dominated by one image
//! load plus a short replay. The criterion timing prices exactly that
//! recovery path — checkpoint load, framed CRC scan, WAL replay — on an
//! in-memory `SimDir`, so the numbers isolate the store's CPU cost from
//! platter physics.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qram_bench::{memory, record_scalar};
use qram_core::store::{CheckpointPolicy, DurableFleet, SimDir, WAL_FILE};
use qram_core::ReplicatedWrite;

const N: u64 = 4096;
/// WAL lengths (epochs appended) swept by the benchmark.
const WAL_LENGTHS: [u64; 3] = [64, 512, 4096];
/// Checkpoint cadence of the "with checkpoints" arm.
const CHECKPOINT_EVERY: u64 = 256;

fn write(epoch: u64) -> ReplicatedWrite {
    ReplicatedWrite {
        epoch,
        origin: (epoch % 4) as usize,
        address: (epoch * 13) % N,
        value: epoch % 2,
    }
}

/// Builds a store directory holding `epochs` appended writes under
/// `policy`, then simulates the crash: the directory is all that
/// survives.
fn crash_image(epochs: u64, policy: CheckpointPolicy) -> SimDir {
    let mut store = DurableFleet::create_with(Box::new(SimDir::new()), &memory(N), policy)
        .expect("create store");
    for e in 1..=epochs {
        store.append(&write(e)).expect("append");
    }
    let mut dir = store.into_dir();
    dir.as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("bench store runs on SimDir")
        .clone()
}

fn print_recovery_rows(_c: &mut Criterion) {
    println!("== cold recovery, N = {N} cells, checkpoint every {CHECKPOINT_EVERY} vs never ==");
    println!(
        "{:>7} {:>12} {:>14} {:>15} {:>14}",
        "epochs", "wal bytes", "wal bytes ckpt", "recovered epoch", "replay suffix"
    );
    for &epochs in &WAL_LENGTHS {
        let plain = crash_image(epochs, CheckpointPolicy::never());
        let ckpt = crash_image(epochs, CheckpointPolicy::every(CHECKPOINT_EVERY));
        let plain_bytes = plain.len_of(WAL_FILE).unwrap_or(0);
        let ckpt_bytes = ckpt.len_of(WAL_FILE).unwrap_or(0);
        let recovered = DurableFleet::recover(Box::new(ckpt)).expect("recover");
        assert_eq!(recovered.epoch, epochs, "no acknowledged write is lost");
        println!(
            "{:>7} {:>12} {:>14} {:>15} {:>14}",
            epochs,
            plain_bytes,
            ckpt_bytes,
            recovered.epoch,
            recovered.writes.len(),
        );
        record_scalar(
            &format!("recovery/wal_bytes_{epochs}epochs_no_checkpoint"),
            plain_bytes as f64,
        );
        record_scalar(
            &format!("recovery/wal_bytes_{epochs}epochs_checkpointed"),
            ckpt_bytes as f64,
        );
        assert!(
            epochs < CHECKPOINT_EVERY || ckpt_bytes < plain_bytes,
            "checkpoints must compact the log"
        );
    }
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    for &epochs in &WAL_LENGTHS {
        for (label, policy) in [
            ("no_checkpoint", CheckpointPolicy::never()),
            ("checkpointed", CheckpointPolicy::every(CHECKPOINT_EVERY)),
        ] {
            let image = crash_image(epochs, policy);
            group.bench_function(format!("cold_{epochs}epochs_{label}"), |b| {
                b.iter_batched(
                    || image.clone(),
                    |dir| DurableFleet::recover(Box::new(dir)).expect("recover"),
                    BatchSize::SmallInput,
                )
            });
        }
    }
    group.finish();
}

criterion_group!(benches, print_recovery_rows, bench_recovery);
criterion_main!(benches);
