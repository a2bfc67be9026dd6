//! Fault-tolerant fleet benchmark: a steady Poisson stream lands on an
//! `R = 4` Fat-Tree QRAM fleet at `N = 4096`, `K = 4`, and one replica
//! crashes mid-run, restarting later in the same run.
//!
//! The reproduction artifact is one row per phase of the outage —
//! before the crash, during the outage, and after the rejoin — with
//! the per-phase availability (completed / offered, bucketing requests
//! by arrival instant) and response p99 (bucketing completions by
//! finish instant, since a query stranded by the crash arrives before
//! it but pays its failover backoff inside the outage window). The
//! headline claims are that
//! availability stays above zero straight through the crash (health
//! detection re-routes around the dead replica and in-flight queries
//! fail over under the retry budget) and that p99 recovers after the
//! replica replays its log and rejoins. The criterion timing measures
//! the full fault-injected serving loop (router + health monitor +
//! per-replica reactors + execution) against the fault-free loop on
//! the identical workload, pricing the failover machinery itself.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use qram_bench::{capacity, memory, record_scalar};
use qram_core::{QramModel, ShardedQram};
use qram_metrics::{Layers, TimingModel};
use qram_sched::{poisson_arrivals, FifoAdmission, TenantId};
use qram_serve::{
    ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig, FleetReport, FleetRequest,
    FleetWrite, QramFleet,
};
use qsim::branch::AddressState;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const N: u64 = 4096;
const ADDRESS_WIDTH: u32 = 12;
const SHARDS: u32 = 4;
const REPLICAS: usize = 4;
const REQUESTS: usize = 1280;
const SEED: u64 = 20260808;
/// Offered load as a fraction of the fleet's aggregate admission
/// capacity: enough headroom that the three survivors can absorb the
/// victim's share and drain the failover backlog within the run.
const LOAD_FACTOR: f64 = 0.4;
/// Crash and restart instants of the victim replica, in units of one
/// replica's admission interval (the workload spans ~`REQUESTS / 1.6`
/// intervals at [`LOAD_FACTOR`] of the fleet's aggregate capacity).
const CRASH_AT_INTERVALS: f64 = 200.0;
const RECOVER_AT_INTERVALS: f64 = 400.0;
/// Settle margin after the rejoin before completions count as "after":
/// the backlog the survivors queued during the outage drains here, and
/// that drain is the outage's impact, not steady state.
const SETTLE_INTERVALS: f64 = 160.0;
const VICTIM: usize = 1;

/// Admission interval of one K-shard replica under the paper timing model.
fn replica_interval() -> f64 {
    ShardedQram::fat_tree(capacity(N), SHARDS)
        .admission_interval(&TimingModel::paper_default())
        .get()
}

/// A steady Poisson stream at [`LOAD_FACTOR`] of the fleet's aggregate
/// admission capacity: headroom for the surviving replicas to absorb
/// the victim's share during the outage.
fn workload() -> Vec<FleetRequest> {
    let interval = replica_interval();
    let fleet_rate = REPLICAS as f64 / interval;
    let mut rng = StdRng::seed_from_u64(SEED);
    poisson_arrivals(LOAD_FACTOR * fleet_rate, REQUESTS, &mut rng)
        .into_iter()
        .enumerate()
        .map(|(id, r)| FleetRequest {
            id,
            tenant: TenantId(0),
            arrival: r.arrival,
            address: AddressState::classical(ADDRESS_WIDTH, rng.random_range(0..N))
                .expect("address in range"),
        })
        .collect()
}

fn fleet() -> QramFleet<qram_core::FatTreeQram> {
    QramFleet::new(
        ShardedQram::fat_tree(capacity(N), SHARDS),
        REPLICAS,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: Some(64),
            replication_lag: Layers::new(50.0),
        },
    )
}

/// The one-crash plan: the victim dies mid-run and restarts later, so a
/// single serving run exercises detection, failover, and rejoin.
fn crash_plan() -> FaultPlan {
    let interval = replica_interval();
    FaultPlan::none()
        .with(Fault::Crash {
            replica: VICTIM,
            at: Layers::new(CRASH_AT_INTERVALS * interval),
        })
        .with(Fault::Recover {
            replica: VICTIM,
            at: Layers::new(RECOVER_AT_INTERVALS * interval),
        })
}

/// p99 of a latency sample by rank (ceil interpolation), `None` when the
/// sample is empty.
fn p99_us(mut latencies: Vec<f64>) -> Option<f64> {
    if latencies.is_empty() {
        return None;
    }
    latencies.sort_by(f64::total_cmp);
    let rank = ((latencies.len() - 1) as f64 * 0.99).ceil() as usize;
    Some(latencies[rank])
}

/// Buckets a virtual instant into the outage phase it falls in.
fn phase_of(at: Layers, crash_at: Layers, recover_at: Layers) -> usize {
    if at < crash_at {
        0
    } else if at < recover_at {
        1
    } else {
        2
    }
}

fn print_fault_rows(_c: &mut Criterion) {
    let timing = TimingModel::paper_default();
    let interval = replica_interval();
    let crash_at = Layers::new(CRASH_AT_INTERVALS * interval);
    let recover_at = Layers::new(RECOVER_AT_INTERVALS * interval);
    let settled_at = Layers::new((RECOVER_AT_INTERVALS + SETTLE_INTERVALS) * interval);
    let mem = memory(N);
    let requests = workload();
    let plan = crash_plan();

    let mut fleet = fleet();
    let report: FleetReport = fleet
        .serve_with_faults(
            &mem,
            requests.clone(),
            Vec::<FleetWrite>::new(),
            &plan,
            &FaultConfig::default(),
        )
        .expect("fault-injected fleet run");

    let mut fault_free = self::fleet();
    let baseline: FleetReport = fault_free
        .serve(&mem, requests.clone(), Vec::<FleetWrite>::new())
        .expect("fault-free fleet run");

    let mut offered = [0usize; 3];
    for r in &requests {
        offered[phase_of(r.arrival, crash_at, recover_at)] += 1;
    }
    let mut completed = [0usize; 3];
    let mut latencies: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for q in report.completed() {
        completed[phase_of(q.arrival, crash_at, recover_at)] += 1;
        latencies[phase_of(q.finish, crash_at, settled_at)]
            .push(timing.layers_to_micros(q.response_latency()));
    }
    let mut baseline_latencies: [Vec<f64>; 3] = [Vec::new(), Vec::new(), Vec::new()];
    for q in baseline.completed() {
        baseline_latencies[phase_of(q.finish, crash_at, settled_at)]
            .push(timing.layers_to_micros(q.response_latency()));
    }

    let avail = report.availability();
    println!(
        "== QRAM fleet under faults, N = {N}, K = {SHARDS}, R = {REPLICAS}, {} requests, \
         replica {VICTIM} crashes at {:.0} and restarts at {:.0} layers ==",
        requests.len(),
        crash_at.get(),
        recover_at.get(),
    );
    println!(
        "crashes = {}, failovers = {}, retries = {}, recoveries = {}, mttr = {}",
        avail.crashes,
        avail.failovers,
        avail.retries,
        avail.recoveries,
        report
            .mttr()
            .map_or("n/a".to_string(), |m| format!("{:.0} layers", m.get())),
    );
    println!(
        "{:>7} {:>8} {:>9} {:>13} {:>9} {:>16}",
        "phase", "offered", "completed", "availability", "p99 (µs)", "fault-free (µs)"
    );
    for (phase, label) in ["before", "during", "after"].into_iter().enumerate() {
        let availability = if offered[phase] == 0 {
            1.0
        } else {
            completed[phase] as f64 / offered[phase] as f64
        };
        let p99 = p99_us(latencies[phase].clone());
        println!(
            "{:>7} {:>8} {:>9} {:>13.3} {:>9.1} {:>16.1}",
            label,
            offered[phase],
            completed[phase],
            availability,
            p99.unwrap_or(0.0),
            p99_us(baseline_latencies[phase].clone()).unwrap_or(0.0),
        );
        record_scalar(
            &format!("fleet_faults/r4_k4_n4096_crash_availability_{label}"),
            availability,
        );
        record_scalar(
            &format!("fleet_faults/r4_k4_n4096_crash_p99_us_{label}"),
            p99.unwrap_or(0.0),
        );
    }

    assert!(
        completed[1] > 0,
        "availability must stay above zero through the crash"
    );
    assert_eq!(avail.crashes, 1, "the plan crashes exactly one replica");
    assert_eq!(avail.recoveries, 1, "the victim must rejoin within the run");
    let after = p99_us(latencies[2].clone()).expect("after-phase completions");
    let after_baseline =
        p99_us(baseline_latencies[2].clone()).expect("fault-free after-phase completions");
    assert!(
        after <= 2.0 * after_baseline,
        "p99 must recover after the rejoin: {after:.1}µs vs fault-free {after_baseline:.1}µs"
    );
}

fn bench_fault_loop(c: &mut Criterion) {
    let mut group = c.benchmark_group("fleet_faults");
    let mem = memory(N);
    let requests = workload();
    let plan = crash_plan();
    let config = FaultConfig::default();
    for (label, active) in [("fault_free", false), ("one_crash", true)] {
        let run_plan = if active {
            plan.clone()
        } else {
            FaultPlan::none()
        };
        let mut fleet = fleet();
        group.bench_function(format!("r4_k4_n4096_{label}_{}q", requests.len()), |b| {
            b.iter_batched(
                || requests.clone(),
                |reqs| {
                    fleet
                        .serve_with_faults(&mem, reqs, Vec::<FleetWrite>::new(), &run_plan, &config)
                        .expect("fleet run")
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, print_fault_rows, bench_fault_loop);
criterion_main!(benches);
