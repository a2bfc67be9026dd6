//! Per-layer replays for the traced run.
//!
//! Each function re-runs one layer's share of a finished serve call
//! through that layer's public API, timed as spans under the serve
//! call's span, and checks that the replay reproduced what the call
//! reported. Attribution is only reported for replays that match.

use std::collections::BTreeMap;

use qram_core::store::{DurableFleet, SimDir};
use qram_core::{execute_batch_traced, QramModel, ReplicatedMemory, ReplicatedWrite};
use qram_metrics::{HistogramFamily, Layers};
use qram_sched::{AdmissionPolicy, FifoAdmission, TenantId};
use qram_serve::{
    ConsistentHashPlacement, EventQueue, Fault, FleetReport, PlacementPolicy, Replica,
    ReplicaEvent, ReplicaHealth, ReplicaLoad,
};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::inputs::{Fleet, Inputs, REPLICAS};
use crate::trace::Tracer;

/// Re-places every request with all replicas healthy and idle (the
/// consistent-hash ring ignores load). Returns whether each served query
/// landed where the replay routed it, unless a retry moved it or its
/// home replica was out of rotation when it arrived.
pub fn placement(
    tracer: &mut Tracer,
    parent: usize,
    inputs: &Inputs,
    report: &FleetReport,
) -> bool {
    let loads = [ReplicaLoad {
        queued: 0,
        in_flight: 0,
        has_room: true,
        health: ReplicaHealth::Healthy,
    }; REPLICAS];
    let mut targets: Vec<usize> = Vec::with_capacity(inputs.requests.len());
    tracer.span("fleet.placement", Some(parent), || {
        for request in &inputs.requests {
            targets.push(ConsistentHashPlacement.place(request, &loads));
        }
    });
    let outages = outages(inputs, report);
    report.completed().iter().all(|q| {
        let home = targets[q.id];
        let arrival = q.arrival.get();
        home == q.replica
            || q.attempts > 1
            || outages
                .iter()
                .any(|&(r, from, to)| r == home && from <= arrival && arrival < to)
    })
}

/// The windows in which a planned crash keeps a replica out of rotation,
/// as `(replica, from, to)` arrival times: from the crash until the
/// first arrival the replica serves after its recovery (it is not
/// routable while it replays the log), or forever if it never serves
/// again.
fn outages(inputs: &Inputs, report: &FleetReport) -> Vec<(usize, f64, f64)> {
    let faults = inputs.plan.faults();
    faults
        .iter()
        .filter_map(|f| match *f {
            Fault::Crash { replica, at } => Some((replica, at.get())),
            _ => None,
        })
        .map(|(r, crash)| {
            let recover = faults
                .iter()
                .filter_map(|f| match *f {
                    Fault::Recover { replica, at } if replica == r && at.get() >= crash => {
                        Some(at.get())
                    }
                    _ => None,
                })
                .fold(f64::INFINITY, f64::min);
            let rejoin = report
                .completed()
                .iter()
                .filter(|q| q.replica == r && q.arrival.get() >= recover)
                .map(|q| q.arrival.get())
                .fold(f64::INFINITY, f64::min);
            (r, crash, rejoin)
        })
        .collect()
}

/// Replica events per serve call and whether the replay matched.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaReplay {
    /// Arrivals offered plus reactor events popped, over all replicas.
    pub events: u64,
    /// Every query's (`start`, `finish`) equals the report's.
    pub verified: bool,
}

/// The reactor events a lone replica schedules.
#[derive(Debug)]
enum Event {
    Completion(usize),
    Poll,
}

/// Replays each replica's placed arrivals through the public
/// `Replica::offer/pump/complete/ack_poll` over its own `EventQueue`,
/// one span per replica.
pub fn replicas(
    tracer: &mut Tracer,
    parent: usize,
    fleet: &Fleet,
    inputs: &Inputs,
    report: &FleetReport,
) -> ReplicaReplay {
    let server = fleet.equivalent_server();
    let cap = FifoAdmission
        .in_flight_cap(&server)
        .clamp(1, server.parallelism());
    let backend = fleet.backend(0);
    let mut placed: Vec<Vec<(usize, TenantId, Layers, AddressState)>> = vec![Vec::new(); REPLICAS];
    let mut by_id: Vec<usize> = (0..report.completed().len()).collect();
    by_id.sort_by_key(|&i| report.completed()[i].id);
    for i in by_id {
        let q = &report.completed()[i];
        placed[q.replica].push((
            q.id,
            q.tenant,
            q.arrival,
            inputs.requests[q.id].address.clone(),
        ));
    }

    let mut timings: BTreeMap<usize, (Layers, Layers)> = BTreeMap::new();
    let mut events = 0u64;
    for arrivals in placed {
        let mut replica = Replica::new(
            backend.num_shards() as usize,
            backend.shard_parallelism(),
            server.interval(),
            server.latency(),
            cap,
            None,
        );
        let mut queue: EventQueue<Event> = EventQueue::new();
        let mut policy = FifoAdmission;
        tracer.span("replica.replay", Some(parent), || {
            let mut arrivals = arrivals.into_iter().peekable();
            loop {
                let arrival_is_next = match (arrivals.peek(), queue.peek_time()) {
                    (Some(a), Some(next)) => a.2 <= next,
                    (Some(_), None) => true,
                    (None, _) => false,
                };
                let now = if arrival_is_next {
                    let (id, tenant, at, address) = arrivals.next().expect("peeked");
                    replica.offer(id, id, tenant, at, None, address);
                    at
                } else if let Some((at, event)) = queue.pop() {
                    match event {
                        Event::Completion(index) => {
                            let record = replica.complete(index, at);
                            timings.insert(record.id, (record.start, record.finish));
                        }
                        Event::Poll => replica.ack_poll(at),
                    }
                    at
                } else {
                    break;
                };
                events += 1;
                replica.pump(now, &mut policy, |time, ev| match ev {
                    ReplicaEvent::Completion { index } => {
                        queue.push(time, Event::Completion(index))
                    }
                    ReplicaEvent::Poll => queue.push(time, Event::Poll),
                    ReplicaEvent::Expired { .. } => unreachable!("no deadlines are offered"),
                });
            }
        });
    }
    let verified = timings.len() == report.completed().len()
        && report.completed().iter().all(|q| {
            timings.get(&q.id).is_some_and(|&(s, f)| {
                s.get().to_bits() == q.start.get().to_bits()
                    && f.get().to_bits() == q.finish.get().to_bits()
            })
        });
    ReplicaReplay { events, verified }
}

/// One kernel batch: consecutive dispatches of one replica that observed
/// the same memory epoch, as the fleet executes them.
#[derive(Debug)]
struct Batch {
    replica: usize,
    epoch: u64,
    /// Indices into the report's completed list, in dispatch order.
    queries: Vec<usize>,
}

/// Splits the report's served queries into (replica, epoch) dispatch
/// groups, ordered by epoch so one memory image can advance through them.
fn batches(report: &FleetReport) -> Vec<Batch> {
    let completed = report.completed();
    let mut order: Vec<usize> = (0..completed.len()).collect();
    order.sort_by(|&a, &b| {
        (completed[a].replica, completed[a].start.get())
            .partial_cmp(&(completed[b].replica, completed[b].start.get()))
            .expect("finite instants")
    });
    let mut out: Vec<Batch> = Vec::new();
    for i in order {
        let q = &completed[i];
        match out.last_mut() {
            Some(b) if b.replica == q.replica && b.epoch == q.epoch => b.queries.push(i),
            _ => out.push(Batch {
                replica: q.replica,
                epoch: q.epoch,
                queries: vec![i],
            }),
        }
    }
    out.sort_by_key(|b| b.epoch);
    out
}

/// Kernel work per serve call and whether the replay matched.
#[derive(Debug, Clone, Copy, Default)]
pub struct KernelReplay {
    /// `execute_queries` calls.
    pub batches: u64,
    /// Queries executed.
    pub queries: u64,
    /// Basis branches executed.
    pub branches: u64,
    /// Every outcome equals the report's.
    pub verified: bool,
}

/// Walks the dispatch groups in epoch order, handing each the memory
/// image at its epoch (rebuilt from the benchmark's write stream).
fn for_each_batch(
    inputs: &Inputs,
    report: &FleetReport,
    mut run: impl FnMut(&Batch, &ClassicalMemory, Vec<AddressState>),
) {
    let mut memory = inputs.memory.clone();
    let mut applied = 0usize;
    for batch in batches(report) {
        let epoch = (batch.epoch as usize).min(inputs.writes.len());
        for w in &inputs.writes[applied.min(epoch)..epoch] {
            memory.write(w.address, w.value);
        }
        applied = applied.max(epoch);
        let addresses: Vec<AddressState> = batch
            .queries
            .iter()
            .map(|&i| inputs.requests[report.completed()[i].id].address.clone())
            .collect();
        run(&batch, &memory, addresses);
    }
}

/// Re-executes each dispatch group through the replica backend's
/// `execute_queries`, one span per group.
pub fn kernel(
    tracer: &mut Tracer,
    parent: usize,
    fleet: &Fleet,
    inputs: &Inputs,
    report: &FleetReport,
) -> KernelReplay {
    let mut replay = KernelReplay {
        verified: true,
        ..KernelReplay::default()
    };
    let outcomes = report.outcomes();
    for_each_batch(inputs, report, |batch, memory, addresses| {
        let result = tracer.span("sharded.execute", Some(parent), || {
            fleet
                .backend(batch.replica)
                .execute_queries(memory, &addresses, &[])
        });
        replay.batches += 1;
        replay.queries += addresses.len() as u64;
        replay.branches += addresses
            .iter()
            .map(|a| a.num_branches() as u64)
            .sum::<u64>();
        replay.verified &= result.is_ok_and(|got: Vec<QueryOutcome>| {
            got.len() == batch.queries.len()
                && got
                    .iter()
                    .zip(&batch.queries)
                    .all(|(o, &i)| *o == outcomes[i])
        });
    });
    replay
}

/// Memo-cache hit share of the dispatch groups, through
/// `execute_batch_traced` (untimed: it only counts).
pub fn memo_hit_ratio(fleet: &Fleet, inputs: &Inputs, report: &FleetReport) -> f64 {
    let (mut hits, mut total) = (0u64, 0u64);
    for_each_batch(inputs, report, |batch, memory, addresses| {
        let (_, stats) =
            execute_batch_traced(fleet.backend(batch.replica), memory, &addresses, &[])
                .expect("compiled plans cannot fail");
        hits += stats.hits;
        total += stats.hits + stats.misses;
    });
    if total == 0 {
        0.0
    } else {
        hits as f64 / total as f64
    }
}

/// Records every served latency per tenant and per replica, then reads
/// the merged quantiles. Returns whether they match the report's.
pub fn histograms(tracer: &mut Tracer, parent: usize, report: &FleetReport) -> bool {
    let (p50, p99) = tracer.span("histogram.record", Some(parent), || {
        let mut per_tenant: HistogramFamily<TenantId> = HistogramFamily::new();
        let mut per_replica: HistogramFamily<usize> = HistogramFamily::new();
        for q in report.completed() {
            per_tenant.record(q.tenant, q.response_latency());
            per_replica.record(q.replica, q.response_latency());
        }
        let merged = per_tenant.merged();
        let _ = per_replica.merged();
        (merged.try_quantile(0.5), merged.try_quantile(0.99))
    });
    let want = report.latency_histogram();
    p50 == want.try_quantile(0.5) && p99 == want.try_quantile(0.99)
}

/// Replays the write stream through `ReplicatedMemory::write_at` and a
/// `catch_up_to` of every replica. Returns the catch-up entries applied
/// and whether every replica converged on the oracle's final image.
pub fn replication(tracer: &mut Tracer, parent: usize, inputs: &Inputs) -> (u64, bool) {
    let mut replicated = ReplicatedMemory::new(inputs.memory.clone(), REPLICAS);
    let entries = tracer.span("replication.replay", Some(parent), || {
        let mut entries = 0u64;
        for w in &inputs.writes {
            let epoch = replicated.write_at(w.origin, w.address, w.value);
            for r in 0..REPLICAS {
                entries += replicated.catch_up_to(r, epoch);
            }
        }
        entries
    });
    let last = final_memory(inputs);
    let converged = (0..REPLICAS).all(|r| replicated.memory(r).cells() == last.cells());
    (entries, converged)
}

/// The memory image after every write.
pub fn final_memory(inputs: &Inputs) -> ClassicalMemory {
    let mut memory = inputs.memory.clone();
    for w in &inputs.writes {
        memory.write(w.address, w.value);
    }
    memory
}

/// Replays the write stream into a fresh store on `SimDir` under the
/// run's commit-group and checkpoint policies. A commit group is flushed
/// when it fills or, as the serving reactor's deadline would, when the
/// next write comes after the group's `max_delay`. Each store call is a
/// span named by what it did: `store.append` (buffered), `store.sync`,
/// or `store.sync_checkpoint`. Returns whether the store ends durable at
/// the final write with the oracle's image.
pub fn store(tracer: &mut Tracer, parent: usize, inputs: &Inputs) -> bool {
    let group = inputs.fault_config.group_commit;
    let mut store = inputs.fresh_store().with_group_commit(group);
    let root = tracer.open("store.replay", Some(parent));
    let mut opened: Option<f64> = None;
    let flush = |tracer: &mut Tracer, store: &mut DurableFleet| {
        let id = tracer.open("store.sync", Some(root));
        let summary = store.flush().expect("the in-memory directory cannot fail");
        tracer.close_as(id, sync_name(summary.checkpointed));
    };
    for (i, w) in inputs.writes.iter().enumerate() {
        if opened.is_some_and(|t| group.max_delay > 0.0 && w.at.get() > t + group.max_delay) {
            flush(tracer, &mut store);
            opened = None;
        }
        let record = ReplicatedWrite {
            epoch: i as u64 + 1,
            origin: w.origin,
            address: w.address,
            value: w.value,
        };
        let id = tracer.open("store.append", Some(root));
        let summary = store.append(&record).expect("contiguous epochs");
        if summary.synced_records > 0 {
            tracer.close_as(id, sync_name(summary.checkpointed));
            opened = None;
        } else {
            tracer.close(id);
            opened = opened.or(Some(w.at.get()));
        }
    }
    flush(tracer, &mut store);
    tracer.close(root);
    store.durable_epoch() == inputs.writes.len() as u64
        && store.shadow().cells() == final_memory(inputs).cells()
}

fn sync_name(checkpointed: bool) -> &'static str {
    if checkpointed {
        "store.sync_checkpoint"
    } else {
        "store.sync"
    }
}

/// Bytes the store's `SimDir` journal wrote after its first `skip` ops.
pub fn bytes_written(store: &mut DurableFleet, skip: usize) -> u64 {
    sim_dir(store).journal()[skip..]
        .iter()
        .map(|op| op.write_len() as u64)
        .sum()
}

/// The store's directory as the `SimDir` every benchmark store runs on.
pub fn sim_dir(store: &mut DurableFleet) -> &mut SimDir {
    store
        .dir_mut()
        .as_any_mut()
        .downcast_mut::<SimDir>()
        .expect("benchmark stores run on SimDir")
}
