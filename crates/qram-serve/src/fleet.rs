//! The multi-tenant QRAM fleet: a routing tier over `R` serving replicas
//! with epoch-replicated writes.
//!
//! [`QramFleet`] scales the §5 quantum-data-center service *out*: it runs
//! `R` independent [`Replica`] cores — each a full sharded QRAM with its
//! own dispatcher, admission interval, and pipeline slots — behind a
//! front-end router, all inside one discrete-event reactor:
//!
//! ```text
//!        tenant streams (quotas, SLO classes — qram-sched)
//!                     │
//!                     ▼
//!   ┌────────────────────────────────────┐  routing tier (this module)
//!   │ quota / SLO shedding  →  placement │  ConsistentHashPlacement
//!   └────────┬──────────┬──────────┬─────┘  LeastLoadedPlacement
//!            ▼          ▼          ▼
//!       ┌─────────┐┌─────────┐┌─────────┐   R replica cores
//!       │Replica 0││Replica 1││Replica 2│   (dispatch queues, I/K
//!       └────┬────┘└────┬────┘└────┬────┘    spacing, backpressure)
//!            ▼          ▼          ▼
//!       ┌────────────────────────────────┐  epoch-replicated memory
//!       │ ReplicatedMemory: fleet epoch, │  (qram-core): stale reads
//!       │ per-replica applied epochs     │  flagged, never silent
//!       └────────────────────────────────┘
//! ```
//!
//! * **Placement** is pluggable ([`PlacementPolicy`]):
//!   [`ConsistentHashPlacement`] routes by the query's principal address
//!   modulo `R` — the same residue-class interleave `ShardedQram` uses
//!   for shards, giving exact fairness on uniform address sweeps and
//!   stable address → replica affinity (memoized-read locality);
//!   [`LeastLoadedPlacement`] routes to the replica with the fewest
//!   queued + in-flight queries that still has queue room, so a shedding
//!   replica is never chosen while another can absorb the arrival.
//! * **Multi-tenancy** threads through the [`AdmissionPolicy`] stack's
//!   tenant hooks: a tenant at its outstanding-request quota is shed at
//!   the router ([`ShedReason::QuotaExceeded`]), and a sub-interactive
//!   [`SloClass`] only gets its class's share of a bounded replica queue
//!   ([`ShedReason::SloShed`]).
//! * **Writes** ([`FleetWrite`]) commit at one origin replica, bump the
//!   fleet epoch of a [`ReplicatedMemory`], and reach the other replicas
//!   one replication lag later. Every dispatch is stamped with its
//!   replica's applied epoch: queries that ran against a superseded
//!   memory version are reported with [`FleetQuery::stale`] set — the
//!   consistency contract is *detectability*, not freshness.
//!
//! With `R = 1`, no writes, and the default tenant, the fleet *is* the
//! §5 single-machine service: its timings equal the analytic
//! [`OnlineFifoScheduler`] on [`QramFleet::equivalent_server`] over the
//! accepted requests, and its outcomes equal the ideal query semantics
//! (property-tested in `tests/fleet.rs` and `tests/serving.rs`).
//!
//! **Fault tolerance.** [`QramFleet::serve_with_faults`] runs the same
//! loop under a deterministic [`FaultPlan`]: a per-replica health state
//! machine ([`ReplicaHealth`]) fed by heartbeat misses and
//! completion-latency assertions steers health-aware placement around
//! `Down` replicas; queries lost to a crash or a corrupted outcome are
//! re-dispatched under a capped exponential-backoff [`RetryPolicy`];
//! Interactive tenants may hedge; per-tenant deadlines convert unbounded
//! waiting into [`ShedReason::DeadlineExceeded`]; and an optional
//! [`BrownoutController`] sheds whole SLO classes, cheapest first, when
//! the routable fleet runs hot. Recovering replicas replay the
//! replication log before rejoining, so stale reads stay flagged across
//! failures. The empty plan with the default [`FaultConfig`] is
//! bit-identical to [`QramFleet::serve`]'s fault-free loop (pinned by
//! `tests/fleet_faults.rs` against [`QramFleet::serve_reference`]).
//!
//! Every entry point runs one loop: a run's reactor takes the earlier of
//! the next arrival and the next event and hands it to the one handler
//! for its kind (arrival, write, completion, crash, monitor tick, scrub
//! tick, …), which ends by pumping any dispatcher it unblocked.
//!
//! [`SloClass`]: qram_sched::SloClass
//! [`OnlineFifoScheduler`]: qram_sched::OnlineFifoScheduler
//! [`RetryPolicy`]: qram_sched::RetryPolicy

use std::collections::BTreeMap;
use std::fmt;

use qram_core::store::{frame, CheckpointPolicy, DurableFleet, SimDir, StoreError, SyncSummary};
use qram_core::{ExecError, QramModel, ReplicatedMemory, ReplicatedWrite, ShardedQram};
use qram_metrics::{
    AvailabilityCounters, HistogramFamily, IntegrityCounters, LatencyHistogram, Layers, QueryRate,
    TimingModel,
};
use qram_sched::{
    AdmissionPolicy, FifoAdmission, QramServer, QueryRequest, Schedule, SloClass, TenantId,
};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::fault::{
    corrupt_outcome, parity_bit, AdaptiveGroupCommit, BrownoutController, Fault, FaultConfig,
    FaultPlan, ReplicaHealth, ReplicationFate, LATENCY_MARGIN, REPLAY_PER_ENTRY,
};
use crate::reactor::EventQueue;
use crate::replica::{Replica, ReplicaEvent};

/// A user query arriving at the fleet router.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetRequest {
    /// Caller-chosen request identifier (reported back in the
    /// [`FleetReport`]; need not be unique).
    pub id: usize,
    /// The tenant issuing the query (quota and SLO lookups key on this).
    pub tenant: TenantId,
    /// Arrival instant in virtual layer time.
    pub arrival: Layers,
    /// The queried address superposition.
    pub address: AddressState,
}

/// A memory write submitted to the fleet: committed at `origin` when the
/// reactor reaches `at`, replicated everywhere one replication lag later.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetWrite {
    /// Commit instant in virtual layer time.
    pub at: Layers,
    /// The replica the write commits at synchronously.
    pub origin: usize,
    /// The written global cell address.
    pub address: u64,
    /// The written value.
    pub value: u64,
}

/// Configuration of the fleet router.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct FleetConfig {
    /// Per-replica bound on requests waiting in the dispatch queues.
    /// Arrivals beyond it (or beyond the tenant's SLO share of it) are
    /// shed. `None` queues without bound and disables SLO shedding.
    pub queue_capacity: Option<usize>,
    /// Delay between a write committing at its origin and every other
    /// replica applying it. Zero replicates within the same instant.
    pub replication_lag: Layers,
}

/// Why the router shed a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ShedReason {
    /// The placed replica's arrival queue was full.
    QueueFull,
    /// The tenant was at its outstanding-request quota.
    QuotaExceeded,
    /// The tenant's SLO class exhausted its share of the replica queue.
    SloShed,
    /// The query's per-tenant deadline passed before it could dispatch.
    DeadlineExceeded,
    /// Every dispatch attempt was lost (crash or corruption) and the
    /// retry backoff budget ran out.
    RetriesExhausted,
    /// The brownout controller was shedding the tenant's SLO class.
    Brownout,
    /// No routable (`Healthy` or `Suspect`) replica could take the query.
    NoHealthyReplica,
}

/// One shed request. Router sheds (quota, queue, SLO, brownout, no
/// healthy replica) append in arrival order; retry-budget and deadline
/// sheds append when they resolve, later in virtual time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShedRequest {
    /// The request identifier.
    pub id: usize,
    /// The tenant that issued it.
    pub tenant: TenantId,
    /// Why the router refused it.
    pub reason: ShedReason,
}

/// The load signal a [`PlacementPolicy`] ranks replicas by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaLoad {
    /// Requests waiting in the replica's dispatch queues.
    pub queued: usize,
    /// Queries in flight in the replica's shard pipelines.
    pub in_flight: u32,
    /// True when the replica's bounded arrival queue still has room.
    pub has_room: bool,
    /// The replica's health as seen by the fleet's failure detector
    /// (always [`ReplicaHealth::Healthy`] in the fault-free loop).
    pub health: ReplicaHealth,
}

impl ReplicaLoad {
    /// Queued plus in-flight: the scalar load of the replica.
    #[must_use]
    pub fn load(&self) -> usize {
        self.queued + self.in_flight as usize
    }

    /// True when the router may place new queries here.
    #[must_use]
    pub fn routable(&self) -> bool {
        self.health.routable()
    }
}

/// Chooses the replica a request is routed to.
pub trait PlacementPolicy {
    /// The replica index for `request` given the current per-replica
    /// loads (`loads.len()` is the fleet size, always ≥ 1). Must return
    /// an index below `loads.len()`.
    fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize;
}

/// Routes by the query's principal (first) basis address modulo the fleet
/// size — the same residue-class interleave [`ShardedQram`] uses across
/// shards, one level up.
///
/// Uniform cyclic address sweeps land exactly evenly (per-replica
/// dispatch counts never differ by more than one), and a given address
/// always revisits the same replica, so its memoized read stays hot.
/// When the home replica is not routable (`Down` or `Recovering`), the
/// ring probes linearly to the next routable replica — address affinity
/// degrades gracefully around failures and snaps back on rejoin. With
/// every replica healthy the probe never moves, so the fault-free route
/// is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConsistentHashPlacement;

impl PlacementPolicy for ConsistentHashPlacement {
    fn place(&self, request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
        let principal = request
            .address
            .iter()
            .next()
            .map_or(0, |&(_, address)| address);
        let home = (principal % loads.len() as u64) as usize;
        (0..loads.len())
            .map(|step| (home + step) % loads.len())
            .find(|&r| loads[r].routable())
            .unwrap_or(home)
    }
}

/// Routes to the replica with the smallest queued + in-flight load that
/// still has queue room (ties break deterministically to the lowest
/// index). `Suspect` replicas rank after healthy ones at equal load, and
/// non-routable replicas are excluded while any routable one exists; only
/// when every routable replica is full does it fall back to the
/// least-loaded routable one — a shedding replica is never chosen while
/// another could absorb the arrival.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LeastLoadedPlacement;

impl PlacementPolicy for LeastLoadedPlacement {
    fn place(&self, _request: &FleetRequest, loads: &[ReplicaLoad]) -> usize {
        let least = |indices: &mut dyn Iterator<Item = usize>| {
            indices.min_by_key(|&r| {
                (
                    loads[r].health == ReplicaHealth::Suspect,
                    loads[r].load(),
                    r,
                )
            })
        };
        least(&mut (0..loads.len()).filter(|&r| loads[r].routable() && loads[r].has_room))
            .or_else(|| least(&mut (0..loads.len()).filter(|&r| loads[r].routable())))
            .or_else(|| least(&mut (0..loads.len())))
            .expect("a fleet has at least one replica")
    }
}

/// One query served by the fleet, in completion order aligned with
/// [`FleetReport::outcomes`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetQuery {
    /// The request identifier.
    pub id: usize,
    /// The tenant that issued it.
    pub tenant: TenantId,
    /// Arrival instant at the router.
    pub arrival: Layers,
    /// Dispatch (admission) instant at the replica.
    pub start: Layers,
    /// Completion instant.
    pub finish: Layers,
    /// The replica that served the query.
    pub replica: usize,
    /// The shard within that replica.
    pub shard: usize,
    /// The memory epoch the replica had applied when the query
    /// dispatched.
    pub epoch: u64,
    /// True when the serving replica trailed the fleet epoch at dispatch:
    /// the read observed a superseded memory version. Stale results are
    /// always flagged, never silently reported as fresh.
    pub stale: bool,
    /// Dispatch attempts this query consumed, counting the first: `1` in
    /// fault-free serving, more when crashes or corrupted outcomes forced
    /// retries (hedges do not count against the attempt budget).
    pub attempts: u32,
}

impl FleetQuery {
    /// The latency the requester experienced: `finish − arrival`.
    #[must_use]
    pub fn response_latency(&self) -> Layers {
        self.finish - self.arrival
    }
}

/// Reactor events of the fleet, in virtual layer time. Arrivals live in a
/// sorted list merged against the heap (arrival-first at ties).
#[derive(Debug)]
enum Event {
    /// A write commits at its origin replica.
    Write(FleetWrite),
    /// The log prefix up to `epoch` reaches every replica.
    Replicate { epoch: u64 },
    /// The `index`-th query dispatched at `replica` leaves its pipeline.
    Completion { replica: usize, index: usize },
    /// Wake `replica`'s dispatcher at an admission-interval boundary.
    Poll { replica: usize },
    /// An injected [`Fault::Crash`] fires at `replica`.
    Crash { replica: usize },
    /// An injected [`Fault::Recover`] restarts `replica`.
    Recover { replica: usize },
    /// `replica` finished replaying the replication log and rejoins.
    RejoinDone { replica: usize },
    /// An injected [`Fault::StallShard`] window opens.
    StallStart { replica: usize, shard: usize },
    /// An injected [`Fault::StallShard`] window closes.
    StallEnd { replica: usize, shard: usize },
    /// The health monitor samples heartbeats and brownout occupancy.
    MonitorTick,
    /// The anti-entropy scrubber audits the WAL and compares each
    /// replica chunk against the durable chain.
    ScrubTick,
    /// The open commit group's flush deadline: land it even if it never
    /// fills. `seq` is the durability tier's sync count when the group
    /// opened — a later sync makes the firing stale.
    WalFlush { seq: u64 },
    /// An injected [`Fault::DiskCorrupt`] flips a bit in one replica
    /// memory cell, bypassing the replication log.
    DiskCorrupt { replica: usize, cell: u64 },
    /// A lost query's backoff elapsed: re-place and re-dispatch it.
    Retry { qid: usize },
    /// An Interactive query may deserve a duplicate dispatch.
    HedgeCheck { qid: usize },
    /// A queued copy of query `qid` expired at its deadline.
    Expired { qid: usize },
}

/// The outcome of one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    timing: TimingModel,
    completed: Vec<FleetQuery>,
    outcomes: Vec<QueryOutcome>,
    shed: Vec<ShedRequest>,
    per_replica_dispatches: Vec<u64>,
    per_tenant: HistogramFamily<TenantId>,
    per_replica: HistogramFamily<usize>,
    stale_served: u64,
    fleet_epoch: u64,
    availability: AvailabilityCounters,
    integrity: IntegrityCounters,
}

impl FleetReport {
    /// Served queries in completion order.
    #[must_use]
    pub fn completed(&self) -> &[FleetQuery] {
        &self.completed
    }

    /// Query outcomes aligned with [`Self::completed`].
    #[must_use]
    pub fn outcomes(&self) -> &[QueryOutcome] {
        &self.outcomes
    }

    /// Requests that were shed (see [`ShedRequest`] for ordering).
    #[must_use]
    pub fn shed(&self) -> &[ShedRequest] {
        &self.shed
    }

    /// Shed requests with the given reason.
    #[must_use]
    pub fn shed_count(&self, reason: ShedReason) -> usize {
        self.shed.iter().filter(|s| s.reason == reason).count()
    }

    /// Shed counts rolled up per reason (reasons that shed nothing are
    /// absent).
    #[must_use]
    pub fn shed_by_reason(&self) -> BTreeMap<ShedReason, usize> {
        let mut rollup = BTreeMap::new();
        for s in &self.shed {
            *rollup.entry(s.reason).or_insert(0) += 1;
        }
        rollup
    }

    /// The fault-tolerance ledger of the run: retries, hedges, failovers,
    /// detected corruptions, crashes, recoveries, and downtime. All zero
    /// for a fault-free run.
    #[must_use]
    pub fn availability(&self) -> &AvailabilityCounters {
        &self.availability
    }

    /// The durability ledger of the run: WAL appends, checkpoints, scrub
    /// cycles, chunk mismatches, and repairs. All zero for runs without
    /// disk faults, scrubbing, or an external durable store.
    #[must_use]
    pub fn integrity(&self) -> &IntegrityCounters {
        &self.integrity
    }

    /// Mean time to repair (crash → rejoin), or `None` when no replica
    /// completed a recovery.
    #[must_use]
    pub fn mttr(&self) -> Option<Layers> {
        self.availability.mttr()
    }

    /// Queries dispatched per replica.
    #[must_use]
    pub fn per_replica_dispatches(&self) -> &[u64] {
        &self.per_replica_dispatches
    }

    /// Per-tenant response-latency histograms, tenant-ordered.
    #[must_use]
    pub fn per_tenant(&self) -> &HistogramFamily<TenantId> {
        &self.per_tenant
    }

    /// Per-replica response-latency histograms, index-ordered.
    #[must_use]
    pub fn per_replica(&self) -> &HistogramFamily<usize> {
        &self.per_replica
    }

    /// The fleet-wide response-latency histogram (all tenants merged).
    #[must_use]
    pub fn latency_histogram(&self) -> LatencyHistogram {
        self.per_tenant.merged()
    }

    /// A response-latency quantile for one tenant, in the timing model's
    /// wall-clock microseconds.
    ///
    /// # Panics
    ///
    /// Panics if the tenant completed nothing or `q` is outside `[0, 1]`.
    #[must_use]
    pub fn tenant_latency_micros(&self, tenant: TenantId, q: f64) -> f64 {
        let histogram = self
            .per_tenant
            .get(tenant)
            .expect("tenant has completed queries");
        self.timing.layers_to_micros(histogram.quantile(q))
    }

    /// Queries served against a superseded memory version (and flagged).
    #[must_use]
    pub fn stale_served(&self) -> u64 {
        self.stale_served
    }

    /// The final fleet epoch: total writes committed during the run.
    #[must_use]
    pub fn fleet_epoch(&self) -> u64 {
        self.fleet_epoch
    }

    /// Completion instant of the last served query.
    #[must_use]
    pub fn makespan(&self) -> Layers {
        self.completed
            .iter()
            .map(|c| c.finish)
            .fold(Layers::ZERO, Layers::max)
    }

    /// The observation window: first arrival → last completion.
    /// [`Layers::ZERO`] when nothing completed.
    #[must_use]
    pub fn window(&self) -> Layers {
        let Some(first_arrival) = self.completed.iter().map(|c| c.arrival).reduce(Layers::min)
        else {
            return Layers::ZERO;
        };
        self.makespan() - first_arrival
    }

    /// Aggregate served queries per second under the fleet's timing
    /// model, over the first-arrival → makespan window;
    /// [`QueryRate::ZERO`] when nothing completed (never `NaN`).
    #[must_use]
    pub fn query_rate(&self) -> QueryRate {
        if self.completed.is_empty() {
            return QueryRate::ZERO;
        }
        QueryRate::new(self.completed.len() as f64 / self.timing.layers_to_seconds(self.window()))
    }

    /// The realized timings as a `qram-sched` [`Schedule`], for comparison
    /// against the analytic schedulers (at `R = 1` it equals
    /// `OnlineFifoScheduler` on the accepted requests).
    #[must_use]
    pub fn schedule(&self) -> Schedule {
        Schedule::from_entries(
            self.completed
                .iter()
                .map(|c| qram_sched::ScheduledQuery {
                    request: QueryRequest {
                        id: c.id,
                        arrival: c.arrival,
                    },
                    start: c.start,
                    finish: c.finish,
                })
                .collect(),
        )
    }
}

/// A multi-tenant fleet of `R` QRAM serving replicas behind a routing
/// tier, with epoch-replicated writes.
///
/// # Examples
///
/// ```
/// use qram_core::ShardedQram;
/// use qram_metrics::{Capacity, Layers, TimingModel};
/// use qram_sched::TenantId;
/// use qram_serve::{FleetRequest, QramFleet};
/// use qsim::branch::{AddressState, ClassicalMemory};
///
/// let qram = ShardedQram::fat_tree(Capacity::new(16)?, 2);
/// let mut fleet = QramFleet::fifo(qram, 2, TimingModel::paper_default());
/// let memory = ClassicalMemory::from_words(1, &[1; 16])?;
/// let requests: Vec<FleetRequest> = (0..8)
///     .map(|id| FleetRequest {
///         id,
///         tenant: TenantId::DEFAULT,
///         arrival: Layers::ZERO,
///         address: AddressState::classical(4, id as u64).unwrap(),
///     })
///     .collect();
/// let report = fleet.serve(&memory, requests, Vec::new())?;
/// assert_eq!(report.completed().len(), 8);
/// // The residue-class ring splits a uniform sweep exactly evenly.
/// assert_eq!(report.per_replica_dispatches(), &[4, 4]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct QramFleet<
    M: QramModel,
    P: AdmissionPolicy = FifoAdmission,
    L: PlacementPolicy = ConsistentHashPlacement,
> {
    backend: ShardedQram<M>,
    replicas: usize,
    timing: TimingModel,
    policy: P,
    placement: L,
    config: FleetConfig,
}

impl<M: QramModel> QramFleet<M, FifoAdmission, ConsistentHashPlacement> {
    /// A FIFO fleet of `replicas` replicas of `qram` under consistent-hash
    /// placement, unbounded queues, and instant replication.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn fifo(qram: ShardedQram<M>, replicas: usize, timing: TimingModel) -> Self {
        QramFleet::new(
            qram,
            replicas,
            timing,
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig::default(),
        )
    }
}

impl<M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> QramFleet<M, P, L> {
    /// A fleet of `replicas` replicas of `qram` with explicit admission
    /// policy, placement policy, and configuration.
    ///
    /// # Panics
    ///
    /// Panics if `replicas` is zero.
    #[must_use]
    pub fn new(
        qram: ShardedQram<M>,
        replicas: usize,
        timing: TimingModel,
        policy: P,
        placement: L,
        config: FleetConfig,
    ) -> Self {
        assert!(replicas >= 1, "a fleet needs at least one replica");
        QramFleet {
            backend: qram,
            replicas,
            timing,
            policy,
            placement,
            config,
        }
    }

    /// The fleet size `R`.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.replicas
    }

    /// The backend serving replica `replica`. Replicas are identical, so
    /// every index shares one backend.
    ///
    /// # Panics
    ///
    /// Panics if `replica` is out of range.
    #[must_use]
    pub fn backend(&self, replica: usize) -> &ShardedQram<M> {
        assert!(replica < self.replicas, "replica {replica} out of range");
        &self.backend
    }

    /// The pipelined server equivalent to each replica.
    #[must_use]
    pub fn equivalent_server(&self) -> QramServer {
        QramServer::for_model(&self.backend, &self.timing)
    }

    /// Serves a batch of requests (and write commits) to completion:
    /// routes every arrival through quota / SLO shedding and the
    /// placement policy onto a replica core, interleaves write commits
    /// and replication with dispatching in one discrete-event loop. Each
    /// query reads its replica's memory as it stood at dispatch: a
    /// replica's dispatches execute in batches against its live image,
    /// settled just before anything changes that image.
    ///
    /// Requests and writes may be supplied in any order (the reactor
    /// orders them by instant; same-instant arrivals precede write
    /// commits and completions, and writes among themselves keep supply
    /// order).
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    ///
    /// # Panics
    ///
    /// Panics if a request's address width mismatches the QRAM capacity,
    /// a write's origin replica or cell address is out of range, or the
    /// placement policy returns an out-of-range replica.
    pub fn serve(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
    ) -> Result<FleetReport, ExecError> {
        self.serve_with_faults(
            memory,
            requests,
            writes,
            &FaultPlan::none(),
            &FaultConfig::default(),
        )
    }

    /// The fault-free serving loop exactly as it stood before fault
    /// injection existed, kept verbatim as the bit-equality oracle:
    /// `tests/fleet_faults.rs` pins [`QramFleet::serve`] (which routes
    /// through [`QramFleet::serve_with_faults`] with an empty plan)
    /// against this loop — same schedules, same outcomes — for
    /// `R ∈ {1, 2, 4}`. Not part of the supported API.
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    #[doc(hidden)]
    // The frozen oracle stays one verbatim function; it is not refactored.
    #[allow(clippy::too_many_lines)]
    pub fn serve_reference(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
    ) -> Result<FleetReport, ExecError> {
        let num_replicas = self.replicas;
        let server = self.equivalent_server();
        let aggregate_cap = self
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let address_width = self.backend.capacity().address_width();
        let mut replicas: Vec<Replica> = (0..num_replicas)
            .map(|_| {
                Replica::new(
                    self.backend.num_shards() as usize,
                    self.backend.shard_parallelism(),
                    server.interval(),
                    server.latency(),
                    aggregate_cap,
                    self.config.queue_capacity,
                )
            })
            .collect();

        // Replicated memory + one snapshot per (replica, applied epoch):
        // a dispatched query executes against the exact memory version its
        // replica had applied at dispatch time.
        let mut replicated = ReplicatedMemory::new(memory.clone(), num_replicas);
        let mut snapshots: Vec<BTreeMap<u64, ClassicalMemory>> = (0..num_replicas)
            .map(|_| BTreeMap::from([(0, memory.clone())]))
            .collect();
        // Per-dispatch annotations, indexed [replica][dispatch index].
        let mut dispatch_epochs: Vec<Vec<u64>> = vec![Vec::new(); num_replicas];
        let mut stale_at_dispatch: Vec<Vec<bool>> = vec![Vec::new(); num_replicas];

        let mut arrivals: Vec<FleetRequest> = requests
            .into_iter()
            .inspect(|r| {
                assert_eq!(
                    r.address.address_width(),
                    address_width,
                    "request address width must match QRAM capacity"
                );
            })
            .collect();
        arrivals.sort_by(|a, b| {
            a.arrival
                .get()
                .partial_cmp(&b.arrival.get())
                .expect("event times are finite")
        });
        let total_requests = arrivals.len();
        let mut arrivals = arrivals.into_iter().peekable();

        let mut events: EventQueue<Event> = EventQueue::new();
        for write in writes {
            assert!(
                write.origin < num_replicas,
                "write origin replica {} out of range (R = {num_replicas})",
                write.origin
            );
            events.push(write.at, Event::Write(write));
        }

        let mut completed: Vec<FleetQuery> = Vec::with_capacity(total_requests);
        let mut shed: Vec<ShedRequest> = Vec::new();
        let mut outstanding: BTreeMap<TenantId, u32> = BTreeMap::new();
        let mut per_tenant: HistogramFamily<TenantId> = HistogramFamily::new();
        let mut per_replica: HistogramFamily<usize> = HistogramFamily::new();
        let mut stale_served = 0u64;

        loop {
            let arrival_is_next = match (arrivals.peek(), events.peek_time()) {
                (Some(request), Some(next)) => request.arrival <= next,
                (Some(_), None) => true,
                (None, _) => false,
            };
            // Which replica's dispatcher to pump after handling the event
            // (writes and replication never unblock a dispatcher).
            let mut pump: Option<usize> = None;
            let now;
            if arrival_is_next {
                let request = arrivals.next().expect("peeked arrival exists");
                now = request.arrival;
                let tenant = request.tenant;
                if self
                    .policy
                    .tenant_quota(tenant)
                    .is_some_and(|quota| outstanding.get(&tenant).copied().unwrap_or(0) >= quota)
                {
                    shed.push(ShedRequest {
                        id: request.id,
                        tenant,
                        reason: ShedReason::QuotaExceeded,
                    });
                } else {
                    let loads: Vec<ReplicaLoad> = replicas
                        .iter()
                        .map(|r| ReplicaLoad {
                            queued: r.queued(),
                            in_flight: r.in_flight(),
                            has_room: r.has_queue_room(),
                            health: ReplicaHealth::Healthy,
                        })
                        .collect();
                    let target = self.placement.place(&request, &loads);
                    assert!(
                        target < num_replicas,
                        "placement returned replica {target} of {num_replicas}"
                    );
                    let slo_bound = self
                        .config
                        .queue_capacity
                        .map(|cap| self.policy.tenant_slo(tenant).queue_bound(cap));
                    if slo_bound.is_some_and(|bound| replicas[target].queued() >= bound) {
                        let reason = if replicas[target].has_queue_room() {
                            ShedReason::SloShed
                        } else {
                            ShedReason::QueueFull
                        };
                        shed.push(ShedRequest {
                            id: request.id,
                            tenant,
                            reason,
                        });
                    } else {
                        let offered = replicas[target].offer(
                            request.id,
                            request.id,
                            tenant,
                            request.arrival,
                            None,
                            request.address,
                        );
                        debug_assert!(offered, "the SLO bound is at most the queue bound");
                        *outstanding.entry(tenant).or_insert(0) += 1;
                        pump = Some(target);
                    }
                }
            } else if let Some((at, event)) = events.pop() {
                now = at;
                match event {
                    Event::Write(write) => {
                        let epoch = replicated.write_at(write.origin, write.address, write.value);
                        let applied = replicated.applied_epoch(write.origin);
                        snapshots[write.origin]
                            .insert(applied, replicated.memory(write.origin).clone());
                        if num_replicas > 1 {
                            events.push(
                                now + self.config.replication_lag,
                                Event::Replicate { epoch },
                            );
                        }
                    }
                    Event::Replicate { epoch } => {
                        for (r, snaps) in snapshots.iter_mut().enumerate() {
                            if replicated.catch_up_to(r, epoch) > 0 {
                                snaps.insert(
                                    replicated.applied_epoch(r),
                                    replicated.memory(r).clone(),
                                );
                            }
                        }
                    }
                    Event::Completion { replica, index } => {
                        let tenant = replicas[replica].tenant_of(index);
                        let record = replicas[replica].complete(index, now);
                        let query = FleetQuery {
                            id: record.id,
                            tenant,
                            arrival: record.arrival,
                            start: record.start,
                            finish: record.finish,
                            replica,
                            shard: record.shard,
                            epoch: dispatch_epochs[replica][index],
                            stale: stale_at_dispatch[replica][index],
                            attempts: 1,
                        };
                        stale_served += u64::from(query.stale);
                        per_tenant.record(tenant, query.response_latency());
                        per_replica.record(replica, query.response_latency());
                        *outstanding.get_mut(&tenant).expect("tenant accepted") -= 1;
                        completed.push(query);
                        pump = Some(replica);
                    }
                    Event::Poll { replica } => {
                        replicas[replica].ack_poll(now);
                        pump = Some(replica);
                    }
                    Event::Crash { .. }
                    | Event::Recover { .. }
                    | Event::RejoinDone { .. }
                    | Event::StallStart { .. }
                    | Event::StallEnd { .. }
                    | Event::MonitorTick
                    | Event::ScrubTick
                    | Event::WalFlush { .. }
                    | Event::DiskCorrupt { .. }
                    | Event::Retry { .. }
                    | Event::HedgeCheck { .. }
                    | Event::Expired { .. } => {
                        unreachable!("the reference loop schedules no fault events")
                    }
                }
            } else {
                break;
            }
            if let Some(target) = pump {
                let range = replicas[target].pump(now, &mut self.policy, |time, ev| {
                    events.push(
                        time,
                        match ev {
                            ReplicaEvent::Completion { index } => Event::Completion {
                                replica: target,
                                index,
                            },
                            ReplicaEvent::Poll => Event::Poll { replica: target },
                            ReplicaEvent::Expired { .. } => {
                                unreachable!("the reference loop offers no deadlines")
                            }
                        },
                    );
                });
                // Stamp each new dispatch with the memory version its
                // replica observes and whether that version is stale.
                for _ in range {
                    dispatch_epochs[target].push(replicated.applied_epoch(target));
                    stale_at_dispatch[target].push(replicated.is_stale(target));
                }
            }
        }

        let per_replica_dispatches: Vec<u64> =
            replicas.iter().map(|r| r.dispatch_count() as u64).collect();
        debug_assert!(
            replicas.iter().all(|r| r.queued() == 0),
            "every accepted request dispatches"
        );
        debug_assert!(outstanding.values().all(|&n| n == 0));

        // Execute per replica: consecutive dispatches that observed the
        // same applied epoch form one batch against that version's
        // snapshot, flowing through the backend's compiled-plan hot path.
        let mut outcomes_by_replica: Vec<Vec<QueryOutcome>> = Vec::with_capacity(num_replicas);
        for (r, replica) in replicas.into_iter().enumerate() {
            let addresses = replica.into_addresses();
            let epochs = &dispatch_epochs[r];
            let mut outcomes: Vec<QueryOutcome> = Vec::with_capacity(addresses.len());
            let mut lo = 0;
            while lo < addresses.len() {
                let mut hi = lo + 1;
                while hi < addresses.len() && epochs[hi] == epochs[lo] {
                    hi += 1;
                }
                let snapshot = &snapshots[r][&epochs[lo]];
                outcomes.extend(
                    self.backend
                        .execute_queries(snapshot, &addresses[lo..hi], &[])?,
                );
                lo = hi;
            }
            outcomes_by_replica.push(outcomes);
        }
        // Align outcomes with the completion-ordered report: each replica
        // completes its dispatches in order, so one cursor per replica
        // walks its outcome list front to back.
        let mut cursors = vec![0usize; num_replicas];
        let outcomes: Vec<QueryOutcome> = completed
            .iter()
            .map(|c| {
                let outcome = outcomes_by_replica[c.replica][cursors[c.replica]].clone();
                cursors[c.replica] += 1;
                outcome
            })
            .collect();

        Ok(FleetReport {
            timing: self.timing,
            completed,
            outcomes,
            shed,
            per_replica_dispatches,
            per_tenant,
            per_replica,
            stale_served,
            fleet_epoch: replicated.fleet_epoch(),
            availability: AvailabilityCounters::default(),
            integrity: IntegrityCounters::default(),
        })
    }

    /// Serves a batch of requests under a deterministic [`FaultPlan`]:
    /// the fault-free loop of [`QramFleet::serve`] extended with a
    /// per-replica health state machine, crash failover, capped
    /// exponential-backoff retries, optional hedged dispatch for
    /// Interactive tenants, per-tenant deadlines, and brownout shedding
    /// (see the module docs), each in the handler of the event kind that
    /// drives it. Every admitted query ends exactly once in
    /// [`FleetReport::completed`] or [`FleetReport::shed`] — faults lose
    /// dispatch *attempts*, never queries.
    ///
    /// With the empty plan and the default [`FaultConfig`] this is
    /// bit-identical to the fault-free loop: no monitor or fault events
    /// enter the reactor, so the event heap pops in the same order and
    /// the schedules and outcomes match [`QramFleet::serve_reference`]
    /// exactly.
    ///
    /// # Errors
    ///
    /// Returns an error if query execution fails.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`QramFleet::serve`], if the plan
    /// names an out-of-range replica or shard, if monitoring is active
    /// (non-empty plan or a brownout controller) with a non-positive
    /// `monitor_interval`, or if scrubbing is active with a non-positive
    /// `scrub_interval` or a zero `scrub_chunk_cells`.
    pub fn serve_with_faults(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
    ) -> Result<FleetReport, ExecError> {
        match self.serve_faulty(memory, requests, writes, plan, fault_config, None) {
            Ok(report) => Ok(report),
            Err(DurableServeError::Exec(e)) => Err(e),
            // Without an external store the durability tier (when disk
            // faults or scrubbing activate it) runs on an in-memory
            // `SimDir`, which cannot fail I/O, and appends are contiguous
            // by construction.
            Err(DurableServeError::Store(e)) => {
                unreachable!("the ephemeral in-memory store cannot fail: {e}")
            }
            Err(DurableServeError::BaseMismatch) => {
                unreachable!("the ephemeral store is created from the run's memory")
            }
        }
    }

    /// [`QramFleet::serve_with_faults`] backed by a crash-consistent
    /// [`DurableFleet`] store: every committed write is appended to the
    /// store's write-ahead log (and checkpointed per its policy) before
    /// replication fans out, the Recovering → rejoin flow replays a
    /// restarted replica from the durable chain instead of the in-memory
    /// log, and [`FaultConfig::scrub_interval`] schedules anti-entropy
    /// scrubs that audit the WAL and compare each chunk of replica
    /// memory against the chain.
    ///
    /// The store's durable chain must end at `memory` (a fresh
    /// [`DurableFleet::create`] from the same image, or a recovered store
    /// whose shadow equals it); this run's fleet epoch `e` is persisted
    /// at store epoch `durable_epoch + e`.
    ///
    /// # Errors
    ///
    /// Returns [`DurableServeError::BaseMismatch`], before anything is
    /// appended, if the store's durable chain does not end at `memory`;
    /// [`DurableServeError::Exec`] if query execution fails; and
    /// [`DurableServeError::Store`] if the store's directory fails.
    ///
    /// # Panics
    ///
    /// As [`QramFleet::serve_with_faults`].
    pub fn serve_durable(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        fault_config: &FaultConfig,
        store: &mut DurableFleet,
    ) -> Result<FleetReport, DurableServeError> {
        if store.shadow().cells() != memory.cells() {
            return Err(DurableServeError::BaseMismatch);
        }
        self.serve_faulty(memory, requests, writes, plan, fault_config, Some(store))
    }

    fn serve_faulty(
        &mut self,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &FaultPlan,
        config: &FaultConfig,
        store: Option<&mut DurableFleet>,
    ) -> Result<FleetReport, DurableServeError> {
        let mut ephemeral = None;
        let durability = Durability::for_run(store, &mut ephemeral, memory, plan, config)?;
        let mut run = FleetRun::new(self, memory, requests, writes, plan, config, durability);
        // The reactor: the next arrival or the next event, whichever is
        // earlier (arrivals first at ties), until both run dry.
        loop {
            let next_event = run.events.peek_time();
            let first = run.arrivals.as_slice().first();
            if first.is_some_and(|r| next_event.is_none_or(|at| r.arrival <= at)) {
                let request = run.arrivals.next().expect("peeked arrival exists");
                run.arrive(request);
            } else if let Some((now, event)) = run.events.pop() {
                run.handle(now, event)?;
            } else {
                break;
            }
        }
        run.finish()
    }
}

/// Error from a durable serving run ([`QramFleet::serve_durable`]).
#[derive(Debug)]
pub enum DurableServeError {
    /// Query execution against a replica's memory failed.
    Exec(ExecError),
    /// The durable store's directory failed.
    Store(StoreError),
    /// The store's durable chain does not end at the run's starting
    /// memory, so this run's epochs would persist on the wrong base.
    BaseMismatch,
}

impl fmt::Display for DurableServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DurableServeError::Exec(e) => write!(f, "query execution failed: {e}"),
            DurableServeError::Store(e) => write!(f, "durable store failed: {e}"),
            DurableServeError::BaseMismatch => {
                write!(f, "the durable chain does not end at the starting memory")
            }
        }
    }
}

impl std::error::Error for DurableServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DurableServeError::Exec(e) => Some(e),
            DurableServeError::Store(e) => Some(e),
            DurableServeError::BaseMismatch => None,
        }
    }
}

impl From<ExecError> for DurableServeError {
    fn from(e: ExecError) -> Self {
        DurableServeError::Exec(e)
    }
}

impl From<StoreError> for DurableServeError {
    fn from(e: StoreError) -> Self {
        DurableServeError::Store(e)
    }
}

/// Bytes of a torn WAL append the lying disk keeps: header plus part of
/// the record payload, so the defect lands mid-frame.
const TORN_KEEP_BYTES: usize = frame::HEADER_LEN + 7;

/// The durability tier of one serving run: the WAL + checkpoint store
/// and the integrity ledger.
struct Durability<'a> {
    store: &'a mut DurableFleet,
    /// Fleet epoch `e` of this run lives at store epoch `wal_base + e`.
    wal_base: u64,
    /// The ledger's `wal_syncs` is the token of armed [`Event::WalFlush`]
    /// deadlines: one whose `seq` is behind it is stale.
    counters: IntegrityCounters,
    /// `counters.wal_appends` at the last monitor tick.
    appends_at_tick: u64,
    /// Fleet epochs already fanned out. Replication only fans out synced
    /// epochs (ack-at-sync); the watermark is monotone so a lying-disk
    /// rollback and re-append never fans an epoch out twice.
    repl_scheduled: u64,
}

impl<'a> Durability<'a> {
    /// The run's durability tier: the external store, or an ephemeral
    /// in-memory one when disk faults, scrubbing or adaptive group commit
    /// need a durable chain. `None` otherwise: the run touches no disk.
    fn for_run(
        store: Option<&'a mut DurableFleet>,
        ephemeral: &'a mut Option<DurableFleet>,
        memory: &ClassicalMemory,
        plan: &FaultPlan,
        config: &FaultConfig,
    ) -> Result<Option<Self>, StoreError> {
        let store = match store {
            Some(store) => store,
            None if plan.has_disk_faults()
                || config.scrub_interval.is_some()
                || config.adaptive_group_commit.is_some() =>
            {
                let dir = Box::new(SimDir::new());
                let fresh = DurableFleet::create_with(dir, memory, CheckpointPolicy::never())?;
                ephemeral.insert(fresh)
            }
            None => return Ok(None),
        };
        store.set_group_commit(config.group_commit);
        Ok(Some(Durability {
            wal_base: store.durable_epoch(),
            store,
            counters: IntegrityCounters::default(),
            appends_at_tick: 0,
            repl_scheduled: 0,
        }))
    }

    /// Folds one store [`SyncSummary`] into the integrity ledger.
    fn note(&mut self, summary: SyncSummary) {
        let counters = &mut self.counters;
        if summary.synced_records > 0 {
            counters.wal_syncs += 1;
            let records = summary.synced_records as u64;
            counters.max_group_records = counters.max_group_records.max(records);
        }
        if summary.checkpointed {
            if summary.delta {
                counters.delta_checkpoints += 1;
            } else {
                counters.checkpoints += 1;
            }
            counters.delta_chain_len = Some(self.store.delta_chain_len() as u64);
        }
    }

    /// Appends fleet write `w` to the WAL at its store epoch (under
    /// group commit it may buffer: the summary says if a sync landed).
    fn log(&mut self, w: &ReplicatedWrite) -> Result<SyncSummary, StoreError> {
        let stored = ReplicatedWrite {
            epoch: self.wal_base + w.epoch,
            ..*w
        };
        let summary = self.store.append(&stored)?;
        self.counters.wal_appends += 1;
        self.note(summary);
        Ok(summary)
    }

    /// Lands any buffered commit group now.
    fn flush(&mut self) -> Result<(), StoreError> {
        let summary = self.store.flush()?;
        self.note(summary);
        Ok(())
    }

    /// Lands the open commit group; returns the fleet epochs `(from, to]`
    /// it newly synced (a whole group may sync at once) and moves past them.
    fn flush_synced(&mut self) -> Result<(u64, u64), StoreError> {
        self.flush()?;
        let synced = self.store.durable_epoch().saturating_sub(self.wal_base);
        let from = self.repl_scheduled;
        self.repl_scheduled = from.max(synced);
        Ok((from, synced))
    }

    /// Adaptive group commit, once per monitor tick: double the group
    /// size while the tick's appends outran it, halve it when they filled
    /// at most half. Only the size moves, never the ack-at-sync point.
    fn retune(&mut self, bounds: AdaptiveGroupCommit) {
        let appends = self.counters.wal_appends - self.appends_at_tick;
        self.appends_at_tick = self.counters.wal_appends;
        let mut g = self.store.group_commit();
        let current = g.max_records;
        let next = if appends > current as u64 {
            current.saturating_mul(2).min(bounds.max_records)
        } else if appends <= (current as u64) / 2 {
            (current / 2).max(bounds.min_records)
        } else {
            current
        };
        if next != current {
            g.max_records = next.max(1);
            self.store.set_group_commit(g);
        }
    }

    /// Audits the on-disk WAL against the store's view: a torn tail is
    /// truncated, the watermark rolled back, and the lost acknowledged
    /// epochs re-appended from the fleet's in-memory log (each counted
    /// as a repair).
    fn audit_disk(&mut self, replicated: &ReplicatedMemory) -> Result<(), StoreError> {
        // Land the open group through the ledger first, so the store's
        // own pre-rescan flush has nothing left to sync invisibly.
        self.flush()?;
        let summary = self.store.rescan()?;
        if summary.truncated_bytes > 0 {
            self.counters.torn_tails_truncated += 1;
        }
        if summary.lost_epochs > 0 {
            let from = self.store.durable_epoch();
            for w in replicated.log() {
                if self.wal_base + w.epoch > from {
                    self.log(w)?;
                    self.counters.repairs += 1;
                }
            }
            // Re-appends buffer under the same group policy — the
            // audit's promise is a durable tail, so land them now.
            self.flush()?;
        }
        Ok(())
    }

    /// One anti-entropy scrub cycle: audit the WAL, then compare each
    /// chunk of every `live` replica's memory with the durable chain's
    /// image at its applied epoch (built once per distinct epoch),
    /// resetting a diverged replica to that image. The replica side is re-read every
    /// cycle: a [`Fault::DiskCorrupt`] flip bypasses the log.
    fn scrub(
        &mut self,
        replicated: &mut ReplicatedMemory,
        live: impl Iterator<Item = usize>,
        chunk_cells: usize,
    ) -> Result<(), StoreError> {
        self.counters.scrub_cycles += 1;
        self.audit_disk(replicated)?;
        // Visit replicas by applied epoch, so one image at a time serves
        // every replica at its epoch.
        let mut live: Vec<usize> = live.collect();
        live.sort_by_key(|&r| replicated.applied_epoch(r));
        let mut image: Option<(u64, Option<ClassicalMemory>)> = None;
        for r in live {
            let applied = replicated.applied_epoch(r);
            if image.as_ref().is_none_or(|&(epoch, _)| epoch != applied) {
                image = Some((applied, self.store.state_at(self.wal_base + applied)));
            }
            // An epoch already compacted behind a checkpoint is not
            // reconstructible — the replica is audited next cycle, once
            // catch-up moves it past the checkpoint watermark.
            let Some((_, Some(expected))) = &image else {
                continue;
            };
            let want = expected.cells().chunks(chunk_cells);
            let have = replicated.memory(r).cells().chunks(chunk_cells);
            self.counters.chunks_verified += have.len() as u64;
            let diverged = want.zip(have).filter(|(w, h)| w != h).count() as u64;
            if diverged > 0 {
                self.counters.mismatches += diverged;
                self.counters.repairs += 1;
                replicated.reset_replica(r, expected.clone(), applied);
            }
        }
        Ok(())
    }
}

/// Driver-private bookkeeping for one admitted query.
#[derive(Debug)]
struct QueryState {
    id: usize,
    tenant: TenantId,
    arrival: Layers,
    deadline: Option<Layers>,
    /// Kept for re-dispatch; `None` (no clone) unless faults or hedging.
    address: Option<AddressState>,
    /// Dispatch attempts consumed, counting the first.
    attempts: u32,
    /// Live copies: queued or in-flight offers of this query.
    outstanding: u32,
    /// Resolved — completed or shed. Terminal.
    done: bool,
    last_replica: usize,
    /// Where the query's one hedge went, once it has been hedged.
    hedge_replica: Option<usize>,
}

/// The fleet's record of one dispatch: the memory epoch its replica had
/// applied, whether that trailed the fleet epoch, and whether the
/// completion was consumed (or a crash failed the dispatch over).
#[derive(Debug, Clone, Copy)]
struct Dispatch {
    epoch: u64,
    stale: bool,
    handled: bool,
}

/// The failure detector's view of one replica.
#[derive(Debug, Clone)]
struct Liveness {
    alive: bool,
    health: ReplicaHealth,
    /// Consecutive monitor ticks that found the replica dead.
    misses: u32,
    down_since: Option<Layers>,
    /// When the replay completes; a re-crash clears it (and so the rejoin).
    rejoin_at: Option<f64>,
    /// Queries stranded by a crash, failed over on Down or recovery.
    stranded: Vec<usize>,
}

/// One serving run: the reactor's state, with one handler per [`Event`]
/// kind plus [`FleetRun::arrive`]. A handler that unblocks a dispatcher
/// ends by pumping it, so each pushes its events in one fixed order.
struct FleetRun<'a, M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> {
    fleet: &'a mut QramFleet<M, P, L>,
    plan: &'a FaultPlan,
    config: &'a FaultConfig,
    latency: Layers,
    /// Monitor ticks run; otherwise no monitor or fault event is queued.
    monitoring: bool,
    /// `None` on a one-replica fleet: it has no peer to fan writes to.
    replication_lag: Option<Layers>,
    /// Serving slots per replica: the denominator of brownout occupancy.
    replica_slots: usize,
    /// Arrivals not yet routed, in arrival order.
    arrivals: std::vec::IntoIter<FleetRequest>,
    events: EventQueue<Event>,
    replicas: Vec<Replica>,
    replicated: ReplicatedMemory,
    /// Outcomes of each replica's dispatches executed so far: a prefix of
    /// its dispatch order, extended by [`FleetRun::settle`].
    executed: Vec<Vec<QueryOutcome>>,
    dispatches: Vec<Vec<Dispatch>>,
    /// The load snapshot of the last placement.
    loads: Vec<ReplicaLoad>,
    live: Vec<Liveness>,
    states: Vec<QueryState>,
    /// Admitted queries not yet resolved.
    open: usize,
    brownout: Option<BrownoutController>,
    durability: Option<Durability<'a>>,
    counters: AvailabilityCounters,
    completed: Vec<FleetQuery>,
    /// `(replica, dispatch index)` of each completed query.
    completed_dispatch: Vec<(usize, usize)>,
    corrupted_served: Vec<(usize, usize)>,
    shed: Vec<ShedRequest>,
    outstanding: BTreeMap<TenantId, u32>,
}

impl<'a, M: QramModel, P: AdmissionPolicy, L: PlacementPolicy> FleetRun<'a, M, P, L> {
    /// Sets a run up, with its write, fault, monitor and scrub events.
    fn new(
        fleet: &'a mut QramFleet<M, P, L>,
        memory: &ClassicalMemory,
        requests: impl IntoIterator<Item = FleetRequest>,
        writes: impl IntoIterator<Item = FleetWrite>,
        plan: &'a FaultPlan,
        config: &'a FaultConfig,
        durability: Option<Durability<'a>>,
    ) -> Self {
        let num_replicas = fleet.replicas;
        let server = fleet.equivalent_server();
        let aggregate_cap = fleet
            .policy
            .in_flight_cap(&server)
            .clamp(1, server.parallelism());
        let queue_capacity = fleet.config.queue_capacity;
        let replica = || {
            Replica::new(
                fleet.backend.num_shards() as usize,
                fleet.backend.shard_parallelism(),
                server.interval(),
                server.latency(),
                aggregate_cap,
                queue_capacity,
            )
        };
        let address_width = fleet.backend.capacity().address_width();
        let mut arrivals: Vec<FleetRequest> = requests.into_iter().collect();
        assert!(
            arrivals
                .iter()
                .all(|r| r.address.address_width() == address_width),
            "request address width must match QRAM capacity"
        );
        arrivals.sort_by(|a, b| {
            a.arrival
                .get()
                .partial_cmp(&b.arrival.get())
                .expect("event times are finite")
        });
        let mut events = EventQueue::new();
        for write in writes {
            assert!(
                write.origin < num_replicas,
                "write origin replica {} out of range (R = {num_replicas})",
                write.origin
            );
            events.push(write.at, Event::Write(write));
        }
        let healthy = Liveness {
            alive: true,
            health: ReplicaHealth::Healthy,
            misses: 0,
            down_since: None,
            rejoin_at: None,
            stranded: Vec::new(),
        };
        let mut run = FleetRun {
            latency: server.latency(),
            monitoring: !plan.is_empty()
                || config.brownout.is_some()
                || config.adaptive_group_commit.is_some(),
            replication_lag: (num_replicas > 1).then_some(fleet.config.replication_lag),
            replica_slots: aggregate_cap as usize
                + queue_capacity.unwrap_or(4 * aggregate_cap as usize),
            states: Vec::with_capacity(arrivals.len()),
            completed: Vec::with_capacity(arrivals.len()),
            completed_dispatch: Vec::with_capacity(arrivals.len()),
            arrivals: arrivals.into_iter(),
            events,
            replicas: (0..num_replicas).map(|_| replica()).collect(),
            replicated: ReplicatedMemory::new(memory.clone(), num_replicas),
            executed: vec![Vec::new(); num_replicas],
            dispatches: vec![Vec::new(); num_replicas],
            loads: Vec::with_capacity(num_replicas),
            live: vec![healthy; num_replicas],
            open: 0,
            brownout: config.brownout.map(BrownoutController::new),
            durability,
            counters: AvailabilityCounters::default(),
            corrupted_served: Vec::new(),
            shed: Vec::new(),
            outstanding: BTreeMap::new(),
            fleet,
            plan,
            config,
        };
        run.schedule_faults();
        run
    }

    /// Queues the plan's timed faults and the first monitor and scrub
    /// ticks, for a run that monitors or scrubs at all.
    fn schedule_faults(&mut self) {
        let num_replicas = self.replicas.len();
        let num_shards = self.fleet.backend.num_shards() as usize;
        if self.monitoring {
            assert!(
                self.config.monitor_interval.get() > 0.0,
                "monitoring needs a positive monitor interval"
            );
            for fault in self.plan.faults() {
                let (replica, timed) = match *fault {
                    Fault::Crash { replica, at } => (replica, Some((at, Event::Crash { replica }))),
                    Fault::Recover { replica, at } => {
                        (replica, Some((at, Event::Recover { replica })))
                    }
                    Fault::StallShard {
                        replica,
                        shard,
                        from,
                        until,
                    } => {
                        assert!(shard < num_shards, "stall names shard {shard}");
                        self.events.push(from, Event::StallStart { replica, shard });
                        (replica, Some((until, Event::StallEnd { replica, shard })))
                    }
                    Fault::DiskCorrupt { replica, at, cell } => {
                        (replica, Some((at, Event::DiskCorrupt { replica, cell })))
                    }
                    Fault::SlowReplica { replica, .. } | Fault::CorruptOutcome { replica, .. } => {
                        (replica, None)
                    }
                    Fault::DropReplication { .. }
                    | Fault::DelayReplication { .. }
                    | Fault::TornWrite { .. } => continue,
                };
                assert!(replica < num_replicas, "fault names replica {replica}");
                if let Some((at, event)) = timed {
                    self.events.push(at, event);
                }
            }
            let first_tick = self.config.monitor_interval;
            self.events.push(first_tick, Event::MonitorTick);
        }
        if let (Some(interval), Some(_)) = (self.config.scrub_interval, &self.durability) {
            assert!(
                interval.get() > 0.0,
                "scrubbing needs a positive scrub interval"
            );
            assert!(
                self.config.scrub_chunk_cells > 0,
                "scrub chunks must hold at least one cell"
            );
            self.events.push(interval, Event::ScrubTick);
        }
    }

    /// Dispatches one reactor event to its handler.
    fn handle(&mut self, now: Layers, event: Event) -> Result<(), DurableServeError> {
        match event {
            Event::Write(write) => self.write(write, now)?,
            Event::Replicate { epoch } => self.replicate(epoch)?,
            Event::Completion { replica, index } => self.complete(replica, index, now),
            Event::Poll { replica } => self.poll(replica, now),
            Event::Crash { replica } => self.crash(replica, now),
            Event::Recover { replica } => self.recover(replica, now),
            Event::RejoinDone { replica } => self.rejoin(replica, now)?,
            Event::StallStart { replica, shard } => self.stall(replica, shard, true, now),
            Event::StallEnd { replica, shard } => self.stall(replica, shard, false, now),
            Event::MonitorTick => self.monitor(now),
            Event::ScrubTick => self.scrub_tick(now)?,
            Event::WalFlush { seq } => self.wal_flush(seq, now)?,
            Event::DiskCorrupt { replica, cell } => self.disk_corrupt(replica, cell)?,
            Event::Retry { qid } => self.retry(qid, now),
            Event::HedgeCheck { qid } => self.hedge(qid, now),
            Event::Expired { qid } => self.expire(qid),
        }
        Ok(())
    }

    /// Routes an arrival onto a replica, or sheds it at the router.
    fn arrive(&mut self, request: FleetRequest) {
        match self.route(&request) {
            Ok(target) => self.admit(request, target),
            Err(reason) => self.shed.push(ShedRequest {
                id: request.id,
                tenant: request.tenant,
                reason,
            }),
        }
    }

    /// The replica to queue an arrival at, or why the router sheds it.
    fn route(&mut self, request: &FleetRequest) -> Result<usize, ShedReason> {
        let policy = &self.fleet.policy;
        let slo = policy.tenant_slo(request.tenant);
        let in_use = self.outstanding.get(&request.tenant).copied();
        if self.brownout.is_some_and(|c| c.sheds(slo)) {
            return Err(ShedReason::Brownout);
        }
        let quota = policy.tenant_quota(request.tenant);
        if quota.is_some_and(|quota| in_use.unwrap_or(0) >= quota) {
            return Err(ShedReason::QuotaExceeded);
        }
        let queue_capacity = self.fleet.config.queue_capacity;
        let slo_bound = queue_capacity.map(|cap| slo.queue_bound(cap));
        let target = self.place(request);
        let replica = &self.replicas[target];
        if !self.loads[target].routable() {
            Err(ShedReason::NoHealthyReplica)
        } else if slo_bound.is_some_and(|bound| replica.queued() >= bound) {
            Err(if replica.has_queue_room() {
                ShedReason::SloShed
            } else {
                ShedReason::QueueFull
            })
        } else {
            Ok(target)
        }
    }

    /// Queues a routed arrival at `target` as a new query. Only a fault
    /// or a hedge offers a query again, so only then is its address kept.
    fn admit(&mut self, request: FleetRequest, target: usize) {
        let qid = self.states.len();
        let (tenant, arrival) = (request.tenant, request.arrival);
        let policy = &self.fleet.policy;
        let deadline = policy.tenant_deadline(tenant).map(|b| arrival + b);
        let hedge_at = self.config.hedge_delay.map(|delay| arrival + delay);
        let hedge_at = hedge_at.filter(|_| policy.tenant_slo(tenant) == SloClass::Interactive);
        let keep = !self.plan.is_empty() || self.config.hedge_delay.is_some();
        self.states.push(QueryState {
            id: request.id,
            tenant,
            arrival,
            deadline,
            address: keep.then(|| request.address.clone()),
            attempts: 1,
            outstanding: 1,
            done: false,
            last_replica: target,
            hedge_replica: None,
        });
        let offered = self.offer_copy(qid, target, request);
        debug_assert!(offered, "the SLO bound is at most the queue bound");
        *self.outstanding.entry(tenant).or_insert(0) += 1;
        self.open += 1;
        if let Some(at) = hedge_at {
            self.events.push(at, Event::HedgeCheck { qid });
        }
        self.pump(target, arrival);
    }

    /// Snapshots the replicas' loads and asks the placement policy.
    fn place(&mut self, request: &FleetRequest) -> usize {
        self.loads.clear();
        for (r, live) in self.replicas.iter().zip(&self.live) {
            self.loads.push(ReplicaLoad {
                queued: r.queued(),
                in_flight: r.in_flight(),
                has_room: r.has_queue_room(),
                health: live.health,
            });
        }
        let target = self.fleet.placement.place(request, &self.loads);
        let num_replicas = self.loads.len();
        assert!(
            target < num_replicas,
            "placement returned replica {target} of {num_replicas}"
        );
        target
    }

    /// Runs a live replica's dispatcher and records each new dispatch.
    fn pump(&mut self, target: usize, now: Layers) {
        if !self.live[target].alive {
            return;
        }
        let (plan, latency, has_slow) = (self.plan, self.latency, self.plan.has_slow_faults());
        let events = &mut self.events;
        let range = self.replicas[target].pump(now, &mut self.fleet.policy, |time, ev| match ev {
            ReplicaEvent::Completion { index } => {
                // A slow-replica window stretches the service time of
                // completions starting inside it (guarded so the
                // fault-free path never round-trips the timestamp through
                // float arithmetic).
                let mut at = time;
                if has_slow {
                    let start = time - latency;
                    let factor = plan.slow_factor(target, start);
                    if factor != 1.0 {
                        at = start + Layers::new(latency.get() * factor);
                    }
                }
                let replica = target;
                events.push(at, Event::Completion { replica, index });
            }
            ReplicaEvent::Poll => events.push(time, Event::Poll { replica: target }),
            ReplicaEvent::Expired { tag } => events.push(time, Event::Expired { qid: tag }),
        });
        let dispatch = Dispatch {
            epoch: self.replicated.applied_epoch(target),
            stale: self.replicated.is_stale(target),
            handled: false,
        };
        self.dispatches[target].extend(range.map(|_| dispatch));
    }

    /// Executes replica `r`'s unexecuted dispatches against its live
    /// memory: called before anything changes it, so every query reads
    /// the image its replica held at dispatch.
    fn settle(&mut self, r: usize) -> Result<(), ExecError> {
        let addresses = &self.replicas[r].addresses()[self.executed[r].len()..];
        if !addresses.is_empty() {
            let memory = self.replicated.memory(r);
            let outcomes = self.fleet.backend.execute_queries(memory, addresses, &[])?;
            self.executed[r].extend(outcomes);
        }
        Ok(())
    }

    /// Fans replication out for fleet epochs `(from, to]`, per the plan.
    fn fan_out(&mut self, from: u64, to: u64, now: Layers) {
        let Some(lag) = self.replication_lag else {
            return;
        };
        for epoch in from + 1..=to {
            let at = match self.plan.replication_fate(epoch) {
                ReplicationFate::Deliver => now + lag,
                ReplicationFate::Drop => continue,
                ReplicationFate::Delay(by) => now + lag + by,
            };
            self.events.push(at, Event::Replicate { epoch });
        }
    }

    /// Lands a durable run's open commit group and fans out what it synced.
    fn flush_and_replicate(&mut self, now: Layers) -> Result<(), StoreError> {
        if let Some(d) = self.durability.as_mut() {
            let (from, to) = d.flush_synced()?;
            self.fan_out(from, to, now);
        }
        Ok(())
    }

    /// A write commits — at the first live replica if its origin is down,
    /// so writes survive crashes of the client's affinity target.
    fn write(&mut self, write: FleetWrite, now: Layers) -> Result<(), DurableServeError> {
        let origin = if self.live[write.origin].alive {
            write.origin
        } else {
            let live = self.live.iter().position(|live| live.alive);
            live.unwrap_or(write.origin)
        };
        self.settle(origin)?;
        let epoch = self.replicated.write_at(origin, write.address, write.value);
        let Some(d) = self.durability.as_mut() else {
            self.fan_out(epoch - 1, epoch, now);
            return Ok(());
        };
        // Log the write before replication fans out. A planned torn write
        // arms the lying disk: the append reports success, the platter
        // keeps a partial record, and a later scrub's rescan repairs it.
        if self.plan.tears(epoch) {
            d.store.dir_mut().tear_next_write(TORN_KEEP_BYTES);
        }
        let w = *self
            .replicated
            .log()
            .last()
            .expect("the write just committed");
        let delay = d.store.group_commit().max_delay;
        if d.log(&w)?.synced_records > 0 {
            // Ack-at-sync: replication only fans out from synced epochs.
            // The group just landed, so the flush finds it empty.
            self.flush_and_replicate(now)?;
        } else if d.store.pending_records() == 1 && delay > 0.0 {
            // This write opened a commit group: arm its flush deadline so
            // a lull in writes cannot hold the acknowledgment hostage.
            let seq = d.counters.wal_syncs;
            self.events
                .push(now + Layers::new(delay), Event::WalFlush { seq });
        }
        Ok(())
    }

    /// The log prefix up to `epoch` reaches every live replica (the dead
    /// catch up by replay before they rejoin).
    fn replicate(&mut self, epoch: u64) -> Result<(), ExecError> {
        for r in 0..self.replicas.len() {
            if self.live[r].alive && self.replicated.applied_epoch(r) < epoch {
                self.settle(r)?;
                self.replicated.catch_up_to(r, epoch);
            }
        }
        Ok(())
    }

    /// A dispatch leaves its pipeline: its query completes, unless a
    /// crash failed it over, its outcome is corrupted, or a hedge won.
    fn complete(&mut self, replica: usize, index: usize, now: Layers) {
        let dispatch = &mut self.dispatches[replica][index];
        if dispatch.handled {
            return;
        }
        dispatch.handled = true;
        let Dispatch { epoch, stale, .. } = *dispatch;
        let qid = self.replicas[replica].tag_of(index);
        let tenant = self.replicas[replica].tenant_of(index);
        let record = self.replicas[replica].complete(index, now);
        let health = &mut self.live[replica].health;
        if self.monitoring
            && *health == ReplicaHealth::Healthy
            && (record.finish - record.start).get() > self.latency.get() * LATENCY_MARGIN
        {
            // Completion-latency assertion: a replica serving far over
            // nominal is suspect.
            *health = ReplicaHealth::Suspect;
        }
        let state = &mut self.states[qid];
        if self.plan.corrupts(replica, index) {
            self.corrupted_served.push((replica, index));
            self.lose_attempt(qid, now);
        } else if state.done {
            state.outstanding = state.outstanding.saturating_sub(1);
        } else {
            state.done = true;
            state.outstanding = state.outstanding.saturating_sub(1);
            self.counters.hedge_wins += u64::from(state.hedge_replica == Some(replica));
            self.completed.push(FleetQuery {
                id: state.id,
                tenant,
                arrival: state.arrival,
                start: record.start,
                finish: record.finish,
                replica,
                shard: record.shard,
                epoch,
                stale,
                attempts: state.attempts,
            });
            self.completed_dispatch.push((replica, index));
            *self.outstanding.get_mut(&tenant).expect("tenant admitted") -= 1;
            self.open -= 1;
        }
        self.pump(replica, now);
    }

    /// Wakes a dispatcher. (A crash cleared a dead replica's poll latch,
    /// so the ack is a no-op there, and a dead replica never pumps.)
    fn poll(&mut self, replica: usize, now: Layers) {
        self.replicas[replica].ack_poll(now);
        self.pump(replica, now);
    }

    /// A replica dies: its queued and in-flight queries strand there.
    fn crash(&mut self, replica: usize, now: Layers) {
        let live = &mut self.live[replica];
        if !live.alive {
            return;
        }
        live.alive = false;
        live.down_since = Some(now);
        live.rejoin_at = None;
        self.counters.crashes += 1;
        for qid in self.replicas[replica].fail() {
            self.strand(qid, replica);
        }
        for index in 0..self.dispatches[replica].len() {
            let dispatch = &mut self.dispatches[replica][index];
            if !dispatch.handled {
                dispatch.handled = true;
                self.strand(self.replicas[replica].tag_of(index), replica);
            }
        }
    }

    /// A replica restarts: its stranded queries fail over, and it replays.
    fn recover(&mut self, replica: usize, now: Layers) {
        let live = &mut self.live[replica];
        if live.alive {
            return;
        }
        live.alive = true;
        live.health = ReplicaHealth::Recovering;
        live.misses = 0;
        self.fail_over(replica, now);
        let replay = Layers::new(REPLAY_PER_ENTRY * self.replicated.lag(replica) as f64);
        self.live[replica].rejoin_at = Some((now + replay).get());
        self.events
            .push(now + replay, Event::RejoinDone { replica });
    }

    /// A replay finished: the replica rejoins, fully caught up — unless
    /// it crashed again meanwhile, which makes this firing stale.
    fn rejoin(&mut self, replica: usize, now: Layers) -> Result<(), DurableServeError> {
        let live = &mut self.live[replica];
        if !live.alive || live.rejoin_at != Some(now.get()) {
            return Ok(());
        }
        live.rejoin_at = None;
        self.settle(replica)?;
        // Land the open commit group so the audit sees the whole synced
        // prefix, then replay from disk (the chain's image at its
        // watermark) and the in-memory log past it (all of it, without a
        // durability tier).
        self.flush_and_replicate(now)?;
        if let Some(d) = self.durability.as_mut() {
            d.audit_disk(&self.replicated)?;
            let durable = d.store.durable_epoch() - d.wal_base;
            if durable > self.replicated.applied_epoch(replica) {
                let image = d.store.shadow().clone();
                self.replicated.reset_replica(replica, image, durable);
            }
        }
        self.replicated.catch_up(replica);
        let live = &mut self.live[replica];
        live.health = ReplicaHealth::Healthy;
        self.counters.recoveries += 1;
        if let Some(since) = live.down_since.take() {
            self.counters.record_downtime(now - since);
        }
        self.pump(replica, now);
        Ok(())
    }

    /// A shard's dispatch queue freezes, or thaws and is re-pumped.
    fn stall(&mut self, replica: usize, shard: usize, stalled: bool, now: Layers) {
        self.replicas[replica].set_shard_stall(shard, stalled);
        if !stalled {
            self.pump(replica, now);
        }
    }

    /// Samples heartbeats, feeds brownout the routable fleet's occupancy
    /// and retunes group commit; re-armed while work remains.
    fn monitor(&mut self, now: Layers) {
        for r in 0..self.replicas.len() {
            self.heartbeat(r, now);
        }
        if let Some(controller) = self.brownout.as_mut() {
            let (mut load, mut routable) = (0, 0);
            for (replica, live) in self.replicas.iter().zip(&self.live) {
                if live.health.routable() {
                    load += replica.load();
                    routable += 1;
                }
            }
            let slots = routable * self.replica_slots;
            let occupancy = (slots > 0).then(|| load as f64 / slots as f64);
            controller.observe(occupancy.unwrap_or(1.0));
        }
        if let (Some(bounds), Some(d)) = (self.config.adaptive_group_commit, &mut self.durability) {
            d.retune(bounds);
        }
        if self.busy() {
            let at = now + self.config.monitor_interval;
            self.events.push(at, Event::MonitorTick);
        }
    }

    /// A live replica clears its misses and any Suspect verdict; a dead
    /// one is Suspect at one miss and Down, failing everything over, at two.
    fn heartbeat(&mut self, r: usize, now: Layers) {
        let live = &mut self.live[r];
        if live.alive {
            live.misses = 0;
            if live.health == ReplicaHealth::Suspect {
                live.health = ReplicaHealth::Healthy;
            }
            return;
        }
        live.misses += 1;
        match (live.health, live.misses) {
            (ReplicaHealth::Down, _) => {}
            (_, 1) => live.health = ReplicaHealth::Suspect,
            _ => {
                live.health = ReplicaHealth::Down;
                // Scoop queries offered between the crash and its
                // detection, then fail everything stranded here over.
                for qid in self.replicas[r].fail() {
                    self.strand(qid, r);
                }
                self.fail_over(r, now);
            }
        }
    }

    /// A scrub cycle of a durable run, after landing the open commit group
    /// so disk and memory describe the same prefix; re-armed while busy.
    fn scrub_tick(&mut self, now: Layers) -> Result<(), DurableServeError> {
        self.flush_and_replicate(now)?;
        self.settle_and_scrub()?;
        if let (Some(interval), true) = (self.config.scrub_interval, self.busy()) {
            self.events.push(now + interval, Event::ScrubTick);
        }
        Ok(())
    }

    /// A commit group's flush deadline: stale when a fuller group synced
    /// since (`seq` moved on) or the group emptied.
    fn wal_flush(&mut self, seq: u64, now: Layers) -> Result<(), StoreError> {
        let due = |d: &Durability| d.counters.wal_syncs == seq && d.store.pending_records() > 0;
        if self.durability.as_ref().is_some_and(due) {
            self.flush_and_replicate(now)?;
        }
        Ok(())
    }

    /// A bit flips in a live replica image, bypassing the log: only a
    /// scrub finds it. Dispatches settled first read the clean cell.
    fn disk_corrupt(&mut self, replica: usize, cell: u64) -> Result<(), ExecError> {
        self.settle(replica)?;
        let cells = self.replicated.memory(replica).cells().len() as u64;
        self.replicated.corrupt_replica_cell(replica, cell % cells);
        Ok(())
    }

    /// Re-places a lost query after its backoff. A failed placement still
    /// consumes an attempt, so the budget bounds the loop.
    fn retry(&mut self, qid: usize, now: Layers) {
        if self.states[qid].done {
            return;
        }
        let request = self.request_of(qid);
        let target = self.place(&request);
        let offered = self.loads[target].routable() && self.offer_copy(qid, target, request);
        let state = &mut self.states[qid];
        state.attempts += 1;
        if offered {
            state.outstanding += 1;
            state.last_replica = target;
            self.pump(target, now);
        } else {
            self.lose_attempt(qid, now);
        }
    }

    /// One duplicate dispatch, on the least-loaded other routable replica
    /// with room, for a query still outstanding; the first copy wins.
    fn hedge(&mut self, qid: usize, now: Layers) {
        let state = &self.states[qid];
        if state.done || state.outstanding != 1 || state.hedge_replica.is_some() {
            return;
        }
        let candidate = (0..self.replicas.len())
            .filter(|&r| {
                self.live[r].health.routable()
                    && self.replicas[r].has_queue_room()
                    && r != state.last_replica
            })
            .min_by_key(|&r| (self.replicas[r].load(), r));
        let Some(target) = candidate else {
            return;
        };
        if self.offer_copy(qid, target, self.request_of(qid)) {
            let state = &mut self.states[qid];
            state.hedge_replica = Some(target);
            state.outstanding += 1;
            self.counters.hedges += 1;
            self.pump(target, now);
        }
    }

    /// A queued copy of query `qid` expired at its deadline.
    fn expire(&mut self, qid: usize) {
        let state = &mut self.states[qid];
        state.outstanding = state.outstanding.saturating_sub(1);
        if !state.done && state.outstanding == 0 {
            self.counters.deadline_expirations += 1;
            self.finish_shed(qid, ShedReason::DeadlineExceeded);
        }
    }

    /// Admitted query `qid` as a request again, for re-placement.
    fn request_of(&self, qid: usize) -> FleetRequest {
        let state = &self.states[qid];
        let address = state.address.clone();
        FleetRequest {
            id: state.id,
            tenant: state.tenant,
            arrival: state.arrival,
            address: address.expect("runs that re-dispatch keep addresses"),
        }
    }

    /// Offers a copy of admitted query `qid` to replica `target`.
    fn offer_copy(&mut self, qid: usize, target: usize, request: FleetRequest) -> bool {
        let (id, tenant, arrival) = (request.id, request.tenant, request.arrival);
        let deadline = self.states[qid].deadline;
        self.replicas[target].offer(id, qid, tenant, arrival, deadline, request.address)
    }

    /// A copy of `qid` was lost on crashed replica `r`: an open query
    /// waits there for failover.
    fn strand(&mut self, qid: usize, r: usize) {
        let state = &mut self.states[qid];
        if state.done {
            state.outstanding = state.outstanding.saturating_sub(1);
        } else {
            self.live[r].stranded.push(qid);
        }
    }

    /// Each query stranded on replica `r` loses an attempt.
    fn fail_over(&mut self, r: usize, now: Layers) {
        for qid in std::mem::take(&mut self.live[r].stranded) {
            self.counters.failovers += 1;
            self.lose_attempt(qid, now);
        }
    }

    /// A dispatch attempt of `qid` was lost. With no other copy live, a
    /// retry follows the backoff, unless the budget or deadline sheds it.
    fn lose_attempt(&mut self, qid: usize, now: Layers) {
        let state = &mut self.states[qid];
        state.outstanding = state.outstanding.saturating_sub(1);
        if state.done || state.outstanding > 0 {
            return;
        }
        let retry = self.config.retry;
        let at = now + retry.backoff(state.attempts);
        if retry.budget_exhausted(state.attempts) {
            self.finish_shed(qid, ShedReason::RetriesExhausted);
        } else if state.deadline.is_some_and(|deadline| at > deadline) {
            self.counters.deadline_expirations += 1;
            self.finish_shed(qid, ShedReason::DeadlineExceeded);
        } else {
            self.counters.retries += 1;
            self.events.push(at, Event::Retry { qid });
        }
    }

    /// Resolves query `qid` as shed, releasing its quota slot.
    fn finish_shed(&mut self, qid: usize, reason: ShedReason) {
        let state = &mut self.states[qid];
        assert!(!state.done, "a query resolves exactly once");
        state.done = true;
        let (id, tenant) = (state.id, state.tenant);
        self.shed.push(ShedRequest { id, tenant, reason });
        *self.outstanding.get_mut(&tenant).expect("tenant admitted") -= 1;
        self.open -= 1;
    }

    /// Settles every live replica, then runs one scrub cycle.
    fn settle_and_scrub(&mut self) -> Result<(), DurableServeError> {
        for r in 0..self.replicas.len() {
            if self.live[r].alive {
                self.settle(r)?;
            }
        }
        if let Some(d) = self.durability.as_mut() {
            let live = &self.live;
            let alive = (0..live.len()).filter(|&r| live[r].alive);
            d.scrub(&mut self.replicated, alive, self.config.scrub_chunk_cells)?;
        }
        Ok(())
    }

    /// Open queries or remaining arrivals: periodic ticks re-arm only then.
    fn busy(&self) -> bool {
        self.open > 0 || !self.arrivals.as_slice().is_empty()
    }

    /// Drains the durability tier, executes what is left, and reports.
    fn finish(mut self) -> Result<FleetReport, DurableServeError> {
        if let Some(d) = self.durability.as_mut() {
            // A run ending mid-group must not report its last writes as
            // unsynced; a final scrub finds divergence injected after the
            // last tick (or in runs too short to reach one).
            d.flush()?;
            if self.config.scrub_interval.is_some() {
                self.settle_and_scrub()?;
            }
        }
        let dispatched = self.replicas.iter().map(|r| r.dispatch_count() as u64);
        let per_replica_dispatches: Vec<u64> = dispatched.collect();
        // The no-lost-queries invariant: every admitted query resolved as
        // Completed or Shed. (Queued hedge-loser copies may legitimately
        // strand on a crashed-and-never-detected replica, so queue
        // emptiness is NOT asserted here, unlike the fault-free loop.)
        assert!(
            self.states.iter().all(|s| s.done),
            "every admitted query completes or sheds"
        );
        assert!(self.outstanding.values().all(|&n| n == 0));

        // The final settle runs each replica's remaining dispatches, last
        // replica first, and drops it right after so its addresses are
        // freed before the next replica executes.
        for r in (0..self.replicas.len()).rev() {
            self.settle(r)?;
            let replica = self.replicas.pop().expect("one replica per index");
            assert_eq!(
                self.executed[r].len(),
                replica.dispatch_count(),
                "every dispatch executes exactly once"
            );
        }
        // Crashed and corrupted dispatches leave holes in a replica's
        // completion order: fetch each outcome by its dispatch index.
        let executed = &self.executed;
        let outcomes = self.completed_dispatch.iter();
        let outcomes: Vec<QueryOutcome> = outcomes.map(|&(r, i)| executed[r][i].clone()).collect();
        // Corrupted completions were re-served under the retry budget;
        // verify the parity check would indeed have caught each one.
        for &(r, index) in &self.corrupted_served {
            let clean = &executed[r][index];
            if parity_bit(&corrupt_outcome(clean)) != parity_bit(clean) {
                self.counters.corruptions_detected += 1;
            }
        }
        let mut per_tenant = HistogramFamily::new();
        let mut per_replica = HistogramFamily::new();
        for query in &self.completed {
            per_tenant.record(query.tenant, query.response_latency());
            per_replica.record(query.replica, query.response_latency());
        }
        Ok(FleetReport {
            timing: self.fleet.timing,
            stale_served: self.completed.iter().filter(|q| q.stale).count() as u64,
            completed: self.completed,
            outcomes,
            shed: self.shed,
            per_replica_dispatches,
            per_tenant,
            per_replica,
            fleet_epoch: self.replicated.fleet_epoch(),
            availability: self.counters,
            integrity: self.durability.map(|d| d.counters).unwrap_or_default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qram_core::FatTreeQram;
    use qram_metrics::Capacity;
    use qram_sched::QuotaAdmission;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn classical_requests(arrivals: &[f64], width: u32, modulus: u64) -> Vec<FleetRequest> {
        arrivals
            .iter()
            .enumerate()
            .map(|(id, &a)| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(a),
                address: AddressState::classical(width, id as u64 % modulus).unwrap(),
            })
            .collect()
    }

    fn checkerboard(n: u64) -> ClassicalMemory {
        let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn consistent_hash_spreads_a_uniform_sweep_exactly() {
        let qram = ShardedQram::fat_tree(cap(64), 2);
        let mut fleet = QramFleet::fifo(qram, 4, TimingModel::paper_default());
        let requests = classical_requests(&[0.0; 24], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.per_replica_dispatches(), &[6, 6, 6, 6]);
        for c in report.completed() {
            assert_eq!(c.replica, c.id % 4, "address residue picks the replica");
        }
    }

    #[test]
    fn more_replicas_finish_a_saturated_burst_sooner() {
        let run = |replicas: usize| {
            let qram = ShardedQram::fat_tree(cap(256), 2);
            let mut fleet = QramFleet::fifo(qram, replicas, TimingModel::paper_default());
            let requests = classical_requests(&[0.0; 64], 8, 256);
            fleet
                .serve(&checkerboard(256), requests, Vec::new())
                .unwrap()
                .makespan()
        };
        let one = run(1);
        let two = run(2);
        let four = run(4);
        assert!(two < one, "R = 2 beats R = 1: {two:?} vs {one:?}");
        assert!(four < two, "R = 4 beats R = 2: {four:?} vs {two:?}");
    }

    #[test]
    fn writes_replicate_after_the_lag_and_stale_reads_are_flagged() {
        let qram = ShardedQram::fat_tree(cap(16), 1);
        let mut fleet = QramFleet::new(
            qram,
            2,
            TimingModel::paper_default(),
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: None,
                replication_lag: Layers::new(1000.0),
            },
        );
        let memory = ClassicalMemory::from_words(1, &[0; 16]).unwrap();
        // Address 5 routes to replica 1 (5 mod 2); the write commits at
        // replica 0, so replica 1 serves the old value, flagged stale,
        // until replication lands at t = 1050.
        let read = |id: usize, at: f64| FleetRequest {
            id,
            tenant: TenantId::DEFAULT,
            arrival: Layers::new(at),
            address: AddressState::classical(4, 5).unwrap(),
        };
        let write = FleetWrite {
            at: Layers::new(50.0),
            origin: 0,
            address: 5,
            value: 1,
        };
        let report = fleet
            .serve(
                &memory,
                vec![read(0, 0.0), read(1, 100.0), read(2, 2000.0)],
                vec![write],
            )
            .unwrap();
        assert_eq!(report.fleet_epoch(), 1);
        let by_id = |id: usize| {
            report
                .completed()
                .iter()
                .position(|c| c.id == id)
                .expect("completed")
        };
        // Before the write: fresh at epoch 0.
        assert!(!report.completed()[by_id(0)].stale);
        assert_eq!(report.outcomes()[by_id(0)].data_for(5), Some(0));
        // After the write, before replication: flagged stale, old value.
        assert!(report.completed()[by_id(1)].stale);
        assert_eq!(report.completed()[by_id(1)].epoch, 0);
        assert_eq!(report.outcomes()[by_id(1)].data_for(5), Some(0));
        // After replication: fresh at epoch 1, new value.
        assert!(!report.completed()[by_id(2)].stale);
        assert_eq!(report.completed()[by_id(2)].epoch, 1);
        assert_eq!(report.outcomes()[by_id(2)].data_for(5), Some(1));
        assert_eq!(report.stale_served(), 1);
    }

    #[test]
    fn quota_sheds_the_hot_tenant_only() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let policy = QuotaAdmission::new(FifoAdmission).with_quota(TenantId(1), 2);
        let mut fleet = QramFleet::new(
            qram,
            1,
            TimingModel::paper_default(),
            policy,
            ConsistentHashPlacement,
            FleetConfig::default(),
        );
        let requests: Vec<FleetRequest> = (0..12)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId(u32::from(id % 2 == 0)),
                arrival: Layers::ZERO,
                address: AddressState::classical(6, id as u64).unwrap(),
            })
            .collect();
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        // The hot tenant keeps its 2 outstanding; the unlimited tenant
        // keeps all 6.
        assert_eq!(report.shed_count(ShedReason::QuotaExceeded), 4);
        assert!(report.shed().iter().all(|s| s.tenant == TenantId(1)));
        assert_eq!(report.per_tenant().get(TenantId(0)).unwrap().count(), 6);
        assert_eq!(report.per_tenant().get(TenantId(1)).unwrap().count(), 2);
    }

    #[test]
    fn slo_class_gets_only_its_queue_share() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let policy =
            QuotaAdmission::new(FifoAdmission).with_slo(TenantId(2), qram_sched::SloClass::Batch);
        let mut fleet = QramFleet::new(
            qram,
            1,
            TimingModel::paper_default(),
            policy,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: Some(8),
                replication_lag: Layers::ZERO,
            },
        );
        // A burst at t = 0: one dispatches immediately, the rest queue.
        // The batch-class tenant only gets floor(8 · 0.5) = 4 queue slots.
        let requests: Vec<FleetRequest> = (0..12)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId(2),
                arrival: Layers::ZERO,
                address: AddressState::classical(6, id as u64).unwrap(),
            })
            .collect();
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 5);
        assert_eq!(report.shed_count(ShedReason::SloShed), 7);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 0);
    }

    #[test]
    fn least_loaded_avoids_full_replicas_while_others_have_room() {
        let qram = ShardedQram::fat_tree(cap(64), 1);
        let mut fleet = QramFleet::new(
            qram,
            2,
            TimingModel::paper_default(),
            FifoAdmission,
            LeastLoadedPlacement,
            FleetConfig {
                queue_capacity: Some(2),
                replication_lag: Layers::ZERO,
            },
        );
        // 6 simultaneous arrivals fill both replicas to the brim (1
        // dispatched + 2 queued each); nothing sheds until every replica
        // is actually full.
        let requests = classical_requests(&[0.0; 7], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 6);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 1);
        assert_eq!(report.per_replica_dispatches(), &[3, 3]);
    }

    fn load(queued: usize, in_flight: u32, health: ReplicaHealth) -> ReplicaLoad {
        ReplicaLoad {
            queued,
            in_flight,
            has_room: true,
            health,
        }
    }

    fn probe() -> FleetRequest {
        FleetRequest {
            id: 0,
            tenant: TenantId::DEFAULT,
            arrival: Layers::ZERO,
            address: AddressState::classical(6, 0).unwrap(),
        }
    }

    #[test]
    fn least_loaded_breaks_load_ties_to_the_lowest_index() {
        // Regression: equal loads must pick the lowest index
        // deterministically, not whichever the iterator happened to
        // yield — replicas 1 and 3 tie below replica 0's load.
        let h = ReplicaHealth::Healthy;
        let loads = [load(2, 1, h), load(1, 1, h), load(4, 0, h), load(0, 2, h)];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &loads), 1);
        // A full tie across the fleet picks replica 0.
        let tied = [load(1, 1, h), load(2, 0, h), load(0, 2, h)];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &tied), 0);
    }

    #[test]
    fn least_loaded_ranks_suspects_after_healthy_and_skips_the_down() {
        let loads = [
            load(0, 0, ReplicaHealth::Suspect),
            load(3, 1, ReplicaHealth::Healthy),
            load(1, 0, ReplicaHealth::Down),
        ];
        // The idle suspect loses to the loaded healthy replica; the even
        // less loaded Down replica is not routable at all.
        assert_eq!(LeastLoadedPlacement.place(&probe(), &loads), 1);
        // With every routable replica suspect, the least-loaded suspect
        // wins; only a fully unroutable fleet falls back to anyone.
        let suspects = [
            load(2, 0, ReplicaHealth::Suspect),
            load(1, 0, ReplicaHealth::Suspect),
            load(0, 0, ReplicaHealth::Down),
        ];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &suspects), 1);
        let unroutable = [
            load(2, 0, ReplicaHealth::Down),
            load(1, 0, ReplicaHealth::Recovering),
        ];
        assert_eq!(LeastLoadedPlacement.place(&probe(), &unroutable), 1);
    }

    #[test]
    fn consistent_hash_probes_the_ring_past_down_replicas() {
        // Address 0 homes at replica 0; with it Down the probe walks the
        // ring to the next routable replica.
        let loads = [
            load(0, 0, ReplicaHealth::Down),
            load(5, 2, ReplicaHealth::Recovering),
            load(9, 3, ReplicaHealth::Healthy),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &loads), 2);
        // Fully healthy, the probe never moves off the home replica.
        let healthy = [
            load(9, 3, ReplicaHealth::Healthy),
            load(0, 0, ReplicaHealth::Healthy),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &healthy), 0);
        // Nothing routable: fall back to the home replica (the arrival is
        // then shed as NoHealthyReplica by the router).
        let dead = [
            load(0, 0, ReplicaHealth::Down),
            load(0, 0, ReplicaHealth::Down),
        ];
        assert_eq!(ConsistentHashPlacement.place(&probe(), &dead), 0);
    }

    /// The §5 single machine: a one-replica FIFO fleet with unbounded
    /// queues.
    fn single_machine(n: u64, shards: u32) -> QramFleet<FatTreeQram> {
        QramFleet::fifo(
            ShardedQram::fat_tree(cap(n), shards),
            1,
            TimingModel::paper_default(),
        )
    }

    #[test]
    fn round_robin_assignment_fills_queues_evenly() {
        let mut fleet = single_machine(256, 4);
        let requests = classical_requests(&[0.0; 22], 8, 256);
        let report = fleet
            .serve(&checkerboard(256), requests, Vec::new())
            .unwrap();
        let mut per_shard = [0u64; 4];
        for (i, c) in report.completed().iter().enumerate() {
            assert_eq!(c.id, i, "strict FIFO dispatch order");
            assert_eq!(c.shard, i % 4, "round-robin queue assignment");
            per_shard[c.shard] += 1;
        }
        assert_eq!(per_shard, [6, 6, 5, 5]);
    }

    #[test]
    fn saturated_dispatches_space_at_divided_interval() {
        let mut fleet = single_machine(4096, 4);
        let requests = classical_requests(&[0.0; 16], 12, 4096);
        let report = fleet
            .serve(&checkerboard(4096), requests, Vec::new())
            .unwrap();
        let starts: Vec<f64> = report.completed().iter().map(|c| c.start.get()).collect();
        assert_eq!(starts.len(), 16);
        for w in starts.windows(2) {
            assert!((w[1] - w[0] - 8.25 / 4.0).abs() < 1e-9, "{starts:?}");
        }
    }

    #[test]
    fn outcomes_match_ideal_semantics() {
        let mut fleet = single_machine(64, 4);
        let memory = checkerboard(64);
        let requests: Vec<FleetRequest> = (0..8)
            .map(|id| FleetRequest {
                id,
                tenant: TenantId::DEFAULT,
                arrival: Layers::new(id as f64),
                address: AddressState::uniform(6, &[id as u64, id as u64 + 17, id as u64 + 40])
                    .unwrap(),
            })
            .collect();
        let report = fleet.serve(&memory, requests.clone(), Vec::new()).unwrap();
        assert_eq!(report.completed().len(), 8);
        for (c, out) in report.completed().iter().zip(report.outcomes()) {
            let ideal = memory.ideal_query(&requests[c.id].address);
            assert!((out.fidelity(&ideal) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn bounded_queue_sheds_excess_load() {
        let mut fleet = QramFleet::new(
            ShardedQram::fat_tree(cap(64), 2),
            1,
            TimingModel::paper_default(),
            FifoAdmission,
            ConsistentHashPlacement,
            FleetConfig {
                queue_capacity: Some(4),
                replication_lag: Layers::ZERO,
            },
        );
        // A burst far beyond queue + pipeline capacity at t = 0: the first
        // request dispatches immediately, four more fit in the queue, and
        // the rest are shed (the queue only drains at the admission
        // interval, long after the instantaneous burst has passed).
        let requests = classical_requests(&[0.0; 40], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.completed().len(), 5);
        assert_eq!(report.shed().len(), 35);
        assert_eq!(report.shed_count(ShedReason::QueueFull), 35);
        assert_eq!(report.shed()[0].id, 5);
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn unsorted_submissions_are_ordered_by_arrival() {
        let mut fleet = single_machine(64, 2);
        let mut requests = classical_requests(&[30.0, 0.0, 60.0, 15.0], 6, 64);
        requests.swap(0, 2);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        let ids: Vec<usize> = report.completed().iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![1, 3, 0, 2]);
    }

    #[test]
    fn report_throughput_and_latency_metrics() {
        let timing = TimingModel::paper_default();
        let mut fleet = single_machine(64, 2);
        let requests = classical_requests(&[0.0; 10], 6, 64);
        let report = fleet
            .serve(&checkerboard(64), requests, Vec::new())
            .unwrap();
        assert_eq!(report.latency_histogram().count(), 10);
        assert!(report.window() > Layers::ZERO);
        assert!(report.query_rate().get() > 0.0);
        let micros = |q| report.tenant_latency_micros(TenantId::DEFAULT, q);
        assert!(micros(0.5) <= micros(0.99));
        let mono_latency = FatTreeQram::new(cap(64))
            .single_query_latency(&timing)
            .get();
        // The fastest query finishes in exactly one monolithic latency.
        assert!((report.latency_histogram().min().get() - mono_latency).abs() < 1e-9);
    }

    #[test]
    fn throughput_window_excludes_idle_prefix() {
        // A trace starting deep into virtual time reports the same
        // sustained rate as the identical trace shifted to t = 0.
        let run = |offset: f64| {
            let mut fleet = single_machine(64, 2);
            let arrivals: Vec<f64> = (0..10).map(|i| offset + 3.0 * i as f64).collect();
            let requests = classical_requests(&arrivals, 6, 64);
            fleet
                .serve(&checkerboard(64), requests, Vec::new())
                .unwrap()
        };
        let at_zero = run(0.0);
        let delayed = run(10_000.0);
        assert!((delayed.window() - at_zero.window()).get().abs() < 1e-9);
        assert!((delayed.query_rate().get() - at_zero.query_rate().get()).abs() < 1e-6);
    }

    #[test]
    fn empty_run_reports_zero_rates_without_panicking() {
        let mut fleet = single_machine(64, 2);
        let report = fleet
            .serve(&checkerboard(64), Vec::new(), Vec::new())
            .unwrap();
        assert_eq!(report.window(), Layers::ZERO);
        assert_eq!(report.query_rate(), QueryRate::ZERO);
        assert_eq!(report.latency_histogram().p99(), None);
    }

    #[test]
    #[should_panic(expected = "address width")]
    fn mismatched_address_width_rejected() {
        let mut fleet = single_machine(64, 2);
        let bad = vec![FleetRequest {
            id: 0,
            tenant: TenantId::DEFAULT,
            arrival: Layers::ZERO,
            address: AddressState::classical(3, 1).unwrap(),
        }];
        let _ = fleet.serve(&checkerboard(64), bad, Vec::new());
    }
}
