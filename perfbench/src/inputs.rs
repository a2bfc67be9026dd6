//! Workload definitions and seeded input generation.
//!
//! The program under test only ever sees what this module builds: the
//! starting memory image, the request stream, the write stream and, for
//! `write_durable`, the fault plan and store policies. Everything is a
//! pure function of the workload and the seed.

use qram_core::store::{CheckpointPolicy, DurableFleet, GroupCommitPolicy, SimDir};
use qram_core::{FatTreeQram, ShardedQram};
use qram_metrics::{Capacity, Layers, TimingModel};
use qram_sched::{FifoAdmission, QramServer, TenantId};
use qram_serve::{
    ConsistentHashPlacement, Fault, FaultConfig, FaultPlan, FleetConfig, FleetRequest, FleetWrite,
    QramFleet,
};
use qsim::branch::{AddressState, ClassicalMemory};

/// The fleet type every workload serves on.
pub type Fleet = QramFleet<FatTreeQram, FifoAdmission, ConsistentHashPlacement>;

/// Bits per memory cell.
pub const BUS_WIDTH: u32 = 8;
/// Shards per replica.
pub const SHARDS: u32 = 4;
/// Replicas in the fleet.
pub const REPLICAS: usize = 4;
/// Zipf skew of classical read (and write) addresses.
const ZIPF_THETA: f64 = 0.99;
/// Offered load as a share of the fleet's admission capacity.
const LOAD: f64 = 0.9;
/// Virtual-time delay between a write's commit and its replication.
const REPLICATION_LAG: f64 = 50.0;

/// One named workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Zipf classical reads on `N = 2^16`: router, reactor and replica
    /// glue dominate.
    ReadClassical,
    /// Uniform superpositions over 256 random distinct addresses: the
    /// execution kernel dominates.
    ReadSuperposed,
    /// Zipf reads plus replicated writes through `serve_durable`, with
    /// a replica crash and rejoin: memory versioning and the store.
    WriteDurable,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::ReadClassical,
        Workload::ReadSuperposed,
        Workload::WriteDurable,
    ];

    /// The name used on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ReadClassical => "read_classical",
            Workload::ReadSuperposed => "read_superposed",
            Workload::WriteDurable => "write_durable",
        }
    }

    /// Parses a command-line workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Address bits of the memory (`N = 2^bits`).
    fn address_width(self) -> u32 {
        match self {
            Workload::ReadClassical | Workload::ReadSuperposed => 16,
            Workload::WriteDurable => 14,
        }
    }

    /// Queries per serve call.
    fn queries(self) -> usize {
        match self {
            Workload::ReadClassical => 16_384,
            Workload::ReadSuperposed => 2_048,
            Workload::WriteDurable => 16_384,
        }
    }

    /// Basis addresses per query (1 = classical).
    fn branches(self) -> usize {
        match self {
            Workload::ReadClassical | Workload::WriteDurable => 1,
            Workload::ReadSuperposed => 256,
        }
    }

    /// Queries per write, or `None` for read-only workloads.
    fn queries_per_write(self) -> Option<usize> {
        match self {
            Workload::WriteDurable => Some(32),
            Workload::ReadClassical | Workload::ReadSuperposed => None,
        }
    }

    /// Whether serve calls go through `serve_durable` with a fault plan.
    pub fn durable(self) -> bool {
        self == Workload::WriteDurable
    }
}

/// Everything one serve call consumes: one draw of a workload.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub workload: Workload,
    /// The starting memory image.
    pub memory: ClassicalMemory,
    /// Requests in arrival order; `requests[i].id == i`.
    pub requests: Vec<FleetRequest>,
    /// Writes in commit (epoch) order: write `e - 1` establishes epoch `e`.
    pub writes: Vec<FleetWrite>,
    /// The fault plan (`write_durable` only; empty otherwise).
    pub plan: FaultPlan,
    /// Fault, scrub and group-commit configuration.
    pub fault_config: FaultConfig,
    /// Total basis branches over all requests.
    pub branches: u64,
}

impl Inputs {
    /// A fresh durable store anchored at the starting memory, on an
    /// in-memory `SimDir`: a delta checkpoint every 64 epochs, folding
    /// to a full image after a chain of 8.
    pub fn fresh_store(&self) -> DurableFleet {
        let policy = CheckpointPolicy::deltas(64, 8);
        DurableFleet::create_with(Box::new(SimDir::new()), &self.memory, policy)
            .expect("the in-memory directory cannot fail")
    }
}

/// Draws a workload's inputs from a seed. Draw `i` of a seed is always
/// the same; every serve call of a run gets its own draw, so a run's
/// figures average over many independent memories, hot-cell placements
/// and arrival streams instead of hanging on one.
#[derive(Debug)]
pub struct Generator {
    workload: Workload,
    seed: u64,
    /// Zipf(θ) CDF over address ranks.
    zipf_cdf: Vec<f64>,
    /// Poisson arrival rate, queries per layer.
    rate: f64,
    /// Superpositions drawn once per seed (empty for classical
    /// workloads): building an `AddressState` from 256 addresses costs
    /// more than serving it, so draws reorder this pool instead.
    superpositions: Vec<AddressState>,
}

impl Generator {
    /// The generator of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64) -> Generator {
        let n = 1u64 << workload.address_width();
        let mut total = 0.0;
        let mut zipf_cdf: Vec<f64> = (1..=n)
            .map(|rank| {
                total += (rank as f64).powf(-ZIPF_THETA);
                total
            })
            .collect();
        for c in &mut zipf_cdf {
            *c /= total;
        }
        // Open-loop Poisson arrivals at LOAD of the fleet's admission
        // capacity, in virtual layer time.
        let server = QramServer::for_model(&backend(workload), &TimingModel::paper_default());
        let per_replica = (1.0 / server.interval().get())
            .min(f64::from(server.parallelism()) / server.latency().get());
        let width = workload.address_width();
        let mut rng = SplitMix64::new(seed ^ 0x5EED_5EED_5EED_5EED);
        let mut picked = vec![false; n as usize];
        let superpositions = if workload.branches() > 1 {
            (0..workload.queries())
                .map(|_| {
                    let picks = rng.distinct(workload.branches(), &mut picked);
                    AddressState::uniform(width, &picks).expect("distinct addresses in range")
                })
                .collect()
        } else {
            Vec::new()
        };
        Generator {
            workload,
            seed,
            zipf_cdf,
            rate: LOAD * per_replica * REPLICAS as f64,
            superpositions,
        }
    }

    /// Draw `draw` of the workload.
    pub fn draw(&self, draw: u64) -> Inputs {
        let workload = self.workload;
        let width = workload.address_width();
        let n = 1u64 << width;
        let mut rng = SplitMix64::new(
            self.seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(draw.wrapping_mul(0xD1B5_4A32_D192_ED03))
                ^ (workload as u64 + 1),
        );
        let cells: Vec<u64> = (0..n).map(|_| rng.below(1 << BUS_WIDTH)).collect();
        let memory = ClassicalMemory::from_words(BUS_WIDTH, &cells).expect("power-of-two memory");
        // Zipf ranks land on a random permutation of the addresses, so
        // the hot cells fall anywhere in the memory.
        let mut address_of_rank: Vec<u64> = (0..n).collect();
        for i in (1..address_of_rank.len()).rev() {
            address_of_rank.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let zipf = |rng: &mut SplitMix64| {
            let u = rng.unit();
            let rank = self
                .zipf_cdf
                .partition_point(|&c| c < u)
                .min(self.zipf_cdf.len() - 1);
            address_of_rank[rank]
        };

        // Each draw serves the pool in a fresh order, without repeats:
        // superposed queries share nothing.
        let mut order: Vec<usize> = (0..self.superpositions.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut t = 0.0;
        let mut branches = 0u64;
        let requests: Vec<FleetRequest> = (0..workload.queries())
            .map(|id| {
                t += -rng.unit().max(1e-12).ln() / self.rate;
                let address = if self.superpositions.is_empty() {
                    AddressState::classical(width, zipf(&mut rng)).expect("address in range")
                } else {
                    self.superpositions[order[id]].clone()
                };
                branches += address.num_branches() as u64;
                FleetRequest {
                    id,
                    tenant: TenantId((rng.next() & 1) as u32),
                    arrival: Layers::new(t),
                    address,
                }
            })
            .collect();
        let horizon = t;

        // One write per `every` queries, committed halfway between two
        // arrivals, from rotating origins, to Zipf-hot cells.
        let writes: Vec<FleetWrite> = workload
            .queries_per_write()
            .map(|every| {
                (1..requests.len() / every)
                    .map(|j| {
                        let before = requests[j * every - 1].arrival.get();
                        let after = requests[j * every].arrival.get();
                        FleetWrite {
                            at: Layers::new(0.5 * (before + after)),
                            origin: j % REPLICAS,
                            address: zipf(&mut rng),
                            value: rng.below(1 << BUS_WIDTH),
                        }
                    })
                    .collect()
            })
            .unwrap_or_default();

        let (plan, fault_config) = if workload.durable() {
            let plan = FaultPlan::none()
                .with(Fault::Crash {
                    replica: 1,
                    at: Layers::new(0.3 * horizon),
                })
                .with(Fault::Recover {
                    replica: 1,
                    at: Layers::new(0.5 * horizon),
                });
            let config = FaultConfig {
                scrub_interval: Some(Layers::new(horizon / 8.0)),
                group_commit: GroupCommitPolicy::group(16, 20.0),
                ..FaultConfig::default()
            };
            (plan, config)
        } else {
            (FaultPlan::none(), FaultConfig::default())
        };

        Inputs {
            workload,
            memory,
            requests,
            writes,
            plan,
            fault_config,
            branches,
        }
    }
}

/// One replica's backend: a `K`-shard Fat-Tree of the workload's size.
pub fn backend(workload: Workload) -> ShardedQram<FatTreeQram> {
    let capacity = Capacity::from_address_width(workload.address_width());
    ShardedQram::fat_tree(capacity, SHARDS)
}

/// The fleet: FIFO admission, consistent-hash placement, unbounded
/// queues, `R` replicas of [`backend`].
pub fn fleet(workload: Workload) -> Fleet {
    QramFleet::new(
        backend(workload),
        REPLICAS,
        TimingModel::paper_default(),
        FifoAdmission,
        ConsistentHashPlacement,
        FleetConfig {
            queue_capacity: None,
            replication_lag: Layers::new(REPLICATION_LAG),
        },
    )
}

/// SplitMix64: a small, fixed, seedable generator, so the inputs do not
/// depend on any library's random-number stream.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[0, bound)`.
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(bound)) >> 64) as u64
    }

    /// `count` distinct integers below `picked.len()`, using `picked`
    /// (all false on entry and on return) to reject repeats.
    fn distinct(&mut self, count: usize, picked: &mut [bool]) -> Vec<u64> {
        let mut picks: Vec<u64> = Vec::with_capacity(count);
        while picks.len() < count {
            let x = self.below(picked.len() as u64);
            if !std::mem::replace(&mut picked[x as usize], true) {
                picks.push(x);
            }
        }
        for &x in &picks {
            picked[x as usize] = false;
        }
        picks
    }
}
