//! Sharded QRAM serving: `K` parallel shards behind an address-interleaved
//! router (the distributed / banked rows of Table 1 as an executable
//! backend).
//!
//! A [`ShardedQram`] splits a capacity-`N` address space across `K`
//! capacity-`N/K` component QRAMs by the *low-order* `log₂ K` address bits
//! (bank interleaving, as in banked lookup-table engines): cell `a` lives
//! in shard `a mod K` at local address `⌊a / K⌋`. A query superposition is
//! split by shard bits into per-shard sub-queries, executed against their
//! shard memories, and recombined, so the sharded machine is observably
//! equivalent to a monolithic capacity-`N` machine while multiplying
//! admission bandwidth by `K` under round-robin admission.

use std::cell::Cell;
use std::sync::Arc;

use qram_metrics::{Capacity, Layers, TimingModel};
use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};

use crate::exec::{execute_layers, CompiledQuery, ExecError};
use crate::model::{retrieval_order_sweep, QramModel, SweepEvent};
use crate::query_ops::QueryLayer;
use crate::{BucketBrigadeQram, FatTreeQram};

thread_local! {
    /// Per-thread count of per-shard sub-batch splits (`split_terms`
    /// invocations).
    static SUB_BATCH_SPLITS: Cell<u64> = const { Cell::new(0) };
}

/// Number of per-shard sub-batch splits performed on the calling thread
/// since it started. Execution never leaves the calling thread, so a test
/// reading the counter before and after a call sees exactly that call's
/// splits, whatever other test threads do meanwhile.
///
/// A diagnostic for regression tests, in the same spirit as
/// [`crate::pipeline::schedule_construction_count`]: a batch whose
/// queries each occupy a single shard must not build the `K`-entry
/// per-shard sub-batch vectors at all (the single-shard fast path), and
/// the compiled/columnar paths never split.
#[must_use]
pub fn sub_batch_split_count() -> u64 {
    SUB_BATCH_SPLITS.get()
}

/// `K` capacity-`N/K` QRAM shards behind an address-interleaved router,
/// serving as one capacity-`N` [`QramModel`] backend.
///
/// The shard architecture is any [`QramModel`]; all shards are identical.
/// Geometry sums the shards plus the `K − 1` routers of the interleaving
/// fan-out tree; the admission interval divides the shard interval by `K`
/// (round-robin admission); single-query latency is the equivalent
/// monolithic latency (a lookup still resolves all `log₂ N` address bits —
/// sharding buys bandwidth, not depth).
///
/// # Examples
///
/// ```
/// use qram_core::{FatTreeQram, QramModel, ShardedQram};
/// use qram_metrics::{Capacity, TimingModel};
///
/// let sharded = ShardedQram::fat_tree(Capacity::new(4096)?, 4);
/// let timing = TimingModel::paper_default();
/// // Four Fat-Tree shards admit queries 4× faster than one machine.
/// let mono = FatTreeQram::new(Capacity::new(4096)?);
/// assert_eq!(
///     sharded.admission_interval(&timing).get(),
///     mono.admission_interval(&timing).get() / 4.0,
/// );
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedQram<M> {
    capacity: Capacity,
    /// A capacity-`N` reference instance of the shard architecture: the
    /// equivalent monolithic machine, used for the single-query
    /// instruction stream and closed-form latencies.
    template: M,
    shards: Vec<M>,
}

impl<M: QramModel> ShardedQram<M> {
    /// Builds a sharded QRAM of total capacity `N` from `num_shards`
    /// identical shards produced by `make` (called once per shard with the
    /// shard capacity `N/K`, and once with the full capacity `N` for the
    /// equivalent monolithic reference machine).
    ///
    /// # Panics
    ///
    /// Panics if `num_shards` is not a power of two, exceeds `N/2` (each
    /// shard needs at least one address bit), or exceeds the shard's
    /// back-to-back retrieval spacing (the one-layer-per-shard round-robin
    /// stagger would stop being monotone, letting a later query observe an
    /// earlier memory state).
    pub fn new(capacity: Capacity, num_shards: u32, mut make: impl FnMut(Capacity) -> M) -> Self {
        assert!(
            num_shards >= 1 && num_shards.is_power_of_two(),
            "shard count {num_shards} must be a power of two"
        );
        assert!(
            u64::from(num_shards) * 2 <= capacity.get(),
            "shard count {num_shards} leaves fewer than two cells per shard of capacity {}",
            capacity.get()
        );
        let shard_capacity =
            Capacity::new(capacity.get() / u64::from(num_shards)).expect("power of two >= 2");
        let shards: Vec<M> = (0..num_shards).map(|_| make(shard_capacity)).collect();
        for shard in &shards {
            assert_eq!(
                shard.capacity(),
                shard_capacity,
                "factory produced a shard of the wrong capacity"
            );
        }
        // Round-robin retrieval order stays the admission order only while
        // the per-shard stagger (one layer per shard index, K − 1 at most)
        // fits strictly inside the shard's back-to-back retrieval spacing.
        let spacing = shards[0].retrieval_layer(1) - shards[0].retrieval_layer(0);
        assert!(
            u64::from(num_shards) <= spacing,
            "shard count {num_shards} exceeds the shard admission spacing {spacing}: \
             round-robin retrieval layers would not be monotone"
        );
        let template = make(capacity);
        assert_eq!(
            template.capacity(),
            capacity,
            "factory produced a template of the wrong capacity"
        );
        ShardedQram {
            capacity,
            template,
            shards,
        }
    }

    /// Number of shards `K`.
    #[must_use]
    pub fn num_shards(&self) -> u32 {
        u32::try_from(self.shards.len()).expect("shard count fits in u32")
    }

    /// The shard instances, in shard-index order.
    #[must_use]
    pub fn shards(&self) -> &[M] {
        &self.shards
    }

    /// The per-shard capacity `N/K`.
    #[must_use]
    pub fn shard_capacity(&self) -> Capacity {
        self.shards[0].capacity()
    }

    /// Number of low-order address bits selecting the shard: `log₂ K`.
    #[must_use]
    pub fn shard_bits(&self) -> u32 {
        self.num_shards().trailing_zeros()
    }

    /// The per-shard pipeline parallelism `P_shard` (shards are identical
    /// by construction, so one shard speaks for all): the serving layer's
    /// per-queue in-flight bound, with `K · P_shard` the aggregate bound
    /// reported by [`QramModel::query_parallelism`].
    #[must_use]
    pub fn shard_parallelism(&self) -> u32 {
        self.shards[0].query_parallelism()
    }

    /// The per-shard admission interval `I_shard`: one shard admits a
    /// query at most this often, so round-robin over `K` shards admits at
    /// the divided `I_shard / K` interval reported by
    /// [`QramModel::admission_interval`].
    #[must_use]
    pub fn shard_admission_interval(&self, timing: &TimingModel) -> Layers {
        self.shards[0].admission_interval(timing)
    }

    /// The shard whose dispatch queue serves the `query_index`-th admitted
    /// query under round-robin admission (`query_index mod K`) — the same
    /// assignment [`QramModel::retrieval_layer`] stamps onto the batch
    /// timeline, exposed for the serving layer's per-shard queues.
    #[must_use]
    pub fn dispatch_shard(&self, query_index: usize) -> u32 {
        u32::try_from(query_index % self.shards.len()).expect("shard index fits")
    }

    /// The shard serving global address `address` (its low-order bits).
    #[must_use]
    pub fn shard_of(&self, address: u64) -> u32 {
        u32::try_from(address & u64::from(self.num_shards() - 1)).expect("shard index fits")
    }

    /// The shard-local address of global address `address` (its high-order
    /// bits).
    #[must_use]
    pub fn local_address(&self, address: u64) -> u64 {
        address >> self.shard_bits()
    }

    /// Splits a capacity-`N` classical memory into the `K` interleaved
    /// shard memories: shard `s` holds cells `s, s + K, s + 2K, …`.
    ///
    /// # Panics
    ///
    /// Panics if `memory` does not match the total capacity.
    #[must_use]
    pub fn shard_memories(&self, memory: &ClassicalMemory) -> Vec<ClassicalMemory> {
        assert_eq!(
            memory.capacity() as u64,
            self.capacity.get(),
            "memory capacity must match QRAM capacity"
        );
        let k = self.shards.len();
        (0..k)
            .map(|s| {
                let cells: Vec<u64> = memory.cells().iter().copied().skip(s).step_by(k).collect();
                ClassicalMemory::from_words(memory.bus_width(), &cells)
                    .expect("shard memory is a valid power-of-two slice")
            })
            .collect()
    }

    /// Splits an address superposition by shard bits: per shard, the
    /// original `(amplitude, global address)` branches routed to it. The
    /// per-shard states keep the original (globally normalized) amplitudes
    /// alongside, so outcomes can be recombined exactly.
    fn split_terms(&self, address: &AddressState) -> Vec<Vec<(qsim::Complex, u64)>> {
        SUB_BATCH_SPLITS.set(SUB_BATCH_SPLITS.get() + 1);
        let mut per_shard: Vec<Vec<(qsim::Complex, u64)>> = vec![Vec::new(); self.shards.len()];
        for &(amp, addr) in address.iter() {
            per_shard[self.shard_of(addr) as usize].push((amp, addr));
        }
        per_shard
    }

    /// Executes one query's per-shard sub-batches against the interleaved
    /// shard memories through the interpreter and recombines the outcomes
    /// in shard-index order.
    fn run_query_across_shards(
        &self,
        address: &AddressState,
        shard_mems: &[ClassicalMemory],
        shard_layers: &[QueryLayer],
    ) -> Result<QueryOutcome, ExecError> {
        let n = self.capacity.address_width();
        let local_width = self.shard_capacity().address_width();
        assert_eq!(
            address.address_width(),
            n,
            "address width must match QRAM capacity"
        );
        // Single-occupied-shard fast path: when every branch routes to one
        // shard (always true for classical queries, and for any
        // superposition whose addresses share their low bits), skip the
        // `K`-entry sub-batch split entirely and run the one local
        // sub-state directly.
        let first_shard = self.shard_of(address.iter().next().expect("non-empty state").1);
        if address
            .iter()
            .all(|&(_, addr)| self.shard_of(addr) == first_shard)
        {
            let sub = AddressState::new(
                local_width,
                address
                    .iter()
                    .map(|&(amp, addr)| (amp, self.local_address(addr))),
            )
            .expect("shard sub-state is non-empty and duplicate-free");
            let mem = &shard_mems[first_shard as usize];
            let exec = execute_layers(shard_layers, mem, &sub)?;
            // Local terms align positionally with the global branches:
            // equal low bits make the local order the global order.
            let terms = address
                .iter()
                .zip(exec.outcome.iter())
                .map(|(&(amp, addr), &(_, _, data))| (amp, addr, data))
                .collect();
            return Ok(QueryOutcome::from_terms(
                n,
                shard_mems[0].bus_width(),
                terms,
            ));
        }
        let mut terms = Vec::with_capacity(address.num_branches());
        for (s, branches) in self.split_terms(address).into_iter().enumerate() {
            if branches.is_empty() {
                continue;
            }
            let sub = AddressState::new(
                local_width,
                branches
                    .iter()
                    .map(|&(amp, addr)| (amp, self.local_address(addr))),
            )
            .expect("shard sub-state is non-empty and duplicate-free");
            let exec = execute_layers(shard_layers, &shard_mems[s], &sub)?;
            for &(amp, addr) in &branches {
                let data = exec
                    .outcome
                    .data_for(self.local_address(addr))
                    .expect("executed branch present in shard outcome");
                terms.push((amp, addr, data));
            }
        }
        Ok(QueryOutcome::from_terms(
            n,
            shard_mems[0].bus_width(),
            terms,
        ))
    }

    /// [`QramModel::execute_queries`] pinned to the interpreter sweep (no
    /// compiled-plan dispatch) — the reference oracle the columnar kernel
    /// is property-tested against, and the baseline side of the
    /// `compiled_exec` benchmark's sharded A/B.
    ///
    /// # Errors
    ///
    /// Returns an error if any query's instruction stream fails validation.
    ///
    /// # Panics
    ///
    /// Panics if the memory capacity mismatches the QRAM capacity.
    pub fn execute_queries_sequential(
        &self,
        memory: &ClassicalMemory,
        addresses: &[AddressState],
        memory_updates: &[(u64, u64, u64)],
    ) -> Result<Vec<QueryOutcome>, ExecError> {
        let mut shard_mems = self.shard_memories(memory);
        if addresses.is_empty() {
            return Ok(Vec::new());
        }
        // Per-batch precomputation: one interned instruction stream
        // (shards are identical) and one retrieval layer per query.
        let shard_layers = self.shards[0].interned_query_layers();
        let retrievals: Vec<u64> = (0..addresses.len())
            .map(|q| self.retrieval_layer(q))
            .collect();
        let mut results: Vec<Option<QueryOutcome>> = vec![None; addresses.len()];
        retrieval_order_sweep(&retrievals, memory_updates, |event| match event {
            SweepEvent::Update { address, value } => {
                shard_mems[self.shard_of(address) as usize]
                    .write(self.local_address(address), value);
                Ok(())
            }
            SweepEvent::Query(q) => {
                results[q] = Some(self.run_query_across_shards(
                    &addresses[q],
                    &shard_mems,
                    &shard_layers,
                )?);
                Ok(())
            }
        })?;
        Ok(results
            .into_iter()
            .map(|r| r.expect("every query executed"))
            .collect())
    }
}

impl ShardedQram<FatTreeQram> {
    /// A sharded Fat-Tree QRAM: `num_shards` capacity-`N/K` Fat-Trees.
    ///
    /// # Panics
    ///
    /// See [`ShardedQram::new`].
    #[must_use]
    pub fn fat_tree(capacity: Capacity, num_shards: u32) -> Self {
        ShardedQram::new(capacity, num_shards, FatTreeQram::new)
    }
}

impl ShardedQram<BucketBrigadeQram> {
    /// A sharded bucket-brigade QRAM: `num_shards` capacity-`N/K` BB trees.
    ///
    /// # Panics
    ///
    /// See [`ShardedQram::new`].
    #[must_use]
    pub fn bucket_brigade(capacity: Capacity, num_shards: u32) -> Self {
        ShardedQram::new(capacity, num_shards, BucketBrigadeQram::new)
    }
}

impl<M: QramModel> QramModel for ShardedQram<M> {
    fn name(&self) -> &'static str {
        "Sharded"
    }

    fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Total routers: the `K` shards plus the `K − 1` routers of the
    /// address-interleaving fan-out tree.
    fn router_count(&self) -> u64 {
        let fan_out = self.shards.len() as u64 - 1;
        self.shards.iter().map(QramModel::router_count).sum::<u64>() + fan_out
    }

    /// Total parallelism: every shard pipeline runs concurrently.
    fn query_parallelism(&self) -> u32 {
        self.shards.iter().map(QramModel::query_parallelism).sum()
    }

    /// The single-query instruction stream of the *equivalent monolithic*
    /// machine: a query still resolves all `log₂ N` address bits — `log₂ K`
    /// through the interleaving routers, the rest inside one shard — so the
    /// capacity-`N` stream of the shard architecture is the faithful
    /// whole-machine schedule (and what the fidelity analyses consume).
    fn query_layers(&self) -> Vec<QueryLayer> {
        self.template.query_layers()
    }

    /// The equivalent monolithic machine's interned stream (shards of the
    /// built-in architectures hit the process-wide intern table).
    fn interned_query_layers(&self) -> Arc<[QueryLayer]> {
        self.template.interned_query_layers()
    }

    /// The equivalent monolithic machine's compiled plan, when the shard
    /// architecture exposes one — single queries and fidelity estimates
    /// over the sharded machine then run compiled, exactly like the
    /// monolith they are observably equivalent to.
    fn compiled_query(&self) -> Option<Arc<CompiledQuery>> {
        self.template.compiled_query()
    }

    fn single_query_layers_integer(&self) -> u64 {
        self.template.single_query_layers_integer()
    }

    /// Sharding multiplies bandwidth, not depth: one lookup costs the
    /// monolithic latency.
    fn single_query_latency(&self, timing: &TimingModel) -> Layers {
        self.template.single_query_latency(timing)
    }

    /// Round-robin admission over the shards: the aggregate machine admits
    /// `K` queries per shard interval, so the interval is the minimum shard
    /// interval divided by `K`.
    fn admission_interval(&self, timing: &TimingModel) -> Layers {
        let min_shard = self
            .shards
            .iter()
            .map(|s| s.admission_interval(timing))
            .reduce(Layers::min)
            .expect("at least one shard");
        min_shard / f64::from(self.num_shards())
    }

    /// Round-robin admission: query `q` is the `⌊q/K⌋`-th query of shard
    /// `q mod K`, whose timeline is staggered by one integer layer per
    /// shard index (the interleaving router feeds one shard per layer), so
    /// retrieval layers stay strictly increasing for `K` below the shard's
    /// admission spacing.
    fn retrieval_layer(&self, query_index: usize) -> u64 {
        let k = self.shards.len();
        let shard = self.dispatch_shard(query_index) as usize;
        self.shards[shard].retrieval_layer(query_index / k) + shard as u64
    }

    /// Sharded batched execution: splits each query's superposition by
    /// shard bits, executes per-shard sub-batches through the shared
    /// instruction-level engine against interleaved shard memories, and
    /// recombines per-branch outcomes — observably equivalent to the
    /// monolithic machine.
    ///
    /// When the shard architecture exposes a compiled plan
    /// ([`QramModel::compiled_query`]), the whole batch runs through the
    /// columnar structure-of-arrays kernel: per memory epoch, the
    /// flattened term column is radix-partitioned by the low-order shard
    /// bits and gathered per shard segment (bit-parallel from packed
    /// per-shard images for 1-bit buses) — no per-shard sub-state
    /// construction. Otherwise each query runs through the interpreter
    /// sweep of [`Self::execute_queries_sequential`].
    ///
    /// Memory updates route to the owning shard and follow the §7.2
    /// classical-swap tie semantics of [`crate::model::execute_batch`]: an
    /// update whose layer *equals* a query's retrieval layer is visible to
    /// that query.
    fn execute_queries(
        &self,
        memory: &ClassicalMemory,
        addresses: &[AddressState],
        memory_updates: &[(u64, u64, u64)],
    ) -> Result<Vec<QueryOutcome>, ExecError> {
        let Some(plan) = self.shards[0].compiled_query() else {
            return self.execute_queries_sequential(memory, addresses, memory_updates);
        };
        let mut shard_mems = self.shard_memories(memory);
        if addresses.is_empty() {
            return Ok(Vec::new());
        }
        // Retrieval layers only order queries against memory writes; an
        // update-free batch needs none.
        let retrievals: Vec<u64> = if memory_updates.is_empty() {
            Vec::new()
        } else {
            (0..addresses.len())
                .map(|q| self.retrieval_layer(q))
                .collect()
        };
        // Bit-equal to the interpreter sweep (property-tested), infallible
        // by compile-time proof.
        Ok(crate::soa::execute_sharded_columnar(
            &plan,
            &mut shard_mems,
            self.shard_bits(),
            self.capacity.address_width(),
            addresses,
            &retrievals,
            memory_updates,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    fn checkerboard(n: u64) -> ClassicalMemory {
        let cells: Vec<u64> = (0..n).map(|i| (i * 5 + 1) % 2).collect();
        ClassicalMemory::from_words(1, &cells).unwrap()
    }

    #[test]
    fn geometry_sums_shards_plus_fan_out() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        assert_eq!(s.num_shards(), 4);
        assert_eq!(s.shard_capacity(), cap(16));
        assert_eq!(s.shard_bits(), 2);
        // 4 capacity-16 Fat-Trees (2·16 − 2 − 4 = 26 routers each) plus
        // the 3-router interleaving fan-out.
        assert_eq!(s.router_count(), 4 * 26 + 3);
        // 4 shards × log₂(16) pipelined queries each.
        assert_eq!(s.query_parallelism(), 16);
        assert_eq!(s.name(), "Sharded");
    }

    #[test]
    fn k1_degenerates_to_monolith() {
        let s = ShardedQram::fat_tree(cap(16), 1);
        let mono = FatTreeQram::new(cap(16));
        let timing = TimingModel::paper_default();
        assert_eq!(s.query_parallelism(), mono.query_parallelism());
        assert_eq!(s.router_count(), mono.router_count());
        assert_eq!(
            s.admission_interval(&timing),
            mono.admission_interval(&timing)
        );
        for q in 0..5 {
            assert_eq!(s.retrieval_layer(q), mono.retrieval_layer(q));
        }
    }

    #[test]
    fn admission_interval_scales_with_shard_count() {
        let timing = TimingModel::paper_default();
        let mono = FatTreeQram::new(cap(4096))
            .admission_interval(&timing)
            .get();
        for k in [2u32, 4, 8] {
            let s = ShardedQram::fat_tree(cap(4096), k);
            let got = s.admission_interval(&timing).get();
            assert!(
                (got - mono / f64::from(k)).abs() < 1e-12,
                "K={k}: {got} vs {}",
                mono / f64::from(k)
            );
        }
    }

    #[test]
    fn single_query_latency_is_monolithic() {
        let timing = TimingModel::paper_default();
        let s = ShardedQram::fat_tree(cap(1024), 8);
        let mono = FatTreeQram::new(cap(1024));
        assert_eq!(
            s.single_query_latency(&timing),
            mono.single_query_latency(&timing)
        );
        assert_eq!(
            s.single_query_layers_integer(),
            mono.single_query_layers_integer()
        );
    }

    #[test]
    fn address_interleaving_routes_low_bits() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        // Global address 22 = local 0b101, shard bits 0b10.
        assert_eq!(s.shard_of(22), 2);
        assert_eq!(s.local_address(22), 0b101);
        let mem = checkerboard(64);
        let shard_mems = s.shard_memories(&mem);
        assert_eq!(shard_mems.len(), 4);
        for (sidx, smem) in shard_mems.iter().enumerate() {
            assert_eq!(smem.capacity(), 16);
            for j in 0..16u64 {
                assert_eq!(smem.read(j), mem.read(j * 4 + sidx as u64));
            }
        }
    }

    #[test]
    fn retrieval_layers_strictly_increase_round_robin() {
        for k in [1u32, 2, 4, 8] {
            let s = ShardedQram::fat_tree(cap(64), k);
            let mut prev = 0;
            for q in 0..24 {
                let r = s.retrieval_layer(q);
                assert!(r > prev || q == 0, "K={k}, q={q}: {r} <= {prev}");
                prev = r;
            }
        }
    }

    #[test]
    fn serving_introspection_exposes_shard_queue_parameters() {
        let timing = TimingModel::paper_default();
        let s = ShardedQram::fat_tree(cap(4096), 4);
        // Shards have capacity 1024: parallelism log₂(1024), the Fat-Tree
        // weighted interval 8.25.
        assert_eq!(s.shard_parallelism(), 10);
        assert!((s.shard_admission_interval(&timing).get() - 8.25).abs() < 1e-12);
        // Aggregate figures are the per-shard ones scaled by K.
        assert_eq!(
            s.query_parallelism(),
            s.num_shards() * s.shard_parallelism()
        );
        assert_eq!(
            s.shard_admission_interval(&timing) / f64::from(s.num_shards()),
            s.admission_interval(&timing)
        );
        // Round-robin dispatch-queue assignment, matching retrieval_layer.
        for q in 0..12usize {
            assert_eq!(s.dispatch_shard(q), (q % 4) as u32);
        }
    }

    #[test]
    fn single_query_matches_ideal_via_monolithic_stream() {
        let s = ShardedQram::fat_tree(cap(16), 4);
        let mem = checkerboard(16);
        let addr = AddressState::full_superposition(4);
        let out = s.execute_query(&mem, &addr).unwrap();
        assert!((out.fidelity(&mem.ideal_query(&addr)) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn batched_execution_matches_ideal_on_superpositions() {
        for k in [1u32, 2, 4, 8] {
            let s = ShardedQram::fat_tree(cap(16), k);
            let mem = checkerboard(16);
            let addresses = vec![
                AddressState::uniform(4, &[0, 1, 2, 3]).unwrap(),
                AddressState::classical(4, 9).unwrap(),
                AddressState::uniform(4, &[5, 10, 15]).unwrap(),
                AddressState::full_superposition(4),
            ];
            let outs = s.execute_queries(&mem, &addresses, &[]).unwrap();
            assert_eq!(outs.len(), 4);
            for (address, out) in addresses.iter().zip(&outs) {
                assert!(
                    (out.fidelity(&mem.ideal_query(address)) - 1.0).abs() < 1e-12,
                    "K={k}"
                );
            }
        }
    }

    #[test]
    fn bucket_brigade_shards_work_too() {
        let s = ShardedQram::bucket_brigade(cap(16), 2);
        let mem = checkerboard(16);
        let addresses = vec![
            AddressState::uniform(4, &[1, 6, 11]).unwrap(),
            AddressState::classical(4, 0).unwrap(),
        ];
        let outs = s.execute_queries(&mem, &addresses, &[]).unwrap();
        for (address, out) in addresses.iter().zip(&outs) {
            assert!((out.fidelity(&mem.ideal_query(address)) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn memory_updates_route_to_owning_shard() {
        let s = ShardedQram::fat_tree(cap(16), 4);
        let mem = ClassicalMemory::zeros(16);
        // Global cell 6 = shard 2, local 1. Retrieval layers (n'=2, stagger):
        // q0 → 10, q1 → 11, q2 → 12.
        assert_eq!(s.retrieval_layer(0), 10);
        assert_eq!(s.retrieval_layer(1), 11);
        let addresses: Vec<AddressState> = (0..3)
            .map(|_| AddressState::classical(4, 6).unwrap())
            .collect();
        let outs = s.execute_queries(&mem, &addresses, &[(11, 6, 1)]).unwrap();
        assert_eq!(outs[0].data_for(6), Some(0)); // retrieves at 10, before the write
        assert_eq!(outs[1].data_for(6), Some(1)); // tie layer: write is visible
        assert_eq!(outs[2].data_for(6), Some(1));
    }

    #[test]
    fn multibit_bus_preserved_across_shards() {
        let s = ShardedQram::fat_tree(cap(8), 2);
        let mem = ClassicalMemory::from_words(8, &[200, 13, 0, 255, 7, 99, 128, 1]).unwrap();
        let addr = AddressState::uniform(3, &[0, 3, 6]).unwrap();
        let outs = s
            .execute_queries(&mem, std::slice::from_ref(&addr), &[])
            .unwrap();
        assert_eq!(outs[0].data_for(0), Some(200));
        assert_eq!(outs[0].data_for(3), Some(255));
        assert_eq!(outs[0].data_for(6), Some(128));
    }

    #[test]
    fn empty_batch_returns_no_outcomes() {
        let s = ShardedQram::fat_tree(cap(8), 2);
        let mem = ClassicalMemory::zeros(8);
        assert!(s.execute_queries(&mem, &[], &[]).unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_shard_count_rejected() {
        let _ = ShardedQram::fat_tree(cap(16), 3);
    }

    #[test]
    #[should_panic(expected = "fewer than two cells")]
    fn oversharding_rejected() {
        let _ = ShardedQram::fat_tree(cap(8), 8);
    }

    #[test]
    #[should_panic(expected = "admission spacing")]
    fn shard_count_above_admission_spacing_rejected() {
        // Fat-Tree back-to-back retrievals are 10 layers apart: 16 shards
        // would fold the round-robin stagger past the next retrieval.
        let _ = ShardedQram::fat_tree(cap(64), 16);
    }

    #[test]
    fn bb_shards_allow_wider_round_robin() {
        // BB spacing is 8n' + 1 = 17 at shard capacity 4, so K = 16 fits
        // and retrieval layers stay strictly increasing across the wrap.
        let s = ShardedQram::bucket_brigade(cap(64), 16);
        let mut prev = 0;
        for q in 0..48 {
            let r = s.retrieval_layer(q);
            assert!(r > prev || q == 0, "q={q}: {r} <= {prev}");
            prev = r;
        }
    }

    #[test]
    #[should_panic(expected = "must match")]
    fn batch_rejects_mismatched_memory() {
        let s = ShardedQram::fat_tree(cap(16), 2);
        let mem = ClassicalMemory::zeros(8);
        let _ = s.execute_queries(&mem, &[], &[]);
    }

    #[test]
    fn sharded_compiled_plan_is_the_monolith_template_plan() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        let mono = FatTreeQram::new(cap(64));
        let plan = s.compiled_query().expect("template plan");
        assert!(std::sync::Arc::ptr_eq(
            &plan,
            &mono.compiled_query().expect("built-in plan")
        ));
        // And the shard-level plan is the shard-capacity plan.
        let shard_plan = s.shards()[0].compiled_query().expect("shard plan");
        assert_eq!(shard_plan.address_width(), 4);
    }

    #[test]
    fn sharded_interned_layers_are_shared() {
        let s = ShardedQram::fat_tree(cap(64), 4);
        assert!(std::sync::Arc::ptr_eq(
            &s.interned_query_layers(),
            &FatTreeQram::new(cap(64)).interned_query_layers()
        ));
    }
}
