//! The columnar (structure-of-arrays) batch kernel — stage 4 of the
//! interpret → intern → compile → columnar pipeline (see [`crate::exec`]).
//!
//! Once a [`CompiledQuery`] has reduced per-branch work to one classical
//! memory read, a batch's cost is dominated by everything *around* that
//! read: per-query allocator traffic, hash probes of the memo cache, and
//! per-branch virtual dispatch. This kernel restructures the batch so the
//! access pattern, not the per-query abstraction, drives the hot loop:
//!
//! * **Flatten** — all queries' `(amplitude, address)` terms become two
//!   parallel columns (`Vec<Complex>` / `Vec<u64>`) with per-query offset
//!   ranges, built in one pass.
//! * **Epoch batching** — the §7.2 retrieval-order sweep partitions the
//!   batch into *epochs* (maximal runs of queries between memory writes).
//!   Memo-cache accounting is computed per epoch from the address column
//!   directly — distinct single-branch sets via a reusable bitmap,
//!   distinct multi-branch sets by sorting the epoch's query indices by
//!   address slice — instead of one hash probe per query. Per epoch, the
//!   counters report one miss per distinct address set and one hit for
//!   every further query over a set already seen in that epoch.
//! * **Bit-parallel retrieval** — for 1-bit buses the epoch's retrieval
//!   parities are gathered from a packed memory image (cell `a` → bit
//!   `a mod 64` of word `a / 64`), accumulating 64 branches per `u64`
//!   word before scattering into the term column.
//! * **Shard radix partition** — the sharded kernel partitions each
//!   epoch's entries by the low-order shard bits with one counting sort
//!   (no per-shard `HashMap` sub-batches), then gathers per shard
//!   segment, keeping per-shard packed images with dirty flags across
//!   epochs.
//! * **Shared outcome column** — every epoch appends its terms to one
//!   batch-wide `(amplitude, address, data)` column; per-query outcomes
//!   are constant-size views into the final `Arc` of that column
//!   ([`QueryOutcome::from_shared_column`]), so a query costs one
//!   reference-count bump instead of one heap allocation.
//!
//! The interpreter ([`crate::execute_batch_unmemoized`],
//! `ShardedQram::execute_queries_sequential`) stays untouched as the
//! property-tested reference; workspace-level proptests pin this kernel's
//! outcomes bit-equal to it on every backend, and its [`BatchCacheStats`]
//! to an independent per-epoch count of distinct address sets.

use std::sync::Arc;

use qsim::branch::{AddressState, ClassicalMemory, QueryOutcome};
use qsim::Complex;

use crate::exec::CompiledQuery;
use crate::model::{retrieval_order_sweep, BatchCacheStats, SweepEvent};

/// The flattened structure-of-arrays view of a batch: all queries'
/// `(amplitude, address)` terms in query order, with per-query offset
/// ranges `offsets[q]..offsets[q + 1]`.
struct Columns {
    offsets: Vec<usize>,
    amps: Vec<Complex>,
    addrs: Vec<u64>,
}

impl Columns {
    /// One-pass flatten. Asserts every query's address width against the
    /// expected width with the given message (matching the row path's
    /// per-query assertion).
    fn flatten(addresses: &[AddressState], width: u32, width_msg: &'static str) -> Self {
        let total: usize = addresses.iter().map(AddressState::num_branches).sum();
        let mut offsets = Vec::with_capacity(addresses.len() + 1);
        let mut amps = Vec::with_capacity(total);
        let mut addrs = Vec::with_capacity(total);
        offsets.push(0);
        for address in addresses {
            assert_eq!(address.address_width(), width, "{width_msg}");
            for &(amp, addr) in address.iter() {
                amps.push(amp);
                addrs.push(addr);
            }
            offsets.push(addrs.len());
        }
        Columns {
            offsets,
            amps,
            addrs,
        }
    }

    fn range(&self, q: usize) -> (usize, usize) {
        (self.offsets[q], self.offsets[q + 1])
    }

    fn addr_slice(&self, q: usize) -> &[u64] {
        &self.addrs[self.offsets[q]..self.offsets[q + 1]]
    }
}

/// Reusable per-epoch scratch: the distinct-address bitmap (with its undo
/// list) and the multi-branch index buffer for memo accounting, so a
/// multi-epoch batch performs O(1) allocations per epoch, not O(queries).
struct StatsScratch {
    /// One bit per memory cell: "a single-branch query over this address
    /// was already counted in the current epoch".
    seen: Vec<u64>,
    /// Addresses whose bits are set, for an O(distinct) clear per epoch.
    touched: Vec<u64>,
    /// Multi-branch query indices of the current epoch.
    multi: Vec<usize>,
}

impl StatsScratch {
    fn new(cells: usize) -> Self {
        StatsScratch {
            seen: vec![0; cells.div_ceil(64)],
            touched: Vec::new(),
            multi: Vec::new(),
        }
    }

    /// Counts the distinct address sets among `pending` and folds them
    /// into `stats`: per epoch, one miss per distinct set, one hit per
    /// repeat. Single-branch sets (the common serving shape) are
    /// deduplicated through the bitmap in O(1) each; multi-branch sets by
    /// sorting their query indices by address slice (sets of different
    /// sizes can never collide, so the two classes count independently).
    fn account(&mut self, pending: &[usize], cols: &Columns, stats: &mut BatchCacheStats) {
        let mut distinct = 0u64;
        self.multi.clear();
        for &q in pending {
            let (start, end) = cols.range(q);
            if end - start == 1 {
                let a = cols.addrs[start];
                let (word, bit) = ((a >> 6) as usize, a & 63);
                if self.seen[word] >> bit & 1 == 0 {
                    self.seen[word] |= 1 << bit;
                    self.touched.push(a);
                    distinct += 1;
                }
            } else {
                self.multi.push(q);
            }
        }
        for &a in &self.touched {
            self.seen[(a >> 6) as usize] &= !(1 << (a & 63));
        }
        self.touched.clear();
        if !self.multi.is_empty() {
            self.multi
                .sort_unstable_by(|&a, &b| cols.addr_slice(a).cmp(cols.addr_slice(b)));
            distinct += 1;
            distinct += self
                .multi
                .windows(2)
                .filter(|w| cols.addr_slice(w[0]) != cols.addr_slice(w[1]))
                .count() as u64;
        }
        stats.misses += distinct;
        stats.hits += pending.len() as u64 - distinct;
    }
}

/// Rebuilds the packed 1-bit image of `cells`: cell `a` → bit `a mod 64`
/// of word `a / 64`.
fn pack_image(cells: &[u64], image: &mut Vec<u64>) {
    image.clear();
    image.resize(cells.len().div_ceil(64), 0);
    for (a, &value) in cells.iter().enumerate() {
        image[a >> 6] |= (value & 1) << (a & 63);
    }
}

/// Cell count below which the raw cell array is L1-resident (≤ 32 KiB of
/// `u64` words), where a direct indexed load per term beats any packed
/// image: the image only wins by shrinking the working set 64×, which
/// buys nothing when the full array already sits in L1.
const L1_RESIDENT_CELLS: usize = 4096;

/// Whether the bit-parallel gather pays for a `gathers`-entry epoch
/// against a `cells`-cell memory: the O(cells) image build must be
/// amortized, chunks below one word are pure overhead, and the cell
/// array must be large enough that shrinking it 64× actually moves the
/// working set out of cache-hostile territory.
fn bit_parallel_pays(bus_width: u32, gathers: usize, cells: usize) -> bool {
    bus_width == 1 && gathers >= 64 && gathers >= cells / 8 && cells > L1_RESIDENT_CELLS
}

/// Fills the `data` component of `terms` bit-parallel from a packed
/// image, addressing through `local(address)`: 64 branch parities are
/// accumulated into one `u64` word, then scattered.
fn gather_bits(terms: &mut [(Complex, u64, u64)], image: &[u64], local: impl Fn(u64) -> u64) {
    for chunk in terms.chunks_mut(64) {
        let mut word = 0u64;
        for (j, term) in chunk.iter().enumerate() {
            let a = local(term.1);
            word |= (image[(a >> 6) as usize] >> (a & 63) & 1) << j;
        }
        for (j, term) in chunk.iter_mut().enumerate() {
            term.2 = word >> j & 1;
        }
    }
}

/// The columnar batch kernel for a monolithic backend with a compiled
/// plan — the engine behind
/// [`execute_batch_traced`](crate::execute_batch_traced) whenever
/// [`QramModel::compiled_query`](crate::QramModel::compiled_query) is
/// available. Infallible: the plan was proven valid for every address at
/// compile time.
///
/// `retrievals` is only consulted when `memory_updates` is non-empty (an
/// update-free batch is a single epoch in query order, which needs no
/// sweep); callers may pass an empty slice otherwise.
///
/// # Panics
///
/// Panics if any query's address width mismatches the memory (same
/// message as the row path).
pub(crate) fn execute_batch_columnar(
    plan: &CompiledQuery,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    retrievals: &[u64],
    memory_updates: &[(u64, u64, u64)],
) -> (Vec<QueryOutcome>, BatchCacheStats) {
    let n = memory.address_width();
    let bus_width = memory.bus_width();
    if memory_updates.is_empty() {
        // Update-free batch: one epoch in query order. Flatten, memo
        // accounting, and the term column fuse into a single pass.
        return execute_single_epoch(plan, memory, addresses, n, bus_width);
    }
    let cols = Columns::flatten(addresses, n, "address width must match memory capacity");
    let total = cols.addrs.len();
    let mut column: Vec<(Complex, u64, u64)> = Vec::with_capacity(total);
    let mut ranges: Vec<(usize, usize)> = vec![(0, 0); addresses.len()];
    let mut stats = BatchCacheStats::default();
    let mut scratch = StatsScratch::new(memory.capacity());
    let mut image: Vec<u64> = Vec::new();
    let mut image_valid = false;
    let reads_data = plan.reads_data();

    let mut process_epoch = |pending: &[usize], mem: &ClassicalMemory, image_valid: &mut bool| {
        scratch.account(pending, &cols, &mut stats);
        let epoch_start = column.len();
        for &q in pending {
            let (start, end) = cols.range(q);
            let out_start = column.len();
            for i in start..end {
                column.push((cols.amps[i], cols.addrs[i], 0));
            }
            ranges[q] = (out_start, column.len());
        }
        if !reads_data {
            return; // XOR-cancelled constant 0: the placeholders stand.
        }
        let cells = mem.cells();
        let epoch = &mut column[epoch_start..];
        if bit_parallel_pays(bus_width, epoch.len(), cells.len()) {
            if !*image_valid {
                pack_image(cells, &mut image);
                *image_valid = true;
            }
            gather_bits(epoch, &image, |a| a);
        } else {
            for term in epoch.iter_mut() {
                term.2 = cells[term.1 as usize];
            }
        }
    };

    let mut pending: Vec<usize> = Vec::with_capacity(addresses.len());
    let mut mem = memory.clone();
    retrieval_order_sweep(retrievals, memory_updates, |event| -> Result<(), ()> {
        match event {
            SweepEvent::Update { address, value } => {
                if !pending.is_empty() {
                    process_epoch(&pending, &mem, &mut image_valid);
                    pending.clear();
                }
                mem.write(address, value);
                image_valid = false;
            }
            SweepEvent::Query(q) => pending.push(q),
        }
        Ok(())
    })
    .expect("columnar sweep is infallible");
    if !pending.is_empty() {
        process_epoch(&pending, &mem, &mut image_valid);
    }

    let column: Arc<[(Complex, u64, u64)]> = column.into();
    let outcomes = ranges
        .iter()
        .map(|&(start, end)| QueryOutcome::from_shared_column(n, bus_width, &column, start, end))
        .collect();
    (outcomes, stats)
}

/// The fused single-epoch kernel behind [`execute_batch_columnar`] for
/// update-free batches — the dominant serving shape. One pass over the
/// queries builds the term column, the per-query offsets, and the memo
/// accounting together (bitmap for single-branch sets, deferred
/// sort-by-address-sequence for multi-branch sets); the retrieval gather
/// then runs over the whole column at once. An all-classical batch never
/// builds the shared `Arc` column at all: every outcome stores its lone
/// term inline ([`QueryOutcome::from_term`]).
fn execute_single_epoch(
    plan: &CompiledQuery,
    memory: &ClassicalMemory,
    addresses: &[AddressState],
    n: u32,
    bus_width: u32,
) -> (Vec<QueryOutcome>, BatchCacheStats) {
    let cells = memory.cells();
    let total: usize = addresses.iter().map(|a| a.terms().len()).sum();
    let mut column: Vec<(Complex, u64, u64)> = Vec::with_capacity(total);
    let mut offsets: Vec<usize> = Vec::with_capacity(addresses.len() + 1);
    offsets.push(0);
    let mut scratch = StatsScratch::new(memory.capacity());
    let mut distinct = 0u64;
    for address in addresses {
        assert_eq!(
            address.address_width(),
            n,
            "address width must match memory capacity"
        );
        let terms = address.terms();
        if terms.len() == 1 {
            let (amp, a) = terms[0];
            column.push((amp, a, 0));
            let (word, bit) = ((a >> 6) as usize, a & 63);
            if scratch.seen[word] >> bit & 1 == 0 {
                scratch.seen[word] |= 1 << bit;
                scratch.touched.push(a);
                distinct += 1;
            }
        } else {
            scratch.multi.push(offsets.len() - 1);
            for &(amp, a) in terms {
                column.push((amp, a, 0));
            }
        }
        offsets.push(column.len());
    }
    for &a in &scratch.touched {
        scratch.seen[(a >> 6) as usize] &= !(1 << (a & 63));
    }
    scratch.touched.clear();
    if !scratch.multi.is_empty() {
        let addr_seq = |q: usize| column[offsets[q]..offsets[q + 1]].iter().map(|t| t.1);
        scratch
            .multi
            .sort_unstable_by(|&a, &b| addr_seq(a).cmp(addr_seq(b)));
        distinct += 1;
        distinct += scratch
            .multi
            .windows(2)
            .filter(|w| !addr_seq(w[0]).eq(addr_seq(w[1])))
            .count() as u64;
    }
    let stats = BatchCacheStats {
        misses: distinct,
        hits: addresses.len() as u64 - distinct,
    };

    if plan.reads_data() {
        if bit_parallel_pays(bus_width, column.len(), cells.len()) {
            let mut image = Vec::new();
            pack_image(cells, &mut image);
            gather_bits(&mut column, &image, |a| a);
        } else {
            for term in column.iter_mut() {
                term.2 = cells[term.1 as usize];
            }
        }
    }

    let outcomes = if column.len() == addresses.len() {
        // All single-branch: inline outcomes, no shared column.
        column
            .iter()
            .map(|&term| QueryOutcome::from_term(n, bus_width, term))
            .collect()
    } else {
        let column: Arc<[(Complex, u64, u64)]> = column.into();
        offsets
            .windows(2)
            .map(|w| QueryOutcome::from_shared_column(n, bus_width, &column, w[0], w[1]))
            .collect()
    };
    (outcomes, stats)
}

/// The columnar batch kernel for [`ShardedQram`](crate::ShardedQram)
/// with a compiled shard plan: the same epoch structure as
/// [`execute_batch_columnar`], with each epoch's entries radix-
/// partitioned across shards by the low-order `shard_bits` address bits
/// (one counting sort — no per-shard sub-batch maps) and gathered per
/// shard segment against the interleaved shard memories. Per-shard packed
/// 1-bit images persist across epochs behind dirty flags, so only shards
/// actually written between epochs rebuild.
///
/// Memory updates arrive in *global* addressing and are routed to the
/// owning shard here, mutating `shard_mems` exactly like the interpreter
/// sweep. No cache statistics: the sharded path has never reported them.
///
/// # Panics
///
/// Panics if any query's address width mismatches the sharded capacity
/// (same message as the interpreter path).
pub(crate) fn execute_sharded_columnar(
    plan: &CompiledQuery,
    shard_mems: &mut [ClassicalMemory],
    shard_bits: u32,
    address_width: u32,
    addresses: &[AddressState],
    retrievals: &[u64],
    memory_updates: &[(u64, u64, u64)],
) -> Vec<QueryOutcome> {
    let bus_width = shard_mems[0].bus_width();
    let mut gather = ShardGather::new(shard_mems, shard_bits);
    let reads_data = plan.reads_data();

    if memory_updates.is_empty() {
        let total: usize = addresses.iter().map(|a| a.terms().len()).sum();
        if total > addresses.len() {
            // Multi-branch queries present: each outcome owns its terms,
            // filled and gathered in place — one write pass per term, no
            // intermediate column to re-copy into shared storage.
            let mut outcomes = Vec::with_capacity(addresses.len());
            for address in addresses {
                assert_eq!(
                    address.address_width(),
                    address_width,
                    "address width must match QRAM capacity"
                );
                let mut terms: Vec<(Complex, u64, u64)> = address
                    .terms()
                    .iter()
                    .map(|&(amp, a)| (amp, a, 0))
                    .collect();
                if reads_data {
                    gather.gather(&mut terms, shard_mems);
                }
                outcomes.push(QueryOutcome::from_terms(address_width, bus_width, terms));
            }
            return outcomes;
        }
        // All single-branch (the serving shape): one epoch in query order,
        // flattened in a single fused pass, outcomes stored inline.
        let mut column: Vec<(Complex, u64, u64)> = Vec::with_capacity(total);
        for address in addresses {
            assert_eq!(
                address.address_width(),
                address_width,
                "address width must match QRAM capacity"
            );
            let &(amp, a) = &address.terms()[0];
            column.push((amp, a, 0));
        }
        if reads_data {
            gather.gather(&mut column, shard_mems);
        }
        return column
            .iter()
            .map(|&term| QueryOutcome::from_term(address_width, bus_width, term))
            .collect();
    }

    let cols = Columns::flatten(
        addresses,
        address_width,
        "address width must match QRAM capacity",
    );
    let total = cols.addrs.len();
    let mut column: Vec<(Complex, u64, u64)> = Vec::with_capacity(total);
    let mut ranges: Vec<(usize, usize)> = vec![(0, 0); addresses.len()];
    let shard_mask = gather.shard_mask;

    let mut process_epoch =
        |pending: &[usize], shard_mems: &[ClassicalMemory], gather: &mut ShardGather| {
            let epoch_start = column.len();
            for &q in pending {
                let (start, end) = cols.range(q);
                let out_start = column.len();
                for i in start..end {
                    column.push((cols.amps[i], cols.addrs[i], 0));
                }
                ranges[q] = (out_start, column.len());
            }
            if reads_data {
                gather.gather(&mut column[epoch_start..], shard_mems);
            }
        };

    let mut pending: Vec<usize> = Vec::with_capacity(addresses.len());
    retrieval_order_sweep(retrievals, memory_updates, |event| -> Result<(), ()> {
        match event {
            SweepEvent::Update { address, value } => {
                if !pending.is_empty() {
                    process_epoch(&pending, shard_mems, &mut gather);
                    pending.clear();
                }
                let s = (address & shard_mask) as usize;
                shard_mems[s].write(address >> shard_bits, value);
                gather.invalidate(s);
            }
            SweepEvent::Query(q) => pending.push(q),
        }
        Ok(())
    })
    .expect("columnar sweep is infallible");
    if !pending.is_empty() {
        process_epoch(&pending, shard_mems, &mut gather);
    }

    let column: Arc<[(Complex, u64, u64)]> = column.into();
    ranges
        .iter()
        .map(|&(start, end)| {
            QueryOutcome::from_shared_column(address_width, bus_width, &column, start, end)
        })
        .collect()
}

/// The per-epoch shard gather of [`execute_sharded_columnar`]: radix-
/// partitions an epoch's term entries by the low-order shard bits with
/// one counting sort (no per-shard `HashMap` sub-batches) and fills each
/// entry's data from its owning shard — bit-parallel from packed 1-bit
/// images where that pays. Per-shard images persist across epochs behind
/// dirty flags ([`Self::invalidate`]); counting-sort scratch is reused.
struct ShardGather {
    images: Vec<Vec<u64>>,
    image_valid: Vec<bool>,
    counts: Vec<usize>,
    cursors: Vec<usize>,
    perm: Vec<usize>,
    shard_bits: u32,
    shard_mask: u64,
    bus_width: u32,
    shard_cells: usize,
}

impl ShardGather {
    fn new(shard_mems: &[ClassicalMemory], shard_bits: u32) -> Self {
        let num_shards = shard_mems.len();
        ShardGather {
            images: vec![Vec::new(); num_shards],
            image_valid: vec![false; num_shards],
            counts: vec![0; num_shards],
            cursors: vec![0; num_shards],
            perm: Vec::new(),
            shard_bits,
            shard_mask: num_shards as u64 - 1,
            bus_width: shard_mems[0].bus_width(),
            shard_cells: shard_mems[0].capacity(),
        }
    }

    /// Marks shard `s`'s packed image stale after a write.
    fn invalidate(&mut self, s: usize) {
        self.image_valid[s] = false;
    }

    fn gather(&mut self, epoch: &mut [(Complex, u64, u64)], shard_mems: &[ClassicalMemory]) {
        // Radix partition by the low-order shard bits: one counting sort
        // over the epoch yields, per shard, the (ascending) entry indices
        // it serves.
        self.counts.fill(0);
        for term in epoch.iter() {
            self.counts[(term.1 & self.shard_mask) as usize] += 1;
        }
        // The partition only earns its keep feeding per-shard packed
        // images; when every shard's cells are L1-resident a direct
        // indexed load per term is cheaper than building the permutation.
        let any_image = self
            .counts
            .iter()
            .any(|&count| bit_parallel_pays(self.bus_width, count, self.shard_cells));
        if !any_image {
            for term in epoch.iter_mut() {
                let s = (term.1 & self.shard_mask) as usize;
                term.2 = shard_mems[s].cells()[(term.1 >> self.shard_bits) as usize];
            }
            return;
        }
        let mut running = 0;
        for (cursor, &count) in self.cursors.iter_mut().zip(&self.counts) {
            *cursor = running;
            running += count;
        }
        self.perm.clear();
        self.perm.resize(epoch.len(), 0);
        for (i, term) in epoch.iter().enumerate() {
            let s = (term.1 & self.shard_mask) as usize;
            self.perm[self.cursors[s]] = i;
            self.cursors[s] += 1;
        }
        let mut segment_start = 0;
        for (s, &count) in self.counts.iter().enumerate() {
            let segment = &self.perm[segment_start..segment_start + count];
            segment_start += count;
            if count == 0 {
                continue;
            }
            let cells = shard_mems[s].cells();
            if bit_parallel_pays(self.bus_width, count, self.shard_cells) {
                if !self.image_valid[s] {
                    pack_image(cells, &mut self.images[s]);
                    self.image_valid[s] = true;
                }
                let image = &self.images[s];
                for chunk in segment.chunks(64) {
                    let mut word = 0u64;
                    for (j, &i) in chunk.iter().enumerate() {
                        let a = epoch[i].1 >> self.shard_bits;
                        word |= (image[(a >> 6) as usize] >> (a & 63) & 1) << j;
                    }
                    for (j, &i) in chunk.iter().enumerate() {
                        epoch[i].2 = word >> j & 1;
                    }
                }
            } else {
                for &i in segment {
                    let a = epoch[i].1 >> self.shard_bits;
                    epoch[i].2 = cells[a as usize];
                }
            }
        }
    }
}
