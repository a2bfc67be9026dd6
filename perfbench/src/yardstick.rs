//! A fixed reference loop that measures how fast the host is right now.
//!
//! On a shared virtual machine the host's speed drifts: for seconds to
//! minutes at a time, memory-bound code runs up to 1.6× slower while a
//! register-only loop does not slow at all. A whole run can fall inside
//! one slow stretch, so no statistic taken within a run removes it. The
//! benchmark runs this loop right after every timed operation and
//! divides the operation's time by the *host factor*: the loop's time
//! over `NOMINAL_S`. The loop is the benchmark's own code, so a change
//! to the program under test cannot move it.
//!
//! The mix mirrors what the serving stack does on the host: small
//! allocations, hash-map inserts and probes, binary-heap pushes and
//! pops, and random reads over a table bigger than the L2 cache. On the
//! reference host, dividing by the factor cut the drift of serve-call
//! time between 10-second stretches from about 7% to about 2% on every
//! workload (METRICS.md).

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// The loop's time on the reference host in its fast state: a 2-vCPU
/// KVM guest (Intel Xeon, model 143).
const NOMINAL_S: f64 = 5.0e-3;
/// Items per allocation, hash-map and heap pass.
const ITEMS: u64 = 16_384;
/// Random reads per pass.
const READS: usize = 100_000;
/// Words in the random-read table: 8 MB.
const TABLE_WORDS: usize = 1 << 20;

/// The reference loop and the table it reads.
#[derive(Debug)]
pub struct Yardstick {
    table: Vec<u64>,
    state: u64,
}

impl Yardstick {
    /// Allocates and touches the read table once, so no pass pays for
    /// page faults on it.
    pub fn new() -> Yardstick {
        Yardstick {
            table: (0..TABLE_WORDS as u64).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Runs the loop once; returns the host factor, its time over
    /// `NOMINAL_S` (above 1 when the host is slower than nominal).
    pub fn factor(&mut self) -> f64 {
        let start = Instant::now();
        let small: Vec<Vec<u64>> = (0..ITEMS).map(|i| vec![i, i + 1, i + 2]).collect();
        black_box(&small);
        drop(small);

        let mut map = HashMap::new();
        for i in 0..ITEMS {
            let key = self.next() & 0xFFFF;
            map.insert(key, i);
        }
        let mut acc = 0u64;
        for i in 0..ITEMS {
            acc = acc.wrapping_add(*map.get(&(i & 0xFFFF)).unwrap_or(&0));
        }
        drop(map);

        let mut heap = BinaryHeap::new();
        for i in 0..ITEMS {
            heap.push((self.next() >> 20, i));
        }
        while let Some((_, i)) = heap.pop() {
            acc = acc.wrapping_add(i);
        }

        for _ in 0..READS {
            let at = self.next() as usize & (TABLE_WORDS - 1);
            acc = acc.wrapping_add(self.table[at]);
        }
        black_box(acc);
        start.elapsed().as_secs_f64() / NOMINAL_S
    }
}
