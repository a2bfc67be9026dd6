//! Output checks and the virtual-time model section.
//!
//! The oracle is independent of the serving stack: every served outcome
//! must equal `ClassicalMemory::ideal_query` against the memory version
//! the query recorded (its `epoch`), rebuilt here from the benchmark's
//! own write stream.

use qram_serve::FleetReport;

use crate::inputs::Inputs;

/// What one report's checks found.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Verdict {
    /// Requests the call offered.
    pub attempted: u64,
    /// Requests the fleet shed.
    pub shed: u64,
    /// Served outcomes that differ from the oracle.
    pub wrong: u64,
    /// Whether completed + shed accounts for every request exactly once.
    pub conserved: bool,
}

impl Verdict {
    /// Shed plus wrong outcomes, plus every request when the report
    /// lost or duplicated some.
    pub fn failed(&self) -> u64 {
        if self.conserved {
            self.shed + self.wrong
        } else {
            self.attempted
        }
    }
}

/// Checks `report` against the oracle.
pub fn check(inputs: &Inputs, report: &FleetReport) -> Verdict {
    let completed = report.completed();
    let outcomes = report.outcomes();
    let mut seen = vec![false; inputs.requests.len()];
    let mut conserved = outcomes.len() == completed.len();
    for id in completed
        .iter()
        .map(|q| q.id)
        .chain(report.shed().iter().map(|s| s.id))
    {
        match seen.get_mut(id) {
            Some(flag) if !*flag => *flag = true,
            _ => conserved = false,
        }
    }
    conserved &= seen.iter().all(|&s| s);

    // Visit queries in epoch order, applying the write stream to one
    // running memory image: O(N + W) memory whatever the write count.
    let mut order: Vec<usize> = (0..completed.len().min(outcomes.len())).collect();
    order.sort_by_key(|&i| completed[i].epoch);
    let mut memory = inputs.memory.clone();
    let mut applied = 0usize;
    let mut wrong = 0u64;
    for i in order {
        let query = &completed[i];
        let epoch = query.epoch as usize;
        if epoch > inputs.writes.len() || query.id >= inputs.requests.len() {
            wrong += 1;
            continue;
        }
        for w in &inputs.writes[applied..epoch] {
            memory.write(w.address, w.value);
        }
        applied = applied.max(epoch);
        if outcomes[i] != memory.ideal_query(&inputs.requests[query.id].address) {
            wrong += 1;
        }
    }
    Verdict {
        attempted: inputs.requests.len() as u64,
        shed: report.shed().len() as u64,
        wrong,
        conserved,
    }
}

/// The virtual-time outputs of one serve call. These are results of the
/// model, not host performance: they must repeat bit for bit across
/// calls and runs with the same seed.
#[derive(Debug, Clone, PartialEq)]
pub struct Model {
    /// Served queries per virtual second.
    pub query_rate: f64,
    /// Median response latency, virtual µs.
    pub p50_us: f64,
    /// 99th-percentile response latency, virtual µs.
    pub p99_us: f64,
    /// Reads served against a superseded memory version (flagged).
    pub stale_served: u64,
    /// Writes committed over the call.
    pub fleet_epoch: u64,
    /// Queries dispatched per replica.
    pub per_replica_dispatches: Vec<u64>,
}

impl Model {
    /// The model section of `report`.
    pub fn of(report: &FleetReport) -> Model {
        let histogram = report.latency_histogram();
        let timing = qram_metrics::TimingModel::paper_default();
        let micros = |q: f64| {
            histogram
                .try_quantile(q)
                .map_or(0.0, |l| timing.layers_to_micros(l))
        };
        Model {
            query_rate: report.query_rate().get(),
            p50_us: micros(0.5),
            p99_us: micros(0.99),
            stale_served: report.stale_served(),
            fleet_epoch: report.fleet_epoch(),
            per_replica_dispatches: report.per_replica_dispatches().to_vec(),
        }
    }

    /// Bit-exact equality (floats compared by their bits).
    pub fn same_bits(&self, other: &Model) -> bool {
        self.query_rate.to_bits() == other.query_rate.to_bits()
            && self.p50_us.to_bits() == other.p50_us.to_bits()
            && self.p99_us.to_bits() == other.p99_us.to_bits()
            && self.stale_served == other.stale_served
            && self.fleet_epoch == other.fleet_epoch
            && self.per_replica_dispatches == other.per_replica_dispatches
    }

    /// FNV-1a over the section's bits: equal digests across two runs
    /// with one seed show the model repeated exactly.
    pub fn digest(&self) -> u64 {
        let mut words = vec![
            self.query_rate.to_bits(),
            self.p50_us.to_bits(),
            self.p99_us.to_bits(),
            self.stale_served,
            self.fleet_epoch,
        ];
        words.extend(&self.per_replica_dispatches);
        words
            .iter()
            .flat_map(|w| w.to_le_bytes())
            .fold(0xCBF2_9CE4_8422_2325u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
    }

    /// The section as one JSON object.
    pub fn json(&self) -> String {
        let dispatches: Vec<String> = self
            .per_replica_dispatches
            .iter()
            .map(u64::to_string)
            .collect();
        format!(
            "{{\"query_rate\": {}, \"p50_us\": {}, \"p99_us\": {}, \"stale_served\": {}, \
             \"fleet_epoch\": {}, \"per_replica_dispatches\": [{}], \"digest\": \"{:016x}\"}}",
            self.query_rate,
            self.p50_us,
            self.p99_us,
            self.stale_served,
            self.fleet_epoch,
            dispatches.join(", "),
            self.digest()
        )
    }
}
