//! Pipelined query scheduling and diagram rendering (Figs. 6, 7, 12).
//!
//! A Fat-Tree QRAM admits a new query every 10 circuit layers. Each query's
//! trajectory through the sub-component QRAMs of Fig. 5 follows an even–odd
//! transposition pattern: enter at sub-QRAM 0, ascend one position per swap
//! step, hold one swap step at the top (data retrieval), descend back to 0,
//! and exit. [`PipelineSchedule`] materializes these trajectories and
//! proves conflict-freedom ("no conflicting colors in the same layer",
//! Fig. 6).

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use qram_metrics::{Capacity, Layers, TimingModel, Utilization, UtilizationTrace};

thread_local! {
    /// Per-thread count of [`PipelineSchedule`] constructions.
    static SCHEDULE_CONSTRUCTIONS: Cell<u64> = const { Cell::new(0) };
}

/// Per-capacity memo of the largest batch size whose pipeline has already
/// been proven conflict-free, keyed by `Capacity::get()`.
static VALIDATED_BATCHES: OnceLock<Mutex<HashMap<u64, usize>>> = OnceLock::new();

/// Proves the pipeline for `num_queries` back-to-back queries at
/// `capacity` conflict-free, memoizing the result process-wide.
///
/// A query's trajectory `position_at(q, t)` depends only on its index,
/// the gate step, and the capacity — never on the batch size — so a
/// conflict between queries `i < j` in a `B`-query batch is also a
/// conflict in every batch of at least `j + 1` queries. Conflict-freedom
/// is therefore monotone: proving it for `B` proves it for all `B' ≤ B`,
/// and the memo only has to record the largest batch validated per
/// capacity. Steady-state batch execution pays one mutex lock here
/// instead of an `O(gate steps)` sweep per batch.
///
/// # Errors
///
/// Returns the first conflict found, if any (never, for the Fat-Tree
/// schedule — the even–odd transposition pattern is conflict-free by
/// construction, which this check re-proves rather than assumes).
pub fn ensure_conflict_free(capacity: Capacity, num_queries: usize) -> Result<(), ConflictError> {
    if num_queries == 0 {
        return Ok(());
    }
    let memo = VALIDATED_BATCHES.get_or_init(|| Mutex::new(HashMap::new()));
    {
        let validated = memo.lock().expect("validation memo poisoned");
        if validated
            .get(&capacity.get())
            .is_some_and(|&max| num_queries <= max)
        {
            return Ok(());
        }
    }
    PipelineSchedule::new(capacity, num_queries).validate_no_conflicts()?;
    let mut validated = memo.lock().expect("validation memo poisoned");
    let max = validated.entry(capacity.get()).or_insert(0);
    *max = (*max).max(num_queries);
    Ok(())
}

/// Number of [`PipelineSchedule`] values constructed on the calling thread
/// since it started. Execution never leaves the calling thread, so a test
/// reading the counter before and after a call sees exactly that call's
/// constructions, whatever other test threads do meanwhile.
///
/// A diagnostic for regression tests: batched execution of a `B`-query
/// batch must stay `O(B)` in schedule constructions (it was once
/// `O(B log B)` from rebuilding a schedule inside a sort comparator).
#[must_use]
pub fn schedule_construction_count() -> u64 {
    SCHEDULE_CONSTRUCTIONS.get()
}

use crate::latency;
use crate::ops::{Op, QubitTag};
use crate::query_ops::{fat_tree_gate_step_position, QueryLayer};

/// Start, retrieval, and completion layers of one pipelined query
/// (1-based global circuit layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryTiming {
    /// Query index (admission order).
    pub query: usize,
    /// First circuit layer of the query.
    pub start_layer: u64,
    /// The layer at which data retrieval (CLASSICAL-GATES) occurs.
    pub retrieval_layer: u64,
    /// Last circuit layer of the query.
    pub end_layer: u64,
}

/// Error raised when two queries would occupy the same sub-QRAM in the
/// same gate step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictError {
    /// The global gate step at which the conflict occurs.
    pub gate_step: u64,
    /// The contended sub-QRAM position.
    pub position: u32,
    /// The two conflicting queries.
    pub queries: (usize, usize),
}

impl fmt::Display for ConflictError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "queries {} and {} both occupy sub-QRAM {} at gate step {}",
            self.queries.0, self.queries.1, self.position, self.gate_step
        )
    }
}

impl std::error::Error for ConflictError {}

/// The pipelined schedule of a batch of back-to-back Fat-Tree queries.
///
/// # Examples
///
/// ```
/// use qram_core::FatTreeQram;
/// use qram_metrics::Capacity;
///
/// // The Fig. 6 scenario: capacity 8, three concurrent queries.
/// let schedule = FatTreeQram::new(Capacity::new(8)?).pipeline(3);
/// assert_eq!(schedule.timing(0).end_layer, 29);
/// assert_eq!(schedule.timing(2).start_layer, 21);
/// assert_eq!(schedule.makespan_integer(), 49);
/// assert!(schedule.validate_no_conflicts().is_ok());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineSchedule {
    capacity: Capacity,
    num_queries: usize,
}

impl PipelineSchedule {
    /// Builds the schedule for `num_queries` back-to-back queries.
    ///
    /// # Panics
    ///
    /// Panics if `num_queries` is zero.
    #[must_use]
    pub fn new(capacity: Capacity, num_queries: usize) -> Self {
        assert!(num_queries >= 1, "at least one query is required");
        SCHEDULE_CONSTRUCTIONS.set(SCHEDULE_CONSTRUCTIONS.get() + 1);
        PipelineSchedule {
            capacity,
            num_queries,
        }
    }

    /// The QRAM capacity.
    #[must_use]
    pub fn capacity(&self) -> Capacity {
        self.capacity
    }

    /// Number of queries in the batch.
    #[must_use]
    pub fn num_queries(&self) -> usize {
        self.num_queries
    }

    fn n(&self) -> u64 {
        u64::from(self.capacity.address_width())
    }

    /// Timing of query `q` (0-based): starts at `10q + 1`, retrieves at
    /// `10q + 5n`, ends at `10q + 10n − 1`.
    ///
    /// # Panics
    ///
    /// Panics if `q ≥ num_queries`.
    #[must_use]
    pub fn timing(&self, q: usize) -> QueryTiming {
        assert!(q < self.num_queries, "query {q} out of range");
        let base = 10 * q as u64;
        let n = self.n();
        QueryTiming {
            query: q,
            start_layer: base + 1,
            retrieval_layer: base + 5 * n,
            end_layer: base + 10 * n - 1,
        }
    }

    /// All query timings in admission order.
    #[must_use]
    pub fn timings(&self) -> Vec<QueryTiming> {
        (0..self.num_queries).map(|q| self.timing(q)).collect()
    }

    /// Total integer circuit layers until the last query completes:
    /// `10(q−1) + 10n − 1`.
    #[must_use]
    pub fn makespan_integer(&self) -> u64 {
        self.timing(self.num_queries - 1).end_layer
    }

    /// Weighted makespan under a timing model.
    #[must_use]
    pub fn makespan(&self, timing: &TimingModel) -> Layers {
        latency::fat_tree_parallel_queries(
            self.capacity,
            u32::try_from(self.num_queries).expect("query count fits in u32"),
            timing,
        )
    }

    /// Total global gate steps spanned by the batch (each gate step is four
    /// standard layers; swap layers sit between gate steps).
    #[must_use]
    pub fn total_gate_steps(&self) -> u64 {
        2 * (self.num_queries as u64 - 1) + 2 * self.n()
    }

    /// The sub-QRAM position of query `q` during global gate step `t`
    /// (1-based), or `None` if the query is not active then.
    #[must_use]
    pub fn position_at(&self, q: usize, t: u64) -> Option<u32> {
        let first = 2 * q as u64 + 1;
        let last = first + 2 * self.n() - 1;
        if t < first || t > last {
            return None;
        }
        let local = u32::try_from(t - first + 1).expect("gate step fits in u32");
        Some(fat_tree_gate_step_position(
            self.capacity.address_width(),
            local,
        ))
    }

    /// The queries active during global gate step `t`, with their sub-QRAM
    /// positions.
    ///
    /// Only the queries whose active window `[2q + 1, 2q + 2n]` can contain
    /// `t` are inspected, so one call is `O(log N)` regardless of batch
    /// size (at most `n` queries are ever in flight).
    #[must_use]
    pub fn occupancy_at(&self, t: u64) -> Vec<(usize, u32)> {
        // Query q is active iff 2q + 1 <= t <= 2q + 2n.
        let first = usize::try_from(t.saturating_sub(2 * self.n()).div_ceil(2)).expect("fits");
        let last = usize::try_from(t.saturating_sub(1) / 2).expect("fits");
        (first..=last.min(self.num_queries.saturating_sub(1)))
            .filter_map(|q| self.position_at(q, t).map(|p| (q, p)))
            .collect()
    }

    /// Verifies that no two queries ever occupy the same sub-QRAM in the
    /// same gate step — the Fat-Tree pipelining invariant (Fig. 6).
    ///
    /// # Errors
    ///
    /// Returns the first conflict found, if any.
    pub fn validate_no_conflicts(&self) -> Result<(), ConflictError> {
        for t in 1..=self.total_gate_steps() {
            let occ = self.occupancy_at(t);
            for i in 0..occ.len() {
                for j in (i + 1)..occ.len() {
                    if occ[i].1 == occ[j].1 {
                        return Err(ConflictError {
                            gate_step: t,
                            position: occ[i].1,
                            queries: (occ[i].0, occ[j].0),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The QRAM utilization staircase over the batch: per gate step, the
    /// fraction of the `log₂ N` pipeline slots in use (Fig. 7, bottom).
    #[must_use]
    pub fn utilization_trace(&self, timing: &TimingModel) -> UtilizationTrace {
        let slots = self.capacity.address_width();
        let gate_step_duration =
            Layers::new(4.0) + Layers::new(timing.layer_weight(qram_metrics::LayerKind::IntraNode));
        let mut trace = UtilizationTrace::new();
        for t in 1..=self.total_gate_steps() {
            let busy = u32::try_from(self.occupancy_at(t).len()).expect("fits");
            trace.push(
                gate_step_duration,
                Utilization::from_slots(busy.min(slots), slots),
            );
        }
        trace
    }

    /// Renders the Fig. 6-style occupancy chart: one row per query, one
    /// column per global gate step, cells showing the sub-QRAM position.
    #[must_use]
    pub fn render_occupancy(&self) -> String {
        let mut out = String::new();
        let steps = self.total_gate_steps();
        out.push_str("gate step |");
        for t in 1..=steps {
            out.push_str(&format!("{t:>3}"));
        }
        out.push('\n');
        for q in 0..self.num_queries {
            out.push_str(&format!("query {:>3} |", q + 1));
            for t in 1..=steps {
                match self.position_at(q, t) {
                    Some(p) => out.push_str(&format!("{p:>3}")),
                    None => out.push_str("  ."),
                }
            }
            out.push('\n');
        }
        out
    }
}

/// Renders a Fig. 12-style instruction pipeline diagram for one query's
/// layer stream: one row per qubit (address qubits then bus) plus a row for
/// swap steps, one column per circuit layer.
#[must_use]
pub fn render_instruction_diagram(layers: &[QueryLayer], address_width: u32) -> String {
    let n = address_width as usize;
    // Row 0..n-1: address qubits; row n: bus; row n+1: swap/CG row.
    let mut grid: Vec<Vec<String>> = vec![vec![String::new(); layers.len()]; n + 2];
    // Track flyer positions to attribute position-addressed ops to qubits.
    #[derive(Clone, Copy, PartialEq)]
    struct Pos {
        level: u32,
        at_output: bool,
    }
    let mut where_is: Vec<Option<Pos>> = vec![None; n + 1]; // index n = bus
    let row_of = |tag: QubitTag| -> usize {
        match tag {
            QubitTag::Address(i) => i as usize,
            QubitTag::Bus => n,
        }
    };
    let find_at = |where_is: &[Option<Pos>], level: u32, at_output: bool| -> Option<usize> {
        where_is
            .iter()
            .position(|p| *p == Some(Pos { level, at_output }))
    };
    for (col, layer) in layers.iter().enumerate() {
        for &op in &layer.ops {
            match op {
                Op::Load(tag) => {
                    where_is[row_of(tag)] = Some(Pos {
                        level: 0,
                        at_output: false,
                    });
                    grid[row_of(tag)][col] = op.mnemonic();
                }
                Op::Unload(tag) => {
                    where_is[row_of(tag)] = None;
                    grid[row_of(tag)][col] = op.mnemonic();
                }
                Op::Transport(l) => {
                    if let Some(idx) = find_at(&where_is, l - 1, true) {
                        where_is[idx] = Some(Pos {
                            level: l,
                            at_output: false,
                        });
                        grid[idx][col] = op.mnemonic();
                    }
                }
                Op::Untransport(l) => {
                    if let Some(idx) = find_at(&where_is, l, false) {
                        where_is[idx] = Some(Pos {
                            level: l - 1,
                            at_output: true,
                        });
                        grid[idx][col] = op.mnemonic();
                    }
                }
                Op::Route(l) => {
                    if let Some(idx) = find_at(&where_is, l, false) {
                        where_is[idx] = Some(Pos {
                            level: l,
                            at_output: true,
                        });
                        grid[idx][col] = op.mnemonic();
                    }
                }
                Op::Unroute(l) => {
                    if let Some(idx) = find_at(&where_is, l, true) {
                        where_is[idx] = Some(Pos {
                            level: l,
                            at_output: false,
                        });
                        grid[idx][col] = op.mnemonic();
                    }
                }
                Op::Store(l) => {
                    where_is[l as usize] = None;
                    grid[l as usize][col] = op.mnemonic();
                }
                Op::Unstore(l) => {
                    where_is[l as usize] = Some(Pos {
                        level: l,
                        at_output: false,
                    });
                    grid[l as usize][col] = op.mnemonic();
                }
                Op::ClassicalGates => {
                    grid[n + 1][col] = op.mnemonic();
                }
                Op::SwapStepI | Op::SwapStepII => {
                    grid[n + 1][col] = op.mnemonic();
                }
            }
        }
    }
    let mut out = String::new();
    let width = 5;
    out.push_str(&format!("{:>8} |", "layer"));
    for col in 1..=layers.len() {
        out.push_str(&format!("{col:>width$}"));
    }
    out.push('\n');
    for (row, cells) in grid.iter().enumerate() {
        let label = if row < n {
            format!("a{}", row + 1)
        } else if row == n {
            "bus".to_owned()
        } else {
            "swap/CG".to_owned()
        };
        out.push_str(&format!("{label:>8} |"));
        for cell in cells {
            out.push_str(&format!("{cell:>width$}"));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query_ops::{bb_query_layers, fat_tree_query_layers};

    fn cap(n: u64) -> Capacity {
        Capacity::new(n).unwrap()
    }

    #[test]
    fn figure_6_timings() {
        // Capacity 8, 3 queries: starts 1/11/21, retrievals 15/25/35,
        // completions 29/39/49.
        let s = PipelineSchedule::new(cap(8), 3);
        assert_eq!(
            s.timings()
                .iter()
                .map(|t| (t.start_layer, t.retrieval_layer, t.end_layer))
                .collect::<Vec<_>>(),
            vec![(1, 15, 29), (11, 25, 39), (21, 35, 49)]
        );
        assert_eq!(s.makespan_integer(), 49);
    }

    #[test]
    fn conflict_freedom_for_many_shapes() {
        for n_exp in 1..=8u32 {
            for queries in 1..=(3 * n_exp as usize) {
                let s = PipelineSchedule::new(Capacity::from_address_width(n_exp), queries);
                assert!(
                    s.validate_no_conflicts().is_ok(),
                    "n=2^{n_exp}, q={queries}"
                );
            }
        }
    }

    #[test]
    fn at_most_parallelism_queries_active() {
        let s = PipelineSchedule::new(cap(1024), 30);
        for t in 1..=s.total_gate_steps() {
            assert!(s.occupancy_at(t).len() <= 10, "gate step {t}");
        }
    }

    #[test]
    fn steady_state_reaches_full_utilization() {
        let s = PipelineSchedule::new(cap(256), 40);
        let trace = s.utilization_trace(&TimingModel::paper_default());
        let avg = trace.average().get();
        assert!(avg > 0.8, "average utilization {avg} too low");
        // Some gate step must use all 8 slots.
        let full = (1..=s.total_gate_steps()).any(|t| s.occupancy_at(t).len() == 8);
        assert!(full, "pipeline never saturated");
    }

    #[test]
    fn single_query_positions_match_trajectory() {
        let s = PipelineSchedule::new(cap(16), 1);
        let positions: Vec<u32> = (1..=8).map(|t| s.position_at(0, t).unwrap()).collect();
        assert_eq!(positions, vec![0, 1, 2, 3, 3, 2, 1, 0]);
        assert_eq!(s.position_at(0, 9), None);
    }

    #[test]
    fn occupancy_chart_renders() {
        let s = PipelineSchedule::new(cap(8), 3);
        let chart = s.render_occupancy();
        assert!(chart.contains("query   1"));
        assert!(chart.lines().count() == 4);
    }

    #[test]
    fn instruction_diagram_matches_figure_12_row_one() {
        let layers = fat_tree_query_layers(3);
        let diagram = render_instruction_diagram(&layers, 3);
        // Row a1 carries L1 at layer 1 and S1 at layer 2.
        let a1 = diagram.lines().nth(1).unwrap();
        assert!(a1.trim_start().starts_with("a1"));
        assert!(a1.contains("L1"));
        assert!(a1.contains("S1"));
        assert!(a1.contains("L'1"));
        // Swap row contains both swap types and CG.
        let swap_row = diagram.lines().nth(5).unwrap();
        assert!(swap_row.contains("S-I"));
        assert!(swap_row.contains("S-II"));
        assert!(swap_row.contains("CG"));
    }

    #[test]
    fn bb_diagram_has_cg_column() {
        let layers = bb_query_layers(2);
        let diagram = render_instruction_diagram(&layers, 2);
        assert!(diagram.contains("CG"));
        assert!(diagram.contains("LB"));
    }

    #[test]
    fn makespan_weighted_matches_formula() {
        let s = PipelineSchedule::new(cap(1024), 10);
        let t = TimingModel::paper_default();
        assert!((s.makespan(&t).get() - (16.5 * 10.0 - 8.375)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least one query")]
    fn empty_batch_rejected() {
        let _ = PipelineSchedule::new(cap(8), 0);
    }

    #[test]
    fn validation_memo_builds_at_most_one_schedule_per_growth() {
        // Distinct capacity from other tests so the process-wide memo
        // starts cold for this key.
        let capacity = cap(1 << 9);
        assert!(ensure_conflict_free(capacity, 64).is_ok());
        let after_first = schedule_construction_count();
        // Smaller and equal batches are covered by the recorded maximum.
        assert!(ensure_conflict_free(capacity, 64).is_ok());
        assert!(ensure_conflict_free(capacity, 1).is_ok());
        assert!(ensure_conflict_free(capacity, 0).is_ok());
        assert_eq!(schedule_construction_count(), after_first);
        // A larger batch re-validates once, then is memoized too.
        assert!(ensure_conflict_free(capacity, 128).is_ok());
        let after_growth = schedule_construction_count();
        assert_eq!(after_growth, after_first + 1);
        assert!(ensure_conflict_free(capacity, 100).is_ok());
        assert_eq!(schedule_construction_count(), after_growth);
    }
}
