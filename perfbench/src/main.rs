//! Host wall-clock serving benchmark for the QRAM fleet.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload read_classical --seed 1 --seconds 30 --trace 0
//! ```
//!
//! One process, one thread, default features. `--trace 0` times serve
//! calls back to back and prints the end-to-end metrics, each time
//! divided by the host factor the yardstick measures right after it
//! (`yardstick.rs`); `--trace 1` interleaves untraced calls with traced
//! ones whose layers are replayed under spans, and prints the per-layer
//! metrics. Every serve call's outputs are checked against an
//! independent oracle; the last line of standard output is one JSON
//! object, and the command exits non-zero when any check fails. See
//! `METRICS.md` for what each metric means.

mod inputs;
mod layers;
mod oracle;
mod trace;
mod yardstick;

use std::fmt::Write as _;
use std::path::Path;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use qram_core::store::{DurableFleet, SimDir};
use qram_serve::{FleetReport, FleetRequest, FleetWrite};

use inputs::{Fleet, Generator, Inputs, Workload};
use oracle::Model;
use trace::Tracer;
use yardstick::Yardstick;

/// The seed a run uses when none is given.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 9;
/// Fewest serve calls for a p90 with ten samples beyond it.
const MIN_CALLS: usize = 100;

#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::ReadClassical,
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?);
            }
            "--seed" => args.seed = value.parse().map_err(|_| bad(()))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad(()))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(())),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

/// The owned inputs of one serve call, cloned before the clock starts.
struct Call {
    requests: Vec<FleetRequest>,
    writes: Vec<FleetWrite>,
    store: Option<DurableFleet>,
}

impl Call {
    /// The workload's own call: its writes, and a fresh store when it
    /// serves durably.
    fn of(inputs: &Inputs) -> Call {
        Call {
            requests: inputs.requests.clone(),
            writes: inputs.writes.clone(),
            store: inputs.workload.durable().then(|| inputs.fresh_store()),
        }
    }

    /// A plain `serve` of the same requests, with or without the writes.
    fn plain(inputs: &Inputs, with_writes: bool) -> Call {
        Call {
            requests: inputs.requests.clone(),
            writes: if with_writes {
                inputs.writes.clone()
            } else {
                Vec::new()
            },
            store: None,
        }
    }
}

/// Serves one call, timing only the serve itself. Returns the report,
/// the store (for durable calls) and the host seconds.
fn serve(
    fleet: &mut Fleet,
    inputs: &Inputs,
    call: Call,
) -> Result<(FleetReport, Option<DurableFleet>, f64), String> {
    let Call {
        requests,
        writes,
        mut store,
    } = call;
    let start = Instant::now();
    let report = match store.as_mut() {
        Some(s) => fleet
            .serve_durable(
                &inputs.memory,
                requests,
                writes,
                &inputs.plan,
                &inputs.fault_config,
                s,
            )
            .map_err(|e| e.to_string()),
        None => fleet
            .serve(&inputs.memory, requests, writes)
            .map_err(|e| e.to_string()),
    };
    let secs = start.elapsed().as_secs_f64();
    Ok((report?, store, secs))
}

/// A set-up workload: its generator, fleet, and the verified warm-up
/// call on draw 0.
struct Bench {
    generator: Generator,
    fleet: Fleet,
    /// Draw 0: the warm-up call's inputs.
    first: Inputs,
    /// The warm-up call's report.
    reference: FleetReport,
    /// The warm-up call's model section; draw 0 served again at the end
    /// of the run must repeat it bit for bit.
    model: Model,
    /// The store image `recover_ms` times on read-only workloads: draw
    /// 0's memory as a checkpoint with an empty log.
    base_image: SimDir,
    /// Journal ops a fresh store writes before serving.
    journal_base: usize,
}

/// Builds the generator, draw 0, the fleet and a store and serves one
/// warm-up call, `SETUPS` times; returns the last set-up and the median
/// set-up seconds, each divided by the host factor measured after it.
fn set_up(
    workload: Workload,
    seed: u64,
    yardstick: &mut Yardstick,
) -> Result<(Bench, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let start = Instant::now();
        let generator = Generator::new(workload, seed);
        let first = generator.draw(0);
        let mut fleet = inputs::fleet(workload);
        let mut base = first.fresh_store();
        let (reference, _, _) = serve(&mut fleet, &first, Call::of(&first))?;
        times.push(start.elapsed().as_secs_f64() / yardstick.factor());
        let sim = layers::sim_dir(&mut base);
        let journal_base = sim.journal().len();
        let base_image = sim.replay_prefix(journal_base, None);
        last = Some(Bench {
            generator,
            fleet,
            model: Model::of(&reference),
            first,
            reference,
            base_image,
            journal_base,
        });
    }
    Ok((last.expect("SETUPS > 0"), median(&mut times)))
}

/// Tallies of every call a run served.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// A check failed: wrong outcomes, lost queries, a replay or
    /// recovery mismatch, or a model section that did not repeat.
    broken: Vec<String>,
}

impl Tally {
    fn fail(&mut self, why: String) {
        if !self.broken.contains(&why) {
            self.broken.push(why);
        }
    }

    /// Checks one call's report against the oracle.
    fn check(&mut self, inputs: &Inputs, report: &FleetReport) {
        let verdict = oracle::check(inputs, report);
        if !verdict.conserved {
            self.fail("completed + shed != attempted".into());
        }
        if verdict.wrong > 0 {
            self.fail("served outcomes differ from the oracle".into());
        }
        self.attempted += verdict.attempted;
        self.failed += verdict.failed();
    }

    /// A serve call that returned an error: every request failed.
    fn errored(&mut self, inputs: &Inputs, e: &str) {
        self.fail(format!("serve failed: {e}"));
        self.attempted += inputs.requests.len() as u64;
        self.failed += inputs.requests.len() as u64;
    }

    /// Serves draw 0 again and checks that its model section repeats the
    /// warm-up call's bit for bit.
    fn check_determinism(&mut self, bench: &mut Bench) {
        match serve(&mut bench.fleet, &bench.first, Call::of(&bench.first)) {
            Ok((report, _, _)) if Model::of(&report).same_bits(&bench.model) => {}
            Ok(_) => self.fail("the model section did not repeat bit for bit".into()),
            Err(e) => self.fail(format!("serve failed: {e}")),
        }
    }
}

/// Times `DurableFleet::recover` on `image`, checking it recovered
/// `epoch` writes onto `memory`.
fn recover(image: &SimDir, epoch: u64, memory: &[u64], tally: &mut Tally) -> f64 {
    let dir = Box::new(image.clone());
    let start = Instant::now();
    let state = DurableFleet::recover(dir);
    let secs = start.elapsed().as_secs_f64();
    match state {
        Ok(s) if s.epoch == epoch && s.memory.cells() == memory => {}
        _ => tally.fail("recovery lost or changed acknowledged writes".into()),
    }
    secs
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

/// The untraced run: one serve call per draw, back to back, for
/// `seconds`. Each call's serve time is divided by the host factor
/// measured right after the call. Recovery is timed raw: it is
/// checksum- and decode-bound and slows about a quarter as much as the
/// factor (METRICS.md), so dividing would over-correct.
fn timed_run(
    bench: &mut Bench,
    seconds: f64,
    setup_s: f64,
    yardstick: &mut Yardstick,
) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    tally.check(&bench.first, &bench.reference);
    let (mut serve_secs, mut recover_secs, mut factors) = (Vec::new(), Vec::new(), Vec::new());
    let mut served = 0u64;
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut draw = 0;
    while Instant::now() < deadline {
        draw += 1;
        let inputs = bench.generator.draw(draw);
        let (report, store, secs) = match serve(&mut bench.fleet, &inputs, Call::of(&inputs)) {
            Ok(served) => served,
            Err(e) => {
                tally.errored(&inputs, &e);
                continue;
            }
        };
        let factor = yardstick.factor();
        factors.push(factor);
        serve_secs.push(secs / factor);
        served += report.completed().len() as u64;
        tally.check(&inputs, &report);
        drop(report);
        recover_secs.push(match store {
            Some(mut store) => {
                let sim = layers::sim_dir(&mut store);
                let image = sim.replay_prefix(sim.journal().len(), None);
                drop(store);
                let last = layers::final_memory(&inputs);
                recover(&image, inputs.writes.len() as u64, last.cells(), &mut tally)
            }
            None => recover(&bench.base_image, 0, bench.first.memory.cells(), &mut tally),
        });
    }
    tally.check_determinism(bench);
    let calls = serve_secs.len();
    if calls < MIN_CALLS {
        println!("note: {calls} serve calls; fewer than ten samples lie beyond p90");
    }
    let total: f64 = serve_secs.iter().sum();
    let attempted = tally.attempted.max(1) as f64;
    let metrics = vec![
        ("setup_s", setup_s, "s"),
        (
            "queries_per_s",
            served as f64 / total.max(f64::MIN_POSITIVE),
            "1/s",
        ),
        ("serve_ms_p50", 1e3 * median(&mut serve_secs), "ms"),
        ("serve_ms_p90", 1e3 * quantile(&mut serve_secs, 0.9), "ms"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        (
            "served_share",
            1.0 - tally.failed as f64 / attempted,
            "ratio",
        ),
        ("recover_ms", 1e3 * median(&mut recover_secs), "ms"),
    ];
    println!(
        "samples: {calls} serve calls, {} beyond p90; host factor median {:.4}, \
         quartiles {:.4} to {:.4}; failed_share = {}",
        calls - (calls as f64 * 0.9).ceil() as usize,
        median(&mut factors),
        quantile(&mut factors, 0.25),
        quantile(&mut factors, 0.75),
        tally.failed as f64 / attempted
    );
    (metrics, tally)
}

/// Sums over the traced calls of a run.
#[derive(Debug, Default)]
struct Traced {
    calls: u64,
    served: u64,
    writes: u64,
    attempts: u64,
    replica_events: u64,
    catch_up_entries: u64,
    bytes_written: u64,
    kernel: layers::KernelReplay,
    integrity: qram_metrics::IntegrityCounters,
}

/// Serves a draw outside any span and checks it; returns the host
/// seconds of the serve call.
fn untraced_call(bench: &mut Bench, inputs: &Inputs, tally: &mut Tally) -> f64 {
    match serve(&mut bench.fleet, inputs, Call::of(inputs)) {
        Ok((report, _, secs)) => {
            tally.check(inputs, &report);
            secs
        }
        Err(e) => {
            tally.errored(inputs, &e);
            0.0
        }
    }
}

/// The traced run: per draw, an untraced call and a traced call of the
/// same draw, whose layers are then replayed under spans, for `seconds`.
/// The two calls swap order on every draw, so each follows the other
/// call as often as it follows the previous draw's replays.
fn traced_run(bench: &mut Bench, seconds: f64, workload: Workload, seed: u64) -> (Metrics, Tally) {
    let mut tally = Tally::default();
    tally.check(&bench.first, &bench.reference);
    let mut tracer = Tracer::new();
    let mut untraced = 0.0;
    let durable = workload.durable();
    let mut replica_verified = true;
    let mut sum = Traced::default();
    let memo_hit_ratio = layers::memo_hit_ratio(&bench.fleet, &bench.first, &bench.reference);
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut draw = 0;
    while Instant::now() < deadline {
        draw += 1;
        let inputs = bench.generator.draw(draw);
        let untraced_first = draw.is_multiple_of(2);
        if untraced_first {
            untraced += untraced_call(bench, &inputs, &mut tally);
        }
        let call = Call::of(&inputs);
        let span = tracer.open("serve", None);
        let result = serve(&mut bench.fleet, &inputs, call);
        tracer.close(span);
        let (report, store) = match result {
            Ok((report, store, _)) => (report, store),
            Err(e) => {
                tally.errored(&inputs, &e);
                break;
            }
        };
        if !untraced_first {
            untraced += untraced_call(bench, &inputs, &mut tally);
        }
        tally.check(&inputs, &report);
        sum.calls += 1;
        sum.served += report.completed().len() as u64;
        sum.writes += inputs.writes.len() as u64;
        sum.attempts += report
            .completed()
            .iter()
            .map(|q| u64::from(q.attempts))
            .sum::<u64>();

        if durable {
            for (name, with_writes) in [("serve.reads_only", false), ("serve.with_writes", true)] {
                let call = Call::plain(&inputs, with_writes);
                let id = tracer.open(name, None);
                let result = serve(&mut bench.fleet, &inputs, call);
                tracer.close(id);
                if let Err(e) = result {
                    tally.fail(format!("serve failed: {e}"));
                }
            }
        }

        if !layers::placement(&mut tracer, span, &inputs, &report) {
            tally.fail("placement replay routed a query elsewhere".into());
        }
        if replica_verified {
            let replay = layers::replicas(&mut tracer, span, &bench.fleet, &inputs, &report);
            sum.replica_events += replay.events;
            if !replay.verified {
                // Fold the replica layer into the fleet's self time.
                replica_verified = false;
                tracer.orphan("replica.replay");
            }
        }
        let replay = layers::kernel(&mut tracer, span, &bench.fleet, &inputs, &report);
        if !replay.verified {
            tally.fail("kernel replay did not reproduce the outcomes".into());
        }
        sum.kernel.batches += replay.batches;
        sum.kernel.queries += replay.queries;
        sum.kernel.branches += replay.branches;
        if !layers::histograms(&mut tracer, span, &report) {
            tally.fail("histogram replay quantiles differ from the report".into());
        }
        if durable {
            let (entries, converged) = layers::replication(&mut tracer, span, &inputs);
            sum.catch_up_entries += entries;
            if !converged {
                tally.fail("replication replay did not converge".into());
            }
            if !layers::store(&mut tracer, span, &inputs) {
                tally.fail("store replay did not end durable at the final image".into());
            }
            if let Some(mut store) = store {
                sum.bytes_written += layers::bytes_written(&mut store, bench.journal_base);
            }
            let i = report.integrity();
            sum.integrity.wal_appends += i.wal_appends;
            sum.integrity.wal_syncs += i.wal_syncs;
            sum.integrity.checkpoints += i.checkpoints;
            sum.integrity.delta_checkpoints += i.delta_checkpoints;
        }
    }
    tally.check_determinism(bench);

    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("trace-{}-seed{seed}.jsonl", workload.name()));
    if let Err(e) = tracer.write_jsonl(&path) {
        println!("note: could not write spans to {}: {e}", path.display());
    }
    if !replica_verified {
        println!(
            "note: the replica replay could not reproduce the reported (start, finish) pairs; \
             its time stays in fleet.self_*"
        );
    }
    let metrics = per_layer(
        &tracer,
        &sum,
        untraced,
        replica_verified,
        memo_hit_ratio,
        durable,
    );
    (metrics, tally)
}

/// The per-layer metrics of a traced run.
fn per_layer(
    tracer: &Tracer,
    sum: &Traced,
    untraced_s: f64,
    replica_verified: bool,
    memo_hit_ratio: f64,
    durable: bool,
) -> Metrics {
    let per = |total: f64, count: f64| if count > 0.0 { total / count } else { 0.0 };
    let calls = sum.calls as f64;
    let served = sum.served as f64;
    let writes = sum.writes as f64;
    let serve = tracer.total("serve") as f64;
    let share = |ns: f64| per(ns, serve);
    let placement = tracer.total("fleet.placement") as f64;
    let replica = if replica_verified {
        tracer.total("replica.replay") as f64
    } else {
        0.0
    };
    let sharded = tracer.total("sharded.execute") as f64;
    let histogram = tracer.total("histogram.record") as f64;
    let replication = tracer.total("replication.replay") as f64;
    let store = tracer.total("store.replay") as f64;
    let self_ns = tracer.self_total("serve");
    let with_writes = tracer.total("serve.with_writes") as f64;
    let sync = tracer.mean("store.sync");
    let checkpoint = if tracer.count("store.sync_checkpoint") > 0 {
        tracer.mean("store.sync_checkpoint") - sync
    } else {
        0.0
    };
    let events = if replica_verified {
        sum.replica_events as f64
    } else {
        0.0
    };
    let i = &sum.integrity;
    println!(
        "traced: {} calls; serve {:.3} ms/call = attributed {:.3} + self {:.3}",
        sum.calls,
        per(serve, calls) * 1e-6,
        per(serve - self_ns, calls) * 1e-6,
        per(self_ns, calls) * 1e-6
    );
    vec![
        ("fleet.self_ns_per_query", per(self_ns, served), "ns"),
        ("fleet.self_share", share(self_ns), "ratio"),
        ("fleet.placement_ns_per_query", per(placement, served), "ns"),
        ("fleet.placement_share", share(placement), "ratio"),
        (
            "fleet.write_ns_per_write",
            per(
                with_writes - tracer.total("serve.reads_only") as f64,
                writes,
            ),
            "ns",
        ),
        (
            "fleet.fault_store_ns_per_query",
            if durable {
                per(serve - with_writes, served)
            } else {
                0.0
            },
            "ns",
        ),
        (
            "fleet.attempts_per_served",
            per(sum.attempts as f64, served),
            "ratio",
        ),
        (
            "replica.verified",
            f64::from(u8::from(replica_verified)),
            "count",
        ),
        ("replica.ns_per_query", per(replica, served), "ns"),
        ("replica.events", per(events, calls), "count"),
        ("replica.ns_per_event", per(replica, events), "ns"),
        ("replica.share", share(replica), "ratio"),
        (
            "sharded.ns_per_query",
            per(sharded, sum.kernel.queries as f64),
            "ns",
        ),
        (
            "sharded.ns_per_branch",
            per(sharded, sum.kernel.branches as f64),
            "ns",
        ),
        (
            "sharded.batches",
            per(sum.kernel.batches as f64, calls),
            "count",
        ),
        (
            "sharded.branches",
            per(sum.kernel.branches as f64, calls),
            "count",
        ),
        ("sharded.memo_hit_ratio", memo_hit_ratio, "ratio"),
        ("sharded.share", share(sharded), "ratio"),
        ("replication.ns_per_write", per(replication, writes), "ns"),
        (
            "replication.catch_up_entries",
            per(sum.catch_up_entries as f64, calls),
            "count",
        ),
        ("replication.share", share(replication), "ratio"),
        (
            "store.append_ns_per_write",
            tracer.mean("store.append"),
            "ns",
        ),
        ("store.flush_ns_per_sync", sync, "ns"),
        ("store.checkpoint_ns", checkpoint, "ns"),
        ("store.wal_syncs", per(i.wal_syncs as f64, calls), "count"),
        (
            "store.records_per_sync",
            per(i.wal_appends as f64, i.wal_syncs as f64),
            "ratio",
        ),
        (
            "store.checkpoints",
            per(i.checkpoints as f64, calls),
            "count",
        ),
        (
            "store.delta_checkpoints",
            per(i.delta_checkpoints as f64, calls),
            "count",
        ),
        (
            "store.bytes_written",
            per(sum.bytes_written as f64, calls),
            "bytes",
        ),
        (
            "store.bytes_per_write",
            per(sum.bytes_written as f64, writes),
            "bytes",
        ),
        ("store.share", share(store), "ratio"),
        ("histogram.ns_per_query", per(histogram, served), "ns"),
        ("histogram.share", share(histogram), "ratio"),
        (
            "trace.overhead_share",
            per(serve * 1e-9, untraced_s) - 1.0,
            "ratio",
        ),
    ]
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:").and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolated quantile (0 for an empty sample).
fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let pos = q * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <read_classical|read_superposed|write_durable> \
                 [--seed N] [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    let mut yardstick = Yardstick::new();
    let (mut bench, setup_s) = match set_up(args.workload, args.seed, &mut yardstick) {
        Ok(set_up) => set_up,
        Err(e) => {
            eprintln!("error: set-up failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!(
        "workload {} seed {}: {} queries, {} branches, {} writes per serve call (draw 0)",
        args.workload.name(),
        args.seed,
        bench.first.requests.len(),
        bench.first.branches,
        bench.first.writes.len()
    );
    println!("model {}", bench.model.json());

    let (metrics, tally) = if args.trace {
        traced_run(&mut bench, args.seconds, args.workload, args.seed)
    } else {
        timed_run(&mut bench, args.seconds, setup_s, &mut yardstick)
    };
    for (name, value, unit) in &metrics {
        println!("{name:<32} {value:>16.4} {unit}");
    }
    for why in &tally.broken {
        println!("CHECK FAILED: {why}");
    }
    let correct = tally.broken.is_empty() && metrics.iter().all(|m| m.1.is_finite());
    let mut body = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            body,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(*value)
        );
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.attempted.max(1),
        tally.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
