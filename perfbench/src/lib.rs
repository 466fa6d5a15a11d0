//! The repository benchmark: every protocol on three seeded workloads,
//! measured end to end and split by layer.
//!
//! A run generates one [`apps::scenario`] script from the seed, then
//! repeats rounds until its time is up. A round runs the script once
//! under each of the five protocols through [`DynDsm`], checks every
//! run, and records [`trace`] spans around the benchmark's calls into
//! the layers. End-to-end metrics are medians over untraced rounds, with
//! host times calibrated against a [`Reference`] kernel timed next to
//! every run; per-layer metrics are raw medians over traced rounds. See
//! `README.md` next to this crate for what each metric and workload
//! means.

pub mod trace;

use apps::scenario::{
    CrashSchedule, DistributionFamily, FaultFamily, RunReport, Scenario, SettlePolicy,
    TopologyFamily, WorkloadFamily,
};
use apps::workload::WorkloadOp;
use dsm::{DsmError, DynDsm, ProtocolKind};
use histories::{causal_spot_check, pram_spot_check, Criterion, Distribution, History};
use histories::{ProcId, Value, VarId};
use simnet::{DeliveryMode, ExecBackend, FabricStats, PoolStats, SimConfig, ThreadedMode};
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};
use std::time::Instant;
use trace::{Span, Tracer};

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Simnet, direct full mesh, n = 256: every write in flight at once,
    /// one settle at the end.
    BulkN256,
    /// Simnet, relayed 32-node grid, lossy links, frequent barriers, and
    /// node 0 (sequencer and op-log shard owner) down for the middle third.
    RoutedLossyCrash,
    /// Threaded free-running backend, one worker per core:
    /// single-writer producer-consumer with a barrier every 64 ops.
    ThreadedPc,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::BulkN256,
        Workload::RoutedLossyCrash,
        Workload::ThreadedPc,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkN256 => "bulk-n256",
            Workload::RoutedLossyCrash => "routed-lossy-crash",
            Workload::ThreadedPc => "threaded-pc",
        }
    }

    /// Parse a [`Workload::name`].
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload runs on the discrete-event simulator (and so
    /// has exact, repeatable counters and a virtual clock).
    pub fn is_simnet(self) -> bool {
        self != Workload::ThreadedPc
    }

    /// Scripts per protocol run. On the 32-node grid one script's cost
    /// per operation depends strongly on where its few hot variables sit,
    /// so a run covers four scripts to keep one seed's figures close to
    /// another's; the other workloads are large or uniform enough alone.
    pub fn suite_len(self) -> u64 {
        match self {
            Workload::RoutedLossyCrash => 4,
            Workload::BulkN256 | Workload::ThreadedPc => 1,
        }
    }

    /// The scenario the script and deployment are built from.
    pub fn scenario(self, seed: u64) -> Scenario {
        match self {
            Workload::BulkN256 => Scenario {
                name: self.name().into(),
                distribution: DistributionFamily::Random { replicas: 2 },
                processes: 256,
                variables: 512,
                workload: WorkloadFamily::Uniform { write_ratio: 0.5 },
                ops_per_process: 8,
                settle: SettlePolicy::AtEnd,
                delivery: DeliveryMode::MULTICAST_BATCHED_DELTA,
                seed,
                record: true,
                ..Scenario::default()
            },
            Workload::RoutedLossyCrash => Scenario {
                name: self.name().into(),
                distribution: DistributionFamily::Random { replicas: 3 },
                processes: 32,
                variables: 64,
                workload: WorkloadFamily::Hotspot {
                    write_ratio: 0.5,
                    hot_bias: 0.8,
                },
                ops_per_process: 60,
                settle: SettlePolicy::Every(32),
                topology: TopologyFamily::Grid,
                faults: FaultFamily::Lossy,
                seed,
                record: true,
                ..Scenario::default()
            },
            Workload::ThreadedPc => {
                let n = threaded_workers();
                Scenario {
                    name: self.name().into(),
                    distribution: DistributionFamily::Random { replicas: 2 },
                    processes: n,
                    variables: 2 * n,
                    workload: WorkloadFamily::ProducerConsumer,
                    ops_per_process: THREADED_OPS / n,
                    settle: SettlePolicy::Every(64),
                    backend: ExecBackend::Threaded(ThreadedMode::FreeRunning),
                    seed,
                    record: false,
                    ..Scenario::default()
                }
            }
        }
    }
}

/// Application operations of one `threaded-pc` script, spread over the
/// workers.
const THREADED_OPS: usize = 40_000;

/// Worker threads (= processes) of `threaded-pc`: one per core, at least
/// the two a producer and a consumer need, at most eight.
fn threaded_workers() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 8))
}

/// One generated script and the deployment it runs on.
pub struct Script {
    /// Which process replicates which variable.
    pub dist: Distribution,
    /// The operations, settle points included.
    pub ops: Vec<WorkloadOp>,
    /// Simulator configuration (latency, topology, delivery, faults).
    pub config: SimConfig,
    /// Scripted crash, if the workload has one.
    pub crash: Option<CrashSchedule>,
}

/// A workload's generated inputs, shared by every run of a benchmark.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The scripts one protocol run executes, in order.
    pub scripts: Vec<Script>,
    /// Execution backend.
    pub backend: ExecBackend,
    /// Whether histories are recorded (and so spot-checked).
    pub record: bool,
    /// Host seconds spent generating the distributions and the scripts.
    pub generate_s: f64,
}

/// Generate a workload's inputs from `seed`: script `j` of the suite is
/// built from a seed derived from `seed` and `j` (script 0 from `seed`).
pub fn prepare(workload: Workload, seed: u64) -> Prepared {
    let start = Instant::now();
    let scenarios: Vec<Scenario> = (0..workload.suite_len())
        .map(|j| workload.scenario(seed ^ j.wrapping_mul(0x9E37_79B9_7F4A_7C15)))
        .collect();
    let scripts = scenarios
        .iter()
        .map(|scenario| {
            let dist = scenario.build_distribution();
            let ops = scenario.generate_ops(&dist);
            // Node 0 is the sequencer and the owner of every op-log shard
            // it replicates first: the crash target no scenario sweep
            // exercises.
            let crash = (workload == Workload::RoutedLossyCrash).then(|| CrashSchedule {
                proc: ProcId(0),
                crash_before_op: ops.len() / 3,
                restart_before_op: 2 * ops.len() / 3,
            });
            Script {
                config: scenario.sim_config(),
                dist,
                ops,
                crash,
            }
        })
        .collect();
    Prepared {
        workload,
        scripts,
        backend: scenarios[0].backend,
        record: scenarios[0].record,
        generate_s: start.elapsed().as_secs_f64(),
    }
}

/// The deterministic columns of a run: equal on every simnet run of the
/// same script, and equal to the scenario engine's [`RunReport`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Exact {
    /// Messages sent.
    pub messages: u64,
    /// Protocol control bytes sent.
    pub control_bytes: u64,
    /// Simulator events processed.
    pub events: u64,
    /// Envelopes relayed by intermediate nodes.
    pub forwarded: u64,
    /// Transmissions dropped (and retransmitted).
    pub drops: u64,
    /// Retransmissions.
    pub retransmits: u64,
    /// Deliveries lost to a crashed destination.
    pub crash_losses: u64,
    /// Virtual time at the settled state, in nanoseconds.
    pub virtual_ns: u64,
}

impl Exact {
    fn add(&mut self, o: &Exact) {
        self.messages += o.messages;
        self.control_bytes += o.control_bytes;
        self.events += o.events;
        self.forwarded += o.forwarded;
        self.drops += o.drops;
        self.retransmits += o.retransmits;
        self.crash_losses += o.crash_losses;
        self.virtual_ns += o.virtual_ns;
    }

    fn of(dsm: &DynDsm) -> Exact {
        let net = dsm.network_stats();
        Exact {
            messages: net.total_messages(),
            control_bytes: net.total_control_bytes(),
            events: dsm.events_processed(),
            forwarded: dsm.forwarded_messages(),
            drops: net.total_drops(),
            retransmits: net.total_retransmits(),
            crash_losses: net.total_crash_losses(),
            virtual_ns: dsm.now().as_nanos(),
        }
    }

    /// The same columns taken from the scenario engine's report.
    pub fn of_report(r: &RunReport) -> Exact {
        Exact {
            messages: r.messages(),
            control_bytes: r.control_bytes(),
            events: r.events,
            forwarded: r.forwarded,
            drops: r.drops(),
            retransmits: r.network.total_retransmits(),
            crash_losses: r.crash_losses(),
            virtual_ns: r.virtual_time.as_nanos(),
        }
    }
}

/// What one protocol run produced, summed over the scripts it ran.
#[derive(Clone, Debug, Default)]
pub struct RunSample {
    /// Application operations issued (ops of a crashed process are not).
    pub attempted: u64,
    /// Issued operations that failed (see [`run_protocol`]).
    pub failed: u64,
    /// Whether the history passed the spot check of the protocol's
    /// guaranteed criterion (vacuous when recording is off).
    pub spot_ok: bool,
    /// Variables whose replicas disagree at the settled final state.
    pub diverged_vars: u64,
    /// Peak resident memory of the run (`VmHWM`, reset before each
    /// script), MB.
    pub peak_rss_mb: f64,
    /// Deterministic counters.
    pub exact: Exact,
    /// Buffer-pool counters.
    pub pool: PoolStats,
    /// Ring-fabric counters (all zero on simnet).
    pub fabric: FabricStats,
    /// Hash of every replica's settled value, in script order.
    pub settled_hash: u64,
}

impl RunSample {
    fn add(&mut self, o: &RunSample) {
        self.attempted += o.attempted;
        self.failed += o.failed;
        self.spot_ok &= o.spot_ok;
        self.diverged_vars += o.diverged_vars;
        self.peak_rss_mb = self.peak_rss_mb.max(o.peak_rss_mb);
        self.exact.add(&o.exact);
        self.pool.merge(o.pool);
        self.fabric.merge(&o.fabric);
        let mut h = DefaultHasher::new();
        (self.settled_hash, o.settled_hash).hash(&mut h);
        self.settled_hash = h.finish();
    }
}

/// Run every script of the suite once under `kind`, recording spans
/// into `tr`; see [`run_script`] for how a script is driven and checked.
pub fn run_protocol(
    prep: &Prepared,
    kind: ProtocolKind,
    tr: &mut Tracer,
) -> Result<RunSample, DsmError> {
    let mut sum = RunSample {
        spot_ok: true,
        ..RunSample::default()
    };
    for script in &prep.scripts {
        sum.add(&run_script(prep, script, kind, tr)?);
    }
    Ok(sum)
}

/// Run one script under `kind`, recording spans into `tr`.
///
/// The script is driven exactly as `apps::scenario::apply_script` drives
/// it: a crashed process skips its operations, a process still down at
/// the end restarts before the final settle. An issued operation fails if
/// its call returns an error, if the run fails the spot check of the
/// protocol's guaranteed criterion, if it writes a variable whose
/// replicas disagree at the final settle of a write-ordering
/// (`sequential`, `op-log`) run, or, on the threaded workload, if it
/// writes a variable whose replicas do not all hold the last written
/// value after the next settle.
pub fn run_script(
    prep: &Prepared,
    script: &Script,
    kind: ProtocolKind,
    tr: &mut Tracer,
) -> Result<RunSample, DsmError> {
    reset_peak_rss();
    let (dist, config) = (script.dist.clone(), script.config.clone());
    tr.begin(kind.name());
    tr.begin("phase.construct");
    let mut dsm = tr.call("dsm.try_with_backend", || {
        DynDsm::try_with_backend(kind, dist, config, prep.backend)
    })?;
    if !prep.record {
        dsm.disable_recording();
    }
    let single_writer = prep.workload == Workload::ThreadedPc;
    let mut issued = vec![false; script.ops.len()];
    let mut failed = vec![false; script.ops.len()];
    let mut segment = Vec::new();
    tr.next("phase.issue");
    for (i, op) in script.ops.iter().enumerate() {
        if let Some(c) = script.crash {
            if i == c.crash_before_op {
                tr.next("phase.crash");
                tr.call("dsm.crash", || dsm.crash(c.proc))?;
                tr.next("phase.issue");
            }
            if i == c.restart_before_op {
                tr.next("phase.restart");
                tr.call("dsm.restart", || dsm.restart(c.proc))?;
                tr.next("phase.issue");
            }
        }
        match *op {
            WorkloadOp::Write { proc, var, value } => {
                if dsm.is_crashed(proc) {
                    continue;
                }
                issued[i] = true;
                failed[i] = tr
                    .call("dsm.write", || dsm.write(proc, var, value))
                    .is_err();
                segment.push(i);
            }
            WorkloadOp::Read { proc, var } => {
                if dsm.is_crashed(proc) {
                    continue;
                }
                issued[i] = true;
                failed[i] = tr.call("dsm.read", || dsm.read(proc, var)).is_err();
            }
            WorkloadOp::Settle => {
                tr.call("dsm.settle", || dsm.settle());
                if single_writer {
                    tr.next("phase.check");
                    tr.call("bench.converge", || {
                        mark_stale_writes(&dsm, script, &segment, &mut failed)
                    });
                    tr.next("phase.issue");
                }
                segment.clear();
            }
        }
    }
    if let Some(c) = script.crash {
        if dsm.is_crashed(c.proc) {
            tr.next("phase.restart");
            tr.call("dsm.restart", || dsm.restart(c.proc))?;
        }
    }
    tr.next("phase.settle");
    tr.call("dsm.settle", || dsm.settle());
    tr.next("phase.history");
    let history = tr.call("dsm.history", || dsm.history());
    tr.next("phase.check");
    let spot_ok = tr.call("histories.spot_check", || spot_check(kind, &history));
    let settled = tr.call("bench.converge", || settled_values(&dsm, &script.dist));
    tr.end();
    tr.end();

    let diverged = diverged_vars(&settled);
    let write_ordering = kind.settled_criterion() == Criterion::Sequential;
    for (i, op) in script.ops.iter().enumerate() {
        let diverged_write = matches!(*op, WorkloadOp::Write { var, .. }
            if write_ordering && diverged.contains(&var));
        failed[i] |= issued[i] && (!spot_ok || diverged_write);
    }
    let mut h = DefaultHasher::new();
    settled.hash(&mut h);
    let sample = RunSample {
        attempted: issued.iter().filter(|&&x| x).count() as u64,
        failed: failed.iter().filter(|&&f| f).count() as u64,
        spot_ok,
        diverged_vars: diverged.len() as u64,
        peak_rss_mb: peak_rss_mb(),
        exact: Exact::of(&dsm),
        pool: dsm.pool_stats(),
        fabric: dsm.fabric_stats(),
        settled_hash: h.finish(),
    };
    Ok(sample)
}

/// Mark the writes of `segment` whose variable is not held at its last
/// written value by every replica (the single-writer check after a
/// settle).
fn mark_stale_writes(dsm: &DynDsm, script: &Script, segment: &[usize], failed: &mut [bool]) {
    let mut last: BTreeMap<VarId, i64> = BTreeMap::new();
    for &i in segment {
        if let WorkloadOp::Write { var, value, .. } = script.ops[i] {
            last.insert(var, value);
        }
    }
    for (&var, &value) in &last {
        let stale = script
            .dist
            .replicas_of(var)
            .into_iter()
            .any(|p| dsm.peek(p, var) != Value::Int(value));
        if stale {
            for &i in segment {
                if matches!(script.ops[i], WorkloadOp::Write { var: v, .. } if v == var) {
                    failed[i] = true;
                }
            }
        }
    }
}

/// Spot-check `h` against the protocol's always-guaranteed criterion.
fn spot_check(kind: ProtocolKind, h: &History) -> bool {
    match kind.guaranteed_criterion() {
        Criterion::Causal => causal_spot_check(h).is_ok(),
        Criterion::Pram => pram_spot_check(h).is_ok(),
        other => panic!("no spot check for {other:?}"),
    }
}

fn settled_values(dsm: &DynDsm, dist: &Distribution) -> BTreeMap<(VarId, ProcId), Value> {
    let mut out = BTreeMap::new();
    for x in 0..dist.var_count() {
        let var = VarId(x);
        for p in dist.replicas_of(var) {
            out.insert((var, p), dsm.peek(p, var));
        }
    }
    out
}

fn diverged_vars(settled: &BTreeMap<(VarId, ProcId), Value>) -> Vec<VarId> {
    let mut first: BTreeMap<VarId, Value> = BTreeMap::new();
    let mut diverged = Vec::new();
    for (&(var, _), &value) in settled {
        let seen = *first.entry(var).or_insert(value);
        if seen != value && diverged.last() != Some(&var) {
            diverged.push(var);
        }
    }
    diverged
}

/// Reset the process's peak resident memory so that the next
/// [`peak_rss_mb`] covers only what runs after this call. Freed heap is
/// returned to the kernel first; otherwise the previous run's retained
/// pages would count against the next one.
fn reset_peak_rss() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::os::raw::c_int;
        }
        // SAFETY: glibc's `malloc_trim` takes no pointers and only
        // releases free heap pages; it is safe to call at any time.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 resets VmHWM to the current RSS (Linux ≥ 4.0). Where the
    // file is missing the figure stays a process-wide peak.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident memory (`VmHWM`) in MB, 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host times of one protocol run, read off its spans.
#[derive(Clone, Debug, Default)]
pub struct RunTimes {
    /// The run spans (one per script).
    pub run_s: f64,
    /// Construction phase.
    pub construct_s: f64,
    /// Issue, crash, restart and final-settle phases: first operation to
    /// settled state, checks excluded.
    pub busy_s: f64,
    /// History and check phases.
    pub check_s: f64,
    /// Restart phases.
    pub restart_s: f64,
    /// `dsm.write` calls (traced rounds only).
    pub write_s: f64,
    /// 99th percentile `dsm.write` call, µs (traced rounds only).
    pub write_p99_us: f64,
    /// `dsm.read` calls (traced rounds only).
    pub read_s: f64,
    /// 99th percentile `dsm.read` call, µs (traced rounds only).
    pub read_p99_us: f64,
    /// `dsm.settle` calls (traced rounds only).
    pub settle_s: f64,
    /// `dsm.history` call (traced rounds only).
    pub history_s: f64,
    /// `histories.spot_check` call (traced rounds only).
    pub spot_check_s: f64,
}

impl RunTimes {
    /// Sum up the spans of one protocol run.
    fn of(spans: &[Span]) -> RunTimes {
        let mut t = RunTimes::default();
        let (mut writes, mut reads) = (Vec::new(), Vec::new());
        for s in spans {
            let d = s.secs();
            match s.name {
                name if ProtocolKind::parse(name).is_some() => t.run_s += d,
                "phase.construct" => t.construct_s += d,
                "phase.issue" | "phase.crash" | "phase.settle" => t.busy_s += d,
                "phase.restart" => {
                    t.busy_s += d;
                    t.restart_s += d;
                }
                "phase.history" | "phase.check" => t.check_s += d,
                "dsm.write" => writes.push(d),
                "dsm.read" => reads.push(d),
                "dsm.settle" => t.settle_s += d,
                "dsm.history" => t.history_s += d,
                "histories.spot_check" => t.spot_check_s += d,
                _ => {}
            }
        }
        t.write_s = writes.iter().sum();
        t.read_s = reads.iter().sum();
        t.write_p99_us = quantile(&mut writes, 0.99) * 1e6;
        t.read_p99_us = quantile(&mut reads, 0.99) * 1e6;
        t
    }
}

/// The `q`-quantile of `xs` (nearest rank; 0 when empty).
fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = ((q * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
    xs[rank - 1]
}

/// The median of `xs` (mean of the middle two for an even count).
fn median(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let m = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[m]
    } else {
        (xs[m - 1] + xs[m]) / 2.0
    }
}

/// One protocol run: its sample and span times.
#[derive(Clone, Debug)]
pub struct Observation {
    /// Outputs and counters.
    pub sample: RunSample,
    /// Host times.
    pub times: RunTimes,
    /// Seconds a [`Reference`] pass took around the run (the mean of the
    /// passes just before and just after it).
    pub reference_s: f64,
}

/// Keys sorted and hashed by one [`Reference`] pass.
const REFERENCE_KEYS: usize = 1 << 14;

/// The time a [`Reference`] pass is scaled to: calibrated host times
/// read as if the pass took exactly this long.
pub const REFERENCE_NOMINAL_S: f64 = 0.5e-3;

/// A fixed single-threaded CPU kernel (sort, then linear-probe hashing,
/// of seeded keys) that shares no code with the repository. The host's
/// speed drifts between runs, by up to half on a shared machine; timing
/// this kernel next to every protocol run measures that drift, so the
/// end-to-end host times can be divided by it.
pub struct Reference {
    keys: Vec<u64>,
    table: Vec<u64>,
}

impl Default for Reference {
    fn default() -> Self {
        Reference {
            keys: vec![0; REFERENCE_KEYS],
            table: vec![0; 2 * REFERENCE_KEYS],
        }
    }
}

impl Reference {
    fn pass(&mut self) -> u64 {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            *k = x;
        }
        self.keys.sort_unstable();
        self.table.fill(0);
        let mask = self.table.len() - 1;
        let mut probes = 0;
        for &k in &self.keys {
            let mut i = k.rotate_left(29) as usize & mask;
            while self.table[i] != 0 {
                i = (i + 1) & mask;
                probes += 1;
            }
            self.table[i] = k;
        }
        probes ^ self.keys[REFERENCE_KEYS / 2]
    }

    /// Seconds one pass takes now. A first, untimed pass brings the
    /// kernel's buffers back into cache, so the time does not depend on
    /// how much memory the run before it touched.
    pub fn time(&mut self) -> f64 {
        std::hint::black_box(self.pass());
        let start = Instant::now();
        std::hint::black_box(self.pass());
        start.elapsed().as_secs_f64()
    }
}

/// Busy time each protocol accumulates per round: a protocol whose run
/// is shorter runs again, so that its samples are not dominated by
/// timer and scheduling noise.
const MIN_BUSY_PER_ROUND_S: f64 = 0.1;

/// A metric as printed: name, value, unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Runs of one protocol, in the order they ran.
pub type Runs = Vec<Observation>;

/// Everything one benchmark invocation measured, per protocol in
/// [`ProtocolKind::ALL`] order.
pub struct Outcome {
    /// Runs of untraced rounds.
    pub untraced: Vec<Runs>,
    /// Runs of traced rounds (empty unless tracing).
    pub traced: Vec<Runs>,
    /// Rounds run: untraced, traced.
    pub rounds: (usize, usize),
    /// Spans of the last traced round.
    pub last_spans: Vec<Span>,
}

/// Repeat rounds until `seconds` have passed, at least one untraced
/// round and, when `trace` is set, one traced round; traced and untraced
/// rounds alternate. A round runs every protocol in turn until it has
/// been busy for [`MIN_BUSY_PER_ROUND_S`], so a slow spell of the host
/// falls on every protocol alike.
pub fn measure(prep: &Prepared, seconds: f64, trace: bool) -> Result<Outcome, DsmError> {
    let start = Instant::now();
    let empty = || vec![Vec::new(); ProtocolKind::ALL.len()];
    let mut out = Outcome {
        untraced: empty(),
        traced: empty(),
        rounds: (0, 0),
        last_spans: Vec::new(),
    };
    let mut reference = Reference::default();
    let mut reference_before = reference.time();
    loop {
        let traced = trace && out.rounds.0 > out.rounds.1;
        let mut tr = Tracer::new(traced);
        tr.begin(prep.workload.name());
        let runs = if traced {
            &mut out.traced
        } else {
            &mut out.untraced
        };
        for (k, kind) in ProtocolKind::ALL.into_iter().enumerate() {
            let mut busy_s = 0.0;
            while busy_s < MIN_BUSY_PER_ROUND_S {
                let first = tr.spans().len();
                let sample = run_protocol(prep, kind, &mut tr)?;
                let times = RunTimes::of(&tr.spans()[first..]);
                busy_s += times.busy_s;
                let reference_after = reference.time();
                runs[k].push(Observation {
                    sample,
                    times,
                    reference_s: (reference_before + reference_after) / 2.0,
                });
                reference_before = reference_after;
            }
        }
        tr.end();
        if traced {
            out.rounds.1 += 1;
            out.last_spans = tr.spans().to_vec();
        } else {
            out.rounds.0 += 1;
        }
        if start.elapsed().as_secs_f64() >= seconds && (!trace || out.rounds.1 > 0) {
            return Ok(out);
        }
    }
}

/// Median of `f` over the runs of one protocol.
fn med(runs: &Runs, f: impl Fn(&Observation) -> f64) -> f64 {
    median(runs.iter().map(f).collect())
}

/// Sum over protocols of the median of `f`.
fn sum_med(per_kind: &[Runs], f: impl Fn(&Observation) -> f64) -> f64 {
    per_kind.iter().map(|runs| med(runs, &f)).sum()
}

impl Outcome {
    /// Operations of the seed's script suite issued and failed, each
    /// protocol's suite counted once: a repeated run issues the same
    /// operations again (and [`Outcome::consistent`] demands it). A
    /// protocol's failures are those of its worst run, so the counts
    /// depend on the seed alone, not on how many runs fit in the time.
    pub fn attempted_failed(&self) -> (u64, u64) {
        (0..ProtocolKind::ALL.len()).fold((0, 0), |(a, f), k| {
            let runs = self.untraced[k].iter().chain(&self.traced[k]);
            let (attempted, failed) = runs.fold((0, 0), |(a, f), o| {
                (a.max(o.sample.attempted), f.max(o.sample.failed))
            });
            (a + attempted, f + failed)
        })
    }

    /// Whether the runs agree with themselves: every run of a protocol
    /// issued the same operations and, on simnet, produced identical
    /// exact columns and settled replicas.
    pub fn consistent(&self, workload: Workload) -> bool {
        (0..ProtocolKind::ALL.len()).all(|k| {
            let mut runs = self.untraced[k].iter().chain(&self.traced[k]);
            let Some(first) = runs.next() else {
                return false;
            };
            runs.all(|o| {
                o.sample.attempted == first.sample.attempted
                    && (!workload.is_simnet()
                        || (o.sample.exact == first.sample.exact
                            && o.sample.settled_hash == first.sample.settled_hash))
            })
        })
    }

    /// The end-to-end metrics, from untraced rounds.
    pub fn end_to_end(&self) -> Vec<Metric> {
        let u = &self.untraced;
        // Turns a run's host seconds into calibrated ones.
        let cal = |o: &Observation| REFERENCE_NOMINAL_S / o.reference_s;
        let mut m: Vec<Metric> = ProtocolKind::ALL
            .iter()
            .zip(u)
            .map(|(kind, runs)| {
                let v = med(runs, |o| {
                    o.sample.attempted as f64 / (o.times.busy_s * cal(o))
                });
                metric(format!("ops_per_s.{kind}"), v, "ops/s")
            })
            .collect();
        let setup = sum_med(u, |o| o.times.construct_s * cal(o));
        m.push(metric("setup_s", setup, "s"));
        let check = sum_med(u, |o| o.times.check_s * cal(o));
        m.push(metric("check_s", check, "s"));
        let peak = u
            .iter()
            .map(|runs| med(runs, |o| o.sample.peak_rss_mb))
            .fold(0.0, f64::max);
        m.push(metric("peak_rss_mb", peak, "MB"));
        let ops = sum_med(u, |o| o.sample.attempted as f64);
        let control = sum_med(u, |o| o.sample.exact.control_bytes as f64);
        let messages = sum_med(u, |o| o.sample.exact.messages as f64);
        m.push(metric("control_bytes_per_op", control / ops, "bytes/op"));
        m.push(metric("messages_per_op", messages / ops, "msgs/op"));
        m
    }

    /// Figures printed for people but kept out of the JSON result: the
    /// [`Reference`] time (raw host time = calibrated × it ÷ 0.5 ms),
    /// simulated time (simnet only) and failure rates.
    pub fn extra(&self, workload: Workload) -> Vec<Metric> {
        let reference_ms = med(&self.untraced.concat(), |o| o.reference_s * 1e3);
        let mut m = vec![metric("host.reference_ms", reference_ms, "ms")];
        if workload.is_simnet() {
            let v = sum_med(&self.untraced, |o| o.sample.exact.virtual_ns as f64 * 1e-6);
            m.push(metric("virtual_ms", v, "ms"));
        }
        let (attempted, failed) = self.attempted_failed();
        m.push(metric(
            "fail_rate",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        for (kind, runs) in ProtocolKind::ALL.iter().zip(&self.untraced) {
            let rate = med(runs, |o| {
                o.sample.failed as f64 / o.sample.attempted.max(1) as f64
            });
            m.push(metric(format!("fail_rate.{kind}"), rate, "ratio"));
        }
        m
    }

    /// The per-layer metrics, from traced rounds (peak memory from the
    /// untraced rounds, which carry no span buffers).
    pub fn per_layer(&self, generate_s: f64) -> Vec<Metric> {
        let mut m = Vec::new();
        let layers = ProtocolKind::ALL
            .iter()
            .zip(&self.traced)
            .zip(&self.untraced);
        for ((kind, t), u) in layers {
            let at = |f: &dyn Fn(&Observation) -> f64| med(t, f);
            let exact = |f: fn(&Exact) -> u64| med(t, |o| f(&o.sample.exact) as f64);
            let rows: [(&str, f64, &'static str); 23] = [
                ("dsm.construct_s", at(&|o| o.times.construct_s), "s"),
                ("dsm.write_s", at(&|o| o.times.write_s), "s"),
                ("dsm.write_p99_us", at(&|o| o.times.write_p99_us), "us"),
                ("dsm.read_s", at(&|o| o.times.read_s), "s"),
                ("dsm.read_p99_us", at(&|o| o.times.read_p99_us), "us"),
                ("dsm.settle_s", at(&|o| o.times.settle_s), "s"),
                (
                    "simnet.ns_per_event",
                    at(&|o| o.times.settle_s * 1e9 / o.sample.exact.events.max(1) as f64),
                    "ns",
                ),
                ("simnet.events", exact(|e| e.events), "count"),
                ("simnet.messages", exact(|e| e.messages), "count"),
                ("simnet.control_bytes", exact(|e| e.control_bytes), "bytes"),
                ("simnet.forwarded", exact(|e| e.forwarded), "count"),
                ("simnet.drops", exact(|e| e.drops), "count"),
                ("simnet.retransmits", exact(|e| e.retransmits), "count"),
                ("simnet.crash_losses", exact(|e| e.crash_losses), "count"),
                (
                    "simnet.pool_hit_ratio",
                    at(&|o| o.sample.pool.hit_rate()),
                    "ratio",
                ),
                (
                    "simnet.fabric.full_stalls",
                    at(&|o| o.sample.fabric.full_stalls as f64),
                    "count",
                ),
                (
                    "simnet.fabric.mean_batch_len",
                    at(&|o| {
                        let f = &o.sample.fabric;
                        f.batched_messages as f64 / f.batches.max(1) as f64
                    }),
                    "msgs",
                ),
                ("dsm.restart_s", at(&|o| o.times.restart_s), "s"),
                ("dsm.history_s", at(&|o| o.times.history_s), "s"),
                ("histories.spot_check_s", at(&|o| o.times.spot_check_s), "s"),
                ("dsm.peak_rss_mb", med(u, |o| o.sample.peak_rss_mb), "MB"),
                ("dsm.virtual_ms", exact(|e| e.virtual_ns) * 1e-6, "ms"),
                (
                    "dsm.diverged_vars",
                    at(&|o| o.sample.diverged_vars as f64),
                    "count",
                ),
            ];
            m.extend(rows.map(|(name, v, unit)| metric(format!("{name}.{kind}"), v, unit)));
        }
        m.push(metric("apps.generate_s", generate_s, "s"));
        let overhead =
            sum_med(&self.traced, |o| o.times.run_s) / sum_med(&self.untraced, |o| o.times.run_s);
        m.push(metric("bench.trace_overhead", overhead, "ratio"));
        m
    }
}
