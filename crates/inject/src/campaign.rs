//! Campaign orchestration: many trials across benchmarks and start
//! points, executed on a thread pool, aggregated per benchmark and per
//! state category.
//!
//! # Telemetry
//!
//! [`run_campaign_observed`] threads a [`CampaignObs`] through the run:
//! per-trial events into an [`EventSink`], counters and latency histograms
//! into a [`CampaignMetrics`], and task completions into a
//! [`tfsim_obs::Progress`] gauge. With [`CampaignObs::disabled`] (what
//! [`run_campaign`] / [`run_campaign_on`] use) the workers take the exact
//! pre-telemetry code path — no timing calls, no trace slots.
//!
//! Event streams are deterministic: workers buffer per-task results, and
//! events are emitted *after* the thread pool drains, in canonical
//! (benchmark, start point) order. Two identical-seed campaigns produce
//! identical streams modulo the wall-clock fields, regardless of thread
//! count.

use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use tfsim_check::Rng;

use tfsim_bitstate::{Category, InjectionMask, StorageKind, UnitId};
use tfsim_isa::Program;
use tfsim_obs::{
    CounterId, DeepTrace, Event, EventSink, HistogramId, LocalSpans, MetricsRegistry, NoopSink,
    Progress, PruneDispositions, SpanProfiler, SCHEMA_VERSION,
};
use tfsim_uarch::PipelineConfig;
use tfsim_workloads::Workload;

use crate::golden::{GoldenTimeline, PassPlans};
use crate::journal::{CampaignJournal, JournaledTask};
use crate::trial::{
    warm_pipeline, FailureMode, Outcome, StartPoint, TrialFault, TrialRecord, TrialSpec, TrialTrace,
};

/// Locks a mutex, recovering from poisoning.
///
/// Campaign state behind these locks (the worklist, the output buffer) is
/// only ever mutated by short, panic-free push/pop sections, so a poisoned
/// lock means a *different* part of the worker unwound while holding the
/// guard-free data intact. Recovering the guard keeps the campaign alive
/// and lets the original panic surface instead of being masked by a
/// secondary `PoisonError` unwind in every other worker.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The engine a campaign's trials run on. Every engine produces the same
/// records, traces, and journals; they differ only in how much of the
/// golden run they reuse instead of simulating.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Engine {
    /// The snapshot ladder: every trial is simulated from a fault-free
    /// walker. The reference oracle the fast engine is pinned against.
    Ladder,
    /// The fast engine: a trial whose flipped word the golden run does not
    /// read before deciding it — never accessed, overwritten before its
    /// next read, or locked or halted before the read — is classified from
    /// the golden run; the rest run on the ladder.
    #[default]
    Pruned,
}

impl Engine {
    /// Every engine, reference first.
    pub const ALL: [Engine; 2] = [Engine::Ladder, Engine::Pruned];

    /// The engine's command-line name.
    pub fn label(self) -> &'static str {
        match self {
            Engine::Ladder => "ladder",
            Engine::Pruned => "pruned",
        }
    }

    /// Parses a command-line name (`ladder` or `pruned`).
    pub fn parse(name: &str) -> Option<Engine> {
        Engine::ALL.into_iter().find(|e| e.label() == name)
    }
}

/// Campaign parameters. The defaults mirror the paper's methodology at a
/// reduced scale; [`CampaignConfig::paper_scale`] approaches the paper's
/// 25–30k trials per campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Which bits are eligible (latches+RAMs, or latches only).
    pub mask: InjectionMask,
    /// Pipeline configuration (baseline or protected).
    pub pipeline: PipelineConfig,
    /// Workload scale factor passed to the generators.
    pub scale: u32,
    /// Start points per benchmark.
    pub start_points: u32,
    /// Trials per start point.
    pub trials_per_start_point: u32,
    /// Cycles of warm-up before the first start point (cache/predictor
    /// warm-up, per the paper).
    pub warmup_cycles: u64,
    /// Cycles between consecutive start points of one benchmark.
    pub spacing_cycles: u64,
    /// Injection cycle is drawn uniformly from `[0, inject_window)`.
    pub inject_window: u64,
    /// Monitoring limit after injection (the paper uses 10,000).
    pub monitor_cycles: u64,
    /// RNG seed.
    pub seed: u64,
    /// Worker threads (0 = all available).
    pub threads: usize,
    /// Which engine runs the trials. An execution strategy like
    /// `threads`: censuses, records, traces, and journals are
    /// byte-identical on every engine, so the choice is deliberately *not*
    /// part of the journal identity.
    pub engine: Engine,
    /// Record each trial's full divergence timeline (which units held
    /// faulty state, per µArch check) and emit it as
    /// [`Event::Propagation`] after the trial's event. A trace *level*,
    /// not an experiment parameter: censuses, records, traces, and
    /// journals are byte-identical with or without it, so — like `engine`
    /// and `threads` — it is deliberately not part of the journal
    /// identity. Timelines are not journaled either: tasks replayed from a
    /// journal contribute no `Propagation` events. Only effective when
    /// telemetry is on (an [`EventSink`] or metrics are attached).
    pub deep_trace: bool,
    /// Test hook: force the trial at `(benchmark, start_point, trial)` to
    /// panic mid-run, exercising the containment/quarantine machinery
    /// end-to-end. Never set by the presets; not part of the experiment
    /// configuration (and deliberately excluded from the journal header).
    #[doc(hidden)]
    pub panic_shim: Option<(usize, u32, u32)>,
}

impl CampaignConfig {
    /// A fast configuration for tests and smoke runs (~800 trials).
    pub fn quick(seed: u64) -> CampaignConfig {
        CampaignConfig {
            mask: InjectionMask::LatchesAndRams,
            pipeline: PipelineConfig::baseline(),
            scale: 2,
            start_points: 2,
            trials_per_start_point: 40,
            warmup_cycles: 1_500,
            spacing_cycles: 600,
            inject_window: 200,
            monitor_cycles: 3_000,
            seed,
            threads: 0,
            engine: Engine::default(),
            deep_trace: false,
            panic_shim: None,
        }
    }

    /// The default experiment scale used by the figure harness
    /// (~6,000 trials per campaign; tighter than `quick`, far faster than
    /// the paper's full 25–30k).
    pub fn default_scale(seed: u64) -> CampaignConfig {
        CampaignConfig {
            mask: InjectionMask::LatchesAndRams,
            pipeline: PipelineConfig::baseline(),
            scale: 2,
            start_points: 6,
            trials_per_start_point: 100,
            warmup_cycles: 2_000,
            spacing_cycles: 500,
            inject_window: 250,
            monitor_cycles: 10_000,
            seed,
            threads: 0,
            engine: Engine::default(),
            deep_trace: false,
            panic_shim: None,
        }
    }

    /// The paper's scale: ~25,000–30,000 trials, 10,000-cycle monitoring.
    pub fn paper_scale(seed: u64) -> CampaignConfig {
        CampaignConfig {
            mask: InjectionMask::LatchesAndRams,
            pipeline: PipelineConfig::baseline(),
            scale: 4,
            start_points: 27,
            trials_per_start_point: 100,
            warmup_cycles: 2_000,
            spacing_cycles: 700,
            inject_window: 250,
            monitor_cycles: 10_000,
            seed,
            threads: 0,
            engine: Engine::default(),
            deep_trace: false,
            panic_shim: None,
        }
    }

    /// Golden cycles each start point needs after its checkpoint.
    pub(crate) fn horizon(&self) -> u64 {
        self.inject_window + self.monitor_cycles
    }

    /// Start points' offsets from the first one (which sits at
    /// `warmup_cycles`), ascending.
    pub(crate) fn start_offsets(&self) -> Vec<u64> {
        (0..self.start_points as u64).map(|k| self.spacing_cycles * k).collect()
    }
}

/// Outcome counters for a slice of trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// µArch Match trials.
    pub matched: u64,
    /// Gray Area trials.
    pub gray: u64,
    /// Failures indexed by [`FailureMode::ALL`] order.
    pub failures: [u64; 7],
}

impl OutcomeCounts {
    /// Records one outcome.
    pub fn add(&mut self, outcome: Outcome) {
        match outcome {
            Outcome::MicroArchMatch => self.matched += 1,
            Outcome::GrayArea => self.gray += 1,
            Outcome::Failure(mode) => self.failures[mode.index()] += 1,
        }
    }

    /// Merges another counter.
    pub fn merge(&mut self, other: &OutcomeCounts) {
        self.matched += other.matched;
        self.gray += other.gray;
        for i in 0..7 {
            self.failures[i] += other.failures[i];
        }
    }

    /// Count for a specific failure mode.
    pub fn failure(&self, mode: FailureMode) -> u64 {
        self.failures[mode.index()]
    }

    /// All failures (SDC + Terminated).
    pub fn failed(&self) -> u64 {
        self.failures.iter().sum()
    }

    /// Failures classified as SDC.
    pub fn sdc(&self) -> u64 {
        FailureMode::ALL
            .iter()
            .filter(|m| !m.is_termination())
            .map(|m| self.failure(*m))
            .sum()
    }

    /// Failures classified as Terminated.
    pub fn terminated(&self) -> u64 {
        FailureMode::ALL
            .iter()
            .filter(|m| m.is_termination())
            .map(|m| self.failure(*m))
            .sum()
    }

    /// All trials.
    pub fn total(&self) -> u64 {
        self.matched + self.gray + self.failed()
    }

    /// Fraction of trials conclusively masked (µArch Match).
    pub fn masked_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.matched as f64 / self.total() as f64
    }

    /// Fraction of trials that are not known failures (µArch Match + Gray).
    pub fn benign_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        (self.matched + self.gray) as f64 / self.total() as f64
    }

    /// Fraction of known failures.
    pub fn failure_fraction(&self) -> f64 {
        if self.total() == 0 {
            return 0.0;
        }
        self.failed() as f64 / self.total() as f64
    }
}

/// One Figure 6 scatter point: trials of one start point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScatterPoint {
    /// Benchmark index within the campaign.
    pub benchmark: usize,
    /// Mean golden valid-instruction count at the injection cycles.
    pub valid_instructions: f64,
    /// Fraction of trials that did not fail.
    pub benign_fraction: f64,
    /// Trials behind this point.
    pub trials: u64,
}

/// Aggregated results for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchmarkResult {
    /// Workload name.
    pub name: String,
    /// Outcome totals.
    pub counts: OutcomeCounts,
}

/// One quarantined trial: a [`TrialFault`] located within the campaign.
///
/// Harness bookkeeping, not science: quarantined trials never enter the
/// outcome census (`CampaignResult::totals` and friends), they are
/// reported alongside it so an escaped panic is visible without
/// contaminating the paper's taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignQuarantine {
    /// Benchmark index within the campaign.
    pub benchmark: usize,
    /// Start point within the benchmark.
    pub start_point: u32,
    /// Trial index within the start point (position in the drawn plan).
    pub trial: usize,
    /// The spec whose run unwound.
    pub spec: TrialSpec,
    /// The panic payload, when it carried a message.
    pub panic_msg: String,
}

/// Full campaign results.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// Per-benchmark outcome totals (paper Figure 3).
    pub benchmarks: Vec<BenchmarkResult>,
    /// Outcomes grouped by the flipped bit's category (Figures 4/5/9).
    pub by_category: BTreeMap<Category, OutcomeCounts>,
    /// Outcomes grouped by (category, storage kind).
    pub by_category_kind: BTreeMap<(Category, StorageKind), OutcomeCounts>,
    /// Figure 6 scatter points (one per start point).
    pub scatter: Vec<ScatterPoint>,
    /// Eligible bits per model instance (constant across a campaign).
    pub eligible_bits: u64,
    /// Trials contained by the per-trial supervisor, in canonical
    /// (benchmark, start point, trial) order. Empty unless the hardened
    /// model has an escape (or the test shim forced one).
    pub quarantined: Vec<CampaignQuarantine>,
    /// Pruner disposition totals over the live-executed tasks. `None`
    /// unless the campaign ran on [`Engine::Pruned`] (journal-replayed tasks
    /// contribute nothing: their trials were not re-pruned).
    pub prune: Option<PruneDispositions>,
}

impl CampaignResult {
    /// Aggregate outcome counts over every benchmark.
    pub fn totals(&self) -> OutcomeCounts {
        let mut t = OutcomeCounts::default();
        for b in &self.benchmarks {
            t.merge(&b.counts);
        }
        t
    }

    /// Failure-mode breakdown by category: for each category, the count of
    /// trials ending in each of the seven modes (Figure 7).
    pub fn failure_modes_by_category(&self) -> BTreeMap<Category, [u64; 7]> {
        self.by_category.iter().map(|(c, o)| (*c, o.failures)).collect()
    }
}

/// Campaign instruments pre-registered on a [`MetricsRegistry`].
///
/// Workers record into thread-local [`tfsim_obs::LocalMetrics`] scratchpads
/// and merge once per (benchmark, start point) task, so the per-trial hot
/// path touches plain integers only.
pub struct CampaignMetrics {
    registry: MetricsRegistry,
    trials: CounterId,
    matched: CounterId,
    gray: CounterId,
    failed: CounterId,
    warmup_ns: CounterId,
    prepare_ns: CounterId,
    advance_ns: CounterId,
    monitor_ns: CounterId,
    fail_latency: HistogramId,
    match_latency: HistogramId,
}

impl CampaignMetrics {
    /// Creates the standard campaign instrument set.
    pub fn new() -> CampaignMetrics {
        let mut registry = MetricsRegistry::new();
        CampaignMetrics {
            trials: registry.counter("trials"),
            matched: registry.counter("matched"),
            gray: registry.counter("gray"),
            failed: registry.counter("failed"),
            warmup_ns: registry.counter("phase/warmup_ns"),
            prepare_ns: registry.counter("phase/prepare_ns"),
            advance_ns: registry.counter("phase/advance_ns"),
            monitor_ns: registry.counter("phase/monitor_ns"),
            fail_latency: registry.histogram("cycles-to-failure-detection"),
            match_latency: registry.histogram("cycles-to-reconvergence"),
            registry,
        }
    }

    /// Total trials recorded so far.
    pub fn trials(&self) -> u64 {
        self.registry.counter_value(self.trials)
    }

    /// Trials that ended in a known failure so far.
    pub fn failed(&self) -> u64 {
        self.registry.counter_value(self.failed)
    }

    /// Snapshot of the failure-detection latency histogram (cycles from
    /// injection to the decision).
    pub fn fail_latency(&self) -> tfsim_obs::Histogram {
        self.registry.histogram_value(self.fail_latency)
    }

    /// Renders every instrument as text.
    pub fn render(&self) -> String {
        self.registry.render()
    }
}

impl Default for CampaignMetrics {
    fn default() -> Self {
        CampaignMetrics::new()
    }
}

/// Observability hooks for one campaign run.
///
/// All three channels are optional in effect: [`CampaignObs::disabled`]
/// yields a run whose workers execute the pre-telemetry code path (no
/// per-trial trace collection, no timing syscalls) — the zero-overhead-
/// when-disabled contract, pinned by the `inject/trials-per-sec` bench.
pub struct CampaignObs<'a> {
    /// Destination for the per-trial event stream.
    pub sink: &'a dyn EventSink,
    /// Counters and latency histograms, if wanted.
    pub metrics: Option<&'a CampaignMetrics>,
    /// Live task-completion gauge, if wanted.
    pub progress: Option<&'a Progress>,
    /// Hierarchical wall-time self-profile, if wanted: workers time each
    /// task's phases into thread-local [`LocalSpans`] scratchpads, merged
    /// here once per task. With a sink attached, the merged tree is also
    /// emitted as [`Event::Span`] events before the campaign footer.
    pub spans: Option<&'a SpanProfiler>,
}

impl CampaignObs<'static> {
    /// No sink, no metrics, no progress: campaigns run exactly as if the
    /// telemetry layer did not exist.
    pub fn disabled() -> CampaignObs<'static> {
        static NOOP: NoopSink = NoopSink;
        CampaignObs { sink: &NOOP, metrics: None, progress: None, spans: None }
    }
}

fn outcome_strings(outcome: Outcome) -> (&'static str, Option<&'static str>) {
    match outcome {
        Outcome::MicroArchMatch => ("match", None),
        Outcome::GrayArea => ("gray", None),
        Outcome::Failure(mode) => ("fail", Some(mode.label())),
    }
}

/// One task's buffered results, live-executed or replayed.
struct TaskOutput {
    bench: usize,
    start_point: u32,
    records: Vec<TrialRecord>,
    scatter: ScatterPoint,
    eligible_bits: u64,
    faults: Vec<TrialFault>,
    /// Pruner disposition tally (`None` unless the task ran pruned;
    /// journal-replayed tasks report none — no pruning was re-done).
    prune: Option<PruneDispositions>,
    // Telemetry (empty / zero on the untraced path).
    specs: Vec<TrialSpec>,
    traces: Vec<TrialTrace>,
    /// Divergence timelines, aligned with `records` (empty unless the
    /// campaign ran deep-traced; replayed tasks have none — timelines
    /// are not journaled).
    deeps: Vec<DeepTrace>,
    warmup_ns: u64,
    prepare_ns: u64,
    advance_ns: u64,
    monitor_ns: u64,
}

/// The Figure 6 scatter point of one task (classified records only; the
/// same arithmetic whether the task ran live or was replayed from a
/// journal).
fn scatter_of(bench: usize, records: &[TrialRecord]) -> ScatterPoint {
    let mut benign = 0u64;
    let mut valid_sum = 0u64;
    for rec in records {
        if !rec.outcome.is_failure() {
            benign += 1;
        }
        valid_sum += rec.valid_instructions as u64;
    }
    let n = records.len().max(1) as f64;
    ScatterPoint {
        benchmark: bench,
        valid_instructions: valid_sum as f64 / n,
        benign_fraction: benign as f64 / n,
        trials: records.len() as u64,
    }
}

/// Runs one task's drawn trial plan on the configured engine at the
/// requested trace level: the ladder, or the fast engine with the plan's
/// access answers from the golden pass. The single definition keeps the
/// in-process pool and the distributed worker on the same machine code, so
/// a worker's results are byte-identical to the local run's by
/// construction.
fn run_engine(
    config: &CampaignConfig,
    sp: &StartPoint,
    shim: Option<usize>,
    traced: bool,
    deep: bool,
) -> (crate::trial::TracedBatch, Option<PruneDispositions>) {
    let (mask, monitor, specs) = (config.mask, config.monitor_cycles, sp.plan());
    let answers = match config.engine {
        Engine::Ladder => None,
        Engine::Pruned => {
            Some(sp.plan_answers().expect("the golden pass answers a fast-engine plan"))
        }
    };
    let (batch, dispo) = if traced {
        sp.run_trials_core::<true>(mask, specs, answers, monitor, shim, deep)
    } else {
        sp.run_trials_core::<false>(mask, specs, answers, monitor, shim, false)
    };
    (batch, answers.is_some().then_some(dispo))
}

/// The golden timeline every start point of benchmark `bench` views: one
/// TLB probe, one warm-up to the first start point, one golden pass over
/// the union of the campaign's windows that also draws and answers every
/// start point's trial plan.
pub(crate) fn campaign_timeline(
    config: &CampaignConfig,
    bench: usize,
    workload: &Workload,
) -> GoldenTimeline {
    let program: Program = workload.build(config.scale);
    let warmed = warm_pipeline(&program, config.pipeline, config.warmup_cycles);
    golden_pass(config, bench, warmed)
}

/// The campaign's golden pass over a pipeline already warmed to the first
/// start point.
fn golden_pass(config: &CampaignConfig, bench: usize, warmed: tfsim_uarch::Pipeline) -> GoldenTimeline {
    GoldenTimeline::build(
        warmed,
        &config.start_offsets(),
        config.horizon(),
        config.mask,
        Some(PassPlans { config, bench }),
    )
}

/// The order tasks are handed out in, first task first: benchmark-major,
/// so a benchmark's golden timeline is built once and dropped after its
/// last task before the next benchmark's is built (the in-process pool
/// and the distributed lease table both use it). Tasks in `done` (already
/// journaled) are left out.
pub(crate) fn task_order(
    benchmarks: usize,
    start_points: u32,
    done: &std::collections::BTreeSet<(usize, u32)>,
) -> Vec<(usize, u32)> {
    (0..benchmarks)
        .flat_map(|b| (0..start_points).map(move |s| (b, s)))
        .filter(|t| !done.contains(t))
        .collect()
}

/// Draws a task's trial plan: target then cycle per trial (the exact draw
/// order of the historical per-trial loop, so seeds reproduce the same
/// campaigns). Every (benchmark, start point) task owns PRNG substream
/// `bench << 32 | start_point` of the campaign seed, so the plan is a pure
/// function of the config — not of thread count or work-stealing order.
/// The golden pass draws it when it reaches the start point, whose
/// checkpoint has `bit_count` eligible bits.
pub(crate) fn draw_plan(
    config: &CampaignConfig,
    bit_count: u64,
    bench: usize,
    start_point: u32,
) -> Vec<TrialSpec> {
    let mut rng = Rng::from_seed_stream(config.seed, (bench as u64) << 32 | start_point as u64);
    (0..config.trials_per_start_point)
        .map(|_| TrialSpec {
            target: rng.gen_range(0..bit_count),
            inject_cycle: rng.gen_range(0..config.inject_window),
        })
        .collect()
}

/// Executes one (benchmark, start point) task — the full drawn trial plan
/// on the benchmark's golden timeline — and returns it in journal form.
/// This is the distributed worker's unit of work: the view, the plan and
/// the engine dispatch ([`run_engine`]) are the in-process pool's, so the
/// returned task is byte-identical to what a local run would journal.
/// Always traced (the wire carries traces, like the journal does).
pub(crate) fn execute_task(
    config: &CampaignConfig,
    golden: &Arc<GoldenTimeline>,
    bench: usize,
    start_point: u32,
) -> JournaledTask {
    let sp = golden.start_point(start_point as usize);
    let shim = config
        .panic_shim
        .and_then(|(b, s, t)| (b == bench && s == start_point).then_some(t as usize));
    let (batch, _prune) = run_engine(config, &sp, shim, true, false);
    JournaledTask {
        bench,
        start_point,
        eligible_bits: sp.bit_count(),
        specs: sp.plan().to_vec(),
        records: batch.records,
        traces: batch.traces,
        faults: batch.faults,
    }
}

/// Runs a campaign over the ten standard workloads.
pub fn run_campaign(config: &CampaignConfig) -> CampaignResult {
    let workloads = tfsim_workloads::all();
    run_campaign_on(config, &workloads)
}

/// Runs a campaign over an explicit workload list.
pub fn run_campaign_on(config: &CampaignConfig, workloads: &[Workload]) -> CampaignResult {
    run_campaign_observed(config, workloads, &CampaignObs::disabled())
}

/// Runs a campaign over an explicit workload list with telemetry.
pub fn run_campaign_observed(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
) -> CampaignResult {
    run_campaign_journaled(config, workloads, obs, None)
}

/// Runs a campaign over an explicit workload list with telemetry and an
/// optional durable [`CampaignJournal`].
///
/// With a journal, every completed (benchmark, start point) task is
/// appended (and fsync'd) in task order: a task that finishes before an
/// earlier one waits for that one's line, so the file's bytes do not
/// depend on the schedule. Tasks the journal already holds — from an interrupted earlier run resumed with
/// [`CampaignJournal::resume`] — are replayed from it instead of being
/// re-executed. Because each task's trial plan is a pure function of the
/// seed (per-task PRNG substreams) and aggregation happens in canonical
/// task order, a resumed campaign produces results byte-identical to an
/// uninterrupted run at any thread count.
pub fn run_campaign_journaled(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    journal: Option<&CampaignJournal>,
) -> CampaignResult {
    let replayed: Vec<JournaledTask> =
        journal.map(|j| j.completed().to_vec()).unwrap_or_default();
    run_campaign_core(config, workloads, obs, journal, replayed)
}

/// Runs a campaign seeded with already-completed tasks — the distributed
/// coordinator's merge path. `tasks` (e.g. the union of worker journal
/// shards) are replayed exactly like journal-recovered tasks: first
/// completion per (benchmark, start point) wins, later duplicates —
/// expired-lease re-executions — are dropped, and any task the set does
/// *not* cover is executed in-process. Aggregation happens in canonical
/// task order, so the census and the post-`strip_wall_clock` event stream
/// are byte-identical to a single-process run of the same config.
pub fn run_campaign_with_tasks(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    tasks: Vec<JournaledTask>,
) -> CampaignResult {
    let mut seen = std::collections::BTreeSet::new();
    let tasks: Vec<JournaledTask> =
        tasks.into_iter().filter(|t| seen.insert((t.bench, t.start_point))).collect();
    run_campaign_core(config, workloads, obs, None, tasks)
}

/// A benchmark's golden timeline in the in-process pool.
enum Golden {
    /// Not built yet, or dropped after the benchmark's last task.
    Absent,
    /// A worker is building it; the benchmark's tasks wait for it.
    Building,
    Ready(Arc<GoldenTimeline>),
}

/// A task handed to a pool worker: `(benchmark, start point)`, with the
/// benchmark's timeline when it is built, or the duty to build it.
enum Claim<'a> {
    Run(usize, u32, Arc<GoldenTimeline>),
    Build(usize, u32, BuildGuard<'a>),
}

impl Claim<'_> {
    fn task(&self) -> (usize, u32) {
        match *self {
            Claim::Run(b, s, _) | Claim::Build(b, s, _) => (b, s),
        }
    }
}

struct PoolState {
    /// Tasks not yet claimed, in [`task_order`].
    pending: Vec<(usize, u32)>,
    golden: Vec<Golden>,
    /// Claimed-or-pending tasks per benchmark not yet finished.
    unfinished: Vec<usize>,
}

/// The in-process pool's work list. Workers take the first pending task
/// whose benchmark's timeline is not being built by someone else; the
/// first task of a benchmark builds it. With one thread that is strict
/// benchmark-major order, so one timeline is alive at a time; with more,
/// each worker builds at most one timeline at once and nobody waits while
/// another benchmark has work. A timeline is dropped after its
/// benchmark's last task. Results never depend on the schedule: every
/// view of a timeline is the same whoever built it.
struct GoldenPool {
    state: Mutex<PoolState>,
    published: Condvar,
}

impl GoldenPool {
    fn new(tasks: Vec<(usize, u32)>, benchmarks: usize) -> GoldenPool {
        let mut unfinished = vec![0; benchmarks];
        for &(b, _) in &tasks {
            unfinished[b] += 1;
        }
        GoldenPool {
            state: Mutex::new(PoolState {
                pending: tasks,
                golden: (0..benchmarks).map(|_| Golden::Absent).collect(),
                unfinished,
            }),
            published: Condvar::new(),
        }
    }

    /// The next task, or `None` once the work list is empty. Blocks only
    /// while every pending task waits on a timeline another worker is
    /// building.
    fn claim(&self) -> Option<Claim<'_>> {
        let mut st = lock_recover(&self.state);
        loop {
            if st.pending.is_empty() {
                return None;
            }
            let next =
                st.pending.iter().position(|&(b, _)| !matches!(st.golden[b], Golden::Building));
            let Some(i) = next else {
                st = self.published.wait(st).unwrap_or_else(|e| e.into_inner());
                continue;
            };
            let (b, s) = st.pending.remove(i);
            return match &st.golden[b] {
                Golden::Ready(golden) => Some(Claim::Run(b, s, Arc::clone(golden))),
                Golden::Absent => {
                    st.golden[b] = Golden::Building;
                    Some(Claim::Build(b, s, BuildGuard { pool: self, bench: b, published: false }))
                }
                Golden::Building => unreachable!("skipped above"),
            };
        }
    }

    fn set(&self, bench: usize, golden: Golden) {
        lock_recover(&self.state).golden[bench] = golden;
        self.published.notify_all();
    }

    /// Records a finished task; drops the timeline after the benchmark's
    /// last one.
    fn finish(&self, bench: usize) {
        let mut st = lock_recover(&self.state);
        st.unfinished[bench] -= 1;
        if st.unfinished[bench] == 0 {
            st.golden[bench] = Golden::Absent;
        }
    }
}

/// A worker's duty to build one benchmark's timeline: publishing it wakes
/// the benchmark's waiting tasks; dropping it unpublished (the build
/// unwound) hands the build to the next claimant.
struct BuildGuard<'a> {
    pool: &'a GoldenPool,
    bench: usize,
    published: bool,
}

impl BuildGuard<'_> {
    fn publish(mut self, golden: GoldenTimeline) -> Arc<GoldenTimeline> {
        let golden = Arc::new(golden);
        self.published = true;
        self.pool.set(self.bench, Golden::Ready(Arc::clone(&golden)));
        golden
    }
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            // Wake the waiters so none hangs on a build that will never
            // finish; the scope re-raises the builder's panic at join.
            self.pool.set(self.bench, Golden::Absent);
        }
    }
}

fn run_campaign_core(
    config: &CampaignConfig,
    workloads: &[Workload],
    obs: &CampaignObs<'_>,
    journal: Option<&CampaignJournal>,
    replayed: Vec<JournaledTask>,
) -> CampaignResult {
    let done: std::collections::BTreeSet<(usize, u32)> =
        replayed.iter().map(|t| (t.bench, t.start_point)).collect();
    let tasks = task_order(workloads.len(), config.start_points, &done);
    let task_count = (tasks.len() + replayed.len()) as u64;
    // Journaled tasks wait here to be appended in task order: the next
    // task's rank, and finished tasks keyed by rank.
    let rank: BTreeMap<(usize, u32), usize> =
        tasks.iter().enumerate().map(|(i, &t)| (t, i)).collect();
    let unjournaled = Mutex::new((0, BTreeMap::<usize, (JournaledTask, TaskOutput)>::new()));
    let pool = GoldenPool::new(tasks, workloads.len());

    // Trace collection is active if anything downstream consumes it; the
    // untraced path must stay byte-for-byte the pre-telemetry machine code.
    // A journal is such a consumer: journaled runs always compute (and
    // journal) traces so the file's bytes are independent of trace level
    // and a resume replays full trial fidelity.
    let traced =
        obs.sink.enabled() || obs.metrics.is_some() || obs.spans.is_some() || journal.is_some();
    // Deep tracing is a refinement of tracing: without a consumer the
    // timelines would be dropped on the floor, so the flag is inert.
    let deep = traced && config.deep_trace;
    let campaign_t0 = traced.then(Instant::now);
    if let Some(p) = obs.progress {
        p.set_total(task_count);
    }
    if obs.sink.enabled() {
        obs.sink.emit(&Event::CampaignStart {
            schema: SCHEMA_VERSION,
            seed: config.seed,
            benchmarks: workloads.iter().map(|w| w.name.to_string()).collect(),
            start_points: config.start_points as u64,
            trials_per_start_point: config.trials_per_start_point as u64,
            inject_window: config.inject_window,
            monitor_cycles: config.monitor_cycles,
        });
    }

    // Tasks replayed from the journal become ordinary task outputs (zero
    // phase timings: no work was re-done). Metrics and progress see them
    // so a resumed run's counters cover the whole campaign.
    let mut restored: Vec<TaskOutput> = Vec::with_capacity(replayed.len());
    for t in replayed {
        if let Some(metrics) = obs.metrics {
            let mut local = metrics.registry.local();
            local.add(metrics.trials, t.records.len() as u64);
            for (rec, tr) in t.records.iter().zip(t.traces.iter()) {
                let latency = tr.detect_cycle - rec.inject_cycle;
                match rec.outcome {
                    Outcome::MicroArchMatch => {
                        local.add(metrics.matched, 1);
                        local.observe(metrics.match_latency, latency);
                    }
                    Outcome::GrayArea => local.add(metrics.gray, 1),
                    Outcome::Failure(_) => {
                        local.add(metrics.failed, 1);
                        local.observe(metrics.fail_latency, latency);
                    }
                }
            }
            metrics.registry.absorb(&local);
        }
        if let Some(p) = obs.progress {
            p.add(1);
        }
        restored.push(TaskOutput {
            bench: t.bench,
            start_point: t.start_point,
            scatter: scatter_of(t.bench, &t.records),
            records: t.records,
            eligible_bits: t.eligible_bits,
            faults: t.faults,
            prune: None,
            specs: t.specs,
            traces: t.traces,
            deeps: Vec::new(),
            warmup_ns: 0,
            prepare_ns: 0,
            advance_ns: 0,
            monitor_ns: 0,
        });
    }
    let outputs: Mutex<Vec<TaskOutput>> = Mutex::new(restored);

    let threads = if config.threads == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
    } else {
        config.threads
    };

    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| while let Some(claim) = pool.claim() {
                let (bench, start_point) = claim.task();
                let w = &workloads[bench];
                // Per-task span scratchpad: campaign → benchmark → spN →
                // {warmup, golden, footprint, trials, journal}, merged into
                // the shared profiler once, after the task. Every task
                // opens the same spans; only the task that builds the
                // benchmark's shared timeline does work in `warmup`,
                // `golden` and `footprint`.
                let mut spans = obs.spans.map(|_| {
                    let mut ls = LocalSpans::new();
                    ls.enter("campaign");
                    ls.enter(w.name);
                    ls.enter(&format!("sp{start_point}"));
                    ls
                });
                if let Some(ls) = spans.as_mut() {
                    ls.enter("warmup");
                }
                let t0 = traced.then(Instant::now);
                let warmed = matches!(claim, Claim::Build(..)).then(|| {
                    warm_pipeline(&w.build(config.scale), config.pipeline, config.warmup_cycles)
                });
                let t1 = traced.then(Instant::now);
                if let Some(ls) = spans.as_mut() {
                    ls.exit();
                }
                let (golden, answer_ns) = match claim {
                    Claim::Run(_, _, golden) => (golden, 0),
                    Claim::Build(_, _, guard) => {
                        let timeline = golden_pass(config, bench, warmed.expect("warmed above"));
                        let answer_ns = timeline.footprint_ns;
                        (guard.publish(timeline), answer_ns)
                    }
                };
                let sp = golden.start_point(start_point as usize);
                let t2 = traced.then(Instant::now);
                if let Some(ls) = spans.as_mut() {
                    // The pass's plan drawing and answering is its own
                    // layer, `footprint`, beside the fingerprint pass.
                    let pass_ns = t1.zip(t2).map_or(0, |(a, b)| (b - a).as_nanos() as u64);
                    ls.record("golden", pass_ns.saturating_sub(answer_ns), 1);
                    ls.record("footprint", answer_ns, 1);
                }

                let shim = config
                    .panic_shim
                    .and_then(|(b, s, t)| (b == bench && s == start_point).then_some(t as usize));
                if let Some(ls) = spans.as_mut() {
                    ls.enter("trials");
                }
                let (batch, prune) = run_engine(config, &sp, shim, traced, deep);
                if let Some(ls) = spans.as_mut() {
                    // Engine-internal phase attribution: counted by the
                    // batch itself (no extra clocks here), charged as
                    // children of the open `trials` span.
                    ls.record("advance", batch.advance_ns, batch.records.len() as u64);
                    ls.record("ride", batch.ride_ns, 1);
                    ls.record("classify", batch.classify_ns, 1);
                    ls.exit();
                }
                let (records, traces, deeps, faults, advance_ns, monitor_ns) = (
                    batch.records,
                    batch.traces,
                    batch.deeps,
                    batch.faults,
                    batch.advance_ns,
                    batch.monitor_ns,
                );
                let warmup_ns = match (t0, t1) {
                    (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                    _ => 0,
                };
                let prepare_ns = match (t1, t2) {
                    (Some(a), Some(b)) => b.duration_since(a).as_nanos() as u64,
                    _ => 0,
                };

                if let Some(metrics) = obs.metrics {
                    // One scratchpad per task, merged under one short lock:
                    // the per-trial recording below is lock- and atomic-free.
                    let mut local = metrics.registry.local();
                    local.add(metrics.trials, records.len() as u64);
                    local.add(metrics.warmup_ns, warmup_ns);
                    local.add(metrics.prepare_ns, prepare_ns);
                    local.add(metrics.advance_ns, advance_ns);
                    local.add(metrics.monitor_ns, monitor_ns);
                    for (rec, tr) in records.iter().zip(traces.iter()) {
                        let latency = tr.detect_cycle - rec.inject_cycle;
                        match rec.outcome {
                            Outcome::MicroArchMatch => {
                                local.add(metrics.matched, 1);
                                local.observe(metrics.match_latency, latency);
                            }
                            Outcome::GrayArea => local.add(metrics.gray, 1),
                            Outcome::Failure(_) => {
                                local.add(metrics.failed, 1);
                                local.observe(metrics.fail_latency, latency);
                            }
                        }
                    }
                    metrics.registry.absorb(&local);
                }
                if let Some(p) = obs.progress {
                    p.add(1);
                }

                let scatter = scatter_of(bench, &records);
                let entry = journal.map(|_| JournaledTask {
                    bench,
                    start_point,
                    eligible_bits: sp.bit_count(),
                    specs: sp.plan().to_vec(),
                    records: records.clone(),
                    traces: traces.clone(),
                    faults: faults.clone(),
                });
                let out = TaskOutput {
                    bench,
                    start_point,
                    records,
                    scatter,
                    eligible_bits: sp.bit_count(),
                    faults,
                    prune,
                    specs: sp.plan().to_vec(),
                    traces,
                    deeps,
                    warmup_ns,
                    prepare_ns,
                    advance_ns,
                    monitor_ns,
                };
                if let Some(ls) = spans.as_mut() {
                    ls.enter("journal");
                }
                match journal.zip(entry) {
                    // Durability before visibility, in task order: a task
                    // joins the in-memory aggregation only after its line
                    // is on disk, and lines go out in task order whatever
                    // order the workers finish in, so a journal's bytes do
                    // not depend on the schedule. A task finished ahead of
                    // an earlier one waits here (a crash before its line
                    // is written re-runs it, which is idempotent). Append
                    // failures must not kill a campaign that can still
                    // finish in memory.
                    Some((j, entry)) => {
                        let mut queue = lock_recover(&unjournaled);
                        let (next, held) = &mut *queue;
                        held.insert(rank[&(bench, start_point)], (entry, out));
                        while let Some((entry, out)) = held.remove(next) {
                            if let Err(e) = j.append_task(&entry) {
                                eprintln!(
                                    "warning: journal append failed for task ({}, {}): {e}",
                                    entry.bench, entry.start_point
                                );
                            }
                            lock_recover(&outputs).push(out);
                            *next += 1;
                        }
                    }
                    None => lock_recover(&outputs).push(out),
                }
                if let Some((ls, profiler)) = spans.as_mut().zip(obs.spans) {
                    ls.exit(); // journal
                    ls.exit(); // spN
                    ls.exit(); // benchmark
                    ls.exit(); // campaign
                    profiler.absorb(ls);
                }
                pool.finish(bench);
            });
        }
    });

    // Canonical task order: events must not depend on worker scheduling.
    let mut outputs = outputs.into_inner().unwrap_or_else(|e| e.into_inner());
    outputs.sort_by_key(|o| (o.bench, o.start_point));

    // Aggregate.
    let mut benchmarks: Vec<BenchmarkResult> = workloads
        .iter()
        .map(|w| BenchmarkResult { name: w.name.to_string(), counts: OutcomeCounts::default() })
        .collect();
    let mut by_category: BTreeMap<Category, OutcomeCounts> = BTreeMap::new();
    let mut by_category_kind: BTreeMap<(Category, StorageKind), OutcomeCounts> = BTreeMap::new();
    let mut scatter = Vec::new();
    let mut eligible_bits = 0;
    let mut quarantined = Vec::new();
    let mut prune_totals: Option<PruneDispositions> = None;
    for out in &outputs {
        if let Some(p) = &out.prune {
            prune_totals.get_or_insert_with(PruneDispositions::default).merge(p);
        }
        for rec in &out.records {
            benchmarks[out.bench].counts.add(rec.outcome);
            by_category.entry(rec.category).or_default().add(rec.outcome);
            by_category_kind.entry((rec.category, rec.kind)).or_default().add(rec.outcome);
        }
        for f in &out.faults {
            quarantined.push(CampaignQuarantine {
                benchmark: out.bench,
                start_point: out.start_point,
                trial: f.index,
                spec: f.spec,
                panic_msg: f.panic_msg.clone(),
            });
        }
        scatter.push(out.scatter);
        // Same mask + same machine model ⇒ every task must count the same
        // eligible-bit population. A mismatch means the model diverged
        // between tasks (e.g. configuration-dependent state walk) and the
        // per-bit rates would be wrong — fail loudly, never keep one
        // arbitrary winner.
        assert!(
            eligible_bits == 0 || eligible_bits == out.eligible_bits,
            "eligible-bit count disagrees across campaign tasks: {} vs {} (benchmark {})",
            eligible_bits,
            out.eligible_bits,
            out.bench,
        );
        eligible_bits = out.eligible_bits;
    }
    scatter.sort_by(|a, b| {
        a.benchmark
            .cmp(&b.benchmark)
            .then(a.valid_instructions.total_cmp(&b.valid_instructions))
    });

    let result = CampaignResult {
        benchmarks,
        by_category,
        by_category_kind,
        scatter,
        eligible_bits,
        quarantined,
        prune: prune_totals,
    };

    if obs.sink.enabled() {
        for out in &outputs {
            let (bench, sp) = (out.bench as u64, out.start_point as u64);
            for (phase, ns) in [
                ("warmup", out.warmup_ns),
                ("prepare", out.prepare_ns),
                ("advance", out.advance_ns),
                ("monitor", out.monitor_ns),
            ] {
                obs.sink.emit(&Event::Phase {
                    benchmark: bench,
                    start_point: sp,
                    phase: phase.to_string(),
                    wall_ns: ns,
                });
            }
            // Trial numbers index the drawn plan (`specs`), so a
            // quarantined trial keeps its slot — it becomes a `Quarantine`
            // event — and every surviving trial's number is unchanged vs.
            // a run without the panic.
            let mut fault_iter = out.faults.iter().peekable();
            let mut classified = out.records.iter().zip(out.traces.iter());
            let mut deep_iter = out.deeps.iter();
            for (i, spec) in out.specs.iter().enumerate() {
                if fault_iter.peek().is_some_and(|f| f.index == i) {
                    let f = fault_iter.next().expect("peeked");
                    obs.sink.emit(&Event::Quarantine {
                        benchmark: bench,
                        start_point: sp,
                        trial: i as u64,
                        target: spec.target,
                        inject_cycle: spec.inject_cycle,
                        panic_msg: f.panic_msg.clone(),
                    });
                    continue;
                }
                let (rec, tr) = classified.next().expect("record per surviving spec");
                let (outcome, mode) = outcome_strings(rec.outcome);
                obs.sink.emit(&Event::Trial {
                    benchmark: bench,
                    start_point: sp,
                    trial: i as u64,
                    target: spec.target,
                    inject_cycle: rec.inject_cycle,
                    category: rec.category.label().to_string(),
                    kind: rec.kind.label().to_string(),
                    unit: rec.unit.map(|u| u.label().to_string()),
                    outcome: outcome.to_string(),
                    mode: mode.map(str::to_string),
                    detect_cycle: tr.detect_cycle,
                    divergence_cycle: tr.divergence_cycle,
                    diverged_unit: tr.diverged_unit.map(|u| u.label().to_string()),
                    valid_instructions: rec.valid_instructions as u64,
                });
                // Deep-traced campaigns follow each trial with its
                // divergence timeline (omitted when the trial never
                // diverged — an empty timeline carries no information).
                if let Some(d) = deep_iter.next() {
                    if !d.is_empty() {
                        obs.sink.emit(&Event::Propagation {
                            benchmark: bench,
                            start_point: sp,
                            trial: i as u64,
                            samples: d.to_labels(|b| UnitId::ALL[b].label().to_string()),
                        });
                    }
                }
            }
        }
        // The merged span tree rides in the event stream too (sorted by
        // path: deterministic at any thread count once wall clocks are
        // stripped).
        if let Some(profiler) = obs.spans {
            for ev in profiler.snapshot().events() {
                obs.sink.emit(&ev);
            }
        }
        let totals = result.totals();
        obs.sink.emit(&Event::CampaignEnd {
            trials: totals.total(),
            matched: totals.matched,
            gray: totals.gray,
            failed: totals.failed(),
            quarantined: result.quarantined.len() as u64,
            eligible_bits,
            wall_ns: campaign_t0.map(|t| t.elapsed().as_nanos() as u64).unwrap_or(0),
            prune: result.prune,
        });
        obs.sink.flush();
    }

    result
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_counts_bookkeeping() {
        let mut c = OutcomeCounts::default();
        c.add(Outcome::MicroArchMatch);
        c.add(Outcome::GrayArea);
        c.add(Outcome::Failure(FailureMode::Regfile));
        c.add(Outcome::Failure(FailureMode::Locked));
        assert_eq!(c.total(), 4);
        assert_eq!(c.failed(), 2);
        assert_eq!(c.sdc(), 1);
        assert_eq!(c.terminated(), 1);
        assert_eq!(c.failure(FailureMode::Regfile), 1);
        assert!((c.masked_fraction() - 0.25).abs() < 1e-12);
        assert!((c.benign_fraction() - 0.5).abs() < 1e-12);
        let mut d = OutcomeCounts::default();
        d.merge(&c);
        assert_eq!(d, c);
    }

    #[test]
    fn tiny_campaign_runs_end_to_end() {
        // One small benchmark, few trials: checks threading, aggregation,
        // and that masking dominates.
        let mut config = CampaignConfig::quick(3);
        config.start_points = 1;
        config.trials_per_start_point = 30;
        config.monitor_cycles = 1_500;
        config.scale = 1;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "gzip-like" || w.name == "twolf-like")
            .collect();
        let result = run_campaign_on(&config, &workloads);
        let totals = result.totals();
        assert_eq!(totals.total(), 60);
        assert_eq!(result.benchmarks.len(), 2);
        assert_eq!(result.scatter.len(), 2);
        assert!(result.eligible_bits > 40_000);
        assert!(
            totals.benign_fraction() > 0.5,
            "most faults must be benign: {totals:?}"
        );
        // Category attribution covered every trial.
        let cat_total: u64 = result.by_category.values().map(|c| c.total()).sum();
        assert_eq!(cat_total, 60);
    }

    #[test]
    fn observed_campaign_matches_unobserved_and_emits_events() {
        let mut config = CampaignConfig::quick(5);
        config.start_points = 1;
        config.trials_per_start_point = 12;
        config.monitor_cycles = 800;
        config.scale = 1;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "gzip-like")
            .collect();

        let plain = run_campaign_on(&config, &workloads);

        let sink = tfsim_obs::RingSink::new(10_000);
        let metrics = CampaignMetrics::new();
        let progress = Progress::new();
        let obs = CampaignObs {
            sink: &sink,
            metrics: Some(&metrics),
            progress: Some(&progress),
            spans: None,
        };
        let observed = run_campaign_observed(&config, &workloads, &obs);

        // Observation must not change science.
        assert_eq!(observed.totals(), plain.totals());
        assert_eq!(observed.eligible_bits, plain.eligible_bits);

        // Event stream: header, 4 phase events, 12 trials, footer.
        let events = sink.events();
        assert_eq!(events.len(), 1 + 4 + 12 + 1);
        assert!(matches!(events[0], Event::CampaignStart { seed: 5, .. }));
        let trials = events
            .iter()
            .filter(|e| matches!(e, Event::Trial { .. }))
            .count();
        assert_eq!(trials, 12);
        match events.last().unwrap() {
            Event::CampaignEnd { trials, matched, gray, failed, .. } => {
                let t = observed.totals();
                assert_eq!((*trials, *matched, *gray, *failed), (12, t.matched, t.gray, t.failed()));
            }
            other => panic!("expected campaign_end, got {other:?}"),
        }

        // Metrics and progress agree with the result.
        assert_eq!(metrics.trials(), 12);
        assert_eq!(metrics.failed(), observed.totals().failed());
        assert_eq!(progress.snapshot(), (1, 1));
        assert!(metrics.render().contains("trials"));
    }

    #[test]
    fn campaigns_are_reproducible() {
        let mut config = CampaignConfig::quick(11);
        config.start_points = 1;
        config.trials_per_start_point = 15;
        config.monitor_cycles = 800;
        config.scale = 1;
        config.threads = 2;
        let workloads: Vec<_> = tfsim_workloads::all()
            .into_iter()
            .filter(|w| w.name == "vpr-like")
            .collect();
        let a = run_campaign_on(&config, &workloads);
        let b = run_campaign_on(&config, &workloads);
        assert_eq!(a.totals(), b.totals());
    }
}
