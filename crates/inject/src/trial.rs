//! Start-point preparation and trial execution.
//!
//! Every engine classifies trials through one decision loop,
//! [`StartPoint::decide`], generic over where it observes the trial's
//! machine (a [`Machine`]). The execution paths that feed it:
//!
//! * [`StartPoint::run_trial`] — the naive reference: clone the checkpoint,
//!   replay fault-free to the injection cycle, flip, monitor with flat
//!   whole-machine fingerprints. Deliberately simple; the baseline every
//!   optimization is measured and verified against.
//! * [`StartPoint::run_trials`] — the snapshot ladder: trials of one start
//!   point are sorted by injection cycle and served from a single
//!   fault-free *walker* advanced monotonically through the injection
//!   window (one clone per trial instead of a replay per trial), and
//!   µArch-Match checks use a [`CachedFingerprint`] that only rehashes
//!   dirty units. Produces bit-identical [`TrialRecord`]s — pinned by a
//!   property test.
//! * The fast engine (`crate::pruner`) — the same batch driver, which
//!   first tries each site on the golden replay and simulates it on the
//!   ladder only when the golden run does not decide it.

use std::any::Any;
use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Once};
use std::time::Instant;

use tfsim_bitstate::{
    fingerprint_of, CachedFingerprint, Category, Fingerprint, FlipBit, InjectionMask, StorageKind,
    UnitId, VisitState,
};
use tfsim_isa::{decode, Program};
use tfsim_obs::{DeepTrace, PruneDispositions};
use tfsim_uarch::{ExcCode, Pipeline, RetireEvent};

use crate::footprint::Answer;
use crate::golden::GoldenTimeline;

/// The paper's seven failure modes (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FailureMode {
    /// Control-flow violation: an incorrect (but valid) instruction was
    /// fetched, executed, and committed (SDC).
    Ctrl,
    /// Non-speculative access to an invalid virtual page (SDC).
    Dtlb,
    /// An exception was generated (Terminated).
    Except,
    /// Processor redirected to an invalid virtual page (SDC).
    Itlb,
    /// Deadlock or livelock: 100 cycles without retirement (Terminated).
    Locked,
    /// Memory image inconsistent (SDC).
    Mem,
    /// Register file inconsistent (SDC).
    Regfile,
}

impl FailureMode {
    /// All modes, in the paper's Table 2 order.
    pub const ALL: [FailureMode; 7] = [
        FailureMode::Ctrl,
        FailureMode::Dtlb,
        FailureMode::Except,
        FailureMode::Itlb,
        FailureMode::Locked,
        FailureMode::Mem,
        FailureMode::Regfile,
    ];

    /// Position of this mode in [`FailureMode::ALL`] (the declaration
    /// order matches, so this is a cast, not a scan).
    pub fn index(self) -> usize {
        self as usize
    }

    /// Whether this mode is a `Terminated` outcome (vs. SDC).
    pub fn is_termination(self) -> bool {
        matches!(self, FailureMode::Except | FailureMode::Locked)
    }

    /// The paper's lowercase label.
    pub fn label(self) -> &'static str {
        match self {
            FailureMode::Ctrl => "ctrl",
            FailureMode::Dtlb => "dtlb",
            FailureMode::Except => "except",
            FailureMode::Itlb => "itlb",
            FailureMode::Locked => "locked",
            FailureMode::Mem => "mem",
            FailureMode::Regfile => "regfile",
        }
    }
}

/// Trial outcome (Section 2.2's four categories, with failures subdivided
/// by mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Outcome {
    /// Entire microarchitectural state matched the golden run.
    MicroArchMatch,
    /// Neither a state match nor a failure within the window.
    GrayArea,
    /// Architectural state diverged (SDC) or execution terminated.
    Failure(FailureMode),
}

impl Outcome {
    /// Whether the trial is a known failure (SDC or Terminated).
    pub fn is_failure(self) -> bool {
        matches!(self, Outcome::Failure(_))
    }
}

/// One planned trial for the batched [`StartPoint::run_trials`] path:
/// which eligible bit to flip and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSpec {
    /// Eligible-bit index under the campaign mask.
    pub target: u64,
    /// Injection cycle relative to the checkpoint.
    pub inject_cycle: u64,
}

/// One completed trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialRecord {
    /// The classification.
    pub outcome: Outcome,
    /// Category of the flipped bit.
    pub category: Category,
    /// Storage kind of the flipped bit.
    pub kind: StorageKind,
    /// Fingerprint unit the flipped bit landed in (the injection site),
    /// when the machine brackets that state into a unit.
    pub unit: Option<UnitId>,
    /// Cycle (relative to the checkpoint) at which the flip occurred.
    pub inject_cycle: u64,
    /// Number of in-flight instructions at injection time that eventually
    /// commit in the golden run (Figure 6's x-axis).
    pub valid_instructions: u32,
}

/// Telemetry gathered alongside a [`TrialRecord`] on the traced path.
///
/// Separate from the record so the untraced campaign path carries no extra
/// state: [`TrialRecord`] equality (pinned by the batched-vs-naive property
/// test) stays the scientific result, and this is pure observability.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrialTrace {
    /// Cycle (relative to the checkpoint) at which the outcome was decided:
    /// the failure-detection cycle, the re-convergence cycle for a µArch
    /// Match, or the end of the monitoring window for the Gray Area.
    pub detect_cycle: u64,
    /// First cycle at which a µArch-Match check observed the machine
    /// diverged from golden (sampled at the classifier's check cadence),
    /// if any check ran before the outcome was decided.
    pub divergence_cycle: Option<u64>,
    /// Unit whose fingerprint subhash differed from golden at
    /// `divergence_cycle` — where the fault was first architecturally
    /// visible. `None` when the divergence sits outside any unit.
    pub diverged_unit: Option<UnitId>,
}

/// The per-trial observer slots a classification writes into: `trace`
/// receives the decision and first-divergence cycles, `deep` the full
/// divergence timeline. Both are pure observability — a `None` slot costs
/// nothing and never alters the outcome.
#[derive(Default)]
pub(crate) struct TrialObservers<'a> {
    pub trace: Option<&'a mut TrialTrace>,
    pub deep: Option<&'a mut DeepTrace>,
}

/// A trial whose faulted run escaped the hardened model and unwound.
///
/// This is a *harness-level* record, kept strictly separate from the
/// paper's outcome taxonomy: a real latch upset never aborts the chip, so
/// a simulator panic is a bug in the model (a site the corrupted-state
/// hardening missed), not a ninth outcome. Quarantining the trial keeps
/// the census faithful while preserving everything needed to reproduce
/// the escape.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialFault {
    /// Position of the quarantined trial in the input spec slice.
    pub index: usize,
    /// The spec whose faulted run unwound (replay: same start point, same
    /// spec, same monitor window).
    pub spec: TrialSpec,
    /// The panic payload, when it carried a message.
    pub panic_msg: String,
}

/// Output of [`StartPoint::run_trials_traced`]: records plus per-trial
/// traces and the batch's phase timing.
#[derive(Debug, Clone)]
pub struct TracedBatch {
    /// One record per *classified* input spec, in input order (identical
    /// to what [`StartPoint::run_trials`] returns for the same specs).
    /// Quarantined trials (see `faults`) have no record.
    pub records: Vec<TrialRecord>,
    /// One trace per classified input spec, aligned with `records`.
    pub traces: Vec<TrialTrace>,
    /// Trials whose faulted run panicked, contained by the per-trial
    /// `catch_unwind` supervisor. Empty on every fault-free-harness run;
    /// `faults[k].index` names the input spec each one came from.
    pub faults: Vec<TrialFault>,
    /// One divergence timeline per classified input spec, aligned with
    /// `records`. Empty unless the batch ran in deep-trace mode.
    pub deeps: Vec<DeepTrace>,
    /// Wall-clock time spent advancing the fault-free walker.
    pub advance_ns: u64,
    /// Wall-clock time spent flipping, monitoring, and classifying.
    pub monitor_ns: u64,
    /// Portion of `monitor_ns` spent in the analytic rider, whether or not
    /// it decided the trial (fast engine; zero on the scalar ladder).
    pub ride_ns: u64,
    /// Portion of `monitor_ns` spent in scalar classification.
    pub classify_ns: u64,
    /// Wall-clock time spent answering the batch's access questions with a
    /// tracked replay of the window (standalone fast-engine batches; zero
    /// in campaigns, whose golden pass answers them). Not part of
    /// `monitor_ns`.
    pub footprint_ns: u64,
}

thread_local! {
    /// Set while a trial runs under the containment supervisor, so the
    /// process panic hook stays quiet for contained unwinds (the fault is
    /// captured in a [`TrialFault`]; stderr noise would interleave across
    /// worker threads).
    static CONTAINED: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses output for
/// contained trial panics and delegates everything else to the previous
/// hook unchanged.
fn install_containment_hook() {
    static HOOK: Once = Once::new();
    HOOK.call_once(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if !CONTAINED.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: Box<dyn Any + Send>) -> String {
    match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => match p.downcast::<&'static str>() {
            Ok(s) => (*s).to_string(),
            Err(_) => "non-string panic payload".to_string(),
        },
    }
}

/// A prepared start point: a warmed checkpoint plus everything the
/// classifier needs from the fault-free continuation.
///
/// A view into the golden timeline shared by every start point of a
/// benchmark: the per-cycle rows are read at an offset, never copied (see
/// `crate::golden`).
pub struct StartPoint {
    pub(crate) golden: Arc<GoldenTimeline>,
    /// Which of the timeline's windows this start point is.
    pub(crate) window: usize,
    /// Timeline row of the checkpoint.
    pub(crate) row: usize,
    /// The checkpoint's retirement count, subtracted from timeline rows.
    pub(crate) base_instret: u64,
    /// Cycle (steps after checkpoint) at which the golden run halted.
    pub(crate) halted_at: Option<(u64, u64)>, // (step, exit code)
    /// Golden in-flight valid-instruction count per cycle.
    pub(crate) valid_counts: Vec<u32>,
}

impl StartPoint {
    /// Prepares a start point from a *warmed* pipeline whose flow log has
    /// been enabled since reset. Runs the golden continuation for
    /// `horizon` cycles: a golden timeline with one window.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free continuation raises an exception.
    pub fn prepare(warmed: &Pipeline, horizon: u64, mask: InjectionMask) -> StartPoint {
        Arc::new(GoldenTimeline::build(warmed.clone(), &[0], horizon, mask, None)).start_point(0)
    }

    /// The golden valid-instruction count at a relative cycle.
    pub fn valid_at(&self, cycle: u64) -> u32 {
        self.valid_counts.get(cycle as usize).copied().unwrap_or(0)
    }

    /// Units whose subhash differs from the golden run at relative cycle
    /// `cycle`, given a trial machine's unit hashes (e.g. from the
    /// [`CachedFingerprint`] of a diverging µArch-Match check). First-
    /// divergence attribution for debugging and reporting.
    ///
    /// # Panics
    ///
    /// Panics if `cycle` is beyond the prepared horizon.
    pub fn diverging_units(&self, cycle: u64, units: &[u128; UnitId::COUNT]) -> Vec<UnitId> {
        let golden = self.unit_fp(cycle);
        UnitId::ALL
            .iter()
            .copied()
            .filter(|u| golden[u.index()] != units[u.index()])
            .collect()
    }

    /// Runs one trial: flip eligible bit number `target` at `inject_cycle`
    /// (relative to the checkpoint) and monitor for `monitor` cycles.
    ///
    /// This is the naive reference path: it replays fault-free from the
    /// checkpoint and hashes the whole machine at every µArch-Match check.
    /// Campaigns use the equivalent-but-fast [`StartPoint::run_trials`].
    pub fn run_trial(
        &self,
        mask: InjectionMask,
        target: u64,
        inject_cycle: u64,
        monitor: u64,
    ) -> TrialRecord {
        let mut cpu = self.checkpoint().clone();

        // Advance fault-free to the injection cycle.
        for _ in 0..inject_cycle {
            if !cpu.running() {
                break;
            }
            cpu.step();
        }

        self.classify(
            mask,
            cpu,
            TrialSpec { target, inject_cycle },
            monitor,
            false,
            TrialObservers::default(),
        )
    }

    /// Runs a batch of trials against this start point, equivalent to
    /// calling [`StartPoint::run_trial`] per spec (results are returned in
    /// input order) but without the per-trial fault-free replay:
    ///
    /// * Trials are processed in ascending `inject_cycle` order while one
    ///   *walker* clone of the checkpoint advances monotonically through
    ///   the injection window — each trial costs one `Pipeline::clone`
    ///   instead of an `inject_cycle`-step replay. Equivalence holds
    ///   because the walker is deterministic, stepping a halted machine is
    ///   a no-op, and cloning is exact.
    /// * µArch-Match checks use a fresh per-trial [`CachedFingerprint`]
    ///   (created after the flip, so the flip cannot stale the cache; the
    ///   flip itself can only land in injectable state, which lives in the
    ///   cycle-stamped units).
    pub fn run_trials(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> Vec<TrialRecord> {
        self.run_trials_core::<false>(mask, specs, None, monitor, None, false).0.records
    }

    /// [`StartPoint::run_trials`] with telemetry: additionally returns a
    /// [`TrialTrace`] per spec (detection cycle, first observed divergence
    /// and its unit) and the batch's advance/monitor wall-clock split.
    ///
    /// Records are identical to the untraced path; the traced walk only
    /// *observes* decisions the classifier already made, plus — for trials
    /// that fail or gray out without any µArch check having seen the
    /// divergence — one extra fingerprint walk at the decision state to
    /// attribute the divergence to a unit. That walk happens after the
    /// outcome is sealed, so it cannot perturb classification.
    pub fn run_trials_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> TracedBatch {
        self.run_trials_core::<true>(mask, specs, None, monitor, None, false).0
    }

    /// [`StartPoint::run_trials_traced`] in deep-trace mode: additionally
    /// fills [`TracedBatch::deeps`] with each trial's change-only
    /// divergence timeline — the set of diverged units sampled at every
    /// µArch check that ran, recovered from the hierarchical per-unit
    /// fingerprints rather than per-cycle state diffs.
    ///
    /// Records and traces are byte-identical to the plain traced path:
    /// deep sampling reads fingerprints the classifier computes anyway (or
    /// performs its own walks after the relevant decision), never touching
    /// the decision state.
    pub fn run_trials_deep_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> TracedBatch {
        self.run_trials_core::<true>(mask, specs, None, monitor, None, true).0
    }

    /// The one batch driver. `TRACED` is a compile-time switch: the
    /// `false` instantiation contains no timing calls and passes no trace
    /// slots, so the campaign hot path is the pre-telemetry machine code.
    ///
    /// `answers` selects the engine. `None` is the snapshot ladder: every
    /// trial is simulated. With the specs' access answers (aligned with
    /// them) each answered site is first tried analytically by
    /// [`StartPoint::ride`]; a site the golden run does not decide, an
    /// unanswered site, and the panic shim's site are simulated. The
    /// returned tally counts both kinds (every site simulates on the
    /// ladder).
    ///
    /// Every simulated trial's flip-and-monitor run executes under a
    /// `catch_unwind` supervisor: a panic out of the faulted model (a
    /// hardening escape) quarantines that one trial as a [`TrialFault`]
    /// and the batch continues. The fault-free walker is never touched by
    /// a contained unwind — the trial runs on a clone — so the surviving
    /// trials' records are bit-identical to a batch without the panic.
    ///
    /// `panic_shim` names an input spec index whose trial panics on
    /// purpose before classification (campaign test hook: exercises the
    /// quarantine machinery end-to-end without needing a real escape).
    ///
    /// `deep` (only meaningful with `TRACED`; the untraced instantiation
    /// constant-folds `TRACED && deep` to `false`, so its machine code is
    /// untouched) additionally records each trial's divergence timeline.
    pub(crate) fn run_trials_core<const TRACED: bool>(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        answers: Option<&[Option<Answer>]>,
        monitor: u64,
        panic_shim: Option<usize>,
        deep: bool,
    ) -> (TracedBatch, PruneDispositions) {
        let deep = TRACED && deep;
        debug_assert!(answers.is_none_or(|a| a.len() == specs.len()), "one answer per spec");
        install_containment_hook();
        let mut order: Vec<usize> = (0..specs.len()).collect();
        order.sort_by_key(|&i| specs[i].inject_cycle);

        let mut walker = self.checkpoint().clone();
        let mut walked = 0u64;
        let mut out: Vec<Option<TrialRecord>> = vec![None; specs.len()];
        let mut traces = vec![TrialTrace::default(); if TRACED { specs.len() } else { 0 }];
        let mut deeps = vec![DeepTrace::new(); if deep { specs.len() } else { 0 }];
        let mut faults = Vec::new();
        let mut dispo = PruneDispositions::default();
        let (mut advance_ns, mut ride_ns, mut classify_ns) = (0u64, 0u64, 0u64);
        for i in order {
            let spec = specs[i];
            let answer = answers.and_then(|a| a[i]).filter(|_| panic_shim != Some(i));
            if let Some(answer) = answer {
                let t0 = TRACED.then(Instant::now);
                let obs = TrialObservers {
                    trace: if TRACED { Some(&mut traces[i]) } else { None },
                    deep: if deep { Some(&mut deeps[i]) } else { None },
                };
                let rode = self.ride(answer, spec, monitor, obs);
                if let Some(t0) = t0 {
                    ride_ns += t0.elapsed().as_nanos() as u64;
                }
                if let Some(rec) = rode {
                    dispo.proved_dead += 1;
                    out[i] = Some(rec);
                    continue;
                }
            }
            dispo.simulated += 1;
            let t0 = TRACED.then(Instant::now);
            while walked < spec.inject_cycle && walker.running() {
                walker.step();
                walked += 1;
            }
            let t1 = TRACED.then(Instant::now);
            if let (Some(t0), Some(t1)) = (t0, t1) {
                advance_ns += t1.duration_since(t0).as_nanos() as u64;
            }
            let trace_slot = if TRACED { Some(&mut traces[i]) } else { None };
            let deep_slot = if deep { Some(&mut deeps[i]) } else { None };
            CONTAINED.with(|c| c.set(true));
            let classified = panic::catch_unwind(AssertUnwindSafe(|| {
                if panic_shim == Some(i) {
                    panic!(
                        "forced mid-trial panic (test shim, target {} cycle {})",
                        spec.target, spec.inject_cycle
                    );
                }
                self.classify(
                    mask,
                    walker.clone(),
                    spec,
                    monitor,
                    true,
                    TrialObservers { trace: trace_slot, deep: deep_slot },
                )
            }));
            CONTAINED.with(|c| c.set(false));
            match classified {
                Ok(rec) => out[i] = Some(rec),
                Err(payload) => {
                    faults.push(TrialFault { index: i, spec, panic_msg: panic_message(payload) })
                }
            }
            if let Some(t1) = t1 {
                classify_ns += t1.elapsed().as_nanos() as u64;
            }
        }
        // Quarantined trials have no record, trace, or deep timeline;
        // everything else stays in input order.
        faults.sort_by_key(|f| f.index);
        let mut records = Vec::with_capacity(specs.len());
        let mut kept_traces = Vec::with_capacity(traces.len());
        let mut kept_deeps = Vec::with_capacity(deeps.len());
        for (i, rec) in out.into_iter().enumerate() {
            if let Some(rec) = rec {
                records.push(rec);
                if TRACED {
                    kept_traces.push(traces[i]);
                }
                if deep {
                    kept_deeps.push(std::mem::take(&mut deeps[i]));
                }
            }
        }
        let batch = TracedBatch {
            records,
            traces: kept_traces,
            faults,
            deeps: kept_deeps,
            advance_ns,
            monitor_ns: ride_ns + classify_ns,
            ride_ns,
            classify_ns,
            footprint_ns: 0,
        };
        (batch, dispo)
    }

    /// Classifies a trial on a stepped machine: takes a machine already
    /// advanced fault-free to `spec.inject_cycle`, flips the bit, and runs
    /// the decision loop on it. With `cached_fp` the µArch-Match checks run
    /// on a [`CachedFingerprint`] (fast path); without, on flat
    /// [`fingerprint_of`] (reference path). Both hash definitions are
    /// identical by construction.
    ///
    /// With `obs.deep`, divergent µArch checks sample the full
    /// diverged-unit set from a *dedicated* incremental
    /// [`CachedFingerprint`], never the classifier's, whose suspect
    /// short-circuit feeds the journaled `diverged_unit` attribution and
    /// must stay byte-identical to the non-deep run.
    pub(crate) fn classify(
        &self,
        mask: InjectionMask,
        mut cpu: Pipeline,
        spec: TrialSpec,
        monitor: u64,
        cached_fp: bool,
        obs: TrialObservers<'_>,
    ) -> TrialRecord {
        let mut flip = FlipBit::new(mask, spec.target);
        cpu.visit_state(&mut flip);
        let hit = flip.flipped.expect("target bit within eligible range");
        let mut machine = Stepped {
            sp: self,
            base_instret: self.checkpoint().instret(),
            cpu,
            // Created after the flip: the caches start cold, so the flip
            // (which bypasses generation stamps) can never be hidden by a
            // stale entry. Deep sampling gets its own engine: it must never
            // touch the classifier's, and a flat walk per divergent check
            // would dominate the monitor loop on long-lived divergences.
            engine: cached_fp.then(CachedFingerprint::new),
            deep_engine: obs.deep.is_some().then(CachedFingerprint::new),
        };
        let outcome = self
            .decide(&mut machine, spec.inject_cycle, monitor, u64::MAX, obs)
            .expect("an unbounded walk always decides");
        self.record(outcome, spec.inject_cycle, hit.category, hit.kind, hit.unit)
    }

    /// A trial's record: its outcome plus the site and the golden
    /// valid-instruction count at injection.
    pub(crate) fn record(
        &self,
        outcome: Outcome,
        inject_cycle: u64,
        category: Category,
        kind: StorageKind,
        unit: Option<UnitId>,
    ) -> TrialRecord {
        TrialRecord {
            outcome,
            category,
            kind,
            unit,
            inject_cycle,
            valid_instructions: self.valid_at(inject_cycle),
        }
    }

    /// The paper's classifier, once for every engine: monitors `machine`
    /// from `inject_cycle` for up to `monitor` cycles and decides µArch
    /// Match, a failure mode, or the Gray Area (Sections 2.2 and 4.1).
    ///
    /// `last` bounds the steps the loop may take. A walk cut there before
    /// the window closes has not decided: it returns `None` and leaves the
    /// trace slot untouched (deep samples it pushed are the caller's to
    /// drop). With `last` at or past the window every walk decides.
    ///
    /// With `obs.trace`, the decision cycle and first observed divergence
    /// are recorded into it; with `obs.deep`, divergent µArch checks
    /// sample the diverged-unit set — densely just after injection, then
    /// at every eighth check. Observation never alters the outcome: all of
    /// it reads the machine or happens after the outcome is sealed.
    pub(crate) fn decide<M: Machine>(
        &self,
        machine: &mut M,
        inject_cycle: u64,
        monitor: u64,
        last: u64,
        obs: TrialObservers<'_>,
    ) -> Option<Outcome> {
        let TrialObservers { trace, mut deep } = obs;
        let traced = trace.is_some();

        // First divergence a µArch check observed: (cycle, unit).
        let mut divergence: Option<(u64, Option<UnitId>)> = None;
        let mut last_step = inject_cycle;

        let (outcome, decided_at) = 'decide: {
            // If the golden run halted before the injection point, the flip
            // landed in a halted machine: architecturally invisible.
            if !machine.running() {
                break 'decide (Outcome::MicroArchMatch, inject_cycle);
            }

            let mut matched_records = machine.instret() as usize;
            let mut last_retire_cycle = inject_cycle;
            let mut flushes_without_retire = 0u32;
            let horizon = self.horizon().min(inject_cycle + monitor);

            for step in (inject_cycle + 1)..=horizon.min(last) {
                last_step = step;
                let cycle = machine.step(step, &mut matched_records);
                if cycle.retired {
                    last_retire_cycle = step;
                    flushes_without_retire = 0;
                }
                if cycle.protective_flush {
                    // The timeout watchdog attempted a recovery: give it
                    // time to refill the pipeline before declaring deadlock
                    // — but a machine that keeps flushing without ever
                    // retiring is wedged beyond the watchdog's reach (the
                    // paper's store-buffer example).
                    flushes_without_retire += 1;
                    if flushes_without_retire >= LOCK_FLUSHES {
                        break 'decide (Outcome::Failure(FailureMode::Locked), step);
                    }
                    last_retire_cycle = step;
                }
                if let Some(outcome) = cycle.verdict {
                    break 'decide (outcome, step);
                }

                // Deadlock/livelock detection (Section 4.1: 100 cycles
                // without retirement).
                if machine.running() && step - last_retire_cycle >= LOCK_CYCLES {
                    break 'decide (Outcome::Failure(FailureMode::Locked), step);
                }

                // µArch Match: full-state fingerprint equality at the same
                // cycle with the same retirement count. Once equal, the two
                // deterministic machines stay equal, so sparse checking
                // after an initial dense window loses nothing.
                let dense = step - inject_cycle <= DENSE_WINDOW;
                if (dense || step % SPARSE_CHECK == 0)
                    && self.instret_at(step) == machine.instret()
                    && matched_records as u64 == machine.instret()
                {
                    if machine.matches(step) {
                        // A heal closes the divergence timeline (change-only
                        // push: a no-op unless divergence was ever sampled).
                        if let Some(d) = deep.as_deref_mut() {
                            d.push(step, 0);
                        }
                        break 'decide (Outcome::MicroArchMatch, step);
                    }
                    if traced && divergence.is_none() {
                        divergence = Some((step, machine.suspect()));
                    }
                    // Deep sample: which units hold faulty state right now
                    // — at every check in the dense window, then at every
                    // eighth check. Change-only encoding collapses repeats
                    // anyway, and the residency buckets the timeline feeds
                    // are far coarser than 64 cycles.
                    if let Some(d) = deep.as_deref_mut() {
                        if dense || step % DEEP_SAMPLE == 0 {
                            d.push(step, machine.diverged(step));
                        }
                    }
                }

                if !machine.running() {
                    break 'decide (Outcome::GrayArea, step);
                }
            }
            if last < horizon {
                return None;
            }
            (Outcome::GrayArea, last_step)
        };

        if outcome != Outcome::MicroArchMatch
            && ((traced && divergence.is_none()) || deep.is_some())
        {
            // The outcome was decided without any µArch check observing
            // the divergence (e.g. an architectural mismatch in the
            // retire stream): attribute it from the whole machine at the
            // decision state. Deep mode reuses the same observation to
            // close the timeline with the final diverged-unit set.
            let at = last_step.min(self.horizon());
            let (root_diverged, units) = machine.divergence(at);
            if traced && divergence.is_none() && root_diverged {
                divergence = Some((at, UnitId::from_mask(units).next()));
            }
            if let Some(d) = deep {
                d.push(at, units);
            }
        }
        if let Some(tr) = trace {
            tr.detect_cycle = decided_at;
            if let Some((cycle, unit)) = divergence {
                tr.divergence_cycle = Some(cycle);
                tr.diverged_unit = unit;
            }
        }
        Some(outcome)
    }

    /// How a halt retiring `matched` golden records with exit `code` is
    /// classified: correct only if the golden run also halts, with the
    /// same code, having retired exactly the same stream.
    pub(crate) fn halt_outcome(&self, code: u64, matched: usize) -> Outcome {
        match self.halted_at {
            Some((_, gcode)) if gcode == code && matched == self.records().len() => {
                Outcome::MicroArchMatch
            }
            _ => Outcome::Failure(FailureMode::Ctrl),
        }
    }
}

/// Three protective flushes without a retirement in between: locked.
const LOCK_FLUSHES: u32 = 3;
/// Cycles without retirement that declare deadlock (Section 4.1).
const LOCK_CYCLES: u64 = 100;
/// Cycles after injection in which every cycle is a µArch-Match check.
const DENSE_WINDOW: u64 = 64;
/// After the dense window, every `SPARSE_CHECK`-th cycle is a check.
const SPARSE_CHECK: u64 = 8;
/// After the dense window, deep sampling runs at every `DEEP_SAMPLE`-th
/// cycle (every eighth check).
const DEEP_SAMPLE: u64 = 64;

/// What one step of a trial's machine shows the decision loop.
pub(crate) struct Cycle {
    /// The step retired at least one instruction.
    pub(crate) retired: bool,
    /// The step performed a protective (watchdog/parity) flush.
    pub(crate) protective_flush: bool,
    /// The first retire-stream event of the step that decides the trial.
    pub(crate) verdict: Option<Outcome>,
}

/// Where [`StartPoint::decide`] observes a trial's machine. Two sources
/// implement it: [`Stepped`], a faulted [`Pipeline`] stepped cycle by
/// cycle, and the golden replay of the fast engine (`crate::pruner`),
/// whose machine provably follows the golden run with a latent δ.
pub(crate) trait Machine {
    /// Whether the machine is still running.
    fn running(&self) -> bool;
    /// Instructions retired since the checkpoint.
    fn instret(&self) -> u64;
    /// Advances the machine into relative cycle `step`, checking its
    /// retire stream against the golden records from index `matched`
    /// (advanced past every record that matched).
    fn step(&mut self, step: u64, matched: &mut usize) -> Cycle;
    /// Whether the whole machine equals the golden run at `step`.
    fn matches(&mut self, step: u64) -> bool;
    /// The unit the last failed [`Machine::matches`] localized.
    fn suspect(&self) -> Option<UnitId>;
    /// The units that differ from the golden run at `step`, as a
    /// [`UnitId::diverged_mask`].
    fn diverged(&mut self, step: u64) -> u16;
    /// Whether the whole machine differs from the golden run at `at`, and
    /// the units that do.
    fn divergence(&mut self, at: u64) -> (bool, u16);
}

/// A faulted pipeline, stepped: what [`StartPoint::classify`] observes.
struct Stepped<'a> {
    sp: &'a StartPoint,
    base_instret: u64,
    cpu: Pipeline,
    /// The µArch-Match engine; `None` hashes flat.
    engine: Option<CachedFingerprint>,
    /// Deep sampling's own engine, when deep tracing.
    deep_engine: Option<CachedFingerprint>,
}

impl Machine for Stepped<'_> {
    fn running(&self) -> bool {
        self.cpu.running()
    }

    fn instret(&self) -> u64 {
        self.cpu.instret() - self.base_instret
    }

    fn step(&mut self, _step: u64, matched: &mut usize) -> Cycle {
        let report = self.cpu.step();
        let verdict = report.events.into_iter().find_map(|ev| match ev {
            RetireEvent::Retired(rec) => match self.sp.records().get(*matched) {
                Some(g) => {
                    // Architectural-state comparison. The record's
                    // `pc`/`raw` fields (and the next_pc of non-branches,
                    // which is pc+4 by wiring) are ROB metadata, not
                    // architectural state: flips there leave execution
                    // untouched. The checker compares the resolved flow of
                    // control transfers, register writes, and stores — any
                    // wrong-instruction commit diverges in those.
                    if decode(g.raw).is_control() && rec.next_pc != g.next_pc {
                        Some(Outcome::Failure(FailureMode::Ctrl))
                    } else if rec.dst != g.dst {
                        Some(Outcome::Failure(FailureMode::Regfile))
                    } else if rec.store != g.store {
                        Some(Outcome::Failure(FailureMode::Mem))
                    } else {
                        *matched += 1;
                        None
                    }
                }
                // The injected machine ran ahead of the golden horizon;
                // nothing left to verify.
                None => Some(Outcome::GrayArea),
            },
            RetireEvent::Halted { code } => Some(self.sp.halt_outcome(code, *matched)),
            RetireEvent::Exception(e) => Some(Outcome::Failure(match e {
                ExcCode::Itlb => FailureMode::Itlb,
                ExcCode::Dtlb => FailureMode::Dtlb,
                _ => FailureMode::Except,
            })),
        });
        Cycle { retired: report.retired > 0, protective_flush: report.protective_flush, verdict }
    }

    fn matches(&mut self, step: u64) -> bool {
        match self.engine.as_mut() {
            // Fast path: per-unit comparison against the golden row,
            // short-circuiting on the unit a latent fault keeps diverged.
            Some(e) => e.matches(&mut self.cpu, self.sp.fp(step), self.sp.unit_fp(step)),
            None => fingerprint_of(&mut self.cpu) == self.sp.fp(step),
        }
    }

    fn suspect(&self) -> Option<UnitId> {
        // The check already localized the mismatch while short-circuiting:
        // reading the suspect is free.
        self.engine.as_ref().and_then(|e| e.suspect())
    }

    fn diverged(&mut self, step: u64) -> u16 {
        let e = self.deep_engine.as_mut().expect("deep sampling engine");
        e.fingerprint(&mut self.cpu);
        UnitId::diverged_mask(e.unit_hashes(), self.sp.unit_fp(step))
    }

    fn divergence(&mut self, at: u64) -> (bool, u16) {
        // One hierarchical walk, after the outcome is sealed.
        let mut fp = Fingerprint::new();
        self.cpu.visit_state(&mut fp);
        (fp.value() != self.sp.fp(at), UnitId::diverged_mask(fp.unit_hashes(), self.sp.unit_fp(at)))
    }
}

/// Warm-up helper: builds a flow-logged pipeline, runs it `cycles`, and
/// returns it (TLBs preloaded from a fault-free functional run).
pub(crate) fn warm_pipeline(
    program: &Program,
    config: tfsim_uarch::PipelineConfig,
    cycles: u64,
) -> Pipeline {
    let mut probe = tfsim_arch::FuncSim::new(program);
    probe.run(50_000_000);
    let mut cpu = Pipeline::new(program, config);
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    cpu.enable_flow_log();
    for _ in 0..cycles {
        if !cpu.running() {
            break;
        }
        cpu.step();
    }
    cpu
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    fn start_point() -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        // A long-running loop with stores and branches.
        a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 60_000);
        a.li(Reg::R9, 0);
        let top = a.here_label();
        a.mulq_i(Reg::R10, 33, Reg::R10);
        a.addq_i(Reg::R10, 7, Reg::R10);
        a.srl_i(Reg::R10, 20, Reg::R4);
        a.and_i(Reg::R4, 0xf8, Reg::R5);
        a.addq(Reg::R1, Reg::R5, Reg::R5);
        a.stq(Reg::R4, Reg::R5, 0);
        a.ldq(Reg::R6, Reg::R5, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let p = tfsim_isa::Program::new("trial-bed", a).with_data(0x10_0000, vec![0u8; 256]);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 500);
        StartPoint::prepare(&warmed, 3_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn golden_precompute_is_sane() {
        let sp = start_point();
        assert!(sp.bit_count() > 40_000, "bit count {}", sp.bit_count());
        assert!(sp.records().len() > 1_000);
        assert!(sp.halted_at.is_none(), "workload must outlast the horizon");
        assert!(sp.valid_at(100) > 0, "pipeline should hold valid instructions");
        assert!(sp.valid_at(100) <= 132);
    }

    #[test]
    fn no_flip_trial_would_match() {
        // Sanity for the comparison machinery: run a trial whose flip hits
        // a bit and immediately flips it back by running a second trial on
        // the same target — instead, verify a masked-dominated sample.
        let sp = start_point();
        let mut masked = 0;
        let mut failures = 0;
        for t in 0..40 {
            let target = (t * 1_123) % sp.bit_count();
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, 10 + t, 2_000);
            match rec.outcome {
                Outcome::MicroArchMatch => masked += 1,
                Outcome::Failure(_) => failures += 1,
                Outcome::GrayArea => {}
            }
        }
        assert!(masked > failures, "masking should dominate: {masked} vs {failures}");
        assert!(masked >= 20, "most single-bit flips are benign: {masked}/40");
    }

    #[test]
    fn trials_are_deterministic() {
        let sp = start_point();
        let a = sp.run_trial(InjectionMask::LatchesAndRams, 12_345, 25, 2_000);
        let b = sp.run_trial(InjectionMask::LatchesAndRams, 12_345, 25, 2_000);
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.category, b.category);
    }

    /// A workload short enough to halt well inside the monitoring horizon.
    fn halting_start_point() -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R7, 40);
        let top = a.here_label();
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.li(Reg::A0, 0);
        a.callsys();
        let p = tfsim_isa::Program::new("short", a);
        let warmed = warm_pipeline(&p, PipelineConfig::baseline(), 10);
        StartPoint::prepare(&warmed, 2_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn zero_monitor_window_is_provably_gray_area() {
        // With no cycles to observe, the classifier can neither match
        // state nor detect a failure, whatever bit is hit: the definition
        // of the Gray Area (Section 2.2).
        let sp = start_point();
        for target in [0, 997, 40_001] {
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, 5, 0);
            assert_eq!(rec.outcome, Outcome::GrayArea, "target {target}");
        }
    }

    #[test]
    fn flip_after_golden_halt_is_provably_micro_arch_match() {
        // A fault injected into a machine that already halted cannot
        // change any architecturally visible behaviour.
        let sp = halting_start_point();
        let (halt_step, code) = sp.halted_at.expect("short workload must halt in horizon");
        assert_eq!(code, 0);
        for target in [3, 1_234, 20_011] {
            let rec =
                sp.run_trial(InjectionMask::LatchesAndRams, target, halt_step + 50, 500);
            assert_eq!(rec.outcome, Outcome::MicroArchMatch, "target {target}");
        }
    }

    #[test]
    fn deterministic_sweep_reaches_every_outcome_class() {
        // A spaced sweep over eligible bits must surface all four of the
        // paper's outcome classes: µArch Match, Gray Area, at least one
        // SDC mode, and at least one Terminated mode. Fully deterministic,
        // so a classifier regression shows up as a stable diff here.
        let sp = start_point();
        let mut matched = 0u32;
        let mut gray = 0u32;
        let mut sdc = 0u32;
        let mut terminated = 0u32;
        for t in 0..120u64 {
            let target = (t * 40_127) % sp.bit_count();
            let rec = sp.run_trial(InjectionMask::LatchesAndRams, target, t % 60, 1_500);
            match rec.outcome {
                Outcome::MicroArchMatch => matched += 1,
                Outcome::GrayArea => gray += 1,
                Outcome::Failure(m) if m.is_termination() => terminated += 1,
                Outcome::Failure(_) => sdc += 1,
            }
        }
        assert!(matched > 0, "no µArch Match in sweep");
        assert!(gray > 0, "no Gray Area in sweep");
        assert!(sdc > 0, "no SDC failure in sweep");
        assert!(terminated > 0, "no Terminated failure in sweep");
        // The paper's headline result at pipeline level: most flips mask.
        assert!(matched >= 60, "masking should dominate: {matched}/120");
    }

    #[test]
    fn batched_trials_match_the_naive_path() {
        // The snapshot ladder must reproduce run_trial record-for-record,
        // including unsorted plans, duplicate injection cycles, and cycles
        // at the window edges.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..24u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: [40, 3, 117, 3, 0, 249, 60, 117][t as usize % 8] + (t / 8),
            })
            .collect();
        let batched = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_200);
        assert_eq!(batched.len(), specs.len());
        for (i, spec) in specs.iter().enumerate() {
            let naive =
                sp.run_trial(InjectionMask::LatchesAndRams, spec.target, spec.inject_cycle, 1_200);
            assert_eq!(batched[i], naive, "spec {i} ({spec:?}) diverged");
        }
    }

    #[test]
    fn batched_trials_handle_a_halting_golden_run() {
        // Injection cycles past the golden halt: the walker parks on the
        // halted machine and every such trial is a µArch Match, exactly as
        // the naive path reports.
        let sp = halting_start_point();
        let (halt_step, _) = sp.halted_at.expect("short workload halts");
        let specs: Vec<TrialSpec> = (0..8u64)
            .map(|t| TrialSpec { target: 1_000 + t * 777, inject_cycle: halt_step + 20 + t })
            .collect();
        let batched = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 400);
        for (i, spec) in specs.iter().enumerate() {
            assert_eq!(batched[i].outcome, Outcome::MicroArchMatch);
            let naive =
                sp.run_trial(InjectionMask::LatchesAndRams, spec.target, spec.inject_cycle, 400);
            assert_eq!(batched[i], naive, "spec {i} diverged");
        }
    }

    #[test]
    fn traced_batch_matches_untraced_records() {
        // The traced path must be pure observation: identical records, and
        // traces that are consistent with them.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..20u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let plain = sp.run_trials(InjectionMask::LatchesAndRams, &specs, 1_500);
        let traced = sp.run_trials_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        assert_eq!(traced.records, plain, "tracing must not change classification");
        assert_eq!(traced.traces.len(), specs.len());
        assert!(traced.advance_ns > 0 || traced.monitor_ns > 0, "timing was captured");
        for (rec, tr) in traced.records.iter().zip(traced.traces.iter()) {
            assert!(
                tr.detect_cycle >= rec.inject_cycle,
                "detection cannot precede injection: {tr:?} vs {rec:?}"
            );
            if let Some(div) = tr.divergence_cycle {
                assert!(div > rec.inject_cycle, "divergence is observed after the flip");
                assert!(div <= tr.detect_cycle, "divergence observed at or before decision");
            }
            match rec.outcome {
                // A failure means the machine diverged; the traced path
                // must have attributed it (divergence cycle known, though
                // the unit may be None for stray state).
                Outcome::Failure(_) => assert!(
                    tr.divergence_cycle.is_some(),
                    "failure without divergence attribution: {rec:?} {tr:?}"
                ),
                Outcome::MicroArchMatch => {}
                Outcome::GrayArea => {}
            }
        }
        // The sweep is wide enough that at least one trial names a unit.
        assert!(
            traced.traces.iter().any(|t| t.diverged_unit.is_some()),
            "no trial attributed a divergence to a unit"
        );
        // Injection sites are attributed too (the machine brackets all
        // injectable state into units).
        assert!(traced.records.iter().all(|r| r.unit.is_some()));
    }

    #[test]
    fn deep_traced_batch_is_pure_observation() {
        // Deep mode fills divergence timelines without changing a byte of
        // the records or traces the plain traced path produces.
        let sp = start_point();
        let specs: Vec<TrialSpec> = (0..20u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let traced = sp.run_trials_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        let deep = sp.run_trials_deep_traced(InjectionMask::LatchesAndRams, &specs, 1_500);
        assert_eq!(deep.records, traced.records, "deep tracing must not change classification");
        assert_eq!(deep.traces, traced.traces, "deep tracing must not change attribution");
        assert!(traced.deeps.is_empty(), "plain traced path records no timelines");
        assert_eq!(deep.deeps.len(), specs.len());
        assert!(deep.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
        for (tr, d) in deep.traces.iter().zip(deep.deeps.iter()) {
            let samples = d.samples();
            // Timelines are strictly cycle-ordered and change-only.
            for w in samples.windows(2) {
                assert!(w[0].0 < w[1].0, "timeline out of order: {samples:?}");
                assert_ne!(w[0].1, w[1].1, "timeline not change-only: {samples:?}");
            }
            if let Some(&(first, mask)) = samples.first() {
                assert!(mask != 0, "a timeline opens with a diverged set");
                // A non-empty timeline means a fingerprint diverged, which
                // the trace must have attributed no later than the sample.
                let dc = tr.divergence_cycle.expect("timeline without attributed divergence");
                assert!(dc <= first, "deep sample before divergence: {tr:?} {samples:?}");
            }
        }
    }

    #[test]
    fn diverging_units_name_the_faulty_subtree() {
        let sp = start_point();
        // Walk a fault-free clone to some cycle: no unit diverges.
        let k = 37u64;
        let mut cpu = sp.checkpoint().clone();
        for _ in 0..k {
            cpu.step();
        }
        let mut engine = CachedFingerprint::new();
        let fp = engine.fingerprint(&mut cpu);
        assert_eq!(fp, sp.fp(k), "fault-free clone must match golden");
        assert!(sp.diverging_units(k, engine.unit_hashes()).is_empty());

        // Flip a bit: the root diverges and at least one unit is named.
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 12_345);
        cpu.visit_state(&mut flip);
        let mut fresh = CachedFingerprint::new();
        let fp = fresh.fingerprint(&mut cpu);
        assert_ne!(fp, sp.fp(k));
        let diverged = sp.diverging_units(k, fresh.unit_hashes());
        assert!(!diverged.is_empty(), "a flipped machine must name a diverging unit");
    }

    #[test]
    fn failure_mode_index_matches_table_order() {
        for (i, m) in FailureMode::ALL.iter().enumerate() {
            assert_eq!(m.index(), i, "{m:?} out of place in FailureMode::ALL");
        }
    }

    #[test]
    fn failure_mode_classification_properties() {
        assert!(FailureMode::Locked.is_termination());
        assert!(FailureMode::Except.is_termination());
        for m in [FailureMode::Regfile, FailureMode::Mem, FailureMode::Ctrl, FailureMode::Itlb, FailureMode::Dtlb] {
            assert!(!m.is_termination(), "{m:?} is SDC");
        }
        assert_eq!(FailureMode::ALL.len(), 7);
    }
}
