//! The shared golden timeline: one fault-free pass per benchmark, viewed
//! by every start point.
//!
//! A campaign's start points sit `spacing` cycles apart and each needs the
//! golden run for `horizon` cycles after it, so neighbouring windows
//! overlap almost entirely (six default-scale windows cover 12,750 cycles
//! but span 61,500). The fault-free machine is deterministic and the
//! per-cycle fingerprint does not depend on where a pass started, so the
//! row for an absolute cycle is the same whichever window asks for it.
//! [`GoldenTimeline::build`] therefore steps and fingerprints the union
//! of the windows once, cloning a checkpoint as it passes each start
//! cycle, and [`GoldenTimeline::start_point`] turns a window into a
//! [`StartPoint`] that indexes the shared rows at an offset.
//!
//! A view is field-for-field what preparing that start point on its own
//! would produce (pinned against an independent per-window oracle by this
//! module's tests):
//!
//! * `instret` and the retire-record index are rebased to the checkpoint;
//! * the halt is reported only when it falls inside the window, and a
//!   window that starts after it sees the halted machine frozen;
//! * the valid-instruction counts are recomputed per window, not sliced:
//!   an instruction committing after the window's last cycle was never
//!   seen to commit by a single-window run, so it counts nowhere in that
//!   window, and the count at index `horizon` is always 0.
//!
//! A campaign pass also draws each start point's trial plan as it reaches
//! the start cycle and, unless the campaign runs on the ladder, answers the
//! plan's access questions (`crate::footprint`) with extended access
//! tracking on: one answer per trial, never an access history. Tracking
//! only observes — a tracked pass's rows, records, halt and checkpoints
//! equal an untracked pass's, and checkpoints leave the pass with tracking
//! off (both pinned below).

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use tfsim_arch::RetireRecord;
use tfsim_bitstate::{BitCount, CachedFingerprint, InjectionMask, UnitId, VisitState};
use tfsim_uarch::{FlowEvent, Pipeline, RetireEvent};

use crate::campaign::{draw_plan, CampaignConfig, Engine};
use crate::footprint::{Answer, CycleAgg, Questions};
use crate::trial::{StartPoint, TrialSpec};

/// One start point's checkpoint and where its window sits in the pass.
struct Window {
    /// Row of the checkpoint (cycles after the first start point).
    row: usize,
    /// The machine at the start cycle, flow log and access tracking off.
    checkpoint: Pipeline,
    /// Retire records before the checkpoint and by the window's end.
    records: Range<usize>,
    /// Eligible bits of the checkpoint under the campaign mask.
    bit_count: u64,
    /// The campaign's trial plan for this start point (empty outside a
    /// campaign pass).
    plan: Vec<TrialSpec>,
    /// The plan's access answers in the timeline's `answers` (empty when
    /// the pass did not track).
    answers: Range<usize>,
}

/// Per-cycle golden state over the union of a benchmark's windows.
///
/// Row `r` is the machine after `r` steps from the first start point; a
/// halted machine repeats its final row. Immutable once built, so one
/// `Arc` serves every start point and thread.
pub(crate) struct GoldenTimeline {
    fps: Vec<u128>,
    unit_fps: Vec<[u128; UnitId::COUNT]>,
    /// The machine's retirement count at each row (not rebased).
    instret: Vec<u64>,
    /// What the step into each row retired and flushed (row 0 and frozen
    /// rows: nothing).
    aggs: Vec<CycleAgg>,
    records: Vec<RetireRecord>,
    /// Row of the step that halted the machine, with the exit code.
    halted_at: Option<(u64, u64)>,
    /// `(fetch cycle, commit cycle)` of every instruction committing after
    /// the first checkpoint, in commit order.
    committed: Vec<(u64, u64)>,
    windows: Vec<Window>,
    horizon: u64,
    /// Every window's plan answers, window by window.
    answers: Vec<Option<Answer>>,
    /// Wall time the pass spent drawing plans and answering them.
    pub(crate) footprint_ns: u64,
}

/// Turns the flow log into committed `(fetch, commit)` spans as it is
/// drained, keeping only the in-flight fetches between drains.
struct FlowSpans {
    in_flight: HashMap<u64, u64>,
    committed: Vec<(u64, u64)>,
    /// Commits at or before this cycle count in no window.
    after: u64,
}

impl FlowSpans {
    fn drain(&mut self, golden: &mut Pipeline) {
        for ev in golden.take_flow_events() {
            match ev {
                FlowEvent::Fetch { seq, cycle } => {
                    self.in_flight.insert(seq, cycle);
                }
                FlowEvent::Commit { seq, cycle } => {
                    let fetch = self.in_flight.remove(&seq).unwrap_or(0);
                    if cycle > self.after {
                        self.committed.push((fetch, cycle));
                    }
                }
                FlowEvent::Squash { seq, .. } => {
                    self.in_flight.remove(&seq);
                }
            }
        }
        golden.enable_flow_log();
    }
}

/// The campaign a pass serves: its config and the benchmark's index, which
/// fix every start point's trial plan.
#[derive(Clone, Copy)]
pub(crate) struct PassPlans<'a> {
    pub(crate) config: &'a CampaignConfig,
    pub(crate) bench: usize,
}

impl GoldenTimeline {
    /// Runs the golden pass from `golden`, a pipeline warmed to the first
    /// start point with its flow log on since reset. `starts` are the
    /// start points' offsets from the first, non-decreasing and beginning
    /// at 0; every window runs `horizon` cycles.
    ///
    /// With `plans`, each start point's trial plan is drawn at its start
    /// cycle and, unless the campaign's engine is the ladder, the plan's
    /// access questions are answered during the pass.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run raises an exception.
    pub(crate) fn build(
        mut golden: Pipeline,
        starts: &[u64],
        horizon: u64,
        mask: InjectionMask,
        plans: Option<PassPlans<'_>>,
    ) -> GoldenTimeline {
        assert_eq!(starts.first(), Some(&0), "the first window starts the pass");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "start points must not descend"
        );
        let track = plans.is_some_and(|p| p.config.engine != Engine::Ladder);
        let rows = (starts[starts.len() - 1] + horizon + 1) as usize;
        let mut fps = Vec::with_capacity(rows);
        let mut unit_fps = Vec::with_capacity(rows);
        let mut instret = Vec::with_capacity(rows);
        let mut aggs = Vec::with_capacity(rows);
        let mut records = Vec::new();
        let mut halted_at = None;
        let mut flow = FlowSpans {
            in_flight: HashMap::new(),
            committed: Vec::new(),
            after: golden.cycles(),
        };
        let mut questions = Questions::default();
        let mut footprint_ns = 0u64;
        golden.set_access_tracking_extended(track);
        let mut windows: Vec<Window> = Vec::with_capacity(starts.len());
        let mut next_start = starts.iter().peekable();
        // The golden machine mutates only through `step()`, so unit stamps
        // are exact and unchanged predictor/cache arrays hash for free.
        let mut engine = CachedFingerprint::new();
        for row in 0..rows {
            if row > 0 && !golden.running() {
                // Frozen: a halted machine's state no longer changes.
                fps.push(fps[row - 1]);
                unit_fps.push(unit_fps[row - 1]);
                instret.push(instret[row - 1]);
                aggs.push(CycleAgg::default());
            } else {
                let mut agg = CycleAgg::default();
                if row > 0 {
                    let report = golden.step();
                    agg.pflush = report.protective_flush;
                    for ev in report.events {
                        match ev {
                            RetireEvent::Retired(r) => {
                                agg.retired += 1;
                                records.push(r);
                            }
                            RetireEvent::Halted { code } => {
                                halted_at.get_or_insert((row as u64, code));
                            }
                            RetireEvent::Exception(e) => {
                                panic!("golden run raised {e:?} at step {row}")
                            }
                        }
                    }
                    if track {
                        let t = Instant::now();
                        questions.drain(&mut golden, row as u64);
                        footprint_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                fps.push(engine.fingerprint(&mut golden));
                unit_fps.push(*engine.unit_hashes());
                instret.push(golden.instret());
                aggs.push(agg);
            }
            while next_start.next_if_eq(&&(row as u64)).is_some() {
                // Drain first so the checkpoint clone carries no log.
                flow.drain(&mut golden);
                let mut checkpoint = golden.clone();
                checkpoint.disable_flow_log();
                checkpoint.set_access_tracking_extended(false);
                let mut count = BitCount::new(mask);
                checkpoint.visit_state(&mut count);
                let t = Instant::now();
                let plan = plans.map_or_else(Vec::new, |p| {
                    draw_plan(p.config, count.count, p.bench, windows.len() as u32)
                });
                let first = questions.len();
                if track {
                    questions.ask(&mut checkpoint, mask, &plan, row as u64, horizon);
                }
                footprint_ns += t.elapsed().as_nanos() as u64;
                windows.push(Window {
                    row,
                    checkpoint,
                    records: records.len()..records.len(),
                    bit_count: count.count,
                    plan,
                    answers: first..questions.len(),
                });
            }
            for w in windows
                .iter_mut()
                .filter(|w| w.row + horizon as usize == row)
            {
                w.records.end = records.len();
            }
        }
        flow.drain(&mut golden);
        GoldenTimeline {
            fps,
            unit_fps,
            instret,
            aggs,
            records,
            halted_at,
            committed: flow.committed,
            windows,
            horizon,
            answers: questions.into_answers(),
            footprint_ns,
        }
    }

    /// The view of window `k` as a start point.
    pub(crate) fn start_point(self: &Arc<Self>, k: usize) -> StartPoint {
        let w = &self.windows[k];
        let halted_at = self.halted_at.and_then(|(row, code)| {
            let rel = row.checked_sub(w.row as u64)?;
            (rel > 0 && rel <= self.horizon).then_some((rel, code))
        });
        StartPoint {
            golden: Arc::clone(self),
            window: k,
            row: w.row,
            base_instret: self.instret[w.row],
            halted_at,
            valid_counts: self.valid_counts(w),
        }
    }

    /// Golden in-flight valid-instruction count per cycle of window `w`:
    /// for every instruction that commits inside the window, the cycles
    /// from its fetch (or the checkpoint) up to its commit (or the
    /// horizon, exclusive).
    fn valid_counts(&self, w: &Window) -> Vec<u32> {
        let h = self.horizon;
        let base = w.checkpoint.cycles();
        let first = self.committed.partition_point(|&(_, c)| c <= base);
        let last = self.committed.partition_point(|&(_, c)| c <= base + h);
        let mut delta = vec![0i64; h as usize + 2];
        for &(fetch, commit) in &self.committed[first..last] {
            let lo = fetch.saturating_sub(base);
            let hi = (commit - base).min(h);
            if lo < hi {
                delta[lo as usize] += 1;
                delta[hi as usize] -= 1;
            }
        }
        let mut running = 0i64;
        delta[..=h as usize]
            .iter()
            .map(|d| {
                running += d;
                running as u32
            })
            .collect()
    }
}

/// What a [`StartPoint`] reads from its timeline, rebased to its window.
impl StartPoint {
    /// The warmed machine at the start point.
    pub(crate) fn checkpoint(&self) -> &Pipeline {
        &self.golden.windows[self.window].checkpoint
    }

    /// Golden cycles after the checkpoint covered by this start point.
    pub(crate) fn horizon(&self) -> u64 {
        self.golden.horizon
    }

    /// Whole-machine golden fingerprint `cycle` steps after the checkpoint.
    pub(crate) fn fp(&self, cycle: u64) -> u128 {
        debug_assert!(cycle <= self.horizon());
        self.golden.fps[self.row + cycle as usize]
    }

    /// Per-unit golden subhashes `cycle` steps after the checkpoint.
    pub(crate) fn unit_fp(&self, cycle: u64) -> &[u128; UnitId::COUNT] {
        debug_assert!(cycle <= self.horizon());
        &self.golden.unit_fps[self.row + cycle as usize]
    }

    /// Golden retirements between the checkpoint and `cycle` steps later.
    pub(crate) fn instret_at(&self, cycle: u64) -> u64 {
        debug_assert!(cycle <= self.horizon());
        self.golden.instret[self.row + cycle as usize] - self.base_instret
    }

    /// The golden retirement trace of the window (index = commit number
    /// since the checkpoint).
    pub(crate) fn records(&self) -> &[RetireRecord] {
        &self.golden.records[self.golden.windows[self.window].records.clone()]
    }

    /// What the golden step into relative cycle `cycle` retired and
    /// flushed (nothing once the golden run has halted).
    pub(crate) fn agg(&self, cycle: u64) -> CycleAgg {
        debug_assert!(cycle <= self.horizon());
        self.golden.aggs[self.row + cycle as usize]
    }

    /// Number of eligible bits under the campaign mask.
    pub fn bit_count(&self) -> u64 {
        self.golden.windows[self.window].bit_count
    }

    /// The campaign's trial plan for this start point, drawn by the golden
    /// pass (empty outside a campaign).
    pub(crate) fn plan(&self) -> &[TrialSpec] {
        &self.golden.windows[self.window].plan
    }

    /// The pass's access answers for [`StartPoint::plan`], aligned with it,
    /// or `None` when the pass did not answer them (the ladder).
    pub(crate) fn plan_answers(&self) -> Option<&[Option<Answer>]> {
        let w = &self.golden.windows[self.window];
        (w.answers.len() == w.plan.len()).then(|| &self.golden.answers[w.answers.clone()])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_timeline, CampaignConfig, Engine};
    use crate::footprint::{resolve, Access, Footprint};
    use crate::trial::warm_pipeline;
    use tfsim_bitstate::fingerprint_of;
    use tfsim_isa::{Asm, Program, Reg};
    use tfsim_uarch::PipelineConfig;

    /// Independent oracle: a start point prepared the way it was before
    /// golden timelines were shared — one golden replay per window, with
    /// its own flow log and its own halt freeze.
    struct Oracle {
        fps: Vec<u128>,
        unit_fps: Vec<[u128; UnitId::COUNT]>,
        instret: Vec<u64>,
        records: Vec<RetireRecord>,
        halted_at: Option<(u64, u64)>,
        valid_counts: Vec<u32>,
    }

    fn oracle(warmed: &Pipeline, horizon: u64) -> Oracle {
        let mut golden = warmed.clone();
        let base_instret = golden.instret();
        let mut engine = CachedFingerprint::new();
        let mut o = Oracle {
            fps: vec![engine.fingerprint(&mut golden)],
            unit_fps: vec![*engine.unit_hashes()],
            instret: vec![0],
            records: Vec::new(),
            halted_at: None,
            valid_counts: vec![0; horizon as usize + 1],
        };
        for step in 1..=horizon {
            for ev in golden.step().events {
                match ev {
                    RetireEvent::Retired(r) => o.records.push(r),
                    RetireEvent::Halted { code } => {
                        o.halted_at.get_or_insert((step, code));
                    }
                    RetireEvent::Exception(e) => panic!("golden raised {e:?}"),
                }
            }
            o.fps.push(engine.fingerprint(&mut golden));
            o.unit_fps.push(*engine.unit_hashes());
            o.instret.push(golden.instret() - base_instret);
            if !golden.running() && o.halted_at.is_some() {
                while o.fps.len() <= horizon as usize {
                    o.fps.push(*o.fps.last().unwrap());
                    o.unit_fps.push(*o.unit_fps.last().unwrap());
                    o.instret.push(*o.instret.last().unwrap());
                }
                break;
            }
        }
        let base = warmed.cycles();
        // seq -> (fetch, end, committed)
        let mut spans: HashMap<u64, (u64, Option<u64>, bool)> = HashMap::new();
        for ev in golden.take_flow_events() {
            match ev {
                FlowEvent::Fetch { seq, cycle } => {
                    spans.entry(seq).or_insert((cycle, None, false)).0 = cycle;
                }
                FlowEvent::Commit { seq, cycle } => {
                    let e = spans.entry(seq).or_insert((0, None, false));
                    e.1 = Some(cycle);
                    e.2 = true;
                }
                FlowEvent::Squash { seq, cycle } => {
                    spans.entry(seq).or_insert((0, None, false)).1 = Some(cycle);
                }
            }
        }
        for (fetch, end, committed) in spans.into_values() {
            if !committed {
                continue;
            }
            let lo = fetch.saturating_sub(base);
            let hi = end.unwrap_or(u64::MAX).saturating_sub(base).min(horizon);
            for c in lo..hi {
                if let Some(slot) = o.valid_counts.get_mut(c as usize) {
                    *slot += 1;
                }
            }
        }
        o
    }

    /// Field-for-field: the timeline view, a from-scratch
    /// `StartPoint::prepare`, and the oracle agree.
    fn assert_view_matches(
        view: &StartPoint,
        warmed: &Pipeline,
        horizon: u64,
        mask: InjectionMask,
        what: &str,
    ) {
        let fresh = StartPoint::prepare(warmed, horizon, mask);
        let o = oracle(warmed, horizon);
        assert_eq!(view.horizon(), horizon, "{what}: horizon");
        for c in 0..=horizon {
            let i = c as usize;
            assert_eq!(view.fp(c), o.fps[i], "{what}: fps[{c}]");
            assert_eq!(view.fp(c), fresh.fp(c), "{what}: fps[{c}] vs prepare");
            assert_eq!(view.unit_fp(c), &o.unit_fps[i], "{what}: unit_fps[{c}]");
            assert_eq!(
                view.unit_fp(c),
                fresh.unit_fp(c),
                "{what}: unit_fps[{c}] vs prepare"
            );
            assert_eq!(view.instret_at(c), o.instret[i], "{what}: instret[{c}]");
            assert_eq!(
                view.instret_at(c),
                fresh.instret_at(c),
                "{what}: instret[{c}] vs prepare"
            );
            assert_eq!(view.valid_at(c), o.valid_counts[i], "{what}: valid_at({c})");
            assert_eq!(
                view.valid_at(c),
                fresh.valid_at(c),
                "{what}: valid_at({c}) vs prepare"
            );
        }
        assert_eq!(
            view.valid_at(horizon),
            0,
            "{what}: the horizon never counts"
        );
        assert_eq!(view.records(), &o.records[..], "{what}: records");
        assert_eq!(
            view.records(),
            fresh.records(),
            "{what}: records vs prepare"
        );
        assert_eq!(view.halted_at, o.halted_at, "{what}: halted_at");
        assert_eq!(
            view.halted_at, fresh.halted_at,
            "{what}: halted_at vs prepare"
        );
        let mut count = BitCount::new(mask);
        warmed.clone().visit_state(&mut count);
        assert_eq!(view.bit_count(), count.count, "{what}: bit_count");
        assert_eq!(
            view.bit_count(),
            fresh.bit_count(),
            "{what}: bit_count vs prepare"
        );
        assert_eq!(
            fingerprint_of(&mut view.checkpoint().clone()),
            fingerprint_of(&mut fresh.checkpoint().clone()),
            "{what}: checkpoint"
        );
        assert_eq!(
            view.checkpoint().cycles(),
            warmed.cycles(),
            "{what}: checkpoint cycle"
        );
    }

    #[test]
    fn campaign_views_equal_from_scratch_start_points() {
        let mut config = CampaignConfig::quick(1);
        config.scale = 1;
        config.start_points = 3;
        config.monitor_cycles = 1_000;
        for name in ["gzip-like", "mcf-like"] {
            let workload = tfsim_workloads::by_name(name).expect("workload");
            let golden = Arc::new(campaign_timeline(&config, 0, &workload));
            let program = workload.build(config.scale);
            for k in 0..config.start_points {
                let warm = config.warmup_cycles + config.spacing_cycles * k as u64;
                let warmed = warm_pipeline(&program, config.pipeline, warm);
                let view = golden.start_point(k as usize);
                assert_view_matches(
                    &view,
                    &warmed,
                    config.horizon(),
                    config.mask,
                    &format!("{name} sp{k}"),
                );
            }
        }
    }

    /// A small campaign shape: three overlapping windows per benchmark.
    fn small_campaign(pipeline: PipelineConfig, engine: Engine) -> CampaignConfig {
        let mut config = CampaignConfig::quick(9);
        config.scale = 1;
        config.start_points = 3;
        config.trials_per_start_point = 60;
        config.monitor_cycles = 1_000;
        config.pipeline = pipeline;
        config.engine = engine;
        config
    }

    /// Every planned trial's answer from the shared pass equals the first
    /// event after its injection on a stored per-window history, and the
    /// timeline's per-cycle aggregates equal that replay's.
    #[test]
    fn pass_answers_equal_the_stored_footprint() {
        for pipeline in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let config = small_campaign(pipeline, Engine::Pruned);
            for (bench, name) in ["gzip-like", "mcf-like"].into_iter().enumerate() {
                let workload = tfsim_workloads::by_name(name).expect("workload");
                let golden = Arc::new(campaign_timeline(&config, bench, &workload));
                let mut reads = 0;
                for k in 0..config.start_points as usize {
                    let sp = golden.start_point(k);
                    let what = format!("{name} sp{k} ({pipeline:?})");
                    let oracle = Footprint::build(&sp, true);
                    for c in 1..=sp.horizon() {
                        assert_eq!(sp.agg(c), oracle.percycle[c as usize], "{what}: agg({c})");
                    }
                    let targets: Vec<u64> = sp.plan().iter().map(|s| s.target).collect();
                    let spans = resolve(&mut sp.checkpoint().clone(), config.mask, &targets);
                    let answers = sp.plan_answers().expect("a tracked pass answers its plans");
                    assert_eq!(sp.plan().len(), config.trials_per_start_point as usize);
                    assert_eq!(answers.len(), sp.plan().len(), "{what}");
                    for ((spec, got), span) in sp.plan().iter().zip(answers).zip(spans) {
                        let want = oracle.answer(span, sp.checkpoint(), *spec, sp.horizon());
                        assert_eq!(*got, want, "{what}: {spec:?}");
                        reads += matches!(got.map(|a| a.access), Some(Access::Read(_))) as usize;
                    }
                    // The standalone path answers the same plan identically.
                    assert_eq!(sp.answer(config.mask, sp.plan()), answers, "{what}");
                }
                assert!(reads > 0, "{name}: some planned trial must be consumed");
            }
        }
    }

    /// Tracking only observes: a tracked pass's rows, records, halt, plans
    /// and checkpoints equal an untracked pass's, and no checkpoint leaves
    /// either pass with tracking on.
    #[test]
    fn tracked_pass_equals_untracked_pass() {
        for pipeline in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let workload = tfsim_workloads::by_name("gzip-like").expect("workload");
            let tracked =
                campaign_timeline(&small_campaign(pipeline, Engine::Pruned), 0, &workload);
            let plain = campaign_timeline(&small_campaign(pipeline, Engine::Ladder), 0, &workload);
            assert_eq!(tracked.fps, plain.fps, "fps");
            assert_eq!(tracked.unit_fps, plain.unit_fps, "unit_fps");
            assert_eq!(tracked.instret, plain.instret, "instret");
            assert_eq!(tracked.aggs, plain.aggs, "aggs");
            assert_eq!(tracked.records, plain.records, "records");
            assert_eq!(tracked.halted_at, plain.halted_at, "halted_at");
            assert_eq!(tracked.committed, plain.committed, "commit spans");
            assert!(plain.answers.is_empty(), "the ladder's pass must not track");
            assert_eq!(tracked.answers.len(), 3 * 60);
            assert_eq!(tracked.windows.len(), plain.windows.len());
            for (t, p) in tracked.windows.iter().zip(&plain.windows) {
                assert_eq!(t.plan, p.plan, "plans");
                assert_eq!((t.row, t.bit_count), (p.row, p.bit_count));
                assert!(!t.checkpoint.access_tracking(), "tracked checkpoint at row {}", t.row);
                assert!(!p.checkpoint.access_tracking());
                assert_eq!(
                    fingerprint_of(&mut t.checkpoint.clone()),
                    fingerprint_of(&mut p.checkpoint.clone()),
                    "checkpoint at row {}",
                    t.row
                );
            }
        }
    }

    /// A loop that exits well inside a few hundred cycles.
    fn short_program() -> Program {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R7, 150);
        let top = a.here_label();
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.li(Reg::A0, 3);
        a.callsys();
        Program::new("short", a)
    }

    #[test]
    fn views_around_the_halt_equal_from_scratch_start_points() {
        const WARM: u64 = 10;
        const HORIZON: u64 = 60;
        let mask = InjectionMask::LatchesAndRams;
        let p = short_program();
        let config = PipelineConfig::baseline();
        let (halt, code) = oracle(&warm_pipeline(&p, config, WARM), 5_000)
            .halted_at
            .expect("the short program halts");
        assert_eq!(code, 3);
        assert!(
            halt > 2 * HORIZON,
            "halt at {halt} is too early for the windows below"
        );
        // Wholly before the halt, straddling it (twice: start points may
        // coincide), starting exactly on it, and starting after it.
        let offsets = [0, halt - HORIZON / 2, halt - HORIZON / 2, halt, halt + 20];
        let golden = Arc::new(GoldenTimeline::build(
            warm_pipeline(&p, config, WARM),
            &offsets,
            HORIZON,
            mask,
            None,
        ));
        let halts: Vec<_> = (0..offsets.len())
            .map(|k| golden.start_point(k).halted_at)
            .collect();
        assert_eq!(
            halts,
            [
                None,
                Some((HORIZON / 2, code)),
                Some((HORIZON / 2, code)),
                None,
                None
            ]
        );
        for (k, &off) in offsets.iter().enumerate() {
            let warmed = warm_pipeline(&p, config, WARM + off);
            assert_view_matches(
                &golden.start_point(k),
                &warmed,
                HORIZON,
                mask,
                &format!("window {k}"),
            );
        }
    }
}
