//! Golden access answers: for each planned trial, the first golden access
//! to its flipped word after the injection cycle.
//!
//! The word-parallel (sliced) engine, the analytic masking pruner and the
//! analytic rider never read a word's whole golden access history. Each
//! asks one question per trial: *what is the first golden access to this
//! word strictly after `inject`, within the start point's window?* The
//! answer ([`Answer`]: the word's [`Span`] and its first [`Access`]) plus
//! the per-cycle retire aggregates the golden timeline stores
//! (`crate::golden`) is all they consume.
//!
//! Questions are answered while a golden machine runs with extended access
//! tracking on ([`Pipeline::set_access_tracking_extended`]): after every
//! step, [`Questions::drain`] matches the step's logged accesses against
//! the questions still pending on each word. A campaign asks its plans'
//! questions inside the benchmark's one golden pass
//! (`GoldenTimeline::build`); a standalone batch asks its own with one
//! tracked replay of its window ([`StartPoint::answer`]). Memory is one
//! answer per trial: no access history is ever stored.
//!
//! The extended tier covers every loggable structure: the core tier's
//! load/store queues, physical register file and miss handling registers,
//! plus the fetch queue, rename maps and free lists, scheduler entries,
//! reorder buffer and functional units. Core-tier words have identical
//! event histories in both tiers (the extended drain forwards to the core
//! one), so one extended answer serves the sliced engine, which still only
//! rides core-tier words, and the pruner.
//!
//! The extended tier obeys a deliberately weaker write contract: a
//! structure may under-claim a write by logging a read instead (the ROB's
//! `entry_mut` does), which can only demote an analytic disposition to a
//! simulated one — never the reverse. What would be unsound, and what the
//! `access_ordinals` pipeline tests rule out, is a tracked word changing
//! with no event at all.

use tfsim_bitstate::{
    Category, FieldMeta, InjectionMask, StateVisitor, StorageKind, UnitId, VisitState,
};
use tfsim_uarch::Pipeline;

use crate::trial::{StartPoint, TrialSpec};

/// Golden per-cycle aggregates needed by the analytic classifiers: exactly
/// what `classify` extracts from a `CycleReport` of a machine that replays
/// the golden run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct CycleAgg {
    /// Number of `RetireEvent::Retired` events this step.
    pub(crate) retired: u16,
    /// Whether the step performed a protective (watchdog/parity) flush.
    pub(crate) pflush: bool,
}

/// The first golden access to a trial's flipped word strictly after its
/// injection cycle, inside its start point's window. The flip lands in the
/// state *after* `inject` steps, so accesses during step `inject` itself
/// saw the pre-flip value; of several accesses within one cycle the first
/// wins, so a read-modify-write shows as a read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// No access in `(inject, horizon]`: the δ is never consumed.
    Never,
    /// First access is a content-independent full-word overwrite at this
    /// cycle (relative to the checkpoint).
    Write(u64),
    /// First access is a read at this cycle (relative to the checkpoint).
    Read(u64),
}

/// What the golden run says about one trial: where its flipped bit lives
/// and the first access to that word after the injection. A trial has no
/// answer (`None` where answers are listed) when its target is out of
/// range or outside the extended tier, or its injection falls past the
/// window; such a trial always simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Answer {
    pub(crate) span: Span,
    pub(crate) access: Access,
}

/// Marks the end of a chain of pending questions.
const NONE: u32 = u32::MAX;

/// One question, in absolute pass cycles.
struct Question {
    /// The checkpoint's cycle; answers are relative to it.
    base: u64,
    inject: u64,
    /// Last cycle of the window: later accesses do not answer.
    end: u64,
    /// The next question pending on the same word, or [`NONE`].
    next: u32,
}

/// "First access after" questions, answered as a tracked golden machine's
/// access log is drained step by step.
#[derive(Default)]
pub(crate) struct Questions {
    /// `first[unit][ord]`: a question pending on that word, heading a
    /// chain through [`Question::next`], or [`NONE`] (grown only as far as
    /// the highest word asked about).
    first: Vec<Vec<u32>>,
    asked: Vec<Question>,
    answers: Vec<Option<Answer>>,
    pending: usize,
}

impl Questions {
    /// Asks the questions of `specs` for a start point whose checkpoint
    /// `cpu` sits at pass cycle `base` with a `horizon`-cycle window. A
    /// question with no answer is settled on the spot. Answers come back in
    /// asking order.
    pub(crate) fn ask(
        &mut self,
        cpu: &mut Pipeline,
        mask: InjectionMask,
        specs: &[TrialSpec],
        base: u64,
        horizon: u64,
    ) {
        let targets: Vec<u64> = specs.iter().map(|s| s.target).collect();
        for (spec, span) in specs.iter().zip(resolve(cpu, mask, &targets)) {
            let span = span
                .filter(|s| s.unit.is_some_and(|u| cpu.access_tracked_extended(u, s.unit_ord)))
                .filter(|_| spec.inject_cycle <= horizon);
            self.ask_one(span, spec.inject_cycle, base, horizon);
        }
    }

    fn ask_one(&mut self, span: Option<Span>, inject_cycle: u64, base: u64, horizon: u64) {
        let id = self.asked.len() as u32;
        let mut question =
            Question { base, inject: base + inject_cycle, end: base + horizon, next: NONE };
        if let Some(span) = span {
            let unit = span.unit.expect("tracked words lie in a unit");
            if self.first.is_empty() {
                self.first = vec![Vec::new(); UnitId::COUNT];
            }
            let words = &mut self.first[unit.index()];
            if words.len() <= span.unit_ord as usize {
                words.resize(span.unit_ord as usize + 1, NONE);
            }
            question.next = std::mem::replace(&mut words[span.unit_ord as usize], id);
            self.pending += 1;
        }
        self.asked.push(question);
        self.answers.push(span.map(|span| Answer { span, access: Access::Never }));
    }

    /// Questions asked so far.
    pub(crate) fn len(&self) -> usize {
        self.answers.len()
    }

    /// Questions not yet settled by an access or by their window closing
    /// (they answer [`Access::Never`] unless a later drain answers them).
    pub(crate) fn pending(&self) -> usize {
        self.pending
    }

    /// Answers pending questions from the accesses `golden` logged in the
    /// step that brought it to pass cycle `now`, and empties its log.
    pub(crate) fn drain(&mut self, golden: &mut Pipeline, now: u64) {
        let Questions { first, asked, answers, pending } = self;
        golden.drain_accesses_extended(&mut |unit, ord, is_write| {
            let Some(head) = first.get_mut(unit.index()).and_then(|w| w.get_mut(ord as usize))
            else {
                return;
            };
            let (mut prev, mut id) = (NONE, *head);
            while id != NONE {
                let q = &asked[id as usize];
                let next = q.next;
                let settled = if now > q.end {
                    // The window closed without an access: `Never` stands.
                    true
                } else if now > q.inject {
                    let cycle = now - q.base;
                    if let Some(a) = answers[id as usize].as_mut() {
                        a.access = if is_write { Access::Write(cycle) } else { Access::Read(cycle) };
                    }
                    true
                } else {
                    false
                };
                if settled {
                    *pending -= 1;
                    match prev {
                        NONE => *head = next,
                        p => asked[p as usize].next = next,
                    }
                } else {
                    prev = id;
                }
                id = next;
            }
        });
    }

    /// The answers, in asking order.
    pub(crate) fn into_answers(self) -> Vec<Option<Answer>> {
        self.answers
    }
}

/// Where an eligible bit lives: enough to rebuild a `TrialRecord`'s site
/// attribution and to name the word a question is about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Span {
    /// First eligible-bit index of this field under the mask.
    pub(crate) start: u64,
    /// Field width in bits.
    pub(crate) width: u32,
    pub(crate) category: Category,
    pub(crate) kind: StorageKind,
    /// Enclosing fingerprint unit, if any.
    pub(crate) unit: Option<UnitId>,
    /// Visit-order field ordinal within the unit (what the drain callbacks
    /// report).
    pub(crate) unit_ord: u32,
}

/// Resolves sorted eligible-bit targets to their spans in one visit walk.
/// The within-unit ordinal counts *every* visited field (eligible or
/// not), matching the drain ordinal space — pinned by the
/// `access_ordinals` tests in the pipeline crate.
struct SpanCollector<'a> {
    mask: InjectionMask,
    pos: u64,
    unit: Option<UnitId>,
    ord: u32,
    targets: &'a [u64],
    /// Indices into `targets`, ascending by target.
    order: Vec<usize>,
    /// Position in `order` of the first target not yet resolved.
    next: usize,
    spans: Vec<Option<Span>>,
}

impl StateVisitor for SpanCollector<'_> {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if self.mask.eligible(meta) {
            let end = self.pos + width as u64;
            while let Some(&i) = self.order.get(self.next) {
                if self.targets[i] >= end {
                    break;
                }
                self.spans[i] = Some(Span {
                    start: self.pos,
                    width,
                    category: meta.category,
                    kind: meta.kind,
                    unit: self.unit,
                    unit_ord: self.ord,
                });
                self.next += 1;
            }
            self.pos = end;
        }
        self.ord += 1;
    }

    // The default `array` forwards entry-by-entry to `field`, which is
    // exactly the per-word granularity the access log uses. Do not
    // override.

    fn enter_unit(&mut self, unit: UnitId, _gen: u64) -> bool {
        self.unit = Some(unit);
        self.ord = 0;
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.unit = None;
    }
}

/// The span holding each eligible bit of `targets` under `mask` on `cpu`
/// (whose state the walk only reads), aligned with `targets`; `None` for a
/// target past the last eligible bit. One visit walk, O(targets) memory.
pub(crate) fn resolve(cpu: &mut Pipeline, mask: InjectionMask, targets: &[u64]) -> Vec<Option<Span>> {
    let mut order: Vec<usize> = (0..targets.len()).collect();
    order.sort_by_key(|&i| targets[i]);
    let mut c = SpanCollector {
        mask,
        pos: 0,
        unit: None,
        ord: 0,
        targets,
        order,
        next: 0,
        spans: vec![None; targets.len()],
    };
    cpu.visit_state(&mut c);
    c.spans
}

impl StartPoint {
    /// Answers `specs`' questions with one tracked replay of this start
    /// point's window from its checkpoint: what a standalone batch pays,
    /// where a campaign's plans are answered in the shared golden pass.
    /// The replay stops as soon as every question is answered.
    pub(crate) fn answer(&self, mask: InjectionMask, specs: &[TrialSpec]) -> Vec<Option<Answer>> {
        let mut golden = self.checkpoint().clone();
        let mut questions = Questions::default();
        questions.ask(&mut golden, mask, specs, 0, self.horizon());
        golden.set_access_tracking_extended(true);
        for step in 1..=self.horizon() {
            if questions.pending() == 0 || !golden.running() {
                break;
            }
            golden.step();
            questions.drain(&mut golden, step);
        }
        questions.into_answers()
    }
}

/// The first event strictly after the injection cycle, as
/// `(timeline_index, cycle, is_write)`, on a word's stored access history
/// (test oracle only: campaigns never store histories).
#[cfg(test)]
pub(crate) fn first_event_after(
    timeline: &[(u32, bool)],
    inject: u64,
) -> Option<(usize, u32, bool)> {
    let i = timeline.partition_point(|&(c, _)| (c as u64) <= inject);
    timeline.get(i).map(|&(c, w)| (i, c, w))
}

/// The stored access histories of one tracked replay of a start point's
/// window: the oracle the streamed answers are pinned against. Holding
/// one costs O(golden events) — about 7M events per default-scale window
/// in the extended tier — which is why nothing outside tests builds it.
#[cfg(test)]
#[derive(Debug)]
pub(crate) struct Footprint {
    /// `timelines[unit.index()][ord]` = `(cycle, is_write)` events for the
    /// word at visit ordinal `ord` of that unit, ascending by cycle, at
    /// most one event per cycle (the first access of a cycle wins).
    timelines: Vec<Vec<Vec<(u32, bool)>>>,
    /// Indexed by step; entry 0 is unused (the checkpoint itself).
    pub(crate) percycle: Vec<CycleAgg>,
}

#[cfg(test)]
impl Footprint {
    /// Replays the start point's window once with the core tier's (or,
    /// with `extended`, the extended tier's) access tracking on, stopping
    /// once the golden machine halts.
    pub(crate) fn build(sp: &StartPoint, extended: bool) -> Footprint {
        use tfsim_uarch::RetireEvent;
        let mut golden = sp.checkpoint().clone();
        if extended {
            golden.set_access_tracking_extended(true);
        } else {
            golden.set_access_tracking(true);
        }
        let mut fp = Footprint {
            timelines: vec![Vec::new(); UnitId::COUNT],
            percycle: vec![CycleAgg::default(); sp.horizon() as usize + 1],
        };
        for step in 1..=sp.horizon() {
            if !golden.running() {
                break;
            }
            let report = golden.step();
            let retired = report
                .events
                .iter()
                .filter(|e| matches!(e, RetireEvent::Retired(_)))
                .count() as u16;
            fp.percycle[step as usize] = CycleAgg { retired, pflush: report.protective_flush };
            let cycle = step as u32;
            let mut record = |unit: UnitId, ord: u32, is_write: bool| {
                let lanes = &mut fp.timelines[unit.index()];
                let ord = ord as usize;
                if lanes.len() <= ord {
                    lanes.resize_with(ord + 1, Vec::new);
                }
                let tl = &mut lanes[ord];
                if tl.last().is_none_or(|&(c, _)| c != cycle) {
                    tl.push((cycle, is_write));
                }
            };
            if extended {
                golden.drain_accesses_extended(&mut record);
            } else {
                golden.drain_accesses(&mut record);
            }
        }
        fp
    }

    /// The event timeline of one tracked word (empty when the word was
    /// never accessed in the golden window).
    pub(crate) fn timeline(&self, unit: UnitId, ord: u32) -> &[(u32, bool)] {
        self.timelines[unit.index()].get(ord as usize).map_or(&[], |v| v.as_slice())
    }

    /// What [`Questions`] must answer for `spec`: the first event after
    /// the injection on the target's extended-tier history.
    pub(crate) fn answer(
        &self,
        span: Option<Span>,
        cpu: &Pipeline,
        spec: TrialSpec,
        horizon: u64,
    ) -> Option<Answer> {
        let span = span?;
        let unit = span.unit?;
        if !cpu.access_tracked_extended(unit, span.unit_ord) || spec.inject_cycle > horizon {
            return None;
        }
        let access = match first_event_after(self.timeline(unit, span.unit_ord), spec.inject_cycle) {
            None => Access::Never,
            Some((_, c, true)) => Access::Write(c as u64),
            Some((_, c, false)) => Access::Read(c as u64),
        };
        Some(Answer { span, access })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::warm_pipeline;
    use tfsim_bitstate::Loggability;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    fn start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 4_000);
        let top = a.here_label();
        a.stq(Reg::R7, Reg::R1, 0);
        a.ldq(Reg::R6, Reg::R1, 0);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.halt();
        let p = tfsim_isa::Program::new("footprint-bed", a)
            .with_data(0x10_0000, vec![0u8; 64]);
        let warmed = warm_pipeline(&p, config, 200);
        StartPoint::prepare(&warmed, 1_000, InjectionMask::LatchesAndRams)
    }

    #[test]
    fn first_event_after_is_strictly_after_inject() {
        let tl = [(5u32, false), (9, true), (20, false)];
        assert_eq!(first_event_after(&tl, 0), Some((0, 5, false)));
        assert_eq!(first_event_after(&tl, 4), Some((0, 5, false)));
        assert_eq!(first_event_after(&tl, 5), Some((1, 9, true)));
        assert_eq!(first_event_after(&tl, 9), Some((2, 20, false)));
        assert_eq!(first_event_after(&tl, 20), None);
        assert_eq!(first_event_after(&[], 0), None);
    }

    #[test]
    fn resolve_maps_targets_to_spans_exhaustively() {
        let sp = start_point(PipelineConfig::baseline());
        // Every eligible bit resolves to a span containing it, in any
        // target order; the bit one past the end resolves to nothing.
        let bits = sp.bit_count();
        let mut targets: Vec<u64> = (0..bits).step_by(97).collect();
        targets.reverse();
        targets.push(bits);
        targets.push(0);
        let spans = resolve(&mut sp.checkpoint().clone(), InjectionMask::LatchesAndRams, &targets);
        assert_eq!(spans.len(), targets.len());
        for (&target, span) in targets.iter().zip(&spans) {
            match span {
                Some(s) => assert!(s.start <= target && target < s.start + s.width as u64),
                None => assert_eq!(target, bits, "in-range target {target} must resolve"),
            }
        }
        assert!(spans[targets.len() - 2].is_none());
    }

    #[test]
    fn extended_footprint_extends_the_core_one() {
        let sp = start_point(PipelineConfig::baseline());
        let core = Footprint::build(&sp, false);
        let ext = Footprint::build(&sp, true);

        // The per-cycle aggregates describe the same golden run: tracking
        // tier cannot change execution.
        assert_eq!(core.percycle, ext.percycle);

        for unit in UnitId::ALL {
            match unit.loggability() {
                Loggability::Core => {
                    // Core-tier units produce identical timelines in both
                    // tiers (the extended drain forwards to the core one).
                    let n = core.timelines[unit.index()].len();
                    assert!(n > 0, "{unit:?} never logged in the core tier");
                    assert_eq!(n, ext.timelines[unit.index()].len(), "{unit:?}");
                    for ord in 0..n as u32 {
                        assert_eq!(
                            core.timeline(unit, ord),
                            ext.timeline(unit, ord),
                            "{unit:?} ord {ord}"
                        );
                    }
                }
                Loggability::Extended => {
                    assert!(
                        core.timelines[unit.index()].is_empty(),
                        "{unit:?} must not be logged in the core tier"
                    );
                    assert!(
                        !ext.timelines[unit.index()].is_empty(),
                        "{unit:?} never logged in the extended tier"
                    );
                }
                Loggability::Unlogged | Loggability::Shadow => {
                    assert!(core.timelines[unit.index()].is_empty(), "{unit:?}");
                    assert!(ext.timelines[unit.index()].is_empty(), "{unit:?}");
                }
            }
        }
    }

    #[test]
    fn extended_tracking_covers_every_recorded_timeline() {
        let sp = start_point(PipelineConfig::protected());
        let ext = Footprint::build(&sp, true);
        // Any word with events must be claimed trackable by the extended
        // tier (the converse does not hold: a tracked word the run never
        // touches has an empty timeline).
        for unit in UnitId::ALL {
            for (ord, tl) in ext.timelines[unit.index()].iter().enumerate() {
                if !tl.is_empty() {
                    assert!(
                        sp.checkpoint().access_tracked_extended(unit, ord as u32),
                        "{unit:?} ord {ord} has events but is not extended-tracked"
                    );
                }
            }
        }
    }

    /// A standalone batch's streamed answers equal the oracle's, for every
    /// tracked word at several injection cycles, including repeats of one
    /// word and injections past the horizon.
    #[test]
    fn standalone_answers_equal_the_stored_histories() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sp = start_point(config);
            let mask = InjectionMask::LatchesAndRams;
            let oracle = Footprint::build(&sp, true);
            let specs: Vec<TrialSpec> = (0..sp.bit_count() + 1)
                .step_by(5)
                .enumerate()
                .flat_map(|(k, target)| {
                    [0, 3, 117, 640, 1_000, 1_001]
                        .into_iter()
                        .skip(k % 3)
                        .step_by(2)
                        .map(move |c| TrialSpec { target, inject_cycle: c })
                })
                .collect();
            let targets: Vec<u64> = specs.iter().map(|s| s.target).collect();
            let spans = resolve(&mut sp.checkpoint().clone(), mask, &targets);
            let answers = sp.answer(mask, &specs);
            assert_eq!(answers.len(), specs.len());
            let mut kinds = [0usize; 4];
            for ((spec, got), span) in specs.iter().zip(&answers).zip(spans) {
                let want = oracle.answer(span, sp.checkpoint(), *spec, sp.horizon());
                assert_eq!(*got, want, "{spec:?}");
                kinds[match got.map(|a| a.access) {
                    None => 0,
                    Some(Access::Never) => 1,
                    Some(Access::Write(_)) => 2,
                    Some(Access::Read(_)) => 3,
                }] += 1;
            }
            assert!(kinds.iter().all(|&n| n > 0), "every answer kind occurs: {kinds:?}");
        }
    }
}
