//! The golden access footprint: one tracked replay of the fault-free run,
//! shared by the word-parallel (sliced) engine and the analytic masking
//! pruner.
//!
//! A footprint records, for every word of the tracked RAM-like structures,
//! the cycles at which the golden run read or wrote that word, plus the
//! per-cycle retire aggregates the analytic classifiers consume. Two
//! tracking tiers exist:
//!
//! * [`Tier::Core`] — the audited kernel the sliced engine rides on:
//!   load/store queues, the physical register file, and the miss handling
//!   registers (`Pipeline::set_access_tracking`).
//! * [`Tier::Extended`] — everything the pipeline can log: core plus the
//!   fetch queue, rename maps and free lists, scheduler entries, and the
//!   reorder buffer (`Pipeline::set_access_tracking_extended`). Only the
//!   pruner uses this tier; the sliced engine's dispositions stay pinned
//!   to the core tier so its behaviour is bit-for-bit unchanged.
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
use tfsim_uarch::{Pipeline, RetireEvent};

use crate::trial::StartPoint;

/// Which access-tracking tier a footprint was built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// Load/store queues, register file, miss handling registers.
    Core,
    /// Core plus fetch queue, rename, scheduler, and reorder buffer.
    Extended,
}

impl Tier {
    /// Whether this tier tracks the word at `(unit, ord)` on `cpu`'s
    /// configuration.
    pub(crate) fn tracked(self, cpu: &Pipeline, unit: UnitId, ord: u32) -> bool {
        match self {
            Tier::Core => cpu.access_tracked(unit, ord),
            Tier::Extended => cpu.access_tracked_extended(unit, ord),
        }
    }
}

/// Golden per-cycle aggregates needed by the analytic classifiers: exactly
/// what `classify` extracts from a `CycleReport` of a machine that replays
/// the golden run.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CycleAgg {
    /// Number of `RetireEvent::Retired` events this step.
    pub(crate) retired: u16,
    /// Whether the step performed a protective (watchdog/parity) flush.
    pub(crate) pflush: bool,
}

/// One tracked replay of the golden run: per-word access timelines plus
/// per-cycle retire aggregates. Built lazily once per start point and
/// tier, and shared by every batch (and every thread — the data is
/// immutable after construction).
#[derive(Debug)]
pub(crate) struct Footprint {
    /// `timelines[unit.index()][ord]` = `(cycle, is_write)` events for the
    /// word at visit ordinal `ord` of that unit, ascending by cycle, at
    /// most one event per cycle (the first access of a cycle wins, so
    /// read-before-write inside one cycle shows as a read).
    timelines: Vec<Vec<Vec<(u32, bool)>>>,
    /// Indexed by step; entry 0 is unused (the checkpoint itself).
    pub(crate) percycle: Vec<CycleAgg>,
}

impl Footprint {
    /// Replays the golden run once with the tier's access tracking on.
    ///
    /// The walk covers exactly the start point's golden window: it stops
    /// once the golden machine halts (stepping a halted machine is a
    /// no-op and logs nothing).
    pub(crate) fn build(sp: &StartPoint, tier: Tier) -> Footprint {
        let horizon = sp.horizon();
        let mut golden = sp.checkpoint().clone();
        match tier {
            Tier::Core => golden.set_access_tracking(true),
            Tier::Extended => golden.set_access_tracking_extended(true),
        }
        let mut fp = Footprint {
            timelines: vec![Vec::new(); UnitId::COUNT],
            percycle: vec![CycleAgg::default(); sp.horizon() as usize + 1],
        };
        for step in 1..=horizon {
            if !golden.running() {
                break;
            }
            let report = golden.step();
            let retired = report
                .events
                .iter()
                .filter(|e| matches!(e, RetireEvent::Retired(_)))
                .count() as u16;
            fp.percycle[step as usize] =
                CycleAgg { retired, pflush: report.protective_flush };
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
            match tier {
                Tier::Core => golden.drain_accesses(&mut record),
                Tier::Extended => golden.drain_accesses_extended(&mut record),
            }
        }
        fp
    }

    /// The event timeline of one tracked word (empty when the word was
    /// never accessed in the golden window).
    pub(crate) fn timeline(&self, unit: UnitId, ord: u32) -> &[(u32, bool)] {
        self.timelines[unit.index()].get(ord as usize).map_or(&[], |v| v.as_slice())
    }
}

/// Where an eligible bit lives: enough to rebuild a `TrialRecord`'s site
/// attribution and to look the word up in the footprint.
#[derive(Debug, Clone, Copy)]
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
    /// report and the footprint is indexed by).
    pub(crate) unit_ord: u32,
}

/// Collects the eligible-bit spans of a machine in visit order. The
/// within-unit ordinal counts *every* visited field (eligible or not),
/// matching the drain ordinal space — pinned by the `access_ordinals`
/// tests in the pipeline crate.
struct SpanCollector {
    mask: InjectionMask,
    pos: u64,
    unit: Option<UnitId>,
    ord: u32,
    spans: Vec<Span>,
}

impl StateVisitor for SpanCollector {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if self.mask.eligible(meta) {
            self.spans.push(Span {
                start: self.pos,
                width,
                category: meta.category,
                kind: meta.kind,
                unit: self.unit,
                unit_ord: self.ord,
            });
            self.pos += width as u64;
        }
        self.ord += 1;
    }

    // The default `array` forwards entry-by-entry to `field`, which is
    // exactly the per-word granularity the footprint uses. Do not override.

    fn enter_unit(&mut self, unit: UnitId, _gen: u64) -> bool {
        self.unit = Some(unit);
        self.ord = 0;
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.unit = None;
    }
}

/// Maps eligible-bit indices to [`Span`]s by binary search. Rebuilt per
/// batch call (one checkpoint clone + one visit walk).
pub(crate) struct Resolver {
    spans: Vec<Span>,
}

impl Resolver {
    pub(crate) fn build(checkpoint: &Pipeline, mask: InjectionMask) -> Resolver {
        let mut probe = checkpoint.clone();
        let mut c = SpanCollector { mask, pos: 0, unit: None, ord: 0, spans: Vec::new() };
        probe.visit_state(&mut c);
        Resolver { spans: c.spans }
    }

    /// The span containing eligible bit `target`, or `None` when the
    /// target is out of range (the scalar path then reproduces the naive
    /// path's behaviour for such targets).
    pub(crate) fn resolve(&self, target: u64) -> Option<&Span> {
        let i = self.spans.partition_point(|s| s.start + s.width as u64 <= target);
        self.spans.get(i).filter(|s| s.start <= target)
    }

    /// All eligible spans in visit order (test diagnostics only).
    #[cfg(test)]
    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What the footprint says about a lane's faulted word.
pub(crate) enum Disposition {
    /// No access in `(inject, horizon]`: the δ is never consumed.
    Ride,
    /// First access is a content-independent overwrite at this cycle.
    Heal(u64),
    /// First access is a read: the fault is consumed — go scalar.
    Peel,
}

/// The first event strictly after the injection cycle, as
/// `(timeline_index, cycle, is_write)`. The flip lands in the state
/// *after* `inject` steps, so accesses during step `inject` itself saw the
/// pre-flip value.
pub(crate) fn first_event_after(
    timeline: &[(u32, bool)],
    inject: u64,
) -> Option<(usize, u32, bool)> {
    let i = timeline.partition_point(|&(c, _)| (c as u64) <= inject);
    timeline.get(i).map(|&(c, w)| (i, c, w))
}

pub(crate) fn disposition(timeline: &[(u32, bool)], inject: u64) -> Disposition {
    match first_event_after(timeline, inject) {
        Some((_, c, true)) => Disposition::Heal(c as u64),
        Some((_, _, false)) => Disposition::Peel,
        None => Disposition::Ride,
    }
}

impl StartPoint {
    /// The core-tier golden footprint, built on first use and shared by
    /// every subsequent sliced batch on this start point.
    pub(crate) fn golden_footprint(&self) -> &Footprint {
        self.footprint.get_or_init(|| Footprint::build(self, Tier::Core))
    }

    /// The extended-tier golden footprint used by the analytic pruner,
    /// built on first use.
    pub(crate) fn extended_footprint(&self) -> &Footprint {
        self.footprint_ext.get_or_init(|| Footprint::build(self, Tier::Extended))
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
    fn disposition_follows_the_first_event() {
        let tl = [(5u32, false), (9, true)];
        assert!(matches!(disposition(&tl, 0), Disposition::Peel));
        assert!(matches!(disposition(&tl, 5), Disposition::Heal(9)));
        assert!(matches!(disposition(&tl, 9), Disposition::Ride));
    }

    #[test]
    fn resolver_maps_targets_to_spans_exhaustively() {
        let sp = start_point(PipelineConfig::baseline());
        let r = Resolver::build(sp.checkpoint(), InjectionMask::LatchesAndRams);
        // Every eligible bit resolves to a span containing it; the bit one
        // past the end resolves to nothing.
        let bits = sp.bit_count();
        for target in (0..bits).step_by(97) {
            let s = r.resolve(target).expect("in-range target must resolve");
            assert!(s.start <= target && target < s.start + s.width as u64);
        }
        assert!(r.resolve(bits).is_none());
    }

    #[test]
    fn extended_footprint_extends_the_core_one() {
        let sp = start_point(PipelineConfig::baseline());
        let core = Footprint::build(&sp, Tier::Core);
        let ext = Footprint::build(&sp, Tier::Extended);

        // The per-cycle aggregates describe the same golden run: tracking
        // tier cannot change execution.
        assert_eq!(core.percycle.len(), ext.percycle.len());
        for (c, e) in core.percycle.iter().zip(ext.percycle.iter()) {
            assert_eq!((c.retired, c.pflush), (e.retired, e.pflush));
        }

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
    fn tier_tracked_agrees_with_recorded_timelines() {
        let sp = start_point(PipelineConfig::protected());
        let ext = Footprint::build(&sp, Tier::Extended);
        // Any word with events must be claimed trackable by its tier, for
        // both tiers (the converse does not hold: a tracked word the run
        // never touches has an empty timeline).
        for unit in UnitId::ALL {
            for (ord, tl) in ext.timelines[unit.index()].iter().enumerate() {
                if !tl.is_empty() {
                    assert!(
                        Tier::Extended.tracked(sp.checkpoint(), unit, ord as u32),
                        "{unit:?} ord {ord} has events but is not extended-tracked"
                    );
                }
            }
        }
    }
}
