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

use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

use tfsim_arch::RetireRecord;
use tfsim_bitstate::{BitCount, CachedFingerprint, InjectionMask, UnitId, VisitState};
use tfsim_uarch::{FlowEvent, Pipeline, RetireEvent};

use crate::trial::StartPoint;

/// One start point's checkpoint and where its window sits in the pass.
struct Window {
    /// Row of the checkpoint (cycles after the first start point).
    row: usize,
    /// The machine at the start cycle, flow log off.
    checkpoint: Pipeline,
    /// Retire records before the checkpoint and by the window's end.
    records: std::ops::Range<usize>,
    /// Eligible bits of the checkpoint under the campaign mask.
    bit_count: u64,
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
    records: Vec<RetireRecord>,
    /// Row of the step that halted the machine, with the exit code.
    halted_at: Option<(u64, u64)>,
    /// `(fetch cycle, commit cycle)` of every instruction committing after
    /// the first checkpoint, in commit order.
    committed: Vec<(u64, u64)>,
    windows: Vec<Window>,
    horizon: u64,
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

impl GoldenTimeline {
    /// Runs the golden pass from `golden`, a pipeline warmed to the first
    /// start point with its flow log on since reset. `starts` are the
    /// start points' offsets from the first, non-decreasing and beginning
    /// at 0; every window runs `horizon` cycles.
    ///
    /// # Panics
    ///
    /// Panics if the fault-free run raises an exception.
    pub(crate) fn build(
        mut golden: Pipeline,
        starts: &[u64],
        horizon: u64,
        mask: InjectionMask,
    ) -> GoldenTimeline {
        assert_eq!(starts.first(), Some(&0), "the first window starts the pass");
        assert!(
            starts.windows(2).all(|w| w[0] <= w[1]),
            "start points must not descend"
        );
        let rows = (starts[starts.len() - 1] + horizon + 1) as usize;
        let mut fps = Vec::with_capacity(rows);
        let mut unit_fps = Vec::with_capacity(rows);
        let mut instret = Vec::with_capacity(rows);
        let mut records = Vec::new();
        let mut halted_at = None;
        let mut flow = FlowSpans {
            in_flight: HashMap::new(),
            committed: Vec::new(),
            after: golden.cycles(),
        };
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
            } else {
                if row > 0 {
                    for ev in golden.step().events {
                        match ev {
                            RetireEvent::Retired(r) => records.push(r),
                            RetireEvent::Halted { code } => {
                                halted_at.get_or_insert((row as u64, code));
                            }
                            RetireEvent::Exception(e) => {
                                panic!("golden run raised {e:?} at step {row}")
                            }
                        }
                    }
                }
                fps.push(engine.fingerprint(&mut golden));
                unit_fps.push(*engine.unit_hashes());
                instret.push(golden.instret());
            }
            while next_start.next_if_eq(&&(row as u64)).is_some() {
                // Drain first so the checkpoint clone carries no log.
                flow.drain(&mut golden);
                let mut checkpoint = golden.clone();
                checkpoint.disable_flow_log();
                let mut count = BitCount::new(mask);
                checkpoint.visit_state(&mut count);
                windows.push(Window {
                    row,
                    checkpoint,
                    records: records.len()..records.len(),
                    bit_count: count.count,
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
            records,
            halted_at,
            committed: flow.committed,
            windows,
            horizon,
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
            footprint: OnceLock::new(),
            footprint_ext: OnceLock::new(),
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

    /// Number of eligible bits under the campaign mask.
    pub fn bit_count(&self) -> u64 {
        self.golden.windows[self.window].bit_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{campaign_timeline, CampaignConfig};
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
            let golden = Arc::new(campaign_timeline(&config, &workload));
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
