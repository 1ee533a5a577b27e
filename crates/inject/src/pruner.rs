//! The analytic masking pruner: dead-window proofs over the extended
//! access tier.
//!
//! The sliced engine (`crate::sliced`) already discharges rides and heals
//! analytically, but only for the core-tier tracked structures (LSQ,
//! register file, MHRs). Everything else — fetch queue, rename, scheduler,
//! reorder buffer — peels to a scalar replay even when the faulted word is
//! plainly dead. On campaign-shaped batches those peels dominate the wall
//! clock: most land in idle entries of the big untracked RAMs and grind a
//! full monitoring window to conclude nothing happened.
//!
//! The pruner runs once per batch, before any trial, on each site's
//! extended-tier access answer (`crate::footprint`: the first golden
//! access to the flipped word after injection — answered by the
//! campaign's golden pass, or by one tracked replay for a standalone
//! batch). Every site gets exactly one of two dispositions:
//!
//! * **Proved dead** — the fault provably never alters the classification
//!   relative to the analytic rider:
//!   - no access to the word in `(inject, horizon]` (a *dead window*: the
//!     word is never read again before the window closes),
//!   - the first access is a content-independent full-word overwrite (the
//!     word dies by being rewritten before its next read), or
//!   - the first access is a read, but the golden aggregates decide the
//!     trial (lock, halt) strictly before that read consumes the fault.
//!
//!   These sites produce their records through the same analytic
//!   classifier the sliced engine uses ([`StartPoint::ride_lane`]) and
//!   never occupy a lane.
//! * **Simulated** — everything else delegates to the sliced engine with
//!   its answer. There every such site peels to the scalar ladder: a site
//!   the pruner could not discharge either has its first access inside the
//!   window being a read, or lies outside the extended tier and so outside
//!   the core one.
//!
//! # Proof obligations
//!
//! The dispositions are sound because (enforced by the `access_ordinals`
//! pipeline tests and the `prop_pruned_*` property suite):
//!
//! 1. *Reads are never under-logged* in either tier: a word with no read
//!    event in a window really was not consumed there, so the machine
//!    replays the golden run and the analytic rider's record is exact.
//! 2. *Logged writes are full-word and content-independent*: a heal event
//!    restores the golden value no matter the δ. The extended tier may
//!    under-claim a write by logging a read instead (the ROB does), which
//!    only demotes a site to `simulated` — never the reverse.

use std::time::Instant;

use tfsim_bitstate::InjectionMask;
use tfsim_obs::PruneDispositions;

use crate::footprint::{Access, Answer, Span};
use crate::sliced::LANE_WIDTH;
use crate::trial::{StartPoint, TracedBatch, TrialFault, TrialObservers, TrialRecord, TrialSpec};

impl StartPoint {
    /// Whether a golden-aggregate decision (lock, halt, ran-ahead) fires in
    /// the steps `(inject, end]` of [`StartPoint::ride_lane`]'s decision
    /// loop. Fingerprint checks cannot decide there — the δ is still
    /// latent — so they are irrelevant to the walk.
    fn decided_by(&self, inject: u64, end: u64) -> bool {
        let running_at = |c: u64| self.halted_at.is_none_or(|(hc, _)| c < hc);
        if !running_at(inject) {
            return true;
        }
        let mut matched = self.instret_at(inject) as usize;
        let mut last_retire = inject;
        let mut flushes = 0u32;
        for step in (inject + 1)..=end {
            let g = self.agg(step);
            if g.retired > 0 {
                last_retire = step;
                flushes = 0;
            }
            if g.pflush {
                flushes += 1;
                if flushes >= 3 {
                    return true;
                }
                last_retire = step;
            }
            for _ in 0..g.retired {
                if matched >= self.records().len() {
                    return true;
                }
                matched += 1;
            }
            if self.halted_at.is_some_and(|(hc, _)| hc == step) {
                return true;
            }
            if running_at(step) && step - last_retire >= 100 {
                return true;
            }
            if !running_at(step) {
                break;
            }
        }
        false
    }

    /// The site's analytic rider arguments `(span, heal cycle)` when the
    /// pruner proves it dead, from its access answer; `None` when it must
    /// simulate.
    /// A site without an answer (outside the extended tier, or injected
    /// past the window) simulates.
    fn prove_dead(
        &self,
        spec: TrialSpec,
        answer: Option<Answer>,
        monitor: u64,
    ) -> Option<(Span, Option<u64>)> {
        let c = spec.inject_cycle;
        let Answer { span, access } = answer?;
        match access {
            // Dead window: never accessed again inside the window.
            Access::Never => Some((span, None)),
            // Dead window: overwritten before its next read.
            Access::Write(hc) => Some((span, Some(hc))),
            // The read falls outside this site's window: within the window
            // the word is dead.
            Access::Read(r) if r > self.horizon().min(c + monitor) => Some((span, None)),
            // Locked/halted before the read: the analytic rider reaches the
            // identical decision.
            Access::Read(r) => self.decided_by(c, r - 1).then_some((span, None)),
        }
    }

    /// The pruner's per-site dispositions for `answers`: the rider
    /// arguments of every site proved dead, `None` for every site that
    /// simulates.
    fn dispositions(
        &self,
        specs: &[TrialSpec],
        answers: &[Option<Answer>],
        monitor: u64,
    ) -> Vec<Option<(Span, Option<u64>)>> {
        specs
            .iter()
            .zip(answers)
            .map(|(&spec, &answer)| self.prove_dead(spec, answer, monitor))
            .collect()
    }

    /// Which sites of `specs` the pruner proves dead, without running any
    /// trial (one tracked replay answers their access questions). A site
    /// proved dead here is one [`StartPoint::run_trials_pruned`] counts
    /// under `proved_dead`.
    pub fn proved_dead(&self, mask: InjectionMask, specs: &[TrialSpec], monitor: u64) -> Vec<bool> {
        let answers = self.answer(mask, specs);
        self.dispositions(specs, &answers, monitor).iter().map(Option::is_some).collect()
    }

    /// [`StartPoint::run_trials`] semantics with analytic pruning: the
    /// records are the sliced engine's records for every site the pruner
    /// could not discharge, and the analytically derived equivalents
    /// everywhere else. Returns the per-site disposition tally alongside.
    pub fn run_trials_pruned(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (Vec<TrialRecord>, PruneDispositions) {
        let (batch, dispo) = self
            .run_trials_pruned_core::<false>(mask, specs, None, monitor, LANE_WIDTH, None, false);
        (batch.records, dispo)
    }

    /// [`StartPoint::run_trials_pruned`] with an explicit delegate lane
    /// width in `1..=64`. Pruning decisions depend only on the access
    /// answers, so the records (and the disposition tally) are provably
    /// width-independent; the equivalence suite pins both.
    pub fn run_trials_pruned_with_width(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        lane_width: usize,
    ) -> (Vec<TrialRecord>, PruneDispositions) {
        let (batch, dispo) = self
            .run_trials_pruned_core::<false>(mask, specs, None, monitor, lane_width, None, false);
        (batch.records, dispo)
    }

    /// [`StartPoint::run_trials_traced`] semantics with analytic pruning.
    pub fn run_trials_pruned_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_pruned_core::<true>(mask, specs, None, monitor, LANE_WIDTH, None, false)
    }

    /// [`StartPoint::run_trials_deep_traced`] semantics with analytic
    /// pruning: proved-dead sites synthesize their divergence timelines
    /// through the analytic rider.
    pub fn run_trials_pruned_deep_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_pruned_core::<true>(mask, specs, None, monitor, LANE_WIDTH, None, true)
    }

    /// The pruning pass plus delegation. Mirrors the contracts of
    /// `run_trials_core`: input-order records, quarantined panics under
    /// their original spec indices. `answers` as for
    /// `run_trials_sliced_core`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_trials_pruned_core<const TRACED: bool>(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        answers: Option<&[Option<Answer>]>,
        monitor: u64,
        lane_width: usize,
        panic_shim: Option<usize>,
        deep: bool,
    ) -> (TracedBatch, PruneDispositions) {
        let deep = TRACED && deep;
        let fp_t0 = TRACED.then(Instant::now);
        let replayed;
        let answers = match answers {
            Some(a) => a,
            None => {
                replayed = self.answer(mask, specs);
                &replayed
            }
        };
        debug_assert_eq!(answers.len(), specs.len(), "one answer per spec");
        let prune_t0 = TRACED.then(Instant::now);
        let footprint_ns = fp_t0.zip(prune_t0).map_or(0, |(a, b)| (b - a).as_nanos() as u64);
        let mut plan = self.dispositions(specs, answers, monitor);
        if let Some(shim) = panic_shim {
            // The forced panic must happen in a simulated trial.
            plan[shim] = None;
        }
        let prune_ns = prune_t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);

        // Delegate everything simulated to the sliced engine in one batch.
        let delegate_idx: Vec<usize> = (0..specs.len()).filter(|&i| plan[i].is_none()).collect();
        let delegate_specs: Vec<TrialSpec> = delegate_idx.iter().map(|&i| specs[i]).collect();
        let delegate_answers: Vec<Option<Answer>> =
            delegate_idx.iter().map(|&i| answers[i]).collect();
        let delegate_shim = panic_shim.and_then(|s| delegate_idx.binary_search(&s).ok());
        let sub = self.run_trials_sliced_core::<TRACED>(
            mask,
            &delegate_specs,
            Some(&delegate_answers),
            monitor,
            lane_width,
            delegate_shim,
            deep,
        );
        let faults: Vec<TrialFault> = sub
            .faults
            .into_iter()
            .map(|f| TrialFault { index: delegate_idx[f.index], ..f })
            .collect();

        // Assemble records in input order: proved-dead sites ride
        // analytically, simulated ones take the delegate's next output
        // unless it quarantined them.
        let mut dispo = PruneDispositions::default();
        let mut records = Vec::with_capacity(specs.len());
        let mut traces = Vec::with_capacity(if TRACED { specs.len() } else { 0 });
        let mut deeps = Vec::with_capacity(if deep { specs.len() } else { 0 });
        let mut sub_records = sub.records.into_iter();
        let mut sub_traces = sub.traces.into_iter();
        let mut sub_deeps = sub.deeps.into_iter();
        let mut quarantined = faults.iter().map(|f| f.index).peekable();
        let t0 = TRACED.then(Instant::now);
        for (i, p) in plan.iter().enumerate() {
            match p {
                Some((span, heal)) => {
                    dispo.proved_dead += 1;
                    let mut trace = Default::default();
                    let mut timeline = Default::default();
                    let obs = TrialObservers {
                        trace: TRACED.then_some(&mut trace),
                        deep: deep.then_some(&mut timeline),
                    };
                    records.push(self.ride_lane(span, *heal, specs[i], monitor, obs));
                    if TRACED {
                        traces.push(trace);
                    }
                    if deep {
                        deeps.push(timeline);
                    }
                }
                None => {
                    dispo.simulated += 1;
                    if quarantined.next_if_eq(&i).is_some() {
                        continue;
                    }
                    records.push(sub_records.next().expect("a record per simulated site"));
                    if TRACED {
                        traces.push(sub_traces.next().expect("a trace per record"));
                    }
                    if deep {
                        deeps.push(sub_deeps.next().expect("a timeline per record"));
                    }
                }
            }
        }
        // The assembly is dominated by the analytic riders: monitor time
        // on the ride side of the split.
        let ride_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        let batch = TracedBatch {
            records,
            traces,
            faults,
            deeps,
            advance_ns: sub.advance_ns,
            monitor_ns: sub.monitor_ns + ride_ns,
            ride_ns: sub.ride_ns + ride_ns,
            classify_ns: sub.classify_ns,
            prune_ns,
            footprint_ns: footprint_ns + sub.footprint_ns,
        };
        (batch, dispo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::warm_pipeline;
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    const MASK: InjectionMask = InjectionMask::LatchesAndRams;

    /// The sliced test bed: a memory-heavy hash loop touching every
    /// extended-tier structure at a brisk cadence.
    fn hash_start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
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
        let p = tfsim_isa::Program::new("pruner-bed", a).with_data(0x10_0000, vec![0u8; 256]);
        let warmed = warm_pipeline(&p, config, 500);
        StartPoint::prepare(&warmed, 3_000, MASK)
    }

    #[test]
    fn pruned_matches_the_ladder_on_a_dense_sweep() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..96u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: [40, 3, 117, 3, 0, 249, 60, 117][t as usize % 8] + (t / 8),
            })
            .collect();
        let ladder = sp.run_trials(MASK, &specs, 1_200);
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &specs, 1_200);
        assert_eq!(pruned.len(), ladder.len());
        for (i, (p, l)) in pruned.iter().zip(ladder.iter()).enumerate() {
            assert_eq!(p, l, "spec {i} ({:?}) diverged", specs[i]);
        }
        assert_eq!(dispo.total(), specs.len() as u64, "every site gets one disposition");
        assert!(dispo.proved_dead > 0, "the sweep should prove some sites dead: {dispo:?}");
    }

    #[test]
    fn pruned_traced_matches_the_ladder_traced() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_traced(MASK, &specs, 1_500);
        let (pruned, dispo) = sp.run_trials_pruned_traced(MASK, &specs, 1_500);
        assert_eq!(pruned.records, ladder.records);
        assert_eq!(pruned.traces, ladder.traces, "traces must match cycle-for-cycle");
        assert_eq!(pruned.faults, ladder.faults);
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    #[test]
    fn pruned_is_width_independent() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..70u64)
            .map(|t| TrialSpec {
                target: (t * 7_919) % sp.bit_count(),
                inject_cycle: (t * 17) % 200,
            })
            .collect();
        let (full, full_dispo) = sp.run_trials_pruned(MASK, &specs, 1_000);
        for width in [1usize, 2, 7, 63, 64] {
            let (batch, dispo) =
                sp.run_trials_pruned_core::<false>(MASK, &specs, None, 1_000, width, None, false);
            assert_eq!(batch.records, full, "lane width {width} changed results");
            assert_eq!(dispo, full_dispo, "lane width {width} changed dispositions");
        }
    }

    #[test]
    fn pruned_matches_under_the_protected_config() {
        let sp = hash_start_point(PipelineConfig::protected());
        let specs: Vec<TrialSpec> = (0..60u64)
            .map(|t| TrialSpec {
                target: (t * 11_003) % sp.bit_count(),
                inject_cycle: (t * 13) % 150,
            })
            .collect();
        let ladder = sp.run_trials(MASK, &specs, 1_000);
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &specs, 1_000);
        assert_eq!(pruned, ladder);
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    #[test]
    fn pruned_deep_traced_matches_the_ladder_deep_traced() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..40u64)
            .map(|t| TrialSpec {
                target: (t * 13_577) % sp.bit_count(),
                inject_cycle: (t * 31) % 180,
            })
            .collect();
        let ladder = sp.run_trials_deep_traced(MASK, &specs, 1_500);
        let (pruned, dispo) = sp.run_trials_pruned_deep_traced(MASK, &specs, 1_500);
        assert_eq!(pruned.records, ladder.records);
        assert_eq!(pruned.traces, ladder.traces);
        assert_eq!(pruned.deeps, ladder.deeps, "timelines must match sample-for-sample");
        assert!(pruned.deeps.iter().any(|d| !d.is_empty()), "sweep should see divergence");
        assert_eq!(dispo.total(), specs.len() as u64);
    }

    /// The forced-panic shim flows through the delegate remapping: the
    /// quarantined fault surfaces under its original spec index and every
    /// other record is unperturbed.
    #[test]
    fn pruned_panic_shim_quarantines_the_original_index() {
        let sp = hash_start_point(PipelineConfig::baseline());
        let specs: Vec<TrialSpec> = (0..24u64)
            .map(|t| TrialSpec {
                target: (t * 9_491) % sp.bit_count(),
                inject_cycle: (t * 19) % 160,
            })
            .collect();
        let shim = 13usize;
        let (batch, dispo) =
            sp.run_trials_pruned_core::<false>(MASK, &specs, None, 1_000, 64, Some(shim), false);
        assert_eq!(batch.faults.len(), 1);
        assert_eq!(batch.faults[0].index, shim);
        assert_eq!(batch.faults[0].spec, specs[shim]);
        assert_eq!(batch.records.len(), specs.len() - 1);
        assert_eq!(dispo.total(), specs.len() as u64);

        let clean = sp.run_trials(MASK, &specs, 1_000);
        let mut expected = clean.clone();
        expected.remove(shim);
        assert_eq!(batch.records, expected, "surviving records are unperturbed by the shim");
    }
}

