//! The fast engine: trials the golden run already decides are classified
//! from it, without simulating.
//!
//! A single-bit fault is a *difference* δ against the golden run. As long
//! as no computation consumes the faulted word, the trial's observable
//! behaviour — its retire stream, its halt, its per-cycle retirement
//! pattern — is the golden run's, already precomputed in the start point's
//! golden timeline. The engine reads each site's *access answer*
//! (`crate::footprint`: the first golden access to the flipped word after
//! injection, over every extended-tier word — answered by the campaign's
//! golden pass, or by one tracked replay for a standalone batch) and runs
//! the classifier, [`StartPoint::decide`], on the *golden replay*: a
//! machine that is the golden run plus a δ in the flipped word's unit.
//!
//! * **Never accessed** in the window, or **accessed first by a
//!   content-independent full-word overwrite** at cycle `h`: the replay is
//!   exact for the whole window. The δ keeps the unit's fingerprint
//!   diverged until `h` (forever without an overwrite), so the trial
//!   matches at the first check at or after `h`, or decides on the golden
//!   aggregates (lock, halt), or grays out.
//! * **Read first** at cycle `r`: the fault is consumed there and the
//!   trial's future genuinely diverges. The replay is exact only for the
//!   steps before `r`, so the loop runs bounded to them; a trial the golden
//!   aggregates decide there (lock, halt) keeps that record. A read past
//!   the window never bounds the walk.
//!
//! Every other site — undecided before its read, without an answer
//! (outside the extended tier, target out of range, injected past the
//! window), or the campaign's forced-panic shim — is simulated on the
//! snapshot ladder in the same batch ([`StartPoint::run_trials_core`]), so
//! its record is the ladder's by construction. Sites the replay decides
//! count as `proved_dead` in the [`PruneDispositions`] tally, the rest as
//! `simulated`. Equivalence with the ladder and the naive path is pinned by
//! `tests/fastpath_equivalence.rs` and this module's tests.
//!
//! # Soundness contract
//!
//! The analytic shortcut is sound because the access log obeys (and the
//! `access_ordinals` pipeline tests plus the differential suite enforce):
//!
//! * **Reads may be over-logged, never under-logged.** A spurious logged
//!   read only demotes a ride/heal to a peel — the scalar path is always
//!   correct. A *missing* read would let a consumed fault ride, so every
//!   step-path accessor of tracked words logs.
//! * **Writes are logged only for full-word overwrites whose value cannot
//!   depend on the word's prior content.** Read-modify-write sites log the
//!   read first; per-cycle dedup keeps the first event, so the cell shows
//!   read-first and the lane peels.
//! * **Observers never log.** Fingerprint walks, state dumps, invariant
//!   checks and census visitors read state without consuming it
//!   architecturally; logging them would only cost throughput, but they
//!   are also run on machines whose tracking is off.
//! * δ ≠ 0 in a tracked word keeps that unit's 128-bit subhash diverged —
//!   the same collision exposure the root-fingerprint equality check
//!   always had.
//!
//! The extended tier may additionally under-claim a write by logging a
//! read instead (the ROB does), which only demotes a site to `simulated` —
//! never the reverse.

use std::time::Instant;

use tfsim_bitstate::{InjectionMask, UnitId};
use tfsim_obs::{DeepTrace, PruneDispositions};

use crate::footprint::{Access, Answer};
use crate::trial::{Cycle, Machine, StartPoint, TracedBatch, TrialObservers, TrialRecord, TrialSpec};

/// The golden replay: a trial whose flipped word the golden run has not
/// read, observed through the golden timeline. Its machine is the golden
/// machine plus a δ in `unit`, healed at `heal`.
struct Replay<'a> {
    sp: &'a StartPoint,
    /// The cycle the machine has reached.
    at: u64,
    unit: Option<UnitId>,
    heal: Option<u64>,
}

impl Machine for Replay<'_> {
    fn running(&self) -> bool {
        // The golden run raises no exceptions (prepare forbids it), so only
        // the halt ends it.
        self.sp.halted_at.is_none_or(|(h, _)| self.at < h)
    }

    fn instret(&self) -> u64 {
        self.sp.instret_at(self.at)
    }

    fn step(&mut self, step: u64, matched: &mut usize) -> Cycle {
        self.at = step;
        let g = self.sp.agg(step);
        // The machine retires the golden records verbatim: every
        // architectural comparison passes by identity.
        *matched += g.retired as usize;
        let verdict = match self.sp.halted_at {
            Some((h, code)) if h == step => Some(self.sp.halt_outcome(code, *matched)),
            _ => None,
        };
        Cycle { retired: g.retired > 0, protective_flush: g.pflush, verdict }
    }

    fn matches(&mut self, step: u64) -> bool {
        self.heal.is_some_and(|h| step >= h)
    }

    fn suspect(&self) -> Option<UnitId> {
        self.unit
    }

    fn diverged(&mut self, step: u64) -> u16 {
        self.divergence(step).1
    }

    fn divergence(&mut self, at: u64) -> (bool, u16) {
        let unhealed = !self.matches(at);
        let units = self.unit.filter(|_| unhealed).map_or(0, |u| 1 << u.index());
        (unhealed, units)
    }
}

impl StartPoint {
    /// Classifies one answered site on the golden replay, or `None` when
    /// the golden run does not decide it before the flipped word is read
    /// (the site must be simulated; `obs` is then left untouched).
    pub(crate) fn ride(
        &self,
        answer: Answer,
        spec: TrialSpec,
        monitor: u64,
        obs: TrialObservers<'_>,
    ) -> Option<TrialRecord> {
        let Answer { span, access } = answer;
        // The replay is exact up to the step before the word is read.
        let (heal, last) = match access {
            Access::Never => (None, u64::MAX),
            Access::Write(h) => (Some(h), u64::MAX),
            Access::Read(r) => (None, r - 1),
        };
        let mut replay = Replay { sp: self, at: spec.inject_cycle, unit: span.unit, heal };
        let TrialObservers { trace, deep } = obs;
        let mut timeline = DeepTrace::new();
        let scratch = TrialObservers { trace, deep: deep.is_some().then_some(&mut timeline) };
        let outcome = self.decide(&mut replay, spec.inject_cycle, monitor, last, scratch)?;
        if let Some(d) = deep {
            *d = timeline;
        }
        Some(self.record(outcome, spec.inject_cycle, span.category, span.kind, span.unit))
    }

    /// Which sites of `specs` the golden run decides, without simulating
    /// any trial (one tracked replay answers their access questions). A
    /// site proved dead here is one [`StartPoint::run_trials_pruned`]
    /// counts under `proved_dead`.
    pub fn proved_dead(&self, mask: InjectionMask, specs: &[TrialSpec], monitor: u64) -> Vec<bool> {
        let answers = self.answer(mask, specs);
        specs
            .iter()
            .zip(answers)
            .map(|(&spec, answer)| {
                answer.is_some_and(|a| self.ride(a, spec, monitor, Default::default()).is_some())
            })
            .collect()
    }

    /// [`StartPoint::run_trials`] semantics on the fast engine: the
    /// golden replay's records for every site it decides, the ladder's
    /// everywhere else. Returns the per-site disposition tally alongside.
    pub fn run_trials_pruned(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (Vec<TrialRecord>, PruneDispositions) {
        let (batch, dispo) = self.run_trials_answered::<false>(mask, specs, monitor, false);
        (batch.records, dispo)
    }

    /// [`StartPoint::run_trials_traced`] semantics on the fast engine.
    pub fn run_trials_pruned_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_answered::<true>(mask, specs, monitor, false)
    }

    /// [`StartPoint::run_trials_deep_traced`] semantics on the fast
    /// engine: sites the golden replay decides get its divergence
    /// timelines.
    pub fn run_trials_pruned_deep_traced(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
    ) -> (TracedBatch, PruneDispositions) {
        self.run_trials_answered::<true>(mask, specs, monitor, true)
    }

    /// A standalone fast-engine batch: answers the specs' access questions
    /// with one tracked replay, then runs the batch driver on them.
    fn run_trials_answered<const TRACED: bool>(
        &self,
        mask: InjectionMask,
        specs: &[TrialSpec],
        monitor: u64,
        deep: bool,
    ) -> (TracedBatch, PruneDispositions) {
        let t0 = TRACED.then(Instant::now);
        let answers = self.answer(mask, specs);
        let footprint_ns = t0.map_or(0, |t0| t0.elapsed().as_nanos() as u64);
        let (mut batch, dispo) =
            self.run_trials_core::<TRACED>(mask, specs, Some(&answers), monitor, None, deep);
        batch.footprint_ns = footprint_ns;
        (batch, dispo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trial::{warm_pipeline, FailureMode, Outcome};
    use tfsim_isa::{Asm, Reg};
    use tfsim_uarch::PipelineConfig;

    const MASK: InjectionMask = InjectionMask::LatchesAndRams;

    /// A memory-heavy hash loop touching every extended-tier structure at a
    /// brisk cadence.
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
        let proved = sp.proved_dead(MASK, &specs, 1_200);
        assert_eq!(proved.iter().filter(|&&p| p).count() as u64, dispo.proved_dead);
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

    /// The forced-panic shim always simulates: the quarantined fault
    /// surfaces under its spec index and every other record is
    /// unperturbed.
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
        let answers = sp.answer(MASK, &specs);
        let (batch, dispo) =
            sp.run_trials_core::<false>(MASK, &specs, Some(&answers), 1_000, Some(shim), false);
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

    /// A 40-iteration store/load loop whose golden run halts about 80
    /// cycles after the checkpoint, well inside the window.
    fn halting_start_point(config: PipelineConfig) -> StartPoint {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R1, 0x10_0000);
        a.li(Reg::R7, 40);
        a.li(Reg::R9, 0);
        let top = a.here_label();
        a.stq(Reg::R7, Reg::R1, 0);
        a.ldq(Reg::R6, Reg::R1, 0);
        a.addq(Reg::R9, Reg::R6, Reg::R9);
        a.subq_i(Reg::R7, 1, Reg::R7);
        a.bne(Reg::R7, top);
        a.li(Reg::V0, tfsim_isa::syscall::EXIT);
        a.mov(Reg::R9, Reg::A0);
        a.callsys();
        let p = tfsim_isa::Program::new("halting-bed", a).with_data(0x10_0000, vec![0u8; 64]);
        let warmed = warm_pipeline(&p, config, 40);
        StartPoint::prepare(&warmed, 600, MASK)
    }

    /// Golden runs that halt inside the window: injections before, at and
    /// after the halt exercise the replay's halt verdict (exit code and
    /// retired stream against `Ctrl`) and its "not running at injection"
    /// match, with records, traces and timelines pinned to the ladder's.
    #[test]
    fn pruned_matches_the_ladder_when_the_golden_run_halts_in_the_window() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sp = halting_start_point(config);
            let (halt, _) = sp.halted_at.expect("the bed halts inside the window");
            assert!((40..=160).contains(&halt), "halt at cycle {halt}");
            let specs: Vec<TrialSpec> = (0..300u64)
                .map(|t| TrialSpec {
                    target: (t * 7_919) % sp.bit_count(),
                    inject_cycle: match t % 6 {
                        0 => t % 40,
                        1 => halt.saturating_sub(1 + t % 20),
                        2 => halt - 1,
                        3 => halt,
                        4 => halt + 1,
                        _ => halt + t % 50,
                    },
                })
                .collect();
            let ladder = sp.run_trials_deep_traced(MASK, &specs, 400);
            let (pruned, dispo) = sp.run_trials_pruned_deep_traced(MASK, &specs, 400);
            assert_eq!(pruned.records, ladder.records);
            assert_eq!(pruned.traces, ladder.traces);
            assert_eq!(pruned.deeps, ladder.deeps);
            assert_eq!(dispo.total(), specs.len() as u64);
            assert!(dispo.proved_dead > 0 && dispo.simulated > 0, "{dispo:?}");
            assert!(
                pruned.records.iter().any(|r| r.outcome == Outcome::Failure(FailureMode::Ctrl)),
                "a halt with the wrong stream or code must surface as ctrl"
            );
            // The replay itself decides trials at the golden halt and at
            // injections into the halted machine.
            let proved = sp.proved_dead(MASK, &specs, 400);
            let on_replay =
                || specs.iter().zip(&proved).zip(&pruned.traces).filter(|((_, &p), _)| p);
            assert!(on_replay().any(|((s, _), t)| s.inject_cycle < halt && t.detect_cycle == halt));
            assert!(on_replay().any(|((s, _), _)| s.inject_cycle >= halt));
            let (plain, _) = sp.run_trials_pruned(MASK, &specs, 400);
            assert_eq!(plain, ladder.records);
        }
    }
}
