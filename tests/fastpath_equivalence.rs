//! Property tests pinning the campaign fast path to the naive reference:
//!
//! * `StartPoint::run_trials` (snapshot ladder + cached fingerprints) must
//!   return exactly the same `TrialRecord` sequence as per-trial
//!   `StartPoint::run_trial` over random trial plans.
//! * The hierarchical root fingerprint (`CachedFingerprint`) must equal
//!   the flat `fingerprint_of` on a live pipeline after random bit flips
//!   and random stepping.
//! * The fast engine `run_trials_pruned` must return the same records as
//!   the ladder and the naive path over random plans, windows and
//!   protection configs — and a site it proves dead must classify
//!   identically under a full scalar `run_trial` replay.
//! * On plans aimed only at read-hot words (register file, speculative
//!   RAT, register pointers, ROB and LSQ pointers), where most sites are
//!   consumed and cross from the golden replay to the scalar path, the
//!   fast engine must reproduce the ladder's records, traces and
//!   divergence timelines.
//!
//! Together these are the proof obligations that let the campaign use the
//! fast path without ever changing an outcome census. A failing property
//! prints its `(seed, case)` pair; rerun with `TFSIM_PROP_SEED=<seed>`.

use std::sync::OnceLock;

use tfsim::bitstate::{
    fingerprint_of, BitCount, CachedFingerprint, Category, FieldMeta, FlipBit, InjectionMask,
    StateVisitor, UnitId, VisitState,
};
use tfsim::check::prop::{self, any_u64, ints, vecs, Config};
use tfsim::inject::{StartPoint, TrialSpec};
use tfsim::isa::{Asm, Program, Reg};
use tfsim::uarch::{Pipeline, PipelineConfig};
use tfsim_check::prop_assert_eq;

const MASK: InjectionMask = InjectionMask::LatchesAndRams;

/// A store/branch-heavy loop kernel, warmed past the cold-start phase with
/// the flow log on (the shape `StartPoint::prepare` expects).
fn warmed_pipeline() -> Pipeline {
    warmed_pipeline_with(PipelineConfig::baseline())
}

fn warmed_pipeline_with(config: PipelineConfig) -> Pipeline {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R10, 0x9e3779b97f4a7c15u64);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R7, 50_000);
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
    a.li(Reg::V0, tfsim::isa::syscall::EXIT);
    a.mov(Reg::R9, Reg::A0);
    a.callsys();
    let p = Program::new("fastpath-bed", a).with_data(0x10_0000, vec![0u8; 256]);
    let mut probe = tfsim::arch::FuncSim::new(&p);
    probe.run(50_000_000);
    let mut cpu = Pipeline::new(&p, config);
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    cpu.enable_flow_log();
    for _ in 0..400 {
        cpu.step();
    }
    cpu
}

fn start_point() -> &'static StartPoint {
    static SP: OnceLock<StartPoint> = OnceLock::new();
    SP.get_or_init(|| StartPoint::prepare(&warmed_pipeline(), 700, MASK))
}

fn protected_start_point() -> &'static StartPoint {
    static SP: OnceLock<StartPoint> = OnceLock::new();
    SP.get_or_init(|| {
        StartPoint::prepare(&warmed_pipeline_with(PipelineConfig::protected()), 700, MASK)
    })
}

fn base_pipeline() -> &'static Pipeline {
    static CPU: OnceLock<Pipeline> = OnceLock::new();
    CPU.get_or_init(warmed_pipeline)
}

#[test]
fn batched_run_trials_equals_per_trial_run_trial() {
    // Random plans: unsorted injection cycles with duplicates, random
    // targets. Each case cross-checks the whole batch against the naive
    // path, so a handful of cases covers hundreds of trials — and trials
    // are expensive in debug builds, hence the reduced case count.
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.min(24);
    let sp = start_point();
    assert!(sp.bit_count() > 40_000, "plan generator assumes ≥40k eligible bits");
    let gen = (vecs((ints(0u64..40_000), ints(0u64..64)), 1..5),);
    prop::run(&cfg, "batched_run_trials_equals_per_trial_run_trial", &gen, |val| {
        let (plan,) = val.clone();
        let specs: Vec<TrialSpec> =
            plan.iter().map(|&(target, inject_cycle)| TrialSpec { target, inject_cycle }).collect();
        let monitor = 400;
        let batched = sp.run_trials(MASK, &specs, monitor);
        prop_assert_eq!(batched.len(), specs.len());
        for (i, s) in specs.iter().enumerate() {
            let naive = sp.run_trial(MASK, s.target, s.inject_cycle, monitor);
            prop_assert_eq!(batched[i], naive);
        }
        Ok(())
    });
}

#[test]
fn pruned_equals_ladder_equals_naive() {
    // Random plans through the fast engine against the ladder and the
    // naive path, across random monitoring windows and protection configs.
    // The engine may decide a site on the golden replay or simulate it —
    // whatever it picks, the records must be bit-identical to the scalar
    // walk, and every site must land in exactly one disposition bucket.
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.min(12);
    let gen = (
        vecs((ints(0u64..40_000), ints(0u64..64)), 1..8),
        ints(120u64..500),
        ints(0u8..2),
    );
    prop::run(&cfg, "pruned_equals_ladder_equals_naive", &gen, |val| {
        let (plan, monitor, protected) = val.clone();
        let sp = if protected == 1 { protected_start_point() } else { start_point() };
        let specs: Vec<TrialSpec> =
            plan.iter().map(|&(target, inject_cycle)| TrialSpec { target, inject_cycle }).collect();
        let ladder = sp.run_trials(MASK, &specs, monitor);
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &specs, monitor);
        prop_assert_eq!(&pruned, &ladder, "pruned != ladder");
        prop_assert_eq!(dispo.total(), specs.len() as u64, "dispositions must cover every site");
        for (i, s) in specs.iter().enumerate() {
            let naive = sp.run_trial(MASK, s.target, s.inject_cycle, monitor);
            prop_assert_eq!(pruned[i], naive, "pruned != naive at trial {}", i);
        }
        Ok(())
    });
}

#[test]
fn pruned_proved_dead_site_equals_the_scalar_trial() {
    // Single-site plans make the disposition tally name *this* site's
    // fate: when the pruner proves the site dead (dead window, overwrite
    // before read, or pre-read lock/halt decision), the record it emits
    // without simulating anything must equal the full scalar replay's.
    // The cross-case counter then pins that the property actually
    // exercised the analytic path, not just delegated everything.
    let cfg = Config::from_env();
    let proved = std::cell::Cell::new(0u64);
    let gen = (ints(0u64..40_000), ints(0u64..64), ints(60u64..500), ints(0u8..2));
    prop::run(&cfg, "pruned_proved_dead_site_equals_the_scalar_trial", &gen, |val| {
        let (target, inject_cycle, monitor, protected) = *val;
        let sp = if protected == 1 { protected_start_point() } else { start_point() };
        let spec = TrialSpec { target, inject_cycle };
        let (pruned, dispo) = sp.run_trials_pruned(MASK, &[spec], monitor);
        prop_assert_eq!(dispo.total(), 1);
        prop_assert_eq!(pruned.len(), 1);
        let naive = sp.run_trial(MASK, target, inject_cycle, monitor);
        prop_assert_eq!(pruned[0], naive, "disposition {:?} changed the record", dispo);
        proved.set(proved.get() + dispo.proved_dead);
        Ok(())
    });
    assert!(proved.get() > 0, "no case ever took the analytic proved-dead path");
}

/// Collects the eligible bits of read-hot words in five groups: register
/// file entries, speculative RAT entries, physical register pointers, ROB
/// tags and ROB queue pointers, and LSQ queue pointers.
struct HotBits {
    pos: u64,
    unit: Option<UnitId>,
    groups: [Vec<u64>; 5],
}

impl StateVisitor for HotBits {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if !MASK.eligible(meta) {
            return;
        }
        let group = match (meta.category, self.unit) {
            (Category::Regfile, _) => Some(0),
            (Category::SpecRat, _) => Some(1),
            (Category::Regptr, _) => Some(2),
            (Category::Robptr, _) | (Category::Qctrl, Some(UnitId::Rob)) => Some(3),
            (Category::Qctrl, Some(UnitId::Lsq)) => Some(4),
            _ => None,
        };
        if let Some(g) = group {
            self.groups[g].extend(self.pos..self.pos + width as u64);
        }
        self.pos += width as u64;
    }

    fn enter_unit(&mut self, unit: UnitId, _gen: u64) -> bool {
        self.unit = Some(unit);
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.unit = None;
    }
}

fn hot_bits(sp: &StartPoint) -> [Vec<u64>; 5] {
    let mut v = HotBits { pos: 0, unit: None, groups: Default::default() };
    base_pipeline().clone().visit_state(&mut v);
    assert_eq!(v.pos, sp.bit_count(), "the walk must cover every eligible bit");
    assert!(v.groups.iter().all(|g| !g.is_empty()), "every hot group has bits");
    v.groups
}

#[test]
fn fast_engines_equal_the_ladder_on_read_hot_targets() {
    // Random plans mostly land in words nobody reads again or in untracked
    // latches, so they rarely cross the boundary between analytic
    // dispositions and scalar peels. These plans aim only at words the
    // pipeline reads every few cycles, one group drawn uniformly per site
    // so the large register file does not crowd out the pointers: a
    // site's fate turns on whether its next read comes before an
    // overwrite or a lock, and the fast engine must still reproduce the
    // ladder's records, traces and divergence timelines exactly.
    let mut cfg = Config::from_env();
    cfg.cases = cfg.cases.min(12);
    let hot = hot_bits(start_point());
    let (peeled, proved) = (std::cell::Cell::new(0u64), std::cell::Cell::new(0u64));
    let gen = (
        vecs((ints(0usize..5), any_u64(), ints(0u64..64)), 1..10),
        ints(120u64..500),
        ints(0u8..2),
    );
    prop::run(&cfg, "fast_engines_equal_the_ladder_on_read_hot_targets", &gen, |val| {
        let (plan, monitor, protected) = val.clone();
        let sp = if protected == 1 { protected_start_point() } else { start_point() };
        let specs: Vec<TrialSpec> = plan
            .iter()
            .map(|&(g, k, inject_cycle)| TrialSpec {
                target: hot[g][(k % hot[g].len() as u64) as usize],
                inject_cycle,
            })
            .collect();
        let ladder = sp.run_trials_deep_traced(MASK, &specs, monitor);
        let (pruned, dispo) = sp.run_trials_pruned_deep_traced(MASK, &specs, monitor);
        prop_assert_eq!(&pruned.records, &ladder.records, "pruned records");
        prop_assert_eq!(&pruned.traces, &ladder.traces, "pruned traces");
        prop_assert_eq!(&pruned.deeps, &ladder.deeps, "pruned timelines");
        prop_assert_eq!(dispo.total(), specs.len() as u64);
        peeled.set(peeled.get() + dispo.simulated);
        proved.set(proved.get() + dispo.proved_dead);
        Ok(())
    });
    // Both sides of the boundary must actually be exercised (at the
    // default seed about two sites in five simulate).
    let (peeled, proved) = (peeled.get(), proved.get());
    assert!(proved > 0, "no read-hot site was proved dead");
    assert!(peeled > 0, "no read-hot site simulated");
}

#[test]
fn peel_off_stress_many_simultaneous_divergences() {
    // A dense burst of trials packed into three adjacent injection cycles:
    // every site the golden replay cannot decide must peel off its own
    // scalar walker from the shared monotonic one while its neighbours
    // ride. Deliberate duplicate specs check that each trial lands in the
    // census exactly once — never merged, never lost.
    let sp = start_point();
    let monitor = 400;
    let mut specs = Vec::new();
    let mut x = 0x0020_04D5_u64;
    for i in 0..96u64 {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        specs.push(TrialSpec { target: (x >> 16) % 40_000, inject_cycle: 17 + (i % 3) });
    }
    let dup = specs[5];
    specs.extend(std::iter::repeat_n(dup, 8));

    // The shared walker a peeled lane clones is the *uncorrupted* machine
    // advanced to the injection cycle: it must satisfy every structural
    // invariant at each peel point.
    let mut walker = base_pipeline().clone();
    let mut walked = 0u64;
    for c in [17u64, 18, 19] {
        while walked < c && walker.running() {
            walker.step();
            walked += 1;
        }
        let violations = walker.check_invariants();
        assert!(violations.is_empty(), "shared walker corrupt at cycle {c}: {violations:?}");
    }

    let ladder = sp.run_trials(MASK, &specs, monitor);
    let (fast, _) = sp.run_trials_pruned(MASK, &specs, monitor);
    assert_eq!(fast.len(), specs.len(), "every trial must land in the census exactly once");
    assert_eq!(fast, ladder, "peel-off burst diverged from the ladder");
    for (i, (r, s)) in fast.iter().zip(&specs).enumerate() {
        assert_eq!(r.inject_cycle, s.inject_cycle, "record {i} lost input-order alignment");
    }
    let dup_count = specs.iter().filter(|s| **s == dup).count();
    assert_eq!(dup_count, 9, "test bed: 1 original + 8 duplicates");
    let dup_records: Vec<_> =
        fast.iter().zip(&specs).filter(|(_, s)| **s == dup).map(|(r, _)| *r).collect();
    assert_eq!(dup_records.len(), 9, "duplicate specs must each keep their own record");
    assert!(
        dup_records.windows(2).all(|w| w[0] == w[1]),
        "identical specs must classify identically"
    );
}

#[test]
fn hierarchical_root_equals_flat_fingerprint_after_flips() {
    let cfg = Config::from_env();
    let base = base_pipeline();
    let mut count = BitCount::new(MASK);
    base.clone().visit_state(&mut count);
    let bits = count.count;
    let gen = (vecs(any_u64(), 0..6), ints(0u64..40));
    prop::run(&cfg, "hierarchical_root_equals_flat_fingerprint_after_flips", &gen, move |val| {
        let (flips, steps) = val.clone();
        let mut cpu = base.clone();
        for _ in 0..steps {
            cpu.step();
        }
        for f in &flips {
            let mut flip = FlipBit::new(MASK, f % bits);
            cpu.visit_state(&mut flip);
        }
        // A fresh engine after out-of-band mutation (the contract the
        // trial classifier follows): root must equal the flat hash.
        let mut engine = CachedFingerprint::new();
        prop_assert_eq!(engine.fingerprint(&mut cpu), fingerprint_of(&mut cpu));
        // And reusing the same engine across further in-API mutation
        // (stepping) must stay in lockstep with the flat hash.
        for _ in 0..10 {
            cpu.step();
            prop_assert_eq!(engine.fingerprint(&mut cpu), fingerprint_of(&mut cpu));
        }
        Ok(())
    });
}
