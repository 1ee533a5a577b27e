//! Pipeline-level tests: architectural equivalence against the functional
//! simulator, recovery machinery, determinism, and state-walk integrity.

use tfsim_arch::{FuncSim, StepEvent};
use tfsim_bitstate::{fingerprint_of, BitCount, Category, Census, InjectionMask, StorageKind, VisitState};
use tfsim_isa::{syscall, Asm, Program, Reg};

use super::*;
use crate::config::PipelineConfig;

/// Builds a pipeline whose TLBs are preloaded with every page the
/// fault-free run touches (the paper's TLB model).
fn pipeline_with_tlbs(program: &Program, config: PipelineConfig) -> Pipeline {
    let mut probe = FuncSim::new(program);
    probe.run(10_000_000);
    let mut cpu = Pipeline::new(program, config);
    cpu.set_tlbs(probe.code_pages().clone(), probe.data_pages().clone());
    cpu
}

/// Runs `program` on the pipeline until completion and checks every
/// retirement record against the functional simulator.
fn check_equivalence(program: &Program, config: PipelineConfig, max_cycles: u64) -> (u64, u64) {
    let mut golden = FuncSim::new(program);
    let mut cpu = pipeline_with_tlbs(program, config);
    let mut retired = 0u64;
    for _ in 0..max_cycles {
        if !cpu.running() {
            break;
        }
        let report = cpu.step();
        for ev in report.events {
            match ev {
                RetireEvent::Retired(rec) => {
                    match golden.step() {
                        StepEvent::Retired(g) => {
                            assert_eq!(rec.pc, g.pc, "pc mismatch at retire #{retired}");
                            assert_eq!(
                                rec.next_pc, g.next_pc,
                                "next_pc mismatch at retire #{retired} (pc {:#x})",
                                rec.pc
                            );
                            assert_eq!(rec.raw, g.raw, "raw mismatch at {:#x}", rec.pc);
                            assert_eq!(rec.dst, g.dst, "dst mismatch at {:#x}", rec.pc);
                            assert_eq!(rec.store, g.store, "store mismatch at {:#x}", rec.pc);
                        }
                        other => panic!("golden ended early: {other:?}"),
                    }
                    retired += 1;
                }
                RetireEvent::Halted { code } => {
                    match golden.step() {
                        StepEvent::Halted { code: gcode } => assert_eq!(code, gcode),
                        other => panic!("golden did not halt: {other:?}"),
                    }
                    assert_eq!(cpu.output(), golden.output(), "output mismatch");
                    return (retired, cpu.cycles());
                }
                RetireEvent::Exception(e) => panic!("unexpected exception {e:?}"),
            }
        }
    }
    panic!(
        "pipeline did not finish within {max_cycles} cycles (retired {retired}, cycle {})",
        max_cycles
    );
}

fn exit_program(code: u64) -> Program {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::V0, syscall::EXIT);
    a.li(Reg::A0, code);
    a.callsys();
    Program::new("exit", a)
}

#[test]
fn trivial_exit() {
    let mut cpu = Pipeline::new(&exit_program(5), PipelineConfig::baseline());
    cpu.run(10_000);
    assert_eq!(cpu.halted(), Some(5));
}

#[test]
fn arithmetic_loop_equivalence() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 50);
    a.li(Reg::R3, 0);
    let top = a.here_label();
    a.addq(Reg::R3, Reg::R1, Reg::R3);
    a.mulq_i(Reg::R3, 3, Reg::R4);
    a.xor(Reg::R4, Reg::R3, Reg::R3);
    a.subq_i(Reg::R1, 1, Reg::R1);
    a.bne(Reg::R1, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R3, Reg::A0);
    a.callsys();
    let (retired, cycles) = check_equivalence(&Program::new("loop", a), PipelineConfig::baseline(), 50_000);
    assert!(retired > 200);
    assert!(cycles < 10_000);
}

#[test]
fn memory_traffic_equivalence() {
    // Stores, loads, forwarding potential, byte/word/long/quad sizes.
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 40);
    let top = a.here_label();
    a.s8addq(Reg::R2, Reg::R1, Reg::R5);
    a.stq(Reg::R2, Reg::R5, 0);
    a.ldq(Reg::R6, Reg::R5, 0); // immediate reload: exercises forwarding
    a.addq(Reg::R7, Reg::R6, Reg::R7);
    a.stl(Reg::R7, Reg::R1, 800);
    a.ldl(Reg::R8, Reg::R1, 800);
    a.stb(Reg::R8, Reg::R1, 900);
    a.ldbu(Reg::R9, Reg::R1, 900);
    a.addq(Reg::R7, Reg::R9, Reg::R7);
    a.subq_i(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R7, Reg::A0);
    a.callsys();
    check_equivalence(&Program::new("mem", a), PipelineConfig::baseline(), 100_000);
}

#[test]
fn call_return_equivalence() {
    let mut a = Asm::new(0x1_0000);
    let func = a.label();
    a.li(Reg::R9, 0);
    a.li(Reg::R10, 20);
    let top = a.here_label();
    a.bsr(Reg::RA, func);
    a.subq_i(Reg::R10, 1, Reg::R10);
    a.bne(Reg::R10, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R9, Reg::A0);
    a.callsys();
    a.bind(func);
    a.addq_i(Reg::R9, 3, Reg::R9);
    a.ret(Reg::RA);
    check_equivalence(&Program::new("call", a), PipelineConfig::baseline(), 50_000);
}

#[test]
fn data_dependent_branches_equivalence() {
    // Unpredictable branches force mispredict recovery paths.
    let mut a = Asm::new(0x1_0000);
    crate::pipeline::tests::lcg_kernel(&mut a);
    check_equivalence(&Program::new("lcg-branches", a), PipelineConfig::baseline(), 200_000);
}

/// Shared kernel: LCG-driven data-dependent branches and memory traffic.
pub(crate) fn lcg_kernel(a: &mut Asm) {
    a.li(Reg::R10, 0x12345);
    a.li(Reg::R24, 6364136223846793005);
    a.li(Reg::R25, 1442695040888963407);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R7, 300);
    a.li(Reg::R9, 0);
    let top = a.here_label();
    let skip = a.label();
    a.mulq(Reg::R10, Reg::R24, Reg::R10);
    a.addq(Reg::R10, Reg::R25, Reg::R10);
    a.srl_i(Reg::R10, 33, Reg::R4);
    a.blbc(Reg::R4, skip);
    a.and_i(Reg::R4, 0xf8, Reg::R5);
    a.addq(Reg::R1, Reg::R5, Reg::R5);
    a.stq(Reg::R4, Reg::R5, 0);
    a.ldq(Reg::R6, Reg::R5, 0);
    a.addq(Reg::R9, Reg::R6, Reg::R9);
    a.bind(skip);
    a.addq(Reg::R9, Reg::R4, Reg::R9);
    a.subq_i(Reg::R7, 1, Reg::R7);
    a.bne(Reg::R7, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R9, Reg::A0);
    a.callsys();
}

#[test]
fn cmov_equivalence() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 10);
    a.li(Reg::R2, 111);
    a.li(Reg::R3, 222);
    let top = a.here_label();
    a.and_i(Reg::R1, 1, Reg::R4);
    a.cmoveq(Reg::R4, Reg::R2, Reg::R5); // r5 = r2 if r4==0 else old r5
    a.cmovne(Reg::R4, Reg::R3, Reg::R5);
    a.addq(Reg::R6, Reg::R5, Reg::R6);
    a.subq_i(Reg::R1, 1, Reg::R1);
    a.bne(Reg::R1, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R6, Reg::A0);
    a.callsys();
    check_equivalence(&Program::new("cmov", a), PipelineConfig::baseline(), 50_000);
}

#[test]
fn write_syscall_output() {
    let mut a = Asm::new(0x1_0000);
    let data = 0x2_0000u64;
    a.li(Reg::V0, syscall::WRITE);
    a.li(Reg::A0, 1);
    a.li(Reg::A1, data);
    a.li(Reg::A2, 3);
    a.callsys();
    a.li(Reg::V0, syscall::EXIT);
    a.li(Reg::A0, 0);
    a.callsys();
    let p = Program::new("hello", a).with_data(data, b"abc".to_vec());
    check_equivalence(&p, PipelineConfig::baseline(), 20_000);
}

#[test]
fn exceptions_reach_retire() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x2_0001);
    a.ldq(Reg::R2, Reg::R1, 0); // misaligned
    let mut cpu = Pipeline::new(&Program::new("misalign", a), PipelineConfig::baseline());
    cpu.run(10_000);
    assert_eq!(cpu.exception(), Some(ExcCode::Alignment));
}

#[test]
fn overflow_exception() {
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, i64::MAX as u64);
    a.addqv(Reg::R1, Reg::R1, Reg::R2);
    a.halt();
    let mut cpu = Pipeline::new(&Program::new("ovf", a), PipelineConfig::baseline());
    cpu.run(10_000);
    assert_eq!(cpu.exception(), Some(ExcCode::Overflow));
}

#[test]
fn protected_config_equivalence() {
    // All four protections on: fault-free behaviour must be identical.
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    check_equivalence(&Program::new("protected", a), PipelineConfig::protected(), 200_000);
}

#[test]
fn deterministic_and_clonable() {
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let p = Program::new("det", a);
    let mut cpu1 = Pipeline::new(&p, PipelineConfig::baseline());
    for _ in 0..500 {
        cpu1.step();
    }
    let mut cpu2 = cpu1.clone();
    assert_eq!(fingerprint_of(&mut cpu1), fingerprint_of(&mut cpu2));
    for _ in 0..500 {
        cpu1.step();
        cpu2.step();
    }
    assert_eq!(fingerprint_of(&mut cpu1), fingerprint_of(&mut cpu2));
    assert_eq!(cpu1.instret(), cpu2.instret());
}

#[test]
fn cached_fingerprint_tracks_a_live_pipeline() {
    use tfsim_bitstate::{CachedFingerprint, Fingerprint, UnitId};
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let mut cpu = pipeline_with_tlbs(&Program::new("cachefp", a), PipelineConfig::baseline());
    let mut engine = CachedFingerprint::new();
    for _ in 0..40 {
        for _ in 0..25 {
            cpu.step();
        }
        // The cached root must equal the flat hash at every check, and the
        // per-unit subhashes must agree with a flat hierarchical walk.
        assert_eq!(engine.fingerprint(&mut cpu), fingerprint_of(&mut cpu));
        let mut flat = Fingerprint::new();
        cpu.visit_state(&mut flat);
        assert_eq!(engine.unit_hashes(), flat.unit_hashes());
        for u in UnitId::ALL {
            assert_ne!(flat.unit(u), 0, "unit {u} never visited");
        }
    }
    // In steady state the big shadow arrays are mostly clean: the cache
    // must actually be earning its keep.
    assert!(engine.hits() > 0, "no unit was ever served from cache");
}

#[test]
fn state_walk_is_stable_and_sized() {
    let mut cpu = Pipeline::new(&exit_program(0), PipelineConfig::baseline());
    let mut census = Census::new();
    cpu.visit_state(&mut census);
    let latches = census.latch_total();
    let rams = census.ram_total();
    // The paper's machine: ~14,000 latch bits and ~31,000 RAM bits.
    assert!(
        (8_000..22_000).contains(&latches),
        "latch bits far from the paper's scale: {latches}"
    );
    assert!(
        (24_000..42_000).contains(&rams),
        "RAM bits far from the paper's scale: {rams}"
    );
    // Walk must visit the same bit count every time.
    let mut c1 = BitCount::new(InjectionMask::LatchesAndRams);
    cpu.visit_state(&mut c1);
    let mut c2 = BitCount::new(InjectionMask::LatchesAndRams);
    cpu.visit_state(&mut c2);
    assert_eq!(c1.count, c2.count);
    assert_eq!(c1.count, latches + rams);
}

#[test]
fn protection_state_overhead_is_about_3k_bits() {
    let base = {
        let mut cpu = Pipeline::new(&exit_program(0), PipelineConfig::baseline());
        let mut c = Census::new();
        cpu.visit_state(&mut c);
        c.total()
    };
    let prot = {
        let mut cpu = Pipeline::new(&exit_program(0), PipelineConfig::protected());
        let mut c = Census::new();
        cpu.visit_state(&mut c);
        c
    };
    let overhead = prot.total() - base;
    // The paper reports 3,061 extra bits, roughly two-thirds RAM.
    assert!(
        (2_000..4_500).contains(&overhead),
        "protection overhead {overhead} bits is far from the paper's 3,061"
    );
    let ecc_ram = prot.bits(Category::Ecc, StorageKind::Ram);
    assert!(ecc_ram >= 640 + 4 * (64 + 96 + 32 + 32), "pointer+regfile ECC present: {ecc_ram}");
    assert!(prot.bits(Category::Parity, StorageKind::Ram) > 0);
}

#[test]
fn in_flight_never_exceeds_capacity() {
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let mut cpu = Pipeline::new(&Program::new("cap", a), PipelineConfig::baseline());
    let mut peak = 0;
    for _ in 0..2_000 {
        if !cpu.running() {
            break;
        }
        cpu.step();
        peak = peak.max(cpu.in_flight());
    }
    assert!(peak <= crate::config::sizes::MAX_IN_FLIGHT as u64, "peak {peak}");
    assert!(peak > 16, "pipeline should actually fill: peak {peak}");
}

#[test]
fn flow_log_conservation() {
    // Every fetched instruction is eventually committed or squashed (or
    // still in flight at the end).
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let mut cpu = pipeline_with_tlbs(&Program::new("flow", a), PipelineConfig::baseline());
    cpu.enable_flow_log();
    cpu.run(100_000);
    assert!(cpu.halted().is_some());
    let events = cpu.take_flow_events();
    use std::collections::BTreeMap;
    let mut state: BTreeMap<u64, u8> = BTreeMap::new();
    for ev in &events {
        match ev {
            FlowEvent::Fetch { seq, .. } => {
                assert!(state.insert(*seq, 0).is_none(), "double fetch of {seq}");
            }
            FlowEvent::Commit { seq, .. } => {
                assert_eq!(state.insert(*seq, 1), Some(0), "commit without fetch: {seq}");
            }
            FlowEvent::Squash { seq, .. } => {
                assert_eq!(state.insert(*seq, 2), Some(0), "squash without fetch: {seq}");
            }
        }
    }
    let committed = state.values().filter(|&&s| s == 1).count() as u64;
    assert_eq!(committed, cpu.instret());
}

#[test]
fn timeout_counter_recovers_artificial_deadlock() {
    // Corrupt the ROB count so retire sees a ghost entry: without the
    // watchdog the machine wedges; with it, a flush recovers.
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let p = Program::new("wedge", a);
    let mut config = PipelineConfig::baseline();
    config.timeout_counter = true;
    let mut cpu = pipeline_with_tlbs(&p, config);
    for _ in 0..200 {
        cpu.step();
    }
    // Force a wedge: mark the scheduler entries invalid while the ROB
    // still waits on them (completion signals lost).
    for i in 0..sizes::SCHEDULER {
        *cpu.sched.poke(i) = Default::default();
    }
    for op in cpu.fus.all_mut() {
        *op = Default::default();
    }
    let mut flushed = false;
    for _ in 0..400 {
        let r = cpu.step();
        if r.protective_flush {
            flushed = true;
            break;
        }
    }
    assert!(flushed, "watchdog must fire within its threshold");
    // And the program still completes correctly afterwards.
    cpu.run(200_000);
    assert!(cpu.halted().is_some(), "machine must recover and finish");
}

#[test]
fn icache_and_dcache_misses_happen() {
    // A large-stride memory walk must generate dcache misses (MHR use).
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 100);
    let top = a.here_label();
    a.ldq(Reg::R3, Reg::R1, 0);
    a.addq(Reg::R1, Reg::R3, Reg::R1); // serialize: address depends on data
    a.lda(Reg::R1, Reg::R1, 4096); // new page-ish stride: always a miss
    a.subq_i(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, top);
    a.li(Reg::V0, syscall::EXIT);
    a.li(Reg::A0, 0);
    a.callsys();
    // Widen the DTLB to cover the strided region.
    let p = Program::new("strider", a).with_data(0x10_0000, vec![0; 4096 * 101]);
    let (_, cycles) = check_equivalence(&p, PipelineConfig::baseline(), 100_000);
    // 100 misses x 8 cycles dominates: well over the hit-only time.
    assert!(cycles > 600, "expected miss latency to show: {cycles}");
}

#[test]
fn store_to_load_forwarding_bypasses_the_cache() {
    // Store then immediately reload the same address: the load must be
    // served by the store queue, not the data cache.
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 400);
    let top = a.here_label();
    a.stq(Reg::R2, Reg::R1, 0);
    a.ldq(Reg::R3, Reg::R1, 0);
    a.addq(Reg::R4, Reg::R3, Reg::R4);
    a.subq_i(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, top);
    a.li(Reg::V0, syscall::EXIT);
    a.and_i(Reg::R4, 0xff, Reg::A0);
    a.callsys();
    let p = Program::new("fwd", a).with_data(0x10_0000, vec![0u8; 64]);
    let mut golden = FuncSim::new(&p);
    golden.run(1_000_000);
    let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
    cpu.run(1_000_000);
    assert_eq!(cpu.halted(), golden.exit_code());
    let s = cpu.stats();
    // 400 loads; the vast majority must forward (no dcache access).
    assert!(
        s.dcache_accesses < 100,
        "forwarding should bypass the cache: {} accesses",
        s.dcache_accesses
    );
}

#[test]
fn speculative_wakeup_causes_replays_on_misses() {
    // Loads that miss with an immediately dependent consumer: the consumer
    // issues in the hit-speculation shadow and must replay.
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 60);
    let top = a.here_label();
    a.ldq(Reg::R3, Reg::R1, 0);
    a.addq(Reg::R4, Reg::R3, Reg::R4); // dependent: issued speculatively
    a.lda(Reg::R1, Reg::R1, 4096); // stride guarantees misses
    a.subq_i(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, top);
    a.li(Reg::V0, syscall::EXIT);
    a.li(Reg::A0, 0);
    a.callsys();
    let p = Program::new("replay", a).with_data(0x10_0000, vec![0u8; 4096 * 61]);
    let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
    cpu.run(1_000_000);
    assert_eq!(cpu.halted(), Some(0));
    let s = cpu.stats();
    assert!(s.dcache_misses >= 50, "strided loads must miss: {}", s.dcache_misses);
    assert!(s.replays > 0, "miss shadows must replay consumers: {}", s.replays);
}

#[test]
fn memory_order_violations_are_detected_and_trained_away() {
    // A store whose address resolves late (long multiply chain) aliases a
    // load that issues early: the first encounters violate; store-set
    // training then serializes them.
    let mut a = Asm::new(0x1_0000);
    a.li(Reg::R1, 0x10_0000);
    a.li(Reg::R2, 200);
    a.li(Reg::R8, 1);
    let top = a.here_label();
    // Slowly compute r5 = r1 (three dependent multiplies by 1).
    a.mulq(Reg::R1, Reg::R8, Reg::R5);
    a.mulq(Reg::R5, Reg::R8, Reg::R5);
    a.mulq(Reg::R5, Reg::R8, Reg::R5);
    a.stq(Reg::R2, Reg::R5, 0); // address known late
    a.ldq(Reg::R3, Reg::R1, 0); // same address, known immediately
    a.addq(Reg::R4, Reg::R3, Reg::R4);
    a.subq_i(Reg::R2, 1, Reg::R2);
    a.bne(Reg::R2, top);
    a.li(Reg::V0, syscall::EXIT);
    a.and_i(Reg::R4, 0xff, Reg::A0);
    a.callsys();
    let p = Program::new("violate", a).with_data(0x10_0000, vec![0u8; 64]);
    let mut golden = FuncSim::new(&p);
    golden.run(1_000_000);
    let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
    cpu.run(1_000_000);
    assert_eq!(cpu.halted(), golden.exit_code(), "recovery must preserve correctness");
    let s = cpu.stats();
    assert!(s.violations > 0, "the aliasing pattern must trip at least one violation");
    assert!(
        s.violations < 100,
        "store sets must learn the dependence: {} violations in 200 iterations",
        s.violations
    );
}

#[test]
fn stats_accessors_are_consistent() {
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let mut cpu = pipeline_with_tlbs(&Program::new("stats", a), PipelineConfig::baseline());
    cpu.run(200_000);
    let s = cpu.stats();
    assert!(s.branches_resolved > 100);
    assert!(s.branch_mispredicts <= s.branches_resolved);
    assert!(s.dcache_misses <= s.dcache_accesses);
    assert!((0.0..=1.0).contains(&s.branch_prediction_rate()));
    assert!((0.0..=1.0).contains(&s.dcache_hit_rate()));
    assert_eq!(s.full_flushes, 0, "fault-free baseline runs never flush");
}

#[test]
fn indirect_jump_table_equivalence() {
    // A computed dispatch through JMP exercises the BTB-predicted
    // indirect path (cold mispredicts, then learned targets).
    let mut a = Asm::new(0x1_0000);
    let table = 0x10_0000u64;
    a.li(Reg::R20, table);
    a.li(Reg::R10, 0x1234_5678);
    a.li(Reg::R7, 60);
    a.li(Reg::R9, 0);
    let top = a.here_label();
    let case0 = a.label();
    let case1 = a.label();
    let case2 = a.label();
    let join = a.label();
    // idx = lcg & 3 (case 3 aliases case 0 in the table)
    a.mulq_i(Reg::R10, 13, Reg::R10);
    a.addq_i(Reg::R10, 5, Reg::R10);
    a.srl_i(Reg::R10, 9, Reg::R4);
    a.and_i(Reg::R4, 3, Reg::R4);
    a.s8addq(Reg::R4, Reg::R20, Reg::R5);
    a.ldq(Reg::R6, Reg::R5, 0);
    a.jmp(Reg::R31, Reg::R6);
    a.bind(case0);
    a.addq_i(Reg::R9, 1, Reg::R9);
    a.br(join);
    a.bind(case1);
    a.addq_i(Reg::R9, 10, Reg::R9);
    a.br(join);
    a.bind(case2);
    a.mulq_i(Reg::R9, 3, Reg::R9);
    a.bind(join);
    a.subq_i(Reg::R7, 1, Reg::R7);
    a.bne(Reg::R7, top);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R9, Reg::A0);
    a.callsys();
    // Resolve the case label addresses into the jump table. Labels are
    // private to Asm, so rebuild: assemble once to learn addresses via a
    // disassembly-free trick — instead, lay out the table by convention:
    // the three cases start at fixed offsets we can compute from the
    // instruction count. Simpler: encode the table after finishing using
    // the known layout (cases are in order after the jmp).
    let p = Program::new("jumptable", a);
    // Find the jmp word, then case0 = jmp_pc + 4, case1 = case0 + 8,
    // case2 = case1 + 8 (each case: op + br, except case2: op only).
    let code = &p.sections[0];
    let words: Vec<u32> = code
        .bytes
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let jmp_idx = words
        .iter()
        .position(|&w| tfsim_isa::decode(w).mnemonic == tfsim_isa::Mnemonic::Jmp)
        .expect("jmp present");
    let case0_pc = code.addr + 4 * (jmp_idx as u64 + 1);
    let targets = [case0_pc, case0_pc + 8, case0_pc + 16, case0_pc];
    let p = p.with_data_words(0x10_0000, &targets);
    check_equivalence(&p, PipelineConfig::baseline(), 200_000);
}

#[test]
fn deep_call_recursion_overflows_the_ras_gracefully() {
    // 12 levels of recursion overflow the 8-entry RAS: predictions go
    // wrong (wrapped stack) but execution must stay correct.
    let mut a = Asm::new(0x1_0000);
    let func = a.label();
    a.li(Reg::R16, 12); // depth
    a.li(Reg::R9, 0);
    a.li(Reg::R30, 0x20_0000); // stack
    a.bsr(Reg::RA, func);
    a.li(Reg::V0, syscall::EXIT);
    a.mov(Reg::R9, Reg::A0);
    a.callsys();
    a.bind(func);
    let base = a.label();
    a.stq(Reg::RA, Reg::R30, 0);
    a.lda(Reg::R30, Reg::R30, -16);
    a.addq(Reg::R9, Reg::R16, Reg::R9);
    a.beq(Reg::R16, base);
    a.subq_i(Reg::R16, 1, Reg::R16);
    a.bsr(Reg::RA, func);
    a.bind(base);
    a.lda(Reg::R30, Reg::R30, 16);
    a.ldq(Reg::RA, Reg::R30, 0);
    a.ret(Reg::RA);
    let p = Program::new("recurse", a).with_data(0x1F_0000, vec![0u8; 0x1_0400]);
    check_equivalence(&p, PipelineConfig::baseline(), 100_000);
}

#[test]
fn architectural_register_dump_matches_functional_simulator() {
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let p = Program::new("archdump", a);
    let mut golden = FuncSim::new(&p);
    golden.run(10_000_000);
    let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
    cpu.run(10_000_000);
    assert_eq!(cpu.halted(), golden.exit_code());
    let regs = cpu.arch_regs();
    for (i, (&mine, &theirs)) in regs.iter().zip(golden.state.regs().iter()).enumerate() {
        assert_eq!(mine, theirs, "architectural register r{i} diverged at halt");
    }
}

#[test]
fn rename_state_partition_invariant_after_halt() {
    // After running a mispredict/flush-heavy program to completion, the 80
    // physical registers must partition exactly between the architectural
    // map (32) and the free list (48), with spec == arch.
    for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
        let mut a = Asm::new(0x1_0000);
        lcg_kernel(&mut a);
        let mut cpu = pipeline_with_tlbs(&Program::new("inv", a), config);
        cpu.run(10_000_000);
        assert!(cpu.halted().is_some());
        assert!(
            cpu.rename_state_consistent(),
            "rename partition violated after fault-free run ({config:?})"
        );
    }
}

#[test]
fn invariants_hold_throughout_a_fault_free_run() {
    // check_invariants() must never fire on an uncorrupted machine: it is
    // the oracle the corruption tests below use, so a false positive here
    // would make them meaningless.
    for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
        let mut a = Asm::new(0x1_0000);
        lcg_kernel(&mut a);
        let mut cpu = pipeline_with_tlbs(&Program::new("inv-clean", a), config);
        let mut cycles = 0u64;
        while cpu.running() && cycles < 200_000 {
            cpu.step();
            cycles += 1;
            if cycles.is_multiple_of(64) {
                let v = cpu.check_invariants();
                assert!(v.is_empty(), "fault-free violation at cycle {cycles}: {v:?}");
            }
        }
        assert!(cpu.halted().is_some());
        assert!(cpu.check_invariants().is_empty());
    }
}

#[test]
fn corrupted_pipelines_step_without_panicking() {
    // The corrupted-state hardening contract: *any* single-bit flip of
    // eligible state, injected at any of the sampled points, must leave a
    // machine that keeps stepping (mask the index, stall the stage, or
    // raise an exception) — never one that unwinds. Violations are
    // enumerable through check_invariants(), not through panics.
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let p = Program::new("inv-corrupt", a);
    let warm = {
        let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
        for _ in 0..400 {
            cpu.step();
        }
        cpu
    };
    let mut bits = BitCount::new(InjectionMask::LatchesAndRams);
    warm.clone().visit_state(&mut bits);
    assert!(bits.count > 0);

    // Deterministic in-test LCG (the uarch crate has no PRNG dependency).
    let mut x = 0x0020_04D5_2004_u64;
    let mut rand = move || {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        x >> 16
    };
    for trial in 0..200 {
        let mut victim = warm.clone();
        let target = rand() % bits.count;
        let mut flip = tfsim_bitstate::FlipBit::new(InjectionMask::LatchesAndRams, target);
        victim.visit_state(&mut flip);
        assert!(flip.flipped.is_some(), "trial {trial}: target {target} out of range");
        // Violations a flip causes are enumerable, never fatal (the
        // planted-corruption test below validates the oracle itself).
        let _ = victim.check_invariants();
        // A second flip sometimes lands in state the first corrupted,
        // reaching double-fault interactions a lone upset cannot.
        if trial % 3 == 0 {
            let mut flip2 =
                tfsim_bitstate::FlipBit::new(InjectionMask::LatchesAndRams, rand() % bits.count);
            victim.visit_state(&mut flip2);
        }
        for _ in 0..300 {
            if !victim.running() {
                break;
            }
            victim.step();
        }
        let _ = victim.check_invariants();
    }
}

#[test]
fn check_invariants_flags_planted_corruptions() {
    let mut a = Asm::new(0x1_0000);
    lcg_kernel(&mut a);
    let p = Program::new("inv-plant", a);
    let mut cpu = pipeline_with_tlbs(&p, PipelineConfig::baseline());
    for _ in 0..200 {
        cpu.step();
    }
    assert!(cpu.check_invariants().is_empty());

    // Ring corruption: push the fetch-queue head out of range.
    let mut broken = cpu.clone();
    broken.fq.head = sizes::FETCH_QUEUE as u64 + 3;
    let v = broken.check_invariants();
    assert!(
        v.iter().any(|m| m.contains("fetch-queue")),
        "fetch-queue corruption not flagged: {v:?}"
    );

    // Pointer corruption: an out-of-range destination preg in the ROB.
    let mut broken = cpu.clone();
    let slot = (0..sizes::ROB).find(|&i| broken.rob.peek(i as u64).has_dst);
    if let Some(i) = slot {
        broken.rob.poke(i as u64).dst_preg = 0x7f;
        let v = broken.check_invariants();
        assert!(v.iter().any(|m| m.contains("rob")), "rob preg corruption not flagged: {v:?}");
    }

    // Occupancy corruption: count disagreeing with head/tail.
    let mut broken = cpu.clone();
    broken.rob.count = (broken.rob.count + 1) % (sizes::ROB as u64 + 1);
    assert!(!broken.check_invariants().is_empty(), "rob count corruption not flagged");
}

// --- Access-log ordinal pinning -----------------------------------------
//
// The fast trial engine trusts `drain_accesses` to name, in *visit
// order*, exactly the unit-local field each structure access touched. These
// tests pin that mapping against the real state walk: perform an operation
// twice — once untracked (diffing full field dumps to find which fields
// actually changed) and once tracked (collecting drained events) — and
// require every changed field to be covered by a logged write.

mod access_ordinals {
    use super::*;
    use std::collections::BTreeSet;
    use tfsim_bitstate::{FieldMeta, StateVisitor, UnitId};
    use crate::exec::schedw;
    use crate::queues::{lqw, sqw, LqEntry, RobEntry, SlotPayload, SqEntry};

    /// A set of words, by `(unit, within-unit field ordinal)`.
    type WordSet = BTreeSet<(UnitId, u32)>;

    /// Records `(unit, within-unit field ordinal, value)` for every field.
    struct FieldDump {
        fields: Vec<(Option<UnitId>, u32, u64)>,
        unit: Option<UnitId>,
        ord: u32,
    }

    impl StateVisitor for FieldDump {
        fn field(&mut self, _meta: FieldMeta, _width: u32, bits: &mut u64) {
            self.fields.push((self.unit, self.ord, *bits));
            self.ord += 1;
        }
        fn enter_unit(&mut self, unit: UnitId, _gen: u64) -> bool {
            self.unit = Some(unit);
            self.ord = 0;
            true
        }
        fn exit_unit(&mut self, _unit: UnitId) {
            self.unit = None;
        }
    }

    fn dump(cpu: &mut Pipeline) -> Vec<(Option<UnitId>, u32, u64)> {
        let mut d = FieldDump { fields: Vec::new(), unit: None, ord: 0 };
        cpu.visit_state(&mut d);
        d.fields
    }

    fn tiny_pipeline(config: PipelineConfig) -> Pipeline {
        let mut a = Asm::new(0x1_0000);
        a.li(Reg::R0, 1);
        a.li(Reg::R16, 0);
        a.callsys();
        Pipeline::new(&Program::new("tiny", a), config)
    }

    /// Runs `op` untracked and diffs the state walk; runs it again tracked
    /// and drains. Asserts every changed field is covered by a logged
    /// write, and returns the (reads, writes) event sets.
    /// Whether a (unit, within-unit visit ordinal) pair is in the tracked
    /// range of the access log. Untracked words (LSQ ring pointers, regfile
    /// ECC syndromes, ArchCtrl spec-ready/arch-pc/watchdog latches) are
    /// never logged by design; coverage assertions must exempt them.
    fn is_tracked(config: PipelineConfig, u: UnitId, o: u32) -> bool {
        match u {
            UnitId::Lsq => {
                let tracked_words = sizes::LOAD_QUEUE as u32 * lq_words(config)
                    + sizes::STORE_QUEUE as u32 * sqw::WORDS;
                o < tracked_words
            }
            UnitId::Regfile => o < 3 * sizes::PHYS_REGS as u32,
            UnitId::ArchCtrl => {
                let mhr_base = sizes::PHYS_REGS as u32;
                (mhr_base..mhr_base + sizes::MHRS as u32 * 3).contains(&o)
            }
            _ => false,
        }
    }

    fn check_writes_cover_changes(
        config: PipelineConfig,
        op: &dyn Fn(&mut Pipeline),
    ) -> (WordSet, WordSet) {
        let mut plain = tiny_pipeline(config);
        let before = dump(&mut plain);
        op(&mut plain);
        let after = dump(&mut plain);
        assert_eq!(before.len(), after.len(), "visit shape changed");
        let changed: WordSet = before
            .iter()
            .zip(after.iter())
            .filter(|(b, a)| b.2 != a.2)
            .map(|(_, a)| (a.0.expect("changed field outside any unit"), a.1))
            .collect();

        let mut tracked = tiny_pipeline(config);
        tracked.set_access_tracking(true);
        op(&mut tracked);
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        tracked.drain_accesses(&mut |u, o, w| {
            if w {
                writes.insert((u, o));
            } else {
                reads.insert((u, o));
            }
        });
        for c in &changed {
            if !is_tracked(config, c.0, c.1) {
                continue;
            }
            assert!(
                writes.contains(c),
                "changed field {c:?} not covered by a logged write\nchanged: {changed:?}\nwrites: {writes:?}"
            );
        }
        (reads, writes)
    }

    fn lq_words(config: PipelineConfig) -> u32 {
        if config.pointer_ecc {
            lqw::WORDS
        } else {
            lqw::WORDS - 1
        }
    }

    #[test]
    fn lq_field_writes_pin_to_visit_ordinals() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let lw = lq_words(config);
            let (_, writes) =
                check_writes_cover_changes(config, &|cpu| cpu.lsq.set_lq_addr(3, 0xbeef_0008));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Lsq, 3 * lw + lqw::ADDR)]
            );
            let (_, writes) =
                check_writes_cover_changes(config, &|cpu| cpu.lsq.set_lq_fwd_value(7, 99));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Lsq, 7 * lw + lqw::FWD_VALUE)]
            );
        }
    }

    #[test]
    fn sq_field_writes_pin_to_visit_ordinals() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sq_base = sizes::LOAD_QUEUE as u32 * lq_words(config);
            let (_, writes) =
                check_writes_cover_changes(config, &|cpu| cpu.lsq.set_sq_data(5, 0x1234));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Lsq, sq_base + 5 * sqw::WORDS + sqw::DATA)]
            );
            let (_, writes) =
                check_writes_cover_changes(config, &|cpu| cpu.lsq.set_sq_senior(15, true));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Lsq, sq_base + 15 * sqw::WORDS + sqw::SENIOR)]
            );
        }
    }

    #[test]
    fn dst_ecc_events_exist_only_under_pointer_ecc() {
        let mut cpu = tiny_pipeline(PipelineConfig::baseline());
        cpu.set_access_tracking(true);
        let _ = cpu.lsq.lq_dst_ecc(3);
        let mut events = Vec::new();
        cpu.drain_accesses(&mut |u, o, w| events.push((u, o, w)));
        assert!(events.is_empty(), "dst_ecc is absent from the baseline walk: {events:?}");

        let mut cpu = tiny_pipeline(PipelineConfig::protected());
        cpu.set_access_tracking(true);
        let _ = cpu.lsq.lq_dst_ecc(3);
        let mut events = Vec::new();
        cpu.drain_accesses(&mut |u, o, w| events.push((u, o, w)));
        assert_eq!(events, vec![(UnitId::Lsq, 3 * lqw::WORDS + lqw::DST_ECC, false)]);
    }

    #[test]
    fn regfile_writes_pin_to_visit_ordinals() {
        // Baseline: a register write touches the value and the extra bit.
        let (_, writes) =
            check_writes_cover_changes(PipelineConfig::baseline(), &|cpu| {
                cpu.regfile.write(42, 0x5555)
            });
        assert_eq!(
            writes.into_iter().collect::<Vec<_>>(),
            vec![(UnitId::Regfile, 42), (UnitId::Regfile, 80 + 42)]
        );
        // Scoreboard bits sit after the 2x80 entry fields.
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let (_, writes) =
                check_writes_cover_changes(config, &|cpu| cpu.regfile.set_ready(60, true));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Regfile, 160 + 60)]
            );
        }
    }

    #[test]
    fn regfile_ecc_write_changes_stay_within_logged_or_untracked_words() {
        // With register-file ECC the write also dirties the (untracked)
        // stale-tracking latches; those visit ordinals must all be >= 240
        // so the engine can prove a flip there never rides.
        let config = PipelineConfig {
            regfile_ecc: true,
            ..PipelineConfig::baseline()
        };
        let mut plain = tiny_pipeline(config);
        let before = dump(&mut plain);
        plain.regfile.write(42, 0x5555);
        let after = dump(&mut plain);
        for ((bu, bo, bv), (_, _, av)) in before.iter().zip(after.iter()) {
            if bv != av && *bu == Some(UnitId::Regfile) && *bo < 240 {
                assert!(
                    *bo == 42 || *bo == 80 + 42,
                    "unexpected tracked-regfile change at ordinal {bo}"
                );
            }
        }
    }

    #[test]
    fn mhr_ops_pin_to_archctrl_ordinals() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let (reads, writes) =
                check_writes_cover_changes(config, &|cpu| {
                    assert!(cpu.mhrs.allocate(0x4_0040));
                });
            // Entry 0 allocates: valid/addr/timer at ArchCtrl 80..83.
            for w in [80u32, 81, 82] {
                assert!(writes.contains(&(UnitId::ArchCtrl, w)), "missing write {w}: {writes:?}");
            }
            // The duplicate-line scan read every entry's valid and addr.
            assert!(reads.contains(&(UnitId::ArchCtrl, 80)));
            assert!(reads.contains(&(UnitId::ArchCtrl, 80 + 15 * 3 + 1)));
        }
    }

    #[test]
    fn queue_bulk_ops_cover_all_changed_words() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            check_writes_cover_changes(config, &|cpu| {
                cpu.lsq.alloc_load(LqEntry {
                    addr: 0x8000,
                    rob: 7,
                    dst_preg: 33,
                    pc: 0x1_0000,
                    raw: 0xa000_0000,
                    ..Default::default()
                });
            });
            check_writes_cover_changes(config, &|cpu| {
                cpu.lsq.alloc_store(SqEntry {
                    addr: 0x8100,
                    data: 5,
                    rob: 9,
                    pc: 0x1_0004,
                    ..Default::default()
                });
            });
            check_writes_cover_changes(config, &|cpu| {
                cpu.lsq.alloc_load(LqEntry { addr: 0x40, rob: 1, ..Default::default() });
                cpu.lsq.alloc_store(SqEntry {
                    addr: 0x80,
                    senior: false,
                    rob: 2,
                    ..Default::default()
                });
                cpu.lsq.flush_keep_senior();
            });
            check_writes_cover_changes(config, &|cpu| {
                cpu.regfile.all_ready();
                cpu.mhrs.clear();
            });
        }
    }

    // --- Extended tier ---------------------------------------------------
    //
    // The analytic masking pruner builds its footprint from the *extended*
    // tracking tier (fetch queue, rename structures, scheduler, ROB on top
    // of the core set). Its soundness contract is weaker on the write side
    // than the core tier's: structures may under-claim writes by logging a
    // read instead (a spurious read only demotes a lane from heal to peel,
    // which is always simulated). What must never happen is a tracked word
    // changing with *no* event at all — that would let the pruner prove a
    // "ride" for a word the machine actually touched.

    /// Runs `op` untracked and diffs the state walk; runs it again with
    /// extended tracking and drains. Asserts every changed
    /// extended-tracked field is covered by *some* logged event, and
    /// returns the (reads, writes) event sets.
    fn check_extended_events(
        config: PipelineConfig,
        op: &dyn Fn(&mut Pipeline),
    ) -> (WordSet, WordSet) {
        let mut plain = tiny_pipeline(config);
        let before = dump(&mut plain);
        op(&mut plain);
        let after = dump(&mut plain);
        assert_eq!(before.len(), after.len(), "visit shape changed");

        let mut tracked = tiny_pipeline(config);
        tracked.set_access_tracking_extended(true);
        op(&mut tracked);
        let mut reads = BTreeSet::new();
        let mut writes = BTreeSet::new();
        tracked.drain_accesses_extended(&mut |u, o, w| {
            if w {
                writes.insert((u, o));
            } else {
                reads.insert((u, o));
            }
        });
        for ((bu, bo, bv), (_, _, av)) in before.iter().zip(after.iter()) {
            if bv != av {
                let u = bu.expect("changed field outside any unit");
                if tracked.access_tracked_extended(u, *bo) {
                    assert!(
                        writes.contains(&(u, *bo)) || reads.contains(&(u, *bo)),
                        "changed extended-tracked {u:?} ordinal {bo} with no logged event\nreads: {reads:?}\nwrites: {writes:?}"
                    );
                }
            }
        }
        (reads, writes)
    }

    #[test]
    fn sched_word_ops_pin_to_visit_ordinals() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let vw = if config.pointer_ecc { schedw::WORDS } else { schedw::WORDS - 4 };
            let (_, writes) =
                check_extended_events(config, &|cpu| cpu.sched.set_issued(2, true));
            assert_eq!(
                writes.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Sched, 2 * vw + schedw::ISSUED)]
            );
            let (reads, _) = check_extended_events(config, &|cpu| {
                let _ = cpu.sched.src(2, 1);
            });
            assert_eq!(
                reads.into_iter().collect::<Vec<_>>(),
                vec![(UnitId::Sched, 2 * vw + schedw::src(1))]
            );
        }
    }

    #[test]
    fn rat_writes_pin_to_rename_visit_ordinals() {
        // The speculative RAT is the first block of the Rename unit; its
        // map words sit at the architectural register index, the ECC
        // syndromes (protected config only) directly after the map.
        let (_, writes) = check_extended_events(PipelineConfig::baseline(), &|cpu| {
            cpu.spec_rat.write(5, 33);
        });
        assert_eq!(writes.into_iter().collect::<Vec<_>>(), vec![(UnitId::Rename, 5)]);
        let (_, writes) = check_extended_events(PipelineConfig::protected(), &|cpu| {
            cpu.spec_rat.write(5, 33);
        });
        assert_eq!(
            writes.into_iter().collect::<Vec<_>>(),
            vec![(UnitId::Rename, 5), (UnitId::Rename, crate::rename::Rat::ECC_BASE + 5)]
        );
    }

    #[test]
    fn fq_push_expands_to_slot_words() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let sw = 8 + config.insn_parity as u32;
            let fq_base = 6 + 3 * sizes::FETCH_WIDTH as u32 * sw;
            let (_, writes) = check_extended_events(config, &|cpu| {
                cpu.fq.push(SlotPayload { valid: true, pc: 0x40, ..Default::default() });
            });
            // A fresh queue pushes into slot 0: the write expands to every
            // visit word of that slot.
            let expect: BTreeSet<_> =
                (0..sw).map(|k| (UnitId::Front, fq_base + k)).collect();
            assert_eq!(writes, expect);
        }
    }

    #[test]
    fn rob_alloc_expands_to_entry_words() {
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let vw = 16 + config.insn_parity as u32
                + if config.pointer_ecc { 2 } else { 0 };
            let (_, writes) = check_extended_events(config, &|cpu| {
                cpu.rob.alloc(RobEntry { pc: 0x1_0040, completed: true, ..Default::default() });
            });
            // A fresh ROB allocates tag 0.
            let expect: BTreeSet<_> = (0..vw).map(|k| (UnitId::Rob, k)).collect();
            assert_eq!(writes, expect);
        }
    }

    #[test]
    fn extended_stepping_covers_all_tracked_changes() {
        // Integration for the pruner's footprint: run real cycles (store,
        // load, a loop branch) with extended tracking on; every change the
        // step made to an extended-tracked word must come with some logged
        // event that cycle.
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let build = || {
                let mut a = Asm::new(0x1_0000);
                a.li(Reg::R1, 0x10_0000);
                a.li(Reg::R2, 6);
                let top = a.here_label();
                a.stq(Reg::R2, Reg::R1, 0);
                a.ldq(Reg::R3, Reg::R1, 0);
                a.subq_i(Reg::R2, 1, Reg::R2);
                a.bne(Reg::R2, top);
                a.halt();
                let p = Program::new("loopy", a).with_data(0x10_0000, vec![0u8; 64]);
                Pipeline::new(&p, config)
            };
            let mut plain = build();
            let mut tracked = build();
            tracked.set_access_tracking_extended(true);
            for _ in 0..80 {
                let before = dump(&mut plain);
                plain.step();
                let after = dump(&mut plain);
                tracked.step();
                let mut events = BTreeSet::new();
                tracked.drain_accesses_extended(&mut |u, o, _| {
                    events.insert((u, o));
                });
                for ((bu, bo, bv), (_, _, av)) in before.iter().zip(after.iter()) {
                    if bv != av {
                        if let Some(u) = bu {
                            if tracked.access_tracked_extended(*u, *bo) {
                                assert!(
                                    events.contains(&(*u, *bo)),
                                    "cycle changed extended-tracked {u:?} ordinal {bo} without logging"
                                );
                            }
                        }
                    }
                }
                if !plain.running() {
                    break;
                }
            }
            assert!(!plain.running(), "workload did not finish");
        }
    }

    #[test]
    fn loggability_tiers_match_tracking_coverage() {
        // The per-unit `Loggability` declaration must agree with what the
        // two drain tiers actually cover: Core units have tracked words in
        // both tiers, Extended units only in the extended tier, and
        // Unlogged/Shadow units in neither.
        use tfsim_bitstate::Loggability;
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let cpu = tiny_pipeline(config);
            for unit in UnitId::ALL {
                let core = (0..4096).any(|o| cpu.access_tracked(unit, o));
                let extended = (0..4096).any(|o| cpu.access_tracked_extended(unit, o));
                // The extended tier is a superset of the core tier.
                for o in 0..4096 {
                    assert!(
                        !cpu.access_tracked(unit, o) || cpu.access_tracked_extended(unit, o),
                        "{unit:?} ordinal {o} tracked in core but not extended"
                    );
                }
                match unit.loggability() {
                    Loggability::Core => {
                        assert!(core, "{unit:?} declares Core but has no core-tracked words");
                    }
                    Loggability::Extended => {
                        assert!(!core, "{unit:?} declares Extended but is core-tracked");
                        assert!(
                            extended,
                            "{unit:?} declares Extended but has no extended-tracked words"
                        );
                    }
                    Loggability::Unlogged | Loggability::Shadow => {
                        assert!(
                            !extended,
                            "{unit:?} declares {:?} but has tracked words",
                            unit.loggability()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn stepping_with_tracking_covers_all_tracked_changes() {
        // Integration: run real cycles with tracking on; every change the
        // step made to a tracked word must be covered by a logged write or
        // preceded by nothing at all (un-logged structures are exempt).
        for config in [PipelineConfig::baseline(), PipelineConfig::protected()] {
            let mut plain = tiny_pipeline(config);
            let mut tracked = tiny_pipeline(config);
            tracked.set_access_tracking(true);
            for _ in 0..40 {
                let before = dump(&mut plain);
                plain.step();
                let after = dump(&mut plain);
                tracked.step();
                let mut writes = BTreeSet::new();
                tracked.drain_accesses(&mut |u, o, w| {
                    if w {
                        writes.insert((u, o));
                    }
                });
                let tracked_change_covered =
                    |u: UnitId, o: u32| -> bool { !is_tracked(config, u, o) || writes.contains(&(u, o)) };
                for ((bu, bo, bv), (_, _, av)) in before.iter().zip(after.iter()) {
                    if bv != av {
                        if let Some(u) = bu {
                            assert!(
                                tracked_change_covered(*u, *bo),
                                "cycle changed tracked {u:?} ordinal {bo} without logging a write"
                            );
                        }
                    }
                }
                if !plain.running() {
                    break;
                }
            }
        }
    }
}
