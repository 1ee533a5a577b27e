//! The memory phase: senior-store drain, MHR fills, instruction-cache
//! fills, address generation, store-to-load forwarding, bank-arbitrated
//! data-cache access, memory-order violation detection, and load data
//! delivery.
//!
//! LSQ state is consumed exclusively through the logged accessors so the
//! fast trial engine can see exactly which queue words each cycle
//! touched. Boolean short-circuits are kept bitwise-identical to the
//! pre-accessor code so the *set* of logged reads is the set of words the
//! cycle's outcome actually depended on.

use tfsim_isa::{alu, decode};
use tfsim_mem::is_aligned;

use crate::config::sizes;
use crate::exec::{FuBank, FuClass, FuOp};
use crate::queues::{range_contains, ranges_overlap, ExcCode, LoadState};

use super::Pipeline;

impl Pipeline {
    /// Load data delivery. Runs *before* writeback each cycle so a
    /// consumer completing this cycle sees the data (bypass); hit/miss is
    /// determined here, at the end of the cache-access shadow, which is
    /// what gives speculatively woken consumers something to replay on.
    pub(crate) fn memory_deliver_phase(&mut self) {
        for i in 0..sizes::LOAD_QUEUE {
            if !(self.lsq.lq_valid(i) && self.lsq.lq_inflight(i)) {
                continue;
            }
            let timer = self.lsq.lq_data_timer(i);
            if timer > 1 {
                self.lsq.set_lq_data_timer(i, timer - 1);
                continue;
            }
            self.lsq.set_lq_inflight(i, false);
            self.lsq.set_lq_data_timer(i, 0);
            if self.lsq.lq_forwarded(i) {
                self.deliver_load(i);
                continue;
            }
            // End of the access shadow: resolve hit or miss now.
            let addr = self.lsq.lq_addr(i);
            let dst = self.lsq.lq_dst_preg(i);
            if self.mhrs.pending(addr) {
                self.lsq.set_lq_fill_wait(i, true);
                if let Some(b) = self.spec_ready.get_mut(dst as usize) {
                    *b = false;
                }
            } else if self.dcache.access(addr) {
                self.deliver_load(i);
            } else {
                self.stats.dcache_misses += 1;
                if self.mhrs.allocate(addr) {
                    self.lsq.set_lq_fill_wait(i, true);
                    // The hit speculation failed: consumers must replay.
                    if let Some(b) = self.spec_ready.get_mut(dst as usize) {
                        *b = false;
                    }
                }
            }
            // MHRs exhausted: the entry returns to Access state and the
            // retry pass re-initiates the probe next cycle.
        }
    }

    pub(crate) fn memory_phase(&mut self) {
        self.drain_senior_store();

        // Completed line fills install tags and release waiting loads.
        for line in self.mhrs.tick() {
            self.dcache.fill(line);
            for i in 0..sizes::LOAD_QUEUE {
                if self.lsq.lq_valid(i)
                    && self.lsq.lq_fill_wait(i)
                    && (self.lsq.lq_addr(i) & !(sizes::LINE_BYTES - 1)) == line
                {
                    self.lsq.set_lq_fill_wait(i, false);
                    self.lsq.set_lq_inflight(i, true);
                    self.lsq.set_lq_data_timer(i, 1);
                }
            }
        }

        // Instruction-cache fill in progress.
        if self.ifill_valid {
            if self.ifill_timer <= 1 {
                let addr = self.ifill_addr;
                self.icache.fill(addr);
                self.ifill_valid = false;
                self.ifill_addr = 0;
                self.ifill_timer = 0;
            } else {
                self.ifill_timer -= 1;
            }
        }

        // Address generation, oldest first.
        for r in self.completing_ops(&[3]) {
            let slot = FuBank::flat(r.0, r.1);
            if !self.fus.valid(slot) {
                continue; // squashed by a violation handled this phase
            }
            if self.replay_if_stale(r) {
                continue;
            }
            let op = self.fus.take_op(slot);
            match FuClass::from_bits(op.class) {
                FuClass::Store => self.agu_store(op),
                _ => self.agu_load(op),
            }
            if !self.running() {
                return;
            }
        }

        // Per-cycle cache port budget: dual-ported via 8 banks.
        let mut bank_used = [false; sizes::DCACHE_BANKS as usize];
        let mut ports = 2u32;

        // Loads with known addresses retry until they get data.
        for i in 0..sizes::LOAD_QUEUE {
            if self.lsq.lq_valid(i)
                && self.lsq.lq_state(i) == LoadState::Access
                && !self.lsq.lq_inflight(i)
                && !self.lsq.lq_fill_wait(i)
            {
                self.try_load_access(i, &mut bank_used, &mut ports);
            }
        }
    }

    /// Writes the oldest senior store through to memory (one per cycle).
    fn drain_senior_store(&mut self) {
        if self.lsq.sq_count.min(sizes::STORE_QUEUE as u64) == 0 {
            return;
        }
        let head = (self.lsq.sq_head % sizes::STORE_QUEUE as u64) as usize;
        if !self.lsq.sq_valid(head) || !self.lsq.sq_senior(head) {
            return;
        }
        let addr = self.lsq.sq_addr(head);
        let data = self.lsq.sq_data(head);
        let size = self.lsq.sq_size(head);
        self.mem.write_sized(addr, data, size);
        // Write-through: cache data always equals memory, so only the tag
        // state could change — stores do not allocate.
        self.lsq.clear_sq(head);
        self.lsq.sq_head = (self.lsq.sq_head + 1) % sizes::STORE_QUEUE as u64;
        self.lsq.sq_count = (self.lsq.sq_count - 1) & 0x1f;
    }

    /// Address generation for a load.
    fn agu_load(&mut self, op: FuOp) {
        let insn = decode(op.raw as u32);
        let addr = op.a.wrapping_add(insn.imm as u64);
        let li = (op.lsq as usize) % sizes::LOAD_QUEUE;
        let size = self.lsq.lq_size(li);

        if !is_aligned(addr, size) {
            self.finish_load_with_exception(li, op, ExcCode::Alignment);
            return;
        }
        if !self.dtlb.covers(addr, size) {
            self.finish_load_with_exception(li, op, ExcCode::Dtlb);
            return;
        }
        self.lsq.set_lq_addr(li, addr);
        self.lsq.set_lq_state(li, LoadState::Access);
        self.lsq.set_lq_sched(li, op.sched);
        // Speculative wakeup: from here consumers may issue assuming a
        // hit; the delivery phase replays them if the access misses.
        if op.has_dst {
            if let Some(b) = self.spec_ready.get_mut(op.dst_preg as usize) {
                *b = true;
            }
        }
        let mut bank_used = [false; sizes::DCACHE_BANKS as usize];
        let mut ports = 1u32;
        self.try_load_access(li, &mut bank_used, &mut ports);
    }

    fn finish_load_with_exception(&mut self, li: usize, op: FuOp, exc: ExcCode) {
        self.lsq.set_lq_state(li, LoadState::Done);
        let rob = self.rob.entry_mut(op.rob);
        rob.exc = exc as u64;
        rob.completed = true;
        if op.has_dst {
            // The destination never produces; end the wakeup window so
            // consumers wait (they can only retire after the exception
            // flushes anyway).
            if let Some(b) = self.spec_ready.get_mut(op.dst_preg as usize) {
                *b = false;
            }
        }
        self.free_sched(op.sched, op.rob);
    }

    /// Address generation for a store: capture address and data, complete
    /// the store, and check younger loads for memory-order violations.
    fn agu_store(&mut self, op: FuOp) {
        let insn = decode(op.raw as u32);
        let addr = op.b.wrapping_add(insn.imm as u64);
        let si = (op.lsq as usize) % sizes::STORE_QUEUE;
        let size = self.lsq.sq_size(si);

        if !is_aligned(addr, size) || !self.dtlb.covers(addr, size) {
            let exc = if !is_aligned(addr, size) { ExcCode::Alignment } else { ExcCode::Dtlb };
            let rob = self.rob.entry_mut(op.rob);
            rob.exc = exc as u64;
            rob.completed = true;
            self.free_sched(op.sched, op.rob);
            return;
        }

        self.lsq.set_sq_addr(si, addr);
        self.lsq.set_sq_addr_valid(si, true);
        self.lsq.set_sq_data(si, op.a);
        self.lsq.set_sq_data_valid(si, true);
        self.rob.entry_mut(op.rob).completed = true;
        self.free_sched(op.sched, op.rob);
        self.storesets.store_resolved(si as u64);

        // Memory-order violation: a younger load already obtained data
        // overlapping this store's range from somewhere else.
        let store_rob = op.rob;
        let store_pc = op.pc;
        let mut victim: Option<(u64, u64, u64)> = None; // (rob, load pc, age)
        for li in 0..sizes::LOAD_QUEUE {
            if !self.lsq.lq_valid(li) {
                continue;
            }
            let state = self.lsq.lq_state(li);
            if state == LoadState::WaitAddr {
                continue;
            }
            let got_data = state == LoadState::Done || self.lsq.lq_inflight(li);
            if !got_data {
                continue;
            }
            let load_rob = self.lsq.lq_rob(li);
            if !self.rob.younger(load_rob, store_rob) {
                continue;
            }
            let load_addr = self.lsq.lq_addr(li);
            let load_size = self.lsq.lq_size(li);
            if !ranges_overlap(load_addr, load_size, addr, size) {
                continue;
            }
            if self.lsq.lq_forwarded(li) && self.lsq.lq_fwd_sq(li) == si as u64 {
                continue; // it already got THIS store's data
            }
            let age = self.rob.age(load_rob);
            if victim.is_none_or(|(_, _, a)| age < a) {
                victim = Some((load_rob, self.lsq.lq_pc(li), age));
            }
        }
        if let Some((rob, load_pc, _)) = victim {
            self.stats.violations += 1;
            self.storesets.violation(load_pc, store_pc);
            self.squash_after(rob, true);
            // squash_after(inclusive) redirects to the load's PC itself.
        }
    }

    /// One attempt to obtain data for the load in LQ slot `li`:
    /// store-to-load forwarding, then a bank-arbitrated cache access.
    fn try_load_access(&mut self, li: usize, bank_used: &mut [bool], ports: &mut u32) {
        let addr = self.lsq.lq_addr(li);
        let size = self.lsq.lq_size(li);
        let load_rob = self.lsq.lq_rob(li);
        let dst = self.lsq.lq_dst_preg(li);

        // Scan the store queue youngest-to-oldest (ring order equals
        // program order) for the nearest older store overlapping us.
        let cap = sizes::STORE_QUEUE as u64;
        let count = self.lsq.sq_count.min(cap);
        let mut hit_store: Option<usize> = None;
        for k in 0..count {
            let idx = ((self.lsq.sq_tail + cap - 1 - k) % cap) as usize;
            if !self.lsq.sq_valid(idx) || !self.lsq.sq_addr_valid(idx) {
                continue;
            }
            let older = {
                let senior = self.lsq.sq_senior(idx);
                senior || self.rob.younger(load_rob, self.lsq.sq_rob(idx))
            };
            if !older {
                continue;
            }
            let s_addr = self.lsq.sq_addr(idx);
            let s_size = self.lsq.sq_size(idx);
            if ranges_overlap(s_addr, s_size, addr, size) {
                hit_store = Some(idx);
                break;
            }
        }

        if let Some(si) = hit_store {
            let s_data_valid = self.lsq.sq_data_valid(si);
            let s_addr = self.lsq.sq_addr(si);
            let s_size = self.lsq.sq_size(si);
            if s_data_valid && range_contains(s_addr, s_size, addr, size) {
                // Forward: extract the loaded bytes from the store data.
                let shift = (addr - s_addr) * 8;
                let mask = if size >= 8 { u64::MAX } else { (1u64 << (size * 8)) - 1 };
                let value = (self.lsq.sq_data(si) >> shift) & mask;
                self.lsq.set_lq_forwarded(li, true);
                self.lsq.set_lq_fwd_sq(li, si as u64);
                self.lsq.set_lq_fwd_value(li, value);
                self.lsq.set_lq_inflight(li, true);
                self.lsq.set_lq_data_timer(li, 1);
            }
            // Partial overlap or data not ready: retry next cycle (the
            // store will drain or complete).
            return;
        }

        // No forwarding: start a cache access, subject to bank and port
        // arbitration. Hit/miss resolves at the end of the shadow (in the
        // delivery phase), which is what makes the speculative wakeup of
        // consumers genuinely speculative.
        if self.mhrs.pending(addr) {
            self.lsq.set_lq_fill_wait(li, true);
            if let Some(b) = self.spec_ready.get_mut(dst as usize) {
                *b = false;
            }
            return;
        }
        let bank = ((addr / 8) % sizes::DCACHE_BANKS) as usize;
        if *ports == 0 || bank_used[bank] {
            return; // structural conflict: retry next cycle
        }
        *ports -= 1;
        bank_used[bank] = true;

        self.stats.dcache_accesses += 1;
        self.lsq.set_lq_inflight(li, true);
        self.lsq.set_lq_data_timer(li, sizes::DCACHE_LATENCY as u64);
    }

    /// Load data arrives: extend, write back, wake consumers, complete.
    fn deliver_load(&mut self, li: usize) {
        let addr = self.lsq.lq_addr(li);
        let size = self.lsq.lq_size(li);
        let forwarded = self.lsq.lq_forwarded(li);
        let fwd_value = self.lsq.lq_fwd_value(li);
        let raw = self.lsq.lq_raw(li);
        let rob = self.lsq.lq_rob(li);
        let dst = {
            let preg = self.lsq.lq_dst_preg(li);
            let ecc = self.lsq.lq_dst_ecc(li);
            self.ptr_repair(preg, ecc)
        };
        let sched = self.lsq.lq_sched(li);
        let raw_val = if forwarded { fwd_value } else { self.mem.read_sized(addr, size) };
        let insn = decode(raw as u32);
        let value = if insn.is_load() { alu::extend_load(insn.mnemonic, raw_val) } else { raw_val };
        self.write_preg(dst, value);
        self.rob.entry_mut(rob).completed = true;
        self.lsq.set_lq_state(li, LoadState::Done);
        self.free_sched(sched, rob);
    }
}
