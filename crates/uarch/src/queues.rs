//! Pipeline queue structures: fetch queue, reorder buffer, and the load
//! and store queues.
//!
//! All payload storage is RAM-array state (the paper: "Pipeline structures
//! that are implemented using RAM arrays include ... scheduler and ROB
//! payloads, and various queues"); ring pointers are `qctrl` latches.
//! Ring arithmetic is performed modulo the capacity everywhere so that a
//! fault-corrupted pointer can wedge the machine (the paper's `locked`
//! failure mode) but can never crash the simulator.

use tfsim_bitstate::{visit_bool, visit_pc, Category, FieldMeta, StateVisitor, StorageKind};
use tfsim_isa::Reg;

use crate::access::AccessLog;
use crate::config::sizes;

/// An instruction traveling through fetch/decode, with its prediction
/// metadata. Used for fetch-stage buffers, fetch-queue entries, and the
/// decode/rename pipe latches.
#[derive(Debug, Clone, Default)]
pub struct SlotPayload {
    /// Slot holds an instruction.
    pub valid: bool,
    /// Raw 32-bit instruction word.
    pub raw: u64,
    /// Instruction address.
    pub pc: u64,
    /// Predicted direction (control instructions).
    pub pred_taken: bool,
    /// Predicted target (valid when `pred_taken`).
    pub pred_target: u64,
    /// Instruction fetch faulted (ITLB miss): raises `itlb` at retire.
    pub fetch_fault: bool,
    /// Even-parity bit over `raw` (instruction-word parity protection).
    pub parity: bool,
    /// Global history snapshot for squash recovery (prediction state:
    /// shadow, not injectable).
    pub ghr_snapshot: u64,
    /// RAS pointer snapshot for squash recovery (shadow).
    pub ras_snapshot: u64,
    /// Instrumentation only: global fetch sequence number. Not machine
    /// state — never visited, never affects execution.
    pub seq: u64,
}

impl SlotPayload {
    /// Visits the payload's state bits. `kind` distinguishes latch slots
    /// (pipe registers) from RAM slots (fetch queue entries);
    /// `parity_enabled` controls whether the parity bit exists.
    pub fn visit(&mut self, v: &mut dyn StateVisitor, kind: StorageKind, parity_enabled: bool) {
        visit_bool(v, FieldMeta::new(Category::Valid, kind), &mut self.valid);
        v.field(FieldMeta::new(Category::Insn, kind), 32, &mut self.raw);
        visit_pc(v, kind, &mut self.pc);
        visit_bool(v, FieldMeta::new(Category::Ctrl, kind), &mut self.pred_taken);
        visit_pc(v, kind, &mut self.pred_target);
        visit_bool(v, FieldMeta::new(Category::Ctrl, kind), &mut self.fetch_fault);
        if parity_enabled {
            visit_bool(v, FieldMeta::new(Category::Parity, kind), &mut self.parity);
        }
        v.field(FieldMeta::shadow(Category::Ctrl, kind), 12, &mut self.ghr_snapshot);
        v.field(FieldMeta::shadow(Category::Qctrl, kind), 3, &mut self.ras_snapshot);
    }
}

/// Fixed per-slot word ordinals for the front-end latch access log: the
/// fetch-buffer stages and the decode/rename pipe, all holding
/// [`SlotPayload`]s in latch form.
///
/// Slot numbering: fetch-buffer stage `st`, lane `i` is `st * FETCH_WIDTH
/// + i` (0..24), then `dec1`, `dec2`, `ren` (`DECODE_WIDTH` slots each,
/// 24..36). The parity word is reserved whether or not instruction parity
/// is configured (the drain mapping drops it when absent), so ordinals are
/// stable across configurations. Word order matches `SlotPayload::visit`.
pub mod flw {
    use crate::config::sizes;

    /// `valid` flag.
    pub const VALID: u32 = 0;
    /// Raw instruction word.
    pub const RAW: u32 = 1;
    /// Instruction address.
    pub const PC: u32 = 2;
    /// Predicted direction.
    pub const PRED_TAKEN: u32 = 3;
    /// Predicted target.
    pub const PRED_TARGET: u32 = 4;
    /// Fetch-fault flag.
    pub const FETCH_FAULT: u32 = 5;
    /// Instruction-word parity bit (reserved when parity is off).
    pub const PARITY: u32 = 6;
    /// GHR snapshot (shadow).
    pub const GHR: u32 = 7;
    /// RAS snapshot (shadow).
    pub const RAS: u32 = 8;
    /// Words per latch slot in the fixed numbering.
    pub const WORDS: u32 = 9;

    /// Flat slot index of fetch-buffer stage `st`, lane `i`.
    pub fn fstage(st: usize, i: usize) -> u32 {
        (st * sizes::FETCH_WIDTH + i) as u32
    }
    /// First `dec1` slot.
    pub const DEC1: u32 = 3 * sizes::FETCH_WIDTH as u32;
    /// First `dec2` slot.
    pub const DEC2: u32 = DEC1 + sizes::DECODE_WIDTH as u32;
    /// First `ren` slot.
    pub const REN: u32 = DEC2 + sizes::DECODE_WIDTH as u32;
    /// Total front-end latch slots.
    pub const SLOTS: u32 = REN + sizes::DECODE_WIDTH as u32;
}

/// The 32-entry fetch queue (a circular RAM queue of [`SlotPayload`]s).
///
/// The entry array is private: the step path goes through the logged
/// methods below, which record *entry-granular* accesses (ordinal = ring
/// position; `Pipeline::drain_accesses` expands an entry event to the
/// per-word visit ordinals of the active configuration). Pushes overwrite
/// a whole slot with content computed independently of it, so they are
/// logged as writes; pops consume the slot, so they are logged as reads.
#[derive(Debug, Clone)]
pub struct FetchQueue {
    slots: Vec<SlotPayload>,
    /// Ring head (5-bit).
    pub head: u64,
    /// Ring tail (5-bit).
    pub tail: u64,
    /// Occupancy (6-bit).
    pub count: u64,
    /// Entry-granular access log (extended-tier tracking).
    pub log: AccessLog,
}

impl FetchQueue {
    const CAP: u64 = sizes::FETCH_QUEUE as u64;

    /// Creates an empty fetch queue.
    pub fn new() -> FetchQueue {
        FetchQueue {
            slots: (0..sizes::FETCH_QUEUE).map(|_| SlotPayload::default()).collect(),
            head: 0,
            tail: 0,
            count: 0,
            log: AccessLog::default(),
        }
    }

    /// Unlogged slot access for observers and tests only.
    pub fn peek(&self, i: usize) -> &SlotPayload {
        &self.slots[i % sizes::FETCH_QUEUE]
    }

    /// Test-only mutable access; logs nothing.
    #[doc(hidden)]
    pub fn poke(&mut self, i: usize) -> &mut SlotPayload {
        &mut self.slots[i % sizes::FETCH_QUEUE]
    }

    /// Current occupancy (clamped to capacity).
    pub fn len(&self) -> u64 {
        self.count.min(Self::CAP)
    }

    /// Whether the queue holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free slots remaining.
    pub fn free(&self) -> u64 {
        Self::CAP - self.len()
    }

    /// Appends an instruction (caller must check [`FetchQueue::free`]).
    pub fn push(&mut self, p: SlotPayload) {
        let i = (self.tail % Self::CAP) as usize;
        self.log.write(i as u32);
        self.slots[i] = p;
        self.slots[i].valid = true;
        self.tail = (self.tail + 1) % Self::CAP;
        self.count = (self.count + 1) & 0x3f;
    }

    /// Removes and returns the oldest instruction.
    pub fn pop(&mut self) -> Option<SlotPayload> {
        if self.is_empty() {
            return None;
        }
        let i = (self.head % Self::CAP) as usize;
        self.log.read(i as u32);
        let p = std::mem::take(&mut self.slots[i]);
        self.head = (self.head + 1) % Self::CAP;
        self.count = (self.count - 1) & 0x3f;
        Some(p)
    }

    /// Empties the queue (squash): a content-independent full overwrite of
    /// every slot, logged as entry writes.
    pub fn clear(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            self.log.write(i as u32);
            *s = SlotPayload::default();
        }
        self.head = 0;
        self.tail = 0;
        self.count = 0;
    }

    /// Empties the queue for a squash, returning the fetch sequence number
    /// of each occupied slot so the pipeline can flow-log the squashed
    /// instructions. The occupancy probe feeds instrumentation only (the
    /// flow log), never machine behaviour, so this is still logged as a
    /// pure full-queue overwrite.
    pub fn squash_all(&mut self) -> Vec<u64> {
        let seqs = self.slots.iter().filter(|s| s.valid).map(|s| s.seq).collect();
        self.clear();
        seqs
    }

    /// Visits all slots and ring pointers.
    pub fn visit(&mut self, v: &mut dyn StateVisitor, parity_enabled: bool) {
        for s in self.slots.iter_mut() {
            s.visit(v, StorageKind::Ram, parity_enabled);
        }
        let q = FieldMeta::new(Category::Qctrl, StorageKind::Latch);
        v.field(q, 5, &mut self.head);
        v.field(q, 5, &mut self.tail);
        v.field(q, 6, &mut self.count);
    }
}

impl Default for FetchQueue {
    fn default() -> Self {
        FetchQueue::new()
    }
}

/// Architectural exception codes carried in ROB entries (3-bit `ctrl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum ExcCode {
    /// No exception.
    #[default]
    None = 0,
    /// Undecodable instruction word.
    Illegal = 1,
    /// Misaligned memory access.
    Alignment = 2,
    /// Integer overflow from a `/V` operation.
    Overflow = 3,
    /// Instruction TLB miss (fetch outside the preloaded pages).
    Itlb = 4,
    /// Data TLB miss (access outside the preloaded pages).
    Dtlb = 5,
    /// Unimplemented PAL function or syscall.
    BadPal = 6,
}

impl ExcCode {
    /// Decodes a 3-bit field (corrupted encodings map to `BadPal`).
    pub fn from_bits(bits: u64) -> ExcCode {
        match bits & 7 {
            0 => ExcCode::None,
            1 => ExcCode::Illegal,
            2 => ExcCode::Alignment,
            3 => ExcCode::Overflow,
            4 => ExcCode::Itlb,
            5 => ExcCode::Dtlb,
            _ => ExcCode::BadPal,
        }
    }
}

/// One reorder buffer entry.
#[derive(Debug, Clone, Default)]
pub struct RobEntry {
    /// Instruction address.
    pub pc: u64,
    /// Resolved next PC (filled at dispatch for sequential flow, updated
    /// by the branch unit).
    pub next_pc: u64,
    /// Raw instruction word (retire re-decodes it; parity is checked over
    /// it when the protection is enabled).
    pub raw: u64,
    /// Destination architectural register (5-bit; meaningful if `has_dst`).
    pub dst_areg: u64,
    /// Whether the instruction writes a register.
    pub has_dst: bool,
    /// Destination physical register.
    pub dst_preg: u64,
    /// Previous mapping of `dst_areg` (freed at retire, restored on walk).
    pub old_preg: u64,
    /// Result (and side effects) are complete; the entry may retire.
    pub completed: bool,
    /// Exception accumulated for this instruction (3-bit code).
    pub exc: u64,
    /// Instruction is a store; `lsq` is its store-queue slot.
    pub is_store: bool,
    /// Instruction is a load; `lsq` is its load-queue slot.
    pub is_load: bool,
    /// Load/store queue slot index (4-bit).
    pub lsq: u64,
    /// Instruction is a control transfer.
    pub is_branch: bool,
    /// Parity bit traveling with the instruction word.
    pub parity: bool,
    /// Prediction metadata for recovery/training (shadow).
    pub pred_taken: bool,
    /// Global-history snapshot (shadow).
    pub ghr_snapshot: u64,
    /// RAS pointer snapshot (shadow).
    pub ras_snapshot: u64,
    /// Pointer-ECC check bits for `dst_preg`.
    pub dst_ecc: u64,
    /// Pointer-ECC check bits for `old_preg`.
    pub old_ecc: u64,
    /// Instrumentation only (never visited): fetch sequence number.
    pub seq: u64,
}

impl RobEntry {
    fn visit(&mut self, v: &mut dyn StateVisitor, parity_enabled: bool, ptr_ecc: bool) {
        let ram = StorageKind::Ram;
        visit_pc(v, ram, &mut self.pc);
        visit_pc(v, ram, &mut self.next_pc);
        v.field(FieldMeta::new(Category::Insn, ram), 32, &mut self.raw);
        v.field(FieldMeta::new(Category::Ctrl, ram), 5, &mut self.dst_areg);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.has_dst);
        v.field(FieldMeta::new(Category::Regptr, ram), 7, &mut self.dst_preg);
        v.field(FieldMeta::new(Category::Regptr, ram), 7, &mut self.old_preg);
        visit_bool(v, FieldMeta::new(Category::Valid, ram), &mut self.completed);
        v.field(FieldMeta::new(Category::Ctrl, ram), 3, &mut self.exc);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.is_store);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.is_load);
        v.field(FieldMeta::new(Category::Ctrl, ram), 4, &mut self.lsq);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.is_branch);
        if parity_enabled {
            visit_bool(v, FieldMeta::new(Category::Parity, ram), &mut self.parity);
        }
        if ptr_ecc {
            v.field(FieldMeta::new(Category::Ecc, ram), 4, &mut self.dst_ecc);
            v.field(FieldMeta::new(Category::Ecc, ram), 4, &mut self.old_ecc);
        }
        visit_bool(v, FieldMeta::shadow(Category::Ctrl, ram), &mut self.pred_taken);
        v.field(FieldMeta::shadow(Category::Ctrl, ram), 12, &mut self.ghr_snapshot);
        v.field(FieldMeta::shadow(Category::Qctrl, ram), 3, &mut self.ras_snapshot);
    }
}

/// The 64-entry reorder buffer (circular).
///
/// The entry array is private: step-path access goes through the logged
/// methods below, which record *entry-granular* events (ordinal = ring
/// position, expanded to per-word visit ordinals by
/// `Pipeline::drain_accesses`). [`Rob::entry`] / [`Rob::entry_mut`] log a
/// read of the whole entry — `entry_mut` callers may also write fields,
/// but an unlogged write only under-claims (the word looks live), never
/// over-claims, which is the safe direction for the dead-window proofs.
/// Only [`Rob::alloc`] and [`Rob::clear`] log writes: both replace whole
/// entries with content computed independently of the old bits.
#[derive(Debug, Clone)]
pub struct Rob {
    slots: Vec<RobEntry>,
    /// Ring head: the oldest unretired instruction (6-bit).
    pub head: u64,
    /// Ring tail: the next allocation slot (6-bit).
    pub tail: u64,
    /// Occupancy (7-bit).
    pub count: u64,
    /// Entry-granular access log (extended-tier tracking).
    pub log: AccessLog,
}

impl Rob {
    const CAP: u64 = sizes::ROB as u64;

    /// Creates an empty reorder buffer.
    pub fn new() -> Rob {
        Rob {
            slots: (0..sizes::ROB).map(|_| RobEntry::default()).collect(),
            head: 0,
            tail: 0,
            count: 0,
            log: AccessLog::default(),
        }
    }

    /// Unlogged entry access for observers and tests only.
    pub fn peek(&self, tag: u64) -> &RobEntry {
        &self.slots[(tag % Self::CAP) as usize]
    }

    /// Test-only mutable access; logs nothing.
    #[doc(hidden)]
    pub fn poke(&mut self, tag: u64) -> &mut RobEntry {
        &mut self.slots[(tag % Self::CAP) as usize]
    }

    /// Current occupancy (clamped).
    pub fn len(&self) -> u64 {
        self.count.min(Self::CAP)
    }

    /// Whether the ROB is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether the ROB is full.
    pub fn is_full(&self) -> bool {
        self.len() >= Self::CAP
    }

    /// Allocates the tail entry and returns its tag: a logged full-entry
    /// write (the new entry is built from rename-stage state, never from
    /// the slot's old bits).
    pub fn alloc(&mut self, entry: RobEntry) -> u64 {
        let tag = self.tail % Self::CAP;
        self.log.write(tag as u32);
        self.slots[tag as usize] = entry;
        self.tail = (self.tail + 1) % Self::CAP;
        self.count = (self.count + 1) & 0x7f;
        tag
    }

    /// The tag of the oldest entry.
    pub fn head_tag(&self) -> u64 {
        self.head % Self::CAP
    }

    /// Pops the head entry (retirement): the entry's content is consumed,
    /// so this logs a read (the same-cycle zeroing write is shadowed by
    /// the read and deliberately unlogged).
    pub fn retire_head(&mut self) -> RobEntry {
        let tag = self.head_tag() as usize;
        self.log.read(tag as u32);
        let e = std::mem::take(&mut self.slots[tag]);
        self.head = (self.head + 1) % Self::CAP;
        self.count = (self.count - 1) & 0x7f;
        e
    }

    /// Removes the youngest entry (misprediction walk). Returns it, so
    /// like retirement it is a logged read.
    pub fn pop_tail(&mut self) -> RobEntry {
        self.tail = (self.tail + Self::CAP - 1) % Self::CAP;
        self.count = (self.count - 1) & 0x7f;
        let tag = (self.tail % Self::CAP) as usize;
        self.log.read(tag as u32);
        std::mem::take(&mut self.slots[tag])
    }

    /// Ring age of `tag`: 0 for the head, increasing toward the tail.
    pub fn age(&self, tag: u64) -> u64 {
        (tag + Self::CAP - self.head % Self::CAP) % Self::CAP
    }

    /// Whether `a` is strictly younger (allocated later) than `b`.
    pub fn younger(&self, a: u64, b: u64) -> bool {
        self.age(a) > self.age(b)
    }

    /// Access an entry by tag (always in range via masking): a logged
    /// whole-entry read.
    pub fn entry(&mut self, tag: u64) -> &RobEntry {
        let tag = (tag % Self::CAP) as usize;
        self.log.read(tag as u32);
        &self.slots[tag]
    }

    /// Mutable access by tag: logged as a read (field writes through the
    /// returned reference stay unlogged — the safe, under-claiming side).
    pub fn entry_mut(&mut self, tag: u64) -> &mut RobEntry {
        let tag = (tag % Self::CAP) as usize;
        self.log.read(tag as u32);
        &mut self.slots[tag]
    }

    /// Empties the ROB (full flush): logged full-entry writes.
    pub fn clear(&mut self) {
        for (i, s) in self.slots.iter_mut().enumerate() {
            self.log.write(i as u32);
            *s = RobEntry::default();
        }
        self.head = 0;
        self.tail = 0;
        self.count = 0;
    }

    /// Visits all entries and ring pointers. ROB tags live in the `robptr`
    /// category.
    pub fn visit(&mut self, v: &mut dyn StateVisitor, parity_enabled: bool, ptr_ecc: bool) {
        for s in self.slots.iter_mut() {
            s.visit(v, parity_enabled, ptr_ecc);
        }
        let q = FieldMeta::new(Category::Qctrl, StorageKind::Latch);
        v.field(q, 6, &mut self.head);
        v.field(q, 6, &mut self.tail);
        v.field(q, 7, &mut self.count);
    }
}

impl Default for Rob {
    fn default() -> Self {
        Rob::new()
    }
}

/// Load queue entry states (2-bit `ctrl`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadState {
    /// Waiting for address generation.
    #[default]
    WaitAddr = 0,
    /// Address known; access in progress or pending retry.
    Access = 1,
    /// Data returned and written back.
    Done = 2,
}

/// One load queue entry.
#[derive(Debug, Clone, Default)]
pub struct LqEntry {
    /// Entry allocated.
    pub valid: bool,
    /// Effective address (valid once `state != WaitAddr`).
    pub addr: u64,
    /// Access size in bytes (1/2/4/8, stored as log2: 2 bits).
    pub size_log2: u64,
    /// Progress state.
    pub state: LoadState,
    /// Cycles until data arrives (in-flight access).
    pub data_timer: u64,
    /// Whether an access is in flight (data_timer counting).
    pub inflight: bool,
    /// Waiting for a cache-line fill (MHR).
    pub fill_wait: bool,
    /// Data was forwarded from the store queue ("state in the memory unit
    /// that records store to load forwarding").
    pub forwarded: bool,
    /// Store queue slot the data was forwarded from.
    pub fwd_sq: u64,
    /// Forwarding source value (data category).
    pub fwd_value: u64,
    /// Scheduler slot of this load (freed when the data arrives).
    pub sched: u64,
    /// Pointer-ECC check bits for `dst_preg`.
    pub dst_ecc: u64,
    /// ROB tag of the load.
    pub rob: u64,
    /// Destination physical register.
    pub dst_preg: u64,
    /// Load PC (for store-set training).
    pub pc: u64,
    /// Raw instruction word (for extension semantics on writeback).
    pub raw: u64,
}

impl LqEntry {
    /// Access size in bytes.
    pub fn size(&self) -> u64 {
        1 << (self.size_log2 & 3)
    }

    fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        let ram = StorageKind::Ram;
        visit_bool(v, FieldMeta::new(Category::Valid, ram), &mut self.valid);
        v.field(FieldMeta::new(Category::Addr, ram), 64, &mut self.addr);
        v.field(FieldMeta::new(Category::Ctrl, ram), 2, &mut self.size_log2);
        let mut st = self.state as u64;
        v.field(FieldMeta::new(Category::Ctrl, ram), 2, &mut st);
        self.state = match st & 3 {
            0 => LoadState::WaitAddr,
            1 => LoadState::Access,
            _ => LoadState::Done,
        };
        v.field(FieldMeta::new(Category::Ctrl, ram), 4, &mut self.data_timer);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.inflight);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.fill_wait);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.forwarded);
        v.field(FieldMeta::new(Category::Ctrl, ram), 4, &mut self.fwd_sq);
        v.field(FieldMeta::new(Category::Data, ram), 64, &mut self.fwd_value);
        v.field(FieldMeta::new(Category::Ctrl, ram), 5, &mut self.sched);
        v.field(FieldMeta::new(Category::Robptr, ram), 6, &mut self.rob);
        v.field(FieldMeta::new(Category::Regptr, ram), 7, &mut self.dst_preg);
        if ptr_ecc {
            v.field(FieldMeta::new(Category::Ecc, ram), 4, &mut self.dst_ecc);
        }
        visit_pc(v, ram, &mut self.pc);
        v.field(FieldMeta::new(Category::Insn, ram), 32, &mut self.raw);
    }
}

/// One store queue entry.
#[derive(Debug, Clone, Default)]
pub struct SqEntry {
    /// Entry allocated.
    pub valid: bool,
    /// Effective address.
    pub addr: u64,
    /// Address computed.
    pub addr_valid: bool,
    /// Store data.
    pub data: u64,
    /// Data operand captured.
    pub data_valid: bool,
    /// Access size (log2, 2 bits).
    pub size_log2: u64,
    /// ROB tag.
    pub rob: u64,
    /// Store PC (store-set training).
    pub pc: u64,
    /// Retired, awaiting drain to the cache ("the store buffer maintains
    /// its state across pipe flushes").
    pub senior: bool,
}

impl SqEntry {
    /// Access size in bytes.
    pub fn size(&self) -> u64 {
        1 << (self.size_log2 & 3)
    }

    fn visit(&mut self, v: &mut dyn StateVisitor) {
        let ram = StorageKind::Ram;
        visit_bool(v, FieldMeta::new(Category::Valid, ram), &mut self.valid);
        v.field(FieldMeta::new(Category::Addr, ram), 64, &mut self.addr);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.addr_valid);
        v.field(FieldMeta::new(Category::Data, ram), 64, &mut self.data);
        visit_bool(v, FieldMeta::new(Category::Ctrl, ram), &mut self.data_valid);
        v.field(FieldMeta::new(Category::Ctrl, ram), 2, &mut self.size_log2);
        v.field(FieldMeta::new(Category::Robptr, ram), 6, &mut self.rob);
        visit_pc(v, ram, &mut self.pc);
        visit_bool(v, FieldMeta::new(Category::Qctrl, ram), &mut self.senior);
    }
}

/// Fixed (configuration-independent) word ordinals for the access log.
///
/// The log numbers every load-queue entry with [`lqw::WORDS`] words — the
/// full layout *including* `dst_ecc` — even when pointer ECC is off;
/// `Pipeline::drain_accesses` converts to the actual visit-order ordinal
/// for the active configuration. Keeping the log numbering fixed means no
/// structure needs to know the pipeline configuration.
pub mod lqw {
    /// Word ordinals of one load-queue entry, in visit order.
    pub const VALID: u32 = 0;
    /// Effective address.
    pub const ADDR: u32 = 1;
    /// Access size (log2).
    pub const SIZE: u32 = 2;
    /// Progress state.
    pub const STATE: u32 = 3;
    /// In-flight data timer.
    pub const TIMER: u32 = 4;
    /// Access in flight.
    pub const INFLIGHT: u32 = 5;
    /// Waiting on a line fill.
    pub const FILL_WAIT: u32 = 6;
    /// Data forwarded from the store queue.
    pub const FORWARDED: u32 = 7;
    /// Forwarding source slot.
    pub const FWD_SQ: u32 = 8;
    /// Forwarded value.
    pub const FWD_VALUE: u32 = 9;
    /// Scheduler slot.
    pub const SCHED: u32 = 10;
    /// ROB tag.
    pub const ROB: u32 = 11;
    /// Destination physical register.
    pub const DST_PREG: u32 = 12;
    /// Pointer-ECC check bits (exists in the visit walk only with pointer
    /// ECC enabled).
    pub const DST_ECC: u32 = 13;
    /// Load PC.
    pub const PC: u32 = 14;
    /// Raw instruction word.
    pub const RAW: u32 = 15;
    /// Words per entry in the fixed numbering.
    pub const WORDS: u32 = 16;
}

/// Fixed word ordinals of one store-queue entry, in visit order.
pub mod sqw {
    /// Entry allocated.
    pub const VALID: u32 = 0;
    /// Effective address.
    pub const ADDR: u32 = 1;
    /// Address computed.
    pub const ADDR_VALID: u32 = 2;
    /// Store data.
    pub const DATA: u32 = 3;
    /// Data captured.
    pub const DATA_VALID: u32 = 4;
    /// Access size (log2).
    pub const SIZE: u32 = 5;
    /// ROB tag.
    pub const ROB: u32 = 6;
    /// Store PC.
    pub const PC: u32 = 7;
    /// Senior (retired, draining).
    pub const SENIOR: u32 = 8;
    /// Words per entry.
    pub const WORDS: u32 = 9;
}

/// First store-queue word in the fixed Lsq-local numbering.
pub const SQ_BASE: u32 = sizes::LOAD_QUEUE as u32 * lqw::WORDS;

/// The 16-entry load queue and 16-entry store queue (circular).
///
/// The entry arrays are private: every read and full-word write from the
/// pipeline's step path goes through the logged accessors below, which is
/// what lets the fast trial engine prove a flipped cell was never
/// consumed. Observers (state walks, invariant checks, tests) use
/// [`Lsq::peek_lq`] / [`Lsq::peek_sq`], which never log.
#[derive(Debug, Clone)]
pub struct Lsq {
    lq: Vec<LqEntry>,
    /// Load ring head (4-bit).
    pub lq_head: u64,
    /// Load ring tail.
    pub lq_tail: u64,
    /// Load occupancy (5-bit).
    pub lq_count: u64,
    sq: Vec<SqEntry>,
    /// Store ring head.
    pub sq_head: u64,
    /// Store ring tail.
    pub sq_tail: u64,
    /// Store occupancy.
    pub sq_count: u64,
    /// Word-granular access log for the fast trial engine.
    pub log: AccessLog,
}

impl Lsq {
    const LCAP: u64 = sizes::LOAD_QUEUE as u64;
    const SCAP: u64 = sizes::STORE_QUEUE as u64;

    /// Creates empty queues.
    pub fn new() -> Lsq {
        Lsq {
            lq: (0..sizes::LOAD_QUEUE).map(|_| LqEntry::default()).collect(),
            lq_head: 0,
            lq_tail: 0,
            lq_count: 0,
            sq: (0..sizes::STORE_QUEUE).map(|_| SqEntry::default()).collect(),
            sq_head: 0,
            sq_tail: 0,
            sq_count: 0,
            log: AccessLog::default(),
        }
    }

    #[inline(always)]
    fn lord(i: usize, word: u32) -> u32 {
        (i % sizes::LOAD_QUEUE) as u32 * lqw::WORDS + word
    }

    #[inline(always)]
    fn sord(i: usize, word: u32) -> u32 {
        SQ_BASE + (i % sizes::STORE_QUEUE) as u32 * sqw::WORDS + word
    }

    /// Unlogged load-queue access for observers and tests only — never use
    /// on the step path.
    pub fn peek_lq(&self, i: usize) -> &LqEntry {
        &self.lq[i % sizes::LOAD_QUEUE]
    }

    /// Unlogged store-queue access for observers and tests only.
    pub fn peek_sq(&self, i: usize) -> &SqEntry {
        &self.sq[i % sizes::STORE_QUEUE]
    }

    /// Test-only mutable access; logs nothing.
    #[doc(hidden)]
    pub fn poke_lq(&mut self, i: usize) -> &mut LqEntry {
        &mut self.lq[i % sizes::LOAD_QUEUE]
    }

    /// Test-only mutable access; logs nothing.
    #[doc(hidden)]
    pub fn poke_sq(&mut self, i: usize) -> &mut SqEntry {
        &mut self.sq[i % sizes::STORE_QUEUE]
    }

    /// Free load slots.
    pub fn lq_free(&self) -> u64 {
        Self::LCAP - self.lq_count.min(Self::LCAP)
    }

    /// Free store slots.
    pub fn sq_free(&self) -> u64 {
        Self::SCAP - self.sq_count.min(Self::SCAP)
    }

    fn log_lq_entry_write(&mut self, i: usize) {
        if self.log.enabled() {
            for w in 0..lqw::WORDS {
                self.log.write(Self::lord(i, w));
            }
        }
    }

    fn log_sq_entry_write(&mut self, i: usize) {
        if self.log.enabled() {
            for w in 0..sqw::WORDS {
                self.log.write(Self::sord(i, w));
            }
        }
    }

    /// Allocates a load slot, returning its index.
    pub fn alloc_load(&mut self, e: LqEntry) -> u64 {
        let i = self.lq_tail % Self::LCAP;
        self.lq[i as usize] = e;
        self.lq[i as usize].valid = true;
        self.log_lq_entry_write(i as usize);
        self.lq_tail = (self.lq_tail + 1) % Self::LCAP;
        self.lq_count = (self.lq_count + 1) & 0x1f;
        i
    }

    /// Allocates a store slot, returning its index.
    pub fn alloc_store(&mut self, e: SqEntry) -> u64 {
        let i = self.sq_tail % Self::SCAP;
        self.sq[i as usize] = e;
        self.sq[i as usize].valid = true;
        self.log_sq_entry_write(i as usize);
        self.sq_tail = (self.sq_tail + 1) % Self::SCAP;
        self.sq_count = (self.sq_count + 1) & 0x1f;
        i
    }

    /// Frees the load at ring index `i` if it is the head (loads retire in
    /// order; out-of-order frees only happen through squashes).
    pub fn free_load_head(&mut self) {
        if self.lq_count.min(Self::LCAP) == 0 {
            return;
        }
        let i = (self.lq_head % Self::LCAP) as usize;
        self.lq[i] = LqEntry::default();
        self.log_lq_entry_write(i);
        self.lq_head = (self.lq_head + 1) % Self::LCAP;
        self.lq_count = (self.lq_count - 1) & 0x1f;
    }

    /// Pops the youngest load (misprediction walk).
    pub fn pop_load_tail(&mut self) {
        if self.lq_count.min(Self::LCAP) == 0 {
            return;
        }
        self.lq_tail = (self.lq_tail + Self::LCAP - 1) % Self::LCAP;
        let i = (self.lq_tail % Self::LCAP) as usize;
        self.lq[i] = LqEntry::default();
        self.log_lq_entry_write(i);
        self.lq_count = (self.lq_count - 1) & 0x1f;
    }

    /// Pops the youngest (non-senior) store (misprediction walk).
    pub fn pop_store_tail(&mut self) {
        if self.sq_count.min(Self::SCAP) == 0 {
            return;
        }
        self.sq_tail = (self.sq_tail + Self::SCAP - 1) % Self::SCAP;
        let i = (self.sq_tail % Self::SCAP) as usize;
        self.sq[i] = SqEntry::default();
        self.log_sq_entry_write(i);
        self.sq_count = (self.sq_count - 1) & 0x1f;
    }

    /// Drops every load and every non-senior store (full flush). Senior
    /// stores survive and continue draining.
    pub fn flush_keep_senior(&mut self) {
        for i in 0..sizes::LOAD_QUEUE {
            self.lq[i] = LqEntry::default();
            self.log_lq_entry_write(i);
        }
        self.lq_head = 0;
        self.lq_tail = 0;
        self.lq_count = 0;
        // Compact: drop non-senior stores from the tail side.
        while self.sq_count.min(Self::SCAP) > 0 {
            let last = ((self.sq_tail + Self::SCAP - 1) % Self::SCAP) as usize;
            if self.sq_senior(last) {
                break;
            }
            self.pop_store_tail();
        }
    }

    // --- Logged per-field accessors (the step path's only way in) ---
    //
    // Reads log the word consumed; setters log a full-word overwrite. Index
    // arguments are masked by capacity so fault-corrupted indices stay safe.

    /// Logged read: load entry allocated?
    pub fn lq_valid(&mut self, i: usize) -> bool {
        self.log.read(Self::lord(i, lqw::VALID));
        self.lq[i % sizes::LOAD_QUEUE].valid
    }

    /// Logged read: load effective address.
    pub fn lq_addr(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::ADDR));
        self.lq[i % sizes::LOAD_QUEUE].addr
    }

    /// Logged read: load access size in bytes.
    pub fn lq_size(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::SIZE));
        self.lq[i % sizes::LOAD_QUEUE].size()
    }

    /// Logged read: load progress state.
    pub fn lq_state(&mut self, i: usize) -> LoadState {
        self.log.read(Self::lord(i, lqw::STATE));
        self.lq[i % sizes::LOAD_QUEUE].state
    }

    /// Logged read: in-flight data timer.
    pub fn lq_data_timer(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::TIMER));
        self.lq[i % sizes::LOAD_QUEUE].data_timer
    }

    /// Logged read: access in flight?
    pub fn lq_inflight(&mut self, i: usize) -> bool {
        self.log.read(Self::lord(i, lqw::INFLIGHT));
        self.lq[i % sizes::LOAD_QUEUE].inflight
    }

    /// Logged read: waiting on a line fill?
    pub fn lq_fill_wait(&mut self, i: usize) -> bool {
        self.log.read(Self::lord(i, lqw::FILL_WAIT));
        self.lq[i % sizes::LOAD_QUEUE].fill_wait
    }

    /// Logged read: data forwarded from the store queue?
    pub fn lq_forwarded(&mut self, i: usize) -> bool {
        self.log.read(Self::lord(i, lqw::FORWARDED));
        self.lq[i % sizes::LOAD_QUEUE].forwarded
    }

    /// Logged read: forwarding source slot.
    pub fn lq_fwd_sq(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::FWD_SQ));
        self.lq[i % sizes::LOAD_QUEUE].fwd_sq
    }

    /// Logged read: forwarded value.
    pub fn lq_fwd_value(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::FWD_VALUE));
        self.lq[i % sizes::LOAD_QUEUE].fwd_value
    }

    /// Logged read: scheduler slot of the load.
    pub fn lq_sched(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::SCHED));
        self.lq[i % sizes::LOAD_QUEUE].sched
    }

    /// Logged read: ROB tag of the load.
    pub fn lq_rob(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::ROB));
        self.lq[i % sizes::LOAD_QUEUE].rob
    }

    /// Logged read: destination physical register.
    pub fn lq_dst_preg(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::DST_PREG));
        self.lq[i % sizes::LOAD_QUEUE].dst_preg
    }

    /// Logged read: pointer-ECC check bits for the destination.
    pub fn lq_dst_ecc(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::DST_ECC));
        self.lq[i % sizes::LOAD_QUEUE].dst_ecc
    }

    /// Logged read: load PC.
    pub fn lq_pc(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::PC));
        self.lq[i % sizes::LOAD_QUEUE].pc
    }

    /// Logged read: raw instruction word.
    pub fn lq_raw(&mut self, i: usize) -> u64 {
        self.log.read(Self::lord(i, lqw::RAW));
        self.lq[i % sizes::LOAD_QUEUE].raw
    }

    /// Logged write of the load's effective address.
    pub fn set_lq_addr(&mut self, i: usize, addr: u64) {
        self.log.write(Self::lord(i, lqw::ADDR));
        self.lq[i % sizes::LOAD_QUEUE].addr = addr;
    }

    /// Logged write of the load's scheduler slot.
    pub fn set_lq_sched(&mut self, i: usize, sched: u64) {
        self.log.write(Self::lord(i, lqw::SCHED));
        self.lq[i % sizes::LOAD_QUEUE].sched = sched;
    }

    /// Logged write of the load's progress state.
    pub fn set_lq_state(&mut self, i: usize, st: LoadState) {
        self.log.write(Self::lord(i, lqw::STATE));
        self.lq[i % sizes::LOAD_QUEUE].state = st;
    }

    /// Logged write of the in-flight data timer.
    pub fn set_lq_data_timer(&mut self, i: usize, t: u64) {
        self.log.write(Self::lord(i, lqw::TIMER));
        self.lq[i % sizes::LOAD_QUEUE].data_timer = t;
    }

    /// Logged write of the in-flight flag.
    pub fn set_lq_inflight(&mut self, i: usize, on: bool) {
        self.log.write(Self::lord(i, lqw::INFLIGHT));
        self.lq[i % sizes::LOAD_QUEUE].inflight = on;
    }

    /// Logged write of the fill-wait flag.
    pub fn set_lq_fill_wait(&mut self, i: usize, on: bool) {
        self.log.write(Self::lord(i, lqw::FILL_WAIT));
        self.lq[i % sizes::LOAD_QUEUE].fill_wait = on;
    }

    /// Logged write of the forwarded flag.
    pub fn set_lq_forwarded(&mut self, i: usize, on: bool) {
        self.log.write(Self::lord(i, lqw::FORWARDED));
        self.lq[i % sizes::LOAD_QUEUE].forwarded = on;
    }

    /// Logged write of the forwarding source slot.
    pub fn set_lq_fwd_sq(&mut self, i: usize, sq: u64) {
        self.log.write(Self::lord(i, lqw::FWD_SQ));
        self.lq[i % sizes::LOAD_QUEUE].fwd_sq = sq;
    }

    /// Logged write of the forwarded value.
    pub fn set_lq_fwd_value(&mut self, i: usize, v: u64) {
        self.log.write(Self::lord(i, lqw::FWD_VALUE));
        self.lq[i % sizes::LOAD_QUEUE].fwd_value = v;
    }

    /// Logged read: store entry allocated?
    pub fn sq_valid(&mut self, i: usize) -> bool {
        self.log.read(Self::sord(i, sqw::VALID));
        self.sq[i % sizes::STORE_QUEUE].valid
    }

    /// Logged read: store effective address.
    pub fn sq_addr(&mut self, i: usize) -> u64 {
        self.log.read(Self::sord(i, sqw::ADDR));
        self.sq[i % sizes::STORE_QUEUE].addr
    }

    /// Logged read: store address computed?
    pub fn sq_addr_valid(&mut self, i: usize) -> bool {
        self.log.read(Self::sord(i, sqw::ADDR_VALID));
        self.sq[i % sizes::STORE_QUEUE].addr_valid
    }

    /// Logged read: store data.
    pub fn sq_data(&mut self, i: usize) -> u64 {
        self.log.read(Self::sord(i, sqw::DATA));
        self.sq[i % sizes::STORE_QUEUE].data
    }

    /// Logged read: store data captured?
    pub fn sq_data_valid(&mut self, i: usize) -> bool {
        self.log.read(Self::sord(i, sqw::DATA_VALID));
        self.sq[i % sizes::STORE_QUEUE].data_valid
    }

    /// Logged read: store access size in bytes.
    pub fn sq_size(&mut self, i: usize) -> u64 {
        self.log.read(Self::sord(i, sqw::SIZE));
        self.sq[i % sizes::STORE_QUEUE].size()
    }

    /// Logged read: ROB tag of the store.
    pub fn sq_rob(&mut self, i: usize) -> u64 {
        self.log.read(Self::sord(i, sqw::ROB));
        self.sq[i % sizes::STORE_QUEUE].rob
    }

    /// Logged read: store PC.
    pub fn sq_pc(&mut self, i: usize) -> u64 {
        self.log.read(Self::sord(i, sqw::PC));
        self.sq[i % sizes::STORE_QUEUE].pc
    }

    /// Logged read: store is senior (retired, draining)?
    pub fn sq_senior(&mut self, i: usize) -> bool {
        self.log.read(Self::sord(i, sqw::SENIOR));
        self.sq[i % sizes::STORE_QUEUE].senior
    }

    /// Logged write of the store's effective address.
    pub fn set_sq_addr(&mut self, i: usize, addr: u64) {
        self.log.write(Self::sord(i, sqw::ADDR));
        self.sq[i % sizes::STORE_QUEUE].addr = addr;
    }

    /// Logged write of the address-computed flag.
    pub fn set_sq_addr_valid(&mut self, i: usize, on: bool) {
        self.log.write(Self::sord(i, sqw::ADDR_VALID));
        self.sq[i % sizes::STORE_QUEUE].addr_valid = on;
    }

    /// Logged write of the store data.
    pub fn set_sq_data(&mut self, i: usize, v: u64) {
        self.log.write(Self::sord(i, sqw::DATA));
        self.sq[i % sizes::STORE_QUEUE].data = v;
    }

    /// Logged write of the data-captured flag.
    pub fn set_sq_data_valid(&mut self, i: usize, on: bool) {
        self.log.write(Self::sord(i, sqw::DATA_VALID));
        self.sq[i % sizes::STORE_QUEUE].data_valid = on;
    }

    /// Logged write of the senior flag.
    pub fn set_sq_senior(&mut self, i: usize, on: bool) {
        self.log.write(Self::sord(i, sqw::SENIOR));
        self.sq[i % sizes::STORE_QUEUE].senior = on;
    }

    /// Clears a store entry (drain completion): logged full-entry write.
    pub fn clear_sq(&mut self, i: usize) {
        let i = i % sizes::STORE_QUEUE;
        self.sq[i] = SqEntry::default();
        self.log_sq_entry_write(i);
    }

    /// Visits both queues and their ring pointers.
    pub fn visit(&mut self, v: &mut dyn StateVisitor, ptr_ecc: bool) {
        for e in self.lq.iter_mut() {
            e.visit(v, ptr_ecc);
        }
        for e in self.sq.iter_mut() {
            e.visit(v);
        }
        let q = FieldMeta::new(Category::Qctrl, StorageKind::Latch);
        v.field(q, 4, &mut self.lq_head);
        v.field(q, 4, &mut self.lq_tail);
        v.field(q, 5, &mut self.lq_count);
        v.field(q, 4, &mut self.sq_head);
        v.field(q, 4, &mut self.sq_tail);
        v.field(q, 5, &mut self.sq_count);
    }
}

impl Default for Lsq {
    fn default() -> Self {
        Lsq::new()
    }
}

/// Converts an access size in bytes to the stored log2 form.
pub fn size_to_log2(size: u64) -> u64 {
    match size {
        1 => 0,
        2 => 1,
        4 => 2,
        _ => 3,
    }
}

/// Whether two (addr, size) ranges overlap.
pub fn ranges_overlap(a: u64, asize: u64, b: u64, bsize: u64) -> bool {
    a < b.wrapping_add(bsize) && b < a.wrapping_add(asize)
}

/// Whether range `(inner, isize)` is fully contained in `(outer, osize)`.
pub fn range_contains(outer: u64, osize: u64, inner: u64, isize: u64) -> bool {
    inner >= outer && inner.wrapping_add(isize) <= outer.wrapping_add(osize)
}

/// The architectural register a 5-bit field names.
pub fn areg(bits: u64) -> Reg {
    Reg::from_number((bits & 31) as u8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_bitstate::Census;

    #[test]
    fn fetch_queue_fifo_order() {
        let mut fq = FetchQueue::new();
        for i in 0..5u64 {
            fq.push(SlotPayload { pc: 0x1000 + i * 4, ..Default::default() });
        }
        assert_eq!(fq.len(), 5);
        for i in 0..5u64 {
            assert_eq!(fq.pop().unwrap().pc, 0x1000 + i * 4);
        }
        assert!(fq.pop().is_none());
    }

    #[test]
    fn fetch_queue_capacity() {
        let mut fq = FetchQueue::new();
        for _ in 0..32 {
            fq.push(SlotPayload::default());
        }
        assert_eq!(fq.free(), 0);
        fq.clear();
        assert_eq!(fq.free(), 32);
    }

    #[test]
    fn rob_alloc_retire_cycle() {
        let mut rob = Rob::new();
        let t0 = rob.alloc(RobEntry { pc: 0x100, ..Default::default() });
        let t1 = rob.alloc(RobEntry { pc: 0x104, ..Default::default() });
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.head_tag(), t0);
        assert!(rob.younger(t1, t0));
        assert!(!rob.younger(t0, t1));
        let e = rob.retire_head();
        assert_eq!(e.pc, 0x100);
        assert_eq!(rob.head_tag(), t1);
    }

    #[test]
    fn rob_tail_walk() {
        let mut rob = Rob::new();
        rob.alloc(RobEntry { pc: 0x100, ..Default::default() });
        rob.alloc(RobEntry { pc: 0x104, ..Default::default() });
        rob.alloc(RobEntry { pc: 0x108, ..Default::default() });
        let e = rob.pop_tail();
        assert_eq!(e.pc, 0x108);
        assert_eq!(rob.len(), 2);
    }

    #[test]
    fn rob_age_wraps_correctly() {
        let mut rob = Rob::new();
        // Advance head/tail near the wrap point.
        for _ in 0..60 {
            rob.alloc(RobEntry::default());
            rob.retire_head();
        }
        let a = rob.alloc(RobEntry::default());
        let b = rob.alloc(RobEntry::default());
        let c = rob.alloc(RobEntry::default());
        let d = rob.alloc(RobEntry::default());
        let e = rob.alloc(RobEntry::default());
        assert!(rob.younger(e, a));
        assert!(rob.younger(d, c));
        assert_eq!(rob.age(a), 0);
        assert_eq!(rob.age(b), 1);
        assert_eq!(rob.age(e), 4);
    }

    #[test]
    fn lsq_allocation_and_flush() {
        let mut lsq = Lsq::new();
        let l = lsq.alloc_load(LqEntry { rob: 3, ..Default::default() });
        let s = lsq.alloc_store(SqEntry { rob: 4, ..Default::default() });
        assert_eq!((l, s), (0, 0));
        assert_eq!(lsq.lq_free(), 15);
        assert_eq!(lsq.sq_free(), 15);
        lsq.poke_sq(0).senior = true;
        lsq.alloc_store(SqEntry { rob: 9, ..Default::default() });
        lsq.flush_keep_senior();
        assert_eq!(lsq.lq_free(), 16, "loads fully cleared");
        assert_eq!(lsq.sq_free(), 15, "senior store survives the flush");
        assert!(lsq.peek_sq(0).senior);
        assert!(!lsq.peek_sq(1).valid);
    }

    #[test]
    fn overlap_and_containment() {
        assert!(ranges_overlap(100, 8, 104, 8));
        assert!(!ranges_overlap(100, 4, 104, 4));
        assert!(range_contains(100, 8, 104, 4));
        assert!(!range_contains(100, 8, 104, 8));
        assert!(range_contains(100, 8, 100, 8));
    }

    #[test]
    fn size_encoding_round_trip() {
        for s in [1u64, 2, 4, 8] {
            let e = LqEntry { size_log2: size_to_log2(s), ..Default::default() };
            assert_eq!(e.size(), s);
        }
    }

    #[test]
    fn exc_code_round_trip() {
        for bits in 0..8u64 {
            let c = ExcCode::from_bits(bits);
            if bits <= 6 {
                assert_eq!(c as u64, bits);
            } else {
                assert_eq!(c, ExcCode::BadPal);
            }
        }
    }

    #[test]
    fn census_categories_present() {
        let mut rob = Rob::new();
        let mut c = Census::new();
        rob.visit(&mut c, true, false);
        // 64 entries x 2 x 62-bit PC fields.
        assert_eq!(c.bits(Category::Pc, StorageKind::Ram), 64 * 124);
        assert_eq!(c.bits(Category::Insn, StorageKind::Ram), 64 * 32);
        assert_eq!(c.bits(Category::Regptr, StorageKind::Ram), 64 * 14);
        assert_eq!(c.bits(Category::Parity, StorageKind::Ram), 64);
        assert_eq!(c.bits(Category::Qctrl, StorageKind::Latch), 19);

        let mut lsq = Lsq::new();
        let mut c = Census::new();
        lsq.visit(&mut c, false);
        assert_eq!(c.bits(Category::Addr, StorageKind::Ram), 32 * 64);
        assert_eq!(c.bits(Category::Data, StorageKind::Ram), 32 * 64);
    }

    #[test]
    fn corrupted_ring_pointers_do_not_panic() {
        let mut fq = FetchQueue::new();
        fq.head = 63;
        fq.tail = 70;
        fq.count = 63;
        for _ in 0..100 {
            let _ = fq.pop();
        }
        let mut rob = Rob::new();
        rob.head = 127;
        rob.count = 127;
        let _ = rob.retire_head();
        let _ = rob.entry(999);
        let mut lsq = Lsq::new();
        lsq.sq_tail = 31;
        lsq.sq_count = 31;
        lsq.pop_store_tail();
        lsq.flush_keep_senior();
    }
}
