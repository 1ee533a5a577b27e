#![warn(missing_docs)]

//! # tfsim-bitstate — the bit-level state registry
//!
//! The paper's experiments require a *latch-accurate* model: every state
//! element (latch bit or RAM cell) present in the implementation must be
//! enumerable, categorized by logical function and storage kind, and
//! individually flippable, and the entire machine state must be comparable
//! against a golden run.
//!
//! This crate provides that machinery without dictating how the pipeline
//! stores its state: pipeline structures keep ordinary Rust fields and
//! implement [`VisitState`], walking each field through a [`StateVisitor`]
//! with its [`FieldMeta`] (category, storage kind, injectability). Four
//! visitors implement the experiments:
//!
//! * [`Census`] — Table 1: bits of latches and RAMs per category.
//! * [`BitCount`] — the eligible-bit total under an [`InjectionMask`].
//! * [`FlipBit`] — flips the *k*-th eligible bit and reports what it hit.
//! * [`Fingerprint`] — a 128-bit hash of every bit of machine state, used
//!   for the µArch Match comparison against the golden run.
//!
//! Cache and predictor arrays are *fingerprinted but not injectable*
//! (`injectable = false`), matching the paper's exclusion of easily
//! protected or correctness-neutral RAM arrays from the campaigns.
//!
//! ```
//! use tfsim_bitstate::{Category, Census, FieldMeta, StateVisitor, StorageKind, VisitState};
//!
//! struct Stage { pc: u64, valid: bool }
//! impl VisitState for Stage {
//!     fn visit_state(&mut self, v: &mut dyn StateVisitor) {
//!         tfsim_bitstate::visit_pc(v, StorageKind::Latch, &mut self.pc);
//!         tfsim_bitstate::visit_bool(
//!             v,
//!             FieldMeta::new(Category::Valid, StorageKind::Latch),
//!             &mut self.valid,
//!         );
//!     }
//! }
//!
//! let mut stage = Stage { pc: 0x1000, valid: true };
//! let mut census = Census::new();
//! stage.visit_state(&mut census);
//! assert_eq!(census.bits(Category::Pc, StorageKind::Latch), 62);
//! assert_eq!(census.bits(Category::Valid, StorageKind::Latch), 1);
//! ```

use std::fmt;

/// Logical function of a bit of state — the categories of the paper's
/// Table 1, plus the two categories introduced by the protection hardware
/// (`Ecc`, `Parity`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Category {
    /// 64-bit address fields for memory operations.
    Addr,
    /// Architectural register free list.
    ArchFreelist,
    /// Architectural register alias table.
    ArchRat,
    /// Miscellaneous control state (decoded control words, state machines).
    Ctrl,
    /// Instruction input and output operands.
    Data,
    /// Parts of the instruction word carried with each instruction.
    Insn,
    /// Program counter fields (62 bits: byte address without the aligned
    /// low two bits).
    Pc,
    /// Control state associated with queues (head/tail pointers, counts).
    Qctrl,
    /// Register file entries and scoreboard bits.
    Regfile,
    /// Physical register file pointers (7 bits for 80 registers).
    Regptr,
    /// Reorder buffer tags (6 bits for 64 entries).
    Robptr,
    /// Speculative register free list.
    SpecFreelist,
    /// Speculative register alias table.
    SpecRat,
    /// Valid bits throughout the pipeline.
    Valid,
    /// ECC check bits added by the protection mechanisms.
    Ecc,
    /// Parity bits added by the protection mechanisms.
    Parity,
}

impl Category {
    /// The fourteen baseline categories of Table 1 (paper order).
    pub const BASELINE: [Category; 14] = [
        Category::Addr,
        Category::ArchFreelist,
        Category::ArchRat,
        Category::Ctrl,
        Category::Data,
        Category::Insn,
        Category::Pc,
        Category::Qctrl,
        Category::Regfile,
        Category::Regptr,
        Category::Robptr,
        Category::SpecFreelist,
        Category::SpecRat,
        Category::Valid,
    ];

    /// All categories including the protection-introduced ones.
    pub const ALL: [Category; 16] = [
        Category::Addr,
        Category::ArchFreelist,
        Category::ArchRat,
        Category::Ctrl,
        Category::Data,
        Category::Insn,
        Category::Pc,
        Category::Qctrl,
        Category::Regfile,
        Category::Regptr,
        Category::Robptr,
        Category::SpecFreelist,
        Category::SpecRat,
        Category::Valid,
        Category::Ecc,
        Category::Parity,
    ];

    /// The lowercase label used in the paper's tables and figures.
    pub fn label(self) -> &'static str {
        match self {
            Category::Addr => "addr",
            Category::ArchFreelist => "archfreelist",
            Category::ArchRat => "archrat",
            Category::Ctrl => "ctrl",
            Category::Data => "data",
            Category::Insn => "insn",
            Category::Pc => "pc",
            Category::Qctrl => "qctrl",
            Category::Regfile => "regfile",
            Category::Regptr => "regptr",
            Category::Robptr => "robptr",
            Category::SpecFreelist => "specfreelist",
            Category::SpecRat => "specrat",
            Category::Valid => "valid",
            Category::Ecc => "ecc",
            Category::Parity => "parity",
        }
    }

    fn index(self) -> usize {
        Category::ALL.iter().position(|c| *c == self).expect("category in ALL")
    }
}

impl fmt::Display for Category {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Whether a state element is implemented as an edge-triggered latch or as
/// a cell in a RAM array. The paper runs separate campaigns for
/// latches-only and latches+RAMs because the two have different raw fault
/// rates and protection options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum StorageKind {
    /// Pipeline latch (edge-triggered flip-flop).
    Latch,
    /// RAM array cell.
    Ram,
}

impl StorageKind {
    /// Short lowercase label for reports and traces.
    pub fn label(self) -> &'static str {
        match self {
            StorageKind::Latch => "latch",
            StorageKind::Ram => "ram",
        }
    }
}

impl fmt::Display for StorageKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Metadata attached to every visited field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FieldMeta {
    /// Logical function.
    pub category: Category,
    /// Storage implementation.
    pub kind: StorageKind,
    /// Whether fault-injection campaigns may target this field. Cache and
    /// predictor arrays are fingerprinted but not injectable.
    pub injectable: bool,
}

impl FieldMeta {
    /// Injectable state with the given category and kind.
    pub fn new(category: Category, kind: StorageKind) -> FieldMeta {
        FieldMeta { category, kind, injectable: true }
    }

    /// Fingerprint-only state (cache/predictor arrays): never injected.
    pub fn shadow(category: Category, kind: StorageKind) -> FieldMeta {
        FieldMeta { category, kind, injectable: false }
    }
}

/// A named subtree of machine state used for hierarchical fingerprinting.
///
/// [`VisitState`] implementations may bracket groups of fields between
/// [`StateVisitor::enter_unit`] / [`StateVisitor::exit_unit`] calls. Each
/// unit carries a monotonic *generation stamp*: a counter the machine
/// advances whenever the unit's content may have changed. Fingerprint
/// visitors use the stamp to skip rehashing units that provably did not
/// change since the last walk; all other visitors ignore units entirely,
/// so field order, bit numbering, and injection targets are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum UnitId {
    /// Front-end latches: fetch control, fetch stages/queue, decode and
    /// rename pipe slots.
    Front,
    /// Register rename state: speculative and architectural RATs and free
    /// lists.
    Rename,
    /// Issue scheduler (instruction queue) entries.
    Sched,
    /// Reorder buffer entries.
    Rob,
    /// Load/store queue entries.
    Lsq,
    /// Functional-unit pipeline latches.
    Fus,
    /// Physical register file (and its ECC shadow when enabled).
    Regfile,
    /// Architectural bookkeeping: speculative-ready bits, miss handling
    /// registers, retire PC, watchdog.
    ArchCtrl,
    /// Branch direction predictor tables and global history.
    Bpred,
    /// Branch target buffer.
    Btb,
    /// Return address stack.
    Ras,
    /// Instruction cache tag/valid/LRU arrays.
    Icache,
    /// Data cache tag/valid/LRU arrays.
    Dcache,
    /// Store-set memory dependence predictor.
    StoreSets,
}

impl UnitId {
    /// Every unit, in the fixed order `Pipeline::visit_state` emits them.
    pub const ALL: [UnitId; 14] = [
        UnitId::Front,
        UnitId::Rename,
        UnitId::Sched,
        UnitId::Rob,
        UnitId::Lsq,
        UnitId::Fus,
        UnitId::Regfile,
        UnitId::ArchCtrl,
        UnitId::Bpred,
        UnitId::Btb,
        UnitId::Ras,
        UnitId::Icache,
        UnitId::Dcache,
        UnitId::StoreSets,
    ];

    /// Number of units.
    pub const COUNT: usize = UnitId::ALL.len();

    /// Position of this unit in [`UnitId::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Bitmask (bit `index()`) of the units whose hashes differ between
    /// two per-unit fingerprint arrays — the diverged-unit set the
    /// deep-trace mode samples at each microarchitectural check. `u16`
    /// because [`UnitId::COUNT`] is 14; a unit bracketing change that
    /// overflows it would fail the width assertion in every build.
    pub fn diverged_mask(a: &[u128; UnitId::COUNT], b: &[u128; UnitId::COUNT]) -> u16 {
        const { assert!(UnitId::COUNT <= u16::BITS as usize) };
        let mut mask = 0u16;
        for i in 0..UnitId::COUNT {
            if a[i] != b[i] {
                mask |= 1 << i;
            }
        }
        mask
    }

    /// The units set in a [`UnitId::diverged_mask`] bitmask, in
    /// [`UnitId::ALL`] order.
    pub fn from_mask(mask: u16) -> impl Iterator<Item = UnitId> {
        UnitId::ALL.into_iter().filter(move |u| mask & (1 << u.index()) != 0)
    }

    /// Short lowercase label for reports.
    pub fn label(self) -> &'static str {
        match self {
            UnitId::Front => "front",
            UnitId::Rename => "rename",
            UnitId::Sched => "sched",
            UnitId::Rob => "rob",
            UnitId::Lsq => "lsq",
            UnitId::Fus => "fus",
            UnitId::Regfile => "regfile",
            UnitId::ArchCtrl => "archctrl",
            UnitId::Bpred => "bpred",
            UnitId::Btb => "btb",
            UnitId::Ras => "ras",
            UnitId::Icache => "icache",
            UnitId::Dcache => "dcache",
            UnitId::StoreSets => "storesets",
        }
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Access-log coverage tier of a fingerprint unit.
///
/// The fast trial engine consumes golden-run read/write timelines, and a
/// timeline is only trustworthy for a unit whose accessors actually log. Before this enum existed that
/// coverage was implicit — an untracked structure silently produced an
/// empty timeline, which the conservative consumers treated as "always
/// simulate", quietly degrading to no-prune. Every unit now declares its
/// tier explicitly, and `tfsim-uarch` tests pin the declaration against
/// the pipeline's actual instrumentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loggability {
    /// Logged whenever access tracking is on: the frozen core tier (LSQ,
    /// register file, MHRs).
    Core,
    /// Logged only under *extended* access tracking: structures whose
    /// instrumentation exists for the analytic pruner's dead-window
    /// proofs (front-end latches and fetch queue, rename tables,
    /// scheduler, ROB, functional units).
    Extended,
    /// Injectable state with no per-word access discipline: never
    /// logged, sites here are always simulated. Currently empty — kept
    /// so a future structure can opt out without redefining the tiers.
    Unlogged,
    /// Fingerprint-only shadow state (`FieldMeta::shadow`): not
    /// injectable, so no fault site can land there and no timeline is
    /// needed.
    Shadow,
}

impl UnitId {
    /// The declared access-log coverage tier of this unit.
    pub fn loggability(self) -> Loggability {
        match self {
            UnitId::Lsq | UnitId::Regfile | UnitId::ArchCtrl => Loggability::Core,
            UnitId::Front
            | UnitId::Rename
            | UnitId::Sched
            | UnitId::Rob
            | UnitId::Fus => Loggability::Extended,
            UnitId::Bpred
            | UnitId::Btb
            | UnitId::Ras
            | UnitId::Icache
            | UnitId::Dcache
            | UnitId::StoreSets => Loggability::Shadow,
        }
    }
}

/// A visitor over every bit of machine state.
///
/// Implementations receive each field exactly once per walk, in a fixed
/// deterministic order. Fields are at most 64 bits wide; wider structures
/// are visited as arrays.
pub trait StateVisitor {
    /// Visits one field of `width` bits (1 ≤ width ≤ 64) stored in the low
    /// bits of `bits`. The visitor may mutate the value (fault injection).
    fn field(&mut self, meta: FieldMeta, width: u32, bits: &mut u64);

    /// Visits a RAM array of equally sized entries. The default forwards to
    /// [`StateVisitor::field`] per entry; fingerprinting overrides this for
    /// speed.
    fn array(&mut self, meta: FieldMeta, entry_width: u32, entries: &mut [u64]) {
        for e in entries.iter_mut() {
            self.field(meta, entry_width, e);
        }
    }

    /// Marks the start of fingerprint unit `unit`, whose content is
    /// summarized by the machine-provided generation stamp `gen` (a counter
    /// that advances whenever the unit's bits may have changed).
    ///
    /// Returning `false` asks the machine to skip the unit's fields and not
    /// call [`StateVisitor::exit_unit`]: the visitor already knows the
    /// unit's contribution (e.g. a cached subhash for an unchanged `gen`).
    /// Visitors that must see every field — censuses, bit counts, fault
    /// injection, snapshots — keep this default, which visits everything.
    /// Units never nest.
    fn enter_unit(&mut self, _unit: UnitId, _gen: u64) -> bool {
        true
    }

    /// Marks the end of unit `unit`. Only called when the matching
    /// [`StateVisitor::enter_unit`] returned `true`.
    fn exit_unit(&mut self, _unit: UnitId) {}
}

/// A structure exposing its state bits to visitors.
pub trait VisitState {
    /// Walks every state bit in a fixed deterministic order.
    fn visit_state(&mut self, v: &mut dyn StateVisitor);
}

/// Visits a `bool` as a 1-bit field.
pub fn visit_bool(v: &mut dyn StateVisitor, meta: FieldMeta, b: &mut bool) {
    let mut bits = *b as u64;
    v.field(meta, 1, &mut bits);
    *b = bits & 1 != 0;
}

/// Visits a program counter stored as a byte address whose low two bits are
/// architecturally zero: exposes bits 63..2 as a 62-bit `pc` field, the
/// paper's PC representation.
pub fn visit_pc(v: &mut dyn StateVisitor, kind: StorageKind, pc: &mut u64) {
    let mut bits = *pc >> 2;
    v.field(FieldMeta::new(Category::Pc, kind), 62, &mut bits);
    *pc = bits << 2;
}

fn width_mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Which bits a fault-injection campaign may target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InjectionMask {
    /// All injectable latches and RAM cells (the paper's `l+r` campaigns).
    LatchesAndRams,
    /// Injectable latches only (the paper's `l` campaigns).
    LatchesOnly,
}

impl InjectionMask {
    /// Whether a field with `meta` is eligible under this mask.
    pub fn eligible(self, meta: FieldMeta) -> bool {
        meta.injectable
            && match self {
                InjectionMask::LatchesAndRams => true,
                InjectionMask::LatchesOnly => meta.kind == StorageKind::Latch,
            }
    }
}

/// Counts state bits per `(category, kind)` — Table 1.
#[derive(Debug, Clone, Default)]
pub struct Census {
    counts: [[u64; 2]; Category::ALL.len()],
    shadow_bits: u64,
}

impl Census {
    /// Creates an empty census.
    pub fn new() -> Census {
        Census::default()
    }

    /// Injectable bits recorded for a category/kind pair.
    pub fn bits(&self, category: Category, kind: StorageKind) -> u64 {
        self.counts[category.index()][kind as usize]
    }

    /// Total injectable latch bits.
    pub fn latch_total(&self) -> u64 {
        Category::ALL.iter().map(|c| self.bits(*c, StorageKind::Latch)).sum()
    }

    /// Total injectable RAM bits.
    pub fn ram_total(&self) -> u64 {
        Category::ALL.iter().map(|c| self.bits(*c, StorageKind::Ram)).sum()
    }

    /// All injectable bits.
    pub fn total(&self) -> u64 {
        self.latch_total() + self.ram_total()
    }

    /// Bits visited but excluded from injection (cache/predictor state).
    pub fn shadow_total(&self) -> u64 {
        self.shadow_bits
    }

    /// Renders the census as a Table 1-style fixed-width table.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<14} {:>12} {:>12}\n",
            "category", "latch bits", "ram bits"
        ));
        for c in Category::ALL {
            let l = self.bits(c, StorageKind::Latch);
            let r = self.bits(c, StorageKind::Ram);
            if l == 0 && r == 0 {
                continue;
            }
            out.push_str(&format!("{:<14} {:>12} {:>12}\n", c.label(), l, r));
        }
        out.push_str(&format!(
            "{:<14} {:>12} {:>12}\n",
            "total",
            self.latch_total(),
            self.ram_total()
        ));
        out
    }
}

impl StateVisitor for Census {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        debug_assert!((1..=64).contains(&width));
        if meta.injectable {
            self.counts[meta.category.index()][meta.kind as usize] += width as u64;
        } else {
            self.shadow_bits += width as u64;
        }
    }

    fn array(&mut self, meta: FieldMeta, entry_width: u32, entries: &mut [u64]) {
        let bits = entry_width as u64 * entries.len() as u64;
        if meta.injectable {
            self.counts[meta.category.index()][meta.kind as usize] += bits;
        } else {
            self.shadow_bits += bits;
        }
    }
}

/// Counts the eligible bits under an [`InjectionMask`]; the fault selector
/// draws a uniform index in `[0, count)`.
#[derive(Debug, Clone, Copy)]
pub struct BitCount {
    mask: InjectionMask,
    /// Number of eligible bits visited.
    pub count: u64,
}

impl BitCount {
    /// Creates a counter for `mask`.
    pub fn new(mask: InjectionMask) -> BitCount {
        BitCount { mask, count: 0 }
    }
}

impl StateVisitor for BitCount {
    fn field(&mut self, meta: FieldMeta, width: u32, _bits: &mut u64) {
        if self.mask.eligible(meta) {
            self.count += width as u64;
        }
    }

    fn array(&mut self, meta: FieldMeta, entry_width: u32, entries: &mut [u64]) {
        if self.mask.eligible(meta) {
            self.count += entry_width as u64 * entries.len() as u64;
        }
    }
}

/// Description of the bit a [`FlipBit`] visitor flipped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlippedBit {
    /// Category of the containing field.
    pub category: Category,
    /// Storage kind of the containing field.
    pub kind: StorageKind,
    /// Bit offset within the field.
    pub bit: u32,
    /// Field width.
    pub width: u32,
    /// Fingerprint unit enclosing the field at flip time, if any — the
    /// injection site for per-unit vulnerability attribution.
    pub unit: Option<UnitId>,
}

/// Flips the `target`-th eligible bit (in visit order) under a mask.
#[derive(Debug, Clone, Copy)]
pub struct FlipBit {
    mask: InjectionMask,
    target: u64,
    pos: u64,
    in_unit: Option<UnitId>,
    /// Set once the target bit has been flipped.
    pub flipped: Option<FlippedBit>,
}

impl FlipBit {
    /// Creates a visitor that will flip eligible bit number `target`.
    pub fn new(mask: InjectionMask, target: u64) -> FlipBit {
        FlipBit { mask, target, pos: 0, in_unit: None, flipped: None }
    }
}

impl StateVisitor for FlipBit {
    fn field(&mut self, meta: FieldMeta, width: u32, bits: &mut u64) {
        if self.flipped.is_some() || !self.mask.eligible(meta) {
            return;
        }
        let w = width as u64;
        if self.target < self.pos + w {
            let bit = (self.target - self.pos) as u32;
            *bits ^= 1u64 << bit;
            *bits &= width_mask(width);
            self.flipped = Some(FlippedBit {
                category: meta.category,
                kind: meta.kind,
                bit,
                width,
                unit: self.in_unit,
            });
        }
        self.pos += w;
    }

    fn array(&mut self, meta: FieldMeta, entry_width: u32, entries: &mut [u64]) {
        if self.flipped.is_some() || !self.mask.eligible(meta) {
            return;
        }
        let total = entry_width as u64 * entries.len() as u64;
        if self.target < self.pos + total {
            let offset = self.target - self.pos;
            let entry = (offset / entry_width as u64) as usize;
            let bit = (offset % entry_width as u64) as u32;
            entries[entry] ^= 1u64 << bit;
            entries[entry] &= width_mask(entry_width);
            self.flipped = Some(FlippedBit {
                category: meta.category,
                kind: meta.kind,
                bit,
                width: entry_width,
                unit: self.in_unit,
            });
        }
        self.pos += total;
    }

    fn enter_unit(&mut self, unit: UnitId, _gen: u64) -> bool {
        // Track the enclosing unit for injection-site attribution, but keep
        // visiting everything: bit numbering must not depend on units.
        self.in_unit = Some(unit);
        true
    }

    fn exit_unit(&mut self, _unit: UnitId) {
        self.in_unit = None;
    }
}

/// 128-bit FNV-1a style fingerprint over every visited bit (including
/// non-injectable shadow state). Two machines with equal fingerprints are
/// treated as microarchitecturally identical.
///
/// The hash is *hierarchical*: each [`UnitId`] unit the machine brackets is
/// hashed into its own 128-bit subhash (starting from the FNV offset), and
/// the root mixes stray (non-unit) words and completed unit subhashes in
/// visit order. This makes the root reconstructible from cached subhashes —
/// see [`CachedFingerprint`] — and lets a golden-run ladder store per-unit
/// hashes for first-divergence attribution. Machines that declare no units
/// hash exactly as a flat FNV over their words.
#[derive(Debug, Clone, Copy)]
pub struct Fingerprint {
    h: u128,
    sub: u128,
    in_unit: bool,
    units: [u128; UnitId::COUNT],
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl Fingerprint {
    /// Creates a fresh fingerprint accumulator.
    pub fn new() -> Fingerprint {
        Fingerprint { h: FNV128_OFFSET, sub: FNV128_OFFSET, in_unit: false, units: [0; UnitId::COUNT] }
    }

    /// The accumulated 128-bit root hash.
    pub fn value(&self) -> u128 {
        self.h
    }

    /// Subhash of one unit (0 if the machine never visited it).
    pub fn unit(&self, unit: UnitId) -> u128 {
        self.units[unit.index()]
    }

    /// All unit subhashes, indexed by [`UnitId::index`].
    pub fn unit_hashes(&self) -> &[u128; UnitId::COUNT] {
        &self.units
    }

    fn mix(&mut self, word: u64) {
        let acc = if self.in_unit { &mut self.sub } else { &mut self.h };
        *acc ^= word as u128;
        *acc = acc.wrapping_mul(FNV128_PRIME);
    }
}

impl Default for Fingerprint {
    fn default() -> Self {
        Fingerprint::new()
    }
}

impl StateVisitor for Fingerprint {
    fn field(&mut self, _meta: FieldMeta, width: u32, bits: &mut u64) {
        debug_assert_eq!(*bits & !width_mask(width), 0, "field exceeds declared width {width}");
        self.mix(*bits);
    }

    fn array(&mut self, _meta: FieldMeta, _entry_width: u32, entries: &mut [u64]) {
        for e in entries.iter() {
            self.mix(*e);
        }
    }

    fn enter_unit(&mut self, _unit: UnitId, _gen: u64) -> bool {
        debug_assert!(!self.in_unit, "fingerprint units must not nest");
        self.sub = FNV128_OFFSET;
        self.in_unit = true;
        true
    }

    fn exit_unit(&mut self, unit: UnitId) {
        debug_assert!(self.in_unit, "exit_unit without enter_unit");
        self.in_unit = false;
        self.units[unit.index()] = self.sub;
        self.h ^= self.sub;
        self.h = self.h.wrapping_mul(FNV128_PRIME);
    }
}

/// Computes the fingerprint of a [`VisitState`] machine.
pub fn fingerprint_of(machine: &mut dyn VisitState) -> u128 {
    let mut fp = Fingerprint::new();
    machine.visit_state(&mut fp);
    fp.value()
}

/// An incremental fingerprint engine that caches per-unit subhashes keyed
/// by the generation stamps machines pass to [`StateVisitor::enter_unit`].
///
/// On a walk, a unit whose stamp matches the cached one is *skipped*
/// (`enter_unit` returns `false`) and its cached subhash is mixed into the
/// root, so the root always equals what [`fingerprint_of`] would compute —
/// without rehashing unchanged predictor and cache arrays.
///
/// # Correctness contract
///
/// A cache is valid for **one machine instance**, and only while every
/// state change between [`CachedFingerprint::fingerprint`] calls goes
/// through the machine's mutation API (which advances the generation
/// stamps). After out-of-band mutation — e.g. a [`FlipBit`] walk — call
/// [`CachedFingerprint::invalidate`] or use a fresh engine.
#[derive(Debug, Clone)]
pub struct CachedFingerprint {
    h: u128,
    sub: u128,
    active: Option<(UnitId, u64)>,
    cache: [Option<(u64, u128)>; UnitId::COUNT],
    units: [u128; UnitId::COUNT],
    seen: u16, // units visited this walk (duplicates would poison the cache)
    probe: Option<UnitId>, // walk only this unit (see `matches`)
    suspect: Option<UnitId>, // unit that mismatched golden on the last `matches`
    hits: u64,
    misses: u64,
}

impl CachedFingerprint {
    /// Creates an engine with an empty cache.
    pub fn new() -> CachedFingerprint {
        CachedFingerprint {
            h: FNV128_OFFSET,
            sub: FNV128_OFFSET,
            active: None,
            cache: [None; UnitId::COUNT],
            units: [0; UnitId::COUNT],
            seen: 0,
            probe: None,
            suspect: None,
            hits: 0,
            misses: 0,
        }
    }

    /// Fingerprints `machine`, reusing cached subhashes for units whose
    /// generation stamp is unchanged since the previous call. Equals
    /// [`fingerprint_of`] on the same machine.
    pub fn fingerprint(&mut self, machine: &mut dyn VisitState) -> u128 {
        self.h = FNV128_OFFSET;
        self.active = None;
        self.seen = 0;
        machine.visit_state(self);
        debug_assert!(self.active.is_none(), "unclosed fingerprint unit");
        self.h
    }

    /// Compares `machine` against a golden fingerprint row — the root hash
    /// plus the per-unit subhashes it was folded from — returning whether
    /// they match. Semantically this is `self.fingerprint(machine) ==
    /// golden_root`, but a diverged machine usually stays diverged *in the
    /// same unit* (a latent flip sits where it landed), so the unit that
    /// mismatched on the previous call is re-probed first, skipping the
    /// rest of the walk entirely while the divergence persists. This is
    /// what makes monitoring a latent fault cheap: steady-state checks hash
    /// one unit instead of the machine.
    ///
    /// The short-circuit decides "mismatch" from a single unequal subhash
    /// where the root comparison folds all of them; the two disagree only
    /// if distinct states collide in the 128-bit hash — the same exposure
    /// the root equality check itself always had.
    pub fn matches(
        &mut self,
        machine: &mut dyn VisitState,
        golden_root: u128,
        golden_units: &[u128; UnitId::COUNT],
    ) -> bool {
        if let Some(suspect) = self.suspect {
            if self.probe_unit(machine, suspect) != golden_units[suspect.index()] {
                return false;
            }
            // The old divergence healed (or was never in a unit): fall
            // through to the authoritative full walk.
            self.suspect = None;
        }
        if self.fingerprint(machine) == golden_root {
            return true;
        }
        self.suspect = UnitId::ALL
            .iter()
            .copied()
            .find(|u| self.units[u.index()] != golden_units[u.index()]);
        false
    }

    /// Rehashes only `unit` (cache rules unchanged) and returns its
    /// subhash; every other unit is skipped without being touched.
    fn probe_unit(&mut self, machine: &mut dyn VisitState, unit: UnitId) -> u128 {
        self.h = FNV128_OFFSET;
        self.active = None;
        self.seen = 0;
        self.probe = Some(unit);
        machine.visit_state(self);
        self.probe = None;
        debug_assert!(self.active.is_none(), "unclosed fingerprint unit");
        debug_assert!(
            self.seen & (1 << unit.index()) != 0,
            "probed unit {unit} was never visited by the machine"
        );
        self.units[unit.index()]
    }

    /// Drops every cached subhash. Required after mutating the machine
    /// behind the generation stamps' back (e.g. [`FlipBit`]).
    pub fn invalidate(&mut self) {
        self.cache = [None; UnitId::COUNT];
        self.suspect = None;
    }

    /// The unit whose subhash mismatched golden on the last failed
    /// [`CachedFingerprint::matches`] call, if the divergence was inside a
    /// unit. Cleared when a check passes (or when a suspect probe heals).
    /// This is the cheapest available first-divergence attribution: the
    /// engine already localized the mismatch while short-circuiting.
    pub fn suspect(&self) -> Option<UnitId> {
        self.suspect
    }

    /// Subhash of one unit as of the last [`CachedFingerprint::fingerprint`]
    /// call (0 if the machine never visited it).
    pub fn unit(&self, unit: UnitId) -> u128 {
        self.units[unit.index()]
    }

    /// All unit subhashes from the last walk, indexed by [`UnitId::index`].
    pub fn unit_hashes(&self) -> &[u128; UnitId::COUNT] {
        &self.units
    }

    /// Units served from cache across all walks.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Units rehashed across all walks.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    fn mix(&mut self, word: u64) {
        let acc = if self.active.is_some() { &mut self.sub } else { &mut self.h };
        *acc ^= word as u128;
        *acc = acc.wrapping_mul(FNV128_PRIME);
    }

    fn mix_unit(&mut self, sub: u128) {
        self.h ^= sub;
        self.h = self.h.wrapping_mul(FNV128_PRIME);
    }
}

impl Default for CachedFingerprint {
    fn default() -> Self {
        CachedFingerprint::new()
    }
}

impl StateVisitor for CachedFingerprint {
    fn field(&mut self, _meta: FieldMeta, width: u32, bits: &mut u64) {
        debug_assert_eq!(*bits & !width_mask(width), 0, "field exceeds declared width {width}");
        self.mix(*bits);
    }

    fn array(&mut self, _meta: FieldMeta, _entry_width: u32, entries: &mut [u64]) {
        for e in entries.iter() {
            self.mix(*e);
        }
    }

    fn enter_unit(&mut self, unit: UnitId, gen: u64) -> bool {
        debug_assert!(self.active.is_none(), "fingerprint units must not nest");
        debug_assert_eq!(
            self.seen & (1 << unit.index()),
            0,
            "unit {unit} visited twice in one walk — its cache entry would go stale"
        );
        self.seen |= 1 << unit.index();
        if self.probe.is_some_and(|p| p != unit) {
            // Probe walk for another unit: skip without touching the cache
            // (entries stay keyed by their recorded generations).
            return false;
        }
        if let Some((g, h)) = self.cache[unit.index()] {
            if g == gen {
                self.hits += 1;
                self.units[unit.index()] = h;
                self.mix_unit(h);
                return false;
            }
        }
        self.misses += 1;
        self.active = Some((unit, gen));
        self.sub = FNV128_OFFSET;
        true
    }

    fn exit_unit(&mut self, unit: UnitId) {
        let (active, gen) = self.active.take().expect("exit_unit without matching enter_unit");
        debug_assert_eq!(active, unit, "exit_unit for a different unit than enter_unit");
        self.cache[unit.index()] = Some((gen, self.sub));
        self.units[unit.index()] = self.sub;
        self.mix_unit(self.sub);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diverged_mask_flags_differing_units() {
        let a = [7u128; UnitId::COUNT];
        let mut b = a;
        assert_eq!(UnitId::diverged_mask(&a, &b), 0);
        assert_eq!(UnitId::from_mask(0).count(), 0);
        b[UnitId::Rob.index()] ^= 1;
        b[UnitId::Dcache.index()] ^= 99;
        let mask = UnitId::diverged_mask(&a, &b);
        let units: Vec<UnitId> = UnitId::from_mask(mask).collect();
        assert_eq!(units, vec![UnitId::Rob, UnitId::Dcache]);
        let all = UnitId::diverged_mask(&[0; UnitId::COUNT], &[1; UnitId::COUNT]);
        assert_eq!(UnitId::from_mask(all).count(), UnitId::COUNT);
    }

    struct Toy {
        pc: u64,
        data: u64,
        valid: bool,
        ram: Vec<u64>,
        shadow: u64,
    }

    impl VisitState for Toy {
        fn visit_state(&mut self, v: &mut dyn StateVisitor) {
            visit_pc(v, StorageKind::Latch, &mut self.pc);
            v.field(FieldMeta::new(Category::Data, StorageKind::Latch), 64, &mut self.data);
            visit_bool(v, FieldMeta::new(Category::Valid, StorageKind::Latch), &mut self.valid);
            v.array(FieldMeta::new(Category::Regfile, StorageKind::Ram), 7, &mut self.ram);
            v.field(FieldMeta::shadow(Category::Ctrl, StorageKind::Ram), 20, &mut self.shadow);
        }
    }

    fn toy() -> Toy {
        Toy { pc: 0x1000, data: 0xdead, valid: true, ram: vec![1, 2, 3, 4], shadow: 7 }
    }

    #[test]
    fn census_counts_by_category_and_kind() {
        let mut t = toy();
        let mut c = Census::new();
        t.visit_state(&mut c);
        assert_eq!(c.bits(Category::Pc, StorageKind::Latch), 62);
        assert_eq!(c.bits(Category::Data, StorageKind::Latch), 64);
        assert_eq!(c.bits(Category::Valid, StorageKind::Latch), 1);
        assert_eq!(c.bits(Category::Regfile, StorageKind::Ram), 28);
        assert_eq!(c.latch_total(), 127);
        assert_eq!(c.ram_total(), 28);
        assert_eq!(c.total(), 155);
        assert_eq!(c.shadow_total(), 20);
        assert!(c.to_table().contains("regfile"));
    }

    #[test]
    fn bit_count_respects_mask() {
        let mut t = toy();
        let mut all = BitCount::new(InjectionMask::LatchesAndRams);
        t.visit_state(&mut all);
        assert_eq!(all.count, 155);
        let mut latches = BitCount::new(InjectionMask::LatchesOnly);
        t.visit_state(&mut latches);
        assert_eq!(latches.count, 127);
    }

    #[test]
    fn flip_bit_changes_exactly_one_bit() {
        for target in [0u64, 61, 62, 125, 126, 127, 130, 154] {
            let mut a = toy();
            let before = fingerprint_of(&mut a);
            let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, target);
            a.visit_state(&mut flip);
            let hit = flip.flipped.expect("target in range");
            assert!(hit.bit < hit.width);
            let after = fingerprint_of(&mut a);
            assert_ne!(before, after, "target {target} must change the fingerprint");
            // Flip again: must restore the original state exactly.
            let mut flip2 = FlipBit::new(InjectionMask::LatchesAndRams, target);
            a.visit_state(&mut flip2);
            assert_eq!(fingerprint_of(&mut a), before);
        }
    }

    #[test]
    fn flip_bit_categories() {
        let mut t = toy();
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 0);
        t.visit_state(&mut flip);
        let hit = flip.flipped.unwrap();
        assert_eq!(hit.category, Category::Pc);
        assert_eq!(hit.unit, None, "toy declares no units");
        let mut t = toy();
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 127 + 10);
        t.visit_state(&mut flip);
        let hit = flip.flipped.unwrap();
        assert_eq!(hit.category, Category::Regfile);
        assert_eq!(hit.kind, StorageKind::Ram);
    }

    #[test]
    fn flip_bit_never_touches_shadow_state() {
        let mut t = toy();
        // Target past the end of eligible bits: nothing flips.
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 155);
        t.visit_state(&mut flip);
        assert!(flip.flipped.is_none());
        assert_eq!(t.shadow, 7);
    }

    #[test]
    fn latch_only_mask_skips_ram() {
        let mut t = toy();
        // Bit 127 in latch-only order is the first RAM bit in l+r order and
        // must not exist under the latch mask.
        let mut flip = FlipBit::new(InjectionMask::LatchesOnly, 127);
        t.visit_state(&mut flip);
        assert!(flip.flipped.is_none());
        assert_eq!(t.ram, vec![1, 2, 3, 4]);
    }

    #[test]
    fn fingerprint_covers_shadow_state() {
        let mut a = toy();
        let mut b = toy();
        assert_eq!(fingerprint_of(&mut a), fingerprint_of(&mut b));
        b.shadow ^= 1;
        assert_ne!(fingerprint_of(&mut a), fingerprint_of(&mut b));
    }

    #[test]
    fn pc_visit_preserves_alignment() {
        let mut t = toy();
        t.pc = 0xabcd0;
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 3);
        t.visit_state(&mut flip);
        assert_eq!(t.pc % 4, 0, "pc must stay 4-byte aligned (62-bit field)");
        assert_eq!(t.pc, 0xabcd0 ^ (1 << 5));
    }

    /// A machine with two fingerprint units (one stamped by `hot_gen`, one
    /// by `cold_gen`) plus one stray field outside any unit.
    struct UnitToy {
        stray: u64,
        hot: u64,
        hot_gen: u64,
        cold: Vec<u64>,
        cold_gen: u64,
    }

    impl UnitToy {
        fn new() -> UnitToy {
            UnitToy { stray: 0x5a, hot: 0xdead_beef, hot_gen: 0, cold: vec![1, 2, 3], cold_gen: 0 }
        }

        fn set_cold(&mut self, i: usize, val: u64) {
            if self.cold[i] != val {
                self.cold[i] = val;
                self.cold_gen += 1;
            }
        }
    }

    impl VisitState for UnitToy {
        fn visit_state(&mut self, v: &mut dyn StateVisitor) {
            v.field(FieldMeta::new(Category::Ctrl, StorageKind::Latch), 8, &mut self.stray);
            if v.enter_unit(UnitId::Front, self.hot_gen) {
                v.field(FieldMeta::new(Category::Data, StorageKind::Latch), 64, &mut self.hot);
                v.exit_unit(UnitId::Front);
            }
            if v.enter_unit(UnitId::Bpred, self.cold_gen) {
                v.array(FieldMeta::shadow(Category::Ctrl, StorageKind::Ram), 2, &mut self.cold);
                v.exit_unit(UnitId::Bpred);
            }
        }
    }

    #[test]
    fn unit_index_matches_all_order() {
        for (i, u) in UnitId::ALL.iter().enumerate() {
            assert_eq!(u.index(), i, "{u} out of place in UnitId::ALL");
        }
        assert_eq!(UnitId::COUNT, UnitId::ALL.len());
    }

    #[test]
    fn every_registered_unit_declares_a_loggability() {
        // The match in `loggability` is exhaustive, so this pins the
        // *assignments* (a new unit must be placed deliberately, and moving
        // a unit between tiers is a visible diff here, not a silent
        // degradation to no-prune).
        use Loggability::*;
        let mut tallies = std::collections::BTreeMap::new();
        for u in UnitId::ALL {
            let tier = u.loggability();
            *tallies.entry(format!("{tier:?}")).or_insert(0u32) += 1;
            match u {
                UnitId::Lsq | UnitId::Regfile | UnitId::ArchCtrl => assert_eq!(tier, Core, "{u}"),
                UnitId::Front | UnitId::Rename | UnitId::Sched | UnitId::Rob | UnitId::Fus => {
                    assert_eq!(tier, Extended, "{u}")
                }
                _ => assert_eq!(tier, Shadow, "{u}"),
            }
        }
        assert_eq!(tallies["Core"], 3);
        assert_eq!(tallies["Extended"], 5);
        assert_eq!(tallies.get("Unlogged"), None);
        assert_eq!(tallies["Shadow"], 6);
    }

    #[test]
    fn default_visitors_ignore_units() {
        // Census, BitCount and FlipBit keep the enter_unit default (visit
        // everything), so unit brackets change neither totals nor bit order.
        let mut t = UnitToy::new();
        let mut c = Census::new();
        t.visit_state(&mut c);
        assert_eq!(c.total(), 8 + 64);
        assert_eq!(c.shadow_total(), 6);

        let before = fingerprint_of(&mut t);
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 8);
        t.visit_state(&mut flip);
        let hit = flip.flipped.unwrap();
        assert_eq!(hit.category, Category::Data);
        assert_eq!(hit.unit, Some(UnitId::Front), "flip attributed to enclosing unit");
        assert_eq!(t.hot, 0xdead_beef ^ 1);
        assert_ne!(fingerprint_of(&mut t), before);

        // A flip landing outside any unit reports no attribution even on a
        // machine that declares units.
        let mut t = UnitToy::new();
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 0);
        t.visit_state(&mut flip);
        assert_eq!(flip.flipped.unwrap().unit, None);
    }

    #[test]
    fn cached_root_equals_flat_root() {
        let mut t = UnitToy::new();
        let mut engine = CachedFingerprint::new();
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
        // Second walk with nothing changed: both units served from cache.
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
        assert_eq!(engine.hits(), 2);
        assert_eq!(engine.misses(), 2);

        // Mutate through the stamped API: the dirty unit is rehashed, the
        // clean one is not, and the root still matches the flat walk.
        t.set_cold(1, 9);
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
        assert_eq!(engine.hits(), 3);
        assert_eq!(engine.misses(), 3);

        // Stray (non-unit) fields are hashed on every walk.
        t.stray ^= 0x11;
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
    }

    #[test]
    fn matches_probes_the_suspect_unit_first() {
        let mut f = Fingerprint::new();
        UnitToy::new().visit_state(&mut f);
        let (root, units) = (f.value(), *f.unit_hashes());

        let mut t = UnitToy::new();
        let mut engine = CachedFingerprint::new();
        assert!(engine.matches(&mut t, root, &units));

        // Diverge the hot unit: the mismatch is found by a full walk and
        // the unit becomes the suspect.
        t.hot ^= 4;
        t.hot_gen += 1;
        assert!(!engine.matches(&mut t, root, &units));
        assert_eq!(engine.suspect(), Some(UnitId::Front));

        // While the divergence persists, checks only probe the suspect —
        // here its generation is unchanged since the last walk, so the
        // probe is a single cache hit and nothing is rehashed.
        let (hits, misses) = (engine.hits(), engine.misses());
        assert!(!engine.matches(&mut t, root, &units));
        assert_eq!((engine.hits(), engine.misses()), (hits + 1, misses));

        // Heal the divergence: the probe passes and the authoritative full
        // walk confirms equality.
        t.hot ^= 4;
        t.hot_gen += 1;
        assert!(engine.matches(&mut t, root, &units));
        assert_eq!(engine.suspect(), None, "suspect cleared once healed");

        // A stray-field divergence has no mismatching unit; every check
        // falls through to the root fold and still reports it.
        t.stray ^= 1;
        assert!(!engine.matches(&mut t, root, &units));
        assert_eq!(engine.suspect(), None, "stray divergence has no unit");
        assert!(!engine.matches(&mut t, root, &units));
        t.stray ^= 1;
        assert!(engine.matches(&mut t, root, &units));
    }

    #[test]
    fn unit_hashes_localize_a_difference() {
        let mut a = UnitToy::new();
        let mut b = UnitToy::new();
        b.set_cold(0, 8);
        let mut fa = Fingerprint::new();
        a.visit_state(&mut fa);
        let mut fb = Fingerprint::new();
        b.visit_state(&mut fb);
        assert_ne!(fa.value(), fb.value());
        assert_eq!(fa.unit(UnitId::Front), fb.unit(UnitId::Front));
        assert_ne!(fa.unit(UnitId::Bpred), fb.unit(UnitId::Bpred));
        assert_eq!(fa.unit(UnitId::Dcache), 0, "unvisited units stay zero");
        assert_eq!(fa.unit_hashes()[UnitId::Front.index()], fa.unit(UnitId::Front));
    }

    #[test]
    fn cached_engine_agrees_with_flat_on_unit_hashes() {
        let mut t = UnitToy::new();
        let mut flat = Fingerprint::new();
        t.visit_state(&mut flat);
        let mut engine = CachedFingerprint::new();
        engine.fingerprint(&mut t);
        engine.fingerprint(&mut t); // second walk: both units from cache
        assert_eq!(engine.unit_hashes(), flat.unit_hashes());
        assert_eq!(engine.unit(UnitId::Front), flat.unit(UnitId::Front));
    }

    #[test]
    fn invalidate_recovers_from_out_of_band_mutation() {
        let mut t = UnitToy::new();
        let mut engine = CachedFingerprint::new();
        engine.fingerprint(&mut t);
        // Mutate a unit WITHOUT advancing its stamp: the cache is now stale
        // and the root is wrong — exactly what the contract forbids.
        t.cold[2] ^= 1;
        assert_ne!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
        // invalidate() drops the cache and the next walk is correct again.
        engine.invalidate();
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
    }

    #[test]
    fn unitless_machines_hash_flat() {
        // A machine with no units hashes exactly as the historical flat FNV
        // chain; the cached engine degenerates to the same thing.
        let mut t = toy();
        let mut engine = CachedFingerprint::new();
        assert_eq!(engine.fingerprint(&mut t), fingerprint_of(&mut t));
        assert_eq!(engine.hits() + engine.misses(), 0);
    }

    #[test]
    fn eligibility_rules() {
        let latch = FieldMeta::new(Category::Data, StorageKind::Latch);
        let ram = FieldMeta::new(Category::Data, StorageKind::Ram);
        let shadow = FieldMeta::shadow(Category::Ctrl, StorageKind::Ram);
        assert!(InjectionMask::LatchesAndRams.eligible(latch));
        assert!(InjectionMask::LatchesAndRams.eligible(ram));
        assert!(!InjectionMask::LatchesAndRams.eligible(shadow));
        assert!(InjectionMask::LatchesOnly.eligible(latch));
        assert!(!InjectionMask::LatchesOnly.eligible(ram));
    }
}

/// A captured copy of every visited field's bits, in visit order.
///
/// Two snapshots of machines with identical structure can be
/// [diffed](Snapshot::diff) to locate exactly which fields differ — the
/// debugging companion to the pass/fail answer a [`Fingerprint`] gives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    fields: Vec<(FieldMeta, u32, u64)>,
}

impl Snapshot {
    /// Captures a snapshot of `machine`.
    pub fn capture(machine: &mut dyn VisitState) -> Snapshot {
        struct Collector {
            fields: Vec<(FieldMeta, u32, u64)>,
        }
        impl StateVisitor for Collector {
            fn field(&mut self, meta: FieldMeta, width: u32, bits: &mut u64) {
                self.fields.push((meta, width, *bits));
            }
        }
        let mut c = Collector { fields: Vec::new() };
        machine.visit_state(&mut c);
        Snapshot { fields: c.fields }
    }

    /// Number of fields captured.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Compares two snapshots field by field.
    ///
    /// # Panics
    ///
    /// Panics if the snapshots have different structure (they must come
    /// from machines with identical configuration).
    pub fn diff(&self, other: &Snapshot) -> Vec<FieldDiff> {
        assert_eq!(self.fields.len(), other.fields.len(), "snapshot structure mismatch");
        let mut out = Vec::new();
        for (i, ((meta, width, a), (_, _, b))) in
            self.fields.iter().zip(other.fields.iter()).enumerate()
        {
            if a != b {
                out.push(FieldDiff {
                    index: i,
                    category: meta.category,
                    kind: meta.kind,
                    width: *width,
                    left: *a,
                    right: *b,
                });
            }
        }
        out
    }
}

/// One differing field reported by [`Snapshot::diff`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldDiff {
    /// Position in visit order.
    pub index: usize,
    /// Category of the field.
    pub category: Category,
    /// Storage kind.
    pub kind: StorageKind,
    /// Field width in bits.
    pub width: u32,
    /// Bits in the first snapshot.
    pub left: u64,
    /// Bits in the second snapshot.
    pub right: u64,
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;

    struct Pair {
        a: u64,
        b: Vec<u64>,
    }
    impl VisitState for Pair {
        fn visit_state(&mut self, v: &mut dyn StateVisitor) {
            v.field(FieldMeta::new(Category::Data, StorageKind::Latch), 16, &mut self.a);
            v.array(FieldMeta::new(Category::Regfile, StorageKind::Ram), 8, &mut self.b);
        }
    }

    #[test]
    fn identical_machines_have_empty_diff() {
        let mut x = Pair { a: 5, b: vec![1, 2, 3] };
        let mut y = Pair { a: 5, b: vec![1, 2, 3] };
        let sx = Snapshot::capture(&mut x);
        let sy = Snapshot::capture(&mut y);
        assert!(sx.diff(&sy).is_empty());
        assert_eq!(sx.len(), 4);
        assert!(!sx.is_empty());
    }

    #[test]
    fn diff_locates_the_changed_field() {
        let mut x = Pair { a: 5, b: vec![1, 2, 3] };
        let mut y = Pair { a: 5, b: vec![1, 9, 3] };
        let d = Snapshot::capture(&mut x).diff(&Snapshot::capture(&mut y));
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].category, Category::Regfile);
        assert_eq!(d[0].kind, StorageKind::Ram);
        assert_eq!((d[0].left, d[0].right), (2, 9));
        assert_eq!(d[0].index, 2);
    }

    #[test]
    #[should_panic(expected = "structure mismatch")]
    fn structural_mismatch_panics() {
        let mut x = Pair { a: 5, b: vec![1, 2, 3] };
        let mut y = Pair { a: 5, b: vec![1, 2] };
        let _ = Snapshot::capture(&mut x).diff(&Snapshot::capture(&mut y));
    }

    #[test]
    fn snapshot_agrees_with_fingerprint() {
        let mut x = Pair { a: 7, b: vec![4, 5, 6] };
        let mut y = Pair { a: 7, b: vec![4, 5, 6] };
        assert_eq!(fingerprint_of(&mut x), fingerprint_of(&mut y));
        y.b[0] ^= 1;
        assert_ne!(fingerprint_of(&mut x), fingerprint_of(&mut y));
        assert_eq!(Snapshot::capture(&mut x).diff(&Snapshot::capture(&mut y)).len(), 1);
    }
}
