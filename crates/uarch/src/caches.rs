//! Cache timing models and miss handling registers.
//!
//! Cache *data* is not duplicated: the model is write-through, so line
//! contents always equal main memory, and loads read memory directly once
//! the tag model reports a hit (or after the miss latency). Only the tag/
//! valid/LRU arrays are modeled — they are *shadow* state (fingerprinted
//! but excluded from injection, as the paper excludes cache arrays).
//!
//! Miss handling registers (MHRs) *are* injectable pipeline state: the
//! paper explicitly injects "the various structures that support the
//! caches, such as miss handling registers".

use tfsim_bitstate::{Category, FieldMeta, StateVisitor, StorageKind, VisitState};

use crate::access::AccessLog;
use crate::config::sizes;

/// A 2-way set-associative tag array with 1-bit LRU per set.
#[derive(Debug, Clone)]
pub struct TagCache {
    valid: Vec<u64>, // [set * 2 + way]
    tags: Vec<u64>,
    lru: Vec<u64>, // 1 bit per set: way to replace next
    sets: u64,
    gen: u64, // generation stamp: advances on every content change
}

impl TagCache {
    /// Creates a cache of `bytes` capacity with the global line size and
    /// 2-way associativity.
    pub fn new(bytes: u64) -> TagCache {
        let sets = bytes / sizes::LINE_BYTES / sizes::CACHE_WAYS as u64;
        assert!(sets.is_power_of_two());
        TagCache {
            valid: vec![0; (sets * 2) as usize],
            tags: vec![0; (sets * 2) as usize],
            lru: vec![0; sets as usize],
            sets,
            gen: 0,
        }
    }

    /// Generation stamp for cached fingerprinting: unchanged stamp ⇒
    /// unchanged tag/valid/LRU content. Steady-state hits that re-confirm
    /// an already-correct LRU bit do not advance it.
    pub fn state_gen(&self) -> u64 {
        self.gen
    }

    fn set_and_tag(&self, addr: u64) -> (u64, u64) {
        let line = addr / sizes::LINE_BYTES;
        (line & (self.sets - 1), line / self.sets)
    }

    /// Probes the cache; updates LRU on a hit.
    pub fn access(&mut self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        for way in 0..2u64 {
            let i = (set * 2 + way) as usize;
            if self.valid[i] == 1 && self.tags[i] == tag {
                // LRU points at the way to replace: the other one.
                if self.lru[set as usize] != 1 - way {
                    self.lru[set as usize] = 1 - way;
                    self.gen += 1;
                }
                return true;
            }
        }
        false
    }

    /// Probes without touching LRU.
    pub fn contains(&self, addr: u64) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        (0..2u64).any(|way| {
            let i = (set * 2 + way) as usize;
            self.valid[i] == 1 && self.tags[i] == tag
        })
    }

    /// Installs the line containing `addr`, evicting per LRU.
    pub fn fill(&mut self, addr: u64) {
        if self.contains(addr) {
            return;
        }
        let (set, tag) = self.set_and_tag(addr);
        let way = self.lru[set as usize] & 1;
        let i = (set * 2 + way) as usize;
        self.valid[i] = 1;
        self.tags[i] = tag;
        self.lru[set as usize] = 1 - way;
        self.gen += 1;
    }
}

impl VisitState for TagCache {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        let m = FieldMeta::shadow(Category::Ctrl, StorageKind::Ram);
        v.array(m, 1, &mut self.valid);
        v.array(m, 40, &mut self.tags);
        v.array(m, 1, &mut self.lru);
    }
}

/// One miss handling register: an outstanding line fill.
#[derive(Debug, Clone, Default)]
pub struct Mhr {
    /// Entry holds a live miss.
    pub valid: bool,
    /// Line-aligned miss address.
    pub addr: u64,
    /// Cycles until the fill completes (4-bit down-counter).
    pub timer: u64,
}

/// The 16-entry non-coalescing miss handling register file.
///
/// Injectable: `valid` bits, `addr` fields, and the fill timers are all
/// real pipeline state that the campaigns target. Address fields are RAM
/// cells (matching the paper's Table 1, where the `addr` category is
/// predominantly RAM); the valid bits and timers are latches.
#[derive(Debug, Clone)]
pub struct MhrFile {
    entries: Vec<Mhr>,
    /// Word-granular access log for the fast trial engine. Local word
    /// ordinals: entry `e` occupies `3*e + {0: valid, 1: addr, 2: timer}`.
    pub log: AccessLog,
}

/// Access-log words per MHR entry (valid, addr, timer).
pub const MHR_WORDS: u32 = 3;

impl MhrFile {
    /// Creates an empty MHR file of the configured capacity.
    pub fn new() -> MhrFile {
        MhrFile {
            entries: (0..sizes::MHRS).map(|_| Mhr::default()).collect(),
            log: AccessLog::default(),
        }
    }

    /// Allocates an MHR for the line containing `addr`. Returns `false`
    /// when all entries are busy (the access must retry — lockup-free but
    /// bounded).
    pub fn allocate(&mut self, addr: u64) -> bool {
        let line = addr & !(sizes::LINE_BYTES - 1);
        // Non-coalescing: a duplicate line still takes a fresh entry, but
        // an existing fill makes allocation unnecessary.
        if self.pending(line) {
            return true;
        }
        for i in 0..self.entries.len() {
            self.log.read(i as u32 * MHR_WORDS);
            if !self.entries[i].valid {
                self.log.write(i as u32 * MHR_WORDS);
                self.log.write(i as u32 * MHR_WORDS + 1);
                self.log.write(i as u32 * MHR_WORDS + 2);
                let e = &mut self.entries[i];
                e.valid = true;
                e.addr = line;
                e.timer = sizes::MISS_LATENCY as u64;
                return true;
            }
        }
        false
    }

    /// Whether a fill for the line containing `addr` is outstanding.
    ///
    /// Conservatively logs a read of every entry's valid bit and address —
    /// the scan's outcome can depend on any of them.
    pub fn pending(&mut self, addr: u64) -> bool {
        let line = addr & !(sizes::LINE_BYTES - 1);
        if self.log.enabled() {
            for i in 0..self.entries.len() as u32 {
                self.log.read(i * MHR_WORDS);
                self.log.read(i * MHR_WORDS + 1);
            }
        }
        self.entries.iter().any(|e| e.valid && e.addr == line)
    }

    /// Advances all timers one cycle and returns the addresses whose fills
    /// completed this cycle.
    pub fn tick(&mut self) -> Vec<u64> {
        let mut done = Vec::new();
        for i in 0..self.entries.len() {
            self.log.read(i as u32 * MHR_WORDS);
            if self.entries[i].valid {
                self.log.read(i as u32 * MHR_WORDS + 2);
                if self.entries[i].timer <= 1 {
                    self.log.read(i as u32 * MHR_WORDS + 1);
                    self.log.write(i as u32 * MHR_WORDS);
                    self.log.write(i as u32 * MHR_WORDS + 1);
                    self.log.write(i as u32 * MHR_WORDS + 2);
                    let e = &mut self.entries[i];
                    e.valid = false;
                    done.push(e.addr);
                    e.addr = 0;
                    e.timer = 0;
                } else {
                    self.entries[i].timer -= 1;
                }
            }
        }
        done
    }

    /// Drops all outstanding fills (used on full pipeline flush).
    pub fn clear(&mut self) {
        for i in 0..self.entries.len() {
            self.log.write(i as u32 * MHR_WORDS);
            self.log.write(i as u32 * MHR_WORDS + 1);
            self.log.write(i as u32 * MHR_WORDS + 2);
            let e = &mut self.entries[i];
            e.valid = false;
            e.addr = 0;
            e.timer = 0;
        }
    }

    /// Number of live entries (observer: never logs).
    pub fn occupancy(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }
}

impl Default for MhrFile {
    fn default() -> Self {
        MhrFile::new()
    }
}

impl VisitState for MhrFile {
    fn visit_state(&mut self, v: &mut dyn StateVisitor) {
        for e in self.entries.iter_mut() {
            tfsim_bitstate::visit_bool(
                v,
                FieldMeta::new(Category::Valid, StorageKind::Latch),
                &mut e.valid,
            );
            // Line-aligned address: expose the meaningful 58 bits so a
            // flip cannot break the alignment the hardware enforces by
            // wiring (low 6 bits do not physically exist in the MHR).
            let mut line = e.addr >> 6;
            v.field(FieldMeta::new(Category::Addr, StorageKind::Ram), 58, &mut line);
            e.addr = line << 6;
            v.field(FieldMeta::new(Category::Ctrl, StorageKind::Latch), 4, &mut e.timer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_miss_then_hit_after_fill() {
        let mut c = TagCache::new(sizes::DCACHE_BYTES);
        assert!(!c.access(0x1000));
        c.fill(0x1000);
        assert!(c.access(0x1000));
        assert!(c.access(0x1038), "same line must hit");
        assert!(!c.access(0x1040), "next line must miss");
    }

    #[test]
    fn lru_evicts_least_recent_way() {
        let mut c = TagCache::new(sizes::ICACHE_BYTES);
        // Three addresses mapping to the same set (stride = sets*line).
        let sets = sizes::ICACHE_BYTES / sizes::LINE_BYTES / 2;
        let stride = sets * sizes::LINE_BYTES;
        c.fill(0x0);
        c.fill(stride);
        assert!(c.access(0x0) && c.access(stride));
        // Touch 0x0 so `stride` is LRU; filling a third evicts `stride`.
        c.access(0x0);
        c.fill(2 * stride);
        assert!(c.contains(0x0));
        assert!(!c.contains(stride));
        assert!(c.contains(2 * stride));
    }

    #[test]
    fn mhr_fills_complete_after_miss_latency() {
        let mut m = MhrFile::new();
        assert!(m.allocate(0x2345));
        assert!(m.pending(0x2340));
        let mut cycles = 0;
        loop {
            let done = m.tick();
            cycles += 1;
            if !done.is_empty() {
                assert_eq!(done, vec![0x2345 & !(sizes::LINE_BYTES - 1)]);
                break;
            }
            assert!(cycles < 20, "fill never completed");
        }
        assert_eq!(cycles, sizes::MISS_LATENCY);
        assert!(!m.pending(0x2345));
    }

    #[test]
    fn mhr_capacity_is_bounded() {
        let mut m = MhrFile::new();
        for i in 0..sizes::MHRS as u64 {
            assert!(m.allocate(i * 0x1000), "entry {i} should allocate");
        }
        assert_eq!(m.occupancy(), sizes::MHRS);
        assert!(!m.allocate(0x99_0000), "17th miss must be refused");
        // Duplicate of an in-flight line does not need a new entry.
        assert!(m.allocate(0x1000));
        m.clear();
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn mhr_state_is_injectable_but_cache_tags_are_not() {
        use tfsim_bitstate::{BitCount, InjectionMask};
        let mut m = MhrFile::new();
        let mut count = BitCount::new(InjectionMask::LatchesAndRams);
        m.visit_state(&mut count);
        assert_eq!(count.count as usize, sizes::MHRS * (1 + 58 + 4));
        let mut latches = BitCount::new(InjectionMask::LatchesOnly);
        m.visit_state(&mut latches);
        assert_eq!(latches.count as usize, sizes::MHRS * (1 + 4), "addr fields are RAM");
        let mut c = TagCache::new(sizes::DCACHE_BYTES);
        let mut count = BitCount::new(InjectionMask::LatchesAndRams);
        c.visit_state(&mut count);
        assert_eq!(count.count, 0);
    }

    #[test]
    fn mhr_visit_preserves_alignment() {
        use tfsim_bitstate::{FlipBit, InjectionMask};
        let mut m = MhrFile::new();
        m.allocate(0x12340);
        // Flip an addr bit; the stored address must stay line-aligned.
        let mut flip = FlipBit::new(InjectionMask::LatchesAndRams, 10);
        m.visit_state(&mut flip);
        for e in &m.entries {
            assert_eq!(e.addr % sizes::LINE_BYTES, 0);
        }
    }
}
