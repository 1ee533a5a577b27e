//! The physical register file: 80 × 65-bit entries, the ready-bit
//! scoreboard, and the optional SECDED ECC protection.
//!
//! Matching the paper's Table 1, each entry is 65 bits (64 data bits plus
//! one implementation bit, modeled as always-written-zero but injectable)
//! and the scoreboard contributes 80 latch bits. With the register-file
//! ECC protection enabled, each entry gains 8 SECDED check bits; check-bit
//! generation happens **one cycle after the write** (the paper's cycle-time
//! compromise), leaving a one-cycle vulnerability window that the
//! protected-pipeline campaign can still hit.

use tfsim_bitstate::{Category, FieldMeta, StateVisitor, StorageKind};
use tfsim_protect::{regfile_code, Decoded};

use crate::access::AccessLog;
use crate::config::sizes;

/// Access-log word ordinal of the 65th ("extra") bit of preg `i` is
/// `EXTRA_BASE + i`; values sit at `i` directly.
pub const EXTRA_BASE: u32 = sizes::PHYS_REGS as u32;
/// Access-log word ordinal of the scoreboard ready bit of preg `i` is
/// `READY_BASE + i`.
pub const READY_BASE: u32 = 2 * sizes::PHYS_REGS as u32;

/// The physical register file with scoreboard and optional ECC.
#[derive(Debug, Clone)]
pub struct PhysRegFile {
    vals: Vec<u64>,
    extra: Vec<u64>, // the 65th bit of each entry
    ready: Vec<bool>,
    ecc: Vec<u64>,
    // Pregs written last cycle whose check bits are still stale (up to the
    // 7 write ports). Width-7 pointer latches plus a 3-bit count.
    ecc_stale: Vec<u64>,
    ecc_stale_count: u64,
    ecc_enabled: bool,
    /// Word-granular access log for the fast trial engine. Covers the
    /// values, extra bits, and scoreboard; the ECC side state is untracked
    /// (flips there take the scalar path).
    pub log: AccessLog,
}

const WRITE_PORTS: usize = 7;

impl PhysRegFile {
    /// Creates a register file with all entries zero. Registers `0..32`
    /// (the initial architectural mappings) start ready; the free pool
    /// starts not-ready.
    pub fn new(ecc_enabled: bool) -> PhysRegFile {
        let n = sizes::PHYS_REGS;
        let code = regfile_code();
        PhysRegFile {
            vals: vec![0; n],
            extra: vec![0; n],
            ready: (0..n).map(|i| i < sizes::ARCH_REGS).collect(),
            ecc: vec![code.encode(0) as u64; n],
            ecc_stale: vec![0; WRITE_PORTS],
            ecc_stale_count: 0,
            ecc_enabled,
            log: AccessLog::default(),
        }
    }

    /// Reads a register value. Nonexistent registers (a corrupted 7-bit
    /// pointer can name pregs 80–127) read as zero. With ECC enabled, a
    /// single-bit error in the entry is repaired in place before the value
    /// is returned.
    pub fn read(&mut self, preg: u64) -> u64 {
        let i = preg as usize;
        if i >= self.vals.len() {
            return 0;
        }
        self.log.read(i as u32);
        if self.ecc_enabled && !self.is_stale(preg) {
            self.log.read(EXTRA_BASE + i as u32);
            let data = (self.vals[i] as u128) | ((self.extra[i] as u128 & 1) << 64);
            match regfile_code().decode(data, self.ecc[i] as u32) {
                Decoded::Clean => {}
                Decoded::CorrectedData(fixed) => {
                    self.vals[i] = fixed as u64;
                    self.extra[i] = (fixed >> 64) as u64 & 1;
                    // Repair is content-dependent, but the reads above
                    // shadow these writes in the engine's dedup — the
                    // repair itself always forces a peel.
                    self.log.write(i as u32);
                    self.log.write(EXTRA_BASE + i as u32);
                }
                Decoded::CorrectedCheck | Decoded::Uncorrectable => {
                    // Repair the check bits; an uncorrectable pattern from
                    // a single flip is impossible, but corrupted check
                    // state must not wedge future reads.
                    let data = (self.vals[i] as u128) | ((self.extra[i] as u128 & 1) << 64);
                    self.ecc[i] = regfile_code().encode(data) as u64;
                }
            }
        }
        self.vals[i]
    }

    /// Reads without ECC side effects (used by state dumps and tests).
    pub fn peek(&self, preg: u64) -> u64 {
        self.vals.get(preg as usize).copied().unwrap_or(0)
    }

    /// Writes a register value. Writes to nonexistent registers are
    /// dropped. With ECC enabled the check bits become stale until the
    /// next [`PhysRegFile::tick_ecc`].
    pub fn write(&mut self, preg: u64, value: u64) {
        let i = preg as usize;
        if i >= self.vals.len() {
            return;
        }
        self.log.write(i as u32);
        self.log.write(EXTRA_BASE + i as u32);
        self.vals[i] = value;
        self.extra[i] = 0;
        if self.ecc_enabled && !self.is_stale(preg) && (self.ecc_stale_count as usize) < WRITE_PORTS
        {
            self.ecc_stale[self.ecc_stale_count as usize] = preg & 0x7f;
            self.ecc_stale_count += 1;
        }
    }

    fn is_stale(&self, preg: u64) -> bool {
        (0..(self.ecc_stale_count as usize).min(WRITE_PORTS))
            .any(|k| self.ecc_stale[k] == (preg & 0x7f))
    }

    /// Generates check bits for last cycle's writes (call once per cycle).
    pub fn tick_ecc(&mut self) {
        if !self.ecc_enabled {
            return;
        }
        for k in 0..(self.ecc_stale_count as usize).min(WRITE_PORTS) {
            let i = self.ecc_stale[k] as usize;
            if i < self.vals.len() {
                self.log.read(i as u32);
                self.log.read(EXTRA_BASE + i as u32);
                let data = (self.vals[i] as u128) | ((self.extra[i] as u128 & 1) << 64);
                self.ecc[i] = regfile_code().encode(data) as u64;
            }
        }
        self.ecc_stale_count = 0;
    }

    /// Scoreboard: whether `preg` has produced its value.
    pub fn is_ready(&mut self, preg: u64) -> bool {
        if (preg as usize) < self.ready.len() {
            self.log.read(READY_BASE + preg as u32);
        }
        self.ready.get(preg as usize).copied().unwrap_or(true)
    }

    /// Scoreboard read without logging (observers and tests only).
    pub fn peek_ready(&self, preg: u64) -> bool {
        self.ready.get(preg as usize).copied().unwrap_or(true)
    }

    /// Sets the scoreboard ready bit.
    pub fn set_ready(&mut self, preg: u64, ready: bool) {
        if (preg as usize) < self.ready.len() {
            self.log.write(READY_BASE + preg as u32);
        }
        if let Some(r) = self.ready.get_mut(preg as usize) {
            *r = ready;
        }
    }

    /// Marks every register ready (full-flush recovery: after a flush all
    /// live values are architectural and therefore complete).
    pub fn all_ready(&mut self) {
        for i in 0..self.ready.len() {
            self.log.write(READY_BASE + i as u32);
            self.ready[i] = true;
        }
    }

    /// Visits values, the 65th bits, the scoreboard, and (when enabled)
    /// the ECC bits.
    pub fn visit(&mut self, v: &mut dyn StateVisitor) {
        v.array(FieldMeta::new(Category::Regfile, StorageKind::Ram), 64, &mut self.vals);
        v.array(FieldMeta::new(Category::Regfile, StorageKind::Ram), 1, &mut self.extra);
        for r in self.ready.iter_mut() {
            tfsim_bitstate::visit_bool(
                v,
                FieldMeta::new(Category::Regfile, StorageKind::Latch),
                r,
            );
        }
        if self.ecc_enabled {
            v.array(FieldMeta::new(Category::Ecc, StorageKind::Ram), 8, &mut self.ecc);
            v.array(FieldMeta::new(Category::Regptr, StorageKind::Latch), 7, &mut self.ecc_stale);
            v.field(FieldMeta::new(Category::Ctrl, StorageKind::Latch), 3, &mut self.ecc_stale_count);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tfsim_bitstate::{Census, StorageKind};

    #[test]
    fn read_write_round_trip() {
        let mut rf = PhysRegFile::new(false);
        rf.write(42, 0xdead_beef);
        assert_eq!(rf.read(42), 0xdead_beef);
        assert_eq!(rf.peek(42), 0xdead_beef);
    }

    #[test]
    fn nonexistent_registers_read_zero_and_drop_writes() {
        let mut rf = PhysRegFile::new(false);
        rf.write(100, 7);
        assert_eq!(rf.read(100), 0);
        assert_eq!(rf.read(127), 0);
        assert!(rf.is_ready(127), "nonexistent pregs never block issue");
    }

    #[test]
    fn scoreboard_tracking() {
        let mut rf = PhysRegFile::new(false);
        assert!(rf.is_ready(5), "initial mappings start ready");
        assert!(!rf.is_ready(50), "free pool starts not-ready");
        rf.set_ready(50, true);
        assert!(rf.is_ready(50));
        rf.set_ready(50, false);
        assert!(!rf.is_ready(50));
        rf.all_ready();
        assert!(rf.is_ready(50));
    }

    #[test]
    fn census_matches_paper_table1() {
        // 80 x 65 = 5200 RAM bits + 80 scoreboard latches.
        let mut rf = PhysRegFile::new(false);
        let mut census = Census::new();
        rf.visit(&mut census);
        assert_eq!(census.bits(Category::Regfile, StorageKind::Ram), 5200);
        assert_eq!(census.bits(Category::Regfile, StorageKind::Latch), 80);
        assert_eq!(census.bits(Category::Ecc, StorageKind::Ram), 0);
    }

    #[test]
    fn ecc_census_adds_640_bits() {
        let mut rf = PhysRegFile::new(true);
        let mut census = Census::new();
        rf.visit(&mut census);
        assert_eq!(census.bits(Category::Ecc, StorageKind::Ram), 640);
    }

    #[test]
    fn ecc_corrects_value_flips_after_generation() {
        let mut rf = PhysRegFile::new(true);
        rf.write(10, 0x1234_5678_9abc_def0);
        rf.tick_ecc(); // check bits generated one cycle later
        rf.vals[10] ^= 1 << 37; // fault
        assert_eq!(rf.read(10), 0x1234_5678_9abc_def0);
        assert_eq!(rf.peek(10), 0x1234_5678_9abc_def0, "repair written back");
    }

    #[test]
    fn ecc_corrects_the_65th_bit() {
        let mut rf = PhysRegFile::new(true);
        rf.write(11, 99);
        rf.tick_ecc();
        rf.extra[11] ^= 1;
        let _ = rf.read(11);
        assert_eq!(rf.extra[11], 0);
    }

    #[test]
    fn one_cycle_vulnerability_window() {
        // A flip landing between the write and tick_ecc is NOT corrected —
        // the paper's deliberate coverage gap.
        let mut rf = PhysRegFile::new(true);
        rf.write(12, 0xff);
        rf.vals[12] ^= 1; // fault in the window
        rf.tick_ecc(); // ECC now protects the *corrupted* value
        assert_eq!(rf.read(12), 0xfe, "window flip must survive");
    }

    #[test]
    fn stale_tracking_handles_duplicate_writes() {
        let mut rf = PhysRegFile::new(true);
        rf.write(20, 1);
        rf.write(20, 2); // same preg twice in a cycle
        rf.tick_ecc();
        rf.vals[20] ^= 1 << 63;
        assert_eq!(rf.read(20), 2);
    }

    #[test]
    fn corrupted_check_bits_do_not_corrupt_data() {
        let mut rf = PhysRegFile::new(true);
        rf.write(30, 777);
        rf.tick_ecc();
        rf.ecc[30] ^= 0b11; // double flip in check bits: "uncorrectable"
        assert_eq!(rf.read(30), 777, "data stays intact");
        // And the check bits were rebuilt, so the next read is clean.
        assert_eq!(rf.ecc[30], regfile_code().encode(777) as u64);
    }
}
