//! Pipeline configuration: the paper's Figure 2 parameters plus the
//! Section 4 protection switches.

/// Structural sizes of the modeled pipeline (Figure 2 of the paper).
/// These are compile-time constants; the protection switches live in
/// [`PipelineConfig`].
pub mod sizes {
    /// Fetch width (instructions fetched per cycle, split-line).
    pub const FETCH_WIDTH: usize = 8;
    /// Fetch queue capacity.
    pub const FETCH_QUEUE: usize = 32;
    /// Decode/rename width.
    pub const DECODE_WIDTH: usize = 4;
    /// Scheduler (issue window) entries.
    pub const SCHEDULER: usize = 32;
    /// Maximum instructions selected for execution per cycle
    /// (2 simple ALUs + 1 complex ALU + 1 branch ALU + 2 AGUs).
    pub const ISSUE_WIDTH: usize = 6;
    /// Physical registers.
    pub const PHYS_REGS: usize = 80;
    /// Bits in a physical register pointer.
    pub const PREG_BITS: u32 = 7;
    /// Architectural registers.
    pub const ARCH_REGS: usize = 32;
    /// Free-list capacity (80 physical minus 32 architectural mappings).
    pub const FREELIST: usize = PHYS_REGS - ARCH_REGS;
    /// Reorder buffer entries.
    pub const ROB: usize = 64;
    /// Bits in a ROB tag.
    pub const ROB_BITS: u32 = 6;
    /// Retire width.
    pub const RETIRE_WIDTH: usize = 8;
    /// Load queue entries.
    pub const LOAD_QUEUE: usize = 16;
    /// Store queue entries.
    pub const STORE_QUEUE: usize = 16;
    /// Miss handling registers (lockup-free cache accesses).
    pub const MHRS: usize = 16;
    /// L1 miss service latency in cycles (constant, per the paper: no L2
    /// model, removing long idle periods and *underestimating* masking).
    pub const MISS_LATENCY: u32 = 8;
    /// Data cache: 32 KB, 2-way, dual-ported via 8 interleaved banks.
    pub const DCACHE_BYTES: u64 = 32 * 1024;
    /// Instruction cache: 8 KB, 2-way.
    pub const ICACHE_BYTES: u64 = 8 * 1024;
    /// Cache line size in bytes (both caches).
    pub const LINE_BYTES: u64 = 64;
    /// Cache associativity (both caches).
    pub const CACHE_WAYS: usize = 2;
    /// Data cache banks.
    pub const DCACHE_BANKS: u64 = 8;
    /// BTB entries (1024, 4-way set-associative).
    pub const BTB_ENTRIES: usize = 1024;
    /// BTB associativity.
    pub const BTB_WAYS: usize = 4;
    /// Return address stack entries.
    pub const RAS: usize = 8;
    /// Dcache load-to-use latency on a hit, in cycles.
    pub const DCACHE_LATENCY: u32 = 2;
    /// Maximum in-flight instructions (fetch queue + decode/rename pipe
    /// + reorder buffer + fetch stage buffer), the paper's "132".
    pub const MAX_IN_FLIGHT: usize = FETCH_QUEUE + 3 * DECODE_WIDTH + ROB + 3 * FETCH_WIDTH;
}

/// Tunable pipeline options: the four protection mechanisms of Section 4.
///
/// The unprotected baseline is [`PipelineConfig::baseline`]; the fully
/// hardened configuration evaluated in Figures 9/10 is
/// [`PipelineConfig::protected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Timeout counter: flush the pipeline after `timeout_threshold`
    /// cycles without retirement instead of deadlocking.
    pub timeout_counter: bool,
    /// Watchdog threshold in cycles (the paper uses 100).
    pub timeout_threshold: u32,
    /// SECDED ECC on the 80 × 65-bit register file entries. Generation is
    /// delayed one cycle after the write (the paper's cycle-time
    /// compromise), leaving a one-cycle vulnerability window.
    pub regfile_ecc: bool,
    /// SEC ECC on every 7-bit physical register pointer (RATs, free lists,
    /// and pointer fields throughout the pipeline).
    pub pointer_ecc: bool,
    /// Even parity on 32-bit instruction words, generated at fetch and
    /// checked before the instruction can write architectural state.
    pub insn_parity: bool,
}

impl PipelineConfig {
    /// The unprotected baseline pipeline (Section 3 campaigns).
    pub fn baseline() -> PipelineConfig {
        PipelineConfig {
            timeout_counter: false,
            timeout_threshold: 100,
            regfile_ecc: false,
            pointer_ecc: false,
            insn_parity: false,
        }
    }

    /// All four protection mechanisms enabled (Section 4.4 campaign).
    pub fn protected() -> PipelineConfig {
        PipelineConfig {
            timeout_counter: true,
            timeout_threshold: 100,
            regfile_ecc: true,
            pointer_ecc: true,
            insn_parity: true,
        }
    }

    /// Whether any protection mechanism is enabled.
    pub fn any_protection(&self) -> bool {
        self.timeout_counter || self.regfile_ecc || self.pointer_ecc || self.insn_parity
    }
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig::baseline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_flight_capacity_is_132() {
        // 32 (fetch queue) + 12 (decode/rename pipe) + 64 (ROB) + 24
        // (fetch-stage buffers) = 132, the paper's in-flight maximum.
        assert_eq!(sizes::MAX_IN_FLIGHT, 132);
    }

    #[test]
    fn config_presets() {
        assert!(!PipelineConfig::baseline().any_protection());
        let p = PipelineConfig::protected();
        assert!(p.timeout_counter && p.regfile_ecc && p.pointer_ecc && p.insn_parity);
        assert_eq!(p.timeout_threshold, 100);
        assert_eq!(PipelineConfig::default(), PipelineConfig::baseline());
    }

    #[test]
    fn pointer_widths_cover_structures() {
        const { assert!(sizes::PHYS_REGS <= 1 << sizes::PREG_BITS) };
        const { assert!(sizes::ROB <= 1 << sizes::ROB_BITS) };
        assert_eq!(sizes::FREELIST, 48);
    }
}
