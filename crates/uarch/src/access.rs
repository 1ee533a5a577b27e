//! Per-structure access logging for the fast trial engine.
//!
//! The fast trial engine (`tfsim-inject`) classifies a trial from the
//! golden run for as long as the flipped word is provably unread: the
//! trial peels off to the scalar path once the machine *reads* the
//! corrupted cell before the golden run decided it, and heals (rejoins
//! golden exactly) when the machine *overwrites* it with freshly computed
//! data. Both decisions require a per-cycle record of which state words
//! the pipeline touched, which this module provides.
//!
//! Each RAM-like structure owns an [`AccessLog`] and reports accesses as
//! structure-local word ordinals. Logging is disabled by default (one
//! predictable branch per access on the scalar path); the footprint walk
//! enables it on a private clone only.
//!
//! # Soundness contract
//!
//! *Reads may be over-logged* (a spurious read only forces a conservative
//! peel, never a wrong outcome). *Writes must be logged exactly*, and only
//! for full-word overwrites whose value cannot depend on the word's prior
//! content — the engine treats a logged write as proof the lane's
//! difference was erased. Sites that read-modify-write a word log the read
//! first, which shadows the write (first access per cycle wins).
//! Observer paths (state walks, fingerprints, invariant checks, test
//! peeks) must not log at all.

/// Marks an event in the packed log as a write.
pub const WRITE_BIT: u32 = 1 << 31;

/// A per-structure log of word-granular state accesses.
#[derive(Debug, Clone, Default)]
pub struct AccessLog {
    enabled: bool,
    events: Vec<u32>,
}

impl AccessLog {
    /// Turns logging on or off, clearing any buffered events.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
        self.events.clear();
    }

    /// Whether logging is currently enabled.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Records a read of structure-local word `ord`.
    #[inline(always)]
    pub fn read(&mut self, ord: u32) {
        if self.enabled {
            self.events.push(ord);
        }
    }

    /// Records a full-word overwrite of structure-local word `ord` whose
    /// new value does not depend on the word's prior content.
    #[inline(always)]
    pub fn write(&mut self, ord: u32) {
        if self.enabled {
            self.events.push(ord | WRITE_BIT);
        }
    }

    /// Drains buffered events in program order as `(ord, is_write)`.
    pub fn drain(&mut self, f: &mut dyn FnMut(u32, bool)) {
        for &e in &self.events {
            f(e & !WRITE_BIT, e & WRITE_BIT != 0);
        }
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = AccessLog::default();
        log.read(3);
        log.write(4);
        let mut seen = Vec::new();
        log.drain(&mut |ord, w| seen.push((ord, w)));
        assert!(seen.is_empty());
    }

    #[test]
    fn events_drain_in_program_order() {
        let mut log = AccessLog::default();
        log.set_enabled(true);
        log.read(7);
        log.write(7);
        log.read(2);
        let mut seen = Vec::new();
        log.drain(&mut |ord, w| seen.push((ord, w)));
        assert_eq!(seen, vec![(7, false), (7, true), (2, false)]);
        let mut again = Vec::new();
        log.drain(&mut |ord, w| again.push((ord, w)));
        assert!(again.is_empty(), "drain clears the buffer");
    }

    #[test]
    fn set_enabled_clears_stale_events() {
        let mut log = AccessLog::default();
        log.set_enabled(true);
        log.read(1);
        log.set_enabled(true);
        let mut seen = Vec::new();
        log.drain(&mut |ord, w| seen.push((ord, w)));
        assert!(seen.is_empty());
    }
}
