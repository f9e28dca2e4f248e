//! Run-level RNG seeding.

/// The seed from which every random decision of one run derives.
///
/// Both engines accept a `RunSeed` in their configs and hand it to the
/// shared approximation runtime, which derives per-worker (and per-pane)
/// seeds from it with [`RunSeed::for_worker`]/[`RunSeed::derive`]. The
/// derivation is a SplitMix64 finalizer, so parallel components draw
/// decorrelated random streams while the whole run — on either engine —
/// is exactly reproducible from the one seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RunSeed(u64);

impl RunSeed {
    /// The default seed used by engine configs.
    pub const DEFAULT: RunSeed = RunSeed(0x5A5A);

    /// Wraps a raw 64-bit seed.
    pub const fn new(seed: u64) -> Self {
        RunSeed(seed)
    }

    /// The raw seed value (what RNG constructors consume).
    pub const fn value(self) -> u64 {
        self.0
    }

    /// Derives a decorrelated child seed for the given salt (pane index,
    /// baseline id, …). Distinct salts give independent streams; equal
    /// salts reproduce the same stream.
    #[must_use]
    pub fn derive(self, salt: u64) -> RunSeed {
        // SplitMix64 finalizer over the salted seed.
        let mut z = self
            .0
            .wrapping_add(salt.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        RunSeed(z ^ (z >> 31))
    }

    /// The seed for worker `worker` of a parallel stage — the single
    /// mixing rule both engines (and the samplers) use.
    #[must_use]
    pub fn for_worker(self, worker: usize) -> RunSeed {
        self.derive(0x57AF_F000 ^ worker as u64)
    }
}

impl Default for RunSeed {
    fn default() -> Self {
        RunSeed::DEFAULT
    }
}

impl From<u64> for RunSeed {
    fn from(seed: u64) -> Self {
        RunSeed::new(seed)
    }
}

impl std::fmt::Display for RunSeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(RunSeed::new(7).derive(3), RunSeed::new(7).derive(3));
        assert_eq!(RunSeed::new(7).for_worker(2), RunSeed::new(7).for_worker(2));
    }

    #[test]
    fn distinct_salts_decorrelate() {
        let base = RunSeed::new(42);
        assert_ne!(base.derive(0), base.derive(1));
        assert_ne!(base.for_worker(0), base.for_worker(1));
        assert_ne!(base.derive(0), base);
    }

    #[test]
    fn workers_of_different_runs_differ() {
        assert_ne!(RunSeed::new(1).for_worker(0), RunSeed::new(2).for_worker(0));
    }

    #[test]
    fn raw_value_round_trips() {
        let s: RunSeed = 0xABCD.into();
        assert_eq!(s.value(), 0xABCD);
        assert_eq!(format!("{s}"), "0xabcd");
    }
}
