//! Seeded adversarial traffic shapes.
//!
//! The open-loop generators in [`crate::openloop`] model *honest* load.
//! This module models hostile load: a burst schedule a flooding peer
//! drives its frame cannon with. It lives in the workload crate (not the
//! node crate's adversary module) because it is pure traffic shape —
//! how many frames to emit per tick — with no knowledge of what the
//! frames contain, and the same shape is reusable against any service.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic flood profile: quiet baseline, periodic peaks, seeded
/// jitter. `intensity(tick)` is a pure function of the construction seed
/// and the tick, so a replayed attack emits byte-identical bursts.
#[derive(Debug, Clone)]
pub struct BurstSchedule {
    /// Frames per tick between bursts.
    base: u64,
    /// Frames per tick at a burst peak.
    peak: u64,
    /// Ticks between burst onsets.
    period: u64,
    /// Ticks a burst lasts.
    width: u64,
    rng: StdRng,
    /// Jitter drawn per tick, in `[0, jitter]` frames.
    jitter: u64,
}

impl BurstSchedule {
    /// A flood profile seeded from `seed`. `period` is clamped to ≥ 1;
    /// `width` to `< period` so bursts stay bursts.
    pub fn new(seed: u64, base: u64, peak: u64, period: u64, width: u64) -> Self {
        let period = period.max(1);
        BurstSchedule {
            base,
            peak: peak.max(base),
            period,
            width: width.min(period.saturating_sub(1)).max(1),
            rng: StdRng::seed_from_u64(seed),
            jitter: (peak.max(base) / 8).max(1),
        }
    }

    /// The stock spammer profile: a trickle that spikes hard every few
    /// ticks — enough to overrun any honest per-peer budget at the peaks
    /// while the average stays deceptively low.
    pub fn spammer(seed: u64) -> Self {
        BurstSchedule::new(seed, 2, 40, 6, 3)
    }

    /// Frames to emit this tick. Draws one jitter sample per call, so
    /// call it exactly once per tick to keep replays aligned.
    pub fn intensity(&mut self, tick: u64) -> u64 {
        let phase = tick % self.period;
        let level = if phase < self.width {
            self.peak
        } else {
            self.base
        };
        level + self.rng.gen_range(0..=self.jitter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_identically_from_one_seed() {
        let mut a = BurstSchedule::spammer(7);
        let mut b = BurstSchedule::spammer(7);
        let xs: Vec<u64> = (0..64).map(|t| a.intensity(t)).collect();
        let ys: Vec<u64> = (0..64).map(|t| b.intensity(t)).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn bursts_exceed_baseline() {
        let mut s = BurstSchedule::spammer(3);
        let xs: Vec<u64> = (0..24).map(|t| s.intensity(t)).collect();
        let peak = *xs.iter().max().unwrap();
        let trough = *xs.iter().min().unwrap();
        assert!(peak >= 40, "{xs:?}");
        assert!(trough <= 8, "{xs:?}");
    }

    #[test]
    fn degenerate_parameters_are_clamped() {
        let mut s = BurstSchedule::new(1, 5, 3, 0, 9);
        // peak < base is lifted to base; period 0 clamps to 1.
        for t in 0..8 {
            assert!(s.intensity(t) >= 5);
        }
    }
}
