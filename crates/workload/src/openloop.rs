//! Open-loop arrival generation for the selection service's overload
//! experiments.
//!
//! A *closed-loop* driver (like the figure timer in `dams-bench`) waits for each
//! response before issuing the next request, so it can never overload the
//! system under test — the system's own latency throttles it. Overload
//! behaviour only shows under **open-loop** load: arrivals keep coming at
//! their own rate whether or not the service keeps up, exactly like
//! wallets broadcasting on their users' schedules. This module generates
//! such arrival schedules deterministically:
//!
//! * gaps are **integer ticks** drawn uniformly from
//!   `[1, 2·mean_gap − 1]` (mean `mean_gap`), so a schedule replays
//!   byte-identically from a seed on any host — no floating-point
//!   accumulation, no wall clock;
//! * an optional **burst** pattern drops `burst_size` extra arrivals on
//!   the same tick every `burst_every`-th arrival, modelling the
//!   synchronized spikes (exchange payouts, block boundaries) that
//!   stress admission control far more than a smooth ramp.

use rand::Rng;

/// Configuration for one open-loop arrival schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpenLoop {
    /// Mean inter-arrival gap in virtual ticks (≥ 1). Offered rate is
    /// `1 / mean_gap` requests per tick.
    pub mean_gap: u64,
    /// Every `burst_every`-th arrival becomes a burst (`0` disables).
    pub burst_every: usize,
    /// Extra arrivals stacked on the same tick at each burst.
    pub burst_size: usize,
}

impl OpenLoop {
    /// A smooth schedule with the given mean gap and no bursts.
    pub fn smooth(mean_gap: u64) -> Self {
        OpenLoop {
            mean_gap: mean_gap.max(1),
            burst_every: 0,
            burst_size: 0,
        }
    }

    /// A bursty schedule: every `every`-th arrival brings `size` extras.
    pub fn bursty(mean_gap: u64, every: usize, size: usize) -> Self {
        OpenLoop {
            mean_gap: mean_gap.max(1),
            burst_every: every,
            burst_size: size,
        }
    }

    /// Generate `n` arrival ticks (sorted, possibly with duplicates on
    /// burst ticks). The schedule depends only on `self` and the stream
    /// drawn from `rng`.
    pub fn arrival_ticks<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Vec<u64> {
        let mean = self.mean_gap.max(1);
        let mut out = Vec::with_capacity(n);
        let mut tick = 0u64;
        let mut primary = 0usize;
        while out.len() < n {
            // Uniform on [1, 2·mean − 1] keeps the mean at `mean` with
            // integer-only arithmetic (for mean 1 the gap is always 1).
            let gap = if mean == 1 {
                1
            } else {
                rng.gen_range(1..=2 * mean - 1)
            };
            tick = tick.saturating_add(gap);
            out.push(tick);
            primary += 1;
            if self.burst_every > 0
                && self.burst_size > 0
                && primary.is_multiple_of(self.burst_every)
            {
                for _ in 0..self.burst_size {
                    if out.len() >= n {
                        break;
                    }
                    out.push(tick);
                }
            }
        }
        out
    }
}

/// Deal one arrival schedule out across `shards` consumers, round-robin.
///
/// Sharding — not splitting into contiguous runs — is what holds the
/// *offered* load fixed while serving capacity scales: each shard keeps
/// the full time span of the original schedule at `1/shards` of its
/// rate, so an N-replica cluster sees the same open-loop client
/// population as a single node, just load-balanced. Order within each
/// shard is preserved.
pub fn shard_round_robin<T: Clone>(arrivals: &[T], shards: usize) -> Vec<Vec<T>> {
    let shards = shards.max(1);
    let mut out: Vec<Vec<T>> = (0..shards)
        .map(|_| Vec::with_capacity(arrivals.len() / shards + 1))
        .collect();
    for (i, arrival) in arrivals.iter().enumerate() {
        out[i % shards].push(arrival.clone());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn round_robin_sharding_covers_everything_in_order() {
        let items: Vec<u64> = (0..10).collect();
        let shards = shard_round_robin(&items, 3);
        assert_eq!(shards.len(), 3);
        assert_eq!(shards[0], vec![0, 3, 6, 9]);
        assert_eq!(shards[1], vec![1, 4, 7]);
        assert_eq!(shards[2], vec![2, 5, 8]);
        let total: usize = shards.iter().map(Vec::len).sum();
        assert_eq!(total, items.len());
        // Zero shards is clamped, not a panic.
        assert_eq!(shard_round_robin(&items, 0).len(), 1);
    }

    #[test]
    fn schedules_replay_from_a_seed() {
        let cfg = OpenLoop::bursty(7, 5, 3);
        let a = cfg.arrival_ticks(200, &mut StdRng::seed_from_u64(11));
        let b = cfg.arrival_ticks(200, &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
        assert_eq!(a.len(), 200);
    }

    #[test]
    fn arrivals_are_sorted_and_positive() {
        let mut rng = StdRng::seed_from_u64(3);
        let ticks = OpenLoop::smooth(4).arrival_ticks(500, &mut rng);
        assert!(ticks.windows(2).all(|w| w[0] <= w[1]));
        assert!(ticks[0] >= 1);
    }

    #[test]
    fn mean_gap_is_respected_within_tolerance() {
        let mut rng = StdRng::seed_from_u64(9);
        let n = 4000;
        let ticks = OpenLoop::smooth(10).arrival_ticks(n, &mut rng);
        let mean = ticks.last().unwrap() / n as u64;
        assert!((8..=12).contains(&mean), "observed mean gap {mean}");
    }

    #[test]
    fn bursts_stack_arrivals_on_one_tick() {
        let mut rng = StdRng::seed_from_u64(5);
        let ticks = OpenLoop::bursty(6, 4, 2).arrival_ticks(60, &mut rng);
        // Some tick must appear at least 3 times (primary + 2 extras).
        let max_run = ticks
            .chunk_by(|a, b| a == b)
            .map(<[u64]>::len)
            .max()
            .unwrap_or(0);
        assert!(max_run >= 3, "no burst found: {ticks:?}");
    }

    #[test]
    fn unit_mean_gap_is_back_to_back() {
        let mut rng = StdRng::seed_from_u64(1);
        let ticks = OpenLoop::smooth(1).arrival_ticks(10, &mut rng);
        assert_eq!(ticks, (1..=10).collect::<Vec<u64>>());
    }
}
