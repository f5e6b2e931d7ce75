//! Seeded-jitter retry backoff for shed batch requests.
//!
//! Interactive requests get their answer or their typed shed immediately
//! — a wallet user is waiting. Batch requests (TokenMagic runs, audits)
//! can afford to come back later, so a shed batch request re-submits
//! after a backoff. The backoff uses **full jitter** (uniform over
//! `[1, cap]` where `cap = base · 2^attempt`, bounded by `max_backoff`):
//! deterministic given the caller's seeded RNG, but de-correlated across
//! requests, so a burst of sheds does not re-arrive as the same burst.

use rand::Rng;

/// Retry tuning for shed batch requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total submission attempts per request (1 = no retries).
    pub max_attempts: u32,
    /// Backoff cap for the first retry (ticks).
    pub base_backoff: u64,
    /// Upper bound on the exponentially grown cap.
    pub max_backoff: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: 32,
            max_backoff: 512,
        }
    }
}

impl RetryPolicy {
    /// Whether a request on its `attempt`-th submission (1-based) may
    /// retry after a shed.
    pub fn may_retry(&self, attempt: u32) -> bool {
        attempt < self.max_attempts
    }

    /// Draw the backoff before retry number `attempt` (1-based: the first
    /// retry passes 1). Full jitter over `[1, min(base · 2^(attempt−1),
    /// max_backoff)]`.
    pub fn backoff_ticks<R: Rng + ?Sized>(&self, attempt: u32, rng: &mut R) -> u64 {
        let exp = attempt.saturating_sub(1).min(32);
        let cap = self
            .base_backoff
            .max(1)
            .checked_shl(exp)
            .unwrap_or(u64::MAX)
            .min(self.max_backoff.max(1));
        rng.gen_range(1..=cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn attempts_are_bounded() {
        let p = RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        };
        assert!(p.may_retry(1));
        assert!(p.may_retry(2));
        assert!(!p.may_retry(3));
    }

    #[test]
    fn backoff_grows_but_stays_capped() {
        let p = RetryPolicy {
            max_attempts: 8,
            base_backoff: 8,
            max_backoff: 64,
        };
        let mut rng = StdRng::seed_from_u64(7);
        for attempt in 1..=8 {
            for _ in 0..50 {
                let b = p.backoff_ticks(attempt, &mut rng);
                let cap = (8u64 << (attempt - 1).min(32)).min(64);
                assert!((1..=cap).contains(&b), "attempt {attempt}: {b} > {cap}");
            }
        }
    }

    #[test]
    fn backoff_replays_from_a_seed() {
        let p = RetryPolicy::default();
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (1..=4)
                .map(|a| p.backoff_ticks(a, &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4), "different seeds should differ");
    }
}
