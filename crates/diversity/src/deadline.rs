//! Work-unit deadlines for the exact algorithms.
//!
//! The exact algorithms accept an optional [`Deadline`] that bounds how
//! much work they may do. The budget is counted in abstract **work
//! units** (the caller defines the unit: BFS candidates examined,
//! world-enumeration steps, …). Expiry depends only on the work
//! performed, so an entire overload scenario — which requests degrade,
//! which tier answers, every metric — replays byte-identically from a
//! seed on any host. The selection service (`dams-svc`) propagates this
//! budget end-to-end: queue wait is charged in the same ticks, so a
//! request that waited long arrives at the solver with a small budget and
//! steers itself down the degradation ladder deterministically.
//!
//! `Deadline::Ticks(0)` is *already elapsed*: every consumer must treat it
//! as expired before performing any work (see
//! [`Deadline::already_elapsed`]).

/// An expiry condition for budgeted work (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Deadline {
    /// Expires once the consumer has charged this many work units.
    Ticks(u64),
}

impl Deadline {
    /// A deadline of `n` work units.
    pub fn ticks(n: u64) -> Self {
        Deadline::Ticks(n)
    }

    /// Whether the deadline has passed, given `work` units already spent.
    #[inline]
    pub fn expired(&self, work: u64) -> bool {
        let Deadline::Ticks(n) = *self;
        work >= n
    }

    /// Whether no work at all can be afforded: the deadline is expired
    /// before the first unit is charged. Callers use this to skip an
    /// attempt entirely instead of starting a doomed probe.
    #[inline]
    pub fn already_elapsed(&self) -> bool {
        self.expired(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ticks_expire_on_work_not_time() {
        let d = Deadline::Ticks(3);
        assert!(!d.expired(0));
        assert!(!d.expired(2));
        assert!(d.expired(3));
        assert!(d.expired(u64::MAX));
    }

    #[test]
    fn zero_ticks_is_already_elapsed() {
        assert!(Deadline::Ticks(0).already_elapsed());
        assert!(!Deadline::Ticks(1).already_elapsed());
    }
}
