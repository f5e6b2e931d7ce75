//! Memoization for the selection hot paths.
//!
//! Two caches share one design — a bounded, FIFO-evicting hash map behind a
//! `Mutex`, with hit/miss/eviction counters exported through `dams-obs` as
//! `core.cache.hits_total` / `core.cache.misses_total` /
//! `core.cache.evictions_total`:
//!
//! * [`EvalCache`] memoizes the *expensive* half of an exact-BFS candidate
//!   check (possible-world enumeration + non-eliminated constraint + DTRS
//!   diversity) keyed by the canonical ring content — the sorted token list
//!   of the candidate ring, and nothing else. A candidate's verdict depends
//!   on its token set, the committed rings, the claims, and the requirement
//!   under evaluation, but the key names only the first; so a cache is
//!   sound exactly as long as the others stay fixed: one `bfs()` call
//!   trivially qualifies, and so does a whole TokenMagic batch over one
//!   frozen instance and one requirement (the batch commits nothing until
//!   all selections are made). A later batch, after rings were committed,
//!   needs a fresh cache. The stored outcome carries the DTRS-check count
//!   alongside the verdict so replaying a hit updates `SelectionStats`
//!   exactly like recomputing would — cached and uncached runs return
//!   byte-identical selections, differing only in the cache counters.
//! * [`ProfileCache`] memoizes game-theoretic profile evaluations
//!   (satisfied?, ring size) keyed by the module-selection bitset, shared
//!   across the best-response passes of one call and across a TokenMagic
//!   batch on the same instance.
//!
//! Eviction is deterministic (insertion order), so two runs over the same
//! work see the same hit/miss/eviction sequence — the determinism gate
//! stays byte-identical with caching enabled.

use std::borrow::Borrow;
use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::{Mutex, PoisonError};

use dams_diversity::TokenId;
use dams_obs::Registry;

use crate::obs::CoreMetrics;

/// Default entry capacity for both caches. An entry is a short key vector
/// plus a copy-sized outcome; 64Ki entries is a few MiB at worst.
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 16;

/// Bounded FIFO map: the shared mechanism behind both caches.
struct FifoMap<K: Eq + Hash + Clone, V: Copy> {
    map: HashMap<K, V>,
    fifo: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V: Copy> FifoMap<K, V> {
    fn new(capacity: usize) -> Self {
        FifoMap {
            map: HashMap::new(),
            fifo: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    fn get<Q>(&self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: ?Sized + Eq + Hash,
    {
        self.map.get(key).copied()
    }

    /// Insert, returning how many entries were evicted to make room.
    /// Re-inserting an existing key overwrites in place (no FIFO churn), so
    /// two threads sharing a cache that both compute one candidate leave a
    /// single entry.
    fn insert(&mut self, key: K, value: V) -> u64 {
        if self.map.insert(key.clone(), value).is_some() {
            return 0;
        }
        self.fifo.push_back(key);
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            if let Some(old) = self.fifo.pop_front() {
                self.map.remove(&old);
                evicted += 1;
            } else {
                break;
            }
        }
        evicted
    }

    fn len(&self) -> usize {
        self.map.len()
    }
}

/// The memoized outcome of one exact-BFS candidate's expensive check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CachedOutcome {
    /// Did the candidate pass world enumeration, the non-eliminated
    /// constraint, and every DTRS diversity check?
    pub eligible: bool,
    /// How many DTRS diversity-histogram checks the computation performed —
    /// replayed into `SelectionStats.diversity_checks` on a hit so stats
    /// match the uncached run exactly.
    pub dtrs_checks: u64,
}

/// Candidate-ring outcome cache for the exact BFS (see module docs for the
/// soundness contract). Thread-safe; share one instance across the
/// selections of one batch over a frozen instance.
pub struct EvalCache {
    inner: Mutex<FifoMap<Vec<TokenId>, CachedOutcome>>,
    metrics: CoreMetrics,
}

impl EvalCache {
    /// A cache with [`DEFAULT_CACHE_CAPACITY`], counting into the global
    /// registry.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A cache with an explicit entry capacity (global registry counters).
    pub fn with_capacity(capacity: usize) -> Self {
        EvalCache {
            inner: Mutex::new(FifoMap::new(capacity)),
            metrics: CoreMetrics::global().clone(),
        }
    }

    /// A cache whose counters live in `registry` — for tests asserting
    /// exact hit/miss accounting without cross-test interference.
    pub fn in_registry(capacity: usize, registry: &Registry) -> Self {
        EvalCache {
            inner: Mutex::new(FifoMap::new(capacity)),
            metrics: CoreMetrics::in_registry(registry),
        }
    }

    /// Look up a candidate by its canonical (sorted) token content.
    pub fn lookup(&self, tokens: &[TokenId]) -> Option<CachedOutcome> {
        let out = self.inner.lock().unwrap_or_else(PoisonError::into_inner).get(tokens);
        match out {
            Some(v) => {
                self.metrics.cache_hits.inc();
                Some(v)
            }
            None => {
                self.metrics.cache_misses.inc();
                None
            }
        }
    }

    /// Store a computed outcome. Budget-limited verdicts (errors) must NOT
    /// be inserted — only definite eligible/ineligible results.
    pub fn insert(&self, tokens: &[TokenId], outcome: CachedOutcome) {
        let evicted = self
            .inner
            .lock()
            // A panic inside FifoMap cannot leave it mid-mutation (all its
            // updates complete or never start), so a poisoned lock is safe
            // to recover: keep serving rather than cascading the panic.
            .unwrap_or_else(PoisonError::into_inner)
            .insert(tokens.to_vec(), outcome);
        if evicted > 0 {
            self.metrics.cache_evictions.add(evicted);
        }
    }

    /// Current number of stored outcomes.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EvalCache {
    fn default() -> Self {
        Self::new()
    }
}

/// A memoized profile verdict: (diversity satisfied?, ring token count).
type ProfileVerdict = (bool, u32);

/// Game-theoretic profile evaluation cache: module-selection bitset →
/// (diversity satisfied?, ring token count). Sound for one frozen
/// [`crate::ModularInstance`] + requirement, i.e. one call or one batch.
pub struct ProfileCache {
    inner: Mutex<FifoMap<Box<[u64]>, ProfileVerdict>>,
    metrics: CoreMetrics,
}

impl ProfileCache {
    /// A cache with [`DEFAULT_CACHE_CAPACITY`] (global registry counters).
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CACHE_CAPACITY)
    }

    /// A cache with an explicit entry capacity (global registry counters).
    pub fn with_capacity(capacity: usize) -> Self {
        ProfileCache {
            inner: Mutex::new(FifoMap::new(capacity)),
            metrics: CoreMetrics::global().clone(),
        }
    }

    /// A cache whose counters live in `registry`.
    pub fn in_registry(capacity: usize, registry: &Registry) -> Self {
        ProfileCache {
            inner: Mutex::new(FifoMap::new(capacity)),
            metrics: CoreMetrics::in_registry(registry),
        }
    }

    /// Look up a profile by its selection bitset words.
    pub fn lookup(&self, profile: &[u64]) -> Option<(bool, u32)> {
        let out = self.inner.lock().unwrap_or_else(PoisonError::into_inner).get(profile);
        match out {
            Some(v) => {
                self.metrics.cache_hits.inc();
                Some(v)
            }
            None => {
                self.metrics.cache_misses.inc();
                None
            }
        }
    }

    /// Store a profile evaluation.
    pub fn insert(&self, profile: &[u64], value: (bool, u32)) {
        let evicted = self
            .inner
            .lock()
            // A panic inside FifoMap cannot leave it mid-mutation (all its
            // updates complete or never start), so a poisoned lock is safe
            // to recover: keep serving rather than cascading the panic.
            .unwrap_or_else(PoisonError::into_inner)
            .insert(profile.to_vec().into_boxed_slice(), value);
        if evicted > 0 {
            self.metrics.cache_evictions.add(evicted);
        }
    }

    /// Current number of stored profiles.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for ProfileCache {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(ids: &[u32]) -> Vec<TokenId> {
        ids.iter().map(|&i| TokenId(i)).collect()
    }

    #[test]
    fn lookup_miss_then_hit_counts() {
        let registry = Registry::new();
        let cache = EvalCache::in_registry(8, &registry);
        let key = toks(&[1, 2, 3]);
        assert_eq!(cache.lookup(&key), None);
        cache.insert(
            &key,
            CachedOutcome {
                eligible: true,
                dtrs_checks: 7,
            },
        );
        assert_eq!(
            cache.lookup(&key),
            Some(CachedOutcome {
                eligible: true,
                dtrs_checks: 7
            })
        );
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.cache.hits_total"), Some(1));
        assert_eq!(snap.counter("core.cache.misses_total"), Some(1));
        assert_eq!(snap.counter("core.cache.evictions_total"), Some(0));
    }

    #[test]
    fn fifo_eviction_is_insertion_ordered() {
        let registry = Registry::new();
        let cache = EvalCache::in_registry(2, &registry);
        let out = CachedOutcome {
            eligible: false,
            dtrs_checks: 0,
        };
        cache.insert(&toks(&[1]), out);
        cache.insert(&toks(&[2]), out);
        cache.insert(&toks(&[3]), out); // evicts [1]
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.lookup(&toks(&[1])), None); // miss
        assert!(cache.lookup(&toks(&[2])).is_some());
        assert!(cache.lookup(&toks(&[3])).is_some());
        assert_eq!(
            registry.snapshot().counter("core.cache.evictions_total"),
            Some(1)
        );
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let registry = Registry::new();
        let cache = EvalCache::in_registry(2, &registry);
        let out = CachedOutcome {
            eligible: true,
            dtrs_checks: 1,
        };
        cache.insert(&toks(&[1]), out);
        cache.insert(&toks(&[2]), out);
        cache.insert(&toks(&[1]), out);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            registry.snapshot().counter("core.cache.evictions_total"),
            Some(0)
        );
    }

    #[test]
    fn profile_cache_round_trip() {
        let registry = Registry::new();
        let cache = ProfileCache::in_registry(8, &registry);
        let words = [0b1011u64, 0x4];
        assert_eq!(cache.lookup(&words), None);
        cache.insert(&words, (true, 12));
        assert_eq!(cache.lookup(&words), Some((true, 12)));
        let snap = registry.snapshot();
        assert_eq!(snap.counter("core.cache.hits_total"), Some(1));
        assert_eq!(snap.counter("core.cache.misses_total"), Some(1));
    }
}
