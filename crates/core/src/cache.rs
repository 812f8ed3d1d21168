//! A sharded, shareable score cache: the memoization layer of the
//! subspace-scoring engine.
//!
//! Subspace search hammers one primitive — score every row in a subspace
//! — millions of times, and stage-wise searches revisit the same
//! subspaces constantly. [`ScoreCache`] memoizes the (subspace →
//! standardized score vector) mapping with three properties the old
//! per-run scorer-internal map lacked:
//!
//! * **Sharded locking** — keys are distributed over N mutex-guarded
//!   shards by their Fx hash, so threads sharing one cache (the workers
//!   computing a batch's misses, concurrent serve requests) do not
//!   serialize on one global lock. A batch's hits are looked up on the
//!   calling thread with [`ScoreCache::get`], one lock each.
//! * **Shareable lifetime** — the cache is `Arc`-shareable and outlives a
//!   single run: one cache can back a whole sweep over explanation
//!   dimensionalities, and every pipeline pairing the same (dataset,
//!   detector), so work done for 2d explanations is reused at 3d–5d.
//! * **Exactly-once computation** — a per-entry in-flight guard makes
//!   concurrent misses of the same subspace compute it exactly once: the
//!   first thread computes, the others wait and observe a hit. This keeps
//!   the `evaluations` counter exact under parallel explanation (it
//!   counts *unique* subspaces, never duplicated work).
//!
//! An optional capacity bound (FIFO eviction per shard) keeps
//! LookOut-scale exhaustive enumerations from exhausting memory.
//!
//! The cache stores whatever vectors the caller computes; it does not
//! standardize or validate them. One cache must therefore only ever be
//! shared between scorers with identical score semantics (same detector,
//! same standardization setting).

use crate::fxhash::{FxHashMap, FxHasher};
use anomex_dataset::Subspace;
use std::collections::VecDeque;
use std::hash::{BuildHasher, BuildHasherDefault};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// Locks a mutex, recovering the guard from a poisoned lock: a panicking
/// `compute` runs outside every lock, and the in-flight state machine
/// (not mutex poisoning) tells waiters to retry.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// How a [`ScoreCache::get_or_compute`] request was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetch {
    /// The calling thread computed the value (a unique cache miss).
    Computed,
    /// The value was served from the cache, either directly or by
    /// waiting on another thread's in-flight computation.
    Hit,
}

/// A snapshot of the cache's cumulative counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Unique computations performed through the cache (misses).
    pub evaluations: usize,
    /// Requests served without computing (including waits on in-flight
    /// computations).
    pub hits: usize,
    /// Entries currently resident.
    pub entries: usize,
    /// Maximum number of entries ever resident at once.
    pub peak_entries: usize,
}

impl CacheStats {
    /// Fraction of requests served from cache, in `[0, 1]`.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.evaluations + self.hits;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// State of one in-flight computation, shared between the computing
/// thread and any threads that missed the same key concurrently.
enum FlightState {
    Running,
    Done(Arc<Vec<f64>>),
    /// The computing thread panicked; waiters retry from scratch.
    Poisoned,
}

struct InFlight {
    state: Mutex<FlightState>,
    done: Condvar,
}

enum Slot {
    Ready(Arc<Vec<f64>>),
    Pending(Arc<InFlight>),
}

#[derive(Default)]
struct Shard {
    map: FxHashMap<Subspace, Slot>,
    /// Insertion order of Ready entries, for FIFO eviction. Pending
    /// entries are never queued (and therefore never evicted).
    order: VecDeque<Subspace>,
}

/// Builder for [`ScoreCache`] — see [`ScoreCache::builder`].
#[derive(Debug, Clone, Copy)]
pub struct ScoreCacheBuilder {
    shards: usize,
    capacity: Option<usize>,
}

impl ScoreCacheBuilder {
    /// Sets the number of lock shards (rounded up to a power of two,
    /// clamped to `1..=256`). More shards mean less contention between
    /// concurrent workers; one shard degenerates to a single global lock.
    #[must_use]
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Bounds the total number of resident entries. When a shard
    /// overflows its slice of the capacity, its oldest entries are
    /// evicted (FIFO). `None` (the default) means unbounded. The
    /// per-shard slice is clamped to ≥ 1, so `capacity(0)` behaves as a
    /// one-entry-per-shard cache rather than caching nothing — every
    /// value returned by `get_or_compute` must be insertable, or the
    /// exactly-once in-flight protocol would have nowhere to publish
    /// results.
    #[must_use]
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = Some(capacity);
        self
    }

    /// Builds the cache.
    #[must_use]
    pub fn build(self) -> ScoreCache {
        let n = self.shards.clamp(1, 256).next_power_of_two();
        let shards: Vec<Mutex<Shard>> = (0..n).map(|_| Mutex::new(Shard::default())).collect();
        let per_shard_cap = self.capacity.map(|c| (c / n).max(1));
        ScoreCache {
            shards: shards.into_boxed_slice(),
            shard_mask: (n - 1) as u64,
            per_shard_cap,
            evaluations: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
            entries: AtomicUsize::new(0),
            peak_entries: AtomicUsize::new(0),
        }
    }
}

/// A sharded (subspace → score vector) cache, shareable across runs via
/// `Arc` — see the [module docs](self) for the design.
pub struct ScoreCache {
    shards: Box<[Mutex<Shard>]>,
    shard_mask: u64,
    per_shard_cap: Option<usize>,
    evaluations: AtomicUsize,
    hits: AtomicUsize,
    entries: AtomicUsize,
    peak_entries: AtomicUsize,
}

impl Default for ScoreCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoreCache {
    /// An unbounded cache with one shard per core (power-of-two rounded).
    #[must_use]
    pub fn new() -> Self {
        Self::builder().build()
    }

    /// Starts configuring a cache. Defaults: one shard per core,
    /// unbounded capacity.
    #[must_use]
    pub fn builder() -> ScoreCacheBuilder {
        ScoreCacheBuilder {
            shards: anomex_parallel::cores(),
            capacity: None,
        }
    }

    /// An unbounded-shards cache bounded to roughly `capacity` resident
    /// entries (FIFO-evicted per shard).
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self::builder().capacity(capacity).build()
    }

    /// Number of lock shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of resident entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Whether the cache is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of the cumulative counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            evaluations: self.evaluations.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            entries: self.entries.load(Ordering::Relaxed),
            peak_entries: self.peak_entries.load(Ordering::Relaxed),
        }
    }

    /// Drops every resident entry (counters other than `entries` are
    /// preserved; in-flight computations are unaffected).
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            let mut guard = lock(shard);
            let removed = guard.order.len();
            guard.order.clear();
            guard.map.retain(|_, slot| matches!(slot, Slot::Pending(_)));
            self.entries.fetch_sub(removed, Ordering::Relaxed);
        }
    }

    /// Looks up a ready entry without computing. Counts a hit when found.
    /// A key still being computed by another thread reads as absent:
    /// `get` never waits.
    #[must_use]
    pub fn get(&self, key: &Subspace) -> Option<Arc<Vec<f64>>> {
        let shard = &self.shards[self.shard_index(key)];
        let guard = lock(shard);
        if let Some(Slot::Ready(v)) = guard.map.get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(Arc::clone(v))
        } else {
            None
        }
    }

    /// Returns the cached vector for `key`, computing it with `compute`
    /// on a miss. Concurrent misses of the same key compute exactly once:
    /// the first thread runs `compute`, the rest block until it finishes
    /// and observe a [`Fetch::Hit`].
    ///
    /// `compute` runs outside every cache lock, so it may itself use the
    /// cache (for different keys) without deadlocking.
    pub fn get_or_compute<F>(&self, key: &Subspace, compute: F) -> (Arc<Vec<f64>>, Fetch)
    where
        F: FnOnce() -> Vec<f64>,
    {
        let shard = &self.shards[self.shard_index(key)];
        let flight: Arc<InFlight>;
        loop {
            let mut guard = lock(shard);
            match guard.map.get(key) {
                Some(Slot::Ready(v)) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return (Arc::clone(v), Fetch::Hit);
                }
                Some(Slot::Pending(p)) => {
                    let p = Arc::clone(p);
                    drop(guard);
                    let mut state = lock(&p.state);
                    while matches!(*state, FlightState::Running) {
                        state = p.done.wait(state).unwrap_or_else(PoisonError::into_inner);
                    }
                    match &*state {
                        FlightState::Done(v) => {
                            self.hits.fetch_add(1, Ordering::Relaxed);
                            return (Arc::clone(v), Fetch::Hit);
                        }
                        // The computing thread panicked — retry (this
                        // thread may become the new computer).
                        FlightState::Poisoned | FlightState::Running => continue,
                    }
                }
                None => {
                    let p = Arc::new(InFlight {
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                    });
                    guard.map.insert(key.clone(), Slot::Pending(Arc::clone(&p)));
                    flight = p;
                    break;
                }
            }
        }

        // This thread owns the computation. If `compute` panics, the
        // guard below removes the pending entry and wakes waiters so
        // they retry instead of blocking forever.
        struct PoisonOnUnwind<'c> {
            shard: &'c Mutex<Shard>,
            key: &'c Subspace,
            flight: &'c Arc<InFlight>,
            armed: bool,
        }
        impl Drop for PoisonOnUnwind<'_> {
            fn drop(&mut self) {
                if !self.armed {
                    return;
                }
                let mut guard = lock(self.shard);
                if let Some(Slot::Pending(p)) = guard.map.get(self.key) {
                    if Arc::ptr_eq(p, self.flight) {
                        guard.map.remove(self.key);
                    }
                }
                drop(guard);
                *lock(&self.flight.state) = FlightState::Poisoned;
                self.flight.done.notify_all();
            }
        }
        let mut unwind_guard = PoisonOnUnwind {
            shard,
            key,
            flight: &flight,
            armed: true,
        };
        let value = Arc::new(compute());
        unwind_guard.armed = false;
        drop(unwind_guard);

        self.evaluations.fetch_add(1, Ordering::Relaxed);
        {
            let mut guard = lock(shard);
            guard
                .map
                .insert(key.clone(), Slot::Ready(Arc::clone(&value)));
            guard.order.push_back(key.clone());
            let now = self.entries.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_entries.fetch_max(now, Ordering::Relaxed);
            if let Some(cap) = self.per_shard_cap {
                while guard.order.len() > cap {
                    if let Some(oldest) = guard.order.pop_front() {
                        if matches!(guard.map.get(&oldest), Some(Slot::Ready(_))) {
                            guard.map.remove(&oldest);
                            self.entries.fetch_sub(1, Ordering::Relaxed);
                        }
                    }
                }
            }
        }
        {
            let mut state = lock(&flight.state);
            *state = FlightState::Done(Arc::clone(&value));
        }
        flight.done.notify_all();
        (value, Fetch::Computed)
    }

    fn shard_index(&self, key: &Subspace) -> usize {
        let hasher: BuildHasherDefault<FxHasher> = BuildHasherDefault::default();
        (hasher.hash_one(key) & self.shard_mask) as usize
    }
}

#[cfg(test)]
mod unit_tests {
    use super::*;

    fn s(features: &[usize]) -> Subspace {
        Subspace::new(features.to_vec())
    }

    #[test]
    fn miss_then_hit() {
        let cache = ScoreCache::new();
        let key = s(&[0, 1]);
        let (a, f1) = cache.get_or_compute(&key, || vec![1.0, 2.0]);
        assert_eq!(f1, Fetch::Computed);
        let (b, f2) = cache.get_or_compute(&key, || panic!("must not recompute"));
        assert_eq!(f2, Fetch::Hit);
        assert!(Arc::ptr_eq(&a, &b));
        let stats = cache.stats();
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.peak_entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ScoreCache::builder().shards(4).build();
        for i in 0..100usize {
            let (_, f) = cache.get_or_compute(&s(&[i, i + 1]), || vec![i as f64]);
            assert_eq!(f, Fetch::Computed);
        }
        assert_eq!(cache.len(), 100);
        assert_eq!(cache.stats().evaluations, 100);
        assert_eq!(cache.stats().hits, 0);
    }

    #[test]
    fn concurrent_misses_compute_exactly_once() {
        use std::sync::atomic::AtomicUsize;
        let cache = ScoreCache::builder().shards(8).build();
        let computes = AtomicUsize::new(0);
        let key = s(&[3, 7]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache.get_or_compute(&key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window.
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        vec![42.0]
                    });
                    assert_eq!(*v, vec![42.0]);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "duplicated compute");
        let stats = cache.stats();
        assert_eq!(stats.evaluations, 1);
        assert_eq!(stats.hits, 7);
    }

    #[test]
    fn get_does_not_wait_on_an_in_flight_key() {
        use std::sync::mpsc;
        use std::time::Duration;
        let cache = ScoreCache::builder().shards(1).build();
        let key = s(&[2, 4]);
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (cache, key) = (&cache, &key);
        std::thread::scope(|scope| {
            scope.spawn(move || {
                cache.get_or_compute(key, || {
                    started_tx.send(()).unwrap();
                    // Returns once the lookup below has run. Bounded, so
                    // a `get` that waited fails instead of hanging.
                    let _ = release_rx.recv_timeout(Duration::from_secs(30));
                    vec![1.0]
                })
            });
            started_rx.recv().unwrap();
            assert!(cache.get(key).is_none(), "get waited on the computation");
            drop(release_tx);
        });
        assert_eq!(cache.get(key).as_deref(), Some(&vec![1.0]));
        assert_eq!(cache.stats().hits, 1, "only the ready lookup counts");
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        // One shard so the global bound is exact and eviction order is
        // the insertion order.
        let cache = ScoreCache::builder().shards(1).capacity(3).build();
        for i in 0..5usize {
            let _ = cache.get_or_compute(&s(&[i]), || vec![i as f64]);
        }
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.stats().peak_entries, 4); // insert-then-evict
                                                   // The two oldest were evicted; the three newest remain.
        assert!(cache.get(&s(&[0])).is_none());
        assert!(cache.get(&s(&[1])).is_none());
        for i in 2..5usize {
            assert!(cache.get(&s(&[i])).is_some(), "entry {i} evicted");
        }
        // A re-request of an evicted key recomputes.
        let (_, f) = cache.get_or_compute(&s(&[0]), || vec![0.0]);
        assert_eq!(f, Fetch::Computed);
    }

    #[test]
    fn capacity_zero_clamps_to_one_entry_per_shard() {
        // Regression: capacity 0 must not divide-to-zero or cache
        // nothing — the per-shard bound clamps to 1 (see
        // `ScoreCacheBuilder::capacity`).
        let cache = ScoreCache::builder().shards(1).capacity(0).build();
        let (_, f) = cache.get_or_compute(&s(&[0]), || vec![1.0]);
        assert_eq!(f, Fetch::Computed);
        assert_eq!(cache.len(), 1, "clamped capacity keeps one entry");
        // The resident entry serves hits until displaced...
        let (_, f) = cache.get_or_compute(&s(&[0]), || unreachable!());
        assert_eq!(f, Fetch::Hit);
        // ...and a new key displaces it (FIFO of size one).
        let _ = cache.get_or_compute(&s(&[1]), || vec![2.0]);
        assert_eq!(cache.len(), 1);
        assert!(cache.get(&s(&[0])).is_none(), "old entry survived");
        assert!(cache.get(&s(&[1])).is_some());
    }

    #[test]
    fn capacity_one_evicts_fifo_exactly() {
        let cache = ScoreCache::builder().shards(1).capacity(1).build();
        for i in 0..4usize {
            let (_, f) = cache.get_or_compute(&s(&[i]), || vec![i as f64]);
            assert_eq!(f, Fetch::Computed);
            assert_eq!(cache.len(), 1, "bound violated after insert {i}");
            if i > 0 {
                assert!(cache.get(&s(&[i - 1])).is_none(), "{}", i - 1);
            }
            assert!(cache.get(&s(&[i])).is_some(), "{i}");
        }
        // Every insert displaced the previous entry: 4 evaluations, and
        // the `get` probes above account for the hits.
        assert_eq!(cache.stats().evaluations, 4);
        assert_eq!(cache.stats().peak_entries, 2, "insert-then-evict peak");
    }

    #[test]
    fn tiny_capacity_still_computes_exactly_once_under_contention() {
        use std::sync::atomic::AtomicUsize;
        // Even when eviction churn is maximal (one resident entry), a
        // burst of concurrent misses on one key runs `compute` once: the
        // in-flight guard, not residency, provides exactly-once.
        let cache = ScoreCache::builder().shards(1).capacity(0).build();
        let computes = AtomicUsize::new(0);
        let key = s(&[5, 6]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    let (v, _) = cache.get_or_compute(&key, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        std::thread::sleep(std::time::Duration::from_millis(10));
                        vec![9.0]
                    });
                    assert_eq!(*v, vec![9.0]);
                });
            }
        });
        assert_eq!(computes.load(Ordering::SeqCst), 1, "duplicated compute");
        assert_eq!(cache.stats().evaluations, 1);
        assert_eq!(cache.stats().hits, 7);
    }

    #[test]
    fn clear_empties_but_keeps_counters() {
        let cache = ScoreCache::new();
        let _ = cache.get_or_compute(&s(&[1, 2]), || vec![0.5]);
        let _ = cache.get_or_compute(&s(&[1, 2]), || unreachable!());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!(cache.stats().evaluations, 1);
        assert_eq!(cache.stats().hits, 1);
        assert_eq!(cache.stats().peak_entries, 1);
        let (_, f) = cache.get_or_compute(&s(&[1, 2]), || vec![0.5]);
        assert_eq!(f, Fetch::Computed);
    }

    #[test]
    fn panicking_compute_poisons_and_allows_retry() {
        let cache = ScoreCache::builder().shards(1).build();
        let key = s(&[9]);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = cache.get_or_compute(&key, || panic!("detector exploded"));
        }));
        assert!(panicked.is_err());
        // The entry is gone and a retry computes cleanly.
        let (v, f) = cache.get_or_compute(&key, || vec![7.0]);
        assert_eq!(f, Fetch::Computed);
        assert_eq!(*v, vec![7.0]);
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        assert_eq!(ScoreCache::builder().shards(1).build().n_shards(), 1);
        assert_eq!(ScoreCache::builder().shards(3).build().n_shards(), 4);
        assert_eq!(ScoreCache::builder().shards(16).build().n_shards(), 16);
        assert_eq!(ScoreCache::builder().shards(1000).build().n_shards(), 256);
    }

    #[test]
    fn sharded_and_single_lock_agree() {
        let sharded = ScoreCache::builder().shards(16).build();
        let single = ScoreCache::builder().shards(1).build();
        for i in 0..50usize {
            let key = s(&[i, i + 2, i + 5]);
            let (a, _) = sharded.get_or_compute(&key, || vec![i as f64, 1.0]);
            let (b, _) = single.get_or_compute(&key, || vec![i as f64, 1.0]);
            assert_eq!(*a, *b);
        }
        assert_eq!(sharded.len(), single.len());
    }
}
