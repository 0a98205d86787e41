//! The fingerprint-keyed plan store with cost-aware eviction.
//!
//! A serving tier's cache is only as good as its eviction policy: plans are
//! wildly unequal in what they cost to recompute (a canonical-space
//! exhaustive MINPERIOD solve takes five orders of magnitude longer than a
//! tree-latency evaluation), so plain LRU happily evicts the one entry
//! worth keeping.  [`PlanStore`] therefore weighs every entry by the **wall
//! time its solve cost** and evicts cheapest-first, breaking ties by
//! recency — a 0.2 s exhaustive result outlives any number of millisecond
//! solves, and among equals the least recently used goes first.
//!
//! The store is keyed by [`PlanKey`]: the application's canonical
//! fingerprint ([`fsw_core::AppFingerprint`], content-complete — equal keys
//! *are* equal problems) plus communication model and objective.  Entries
//! hold plans over **canonical labels** behind an [`Arc`]: a hit hands out
//! the shared plan and copies nothing, and the service relabels it once per
//! tenant on the way out.
//!
//! What a stored plan costs: the `Arc` block (two counts plus the
//! [`StoredPlan`] record), the plan's [`ExecutionGraph`] — one flat block of
//! `2n + 2 + 2m` words, 192 bytes for a six-service forest — and the key's
//! fingerprint (16 bytes a service), plus the shard's hash-table slot.
//!
//! Since the async front end, the store is **sharded by fingerprint-digest
//! prefix**: the hit path takes only a shared (read) lock on one shard and
//! bumps recency through an atomic, so concurrent hits never serialise on
//! each other and a writer stuck in one shard cannot stall lookups in the
//! other fifteen.  Capacity and the eviction order remain *global*: the
//! victim is the cheapest entry across all shards, exactly as before
//! sharding, so the cache contents for a given operation sequence are
//! unchanged.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};

use fsw_core::{AppFingerprint, CommModel, ExecutionGraph};
use fsw_obs::{Counter, MetricsRegistry};
use fsw_sched::orchestrator::Objective;

/// Number of fingerprint-prefix shards (power of two).
pub const STORE_SHARDS: usize = 16;

/// The identity of a planning problem: *what* is solved for *whom*.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Canonical identity of the application (content-complete; see
    /// [`fsw_core::AppFingerprint`]).
    pub fingerprint: AppFingerprint,
    /// The communication model of the request.
    pub model: CommModel,
    /// The objective of the request.
    pub objective: Objective,
}

/// A cached plan, over the canonical labelling of its fingerprint.
#[derive(Clone, Debug)]
pub struct StoredPlan {
    /// The objective value (bit-identical to a cold solve of any
    /// application sharing the fingerprint, by the collapse gate).
    pub value: f64,
    /// The winning execution graph over canonical labels.
    pub graph: ExecutionGraph,
    /// Whether the solve was exhaustive for its budget.
    pub exhaustive: bool,
    /// Wall time the solve cost, in microseconds — the eviction weight.
    pub solve_micros: u64,
}

struct Entry {
    plan: Arc<StoredPlan>,
    /// Logical time of the last hit (eviction tie-break); atomic so the
    /// hit path can refresh it under a shared lock.
    last_used: AtomicU64,
    /// Logical time of insertion (deterministic final tie-break).
    stamp: u64,
}

/// Counters of one [`PlanStore`]'s lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Lookups answered from the store.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries evicted by the cost-aware policy.
    pub evictions: usize,
    /// Entries currently held.
    pub len: usize,
}

type Shard = RwLock<HashMap<PlanKey, Entry>>;

/// A bounded, concurrent, fingerprint-keyed plan cache (see the module
/// docs for the eviction policy and sharding).
pub struct PlanStore {
    capacity: usize,
    shards: Vec<Shard>,
    /// Unstored recomputation cost owed per key: wall micros burnt by
    /// degraded (non-exhaustive) attempts that produced no cache entry.
    /// Folded into the eviction weight when the exact re-solve finally
    /// publishes — the weight stands for *what it costs to get this entry
    /// back*, and that includes the failed attempts on the way.  Holds at
    /// most `capacity` keys.
    attempt_debt: Mutex<HashMap<PlanKey, u64>>,
    clock: AtomicU64,
    len: AtomicUsize,
    /// `store.hits`, `store.misses` and `store.evictions`: counted once,
    /// in the registry the owning service resolved them from (standalone
    /// counters for a store built with [`PlanStore::new`]).
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    evictions: Arc<Counter>,
}

impl PlanStore {
    /// A fresh store holding at most `capacity` plans (`capacity >= 1`).
    pub fn new(capacity: usize) -> Self {
        PlanStore {
            capacity: capacity.max(1),
            shards: (0..STORE_SHARDS)
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            attempt_debt: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
            len: AtomicUsize::new(0),
            hits: Arc::default(),
            misses: Arc::default(),
            evictions: Arc::default(),
        }
    }

    /// Maximum number of plans the store holds.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Moves the store counters into `registry` (`store.hits`,
    /// `store.misses`, `store.evictions`), carrying over what they counted.
    pub(crate) fn count_into(&mut self, registry: &MetricsRegistry) {
        for (counter, name) in [
            (&mut self.hits, "store.hits"),
            (&mut self.misses, "store.misses"),
            (&mut self.evictions, "store.evictions"),
        ] {
            let moved = registry.counter(name);
            moved.add(counter.get());
            *counter = moved;
        }
    }

    /// Which shard `key` lives in: the low bits of the fingerprint digest.
    fn shard_index(key: &PlanKey) -> usize {
        (key.fingerprint.digest() as usize) & (STORE_SHARDS - 1)
    }

    fn read_shard(&self, key: &PlanKey) -> RwLockReadGuard<'_, HashMap<PlanKey, Entry>> {
        self.shards[Self::shard_index(key)]
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn write_shard(&self, idx: usize) -> RwLockWriteGuard<'_, HashMap<PlanKey, Entry>> {
        self.shards[idx]
            .write()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Looks `key` up, refreshing its recency on a hit.  Hit path: one
    /// shared lock on the key's shard, recency bumped through an atomic —
    /// concurrent hits (even on the same shard) never wait on each other —
    /// and the held plan handed out as a shared [`Arc`]: a hit allocates
    /// and copies nothing.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<StoredPlan>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        let shard = self.read_shard(key);
        match shard.get(key) {
            Some(entry) => {
                entry.last_used.store(now, Ordering::Relaxed);
                self.hits.inc();
                Some(Arc::clone(&entry.plan))
            }
            None => {
                self.misses.inc();
                None
            }
        }
    }

    /// Records wall time burnt on `key` by an attempt that produced no
    /// cache entry (a degraded, non-exhaustive solve).  The debt is folded
    /// into the eviction weight when the exact re-solve finally
    /// [`insert`](Self::insert)s: recomputing the entry from scratch means
    /// paying for the failed attempts again too.  At most
    /// [`capacity`](Self::capacity) keys owe a debt: a new key beyond that
    /// clears the ledger wholesale first (a debt only weighs eviction, so
    /// dropping one costs a cheaper-looking entry, never a wrong answer).
    pub fn record_attempt_cost(&self, key: &PlanKey, micros: u64) {
        let mut debts = self
            .attempt_debt
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(debt) = debts.get_mut(key) {
            *debt += micros;
            return;
        }
        if debts.len() >= self.capacity {
            debts.clear();
        }
        debts.insert(key.clone(), micros);
    }

    /// Inserts (or refreshes) a plan, then evicts down to capacity:
    /// smallest `solve_micros` first, least recently used among equals,
    /// oldest insertion as the deterministic final tie-break.  The freshly
    /// inserted entry competes like any other — a cheap plan does not
    /// displace an expensive one even when it is newer.  Refreshing an
    /// existing key keeps the **larger** of the old and new eviction
    /// weights: a warm re-plan that re-derives a fingerprint in a
    /// millisecond must not demote the 0.2 s cold solve whose recomputation
    /// cost the weight stands for.  Any attempt debt recorded for the key
    /// ([`record_attempt_cost`](Self::record_attempt_cost)) is added on
    /// top before the comparison.
    pub fn insert(&self, key: PlanKey, mut plan: StoredPlan) {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        {
            let mut debts = self
                .attempt_debt
                .lock()
                .unwrap_or_else(|poison| poison.into_inner());
            if let Some(debt) = debts.remove(&key) {
                plan.solve_micros = plan.solve_micros.saturating_add(debt);
            }
        }
        let idx = Self::shard_index(&key);
        {
            let mut shard = self.write_shard(idx);
            if let Some(existing) = shard.get(&key) {
                plan.solve_micros = plan.solve_micros.max(existing.plan.solve_micros);
            } else {
                self.len.fetch_add(1, Ordering::Relaxed);
            }
            shard.insert(
                key,
                Entry {
                    plan: Arc::new(plan),
                    last_used: AtomicU64::new(now),
                    stamp: now,
                },
            );
        }
        while self.len.load(Ordering::Relaxed) > self.capacity {
            if !self.evict_one() {
                break;
            }
        }
    }

    /// Removes the globally cheapest entry.  Scans shards under shared
    /// locks for the victim's rank and shard, then removes it under that
    /// shard's write lock by its insertion stamp, which no other entry
    /// shares (if the entry was refreshed or removed meanwhile, nothing
    /// matches and the scan reruns).  Deterministic for a serialised
    /// operation sequence: the victim order is identical to the
    /// pre-sharding single-map scan.
    fn evict_one(&self) -> bool {
        loop {
            let mut victim: Option<((u64, u64, u64), usize)> = None;
            for (idx, lock) in self.shards.iter().enumerate() {
                let shard = lock.read().unwrap_or_else(|poison| poison.into_inner());
                for entry in shard.values() {
                    let rank = (
                        entry.plan.solve_micros,
                        entry.last_used.load(Ordering::Relaxed),
                        entry.stamp,
                    );
                    if victim.is_none_or(|(best, _)| rank < best) {
                        victim = Some((rank, idx));
                    }
                }
            }
            let Some(((_, _, stamp), idx)) = victim else {
                return false;
            };
            let mut shard = self.write_shard(idx);
            let before = shard.len();
            shard.retain(|_, entry| entry.stamp != stamp);
            if shard.len() < before {
                self.len.fetch_sub(1, Ordering::Relaxed);
                self.evictions.inc();
                return true;
            }
        }
    }

    /// Number of held entries whose plan is **not** exhaustive.  The
    /// service's store-purity invariant says this is always zero (degraded
    /// plans are never cached); the fault-injection harness asserts it.
    pub fn non_exhaustive_len(&self) -> usize {
        self.shards
            .iter()
            .map(|lock| {
                lock.read()
                    .unwrap_or_else(|poison| poison.into_inner())
                    .values()
                    .filter(|entry| !entry.plan.exhaustive)
                    .count()
            })
            .sum()
    }

    /// Lifetime counters plus the current size.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
            evictions: self.evictions.get() as usize,
            len: self.len.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsw_core::{Application, CanonicalApplication};

    fn key_of(specs: &[(f64, f64)]) -> PlanKey {
        let app = Application::independent(specs);
        PlanKey {
            fingerprint: CanonicalApplication::of(&app).fingerprint,
            model: CommModel::Overlap,
            objective: Objective::MinPeriod,
        }
    }

    fn plan(value: f64, micros: u64) -> StoredPlan {
        StoredPlan {
            value,
            graph: ExecutionGraph::new(2),
            exhaustive: true,
            solve_micros: micros,
        }
    }

    #[test]
    fn get_insert_roundtrip_and_stats() {
        let store = PlanStore::new(4);
        let key = key_of(&[(1.0, 0.5), (2.0, 0.5)]);
        assert!(store.get(&key).is_none());
        store.insert(key.clone(), plan(7.0, 100));
        let hit = store.get(&key).expect("inserted");
        assert_eq!(hit.value, 7.0);
        assert_eq!(hit.solve_micros, 100);
        let stats = store.stats();
        assert_eq!((stats.hits, stats.misses, stats.len), (1, 1, 1));
    }

    #[test]
    fn hits_share_the_held_plan() {
        let store = PlanStore::new(4);
        let key = key_of(&[(1.0, 0.5), (2.0, 0.5)]);
        store.insert(key.clone(), plan(7.0, 100));
        let first = store.get(&key).expect("inserted");
        let second = store.get(&key).expect("inserted");
        assert!(Arc::ptr_eq(&first, &second), "a hit copies no plan");
        assert_eq!(Arc::strong_count(&first), 3, "the store and two hits");
    }

    #[test]
    fn eviction_is_cost_aware() {
        // Capacity 2: one expensive entry plus a stream of cheap ones — the
        // expensive entry must survive every eviction round, even though it
        // is the oldest and least recently used.
        let store = PlanStore::new(2);
        let expensive = key_of(&[(9.0, 0.9), (9.0, 0.9)]);
        store.insert(expensive.clone(), plan(1.0, 200_000));
        for i in 0..5u32 {
            let cheap = key_of(&[(1.0 + f64::from(i), 0.5)]);
            store.insert(cheap, plan(2.0, 50 + u64::from(i)));
        }
        assert!(store.get(&expensive).is_some(), "expensive entry evicted");
        let stats = store.stats();
        assert_eq!(stats.len, 2);
        assert_eq!(stats.evictions, 4);
    }

    #[test]
    fn refreshing_a_key_never_demotes_its_eviction_weight() {
        let store = PlanStore::new(2);
        let expensive = key_of(&[(9.0, 0.9), (9.0, 0.9)]);
        store.insert(expensive.clone(), plan(1.0, 200_000));
        // A cheap re-publish of the same fingerprint (e.g. a warm re-plan
        // that re-derived it in a millisecond) keeps the cold-solve weight.
        store.insert(expensive.clone(), plan(1.0, 1_500));
        for i in 0..4u32 {
            store.insert(key_of(&[(1.0 + f64::from(i), 0.5)]), plan(2.0, 50));
        }
        assert!(
            store.get(&expensive).is_some(),
            "a cheap refresh must not demote the entry under eviction"
        );
    }

    #[test]
    fn recency_breaks_cost_ties() {
        let store = PlanStore::new(2);
        let a = key_of(&[(1.0, 0.1)]);
        let b = key_of(&[(2.0, 0.2)]);
        let c = key_of(&[(3.0, 0.3)]);
        store.insert(a.clone(), plan(1.0, 100));
        store.insert(b.clone(), plan(2.0, 100));
        // Touch `a`: `b` becomes the least recently used of the equal-cost
        // pair and must be the victim.
        assert!(store.get(&a).is_some());
        store.insert(c.clone(), plan(3.0, 100));
        assert!(store.get(&a).is_some());
        assert!(store.get(&b).is_none());
        assert!(store.get(&c).is_some());
    }

    #[test]
    fn degraded_then_exact_upgrade_refreshes_eviction_weight() {
        // Regression: a degraded attempt burns real wall time but stores
        // nothing, so the eventual exact re-solve used to carry only its
        // own (possibly small) solve time as the eviction weight — the
        // wasted attempt was invisible to the policy and the entry was
        // evicted as "cheap" even though recomputing it means paying for
        // the failed attempt again.  The debt recorded via
        // `record_attempt_cost` must be folded into the weight on insert.
        let store = PlanStore::new(2);
        let upgraded = key_of(&[(9.0, 0.9), (9.0, 0.9)]);
        // Degraded attempt: 150 ms burnt, nothing stored.
        store.record_attempt_cost(&upgraded, 150_000);
        // Exact re-solve lands quickly (warm cache): 40 µs of its own.
        store.insert(upgraded.clone(), plan(1.0, 40));
        let weight = store.get(&upgraded).expect("inserted").solve_micros;
        assert_eq!(weight, 150_040, "attempt debt folded into the weight");
        // The upgraded entry must now survive a stream of mid-cost inserts
        // that would have evicted a 40 µs entry immediately.
        for i in 0..4u32 {
            store.insert(key_of(&[(1.0 + f64::from(i), 0.5)]), plan(2.0, 5_000));
        }
        assert!(
            store.get(&upgraded).is_some(),
            "degraded-then-exact upgrade must carry the attempt cost"
        );
        // The debt is consumed by the first insert, not applied twice.
        store.insert(upgraded.clone(), plan(1.0, 40));
        assert_eq!(
            store.get(&upgraded).expect("present").solve_micros,
            150_040,
            "debt applies once; refresh keeps the max as before"
        );
    }

    #[test]
    fn attempt_debts_stay_within_the_store_capacity() {
        // Keys whose exact solve never lands must not pile up debts: at
        // most `capacity` keys owe one, and a new key beyond that clears
        // the ledger.
        const CAPACITY: usize = 4;
        const EXTRA: u32 = 3;
        let store = PlanStore::new(CAPACITY);
        let debts = || store.attempt_debt.lock().unwrap().len();
        let keys: Vec<PlanKey> = (0..CAPACITY as u32 + EXTRA)
            .map(|i| key_of(&[(1.0 + f64::from(i), 0.5)]))
            .collect();
        for key in &keys {
            store.record_attempt_cost(key, 1_000);
            assert!(debts() <= CAPACITY, "{} debts over {CAPACITY}", debts());
        }
        assert_eq!(debts(), EXTRA as usize, "the overflow cleared the ledger");
        // A key already owing accrues without clearing anything.
        store.record_attempt_cost(&keys[CAPACITY], 500);
        assert_eq!(debts(), EXTRA as usize);
        store.insert(keys[CAPACITY].clone(), plan(1.0, 40));
        assert_eq!(
            store.get(&keys[CAPACITY]).expect("inserted").solve_micros,
            1_540
        );
        // A cleared debt is gone: its key's insert carries its own weight.
        store.insert(keys[0].clone(), plan(1.0, 40));
        assert_eq!(store.get(&keys[0]).expect("inserted").solve_micros, 40);
    }

    #[test]
    fn sharded_reads_do_not_block_each_other() {
        // Smoke the concurrency story: many threads hammering `get` on a
        // populated store while one inserts — no deadlock, no lost entries.
        use std::sync::Arc;
        let store = Arc::new(PlanStore::new(64));
        let keys: Vec<PlanKey> = (0..16u32)
            .map(|i| key_of(&[(1.0 + f64::from(i), 0.5), (2.0, 0.25)]))
            .collect();
        for key in &keys {
            store.insert(key.clone(), plan(1.0, 1_000));
        }
        let mut handles = Vec::new();
        for t in 0..4usize {
            let store = Arc::clone(&store);
            let keys = keys.clone();
            handles.push(std::thread::spawn(move || {
                for round in 0..200usize {
                    let key = &keys[(t * 7 + round) % keys.len()];
                    assert!(store.get(key).is_some());
                }
            }));
        }
        for key in keys.iter().take(8) {
            store.insert(key.clone(), plan(1.0, 2_000));
        }
        for handle in handles {
            handle.join().expect("reader thread panicked");
        }
        assert_eq!(store.stats().len, 16);
    }
}
