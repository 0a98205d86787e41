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
//! *are* equal problems) plus communication model and objective.  Each
//! cached plan is one shared [`PlanRecord`]: its key, its recency and the
//! [`HeldPlan`] over **canonical labels**, whose graph is packed: a plan at
//! rest is only ever read whole, once per hit, so the store keeps the
//! sequential [`PackedGraph`] code instead of the random-access
//! [`ExecutionGraph`].  The table is a set of those records, each slot one
//! pointer hashed and compared by the record's key, so lookups by a
//! `&PlanKey` find it.  A hit hands out the shared record and copies
//! nothing, and the service decodes its graph once per tenant on the way
//! out, straight into the tenant's labels.
//!
//! What a stored plan costs: the record's `Arc` block (two counts, then
//! the 24-byte [`PlanKey`] — the fingerprint's slice pointer and length,
//! the model and the objective — the recency word and the [`HeldPlan`],
//! whose graph handle is 16 bytes), the plan's [`PackedGraph`] — `1 + 2m`
//! bytes below 128 services, 11 bytes for a six-service forest, where its
//! [`ExecutionGraph`] block takes 96 — and the key's fingerprint, one slice
//! of `1 + 2n` `u64` words for an unconstrained application (104 bytes at
//! six services), plus the table's slot: the record's pointer and a
//! control byte, counted twice for the table's spare room.  A six-service
//! forest plan holds about 221 bytes (`tests/serving_memory_bound.rs`; 255
//! when each slot held the key and an entry inline, 340 with the graph's
//! block).
//!
//! The store is **one table** behind a reader-writer lock: the hit path
//! takes the shared lock and bumps recency through an atomic, so
//! concurrent hits never serialise on each other, while an insert and the
//! evictions it causes run under one write lock.  One table keeps one
//! allocation sized for the plans held, where per-shard tables would each
//! keep the capacity of their fullest moment.  While the store fills, the
//! table grows by its own doubling.  Once it holds `capacity` plans, every
//! new key evicts one, and the evictions leave tombstones that use up its
//! spare room; once that is gone, the next new key rebuilds the table at
//! its size instead of doubling it, the records' pointers waiting in a
//! list meanwhile (2 KB at 256 plans).

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard};

use fsw_core::{AppFingerprint, CommModel, ExecutionGraph, PackedGraph};
use fsw_obs::{Counter, MetricsRegistry};
use fsw_sched::orchestrator::Objective;

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

/// A plan to cache, over the canonical labelling of its fingerprint:
/// [`PlanStore::insert`] packs it into a [`HeldPlan`].
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

/// A plan whose graph is packed ([`PackedGraph`]): what a cold solve hands
/// the store, and what a [`PlanRecord`] holds.
#[derive(Clone, Debug)]
pub struct HeldPlan {
    /// The objective value.
    pub value: f64,
    /// The winning execution graph over canonical labels, packed.
    pub graph: PackedGraph,
    /// Whether the solve was exhaustive for its budget.
    pub exhaustive: bool,
    /// Wall time the solve cost, in microseconds — the eviction weight.
    pub solve_micros: u64,
}

/// One cached plan, in the one shared block the table points at: its key,
/// its recency and the plan.  [`PlanStore::get`] hands it out.
#[derive(Debug)]
pub struct PlanRecord {
    /// The key the plan is stored under.
    key: PlanKey,
    /// Logical time of the insert or last hit (eviction tie-break); atomic
    /// so the hit path can refresh it under a shared lock.  Every `get`
    /// and `insert` takes its own clock tick, so no two held records share
    /// it.
    last_used: AtomicU64,
    /// The plan, its graph packed.
    pub plan: HeldPlan,
}

impl PlanRecord {
    fn last_used(&self) -> u64 {
        self.last_used.load(Ordering::Relaxed)
    }
}

/// A table slot: one pointer to a shared record, hashed and compared by
/// the record's key, so the table looks records up by `&PlanKey`.
struct Slot(Arc<PlanRecord>);

impl Borrow<PlanKey> for Slot {
    fn borrow(&self) -> &PlanKey {
        &self.0.key
    }
}

impl Hash for Slot {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.0.key.hash(state);
    }
}

impl PartialEq for Slot {
    fn eq(&self, other: &Self) -> bool {
        self.0.key == other.0.key
    }
}

impl Eq for Slot {}

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

/// A bounded, concurrent, fingerprint-keyed plan cache (see the module
/// docs for the eviction policy and locking).
pub struct PlanStore {
    capacity: usize,
    records: RwLock<HashSet<Slot>>,
    /// Unstored recomputation cost owed per key: wall micros burnt by
    /// degraded (non-exhaustive) attempts that produced no cache entry.
    /// Folded into the eviction weight when the exact re-solve finally
    /// publishes — the weight stands for *what it costs to get this entry
    /// back*, and that includes the failed attempts on the way.  Holds at
    /// most `capacity` keys.
    attempt_debt: Mutex<HashMap<PlanKey, u64>>,
    clock: AtomicU64,
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
            records: RwLock::new(HashSet::new()),
            attempt_debt: Mutex::new(HashMap::new()),
            clock: AtomicU64::new(0),
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

    fn read(&self) -> RwLockReadGuard<'_, HashSet<Slot>> {
        self.records
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Looks `key` up, refreshing its recency on a hit.  Hit path: the
    /// table's shared lock, recency bumped through an atomic — concurrent
    /// hits never wait on each other — and the record handed out as a
    /// shared [`Arc`]: a hit allocates and copies nothing.
    pub fn get(&self, key: &PlanKey) -> Option<Arc<PlanRecord>> {
        let now = self.clock.fetch_add(1, Ordering::Relaxed);
        match self.read().get(key) {
            Some(Slot(record)) => {
                record.last_used.store(now, Ordering::Relaxed);
                self.hits.inc();
                Some(Arc::clone(record))
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
    /// smallest `solve_micros` first, least recently used among equals
    /// (no two held records share a recency).  The freshly inserted record
    /// competes like any other — a cheap plan does not displace an
    /// expensive one even when it is newer.  Refreshing an existing key
    /// keeps the **larger** of the old and new eviction weights: a warm
    /// re-plan that re-derives a fingerprint in a millisecond must not
    /// demote the 0.2 s cold solve whose recomputation cost the weight
    /// stands for.  Any attempt debt recorded for the key
    /// ([`record_attempt_cost`](Self::record_attempt_cost)) is added on
    /// top before the comparison.  The insert and its evictions run under
    /// one write lock.  The store holds the plan as a [`HeldPlan`], its
    /// graph packed.
    pub fn insert(&self, key: PlanKey, plan: StoredPlan) {
        let StoredPlan {
            value,
            graph,
            exhaustive,
            solve_micros,
        } = plan;
        self.insert_held(
            key,
            HeldPlan {
                value,
                graph: PackedGraph::from(&graph),
                exhaustive,
                solve_micros,
            },
        );
    }

    /// [`insert`](Self::insert) for a plan whose graph is already packed:
    /// the event loop's cold solves arrive packed from the worker.  `key`
    /// moves into the plan's record.
    pub(crate) fn insert_held(&self, key: PlanKey, mut plan: HeldPlan) {
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
        let mut records = self
            .records
            .write()
            .unwrap_or_else(|poison| poison.into_inner());
        if let Some(Slot(existing)) = records.get(&key) {
            plan.solve_micros = plan.solve_micros.max(existing.plan.solve_micros);
        } else if records.len() >= self.capacity && records.len() == records.capacity() {
            // A full store evicts a record for every new key, and the
            // evictions leave tombstones that use up the table's spare
            // room: a new key would then double the table for good.
            // Rebuilding it for the held records clears them; their
            // pointers wait in a list meanwhile, not in a second table.
            let held: Vec<Slot> = records.drain().collect();
            records.shrink_to_fit();
            records.reserve(held.len() + 1);
            records.extend(held);
        }
        records.replace(Slot(Arc::new(PlanRecord {
            key,
            last_used: AtomicU64::new(now),
            plan,
        })));
        while records.len() > self.capacity {
            let Some((_, victim)) = records
                .iter()
                .map(|Slot(record)| (record.plan.solve_micros, record.last_used()))
                .min()
            else {
                break;
            };
            records.retain(|Slot(record)| record.last_used() != victim);
            self.evictions.inc();
        }
    }

    /// Number of held records whose plan is **not** exhaustive.  The
    /// service's store-purity invariant says this is always zero (degraded
    /// plans are never cached); the fault-injection harness asserts it.
    pub fn non_exhaustive_len(&self) -> usize {
        self.read()
            .iter()
            .filter(|Slot(record)| !record.plan.exhaustive)
            .count()
    }

    /// Lifetime counters plus the current size.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            hits: self.hits.get() as usize,
            misses: self.misses.get() as usize,
            evictions: self.evictions.get() as usize,
            len: self.read().len(),
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
            graph: ExecutionGraph::chain_of(2, &[0, 1]).unwrap(),
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
        assert_eq!(hit.key, key);
        assert_eq!(hit.plan.value, 7.0);
        assert_eq!(hit.plan.solve_micros, 100);
        assert_eq!(
            hit.plan.graph.relabelled(&[1, 0]),
            ExecutionGraph::chain_of(2, &[1, 0])
        );
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
        let weight = store.get(&upgraded).expect("inserted").plan.solve_micros;
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
            store.get(&upgraded).expect("present").plan.solve_micros,
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
            store
                .get(&keys[CAPACITY])
                .expect("inserted")
                .plan
                .solve_micros,
            1_540
        );
        // A cleared debt is gone: its key's insert carries its own weight.
        store.insert(keys[0].clone(), plan(1.0, 40));
        assert_eq!(store.get(&keys[0]).expect("inserted").plan.solve_micros, 40);
    }

    /// Churn at capacity leaves tombstones in the table: the store
    /// rebuilds it at its size rather than letting a new key double it.
    #[test]
    fn churn_at_capacity_never_grows_the_table() {
        const CAPACITY: usize = 64;
        let store = PlanStore::new(CAPACITY);
        let table = || store.records.read().unwrap().capacity();
        for i in 0..CAPACITY as u32 {
            store.insert(key_of(&[(1.0 + f64::from(i), 0.5)]), plan(1.0, 50));
        }
        let filled = table();
        for i in CAPACITY as u32..5_000 {
            store.insert(key_of(&[(1.0 + f64::from(i), 0.5)]), plan(1.0, 50));
            assert!(
                table() <= filled,
                "the table grew from {filled} to {} slots after {} evictions",
                table(),
                store.stats().evictions
            );
        }
        assert_eq!(store.stats().len, CAPACITY);
        // Equal weights evict the least recently used, so the rebuilt table
        // still finds the last `CAPACITY` keys by their `PlanKey`.
        for i in 5_000 - CAPACITY as u32..5_000 {
            let key = key_of(&[(1.0 + f64::from(i), 0.5)]);
            assert!(store.get(&key).is_some(), "key {i} was lost");
        }
    }

    #[test]
    fn concurrent_reads_do_not_block_each_other() {
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
