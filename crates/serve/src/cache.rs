//! The memoized structure cache.
//!
//! Materializing an abstract structure is the expensive step of every
//! verification — everything after it is graph traversal. The cache maps
//! `(workload, n, width)` to the materialized [`RepGraph`] bundle (the
//! Kripke structure *plus* its compiled fairness conditions, which are a
//! per-state artifact of the same exploration) behind an [`Arc`], so
//! concurrent jobs over the same family share one copy and repeated
//! queries are near-free. The counter structure is width 0; a
//! representative structure carries its number of tracked copies, so
//! structures of different widths of the same family never collide, and
//! one map, one weight and one LRU order serve them all.
//!
//! Identity is **exact**: a [`CacheKey`] carries the workload's
//! canonical bytes ([`WorkloadKey`], an injective encoding of template
//! and spec, fairness declarations included), so equal keys are equal
//! workloads and distinct workloads never share an entry. There are no
//! hash buckets and no second structural compare. (A verification
//! service must not return confidently wrong verdicts because two
//! workloads happened to share a hash.)
//!
//! Growth is **bounded, by weight**: an optional budget caps the total
//! abstract-state count across materialized entries
//! ([`GraphCache::new`]). When an insertion pushes the cache
//! over budget, least-recently-used entries are evicted until it fits.
//! The structure just built is exempt from its own insertion's eviction
//! pass (evicting it immediately would thrash the hot entry); the next
//! insertion may evict it. Outstanding [`Arc`] handles keep an evicted
//! structure alive until their holders drop it; eviction only forgets
//! the cache's copy. Weight is states, not entries — one `n = 10⁶`
//! counter structure outweighs thousands of small ones, which is exactly
//! how the memory footprint behaves. Recency is a logical clock stamped
//! on every lookup, and the resident weight is kept exactly, so LRU
//! order and the budget test are exact.
//!
//! Concurrency: one [`Mutex`] guards the map, the resident weight and
//! the clock, and is held only for a lookup or an eviction pass — never
//! for a build, and never while an evicted structure is freed (the pass
//! hands its victims back, and they drop after the unlock). Each entry
//! holds an [`OnceLock`] slot inserted *before* building: a second
//! worker requesting a structure mid-build finds the slot and blocks on
//! the `OnceLock` until the first build lands — every structure is built
//! **exactly once**, and builds of different structures proceed in
//! parallel.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use icstar_sym::{CountingSpec, GuardedTemplate, RepGraph, SymError, WorkloadKey};
use icstar_telemetry::{Counter, Registry};

use crate::spill::SpillStore;

/// The identity of one structure: the workload, its size, and its width
/// (0 = the counter structure).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// The template and spec, as their canonical bytes.
    pub workload: WorkloadKey,
    /// The family size.
    pub n: u32,
    /// Distinguished copies tracked by the structure: 0 for the counter
    /// structure, `k ≥ 1` for a width-`k` representative structure.
    pub width: u32,
}

impl CacheKey {
    /// The key of `template` with labeling `spec` at size `n` and
    /// width `width`.
    pub fn of(template: &GuardedTemplate, spec: &CountingSpec, n: u32, width: u32) -> Self {
        CacheKey {
            workload: WorkloadKey::of(template, spec),
            n,
            width,
        }
    }
}

/// A build-once slot: filled exactly once, then shared.
type Slot = Arc<OnceLock<Result<Arc<RepGraph>, SymError>>>;

/// One entry: its slot, when it was last returned (drives LRU eviction),
/// and its weight once its builder has accounted it — 0 while building
/// or after a build error, and only weighted entries are evictable.
struct Entry {
    slot: Slot,
    last_used: u64,
    weight: u64,
}

/// Everything the cache lock guards.
#[derive(Default)]
struct Memo {
    entries: HashMap<CacheKey, Entry>,
    /// Sum of the entries' weights.
    resident: u64,
    /// Logical clock stamping entry recency.
    clock: u64,
}

/// A bundle's eviction weight: abstract states of its structure (the
/// fairness conditions are per-state bit sets, proportional to it).
fn weight(g: &RepGraph) -> u64 {
    g.kripke.num_states() as u64
}

impl Memo {
    /// Removes least-recently-used weighted entries other than `keep`
    /// until the resident weight fits `budget`, and returns them so the
    /// caller frees them after unlocking.
    fn evict_over(&mut self, budget: u64, keep: &CacheKey) -> Vec<Entry> {
        let mut victims = Vec::new();
        if self.resident <= budget {
            return victims;
        }
        let mut lru: Vec<(u64, CacheKey)> = (self.entries.iter())
            .filter(|(key, e)| e.weight > 0 && *key != keep)
            .map(|(key, e)| (e.last_used, key.clone()))
            .collect();
        lru.sort_unstable_by_key(|&(stamp, _)| stamp);
        for (_, key) in lru {
            if self.resident <= budget {
                break;
            }
            let entry = self.entries.remove(&key).expect("listed above");
            self.resident -= entry.weight;
            victims.push(entry);
        }
        victims
    }
}

/// The service-wide structure cache: the structures of every width,
/// identified by [`CacheKey`], optionally bounded by an abstract-state
/// budget with LRU eviction.
pub struct GraphCache {
    memo: Mutex<Memo>,
    hits: Counter,
    misses: Counter,
    /// Maximum total abstract states across materialized entries;
    /// `u64::MAX` means unbounded.
    budget_states: u64,
    evictions: Counter,
    evicted_states: Counter,
    /// Optional disk persistence: probed before building on a memory
    /// miss, written after every successful build. `None` (the default)
    /// keeps the cache purely in-memory.
    store: Option<SpillStore>,
}

impl GraphCache {
    /// A cache evicting least-recently-used structures once the total
    /// abstract-state count of materialized entries exceeds
    /// `budget_states` (a budget of 0 caches nothing durably: every
    /// insertion evicts the one before it; pass `u64::MAX` for
    /// unbounded), backed by an optional [`SpillStore`]: memory misses
    /// probe the store before building (a verified restore skips the
    /// exploration entirely — this is how restarts and replicas
    /// warm-start), and every successful build is spilled back. Memory
    /// hit/miss accounting is unchanged: a disk restore still counts as a
    /// cache miss, with the `serve.cache.restores` counter recording that
    /// the rebuild was answered from disk. Spilled files survive LRU
    /// eviction, so an evicted structure's next request restores instead
    /// of re-exploring.
    pub fn new(budget_states: u64, store: Option<SpillStore>) -> Self {
        GraphCache {
            memo: Mutex::default(),
            hits: Counter::detached(),
            misses: Counter::detached(),
            budget_states,
            evictions: Counter::detached(),
            evicted_states: Counter::detached(),
            store,
        }
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.memo.lock().expect("cache lock poisoned")
    }

    /// Publishes the cache's counters into `registry` under the
    /// `serve.cache.*` names — the same handles the cache updates, so
    /// the registry view and the [`GraphCache::hits`]-style accessors
    /// can never disagree. [`VerifyService`](crate::VerifyService) calls
    /// this on its own cache at start.
    pub fn publish_metrics(&self, registry: &Registry) {
        registry.adopt_counter("serve.cache.hits", &self.hits);
        registry.adopt_counter("serve.cache.misses", &self.misses);
        registry.adopt_counter("serve.cache.evictions", &self.evictions);
        registry.adopt_counter("serve.cache.evicted_states", &self.evicted_states);
        if let Some(store) = &self.store {
            let (spills, restores, rejects) = store.counters();
            registry.adopt_counter("serve.cache.spills", spills);
            registry.adopt_counter("serve.cache.restores", restores);
            registry.adopt_counter("serve.cache.restore_rejects", rejects);
            registry
                .gauge("serve.cache.spill_files_warm")
                .set(store.warm_files().min(i64::MAX as u64) as i64);
        }
    }

    /// The structure bundle (structure + compiled fairness) under `key`
    /// — the counter structure at width 0 — building it with `build` on
    /// the first request and sharing the result afterwards. Build
    /// failures (e.g. [`SymError::BadRepWidth`]) are cached and replayed
    /// like successes, under their own key, so they never poison another
    /// width. With a [`SpillStore`] attached, a memory miss probes the
    /// disk first (a verified restore skips `build`) and a fresh build
    /// is spilled back.
    ///
    /// # Errors
    ///
    /// Whatever `build` returned when the slot was first filled.
    pub fn get(
        &self,
        key: &CacheKey,
        build: impl FnOnce() -> Result<RepGraph, SymError>,
    ) -> Result<Arc<RepGraph>, SymError> {
        let (slot, created) = {
            let mut memo = self.memo();
            memo.clock += 1;
            let now = memo.clock;
            match memo.entries.get_mut(key) {
                Some(entry) => {
                    entry.last_used = now;
                    (Arc::clone(&entry.slot), false)
                }
                None => {
                    let slot = Slot::default();
                    let entry = Entry {
                        slot: Arc::clone(&slot),
                        last_used: now,
                        weight: 0,
                    };
                    memo.entries.insert(key.clone(), entry);
                    (slot, true)
                }
            }
        };
        // Either already materialized or being materialized by a peer
        // right now — both share the work, both are hits.
        if created { &self.misses } else { &self.hits }.inc();
        // Whichever caller fills the slot accounts its weight: usually
        // the one that created the entry, but a peer when that caller's
        // build panicked and left the slot empty.
        let mut filled = false;
        let out = slot
            .get_or_init(|| {
                filled = true;
                let store = self.store.as_ref();
                let graph = match store.and_then(|s| s.restore(key)) {
                    Some(g) => g,
                    None => {
                        let g = build()?;
                        if let Some(store) = store {
                            store.spill(key, &g);
                        }
                        g
                    }
                };
                Ok(Arc::new(graph))
            })
            .clone();
        // Only an accounted entry counts toward the budget, so only now
        // can the cache go over it.
        if let (true, Ok(g)) = (filled, &out) {
            let victims = {
                let mut memo = self.memo();
                let w = weight(g);
                if let Some(entry) = memo.entries.get_mut(key) {
                    entry.weight = w;
                    memo.resident += w;
                }
                memo.evict_over(self.budget_states, key)
            };
            for victim in &victims {
                self.evictions.inc();
                self.evicted_states.add(victim.weight);
            }
        }
        out
    }

    /// Requests answered from an existing (or in-flight) slot.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Requests that had to build.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Entries evicted to fit the abstract-state budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.get()
    }

    /// Total abstract states carried by evicted entries — together with
    /// [`GraphCache::evictions`], the pressure signal an operator tunes
    /// the budget by.
    pub fn evicted_states(&self) -> u64 {
        self.evicted_states.get()
    }

    /// Number of cached structures, of every width.
    pub fn len(&self) -> usize {
        self.memo().entries.len()
    }

    /// Total abstract states held by the cache, across all materialized
    /// structures. Slots whose build is still in flight (or failed)
    /// contribute nothing.
    ///
    /// Together with [`GraphCache::len`] this is the occupancy signal an
    /// operator needs to size an eviction budget: `len` says how many
    /// families are resident, `abstract_states` how much memory-shaped
    /// weight they carry (states dominate the footprint).
    pub fn abstract_states(&self) -> u64 {
        self.memo().resident
    }

    /// Whether nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The disk persistence layer, when one is attached
    /// ([`GraphCache::new`]) — its spill/restore/reject counters
    /// are the warm-start observability surface.
    pub fn spill_store(&self) -> Option<&SpillStore> {
        self.store.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use icstar_sym::{mutex_template, SymEngine};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn std_spec() -> CountingSpec {
        CountingSpec::standard(&mutex_template())
    }

    /// The counter structure through the cache: width 0.
    fn counter(
        cache: &GraphCache,
        t: &GuardedTemplate,
        s: &CountingSpec,
        n: u32,
        build: impl FnOnce() -> RepGraph,
    ) -> Arc<RepGraph> {
        cache
            .get(&CacheKey::of(t, s, n, 0), || Ok(build()))
            .unwrap()
    }

    #[test]
    fn second_request_is_a_hit_and_shares_the_arc() {
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = counter(&cache, &t, &s, 5, || engine.counter_graph(5));
        let b = counter(&cache, &t, &s, 5, || unreachable!("must not rebuild"));
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_sizes_are_distinct_entries() {
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = counter(&cache, &t, &s, 3, || engine.counter_graph(3));
        let b = counter(&cache, &t, &s, 4, || engine.counter_graph(4));
        assert_ne!(a.kripke.num_states(), b.kripke.num_states());
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn distinct_widths_are_distinct_entries() {
        // The regression the width key exists for: depth-1 and depth-2
        // representative structures of the *same* (template, spec, n)
        // must never collide — a collision would answer nested queries
        // on a structure that tracks too few copies.
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let r1 = cache
            .get(&CacheKey::of(&t, &s, 6, 1), || {
                engine.representative_graph(6, 1)
            })
            .unwrap();
        let r2 = cache
            .get(&CacheKey::of(&t, &s, 6, 2), || {
                engine.representative_graph(6, 2)
            })
            .unwrap();
        assert!(!Arc::ptr_eq(&r1, &r2));
        assert_eq!(r1.kripke.indices(), &[1]);
        assert_eq!(r2.kripke.indices(), &[1, 2]);
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // And each width hits its own entry afterwards.
        let r1b = cache
            .get(&CacheKey::of(&t, &s, 6, 1), || unreachable!("cached"))
            .unwrap();
        assert!(Arc::ptr_eq(&r1, &r1b));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn bad_width_error_cannot_poison_the_width_one_entry() {
        // Regression: a nonsensical width-(n + 1) request caches its
        // BadRepWidth error under its *own* key; the legitimate width-1
        // structure must still build and be served.
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let err = cache
            .get(&CacheKey::of(&t, &s, 6, 7), || {
                engine.representative_graph(6, 7)
            })
            .unwrap_err();
        assert!(matches!(err, icstar_sym::SymError::BadRepWidth { .. }));
        let r1 = cache
            .get(&CacheKey::of(&t, &s, 6, 1), || {
                engine.representative_graph(6, 1)
            })
            .unwrap();
        assert_eq!(r1.kripke.indices(), &[1]);
        assert_eq!(cache.misses(), 2, "separate entries, no poisoning");
    }

    #[test]
    fn pinned_over_budget_state_unpins_on_the_next_insertion() {
        // A lone oversized entry pins the cache over budget (nothing
        // evictable); the next insertion must clear the pin so eviction
        // resumes.
        let cache = GraphCache::new(10, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let _a = counter(&cache, &t, &s, 30, || engine.counter_graph(30));
        // Hits while pinned stay cheap and evict nothing.
        for _ in 0..3 {
            let _ = counter(&cache, &t, &s, 30, || unreachable!("cached"));
        }
        assert_eq!(cache.evictions(), 0);
        // A new entry supersedes the pinned one: the old entry goes.
        let _b = counter(&cache, &t, &s, 40, || engine.counter_graph(40));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn a_slot_filled_after_a_panicked_build_is_weighed_and_evictable() {
        // The creating caller's build panics and leaves the slot empty;
        // the caller that fills it later must account the weight, or the
        // entry would sit outside the budget forever.
        let cache = GraphCache::new(50, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            counter(&cache, &t, &s, 20, || panic!("build failed"))
        }));
        assert!(panicked.is_err());
        assert_eq!(cache.abstract_states(), 0);
        let _a = counter(&cache, &t, &s, 20, || engine.counter_graph(20));
        assert_eq!(cache.abstract_states(), 41);
        // n = 22 (45 states) pushes the total to 86 > 50: n = 20 goes.
        let _b = counter(&cache, &t, &s, 22, || engine.counter_graph(22));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.evicted_states(), 41);
        assert_eq!(cache.abstract_states(), 45);
    }

    #[test]
    fn structurally_different_workloads_never_share_a_slot() {
        // A differing template or spec must build its own structure.
        let cache = GraphCache::new(u64::MAX, None);
        let t = mutex_template();
        let s1 = std_spec();
        let s2 = CountingSpec::new().with_zero("crit");
        let e1 = SymEngine::with_spec(t.clone(), s1.clone());
        let e2 = SymEngine::with_spec(t.clone(), s2.clone());
        let a = counter(&cache, &t, &s1, 4, || e1.counter_graph(4));
        let b = counter(&cache, &t, &s2, 4, || e2.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn fairness_declarations_are_part_of_the_workload_identity() {
        // A fair template and its unconstrained twin are different
        // workloads: their bundles carry different compiled fairness, so
        // sharing an entry would answer fair liveness queries against
        // unconstrained paths (or vice versa).
        use icstar_sym::GuardedBuilder;
        let stutter = |fair: bool| {
            let mut b = GuardedBuilder::new();
            let idle = b.state("idle", ["idle"]);
            let done = b.state("done", ["done"]);
            b.edge(idle, idle);
            b.edge(idle, done);
            b.edge(done, done);
            if fair {
                b.fair("exit", [(idle, done)]);
            }
            b.build(idle)
        };
        let plain = stutter(false);
        let fair = stutter(true);
        assert_ne!(
            WorkloadKey::of(&plain, &CountingSpec::standard(&plain)),
            WorkloadKey::of(&fair, &CountingSpec::standard(&plain)),
            "fairness must be part of the key"
        );
        let cache = GraphCache::new(u64::MAX, None);
        let spec = CountingSpec::standard(&plain);
        let ep = SymEngine::with_spec(plain.clone(), spec.clone());
        let ef = SymEngine::with_spec(fair.clone(), spec.clone());
        let a = counter(&cache, &plain, &spec, 4, || ep.counter_graph(4));
        let b = counter(&cache, &fair, &spec, 4, || ef.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert!(a.fairness.is_empty());
        assert!(!b.fairness.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
    }

    #[test]
    fn broadcast_response_maps_never_collide_in_the_cache() {
        // Regression: workload keys must incorporate broadcast moves.
        // Two templates differing *only* in a broadcast response map are
        // different workloads — they must get distinct keys and each
        // must build its own structure (two misses, no hit).
        use icstar_sym::GuardedBuilder;
        let with_response = |resp: u32| {
            let mut b = GuardedBuilder::new();
            let a = b.state("a", ["a"]);
            let c = b.state("c", ["c"]);
            let d = b.state("d", ["d"]);
            b.edge(a, c);
            b.edge(c, a);
            b.edge(d, d);
            b.broadcast(a, d, [(c, resp)]);
            b.build(a)
        };
        let t1 = with_response(0);
        let t2 = with_response(2);
        assert_ne!(
            WorkloadKey::of(&t1, &CountingSpec::standard(&t1)),
            WorkloadKey::of(&t2, &CountingSpec::standard(&t1)),
            "response maps must be part of the key"
        );
        let cache = GraphCache::new(u64::MAX, None);
        let spec = CountingSpec::standard(&t1);
        let e1 = SymEngine::with_spec(t1.clone(), spec.clone());
        let e2 = SymEngine::with_spec(t2.clone(), spec.clone());
        let a = counter(&cache, &t1, &spec, 4, || e1.counter_graph(4));
        let b = counter(&cache, &t2, &spec, 4, || e2.counter_graph(4));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        // And asking again for each is a hit on its own entry.
        let a2 = counter(&cache, &t1, &spec, 4, || unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &a2));
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn abstract_states_sum_over_materialized_entries() {
        let cache = GraphCache::new(u64::MAX, None);
        assert_eq!(cache.abstract_states(), 0);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = counter(&cache, &t, &s, 5, || engine.counter_graph(5));
        let b = counter(&cache, &t, &s, 9, || engine.counter_graph(9));
        assert_eq!(
            cache.abstract_states(),
            (a.kripke.num_states() + b.kripke.num_states()) as u64
        );
        // A cached build *error* occupies an entry but weighs nothing.
        let _ = cache.get(&CacheKey::of(&t, &s, 0, 1), || {
            engine.representative_graph(0, 1)
        });
        assert_eq!(cache.len(), 3);
        assert_eq!(
            cache.abstract_states(),
            (a.kripke.num_states() + b.kripke.num_states()) as u64
        );
    }

    #[test]
    fn representative_errors_are_cached() {
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let e1 = cache
            .get(&CacheKey::of(&t, &s, 0, 1), || {
                engine.representative_graph(0, 1)
            })
            .unwrap_err();
        let e2 = cache
            .get(&CacheKey::of(&t, &s, 0, 1), || unreachable!("cached error"))
            .unwrap_err();
        assert_eq!(e1, e2);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        // mutex counter graphs have 2n + 1 states. Budget 100: n = 20
        // (41) + n = 22 (45) fit; adding n = 24 (49) must evict — and the
        // victim is the stalest entry, not the newcomer.
        let cache = GraphCache::new(100, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let a = counter(&cache, &t, &s, 20, || engine.counter_graph(20));
        let _b = counter(&cache, &t, &s, 22, || engine.counter_graph(22));
        // Touch n = 20 so n = 22 is now the LRU entry.
        let a2 = counter(&cache, &t, &s, 20, || unreachable!("cached"));
        assert!(Arc::ptr_eq(&a, &a2));
        let _c = counter(&cache, &t, &s, 24, || engine.counter_graph(24));
        assert_eq!(cache.evictions(), 1);
        assert_eq!(cache.evicted_states(), 45, "n = 22 was evicted");
        assert!(cache.abstract_states() <= 100);
        // n = 20 survived (a hit), n = 22 must rebuild (a miss).
        let misses_before = cache.misses();
        let _ = counter(&cache, &t, &s, 20, || unreachable!("still cached"));
        let _ = counter(&cache, &t, &s, 22, || engine.counter_graph(22));
        assert_eq!(cache.misses(), misses_before + 1);
    }

    #[test]
    fn budget_never_evicts_the_structure_just_built() {
        // A single structure larger than the whole budget stays resident
        // (evicting it would return an Arc the cache just forgot, and the
        // next request would rebuild — thrashing); it is evicted as soon
        // as another insertion supersedes it.
        let cache = GraphCache::new(10, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let _a = counter(&cache, &t, &s, 30, || engine.counter_graph(30));
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 1);
        let _b = counter(&cache, &t, &s, 40, || engine.counter_graph(40));
        assert_eq!(cache.evictions(), 1, "the older oversized entry goes");
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn eviction_spans_counter_and_representative_entries() {
        let cache = GraphCache::new(60, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        // Rep at n = 10 (width 1): mutex rep has ~4n states; counter at
        // n = 20 has 41. Together they exceed 60, so the rep (older) is
        // evicted when the counter lands.
        let rep = cache
            .get(&CacheKey::of(&t, &s, 10, 1), || {
                engine.representative_graph(10, 1)
            })
            .unwrap();
        let rep_states = rep.kripke.kripke().num_states() as u64;
        let _c = counter(&cache, &t, &s, 20, || engine.counter_graph(20));
        assert!(cache.evictions() >= 1);
        assert_eq!(cache.evicted_states(), rep_states);
        // The evicted Arc is still alive for its holder.
        assert!(rep.kripke.kripke().num_states() > 0);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = GraphCache::new(u64::MAX, None);
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        for n in 1..=30u32 {
            let _ = counter(&cache, &t, &s, n, || engine.counter_graph(n));
        }
        assert_eq!(cache.evictions(), 0);
        assert_eq!(cache.len(), 30);
    }

    #[test]
    fn concurrent_requests_build_once() {
        let cache = Arc::new(GraphCache::new(u64::MAX, None));
        let engine = Arc::new(SymEngine::new(mutex_template()));
        let builds = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let engine = Arc::clone(&engine);
                let builds = Arc::clone(&builds);
                scope.spawn(move || {
                    counter(&cache, &mutex_template(), &std_spec(), 50, || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        engine.counter_graph(50)
                    })
                });
            }
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "exactly one build");
        assert_eq!(cache.hits() + cache.misses(), 8);
        assert_eq!(cache.misses(), 1);
    }

    fn temp_store(tag: &str) -> (std::path::PathBuf, SpillStore) {
        let dir = std::env::temp_dir().join(format!(
            "icstar-cache-{}-{}-{tag}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let store = SpillStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn spilled_structures_restore_across_cache_instances() {
        let (dir, store) = temp_store("across");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let built = {
            let cache = GraphCache::new(u64::MAX, Some(store));
            let g = counter(&cache, &t, &s, 8, || engine.counter_graph(8));
            assert_eq!(cache.spill_store().unwrap().spills(), 1);
            g.kripke.num_states()
        };
        // A fresh cache over the same directory — the restart/replica
        // case — restores from disk: the build closure must never run.
        let cache = GraphCache::new(u64::MAX, Some(SpillStore::open(&dir).unwrap()));
        let g = counter(&cache, &t, &s, 8, || unreachable!("must restore from disk"));
        assert_eq!(g.kripke.num_states(), built);
        assert_eq!(cache.spill_store().unwrap().restores(), 1);
        // Still a memory miss — restore is a faster rebuild, not a hit.
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn evicted_entries_restore_from_disk_not_rebuild() {
        let (dir, store) = temp_store("evict");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        // Budget fits one mutex counter graph at a time (2n + 1 states).
        let cache = GraphCache::new(50, Some(store));
        let _a = counter(&cache, &t, &s, 20, || engine.counter_graph(20));
        let _b = counter(&cache, &t, &s, 22, || engine.counter_graph(22));
        assert!(cache.evictions() >= 1, "n = 20 was evicted");
        // Re-requesting the evicted entry restores the spilled file
        // instead of re-exploring.
        let _a2 = counter(&cache, &t, &s, 20, || {
            unreachable!("must restore from disk")
        });
        assert_eq!(cache.spill_store().unwrap().restores(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rep_errors_are_not_spilled() {
        let (dir, store) = temp_store("errs");
        let engine = SymEngine::new(mutex_template());
        let (t, s) = (mutex_template(), std_spec());
        let cache = GraphCache::new(u64::MAX, Some(store));
        let _ = cache
            .get(&CacheKey::of(&t, &s, 0, 1), || {
                engine.representative_graph(0, 1)
            })
            .unwrap_err();
        assert_eq!(cache.spill_store().unwrap().spills(), 0);
        let ok = cache
            .get(&CacheKey::of(&t, &s, 6, 1), || {
                engine.representative_graph(6, 1)
            })
            .unwrap();
        assert_eq!(cache.spill_store().unwrap().spills(), 1);
        assert_eq!(ok.kripke.indices(), &[1]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_budgeted_requests_stay_bounded() {
        // Hammer a small budget from several threads: no deadlock, no
        // panic, and the resident weight ends within budget + the
        // largest single entry (the just-built exemption).
        let cache = Arc::new(GraphCache::new(120, None));
        let engine = Arc::new(SymEngine::new(mutex_template()));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let cache = Arc::clone(&cache);
                let engine = Arc::clone(&engine);
                scope.spawn(move || {
                    for i in 0..10u32 {
                        let n = 5 + (t * 10 + i) % 25;
                        let _ = counter(&cache, &mutex_template(), &std_spec(), n, || {
                            engine.counter_graph(n)
                        });
                    }
                });
            }
        });
        assert!(cache.evictions() > 0);
        assert!(
            cache.abstract_states() <= 120 + (2 * 29 + 1),
            "resident weight {} exceeds budget plus one entry",
            cache.abstract_states()
        );
    }
}
