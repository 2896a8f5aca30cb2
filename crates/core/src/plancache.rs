//! The epoch-keyed caches behind the shared `&self` query path: the
//! rewrite-plan cache (rewriting outcomes and the prepared plans built from
//! them) and the query-lint cache, all instances of one generic
//! `EpochCache`.
//!
//! PACB rewriting is a pure function of `(query CQ, catalog views, schema
//! constraints, access map)` — and it is *deterministic* at any worker
//! count, which is what makes an outcome computed by one query thread safely
//! reusable by every other. The same holds for the static analyzer's query
//! lints: a pure function of `(query CQ, schema)`. The catalog/schema inputs
//! are summarized by the mediator's **catalog epoch** (bumped by every DDL
//! operation: `register_dataset`, `add_fragment`, `drop_fragment`), so a
//! cached value is tagged with its epoch: any DDL invalidates the whole
//! cache wholesale (the epoch no longer matches), and repeat queries within
//! an epoch skip the cached computation entirely.
//!
//! A key is hashed **once, structurally** by its caller (`hash_of`: no
//! text is formatted) and the 64-bit hash picks the shard and indexes the
//! shard's map; an entry keeps the full key and a lookup compares it, so two
//! keys that collide on the hash can only evict each other, never answer for
//! each other. A prepared plan's key is the request as the caller sent it
//! (`QueryInput`: SQL text, a tree pattern, a pivot query), so a hit hashes
//! and compares the caller's borrowed request against that, looks up, and
//! hands back the plan with the parsed query and its lint hash inside;
//! ranking, execution and the report follow, and nothing is copied, parsed,
//! hashed twice or translated.
//! The map is a small sharded `RwLock<FastMap>` (reads take a shard read
//! lock only), bounded by a per-shard FIFO: the cache can never
//! grow past its capacity no matter how many distinct ad-hoc shapes a
//! workload produces. Entries store an `Arc`, so a hit is one clone of a
//! pointer. Hit/miss counters and the entry count are relaxed
//! atomics (the count moves under the shard write lock), so
//! `EpochCache::stats` takes no lock; they surface in the engine's one
//! snapshot, [`crate::Estocada::metrics`], while a query's report says
//! only whether it hit ([`crate::report::Report::plan_cache`]).
//!
//! Two threads racing on the same cold key both compute the value and
//! both try to insert; determinism makes the two values identical, so
//! first-insert-wins is correct and the loser merely did redundant work
//! (exactly what the serial run would have computed).

use crate::analyze::Diagnostic;
use crate::frontends::{ParsedQuery, QueryInput};
use crate::planner::{CoreKey, Prepared};
use estocada_chase::RewriteOutcome;
use estocada_pivot::hash::FastHasher;
use estocada_pivot::hash::FastMap;
use parking_lot::RwLock;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Shard count: enough to keep concurrent readers of distinct shapes off
/// each other's locks. A power of two, so that a shard is some top bits.
const SHARDS: usize = 16;

/// Default bound on cached outcomes across all shards.
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 1_024;

/// The structural hash a cache key is looked up and stored under.
pub(crate) fn hash_of<K: Hash + ?Sized>(key: &K) -> u64 {
    let mut h = FastHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Counters and size of an epoch cache at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache since construction / last reset.
    pub hits: u64,
    /// Lookups that had to run the cached computation.
    pub misses: u64,
    /// Values currently cached.
    pub entries: usize,
}

struct Entry<K, V> {
    key: K,
    epoch: u64,
    value: V,
}

struct Shard<K, V> {
    /// By key hash; the entry holds the key itself.
    map: FastMap<u64, Entry<K, V>>,
    /// Key hashes in insertion (or last replacement) order, for FIFO
    /// eviction.
    order: VecDeque<u64>,
}

/// The query-lint cache: the analyzer's per-query findings, reused until
/// the next DDL.
pub(crate) type LintCache = EpochCache<Arc<ParsedQuery>, Arc<Vec<Diagnostic>>>;

/// The rewrite-plan cache, two maps of one capacity each (see
/// [`crate::planner`]): `outcomes` keeps what the chase & backchase made of
/// a conjunctive core, `prepared` what parsing and translation made of one
/// request, exactly as the caller sent it, over such an outcome. A query
/// consults `prepared` first and, once it parsed, `outcomes` only when that
/// misses, so between them every query that parses counts exactly one hit
/// or one miss.
#[derive(Default)]
pub(crate) struct PlanCache {
    pub(crate) outcomes: EpochCache<CoreKey, Arc<RewriteOutcome>>,
    pub(crate) prepared: EpochCache<QueryInput<'static>, Arc<Prepared>>,
    /// Prepared plans priced again after a write or an index build moved
    /// their prices.
    pub(crate) repriced: AtomicU64,
}

impl PlanCache {
    /// A hit is a query that ran no chase (its prepared plan, or at least
    /// its outcome, was cached); `entries` counts cached outcomes — a
    /// prepared plan is not a second entry.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        let (outcomes, prepared) = (self.outcomes.stats(), self.prepared.stats());
        PlanCacheStats {
            hits: prepared.hits + outcomes.hits,
            ..outcomes
        }
    }

    pub(crate) fn clear(&self) {
        self.outcomes.clear();
        self.prepared.clear();
    }
}

/// A bounded, sharded, epoch-tagged map `K → V` (see the module docs). `V`
/// is expected to be cheap to clone (an `Arc`).
pub(crate) struct EpochCache<K, V> {
    shards: Vec<RwLock<Shard<K, V>>>,
    per_shard: usize,
    entries: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq, V: Clone> EpochCache<K, V> {
    /// A cache bounded to roughly `capacity` values (rounded up to a
    /// multiple of the shard count; `capacity = 0` disables storage but
    /// still counts misses).
    pub(crate) fn new(capacity: usize) -> EpochCache<K, V> {
        let shard = || Shard {
            map: FastMap::default(),
            order: VecDeque::new(),
        };
        EpochCache {
            shards: (0..SHARDS).map(|_| RwLock::new(shard())).collect(),
            per_shard: capacity.div_ceil(SHARDS),
            entries: AtomicUsize::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Total entry bound.
    #[cfg(test)]
    fn capacity(&self) -> usize {
        self.per_shard * SHARDS
    }

    /// The shard of `hash`: the top bits of its Fibonacci product, which
    /// every bit of the hash reaches. The multiply-rotate hash of two texts
    /// that differ in their last few characters differs in a few bits only
    /// (consecutive ids in one SQL text), so any fixed slice of it clusters:
    /// its low four bits put 90 of 256 such keys in one shard and none in 9
    /// of the 16, its top four bits 105 in one.
    fn shard(&self, hash: u64) -> &RwLock<Shard<K, V>> {
        let spread = hash.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(spread >> (u64::BITS - SHARDS.trailing_zeros())) as usize]
    }

    /// The cached value at `epoch` of the key hashing to `hash` that `is_key`
    /// accepts (the caller compares its own form of the key, borrowed or
    /// owned), if any. An entry from an older epoch never matches (DDL bumped
    /// the epoch past it). Counts a hit or a miss.
    pub(crate) fn lookup(&self, hash: u64, is_key: impl Fn(&K) -> bool, epoch: u64) -> Option<V> {
        let found = {
            let shard = self.shard(hash).read();
            let entry = shard.map.get(&hash);
            let entry = entry.filter(|e| e.epoch == epoch && is_key(&e.key));
            entry.map(|e| e.value.clone())
        };
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Cache `value` under `(key, epoch)`. First insert wins on a racing
    /// key (the values are identical by determinism); a stale-epoch entry
    /// under the same key is replaced. At capacity the oldest entry of the
    /// key's shard is evicted (FIFO).
    pub(crate) fn insert(&self, hash: u64, key: K, epoch: u64, value: V) {
        self.put(hash, key, epoch, value, false);
    }

    /// Like [`EpochCache::insert`], but the value also supersedes one
    /// cached under the same `(key, epoch)` — for a value that ages by
    /// something finer than the epoch.
    pub(crate) fn replace(&self, hash: u64, key: K, epoch: u64, value: V) {
        self.put(hash, key, epoch, value, true);
    }

    fn put(&self, hash: u64, key: K, epoch: u64, value: V, supersede: bool) {
        if self.per_shard == 0 {
            return;
        }
        let mut shard = self.shard(hash).write();
        let Shard { map, order } = &mut *shard;
        if let Some(existing) = map.get_mut(&hash) {
            if !supersede && existing.epoch == epoch && existing.key == key {
                return;
            }
            // A replacement is the shard's newest entry, not the next one
            // evicted.
            *existing = Entry { key, epoch, value };
            order.retain(|h| *h != hash);
            order.push_back(hash);
            return;
        }
        while map.len() >= self.per_shard {
            match order.pop_front() {
                Some(old) => {
                    map.remove(&old);
                    self.entries.fetch_sub(1, Ordering::Relaxed);
                }
                None => break,
            }
        }
        order.push_back(hash);
        map.insert(hash, Entry { key, epoch, value });
        self.entries.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every entry (the DDL path calls this on each epoch bump — the
    /// epoch tag alone already makes stale entries unreachable, clearing
    /// eagerly just returns their memory).
    pub(crate) fn clear(&self) {
        for s in &self.shards {
            let mut s = s.write();
            self.entries.fetch_sub(s.map.len(), Ordering::Relaxed);
            s.map.clear();
            s.order.clear();
        }
    }

    /// Entries currently cached.
    pub(crate) fn len(&self) -> usize {
        self.entries.load(Ordering::Relaxed)
    }

    /// Counter + size snapshot.
    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }
}

impl<K: Eq, V: Clone> Default for EpochCache<K, V> {
    fn default() -> EpochCache<K, V> {
        EpochCache::new(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontends::QueryInput;
    use estocada_chase::{RewriteOutcome, RewriteStats};
    use estocada_pivot::CqBuilder;

    /// A cache of outcomes under string keys, hashed the way callers hash.
    struct Outcomes(EpochCache<String, Arc<RewriteOutcome>>);

    impl Outcomes {
        fn new(capacity: usize) -> Outcomes {
            Outcomes(EpochCache::new(capacity))
        }
        fn lookup(&self, key: &str, epoch: u64) -> Option<Arc<RewriteOutcome>> {
            self.0.lookup(hash_of(key), |kept| kept == key, epoch)
        }
        fn insert(&self, key: &str, epoch: u64, value: Arc<RewriteOutcome>) {
            self.0.insert(hash_of(key), key.to_string(), epoch, value);
        }
        fn replace(&self, key: &str, epoch: u64, value: Arc<RewriteOutcome>) {
            self.0.replace(hash_of(key), key.to_string(), epoch, value);
        }
        fn tag(&self, key: &str, epoch: u64) -> Option<String> {
            let found = self.lookup(key, epoch);
            found.map(|o| o.universal_plan.name.to_string())
        }
    }

    fn outcome(tag: &str) -> Arc<RewriteOutcome> {
        Arc::new(RewriteOutcome {
            rewritings: Vec::new(),
            universal_plan: CqBuilder::new(tag)
                .head_vars(["x"])
                .atom("R", |a| a.v("x"))
                .build(),
            complete: true,
            stats: RewriteStats::default(),
        })
    }

    #[test]
    fn hit_and_miss_counting() {
        let c = Outcomes::new(8);
        assert!(c.lookup("q1", 0).is_none());
        c.insert("q1", 0, outcome("a"));
        assert!(c.lookup("q1", 0).is_some());
        let s = c.0.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn epoch_bump_invalidates() {
        let c = Outcomes::new(8);
        c.insert("q1", 0, outcome("a"));
        assert!(c.lookup("q1", 1).is_none(), "stale epoch must miss");
        // Re-inserting at the new epoch replaces in place.
        c.insert("q1", 1, outcome("b"));
        assert!(c.lookup("q1", 1).is_some());
        assert!(c.lookup("q1", 0).is_none());
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn capacity_is_bounded() {
        let c = Outcomes::new(32);
        for i in 0..10_000 {
            c.insert(&format!("q{i}"), 0, outcome("a"));
        }
        let (len, capacity) = (c.0.len(), c.0.capacity());
        assert!(len <= capacity, "{len} > {capacity}");
        assert!(capacity < 100);
        // The O(1) count is the maps' own.
        let held: usize = c.0.shards.iter().map(|s| s.read().map.len()).sum();
        assert_eq!(len, held);
    }

    #[test]
    fn clear_empties_everything() {
        let c = Outcomes::new(32);
        for i in 0..20 {
            c.insert(&format!("q{i}"), 0, outcome("a"));
        }
        c.0.clear();
        assert_eq!(c.0.len(), 0);
        assert!(c.lookup("q3", 0).is_none());
    }

    #[test]
    fn first_insert_wins_on_same_epoch() {
        let c = Outcomes::new(8);
        c.insert("q", 0, outcome("first"));
        c.insert("q", 0, outcome("second"));
        assert_eq!(c.tag("q", 0).as_deref(), Some("first"));
        // A replacement is what supersedes within an epoch.
        c.replace("q", 0, outcome("third"));
        assert_eq!(c.tag("q", 0).as_deref(), Some("third"));
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn a_replaced_entry_is_the_newest_of_its_shard() {
        // Two entries per shard: a third key of a shard evicts its oldest.
        let c = Outcomes::new(2 * SHARDS);
        assert_eq!(c.0.per_shard, 2);
        let same_shard = |k: &String| std::ptr::eq(c.0.shard(hash_of(k.as_str())), &c.0.shards[0]);
        let keys: Vec<String> = (0..)
            .map(|i| format!("q{i}"))
            .filter(same_shard)
            .take(4)
            .collect();
        let [a, b, x, y] = [&keys[0], &keys[1], &keys[2], &keys[3]];
        for refresh in ["stale catalog epoch", "replaced at its epoch"] {
            c.0.clear();
            c.insert(a, 0, outcome("a0"));
            c.insert(b, 1, outcome("b"));
            // `a` is the shard's oldest entry until it is refreshed …
            match refresh {
                "stale catalog epoch" => c.insert(a, 1, outcome("a1")),
                _ => c.replace(a, 1, outcome("a1")),
            }
            // … so the next arrival evicts `b`, and only the one after `a`.
            c.insert(x, 1, outcome("x"));
            assert_eq!(c.tag(a, 1).as_deref(), Some("a1"), "{refresh}");
            assert!(c.lookup(b, 1).is_none(), "{refresh}");
            c.insert(y, 1, outcome("y"));
            assert!(c.lookup(a, 1).is_none(), "{refresh}");
            assert_eq!(c.0.len(), 2);
        }
    }

    /// The shard index of `key`, hashed as the plan cache hashes requests.
    fn shard_of<K: Hash + ?Sized>(c: &Outcomes, key: &K) -> usize {
        let shard = c.0.shard(hash_of(key));
        (c.0.shards.iter())
            .position(|s| std::ptr::eq(s, shard))
            .unwrap()
    }

    #[test]
    fn consecutive_ids_spread_over_every_shard() {
        let c = Outcomes::new(DEFAULT_PLAN_CACHE_CAPACITY);
        let mut per_shard = [0usize; SHARDS];
        for uid in 0..256 {
            let sql = format!("SELECT p.theme, p.language FROM Prefs p WHERE p.uid = {uid}");
            per_shard[shard_of(&c, &QueryInput::Sql(sql.into()))] += 1;
        }
        let mean = 256 / SHARDS;
        assert!(
            per_shard.iter().all(|n| *n <= 2 * mean && *n > 0),
            "keys per shard: {per_shard:?}"
        );
    }

    #[test]
    fn colliding_keys_never_answer_for_each_other() {
        let c = Outcomes::new(8);
        c.0.insert(7, "a".to_string(), 0, outcome("a"));
        assert!(c.0.lookup(7, |k| k == "b", 0).is_none());
        c.0.insert(7, "b".to_string(), 0, outcome("b"));
        assert!(c.0.lookup(7, |k| k == "a", 0).is_none());
        assert!(c.0.lookup(7, |k| k == "b", 0).is_some());
        assert_eq!(c.0.len(), 1);
    }

    #[test]
    fn concurrent_lookups_and_inserts_are_safe() {
        let c = Outcomes::new(64);
        std::thread::scope(|s| {
            for t in 0..8 {
                let c = &c;
                s.spawn(move || {
                    for i in 0..500 {
                        let key = format!("q{}", (t * 31 + i) % 40);
                        if c.lookup(&key, 0).is_none() {
                            c.insert(&key, 0, outcome("x"));
                        }
                    }
                });
            }
        });
        assert!(c.0.len() <= 40);
        let s = c.0.stats();
        assert_eq!(s.hits + s.misses, 8 * 500);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let c = Outcomes::new(0);
        c.insert("q", 0, outcome("a"));
        assert!(c.lookup("q", 0).is_none());
        assert_eq!(c.0.len(), 0);
    }

    #[test]
    fn lint_cache_shares_the_machinery() {
        use crate::analyze::{Code, Diagnostic};
        let c: EpochCache<String, Arc<Vec<Diagnostic>>> = EpochCache::new(8);
        let (hash, key) = (hash_of("q"), "q".to_string());
        assert!(c.lookup(hash, |k| *k == key, 3).is_none());
        let diags = Arc::new(vec![Diagnostic {
            severity: Code::CartesianProductBody.severity(),
            code: Code::CartesianProductBody,
            target: "query q".into(),
            message: "cross product".into(),
            witness: None,
        }]);
        c.insert(hash, key.clone(), 3, diags);
        let got = c.lookup(hash, |k| *k == key, 3).expect("hit");
        assert_eq!(got.len(), 1);
        assert!(
            c.lookup(hash, |k| *k == key, 4).is_none(),
            "DDL epoch bump invalidates"
        );
    }
}
