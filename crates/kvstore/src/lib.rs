//! # estocada-kvstore
//!
//! A namespaced in-memory key-value store — the Redis/Voldemort stand-in.
//! The *only* query path is by key ([`KvStore::mget`]), which is exactly
//! the access-pattern restriction the pivot model encodes as an `i o…o`
//! adornment: ESTOCADA can reach these fragments only through BindJoin (or
//! a point GET of a constant key). A namespace maps an interned key to its
//! value tuples, held as interned cells ([`IdRows`], one row per tuple, in
//! value order), so a lookup hands the caller the cells it stores — no
//! decode, no copy, no intern. Administrative operations (`scan`,
//! `namespace_names`) exist for materialization checks and dumps but are
//! not exposed to rewritings.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use estocada_pivot::hash::FastMap;
use estocada_pivot::{ConstId, ConstReader, IdRows};
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;

/// One key's entry: its value tuples, in value order, and their size as
/// shipped (what a lookup charges), computed when the entry is written.
#[derive(Debug)]
struct Entry {
    tuples: IdRows,
    bytes: u64,
}

/// One namespace: key → its entry.
type Namespace = FastMap<ConstId, Entry>;

/// What a key with no entry reads as.
const NO_TUPLES: &IdRows = &IdRows {
    width: 0,
    len: 0,
    cells: Vec::new(),
};

/// The key-value store.
#[derive(Debug, Default)]
pub struct KvStore {
    namespaces: RwLock<FastMap<String, Namespace>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
}

impl KvStore {
    /// A store with no simulated latency.
    pub fn new() -> KvStore {
        KvStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> KvStore {
        KvStore {
            latency,
            ..KvStore::default()
        }
    }

    /// Look up `keys` in one simulated round-trip (real stores pipeline
    /// MGET; a point GET is one key, or none when its constant was never
    /// interned, so no key holds it). `each` sees every key, in order, with
    /// the tuples stored under it — none for a key without an entry. The
    /// *key must be supplied* — the store's defining access restriction.
    /// Charges one tuple and the entry's bytes per key found. Returns
    /// whether the namespace exists: an unknown one answers every key with
    /// no tuples.
    pub fn mget(
        &self,
        namespace: &str,
        keys: &[ConstId],
        mut each: impl FnMut(ConstId, &IdRows),
    ) -> bool {
        let guard = self.namespaces.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let ns = guard.get(namespace);
        let (mut hits, mut bytes) = (0, 0);
        for key in keys {
            let entry = ns.and_then(|ns| ns.get(key));
            if let Some(entry) = entry {
                hits += 1;
                bytes += entry.bytes;
            }
            each(*key, entry.map_or(NO_TUPLES, |e| &e.tuples));
        }
        timer.set_output(hits, bytes);
        ns.is_some()
    }

    /// Patch the tuples under `key` where they lie: `patch` edits the
    /// stored tuples (none, `width` cells each, when the key has no entry);
    /// the entry is then sorted in value order again, or deleted when left
    /// without tuples. A namespace left without keys is dropped. Costs the
    /// one entry, not the namespace. Admin path: no metrics or latency.
    pub fn update(
        &self,
        namespace: &str,
        key: ConstId,
        width: usize,
        patch: impl FnOnce(&mut IdRows),
    ) {
        let mut guard = self.namespaces.write();
        if !guard.contains_key(namespace) {
            guard.insert(namespace.to_string(), Namespace::default());
        }
        let Some(ns) = guard.get_mut(namespace) else {
            return;
        };
        let entry = ns.entry(key).or_insert_with(|| Entry {
            tuples: IdRows::empty(width),
            bytes: 0,
        });
        patch(&mut entry.tuples);
        if entry.tuples.len > 0 {
            entry.settle();
            return;
        }
        ns.remove(&key);
        if ns.is_empty() {
            guard.remove(namespace);
        }
    }

    /// Drop a whole namespace; returns whether it existed.
    pub fn drop_namespace(&self, namespace: &str) -> bool {
        self.namespaces.write().remove(namespace).is_some()
    }

    /// Every entry of a namespace, as `(key, tuples)` (admin path, used by
    /// dumps and checks; deliberately NOT reachable from rewritings).
    /// Empty for an unknown namespace.
    pub fn scan(&self, namespace: &str) -> Vec<(ConstId, IdRows)> {
        let guard = self.namespaces.read();
        let entries = guard.get(namespace).into_iter().flatten();
        entries.map(|(k, e)| (*k, e.tuples.clone())).collect()
    }

    /// Names of all namespaces.
    pub fn namespace_names(&self) -> Vec<String> {
        self.namespaces.read().keys().cloned().collect()
    }
}

impl Entry {
    /// Sort the tuples in value order and size them, once per write.
    fn settle(&mut self) {
        let reader = ConstReader::new();
        let value = |c: &ConstId| reader.get(*c);
        let mut order: Vec<&[ConstId]> = self.tuples.rows().collect();
        order.sort_by(|a, b| a.iter().map(value).cmp(b.iter().map(value)));
        let cells = order.concat();
        let size = |c: &ConstId| value(c).approx_size() as u64;
        self.bytes = cells.iter().map(size).sum();
        self.tuples.cells = cells;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{SwapRows, Value};

    fn ids(values: &[Value]) -> Vec<ConstId> {
        values.iter().map(ConstId::intern).collect()
    }

    /// Append the tuple `values` under `key`.
    fn put(s: &KvStore, ns: &str, key: Value, values: &[Value]) {
        let key = ConstId::intern(&key);
        s.update(ns, key, values.len(), |t| t.push(ids(values)));
    }

    /// The tuples under `key`, resolved, through a charged lookup; `None`
    /// when the namespace does not exist.
    fn get(s: &KvStore, ns: &str, key: Value) -> Option<Vec<Vec<Value>>> {
        let mut out = Vec::new();
        let key = ConstId::intern(&key);
        let found = s.mget(ns, &[key], |_, t| out = t.to_values());
        found.then_some(out)
    }

    #[test]
    fn put_get_round_trip() {
        let s = KvStore::new();
        put(
            &s,
            "prefs",
            Value::Int(7),
            &[Value::str("dark"), Value::str("fr")],
        );
        let dark_fr = vec![vec![Value::str("dark"), Value::str("fr")]];
        assert_eq!(get(&s, "prefs", Value::Int(7)), Some(dark_fr));
        // A missing key reads as no tuples; a missing namespace says so.
        assert_eq!(get(&s, "prefs", Value::Int(8)), Some(vec![]));
        assert_eq!(get(&s, "other", Value::Int(7)), None);
    }

    #[test]
    fn mget_is_one_request() {
        let s = KvStore::new();
        put(&s, "ns", Value::Int(1), &[Value::Int(10)]);
        put(&s, "ns", Value::Int(2), &[Value::Int(20)]);
        let keys = ids(&[Value::Int(1), Value::Int(3), Value::Int(2)]);
        let mut seen = Vec::new();
        assert!(s.mget("ns", &keys, |k, t| seen.push((k, t.to_values()))));
        let want = [
            (1, vec![vec![Value::Int(10)]]),
            (3, vec![]),
            (2, vec![vec![Value::Int(20)]]),
        ];
        let want = want.map(|(k, t)| (ConstId::of(k as i64), t));
        assert_eq!(seen, want);
        let m = s.metrics.snapshot();
        assert_eq!(m.requests, 1);
        assert_eq!(m.tuples_out, 2);
        // Each entry's bytes are what its cells weigh, as other stores
        // charge them.
        assert_eq!(m.bytes_out, 2 * Value::Int(10).approx_size() as u64);
        // An unknown namespace costs its request too.
        assert!(!s.mget("ghost", &keys, |_, t| assert_eq!(t.len, 0)));
        assert_eq!(s.metrics.snapshot().requests, 2);
    }

    #[test]
    fn overwrite_replaces_value() {
        let s = KvStore::new();
        let k = ConstId::of("k");
        s.update("ns", k, 1, |t| t.push([ConstId::of(1i64)]));
        s.update("ns", k, 1, |t| {
            *t = IdRows::intern(&[vec![Value::Int(2)]], 1).unwrap()
        });
        assert_eq!(
            get(&s, "ns", Value::str("k")),
            Some(vec![vec![Value::Int(2)]])
        );
        assert_eq!(s.scan("ns").len(), 1);
    }

    #[test]
    fn update_patches_one_entry_and_drops_an_emptied_namespace() {
        let s = KvStore::new();
        // Appended in any order, held in value order.
        for v in [11, 10, 12] {
            put(&s, "ns", Value::Int(1), &[Value::Int(v)]);
        }
        put(&s, "ns", Value::Int(2), &[Value::Int(20)]);
        let one = get(&s, "ns", Value::Int(1));
        let want = [10, 11, 12].map(|v| vec![Value::Int(v)]);
        assert_eq!(one, Some(want.to_vec()));
        // Patching charges nothing: it is not a query.
        assert_eq!(s.metrics.snapshot().requests, 1);
        s.update("ns", ConstId::of(1i64), 1, |t| t.swap_out(0));
        let left = [11, 12].map(|v| vec![Value::Int(v)]);
        assert_eq!(get(&s, "ns", Value::Int(1)), Some(left.to_vec()));
        let clear = |t: &mut IdRows| *t = IdRows::empty(1);
        s.update("ns", ConstId::of(1i64), 1, clear);
        s.update("ns", ConstId::of(3i64), 1, clear);
        assert_eq!(s.namespace_names(), vec!["ns".to_string()]);
        s.update("ns", ConstId::of(2i64), 1, clear);
        assert!(s.namespace_names().is_empty());
        s.update("ghost", ConstId::of(1i64), 1, clear);
        assert!(s.namespace_names().is_empty());
    }

    #[test]
    fn delete_and_drop() {
        let s = KvStore::new();
        put(&s, "ns", Value::Int(1), &[Value::Int(1)]);
        put(&s, "ns", Value::Int(2), &[Value::Int(2)]);
        s.update("ns", ConstId::of(1i64), 1, |t| t.swap_out(0));
        assert_eq!(get(&s, "ns", Value::Int(1)), Some(vec![]));
        assert!(s.drop_namespace("ns"));
        assert!(s.scan("ns").is_empty());
        assert_eq!(get(&s, "ns", Value::Int(2)), None);
    }

    #[test]
    fn scan_returns_all_records() {
        let s = KvStore::new();
        put(&s, "ns", Value::Int(1), &[Value::str("a")]);
        put(&s, "ns", Value::Int(2), &[Value::str("b")]);
        let mut all = s.scan("ns");
        all.sort_by_key(|(k, _)| k.value());
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1.to_values(), vec![vec![Value::str("a")]]);
        assert!(s.scan("ghost").is_empty());
    }

    #[test]
    fn nested_values_survive_the_codec() {
        // A nested value is one interned cell, stored and read as it is.
        let s = KvStore::new();
        let cart = Value::object([(
            "items",
            Value::array([Value::str("sku1"), Value::str("sku2")]),
        )]);
        put(&s, "carts", Value::Int(9), std::slice::from_ref(&cart));
        assert_eq!(get(&s, "carts", Value::Int(9)), Some(vec![vec![cart]]));
    }
}
