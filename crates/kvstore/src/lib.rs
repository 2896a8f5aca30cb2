//! # estocada-kvstore
//!
//! A namespaced in-memory key-value store — the Redis/Voldemort stand-in.
//! The *only* query path is by key (`get`/`mget`), which is exactly the
//! access-pattern restriction the pivot model encodes as an `i o…o`
//! adornment: ESTOCADA can reach these fragments only through BindJoin.
//! Values are opaque byte payloads encoded with [`codec`]; administrative
//! operations (`scan`, `len`) exist for materialization and statistics
//! gathering but are not exposed to rewritings.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod codec;

pub use codec::{decode_tuple, encode_tuple, DecodeError};

use estocada_pivot::hash::FastMap;
use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;

/// One namespace: key → [`codec`]-encoded value tuple.
type Namespace = FastMap<Value, Box<[u8]>>;

/// The stored payload of a value tuple.
fn encode(values: &[Value]) -> Box<[u8]> {
    codec::encode_tuple(values).into_boxed_slice()
}

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

    /// Store `values` under `key` in `namespace` (created on demand).
    pub fn put(&self, namespace: &str, key: Value, values: &[Value]) {
        self.namespaces
            .write()
            .entry(namespace.to_string())
            .or_default()
            .insert(key, encode(values));
    }

    /// Fetch the tuple stored under `key`; the *key must be supplied* — the
    /// store's defining access restriction. Charges latency and metrics. A
    /// stored payload that does not decode is a [`DecodeError`].
    pub fn get(&self, namespace: &str, key: &Value) -> Result<Option<Vec<Value>>, DecodeError> {
        let guard = self.namespaces.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let hit = guard.get(namespace).and_then(|ns| ns.get(key));
        let bytes = hit.map_or(0, |payload| payload.len());
        timer.set_output(hit.is_some().into(), bytes as u64);
        hit.map(|payload| codec::decode_tuple(payload)).transpose()
    }

    /// Batched lookup; one simulated round-trip for the whole batch (real
    /// stores pipeline MGET). A stored payload that does not decode fails
    /// the batch with a [`DecodeError`].
    pub fn mget(
        &self,
        namespace: &str,
        keys: &[Value],
    ) -> Result<Vec<Option<Vec<Value>>>, DecodeError> {
        let guard = self.namespaces.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let ns = guard.get(namespace);
        let hits: Vec<Option<&[u8]>> = keys.iter().map(|k| Some(&**ns?.get(k)?)).collect();
        let payloads = hits.iter().flatten();
        let bytes: usize = payloads.clone().map(|payload| payload.len()).sum();
        timer.set_output(payloads.count() as u64, bytes as u64);
        let decode = |hit: Option<&[u8]>| hit.map(codec::decode_tuple).transpose();
        hits.into_iter().map(decode).collect()
    }

    /// Rewrite the tuple under `key` where it lies: `patch` receives the
    /// stored tuple (`None` when the key is absent) and returns the one to
    /// store, or `None` to delete the key. A namespace left without keys is
    /// dropped. Costs the one entry, not the namespace. Admin path: no
    /// metrics or latency — like [`KvStore::put`].
    pub fn update(
        &self,
        namespace: &str,
        key: &Value,
        patch: impl FnOnce(Option<Vec<Value>>) -> Option<Vec<Value>>,
    ) -> Result<(), DecodeError> {
        let mut guard = self.namespaces.write();
        let ns = guard.get_mut(namespace);
        let stored = ns.as_ref().and_then(|ns| ns.get(key));
        let stored = stored
            .map(|payload| codec::decode_tuple(payload))
            .transpose()?;
        match (patch(stored), ns) {
            (Some(values), Some(ns)) => drop(ns.insert(key.clone(), encode(&values))),
            (Some(values), None) => {
                let ns = Namespace::from_iter([(key.clone(), encode(&values))]);
                guard.insert(namespace.to_string(), ns);
            }
            (None, Some(ns)) => {
                ns.remove(key);
                if ns.is_empty() {
                    guard.remove(namespace);
                }
            }
            (None, None) => {}
        }
        Ok(())
    }

    /// Drop a whole namespace; returns whether it existed.
    pub fn drop_namespace(&self, namespace: &str) -> bool {
        self.namespaces.write().remove(namespace).is_some()
    }

    /// Number of records in a namespace (admin/statistics path — not a
    /// query capability).
    pub fn len(&self, namespace: &str) -> usize {
        self.namespaces
            .read()
            .get(namespace)
            .map(FastMap::len)
            .unwrap_or(0)
    }

    /// `true` when the namespace is missing or empty.
    pub fn is_empty(&self, namespace: &str) -> bool {
        self.len(namespace) == 0
    }

    /// Full scan of a namespace (admin path, used by fragment
    /// re-materialization and statistics; deliberately NOT reachable from
    /// rewritings). Empty for an unknown namespace; a stored payload that
    /// does not decode is a [`DecodeError`].
    pub fn scan(&self, namespace: &str) -> Result<Vec<(Value, Vec<Value>)>, DecodeError> {
        let guard = self.namespaces.read();
        let entries = guard.get(namespace).into_iter().flatten();
        entries
            .map(|(k, v)| Ok((k.clone(), codec::decode_tuple(v)?)))
            .collect()
    }

    /// Names of all namespaces.
    pub fn namespace_names(&self) -> Vec<String> {
        self.namespaces.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_round_trip() {
        let s = KvStore::new();
        s.put(
            "prefs",
            Value::Int(7),
            &[Value::str("dark"), Value::str("fr")],
        );
        assert_eq!(
            s.get("prefs", &Value::Int(7)),
            Ok(Some(vec![Value::str("dark"), Value::str("fr")]))
        );
        assert_eq!(s.get("prefs", &Value::Int(8)), Ok(None));
        assert_eq!(s.get("other", &Value::Int(7)), Ok(None));
    }

    #[test]
    fn mget_is_one_request() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::Int(10)]);
        s.put("ns", Value::Int(2), &[Value::Int(20)]);
        let out = s.mget("ns", &[Value::Int(1), Value::Int(3), Value::Int(2)]);
        let out = out.unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(out[0], Some(vec![Value::Int(10)]));
        assert_eq!(out[1], None);
        let m = s.metrics.snapshot();
        assert_eq!(m.requests, 1);
        assert_eq!(m.tuples_out, 2);
    }

    #[test]
    fn overwrite_replaces_value() {
        let s = KvStore::new();
        s.put("ns", Value::str("k"), &[Value::Int(1)]);
        s.put("ns", Value::str("k"), &[Value::Int(2)]);
        assert_eq!(s.get("ns", &Value::str("k")), Ok(Some(vec![Value::Int(2)])));
        assert_eq!(s.len("ns"), 1);
    }

    #[test]
    fn update_patches_one_entry_and_drops_an_emptied_namespace() {
        let s = KvStore::new();
        let append = |v: i64| {
            move |stored: Option<Vec<Value>>| {
                let mut values = stored.unwrap_or_default();
                values.push(Value::Int(v));
                Some(values)
            }
        };
        s.update("ns", &Value::Int(1), append(10)).unwrap();
        s.update("ns", &Value::Int(1), append(11)).unwrap();
        s.update("ns", &Value::Int(2), append(20)).unwrap();
        let one = s.get("ns", &Value::Int(1));
        assert_eq!(one, Ok(Some(vec![Value::Int(10), Value::Int(11)])));
        // Patching charges nothing: it is not a query.
        assert_eq!(s.metrics.snapshot().requests, 1);
        s.update("ns", &Value::Int(1), |_| None).unwrap();
        s.update("ns", &Value::Int(3), |_| None).unwrap();
        assert_eq!(s.namespace_names(), vec!["ns".to_string()]);
        s.update("ns", &Value::Int(2), |_| None).unwrap();
        assert!(s.namespace_names().is_empty());
        s.update("ghost", &Value::Int(1), |_| None).unwrap();
        assert!(s.namespace_names().is_empty());
    }

    #[test]
    fn delete_and_drop() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::Int(1)]);
        s.put("ns", Value::Int(2), &[Value::Int(2)]);
        s.update("ns", &Value::Int(1), |_| None).unwrap();
        assert_eq!(s.get("ns", &Value::Int(1)), Ok(None));
        assert!(s.drop_namespace("ns"));
        assert!(s.is_empty("ns"));
    }

    #[test]
    fn scan_returns_all_records() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::str("a")]);
        s.put("ns", Value::Int(2), &[Value::str("b")]);
        let mut all = s.scan("ns").unwrap();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].1, vec![Value::str("a")]);
    }

    #[test]
    fn nested_values_survive_the_codec() {
        let s = KvStore::new();
        let cart = Value::object([(
            "items",
            Value::array([Value::str("sku1"), Value::str("sku2")]),
        )]);
        s.put("carts", Value::Int(9), std::slice::from_ref(&cart));
        assert_eq!(s.get("carts", &Value::Int(9)), Ok(Some(vec![cart])));
    }

    #[test]
    fn a_payload_that_does_not_decode_is_an_error() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::Int(10)]);
        let corrupt = vec![1, 0, 0, 0, 99].into_boxed_slice();
        let mut guard = s.namespaces.write();
        guard
            .entry("ns".into())
            .or_default()
            .insert(Value::Int(2), corrupt);
        drop(guard);
        let unknown_tag = DecodeError {
            reason: "unknown tag",
        };
        assert_eq!(s.get("ns", &Value::Int(2)), Err(unknown_tag.clone()));
        assert_eq!(s.get("ns", &Value::Int(1)), Ok(Some(vec![Value::Int(10)])));
        let keys = [Value::Int(1), Value::Int(2)];
        assert_eq!(s.mget("ns", &keys), Err(unknown_tag.clone()));
        assert_eq!(s.scan("ns").map(|_| ()), Err(unknown_tag));
        assert_eq!(s.scan("ghost"), Ok(vec![]));
        // Every request was still charged.
        assert_eq!(s.metrics.snapshot().requests, 3);
    }
}
