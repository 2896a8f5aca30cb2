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

use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;

/// One namespace: key → [`codec`]-encoded value tuple.
type Namespace = HashMap<Value, Box<[u8]>>;

/// The key-value store.
#[derive(Debug, Default)]
pub struct KvStore {
    namespaces: RwLock<HashMap<String, Namespace>>,
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
        let payload = codec::encode_tuple(values).into_boxed_slice();
        self.namespaces
            .write()
            .entry(namespace.to_string())
            .or_default()
            .insert(key, payload);
    }

    /// Fetch the tuple stored under `key`; the *key must be supplied* — the
    /// store's defining access restriction. Charges latency and metrics.
    pub fn get(&self, namespace: &str, key: &Value) -> Option<Vec<Value>> {
        let guard = self.namespaces.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let hit = guard.get(namespace).and_then(|ns| ns.get(key));
        match hit {
            Some(payload) => {
                timer.set_output(1, payload.len() as u64);
                Some(codec::decode_tuple(payload).expect("corrupt kv payload"))
            }
            None => {
                timer.set_output(0, 0);
                None
            }
        }
    }

    /// Batched lookup; one simulated round-trip for the whole batch (real
    /// stores pipeline MGET).
    pub fn mget(&self, namespace: &str, keys: &[Value]) -> Vec<Option<Vec<Value>>> {
        let guard = self.namespaces.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let mut tuples = 0u64;
        let mut bytes = 0u64;
        let out = keys
            .iter()
            .map(|k| {
                let hit = guard.get(namespace).and_then(|ns| ns.get(k));
                match hit {
                    Some(payload) => {
                        tuples += 1;
                        bytes += payload.len() as u64;
                        Some(codec::decode_tuple(payload).expect("corrupt kv payload"))
                    }
                    None => None,
                }
            })
            .collect();
        timer.set_output(tuples, bytes);
        out
    }

    /// Delete a key; returns whether it existed.
    pub fn delete(&self, namespace: &str, key: &Value) -> bool {
        self.namespaces
            .write()
            .get_mut(namespace)
            .map(|ns| ns.remove(key).is_some())
            .unwrap_or(false)
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
            .map(HashMap::len)
            .unwrap_or(0)
    }

    /// `true` when the namespace is missing or empty.
    pub fn is_empty(&self, namespace: &str) -> bool {
        self.len(namespace) == 0
    }

    /// Full scan of a namespace (admin path, used by fragment
    /// re-materialization and statistics; deliberately NOT reachable from
    /// rewritings).
    pub fn scan(&self, namespace: &str) -> Vec<(Value, Vec<Value>)> {
        self.namespaces
            .read()
            .get(namespace)
            .map(|ns| {
                ns.iter()
                    .map(|(k, v)| {
                        (
                            k.clone(),
                            codec::decode_tuple(v).expect("corrupt kv payload"),
                        )
                    })
                    .collect()
            })
            .unwrap_or_default()
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
            Some(vec![Value::str("dark"), Value::str("fr")])
        );
        assert_eq!(s.get("prefs", &Value::Int(8)), None);
        assert_eq!(s.get("other", &Value::Int(7)), None);
    }

    #[test]
    fn mget_is_one_request() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::Int(10)]);
        s.put("ns", Value::Int(2), &[Value::Int(20)]);
        let out = s.mget("ns", &[Value::Int(1), Value::Int(3), Value::Int(2)]);
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
        assert_eq!(s.get("ns", &Value::str("k")), Some(vec![Value::Int(2)]));
        assert_eq!(s.len("ns"), 1);
    }

    #[test]
    fn delete_and_drop() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::Int(1)]);
        assert!(s.delete("ns", &Value::Int(1)));
        assert!(!s.delete("ns", &Value::Int(1)));
        s.put("ns", Value::Int(2), &[Value::Int(2)]);
        assert!(s.drop_namespace("ns"));
        assert!(s.is_empty("ns"));
    }

    #[test]
    fn scan_returns_all_records() {
        let s = KvStore::new();
        s.put("ns", Value::Int(1), &[Value::str("a")]);
        s.put("ns", Value::Int(2), &[Value::str("b")]);
        let mut all = s.scan("ns");
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
        assert_eq!(s.get("carts", &Value::Int(9)), Some(vec![cart]));
    }
}
