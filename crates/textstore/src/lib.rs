//! # estocada-textstore
//!
//! An in-memory full-text store — the SOLR/Lucene stand-in. Documents
//! (keyed by an application value, e.g. product id) are tokenized into an
//! inverted index. The pivot model exposes an index as a `(term, docKey)`
//! relation with an `io` binding pattern: the term must be supplied —
//! exactly how the mediator integrates full-text fragments, through
//! [`TextStore::term_lookup`]. A CQ cannot consume a relevance score, so
//! the store ranks nothing.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod tokenize;

pub use tokenize::tokenize;

use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;

#[derive(Debug, Default)]
struct TextIndex {
    /// Document keys, by internal doc id.
    docs: Vec<Value>,
    /// Raw document text, by internal doc id (retained so documents can be
    /// removed by exact content and the index rebuilt).
    raw: Vec<String>,
    /// term → ids of the documents holding it, ascending.
    postings: HashMap<String, Vec<u32>>,
}

impl TextIndex {
    fn add(&mut self, key: Value, text: &str) {
        let id = self.docs.len() as u32;
        let mut terms = tokenize(text);
        terms.sort();
        terms.dedup();
        for term in terms {
            self.postings.entry(term).or_default().push(id);
        }
        self.docs.push(key);
        self.raw.push(text.to_string());
    }

    /// Rebuild a fresh index from (key, text) pairs — used after removals,
    /// where doc ids shift and postings must be recomputed.
    fn rebuild_from(pairs: Vec<(Value, String)>) -> TextIndex {
        let mut idx = TextIndex::default();
        for (k, t) in pairs {
            idx.add(k, &t);
        }
        idx
    }

    /// Keys of the documents holding one term (the CQ integration path).
    fn lookup(&self, term: &str) -> Vec<Value> {
        let ids = self.postings.get(term).into_iter().flatten();
        ids.map(|doc| self.docs[*doc as usize].clone()).collect()
    }
}

/// The full-text store: named indexes.
#[derive(Debug, Default)]
pub struct TextStore {
    indexes: RwLock<HashMap<String, TextIndex>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
}

impl TextStore {
    /// A store with no simulated latency.
    pub fn new() -> TextStore {
        TextStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> TextStore {
        TextStore {
            latency,
            ..TextStore::default()
        }
    }

    /// Index `text` under `key` in `index` (created on demand).
    pub fn index_document(&self, index: &str, key: Value, text: &str) {
        self.indexes
            .write()
            .entry(index.to_string())
            .or_default()
            .add(key, text);
    }

    /// Remove documents from `index`: each `(key, text)` entry removes
    /// **one** document whose key and exact raw text match. The index is
    /// rebuilt once after the batch (doc ids shift, so postings are
    /// recomputed). Returns how many documents were removed. Admin path: no
    /// metrics or latency — like
    /// [`TextStore::index_document`].
    pub fn remove_documents(&self, index: &str, docs: &[(Value, String)]) -> usize {
        let mut guard = self.indexes.write();
        let Some(idx) = guard.get_mut(index) else {
            return 0;
        };
        let mut pairs: Vec<(Value, String)> = idx
            .docs
            .iter()
            .cloned()
            .zip(idx.raw.iter().cloned())
            .collect();
        let mut removed = 0;
        for (key, text) in docs {
            if let Some(pos) = pairs.iter().position(|(k, t)| k == key && t == text) {
                pairs.remove(pos);
                removed += 1;
            }
        }
        if removed > 0 {
            *idx = TextIndex::rebuild_from(pairs);
        }
        removed
    }

    /// Keys of documents containing `term` — the binding-restricted
    /// relational access path (`Contains(term, docKey)` with pattern `io`).
    pub fn term_lookup(&self, index: &str, term: &str) -> Vec<Value> {
        let guard = self.indexes.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let normalized = tokenize(term);
        let out = match (guard.get(index), normalized.first()) {
            (Some(idx), Some(t)) => idx.lookup(t),
            _ => Vec::new(),
        };
        let bytes: usize = out.iter().map(Value::approx_size).sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }

    /// Dump of an index's `(key, raw text)` documents in insertion order
    /// (admin path: no metrics, no latency). Empty for
    /// unknown indexes.
    pub fn documents(&self, index: &str) -> Vec<(Value, String)> {
        self.indexes
            .read()
            .get(index)
            .map(|i| i.docs.iter().cloned().zip(i.raw.iter().cloned()).collect())
            .unwrap_or_default()
    }

    /// Number of documents in an index.
    pub fn len(&self, index: &str) -> usize {
        self.indexes
            .read()
            .get(index)
            .map(|i| i.docs.len())
            .unwrap_or(0)
    }

    /// `true` when missing or empty.
    pub fn is_empty(&self, index: &str) -> bool {
        self.len(index) == 0
    }

    /// Names of all indexes.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes.read().keys().cloned().collect()
    }

    /// Drop an index; returns whether it existed.
    pub fn drop_index(&self, index: &str) -> bool {
        self.indexes.write().remove(index).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> TextStore {
        let s = TextStore::new();
        s.index_document(
            "catalog",
            Value::Int(1),
            "Wireless optical mouse with USB receiver",
        );
        s.index_document("catalog", Value::Int(2), "Mechanical keyboard, USB");
        s.index_document(
            "catalog",
            Value::Int(3),
            "Wireless keyboard and mouse combo bundle with numeric pad, palm rest and extra cables",
        );
        s
    }

    #[test]
    fn term_lookup_returns_all_keys() {
        let s = store();
        let mut keys = s.term_lookup("catalog", "usb");
        keys.sort();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
        assert!(s.term_lookup("catalog", "ghost").is_empty());
    }

    #[test]
    fn term_lookup_normalizes_case() {
        let s = store();
        assert_eq!(s.term_lookup("catalog", "USB").len(), 2);
    }

    #[test]
    fn missing_index_is_empty() {
        let s = store();
        assert!(s.term_lookup("ghost", "x").is_empty());
        assert!(s.is_empty("ghost"));
        assert_eq!(s.len("catalog"), 3);
    }

    #[test]
    fn remove_documents_rebuilds_the_index() {
        let s = store();
        let removed = s.remove_documents(
            "catalog",
            &[
                (
                    Value::Int(1),
                    "Wireless optical mouse with USB receiver".to_string(),
                ),
                (Value::Int(9), "no such document".to_string()),
            ],
        );
        assert_eq!(removed, 1);
        assert_eq!(s.len("catalog"), 2);
        // Postings were recomputed: "mouse" now only hits doc 3, "usb" doc 2.
        assert_eq!(s.term_lookup("catalog", "mouse"), vec![Value::Int(3)]);
        assert_eq!(s.term_lookup("catalog", "usb"), vec![Value::Int(2)]);
        assert_eq!(s.remove_documents("ghost", &[]), 0);
    }

    #[test]
    fn metrics_record_searches() {
        let s = store();
        s.term_lookup("catalog", "usb");
        s.term_lookup("catalog", "wireless");
        assert_eq!(s.metrics.snapshot().requests, 2);
    }
}
