//! # estocada-textstore
//!
//! An in-memory full-text store — the SOLR/Lucene stand-in. Documents
//! (keyed by an application value, e.g. product id) are tokenized into an
//! inverted index ([`estocada_pivot::Postings`]: term → documents), which
//! a removal patches in place. The pivot model exposes an index as a `(term, docKey)`
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

use estocada_pivot::hash::FastMap;
use estocada_pivot::{swap_remove, Postings, Value, Wanted};
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;

#[derive(Debug, Default)]
struct TextIndex {
    /// `(key, raw text)` per document, by internal doc id (the text is
    /// kept so documents can be removed by exact content).
    docs: Vec<(Value, String)>,
    /// term → ids of the documents holding it, ascending.
    postings: Postings<String>,
}

impl TextIndex {
    fn add(&mut self, key: Value, text: &str) {
        let id = self.docs.len();
        for term in tokenize(text) {
            self.postings.insert(term, id);
        }
        self.docs.push((key, text.to_string()));
    }

    /// Remove one document equal to each entry of `docs` (entries with none
    /// left are skipped), found by one scan; the last document fills each
    /// hole and the postings follow in place. Returns how many went.
    fn remove(&mut self, docs: &[(Value, String)]) -> usize {
        let found = Wanted::of(docs).claim(0..self.docs.len(), |id| &self.docs[id]);
        let postings = &mut self.postings;
        swap_remove(
            &mut self.docs,
            found.iter().copied(),
            |(_, text), from, to| {
                for term in tokenize(text) {
                    postings.relocate(term.as_str(), from, to);
                }
            },
        );
        found.len()
    }

    /// Keys of the documents holding one term (the CQ integration path).
    fn lookup(&self, term: &str) -> Vec<Value> {
        let ids = self.postings.get(term).iter();
        ids.map(|id| self.docs[*id].0.clone()).collect()
    }
}

/// The full-text store: named indexes.
#[derive(Debug, Default)]
pub struct TextStore {
    indexes: RwLock<FastMap<String, TextIndex>>,
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
    /// **one** document whose key and exact raw text match. The index's
    /// last document moves into each hole and the postings are patched in
    /// place, never rebuilt. Returns how many documents were removed. Admin
    /// path: no metrics or latency — like [`TextStore::index_document`].
    pub fn remove_documents(&self, index: &str, docs: &[(Value, String)]) -> usize {
        let mut guard = self.indexes.write();
        guard.get_mut(index).map_or(0, |idx| idx.remove(docs))
    }

    /// Keys of documents containing `term` — the binding-restricted
    /// relational access path (`Contains(term, docKey)` with pattern `io`).
    /// `None` when the store has no such index.
    pub fn term_lookup(&self, index: &str, term: &str) -> Option<Vec<Value>> {
        let guard = self.indexes.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let idx = guard.get(index)?;
        let normalized = tokenize(term);
        let out = normalized.first().map_or_else(Vec::new, |t| idx.lookup(t));
        let bytes: usize = out.iter().map(Value::approx_size).sum();
        timer.set_output(out.len() as u64, bytes as u64);
        Some(out)
    }

    /// Dump of an index's `(key, raw text)` documents in storage order
    /// (admin path: no metrics, no latency). Empty for unknown indexes.
    pub fn documents(&self, index: &str) -> Vec<(Value, String)> {
        let guard = self.indexes.read();
        guard.get(index).map(|i| i.docs.clone()).unwrap_or_default()
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
        let mut keys = s.term_lookup("catalog", "usb").unwrap();
        keys.sort();
        assert_eq!(keys, vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(s.term_lookup("catalog", "ghost"), Some(vec![]));
    }

    #[test]
    fn term_lookup_normalizes_case() {
        let s = store();
        assert_eq!(s.term_lookup("catalog", "USB").map(|k| k.len()), Some(2));
    }

    #[test]
    fn missing_index_is_empty() {
        // A missing index is told from an empty one: the store answers
        // `None`, and still charges the request.
        let s = store();
        assert_eq!(s.term_lookup("ghost", "x"), None);
        assert_eq!(s.metrics.snapshot().requests, 1);
        assert!(s.is_empty("ghost"));
        assert_eq!(s.len("catalog"), 3);
    }

    /// Every term of `index`'s documents, and one none holds, looked up
    /// through the postings and by a scan: both list the same keys.
    fn assert_postings_answer_like_a_scan(s: &TextStore, index: &str) {
        let docs = s.documents(index);
        let terms = docs.iter().flat_map(|(_, text)| tokenize(text));
        for term in terms.chain(["ghost".to_string()]) {
            let holding = docs
                .iter()
                .filter(|(_, text)| tokenize(text).contains(&term));
            let mut scan: Vec<Value> = holding.map(|(key, _)| key.clone()).collect();
            let mut found = s.term_lookup(index, &term).unwrap();
            scan.sort();
            found.sort();
            assert_eq!(found, scan, "term {term}");
        }
    }

    #[test]
    fn remove_documents_patches_the_postings() {
        let s = store();
        let mouse = || {
            let text = "Wireless optical mouse with USB receiver";
            (Value::Int(1), text.to_string())
        };
        // A second copy of document 1, and a document repeating its terms.
        s.index_document("catalog", mouse().0, &mouse().1);
        s.index_document("catalog", Value::Int(4), "usb usb hub, usb");
        let ghost = (Value::Int(9), "no such document".to_string());
        let removed = s.remove_documents("catalog", &[mouse(), ghost, mouse(), mouse()]);
        assert_eq!(removed, 2);
        assert_eq!(s.len("catalog"), 3);
        assert_postings_answer_like_a_scan(&s, "catalog");
        // "mouse" now only hits doc 3, "usb" docs 2 and 4.
        assert_eq!(s.term_lookup("catalog", "mouse"), Some(vec![Value::Int(3)]));
        let usb = |s: &TextStore| {
            let mut keys = s.term_lookup("catalog", "usb").unwrap();
            keys.sort();
            keys
        };
        assert_eq!(usb(&s), vec![Value::Int(2), Value::Int(4)]);
        let hub = (Value::Int(4), "usb usb hub, usb".to_string());
        assert_eq!(s.remove_documents("catalog", &[hub]), 1);
        assert_eq!(usb(&s), vec![Value::Int(2)]);
        assert_eq!(s.term_lookup("catalog", "hub"), Some(vec![]));
        assert_postings_answer_like_a_scan(&s, "catalog");
        assert_eq!(s.remove_documents("ghost", &[]), 0);
        // Emptied, then grown again.
        assert_eq!(s.remove_documents("catalog", &s.documents("catalog")), 2);
        s.index_document("catalog", Value::Int(5), "usb cable");
        assert_eq!(usb(&s), vec![Value::Int(5)]);
        assert_postings_answer_like_a_scan(&s, "catalog");
    }

    #[test]
    fn metrics_record_searches() {
        let s = store();
        s.term_lookup("catalog", "usb");
        s.term_lookup("catalog", "wireless");
        assert_eq!(s.metrics.snapshot().requests, 2);
    }
}
