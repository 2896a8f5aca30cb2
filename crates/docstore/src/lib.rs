//! # estocada-docstore
//!
//! An in-memory document store — the MongoDB stand-in. Collections hold
//! JSON-like documents (`estocada_pivot::Value` trees); queries are
//! find-style conjunctive path filters ([`Filter`]) or richer tree-pattern
//! queries with bindings ([`DocQuery`]); secondary **path indexes**
//! accelerate equality clauses. The store supports *no joins* — exactly the
//! capability gap that forces ESTOCADA's runtime to evaluate cross-fragment
//! joins itself.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filter;
pub mod path;
pub mod query;

pub use filter::{Cond, Filter};
pub use path::{eval_path, eval_path_first};
pub use query::{DocQuery, QAxis, QueryNode};

use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;

/// Tag matching array elements in tree patterns (mirrors the pivot
/// document encoding's `$item`).
pub const ITEM_TAG: &str = "$item";

#[derive(Debug, Default)]
struct Collection {
    docs: Vec<Value>,
    /// path → value → doc ids.
    indexes: HashMap<String, HashMap<Value, Vec<usize>>>,
}

impl Collection {
    fn insert(&mut self, doc: Value) {
        let id = self.docs.len();
        for (path, idx) in self.indexes.iter_mut() {
            for v in path::eval_path(&doc, path) {
                idx.entry(v.clone()).or_default().push(id);
            }
        }
        self.docs.push(doc);
    }

    fn create_index(&mut self, path: &str) {
        let mut idx: HashMap<Value, Vec<usize>> = HashMap::new();
        for (id, doc) in self.docs.iter().enumerate() {
            for v in path::eval_path(doc, path) {
                idx.entry(v.clone()).or_default().push(id);
            }
        }
        self.indexes.insert(path.to_string(), idx);
    }

    /// Remove the first document equal to `doc`; returns whether one was
    /// removed. Doc ids shift, so every path index is rebuilt by the
    /// caller afterwards.
    fn remove_first(&mut self, doc: &Value) -> bool {
        match self.docs.iter().position(|d| d == doc) {
            Some(pos) => {
                self.docs.remove(pos);
                true
            }
            None => false,
        }
    }

    fn rebuild_indexes(&mut self) {
        let paths: Vec<String> = self.indexes.keys().cloned().collect();
        for p in paths {
            self.create_index(&p);
        }
    }
}

/// The document store.
#[derive(Debug, Default)]
pub struct DocStore {
    collections: RwLock<HashMap<String, Collection>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
}

impl DocStore {
    /// A store with no simulated latency.
    pub fn new() -> DocStore {
        DocStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> DocStore {
        DocStore {
            latency,
            ..DocStore::default()
        }
    }

    /// Insert one document into `collection` (created on demand).
    pub fn insert(&self, collection: &str, doc: Value) {
        self.collections
            .write()
            .entry(collection.to_string())
            .or_default()
            .insert(doc);
    }

    /// Bulk insert.
    pub fn insert_many(&self, collection: &str, docs: impl IntoIterator<Item = Value>) {
        let mut guard = self.collections.write();
        let c = guard.entry(collection.to_string()).or_default();
        for d in docs {
            c.insert(d);
        }
    }

    /// Remove documents from `collection`: each entry of `docs` removes
    /// **one** stored document equal to it (duplicates are removed one
    /// instance per request). Path indexes are rebuilt once after the
    /// batch. Returns how many documents were removed. Admin path: no
    /// metrics or latency — like [`DocStore::insert_many`].
    pub fn remove_docs(&self, collection: &str, docs: &[Value]) -> usize {
        let mut guard = self.collections.write();
        let Some(c) = guard.get_mut(collection) else {
            return 0;
        };
        let mut removed = 0;
        for d in docs {
            if c.remove_first(d) {
                removed += 1;
            }
        }
        if removed > 0 {
            c.rebuild_indexes();
        }
        removed
    }

    /// Create a path index on `collection`.
    pub fn create_index(&self, collection: &str, path: &str) {
        self.collections
            .write()
            .entry(collection.to_string())
            .or_default()
            .create_index(path);
    }

    /// Find documents matching `filter`; `projection` (if given) restricts
    /// each result to the first value of the listed paths, packed as an
    /// object.
    pub fn find(
        &self,
        collection: &str,
        filter: &Filter,
        projection: Option<&[&str]>,
    ) -> Vec<Value> {
        let guard = self.collections.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let Some(coll) = guard.get(collection) else {
            timer.set_output(0, 0);
            return Vec::new();
        };
        // Index-assisted candidate selection for the first equality clause.
        let candidates: Vec<usize> = match filter
            .first_eq()
            .and_then(|(p, v)| coll.indexes.get(p).map(|idx| (idx, v)))
        {
            Some((idx, v)) => idx.get(v).cloned().unwrap_or_default(),
            None => {
                timer.add_scanned(coll.docs.len() as u64);
                (0..coll.docs.len()).collect()
            }
        };
        let mut out = Vec::new();
        for id in candidates {
            let doc = &coll.docs[id];
            if filter.matches(doc) {
                out.push(match projection {
                    None => doc.clone(),
                    Some(paths) => Value::object_owned(paths.iter().map(|p| {
                        (
                            p.to_string(),
                            path::eval_path_first(doc, p)
                                .cloned()
                                .unwrap_or(Value::Null),
                        )
                    })),
                });
            }
        }
        let bytes: usize = out.iter().map(Value::approx_size).sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }

    /// Run a tree-pattern query, returning `(columns, rows)` of bindings.
    pub fn query(&self, q: &DocQuery) -> (Vec<String>, Vec<Vec<Value>>) {
        let guard = self.collections.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let columns = q.columns();
        let Some(coll) = guard.get(&q.collection) else {
            timer.set_output(0, 0);
            return (columns, Vec::new());
        };
        // Index assist: a top-level child-only chain ending in an equality
        // prunes candidates when a matching path index exists.
        let candidates: Vec<usize> = match index_opportunity(q)
            .and_then(|(p, v)| coll.indexes.get(&p).map(|idx| (idx, v)))
        {
            Some((idx, v)) => idx.get(&v).cloned().unwrap_or_default(),
            None => {
                timer.add_scanned(coll.docs.len() as u64);
                (0..coll.docs.len()).collect()
            }
        };
        let mut rows = Vec::new();
        for id in candidates {
            rows.extend(q.match_document(&coll.docs[id]));
        }
        let bytes: usize = rows
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(rows.len() as u64, bytes as u64);
        (columns, rows)
    }

    /// Document count (statistics path).
    pub fn len(&self, collection: &str) -> usize {
        self.collections
            .read()
            .get(collection)
            .map(|c| c.docs.len())
            .unwrap_or(0)
    }

    /// `true` when missing or empty.
    pub fn is_empty(&self, collection: &str) -> bool {
        self.len(collection) == 0
    }

    /// Full scan (admin path for materialization / statistics).
    pub fn scan(&self, collection: &str) -> Vec<Value> {
        self.collections
            .read()
            .get(collection)
            .map(|c| c.docs.clone())
            .unwrap_or_default()
    }

    /// Drop a collection; returns whether it existed.
    pub fn drop_collection(&self, collection: &str) -> bool {
        self.collections.write().remove(collection).is_some()
    }

    /// Names of all collections.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }
}

/// A child-only chain from the root ending in an `eq` constant yields
/// `(dotted path, constant)` — the index opportunity of a tree query.
fn index_opportunity(q: &DocQuery) -> Option<(String, Value)> {
    for root in &q.roots {
        let mut segs = Vec::new();
        let mut node = root;
        loop {
            if node.axis != QAxis::Child || node.tag == ITEM_TAG {
                break;
            }
            segs.push(node.tag.clone());
            if let Some(v) = &node.eq {
                return Some((segs.join("."), v.clone()));
            }
            if node.children.len() != 1 {
                break;
            }
            node = &node.children[0];
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> DocStore {
        let s = DocStore::new();
        s.insert_many(
            "carts",
            (0..100).map(|i| {
                Value::object_owned([
                    ("user".to_string(), Value::Int(i)),
                    (
                        "items".to_string(),
                        Value::array([Value::object([(
                            "sku",
                            Value::str(if i % 2 == 0 { "even" } else { "odd" }),
                        )])]),
                    ),
                ])
            }),
        );
        s
    }

    #[test]
    fn find_with_scan() {
        let s = store();
        let out = s.find("carts", &Filter::all().eq("user", 7i64), None);
        assert_eq!(out.len(), 1);
        let m = s.metrics.snapshot();
        assert_eq!(m.tuples_scanned, 100); // no index → full scan
    }

    #[test]
    fn find_with_index_avoids_scan() {
        let s = store();
        s.create_index("carts", "user");
        let out = s.find("carts", &Filter::all().eq("user", 7i64), None);
        assert_eq!(out.len(), 1);
        assert_eq!(s.metrics.snapshot().tuples_scanned, 0);
    }

    #[test]
    fn find_with_projection() {
        let s = store();
        let out = s.find(
            "carts",
            &Filter::all().eq("user", 3i64),
            Some(&["items.sku"]),
        );
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get("items.sku"), Some(&Value::str("odd")));
    }

    #[test]
    fn tree_query_with_index_assist() {
        let s = store();
        s.create_index("carts", "user");
        let q = DocQuery::new("carts")
            .with(QueryNode::child("user").eq(8i64))
            .with(QueryNode::descendant("sku").bind("s"));
        let (cols, rows) = s.query(&q);
        assert_eq!(cols, vec!["s"]);
        assert_eq!(rows, vec![vec![Value::str("even")]]);
        assert_eq!(s.metrics.snapshot().tuples_scanned, 0);
    }

    #[test]
    fn index_updates_on_insert() {
        let s = store();
        s.create_index("carts", "user");
        s.insert("carts", Value::object([("user", Value::Int(999))]));
        let out = s.find("carts", &Filter::all().eq("user", 999i64), None);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn remove_docs_takes_one_instance_and_rebuilds_indexes() {
        let s = store();
        s.create_index("carts", "user");
        let doc = s
            .find("carts", &Filter::all().eq("user", 7i64), None)
            .pop()
            .unwrap();
        assert_eq!(s.remove_docs("carts", std::slice::from_ref(&doc)), 1);
        assert_eq!(s.len("carts"), 99);
        // Indexed lookup still correct after the id shift.
        assert!(s
            .find("carts", &Filter::all().eq("user", 7i64), None)
            .is_empty());
        let out = s.find("carts", &Filter::all().eq("user", 99i64), None);
        assert_eq!(out.len(), 1);
        assert_eq!(s.metrics.snapshot().tuples_scanned, 0);
        // Unknown document / collection: no-ops.
        assert_eq!(s.remove_docs("carts", &[Value::Int(42)]), 0);
        assert_eq!(s.remove_docs("ghost", &[doc]), 0);
    }

    #[test]
    fn missing_collection_is_empty() {
        let s = store();
        assert!(s.find("ghost", &Filter::all(), None).is_empty());
        assert!(s.is_empty("ghost"));
        assert!(!s.drop_collection("ghost"));
    }

    #[test]
    fn index_opportunity_detection() {
        let q =
            DocQuery::new("c").with(QueryNode::child("user").with(QueryNode::child("id").eq(5i64)));
        assert_eq!(
            index_opportunity(&q),
            Some(("user.id".to_string(), Value::Int(5)))
        );
        let q2 = DocQuery::new("c").with(QueryNode::descendant("sku").eq("a"));
        assert_eq!(index_opportunity(&q2), None);
    }
}
