//! # estocada-docstore
//!
//! An in-memory document store — the MongoDB stand-in. Collections hold
//! JSON-like documents (`estocada_pivot::Value` trees); queries are
//! find-style conjunctive path filters ([`Filter`]) or richer tree-pattern
//! queries with bindings ([`DocQuery`]); secondary **path indexes**
//! accelerate equality clauses: each value a path reaches lists the
//! documents reaching it, each once ([`estocada_pivot::Postings`]), and a
//! removal patches them in place. The store supports *no joins* — exactly the
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

use estocada_pivot::hash::FastMap;
use estocada_pivot::{swap_remove, Postings, Value, Wanted};
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;

/// Tag matching array elements in tree patterns (mirrors the pivot
/// document encoding's `$item`).
pub const ITEM_TAG: &str = "$item";

#[derive(Debug, Default)]
struct Collection {
    docs: Vec<Value>,
    /// path → each value it reaches → the documents reaching it (each once,
    /// however often it reaches the value).
    indexes: FastMap<String, Postings<Value>>,
}

impl Collection {
    fn insert(&mut self, doc: Value) {
        let id = self.docs.len();
        for (path, idx) in self.indexes.iter_mut() {
            for v in path::eval_path(&doc, path) {
                idx.insert(v.clone(), id);
            }
        }
        self.docs.push(doc);
    }

    fn create_index(&mut self, path: &str) {
        let mut idx = Postings::default();
        for (id, doc) in self.docs.iter().enumerate() {
            for v in path::eval_path(doc, path) {
                idx.insert(v.clone(), id);
            }
        }
        self.indexes.insert(path.to_string(), idx);
    }

    /// Remove one stored document equal to each entry of `docs` (entries
    /// with none left are skipped), found by one scan; the last document
    /// fills each hole and every path index follows in place. Returns how
    /// many went.
    fn remove(&mut self, docs: &[Value]) -> usize {
        let found = Wanted::of(docs).claim(0..self.docs.len(), |id| &self.docs[id]);
        let indexes = &mut self.indexes;
        swap_remove(&mut self.docs, found.iter().copied(), |doc, from, to| {
            for (path, idx) in indexes.iter_mut() {
                for v in path::eval_path(doc, path) {
                    idx.relocate(v, from, to);
                }
            }
        });
        found.len()
    }
}

/// The document store.
#[derive(Debug, Default)]
pub struct DocStore {
    collections: RwLock<FastMap<String, Collection>>,
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
    /// instance per request). The collection's last document moves into
    /// each hole — no physical order is promised — and the path indexes
    /// are patched in place, never rebuilt. Returns how many documents were
    /// removed. Admin path: no metrics or latency — like
    /// [`DocStore::insert_many`].
    pub fn remove_docs(&self, collection: &str, docs: &[Value]) -> usize {
        let mut guard = self.collections.write();
        guard.get_mut(collection).map_or(0, |c| c.remove(docs))
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
    /// object. `None` when the store has no such collection.
    pub fn find(
        &self,
        collection: &str,
        filter: &Filter,
        projection: Option<&[&str]>,
    ) -> Option<Vec<Value>> {
        let guard = self.collections.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let coll = guard.get(collection)?;
        // Index-assisted candidate selection for the first equality clause.
        let candidates: Vec<usize> = match filter
            .first_eq()
            .and_then(|(p, v)| coll.indexes.get(p).map(|idx| (idx, v)))
        {
            Some((idx, v)) => idx.get(v).to_vec(),
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
        Some(out)
    }

    /// Run a tree-pattern query, returning its rows of bindings, one cell
    /// per column of [`DocQuery::columns`]. `None` when the store has no
    /// such collection.
    pub fn query(&self, q: &DocQuery) -> Option<Vec<Vec<Value>>> {
        let guard = self.collections.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let coll = guard.get(&q.collection)?;
        // Index assist: a top-level child-only chain ending in an equality
        // prunes candidates when a matching path index exists.
        let candidates: Vec<usize> = match index_opportunity(q)
            .and_then(|(p, v)| coll.indexes.get(&p).map(|idx| (idx, v)))
        {
            Some((idx, v)) => idx.get(&v).to_vec(),
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
        Some(rows)
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

    fn cart(i: i64) -> Value {
        let sku = Value::str(if i % 2 == 0 { "even" } else { "odd" });
        Value::object_owned([
            ("user".to_string(), Value::Int(i)),
            (
                "items".to_string(),
                Value::array([Value::object([("sku", sku)])]),
            ),
        ])
    }

    fn store() -> DocStore {
        let s = DocStore::new();
        s.insert_many("carts", (0..100).map(cart));
        s
    }

    #[test]
    fn find_with_scan() {
        let s = store();
        let out = s
            .find("carts", &Filter::all().eq("user", 7i64), None)
            .unwrap();
        assert_eq!(out.len(), 1);
        let m = s.metrics.snapshot();
        assert_eq!(m.tuples_scanned, 100); // no index → full scan
    }

    #[test]
    fn find_with_index_avoids_scan() {
        let s = store();
        s.create_index("carts", "user");
        let out = s
            .find("carts", &Filter::all().eq("user", 7i64), None)
            .unwrap();
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
        let out = out.unwrap();
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
        let rows = s.query(&q).unwrap();
        assert_eq!(q.columns(), vec!["s"]);
        assert_eq!(rows, vec![vec![Value::str("even")]]);
        assert_eq!(s.metrics.snapshot().tuples_scanned, 0);
    }

    #[test]
    fn index_updates_on_insert() {
        let s = store();
        s.create_index("carts", "user");
        s.insert("carts", Value::object([("user", Value::Int(999))]));
        let out = s
            .find("carts", &Filter::all().eq("user", 999i64), None)
            .unwrap();
        assert_eq!(out.len(), 1);
    }

    fn sorted<T: Ord>(mut items: Vec<T>) -> Vec<T> {
        items.sort();
        items
    }

    /// Through the path index on `path` and by a scan, `find` and the tree
    /// query's index assist answer alike — each document once — for every
    /// value `path` reaches in `collection` and for one none reaches.
    fn assert_index_answers_like_a_scan(s: &DocStore, collection: &str, path: &str) {
        let docs = s.scan(collection);
        let reached = docs.iter().flat_map(|d| eval_path(d, path)).cloned();
        let scanned = s.metrics.snapshot().tuples_scanned;
        for v in reached.chain([Value::str("ghost")]) {
            let filter = Filter::all().eq(path, v.clone());
            let scan = docs.iter().filter(|d| filter.matches(d)).cloned();
            let found = s.find(collection, &filter, None).unwrap();
            assert_eq!(sorted(found), sorted(scan.collect()), "find {path} = {v}");
            // The same equality as a child chain from the root.
            let mut segs = path.rsplit('.');
            let leaf = QueryNode::child(segs.next().unwrap_or(path)).eq(v.clone());
            let chain = segs.fold(leaf.bind("v"), |n, seg| QueryNode::child(seg).with(n));
            let q = DocQuery::new(collection).with(chain);
            let scan = docs.iter().flat_map(|d| q.match_document(d));
            let rows = s.query(&q).unwrap();
            assert_eq!(sorted(rows), sorted(scan.collect()), "query {path} = {v}");
        }
        let now = s.metrics.snapshot().tuples_scanned;
        assert_eq!(now, scanned, "an indexed read scanned");
    }

    #[test]
    fn a_document_reaching_a_value_twice_is_found_once() {
        let s = DocStore::new();
        let sku = |v: &str| Value::object([("sku", Value::str(v))]);
        let items = |skus: &[&str]| {
            let items = Value::array(skus.iter().map(|v| sku(v)));
            Value::object([("items", items)])
        };
        let (twice, once) = (items(&["a", "b", "a"]), items(&["b"]));
        s.insert_many("c", [twice.clone(), once.clone(), sku("a")]);
        s.create_index("c", "items.sku");
        let items_a = Filter::all().eq("items.sku", "a");
        assert_eq!(s.find("c", &items_a, None), Some(vec![twice.clone()]));
        assert_index_answers_like_a_scan(&s, "c", "items.sku");
        // Deleting it forgets the value, though the document reached it twice.
        assert_eq!(s.remove_docs("c", &[twice]), 1);
        assert_eq!(s.find("c", &items_a, None), Some(vec![]));
        assert_index_answers_like_a_scan(&s, "c", "items.sku");
    }

    #[test]
    fn remove_docs_takes_one_instance_and_patches_indexes() {
        let s = store();
        s.create_index("carts", "user");
        s.create_index("carts", "items.sku");
        let user = |i: i64| {
            let doc = s.find("carts", &Filter::all().eq("user", i), None);
            doc.unwrap().pop().unwrap()
        };
        let (first, seventh, last) = (user(0), user(7), user(99));
        // A second copy of one document: the batch takes one instance each.
        s.insert("carts", seventh.clone());
        let gone = [seventh.clone(), first, last, seventh.clone(), seventh];
        assert_eq!(s.remove_docs("carts", &gone), 4);
        assert_eq!(s.len("carts"), 97);
        for path in ["user", "items.sku"] {
            assert_index_answers_like_a_scan(&s, "carts", path);
        }
        // Documents moved into the holes are still found; the deleted not.
        let user_is = |i: i64| s.find("carts", &Filter::all().eq("user", i), None);
        assert_eq!(user_is(7), Some(vec![]));
        assert_eq!(user_is(98).map(|found| found.len()), Some(1));
        // Unknown document / collection: no-ops.
        assert_eq!(s.remove_docs("carts", &[Value::Int(42)]), 0);
        assert_eq!(s.remove_docs("ghost", &[user(1)]), 0);
        // Emptied, then grown again.
        assert_eq!(s.remove_docs("carts", &s.scan("carts")), 97);
        s.insert("carts", cart(5));
        assert_index_answers_like_a_scan(&s, "carts", "user");
    }

    #[test]
    fn missing_collection_is_empty() {
        // A missing collection is told from an empty one: the store answers
        // `None`, and still charges the request.
        let s = store();
        assert_eq!(s.find("ghost", &Filter::all(), None), None);
        assert_eq!(s.query(&DocQuery::new("ghost")), None);
        assert_eq!(s.metrics.snapshot().requests, 2);
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
