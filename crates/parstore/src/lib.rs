//! # estocada-parstore
//!
//! A partitioned, multi-threaded, nested-relational store — the Spark
//! stand-in. Datasets are row partitions (rows may hold nested arrays of
//! objects); delegated subqueries run as parallel filter / broadcast hash
//! join / partial aggregation over the partitions; key indexes give the
//! point-lookup path used by the materialized-join fragment of the paper's
//! motivating scenario ("indexed by the user ID and product category").
//! Partition fan-out runs on the shared scoped-thread executor
//! ([`estocada_parexec`]), which merges worker results in partition order —
//! see [`ops`].
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![warn(missing_docs)]

pub mod dataset;
pub mod ops;

pub use dataset::{Dataset, KeyIndex};
pub use ops::{par_aggregate, par_filter, par_join, AggFun};

use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

/// Simple per-column predicate of the store's native scan API.
#[derive(Debug, Clone)]
pub struct ColPred {
    /// Column position.
    pub col: usize,
    /// Operator.
    pub op: ParOp,
    /// Comparison constant.
    pub value: Value,
}

/// Predicate operators of the parallel store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParOp {
    /// Equality.
    Eq,
    /// Strictly less.
    Lt,
    /// Strictly greater.
    Gt,
    /// Less or equal.
    Le,
    /// Greater or equal.
    Ge,
}

impl ColPred {
    fn eval(&self, row: &[Value]) -> bool {
        let v = &row[self.col];
        match self.op {
            ParOp::Eq => v == &self.value,
            ParOp::Lt => v < &self.value,
            ParOp::Gt => v > &self.value,
            ParOp::Le => v <= &self.value,
            ParOp::Ge => v >= &self.value,
        }
    }
}

/// The parallel store: named datasets.
#[derive(Debug, Default)]
pub struct ParStore {
    datasets: RwLock<HashMap<String, Arc<Dataset>>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
}

impl ParStore {
    /// A store with no simulated latency.
    pub fn new() -> ParStore {
        ParStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> ParStore {
        ParStore {
            latency,
            ..ParStore::default()
        }
    }

    /// Default partition count: one per available core, capped at 8.
    pub fn default_partitions() -> usize {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(8)
    }

    /// Create (or replace) a dataset.
    pub fn create_dataset(
        &self,
        name: &str,
        columns: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) {
        let ds = Dataset::from_rows(columns, rows, num_partitions);
        self.datasets.write().insert(name.to_string(), Arc::new(ds));
    }

    /// Build a key index over the named columns.
    pub fn build_key_index(&self, name: &str, columns: &[&str]) {
        let mut guard = self.datasets.write();
        let ds = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"));
        let cols: Vec<usize> = columns
            .iter()
            .map(|c| {
                ds.column_index(c)
                    .unwrap_or_else(|| panic!("unknown column {c} on {name}"))
            })
            .collect();
        Arc::make_mut(ds).build_key_index(cols);
    }

    /// Handle to a dataset.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.read().get(name).cloned()
    }

    /// The one way a dataset's rows change: remove **one** stored row per
    /// entry of `deletes` (entries with no match are skipped), then append
    /// `inserts` round-robin across the partitions, under one lock. Returns
    /// how many rows were removed.
    ///
    /// The dataset is mutated **in place**, at a cost proportional to the
    /// delta — deleted rows are found through the key index when one exists
    /// (an unindexed dataset is scanned once) and the index follows each
    /// change — unless a reader still holds a handle from
    /// [`ParStore::dataset`]: then the rows are copied once and the reader
    /// keeps its snapshot. A delta that changes nothing touches nothing. No
    /// physical row order is promised: a removed row's place is taken by the
    /// last row of its partition. Admin path: no metrics or latency.
    pub fn apply_delta(&self, name: &str, deletes: &[Vec<Value>], inserts: &[Vec<Value>]) -> usize {
        let mut guard = self.datasets.write();
        let ds = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown dataset {name}"));
        let found = ds.locate(deletes);
        if !(found.is_empty() && inserts.is_empty()) {
            let ds = Arc::make_mut(ds);
            ds.remove_at(&found);
            ds.append_rows(inserts.iter().cloned());
        }
        found.len()
    }

    /// Parallel scan with predicates and optional projection.
    pub fn scan(
        &self,
        name: &str,
        preds: &[ColPred],
        projection: Option<&[usize]>,
    ) -> Vec<Vec<Value>> {
        let Some(ds) = self.dataset(name) else {
            return Vec::new();
        };
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(ds.len() as u64);
        let out = ops::par_filter(&ds, &|row| preds.iter().all(|p| p.eval(row)), projection);
        let bytes: usize = out
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }

    /// Point lookup through the key index (plus residual predicates).
    pub fn lookup(&self, name: &str, key: &[Value], preds: &[ColPred]) -> Vec<Vec<Value>> {
        let Some(ds) = self.dataset(name) else {
            return Vec::new();
        };
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let out: Vec<Vec<Value>> = ds
            .index_lookup(key)
            .into_iter()
            .filter(|r| preds.iter().all(|p| p.eval(r)))
            .cloned()
            .collect();
        let bytes: usize = out
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }

    /// Parallel equi-join of two datasets (`left ++ right` output).
    pub fn join(
        &self,
        left: &str,
        right: &str,
        left_keys: &[&str],
        right_keys: &[&str],
    ) -> Vec<Vec<Value>> {
        let (Some(l), Some(r)) = (self.dataset(left), self.dataset(right)) else {
            return Vec::new();
        };
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned((l.len() + r.len()) as u64);
        let lk: Vec<usize> = left_keys
            .iter()
            .map(|c| l.column_index(c).expect("unknown left join column"))
            .collect();
        let rk: Vec<usize> = right_keys
            .iter()
            .map(|c| r.column_index(c).expect("unknown right join column"))
            .collect();
        let out = ops::par_join(&l, &r, &lk, &rk);
        let bytes: usize = out
            .iter()
            .map(|row| row.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }

    /// Parallel group-by aggregation.
    pub fn aggregate(
        &self,
        name: &str,
        group_by: &[&str],
        agg: AggFun,
        agg_col: &str,
    ) -> Vec<Vec<Value>> {
        let Some(ds) = self.dataset(name) else {
            return Vec::new();
        };
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(ds.len() as u64);
        let gb: Vec<usize> = group_by
            .iter()
            .map(|c| ds.column_index(c).expect("unknown group-by column"))
            .collect();
        let ac = ds.column_index(agg_col).expect("unknown aggregate column");
        let out = ops::par_aggregate(&ds, &gb, agg, ac);
        timer.set_output(out.len() as u64, 0);
        out
    }

    /// Row count of a dataset.
    pub fn len(&self, name: &str) -> usize {
        self.dataset(name).map(|d| d.len()).unwrap_or(0)
    }

    /// `true` when missing or empty.
    pub fn is_empty(&self, name: &str) -> bool {
        self.len(name) == 0
    }

    /// Drop a dataset; returns whether it existed.
    pub fn drop_dataset(&self, name: &str) -> bool {
        self.datasets.write().remove(name).is_some()
    }

    /// Names of all datasets.
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ParStore {
        let s = ParStore::new();
        s.create_dataset(
            "visits",
            &["user", "url", "revenue"],
            (0..1000).map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::str(format!("url{}", i % 10)),
                    Value::Double(i as f64 * 0.01),
                ]
            }),
            4,
        );
        s
    }

    #[test]
    fn scan_with_predicates() {
        let s = store();
        let out = s.scan(
            "visits",
            &[ColPred {
                col: 0,
                op: ParOp::Eq,
                value: Value::Int(7),
            }],
            Some(&[1]),
        );
        assert_eq!(out.len(), 10);
        assert!(s.metrics.snapshot().tuples_scanned >= 1000);
    }

    #[test]
    fn lookup_via_key_index() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let out = s.lookup("visits", &[Value::Int(7)], &[]);
        assert_eq!(out.len(), 10);
        // Residual predicate narrows further.
        let narrowed = s.lookup(
            "visits",
            &[Value::Int(7)],
            &[ColPred {
                col: 1,
                op: ParOp::Eq,
                value: Value::str("url7"),
            }],
        );
        assert_eq!(narrowed.len(), 10); // user 7 always hits url7
    }

    #[test]
    fn join_across_datasets() {
        let s = store();
        s.create_dataset(
            "users",
            &["uid", "tier"],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "gold" } else { "free" }),
                ]
            }),
            2,
        );
        let out = s.join("visits", "users", &["user"], &["uid"]);
        assert_eq!(out.len(), 1000);
        assert_eq!(out[0].len(), 5);
    }

    #[test]
    fn aggregate_by_group() {
        let s = store();
        let out = s.aggregate("visits", &["url"], AggFun::Count, "user");
        assert_eq!(out.len(), 10);
        for row in &out {
            assert_eq!(row[1], Value::Int(100));
        }
    }

    #[test]
    fn missing_dataset_yields_empty() {
        let s = store();
        assert!(s.scan("ghost", &[], None).is_empty());
        assert!(s.join("ghost", "visits", &[], &[]).is_empty());
        assert!(!s.drop_dataset("ghost"));
    }

    #[test]
    fn insert_and_delete_rows_swap_in_a_new_snapshot() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let before = s.dataset("visits").unwrap();
        let new = vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)];
        s.apply_delta("visits", &[], std::slice::from_ref(&new));
        // The pre-mutation handle still sees the old snapshot.
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1001);
        assert_eq!(s.lookup("visits", &[Value::Int(7)], &[]).len(), 11);
        let ghost = vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)];
        let removed = s.apply_delta("visits", &[new, ghost], &[]);
        assert_eq!(removed, 1);
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1000);
        assert_eq!(s.lookup("visits", &[Value::Int(7)], &[]).len(), 10);
    }

    #[test]
    fn deltas_mutate_in_place_and_empty_ones_touch_nothing() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let at = |s: &ParStore| Arc::as_ptr(&s.dataset("visits").unwrap());
        let home = at(&s);
        let new = vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)];
        let ghost = vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)];
        // No handle outstanding: same allocation before and after a write.
        s.apply_delta("visits", &[], std::slice::from_ref(&new));
        assert_eq!(s.apply_delta("visits", &[new, ghost.clone()], &[]), 1);
        assert_eq!((at(&s), s.len("visits")), (home, 1000));
        // A delta that changes nothing copies nothing, even under a reader.
        let reader = s.dataset("visits").unwrap();
        assert_eq!(s.apply_delta("visits", &[ghost], &[]), 0);
        assert_eq!(s.apply_delta("visits", &[], &[]), 0);
        assert_eq!(at(&s), home);
        drop(reader);
    }

    #[test]
    fn nested_rows_are_supported() {
        let s = ParStore::new();
        s.create_dataset(
            "history",
            &["user", "purchases"],
            vec![vec![
                Value::Int(1),
                Value::array([Value::object([("sku", Value::str("a"))])]),
            ]],
            2,
        );
        s.build_key_index("history", &["user"]);
        let out = s.lookup("history", &[Value::Int(1)], &[]);
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0][1], Value::Array(_)));
    }
}
