//! # estocada-parstore
//!
//! A partitioned, multi-threaded, nested-relational store — the Spark
//! stand-in. Datasets are row partitions (rows may hold nested arrays of
//! objects); delegated subqueries run as parallel filter / broadcast hash
//! join over the partitions; key indexes give the point-lookup path used by
//! the materialized-join fragment of the paper's motivating scenario
//! ("indexed by the user ID and product category"). Partition fan-out runs
//! on the shared scoped-thread executor ([`estocada_parexec`]), which
//! merges worker results in partition order — see [`ops`].
//!
//! The three read requests ([`ParStore::scan`], [`ParStore::lookup`],
//! [`ParStore::join`]) take a [`Shape`]: which columns of the selected rows
//! come back, whether each distinct row comes back once, and an optional
//! `GROUP BY`/aggregate/`HAVING` tail ([`GroupBy`]) evaluated beside the
//! data. A request naming a dataset or column the store does not have is a
//! [`ParError`] — never an empty answer.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dataset;
pub mod ops;

pub use dataset::{Dataset, KeyIndex};
pub use estocada_pivot::{AggFun, GroupBy};
pub use ops::{par_filter, par_filter_map, par_join, par_join_map};

use estocada_pivot::{agg, CmpOp, Value};
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
    pub op: CmpOp,
    /// Comparison constant.
    pub value: Value,
}

impl ColPred {
    fn eval(&self, row: &[Value]) -> bool {
        self.op.eval(&row[self.col], &self.value)
    }
}

/// Why a read request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParError {
    /// The request names a dataset the store does not hold.
    UnknownDataset(String),
    /// A join key names a column the dataset does not have.
    UnknownColumn {
        /// The dataset.
        dataset: String,
        /// The missing column.
        column: String,
    },
    /// A predicate, projection or grouping column position is out of range,
    /// or the join key lists differ in length.
    BadColumn,
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            ParError::UnknownColumn { dataset, column } => {
                write!(f, "unknown column {column} on {dataset}")
            }
            ParError::BadColumn => write!(f, "column reference out of range"),
        }
    }
}

impl std::error::Error for ParError {}

/// What a read request returns of the rows it selects.
#[derive(Debug, Clone, Default)]
pub struct Shape {
    /// Output columns, as positions in the selected row (for a join: in
    /// `left ++ right`); `None` returns every column.
    pub projection: Option<Vec<usize>>,
    /// Every distinct projected row once, in first-seen order.
    pub distinct: bool,
    /// Grouping tail over the projected rows, addressed by output position.
    /// It ranges over the **distinct** projected rows (the mediator's
    /// aggregate semantics, see [`estocada_pivot::agg`]), so it implies
    /// `distinct`.
    pub group: Option<GroupBy>,
}

impl Shape {
    /// Check every position against selected rows `width` columns wide.
    fn check(&self, width: usize) -> Result<(), ParError> {
        let cols = self.projection.as_deref();
        let projected = cols.map_or(width, <[usize]>::len);
        let fits = cols.is_none_or(|p| p.iter().all(|c| *c < width))
            && self.group.as_ref().is_none_or(|g| g.fits(projected));
        fits.then_some(()).ok_or(ParError::BadColumn)
    }

    /// Append one selected row's projected columns to `cells` by reference
    /// (`at` reads a column of the `width`-wide row): rows the answer drops
    /// are never cloned.
    fn project<'a>(
        &self,
        width: usize,
        at: impl Fn(usize) -> &'a Value,
        cells: &mut Vec<&'a Value>,
    ) {
        match &self.projection {
            Some(cols) => cells.extend(cols.iter().map(|c| at(*c))),
            None => cells.extend((0..width).map(at)),
        }
    }

    /// The answer from the projected rows — `cells`, flat in selection
    /// order (the order that makes grouped sums reproducible), of rows
    /// `width` wide before projection — charged to `timer`.
    fn answer(&self, width: usize, cells: &[&Value], timer: &mut RequestTimer) -> Vec<Vec<Value>> {
        let width = self.projection.as_ref().map_or(width, Vec::len);
        let out = agg::answer(width, cells, self.distinct, self.group.as_ref());
        let bytes: usize = out.iter().flatten().map(Value::approx_size).sum();
        timer.set_output(out.len() as u64, bytes as u64);
        out
    }
}

/// The shape as SQL over the selected rows' column positions — empty when
/// every column of every selected row comes back: `SELECT DISTINCT c2, c0`,
/// or a grouped `SELECT … FROM (SELECT DISTINCT …) s GROUP BY …`
/// ([`GroupBy::fmt_over`]).
impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let block = |f: &mut std::fmt::Formatter<'_>, distinct: bool| {
            write!(f, "SELECT {}", if distinct { "DISTINCT " } else { "" })?;
            match &self.projection {
                None => write!(f, "*"),
                Some(cols) => {
                    let names: Vec<String> = cols.iter().map(|c| format!("c{c}")).collect();
                    write!(f, "{}", names.join(", "))
                }
            }
        };
        match &self.group {
            Some(g) => g.fmt_over(f, |f| block(f, true)),
            None if self.distinct || self.projection.is_some() => block(f, self.distinct),
            None => Ok(()),
        }
    }
}

/// Predicate positions must exist in rows `width` columns wide.
fn check_preds(preds: &[ColPred], width: usize) -> Result<(), ParError> {
    let fits = preds.iter().all(|p| p.col < width);
    fits.then_some(()).ok_or(ParError::BadColumn)
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

    /// The dataset a read request names.
    fn request(&self, name: &str) -> Result<Arc<Dataset>, ParError> {
        self.dataset(name)
            .ok_or_else(|| ParError::UnknownDataset(name.to_string()))
    }

    /// Parallel scan: the rows passing `preds`, returned as `shape` says.
    pub fn scan(
        &self,
        name: &str,
        preds: &[ColPred],
        shape: &Shape,
    ) -> Result<Vec<Vec<Value>>, ParError> {
        let ds = self.request(name)?;
        let width = ds.columns.len();
        check_preds(preds, width)?;
        shape.check(width)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(ds.len() as u64);
        let cells = ops::par_filter_map(
            &ds,
            &|row| preds.iter().all(|p| p.eval(row)),
            |row, cells| shape.project(width, |c| &row[c], cells),
        );
        Ok(shape.answer(width, &cells, &mut timer))
    }

    /// Point lookup through the key index (plus residual predicates); an
    /// unindexed dataset has no row under any key.
    pub fn lookup(
        &self,
        name: &str,
        key: &[Value],
        preds: &[ColPred],
        shape: &Shape,
    ) -> Result<Vec<Vec<Value>>, ParError> {
        let ds = self.request(name)?;
        let width = ds.columns.len();
        check_preds(preds, width)?;
        shape.check(width)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let mut cells = Vec::new();
        for row in ds.index_lookup(key) {
            if preds.iter().all(|p| p.eval(row)) {
                shape.project(width, |c| &row[c], &mut cells);
            }
        }
        Ok(shape.answer(width, &cells, &mut timer))
    }

    /// Parallel equi-join of two datasets; `shape` addresses the joined
    /// row `left ++ right`.
    pub fn join(
        &self,
        left: &str,
        right: &str,
        left_keys: &[&str],
        right_keys: &[&str],
        shape: &Shape,
    ) -> Result<Vec<Vec<Value>>, ParError> {
        let (l, r) = (self.request(left)?, self.request(right)?);
        let key_cols = |ds: &Dataset, name: &str, keys: &[&str]| {
            let col = |c: &&str| {
                ds.column_index(c).ok_or_else(|| ParError::UnknownColumn {
                    dataset: name.to_string(),
                    column: c.to_string(),
                })
            };
            keys.iter().map(col).collect::<Result<Vec<usize>, _>>()
        };
        let (lk, rk) = (
            key_cols(&l, left, left_keys)?,
            key_cols(&r, right, right_keys)?,
        );
        if lk.len() != rk.len() {
            return Err(ParError::BadColumn);
        }
        let (lw, width) = (l.columns.len(), l.columns.len() + r.columns.len());
        shape.check(width)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned((l.len() + r.len()) as u64);
        let cells = ops::par_join_map(&l, &r, &lk, &rk, |lrow, rrow, cells| {
            let at = |c: usize| match c.checked_sub(lw) {
                Some(rc) => &rrow[rc],
                None => &lrow[c],
            };
            shape.project(width, at, cells)
        });
        Ok(shape.answer(width, &cells, &mut timer))
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
        let user7 = [ColPred {
            col: 0,
            op: CmpOp::Eq,
            value: Value::Int(7),
        }];
        let urls = Shape {
            projection: Some(vec![1]),
            ..Shape::default()
        };
        let out = s.scan("visits", &user7, &urls).unwrap();
        assert_eq!(out.len(), 10);
        // The same rows once each: user 7 always hits url7.
        let once = Shape {
            distinct: true,
            ..urls
        };
        assert_eq!(
            s.scan("visits", &user7, &once).unwrap(),
            vec![vec![Value::str("url7")]]
        );
        assert!(s.metrics.snapshot().tuples_scanned >= 1000);
    }

    #[test]
    fn lookup_via_key_index() {
        let s = store();
        s.build_key_index("visits", &["user"]);
        let all = Shape::default();
        let out = s.lookup("visits", &[Value::Int(7)], &[], &all).unwrap();
        assert_eq!(out.len(), 10);
        // Residual predicate narrows further.
        let url7 = [ColPred {
            col: 1,
            op: CmpOp::Eq,
            value: Value::str("url7"),
        }];
        let narrowed = s.lookup("visits", &[Value::Int(7)], &url7, &all);
        assert_eq!(narrowed.unwrap().len(), 10); // user 7 always hits url7
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
        let on = (&["user"][..], &["uid"][..]);
        let out = s.join("visits", "users", on.0, on.1, &Shape::default());
        let out = out.unwrap();
        assert_eq!(out.len(), 1000);
        assert_eq!(out[0].len(), 5);
        // The tail addresses `left ++ right`: visits per tier.
        let per_tier = Shape {
            projection: Some(vec![4, 2]),
            group: Some(GroupBy {
                keys: 1,
                aggs: vec![(AggFun::Count, 1)],
                having: Vec::new(),
            }),
            ..Shape::default()
        };
        assert_eq!(
            s.join("visits", "users", on.0, on.1, &per_tier).unwrap(),
            vec![
                vec![Value::str("gold"), Value::Int(500)],
                vec![Value::str("free"), Value::Int(500)],
            ]
        );
    }

    #[test]
    fn aggregate_by_group() {
        let s = store();
        // Per url, the distinct revenues (one per visit) counted beside the
        // data: ten groups come back, not a thousand rows.
        let per_url = Shape {
            projection: Some(vec![1, 2]),
            group: Some(GroupBy {
                keys: 1,
                aggs: vec![(AggFun::Count, 1)],
                having: Vec::new(),
            }),
            ..Shape::default()
        };
        let out = s.scan("visits", &[], &per_url).unwrap();
        assert_eq!(out.len(), 10);
        for row in &out {
            assert_eq!(row[1], Value::Int(100));
        }
        assert_eq!(s.metrics.snapshot().tuples_out, 10);
    }

    #[test]
    fn missing_datasets_and_columns_are_errors_not_empty_answers() {
        let s = store();
        let all = Shape::default();
        let ghost = Err(ParError::UnknownDataset("ghost".into()));
        assert_eq!(s.scan("ghost", &[], &all), ghost);
        assert_eq!(s.lookup("ghost", &[], &[], &all), ghost);
        assert_eq!(s.join("ghost", "visits", &[], &[], &all), ghost);
        assert_eq!(s.join("visits", "ghost", &[], &[], &all), ghost);
        assert!(!s.drop_dataset("ghost"));
        // An unknown join column is an error too — it used to panic.
        assert_eq!(
            s.join("visits", "visits", &["user"], &["nope"], &all),
            Err(ParError::UnknownColumn {
                dataset: "visits".into(),
                column: "nope".into()
            })
        );
        // So is any position outside the selected row.
        let wide = Shape {
            projection: Some(vec![3]),
            ..Shape::default()
        };
        assert_eq!(s.scan("visits", &[], &wide), Err(ParError::BadColumn));
        let grouped_wide = Shape {
            group: Some(GroupBy {
                keys: 4,
                aggs: Vec::new(),
                having: Vec::new(),
            }),
            ..Shape::default()
        };
        assert_eq!(
            s.scan("visits", &[], &grouped_wide),
            Err(ParError::BadColumn)
        );
        // No failed request was charged.
        assert_eq!(s.metrics.snapshot().requests, 0);
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
        let under7 = |s: &ParStore| {
            let rows = s.lookup("visits", &[Value::Int(7)], &[], &Shape::default());
            rows.unwrap().len()
        };
        assert_eq!(under7(&s), 11);
        let ghost = vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)];
        let removed = s.apply_delta("visits", &[new, ghost], &[]);
        assert_eq!(removed, 1);
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1000);
        assert_eq!(under7(&s), 10);
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
        let out = s.lookup("history", &[Value::Int(1)], &[], &Shape::default());
        let out = out.unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0][1], Value::Array(_)));
    }
}
