//! # estocada-parstore
//!
//! A partitioned, multi-threaded, nested-relational store — the Spark
//! stand-in. Datasets are row partitions (rows may hold nested arrays of
//! objects); delegated subqueries run as parallel filter / broadcast hash
//! join over the partitions. A dataset keyed at creation keeps each key's
//! rows together, one block in one partition ([`Dataset`]): that is the
//! point-lookup path used by the materialized-join fragment of the paper's
//! motivating scenario ("indexed by the user ID and product category"),
//! and a delta touches only the blocks of the keys it names. An unkeyed
//! dataset can be keyed later, in place ([`ParStore::key_dataset`]): it is
//! rebuilt into the layout a fill keyed on that column builds — Spark's
//! partition pruning, asked for by the scans that paid for its absence. A
//! dataset keyed after its fill concentrates a later full scan on the
//! partitions its keys hash to: a column of few distinct values leaves some
//! partitions with most rows and others with none. Partition
//! fan-out runs on the shared scoped-thread executor ([`estocada_parexec`]),
//! which merges worker results in partition order — see [`par_filter`].
//!
//! The three read requests ([`ParStore::scan`], [`ParStore::lookup`],
//! [`ParStore::join`]) take a [`Shape`]: which columns of the selected rows
//! come back, whether each distinct row comes back once, and an optional
//! `GROUP BY`/aggregate/`HAVING` tail ([`GroupBy`]) evaluated beside the
//! data by the shared kernel ([`estocada_pivot::kernel`]). Rows are held
//! and answered as interned cells. A request naming a dataset or column
//! the store does not have, or a write of another arity, is a
//! [`ParError`] — never an empty answer or a panic.
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dataset;
mod ops;

pub use dataset::Dataset;
pub use estocada_pivot::{AggFun, GroupBy};
pub use ops::{par_filter, par_join};

use estocada_pivot::hash::FastMap;
use estocada_pivot::kernel::{self, RowFilter};
use estocada_pivot::{CmpOp, ConstReader, IdRows, Value};
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};
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

/// The conjunction of `preds` over interned rows.
fn filter<'r>(preds: &[ColPred], reader: &'r ConstReader) -> RowFilter<'r> {
    RowFilter::new(preds.iter().map(|p| (p.col, p.op, &p.value)), reader)
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
    /// the join key lists differ in length, or a lookup key's arity differs
    /// from the key index's.
    BadColumn,
    /// A written row's arity differs from the dataset's.
    Arity {
        /// The dataset's arity.
        expected: usize,
        /// The row's.
        got: usize,
    },
    /// A lookup names a dataset that has no key: no block answers it, and
    /// an empty answer would pass for "no row holds the key".
    Unkeyed(String),
}

impl std::fmt::Display for ParError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParError::UnknownDataset(d) => write!(f, "unknown dataset {d}"),
            ParError::UnknownColumn { dataset, column } => {
                write!(f, "unknown column {column} on {dataset}")
            }
            ParError::BadColumn => write!(f, "column reference out of range"),
            ParError::Arity { expected, got } => {
                write!(f, "a row of {got} columns in a dataset of {expected}")
            }
            ParError::Unkeyed(d) => write!(f, "lookup on dataset {d}, which has no key"),
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
    /// Check every position, `preds`' too, against selected rows `width`
    /// columns wide.
    fn check(&self, width: usize, preds: &[ColPred]) -> Result<(), ParError> {
        let cols = self.projection.as_deref();
        let projected = cols.map_or(width, <[usize]>::len);
        let fits = cols.is_none_or(|p| p.iter().all(|c| *c < width))
            && self.group.as_ref().is_none_or(|g| g.fits(projected))
            && preds.iter().all(|p| p.col < width);
        fits.then_some(()).ok_or(ParError::BadColumn)
    }

    /// The answer from the selected rows, `projected` in selection order
    /// (the order that makes grouped sums reproducible), charged to
    /// `timer`.
    fn answer(&self, projected: IdRows, timer: &mut RequestTimer) -> IdRows {
        let out = kernel::answer(projected, self.distinct, self.group.as_ref());
        timer.set_output(out.len as u64, out.approx_size() as u64);
        out
    }
}

/// The shape as SQL over the selected rows' column positions — empty when
/// every column of every selected row comes back: `SELECT DISTINCT c2, c0`,
/// or a grouped `SELECT … FROM (SELECT DISTINCT …) s GROUP BY …`
/// ([`GroupBy::fmt_over`]).
impl std::fmt::Display for Shape {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names = |cols: &Vec<usize>| cols.iter().map(|c| format!("c{c}")).collect::<Vec<_>>();
        let cols = self.projection.as_ref().map(|c| names(c).join(", "));
        let cols = cols.unwrap_or_else(|| "*".into());
        let block = |f: &mut std::fmt::Formatter<'_>, distinct: bool| {
            let distinct = if distinct { "DISTINCT " } else { "" };
            write!(f, "SELECT {distinct}{cols}")
        };
        match &self.group {
            Some(g) => g.fmt_over(f, |f| block(f, true)),
            None if self.distinct || self.projection.is_some() => block(f, self.distinct),
            None => Ok(()),
        }
    }
}

/// The error of a request naming dataset `name`, which the store lacks.
fn unknown(name: &str) -> ParError {
    ParError::UnknownDataset(name.to_string())
}

/// The positions of `wanted` among dataset `name`'s `columns`.
fn positions(
    columns: &[impl AsRef<str>],
    name: &str,
    wanted: &[&str],
) -> Result<Vec<usize>, ParError> {
    let col = |c: &&str| {
        let at = columns.iter().position(|have| have.as_ref() == *c);
        at.ok_or_else(|| ParError::UnknownColumn {
            dataset: name.to_string(),
            column: c.to_string(),
        })
    };
    wanted.iter().map(col).collect()
}

/// The parallel store: named datasets.
#[derive(Debug, Default)]
pub struct ParStore {
    datasets: RwLock<FastMap<String, Arc<Dataset>>>,
    /// Operation metrics.
    pub metrics: StoreMetrics,
    latency: LatencyModel,
    /// Bumped by every change to which keys exist: a dataset keyed, created
    /// or dropped. The bump (`Release`) follows the change under the
    /// datasets' write lock, so a reader that loads (`Acquire`) a
    /// generation and then reads [`ParStore::key_columns`] sees at least
    /// the keys of that generation.
    index_generation: AtomicU64,
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

    /// Create (or replace) a dataset, keyed on the `key` columns (unkeyed
    /// when empty: then a lookup is [`ParError::Unkeyed`]). A key naming no
    /// column is [`ParError::UnknownColumn`] and a row of another arity
    /// than `columns` [`ParError::Arity`], and then nothing is created.
    pub fn create_dataset(
        &self,
        name: &str,
        columns: &[&str],
        key: &[&str],
        rows: impl IntoIterator<Item = Vec<Value>>,
        num_partitions: usize,
    ) -> Result<(), ParError> {
        let key = positions(columns, name, key)?;
        let ds = Dataset::from_rows(columns, &key, rows, num_partitions)?;
        let mut datasets = self.datasets.write();
        datasets.insert(name.to_string(), Arc::new(ds));
        self.index_generation.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Key the unkeyed dataset `name` on column `column` (a position), as a
    /// request: the dataset is rebuilt into the one a fill keyed on that
    /// column builds from its rows in scan order, over as many partitions
    /// — so a lookup of a key answers what a scan selecting it answered, in
    /// the same order — and building reads every row, charged and metered
    /// as one request that scans the dataset. A reader holding a handle from
    /// [`ParStore::dataset`] keeps its snapshot. Returns whether this call
    /// keyed the dataset; one that finds it keyed (at its creation, or by
    /// an earlier or a concurrent call) changes and charges nothing — a
    /// key is never replaced.
    pub fn key_dataset(&self, name: &str, column: usize) -> Result<bool, ParError> {
        let scanned = {
            let mut datasets = self.datasets.write();
            let ds = datasets.get_mut(name).ok_or_else(|| unknown(name))?;
            if column >= ds.columns.len() {
                return Err(ParError::BadColumn);
            }
            if !ds.key_columns().is_empty() {
                return Ok(false);
            }
            *ds = Arc::new(ds.keyed_on(&[column])?);
            self.index_generation.fetch_add(1, Ordering::Release);
            ds.len()
        };
        // Charged (when it drops) once the datasets are unlocked: readers
        // do not wait out the simulated latency.
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(scanned as u64);
        Ok(true)
    }

    /// Positions of the key columns of dataset `name` (none when it is
    /// unkeyed or the store does not hold it).
    pub fn key_columns(&self, name: &str) -> Vec<usize> {
        let datasets = self.datasets.read();
        let key = datasets.get(name).map(|ds| ds.key_columns().to_vec());
        key.unwrap_or_default()
    }

    /// The generation of the store's keys: it moves whenever a dataset is
    /// keyed, created or dropped, so a plan priced from
    /// [`ParStore::key_columns`] knows when to price again.
    pub fn index_generation(&self) -> u64 {
        self.index_generation.load(Ordering::Acquire)
    }

    /// Handle to a dataset.
    pub fn dataset(&self, name: &str) -> Option<Arc<Dataset>> {
        self.datasets.read().get(name).cloned()
    }

    /// The one way a dataset's rows change: remove **one** stored row per
    /// entry of `deletes` (entries with no match are skipped), then append
    /// `inserts`, under one lock; both are interned rows, their cells stored
    /// as they are. Returns how many rows were removed.
    ///
    /// The dataset is mutated **in place**, at a cost proportional to the
    /// delta and the blocks it touches — a keyed dataset finds deleted rows
    /// in their keys' blocks alone and appends each insert to its key's
    /// block (an unkeyed dataset is scanned once per delete batch, and
    /// takes inserts round-robin) — unless a reader still holds a handle
    /// from [`ParStore::dataset`]: then the rows are copied once and the
    /// reader keeps its snapshot. A delta that changes nothing touches
    /// nothing. No physical row order is promised within a block: a removed
    /// row's place is taken by the last row of its block, so no row of
    /// another key moves. A delete of another width than the dataset's
    /// removes nothing; an insert of another width is [`ParError::Arity`],
    /// and then nothing changes. Admin path: no metrics or latency.
    pub fn apply_delta_ids(
        &self,
        name: &str,
        deletes: &IdRows,
        inserts: &IdRows,
    ) -> Result<usize, ParError> {
        let mut guard = self.datasets.write();
        let ds = guard.get_mut(name).ok_or_else(|| unknown(name))?;
        let expected = ds.columns.len();
        if inserts.width != expected {
            let got = inserts.width;
            return Err(ParError::Arity { expected, got });
        }
        let claims = ds.claim(deletes);
        let removed = claims.iter().map(|(_, _, found)| found.len()).sum();
        if !(claims.is_empty() && inserts.len == 0) {
            let ds = Arc::make_mut(ds);
            ds.take(claims);
            ds.append_ids(inserts)?;
        }
        Ok(removed)
    }

    /// The dataset a read request names.
    fn request(&self, name: &str) -> Result<Arc<Dataset>, ParError> {
        self.dataset(name).ok_or_else(|| unknown(name))
    }

    /// Parallel scan: the rows passing `preds`, returned as `shape` says.
    pub fn scan(&self, name: &str, preds: &[ColPred], shape: &Shape) -> Result<IdRows, ParError> {
        let ds = self.request(name)?;
        let width = ds.columns.len();
        shape.check(width, preds)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(ds.len() as u64);
        let projected = {
            let reader = ConstReader::new();
            let preds = filter(preds, &reader);
            ops::par_filter(&ds, &|row| preds.pass(row), shape.projection.as_deref())
        };
        Ok(shape.answer(projected, &mut timer))
    }

    /// Point lookup of the key's rows (plus residual predicates). A lookup
    /// on an unkeyed dataset is [`ParError::Unkeyed`], and one whose key is
    /// of another arity than the dataset's [`ParError::BadColumn`].
    pub fn lookup(
        &self,
        name: &str,
        key: &[Value],
        preds: &[ColPred],
        shape: &Shape,
    ) -> Result<IdRows, ParError> {
        let ds = self.request(name)?;
        let width = ds.columns.len();
        match ds.key_columns().len() {
            0 => return Err(ParError::Unkeyed(name.to_string())),
            n if n != key.len() => return Err(ParError::BadColumn),
            _ => {}
        }
        shape.check(width, preds)?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let projected = {
            let reader = ConstReader::new();
            let preds = filter(preds, &reader);
            let rows = ds.index_lookup(key).filter(|row| preds.pass(row));
            ops::project(rows, shape.projection.as_deref(), width)
        };
        Ok(shape.answer(projected, &mut timer))
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
    ) -> Result<IdRows, ParError> {
        let (l, r) = (self.request(left)?, self.request(right)?);
        let lk = positions(&l.columns, left, left_keys)?;
        let rk = positions(&r.columns, right, right_keys)?;
        if lk.len() != rk.len() {
            return Err(ParError::BadColumn);
        }
        let width = l.columns.len() + r.columns.len();
        shape.check(width, &[])?;
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned((l.len() + r.len()) as u64);
        let projected = ops::par_join(&l, &r, &lk, &rk, shape.projection.as_deref());
        Ok(shape.answer(projected, &mut timer))
    }

    /// Row count of a dataset.
    pub fn len(&self, name: &str) -> usize {
        self.dataset(name).map(|d| d.len()).unwrap_or(0)
    }

    /// Drop a dataset; returns whether it existed.
    pub fn drop_dataset(&self, name: &str) -> bool {
        let dropped = self.datasets.write().remove(name).is_some();
        if dropped {
            self.index_generation.fetch_add(1, Ordering::Release);
        }
        dropped
    }

    /// Names of all datasets.
    pub fn dataset_names(&self) -> Vec<String> {
        self.datasets.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::kernel::held;

    impl ParStore {
        /// [`ParStore::apply_delta_ids`] of value rows.
        fn apply_delta(
            &self,
            name: &str,
            deletes: &[Vec<Value>],
            inserts: &[Vec<Value>],
        ) -> Result<usize, ParError> {
            let arity = self.request(name)?.columns.len();
            let inserts = dataset::interned(inserts, arity)?;
            self.apply_delta_ids(name, &held(deletes, arity), &inserts)
        }
    }

    /// A read's rows, resolved to values.
    fn values(rows: Result<IdRows, ParError>) -> Result<Vec<Vec<Value>>, ParError> {
        rows.map(|r| r.to_values())
    }

    /// `visits`, unkeyed.
    fn store() -> ParStore {
        keyed(&[])
    }

    /// A thousand `visits` by a hundred users over ten urls, keyed on
    /// `key`.
    fn keyed(key: &[&str]) -> ParStore {
        let s = ParStore::new();
        s.create_dataset(
            "visits",
            &["user", "url", "revenue"],
            key,
            (0..1000).map(|i| {
                vec![
                    Value::Int(i % 100),
                    Value::str(format!("url{}", i % 10)),
                    Value::Double(i as f64 * 0.01),
                ]
            }),
            4,
        )
        .unwrap();
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
        let out = values(s.scan("visits", &user7, &urls)).unwrap();
        assert_eq!(out.len(), 10);
        // The same rows once each: user 7 always hits url7.
        let once = Shape {
            distinct: true,
            ..urls
        };
        assert_eq!(
            values(s.scan("visits", &user7, &once)).unwrap(),
            vec![vec![Value::str("url7")]]
        );
        assert!(s.metrics.snapshot().tuples_scanned >= 1000);
    }

    #[test]
    fn lookup_via_key_index() {
        let s = keyed(&["user"]);
        let all = Shape::default();
        let out = values(s.lookup("visits", &[Value::Int(7)], &[], &all)).unwrap();
        assert_eq!(out.len(), 10);
        // Residual predicate narrows further.
        let url7 = [ColPred {
            col: 1,
            op: CmpOp::Eq,
            value: Value::str("url7"),
        }];
        let narrowed = values(s.lookup("visits", &[Value::Int(7)], &url7, &all));
        assert_eq!(narrowed.unwrap().len(), 10); // user 7 always hits url7
    }

    #[test]
    fn join_across_datasets() {
        let s = store();
        s.create_dataset(
            "users",
            &["uid", "tier"],
            &[],
            (0..100).map(|i| {
                vec![
                    Value::Int(i),
                    Value::str(if i % 2 == 0 { "gold" } else { "free" }),
                ]
            }),
            2,
        )
        .unwrap();
        let on = (&["user"][..], &["uid"][..]);
        let out = values(s.join("visits", "users", on.0, on.1, &Shape::default()));
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
            values(s.join("visits", "users", on.0, on.1, &per_tier)).unwrap(),
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
        let out = values(s.scan("visits", &[], &per_url)).unwrap();
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
        assert_eq!(values(s.scan("ghost", &[], &all)), ghost);
        assert_eq!(values(s.lookup("ghost", &[], &[], &all)), ghost);
        assert_eq!(values(s.join("ghost", "visits", &[], &[], &all)), ghost);
        assert_eq!(values(s.join("visits", "ghost", &[], &[], &all)), ghost);
        assert!(!s.drop_dataset("ghost"));
        // An unknown join column is an error too — it used to panic.
        assert_eq!(
            values(s.join("visits", "visits", &["user"], &["nope"], &all)),
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
        assert_eq!(
            values(s.scan("visits", &[], &wide)),
            Err(ParError::BadColumn)
        );
        let grouped_wide = Shape {
            group: Some(GroupBy {
                keys: 4,
                aggs: Vec::new(),
                having: Vec::new(),
            }),
            ..Shape::default()
        };
        assert_eq!(
            values(s.scan("visits", &[], &grouped_wide)),
            Err(ParError::BadColumn)
        );
        // No failed request was charged.
        assert_eq!(s.metrics.snapshot().requests, 0);
    }

    #[test]
    fn lookups_on_an_unkeyed_dataset_are_errors_and_admin_names_are_checked() {
        let s = store();
        let all = Shape::default();
        // An unkeyed dataset answers no lookup: an error, not an empty
        // answer that would pass for "no row holds the key".
        let unkeyed = Err(ParError::Unkeyed("visits".into()));
        assert_eq!(
            values(s.lookup("visits", &[Value::Int(7)], &[], &all)),
            unkeyed
        );
        assert_eq!(s.metrics.snapshot().requests, 0, "nothing was charged");
        let s = keyed(&["user"]);
        let two = [Value::Int(7), Value::str("url7")];
        assert_eq!(
            values(s.lookup("visits", &two, &[], &all)),
            Err(ParError::BadColumn)
        );
        let ghost = Err(ParError::UnknownDataset("ghost".into()));
        assert_eq!(s.apply_delta("ghost", &[], &[]), ghost.clone().map(|()| 0));
        assert_eq!(s.key_dataset("ghost", 0), ghost.map(|()| false));
        assert_eq!(s.key_dataset("visits", 3), Err(ParError::BadColumn));
        let columns = ["user", "url", "revenue"];
        assert_eq!(
            s.create_dataset("visits", &columns, &["user", "nope"], [], 2),
            Err(ParError::UnknownColumn {
                dataset: "visits".into(),
                column: "nope".into()
            })
        );
        // A failed creation keeps the dataset there was.
        assert_eq!(
            values(s.lookup("visits", &[Value::Int(7)], &[], &all))
                .unwrap()
                .len(),
            10
        );
    }

    #[test]
    fn keying_a_dataset_rebuilds_what_a_keyed_fill_builds_once_as_one_request() {
        let s = store();
        let generation = s.index_generation();
        let reader = s.dataset("visits").unwrap();
        assert!(s.key_columns("visits").is_empty());
        assert_eq!(s.key_dataset("visits", 1), Ok(true));
        // Charged as one request that scans every row; the key moved the
        // generation once.
        let charged = s.metrics.snapshot();
        assert_eq!((charged.requests, charged.tuples_scanned), (1, 1000));
        assert_eq!(s.index_generation(), generation + 1);
        assert_eq!(s.key_columns("visits"), [1]);
        // Exactly the dataset a fill keyed on `url` builds from the rows in
        // scan order, and the reader keeps its unkeyed snapshot.
        let columns = ["user", "url", "revenue"];
        let scanned = kernel::values_of(reader.iter_rows());
        let filled = Dataset::from_rows(&columns, &[1], scanned, 4).unwrap();
        assert_eq!(s.dataset("visits").unwrap().partitions, filled.partitions);
        assert!(reader.key_columns().is_empty());
        assert_eq!(reader.len(), 1000);
        drop(reader);
        // A key is never replaced, and asking again charges nothing.
        assert_eq!(s.key_dataset("visits", 0), Ok(false));
        assert_eq!(s.key_dataset("visits", 1), Ok(false));
        assert_eq!(s.metrics.snapshot().requests, 1);
        assert_eq!(s.index_generation(), generation + 1);
        assert_eq!(s.key_columns("visits"), [1]);
        // A lookup answers what a scan of the unkeyed dataset answered, in
        // its order.
        let url7 = Value::str("url7");
        let all = Shape::default();
        let found = values(s.lookup("visits", std::slice::from_ref(&url7), &[], &all));
        let was = [ColPred {
            col: 1,
            op: CmpOp::Eq,
            value: url7,
        }];
        let scanned = values(store().scan("visits", &was, &all));
        assert_eq!(scanned.as_ref().map(Vec::len), Ok(100));
        assert_eq!(found, scanned);
        // Writes after the keying patch the keyed blocks in place.
        let at = |s: &ParStore| Arc::as_ptr(&s.dataset("visits").unwrap());
        let home = at(&s);
        let new = vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)];
        s.apply_delta("visits", &[], std::slice::from_ref(&new))
            .unwrap();
        assert_eq!(s.apply_delta("visits", &[new], &[]), Ok(1));
        assert_eq!(at(&s), home);
        // Creating and dropping datasets move the generation too.
        let moved = s.index_generation();
        let rows = (0..4).map(|i| vec![Value::Int(i)]);
        s.create_dataset("more", &["user"], &[], rows, 2).unwrap();
        assert!(s.drop_dataset("more"));
        assert!(!s.drop_dataset("more"));
        assert_eq!(s.index_generation(), moved + 2);
    }

    #[test]
    fn insert_and_delete_rows_swap_in_a_new_snapshot() {
        let s = keyed(&["user"]);
        let before = s.dataset("visits").unwrap();
        let new = vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)];
        s.apply_delta("visits", &[], std::slice::from_ref(&new))
            .unwrap();
        // The pre-mutation handle still sees the old snapshot.
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1001);
        let under7 = |s: &ParStore| {
            let rows = values(s.lookup("visits", &[Value::Int(7)], &[], &Shape::default()));
            rows.unwrap().len()
        };
        assert_eq!(under7(&s), 11);
        let ghost = vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)];
        let removed = s.apply_delta("visits", &[new, ghost], &[]);
        assert_eq!(removed, Ok(1));
        assert_eq!(before.len(), 1000);
        assert_eq!(s.len("visits"), 1000);
        assert_eq!(under7(&s), 10);
    }

    #[test]
    fn wrong_arity_creates_and_deltas_are_errors_and_change_nothing() {
        let s = store();
        let arity = |got| ParError::Arity { expected: 3, got };
        let short = vec![vec![Value::Int(1), Value::str("a"), Value::Null], vec![]];
        let made = s.create_dataset("short", &["a", "b", "c"], &[], short, 2);
        assert_eq!(made, Err(arity(0)));
        assert!(s.dataset("short").is_none());
        let before = s.dataset("visits").unwrap().partitions.clone();
        let gone = kernel::values_of(s.dataset("visits").unwrap().iter_rows().take(1));
        let wide = vec![Value::Int(1); 4];
        assert_eq!(s.apply_delta("visits", &gone, &[wide]), Err(arity(4)));
        assert_eq!(s.dataset("visits").unwrap().partitions, before);
    }

    #[test]
    fn deltas_mutate_in_place_and_empty_ones_touch_nothing() {
        let s = keyed(&["user"]);
        let at = |s: &ParStore| Arc::as_ptr(&s.dataset("visits").unwrap());
        let home = at(&s);
        let new = vec![Value::Int(7), Value::str("url7"), Value::Double(9.9)];
        let ghost = vec![Value::Int(-1), Value::str("ghost"), Value::Double(0.0)];
        // No handle outstanding: same allocation before and after a write.
        s.apply_delta("visits", &[], std::slice::from_ref(&new))
            .unwrap();
        assert_eq!(s.apply_delta("visits", &[new, ghost.clone()], &[]), Ok(1));
        assert_eq!((at(&s), s.len("visits")), (home, 1000));
        // A delta that changes nothing copies nothing, even under a reader.
        let reader = s.dataset("visits").unwrap();
        assert_eq!(s.apply_delta("visits", &[ghost], &[]), Ok(0));
        assert_eq!(s.apply_delta("visits", &[], &[]), Ok(0));
        assert_eq!(at(&s), home);
        drop(reader);
    }

    #[test]
    fn packed_key_index_lookups_equal_scans_before_and_after_a_delta() {
        // Cells from a pool of three, so keys share some columns and not
        // others.
        let columns = ["a", "b", "c", "d", "e"];
        let row = |i: i64| -> Vec<Value> { (1..6).map(|c| Value::Int(i / c % 3)).collect() };
        for key in [&columns[..1], &columns[1..3], &columns[..3], &columns[..]] {
            let s = ParStore::new();
            s.create_dataset("d", &columns, key, (0..60).map(row), 3)
                .unwrap();
            let at: Vec<usize> = key
                .iter()
                .map(|k| columns.iter().position(|c| c == k).unwrap())
                .collect();
            let key_of =
                |r: &Vec<Value>| -> Vec<Value> { at.iter().map(|c| r[*c].clone()).collect() };
            let check = |when: &str| {
                let ds = s.dataset("d").unwrap();
                let rows = kernel::values_of(ds.iter_rows());
                let mut keys: std::collections::BTreeSet<Vec<Value>> =
                    rows.iter().map(key_of).collect();
                // A key no row holds.
                keys.insert(vec![Value::str("no such key"); key.len()]);
                for k in keys {
                    let mut found = values(s.lookup("d", &k, &[], &Shape::default())).unwrap();
                    let mut scan: Vec<Vec<Value>> =
                        rows.iter().filter(|r| key_of(r) == k).cloned().collect();
                    found.sort();
                    scan.sort();
                    assert_eq!(found, scan, "{when}: lookup of {key:?} = {k:?}");
                }
            };
            check("filled");
            let gone: Vec<Vec<Value>> = (0..60).step_by(7).map(row).collect();
            let born: Vec<Vec<Value>> = (60..90).map(row).collect();
            assert_eq!(s.apply_delta("d", &gone, &born), Ok(gone.len()));
            check("after a delta");
        }
    }

    #[test]
    fn nested_rows_are_supported() {
        let s = ParStore::new();
        s.create_dataset(
            "history",
            &["user", "purchases"],
            &["user"],
            vec![vec![
                Value::Int(1),
                Value::array([Value::object([("sku", Value::str("a"))])]),
            ]],
            2,
        )
        .unwrap();
        let out = values(s.lookup("history", &[Value::Int(1)], &[], &Shape::default()));
        let out = out.unwrap();
        assert_eq!(out.len(), 1);
        assert!(matches!(out[0][1], Value::Array(_)));
    }
}
