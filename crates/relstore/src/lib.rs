//! # estocada-relstore
//!
//! An in-memory relational store — the Postgres stand-in of the ESTOCADA
//! reproduction. It supports typed-as-dynamic rows held as interned cells,
//! hashed secondary indexes over them (an equality lookup is one probe; a
//! range lookup compares each distinct cell with its bound and sorts the
//! rows it finds), a conjunctive select-project-join executor that answers
//! in interned cells through the fact base's own join
//! ([`estocada_pivot::spj`]: greedy order, left-deep hash join), and the
//! simkit latency/metrics instrumentation that
//! models a networked deployment. (The mediator's cost model keeps its own
//! per-fragment statistics; the store computes none.)
//!
//! Fault injection is not this crate's concern: the mediator gates delegated
//! requests before they get here (see `estocada_simkit::fault`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exec;
pub mod query;
pub mod table;

pub use exec::QueryError;
pub use query::{CmpOp, ColRef, Pred, SqlQuery};
pub use table::Table;

use estocada_pivot::hash::FastMap;
use estocada_pivot::{IdRows, Value};
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::sync::atomic::{AtomicU64, Ordering};

/// The relational store: named tables behind a reader-writer lock, with
/// request metrics and a configurable latency model.
#[derive(Debug, Default)]
pub struct RelStore {
    tables: RwLock<FastMap<String, Table>>,
    /// Operation metrics (shared with the mediator's reporting).
    pub metrics: StoreMetrics,
    latency: LatencyModel,
    /// Bumped by every change to which indexes exist: an index built, a
    /// table created or dropped. The bump (`Release`) follows the change
    /// under the tables' write lock, so a reader that loads (`Acquire`) a
    /// generation and then reads [`RelStore::indexed`] sees at least the
    /// indexes of that generation.
    index_generation: AtomicU64,
}

impl RelStore {
    /// A store with no simulated latency.
    pub fn new() -> RelStore {
        RelStore::default()
    }

    /// A store charging `latency` per request.
    pub fn with_latency(latency: LatencyModel) -> RelStore {
        RelStore {
            latency,
            ..RelStore::default()
        }
    }

    /// Create (or replace) a table.
    pub fn create_table(&self, name: &str, columns: &[&str]) {
        let mut tables = self.tables.write();
        tables.insert(name.to_string(), Table::new(columns));
        self.index_generation.fetch_add(1, Ordering::Release);
    }

    /// Run the admin write `f` on table `name`.
    fn write<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut Table) -> Result<R, QueryError>,
    ) -> Result<R, QueryError> {
        let mut guard = self.tables.write();
        let missing = || QueryError::UnknownTable(name.to_string());
        f(guard.get_mut(name).ok_or_else(missing)?)
    }

    /// Bulk-insert rows into `name`: all of them, or — when one has
    /// another arity than the table ([`QueryError::Arity`]) — none.
    pub fn insert_many(&self, name: &str, rows: &[Vec<Value>]) -> Result<(), QueryError> {
        self.write(name, |t| t.insert(rows))
    }

    /// [`RelStore::insert_many`] of interned rows, their cells stored as
    /// they are.
    pub fn insert_ids(&self, name: &str, rows: &IdRows) -> Result<(), QueryError> {
        self.write(name, |t| t.insert_ids(rows))
    }

    /// Delete rows from `name`: each entry of `rows` removes **one**
    /// matching stored row (duplicate physical rows are removed one
    /// instance per request), in place — see [`Table::delete_rows`]: the
    /// secondary indexes are patched, never rebuilt. Returns how many rows
    /// were actually removed. Admin path: no metrics or latency — like
    /// [`RelStore::insert_many`].
    pub fn delete_rows(&self, name: &str, rows: &[Vec<Value>]) -> Result<usize, QueryError> {
        self.write(name, |t| Ok(t.delete_rows(rows)))
    }

    /// [`RelStore::delete_rows`] of interned rows.
    pub fn delete_ids(&self, name: &str, rows: &IdRows) -> Result<usize, QueryError> {
        self.write(name, |t| Ok(t.delete_ids(rows)))
    }

    /// Index `table.column` unless it is indexed already. Admin path: no
    /// metrics or latency.
    pub fn create_index(&self, table: &str, column: &str) -> Result<(), QueryError> {
        self.write(table, |t| {
            let col = t.column_index(column);
            let (table, column) = (table.to_string(), column.to_string());
            self.index(t, col.ok_or(QueryError::UnknownColumn { table, column })?);
            Ok(())
        })
    }

    /// Index column `column` (a position) of `table` unless it is indexed
    /// already, as a request: building reads every row, so a build is
    /// charged and metered as one request that scans the table. Returns
    /// whether this call built the index; one that finds it built (by an
    /// earlier or a concurrent call) charges nothing.
    pub fn build_index(&self, table: &str, column: usize) -> Result<bool, QueryError> {
        let built = self.write(table, |t| {
            if column >= t.columns.len() {
                return Err(QueryError::BadColumn);
            }
            Ok(self.index(t, column).then_some(t.len() as u64))
        })?;
        let Some(scanned) = built else {
            return Ok(false);
        };
        // Charged (when it drops) once the table is unlocked: readers do not
        // wait out the simulated latency.
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        timer.add_scanned(scanned);
        Ok(true)
    }

    /// Index `column` of `t` unless it has an index; whether it built one.
    fn index(&self, t: &mut Table, column: usize) -> bool {
        if t.indexes.contains_key(&column) {
            return false;
        }
        t.create_index(column);
        self.index_generation.fetch_add(1, Ordering::Release);
        true
    }

    /// Positions of the indexed columns of `table`, ascending (none when
    /// the store does not hold it).
    pub fn indexed(&self, table: &str) -> Vec<usize> {
        let tables = self.tables.read();
        let mut columns: Vec<usize> = tables
            .get(table)
            .map(|t| t.indexes.keys().copied().collect())
            .unwrap_or_default();
        columns.sort_unstable();
        columns
    }

    /// The generation of the store's indexes: it moves whenever an index
    /// is built or a table created or dropped, so a plan priced from
    /// [`RelStore::indexed`] knows when to price again.
    pub fn index_generation(&self) -> u64 {
        self.index_generation.load(Ordering::Acquire)
    }

    /// Row count of a table (0 if missing).
    pub fn row_count(&self, table: &str) -> usize {
        self.tables.read().get(table).map(Table::len).unwrap_or(0)
    }

    /// Column names of a table.
    pub fn columns(&self, table: &str) -> Option<Vec<String>> {
        self.tables.read().get(table).map(|t| t.columns.clone())
    }

    /// Physical row dump of a table in storage order (admin path: no
    /// metrics, no latency). `None` for unknown tables.
    pub fn scan(&self, table: &str) -> Option<Vec<Vec<Value>>> {
        let guard = self.tables.read();
        guard.get(table).map(|t| t.rows.to_values())
    }

    /// Run a conjunctive query; metrics and latency are charged. The rows
    /// come back as interned cells.
    pub fn query(&self, q: &SqlQuery) -> Result<IdRows, QueryError> {
        let guard = self.tables.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let mut scanned = 0;
        let rows = exec::run(q, &guard, &mut scanned)?;
        timer.add_scanned(scanned);
        timer.set_output(rows.len as u64, rows.approx_size() as u64);
        Ok(rows)
    }

    /// Drop a table; returns whether it existed.
    pub fn drop_table(&self, table: &str) -> bool {
        let dropped = self.tables.write().remove(table).is_some();
        if dropped {
            self.index_generation.fetch_add(1, Ordering::Release);
        }
        dropped
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> RelStore {
        let s = RelStore::new();
        s.create_table("users", &["uid", "name"]);
        s.insert_many(
            "users",
            &[
                vec![Value::Int(1), Value::str("ann")],
                vec![Value::Int(2), Value::str("bob")],
            ],
        )
        .unwrap();
        s
    }

    #[test]
    fn end_to_end_query_records_metrics() {
        let s = store();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q
            .filter(Pred::ColConst(
                ColRef {
                    table: 0,
                    column: 0,
                },
                CmpOp::Eq,
                Value::Int(2),
            ))
            .select(ColRef {
                table: 0,
                column: 1,
            });
        let rows = s.query(&q).unwrap().to_values();
        assert_eq!(rows, vec![vec![Value::str("bob")]]);
        let m = s.metrics.snapshot();
        assert_eq!(m.requests, 1);
        assert_eq!(m.tuples_out, 1);
        assert!(m.bytes_out > 0);
    }

    #[test]
    fn unknown_tables_and_columns_are_errors() {
        let s = store();
        let ghost = || Err(QueryError::UnknownTable("ghost".into()));
        assert_eq!(s.insert_many("ghost", &[vec![Value::Int(3)]]), ghost());
        assert_eq!(s.delete_rows("ghost", &[]), ghost().map(|()| 0));
        assert_eq!(s.create_index("ghost", "uid"), ghost());
        assert_eq!(s.build_index("ghost", 0), ghost().map(|()| false));
        assert_eq!(s.build_index("users", 2), Err(QueryError::BadColumn));
        assert_eq!(
            s.create_index("users", "nope"),
            Err(QueryError::UnknownColumn {
                table: "users".into(),
                column: "nope".into()
            })
        );
        assert_eq!(s.row_count("users"), 2);
    }

    #[test]
    fn a_wrong_arity_insert_is_an_error_and_writes_nothing() {
        let s = store();
        let rows = [vec![Value::Int(3), Value::str("cy")], vec![Value::Int(4)]];
        let err = s.insert_many("users", &rows);
        assert_eq!(
            err,
            Err(QueryError::Arity {
                expected: 2,
                got: 1
            })
        );
        assert_eq!(s.row_count("users"), 2);
        assert_eq!(s.scan("users").unwrap().len(), 2);
    }

    #[test]
    fn drop_table_removes_it() {
        let s = store();
        assert!(s.drop_table("users"));
        assert!(!s.drop_table("users"));
        assert_eq!(s.row_count("users"), 0);
    }

    #[test]
    fn delete_rows_removes_matches_and_keeps_indexes_consistent() {
        let s = store();
        s.create_index("users", "uid").unwrap();
        let removed = s.delete_rows(
            "users",
            &[
                vec![Value::Int(1), Value::str("ann")],
                vec![Value::Int(9), Value::str("nobody")],
            ],
        );
        let removed = removed.unwrap();
        assert_eq!(removed, 1);
        assert_eq!(s.row_count("users"), 1);
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q
            .filter(Pred::ColConst(
                ColRef {
                    table: 0,
                    column: 0,
                },
                CmpOp::Eq,
                Value::Int(2),
            ))
            .select(ColRef {
                table: 0,
                column: 1,
            });
        assert_eq!(
            s.query(&q).unwrap().to_values(),
            vec![vec![Value::str("bob")]]
        );
    }

    #[test]
    fn an_index_is_built_once_and_a_build_is_charged_as_one_scan() {
        let s = store();
        let generation = s.index_generation();
        s.create_index("users", "uid").unwrap();
        s.create_index("users", "uid").unwrap();
        assert_eq!(s.metrics.snapshot().requests, 0, "fill-time DDL is admin");
        assert_eq!(s.index_generation(), generation + 1, "built once");
        assert!(s.build_index("users", 1).unwrap());
        assert!(!s.build_index("users", 1).unwrap());
        assert!(!s.build_index("users", 0).unwrap());
        let m = s.metrics.snapshot();
        assert_eq!((m.requests, m.tuples_scanned, m.tuples_out), (1, 2, 0));
        assert_eq!(s.indexed("users"), [0, 1]);
        assert_eq!(s.index_generation(), generation + 2);
        assert!(s.indexed("ghost").is_empty());
        // A dropped table takes its indexes with it.
        assert!(s.drop_table("users"));
        assert!(s.indexed("users").is_empty());
        assert_eq!(s.index_generation(), generation + 3);
    }

    #[test]
    fn index_creation_by_name() {
        let s = store();
        s.create_index("users", "uid").unwrap();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q
            .filter(Pred::ColConst(
                ColRef {
                    table: 0,
                    column: 0,
                },
                CmpOp::Eq,
                Value::Int(1),
            ))
            .select(ColRef {
                table: 0,
                column: 1,
            });
        assert_eq!(s.query(&q).unwrap().to_values().len(), 1);
    }
}
