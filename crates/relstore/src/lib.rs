//! # estocada-relstore
//!
//! An in-memory relational store — the Postgres stand-in of the ESTOCADA
//! reproduction. It supports typed-as-dynamic rows, hash and B-tree
//! secondary indexes, a conjunctive select-project-join executor with greedy
//! hash-join ordering, and the simkit latency/metrics instrumentation that
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

pub use exec::{ExecCounters, QueryError};
pub use query::{CmpOp, ColRef, Pred, SqlQuery};
pub use table::{Index, IndexKind, Table};

use estocada_pivot::Value;
use estocada_simkit::{LatencyModel, RequestTimer, StoreMetrics};
use parking_lot::RwLock;
use std::collections::HashMap;

/// The relational store: named tables behind a reader-writer lock, with
/// request metrics and a configurable latency model.
#[derive(Debug, Default)]
pub struct RelStore {
    tables: RwLock<HashMap<String, Table>>,
    /// Operation metrics (shared with the mediator's reporting).
    pub metrics: StoreMetrics,
    latency: LatencyModel,
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
        self.tables
            .write()
            .insert(name.to_string(), Table::new(columns));
    }

    /// Bulk-insert rows into `name`. Panics if the table does not exist.
    pub fn insert_many(&self, name: &str, rows: impl IntoIterator<Item = Vec<Value>>) {
        let mut guard = self.tables.write();
        let t = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown table {name}"));
        for r in rows {
            t.insert(r);
        }
    }

    /// Delete rows from `name`: each entry of `rows` removes **one**
    /// matching stored row (duplicate physical rows are removed one
    /// instance per request). Secondary indexes are rebuilt once after the
    /// batch. Returns how many rows were actually removed. Admin path: no
    /// metrics or latency — like [`RelStore::insert_many`].
    pub fn delete_rows(&self, name: &str, rows: &[Vec<Value>]) -> usize {
        let mut guard = self.tables.write();
        let t = guard
            .get_mut(name)
            .unwrap_or_else(|| panic!("unknown table {name}"));
        let mut removed = 0;
        for r in rows {
            if t.remove_first(r) {
                removed += 1;
            }
        }
        if removed > 0 {
            t.rebuild_indexes();
        }
        removed
    }

    /// Create an index on `table.column`.
    pub fn create_index(&self, table: &str, column: &str, kind: IndexKind) {
        let mut guard = self.tables.write();
        let t = guard
            .get_mut(table)
            .unwrap_or_else(|| panic!("unknown table {table}"));
        let col = t
            .column_index(column)
            .unwrap_or_else(|| panic!("unknown column {column} on {table}"));
        t.create_index(col, kind);
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
        self.tables.read().get(table).map(|t| t.rows.clone())
    }

    /// Run a conjunctive query; metrics and latency are charged.
    pub fn query(&self, q: &SqlQuery) -> Result<Vec<Vec<Value>>, QueryError> {
        let guard = self.tables.read();
        let mut timer = RequestTimer::start(&self.metrics, self.latency);
        let mut counters = ExecCounters::default();
        let rows = exec::execute(q, &guard, &mut counters)?;
        timer.add_scanned(counters.scanned);
        let bytes: usize = rows
            .iter()
            .map(|r| r.iter().map(Value::approx_size).sum::<usize>())
            .sum();
        timer.set_output(rows.len() as u64, bytes as u64);
        Ok(rows)
    }

    /// Drop a table; returns whether it existed.
    pub fn drop_table(&self, table: &str) -> bool {
        self.tables.write().remove(table).is_some()
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
            vec![
                vec![Value::Int(1), Value::str("ann")],
                vec![Value::Int(2), Value::str("bob")],
            ],
        );
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
        let rows = s.query(&q).unwrap();
        assert_eq!(rows, vec![vec![Value::str("bob")]]);
        let m = s.metrics.snapshot();
        assert_eq!(m.requests, 1);
        assert_eq!(m.tuples_out, 1);
        assert!(m.bytes_out > 0);
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
        s.create_index("users", "uid", IndexKind::Hash);
        let removed = s.delete_rows(
            "users",
            &[
                vec![Value::Int(1), Value::str("ann")],
                vec![Value::Int(9), Value::str("nobody")],
            ],
        );
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
        assert_eq!(s.query(&q).unwrap(), vec![vec![Value::str("bob")]]);
    }

    #[test]
    fn index_creation_by_name() {
        let s = store();
        s.create_index("users", "uid", IndexKind::Hash);
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
        assert_eq!(s.query(&q).unwrap().len(), 1);
    }
}
