//! The incremental write path: DML (`insert` / `delete` / `upsert`) into
//! registered datasets with **incremental fragment maintenance**.
//!
//! # The maintenance model
//!
//! A DML batch flows through three layers, each maintained from the deltas
//! alone — no fragment is ever rematerialized:
//!
//! 1. **Dataset rows** (the registered [`crate::dataset::Dataset`] content,
//!    the ground truth): deleted rows are removed one instance per request,
//!    inserted rows appended.
//! 2. **The staged fact base** (the crate-private `factbase` module): every
//!    dataset row contributes the pivot facts of
//!    [`crate::dataset::TableData::row_facts`]. The fact base counts the rows
//!    behind each fact, so the netted fact delta of a batch retracts only
//!    the facts whose count reaches zero and inserts only those whose count
//!    leaves it.
//! 3. **Fragment stores**: a *view* fragment (table / key-value / doc-rows
//!    / par-rows) holds a row while some match of its view's body derives
//!    it (counting, Gupta, Mumick & Subrahmanian, SIGMOD 1993); no count is
//!    kept. Each phase of the semi-naive delta chase (deletes, then
//!    inserts) runs the view's compiled plan twice: through the changed
//!    facts, and with a head row fixed over the fact base as it stands; the
//!    row leaves (enters) its store when the two counts are equal. *Native*
//!    fragments (native-tables, text-index) mirror the dataset rows 1:1 and
//!    receive the raw row deltas directly, preserving physical
//!    duplicate-row parity with a fresh rematerialization. Every store
//!    delta goes through `crate::layout::write`, the writer of the first
//!    fill: that module alone owns the physical formats.
//!
//! Batches are **net-delta deduplicated** at both levels: a row deleted
//! and re-inserted in one batch cancels out before any store is touched.
//!
//! # The cost of a write
//!
//! A batch costs what it changes, not what the stores hold. [`DmlSteps`]
//! times the steps of every batch:
//!
//! | step | proportional to |
//! |---|---|
//! | `validate` | the batch: a delete finds its stored instance, and an upsert the rows it replaces, through the table's key positions (declared key → row positions, a [`Postings`] built by one pass at the table's first write); an insert-only batch reads no stored row |
//! | `delta_chase` | the batch's facts, the matches of each view's compiled plan through them (semi-naive: the delta index comes from the fact base's stamp log, and only the counting views whose body reads a changed relation are compiled, once per batch), and the derivations of each head row they reach, counted by the same plan with the head fixed and stopped one past the delta's |
//! | `store_write` | the store rows that change: a relational delete is found through an index, a parallel-store delta through its key index, and every store patches its rows and index postings in place; a key-value entry is patched under its key; a document or text delete finds its documents by one scan (see below) |
//! | `stats` | the store rows that change: every maintained relation keeps its statistics running (row count, byte sum, occurrences per column value) in its catalog entry, from the accumulator its first fill built |
//!
//! Every container and the dataset table keep their value→row indexes as
//! [`Postings`], and a delete takes its rows out through one step
//! ([`swap_remove`]): the last row moves into each hole and every index
//! forgets the one row and relocates the other in place. So no physical
//! row order is kept across writes (every comparison with a
//! rematerialization is of the sorted content), and no index is rebuilt.
//! What is still proportional to a whole table or container is a delete
//! where nothing indexes every row — a dataset table without a declared
//! key, a relational table without any index, a parallel dataset without a
//! key index, a document collection, a text index: each is scanned once
//! per batch (no measured workload writes the last two).
//!
//! # Epochs and staleness
//!
//! Every batch bumps the engine's **data epoch** — distinct from the
//! catalog epoch, so cached rewrite plans survive writes — and advances
//! every fragment's **high-water mark** ([`crate::FragmentMeta::high_water`])
//! to it once its stores are maintained. `high_water == data_epoch()` is the
//! staleness invariant: a reader that observes the data epoch is guaranteed
//! the fragments reflect it, because DML holds `&mut Estocada`.
//!
//! DDL hands the write path nothing: a fill records its mark and running
//! statistics in the fragment's catalog entry, a drop removes the entry, a
//! registration stages the dataset's facts. The write path's own state is
//! each written table's key positions.

use crate::catalog::{Catalog, FragmentRelation, FragmentSpec, WhereSpec};
use crate::dataset::{Dataset, DatasetContent, TableData};
use crate::error::{Error, Result};
use crate::evaluator::Estocada;
use crate::factbase::net_deltas;
use crate::layout;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{swap_remove, Fact, IdRows, Postings, Value, Wanted};
use std::time::{Duration, Instant};

/// A dataset row.
type Row = Vec<Value>;

/// A table's stored rows by declared key — how a delete finds its stored
/// instance and an upsert the rows it replaces without reading the table —
/// as the key's column positions and each key's row positions.
pub(crate) type KeyPositions = (Vec<usize>, Postings<Row>);

/// `row`'s values at the key `columns`.
fn key_of(columns: &[usize], row: &[Value]) -> Row {
    columns.iter().map(|c| row[*c].clone()).collect()
}

/// `t`'s key positions, by one pass over its rows (`None`: `t` declares no
/// key).
fn key_positions(t: &TableData) -> Option<KeyPositions> {
    let columns = key_columns(t)?;
    let posted = |(at, row): (usize, &Row)| (key_of(&columns, row), at);
    let postings = t.rows.iter().enumerate().map(posted).collect();
    Some((columns, postings))
}

/// What a batch takes out of its table before adding its inserts.
enum Outgoing {
    /// One stored instance per row (`delete_rows`).
    Rows(Vec<Row>),
    /// Every stored row whose declared key an insert names (`upsert_rows`).
    ReplacedByKey,
}

/// Per-fragment-relation effect of one DML batch.
#[derive(Debug, Clone)]
pub struct FragmentDelta {
    /// Owning fragment id.
    pub fragment: String,
    /// The maintained fragment relation.
    pub relation: String,
    /// Rows removed from the backing store.
    pub store_deletes: usize,
    /// Rows added to the backing store.
    pub store_inserts: usize,
    /// `"counting"` for view fragments, `"raw"` for native mirrors.
    pub mode: &'static str,
}

/// Wall time of the steps of one DML batch, in the order they run. Building
/// a table's key positions (at its first write) is in none of them, so the
/// steps sum to less than [`DmlReport::maintenance_time`] on that write.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmlSteps {
    /// Checking the batch against the table and locating its deletes.
    pub validate: Duration,
    /// From the batch to each relation's store operations: dataset rows,
    /// fact netting and both delta-chase phases over compiled view plans.
    pub delta_chase: Duration,
    /// Applying those operations to the stores.
    pub store_write: Duration,
    /// Bringing the touched relations' statistics up to date.
    pub stats: Duration,
}

/// What one DML batch did: row counts, the new data epoch, and the delta
/// each affected fragment relation absorbed.
#[derive(Debug, Clone)]
pub struct DmlReport {
    /// Target dataset.
    pub dataset: String,
    /// Target table.
    pub table: String,
    /// Rows inserted into the dataset.
    pub inserted: usize,
    /// Rows deleted from the dataset.
    pub deleted: usize,
    /// The data epoch this batch established.
    pub data_epoch: u64,
    /// Store-level deltas, one entry per fragment relation that changed.
    pub fragment_deltas: Vec<FragmentDelta>,
    /// Wall-clock time of the whole batch (validation through stats).
    pub maintenance_time: Duration,
    /// Where that time went.
    pub steps: DmlSteps,
}

/// The relations maintained by derivation counting: those of view fragments.
fn counting_relations(catalog: &Catalog) -> impl Iterator<Item = &FragmentRelation> {
    let views = catalog.fragments().iter();
    views
        .filter(|f| f.spec.view().is_some())
        .flat_map(|f| &f.relations)
}

/// The pivot facts `rows` of `t` contribute, one per (row, fact).
fn facts<'a>(t: &'a TableData, rows: &'a [Row]) -> impl Iterator<Item = Fact> + 'a {
    rows.iter().flat_map(|row| t.row_facts(row))
}

/// Whether a native fragment relation mirrors `dataset.table` row for row.
fn mirrors(spec: &FragmentSpec, place: &WhereSpec, dataset: &str, table: &str) -> bool {
    match (spec, place) {
        (FragmentSpec::NativeTables { dataset: d, .. }, WhereSpec::Table { table: t, .. }) => {
            d == dataset && t == table
        }
        (FragmentSpec::TextIndex { table: t }, WhereSpec::TextIndex { .. }) => t == table,
        _ => false,
    }
}

/// Resolve `dataset.table`.
fn table_mut<'a>(
    datasets: &'a mut FastMap<String, Dataset>,
    dataset: &str,
    table: &str,
) -> Result<&'a mut TableData> {
    match datasets.get_mut(dataset).map(|ds| &mut ds.content) {
        Some(DatasetContent::Relational(tables)) => tables
            .iter_mut()
            .find(|t| *t.encoding.relation.as_str() == *table)
            .ok_or_else(|| Error::Dml(format!("unknown table {table} in dataset {dataset}"))),
        Some(DatasetContent::Documents(_)) => Err(Error::Dml(format!(
            "{dataset} is a document dataset; the incremental DML path covers relational datasets"
        ))),
        None => Err(Error::UnknownName(dataset.to_string())),
    }
}

/// Positions of `t`'s declared key columns; `None` without a declared key.
fn key_columns(t: &TableData) -> Option<Vec<usize>> {
    let key = t.encoding.key.as_ref().filter(|k| !k.is_empty())?;
    let position = |k: &String| t.encoding.columns.iter().position(|c| c == k);
    Some(key.iter().filter_map(position).collect())
}

/// Every row has the table's arity, and the outgoing rows are stored ones:
/// each delete finds its own stored instance (equal deletes claim distinct
/// instances), an upsert (naming each key once) every row its inserts' keys
/// name. Returns the outgoing rows and their positions. `positions` finds
/// them; without a declared key the deletes scan the table once. An
/// insert-only batch reads no stored row. Nothing is mutated when this fails.
fn validate(
    t: &TableData,
    positions: Option<&KeyPositions>,
    outgoing: Outgoing,
    inserts: &[Row],
) -> Result<(Vec<Row>, Vec<usize>)> {
    let (name, arity) = (t.encoding.relation, t.encoding.columns.len());
    let deletes = match &outgoing {
        Outgoing::Rows(rows) => rows.as_slice(),
        Outgoing::ReplacedByKey => &[],
    };
    if let Some(r) = deletes.iter().chain(inserts).find(|r| r.len() != arity) {
        let n = r.len();
        return Err(Error::Dml(format!(
            "row arity {n} does not match table {name} ({arity} columns)"
        )));
    }
    let deletes = match (outgoing, positions) {
        (Outgoing::Rows(rows), _) => rows,
        (Outgoing::ReplacedByKey, Some((columns, p))) => {
            let mut named = FastSet::default();
            if let Some(r) = inserts.iter().find(|r| !named.insert(key_of(columns, r))) {
                let twice = key_of(columns, r);
                let message = format!("upsert into {name} names key {twice:?} twice in one batch");
                return Err(Error::Dml(message));
            }
            let under = |r: &Row| p.get(&key_of(columns, r)).to_vec();
            let doomed: Vec<usize> = inserts.iter().flat_map(under).collect();
            let rows = doomed.iter().map(|at| t.rows[*at].clone()).collect();
            return Ok((rows, doomed));
        }
        (Outgoing::ReplacedByKey, None) => {
            return Err(Error::Dml(format!(
                "upsert into {name} needs a declared key"
            )));
        }
    };
    let mut wanted = Wanted::new(&deletes, arity);
    let row_at = |at: usize| t.rows[at].as_slice();
    let doomed = match positions {
        Some((columns, p)) => wanted.claim_under(|d| key_of(columns, d), |key| p.get(key), row_at),
        None => wanted.claim(0..t.rows.len(), row_at),
    };
    if let Some(d) = wanted.rows().next() {
        return Err(Error::Dml(format!("no row {d:?} to delete in {name}")));
    }
    Ok((deletes, doomed.into_iter().collect()))
}

/// Take the rows at `doomed` out of `t` — the table's last row moves into
/// each hole ([`swap_remove`]) — and append `inserts`, moving `positions`
/// along.
fn rewrite_rows(
    t: &mut TableData,
    mut positions: Option<&mut KeyPositions>,
    doomed: Vec<usize>,
    inserts: &[Row],
) {
    swap_remove(&mut t.rows, doomed, |row, from, to| {
        if let Some((columns, p)) = positions.as_deref_mut() {
            p.relocate(&key_of(columns, row), from, to);
        }
    });
    for row in inserts {
        if let Some((columns, p)) = positions.as_deref_mut() {
            p.insert(key_of(columns, row), t.rows.len());
        }
        t.rows.push(row.clone());
    }
}

impl Estocada {
    /// Insert rows into a registered relational dataset's table,
    /// maintaining every fragment incrementally. Bumps the data epoch.
    pub fn insert_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        self.apply_dml(dataset, table, Outgoing::Rows(Vec::new()), rows)
    }

    /// Delete rows (each entry removes **one** matching stored row) from a
    /// registered relational dataset's table, maintaining every fragment
    /// incrementally. A row with no match rejects the whole batch
    /// atomically with [`Error::Dml`]. Bumps the data epoch.
    pub fn delete_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        self.apply_dml(dataset, table, Outgoing::Rows(rows), Vec::new())
    }

    /// Upsert rows by the table's declared key: every existing row whose
    /// key matches an upserted row is deleted, then the new rows are
    /// inserted. Requires a declared key, and a batch may name each key
    /// once ([`Error::Dml`] otherwise, nothing mutated). Bumps the data
    /// epoch.
    pub fn upsert_rows(
        &mut self,
        dataset: &str,
        table: &str,
        rows: Vec<Vec<Value>>,
    ) -> Result<DmlReport> {
        self.apply_dml(dataset, table, Outgoing::ReplacedByKey, rows)
    }

    /// The whole incremental write path, an orchestrator over its steps:
    /// [`validate`]; net the fact deltas ([`net_deltas`]) and hand them to
    /// the fact base, which delta-chases the deletes, then the inserts,
    /// into each counting relation's row deltas; net a row that leaves and
    /// re-enters; apply each relation's store operations, one
    /// [`layout::write`] per relation, and move its running statistics by
    /// the same rows; advance the data epoch and every high-water mark.
    fn apply_dml(
        &mut self,
        dataset: &str,
        table: &str,
        outgoing: Outgoing,
        inserts: Vec<Row>,
    ) -> Result<DmlReport> {
        let t0 = Instant::now();
        let (catalog, epoch) = (&mut self.catalog, &mut self.data_epoch);
        let t = table_mut(&mut self.datasets, dataset, table)?;
        let positions = self.key_positions.entry(t.encoding.relation);
        let positions = positions.or_insert_with(|| key_positions(t));
        let mut steps = DmlSteps::default();
        let started = Instant::now();
        let (deletes, doomed) = validate(t, positions.as_ref(), outgoing, &inserts)?;
        steps.validate = started.elapsed();
        // The batch's rows (each `arity` wide, as validated), interned once
        // here, for the raw mirrors.
        let arity = t.encoding.columns.len();
        let intern = |rows: &[Row]| IdRows::intern(rows, arity);
        let misfit = |got| Error::Dml(format!("a row of {got} columns in a table of {arity}"));
        let batch = (
            intern(&deletes).map_err(misfit)?,
            intern(&inserts).map_err(misfit)?,
        );
        let minus = facts(t, &deletes).map(|fact| (fact, -1));
        let plus = facts(t, &inserts).map(|fact| (fact, 1));
        let fact_delta = net_deltas(minus.chain(plus));
        rewrite_rows(t, positions.as_mut(), doomed, &inserts);

        let views = counting_relations(catalog).map(|r| (r.name, &r.view.view));
        let ops = self.base.apply(fact_delta, &views.collect::<Vec<_>>());
        steps.delta_chase = started.elapsed() - steps.validate;

        // Counting relations absorb their crossings; raw mirrors of the
        // table absorb the batch itself, physical duplicate rows and all.
        let mut fragment_deltas = Vec::new();
        for fm in catalog.fragments_mut() {
            let relations = fm.relations.iter().zip(&mut fm.stats).zip(&mut fm.running);
            for ((r, stats), running) in relations {
                let ((gone, born), source) = match ops.get(&r.name) {
                    Some(crossings) => (crossings, None),
                    None if mirrors(&fm.spec, &r.place, dataset, table) => (&batch, Some(&*t)),
                    _ => continue,
                };
                if gone.len == 0 && born.len == 0 {
                    continue;
                }
                let writing = Instant::now();
                layout::write(&self.stores, &r.place, source, gone, born)?;
                let written = Instant::now();
                if let Some(held) = running {
                    held.apply(gone, born);
                    *stats = layout::stats(&r.place, held);
                }
                steps.store_write += written - writing;
                steps.stats += written.elapsed();
                fragment_deltas.push(FragmentDelta {
                    fragment: fm.id.clone(),
                    relation: r.name.as_str().to_string(),
                    store_deletes: gone.len,
                    store_inserts: born.len,
                    mode: if source.is_none() { "counting" } else { "raw" },
                });
            }
        }

        *epoch += 1;
        for fm in catalog.fragments_mut() {
            fm.high_water = *epoch;
        }
        Ok(DmlReport {
            dataset: dataset.to_string(),
            table: table.to_string(),
            inserted: inserts.len(),
            deleted: deletes.len(),
            data_epoch: *epoch,
            fragment_deltas,
            maintenance_time: t0.elapsed(),
            steps,
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::catalog::FragmentSpec;
    use crate::dataset::{Dataset, TableData};
    use crate::error::Error;
    use crate::evaluator::Estocada;
    use crate::system::Latencies;
    use estocada_pivot::encoding::relational::TableEncoding;
    use estocada_pivot::{CqBuilder, Value};

    fn shop(orders: &[(i64, i64, i64)]) -> Dataset {
        Dataset::relational(
            "shop",
            vec![
                TableData {
                    encoding: TableEncoding::new("Users", &["uid", "name"], Some(&["uid"])),
                    rows: vec![
                        vec![Value::Int(1), Value::str("ann")],
                        vec![Value::Int(2), Value::str("bob")],
                    ],
                    text_columns: vec![],
                },
                TableData {
                    encoding: TableEncoding::new(
                        "Orders",
                        &["oid", "uid", "amount"],
                        Some(&["oid"]),
                    ),
                    rows: orders
                        .iter()
                        .map(|(o, u, a)| vec![Value::Int(*o), Value::Int(*u), Value::Int(*a)])
                        .collect(),
                    text_columns: vec![],
                },
                TableData {
                    encoding: TableEncoding::new("Products", &["pid", "title"], Some(&["pid"])),
                    rows: vec![
                        vec![Value::Int(1), Value::str("wireless mouse")],
                        vec![Value::Int(2), Value::str("usb keyboard")],
                    ],
                    text_columns: vec!["title".into()],
                },
                TableData {
                    encoding: TableEncoding::new("Clicks", &["uid", "page"], None),
                    rows: vec![vec![Value::Int(1), Value::str("home")]],
                    text_columns: vec![],
                },
            ],
        )
    }

    /// One fragment of every maintainable kind over the shop dataset.
    fn deploy(ds: Dataset) -> Estocada {
        let mut est = Estocada::new(Latencies::zero());
        est.register_dataset(ds).unwrap();
        est.add_fragment(FragmentSpec::NativeTables {
            dataset: "shop".into(),
            only: None,
        })
        .unwrap();
        est.add_fragment(FragmentSpec::TextIndex {
            table: "Products".into(),
        })
        .unwrap();
        est.add_fragment(FragmentSpec::Table {
            view: CqBuilder::new("BigOrders")
                .head_vars(["uid", "name", "amount"])
                .atom("Users", |a| a.v("uid").v("name"))
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec![],
        })
        .unwrap();
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("OrdersKV")
                .head_vars(["uid", "oid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
        })
        .unwrap();
        est.add_fragment(FragmentSpec::DocRows {
            view: CqBuilder::new("OrderDocs")
                .head_vars(["oid", "uid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec![],
        })
        .unwrap();
        est.add_fragment(FragmentSpec::ParRows {
            view: CqBuilder::new("OrdersPar")
                .head_vars(["uid", "oid", "amount"])
                .atom("Orders", |a| a.v("oid").v("uid").v("amount"))
                .build(),
            index_on: vec!["uid".into()],
            partitions: 0,
        })
        .unwrap();
        est
    }

    fn assert_same_stores(incremental: &Estocada, fresh: &Estocada) {
        assert_eq!(
            incremental.stores.dump(),
            fresh.stores.dump(),
            "stores diverged from rematerialization"
        );
    }

    #[test]
    fn mixed_dml_matches_a_fresh_rematerialization() {
        let mut est = deploy(shop(&[(1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 20)]));
        est.insert_rows(
            "shop",
            "Orders",
            vec![
                vec![Value::Int(5), Value::Int(1), Value::Int(70)],
                vec![Value::Int(6), Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        est.delete_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(2), Value::Int(1), Value::Int(20)]],
        )
        .unwrap();
        est.upsert_rows(
            "shop",
            "Users",
            vec![vec![Value::Int(2), Value::str("bobby")]],
        )
        .unwrap();
        est.upsert_rows(
            "shop",
            "Products",
            vec![vec![Value::Int(1), Value::str("wireless trackball mouse")]],
        )
        .unwrap();
        assert_eq!(est.data_epoch(), 4);
        for f in est.catalog().fragments() {
            assert_eq!(f.high_water, 4);
        }

        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
    }

    #[test]
    fn every_high_water_mark_advances_with_the_data_epoch() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(2), Value::Int(2), Value::Int(5)]],
        )
        .unwrap();
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(7)]],
        )
        .unwrap();
        assert_eq!(est.data_epoch(), 2);
        for f in est.catalog().fragments() {
            assert_eq!(f.high_water, 2, "fragment {} lags the data epoch", f.id);
        }
    }

    #[test]
    fn rejected_batches_are_atomic() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        let before = est.stores.dump();
        let err = est
            .delete_rows(
                "shop",
                "Orders",
                vec![
                    vec![Value::Int(1), Value::Int(1), Value::Int(10)],
                    vec![Value::Int(99), Value::Int(9), Value::Int(9)],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(
            est.data_epoch(),
            0,
            "rejected batch must not bump the epoch"
        );
        assert_eq!(
            est.stores.dump(),
            before,
            "rejected batch must not touch stores"
        );
        let err = est
            .insert_rows("shop", "Orders", vec![vec![Value::Int(7)]])
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        let err = est.insert_rows("nope", "Orders", vec![]).unwrap_err();
        assert!(matches!(err, Error::UnknownName(_)), "got {err}");
    }

    #[test]
    fn equal_deletes_claim_distinct_stored_rows() {
        // Clicks declares no key: the table holds (1, "home") three times.
        let home = || vec![Value::Int(1), Value::str("home")];
        let mut est = deploy(shop(&[(1, 1, 10)]));
        est.insert_rows("shop", "Clicks", vec![home(), home()])
            .unwrap();
        let before = est.stores.dump();
        let err = est
            .delete_rows("shop", "Clicks", vec![home(); 4])
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(est.stores.dump(), before, "a fourth copy was found");
        let r = est.delete_rows("shop", "Clicks", vec![home(); 2]).unwrap();
        assert_eq!((r.deleted, r.data_epoch), (2, 2));
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
        assert_eq!(twin.stores.rel.row_count("Clicks"), 1);
    }

    #[test]
    fn upsert_without_a_declared_key_is_rejected() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        let err = est
            .upsert_rows(
                "shop",
                "Clicks",
                vec![vec![Value::Int(1), Value::str("about")]],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
    }

    #[test]
    fn upsert_naming_a_key_twice_is_rejected_atomically() {
        let mut est = deploy(shop(&[(1, 1, 10)]));
        let stats = |est: &Estocada| format!("{:?}", est.fragments().iter().map(|f| &f.stats));
        let (stores, rows) = (est.stores.dump(), format!("{:?}", est.datasets()["shop"]));
        let held = stats(&est);
        let err = est
            .upsert_rows(
                "shop",
                "Users",
                vec![
                    vec![Value::Int(1), Value::str("anna")],
                    vec![Value::Int(3), Value::str("cy")],
                    vec![Value::Int(1), Value::str("annie")],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(est.data_epoch(), 0, "rejected batch bumped the epoch");
        assert_eq!(est.stores.dump(), stores, "rejected batch touched a store");
        assert_eq!(format!("{:?}", est.datasets()["shop"]), rows);
        assert_eq!(stats(&est), held, "rejected batch moved a statistic");
    }

    #[test]
    fn containers_emptied_by_deletes_match_a_first_fill_over_no_rows() {
        // Every Orders row (table, key-value, doc, par mirrors) and every
        // Products row (text index) goes; the twin is deployed over the
        // emptied tables and must hold the same containers.
        let mut est = deploy(shop(&[(1, 1, 10), (2, 2, 20)]));
        for table in ["Orders", "Products"] {
            let crate::dataset::DatasetContent::Relational(tables) =
                &est.datasets()["shop"].content
            else {
                unreachable!("shop is relational")
            };
            let t = tables
                .iter()
                .find(|t| *t.encoding.relation.as_str() == *table)
                .unwrap();
            let rows = t.rows.clone();
            est.delete_rows("shop", table, rows).unwrap();
        }
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
        for (a, b) in est.fragments().iter().zip(twin.fragments()) {
            let (sa, sb) = (format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(sa, sb, "stats of {} diverged", a.id);
        }
    }

    #[test]
    fn dml_keeps_cached_plans_and_serves_fresh_rows() {
        let mut est = deploy(shop(&[(1, 1, 10), (2, 2, 20)]));
        let sql = "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 1";
        let _ = est.query_sql(sql).unwrap();
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(30)]],
        )
        .unwrap();
        let r = est.query_sql(sql).unwrap();
        assert!(
            r.report.plan_cache.as_ref().is_some_and(|pc| pc.hit),
            "DML must not invalidate the rewrite-plan cache"
        );
        let mut rows = r.rows.clone();
        rows.sort();
        assert_eq!(
            rows,
            vec![
                vec![Value::Int(1), Value::Int(10)],
                vec![Value::Int(3), Value::Int(30)],
            ],
            "reader must observe the write"
        );
        // DDL keeps every mark: a new fragment is marked at its fill, the
        // next write maintains it, and a dropped one leaves with its entry.
        let users_kv = || FragmentSpec::KeyValue {
            view: CqBuilder::new("UsersKV")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        };
        let marks =
            |est: &Estocada| -> Vec<_> { est.fragments().iter().map(|f| f.high_water).collect() };
        let id = est.add_fragment(users_kv()).unwrap();
        assert_eq!(marks(&est), vec![1; 7], "DDL moved a mark");
        est.upsert_rows("shop", "Users", vec![vec![Value::Int(2), Value::str("bo")]])
            .unwrap();
        assert_eq!(marks(&est), vec![2; 7]);
        let mut twin = deploy(est.datasets()["shop"].clone());
        twin.add_fragment(users_kv()).unwrap();
        assert_same_stores(&est, &twin);
        est.drop_fragment(&id).unwrap();
        assert!(est.fragments().iter().all(|f| f.id != id));
        assert_eq!(marks(&est), vec![2; 6]);
    }

    #[test]
    fn dml_keeps_cached_lints() {
        // The lint cache keys on the catalog epoch alone; a DML batch
        // bumps only the data epoch, so the post-write query must be
        // served from the lint cache — no per-query re-analysis.
        let mut est = deploy(shop(&[(1, 1, 10), (2, 2, 20)]));
        let sql = "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 1";
        let first = est.query_sql(sql).unwrap();
        let lc = first.report.lint_cache.expect("lint activity");
        assert!(!lc.hit, "first run computes the lints");
        est.insert_rows(
            "shop",
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(30)]],
        )
        .unwrap();
        let before = est.lint_cache_stats();
        let r = est.query_sql(sql).unwrap();
        let lc = r.report.lint_cache.expect("lint activity");
        assert!(lc.hit, "DML must not invalidate the lint cache");
        assert_eq!(
            est.lint_cache_stats().misses,
            before.misses,
            "no lint recomputation after a write"
        );
        // DDL bumps the catalog epoch and genuinely invalidates lints.
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("UsersKV2")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        })
        .unwrap();
        let r = est.query_sql(sql).unwrap();
        assert!(
            r.report.lint_cache.is_some_and(|lc| !lc.hit),
            "DDL must invalidate cached lints"
        );
    }

    #[test]
    fn delete_only_touches_support_crossings() {
        // Orders 1 and 2 derive the same BigOrders row (uid, name, amount):
        // deleting one of them must leave the table row in place.
        let mut est = deploy(shop(&[(1, 1, 50), (2, 1, 50), (3, 2, 30)]));
        let r = est
            .delete_rows(
                "shop",
                "Orders",
                vec![vec![Value::Int(1), Value::Int(1), Value::Int(50)]],
            )
            .unwrap();
        let big = r
            .fragment_deltas
            .iter()
            .find(|d| d.relation == "BigOrders")
            .map(|d| (d.store_deletes, d.store_inserts));
        assert!(
            big.is_none(),
            "2 -> 1 derivations must not delete the store row (got {big:?})"
        );
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
        // Deleting the second copy crosses to zero and removes the row.
        let r = est
            .delete_rows(
                "shop",
                "Orders",
                vec![vec![Value::Int(2), Value::Int(1), Value::Int(50)]],
            )
            .unwrap();
        let big = r
            .fragment_deltas
            .iter()
            .find(|d| d.relation == "BigOrders")
            .expect("0-crossing must reach the store");
        assert_eq!((big.store_deletes, big.store_inserts), (1, 0));
        assert_eq!(big.mode, "counting");
        let twin = deploy(est.datasets()["shop"].clone());
        assert_same_stores(&est, &twin);
    }
}
