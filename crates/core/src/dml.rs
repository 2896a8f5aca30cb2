//! The incremental write path: DML (`insert` / `delete` / `upsert`) into
//! registered datasets with **incremental fragment maintenance**.
//!
//! # The maintenance model
//!
//! A DML batch flows through two layers, each maintained from the deltas
//! alone — no fragment is ever rematerialized:
//!
//! 1. **The staged fact base** (the crate-private `factbase` module), the
//!    one copy of a registered table's rows and the ground truth: every
//!    dataset row contributes the pivot facts of
//!    [`crate::dataset::TableData::facts`], and the fact base holds each
//!    relation as a counted relation ([`estocada_pivot::Bag`]): every fact
//!    once, with the number of rows behind it. A batch's netted fact delta
//!    is checked whole first — a delete taking a count below zero names a
//!    row the table does not hold, and rejects the batch — then removes
//!    only the facts whose count reaches zero and appends only those whose
//!    count leaves it.
//! 2. **Fragment stores**: a *view* fragment (table / key-value / doc-rows
//!    / par-rows) holds a row while some match of its view's body derives
//!    it (counting, Gupta, Mumick & Subrahmanian, SIGMOD 1993); no count is
//!    kept. Each phase of the semi-naive delta chase (deletes, then
//!    inserts) runs the view's compiled plan twice: through the changed
//!    facts, and with a head row fixed over the fact base as it stands; the
//!    row leaves (enters) its store when the two counts are equal. The
//!    phases' strata come from the batch: the doomed facts are moved to the
//!    tail of their relations and the born ones appended, so in each phase
//!    the changed facts are a relation's suffix and the older ones its
//!    prefix. *Native*
//!    fragments (native-tables, text-index) mirror the table's rows 1:1 and
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
//! | `validate` | the batch: arities, and an upsert's replaced rows, found by probing the fact base's postings on the declared key; a delete reads no stored row here |
//! | `delta_chase` | the batch's facts (each looked up once, and checked before any count moves), the matches of each view's compiled plan through them (semi-naive: the changed facts are the suffix of their relations, and only the counting views whose body reads a changed relation are compiled, once per batch), and the derivations of each head row they reach, counted by the same plan with the head fixed and stopped one past the delta's |
//! | `store_write` | the store rows that change: a relational delete is found through an index and patches the table's rows and index postings in place; a parallel-store delta reads and changes only the blocks of the keys it names, and moves no row of another key; a key-value entry is patched under its key; a document or text delete finds its documents by one scan (see below) |
//! | `stats` | the store rows that change: every maintained relation keeps its statistics running (row count, byte sum, occurrences per column value) in its catalog entry, from the accumulator its first fill built |
//!
//! Every relational, document and text container keeps its value→row
//! indexes as [`estocada_pivot::Postings`], and a delete takes its rows out
//! through one step ([`estocada_pivot::swap_remove`]): the last row moves
//! into each hole and every index forgets the one row and relocates the
//! other in place. A keyed parallel dataset keeps no postings: each key's
//! rows are one block, and a delete fills its holes from the end of that
//! block alone. So no physical row order is kept across writes (every
//! comparison with a rematerialization is of the sorted content), and no
//! index is rebuilt.
//! What is still proportional to a whole container is a delete where
//! nothing indexes every row — a relational table without any index, a
//! parallel dataset without a key, a document collection, a text
//! index: each is scanned once per batch (no measured workload writes the
//! last two).
//!
//! # Epochs and staleness
//!
//! Every batch bumps the engine's **data epoch** — distinct from the
//! catalog epoch, so cached rewrite plans survive writes — and advances
//! every fragment's **high-water mark** ([`crate::FragmentMeta::high_water`])
//! to it once its stores are maintained. `high_water` equal to
//! [`crate::Metrics::data_epoch`] is the staleness invariant: a reader that
//! observes the data epoch is guaranteed the fragments reflect it, because
//! DML holds `&mut Estocada`.
//!
//! DDL hands the write path nothing: a fill records its mark and running
//! statistics in the fragment's catalog entry, a drop removes the entry, a
//! registration stages the dataset's facts. The write path keeps no state
//! of its own.

use crate::catalog::{Catalog, FragmentRelation, FragmentSpec, WhereSpec};
use crate::dataset::{Dataset, DatasetContent, TableData};
use crate::error::{Error, Result};
use crate::evaluator::Estocada;
use crate::factbase::{net_deltas, FactBase};
use crate::layout;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::kernel::held;
use estocada_pivot::{IdRows, Value};
use std::time::{Duration, Instant};

/// A dataset row.
type Row = Vec<Value>;

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

/// Wall time of the steps of one DML batch, in the order they run.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmlSteps {
    /// Checking the batch's rows and finding the rows an upsert replaces.
    pub validate: Duration,
    /// From the batch to each relation's store operations: fact netting,
    /// the fact base's check of every delete and both delta-chase phases
    /// over compiled view plans.
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
fn table_of<'a>(
    datasets: &'a FastMap<String, Dataset>,
    dataset: &str,
    table: &str,
) -> Result<&'a TableData> {
    match datasets.get(dataset).map(|ds| &ds.content) {
        Some(DatasetContent::Relational(tables)) => tables
            .iter()
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

/// Every row has the table's arity, and an upsert names each key once and
/// needs a declared one. Returns the rows the batch takes out: a delete's
/// own, or every held row under an upserted key, found by probing `base`
/// on the key columns. Whether the table holds each delete is checked when
/// the fact base applies the batch. Nothing is mutated here.
fn validate(t: &TableData, base: &FactBase, out: Outgoing, inserts: &[Row]) -> Result<Vec<Row>> {
    let (name, arity) = (t.encoding.relation, t.encoding.columns.len());
    let deletes = match &out {
        Outgoing::Rows(rows) => rows.as_slice(),
        Outgoing::ReplacedByKey => &[],
    };
    if let Some(r) = deletes.iter().chain(inserts).find(|r| r.len() != arity) {
        let n = r.len();
        return Err(Error::Dml(format!(
            "row arity {n} does not match table {name} ({arity} columns)"
        )));
    }
    if let Outgoing::Rows(rows) = out {
        return Ok(rows);
    }
    let columns = key_columns(t)
        .ok_or_else(|| Error::Dml(format!("upsert into {name} needs a declared key")))?;
    let key = |r: &Row| -> Row { columns.iter().map(|c| r[*c].clone()).collect() };
    let mut named = FastSet::default();
    if let Some(r) = inserts.iter().find(|r| !named.insert(key(r))) {
        let twice = key(r);
        let message = format!("upsert into {name} names key {twice:?} twice in one batch");
        return Err(Error::Dml(message));
    }
    let replaced = |r: &Row| base.rows_like(t, &columns, r);
    Ok(inserts.iter().flat_map(replaced).collect())
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
    /// the fact base, which checks that the table holds every delete, then
    /// delta-chases the deletes, then the inserts, into each counting
    /// relation's row deltas, netting a row that leaves and re-enters;
    /// apply each relation's store operations, one
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
        let t = table_of(&self.datasets, dataset, table)?;
        let mut steps = DmlSteps::default();
        let deletes = validate(t, &self.base, outgoing, &inserts)?;
        steps.validate = t0.elapsed();
        // The batch's rows (each `arity` wide, as validated) for the raw
        // mirrors: the deletes looked up, never interned (the fact base
        // holds every value of a row it holds), the inserts interned once.
        let arity = t.encoding.columns.len();
        let misfit = |got| Error::Dml(format!("a row of {got} columns in a table of {arity}"));
        let inserted = IdRows::intern(&inserts, arity).map_err(misfit)?;
        let batch = (held(&deletes, arity), inserted);
        let minus = t.facts(&deletes).into_iter().map(|fact| (fact, -1));
        let plus = t.facts(&inserts).into_iter().map(|fact| (fact, 1));
        let fact_delta = net_deltas(minus.chain(plus));

        let views = counting_relations(catalog).map(|r| (r.name, &r.view.view));
        let ops = self.base.apply(fact_delta, &views.collect::<Vec<_>>());
        let name = t.encoding.relation;
        let ops =
            ops.map_err(|f| Error::Dml(format!("no row {:?} to delete in {name}", f.args)))?;
        steps.delta_chase = t0.elapsed() - steps.validate;

        // Counting relations absorb their crossings; raw mirrors of the
        // table absorb the batch itself, physical duplicate rows and all.
        let mut fragment_deltas = Vec::new();
        for fm in catalog.fragments_mut() {
            let relations = fm.relations.iter().zip(&mut fm.stats).zip(&mut fm.running);
            for ((r, stats), running) in relations {
                let ((gone, born), source) = match ops.get(&r.name) {
                    Some(crossings) => (crossings, None),
                    None if mirrors(&fm.spec, &r.place, dataset, table) => (&batch, Some(t)),
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
    use super::DmlReport;
    use crate::catalog::FragmentSpec;
    use crate::dataset::{Dataset, DatasetContent, TableData};
    use crate::error::{Error, Result};
    use crate::evaluator::Estocada;
    use crate::system::Latencies;
    use estocada_pivot::encoding::relational::TableEncoding;
    use estocada_pivot::{ConstReader, CqBuilder, Value};

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

    fn sorted(mut rows: Vec<Vec<Value>>) -> Vec<Vec<Value>> {
        rows.sort();
        rows
    }

    fn tables(ds: &Dataset) -> &[TableData] {
        match &ds.content {
            DatasetContent::Relational(tables) => tables,
            DatasetContent::Documents(_) => &[],
        }
    }

    /// An engine over the shop dataset beside the rows the test wrote: a
    /// bag per table that every accepted batch is applied to as well. The
    /// twin is deployed from this model, never from the engine's own rows,
    /// and after every batch the engine's rows equal it as multisets.
    struct Shop {
        est: Estocada,
        model: Dataset,
    }

    impl Shop {
        fn new(orders: &[(i64, i64, i64)]) -> Shop {
            Shop {
                est: deploy(shop(orders)),
                model: shop(orders),
            }
        }

        fn rows(&mut self, table: &str) -> &mut Vec<Vec<Value>> {
            let DatasetContent::Relational(tables) = &mut self.model.content else {
                unreachable!("shop is relational")
            };
            let named = |t: &&mut TableData| *t.encoding.relation.as_str() == *table;
            &mut tables.iter_mut().find(named).expect("a shop table").rows
        }

        fn insert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<DmlReport> {
            let done = self.est.insert_rows("shop", table, rows.clone());
            if done.is_ok() {
                self.rows(table).extend(rows);
            }
            self.assert_rows_match_the_model();
            done
        }

        fn delete(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<DmlReport> {
            let done = self.est.delete_rows("shop", table, rows.clone());
            if done.is_ok() {
                for row in rows {
                    let held = self.rows(table);
                    let at = held.iter().position(|r| *r == row).expect("a held row");
                    held.swap_remove(at);
                }
            }
            self.assert_rows_match_the_model();
            done
        }

        /// Upsert by the first column, the key of every keyed shop table.
        fn upsert(&mut self, table: &str, rows: Vec<Vec<Value>>) -> Result<DmlReport> {
            let done = self.est.upsert_rows("shop", table, rows.clone());
            if done.is_ok() {
                let held = self.rows(table);
                held.retain(|r| rows.iter().all(|new| new[0] != r[0]));
                held.extend(rows);
            }
            self.assert_rows_match_the_model();
            done
        }

        fn assert_rows_match_the_model(&self) {
            let held = self.est.dataset("shop").expect("shop is registered");
            for (t, m) in tables(&held).iter().zip(tables(&self.model)) {
                let name = t.encoding.relation;
                assert_eq!(
                    sorted(t.rows.clone()),
                    sorted(m.rows.clone()),
                    "rows of {name}"
                );
            }
        }

        /// A fresh deployment of the model, whose stores equal the engine's.
        fn twin(&self) -> Estocada {
            let twin = deploy(self.model.clone());
            assert_same_stores(&self.est, &twin);
            twin
        }
    }

    fn assert_same_stores(incremental: &Estocada, fresh: &Estocada) {
        assert_eq!(
            incremental.stores.dump(),
            fresh.stores.dump(),
            "stores diverged from rematerialization"
        );
    }

    /// Everything a rejected batch must leave as it was: every declared
    /// relation's facts with their counts, the stores, the statistics, the
    /// marks, the data epoch and the dataset's rows.
    fn state(est: &Estocada) -> String {
        // Each relation read as a keyless table: its facts with their counts.
        let facts = |r: &estocada_pivot::RelationDecl| TableData {
            encoding: TableEncoding {
                relation: r.name,
                columns: (0..r.arity()).map(|c| format!("c{c}")).collect(),
                key: None,
            },
            rows: vec![],
            text_columns: vec![],
        };
        let counts: Vec<_> = est
            .schema()
            .relations()
            .map(|r| est.base.rows(&facts(r)))
            .collect();
        let fragments = est.fragments().iter();
        let stats: Vec<_> = fragments.map(|f| (&f.stats, f.high_water)).collect();
        let rows = est.dataset("shop");
        let epoch = est.metrics().data_epoch;
        format!(
            "{counts:?} {:?} {stats:?} {epoch} {rows:?}",
            est.stores.dump()
        )
    }

    #[test]
    fn mixed_dml_matches_a_fresh_rematerialization() {
        let mut shop = Shop::new(&[(1, 1, 10), (2, 1, 20), (3, 2, 30), (4, 2, 20)]);
        shop.insert(
            "Orders",
            vec![
                vec![Value::Int(5), Value::Int(1), Value::Int(70)],
                vec![Value::Int(6), Value::Int(2), Value::Int(20)],
            ],
        )
        .unwrap();
        shop.delete(
            "Orders",
            vec![vec![Value::Int(2), Value::Int(1), Value::Int(20)]],
        )
        .unwrap();
        shop.upsert("Users", vec![vec![Value::Int(2), Value::str("bobby")]])
            .unwrap();
        shop.upsert(
            "Products",
            vec![vec![Value::Int(1), Value::str("wireless trackball mouse")]],
        )
        .unwrap();
        assert_eq!(shop.est.metrics().data_epoch, 4);
        for f in shop.est.catalog().fragments() {
            assert_eq!(f.high_water, 4);
        }
        shop.twin();
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
        assert_eq!(est.metrics().data_epoch, 2);
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
            est.metrics().data_epoch,
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
    fn a_delete_the_fact_counts_cannot_cover_changes_nothing() {
        let mut shop = Shop::new(&[(1, 1, 10), (2, 2, 20)]);
        let mouse = vec![Value::Int(1), Value::str("wireless mouse")];
        // Held once, deleted twice; and a row never held that shares a
        // term fact with a held one, requested after it.
        let never = vec![Value::Int(1), Value::str("never held mouse")];
        let batches = [
            (vec![mouse.clone(), mouse.clone()], &mouse),
            (vec![mouse.clone(), never.clone()], &never),
        ];
        for (batch, named) in batches {
            let before = state(&shop.est);
            let err = shop.delete("Products", batch).unwrap_err();
            let wanted = format!("no row {named:?} to delete in Products");
            assert!(matches!(&err, Error::Dml(m) if *m == wanted), "got {err}");
            assert_eq!(
                state(&shop.est),
                before,
                "a rejected delete changed the engine"
            );
        }
        let interned = ConstReader::new().lookup(&never[1]);
        assert!(interned.is_none(), "a rejected delete interned its row");
        let r = shop.delete("Products", vec![mouse]).unwrap();
        assert_eq!((r.deleted, r.data_epoch), (1, 1));
        let twin = shop.twin();
        for (a, b) in shop.est.fragments().iter().zip(twin.fragments()) {
            let (sa, sb) = (format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(sa, sb, "stats of {} diverged", a.id);
        }
    }

    #[test]
    fn equal_deletes_claim_distinct_stored_rows() {
        // Clicks declares no key: the table holds (1, "home") three times.
        let home = || vec![Value::Int(1), Value::str("home")];
        let mut shop = Shop::new(&[(1, 1, 10)]);
        shop.insert("Clicks", vec![home(), home()]).unwrap();
        let before = shop.est.stores.dump();
        let err = shop.delete("Clicks", vec![home(); 4]).unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(shop.est.stores.dump(), before, "a fourth copy was found");
        let r = shop.delete("Clicks", vec![home(); 2]).unwrap();
        assert_eq!((r.deleted, r.data_epoch), (2, 2));
        let twin = shop.twin();
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
        let mut shop = Shop::new(&[(1, 1, 10)]);
        let before = state(&shop.est);
        let err = shop
            .upsert(
                "Users",
                vec![
                    vec![Value::Int(1), Value::str("anna")],
                    vec![Value::Int(3), Value::str("cy")],
                    vec![Value::Int(1), Value::str("annie")],
                ],
            )
            .unwrap_err();
        assert!(matches!(err, Error::Dml(_)), "got {err}");
        assert_eq!(
            state(&shop.est),
            before,
            "a rejected upsert changed the engine"
        );
    }

    #[test]
    fn containers_emptied_by_deletes_match_a_first_fill_over_no_rows() {
        // Every Orders row (table, key-value, doc, par mirrors) and every
        // Products row (text index) goes; the twin is deployed over the
        // emptied tables and must hold the same containers.
        let mut shop = Shop::new(&[(1, 1, 10), (2, 2, 20)]);
        for table in ["Orders", "Products"] {
            let rows = shop.rows(table).clone();
            shop.delete(table, rows).unwrap();
        }
        let twin = shop.twin();
        for (a, b) in shop.est.fragments().iter().zip(twin.fragments()) {
            let (sa, sb) = (format!("{:?}", a.stats), format!("{:?}", b.stats));
            assert_eq!(sa, sb, "stats of {} diverged", a.id);
        }
    }

    #[test]
    fn dml_keeps_cached_plans_and_serves_fresh_rows() {
        let mut shop = Shop::new(&[(1, 1, 10), (2, 2, 20)]);
        let sql = "SELECT o.oid, o.amount FROM Orders o WHERE o.uid = 1";
        let _ = shop.est.query_sql(sql).unwrap();
        shop.insert(
            "Orders",
            vec![vec![Value::Int(3), Value::Int(1), Value::Int(30)]],
        )
        .unwrap();
        let r = shop.est.query_sql(sql).unwrap();
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
        let id = shop.est.add_fragment(users_kv()).unwrap();
        assert_eq!(marks(&shop.est), vec![1; 7], "DDL moved a mark");
        shop.upsert("Users", vec![vec![Value::Int(2), Value::str("bo")]])
            .unwrap();
        assert_eq!(marks(&shop.est), vec![2; 7]);
        let mut twin = deploy(shop.model.clone());
        twin.add_fragment(users_kv()).unwrap();
        assert_same_stores(&shop.est, &twin);
        shop.est.drop_fragment(&id).unwrap();
        assert!(shop.est.fragments().iter().all(|f| f.id != id));
        assert_eq!(marks(&shop.est), vec![2; 6]);
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
        let mut shop = Shop::new(&[(1, 1, 50), (2, 1, 50), (3, 2, 30)]);
        let r = shop
            .delete(
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
        shop.twin();
        // Deleting the second copy crosses to zero and removes the row.
        let r = shop
            .delete(
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
        shop.twin();
    }
}
