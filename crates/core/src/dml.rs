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
//! 2. **The staged fact base**: every dataset row contributes the pivot
//!    facts of [`crate::dataset::TableData::row_facts`]. The maintenance
//!    state counts rows per fact (`fact_counts`); a fact is retracted from
//!    the [`Instance`] only when its count reaches zero and inserted only
//!    on the zero→positive crossing, because the pivot model has set
//!    semantics (two rows can share a `{table}_Terms` fact).
//! 3. **Fragment stores**: each *view* fragment (table / key-value /
//!    doc-rows / par-rows) carries a per-row **support count** — how many
//!    body homomorphisms derive the row — kept current by the two-phase
//!    semi-naive delta chase ([`estocada_chase::find_homs_delta`]; deletes,
//!    then inserts). A store row is deleted on the support's →0 crossing
//!    and inserted on the 0→ crossing (counting solution to the deletion
//!    problem — no tombstones needed). *Native* fragments (native-tables,
//!    text-index) mirror the dataset rows 1:1 and receive the raw row
//!    deltas directly, preserving physical duplicate-row parity with a
//!    fresh rematerialization. Every store delta goes through
//!    `crate::layout::write`, the writer of the first fill: that module
//!    alone owns the physical formats.
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
//! | `validate` | the batch, plus one scan of the target table per delete to find the stored instance it removes (an insert-only batch reads no stored row) |
//! | `delta_chase` | the batch's facts and the view homomorphisms through them (semi-naive); taking a row out of the table shifts the rows behind it |
//! | `store_write` | the store rows that change: a relational or document insert, a key-value put, an in-place parallel-store delta whose deletes are found through the key index |
//! | `stats` | the store rows that change: every maintained relation keeps its statistics running (row count, byte sum, occurrences per column value), seeded by one pass over its rows at its first delta after DDL |
//!
//! One store write is still proportional to the fragment: deleting from a
//! parallel dataset **without** a key index scans its partitions, once per
//! batch. Smaller whole-container costs remain in the other writers — the
//! key-value layout regroups touched keys by walking the relation's rows,
//! and the relational and document stores rebuild a container's secondary
//! indexes after a delete.
//!
//! # Epochs and staleness
//!
//! Every batch bumps the engine's **data epoch** — distinct from the
//! catalog epoch, so cached rewrite plans survive writes — and advances
//! every fragment's **high-water mark** to it once its stores are
//! maintained. `high_water(fragment) == data_epoch()` is the staleness
//! invariant: a reader that observes the data epoch is guaranteed the
//! fragments reflect it, because DML holds `&mut Estocada` (writes are
//! serialized against the shared-read query path at the borrow level).
//!
//! DDL invalidates the maintenance state wholesale (supports were computed
//! against the previous catalog); it is re-seeded lazily on the next write.

use crate::catalog::{Catalog, FragmentRelation, FragmentSpec, StatsAccumulator, WhereSpec};
use crate::dataset::{Dataset, DatasetContent, TableData};
use crate::error::{Error, Result};
use crate::evaluator::Estocada;
use crate::layout;
use crate::materialize::head_rows;
use estocada_chase::{Elem, Instance};
use estocada_pivot::{Symbol, Value};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};
use std::hash::Hash;
use std::time::{Duration, Instant};

/// Ground fact key: `(pred, interned args)`.
type FactKey = (Symbol, Vec<Elem>);
/// A dataset row or a fragment-relation row.
type Row = Vec<Value>;
/// `(head row, ±1)` per enumerated homomorphism, per counting relation.
type RowDeltas = HashMap<Symbol, Vec<(Row, i64)>>;
/// Rows to delete from and rows to insert into one relation's container.
type StoreOps = (Vec<Row>, Vec<Row>);

/// Incremental-maintenance bookkeeping, seeded lazily on the first DML
/// batch and dropped by any DDL operation.
#[derive(Debug, Clone, Default)]
pub struct MaintenanceState {
    /// `(pred, ground args)` → number of dataset rows encoding this fact.
    fact_counts: HashMap<(Symbol, Vec<Elem>), u64>,
    /// Counting (view) fragment relation → distinct head row → number of
    /// body homomorphisms deriving it.
    supports: HashMap<Symbol, HashMap<Vec<Value>, u64>>,
    /// Fragment id → data epoch through which its stores are maintained.
    high_water: HashMap<String, u64>,
    /// Fragment relation → its running statistics, from its first delta on.
    stats: HashMap<Symbol, StatsAccumulator>,
}

impl MaintenanceState {
    /// The data epoch through which `fragment`'s stores are maintained
    /// (`None` for unknown fragments).
    pub fn high_water(&self, fragment: &str) -> Option<u64> {
        self.high_water.get(fragment).copied()
    }
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

/// Wall time of the steps of one DML batch, in the order they run. Seeding
/// the maintenance state (first write after DDL) is in none of them, so the
/// steps sum to less than [`DmlReport::maintenance_time`] on that write.
#[derive(Debug, Clone, Copy, Default)]
pub struct DmlSteps {
    /// Checking the batch against the table and locating its deletes.
    pub validate: Duration,
    /// Dataset rows, fact netting, both delta-chase phases and the support
    /// crossings: from the batch to each relation's store operations.
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

/// The relations maintained by support counting: those of view fragments.
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

/// Occurrences per key — the seed of both multiplicity maps. Tallying the
/// head rows [`crate::materialize::evaluate_view`] dedups makes a support
/// map's keys exactly the materialized distinct row set.
fn tally<K: Eq + Hash>(keys: impl Iterator<Item = K>) -> HashMap<K, u64> {
    let mut counts = HashMap::new();
    for key in keys {
        *counts.entry(key).or_insert(0) += 1;
    }
    counts
}

/// The pivot facts `rows` of `t` contribute, one key per (row, fact).
fn fact_keys<'a>(t: &'a TableData, rows: &'a [Row]) -> impl Iterator<Item = FactKey> + 'a {
    let facts = rows.iter().flat_map(|row| t.row_facts(row));
    facts.map(|f| (f.pred, f.args.iter().map(Elem::constant).collect()))
}

/// Sum signed deltas per key, in first-touch order; keys netting to zero
/// drop out before the instance or any store is touched.
fn net_deltas<K: Clone + Eq + Hash>(deltas: impl IntoIterator<Item = (K, i64)>) -> Vec<(K, i64)> {
    let mut slot: HashMap<K, usize> = HashMap::new();
    let mut net: Vec<(K, i64)> = Vec::new();
    for (key, d) in deltas {
        match slot.entry(key) {
            Entry::Occupied(e) => net[*e.get()].1 += d,
            Entry::Vacant(e) => {
                net.push((e.key().clone(), d));
                e.insert(net.len() - 1);
            }
        }
    }
    net.retain(|(_, d)| *d != 0);
    net
}

/// Roll netted deltas into a multiplicity map (entries are positive; zero
/// is absence). Returns the keys that crossed to zero and the keys that
/// crossed from zero, each in the order of `net`.
fn zero_crossings<K: Clone + Eq + Hash>(
    counts: &mut HashMap<K, u64>,
    net: Vec<(K, i64)>,
) -> (Vec<K>, Vec<K>) {
    let (mut gone, mut born) = (Vec::new(), Vec::new());
    for (key, d) in net {
        if let Some(n) = counts.get_mut(&key) {
            let after = *n as i64 + d;
            debug_assert!(after >= 0, "multiplicity went negative");
            if after > 0 {
                *n = after as u64;
            } else {
                counts.remove(&key);
                gone.push(key);
            }
        } else if d > 0 {
            counts.insert(key.clone(), d as u64);
            born.push(key);
        }
    }
    (gone, born)
}

/// Resolve `dataset.table`.
fn table_mut<'a>(
    datasets: &'a mut HashMap<String, Dataset>,
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

/// Every row has the table's arity and every delete finds its own stored
/// instance, whose position is returned per delete: equal deletes claim
/// distinct instances, the first stored first. An insert-only batch reads no
/// stored row. Nothing has been mutated when this fails.
fn validate(t: &TableData, deletes: &[Row], inserts: &[Row]) -> Result<Vec<usize>> {
    let (name, arity) = (t.encoding.relation, t.encoding.columns.len());
    if let Some(r) = deletes.iter().chain(inserts).find(|r| r.len() != arity) {
        let n = r.len();
        return Err(Error::Dml(format!(
            "row arity {n} does not match table {name} ({arity} columns)"
        )));
    }
    let mut claimed = Vec::with_capacity(deletes.len());
    for d in deletes {
        let same = t.rows.iter().enumerate().filter(|(_, r)| *r == d);
        match same.map(|(at, _)| at).find(|at| !claimed.contains(at)) {
            Some(at) => claimed.push(at),
            None => return Err(Error::Dml(format!("no row {d:?} to delete in {name}"))),
        }
    }
    Ok(claimed)
}

/// Seed the maintenance state from the datasets, the fact base and the
/// catalog as they stand before the first batch after DDL.
fn seed(
    datasets: &HashMap<String, Dataset>,
    catalog: &Catalog,
    base: &Instance,
    data_epoch: u64,
) -> MaintenanceState {
    let tables = datasets.values().flat_map(|ds| match &ds.content {
        DatasetContent::Relational(tables) => tables.as_slice(),
        DatasetContent::Documents(_) => &[],
    });
    let supports = |r: &FragmentRelation| (r.name, tally(head_rows(base, &r.view.view, None)));
    let fragments = catalog.fragments().iter();
    MaintenanceState {
        fact_counts: tally(tables.flat_map(|t| fact_keys(t, &t.rows))),
        supports: counting_relations(catalog).map(supports).collect(),
        high_water: fragments.map(|f| (f.id.clone(), data_epoch)).collect(),
        stats: HashMap::new(),
    }
}

/// One phase of the delta chase: stamp `facts` into a fresh epoch — doomed
/// ones (`sign < 0`) are retracted only after the enumeration, new ones
/// (`sign > 0`) inserted before it — and record `(head row, sign)` for every
/// homomorphism of a counting view through at least one of them, once.
fn delta_chase(
    base: &mut Instance,
    catalog: &Catalog,
    facts: &[FactKey],
    sign: i64,
    out: &mut RowDeltas,
) {
    if facts.is_empty() {
        return;
    }
    let epoch = base.advance_epoch();
    let mut doomed = Vec::new();
    for (pred, args) in facts {
        if sign > 0 {
            base.insert(*pred, args.clone());
        } else if let Some(id) = base.find_fact(*pred, args) {
            base.touch(id);
            doomed.push(id);
        }
    }
    let delta = base.delta_index(epoch);
    for r in counting_relations(catalog) {
        let rows = head_rows(base, &r.view.view, Some(&delta));
        let deltas = out.entry(r.name).or_default();
        deltas.extend(rows.map(|row| (row, sign)));
    }
    for id in doomed {
        base.retract(id);
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
        self.apply_dml(dataset, table, (Vec::new(), rows))
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
        self.apply_dml(dataset, table, (rows, Vec::new()))
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
        let t = table_mut(&mut self.datasets, dataset, table)?;
        let key_cols: Vec<usize> = t
            .encoding
            .key
            .as_ref()
            .filter(|k| !k.is_empty())
            .ok_or_else(|| Error::Dml(format!("upsert into {table} needs a declared key")))?
            .iter()
            .filter_map(|k| t.encoding.columns.iter().position(|c| c == k))
            .collect();
        // A row too short for the key is left to the arity check.
        let key_of = |r: &Row| -> Vec<_> { key_cols.iter().map(|c| r.get(*c).cloned()).collect() };
        let mut keys = HashSet::new();
        if let Some(twice) = rows.iter().map(key_of).find_map(|k| keys.replace(k)) {
            return Err(Error::Dml(format!(
                "upsert into {table} names key {twice:?} twice in one batch"
            )));
        }
        let stored = t.rows.iter().filter(|row| keys.contains(&key_of(row)));
        let deletes = stored.cloned().collect();
        self.apply_dml(dataset, table, (deletes, rows))
    }

    /// The maintenance bookkeeping, once seeded by a first write attempt
    /// (`None` before any DML or right after DDL).
    pub fn maintenance(&self) -> Option<&MaintenanceState> {
        self.maint.as_ref()
    }

    /// The whole incremental write path, an orchestrator over its steps:
    /// [`validate`]; net the fact deltas ([`net_deltas`]) and classify them
    /// through the fact multiplicities ([`zero_crossings`]); [`delta_chase`]
    /// the deletes, then the inserts; turn the support crossings into store
    /// operations (the same two helpers); apply them, one [`layout::write`]
    /// per relation, and move its running statistics by the same rows;
    /// advance the data epoch and every high-water mark.
    fn apply_dml(&mut self, dataset: &str, table: &str, batch: StoreOps) -> Result<DmlReport> {
        let t0 = Instant::now();
        let (deletes, inserts) = &batch;
        self.base(); // stage the fact base now if no query has
        let Some(base) = self.base.get_mut() else {
            return Err(Error::Dml("the fact base is not staged".into()));
        };
        // Seeded before the table is borrowed: seeding reads every dataset.
        let (catalog, epoch) = (&mut self.catalog, &mut self.data_epoch);
        let fresh = || seed(&self.datasets, catalog, base, *epoch);
        let maint = self.maint.get_or_insert_with(fresh);
        let t = table_mut(&mut self.datasets, dataset, table)?;
        let mut steps = DmlSteps::default();
        let started = Instant::now();
        let mut doomed = validate(t, deletes, inserts)?;
        steps.validate = started.elapsed();
        let minus = fact_keys(t, deletes).map(|fact| (fact, -1));
        let plus = fact_keys(t, inserts).map(|fact| (fact, 1));
        let fact_delta = net_deltas(minus.chain(plus));
        // Highest position first, so the ones still to go stay put.
        doomed.sort_unstable_by(|a, b| b.cmp(a));
        for at in doomed {
            t.rows.remove(at);
        }
        t.rows.extend(inserts.iter().cloned());

        let (minus, plus) = zero_crossings(&mut maint.fact_counts, fact_delta);
        let mut row_deltas = RowDeltas::new();
        delta_chase(base, catalog, &minus, -1, &mut row_deltas);
        delta_chase(base, catalog, &plus, 1, &mut row_deltas);
        // A row leaves its store as its support crosses to zero, enters
        // it as the support crosses from zero.
        let ops = row_deltas.into_iter().map(|(relation, deltas)| {
            let supports = maint.supports.entry(relation).or_default();
            (relation, zero_crossings(supports, net_deltas(deltas)))
        });
        let ops: HashMap<Symbol, StoreOps> = ops.collect();
        steps.delta_chase = started.elapsed() - steps.validate;

        // Counting relations absorb their crossings; raw mirrors of the
        // table absorb the batch itself, physical duplicate rows and all.
        let mut fragment_deltas = Vec::new();
        for fm in catalog.fragments_mut() {
            for (r, stats) in fm.relations.iter().zip(&mut fm.stats) {
                let supports = maint.supports.get(&r.name);
                let (gone, born) = match ops.get(&r.name) {
                    Some(crossings) => crossings,
                    None if mirrors(&fm.spec, &r.place, dataset, table) => &batch,
                    _ => continue,
                };
                if gone.is_empty() && born.is_empty() {
                    continue;
                }
                // The relation's rows once the delta is in — the supported
                // rows, or the mirrored table's — are what is written from
                // and what a rematerialization would compute statistics of.
                let source = supports.is_none().then_some(&*t);
                let mirrored = source.map_or(&[][..], |t| &t.rows);
                let resident = || supports.into_iter().flat_map(HashMap::keys).chain(mirrored);
                let writing = Instant::now();
                layout::write(&self.stores, &r.place, source, gone, born, &mut resident())?;
                let written = Instant::now();
                let held = match maint.stats.entry(r.name) {
                    // The relation's first delta since DDL: the one pass over
                    // its rows, which already hold the delta.
                    Entry::Vacant(e) => {
                        let arity = r.view.view.head.len();
                        e.insert(layout::accumulate(&r.place, resident(), arity))
                    }
                    Entry::Occupied(e) => {
                        let held = e.into_mut();
                        gone.iter().for_each(|row| held.remove(row));
                        born.iter().for_each(|row| held.add(row));
                        held
                    }
                };
                *stats = layout::stats(&r.place, held);
                steps.store_write += written - writing;
                steps.stats += written.elapsed();
                fragment_deltas.push(FragmentDelta {
                    fragment: fm.id.clone(),
                    relation: r.name.as_str().to_string(),
                    store_deletes: gone.len(),
                    store_inserts: born.len(),
                    mode: if source.is_none() { "counting" } else { "raw" },
                });
            }
        }

        *epoch += 1;
        maint.high_water.values_mut().for_each(|hw| *hw = *epoch);
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
        let m = est.maintenance().expect("seeded by DML");
        for f in est.catalog().fragments() {
            assert_eq!(m.high_water(&f.id), Some(4));
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
        let m = est.maintenance().unwrap();
        for f in est.catalog().fragments() {
            assert_eq!(
                m.high_water(&f.id),
                Some(2),
                "fragment {} lags the data epoch",
                f.id
            );
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
        let (stores, rows) = (est.stores.dump(), format!("{:?}", est.datasets()["shop"]));
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
        assert!(est.maintenance().is_none(), "rejected batch seeded state");
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
        // DDL, by contrast, drops the maintenance state with the epoch.
        assert!(est.maintenance().is_some());
        est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("UsersKV")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        })
        .unwrap();
        assert!(est.maintenance().is_none(), "DDL must reset maintenance");
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
            "support 2 -> 1 must not delete the store row (got {big:?})"
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
