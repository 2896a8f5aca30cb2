//! Differential suite for the incremental write path: DML + delta
//! fragment maintenance against a drop-and-rematerialize twin.
//!
//! The contract under test:
//!
//! - **Bit-identity.** After any interleaving of inserts, deletes, and
//!   upserts, every store's content is byte-for-byte identical to a fresh
//!   engine deployed from the test's own model of the written rows (a bag
//!   per table that every batch is applied to, never read from the engine,
//!   whose `dataset()` rows must equal it after every batch) — same
//!   relational rows, same key-value entries, same documents, same
//!   parallel partitions, same text postings. Not just query-equivalent: the
//!   canonical store dumps render identically.
//! - **Exact statistics and indexes.** The catalog's `FragmentStats`, kept
//!   running from the deltas, equal the twin's full pass, and every index
//!   patched in place — a parallel dataset's key index, a relational
//!   table's column indexes, a collection's path indexes — answers every
//!   probe like a scan.
//! - **The fact base equals a fresh staging.** Every relation the schema
//!   declares holds, in the fact base the oracle reads, what a fresh
//!   engine staged from the model holds — also for a fact that
//!   two rows support and one delete leaves supported.
//! - **No staleness.** Maintenance is synchronous, so at every quiescent
//!   point each fragment's high-water mark equals the data epoch.
//! - **DDL between writes.** Adding or dropping a fragment or adding a
//!   constraint between batches leaves the write path exact: the next
//!   batch maintains every fragment the catalog holds then.
//! - **Readers are never torn.** Between write batches, concurrent
//!   shared-borrow readers all see the same committed state the writer
//!   left behind (`&mut self` DML serializes against `&self` reads at the
//!   borrow level — this suite pins the end-to-end consequence).

mod common;

use common::{sorted, Deploy, DEPLOYMENTS};
use estocada::catalog::WhereSpec;
use estocada::{Dataset, Estocada, FragmentSpec, Latencies, TableData};
use estocada_docstore::{eval_path, Filter};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::kernel::values_of;
use estocada_pivot::{Atom, CmpOp, ConstId, Constraint, Cq, CqBuilder, Term, Tgd, Value};
use estocada_relstore::{ColRef, Pred, SqlQuery};
use estocada_workloads::marketplace::{generate, Marketplace, MarketplaceConfig, W1Query};
use estocada_workloads::readwrite::{
    run_rw_workload, rw_workload, stale_fragments, RwConfig, RwOp,
};
use estocada_workloads::scenarios::{
    deploy_kv_migrated, deploy_materialized_join, personalized_sql, run_w1_query,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn cfg() -> MarketplaceConfig {
    common::cfg(30, 16, 90, 150, 17)
}

fn market() -> Marketplace {
    generate(cfg())
}

/// The marketplace as a test has written it — the test's own row model,
/// kept apart from the engine: the generated datasets with every accepted
/// batch applied to their tables as a bag. The drop-and-rematerialize twin
/// is deployed from it, never from the engine's own rows, and after every
/// batch the engine's rows equal it as multisets.
struct Model(Marketplace);

impl Model {
    fn new(m: &Marketplace) -> Model {
        Model(Marketplace {
            sales: m.sales.clone(),
            carts: m.carts.clone(),
            config: cfg(),
        })
    }

    /// The rows of `sales.{table}`.
    fn rows(&mut self, table: &str) -> &mut Vec<Vec<Value>> {
        let estocada::DatasetContent::Relational(tables) = &mut self.0.sales.content else {
            panic!("sales is relational");
        };
        let named = |t: &&mut TableData| *t.encoding.relation.as_str() == *table;
        &mut tables.iter_mut().find(named).expect("table of sales").rows
    }

    /// Apply a batch the engine accepted.
    fn write(&mut self, w: Write, table: &str, rows: Vec<Vec<Value>>) {
        let held = self.rows(table);
        match w {
            Write::Insert => held.extend(rows),
            Write::Delete => {
                for row in rows {
                    let at = held.iter().position(|r| *r == row).expect("a held row");
                    held.swap_remove(at);
                }
            }
            // Every table of sales is keyed on its first column.
            Write::Upsert => {
                held.retain(|r| rows.iter().all(|new| new[0] != r[0]));
                held.extend(rows);
            }
        }
    }

    /// Apply the write `op` of a mixed schedule, as `run_rw_workload` runs it.
    fn run(&mut self, op: &RwOp) {
        match op {
            RwOp::Read(_) => {}
            RwOp::InsertOrder {
                oid,
                uid,
                pid,
                category,
                amount,
            } => {
                let row = vec![
                    Value::Int(*oid),
                    Value::Int(*uid),
                    Value::Int(*pid),
                    Value::str(category),
                    Value::Double(*amount),
                ];
                self.write(Write::Insert, "Orders", vec![row]);
            }
            RwOp::DeleteOrder { oid } => {
                let live = self.rows("Orders").iter();
                let row: Vec<_> = live.filter(|r| r[0] == Value::Int(*oid)).cloned().collect();
                self.write(Write::Delete, "Orders", row);
            }
            RwOp::UpsertPref {
                uid,
                theme,
                language,
                newsletter,
            } => {
                let row = vec![
                    Value::Int(*uid),
                    Value::str(theme),
                    Value::str(language),
                    Value::Bool(*newsletter),
                ];
                self.write(Write::Upsert, "Prefs", vec![row]);
            }
        }
    }

    /// The engine holds the model's rows: every table of `dataset()`, as
    /// multisets.
    fn assert_held_by(&self, est: &Estocada, what: &str) {
        let held = est.dataset("sales").expect("sales is registered");
        let (estocada::DatasetContent::Relational(got), estocada::DatasetContent::Relational(want)) =
            (&held.content, &self.0.sales.content)
        else {
            panic!("sales is relational");
        };
        for (a, b) in got.iter().zip(want) {
            let name = a.encoding.relation;
            assert_eq!(
                sorted(a.rows.clone()),
                sorted(b.rows.clone()),
                "{what}: rows of {name}"
            );
        }
    }

    /// The drop-and-rematerialize twin: a fresh engine deployed from the
    /// model.
    fn twin(&self, deploy: Deploy) -> Estocada {
        deploy(&self.0, Latencies::zero())
    }
}

/// A write batch's kind.
#[derive(Debug, Clone, Copy)]
enum Write {
    Insert,
    Delete,
    Upsert,
}

/// Run `rows` as a `w` batch on `est` and on `model`; the engine's rows equal
/// the model's after it.
fn write(est: &mut Estocada, model: &mut Model, w: Write, table: &str, rows: Vec<Vec<Value>>) {
    let done = match w {
        Write::Insert => est.insert_rows("sales", table, rows.clone()),
        Write::Delete => est.delete_rows("sales", table, rows.clone()),
        Write::Upsert => est.upsert_rows("sales", table, rows.clone()),
    };
    done.expect("scripted batch");
    model.write(w, table, rows);
    model.assert_held_by(est, &format!("after a {w:?} into {table}"));
}

/// Run `ops` one at a time on `est` and on `model`, the engine's rows equal
/// to the model's after each; returns how many wrote.
fn run_ops(est: &mut Estocada, model: &mut Model, ops: &[RwOp]) -> usize {
    let mut writes = 0;
    for op in ops {
        writes += run_rw_workload(est, std::slice::from_ref(op))
            .expect("schedule")
            .writes;
        model.run(op);
        model.assert_held_by(est, &format!("after {op:?}"));
    }
    writes
}

fn assert_same_stores(a: &Estocada, b: &Estocada, what: &str) {
    let sa = a.stores.dump();
    let sb = b.stores.dump();
    assert_eq!(
        sa.len(),
        sb.len(),
        "{what}: store container sets differ: {:?} vs {:?}",
        sa.iter().map(|(k, _)| k).collect::<Vec<_>>(),
        sb.iter().map(|(k, _)| k).collect::<Vec<_>>()
    );
    for ((ka, va), (kb, vb)) in sa.iter().zip(sb.iter()) {
        assert_eq!(ka, kb, "{what}: container order diverged");
        assert_eq!(va, vb, "{what}: {ka} content diverged");
    }
}

fn assert_same_stats(a: &Estocada, b: &Estocada, what: &str) {
    for (a, b) in a.fragments().iter().zip(b.fragments()) {
        assert_eq!((&a.id, a.spec.kind()), (&b.id, b.spec.kind()));
        assert_eq!(
            format!("{:?}", a.stats),
            format!("{:?}", b.stats),
            "{what}: statistics of {} diverged from a first fill",
            a.id
        );
    }
}

/// Every fragment relation's running statistics equal a recount, keyed by
/// `Value`, of the rows its store holds now — read back through the
/// accessors `Stores::dump()` renders, resolved to values — so a consistent
/// bug in the running statistics, which a twin shares, still shows.
fn assert_stats_recount(est: &Estocada, what: &str) {
    let stores = &est.stores;
    for f in est.fragments() {
        for (r, stats) in f.relations.iter().zip(&f.stats) {
            let rows: Vec<Vec<Value>> = match &r.place {
                WhereSpec::Table { table, .. } => stores.rel.scan(table).expect("placed table"),
                WhereSpec::ParDataset { dataset, .. } => {
                    let ds = stores.par.dataset(dataset).expect("placed dataset");
                    values_of(ds.iter_rows())
                }
                WhereSpec::Namespace { namespace, .. } => {
                    let entries = stores.kv.scan(namespace);
                    let rows: Vec<Vec<ConstId>> = (entries.iter())
                        .flat_map(|(key, tuples)| tuples.rows().map(|t| [&[*key], t].concat()))
                        .collect();
                    values_of(rows.iter().map(Vec::as_slice))
                }
                WhereSpec::Collection {
                    collection,
                    columns,
                    ..
                } => {
                    let field = |doc: &Value, c: &String| doc.get(c).cloned().expect("a field");
                    let row = |doc: Value| columns.iter().map(|c| field(&doc, c)).collect();
                    stores.doc.scan(collection).into_iter().map(row).collect()
                }
                WhereSpec::TextIndex { index } => {
                    let docs = stores.text.documents(index).len() as u64;
                    let estimate = (docs * 8, vec![docs * 4, docs], docs * 64);
                    let held = (stats.rows, stats.distinct.clone(), stats.bytes);
                    assert_eq!(held, estimate, "{what}: text index {index}");
                    continue;
                }
                WhereSpec::NativeDocs { .. } => continue,
            };
            let arity = r.view.view.head.len();
            let mut distinct = vec![BTreeSet::new(); arity];
            for row in &rows {
                for (held, v) in distinct.iter_mut().zip(row) {
                    held.insert(v);
                }
            }
            let recount = (
                rows.len() as u64,
                distinct.iter().map(|d| d.len() as u64).collect::<Vec<_>>(),
                rows.iter()
                    .flatten()
                    .map(|v| v.approx_size() as u64)
                    .sum::<u64>(),
            );
            let held = (stats.rows, stats.distinct.clone(), stats.bytes);
            assert_eq!(
                held, recount,
                "{what}: statistics of {} vs a recount",
                r.name
            );
        }
    }
}

/// Every relation the schema declares — the tables, each `{table}_Terms`
/// and the document relations — holds the same facts in both engines' fact
/// bases (the identity query through the oracle, as sorted rows).
fn assert_same_fact_base(a: &Estocada, b: &Estocada, what: &str) {
    for r in a.schema().relations() {
        let vars: Vec<Term> = (0..r.arity() as u32).map(Term::var).collect();
        let identity = Cq::new(r.name, vars.clone(), vec![Atom::new(r.name, vars)]);
        assert_eq!(
            sorted(a.oracle_eval(&identity)),
            sorted(b.oracle_eval(&identity)),
            "{what}: the fact base's {} diverged from a fresh staging",
            r.name
        );
    }
}

/// The materialized-join deployment plus four views the write script
/// reaches: web logs in the relational store, indexed on dwell time and
/// user; orders as documents, path-indexed on category and user; a
/// self-join of orders, which a batch of new orders matches through two
/// changed facts at once; and orders selected by a constant.
fn deploy_indexed(m: &Marketplace, latencies: Latencies) -> Estocada {
    let mut est = deploy_materialized_join(m, latencies);
    est.add_fragment(FragmentSpec::Table {
        view: CqBuilder::new("WebLogByDwell")
            .head_vars(["lid", "uid", "pid", "category", "dwell_ms"])
            .atom("WebLog", |a| {
                a.v("lid").v("uid").v("pid").v("category").v("dwell_ms")
            })
            .build(),
        index_on: vec!["dwell_ms".into(), "uid".into()],
    })
    .expect("indexed table");
    est.add_fragment(FragmentSpec::DocRows {
        view: CqBuilder::new("OrderDocs")
            .head_vars(["oid", "uid", "pid", "category", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("category").v("amount")
            })
            .build(),
        index_on: vec!["category".into(), "uid".into()],
    })
    .expect("indexed documents");
    est.add_fragment(FragmentSpec::Table {
        view: CqBuilder::new("OrderPairs")
            .head_vars(["uid", "category", "p1", "p2"])
            .atom("Orders", |a| {
                a.v("o1").v("uid").v("p1").v("category").v("a1")
            })
            .atom("Orders", |a| {
                a.v("o2").v("uid").v("p2").v("category").v("a2")
            })
            .build(),
        index_on: vec![],
    })
    .expect("self-join");
    est.add_fragment(FragmentSpec::Table {
        view: CqBuilder::new("LaptopOrders")
            .head_vars(["oid", "uid", "pid", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").c("laptop").v("amount")
            })
            .build(),
        index_on: vec![],
    })
    .expect("selection by a constant");
    est
}

/// Every index the stores keep answers like a scan of its container, and
/// without scanning: a parallel dataset's key index every key (those its
/// rows have, those it lists, one neither has); a relational table's column
/// indexes — built at the fill or on demand — every equality and range
/// probe, and a collection's path indexes
/// every `find`, at each stored value and one no row holds.
fn assert_index_lookups_equal_scans(est: &Estocada, what: &str) {
    for name in est.stores.par.dataset_names() {
        let ds = est.stores.par.dataset(&name).expect("listed dataset");
        let columns = ds.key_columns();
        if columns.is_empty() {
            continue;
        }
        let key_of =
            |row: &Vec<Value>| -> Vec<Value> { columns.iter().map(|c| row[*c].clone()).collect() };
        let rows = values_of(ds.iter_rows());
        let mut keys: BTreeSet<Vec<Value>> = rows.iter().map(key_of).collect();
        // A keyed dataset holds one block per key: it holds no key its rows
        // lack when it holds as many blocks as they hold keys (each of
        // theirs is probed below).
        assert_eq!(
            ds.blocks().count(),
            keys.len(),
            "{what}: {name} holds a key no row holds"
        );
        keys.insert(vec![Value::Null; columns.len()]);
        for key in keys {
            let scan = rows.iter().filter(|r| key_of(r) == key);
            let found = ds.index_lookup(&key);
            assert_eq!(
                sorted(values_of(found)),
                sorted(scan.cloned().collect()),
                "{what}: {name} index answers {key:?} unlike a scan"
            );
        }
    }
    let scanned = |est: &Estocada| {
        let (rel, doc) = (&est.stores.rel.metrics, &est.stores.doc.metrics);
        (rel.snapshot().tuples_scanned, doc.snapshot().tuples_scanned)
    };
    let before = scanned(est);
    let ghost = Value::Int(-7);
    for place in est
        .fragments()
        .iter()
        .flat_map(|f| &f.relations)
        .map(|r| &r.place)
    {
        match place {
            WhereSpec::Table { table, columns, .. } => {
                let rows = est.stores.rel.scan(table).expect("placed table");
                // The fill's indexes and those queries' scans asked for.
                for col in &est.stores.rel.indexed(table) {
                    let values: BTreeSet<&Value> = rows.iter().map(|r| &r[*col]).collect();
                    for v in values.into_iter().chain([&ghost]) {
                        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
                            let at = |column| ColRef { table: 0, column };
                            let mut q = SqlQuery::new();
                            q.add_table(table);
                            let mut q = q.filter(Pred::ColConst(at(*col), op, v.clone()));
                            q.projection = (0..columns.len()).map(at).collect();
                            let scan = rows.iter().filter(|r| op.eval(&r[*col], v));
                            assert_eq!(
                                sorted(
                                    est.stores.rel.query(&q).expect("indexed probe").to_values()
                                ),
                                sorted(scan.cloned().collect()),
                                "{what}: {table}.{} {op} {v} unlike a scan",
                                columns[*col]
                            );
                        }
                    }
                }
            }
            WhereSpec::Collection {
                collection,
                columns,
                indexed,
            } => {
                let docs = est.stores.doc.scan(collection);
                for path in indexed.iter().map(|c| &columns[*c]) {
                    let values: BTreeSet<&Value> =
                        docs.iter().flat_map(|d| eval_path(d, path)).collect();
                    for v in values.into_iter().chain([&ghost]) {
                        let filter = Filter::all().eq(path, v.clone());
                        let found = est.stores.doc.find(collection, &filter, None);
                        let mut found = found.expect("a placed collection");
                        let mut scan: Vec<Value> =
                            docs.iter().filter(|d| filter.matches(d)).cloned().collect();
                        found.sort();
                        scan.sort();
                        assert_eq!(
                            found, scan,
                            "{what}: {collection}.{path} = {v} unlike a scan"
                        );
                    }
                }
            }
            _ => {}
        }
    }
    assert_eq!(scanned(est), before, "{what}: an indexed probe scanned");
}

/// One step of a write script over the two tables behind the deployment's
/// parallel fragments — `WebLogPar` (no key index) and the `UserHist` join
/// (indexed on uid, category): what to do, a source of choices, a size.
type Step = (u8, u64, usize);

/// The steps every scripted run starts with: a new `Orders` row stored
/// twice — one fact, two rows behind it — then one copy deleted, which must
/// leave the fact in the fact base.
const SHARED_FACT: [Step; 2] = [(0, 0, 1), (8, 0, 1)];

/// Run `step` against the model's current rows, on the engine and the
/// model. Even kinds write `Orders`, odd ones `WebLog`; new rows copy (uid,
/// pid, category) from a row of the other table, so they join into
/// `UserHist`.
fn apply_step(est: &mut Estocada, model: &mut Model, (kind, pick, size): Step, fresh: &mut i64) {
    let mut x = pick;
    let mut choose = |n: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % n.max(1)
    };
    let (table, other) = [("Orders", "WebLog"), ("WebLog", "Orders")][usize::from(kind % 2)];
    let (mut live, partners) = (model.rows(table).clone(), model.rows(other).clone());
    let mut new_row = |choose: &mut dyn FnMut(usize) -> usize| {
        *fresh += 1;
        let last = match table {
            "Orders" => Value::Double(choose(500) as f64 / 4.0),
            _ => Value::Int(choose(9000) as i64),
        };
        let mut row = vec![Value::Int(*fresh)];
        match partners.get(choose(partners.len())) {
            Some(partner) => row.extend(partner[1..4].iter().cloned()),
            None => row.extend([Value::Int(0), Value::Int(0), Value::str("laptop")]),
        }
        row.push(last);
        row
    };
    let (w, table, rows) = match kind {
        // New rows, the first one twice: physical duplicates in the table.
        0 | 1 => {
            let mut rows: Vec<_> = (0..size).map(|_| new_row(&mut choose)).collect();
            rows.push(rows[0].clone());
            (Write::Insert, table, rows)
        }
        // Stored rows, each stored instance at most once.
        2 | 3 => {
            let gone = (0..size.min(live.len())).map(|_| live.swap_remove(choose(live.len())));
            (Write::Delete, table, gone.collect())
        }
        // A stored `WebLogPar` row and the one `swap_remove` would move into
        // its place (identity view: a dataset row is a `WebLog` row).
        4 => {
            let ds = est.stores.par.dataset("WebLogPar").expect("WebLogPar");
            let block = ds.blocks().find(|block| block.len > 1);
            let pair = block
                .map(|block| values_of([&block[choose(block.len - 1)], &block[block.len - 1]]));
            drop(ds);
            (Write::Delete, "WebLog", pair.unwrap_or_default())
        }
        // Stored keys with a changed last column, and one new key.
        5 => {
            let keys: BTreeSet<&Value> = live.iter().map(|r| &r[0]).take(size).collect();
            let changed = keys.into_iter().map(|key| {
                let mut row = live.iter().find(|r| r[0] == *key).expect("own key").clone();
                row[4] = match &row[4] {
                    Value::Int(n) => Value::Int(n + 1),
                    _ => Value::Double(choose(500) as f64),
                };
                row
            });
            let mut rows: Vec<_> = changed.collect();
            rows.push(new_row(&mut choose));
            (Write::Upsert, table, rows)
        }
        // One copy of the last stored row: after kind 0 or 1 it is stored
        // twice, and the other copy still supports its facts.
        8 => (Write::Delete, table, live.split_off(live.len() - 1)),
        // Every row: the table's fragments and the join end up empty.
        _ => (Write::Delete, table, live),
    };
    write(est, model, w, table, rows);
}

// ---------------------------------------------------------------------
// Deterministic mixed schedule, both deployments, full bit-identity.
// ---------------------------------------------------------------------

#[test]
fn mixed_schedule_is_bit_identical_to_rematerialization() {
    let m = market();
    for &(name, deploy) in &DEPLOYMENTS[1..] {
        let ops = rw_workload(
            &m,
            RwConfig {
                ops: 80,
                write_ratio: 0.6,
                seed: 23,
            },
        );
        let (mut est, mut model) = (deploy(&m, Latencies::zero()), Model::new(&m));
        let writes = run_ops(&mut est, &mut model, &ops);
        assert!(writes > 0, "{name}: schedule must include writes");
        assert!(stale_fragments(&est).is_empty(), "{name}: stale fragments");
        let twin = model.twin(deploy);
        assert_same_stores(&est, &twin, name);
        // Queries agree too — same rows through the rewriting path.
        for uid in [0i64, 1, 3, 7] {
            for q in [
                W1Query::PrefLookup(uid),
                W1Query::CartLookup(uid),
                W1Query::UserOrders(uid),
            ] {
                let a = run_w1_query(&est, &q).expect("incremental query");
                let b = run_w1_query(&twin, &q).expect("remat query");
                assert_eq!(
                    sorted(a.rows),
                    sorted(b.rows),
                    "{name}: {q:?} diverged from the remat twin"
                );
            }
        }
        let sql = personalized_sql(1, "laptop");
        let a = est.query_sql(&sql).expect("incremental join query");
        let b = twin.query_sql(&sql).expect("remat join query");
        assert_eq!(sorted(a.rows), sorted(b.rows), "{name}: join diverged");
    }
}

// ---------------------------------------------------------------------
// First fill ≡ delta: the same writer serves both, so streaming every row
// into a deployment over empty tables ends where a first fill starts.
// ---------------------------------------------------------------------

#[test]
fn streaming_into_empty_tables_equals_a_first_fill() {
    let m = market();
    let estocada::DatasetContent::Relational(full) = &m.sales.content else {
        panic!("sales is relational");
    };
    let mut empty = m.sales.clone();
    if let estocada::DatasetContent::Relational(tables) = &mut empty.content {
        tables.iter_mut().for_each(|t| t.rows.clear());
    }
    let hollow = Marketplace {
        sales: empty,
        carts: m.carts.clone(),
        config: cfg(),
    };
    for &(name, deploy) in &DEPLOYMENTS[1..] {
        let mut est = deploy(&hollow, Latencies::zero());
        for t in full {
            for batch in t.rows.chunks(7) {
                est.insert_rows("sales", &t.encoding.relation.as_str(), batch.to_vec())
                    .expect("streamed insert");
            }
        }
        assert!(stale_fragments(&est).is_empty(), "{name}: stale fragments");
        let fresh = deploy(&m, Latencies::zero());
        assert_same_stores(&est, &fresh, name);
        assert_same_stats(&est, &fresh, name);
    }
}

// ---------------------------------------------------------------------
// Concurrent shared-borrow readers between write batches.
// ---------------------------------------------------------------------

#[test]
fn concurrent_readers_between_batches_see_one_committed_state() {
    let m = market();
    let (mut est, mut model) = (deploy_kv_migrated(&m, Latencies::zero()), Model::new(&m));
    let ops = rw_workload(
        &m,
        RwConfig {
            ops: 40,
            write_ratio: 0.8,
            seed: 29,
        },
    );
    let queries = [
        W1Query::PrefLookup(1),
        W1Query::CartLookup(3),
        W1Query::UserOrders(1),
    ];
    for batch in ops.chunks(8) {
        run_ops(&mut est, &mut model, batch);
        // The writer is quiescent: shared-borrow readers race each other,
        // and every one of them must see exactly the committed state.
        let expected: Vec<_> = queries
            .iter()
            .map(|q| sorted(run_w1_query(&est, q).expect("reference read").rows))
            .collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for _ in 0..3 {
                let est = &est;
                let queries = &queries;
                handles.push(scope.spawn(move || {
                    queries
                        .iter()
                        .map(|q| sorted(run_w1_query(est, q).expect("concurrent read").rows))
                        .collect::<Vec<_>>()
                }));
            }
            for h in handles {
                let got = h.join().expect("reader thread");
                assert_eq!(got, expected, "a concurrent reader saw a torn state");
            }
        });
        assert!(stale_fragments(&est).is_empty());
    }
    let twin = model.twin(deploy_kv_migrated);
    assert_same_stores(&est, &twin, "after interleaved reads");
}

// ---------------------------------------------------------------------
// Property: any random interleaving is bit-identical to remat.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any random insert/delete/upsert interleaving leaves every store
    /// bit-identical to a fresh rematerialization of the mutated data.
    #[test]
    fn any_interleaving_matches_rematerialization(
        seed in any::<u64>(),
        ops in 1..60usize,
        ratio_tenths in 3..=10u8,
    ) {
        let m = market();
        let schedule = rw_workload(&m, RwConfig {
            ops,
            write_ratio: f64::from(ratio_tenths) / 10.0,
            seed,
        });
        let (mut est, mut model) = (deploy_kv_migrated(&m, Latencies::zero()), Model::new(&m));
        let writes = run_ops(&mut est, &mut model, &schedule);
        prop_assert_eq!(est.metrics().data_epoch, writes as u64);
        prop_assert!(stale_fragments(&est).is_empty());
        let twin = model.twin(deploy_kv_migrated);
        let sa = est.stores.dump();
        let sb = twin.stores.dump();
        prop_assert_eq!(sa, sb, "stores diverged under seed {} ops {:?}", seed, schedule);
    }

    /// Multi-row batches — physical duplicates, the row a removal moves,
    /// whole tables — against the indexed and the unindexed parallel
    /// fragment: after **every** batch stores, statistics and key index
    /// are those of a fresh deployment. A reader holding a dataset handle
    /// across a batch keeps its snapshot; with no handle out the dataset
    /// is written where it lies.
    #[test]
    fn any_batches_keep_parallel_fragments_statistics_and_indexes_exact(
        script in proptest::collection::vec((0..8u8, any::<u64>(), 1..6usize), 1..9),
    ) {
        let mut est = deploy_indexed(&market(), Latencies::zero());
        // A read's paid scan indexes `WebLogByDwell.category`: every batch
        // maintains that index as it does the fill's.
        let read = "SELECT l.lid FROM WebLog l WHERE l.category = 'laptop'";
        est.query_sql(read).expect("a read");
        prop_assert_eq!(est.stores.rel.indexed("WebLogByDwell"), vec![1, 3, 4]);
        let (mut model, mut fresh) = (Model::new(&market()), 700_000i64);
        let hist = |est: &Estocada| est.stores.par.dataset("UserHist").expect("UserHist");
        for (i, step) in SHARED_FACT.iter().chain(&script).enumerate() {
            let what = format!("after step {i} of {script:?}");
            // Odd picks keep a reader's handle across the batch.
            let reader = (step.1 % 2 == 1).then(|| hist(&est));
            let seen: Vec<_> = reader.iter().flat_map(|ds| ds.iter_rows().map(<[_]>::to_vec)).collect();
            let home = Arc::as_ptr(&hist(&est));
            apply_step(&mut est, &mut model, *step, &mut fresh);
            match reader {
                Some(ds) => {
                    let sees: Vec<_> = ds.iter_rows().map(<[_]>::to_vec).collect();
                    prop_assert_eq!(sees, seen, "{}: a reader's snapshot moved", what);
                }
                None => {
                    let now = Arc::as_ptr(&hist(&est));
                    prop_assert_eq!(now, home, "{}: UserHist copied with no reader", what);
                }
            }
            prop_assert!(stale_fragments(&est).is_empty());
            let twin = model.twin(deploy_indexed);
            assert_same_stores(&est, &twin, &what);
            assert_same_stats(&est, &twin, &what);
            assert_stats_recount(&est, &what);
            assert_same_fact_base(&est, &twin, &what);
            assert_index_lookups_equal_scans(&est, &what);
        }
    }
}

/// One DDL operation of a script, replayed on the twin in the same order
/// (same history, same fragment ids).
#[derive(Debug, Clone)]
enum Ddl {
    Add(FragmentSpec),
    Drop(String),
    Constrain(Constraint),
}

/// Apply `ddl`; whether the engine accepted it. The deployments run DDL
/// under `ValidationMode::Strict`, so the analyzer may reject one — the
/// twin then rejects it too.
fn apply_ddl(est: &mut Estocada, ddl: &Ddl) -> bool {
    let done = match ddl {
        Ddl::Add(spec) => est.add_fragment(spec.clone()).map(drop),
        Ddl::Drop(id) => est.drop_fragment(id).map(drop),
        Ddl::Constrain(c) => est.add_constraint(c.clone()),
    };
    match done {
        Ok(()) => true,
        Err(estocada::Error::Invalid(_)) => false,
        Err(e) => panic!("scripted DDL {ddl:?}: {e}"),
    }
}

/// A view fragment over the tables the write steps touch, of the store
/// `pick` chooses, named `Added{n}`. Every body variable is in the head, so
/// the view adds no existential the analyzer could find a cycle through.
fn added_fragment(pick: u64, n: usize) -> FragmentSpec {
    let name = format!("Added{n}");
    let orders = CqBuilder::new(name.as_str())
        .atom("Orders", |a| a.v("oid").v("uid").v("pid").v("cat").v("amt"));
    match pick % 4 {
        0 => FragmentSpec::KeyValue {
            view: orders
                .head_vars(["uid", "oid", "pid", "cat", "amt"])
                .build(),
        },
        1 => FragmentSpec::Table {
            view: orders
                .head_vars(["uid", "name", "tier", "oid", "pid", "cat", "amt"])
                .atom("Users", |a| a.v("uid").v("name").v("tier"))
                .build(),
            index_on: vec!["uid".into()],
        },
        2 => FragmentSpec::ParRows {
            view: CqBuilder::new(name.as_str())
                .head_vars(["uid", "cat", "lid", "pid", "dwell"])
                .atom("WebLog", |a| {
                    a.v("lid").v("uid").v("pid").v("cat").v("dwell")
                })
                .build(),
            index_on: vec!["uid".into()],
            partitions: 2,
        },
        _ => FragmentSpec::DocRows {
            view: orders
                .head_vars(["oid", "uid", "pid", "cat", "amt"])
                .build(),
            index_on: vec![],
        },
    }
}

/// `Orders(o, u, p, c, a) → ∃ n, t. Users(u, n, t)`, named `fk{n}`.
fn orders_have_users(n: usize) -> Constraint {
    let v = Term::var;
    Tgd::new(
        format!("fk{n}").as_str(),
        vec![Atom::new("Orders", vec![v(0), v(1), v(2), v(3), v(4)])],
        vec![Atom::new("Users", vec![v(1), v(5), v(6)])],
    )
    .into()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Write batches interleaved with `add_fragment`, `drop_fragment` and
    /// `add_constraint`: after **every** step the stores and statistics are
    /// those of a fresh deployment of the current data that went through
    /// the same DDL, and no fragment lags the data epoch.
    #[test]
    fn ddl_between_batches_keeps_stores_statistics_and_marks_exact(
        script in proptest::collection::vec((0..9u8, any::<u64>(), 1..5usize), 1..10),
    ) {
        let mut est = deploy_materialized_join(&market(), Latencies::zero());
        let (mut fresh, mut log, mut accepted) = (700_000i64, Vec::new(), Vec::new());
        let mut model = Model::new(&market());
        // The shared-fact steps run as written; the script's write kinds
        // 0–3 insert or delete, and 4 upserts (write kind 5).
        let steps = SHARED_FACT.iter().map(|step| (step, true));
        let steps = steps.chain(script.iter().map(|step| (step, false)));
        for (i, (&(kind, pick, size), raw)) in steps.enumerate() {
            let what = format!("after step {i} of {script:?}");
            let ddl = match kind {
                k if raw || k <= 4 => None,
                5 | 6 => Some(Ddl::Add(added_fragment(pick, i))),
                7 => {
                    let ids: Vec<_> = est.fragments().iter().map(|f| f.id.clone()).collect();
                    Some(Ddl::Drop(ids[pick as usize % ids.len()].clone()))
                }
                _ => Some(Ddl::Constrain(orders_have_users(i))),
            };
            match ddl {
                Some(ddl) => {
                    accepted.push(apply_ddl(&mut est, &ddl));
                    log.push(ddl);
                }
                None if raw => apply_step(&mut est, &mut model, (kind, pick, size), &mut fresh),
                None => {
                    let step = (kind + kind / 4, pick, size);
                    apply_step(&mut est, &mut model, step, &mut fresh);
                }
            }
            prop_assert!(stale_fragments(&est).is_empty(), "{}: stale fragments", what);
            let mut twin = model.twin(deploy_materialized_join);
            let replayed: Vec<bool> = log.iter().map(|ddl| apply_ddl(&mut twin, ddl)).collect();
            prop_assert_eq!(&replayed, &accepted, "{}: the twin judged the DDL otherwise", what);
            prop_assert_eq!(est.fragments().len(), twin.fragments().len());
            assert_same_stores(&est, &twin, &what);
            assert_same_stats(&est, &twin, &what);
            assert_stats_recount(&est, &what);
            assert_same_fact_base(&est, &twin, &what);
        }
    }
}

// ---------------------------------------------------------------------
// Registration between writes: the fact base stages the new dataset next
// to the written ones, and a row written before it can still be deleted.
// ---------------------------------------------------------------------

#[test]
fn a_dataset_registered_between_batches_keeps_earlier_writes_deletable() {
    let notes = || {
        let encoding = TableEncoding::new("Notes", &["nid", "text"], Some(&["nid"]));
        let rows = vec![vec![Value::Int(1), Value::str("restock laptops")]];
        let text_columns = vec!["text".into()];
        Dataset::relational(
            "notes",
            vec![TableData {
                encoding,
                rows,
                text_columns,
            }],
        )
    };
    let mut est = deploy_materialized_join(&market(), Latencies::zero());
    let (mut model, mut fresh) = (Model::new(&market()), 700_000i64);
    apply_step(&mut est, &mut model, (0, 3, 2), &mut fresh);
    let written = model.rows("Orders").last().cloned().expect("a written row");
    est.register_dataset(notes()).expect("third dataset");
    write(&mut est, &mut model, Write::Delete, "Orders", vec![written]);
    apply_step(&mut est, &mut model, (1, 5, 2), &mut fresh);
    assert!(
        stale_fragments(&est).is_empty(),
        "a fragment lags the data epoch"
    );
    let mut twin = model.twin(deploy_materialized_join);
    twin.register_dataset(notes())
        .expect("third dataset on the twin");
    assert_same_stores(&est, &twin, "after a registration between batches");
    assert_same_stats(&est, &twin, "after a registration between batches");
    assert_same_fact_base(&est, &twin, "after a registration between batches");
}

// ---------------------------------------------------------------------
// Targeted counting edge: the schedule generator cannot force duplicate
// derivations, so pin one here — two orders deriving the same joined row,
// deleted one at a time, against the remat twin.
// ---------------------------------------------------------------------

#[test]
fn duplicate_derivations_delete_one_support_at_a_time() {
    let m = market();
    let (mut est, mut model) = (
        deploy_materialized_join(&m, Latencies::zero()),
        Model::new(&m),
    );
    // Pick a (uid, category) straight from a WebLog row so the inserted
    // orders definitely join into UserHist. Two orders with identical
    // uid/pid/category/amount then derive the *same* UserHist rows — only
    // derivation counts differ.
    let (uid, category) = {
        let log = &model.rows("WebLog")[0];
        (
            match &log[1] {
                Value::Int(u) => *u,
                v => panic!("uid {v:?}"),
            },
            log[3].as_str().expect("category").to_string(),
        )
    };
    let dup = |oid: i64| RwOp::InsertOrder {
        oid,
        uid,
        pid: 0,
        category: category.clone(),
        amount: 42.5,
    };
    let steps = [
        (vec![dup(800_000), dup(800_001)], "after dup inserts"),
        (
            vec![RwOp::DeleteOrder { oid: 800_000 }],
            "after first delete",
        ),
        (
            vec![RwOp::DeleteOrder { oid: 800_001 }],
            "after second delete",
        ),
    ];
    for (ops, what) in steps {
        run_ops(&mut est, &mut model, &ops);
        assert_same_stores(&est, &model.twin(deploy_materialized_join), what);
    }
}
