//! Differential suite for the incremental write path: DML + delta
//! fragment maintenance against a drop-and-rematerialize twin.
//!
//! The contract under test:
//!
//! - **Bit-identity.** After any interleaving of inserts, deletes, and
//!   upserts, every store's content is byte-for-byte identical to a fresh
//!   engine deployed from the mutated datasets — same relational rows,
//!   same packed key-value entries, same documents, same parallel
//!   partitions, same text postings. Not just query-equivalent: the
//!   canonical store dumps render identically.
//! - **Exact statistics and indexes.** The catalog's `FragmentStats`, kept
//!   running from the deltas, equal the twin's full pass, and a parallel
//!   dataset's key index, patched in place, answers every key like a scan.
//! - **No staleness.** Maintenance is synchronous, so at every quiescent
//!   point each fragment's high-water mark equals the data epoch.
//! - **Readers are never torn.** Between write batches, concurrent
//!   shared-borrow readers all see the same committed state the writer
//!   left behind (`&mut self` DML serializes against `&self` reads at the
//!   borrow level — this suite pins the end-to-end consequence).

mod common;

use common::{sorted, Deploy, DEPLOYMENTS};
use estocada::{Estocada, Latencies};
use estocada_pivot::Value;
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

/// The drop-and-rematerialize twin: a fresh engine deployed from the
/// incremental engine's *current* (mutated) datasets.
fn remat_twin(est: &Estocada, deploy: Deploy) -> Estocada {
    let m = Marketplace {
        sales: est.datasets()["sales"].clone(),
        carts: est.datasets()["Carts"].clone(),
        config: cfg(),
    };
    deploy(&m, Latencies::zero())
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

/// The rows of `sales.{table}` as the engine holds them now.
fn stored(est: &Estocada, table: &str) -> Vec<Vec<Value>> {
    let estocada::DatasetContent::Relational(tables) = &est.datasets()["sales"].content else {
        panic!("sales is relational");
    };
    let t = tables
        .iter()
        .find(|t| *t.encoding.relation.as_str() == *table);
    t.expect("table of sales").rows.clone()
}

/// Every key-indexed parallel dataset answers every key — those its rows
/// have, those its index lists, and one neither has — like a filter over
/// its rows.
fn assert_index_lookups_equal_scans(est: &Estocada, what: &str) {
    for name in est.stores.par.dataset_names() {
        let ds = est.stores.par.dataset(&name).expect("listed dataset");
        let Some(idx) = &ds.key_index else { continue };
        let key_of = |row: &Vec<Value>| -> Vec<Value> {
            idx.columns.iter().map(|c| row[*c].clone()).collect()
        };
        let mut keys: BTreeSet<Vec<Value>> = ds.iter_rows().map(key_of).collect();
        keys.extend(idx.map.keys().cloned());
        keys.insert(vec![Value::Null; idx.columns.len()]);
        for key in keys {
            let scan = ds.iter_rows().filter(|r| key_of(r) == key);
            assert_eq!(
                sorted(ds.index_lookup(&key).into_iter().cloned().collect()),
                sorted(scan.cloned().collect()),
                "{what}: {name} index answers {key:?} unlike a scan"
            );
        }
    }
}

/// One step of a write script over the two tables behind the deployment's
/// parallel fragments — `WebLogPar` (no key index) and the `UserHist` join
/// (indexed on uid, category): what to do, a source of choices, a size.
type Step = (u8, u64, usize);

/// Run `step` against the engine's current rows. Even kinds write `Orders`,
/// odd ones `WebLog`; new rows copy (uid, pid, category) from a stored row of
/// the other table, so they join into `UserHist`.
fn apply_step(est: &mut Estocada, (kind, pick, size): Step, fresh: &mut i64) {
    let mut x = pick;
    let mut choose = |n: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % n.max(1)
    };
    let (table, other) = [("Orders", "WebLog"), ("WebLog", "Orders")][usize::from(kind % 2)];
    let (mut live, partners) = (stored(est, table), stored(est, other));
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
    let done = match kind {
        // New rows, the first one twice: physical duplicates in the table.
        0 | 1 => {
            let mut rows: Vec<_> = (0..size).map(|_| new_row(&mut choose)).collect();
            rows.push(rows[0].clone());
            est.insert_rows("sales", table, rows)
        }
        // Stored rows, each stored instance at most once.
        2 | 3 => {
            let gone = (0..size.min(live.len())).map(|_| live.swap_remove(choose(live.len())));
            est.delete_rows("sales", table, gone.collect())
        }
        // A stored `WebLogPar` row and the one `swap_remove` would move into
        // its place (identity view: a dataset row is a `WebLog` row).
        4 => {
            let ds = est.stores.par.dataset("WebLogPar").expect("WebLogPar");
            let part = ds.partitions.iter().find(|part| part.len() > 1);
            let pair = part.map(|part| {
                vec![
                    part[choose(part.len() - 1)].clone(),
                    part[part.len() - 1].clone(),
                ]
            });
            drop(ds);
            est.delete_rows("sales", "WebLog", pair.unwrap_or_default())
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
            est.upsert_rows("sales", table, rows)
        }
        // Every row: the table's fragments and the join end up empty.
        _ => est.delete_rows("sales", table, live),
    };
    done.expect("scripted batch");
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
        let mut est = deploy(&m, Latencies::zero());
        let s = run_rw_workload(&mut est, &ops).expect("mixed schedule");
        assert!(s.writes > 0, "{name}: schedule must include writes");
        assert!(stale_fragments(&est).is_empty(), "{name}: stale fragments");
        let twin = remat_twin(&est, deploy);
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
    let mut est = deploy_kv_migrated(&m, Latencies::zero());
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
        run_rw_workload(&mut est, batch).expect("write batch");
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
    let twin = remat_twin(&est, deploy_kv_migrated);
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
        let mut est = deploy_kv_migrated(&m, Latencies::zero());
        let summary = run_rw_workload(&mut est, &schedule).expect("schedule");
        prop_assert_eq!(summary.final_data_epoch, summary.writes as u64);
        prop_assert!(stale_fragments(&est).is_empty());
        let twin = remat_twin(&est, deploy_kv_migrated);
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
        let mut est = deploy_materialized_join(&market(), Latencies::zero());
        let mut fresh = 700_000i64;
        let hist = |est: &Estocada| est.stores.par.dataset("UserHist").expect("UserHist");
        for (i, step) in script.iter().enumerate() {
            let what = format!("after step {i} of {script:?}");
            // Odd picks keep a reader's handle across the batch.
            let reader = (step.1 % 2 == 1).then(|| hist(&est));
            let seen: Vec<_> = reader.iter().flat_map(|ds| ds.iter_rows().cloned()).collect();
            let home = Arc::as_ptr(&hist(&est));
            apply_step(&mut est, *step, &mut fresh);
            match reader {
                Some(ds) => {
                    let sees: Vec<_> = ds.iter_rows().cloned().collect();
                    prop_assert_eq!(sees, seen, "{}: a reader's snapshot moved", what);
                }
                None => {
                    let now = Arc::as_ptr(&hist(&est));
                    prop_assert_eq!(now, home, "{}: UserHist copied with no reader", what);
                }
            }
            prop_assert!(stale_fragments(&est).is_empty());
            let twin = remat_twin(&est, deploy_materialized_join);
            assert_same_stores(&est, &twin, &what);
            assert_same_stats(&est, &twin, &what);
            assert_index_lookups_equal_scans(&est, &what);
        }
    }
}

// ---------------------------------------------------------------------
// Targeted counting edge: the schedule generator cannot force duplicate
// derivations, so pin one here — two orders deriving the same joined row,
// deleted one at a time, against the remat twin.
// ---------------------------------------------------------------------

#[test]
fn duplicate_derivations_delete_one_support_at_a_time() {
    let m = market();
    let mut est = deploy_materialized_join(&m, Latencies::zero());
    // Pick a (uid, category) straight from a WebLog row so the inserted
    // orders definitely join into UserHist. Two orders with identical
    // uid/pid/category/amount then derive the *same* UserHist rows — only
    // support counts differ.
    let (uid, category) = {
        let estocada::DatasetContent::Relational(tables) = &est.datasets()["sales"].content else {
            panic!("sales is relational");
        };
        let log = &tables
            .iter()
            .find(|t| t.encoding.relation == estocada_pivot::Symbol::intern("WebLog"))
            .expect("WebLog table")
            .rows[0];
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
    run_rw_workload(&mut est, &[dup(800_000), dup(800_001)]).unwrap();
    assert_same_stores(
        &est,
        &remat_twin(&est, deploy_materialized_join),
        "after dup inserts",
    );
    run_rw_workload(&mut est, &[RwOp::DeleteOrder { oid: 800_000 }]).unwrap();
    assert_same_stores(
        &est,
        &remat_twin(&est, deploy_materialized_join),
        "after first delete",
    );
    run_rw_workload(&mut est, &[RwOp::DeleteOrder { oid: 800_001 }]).unwrap();
    assert_same_stores(
        &est,
        &remat_twin(&est, deploy_materialized_join),
        "after second delete",
    );
}
