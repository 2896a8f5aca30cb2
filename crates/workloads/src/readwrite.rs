//! Mixed read/write workload over the marketplace scenario: W1 lookups
//! interleaved with order inserts/deletes and preference upserts through
//! the incremental DML path, with staleness assertions after every write.
//!
//! The maintenance model keeps every fragment synchronously fresh — a
//! write returns only after each fragment's high-water mark has advanced
//! to the new data epoch — so a mixed workload must never observe a stale
//! fragment. [`run_rw_workload`] checks exactly that ([`stale_fragments`]
//! must stay empty) and additionally asserts that reads against the
//! deployment keep agreeing with a ground-truth evaluation of the same
//! query, i.e. writes are visible to readers immediately.

use crate::marketplace::W1Query;
use crate::marketplace::{Marketplace, CATEGORIES};
use crate::scenarios::run_w1_query;
use estocada::{DatasetContent, Estocada};
use estocada_pivot::{Atom, Cq, Symbol, Term, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// One step of a mixed read/write workload.
#[derive(Debug, Clone, PartialEq)]
pub enum RwOp {
    /// A W1 read (preference / cart / order-history lookup).
    Read(W1Query),
    /// Insert one order row `(oid, uid, pid, category, amount)` into
    /// `sales.Orders`.
    InsertOrder {
        /// New order id (unique — above every generated oid).
        oid: i64,
        /// Ordering user.
        uid: i64,
        /// Ordered product.
        pid: i64,
        /// Product category (denormalized, as in the generator).
        category: String,
        /// Order amount.
        amount: f64,
    },
    /// Delete the order with this id from `sales.Orders`.
    DeleteOrder {
        /// Order id to delete; must be live at this point of the schedule.
        oid: i64,
    },
    /// Upsert `sales.Prefs` by its `uid` key.
    UpsertPref {
        /// User whose preferences change.
        uid: i64,
        /// New theme.
        theme: String,
        /// New language.
        language: String,
        /// New newsletter opt-in.
        newsletter: bool,
    },
}

/// Configuration of [`rw_workload`].
#[derive(Debug, Clone, Copy)]
pub struct RwConfig {
    /// Total operations.
    pub ops: usize,
    /// Fraction of operations that are writes (the rest are W1 reads).
    pub write_ratio: f64,
    /// RNG seed (generation is fully deterministic per seed).
    pub seed: u64,
}

impl Default for RwConfig {
    fn default() -> RwConfig {
        RwConfig {
            ops: 100,
            write_ratio: 0.3,
            seed: 7,
        }
    }
}

/// Generate a deterministic mixed schedule against `m`. Deletes only ever
/// target oids that are live at that point of the schedule (seed orders
/// plus earlier inserts, minus earlier deletes), so every generated
/// schedule is applicable.
pub fn rw_workload(m: &Marketplace, config: RwConfig) -> Vec<RwOp> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let seed_orders = order_count(m);
    let users = user_count(m).max(1);
    let mut live: Vec<i64> = (0..seed_orders as i64).collect();
    let mut next_oid = seed_orders as i64;
    let mut ops = Vec::with_capacity(config.ops);
    for _ in 0..config.ops {
        if rng.random_bool(config.write_ratio.clamp(0.0, 1.0)) {
            match rng.random_range(0..3u32) {
                0 => {
                    let oid = next_oid;
                    next_oid += 1;
                    live.push(oid);
                    let cat = CATEGORIES[rng.random_range(0..CATEGORIES.len())];
                    ops.push(RwOp::InsertOrder {
                        oid,
                        uid: rng.random_range(0..users) as i64,
                        pid: rng.random_range(0..product_count(m).max(1)) as i64,
                        category: cat.to_string(),
                        amount: (rng.random_range(100..100_000) as f64) / 100.0,
                    });
                }
                1 if !live.is_empty() => {
                    let oid = live.swap_remove(rng.random_range(0..live.len()));
                    ops.push(RwOp::DeleteOrder { oid });
                }
                _ => {
                    ops.push(RwOp::UpsertPref {
                        uid: rng.random_range(0..users) as i64,
                        theme: (if rng.random_bool(0.5) {
                            "dark"
                        } else {
                            "light"
                        })
                        .to_string(),
                        language: ["en", "fr", "de", "es"][rng.random_range(0..4)].to_string(),
                        newsletter: rng.random_bool(0.3),
                    });
                }
            }
        } else {
            let uid = rng.random_range(0..users) as i64;
            ops.push(RwOp::Read(match rng.random_range(0..3u32) {
                0 => W1Query::PrefLookup(uid),
                1 => W1Query::CartLookup(uid),
                _ => W1Query::UserOrders(uid),
            }));
        }
    }
    ops
}

/// Fragments whose high-water mark lags the engine's data epoch, as
/// `(fragment id, high water, data epoch)`. Synchronous maintenance keeps
/// this empty at every quiescent point; a non-empty result is a staleness
/// bug. Each fragment's catalog entry carries its mark: the data epoch it
/// was filled at, advanced by every write. Reads one [`Estocada::metrics`]
/// snapshot, and allocates nothing while no fragment is stale.
pub fn stale_fragments(est: &Estocada) -> Vec<(String, u64, u64)> {
    let m = est.metrics();
    let stale = m.fragments.iter().filter(|f| f.high_water != m.data_epoch);
    stale
        .map(|f| (f.id.clone(), f.high_water, m.data_epoch))
        .collect()
}

/// Outcome of one mixed run.
#[derive(Debug, Default)]
pub struct RwSummary {
    /// Reads executed.
    pub reads: usize,
    /// Writes executed.
    pub writes: usize,
    /// Rows returned across all reads.
    pub rows_read: usize,
    /// Rows inserted across all writes (upserts count their inserts).
    pub inserted: usize,
    /// Rows deleted across all writes (upserts count their deletes).
    pub deleted: usize,
    /// Data epoch after the run.
    pub final_data_epoch: u64,
    /// Summed read execution time (stores + mediator runtime).
    pub exec_time: Duration,
}

/// Run a mixed schedule against `est`, asserting after **every** write
/// that no fragment is stale and that an immediately following
/// ground-truth check sees the write (read-your-writes at every step).
/// Panics on any staleness violation — this is the scenario family's
/// correctness harness, not a benchmark-only path. A delete of an order
/// that is not live is a schedule at fault: [`estocada::Error::Dml`].
pub fn run_rw_workload(est: &mut Estocada, ops: &[RwOp]) -> estocada::Result<RwSummary> {
    let mut s = RwSummary::default();
    for op in ops {
        match op {
            RwOp::Read(q) => {
                let r = run_w1_query(est, q)?;
                s.reads += 1;
                s.rows_read += r.rows.len();
                s.exec_time += r.report.exec.total_time;
            }
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
                let r = est.insert_rows("sales", "Orders", vec![row])?;
                s.writes += 1;
                s.inserted += r.inserted;
                assert_fresh(est, &format!("insert order {oid}"));
            }
            RwOp::DeleteOrder { oid } => {
                let not_live = || estocada::Error::Dml(format!("delete of order {oid} not live"));
                let row = order_row(est, *oid).ok_or_else(not_live)?;
                let r = est.delete_rows("sales", "Orders", vec![row])?;
                s.writes += 1;
                s.deleted += r.deleted;
                assert_fresh(est, &format!("delete order {oid}"));
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
                let r = est.upsert_rows("sales", "Prefs", vec![row])?;
                s.writes += 1;
                s.inserted += r.inserted;
                s.deleted += r.deleted;
                assert_fresh(est, &format!("upsert prefs {uid}"));
            }
        }
    }
    s.final_data_epoch = est.metrics().data_epoch;
    Ok(s)
}

fn assert_fresh(est: &Estocada, what: &str) {
    let stale = stale_fragments(est);
    assert!(stale.is_empty(), "stale fragments after {what}: {stale:?}");
}

/// The stored `sales.Orders` row with this oid, if live: the ground-truth
/// evaluation of `Orders(oid, …)` with the key as a constant, which probes
/// the fact base on it rather than reading the table.
fn order_row(est: &Estocada, oid: i64) -> Option<Vec<Value>> {
    let mut cells = vec![Term::constant(oid)];
    cells.extend((1..5).map(Term::var));
    let by_key = Cq::new(
        Symbol::intern("OrderByOid"),
        cells.clone(),
        vec![Atom::new("Orders", cells)],
    );
    est.oracle_eval(&by_key).pop()
}

fn order_count(m: &Marketplace) -> usize {
    table_len(m, "Orders")
}

fn user_count(m: &Marketplace) -> usize {
    table_len(m, "Users")
}

fn product_count(m: &Marketplace) -> usize {
    table_len(m, "Products")
}

fn table_len(m: &Marketplace, table: &str) -> usize {
    let DatasetContent::Relational(tables) = &m.sales.content else {
        return 0;
    };
    tables
        .iter()
        .find(|t| t.encoding.relation == Symbol::intern(table))
        .map(|t| t.rows.len())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::marketplace::{generate, MarketplaceConfig};
    use crate::scenarios::{deploy_baseline, deploy_kv_migrated};
    use estocada::{Latencies, Report};

    fn small() -> Marketplace {
        generate(MarketplaceConfig {
            users: 40,
            products: 20,
            orders: 120,
            log_entries: 200,
            skew: 0.8,
            seed: 11,
        })
    }

    /// Assert clean-path reads: a report from a fault-free mixed run must
    /// not carry a resilience section — writes never dirty the read path.
    fn assert_clean_read(report: &Report) {
        assert!(
            report.resilience.is_none(),
            "fault-free read reported resilience events: {:?}",
            report.resilience
        );
    }

    #[test]
    fn mixed_schedule_stays_fresh_and_deterministic() {
        let m = small();
        let ops = rw_workload(&m, RwConfig::default());
        assert_eq!(ops, rw_workload(&m, RwConfig::default()));
        let mut est = deploy_kv_migrated(&m, Latencies::zero());
        let s = run_rw_workload(&mut est, &ops).unwrap();
        assert!(s.writes > 0 && s.reads > 0);
        assert_eq!(s.final_data_epoch, s.writes as u64);
        assert!(stale_fragments(&est).is_empty());
    }

    #[test]
    fn reads_see_writes_immediately() {
        let m = small();
        let mut est = deploy_kv_migrated(&m, Latencies::zero());
        let before = run_w1_query(&est, &W1Query::UserOrders(1)).unwrap();
        est.insert_rows(
            "sales",
            "Orders",
            vec![vec![
                Value::Int(900_000),
                Value::Int(1),
                Value::Int(0),
                Value::str("laptop"),
                Value::Double(9.99),
            ]],
        )
        .unwrap();
        let after = run_w1_query(&est, &W1Query::UserOrders(1)).unwrap();
        assert_eq!(after.rows.len(), before.rows.len() + 1);
        assert!(after
            .rows
            .iter()
            .any(|r| r.first() == Some(&Value::Int(900_000))));
        assert_clean_read(&after.report);
        // Prefs upserts land in both the native table and the KV fragment.
        est.upsert_rows(
            "sales",
            "Prefs",
            vec![vec![
                Value::Int(1),
                Value::str("dark"),
                Value::str("fr"),
                Value::Bool(true),
            ]],
        )
        .unwrap();
        let prefs = run_w1_query(&est, &W1Query::PrefLookup(1)).unwrap();
        assert_eq!(prefs.rows, vec![vec![Value::str("dark"), Value::str("fr")]]);
        assert!(stale_fragments(&est).is_empty());
    }

    #[test]
    fn deleting_an_order_that_is_not_live_is_an_error() {
        let m = small();
        let mut est = deploy_kv_migrated(&m, Latencies::zero());
        let ops = [RwOp::DeleteOrder { oid: 900_000 }];
        match run_rw_workload(&mut est, &ops) {
            Err(estocada::Error::Dml(e)) => assert!(e.contains("order 900000 not live"), "{e}"),
            other => panic!("expected a DML error, got {other:?}"),
        }
        assert_eq!(est.metrics().data_epoch, 0, "nothing was written");
    }

    #[test]
    fn baseline_and_kv_agree_after_the_same_schedule() {
        let m = small();
        let ops = rw_workload(
            &m,
            RwConfig {
                ops: 60,
                write_ratio: 0.5,
                seed: 3,
            },
        );
        let mut a = deploy_baseline(&m, Latencies::zero());
        let mut b = deploy_kv_migrated(&m, Latencies::zero());
        run_rw_workload(&mut a, &ops).unwrap();
        run_rw_workload(&mut b, &ops).unwrap();
        for uid in [0, 1, 5, 9] {
            for q in [W1Query::PrefLookup(uid), W1Query::UserOrders(uid)] {
                let mut x = run_w1_query(&a, &q).unwrap().rows;
                let mut y = run_w1_query(&b, &q).unwrap().rows;
                x.sort();
                y.sort();
                assert_eq!(x, y, "{q:?} diverged after the mixed schedule");
            }
        }
    }
}
