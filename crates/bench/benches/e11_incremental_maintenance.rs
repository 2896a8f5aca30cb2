//! E11 — incremental maintenance (PR 7): the price of keeping every
//! fragment fresh through the DML path, against the drop-and-rematerialize
//! alternative, on the materialized-join marketplace deployment — the
//! paper's final configuration, whose `UserHist` join fragment lives in the
//! parallel store behind a key index, so every order write exercises the
//! indexed in-place delta of that store. Two questions:
//!
//! - **small-delta advantage**: applying a K-row order batch through the
//!   semi-naive delta chase touches only the facts and fragment rows the
//!   batch derives, while the drop-and-rematerialize alternative replays
//!   the whole deployment (register + chase-materialize every fragment).
//!   The gate asserts the incremental path beats a full rematerialization
//!   at every measured batch size (K = 1, 8 and 32).
//! - **where a write's time goes**: the mean [`estocada::DmlSteps`] per
//!   batch of the measured writes.
//!
//! **Identity is asserted inside every measurement**: each timed
//! incremental application is followed (clock stopped) by a full
//! byte-level comparison of all five stores against a fresh engine
//! deployed from the mutated datasets — a maintenance bug that skews any
//! store fails the bench instead of its numbers.

use estocada::{DmlReport, DmlSteps, Estocada, Latencies};
use estocada_bench::measure;
use estocada_pivot::Value;
use estocada_workloads::marketplace::{generate, Marketplace, MarketplaceConfig};
use estocada_workloads::readwrite::stale_fragments;
use estocada_workloads::scenarios::deploy_materialized_join;
use std::time::{Duration, Instant};

fn cfg() -> MarketplaceConfig {
    MarketplaceConfig {
        users: 60,
        products: 30,
        orders: 200,
        log_entries: 400,
        skew: 0.8,
        seed: 31,
    }
}

/// Fresh engine deployed from the incremental engine's current (mutated)
/// datasets — the drop-and-rematerialize twin.
fn remat_twin(est: &Estocada) -> Estocada {
    let m = Marketplace {
        sales: est.dataset("sales").expect("sales is registered"),
        carts: est.dataset("Carts").expect("Carts is registered"),
        config: cfg(),
    };
    deploy_materialized_join(&m, Latencies::zero())
}

fn assert_identical(est: &Estocada, what: &str) {
    assert!(
        stale_fragments(est).is_empty(),
        "{what}: stale fragments after maintenance"
    );
    let a = est.stores.dump();
    let b = remat_twin(est).stores.dump();
    assert_eq!(a, b, "{what}: stores diverged from the remat twin");
}

/// A K-row order batch with oids from `base`.
fn order_batch(base: i64, k: usize) -> Vec<Vec<Value>> {
    (0..k as i64)
        .map(|i| {
            vec![
                Value::Int(base + i),
                Value::Int(i % 7),
                Value::Int(i % 5),
                Value::str(if i % 2 == 0 { "laptop" } else { "mouse" }),
                Value::Double(10.0 + i as f64),
            ]
        })
        .collect()
}

/// Print the mean step times ([`DmlSteps`]) of `batches`, K-row writes of
/// one kind.
fn print_steps(kind: &str, k: usize, batches: &[DmlReport]) {
    let n = batches.len().max(1) as u32;
    let mean = |step: fn(&DmlSteps) -> Duration| -> Duration {
        batches.iter().map(|rep| step(&rep.steps)).sum::<Duration>() / n
    };
    println!(
        "steps k={k} {kind}: validate {:?}, delta_chase {:?}, store_write {:?}, stats {:?} \
         (mean of {} batches)",
        mean(|s| s.validate),
        mean(|s| s.delta_chase),
        mean(|s| s.store_write),
        mean(|s| s.stats),
        batches.len()
    );
}

fn main() {
    let m = generate(cfg());
    println!(
        "== E11 (materialized-join deployment, {} seed orders) ==",
        cfg().orders
    );
    let mut est = deploy_materialized_join(&m, Latencies::zero());
    let mut next_oid = 500_000i64;
    for k in [1usize, 8, 32] {
        let (mut inserts, mut deletes) = (Vec::new(), Vec::new());
        let id = format!("e11_incremental_maintenance/incremental_insert/{k}");
        let t_inc = measure(&id, 5, || {
            let batch = order_batch(next_oid, k);
            next_oid += k as i64;
            let t0 = Instant::now();
            let rep = est
                .insert_rows("sales", "Orders", batch.clone())
                .expect("incremental insert");
            let dt = t0.elapsed();
            assert_eq!(rep.inserted, k);
            inserts.push(rep);
            assert_identical(&est, "after incremental insert");
            // Restore (also through the maintenance path, untimed).
            let rep = est
                .delete_rows("sales", "Orders", batch)
                .expect("restore delete");
            assert_eq!(rep.deleted, k);
            deletes.push(rep);
            assert_identical(&est, "after incremental delete");
            dt
        });
        print_steps("insert", k, &inserts);
        print_steps("delete", k, &deletes);
        let id = format!("e11_incremental_maintenance/full_rematerialize/{k}");
        let t_remat = measure(&id, 3, || {
            let batch = order_batch(next_oid, k);
            next_oid += k as i64;
            est.insert_rows("sales", "Orders", batch.clone())
                .expect("pre-remat insert");
            // Timed: replay the whole deployment from the mutated data.
            let t0 = Instant::now();
            let twin = remat_twin(&est);
            let dt = t0.elapsed();
            assert_eq!(
                est.stores.dump(),
                twin.stores.dump(),
                "remat twin diverged from the incremental engine"
            );
            est.delete_rows("sales", "Orders", batch)
                .expect("restore delete");
            dt
        });
        println!(
            "delta k={k}: incremental {t_inc:?} vs drop-and-rematerialize {t_remat:?} \
             ({:.1}x)",
            t_remat.as_secs_f64() / t_inc.as_secs_f64().max(1e-12)
        );
        assert!(
            t_inc < t_remat,
            "incremental maintenance of a {k}-row delta ({t_inc:?}) must beat a full \
             rematerialization ({t_remat:?})"
        );
    }
}
