//! Quickstart: the smallest end-to-end ESTOCADA session.
//!
//! One relational dataset is stored in two fragments — the native tables
//! (Postgres-like) and a key-value projection (Redis-like). The same SQL
//! point query is then answered through whichever fragment the cost model
//! prefers, and the full rewriting pipeline (pivot query, universal plan,
//! alternatives, executable plan, per-store statistics) is printed.
//!
//! Queries go through the `&self` query builder (`est.query(sql).run()`),
//! so after DDL the engine can be shared read-only across client threads —
//! the final step answers the same point query from four threads at once,
//! with repeats served from the rewrite-plan cache.
//!
//! Run with: `cargo run --example quickstart`

use estocada::{Dataset, Estocada, FaultKind, FaultPlan, FragmentSpec, Latencies, TableData};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{CqBuilder, Value};

fn main() -> estocada::Result<()> {
    // 1. A mediator over five simulated stores with a realistic latency
    //    calibration (see EXPERIMENTS.md for the constants).
    let mut est = Estocada::new(Latencies::datacenter());

    // 2. Register an application dataset in its native (relational) model.
    est.register_dataset(Dataset::relational(
        "shop",
        vec![TableData {
            encoding: TableEncoding::new("Users", &["uid", "name", "tier"], Some(&["uid"])),
            rows: (0..1000)
                .map(|i| {
                    vec![
                        Value::Int(i),
                        Value::str(format!("user{i}")),
                        Value::str(if i % 4 == 0 { "gold" } else { "free" }),
                    ]
                })
                .collect(),
            text_columns: vec![],
        }],
    ))
    .unwrap();

    // 3. Two overlapping fragments: the table "as such", and a key-value
    //    projection keyed by uid.
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "shop".into(),
        only: None,
    })?;
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("UserKV")
            .head_vars(["uid", "name", "tier"])
            .atom("Users", |a| a.v("uid").v("name").v("tier"))
            .build(),
    })?;

    println!("=== storage descriptors ===");
    for f in est.fragments() {
        println!("{f}");
    }

    // 4. A point query through the query builder: ESTOCADA rewrites it
    //    over both fragments and picks the key-value plan (cheapest
    //    per-request cost).
    let sql = "SELECT u.name, u.tier FROM Users u WHERE u.uid = 42";
    let result = est.query(sql).run()?;
    println!("=== query result ===");
    println!("{:?} -> {:?}", result.columns, result.rows);
    println!();
    println!("=== execution report ===");
    println!("{}", result.report);

    // 5. A scan query: the key-value fragment is infeasible (its key must
    //    be bound), so the relational fragment serves it. `explain_only`
    //    plans and costs without touching the stores.
    let scan_sql = "SELECT u.uid FROM Users u WHERE u.tier = 'gold'";
    let explained = est.query(scan_sql).explain_only().run()?;
    println!("=== scan query, explained first ===");
    println!("planned unit: {}", explained.report.delegated[0]);
    let scan = est.query(scan_sql).run()?;
    println!("gold users: {}", scan.rows.len());
    println!("chosen unit: {}", scan.report.delegated[0]);

    // 6. The query path takes `&self`: share the engine across client
    //    threads. The first run of each shape paid the rewrite; these
    //    repeats hit the plan cache and skip the backchase entirely.
    let shared = &est;
    std::thread::scope(|s| {
        for t in 0..4 {
            s.spawn(move || {
                let r = shared.query(sql).run().expect("shared query");
                assert_eq!(r.rows.len(), 1);
                let pc = r.report.plan_cache.expect("cache consulted");
                println!("thread {t}: {:?} (plan cache hit: {})", r.rows[0], pc.hit);
            });
        }
    });
    // One snapshot of engine state: its text exposition has one
    // `name{labels} value` line per value.
    println!("plan cache after the burst:");
    print_metrics(&est, "estocada_plan_cache");

    // 7. Resilience: script a key-value outage and watch the same point
    //    query survive it. The retry loop burns its attempts against the
    //    dead store, the breaker trips, and the evaluator fails over to
    //    the relational rewriting — same rows, different plan, with the
    //    whole chain recorded in `report.resilience`.
    est.set_fault_plan(Some(
        FaultPlan::new(7).down("key-value", FaultKind::Unavailable),
    ));
    let survived = est.query(sql).run()?;
    println!();
    println!("=== key-value outage, failover ===");
    println!("{:?} -> {:?}", survived.columns, survived.rows);
    let resilience = survived.report.resilience.expect("faults were injected");
    println!(
        "resilience: {} plan attempt(s), {} retries, failover: {}, now via {}",
        resilience.attempts.len(),
        resilience.retries,
        resilience.failed_over(),
        survived.report.delegated[0],
    );
    print_metrics(&est, "estocada_breaker_trips_total{system=\"key-value\"}");
    est.set_fault_plan(None);
    Ok(())
}

/// Print the lines of the engine's metrics exposition that start with
/// `prefix`.
fn print_metrics(est: &Estocada, prefix: &str) {
    let exposition = est.metrics().to_string();
    for line in exposition.lines().filter(|l| l.starts_with(prefix)) {
        println!("  {line}");
    }
}
