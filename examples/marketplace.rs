//! The paper's Section II storyline, end to end: the online-marketplace
//! application evolves through three storage configurations *without any
//! application change* — only the fragment catalog changes.
//!
//! Run with: `cargo run --release --example marketplace`

use estocada::Latencies;
use estocada_workloads::marketplace::{generate, w1_workload, MarketplaceConfig, W1Query};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql,
    pref_sql, run_w1_exec_time, run_w1_query,
};

fn main() -> estocada::Result<()> {
    let cfg = MarketplaceConfig {
        users: 400,
        products: 150,
        orders: 2_000,
        log_entries: 4_000,
        skew: 0.9,
        seed: 42,
    };
    let m = generate(cfg);
    let workload = w1_workload(&cfg, 30, 7);
    let lat = Latencies::datacenter();

    // --- Release 1: Postgres + MongoDB + SOLR + Spark. ---
    let baseline = deploy_baseline(&m, lat);
    println!("== release 1: baseline deployment ==");
    for f in baseline.fragments() {
        println!(
            "  {} [{} on {}], relations: {}",
            f.id,
            f.spec.kind(),
            f.system,
            f.relations.len()
        );
    }
    let r = run_w1_query(&baseline, &W1Query::PrefLookup(3))?;
    println!("\npreference lookup runs on: {}", r.report.delegated[0]);
    let r = run_w1_query(&baseline, &W1Query::CartLookup(3))?;
    println!("cart lookup runs on:       {}", r.report.delegated[0]);
    let t1 = run_w1_exec_time(&baseline, &workload);
    println!("workload W1 execution time: {t1:?}");

    // --- Release 2: the team migrates prefs + carts to a key-value store.
    //     Under ESTOCADA this is *adding two fragments*; queries unchanged.
    let kv = deploy_kv_migrated(&m, lat);
    println!("\n== release 2: key-value migration (adds PrefsKV, CartKV) ==");
    let r = run_w1_query(&kv, &W1Query::PrefLookup(3))?;
    println!("preference lookup now runs on: {}", r.report.delegated[0]);
    let r = run_w1_query(&kv, &W1Query::CartLookup(3))?;
    println!("cart lookup now runs on:       {}", r.report.delegated[0]);
    let t2 = run_w1_exec_time(&kv, &workload);
    println!(
        "workload W1 execution time: {t2:?}  ({:+.1}% vs baseline; paper: ~20% gain)",
        100.0 * (1.0 - t2.as_secs_f64() / t1.as_secs_f64())
    );

    // --- Release 3: the personalized item search becomes the bottleneck;
    //     materialize purchases ⋈ browsing history, indexed by (uid, cat).
    let sql = personalized_sql(3, "laptop");
    let before = kv.query_sql(&sql)?;
    println!("\n== release 3: materialized join fragment (UserHist) ==");
    println!(
        "personalized search before: {:?} via {:?}",
        before.report.exec.total_time, before.report.delegated
    );
    let mat = deploy_materialized_join(&m, lat);
    let after = mat.query_sql(&sql)?;
    println!(
        "personalized search after:  {:?} via {:?}",
        after.report.exec.total_time, after.report.delegated
    );
    assert_eq!(
        {
            let mut x = before.rows.clone();
            x.sort();
            x
        },
        {
            let mut y = after.rows.clone();
            y.sort();
            y
        },
        "the rewriting must preserve results"
    );
    println!(
        "speedup: {:.1}x (paper: 'an extra 40%')",
        before.report.exec.total_time.as_secs_f64()
            / after.report.exec.total_time.as_secs_f64().max(1e-12)
    );

    // --- The demo's inspection step: show the full report of one query. ---
    println!("\n== rewriting pipeline of the cart lookup (demo step 2) ==");
    let r = mat.query_pattern(&cart_pattern(3), &["pid", "qty"]).run()?;
    println!("{}", r.report);

    println!("pref SQL used throughout:  {}", pref_sql(3));
    Ok(())
}
