//! The AMPLab Big Data Benchmark over ESTOCADA (the demo's public dataset):
//! runs Q1 (scan), Q2 (aggregation) and Q3 (join) against the vanilla
//! one-store configuration and the hybrid multi-store configuration, and
//! prints the per-store execution statistics of each plan.
//!
//! Run with: `cargo run --release --example bigdata_benchmark`

use estocada::{Estocada, FragmentSpec, Latencies};
use estocada_engine::{execute_with, AggFun, AggSpec, ExecOptions, Expr, Plan, RowBatch};
use estocada_pivot::CqBuilder;
use estocada_workloads::bigdata::{generate, q1_sql, q2_fetch_sql, q3_sql, BigDataConfig};

fn vanilla(cfg: BigDataConfig) -> estocada::Result<Estocada> {
    let mut est = Estocada::new(Latencies::datacenter());
    est.register_dataset(generate(cfg)).unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "bigdata".into(),
        only: None,
    })?;
    Ok(est)
}

fn hybrid(cfg: BigDataConfig) -> estocada::Result<Estocada> {
    let mut est = vanilla(cfg)?;
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("VisitsPar")
            .head_vars(["vid", "sourceIP", "destURL", "visitDate", "adRevenue"])
            .atom("UserVisits", |a| {
                a.v("vid")
                    .v("sourceIP")
                    .v("destURL")
                    .v("visitDate")
                    .v("adRevenue")
                    .v("cc")
                    .v("dur")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    })?;
    est.add_fragment(FragmentSpec::ParRows {
        view: CqBuilder::new("RankVisits")
            .head_vars(["vid", "sourceIP", "adRevenue", "visitDate", "pageRank"])
            .atom("Rankings", |a| a.v("url").v("pageRank").v("avg"))
            .atom("UserVisits", |a| {
                a.v("vid")
                    .v("sourceIP")
                    .v("url")
                    .v("visitDate")
                    .v("adRevenue")
                    .v("cc")
                    .v("dur")
            })
            .build(),
        index_on: vec![],
        partitions: 0,
    })?;
    Ok(est)
}

fn main() -> estocada::Result<()> {
    let cfg = BigDataConfig {
        pages: 1_500,
        visits: 15_000,
        seed: 7,
    };

    for (label, est) in [("vanilla", vanilla(cfg)?), ("hybrid", hybrid(cfg)?)] {
        println!("==== {label} configuration ====");

        // Warm up the stores and caches (one-shot timings otherwise carry
        // thread-spawn and allocator noise). This also primes the
        // rewrite-plan cache: the measured repeats below skip the
        // backchase entirely.
        est.query_sql(&q1_sql(2_000))?;
        est.query_sql(&q2_fetch_sql())?;
        est.query_sql(&q3_sql(19_900_000, 20_100_000))?;

        // Q1: scan/filter.
        let r = est.query_sql(&q1_sql(2_000))?;
        println!(
            "Q1 (pageRank > 2000): {} pages in {:?} via {:?}",
            r.rows.len(),
            r.report.exec.total_time,
            r.report.delegated
        );

        // Q2: fetch the conjunctive core, aggregate in the runtime
        // (SUBSTR(sourceIP, 1, 7), SUM(adRevenue)).
        let r = est.query_sql(&q2_fetch_sql())?;
        let batch = RowBatch {
            columns: r.columns.clone(),
            rows: r.rows.clone(),
        };
        let ip = batch.column_index("v.sourceIP").expect("ip col");
        let rev = batch.column_index("v.adRevenue").expect("rev col");
        let plan = Plan::Aggregate {
            input: Box::new(Plan::Project {
                input: Box::new(Plan::Values(batch)),
                exprs: vec![
                    ("prefix".into(), Expr::Prefix(Box::new(Expr::col(ip)), 7)),
                    ("rev".into(), Expr::col(rev)),
                ],
            }),
            group_by: vec![0],
            aggs: vec![AggSpec {
                fun: AggFun::Sum,
                col: 1,
                name: "sum_rev".into(),
            }],
        };
        let (agg, agg_stats) = execute_with(&plan, &ExecOptions::default()).expect("aggregation");
        println!(
            "Q2 (ip-prefix revenue): {} groups in {:?} (+{:?} runtime aggregation) via {:?}",
            agg.len(),
            r.report.exec.total_time,
            agg_stats.total_time,
            r.report.delegated
        );

        // Q3: join in a date range.
        let r = est.query_sql(&q3_sql(19_900_000, 20_100_000))?;
        println!(
            "Q3 (join, date range): {} rows in {:?} via {:?}",
            r.rows.len(),
            r.report.exec.total_time,
            r.report.delegated
        );
        for (sys, m) in &r.report.per_store {
            if m.requests > 0 {
                println!(
                    "    {sys}: {} requests, {} tuples out, {} scanned",
                    m.requests, m.tuples_out, m.tuples_scanned
                );
            }
        }
        let metrics = est.metrics().to_string();
        for line in metrics
            .lines()
            .filter(|l| l.starts_with("estocada_plan_cache"))
        {
            println!("  {line}");
        }
        println!();
    }
    Ok(())
}
