//! E4 — §IV demo step 3: "comparing performance between the vanilla
//! (one-store) execution and the one enabled by multiple stores", on the
//! Big Data Benchmark queries Q1 (scan/filter), Q2 (aggregation) and Q3
//! (join), with per-query statistics split across the DMSs and the
//! ESTOCADA runtime. Every run asserts the row count the vanilla
//! configuration returned.

use estocada::{Estocada, FragmentSpec, Latencies, QueryResult};
use estocada_bench::measure;
use estocada_engine::{execute_with, AggFun, AggSpec, ExecOptions, Expr, Plan, RowBatch};
use estocada_pivot::cq::ArgsBuilder;
use estocada_pivot::CqBuilder;
use estocada_workloads::bigdata::{generate, q1_sql, q2_fetch_sql, q3_sql, BigDataConfig};
use std::time::Duration;

/// Vanilla: everything in the relational store.
fn vanilla(cfg: BigDataConfig) -> Estocada {
    let mut est = Estocada::new(Latencies::datacenter());
    est.register_dataset(generate(cfg)).unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "bigdata".into(),
        only: None,
    })
    .unwrap();
    est
}

/// `UserVisits` with its URL column named `url`.
fn visits<'a>(a: ArgsBuilder<'a>, url: &str) -> ArgsBuilder<'a> {
    let columns = format!("vid sourceIP {url} visitDate adRevenue cc dur");
    columns.split(' ').fold(a, |a, column| a.v(column))
}

/// Hybrid: relational tables PLUS parallel-store fragments (UserVisits for
/// bulk scans, the Rankings⋈UserVisits join materialized) — ESTOCADA picks
/// per query.
fn hybrid(cfg: BigDataConfig) -> Estocada {
    let mut est = vanilla(cfg);
    let views = [
        CqBuilder::new("VisitsPar")
            .head_vars(["vid", "sourceIP", "destURL", "visitDate", "adRevenue"])
            .atom("UserVisits", |a| visits(a, "destURL"))
            .build(),
        CqBuilder::new("RankVisits")
            .head_vars(["vid", "sourceIP", "adRevenue", "visitDate", "pageRank"])
            .atom("Rankings", |a| a.v("url").v("pageRank").v("avg"))
            .atom("UserVisits", |a| visits(a, "url"))
            .build(),
    ];
    for view in views {
        est.add_fragment(FragmentSpec::ParRows {
            view,
            index_on: vec![],
            partitions: 0,
        })
        .unwrap();
    }
    est
}

/// Q2's aggregation (SUBSTR(sourceIP, 1, 7), SUM(adRevenue)) runs in the
/// mediator runtime over the fetched conjunctive core.
fn q2_aggregate(r: &QueryResult) -> (usize, Duration) {
    let batch = RowBatch {
        columns: r.columns.clone(),
        rows: r.rows.clone(),
    };
    let ip_col = batch.column_index("v.sourceIP").expect("sourceIP column");
    let rev_col = batch.column_index("v.adRevenue").expect("adRevenue column");
    let plan = Plan::Aggregate {
        input: Box::new(Plan::Project {
            input: Box::new(Plan::Values(batch)),
            exprs: vec![
                (
                    "prefix".into(),
                    Expr::Prefix(Box::new(Expr::col(ip_col)), 7),
                ),
                ("rev".into(), Expr::col(rev_col)),
            ],
        }),
        group_by: vec![0],
        aggs: vec![AggSpec {
            fun: AggFun::Sum,
            col: 1,
            name: "sum_rev".into(),
        }],
    };
    let (out, stats) = execute_with(&plan, &ExecOptions::default()).unwrap();
    (out.len(), stats.total_time)
}

/// One execution: accounted time (plus Q2's mediator-side aggregation),
/// result rows, and the systems that served it.
fn run_q(est: &Estocada, sql: &str, aggregate: bool) -> (Duration, usize, String) {
    let r = est.query_sql(sql).expect("query failed");
    let mut exec = r.report.exec.total_time;
    let mut rows = r.rows.len();
    if aggregate {
        let (groups, agg_time) = q2_aggregate(&r);
        exec += agg_time;
        rows = groups;
    }
    let systems: Vec<String> = r
        .report
        .per_store
        .iter()
        .filter(|(_, m)| m.requests > 0)
        .map(|(s, m)| format!("{s}({} req, {} out)", m.requests, m.tuples_out))
        .collect();
    (exec, rows, systems.join(" + "))
}

fn main() {
    let cfg = BigDataConfig {
        pages: 1_500,
        visits: 15_000,
        seed: 7,
    };
    let queries = [
        ("Q1 scan (pageRank > 2000)", q1_sql(2_000), false),
        ("Q2 aggregation", q2_fetch_sql(), true),
        (
            "Q3 join (date range)",
            q3_sql(19_900_000, 20_100_000),
            false,
        ),
    ];
    let (v, h) = (vanilla(cfg), hybrid(cfg));
    println!("== E4: vanilla (one store) vs ESTOCADA hybrid ==");
    for (name, sql, agg) in &queries {
        let label = name.split_whitespace().next().unwrap().to_lowercase();
        let (_, rows, via_vanilla) = run_q(&v, sql, *agg);
        let (_, _, via_hybrid) = run_q(&h, sql, *agg);
        let time = |est: &Estocada, config: &str| {
            let id = format!("e4_vanilla_vs_hybrid/{label}_{config}");
            measure(&id, 10, || {
                let (exec, got, _) = run_q(est, sql, *agg);
                assert_eq!(got, rows, "{name}: {config} disagrees with vanilla");
                exec
            })
        };
        let (tv, th) = (time(&v, "vanilla"), time(&h, "hybrid"));
        println!("{name} ({rows} rows):");
        println!("  vanilla: {tv:?} via {via_vanilla}");
        println!("  hybrid:  {th:?} via {via_hybrid}");
        println!(
            "  hybrid/vanilla: {:.2}x",
            tv.as_secs_f64() / th.as_secs_f64().max(1e-12)
        );
    }
}
