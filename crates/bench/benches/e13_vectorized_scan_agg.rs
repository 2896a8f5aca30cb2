//! E13 — vectorized columnar executor vs tuple-at-a-time (PR 9).
//!
//! Two pipelines, both executed by the tuple oracle and by the vectorized
//! executor at batch sizes 256 / 1024 / 4096:
//!
//! - **filter + project scan**: a selective predicate and an arithmetic
//!   projection over a wide in-memory scan — the pure runtime kernel,
//!   no store in the loop;
//! - **BindJoin-backed aggregate**: an event stream probing a key-value
//!   profile namespace through batched MGETs, grouped and aggregated
//!   (COUNT / SUM / MAX) on the far side of the join.
//!
//! **Identity is asserted on every measured run**: the vectorized output
//! must equal the tuple oracle's rows exactly (same order) — the
//! comparison sits outside the timed window in the single-shot section
//! and inside the iteration (symmetrically for both arms) in the
//! criterion section.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estocada_engine::{
    execute, execute_with, AggFun, AggSpec, ArithOp, BindSource, CmpOp, ExecOptions, Expr, Plan,
    RowBatch, StoreError, Tuple,
};
use estocada_kvstore::KvStore;
use estocada_pivot::Value;
use estocada_simkit::LatencyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const BATCH_SIZES: [usize; 3] = [256, 1024, 4096];

// ---------------------------------------------------------------------
// Pipeline 1: filter + project scan.
// ---------------------------------------------------------------------

const SCAN_ROWS: usize = 200_000;

fn scan_input() -> RowBatch {
    let mut rng = StdRng::seed_from_u64(13);
    RowBatch::new(
        vec!["k".into(), "a".into(), "b".into()],
        (0..SCAN_ROWS)
            .map(|i| {
                vec![
                    Value::Int((i % 64) as i64),
                    Value::Int(rng.random_range(-1_000..1_000)),
                    Value::Int(rng.random_range(-1_000..1_000)),
                ]
            })
            .collect(),
    )
}

/// `SELECT k, a + b FROM scan WHERE a < 0` — roughly half the rows pass.
fn scan_plan(input: RowBatch) -> Plan {
    Plan::Project {
        input: Box::new(Plan::Filter {
            input: Box::new(Plan::Values(input)),
            pred: Expr::col(1).cmp(CmpOp::Lt, Expr::lit(0i64)),
        }),
        exprs: vec![
            ("k".into(), Expr::col(0)),
            (
                "s".into(),
                Expr::Arith(Box::new(Expr::col(1)), ArithOp::Add, Box::new(Expr::col(2))),
            ),
        ],
    }
}

// ---------------------------------------------------------------------
// Pipeline 2: BindJoin-backed aggregate.
// ---------------------------------------------------------------------

const USERS: i64 = 8_192;
const EVENTS: usize = 50_000;

fn kv_profiles() -> Arc<KvStore> {
    let kv = Arc::new(KvStore::with_latency(LatencyModel {
        per_request_ns: 25_000,
        per_tuple_ns: 100,
        per_byte_ns: 1,
        per_scan_ns: 0,
    }));
    for uid in 0..USERS {
        kv.put(
            "profiles",
            Value::Int(uid),
            &[Value::Int(uid % 97), Value::Int(uid % 7)],
        );
    }
    kv
}

struct ProfileBind(Arc<KvStore>);
impl BindSource for ProfileBind {
    fn out_columns(&self) -> Vec<String> {
        vec!["score".into(), "region".into()]
    }
    fn fetch_batch(&self, keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
        // Pipelined MGET: one simulated round-trip per key batch.
        let flat: Vec<Value> = keys.iter().map(|k| k[0].clone()).collect();
        Ok(self
            .0
            .mget("profiles", &flat)
            .into_iter()
            .map(|hit| hit.into_iter().collect())
            .collect())
    }
    fn label(&self) -> String {
        "kv profiles".into()
    }
}

fn event_input() -> RowBatch {
    let mut rng = StdRng::seed_from_u64(31);
    RowBatch::new(
        vec!["uid".into(), "amount".into()],
        (0..EVENTS)
            .map(|_| {
                vec![
                    Value::Int(rng.random_range(0..USERS)),
                    Value::Int(rng.random_range(1..500)),
                ]
            })
            .collect(),
    )
}

/// `SELECT region, COUNT(uid), SUM(amount), MAX(score) FROM events
///  BINDJOIN profiles GROUP BY region` — the join output is
/// `(uid, amount, score, region)`.
fn agg_plan(kv: Arc<KvStore>, events: RowBatch) -> Plan {
    Plan::Aggregate {
        input: Box::new(Plan::BindJoin {
            left: Box::new(Plan::Values(events)),
            key_cols: vec![0],
            source: Arc::new(ProfileBind(kv)),
        }),
        group_by: vec![3],
        aggs: vec![
            AggSpec {
                fun: AggFun::Count,
                col: 0,
                name: "n".into(),
            },
            AggSpec {
                fun: AggFun::Sum,
                col: 1,
                name: "total".into(),
            },
            AggSpec {
                fun: AggFun::Max,
                col: 2,
                name: "hi".into(),
            },
        ],
    }
}

// ---------------------------------------------------------------------
// Harness.
// ---------------------------------------------------------------------

fn best_of<F: FnMut() -> Duration>(n: usize, mut f: F) -> Duration {
    (0..n).map(|_| f()).min().unwrap()
}

/// Time one tuple-path run; assert (untimed) that it equals the reference.
fn timed_tuple(plan: &Plan, reference: &RowBatch) -> Duration {
    let t0 = Instant::now();
    let (out, _) = execute(plan).expect("tuple exec");
    let dt = t0.elapsed();
    assert_eq!(
        out.rows, reference.rows,
        "tuple run diverged from reference"
    );
    dt
}

/// Time one vectorized run; assert (untimed) identity with the reference.
fn timed_vec(plan: &Plan, bs: usize, reference: &RowBatch) -> Duration {
    let opts = ExecOptions { batch_size: bs };
    let t0 = Instant::now();
    let (out, _) = execute_with(plan, &opts).expect("vectorized exec");
    let dt = t0.elapsed();
    assert_eq!(out.columns, reference.columns, "columns @ {bs}");
    assert_eq!(out.rows, reference.rows, "rows @ {bs}");
    dt
}

fn report(name: &str, plan: &Plan) -> (Duration, Duration) {
    let reference = execute(plan).expect("reference").0;
    let t_tuple = best_of(5, || timed_tuple(plan, &reference));
    println!("{name}: tuple {t_tuple:?} ({} rows)", reference.rows.len());
    let mut at_1024 = t_tuple;
    for bs in BATCH_SIZES {
        let t_vec = best_of(5, || timed_vec(plan, bs, &reference));
        let speedup = t_tuple.as_secs_f64() / t_vec.as_secs_f64();
        println!("{name}: vectorized@{bs} {t_vec:?} ({speedup:.2}x, identity asserted every run)");
        if bs == 1024 {
            at_1024 = t_vec;
        }
    }
    (t_tuple, at_1024)
}

fn bench(c: &mut Criterion) {
    println!(
        "== E13 summary (scan {SCAN_ROWS} rows; bindjoin {EVENTS} events over {USERS} profiles) =="
    );
    let scan = scan_plan(scan_input());
    let (scan_tuple, scan_vec) = report("filter+project scan", &scan);
    println!(
        "filter+project scan: batch@1024 speedup {:.2}x",
        scan_tuple.as_secs_f64() / scan_vec.as_secs_f64()
    );

    let agg = agg_plan(kv_profiles(), event_input());
    let (agg_tuple, agg_vec) = report("bindjoin aggregate", &agg);
    println!(
        "bindjoin aggregate: batch@1024 speedup {:.2}x",
        agg_tuple.as_secs_f64() / agg_vec.as_secs_f64()
    );

    // --- criterion arms (identity asserted inside every iteration, the
    // same full-row comparison in both arms) ---------------------------
    let scan_ref = execute(&scan).expect("scan reference").0;
    let agg_ref = execute(&agg).expect("agg reference").0;
    let mut group = c.benchmark_group("e13_vectorized_scan_agg");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    group.bench_function("scan_tuple", |b| {
        b.iter(|| {
            let (out, _) = execute(&scan).expect("exec");
            assert_eq!(out.rows, scan_ref.rows);
            out.rows.len()
        })
    });
    for bs in BATCH_SIZES {
        group.bench_function(BenchmarkId::new("scan_vectorized", bs), |b| {
            let opts = ExecOptions { batch_size: bs };
            b.iter(|| {
                let (out, _) = execute_with(&scan, &opts).expect("exec");
                assert_eq!(out.rows, scan_ref.rows);
                out.rows.len()
            })
        });
    }
    group.bench_function("bindjoin_agg_tuple", |b| {
        b.iter(|| {
            let (out, _) = execute(&agg).expect("exec");
            assert_eq!(out.rows, agg_ref.rows);
            out.rows.len()
        })
    });
    for bs in BATCH_SIZES {
        group.bench_function(BenchmarkId::new("bindjoin_agg_vectorized", bs), |b| {
            let opts = ExecOptions { batch_size: bs };
            b.iter(|| {
                let (out, _) = execute_with(&agg, &opts).expect("exec");
                assert_eq!(out.rows, agg_ref.rows);
                out.rows.len()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
