//! M2 — BindJoin vs ship-everything (supports the feasible-rewritings
//! machinery): accessing an access-restricted key-value fragment through
//! BindJoin probes, against the strawman of scanning the whole namespace
//! and hash-joining in the mediator.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use estocada_engine::{execute, BindSource, Plan, RowBatch, StoreError, Tuple};
use estocada_kvstore::KvStore;
use estocada_pivot::Value;
use estocada_simkit::LatencyModel;
use std::sync::Arc;
use std::time::Duration;

const STORE_SIZE: i64 = 20_000;

fn kv_store() -> Arc<KvStore> {
    let kv = Arc::new(KvStore::with_latency(LatencyModel {
        per_request_ns: 25_000,
        per_tuple_ns: 100,
        per_byte_ns: 1,
        per_scan_ns: 0,
    }));
    for i in 0..STORE_SIZE {
        kv.put(
            "profiles",
            Value::Int(i),
            &[Value::str(format!("user{i}")), Value::Int(i % 97)],
        );
    }
    kv
}

struct KvBind(Arc<KvStore>);
impl BindSource for KvBind {
    fn out_columns(&self) -> Vec<String> {
        vec!["name".into(), "score".into()]
    }
    fn fetch_batch(&self, keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
        // Pipelined MGET: one simulated round-trip for the whole batch.
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

fn left_batch(probes: i64) -> RowBatch {
    RowBatch::new(
        vec!["uid".into()],
        (0..probes).map(|i| vec![Value::Int(i * 3)]).collect(),
    )
}

fn bindjoin_plan(kv: Arc<KvStore>, probes: i64) -> Plan {
    Plan::BindJoin {
        left: Box::new(Plan::Values(left_batch(probes))),
        key_cols: vec![0],
        source: Arc::new(KvBind(kv)),
    }
}

/// Strawman: fetch the whole namespace (admin scan, one request per 1000
/// records to model pagination) and hash-join locally.
fn ship_all_plan(kv: Arc<KvStore>, probes: i64) -> Plan {
    let all: Vec<Tuple> = kv
        .scan("profiles")
        .into_iter()
        .map(|(k, mut v)| {
            let mut row = vec![k];
            row.append(&mut v);
            row
        })
        .collect();
    // Model the transfer cost of shipping the full namespace.
    let latency = LatencyModel {
        per_request_ns: 25_000,
        per_tuple_ns: 100,
        per_byte_ns: 1,
        per_scan_ns: 0,
    };
    let rows = all.len() as u64;
    let bytes: u64 = all
        .iter()
        .map(|r| r.iter().map(Value::approx_size).sum::<usize>() as u64)
        .sum();
    let shipped = Plan::Delegated {
        label: "kv full scan".into(),
        runner: Arc::new(move || {
            latency.charge(rows, bytes, rows);
            Ok(RowBatch::new(
                vec!["k".into(), "name".into(), "score".into()],
                all.clone(),
            ))
        }),
    };
    Plan::HashJoin {
        left: Box::new(Plan::Values(left_batch(probes))),
        right: Box::new(shipped),
        left_keys: vec![0],
        right_keys: vec![0],
    }
}

fn bench(c: &mut Criterion) {
    let kv = kv_store();

    println!("== M2 summary ==");
    for probes in [10i64, 100, 1000] {
        let bj = bindjoin_plan(kv.clone(), probes);
        let sa = ship_all_plan(kv.clone(), probes);
        let (rb, sb) = execute(&bj).unwrap();
        let (ra, ss) = execute(&sa).unwrap();
        assert_eq!(rb.len(), ra.len(), "strategies disagree");
        println!(
            "probes={probes}: bindjoin {:?} ({} probes) vs ship-all {:?}",
            sb.total_time, sb.bind_probes, ss.total_time
        );
    }

    let mut group = c.benchmark_group("m2_bindjoin");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for probes in [10i64, 100, 1000] {
        group.bench_with_input(BenchmarkId::new("bindjoin", probes), &probes, |b, &p| {
            let plan = bindjoin_plan(kv.clone(), p);
            b.iter(|| execute(&plan).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("ship_all", probes), &probes, |b, &p| {
            let plan = ship_all_plan(kv.clone(), p);
            b.iter(|| execute(&plan).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
