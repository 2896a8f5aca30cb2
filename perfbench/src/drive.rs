//! Driving the public `Estocada` API: the timed set-up of the paper's
//! final §II deployment, one call per op, and the answer checks.

use crate::model::{rows_match, Model, Row};
use crate::ops::{Op, Order, Pref, Stream, Workload};
use estocada::frontends::{doc_query, parse_sql, AggregateSpec, ParsedDocQuery, ParsedQuery};
use estocada::{
    DmlReport, Estocada, FragmentSpec, Latencies, QueryResult, Residual, Severity, SystemId,
    ValidationMode,
};
use estocada_pivot::encoding::document::TreePattern;
use estocada_pivot::{Cq, CqBuilder};
use estocada_simkit::MetricsSnapshot;
use estocada_workloads::{
    analytics_sql, cart_kv_view, cart_pattern, deploy_materialized_join, generate_marketplace,
    personalized_sql, pref_sql, stale_fragments, user_orders_sql, Marketplace, MarketplaceConfig,
};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Cart bindings every `Cart` op selects.
pub const CART_SELECT: [&str; 2] = ["pid", "qty"];

/// Stream ops `lookup_cold` runs before its window, to warm code paths
/// (its plan cache must stay cold).
const COLD_WARM_OPS: u64 = 32;

/// The common dataset of all workloads.
pub fn dataset_config(seed: u64) -> MarketplaceConfig {
    MarketplaceConfig {
        users: 2_000,
        products: 500,
        orders: 5_000,
        log_entries: 20_000,
        skew: crate::ops::SKEW,
        seed,
    }
}

/// The seven fragments of `workloads::scenarios::deploy_materialized_join`,
/// in its order: native tables, native cart documents, the catalog text
/// index, web logs in the parallel store, the two key-value migrations and
/// the materialized purchases ⋈ browsing join.
pub fn fragment_specs() -> Vec<FragmentSpec> {
    vec![
        FragmentSpec::NativeTables {
            dataset: "sales".into(),
            only: Some(
                ["Users", "Prefs", "Products", "Orders", "Shipping"]
                    .map(String::from)
                    .to_vec(),
            ),
        },
        FragmentSpec::NativeDoc {
            dataset: "Carts".into(),
        },
        FragmentSpec::TextIndex {
            table: "Products".into(),
        },
        FragmentSpec::ParRows {
            view: CqBuilder::new("WebLogPar")
                .head_vars(["lid", "uid", "pid", "category", "dwell_ms"])
                .atom("WebLog", |a| {
                    a.v("lid").v("uid").v("pid").v("category").v("dwell_ms")
                })
                .build(),
            index_on: vec![],
            partitions: 0,
        },
        FragmentSpec::KeyValue {
            view: CqBuilder::new("PrefsKV")
                .head_vars(["uid", "theme", "language", "newsletter"])
                .atom("Prefs", |a| {
                    a.v("uid").v("theme").v("language").v("newsletter")
                })
                .build(),
        },
        FragmentSpec::KeyValue {
            view: cart_kv_view(),
        },
        FragmentSpec::ParRows {
            view: CqBuilder::new("UserHist")
                .head_vars(["uid", "category", "opid", "amount", "lpid", "dwell_ms"])
                .atom("Orders", |a| {
                    a.v("oid").v("uid").v("opid").v("category").v("amount")
                })
                .atom("WebLog", |a| {
                    a.v("lid").v("uid").v("lpid").v("category").v("dwell_ms")
                })
                .build(),
            index_on: vec!["uid".into(), "category".into()],
            partitions: 0,
        },
    ]
}

/// `(fragment id, kind, rows per relation)` of every fragment: what the
/// suite's deployment must share with the scenario helper's.
pub fn signature(est: &Estocada) -> Vec<(String, &'static str, Vec<u64>)> {
    est.fragments()
        .iter()
        .map(|f| {
            (
                f.id.clone(),
                f.spec.kind(),
                f.stats.iter().map(|s| s.rows).collect(),
            )
        })
        .collect()
}

/// The signature of `deploy_materialized_join` over the seed's dataset.
pub fn reference_signature(seed: u64) -> Vec<(String, &'static str, Vec<u64>)> {
    let m = generate_marketplace(dataset_config(seed));
    signature(&deploy_materialized_join(&m, Latencies::datacenter()))
}

/// A read as the frontend takes it.
#[derive(Debug, Clone)]
pub enum Request {
    /// Mini-SQL text.
    Sql(String),
    /// A document tree pattern (selecting [`CART_SELECT`]).
    Doc(TreePattern),
}

/// The request a read op sends; `None` for a write.
pub fn request_of(op: &Op) -> Option<Request> {
    Some(match *op {
        Op::Pref(uid) => Request::Sql(pref_sql(uid)),
        Op::Cart(uid) => Request::Doc(cart_pattern(uid)),
        Op::Orders(uid) => Request::Sql(user_orders_sql(uid)),
        Op::Personalized(uid, cat) => Request::Sql(personalized_sql(
            uid,
            estocada_workloads::marketplace::CATEGORIES[cat as usize],
        )),
        Op::Insert(_) | Op::Delete(_) | Op::Upsert(_) => return None,
        _ => Request::Sql(analytics_sql(
            &op.to_analytics().expect("the remaining ops are aggregates"),
        )),
    })
}

/// A request parsed to its pivot form.
#[derive(Debug, Clone)]
pub struct Parsed {
    /// The conjunctive core.
    pub cq: Cq,
    /// Output column names of the core.
    pub head_names: Vec<String>,
    /// Residual comparisons.
    pub residuals: Vec<Residual>,
    /// Aggregation layered over the core, if any.
    pub aggregate: Option<AggregateSpec>,
}

impl From<ParsedQuery> for Parsed {
    fn from(p: ParsedQuery) -> Parsed {
        Parsed {
            cq: p.cq,
            head_names: p.head_names,
            residuals: p.residuals,
            aggregate: p.aggregate,
        }
    }
}

impl From<ParsedDocQuery> for Parsed {
    fn from(p: ParsedDocQuery) -> Parsed {
        Parsed {
            cq: p.cq,
            head_names: p.head_names,
            residuals: Vec::new(),
            aggregate: None,
        }
    }
}

/// Parse a request with the engine's public frontends.
pub fn parse_request(est: &Estocada, request: &Request) -> estocada::Result<Parsed> {
    Ok(match request {
        Request::Sql(sql) => parse_sql(sql, &est.sql_catalog())?.into(),
        Request::Doc(pattern) => doc_query(pattern, &CART_SELECT)?.into(),
    })
}

/// The simulated stores' spin-wait inside a set of request deltas:
/// `LatencyModel::request_cost`, summed over each store's requests. This is
/// the floor under a call's latency that only fewer requests or bytes can
/// lower.
pub fn store_wait(latencies: &Latencies, deltas: &[(SystemId, MetricsSnapshot)]) -> Duration {
    deltas
        .iter()
        .map(|(sys, d)| {
            let l = latencies.of(*sys);
            Duration::from_nanos(
                l.per_request_ns * d.requests
                    + l.per_tuple_ns * d.tuples_out
                    + l.per_byte_ns * d.bytes_out
                    + l.per_scan_ns * d.tuples_scanned,
            )
        })
        .sum()
}

/// Per-store metric deltas between two `Stores::metrics` snapshots.
pub fn store_deltas(
    before: &[(SystemId, MetricsSnapshot)],
    after: &[(SystemId, MetricsSnapshot)],
) -> Vec<(SystemId, MetricsSnapshot)> {
    after
        .iter()
        .zip(before)
        .map(|((sys, a), (_, b))| (*sys, a.since(b)))
        .collect()
}

/// Send a request; the returned duration is the wall time of
/// `est.query…().run()` alone.
pub fn exec_request(
    est: &Estocada,
    request: &Request,
) -> (estocada::Result<QueryResult>, Duration) {
    let start = Instant::now();
    let result = match request {
        Request::Sql(sql) => est.query(sql).run(),
        Request::Doc(pattern) => est.query_pattern(pattern, &CART_SELECT).run(),
    };
    (result, start.elapsed())
}

/// Run a read (the request is built before the clock starts).
pub fn exec_read(est: &Estocada, op: &Op) -> (estocada::Result<QueryResult>, Duration) {
    exec_request(est, &request_of(op).expect("exec_read takes reads"))
}

/// Run a write; the returned duration is the wall time of the DML call
/// alone.
pub fn exec_write(est: &mut Estocada, op: &Op) -> (estocada::Result<DmlReport>, Duration) {
    let (table, row) = match op {
        Op::Insert(o) | Op::Delete(o) => ("Orders", Model::order_row(o)),
        Op::Upsert(p) => ("Prefs", Model::pref_row(p)),
        _ => panic!("exec_write takes writes"),
    };
    let start = Instant::now();
    let result = match op {
        Op::Insert(_) => est.insert_rows("sales", table, vec![row]),
        Op::Delete(_) => est.delete_rows("sales", table, vec![row]),
        _ => est.upsert_rows("sales", table, vec![row]),
    };
    (result, start.elapsed())
}

/// Expected answers computed once (during warm-up) for ops that recur.
pub type ExpectedCache = HashMap<Op, Vec<Row>>;

/// Whether a read's result is the expected one: the row count on every
/// op, the full row multiset when `full`.
pub fn read_is_correct(
    model: &Model,
    cache: &ExpectedCache,
    op: &Op,
    result: &estocada::Result<QueryResult>,
    full: bool,
) -> bool {
    let Ok(result) = result else {
        return false;
    };
    let computed;
    let expected = match cache.get(op) {
        Some(rows) => rows,
        None => {
            computed = model.expected(op);
            &computed
        }
    };
    if full {
        rows_match(expected, &result.rows)
    } else {
        expected.len() == result.rows.len()
    }
}

/// Whether a write did what the op stream asked and left no fragment
/// behind the data epoch.
pub fn write_is_correct(est: &Estocada, op: &Op, result: &estocada::Result<DmlReport>) -> bool {
    let Ok(report) = result else {
        return false;
    };
    let counts_ok = match op {
        Op::Insert(_) => (report.inserted, report.deleted) == (1, 0),
        Op::Delete(_) => (report.inserted, report.deleted) == (0, 1),
        _ => (report.inserted, report.deleted) == (1, 1),
    };
    counts_ok && stale_fragments(est).is_empty()
}

/// Cross-check the model against the engine's own ground-truth evaluator
/// (`Estocada::oracle_eval` over the staged facts): the answer itself for
/// a plain query, the number of core tuples for an aggregate.
pub fn check_against_oracle(est: &Estocada, model: &Model, op: &Op) -> Result<(), String> {
    let request = request_of(op).ok_or("writes have no oracle")?;
    let parsed = parse_request(est, &request).map_err(|e| format!("{op:?}: {e}"))?;
    let oracle = est.oracle_eval(&parsed.cq);
    let agrees = if parsed.aggregate.is_some() {
        oracle.len() == model.core_rows(op)
    } else {
        rows_match(&model.expected(op), &oracle)
    };
    if agrees {
        Ok(())
    } else {
        Err(format!(
            "{op:?}: the model and oracle_eval disagree ({} oracle rows)",
            oracle.len()
        ))
    }
}

/// Wall time of each step of one set-up, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    /// `generate`.
    pub generate_s: f64,
    /// Both `register_dataset` calls.
    pub register_s: f64,
    /// Each `add_fragment`, by fragment id.
    pub add_fragment_s: Vec<(String, f64)>,
    /// `Estocada::analyze` over the finished deployment.
    pub analyze_s: f64,
    /// Engine calls of the warm-up (including the first writes of
    /// `readwrite`).
    pub warm_s: f64,
    /// The first write, which seeds the O(data) maintenance state; `None`
    /// until a write happened.
    pub first_write_s: Option<f64>,
}

impl SetupTimes {
    /// `setup_s`: everything a deployment pays before it serves its first
    /// measured op.
    pub fn total_s(&self) -> f64 {
        self.generate_s
            + self.register_s
            + self.add_fragment_s.iter().map(|(_, s)| s).sum::<f64>()
            + self.analyze_s
            + self.warm_s
    }
}

/// A deployment that is set up, warmed and ready for its window.
pub struct Deployment {
    /// The mediator under test.
    pub est: Estocada,
    /// The independent model of the data (shadow copy under writes).
    pub model: Model,
    /// The workload's op stream.
    pub stream: Stream,
    /// Index of the first stream op the window may use.
    pub cursor: u64,
    /// Expected answers of the working set.
    pub expected: ExpectedCache,
    /// What the set-up cost.
    pub times: SetupTimes,
    /// Rows stored across all fragments per row of the conceptual dataset.
    pub rows_stored_per_user_row: f64,
}

/// The three writes that follow a deployment's set-up where the workload
/// writes at all (and that close every traced run, so that the `dml`
/// layer is measured on every workload): insert an order, delete it
/// again, upsert one preference row. The oid lies far above anything the
/// generators produce.
pub fn write_probe() -> [Op; 3] {
    let o = Order {
        oid: 1 << 40,
        uid: 0,
        pid: 0,
        cat: 0,
        cents: 100,
    };
    [
        Op::Insert(o),
        Op::Delete(o),
        Op::Upsert(Pref {
            uid: 0,
            dark: true,
            lang: 0,
            newsletter: false,
        }),
    ]
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

impl Deployment {
    /// Generate the seed's dataset, deploy it through the public DDL
    /// (timing each call), analyze it, and warm it up for `workload`.
    /// With `cross_check`, the model is also compared with
    /// `Estocada::oracle_eval` once per warmed op. A wrong answer during
    /// warm-up is a broken precondition and panics.
    pub fn set_up(workload: Workload, seed: u64, cross_check: bool) -> Deployment {
        let mut times = SetupTimes::default();
        let (market, s) = timed(|| generate_marketplace(dataset_config(seed)));
        times.generate_s = s;
        let model = Model::new(&market);
        let stream = Stream::new(workload, seed, &model);
        let user_rows = Model::user_rows(&market);

        let mut est = Estocada::new(Latencies::datacenter());
        est.set_validation(ValidationMode::Strict);
        let Marketplace { sales, carts, .. } = market;
        let ((), s) = timed(|| {
            est.register_dataset(sales).expect("register sales");
            est.register_dataset(carts).expect("register Carts");
        });
        times.register_s = s;
        for spec in fragment_specs() {
            let index_carts = matches!(spec, FragmentSpec::NativeDoc { .. });
            let (id, s) = timed(|| {
                let id = est.add_fragment(spec).expect("add_fragment");
                if index_carts {
                    // The first release indexes carts by user.
                    est.stores.doc.create_index("Carts", "user");
                }
                id
            });
            times.add_fragment_s.push((id, s));
        }
        let (findings, s) = timed(|| est.analyze());
        times.analyze_s = s;
        assert!(
            findings.iter().all(|d| d.severity != Severity::Error),
            "the deployment has analyzer errors: {findings:?}"
        );
        let stored: u64 = est
            .fragments()
            .iter()
            .flat_map(|f| f.stats.iter().map(|s| s.rows))
            .sum();

        let mut d = Deployment {
            est,
            model,
            stream,
            cursor: 0,
            expected: HashMap::new(),
            times,
            rows_stored_per_user_row: stored as f64 / user_rows as f64,
        };
        d.warm_up(workload, cross_check);
        d
    }

    fn warm_up(&mut self, workload: Workload, cross_check: bool) {
        let mut ops = self.stream.working_set();
        if workload == Workload::LookupCold {
            ops.extend((0..COLD_WARM_OPS).map(|i| self.stream.op_at(i)));
            self.cursor = COLD_WARM_OPS;
        }
        for op in &ops {
            let (result, took) = exec_read(&self.est, op);
            self.times.warm_s += took.as_secs_f64();
            let expected = self.model.expected(op);
            let got = result.unwrap_or_else(|e| panic!("warm-up {op:?} failed: {e}"));
            assert!(
                rows_match(&expected, &got.rows),
                "warm-up {op:?} returned a wrong answer ({} rows, expected {})",
                got.rows.len(),
                expected.len()
            );
            if cross_check {
                check_against_oracle(&self.est, &self.model, op).unwrap_or_else(|e| panic!("{e}"));
            }
            self.expected.insert(*op, expected);
        }
        if workload == Workload::ReadWrite {
            self.run_write_probe();
            // The working set was read before the probe's upsert.
            self.expected.clear();
        }
    }

    /// Run [`write_probe`], recording the first write's time and adding
    /// all three to the warm-up time. Panics on a wrong outcome.
    pub fn run_write_probe(&mut self) -> Vec<(Op, DmlReport, Duration)> {
        let mut out = Vec::new();
        for op in write_probe() {
            let (result, took) = exec_write(&mut self.est, &op);
            assert!(
                write_is_correct(&self.est, &op, &result),
                "write probe {op:?} went wrong: {result:?}"
            );
            self.model.apply(&op);
            self.times.warm_s += took.as_secs_f64();
            self.times.first_write_s.get_or_insert(took.as_secs_f64());
            out.push((op, result.expect("checked above"), took));
        }
        out
    }
}
