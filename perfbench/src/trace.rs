//! The traced run: one session replays the workload's op stream, and after
//! each real call runs the same op again layer by layer through the
//! engine's public functions, with a span around each. Never used for
//! end-to-end numbers.

use crate::drive::{
    exec_request, exec_write, read_is_correct, request_of, store_deltas, store_wait,
    write_is_correct, Deployment, Parsed, Request, CART_SELECT,
};
use crate::model::rows_match;
use crate::ops::Op;
use crate::run::hit_ratio;
use crate::span::{self_times, SpanLog};
use crate::stats::{median, percentile};
use estocada::frontends::{doc_query, parse_sql, AggregateSpec};
use estocada::translate::{translate, Translation};
use estocada::{DmlReport, Estocada, QueryResult, SystemId};
use estocada_chase::{pacb_rewrite, RewriteOutcome, RewriteProblem, RewriteStats};
use estocada_engine::{execute_with, ExecOptions, ExecStats, Expr, Plan, RowBatch};
use estocada_simkit::MetricsSnapshot;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// One traced read in this many also executes every other executable
/// rewriting, to check the cost model's choice.
pub const COST_CHECK_EVERY: u64 = 8;

/// Stream ops per block of plain or traced reads.
pub const OVERHEAD_BLOCK: u64 = 32;

/// The chosen rewriting counts as fastest when within this factor of the
/// fastest measured one.
const FASTEST_TOLERANCE: f64 = 1.1;

/// Stores that are on a chosen plan of this deployment, with their metric
/// prefix.
pub const TRACED_STORES: [(SystemId, &str); 3] = [
    (SystemId::Relational, "rel"),
    (SystemId::KeyValue, "kv"),
    (SystemId::Parallel, "par"),
];

/// Counters that are not span durations.
#[derive(Debug, Default)]
struct Counters {
    traced_reads: u64,
    traced_ops: u64,
    rewrite: Vec<RewriteStats>,
    alternatives: u64,
    exec: Vec<ExecStats>,
    store_delta: HashMap<SystemId, MetricsSnapshot>,
    qerrors: Vec<f64>,
    choice_ops: u64,
    chosen_fastest: u64,
    /// Σ over traced reads of the real call's wall time.
    real_ns: u64,
    /// Σ of the replayed spans that the real call also ran.
    comparable_ns: u64,
    /// Σ of the replayed rewrite + translate + execute spans.
    replay_phases_ns: u64,
    /// Σ of the report's own rewrite + translate + execute timers.
    report_phases_ns: u64,
    /// Per op class: latencies of reads run with and without tracing.
    traced_by_class: HashMap<u8, Vec<f64>>,
    plain_by_class: HashMap<u8, Vec<f64>>,
    writes: Vec<(Op, DmlReport, Duration)>,
}

/// Result of a traced run.
#[derive(Debug)]
pub struct Traced {
    /// Every per-layer metric by name.
    pub metrics: Vec<(String, f64)>,
    /// Ops run (traced, untraced and the closing write probe).
    pub attempted: usize,
    /// Ops that errored, answered wrongly, or whose replay returned other
    /// rows than the real call.
    pub failed: usize,
    /// Share of the real calls' wall time that the replayed layer spans
    /// account for.
    pub replay_coverage: f64,
    /// The spans.
    pub spans: SpanLog,
}

/// `Project(SELECT) ∘ Filter(HAVING) ∘ Aggregate(GROUP BY) ∘ core`, as the
/// evaluator layers a SQL aggregation over a rewritten core plan.
fn wrap_aggregate(core: Plan, spec: &AggregateSpec) -> Plan {
    let mut plan = Plan::Aggregate {
        input: Box::new(core),
        group_by: (0..spec.group_cols).collect(),
        aggs: spec.aggs.clone(),
    };
    let having = spec
        .having
        .iter()
        .map(|(col, op, v)| Expr::col(*col).cmp(*op, Expr::Lit(v.clone())))
        .reduce(Expr::and);
    if let Some(pred) = having {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred,
        };
    }
    Plan::Project {
        input: Box::new(plan),
        exprs: spec
            .select
            .iter()
            .map(|(name, col)| (name.clone(), Expr::col(*col)))
            .collect(),
    }
}

fn executable(tr: &Translation, aggregate: Option<&AggregateSpec>) -> Plan {
    match aggregate {
        Some(spec) => wrap_aggregate(tr.plan.clone(), spec),
        None => tr.plan.clone(),
    }
}

fn run_plan(plan: &Plan) -> Result<(RowBatch, ExecStats), String> {
    execute_with(plan, &ExecOptions::default()).map_err(|e| e.to_string())
}

fn add_snapshot(into: &mut MetricsSnapshot, d: &MetricsSnapshot) {
    into.requests += d.requests;
    into.tuples_out += d.tuples_out;
    into.tuples_scanned += d.tuples_scanned;
    into.bytes_out += d.bytes_out;
    into.busy += d.busy;
}

fn sorted(rows: &[Vec<estocada_pivot::Value>]) -> Vec<Vec<estocada_pivot::Value>> {
    let mut r = rows.to_vec();
    r.sort();
    r
}

/// What one replay found.
struct Replay {
    rows: Vec<Vec<estocada_pivot::Value>>,
    /// Spans the real call ran too when it missed the plan cache.
    rewrite_ns: u64,
    /// Spans every real call runs: parse, translate, execute.
    always_ns: u64,
    /// Rewrite + translate + execute, for the comparison with the report.
    phases_ns: u64,
}

/// The span log and counters of one traced run.
#[derive(Debug, Default)]
struct Tracer {
    log: SpanLog,
    c: Counters,
}

impl Tracer {
    /// The root span of a real call that just returned after `wall`.
    fn root_span(&mut self, op_id: u64, name: &'static str, wall: Duration) {
        let end = self.log.now_ns();
        let start = end.saturating_sub(wall.as_nanos() as u64);
        self.log.record(op_id, None, name, start, end);
    }

    /// Replay one read layer by layer under an `op.replay` root span.
    fn replay(
        &mut self,
        est: &Estocada,
        op_id: u64,
        op: &Op,
        request: &Request,
        core_rows: usize,
        cost_check: bool,
    ) -> Result<Replay, String> {
        let (log, c) = (&mut self.log, &mut self.c);
        let root = log.open(op_id, None, "op.replay");

        // frontends: the SQL catalog is rebuilt per SQL query.
        let parse = log.open(op_id, Some(root), "frontends.parse");
        let parsed: Parsed = match request {
            Request::Sql(sql) => {
                let s = log.open(op_id, Some(parse), "frontends.sql_catalog");
                let catalog = est.sql_catalog();
                log.close(s);
                let s = log.open(op_id, Some(parse), "frontends.parse_sql");
                let p = parse_sql(sql, &catalog);
                log.close(s);
                p.map_err(|e| e.to_string())?.into()
            }
            Request::Doc(pattern) => {
                let s = log.open(op_id, Some(parse), "frontends.doc_query");
                let p = doc_query(pattern, &CART_SELECT);
                log.close(s);
                p.map_err(|e| e.to_string())?.into()
            }
        };
        let parse_ns = log.close(parse);

        // analyze: the certificate is recomputed on every plan-cache miss.
        let s = log.open(op_id, Some(root), "analyze.certificate");
        let cert = est.termination_certificate();
        let cert_ns = log.close(s);

        // chase: the rewriting problem and configuration the planner builds.
        let s = log.open(op_id, Some(root), "evaluator.rewrite_problem");
        let problem = RewriteProblem {
            query: parsed.cq.clone(),
            views: est.catalog().view_defs(),
            source_constraints: est.schema().constraints.clone(),
            target_constraints: Vec::new(),
            access: est.catalog().access_map(),
        };
        let mut cfg = est.rewrite_config();
        cfg.chase = cfg.chase.with_certificate(&cert);
        let problem_ns = log.close(s);
        let s = log.open(op_id, Some(root), "chase.pacb_rewrite");
        let outcome = pacb_rewrite(&problem, &cfg);
        let pacb_ns = log.close(s);
        let outcome: RewriteOutcome = outcome.map_err(|e| format!("{e:?}"))?;
        c.rewrite.push(outcome.stats);
        c.alternatives += outcome.rewritings.len() as u64;

        // translate: every rewriting, cheapest executable one wins (ties to
        // the earliest).
        let mut translate_ns = 0;
        let mut translations: Vec<Translation> = Vec::new();
        for rw in &outcome.rewritings {
            let s = log.open(op_id, Some(root), "translate.translate");
            let tr = translate(
                rw,
                &parsed.head_names,
                &parsed.residuals,
                est.catalog(),
                &est.stores,
                est.cost_model(),
                None,
            );
            translate_ns += log.close(s);
            translations.extend(tr.ok());
        }
        let best = translations
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| a.est_cost.total_cmp(&b.est_cost))
            .map(|(i, _)| i)
            .ok_or_else(|| format!("{op:?}: no executable rewriting"))?;

        // engine: execute the chosen plan; store busy time inside it becomes a
        // synthetic child span, so the span's self time is the runtime's own.
        let plan = executable(&translations[best], parsed.aggregate.as_ref());
        let before = est.stores.metrics();
        let s = log.open(op_id, Some(root), "engine.execute");
        let out = run_plan(&plan);
        let exec_ns = log.close(s);
        let busy: Duration = store_deltas(&before, &est.stores.metrics())
            .iter()
            .map(|(_, d)| d.busy)
            .sum();
        let start = log.get(s).start_ns;
        log.record(
            op_id,
            Some(s),
            "stores.busy",
            start,
            start + busy.as_nanos() as u64,
        );
        let (batch, stats) = out?;
        c.exec.push(stats);
        log.close(root);

        let est_rows = translations[best].est_rows.max(1.0);
        let actual = (core_rows as f64).max(1.0);
        c.qerrors.push((est_rows / actual).max(actual / est_rows));

        if cost_check && translations.len() >= 2 {
            // Best of two runs per rewriting, all after the chosen plan's
            // replay above warmed the stores.
            let mut fastest = f64::INFINITY;
            let mut chosen = f64::INFINITY;
            for (i, tr) in translations.iter().enumerate() {
                let plan = executable(tr, parsed.aggregate.as_ref());
                let mut took = f64::INFINITY;
                for _ in 0..2 {
                    let t = Instant::now();
                    let (rows, _) = run_plan(&plan)?;
                    took = took.min(t.elapsed().as_secs_f64());
                    if !rows_match(&sorted(&batch.rows), &rows.rows) {
                        return Err(format!("{op:?}: rewriting {i} returned other rows"));
                    }
                }
                fastest = fastest.min(took);
                if i == best {
                    chosen = took;
                }
            }
            c.choice_ops += 1;
            c.chosen_fastest += u64::from(chosen <= fastest * FASTEST_TOLERANCE);
        }

        Ok(Replay {
            rows: batch.rows,
            rewrite_ns: cert_ns + problem_ns + pacb_ns,
            always_ns: parse_ns + translate_ns + exec_ns,
            phases_ns: cert_ns + problem_ns + pacb_ns + translate_ns + exec_ns,
        })
    }

    /// One traced read: the real call under a root span with counter deltas,
    /// then the replay. Returns whether everything agreed.
    fn traced_read(&mut self, d: &Deployment, op_id: u64, op: &Op) -> bool {
        let est = &d.est;
        let request = request_of(op).expect("a read");
        let stores_before = est.stores.metrics();
        let (result, took) = exec_request(est, &request);
        self.root_span(op_id, "op.query", took);
        let c = &mut self.c;
        let deltas = store_deltas(&stores_before, &est.stores.metrics());
        let mut ok = read_is_correct(&d.model, &d.expected, op, &result, true);
        let Ok(result): Result<QueryResult, _> = result else {
            return false;
        };
        for (sys, delta) in &deltas {
            add_snapshot(c.store_delta.entry(*sys).or_default(), delta);
        }
        c.traced_reads += 1;
        c.traced_ops += 1;
        c.traced_by_class
            .entry(op.class())
            .or_default()
            .push(took.as_secs_f64());

        let cost_check = c.traced_reads.is_multiple_of(COST_CHECK_EVERY);
        let core_rows = d.model.core_rows(op);
        match self.replay(est, op_id, op, &request, core_rows, cost_check) {
            Ok(r) => {
                let c = &mut self.c;
                ok &= rows_match(&sorted(&result.rows), &r.rows);
                let missed = result.report.plan_cache.is_some_and(|pc| !pc.hit);
                c.real_ns += took.as_nanos() as u64;
                c.comparable_ns += r.always_ns + if missed { r.rewrite_ns } else { 0 };
                c.replay_phases_ns += if missed {
                    r.phases_ns
                } else {
                    r.phases_ns - r.rewrite_ns
                };
                let rep = &result.report;
                c.report_phases_ns +=
                    (rep.rewrite_time + rep.translate_time + rep.exec.total_time).as_nanos() as u64;
            }
            Err(e) => {
                eprintln!("replay of {op:?} failed: {e}");
                ok = false;
            }
        }
        ok
    }

    /// One traced write: the real call under a root span with its store
    /// deltas and `DmlReport`.
    fn traced_write(&mut self, d: &mut Deployment, op_id: u64, op: &Op) -> bool {
        let stores_before = d.est.stores.metrics();
        let name = match op {
            Op::Insert(_) => "dml.insert_rows",
            Op::Delete(_) => "dml.delete_rows",
            _ => "dml.upsert_rows",
        };
        let (result, took) = exec_write(&mut d.est, op);
        self.root_span(op_id, name, took);
        let c = &mut self.c;
        let ok = write_is_correct(&d.est, op, &result);
        for (sys, delta) in store_deltas(&stores_before, &d.est.stores.metrics()) {
            add_snapshot(c.store_delta.entry(sys).or_default(), &delta);
        }
        c.traced_ops += 1;
        if let Ok(report) = result {
            d.model.apply(op);
            c.writes.push((*op, report, took));
        }
        ok
    }
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    if items.is_empty() {
        0.0
    } else {
        items.iter().map(f).sum::<f64>() / items.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Replay `d`'s stream for `budget`, then close with the write probe.
/// Reads alternate, in blocks of [`OVERHEAD_BLOCK`] stream ops, between
/// plain calls (timed only) and traced ones; the difference per op class
/// is the tracing overhead — mostly the replay evicting what the next real
/// call would have found in the processor's caches.
pub fn run_traced(mut d: Deployment, budget: Duration) -> Traced {
    let mut t = Tracer::default();
    let mut attempted = 0;
    let mut failed = 0;
    let plan_before = d.est.plan_cache_stats();
    let lint_before = d.est.lint_cache_stats();
    let t0 = Instant::now();
    let mut i = d.cursor;
    while t0.elapsed() < budget {
        let op = d.stream.op_at(i);
        attempted += 1;
        let ok = if op.is_write() {
            t.traced_write(&mut d, i, &op)
        } else {
            if (i / OVERHEAD_BLOCK) % 2 == 1 {
                t.traced_read(&d, i, &op)
            } else {
                let request = request_of(&op).expect("a read");
                let (result, took) = exec_request(&d.est, &request);
                t.c.plain_by_class
                    .entry(op.class())
                    .or_default()
                    .push(took.as_secs_f64());
                read_is_correct(&d.model, &d.expected, &op, &result, true)
            }
        };
        failed += usize::from(!ok);
        i += 1;
    }
    let plan_after = d.est.plan_cache_stats();
    let regime = CacheRegime {
        plan_hit_ratio: hit_ratio(&plan_before, &plan_after),
        plan_entries: plan_after.entries,
        lint_hit_ratio: hit_ratio(&lint_before, &d.est.lint_cache_stats()),
    };
    let stream_ops = t.c.traced_ops;
    let stream_store_delta = std::mem::take(&mut t.c.store_delta);

    // The dml layer is measured on every workload: where the stream has no
    // writes, the probe supplies them. Its first run on a deployment seeds
    // the maintenance state and is kept apart.
    if d.times.first_write_s.is_none() {
        d.run_write_probe();
    }
    for op in crate::drive::write_probe() {
        attempted += 1;
        failed += usize::from(!t.traced_write(&mut d, i, &op));
        i += 1;
    }

    let Tracer { log, c } = t;
    Traced {
        metrics: metrics(&d, &log, &c, stream_ops, &stream_store_delta, &regime),
        attempted,
        failed,
        replay_coverage: ratio(c.comparable_ns as f64, c.real_ns as f64),
        spans: log,
    }
}

/// Plan- and lint-cache behaviour over the replayed stream.
struct CacheRegime {
    plan_hit_ratio: f64,
    plan_entries: usize,
    lint_hit_ratio: f64,
}

/// Every per-layer metric, from the span log and the counters.
/// `stream_ops` and `store_delta` cover the stream's traced ops only (the
/// closing write probe feeds the `dml.*` metrics alone).
fn metrics(
    d: &Deployment,
    log: &SpanLog,
    c: &Counters,
    stream_ops: u64,
    store_delta: &HashMap<SystemId, MetricsSnapshot>,
    regime: &CacheRegime,
) -> Vec<(String, f64)> {
    // Total duration and self time per span name, in microseconds.
    let selfs = self_times(log.spans());
    let mut total_us: HashMap<&str, f64> = HashMap::new();
    let mut self_us: HashMap<&str, f64> = HashMap::new();
    for (s, own) in log.spans().iter().zip(&selfs) {
        *total_us.entry(s.name).or_default() += s.duration_ns() as f64 / 1e3;
        *self_us.entry(s.name).or_default() += *own as f64 / 1e3;
    }
    let reads = c.traced_reads as f64;
    let per_read = |name: &str| ratio(total_us.get(name).copied().unwrap_or(0.0), reads);
    let ops = stream_ops as f64;

    let mut m: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, value: f64| m.push((name.to_string(), value));

    put("frontends.parse_us_per_op", per_read("frontends.parse"));
    put(
        "frontends.sql_catalog_us_per_op",
        per_read("frontends.sql_catalog"),
    );
    put("plancache.hit_ratio", regime.plan_hit_ratio);
    put("plancache.entries", regime.plan_entries as f64);
    put("plancache.lint_hit_ratio", regime.lint_hit_ratio);
    put(
        "analyze.certificate_us_per_miss",
        per_read("analyze.certificate"),
    );
    put("analyze.deployment_ms", d.times.analyze_s * 1e3);

    put("chase.rewrite_us_per_miss", per_read("chase.pacb_rewrite"));
    let rw = &c.rewrite;
    put(
        "chase.fwd_rounds_per_rewrite",
        mean_of(rw, |s| s.forward.rounds as f64),
    );
    put(
        "chase.fwd_tgd_fires_per_rewrite",
        mean_of(rw, |s| s.forward.tgd_fires as f64),
    );
    put(
        "chase.fwd_egd_merges_per_rewrite",
        mean_of(rw, |s| s.forward.egd_merges as f64),
    );
    put(
        "chase.bwd_rounds_per_rewrite",
        mean_of(rw, |s| s.backward.chase.rounds as f64),
    );
    put(
        "chase.bwd_tgd_fires_per_rewrite",
        mean_of(rw, |s| s.backward.chase.tgd_fires as f64),
    );
    let memo_hits: usize = rw
        .iter()
        .map(|s| s.forward.memo_hits + s.backward.chase.memo_hits)
        .sum();
    let memo_misses: usize = rw
        .iter()
        .map(|s| s.forward.memo_misses + s.backward.chase.memo_misses)
        .sum();
    put(
        "chase.memo_hit_ratio",
        ratio(memo_hits as f64, (memo_hits + memo_misses) as f64),
    );
    put(
        "chase.universal_plan_atoms_per_rewrite",
        mean_of(rw, |s| s.universal_plan_atoms as f64),
    );
    put(
        "chase.candidates_per_rewrite",
        mean_of(rw, |s| s.candidates as f64),
    );
    put(
        "chase.candidate_yield",
        ratio(
            rw.iter().map(|s| s.accepted).sum::<usize>() as f64,
            rw.iter().map(|s| s.candidates).sum::<usize>() as f64,
        ),
    );

    put("translate.us_per_op", per_read("translate.translate"));
    put(
        "translate.alternatives_per_op",
        ratio(c.alternatives as f64, reads),
    );
    // Vacuously 1 when no sampled op offered a choice; `cost.choice_ops`
    // says how many did.
    put(
        "cost.chosen_is_fastest_share",
        if c.choice_ops == 0 {
            1.0
        } else {
            c.chosen_fastest as f64 / c.choice_ops as f64
        },
    );
    put("cost.choice_ops", c.choice_ops as f64);
    let mut q = c.qerrors.clone();
    q.sort_by(f64::total_cmp);
    put(
        "cost.rows_qerror_p50",
        if q.is_empty() {
            1.0
        } else {
            percentile(&q, 50.0)
        },
    );

    put("engine.exec_us_per_op", per_read("engine.execute"));
    put(
        "engine.runtime_self_us_per_op",
        ratio(self_us.get("engine.execute").copied().unwrap_or(0.0), reads),
    );
    put(
        "engine.operators_per_op",
        mean_of(&c.exec, |s| s.operators as f64),
    );
    put("engine.rows_per_op", mean_of(&c.exec, |s| s.rows as f64));
    put(
        "engine.bind_probes_per_op",
        mean_of(&c.exec, |s| s.bind_probes as f64),
    );

    // stores: deltas of the real calls of the stream (reads and writes).
    let busy_all: f64 = store_delta
        .values()
        .map(|d| d.busy.as_secs_f64() * 1e6)
        .sum();
    let deltas: Vec<(SystemId, MetricsSnapshot)> =
        store_delta.iter().map(|(sys, d)| (*sys, *d)).collect();
    let floor_us = store_wait(&d.est.latencies(), &deltas).as_secs_f64() * 1e6;
    let none = MetricsSnapshot::default();
    for (sys, prefix) in TRACED_STORES {
        let delta = store_delta.get(&sys).unwrap_or(&none);
        put(
            &format!("stores.{prefix}.requests_per_op"),
            ratio(delta.requests as f64, ops),
        );
        put(
            &format!("stores.{prefix}.busy_share"),
            ratio(delta.busy.as_secs_f64() * 1e6, busy_all),
        );
        put(
            &format!("stores.{prefix}.tuples_out_per_op"),
            ratio(delta.tuples_out as f64, ops),
        );
        put(
            &format!("stores.{prefix}.tuples_scanned_per_op"),
            ratio(delta.tuples_scanned as f64, ops),
        );
        put(
            &format!("stores.{prefix}.bytes_out_per_op"),
            ratio(delta.bytes_out as f64, ops),
        );
    }
    put("stores.busy_us_per_op", ratio(busy_all, ops));
    put("stores.latency_floor_us_per_op", ratio(floor_us, ops));

    // dml: the stream's writes plus the closing probe.
    let of_kind = |kind: fn(&Op) -> bool| -> f64 {
        let took: Vec<f64> = c
            .writes
            .iter()
            .filter(|(op, ..)| kind(op))
            .map(|(_, _, took)| took.as_secs_f64() * 1e3)
            .collect();
        mean_of(&took, |t| *t)
    };
    put(
        "dml.insert_ms_per_write",
        of_kind(|op| matches!(op, Op::Insert(_))),
    );
    put(
        "dml.delete_ms_per_write",
        of_kind(|op| matches!(op, Op::Delete(_))),
    );
    put(
        "dml.upsert_ms_per_write",
        of_kind(|op| matches!(op, Op::Upsert(_))),
    );
    put(
        "dml.store_delta_rows_per_write",
        mean_of(&c.writes, |(_, r, _)| {
            r.fragment_deltas
                .iter()
                .map(|f| f.store_deletes + f.store_inserts)
                .sum::<usize>() as f64
        }),
    );
    put(
        "dml.fragments_touched_per_write",
        mean_of(&c.writes, |(_, r, _)| r.fragment_deltas.len() as f64),
    );
    put(
        "dml.first_write_seed_s",
        d.times.first_write_s.unwrap_or(0.0),
    );

    put("materialize.register_dataset_s", d.times.register_s);
    for (id, s) in &d.times.add_fragment_s {
        let id: String = id
            .chars()
            .map(|ch| {
                if ch.is_ascii_alphanumeric() || "_.-".contains(ch) {
                    ch
                } else {
                    '_'
                }
            })
            .collect();
        put(&format!("materialize.add_fragment_s.{id}"), *s);
    }
    put(
        "materialize.rows_stored_per_user_row",
        d.rows_stored_per_user_row,
    );

    put(
        "evaluator.other_us_per_op",
        ratio((c.real_ns as f64 - c.comparable_ns as f64) / 1e3, reads),
    );
    put(
        "evaluator.replay_vs_report_ratio",
        ratio(c.replay_phases_ns as f64, c.report_phases_ns as f64),
    );

    // Tracing overhead: per class, traced vs plain median wall time of the
    // real call, weighted by the class's traced ops.
    let mut weighted = 0.0;
    let mut weight = 0.0;
    for (class, traced) in &c.traced_by_class {
        if let Some(plain) = c.plain_by_class.get(class).filter(|p| !p.is_empty()) {
            let n = traced.len() as f64;
            weighted += n * (median(traced) / median(plain) - 1.0);
            weight += n;
        }
    }
    put("trace.overhead_share", ratio(weighted, weight));
    m
}
