//! # The ESTOCADA benchmark suite
//!
//! One harness, four workloads: end-to-end latency and throughput of the
//! hybrid mediator through the public `Estocada` API, plus a separate
//! traced run that replays the same operations through each layer's public
//! functions to attribute time and counts per layer. `BENCHMARK.json` at
//! the repository root names the command:
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml --bin suite -- \
//!     --workload <name> --seed <u64> --seconds <n> --trace <0|1>
//! ```
//!
//! `suite --all` runs every workload (each in a process of its own, so that
//! `peak_rss_mb` is per workload); `suite --all --repeat 2` runs two sets on
//! the same build and exits non-zero, naming the workload/metric pair, if an
//! end-to-end metric of the two sets differs by more than its bound.
//!
//! The suite claims no gain. It predates every optimisation it will judge:
//! `BENCH_pr1…9.json` and the seventeen `crates/bench/benches/*.rs` mains
//! are older, share no schema with it, and their numbers are not comparable
//! with these.
//!
//! ## Common set-up
//!
//! Dataset `generate(MarketplaceConfig { users: 2_000, products: 500,
//! orders: 5_000, log_entries: 20_000, skew: 0.9, seed })`; `--seed` drives
//! the dataset and every op stream, the engine only ever sees generated
//! inputs. The suite deploys the paper's final §II configuration itself
//! through `Estocada::{new(Latencies::datacenter()), set_validation(Strict),
//! register_dataset, add_fragment}` — the seven fragments (and the
//! `Carts.user` document index) of `workloads::scenarios::
//! deploy_materialized_join` — timing each call, and the traced run asserts
//! that ids, kinds and row counts equal that helper's deployment.
//!
//! Closed loop, zero think time: one session — an application thread that
//! waits for each reply — per workload. (The issue planned two sessions on
//! the read-only workloads. On this host the two hardware threads are SMT
//! siblings of one core: with two sessions the latency of a `lookup_cold`
//! miss spread over 0.73–2.2 ms against 0.87–0.99 ms with one, because an
//! op's speed then depends on what the sibling session happens to execute,
//! and the parallel store fans its scans out to a worker per hardware
//! thread by itself. Two sessions measured the OS scheduler and the SMT
//! arbiter; contention on shared locks needs a host with real cores.) The
//! session runs the workload for a 4 s ramp, then the window of `--seconds`
//! (20 in `BENCHMARK.json`) opens; it is cut post hoc from per-op
//! timestamps into five slices, and every timing metric is the **median of
//! its five per-slice values**, so one disturbed slice cannot move it.
//! Per-slice values are printed on the `DETAIL` line.
//!
//! The other hardware threads are kept busy for the whole run by low-
//! priority spinners ([`host::Ballast`]), and the engine's own worker
//! threads displace the spinners when they need the core. What remains is
//! the host itself, a shared machine whose neighbours the suite cannot see:
//! a `lookup_cold` miss takes 0.60 ms in one second and 0.76 ms in the next,
//! for seconds to minutes at a time, and the middle half of ten runs of one
//! workload spreads over 2–16 % of their median as the clock reads them,
//! depending on the hour.
//!
//! ## Host-speed correction
//!
//! The slowdowns hit the mediator's *planning* code — parsing, the chase,
//! translation, report building: small allocations, hashing, string
//! building — and a fixed piece of work of that kind that runs none of the
//! engine's code ([`host::reference_kernel`], ~0.1 ms) slows down with it:
//! over ten `lookup_cold` runs its half-second medians follow those of the
//! misses with a correlation of 0.86, where an arithmetic loop, a pointer
//! chase over private memory and a hash map over reused buffers follow them
//! with 0.5 or less. The session runs the kernel between ops every 10 ms,
//! and the window's latencies are corrected before any percentile is cut:
//!
//! ```text
//! f         = median kernel duration in the op's half second ÷ host::REFERENCE_NS
//! corrected = exec + (latency − exec) ÷ f
//! ```
//!
//! `exec` is the plan's execution time from the call's own report
//! (`Report::exec.total_time`): the operators and the stores, including the
//! simulated store latency, which is a wall-clock spin that no host speed
//! changes. Execution time and writes stay as measured — the kernel says
//! nothing about scans, batches or view maintenance, and correcting them
//! widened the spread of `analytics` and `readwrite` — and a window that
//! holds writes is not corrected at all (after view maintenance the kernel
//! takes 5–20× its quiet time: it then times the allocator's free lists, not
//! the host). So the correction moves the two lookup workloads (planning is
//! ~50 % of a hit and ~95 % of a miss), leaves `analytics` within 1 % of the
//! clock and `readwrite` on it. Measured with this formula, quartile spread
//! as a share of the median: over twelve seeds in a noisy hour
//! `read_p95_ms` went from 10.6 % to 2.6 % on `kv_lookup_hot` and from 8.4 %
//! to 6.2 % on `lookup_cold` (its full range from 27 % to 16 %); over ten
//! seeds in a quiet hour the correction cost `lookup_cold`'s `read_p50_ms`
//! two points (2.1 % → 4.2 %) and brought the one run a neighbour had slowed
//! by 40 % back into line (range 39 % → 8 %). `throughput_ops_s`,
//! `read_p50_ms` and `read_p95_ms` are the corrected values; the `DETAIL`
//! line carries the same three as the clock read them (`uncorrected`) and
//! the run's median `host_factor`.
//!
//! What this costs: the kernel allocates from the process's heap, as the
//! planner does, so its duration also depends a little on what the engine
//! left there (`REFERENCE_NS` is its quiet value on the lookup workloads; it
//! sits 9 % below that beside `kv_lookup_hot` and 4 % above beside
//! `lookup_cold`). When two commits are
//! compared, compare their `host_factor` too: if a change to the engine's
//! allocation pattern moved it, the corrected metrics moved by the same
//! share, and the `uncorrected` ones decide.
//!
//! ## Workloads (names are fixed; later issues refer to them)
//!
//! | name | ops | why |
//! |---|---|---|
//! | `kv_lookup_hot` | `PrefLookup` (SQL) : `CartLookup` (tree pattern) = 3 : 1 over 100 seeded users, 200 plan-cache keys, all warmed | every op is a plan-cache hit served by one KV GET: the per-query mediator overhead (`frontends`, `plancache`, `translate`, report building) is most of a ~55 µs op here and nothing else is |
//! | `lookup_cold` | the same mix, `Pref` ops walking one seeded permutation of all 2 000 users and `Cart` ops another: a key recurs after ≥ 2 600 other distinct keys, against a 1 024-entry FIFO cache | every op is a miss and runs certificate + forward chase + provenance backchase + containment: same layers as `kv_lookup_hot` used the other way, so a cache-key or chase change that helps one and hurts the other shows |
//! | `analytics` | the five GROUP BY/HAVING templates of `workloads::analytics_workload` plus the paper's personalized search (users at Zipf ranks 2–9: hundreds to thousands of `UserHist` rows per call), 252 seeded queries cycled, plans cached | `engine` (`vexec` aggregate/join/distinct) and bulk transfer out of `parstore`/`relstore` do the work, rewriting none: what aggregate push-down or an executor change must move, and `kv_lookup_hot` must not |
//! | `readwrite` | 70 % `UserOrders` reads, 30 % writes (`insert_rows` Orders 45 %, `delete_rows` Orders 45 %, `upsert_rows` Prefs 10 %) in a fixed pattern; users Zipf(0.9) over the 256 hottest, drawn as a stratified sample; deletes only of live oids; never repeats | writes beside reads: `dml` counting maintenance of the native table plus the `UserHist` join view is > 95 % of the window, reads check read-your-writes, and a maintenance speed-up that slows reads (or the reverse) shows in one row |
//!
//! ## End-to-end metrics (tracing off; every workload reports every one)
//!
//! | metric | what | why | bound |
//! |---|---|---|---|
//! | `setup_s` | generate + register + all `add_fragment` + `analyze` + warm-up (for `readwrite` including the first writes, which seed the O(data) maintenance state); median of three set-ups per run | work moved out of the window into set-up must show | +25 % |
//! | `throughput_ops_s` | completed ops ÷ Σ op latencies (host-speed corrected, as are the next two): harness checking time is excluded | what the deployment serves; on `readwrite` it is the write cost (the inverse of the mean op time, > 95 % of it DML) | −25 % |
//! | `read_p50_ms` | median wall time of `est.query…().run()` per read | the typical application-visible delay | +25 % |
//! | `read_p95_ms` | 95th percentile of the same; on `readwrite`, whose slices hold too few reads, it is cut from the whole window and the `DETAIL` line says whether ten samples lay beyond it | the slow reads: misses, big answers | +25 % |
//! | `peak_rss_mb` | `VmHWM` at exit | memory is the other cost of overlapping fragments and caches | +15 % |
//!
//! Failures are counted, not timed: `attempted` / `failed` of the result
//! line are the window's ops and those that errored or answered wrongly
//! (`failed_ops_share` on the `DETAIL` line); a failed op carries no
//! latency. `write_mean_ms` (the mean, deliberately: preference upserts sit
//! at ~5 ms and order writes at 130–400 ms, so a median would flip class on
//! a one-point mix change) is on the `DETAIL` line of `readwrite` and, per
//! write kind, in the traced run's `dml.*` metrics; it cannot be an
//! end-to-end metric because the read-only workloads have no value for it.
//!
//! Percentile hygiene: a 50/50 mix of a 0.1 ms and a 1 ms class gave p50
//! 0.93 ms and 0.53 ms on two identical probe runs. Op classes whose window
//! medians differ by more than 2× are distinct cost classes, and no boundary
//! between distinct cost classes may lie within 10 percentage points of a
//! reported percentile ([`stats::check_class_boundaries`]); the suite
//! asserts this from the realised op counts and class medians, and fails
//! the run otherwise. The mixes satisfy it: lookups put p50 inside the 75 %
//! class and p95 inside the 25 % class; the `analytics` cycle holds the
//! volume rollup twice so that p50 lies inside a class (cheap classes end at
//! 14 % and 29 %).
//!
//! Correctness: expected answers come from [`model::Model`], plain Rust
//! filters/joins/group-bys over the generated rows, never from the engine;
//! the model is cross-checked once per warmed op against
//! `Estocada::oracle_eval`. In the window every op checks its row count and
//! every 64th the full row multiset, outside the timed call; `readwrite`
//! keeps the model as a shadow copy, checks every read in full against it
//! and `stale_fragments(est)` empty after every write. The cache regime is
//! asserted inside the measurement: plan-cache hit ratio ≥ 0.99 and ≤ 512
//! entries on `kv_lookup_hot`, ≤ 0.01 on `lookup_cold`.
//!
//! ## Layers, their metrics, and what they should move
//!
//! Stated before measuring. With one op in flight per session a faster
//! layer saves at most its share of that op: a `chase` gain is worth ≤ ~90 %
//! on `lookup_cold` and ≤ ~10 % on `kv_lookup_hot`. The simulated store
//! latency is a floor (`stores.latency_floor_us_per_op`) that mediator work
//! cannot cut; only fewer requests or bytes can. On a "bypass" workload the
//! prediction is no change.
//!
//! | layer (module) | per-layer metrics | should move | bypass |
//! |---|---|---|---|
//! | `frontends` (`core::frontends`) | `frontends.parse_us_per_op`, `frontends.sql_catalog_us_per_op` (the catalog is rebuilt per SQL query) | `read_p50_ms`, `throughput_ops_s` @ `kv_lookup_hot` | `analytics` |
//! | `plancache` | `plancache.hit_ratio`, `plancache.entries`, `plancache.lint_hit_ratio` | `read_p50_ms` @ `lookup_cold` (0.0 today; parameterised keys would lift it) | `kv_lookup_hot` |
//! | `analyze` (`core::analyze`, `chase::wa`) | `analyze.certificate_us_per_miss` (recomputed on every miss), `analyze.deployment_ms` | `read_p50_ms` @ `lookup_cold`; `setup_s` all | `kv_lookup_hot` |
//! | `chase` (`estocada-chase`) | `chase.rewrite_us_per_miss`, `chase.{fwd,bwd}_rounds_per_rewrite`, `chase.{fwd,bwd}_tgd_fires_per_rewrite`, `chase.fwd_egd_merges_per_rewrite`, `chase.memo_hit_ratio`, `chase.universal_plan_atoms_per_rewrite`, `chase.candidates_per_rewrite`, `chase.candidate_yield` (accepted ÷ candidates) | `read_p50_ms`, `read_p95_ms`, `throughput_ops_s` @ `lookup_cold` | `kv_lookup_hot`, `analytics` |
//! | `translate` (`core::translate`, `connector`, `cost`) | `translate.us_per_op`, `translate.alternatives_per_op`, `cost.chosen_is_fastest_share` (chosen within 10 % of the fastest measured; 1 when no op offered a choice), `cost.choice_ops`, `cost.rows_qerror_p50` (`Translation.est_rows` vs actual) | `read_p50_ms` @ `kv_lookup_hot`; plan quality → `read_p50_ms` @ `analytics` | — |
//! | `engine` (`estocada-engine::vexec`) | `engine.exec_us_per_op`, `engine.runtime_self_us_per_op` (execution minus store busy time), `engine.operators_per_op`, `engine.rows_per_op`, `engine.bind_probes_per_op` | `read_p50_ms`, `read_p95_ms` @ `analytics` | `kv_lookup_hot`, `lookup_cold` |
//! | stores (`relstore`, `kvstore`, `parstore` + `simkit`) | `stores.<rel,kv,par>.{requests,tuples_out,tuples_scanned,bytes_out}_per_op`, `.busy_share`; `stores.busy_us_per_op`; `stores.latency_floor_us_per_op` (`LatencyModel::request_cost` over the counts) | `read_p50_ms` @ `analytics` (`par`, `rel`: bytes shipped), @ `kv_lookup_hot` (`kv`), reads @ `readwrite` (`rel`: an unindexed scan) | — |
//! | `dml` (`core::dml`) | `dml.{insert,delete,upsert}_ms_per_write`, `dml.store_delta_rows_per_write`, `dml.fragments_touched_per_write`, `dml.first_write_seed_s` | `throughput_ops_s` @ `readwrite`; seed → `setup_s` @ `readwrite` | the three read-only workloads |
//! | `materialize` (DDL) | `materialize.register_dataset_s`, `materialize.add_fragment_s.F1…F7`, `materialize.rows_stored_per_user_row` (space cost of overlapping fragments) | `setup_s` on every workload | steady-state metrics |
//! | `evaluator` (glue) | `evaluator.other_us_per_op` (query wall − replayed layers: report strings, lint lookup, metric snapshots), `evaluator.replay_vs_report_ratio` (replay spans ÷ the `Report`'s own timers, a sanity check) | `read_p50_ms` @ `kv_lookup_hot` | — |
//! | harness | `trace.overhead_share` | — | — |
//!
//! `doc` and `text` stores are on no chosen plan of this deployment and are
//! left out until a workload uses them. Every traced run ends with a fixed
//! write probe (insert an order, delete it, upsert a preference), so the
//! `dml` layer is measured on every workload; on the read-only ones its
//! first run seeds the maintenance state and is kept apart as
//! `dml.first_write_seed_s`.
//!
//! ## The traced run and its span file
//!
//! `--trace 1`: one session replays the same stream for `--seconds`, in
//! alternating blocks of 32 ops: plain calls (timed only) and traced ones.
//! A traced read is the real `est.query…().run()` under an `op.query` root
//! span with deltas of the plan cache, lint cache and store metrics, then an
//! `op.replay` root with child spans `frontends.parse` (⊃
//! `frontends.sql_catalog` + `frontends.parse_sql`, or
//! `frontends.doc_query`), `analyze.certificate`
//! (`est.termination_certificate()`), `evaluator.rewrite_problem` and
//! `chase.pacb_rewrite` (problem from `catalog().view_defs()`,
//! `schema().constraints`, `catalog().access_map()`; config
//! `rewrite_config()` with the certificate applied), one
//! `translate.translate` per rewriting, and `engine.execute`
//! (`execute_with` on the cheapest translation, with the store busy time as
//! a synthetic `stores.busy` child, so the span's self time is the
//! runtime's). A write is a `dml.*_rows` root span. The replayed rows must
//! equal the real call's rows, or the op counts as failed. One traced read
//! in eight also executes every other executable rewriting for the
//! cost-model check. Spans are recorded only in the suite's own files,
//! around calls into public functions; nothing inside the engine is
//! instrumented.
//!
//! The spans are kept in memory and written at exit to
//! `<target dir>/bench-trace/<workload>.json` (the directory the binary was
//! built into): `{"workload", "seed", "columns", "spans"}` with one
//! `[op, span, parent, name, start_ns, end_ns]` row per span. Spans of one
//! operation share `op` (its index in the stream); `parent` is the `span`
//! id of the span that caused it, `null` for a root; times are nanoseconds
//! since the log was created. Self time = duration − the part of the
//! interval its children cover ([`span::self_times`]). To see where a slow
//! op spent its time, take its `op.replay` row and read its children in
//! `start_ns` order.
//!
//! ## Expected order of magnitude
//!
//! The issue's sizing probe of the unmodified engine (this 2-hardware-thread
//! host, `Latencies::datacenter()`): a plan-cache hit answers a KV point
//! lookup in 55–140 µs, a miss costs 0.8–2.0 ms with ≥ 88 % of it inside
//! `pacb_rewrite`, an analytics rollup costs 5–10 ms split about evenly
//! between store time and `vexec`, and a single-row `Orders` insert costs
//! 115–190 ms (578 ms at 2× data). The suite's first runs agree: read p50
//! 0.052 ms on `kv_lookup_hot`, 0.74 ms on `lookup_cold` (certificate
//! ~0.3 ms + rewrite ~0.65 ms per miss in the traced run), 6.7 ms on
//! `analytics`; order inserts ~135 ms and deletes ~170 ms on `readwrite`
//! (~21.6 ops/s); set-up ~1 s (2 s with the first writes); peak RSS
//! ~195–230 MiB.
//!
//! ## Where this differs from the plan in the issue, and why
//!
//! The benchmark contract overrides the issue in a few places: the suite is
//! a package of its own in a directory of its own (`perfbench/`, not
//! `crates/bench/src`, which the PR may not touch); the window is 20 s in
//! five 4 s slices (92 driver runs must fit a fixed budget) and one session
//! runs each workload (see above); every workload
//! reports the same end-to-end metrics, none of which may be 0, so
//! `write_mean_ms` and `failed_ops_share` moved to the `DETAIL` line and the
//! result line's `attempted`/`failed`; the three timing metrics are corrected
//! for the host's speed (see above) because ten runs of `lookup_cold` as the
//! clock read them spread past the largest bound the contract allows; the
//! traced run replays for
//! `--seconds` rather than a fixed op count; per-store busy time is reported
//! as a share plus one total, so that no time-valued metric is identically 0
//! on a workload that bypasses the store.

#![warn(missing_docs)]

pub mod drive;
pub mod host;
pub mod json;
pub mod model;
pub mod ops;
pub mod run;
pub mod span;
pub mod stats;
pub mod trace;

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics, reported by every workload with tracing off.
pub fn end_to_end_metrics() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("throughput_ops_s", "1/s", "higher", Some(0.25)),
        def("read_p50_ms", "ms", "lower", Some(0.25)),
        def("read_p95_ms", "ms", "lower", Some(0.25)),
        def("peak_rss_mb", "MiB", "lower", Some(0.15)),
    ]
}

/// The per-layer metrics, reported by every workload's traced run.
pub fn per_layer_metrics() -> Vec<MetricDef> {
    let lower = |name: &str, unit| def(name, unit, "lower", None);
    let higher = |name: &str, unit| def(name, unit, "higher", None);
    let mut m = vec![
        lower("frontends.parse_us_per_op", "us"),
        lower("frontends.sql_catalog_us_per_op", "us"),
        higher("plancache.hit_ratio", "ratio"),
        lower("plancache.entries", "count"),
        higher("plancache.lint_hit_ratio", "ratio"),
        lower("analyze.certificate_us_per_miss", "us"),
        lower("analyze.deployment_ms", "ms"),
        lower("chase.rewrite_us_per_miss", "us"),
        lower("chase.fwd_rounds_per_rewrite", "count"),
        lower("chase.fwd_tgd_fires_per_rewrite", "count"),
        lower("chase.fwd_egd_merges_per_rewrite", "count"),
        lower("chase.bwd_rounds_per_rewrite", "count"),
        lower("chase.bwd_tgd_fires_per_rewrite", "count"),
        higher("chase.memo_hit_ratio", "ratio"),
        lower("chase.universal_plan_atoms_per_rewrite", "count"),
        lower("chase.candidates_per_rewrite", "count"),
        higher("chase.candidate_yield", "ratio"),
        lower("translate.us_per_op", "us"),
        lower("translate.alternatives_per_op", "count"),
        higher("cost.chosen_is_fastest_share", "ratio"),
        higher("cost.choice_ops", "count"),
        lower("cost.rows_qerror_p50", "ratio"),
        lower("engine.exec_us_per_op", "us"),
        lower("engine.runtime_self_us_per_op", "us"),
        lower("engine.operators_per_op", "count"),
        lower("engine.rows_per_op", "count"),
        lower("engine.bind_probes_per_op", "count"),
    ];
    for (_, store) in trace::TRACED_STORES {
        m.push(lower(&format!("stores.{store}.requests_per_op"), "count"));
        m.push(lower(&format!("stores.{store}.busy_share"), "ratio"));
        m.push(lower(&format!("stores.{store}.tuples_out_per_op"), "count"));
        m.push(lower(
            &format!("stores.{store}.tuples_scanned_per_op"),
            "count",
        ));
        m.push(lower(&format!("stores.{store}.bytes_out_per_op"), "bytes"));
    }
    m.extend([
        lower("stores.busy_us_per_op", "us"),
        lower("stores.latency_floor_us_per_op", "us"),
        lower("dml.insert_ms_per_write", "ms"),
        lower("dml.delete_ms_per_write", "ms"),
        lower("dml.upsert_ms_per_write", "ms"),
        lower("dml.store_delta_rows_per_write", "count"),
        lower("dml.fragments_touched_per_write", "count"),
        lower("dml.first_write_seed_s", "s"),
        lower("materialize.register_dataset_s", "s"),
    ]);
    for i in 1..=drive::fragment_specs().len() {
        m.push(lower(&format!("materialize.add_fragment_s.F{i}"), "s"));
    }
    m.extend([
        lower("materialize.rows_stored_per_user_row", "ratio"),
        lower("evaluator.other_us_per_op", "us"),
        lower("evaluator.replay_vs_report_ratio", "ratio"),
        lower("trace.overhead_share", "ratio"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;
    use crate::ops::Workload;

    fn declared(list: &Json) -> Vec<MetricDef> {
        list.as_arr()
            .expect("a metric list")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("a string field");
                MetricDef {
                    name: field("name").to_string(),
                    unit: Box::leak(field("unit").to_string().into_boxed_str()),
                    better: Box::leak(field("better").to_string().into_boxed_str()),
                    bound: m.get("bound").and_then(Json::as_f64),
                }
            })
            .collect()
    }

    /// `BENCHMARK.json` and the suite must name the same workloads and
    /// metrics, with the same units and bounds.
    #[test]
    fn benchmark_json_matches_the_suite() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let b = Json::parse(&text).expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = b
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = Workload::ALL.iter().map(Workload::name).collect();
        assert_eq!(workloads, ours);
        assert_eq!(declared(b.get("end_to_end").unwrap()), end_to_end_metrics());
        assert_eq!(declared(b.get("per_layer").unwrap()), per_layer_metrics());
    }

    #[test]
    fn metric_names_are_unique_and_well_formed() {
        let all: Vec<MetricDef> = end_to_end_metrics()
            .into_iter()
            .chain(per_layer_metrics())
            .collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "duplicate metric name");
        assert!(per_layer_metrics().len() <= 128);
        for m in &all {
            assert!(m.name.len() <= 64, "{} is too long", m.name);
            assert!(m
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(m.unit.len() <= 16);
            assert!(m.better == "lower" || m.better == "higher");
        }
    }
}
