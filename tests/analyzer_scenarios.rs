//! The static analyzer against real deployments (PR 8) — the test behind
//! the CI `analyze` job:
//!
//! - every builtin scenario deployment builds its DDL under
//!   `ValidationMode::Strict` and analyzes **clean** (zero diagnostics,
//!   warnings included);
//! - a planted cyclic TGD pair proves the job bites: under `Strict` the
//!   next `add_fragment`/`add_constraint` is rejected with `E001`
//!   carrying the witness cycle, while with validation `Off` the same
//!   set still terminates at query time via the chase budget guard,
//!   whose error message points at the certificate API;
//! - an EGD equating a variable its premise does not bind is rejected with
//!   `E003` in every validation mode, and the engine keeps answering.

mod common;

use estocada::analyze::analyze_deployment;
use estocada::frontends::lint_sql;
use estocada::{
    Code, Dataset, Error, Estocada, FragmentSpec, Latencies, Severity, TableData, ValidationMode,
};
use estocada_chase::ChaseConfig;
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{Atom, Constraint, Egd, Term, Tgd, Value};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_kv_migrated, deploy_materialized_join, pref_sql,
};

fn small() -> Marketplace {
    generate(common::cfg(40, 25, 120, 200, 7))
}

#[test]
fn builtin_deployments_analyze_clean_under_strict() {
    let m = small();
    let deployments: Vec<(&str, Estocada)> = vec![
        ("baseline", deploy_baseline(&m, Latencies::zero())),
        ("kv_migrated", deploy_kv_migrated(&m, Latencies::zero())),
        (
            "materialized_join",
            deploy_materialized_join(&m, Latencies::zero()),
        ),
    ];
    for (name, est) in deployments {
        assert!(
            matches!(est.validation(), ValidationMode::Strict),
            "{name}: builtin deployments deploy under Strict"
        );
        let diags = est.analyze();
        assert!(
            diags.is_empty(),
            "{name}: expected zero diagnostics (warnings included), got {diags:?}"
        );
    }
}

/// The acceptance pin for the certificate lattice. Every builtin
/// deployment declares keys on its sales tables, so the combined
/// constraint set mixes key EGDs with the existential backward view
/// TGDs — exactly the shape the pre-lattice analyzer degraded to
/// `Unknown` (EGDs present, no EGD reasoning). EGD-aware contraction
/// recognizes key equalities as position-preserving no-ops, certifies
/// `WeaklyAcyclic`, and the budget-free chase of the certified set
/// reproduces the budget-guarded fixpoint bit-identically.
#[test]
fn key_egd_deployments_certify_weakly_acyclic_and_chase_budget_free() {
    use estocada_chase::testkit::dump_state;
    use estocada_chase::{chase, ChaseConfig, Elem, Instance};
    use estocada_pivot::Symbol;

    let m = small();
    let mut any_existential = false;
    for (name, est) in [
        ("baseline", deploy_baseline(&m, Latencies::zero())),
        ("kv_migrated", deploy_kv_migrated(&m, Latencies::zero())),
        (
            "materialized_join",
            deploy_materialized_join(&m, Latencies::zero()),
        ),
    ] {
        let cs = est.constraint_set();
        assert!(
            cs.iter().any(|c| matches!(c, Constraint::Egd(_))),
            "{name}: builtin deployments carry declared-key EGDs"
        );
        any_existential |= cs
            .iter()
            .any(|c| matches!(c, Constraint::Tgd(t) if !t.existentials().is_empty()));

        let cert = est.termination_certificate();
        assert_eq!(
            cert.rung(),
            "weakly acyclic",
            "{name}: key EGDs must not degrade the certificate"
        );
        assert!(cert.guarantees_termination(), "{name}");

        // Differential: chase a seed instance over the deployment's own
        // constraint set, budget-guarded vs certificate-lifted.
        let seed = |inst: &mut Instance| {
            for uid in 0..3i64 {
                inst.insert(
                    Symbol::intern("Users"),
                    vec![Elem::of(uid), Elem::of(100 + uid), Elem::of(1i64)],
                );
                inst.insert(
                    Symbol::intern("Prefs"),
                    vec![
                        Elem::of(uid),
                        Elem::of(200 + uid),
                        Elem::of(300 + uid),
                        Elem::of(uid % 2),
                    ],
                );
                inst.insert(
                    Symbol::intern("Orders"),
                    vec![
                        Elem::of(500 + uid),
                        Elem::of(uid),
                        Elem::of(700 + uid),
                        Elem::of(800 + uid),
                        Elem::of(2 * uid),
                    ],
                );
            }
        };
        let guarded_cfg = ChaseConfig::default();
        let mut guarded = Instance::new();
        seed(&mut guarded);
        let stats = chase(&mut guarded, &cs, &guarded_cfg)
            .unwrap_or_else(|e| panic!("{name}: guarded chase must reach fixpoint: {e:?}"));
        assert!(stats.rounds < guarded_cfg.max_rounds, "{name}");

        let free_cfg = guarded_cfg.with_certificate(&cert);
        assert_eq!(
            free_cfg.max_rounds,
            usize::MAX,
            "{name}: the certificate lifts the budget guard"
        );
        let mut free = Instance::new();
        seed(&mut free);
        chase(&mut free, &cs, &free_cfg)
            .unwrap_or_else(|e| panic!("{name}: budget-free chase must terminate: {e:?}"));
        assert_eq!(
            dump_state(&guarded),
            dump_state(&free),
            "{name}: bit-identical fixpoint with or without the guard"
        );
    }
    assert!(
        any_existential,
        "at least one builtin deployment must mix key EGDs with \
         existential view TGDs (the shape plain WA cannot certify)"
    );
}

/// A two-table engine with no declared keys (so the planted TGD cycle is
/// the only constraint in play).
fn tiny_engine() -> Estocada {
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "d",
        vec![
            TableData {
                encoding: TableEncoding::new("T", &["k", "v"], None),
                rows: vec![vec![Value::Int(1), Value::Int(10)]],
                text_columns: vec![],
            },
            TableData {
                encoding: TableEncoding::new("U", &["k", "w"], None),
                rows: vec![vec![Value::Int(1), Value::Int(20)]],
                text_columns: vec![],
            },
        ],
    ))
    .unwrap();
    est
}

/// The planted non-terminating pair: `T(x, y) → ∃z. U(y, z)` and
/// `U(x, y) → ∃z. T(y, z)` — each feeds the other's premise through an
/// existential position.
fn cyclic_pair() -> (Constraint, Constraint) {
    let fwd = Tgd::new(
        "cyc_fwd",
        vec![Atom::new("T", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("U", vec![Term::var(1), Term::var(2)])],
    );
    let bwd = Tgd::new(
        "cyc_bwd",
        vec![Atom::new("U", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("T", vec![Term::var(1), Term::var(2)])],
    );
    (fwd.into(), bwd.into())
}

#[test]
fn strict_rejects_planted_cycle_with_e001_witness() {
    let mut est = tiny_engine();
    // Default mode is Warn: the cyclic pair is analyzed but accepted.
    let (fwd, bwd) = cyclic_pair();
    est.add_constraint(fwd).unwrap();
    est.add_constraint(bwd).unwrap();

    est.set_validation(ValidationMode::Strict);
    let err = est
        .add_fragment(FragmentSpec::NativeTables {
            dataset: "d".into(),
            only: None,
        })
        .expect_err("Strict must reject DDL on a non-terminating constraint set");
    let Error::Invalid(diags) = err else {
        panic!("expected Error::Invalid, got: {err}");
    };
    let e001 = diags
        .iter()
        .find(|d| d.code == Code::NonTerminatingTgdCycle)
        .expect("E001 present");
    assert_eq!(e001.severity, Severity::Error);
    let witness = e001.witness.as_deref().expect("E001 carries the cycle");
    assert!(
        witness.contains("T.") && witness.contains("U."),
        "witness must walk the planted cycle, got: {witness}"
    );
    // The typed error renders its diagnostics.
    let rendered = format!("{}", Error::Invalid(diags));
    assert!(rendered.contains("E001"), "got: {rendered}");
}

#[test]
fn strict_rejects_cycle_at_add_constraint_leaving_schema_untouched() {
    let mut est = tiny_engine();
    est.set_validation(ValidationMode::Strict);
    let (fwd, bwd) = cyclic_pair();
    // The first TGD alone is weakly acyclic — accepted.
    est.add_constraint(fwd).unwrap();
    let n = est.schema().constraints.len();
    let err = est.add_constraint(bwd).expect_err("closing the cycle");
    assert!(matches!(err, Error::Invalid(_)));
    assert_eq!(
        est.schema().constraints.len(),
        n,
        "rejected constraint must not stick"
    );
}

#[test]
fn validation_off_still_terminates_via_budget_guard() {
    let mut est = tiny_engine();
    est.set_validation(ValidationMode::Off);
    let (fwd, bwd) = cyclic_pair();
    est.add_constraint(fwd).unwrap();
    est.add_constraint(bwd).unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .expect("validation off: DDL goes through");

    // Tighten the budgets so the guard trips fast; with validation off
    // no certificate lifts them.
    let mut cfg = est.rewrite_config();
    cfg.chase.max_rounds = 50;
    cfg.chase.max_facts = 2_000;
    est.set_rewrite_config(cfg);

    let err = est
        .query_sql("SELECT t.v FROM T t WHERE t.k = 1")
        .expect_err("divergent set must exhaust the chase budget");
    let msg = format!("{err}");
    assert!(
        msg.contains("budget"),
        "expected a budget-guard error, got: {msg}"
    );
    assert!(
        msg.contains("certify"),
        "budget error must point at the certificate API, got: {msg}"
    );
}

/// `T(x, y) → y = z`: the premise binds no `z`, so the chase would have no
/// image to merge. Every validation mode rejects it with `E003` naming the
/// EGD and the variable, before any analysis or chase; the schema keeps
/// what it had and the next query answers. The analyzer, handed a schema
/// that holds the EGD anyway, reports the same finding and chases without it.
#[test]
fn egd_with_an_unbound_equality_variable_is_rejected_in_every_mode() {
    let mut est = tiny_engine();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    let bad: Constraint = Egd::new(
        "dangling",
        vec![Atom::new("T", vec![Term::var(0), Term::var(1)])],
        (Term::var(1), Term::var(2)),
    )
    .into();
    let before = est.schema().constraints.len();
    let is_finding = |d: &estocada::Diagnostic| {
        d.code == Code::UnboundHeadVariable && d.target == "dangling" && d.message.contains("?2")
    };
    for mode in [
        ValidationMode::Warn,
        ValidationMode::Strict,
        ValidationMode::Off,
    ] {
        est.set_validation(mode);
        let err = est
            .add_constraint(bad.clone())
            .expect_err("an unbound equality variable must be rejected");
        let Error::Invalid(diags) = err else {
            panic!("{mode:?}: expected Error::Invalid, got: {err}");
        };
        assert_eq!(diags.len(), 1, "{mode:?}: {diags:?}");
        assert!(is_finding(&diags[0]), "{mode:?}: {diags:?}");
        assert_eq!(est.schema().constraints.len(), before, "{mode:?}");
    }

    let mut schema = est.schema().clone();
    schema.constraints.push(bad);
    let diags = analyze_deployment(&schema, est.catalog(), &ChaseConfig::default());
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(is_finding(&diags[0]), "{diags:?}");

    let rows = est
        .query_sql("SELECT t.v FROM T t WHERE t.k = 1")
        .unwrap()
        .rows;
    assert_eq!(rows, vec![vec![Value::Int(10)]]);
}

#[test]
fn certificate_lift_reaches_the_backchase() {
    // A certified deployment chases budget-free in *every* chase of a
    // rewrite, the backchase included: a one-round budget, which no chase
    // that fires anything can meet, must not be felt.
    let mut est = deploy_kv_migrated(&small(), Latencies::zero());
    assert!(est.termination_certificate().guarantees_termination());
    let mut cfg = est.rewrite_config();
    cfg.chase.max_rounds = 1;
    est.set_rewrite_config(cfg);

    let sql = pref_sql(3);
    let parsed = estocada::frontends::parse_sql(&sql, &est.sql_catalog()).unwrap();
    let mut want = est.oracle_eval(&parsed.cq);
    let mut got = est.query_sql(&sql).expect("budget guard tripped").rows;
    want.sort();
    got.sort();
    assert!(!want.is_empty());
    assert_eq!(got, want);
}

#[test]
fn frontend_lint_flags_cartesian_and_dangling_references() {
    let est = tiny_engine();
    let catalog = est.sql_catalog();
    // T and U share no join column here: a cartesian product (W003).
    let diags = lint_sql(
        "SELECT t.v, u.w FROM T t, U u WHERE t.k = 1 AND u.w = 2",
        &catalog,
        est.schema(),
    )
    .unwrap();
    assert!(
        diags.iter().any(|d| d.code == Code::CartesianProductBody),
        "got: {diags:?}"
    );
    // A clean join lints clean.
    let diags = lint_sql(
        "SELECT t.v, u.w FROM T t, U u WHERE t.k = u.k",
        &catalog,
        est.schema(),
    )
    .unwrap();
    assert!(diags.is_empty(), "got: {diags:?}");
}

#[test]
fn report_carries_query_diagnostics_and_caches_them() {
    let mut est = tiny_engine();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    // Clean query: empty diagnostics section, Display unchanged.
    let r = est.query_sql("SELECT t.v FROM T t WHERE t.k = 1").unwrap();
    assert!(r.report.diagnostics.is_empty());
    assert!(!format!("{}", r.report).contains("diagnostics:"));

    // Cartesian query: W003 lands in the report and its Display.
    let r = est
        .query_sql("SELECT t.v, u.w FROM T t, U u WHERE t.k = 1 AND u.w = 2")
        .unwrap();
    assert!(r
        .report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::CartesianProductBody));
    assert!(format!("{}", r.report).contains("W003"));
}

/// Aggregate queries run the same query lints on their conjunctive core:
/// a grouped cross join draws `W003` (through `lint_sql` and through the
/// executed query's report), a properly joined aggregate lints clean, and
/// HAVING over a non-grouped bare column is a typed parse error — never a
/// panic or a silent empty result.
#[test]
fn aggregate_queries_lint_and_report_diagnostics() {
    let m = small();
    let est = deploy_baseline(&m, Latencies::zero());
    let catalog = est.sql_catalog();
    let cross = "SELECT u.tier, COUNT(p.pid) FROM Users u, Products p GROUP BY u.tier";
    let diags = lint_sql(cross, &catalog, est.schema()).unwrap();
    assert!(
        diags
            .iter()
            .any(|d| d.code == Code::CartesianProductBody && d.severity == Severity::Warning),
        "got: {diags:?}"
    );
    // The cross join is legal (warned, not rejected): it executes, and the
    // warning lands in the report's diagnostics.
    let r = est.query_sql(cross).unwrap();
    assert!(!r.rows.is_empty());
    assert!(r
        .report
        .diagnostics
        .iter()
        .any(|d| d.code == Code::CartesianProductBody));

    // A joined aggregate lints clean.
    let diags = lint_sql(
        "SELECT u.tier, COUNT(o.oid) FROM Users u, Orders o WHERE u.uid = o.uid \
         GROUP BY u.tier HAVING COUNT(o.oid) > 1",
        &catalog,
        est.schema(),
    )
    .unwrap();
    assert!(diags.is_empty(), "got: {diags:?}");

    // Summing a measure without a key among the grouped/aggregated columns
    // ranges over the distinct (category, amount) pairs: W007 says so —
    // as a warning, so the `Strict` deployment still answers.
    let loose = "SELECT o.category, SUM(o.amount) FROM Orders o GROUP BY o.category";
    let r = est.query_sql(loose).expect("a warning never rejects");
    let w007: Vec<_> = (r.report.diagnostics.iter())
        .filter(|d| d.code == Code::DistinctCoreAggregate)
        .collect();
    assert_eq!(w007.len(), 1, "got: {:?}", r.report.diagnostics);
    assert_eq!(w007[0].severity, Severity::Warning);
    // The plain query over the same core shares the rewriting, not the
    // lint: the lint cache keys the aggregate apart.
    let plain = est
        .query_sql("SELECT o.category, o.amount FROM Orders o")
        .unwrap();
    assert!(plain.report.plan_cache.is_some_and(|pc| pc.hit));
    assert!(
        plain.report.diagnostics.is_empty(),
        "got: {:?}",
        plain.report.diagnostics
    );
    assert!(est.query_sql(loose).unwrap().report.lint_cache.unwrap().hit);

    // HAVING referencing a non-aggregated, non-grouped column: typed error.
    let err = est
        .query_sql("SELECT u.tier FROM Users u GROUP BY u.tier HAVING u.name = 'x'")
        .expect_err("bare non-grouped column in HAVING must be rejected");
    assert!(matches!(err, Error::Parse(_)), "got {err:?}");
}
