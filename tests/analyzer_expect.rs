//! Committed-snapshot test behind the CI `analyze` job: every builtin
//! scenario deployment and one planted fixture per lattice rung /
//! diagnostic code is analyzed, and the rendered report must match
//! `tests/snapshots/analyze_expect.txt` byte for byte.
//!
//! The snapshot pins, in one reviewable artifact:
//!
//! - the **certificate rung** of each builtin deployment (all three mix
//!   declared-key EGDs with view TGDs and must certify `weakly acyclic`
//!   — a downgrade to `unknown` is a regression the diff makes loud) and
//!   of a planted feed/pin family that only `stratified` certifies;
//! - the **diagnostic surface**: exact `Display` output for `E001`,
//!   `E005`, `W001` (same-store and cross-store), `W002`, `W006` and the
//!   query-level `W007` on fixtures small enough to review by hand.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! UPDATE_EXPECT=1 cargo test --test analyzer_expect
//! ```

mod common;

use estocada::analyze::analyze_deployment;
use estocada::catalog::{Catalog, FragmentMeta, FragmentSpec};
use estocada::frontends::lint_sql;
use estocada::{Estocada, Latencies, SystemId};
use estocada_chase::{certify, ChaseConfig};
use estocada_pivot::{Atom, Cq, CqBuilder, Egd, RelationDecl, Schema, Term, Tgd, Value};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::scenarios::{
    deploy_baseline, deploy_kv_migrated, deploy_materialized_join,
};
use std::fmt::Write as _;
use std::path::Path;

fn market() -> Marketplace {
    generate(common::cfg(40, 25, 120, 200, 7))
}

fn schema_with(rels: &[(&str, &[&str])]) -> Schema {
    let mut s = Schema::new();
    for (name, cols) in rels {
        s.add_relation(RelationDecl::new(*name, cols));
    }
    s
}

fn kv_meta(id: &str, view: Cq) -> FragmentMeta {
    FragmentMeta {
        id: id.to_string(),
        system: SystemId::KeyValue,
        spec: FragmentSpec::KeyValue { view },
        relations: Vec::new(),
        stats: Vec::new(),
        running: Vec::new(),
        high_water: 0,
        credentials: String::new(),
        use_count: 0.into(),
    }
}

fn par_meta(id: &str, view: Cq) -> FragmentMeta {
    FragmentMeta {
        id: id.to_string(),
        system: SystemId::Parallel,
        spec: FragmentSpec::ParRows {
            view,
            index_on: Vec::new(),
            partitions: 0,
        },
        relations: Vec::new(),
        stats: Vec::new(),
        running: Vec::new(),
        high_water: 0,
        credentials: String::new(),
        use_count: 0.into(),
    }
}

fn t_view(name: &str) -> Cq {
    CqBuilder::new(name)
        .head_vars(["k", "v"])
        .atom("T", |a| a.v("k").v("v"))
        .build()
}

fn section(out: &mut String, title: &str, schema: &Schema, catalog: &Catalog) {
    let combined = estocada::analyze::combined_constraints(schema, catalog, None);
    let cert = certify(&combined);
    writeln!(out, "== fixture {title} ==").unwrap();
    writeln!(out, "certificate: {cert}").unwrap();
    let diags = analyze_deployment(schema, catalog, &ChaseConfig::default());
    if diags.is_empty() {
        writeln!(out, "diagnostics: (none)").unwrap();
    } else {
        for d in &diags {
            writeln!(out, "{d}").unwrap();
        }
    }
    writeln!(out).unwrap();
}

fn render() -> String {
    let mut out = String::new();
    writeln!(
        out,
        "# Deployment-analyzer expectations. Regenerate with:\n\
         #   UPDATE_EXPECT=1 cargo test --test analyzer_expect\n"
    )
    .unwrap();

    // --- builtin scenario deployments --------------------------------
    let m = market();
    let deployments: Vec<(&str, Estocada)> = vec![
        ("baseline", deploy_baseline(&m, Latencies::zero())),
        ("kv_migrated", deploy_kv_migrated(&m, Latencies::zero())),
        (
            "materialized_join",
            deploy_materialized_join(&m, Latencies::zero()),
        ),
    ];
    for (name, est) in &deployments {
        writeln!(out, "== deployment {name} ==").unwrap();
        writeln!(out, "certificate: {}", est.termination_certificate()).unwrap();
        let diags = est.analyze();
        if diags.is_empty() {
            writeln!(out, "diagnostics: (none)").unwrap();
        } else {
            for d in &diags {
                writeln!(out, "{d}").unwrap();
            }
        }
        writeln!(out).unwrap();
    }

    // --- W007: an aggregate over a core that identifies no row --------
    writeln!(out, "== fixture distinct-core-aggregate (W007) ==").unwrap();
    let est = &deployments[0].1;
    for sql in [
        "SELECT o.category, SUM(o.amount) FROM Orders o GROUP BY o.category",
        "SELECT o.category, COUNT(o.oid), SUM(o.amount) FROM Orders o GROUP BY o.category",
    ] {
        writeln!(out, "query: {sql}").unwrap();
        let diags = lint_sql(sql, &est.sql_catalog(), est.schema()).expect("parse");
        if diags.is_empty() {
            writeln!(out, "diagnostics: (none)").unwrap();
        }
        for d in &diags {
            writeln!(out, "{d}").unwrap();
        }
    }
    writeln!(out).unwrap();

    // --- E001: the planted divergent pair ----------------------------
    let mut schema = schema_with(&[("T", &["k", "v"]), ("U", &["k", "w"])]);
    schema.add_constraint(Tgd::new(
        "cyc_fwd",
        vec![Atom::new("T", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("U", vec![Term::var(1), Term::var(2)])],
    ));
    schema.add_constraint(Tgd::new(
        "cyc_bwd",
        vec![Atom::new("U", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("T", vec![Term::var(1), Term::var(2)])],
    ));
    section(&mut out, "planted-cycle (E001)", &schema, &Catalog::new());

    // --- W006: EGD contraction blocks certification ------------------
    let mut schema = schema_with(&[("A", &["a"]), ("B", &["k", "v"])]);
    schema.add_constraint(Tgd::new(
        "t",
        vec![Atom::new("A", vec![Term::var(0)])],
        vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
    ));
    schema.add_constraint(Tgd::new(
        "t2",
        vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("A", vec![Term::var(0)])],
    ));
    schema.add_constraint(Egd::new(
        "e",
        vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
        (Term::var(0), Term::var(1)),
    ));
    section(
        &mut out,
        "egd-contraction-downgrade (W006)",
        &schema,
        &Catalog::new(),
    );

    // --- W002: EGD implied through EGD-merge reasoning ---------------
    let mut schema = schema_with(&[("R", &["k", "v", "w"]), ("S", &["k"])]);
    schema.add_constraint(Egd::new(
        "key",
        vec![
            Atom::new("R", vec![Term::var(0), Term::var(1), Term::var(2)]),
            Atom::new("R", vec![Term::var(0), Term::var(3), Term::var(4)]),
        ],
        (Term::var(1), Term::var(3)),
    ));
    schema.add_constraint(Egd::new(
        "key_guarded",
        vec![
            Atom::new("R", vec![Term::var(0), Term::var(1), Term::var(2)]),
            Atom::new("R", vec![Term::var(0), Term::var(3), Term::var(4)]),
            Atom::new("S", vec![Term::var(0)]),
        ],
        (Term::var(1), Term::var(3)),
    ));
    section(
        &mut out,
        "redundant-key-egd (W002)",
        &schema,
        &Catalog::new(),
    );

    // --- E005: certainly-unsatisfiable constraint body ---------------
    let mut schema = schema_with(&[("Flag", &["f"]), ("Two", &["t"]), ("Out", &["o"])]);
    schema.add_constraint(Egd::new(
        "to_one",
        vec![Atom::new("Flag", vec![Term::var(0)])],
        (Term::var(0), Term::Const(Value::Int(1))),
    ));
    schema.add_constraint(Egd::new(
        "to_two",
        vec![Atom::new("Two", vec![Term::var(0)])],
        (Term::var(0), Term::Const(Value::Int(2))),
    ));
    schema.add_constraint(Tgd::new(
        "dead",
        vec![
            Atom::new("Flag", vec![Term::var(0)]),
            Atom::new("Two", vec![Term::var(0)]),
        ],
        vec![Atom::new("Out", vec![Term::var(0)])],
    ));
    section(
        &mut out,
        "unsatisfiable-body (E005)",
        &schema,
        &Catalog::new(),
    );

    // --- the stratified rung: a fragment over a feed/pin/derive set ---
    let mut schema = schema_with(&[("A", &["a"]), ("B", &["k", "v"]), ("C", &["c"])]);
    schema.add_constraint(Tgd::new(
        "feed",
        vec![Atom::new("A", vec![Term::var(0)])],
        vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
    ));
    schema.add_constraint(Egd::new(
        "pin",
        vec![
            Atom::new("B", vec![Term::var(0), Term::var(1)]),
            Atom::new("A", vec![Term::var(0)]),
        ],
        (Term::var(1), Term::var(0)),
    ));
    schema.add_constraint(Tgd::new(
        "derive",
        vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("C", vec![Term::var(1)])],
    ));
    let mut catalog = Catalog::new();
    catalog.add(kv_meta(
        "FSpan",
        CqBuilder::new("Span")
            .head_vars(["k", "v"])
            .atom("B", |a| a.v("k").v("v"))
            .atom("C", |a| a.v("v"))
            .build(),
    ));
    section(&mut out, "stratified-rung", &schema, &catalog);

    // --- W001: same-store and cross-store subsumption ----------------
    let schema = schema_with(&[("T", &["k", "v"])]);
    let mut catalog = Catalog::new();
    catalog.add(kv_meta("F0", t_view("V0")));
    catalog.add(kv_meta("F1", t_view("V1"))); // same store as F0
    catalog.add(par_meta("F2", t_view("V2"))); // cross-store mirror of F0
    section(&mut out, "subsumed-fragments (W001)", &schema, &catalog);

    out
}

#[test]
fn analyzer_report_matches_committed_snapshot() {
    let got = render();
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/analyze_expect.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&path, &got).expect("write snapshot");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing snapshot {}: {e}\nrun: UPDATE_EXPECT=1 cargo test --test analyzer_expect",
            path.display()
        )
    });
    assert_eq!(
        got, want,
        "analyzer output drifted from the committed snapshot; if the \
         change is intentional, regenerate with \
         UPDATE_EXPECT=1 cargo test --test analyzer_expect and review the diff"
    );
}
