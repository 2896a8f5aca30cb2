//! Failure-injection and edge-case tests of the mediator: malformed
//! queries, untranslatable rewritings, empty datasets, unicode payloads,
//! and error surfacing.

use estocada::{Dataset, DocData, Error, Estocada, FragmentSpec, TableData};
use estocada_pivot::encoding::document::{PatternStep, TreePattern};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{CqBuilder, Value};

fn tiny() -> Estocada {
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "d",
        vec![TableData {
            encoding: TableEncoding::new("T", &["k", "v"], Some(&["k"])),
            rows: vec![
                vec![Value::Int(1), Value::str("héllo wörld")],
                vec![Value::Int(2), Value::str("")],
            ],
            text_columns: vec![],
        }],
    ))
    .unwrap();
    est
}

#[test]
fn parse_errors_are_reported_not_panicked() {
    let est = tiny();
    for bad in [
        "",
        "SELECT",
        "SELECT x FROM T t",                            // unqualified column
        "SELECT t.k FROM T",                            // missing alias
        "SELECT t.k FROM T t WHERE t.k =",              // dangling operator
        "SELECT t.k FROM T t WHERE t.k ~ 1",            // unknown operator
        "SELECT t.k FROM T t WHERE CONTAINS(t.v, 'x')", // no text columns
    ] {
        let r = est.query_sql(bad);
        assert!(
            matches!(r, Err(Error::Parse(_)) | Err(Error::UnknownName(_))),
            "expected parse/name error for {bad:?}, got {r:?}"
        );
    }
}

#[test]
fn unknown_fragment_drop_errors() {
    let mut est = tiny();
    assert!(matches!(
        est.drop_fragment("nope"),
        Err(Error::UnknownName(_))
    ));
}

#[test]
fn empty_dataset_round_trips() {
    let mut est = Estocada::in_memory();
    est.register_dataset(Dataset::relational(
        "empty",
        vec![TableData {
            encoding: TableEncoding::new("E", &["a"], Some(&["a"])),
            rows: vec![],
            text_columns: vec![],
        }],
    ))
    .unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "empty".into(),
        only: None,
    })
    .unwrap();
    let r = est.query_sql("SELECT e.a FROM E e").unwrap();
    assert!(r.rows.is_empty());
}

#[test]
fn unicode_and_empty_strings_survive_all_stores() {
    let mut est = tiny();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("TKV")
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .build(),
    })
    .unwrap();
    let r = est.query_sql("SELECT t.v FROM T t WHERE t.k = 1").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("héllo wörld")]]);
    assert!(r.report.delegated[0].starts_with("key-value:"));
    let r = est.query_sql("SELECT t.v FROM T t WHERE t.k = 2").unwrap();
    assert_eq!(r.rows, vec![vec![Value::str("")]]);
}

#[test]
fn doc_pattern_against_relational_dataset_has_no_rewriting() {
    let mut est = tiny();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    // Pattern over a non-existent document collection: the pivot atoms
    // reference unknown relations, so no view can cover them.
    let pattern = TreePattern::new("Ghost").with_step(PatternStep::child("user").bind("u"));
    let r = est.query_doc(&pattern, &["u"]);
    assert!(matches!(r, Err(Error::NoRewriting { .. })), "got {r:?}");
}

#[test]
fn duplicate_fragment_view_names_panic_cleanly() {
    let mut est = tiny();
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("DupKV")
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .build(),
    })
    .unwrap();
    // Registering the same relation name twice is a programming error the
    // catalog refuses loudly.
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = est.add_fragment(FragmentSpec::KeyValue {
            view: CqBuilder::new("DupKV")
                .head_vars(["k", "v"])
                .atom("T", |a| a.v("k").v("v"))
                .build(),
        });
    }));
    assert!(result.is_err());
}

#[test]
fn rejected_fragment_specs_leave_no_orphan_containers() {
    let mut est = tiny();
    let view = |name: &str| {
        CqBuilder::new(name)
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .build()
    };
    let bad = || vec!["nope".to_string()];
    let rejected = [
        FragmentSpec::Table {
            view: view("TT"),
            index_on: bad(),
        },
        FragmentSpec::DocRows {
            view: view("TD"),
            index_on: bad(),
        },
        FragmentSpec::ParRows {
            view: view("TP"),
            index_on: bad(),
            partitions: 2,
        },
    ];
    for spec in rejected {
        let kind = spec.kind();
        let r = est.add_fragment(spec);
        assert!(matches!(r, Err(Error::BadFragment(_))), "{kind}: got {r:?}");
        assert!(
            est.stores.dump().is_empty(),
            "{kind}: a rejected spec left {:?} behind",
            est.stores.dump()
        );
        assert!(est.fragments().is_empty());
    }
    // The corrected spec stores every document once, and the rejected
    // attempts consumed no fragment id.
    let id = est.add_fragment(FragmentSpec::DocRows {
        view: view("TD"),
        index_on: vec!["k".into()],
    });
    assert_eq!(id.unwrap(), "F1");
    assert_eq!(est.stores.doc.collection_names(), ["TD"]);
    assert_eq!(est.stores.doc.len("TD"), 2);
    assert!(est.stores.rel.table_names().is_empty());
}

#[test]
fn deep_document_nesting_is_encoded_and_queried() {
    let mut est = Estocada::in_memory();
    // 6 levels of nesting.
    let mut body = Value::object([("leaf", Value::Int(42))]);
    for i in (0..6).rev() {
        body = Value::object_owned([(format!("level{i}"), body)]);
    }
    est.register_dataset(Dataset::documents(
        "Deep",
        vec![DocData {
            id: Value::Id(0),
            name: "deep".into(),
            body,
        }],
    ))
    .unwrap();
    est.add_fragment(FragmentSpec::NativeDoc {
        dataset: "Deep".into(),
    })
    .unwrap();
    let pattern = TreePattern::new("Deep").with_step(PatternStep::descendant("leaf").bind("x"));
    let r = est.query_doc(&pattern, &["x"]).unwrap();
    assert_eq!(r.rows, vec![vec![Value::Int(42)]]);
}

#[test]
fn residual_on_projected_away_variable_is_untranslatable() {
    use estocada::Residual;
    use estocada_pivot::CmpOp;
    let mut est = tiny();
    est.add_fragment(FragmentSpec::KeyValue {
        view: CqBuilder::new("OnlyK")
            .head_vars(["k"])
            .atom("T", |a| a.v("k").v("v"))
            .build(),
    })
    .unwrap();
    // Query: T(k, v) with k=1, asking k, but residual on v — the only
    // fragment projects v away, so every rewriting fails translation or
    // rewriting entirely.
    let q = CqBuilder::new("Q")
        .head_vars(["k"])
        .atom("T", |a| a.v("k").v("v"))
        .build();
    let v_var = q.body[0].args[1].as_var().unwrap();
    let r = est.query_cq(
        q,
        vec!["k".into()],
        vec![Residual {
            var: v_var,
            op: CmpOp::Gt,
            value: Value::Int(0),
        }],
    );
    assert!(r.is_err(), "got {r:?}");
}

#[test]
fn query_over_two_datasets_in_one_sql() {
    // The pivot schema is global: FROM may mix tables of different
    // datasets (the GAV-combination case of §III handled natively).
    let mut est = tiny();
    est.register_dataset(Dataset::relational(
        "d2",
        vec![TableData {
            encoding: TableEncoding::new("U", &["k", "w"], Some(&["k"])),
            rows: vec![vec![Value::Int(1), Value::Int(100)]],
            text_columns: vec![],
        }],
    ))
    .unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d2".into(),
        only: None,
    })
    .unwrap();
    let r = est
        .query_sql("SELECT t.v, u.w FROM T t, U u WHERE t.k = u.k")
        .unwrap();
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][1], Value::Int(100));
}

#[test]
fn advisor_budget_limits_recommendations() {
    use estocada::advisor::{recommend_under_budget, Action, WorkloadQuery};
    let mut est = tiny();
    est.add_fragment(FragmentSpec::NativeTables {
        dataset: "d".into(),
        only: None,
    })
    .unwrap();
    let catalog = est.sql_catalog();
    let p = estocada::frontends::parse_sql("SELECT t.v FROM T t WHERE t.k = 1", &catalog).unwrap();
    let workload = vec![WorkloadQuery {
        name: "w".into(),
        cq: p.cq,
        head_names: p.head_names,
        residuals: p.residuals,
        weight: 100.0,
    }];
    // Generous budget: the candidate fits.
    let recs = recommend_under_budget(&est, &workload, 1_000_000).unwrap();
    assert!(recs.iter().any(|r| matches!(r.action, Action::Add(_))));
    // Zero budget: only drop suggestions can remain.
    let recs = recommend_under_budget(&est, &workload, 0).unwrap();
    assert!(recs.iter().all(|r| matches!(r.action, Action::Drop(_))));
}
