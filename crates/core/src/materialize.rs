//! Fragment materialization: evaluating a view over the application
//! datasets (in the pivot model) and loading the result into the target
//! store, restructuring the data across models as needed — the error-prone
//! manual migration of the motivating scenario, automated.
//!
//! This module decides *what* a fragment holds (its relations, their rows
//! and statistics). How those rows are laid out in a store, and every store
//! write, belongs to the crate-private `layout` module — the single owner
//! of the physical formats, shared with the DML path ([`crate::dml`]).

use crate::catalog::{
    DocRole, FragmentMeta, FragmentRelation, FragmentSpec, FragmentStats, WhereSpec,
};
use crate::dataset::{Dataset, DatasetContent, TableData};
use crate::error::{Error, Result};
use crate::layout;
use crate::system::Stores;
use estocada_chase::{find_homs, find_homs_delta, DeltaIndex, Elem, HomConfig, Instance};
use estocada_pivot::encoding::document::DocRelations;
use estocada_pivot::{Cq, Fact, Symbol, Term, Value, ViewDef};
use std::collections::{HashMap, HashSet};

/// Build a ground-fact instance (the staging database used to evaluate view
/// definitions).
pub fn fact_base(facts: &[Fact]) -> Instance {
    let mut inst = Instance::new();
    for f in facts {
        inst.insert(f.pred, f.args.iter().map(Elem::constant).collect());
    }
    inst
}

/// The head row of every homomorphism of `view`'s body into `base`, in
/// enumeration order, one per homomorphism (duplicates included). With
/// `delta`, only the homomorphisms through at least one fact of the delta,
/// each exactly once (semi-naive). A homomorphism mapping a head variable
/// to a labelled null yields no row — never the case over ground bases.
pub(crate) fn head_rows<'a>(
    base: &Instance,
    view: &'a Cq,
    delta: Option<&DeltaIndex>,
) -> impl Iterator<Item = Vec<Value>> + 'a {
    let (fixed, cfg) = (HashMap::new(), HomConfig::default());
    let homs = match delta {
        Some(delta) => find_homs_delta(base, &view.body, &fixed, cfg, delta),
        None => find_homs(base, &view.body, &fixed, cfg),
    };
    homs.into_iter().filter_map(move |h| {
        view.head
            .iter()
            .map(|t| match t {
                Term::Const(c) => Some(c.clone()),
                Term::Var(v) => h.map.get(v).and_then(Elem::as_value),
            })
            .collect()
    })
}

/// Evaluate a view over the fact base: all homomorphic images of the body,
/// projected on the head. Duplicate rows are eliminated (set semantics of
/// the pivot model).
pub fn evaluate_view(base: &Instance, view: &Cq) -> Vec<Vec<Value>> {
    let mut seen = HashSet::new();
    head_rows(base, view, None)
        .filter(|row| seen.insert(row.clone()))
        .collect()
}

/// Head column names of a view (variable names, falling back to `c{i}`).
pub fn head_columns(view: &Cq) -> Vec<String> {
    view.head
        .iter()
        .enumerate()
        .map(|(i, t)| match t {
            Term::Var(v) => {
                let n = view.var_name(*v);
                if n.starts_with('?') {
                    format!("c{i}")
                } else {
                    n
                }
            }
            Term::Const(_) => format!("c{i}"),
        })
        .collect()
}

/// One relation of a fragment being built, with its statistics.
type Part = (FragmentRelation, FragmentStats);

/// Materialize `spec` as fragment `id`: evaluates views over `base`, loads
/// the target store, and returns the registered metadata. A rejected spec
/// is rejected before the first store call.
pub fn materialize(
    id: &str,
    spec: FragmentSpec,
    base: &Instance,
    datasets: &HashMap<String, Dataset>,
    stores: &Stores,
) -> Result<FragmentMeta> {
    let parts = match &spec {
        FragmentSpec::NativeDoc { dataset } => native_docs(dataset, base, datasets, stores)?,
        FragmentSpec::NativeTables { dataset, only } => {
            native_tables(tables_of(datasets, dataset)?, only.as_deref(), stores)?
        }
        FragmentSpec::TextIndex { table } => vec![text_index(table, datasets, stores)?],
        FragmentSpec::Table { view, .. }
        | FragmentSpec::KeyValue { view }
        | FragmentSpec::DocRows { view, .. }
        | FragmentSpec::ParRows { view, .. } => vec![view_relation(&spec, view, base, stores)?],
    };
    let (relations, stats) = parts.into_iter().unzip();
    Ok(FragmentMeta {
        id: id.to_string(),
        system: spec.system(),
        spec,
        relations,
        stats,
        credentials: format!("sim://{id}"),
        use_count: Default::default(),
    })
}

/// The one relation of a view fragment (table / key-value / doc-rows /
/// par-rows): the view's rows, placed where `spec`'s kind says.
fn view_relation(spec: &FragmentSpec, view: &Cq, base: &Instance, stores: &Stores) -> Result<Part> {
    if !view.is_safe() {
        return Err(Error::BadFragment(format!(
            "view {} is not a safe conjunctive query",
            view.name
        )));
    }
    let placed = layout::view_place(spec, &view.name.as_str(), head_columns(view))?;
    let rows = evaluate_view(base, view);
    store_relation(stores, placed, None, &rows, view.clone())
}

/// Fill a placement with `rows` (see [`layout::fill`]) and describe the
/// stored relation `view`.
fn store_relation(
    stores: &Stores,
    (place, design): (WhereSpec, (&[String], usize)),
    source: Option<&TableData>,
    rows: &[Vec<Value>],
    view: Cq,
) -> Result<Part> {
    layout::fill(stores, &place, design, source, rows)?;
    let stats = layout::stats(&place, &layout::accumulate(&place, rows, view.head.len()));
    let relation = FragmentRelation {
        name: view.name,
        view: ViewDef::new(view),
        access: layout::access_of(&place),
        place,
    };
    Ok((relation, stats))
}

/// The tables of a relational dataset.
fn tables_of<'a>(datasets: &'a HashMap<String, Dataset>, dataset: &str) -> Result<&'a [TableData]> {
    match datasets.get(dataset).map(|ds| &ds.content) {
        Some(DatasetContent::Relational(tables)) => Ok(tables),
        Some(DatasetContent::Documents(_)) => Err(Error::BadFragment(format!(
            "{dataset} is not a relational dataset"
        ))),
        None => Err(Error::UnknownName(dataset.to_string())),
    }
}

/// A document dataset stored as such: identity views over its six
/// document-encoding relations, all answered from one collection.
fn native_docs(
    dataset: &str,
    base: &Instance,
    datasets: &HashMap<String, Dataset>,
    stores: &Stores,
) -> Result<Vec<Part>> {
    let ds = datasets
        .get(dataset)
        .ok_or_else(|| Error::UnknownName(dataset.to_string()))?;
    let (DatasetContent::Documents(docs), Some(src)) = (&ds.content, ds.doc_relations()) else {
        return Err(Error::BadFragment(format!(
            "{dataset} is not a document dataset"
        )));
    };
    layout::load_documents(stores, dataset, docs.iter().map(|d| d.body.clone()));
    let frag = DocRelations::for_collection(&format!("{dataset}F"));
    let roles = [
        (frag.doc, src.doc, DocRole::Doc),
        (frag.root, src.root, DocRole::Root),
        (frag.node, src.node, DocRole::Node),
        (frag.child, src.child, DocRole::Child),
        (frag.desc, src.desc, DocRole::Desc),
        (frag.val, src.val, DocRole::Val),
    ];
    let part = |(fname, sname, role)| {
        let nrows = base.facts_of(sname).count() as u64;
        let relation = FragmentRelation {
            name: fname,
            view: ViewDef::new(identity_view(fname, sname, 2)),
            access: None,
            place: WhereSpec::NativeDocs {
                collection: dataset.to_string(),
                role,
            },
        };
        let stats = FragmentStats {
            rows: nrows,
            distinct: vec![nrows; 2],
            bytes: nrows * 16,
        };
        (relation, stats)
    };
    Ok(roles.into_iter().map(part).collect())
}

/// Tables of a relational dataset stored as such: each one (or only the
/// listed ones) becomes an identity-view relation over a table of the same
/// name, indexed on its declared key.
fn native_tables(
    tables: &[TableData],
    only: Option<&[String]>,
    stores: &Stores,
) -> Result<Vec<Part>> {
    let kept = |t: &&TableData| {
        only.is_none_or(|keep| keep.iter().any(|k| *k == *t.encoding.relation.as_str()))
    };
    fn key(t: &TableData) -> (&[String], usize) {
        (t.encoding.key.as_deref().unwrap_or_default(), 0)
    }
    let tables: Vec<&TableData> = tables.iter().filter(kept).collect();
    // Every table's key is checked before the first table is stored.
    for t in &tables {
        layout::column_positions(&t.encoding.columns, key(t).0)?;
    }
    let part = |t: &TableData| {
        let name = t.encoding.relation.as_str();
        let place = WhereSpec::Table {
            table: name.to_string(),
            columns: t.encoding.columns.clone(),
        };
        let fname = Symbol::intern(&format!("{name}F"));
        let view = identity_view(fname, t.encoding.relation, t.encoding.columns.len());
        store_relation(stores, (place, key(t)), Some(t), &t.rows, view)
    };
    tables.into_iter().map(part).collect()
}

/// The full-text index over a table's text columns: the identity view of
/// `{table}_Terms(term, key)`, answered by the text store.
fn text_index(table: &str, datasets: &HashMap<String, Dataset>, stores: &Stores) -> Result<Part> {
    let t = datasets
        .keys()
        .filter_map(|name| tables_of(datasets, name).ok())
        .flatten()
        .find(|t| *t.encoding.relation.as_str() == *table)
        .ok_or_else(|| Error::UnknownName(table.to_string()))?;
    let fname = Symbol::intern(&format!("{table}F_Text"));
    let view = identity_view(fname, Dataset::terms_relation(table), 2);
    let placed = (layout::text_place(t)?, Default::default());
    store_relation(stores, placed, Some(t), &t.rows, view)
}

/// Remove a fragment's physical artifacts from the stores.
pub fn drop_fragment(meta: &FragmentMeta, stores: &Stores) {
    for r in &meta.relations {
        layout::drop_container(stores, &r.place);
    }
}

/// `V(x1..xn) :- R(x1..xn)` — the identity view of native fragments.
fn identity_view(vname: Symbol, source: Symbol, arity: usize) -> Cq {
    let vars: Vec<Term> = (0..arity as u32).map(Term::var).collect();
    Cq::new(
        vname,
        vars.clone(),
        vec![estocada_pivot::Atom::new(source, vars)],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::TableData;
    use crate::system::Latencies;
    use estocada_pivot::encoding::relational::TableEncoding;
    use estocada_pivot::{CqBuilder, IdGen};

    fn setup() -> (Instance, HashMap<String, Dataset>, Stores) {
        let ds = Dataset::relational(
            "sales",
            vec![TableData {
                encoding: TableEncoding::new("Users", &["uid", "name", "tier"], Some(&["uid"])),
                rows: (0..20)
                    .map(|i| {
                        vec![
                            Value::Int(i),
                            Value::str(format!("user{i}")),
                            Value::str(if i % 2 == 0 { "gold" } else { "free" }),
                        ]
                    })
                    .collect(),
                text_columns: vec![],
            }],
        );
        let mut ids = IdGen::new();
        let facts = ds.pivot_facts(&mut ids);
        let base = fact_base(&facts);
        let mut datasets = HashMap::new();
        datasets.insert("sales".to_string(), ds);
        (base, datasets, Stores::new(Latencies::zero()))
    }

    #[test]
    fn evaluate_view_projects_and_dedups() {
        let (base, _, _) = setup();
        let v = CqBuilder::new("Tiers")
            .head_vars(["t"])
            .atom("Users", |a| a.v("u").v("n").v("t"))
            .build();
        let rows = evaluate_view(&base, &v);
        assert_eq!(rows.len(), 2); // gold, free
    }

    #[test]
    fn table_fragment_materializes_with_index() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("GoldUsers")
            .head_vars(["uid", "name"])
            .atom("Users", |a| a.v("uid").v("name").c("gold"))
            .build();
        let meta = materialize(
            "f1",
            FragmentSpec::Table {
                view: v,
                index_on: vec!["uid".into()],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("GoldUsers"), 10);
        assert_eq!(meta.stats[0].rows, 10);
        assert_eq!(meta.stats[0].distinct[0], 10);
    }

    #[test]
    fn kv_fragment_keys_on_first_head_column() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UserByIdKV")
            .head_vars(["uid", "name", "tier"])
            .atom("Users", |a| a.v("uid").v("name").v("tier"))
            .build();
        let meta = materialize(
            "f2",
            FragmentSpec::KeyValue { view: v },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        // Rows are packed as a list of value tuples under the key.
        assert_eq!(
            stores.kv.get("UserByIdKV", &Value::Int(3)),
            Some(vec![Value::array([Value::array([
                Value::str("user3"),
                Value::str("free")
            ])])])
        );
        assert_eq!(
            format!("{}", meta.relations[0].access.as_ref().unwrap()),
            "ioo"
        );
    }

    #[test]
    fn kv_fragment_keeps_all_rows_of_non_unique_keys() {
        let (base, datasets, stores) = setup();
        // Key on tier: only two keys, many rows each.
        let v = CqBuilder::new("ByTierKV")
            .head_vars(["tier", "uid"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        materialize(
            "f8",
            FragmentSpec::KeyValue { view: v },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        let gold = stores.kv.get("ByTierKV", &Value::str("gold")).unwrap();
        match &gold[0] {
            Value::Array(rows) => assert_eq!(rows.len(), 10),
            other => panic!("expected packed rows, got {other}"),
        }
    }

    #[test]
    fn doc_rows_fragment_builds_flat_documents() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UserDocs")
            .head_vars(["uid", "tier"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        materialize(
            "f3",
            FragmentSpec::DocRows {
                view: v,
                index_on: vec!["uid".into()],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        let found = stores.doc.find(
            "UserDocs",
            &estocada_docstore::Filter::all().eq("uid", 4i64),
            None,
        );
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].get("tier"), Some(&Value::str("gold")));
    }

    #[test]
    fn par_rows_fragment_with_key_index() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("UsersPar")
            .head_vars(["uid", "tier"])
            .atom("Users", |a| a.v("uid").v("n").v("tier"))
            .build();
        let meta = materialize(
            "f4",
            FragmentSpec::ParRows {
                view: v,
                index_on: vec!["uid".into()],
                partitions: 2,
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.par.len("UsersPar"), 20);
        match &meta.relations[0].place {
            WhereSpec::ParDataset { indexed, .. } => assert_eq!(indexed, &vec![0]),
            other => panic!("unexpected place {other:?}"),
        }
    }

    #[test]
    fn native_tables_fragment_loads_and_indexes() {
        let (base, datasets, stores) = setup();
        let meta = materialize(
            "f5",
            FragmentSpec::NativeTables {
                dataset: "sales".into(),
                only: None,
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("Users"), 20);
        assert_eq!(meta.relations.len(), 1);
        assert_eq!(meta.relations[0].name, Symbol::intern("UsersF"));
    }

    #[test]
    fn drop_fragment_removes_artifacts() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("Tmp")
            .head_vars(["uid"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let meta = materialize(
            "f6",
            FragmentSpec::Table {
                view: v,
                index_on: vec![],
            },
            &base,
            &datasets,
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("Tmp"), 20);
        drop_fragment(&meta, &stores);
        assert_eq!(stores.rel.row_count("Tmp"), 0);
    }

    #[test]
    fn bad_index_column_rejected() {
        let (base, datasets, stores) = setup();
        let v = CqBuilder::new("Bad")
            .head_vars(["uid"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let err = materialize(
            "f7",
            FragmentSpec::Table {
                view: v,
                index_on: vec!["nope".into()],
            },
            &base,
            &datasets,
            &stores,
        );
        assert!(matches!(err, Err(Error::BadFragment(_))));
    }
}
