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
    Catalog, DocRole, FragmentMeta, FragmentRelation, FragmentSpec, FragmentStats, WhereSpec,
};
use crate::dataset::{Dataset, DatasetContent, DocData, TableData};
use crate::error::{Error, Result};
use crate::factbase::FactBase;
use crate::layout;
use crate::system::Stores;
use estocada_pivot::encoding::document::DocRelations;
use estocada_pivot::hash::FastMap;
use estocada_pivot::{Cq, IdRows, Symbol, Term, ViewDef};

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

/// One relation of a fragment being built, before anything is stored: its
/// description and what its container holds.
type Planned<'a> = (FragmentRelation, Contents<'a>);

/// What a planned relation's container holds.
enum Contents<'a> {
    /// Rows, interned, over a partition count (0: the store's default),
    /// and the table they are rows of (native and text fragments).
    Rows(IdRows, usize, Option<&'a TableData>),
    /// A document dataset as such, with the statistics describing it. The
    /// documents are loaded once, with the relation that carries them.
    Documents(Option<&'a [DocData]>, FragmentStats),
}

/// Materialize `spec` as fragment `id`: plan its relations (evaluating views
/// over `base`), reject the spec if a fragment of `catalog` holds one of
/// their names, fill their containers, and return the metadata to register
/// with the running statistics of every relation DML writes (the caller
/// sets its high-water mark).
pub(crate) fn materialize(
    id: &str,
    spec: FragmentSpec,
    base: &FactBase,
    datasets: &FastMap<String, Dataset>,
    catalog: &Catalog,
    stores: &Stores,
) -> Result<FragmentMeta> {
    let planned = match &spec {
        FragmentSpec::NativeDoc { dataset } => native_docs(dataset, base, datasets)?,
        FragmentSpec::NativeTables { dataset, only } => {
            native_tables(tables_of(datasets, dataset)?, only.as_deref(), base)?
        }
        FragmentSpec::TextIndex { table } => vec![text_index(table, datasets, base)?],
        FragmentSpec::Table { view, .. }
        | FragmentSpec::KeyValue { view }
        | FragmentSpec::DocRows { view, .. }
        | FragmentSpec::ParRows { view, .. } => vec![view_relation(&spec, view, base)?],
    };
    let held_by = |(r, _): &Planned| Some((catalog.relation(r.name)?.0, r.name));
    if let Some((f, name)) = planned.iter().find_map(held_by) {
        let taken = format!("fragment {} holds a relation {name}", f.id);
        return Err(Error::BadFragment(taken));
    }
    let (mut relations, mut stats, mut running) = (Vec::new(), Vec::new(), Vec::new());
    for (relation, contents) in planned {
        let place = &relation.place;
        let (described, held) = match contents {
            Contents::Rows(rows, partitions, source) => {
                layout::fill(stores, place, partitions, source, &rows)?;
                let held = layout::accumulate(place, &rows, relation.view.view.head.len());
                (layout::stats(place, &held), Some(held))
            }
            Contents::Documents(docs, stats) => {
                if let (Some(docs), WhereSpec::NativeDocs { collection, .. }) = (docs, place) {
                    let bodies = docs.iter().map(|d| d.body.clone());
                    layout::load_documents(stores, collection, bodies);
                }
                (stats, None)
            }
        };
        stats.push(described);
        running.push(held);
        relations.push(relation);
    }
    Ok(FragmentMeta {
        id: id.to_string(),
        system: spec.system(),
        spec,
        relations,
        stats,
        running,
        high_water: 0,
        credentials: format!("sim://{id}"),
        use_count: Default::default(),
    })
}

/// The relation `view` describes, stored at `place`.
fn relation(view: Cq, place: WhereSpec) -> FragmentRelation {
    FragmentRelation {
        name: view.name,
        access: layout::access_of(&place),
        view: ViewDef::new(view),
        place,
    }
}

/// The one relation of a view fragment (table / key-value / doc-rows /
/// par-rows): the view's rows, placed where `spec`'s kind says.
fn view_relation<'a>(spec: &FragmentSpec, view: &Cq, base: &FactBase) -> Result<Planned<'a>> {
    if !view.is_safe() {
        return Err(Error::BadFragment(format!(
            "view {} is not a safe conjunctive query",
            view.name
        )));
    }
    let (place, partitions) = layout::view_place(spec, &view.name.as_str(), head_columns(view))?;
    let contents = Contents::Rows(base.evaluate(view), partitions, None);
    Ok((relation(view.clone(), place), contents))
}

/// The tables of a relational dataset.
fn tables_of<'a>(datasets: &'a FastMap<String, Dataset>, dataset: &str) -> Result<&'a [TableData]> {
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
fn native_docs<'a>(
    dataset: &str,
    base: &FactBase,
    datasets: &'a FastMap<String, Dataset>,
) -> Result<Vec<Planned<'a>>> {
    let ds = datasets
        .get(dataset)
        .ok_or_else(|| Error::UnknownName(dataset.to_string()))?;
    let (DatasetContent::Documents(docs), Some(src)) = (&ds.content, ds.doc_relations()) else {
        return Err(Error::BadFragment(format!(
            "{dataset} is not a document dataset"
        )));
    };
    let frag = DocRelations::for_collection(&format!("{dataset}F"));
    let roles = [
        (frag.doc, src.doc, DocRole::Doc),
        (frag.root, src.root, DocRole::Root),
        (frag.node, src.node, DocRole::Node),
        (frag.child, src.child, DocRole::Child),
        (frag.desc, src.desc, DocRole::Desc),
        (frag.val, src.val, DocRole::Val),
    ];
    let plan = |(fname, sname, role)| {
        let nrows = base.count(sname);
        let stats = FragmentStats {
            rows: nrows,
            distinct: vec![nrows; 2],
            bytes: nrows * 16,
        };
        let docs = (role == DocRole::Doc).then_some(docs.as_slice());
        let collection = dataset.to_string();
        let place = WhereSpec::NativeDocs { collection, role };
        let view = identity_view(fname, sname, 2);
        (relation(view, place), Contents::Documents(docs, stats))
    };
    Ok(roles.into_iter().map(plan).collect())
}

/// Tables of a relational dataset stored as such: each one (or only the
/// listed ones) becomes an identity-view relation over a table of the same
/// name, indexed on its declared key. Naming no table is rejected.
fn native_tables<'a>(
    tables: &'a [TableData],
    only: Option<&[String]>,
    base: &FactBase,
) -> Result<Vec<Planned<'a>>> {
    let named = |t: &TableData, k: &String| *k == *t.encoding.relation.as_str();
    let absent = |k: &&String| !tables.iter().any(|t| named(t, k));
    if let Some(k) = only.unwrap_or_default().iter().find(absent) {
        return Err(Error::UnknownName(k.clone()));
    } else if only.is_some_and(<[String]>::is_empty) {
        return Err(Error::BadFragment("the fragment selects no table".into()));
    }
    let kept = |t: &&TableData| only.is_none_or(|keep| keep.iter().any(|k| named(t, k)));
    let plan = |t: &'a TableData| -> Result<Planned<'a>> {
        let key = t.encoding.key.as_deref().unwrap_or_default();
        let place = WhereSpec::Table {
            table: t.encoding.relation.as_str().to_string(),
            indexed: layout::column_positions(&t.encoding.columns, key)?,
            columns: t.encoding.columns.clone(),
        };
        let fname = Symbol::intern(&format!("{}F", t.encoding.relation.as_str()));
        let view = identity_view(fname, t.encoding.relation, t.encoding.columns.len());
        let mirror = Contents::Rows(base.rows(t), 0, Some(t));
        Ok((relation(view, place), mirror))
    };
    tables.iter().filter(kept).map(plan).collect()
}

/// The full-text index over a table's text columns: the identity view of
/// `{table}_Terms(term, key)`, answered by the text store.
fn text_index<'a>(
    table: &str,
    datasets: &'a FastMap<String, Dataset>,
    base: &FactBase,
) -> Result<Planned<'a>> {
    let t = datasets
        .keys()
        .filter_map(|name| tables_of(datasets, name).ok())
        .flatten()
        .find(|t| *t.encoding.relation.as_str() == *table)
        .ok_or_else(|| Error::UnknownName(table.to_string()))?;
    let fname = Symbol::intern(&format!("{table}F_Text"));
    let view = identity_view(fname, Dataset::terms_relation(table), 2);
    let mirror = Contents::Rows(base.rows(t), 0, Some(t));
    Ok((relation(view, layout::text_place(t)?), mirror))
}

/// Remove a fragment's physical artifacts from the stores.
pub(crate) fn drop_fragment(meta: &FragmentMeta, stores: &Stores) {
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
    use estocada_pivot::{ConstId, CqBuilder, Value};

    fn setup() -> (FactBase, FastMap<String, Dataset>, Stores) {
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
        let mut base = FactBase::new();
        base.stage(&ds);
        let mut datasets = FastMap::default();
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
        let rows = base.evaluate(&v);
        assert_eq!(rows.len, 2); // gold, free
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
            &Catalog::new(),
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("GoldUsers"), 10);
        assert_eq!(meta.stats[0].rows, 10);
        assert_eq!(meta.stats[0].distinct[0], 10);
        // The placement records the index the fill built.
        match &meta.relations[0].place {
            WhereSpec::Table { indexed, .. } => assert_eq!(indexed, &vec![0]),
            other => panic!("unexpected place {other:?}"),
        }
    }

    /// The value tuples under `key` in `namespace`, resolved.
    fn kv_entry(stores: &Stores, namespace: &str, key: Value) -> Vec<Vec<Value>> {
        let mut tuples = Vec::new();
        let key = ConstId::intern(&key);
        let found = stores
            .kv
            .mget(namespace, &[key], |_, t| tuples = t.to_values());
        assert!(found, "namespace {namespace}");
        tuples
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
            &Catalog::new(),
            &stores,
        )
        .unwrap();
        // The key's value tuples are held under it.
        assert_eq!(
            kv_entry(&stores, "UserByIdKV", Value::Int(3)),
            vec![vec![Value::str("user3"), Value::str("free")]]
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
            &Catalog::new(),
            &stores,
        )
        .unwrap();
        let gold = kv_entry(&stores, "ByTierKV", Value::str("gold"));
        assert_eq!(gold.len(), 10);
        assert!(gold.is_sorted(), "an entry is held in value order");
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
            &Catalog::new(),
            &stores,
        )
        .unwrap();
        let found = stores.doc.find(
            "UserDocs",
            &estocada_docstore::Filter::all().eq("uid", 4i64),
            None,
        );
        let found = found.unwrap();
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
            &Catalog::new(),
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
            &Catalog::new(),
            &stores,
        )
        .unwrap();
        assert_eq!(stores.rel.row_count("Users"), 20);
        assert_eq!(meta.relations.len(), 1);
        assert_eq!(meta.relations[0].name, Symbol::intern("UsersF"));
        // Indexed on the declared key, and the placement says so.
        match &meta.relations[0].place {
            WhereSpec::Table { indexed, .. } => assert_eq!(indexed, &vec![0]),
            other => panic!("unexpected place {other:?}"),
        }
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
            &Catalog::new(),
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
            &Catalog::new(),
            &stores,
        );
        assert!(matches!(err, Err(Error::BadFragment(_))));
    }
    /// An engine over the `sales` dataset, and a native-tables spec over it
    /// restricted to `only`.
    fn native_only(only: &[&str]) -> (crate::Estocada, FragmentSpec) {
        let mut est = crate::Estocada::new(Latencies::zero());
        est.register_dataset(setup().1.remove("sales").unwrap())
            .unwrap();
        let only = only.iter().map(|t| t.to_string()).collect();
        let spec = FragmentSpec::NativeTables {
            dataset: "sales".into(),
            only: Some(only),
        };
        (est, spec)
    }

    /// A rejected spec stored nothing, used no fragment id and left the
    /// catalog epoch alone.
    fn assert_nothing_changed(mut est: crate::Estocada, epoch: u64) {
        assert_eq!(
            est.metrics().catalog_epoch,
            epoch,
            "a rejected spec bumped the epoch"
        );
        assert!(est.stores.dump().is_empty(), "a rejected spec stored rows");
        let (_, spec) = native_only(&["Users"]);
        assert_eq!(est.add_fragment(spec).unwrap(), "F1");
    }

    #[test]
    fn native_tables_naming_a_missing_table_is_an_unknown_name() {
        let (mut est, spec) = native_only(&["Users", "Userz"]);
        let epoch = est.metrics().catalog_epoch;
        let err = est.add_fragment(spec).unwrap_err();
        assert!(
            matches!(&err, Error::UnknownName(t) if t == "Userz"),
            "got {err}"
        );
        assert_nothing_changed(est, epoch);
    }

    #[test]
    fn native_tables_selecting_no_table_is_a_bad_fragment() {
        let (mut est, spec) = native_only(&[]);
        let epoch = est.metrics().catalog_epoch;
        let err = est.add_fragment(spec).unwrap_err();
        assert!(matches!(err, Error::BadFragment(_)), "got {err}");
        assert_nothing_changed(est, epoch);
    }
}
