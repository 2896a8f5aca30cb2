//! Placement layouts: the one module that knows how a fragment relation's
//! rows are physically stored under each [`WhereSpec`] variant, and the only
//! non-test code of this crate that calls a store's write or DDL methods.
//!
//! | placement | stored form of the relation's rows |
//! |---|---|
//! | `Table`, `ParDataset` | the row as is; physical duplicates are kept |
//! | `Namespace` | per key (head column 0) one list of the value tuples (columns 1..), **sorted**, so an entry is a canonical function of the key's row set |
//! | `Collection` | one flat object per row, keyed by column name |
//! | `TextIndex` | `(key, text columns joined by a space)` per row of the indexed table |
//! | `NativeDocs` | the dataset's documents as such — loaded once, no row writer |
//!
//! The first fill ([`fill`]) and every DML delta go through the same
//! [`write`], so an incrementally maintained store equals its
//! drop-and-rematerialize twin by construction. Key-value namespaces and
//! text indexes begin with their first entry and end with their last, so
//! one emptied by deletes also equals a first fill over no rows.

use crate::catalog::{FragmentSpec, FragmentStats, StatsAccumulator, WhereSpec};
use crate::dataset::TableData;
use crate::error::{Error, Result};
use crate::system::{Stores, SystemId};
use estocada_parstore::ParStore;
use estocada_pivot::{AccessPattern, Value};
use estocada_relstore::IndexKind;
use std::collections::BTreeMap;

/// A stored row of a fragment relation (head order).
type Row = Vec<Value>;

/// Where a view fragment's rows go — a container named `name`, holding the
/// view's head `columns`, in the store `spec` targets — and the physical
/// design `spec` asks for beyond it: the columns to index (rejected when
/// outside the head) and the partition count (0: the store's default).
pub(crate) fn view_place<'a>(
    spec: &'a FragmentSpec,
    name: &str,
    columns: Vec<String>,
) -> Result<(WhereSpec, (&'a [String], usize))> {
    let design: (&[String], usize) = match spec {
        FragmentSpec::Table { index_on, .. } | FragmentSpec::DocRows { index_on, .. } => {
            (index_on, 0)
        }
        FragmentSpec::ParRows {
            index_on,
            partitions,
            ..
        } => (index_on, *partitions),
        _ => Default::default(),
    };
    let indexed = column_positions(&columns, design.0)?;
    let name = name.to_string();
    let place = match spec.system() {
        SystemId::Relational => WhereSpec::Table {
            table: name,
            columns,
        },
        SystemId::Document => WhereSpec::Collection {
            collection: name,
            columns,
        },
        SystemId::Parallel => WhereSpec::ParDataset {
            dataset: name,
            columns,
            indexed,
        },
        SystemId::KeyValue if !columns.is_empty() => WhereSpec::Namespace {
            namespace: name,
            value_columns: columns[1..].to_vec(),
        },
        _ => {
            let kind = spec.kind();
            return Err(Error::BadFragment(format!(
                "a {kind} fragment needs a view with a key column"
            )));
        }
    };
    Ok((place, design))
}

/// Where the full-text index over `t`'s text columns goes.
pub(crate) fn text_place(t: &TableData) -> Result<WhereSpec> {
    let index = t.encoding.relation.as_str().to_string();
    let missing = match text_positions(t) {
        (_, text) if text.is_empty() => "text columns",
        (None, _) => "key",
        _ => return Ok(WhereSpec::TextIndex { index }),
    };
    let message = format!("table {index} declares no {missing}");
    Err(Error::BadFragment(message))
}

/// The access restriction a layout implies: a key-value entry is reached
/// by its key, a text posting by its term.
pub(crate) fn access_of(place: &WhereSpec) -> Option<AccessPattern> {
    let outputs = match place {
        WhereSpec::Namespace { value_columns, .. } => value_columns.len(),
        WhereSpec::TextIndex { .. } => 1,
        _ => return None,
    };
    Some(AccessPattern::parse(&format!("i{}", "o".repeat(outputs))))
}

/// Positions of `wanted` within `columns`; a miss is a rejected spec.
pub(crate) fn column_positions(columns: &[String], wanted: &[String]) -> Result<Vec<usize>> {
    let position = |w: &String| {
        let found = columns.iter().position(|c| c == w);
        found.ok_or_else(|| Error::BadFragment(format!("index column {w} not in {columns:?}")))
    };
    wanted.iter().map(position).collect()
}

fn refs(names: &[String]) -> Vec<&str> {
    names.iter().map(String::as_str).collect()
}

/// First fill: create the container, load `rows` through [`write`] (store
/// insertion order is the order of `rows`), then build the indexes
/// (`index_on`, `partitions` — see [`view_place`]) once over the loaded rows.
/// Stores panic on unknown index columns: check them first.
pub(crate) fn fill(
    stores: &Stores,
    place: &WhereSpec,
    (index_on, partitions): (&[String], usize),
    source: Option<&TableData>,
    rows: &[Row],
) -> Result<()> {
    match place {
        WhereSpec::Table { table, columns } => stores.rel.create_table(table, &refs(columns)),
        WhereSpec::ParDataset {
            dataset, columns, ..
        } => {
            let parts = match partitions {
                0 => ParStore::default_partitions(),
                n => n,
            };
            let columns = refs(columns);
            stores
                .par
                .create_dataset(dataset, &columns, Vec::new(), parts);
        }
        // The other containers begin with their first write.
        _ => {}
    }
    write(stores, place, source, &[], rows, &mut rows.iter())?;
    match place {
        WhereSpec::Table { table, .. } => index_on
            .iter()
            .for_each(|ix| stores.rel.create_index(table, ix, IndexKind::BTree)),
        WhereSpec::Collection { collection, .. } => index_on
            .iter()
            .for_each(|ix| stores.doc.create_index(collection, ix)),
        WhereSpec::ParDataset { dataset, .. } if !index_on.is_empty() => {
            stores.par.build_key_index(dataset, &refs(index_on))
        }
        _ => {}
    }
    Ok(())
}

/// Apply one relation's delta to its container, deletes (one stored
/// instance each) before inserts. `resident` yields the relation's rows
/// *after* the delta, for layouts that rewrite whole entries (key-value);
/// `source` is the table the rows are rows of, for layouts derived from its
/// declaration (text).
pub(crate) fn write(
    stores: &Stores,
    place: &WhereSpec,
    source: Option<&TableData>,
    deletes: &[Row],
    inserts: &[Row],
    resident: &mut dyn Iterator<Item = &Row>,
) -> Result<()> {
    match place {
        WhereSpec::Table { table, .. } => {
            if !deletes.is_empty() {
                stores.rel.delete_rows(table, deletes);
            }
            if !inserts.is_empty() {
                stores.rel.insert_many(table, inserts.iter().cloned());
            }
        }
        WhereSpec::ParDataset { dataset, .. } => {
            stores.par.apply_delta(dataset, deletes, inserts);
        }
        WhereSpec::Collection {
            collection,
            columns,
        } => {
            let doc =
                |row: &Row| Value::object_owned(columns.iter().cloned().zip(row.iter().cloned()));
            if !deletes.is_empty() {
                let gone: Vec<Value> = deletes.iter().map(doc).collect();
                stores.doc.remove_docs(collection, &gone);
            }
            // Also what creates the collection, at a first fill over no rows.
            stores.doc.insert_many(collection, inserts.iter().map(doc));
        }
        WhereSpec::Namespace { namespace, .. } => {
            // Repack every key a changed row touches from that key's
            // resident rows, grouped in one pass.
            let touched = deletes.iter().chain(inserts).map(|r| (&r[0], Vec::new()));
            let mut entries: BTreeMap<&Value, Vec<Value>> = touched.collect();
            for row in resident {
                if let Some(tuples) = entries.get_mut(&row[0]) {
                    tuples.push(Value::array(row[1..].iter().cloned()));
                }
            }
            for (key, tuples) in entries {
                if tuples.is_empty() {
                    stores.kv.delete(namespace, key);
                } else {
                    stores.kv.put(namespace, key.clone(), &pack_kv_rows(tuples));
                }
            }
            if stores.kv.is_empty(namespace) {
                stores.kv.drop_namespace(namespace);
            }
        }
        WhereSpec::TextIndex { index } => {
            let t = source.ok_or_else(|| {
                Error::BadFragment(format!("text index {index} written without its table"))
            })?;
            let (key, text) = text_positions(t);
            let doc = |row: &Row| {
                let words: Vec<&str> = text.iter().filter_map(|c| row[*c].as_str()).collect();
                (key.map_or(Value::Null, |k| row[k].clone()), words.join(" "))
            };
            if !deletes.is_empty() {
                let gone: Vec<(Value, String)> = deletes.iter().map(doc).collect();
                stores.text.remove_documents(index, &gone);
            }
            for row in inserts {
                let (key, text) = doc(row);
                stores.text.index_document(index, key, &text);
            }
            if stores.text.is_empty(index) {
                stores.text.drop_index(index);
            }
        }
        // Documents, not rows: loaded once by `load_documents`, and DML
        // rejects document datasets before it gets here.
        WhereSpec::NativeDocs { .. } => {}
    }
    Ok(())
}

/// Load a document dataset as such (the first fill of `NativeDocs`).
pub(crate) fn load_documents(stores: &Stores, collection: &str, docs: impl Iterator<Item = Value>) {
    stores.doc.insert_many(collection, docs);
}

/// Remove a placement's container from its store.
pub(crate) fn drop_container(stores: &Stores, place: &WhereSpec) {
    match place {
        WhereSpec::Table { table, .. } => stores.rel.drop_table(table),
        WhereSpec::Namespace { namespace, .. } => stores.kv.drop_namespace(namespace),
        WhereSpec::Collection { collection, .. } | WhereSpec::NativeDocs { collection, .. } => {
            stores.doc.drop_collection(collection)
        }
        WhereSpec::ParDataset { dataset, .. } => stores.par.drop_dataset(dataset),
        WhereSpec::TextIndex { index } => stores.text.drop_index(index),
    };
}

/// The running statistics of a relation of `arity` columns stored at `place`
/// and holding `rows` — every row enters, as in a rematerialization. A text
/// index is estimated from its document count alone: no column is tracked.
pub(crate) fn accumulate<'a>(
    place: &WhereSpec,
    rows: impl IntoIterator<Item = &'a Row>,
    arity: usize,
) -> StatsAccumulator {
    let tracked = match place {
        WhereSpec::TextIndex { .. } => 0,
        _ => arity,
    };
    StatsAccumulator::of(rows, tracked)
}

/// What the catalog records for a relation stored at `place`. A text index
/// holds roughly 8 postings over 4 distinct terms per document.
pub(crate) fn stats(place: &WhereSpec, held: &StatsAccumulator) -> FragmentStats {
    if !matches!(place, WhereSpec::TextIndex { .. }) {
        return held.finish();
    }
    let docs = held.rows();
    FragmentStats {
        rows: docs * 8,
        distinct: vec![docs * 4, docs],
        bytes: docs * 64,
    }
}

/// The value stored under one key-value key: the key's value tuples as one
/// sorted list (like a Redis list, so non-unique keys keep every row).
fn pack_kv_rows(mut tuples: Vec<Value>) -> [Value; 1] {
    tuples.sort();
    [Value::array(tuples)]
}

/// Inverse of [`pack_kv_rows`]: the value tuples stored under one key. A
/// payload that is not a packed list reads as a single tuple.
pub(crate) fn unpack_kv_rows(values: &[Value]) -> Vec<Row> {
    match values {
        [Value::Array(rows)] => rows
            .iter()
            .filter_map(|r| r.as_array().map(<[Value]>::to_vec))
            .collect(),
        _ => vec![values.to_vec()],
    }
}

/// Column positions a text index reads from a row of `t`: the first
/// declared key column and every declared text column.
fn text_positions(t: &TableData) -> (Option<usize>, Vec<usize>) {
    let position = |name: &String| t.encoding.columns.iter().position(|c| c == name);
    let key = t.encoding.key.as_ref().and_then(|k| k.first());
    (
        key.and_then(position),
        t.text_columns.iter().filter_map(position).collect(),
    )
}
