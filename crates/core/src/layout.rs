//! Placement layouts: the one module that knows how a fragment relation's
//! rows are physically stored under each [`WhereSpec`] variant, and the only
//! non-test code of this crate that calls a store's write or DDL methods
//! (`ci/census.sh` counts the DDL calls elsewhere: `store DDL outside
//! layout`, 0).
//!
//! | placement | stored form of the relation's rows | indexes |
//! |---|---|---|
//! | `Table` | the row as is; physical duplicates are kept | the placement's `indexed` columns at the fill, then each column a query's paid full scan compared with an `=` constant ([`index`]) |
//! | `ParDataset` | the row as is; physical duplicates are kept; keyed on the `indexed` columns at creation, each key's rows one block in one partition (unkeyed: dealt round-robin, until a query's paid full scan compares a column with an `=` constant and keys it there, [`index`]) | none beside the blocks: a lookup reads its key's block, and a delta touches only the blocks of the keys it names |
//! | `Namespace` | per key (head column 0) its value tuples (columns 1..) as interned cells, **sorted** in value order by the store, so an entry is a canonical function of the key's row set | the key |
//! | `Collection` | one flat object per row, keyed by column name | a path index per `indexed` column, at the fill |
//! | `TextIndex` | `(key, text columns joined by a space)` per row of the indexed table | the terms |
//! | `NativeDocs` | the dataset's documents as such — loaded once, no row writer | none of the layout's |
//!
//! The first fill ([`fill`]) and every DML delta go through the same
//! [`write`], so an incrementally maintained store equals its
//! drop-and-rematerialize twin by construction. Key-value namespaces and
//! text indexes begin with their first entry and end with their last, so
//! one emptied by deletes also equals a first fill over no rows.
//!
//! The boundary is [`IdRows`]: rows arrive as interned cells — a view's
//! rows as its compiled plan produced them, a native table's and a DML
//! batch's interned once where they enter. The relational table and the
//! parallel dataset store those cells as they are (`insert_ids`,
//! `apply_delta_ids`), and so does the key-value namespace (each key's
//! value tuples, patched in place by `KvStore::update`); only the document
//! and text layouts, whose stores hold values, resolve them, each in its
//! own arm of [`write`].

use crate::catalog::{FragmentSpec, FragmentStats, StatsAccumulator, WhereSpec};
use crate::connector::EqScan;
use crate::dataset::TableData;
use crate::error::{Error, Result};
use crate::system::{Stores, SystemId};
use estocada_parstore::ParStore;
use estocada_pivot::hash::FastMap;
use estocada_pivot::{AccessPattern, Adornment, ConstId, IdRows, SwapRows, Value};

/// A stored row of a fragment relation (head order), resolved.
type Row = Vec<Value>;

/// Where a view fragment's rows go — a container named `name`, holding the
/// view's head `columns`, in the store `spec` targets, indexed on the
/// columns `spec` asks for (rejected when outside the head) — and the
/// partition count (0: the store's default).
pub(crate) fn view_place(
    spec: &FragmentSpec,
    name: &str,
    columns: Vec<String>,
) -> Result<(WhereSpec, usize)> {
    let (index_on, partitions): (&[String], usize) = match spec {
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
    let indexed = column_positions(&columns, index_on)?;
    let name = name.to_string();
    let place = match spec.system() {
        SystemId::Relational => WhereSpec::Table {
            table: name,
            columns,
            indexed,
        },
        SystemId::Document => WhereSpec::Collection {
            collection: name,
            columns,
            indexed,
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
    Ok((place, partitions))
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
    let mut adornments = vec![Adornment::Output; outputs + 1];
    adornments[0] = Adornment::Input;
    Some(AccessPattern { adornments })
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

/// First fill: create the container (a dataset over `partitions`, keyed
/// on its `indexed` columns, see [`view_place`]), load `rows` through
/// [`write`] (store insertion order is the order of `rows`), then build a
/// table's or a collection's own `indexed` columns once over the loaded
/// rows.
pub(crate) fn fill(
    stores: &Stores,
    place: &WhereSpec,
    partitions: usize,
    source: Option<&TableData>,
    rows: &IdRows,
) -> Result<()> {
    let named = |columns: &[String], indexed: &[usize]| -> Vec<String> {
        indexed.iter().map(|c| columns[*c].clone()).collect()
    };
    match place {
        WhereSpec::Table { table, columns, .. } => stores.rel.create_table(table, &refs(columns)),
        WhereSpec::ParDataset {
            dataset,
            columns,
            indexed,
        } => {
            let parts = match partitions {
                0 => ParStore::default_partitions(),
                n => n,
            };
            let key = named(columns, indexed);
            let created =
                stores
                    .par
                    .create_dataset(dataset, &refs(columns), &refs(&key), [], parts);
            created.map_err(par_error)?;
        }
        // The other containers begin with their first write.
        _ => {}
    }
    write(stores, place, source, &IdRows::empty(rows.width), rows)?;
    match place {
        WhereSpec::Table {
            table,
            columns,
            indexed,
        } => {
            for ix in named(columns, indexed) {
                stores.rel.create_index(table, &ix).map_err(rel_error)?;
            }
        }
        WhereSpec::Collection {
            collection,
            columns,
            indexed,
        } => named(columns, indexed)
            .iter()
            .for_each(|ix| stores.doc.create_index(collection, ix)),
        _ => {}
    }
    Ok(())
}

/// Index on demand the column a delegated request of a completed query
/// scanned a whole container for ([`EqScan`]): a relational table gains an
/// index on it, unless the store indexed it meanwhile, and an unkeyed
/// parallel dataset is keyed on it — rebuilt into one block per key, as a
/// fill keyed on the column would build it — unless the store keyed it
/// meanwhile (a dataset's key is never replaced). This is ski rental: a
/// build costs about one scan, and one scan was paid, so building after it
/// pays at most twice what the best choice in hindsight would. The store
/// charges the build as one request scanning the container, and the
/// request passes the store's fault gate as `index`; a build the gate
/// refuses, or on a container dropped since, is left to the next scan —
/// the answer it would have sped up is complete.
pub(crate) fn index(stores: &Stores, scan: &EqScan) {
    let EqScan {
        system,
        container,
        column,
    } = scan;
    let built = match system {
        SystemId::Relational => stores.rel.indexed(container).contains(column),
        SystemId::Parallel => !stores.par.key_columns(container).is_empty(),
        _ => true,
    };
    if built || stores.gate(*system).check("index").is_err() {
        return;
    }
    match system {
        SystemId::Relational => {
            let _ = stores.rel.build_index(container, *column);
        }
        _ => {
            let _ = stores.par.key_dataset(container, *column);
        }
    }
}

/// A relational container the catalog places that its store does not hold.
fn rel_error(e: estocada_relstore::QueryError) -> Error {
    Error::UnknownName(format!("relational store: {e}"))
}

/// A parallel container the catalog places that its store does not hold.
fn par_error(e: estocada_parstore::ParError) -> Error {
    Error::UnknownName(format!("parallel store: {e}"))
}

/// Apply one relation's delta to its container, deletes (one stored
/// instance each) before inserts, where they land. Every store patches its
/// rows, entries and indexes in place — the last row of a container (of a
/// parallel dataset: of the key's block) fills each hole and every posting
/// index follows — so a write costs the delta and the entries, blocks or
/// postings it touches; a document or text delete also
/// scans its container once to find its documents, as no index lists every
/// document. A container the catalog places but its store does not hold is
/// [`Error::UnknownName`]. `source` is the table the rows are rows of, for
/// layouts derived from its declaration (text).
pub(crate) fn write(
    stores: &Stores,
    place: &WhereSpec,
    source: Option<&TableData>,
    deletes: &IdRows,
    inserts: &IdRows,
) -> Result<()> {
    match place {
        WhereSpec::Table { table, .. } => {
            if deletes.len > 0 {
                stores.rel.delete_ids(table, deletes).map_err(rel_error)?;
            }
            if inserts.len > 0 {
                stores.rel.insert_ids(table, inserts).map_err(rel_error)?;
            }
        }
        WhereSpec::ParDataset { dataset, .. } => {
            let delta = stores.par.apply_delta_ids(dataset, deletes, inserts);
            delta.map_err(par_error)?;
        }
        WhereSpec::Collection {
            collection,
            columns,
            ..
        } => {
            let (deletes, inserts) = (deletes.to_values(), inserts.to_values());
            let doc =
                |row: &Row| Value::object_owned(columns.iter().cloned().zip(row.iter().cloned()));
            if !deletes.is_empty() {
                let gone: Vec<Value> = deletes.iter().map(doc).collect();
                stores.doc.remove_docs(collection, &gone);
            }
            // Also what creates the collection, at a first fill over no rows.
            stores.doc.insert_many(collection, inserts.iter().map(doc));
        }
        WhereSpec::Namespace {
            namespace,
            value_columns,
        } => {
            // Per touched key, the value tuples that leave and that enter
            // its entry; the store patches the entry under its key (take
            // out, add, sort again), no other key is read.
            type Tuples<'r> = Vec<&'r [ConstId]>;
            let mut changes: FastMap<ConstId, (Tuples, Tuples)> = FastMap::default();
            for row in deletes.rows() {
                changes.entry(row[0]).or_default().0.push(&row[1..]);
            }
            for row in inserts.rows() {
                changes.entry(row[0]).or_default().1.push(&row[1..]);
            }
            for (key, (gone, born)) in changes {
                let patch = |tuples: &mut IdRows| {
                    for t in gone {
                        let at = tuples.rows().position(|held| held == t);
                        if let Some(at) = at {
                            tuples.swap_out(at);
                        }
                    }
                    for t in born {
                        tuples.push(t.iter().copied());
                    }
                };
                stores.kv.update(namespace, key, value_columns.len(), patch);
            }
        }
        WhereSpec::TextIndex { index } => {
            let t = source.ok_or_else(|| {
                Error::BadFragment(format!("text index {index} written without its table"))
            })?;
            let (key, text) = text_positions(t);
            let (deletes, inserts) = (deletes.to_values(), inserts.to_values());
            let doc = |row: &Row| {
                let words: Vec<&str> = text.iter().filter_map(|c| row[*c].as_str()).collect();
                (key.map_or(Value::Null, |k| row[k].clone()), words.join(" "))
            };
            if !deletes.is_empty() {
                let gone: Vec<(Value, String)> = deletes.iter().map(doc).collect();
                stores.text.remove_documents(index, &gone);
            }
            for row in &inserts {
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
pub(crate) fn accumulate(place: &WhereSpec, rows: &IdRows, arity: usize) -> StatsAccumulator {
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
