//! The Storage Descriptor Manager: fragments, their view definitions (the
//! *what*), their physical placement (the *where*), the access operations
//! each store supports, and the gathered statistics.

use crate::system::SystemId;
use estocada_pivot::{AccessPattern, Cq, Symbol, Value, ViewDef};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A relaxed atomic usage counter: concurrent query threads bump it through
/// a shared `&Catalog` ([`Catalog::record_use`]) without serializing on the
/// mediator. Cloning snapshots the current count.
#[derive(Debug, Default)]
pub struct UseCount(AtomicU64);

impl UseCount {
    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Add one use.
    pub fn bump(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
}

impl Clone for UseCount {
    fn clone(&self) -> UseCount {
        UseCount(AtomicU64::new(self.get()))
    }
}

impl From<u64> for UseCount {
    fn from(n: u64) -> UseCount {
        UseCount(AtomicU64::new(n))
    }
}

impl PartialEq for UseCount {
    fn eq(&self, other: &UseCount) -> bool {
        self.get() == other.get()
    }
}
impl Eq for UseCount {}

/// How the mediator may specify a fragment to be built.
#[derive(Debug, Clone)]
pub enum FragmentSpec {
    /// Materialize `view` as a table in the relational store; optional
    /// secondary indexes on the named head columns.
    Table {
        /// The view to materialize.
        view: Cq,
        /// Head columns to index.
        index_on: Vec<String>,
    },
    /// Materialize `view` in the key-value store: head column 0 is the key,
    /// the rest are packed as the value.
    KeyValue {
        /// The view to materialize.
        view: Cq,
    },
    /// Materialize `view` rows as flat documents in the document store;
    /// optional path indexes on head columns.
    DocRows {
        /// The view to materialize.
        view: Cq,
        /// Head columns to index.
        index_on: Vec<String>,
    },
    /// Materialize `view` as a partitioned dataset in the parallel store;
    /// optional key index on the named head columns.
    ParRows {
        /// The view to materialize.
        view: Cq,
        /// Head columns of the key index.
        index_on: Vec<String>,
        /// Partition count (0 = store default).
        partitions: usize,
    },
    /// Store a document dataset "as such" in the document store: exposes
    /// identity views over all six document-encoding relations, answered
    /// natively by tree-pattern queries.
    NativeDoc {
        /// The document dataset name.
        dataset: String,
    },
    /// Store a relational dataset "as such": every table (or only the
    /// listed ones) becomes an identity-view fragment relation in the
    /// relational store.
    NativeTables {
        /// The relational dataset name.
        dataset: String,
        /// Restrict to these tables (`None` = all).
        only: Option<Vec<String>>,
    },
    /// Full-text index over a table's text columns: exposes the identity
    /// view of `{table}_Terms(term, key)` with an `io` access pattern,
    /// answered by the text store.
    TextIndex {
        /// The source table name.
        table: String,
    },
}

impl FragmentSpec {
    /// Short kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            FragmentSpec::Table { .. } => "table",
            FragmentSpec::KeyValue { .. } => "key-value",
            FragmentSpec::DocRows { .. } => "doc-rows",
            FragmentSpec::ParRows { .. } => "par-rows",
            FragmentSpec::NativeDoc { .. } => "native-doc",
            FragmentSpec::NativeTables { .. } => "native-tables",
            FragmentSpec::TextIndex { .. } => "text-index",
        }
    }

    /// The defining view CQ, for specs that materialize one (`None` for
    /// native and text-index fragments, which expose identity views).
    pub fn view(&self) -> Option<&Cq> {
        match self {
            FragmentSpec::Table { view, .. }
            | FragmentSpec::KeyValue { view }
            | FragmentSpec::DocRows { view, .. }
            | FragmentSpec::ParRows { view, .. } => Some(view),
            FragmentSpec::NativeDoc { .. }
            | FragmentSpec::NativeTables { .. }
            | FragmentSpec::TextIndex { .. } => None,
        }
    }

    /// The system a spec targets.
    pub fn system(&self) -> SystemId {
        match self {
            FragmentSpec::Table { .. } | FragmentSpec::NativeTables { .. } => SystemId::Relational,
            FragmentSpec::KeyValue { .. } => SystemId::KeyValue,
            FragmentSpec::DocRows { .. } | FragmentSpec::NativeDoc { .. } => SystemId::Document,
            FragmentSpec::ParRows { .. } => SystemId::Parallel,
            FragmentSpec::TextIndex { .. } => SystemId::Text,
        }
    }
}

/// Physical placement of one fragment relation inside its store — the
/// *where* part of the storage descriptor.
#[derive(Debug, Clone)]
pub enum WhereSpec {
    /// A relational table.
    Table {
        /// Table name.
        table: String,
        /// Column names in head order.
        columns: Vec<String>,
    },
    /// A key-value namespace; head column 0 is the key.
    Namespace {
        /// Namespace name.
        namespace: String,
        /// Value column names (head columns 1..).
        value_columns: Vec<String>,
    },
    /// A document collection of flat row-objects.
    Collection {
        /// Collection name.
        collection: String,
        /// Field names in head order.
        columns: Vec<String>,
    },
    /// The native documents of a dataset (tree queries).
    NativeDocs {
        /// Document collection / dataset prefix.
        collection: String,
        /// Which encoding relation this fragment relation mirrors
        /// (`Doc`/`Root`/`Node`/`Child`/`Desc`/`Val`).
        role: DocRole,
    },
    /// A parallel-store dataset.
    ParDataset {
        /// Dataset name.
        dataset: String,
        /// Column names in head order.
        columns: Vec<String>,
        /// Key-indexed columns (head positions).
        indexed: Vec<usize>,
    },
    /// A text index.
    TextIndex {
        /// Index name in the text store.
        index: String,
    },
}

/// The six roles of document-encoding relations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DocRole {
    /// `Doc(docID, name)`.
    Doc,
    /// `Root(docID, nodeID)`.
    Root,
    /// `Node(nodeID, tag)`.
    Node,
    /// `Child(parentID, childID)`.
    Child,
    /// `Desc(ancID, descID)`.
    Desc,
    /// `Val(nodeID, value)`.
    Val,
}

/// One relation exposed by a fragment: the unit the rewriter sees.
#[derive(Debug, Clone)]
pub struct FragmentRelation {
    /// Fragment-relation name (what rewritings mention).
    pub name: Symbol,
    /// The view definition: what of the dataset(s) this relation stores.
    pub view: ViewDef,
    /// Access restriction, if any.
    pub access: Option<AccessPattern>,
    /// Physical placement.
    pub place: WhereSpec,
}

/// Statistics of one fragment relation.
#[derive(Debug, Clone, Default)]
pub struct FragmentStats {
    /// Tuple count.
    pub rows: u64,
    /// Distinct values per head column.
    pub distinct: Vec<u64>,
    /// Approximate bytes.
    pub bytes: u64,
}

/// [`FragmentStats`] in running form — the one definition of what a
/// relation's statistics are. Rows enter and leave one at a time, so a
/// first fill (every row enters) and a DML delta (the changed rows enter or
/// leave) arrive at the same numbers, and the delta never re-reads a row
/// that did not change.
#[derive(Debug, Clone)]
pub(crate) struct StatsAccumulator {
    rows: u64,
    bytes: u64,
    /// Per tracked column: value → number of rows holding it.
    columns: Vec<HashMap<Value, u64>>,
}

impl StatsAccumulator {
    /// The accumulator of a relation holding `rows`. Distinct values are
    /// tracked for the first `arity` columns of each row, bytes for all.
    pub(crate) fn of<'a>(
        rows: impl IntoIterator<Item = &'a Vec<Value>>,
        arity: usize,
    ) -> StatsAccumulator {
        let mut acc = StatsAccumulator {
            rows: 0,
            bytes: 0,
            columns: vec![HashMap::new(); arity],
        };
        rows.into_iter().for_each(|row| acc.add(row));
        acc
    }

    /// A row enters the relation.
    pub(crate) fn add(&mut self, row: &[Value]) {
        self.rows += 1;
        self.bytes += row.iter().map(|v| v.approx_size() as u64).sum::<u64>();
        for (held, v) in self.columns.iter_mut().zip(row) {
            match held.get_mut(v) {
                Some(n) => *n += 1,
                None => drop(held.insert(v.clone(), 1)),
            }
        }
    }

    /// A row that entered earlier leaves the relation.
    pub(crate) fn remove(&mut self, row: &[Value]) {
        self.rows = self.rows.saturating_sub(1);
        let bytes = row.iter().map(|v| v.approx_size() as u64).sum::<u64>();
        self.bytes = self.bytes.saturating_sub(bytes);
        for (held, v) in self.columns.iter_mut().zip(row) {
            if let Some(n) = held.get_mut(v) {
                *n -= 1;
                if *n == 0 {
                    held.remove(v);
                }
            }
        }
    }

    /// Rows currently in the relation.
    pub(crate) fn rows(&self) -> u64 {
        self.rows
    }

    /// The statistics of the rows currently in the relation.
    pub(crate) fn finish(&self) -> FragmentStats {
        FragmentStats {
            rows: self.rows,
            distinct: self.columns.iter().map(|held| held.len() as u64).collect(),
            bytes: self.bytes,
        }
    }
}

/// A registered fragment: a storage descriptor plus runtime bookkeeping.
#[derive(Debug, Clone)]
pub struct FragmentMeta {
    /// Unique fragment id.
    pub id: String,
    /// Target system.
    pub system: SystemId,
    /// The defining specification.
    pub spec: FragmentSpec,
    /// Exposed relations.
    pub relations: Vec<FragmentRelation>,
    /// Per-relation statistics (parallel to `relations`).
    pub stats: Vec<FragmentStats>,
    /// Access credentials (carried verbatim; the simulated stores do not
    /// authenticate, but the descriptor format mirrors the paper).
    pub credentials: String,
    /// How many query rewritings have used this fragment (advisor input).
    /// Atomic so the shared `&self` query path can count uses concurrently.
    pub use_count: UseCount,
}

impl fmt::Display for FragmentMeta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "fragment {} [{} on {}]",
            self.id,
            self.spec.kind(),
            self.system
        )?;
        for (r, s) in self.relations.iter().zip(&self.stats) {
            writeln!(f, "  what:  {}", r.view.view)?;
            if let Some(a) = &r.access {
                writeln!(f, "  access pattern: {a}")?;
            }
            writeln!(f, "  where: {:?}", r.place)?;
            writeln!(f, "  stats: {} rows, ~{} bytes", s.rows, s.bytes)?;
        }
        Ok(())
    }
}

/// The catalog of registered fragments.
#[derive(Debug, Default)]
pub struct Catalog {
    fragments: Vec<FragmentMeta>,
    by_relation: HashMap<Symbol, (usize, usize)>,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a fragment; relation names must be globally fresh.
    pub fn add(&mut self, meta: FragmentMeta) {
        let idx = self.fragments.len();
        for (ri, r) in meta.relations.iter().enumerate() {
            let prev = self.by_relation.insert(r.name, (idx, ri));
            assert!(
                prev.is_none(),
                "fragment relation {} registered twice",
                r.name
            );
        }
        self.fragments.push(meta);
    }

    /// Remove a fragment by id; returns it when found.
    pub fn remove(&mut self, id: &str) -> Option<FragmentMeta> {
        let idx = self.fragments.iter().position(|f| f.id == id)?;
        let meta = self.fragments.remove(idx);
        self.by_relation.clear();
        for (i, f) in self.fragments.iter().enumerate() {
            for (ri, r) in f.relations.iter().enumerate() {
                self.by_relation.insert(r.name, (i, ri));
            }
        }
        Some(meta)
    }

    /// All fragments.
    pub fn fragments(&self) -> &[FragmentMeta] {
        &self.fragments
    }

    /// Mutable access (stats refresh, use counting).
    pub fn fragments_mut(&mut self) -> &mut [FragmentMeta] {
        &mut self.fragments
    }

    /// Resolve a fragment relation name.
    pub fn relation(
        &self,
        name: Symbol,
    ) -> Option<(&FragmentMeta, &FragmentRelation, &FragmentStats)> {
        self.by_relation.get(&name).map(|(fi, ri)| {
            let f = &self.fragments[*fi];
            (f, &f.relations[*ri], &f.stats[*ri])
        })
    }

    /// Record one use of the fragment owning `name`. Takes `&self`: usage
    /// counting is the only catalog write on the query path, and making it
    /// atomic is what lets concurrent queries share the catalog read-only.
    pub fn record_use(&self, name: Symbol) {
        if let Some((fi, _)) = self.by_relation.get(&name).copied() {
            self.fragments[fi].use_count.bump();
        }
    }

    /// Every view definition, for the rewriter.
    pub fn view_defs(&self) -> Vec<ViewDef> {
        self.fragments
            .iter()
            .flat_map(|f| f.relations.iter().map(|r| r.view.clone()))
            .collect()
    }

    /// The access map over fragment relations, for feasibility checks.
    pub fn access_map(&self) -> estocada_pivot::AccessMap {
        let mut m = estocada_pivot::AccessMap::new();
        for f in &self.fragments {
            for r in &f.relations {
                if let Some(p) = &r.access {
                    m.set(r.name, p.clone());
                }
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::CqBuilder;

    fn meta(id: &str, rel: &str) -> FragmentMeta {
        let view = ViewDef::new(
            CqBuilder::new(rel)
                .head_vars(["x"])
                .atom("R", |a| a.v("x"))
                .build(),
        );
        FragmentMeta {
            id: id.into(),
            system: SystemId::Relational,
            spec: FragmentSpec::Table {
                view: view.view.clone(),
                index_on: vec![],
            },
            relations: vec![FragmentRelation {
                name: Symbol::intern(rel),
                view,
                access: None,
                place: WhereSpec::Table {
                    table: rel.into(),
                    columns: vec!["x".into()],
                },
            }],
            stats: vec![FragmentStats::default()],
            credentials: String::new(),
            use_count: Default::default(),
        }
    }

    #[test]
    fn add_and_resolve() {
        let mut c = Catalog::new();
        c.add(meta("f1", "V1"));
        assert!(c.relation(Symbol::intern("V1")).is_some());
        assert_eq!(c.view_defs().len(), 1);
    }

    #[test]
    fn remove_rebuilds_index() {
        let mut c = Catalog::new();
        c.add(meta("f1", "V1"));
        c.add(meta("f2", "V2"));
        assert!(c.remove("f1").is_some());
        assert!(c.relation(Symbol::intern("V1")).is_none());
        assert!(c.relation(Symbol::intern("V2")).is_some());
        assert!(c.remove("f1").is_none());
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_relation_rejected() {
        let mut c = Catalog::new();
        c.add(meta("f1", "V1"));
        c.add(meta("f2", "V1"));
    }

    #[test]
    fn use_counting() {
        let mut c = Catalog::new();
        c.add(meta("f1", "V1"));
        c.record_use(Symbol::intern("V1"));
        c.record_use(Symbol::intern("V1"));
        assert_eq!(c.fragments()[0].use_count.get(), 2);
    }
}
