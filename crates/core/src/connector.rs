//! Per-DMS connectors: translate a group of rewriting atoms that live in a
//! single fragment/store into a native query, packaged as an executable
//! *unit* — either a `Delegated` plan leaf (runs eagerly) or a
//! [`BindSource`] (probed by BindJoin when the fragment has an access
//! pattern).
//!
//! This module is the mediator→store boundary: the only non-test code that
//! calls the stores' read methods. Every such call is preceded by the
//! backend's fault gate ([`Stores`] owns one per [`SystemId`]), named with
//! the operation a `FaultPlan` rule keys on (`query`, `get`, `mget`,
//! `find`, `term_lookup`, `scan`, `lookup`, `join`).
//!
//! A unit ships what [`Ship`] asks for: only the variables something
//! outside it reads, or — when it is the whole rewriting — the query's
//! [`Tail`] folded into its native request ([`Answers`] says which). See
//! [`crate::translate`] for when a tail is offered.

use crate::catalog::{DocRole, FragmentRelation, FragmentStats, WhereSpec};
use crate::error::{Error, Result};
use crate::layout::unpack_kv_rows;
use crate::system::{FaultGate, Stores, SystemId};
use estocada_docstore::{DocQuery, QueryNode};
use estocada_engine::{BindSource, RowBatch, StoreError, Tuple};
use estocada_parstore::Shape;
use estocada_pivot::{Atom, CmpOp, GroupBy, Term, Value, Var};
use estocada_relstore::{ColRef, Pred, SqlQuery};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Result of a fallible store call (the crate-level [`Result`] alias
/// carries [`Error`], so store-error results spell their type out).
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// Column name carrying variable `v` through engine plans.
pub fn var_col(v: Var) -> String {
    format!("?{}", v.0)
}

/// A residual comparison `var op constant`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Residual {
    /// The compared variable.
    pub var: Var,
    /// Operator (never `=`: equalities are part of the conjunctive core).
    pub op: CmpOp,
    /// Constant.
    pub value: Value,
}

/// Tracks which residual predicates were pushed into delegated units; the
/// rest run as a runtime filter on top of the plan.
#[derive(Debug, Default)]
pub struct ResidualTracker {
    /// All residuals of the query.
    pub items: Vec<Residual>,
    used: Vec<bool>,
}

impl ResidualTracker {
    /// Track `items`.
    pub fn new(items: Vec<Residual>) -> ResidualTracker {
        let used = vec![false; items.len()];
        ResidualTracker { items, used }
    }

    /// Mark residual `i` as pushed down.
    pub fn mark_used(&mut self, i: usize) {
        self.used[i] = true;
    }

    /// Whether a residual not pushed down compares `v`.
    pub fn reads(&self, v: Var) -> bool {
        (self.items.iter().zip(&self.used)).any(|(r, used)| !used && r.var == v)
    }

    /// Whether every residual was pushed down.
    pub fn all_used(&self) -> bool {
        self.used.iter().all(|u| *u)
    }

    /// Residuals not yet pushed down, with their indices.
    pub fn remaining(&self) -> Vec<(usize, Residual)> {
        self.items
            .iter()
            .enumerate()
            .filter(|(i, _)| !self.used[*i])
            .map(|(i, r)| (i, r.clone()))
            .collect()
    }
}

/// The part of a query above its conjunctive core, in the form a store
/// evaluates: `SELECT DISTINCT head` and, for an aggregate query, the
/// grouping over those rows.
pub struct Tail {
    /// The rewriting's head (a head holding a constant is never offered).
    pub head: Vec<Var>,
    /// `GROUP BY` / aggregates / `HAVING` over the distinct head rows.
    pub group: Option<GroupBy>,
}

/// What the rest of the plan wants back from a delegated unit.
pub struct Ship<'a> {
    /// Variables read outside the unit: the query head and every variable
    /// another unit holds too (join and BindJoin inputs).
    pub needed: &'a [Var],
    /// The query's tail, offered when this unit is the whole rewriting.
    pub tail: Option<&'a Tail>,
}

impl<'a> Ship<'a> {
    /// What a unit binding `vars` ships, decided once it has absorbed the
    /// `residuals` it can: the offered tail when its native request can
    /// take one (`foldable`) and nothing is left for the mediator to
    /// filter; otherwise the bindings something outside reads — the
    /// needed variables and those an unabsorbed residual compares. Set
    /// semantics make dropping the rest exact. A unit never ships zero
    /// columns: a columnar batch keeps its row count in them.
    fn of(
        &self,
        vars: &[Var],
        residuals: &ResidualTracker,
        foldable: bool,
    ) -> (Vec<Var>, Option<&'a Tail>) {
        if let Some(tail) = self.tail.filter(|_| foldable && residuals.all_used()) {
            return (tail.head.clone(), Some(tail));
        }
        let read = |v: &&Var| self.needed.contains(*v) || residuals.reads(**v);
        let mut out: Vec<Var> = vars.iter().filter(read).copied().collect();
        if out.is_empty() {
            out.extend(vars.first());
        }
        (out, None)
    }
}

/// What the rows of a unit are.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answers {
    /// One column per `out_vars` variable: bindings for the mediator to
    /// join, filter, project and de-duplicate.
    Bindings,
    /// The distinct rows of the query head — the store ran the `DISTINCT`.
    Head,
    /// The final groups — key columns, then the aggregates — with `HAVING`
    /// applied.
    Groups,
}

impl Answers {
    fn of(tail: Option<&Tail>) -> Answers {
        match tail {
            None => Answers::Bindings,
            Some(Tail { group: None, .. }) => Answers::Head,
            Some(Tail { group: Some(_), .. }) => Answers::Groups,
        }
    }
}

/// Column names of a unit's batch: its variables, or — for final groups —
/// the key variables followed by positional aggregate names (the
/// SELECT-list projection above renames them).
fn out_columns(out_vars: &[Var], tail: Option<&Tail>) -> Vec<String> {
    match tail.and_then(|t| t.group.as_ref()) {
        None => var_cols(out_vars),
        Some(g) => {
            let aggs = (0..g.aggs.len()).map(|j| format!("agg{j}"));
            var_cols(&out_vars[..g.keys])
                .into_iter()
                .chain(aggs)
                .collect()
        }
    }
}

/// Estimated rows of a grouped unit: one per group, so no more than the
/// product of the group columns' distinct counts — and no more than the
/// `core` rows being grouped.
fn group_estimate(core: f64, key_distinct: impl Iterator<Item = u64>) -> f64 {
    core.min(key_distinct.map(|d| d.max(1) as f64).product())
}

/// An executable unit of a translated rewriting.
pub struct Unit {
    /// Display label (store + native query).
    pub label: String,
    /// Variables the unit outputs (for `Bind` units: *excluding* inputs).
    pub out_vars: Vec<Var>,
    /// Variables that must be bound before the unit can run.
    pub inputs: Vec<Var>,
    /// Executable form.
    pub kind: UnitKind,
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// Estimated tuples scanned inside the store (0 for point accesses).
    pub est_scanned: f64,
    /// The store the unit runs on.
    pub system: SystemId,
    /// What its rows are (anything but [`Answers::Bindings`] only for a
    /// `Run` unit that was offered the query's tail).
    pub answers: Answers,
}

/// Executable form of a unit.
pub enum UnitKind {
    /// Runs standalone (free access). The runner is fallible: a store
    /// failure propagates as [`StoreError`] instead of decaying to an
    /// empty row set.
    Run(Arc<dyn Fn() -> StoreResult<RowBatch> + Send + Sync>),
    /// Must be probed with bound inputs.
    Bind(Arc<dyn BindSource>),
}

/// Bind `terms` against `values` under pre-bound `pre`; returns the values
/// of `out_vars` when constants match and repeated variables agree.
fn bind_row(
    terms: &[Term],
    values: &[Value],
    pre: &HashMap<Var, Value>,
    out_vars: &[Var],
) -> Option<Vec<Value>> {
    debug_assert_eq!(terms.len(), values.len());
    let mut local: HashMap<Var, &Value> = HashMap::new();
    for (t, v) in terms.iter().zip(values) {
        match t {
            Term::Const(c) => {
                if c != v {
                    return None;
                }
            }
            Term::Var(var) => {
                if let Some(p) = pre.get(var) {
                    if p != v {
                        return None;
                    }
                } else if let Some(prev) = local.get(var) {
                    if *prev != v {
                        return None;
                    }
                } else {
                    local.insert(*var, v);
                }
            }
        }
    }
    Some(
        out_vars
            .iter()
            .map(|v| (*local.get(v).expect("out var not bound by row")).clone())
            .collect(),
    )
}

/// Distinct variables of `terms` in first-occurrence order.
fn term_vars<'a>(terms: impl IntoIterator<Item = &'a Term>) -> Vec<Var> {
    let mut seen = Vec::new();
    for v in terms.into_iter().filter_map(Term::as_var) {
        if !seen.contains(&v) {
            seen.push(v);
        }
    }
    seen
}

/// Distinct variables of `atoms` in first-occurrence order.
pub fn atom_vars(atoms: &[Atom]) -> Vec<Var> {
    term_vars(atoms.iter().flat_map(|a| &a.args))
}

fn var_cols(vars: &[Var]) -> Vec<String> {
    vars.iter().map(|v| var_col(*v)).collect()
}

fn batch_of(out_vars: &[Var], rows: Vec<Tuple>) -> RowBatch {
    RowBatch {
        columns: var_cols(out_vars),
        rows,
    }
}

/// Whether some variable occurs twice in `terms` — an equality a scan or a
/// join key does not enforce, so rows would need per-row rebinding.
fn repeats_var(terms: &[Term]) -> bool {
    let mut seen = HashSet::new();
    terms
        .iter()
        .filter_map(Term::as_var)
        .any(|v| !seen.insert(v))
}

/// Selectivity helper: `1 / distinct` clamped sanely.
fn eq_selectivity(stats: &FragmentStats, col: usize) -> f64 {
    let d = stats.distinct.get(col).copied().unwrap_or(1).max(1);
    1.0 / d as f64
}

/// Build one SQL unit from relational-fragment atoms (the largest subquery
/// delegated to the relational store). Offered the query's tail, it folds
/// it into the SQL whenever every residual went into the WHERE clause.
pub fn sql_unit(
    atoms: &[(Atom, FragmentRelation, FragmentStats)],
    residuals: &mut ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    let mut q = SqlQuery::new();
    let mut var_ref: HashMap<Var, ColRef> = HashMap::new();
    let mut vars: Vec<Var> = Vec::new();
    let mut est = 1.0f64;
    let mut join_sel = 1.0f64;
    let mut est_scanned = 0.0f64;
    let mut has_const = false;
    for (atom, rel, stats) in atoms {
        let table = match &rel.place {
            WhereSpec::Table { table, .. } => table.clone(),
            other => {
                return Err(Error::Untranslatable(format!(
                    "atom {} is not table-placed: {other:?}",
                    atom.pred
                )))
            }
        };
        let t = q.add_table(&table);
        est *= stats.rows.max(1) as f64;
        est_scanned += stats.rows as f64;
        for (pos, term) in atom.args.iter().enumerate() {
            let cr = ColRef {
                table: t,
                column: pos,
            };
            match term {
                Term::Const(c) => {
                    q.predicates.push(Pred::ColConst(cr, CmpOp::Eq, c.clone()));
                    est *= eq_selectivity(stats, pos);
                    has_const = true;
                }
                Term::Var(v) => {
                    if let Some(existing) = var_ref.get(v) {
                        q.predicates.push(Pred::ColCol(*existing, CmpOp::Eq, cr));
                        join_sel *= eq_selectivity(stats, pos);
                    } else {
                        var_ref.insert(*v, cr);
                        vars.push(*v);
                    }
                }
            }
        }
    }
    // Push applicable residual comparisons into the delegated SQL.
    for (i, r) in residuals.remaining() {
        if let Some(cr) = var_ref.get(&r.var) {
            q.predicates
                .push(Pred::ColConst(*cr, r.op, r.value.clone()));
            residuals.mark_used(i);
            est *= 0.33; // textbook range selectivity
        }
    }
    let (out_vars, tail) = ship.of(&vars, residuals, true);
    let col_of = |v: &Var| {
        var_ref.get(v).copied().ok_or_else(|| {
            Error::Untranslatable(format!(
                "head variable {} not produced by any unit",
                var_col(*v)
            ))
        })
    };
    q.projection = out_vars.iter().map(col_of).collect::<Result<_>>()?;
    q.distinct = tail.is_some();
    q.group = tail.and_then(|t| t.group.clone());
    let mut est_rows = (est * join_sel).max(0.0);
    if let Some(g) = &q.group {
        let distinct_of = |cr: &ColRef| atoms[cr.table].2.distinct.get(cr.column).copied();
        let keys = q.projection[..g.keys].iter();
        est_rows = group_estimate(est_rows, keys.map(|cr| distinct_of(cr).unwrap_or(1)));
    }
    let label = format!("relational: {q}");
    let rel_store = stores.rel.clone();
    let gate = stores.gate(SystemId::Relational);
    let columns = out_columns(&out_vars, tail);
    // A store failure must propagate — never decay to an empty row set.
    let runner = move || {
        gate.check("query")?;
        let rows = rel_store
            .query(&q)
            .map_err(|e| StoreError::internal("relational", "query", e.to_string()))?;
        Ok(RowBatch {
            columns: columns.clone(),
            rows,
        })
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: Vec::new(),
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows,
        // Keyed tables answer constant predicates through indexes.
        est_scanned: if has_const { 0.0 } else { est_scanned },
        system: SystemId::Relational,
        answers: Answers::of(tail),
    })
}

/// The failure of an `op` on a container its store no longer has. The
/// relational and parallel stores report a missing table or dataset
/// themselves; the key-value, document and text stores answer it like an
/// empty one, so their units ask the store whenever an answer is empty — a
/// container dropped behind the catalog's back is the store's failure,
/// which failover can route around, not an empty result.
fn missing_container(sys: SystemId, op: &str, name: &str) -> StoreError {
    let kind = match sys {
        SystemId::KeyValue => "namespace",
        SystemId::Document => "collection",
        SystemId::Text => "index",
        SystemId::Relational | SystemId::Parallel => "container",
    };
    StoreError::internal(&sys.to_string(), op, format!("unknown {kind} {name}"))
}

/// A namespace of the key-value store as one rewriting atom sees it. The
/// point `get` of a constant key and the pipelined `mget` of a BindJoin
/// share the gate and the payload decoding.
struct KvAccess {
    kv: Arc<estocada_kvstore::KvStore>,
    gate: FaultGate,
    namespace: String,
    /// Whether the fragment holds rows: an emptied namespace is dropped
    /// (`layout::write`), so only then is a missing one an error.
    holds_rows: bool,
    /// The key variable, when the key is not a constant.
    key_var: Option<Var>,
    value_terms: Vec<Term>,
    out_vars: Vec<Var>,
    label: String,
}

impl KvAccess {
    /// Decode what is stored under `key` into bound output tuples.
    fn decode(&self, key: &Value, hit: Option<Vec<Value>>) -> Vec<Tuple> {
        let Some(values) = hit else {
            return Vec::new();
        };
        let pre: HashMap<Var, Value> = self.key_var.map(|v| (v, key.clone())).into_iter().collect();
        unpack_kv_rows(&values)
            .into_iter()
            .filter_map(|cells| bind_row(&self.value_terms, &cells, &pre, &self.out_vars))
            .collect()
    }

    /// After an `op` that hit nothing: see [`missing_container`].
    fn namespace_exists(&self, op: &str) -> StoreResult<()> {
        let ns = &self.namespace;
        if self.holds_rows && !self.kv.namespace_names().contains(ns) {
            return Err(missing_container(SystemId::KeyValue, op, ns));
        }
        Ok(())
    }
}

impl BindSource for KvAccess {
    fn out_columns(&self) -> Vec<String> {
        var_cols(&self.out_vars)
    }
    fn fetch_batch(&self, keys: &[Vec<Value>]) -> StoreResult<Vec<Vec<Tuple>>> {
        // Pipelined MGET: the whole probe batch costs one simulated
        // round-trip instead of one per distinct key (and one fault fails
        // the whole batch).
        let flat: Vec<Value> = keys.iter().map(|k| k[0].clone()).collect();
        self.gate.check("mget")?;
        let hits = self.kv.mget(&self.namespace, &flat);
        if hits.iter().all(Option::is_none) {
            self.namespace_exists("mget")?;
        }
        Ok(hits
            .into_iter()
            .zip(&flat)
            .map(|(hit, key)| self.decode(key, hit))
            .collect())
    }
    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Build a key-value unit from one atom over a namespace-placed fragment.
/// A constant key delegates a point `get`; a variable key becomes a
/// BindJoin source.
pub fn kv_unit(
    atom: &Atom,
    rel: &FragmentRelation,
    stats: &FragmentStats,
    residuals: &ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    let namespace = match &rel.place {
        WhereSpec::Namespace { namespace, .. } => namespace.clone(),
        other => {
            return Err(Error::Untranslatable(format!(
                "kv atom placed at {other:?}"
            )))
        }
    };
    let value_terms: Vec<Term> = atom.args[1..].to_vec();
    let key_var = atom.args[0].as_var();
    // Output vars: the value-position vars, other than the key var, that
    // something reads (the whole value is fetched either way).
    let value_vars: Vec<Var> = term_vars(&value_terms)
        .into_iter()
        .filter(|v| Some(*v) != key_var)
        .collect();
    let (out_vars, _) = ship.of(&value_vars, residuals, false);
    let label = match &atom.args[0] {
        Term::Const(key) => format!("key-value: GET {namespace}[{key}]"),
        Term::Var(_) => format!("key-value: GET {namespace}[?]"),
    };
    let access = KvAccess {
        kv: stores.kv.clone(),
        gate: stores.gate(SystemId::KeyValue),
        namespace,
        holds_rows: stats.rows > 0,
        key_var,
        value_terms,
        out_vars: out_vars.clone(),
        label: label.clone(),
    };
    let kind = match &atom.args[0] {
        Term::Const(key) => {
            let key = key.clone();
            UnitKind::Run(Arc::new(move || {
                access.gate.check("get")?;
                let hit = access.kv.get(&access.namespace, &key);
                if hit.is_none() {
                    access.namespace_exists("get")?;
                }
                Ok(batch_of(&access.out_vars, access.decode(&key, hit)))
            }))
        }
        Term::Var(_) => UnitKind::Bind(Arc::new(access)),
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: key_var.into_iter().collect(),
        kind,
        est_rows: 1.0,
        est_scanned: 0.0,
        system: SystemId::KeyValue,
        answers: Answers::Bindings,
    })
}

/// A full-text index as one `Contains(term, key)` atom sees it: the search
/// of a constant term and the per-key probes of a BindJoin share the gate
/// and the binding of the returned document keys.
struct TextAccess {
    text: Arc<estocada_textstore::TextStore>,
    gate: FaultGate,
    index: String,
    /// Whether the fragment holds rows: an emptied index is dropped
    /// (`layout::write`), so only then is a missing one an error.
    holds_rows: bool,
    key_term: Term,
    out_vars: Vec<Var>,
    label: String,
}

impl TextAccess {
    fn lookup(&self, term: &str) -> StoreResult<Vec<Tuple>> {
        self.gate.check("term_lookup")?;
        let key_term = std::slice::from_ref(&self.key_term);
        let keys = self.text.term_lookup(&self.index, term);
        if keys.is_empty() && self.holds_rows && !self.text.index_names().contains(&self.index) {
            return Err(missing_container(
                SystemId::Text,
                "term_lookup",
                &self.index,
            ));
        }
        Ok(keys
            .into_iter()
            .filter_map(|k| bind_row(key_term, &[k], &HashMap::new(), &self.out_vars))
            .collect())
    }
}

impl BindSource for TextAccess {
    fn out_columns(&self) -> Vec<String> {
        var_cols(&self.out_vars)
    }
    fn fetch_batch(&self, keys: &[Vec<Value>]) -> StoreResult<Vec<Vec<Tuple>>> {
        // No batched search: one term lookup per key.
        keys.iter()
            .map(|key| match key[0].as_str() {
                Some(term) => self.lookup(term),
                None => Ok(Vec::new()),
            })
            .collect()
    }
    fn label(&self) -> String {
        self.label.clone()
    }
}

/// Build a full-text unit from one `Contains(term, key)` atom.
pub fn text_unit(
    atom: &Atom,
    rel: &FragmentRelation,
    stats: &FragmentStats,
    stores: &Stores,
) -> Result<Unit> {
    let index = match &rel.place {
        WhereSpec::TextIndex { index } => index.clone(),
        other => {
            return Err(Error::Untranslatable(format!(
                "text atom placed at {other:?}"
            )))
        }
    };
    let avg_postings = (stats.rows.max(1) as f64
        / stats.distinct.first().copied().unwrap_or(1).max(1) as f64)
        .max(1.0);
    let const_term = match &atom.args[0] {
        Term::Const(term) => {
            let term = term
                .as_str()
                .ok_or_else(|| Error::Untranslatable("text search term must be a string".into()))?;
            Some(term.to_string())
        }
        Term::Var(_) => None,
    };
    let term_var = atom.args[0].as_var();
    let key_term = atom.args[1].clone();
    let out_vars = match &key_term {
        Term::Var(v) if Some(*v) != term_var => vec![*v],
        _ => vec![],
    };
    let label = match &const_term {
        Some(term) => format!("text: SEARCH {index} \"{term}\""),
        None => format!("text: SEARCH {index} [bound term]"),
    };
    let access = TextAccess {
        text: stores.text.clone(),
        gate: stores.gate(SystemId::Text),
        index,
        holds_rows: stats.rows > 0,
        key_term,
        out_vars: out_vars.clone(),
        label: label.clone(),
    };
    let kind = match const_term {
        Some(term) => UnitKind::Run(Arc::new(move || {
            Ok(batch_of(&access.out_vars, access.lookup(&term)?))
        })),
        None => UnitKind::Bind(Arc::new(access)),
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: term_var.into_iter().collect(),
        kind,
        est_rows: avg_postings,
        est_scanned: 0.0,
        system: SystemId::Text,
        answers: Answers::Bindings,
    })
}

/// Build a document-store unit from one atom over a row-document fragment.
pub fn doc_rows_unit(
    atom: &Atom,
    rel: &FragmentRelation,
    stats: &FragmentStats,
    residuals: &ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    let (collection, columns) = match &rel.place {
        WhereSpec::Collection {
            collection,
            columns,
        } => (collection.clone(), columns.clone()),
        other => {
            return Err(Error::Untranslatable(format!(
                "doc atom placed at {other:?}"
            )))
        }
    };
    let mut filter = estocada_docstore::Filter::all();
    let mut est = stats.rows.max(1) as f64;
    let mut has_const = false;
    for (pos, term) in atom.args.iter().enumerate() {
        if let Term::Const(c) = term {
            filter = filter.eq(&columns[pos], c.clone());
            est *= eq_selectivity(stats, pos);
            has_const = true;
        }
    }
    let (out_vars, _) = ship.of(&atom_vars(std::slice::from_ref(atom)), residuals, false);
    let label = format!("document: FIND {collection} {:?}", filter.clauses);
    let doc = stores.doc.clone();
    let gate = stores.gate(SystemId::Document);
    let ov = out_vars.clone();
    let terms = atom.args.clone();
    let runner = move || {
        let paths: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        gate.check("find")?;
        let docs = doc.find(&collection, &filter, Some(&paths));
        if docs.is_empty() && !doc.collection_names().contains(&collection) {
            return Err(missing_container(SystemId::Document, "find", &collection));
        }
        let rows: Vec<Tuple> = docs
            .into_iter()
            .filter_map(|d| {
                let values: Vec<Value> = columns
                    .iter()
                    .map(|c| d.get(c).cloned().unwrap_or(Value::Null))
                    .collect();
                bind_row(&terms, &values, &HashMap::new(), &ov)
            })
            .collect();
        Ok(batch_of(&ov, rows))
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: Vec::new(),
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        est_scanned: if has_const { 0.0 } else { stats.rows as f64 },
        system: SystemId::Document,
        answers: Answers::Bindings,
    })
}

/// Build a parallel-store unit from one or two atoms over par-dataset
/// fragments (two atoms sharing a variable delegate a native parallel
/// join — the "largest delegable subquery" on Spark).
pub fn par_unit(
    atoms: &[(Atom, FragmentRelation, FragmentStats)],
    residuals: &mut ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    match atoms {
        [one] => par_scan_unit(one, residuals, stores, ship),
        [l, r] => par_join_unit(l, r, residuals, stores, ship),
        _ => Err(Error::Untranslatable(
            "parallel units support at most two atoms".into(),
        )),
    }
}

fn par_place(rel: &FragmentRelation) -> Result<(String, Vec<String>, Vec<usize>)> {
    match &rel.place {
        WhereSpec::ParDataset {
            dataset,
            columns,
            indexed,
        } => Ok((dataset.clone(), columns.clone(), indexed.clone())),
        other => Err(Error::Untranslatable(format!(
            "par atom placed at {other:?}"
        ))),
    }
}

/// A parallel-store failure as the engine's store error.
fn par_error(op: &'static str, e: estocada_parstore::ParError) -> StoreError {
    StoreError::internal("parallel", op, e.to_string())
}

/// What a parallel unit asks of the store and how it reads the answer.
struct ParRequest {
    /// The unit's output variables.
    out_vars: Vec<Var>,
    /// The request's shape: the unit's columns and, folded, the tail.
    shape: Shape,
    /// `Some(terms)` when the request cannot enforce every constant and
    /// repeated variable of `terms` itself: whole rows come back and each
    /// is re-bound. `None`: the shaped rows stream through unchanged.
    rebind: Option<Vec<Term>>,
    columns: Vec<String>,
    answers: Answers,
}

impl ParRequest {
    /// The request of a unit over `terms` (the scanned atom's arguments,
    /// or `left ++ right` of a join). `exact` says the request itself
    /// enforces every constant and repeated variable of `terms`; only then
    /// can the store project — and take a tail.
    fn new(
        terms: &[Term],
        exact: bool,
        residuals: &ResidualTracker,
        ship: &Ship,
    ) -> Result<ParRequest> {
        let (out_vars, tail) = ship.of(&term_vars(terms), residuals, exact);
        let first_pos = |v: &Var| {
            let pos = terms.iter().position(|t| t.as_var() == Some(*v));
            pos.ok_or_else(|| {
                Error::Untranslatable(format!(
                    "head variable {} not produced by any unit",
                    var_col(*v)
                ))
            })
        };
        let shape = match exact {
            false => Shape::default(),
            true => Shape {
                projection: Some(out_vars.iter().map(first_pos).collect::<Result<_>>()?),
                distinct: tail.is_some(),
                group: tail.and_then(|t| t.group.clone()),
            },
        };
        Ok(ParRequest {
            columns: out_columns(&out_vars, tail),
            out_vars,
            shape,
            rebind: (!exact).then(|| terms.to_vec()),
            answers: Answers::of(tail),
        })
    }

    /// Label suffix of a shape that projects, de-duplicates or groups.
    fn label(&self) -> String {
        match self.shape.to_string() {
            sql if sql.is_empty() => sql,
            sql => format!(" → {sql}"),
        }
    }

    /// `core` estimated rows, or the group estimate when the tail's
    /// grouping was folded in (`distinct_of` a selected-row position).
    fn estimate(&self, core: f64, distinct_of: impl Fn(usize) -> Option<u64>) -> f64 {
        let Some(g) = &self.shape.group else {
            return core;
        };
        let keys = self.shape.projection.iter().flatten().take(g.keys);
        group_estimate(core, keys.map(|c| distinct_of(*c).unwrap_or(1)))
    }

    fn batch(&self, rows: Vec<Tuple>) -> RowBatch {
        let rows = match &self.rebind {
            None => rows,
            Some(terms) => rows
                .into_iter()
                .filter_map(|r| bind_row(terms, &r, &HashMap::new(), &self.out_vars))
                .collect(),
        };
        RowBatch {
            columns: self.columns.clone(),
            rows,
        }
    }
}

fn par_scan_unit(
    (atom, rel, stats): &(Atom, FragmentRelation, FragmentStats),
    residuals: &mut ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    use estocada_parstore::ColPred;
    let (dataset, _columns, indexed) = par_place(rel)?;
    let mut preds = Vec::new();
    let mut est = stats.rows.max(1) as f64;
    let mut const_cols = Vec::new();
    for (pos, term) in atom.args.iter().enumerate() {
        if let Term::Const(c) = term {
            preds.push(ColPred {
                col: pos,
                op: CmpOp::Eq,
                value: c.clone(),
            });
            const_cols.push(pos);
            est *= eq_selectivity(stats, pos);
        }
    }
    // Push applicable residual comparisons into the delegated scan.
    for (i, r) in residuals.remaining() {
        // `<>` is not delegated to the parallel store.
        if matches!(r.op, CmpOp::Ne) {
            continue;
        }
        if let Some(pos) = atom.args.iter().position(|t| t.as_var() == Some(r.var)) {
            preds.push(ColPred {
                col: pos,
                op: r.op,
                value: r.value.clone(),
            });
            residuals.mark_used(i);
            est *= 0.33;
        }
    }
    // Use the key index when every indexed column is bound by a constant.
    let use_index = !indexed.is_empty() && indexed.iter().all(|c| const_cols.contains(c));
    // Constants are enforced by `preds`; a variable repeated within the
    // atom is not.
    let req = ParRequest::new(&atom.args, !repeats_var(&atom.args), residuals, ship)?;
    let est = req.estimate(est, |c| stats.distinct.get(c).copied());
    let label = if use_index {
        format!("parallel: LOOKUP {dataset} by key index{}", req.label())
    } else {
        let n = preds.len();
        format!("parallel: SCAN {dataset} ({n} preds){}", req.label())
    };
    let par = stores.par.clone();
    let gate = stores.gate(SystemId::Parallel);
    let key: Vec<Value> = indexed
        .iter()
        .filter_map(|c| atom.args.get(*c).and_then(|t| t.as_const().cloned()))
        .collect();
    let (out_vars, answers) = (req.out_vars.clone(), req.answers);
    let runner = move || {
        let rows = if use_index {
            gate.check("lookup")?;
            par.lookup(&dataset, &key, &preds, &req.shape)
                .map_err(|e| par_error("lookup", e))?
        } else {
            gate.check("scan")?;
            par.scan(&dataset, &preds, &req.shape)
                .map_err(|e| par_error("scan", e))?
        };
        Ok(req.batch(rows))
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: Vec::new(),
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        est_scanned: if use_index { 0.0 } else { stats.rows as f64 },
        system: SystemId::Parallel,
        answers,
    })
}

fn par_join_unit(
    (latom, lrel, lstats): &(Atom, FragmentRelation, FragmentStats),
    (ratom, rrel, rstats): &(Atom, FragmentRelation, FragmentStats),
    residuals: &ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    let (lds, lcols, _) = par_place(lrel)?;
    let (rds, rcols, _) = par_place(rrel)?;
    // Join keys: shared variables.
    let lvars: Vec<Option<Var>> = latom.args.iter().map(Term::as_var).collect();
    let rvars: Vec<Option<Var>> = ratom.args.iter().map(Term::as_var).collect();
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    for (li, lv) in lvars.iter().enumerate() {
        if let Some(lv) = lv {
            if let Some(ri) = rvars.iter().position(|rv| rv.as_ref() == Some(lv)) {
                lkeys.push(lcols[li].clone());
                rkeys.push(rcols[ri].clone());
            }
        }
    }
    if lkeys.is_empty() {
        return Err(Error::Untranslatable(
            "parallel join unit requires a shared variable".into(),
        ));
    }
    let mut combined_terms = latom.args.clone();
    combined_terms.extend(ratom.args.iter().cloned());
    // The join enforces cross-atom key equality only: constants, and a
    // variable repeated *within* one atom, need each joined row re-bound.
    let exact = !(combined_terms.iter().any(|t| t.as_const().is_some())
        || repeats_var(&latom.args)
        || repeats_var(&ratom.args));
    let req = ParRequest::new(&combined_terms, exact, residuals, ship)?;
    let est = (lstats.rows.max(1) as f64 * rstats.rows.max(1) as f64)
        / lstats
            .distinct
            .first()
            .copied()
            .unwrap_or(1)
            .max(1)
            .max(rstats.distinct.first().copied().unwrap_or(1).max(1)) as f64;
    let est = req.estimate(est, |c| match c.checked_sub(latom.args.len()) {
        Some(rc) => rstats.distinct.get(rc).copied(),
        None => lstats.distinct.get(c).copied(),
    });
    let label = format!("parallel: JOIN {lds} ⋈ {rds} on {lkeys:?}{}", req.label());
    let par = stores.par.clone();
    let gate = stores.gate(SystemId::Parallel);
    let (out_vars, answers) = (req.out_vars.clone(), req.answers);
    let runner = move || {
        let lk: Vec<&str> = lkeys.iter().map(|s| s.as_str()).collect();
        let rk: Vec<&str> = rkeys.iter().map(|s| s.as_str()).collect();
        gate.check("join")?;
        let rows = par
            .join(&lds, &rds, &lk, &rk, &req.shape)
            .map_err(|e| par_error("join", e))?;
        Ok(req.batch(rows))
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: Vec::new(),
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        est_scanned: (lstats.rows + rstats.rows) as f64,
        system: SystemId::Parallel,
        answers,
    })
}

/// Build a native-document tree unit from a connected group of
/// document-encoding atoms: "it can be inferred that the atoms … refer to a
/// single document, by following the connections among nodes and knowledge
/// of the JSON data model".
pub fn doc_tree_unit(
    atoms: &[(Atom, FragmentRelation, FragmentStats)],
    stores: &Stores,
) -> Result<Unit> {
    let mut collection = None;
    let mut root_vars: Vec<Var> = Vec::new();
    let mut edges: Vec<(Var, Var, bool)> = Vec::new(); // (parent, child, is_desc)
    let mut tags: HashMap<Var, String> = HashMap::new();
    let mut val_eq: HashMap<Var, Value> = HashMap::new();
    let mut val_bind: Vec<(Var, Var)> = Vec::new(); // (node var, value var)
    let mut doc_count = 0f64;

    for (atom, rel, stats) in atoms {
        let role = match &rel.place {
            WhereSpec::NativeDocs {
                collection: c,
                role,
            } => {
                match &collection {
                    None => collection = Some(c.clone()),
                    Some(existing) if existing == c => {}
                    Some(_) => {
                        return Err(Error::Untranslatable(
                            "tree unit spans two collections".into(),
                        ))
                    }
                }
                *role
            }
            other => {
                return Err(Error::Untranslatable(format!(
                    "doc atom placed at {other:?}"
                )))
            }
        };
        doc_count = doc_count.max(stats.rows as f64);
        let var_at = |i: usize| -> Result<Var> {
            atom.args[i].as_var().ok_or_else(|| {
                Error::Untranslatable(format!("node position of {} must be a variable", atom.pred))
            })
        };
        match role {
            DocRole::Root => root_vars.push(var_at(1)?),
            DocRole::Doc => { /* names are not stored natively; ignore */ }
            DocRole::Child => edges.push((var_at(0)?, var_at(1)?, false)),
            DocRole::Desc => edges.push((var_at(0)?, var_at(1)?, true)),
            DocRole::Node => {
                let tag = atom.args[1]
                    .as_const()
                    .and_then(|c| c.as_str())
                    .ok_or_else(|| {
                        Error::Untranslatable("node tag must be a string constant".into())
                    })?;
                tags.insert(var_at(0)?, tag.to_string());
            }
            DocRole::Val => match &atom.args[1] {
                Term::Const(c) => {
                    val_eq.insert(var_at(0)?, c.clone());
                }
                Term::Var(v) => val_bind.push((var_at(0)?, *v)),
            },
        }
    }
    let collection =
        collection.ok_or_else(|| Error::Untranslatable("empty document unit".into()))?;
    if root_vars.is_empty() {
        return Err(Error::Untranslatable(
            "document pattern has no Root atom".into(),
        ));
    }
    // Build the pattern tree below the root variable(s).
    let mut by_parent: HashMap<Var, Vec<(Var, bool)>> = HashMap::new();
    let mut child_count: HashMap<Var, usize> = HashMap::new();
    for (p, c, d) in &edges {
        by_parent.entry(*p).or_default().push((*c, *d));
        *child_count.entry(*c).or_insert(0) += 1;
        if child_count[c] > 1 {
            return Err(Error::Untranslatable(
                "document pattern is not tree-shaped".into(),
            ));
        }
    }
    fn build(
        node: Var,
        desc: bool,
        by_parent: &HashMap<Var, Vec<(Var, bool)>>,
        tags: &HashMap<Var, String>,
        val_eq: &HashMap<Var, Value>,
        val_bind: &[(Var, Var)],
        out_vars: &mut Vec<Var>,
    ) -> Result<QueryNode> {
        let tag = tags
            .get(&node)
            .ok_or_else(|| Error::Untranslatable(format!("node {node} has no tag atom")))?;
        let mut qn = if desc {
            QueryNode::descendant(tag)
        } else {
            QueryNode::child(tag)
        };
        if let Some(c) = val_eq.get(&node) {
            qn = qn.eq(c.clone());
        }
        for (n, v) in val_bind {
            if *n == node {
                qn = qn.bind(&var_col(*v));
                out_vars.push(*v);
            }
        }
        for (child, d) in by_parent.get(&node).cloned().unwrap_or_default() {
            qn = qn.with(build(
                child, d, by_parent, tags, val_eq, val_bind, out_vars,
            )?);
        }
        Ok(qn)
    }
    let mut out_vars = Vec::new();
    let mut q = DocQuery::new(&collection);
    for root in &root_vars {
        for (child, d) in by_parent.get(root).cloned().unwrap_or_default() {
            q = q.with(build(
                child,
                d,
                &by_parent,
                &tags,
                &val_eq,
                &val_bind,
                &mut out_vars,
            )?);
        }
    }
    // Column order must follow the store's pre-order convention.
    let columns = q.columns();
    let ordered_vars: Vec<Var> = columns
        .iter()
        .map(|c| {
            out_vars
                .iter()
                .copied()
                .find(|v| var_col(*v) == *c)
                .expect("bound column lost")
        })
        .collect();
    let label = format!(
        "document: TREE-QUERY {collection} ({} steps)",
        q.roots.len()
    );
    let doc = stores.doc.clone();
    let gate = stores.gate(SystemId::Document);
    let ov = ordered_vars.clone();
    let runner = move || {
        gate.check("query")?;
        let (_cols, rows) = doc.query(&q);
        if rows.is_empty() && !doc.collection_names().contains(&collection) {
            return Err(missing_container(SystemId::Document, "query", &collection));
        }
        Ok(batch_of(&ov, rows))
    };
    // A top-level equality makes the store's path index applicable.
    let indexed = !val_eq.is_empty();
    Ok(Unit {
        label,
        out_vars: ordered_vars,
        inputs: Vec::new(),
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: doc_count.max(1.0),
        est_scanned: if indexed { 0.0 } else { doc_count },
        system: SystemId::Document,
        answers: Answers::Bindings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bind_row_checks_constants_and_repeats() {
        let terms = vec![Term::constant(1i64), Term::var(0), Term::var(0)];
        let ok = bind_row(
            &terms,
            &[Value::Int(1), Value::Int(5), Value::Int(5)],
            &HashMap::new(),
            &[Var(0)],
        );
        assert_eq!(ok, Some(vec![Value::Int(5)]));
        // Repeated var mismatch.
        assert!(bind_row(
            &terms,
            &[Value::Int(1), Value::Int(5), Value::Int(6)],
            &HashMap::new(),
            &[Var(0)],
        )
        .is_none());
        // Constant mismatch.
        assert!(bind_row(
            &terms,
            &[Value::Int(2), Value::Int(5), Value::Int(5)],
            &HashMap::new(),
            &[Var(0)],
        )
        .is_none());
    }

    #[test]
    fn bind_row_respects_pre_bound_vars() {
        let terms = vec![Term::var(0), Term::var(1)];
        let mut pre = HashMap::new();
        pre.insert(Var(0), Value::Int(9));
        assert!(bind_row(&terms, &[Value::Int(8), Value::Int(1)], &pre, &[Var(1)]).is_none());
        assert_eq!(
            bind_row(&terms, &[Value::Int(9), Value::Int(1)], &pre, &[Var(1)]),
            Some(vec![Value::Int(1)])
        );
    }

    #[test]
    fn atom_vars_first_occurrence_order() {
        let a1 = Atom::new("R", vec![Term::var(3), Term::var(1)]);
        let a2 = Atom::new("S", vec![Term::var(1), Term::var(2)]);
        assert_eq!(atom_vars(&[a1, a2]), vec![Var(3), Var(1), Var(2)]);
    }
}
