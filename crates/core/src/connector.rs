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
//! `find`, `term_lookup`, `scan`, `lookup`, `join`). Every answer crosses
//! it in interned cells: a runner's [`Batch`], and a BindJoin probe's
//! [`Fetched`] for keys that came in interned too.
//!
//! A unit ships what [`Ship`] asks for: only the variables something
//! outside it reads, or — when it is the whole rewriting — the query's
//! [`Tail`] folded into its native request ([`Answers`] says which). See
//! [`crate::translate`] for when a tail is offered.
//!
//! No builder prices its own scan: each returns, beside its request, one
//! [`Access`] per container the request reads, classified as the store
//! will serve the request — a relational table from the indexes the store
//! holds, a parallel dataset from the key its store holds, any other
//! container from the placement's `indexed` list — and
//! [`crate::cost::estimate`] prices them. A SQL unit also notes each table
//! it scans in full for an `=` constant, and a parallel scan unit an
//! unkeyed dataset it so scans ([`EqScan`]): once a query whose plan ran it
//! has its answer, the mediator indexes that table column or keys that
//! dataset on it (`layout::index`), and the next translation probes it.

use crate::catalog::{DocRole, FragmentRelation, FragmentStats, WhereSpec};
use crate::cost::Access;
use crate::error::{Error, Result};
use crate::system::{FaultGate, Stores, SystemId};
use estocada_docstore::{DocQuery, QueryNode};
use estocada_engine::{Batch, BindSource, Columns, Fetched, Runner, StoreError};
use estocada_parstore::Shape;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{Atom, CmpOp, ConstId, ConstReader, GroupBy, IdRows, Term, Value, Var};
use estocada_relstore::{ColRef, Pred, SqlQuery};
use std::sync::Arc;

/// Result of a fallible store call (the crate-level [`Result`] alias
/// carries [`Error`], so store-error results spell their type out).
pub type StoreResult<T> = std::result::Result<T, StoreError>;

/// The cell a document field it does not hold reads as.
static NULL: Value = Value::Null;

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

/// Column names of a unit's batch, named once when the unit is built: its
/// variables, or — for final groups — the key variables followed by
/// positional aggregate names (the SELECT-list projection above renames
/// them).
fn out_columns(out_vars: &[Var], tail: Option<&Tail>) -> Columns {
    match tail.and_then(|t| t.group.as_ref()) {
        None => var_cols(out_vars),
        Some(g) => {
            let keys = out_vars[..g.keys].iter().map(|v| var_col(*v));
            let aggs = (0..g.aggs.len()).map(|j| format!("agg{j}"));
            keys.chain(aggs).collect()
        }
    }
}

/// Estimated rows of a grouped unit: one per group, so no more than the
/// product of the group columns' distinct counts — and no more than the
/// `core` rows being grouped.
fn group_estimate(core: f64, key_distinct: impl Iterator<Item = u64>) -> f64 {
    core.min(key_distinct.map(|d| d.max(1) as f64).product())
}

/// A relational table or an unkeyed parallel dataset a request scans in
/// full to find the rows holding an `=` constant in `column` (a position,
/// that of its atom's first constant): no index or key on a column it
/// constrains, so [`Access::FullScan`]. Once a query whose plan made the
/// request has its answer, the mediator indexes the table's column or keys
/// the dataset on it (`layout::index`), and the next translation probes it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EqScan {
    /// The store holding the container: relational or parallel.
    pub system: SystemId,
    /// The table or dataset.
    pub container: String,
    /// The compared column's position.
    pub column: usize,
}

/// An executable unit of a translated rewriting.
pub struct Unit {
    /// Display label (store + native query).
    pub label: String,
    /// Variables the unit outputs (for `Bind` units: *excluding* inputs).
    pub out_vars: Vec<Var>,
    /// The variable that must be bound before the unit can run: the key a
    /// `Bind` unit is probed with.
    pub inputs: Option<Var>,
    /// Executable form.
    pub kind: UnitKind,
    /// Estimated output cardinality.
    pub est_rows: f64,
    /// How its request reaches each container it reads, with that
    /// container's statistics: what [`crate::cost::estimate`] prices.
    pub accesses: Vec<(Access, FragmentStats)>,
    /// The relational columns, or the column of an unkeyed parallel
    /// dataset, its request scans a whole container to compare with an `=`
    /// constant (empty for every other store).
    pub eq_scans: Vec<EqScan>,
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
    Run(Arc<Runner>),
    /// Must be probed with bound inputs.
    Bind(Arc<dyn BindSource>),
}

/// How a stored row binds a unit's terms, worked out once when the unit is
/// built: the cells that must hold a constant, the cells a repeated
/// variable must agree on, the cells of the pre-bound variable (a key-value
/// key variable repeated in the value) and where each output variable is
/// read. Rows are then bound with no per-row map.
struct Binder {
    /// The positions that must hold a constant, in step with `consts`.
    const_at: Vec<usize>,
    /// The constants.
    consts: Vec<Value>,
    /// `(position, the first position of the same variable)`.
    repeats: Vec<(usize, usize)>,
    /// Positions of the pre-bound variable.
    pre: Vec<usize>,
    /// Each output variable's first position; `None` when the terms bind
    /// some output variable nowhere (then no row binds).
    out: Option<Vec<usize>>,
}

impl Binder {
    /// The binder of `terms`, with `pre` bound before any row is read,
    /// producing `out_vars`.
    fn new(terms: &[Term], pre: Option<Var>, out_vars: &[Var]) -> Binder {
        let (mut const_at, mut consts) = (Vec::new(), Vec::new());
        let (mut repeats, mut pre_at) = (Vec::new(), Vec::new());
        let mut first: Vec<(Var, usize)> = Vec::new();
        for (pos, t) in terms.iter().enumerate() {
            match t {
                Term::Const(c) => {
                    const_at.push(pos);
                    consts.push(c.clone());
                }
                Term::Var(v) if Some(*v) == pre => pre_at.push(pos),
                Term::Var(v) => match first.iter().find(|(w, _)| w == v) {
                    Some(&(_, at)) => repeats.push((pos, at)),
                    None => first.push((*v, pos)),
                },
            }
        }
        let at = |v: &Var| first.iter().find(|(w, _)| w == v).map(|&(_, p)| p);
        Binder {
            const_at,
            consts,
            repeats,
            pre: pre_at,
            out: out_vars.iter().map(at).collect(),
        }
    }

    /// The constants as interned cells, looked up, never interned; `None`
    /// when one was never interned, so that no cell holds it and no row
    /// binds.
    fn const_ids(&self) -> Option<Vec<ConstId>> {
        let reader = ConstReader::new();
        self.consts.iter().map(|c| reader.lookup(c)).collect()
    }

    /// The positions of the output variables when the row whose cells
    /// `cell` reads binds the terms — every constant's cell equals it (the
    /// binder's `consts`, as cells of the row's kind), every repeated
    /// variable's cells are equal, every cell of the pre-bound variable
    /// equals `pre` — and every position read is a cell of it.
    fn bind<'c, T: PartialEq + 'c>(
        &self,
        cell: impl Fn(usize) -> Option<&'c T>,
        consts: &[T],
        pre: Option<&T>,
    ) -> Option<&[usize]> {
        let out = self.out.as_deref()?;
        let consts = (self.const_at.iter().zip(consts)).all(|(p, c)| cell(*p) == Some(c));
        let repeats =
            (self.repeats.iter()).all(|(p, q)| cell(*p).is_some() && cell(*p) == cell(*q));
        let pre = (self.pre.iter()).all(|p| pre.is_none_or(|k| cell(*p) == Some(k)));
        let read = out.iter().all(|p| cell(*p).is_some());
        (consts && repeats && pre && read).then_some(out)
    }
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

fn var_cols(vars: &[Var]) -> Columns {
    vars.iter().map(|v| var_col(*v)).collect()
}

/// Whether some variable occurs twice in `terms` — an equality a scan or a
/// join key does not enforce, so rows would need per-row rebinding.
fn repeats_var(terms: &[Term]) -> bool {
    let mut seen = FastSet::default();
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

/// A probe of the first of the request's constrained `columns`, in the
/// order the store tries them, that `indexed` holds; else a full scan.
fn probe(indexed: &[usize], mut columns: impl Iterator<Item = usize>) -> Access {
    match columns.find(|c| indexed.contains(c)) {
        Some(column) => Access::IndexProbe { column },
        None => Access::FullScan,
    }
}

/// The error of an atom whose fragment relation is not placed where a
/// `kind` unit reads.
fn misplaced(kind: &str, rel: &FragmentRelation) -> Error {
    Error::Untranslatable(format!("{kind} atom placed at {:?}", rel.place))
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
    let mut var_ref: FastMap<Var, ColRef> = FastMap::default();
    let mut vars: Vec<Var> = Vec::new();
    let mut est = 1.0f64;
    let mut join_sel = 1.0f64;
    let mut indexes = Vec::new();
    for (atom, rel, stats) in atoms {
        let WhereSpec::Table { table, .. } = &rel.place else {
            return Err(misplaced("sql", rel));
        };
        let t = q.add_table(table);
        indexes.push(stores.rel.indexed(table));
        est *= stats.rows.max(1) as f64;
        for (pos, term) in atom.args.iter().enumerate() {
            let cr = ColRef {
                table: t,
                column: pos,
            };
            match term {
                Term::Const(c) => {
                    q.predicates.push(Pred::ColConst(cr, CmpOp::Eq, c.clone()));
                    est *= eq_selectivity(stats, pos);
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
    // Per table, the store probes the index of the first comparison with a
    // constant that has one, `<>` apart (`relstore::exec::select_rows`).
    let probed = |t: usize| {
        q.predicates.iter().filter_map(move |p| match p {
            Pred::ColConst(c, op, _) if c.table == t && *op != CmpOp::Ne => Some(c.column),
            _ => None,
        })
    };
    let accesses: Vec<_> = (atoms.iter().zip(&indexes).enumerate())
        .map(|(t, ((_, _, stats), indexed))| (probe(indexed, probed(t)), stats.clone()))
        .collect();
    // A table scanned in full for an `=` constant: the column of its atom's
    // first constant (a residual never compares with `=`).
    let eq_scans = (atoms.iter().zip(&accesses).enumerate())
        .filter(|(_, (_, (access, _)))| *access == Access::FullScan)
        .filter_map(|(t, ((atom, _, _), _))| {
            let column = atom.args.iter().position(|a| matches!(a, Term::Const(_)))?;
            let (system, container) = (SystemId::Relational, q.tables[t].clone());
            Some(EqScan {
                system,
                container,
                column,
            })
        })
        .collect();
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
        Ok(Batch::from_id_rows(columns.clone(), &rows))
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: None,
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows,
        accesses,
        eq_scans,
        system: SystemId::Relational,
        answers: Answers::of(tail),
    })
}

/// The failure of an `op` on a container its store no longer has. Every
/// store tells a missing container from an empty one: the relational and
/// parallel stores as their own error, the key-value, document and text
/// stores in their answer (`false`, `None`), which their units turn into
/// this — a container dropped behind the catalog's back is the store's
/// failure, which failover can route around, not an empty result.
fn missing_container(sys: SystemId, op: &str, name: &str) -> StoreError {
    let kind = match sys {
        SystemId::KeyValue => "namespace",
        SystemId::Document => "collection",
        SystemId::Text => "index",
        SystemId::Relational | SystemId::Parallel => "container",
    };
    StoreError::internal(&sys.to_string(), op, format!("unknown {kind} {name}"))
}

/// The values of interned probe `keys`, resolved before any store call (a
/// reader must not be held across one, nor across an intern).
fn resolved(keys: &[ConstId]) -> Vec<Value> {
    let reader = ConstReader::new();
    keys.iter().map(|k| reader.get(*k).clone()).collect()
}

/// A namespace of the key-value store as one rewriting atom sees it. The
/// point `get` of a constant key and the pipelined `mget` of a BindJoin
/// are one request: the gate, the store's lookup, and the binding of each
/// stored tuple's cells straight onto the answer's batch.
struct KvAccess {
    kv: Arc<estocada_kvstore::KvStore>,
    gate: FaultGate,
    namespace: String,
    /// Whether the fragment holds rows: an emptied namespace is dropped
    /// (`layout::write`), so only then is a missing one an error.
    holds_rows: bool,
    /// How a stored value tuple binds the atom's value terms, the key
    /// variable (if any) pre-bound to the key.
    binder: Binder,
    /// The unit's column names: its output variables.
    columns: Columns,
    label: String,
}

impl KvAccess {
    /// One `op` request for `keys`: per key, in order, the stored value
    /// tuples that bind the atom pushed onto `rows` as their output cells,
    /// then `end_key` told how many rows `rows` holds. A namespace the
    /// store does not have is [`missing_container`] when the fragment
    /// holds rows.
    fn fetch(
        &self,
        op: &str,
        keys: &[ConstId],
        rows: &mut Batch,
        mut end_key: impl FnMut(usize),
    ) -> StoreResult<()> {
        let consts = self.binder.const_ids();
        self.gate.check(op)?;
        let found = self.kv.mget(&self.namespace, keys, |key, tuples| {
            if let Some(consts) = &consts {
                for cells in tuples.rows() {
                    if let Some(out) = self.binder.bind(|p| cells.get(p), consts, Some(&key)) {
                        rows.push_row(out.iter().map(|p| cells[*p]));
                    }
                }
            }
            end_key(rows.physical_rows());
        });
        if !found && self.holds_rows {
            return Err(missing_container(SystemId::KeyValue, op, &self.namespace));
        }
        Ok(())
    }
}

impl BindSource for KvAccess {
    fn out_columns(&self) -> Columns {
        self.columns.clone()
    }
    fn fetch_batch(&self, keys: &[ConstId]) -> StoreResult<Fetched> {
        // Pipelined MGET: the whole probe batch costs one simulated
        // round-trip instead of one per distinct key (and one fault fails
        // the whole batch).
        let mut fetched = Fetched::new(self.columns.clone());
        let Fetched { rows, ends } = &mut fetched;
        ends.reserve(keys.len());
        self.fetch("mget", keys, rows, |end| ends.push(end))?;
        Ok(fetched)
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
    let WhereSpec::Namespace { namespace, .. } = &rel.place else {
        return Err(misplaced("kv", rel));
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
        namespace: namespace.clone(),
        holds_rows: stats.rows > 0,
        binder: Binder::new(&value_terms, key_var, &out_vars),
        columns: var_cols(&out_vars),
        label: label.clone(),
    };
    let kind = match &atom.args[0] {
        Term::Const(key) => {
            let key = key.clone();
            UnitKind::Run(Arc::new(move || {
                // A constant no cell holds was never interned: the GET asks
                // for no key then, and costs its request all the same.
                let key = ConstReader::new().lookup(&key);
                let mut batch = Batch::empty(access.columns.clone());
                access.fetch("get", key.as_slice(), &mut batch, |_| {})?;
                Ok(batch)
            }))
        }
        Term::Var(_) => UnitKind::Bind(Arc::new(access)),
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: key_var,
        kind,
        est_rows: 1.0,
        accesses: vec![(Access::KeyGet, stats.clone())],
        eq_scans: Vec::new(),
        system: SystemId::KeyValue,
        answers: Answers::Bindings,
    })
}

/// A full-text index as one `Contains(term, key)` atom sees it: the search
/// of a constant term and the per-key probes of a BindJoin share one
/// lookup — the gate, and the binding of the returned document keys into
/// interned rows.
struct TextAccess {
    text: Arc<estocada_textstore::TextStore>,
    gate: FaultGate,
    index: String,
    /// Whether the fragment holds rows: an emptied index is dropped
    /// (`layout::write`), so only then is a missing one an error.
    holds_rows: bool,
    /// How a returned document key binds the atom's key term.
    binder: Binder,
    /// The unit's column names: its output variables.
    columns: Columns,
    label: String,
}

impl TextAccess {
    /// Search `term`, pushing a row onto `rows` for each document key that
    /// binds the atom's key term.
    fn lookup(&self, term: &str, rows: &mut Batch) -> StoreResult<()> {
        self.gate.check("term_lookup")?;
        // `None`: the store has no such index.
        let keys = self.text.term_lookup(&self.index, term);
        if keys.is_none() && self.holds_rows {
            return Err(missing_container(
                SystemId::Text,
                "term_lookup",
                &self.index,
            ));
        }
        // The key term is the atom's only position: every output is the key.
        let consts = &self.binder.consts;
        rows.push_values(keys.iter().flatten().filter_map(|k| {
            let out = self.binder.bind(|p| (p == 0).then_some(k), consts, None)?;
            Some(std::iter::repeat_n(k, out.len()))
        }));
        Ok(())
    }
}

impl BindSource for TextAccess {
    fn out_columns(&self) -> Columns {
        self.columns.clone()
    }
    fn fetch_batch(&self, keys: &[ConstId]) -> StoreResult<Fetched> {
        // No batched search: one term lookup per key.
        let mut fetched = Fetched::new(self.columns.clone());
        for term in resolved(keys) {
            if let Some(term) = term.as_str() {
                self.lookup(term, &mut fetched.rows)?;
            }
            fetched.end_key();
        }
        Ok(fetched)
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
    let WhereSpec::TextIndex { index } = &rel.place else {
        return Err(misplaced("text", rel));
    };
    let avg_postings = (stats.rows.max(1) as f64
        / stats.distinct.first().copied().unwrap_or(1).max(1) as f64)
        .max(1.0);
    let not_a_string = || Error::Untranslatable("text search term must be a string".into());
    let const_term = (atom.args[0].as_const())
        .map(|term| term.as_str().map(str::to_string).ok_or_else(not_a_string))
        .transpose()?;
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
        index: index.clone(),
        holds_rows: stats.rows > 0,
        binder: Binder::new(std::slice::from_ref(&key_term), None, &out_vars),
        columns: var_cols(&out_vars),
        label: label.clone(),
    };
    let kind = match const_term {
        Some(term) => UnitKind::Run(Arc::new(move || {
            let mut batch = Batch::empty(access.columns.clone());
            access.lookup(&term, &mut batch)?;
            Ok(batch)
        })),
        None => UnitKind::Bind(Arc::new(access)),
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: term_var,
        kind,
        est_rows: avg_postings,
        accesses: vec![(Access::KeyGet, stats.clone())],
        eq_scans: Vec::new(),
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
    let WhereSpec::Collection {
        collection,
        columns,
        indexed,
    } = &rel.place
    else {
        return Err(misplaced("doc", rel));
    };
    let (collection, columns) = (collection.clone(), columns.clone());
    let mut filter = estocada_docstore::Filter::all();
    let mut est = stats.rows.max(1) as f64;
    for (pos, term) in atom.args.iter().enumerate() {
        if let Term::Const(c) = term {
            filter = filter.eq(&columns[pos], c.clone());
            est *= eq_selectivity(stats, pos);
        }
    }
    // The store probes the index of the filter's first equality only
    // (`DocStore::find`).
    let first_eq = atom.args.iter().position(|t| t.as_const().is_some());
    let access = probe(indexed, first_eq.into_iter());
    let (out_vars, _) = ship.of(&atom_vars(std::slice::from_ref(atom)), residuals, false);
    let label = format!("document: FIND {collection} {:?}", filter.clauses);
    let doc = stores.doc.clone();
    let gate = stores.gate(SystemId::Document);
    let binder = Binder::new(&atom.args, None, &out_vars);
    let names = var_cols(&out_vars);
    let runner = move || {
        let paths: Vec<&str> = columns.iter().map(|s| s.as_str()).collect();
        gate.check("find")?;
        let Some(docs) = doc.find(&collection, &filter, Some(&paths)) else {
            return Err(missing_container(SystemId::Document, "find", &collection));
        };
        // Each document's fields are read where they lie, straight into
        // the batch's interned columns.
        let mut batch = Batch::with_capacity(names.clone(), docs.len());
        let columns = &columns;
        batch.push_values(docs.iter().filter_map(|d| {
            let cell = move |p: usize| columns.get(p).map(|c| d.get(c).unwrap_or(&NULL));
            let out = binder.bind(cell, &binder.consts, None)?;
            Some(out.iter().filter_map(move |p| cell(*p)))
        }));
        Ok(batch)
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: None,
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        accesses: vec![(access, stats.clone())],
        eq_scans: Vec::new(),
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

fn par_place(rel: &FragmentRelation) -> Result<(String, &[String])> {
    match &rel.place {
        WhereSpec::ParDataset {
            dataset, columns, ..
        } => Ok((dataset.clone(), columns)),
        _ => Err(misplaced("par", rel)),
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
    /// `Some` when the request cannot enforce every constant and repeated
    /// variable of its terms itself: whole rows come back and each is
    /// re-bound. `None`: the shaped rows stream through unchanged.
    rebind: Option<Binder>,
    columns: Columns,
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
            rebind: (!exact).then(|| Binder::new(terms, None, &out_vars)),
            out_vars,
            shape,
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

    fn batch(&self, rows: IdRows) -> Batch {
        let Some(binder) = &self.rebind else {
            return Batch::from_id_rows(self.columns.clone(), &rows);
        };
        let mut bound = Batch::empty(self.columns.clone());
        // A constant no cell holds was never interned: it matches nothing.
        let Some(consts) = binder.const_ids() else {
            return bound;
        };
        for row in rows.rows() {
            if let Some(out) = binder.bind(|p| row.get(p), &consts, None) {
                bound.push_row(out.iter().map(|p| row[*p]));
            }
        }
        bound
    }
}

fn par_scan_unit(
    (atom, rel, stats): &(Atom, FragmentRelation, FragmentStats),
    residuals: &mut ResidualTracker,
    stores: &Stores,
    ship: &Ship,
) -> Result<Unit> {
    use estocada_parstore::ColPred;
    let (dataset, _) = par_place(rel)?;
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
    // A lookup through the dataset's key, as its store holds it now, when
    // a constant binds each of its columns, a scan otherwise: what the
    // request is and what it costs. An unkeyed dataset scanned for an `=`
    // constant is keyed on the first once the query has its answer.
    let key = stores.par.key_columns(&dataset);
    let access = match key.first() {
        Some(&column) if key.iter().all(|c| const_cols.contains(c)) => {
            Access::IndexProbe { column }
        }
        _ => Access::FullScan,
    };
    let eq_scans = match const_cols.first() {
        Some(&column) if key.is_empty() => vec![EqScan {
            system: SystemId::Parallel,
            container: dataset.clone(),
            column,
        }],
        _ => Vec::new(),
    };
    // Constants are enforced by `preds`; a variable repeated within the
    // atom is not.
    let req = ParRequest::new(&atom.args, !repeats_var(&atom.args), residuals, ship)?;
    let est = req.estimate(est, |c| stats.distinct.get(c).copied());
    let (n, shape) = (preds.len(), req.label());
    let label = match access {
        Access::IndexProbe { .. } => format!("parallel: LOOKUP {dataset} by key index{shape}"),
        _ => format!("parallel: SCAN {dataset} ({n} preds){shape}"),
    };
    let par = stores.par.clone();
    let gate = stores.gate(SystemId::Parallel);
    let key: Vec<Value> = key
        .iter()
        .filter_map(|c| atom.args.get(*c).and_then(|t| t.as_const().cloned()))
        .collect();
    let (out_vars, answers) = (req.out_vars.clone(), req.answers);
    let runner = move || {
        let rows = match access {
            Access::IndexProbe { .. } => {
                gate.check("lookup")?;
                par.lookup(&dataset, &key, &preds, &req.shape)
                    .map_err(|e| par_error("lookup", e))?
            }
            _ => {
                gate.check("scan")?;
                par.scan(&dataset, &preds, &req.shape)
                    .map_err(|e| par_error("scan", e))?
            }
        };
        Ok(req.batch(rows))
    };
    Ok(Unit {
        label,
        out_vars,
        inputs: None,
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        accesses: vec![(access, stats.clone())],
        eq_scans,
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
    let (lds, lcols) = par_place(lrel)?;
    let (rds, rcols) = par_place(rrel)?;
    // Join keys: the columns of each variable the two atoms share.
    let shared = |(li, t): (usize, &Term)| {
        let ri =
            (ratom.args.iter()).position(|r| r.as_var().is_some_and(|v| t.as_var() == Some(v)));
        Some((lcols[li].clone(), rcols[ri?].clone()))
    };
    let (lkeys, rkeys): (Vec<String>, Vec<String>) =
        latom.args.iter().enumerate().filter_map(shared).unzip();
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
    let keys = |s: &FragmentStats| s.distinct.first().copied().unwrap_or(1).max(1);
    let est = (lstats.rows.max(1) as f64 * rstats.rows.max(1) as f64)
        / keys(lstats).max(keys(rstats)) as f64;
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
        inputs: None,
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est,
        accesses: vec![
            (Access::FullScan, lstats.clone()),
            (Access::FullScan, rstats.clone()),
        ],
        eq_scans: Vec::new(),
        system: SystemId::Parallel,
        answers,
    })
}

/// A connected group of document-encoding atoms, by node variable.
#[derive(Default)]
struct TreeAtoms {
    /// Each node's child and descendant steps (`true`: descendant).
    steps: FastMap<Var, Vec<(Var, bool)>>,
    tags: FastMap<Var, String>,
    /// The value a node must hold.
    eq: FastMap<Var, Value>,
    /// (node, value variable) bindings, in atom order.
    binds: Vec<(Var, Var)>,
}

impl TreeAtoms {
    /// The query step reaching `node` (a descendant step when `desc`) and
    /// everything below it; the variables it binds join `out_vars` in the
    /// store's pre-order.
    fn step(&self, node: Var, desc: bool, out_vars: &mut Vec<Var>) -> Result<QueryNode> {
        let tag = self.tags.get(&node);
        let tag =
            tag.ok_or_else(|| Error::Untranslatable(format!("node {node} has no tag atom")))?;
        let mut qn = match desc {
            true => QueryNode::descendant(tag),
            false => QueryNode::child(tag),
        };
        if let Some(c) = self.eq.get(&node) {
            qn = qn.eq(c.clone());
        }
        for (_, v) in self.binds.iter().filter(|(n, _)| *n == node) {
            qn = qn.bind(&var_col(*v));
            out_vars.push(*v);
        }
        for (child, d) in self.steps.get(&node).into_iter().flatten() {
            qn = qn.with(self.step(*child, *d, out_vars)?);
        }
        Ok(qn)
    }
}

/// Build a native-document tree unit from a connected group of
/// document-encoding atoms: "it can be inferred that the atoms … refer to a
/// single document, by following the connections among nodes and knowledge
/// of the JSON data model".
pub fn doc_tree_unit(
    atoms: &[(Atom, FragmentRelation, FragmentStats)],
    stores: &Stores,
) -> Result<Unit> {
    let mut collection: Option<&String> = None;
    let mut roots: Vec<(Var, &FragmentStats)> = Vec::new();
    let mut tree = TreeAtoms::default();
    let mut reached = FastSet::default();
    for (atom, rel, stats) in atoms {
        let WhereSpec::NativeDocs {
            collection: c,
            role,
        } = &rel.place
        else {
            return Err(misplaced("doc", rel));
        };
        if *collection.get_or_insert(c) != c {
            let spans = "tree unit spans two collections";
            return Err(Error::Untranslatable(spans.into()));
        }
        let var_at = |i: usize| -> Result<Var> {
            atom.args[i].as_var().ok_or_else(|| {
                Error::Untranslatable(format!("node position of {} must be a variable", atom.pred))
            })
        };
        match role {
            DocRole::Root => roots.push((var_at(1)?, stats)),
            DocRole::Doc => { /* names are not stored natively; ignore */ }
            DocRole::Child | DocRole::Desc => {
                let (parent, child) = (var_at(0)?, var_at(1)?);
                if !reached.insert(child) {
                    let shape = "document pattern is not tree-shaped";
                    return Err(Error::Untranslatable(shape.into()));
                }
                let step = (child, *role == DocRole::Desc);
                tree.steps.entry(parent).or_default().push(step);
            }
            DocRole::Node => {
                let tag = atom.args[1].as_const().and_then(|c| c.as_str());
                let tag = tag.ok_or_else(|| {
                    Error::Untranslatable("node tag must be a string constant".into())
                })?;
                tree.tags.insert(var_at(0)?, tag.to_string());
            }
            DocRole::Val => match &atom.args[1] {
                Term::Const(c) => drop(tree.eq.insert(var_at(0)?, c.clone())),
                Term::Var(v) => tree.binds.push((var_at(0)?, *v)),
            },
        }
    }
    let collection = collection
        .cloned()
        .ok_or_else(|| Error::Untranslatable("empty document unit".into()))?;
    // The store walks every document: one per Root row.
    let Some(&(_, root_stats)) = roots.first() else {
        let rootless = "document pattern has no Root atom";
        return Err(Error::Untranslatable(rootless.into()));
    };
    let mut out_vars = Vec::new();
    let mut q = DocQuery::new(&collection);
    for (root, _) in &roots {
        for (child, d) in tree.steps.get(root).into_iter().flatten() {
            q = q.with(tree.step(*child, *d, &mut out_vars)?);
        }
    }
    // Column order must follow the store's pre-order convention.
    let ordered_vars: Vec<Var> = (q.columns().iter())
        .map(|c| {
            let bound = out_vars.iter().copied().find(|v| var_col(*v) == *c);
            bound.ok_or_else(|| Error::Untranslatable(format!("column {c} binds no variable")))
        })
        .collect::<Result<_>>()?;
    let label = format!(
        "document: TREE-QUERY {collection} ({} steps)",
        q.roots.len()
    );
    let doc = stores.doc.clone();
    let gate = stores.gate(SystemId::Document);
    let names = var_cols(&ordered_vars);
    let runner = move || {
        gate.check("query")?;
        let Some(rows) = doc.query(&q) else {
            return Err(missing_container(SystemId::Document, "query", &collection));
        };
        let mut batch = Batch::with_capacity(names.clone(), rows.len());
        batch.push_values(&rows);
        Ok(batch)
    };
    let est_rows = atoms.iter().map(|(_, _, s)| s.rows as f64);
    Ok(Unit {
        label,
        out_vars: ordered_vars,
        inputs: None,
        kind: UnitKind::Run(Arc::new(runner)),
        est_rows: est_rows.fold(1.0, f64::max),
        accesses: vec![(Access::FullScan, root_stats.clone())],
        eq_scans: Vec::new(),
        system: SystemId::Document,
        answers: Answers::Bindings,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `binder` over `cells`, with `pre` pre-bound: the output cells.
    fn bound(binder: &Binder, cells: &[Value], pre: Option<&Value>) -> Option<Vec<Value>> {
        let out = binder.bind(|p| cells.get(p), &binder.consts, pre)?;
        Some(out.iter().map(|p| cells[*p].clone()).collect())
    }

    #[test]
    fn a_binder_checks_constants_and_repeats() {
        let terms = vec![Term::constant(1i64), Term::var(0), Term::var(0)];
        let binder = Binder::new(&terms, None, &[Var(0)]);
        let cells = |a, b, c| [Value::Int(a), Value::Int(b), Value::Int(c)];
        assert_eq!(
            bound(&binder, &cells(1, 5, 5), None),
            Some(vec![Value::Int(5)])
        );
        // Repeated var mismatch.
        assert_eq!(bound(&binder, &cells(1, 5, 6), None), None);
        // Constant mismatch.
        assert_eq!(bound(&binder, &cells(2, 5, 5), None), None);
        // A row of another arity does not bind.
        assert_eq!(bound(&binder, &cells(1, 5, 5)[..2], None), None);
    }

    #[test]
    fn a_binder_respects_the_pre_bound_var() {
        let terms = vec![Term::var(0), Term::var(1)];
        let binder = Binder::new(&terms, Some(Var(0)), &[Var(1)]);
        let row = [Value::Int(8), Value::Int(1)];
        assert_eq!(bound(&binder, &row, Some(&Value::Int(9))), None);
        let one = Some(vec![Value::Int(1)]);
        assert_eq!(bound(&binder, &row, Some(&Value::Int(8))), one);
        // An output variable only the pre-binding holds binds no row.
        let unbound = Binder::new(&terms, Some(Var(0)), &[Var(0)]);
        assert_eq!(bound(&unbound, &row, Some(&Value::Int(8))), None);
    }

    #[test]
    fn the_first_indexed_constrained_column_is_probed() {
        let probe_of = |column| Access::IndexProbe { column };
        assert_eq!(probe(&[1, 3], [0, 3, 1].into_iter()), probe_of(3));
        assert_eq!(probe(&[1], [0, 2].into_iter()), Access::FullScan);
        assert_eq!(probe(&[], [0].into_iter()), Access::FullScan);
    }

    #[test]
    fn atom_vars_first_occurrence_order() {
        let a1 = Atom::new("R", vec![Term::var(3), Term::var(1)]);
        let a2 = Atom::new("S", vec![Term::var(1), Term::var(2)]);
        assert_eq!(atom_vars(&[a1, a2]), vec![Var(3), Var(1), Var(2)]);
    }
}
