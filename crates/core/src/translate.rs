//! Rewriting translation: turn a conjunctive rewriting over fragment
//! relations into an executable plan — group atoms per fragment, delegate
//! the largest subquery each store can take, and stitch the units together
//! with hash joins and BindJoins in the mediator runtime.
//!
//! A plan's cost is each unit's request — its estimated rows, and the scan
//! [`crate::cost::estimate`] prices from the unit's accesses (see
//! [`crate::connector`]) — plus the mediator's work on the rows that flow.
//!
//! # What a unit ships
//!
//! Each delegated unit is handed **what the rest of the plan needs, and the
//! whole tail when nothing else is left** ([`Ship`]):
//!
//! - *Needed columns.* A unit returns only the variables something outside
//!   it reads: those in the query head, those another unit holds too (hash
//!   join keys, BindJoin inputs), and those compared by a residual
//!   predicate the unit could not absorb into its native request (the
//!   mediator filters on them). Fragments are CQ results and the final
//!   answer is a set, so dropping the other columns is exact.
//! - *The tail.* When the rewriting is **one** free-access unit on the
//!   relational or the parallel store, its head holds no constant and the
//!   unit absorbed every residual, the rest of the query is folded into
//!   the unit's native request: the head projection and the `DISTINCT`,
//!   and — for an aggregate query — `GROUP BY`, the aggregates and
//!   `HAVING` ([`estocada_pivot::GroupBy`]). The `Delegated` node then
//!   returns the distinct head rows (no mediator `Distinct`) or the final
//!   groups (only the SELECT-list `Project` is left).
//!
//! Everything else keeps the mediator tail `Project(SELECT) ∘
//! Filter(HAVING) ∘ Aggregate ∘ Distinct ∘ Project(head)`: several units;
//! a key-value, document or text unit; a residual the mediator must filter
//! (`<>` on the parallel store); a constant in the head; a parallel atom
//! whose constants or repeated variables need rows re-bound. That is the
//! delegation boundary moving, not a second path — both tails are built
//! here, from the same [`AggregateSpec`], by the crate-private
//! `translate_query` ([`translate`] is its no-aggregate call).
//!
//! The two tails are **row-identical, in order**. The store de-duplicates
//! the same projected rows in the order its conjunctive block produces
//! them, which is the order the mediator's `Distinct` would have seen;
//! both group in first-seen order and fold each group's rows in that order
//! through the same accumulator semantics (see [`estocada_pivot::agg`]),
//! so even floating-point sums agree bit for bit.

use crate::catalog::{Catalog, FragmentRelation, FragmentStats, WhereSpec};
use crate::connector::{
    doc_rows_unit, doc_tree_unit, kv_unit, par_unit, sql_unit, text_unit, var_col, Answers, EqScan,
    Residual, ResidualTracker, Ship, Tail, Unit, UnitKind,
};
use crate::cost::{estimate, CostModel};
use crate::error::{Error, Result};
use crate::frontends::AggregateSpec;
use crate::system::{Stores, SystemId};
use estocada_engine::{CmpOp, Expr, Plan};
use estocada_pivot::hash::FastSet;
use estocada_pivot::{Cq, GroupBy, Symbol, Term, Var};
use std::convert::Infallible;
use std::sync::Arc;

/// A translated, costed, executable rewriting.
pub struct Translation {
    /// The executable plan.
    pub plan: Plan,
    /// Estimated cost (abstract units).
    pub est_cost: f64,
    /// Estimated result cardinality.
    pub est_rows: f64,
    /// Labels of the delegated units, in execution order (shared with the
    /// reports of every run of a prepared plan).
    pub unit_labels: Arc<[String]>,
    /// The system serving each delegated unit, parallel to `unit_labels`.
    pub unit_systems: Vec<SystemId>,
    /// The tuples each delegated unit's request is estimated to scan inside
    /// its store (per probe for a BindJoin source), parallel to
    /// `unit_labels`.
    pub unit_scanned: Vec<f64>,
    /// Systems touched.
    pub systems: Vec<SystemId>,
    /// Fragment relations used (for the catalog's use counters).
    pub used_relations: Vec<Symbol>,
    /// The `=` constants its delegated units find by scanning a whole
    /// relational table: the columns the mediator indexes once a run of
    /// this plan has its answer.
    pub eq_scans: Vec<EqScan>,
}

type AtomInfo = (estocada_pivot::Atom, FragmentRelation, FragmentStats);

/// Translate `rewriting` (over fragment relations) into a plan computing
/// `head_names` columns, applying `residuals` — the no-aggregate call of
/// the crate's one plan builder, `translate_query`.
///
/// Every delegated runner and BindJoin source passes its backend's fault
/// gate (see [`crate::connector`]) before each store request. The plan
/// carries no query's retry/breaker loop: a run hands it to
/// [`estocada_engine::run`] ([`crate::QueryResilience::leaves`]), and
/// [`estocada_engine::execute_with`] runs it with none, so a store error
/// ends the plan at once. The last argument can only be `None`; it stays
/// so that existing calls compile unchanged.
pub fn translate(
    rewriting: &Cq,
    head_names: &[String],
    residuals: &[Residual],
    catalog: &Catalog,
    stores: &Stores,
    cost: &CostModel,
    _unguarded: Option<Infallible>,
) -> Result<Translation> {
    let query = Query {
        head_names,
        residuals,
        aggregate: None,
    };
    translate_query(rewriting, &query, catalog, stores, cost)
}

/// What a query adds to the rewriting of its conjunctive core.
pub(crate) struct Query<'a> {
    /// Output column names of the core.
    pub(crate) head_names: &'a [String],
    /// Residual comparisons.
    pub(crate) residuals: &'a [Residual],
    /// The SQL aggregation over the distinct core rows, if any.
    pub(crate) aggregate: Option<&'a AggregateSpec>,
}

/// Translate `rewriting` into the **final** plan of `query`: the core, and
/// on top of it the aggregation — inside the delegated unit when one store
/// covers the whole query, in the mediator otherwise (module docs). The plan
/// carries no query's fault handling: a run passes it in.
pub(crate) fn translate_query(
    rewriting: &Cq,
    query: &Query,
    catalog: &Catalog,
    stores: &Stores,
    cost: &CostModel,
) -> Result<Translation> {
    // Resolve every atom to its fragment relation.
    let mut infos: Vec<AtomInfo> = Vec::new();
    let mut used_relations = Vec::new();
    for atom in &rewriting.body {
        let (_, rel, stats) = catalog
            .relation(atom.pred)
            .ok_or_else(|| Error::UnknownName(format!("fragment relation {}", atom.pred)))?;
        used_relations.push(atom.pred);
        infos.push((atom.clone(), rel.clone(), stats.clone()));
    }

    let mut tracker = ResidualTracker::new(query.residuals.to_vec());
    let groups = group_atoms(infos);
    let head_vars: Option<Vec<Var>> = rewriting.head.iter().map(Term::as_var).collect();
    // The tail goes to a unit that is the whole rewriting (a store's tail
    // ranges over non-empty rows: a Boolean query keeps the mediator's).
    let whole = |head: &Vec<Var>| groups.len() == 1 && !head.is_empty();
    let tail = head_vars.filter(whole).map(|head| Tail {
        head,
        group: query.aggregate.map(|spec| GroupBy {
            keys: spec.group_cols,
            aggs: spec.aggs.iter().map(|a| (a.fun, a.col)).collect(),
            having: spec.having.clone(),
        }),
    });
    let ship = Ship {
        needed: &needed_vars(rewriting, &groups),
        tail: tail.as_ref(),
    };
    let units = groups
        .into_iter()
        .map(|g| g.into_unit(&mut tracker, stores, &ship))
        .collect::<Result<Vec<Unit>>>()?;

    // --- Order units (access-pattern feasibility + greedy cost). ---
    let order = order_units(&units)?;

    // --- Compose the plan. ---
    let mut state: Option<State> = None;
    let mut est_cost = 0.0;
    let mut unit_labels = Vec::new();
    let mut unit_systems = Vec::new();
    let mut unit_scanned = Vec::new();
    let mut systems = Vec::new();
    let mut eq_scans = Vec::new();
    for idx in order {
        let unit = &units[idx];
        let est_scanned = estimate(&unit.accesses);
        let request_cost = cost.request_cost(unit.system, unit.est_rows, est_scanned);
        unit_labels.push(unit.label.clone());
        unit_systems.push(unit.system);
        unit_scanned.push(est_scanned);
        eq_scans.extend(unit.eq_scans.iter().cloned());
        if !systems.contains(&unit.system) {
            systems.push(unit.system);
        }
        state = Some(match (state, &unit.kind) {
            (left, UnitKind::Run(runner)) => {
                est_cost += request_cost;
                let label = unit.label.clone();
                let right = Plan::Delegated {
                    label,
                    runner: runner.clone(),
                };
                let right = (right, unit.out_vars.clone(), unit.est_rows);
                match left {
                    None => right,
                    Some(left) => join_states(left, right, cost, &mut est_cost),
                }
            }
            (None, UnitKind::Bind(_)) => {
                return Err(Error::Untranslatable(format!(
                    "unit {} needs bound inputs but nothing precedes it",
                    unit.label
                )))
            }
            (Some((plan, vars, rows)), UnitKind::Bind(source)) => {
                // BindJoin: one probe per distinct key (estimated as the
                // current row count).
                let key_col = unit
                    .inputs
                    .and_then(|v| vars.iter().position(|x| *x == v))
                    .ok_or_else(|| {
                        Error::Untranslatable(format!(
                            "BindJoin input of {} not bound by earlier units",
                            unit.label
                        ))
                    })?;
                est_cost += rows * request_cost;
                let mut new_vars = vars.clone();
                let mut dup_filters = Vec::new();
                for (i, v) in unit.out_vars.iter().enumerate() {
                    match vars.iter().position(|x| x == v) {
                        Some(l) => dup_filters.push((l, vars.len() + i)),
                        None => new_vars.push(*v),
                    }
                }
                let mut plan = Plan::BindJoin {
                    left: Box::new(plan),
                    key_col,
                    source: source.clone(),
                };
                plan = dedup_columns(plan, &vars, &unit.out_vars, dup_filters);
                let est = (rows * unit.est_rows).max(0.0);
                est_cost += est * cost.runtime_per_tuple;
                (plan, new_vars, est)
            }
        });
    }
    let Some((mut plan, vars, mut est_rows)) = state else {
        return Err(Error::Untranslatable("empty rewriting body".into()));
    };
    // Only a unit that is the whole rewriting is offered the tail.
    let answers = match units.as_slice() {
        [only] => only.answers,
        _ => Answers::Bindings,
    };

    // --- Remaining residual predicates as a runtime filter. ---
    for (_, r) in tracker.remaining() {
        let pos = vars.iter().position(|v| *v == r.var).ok_or_else(|| {
            Error::Untranslatable(format!(
                "residual predicate on {} but the variable is not produced",
                var_col(r.var)
            ))
        })?;
        plan = Plan::Filter {
            input: Box::new(plan),
            pred: Expr::col(pos).cmp(r.op, Expr::lit(r.value.clone())),
        };
        est_rows *= 0.33;
    }

    // --- The tail: whatever of it the unit did not answer already. ---
    if answers != Answers::Groups {
        // Final projection onto the query head.
        let mut exprs = Vec::new();
        for (i, t) in rewriting.head.iter().enumerate() {
            let name = query
                .head_names
                .get(i)
                .cloned()
                .unwrap_or_else(|| format!("col{i}"));
            let e = match t {
                Term::Const(c) => Expr::lit(c.clone()),
                Term::Var(v) => {
                    let pos = vars.iter().position(|x| x == v).ok_or_else(|| {
                        Error::Untranslatable(format!(
                            "head variable {} not produced by any unit",
                            var_col(*v)
                        ))
                    })?;
                    Expr::col(pos)
                }
            };
            exprs.push((name, e));
        }
        plan = Plan::Project {
            input: Box::new(plan),
            exprs,
        };
        // The pivot model has set semantics (fragments are CQ results):
        // deduplicate so every rewriting of a query returns the same
        // relation — unless the store already did.
        if answers == Answers::Bindings {
            plan = Plan::Distinct {
                input: Box::new(plan),
            };
        }
    }
    if let Some(spec) = query.aggregate {
        plan = match answers {
            Answers::Groups => select_list(plan, spec),
            _ => wrap_aggregate(plan, spec),
        };
    }

    Ok(Translation {
        plan,
        est_cost,
        est_rows,
        unit_labels: unit_labels.into(),
        unit_systems,
        unit_scanned,
        systems,
        used_relations,
        eq_scans,
    })
}

/// Layer the SQL aggregation pipeline over a plan returning the distinct
/// core rows: `Project(SELECT) ∘ Filter(HAVING) ∘ Aggregate(GROUP BY) ∘
/// core`. The aggregates range over the *distinct* core tuples whichever
/// rewriting executes; the plan cache is shared with the plain core.
fn wrap_aggregate(core: Plan, spec: &AggregateSpec) -> Plan {
    let mut plan = Plan::Aggregate {
        input: Box::new(core),
        group_by: (0..spec.group_cols).collect(),
        aggs: spec.aggs.clone(),
    };
    let having = spec
        .having
        .iter()
        .map(|(col, op, v)| Expr::col(*col).cmp(*op, Expr::Lit(v.clone())))
        .reduce(Expr::and);
    if let Some(pred) = having {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred,
        };
    }
    select_list(plan, spec)
}

/// The SELECT-list projection over final groups — all that is left for the
/// mediator when a store evaluated the grouping.
fn select_list(groups: Plan, spec: &AggregateSpec) -> Plan {
    Plan::Project {
        input: Box::new(groups),
        exprs: spec
            .select
            .iter()
            .map(|(name, col)| (name.clone(), Expr::col(*col)))
            .collect(),
    }
}

/// Which connector builds a group of atoms into one delegated unit.
enum GroupKind {
    /// Every table atom: one SQL block.
    Sql,
    /// One parallel-store atom, or two sharing a variable (a native join).
    Par,
    /// Native-document atoms connected through node ids: one tree query.
    DocTree,
    /// One atom over a key-value, text or row-document fragment.
    Point,
}

/// Atoms that become one delegated unit.
struct AtomGroup {
    kind: GroupKind,
    atoms: Vec<AtomInfo>,
}

impl AtomGroup {
    fn into_unit(
        self,
        tracker: &mut ResidualTracker,
        stores: &Stores,
        ship: &Ship,
    ) -> Result<Unit> {
        match (self.kind, self.atoms.as_slice()) {
            (GroupKind::Sql, atoms) => sql_unit(atoms, tracker, stores, ship),
            (GroupKind::Par, atoms) => par_unit(atoms, tracker, stores, ship),
            (GroupKind::DocTree, atoms) => doc_tree_unit(atoms, stores),
            (GroupKind::Point, [(atom, rel, stats)]) => match &rel.place {
                WhereSpec::Namespace { .. } => kv_unit(atom, rel, stats, tracker, stores, ship),
                WhereSpec::TextIndex { .. } => text_unit(atom, rel, stats, stores),
                _ => doc_rows_unit(atom, rel, stats, tracker, stores, ship),
            },
            (GroupKind::Point, _) => Err(Error::Untranslatable(
                "a point unit takes exactly one atom".into(),
            )),
        }
    }
}

/// The variables read outside the unit that binds them: the query head's,
/// and those that more than one unit holds. (A rewriting has a handful of
/// variables: linear scans, no hashing.)
fn needed_vars(rewriting: &Cq, groups: &[AtomGroup]) -> Vec<Var> {
    let mut needed: Vec<Var> = rewriting.head.iter().filter_map(Term::as_var).collect();
    // Each variable with the first group holding it.
    let mut first: Vec<(Var, usize)> = Vec::new();
    for (g, group) in groups.iter().enumerate() {
        for v in group.atoms.iter().flat_map(|(a, _, _)| a.vars()) {
            match first.iter().find(|(x, _)| *x == v) {
                None => first.push((v, g)),
                Some((_, holder)) if *holder != g && !needed.contains(&v) => needed.push(v),
                Some(_) => {}
            }
        }
    }
    needed
}

/// Group atoms into delegable units per store and fragment kind.
fn group_atoms(infos: Vec<AtomInfo>) -> Vec<AtomGroup> {
    let mut rel_atoms: Vec<AtomInfo> = Vec::new();
    let mut par_atoms: Vec<AtomInfo> = Vec::new();
    let mut doc_native: Vec<AtomInfo> = Vec::new();
    let mut singles: Vec<AtomInfo> = Vec::new();
    for info in infos {
        match &info.1.place {
            WhereSpec::Table { .. } => rel_atoms.push(info),
            WhereSpec::ParDataset { .. } => par_atoms.push(info),
            WhereSpec::NativeDocs { .. } => doc_native.push(info),
            WhereSpec::Collection { .. }
            | WhereSpec::Namespace { .. }
            | WhereSpec::TextIndex { .. } => singles.push(info),
        }
    }
    let group = |kind, atoms| AtomGroup { kind, atoms };
    let mut groups = Vec::new();
    // Largest relational subquery: all table atoms in one SQL block.
    if !rel_atoms.is_empty() {
        groups.push(group(GroupKind::Sql, rel_atoms));
    }
    // Parallel store: pair atoms sharing a variable into native joins.
    let mut remaining = par_atoms;
    while !remaining.is_empty() {
        let first = remaining.remove(0);
        let fvars: FastSet<Var> = first.0.vars().collect();
        let partner = remaining
            .iter()
            .position(|(a, _, _)| a.vars().any(|v| fvars.contains(&v)));
        let pair = match partner {
            Some(p) => vec![first, remaining.remove(p)],
            None => vec![first],
        };
        groups.push(group(GroupKind::Par, pair));
    }
    // Native-document atoms: connected components via shared node ids.
    let trees = doc_components(doc_native).into_iter();
    groups.extend(trees.map(|atoms| group(GroupKind::DocTree, atoms)));
    // Point units.
    for single in singles {
        groups.push(group(GroupKind::Point, vec![single]));
    }
    groups
}

/// Split native-document atoms into connected components over shared
/// node-id variables (each component is one tree query on one document).
fn doc_components(atoms: Vec<AtomInfo>) -> Vec<Vec<AtomInfo>> {
    use crate::catalog::DocRole::{Child, Desc, Root};
    // Node ids: the first argument, and the second of a Root/Child/Desc edge.
    let node_vars = |(atom, rel, _): &AtomInfo| -> FastSet<Var> {
        let edge = matches!(
            &rel.place,
            WhereSpec::NativeDocs {
                role: Root | Child | Desc,
                ..
            }
        );
        let ids = atom.args.iter().take(1 + usize::from(edge));
        ids.filter_map(Term::as_var).collect()
    };
    let mut components: Vec<(FastSet<Var>, Vec<AtomInfo>)> = Vec::new();
    for info in atoms {
        let vars = node_vars(&info);
        // Find all components this atom touches and merge them.
        let mut touched: Vec<usize> = components
            .iter()
            .enumerate()
            .filter(|(_, (cv, _))| !cv.is_disjoint(&vars))
            .map(|(i, _)| i)
            .collect();
        if touched.is_empty() {
            components.push((vars, vec![info]));
        } else {
            let target = touched.remove(0);
            components[target].0.extend(vars);
            components[target].1.push(info);
            // Merge the rest (descending order keeps indices valid).
            for i in touched.into_iter().rev() {
                let (cv, atoms) = components.remove(i);
                components[target].0.extend(cv);
                components[target].1.extend(atoms);
            }
        }
    }
    components.into_iter().map(|(_, a)| a).collect()
}

/// Greedy executable order: at each step pick a unit whose inputs are
/// bound, preferring ones that share variables with what is already bound
/// (avoiding cross products), then lower estimated cardinality.
fn order_units(units: &[Unit]) -> Result<Vec<usize>> {
    let mut bound: FastSet<Var> = FastSet::default();
    let mut remaining: Vec<usize> = (0..units.len()).collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let shares = |i: usize| -> bool {
            !bound.is_empty()
                && (units[i].out_vars.iter().chain(&units[i].inputs)).any(|v| bound.contains(v))
        };
        let eligible = (remaining.iter().copied())
            .filter(|i| units[*i].inputs.iter().all(|v| bound.contains(v)));
        // Sharing units first, then cheaper estimates.
        let pick = eligible.min_by(|a, b| {
            (shares(*b), units[*b].est_rows)
                .partial_cmp(&(shares(*a), units[*a].est_rows))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(b))
        });
        let Some(pick) = pick else {
            return Err(Error::Untranslatable(
                "no executable unit order satisfies the access patterns".into(),
            ));
        };
        remaining.retain(|i| *i != pick);
        bound.extend(units[pick].out_vars.iter().copied());
        bound.extend(units[pick].inputs.iter().copied());
        order.push(pick);
    }
    Ok(order)
}

/// A plan being composed: its root, the variable each of its columns
/// holds, and its estimated rows.
type State = (Plan, Vec<Var>, f64);

/// Join the accumulated plan with a new `Run` unit's: hash join on shared
/// variables (cross product when none), de-duplicating repeated columns.
fn join_states(
    (left, left_vars, left_rows): State,
    (right, right_vars, right_rows): State,
    cost: &CostModel,
    est_cost: &mut f64,
) -> State {
    // Shared variables: their positions on either side.
    let (left_keys, right_keys): (Vec<usize>, Vec<usize>) = (right_vars.iter().enumerate())
        .filter_map(|(r, v)| Some((left_vars.iter().position(|x| x == v)?, r)))
        .unzip();
    let mut new_vars = left_vars.clone();
    for v in &right_vars {
        if !left_vars.contains(v) {
            new_vars.push(*v);
        }
    }
    let (plan, est) = if left_keys.is_empty() {
        (
            Plan::NlJoin {
                left: Box::new(left),
                right: Box::new(right),
                pred: None,
            },
            left_rows * right_rows,
        )
    } else {
        let sel = 10f64.powi(left_keys.len() as i32);
        (
            Plan::HashJoin {
                left: Box::new(left),
                right: Box::new(right),
                left_keys,
                right_keys,
            },
            (left_rows * right_rows / sel).max(1.0),
        )
    };
    *est_cost += (left_rows + right_rows + est) * cost.runtime_per_tuple;
    let plan = dedup_columns(plan, &left_vars, &right_vars, Vec::new());
    (plan, new_vars, est)
}

/// Project away duplicated right-side columns after a join, adding equality
/// filters for explicitly tracked duplicates first.
fn dedup_columns(
    mut plan: Plan,
    left_vars: &[Var],
    right_vars: &[Var],
    dup_filters: Vec<(usize, usize)>,
) -> Plan {
    for (l, r) in &dup_filters {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred: Expr::col(*l).cmp(CmpOp::Eq, Expr::col(*r)),
        };
    }
    if !right_vars.iter().any(|v| left_vars.contains(v)) {
        return plan;
    }
    let mut exprs: Vec<(String, Expr)> = left_vars
        .iter()
        .enumerate()
        .map(|(i, v)| (var_col(*v), Expr::col(i)))
        .collect();
    for (i, v) in right_vars.iter().enumerate() {
        if !left_vars.contains(v) {
            exprs.push((var_col(*v), Expr::col(left_vars.len() + i)));
        }
    }
    Plan::Project {
        input: Box::new(plan),
        exprs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{
        Catalog, DocRole, FragmentMeta, FragmentRelation, FragmentSpec, FragmentStats,
    };
    use crate::system::{Latencies, Stores};
    use estocada_engine::{execute_with, ExecOptions, ExecStats, RowBatch};
    use estocada_pivot::{AccessPattern, Atom, ConstId, CqBuilder, Value, ViewDef};

    fn run(plan: &Plan) -> (RowBatch, ExecStats) {
        execute_with(plan, &ExecOptions::default()).unwrap()
    }

    /// A catalog with one relational table fragment and one KV fragment.
    fn fixture() -> (Catalog, Stores) {
        let stores = Stores::new(Latencies::zero());
        stores.rel.create_table("t_users", &["uid", "name"]);
        stores
            .rel
            .insert_many(
                "t_users",
                &(0..10)
                    .map(|i| vec![Value::Int(i), Value::str(format!("u{i}"))])
                    .collect::<Vec<_>>(),
            )
            .unwrap();
        let (key, name) = (ConstId::of(3i64), ConstId::of("u3"));
        stores.kv.update("kv_users", key, 1, |t| t.push([name]));
        let mut catalog = Catalog::new();
        let rel_view = ViewDef::new(
            CqBuilder::new("UsersRel")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        );
        catalog.add(FragmentMeta {
            id: "f_rel".into(),
            system: SystemId::Relational,
            spec: FragmentSpec::Table {
                view: rel_view.view.clone(),
                index_on: vec![],
            },
            relations: vec![FragmentRelation {
                name: Symbol::intern("UsersRel"),
                view: rel_view,
                access: None,
                place: WhereSpec::Table {
                    table: "t_users".into(),
                    columns: vec!["uid".into(), "name".into()],
                    indexed: vec![],
                },
            }],
            stats: vec![FragmentStats {
                rows: 10,
                distinct: vec![10, 10],
                bytes: 200,
            }],
            running: vec![None],
            high_water: 0,
            credentials: String::new(),
            use_count: Default::default(),
        });
        let kv_view = ViewDef::new(
            CqBuilder::new("UsersKV")
                .head_vars(["uid", "name"])
                .atom("Users", |a| a.v("uid").v("name"))
                .build(),
        );
        catalog.add(FragmentMeta {
            id: "f_kv".into(),
            system: SystemId::KeyValue,
            spec: FragmentSpec::KeyValue {
                view: kv_view.view.clone(),
            },
            relations: vec![FragmentRelation {
                name: Symbol::intern("UsersKV"),
                view: kv_view,
                access: Some(AccessPattern::parse("io").unwrap()),
                place: WhereSpec::Namespace {
                    namespace: "kv_users".into(),
                    value_columns: vec!["name".into()],
                },
            }],
            stats: vec![FragmentStats {
                rows: 10,
                distinct: vec![10, 10],
                bytes: 200,
            }],
            running: vec![None],
            high_water: 0,
            credentials: String::new(),
            use_count: Default::default(),
        });
        (catalog, stores)
    }

    #[test]
    fn kv_point_rewriting_executes_via_get() {
        let (catalog, stores) = fixture();
        let rw = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(0)],
            vec![Atom::new(
                "UsersKV",
                vec![Term::constant(3i64), Term::var(0)],
            )],
        );
        let tr = translate(
            &rw,
            &["name".to_string()],
            &[],
            &catalog,
            &stores,
            &CostModel::default(),
            None,
        )
        .unwrap();
        let (batch, _) = run(&tr.plan);
        assert_eq!(batch.rows, vec![vec![Value::str("u3")]]);
        assert_eq!(tr.systems, vec![SystemId::KeyValue]);
    }

    #[test]
    fn bindjoin_composes_relational_feed_into_kv() {
        let (catalog, stores) = fixture();
        // R(n) :- UsersRel(k, _), UsersKV(k, n): the KV atom needs k bound.
        let rw = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(2)],
            vec![
                Atom::new("UsersRel", vec![Term::var(0), Term::var(1)]),
                Atom::new("UsersKV", vec![Term::var(0), Term::var(2)]),
            ],
        );
        let tr = translate(
            &rw,
            &["name".to_string()],
            &[],
            &catalog,
            &stores,
            &CostModel::default(),
            None,
        )
        .unwrap();
        assert!(tr.plan.explain().contains("BindJoin"));
        let (batch, stats) = run(&tr.plan);
        // Only key 3 exists in the KV namespace.
        assert_eq!(batch.rows, vec![vec![Value::str("u3")]]);
        assert_eq!(stats.bind_probes, 10); // one probe per distinct uid
    }

    #[test]
    fn kv_alone_with_free_key_is_not_executable() {
        let (catalog, stores) = fixture();
        let rw = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(1)],
            vec![Atom::new("UsersKV", vec![Term::var(0), Term::var(1)])],
        );
        let err = translate(
            &rw,
            &["name".to_string()],
            &[],
            &catalog,
            &stores,
            &CostModel::default(),
            None,
        );
        assert!(matches!(err, Err(Error::Untranslatable(_))));
    }

    #[test]
    fn unknown_relation_is_reported() {
        let (catalog, stores) = fixture();
        let rw = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(0)],
            vec![Atom::new("Ghost", vec![Term::var(0)])],
        );
        assert!(matches!(
            translate(
                &rw,
                &["x".to_string()],
                &[],
                &catalog,
                &stores,
                &CostModel::default(),
                None
            ),
            Err(Error::UnknownName(_))
        ));
    }

    #[test]
    fn doc_components_split_disconnected_patterns() {
        // Two disconnected Child atoms form two components.
        let rel = FragmentRelation {
            name: Symbol::intern("DC_Child"),
            view: ViewDef::new(
                CqBuilder::new("DC_Child")
                    .head_vars(["p", "c"])
                    .atom("Src_Child", |a| a.v("p").v("c"))
                    .build(),
            ),
            access: None,
            place: WhereSpec::NativeDocs {
                collection: "DC".into(),
                role: DocRole::Child,
            },
        };
        let stats = FragmentStats::default();
        let a1 = Atom::new("DC_Child", vec![Term::var(0), Term::var(1)]);
        let a2 = Atom::new("DC_Child", vec![Term::var(5), Term::var(6)]);
        let a3 = Atom::new("DC_Child", vec![Term::var(1), Term::var(2)]);
        let comps = doc_components(vec![
            (a1, rel.clone(), stats.clone()),
            (a2, rel.clone(), stats.clone()),
            (a3, rel, stats),
        ]);
        assert_eq!(comps.len(), 2);
        let sizes: Vec<usize> = {
            let mut v: Vec<usize> = comps.iter().map(Vec::len).collect();
            v.sort();
            v
        };
        assert_eq!(sizes, vec![1, 2]);
    }

    /// `SELECT name, COUNT(uid) … GROUP BY name HAVING COUNT(uid) >= 1`
    /// over a core with head `(name, uid)`.
    fn count_per_name() -> AggregateSpec {
        use estocada_engine::{AggFun, AggSpec};
        AggregateSpec {
            group_cols: 1,
            aggs: vec![AggSpec {
                fun: AggFun::Count,
                col: 1,
                name: "COUNT(u.uid)".into(),
            }],
            having: vec![(1, CmpOp::Ge, Value::Int(1))],
            select: vec![("n".into(), 1), ("name".into(), 0)],
        }
    }

    fn translate_agg(rw: &Cq, residuals: &[Residual], spec: &AggregateSpec) -> Translation {
        let (catalog, stores) = fixture();
        let names = ["u.name".to_string(), "u.uid".to_string()];
        let query = Query {
            head_names: &names,
            residuals,
            aggregate: Some(spec),
        };
        translate_query(rw, &query, &catalog, &stores, &CostModel::default()).unwrap()
    }

    #[test]
    fn one_sql_unit_answers_the_whole_aggregate_priced_by_its_groups() {
        let spec = count_per_name();
        let rw = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(1), Term::var(0)],
            vec![Atom::new("UsersRel", vec![Term::var(0), Term::var(1)])],
        );
        let tr = translate_agg(&rw, &[], &spec);
        assert_eq!(
            tr.plan.explain(),
            "Project [n, name]\n  Delegated [relational: SELECT s.c0, COUNT(s.c1) FROM \
             (SELECT DISTINCT t0.c1, t0.c0 FROM t_users t0) s GROUP BY s.c0 \
             HAVING COUNT(s.c1) >= 1]\n"
        );
        // One row per group: no more than the names there are.
        assert_eq!(tr.est_rows, 10.0);
        let (pushed, _) = run(&tr.plan);
        // The public form translates the core alone; the mediator tail over
        // it answers the same, row for row.
        let (catalog, stores) = fixture();
        let names = ["u.name".to_string(), "u.uid".to_string()];
        let core = translate(
            &rw,
            &names,
            &[],
            &catalog,
            &stores,
            &CostModel::default(),
            None,
        );
        let core = core.unwrap();
        assert_eq!(
            core.plan.explain(),
            "Project [u.name, u.uid]\n  Delegated [relational: SELECT DISTINCT t0.c1, t0.c0 FROM t_users t0]\n"
        );
        let (mediated, _) = run(&wrap_aggregate(core.plan, &spec));
        assert_eq!(pushed.columns, vec!["n", "name"]);
        assert_eq!(pushed.rows.len(), 10);
        assert_eq!(
            (pushed.columns, pushed.rows),
            (mediated.columns, mediated.rows)
        );
    }

    #[test]
    fn a_head_constant_or_a_second_unit_keeps_the_mediator_tail() {
        let spec = count_per_name();
        let mediator_tail = |tr: &Translation| {
            let plan = tr.plan.explain();
            plan.contains("Aggregate") && plan.contains("Distinct") && !plan.contains("GROUP BY")
        };
        // A constant in the head.
        let constant = Cq::new(
            Symbol::intern("R"),
            vec![Term::constant("x"), Term::var(0)],
            vec![Atom::new("UsersRel", vec![Term::var(0), Term::var(1)])],
        );
        assert!(mediator_tail(&translate_agg(&constant, &[], &spec)));
        // Relational ⋈ key-value: two units, the SQL one ships the join key
        // alone.
        let joined = Cq::new(
            Symbol::intern("R"),
            vec![Term::var(2), Term::var(0)],
            vec![
                Atom::new("UsersRel", vec![Term::var(0), Term::var(1)]),
                Atom::new("UsersKV", vec![Term::var(0), Term::var(2)]),
            ],
        );
        let tr = translate_agg(&joined, &[], &spec);
        assert!(mediator_tail(&tr));
        assert_eq!(
            tr.unit_labels[0],
            "relational: SELECT t0.c0 FROM t_users t0"
        );
        let (batch, _) = run(&tr.plan);
        assert_eq!(batch.rows, vec![vec![Value::Int(1), Value::str("u3")]]);
    }
}
