//! Rewriting translation: turn a conjunctive rewriting over fragment
//! relations into an executable plan — group atoms per fragment, delegate
//! the largest subquery each store can take, and stitch the units together
//! with hash joins and BindJoins in the mediator runtime.
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
    doc_rows_unit, doc_tree_unit, kv_unit, par_unit, sql_unit, text_unit, var_col, Answers,
    Residual, ResidualTracker, Ship, Tail, Unit, UnitKind,
};
use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::frontends::AggregateSpec;
use crate::resilience::{QueryResilience, ResilientSource};
use crate::system::{Stores, SystemId};
use estocada_engine::{CmpOp, Expr, Plan};
use estocada_pivot::{Cq, GroupBy, Symbol, Term, Var};
use std::collections::HashSet;
use std::sync::Arc;

/// A translated, costed, executable rewriting.
pub struct Translation {
    /// The executable plan.
    pub plan: Plan,
    /// Estimated cost (abstract units).
    pub est_cost: f64,
    /// Estimated result cardinality.
    pub est_rows: f64,
    /// Labels of the delegated units, in execution order.
    pub unit_labels: Vec<String>,
    /// The system serving each delegated unit, parallel to `unit_labels`.
    pub unit_systems: Vec<SystemId>,
    /// Systems touched.
    pub systems: Vec<SystemId>,
    /// Fragment relations used (for the catalog's use counters).
    pub used_relations: Vec<Symbol>,
}

type AtomInfo = (estocada_pivot::Atom, FragmentRelation, FragmentStats);

/// Translate `rewriting` (over fragment relations) into a plan computing
/// `head_names` columns, applying `residuals` — the no-aggregate call of
/// the crate's one plan builder, `translate_query`.
///
/// Every delegated runner and BindJoin source passes its backend's fault
/// gate (see [`crate::connector`]) before each store request. With
/// `resilience` set the built plan's delegated leaves are additionally
/// wrapped in the per-query retry/breaker loop; with `None` a store error
/// ends the plan at once (unit tests, replaying a plan from outside the
/// engine).
pub fn translate(
    rewriting: &Cq,
    head_names: &[String],
    residuals: &[Residual],
    catalog: &Catalog,
    stores: &Stores,
    cost: &CostModel,
    resilience: Option<&Arc<QueryResilience>>,
) -> Result<Translation> {
    let query = Query {
        head_names,
        residuals,
        aggregate: None,
    };
    let mut built = translate_query(rewriting, &query, catalog, stores, cost)?;
    if let Some(ctx) = resilience {
        built.plan = bind(&built, ctx);
    }
    Ok(built)
}

/// `built.plan` with every delegated leaf — `Delegated` runners and
/// `BindJoin` sources, met in execution order — running through `ctx`'s
/// retry/breaker loop. The one place a plan meets a query's fault handling:
/// what [`translate_query`] builds belongs to no query, so the planner can
/// keep it and bind it to each query that runs it.
pub(crate) fn bind(built: &Translation, ctx: &Arc<QueryResilience>) -> Plan {
    fn leaves<'a>(
        plan: &mut Plan,
        systems: &mut impl Iterator<Item = &'a SystemId>,
        ctx: &Arc<QueryResilience>,
    ) {
        match plan {
            Plan::Values(_) => {}
            Plan::Delegated { runner, .. } => {
                if let Some(system) = systems.next() {
                    *runner = ctx.wrap_runner(*system, runner.clone());
                }
            }
            Plan::Filter { input, .. }
            | Plan::Project { input, .. }
            | Plan::Distinct { input }
            | Plan::Aggregate { input, .. } => leaves(input, systems, ctx),
            Plan::HashJoin { left, right, .. } | Plan::NlJoin { left, right, .. } => {
                leaves(left, systems, ctx);
                leaves(right, systems, ctx);
            }
            Plan::BindJoin { left, source, .. } => {
                leaves(left, systems, ctx);
                if let Some(system) = systems.next() {
                    let probed = ResilientSource::new(source.clone(), *system, ctx.clone());
                    *source = Arc::new(probed);
                }
            }
        }
    }
    let (mut plan, mut systems) = (built.plan.clone(), built.unit_systems.iter());
    leaves(&mut plan, &mut systems, ctx);
    debug_assert!(systems.next().is_none(), "a unit without its leaf");
    plan
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
/// carries no query's fault handling; [`bind`] adds it.
pub(crate) fn translate_query(
    rewriting: &Cq,
    query: &Query,
    catalog: &Catalog,
    stores: &Stores,
    cost: &CostModel,
) -> Result<Translation> {
    if rewriting.body.is_empty() {
        return Err(Error::Untranslatable("empty rewriting body".into()));
    }
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
    let mut state: Option<(Plan, Vec<Var>, f64)> = None;
    let mut est_cost = 0.0;
    let mut unit_labels = Vec::new();
    let mut unit_systems = Vec::new();
    let mut systems = Vec::new();
    for idx in order {
        let unit = &units[idx];
        unit_labels.push(unit.label.clone());
        unit_systems.push(unit.system);
        if !systems.contains(&unit.system) {
            systems.push(unit.system);
        }
        state = Some(match (state, &unit.kind) {
            (None, UnitKind::Run(runner)) => {
                est_cost += cost.request_cost(unit.system, unit.est_rows, unit.est_scanned);
                (
                    Plan::Delegated {
                        label: unit.label.clone(),
                        runner: runner.clone(),
                    },
                    unit.out_vars.clone(),
                    unit.est_rows,
                )
            }
            (None, UnitKind::Bind(_)) => {
                return Err(Error::Untranslatable(format!(
                    "unit {} needs bound inputs but nothing precedes it",
                    unit.label
                )))
            }
            (Some((plan, vars, rows)), UnitKind::Run(runner)) => {
                est_cost += cost.request_cost(unit.system, unit.est_rows, unit.est_scanned);
                let right = Plan::Delegated {
                    label: unit.label.clone(),
                    runner: runner.clone(),
                };
                let (plan, vars, est) = join_states(
                    plan,
                    vars,
                    rows,
                    right,
                    &unit.out_vars,
                    unit.est_rows,
                    cost,
                    &mut est_cost,
                );
                (plan, vars, est)
            }
            (Some((plan, vars, rows)), UnitKind::Bind(source)) => {
                // BindJoin: one probe per distinct key (estimated as the
                // current row count).
                let key_cols: Vec<usize> = unit
                    .inputs
                    .iter()
                    .map(|v| {
                        vars.iter().position(|x| x == v).ok_or_else(|| {
                            Error::Untranslatable(format!(
                                "BindJoin input {} not bound by earlier units",
                                var_col(*v)
                            ))
                        })
                    })
                    .collect::<Result<_>>()?;
                est_cost += rows * cost.request_cost(unit.system, unit.est_rows, unit.est_scanned);
                let mut new_vars = vars.clone();
                let mut dup_filters = Vec::new();
                for (i, v) in unit.out_vars.iter().enumerate() {
                    if vars.contains(v) {
                        dup_filters
                            .push((vars.iter().position(|x| x == v).unwrap(), vars.len() + i));
                    } else {
                        new_vars.push(*v);
                    }
                }
                let mut plan = Plan::BindJoin {
                    left: Box::new(plan),
                    key_cols,
                    source: source.clone(),
                };
                plan = dedup_columns(plan, &vars, &unit.out_vars, dup_filters);
                let est = (rows * unit.est_rows).max(0.0);
                est_cost += est * cost.runtime_per_tuple;
                (plan, new_vars, est)
            }
        });
    }
    let (mut plan, vars, mut est_rows) = state.expect("at least one unit");
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
        unit_labels,
        unit_systems,
        systems,
        used_relations,
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
        let fvars: HashSet<Var> = first.0.vars().collect();
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
    groups.extend(
        singles
            .into_iter()
            .map(|a| group(GroupKind::Point, vec![a])),
    );
    groups
}

/// Split native-document atoms into connected components over shared
/// node-id variables (each component is one tree query on one document).
fn doc_components(atoms: Vec<AtomInfo>) -> Vec<Vec<AtomInfo>> {
    use crate::catalog::DocRole;
    let node_vars = |info: &AtomInfo| -> Vec<Var> {
        let role = match &info.1.place {
            WhereSpec::NativeDocs { role, .. } => *role,
            _ => return Vec::new(),
        };
        let positions: &[usize] = match role {
            DocRole::Doc => &[0],
            DocRole::Root | DocRole::Child | DocRole::Desc => &[0, 1],
            DocRole::Node | DocRole::Val => &[0],
        };
        positions
            .iter()
            .filter_map(|p| info.0.args.get(*p).and_then(Term::as_var))
            .collect()
    };
    let mut components: Vec<(HashSet<Var>, Vec<AtomInfo>)> = Vec::new();
    for info in atoms {
        let vars: HashSet<Var> = node_vars(&info).into_iter().collect();
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
    let mut bound: HashSet<Var> = HashSet::new();
    let mut remaining: Vec<usize> = (0..units.len()).collect();
    let mut order = Vec::new();
    while !remaining.is_empty() {
        let eligible: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|i| units[*i].inputs.iter().all(|v| bound.contains(v)))
            .collect();
        if eligible.is_empty() {
            return Err(Error::Untranslatable(
                "no executable unit order satisfies the access patterns".into(),
            ));
        }
        let pick = *eligible
            .iter()
            .min_by(|a, b| {
                let shares = |i: usize| -> bool {
                    !bound.is_empty()
                        && units[i]
                            .out_vars
                            .iter()
                            .chain(&units[i].inputs)
                            .any(|v| bound.contains(v))
                };
                // Sharing units first, then cheaper estimates.
                (shares(**b), units[**b].est_rows)
                    .partial_cmp(&(shares(**a), units[**a].est_rows))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(b))
            })
            .unwrap();
        remaining.retain(|i| *i != pick);
        bound.extend(units[pick].out_vars.iter().copied());
        bound.extend(units[pick].inputs.iter().copied());
        order.push(pick);
    }
    Ok(order)
}

/// Join the accumulated plan with a new `Run` unit: hash join on shared
/// variables (cross product when none), de-duplicating repeated columns.
#[allow(clippy::too_many_arguments)]
fn join_states(
    left: Plan,
    left_vars: Vec<Var>,
    left_rows: f64,
    right: Plan,
    right_vars: &[Var],
    right_rows: f64,
    cost: &CostModel,
    est_cost: &mut f64,
) -> (Plan, Vec<Var>, f64) {
    let shared: Vec<Var> = right_vars
        .iter()
        .copied()
        .filter(|v| left_vars.contains(v))
        .collect();
    let mut new_vars = left_vars.clone();
    for v in right_vars {
        if !left_vars.contains(v) {
            new_vars.push(*v);
        }
    }
    let (plan, est) = if shared.is_empty() {
        (
            Plan::NlJoin {
                left: Box::new(left),
                right: Box::new(right),
                pred: None,
            },
            left_rows * right_rows,
        )
    } else {
        let left_keys: Vec<usize> = shared
            .iter()
            .map(|v| left_vars.iter().position(|x| x == v).unwrap())
            .collect();
        let right_keys: Vec<usize> = shared
            .iter()
            .map(|v| right_vars.iter().position(|x| x == v).unwrap())
            .collect();
        let sel = 10f64.powi(shared.len() as i32);
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
    let plan = dedup_columns(plan, &left_vars, right_vars, Vec::new());
    (plan, new_vars, est)
}

/// Project away duplicated right-side columns after a join, adding equality
/// filters for explicitly tracked duplicates first.
fn dedup_columns(
    plan: Plan,
    left_vars: &[Var],
    right_vars: &[Var],
    dup_filters: Vec<(usize, usize)>,
) -> Plan {
    let mut plan = plan;
    for (l, r) in &dup_filters {
        plan = Plan::Filter {
            input: Box::new(plan),
            pred: Expr::col(*l).cmp(CmpOp::Eq, Expr::col(*r)),
        };
    }
    let dup_exists = right_vars.iter().any(|v| left_vars.contains(v));
    if !dup_exists {
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
    use estocada_pivot::{AccessPattern, Atom, CqBuilder, Value, ViewDef};

    /// A catalog with one relational table fragment and one KV fragment.
    fn fixture() -> (Catalog, Stores) {
        let stores = Stores::new(Latencies::zero());
        stores.rel.create_table("t_users", &["uid", "name"]);
        stores.rel.insert_many(
            "t_users",
            (0..10).map(|i| vec![Value::Int(i), Value::str(format!("u{i}"))]),
        );
        stores.kv.put(
            "kv_users",
            Value::Int(3),
            &[Value::array([Value::array([Value::str("u3")])])],
        );
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
                },
            }],
            stats: vec![FragmentStats {
                rows: 10,
                distinct: vec![10, 10],
                bytes: 200,
            }],
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
                access: Some(AccessPattern::parse("io")),
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
        let (batch, _) = estocada_engine::execute(&tr.plan).unwrap();
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
        let (batch, stats) = estocada_engine::execute(&tr.plan).unwrap();
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
        let (pushed, _) = estocada_engine::execute(&tr.plan).unwrap();
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
        let (mediated, _) = estocada_engine::execute(&wrap_aggregate(core.plan, &spec)).unwrap();
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
        let (batch, _) = estocada_engine::execute(&tr.plan).unwrap();
        assert_eq!(batch.rows, vec![vec![Value::Int(1), Value::str("u3")]]);
    }
}
