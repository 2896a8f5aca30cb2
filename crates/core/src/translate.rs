//! Rewriting translation: turn a conjunctive rewriting over fragment
//! relations into an executable plan — group atoms per fragment, delegate
//! the largest subquery each store can take, and stitch the units together
//! with hash joins and BindJoins in the mediator runtime.

use crate::catalog::{Catalog, FragmentRelation, FragmentStats, WhereSpec};
use crate::connector::{
    doc_rows_unit, doc_tree_unit, kv_unit, par_unit, sql_unit, text_unit, var_col, Residual,
    ResidualTracker, Unit, UnitKind,
};
use crate::cost::CostModel;
use crate::error::{Error, Result};
use crate::resilience::{QueryResilience, ResilientSource};
use crate::system::{Stores, SystemId};
use estocada_engine::{BindSource, CmpOp, Expr, Plan};
use estocada_pivot::{Cq, Symbol, Term, Var};
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
    /// Systems touched.
    pub systems: Vec<SystemId>,
    /// Fragment relations used (for the catalog's use counters).
    pub used_relations: Vec<Symbol>,
}

type AtomInfo = (estocada_pivot::Atom, FragmentRelation, FragmentStats);

/// Translate `rewriting` (over fragment relations) into a plan computing
/// `head_names` columns, applying `residuals`.
///
/// Every delegated runner and BindJoin source passes its backend's fault
/// gate (see [`crate::connector`]) before each store request. With
/// `resilience` set they are additionally wrapped in the per-query
/// retry/breaker loop; with `None` a store error ends the plan at once
/// (advisor what-if costing, unit tests).
pub fn translate(
    rewriting: &Cq,
    head_names: &[String],
    residuals: &[Residual],
    catalog: &Catalog,
    stores: &Stores,
    cost: &CostModel,
    resilience: Option<&Arc<QueryResilience>>,
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

    let mut tracker = ResidualTracker::new(residuals.to_vec());
    let units = build_units(infos, &mut tracker, stores)?;

    // --- Order units (access-pattern feasibility + greedy cost). ---
    let order = order_units(&units)?;

    // --- Compose the plan. ---
    let mut state: Option<(Plan, Vec<Var>, f64)> = None;
    let mut est_cost = 0.0;
    let mut unit_labels = Vec::new();
    let mut systems = Vec::new();
    for idx in order {
        let unit = &units[idx];
        unit_labels.push(unit.label.clone());
        if !systems.contains(&unit.system) {
            systems.push(unit.system);
        }
        state = Some(match (state, &unit.kind) {
            (None, UnitKind::Run(runner)) => {
                est_cost += cost.request_cost(unit.system, unit.est_rows, unit.est_scanned);
                let runner = match resilience {
                    Some(ctx) => ctx.wrap_runner(unit.system, runner.clone()),
                    None => runner.clone(),
                };
                (
                    Plan::Delegated {
                        label: unit.label.clone(),
                        runner,
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
                let runner = match resilience {
                    Some(ctx) => ctx.wrap_runner(unit.system, runner.clone()),
                    None => runner.clone(),
                };
                let right = Plan::Delegated {
                    label: unit.label.clone(),
                    runner,
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
                let source: Arc<dyn BindSource> = match resilience {
                    Some(ctx) => Arc::new(ResilientSource::new(
                        source.clone(),
                        unit.system,
                        ctx.clone(),
                    )),
                    None => source.clone(),
                };
                let mut plan = Plan::BindJoin {
                    left: Box::new(plan),
                    key_cols,
                    source,
                };
                plan = dedup_columns(plan, &vars, &unit.out_vars, dup_filters);
                let est = (rows * unit.est_rows).max(0.0);
                est_cost += est * cost.runtime_per_tuple;
                (plan, new_vars, est)
            }
        });
    }
    let (mut plan, vars, mut est_rows) = state.expect("at least one unit");

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
            pred: Expr::col(pos).cmp(r.op.to_engine(), Expr::lit(r.value.clone())),
        };
        est_rows *= 0.33;
    }

    // --- Final projection onto the query head. ---
    let mut exprs = Vec::new();
    for (i, t) in rewriting.head.iter().enumerate() {
        let name = head_names
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
    // The pivot model has set semantics (fragments are CQ results):
    // deduplicate so every rewriting of a query returns the same relation.
    plan = Plan::Distinct {
        input: Box::new(Plan::Project {
            input: Box::new(plan),
            exprs,
        }),
    };

    Ok(Translation {
        plan,
        est_cost,
        est_rows,
        unit_labels,
        systems,
        used_relations,
    })
}

/// Group atoms into delegable units per store and fragment kind.
fn build_units(
    infos: Vec<AtomInfo>,
    tracker: &mut ResidualTracker,
    stores: &Stores,
) -> Result<Vec<Unit>> {
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
    let mut units = Vec::new();
    // Largest relational subquery: all table atoms in one SQL block.
    if !rel_atoms.is_empty() {
        units.push(sql_unit(&rel_atoms, tracker, stores)?);
    }
    // Parallel store: pair atoms sharing a variable into native joins.
    let mut remaining = par_atoms;
    while !remaining.is_empty() {
        let first = remaining.remove(0);
        let fvars: HashSet<Var> = first.0.vars().collect();
        let partner = remaining
            .iter()
            .position(|(a, _, _)| a.vars().any(|v| fvars.contains(&v)));
        match partner {
            Some(p) => {
                let second = remaining.remove(p);
                units.push(par_unit(&[first, second], tracker, stores)?);
            }
            None => units.push(par_unit(&[first], tracker, stores)?),
        }
    }
    // Native-document atoms: connected components via shared node ids.
    for component in doc_components(doc_native) {
        units.push(doc_tree_unit(&component, stores)?);
    }
    // Point units.
    for info in singles {
        let unit = match &info.1.place {
            WhereSpec::Namespace { .. } => kv_unit(&info.0, &info.1, &info.2, stores)?,
            WhereSpec::TextIndex { .. } => text_unit(&info.0, &info.1, &info.2, stores)?,
            WhereSpec::Collection { .. } => doc_rows_unit(&info.0, &info.1, &info.2, stores)?,
            _ => unreachable!(),
        };
        units.push(unit);
    }
    Ok(units)
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
}
