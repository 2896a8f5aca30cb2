//! The Storage Advisor: "recommends dropping redundant fragments that are
//! rarely used or under-performing, and adding new fragments that fit
//! recently heavy-hitting queries" — the paper's simple heuristics,
//! implemented over the pivot model and the cost model.
//!
//! Candidate generation generalizes each workload query: every constant in
//! the query body is lifted to a key variable, producing a parameterized
//! view; the candidate stores that view keyed by the lifted variables —
//! as a key-value fragment when the generalized query is a point lookup, or
//! as an indexed parallel-store fragment when it is a join. Benefit is
//! `weight × (current cost − estimated cost with the candidate)`.

use crate::catalog::FragmentSpec;
use crate::connector::Residual;
use crate::error::Result;
use crate::evaluator::Estocada;
use crate::planner;
use crate::system::SystemId;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{Cq, Symbol, Term, Var};

/// One workload entry: a pivot query with a frequency weight.
#[derive(Debug, Clone)]
pub struct WorkloadQuery {
    /// Display name.
    pub name: String,
    /// The query.
    pub cq: Cq,
    /// Output names.
    pub head_names: Vec<String>,
    /// Residual comparisons.
    pub residuals: Vec<Residual>,
    /// Relative frequency.
    pub weight: f64,
}

/// A recommended catalog change.
#[derive(Debug)]
pub enum Action {
    /// Materialize a new fragment.
    Add(FragmentSpec),
    /// Drop an existing fragment (by id).
    Drop(String),
}

/// One recommendation with its estimated benefit.
#[derive(Debug)]
pub struct Recommendation {
    /// What to do.
    pub action: Action,
    /// Why.
    pub reason: String,
    /// Estimated workload benefit (cost units/period).
    pub benefit: f64,
}

/// Generalize `cq`: lift every *distinct constant value* of the body to one
/// fresh variable (all occurrences of the same constant share it —
/// `o.uid = 5 ∧ l.uid = 5` stays an equi-join after lifting) and prepend
/// the lifted variables to the head. Returns the view and the number of
/// lifted parameters.
pub fn generalize(cq: &Cq, view_name: &str) -> (Cq, usize) {
    use estocada_pivot::Value;
    let mut next = cq.var_space();
    let mut lifted: std::collections::BTreeMap<Value, Var> = Default::default();
    let mut order: Vec<Var> = Vec::new();
    let mut body = Vec::new();
    for atom in &cq.body {
        let args = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => {
                    let v = *lifted.entry(c.clone()).or_insert_with(|| {
                        let v = Var(next);
                        next += 1;
                        order.push(v);
                        v
                    });
                    Term::Var(v)
                }
                v => v.clone(),
            })
            .collect();
        body.push(estocada_pivot::Atom::new(atom.pred, args));
    }
    let mut head: Vec<Term> = order.iter().map(|v| Term::Var(*v)).collect();
    head.extend(cq.head.iter().cloned());
    let count = order.len();
    (Cq::new(Symbol::intern(view_name), head, body), count)
}

/// Current (best) estimated cost of answering `q`, or `None` when
/// unanswerable: the planner's unpenalized minimum — the cheapest
/// `est_cost` an `EXPLAIN` of the same query lists — planned past the plan
/// cache, so advising leaves the engine's cache and its counters alone.
pub fn current_cost(est: &Estocada, q: &WorkloadQuery) -> Option<f64> {
    let request = est.query_pivot(q.cq.clone(), q.head_names.clone(), q.residuals.clone());
    let planned = planner::plan(est, &request.input, false).ok()?;
    let candidates = &planned.prepared.candidates;
    let best = planner::cheapest(candidates.iter().enumerate(), est.cost_model(), |_| false)?;
    Some(candidates[best].translation.est_cost)
}

/// Produce recommendations for `workload` against the current catalog.
/// Read-only: safe to run against a shared engine while it serves queries.
pub fn recommend(est: &Estocada, workload: &[WorkloadQuery]) -> Result<Vec<Recommendation>> {
    let mut recs = Vec::new();
    // Identical generalized shapes (same query template with different
    // parameters) share one candidate; weights accumulate.
    let mut seen_shapes: FastMap<String, usize> = Default::default();

    for q in workload {
        let baseline = current_cost(est, q);
        let (view, lifted) = generalize(&q.cq, &format!("Adv_{}", q.name));
        if !view.is_safe() {
            continue;
        }
        let (spec, system, kind) = if lifted == 1 && q.cq.body.len() == 1 {
            // Single parameter over one relation: a point-access shape.
            (
                FragmentSpec::KeyValue { view: view.clone() },
                SystemId::KeyValue,
                "key-value point-access fragment",
            )
        } else if lifted >= 1 {
            // Joins / composite parameters: materialized view in the
            // parallel store, key-indexed on the lifted parameters (the
            // generalized head names them c0..c{k-1}).
            let index_on: Vec<String> = (0..lifted).map(|i| format!("c{i}")).collect();
            (
                FragmentSpec::ParRows {
                    view: view.clone(),
                    index_on,
                    partitions: 0,
                },
                SystemId::Parallel,
                "materialized indexed join fragment",
            )
        } else {
            continue;
        };
        // Through the candidate: one point access (all lifted constants
        // form the key) returning a handful of rows.
        let with_candidate = est.cost_model().request_cost(system, 4.0, 0.0);
        let benefit = match baseline {
            Some(b) => (b - with_candidate) * q.weight,
            // Currently unanswerable: any covering fragment is valuable.
            None => with_candidate.max(1.0) * q.weight * 10.0,
        };
        if benefit <= 0.0 {
            continue;
        }
        // Canonical shape key: name-independent.
        let shape = {
            let mut c = view.clone();
            c.name = Symbol::intern("AdvShape");
            format!("{}", c.canonicalize())
        };
        match seen_shapes.get(&shape) {
            Some(&idx) => {
                let r: &mut Recommendation = &mut recs[idx];
                r.benefit += benefit;
            }
            None => {
                seen_shapes.insert(shape, recs.len());
                recs.push(Recommendation {
                    action: Action::Add(spec),
                    reason: format!(
                        "{kind} for heavy-hitter {} (weight {}), lifted {lifted} parameter(s)",
                        q.name, q.weight
                    ),
                    benefit,
                });
            }
        }
    }

    recs.extend(drop_recommendations(est));
    recs.sort_by(|a, b| b.benefit.total_cmp(&a.benefit));
    Ok(recs)
}

/// Drop recommendations come straight from the static analyzer's fragment
/// lints: `W004 UnusedFragment` (never served a query while other
/// fragments have) and `W001 SubsumedFragment` (defining view equivalent to
/// an earlier fragment). W001's message distinguishes same-store
/// redundancy from a cross-store mirror; both surface here — dropping a
/// cross-store mirror is the analyzer's consolidation recommendation (the
/// rewriting engine keeps answering through the surviving fragment), and
/// the reason string carries the distinction so operators can keep
/// deliberate mirrors. The lint target is the fragment id.
fn drop_recommendations(est: &Estocada) -> Vec<Recommendation> {
    let lint_cfg = est.rewrite_config().chase;
    let mut dropped: FastSet<String> = Default::default();
    let mut recs = Vec::new();
    for d in crate::analyze::fragment_lints(est.schema(), est.catalog(), &lint_cfg) {
        let droppable = matches!(
            d.code,
            crate::analyze::Code::UnusedFragment | crate::analyze::Code::SubsumedFragment
        );
        // One Drop per fragment even when several lints flag it.
        if droppable && dropped.insert(d.target.clone()) {
            recs.push(Recommendation {
                action: Action::Drop(d.target.clone()),
                reason: format!("{} {}: {}", d.code.id(), d.target, d.message),
                benefit: 0.0,
            });
        }
    }
    recs
}

/// Budget-aware recommendation (the paper's stated future work: "cost-based
/// recommendation of optimal fragmentation"): candidates are sized by
/// evaluating their generalized views over the staged datasets, then chosen
/// greedily by benefit density (benefit per byte) under `budget_bytes`.
/// Drop recommendations pass through unchanged (they free space).
pub fn recommend_under_budget(
    est: &Estocada,
    workload: &[WorkloadQuery],
    budget_bytes: u64,
) -> Result<Vec<Recommendation>> {
    let recs = recommend(est, workload)?;
    let mut sized: Vec<(Recommendation, u64)> = Vec::new();
    let mut drops = Vec::new();
    for r in recs {
        match &r.action {
            Action::Add(spec) => {
                let view = match spec {
                    FragmentSpec::Table { view, .. }
                    | FragmentSpec::KeyValue { view }
                    | FragmentSpec::DocRows { view, .. }
                    | FragmentSpec::ParRows { view, .. } => view.clone(),
                    _ => continue,
                };
                let rows = est.oracle_eval(&view);
                let bytes: u64 = rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(estocada_pivot::Value::approx_size)
                            .sum::<usize>() as u64
                    })
                    .sum();
                sized.push((r, bytes.max(1)));
            }
            Action::Drop(_) => drops.push(r),
        }
    }
    // Greedy by benefit density.
    sized.sort_by(|(a, ab), (b, bb)| {
        let da = a.benefit / *ab as f64;
        let db = b.benefit / *bb as f64;
        db.total_cmp(&da)
    });
    let mut out = Vec::new();
    let mut used = 0u64;
    for (mut r, bytes) in sized {
        if used + bytes <= budget_bytes {
            used += bytes;
            r.reason = format!("{} [{} bytes of {} budget]", r.reason, bytes, budget_bytes);
            out.push(r);
        }
    }
    out.extend(drops);
    Ok(out)
}

/// Apply the `Add` recommendations (materializing fragments); `Drop`s are
/// applied only when `apply_drops` is set. Returns the new fragment ids.
pub fn apply(
    est: &mut Estocada,
    recs: Vec<Recommendation>,
    apply_drops: bool,
) -> Result<Vec<String>> {
    let mut ids = Vec::new();
    for r in recs {
        match r.action {
            Action::Add(spec) => ids.push(est.add_fragment(spec)?),
            Action::Drop(id) => {
                if apply_drops {
                    est.drop_fragment(&id)?;
                }
            }
        }
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::CqBuilder;

    #[test]
    fn generalize_lifts_constants_into_key() {
        let q = CqBuilder::new("Q")
            .head_vars(["n"])
            .atom("Users", |a| a.c(7i64).v("n").v("t"))
            .build();
        let (view, lifted) = generalize(&q, "V");
        assert_eq!(lifted, 1);
        assert_eq!(view.head.len(), 2); // key var + n
        assert!(view.is_safe());
        assert!(view.body.iter().all(|a| a.args.iter().all(|t| t.is_var())));
    }

    #[test]
    fn generalize_keeps_queries_without_constants() {
        let q = CqBuilder::new("Q")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        let (view, lifted) = generalize(&q, "V");
        assert_eq!(lifted, 0);
        assert_eq!(view.head.len(), 2);
    }
}
