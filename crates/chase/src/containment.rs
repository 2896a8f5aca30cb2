//! Chase-based containment, equivalence and minimization of conjunctive
//! queries under constraints.

use crate::chase::{
    chase, chase_prepared, ChaseConfig, ChaseError, ChaseStats, PreparedConstraints,
};
use crate::hom::find_one_hom;
use crate::instance::{Elem, Instance};
use crate::pacb::{freeze, head_fixed_map, term_to_elem};
use crate::prov::Dnf;
use estocada_pivot::{Constraint, Cq, Term, Var};
use std::collections::HashMap;

/// Build the canonical instance ("frozen body") of a query: variable `i`
/// becomes labelled null `i`, constants stay constants.
pub fn canonical_instance(q: &Cq) -> Instance {
    freeze(&q.head, &q.body, |_| Dnf::tru())
}

/// The image of frozen term `t` in (a chase of) its frozen instance.
fn frozen_image(inst: &Instance, t: &Term) -> Elem {
    inst.resolve(&term_to_elem(t))
}

/// Decide `q1 ⊆ q2` under `constraints`: chase `q1`'s canonical instance,
/// then look for a containment mapping from `q2` that sends `q2`'s head to
/// the (frozen, possibly merged) image of `q1`'s head.
///
/// Head arities must match; returns `Ok(false)` otherwise.
pub fn contained_in(
    q1: &Cq,
    q2: &Cq,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<bool, ChaseError> {
    let set = PreparedConstraints::new(constraints);
    contained_in_prepared(q1, q2, &set, cfg).map(|(contained, _)| contained)
}

/// [`contained_in`] over an already prepared set, also reporting the
/// counters of the chase it ran (zero when none completed).
pub(crate) fn contained_in_prepared(
    q1: &Cq,
    q2: &Cq,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
) -> Result<(bool, ChaseStats), ChaseError> {
    if q1.head.len() != q2.head.len() {
        return Ok((false, ChaseStats::default()));
    }
    let mut inst = canonical_instance(q1);
    let stats = match chase_prepared(&mut inst, set, cfg) {
        Ok(stats) => stats,
        // An inconsistent canonical instance denotes the empty query, which
        // is contained in everything.
        Err(ChaseError::Inconsistent(_)) => return Ok((true, ChaseStats::default())),
        Err(e) => return Err(e),
    };
    Ok((head_preserving_image(q2, q1, &inst), stats))
}

/// Is there a homomorphism from `q`'s body into `inst` — a (chase of the)
/// canonical instance of `frozen` — mapping `q`'s head terms exactly onto
/// the frozen images of `frozen`'s head?
fn head_preserving_image(q: &Cq, frozen: &Cq, inst: &Instance) -> bool {
    let targets: Vec<Elem> = frozen.head.iter().map(|t| frozen_image(inst, t)).collect();
    head_fixed_map(q, &targets).is_some_and(|fixed| find_one_hom(inst, &q.body, &fixed).is_some())
}

/// Chase `sigma`'s frozen premise under `rest`: `Ok(None)` when the chase
/// derives a contradiction, so the premise is unsatisfiable under `rest`.
fn chase_frozen_premise(
    sigma: &Constraint,
    rest: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<Option<Instance>, ChaseError> {
    let mut inst = freeze(&[], sigma.premise(), |_| Dnf::tru());
    match chase(&mut inst, rest, cfg) {
        Ok(_) => Ok(Some(inst)),
        Err(ChaseError::Inconsistent(_)) => Ok(None),
        Err(e) => Err(e),
    }
}

/// Decide whether `sigma` is logically implied by `rest` (for every
/// instance satisfying `rest`, `sigma` holds): chase `sigma`'s frozen
/// premise under `rest`, then
///
/// - a **TGD** is implied iff its conclusion has a homomorphism into the
///   chased instance that pins every frontier variable to its (possibly
///   EGD-merged) frozen image;
/// - an **EGD** is implied iff its two equality terms resolve to the same
///   element of the chased instance.
///
/// An inconsistent chase means the premise is unsatisfiable under `rest`,
/// so `sigma` holds vacuously (`Ok(true)`). A budget abort propagates as
/// `Err` — the caller must treat it as *abstain*, not as a verdict.
pub fn implies(
    sigma: &Constraint,
    rest: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<bool, ChaseError> {
    let Some(inst) = chase_frozen_premise(sigma, rest, cfg)? else {
        return Ok(true);
    };
    match sigma {
        Constraint::Tgd(tgd) => {
            let fixed: HashMap<Var, Elem> = tgd
                .frontier()
                .into_iter()
                .map(|v| (v, frozen_image(&inst, &Term::Var(v))))
                .collect();
            Ok(find_one_hom(&inst, &tgd.conclusion, &fixed).is_some())
        }
        Constraint::Egd(egd) => {
            let (a, b) = &egd.equal;
            Ok(frozen_image(&inst, a) == frozen_image(&inst, b))
        }
    }
}

/// Is `sigma`'s premise **certainly unsatisfiable** under `constraints` —
/// does chasing its frozen premise derive a contradiction (an EGD forced
/// to merge two distinct constants)? Such a constraint can never fire on
/// any consistent instance. A budget abort propagates as `Err` (abstain).
pub fn premise_unsatisfiable(
    sigma: &Constraint,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<bool, ChaseError> {
    Ok(chase_frozen_premise(sigma, constraints, cfg)?.is_none())
}

/// Decide `q1 ≡ q2` under `constraints` (containment both ways).
pub fn equivalent(
    q1: &Cq,
    q2: &Cq,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<bool, ChaseError> {
    Ok(contained_in(q1, q2, constraints, cfg)? && contained_in(q2, q1, constraints, cfg)?)
}

/// Compute the core (minimal equivalent subquery) of `q` with no
/// constraints: repeatedly drop an atom while a head-preserving containment
/// mapping from the full query into the reduced one exists.
pub fn minimize(q: &Cq) -> Cq {
    let mut current = q.clone();
    loop {
        let mut reduced = None;
        for i in 0..current.body.len() {
            let mut candidate = current.clone();
            candidate.body.remove(i);
            if !candidate.is_safe() {
                continue;
            }
            // candidate ⊆ current always (fewer atoms); equivalence needs
            // current-image in candidate's canonical instance.
            let inst = canonical_instance(&candidate);
            if head_preserving_image(&current, &candidate, &inst) {
                reduced = Some(candidate);
                break;
            }
        }
        match reduced {
            Some(c) => current = c,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_pivot::{Atom, CqBuilder, Egd, Tgd, ViewDef};

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn syntactic_containment_via_homomorphism() {
        // Q1(x) :- R(x, y), R(y, z)  vs  Q2(x) :- R(x, y)
        let q1 = CqBuilder::new("Q1")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("R", |a| a.v("y").v("z"))
            .build();
        let q2 = CqBuilder::new("Q2")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        assert!(contained_in(&q1, &q2, &[], &cfg()).unwrap());
        assert!(!contained_in(&q2, &q1, &[], &cfg()).unwrap());
    }

    #[test]
    fn constants_block_containment() {
        let q1 = CqBuilder::new("Q1")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").c(1i64))
            .build();
        let q2 = CqBuilder::new("Q2")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").c(2i64))
            .build();
        assert!(!contained_in(&q1, &q2, &[], &cfg()).unwrap());
        // But both are contained in the unconstrained version.
        let q3 = CqBuilder::new("Q3")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        assert!(contained_in(&q1, &q3, &[], &cfg()).unwrap());
    }

    #[test]
    fn containment_under_tgd() {
        // Σ: Child(x,y) → Desc(x,y). Then Q1(x,y):-Child(x,y) ⊆ Q2(x,y):-Desc(x,y).
        let t: Constraint = Tgd::new(
            "c2d",
            vec![Atom::new("Child", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("Desc", vec![Term::var(0), Term::var(1)])],
        )
        .into();
        let q1 = CqBuilder::new("Q1")
            .head_vars(["x", "y"])
            .atom("Child", |a| a.v("x").v("y"))
            .build();
        let q2 = CqBuilder::new("Q2")
            .head_vars(["x", "y"])
            .atom("Desc", |a| a.v("x").v("y"))
            .build();
        assert!(contained_in(&q1, &q2, std::slice::from_ref(&t), &cfg()).unwrap());
        assert!(!contained_in(&q2, &q1, &[t], &cfg()).unwrap());
    }

    #[test]
    fn view_expansion_equivalence() {
        // V(x,z) :- R(x,y), S(y,z); query over V equals the join.
        let v = ViewDef::new(
            CqBuilder::new("V")
                .head_vars(["x", "z"])
                .atom("R", |a| a.v("x").v("y"))
                .atom("S", |a| a.v("y").v("z"))
                .build(),
        );
        let sigma: Vec<Constraint> = v.constraints().into();
        let over_view = CqBuilder::new("Qv")
            .head_vars(["x", "z"])
            .atom("V", |a| a.v("x").v("z"))
            .build();
        let join = CqBuilder::new("Qj")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        assert!(equivalent(&over_view, &join, &sigma, &cfg()).unwrap());
    }

    #[test]
    fn minimize_removes_redundant_atoms() {
        // Q(x) :- R(x,y), R(x,z)  — second atom is redundant.
        let q = CqBuilder::new("Q")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("R", |a| a.v("x").v("z"))
            .build();
        let m = minimize(&q);
        assert_eq!(m.body.len(), 1);
    }

    #[test]
    fn minimize_keeps_necessary_atoms() {
        let q = CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build();
        let m = minimize(&q);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn head_arity_mismatch_is_not_contained() {
        let q1 = CqBuilder::new("Q1")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        let q2 = CqBuilder::new("Q2")
            .head_vars(["x", "y"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        assert!(!contained_in(&q1, &q2, &[], &cfg()).unwrap());
    }

    #[test]
    fn implied_tgd_is_detected_transitively() {
        // A(x)→B(x), B(x)→C(x) imply A(x)→C(x); the converse fails.
        let a2b: Constraint = Tgd::new(
            "a2b",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("B", vec![Term::var(0)])],
        )
        .into();
        let b2c: Constraint = Tgd::new(
            "b2c",
            vec![Atom::new("B", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        )
        .into();
        let a2c: Constraint = Tgd::new(
            "a2c",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        )
        .into();
        assert!(implies(&a2c, &[a2b.clone(), b2c.clone()], &cfg()).unwrap());
        assert!(!implies(&a2b, &[a2c, b2c], &cfg()).unwrap());
    }

    #[test]
    fn implied_egd_needs_egd_reasoning() {
        // key: R(k,v) ∧ R(k,v') → v = v'. A widened variant joining
        // through an extra copy of the same atom is implied by the key;
        // the key is NOT implied by a trivially-true reflexive EGD.
        let key: Constraint = Egd::new(
            "key",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into();
        let widened: Constraint = Egd::new(
            "widened",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
                Atom::new("R", vec![Term::var(0), Term::var(3)]),
            ],
            (Term::var(1), Term::var(3)),
        )
        .into();
        let reflexive: Constraint = Egd::new(
            "refl",
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
            (Term::var(1), Term::var(1)),
        )
        .into();
        assert!(implies(&widened, std::slice::from_ref(&key), &cfg()).unwrap());
        assert!(implies(&reflexive, &[], &cfg()).unwrap());
        assert!(!implies(&key, std::slice::from_ref(&reflexive), &cfg()).unwrap());
    }

    #[test]
    fn tgd_implied_through_an_egd_merge() {
        // key EGD on S plus S(x,y)→T(y) imply S(x,y)∧S(x,z)→T(z)'s twin
        // S(x,y)∧S(x,z)→T(y): the merge identifies y and z first.
        let key: Constraint = Egd::new(
            "s_key",
            vec![
                Atom::new("S", vec![Term::var(0), Term::var(1)]),
                Atom::new("S", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into();
        let s2t: Constraint = Tgd::new(
            "s2t",
            vec![Atom::new("S", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("T", vec![Term::var(1)])],
        )
        .into();
        let joined: Constraint = Tgd::new(
            "joined",
            vec![
                Atom::new("S", vec![Term::var(0), Term::var(1)]),
                Atom::new("S", vec![Term::var(0), Term::var(2)]),
            ],
            vec![Atom::new("T", vec![Term::var(2)])],
        )
        .into();
        // Without the key, y and z stay distinct and T(z) is underivable
        // from s2t's firing on y alone... but s2t also fires on z, so this
        // IS implied by s2t alone. The interesting direction: dropping s2t
        // leaves nothing to derive T at all.
        assert!(implies(&joined, &[key.clone(), s2t.clone()], &cfg()).unwrap());
        assert!(implies(&joined, std::slice::from_ref(&s2t), &cfg()).unwrap());
        assert!(!implies(&joined, std::slice::from_ref(&key), &cfg()).unwrap());
    }

    #[test]
    fn unsatisfiable_premise_is_vacuously_implied() {
        // Σ forces Flag(x) → x = 1 and x = 2 on any Flag pair — the frozen
        // premise of a constraint joining Flag with both constants chases
        // to a constant clash.
        let to_one: Constraint = Egd::new(
            "to_one",
            vec![Atom::new("Flag", vec![Term::var(0)])],
            (Term::var(0), Term::Const(estocada_pivot::Value::Int(1))),
        )
        .into();
        let bad: Constraint = Tgd::new(
            "bad",
            vec![
                Atom::new("Flag", vec![Term::var(0)]),
                Atom::new("Two", vec![Term::var(0)]),
                Atom::new("Flag", vec![Term::var(1)]),
                Atom::new("Two", vec![Term::var(1)]),
            ],
            vec![Atom::new("Out", vec![Term::var(0)])],
        )
        .into();
        let fix_two: Constraint = Egd::new(
            "fix_two",
            vec![Atom::new("Two", vec![Term::var(0)])],
            (Term::var(0), Term::Const(estocada_pivot::Value::Int(2))),
        )
        .into();
        assert!(premise_unsatisfiable(&bad, &[to_one.clone(), fix_two.clone()], &cfg()).unwrap());
        assert!(implies(&bad, &[to_one, fix_two], &cfg()).unwrap());
        // A satisfiable premise is not flagged.
        let ok: Constraint = Tgd::new(
            "ok",
            vec![Atom::new("Other", vec![Term::var(0)])],
            vec![Atom::new("Out", vec![Term::var(0)])],
        )
        .into();
        assert!(!premise_unsatisfiable(&ok, &[], &cfg()).unwrap());
    }

    #[test]
    fn repeated_head_vars_must_agree() {
        // Q1(x,x) :- R(x,x)   Q2(a,b) :- R(a,b): Q1 ⊆ Q2 but not conversely.
        let q1 = CqBuilder::new("Q1")
            .head_vars(["x", "x"])
            .atom("R", |a| a.v("x").v("x"))
            .build();
        let q2 = CqBuilder::new("Q2")
            .head_vars(["a", "b"])
            .atom("R", |a| a.v("a").v("b"))
            .build();
        assert!(contained_in(&q1, &q2, &[], &cfg()).unwrap());
        assert!(!contained_in(&q2, &q1, &[], &cfg()).unwrap());
    }
}
