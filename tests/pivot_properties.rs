//! Property-based tests of the pivot model: canonicalization, variable
//! renaming invariance, access-pattern order completeness, and
//! EGD-powered containment.

use estocada_chase::{contained_in, equivalent, minimize, ChaseConfig};
use estocada_pivot::{AccessMap, AccessPattern, Atom, Constraint, Cq, Egd, Term, Var};
use proptest::prelude::*;
use std::collections::BTreeSet;

const RELS: [&str; 3] = ["Pa", "Pb", "Pc"];

fn arb_cq(max_atoms: usize) -> impl Strategy<Value = Cq> {
    (1..=max_atoms)
        .prop_flat_map(move |n| {
            (
                proptest::collection::vec((0..3usize, 0..4u32, 0..4u32), n),
                proptest::collection::vec(0..4u32, 1..=2),
            )
        })
        .prop_map(|(atom_specs, head_pool)| {
            let body: Vec<Atom> = atom_specs
                .iter()
                .map(|(r, a, b)| Atom::new(RELS[*r], vec![Term::var(*a), Term::var(*b)]))
                .collect();
            let body_vars: Vec<u32> = body.iter().flat_map(|a| a.vars()).map(|v| v.0).collect();
            let head: Vec<Term> = head_pool
                .iter()
                .map(|h| Term::var(body_vars[(*h as usize) % body_vars.len()]))
                .collect();
            Cq::new("P", head, body)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Canonicalization is idempotent.
    #[test]
    fn canonicalize_idempotent(q in arb_cq(4)) {
        let c1 = q.canonicalize();
        let c2 = c1.canonicalize();
        prop_assert_eq!(c1, c2);
    }

    /// Canonical forms are invariant under variable shifting.
    #[test]
    fn canonicalize_invariant_under_shift(q in arb_cq(4), offset in 1u32..50) {
        prop_assert_eq!(q.canonicalize(), q.shift_vars(offset).canonicalize());
    }

    /// Minimization yields an equivalent query (checked by chase-based
    /// equivalence) that is no larger.
    #[test]
    fn minimize_preserves_equivalence(q in arb_cq(4)) {
        let m = minimize(&q);
        prop_assert!(m.body.len() <= q.body.len());
        prop_assert!(equivalent(&q, &m, &[], &ChaseConfig::default()).unwrap());
        // Minimization is a fixpoint.
        prop_assert_eq!(minimize(&m).body.len(), m.body.len());
    }

    /// Every query is self-contained, and containment is transitive on
    /// random triples.
    #[test]
    fn containment_reflexive_transitive(
        q1 in arb_cq(3),
        q2 in arb_cq(3),
        q3 in arb_cq(3),
    ) {
        let cfg = ChaseConfig::default();
        prop_assert!(contained_in(&q1, &q1, &[], &cfg).unwrap());
        if q1.head.len() == q2.head.len() && q2.head.len() == q3.head.len() {
            let a = contained_in(&q1, &q2, &[], &cfg).unwrap();
            let b = contained_in(&q2, &q3, &[], &cfg).unwrap();
            if a && b {
                prop_assert!(contained_in(&q1, &q3, &[], &cfg).unwrap());
            }
        }
    }

    /// Greedy executable ordering is complete: whenever *some* permutation
    /// of the atoms is executable, the greedy order finds one.
    #[test]
    fn greedy_order_is_complete(
        specs in proptest::collection::vec((0..2usize, 0..4u32, 0..4u32), 1..5),
    ) {
        let mut access = AccessMap::new();
        access.set("Kv0", AccessPattern::parse("io").unwrap());
        access.set("Kv1", AccessPattern::parse("io").unwrap());
        let names = ["Kv0", "Kv1"];
        let atoms: Vec<Atom> = specs
            .iter()
            .map(|(r, a, b)| Atom::new(names[*r], vec![Term::var(*a), Term::var(*b)]))
            .collect();
        // Brute-force: does any permutation execute?
        fn feasible_by_bruteforce(
            access: &AccessMap,
            atoms: &[Atom],
            remaining: &mut Vec<usize>,
            bound: &mut BTreeSet<Var>,
        ) -> bool {
            if remaining.is_empty() {
                return true;
            }
            for i in 0..remaining.len() {
                let idx = remaining[i];
                if access.atom_executable(&atoms[idx], bound) {
                    let added: Vec<Var> = atoms[idx]
                        .vars()
                        .filter(|v| bound.insert(*v))
                        .collect();
                    remaining.remove(i);
                    if feasible_by_bruteforce(access, atoms, remaining, bound) {
                        return true;
                    }
                    remaining.insert(i, idx);
                    for v in added {
                        bound.remove(&v);
                    }
                }
            }
            false
        }
        let brute = feasible_by_bruteforce(
            &access,
            &atoms,
            &mut (0..atoms.len()).collect(),
            &mut BTreeSet::new(),
        );
        let greedy = access.is_feasible(&atoms, &BTreeSet::new());
        prop_assert_eq!(brute, greedy, "greedy order disagrees with brute force");
    }
}

#[test]
fn containment_under_functional_dependency() {
    // FD: Pa(x, y) ∧ Pa(x, z) → y = z. Then Q1(x) :- Pa(x,y), Pa(x,z)
    // is equivalent to Q2(x) :- Pa(x,y) only *with* the FD.
    let fd: Constraint = Egd::new(
        "fd",
        vec![
            Atom::new("Pa", vec![Term::var(0), Term::var(1)]),
            Atom::new("Pa", vec![Term::var(0), Term::var(2)]),
        ],
        (Term::var(1), Term::var(2)),
    )
    .into();
    // Q1 exposes y and z separately; Q2 exposes one y twice. Only the FD
    // makes the chase merge Q1's two value variables.
    let q1 = Cq::new(
        "Q1",
        vec![Term::var(0), Term::var(1), Term::var(2)],
        vec![
            Atom::new("Pa", vec![Term::var(0), Term::var(1)]),
            Atom::new("Pa", vec![Term::var(0), Term::var(2)]),
        ],
    );
    let q2 = Cq::new(
        "Q2",
        vec![Term::var(0), Term::var(1), Term::var(1)],
        vec![Atom::new("Pa", vec![Term::var(0), Term::var(1)])],
    );
    let cfg = ChaseConfig::default();
    // Without the FD: Q2 ⊆ Q1 but not conversely (Q1's head repeats
    // nothing; Q2's does).
    assert!(contained_in(&q2, &q1, &[], &cfg).unwrap());
    assert!(!contained_in(&q1, &q2, &[], &cfg).unwrap());
    // With the FD the chase merges the two value variables: equivalence.
    assert!(equivalent(&q1, &q2, &[fd], &cfg).unwrap());
}

#[test]
fn chase_budget_error_is_surfaced() {
    use estocada_chase::{canonical_instance, chase, ChaseError};
    use estocada_pivot::Tgd;
    // Non-terminating pair under a tiny budget.
    let t1: Constraint = Tgd::new(
        "t1",
        vec![Atom::new("N", vec![Term::var(0)])],
        vec![Atom::new("M", vec![Term::var(0), Term::var(1)])],
    )
    .into();
    let t2: Constraint = Tgd::new(
        "t2",
        vec![Atom::new("M", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("N", vec![Term::var(1)])],
    )
    .into();
    assert!(matches!(
        estocada_chase::certify(&[t1.clone(), t2.clone()]),
        estocada_chase::TerminationCertificate::NonTerminating { .. }
    ));
    let q = Cq::new(
        "Q",
        vec![Term::var(0)],
        vec![Atom::new("N", vec![Term::var(0)])],
    );
    let mut inst = canonical_instance(&q);
    let err = chase(
        &mut inst,
        &[t1, t2],
        &ChaseConfig {
            max_rounds: 20,
            max_facts: 50,
            ..ChaseConfig::default()
        },
    );
    assert!(matches!(err, Err(ChaseError::Budget { .. })));
}
