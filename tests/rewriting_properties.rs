//! Property-based tests of the rewriting stack: the optimized homomorphism
//! engine agrees with a brute-force reference matcher (full and semi-naive
//! delta search); PACB agrees with the exhaustive classical backchase on
//! randomized problems; chase-based containment is sound w.r.t. evaluation;
//! the chase reaches genuine fixpoints; the live-premise trigger search
//! agrees with searching every premise, and one reused `Rewriter` agrees
//! with a fresh one-shot `pacb_rewrite` per query.

mod common;

use estocada::frontends::{doc_query, parse_sql};
use estocada::{Estocada, Latencies};
use estocada_chase::testkit::{
    chase_every_premise, dump_state, evaluate_view, fact_base, feed_and_pin,
};
use estocada_chase::{
    canonical_instance, certify, chase, contained_in, find_homs, find_homs_delta, find_one_hom,
    naive_rewrite, pacb_rewrite, ChaseConfig, ChaseError, ChaseStats, Elem, HomConfig, Instance,
    NaiveConfig, RewriteConfig, RewriteProblem, Rewriter, TerminationCertificate,
};
use estocada_pivot::hash::FastMap;
use estocada_pivot::{Atom, Constraint, Cq, Egd, Fact, Symbol, Term, Tgd, Value, Var, ViewDef};
use estocada_workloads::analytics::{analytics_sql, analytics_workload, AnalyticsConfig};
use estocada_workloads::marketplace::{generate, CATEGORIES};
use estocada_workloads::scenarios::{
    cart_pattern, deploy_baseline, deploy_kv_migrated, deploy_materialized_join, personalized_sql,
    pref_sql, user_orders_sql,
};
use proptest::prelude::*;

const RELS: [&str; 3] = ["Ra", "Rb", "Rc"];

/// A random conjunctive query over binary relations with a small variable
/// pool; guaranteed safe by construction (head vars drawn from body vars).
fn arb_cq(name: &'static str, max_atoms: usize) -> impl Strategy<Value = Cq> {
    (1..=max_atoms)
        .prop_flat_map(move |n| {
            let atoms = proptest::collection::vec((0..3usize, 0..4u32, 0..4u32), n);
            (atoms, proptest::collection::vec(0..4u32, 1..=2))
        })
        .prop_map(move |(atom_specs, head_pool)| {
            let body: Vec<Atom> = atom_specs
                .iter()
                .map(|(r, a, b)| Atom::new(RELS[*r], vec![Term::var(*a), Term::var(*b)]))
                .collect();
            let body_vars: Vec<u32> = body.iter().flat_map(|a| a.vars()).map(|v| v.0).collect();
            let head: Vec<Term> = head_pool
                .iter()
                .map(|h| Term::var(body_vars[(*h as usize) % body_vars.len()]))
                .collect();
            Cq::new(name, head, body)
        })
}

/// Random small ground instances over the same relations.
fn arb_facts(max: usize) -> impl Strategy<Value = Vec<Fact>> {
    proptest::collection::vec((0..3usize, 0..5i64, 0..5i64), 0..max).prop_map(|specs| {
        specs
            .into_iter()
            .map(|(r, a, b)| Fact::new(RELS[r], vec![Value::Int(a), Value::Int(b)]))
            .collect()
    })
}

fn canon_set(rws: &[Cq]) -> Vec<String> {
    let mut v: Vec<String> = rws
        .iter()
        .map(|r| format!("{}", r.canonicalize()))
        .collect();
    v.sort();
    v.dedup();
    v
}

// ---------------------------------------------------------------------------
// Differential testing of the homomorphism engine
// ---------------------------------------------------------------------------

/// Reference matcher: enumerate every tuple of alive facts (one per atom,
/// in atom order) and keep the consistent assignments. Exponential and
/// allocation-happy on purpose — its one virtue is being obviously correct.
fn brute_force_homs(
    inst: &Instance,
    atoms: &[Atom],
    fixed: &FastMap<Var, Elem>,
) -> Vec<(FastMap<Var, Elem>, Vec<u32>)> {
    fn extend(
        inst: &Instance,
        atoms: &[Atom],
        idx: usize,
        map: &FastMap<Var, Elem>,
        picked: &mut Vec<u32>,
        out: &mut Vec<(FastMap<Var, Elem>, Vec<u32>)>,
    ) {
        let Some(atom) = atoms.get(idx) else {
            out.push((map.clone(), picked.clone()));
            return;
        };
        for fid in inst.fact_ids() {
            let fact = inst.fact(fid);
            if fact.pred != atom.pred || fact.args.len() != atom.args.len() {
                continue;
            }
            let mut next = map.clone();
            let mut ok = true;
            for (t, e) in atom.args.iter().zip(fact.args.iter()) {
                match t {
                    Term::Const(c) => {
                        if Elem::constant(c) != *e {
                            ok = false;
                            break;
                        }
                    }
                    Term::Var(v) => match next.get(v) {
                        Some(bound) if bound != e => {
                            ok = false;
                            break;
                        }
                        Some(_) => {}
                        None => {
                            next.insert(*v, *e);
                        }
                    },
                }
            }
            if ok {
                picked.push(fid);
                extend(inst, atoms, idx + 1, &next, picked, out);
                picked.pop();
            }
        }
    }
    let seeded: FastMap<Var, Elem> = fixed.iter().map(|(v, e)| (*v, inst.resolve(e))).collect();
    let mut out = Vec::new();
    extend(inst, atoms, 0, &seeded, &mut Vec::new(), &mut out);
    out
}

/// Canonical string form of a homomorphism multiset (order-insensitive but
/// deliberately NOT deduplicated: neither side may report a match twice, so
/// duplicate enumeration — e.g. broken delta strata — must fail the
/// comparison).
fn canon_hom_set(homs: impl Iterator<Item = (FastMap<Var, Elem>, Vec<u32>)>) -> Vec<String> {
    let mut v: Vec<String> = homs
        .map(|(map, fact_ids)| {
            let mut entries: Vec<String> =
                map.iter().map(|(var, e)| format!("{var}={e}")).collect();
            entries.sort();
            format!("{entries:?}|{fact_ids:?}")
        })
        .collect();
    v.sort();
    v
}

/// An argument spec for a generated fact: small constants and a few
/// labelled nulls.
fn spec_elem(spec: u8) -> Elem {
    if spec < 5 {
        Elem::of(spec as i64)
    } else {
        Elem::Null((spec - 5) as u32 % 3)
    }
}

/// Build an instance from `(rel, a, b)` fact specs split into an old and a
/// new phase (the delta tests advance the epoch between the phases).
fn build_instance(old: &[(usize, u8, u8)], new: &[(usize, u8, u8)]) -> (Instance, u64) {
    let mut inst = Instance::new();
    inst.reserve_nulls(3);
    for (r, a, b) in old {
        inst.insert(Symbol::intern(RELS[*r]), vec![spec_elem(*a), spec_elem(*b)]);
    }
    let thr = inst.advance_epoch();
    for (r, a, b) in new {
        inst.insert(Symbol::intern(RELS[*r]), vec![spec_elem(*a), spec_elem(*b)]);
    }
    (inst, thr)
}

/// A generated query atom: relation plus two term specs. Term specs < 4
/// are variables (repeats allowed and likely); the rest are constants.
fn spec_term(spec: u8) -> Term {
    if spec < 4 {
        Term::var(spec as u32)
    } else {
        Term::Const(Value::Int((spec - 4) as i64 % 5))
    }
}

fn spec_atoms(specs: &[(usize, u8, u8)]) -> Vec<Atom> {
    specs
        .iter()
        .map(|(r, a, b)| Atom::new(RELS[*r], vec![spec_term(*a), spec_term(*b)]))
        .collect()
}

// ---------------------------------------------------------------------------
// Differential testing of the live-premise search and the reused Rewriter
// ---------------------------------------------------------------------------

fn atom2(rel: usize, a: u32, b: u32) -> Atom {
    Atom::new(RELS[rel], vec![Term::var(a), Term::var(b)])
}

/// A generated TGD `(from, to, shape)`: copy, swap, an existential
/// successor (may not terminate — the runs are budgeted), or a join with a
/// third relation.
fn spec_tgd(i: usize, (from, to, shape): (usize, usize, u8)) -> Constraint {
    let name = format!("t{i}");
    let (premise, conclusion) = match shape {
        0 => (vec![atom2(from, 0, 1)], atom2(to, 0, 1)),
        1 => (vec![atom2(from, 0, 1)], atom2(to, 1, 0)),
        2 => (vec![atom2(from, 0, 1)], atom2(to, 1, 2)),
        _ => (
            vec![atom2(from, 0, 1), atom2((from + 1) % 3, 1, 2)],
            atom2(to, 0, 2),
        ),
    };
    Tgd::new(name.as_str(), premise, vec![conclusion]).into()
}

/// A generated EGD `(rel, other)`: `rel(x,y) ∧ other(x,z) → y = z` — a
/// functional dependency when `other == rel`. Its merges rewrite facts of
/// predicates no TGD wrote that round, which the next round's live list
/// must still pick up.
fn spec_egd(i: usize, (rel, other): (usize, usize)) -> Constraint {
    Egd::new(
        format!("e{i}").as_str(),
        vec![atom2(rel, 0, 1), atom2(other, 0, 2)],
        (Term::var(1), Term::var(2)),
    )
    .into()
}

type Chased = (
    Result<(usize, usize, usize), String>,
    Vec<(u32, String, String, u64)>,
);

/// A chase run as what must not depend on how premises are searched: the
/// core counters or the error, and the full instance state either way.
fn chased(
    seed: &Instance,
    run: impl FnOnce(&mut Instance) -> Result<ChaseStats, ChaseError>,
) -> (Chased, Option<ChaseStats>) {
    let mut inst = seed.clone();
    let out = run(&mut inst);
    let stats = out.as_ref().ok().copied();
    let verdict = out.map(|s| s.core()).map_err(|e| e.to_string());
    ((verdict, dump_state(&inst)), stats)
}

/// Live-premise search against the every-premise reference.
fn assert_live_matches_every_premise(
    seed: &Instance,
    constraints: &[Constraint],
    budget: &ChaseConfig,
) -> Result<(), TestCaseError> {
    let (every_ref, every_stats) = chased(seed, |i| chase_every_premise(i, constraints, budget));
    if let Some(s) = every_stats {
        prop_assert_eq!(s.premise_searches, s.rounds * constraints.len());
    }
    let (live, live_stats) = chased(seed, |i| chase(i, constraints, budget));
    prop_assert_eq!(&live, &every_ref);
    if let (Some(live), Some(every)) = (live_stats, every_stats) {
        prop_assert!(live.premise_searches <= every.premise_searches);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// The optimized engine returns exactly the homomorphism set of the
    /// brute-force reference matcher, on instances with constants and
    /// labelled nulls and queries with repeated variables and constants.
    #[test]
    fn find_homs_agrees_with_brute_force(
        old in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 0..8),
        new in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 0..4),
        query in proptest::collection::vec((0..3usize, 0..9u8, 0..9u8), 1..4),
    ) {
        let (inst, _) = build_instance(&old, &new);
        let atoms = spec_atoms(&query);
        let fast = find_homs(&inst, &atoms, &FastMap::default(), HomConfig::default());
        let slow = brute_force_homs(&inst, &atoms, &FastMap::default());
        prop_assert_eq!(
            canon_hom_set(fast.into_iter().map(|h| (h.map, h.fact_ids))),
            canon_hom_set(slow.into_iter()),
            "engine disagrees with brute force on {:?}", atoms
        );
    }

    /// Same agreement under fixed partial bindings (the backchase and
    /// containment entry points always pin head variables).
    #[test]
    fn find_homs_agrees_with_brute_force_under_fixed_bindings(
        old in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 0..8),
        query in proptest::collection::vec((0..3usize, 0..4u8, 0..9u8), 1..4),
        pins in proptest::collection::vec((0..4u32, 0..8u8), 0..3),
    ) {
        let (inst, _) = build_instance(&old, &[]);
        let atoms = spec_atoms(&query);
        let mut fixed: FastMap<Var, Elem> = FastMap::default();
        for (v, e) in &pins {
            fixed.insert(Var(*v), spec_elem(*e));
        }
        let fast = find_homs(&inst, &atoms, &fixed, HomConfig::default());
        let slow = brute_force_homs(&inst, &atoms, &fixed);
        prop_assert_eq!(
            canon_hom_set(fast.into_iter().map(|h| (h.map, h.fact_ids))),
            canon_hom_set(slow.into_iter()),
            "engine disagrees with brute force under pins {:?} on {:?}", fixed, atoms
        );
    }

    /// The semi-naive delta search returns exactly the brute-force
    /// homomorphisms that touch at least one post-threshold fact.
    #[test]
    fn delta_search_agrees_with_filtered_brute_force(
        old in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 0..8),
        new in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 1..6),
        query in proptest::collection::vec((0..3usize, 0..9u8, 0..9u8), 2..4),
    ) {
        let (inst, thr) = build_instance(&old, &new);
        let atoms = spec_atoms(&query);
        let delta = inst.delta_index(thr);
        let fast = find_homs_delta(&inst, &atoms, &FastMap::default(), HomConfig::default(), &delta);
        let slow = brute_force_homs(&inst, &atoms, &FastMap::default())
            .into_iter()
            .filter(|(_, fact_ids)| fact_ids.iter().any(|f| inst.fact_epoch(*f) >= thr));
        prop_assert_eq!(
            canon_hom_set(fast.into_iter().map(|h| (h.map, h.fact_ids))),
            canon_hom_set(slow),
            "delta search disagrees with filtered brute force on {:?}", atoms
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The live-premise rule never changes a chase: on random TGD + EGD
    /// sets over instances with labelled nulls — budget aborts and
    /// constant clashes included — the fixpoint (or error), the instance
    /// state and `ChaseStats::core()` equal the every-premise reference.
    #[test]
    fn live_premise_search_matches_searching_every_premise(
        facts in proptest::collection::vec((0..3usize, 0..8u8, 0..8u8), 0..10),
        tgds in proptest::collection::vec((0..3usize, 0..3usize, 0..4u8), 1..5),
        egds in proptest::collection::vec((0..3usize, 0..3usize), 0..3),
    ) {
        let (seed, _) = build_instance(&facts, &[]);
        let mut constraints: Vec<Constraint> =
            tgds.iter().enumerate().map(|(i, t)| spec_tgd(i, *t)).collect();
        constraints.extend(egds.iter().enumerate().map(|(i, e)| spec_egd(i, *e)));
        let budget = ChaseConfig { max_rounds: 12, max_facts: 300, ..ChaseConfig::default() };
        assert_live_matches_every_premise(&seed, &constraints, &budget)?;
    }

    /// One `Rewriter` reused for a sequence of queries returns, for each,
    /// the outcome of a fresh one-shot `pacb_rewrite` — under source
    /// constraints with an EGD, at 1 and 4 verification workers.
    #[test]
    fn a_reused_rewriter_agrees_with_one_shot_pacb(
        queries in proptest::collection::vec(arb_cq("Q", 3), 1..4),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 2),
        tgd in (0..3usize, 0..3usize, 0..2u8),
        egd in (0..3usize, 0..3usize),
    ) {
        let mut problem = RewriteProblem::new(queries[0].clone(), vec![ViewDef::new(v1), ViewDef::new(v2)]);
        problem.source_constraints = vec![spec_tgd(0, tgd), spec_egd(0, egd)];
        let rewriter = problem.rewriter();
        // The first query again at the end: nothing a rewrite did may stick.
        for q in queries.iter().chain(queries.first()) {
            problem.query = q.clone();
            for parallelism in [1usize, 4] {
                let cfg = RewriteConfig::default().with_parallelism(parallelism);
                let reused = rewriter.rewrite(q, &cfg).map_err(|e| e.to_string());
                let fresh = pacb_rewrite(&problem, &cfg).map_err(|e| e.to_string());
                prop_assert_eq!(reused, fresh, "query {}", q);
            }
        }
    }

    /// PACB and the exhaustive classical backchase find exactly the same
    /// minimal rewritings (no EGDs involved: full agreement expected).
    #[test]
    fn pacb_agrees_with_naive(
        q in arb_cq("Q", 3),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 2),
    ) {
        let views = vec![ViewDef::new(v1), ViewDef::new(v2)];
        let problem = RewriteProblem::new(q, views);
        let pacb = pacb_rewrite(&problem, &RewriteConfig::default());
        let naive = naive_rewrite(&problem, &NaiveConfig::default());
        match (pacb, naive) {
            (Ok(p), Ok(n)) => {
                prop_assert!(p.complete, "PACB reported incomplete search");
                prop_assert_eq!(canon_set(&p.rewritings), canon_set(&n.rewritings));
            }
            (p, n) => prop_assert!(false, "unexpected failure: {:?} / {:?}", p.err(), n.err()),
        }
    }

    /// Chase-based containment is sound: Q1 ⊆ Q2 implies eval(Q1) ⊆
    /// eval(Q2) on every instance.
    #[test]
    fn containment_soundness(
        q1 in arb_cq("Q1", 3),
        q2 in arb_cq("Q2", 3),
        facts in arb_facts(12),
    ) {
        if q1.head.len() != q2.head.len() {
            return Ok(());
        }
        let contained = contained_in(&q1, &q2, &[], &ChaseConfig::default()).unwrap();
        if contained {
            let base = fact_base(&facts);
            let r1 = evaluate_view(&base, &q1);
            let r2 = evaluate_view(&base, &q2);
            for row in &r1 {
                prop_assert!(
                    r2.contains(row),
                    "containment violated: {:?} in eval(Q1) but not eval(Q2)\nQ1={}\nQ2={}",
                    row, q1, q2
                );
            }
        }
    }

    /// Rewriting soundness end to end: evaluating an accepted rewriting
    /// over the *materialized views* returns exactly eval(Q) over the base.
    #[test]
    fn rewritings_evaluate_like_the_query(
        q in arb_cq("Q", 2),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 1),
        facts in arb_facts(10),
    ) {
        let views = vec![ViewDef::new(v1), ViewDef::new(v2)];
        let problem = RewriteProblem::new(q.clone(), views.clone());
        let out = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        if out.rewritings.is_empty() {
            return Ok(());
        }
        let base = fact_base(&facts);
        let mut expected = evaluate_view(&base, &q);
        expected.sort();
        // Materialize the views into a fresh fact base.
        let mut view_facts = Vec::new();
        for v in &views {
            for row in evaluate_view(&base, &v.view) {
                view_facts.push(Fact::new(v.name(), row));
            }
        }
        let view_base = fact_base(&view_facts);
        for rw in &out.rewritings {
            let mut got = evaluate_view(&view_base, rw);
            got.sort();
            prop_assert_eq!(
                &expected, &got,
                "rewriting {} diverges for query {}", rw, q
            );
        }
    }

    /// After a chase with full TGDs, no trigger is applicable: it is a real
    /// fixpoint (every premise image extends to a conclusion image).
    #[test]
    fn chase_reaches_fixpoint(
        facts in arb_facts(10),
        // Random full TGD: Ra(x,y) → R?(y,x) etc.
        from in 0..3usize,
        to in 0..3usize,
        swap in proptest::bool::ANY,
    ) {
        let conclusion_args = if swap {
            vec![Term::var(1), Term::var(0)]
        } else {
            vec![Term::var(0), Term::var(1)]
        };
        let tgd: Constraint = Tgd::new(
            "t",
            vec![Atom::new(RELS[from], vec![Term::var(0), Term::var(1)])],
            vec![Atom::new(RELS[to], conclusion_args.clone())],
        ).into();
        let mut inst = fact_base(&facts);
        chase(&mut inst, std::slice::from_ref(&tgd), &ChaseConfig::default()).unwrap();
        // Verify: every premise hom has a conclusion extension.
        let premise = vec![Atom::new(RELS[from], vec![Term::var(0), Term::var(1)])];
        let conclusion = vec![Atom::new(RELS[to], conclusion_args)];
        for h in find_homs(&inst, &premise, &FastMap::default(), HomConfig::default()) {
            prop_assert!(
                find_one_hom(&inst, &conclusion, &h.map).is_some(),
                "unapplied trigger survives the chase"
            );
        }
    }

    /// The universal plan of PACB subsumes every reported rewriting (each
    /// rewriting's atoms appear in the universal plan).
    #[test]
    fn rewritings_are_subqueries_of_universal_plan(
        q in arb_cq("Q", 2),
        v in arb_cq("V", 2),
    ) {
        let problem = RewriteProblem::new(q, vec![ViewDef::new(v)]);
        let out = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
        let up_atoms: Vec<String> = out
            .universal_plan
            .body
            .iter()
            .map(|a| format!("{a}"))
            .collect();
        for rw in &out.rewritings {
            for atom in &rw.body {
                prop_assert!(
                    up_atoms.contains(&format!("{atom}")),
                    "rewriting atom {} missing from universal plan", atom
                );
            }
        }
    }
}

#[test]
fn view_symbol_collision_regression() {
    // Two views with identical bodies but different names must both be
    // usable as alternatives.
    let mk = |name: &str| {
        ViewDef::new(Cq::new(
            Symbol::intern(name),
            vec![Term::var(0), Term::var(1)],
            vec![Atom::new("Ra", vec![Term::var(0), Term::var(1)])],
        ))
    };
    let q = Cq::new(
        Symbol::intern("Q"),
        vec![Term::var(0), Term::var(1)],
        vec![Atom::new("Ra", vec![Term::var(0), Term::var(1)])],
    );
    let out = pacb_rewrite(
        &RewriteProblem::new(q, vec![mk("Va"), mk("Vb")]),
        &RewriteConfig::default(),
    )
    .unwrap();
    assert_eq!(out.rewritings.len(), 2);
}

/// A set that only `Stratified` certifies (feeder TGDs whose nulls an EGD
/// pins, with an idle pair in the middle) as one more input of the
/// differential: the one round-robin schedule reaches, with the budgets
/// the certificate lifts, the fixpoint the guarded run reaches — every
/// invented null pinned to its row key.
#[test]
fn live_premise_search_matches_every_premise_under_strata() {
    let a = |rel: &str| Atom::new(rel, vec![Term::var(0)]);
    let b = |rel: &str| Atom::new(rel, vec![Term::var(0), Term::var(1)]);
    let mut constraints: Vec<Constraint> = Vec::new();
    constraints.extend(feed_and_pin("0", a("A0"), b("B0")));
    constraints.extend(feed_and_pin("idle", a("Idle"), b("IdleB")));
    constraints.extend(feed_and_pin("1", a("A1"), b("B1")));
    let cert = certify(&constraints);
    assert!(matches!(cert, TerminationCertificate::Stratified { .. }));
    let mut seed = Instance::new();
    for k in 0..4 {
        seed.insert(Symbol::intern("A0"), vec![Elem::of(k)]);
        seed.insert(Symbol::intern("A1"), vec![Elem::of(k + 10)]);
    }
    let guarded = ChaseConfig::default();
    assert_live_matches_every_premise(&seed, &constraints, &guarded).unwrap();
    let lifted = guarded.with_certificate(&cert);
    assert_eq!(lifted.max_rounds, usize::MAX);
    let (budget_free, _) = chased(&seed, |i| chase(i, &constraints, &lifted));
    let (under_guard, _) = chased(&seed, |i| chase(i, &constraints, &guarded));
    assert_eq!(budget_free, under_guard);
    let (verdict, state) = budget_free;
    let (_, tgd_fires, egd_merges) = verdict.expect("certified: terminates");
    assert_eq!((tgd_fires, egd_merges), (8, 8));
    for want in ["B0(0, 0)", "B0(3, 3)", "B1(10, 10)", "B1(13, 13)"] {
        assert!(state.iter().any(|(_, f, _, _)| f == want), "missing {want}");
    }
    assert_eq!(state.len(), 16, "8 seed rows + 8 pinned rows: {state:?}");
}

fn small_market() -> estocada_workloads::marketplace::Marketplace {
    generate(common::cfg(40, 20, 120, 200, 23))
}

/// The pivot cores of the workload families: `pref`/`cart` lookups, order
/// history (`readwrite` reads), the personalized join, analytics cores.
fn workload_cores(est: &Estocada) -> Vec<Cq> {
    let catalog = est.sql_catalog();
    let mut sqls = vec![
        pref_sql(3),
        pref_sql(7),
        user_orders_sql(3),
        personalized_sql(3, CATEGORIES[0]),
    ];
    sqls.extend(
        analytics_workload(&AnalyticsConfig::default())
            .iter()
            .map(analytics_sql),
    );
    let mut cores: Vec<Cq> = sqls
        .iter()
        .map(|sql| {
            parse_sql(sql, &catalog)
                .unwrap_or_else(|e| panic!("{sql}: {e}"))
                .cq
        })
        .collect();
    for uid in [3i64, 7] {
        cores.push(doc_query(&cart_pattern(uid), &["pid", "qty"]).unwrap().cq);
    }
    cores
}

fn engine_rewriter(est: &Estocada) -> Rewriter {
    Rewriter::new(
        &est.catalog().view_defs(),
        &est.schema().constraints,
        &[],
        est.catalog().access_map(),
    )
}

fn engine_problem(est: &Estocada, query: Cq) -> RewriteProblem {
    RewriteProblem {
        query,
        views: est.catalog().view_defs(),
        source_constraints: est.schema().constraints.clone(),
        target_constraints: Vec::new(),
        access: est.catalog().access_map(),
    }
}

/// On the three builtin deployments, one `Rewriter` serving every workload
/// query equals a fresh one-shot `pacb_rewrite` per query, and chasing each
/// query under the deployment's combined constraint set (document-model
/// EGDs included) is the same with live-premise and every-premise search.
#[test]
fn one_rewriter_serves_the_workload_families_on_the_builtin_deployments() {
    let m = small_market();
    let deployments: [fn(&_, Latencies) -> Estocada; 3] = [
        deploy_baseline,
        deploy_kv_migrated,
        deploy_materialized_join,
    ];
    for deploy in deployments {
        let est = deploy(&m, Latencies::zero());
        let rewriter = engine_rewriter(&est);
        let mut cfg = est.rewrite_config();
        cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
        let constraints = est.constraint_set();
        let cores = workload_cores(&est);
        // Twice over: a rewrite must leave the prepared sets as it found them.
        for q in cores.iter().chain(&cores) {
            let reused = rewriter.rewrite(q, &cfg).unwrap();
            let fresh = pacb_rewrite(&engine_problem(&est, q.clone()), &cfg).unwrap();
            assert_eq!(reused, fresh, "{q}");
            assert!(!reused.rewritings.is_empty(), "{q} has no rewriting");
            assert_live_matches_every_premise(&canonical_instance(q), &constraints, &cfg.chase)
                .unwrap_or_else(|e| panic!("{q}: {e:?}"));
        }
    }
}

/// A point lookup's rewrite searches a small share of the premises an
/// every-premise search would (`Σ rounds × |constraint set|` over the
/// forward chase, the backchase and the verification chases): the rest have
/// a predicate no fact of the instance carries.
#[test]
fn a_point_lookup_rewrite_searches_few_premises() {
    let est = deploy_kv_migrated(&small_market(), Latencies::zero());
    let (views, schema) = (
        est.catalog().view_defs().len(),
        est.schema().constraints.len(),
    );
    let mut cfg = est.rewrite_config();
    cfg.chase = cfg.chase.with_certificate(&est.termination_certificate());
    let q = parse_sql(&pref_sql(7), &est.sql_catalog()).unwrap().cq;
    let stats = engine_rewriter(&est).rewrite(&q, &cfg).unwrap().stats;
    let every_premise = (stats.forward.rounds + stats.backward.chase.rounds) * (views + schema)
        + stats.verification.rounds * (2 * views + schema);
    assert!(
        stats.candidates >= 2 && stats.verification.rounds > 0,
        "{stats:?}"
    );
    assert!(
        stats.premise_searches() * 100 <= every_premise * 15,
        "{} premise searches of {every_premise}: {stats:?}",
        stats.premise_searches()
    );
}
