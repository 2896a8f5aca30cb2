//! Differential tests of the **deployment static analyzer**: the
//! certificate lattice against the chase it certifies, and the `W001`
//! fragment-subsumption lint against brute-force containment.
//!
//! Contracts pinned here:
//!
//! - **WeaklyAcyclic ⇒ fixpoint**: on random TGD sets, a
//!   `TerminationCertificate::WeaklyAcyclic` verdict means the chase
//!   reaches fixpoint within the default budget — and reaches the
//!   *identical* fixpoint with the budget guard lifted by
//!   `ChaseConfig::with_certificate` (the certificate is trustworthy,
//!   not merely optimistic);
//! - **one parameterized family per lattice rung**: weakly-acyclic-but-
//!   not-trivial, super-weakly-acyclic-but-not-WA, stratified-but-not-
//!   EGD-contractible, and genuinely non-terminating. Each family
//!   certifies at exactly its rung, and every terminating rung chases
//!   budget-free to the identical fixpoint as the budget-guarded run;
//! - **NonTerminating witnesses replay**: each member of the divergent
//!   family certifies `NonTerminating` with a witness cycle, and chasing
//!   it really does exhaust the budget (`ChaseError::Budget`);
//! - **W001 vs brute force**: `fragment_lints` flags a fragment as
//!   subsumed iff bidirectional `contained_in` says its defining view is
//!   equivalent to an earlier fragment's (same-store or cross-store);
//! - **purity**: analyzing the same deployment twice yields byte-identical
//!   diagnostics, and the builtin scenario deployments analyze clean.

mod common;

use estocada::analyze::fragment_lints;
use estocada::catalog::{Catalog, FragmentMeta, FragmentSpec};
use estocada::{Code, SystemId};
use estocada_chase::testkit::{dump_state, feed_and_pin};
use estocada_chase::{
    certify, chase, contained_in, ChaseConfig, ChaseError, Elem, Instance, TerminationCertificate,
};
use estocada_pivot::{Atom, Constraint, Cq, CqBuilder, Schema, Term, Tgd};
use proptest::prelude::*;

const RELS: [&str; 3] = ["Ra", "Rb", "Rc"];

/// A random single-premise TGD over three binary relations. Conclusion
/// arguments choose among the two frontier variables and two potential
/// existentials, so generated sets range from full TGDs to existential
/// chains — some weakly acyclic, some not.
fn arb_tgd(idx: usize) -> impl Strategy<Value = Constraint> {
    (0..3usize, 0..3usize, 0..4u32, 0..4u32).prop_map(move |(p, c, a, b)| {
        Tgd::new(
            format!("t{idx}").as_str(),
            vec![Atom::new(RELS[p], vec![Term::var(0), Term::var(1)])],
            vec![Atom::new(RELS[c], vec![Term::var(a), Term::var(b)])],
        )
        .into()
    })
}

fn arb_constraints() -> impl Strategy<Value = Vec<Constraint>> {
    proptest::collection::vec((0..16usize).prop_flat_map(arb_tgd), 1..5)
}

/// A seed instance touching every relation, so any TGD can fire.
fn seed_instance() -> Instance {
    let mut inst = Instance::new();
    for (i, r) in RELS.iter().enumerate() {
        inst.insert(
            estocada_pivot::Symbol::intern(r),
            vec![Elem::of(i as i64), Elem::of((i + 1) as i64)],
        );
    }
    inst
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// WeaklyAcyclic verdicts are trustworthy: the chase reaches fixpoint
    /// within the default budget, and reaches the identical fixpoint with
    /// the budget checks lifted by the certificate.
    #[test]
    fn weakly_acyclic_certificate_implies_fixpoint(cs in arb_constraints()) {
        let cert = certify(&cs);
        prop_assume!(matches!(cert, TerminationCertificate::WeaklyAcyclic { .. }));

        let guarded_cfg = ChaseConfig::default();
        let mut guarded = seed_instance();
        let stats = chase(&mut guarded, &cs, &guarded_cfg)
            .expect("certified set must reach fixpoint within the default budget");
        prop_assert!(stats.rounds < guarded_cfg.max_rounds);

        let free_cfg = ChaseConfig::default().with_certificate(&cert);
        prop_assert_eq!(free_cfg.max_rounds, usize::MAX, "certificate lifts the budget");
        let mut free = seed_instance();
        chase(&mut free, &cs, &free_cfg).expect("budget-free chase of a certified set");
        prop_assert_eq!(
            dump_state(&guarded),
            dump_state(&free),
            "identical fixpoint with or without guard"
        );
    }

    /// A parameterized divergent family — a cycle of existential TGDs
    /// `N_i(x, y) → ∃z. N_{i+1 mod k}(y, z)` — certifies `NonTerminating`
    /// with a witness cycle, and chasing it from one seed fact really does
    /// exhaust the budget.
    #[test]
    fn non_terminating_witness_replays_as_budget_exhaustion(k in 1usize..4) {
        let rels: Vec<String> = (0..k).map(|i| format!("Cyc{i}")).collect();
        let cs: Vec<Constraint> = (0..k)
            .map(|i| {
                Tgd::new(
                    format!("c{i}").as_str(),
                    vec![Atom::new(rels[i].as_str(), vec![Term::var(0), Term::var(1)])],
                    vec![Atom::new(
                        rels[(i + 1) % k].as_str(),
                        vec![Term::var(1), Term::var(2)],
                    )],
                )
                .into()
            })
            .collect();

        let cert = certify(&cs);
        let cycle = cert.cycle().expect("family must certify NonTerminating");
        prop_assert!(!cycle.is_empty());
        prop_assert_eq!(cycle.first(), cycle.last(), "witness is a closed cycle");
        for (sym, _) in cycle {
            prop_assert!(rels.iter().any(|r| r.as_str() == &*sym.as_str()));
        }

        let mut inst = Instance::new();
        inst.insert(
            estocada_pivot::Symbol::intern(&rels[0]),
            vec![Elem::of(0i64), Elem::of(1i64)],
        );
        let cfg = ChaseConfig {
            max_rounds: 50,
            max_facts: 500,
            ..ChaseConfig::default()
        };
        match chase(&mut inst, &cs, &cfg) {
            Err(ChaseError::Budget { .. }) => {}
            other => prop_assert!(false, "expected budget exhaustion, got {other:?}"),
        }
    }
}

// ---------------------------------------------------------------------------
// One parameterized constraint family per certificate-lattice rung. The
// fourth rung (genuinely non-terminating) is the divergent family pinned by
// `non_terminating_witness_replays_as_budget_exhaustion` above.
// ---------------------------------------------------------------------------

/// Weakly acyclic but not trivial: an existential chain
/// `L_i(x, y) → ∃z. L_{i+1}(y, z)` of length `k` — every rule creates
/// nulls, yet the position graph is acyclic.
fn wa_chain_family(k: usize) -> Vec<Constraint> {
    (0..k)
        .map(|i| {
            Tgd::new(
                format!("chain{i}").as_str(),
                vec![Atom::new(
                    format!("L{i}").as_str(),
                    vec![Term::var(0), Term::var(1)],
                )],
                vec![Atom::new(
                    format!("L{}", i + 1).as_str(),
                    vec![Term::var(1), Term::var(2)],
                )],
            )
            .into()
        })
        .collect()
}

/// Super-weakly acyclic but not weakly acyclic: `Sw_i(x, x) → ∃y.
/// Sw_i(x, y)` puts a special self-edge in the plain position graph, yet
/// the created null lands in a position the premise can never read back
/// (the premise requires both arguments equal; a fresh null never equals
/// its partner).
fn swa_family(k: usize) -> Vec<Constraint> {
    (0..k)
        .map(|i| {
            let r = format!("Sw{i}");
            Tgd::new(
                format!("swa{i}").as_str(),
                vec![Atom::new(r.as_str(), vec![Term::var(0), Term::var(0)])],
                vec![Atom::new(r.as_str(), vec![Term::var(0), Term::var(1)])],
            )
            .into()
        })
        .collect()
}

/// Stratified but not EGD-contractible: the feeder `Af_i(x) → ∃y.
/// Bf_i(x, y)` creates a null that the EGD `Bf_i(x, y) ∧ Af_i(x) → y = x`
/// merges *across* positions, so contraction closes a special cycle — but
/// the firing graph is acyclic (the merge never re-enables the feeder),
/// and each stratum certifies on its own.
fn stratified_family(k: usize) -> Vec<Constraint> {
    (0..k)
        .flat_map(|i| {
            let a = Atom::new(format!("Af{i}").as_str(), vec![Term::var(0)]);
            let b = Atom::new(format!("Bf{i}").as_str(), vec![Term::var(0), Term::var(1)]);
            feed_and_pin(&i.to_string(), a, b)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The WA family certifies at exactly the bottom (strongest) rung and
    /// chases budget-free to the guarded fixpoint.
    #[test]
    fn wa_chain_family_certifies_and_chases_budget_free(k in 1usize..5) {
        let cs = wa_chain_family(k);
        let cert = certify(&cs);
        prop_assert_eq!(cert.rung(), "weakly acyclic");

        let seed = |inst: &mut Instance| {
            inst.insert(
                estocada_pivot::Symbol::intern("L0"),
                vec![Elem::of(1i64), Elem::of(2i64)],
            );
        };
        let mut guarded = Instance::new();
        seed(&mut guarded);
        chase(&mut guarded, &cs, &ChaseConfig::default()).expect("guarded chase");

        let free_cfg = ChaseConfig::default().with_certificate(&cert);
        prop_assert_eq!(free_cfg.max_rounds, usize::MAX, "certificate lifts the budget");
        let mut free = Instance::new();
        seed(&mut free);
        chase(&mut free, &cs, &free_cfg).expect("budget-free chase");
        prop_assert_eq!(dump_state(&guarded), dump_state(&free));
    }

    /// The SWA family is rejected by plain weak acyclicity (certify only
    /// attempts the super-weak refinement once the plain position graph
    /// has a special cycle), certifies `SuperWeaklyAcyclic`, and chases
    /// budget-free to the guarded fixpoint.
    #[test]
    fn swa_family_certifies_beyond_plain_wa(k in 1usize..4) {
        let cs = swa_family(k);
        let cert = certify(&cs);
        prop_assert!(
            matches!(cert, TerminationCertificate::SuperWeaklyAcyclic { .. }),
            "expected super-weakly acyclic, got {}",
            cert.rung()
        );

        let seed = |inst: &mut Instance| {
            for i in 0..k {
                inst.insert(
                    estocada_pivot::Symbol::intern(&format!("Sw{i}")),
                    vec![Elem::of(7i64), Elem::of(7i64)],
                );
            }
        };
        let mut guarded = Instance::new();
        seed(&mut guarded);
        chase(&mut guarded, &cs, &ChaseConfig::default()).expect("guarded chase");

        let free_cfg = ChaseConfig::default().with_certificate(&cert);
        prop_assert_eq!(free_cfg.max_rounds, usize::MAX, "certificate lifts the budget");
        let mut free = Instance::new();
        seed(&mut free);
        chase(&mut free, &cs, &free_cfg).expect("budget-free chase");
        prop_assert_eq!(dump_state(&guarded), dump_state(&free));
    }

    /// The stratified family certifies `Stratified` (EGD contraction
    /// fails, but every stratum certifies alone) and the budget-free
    /// chase reproduces the guarded fixpoint bit-identically — including
    /// the cross-position null merges.
    #[test]
    fn stratified_family_certifies_and_chases_budget_free(k in 1usize..4) {
        let cs = stratified_family(k);
        let cert = certify(&cs);
        prop_assert_eq!(cert.rung(), "stratified");
        prop_assert!(cert.guarantees_termination());

        let seed = |inst: &mut Instance| {
            for i in 0..k {
                inst.insert(
                    estocada_pivot::Symbol::intern(&format!("Af{i}")),
                    vec![Elem::of(3i64)],
                );
            }
        };
        let mut guarded = Instance::new();
        seed(&mut guarded);
        chase(&mut guarded, &cs, &ChaseConfig::default()).expect("guarded chase");

        let free_cfg = ChaseConfig::default().with_certificate(&cert);
        prop_assert_eq!(free_cfg.max_rounds, usize::MAX, "certificate lifts the budget");
        let mut free = Instance::new();
        seed(&mut free);
        chase(&mut free, &cs, &free_cfg).expect("budget-free chase");
        prop_assert_eq!(dump_state(&guarded), dump_state(&free));
    }
}

/// The pool of candidate fragment views over `T(k, v)`, `U(k, w)` used by
/// the W001 cross-check. Some pairs are equivalent (0/1/2), others are
/// strictly contained or incomparable.
fn view_pool(i: usize, name: &str) -> Cq {
    let b = CqBuilder::new(name);
    match i {
        // V(k, v) :- T(k, v)
        0 => b
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .build(),
        // Same view with a duplicated atom — equivalent to 0.
        1 => b
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .atom("T", |a| a.v("k").v("v"))
            .build(),
        // A redundant second atom folding onto the first — equivalent to 0.
        2 => b
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .atom("T", |a| a.v("k").v("v2"))
            .build(),
        // Join with U — strictly contained in 0, not equivalent.
        3 => b
            .head_vars(["k", "v"])
            .atom("T", |a| a.v("k").v("v"))
            .atom("U", |a| a.v("k").v("w"))
            .build(),
        // Over U — incomparable with the T views.
        _ => b
            .head_vars(["k", "w"])
            .atom("U", |a| a.v("k").v("w"))
            .build(),
    }
}

fn kv_meta(id: &str, view: Cq) -> FragmentMeta {
    FragmentMeta {
        id: id.to_string(),
        system: SystemId::KeyValue,
        spec: FragmentSpec::KeyValue { view },
        relations: Vec::new(),
        stats: Vec::new(),
        credentials: String::new(),
        use_count: 0.into(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `W001` agrees with brute force: a fragment is flagged iff
    /// `contained_in` holds in **both** directions against some earlier
    /// same-system fragment.
    #[test]
    fn w001_matches_brute_force_containment(picks in proptest::collection::vec(0usize..5, 2..5)) {
        let mut schema = Schema::new();
        schema.add_relation(estocada_pivot::RelationDecl::new("T", &["k", "v"]));
        schema.add_relation(estocada_pivot::RelationDecl::new("U", &["k", "w"]));

        let views: Vec<Cq> = picks
            .iter()
            .enumerate()
            .map(|(i, &p)| view_pool(p, &format!("V{i}")))
            .collect();
        let mut catalog = Catalog::new();
        for (i, v) in views.iter().enumerate() {
            catalog.add(kv_meta(&format!("F{i}"), v.clone()));
        }

        let cfg = ChaseConfig::default();
        let lints = fragment_lints(&schema, &catalog, &cfg);
        for (i, vi) in views.iter().enumerate() {
            let brute = views.iter().take(i).any(|vj| {
                matches!(contained_in(vi, vj, &[], &cfg), Ok(true))
                    && matches!(contained_in(vj, vi, &[], &cfg), Ok(true))
            });
            let flagged = lints
                .iter()
                .any(|d| d.code == Code::SubsumedFragment && d.target == format!("F{i}"));
            prop_assert_eq!(
                flagged, brute,
                "fragment F{} (pool view {:?}): analyzer {} vs brute force {}",
                i, picks[i], flagged, brute
            );
        }
    }
}

#[test]
fn analyzer_is_pure_and_scenarios_are_clean() {
    use estocada::Latencies;
    use estocada_workloads::marketplace::generate;
    use estocada_workloads::scenarios::deploy_materialized_join;

    let m = generate(common::cfg(30, 20, 80, 120, 11));
    // The richest builtin deployment (built under Strict DDL validation):
    // the analyzer must find nothing, twice, byte-identically.
    let est = deploy_materialized_join(&m, Latencies::zero());
    let first = est.analyze();
    let second = est.analyze();
    assert_eq!(
        format!("{first:?}"),
        format!("{second:?}"),
        "analyzer must be pure"
    );
    assert!(
        first.is_empty(),
        "builtin deployment must analyze clean, got: {first:?}"
    );
}
