//! Differential tests of the **phase-split chase**: each chase round is
//! a read-only trigger search against the round-start snapshot followed by
//! an apply phase, plus a memo of applicability probes keyed on
//! (constraint, resolved frontier image) with merge-driven invalidation.
//! The contracts pinned here:
//!
//! - **memo on vs off**: identical core `ChaseStats` (rounds, TGD fires,
//!   EGD merges — the memo elides probes, never firings), identical final
//!   instances, identical errors on EGD-violating inputs, for `chase` and
//!   `prov_chase`.

use estocada_chase::testkit::phase_split_workload;
use estocada_chase::{chase, prov_chase, ChaseConfig, ChaseStats, Dnf, Elem, HomConfig, Instance};
use estocada_pivot::{Atom, Constraint, Egd, Symbol, Term, Tgd};
use proptest::prelude::*;

const RELS: [&str; 3] = ["Ra", "Rb", "Rc"];
const NULLS: u32 = 6;

/// Element specs: < 5 are small constants, the rest labelled nulls —
/// EGD equalities then hit null/null, null/constant and (clashing)
/// constant/constant merges.
fn elem(spec: u8) -> Elem {
    if spec < 5 {
        Elem::of(spec as i64)
    } else {
        Elem::Null((spec as u32 - 5) % NULLS)
    }
}

/// A random TGD over the shared binary relations. Conclusion variables
/// absent from the premise are existential, so the generator exercises
/// fresh-null invention and non-trivial applicability probes.
fn arb_tgd(idx: usize) -> impl Strategy<Value = Constraint> {
    (
        proptest::collection::vec((0..3usize, 0..4u32, 0..4u32), 1..=2),
        proptest::collection::vec((0..3usize, 0..5u32, 0..5u32), 1..=2),
    )
        .prop_map(move |(premise, conclusion)| {
            let atoms = |specs: &[(usize, u32, u32)]| -> Vec<Atom> {
                specs
                    .iter()
                    .map(|(r, a, b)| Atom::new(RELS[*r], vec![Term::var(*a), Term::var(*b)]))
                    .collect()
            };
            Tgd::new(
                format!("t{idx}").as_str(),
                atoms(&premise),
                atoms(&conclusion),
            )
            .into()
        })
}

/// A random EGD whose equality variables are guaranteed to occur in the
/// premise (both premise atoms share the relation, so the FD shape can
/// actually merge).
fn arb_egd(idx: usize) -> impl Strategy<Value = Constraint> {
    (0..3usize, 0..3u32, 0..3u32, 0..3usize, 0..3usize).prop_map(move |(r, a, b, c, d)| {
        // Equality variables drawn from the premise pool, as the chase
        // requires.
        let pool = [0u32, a, b];
        Egd::new(
            format!("e{idx}").as_str(),
            vec![
                Atom::new(RELS[r], vec![Term::var(0), Term::var(a)]),
                Atom::new(RELS[r], vec![Term::var(0), Term::var(b)]),
            ],
            (Term::var(pool[c]), Term::var(pool[d])),
        )
        .into()
    })
}

/// 1–5 random constraints, TGDs and EGDs interleaved.
fn arb_constraints() -> impl Strategy<Value = Vec<Constraint>> {
    (
        proptest::collection::vec((0..2usize).prop_flat_map(arb_tgd), 1..=3),
        proptest::collection::vec((0..2usize).prop_flat_map(arb_egd), 0..=2),
    )
        .prop_map(|(tgds, egds)| {
            let mut out = Vec::new();
            let mut t = tgds.into_iter();
            let mut e = egds.into_iter();
            loop {
                match (t.next(), e.next()) {
                    (None, None) => return out,
                    (a, b) => {
                        out.extend(a);
                        out.extend(b);
                    }
                }
            }
        })
}

/// Random seed facts over the shared relations, mixing constants and
/// nulls. Returned as specs so every run builds its own instance (null
/// ids must align across the compared runs).
fn arb_facts() -> impl Strategy<Value = Vec<(usize, u8, u8, u8)>> {
    proptest::collection::vec((0..3usize, 0..11u8, 0..11u8, 0..4u8), 1..12)
}

fn build_instance(facts: &[(usize, u8, u8, u8)], with_prov: bool) -> Instance {
    let mut inst = Instance::new();
    inst.reserve_nulls(NULLS);
    for (r, a, b, p) in facts {
        let prov = if with_prov {
            Dnf::var(*p as u32)
        } else {
            Dnf::tru()
        };
        inst.insert_with_prov(Symbol::intern(RELS[*r]), vec![elem(*a), elem(*b)], prov);
    }
    inst
}

// Full observable state — ids, facts, provenance, epochs — shared with
// the phase-split unit tests and the e8 bench so the identity yardstick
// cannot drift between the suites.
use estocada_chase::testkit::dump_state as dump;

/// Small budgets so randomly non-terminating TGD sets exercise the
/// `Budget` error path deterministically instead of running away.
fn tight(memo: bool) -> ChaseConfig {
    ChaseConfig {
        max_rounds: 30,
        max_facts: 400,
        hom: HomConfig { limit: 4_096 },
        memo,
    }
}

/// Provenance clause cap of the `prov_chase` properties.
const CLAUSE_CAP: usize = 64;

type ChaseOutcome = Result<(ChaseStats, Vec<(u32, String, String, u64)>), String>;

fn run_chase(facts: &[(usize, u8, u8, u8)], cs: &[Constraint], cfg: &ChaseConfig) -> ChaseOutcome {
    let mut inst = build_instance(facts, false);
    match chase(&mut inst, cs, cfg) {
        Ok(stats) => Ok((stats, dump(&inst))),
        Err(e) => Err(e.to_string()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Memo on vs off: identical core stats (rounds / fires / merges),
    /// identical instances, identical errors — memoization elides probes,
    /// never changes what fires. Also pins that the memo-off run reports
    /// zero memo counters.
    #[test]
    fn memo_on_off_identical_results(
        facts in arb_facts(),
        cs in arb_constraints(),
    ) {
        let on = run_chase(&facts, &cs, &tight(true));
        let off = run_chase(&facts, &cs, &tight(false));
        match (on, off) {
            (Ok((s_on, d_on)), Ok((s_off, d_off))) => {
                prop_assert_eq!(s_on.core(), s_off.core());
                prop_assert_eq!(d_on, d_off);
                prop_assert_eq!(s_off.memo_hits, 0);
                prop_assert_eq!(s_off.memo_misses, 0);
            }
            (Err(e_on), Err(e_off)) => prop_assert_eq!(e_on, e_off),
            (a, b) => prop_assert!(
                false,
                "success/failure skew: memo-on ok={} memo-off ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    /// Skolem-table memo on vs off in the provenance chase: identical core
    /// stats, instances (provenance formulas included) and errors — the
    /// occurrence-indexed invalidation only garbage-collects keys that
    /// resolved lookups can never produce again, so it must not change
    /// which Skolem images any trigger sees. Also pins that the memo-off
    /// run reports zero memo counters.
    #[test]
    fn prov_memo_on_off_identical_results(
        facts in arb_facts(),
        cs in arb_constraints(),
    ) {
        let run = |memo: bool| {
            let mut inst = build_instance(&facts, true);
            match prov_chase(&mut inst, &cs, &tight(memo), CLAUSE_CAP) {
                Ok(stats) => Ok((stats, dump(&inst))),
                Err(e) => Err(e.to_string()),
            }
        };
        match (run(true), run(false)) {
            (Ok((s_on, d_on)), Ok((s_off, d_off))) => {
                prop_assert_eq!(s_on.chase.core(), s_off.chase.core());
                prop_assert_eq!(s_on.truncated, s_off.truncated);
                prop_assert_eq!(d_on, d_off);
                prop_assert_eq!(s_off.chase.memo_hits, 0);
                prop_assert_eq!(s_off.chase.memo_misses, 0);
            }
            (Err(e_on), Err(e_off)) => prop_assert_eq!(e_on, e_off),
            (a, b) => prop_assert!(
                false,
                "success/failure skew: memo-on ok={} memo-off ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }
}

/// The probe-heavy closure workload: the memo must absorb a large share of
/// the probes, memo-off must agree on the core, and a second memo-on run
/// must reproduce every counter.
#[test]
fn closure_workload_hits_the_memo_and_stays_identical() {
    let (seed, constraints) = phase_split_workload(4, 10);
    let run = |memo: bool| {
        let mut inst = seed.clone();
        let cfg = ChaseConfig {
            memo,
            ..ChaseConfig::default()
        };
        let stats = chase(&mut inst, &constraints, &cfg).unwrap();
        (stats, dump(&inst))
    };
    let (ref_stats, ref_dump) = run(true);
    assert!(
        ref_stats.memo_hits > ref_stats.memo_misses,
        "closure workload should be memo-dominated: {ref_stats:?}"
    );
    let (off_stats, off_dump) = run(false);
    assert_eq!(ref_stats.core(), off_stats.core());
    assert_eq!(ref_dump, off_dump);
    assert_eq!(run(true), (ref_stats, ref_dump));
}

/// An EGD-violating chase fails with the *same* rendered `Inconsistent`
/// error — EGD name and trigger facts included — whatever the memo
/// setting.
#[test]
fn egd_violation_error_identical_across_configs() {
    let fd: Constraint = Egd::new(
        "fd",
        vec![
            Atom::new("Ra", vec![Term::var(0), Term::var(1)]),
            Atom::new("Ra", vec![Term::var(0), Term::var(2)]),
        ],
        (Term::var(1), Term::var(2)),
    )
    .into();
    let pad: Constraint = Tgd::new(
        "pad",
        vec![Atom::new("Ra", vec![Term::var(0), Term::var(1)])],
        vec![Atom::new("Rb", vec![Term::var(1), Term::var(0)])],
    )
    .into();
    let constraints = vec![pad, fd];
    let facts = vec![(0usize, 1u8, 2u8, 0u8), (0, 1, 3, 0), (0, 4, 4, 0)];
    let reference = run_chase(&facts, &constraints, &tight(true)).unwrap_err();
    assert!(reference.contains("[fd]"), "unnamed EGD: {reference}");
    assert!(reference.contains("Ra(1, "), "missing trigger: {reference}");
    assert_eq!(
        run_chase(&facts, &constraints, &tight(false)).unwrap_err(),
        reference
    );
}
