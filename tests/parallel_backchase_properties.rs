//! Differential tests of the **parallel PACB backchase**: `pacb_rewrite`
//! with `parallelism = N` must return a `RewriteOutcome` *identical* to the
//! serial run (`parallelism = 1`) — same rewritings in the same order with
//! the same names, same stats counters, same completeness flag — and both
//! must stay equivalent to the exhaustive classical backchase
//! (`naive_rewrite`) on small instances.
//!
//! The commutation results for logically constrained rewriting (Takahata
//! et al.) are the theory backdrop: parallel application of independent
//! rewrite checks commutes with the serial order *only if* the fan-in is
//! deterministic. These tests pin the implementation to that contract,
//! including under budget exhaustion and cap truncation (tiny chase
//! budgets, `max_images`, provenance clause caps), where early-exit paths
//! must neither deadlock nor skew results.

use estocada_chase::{
    naive_rewrite, pacb_rewrite, ChaseConfig, HomConfig, NaiveConfig, RewriteConfig,
    RewriteOutcome, RewriteProblem,
};
use estocada_pivot::{Atom, Cq, Term, ViewDef};
use proptest::prelude::*;

const RELS: [&str; 3] = ["Ra", "Rb", "Rc"];

/// A random conjunctive query over binary relations with a small variable
/// pool; guaranteed safe by construction (head vars drawn from body vars).
/// Same generator family as `tests/rewriting_properties.rs`.
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

fn canon_set(rws: &[Cq]) -> Vec<String> {
    let mut v: Vec<String> = rws
        .iter()
        .map(|r| format!("{}", r.canonicalize()))
        .collect();
    v.sort();
    v.dedup();
    v
}

/// Assert the full outcome (rewritings + names + order + stats + flags) is
/// identical across worker counts. A run that fails (budget exhaustion) is
/// fine as long as every worker count fails with the same error — in that
/// case `Ok(None)` is returned.
fn assert_identical_at_all_worker_counts(
    problem: &RewriteProblem,
    base: &RewriteConfig,
) -> Result<Option<RewriteOutcome>, TestCaseError> {
    let serial = pacb_rewrite(problem, &base.with_parallelism(1));
    for par in [2usize, 4, 8] {
        let parallel = pacb_rewrite(problem, &base.with_parallelism(par));
        match (&serial, &parallel) {
            (Ok(s), Ok(p)) => prop_assert_eq!(
                s,
                p,
                "outcome skew between parallelism=1 and parallelism={}",
                par
            ),
            (Err(se), Err(pe)) => prop_assert_eq!(
                format!("{se}"),
                format!("{pe}"),
                "error skew between parallelism=1 and parallelism={}",
                par
            ),
            (s, p) => prop_assert!(
                false,
                "success/failure skew at parallelism={}: serial={:?} parallel={:?}",
                par,
                s.is_ok(),
                p.is_ok()
            ),
        }
    }
    Ok(serial.ok())
}

// 2^k minimal rewritings — the widest candidate fan-out shape; shared with
// the pacb unit tests and the e6 bench so the suites pin the same workload.
use estocada_chase::testkit::wide_chain_problem as multi_candidate_problem;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Differential property: random rewrite problems produce identical
    /// `RewriteOutcome`s at parallelism 1, 2, 4 and 8.
    #[test]
    fn parallel_outcome_identical_on_random_problems(
        q in arb_cq("Q", 3),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 2),
    ) {
        let problem = RewriteProblem::new(q, vec![ViewDef::new(v1), ViewDef::new(v2)]);
        assert_identical_at_all_worker_counts(&problem, &RewriteConfig::default())?;
    }

    /// Both the serial and the parallel run agree with the exhaustive
    /// classical backchase on small instances.
    #[test]
    fn parallel_and_serial_agree_with_naive(
        q in arb_cq("Q", 3),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 2),
    ) {
        let problem = RewriteProblem::new(q, vec![ViewDef::new(v1), ViewDef::new(v2)]);
        let outcome = assert_identical_at_all_worker_counts(&problem, &RewriteConfig::default())?
            .expect("default budgets must not exhaust on small instances");
        prop_assert!(outcome.complete, "PACB reported incomplete search");
        let naive = naive_rewrite(&problem, &NaiveConfig::default())
            .expect("naive backchase failed where PACB succeeded");
        prop_assert_eq!(canon_set(&outcome.rewritings), canon_set(&naive.rewritings));
    }

    /// Stress: truncation and budget-exhaustion paths stay deterministic
    /// under parallel fan-out. Tiny image caps, provenance clause caps and
    /// chase budgets force every early-exit branch; the parallel run must
    /// terminate (no worker deadlock — enforced by the test completing) and
    /// match the serial run bit for bit, including the `complete` flag and
    /// the rejected/infeasible counters.
    #[test]
    fn truncation_and_budgets_do_not_skew_parallel_runs(
        q in arb_cq("Q", 3),
        v1 in arb_cq("V1", 2),
        v2 in arb_cq("V2", 2),
        max_images in 1usize..6,
        clause_cap in 1usize..6,
        max_rounds in 1usize..5,
        max_facts in 4usize..40,
    ) {
        let problem = RewriteProblem::new(q, vec![ViewDef::new(v1), ViewDef::new(v2)]);
        let cfg = RewriteConfig {
            chase: ChaseConfig {
                max_rounds,
                max_facts,
                hom: HomConfig { limit: 64 },
                ..ChaseConfig::default()
            },
            clause_cap,
            max_images,
            parallelism: 1,
        };
        assert_identical_at_all_worker_counts(&problem, &cfg)?;
    }
}

/// Candidate-cap truncation on a wide (multi-candidate) problem: the
/// clause cap truncates the candidate set mid-stream; the surviving prefix
/// must be identical across worker counts and flagged incomplete
/// consistently.
#[test]
fn clause_cap_truncation_is_deterministic_on_wide_fanout() {
    let problem = multi_candidate_problem(5); // 32 candidates uncapped
    for clause_cap in [1usize, 2, 7, 31] {
        let cfg = RewriteConfig {
            clause_cap,
            ..RewriteConfig::default()
        };
        let serial = pacb_rewrite(&problem, &cfg.with_parallelism(1)).unwrap();
        for par in [2usize, 4, 8] {
            let parallel = pacb_rewrite(&problem, &cfg.with_parallelism(par)).unwrap();
            assert_eq!(
                serial, parallel,
                "clause_cap={clause_cap} parallelism={par} skewed the truncated outcome"
            );
        }
        assert!(serial.stats.candidates <= clause_cap);
    }
}

/// Chase-budget exhaustion *inside* the verification workers: a round
/// budget just big enough for the forward chase and the backchase but too
/// small for some candidates' verification chases makes the workers'
/// containment checks fail with a budget error; every such candidate must
/// be rejected — identically, whichever worker hits it, with exact
/// (non-racy) rejected counters, and without deadlocking the pool
/// (enforced by the test completing at all). A candidate dropped because
/// its check could not finish is *undecided*, not refuted: the outcome must
/// stop claiming to be exhaustive (`complete == false`), for PACB and the
/// naive enumeration alike, while the unbudgeted twin stays complete.
#[test]
fn worker_budget_exhaustion_rejects_identically() {
    use estocada_pivot::{Constraint, Tgd};
    // A chain of target-schema TGDs (T0 → T1 → … → T12, seeded off W0).
    // The backchase starts from the whole universal plan, W0 included; a
    // candidate using V0 instead has to derive W0 first (V0 → R0 → W0), so
    // its verification chase needs two rounds more than the backchase — one
    // more than the budget below. All chases share one budget, the
    // universal-plan forward chase never sees target constraints, and
    // candidates using W0 fit: the failure happens *inside the workers*,
    // for half of the candidates.
    let mut problem = multi_candidate_problem(4);
    problem.target_constraints.push(
        Tgd::new(
            "w2t",
            vec![Atom::new("W0", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("T0", vec![Term::var(0), Term::var(1)])],
        )
        .into(),
    );
    for j in 0..12 {
        let c: Constraint = Tgd::new(
            format!("t{j}").as_str(),
            vec![Atom::new(
                format!("T{j}").as_str(),
                vec![Term::var(0), Term::var(1)],
            )],
            vec![Atom::new(
                format!("T{}", j + 1).as_str(),
                vec![Term::var(0), Term::var(1)],
            )],
        )
        .into();
        problem.target_constraints.push(c);
    }
    let unbudgeted = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
    assert_eq!(unbudgeted.stats.rejected, 0);
    assert!(unbudgeted.complete);
    let cfg = RewriteConfig {
        chase: ChaseConfig {
            max_rounds: unbudgeted.stats.backward.chase.rounds + 1,
            ..ChaseConfig::default()
        },
        ..RewriteConfig::default()
    };
    let serial = pacb_rewrite(&problem, &cfg.with_parallelism(1)).unwrap();
    assert!(
        serial.stats.rejected > 0 && serial.stats.accepted > 0,
        "expected worker-side budget rejections beside accepted siblings; stats: {:?}",
        serial.stats
    );
    assert!(
        !serial.complete,
        "rewritings were dropped by failed verification chases, yet the list claims to be exhaustive"
    );
    let naive = |rewrite| NaiveConfig {
        rewrite,
        ..NaiveConfig::default()
    };
    assert!(!naive_rewrite(&problem, &naive(cfg)).unwrap().complete);
    assert!(
        naive_rewrite(&problem, &naive(RewriteConfig::default()))
            .unwrap()
            .complete
    );
    for par in [2usize, 4, 8, 16] {
        let parallel = pacb_rewrite(&problem, &cfg.with_parallelism(par)).unwrap();
        assert_eq!(
            serial, parallel,
            "budget-exhausted run skewed at {par} workers"
        );
    }
}

/// Image-cap truncation before fan-out: `max_images` smaller than the
/// image count flags the run incomplete; the flag and the candidate set
/// must not depend on the worker count.
#[test]
fn image_cap_is_deterministic_across_worker_counts() {
    let problem = multi_candidate_problem(3);
    let cfg = RewriteConfig {
        max_images: 1,
        ..RewriteConfig::default()
    };
    let serial = pacb_rewrite(&problem, &cfg.with_parallelism(1)).unwrap();
    assert!(!serial.complete, "image cap must flag incompleteness");
    for par in [2usize, 4, 8] {
        let parallel = pacb_rewrite(&problem, &cfg.with_parallelism(par)).unwrap();
        assert_eq!(serial, parallel);
    }
}

/// Serial and parallel stats match counter by counter on a problem that
/// exercises accepted, rejected and infeasible candidates at once.
#[test]
fn stats_counters_are_exact_under_parallel_fanout() {
    use estocada_pivot::AccessPattern;
    let mut problem = multi_candidate_problem(4);
    // Make every candidate using V0 infeasible and keep W0 usable.
    problem.access.set("V0", AccessPattern::parse("io"));
    let serial = pacb_rewrite(&problem, &RewriteConfig::default()).unwrap();
    assert!(serial.stats.infeasible > 0);
    assert!(serial.stats.accepted > 0);
    for par in [2usize, 4, 8] {
        let parallel =
            pacb_rewrite(&problem, &RewriteConfig::default().with_parallelism(par)).unwrap();
        assert_eq!(serial.stats, parallel.stats, "stats skew at {par} workers");
    }
}

/// Repeated parallel runs are stable (no run-to-run nondeterminism from
/// scheduling): ten runs at 8 workers, one outcome.
#[test]
fn parallel_runs_are_reproducible() {
    let problem = multi_candidate_problem(4);
    let cfg = RewriteConfig::default().with_parallelism(8);
    let first = pacb_rewrite(&problem, &cfg).unwrap();
    for _ in 0..9 {
        assert_eq!(first, pacb_rewrite(&problem, &cfg).unwrap());
    }
}
