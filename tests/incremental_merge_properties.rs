//! Differential tests of incremental EGD normalization: random
//! fact-insert / merge / epoch interleavings applied in lockstep to two
//! instances — one merging incrementally (`Instance::merge`, the
//! production path), one through the retained O(instance) full-rebuild
//! baseline (`testkit::merge_full_rebuild`) — must leave bit-identical
//! states: same alive facts and fact ids, same dedup keeper choices and
//! provenance joins, same change epochs (hence identical delta indexes),
//! same posting lists. Also re-asserts the 1-vs-N worker identity of
//! `pacb_rewrite` on top of the interned `Copy` element representation.

use estocada_chase::testkit::{
    egd_merge_instance, merge_full_rebuild, wide_chain_problem, wide_star_problem,
};
use estocada_chase::{
    chase, pacb_rewrite, ChaseConfig, Dnf, Elem, Instance, RewriteConfig, RewriteProblem,
};
use estocada_pivot::{Atom, CqBuilder, Egd, Symbol, Term, ViewDef};
use proptest::prelude::*;

const RELS: [&str; 3] = ["Ra", "Rb", "Rc"];
const NULLS: u32 = 8;

/// One step of a random instance history.
#[derive(Debug, Clone)]
enum Op {
    /// Insert `RELS[rel](elem(a), elem(b))` with provenance var `p`.
    Insert(usize, u8, u8, u8),
    /// Merge `elem(a)` with `elem(b)` (both strategies must agree, incl.
    /// on constant-clash errors, which mutate nothing).
    Merge(u8, u8),
    /// Advance the change epoch (a chase round boundary).
    Epoch,
}

/// Element specs: < 5 are small constants, the rest labelled nulls.
fn elem(spec: u8) -> Elem {
    if spec < 5 {
        Elem::of(spec as i64)
    } else {
        Elem::Null((spec - 5) as u32 % NULLS)
    }
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..3usize, 0..13u8, 0..13u8, 0..6u8).prop_map(|(r, a, b, p)| Op::Insert(r, a, b, p)),
        (0..3usize, 0..13u8, 0..13u8, 0..6u8).prop_map(|(r, a, b, p)| Op::Insert(r, a, b, p)),
        (0..13u8, 0..13u8).prop_map(|(a, b)| Op::Merge(a, b)),
        (0..13u8, 0..13u8).prop_map(|(a, b)| Op::Merge(a, b)),
        Just(Op::Epoch),
    ]
}

/// Apply `ops` to a fresh instance; `full_rebuild` selects the merge
/// strategy. Returns the instance and the per-op observable results
/// (insert ids/changed flags, merge outcomes) for lockstep comparison.
fn apply(ops: &[Op], full_rebuild: bool) -> (Instance, Vec<String>) {
    let mut inst = Instance::new();
    inst.reserve_nulls(NULLS);
    let mut log = Vec::new();
    for op in ops {
        match op {
            Op::Insert(r, a, b, p) => {
                let (id, changed) = inst.insert_with_prov(
                    Symbol::intern(RELS[*r]),
                    vec![elem(*a), elem(*b)],
                    Dnf::var(*p as u32),
                );
                log.push(format!("insert:{id}:{changed}"));
            }
            Op::Merge(a, b) => {
                let ea = elem(*a);
                let eb = elem(*b);
                let out = if full_rebuild {
                    merge_full_rebuild(&mut inst, &ea, &eb)
                } else {
                    inst.merge(&ea, &eb)
                };
                log.push(format!("merge:{out:?}"));
            }
            Op::Epoch => {
                inst.advance_epoch();
            }
        }
    }
    (inst, log)
}

/// Full observable state: alive facts with ids, rendered args, provenance
/// and epochs; posting lists per predicate; null resolutions.
fn state(inst: &Instance) -> Vec<String> {
    let mut out = Vec::new();
    for id in inst.fact_ids() {
        out.push(format!(
            "fact {id}: {} prov={:?} epoch={}",
            inst.format_fact(id),
            inst.fact(id).prov,
            inst.fact_epoch(id)
        ));
    }
    for r in RELS {
        out.push(format!("{r}: {:?}", inst.pred_facts(Symbol::intern(r))));
    }
    for n in 0..NULLS {
        out.push(format!("N{n} -> {}", inst.resolve(&Elem::Null(n))));
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Incremental merging is observationally identical to rebuilding
    /// every index from scratch, on arbitrary interleavings.
    #[test]
    fn incremental_merge_matches_full_rebuild_oracle(
        ops in proptest::collection::vec(arb_op(), 1..40),
    ) {
        let (inc, log_inc) = apply(&ops, false);
        let (full, log_full) = apply(&ops, true);
        prop_assert_eq!(log_inc, log_full, "per-op results diverged");
        prop_assert_eq!(inc.len(), full.len());
        prop_assert_eq!(state(&inc), state(&full));
        // Delta indexes agree at every epoch threshold (the semi-naive
        // chase contract: same facts stamped at the same epochs).
        for thr in 0..=inc.epoch() {
            for r in RELS {
                let d_inc = inc.delta_index(thr);
                let d_full = full.delta_index(thr);
                prop_assert_eq!(
                    d_inc.facts_of(Symbol::intern(r)),
                    d_full.facts_of(Symbol::intern(r)),
                    "delta mismatch at threshold {} for {}", thr, r
                );
            }
        }
    }

    /// Probes stay consistent with a linear scan after arbitrary merge
    /// histories (alive-only, sorted posting lists).
    #[test]
    fn probes_agree_with_linear_scan_after_merges(
        ops in proptest::collection::vec(arb_op(), 1..30),
        probe_rel in 0..3usize,
        probe_pos in 0..2u32,
        probe_elem in 0..13u8,
    ) {
        let (inst, _) = apply(&ops, false);
        let pred = Symbol::intern(RELS[probe_rel]);
        let target = inst.resolve(&elem(probe_elem));
        let expect: Vec<u32> = inst
            .fact_ids()
            .filter(|id| {
                let f = inst.fact(*id);
                f.pred == pred && f.args[probe_pos as usize] == target
            })
            .collect();
        prop_assert_eq!(inst.probe(pred, probe_pos, &target), expect.as_slice());
        prop_assert_eq!(inst.count_with(pred, probe_pos, &target), expect.len());
    }
}

/// The EGD-heavy bench workload chases to the same fixpoint through the
/// production loop as through pairwise full-rebuild merges.
#[test]
fn egd_merge_workload_chases_to_full_rebuild_fixpoint() {
    let (inst, fd) = egd_merge_instance(8, 3, 50);
    let mut via_chase = inst.clone();
    chase(
        &mut via_chase,
        &[fd.clone().into()],
        &ChaseConfig::default(),
    )
    .unwrap();

    let mut via_rebuild = inst.clone();
    loop {
        let mut changed = false;
        let ids: Vec<u32> = via_rebuild.fact_ids().collect();
        for i in &ids {
            for j in &ids {
                if !via_rebuild.is_alive(*i) || !via_rebuild.is_alive(*j) {
                    continue;
                }
                let (fi, fj) = (via_rebuild.fact(*i), via_rebuild.fact(*j));
                if fi.pred != fj.pred || fi.pred != Symbol::intern("R") {
                    continue;
                }
                if fi.args[0] == fj.args[0] && fi.args[1] != fj.args[1] {
                    let (a, b) = (fi.args[1], fj.args[1]);
                    changed |= merge_full_rebuild(&mut via_rebuild, &a, &b).unwrap();
                }
            }
        }
        if !changed {
            break;
        }
    }
    assert_eq!(via_chase.len(), via_rebuild.len());
    let dump = |i: &Instance| -> Vec<String> { i.fact_ids().map(|id| i.format_fact(id)).collect() };
    assert_eq!(dump(&via_chase), dump(&via_rebuild));
}

/// 1-vs-N worker identity of `pacb_rewrite`, re-asserted on the interned
/// `Copy` element representation (PR 2's fan-in contract must survive the
/// representation change) — including a problem whose backchase fires EGDs.
#[test]
fn parallel_rewrite_identity_on_interned_instances() {
    let mut problems = vec![wide_chain_problem(4), wide_star_problem(3)];
    // A chain problem with a key constraint on the view schema: the
    // backchase runs EGD merges over interned elements.
    let mut with_egd = wide_chain_problem(3);
    with_egd.target_constraints.push(
        Egd::new(
            "v0key",
            vec![
                Atom::new("V0", vec![Term::var(0), Term::var(1)]),
                Atom::new("V0", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into(),
    );
    problems.push(with_egd);
    // And a fresh single-view problem exercising constants in heads.
    let v = ViewDef::new(
        CqBuilder::new("Vc")
            .head_vars(["x", "y"])
            .atom("Rc0", |a| a.v("x").v("y"))
            .build(),
    );
    let q = CqBuilder::new("Qc")
        .head_vars(["y"])
        .atom("Rc0", |a| a.c(3i64).v("y"))
        .build();
    problems.push(RewriteProblem::new(q, vec![v]));

    for (i, problem) in problems.iter().enumerate() {
        let serial = pacb_rewrite(problem, &RewriteConfig::default()).unwrap();
        for workers in [2, 4, 8] {
            let parallel =
                pacb_rewrite(problem, &RewriteConfig::default().with_parallelism(workers)).unwrap();
            assert_eq!(
                serial, parallel,
                "problem {i}: fan-in skew at {workers} workers"
            );
        }
    }
}
