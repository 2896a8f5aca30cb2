//! The provenance-aware chase: the engine of the PACB backchase.
//!
//! The same driver as the standard chase ([`mod@crate::chase`] — round
//! loop, semi-naive search, phase split, budgets), run under the
//! `Skolemized` firing policy:
//!
//! - every fact carries a monotone-DNF provenance formula over the
//!   provenance variables of the initial (universal-plan) facts;
//! - firing a TGD propagates the *conjunction* of the trigger facts'
//!   provenance to the conclusion facts; re-derivations extend provenance by
//!   *disjunction*;
//! - existential variables are Skolemized per (constraint, frontier binding)
//!   so that re-firing a trigger hits the same conclusion facts — this makes
//!   provenance propagation a well-defined fixpoint computation;
//! - EGDs fire only when the trigger provenance is `⊤` (derivable under
//!   every subset). This is a *conservative* treatment: it can only lose
//!   candidate rewritings, never fabricate them, and PACB verifies every
//!   candidate before reporting it (see `pacb` module docs).

use crate::chase::{
    run_chase, ChaseConfig, ChaseError, ChaseStats, CompiledTgd, FiringPolicy, FrontierCache,
    PreparedConstraints, Trigger, Workspace,
};
use crate::instance::Instance;
use estocada_pivot::Constraint;

/// The provenance-chase firing policy (see the module docs). Its Skolem
/// table is the run's [`FrontierCache`]: `(constraint, resolved frontier
/// images) → existential images`. An EGD merge retiring null `n` drops
/// exactly the entries whose *key* mentions `n` — those keys are
/// unreachable forever (lookup keys are resolved under the live
/// union-find, which never returns a retired id), so invalidation is pure
/// garbage collection and cannot change which Skolem images a trigger
/// sees. Stored *values* may mention retired nulls; they are re-resolved at
/// every lookup, so they stay correct without indexing.
struct Skolemized {
    /// [`PreparedConstraints::memo`]: the table is indexed for
    /// invalidation and its hits/misses are counted.
    memo: bool,
    /// Cap on the number of DNF clauses kept per fact; beyond it the
    /// smallest clauses win and the run is flagged truncated.
    clause_cap: usize,
    truncated: bool,
}

impl FiringPolicy for Skolemized {
    fn fire_tgd(
        &mut self,
        instance: &mut Instance,
        c: &mut FrontierCache,
        cidx: usize,
        tgd: &CompiledTgd,
        t: Trigger<'_>,
        stats: &mut ChaseStats,
    ) -> bool {
        // Trigger provenance: conjunction over premise facts.
        let [trigger, step] = &mut c.prov;
        trigger.set_true();
        for fid in t.facts {
            self.truncated |= trigger.and_into(instance.prov(*fid), self.clause_cap, step);
            std::mem::swap(trigger, step);
        }
        if trigger.is_false() {
            return false;
        }
        let mut key = std::mem::take(&mut c.key);
        tgd.frontier_key(instance, t, &mut key);
        // Resolve Skolem images for the existentials.
        let mut images = std::mem::take(&mut c.vals);
        images.clear();
        match c.find(cidx, &key) {
            Some(e) => {
                stats.memo_hits += usize::from(self.memo);
                images.extend(c.value(e).iter().map(|e| instance.resolve(e)));
            }
            None => {
                stats.memo_misses += usize::from(self.memo);
                for _ in 0..tgd.existentials() {
                    images.push(instance.fresh_null());
                }
                c.insert(cidx, &key, &images);
            }
        }
        let mut changed = false;
        for i in 0..tgd.conclusion_len() {
            let pred = tgd.conclusion_fact(i, &key, &images, &mut c.args);
            if instance.insert_ref(pred, &c.args, &c.prov[0]).1 {
                stats.tgd_fires += 1;
                changed = true;
            }
        }
        (c.key, c.vals) = (key, images);
        changed
    }

    /// Conservative: only fire with certain (⊤) trigger provenance, read at
    /// fire time. A trigger fact killed by an earlier same-round dedup
    /// still shows its pre-join (narrower) formula here — the survivor's
    /// widened formula bumps its epoch, so the skipped merge is re-searched
    /// and fires next round; the fixpoint is unchanged.
    fn egd_fires(&self, instance: &Instance, t: Trigger<'_>) -> bool {
        t.facts.iter().all(|fid| instance.prov(*fid).is_true())
    }
}

/// Outcome counters of a provenance chase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProvChaseStats {
    /// Underlying chase counters.
    pub chase: ChaseStats,
    /// Whether any provenance formula was truncated (completeness may be
    /// reduced; soundness is unaffected).
    pub truncated: bool,
}

/// Run the provenance-aware chase to (provenance) fixpoint, keeping at
/// most `clause_cap` DNF clauses per fact.
pub fn prov_chase(
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
    clause_cap: usize,
) -> Result<ProvChaseStats, ChaseError> {
    let set = PreparedConstraints::new(constraints);
    prov_chase_prepared(instance, &set, cfg, clause_cap, &mut Workspace::default())
}

/// The provenance chase over an already prepared set, on `ws`'s buffers —
/// what [`prov_chase`] runs after preparing its slice, and what the
/// per-epoch [`crate::pacb::Rewriter`] backchases with.
pub(crate) fn prov_chase_prepared(
    instance: &mut Instance,
    set: &PreparedConstraints,
    cfg: &ChaseConfig,
    clause_cap: usize,
    ws: &mut Workspace,
) -> Result<ProvChaseStats, ChaseError> {
    let mut policy = Skolemized {
        memo: set.memo,
        clause_cap,
        truncated: false,
    };
    let chase = run_chase(instance, set, cfg, &mut policy, ws)?;
    Ok(ProvChaseStats {
        chase,
        truncated: policy.truncated,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Elem;
    use crate::prov::Dnf;
    use estocada_pivot::{Atom, Symbol, Term, Tgd};

    fn sym(s: &str) -> Symbol {
        Symbol::intern(s)
    }

    fn c(v: i64) -> Elem {
        Elem::of(v)
    }

    /// `RewriteConfig::default().clause_cap`.
    const CAP: usize = 2_048;

    #[test]
    fn provenance_conjoins_along_derivations() {
        // A(x) ∧ B(x) → C(x). A gets p0, B gets p1 ⇒ C has p0∧p1.
        let t = Tgd::new(
            "t",
            vec![
                Atom::new("A", vec![Term::var(0)]),
                Atom::new("B", vec![Term::var(0)]),
            ],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(&mut i, &[t.into()], &ChaseConfig::default(), CAP).unwrap();
        let cid = i.pred_facts(sym("C"))[0];
        let p = &i.fact(cid).prov;
        assert_eq!(p.len(), 1);
        let clause = p.clauses().next().unwrap();
        assert!(clause.contains(&0) && clause.contains(&1));
    }

    #[test]
    fn alternative_derivations_disjoin() {
        // A(x) → C(x); B(x) → C(x). C(1) from either ⇒ p0 ∨ p1.
        let t1 = Tgd::new(
            "t1",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let t2 = Tgd::new(
            "t2",
            vec![Atom::new("B", vec![Term::var(0)])],
            vec![Atom::new("C", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(
            &mut i,
            &[t1.into(), t2.into()],
            &ChaseConfig::default(),
            CAP,
        )
        .unwrap();
        let cid = i.pred_facts(sym("C"))[0];
        assert_eq!(i.fact(cid).prov.len(), 2);
    }

    #[test]
    fn skolems_are_reused_across_rounds() {
        // V(x) → ∃y R(x, y), plus A(x) → V(x). V(1) starts with p0; in a
        // later round A enlarges V's provenance to p0 ∨ p1, the backward
        // trigger re-fires — and must hit the SAME Skolem null, leaving a
        // single R fact whose provenance is p0 ∨ p1.
        let bw = Tgd::new(
            "bw",
            vec![Atom::new("V", vec![Term::var(0)])],
            vec![Atom::new("R", vec![Term::var(0), Term::var(1)])],
        );
        let a2v = Tgd::new(
            "a2v",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("V", vec![Term::var(0)])],
        );
        let mut i = Instance::new();
        i.insert_with_prov(sym("V"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(1));
        prov_chase(
            &mut i,
            &[bw.into(), a2v.into()],
            &ChaseConfig::default(),
            CAP,
        )
        .unwrap();
        assert_eq!(i.pred_count(sym("R")), 1);
        let rid = i.pred_facts(sym("R"))[0];
        assert_eq!(i.fact(rid).prov.len(), 2); // p0 ∨ p1
    }

    #[test]
    fn provenance_reaches_fixpoint_through_chains() {
        // A(x) → M(x); M(x) → C(x); and also B(x) → M(x).
        let ts: Vec<Constraint> = vec![
            Tgd::new(
                "a2m",
                vec![Atom::new("A", vec![Term::var(0)])],
                vec![Atom::new("M", vec![Term::var(0)])],
            )
            .into(),
            Tgd::new(
                "m2c",
                vec![Atom::new("M", vec![Term::var(0)])],
                vec![Atom::new("C", vec![Term::var(0)])],
            )
            .into(),
            Tgd::new(
                "b2m",
                vec![Atom::new("B", vec![Term::var(0)])],
                vec![Atom::new("M", vec![Term::var(0)])],
            )
            .into(),
        ];
        let mut i = Instance::new();
        i.insert_with_prov(sym("A"), vec![c(1)], Dnf::var(0));
        i.insert_with_prov(sym("B"), vec![c(1)], Dnf::var(1));
        prov_chase(&mut i, &ts, &ChaseConfig::default(), CAP).unwrap();
        let cid = i.pred_facts(sym("C"))[0];
        // C must record both unit derivations p0 ∨ p1.
        assert_eq!(i.fact(cid).prov.len(), 2);
    }

    #[test]
    fn certain_egd_fires_uncertain_egd_skipped() {
        use estocada_pivot::Egd;
        let e: Constraint = Egd::new(
            "fd",
            vec![
                Atom::new("R", vec![Term::var(0), Term::var(1)]),
                Atom::new("R", vec![Term::var(0), Term::var(2)]),
            ],
            (Term::var(1), Term::var(2)),
        )
        .into();
        // Uncertain provenance: no merge.
        let mut i = Instance::new();
        let n1 = i.fresh_null();
        let n2 = i.fresh_null();
        i.insert_with_prov(sym("R"), vec![c(1), n1], Dnf::var(0));
        i.insert_with_prov(sym("R"), vec![c(1), n2], Dnf::var(1));
        prov_chase(
            &mut i,
            std::slice::from_ref(&e),
            &ChaseConfig::default(),
            CAP,
        )
        .unwrap();
        assert_ne!(i.resolve(&n1), i.resolve(&n2));
        // Certain provenance: merge happens.
        let mut j = Instance::new();
        let m1 = j.fresh_null();
        let m2 = j.fresh_null();
        j.insert(sym("R"), vec![c(1), m1]);
        j.insert(sym("R"), vec![c(1), m2]);
        prov_chase(&mut j, &[e], &ChaseConfig::default(), CAP).unwrap();
        assert_eq!(j.resolve(&m1), j.resolve(&m2));
    }
}
