//! Shared rewrite-problem generators for tests and benches.
//!
//! The parallel-backchase unit tests (`pacb`), the differential suite
//! (`tests/parallel_backchase_properties.rs`) and the scaling bench
//! (`e6_parallel_backchase`) must all exercise the *same* multi-candidate
//! workload; keeping the single definition here stops the three from
//! silently drifting apart.

use crate::chase::{chase_prepared, ChaseConfig, ChaseError, ChaseStats, PreparedConstraints};
use crate::instance::{Elem, Instance};
use crate::pacb::RewriteProblem;
use estocada_pivot::{Atom, Constraint, CqBuilder, Egd, Symbol, Term, Tgd, ViewDef};

/// The reference the live-premise rule is tested against: the restricted
/// chase of `constraints` searching **every** premise in **every** round —
/// the same driver with the rule switched off, so instance, errors and
/// [`ChaseStats::core`] must equal [`crate::chase::chase`] exactly and only
/// `premise_searches` differs (`rounds × constraints` here).
pub fn chase_every_premise(
    instance: &mut Instance,
    constraints: &[Constraint],
    cfg: &ChaseConfig,
) -> Result<ChaseStats, ChaseError> {
    let mut set = PreparedConstraints::new(constraints);
    set.search_every_premise = true;
    chase_prepared(instance, &set, cfg)
}

/// Chain problem `Q(x0,xk) :- R0(x0,x1), …, R(k-1)(x(k-1),xk)` with **two
/// interchangeable views per edge** (`Vi`/`Wi`): 2^k minimal rewritings,
/// i.e. 2^k independent verification chases to fan out.
pub fn wide_chain_problem(k: usize) -> RewriteProblem {
    let mut qb = CqBuilder::new("Q").head_vars(["x0"]);
    let mut q = {
        for i in 0..k {
            let a = format!("x{i}");
            let b = format!("x{}", i + 1);
            qb = qb.atom(format!("R{i}").as_str(), move |ab| ab.v(&a).v(&b));
        }
        qb.build()
    };
    let last = q.body[k - 1].args[1].clone();
    q.head.push(last);
    let mut views = Vec::new();
    for i in 0..k {
        for prefix in ["V", "W"] {
            views.push(ViewDef::new(
                CqBuilder::new(format!("{prefix}{i}").as_str())
                    .head_vars(["a", "b"])
                    .atom(format!("R{i}").as_str(), |x| x.v("a").v("b"))
                    .build(),
            ));
        }
    }
    RewriteProblem::new(q, views)
}

/// EGD-heavy instance for the differential merge suite
/// (`tests/incremental_merge_properties.rs`): `keys` key groups of
/// `dups` facts `R(k, N_{k,j})` whose second columns a functional
/// dependency merges pairwise (`keys × (dups − 1)` EGD merges), plus
/// `ballast` untouched facts `B(i, i)` that a full index rebuild must walk
/// on every merge but an incremental merge never sees.
pub fn egd_merge_instance(keys: usize, dups: usize, ballast: usize) -> (Instance, Egd) {
    let mut inst = Instance::new();
    for i in 0..ballast {
        inst.insert(
            estocada_pivot::Symbol::intern("B"),
            vec![Elem::of(i as i64), Elem::of(i as i64)],
        );
    }
    let r = estocada_pivot::Symbol::intern("R");
    for k in 0..keys {
        for _ in 0..dups {
            let n = inst.fresh_null();
            inst.insert(r, vec![Elem::of(k as i64), n]);
        }
    }
    let fd = Egd::new(
        "fd",
        vec![
            Atom::new("R", vec![Term::var(0), Term::var(1)]),
            Atom::new("R", vec![Term::var(0), Term::var(2)]),
        ],
        (Term::var(1), Term::var(2)),
    );
    (inst, fd)
}

/// The `Stratified`-only constraint shape shared by the certificate unit
/// tests, the differential suites and the `e14` bench: a feeder TGD
/// `feeder → ∃y. fed` whose null the EGD `fed ∧ feeder → y = x` (`x` =
/// variable 0, occurring in both atoms; `y` = variable 1, only in `fed`)
/// merges *across* positions. EGD contraction closes a special cycle, so no
/// single rung certifies the pair, but the firing graph is acyclic — the
/// merge never re-enables the feeder — and each constraint certifies as
/// its own stratum. `tag` suffixes the constraint names `feed`/`pin`.
pub fn feed_and_pin(tag: &str, feeder: Atom, fed: Atom) -> [Constraint; 2] {
    let feed = Tgd::new(
        format!("feed{tag}").as_str(),
        vec![feeder.clone()],
        vec![fed.clone()],
    );
    let pin = Egd::new(
        format!("pin{tag}").as_str(),
        vec![fed, feeder],
        (Term::var(1), Term::var(0)),
    );
    [feed.into(), pin.into()]
}

/// Full observable state of an instance — fact ids, rendered facts,
/// provenance formulas, change epochs — the bit-identity yardstick the
/// phase-split unit tests and the differential suites
/// (`tests/phase_split_properties.rs`, `rewriting_properties.rs`, the
/// analyzer suites) compare. One definition so they cannot silently drift
/// on what counts as observable.
pub fn dump_state(i: &Instance) -> Vec<(u32, String, String, u64)> {
    i.fact_ids()
        .map(|id| {
            (
                id,
                i.format_fact(id),
                format!("{:?}", i.fact(id).prov),
                i.fact_epoch(id),
            )
        })
        .collect()
}

/// Probe-heavy multi-constraint chase workload for the phase-split unit
/// tests and the differential suite
/// (`tests/phase_split_properties.rs`): `rels` independent edge relations
/// `E0..`, each with a copy TGD `Ei(x,y) → Pi(x,y)` and a transitivity TGD
/// `Pi(x,y) ∧ Pi(y,z) → Pi(x,z)`, seeded with a `chain`-node path per
/// relation. Closing the chain re-derives every pair `Pi(a,c)` through
/// each midpoint `b`, so trigger counts grow cubically while distinct
/// applicability keys stay quadratic — the memo-hit hot case — over
/// `2 × rels` constraints searched every round.
pub fn phase_split_workload(rels: usize, chain: usize) -> (Instance, Vec<Constraint>) {
    let mut inst = Instance::new();
    let mut constraints: Vec<Constraint> = Vec::new();
    for r in 0..rels {
        let e = Symbol::intern(&format!("E{r}"));
        for k in 0..chain {
            inst.insert(e, vec![Elem::of(k as i64), Elem::of((k + 1) as i64)]);
        }
        constraints.push(
            Tgd::new(
                format!("e2p{r}").as_str(),
                vec![Atom::new(
                    format!("E{r}").as_str(),
                    vec![Term::var(0), Term::var(1)],
                )],
                vec![Atom::new(
                    format!("P{r}").as_str(),
                    vec![Term::var(0), Term::var(1)],
                )],
            )
            .into(),
        );
        constraints.push(
            Tgd::new(
                format!("trans{r}").as_str(),
                vec![
                    Atom::new(format!("P{r}").as_str(), vec![Term::var(0), Term::var(1)]),
                    Atom::new(format!("P{r}").as_str(), vec![Term::var(1), Term::var(2)]),
                ],
                vec![Atom::new(
                    format!("P{r}").as_str(),
                    vec![Term::var(0), Term::var(2)],
                )],
            )
            .into(),
        );
    }
    (inst, constraints)
}

/// Star problem `Q(c) :- Hub(c), S0(c,y0), …` with two interchangeable
/// views per satellite (`VSi`/`WSi`): 2^k minimal rewritings.
pub fn wide_star_problem(k: usize) -> RewriteProblem {
    let mut qb = CqBuilder::new("Q").head_vars(["c"]);
    qb = qb.atom("Hub", |a| a.v("c"));
    for i in 0..k {
        let y = format!("y{i}");
        qb = qb.atom(format!("S{i}").as_str(), move |a| a.v("c").v(&y));
    }
    let q = qb.build();
    let mut views = vec![ViewDef::new(
        CqBuilder::new("VHub")
            .head_vars(["c"])
            .atom("Hub", |a| a.v("c"))
            .build(),
    )];
    for i in 0..k {
        for prefix in ["VS", "WS"] {
            views.push(ViewDef::new(
                CqBuilder::new(format!("{prefix}{i}").as_str())
                    .head_vars(["c", "y"])
                    .atom(format!("S{i}").as_str(), |a| a.v("c").v("y"))
                    .build(),
            ));
        }
    }
    RewriteProblem::new(q, views)
}
