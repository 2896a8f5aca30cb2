//! E14 — the certificate lattice: what each rung costs to certify, and
//! what lifting the budget guard under a certificate costs the chase.
//!
//! Three questions are measured:
//!
//! - **certify cost per rung**: `certify` over one representative
//!   constraint family per lattice rung (weakly acyclic, super-weakly
//!   acyclic, stratified, non-terminating, unknown). Each measurement
//!   asserts the family still certifies at its rung — a lattice
//!   regression fails the bench instead of its numbers.
//! - **guarded vs certified chase of a `Stratified` family**: the chase
//!   under the default budget guard against the same chase with the
//!   certificate lifting the guard — a `Stratified` verdict is a
//!   termination proof, not an execution order (the stratum-by-stratum
//!   executor this bench used to time measured 339 µs against 352 µs for
//!   the whole-set chase and is gone). **Bit-identical fixpoints are
//!   asserted inside every measurement.**
//! - **the key-EGD upgrade** (the acceptance pin's bench twin, test twin
//!   in `analyzer_scenarios`): the kv-migrated marketplace deployment
//!   mixes declared-key EGDs with view TGDs — the shape the pre-lattice
//!   analyzer degraded to `Unknown`. EGD-aware contraction certifies it
//!   `WeaklyAcyclic`, and the budget-free chase of the deployment's own
//!   constraint set must reproduce the guarded fixpoint bit-identically,
//!   asserted every run.

use criterion::{criterion_group, criterion_main, Criterion};
use estocada::{Estocada, Latencies};
use estocada_chase::testkit::{dump_state, feed_and_pin};
use estocada_chase::{certify, chase, ChaseConfig, Elem, Instance, TerminationCertificate};
use estocada_pivot::{Atom, Constraint, Egd, Symbol, Term, Tgd};
use estocada_workloads::marketplace::{generate, MarketplaceConfig};
use estocada_workloads::scenarios::deploy_kv_migrated;
use std::time::{Duration, Instant};

/// Weakly acyclic: an existential chain `L_i(x, y) → ∃z. L_{i+1}(y, z)`.
fn wa_family(k: usize) -> Vec<Constraint> {
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

/// Super-weakly acyclic: `Sw_i(x, x) → ∃y. Sw_i(x, y)` — a special
/// self-edge in the plain graph whose null can never reach the premise.
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

/// Stratified: feeder TGDs whose nulls an EGD pins across positions, so
/// contraction closes a cycle but the firing graph is acyclic.
fn stratified_family(k: usize) -> Vec<Constraint> {
    (0..k)
        .flat_map(|i| {
            let a = Atom::new(format!("Af{i}").as_str(), vec![Term::var(0)]);
            let b = Atom::new(format!("Bf{i}").as_str(), vec![Term::var(0), Term::var(1)]);
            feed_and_pin(&i.to_string(), a, b)
        })
        .collect()
}

/// Non-terminating: the divergent pair `T → ∃ U`, `U → ∃ T`.
fn divergent_family() -> Vec<Constraint> {
    vec![
        Tgd::new(
            "cyc_fwd",
            vec![Atom::new("T", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("U", vec![Term::var(1), Term::var(2)])],
        )
        .into(),
        Tgd::new(
            "cyc_bwd",
            vec![Atom::new("U", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("T", vec![Term::var(1), Term::var(2)])],
        )
        .into(),
    ]
}

/// Unknown: contraction closes a cycle *and* the firing graph is one SCC.
fn unknown_family() -> Vec<Constraint> {
    vec![
        Tgd::new(
            "t",
            vec![Atom::new("A", vec![Term::var(0)])],
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
        )
        .into(),
        Tgd::new(
            "t2",
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            vec![Atom::new("A", vec![Term::var(0)])],
        )
        .into(),
        Egd::new(
            "e",
            vec![Atom::new("B", vec![Term::var(0), Term::var(1)])],
            (Term::var(0), Term::var(1)),
        )
        .into(),
    ]
}

fn best_of<F: FnMut() -> Duration>(n: usize, mut f: F) -> Duration {
    (0..n).map(|_| f()).min().unwrap()
}

/// Time one chase of `cs` over `seed()` under `cfg`, asserting it reaches
/// `reference` bit for bit.
fn timed_chase(
    seed: impl Fn() -> Instance,
    cs: &[Constraint],
    cfg: &ChaseConfig,
    reference: &[(u32, String, String, u64)],
) -> Duration {
    let mut inst = seed();
    let t0 = Instant::now();
    chase(&mut inst, cs, cfg).expect("chase");
    let dt = t0.elapsed();
    assert_eq!(
        dump_state(&inst),
        reference,
        "guarded and budget-free runs must reach the bit-identical fixpoint"
    );
    dt
}

fn bench(c: &mut Criterion) {
    const K: usize = 8;
    let families: Vec<(&str, Vec<Constraint>, &str)> = vec![
        ("weakly acyclic", wa_family(K), "weakly acyclic"),
        (
            "super-weakly acyclic",
            swa_family(K),
            "super-weakly acyclic",
        ),
        ("stratified", stratified_family(K), "stratified"),
        ("non-terminating", divergent_family(), "non-terminating"),
        ("unknown", unknown_family(), "unknown"),
    ];
    println!("== E14 summary (families of ~{K} constraints per rung) ==");
    for (name, cs, rung) in &families {
        let t = best_of(5, || {
            let t0 = Instant::now();
            let cert = certify(cs);
            let dt = t0.elapsed();
            assert_eq!(cert.rung(), *rung, "{name}: lattice regression");
            dt
        });
        println!("certify[{name}]: {t:?} ({} constraints)", cs.len());
    }

    // --- guarded vs certified budget-free chase, stratified family ----
    let strat_cs = stratified_family(K);
    let strat_cert = certify(&strat_cs);
    assert_eq!(strat_cert.rung(), "stratified");
    let seed = || {
        let mut inst = Instance::new();
        for i in 0..K {
            for row in 0..16i64 {
                inst.insert(Symbol::intern(&format!("Af{i}")), vec![Elem::of(row)]);
            }
        }
        inst
    };
    let guarded_cfg = ChaseConfig::default();
    let strat_free_cfg = guarded_cfg.with_certificate(&strat_cert);
    assert_eq!(
        strat_free_cfg.max_rounds,
        usize::MAX,
        "certificate lifts budget"
    );
    let reference = {
        let mut inst = seed();
        chase(&mut inst, &strat_cs, &guarded_cfg).expect("reference chase");
        dump_state(&inst)
    };
    let run_strat = |cfg: &ChaseConfig| timed_chase(seed, &strat_cs, cfg, &reference);
    let t_guarded = best_of(5, || run_strat(&guarded_cfg));
    let t_free = best_of(5, || run_strat(&strat_free_cfg));
    println!(
        "chase (stratified family, {} constraints, {}-row seeds): guarded {t_guarded:?} vs \
         certified budget-free {t_free:?} (bit-identical, asserted)",
        strat_cs.len(),
        16
    );

    // --- the key-EGD upgrade on a builtin deployment -----------------
    let m = generate(MarketplaceConfig {
        users: 60,
        products: 30,
        orders: 200,
        log_entries: 400,
        skew: 0.8,
        seed: 12,
    });
    let est: Estocada = deploy_kv_migrated(&m, Latencies::zero());
    let cert = est.termination_certificate();
    assert!(
        matches!(cert, TerminationCertificate::WeaklyAcyclic { .. }),
        "key EGDs must not degrade the builtin deployment: {cert}"
    );
    let cs = est.constraint_set();
    let deploy_seed = || {
        let mut inst = Instance::new();
        for uid in 0..8i64 {
            inst.insert(
                Symbol::intern("Users"),
                vec![Elem::of(uid), Elem::of(100 + uid), Elem::of(1i64)],
            );
            inst.insert(
                Symbol::intern("Prefs"),
                vec![
                    Elem::of(uid),
                    Elem::of(200 + uid),
                    Elem::of(300 + uid),
                    Elem::of(uid % 2),
                ],
            );
            inst.insert(
                Symbol::intern("Orders"),
                vec![
                    Elem::of(500 + uid),
                    Elem::of(uid),
                    Elem::of(700 + uid),
                    Elem::of(800 + uid),
                    Elem::of(2 * uid),
                ],
            );
        }
        inst
    };
    let free_cfg = guarded_cfg.with_certificate(&cert);
    assert_eq!(free_cfg.max_rounds, usize::MAX, "certificate lifts budget");
    let deploy_reference = {
        let mut inst = deploy_seed();
        chase(&mut inst, &cs, &guarded_cfg).expect("reference chase");
        dump_state(&inst)
    };
    let run_deploy = |cfg: &ChaseConfig| timed_chase(deploy_seed, &cs, cfg, &deploy_reference);
    let t_dep_guarded = best_of(5, || run_deploy(&guarded_cfg));
    let t_dep_free = best_of(5, || run_deploy(&free_cfg));
    println!(
        "chase (kv-migrated deployment set, {} constraints incl. key EGDs): guarded \
         {t_dep_guarded:?} vs certified budget-free {t_dep_free:?} (bit-identical, asserted)",
        cs.len()
    );

    // --- criterion arms ----------------------------------------------
    let mut group = c.benchmark_group("e14_certificate_lattice");
    group.sample_size(10);
    group.measurement_time(Duration::from_secs(3));
    for (name, cs, rung) in &families {
        let id = format!("certify/{}", name.replace(' ', "_"));
        group.bench_function(id.as_str(), |b| {
            b.iter(|| {
                let cert = certify(cs);
                assert_eq!(cert.rung(), *rung, "lattice regression");
                cert
            })
        });
    }
    group.bench_function("stratified_family_chase_guarded", |b| {
        b.iter(|| run_strat(&guarded_cfg))
    });
    group.bench_function("stratified_family_chase_budget_free", |b| {
        b.iter(|| run_strat(&strat_free_cfg))
    });
    group.bench_function("deployment_chase_guarded", |b| {
        b.iter(|| run_deploy(&guarded_cfg))
    });
    group.bench_function("deployment_chase_budget_free", |b| {
        b.iter(|| run_deploy(&free_cfg))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
