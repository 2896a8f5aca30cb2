//! M1 — chase-engine microbenchmark (supports E3): chase time vs instance
//! size and constraint mix, on the document-model constraint set
//! (transitivity TGDs + functional-dependency EGDs). Every run asserts the
//! fixpoint's fact count and TGD firings, which no engine internal may move.

use estocada_bench::measure;
use estocada_chase::{chase, ChaseConfig, Elem, Instance};
use estocada_pivot::encoding::document::DocRelations;
use estocada_pivot::{Constraint, Value};
use std::time::Instant;

/// A forest of `docs` documents, each a chain of `depth` nodes — the chase
/// must derive the full descendant closure (depth² per doc).
fn doc_instance(docs: u64, depth: u64) -> (Instance, Vec<Constraint>) {
    let rels = DocRelations::for_collection("M1");
    let mut inst = Instance::new();
    let mut next_id = 0u64;
    for d in 0..docs {
        let root = next_id;
        next_id += 1;
        inst.insert(
            rels.root,
            vec![Elem::of(Value::Id(d)), Elem::of(Value::Id(root))],
        );
        let mut prev = root;
        for i in 0..depth {
            let node = next_id;
            next_id += 1;
            inst.insert(
                rels.child,
                vec![Elem::of(Value::Id(prev)), Elem::of(Value::Id(node))],
            );
            inst.insert(
                rels.node,
                vec![
                    Elem::of(Value::Id(node)),
                    Elem::of(Value::str(format!("tag{i}"))),
                ],
            );
            prev = node;
        }
    }
    (inst, rels.constraints())
}

fn main() {
    println!("== M1: document-closure chase ==");
    // (documents, depth, facts at the fixpoint, TGD firings).
    for (docs, depth, fixpoint, fires) in [
        (20u64, 6u64, 680usize, 420usize),
        (50, 8, 2_650, 1_800),
        (100, 10, 7_600, 5_500),
    ] {
        let (inst, constraints) = doc_instance(docs, depth);
        let mut rounds = 0;
        let t = measure(
            &format!("m1_chase_micro/doc_closure/{docs}x{depth}"),
            10,
            || {
                let mut work = inst.clone();
                let t = Instant::now();
                let stats = chase(&mut work, &constraints, &ChaseConfig::default()).unwrap();
                let dt = t.elapsed();
                assert_eq!((work.len(), stats.tgd_fires), (fixpoint, fires));
                rounds = stats.rounds;
                dt
            },
        );
        println!(
            "docs={docs} depth={depth}: {} → {fixpoint} facts, {fires} TGD fires, {rounds} rounds in {t:?}",
            inst.len()
        );
    }
}
