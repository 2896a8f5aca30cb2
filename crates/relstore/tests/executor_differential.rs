//! The relational executor against a nested loop over values: random
//! conjunctive queries over random tables — indexed on random columns or
//! not, one to three tables with self-joins, `=` joins across and within
//! tables, `=`/`<>`/range constants some row holds and constants none
//! holds, other column comparisons, empty projections and `DISTINCT` — must
//! answer, as a multiset, what every combination of rows filtered under
//! `CmpOp::eval` and projected gives. Each query scans exactly the tables
//! an index does not seed.

use estocada_pivot::Value;
use estocada_relstore::{CmpOp, ColRef, Pred, RelStore, SqlQuery};

/// A deterministic stream of choices.
struct Dice(u64);

impl Dice {
    fn roll(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n.max(1)
    }
}

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// A cell from a small mixed domain: ints, doubles equal to some of them
/// in value, two strings and `Null`.
fn cell(dice: &mut Dice) -> Value {
    match dice.roll(8) {
        0..=4 => Value::Int(dice.roll(4) as i64),
        5 => Value::Double(dice.roll(3) as f64),
        6 => Value::str(["x", "y"][dice.roll(2)]),
        _ => Value::Null,
    }
}

/// A query constant: a cell of the domain, or one no row holds (some never
/// interned anywhere).
fn constant(dice: &mut Dice) -> Value {
    match dice.roll(4) {
        0 => Value::Int(90 + dice.roll(3) as i64),
        1 => Value::str(format!("never-held-{}", dice.roll(3))),
        2 => Value::Double(1.5),
        _ => cell(dice),
    }
}

/// A stored table of the model: its rows and which columns are indexed.
struct Stored {
    name: String,
    rows: Vec<Vec<Value>>,
    indexed: Vec<bool>,
}

/// Up to three tables of one to four columns and up to ten rows (some
/// repeated), each column indexed with probability one in three, created
/// in `store`.
fn tables(dice: &mut Dice, store: &RelStore) -> Vec<Stored> {
    (0..1 + dice.roll(3))
        .map(|t| {
            let name = format!("t{t}");
            let width = 1 + dice.roll(4);
            let columns: Vec<String> = (0..width).map(|c| format!("c{c}")).collect();
            let names: Vec<&str> = columns.iter().map(String::as_str).collect();
            store.create_table(&name, &names);
            let mut rows: Vec<Vec<Value>> = (0..dice.roll(11))
                .map(|_| (0..width).map(|_| cell(dice)).collect())
                .collect();
            if !rows.is_empty() && dice.roll(3) == 0 {
                rows.push(rows[dice.roll(rows.len())].clone());
            }
            store.insert_many(&name, &rows).unwrap();
            let indexed: Vec<bool> = (0..width).map(|_| dice.roll(3) == 0).collect();
            for (c, _) in indexed.iter().enumerate().filter(|(_, i)| **i) {
                store.create_index(&name, &columns[c]).unwrap();
            }
            Stored {
                name,
                rows,
                indexed,
            }
        })
        .collect()
}

/// A random query over `stored`: one to three tables (repeats are
/// self-joins), up to five predicates and up to four projected columns.
fn query(dice: &mut Dice, stored: &[Stored]) -> (SqlQuery, Vec<usize>) {
    let mut q = SqlQuery::new();
    let from: Vec<usize> = (0..1 + dice.roll(3))
        .map(|_| dice.roll(stored.len()))
        .collect();
    for t in &from {
        q.add_table(&stored[*t].name);
    }
    let col = |dice: &mut Dice| {
        let table = dice.roll(from.len());
        let column = dice.roll(stored[from[table]].indexed.len());
        ColRef { table, column }
    };
    for _ in 0..dice.roll(6) {
        let p = match dice.roll(4) {
            0 | 1 => Pred::ColCol(col(dice), CmpOp::Eq, col(dice)),
            2 => Pred::ColConst(col(dice), OPS[dice.roll(6)], constant(dice)),
            _ => Pred::ColCol(col(dice), OPS[1 + dice.roll(5)], col(dice)),
        };
        q.predicates.push(p);
    }
    for _ in 0..dice.roll(5) {
        q.projection.push(col(dice));
    }
    q.distinct = dice.roll(3) == 0;
    (q, from)
}

/// The query's answer by a nested loop over every combination of rows,
/// sorted (each row once under `DISTINCT`).
fn nested_loop(q: &SqlQuery, from: &[usize], stored: &[Stored]) -> Vec<Vec<Value>> {
    let mut out = Vec::new();
    let mut combo: Vec<usize> = vec![0; from.len()];
    let sizes: Vec<usize> = from.iter().map(|t| stored[*t].rows.len()).collect();
    if sizes.contains(&0) {
        return out;
    }
    loop {
        let value = |c: &ColRef| &stored[from[c.table]].rows[combo[c.table]][c.column];
        let holds = |p: &Pred| match p {
            Pred::ColConst(c, op, v) => op.eval(value(c), v),
            Pred::ColCol(l, op, r) => op.eval(value(l), value(r)),
        };
        if q.predicates.iter().all(holds) {
            out.push(q.projection.iter().map(|c| value(c).clone()).collect());
        }
        // The next combination, the last table fastest.
        let Some(t) = (0..from.len()).rev().find(|t| combo[*t] + 1 < sizes[*t]) else {
            break;
        };
        combo[t] += 1;
        combo[t + 1..].fill(0);
    }
    out.sort();
    if q.distinct {
        out.dedup();
    }
    out
}

#[test]
fn executor_answers_like_a_nested_loop_and_scans_the_unseeded_tables() {
    // How often each case came up: seeded tables, self-joins, empty
    // projections, non-empty answers, ghost constants.
    let mut seen = [0usize; 5];
    for seed in 0..3000 {
        let mut dice = Dice(seed);
        let store = RelStore::new();
        let stored = tables(&mut dice, &store);
        let (q, from) = query(&mut dice, &stored);
        let before = store.metrics.snapshot().tuples_scanned;
        let mut got = store.query(&q).unwrap().to_values();
        let scanned = store.metrics.snapshot().tuples_scanned - before;
        got.sort();
        let expected = nested_loop(&q, &from, &stored);
        assert_eq!(got, expected, "seed {seed}: {q}");
        let seeded = |ti: usize| {
            q.predicates.iter().any(|p| match p {
                Pred::ColConst(c, op, _) => {
                    c.table == ti && *op != CmpOp::Ne && stored[from[ti]].indexed[c.column]
                }
                Pred::ColCol(..) => false,
            })
        };
        let unseeded = (0..from.len()).filter(|ti| !seeded(*ti));
        let lengths: usize = unseeded.map(|ti| stored[from[ti]].rows.len()).sum();
        assert_eq!(scanned, lengths as u64, "seed {seed}: {q}: scanned");
        seen[0] += usize::from((0..from.len()).any(seeded));
        seen[1] += usize::from((1..from.len()).any(|i| from[..i].contains(&from[i])));
        seen[2] += usize::from(q.projection.is_empty() && !expected.is_empty());
        seen[3] += usize::from(!expected.is_empty() && from.len() > 1);
        let ghost =
            |p: &Pred| matches!(p, Pred::ColConst(_, _, Value::Str(s)) if s.starts_with("never"));
        seen[4] += usize::from(q.predicates.iter().any(ghost));
    }
    assert!(seen.iter().all(|n| *n > 50), "{seen:?}");
}
