//! The kernel's hot loops (`estocada_pivot::kernel`) against naive
//! statements of them: `compare` against `CmpOp::eval` over resolved
//! values, `answer` against a first-seen `Vec`-scan distinct and an
//! in-order group fold, and `JoinTable` against a map of vectors — and
//! `answer`'s one pass against two growing passes, timed, from 8 to 20 000
//! distinct rows of 20 000.

use estocada_pivot::agg::{AggFun, GroupBy};
use estocada_pivot::kernel::{answer, compare, pack_key, Distinct, Groups, JoinTable};
use estocada_pivot::{CmpOp, ConstId, ConstReader, IdRows, Value};
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::time::Instant;

const OPS: [CmpOp; 6] = [
    CmpOp::Eq,
    CmpOp::Ne,
    CmpOp::Lt,
    CmpOp::Le,
    CmpOp::Gt,
    CmpOp::Ge,
];

/// Values whose order the number fast path could get wrong: integers past
/// 2^53 (equal as doubles, unequal as integers), an `Int` and a `Double` of
/// one value, both zeros, NaNs of both signs, both infinities — beside
/// strings, `Null` and booleans, which order by the value.
fn pool() -> Vec<Value> {
    let big = 1i64 << 53;
    let mut pool = vec![
        Value::Int(big),
        Value::Int(big + 1),
        Value::Int(big - 1),
        Value::Int(i64::MAX),
        Value::Int(i64::MIN),
        Value::Double(big as f64),
        Value::Double((big + 2) as f64),
        Value::Int(3),
        Value::Double(3.0),
        Value::Int(0),
        Value::Double(0.0),
        Value::Double(-0.0),
        Value::Double(f64::NAN),
        Value::Double(-f64::NAN),
        Value::Double(f64::INFINITY),
        Value::Double(f64::NEG_INFINITY),
        Value::Int(-7),
        Value::Double(-7.5),
        Value::str(""),
        Value::str("kernel-b"),
        Value::str("kernel-a"),
        Value::Null,
        Value::Bool(false),
        Value::Bool(true),
    ];
    pool.push(Value::Double(i64::MAX as f64));
    pool
}

fn arb_compared() -> impl Strategy<Value = Value> {
    prop_oneof![
        (0..pool().len()).prop_map(|i| pool()[i].clone()),
        (0..pool().len()).prop_map(|i| pool()[i].clone()),
        any::<i64>().prop_map(Value::Int),
        any::<f64>().prop_map(Value::Double),
    ]
}

#[test]
fn compare_matches_eval_on_every_pair_of_the_pool() {
    let pool = pool();
    let ids = ConstId::intern_all(&pool);
    let reader = ConstReader::new();
    for (a, x) in ids.iter().zip(&pool) {
        for (b, y) in ids.iter().zip(&pool) {
            for op in OPS {
                assert_eq!(
                    compare(op, *a, *b, &reader),
                    op.eval(x, y),
                    "{x:?} {op} {y:?}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// `compare` over interned cells is `CmpOp::eval` over their values,
    /// for all six operators.
    #[test]
    fn compare_matches_eval(a in arb_compared(), b in arb_compared()) {
        let (x, y) = (ConstId::intern(&a), ConstId::intern(&b));
        let reader = ConstReader::new();
        for op in OPS {
            prop_assert_eq!(compare(op, x, y, &reader), op.eval(&a, &b), "{:?} {} {:?}", a, op, b);
        }
    }
}

/// `n` rows of four columns — a group key of 8 values, a key of 3 values, a
/// number whose sums depend on the fold order (integers, doubles, a
/// non-number) and a cell of mixed kinds for `MIN`/`MAX` — of which about
/// `dup_percent` % repeat an earlier row.
fn rows_with_duplicates(n: usize, dup_percent: u64, seed: u64) -> Vec<Vec<Value>> {
    let mut x = seed;
    let mut next = move |m: u64| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) % m
    };
    let numbers = [
        Value::Double(0.1),
        Value::Double(0.2),
        Value::Double(1e16),
        Value::Double(-0.0),
        Value::Int(3),
        Value::Int(1 << 54),
        Value::str("not-a-number"),
    ];
    let mixed = [
        Value::Int(2),
        Value::Double(2.0),
        Value::Double(-1.5),
        Value::str("m"),
        Value::Null,
        Value::Bool(true),
    ];
    let mut rows: Vec<Vec<Value>> = Vec::with_capacity(n);
    for i in 0..n {
        if !rows.is_empty() && next(100) < dup_percent {
            let again = rows[next(rows.len() as u64) as usize].clone();
            rows.push(again);
            continue;
        }
        // The row number keeps a fresh row fresh.
        let number = match next(4) {
            0 => Value::Int(i as i64),
            _ => numbers[next(numbers.len() as u64) as usize].clone(),
        };
        rows.push(vec![
            Value::Int(next(8) as i64),
            Value::str(["x", "y", "z"][next(3) as usize]),
            number,
            mixed[next(mixed.len() as u64) as usize].clone(),
        ]);
    }
    rows
}

/// The tail stated naively: the distinct rows by scanning those kept so
/// far, groups found by scanning the groups so far, each aggregate folded
/// over its group's rows in first-seen order.
fn naive_answer(rows: &[Vec<Value>], g: &GroupBy) -> Vec<Vec<Value>> {
    let mut distinct: Vec<&Vec<Value>> = Vec::new();
    for row in rows {
        if !distinct.contains(&row) {
            distinct.push(row);
        }
    }
    let mut groups: Vec<(&[Value], Vec<&Vec<Value>>)> = Vec::new();
    for row in distinct {
        let key = &row[..g.keys];
        match groups.iter_mut().find(|(k, _)| *k == key) {
            Some((_, members)) => members.push(row),
            None => groups.push((key, vec![row])),
        }
    }
    if g.keys == 0 && groups.is_empty() {
        groups.push((&[], Vec::new()));
    }
    let fold = |members: &[&Vec<Value>], fun: AggFun, col: usize| {
        let args = members.iter().map(|r| &r[col]);
        let sum = || {
            args.clone()
                .fold(0.0, |s, v| s + v.as_double().unwrap_or(0.0))
        };
        let extreme = |better: fn(&Value, &Value) -> bool| {
            let mut best: Option<&Value> = None;
            for v in args.clone() {
                if best.is_none_or(|b| better(v, b)) {
                    best = Some(v);
                }
            }
            best.cloned().unwrap_or(Value::Null)
        };
        match fun {
            AggFun::Count => Value::Int(members.len() as i64),
            AggFun::Sum => Value::Double(sum()),
            AggFun::Avg if members.is_empty() => Value::Null,
            AggFun::Avg => Value::Double(sum() / members.len() as f64),
            AggFun::Min => extreme(|v, b| v < b),
            AggFun::Max => extreme(|v, b| v > b),
        }
    };
    let out = groups.iter().map(|(key, members)| {
        let aggs = g.aggs.iter().map(|(fun, col)| fold(members, *fun, *col));
        key.iter().cloned().chain(aggs).collect::<Vec<Value>>()
    });
    out.filter(|o| g.having.iter().all(|(c, op, v)| op.eval(&o[*c], v)))
        .collect()
}

/// Equal rows, and every double bit for bit.
fn assert_bit_identical(got: &[Vec<Value>], want: &[Vec<Value>], case: &str) {
    assert_eq!(got.len(), want.len(), "{case}: row count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g, w, "{case}");
        for (a, b) in g.iter().zip(w) {
            if let (Value::Double(a), Value::Double(b)) = (a, b) {
                assert_eq!(a.to_bits(), b.to_bits(), "{case}: {a} against {b}");
            }
        }
    }
}

fn id_rows(rows: &[Vec<Value>], width: usize) -> IdRows {
    let cells = ConstId::intern_all(rows.iter().flatten());
    IdRows {
        width,
        len: rows.len(),
        cells,
    }
}

#[test]
fn answer_matches_a_naive_distinct_and_group_fold() {
    let every = vec![
        (AggFun::Count, 2),
        (AggFun::Sum, 2),
        (AggFun::Avg, 2),
        (AggFun::Min, 3),
        (AggFun::Max, 3),
        (AggFun::Min, 2),
        (AggFun::Max, 2),
    ];
    let tail = |keys: usize, having: Vec<(usize, CmpOp, Value)>| GroupBy {
        keys,
        aggs: every.clone(),
        having,
    };
    let tails = [
        tail(0, vec![]),
        tail(1, vec![]),
        tail(2, vec![]),
        tail(1, vec![(1, CmpOp::Ge, Value::Int(3))]),
        tail(2, vec![(3, CmpOp::Gt, Value::Double(1e15))]),
        tail(
            1,
            vec![(0, CmpOp::Ne, Value::Int(4)), (6, CmpOp::Le, Value::Int(2))],
        ),
    ];
    for dup_percent in [0, 50, 99] {
        for seed in 0..4 {
            let rows = rows_with_duplicates(300, dup_percent, seed);
            let ids = id_rows(&rows, 4);
            for (t, g) in tails.iter().enumerate() {
                let case = format!("{dup_percent} % duplicates, seed {seed}, tail {t}");
                let got = answer(ids.clone(), true, Some(g)).to_values();
                assert_bit_identical(&got, &naive_answer(&rows, g), &case);
            }
            let mut distinct: Vec<Vec<Value>> = Vec::new();
            for row in &rows {
                if !distinct.contains(row) {
                    distinct.push(row.clone());
                }
            }
            let got = answer(ids.clone(), true, None).to_values();
            assert_bit_identical(&got, &distinct, "distinct");
            assert_eq!(answer(ids.clone(), false, None), ids);
        }
    }
    // A global aggregate over no rows is one row; a grouped one is none.
    let none = IdRows::empty(4);
    let global = answer(none.clone(), true, Some(&tails[0])).to_values();
    let nulls = [Value::Int(0), Value::Double(0.0), Value::Null];
    let expected = nulls.into_iter().chain(vec![Value::Null; 4]).collect();
    assert_bit_identical(&global, &[expected], "global over no rows");
    assert_eq!(answer(none, true, Some(&tails[1])).len, 0);
}

/// Build-side keys 1 to 6 cells wide (packed, quad and wide keys), each
/// cell from a pool of `pool`, against a map from each key's cells to the
/// rows holding it.
fn join_table_matches_a_map(width: usize, pool: i64, rows: usize, seed: u64) {
    let mut x = seed;
    let mut next = move || {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as i64 % pool
    };
    let cells: Vec<Vec<ConstId>> = (0..rows)
        .map(|_| (0..width).map(|_| ConstId::of(next())).collect())
        .collect();
    let key = |row: &[ConstId]| pack_key(row.iter().copied(), width);
    let table = JoinTable::build(cells.iter().map(|row| key(row)));
    let mut model: BTreeMap<&[ConstId], Vec<u32>> = BTreeMap::new();
    for (at, row) in cells.iter().enumerate() {
        model.entry(row).or_default().push(at as u32);
    }
    for (row, listed) in &model {
        assert_eq!(table.probe(&key(row)), listed.as_slice(), "width {width}");
    }
    let absent: Vec<ConstId> = (0..width).map(|_| ConstId::of(pool + 1)).collect();
    assert!(table.probe(&key(&absent)).is_empty());
}

#[test]
fn join_tables_match_a_map_of_vectors() {
    for width in 1..=6 {
        for (pool, rows) in [(2, 50), (5, 400), (1_000, 400)] {
            for seed in 0..3 {
                join_table_matches_a_map(width, pool, rows, seed);
            }
        }
    }
    assert!(JoinTable::build(std::iter::empty())
        .probe(&pack_key(std::iter::empty(), 0))
        .is_empty());
}

/// 20 000 rows holding `distinct` distinct ones, `(group, row, amount)`,
/// cycling: the group is the row's number modulo 8.
fn cycling_rows(distinct: i64) -> IdRows {
    let mut rows = IdRows::empty(3);
    for i in 0..20_000i64 {
        let k = i % distinct;
        rows.push([
            ConstId::of(k % 8),
            ConstId::of(k),
            ConstId::of(k as f64 / 4.0),
        ]);
    }
    rows
}

/// The tail as `answer` ran it before it was one pass: every row offered to
/// a distinct that grows as it goes, then the distinct rows folded into
/// groups that grow too.
fn two_passes(rows: IdRows, group: Option<&GroupBy>) -> IdRows {
    let mut seen = Distinct::new(rows.width);
    rows.rows().for_each(|row| {
        seen.keep(row.iter().copied());
    });
    let Some(g) = group else {
        return seen.into_rows();
    };
    let mut groups = Groups::new(g.keys, g.aggs.iter().map(|(f, _)| *f).collect());
    let reader = ConstReader::new();
    for row in seen.rows().rows() {
        let args = g.aggs.iter().map(|(_, c)| row[*c]);
        groups.add(row[..g.keys].iter().copied(), args, &reader);
    }
    drop(reader);
    groups.finish(&g.having)
}

/// The best of 51 interleaved runs of `answer` and of [`two_passes`] over
/// their own copies of `rows`, in nanoseconds; both answers must agree.
fn best_times(rows: &IdRows, group: Option<&GroupBy>) -> (u128, u128) {
    let (mut one_best, mut two_best) = (u128::MAX, u128::MAX);
    for _ in 0..51 {
        let input = rows.clone();
        let start = Instant::now();
        let one = answer(input, true, group);
        one_best = one_best.min(start.elapsed().as_nanos());
        let input = rows.clone();
        let start = Instant::now();
        let two = two_passes(input, group);
        two_best = two_best.min(start.elapsed().as_nanos());
        assert_eq!(one, two);
    }
    (one_best, two_best)
}

/// `answer` over 20 000 rows — a plain `DISTINCT` and a grouped tail — is
/// no slower than [`two_passes`] at 8, 9, 64, 1 000 and 20 000 distinct
/// rows: on both sides of the sixteen slots a table starts with, and up to
/// every row distinct. Each side takes its own copy of the rows and drops
/// it, and a case passes when, in one of up to three sessions of 51
/// interleaved runs, `answer`'s best is within a tenth of the other's (a
/// slower kernel is slower in every session; a busy host, in some).
/// Timed only in an optimized build, where the kernel's loops, not the
/// compiler's unoptimized output, are measured.
#[test]
#[cfg_attr(debug_assertions, ignore = "times an optimized build")]
fn answers_are_no_slower_than_two_growing_passes_at_any_cardinality() {
    let tail = GroupBy {
        keys: 1,
        aggs: vec![(AggFun::Count, 1), (AggFun::Sum, 2), (AggFun::Max, 2)],
        having: vec![],
    };
    let mut slower = Vec::new();
    for distinct in [8, 9, 64, 1_000, 20_000] {
        let rows = cycling_rows(distinct);
        for group in [None, Some(&tail)] {
            let case = format!("{distinct} distinct, grouped {}", group.is_some());
            let within = |(one, two): &(u128, u128)| *one <= two + two / 10;
            let mut sessions = Vec::new();
            while sessions.len() < 3 && !sessions.last().is_some_and(within) {
                sessions.push(best_times(&rows, group));
            }
            println!("{case}: answer / two passes, ns: {sessions:?}");
            if !sessions.iter().any(within) {
                slower.push(case);
            }
        }
    }
    assert!(slower.is_empty(), "slower: {slower:?}");
}
