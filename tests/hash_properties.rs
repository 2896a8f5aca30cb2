//! The one in-process hasher (`estocada_pivot::hash`) against the `Value`
//! equality it serves, and the kernel's hash-grouped aggregate tail and
//! first-seen distinct (`estocada_pivot::kernel`) against an ordered-map
//! statement of them — over values, and over wide interned rows with the
//! default hasher and one that sends every row to one slot.

use estocada_pivot::agg::{AggFun, GroupBy};
use estocada_pivot::hash::FastHasher;
use estocada_pivot::kernel::{answer, Distinct, Groups};
use estocada_pivot::{CmpOp, ConstId, ConstReader, IdRows, Value};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{BuildHasher, BuildHasherDefault, Hasher};

fn hash(v: &Value) -> u64 {
    BuildHasherDefault::<FastHasher>::default().hash_one(v)
}

/// Leaves drawn from a small pool, so equal values (and near misses: an
/// `Int` and a `Double` of one numeric value, `0.0` and `-0.0`, NaNs with
/// other payloads) come up often.
fn arb_leaf() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        (0i64..3).prop_map(Value::Int),
        (0i64..3).prop_map(|i| Value::Double(i as f64)),
        Just(Value::Double(-0.0)),
        (0u64..3).prop_map(|p| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | p))),
        prop_oneof![Just(""), Just("a"), Just("ab")].prop_map(Value::str),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_leaf().prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..3).prop_map(Value::array),
            proptest::collection::vec((prop_oneof![Just("a"), Just("b")], inner), 0..3)
                .prop_map(Value::object),
        ]
    })
}

/// The kernel's grouping stated over ordered maps: distinct rows, groups in
/// first-seen order, each aggregate folded over its group's rows in input
/// order.
fn reference_group(g: &GroupBy, rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    let mut seen = BTreeSet::new();
    let mut index: BTreeMap<&[Value], usize> = BTreeMap::new();
    let mut groups: Vec<(&[Value], Vec<&[Value]>)> = Vec::new();
    for row in rows.iter().filter(|r| seen.insert(*r)) {
        let key = &row[..g.keys];
        let i = *index.entry(key).or_insert_with(|| {
            groups.push((key, Vec::new()));
            groups.len() - 1
        });
        groups[i].1.push(row);
    }
    if g.keys == 0 && groups.is_empty() {
        groups.push((&[], Vec::new()));
    }
    let sum = |args: &[&Value]| {
        args.iter()
            .fold(0.0, |s, v| s + v.as_double().unwrap_or(0.0))
    };
    let extreme = |args: &[&Value], better: fn(&Value, &Value) -> bool| {
        let mut best: Option<&Value> = None;
        for v in args {
            if best.is_none_or(|b| better(v, b)) {
                best = Some(v);
            }
        }
        best.cloned().unwrap_or(Value::Null)
    };
    let out = groups.into_iter().map(|(key, members)| {
        let mut out = key.to_vec();
        for (fun, col) in &g.aggs {
            let args: Vec<&Value> = members.iter().map(|r| &r[*col]).collect();
            out.push(match fun {
                AggFun::Count => Value::Int(args.len() as i64),
                AggFun::Sum => Value::Double(sum(&args)),
                AggFun::Avg if args.is_empty() => Value::Null,
                AggFun::Avg => Value::Double(sum(&args) / args.len() as f64),
                AggFun::Min => extreme(&args, |v, b| v < b),
                AggFun::Max => extreme(&args, |v, b| v > b),
            });
        }
        out
    });
    out.filter(|o| g.having.iter().all(|(c, op, v)| op.eval(&o[*c], v)))
        .collect()
}

/// Rows of three columns with duplicates: two group-key columns from a
/// small pool, one numeric argument without NaNs whose sums depend on the
/// fold order (Rust fixes no NaN payload of a sum of two NaNs, so only
/// `COUNT`/`MIN`/`MAX` read the key columns).
fn arb_rows() -> impl Strategy<Value = Vec<Vec<Value>>> {
    let arg = prop_oneof![
        (0i64..4).prop_map(Value::Int),
        prop_oneof![Just(0.1), Just(0.2), Just(1e16), Just(-0.0), Just(3.5)]
            .prop_map(Value::Double),
        Just(Value::Null),
    ];
    proptest::collection::vec((arb_leaf(), arb_leaf(), arg), 0..40)
        .prop_map(|rows| rows.into_iter().map(|(a, b, c)| vec![a, b, c]).collect())
}

fn arb_group_by() -> impl Strategy<Value = GroupBy> {
    let fun = prop_oneof![
        Just(AggFun::Count),
        Just(AggFun::Sum),
        Just(AggFun::Avg),
        Just(AggFun::Min),
        Just(AggFun::Max),
    ];
    let agg = (fun, 0usize..3).prop_map(|(fun, col)| match fun {
        AggFun::Sum | AggFun::Avg => (fun, 2),
        _ => (fun, col),
    });
    (
        0usize..3,
        proptest::collection::vec(agg, 1..4),
        any::<bool>(),
    )
        .prop_map(|(keys, aggs, having)| GroupBy {
            keys,
            having: if having {
                vec![(keys, CmpOp::Ge, Value::Int(2))]
            } else {
                vec![]
            },
            aggs,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Equal values hash equal: `a == b ⇒ hash(a) == hash(b)`.
    #[test]
    fn equal_values_hash_equal(values in proptest::collection::vec(arb_value(), 2..12)) {
        for a in &values {
            for b in &values {
                if a == b {
                    prop_assert_eq!(hash(a), hash(b), "{} == {}", a, b);
                }
            }
        }
    }

    /// Grouping and deduplication through the hasher equal the ordered-map
    /// reference: first-seen order, bit-identical sums.
    #[test]
    fn group_by_and_distinct_match_an_ordered_map_reference(
        rows in arb_rows(),
        g in arb_group_by(),
    ) {
        let cells = rows.iter().flatten().map(ConstId::intern).collect();
        let ids = IdRows { width: 3, len: rows.len(), cells };
        let grouped = answer(ids.clone(), true, Some(&g)).to_values();
        prop_assert_eq!(grouped, reference_group(&g, &rows));
        let mut seen = BTreeSet::new();
        let expected: Vec<Vec<Value>> =
            rows.iter().filter(|r| seen.insert(*r)).cloned().collect();
        prop_assert_eq!(answer(ids, true, None).to_values(), expected);
    }
}

/// A hasher giving every row one hash: every probe of a [`Distinct`] meets
/// every row held before it, so only the comparison of stored cells tells
/// rows apart.
#[derive(Clone, Copy, Default)]
struct Colliding;

struct Zero;

impl Hasher for Zero {
    fn finish(&self) -> u64 {
        0
    }

    fn write(&mut self, _: &[u8]) {}
}

impl BuildHasher for Colliding {
    type Hasher = Zero;

    fn build_hasher(&self) -> Zero {
        Zero
    }
}

/// Rows 5 to 9 cells wide whose first four cells come from a pool of two
/// and whose later cells from a pool of three, so many rows agree on every
/// cell a packed key could hold and differ only after the fourth.
fn arb_wide_rows() -> impl Strategy<Value = (usize, Vec<Vec<ConstId>>)> {
    (5usize..10).prop_flat_map(|width| {
        let cell = |pool: i64| (0..pool).prop_map(ConstId::of);
        let row = (
            proptest::collection::vec(cell(2), 4),
            proptest::collection::vec(cell(3), width - 4),
        )
            .prop_map(|(head, tail)| [head, tail].concat());
        (Just(width), proptest::collection::vec(row, 0..60))
    })
}

/// `Distinct` and `Groups` (keys `width` cells wide; `COUNT` and `MIN` of
/// the key's last cell) built with `hasher`, against `BTreeSet` and
/// `BTreeMap` statements of them.
fn check_wide<S: BuildHasher + Clone>(width: usize, rows: &[Vec<ConstId>], hasher: S) {
    let mut seen = BTreeSet::new();
    let mut distinct = Distinct::with_hasher(width, hasher.clone());
    let mut first_seen = Vec::new();
    for row in rows {
        let (at, new) = distinct.insert(row.iter().copied());
        assert_eq!(new, seen.insert(row.clone()), "{row:?}");
        if new {
            first_seen.push(row.clone());
        }
        assert_eq!(first_seen[at], *row, "position of {row:?}");
    }
    let kept: Vec<Vec<ConstId>> = distinct.rows().rows().map(<[ConstId]>::to_vec).collect();
    assert_eq!(kept, first_seen);
    assert_eq!(distinct.len(), seen.len());

    let mut index: BTreeMap<&[ConstId], usize> = BTreeMap::new();
    let mut groups: Vec<(&[ConstId], i64, i64)> = Vec::new();
    let mut grouped = Groups::with_hasher(width, vec![AggFun::Count, AggFun::Min], hasher);
    let reader = ConstReader::new();
    let number = |id: ConstId| match reader.get(id) {
        Value::Int(i) => *i,
        other => panic!("not an Int: {other}"),
    };
    for row in rows {
        let arg = row[width - 1];
        grouped.add(row.iter().copied(), [arg, arg].into_iter(), &reader);
        let next = groups.len();
        let g = *index.entry(row).or_insert(next);
        if g == next {
            groups.push((row, 0, i64::MAX));
        }
        groups[g].1 += 1;
        groups[g].2 = groups[g].2.min(number(arg));
    }
    drop(reader);
    let expected: Vec<Vec<Value>> = groups
        .into_iter()
        .map(|(key, count, min)| {
            let key = key.iter().map(|id| (*id.value()).clone());
            key.chain([Value::Int(count), Value::Int(min)]).collect()
        })
        .collect();
    assert_eq!(grouped.finish(&[]).to_values(), expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Distinct rows and groups of wide keys — held flat, found by their
    /// cells — equal the ordered-set and ordered-map statements, positions
    /// and first-seen order included, with the default hasher and with
    /// every row colliding.
    #[test]
    fn wide_distinct_and_groups_match_an_ordered_reference(case in arb_wide_rows()) {
        let (width, rows) = case;
        check_wide(width, &rows, BuildHasherDefault::<FastHasher>::default());
        check_wide(width, &rows, Colliding);
    }
}

/// Rows equal in their first four cells and different after them are
/// distinct rows and distinct groups, whatever the hasher.
#[test]
fn rows_differing_only_after_the_fourth_cell_are_distinct() {
    let row = |last: i64| [1, 1, 1, 1, last].map(ConstId::of).to_vec();
    let rows = [row(0), row(1), row(0), row(2), row(1)];
    let (mut fast, mut colliding) = (Distinct::new(5), Distinct::with_hasher(5, Colliding));
    let fast: Vec<bool> = rows.iter().map(|r| fast.keep(r.iter().copied())).collect();
    let colliding: Vec<bool> = rows
        .iter()
        .map(|r| colliding.keep(r.iter().copied()))
        .collect();
    assert_eq!(fast, [true, true, false, true, false]);
    assert_eq!(colliding, fast);
    check_wide(5, &rows, Colliding);
}

/// `Distinct::swap_remove` against `Vec::swap_remove`, its statement: after
/// every insert or removal of a seeded mix, the rows are the `Vec`'s in
/// order, and each row of the domain is found at its `Vec` position or,
/// not held, not found — with `hasher`.
fn check_swap_remove<S: BuildHasher>(hasher: S, seed: u64) {
    let mut x = seed;
    let mut next = |n: usize| {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (x >> 33) as usize % n
    };
    let (mut distinct, mut model) = (Distinct::with_hasher(2, hasher), Vec::<Vec<ConstId>>::new());
    for step in 0..400 {
        if next(3) == 0 && !model.is_empty() {
            let at = next(model.len());
            distinct.swap_remove(at);
            model.swap_remove(at);
        } else {
            let row = vec![ConstId::of(next(6) as i64), ConstId::of(next(6) as i64)];
            let held = model.iter().position(|r| *r == row);
            let expected = (held.unwrap_or(model.len()), held.is_none());
            assert_eq!(
                distinct.insert(row.iter().copied()),
                expected,
                "step {step}"
            );
            if held.is_none() {
                model.push(row);
            }
        }
        let rows: Vec<Vec<ConstId>> = distinct.rows().rows().map(<[ConstId]>::to_vec).collect();
        assert_eq!(rows, model, "step {step}");
        for (a, b) in (0..36).map(|i| (i / 6, i % 6)) {
            let row = [ConstId::of(a), ConstId::of(b)];
            let at = model.iter().position(|r| *r == row);
            assert_eq!(distinct.find(&row), at, "step {step}: {row:?}");
        }
    }
}

/// A removal leaves no tombstone and loses no row: with the default
/// hasher, and with every row colliding, where each removal shifts a whole
/// probe run back.
#[test]
fn swap_removed_distinct_rows_match_a_vec() {
    for seed in 0..8 {
        check_swap_remove(BuildHasherDefault::<FastHasher>::default(), seed);
        check_swap_remove(Colliding, seed);
    }
}

/// The pool above does produce the near misses the property is about.
#[test]
fn near_miss_values_are_unequal_or_hash_equal() {
    let nan = |p: u64| Value::Double(f64::from_bits(0x7ff8_0000_0000_0000 | p));
    assert_ne!(Value::Int(1), Value::Double(1.0));
    assert_ne!(Value::Double(0.0), Value::Double(-0.0));
    assert_ne!(nan(1), nan(2));
    assert_eq!(nan(1), nan(1));
    assert_eq!(hash(&nan(1)), hash(&nan(1)));
    let nested = || Value::array([Value::object([("a", Value::array([Value::Int(1)]))])]);
    assert_eq!(hash(&nested()), hash(&nested()));
}
