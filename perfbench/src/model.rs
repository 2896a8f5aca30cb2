//! The suite's independent answer check: a plain-Rust model of the
//! generated marketplace rows that computes the expected answer of every
//! operation with filters, joins and group-bys of its own — never through
//! the engine under test — and follows the `readwrite` op stream as a
//! shadow copy.

use crate::ops::{Op, Order, Pref};
use estocada::{DatasetContent, TableData};
use estocada_pivot::Value;
use estocada_workloads::marketplace::CATEGORIES;
use estocada_workloads::Marketplace;
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// One result row.
pub type Row = Vec<Value>;

/// Relative tolerance when comparing doubles: the engine and the model may
/// add the same amounts in a different order.
const DOUBLE_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, Copy)]
struct LogEntry {
    pid: i64,
    cat: u8,
    dwell_ms: i64,
}

/// The conceptual dataset as plain rows.
#[derive(Debug, Clone)]
pub struct Model {
    /// `Users.tier` by uid.
    tiers: Vec<String>,
    /// `Prefs(theme, language)` by uid.
    prefs: Vec<(String, String)>,
    /// Cart items `(pid, qty)` by uid.
    carts: Vec<Vec<(i64, i64)>>,
    /// `Orders` by oid.
    orders: BTreeMap<i64, Order>,
    /// Live oids by uid.
    orders_of: Vec<BTreeSet<i64>>,
    /// `WebLog` entries by uid.
    logs_of: Vec<Vec<LogEntry>>,
}

fn table<'a>(tables: &'a [TableData], name: &str) -> &'a TableData {
    tables
        .iter()
        .find(|t| &*t.encoding.relation.as_str() == name)
        .unwrap_or_else(|| panic!("generated dataset has no table {name}"))
}

fn int(v: &Value) -> i64 {
    v.as_int()
        .unwrap_or_else(|| panic!("expected an integer, got {v:?}"))
}

fn text(v: &Value) -> &str {
    v.as_str()
        .unwrap_or_else(|| panic!("expected a string, got {v:?}"))
}

/// Index of a category name in the generator's category list.
pub fn category_index(name: &str) -> u8 {
    CATEGORIES
        .iter()
        .position(|c| *c == name)
        .unwrap_or_else(|| panic!("unknown category {name}")) as u8
}

/// An amount in cents; the generator draws whole cents, so this is exact.
pub fn cents(amount: &Value) -> i64 {
    let a = amount
        .as_double()
        .unwrap_or_else(|| panic!("expected an amount, got {amount:?}"));
    (a * 100.0).round() as i64
}

fn amount(cents: i64) -> f64 {
    cents as f64 / 100.0
}

impl Model {
    /// Read the generated rows into the model.
    pub fn new(m: &Marketplace) -> Model {
        let DatasetContent::Relational(tables) = &m.sales.content else {
            panic!("sales is not relational");
        };
        let DatasetContent::Documents(docs) = &m.carts.content else {
            panic!("Carts is not a document dataset");
        };
        let users = table(tables, "Users").rows.len();
        let tiers = table(tables, "Users")
            .rows
            .iter()
            .map(|r| text(&r[2]).to_string())
            .collect();
        let prefs = table(tables, "Prefs")
            .rows
            .iter()
            .map(|r| (text(&r[1]).to_string(), text(&r[2]).to_string()))
            .collect();
        let mut carts = vec![Vec::new(); users];
        for d in docs {
            let uid = int(d.body.get("user").expect("cart without user")) as usize;
            let items = d.body.get("items").and_then(Value::as_array).unwrap_or(&[]);
            carts[uid] = items
                .iter()
                .map(|i| {
                    (
                        int(i.get("pid").expect("item without pid")),
                        int(i.get("qty").expect("item without qty")),
                    )
                })
                .collect();
        }
        let mut model = Model {
            tiers,
            prefs,
            carts,
            orders: BTreeMap::new(),
            orders_of: vec![BTreeSet::new(); users],
            logs_of: vec![Vec::new(); users],
        };
        for r in &table(tables, "Orders").rows {
            model.insert_order(Order {
                oid: int(&r[0]),
                uid: int(&r[1]),
                pid: int(&r[2]),
                cat: category_index(text(&r[3])),
                cents: cents(&r[4]),
            });
        }
        for r in &table(tables, "WebLog").rows {
            model.logs_of[int(&r[1]) as usize].push(LogEntry {
                pid: int(&r[2]),
                cat: category_index(text(&r[3])),
                dwell_ms: int(&r[4]),
            });
        }
        model
    }

    /// Number of users.
    pub fn users(&self) -> usize {
        self.tiers.len()
    }

    /// Every live order, ascending by oid.
    pub fn orders(&self) -> impl Iterator<Item = &Order> {
        self.orders.values()
    }

    /// Rows of the conceptual dataset (all tables plus cart documents):
    /// the denominator of the space-cost metric.
    pub fn user_rows(m: &Marketplace) -> usize {
        let rows = |content: &DatasetContent| match content {
            DatasetContent::Relational(tables) => tables.iter().map(|t| t.rows.len()).sum(),
            DatasetContent::Documents(docs) => docs.len(),
        };
        rows(&m.sales.content) + rows(&m.carts.content)
    }

    fn insert_order(&mut self, o: Order) {
        self.orders_of[o.uid as usize].insert(o.oid);
        assert!(self.orders.insert(o.oid, o).is_none(), "duplicate oid");
    }

    /// Follow one write of the op stream. Reads leave the model unchanged.
    pub fn apply(&mut self, op: &Op) {
        match op {
            Op::Insert(o) => self.insert_order(*o),
            Op::Delete(o) => {
                assert_eq!(
                    self.orders.remove(&o.oid),
                    Some(*o),
                    "delete of a dead order"
                );
                self.orders_of[o.uid as usize].remove(&o.oid);
            }
            Op::Upsert(p) => {
                self.prefs[p.uid as usize] = (p.theme().to_string(), p.language().to_string());
            }
            _ => {}
        }
    }

    fn orders_of(&self, uid: i64) -> impl Iterator<Item = &Order> {
        self.orders_of[uid as usize]
            .iter()
            .map(|oid| &self.orders[oid])
    }

    /// The expected answer of a read, sorted. Writes have no rows.
    pub fn expected(&self, op: &Op) -> Vec<Row> {
        let mut rows: Vec<Row> = match *op {
            Op::Pref(uid) => {
                let (theme, language) = &self.prefs[uid as usize];
                vec![vec![Value::str(theme), Value::str(language)]]
            }
            Op::Cart(uid) => {
                let distinct: BTreeSet<(i64, i64)> =
                    self.carts[uid as usize].iter().copied().collect();
                distinct
                    .into_iter()
                    .map(|(pid, qty)| vec![Value::Int(pid), Value::Int(qty)])
                    .collect()
            }
            Op::Orders(uid) => self
                .orders_of(uid)
                .map(|o| vec![Value::Int(o.oid), Value::Double(amount(o.cents))])
                .collect(),
            Op::CategoryVolume => group_orders(self.orders(), |o| o.cat)
                .into_iter()
                .map(|(cat, g)| {
                    vec![
                        Value::str(CATEGORIES[cat as usize]),
                        Value::Int(g.count),
                        Value::Double(g.sum),
                        Value::Double(amount(g.min_cents)),
                        Value::Double(amount(g.max_cents)),
                    ]
                })
                .collect(),
            Op::BigSpenders(min_total) => group_orders(self.orders(), |o| o.uid)
                .into_iter()
                .filter(|(_, g)| g.sum >= min_total as f64)
                .map(|(uid, g)| vec![Value::Int(uid), Value::Int(g.count), Value::Double(g.sum)])
                .collect(),
            Op::TierCategory => group_orders(self.orders(), |o| {
                (self.tiers[o.uid as usize].as_str(), o.cat)
            })
            .into_iter()
            .map(|((tier, cat), g)| {
                vec![
                    Value::str(tier),
                    Value::str(CATEGORIES[cat as usize]),
                    Value::Int(g.count),
                ]
            })
            .collect(),
            Op::CategoryEngagement(cat) => {
                let mut by_pid: BTreeMap<i64, (i64, f64)> = BTreeMap::new();
                for l in self.logs_of.iter().flatten().filter(|l| l.cat == cat) {
                    let e = by_pid.entry(l.pid).or_insert((0, 0.0));
                    e.0 += 1;
                    e.1 += l.dwell_ms as f64;
                }
                by_pid
                    .into_iter()
                    .map(|(pid, (views, dwell))| {
                        vec![
                            Value::Int(pid),
                            Value::Int(views),
                            Value::Double(dwell / views as f64),
                        ]
                    })
                    .collect()
            }
            Op::UserSpend(uid) => group_orders(self.orders_of(uid), |o| o.cat)
                .into_iter()
                .map(|(cat, g)| {
                    vec![
                        Value::str(CATEGORIES[cat as usize]),
                        Value::Int(g.count),
                        Value::Double(g.sum),
                    ]
                })
                .collect(),
            Op::Personalized(uid, cat) => {
                // Set semantics: the join's distinct tuples.
                let mut distinct: HashSet<(i64, i64, i64, i64)> = HashSet::new();
                for o in self.orders_of(uid).filter(|o| o.cat == cat) {
                    for l in self.logs_of[uid as usize].iter().filter(|l| l.cat == cat) {
                        distinct.insert((o.pid, l.pid, o.cents, l.dwell_ms));
                    }
                }
                distinct
                    .into_iter()
                    .map(|(opid, lpid, c, dwell)| {
                        vec![
                            Value::Int(opid),
                            Value::Int(lpid),
                            Value::Double(amount(c)),
                            Value::Int(dwell),
                        ]
                    })
                    .collect()
            }
            Op::Insert(_) | Op::Delete(_) | Op::Upsert(_) => Vec::new(),
        };
        rows.sort();
        rows
    }

    /// Distinct tuples of the op's conjunctive core: what the aggregation
    /// ranges over for an aggregate, the answer itself otherwise. Every
    /// aggregate template counts a key column, so core tuples are one per
    /// underlying row.
    pub fn core_rows(&self, op: &Op) -> usize {
        match *op {
            Op::CategoryVolume | Op::BigSpenders(_) | Op::TierCategory => self.orders.len(),
            Op::CategoryEngagement(cat) => self
                .logs_of
                .iter()
                .flatten()
                .filter(|l| l.cat == cat)
                .count(),
            Op::UserSpend(uid) => self.orders_of[uid as usize].len(),
            _ => self.expected(op).len(),
        }
    }

    /// The stored preference row of `uid` after an upsert, as the engine
    /// stores it.
    pub fn pref_row(p: &Pref) -> Row {
        vec![
            Value::Int(p.uid),
            Value::str(p.theme()),
            Value::str(p.language()),
            Value::Bool(p.newsletter),
        ]
    }

    /// An order as the engine stores it.
    pub fn order_row(o: &Order) -> Row {
        vec![
            Value::Int(o.oid),
            Value::Int(o.uid),
            Value::Int(o.pid),
            Value::str(CATEGORIES[o.cat as usize]),
            Value::Double(amount(o.cents)),
        ]
    }
}

#[derive(Debug, Clone, Copy)]
struct OrderGroup {
    count: i64,
    sum: f64,
    min_cents: i64,
    max_cents: i64,
}

/// GROUP BY over orders with COUNT / SUM / MIN / MAX of the amount.
fn group_orders<'a, K: Ord>(
    orders: impl Iterator<Item = &'a Order>,
    key: impl Fn(&'a Order) -> K,
) -> BTreeMap<K, OrderGroup> {
    let mut groups: BTreeMap<K, OrderGroup> = BTreeMap::new();
    for o in orders {
        let g = groups.entry(key(o)).or_insert(OrderGroup {
            count: 0,
            sum: 0.0,
            min_cents: i64::MAX,
            max_cents: i64::MIN,
        });
        g.count += 1;
        g.sum += amount(o.cents);
        g.min_cents = g.min_cents.min(o.cents);
        g.max_cents = g.max_cents.max(o.cents);
    }
    groups
}

fn value_matches(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => {
            (x - y).abs() <= DOUBLE_TOLERANCE * x.abs().max(y.abs())
        }
        _ => a == b,
    }
}

/// Whether `got` is the multiset `expected` (which is sorted), comparing
/// doubles up to a relative tolerance.
pub fn rows_match(expected: &[Row], got: &[Row]) -> bool {
    if expected.len() != got.len() {
        return false;
    }
    let mut got: Vec<&Row> = got.iter().collect();
    got.sort();
    expected.iter().zip(got).all(|(e, g)| {
        e.len() == g.len() && e.iter().zip(g.iter()).all(|(a, b)| value_matches(a, b))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use estocada_workloads::{generate_marketplace, MarketplaceConfig};

    fn small() -> Marketplace {
        generate_marketplace(MarketplaceConfig {
            users: 40,
            products: 20,
            orders: 150,
            log_entries: 300,
            skew: 0.9,
            seed: 3,
        })
    }

    #[test]
    fn model_reads_every_generated_row() {
        let m = small();
        let model = Model::new(&m);
        assert_eq!(model.users(), 40);
        assert_eq!(model.orders().count(), 150);
        assert_eq!(model.logs_of.iter().map(Vec::len).sum::<usize>(), 300);
        assert_eq!(Model::user_rows(&m), 40 + 40 + 20 + 150 + 150 + 300 + 40);
        let volume = model.expected(&Op::CategoryVolume);
        let counted: i64 = volume.iter().map(|r| int(&r[1])).sum();
        assert_eq!(counted, 150);
        assert_eq!(model.core_rows(&Op::CategoryVolume), 150);
    }

    #[test]
    fn writes_change_the_expected_answers() {
        let mut model = Model::new(&small());
        let before = model.expected(&Op::Orders(1)).len();
        let o = Order {
            oid: 10_000,
            uid: 1,
            pid: 2,
            cat: 0,
            cents: 1234,
        };
        model.apply(&Op::Insert(o));
        let rows = model.expected(&Op::Orders(1));
        assert_eq!(rows.len(), before + 1);
        assert!(rows.contains(&vec![Value::Int(10_000), Value::Double(12.34)]));
        model.apply(&Op::Delete(o));
        assert_eq!(model.expected(&Op::Orders(1)).len(), before);
        let p = Pref {
            uid: 1,
            dark: true,
            lang: 1,
            newsletter: false,
        };
        model.apply(&Op::Upsert(p));
        assert_eq!(
            model.expected(&Op::Pref(1)),
            vec![vec![Value::str("dark"), Value::str("fr")]]
        );
    }

    #[test]
    fn rows_match_is_a_multiset_comparison_with_double_tolerance() {
        let e = vec![
            vec![Value::Int(1), Value::Double(0.1 + 0.2)],
            vec![Value::Int(2), Value::Double(5.0)],
        ];
        let got = vec![
            vec![Value::Int(2), Value::Double(5.0)],
            vec![Value::Int(1), Value::Double(0.3)],
        ];
        assert!(rows_match(&e, &got));
        assert!(!rows_match(&e, &got[..1]));
        let off = vec![
            vec![Value::Int(2), Value::Double(5.0)],
            vec![Value::Int(1), Value::Double(0.31)],
        ];
        assert!(!rows_match(&e, &off));
    }
}
