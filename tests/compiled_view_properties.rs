//! Differential suite for the compiled views: every fragment's first fill
//! runs its view's compiled join plan, and `oracle_eval` runs a nested loop
//! of its own over the same fact base. The two are independent
//! evaluators, so a fill must equal the oracle as a row set:
//!
//! - on random views over the three builtin deployments — constants,
//!   repeated variables, self-joins, cartesian products, head constants;
//! - on named views of each of those shapes and a tree-pattern document
//!   view (the shape of `cart_kv_view`), and on the shapes a fill's last
//!   join step projects straight into its output;
//! - past a million matches, where neither may stop early.

mod common;

use common::{sorted, DEPLOYMENTS};
use estocada::{
    Dataset, DatasetContent, Estocada, FragmentSpec, Latencies, TableData, ValidationMode,
};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{Atom, Cq, CqBuilder, IdRows, Symbol, Term, Value};
use estocada_workloads::marketplace::{generate, Marketplace};
use estocada_workloads::scenarios::cart_kv_view;
use proptest::prelude::*;

fn market() -> Marketplace {
    generate(common::cfg(30, 16, 90, 150, 17))
}

/// Fill `view` as a relational fragment of `est` and compare its rows with
/// the oracle's.
fn assert_fill_equals_oracle(est: &mut Estocada, view: Cq, what: &str) {
    let name = view.name.as_str().to_string();
    let oracle = est.oracle_eval(&view);
    est.add_fragment(FragmentSpec::Table {
        view: view.clone(),
        index_on: vec![],
    })
    .unwrap_or_else(|e| panic!("{what}: {view}: {e}"));
    let filled = est.stores.rel.scan(&name).expect("the fragment's table");
    assert_eq!(filled.len(), oracle.len(), "{what}: {view}: row counts");
    assert_eq!(sorted(filled), sorted(oracle), "{what}: {view}");
}

/// A relational table of `sales`: its name, column names and rows.
type Table = (String, Vec<String>, Vec<Vec<Value>>);

/// The relational tables of `sales`.
fn tables(est: &Estocada) -> Vec<Table> {
    let DatasetContent::Relational(tables) =
        &est.dataset("sales").expect("sales is registered").content
    else {
        panic!("sales is relational");
    };
    let named = |t: &TableData| {
        let e = &t.encoding;
        (
            e.relation.as_str().to_string(),
            e.columns.clone(),
            t.rows.clone(),
        )
    };
    tables.iter().map(named).collect()
}

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

/// A random safe view named `name` of one to three atoms over `tables`:
/// each argument is a constant some row holds there, a variable named by
/// its column (natural joins and self-joins), one of two shared variables
/// (repeats and odd joins) or a fresh one; the head some of the body's
/// variables and perhaps a constant. Atoms whose tables multiply past
/// 30 000 candidate combinations are drawn again.
fn random_view(dice: &mut Dice, name: &str, tables: &[Table]) -> Cq {
    let atoms = 1 + dice.roll(3);
    let picked: Vec<&Table> = loop {
        let picked: Vec<&Table> = (0..atoms)
            .map(|_| &tables[dice.roll(tables.len())])
            .collect();
        let product: usize = picked.iter().map(|t| t.2.len().max(1)).product();
        if product <= 30_000 {
            break picked;
        }
    };
    let columns: Vec<&String> = tables.iter().flat_map(|t| &t.1).collect();
    let column_var =
        |c: &String| Term::var(columns.iter().position(|k| *k == c).unwrap_or(0) as u32);
    let mut fresh = 100;
    let mut body = Vec::new();
    for (table, names, rows) in picked {
        let args = names
            .iter()
            .enumerate()
            .map(|(at, column)| match dice.roll(12) {
                0 if !rows.is_empty() => Term::Const(rows[dice.roll(rows.len())][at].clone()),
                0..=6 => column_var(column),
                7 | 8 => Term::var(50 + dice.roll(2) as u32),
                _ => {
                    fresh += 1;
                    Term::var(fresh)
                }
            });
        body.push(Atom::new(Symbol::intern(table), args.collect()));
    }
    let mut head: Vec<Term> = Vec::new();
    for t in body.iter().flat_map(|a| &a.args) {
        if t.is_var() && !head.contains(t) && dice.roll(2) == 0 {
            head.push(t.clone());
        }
    }
    if head.is_empty() || dice.roll(5) == 0 {
        head.push(Term::constant("tag"));
    }
    Cq::new(Symbol::intern(name), head, body)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random views over each builtin deployment fill exactly what the
    /// oracle evaluates.
    #[test]
    fn random_view_fills_equal_the_oracle(seed in any::<u64>()) {
        let m = market();
        for &(name, deploy) in &DEPLOYMENTS {
            let mut est = deploy(&m, Latencies::zero());
            est.set_validation(ValidationMode::Off);
            let tables = tables(&est);
            let mut dice = Dice(seed);
            for i in 0..6 {
                let view = random_view(&mut dice, &format!("Random{i}"), &tables);
                assert_fill_equals_oracle(&mut est, view, &format!("{name}, seed {seed}"));
            }
        }
    }
}

#[test]
fn named_view_shapes_fill_equal_the_oracle() {
    let m = market();
    for &(name, deploy) in &DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        est.set_validation(ValidationMode::Off);
        let laptops = CqBuilder::new("Laptops")
            .head_vars(["oid", "uid", "amount"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").c("laptop").v("amount")
            })
            .build();
        let own_category = CqBuilder::new("OwnCategory")
            .head_vars(["lid", "uid"])
            .atom("WebLog", |a| {
                a.v("lid").v("uid").v("pid").v("cat").v("dwell")
            })
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("cat").v("amount")
            })
            .build();
        let same_user = CqBuilder::new("OrderPairs")
            .head_vars(["uid", "p1", "p2"])
            .atom("Orders", |a| a.v("o1").v("uid").v("p1").v("c1").v("a1"))
            .atom("Orders", |a| a.v("o2").v("uid").v("p2").v("c2").v("a2"))
            .build();
        let product = CqBuilder::new("UserProduct")
            .head_vars(["uid", "pid"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .atom("Products", |a| a.v("pid").v("title").v("cat").v("price"))
            .build();
        let tagged = CqBuilder::new("Tagged")
            .head_const("user")
            .head_vars(["uid"])
            .head_const(1)
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let mut carts = cart_kv_view();
        carts.name = Symbol::intern("CartRows");
        for view in [laptops, own_category, same_user, product, tagged, carts] {
            assert_fill_equals_oracle(&mut est, view, name);
        }
    }
}

/// The shapes a fill's last step projects straight into its output: a
/// head keeping every body variable (plain rows, no de-duplication), a head
/// with constants, one atom and three.
#[test]
fn last_step_projections_fill_equal_the_oracle() {
    let m = market();
    for &(name, deploy) in &DEPLOYMENTS {
        let mut est = deploy(&m, Latencies::zero());
        est.set_validation(ValidationMode::Off);
        let every_variable = CqBuilder::new("OrderUsers")
            .head_vars(["amount", "uid", "oid", "pid", "cat", "n", "t"])
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("cat").v("amount")
            })
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .build();
        let mut constants = CqBuilder::new("TaggedOrders")
            .head_vars(["oid", "n"])
            .head_const(7)
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("cat").v("amount")
            })
            .build();
        constants.head.insert(1, Term::constant("order"));
        let one_atom = CqBuilder::new("AllProducts")
            .head_vars(["price", "pid", "title", "cat"])
            .atom("Products", |a| a.v("pid").v("title").v("cat").v("price"))
            .build();
        let three_atoms = CqBuilder::new("UserOrderProduct")
            .head_vars(["t", "oid", "title"])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("cat").v("amount")
            })
            .atom("Products", |a| a.v("pid").v("title").v("c").v("price"))
            .build();
        let three_kept = CqBuilder::new("UserOrderProductRows")
            .head_vars([
                "uid", "n", "t", "oid", "pid", "cat", "amount", "title", "c", "price",
            ])
            .atom("Users", |a| a.v("uid").v("n").v("t"))
            .atom("Orders", |a| {
                a.v("oid").v("uid").v("pid").v("cat").v("amount")
            })
            .atom("Products", |a| a.v("pid").v("title").v("c").v("price"))
            .build();
        for view in [every_variable, constants, one_atom, three_atoms, three_kept] {
            assert_fill_equals_oracle(&mut est, view, name);
        }
    }
}

/// `A(k)` with `a` rows and `B(k)` with `b` rows, registered alone.
fn grid(a: i64, b: i64) -> Estocada {
    let table = |name: &str, n: i64| TableData {
        encoding: TableEncoding::new(name, &["k"], None),
        rows: (0..n).map(|k| vec![Value::Int(k)]).collect(),
        text_columns: vec![],
    };
    let mut est = Estocada::new(Latencies::zero());
    let ds = Dataset::relational("grid", vec![table("A", a), table("B", b)]);
    est.register_dataset(ds).expect("grid");
    est
}

/// `AB(a, b) :- A(a), B(b)`.
fn product_view() -> Cq {
    let (a, b) = (Term::var(0), Term::var(1));
    let body = vec![
        Atom::new(Symbol::intern("A"), vec![a.clone()]),
        Atom::new(Symbol::intern("B"), vec![b.clone()]),
    ];
    Cq::new(Symbol::intern("AB"), vec![a, b], body)
}

#[test]
fn a_fill_past_a_million_matches_is_whole() {
    let mut est = grid(1001, 1000);
    est.add_fragment(FragmentSpec::Table {
        view: product_view(),
        index_on: vec![],
    })
    .expect("AB");
    assert_eq!(est.stores.rel.row_count("AB"), 1_001_000);
}

#[test]
fn the_oracle_past_a_million_matches_is_whole() {
    let est = grid(1001, 1000);
    assert_eq!(est.oracle_eval(&product_view()).len(), 1_001_000);
}

/// FNV-1a over `text`: a digest that depends on no hasher of the crates
/// under test.
fn fnv1a(text: &str) -> u64 {
    let step = |h: u64, b: &u8| (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
    text.as_bytes().iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// What a first fill leaves in `est`'s stores, physical order included:
/// every relational table in storage order; every unkeyed parallel dataset
/// read round-robin across its partitions (the order its rows were
/// appended in), every keyed one as each key's rows in stored order, the
/// keys sorted by their cells — either whatever the partition count; every
/// collection and text index in insertion order.
fn physical_order(est: &Estocada) -> String {
    let mut out = String::new();
    let mut tables = est.stores.rel.table_names();
    tables.sort();
    for t in tables {
        out += &format!("rel:{t} {:?}\n", est.stores.rel.scan(&t));
    }
    let mut datasets = est.stores.par.dataset_names();
    datasets.sort();
    for d in datasets {
        let ds = est.stores.par.dataset(&d).expect("listed dataset");
        let blocks: Vec<Vec<Vec<Value>>> = ds.blocks().map(IdRows::to_values).collect();
        let rows: Vec<Vec<Value>> = match ds.key_columns() {
            [] => {
                let deepest = blocks.iter().map(Vec::len).max().unwrap_or(0);
                let at = |r| {
                    blocks
                        .iter()
                        .filter_map(move |b: &Vec<_>| b.get(r).cloned())
                };
                (0..deepest).flat_map(at).collect()
            }
            key => {
                let cells = |b: &Vec<Vec<Value>>| key.iter().map(|c| b[0][*c].clone()).collect();
                let mut keyed: Vec<(Vec<Value>, Vec<Vec<Value>>)> =
                    blocks.into_iter().map(|b| (cells(&b), b)).collect();
                keyed.sort();
                keyed.into_iter().flat_map(|(_, b)| b).collect()
            }
        };
        out += &format!("par:{d} {rows:?}\n");
    }
    let mut collections = est.stores.doc.collection_names();
    collections.sort();
    for c in collections {
        out += &format!("doc:{c} {:?}\n", est.stores.doc.scan(&c));
    }
    let mut indexes = est.stores.text.index_names();
    indexes.sort();
    for i in indexes {
        out += &format!("text:{i} {:?}\n", est.stores.text.documents(&i));
    }
    out
}

/// Every fragment relation's statistics on the three builtin deployments,
/// and digests of their stores: `Stores::dump()` and the physical order.
fn fill_record() -> String {
    let m = generate(common::cfg(60, 30, 300, 500, 23));
    let mut out = String::from(
        "# Fragment statistics and store digests after the builtin deployments' fills.\n\
         # Regenerate with:\n\
         #   UPDATE_EXPECT=1 cargo test --test compiled_view_properties fills_match\n",
    );
    for (name, deploy) in DEPLOYMENTS {
        let est = deploy(&m, Latencies::zero());
        out += &format!("\n== {name}\n");
        for f in est.fragments() {
            for (r, s) in f.relations.iter().zip(&f.stats) {
                let (rows, distinct, bytes) = (s.rows, &s.distinct, s.bytes);
                out += &format!(
                    "{} {}: rows {rows} distinct {distinct:?} bytes {bytes}\n",
                    f.id, r.name
                );
            }
        }
        let dump = format!("{:?}", est.stores.dump());
        out += &format!("dump digest {:016x}\n", fnv1a(&dump));
        out += &format!(
            "physical order digest {:016x}\n",
            fnv1a(&physical_order(&est))
        );
    }
    out
}

/// A fill may change how it computes, never what it stores or what the
/// catalog records of it: the committed record of every fragment's
/// statistics and of both store digests.
#[test]
fn fills_match_the_committed_statistics_and_store_digests() {
    let got = fill_record();
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/snapshots/fragment_stats.txt");
    if std::env::var_os("UPDATE_EXPECT").is_some() {
        std::fs::write(&path, &got).expect("write the record");
    }
    let want = std::fs::read_to_string(&path).expect("tests/snapshots/fragment_stats.txt");
    assert!(
        got == want,
        "fragment statistics or store contents moved from the committed record:\n{got}"
    );
}
