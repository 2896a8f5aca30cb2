//! Fuzz-style tests of the SQL frontend: generated well-formed queries
//! parse to the expected pivot shape; generated aggregate queries answer
//! like a brute-force fold over `oracle_eval` on the conceptual dataset or
//! fail with a typed error; arbitrary garbage never panics.

mod common;

use common::{assert_same_rows, brute_force};
use estocada::frontends::{parse_sql, SqlCatalog, SqlTable};
use estocada::{Dataset, Error, Estocada, FragmentSpec, TableData};
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::Value;
use proptest::prelude::*;
use std::sync::OnceLock;

fn catalog() -> SqlCatalog {
    let mut c = SqlCatalog::default();
    c.insert(
        "T0".into(),
        SqlTable {
            columns: vec!["a".into(), "b".into(), "c".into()],
            key_column: Some("a".into()),
            has_text: false,
        },
    );
    c.insert(
        "T1".into(),
        SqlTable {
            columns: vec!["x".into(), "y".into()],
            key_column: Some("x".into()),
            has_text: true,
        },
    );
    c
}

/// A drawn `(alias, column)` pair; both wrap around what the query has.
type ColPick = (usize, usize);

#[derive(Debug, Clone)]
struct GenQuery {
    tables: Vec<usize>,           // indices into TABLES
    selects: Vec<(usize, usize)>, // (alias idx, column idx)
    eqs: Vec<(usize, usize, i64)>,
    ranges: Vec<(usize, usize, i64)>,
}

const TABLES: [(&str, &[&str]); 2] = [("T0", &["a", "b", "c"]), ("T1", &["x", "y"])];

fn arb_query() -> impl Strategy<Value = GenQuery> {
    (
        proptest::collection::vec(0..2usize, 1..3),
        proptest::collection::vec((0..4usize, 0..8usize), 1..3),
        proptest::collection::vec((0..4usize, 0..8usize, -5i64..5), 0..3),
        proptest::collection::vec((0..4usize, 0..8usize, -5i64..5), 0..2),
    )
        .prop_map(|(tables, selects, eqs, ranges)| GenQuery {
            tables,
            selects,
            eqs,
            ranges,
        })
}

impl GenQuery {
    /// `alias.column` of a drawn `(alias, column)` pair.
    fn col(&self, (ai, ci): ColPick) -> String {
        let alias = ai % self.tables.len();
        let cols = TABLES[self.tables[alias]].1;
        format!("t{alias}.{}", cols[ci % cols.len()])
    }

    /// `FROM … [WHERE …]` with `joins` as further equality conditions.
    fn tables_and_conditions(&self, joins: &[(ColPick, ColPick)]) -> String {
        let tables = self.tables.iter().enumerate();
        let froms: Vec<String> = tables
            .map(|(i, t)| format!("{} t{i}", TABLES[*t].0))
            .collect();
        let eqs = self.eqs.iter();
        let eqs = eqs.map(|(a, c, v)| format!("{} = {v}", self.col((*a, *c))));
        let ranges = self.ranges.iter();
        let ranges = ranges.map(|(a, c, v)| format!("{} > {v}", self.col((*a, *c))));
        let joins = joins.iter();
        let joins = joins.map(|(l, r)| format!("{} = {}", self.col(*l), self.col(*r)));
        let conds: Vec<String> = eqs.chain(ranges).chain(joins).collect();
        let mut sql = format!("FROM {}", froms.join(", "));
        if !conds.is_empty() {
            sql.push_str(" WHERE ");
            sql.push_str(&conds.join(" AND "));
        }
        sql
    }
}

fn render(q: &GenQuery) -> String {
    let selects: Vec<String> = q.selects.iter().map(|s| q.col(*s)).collect();
    format!(
        "SELECT {} {}",
        selects.join(", "),
        q.tables_and_conditions(&[])
    )
}

/// `T0`/`T1` of [`catalog`] with a few integer rows (sums stay exact in
/// any fold order), stored as native relational tables.
fn engine() -> &'static Estocada {
    static ENGINE: OnceLock<Estocada> = OnceLock::new();
    ENGINE.get_or_init(|| {
        let table = |name: &str, cols: &[&str], rows: Vec<Vec<i64>>| TableData {
            encoding: TableEncoding::new(name, cols, Some(&cols[..1])),
            rows: rows
                .into_iter()
                .map(|r| r.into_iter().map(Value::Int).collect())
                .collect(),
            text_columns: vec![],
        };
        let t0 = (0..12).map(|i| vec![i, i % 3, i % 4 - 1]).collect();
        let t1 = (0..6).map(|i| vec![i, i % 3]).collect();
        let mut est = Estocada::in_memory();
        est.register_dataset(Dataset::relational(
            "d",
            vec![
                table(TABLES[0].0, TABLES[0].1, t0),
                table(TABLES[1].0, TABLES[1].1, t1),
            ],
        ))
        .unwrap();
        est.add_fragment(FragmentSpec::NativeTables {
            dataset: "d".into(),
            only: None,
        })
        .unwrap();
        est
    })
}

/// An aggregate query over a [`GenQuery`] core. Items are rendered as
/// drawn, so some queries are ill-formed on purpose (`SUM(*)`, a bare
/// column outside GROUP BY).
#[derive(Debug, Clone)]
struct GenAggregate {
    core: GenQuery,
    joins: Vec<(ColPick, ColPick)>,
    group: Vec<ColPick>,
    /// `(function, argument; None = '*')`.
    aggs: Vec<(usize, Option<ColPick>)>,
    bare: Option<ColPick>,
    /// `(aggregate drawn from `aggs` or group column, operator, constant)`.
    having: Vec<(usize, usize, i64)>,
}

const FUNS: [&str; 5] = ["COUNT", "SUM", "AVG", "MIN", "MAX"];
const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn arb_aggregate() -> impl Strategy<Value = GenAggregate> {
    let col = || (0..4usize, 0..8usize);
    (
        arb_query(),
        proptest::collection::vec((col(), col()), 0..2),
        proptest::collection::vec(col(), 0..3),
        proptest::collection::vec((0..5usize, (0..8usize, col())), 1..4),
        (0..8usize, col()),
        proptest::collection::vec((0..6usize, 0..6usize, -2i64..14), 0..2),
    )
        .prop_map(|(mut core, joins, group, aggs, bare, having)| {
            // At most one pinned column, on a value the data holds, so
            // most selections are non-empty.
            core.eqs.truncate(1);
            core.eqs.iter_mut().for_each(|eq| eq.2 = eq.2.rem_euclid(3));
            GenAggregate {
                core,
                joins,
                group,
                // One argument in eight is `*`.
                aggs: aggs
                    .into_iter()
                    .map(|(f, (star, c))| (f, (star > 0).then_some(c)))
                    .collect(),
                // One query in eight selects a bare column it may not
                // group by.
                bare: (bare.0 == 0).then_some(bare.1),
                having,
            }
        })
}

fn render_aggregate(q: &GenAggregate) -> String {
    let col = |c: ColPick| q.core.col(c);
    let agg = |(f, arg): &(usize, Option<ColPick>)| {
        format!("{}({})", FUNS[*f], arg.map_or("*".into(), col))
    };
    let group: Vec<String> = q.group.iter().map(|g| col(*g)).collect();
    let mut items = group.clone();
    items.extend(q.bare.map(col));
    items.extend(q.aggs.iter().map(agg));
    let from_where = q.core.tables_and_conditions(&q.joins);
    let mut sql = format!("SELECT {} {from_where}", items.join(", "));
    if !group.is_empty() {
        sql.push_str(&format!(" GROUP BY {}", group.join(", ")));
    }
    let having: Vec<String> = q
        .having
        .iter()
        .map(|(target, op, v)| {
            let lhs = match group.get(*target) {
                Some(g) => g.clone(),
                None => agg(&q.aggs[*target % q.aggs.len()]),
            };
            format!("{lhs} {} {v}", OPS[*op])
        })
        .collect();
    if !having.is_empty() {
        sql.push_str(&format!(" HAVING {}", having.join(" AND ")));
    }
    sql
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A generated aggregate query (GROUP BY, COUNT/SUM/AVG/MIN/MAX,
    /// HAVING) answers like a brute-force fold over `oracle_eval` on the
    /// conceptual dataset, or fails with one of two typed errors — never a
    /// panic.
    #[test]
    fn aggregate_queries_answer_like_the_oracle(q in arb_aggregate()) {
        let sql = render_aggregate(&q);
        let est = engine();
        match est.query_sql(&sql) {
            Ok(got) => {
                let parsed = parse_sql(&sql, &est.sql_catalog()).expect("the engine parsed it");
                let select = parsed.aggregate.expect("an aggregate query").select;
                let names: Vec<String> = select.into_iter().map(|(name, _)| name).collect();
                prop_assert_eq!(&got.columns, &names, "{}", sql);
                assert_same_rows(&got.rows, &brute_force(est, &sql), &sql);
            }
            // Ill-formed on purpose, or the known gap: a range condition
            // on a column of an atom the rewriter minimizes away (`FROM T1
            // t0, T1 t1 WHERE t0.y > 0` selecting only `t1`) leaves the
            // rewriting without the compared variable.
            Err(Error::Parse(_) | Error::Untranslatable(_)) => {}
            Err(e) => prop_assert!(false, "unexpected error for {sql}: {e}"),
        }
    }

    /// Every generated well-formed query parses; the CQ has one atom per
    /// FROM entry, is safe, and carries one residual per range condition
    /// on a non-pinned column.
    #[test]
    fn wellformed_queries_parse(q in arb_query()) {
        let sql = render(&q);
        match parse_sql(&sql, &catalog()) {
            Ok(p) => {
                prop_assert_eq!(p.cq.body.len(), q.tables.len(), "{}", sql);
                prop_assert!(p.cq.is_safe(), "{}", sql);
                prop_assert_eq!(p.head_names.len(), q.selects.len());
                prop_assert!(p.residuals.len() <= q.ranges.len());
            }
            // Contradictory equalities / statically false ranges are the
            // only legitimate rejections of generated queries.
            Err(estocada::Error::Parse(msg)) => {
                prop_assert!(
                    msg.contains("contradictory") || msg.contains("unsatisfiable"),
                    "unexpected parse error for {}: {}",
                    sql,
                    msg
                );
            }
            Err(e) => prop_assert!(false, "unexpected error for {sql}: {e}"),
        }
    }

    /// Arbitrary garbage never panics — it errors.
    #[test]
    fn garbage_never_panics(s in "[ -~]{0,80}") {
        let _ = parse_sql(&s, &catalog());
    }

    /// Token-soup built from SQL vocabulary never panics either.
    #[test]
    fn token_soup_never_panics(
        toks in proptest::collection::vec(
            prop_oneof![
                Just("SELECT"), Just("FROM"), Just("WHERE"), Just("AND"),
                Just("t0"), Just("T0"), Just("."), Just(","), Just("a"),
                Just("="), Just("<"), Just(">"), Just("<>"), Just("'x'"),
                Just("1"), Just("1.5"), Just("("), Just(")"), Just("CONTAINS"),
            ],
            0..20,
        )
    ) {
        let s = toks.join(" ");
        let _ = parse_sql(&s, &catalog());
    }
}
