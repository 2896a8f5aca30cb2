//! Execution of conjunctive select-project-join queries: each table's
//! constant predicates first (through an index when one seeds them; a
//! table without one is walked as it is, no list of its rows made), then
//! the shared select-project-join ([`estocada_pivot::spj`]) over the rows
//! they leave — equated columns share a slot, and the other column
//! comparisons filter its matches — followed, when the query asks for it,
//! by `DISTINCT` and the `GROUP BY`/aggregate/`HAVING` tail over the
//! projected rows ([`kernel::answer`]: one pass that keeps each distinct
//! row and folds it into its group), all over interned cells.

use crate::query::{CmpOp, ColRef, Pred, SqlQuery};
use crate::table::Table;
use estocada_pivot::hash::FastMap;
use estocada_pivot::kernel::{self, compare, RowFilter};
use estocada_pivot::spj::{self, Cell, Scan};
use estocada_pivot::{ConstReader, IdRows, Value};

/// Why a request could not be answered: a malformed query or write, or a
/// name the store does not hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryError {
    /// The request names a table the store does not hold.
    UnknownTable(String),
    /// A column reference is out of range.
    BadColumn,
    /// The request names a column the table does not have.
    UnknownColumn {
        /// The table.
        table: String,
        /// The missing column.
        column: String,
    },
    /// A written row's arity differs from the table's.
    Arity {
        /// The table's arity.
        expected: usize,
        /// The row's.
        got: usize,
    },
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownTable(t) => write!(f, "unknown table {t}"),
            QueryError::BadColumn => write!(f, "column reference out of range"),
            QueryError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} on {table}")
            }
            QueryError::Arity { expected, got } => {
                write!(f, "a row of {got} columns in a table of {expected}")
            }
        }
    }
}

impl std::error::Error for QueryError {}

/// Run `query` against the `tables` map, adding the rows it scans to
/// `scanned`. Returns projected rows.
pub fn run(
    query: &SqlQuery,
    tables: &FastMap<String, Table>,
    scanned: &mut u64,
) -> Result<IdRows, QueryError> {
    let table = |n: &String| {
        tables
            .get(n)
            .ok_or_else(|| QueryError::UnknownTable(n.clone()))
    };
    let base: Vec<&Table> = query.tables.iter().map(table).collect::<Result<_, _>>()?;
    // Every column reference, and the tail's, must exist.
    let refs = query.predicates.iter().flat_map(|p| match p {
        Pred::ColConst(c, _, _) => [c, c],
        Pred::ColCol(l, _, r) => [l, r],
    });
    let bad = |c: &ColRef| {
        base.get(c.table)
            .is_none_or(|t| c.column >= t.columns.len())
    };
    let tail_fits = query
        .group
        .as_ref()
        .is_none_or(|g| g.fits(query.projection.len()));
    if refs.chain(&query.projection).any(bad) || !tail_fits {
        return Err(QueryError::BadColumn);
    }
    // The reader is gone before the tail interns what it computes.
    let projected = {
        let reader = ConstReader::new();
        select_project_join(query, &base, &reader, scanned)
    };
    let group = query.group.as_ref();
    Ok(kernel::answer(projected, query.distinct, group))
}

/// The conjunctive block of `query` over `base`, projected (an empty
/// SELECT list still answers one empty row per match; no table, no row).
fn select_project_join(
    query: &SqlQuery,
    base: &[&Table],
    reader: &ConstReader,
    scanned: &mut u64,
) -> IdRows {
    let width = query.projection.len();
    if base.is_empty() {
        return IdRows::empty(width);
    }
    // Per table, its rows after its constant predicates (`None`: every row).
    let selected: Vec<Option<Vec<u32>>> = (base.iter().enumerate())
        .map(|(ti, t)| {
            let consts = query.predicates.iter().filter_map(|p| match p {
                Pred::ColConst(c, op, v) if c.table == ti => Some((c.column, *op, v)),
                _ => None,
            });
            select_rows(t, consts.collect(), reader, scanned)
        })
        .collect();
    // Columns numbered flat, table after table, each its own slot but
    // equated columns one: the lowest of their class.
    let mut first = vec![0];
    base.iter()
        .for_each(|t| first.push(first[first.len() - 1] + t.columns.len()));
    let flat = |c: &ColRef| first[c.table] + c.column;
    let mut slot: Vec<usize> = (0..first[base.len()]).collect();
    let root = |slot: &[usize], mut s: usize| {
        while slot[s] != s {
            s = slot[s];
        }
        s
    };
    let (mut ops, mut sides) = (Vec::new(), Vec::new());
    for p in &query.predicates {
        match p {
            Pred::ColCol(l, CmpOp::Eq, r) => {
                let (a, b) = (root(&slot, flat(l)), root(&slot, flat(r)));
                slot[a.max(b)] = a.min(b);
            }
            Pred::ColCol(l, op, r) => {
                ops.push(*op);
                sides.extend([*l, *r]);
            }
            Pred::ColConst(..) => {}
        }
    }
    let cells: Vec<Cell> = (0..slot.len())
        .map(|s| Cell::Slot(root(&slot, s)))
        .collect();
    // The head: the SELECT list, then both sides of each other comparison.
    let head: Vec<Cell> = query
        .projection
        .iter()
        .chain(&sides)
        .map(|c| cells[flat(c)])
        .collect();
    let scan = |t: usize| Scan {
        table: Some(base[t]),
        cells: &cells[first[t]..first[t + 1]],
        within: selected[t].as_deref(),
    };
    let scans: Vec<Scan<Table>> = (0..base.len()).map(scan).collect();
    let order = spj::order(&scans, None, vec![false; cells.len()]);
    let mut out = IdRows::empty(width);
    spj::join(&scans, &order, &head, |row| {
        let (cells, sides) = row.split_at(width);
        let holds = |(op, pair): (&CmpOp, &[_])| compare(*op, pair[0], pair[1], reader);
        if ops.iter().zip(sides.chunks(2)).all(holds) {
            out.push(cells.iter().copied());
        }
    });
    out
}

/// The positions of the rows of `t` matching the conjunction of constant
/// predicates `(column, op, constant)`, ascending, seeded by the first one
/// an index answers ([`Table::lookup`]); a table no index seeds is scanned.
/// `None` when there is no predicate: the join walks every row as it is.
fn select_rows(
    t: &Table,
    consts: Vec<(usize, CmpOp, &Value)>,
    reader: &ConstReader,
    scanned: &mut u64,
) -> Option<Vec<u32>> {
    let seed = consts
        .iter()
        .find_map(|(c, op, v)| t.lookup(*c, *op, v, reader));
    if seed.is_none() {
        *scanned += t.len() as u64;
        if consts.is_empty() {
            return None;
        }
    }
    let test = RowFilter::new(consts, reader);
    let pass = |r: &u32| test.pass(&t.rows[*r as usize]);
    Some(match seed {
        Some(seeded) => seeded.into_iter().filter(pass).collect(),
        None => (0..t.len() as u32).filter(pass).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> FastMap<String, Table> {
        let mut users = Table::new(&["uid", "name", "tier"]);
        let user = |uid, name, tier| vec![Value::Int(uid), Value::str(name), Value::str(tier)];
        let rows = [
            user(1, "ann", "gold"),
            user(2, "bob", "free"),
            user(3, "cara", "gold"),
        ];
        users.insert(&rows).unwrap();
        let mut orders = Table::new(&["oid", "uid", "total"]);
        let order = |oid, uid, total| vec![Value::Int(oid), Value::Int(uid), Value::Int(total)];
        let rows = [order(10, 1, 100), order(11, 1, 5), order(12, 3, 42)];
        orders.insert(&rows).unwrap();
        let mut m = FastMap::default();
        m.insert("users".to_string(), users);
        m.insert("orders".to_string(), orders);
        m
    }

    fn col(table: usize, column: usize) -> ColRef {
        ColRef { table, column }
    }

    #[test]
    fn filter_scan_without_index() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q
            .filter(Pred::ColConst(col(0, 2), CmpOp::Eq, Value::str("gold")))
            .select(col(0, 1));
        let mut scanned = 0;
        let rows = run(&q, &tables, &mut scanned).unwrap().to_values();
        assert_eq!(rows.len(), 2);
        assert_eq!(scanned, 3);
    }

    #[test]
    fn index_assisted_equality() {
        let mut tables = setup();
        tables.get_mut("users").unwrap().create_index(2);
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q
            .filter(Pred::ColConst(col(0, 2), CmpOp::Eq, Value::str("gold")))
            .select(col(0, 0));
        let mut scanned = 0;
        let rows = run(&q, &tables, &mut scanned).unwrap().to_values();
        assert_eq!(rows.len(), 2);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn hash_join_two_tables() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("orders");
        let q = q
            .filter(Pred::ColCol(col(0, 0), CmpOp::Eq, col(1, 1)))
            .select(col(0, 1))
            .select(col(1, 2));
        let mut c = 0;
        let mut rows = run(&q, &tables, &mut c).unwrap().to_values();
        rows.sort();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::str("ann"), Value::Int(5)]);
        assert_eq!(rows[2], vec![Value::str("cara"), Value::Int(42)]);
    }

    #[test]
    fn join_with_residual_range_predicate() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("orders");
        let q = q
            .filter(Pred::ColCol(col(0, 0), CmpOp::Eq, col(1, 1)))
            .filter(Pred::ColConst(col(1, 2), CmpOp::Gt, Value::Int(50)))
            .select(col(0, 1));
        let mut c = 0;
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        assert_eq!(rows, vec![vec![Value::str("ann")]]);
    }

    #[test]
    fn range_via_btree_index() {
        let mut tables = setup();
        tables.get_mut("orders").unwrap().create_index(2);
        let mut q = SqlQuery::new();
        q.add_table("orders");
        let q = q
            .filter(Pred::ColConst(col(0, 2), CmpOp::Ge, Value::Int(42)))
            .select(col(0, 0));
        let mut scanned = 0;
        let mut rows = run(&q, &tables, &mut scanned).unwrap().to_values();
        rows.sort();
        assert_eq!(rows, vec![vec![Value::Int(10)], vec![Value::Int(12)]]);
        assert_eq!(scanned, 0);
    }

    #[test]
    fn cross_product_when_no_join_predicate() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("orders");
        let q = q.select(col(0, 0)).select(col(1, 0));
        let mut c = 0;
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        assert_eq!(rows.len(), 9);
    }

    #[test]
    fn self_join() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("users");
        // u1.tier = u2.tier AND u1.uid <> u2.uid
        let q = q
            .filter(Pred::ColCol(col(0, 2), CmpOp::Eq, col(1, 2)))
            .filter(Pred::ColCol(col(0, 0), CmpOp::Ne, col(1, 0)))
            .select(col(0, 0))
            .select(col(1, 0));
        let mut c = 0;
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        // gold pair (1,3) both directions
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("nope");
        let mut c = 0;
        assert!(matches!(
            run(&q, &tables, &mut c),
            Err(QueryError::UnknownTable(_))
        ));
    }

    #[test]
    fn bad_column_errors() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let q = q.select(col(0, 99));
        let mut c = 0;
        assert_eq!(run(&q, &tables, &mut c), Err(QueryError::BadColumn));
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let mut q = q.select(col(0, 2));
        assert_eq!(run(&q, &tables, &mut 0).unwrap().len, 3);
        q.distinct = true;
        let mut scanned = 0;
        assert_eq!(
            run(&q, &tables, &mut scanned).unwrap().to_values(),
            vec![vec![Value::str("gold")], vec![Value::str("free")]]
        );
        assert_eq!(scanned, 3);
    }

    #[test]
    fn grouping_tail_runs_over_the_joined_distinct_rows() {
        use estocada_pivot::{AggFun, GroupBy};
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("orders");
        // Per tier: orders counted, totals summed, HAVING on the count.
        let mut q = q
            .filter(Pred::ColCol(col(0, 0), CmpOp::Eq, col(1, 1)))
            .select(col(0, 2))
            .select(col(1, 0))
            .select(col(1, 2));
        q.group = Some(GroupBy {
            keys: 1,
            aggs: vec![(AggFun::Count, 1), (AggFun::Sum, 2)],
            having: vec![(1, CmpOp::Ge, Value::Int(3))],
        });
        let rows = run(&q, &tables, &mut 0).unwrap();
        let rows = rows.to_values();
        assert_eq!(
            rows,
            vec![vec![
                Value::str("gold"),
                Value::Int(3),
                Value::Double(147.0)
            ]]
        );
        // A tail reading past the SELECT list is a malformed query.
        q.group.as_mut().unwrap().aggs.push((AggFun::Max, 3));
        assert_eq!(run(&q, &tables, &mut 0), Err(QueryError::BadColumn));
    }
}
