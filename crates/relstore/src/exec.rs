//! Execution of conjunctive select-project-join queries.
//!
//! Strategy: per-table constant predicates first (index-assisted when an
//! index exists), then greedy hash-join ordering (smallest relation first,
//! always joining through an available equality predicate when one exists),
//! residual predicates as filters, projection last — followed, when the
//! query asks for it, by `DISTINCT` and the `GROUP BY`/aggregate/`HAVING`
//! tail over the projected rows. The join, the `DISTINCT` and the tail are
//! the shared kernel's ([`estocada_pivot::kernel`]), over interned cells.

use crate::query::{CmpOp, ColRef, Pred, SqlQuery};
use crate::table::Table;
use estocada_pivot::hash::FastMap;
use estocada_pivot::kernel::{self, compare, pack_key, JoinTable, RowFilter};
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

/// Execution counters of one query.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecCounters {
    /// Rows scanned from base tables.
    pub scanned: u64,
    /// Rows produced.
    pub produced: u64,
    /// Whether any index was used.
    pub used_index: bool,
}

/// Run `query` against the `tables` map. Returns projected rows.
pub fn run(
    query: &SqlQuery,
    tables: &FastMap<String, Table>,
    counters: &mut ExecCounters,
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
        select_project_join(query, &base, &reader, counters)
    };
    let out = kernel::answer(projected, query.distinct, query.group.as_ref());
    counters.produced += out.len as u64;
    Ok(out)
}

/// The conjunctive block of `query` over `base`, projected (an empty
/// SELECT list still answers one empty row per match).
fn select_project_join(
    query: &SqlQuery,
    base: &[&Table],
    reader: &ConstReader,
    counters: &mut ExecCounters,
) -> IdRows {
    // Phase 1: per-table candidate rows after constant predicates.
    let mut candidates: Vec<Vec<usize>> = (base.iter().enumerate())
        .map(|(ti, t)| {
            let consts = query.predicates.iter().filter_map(|p| match p {
                Pred::ColConst(c, op, v) if c.table == ti => Some((c.column, *op, v)),
                _ => None,
            });
            select_rows(t, consts.collect(), reader, counters)
        })
        .collect();

    // Phase 2: greedy join.
    // State: the joined tables in join order, the combined bindings laid
    // out flat — one row id per joined table, `joined.len()` per combo —
    // and each table's position in a combo, set when it joins.
    let n = base.len();
    let mut slot = vec![0; n];
    let mut joined: Vec<usize> = Vec::new();
    let mut result: Vec<usize> = Vec::new();
    let mut remaining: Vec<usize> = (0..n).collect();
    remaining.sort_by_key(|&i| candidates[i].len());
    // The equality keys `(ti's column, joined column)` between table `ti`
    // and the joined set.
    let keys_into = |ti: usize, joined: &[usize]| -> Vec<(ColRef, ColRef)> {
        let eqs = query.predicates.iter().filter_map(|p| match p {
            Pred::ColCol(l, CmpOp::Eq, r) => Some([(*l, *r), (*r, *l)]),
            _ => None,
        });
        let into = |(new, old): &(ColRef, ColRef)| new.table == ti && joined.contains(&old.table);
        eqs.filter_map(|pair| pair.into_iter().find(into)).collect()
    };

    while !remaining.is_empty() {
        // Prefer a table with an equality predicate into the joined set.
        let connected = |ti: &usize| !keys_into(*ti, &joined).is_empty();
        let pick_pos = remaining.iter().position(connected).unwrap_or(0);
        let ti = remaining.remove(pick_pos);

        slot[ti] = joined.len();
        if joined.is_empty() {
            result = std::mem::take(&mut candidates[ti]);
            joined.push(ti);
            continue;
        }
        let keys = keys_into(ti, &joined);
        let stride = joined.len();
        let mut next = Vec::new();
        let mut extend = |combo: &[usize], r: usize| {
            next.extend_from_slice(combo);
            next.push(r);
        };
        if keys.is_empty() {
            // Cross product.
            for combo in result.chunks_exact(stride) {
                for &r in &candidates[ti] {
                    extend(combo, r);
                }
            }
        } else {
            // Hash join: the joined combos build, `ti`'s rows probe.
            let old = |combo: &[usize]| {
                let cells = keys
                    .iter()
                    .map(|(_, c)| base[c.table].rows[combo[slot[c.table]]][c.column]);
                pack_key(cells, keys.len())
            };
            let table = JoinTable::build(result.chunks_exact(stride).map(old));
            for &r in &candidates[ti] {
                let cells = keys.iter().map(|(nc, _)| base[ti].rows[r][nc.column]);
                for &ci in table.probe(&pack_key(cells, keys.len())) {
                    let ci = ci as usize;
                    extend(&result[ci * stride..(ci + 1) * stride], r);
                }
            }
        }
        result = next;
        joined.push(ti);
    }

    // Phase 3: residual predicates (cross-table comparisons; equalities the
    // hash join connected two tables through are re-checked, which also
    // covers same-table equalities). Constant predicates ran in phase 1.
    let stride = joined.len().max(1);
    let cell = |combo: &[usize], c: &ColRef| base[c.table].rows[combo[slot[c.table]]][c.column];
    let residual: Vec<&Pred> = (query.predicates.iter())
        .filter(|p| matches!(p, Pred::ColCol(..)))
        .collect();
    if !residual.is_empty() {
        let holds = |combo: &[usize], p: &Pred| match p {
            Pred::ColCol(l, op, r) => compare(*op, cell(combo, l), cell(combo, r), reader),
            Pred::ColConst(..) => true,
        };
        let pass = |combo: &&[usize]| residual.iter().all(|p| holds(combo, p));
        result = result
            .chunks_exact(stride)
            .filter(pass)
            .flatten()
            .copied()
            .collect();
    }

    // Phase 4: projection — interned cells, laid out flat, so that DISTINCT
    // and the grouping tail run beside the data.
    let width = query.projection.len();
    let len = result.len() / stride;
    let mut cells = Vec::with_capacity(len * width);
    for combo in result.chunks_exact(stride) {
        cells.extend(query.projection.iter().map(|c| cell(combo, c)));
    }
    IdRows { width, len, cells }
}

/// Rows of `t` matching the conjunction of constant predicates
/// `(column, op, constant)`, using the best available index.
fn select_rows(
    t: &Table,
    consts: Vec<(usize, CmpOp, &Value)>,
    reader: &ConstReader,
    counters: &mut ExecCounters,
) -> Vec<usize> {
    // Try an index for one equality or range predicate.
    let probe = |(c, op, v): &(usize, CmpOp, &Value)| {
        let idx = t.indexes.get(c)?;
        match op {
            CmpOp::Eq => Some(idx.get(*v).to_vec()),
            CmpOp::Gt | CmpOp::Ge => Some(idx.range(*v..).collect()),
            CmpOp::Lt | CmpOp::Le => Some(idx.range(..=*v).collect()),
            CmpOp::Ne => None,
        }
    };
    let seed = consts.iter().find_map(probe);
    counters.used_index |= seed.is_some();
    let candidates = seed.unwrap_or_else(|| {
        counters.scanned += t.len() as u64;
        (0..t.len()).collect()
    });
    let test = RowFilter::new(consts, reader);
    candidates
        .into_iter()
        .filter(|r| test.pass(&t.rows[*r]))
        .collect()
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
        let mut c = ExecCounters::default();
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        assert_eq!(rows.len(), 2);
        assert!(!c.used_index);
        assert_eq!(c.scanned, 3);
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
        let mut c = ExecCounters::default();
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        assert_eq!(rows.len(), 2);
        assert!(c.used_index);
        assert_eq!(c.scanned, 0);
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
        let mut c = ExecCounters::default();
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
        let mut c = ExecCounters::default();
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
        let mut c = ExecCounters::default();
        let mut rows = run(&q, &tables, &mut c).unwrap().to_values();
        rows.sort();
        assert_eq!(rows, vec![vec![Value::Int(10)], vec![Value::Int(12)]]);
        assert!(c.used_index);
    }

    #[test]
    fn cross_product_when_no_join_predicate() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        q.add_table("orders");
        let q = q.select(col(0, 0)).select(col(1, 0));
        let mut c = ExecCounters::default();
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
        let mut c = ExecCounters::default();
        let rows = run(&q, &tables, &mut c).unwrap().to_values();
        // gold pair (1,3) both directions
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn unknown_table_errors() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("nope");
        let mut c = ExecCounters::default();
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
        let mut c = ExecCounters::default();
        assert_eq!(run(&q, &tables, &mut c), Err(QueryError::BadColumn));
    }

    #[test]
    fn distinct_keeps_first_occurrences_in_order() {
        let tables = setup();
        let mut q = SqlQuery::new();
        q.add_table("users");
        let mut q = q.select(col(0, 2));
        assert_eq!(
            run(&q, &tables, &mut ExecCounters::default()).unwrap().len,
            3
        );
        q.distinct = true;
        let mut c = ExecCounters::default();
        assert_eq!(
            run(&q, &tables, &mut c).unwrap().to_values(),
            vec![vec![Value::str("gold")], vec![Value::str("free")]]
        );
        assert_eq!(c.produced, 2);
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
        let rows = run(&q, &tables, &mut ExecCounters::default()).unwrap();
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
        assert_eq!(
            run(&q, &tables, &mut ExecCounters::default()),
            Err(QueryError::BadColumn)
        );
    }
}
