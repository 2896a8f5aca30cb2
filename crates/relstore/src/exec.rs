//! Execution of conjunctive select-project-join queries.
//!
//! Strategy: per-table constant predicates first (index-assisted when an
//! index exists), then greedy hash-join ordering (smallest relation first,
//! always joining through an available equality predicate when one exists),
//! residual predicates as filters, projection last — followed, when the
//! query asks for it, by `DISTINCT` and the `GROUP BY`/aggregate/`HAVING`
//! tail over the projected rows ([`estocada_pivot::agg`]).

use crate::query::{CmpOp, ColRef, Pred, SqlQuery};
use crate::table::Table;
use estocada_pivot::hash::FastMap;
use estocada_pivot::{agg, Value};

/// Why a request could not be answered: a malformed query, or a name the
/// store does not hold.
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
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::UnknownTable(t) => write!(f, "unknown table {t}"),
            QueryError::BadColumn => write!(f, "column reference out of range"),
            QueryError::UnknownColumn { table, column } => {
                write!(f, "unknown column {column} on {table}")
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
) -> Result<Vec<Vec<Value>>, QueryError> {
    // Resolve tables.
    let base: Vec<&Table> = query
        .tables
        .iter()
        .map(|n| {
            tables
                .get(n)
                .ok_or_else(|| QueryError::UnknownTable(n.clone()))
        })
        .collect::<Result<_, _>>()?;

    // Validate column references.
    let check = |c: &ColRef| -> Result<(), QueryError> {
        if c.table >= base.len() || c.column >= base[c.table].columns.len() {
            return Err(QueryError::BadColumn);
        }
        Ok(())
    };
    for p in &query.predicates {
        match p {
            Pred::ColConst(c, _, _) => check(c)?,
            Pred::ColCol(l, _, r) => {
                check(l)?;
                check(r)?;
            }
        }
    }
    for c in &query.projection {
        check(c)?;
    }
    if query
        .group
        .as_ref()
        .is_some_and(|g| !g.fits(query.projection.len()))
    {
        return Err(QueryError::BadColumn);
    }

    // Phase 1: per-table candidate rows after constant predicates.
    let mut candidates: Vec<Vec<usize>> = Vec::with_capacity(base.len());
    for (ti, t) in base.iter().enumerate() {
        let consts: Vec<(&ColRef, &CmpOp, &Value)> = query
            .predicates
            .iter()
            .filter_map(|p| match p {
                Pred::ColConst(c, op, v) if c.table == ti => Some((c, op, v)),
                _ => None,
            })
            .collect();
        let rows = select_rows(t, &consts, counters);
        candidates.push(rows);
    }

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

    while !remaining.is_empty() {
        // Prefer a table with an equality predicate into the joined set.
        let pick_pos = remaining
            .iter()
            .position(|&ti| {
                !joined.is_empty()
                    && query.predicates.iter().any(|p| match p {
                        Pred::ColCol(l, CmpOp::Eq, r) => {
                            (l.table == ti && joined.contains(&r.table))
                                || (r.table == ti && joined.contains(&l.table))
                        }
                        _ => false,
                    })
            })
            .unwrap_or(0);
        let ti = remaining.remove(pick_pos);

        slot[ti] = joined.len();
        if joined.is_empty() {
            result = std::mem::take(&mut candidates[ti]);
            joined.push(ti);
            continue;
        }

        // Equality keys between ti and the joined set.
        let keys: Vec<(ColRef, ColRef)> = query
            .predicates
            .iter()
            .filter_map(|p| match p {
                Pred::ColCol(l, CmpOp::Eq, r) => {
                    if l.table == ti && joined.contains(&r.table) {
                        Some((*l, *r))
                    } else if r.table == ti && joined.contains(&l.table) {
                        Some((*r, *l))
                    } else {
                        None
                    }
                }
                _ => None,
            })
            .collect();

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
            // Hash join on the first key; extra keys verified after probe.
            let (new_col, old_col) = keys[0];
            let mut hash: FastMap<&Value, Vec<usize>> = FastMap::default();
            for (ci, combo) in result.chunks_exact(stride).enumerate() {
                let v = &base[old_col.table].rows[combo[slot[old_col.table]]][old_col.column];
                hash.entry(v).or_default().push(ci);
            }
            for &r in &candidates[ti] {
                let probe = &base[ti].rows[r][new_col.column];
                if let Some(matches) = hash.get(probe) {
                    for &ci in matches {
                        let combo = &result[ci * stride..(ci + 1) * stride];
                        // Verify remaining equality keys.
                        let ok = keys.iter().skip(1).all(|(nc, oc)| {
                            base[ti].rows[r][nc.column]
                                == base[oc.table].rows[combo[slot[oc.table]]][oc.column]
                        });
                        if ok {
                            extend(combo, r);
                        }
                    }
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
    let cell = |combo: &[usize], c: &ColRef| &base[c.table].rows[combo[slot[c.table]]][c.column];
    let col_col = |p: &Pred| match p {
        Pred::ColCol(l, op, r) => Some((*l, *op, *r)),
        Pred::ColConst(..) => None,
    };
    let residual: Vec<(ColRef, CmpOp, ColRef)> =
        query.predicates.iter().filter_map(col_col).collect();
    if !residual.is_empty() {
        result = result
            .chunks_exact(stride)
            .filter(|combo| {
                residual
                    .iter()
                    .all(|(l, op, r)| op.eval(cell(combo, l), cell(combo, r)))
            })
            .flatten()
            .copied()
            .collect();
    }

    // Phase 4: projection — by reference, laid out flat, so that DISTINCT
    // and the grouping tail run beside the data and only what is returned
    // gets cloned.
    let width = query.projection.len();
    let mut cells: Vec<&Value> = Vec::with_capacity(result.len() / stride * width);
    for combo in result.chunks_exact(stride) {
        cells.extend(query.projection.iter().map(|c| cell(combo, c)));
    }
    let out = if width == 0 && !query.distinct {
        // An empty SELECT list still answers one (empty) row per match.
        vec![Vec::new(); result.len() / stride]
    } else {
        agg::answer(width, &cells, query.distinct, query.group.as_ref())
    };
    counters.produced += out.len() as u64;
    Ok(out)
}

/// Rows of `t` matching the conjunction of constant predicates, using the
/// best available index.
fn select_rows(
    t: &Table,
    consts: &[(&ColRef, &CmpOp, &Value)],
    counters: &mut ExecCounters,
) -> Vec<usize> {
    // Try an index for one equality or range predicate.
    let mut seed: Option<Vec<usize>> = None;
    for (c, op, v) in consts {
        let Some(idx) = t.indexes.get(&c.column) else {
            continue;
        };
        let v = *v;
        seed = match op {
            CmpOp::Eq => Some(idx.get(v).to_vec()),
            CmpOp::Gt | CmpOp::Ge => Some(idx.range(v..).collect()),
            CmpOp::Lt | CmpOp::Le => Some(idx.range(..=v).collect()),
            CmpOp::Ne => continue,
        };
        counters.used_index = true;
        break;
    }
    let candidate_rows: Vec<usize> = match seed {
        Some(rows) => rows,
        None => {
            counters.scanned += t.len() as u64;
            (0..t.len()).collect()
        }
    };
    candidate_rows
        .into_iter()
        .filter(|&r| {
            consts
                .iter()
                .all(|(c, op, v)| op.eval(&t.rows[r][c.column], v))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> FastMap<String, Table> {
        let mut users = Table::new(&["uid", "name", "tier"]);
        users.insert(vec![Value::Int(1), Value::str("ann"), Value::str("gold")]);
        users.insert(vec![Value::Int(2), Value::str("bob"), Value::str("free")]);
        users.insert(vec![Value::Int(3), Value::str("cara"), Value::str("gold")]);
        let mut orders = Table::new(&["oid", "uid", "total"]);
        orders.insert(vec![Value::Int(10), Value::Int(1), Value::Int(100)]);
        orders.insert(vec![Value::Int(11), Value::Int(1), Value::Int(5)]);
        orders.insert(vec![Value::Int(12), Value::Int(3), Value::Int(42)]);
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
        let rows = run(&q, &tables, &mut c).unwrap();
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
        let rows = run(&q, &tables, &mut c).unwrap();
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
        let mut rows = run(&q, &tables, &mut c).unwrap();
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
        let rows = run(&q, &tables, &mut c).unwrap();
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
        let mut rows = run(&q, &tables, &mut c).unwrap();
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
        let rows = run(&q, &tables, &mut c).unwrap();
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
        let rows = run(&q, &tables, &mut c).unwrap();
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
            run(&q, &tables, &mut ExecCounters::default())
                .unwrap()
                .len(),
            3
        );
        q.distinct = true;
        let mut c = ExecCounters::default();
        assert_eq!(
            run(&q, &tables, &mut c).unwrap(),
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
