//! Vectorized (batch-at-a-time) plan execution.
//!
//! The tuple-at-a-time executor in [`crate::exec`] materializes every
//! operator's full output and pays per-row dispatch, per-row expression
//! evaluation, and per-row cloning. This module compiles the same [`Plan`]
//! trees into a pull-based pipeline of operators exchanging columnar
//! [`Batch`]es of interned ids:
//!
//! * expressions are compiled once per operator and evaluated once per
//!   *batch* (the crate-private `VExpr` form), with equality comparisons
//!   on interned ids;
//! * filters emit selection vectors instead of materializing survivors;
//! * bindjoin accumulates a whole batch of still-unseen keys before issuing
//!   one batched `fetch_batch` (MGET-style) probe;
//! * grouped aggregation hashes interned key vectors (`u32` hashing, no
//!   value tree walks).
//!
//! The two executors are kept *observationally identical*: same rows in the
//! same order, and the same [`ExecStats`] `operators` / `rows` /
//! `bind_probes` totals, for every plan. The tuple path remains the
//! differential oracle — the property suites and every bench assert row
//! identity between the two inside each measurement. One declared
//! exception: a bindjoin whose input spans several batches issues one probe
//! *per batch* of unseen keys (the totals still match; the tuple oracle
//! ships all distinct keys in a single probe).
//!
//! Blocking operators (aggregate, the build side of joins) drain their
//! child before emitting; everything else streams. Every operator emits at
//! least one (possibly empty) batch before reporting end-of-stream so column
//! names propagate through empty inputs exactly like the materialized path.

use crate::batch::Batch;
use crate::exec::{check_cols, EngineError, ExecStats};
use crate::expr::{ColOut, Expr, VExpr};
use crate::plan::{AggFun, AggSpec, BindSource, Plan};
use crate::tuple::RowBatch;
use estocada_pivot::{ConstId, ConstReader, Value};
use estocada_simkit::StoreError;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// Batch sizing for [`execute_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Target rows per batch in the vectorized pipeline.
    pub batch_size: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions { batch_size: 1024 }
    }
}

/// Execute a plan through the batch pipeline; the result is converted back
/// to a row-oriented [`RowBatch`] at the root. Observationally identical to
/// the tuple-at-a-time reference [`crate::exec::execute`] (same rows, operator
/// counts and bind probes), which the differential suites run on the same
/// plan.
pub fn execute_with(plan: &Plan, opts: &ExecOptions) -> Result<(RowBatch, ExecStats), EngineError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let out = run_vectorized(plan, opts.batch_size.max(1), &mut stats);
    stats.total_time = start.elapsed();
    out.map(|b| (b, stats))
}

fn run_vectorized(
    plan: &Plan,
    batch_size: usize,
    stats: &mut ExecStats,
) -> Result<RowBatch, EngineError> {
    let mut root = compile(plan, batch_size, stats);
    let mut batches: Vec<Batch> = Vec::new();
    while let Some(b) = root.next_batch(stats)? {
        batches.push(b);
    }
    let columns = batches
        .first()
        .map(|b| b.columns.clone())
        .unwrap_or_default();
    let reader = ConstReader::new();
    let mut rows = Vec::new();
    for b in &batches {
        rows.extend(b.to_rows(&reader));
    }
    Ok(RowBatch { columns, rows })
}

/// A compiled operator: pulls batches from its children on demand.
trait VecOp {
    /// The next batch, `None` at end-of-stream. The first call always
    /// yields `Some` (possibly with zero rows) so columns propagate.
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError>;
}

type OpBox<'a> = Box<dyn VecOp + 'a>;

fn compile<'a>(plan: &'a Plan, batch_size: usize, stats: &mut ExecStats) -> OpBox<'a> {
    // Mirrors the tuple executor's one-increment-per-node accounting.
    stats.operators += 1;
    match plan {
        Plan::Values(b) => Box::new(ValuesScan {
            input: b,
            pos: 0,
            started: false,
            batch_size,
        }),
        Plan::Delegated { runner, .. } => Box::new(DelegatedScan {
            runner,
            buf: None,
            pos: 0,
            started: false,
            batch_size,
        }),
        Plan::Filter { input, pred } => Box::new(FilterOp {
            child: compile(input, batch_size, stats),
            pred,
            compiled: None,
        }),
        Plan::Project { input, exprs } => Box::new(ProjectOp {
            child: compile(input, batch_size, stats),
            exprs,
            compiled: None,
        }),
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => Box::new(HashJoinOp {
            left: Some(compile(left, batch_size, stats)),
            right: compile(right, batch_size, stats),
            left_keys,
            right_keys,
            build: None,
            right_checked: false,
        }),
        Plan::NlJoin { left, right, pred } => Box::new(NlJoinOp {
            left: compile(left, batch_size, stats),
            right: Some(compile(right, batch_size, stats)),
            pred,
            right_mat: None,
            compiled: None,
        }),
        Plan::BindJoin {
            left,
            key_cols,
            source,
        } => Box::new(BindJoinOp {
            child: compile(left, batch_size, stats),
            key_cols,
            source,
            cache: HashMap::new(),
            fetched: Vec::new(),
            checked: false,
        }),
        Plan::Distinct { input } => Box::new(DistinctOp {
            child: compile(input, batch_size, stats),
            seen: std::collections::HashSet::new(),
        }),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Box::new(AggregateOp {
            child: compile(input, batch_size, stats),
            group_by,
            aggs,
            done: false,
        }),
    }
}

/// Drain a child into one dense batch (columns always present).
fn drain_to_dense(child: &mut OpBox<'_>, stats: &mut ExecStats) -> Result<Batch, EngineError> {
    let mut acc: Option<Batch> = None;
    while let Some(b) = child.next_batch(stats)? {
        let b = b.compact();
        match &mut acc {
            None => acc = Some(b),
            Some(a) => a.append(b),
        }
    }
    Ok(acc.unwrap_or_else(|| Batch::empty(Vec::new())))
}

fn chunk_next(
    input: &RowBatch,
    pos: &mut usize,
    started: &mut bool,
    batch_size: usize,
) -> Option<Batch> {
    if *started && *pos >= input.rows.len() {
        return None;
    }
    *started = true;
    let hi = (*pos + batch_size).min(input.rows.len());
    let out = Batch::from_rows(input.columns.clone(), &input.rows[*pos..hi]);
    *pos = hi;
    Some(out)
}

struct ValuesScan<'a> {
    input: &'a RowBatch,
    pos: usize,
    started: bool,
    batch_size: usize,
}

impl VecOp for ValuesScan<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let out = chunk_next(
            self.input,
            &mut self.pos,
            &mut self.started,
            self.batch_size,
        );
        if let Some(b) = &out {
            stats.rows += b.num_rows() as u64;
        }
        Ok(out)
    }
}

#[allow(clippy::type_complexity)]
struct DelegatedScan<'a> {
    runner: &'a Arc<dyn Fn() -> Result<RowBatch, StoreError> + Send + Sync>,
    buf: Option<RowBatch>,
    pos: usize,
    started: bool,
    batch_size: usize,
}

impl VecOp for DelegatedScan<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        if self.buf.is_none() {
            let t = Instant::now();
            let b = (self.runner)();
            stats.delegated_time += t.elapsed();
            self.buf = Some(b?);
        }
        let input = self.buf.as_ref().unwrap();
        let out = chunk_next(input, &mut self.pos, &mut self.started, self.batch_size);
        if let Some(b) = &out {
            stats.rows += b.num_rows() as u64;
        }
        Ok(out)
    }
}

struct FilterOp<'a> {
    child: OpBox<'a>,
    pred: &'a Expr,
    compiled: Option<VExpr>,
}

impl VecOp for FilterOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        if self.compiled.is_none() {
            // Compile (and intern literals) before any reader is opened.
            self.compiled = Some(VExpr::compile(self.pred, batch.columns.len()));
        }
        let sel: Vec<u32> = batch.selection().map(|i| i as u32).collect();
        let new_sel = {
            let reader = ConstReader::new();
            self.compiled
                .as_ref()
                .unwrap()
                .filter_sel(&batch, sel, &reader)
        };
        let mut out = batch;
        out.sel = Some(new_sel);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct ProjectOp<'a> {
    child: OpBox<'a>,
    exprs: &'a [(String, Expr)],
    compiled: Option<Vec<VExpr>>,
}

impl VecOp for ProjectOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        if self.compiled.is_none() {
            self.compiled = Some(
                self.exprs
                    .iter()
                    .map(|(_, e)| VExpr::compile(e, batch.columns.len()))
                    .collect(),
            );
        }
        let sel: Vec<u32> = batch.selection().map(|i| i as u32).collect();
        let outs: Vec<ColOut> = {
            let reader = ConstReader::new();
            self.compiled
                .as_ref()
                .unwrap()
                .iter()
                .map(|e| e.eval(&batch, &sel, &reader))
                .collect()
        };
        // The reader is dropped; computed values may be interned now.
        let cols: Vec<Vec<ConstId>> = outs.into_iter().map(ColOut::into_ids).collect();
        let columns: Vec<String> = self.exprs.iter().map(|(n, _)| n.clone()).collect();
        let out = Batch::from_cols(columns, cols);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

/// A hash key over interned columns. Keys of up to two columns — the
/// overwhelmingly common case for join/group/probe keys — pack into a
/// single `u64`, so the per-row hot loops of hash join, bindjoin, distinct
/// and aggregation allocate nothing per row; wider keys fall back to a
/// heap vector. Every map holds keys of one fixed arity, so the packed and
/// wide encodings never collide within a map.
#[derive(PartialEq, Eq, Hash, Clone)]
enum Key {
    Packed(u64),
    Wide(Vec<ConstId>),
}

fn pack_key<I: Iterator<Item = ConstId>>(mut ids: I, len: usize) -> Key {
    match len {
        0 => Key::Packed(0),
        1 => Key::Packed(u64::from(ids.next().expect("key arity").id())),
        2 => {
            let a = u64::from(ids.next().expect("key arity").id());
            let b = u64::from(ids.next().expect("key arity").id());
            Key::Packed(a << 32 | b)
        }
        _ => Key::Wide(ids.collect()),
    }
}

struct JoinBuild {
    columns: Vec<String>,
    cols: Vec<Vec<ConstId>>,
    /// Key → left row indices, in left row order.
    table: HashMap<Key, Vec<u32>>,
}

struct HashJoinOp<'a> {
    left: Option<OpBox<'a>>,
    right: OpBox<'a>,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    build: Option<JoinBuild>,
    right_checked: bool,
}

impl VecOp for HashJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        if self.build.is_none() {
            let mut left = self.left.take().expect("build runs once");
            let dense = drain_to_dense(&mut left, stats)?;
            check_cols(self.left_keys, dense.columns.len(), "HashJoin")?;
            let mut table: HashMap<Key, Vec<u32>> = HashMap::new();
            for i in 0..dense.physical_rows() {
                let key = pack_key(
                    self.left_keys.iter().map(|c| dense.cols[*c][i]),
                    self.left_keys.len(),
                );
                table.entry(key).or_default().push(i as u32);
            }
            self.build = Some(JoinBuild {
                columns: dense.columns,
                cols: dense.cols,
                table,
            });
        }
        let Some(rb) = self.right.next_batch(stats)? else {
            return Ok(None);
        };
        let rb = rb.compact();
        if !self.right_checked {
            check_cols(self.right_keys, rb.columns.len(), "HashJoin")?;
            self.right_checked = true;
        }
        let build = self.build.as_ref().unwrap();
        let left_arity = build.columns.len();
        let mut columns = build.columns.clone();
        columns.extend(rb.columns.iter().cloned());
        let mut cols: Vec<Vec<ConstId>> = vec![Vec::new(); left_arity + rb.columns.len()];
        for ri in 0..rb.physical_rows() {
            let key = pack_key(
                self.right_keys.iter().map(|c| rb.cols[*c][ri]),
                self.right_keys.len(),
            );
            if let Some(matches) = build.table.get(&key) {
                for &li in matches {
                    for (c, col) in cols.iter_mut().enumerate() {
                        if c < left_arity {
                            col.push(build.cols[c][li as usize]);
                        } else {
                            col.push(rb.cols[c - left_arity][ri]);
                        }
                    }
                }
            }
        }
        let out = Batch::from_cols(columns, cols);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct NlJoinOp<'a> {
    left: OpBox<'a>,
    right: Option<OpBox<'a>>,
    pred: &'a Option<Expr>,
    right_mat: Option<Batch>,
    compiled: Option<Option<VExpr>>,
}

impl VecOp for NlJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        if self.right_mat.is_none() {
            let mut right = self.right.take().expect("materialize runs once");
            self.right_mat = Some(drain_to_dense(&mut right, stats)?);
        }
        let Some(lb) = self.left.next_batch(stats)? else {
            return Ok(None);
        };
        let lb = lb.compact();
        let right = self.right_mat.as_ref().unwrap();
        let (ln, rn) = (lb.physical_rows(), right.physical_rows());
        let mut columns = lb.columns.clone();
        columns.extend(right.columns.iter().cloned());
        let mut cols: Vec<Vec<ConstId>> = Vec::with_capacity(columns.len());
        for c in &lb.cols {
            // Left-major: each left row repeated once per right row.
            let mut v = Vec::with_capacity(ln * rn);
            for &id in c {
                v.extend(std::iter::repeat_n(id, rn));
            }
            cols.push(v);
        }
        for c in &right.cols {
            let mut v = Vec::with_capacity(ln * rn);
            for _ in 0..ln {
                v.extend_from_slice(c);
            }
            cols.push(v);
        }
        let mut out = Batch::from_cols(columns, cols);
        if let Some(pred) = self.pred {
            if self.compiled.is_none() {
                self.compiled = Some(Some(VExpr::compile(pred, out.columns.len())));
            }
            if let Some(Some(vp)) = &self.compiled {
                let sel: Vec<u32> = (0..out.physical_rows() as u32).collect();
                let reader = ConstReader::new();
                out.sel = Some(vp.filter_sel(&out, sel, &reader));
            }
        }
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct BindJoinOp<'a> {
    child: OpBox<'a>,
    key_cols: &'a [usize],
    source: &'a Arc<dyn BindSource>,
    /// Lifetime key cache: interned key → slot in `fetched`.
    cache: HashMap<Key, usize>,
    /// Fetched (and interned) source rows per distinct key.
    fetched: Vec<Vec<Vec<ConstId>>>,
    checked: bool,
}

impl VecOp for BindJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(b) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let b = b.compact();
        if !self.checked {
            check_cols(self.key_cols, b.columns.len(), "BindJoin")?;
            self.checked = true;
        }
        let n = b.physical_rows();
        let mut row_key: Vec<usize> = Vec::with_capacity(n);
        let mut new_keys: Vec<Vec<ConstId>> = Vec::new();
        for i in 0..n {
            let key = pack_key(
                self.key_cols.iter().map(|c| b.cols[*c][i]),
                self.key_cols.len(),
            );
            let slot = match self.cache.get(&key) {
                Some(&s) => s,
                None => {
                    let s = self.fetched.len() + new_keys.len();
                    self.cache.insert(key, s);
                    new_keys.push(self.key_cols.iter().map(|c| b.cols[*c][i]).collect());
                    s
                }
            };
            row_key.push(slot);
        }
        if !new_keys.is_empty() {
            // One batched probe per pipeline batch of still-unseen keys —
            // the probe *count* (distinct keys) matches the tuple oracle.
            stats.bind_probes += new_keys.len() as u64;
            let key_vals: Vec<Vec<Value>> = {
                let reader = ConstReader::new();
                new_keys
                    .iter()
                    .map(|k| k.iter().map(|&id| reader.get(id).clone()).collect())
                    .collect()
            };
            let t = Instant::now();
            let f = self.source.fetch_batch(&key_vals);
            stats.delegated_time += t.elapsed();
            let f = f?;
            debug_assert_eq!(f.len(), new_keys.len());
            for rows in f {
                self.fetched
                    .push(rows.iter().map(|r| ConstId::intern_all(r.iter())).collect());
            }
        }
        let src_columns = self.source.out_columns();
        let left_arity = b.columns.len();
        let mut columns = b.columns.clone();
        columns.extend(src_columns.iter().cloned());
        let mut cols: Vec<Vec<ConstId>> = vec![Vec::new(); left_arity + src_columns.len()];
        for (i, slot) in row_key.iter().enumerate() {
            for frow in &self.fetched[*slot] {
                for (c, col) in cols.iter_mut().enumerate() {
                    if c < left_arity {
                        col.push(b.cols[c][i]);
                    } else {
                        col.push(frow[c - left_arity]);
                    }
                }
            }
        }
        let out = Batch::from_cols(columns, cols);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct DistinctOp<'a> {
    child: OpBox<'a>,
    seen: std::collections::HashSet<Key>,
}

impl VecOp for DistinctOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let mut new_sel: Vec<u32> = Vec::new();
        let arity = batch.cols.len();
        for i in batch.selection() {
            let key = pack_key(batch.cols.iter().map(|c| c[i]), arity);
            if self.seen.insert(key) {
                new_sel.push(i as u32);
            }
        }
        let mut out = batch;
        out.sel = Some(new_sel);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct VecAcc {
    count: i64,
    sum: f64,
    min: Option<ConstId>,
    max: Option<ConstId>,
}

impl VecAcc {
    fn new() -> VecAcc {
        VecAcc {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }
}

struct AggregateOp<'a> {
    child: OpBox<'a>,
    group_by: &'a [usize],
    aggs: &'a [AggSpec],
    done: bool,
}

impl VecOp for AggregateOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        if self.done {
            return Ok(None);
        }
        self.done = true;
        let mut groups: HashMap<Key, Vec<VecAcc>> = HashMap::new();
        let mut order: Vec<(Key, Vec<ConstId>)> = Vec::new();
        let mut columns: Option<Vec<String>> = None;
        while let Some(b) = self.child.next_batch(stats)? {
            if columns.is_none() {
                check_cols(self.group_by, b.columns.len(), "Aggregate")?;
                for a in self.aggs {
                    check_cols(&[a.col], b.columns.len(), "Aggregate")?;
                }
                columns = Some(b.columns.clone());
            }
            // The reader must not be held across child pulls (scans intern).
            let reader = ConstReader::new();
            for i in b.selection() {
                let key = pack_key(
                    self.group_by.iter().map(|c| b.cols[*c][i]),
                    self.group_by.len(),
                );
                let accs = match groups.get_mut(&key) {
                    Some(a) => a,
                    None => {
                        let ids: Vec<ConstId> =
                            self.group_by.iter().map(|c| b.cols[*c][i]).collect();
                        order.push((key.clone(), ids));
                        groups
                            .entry(key)
                            .or_insert_with(|| self.aggs.iter().map(|_| VecAcc::new()).collect())
                    }
                };
                for (a, spec) in accs.iter_mut().zip(self.aggs) {
                    let vid = b.cols[spec.col][i];
                    a.count += 1;
                    a.sum += reader.get(vid).as_double().unwrap_or(0.0);
                    a.min = match a.min {
                        None => Some(vid),
                        Some(m) if vid != m && reader.get(vid) < reader.get(m) => Some(vid),
                        keep => keep,
                    };
                    a.max = match a.max {
                        None => Some(vid),
                        Some(m) if vid != m && reader.get(vid) > reader.get(m) => Some(vid),
                        keep => keep,
                    };
                }
            }
        }
        let input_columns = columns.unwrap_or_default();
        if self.group_by.is_empty() && order.is_empty() {
            // SQL semantics: a global aggregate over no rows is one row.
            let key = pack_key(std::iter::empty(), 0);
            order.push((key.clone(), Vec::new()));
            groups.insert(key, self.aggs.iter().map(|_| VecAcc::new()).collect());
        }
        let mut out_columns: Vec<String> = self
            .group_by
            .iter()
            .map(|c| input_columns[*c].clone())
            .collect();
        out_columns.extend(self.aggs.iter().map(|a| a.name.clone()));
        // Key columns are already interned; finalized Count/Sum/Avg values
        // are interned here, with no reader held.
        let null_id = ConstId::intern(&Value::Null);
        let mut cols: Vec<Vec<ConstId>> = vec![Vec::with_capacity(order.len()); out_columns.len()];
        for (key, ids) in &order {
            let accs = groups.remove(key).unwrap();
            for (c, &id) in ids.iter().enumerate() {
                cols[c].push(id);
            }
            for (j, (a, spec)) in accs.into_iter().zip(self.aggs).enumerate() {
                let id = match spec.fun {
                    AggFun::Count => ConstId::of(a.count),
                    AggFun::Sum => ConstId::of(a.sum),
                    AggFun::Avg => {
                        if a.count == 0 {
                            null_id
                        } else {
                            ConstId::of(a.sum / a.count as f64)
                        }
                    }
                    AggFun::Min => a.min.unwrap_or(null_id),
                    AggFun::Max => a.max.unwrap_or(null_id),
                };
                cols[self.group_by.len() + j].push(id);
            }
        }
        let out = Batch::from_cols(out_columns, cols);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;
    use crate::expr::{ArithOp, CmpOp};
    use crate::tuple::Tuple;

    fn batch(cols: &[&str], rows: Vec<Vec<Value>>) -> RowBatch {
        RowBatch::new(cols.iter().map(|s| s.to_string()).collect(), rows)
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    /// Vectorized and tuple-at-a-time execution agree on rows, columns and
    /// the logical stats counters, at several batch sizes.
    fn assert_identical(plan: &Plan) {
        let (oracle, ostats) = exec::execute(plan).expect("oracle run");
        for bs in [1, 2, 3, 1024] {
            let (got, vstats) = execute_with(plan, &ExecOptions { batch_size: bs })
                .unwrap_or_else(|e| panic!("vectorized run (batch {bs}): {e}"));
            assert_eq!(got.columns, oracle.columns, "columns at batch size {bs}");
            assert_eq!(got.rows, oracle.rows, "rows at batch size {bs}");
            assert_eq!(vstats.operators, ostats.operators, "operators at {bs}");
            assert_eq!(vstats.rows, ostats.rows, "row counter at {bs}");
            assert_eq!(vstats.bind_probes, ostats.bind_probes, "probes at {bs}");
        }
    }

    #[test]
    fn filter_project_identical() {
        let input: Vec<Vec<Value>> = (0..37).map(|i| ints(&[i, i * 10])).collect();
        let p = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Values(batch(&["a", "b"], input))),
                pred: Expr::col(0)
                    .cmp(CmpOp::Ge, Expr::lit(5i64))
                    .and(Expr::col(1).cmp(CmpOp::Lt, Expr::lit(300i64))),
            }),
            exprs: vec![
                ("b".into(), Expr::col(1)),
                (
                    "twice".into(),
                    Expr::Arith(
                        Box::new(Expr::col(0)),
                        ArithOp::Mul,
                        Box::new(Expr::lit(2i64)),
                    ),
                ),
            ],
        };
        assert_identical(&p);
    }

    #[test]
    fn joins_identical() {
        let l = batch(&["a", "x"], (0..23).map(|i| ints(&[i % 7, i])).collect());
        let r = batch(
            &["b", "y"],
            (0..11).map(|i| ints(&[i % 7, i * 2])).collect(),
        );
        assert_identical(&Plan::HashJoin {
            left: Box::new(Plan::Values(l.clone())),
            right: Box::new(Plan::Values(r.clone())),
            left_keys: vec![0],
            right_keys: vec![0],
        });
        assert_identical(&Plan::NlJoin {
            left: Box::new(Plan::Values(l.clone())),
            right: Box::new(Plan::Values(r.clone())),
            pred: Some(Expr::col(0).cmp(CmpOp::Eq, Expr::col(2))),
        });
        assert_identical(&Plan::NlJoin {
            left: Box::new(Plan::Values(l)),
            right: Box::new(Plan::Values(r)),
            pred: None,
        });
    }

    struct MapSource(HashMap<Vec<Value>, Vec<Tuple>>);
    impl BindSource for MapSource {
        fn out_columns(&self) -> Vec<String> {
            vec!["v".into()]
        }
        fn fetch_batch(&self, keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
            Ok(keys
                .iter()
                .map(|k| self.0.get(k).cloned().unwrap_or_default())
                .collect())
        }
    }

    #[test]
    fn bindjoin_identical_and_probe_counts_match() {
        let mut m = HashMap::new();
        for k in 0..5i64 {
            m.insert(
                vec![Value::Int(k)],
                vec![vec![Value::str(format!("v{k}"))], vec![Value::str("dup")]],
            );
        }
        // The source shipped whole, as `(k, v)` rows.
        let shipped = m
            .iter()
            .flat_map(|(k, vs)| vs.iter().map(move |v| [&k[..], &v[..]].concat()));
        let shipped = batch(&["k2", "v"], shipped.collect());
        let left = Box::new(Plan::Values(batch(
            &["k"],
            (0..19).map(|i| ints(&[i % 6])).collect(),
        )));
        let p = Plan::BindJoin {
            left: left.clone(),
            key_cols: vec![0],
            source: Arc::new(MapSource(m)),
        };
        assert_identical(&p);
        // Probing answers like shipping everything and hash-joining it.
        let ship_all = Plan::Project {
            input: Box::new(Plan::HashJoin {
                left,
                right: Box::new(Plan::Values(shipped)),
                left_keys: vec![0],
                right_keys: vec![0],
            }),
            exprs: vec![("k".into(), Expr::col(0)), ("v".into(), Expr::col(2))],
        };
        let sorted = |plan: &Plan| {
            let mut rows = exec::execute(plan).expect("tuple run").0.rows;
            rows.sort();
            rows
        };
        assert_eq!(sorted(&p), sorted(&ship_all));
    }

    #[test]
    fn bindjoin_empty_input_issues_no_probe() {
        struct ExplodingSource;
        impl BindSource for ExplodingSource {
            fn out_columns(&self) -> Vec<String> {
                vec!["v".into()]
            }
            fn fetch_batch(&self, _keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
                panic!("an empty BindJoin batch must not reach the source");
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![]))),
            key_cols: vec![0],
            source: Arc::new(ExplodingSource),
        };
        let (out, stats) = execute_with(&p, &ExecOptions::default()).unwrap();
        assert_eq!(out.len(), 0);
        assert_eq!(out.columns, vec!["k", "v"]);
        assert_eq!(stats.bind_probes, 0);
    }

    #[test]
    fn aggregate_and_distinct_identical() {
        let data = batch(
            &["g", "x"],
            (0..29).map(|i| ints(&[i % 4, (i * 13) % 17])).collect(),
        );
        // Every function, finalised by the operator and by the shared
        // `estocada_pivot::Accumulator` the tuple executor and the stores
        // fold with: equal value for value (Count → Int, Sum/Avg → Double).
        let all = [
            (AggFun::Count, "n"),
            (AggFun::Sum, "s"),
            (AggFun::Avg, "avg"),
            (AggFun::Min, "lo"),
            (AggFun::Max, "hi"),
        ];
        let aggs = |col: usize| -> Vec<AggSpec> {
            let spec = |(fun, name): &(AggFun, &str)| AggSpec {
                fun: *fun,
                col,
                name: name.to_string(),
            };
            all.iter().map(spec).collect()
        };
        assert_identical(&Plan::Aggregate {
            input: Box::new(Plan::Values(data.clone())),
            group_by: vec![0],
            aggs: aggs(1),
        });
        // Global aggregate over an empty input still yields one row:
        // COUNT 0, SUM 0.0, AVG/MIN/MAX Null.
        let empty = Plan::Aggregate {
            input: Box::new(Plan::Values(batch(&["x"], vec![]))),
            group_by: vec![],
            aggs: aggs(0),
        };
        assert_identical(&empty);
        let (one_row, _) = execute_with(&empty, &ExecOptions::default()).unwrap();
        let null = Value::Null;
        assert_eq!(
            one_row.rows,
            vec![vec![
                Value::Int(0),
                Value::Double(0.0),
                null.clone(),
                null.clone(),
                null
            ]]
        );
        assert_identical(&Plan::Distinct {
            input: Box::new(Plan::Values(data.clone())),
        });
    }

    #[test]
    fn empty_inputs_propagate_columns() {
        let p = Plan::Project {
            input: Box::new(Plan::Filter {
                input: Box::new(Plan::Values(batch(&["a", "b"], vec![]))),
                pred: Expr::col(0).cmp(CmpOp::Eq, Expr::lit(1i64)),
            }),
            exprs: vec![("a".into(), Expr::col(0))],
        };
        let (out, _) = execute_with(&p, &ExecOptions::default()).unwrap();
        assert_eq!(out.columns, vec!["a"]);
        assert!(out.rows.is_empty());
    }

    #[test]
    fn tuple_mode_is_the_oracle() {
        let p = Plan::Values(batch(&["x"], vec![ints(&[1])]));
        let (a, _) = execute_with(&p, &ExecOptions { batch_size: 4 }).unwrap();
        let (b, _) = exec::execute(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn bad_column_reported_with_operator() {
        let p = Plan::HashJoin {
            left: Box::new(Plan::Values(batch(&["a"], vec![]))),
            right: Box::new(Plan::Values(batch(&["b"], vec![]))),
            left_keys: vec![5],
            right_keys: vec![0],
        };
        assert!(matches!(
            execute_with(&p, &ExecOptions::default()),
            Err(EngineError::BadColumn { index: 5, .. })
        ));
    }
}
