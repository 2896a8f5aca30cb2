//! The mediator's runtime: every [`Plan`] runs here, batch at a time.
//!
//! A plan compiles into a pull-based pipeline of operators exchanging
//! columnar [`Batch`]es of interned ids:
//!
//! * expressions are compiled once per operator and evaluated once per
//!   *batch* (the crate-private `VExpr` form), with equality comparisons
//!   on interned ids;
//! * filters emit selection vectors instead of materializing survivors;
//! * bindjoin collects the still-unseen keys of each input batch and probes
//!   the source once per batch with all of them (one MGET-style
//!   `fetch_batch`); a key is probed once per run, so the `bind_probes`
//!   total is the number of distinct keys at every batch size;
//! * grouped aggregation hashes interned key vectors (`u32` hashing, no
//!   value tree walks).
//!
//! Batch boundaries are unobservable: every batch size yields the same
//! rows in the same order and the same [`ExecStats`] `operators` / `rows`
//! / `bind_probes` counters.
//!
//! Blocking operators (aggregate, the build side of joins) drain their
//! child before emitting; everything else streams. Every operator emits at
//! least one (possibly empty) batch before reporting end-of-stream so column
//! names propagate through empty inputs.

use crate::batch::Batch;
use crate::expr::{ColOut, Expr, VExpr};
use crate::plan::{AggFun, AggSpec, BindSource, Plan};
use crate::tuple::RowBatch;
use estocada_pivot::hash::{FastMap, FastSet};
use estocada_pivot::{ConstId, ConstReader, Value};
use estocada_simkit::StoreError;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Column index out of range for the operator's input.
    BadColumn {
        /// The offending index.
        index: usize,
        /// The operator name.
        operator: &'static str,
    },
    /// A delegated sub-query or bound-source probe failed in the
    /// underlying store.
    Store(StoreError),
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::BadColumn { index, operator } => {
                write!(f, "column {index} out of range in {operator}")
            }
            EngineError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl From<StoreError> for EngineError {
    fn from(e: StoreError) -> EngineError {
        EngineError::Store(e)
    }
}

impl std::error::Error for EngineError {}

/// Runtime counters of one plan execution.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Operator nodes executed.
    pub operators: u64,
    /// Total rows produced across operators.
    pub rows: u64,
    /// BindJoin probes issued.
    pub bind_probes: u64,
    /// Time spent inside delegated sub-queries.
    pub delegated_time: Duration,
    /// Total execution time.
    pub total_time: Duration,
}

impl ExecStats {
    /// Time spent in the mediator runtime itself (total minus delegated) —
    /// the split the demo shows.
    pub fn runtime_time(&self) -> Duration {
        self.total_time.saturating_sub(self.delegated_time)
    }
}

fn check_cols(cols: &[usize], arity: usize, operator: &'static str) -> Result<(), EngineError> {
    match cols.iter().find(|c| **c >= arity) {
        Some(&index) => Err(EngineError::BadColumn { index, operator }),
        None => Ok(()),
    }
}

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
/// to a row-oriented [`RowBatch`] at the root.
pub fn execute_with(plan: &Plan, opts: &ExecOptions) -> Result<(RowBatch, ExecStats), EngineError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let mut root = compile(plan, opts.batch_size.max(1), &mut stats);
    let mut batches: Vec<Batch> = Vec::new();
    while let Some(b) = root.next_batch(&mut stats)? {
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
    stats.total_time = start.elapsed();
    Ok((RowBatch { columns, rows }, stats))
}

/// A compiled operator: pulls batches from its children on demand.
trait VecOp {
    /// The next batch, `None` at end-of-stream. The first call always
    /// yields `Some` (possibly with zero rows) so columns propagate.
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError>;
}

type OpBox<'a> = Box<dyn VecOp + 'a>;

fn compile<'a>(plan: &'a Plan, batch_size: usize, stats: &mut ExecStats) -> OpBox<'a> {
    // One increment per plan node.
    stats.operators += 1;
    match plan {
        Plan::Values(rows) => Box::new(Scan {
            source: Source::Values(rows),
            pos: 0,
            started: false,
            batch_size,
        }),
        Plan::Delegated { runner, .. } => Box::new(Scan {
            source: Source::Delegated(runner.as_ref(), None),
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
            left: compile(left, batch_size, stats),
            right: compile(right, batch_size, stats),
            left_keys,
            right_keys,
            build: None,
            right_checked: false,
        }),
        Plan::NlJoin { left, right, pred } => Box::new(NlJoinOp {
            left: compile(left, batch_size, stats),
            right: compile(right, batch_size, stats),
            pred: pred.as_ref(),
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
            cache: FastMap::default(),
            fetched: Vec::new(),
            checked: false,
        }),
        Plan::Distinct { input } => Box::new(DistinctOp {
            child: compile(input, batch_size, stats),
            seen: FastSet::default(),
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

/// Drain a child into one dense batch (columns always present), then
/// release it: a blocking operator pulls its input once.
fn drain_to_dense(child: &mut OpBox<'_>, stats: &mut ExecStats) -> Result<Batch, EngineError> {
    let mut acc: Option<Batch> = None;
    while let Some(b) = child.next_batch(stats)? {
        let b = b.compact();
        match &mut acc {
            None => acc = Some(b),
            Some(a) => a.append(b),
        }
    }
    *child = Box::new(Drained);
    Ok(acc.unwrap_or_else(|| Batch::empty(Vec::new())))
}

/// What a drained child is replaced by: end-of-stream, holding nothing.
struct Drained;

impl VecOp for Drained {
    fn next_batch(&mut self, _: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        Ok(None)
    }
}

/// A leaf cut into batches: the rows of a `Values` node, or the answer of
/// a delegated sub-query, fetched on the first pull.
struct Scan<'a> {
    source: Source<'a>,
    pos: usize,
    started: bool,
    batch_size: usize,
}

type Runner = dyn Fn() -> Result<RowBatch, StoreError> + Send + Sync;

enum Source<'a> {
    Values(&'a RowBatch),
    Delegated(&'a Runner, Option<RowBatch>),
}

impl VecOp for Scan<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let input: &RowBatch = match &mut self.source {
            Source::Values(rows) => rows,
            Source::Delegated(_, Some(rows)) => rows,
            Source::Delegated(runner, slot) => {
                let t = Instant::now();
                let rows = runner();
                stats.delegated_time += t.elapsed();
                slot.insert(rows?)
            }
        };
        if self.started && self.pos >= input.rows.len() {
            return Ok(None);
        }
        self.started = true;
        let hi = (self.pos + self.batch_size).min(input.rows.len());
        let out = Batch::from_rows(input.columns.clone(), &input.rows[self.pos..hi]);
        self.pos = hi;
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
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
        // Compile (and intern literals) before any reader is opened.
        let pred = self
            .compiled
            .get_or_insert_with(|| VExpr::compile(self.pred, batch.columns.len()));
        let sel: Vec<u32> = batch.selection().map(|i| i as u32).collect();
        let new_sel = pred.filter_sel(&batch, sel, &ConstReader::new());
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
        let exprs = self.compiled.get_or_insert_with(|| {
            let compile = |(_, e): &(String, Expr)| VExpr::compile(e, batch.columns.len());
            self.exprs.iter().map(compile).collect()
        });
        let sel: Vec<u32> = batch.selection().map(|i| i as u32).collect();
        let outs: Vec<ColOut> = {
            let reader = ConstReader::new();
            exprs
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

fn pack_key<I: Iterator<Item = ConstId>>(ids: I, len: usize) -> Key {
    if len > 2 {
        return Key::Wide(ids.collect());
    }
    Key::Packed(ids.fold(0, |acc, id| acc << 32 | u64::from(id.id())))
}

struct JoinBuild {
    columns: Vec<String>,
    cols: Vec<Vec<ConstId>>,
    /// Key → left row indices, in left row order.
    table: FastMap<Key, Vec<u32>>,
}

impl JoinBuild {
    fn drain(
        left: &mut OpBox<'_>,
        keys: &[usize],
        stats: &mut ExecStats,
    ) -> Result<JoinBuild, EngineError> {
        let dense = drain_to_dense(left, stats)?;
        check_cols(keys, dense.columns.len(), "HashJoin")?;
        let mut table: FastMap<Key, Vec<u32>> = FastMap::default();
        for i in 0..dense.physical_rows() {
            let key = pack_key(keys.iter().map(|c| dense.cols[*c][i]), keys.len());
            table.entry(key).or_default().push(i as u32);
        }
        Ok(JoinBuild {
            columns: dense.columns,
            cols: dense.cols,
            table,
        })
    }
}

struct HashJoinOp<'a> {
    left: OpBox<'a>,
    right: OpBox<'a>,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    build: Option<JoinBuild>,
    right_checked: bool,
}

impl VecOp for HashJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let build = match &mut self.build {
            Some(b) => b,
            slot => slot.insert(JoinBuild::drain(&mut self.left, self.left_keys, stats)?),
        };
        let Some(rb) = self.right.next_batch(stats)? else {
            return Ok(None);
        };
        let rb = rb.compact();
        if !self.right_checked {
            check_cols(self.right_keys, rb.columns.len(), "HashJoin")?;
            self.right_checked = true;
        }
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
    right: OpBox<'a>,
    pred: Option<&'a Expr>,
    right_mat: Option<Batch>,
    compiled: Option<VExpr>,
}

impl VecOp for NlJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let right = match &mut self.right_mat {
            Some(b) => b,
            slot => slot.insert(drain_to_dense(&mut self.right, stats)?),
        };
        let Some(lb) = self.left.next_batch(stats)? else {
            return Ok(None);
        };
        let lb = lb.compact();
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
            let arity = out.columns.len();
            let vp = self
                .compiled
                .get_or_insert_with(|| VExpr::compile(pred, arity));
            let sel: Vec<u32> = (0..out.physical_rows() as u32).collect();
            out.sel = Some(vp.filter_sel(&out, sel, &ConstReader::new()));
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
    cache: FastMap<Key, usize>,
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
            // One batched probe per pipeline batch of still-unseen keys.
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
    seen: FastSet<Key>,
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

#[derive(Default)]
struct VecAcc {
    count: i64,
    sum: f64,
    min: Option<ConstId>,
    max: Option<ConstId>,
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
        // Key → slot in `groups`, which keeps first-seen order.
        let mut index: FastMap<Key, usize> = FastMap::default();
        let mut groups: Vec<(Vec<ConstId>, Vec<VecAcc>)> = Vec::new();
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
                let g = *index.entry(key).or_insert_with(|| {
                    let ids = self.group_by.iter().map(|c| b.cols[*c][i]).collect();
                    groups.push((ids, self.aggs.iter().map(|_| VecAcc::default()).collect()));
                    groups.len() - 1
                });
                for (a, spec) in groups[g].1.iter_mut().zip(self.aggs) {
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
        if self.group_by.is_empty() && groups.is_empty() {
            // SQL semantics: a global aggregate over no rows is one row.
            groups.push((
                Vec::new(),
                self.aggs.iter().map(|_| VecAcc::default()).collect(),
            ));
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
        let mut cols: Vec<Vec<ConstId>> = vec![Vec::with_capacity(groups.len()); out_columns.len()];
        for (ids, accs) in groups {
            for (c, &id) in ids.iter().enumerate() {
                cols[c].push(id);
            }
            for (j, (a, spec)) in accs.into_iter().zip(self.aggs).enumerate() {
                let id = match spec.fun {
                    AggFun::Count => ConstId::of(a.count),
                    AggFun::Sum => ConstId::of(a.sum),
                    AggFun::Avg if a.count == 0 => null_id,
                    AggFun::Avg => ConstId::of(a.sum / a.count as f64),
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
    use crate::expr::{ArithOp, CmpOp};
    use crate::tuple::Tuple;
    use estocada_pivot::hash::{FastHasher, FastSet};
    use estocada_simkit::StoreErrorKind;
    use std::hash::{BuildHasher, BuildHasherDefault};

    /// Two-column join keys that differ only in their first column (the
    /// high 32 bits of `Key::Packed`) reach at least half the buckets of the
    /// 8 192-bucket table that holds 4 096 of them.
    #[test]
    fn packed_keys_differing_in_their_high_bits_spread() {
        let build = BuildHasherDefault::<FastHasher>::default();
        let buckets: FastSet<u64> = (0..4096u64)
            .map(|a| build.hash_one(Key::Packed(a << 32 | 7)) & 0x1fff)
            .collect();
        assert!(buckets.len() >= 2048, "{} buckets", buckets.len());
    }

    fn batch(cols: &[&str], rows: Vec<Vec<Value>>) -> RowBatch {
        RowBatch::new(cols.iter().map(|s| s.to_string()).collect(), rows)
    }

    fn ints(vals: &[i64]) -> Vec<Value> {
        vals.iter().map(|v| Value::Int(*v)).collect()
    }

    /// Runs `plan` at several batch sizes: every run returns exactly `want`,
    /// in order, and the same counters, with one operator per plan node.
    /// Returns the counters.
    fn assert_rows(plan: &Plan, want: &[Tuple]) -> ExecStats {
        let run = |bs| execute_with(plan, &ExecOptions { batch_size: bs });
        let (_, first) = run(1).expect("batch size 1");
        for bs in [1, 2, 3, 1024] {
            let (got, stats) = run(bs).unwrap_or_else(|e| panic!("batch size {bs}: {e}"));
            assert_eq!(got.rows, want, "rows at batch size {bs}");
            assert_eq!(stats.rows, first.rows, "row counter at {bs}");
            assert_eq!(stats.bind_probes, first.bind_probes, "probes at {bs}");
            assert_eq!(stats.operators as usize, plan.explain().lines().count());
        }
        first
    }

    #[test]
    fn filter_project_identical() {
        let input: Vec<Vec<Value>> = (0..37).map(|i| ints(&[i, i * 10])).collect();
        let want: Vec<Tuple> = (0..37i64)
            .filter(|i| *i >= 5 && i * 10 < 300)
            .map(|i| ints(&[i * 10, i * 2]))
            .collect();
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
        assert_eq!(assert_rows(&p, &want).operators, 3);
    }

    #[test]
    fn joins_identical() {
        let l: Vec<Tuple> = (0..23).map(|i| ints(&[i % 7, i])).collect();
        let r: Vec<Tuple> = (0..11).map(|i| ints(&[i % 7, i * 2])).collect();
        let values = |cols, rows: &[Tuple]| Box::new(Plan::Values(batch(cols, rows.to_vec())));
        let (lv, rv) = (|| values(&["a", "x"], &l), || values(&["b", "y"], &r));
        let concat = |a: &Tuple, b: &Tuple| [&a[..], &b[..]].concat();
        // The hash join probes with the right side, matches in left order.
        let probe_major: Vec<Tuple> = r
            .iter()
            .flat_map(|rr| {
                l.iter()
                    .filter(|lr| lr[0] == rr[0])
                    .map(|lr| concat(lr, rr))
            })
            .collect();
        let hash = Plan::HashJoin {
            left: lv(),
            right: rv(),
            left_keys: vec![0],
            right_keys: vec![0],
        };
        assert_rows(&hash, &probe_major);
        let (out, _) = execute_with(&hash, &ExecOptions::default()).unwrap();
        assert_eq!(out.columns, vec!["a", "x", "b", "y"]);
        // The nested loop is left-major.
        let cross: Vec<Tuple> = l
            .iter()
            .flat_map(|lr| r.iter().map(|rr| concat(lr, rr)))
            .collect();
        let equal: Vec<Tuple> = cross.iter().filter(|t| t[0] == t[2]).cloned().collect();
        let nl = |pred| Plan::NlJoin {
            left: lv(),
            right: rv(),
            pred,
        };
        assert_rows(&nl(Some(Expr::col(0).cmp(CmpOp::Eq, Expr::col(2)))), &equal);
        assert_rows(&nl(None), &cross);
    }

    struct MapSource(FastMap<Vec<Value>, Vec<Tuple>>);
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
        let mut m = FastMap::default();
        for k in 0..5i64 {
            m.insert(
                vec![Value::Int(k)],
                vec![vec![Value::str(format!("v{k}"))], vec![Value::str("dup")]],
            );
        }
        // Key 5 misses; every other key matches twice, per occurrence.
        let left: Vec<Tuple> = (0..19).map(|i| ints(&[i % 6])).collect();
        let want: Vec<Tuple> = left
            .iter()
            .flat_map(|l| {
                m.get(l)
                    .into_iter()
                    .flatten()
                    .map(|v| [&l[..], &v[..]].concat())
            })
            .collect();
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], left))),
            key_cols: vec![0],
            source: Arc::new(MapSource(m)),
        };
        // One probe per distinct key (0..=5), whatever the batch size.
        assert_eq!(assert_rows(&p, &want).bind_probes, 6);
        let (out, _) = execute_with(&p, &ExecOptions::default()).unwrap();
        assert_eq!(out.columns, vec!["k", "v"]);
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
        let pairs: Vec<(i64, i64)> = (0..29).map(|i| (i % 4, (i * 13) % 17)).collect();
        let data = batch(
            &["g", "x"],
            pairs.iter().map(|(g, x)| ints(&[*g, *x])).collect(),
        );
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
        // Groups in first-seen order; COUNT is an Int, SUM/AVG Doubles.
        let grouped: Vec<Tuple> = (0..4)
            .map(|g| {
                let xs: Vec<i64> = pairs.iter().filter(|p| p.0 == g).map(|p| p.1).collect();
                let sum = xs.iter().fold(0.0, |acc, x| acc + *x as f64);
                let (lo, hi) = (xs.iter().min().unwrap(), xs.iter().max().unwrap());
                let n = xs.len() as i64;
                let avg = sum / n as f64;
                vec![
                    g.into(),
                    n.into(),
                    sum.into(),
                    avg.into(),
                    (*lo).into(),
                    (*hi).into(),
                ]
            })
            .collect();
        let p = Plan::Aggregate {
            input: Box::new(Plan::Values(data.clone())),
            group_by: vec![0],
            aggs: aggs(1),
        };
        assert_rows(&p, &grouped);
        let (out, _) = execute_with(&p, &ExecOptions::default()).unwrap();
        assert_eq!(out.columns, vec!["g", "n", "s", "avg", "lo", "hi"]);
        // Global aggregate over an empty input still yields one row:
        // COUNT 0, SUM 0.0, AVG/MIN/MAX Null.
        let empty = Plan::Aggregate {
            input: Box::new(Plan::Values(batch(&["x"], vec![]))),
            group_by: vec![],
            aggs: aggs(0),
        };
        let null = Value::Null;
        let one_row = vec![0i64.into(), 0.0.into(), null.clone(), null.clone(), null];
        assert_rows(&empty, &[one_row]);
        // Distinct keeps first occurrences, in input order.
        let mut seen = FastSet::default();
        let firsts: Vec<Tuple> = data
            .rows
            .iter()
            .filter(|r| seen.insert(*r))
            .cloned()
            .collect();
        assert_rows(
            &Plan::Distinct {
                input: Box::new(Plan::Values(data)),
            },
            &firsts,
        );
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

    fn store_down(store: &str, op: &str, kind: StoreErrorKind) -> StoreError {
        StoreError {
            store: store.into(),
            op: op.into(),
            op_index: 1,
            kind,
        }
    }

    #[test]
    fn delegated_time_is_tracked() {
        let p = Plan::Delegated {
            label: "fake".into(),
            runner: Arc::new(|| {
                std::thread::sleep(Duration::from_millis(5));
                Ok(RowBatch::empty(vec!["x".into()]))
            }),
        };
        let (_, stats) = execute_with(&p, &ExecOptions::default()).unwrap();
        assert!(stats.delegated_time >= Duration::from_millis(5));
        assert!(stats.runtime_time() < stats.total_time);
    }

    #[test]
    fn delegated_store_error_propagates() {
        let p = Plan::Delegated {
            label: "down".into(),
            runner: Arc::new(|| {
                Err(store_down(
                    "relational",
                    "query",
                    StoreErrorKind::Unavailable,
                ))
            }),
        };
        match execute_with(&p, &ExecOptions::default()) {
            Err(EngineError::Store(e)) => assert_eq!(e.store, "relational"),
            other => panic!("expected store error, got {other:?}"),
        }
    }

    #[test]
    fn bindjoin_source_error_propagates() {
        struct FailingSource;
        impl BindSource for FailingSource {
            fn out_columns(&self) -> Vec<String> {
                vec!["v".into()]
            }
            fn fetch_batch(&self, _keys: &[Vec<Value>]) -> Result<Vec<Vec<Tuple>>, StoreError> {
                Err(store_down("key-value", "mget", StoreErrorKind::Timeout))
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![ints(&[1])]))),
            key_cols: vec![0],
            source: Arc::new(FailingSource),
        };
        match execute_with(&p, &ExecOptions::default()) {
            Err(EngineError::Store(e)) => assert_eq!(e.op, "mget"),
            other => panic!("expected store error, got {other:?}"),
        }
    }
}
