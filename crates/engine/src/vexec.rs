//! The mediator's runtime: every [`Plan`] runs here, batch at a time.
//!
//! A plan compiles into a pull-based pipeline of operators exchanging
//! columnar [`Batch`]es of interned ids:
//!
//! * expressions are compiled once per operator and evaluated once per
//!   *batch* (the crate-private `VExpr` form), with equality comparisons
//!   on interned ids; filters emit selection vectors;
//! * bindjoin probes the source once per batch with that batch's
//!   still-unseen keys (one MGET-style `fetch_batch` of interned keys, whose
//!   interned answer it keeps), so `bind_probes` is the number of distinct
//!   keys at every batch size;
//! * hash join, distinct and aggregation are the kernel the relational and
//!   parallel stores run a pushed tail with ([`estocada_pivot::kernel`]).
//!
//! Batch boundaries are unobservable: every batch size yields the same
//! rows in the same order and the same [`ExecStats`] `operators` / `rows`
//! / `bind_probes` counters.
//!
//! Blocking operators (aggregate, the build side of joins) drain their
//! child before emitting; everything else streams. Every operator emits at
//! least one (possibly empty) batch before reporting end-of-stream so column
//! names propagate through empty inputs.

use crate::batch::{Batch, Columns, Fetched};
use crate::expr::{ColOut, Expr, VExpr};
use crate::plan::{AggSpec, BindSource, Direct, Leaves, Plan, Runner};
use crate::tuple::RowBatch;
use estocada_pivot::hash::FastMap;
use estocada_pivot::kernel::{pack_key, Distinct, Groups, JoinTable, Key};
use estocada_pivot::{ConstId, ConstReader, IdRows};
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

/// Batch sizing for [`run`] and [`execute_with`].
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

/// Execute a plan through the batch pipeline with every delegated leaf
/// calling its store directly: [`run`] with [`Direct`] leaves.
pub fn execute_with(plan: &Plan, opts: &ExecOptions) -> Result<(RowBatch, ExecStats), EngineError> {
    run(plan, opts, &Direct)
}

/// Execute a plan through the batch pipeline, each delegated leaf reaching
/// its store through `leaves`; the result is converted back to a
/// row-oriented [`RowBatch`] at the root, a batch at a time.
pub fn run(
    plan: &Plan,
    opts: &ExecOptions,
    leaves: &dyn Leaves,
) -> Result<(RowBatch, ExecStats), EngineError> {
    let mut stats = ExecStats::default();
    let start = Instant::now();
    let ctx = Ctx {
        batch_size: opts.batch_size.max(1),
        leaves,
    };
    let mut root = compile(plan, &ctx, &mut 0, &mut stats);
    let (mut columns, mut rows): (Option<Columns>, _) = (None, Vec::new());
    while let Some(b) = root.next_batch(&mut stats)? {
        columns.get_or_insert_with(|| b.columns.clone());
        // Opened only between pulls: operators intern while they run.
        b.resolve_into(&mut rows, &ConstReader::new());
    }
    drop(root);
    let columns = columns.map_or_else(Vec::new, owned_names);
    stats.total_time = start.elapsed();
    Ok((RowBatch { columns, rows }, stats))
}

/// The names as owned strings: moved out when no operator shares them any
/// more (the root's are named by this run), copied otherwise.
fn owned_names(mut names: Columns) -> Vec<String> {
    match Arc::get_mut(&mut names) {
        Some(names) => names.iter_mut().map(std::mem::take).collect(),
        None => names.to_vec(),
    }
}

/// A compiled operator: pulls batches from its children on demand.
trait VecOp {
    /// The next batch, `None` at end-of-stream. The first call always
    /// yields `Some` (possibly with zero rows) so columns propagate.
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError>;
}

type OpBox<'a> = Box<dyn VecOp + 'a>;

/// What every operator of one run shares.
struct Ctx<'a> {
    batch_size: usize,
    leaves: &'a dyn Leaves,
}

/// Compile `plan`; `unit` counts the delegated leaves met so far, in
/// execution order ([`Leaves`]).
fn compile<'a>(
    plan: &'a Plan,
    ctx: &Ctx<'a>,
    unit: &mut usize,
    stats: &mut ExecStats,
) -> OpBox<'a> {
    // One increment per plan node.
    stats.operators += 1;
    match plan {
        Plan::Values(rows) => scan(Source::Values(rows), ctx.batch_size),
        Plan::Delegated { runner, .. } => {
            let source = Source::Delegated {
                runner: runner.as_ref(),
                unit: numbered(unit),
                leaves: ctx.leaves,
            };
            scan(source, ctx.batch_size)
        }
        Plan::Filter { input, pred } => Box::new(FilterOp {
            child: compile(input, ctx, unit, stats),
            pred,
            compiled: None,
        }),
        Plan::Project { input, exprs } => Box::new(ProjectOp {
            child: compile(input, ctx, unit, stats),
            exprs,
            names: exprs.iter().map(|(n, _)| n.clone()).collect(),
            compiled: None,
            sel: Vec::new(),
        }),
        Plan::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
        } => Box::new(HashJoinOp {
            left: compile(left, ctx, unit, stats),
            right: compile(right, ctx, unit, stats),
            left_keys,
            right_keys,
            build: None,
            columns: None,
        }),
        Plan::NlJoin { left, right, pred } => Box::new(NlJoinOp {
            left: compile(left, ctx, unit, stats),
            right: compile(right, ctx, unit, stats),
            pred: pred.as_ref(),
            right_mat: None,
            compiled: None,
            columns: None,
        }),
        Plan::BindJoin {
            left,
            key_col,
            source,
        } => Box::new(BindJoinOp {
            child: compile(left, ctx, unit, stats),
            key_col: *key_col,
            source: source.as_ref(),
            unit: numbered(unit),
            leaves: ctx.leaves,
            cache: FastMap::default(),
            fetched: Fetched::new(source.out_columns()),
            columns: None,
        }),
        Plan::Distinct { input } => Box::new(DistinctOp {
            child: compile(input, ctx, unit, stats),
            seen: None,
        }),
        Plan::Aggregate {
            input,
            group_by,
            aggs,
        } => Box::new(AggregateOp {
            child: compile(input, ctx, unit, stats),
            group_by,
            aggs,
            done: false,
        }),
    }
}

/// The next leaf's number, counting it.
fn numbered(unit: &mut usize) -> usize {
    *unit += 1;
    *unit - 1
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

/// A leaf cut into batches: the rows of a `Values` node, interned, or the
/// interned answer of a delegated sub-query, fetched on the first pull. An
/// answer that fits one batch is handed over whole.
struct Scan<'a> {
    source: Source<'a>,
    state: ScanState,
    batch_size: usize,
}

#[derive(Clone, Copy)]
enum Source<'a> {
    Values(&'a RowBatch),
    Delegated {
        runner: &'a Runner,
        unit: usize,
        leaves: &'a dyn Leaves,
    },
}

enum ScanState {
    /// Not pulled yet.
    Unread,
    /// Rows `pos..` of the leaf's answer are still to come.
    Open { batch: Batch, pos: usize },
    /// Everything was handed over.
    Done,
}

/// The operator reading `source`.
fn scan(source: Source<'_>, batch_size: usize) -> OpBox<'_> {
    Box::new(Scan {
        source,
        state: ScanState::Unread,
        batch_size,
    })
}

impl Scan<'_> {
    /// The leaf's whole answer, as a dense batch.
    fn read(&self, stats: &mut ExecStats) -> Result<Batch, EngineError> {
        match self.source {
            Source::Values(rows) => {
                let mut batch = Batch::with_capacity(rows.columns.clone(), rows.len());
                batch.push_values(&rows.rows);
                Ok(batch)
            }
            Source::Delegated {
                runner,
                unit,
                leaves,
            } => {
                let t = Instant::now();
                let batch = leaves.run(unit, runner);
                stats.delegated_time += t.elapsed();
                Ok(batch?.compact())
            }
        }
    }

    /// The next batch of `batch` from row `pos` on; keeps the rest open.
    fn cut(&mut self, batch: Batch, pos: usize) -> Batch {
        let hi = (pos + self.batch_size).min(batch.physical_rows());
        let out = batch.slice(pos, hi);
        if hi < batch.physical_rows() {
            self.state = ScanState::Open { batch, pos: hi };
        }
        out
    }
}

impl VecOp for Scan<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let out = match std::mem::replace(&mut self.state, ScanState::Done) {
            ScanState::Done => return Ok(None),
            ScanState::Unread => match self.read(stats)? {
                whole if whole.physical_rows() <= self.batch_size => whole,
                batch => self.cut(batch, 0),
            },
            ScanState::Open { batch, pos } => self.cut(batch, pos),
        };
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
        let Some(mut batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        // Compile (and intern literals) before any reader is opened.
        let pred = self
            .compiled
            .get_or_insert_with(|| VExpr::compile(self.pred, batch.columns.len()));
        let sel = match batch.sel.take() {
            Some(sel) => sel,
            None => (0..batch.physical_rows() as u32).collect(),
        };
        batch.sel = Some(pred.filter_sel(&batch, sel, &ConstReader::new()));
        stats.rows += batch.num_rows() as u64;
        Ok(Some(batch))
    }
}

struct ProjectOp<'a> {
    child: OpBox<'a>,
    exprs: &'a [(String, Expr)],
    /// The output names, shared by every batch this operator emits.
    names: Columns,
    compiled: Option<Vec<VExpr>>,
    /// The selected rows of the batch being projected, reused across
    /// batches.
    sel: Vec<u32>,
}

impl VecOp for ProjectOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(mut batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let arity = batch.columns.len();
        let picks = || self.exprs.iter().map(|(_, e)| picked(e, arity));
        let cols = if batch.sel.is_none() && picks().all(|p| p.is_some()) {
            // A dense batch's columns are handed on: all of them when the
            // projection keeps them in order, else each moved when nothing
            // later reads it again and copied otherwise.
            let picks = picks().flatten();
            match picks.clone().eq(0..arity) {
                true => batch.cols,
                false => {
                    let all: Vec<usize> = picks.collect();
                    let hand_on = |(j, &i): (usize, &usize)| match all[j + 1..].contains(&i) {
                        true => batch.cols[i].clone(),
                        false => std::mem::take(&mut batch.cols[i]),
                    };
                    all.iter().enumerate().map(hand_on).collect()
                }
            }
        } else {
            let exprs = self.compiled.get_or_insert_with(|| {
                let compile = |(_, e): &(String, Expr)| VExpr::compile(e, arity);
                self.exprs.iter().map(compile).collect()
            });
            self.sel.clear();
            self.sel.extend(batch.selection().map(|i| i as u32));
            let outs: Vec<ColOut> = {
                let reader = ConstReader::new();
                let eval = |e: &VExpr| e.eval(&batch, &self.sel, &reader);
                exprs.iter().map(eval).collect()
            };
            // The reader is dropped; computed values may be interned now.
            outs.into_iter().map(ColOut::into_ids).collect()
        };
        let out = Batch::from_cols(self.names.clone(), cols);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

/// The input column an output column of a projection picks, when it only
/// picks one of the `arity` there are.
fn picked(e: &Expr, arity: usize) -> Option<usize> {
    match e {
        Expr::Col(i) if *i < arity => Some(*i),
        _ => None,
    }
}

/// The key of row `i` of `batch` at `cols`.
fn key_at(batch: &Batch, cols: &[usize], i: usize) -> Key {
    pack_key(cols.iter().map(|c| batch.cols[*c][i]), cols.len())
}

/// The names of `left ++ right`, made on the first batch and shared by
/// every later one.
fn joined(slot: &mut Option<Columns>, left: &[String], right: &[String]) -> Columns {
    slot.get_or_insert_with(|| [left, right].concat().into())
        .clone()
}

struct HashJoinOp<'a> {
    left: OpBox<'a>,
    right: OpBox<'a>,
    left_keys: &'a [usize],
    right_keys: &'a [usize],
    /// The drained left side and its join table.
    build: Option<(Batch, JoinTable)>,
    /// The output names, set (and the right keys checked) on the first
    /// probe batch.
    columns: Option<Columns>,
}

impl VecOp for HashJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let (build, table) = match &mut self.build {
            Some(b) => b,
            slot => {
                let dense = drain_to_dense(&mut self.left, stats)?;
                check_cols(self.left_keys, dense.columns.len(), "HashJoin")?;
                let keys = (0..dense.physical_rows()).map(|i| key_at(&dense, self.left_keys, i));
                let table = JoinTable::build(keys);
                slot.insert((dense, table))
            }
        };
        let Some(rb) = self.right.next_batch(stats)? else {
            return Ok(None);
        };
        let rb = rb.compact();
        if self.columns.is_none() {
            check_cols(self.right_keys, rb.columns.len(), "HashJoin")?;
        }
        let columns = joined(&mut self.columns, &build.columns, &rb.columns);
        let mut rows = IdRows::empty(columns.len());
        for ri in 0..rb.physical_rows() {
            for &li in table.probe(&key_at(&rb, self.right_keys, ri)) {
                let left = build.cols.iter().map(|c| c[li as usize]);
                rows.push(left.chain(rb.cols.iter().map(|c| c[ri])));
            }
        }
        let out = Batch::from_id_rows(columns, &rows);
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
    columns: Option<Columns>,
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
        let columns = joined(&mut self.columns, &lb.columns, &right.columns);
        let mut rows = IdRows::empty(columns.len());
        // Left-major: each left row once per right row.
        for l in 0..lb.physical_rows() {
            for r in 0..right.physical_rows() {
                let left = lb.cols.iter().map(|c| c[l]);
                rows.push(left.chain(right.cols.iter().map(|c| c[r])));
            }
        }
        let mut out = Batch::from_id_rows(columns, &rows);
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
    key_col: usize,
    source: &'a dyn BindSource,
    /// The source's number among the run's delegated leaves.
    unit: usize,
    leaves: &'a dyn Leaves,
    /// Lifetime key cache: key → its number in `fetched`.
    cache: FastMap<ConstId, usize>,
    /// Every key's rows fetched so far, as the source answered them.
    fetched: Fetched,
    /// The output names, set (and the key column checked) on the first
    /// batch.
    columns: Option<Columns>,
}

impl VecOp for BindJoinOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(b) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let b = b.compact();
        if self.columns.is_none() {
            check_cols(&[self.key_col], b.columns.len(), "BindJoin")?;
        }
        let columns = joined(&mut self.columns, &b.columns, &self.fetched.rows.columns);
        // Each row's key number, and the keys seen first here.
        let (known, mut new_keys) = (self.fetched.ends.len(), Vec::new());
        let mut number = |key: &ConstId| {
            *self.cache.entry(*key).or_insert_with(|| {
                new_keys.push(*key);
                known + new_keys.len() - 1
            })
        };
        let row_key: Vec<usize> = b.cols[self.key_col].iter().map(&mut number).collect();
        if !new_keys.is_empty() {
            // One batched probe per pipeline batch of still-unseen keys.
            stats.bind_probes += new_keys.len() as u64;
            let t = Instant::now();
            let f = self.leaves.fetch(self.unit, self.source, &new_keys);
            stats.delegated_time += t.elapsed();
            let f = f?;
            debug_assert_eq!(f.ends.len(), new_keys.len());
            self.fetched.append(f);
        }
        let fetched = &self.fetched.rows;
        let mut rows = IdRows::empty(columns.len());
        for (i, key) in row_key.iter().enumerate() {
            for j in self.fetched.key_rows(*key) {
                let left = b.cols.iter().map(|c| c[i]);
                rows.push(left.chain(fetched.cols.iter().map(|c| c[j])));
            }
        }
        let out = Batch::from_id_rows(columns, &rows);
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

struct DistinctOp<'a> {
    child: OpBox<'a>,
    seen: Option<Distinct>,
}

impl VecOp for DistinctOp<'_> {
    fn next_batch(&mut self, stats: &mut ExecStats) -> Result<Option<Batch>, EngineError> {
        let Some(mut batch) = self.child.next_batch(stats)? else {
            return Ok(None);
        };
        let seen = self
            .seen
            .get_or_insert_with(|| Distinct::new(batch.cols.len()));
        // A selection is written only from the first repeat on.
        let mut kept: Option<Vec<u32>> = None;
        for (n, i) in batch.selection().enumerate() {
            let fresh = seen.keep(batch.cols.iter().map(|c| c[i]));
            match (&mut kept, fresh) {
                (Some(sel), true) => sel.push(i as u32),
                (None, false) => {
                    let firsts = batch.selection().take(n);
                    kept = Some(firsts.map(|i| i as u32).collect());
                }
                _ => {}
            }
        }
        if kept.is_some() {
            batch.sel = kept;
        }
        stats.rows += batch.num_rows() as u64;
        Ok(Some(batch))
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
        let mut groups = Groups::new(
            self.group_by.len(),
            self.aggs.iter().map(|a| a.fun).collect(),
        );
        let mut columns: Option<Columns> = None;
        while let Some(b) = self.child.next_batch(stats)? {
            if columns.is_none() {
                let args: Vec<usize> = self.aggs.iter().map(|a| a.col).collect();
                check_cols(
                    &[self.group_by, &args].concat(),
                    b.columns.len(),
                    "Aggregate",
                )?;
                columns = Some(b.columns.clone());
            }
            // The reader must not be held across child pulls (scans intern).
            let reader = ConstReader::new();
            for i in b.selection() {
                let key = self.group_by.iter().map(|c| b.cols[*c][i]);
                let args = self.aggs.iter().map(|a| b.cols[a.col][i]);
                groups.add(key, args, &reader);
            }
        }
        let input_columns = columns.unwrap_or_else(|| Vec::new().into());
        let keys = self.group_by.iter().map(|c| input_columns[*c].clone());
        let out_columns: Vec<String> = keys
            .chain(self.aggs.iter().map(|a| a.name.clone()))
            .collect();
        let out = Batch::from_id_rows(out_columns, &groups.finish(&[]));
        stats.rows += out.num_rows() as u64;
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{ArithOp, CmpOp};
    use crate::plan::AggFun;
    use crate::tuple::Tuple;
    use estocada_pivot::hash::FastSet;
    use estocada_pivot::Value;
    use estocada_simkit::StoreErrorKind;

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

    fn v_column() -> Columns {
        vec!["v".to_string()].into()
    }

    struct MapSource(FastMap<Value, Vec<Tuple>>);
    impl BindSource for MapSource {
        fn out_columns(&self) -> Columns {
            v_column()
        }
        fn fetch_batch(&self, keys: &[ConstId]) -> Result<Fetched, StoreError> {
            let mut fetched = Fetched::new(v_column());
            for key in keys {
                let rows = self.0.get(&key.value()).into_iter().flatten();
                fetched.rows.push_values(rows);
                fetched.end_key();
            }
            Ok(fetched)
        }
    }

    #[test]
    fn bindjoin_identical_and_probe_counts_match() {
        let mut m = FastMap::default();
        for k in 0..5i64 {
            m.insert(
                Value::Int(k),
                vec![vec![Value::str(format!("v{k}"))], vec![Value::str("dup")]],
            );
        }
        // Key 5 misses; every other key matches twice, per occurrence.
        let left: Vec<Tuple> = (0..19).map(|i| ints(&[i % 6])).collect();
        let want: Vec<Tuple> = left
            .iter()
            .flat_map(|l| {
                m.get(&l[0])
                    .into_iter()
                    .flatten()
                    .map(|v| [&l[..], &v[..]].concat())
            })
            .collect();
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], left))),
            key_col: 0,
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
            fn out_columns(&self) -> Columns {
                v_column()
            }
            fn fetch_batch(&self, _keys: &[ConstId]) -> Result<Fetched, StoreError> {
                panic!("an empty BindJoin batch must not reach the source");
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![]))),
            key_col: 0,
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
                Ok(Batch::empty(vec!["x".into()]))
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
            fn out_columns(&self) -> Columns {
                v_column()
            }
            fn fetch_batch(&self, _keys: &[ConstId]) -> Result<Fetched, StoreError> {
                Err(store_down("key-value", "mget", StoreErrorKind::Timeout))
            }
        }
        let p = Plan::BindJoin {
            left: Box::new(Plan::Values(batch(&["k"], vec![ints(&[1])]))),
            key_col: 0,
            source: Arc::new(FailingSource),
        };
        match execute_with(&p, &ExecOptions::default()) {
            Err(EngineError::Store(e)) => assert_eq!(e.op, "mget"),
            other => panic!("expected store error, got {other:?}"),
        }
    }
}
