//! # estocada-engine
//!
//! ESTOCADA's lightweight runtime execution engine, "based on a nested
//! relational model, whose atomic types include constants, node IDs, and
//! document types; it provides in particular implementations of the
//! BindJoin operator needed to access data sources with access
//! restrictions".
//!
//! Plans mix *delegated* leaf nodes (native subqueries pushed into the
//! underlying DMSs) with the runtime operators the mediator's translator
//! emits: filter, project, hash / nested-loop / **bind** joins, distinct
//! and aggregation — nine [`Plan`] variants with the `Values` leaf of
//! hand-built plans. One executor runs them all: the batch pipeline in
//! [`vexec`], entered through [`run`] — whose [`Leaves`] decide how each
//! delegated leaf reaches its store (the mediator passes its per-query
//! fault handling there) — or [`execute_with`], whose leaves call their
//! stores directly. Its BindJoin probes the source once per input batch
//! with that batch's still-unseen keys. Interned cells are the one row
//! format at the store boundary: a delegated leaf answers with a [`Batch`],
//! and a BindJoin probe sends its keys as interned cells of one column and
//! gets every key's rows back in one batch ([`Fetched`]). Per-run counters
//! ([`ExecStats`]) split time between the stores and the mediator runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod expr;
pub mod plan;
pub mod tuple;
pub mod vexec;

pub use batch::{Batch, Columns, Fetched};
pub use expr::{ArithOp, CmpOp, Expr};
pub use plan::{AggFun, AggSpec, BindSource, Direct, Leaves, Plan, Runner};
pub use tuple::{RowBatch, Tuple};
pub use vexec::{execute_with, run, EngineError, ExecOptions, ExecStats};

pub use estocada_simkit::{StoreError, StoreErrorKind};
