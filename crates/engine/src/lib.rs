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
//! hand-built plans. The batch pipeline ([`vexec`]) runs them; the
//! materialized tuple executor ([`exec`]) is the differential reference
//! over the same nine. Per-run counters split time between the stores and
//! the mediator runtime.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod exec;
pub mod expr;
pub mod plan;
pub mod tuple;
pub mod vexec;

pub use batch::Batch;
pub use exec::{execute, EngineError, ExecStats};
pub use expr::{ArithOp, CmpOp, Expr};
pub use plan::{AggFun, AggSpec, BindSource, Plan};
pub use tuple::{RowBatch, Tuple};
pub use vexec::{execute_with, ExecOptions};

pub use estocada_simkit::{StoreError, StoreErrorKind};
