//! Mediator-level errors.

use estocada_chase::{ChaseError, RewriteError};
use estocada_engine::EngineError;
use std::fmt;

/// One failed plan attempt, as recorded by [`Error::AllPlansFailed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanFailure {
    /// Index of the attempted alternative (into the report's rewriting
    /// list).
    pub alternative: usize,
    /// The rewriting as text.
    pub rewriting: String,
    /// The store failure that killed the attempt.
    pub error: String,
}

/// Any failure surfaced by the ESTOCADA mediator.
#[derive(Debug)]
pub enum Error {
    /// Query text failed to parse.
    Parse(String),
    /// A name (dataset, table, fragment, column) was not found.
    UnknownName(String),
    /// Rewriting failed.
    Rewrite(RewriteError),
    /// No feasible rewriting covers the query with the current fragments.
    NoRewriting {
        /// The query name.
        query: String,
    },
    /// A rewriting exists but could not be translated to executable form
    /// (e.g. non-tree document pattern, unbound node-id join).
    Untranslatable(String),
    /// Runtime execution failed.
    Engine(EngineError),
    /// A chase run failed outside rewriting (e.g. materialization checks).
    Chase(ChaseError),
    /// Invalid fragment specification.
    BadFragment(String),
    /// A dataset that cannot be registered (a key naming an unknown
    /// column, a row of the wrong arity); nothing was applied.
    BadDataset(String),
    /// DDL named a dataset or relation that is already registered; nothing
    /// was applied.
    Duplicate(String),
    /// A DML batch was rejected (unknown table, arity mismatch, missing
    /// row to delete, upsert without a declared key, …). Rejected batches
    /// are atomic: nothing was applied.
    Dml(String),
    /// DDL rejected by the static analyzer under
    /// [`crate::analyze::ValidationMode::Strict`]: the operation carried
    /// error-severity findings. The diagnostics list every finding
    /// (warnings included, for context); nothing was applied.
    Invalid(Vec<crate::analyze::Diagnostic>),
    /// Every executable rewriting of the query was attempted and every one
    /// failed on a store error (after retries, breaker rejections, and
    /// plan failover).
    AllPlansFailed {
        /// The query name.
        query: String,
        /// Every attempted plan with its failure, in attempt order.
        attempts: Vec<PlanFailure>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse(m) => write!(f, "parse error: {m}"),
            Error::UnknownName(n) => write!(f, "unknown name: {n}"),
            Error::Rewrite(e) => write!(f, "{e}"),
            Error::NoRewriting { query } => write!(
                f,
                "no feasible view-based rewriting answers query {query} over the current fragments"
            ),
            Error::Untranslatable(m) => write!(f, "rewriting not executable: {m}"),
            Error::Engine(e) => write!(f, "execution error: {e}"),
            Error::Chase(e) => write!(f, "chase error: {e}"),
            Error::BadFragment(m) => write!(f, "invalid fragment: {m}"),
            Error::BadDataset(m) => write!(f, "invalid dataset: {m}"),
            Error::Duplicate(n) => write!(f, "already registered: {n}"),
            Error::Dml(m) => write!(f, "dml error: {m}"),
            Error::Invalid(diags) => {
                let errors = diags
                    .iter()
                    .filter(|d| d.severity == crate::analyze::Severity::Error)
                    .count();
                write!(f, "DDL rejected by static analysis: {errors} error(s)")?;
                for d in diags {
                    write!(f, "; {d}")?;
                }
                Ok(())
            }
            Error::AllPlansFailed { query, attempts } => {
                write!(
                    f,
                    "all {} executable plan(s) for query {query} failed",
                    attempts.len()
                )?;
                for a in attempts {
                    write!(
                        f,
                        "; alternative {} [{}]: {}",
                        a.alternative, a.rewriting, a.error
                    )?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {}

impl From<RewriteError> for Error {
    fn from(e: RewriteError) -> Self {
        Error::Rewrite(e)
    }
}

impl From<EngineError> for Error {
    fn from(e: EngineError) -> Self {
        Error::Engine(e)
    }
}

impl From<ChaseError> for Error {
    fn from(e: ChaseError) -> Self {
        Error::Chase(e)
    }
}

/// Mediator result alias.
pub type Result<T> = std::result::Result<T, Error>;
