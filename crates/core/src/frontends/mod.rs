//! Native-language query frontends: each application dataset is queried in
//! the language of its own data model and translated into the pivot model.

pub mod docq;
pub mod sql;

pub use docq::{doc_query, ParsedDocQuery};
pub use sql::{parse_sql, AggregateSpec, ParsedQuery, SqlCatalog, SqlTable};

use crate::analyze::{analyze_query, Diagnostic};
use crate::error::Result;
use estocada_pivot::encoding::document::TreePattern;
use estocada_pivot::Schema;
use std::sync::Arc;

/// A query as the caller wrote it, in one of the three frontends. It is the
/// key of a prepared plan: a plan-cache hit finds its plan by hashing and
/// comparing this, so only a miss [`QueryInput::parse`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryInput {
    /// Mini-SQL text.
    Sql(String),
    /// Document tree pattern + selected bindings.
    Doc {
        pattern: TreePattern,
        select: Vec<String>,
    },
    /// A pivot CQ with output names and residual comparisons.
    Pivot(Arc<ParsedQuery>),
}

impl QueryInput {
    /// The pivot query this input denotes against `catalog` (SQL reads it;
    /// the other two frontends need no catalog).
    pub(crate) fn parse(&self, catalog: &SqlCatalog) -> Result<Arc<ParsedQuery>> {
        Ok(match self {
            QueryInput::Sql(sql) => Arc::new(parse_sql(sql, catalog)?),
            QueryInput::Doc { pattern, select } => {
                let select: Vec<&str> = select.iter().map(String::as_str).collect();
                let doc = doc_query(pattern, &select)?;
                Arc::new(ParsedQuery::conjunctive(doc.cq, doc.head_names, Vec::new()))
            }
            QueryInput::Pivot(parsed) => parsed.clone(),
        })
    }
}

/// Parse a mini-SQL query and run the static analyzer's query lints on
/// its conjunctive core — without planning or executing anything. This is
/// the frontend-level entry to the analyzer: `E002`/`E004` for dangling
/// or arity-mismatched relation references, `E003` for unsafe heads,
/// `W003` for cartesian-product bodies, and `W007` for a `COUNT`/`SUM`/
/// `AVG` whose distinct-core semantics can differ from SQL's bags. The
/// same lints are attached to
/// [`crate::report::Report::diagnostics`] when the query actually runs
/// (served from the catalog-epoch-keyed lint cache —
/// [`crate::report::Report::lint_cache`] shows the activity).
///
/// Deployment-level findings — the termination-certificate lattice
/// (`E001`/`W006`), unsatisfiable constraint bodies (`E005`), fragment
/// subsumption (`W001`) — are not per-query;
/// query them through [`crate::Estocada::analyze`] and
/// [`crate::Estocada::termination_certificate`].
pub fn lint_sql(sql: &str, catalog: &SqlCatalog, schema: &Schema) -> Result<Vec<Diagnostic>> {
    let q = parse_sql(sql, catalog)?;
    Ok(analyze_query(&q.cq, q.aggregate.as_ref(), schema))
}
