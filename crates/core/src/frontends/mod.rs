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
use std::borrow::Cow;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A query in one of the three frontends. While it is sent it borrows the
/// caller's text, pattern and selection (`QueryInput<'e>`: what a plan-cache
/// hit hashes and compares, so a hit copies no request); the key a prepared
/// plan is kept under owns them (`QueryInput<'static>`,
/// [`QueryInput::to_key`], made on admission). Both forms hash and compare
/// alike, and only a miss [`QueryInput::parse`]s.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum QueryInput<'a> {
    /// Mini-SQL text.
    Sql(Cow<'a, str>),
    /// Document tree pattern + selected bindings.
    Doc {
        pattern: Cow<'a, TreePattern>,
        select: Select<'a>,
    },
    /// A pivot CQ with output names and residual comparisons.
    Pivot(Arc<ParsedQuery>),
}

impl QueryInput<'_> {
    /// The pivot query this request denotes against `catalog` (SQL reads
    /// it; the other two frontends need no catalog).
    pub(crate) fn parse(&self, catalog: &SqlCatalog) -> Result<Arc<ParsedQuery>> {
        Ok(match self {
            QueryInput::Sql(sql) => Arc::new(parse_sql(sql, catalog)?),
            QueryInput::Doc { pattern, select } => {
                let select: Vec<&str> = select.names().collect();
                let doc = doc_query(pattern, &select)?;
                Arc::new(ParsedQuery::conjunctive(doc.cq, doc.head_names, Vec::new()))
            }
            QueryInput::Pivot(parsed) => parsed.clone(),
        })
    }

    /// The request as a key the plan cache can keep.
    pub(crate) fn to_key(&self) -> QueryInput<'static> {
        match self {
            QueryInput::Sql(sql) => QueryInput::Sql(Cow::Owned(sql.to_string())),
            QueryInput::Doc { pattern, select } => QueryInput::Doc {
                pattern: Cow::Owned(pattern.as_ref().clone()),
                select: Select::Kept(select.names().map(str::to_string).collect()),
            },
            QueryInput::Pivot(parsed) => QueryInput::Pivot(parsed.clone()),
        }
    }
}

/// The selected bindings of a document query: the caller's names while it
/// is sent, owned copies in a kept key. Both forms hash and compare as the
/// slice of names they hold.
#[derive(Debug, Clone)]
pub(crate) enum Select<'a> {
    /// The caller's names.
    Sent(&'a [&'a str]),
    /// The names as a kept key holds them.
    Kept(Box<[String]>),
}

impl Select<'_> {
    fn names(&self) -> impl Iterator<Item = &str> {
        let len = match self {
            Select::Sent(names) => names.len(),
            Select::Kept(names) => names.len(),
        };
        (0..len).map(move |i| match self {
            Select::Sent(names) => names[i],
            Select::Kept(names) => names[i].as_str(),
        })
    }
}

impl PartialEq for Select<'_> {
    fn eq(&self, other: &Self) -> bool {
        self.names().eq(other.names())
    }
}

impl Eq for Select<'_> {}

impl Hash for Select<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // `[&str]` and `[String]` hash alike: the length, then each `str`.
        match self {
            Select::Sent(names) => names.hash(state),
            Select::Kept(names) => names.hash(state),
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plancache::hash_of;
    use estocada_pivot::encoding::document::PatternStep;

    #[test]
    fn a_kept_key_hashes_and_compares_as_the_sent_request() {
        let pattern = TreePattern::new("Carts")
            .with_step(PatternStep::child("user").eq(3))
            .with_step(PatternStep::child("pid").bind("pid"));
        let (select, other) = (["pid", "user"], ["pid"]);
        let sent = [
            QueryInput::Sql(Cow::Borrowed("SELECT p.theme FROM Prefs p WHERE p.uid = 3")),
            QueryInput::Doc {
                pattern: Cow::Borrowed(&pattern),
                select: Select::Sent(&select),
            },
        ];
        for request in &sent {
            let kept = request.to_key();
            assert_eq!(&kept, request);
            assert_eq!(hash_of(&kept), hash_of(request));
        }
        let narrower = QueryInput::Doc {
            pattern: Cow::Borrowed(&pattern),
            select: Select::Sent(&other),
        };
        assert_ne!(sent[1].to_key(), narrower);
    }
}
