//! Relation declarations and schemas for the pivot model.

use crate::atom::Atom;
use crate::binding::{AccessMap, AccessPattern};
use crate::constraint::{Constraint, Egd};
use crate::hash::FastMap;
use crate::symbol::Symbol;
use crate::term::Term;
use std::fmt;

/// Declaration of one pivot relation: name, column names, optional access
/// pattern and key columns.
#[derive(Debug, Clone)]
pub struct RelationDecl {
    /// Relation name.
    pub name: Symbol,
    /// Column names (length = arity).
    pub columns: Vec<String>,
    /// Access restriction; `None` = freely accessible.
    pub access: Option<AccessPattern>,
    /// Candidate keys, each a set of column indices.
    pub keys: Vec<Vec<usize>>,
}

impl RelationDecl {
    /// Declare a freely accessible relation.
    pub fn new(name: impl Into<Symbol>, columns: &[&str]) -> RelationDecl {
        RelationDecl {
            name: name.into(),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            access: None,
            keys: Vec::new(),
        }
    }

    /// Attach an access pattern (builder style).
    pub fn with_access(mut self, pattern: AccessPattern) -> Self {
        assert_eq!(
            pattern.adornments.len(),
            self.columns.len(),
            "access pattern arity mismatch for {}",
            self.name
        );
        self.access = Some(pattern);
        self
    }

    /// Declare a candidate key over the named columns (builder style); a
    /// name that is not a column is [`SchemaError::UnknownKeyColumn`].
    pub fn with_key(mut self, key_cols: &[&str]) -> Result<Self, SchemaError> {
        let position = |k: &&str| {
            let column = k.to_string();
            let unknown = || SchemaError::UnknownKeyColumn {
                relation: self.name,
                column,
            };
            self.column_index(k).ok_or_else(unknown)
        };
        let idx = key_cols.iter().map(position).collect::<Result<_, _>>()?;
        self.keys.push(idx);
        Ok(self)
    }

    /// Arity.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }

    /// The key EGDs implied by the declared keys: two tuples agreeing on the
    /// key columns agree on every other column.
    pub fn key_egds(&self) -> Vec<Constraint> {
        let mut out = Vec::new();
        for (k, key) in self.keys.iter().enumerate() {
            // Premise: R(x0..xn-1) ∧ R(y0..yn-1) with xi = yi on key columns.
            let n = self.arity();
            let a1 = Atom::new(self.name, (0..n as u32).map(Term::var).collect::<Vec<_>>());
            let a2 = Atom::new(
                self.name,
                (0..n)
                    .map(|i| {
                        if key.contains(&i) {
                            Term::var(i as u32)
                        } else {
                            Term::var((n + i) as u32)
                        }
                    })
                    .collect::<Vec<_>>(),
            );
            for i in 0..n {
                if key.contains(&i) {
                    continue;
                }
                out.push(Constraint::Egd(Egd::new(
                    format!("{}_key{}_col{}", self.name, k, i).as_str(),
                    vec![a1.clone(), a2.clone()],
                    (Term::var(i as u32), Term::var((n + i) as u32)),
                )));
            }
        }
        out
    }
}

impl fmt::Display for RelationDecl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")?;
        if let Some(a) = &self.access {
            write!(f, " [{a}]")?;
        }
        Ok(())
    }
}

/// A declaration the pivot model cannot hold.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// A key names a column its relation does not have.
    UnknownKeyColumn {
        /// The relation declaring the key.
        relation: Symbol,
        /// The name that is not one of its columns.
        column: String,
    },
    /// An access pattern holds a character other than `i` or `o`.
    BadAdornment(char),
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::UnknownKeyColumn { relation, column } => {
                write!(f, "unknown key column {column} on {relation}")
            }
            SchemaError::BadAdornment(c) => write!(f, "invalid adornment character {c:?}"),
        }
    }
}

impl std::error::Error for SchemaError {}

/// A pivot schema: relation declarations plus model constraints.
#[derive(Debug, Clone, Default)]
pub struct Schema {
    relations: FastMap<Symbol, RelationDecl>,
    /// Constraint set of the schema (model axioms + keys).
    pub constraints: Vec<Constraint>,
}

impl Schema {
    /// Empty schema.
    pub fn new() -> Schema {
        Schema::default()
    }

    /// Add a relation declaration; key EGDs are added automatically.
    pub fn add_relation(&mut self, decl: RelationDecl) {
        self.constraints.extend(decl.key_egds());
        self.relations.insert(decl.name, decl);
    }

    /// Add a model constraint.
    pub fn add_constraint(&mut self, c: impl Into<Constraint>) {
        self.constraints.push(c.into());
    }

    /// Look up a relation.
    pub fn relation(&self, name: Symbol) -> Option<&RelationDecl> {
        self.relations.get(&name)
    }

    /// All declared relations.
    pub fn relations(&self) -> impl Iterator<Item = &RelationDecl> {
        self.relations.values()
    }

    /// Merge another schema into this one.
    pub fn merge(&mut self, other: &Schema) {
        for r in other.relations.values() {
            self.relations.insert(r.name, r.clone());
        }
        self.constraints.extend(other.constraints.iter().cloned());
    }

    /// Derive the access map of all restricted relations.
    pub fn access_map(&self) -> AccessMap {
        let mut m = AccessMap::new();
        for r in self.relations.values() {
            if let Some(p) = &r.access {
                m.set(r.name, p.clone());
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_egds_are_generated_per_nonkey_column() {
        let d = RelationDecl::new("Users", &["uid", "name", "email"])
            .with_key(&["uid"])
            .unwrap();
        let egds = d.key_egds();
        assert_eq!(egds.len(), 2); // name, email
        let s = format!("{}", egds[0]);
        assert!(s.contains("Users"));
    }

    #[test]
    fn schema_collects_key_constraints() {
        let mut s = Schema::new();
        s.add_relation(
            RelationDecl::new("R", &["a", "b"])
                .with_key(&["a"])
                .unwrap(),
        );
        assert_eq!(s.constraints.len(), 1);
        assert!(s.relation(Symbol::intern("R")).is_some());
    }

    #[test]
    fn access_map_only_contains_restricted_relations() {
        let mut s = Schema::new();
        s.add_relation(RelationDecl::new("Free", &["a", "b"]));
        s.add_relation(
            RelationDecl::new("Kv", &["k", "v"]).with_access(AccessPattern::parse("io").unwrap()),
        );
        let m = s.access_map();
        assert!(m.get(Symbol::intern("Free")).is_none());
        assert!(m.get(Symbol::intern("Kv")).is_some());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn access_pattern_arity_checked() {
        let _ = RelationDecl::new("R", &["a", "b"]).with_access(AccessPattern::parse("i").unwrap());
    }

    #[test]
    fn unknown_key_column_is_an_error() {
        let err = RelationDecl::new("R", &["a", "b"]).with_key(&["a", "z"]);
        let unknown = SchemaError::UnknownKeyColumn {
            relation: Symbol::intern("R"),
            column: "z".into(),
        };
        assert_eq!(err.unwrap_err(), unknown);
    }

    #[test]
    fn column_index_lookup() {
        let d = RelationDecl::new("R", &["a", "b"]);
        assert_eq!(d.column_index("b"), Some(1));
        assert_eq!(d.column_index("z"), None);
    }
}
