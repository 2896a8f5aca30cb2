//! Relational data model: the identity encoding.
//!
//! Relational tables map one-to-one onto pivot relations; declared keys
//! become EGDs. This module only adds the row→fact plumbing.

use crate::fact::Fact;
use crate::schema::{RelationDecl, Schema, SchemaError};
use crate::symbol::Symbol;
use crate::value::Value;

/// Pivot description of one relational table.
#[derive(Debug, Clone)]
pub struct TableEncoding {
    /// Pivot relation (same name as the table).
    pub relation: Symbol,
    /// Column names.
    pub columns: Vec<String>,
    /// Key columns (first candidate key), if any.
    pub key: Option<Vec<String>>,
}

impl TableEncoding {
    /// Describe table `name` with columns and an optional primary key.
    pub fn new(name: &str, columns: &[&str], key: Option<&[&str]>) -> TableEncoding {
        TableEncoding {
            relation: Symbol::intern(name),
            columns: columns.iter().map(|s| s.to_string()).collect(),
            key: key.map(|k| k.iter().map(|s| s.to_string()).collect()),
        }
    }

    /// Declare the relation into `schema`; a key naming a column the table
    /// lacks is [`SchemaError::UnknownKeyColumn`] and declares nothing.
    pub fn declare(&self, schema: &mut Schema) -> Result<(), SchemaError> {
        let cols: Vec<&str> = self.columns.iter().map(|s| s.as_str()).collect();
        let mut d = RelationDecl::new(self.relation, &cols);
        if let Some(k) = &self.key {
            let kc: Vec<&str> = k.iter().map(|s| s.as_str()).collect();
            d = d.with_key(&kc)?;
        }
        schema.add_relation(d);
        Ok(())
    }

    /// Encode a row (in column order) as a fact.
    pub fn encode_row(&self, row: Vec<Value>) -> Fact {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row arity mismatch for table {}",
            self.relation
        );
        Fact::new(self.relation, row)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn declare_with_key_produces_egds() {
        let t = TableEncoding::new("Users", &["uid", "name"], Some(&["uid"]));
        let mut s = Schema::new();
        t.declare(&mut s).unwrap();
        assert_eq!(s.constraints.len(), 1);
        assert_eq!(s.relation(t.relation).unwrap().arity(), 2);
    }

    #[test]
    fn encode_row_round_trips() {
        let t = TableEncoding::new("Users", &["uid", "name"], None);
        let f = t.encode_row(vec![Value::Int(1), Value::str("ann")]);
        assert_eq!(f.pred, Symbol::intern("Users"));
        assert_eq!(f.args[1], Value::str("ann"));
    }
}
