//! Application datasets: the logical data the application works with, in
//! its native data model. ESTOCADA stores datasets *only* as fragments; the
//! registered content here is the staging source of the fact base, which
//! every fragment is filled from. Once a dataset is registered the engine
//! keeps its declaration (table encodings, text columns) and its documents;
//! a relational table's rows live in the fact base alone, and
//! `Estocada::dataset` reads them back from there.

use estocada_pivot::encoding::document::DocRelations;
use estocada_pivot::encoding::relational::TableEncoding;
use estocada_pivot::{Fact, IdGen, Schema, SchemaError, Symbol, Value};
use estocada_textstore::tokenize;

/// One relational table of a dataset: declaration + rows + optional text
/// columns (tokenized into a `{table}_Terms(term, key)` source relation, the
/// pivot view of full-text search over the table).
#[derive(Debug, Clone)]
pub struct TableData {
    /// Table encoding (name, columns, key).
    pub encoding: TableEncoding,
    /// Row data: what registration stages. A registered table keeps none
    /// here; the fact base holds its rows.
    pub rows: Vec<Vec<Value>>,
    /// Columns whose text participates in full-text search.
    pub text_columns: Vec<String>,
}

impl TableData {
    /// Tokenized `{table}_Terms(term, key)` facts of one row — empty when
    /// the table declares no text columns.
    pub fn term_facts(&self, row: &[Value]) -> Vec<Fact> {
        if self.text_columns.is_empty() {
            return Vec::new();
        }
        let rel = Dataset::terms_relation(&self.encoding.relation.as_str());
        let key = self
            .encoding
            .key
            .as_ref()
            .and_then(|k| k.first())
            .and_then(|k| self.encoding.columns.iter().position(|c| c == k))
            .map(|k| row[k].clone())
            .unwrap_or(Value::Null);
        let mut out = Vec::new();
        for tc in &self.text_columns {
            let Some(pos) = self.encoding.columns.iter().position(|c| c == tc) else {
                continue;
            };
            if let Some(text) = row[pos].as_str() {
                for term in tokenize(text) {
                    out.push(Fact::new(rel, vec![Value::str(&term), key.clone()]));
                }
            }
        }
        out
    }

    /// The pivot facts `rows` of this table contribute, one per (row, fact):
    /// every base tuple first, then the term facts — so the first fact of a
    /// delete batch that the fact base cannot cover is a requested row,
    /// never a term fact a held row shares. Shared by full-content encoding
    /// ([`Dataset::pivot_facts`]) and the incremental DML fact-delta
    /// computation, so the two can never drift — deleting or inserting
    /// rows changes exactly these facts' multiplicities.
    pub fn facts(&self, rows: &[Vec<Value>]) -> Vec<Fact> {
        let tuples = rows.iter().map(|row| self.encoding.encode_row(row.clone()));
        let terms = rows.iter().flat_map(|row| self.term_facts(row));
        tuples.chain(terms).collect()
    }
}

/// One document of a document dataset.
#[derive(Debug, Clone)]
pub struct DocData {
    /// Document id (application-level key).
    pub id: Value,
    /// Document name.
    pub name: String,
    /// Document body (object/array tree).
    pub body: Value,
}

/// Dataset content in its native model.
#[derive(Debug, Clone)]
pub enum DatasetContent {
    /// Relational dataset: a set of tables.
    Relational(Vec<TableData>),
    /// Document dataset: one collection of documents.
    Documents(Vec<DocData>),
}

/// A named application dataset.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name; document datasets use it as the encoding prefix.
    pub name: String,
    /// Content.
    pub content: DatasetContent,
}

impl Dataset {
    /// Relational dataset constructor.
    pub fn relational(name: &str, tables: Vec<TableData>) -> Dataset {
        Dataset {
            name: name.to_string(),
            content: DatasetContent::Relational(tables),
        }
    }

    /// Document dataset constructor.
    pub fn documents(name: &str, docs: Vec<DocData>) -> Dataset {
        Dataset {
            name: name.to_string(),
            content: DatasetContent::Documents(docs),
        }
    }

    /// The document-encoding relation names (document datasets only).
    pub fn doc_relations(&self) -> Option<DocRelations> {
        match &self.content {
            DatasetContent::Documents(_) => Some(DocRelations::for_collection(&self.name)),
            DatasetContent::Relational(_) => None,
        }
    }

    /// The `{table}_Terms` relation name for a text-searchable table.
    pub fn terms_relation(table: &str) -> Symbol {
        Symbol::intern(&format!("{table}_Terms"))
    }

    /// Why the dataset cannot be registered: a table whose key names a
    /// column it does not have, or a row whose arity differs from its
    /// table's. Checked before anything is declared or staged.
    pub fn malformed(&self) -> Option<String> {
        let DatasetContent::Relational(tables) = &self.content else {
            return None;
        };
        tables.iter().find_map(|t| {
            let (name, columns) = (t.encoding.relation, &t.encoding.columns);
            let key = t.encoding.key.iter().flatten();
            if let Some(k) = key.into_iter().find(|k| !columns.contains(k)) {
                return Some(format!("table {name} has no key column {k}"));
            }
            let row = t.rows.iter().find(|r| r.len() != columns.len())?;
            let (got, want) = (row.len(), columns.len());
            Some(format!(
                "table {name} holds a row of {got} columns, not {want}"
            ))
        })
    }

    /// Declare this dataset's pivot relations and model constraints into
    /// `schema`; a table's key naming a column it lacks is
    /// [`SchemaError::UnknownKeyColumn`].
    pub fn declare(&self, schema: &mut Schema) -> Result<(), SchemaError> {
        match &self.content {
            DatasetContent::Relational(tables) => {
                for t in tables {
                    t.encoding.declare(schema)?;
                    if !t.text_columns.is_empty() {
                        // Terms(term, key): derived source relation for
                        // full-text predicates over this table.
                        schema.add_relation(estocada_pivot::RelationDecl::new(
                            Self::terms_relation(&t.encoding.relation.as_str()),
                            &["term", "key"],
                        ));
                    }
                }
            }
            DatasetContent::Documents(_) => {
                DocRelations::for_collection(&self.name).declare(schema)
            }
        }
        Ok(())
    }

    /// Encode the full content as pivot ground facts (used by fragment
    /// materialization). Node ids are drawn from `ids`.
    pub fn pivot_facts(&self, ids: &mut IdGen) -> Vec<Fact> {
        let mut out = Vec::new();
        match &self.content {
            DatasetContent::Relational(tables) => {
                for t in tables {
                    out.extend(t.facts(&t.rows));
                }
            }
            DatasetContent::Documents(docs) => {
                let rels = DocRelations::for_collection(&self.name);
                for d in docs {
                    rels.encode_document(d.id.clone(), &d.name, &d.body, ids, &mut out);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel_dataset() -> Dataset {
        Dataset::relational(
            "sales",
            vec![TableData {
                encoding: TableEncoding::new(
                    "Products",
                    &["pid", "title", "price"],
                    Some(&["pid"]),
                ),
                rows: vec![
                    vec![Value::Int(1), Value::str("Wireless Mouse"), Value::Int(20)],
                    vec![Value::Int(2), Value::str("USB Keyboard"), Value::Int(30)],
                ],
                text_columns: vec!["title".to_string()],
            }],
        )
    }

    #[test]
    fn relational_declaration_includes_terms_relation() {
        let d = rel_dataset();
        let mut s = Schema::new();
        d.declare(&mut s).unwrap();
        assert!(s.relation(Symbol::intern("Products")).is_some());
        assert!(s.relation(Symbol::intern("Products_Terms")).is_some());
    }

    #[test]
    fn relational_facts_include_tokenized_terms() {
        let d = rel_dataset();
        let mut ids = IdGen::new();
        let facts = d.pivot_facts(&mut ids);
        let terms: Vec<&Fact> = facts
            .iter()
            .filter(|f| f.pred == Symbol::intern("Products_Terms"))
            .collect();
        assert!(terms
            .iter()
            .any(|f| f.args[0] == Value::str("mouse") && f.args[1] == Value::Int(1)));
        assert!(terms
            .iter()
            .any(|f| f.args[0] == Value::str("usb") && f.args[1] == Value::Int(2)));
    }

    #[test]
    fn document_dataset_encodes_trees() {
        let d = Dataset::documents(
            "Carts",
            vec![DocData {
                id: Value::Id(1),
                name: "cart1".into(),
                body: Value::object([("user", Value::Int(7))]),
            }],
        );
        let mut s = Schema::new();
        d.declare(&mut s).unwrap();
        let rels = d.doc_relations().unwrap();
        assert!(s.relation(rels.child).is_some());
        let mut ids = IdGen::new();
        let facts = d.pivot_facts(&mut ids);
        assert!(facts.iter().any(|f| f.pred == rels.val));
    }
}
