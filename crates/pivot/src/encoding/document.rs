//! Document (JSON) data model encoded into the pivot model.
//!
//! Following the paper, a document collection `C` is described by the virtual
//! relations
//!
//! - `C_Doc(docID, name)` — documents of the collection,
//! - `C_Root(docID, nodeID)` — the root node of a document,
//! - `C_Node(nodeID, tag)` — every node with its tag (object field name,
//!   `"$root"` for roots, `"$item"` for array elements),
//! - `C_Child(parentID, childID)` — parent/child edges,
//! - `C_Desc(ancestorID, descID)` — the descendant (transitive, reflexive on
//!   nothing) relation, and
//! - `C_Val(nodeID, value)` — scalar leaf values,
//!
//! together with the constraints that every child is a descendant,
//! descendants compose, and that parent, tag, value and root are functional
//! ("every node has just one parent and one tag").

use crate::atom::Atom;
use crate::constraint::{Constraint, Egd, Tgd};
use crate::fact::{Fact, IdGen};
use crate::schema::{RelationDecl, Schema};
use crate::symbol::Symbol;
use crate::term::Term;
use crate::value::Value;

/// Tag assigned to document root nodes.
pub const ROOT_TAG: &str = "$root";
/// Tag assigned to array element nodes.
pub const ITEM_TAG: &str = "$item";

/// Names of the virtual relations that encode one document collection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DocRelations {
    /// `C_Doc(docID, name)`.
    pub doc: Symbol,
    /// `C_Root(docID, nodeID)`.
    pub root: Symbol,
    /// `C_Node(nodeID, tag)`.
    pub node: Symbol,
    /// `C_Child(parentID, childID)`.
    pub child: Symbol,
    /// `C_Desc(ancestorID, descID)`.
    pub desc: Symbol,
    /// `C_Val(nodeID, value)`.
    pub val: Symbol,
}

impl DocRelations {
    /// Relation names for the collection called `prefix`.
    pub fn for_collection(prefix: &str) -> DocRelations {
        DocRelations {
            doc: Symbol::intern(&format!("{prefix}_Doc")),
            root: Symbol::intern(&format!("{prefix}_Root")),
            node: Symbol::intern(&format!("{prefix}_Node")),
            child: Symbol::intern(&format!("{prefix}_Child")),
            desc: Symbol::intern(&format!("{prefix}_Desc")),
            val: Symbol::intern(&format!("{prefix}_Val")),
        }
    }

    /// Declare the six virtual relations into `schema` and register the
    /// document-model constraints.
    pub fn declare(&self, schema: &mut Schema) {
        schema.add_relation(RelationDecl::new(self.doc, &["docID", "name"]));
        schema.add_relation(RelationDecl::new(self.root, &["docID", "nodeID"]));
        schema.add_relation(RelationDecl::new(self.node, &["nodeID", "tag"]));
        schema.add_relation(RelationDecl::new(self.child, &["parentID", "childID"]));
        schema.add_relation(RelationDecl::new(self.desc, &["ancID", "descID"]));
        schema.add_relation(RelationDecl::new(self.val, &["nodeID", "value"]));
        for c in self.constraints() {
            schema.add_constraint(c);
        }
    }

    /// The document-model constraint set for this collection.
    pub fn constraints(&self) -> Vec<Constraint> {
        let v = |i: u32| Term::var(i);
        let name = |s: &str| format!("{}_{s}", self.child);
        vec![
            // Child(p, c) → Desc(p, c)
            Constraint::Tgd(Tgd::new(
                name("child_is_desc").as_str(),
                vec![Atom::new(self.child, vec![v(0), v(1)])],
                vec![Atom::new(self.desc, vec![v(0), v(1)])],
            )),
            // Child(a, b) ∧ Desc(b, c) → Desc(a, c)
            Constraint::Tgd(Tgd::new(
                name("desc_trans").as_str(),
                vec![
                    Atom::new(self.child, vec![v(0), v(1)]),
                    Atom::new(self.desc, vec![v(1), v(2)]),
                ],
                vec![Atom::new(self.desc, vec![v(0), v(2)])],
            )),
            // Child(p1, c) ∧ Child(p2, c) → p1 = p2  (single parent)
            Constraint::Egd(Egd::new(
                name("single_parent").as_str(),
                vec![
                    Atom::new(self.child, vec![v(0), v(2)]),
                    Atom::new(self.child, vec![v(1), v(2)]),
                ],
                (v(0), v(1)),
            )),
            // Node(n, t1) ∧ Node(n, t2) → t1 = t2  (single tag)
            Constraint::Egd(Egd::new(
                name("single_tag").as_str(),
                vec![
                    Atom::new(self.node, vec![v(0), v(1)]),
                    Atom::new(self.node, vec![v(0), v(2)]),
                ],
                (v(1), v(2)),
            )),
            // Val(n, v1) ∧ Val(n, v2) → v1 = v2  (single value)
            Constraint::Egd(Egd::new(
                name("single_val").as_str(),
                vec![
                    Atom::new(self.val, vec![v(0), v(1)]),
                    Atom::new(self.val, vec![v(0), v(2)]),
                ],
                (v(1), v(2)),
            )),
            // Root(d, r1) ∧ Root(d, r2) → r1 = r2  (single root)
            Constraint::Egd(Egd::new(
                name("single_root").as_str(),
                vec![
                    Atom::new(self.root, vec![v(0), v(1)]),
                    Atom::new(self.root, vec![v(0), v(2)]),
                ],
                (v(1), v(2)),
            )),
        ]
    }

    /// Encode one document into ground facts. Returns the root node id.
    ///
    /// Every object field becomes a child node tagged with the field name;
    /// array elements become children tagged [`ITEM_TAG`]; scalars attach a
    /// `Val` fact to their node. `Desc` facts are **not** emitted — they are
    /// derivable and stores answer descendant queries natively.
    pub fn encode_document(
        &self,
        doc_id: Value,
        doc_name: &str,
        body: &Value,
        ids: &mut IdGen,
        out: &mut Vec<Fact>,
    ) -> Value {
        out.push(Fact::new(
            self.doc,
            vec![doc_id.clone(), Value::str(doc_name)],
        ));
        let root = ids.fresh_id();
        out.push(Fact::new(self.root, vec![doc_id, root.clone()]));
        out.push(Fact::new(
            self.node,
            vec![root.clone(), Value::str(ROOT_TAG)],
        ));
        self.encode_value(&root, body, ids, out);
        root
    }

    fn encode_value(&self, node: &Value, v: &Value, ids: &mut IdGen, out: &mut Vec<Fact>) {
        match v {
            Value::Object(fields) => {
                for (k, fv) in fields.iter() {
                    let child = ids.fresh_id();
                    out.push(Fact::new(self.child, vec![node.clone(), child.clone()]));
                    out.push(Fact::new(
                        self.node,
                        vec![child.clone(), Value::Str(k.clone())],
                    ));
                    self.encode_value(&child, fv, ids, out);
                }
            }
            Value::Array(items) => {
                for item in items.iter() {
                    let child = ids.fresh_id();
                    out.push(Fact::new(self.child, vec![node.clone(), child.clone()]));
                    out.push(Fact::new(
                        self.node,
                        vec![child.clone(), Value::str(ITEM_TAG)],
                    ));
                    self.encode_value(&child, item, ids, out);
                }
            }
            scalar => {
                out.push(Fact::new(self.val, vec![node.clone(), scalar.clone()]));
            }
        }
    }
}

/// A tree-pattern query over one document collection: the native query shape
/// of the document frontend, directly translatable to pivot atoms.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TreePattern {
    /// Collection prefix (matches [`DocRelations::for_collection`]).
    pub collection: String,
    /// Pattern root steps (children of the document root).
    pub steps: Vec<PatternStep>,
}

/// One node of a tree pattern.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct PatternStep {
    /// Tag to match.
    pub tag: String,
    /// Axis from the parent pattern node.
    pub axis: Axis,
    /// Bind the node's scalar value to this variable name.
    pub bind_value: Option<String>,
    /// Require the node's scalar value to equal this constant.
    pub eq_value: Option<Value>,
    /// Child pattern steps.
    pub children: Vec<PatternStep>,
}

/// Pattern axes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Direct child.
    Child,
    /// Any descendant.
    Descendant,
}

impl PatternStep {
    /// A child-axis step matching `tag`.
    pub fn child(tag: &str) -> PatternStep {
        PatternStep {
            tag: tag.to_string(),
            axis: Axis::Child,
            bind_value: None,
            eq_value: None,
            children: Vec::new(),
        }
    }

    /// A descendant-axis step matching `tag`.
    pub fn descendant(tag: &str) -> PatternStep {
        PatternStep {
            tag: tag.to_string(),
            axis: Axis::Descendant,
            ..PatternStep::child(tag)
        }
    }

    /// Bind the node's value to variable `name` (builder style).
    pub fn bind(mut self, name: &str) -> Self {
        self.bind_value = Some(name.to_string());
        self
    }

    /// Require the node's value to equal `v` (builder style).
    pub fn eq(mut self, v: impl Into<Value>) -> Self {
        self.eq_value = Some(v.into());
        self
    }

    /// Add a child step (builder style).
    pub fn with_child(mut self, c: PatternStep) -> Self {
        self.children.push(c);
        self
    }
}

impl TreePattern {
    /// New pattern over `collection`.
    pub fn new(collection: &str) -> TreePattern {
        TreePattern {
            collection: collection.to_string(),
            steps: Vec::new(),
        }
    }

    /// Add a top-level step (builder style).
    pub fn with_step(mut self, s: PatternStep) -> Self {
        self.steps.push(s);
        self
    }

    /// Translate the pattern to pivot atoms.
    ///
    /// `vars` maps binding names to variable terms; fresh node variables are
    /// drawn from `next_var`. Returns the atoms and the `(binding name,
    /// variable)` pairs in pattern order.
    pub fn to_atoms(&self, next_var: &mut u32) -> (Vec<Atom>, Vec<(String, Term)>) {
        let rels = DocRelations::for_collection(&self.collection);
        let mut atoms = Vec::new();
        let mut bindings = Vec::new();
        let doc = fresh(next_var);
        let root = fresh(next_var);
        atoms.push(Atom::new(rels.root, vec![doc, root.clone()]));
        for s in &self.steps {
            encode_step(&rels, &root, s, next_var, &mut atoms, &mut bindings);
        }
        (atoms, bindings)
    }
}

fn fresh(next: &mut u32) -> Term {
    let t = Term::var(*next);
    *next += 1;
    t
}

fn encode_step(
    rels: &DocRelations,
    parent: &Term,
    step: &PatternStep,
    next_var: &mut u32,
    atoms: &mut Vec<Atom>,
    bindings: &mut Vec<(String, Term)>,
) {
    let node = fresh(next_var);
    let edge_rel = match step.axis {
        Axis::Child => rels.child,
        Axis::Descendant => rels.desc,
    };
    atoms.push(Atom::new(edge_rel, vec![parent.clone(), node.clone()]));
    atoms.push(Atom::new(
        rels.node,
        vec![node.clone(), Term::Const(Value::str(&step.tag))],
    ));
    if let Some(c) = &step.eq_value {
        atoms.push(Atom::new(
            rels.val,
            vec![node.clone(), Term::Const(c.clone())],
        ));
    }
    if let Some(b) = &step.bind_value {
        let val_var = fresh(next_var);
        atoms.push(Atom::new(rels.val, vec![node.clone(), val_var.clone()]));
        bindings.push((b.clone(), val_var));
    }
    for c in &step.children {
        encode_step(rels, &node, c, next_var, atoms, bindings);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_document_produces_expected_facts() {
        let rels = DocRelations::for_collection("Carts");
        let mut ids = IdGen::new();
        let mut out = Vec::new();
        let doc = Value::object([
            ("user", Value::Int(7)),
            ("items", Value::array([Value::str("a"), Value::str("b")])),
        ]);
        rels.encode_document(Value::Id(100), "cart7", &doc, &mut ids, &mut out);
        let child_count = out.iter().filter(|f| f.pred == rels.child).count();
        // root -> user, root -> items, items -> 2 elements
        assert_eq!(child_count, 4);
        let vals: Vec<_> = out.iter().filter(|f| f.pred == rels.val).collect();
        assert_eq!(vals.len(), 3); // 7, "a", "b"
                                   // single root fact
        assert_eq!(out.iter().filter(|f| f.pred == rels.root).count(), 1);
    }

    #[test]
    fn constraints_include_transitivity_and_fds() {
        let rels = DocRelations::for_collection("C");
        let cs = rels.constraints();
        assert_eq!(cs.len(), 6);
        let tgds = cs
            .iter()
            .filter(|c| matches!(c, Constraint::Tgd(_)))
            .count();
        assert_eq!(tgds, 2);
    }

    #[test]
    fn tree_pattern_translates_to_atoms_with_bindings() {
        let p = TreePattern::new("Carts").with_step(
            PatternStep::child("user")
                .eq(Value::Int(7))
                .with_child(PatternStep::descendant("sku").bind("s")),
        );
        let mut next = 0;
        let (atoms, bindings) = p.to_atoms(&mut next);
        assert_eq!(bindings.len(), 1);
        assert_eq!(bindings[0].0, "s");
        let rels = DocRelations::for_collection("Carts");
        assert!(atoms.iter().any(|a| a.pred == rels.desc));
        assert!(atoms
            .iter()
            .any(|a| a.pred == rels.val && a.args[1] == Term::Const(Value::Int(7))));
    }

    #[test]
    fn declare_registers_relations_and_constraints() {
        let rels = DocRelations::for_collection("P");
        let mut s = Schema::new();
        rels.declare(&mut s);
        assert!(s.relation(rels.desc).is_some());
        assert_eq!(s.constraints.len(), 6);
    }
}
