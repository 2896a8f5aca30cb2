//! Conjunctive queries over the pivot schema.
//!
//! A [`Cq`] is `name(x̄) :- A1, ..., An` — the internal representation every
//! native-language query and every fragment definition is translated into.
//! Head terms may repeat variables and may contain constants.

use crate::atom::Atom;
use crate::hash::FastMap;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A conjunctive query with a named head.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Cq {
    /// Name of the query / view (the head predicate).
    pub name: Symbol,
    /// Head (output) terms.
    pub head: Vec<Term>,
    /// Body atoms.
    pub body: Vec<Atom>,
    /// Human-readable variable names, indexed by `Var::index`. May be
    /// shorter than the variable count; missing entries display as `?N`.
    pub var_names: Vec<String>,
}

impl Cq {
    /// Construct a query; prefer [`CqBuilder`] for ergonomic literals.
    pub fn new(name: impl Into<Symbol>, head: Vec<Term>, body: Vec<Atom>) -> Cq {
        Cq {
            name: name.into(),
            head,
            body,
            var_names: Vec::new(),
        }
    }

    /// All variables in head and body, in first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        let mut visit = |t: &Term| {
            if let Term::Var(v) = t {
                if seen.insert(*v) {
                    out.push(*v);
                }
            }
        };
        for t in &self.head {
            visit(t);
        }
        for a in &self.body {
            for t in &a.args {
                visit(t);
            }
        }
        out
    }

    /// Distinct head variables.
    pub fn head_vars(&self) -> BTreeSet<Var> {
        self.head.iter().filter_map(Term::as_var).collect()
    }

    /// Distinct body variables.
    pub fn body_vars(&self) -> BTreeSet<Var> {
        self.body.iter().flat_map(|a| a.vars()).collect()
    }

    /// A query is *safe* when every head variable occurs in the body.
    pub fn is_safe(&self) -> bool {
        let bv = self.body_vars();
        self.head_vars().iter().all(|v| bv.contains(v))
    }

    /// The greatest variable id used, plus one (i.e. the size of the
    /// variable namespace).
    pub fn var_space(&self) -> u32 {
        self.vars().iter().map(|v| v.0 + 1).max().unwrap_or(0)
    }

    /// Renames all variables by adding `offset`; used to make two queries'
    /// variable namespaces disjoint.
    pub fn shift_vars(&self, offset: u32) -> Cq {
        let f = |v: Var| Var(v.0 + offset);
        Cq {
            name: self.name,
            head: self
                .head
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(f(*v)),
                    c => c.clone(),
                })
                .collect(),
            body: self.body.iter().map(|a| a.rename(&f)).collect(),
            var_names: self.var_names.clone(),
        }
    }

    /// One canonicalization step: renumber variables `0..n` in
    /// first-occurrence order (head first), then sort and deduplicate the
    /// body. Renaming and sorting interact, so a single step need not be a
    /// fixpoint — see [`Cq::canonicalize`].
    fn canonicalize_step(&self) -> Cq {
        let vars = self.vars();
        let map: FastMap<Var, Var> = vars
            .iter()
            .enumerate()
            .map(|(i, v)| (*v, Var(i as u32)))
            .collect();
        let f = |v: Var| map[&v];
        let mut body: Vec<Atom> = self.body.iter().map(|a| a.rename(&f)).collect();
        body.sort();
        body.dedup();
        Cq {
            name: self.name,
            head: self
                .head
                .iter()
                .map(|t| match t {
                    Term::Var(v) => Term::Var(f(*v)),
                    c => c.clone(),
                })
                .collect(),
            body,
            var_names: Vec::new(),
        }
    }

    /// Canonical form: variables renumbered and body atoms sorted, iterated
    /// until a step changes nothing. Idempotent, invariant under variable
    /// renaming; used to deduplicate rewritings, where over-splitting
    /// automorphic queries is harmless.
    ///
    /// The steps settle: ordered by `(body, head)`, no step after the first
    /// makes a query larger. The first step numbers the head's variables
    /// `0..h` by first occurrence and sorting never moves the head, so every
    /// later step keeps those numbers and numbers the other variables from
    /// `h` up by their first occurrence in the body it reads. Where the
    /// renumbered body first differs from that body, a variable occurs for
    /// the first time, and its new number is the least one left while its
    /// old number is another one left: the renumbered body is smaller.
    /// Sorting it makes it no larger, and renaming is injective, so nothing
    /// is deduplicated away. A strictly falling sequence of renamings and
    /// orders of one query is finite, so the first repeat is a fixpoint.
    pub fn canonicalize(&self) -> Cq {
        let mut cur = self.canonicalize_step();
        loop {
            let next = cur.canonicalize_step();
            if (&next.body, &next.head) == (&cur.body, &cur.head) {
                return cur;
            }
            cur = next;
        }
    }

    /// Apply a substitution to head and body.
    pub fn substitute(&self, map: &dyn Fn(Var) -> Option<Term>) -> Cq {
        Cq {
            name: self.name,
            head: self
                .head
                .iter()
                .map(|t| match t {
                    Term::Var(v) => map(*v).unwrap_or_else(|| t.clone()),
                    c => c.clone(),
                })
                .collect(),
            body: self.body.iter().map(|a| a.substitute(map)).collect(),
            var_names: Vec::new(),
        }
    }

    /// Display name for a variable (falls back to `?N`).
    pub fn var_name(&self, v: Var) -> String {
        self.var_names
            .get(v.index())
            .cloned()
            .unwrap_or_else(|| format!("?{}", v.0))
    }
}

impl fmt::Display for Cq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let term = |t: &Term| -> String {
            match t {
                Term::Var(v) => self.var_name(*v),
                Term::Const(c) => format!("{c}"),
            }
        };
        write!(f, "{}(", self.name)?;
        for (i, t) in self.head.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", term(t))?;
        }
        write!(f, ") :- ")?;
        for (i, a) in self.body.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}(", a.pred)?;
            for (j, t) in a.args.iter().enumerate() {
                if j > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", term(t))?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

/// Fluent builder for conjunctive queries using string variable names.
///
/// ```
/// use estocada_pivot::cq::CqBuilder;
/// let q = CqBuilder::new("Q")
///     .head_vars(["u", "p"])
///     .atom("Orders", |a| a.v("u").v("p").v("d"))
///     .atom("Users", |a| a.v("u").c("gold"))
///     .build();
/// assert!(q.is_safe());
/// assert_eq!(q.body.len(), 2);
/// ```
pub struct CqBuilder {
    name: Symbol,
    head: Vec<Term>,
    body: Vec<Atom>,
    names: Vec<String>,
    by_name: FastMap<String, Var>,
}

/// Argument-list builder used by [`CqBuilder::atom`].
pub struct ArgsBuilder<'a> {
    owner: &'a mut CqBuilder,
    args: Vec<Term>,
}

impl<'a> ArgsBuilder<'a> {
    /// Append a named variable argument.
    pub fn v(mut self, name: &str) -> Self {
        let var = self.owner.var(name);
        self.args.push(Term::Var(var));
        self
    }

    /// Append a constant argument.
    pub fn c(mut self, value: impl Into<Value>) -> Self {
        self.args.push(Term::Const(value.into()));
        self
    }
}

impl CqBuilder {
    /// Start building a query named `name`.
    pub fn new(name: impl Into<Symbol>) -> CqBuilder {
        CqBuilder {
            name: name.into(),
            head: Vec::new(),
            body: Vec::new(),
            names: Vec::new(),
            by_name: FastMap::default(),
        }
    }

    /// Get-or-create the variable for `name`.
    pub fn var(&mut self, name: &str) -> Var {
        if let Some(v) = self.by_name.get(name) {
            return *v;
        }
        let v = Var(self.names.len() as u32);
        self.names.push(name.to_string());
        self.by_name.insert(name.to_string(), v);
        v
    }

    /// Set head to the given named variables.
    pub fn head_vars<const N: usize>(mut self, names: [&str; N]) -> Self {
        self.head = names
            .iter()
            .map(|n| {
                let v = self.var(n);
                Term::Var(v)
            })
            .collect();
        self
    }

    /// Append a constant to the head.
    pub fn head_const(mut self, value: impl Into<Value>) -> Self {
        self.head.push(Term::Const(value.into()));
        self
    }

    /// Append one body atom; arguments are supplied through the closure.
    pub fn atom(
        mut self,
        pred: impl Into<Symbol>,
        f: impl FnOnce(ArgsBuilder<'_>) -> ArgsBuilder<'_>,
    ) -> Self {
        let pred = pred.into();
        let args = f(ArgsBuilder {
            owner: &mut self,
            args: Vec::new(),
        })
        .args;
        self.body.push(Atom::new(pred, args));
        self
    }

    /// Finish, yielding the query.
    pub fn build(self) -> Cq {
        Cq {
            name: self.name,
            head: self.head,
            body: self.body,
            var_names: self.names,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Cq {
        CqBuilder::new("Q")
            .head_vars(["x", "z"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("S", |a| a.v("y").v("z"))
            .build()
    }

    #[test]
    fn builder_assigns_vars_in_order() {
        let q = sample();
        // head vars are interned first: x=0, z=1; then y=2 from the body.
        assert_eq!(q.head, vec![Term::var(0), Term::var(1)]);
        assert_eq!(q.body[0].args, vec![Term::var(0), Term::var(2)]);
        assert_eq!(q.body[1].args, vec![Term::var(2), Term::var(1)]);
        assert!(q.is_safe());
    }

    #[test]
    fn unsafe_query_detected() {
        let q = CqBuilder::new("Q")
            .head_vars(["x", "w"])
            .atom("R", |a| a.v("x").v("y"))
            .build();
        assert!(!q.is_safe());
    }

    #[test]
    fn canonicalize_is_invariant_under_renaming_and_reordering() {
        let q1 = sample();
        let q2 = CqBuilder::new("Q")
            .head_vars(["a", "c"])
            .atom("S", |a| a.v("b").v("c"))
            .atom("R", |a| a.v("a").v("b"))
            .build();
        assert_eq!(q1.canonicalize(), q2.canonicalize());
    }

    #[test]
    fn shift_vars_keeps_structure() {
        let q = sample().shift_vars(10);
        assert_eq!(q.head[0], Term::var(10));
        assert_eq!(q.body[1].args, vec![Term::var(12), Term::var(11)]);
    }

    #[test]
    fn display_uses_variable_names() {
        let q = sample();
        assert_eq!(format!("{q}"), "Q(x, z) :- R(x, y), S(y, z)");
    }

    /// [`Cq::canonicalize`] as it was first written: every comparison key
    /// a fresh clone of body and head.
    fn canonicalize_by_cloned_keys(q: &Cq) -> Cq {
        let key = |c: &Cq| (c.body.clone(), c.head.clone());
        let mut seen: Vec<Cq> = Vec::new();
        let mut cur = q.canonicalize_step();
        while !seen.iter().any(|s| key(s) == key(&cur)) && seen.len() < 64 {
            seen.push(cur.clone());
            cur = cur.canonicalize_step();
        }
        seen.into_iter().min_by_key(key).unwrap_or(cur)
    }

    #[test]
    fn canonical_forms_are_those_of_cloned_keys() {
        let atom = |p: &str, a: u32, b: u32| Atom::new(p, vec![Term::var(a), Term::var(b)]);
        // A directed triangle: its automorphisms rotate it, so each
        // rotation of its atoms and its variables is one form.
        let triangle = |r: u32| {
            let v = |i: u32| (i + r) % 3;
            let body = (0..3).map(|i| atom("R", v(i), v(i + 1)));
            Cq::new("Q", vec![], body.cycle().skip(r as usize).take(3).collect())
        };
        // A query whose renumber/sort steps take three rounds to settle.
        let settling = Cq::new(
            "Q",
            vec![],
            vec![
                atom("S", 1, 2),
                atom("S", 2, 0),
                atom("S", 2, 3),
                atom("R", 3, 2),
            ],
        );
        let first = triangle(0).canonicalize();
        for r in 0..3 {
            assert_eq!(triangle(r).canonicalize(), first, "rotation {r}");
        }
        for q in [sample(), triangle(1), settling] {
            assert_eq!(q.canonicalize(), canonicalize_by_cloned_keys(&q), "{q}");
        }
    }

    /// A seeded sweep of random queries — one to six atoms over two binary
    /// and one ternary predicate, up to seven variables, some constants and
    /// repeated atoms, a head of up to three terms: every step after the
    /// first makes the query no larger, and the canonical form is the one
    /// the cycle search of [`canonicalize_by_cloned_keys`] finds.
    #[test]
    fn steps_never_grow_a_query_and_settle_where_the_search_did() {
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = |n: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % n
        };
        let mut longest = 0;
        for _ in 0..4_000 {
            let term = |next: &mut dyn FnMut(u64) -> u64| match next(8) {
                0 => Term::Const(Value::Int(next(2) as i64)),
                _ => Term::var(next(7) as u32),
            };
            let mut body: Vec<Atom> = (0..1 + next(6))
                .map(|_| {
                    let (pred, arity) = [("R", 2), ("S", 2), ("T", 3)][next(3) as usize];
                    Atom::new(pred, (0..arity).map(|_| term(&mut next)).collect())
                })
                .collect();
            if next(4) == 0 {
                body.push(body[0].clone());
            }
            let head = (0..next(4)).map(|_| term(&mut next)).collect();
            let q = Cq::new("Q", head, body);
            let mut cur = q.canonicalize_step();
            for step in 1.. {
                let stepped = cur.canonicalize_step();
                let key = |c: &Cq| (c.body.clone(), c.head.clone());
                assert!(key(&stepped) <= key(&cur), "{q}: step {step} grew");
                if stepped == cur {
                    longest = longest.max(step);
                    break;
                }
                cur = stepped;
            }
            assert_eq!(q.canonicalize(), canonicalize_by_cloned_keys(&q), "{q}");
        }
        assert!(longest >= 2, "the sweep never took a second step");
    }

    #[test]
    fn canonicalize_dedups_identical_atoms() {
        let q = CqBuilder::new("Q")
            .head_vars(["x"])
            .atom("R", |a| a.v("x").v("y"))
            .atom("R", |a| a.v("x").v("y"))
            .build();
        assert_eq!(q.canonicalize().body.len(), 1);
    }
}
