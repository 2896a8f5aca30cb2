//! Access patterns (binding patterns) and executability of rewritings.
//!
//! Key-value stores only answer "given the key, return the value" — the
//! paper encodes this as *relations with binding patterns*. A rewriting is
//! **feasible** iff its atoms can be ordered so that every input-adorned
//! position is bound by a query constant or by an earlier atom's output.

use crate::atom::Atom;
use crate::hash::FastMap;
use crate::schema::SchemaError;
use crate::symbol::Symbol;
use crate::term::{Term, Var};
use std::collections::BTreeSet;
use std::fmt;

/// Adornment of one relation position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Adornment {
    /// The position must be bound before the relation can be accessed
    /// (an input: e.g. the key of a key-value collection).
    Input,
    /// The position is produced by the access.
    Output,
}

/// Per-relation access pattern: one adornment per column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessPattern {
    /// Adornment per position.
    pub adornments: Vec<Adornment>,
}

impl AccessPattern {
    /// All-output pattern (freely scannable relation) of the given arity.
    pub fn free(arity: usize) -> AccessPattern {
        AccessPattern {
            adornments: vec![Adornment::Output; arity],
        }
    }

    /// Parse a compact adornment string, e.g. `"io"` = first position input,
    /// second output; any other character is [`SchemaError::BadAdornment`].
    pub fn parse(s: &str) -> Result<AccessPattern, SchemaError> {
        let adornment = |c| match c {
            'i' | 'I' => Ok(Adornment::Input),
            'o' | 'O' => Ok(Adornment::Output),
            other => Err(SchemaError::BadAdornment(other)),
        };
        let adornments = s.chars().map(adornment).collect::<Result<_, _>>()?;
        Ok(AccessPattern { adornments })
    }

    /// Indices of input positions.
    pub fn input_positions(&self) -> impl Iterator<Item = usize> + '_ {
        self.adornments
            .iter()
            .enumerate()
            .filter(|(_, a)| **a == Adornment::Input)
            .map(|(i, _)| i)
    }

    /// `true` when the relation has no input restriction.
    pub fn is_free(&self) -> bool {
        self.adornments.iter().all(|a| *a == Adornment::Output)
    }
}

impl fmt::Display for AccessPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for a in &self.adornments {
            write!(
                f,
                "{}",
                match a {
                    Adornment::Input => 'i',
                    Adornment::Output => 'o',
                }
            )?;
        }
        Ok(())
    }
}

/// Registry of access patterns per relation. Relations without an entry are
/// treated as freely accessible.
#[derive(Debug, Clone, Default)]
pub struct AccessMap {
    patterns: FastMap<Symbol, AccessPattern>,
}

impl AccessMap {
    /// Empty map: everything freely accessible.
    pub fn new() -> AccessMap {
        AccessMap::default()
    }

    /// Register the access pattern of `relation`.
    pub fn set(&mut self, relation: impl Into<Symbol>, pattern: AccessPattern) {
        self.patterns.insert(relation.into(), pattern);
    }

    /// Pattern for `relation`, if restricted.
    pub fn get(&self, relation: Symbol) -> Option<&AccessPattern> {
        self.patterns.get(&relation)
    }

    /// Compute an *executable order* of `atoms`: a permutation in which each
    /// atom's input positions only reference constants or variables bound by
    /// earlier atoms (or `pre_bound` variables, e.g. query constants that
    /// arrived as parameters). Returns `None` when the conjunction is
    /// infeasible.
    ///
    /// Greedy selection is complete here: once an atom becomes executable it
    /// stays executable (bound sets only grow), so any feasible conjunction
    /// admits a greedy order.
    pub fn executable_order(
        &self,
        atoms: &[Atom],
        pre_bound: &BTreeSet<Var>,
    ) -> Option<Vec<usize>> {
        let mut bound = pre_bound.clone();
        let mut remaining: Vec<usize> = (0..atoms.len()).collect();
        let mut order = Vec::with_capacity(atoms.len());
        while !remaining.is_empty() {
            let pick = remaining
                .iter()
                .position(|&i| self.atom_executable(&atoms[i], &bound))?;
            let idx = remaining.remove(pick);
            order.push(idx);
            for t in &atoms[idx].args {
                if let Term::Var(v) = t {
                    bound.insert(*v);
                }
            }
        }
        Some(order)
    }

    /// `true` if `atom` can run with the given bound variables.
    pub fn atom_executable(&self, atom: &Atom, bound: &BTreeSet<Var>) -> bool {
        match self.patterns.get(&atom.pred) {
            None => true,
            Some(p) => p.input_positions().all(|i| match atom.args.get(i) {
                Some(Term::Const(_)) => true,
                Some(Term::Var(v)) => bound.contains(v),
                None => false,
            }),
        }
    }

    /// Feasibility of a whole conjunction (no specific order needed).
    pub fn is_feasible(&self, atoms: &[Atom], pre_bound: &BTreeSet<Var>) -> bool {
        self.executable_order(atoms, pre_bound).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn atom(pred: &str, vars: &[u32]) -> Atom {
        Atom::new(pred, vars.iter().map(|v| Term::var(*v)).collect())
    }

    #[test]
    fn free_atoms_any_order() {
        let m = AccessMap::new();
        let atoms = vec![atom("R", &[0, 1]), atom("S", &[1, 2])];
        assert_eq!(
            m.executable_order(&atoms, &BTreeSet::new()),
            Some(vec![0, 1])
        );
    }

    #[test]
    fn kv_atom_requires_bound_key() {
        let mut m = AccessMap::new();
        m.set("KV", AccessPattern::parse("io").unwrap());
        // KV(k, v) alone with free k: infeasible.
        assert!(!m.is_feasible(&[atom("KV", &[0, 1])], &BTreeSet::new()));
        // R(x, k), KV(k, v): feasible — R binds the key first.
        let atoms = vec![atom("KV", &[1, 2]), atom("R", &[0, 1])];
        let order = m.executable_order(&atoms, &BTreeSet::new()).unwrap();
        assert_eq!(order, vec![1, 0]);
    }

    #[test]
    fn constant_key_is_always_bound() {
        let mut m = AccessMap::new();
        m.set("KV", AccessPattern::parse("io").unwrap());
        let a = Atom::new("KV", vec![Term::constant("user42"), Term::var(0)]);
        assert!(m.is_feasible(&[a], &BTreeSet::new()));
    }

    #[test]
    fn pre_bound_parameters_count() {
        let mut m = AccessMap::new();
        m.set("KV", AccessPattern::parse("io").unwrap());
        let mut pre = BTreeSet::new();
        pre.insert(Var(0));
        assert!(m.is_feasible(&[atom("KV", &[0, 1])], &pre));
    }

    #[test]
    fn chained_kv_accesses_resolve() {
        let mut m = AccessMap::new();
        m.set("KV1", AccessPattern::parse("io").unwrap());
        m.set("KV2", AccessPattern::parse("io").unwrap());
        // KV2 needs KV1's output, KV1 needs a constant: both fine.
        let atoms = vec![
            atom("KV2", &[1, 2]),
            Atom::new("KV1", vec![Term::constant(7i64), Term::var(1)]),
        ];
        assert_eq!(
            m.executable_order(&atoms, &BTreeSet::new()),
            Some(vec![1, 0])
        );
    }

    #[test]
    fn cyclic_inputs_are_infeasible() {
        let mut m = AccessMap::new();
        m.set("A", AccessPattern::parse("io").unwrap());
        m.set("B", AccessPattern::parse("io").unwrap());
        // A(x, y), B(y, x): each needs the other's output first.
        let atoms = vec![atom("A", &[0, 1]), atom("B", &[1, 0])];
        assert!(!m.is_feasible(&atoms, &BTreeSet::new()));
    }

    #[test]
    fn pattern_parse_and_display_round_trip() {
        let p = AccessPattern::parse("ioo").unwrap();
        assert_eq!(format!("{p}"), "ioo");
        assert_eq!(
            AccessPattern::parse("iox"),
            Err(SchemaError::BadAdornment('x'))
        );
        assert_eq!(p.input_positions().collect::<Vec<_>>(), vec![0]);
        assert!(!p.is_free());
        assert!(AccessPattern::free(3).is_free());
    }
}
