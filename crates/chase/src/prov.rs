//! Monotone boolean provenance formulas in minimized DNF.
//!
//! The provenance-aware backchase annotates every universal-plan atom with a
//! provenance variable and propagates, for every derived fact, *which sets of
//! universal-plan atoms suffice to derive it*. That is a monotone boolean
//! function, canonically represented as a set of minimal conjunctions
//! (antichain DNF): `{{p1,p2},{p3}}` means "(p1 ∧ p2) ∨ p3".

use std::collections::BTreeSet;
use std::fmt;

/// A conjunction of provenance variables (sorted set of variable ids).
pub type Clause = BTreeSet<u32>;

/// Minimized monotone DNF over provenance variables.
///
/// Invariant: the clause set is an *antichain* — no clause is a subset of
/// another (absorption is applied eagerly), so `Dnf` is a canonical form:
/// two equal monotone functions have equal `Dnf`s. The clauses are held in
/// a vector sorted ascending, so `⊤` — on every fact of a chase instance —
/// is one small allocation rather than a B-tree leaf.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Dnf {
    clauses: Vec<Clause>,
}

impl Dnf {
    /// The constant `false` (no derivation known).
    pub fn fals() -> Dnf {
        Dnf {
            clauses: Vec::new(),
        }
    }

    /// The constant `true` (derivable from every subset, e.g. facts of the
    /// query's own canonical database).
    pub fn tru() -> Dnf {
        Dnf {
            clauses: vec![Clause::new()],
        }
    }

    /// A single provenance variable.
    pub fn var(v: u32) -> Dnf {
        Dnf {
            clauses: vec![Clause::from([v])],
        }
    }

    /// `true` iff the formula is the constant `false`.
    pub fn is_false(&self) -> bool {
        self.clauses.is_empty()
    }

    /// `true` iff the formula is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.clauses.len() == 1 && self.clauses.first().is_some_and(Clause::is_empty)
    }

    /// The minimal clauses.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        self.clauses.iter()
    }

    /// Number of minimal clauses.
    pub fn len(&self) -> usize {
        self.clauses.len()
    }

    /// `true` when there are no clauses (constant false).
    pub fn is_empty(&self) -> bool {
        self.clauses.is_empty()
    }

    /// Insert a clause, maintaining the antichain invariant. Returns `true`
    /// if the formula changed.
    fn insert_clause(&mut self, c: Clause) -> bool {
        // Absorbed by an existing smaller clause?
        if self.clauses.iter().any(|e| e.is_subset(&c)) {
            return false;
        }
        // Remove clauses the new one absorbs.
        self.clauses.retain(|e| !c.is_subset(e));
        // Absent: an equal clause would have absorbed it.
        let at = self.clauses.binary_search(&c).unwrap_or_else(|at| at);
        self.clauses.insert(at, c);
        true
    }

    /// Disjunction, in place. Returns `true` if the formula changed —
    /// the fixpoint signal of the provenance chase.
    pub fn or_assign(&mut self, other: &Dnf) -> bool {
        let mut changed = false;
        for c in &other.clauses {
            changed |= self.insert_clause(c.clone());
        }
        changed
    }

    /// Conjunction (cross product of clause sets, minimized). `cap` bounds
    /// the resulting clause count; on overflow the result is truncated to
    /// the smallest clauses and `truncated` is set (losing alternatives
    /// never produces spurious rewritings — only potentially misses some).
    pub fn and(&self, other: &Dnf, cap: usize) -> (Dnf, bool) {
        let mut out = Dnf::fals();
        for a in &self.clauses {
            for b in &other.clauses {
                let mut c = a.clone();
                c.extend(b.iter().copied());
                out.insert_clause(c);
            }
        }
        let truncated = out.truncate(cap);
        (out, truncated)
    }

    /// Keep only the `cap` smallest clauses. Returns `true` if truncation
    /// happened.
    pub fn truncate(&mut self, cap: usize) -> bool {
        if self.clauses.len() <= cap {
            return false;
        }
        self.clauses.sort_by_key(|c| c.len());
        self.clauses.truncate(cap);
        self.clauses.sort();
        true
    }

    /// Logical implication test: `self ⇒ other` for monotone DNFs holds iff
    /// every clause of `self` is a superset of some clause of `other`.
    pub fn implies(&self, other: &Dnf) -> bool {
        self.clauses
            .iter()
            .all(|a| other.clauses.iter().any(|b| b.is_subset(a)))
    }
}

impl fmt::Display for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "⊥");
        }
        if self.is_true() {
            return write!(f, "⊤");
        }
        for (i, c) in self.clauses.iter().enumerate() {
            if i > 0 {
                write!(f, " ∨ ")?;
            }
            write!(f, "(")?;
            for (j, v) in c.iter().enumerate() {
                if j > 0 {
                    write!(f, "∧")?;
                }
                write!(f, "p{v}")?;
            }
            write!(f, ")")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clause(vs: &[u32]) -> Clause {
        vs.iter().copied().collect()
    }

    #[test]
    fn true_and_false_identities() {
        let p = Dnf::var(1);
        assert_eq!(Dnf::tru().and(&p, 100).0, p);
        assert!(Dnf::fals().and(&p, 100).0.is_false());
        let mut f = Dnf::fals();
        assert!(f.or_assign(&p));
        assert_eq!(f, p);
        let mut t = Dnf::tru();
        assert!(!t.or_assign(&p)); // ⊤ absorbs everything
        assert!(t.is_true());
    }

    #[test]
    fn absorption_keeps_antichain() {
        let mut d = Dnf::fals();
        d.insert_clause(clause(&[1, 2]));
        d.insert_clause(clause(&[1])); // absorbs {1,2}
        assert_eq!(d.len(), 1);
        assert!(!d.insert_clause(clause(&[1, 3]))); // absorbed by {1}
    }

    #[test]
    fn and_distributes() {
        // (p1 ∨ p2) ∧ p3 = p1p3 ∨ p2p3
        let mut l = Dnf::var(1);
        l.or_assign(&Dnf::var(2));
        let (r, trunc) = l.and(&Dnf::var(3), 100);
        assert!(!trunc);
        assert_eq!(r.len(), 2);
        assert!(r.clauses().any(|c| *c == clause(&[1, 3])));
        assert!(r.clauses().any(|c| *c == clause(&[2, 3])));
    }

    #[test]
    fn and_applies_absorption() {
        // (p1 ∨ p2) ∧ (p1) = p1 (clause p1p2 absorbed by p1)
        let mut l = Dnf::var(1);
        l.or_assign(&Dnf::var(2));
        let (r, _) = l.and(&Dnf::var(1), 100);
        assert_eq!(r, Dnf::var(1));
    }

    #[test]
    fn truncation_flags_and_keeps_smallest() {
        let mut d = Dnf::fals();
        d.insert_clause(clause(&[1, 2, 3]));
        d.insert_clause(clause(&[4]));
        d.insert_clause(clause(&[5, 6]));
        assert!(d.truncate(2));
        assert_eq!(d.len(), 2);
        assert!(d.clauses().any(|c| *c == clause(&[4])));
        assert!(d.clauses().any(|c| *c == clause(&[5, 6])));
    }

    #[test]
    fn implication_for_monotone_dnf() {
        let mut small = Dnf::var(1); // p1
        let (big, _) = small.clone().and(&Dnf::var(2), 100); // p1 ∧ p2
        assert!(big.implies(&small));
        assert!(!small.implies(&big));
        small.or_assign(&Dnf::var(3));
        assert!(big.implies(&small));
        assert!(Dnf::fals().implies(&big));
        assert!(big.implies(&Dnf::tru()));
    }

    #[test]
    fn or_assign_reports_change() {
        let mut d = Dnf::var(1);
        assert!(!d.or_assign(&Dnf::var(1)));
        assert!(d.or_assign(&Dnf::var(2)));
        assert!(!d.or_assign(&Dnf::var(2)));
    }
}
