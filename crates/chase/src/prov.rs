//! Monotone boolean provenance formulas in minimized DNF.
//!
//! The provenance-aware backchase annotates every universal-plan atom with a
//! provenance variable and propagates, for every derived fact, *which sets of
//! universal-plan atoms suffice to derive it*. That is a monotone boolean
//! function, canonically represented as a set of minimal conjunctions
//! (antichain DNF): `{{p1,p2},{p3}}` means "(p1 ∧ p2) ∨ p3".

use std::fmt;

/// A conjunction of provenance variables: their ids, sorted ascending and
/// each once.
pub type Clause = [u32];

/// Minimized monotone DNF over provenance variables.
///
/// Invariant: the clause set is an *antichain* — no clause is a subset of
/// another (absorption is applied eagerly), so `Dnf` is a canonical form:
/// two equal monotone functions have equal `Dnf`s. The clauses ascend
/// (lexicographically, as sorted slices) and are laid out flat: one vector
/// of variables and one of clause ends. `⊤` — on every fact of a chase
/// instance — is a flag, so building it allocates nothing, and a formula
/// assigned into one that held another reuses its buffers.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Dnf {
    /// `true` for `⊤`: the one empty clause (`ends` and `lits` are empty).
    top: bool,
    /// End offset in `lits` of each clause.
    ends: Vec<u32>,
    /// The clauses' variables, one clause after the other.
    lits: Vec<u32>,
}

/// Whether sorted `a` is a subset of sorted `b`.
fn subset(a: &[u32], b: &[u32]) -> bool {
    let mut rest = b.iter();
    a.iter().all(|x| rest.find(|y| **y >= *x) == Some(x))
}

impl Dnf {
    /// The constant `false` (no derivation known).
    pub fn fals() -> Dnf {
        Dnf::default()
    }

    /// The constant `true` (derivable from every subset, e.g. facts of the
    /// query's own canonical database).
    pub fn tru() -> Dnf {
        Dnf {
            top: true,
            ..Dnf::default()
        }
    }

    /// A single provenance variable.
    pub fn var(v: u32) -> Dnf {
        Dnf {
            top: false,
            ends: vec![1],
            lits: vec![v],
        }
    }

    /// `true` iff the formula is the constant `false`.
    pub fn is_false(&self) -> bool {
        !self.top && self.ends.is_empty()
    }

    /// `true` iff the formula is the constant `true`.
    pub fn is_true(&self) -> bool {
        self.top
    }

    /// Clause `i` of the flat layout.
    fn clause(&self, i: usize) -> &Clause {
        let start = i.checked_sub(1).map_or(0, |p| self.ends[p] as usize);
        &self.lits[start..self.ends[i] as usize]
    }

    /// The minimal clauses, ascending.
    pub fn clauses(&self) -> impl Iterator<Item = &Clause> {
        let top = self.top.then_some(&[][..]);
        top.into_iter()
            .chain((0..self.ends.len()).map(|i| self.clause(i)))
    }

    /// Number of minimal clauses.
    pub fn len(&self) -> usize {
        usize::from(self.top) + self.ends.len()
    }

    /// `true` when there are no clauses (constant false).
    pub fn is_empty(&self) -> bool {
        self.is_false()
    }

    /// Become `false`, keeping the buffers.
    pub(crate) fn clear(&mut self) {
        self.top = false;
        self.ends.clear();
        self.lits.clear();
    }

    /// Become `other`, reusing this formula's buffers.
    pub(crate) fn assign(&mut self, other: &Dnf) {
        self.top = other.top;
        self.ends.clone_from(&other.ends);
        self.lits.clone_from(&other.lits);
    }

    /// Become the single variable `v`, keeping the buffers.
    pub(crate) fn set_var(&mut self, v: u32) {
        self.clear();
        self.ends.push(1);
        self.lits.push(v);
    }

    /// Become `⊤`, keeping the buffers.
    pub(crate) fn set_true(&mut self) {
        self.clear();
        self.top = true;
    }

    /// Insert the clause staged past the last one (`lits[tail..]`, sorted),
    /// maintaining the antichain invariant. Returns `true` if the formula
    /// changed.
    fn insert_staged(&mut self, tail: usize) -> bool {
        let width = self.lits.len() - tail;
        if self.top {
            // ⊤ absorbs every clause.
            self.lits.truncate(tail);
            return false;
        }
        if width == 0 {
            // The empty clause absorbs every other.
            self.set_true();
            return true;
        }
        // Absorbed by an existing smaller (or equal) clause?
        let (held, new) = self.lits.split_at(tail);
        let mut start = 0;
        for &end in &self.ends {
            if subset(&held[start..end as usize], new) {
                self.lits.truncate(tail);
                return false;
            }
            start = end as usize;
        }
        // Drop the clauses the new one absorbs, compacting in place, and
        // note where the new one goes: before the first greater clause.
        let (mut write, mut kept, mut start, mut at) = (0, 0, 0, None);
        for i in 0..self.ends.len() {
            let end = self.ends[i] as usize;
            let (held, new) = self.lits.split_at(tail);
            let old = &held[start..end];
            if !subset(new, old) {
                if at.is_none() && old > new {
                    at = Some((kept, write));
                }
                self.lits.copy_within(start..end, write);
                write += end - start;
                self.ends[kept] = write as u32;
                kept += 1;
            }
            start = end;
        }
        self.ends.truncate(kept);
        self.lits.copy_within(tail.., write);
        self.lits.truncate(write + width);
        let (index, offset) = at.unwrap_or((kept, write));
        self.lits[offset..].rotate_right(width);
        for end in &mut self.ends[index..] {
            *end += width as u32;
        }
        self.ends.insert(index, (offset + width) as u32);
        true
    }

    /// Disjunction, in place. Returns `true` if the formula changed —
    /// the fixpoint signal of the provenance chase.
    pub fn or_assign(&mut self, other: &Dnf) -> bool {
        let mut changed = false;
        for c in other.clauses() {
            let tail = self.lits.len();
            self.lits.extend_from_slice(c);
            changed |= self.insert_staged(tail);
        }
        changed
    }

    /// Conjunction (cross product of clause sets, minimized). `cap` bounds
    /// the resulting clause count; on overflow the result is truncated to
    /// the smallest clauses and `truncated` is set (losing alternatives
    /// never produces spurious rewritings — only potentially misses some).
    pub fn and(&self, other: &Dnf, cap: usize) -> (Dnf, bool) {
        let mut out = Dnf::fals();
        let truncated = self.and_into(other, cap, &mut out);
        (out, truncated)
    }

    /// [`Dnf::and`] written into `out`, reusing its buffers; returns
    /// whether the result was truncated.
    pub(crate) fn and_into(&self, other: &Dnf, cap: usize, out: &mut Dnf) -> bool {
        out.clear();
        for a in self.clauses() {
            for b in other.clauses() {
                let tail = out.lits.len();
                let (mut i, mut j) = (0, 0);
                while i < a.len() || j < b.len() {
                    let next = match (a.get(i), b.get(j)) {
                        (Some(x), Some(y)) if x == y => {
                            i += 1;
                            j += 1;
                            *x
                        }
                        (Some(x), Some(y)) if x < y => {
                            i += 1;
                            *x
                        }
                        (Some(x), None) => {
                            i += 1;
                            *x
                        }
                        (_, Some(y)) => {
                            j += 1;
                            *y
                        }
                        (None, None) => break,
                    };
                    out.lits.push(next);
                }
                out.insert_staged(tail);
            }
        }
        out.truncate(cap)
    }

    /// Keep only the `cap` smallest clauses. Returns `true` if truncation
    /// happened.
    pub fn truncate(&mut self, cap: usize) -> bool {
        if self.len() <= cap {
            return false;
        }
        let mut clauses: Vec<Vec<u32>> = self.clauses().map(<[u32]>::to_vec).collect();
        clauses.sort_by_key(Vec::len);
        clauses.truncate(cap);
        clauses.sort();
        self.clear();
        for c in clauses {
            if c.is_empty() {
                self.top = true;
            } else {
                self.lits.extend_from_slice(&c);
                self.ends.push(self.lits.len() as u32);
            }
        }
        true
    }

    /// Logical implication test: `self ⇒ other` for monotone DNFs holds iff
    /// every clause of `self` is a superset of some clause of `other`.
    pub fn implies(&self, other: &Dnf) -> bool {
        self.clauses()
            .all(|a| other.clauses().any(|b| subset(b, a)))
    }
}

impl fmt::Debug for Dnf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.clauses()).finish()
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
        for (i, c) in self.clauses().enumerate() {
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

    fn clause(vs: &[u32]) -> Vec<u32> {
        vs.to_vec()
    }

    /// Insert one clause (test helper over the staged insert).
    impl Dnf {
        fn insert_clause(&mut self, c: Vec<u32>) -> bool {
            let tail = self.lits.len();
            self.lits.extend_from_slice(&c);
            self.insert_staged(tail)
        }
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
